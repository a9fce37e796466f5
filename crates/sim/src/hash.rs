//! A fast, deterministic hasher for simulator-internal maps.
//!
//! `std`'s default `SipHash` is DoS-resistant, which simulator bookkeeping
//! maps (command trackers, page tables) do not need: their keys are small
//! integers produced by the simulation itself, never attacker-controlled.
//! [`FastHasher`] is the classic Fx multiply-rotate hash — a handful of
//! cycles per key — which matters on the per-command maps the serving hot
//! path touches several times per simulated miss. It exists in-tree because
//! the build environment has no crates-registry access (`rustc-hash` would
//! otherwise be the natural choice).
//!
//! Determinism: the hash of a key is a pure function of its bytes (no random
//! per-process seed), so map iteration order — which simulator code must
//! never rely on anyway — is at least stable across runs of the same binary.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The Fx multiply constant (a large prime close to the golden ratio times
/// 2^64, as used by the Firefox and rustc hashers).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A non-cryptographic multiply-rotate hasher for small simulator keys.
#[derive(Debug, Default, Clone, Copy)]
pub struct FastHasher {
    hash: u64,
}

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// [`BuildHasherDefault`] over [`FastHasher`]; implements `Default`, so the
/// alias below keeps working with `serde` and `HashMap::default()`.
pub type FastBuildHasher = BuildHasherDefault<FastHasher>;

/// A `HashMap` keyed with [`FastHasher`].
pub type FastHashMap<K, V> = HashMap<K, V, FastBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_round_trips_and_is_deterministic() {
        let mut m: FastHashMap<u64, u64> = FastHashMap::default();
        for i in 0..1_000u64 {
            m.insert(i * 7, i);
        }
        for i in 0..1_000u64 {
            assert_eq!(m.get(&(i * 7)), Some(&i));
        }
        assert_eq!(m.len(), 1_000);
        for i in 0..500u64 {
            assert_eq!(m.remove(&(i * 7)), Some(i));
        }
        assert_eq!(m.len(), 500);
    }

    #[test]
    fn hashes_are_pure_functions_of_the_key() {
        use std::hash::BuildHasher;
        let build = FastBuildHasher::default();
        let hash_of = |k: &(u16, u16)| build.hash_one(k);
        assert_eq!(hash_of(&(3, 9)), hash_of(&(3, 9)));
        assert_ne!(hash_of(&(3, 9)), hash_of(&(9, 3)));
    }

    #[test]
    fn byte_writes_cover_partial_chunks() {
        let mut a = FastHasher::default();
        a.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let mut b = FastHasher::default();
        b.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert_eq!(a.finish(), b.finish());
        let mut c = FastHasher::default();
        c.write(&[1, 2, 3]);
        assert_ne!(a.finish(), c.finish());
    }
}
