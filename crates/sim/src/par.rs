//! Deterministic fork–join parallelism for embarrassingly parallel
//! experiment grids.
//!
//! The experiment runner executes many independent (platform, workload)
//! simulations; each one is seeded and self-contained, so they can run on
//! different OS threads without any effect on the simulated results. This
//! module provides the one primitive that needs: [`parallel_map`], an
//! order-preserving map over a slice using scoped threads. It exists in-tree
//! because the build environment has no crates-registry access (`rayon` would
//! otherwise be the natural choice); the API is deliberately tiny so a later
//! swap to `rayon` is a one-line change at each call site.
//!
//! # Determinism
//!
//! `parallel_map(items, f)` returns exactly `items.iter().map(f).collect()`
//! — same values, same order — as long as `f` is a pure function of its
//! argument. Work is claimed from an atomic counter, so thread scheduling
//! affects only which thread computes which element, never the result.
//!
//! # Example
//!
//! ```
//! let squares = hams_sim::par::parallel_map(&[1u64, 2, 3, 4], |x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Upper bound on worker threads, honouring the `HAMS_THREADS` environment
/// variable (unset or `0` = one worker per available core).
///
/// # Panics
///
/// Panics if `HAMS_THREADS` is set but is not a non-negative integer, like
/// the other `HAMS_*` knobs: a leg that mistyped its thread count would
/// otherwise run on every core and report green without its intended shape.
#[must_use]
pub fn max_workers() -> usize {
    let requested = std::env::var("HAMS_THREADS")
        .ok()
        .map_or(0, |raw| parse_threads(&raw));
    if requested > 0 {
        return requested;
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Parses a raw `HAMS_THREADS` value; `0` means one worker per core.
fn parse_threads(raw: &str) -> usize {
    raw.trim().parse::<usize>().unwrap_or_else(|_| {
        panic!("HAMS_THREADS must be a non-negative integer (0 = one per core), got {raw:?}")
    })
}

/// Maps `f` over `items` on a pool of scoped threads, preserving input
/// order in the output.
///
/// Equivalent to `items.iter().map(f).collect()` for any `f` that is a pure
/// function of its argument (see the module docs on determinism). A panic in
/// `f` propagates to the caller with its own payload once all workers have
/// stopped.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    let workers = max_workers().min(n);
    if workers <= 1 {
        return items.iter().map(f).collect();
    }

    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let tx = tx.clone();
                let next = &next;
                let f = &f;
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n || tx.send((i, f(&items[i]))).is_err() {
                        break;
                    }
                })
            })
            .collect();
        drop(tx);
        let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
        for (i, r) in rx {
            out[i] = Some(r);
        }
        // Joining by hand keeps a worker's panic payload: left to the scope,
        // it would resurface as a generic "a scoped thread panicked".
        for handle in handles {
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
        // A hole is only possible when a worker panicked mid-item, and that
        // panic was re-raised above, so the expect never fires.
        out.into_iter()
            .map(|slot| slot.expect("worker delivered every index"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_serial_map_in_value_and_order() {
        let items: Vec<u64> = (0..1_000).collect();
        let serial: Vec<u64> = items.iter().map(|x| x.wrapping_mul(2654435761)).collect();
        let parallel = parallel_map(&items, |x| x.wrapping_mul(2654435761));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map(&empty, |x| *x).is_empty());
        assert_eq!(parallel_map(&[7u32], |x| x + 1), vec![8]);
    }

    #[test]
    fn repeated_runs_are_identical() {
        let items: Vec<u64> = (0..64).collect();
        let a = parallel_map(&items, |x| x * x);
        let b = parallel_map(&items, |x| x * x);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate_with_their_own_message() {
        let items: Vec<u64> = (0..16).collect();
        let _ = parallel_map(&items, |x| {
            assert!(*x != 9, "boom");
            *x
        });
    }

    #[test]
    fn max_workers_is_positive() {
        assert!(max_workers() >= 1);
    }

    #[test]
    fn well_formed_thread_counts_parse() {
        assert_eq!(parse_threads("0"), 0);
        assert_eq!(parse_threads("8"), 8);
        assert_eq!(parse_threads(" 3 "), 3);
    }

    #[test]
    #[should_panic(
        expected = "HAMS_THREADS must be a non-negative integer (0 = one per core), got \"eight\""
    )]
    fn malformed_thread_count_names_the_knob_and_the_value() {
        let _ = parse_threads("eight");
    }
}
