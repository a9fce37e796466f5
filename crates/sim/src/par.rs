//! Deterministic parallelism: fork–join over experiment grids, and one
//! producer thread that generates a stream ahead of its consumer.
//!
//! The experiment runner executes many independent (platform, workload)
//! simulations; each one is seeded and self-contained, so they can run on
//! different OS threads without any effect on the simulated results. The
//! module holds the two primitives the workspace runs threads through:
//!
//! * [`parallel_map`], an order-preserving map over a slice using scoped
//!   threads — the experiment grid's fan-out;
//! * [`prefetch`], which runs an iterator on one scoped producer thread and
//!   serves its items, in order, to a consumer on the calling thread — the
//!   open-loop engine generates its request stream this way, so the thread
//!   that serves requests does not also draw them.
//!
//! Both exist in-tree because the build environment has no crates-registry
//! access (`rayon` and `crossbeam` would otherwise be the natural choices);
//! the API is deliberately tiny so a later swap is a small change at each
//! call site.
//!
//! # Determinism
//!
//! `parallel_map(items, f)` returns exactly `items.iter().map(f).collect()`
//! — same values, same order — as long as `f` is a pure function of its
//! argument. Work is claimed from an atomic counter, so thread scheduling
//! affects only which thread computes which element, never the result.
//!
//! `prefetch(source, consume)` hands `consume` a view that yields exactly
//! `source.collect()`, in order: one thread generates every item, so
//! scheduling decides only how far ahead of the consumer it runs.
//!
//! # Example
//!
//! ```
//! let squares = hams_sim::par::parallel_map(&[1u64, 2, 3, 4], |x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//!
//! let total = hams_sim::par::prefetch(1u64..=100, |view| view.sum::<u64>());
//! assert_eq!(total, 5050);
//! ```

use std::collections::VecDeque;
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

/// Items the [`prefetch`] producer generates per chunk. Each chunk costs one
/// channel send and one receive, shared by all its items. On the open-loop
/// stream (48 B a request, 24 KiB a chunk) neither 128 nor 2048 ran
/// measurably faster, and 2048 raised `mixed-openloop`'s peak RSS by 5%
/// (README § Performance).
const CHUNK: usize = 512;

/// Filled chunks that may wait for the consumer. The producer runs at most
/// `DEPTH + 1` chunks ahead, which absorbs its scheduling jitter without
/// letting it run far past a consumer that stops early. Depths 2 and 8 ran
/// no measurably faster on `mixed-openloop`.
const DEPTH: usize = 4;

/// Serves `consume` the items of `source`, in order, while one scoped
/// producer thread generates them ahead in chunks.
///
/// `consume` runs on the calling thread and reads the stream through a
/// [`Prefetched`] view, which yields exactly `source.collect()`; only
/// host time changes. The calling thread allocates every chunk buffer and
/// the two threads recycle them, so the producer never allocates one.
/// Dropping the view ends the producer after at most one more chunk, so
/// `consume` may stop early.
///
/// A panic in `consume` propagates with its own payload once the producer
/// has stopped. A panic in `source` ends the view early, as if the stream
/// had ended, and reaches the caller with its own payload once `consume`
/// returns.
pub fn prefetch<I, R>(source: I, consume: impl FnOnce(&mut Prefetched<I::Item>) -> R) -> R
where
    I: Iterator + Send,
    I::Item: Send,
{
    let (full_tx, full_rx) = mpsc::sync_channel(DEPTH);
    // Room for every buffer but the one the view holds, so handing a
    // drained chunk back never blocks the consumer.
    let (free_tx, free_rx) = mpsc::sync_channel(DEPTH + 1);
    for _ in 0..=DEPTH {
        free_tx
            .send(VecDeque::with_capacity(CHUNK))
            .expect("the free channel has room for every spare buffer");
    }
    let mut view = Prefetched {
        chunk: VecDeque::with_capacity(CHUNK),
        full: full_rx,
        free: free_tx,
    };
    std::thread::scope(|scope| {
        let producer = scope.spawn(move || produce(source, &free_rx, &full_tx));
        let result = consume(&mut view);
        // Closing both channels releases a producer blocked on either.
        drop(view);
        // As in `parallel_map`, joining by hand keeps the producer's payload.
        if let Err(payload) = producer.join() {
            std::panic::resume_unwind(payload);
        }
        result
    })
}

/// The producer's loop: fill each recycled buffer with the next [`CHUNK`]
/// items and send it on, until the source ends or the consumer goes away.
fn produce<I: Iterator>(
    mut source: I,
    free: &mpsc::Receiver<VecDeque<I::Item>>,
    full: &mpsc::SyncSender<VecDeque<I::Item>>,
) {
    while let Ok(mut chunk) = free.recv() {
        // Every buffer holds `CHUNK` items, so this never reallocates.
        chunk.extend(source.by_ref().take(CHUNK));
        let last = chunk.len() < CHUNK;
        if chunk.is_empty() || full.send(chunk).is_err() || last {
            return;
        }
    }
}

/// The consumer's view of a [`prefetch`]ed stream: an iterator over the
/// source's items with a [`Prefetched::peek`] at the next one.
#[derive(Debug)]
pub struct Prefetched<T> {
    /// The chunk being consumed; empty only between chunks and at the end.
    chunk: VecDeque<T>,
    full: mpsc::Receiver<VecDeque<T>>,
    free: mpsc::SyncSender<VecDeque<T>>,
}

impl<T> Prefetched<T> {
    /// The next item, without taking it; `None` once the stream has ended.
    pub fn peek(&mut self) -> Option<&T> {
        if self.chunk.is_empty() {
            self.refill();
        }
        self.chunk.front()
    }

    /// Swaps the drained chunk for the producer's next one, waiting for it
    /// if need be. At the end of the stream the chunk stays empty.
    #[cold]
    fn refill(&mut self) {
        if let Ok(next) = self.full.recv() {
            let drained = std::mem::replace(&mut self.chunk, next);
            // Fails only once the producer has returned; the buffer is
            // then simply freed.
            let _ = self.free.send(drained);
        }
    }
}

impl<T> Iterator for Prefetched<T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        if self.chunk.is_empty() {
            self.refill();
        }
        self.chunk.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    /// Stream lengths around the chunk boundary.
    const LENGTHS: [usize; 6] = [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5];

    /// A source of `len` items that are not their own indices, counting in
    /// `generated` how many it has produced.
    fn source(
        len: usize,
        salt: u64,
        generated: &AtomicUsize,
    ) -> impl Iterator<Item = u64> + Send + '_ {
        (0..len as u64).map(move |i| {
            generated.fetch_add(1, Ordering::SeqCst);
            i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt
        })
    }

    proptest! {
        /// The view yields exactly `source.collect()`, and however often it
        /// is asked, `peek` names the item the next `next` takes.
        #[test]
        fn prefetched_view_yields_the_source_and_peek_names_the_next_item(
            which in 0usize..LENGTHS.len(),
            salt in any::<u64>(),
            peeks in collection::vec(0usize..3, 1..16),
        ) {
            let len = LENGTHS[which];
            let expected: Vec<u64> = source(len, salt, &AtomicUsize::new(0)).collect();
            let seen = prefetch(source(len, salt, &AtomicUsize::new(0)), |view| {
                let mut seen = Vec::new();
                for step in 0.. {
                    let peeked: Vec<Option<u64>> =
                        (0..peeks[step % peeks.len()]).map(|_| view.peek().copied()).collect();
                    let item = view.next();
                    assert!(peeked.iter().all(|p| *p == item), "step {step}: peeked {peeked:?}, took {item:?}");
                    match item {
                        Some(x) => seen.push(x),
                        None => break,
                    }
                }
                assert_eq!(view.peek(), None);
                assert_eq!(view.next(), None);
                seen
            });
            prop_assert_eq!(seen, expected);
        }

        /// A consumer that stops early gets the source's prefix and returns;
        /// the producer stopped at most its bounded lead past that point.
        #[test]
        fn a_consumer_may_stop_early(
            which in 0usize..LENGTHS.len() + 1,
            stop in 0usize..4 * CHUNK,
            salt in any::<u64>(),
        ) {
            let len = LENGTHS.get(which).copied().unwrap_or(20 * CHUNK);
            let stop = stop.min(len);
            let generated = AtomicUsize::new(0);
            let expected: Vec<u64> = source(len, salt, &AtomicUsize::new(0)).take(stop).collect();
            let seen: Vec<u64> =
                prefetch(source(len, salt, &generated), |view| view.take(stop).collect());
            prop_assert_eq!(seen, expected);
            prop_assert!(generated.load(Ordering::SeqCst) <= stop + (DEPTH + 2) * CHUNK);
        }
    }

    #[test]
    fn a_consumer_that_stops_early_releases_a_blocked_producer() {
        let generated = AtomicUsize::new(0);
        let first = prefetch(source(100 * CHUNK, 0, &generated), |view| {
            // With nothing taken, the producer fills every spare buffer and
            // then blocks sending the last one into the full channel.
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
            while generated.load(Ordering::SeqCst) < (DEPTH + 1) * CHUNK {
                assert!(
                    std::time::Instant::now() < deadline,
                    "the producer stopped after {} items",
                    generated.load(Ordering::SeqCst)
                );
                std::thread::yield_now();
            }
            view.peek().copied()
        });
        assert_eq!(first, source(1, 0, &AtomicUsize::new(0)).next());
        // The peek handed one buffer back, so at most one more chunk.
        assert!(generated.load(Ordering::SeqCst) <= (DEPTH + 2) * CHUNK);
    }

    #[test]
    #[should_panic(expected = "consumer gave up after 513 items")]
    fn a_consumer_panic_surfaces_with_its_own_payload() {
        let _ = prefetch(0..100 * CHUNK as u64, |view| {
            let taken = view.take(CHUNK + 1).count();
            assert!(taken == 0, "consumer gave up after {taken} items");
            taken
        });
    }

    #[test]
    #[should_panic(expected = "source failed at 700")]
    fn a_producer_panic_surfaces_with_its_own_payload() {
        let failing = (0..2 * CHUNK as u64).inspect(|&i| assert!(i != 700, "source failed at {i}"));
        let _ = prefetch(failing, |view| view.count());
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
