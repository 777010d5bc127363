//! Order-preserving parallel map.
//!
//! The primitive under every sweep in this workspace: fan items out to a
//! fixed pool of scoped worker threads over a *bounded* crossbeam
//! channel (so a slow consumer applies backpressure instead of buffering
//! the whole input), and collect results back in input order. Scoped
//! threads mean no `'static` bounds and no leaked join handles; channel
//! distribution means idle workers steal the next item the moment they
//! finish one.

use crossbeam::channel;
use std::num::NonZeroUsize;
use std::thread;

/// Default worker count: one per available core.
pub(crate) fn default_workers() -> usize {
    thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(4)
}

/// Map `f` over `items` in parallel, preserving input order.
///
/// Uses one worker per available core. `f` must be `Sync` (it is shared
/// by reference across workers); items are moved to workers. Panics in
/// workers propagate.
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    par_map_workers(items, default_workers(), f)
}

/// [`par_map`] with an explicit worker count (`0` means one per core).
///
/// A worker panic propagates once the pool has drained: the survivors
/// finish the queue, and when every worker has died the feeder stops
/// instead of blocking on the full queue.
pub fn par_map_workers<T, R, F>(items: Vec<T>, workers: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = if workers == 0 { default_workers() } else { workers }.min(n);
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }

    // Bounded dispatch queue: the feeder blocks once `2 * workers` items
    // are in flight. Results go through an unbounded channel (workers
    // never block on output) and are reordered on collection.
    let (tx, rx) = channel::bounded::<(usize, T)>(2 * workers);
    let (out_tx, out_rx) = channel::unbounded::<(usize, R)>();

    thread::scope(|scope| {
        for _ in 0..workers {
            let rx = rx.clone();
            let out_tx = out_tx.clone();
            let f = &f;
            scope.spawn(move || {
                while let Ok((i, item)) = rx.recv() {
                    out_tx.send((i, f(item))).expect("collector open");
                }
            });
        }
        // Only the workers hold receivers, so a send fails once all of
        // them have died; the scope then re-raises their panic.
        drop(rx);
        drop(out_tx);
        for (i, item) in items.into_iter().enumerate() {
            if tx.send((i, item)).is_err() {
                break;
            }
        }
        drop(tx);
    });

    let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
    while let Ok((i, r)) = out_rx.recv() {
        results[i] = Some(r);
    }
    results.into_iter().map(|r| r.expect("every index produced")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = par_map(items, |x| x * x);
        assert_eq!(out, (0..100).map(|x| x * x).collect::<Vec<u64>>());
    }

    #[test]
    fn empty_input() {
        let out: Vec<u32> = par_map(Vec::<u32>::new(), |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn explicit_worker_counts() {
        for workers in [0, 1, 2, 3, 7, 64] {
            let out = par_map_workers((0..50).collect::<Vec<i64>>(), workers, |x| x + 1);
            assert_eq!(out, (1..51).collect::<Vec<i64>>(), "workers = {workers}");
        }
    }

    #[test]
    fn all_items_processed_once() {
        let count = AtomicUsize::new(0);
        let out = par_map((0..500).collect::<Vec<_>>(), |x| {
            count.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(out.len(), 500);
        assert_eq!(count.load(Ordering::Relaxed), 500);
    }

    #[test]
    fn panics_on_every_worker_propagate_instead_of_hanging() {
        use std::sync::mpsc;
        use std::time::Duration;
        let (tx, rx) = mpsc::channel();
        let run = thread::spawn(move || {
            let res = std::panic::catch_unwind(|| {
                par_map_workers((0..64).collect(), 2, |_: i32| -> i32 { panic!("worker down") })
            });
            tx.send(res.is_err()).expect("test thread waits");
        });
        let propagated = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("par_map_workers hung after every worker panicked");
        assert!(propagated);
        run.join().expect("the panic was caught");
    }

    #[test]
    fn uses_real_work() {
        // Smoke test with nontrivial per-item cost (fibonacci).
        fn fib(n: u64) -> u64 {
            if n < 2 {
                n
            } else {
                fib(n - 1) + fib(n - 2)
            }
        }
        let out = par_map(vec![20u64; 16], fib);
        assert!(out.iter().all(|&v| v == 6765));
    }
}
