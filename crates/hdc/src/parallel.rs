//! Worker-count policy and the one batch executor of the workspace.
//!
//! Every parallel path in the repo accepts a `threads` knob with the same
//! contract — `0` means "one worker per available core" — resolved here by
//! [`default_threads`]. Every batch API (raw search, the degradation
//! ladder, the priced hardware batch, the serving runtime, corpus
//! encoding and training) then runs its items through [`execute`], so
//! splitting, scheduling, input-order assembly and the poisoned-lock
//! contract live in one place.

use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// Locks a mutex, taking the guard even from a poisoned lock.
///
/// Every layer of the workspace contains panics per work item (a search,
/// a connection, a WAL append), so a poisoned lock carries no information
/// its holders need: the executor's queue only ever holds untouched work
/// units, and honoring the poison flag would let one panicking item take
/// down every other worker's remaining work.
pub fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One worker per available core, or `1` when the host cannot report its
/// parallelism (the conservative fallback every caller now shares).
///
/// Resolved once per process: `available_parallelism` reads cgroup files
/// on Linux, which costs tens of µs — more than a small batch's search.
pub fn available_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        #[allow(clippy::disallowed_methods)] // the one cached call
        let host = std::thread::available_parallelism();
        host.map(|n| n.get()).unwrap_or(1)
    })
}

/// Resolves a user-supplied worker count for a batch of `jobs` items:
/// `0` becomes [`available_threads`], and the result is clamped to
/// `1..=max(jobs, 1)` so callers never spawn more workers than work.
///
/// # Examples
///
/// ```
/// use hdc::parallel::default_threads;
///
/// assert_eq!(default_threads(3, 100), 3);
/// assert_eq!(default_threads(8, 2), 2); // capped at one worker per job
/// assert!(default_threads(0, 100) >= 1); // resolved from the host
/// assert_eq!(default_threads(5, 0), 1); // empty batches still get one
/// ```
pub fn default_threads(requested: usize, jobs: usize) -> usize {
    let threads = if requested == 0 {
        available_threads()
    } else {
        requested
    };
    threads.max(1).min(jobs.max(1))
}

/// Runs `item(state, i)` for every `i` in `0..n` and returns the slots in
/// input order.
///
/// `threads` is resolved by [`default_threads`] (`0` = one per core) and
/// capped at the number of work units. The batch is split into
/// `chunk`-sized units (clamped to `1..=n`) behind one shared queue, and
/// every free worker claims the next unit, so uneven per-item cost
/// load-balances; `chunk = n.div_ceil(threads)` gives each worker one
/// contiguous slice. The calling thread is one of the workers, so with one
/// worker nothing is spawned.
///
/// Each worker builds its own state with `init` when it claims its first
/// unit, so `init` runs at most once per worker — the place for reusable
/// scratch buffers. An item returning `None` declines to run: its slot
/// stays empty (how callers implement cooperative cancellation).
///
/// Panics are not caught here: callers that contain them wrap their item
/// in `catch_unwind`. An uncaught panic ends only its own worker — the
/// queue lock is taken with [`lock_unpoisoned`], so the other workers
/// finish the batch — and is re-raised once every worker has joined.
///
/// # Examples
///
/// ```
/// use hdc::parallel::execute;
///
/// let squares = execute(5, 2, 2, || (), |_, i| Some(i * i));
/// assert_eq!(squares, vec![Some(0), Some(1), Some(4), Some(9), Some(16)]);
/// // Declined items leave their slot empty.
/// let odd = execute(4, 2, 1, || (), |_, i| (i % 2 == 1).then_some(i));
/// assert_eq!(odd, vec![None, Some(1), None, Some(3)]);
/// ```
pub fn execute<T, S>(
    n: usize,
    threads: usize,
    chunk: usize,
    init: impl Fn() -> S + Sync,
    item: impl Fn(&mut S, usize) -> Option<T> + Sync,
) -> Vec<Option<T>>
where
    T: Send,
{
    let mut slots: Vec<Option<T>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    if n == 0 {
        return slots;
    }
    let chunk = chunk.clamp(1, n);
    let threads = default_threads(threads, n.div_ceil(chunk));
    if threads == 1 {
        let mut state = init();
        for (index, slot) in slots.iter_mut().enumerate() {
            *slot = item(&mut state, index);
        }
        return slots;
    }
    let queue = Mutex::new(slots.chunks_mut(chunk).enumerate());
    let worker = || {
        let mut state = None;
        loop {
            // `let … else` drops the guard before the unit runs.
            let Some((unit, unit_slots)) = lock_unpoisoned(&queue).next() else {
                return;
            };
            let state = state.get_or_insert_with(&init);
            for (offset, slot) in unit_slots.iter_mut().enumerate() {
                *slot = item(state, unit * chunk + offset);
            }
        }
    };
    // The calling thread is one of the workers.
    std::thread::scope(|scope| {
        for _ in 1..threads {
            scope.spawn(worker);
        }
        worker();
    });
    slots
}

/// [`execute`] for the common case: each of the resolved `threads`
/// workers takes one contiguous slice (`chunk = n.div_ceil(threads)`),
/// no worker state, and no item declines. Results come back in input
/// order.
pub fn map_even<T: Send>(n: usize, threads: usize, item: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let threads = default_threads(threads, n);
    execute(
        n,
        threads,
        n.div_ceil(threads),
        || (),
        |_, index| Some(item(index)),
    )
    .into_iter()
    .map(|slot| slot.expect("no item declines"))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_counts_pass_through_capped() {
        assert_eq!(default_threads(4, 1_000), 4);
        assert_eq!(default_threads(64, 3), 3);
        assert_eq!(default_threads(1, 0), 1);
    }

    #[test]
    fn zero_resolves_to_host_parallelism() {
        let host = available_threads();
        assert!(host >= 1);
        assert_eq!(default_threads(0, usize::MAX), host);
        assert_eq!(default_threads(0, 1), 1);
    }

    #[test]
    fn executor_returns_input_order_for_every_schedule() {
        for n in [0usize, 1, 53] {
            for threads in [1, 2, n + 3] {
                let even = n.div_ceil(threads);
                for chunk in [1, even, n + 1] {
                    let slots = execute(n, threads, chunk, || (), |_, i| Some(i * 3 + 1));
                    let expected: Vec<Option<usize>> = (0..n).map(|i| Some(i * 3 + 1)).collect();
                    assert_eq!(slots, expected, "n={n} threads={threads} chunk={chunk}");
                }
            }
        }
    }

    #[test]
    fn executor_inits_at_most_once_per_worker() {
        use std::collections::HashSet;
        use std::thread::ThreadId;
        for (n, threads, chunk) in [(53, 2, 1), (53, 4, 7), (53, 60, 1), (3, 8, 1), (53, 1, 5)] {
            let inits: Mutex<Vec<ThreadId>> = Mutex::new(Vec::new());
            // Each worker's state counts the items it ran, so the states
            // together must account for the whole batch exactly once.
            let ran = execute(
                n,
                threads,
                chunk,
                || {
                    lock_unpoisoned(&inits).push(std::thread::current().id());
                    std::thread::current().id()
                },
                |owner, i| {
                    assert_eq!(*owner, std::thread::current().id(), "state crossed workers");
                    Some(i)
                },
            );
            assert!(ran.iter().enumerate().all(|(i, slot)| *slot == Some(i)));
            let inits = inits.into_inner().unwrap();
            let distinct: HashSet<_> = inits.iter().collect();
            assert_eq!(distinct.len(), inits.len(), "a worker ran init twice");
            assert!(!inits.is_empty() && inits.len() <= default_threads(threads, n));
        }
        // An empty batch never builds a state.
        let slots: Vec<Option<()>> =
            execute(0, 4, 1, || panic!("init on empty batch"), |_, _| Some(()));
        assert!(slots.is_empty());
    }

    #[test]
    fn executor_leaves_declined_items_empty() {
        for (threads, chunk) in [(1, 1), (2, 1), (2, 27), (60, 1)] {
            let slots = execute(53, threads, chunk, || (), |_, i| (i % 3 != 0).then_some(i));
            for (i, slot) in slots.iter().enumerate() {
                assert_eq!(
                    *slot,
                    (i % 3 != 0).then_some(i),
                    "threads={threads} chunk={chunk}"
                );
            }
        }
    }

    #[test]
    fn executor_survives_a_panicking_item_and_reraises_it() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let ran = AtomicUsize::new(0);
        let outcome = std::panic::catch_unwind(|| {
            execute(
                40,
                2,
                1,
                || (),
                |_, i| {
                    if i == 0 {
                        panic!("item 0 fails");
                    }
                    ran.fetch_add(1, Ordering::Relaxed);
                    Some(i)
                },
            )
        });
        assert!(outcome.is_err(), "the panic reaches the caller");
        // The surviving worker drained every other unit.
        assert_eq!(ran.load(Ordering::Relaxed), 39);
    }

    #[test]
    fn map_even_returns_input_order_for_any_worker_count() {
        for n in [0usize, 1, 7, 100] {
            for threads in [0usize, 1, 3, 64] {
                let out = map_even(n, threads, |i| i * 3 + 1);
                assert_eq!(
                    out,
                    (0..n).map(|i| i * 3 + 1).collect::<Vec<_>>(),
                    "{n}/{threads}"
                );
            }
        }
    }

    #[test]
    fn map_even_hands_out_contiguous_slices() {
        // Twelve items on three workers: three units of four, each run
        // start to end by one thread.
        let owners = map_even(12, 3, |_| std::thread::current().id());
        for unit in owners.chunks(4) {
            assert!(unit.iter().all(|id| *id == unit[0]), "{owners:?}");
        }
    }

    #[test]
    fn a_poisoned_lock_still_yields_its_value() {
        let mutex = Mutex::new(vec![1, 2]);
        let caught = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let mut guard = mutex.lock().unwrap();
                    guard.push(3);
                    panic!("poison the lock");
                })
                .join()
        });
        assert!(caught.is_err());
        assert!(mutex.is_poisoned());
        assert!(mutex.lock().is_err());
        assert_eq!(*lock_unpoisoned(&mutex), vec![1, 2, 3]);
    }
}
