//! The workspace's one worker pool, over std scoped threads.
//!
//! Hosted in `wsan_net`, the lowest layer that fans out, so every crate
//! above uses the same pool: the plant generator's node blocks, the graph
//! layer's multi-source BFS builders, the shard planner's gateway sweeps
//! and the sharded scheduler's per-shard fan-out, `wsan_expr`'s
//! schedulability sweeps (100 independent flow sets per configuration
//! point), and the campaign engine's sweep points.
//!
//! [`parallel_for_each_ordered`] is the pool: results reach the calling
//! thread in index order through a bounded window. [`parallel_map_with`]
//! collects them into a `Vec`.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Runs `f(0)`, …, `f(n - 1)` on up to `worker_count(workers).min(n)`
/// threads and hands each result to `sink` on the calling thread, in index
/// order.
///
/// - Workers claim indices in order. A worker claims `i` only while
///   `i < delivered + window`, where `delivered` counts the `sink` calls
///   that have returned, so at most `window` results wait in memory. A
///   `window` below the worker count is raised to it.
/// - `sink(i, value)` runs as soon as result `i` and every earlier result
///   are in.
/// - With one worker, everything runs inline on the calling thread, in the
///   order `f(0)`, `sink(0)`, `f(1)`, …; no thread is started.
///
/// Seeding is the caller's job: derive each item's randomness from `i`,
/// never from the worker that runs it, and the `sink` sequence is the same
/// for every worker count.
///
/// # Errors
///
/// The first `Err` or panic of `f` stops new claims; a panic counts as a
/// failure with its payload's message. Items already in flight finish,
/// `sink` sees nothing at or after the earliest failing index, and that
/// index is returned with its message.
///
/// # Panics
///
/// A panic inside `sink` stops the workers and is re-raised on the calling
/// thread once they have stopped.
pub fn parallel_for_each_ordered<T, F, S>(
    n: usize,
    workers: usize,
    window: usize,
    f: F,
    mut sink: S,
) -> Result<(), (usize, String)>
where
    T: Send,
    F: Fn(usize) -> Result<T, String> + Sync,
    S: FnMut(usize, T),
{
    let workers = worker_count(workers).min(n);
    if workers <= 1 {
        for i in 0..n {
            sink(i, call(&f, i).map_err(|message| (i, message))?);
        }
        return Ok(());
    }
    let window = window.max(workers);
    let pool = Pool {
        state: Mutex::new(State { next: 0, delivered: 0, stopped: false, done: BTreeMap::new() }),
        moved: Condvar::new(),
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    while let Some(i) = pool.claim(n, window) {
                        let result = call(&f, i);
                        pool.update(|s| {
                            s.stopped |= result.is_err();
                            s.done.insert(i, result);
                        });
                    }
                })
            })
            .collect();
        let delivered = pool.deliver(n, &mut sink);
        // The scope's own join returns before a worker has exited, and a
        // worker still exiting keeps its malloc arena, so the next pool's
        // workers would open new arenas and the heap would grow with every
        // call: join each worker by hand.
        for handle in handles {
            handle.join().expect("a pool worker panicked outside its items");
        }
        delivered
    })
}

/// Applies `f` to `0..n` on `workers` threads (`0` selects
/// `available_parallelism`) and returns the results in index order.
///
/// # Panics
///
/// If `f` panics for some item, the panic is re-raised on the calling
/// thread with the earliest failing index and the original payload's
/// message attached (e.g. `parallel_map: item 3 panicked: boom`), instead
/// of an anonymous "worker panicked" abort that loses which sweep point
/// died.
pub fn parallel_map_with<T, F>(n: usize, workers: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut out = Vec::with_capacity(n);
    let done = parallel_for_each_ordered(n, workers, n, |i| Ok(f(i)), |_, value| out.push(value));
    if let Err((index, message)) = done {
        panic!("parallel_map: item {index} panicked: {message}");
    }
    out
}

/// The pool size `workers` asks for: itself, or `available_parallelism`
/// for `0`.
pub fn worker_count(workers: usize) -> usize {
    if workers == 0 {
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
    } else {
        workers
    }
}

/// The claim cursor, its window and the finished items, shared by the
/// workers and the calling thread.
struct Pool<T> {
    state: Mutex<State<T>>,
    /// Signalled whenever the state changes.
    moved: Condvar,
}

struct State<T> {
    /// The next index to claim.
    next: usize,
    /// Indices whose `sink` call has returned.
    delivered: usize,
    /// Set by the first failure or by a panicking `sink`.
    stopped: bool,
    /// Finished items not yet delivered.
    done: BTreeMap<usize, Result<T, String>>,
}

impl<T> Pool<T> {
    /// Claims the next index once the window allows it; `None` when every
    /// index is claimed or the pool has stopped.
    fn claim(&self, n: usize, window: usize) -> Option<usize> {
        let mut state = self.lock();
        while !state.stopped && state.next < n {
            if state.next < state.delivered + window {
                state.next += 1;
                return Some(state.next - 1);
            }
            state = self.moved.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
        None
    }

    /// Hands the finished items to `sink` in index order until all `n` are
    /// delivered or a failure is met. Delivery runs strictly in index
    /// order, so the first failure it meets is the earliest one.
    fn deliver(&self, n: usize, sink: &mut impl FnMut(usize, T)) -> Result<(), (usize, String)> {
        let mut state = self.lock();
        while state.delivered < n {
            let i = state.delivered;
            match state.done.remove(&i) {
                Some(Ok(value)) => {
                    drop(state);
                    if let Err(payload) = catch_unwind(AssertUnwindSafe(|| sink(i, value))) {
                        // the stopped workers let the scope join them, then
                        // it re-raises
                        self.update(|s| s.stopped = true);
                        resume_unwind(payload);
                    }
                    state = self.lock();
                    state.delivered += 1;
                    self.moved.notify_all();
                }
                Some(Err(message)) => return Err((i, message)),
                None => state = self.moved.wait(state).unwrap_or_else(PoisonError::into_inner),
            }
        }
        Ok(())
    }

    fn update(&self, change: impl FnOnce(&mut State<T>)) {
        change(&mut self.lock());
        self.moved.notify_all();
    }

    /// No code that can panic runs under the lock, so a poisoned lock
    /// still guards a consistent state.
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Runs `f(i)`, turning a panic into an `Err` with its payload's message.
fn call<T, F: Fn(usize) -> Result<T, String>>(f: &F, i: usize) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(|| f(i)))
        .unwrap_or_else(|payload| Err(payload_message(&*payload)))
}

/// Best-effort extraction of the human-readable message from a panic
/// payload (`&str` and `String` cover `panic!` and `assert!` payloads).
fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

    /// The worker counts every pool-contract case runs at.
    const WORKERS: [usize; 3] = [1, 2, 4];

    #[test]
    fn maps_in_index_order() {
        let out = parallel_map_with(100, 0, |i| i * i);
        assert_eq!(out.len(), 100);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * i);
        }
    }

    #[test]
    fn empty_input() {
        let out: Vec<u32> = parallel_map_with(0, 0, |_| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn single_item() {
        assert_eq!(parallel_map_with(1, 0, |i| i + 7), vec![7]);
    }

    #[test]
    #[should_panic(expected = "parallel_map: item 3 panicked: sweep point exploded")]
    fn panicking_item_reports_its_index_and_message() {
        let _ = parallel_map_with(8, 0, |i| {
            if i == 3 {
                panic!("sweep point exploded");
            }
            i
        });
    }

    #[test]
    #[should_panic(expected = "item 0 panicked")]
    fn sequential_path_reports_too() {
        // n = 1 runs inline on the calling thread
        let _: Vec<u32> = parallel_map_with(1, 0, |_| panic!("boom"));
    }

    #[test]
    fn poisoned_pool_stops_claiming_after_a_panic() {
        // Item 0 panics immediately; every other item sleeps. Without the
        // stop flag the pool drains all n items anyway; with it, only the
        // items already in flight run. The worker count is pinned so the
        // test exercises the pool even on a single-core host.
        let workers = 4;
        let n = workers * 8;
        let started = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let _: Vec<usize> = parallel_map_with(n, workers, |i| {
                started.fetch_add(1, Ordering::SeqCst);
                if i == 0 {
                    panic!("first sweep point died");
                }
                std::thread::sleep(Duration::from_millis(10));
                i
            });
        }));
        assert!(result.is_err(), "the failure must still be re-raised");
        let ran = started.load(Ordering::SeqCst);
        assert!(
            ran < n / 2,
            "poisoned pool still executed {ran} of {n} items (expected far fewer)"
        );
    }

    #[test]
    fn earliest_failing_index_wins() {
        // All items panic; the re-raised index must be deterministic (0).
        let result = std::panic::catch_unwind(|| {
            let _: Vec<u32> = parallel_map_with(16, 0, |i| panic!("item-{i}"));
        });
        let payload = result.unwrap_err();
        let msg = payload.downcast_ref::<String>().expect("string payload");
        assert!(msg.starts_with("parallel_map: item 0 panicked"), "got: {msg}");
    }

    #[test]
    fn delivery_is_in_index_order_when_later_items_finish_first() {
        let n = 12;
        for workers in WORKERS {
            let mut seen = Vec::new();
            parallel_for_each_ordered(
                n,
                workers,
                n,
                |i| {
                    std::thread::sleep(Duration::from_millis(2 * (n - i) as u64));
                    Ok(i * 10)
                },
                |i, value| seen.push((i, value)),
            )
            .unwrap();
            let expected: Vec<(usize, usize)> = (0..n).map(|i| (i, i * 10)).collect();
            assert_eq!(seen, expected, "{workers} workers");
        }
    }

    #[test]
    fn claimed_but_undelivered_items_never_exceed_the_window() {
        // Item 0 is slow, so the other workers run ahead until the window
        // stops them; without the window they would claim every item.
        let n = 40;
        for workers in WORKERS {
            for window in [1, 3, 6] {
                let undelivered = AtomicUsize::new(0);
                let most = AtomicUsize::new(0);
                parallel_for_each_ordered(
                    n,
                    workers,
                    window,
                    |i| {
                        let now = undelivered.fetch_add(1, Ordering::SeqCst) + 1;
                        most.fetch_max(now, Ordering::SeqCst);
                        std::thread::sleep(Duration::from_millis(if i == 0 { 30 } else { 1 }));
                        Ok(i)
                    },
                    |_, _| {
                        undelivered.fetch_sub(1, Ordering::SeqCst);
                    },
                )
                .unwrap();
                let bound = window.max(workers);
                let most = most.load(Ordering::SeqCst);
                assert!(most <= bound, "{workers} workers, window {window}: {most} undelivered");
            }
        }
    }

    #[test]
    fn first_failure_stops_claims_and_the_earliest_index_wins() {
        let n = 64;
        // (panicking index, erring index) pairs; the smaller one is reported
        for (panics, errs) in [(2, 4), (4, 2)] {
            for workers in WORKERS {
                let ran = AtomicUsize::new(0);
                let mut seen = Vec::new();
                let outcome = parallel_for_each_ordered(
                    n,
                    workers,
                    n,
                    |i| {
                        ran.fetch_add(1, Ordering::SeqCst);
                        if i == panics {
                            panic!("item {i} panicked");
                        }
                        if i == errs {
                            return Err(format!("item {i} failed"));
                        }
                        std::thread::sleep(Duration::from_millis(2));
                        Ok(i)
                    },
                    |i, _| seen.push(i),
                );
                let first = panics.min(errs);
                let message = if first == panics { "panicked" } else { "failed" };
                assert_eq!(outcome, Err((first, format!("item {first} {message}"))));
                assert_eq!(seen, (0..first).collect::<Vec<_>>(), "{workers} workers");
                let ran = ran.load(Ordering::SeqCst);
                assert!(ran < n / 2, "{workers} workers ran {ran} of {n} items after a failure");
            }
        }
    }

    #[test]
    fn panicking_sink_is_re_raised_on_the_calling_thread() {
        // Run from a spawned thread so that a pool that hangs fails the
        // test instead of the suite.
        for workers in WORKERS {
            let (done, outcome) = mpsc::channel();
            std::thread::spawn(move || {
                let raised = catch_unwind(|| {
                    parallel_for_each_ordered(40, workers, 2, Ok, |i, _: usize| {
                        if i == 1 {
                            panic!("sink exploded");
                        }
                    })
                });
                let message = raised.err().map(|payload| payload_message(&*payload));
                let _ = done.send(message);
            });
            let message = outcome.recv_timeout(Duration::from_secs(10));
            assert_eq!(
                message,
                Ok(Some("sink exploded".to_string())),
                "{workers} workers: the sink's panic must return within 10 s"
            );
        }
    }
}
