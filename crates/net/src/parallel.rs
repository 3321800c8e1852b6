//! Tiny data-parallel helper over std scoped threads.
//!
//! Hosted in `wsan_net`, the lowest layer that fans out, so every crate
//! above uses the same pool: the graph layer's multi-source BFS builders,
//! the sharded scheduler's per-shard fan-out, and `wsan_expr`'s
//! schedulability sweeps (100 independent flow sets per configuration
//! point). The campaign engine's own worker pool reuses
//! [`payload_message`].

/// Applies `f` to `0..n` across up to `available_parallelism` threads and
/// returns the results in index order.
///
/// `f` must be `Sync` because multiple worker threads call it concurrently.
///
/// # Panics
///
/// If `f` panics for some item, the panic is re-raised on the calling
/// thread with the failing index and the original payload's message
/// attached (e.g. `parallel_map: item 3 panicked: boom`), instead of an
/// anonymous "worker panicked" abort that loses which sweep point died.
pub fn parallel_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    parallel_map_with(n, 0, f)
}

/// [`parallel_map`] with an explicit worker count; `workers == 0` selects
/// `available_parallelism`. The campaign engine's `--jobs` flag and tests
/// that need a deterministic pool size regardless of the host's core count
/// route through this variant.
pub fn parallel_map_with<T, F>(n: usize, workers: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let workers = if workers == 0 {
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
    } else {
        workers
    }
    .min(n);
    if workers <= 1 {
        return (0..n).map(|i| call_checked(&f, i)).collect();
    }
    let mut results: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let next = std::sync::atomic::AtomicUsize::new(0);
    // Set by the first worker whose item panics; the others stop claiming
    // indices instead of burning cores on a sweep that is already dead.
    let poisoned = std::sync::atomic::AtomicBool::new(false);
    let f = &f;
    let mut failure: Option<(usize, String)> = None;
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let next = &next;
            let poisoned = &poisoned;
            handles.push(scope.spawn(move || {
                let mut out: Vec<(usize, T)> = Vec::new();
                loop {
                    if poisoned.load(std::sync::atomic::Ordering::Relaxed) {
                        break;
                    }
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let wrapped = std::panic::AssertUnwindSafe(|| f(i));
                    match std::panic::catch_unwind(wrapped) {
                        Ok(value) => out.push((i, value)),
                        Err(payload) => {
                            poisoned.store(true, std::sync::atomic::Ordering::Relaxed);
                            return Err((i, payload_message(payload.as_ref())));
                        }
                    }
                }
                Ok(out)
            }));
        }
        for handle in handles {
            match handle.join().expect("worker thread could not be joined") {
                Ok(chunk) => {
                    for (i, value) in chunk {
                        results[i] = Some(value);
                    }
                }
                // keep the earliest failing index for a deterministic report
                Err((i, msg)) if failure.as_ref().is_none_or(|(j, _)| i < *j) => {
                    failure = Some((i, msg));
                }
                Err(_) => {}
            }
        }
    });
    if let Some((index, message)) = failure {
        panic!("parallel_map: item {index} panicked: {message}");
    }
    results.into_iter().map(|r| r.expect("all indices computed")).collect()
}

/// Sequential fallback with the same panic enrichment as the worker path.
fn call_checked<T, F: Fn(usize) -> T>(f: &F, i: usize) -> T {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(i))) {
        Ok(value) => value,
        Err(payload) => {
            panic!("parallel_map: item {i} panicked: {}", payload_message(payload.as_ref()))
        }
    }
}

/// Best-effort extraction of the human-readable message from a panic
/// payload (`&str` and `String` cover `panic!` and `assert!` payloads).
pub fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
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

    #[test]
    fn maps_in_index_order() {
        let out = parallel_map(100, |i| i * i);
        assert_eq!(out.len(), 100);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * i);
        }
    }

    #[test]
    fn empty_input() {
        let out: Vec<u32> = parallel_map(0, |_| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn single_item() {
        assert_eq!(parallel_map(1, |i| i + 7), vec![7]);
    }

    #[test]
    #[should_panic(expected = "parallel_map: item 3 panicked: sweep point exploded")]
    fn panicking_item_reports_its_index_and_message() {
        let _ = parallel_map(8, |i| {
            if i == 3 {
                panic!("sweep point exploded");
            }
            i
        });
    }

    #[test]
    #[should_panic(expected = "item 0 panicked")]
    fn sequential_path_reports_too() {
        // n = 1 takes the workers <= 1 fallback
        let _: Vec<u32> = parallel_map(1, |_| panic!("boom"));
    }

    #[test]
    fn poisoned_pool_stops_claiming_after_a_panic() {
        // Item 0 panics immediately; every other item sleeps. Without the
        // poison flag the pool drains all n items anyway; with it, only the
        // items already in flight (at most ~2x the worker count) run. The
        // worker count is pinned so the test exercises the pool even on a
        // single-core host.
        let workers = 4;
        let n = workers * 8;
        let started = std::sync::atomic::AtomicUsize::new(0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _: Vec<usize> = parallel_map_with(n, workers, |i| {
                started.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                if i == 0 {
                    panic!("first sweep point died");
                }
                std::thread::sleep(std::time::Duration::from_millis(10));
                i
            });
        }));
        assert!(result.is_err(), "the failure must still be re-raised");
        let ran = started.load(std::sync::atomic::Ordering::SeqCst);
        assert!(
            ran < n / 2,
            "poisoned pool still executed {ran} of {n} items (expected far fewer)"
        );
    }

    #[test]
    fn earliest_failing_index_wins() {
        // All items panic; the re-raised index must be deterministic (0).
        let result = std::panic::catch_unwind(|| {
            let _: Vec<u32> = parallel_map(16, |i| panic!("item-{i}"));
        });
        let payload = result.unwrap_err();
        let msg = payload.downcast_ref::<String>().expect("string payload");
        assert!(msg.starts_with("parallel_map: item 0 panicked"), "got: {msg}");
    }
}
