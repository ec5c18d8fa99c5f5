//! Bounded work-stealing scheduler for independent simulation tasks.
//!
//! The campaign and sweep drivers used to spawn one OS thread per seed or
//! per probe interval, which oversubscribes the machine as soon as the task
//! matrix outgrows the core count. This module replaces that pattern with a
//! fixed pool of `min(available_parallelism, tasks)` workers (overridable
//! via the `PROBENET_THREADS` environment variable) fed from per-worker
//! queues with work stealing: each worker drains its own queue from the
//! back and steals from the front of a sibling's queue when it runs dry, so
//! a skewed matrix (long runs clustered on one worker) still keeps every
//! core busy.
//!
//! Determinism: results are returned **in task order**, never in completion
//! order, and tasks carry no shared mutable state, so the output of
//! [`par_map`] is byte-for-byte identical whatever the thread count —
//! including `PROBENET_THREADS=1`, which runs inline with no pool at all.
//! `tests/determinism.rs` pins this property against serial execution.

use std::collections::VecDeque;
use std::sync::Mutex;

/// Worker-thread cap: the `PROBENET_THREADS` environment variable when set
/// to a positive integer, otherwise [`std::thread::available_parallelism`].
/// Shared with the partitioned simulation engine so one knob governs both
/// layers of parallelism.
pub fn max_threads() -> usize {
    probenet_sim::effective_threads()
}

/// Apply `f` to every item on the bounded pool and return the results in
/// item order (see module docs for the determinism contract).
pub fn par_map<T, U, F>(items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    par_map_threads(max_threads(), items, f)
}

/// [`par_map`] with an explicit worker cap; `threads == 1` runs inline on
/// the calling thread. The forced-serial path exists so tests can compare
/// parallel output against a pool-free run.
pub fn par_map_threads<T, U, F>(threads: usize, items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let n = items.len();
    let threads = threads.max(1).min(n);
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }

    // Task state lives in index-addressed slots so any worker can run any
    // task while results keep a stable order.
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<U>>> = (0..n).map(|_| Mutex::new(None)).collect();
    // Contiguous blocks per worker: neighbors in the task list often have
    // similar cost (same δ, adjacent seeds), and block owners drain from
    // the back while thieves take from the front, minimizing contention.
    let queues: Vec<Mutex<VecDeque<usize>>> = (0..threads)
        .map(|w| {
            let lo = n * w / threads;
            let hi = n * (w + 1) / threads;
            Mutex::new((lo..hi).collect())
        })
        .collect();

    std::thread::scope(|scope| {
        for w in 0..threads {
            let queues = &queues;
            let slots = &slots;
            let results = &results;
            let f = &f;
            scope.spawn(move || loop {
                // Pop the own queue in its own statement so its guard drops
                // before stealing: an idle worker must never hold its own
                // lock while it locks a sibling's, or two thieves deadlock.
                let own = queues[w].lock().expect("lock poisoned").pop_back();
                let next = own.or_else(|| {
                    (0..threads)
                        .filter(|&o| o != w)
                        .find_map(|o| queues[o].lock().expect("lock poisoned").pop_front())
                });
                let Some(i) = next else { break };
                let item = slots[i]
                    .lock()
                    .expect("lock poisoned")
                    .take()
                    .expect("task slot taken twice");
                let out = f(item);
                *results[i].lock().expect("lock poisoned") = Some(out);
            });
        }
    });

    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("worker panicked mid-task")
                .expect("task never ran")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_keep_item_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = par_map_threads(4, items.clone(), |x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let items: Vec<u64> = (0..37).collect();
        let serial = par_map_threads(1, items.clone(), |x| x.wrapping_mul(0x9e37).rotate_left(7));
        let parallel = par_map_threads(8, items, |x| x.wrapping_mul(0x9e37).rotate_left(7));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let count = AtomicUsize::new(0);
        let out = par_map_threads(3, (0..50).collect::<Vec<usize>>(), |i| {
            count.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(out.len(), 50);
        assert_eq!(count.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn empty_and_single_item_edges() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(empty, |x: u32| x).is_empty());
        assert_eq!(par_map(vec![9u32], |x| x + 1), vec![10]);
    }

    #[test]
    fn skewed_costs_still_complete() {
        // One huge task first: the owner chews on it while others steal
        // the rest of its block.
        let out = par_map_threads(4, (0..20u64).collect::<Vec<_>>(), |i| {
            let spins = if i == 0 { 200_000 } else { 10 };
            let mut acc = i;
            for _ in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            (i, acc)
        });
        assert_eq!(out.len(), 20);
        for (k, (i, _)) in out.iter().enumerate() {
            assert_eq!(*i, k as u64);
        }
    }

    #[test]
    fn idle_workers_stealing_from_each_other_never_deadlock() {
        // Trivial tasks leave workers idle and stealing almost at once, so
        // lock-order bugs between siblings show up within a few thousand
        // calls. Run on a spawned thread so a deadlock fails with a message
        // instead of hanging the suite.
        for width in [2, 8] {
            let (done, finished) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                for _ in 0..20_000 {
                    let out = par_map_threads(width, (0..37u64).collect(), |x| x + 1);
                    assert_eq!(out.len(), 37);
                }
                done.send(()).expect("test thread waiting");
            });
            finished
                .recv_timeout(std::time::Duration::from_secs(120))
                .unwrap_or_else(|e| {
                    panic!("par_map_threads at width {width} did not finish 20000 calls: {e}")
                });
        }
    }

    #[test]
    fn max_threads_is_positive() {
        assert!(max_threads() >= 1);
    }
}
