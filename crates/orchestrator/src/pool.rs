//! The worker pool: a worker count and one scoped fan-out.
//!
//! The traffic is small and coarse. [`crate::run_dag`] runs `exp all`'s 24
//! artefact jobs (each 0–10 s at `--quick`), and the artefacts that fan
//! out internally hand [`ThreadPool::map_indexed`] at most about 150 tasks
//! per call, each lasting milliseconds to seconds. For tasks that coarse,
//! one shared next-index counter balances the load: a worker that
//! finishes early simply takes the next index.
//!
//! [`ThreadPool::map_indexed`] starts its helpers with
//! [`std::thread::scope`] for the length of one call, so tasks may borrow
//! the caller's data and may fan out again on the same pool. The calling
//! thread is one of the workers, and with one worker (or one task)
//! everything runs inline. Working on the caller costs one thread fewer
//! per call, and with it the high-water heap glibc keeps for every new
//! thread's malloc arena: on a 2-vCPU host, `exp all --quick --jobs 2`
//! peaked at 25.3–26.2 MiB of RSS when each call started all of its
//! workers, and at 18.9–20.5 MiB when the caller worked (three
//! alternating runs each).

use std::sync::atomic::{AtomicUsize, Ordering};

/// A worker count for [`ThreadPool::map_indexed`]. It holds no thread:
/// each call starts its helpers and joins them before it returns.
#[derive(Debug)]
pub struct ThreadPool {
    workers: usize,
}

/// The default worker count: every available core.
#[must_use]
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

impl ThreadPool {
    /// A pool of `jobs` workers (`0` means [`default_jobs`]).
    #[must_use]
    pub fn new(jobs: usize) -> ThreadPool {
        let workers = if jobs == 0 { default_jobs() } else { jobs };
        ThreadPool { workers }
    }

    /// The worker count.
    #[must_use]
    pub fn size(&self) -> usize {
        self.workers
    }

    /// Runs `f(0..n)` on up to [`size`](Self::size) workers, the calling
    /// thread among them, and returns the results **in index order**. The
    /// ordering is what lets a parallel sweep merge its results
    /// byte-identically to a serial run, whatever order the tasks finish
    /// in.
    ///
    /// # Panics
    ///
    /// If a task panics, the panic is resumed on the caller once every
    /// worker has stopped.
    pub fn map_indexed<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let next = AtomicUsize::new(0);
        let work = || {
            let mut done = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    return done;
                }
                done.push((i, f(i)));
            }
        };
        let helpers = self.workers.min(n).saturating_sub(1);
        let mut done = std::thread::scope(|s| {
            let handles: Vec<_> = (0..helpers).map(|_| s.spawn(work)).collect();
            let mut done = work();
            for h in handles {
                match h.join() {
                    Ok(part) => done.extend(part),
                    Err(panic) => std::panic::resume_unwind(panic),
                }
            }
            done
        });
        done.sort_unstable_by_key(|&(i, _)| i);
        done.into_iter().map(|(_, r)| r).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn map_indexed_returns_results_in_index_order() {
        let pool = ThreadPool::new(4);
        let out = pool.map_indexed(64, |i| {
            // Stagger completion so index order ≠ completion order.
            std::thread::sleep(Duration::from_micros((64 - i as u64) * 10));
            i * i
        });
        assert_eq!(out, (0..64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn map_indexed_propagates_panics() {
        let pool = ThreadPool::new(2);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.map_indexed(8, |i| {
                assert!(i != 5, "boom");
                i
            })
        }));
        assert!(r.is_err());
    }

    #[test]
    fn tasks_borrow_the_callers_data() {
        let words: Vec<String> = ["tlb", "mmu", "llc"].map(String::from).to_vec();
        let lens = ThreadPool::new(3).map_indexed(words.len(), |i| words[i].len());
        assert_eq!(lens, vec![3, 3, 3]);
    }

    #[test]
    fn one_worker_runs_every_task_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let ids = ThreadPool::new(1).map_indexed(16, |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
    }

    #[test]
    fn a_task_may_fan_out_on_its_own_pool() {
        let pool = ThreadPool::new(2);
        let sums = pool.map_indexed(4, |i| pool.map_indexed(i + 1, |k| k).iter().sum::<usize>());
        assert_eq!(sums, vec![0, 1, 3, 6]);
    }

    #[test]
    fn coarse_tasks_keep_every_worker_busy() {
        // 8 tasks of 30 ms on 4 workers: a shared counter must keep
        // several of them running at once.
        let (live, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
        ThreadPool::new(4).map_indexed(8, |_| {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(30));
            live.fetch_sub(1, Ordering::SeqCst);
        });
        let peak = peak.load(Ordering::SeqCst);
        assert!(peak >= 3, "several workers should overlap (peak {peak})");
    }
}
