//! A persistent worker pool for deterministic data-parallel execution.
//!
//! The pool executes batches of closures ([`Pool::scatter`]) on a fixed set
//! of OS threads. Determinism is *not* the pool's job — schedules are
//! arbitrary — it is guaranteed by the callers: every parallel region in the
//! tape executor derives its random streams from counter-based per-thread
//! RNGs and merges results in a fixed order after the barrier, so the same
//! inputs produce bit-identical outputs at any worker count (see
//! `DESIGN.md` § Deterministic parallelism).
//!
//! The calling thread participates in draining the shared queue, so a pool
//! of `n` threads uses `n - 1` background workers. Jobs are wrapped in
//! `catch_unwind`; a panicking job is re-raised on the caller after the
//! whole batch has been collected, which keeps the pool reusable and never
//! deadlocks the barrier.

use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

struct Shared {
    queue: Mutex<(VecDeque<Job>, bool)>,
    available: Condvar,
}

/// A fixed-size pool of worker threads with a shared FIFO work queue.
pub struct Pool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    threads: usize,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool").field("threads", &self.threads).finish()
    }
}

impl Pool {
    /// A pool that runs batches over `threads` threads in total (the caller
    /// counts as one, so `threads - 1` background workers are spawned).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new((VecDeque::new(), false)),
            available: Condvar::new(),
        });
        let handles = (1..threads)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || loop {
                    let job = {
                        let mut guard = shared.queue.lock().expect("pool queue poisoned");
                        loop {
                            if let Some(job) = guard.0.pop_front() {
                                break job;
                            }
                            if guard.1 {
                                return;
                            }
                            guard = shared.available.wait(guard).expect("pool queue poisoned");
                        }
                    };
                    job();
                })
            })
            .collect();
        Pool { shared, handles, threads }
    }

    /// Total number of threads batches run across (including the caller).
    pub fn threads(&self) -> usize {
        self.threads
    }

    fn push_jobs(&self, jobs: Vec<Job>) {
        let mut guard = self.shared.queue.lock().expect("pool queue poisoned");
        guard.0.extend(jobs);
        drop(guard);
        self.shared.available.notify_all();
    }

    /// Runs every closure to completion, the caller helping to drain the
    /// queue, and returns their results in batch order. Panics in a job are
    /// re-raised here after the whole batch has finished.
    ///
    /// Jobs may borrow from the caller's stack: the barrier at the end of
    /// this call guarantees no job outlives the borrowed data.
    ///
    /// Jobs must not call back into the same pool (the tape executor never
    /// nests parallel launches: worker engines run with `threads = 1`).
    pub fn scatter<'scope, R: Send + 'scope>(
        &self,
        jobs: Vec<Box<dyn FnOnce() -> R + Send + 'scope>>,
    ) -> Vec<R> {
        self.scatter_results(jobs)
            .into_iter()
            .map(|slot| match slot {
                Ok(v) => v,
                Err(payload) => panic::resume_unwind(payload),
            })
            .collect()
    }

    /// [`Pool::scatter`] with panic isolation: each job's result arrives
    /// as `Ok(value)` or `Err(panic message)` in batch order, and nothing
    /// is re-raised on the caller. The pool stays reusable either way.
    pub fn try_scatter<'scope, R: Send + 'scope>(
        &self,
        jobs: Vec<Box<dyn FnOnce() -> R + Send + 'scope>>,
    ) -> Vec<Result<R, String>> {
        self.scatter_results(jobs)
            .into_iter()
            .map(|slot| {
                slot.map_err(|payload| {
                    if let Some(s) = payload.downcast_ref::<&str>() {
                        (*s).to_owned()
                    } else if let Some(s) = payload.downcast_ref::<String>() {
                        s.clone()
                    } else {
                        "non-string panic payload".to_owned()
                    }
                })
            })
            .collect()
    }

    fn scatter_results<'scope, R: Send + 'scope>(
        &self,
        jobs: Vec<Box<dyn FnOnce() -> R + Send + 'scope>>,
    ) -> Vec<std::thread::Result<R>> {
        let n = jobs.len();
        let (tx, rx) = channel::<(usize, std::thread::Result<R>)>();
        let wrapped: Vec<Job> = jobs
            .into_iter()
            .enumerate()
            .map(|(i, job)| {
                let tx: Sender<(usize, std::thread::Result<R>)> = tx.clone();
                let erased: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
                    let out = panic::catch_unwind(AssertUnwindSafe(job));
                    // The receiver only hangs up after collecting all n
                    // results, so this send cannot fail while jobs run.
                    let _ = tx.send((i, out));
                });
                // SAFETY: erase the 'scope lifetime so jobs can sit in the
                // 'static queue. Sound because this function blocks until
                // all n results have been received below — no job (or its
                // borrows) survives past this stack frame.
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Job>(erased) }
            })
            .collect();
        drop(tx);
        self.push_jobs(wrapped);

        // Help drain: run queued jobs on this thread until the queue is
        // empty, then block on the channel for stragglers.
        loop {
            let job = {
                let mut guard = self.shared.queue.lock().expect("pool queue poisoned");
                guard.0.pop_front()
            };
            match job {
                Some(job) => job(),
                None => break,
            }
        }

        let mut slots: Vec<Option<std::thread::Result<R>>> = (0..n).map(|_| None).collect();
        for _ in 0..n {
            let (i, out) = rx.recv().expect("pool job dropped its result");
            slots[i] = Some(out);
        }
        slots.into_iter().map(|slot| slot.expect("pool result slot unfilled")).collect()
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut guard = self.shared.queue.lock().expect("pool queue poisoned");
            guard.1 = true;
        }
        self.shared.available.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scatter_returns_in_order() {
        let pool = Pool::new(4);
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> =
            (0..32usize).map(|i| Box::new(move || i * i) as _).collect();
        assert_eq!(pool.scatter(jobs), (0..32usize).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn scatter_borrows_from_caller() {
        let pool = Pool::new(3);
        let data: Vec<u64> = (0..100).collect();
        let jobs: Vec<Box<dyn FnOnce() -> u64 + Send + '_>> = data
            .chunks(30)
            .map(|chunk| {
                let chunk: &[u64] = chunk;
                Box::new(move || chunk.iter().sum::<u64>()) as _
            })
            .collect();
        assert_eq!(pool.scatter(jobs).iter().sum::<u64>(), 4950);
    }

    #[test]
    fn pool_is_reusable() {
        let pool = Pool::new(2);
        for round in 0..10 {
            let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> =
                (0..5).map(|i| Box::new(move || round + i) as _).collect();
            assert_eq!(pool.scatter(jobs), (0..5).map(|i| round + i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = Pool::new(1);
        let jobs: Vec<Box<dyn FnOnce() -> i32 + Send>> = vec![Box::new(|| 7), Box::new(|| 8)];
        assert_eq!(pool.scatter(jobs), vec![7, 8]);
    }

    #[test]
    fn try_scatter_isolates_panics_in_order() {
        let pool = Pool::new(2);
        let jobs: Vec<Box<dyn FnOnce() -> i32 + Send>> =
            vec![Box::new(|| 1), Box::new(|| panic!("boom")), Box::new(|| 3)];
        let results = pool.try_scatter(jobs);
        assert_eq!(results[0], Ok(1));
        assert_eq!(results[1], Err("boom".to_owned()));
        assert_eq!(results[2], Ok(3));
        // still reusable
        let jobs: Vec<Box<dyn FnOnce() -> i32 + Send>> = vec![Box::new(|| 42)];
        assert_eq!(pool.scatter(jobs), vec![42]);
    }

    #[test]
    fn panicking_job_propagates_without_poisoning() {
        let pool = Pool::new(2);
        let jobs: Vec<Box<dyn FnOnce() -> i32 + Send>> =
            vec![Box::new(|| 1), Box::new(|| panic!("boom")), Box::new(|| 3)];
        let err = panic::catch_unwind(AssertUnwindSafe(|| pool.scatter(jobs)));
        assert!(err.is_err());
        // Pool still works after a panic.
        let jobs: Vec<Box<dyn FnOnce() -> i32 + Send>> = vec![Box::new(|| 42)];
        assert_eq!(pool.scatter(jobs), vec![42]);
    }
}
