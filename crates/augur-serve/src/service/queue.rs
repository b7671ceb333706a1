//! The shard queues: admission control, enqueueing, the task that sits
//! in a queue, and the one requeue path every retry takes.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use super::slice::{complete_chain, RequestTask, SliceTask};
use super::{Caller, ServeError, Shared};

/// One worker shard: a queue, its wakeup, depth tracking, and the
/// parking slot for the task a dying worker had in hand (the respawn
/// guard recovers it).
#[derive(Default)]
pub(super) struct Shard {
    queue: Mutex<VecDeque<Task>>,
    wakeup: Condvar,
    pub(super) depth: AtomicUsize,
    pub(super) inflight: Mutex<Option<Task>>,
}

impl Shard {
    /// Appends a task and returns the new depth. The depth moves inside
    /// the queue's critical section, as [`Shard::pop`]'s does, so a pop
    /// can never be counted before its push.
    fn push(&self, task: Task) -> usize {
        let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        q.push_back(task);
        self.depth.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Takes the front task from the locked queue `q`.
    fn pop(&self, q: &mut VecDeque<Task>) -> Option<Task> {
        let task = q.pop_front()?;
        self.depth.fetch_sub(1, Ordering::Relaxed);
        Some(task)
    }

    /// Blocks for the next task; `None` once the queue is empty *and*
    /// `open` is false, so shutdown drains queued work first.
    pub(super) fn next(&self, open: &AtomicBool) -> Option<Task> {
        let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(t) = self.pop(&mut q) {
                return Some(t);
            }
            if !open.load(Ordering::SeqCst) {
                return None;
            }
            q = self.wakeup.wait(q).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Wakes every worker blocked in [`Shard::next`] (shutdown).
    pub(super) fn wake_all(&self) {
        let _guard = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        self.wakeup.notify_all();
    }

    /// Empties the queue and the in-flight slot (shutdown, after every
    /// worker has exited).
    pub(super) fn drain(&self) -> Vec<Task> {
        let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        let mut tasks: Vec<Task> = q.drain(..).collect();
        self.depth.store(0, Ordering::Relaxed);
        tasks.extend(self.inflight.lock().unwrap_or_else(|e| e.into_inner()).take());
        tasks
    }
}

/// What sits in a shard queue: a freshly submitted request, or one
/// chain's next slice.
pub(super) enum Task {
    Request(Box<RequestTask>),
    Slice(Box<SliceTask>),
}

impl Task {
    /// The request this task serves.
    pub(super) fn caller(&self) -> &Caller {
        match self {
            Task::Request(t) => &t.caller,
            Task::Slice(t) => &t.agg.caller,
        }
    }

    /// Times this task has been requeued since it last made progress.
    pub(super) fn attempts(&self) -> u32 {
        match self {
            Task::Request(t) => t.attempts,
            Task::Slice(t) => t.attempts,
        }
    }

    /// The span tag the task's next record hangs off: the root `submit`
    /// span for a request, the chain's latest record for a slice.
    pub(super) fn parent(&self) -> &str {
        match self {
            Task::Request(_) => "submit",
            Task::Slice(t) => &t.parent,
        }
    }

    /// Counts one more attempt; returns it and the span tag of its
    /// `retried` record.
    fn next_attempt(&mut self) -> (u32, String) {
        match self {
            Task::Request(t) => {
                t.attempts += 1;
                (t.attempts, format!("submit/attempt{}", t.attempts))
            }
            Task::Slice(t) => {
                t.attempts += 1;
                (t.attempts, format!("chain{}/slice{}/attempt{}", t.chain, t.slice_no, t.attempts))
            }
        }
    }

    /// Answers the task with `err`: a request fails, a slice completes
    /// its chain with the error. Shutdown, deadlines and exhausted retry
    /// budgets all end here.
    pub(super) fn fail(self, shared: &Shared, err: ServeError) {
        match self {
            Task::Request(t) => t.caller.answer(shared, Err(err)),
            Task::Slice(t) => complete_chain(shared, &t.agg, t.chain, Err(err)),
        }
    }
}

impl Shared {
    /// Admission control: the round-robin shard, or the next one with
    /// room under [`ServiceConfig::queue_bound`](super::ServiceConfig);
    /// `None` when every queue is at the bound and the request is shed.
    pub(super) fn admit(&self) -> Option<usize> {
        let n = self.shards.len();
        let start = self.next_shard.fetch_add(1, Ordering::Relaxed) % n;
        let bound = self.config.queue_bound;
        (0..n)
            .map(|i| (start + i) % n)
            .find(|&s| bound == 0 || self.shards[s].depth.load(Ordering::Relaxed) < bound)
    }

    /// Pushes a task and wakes the shard; returns the shard's new depth.
    pub(super) fn enqueue(&self, shard: usize, task: Task) -> usize {
        let s = &self.shards[shard];
        let depth = s.push(task);
        self.high_water.fetch_max(depth, Ordering::Relaxed);
        // Both high-water surfaces: the since-start snapshot counter
        // above, and the per-scrape-window registry gauge (resets on
        // every collect).
        self.tel.queue_high_water.set_max(depth as f64);
        s.wakeup.notify_one();
        depth
    }
}

/// The one requeue path, for the task a dead worker left behind and for
/// a slice whose execution failed on shard `idx`. A transient error
/// (`!is_caller_fault()`) with retry budget left (`attempts <
/// max_retries`) requeues the task on the next shard after `backoff`,
/// counted in `retries` and traced as one `retried` record; any other
/// error answers the task.
pub(super) fn requeue(
    shared: &Shared,
    idx: usize,
    mut task: Task,
    err: augur::Error,
    backoff: Duration,
) {
    if err.kind().is_caller_fault() || task.attempts() >= shared.config.max_retries {
        return task.fail(shared, ServeError::Model(err));
    }
    let (attempt, tag) = task.next_attempt();
    shared.tel.retries.inc();
    let fields = [("shard", idx as f64), ("attempt", attempt as f64)];
    let code = Some(err.kind().as_str());
    shared.event(Some(task.caller()), "retried", code, &tag, Some(task.parent()), &fields);
    if !backoff.is_zero() {
        std::thread::sleep(backoff);
    }
    shared.enqueue((idx + 1) % shared.shards.len(), task);
}

#[cfg(test)]
mod tests {
    use std::sync::{mpsc, Arc};
    use std::time::Instant;

    use super::*;
    use crate::service::{ExplainRequest, Request};

    /// A queued task that is never run.
    fn idle_task() -> Task {
        Task::Request(Box::new(RequestTask {
            caller: Arc::new(Caller {
                id: 0,
                model: String::new(),
                trace: String::new(),
                t0: Instant::now(),
                deadline: None,
                reply: mpsc::channel().0,
            }),
            attempts: 0,
            req: Request::Explain(ExplainRequest {
                model: String::new(),
                version: None,
                args: Vec::new(),
                data: Vec::new(),
                deadline: None,
            }),
        }))
    }

    /// One thread pushes while another pops as fast as it can: after
    /// every pop the depth is at most the pushes so far minus the pops,
    /// so it never wraps below zero, and it ends at 0. A push that
    /// counted itself after unlocking would let a pop in between wrap the
    /// counter, and overflow its own `+ 1` in debug builds.
    #[test]
    fn shard_depth_never_counts_a_pop_before_its_push() {
        const TASKS: usize = 50_000;
        let shard = Shard::default();
        let pushed = AtomicUsize::new(0);
        let popped = std::thread::scope(|scope| {
            let pusher = scope.spawn(|| {
                for _ in 0..TASKS {
                    pushed.fetch_add(1, Ordering::Relaxed);
                    shard.push(idle_task());
                }
            });
            let mut popped = 0;
            loop {
                let mut q = shard.queue.lock().unwrap();
                if shard.pop(&mut q).is_some() {
                    popped += 1;
                    let depth = shard.depth.load(Ordering::Relaxed);
                    let bound = pushed.load(Ordering::Relaxed) - popped;
                    assert!(depth <= bound, "depth {depth} after {popped} pops, bound {bound}");
                } else if pusher.is_finished() {
                    break popped;
                }
            }
        });
        assert_eq!(popped, TASKS);
        assert_eq!(shard.depth.load(Ordering::Relaxed), 0);
    }
}
