//! Worker supervision: each shard's run loop, the service-level fault
//! drills, and the guard that turns a dying worker into a recovered
//! task plus a fresh worker.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use augur_backend::fault::INJECTED_SHARD_PANIC;

use super::queue::{requeue, Task};
use super::{slice, Shared};

/// Spawns the shard-`idx` worker thread (initial start and respawns).
pub(super) fn spawn_worker(shared: &Arc<Shared>, idx: usize) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name(format!("augur-serve-{idx}"))
        .spawn(move || worker_loop(&shared, idx))
        .expect("spawn service worker")
}

/// One shard's run loop: pop until the queue is empty *and* the service
/// is closed (so shutdown drains in-flight work). A [`RespawnGuard`]
/// armed for the whole loop turns a panic that escapes task execution
/// into a recover-and-respawn instead of a dead shard.
fn worker_loop(shared: &Arc<Shared>, idx: usize) {
    let guard = RespawnGuard { shared: Arc::clone(shared), idx };
    shared.tel.workers_alive.add(1.0);
    while let Some(task) = shared.shards[idx].next(&shared.open) {
        process(shared, idx, task);
    }
    // Clean exit: the guard is for panics only.
    shared.tel.workers_alive.add(-1.0);
    std::mem::forget(guard);
}

/// Executes one dequeued task, applying the service-level fault drills
/// first: `slow@shard` stalls the worker, `panic@shard` parks the task
/// in the shard's in-flight slot and kills the worker (the respawn
/// guard recovers both). The panic only fires on a task's *first*
/// delivery — recovered tasks run, so the drill costs one slice and
/// terminates even on a single-shard service.
fn process(shared: &Arc<Shared>, idx: usize, task: Task) {
    if let Some(fault) = &shared.config.fault {
        if let Some(ms) = fault.shard_slow_ms(idx) {
            std::thread::sleep(Duration::from_millis(ms));
        }
        if task.attempts() == 0 && fault.shard_panic_hits(idx, task.caller().id) {
            *shared.shards[idx].inflight.lock().unwrap_or_else(|e| e.into_inner()) = Some(task);
            panic!("{INJECTED_SHARD_PANIC}");
        }
    }
    slice::execute(shared, idx, task);
}

/// The armed-for-panic drop guard every worker runs under. If the
/// worker thread unwinds, the guard (running during that unwind):
///
/// 1. respawns the shard's worker thread (unless the service is
///    shutting down), pushing the new handle where `stop` joins it;
/// 2. hands the task parked in the shard's in-flight slot, if any, to
///    the requeue path — the next shard while retry budget is left,
///    else a typed `fault` answer — so a killed worker never strands a
///    ticket. The guard runs during an unwind, so it never sleeps.
struct RespawnGuard {
    shared: Arc<Shared>,
    idx: usize,
}

impl Drop for RespawnGuard {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            return;
        }
        let (shared, idx) = (&self.shared, self.idx);
        // This thread is leaving its run loop; the respawn (if any)
        // re-enters and counts itself back in.
        shared.tel.workers_alive.add(-1.0);
        let task = shared.shards[idx].inflight.lock().unwrap_or_else(|e| e.into_inner()).take();
        if shared.open.load(Ordering::SeqCst) {
            shared.tel.respawns.inc();
            // The respawn record joins the recovered task's trace; an
            // idle-worker panic gets the service-level trace.
            let tag = format!("respawn{}/shard{idx}", shared.tel.respawns.get());
            let (caller, parent) =
                (task.as_ref().map(Task::caller), task.as_ref().map(Task::parent));
            shared.event(caller, "respawned", None, &tag, parent, &[("shard", idx as f64)]);
            let handle = spawn_worker(shared, idx);
            shared.handles.lock().unwrap_or_else(|e| e.into_inner()).push(handle);
        }
        if let Some(task) = task {
            let err = augur::Error::WorkerPanic {
                kernel: format!("service shard {idx}"),
                detail: INJECTED_SHARD_PANIC.to_string(),
            };
            requeue(shared, idx, task, err, Duration::ZERO);
        }
    }
}
