//! Request execution and the chain-slice lifecycle: plan a request,
//! answer `score`/`explain`, fan a `sample` out as one slice task per
//! chain, and run each slice (bind, restore-or-init, sweep, checkpoint,
//! migrate) until its chain completes.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use augur::chains::chain_seed;
use augur::{Checkpoint, Plan, Session, SessionConfig};
use augur_math::Prng;

use super::queue::{requeue, Task};
use super::{
    hermetic_config, Caller, ExplainOutput, Request, Response, SampleOutput, SampleRequest,
    ScoreOutput, ServeError, Shared,
};
use crate::registry::RegisteredModel;

/// A freshly submitted request, before fan-out.
pub(super) struct RequestTask {
    pub(super) caller: Arc<Caller>,
    /// Times this task has been recovered from a dead worker.
    pub(super) attempts: u32,
    pub(super) req: Request,
}

/// The shared completion state of one in-flight `sample` request.
pub(super) struct SampleAgg {
    pub(super) caller: Arc<Caller>,
    /// The plan-cache fingerprint the request is served under.
    fingerprint: u64,
    state: Mutex<AggState>,
}

struct AggState {
    remaining: usize,
    migrations: u64,
    chains: Vec<Option<Result<ChainResult, ServeError>>>,
}

/// One finished chain's contribution.
pub(super) struct ChainResult {
    draws: Vec<HashMap<String, Vec<f64>>>,
    report_digest: String,
}

/// One chain's next execution slice. The session itself is not `Send`,
/// so what travels between shards is the plain-data [`Checkpoint`]; the
/// receiving worker binds a fresh session off the shared plan and
/// restores it byte-identically.
pub(super) struct SliceTask {
    pub(super) agg: Arc<SampleAgg>,
    plan: Arc<Plan>,
    cfg: SessionConfig,
    pub(super) chain: usize,
    total: usize,
    done: usize,
    record: Vec<String>,
    draws: Vec<HashMap<String, Vec<f64>>>,
    ckpt: Option<Checkpoint>,
    migrate_every: u64,
    /// Consecutive failed/recovered executions of the *current* slice;
    /// reset to zero every time a slice completes, so a long chain that
    /// keeps crossing a faulty shard never exhausts its retry budget.
    pub(super) attempts: u32,
    /// Slices this chain has completed (numbers the `slice` spans).
    pub(super) slice_no: u64,
    /// The span tag of the chain's most recent lifecycle record — the
    /// parent of its next record, so a chain's records link up from
    /// `planned` through every slice and migration hop.
    pub(super) parent: String,
}

/// Executes one dequeued task: a task past its request's deadline
/// answers `timeout`; otherwise a request runs, or a slice sweeps.
pub(super) fn execute(shared: &Arc<Shared>, idx: usize, task: Task) {
    if let Some(e) = task.caller().late() {
        return task.fail(shared, e);
    }
    match task {
        Task::Request(t) => run_request(shared, idx, *t),
        Task::Slice(t) => run_slice(shared, idx, *t),
    }
}

/// Runs `f` under `catch_unwind`, so an organic panic answers with a
/// typed `fault` naming shard `idx` instead of killing the worker.
fn guarded<T, E: From<augur::Error>>(idx: usize, f: impl FnOnce() -> Result<T, E>) -> Result<T, E> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|p| {
        let detail = if let Some(s) = p.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = p.downcast_ref::<String>() {
            s.clone()
        } else {
            "worker panicked".to_string()
        };
        Err(augur::Error::WorkerPanic { kernel: format!("service shard {idx}"), detail }.into())
    })
}

/// What the guarded step of a request leaves to do.
enum Step {
    /// Answer a `score`/`explain` request.
    Answer(Response),
    /// Fan a planned `sample` request out over its plan.
    Fan(Arc<RegisteredModel>, Arc<Plan>, Box<SampleRequest>),
}

/// Runs a freshly dequeued request. Resolving and planning (every
/// kind), then binding and evaluating a `score`/`explain`, run under one
/// `catch_unwind` guard and answer through [`Caller::answer`]; a planned
/// `sample` fans its chains out as slice tasks.
fn run_request(shared: &Arc<Shared>, idx: usize, task: RequestTask) {
    let RequestTask { caller, mut req, .. } = task;
    let step = guarded(idx, || {
        let (registered, plan) = plan(shared, &mut req)?;
        let cfg = |config| effective_config(shared, &registered, config);
        Ok(match req {
            Request::Score(r) => {
                let mut session = bind(shared, &caller, &plan, cfg(r.config))?;
                session.init().map_err(augur::Error::from)?;
                Step::Answer(Response::Score(ScoreOutput { log_joint: session.log_joint() }))
            }
            Request::Explain(_) => {
                let session = bind(shared, &caller, &plan, cfg(None))?;
                Step::Answer(Response::Explain(ExplainOutput {
                    kernel: registered.model().kernel(),
                    explain: session.explain().render(),
                }))
            }
            Request::Sample(r) => Step::Fan(registered, Arc::new(plan), Box::new(r)),
        })
    });
    match step {
        Ok(Step::Answer(response)) => caller.answer(shared, Ok(response)),
        Ok(Step::Fan(registered, plan, r)) => {
            fan_sample(shared, idx, caller, &registered, plan, *r)
        }
        Err(e) => caller.answer(shared, Err(e)),
    }
}

/// Resolves a request's model and plans its bindings (a plan-cache hit
/// for every request after the first of its shape). The plan takes the
/// request's arguments.
fn plan(shared: &Shared, req: &mut Request) -> Result<(Arc<RegisteredModel>, Plan), ServeError> {
    let (name, version, args, data) = req.parts();
    let registered = shared
        .registry
        .resolve(name, version)
        .ok_or_else(|| ServeError::UnknownModel { name: name.clone(), version })?;
    let data = data.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
    let plan = registered.plan(std::mem::take(args), data)?;
    Ok((registered, plan))
}

/// Resolves the session config a request runs under. Without one of its
/// own: hermetic defaults, with the backend resolved
/// registration-over-service (`ModelSpec::backend` wins over
/// `ServiceConfig::backend`). The service's fault plan is threaded into
/// configs that carry none (the service-level clauses are inert inside
/// sweeps, so draws are unchanged; `compile@native` steers backend
/// selection only).
fn effective_config(
    shared: &Shared,
    registered: &RegisteredModel,
    config: Option<SessionConfig>,
) -> SessionConfig {
    let mut cfg = config.unwrap_or_else(|| SessionConfig {
        backend: registered.spec().backend.unwrap_or(shared.config.backend),
        ..hermetic_config(shared.config.base_seed)
    });
    if cfg.fault.is_none() {
        cfg.fault = shared.config.fault.clone();
    }
    cfg
}

/// Binds a session off `plan`. The first session bound after a model's
/// Native→Tape breaker has tripped records the demotion under its
/// request's trace (later sightings are no-ops: `demotions` counts
/// models).
fn bind(
    shared: &Shared,
    caller: &Caller,
    plan: &Plan,
    cfg: SessionConfig,
) -> Result<Session, augur::Error> {
    let session = plan.session(cfg)?;
    if plan.native_demotion().is_some()
        && shared.demoted.lock().unwrap_or_else(|e| e.into_inner()).insert(caller.model.clone())
    {
        shared.tel.demotions.inc();
        let trips = [("trips", plan.native_breaker().trips() as f64)];
        let code = Some("native_breaker");
        shared.event(Some(caller), "demoted", code, "demoted", Some("submit"), &trips);
    }
    Ok(session)
}

/// Fans a planned `sample` request's chains out as slice tasks, chain
/// `c` on shard `idx + 1 + c`.
fn fan_sample(
    shared: &Shared,
    idx: usize,
    caller: Arc<Caller>,
    registered: &RegisteredModel,
    plan: Arc<Plan>,
    r: SampleRequest,
) {
    let fields = [("chains", r.chains as f64), ("sweeps", r.sweeps as f64)];
    shared.event(Some(&caller), "planned", None, "plan", Some("submit"), &fields);
    // An unknown name is the caller's fault: answer it once, before any
    // chain binds a session.
    if let Err(e) = plan.check_record(&r.record) {
        return caller.answer(shared, Err(augur::Error::from(e).into()));
    }
    let base = effective_config(shared, registered, r.config);
    let migrate_every = r.migrate_every.unwrap_or(shared.config.migrate_every);
    let fingerprint = plan.fingerprint();
    if r.chains == 0 {
        let output = SampleOutput {
            draws: Vec::new(),
            report_digests: Vec::new(),
            fingerprint,
            migrations: 0,
        };
        return caller.answer(shared, Ok(Response::Sample(output)));
    }
    shared.tel.begin_sample(&caller.model, caller.id, r.chains);
    shared.tel.inflight_chains.add(r.chains as f64);
    let agg = Arc::new(SampleAgg {
        caller,
        fingerprint,
        state: Mutex::new(AggState {
            remaining: r.chains,
            migrations: 0,
            chains: (0..r.chains).map(|_| None).collect(),
        }),
    });
    for c in 0..r.chains {
        let task = SliceTask {
            agg: Arc::clone(&agg),
            plan: Arc::clone(&plan),
            cfg: SessionConfig { seed: chain_seed(base.seed, c), ..base.clone() },
            chain: c,
            total: r.sweeps,
            done: 0,
            record: r.record.clone(),
            draws: Vec::new(),
            ckpt: None,
            migrate_every,
            attempts: 0,
            slice_no: 0,
            parent: "plan".to_owned(),
        };
        shared.enqueue((idx + 1 + c) % shared.shards.len(), Task::Slice(Box::new(task)));
    }
}

/// What one slice execution did.
enum SliceOutcome {
    /// The chain has more sweeps to run; the task carries the
    /// checkpoint for its next hop.
    Continue,
    /// The chain finished and reported to its aggregate.
    Done,
}

/// One slice execution: bind a session, restore-or-init, run up to
/// `migrate_every` sweeps, then checkpoint (more to do) or report the
/// finished chain. Mutates `task` only after the sweeps succeed, so a
/// failed execution leaves the task exactly at its last good
/// checkpoint and a retry reruns the identical sweeps — byte-identical
/// draws, no matter how many times the slice is retried or recovered.
fn slice_step(shared: &Shared, task: &mut SliceTask) -> Result<SliceOutcome, augur::Error> {
    let agg = Arc::clone(&task.agg);
    let mut session = bind(shared, &agg.caller, &task.plan, task.cfg.clone())?;
    match &task.ckpt {
        Some(ck) => session.restore(ck)?,
        None => session.init()?,
    }
    let remaining = task.total - task.done;
    let migrating =
        shared.open.load(Ordering::SeqCst) && task.migrate_every > 0 && shared.shards.len() > 1;
    let slice = if migrating { remaining.min(task.migrate_every as usize) } else { remaining };
    let record: Vec<&str> = task.record.iter().map(String::as_str).collect();
    let draws = session.sample(slice, &record)?;
    // Slice boundary: fold the fresh draws into the streaming
    // convergence estimators and close this slice's span (the next
    // slice — or the migration hop — parents onto it).
    shared.tel.record_slice(&agg.caller.model, agg.caller.id, task.chain, &draws);
    let tag = format!("chain{}/slice{}", task.chain, task.slice_no);
    let fields = [
        ("chain", task.chain as f64),
        ("sweep_from", task.done as f64),
        ("sweep_to", (task.done + slice) as f64),
    ];
    shared.event(Some(&agg.caller), "slice", None, &tag, Some(&task.parent), &fields);
    task.parent = tag;
    task.slice_no += 1;
    task.draws.extend(draws);
    task.done += slice;
    task.attempts = 0;
    if task.done < task.total {
        task.ckpt = Some(session.checkpoint());
        Ok(SliceOutcome::Continue)
    } else {
        let draws = std::mem::take(&mut task.draws);
        let report_digest = session.report().digest();
        complete_chain(shared, &agg, task.chain, Ok(ChainResult { draws, report_digest }));
        Ok(SliceOutcome::Done)
    }
}

/// Executes one chain-slice task under the panic guard: an unfinished
/// chain migrates to the next shard, and a failed slice takes the
/// requeue path with its deterministic backoff.
fn run_slice(shared: &Arc<Shared>, idx: usize, mut task: SliceTask) {
    match guarded(idx, || slice_step(shared, &mut task)) {
        Ok(SliceOutcome::Done) => {}
        Ok(SliceOutcome::Continue) => {
            let next = (idx + 1) % shared.shards.len();
            shared.tel.migrations.inc();
            task.agg.state.lock().unwrap_or_else(|e| e.into_inner()).migrations += 1;
            // The hop parents onto the slice that just closed, and the
            // next slice parents onto the hop — one unbroken chain of
            // spans per chain.
            let tag = format!("chain{}/slice{}/migrate", task.chain, task.slice_no - 1);
            let fields = [
                ("chain", task.chain as f64),
                ("sweep", task.done as f64),
                ("from_worker", idx as f64),
                ("to_worker", next as f64),
            ];
            shared.event(
                Some(&task.agg.caller),
                "migrated",
                None,
                &tag,
                Some(&task.parent),
                &fields,
            );
            task.parent = tag;
            shared.enqueue(next, Task::Slice(Box::new(task)));
        }
        Err(e) => {
            let (base_ms, id) = (shared.config.retry_backoff_ms, task.agg.caller.id);
            let backoff = retry_backoff(base_ms, id, task.chain as u64, task.attempts + 1);
            requeue(shared, idx, Task::Slice(Box::new(task)), e, backoff);
        }
    }
}

/// The deterministic retry delay for `(request, chain, attempt)`:
/// exponential in the attempt, jittered from the counter-based
/// splitmix64 stream — no wall clock anywhere, so fault-injected
/// differential runs reproduce exactly.
fn retry_backoff(base_ms: u64, request: u64, chain: u64, attempt: u32) -> Duration {
    if base_ms == 0 {
        return Duration::ZERO;
    }
    let mut rng = Prng::seed_from_u64(
        request.wrapping_mul(0x0000_0100_0000_01b3) ^ (chain << 32) ^ attempt as u64,
    );
    let jitter = rng.uniform(); // [0, 1)
    let exp = attempt.saturating_sub(1).min(6);
    let scaled_ms = (base_ms << exp) as f64 * (0.5 + 0.5 * jitter);
    Duration::from_micros((scaled_ms * 1000.0) as u64)
}

/// Records one chain's result; the last chain to land assembles the
/// response (first error by chain index wins, matching `ChainPlan`).
pub(super) fn complete_chain(
    shared: &Shared,
    agg: &SampleAgg,
    chain: usize,
    result: Result<ChainResult, ServeError>,
) {
    shared.tel.inflight_chains.add(-1.0);
    let (chains, migrations) = {
        let mut st = agg.state.lock().unwrap_or_else(|e| e.into_inner());
        st.chains[chain] = Some(result);
        st.remaining -= 1;
        if st.remaining > 0 {
            return;
        }
        (std::mem::take(&mut st.chains), st.migrations)
    };
    let result = chains
        .into_iter()
        .map(|slot| slot.expect("every chain reported"))
        .collect::<Result<Vec<ChainResult>, ServeError>>()
        .map(|chains| {
            let (draws, report_digests) =
                chains.into_iter().map(|c| (c.draws, c.report_digest)).unzip();
            let fingerprint = agg.fingerprint;
            Response::Sample(SampleOutput { draws, report_digests, fingerprint, migrations })
        });
    agg.caller.answer(shared, result);
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;

    /// The backoff is a pure function of its counters: same
    /// (request, chain, attempt) → same delay, across processes and
    /// platforms — no wall clock feeds it.
    #[test]
    fn backoff_is_deterministic() {
        for (req, chain, attempt) in [(1, 0, 1), (7, 2, 3), (u64::MAX, 9, 10)] {
            let a = retry_backoff(2, req, chain, attempt);
            let b = retry_backoff(2, req, chain, attempt);
            assert_eq!(a, b, "req={req} chain={chain} attempt={attempt}");
        }
    }

    /// Delays grow exponentially with the attempt (jitter keeps them
    /// within [0.5, 1.0)× the 2^(attempt-1) rung, capped at 2^6) and
    /// differ across chains so retries de-synchronize.
    #[test]
    fn backoff_schedule_is_exponential_and_bounded() {
        let base = 2u64;
        for attempt in 1..=10u32 {
            let d = retry_backoff(base, 42, 1, attempt);
            let exp = attempt.saturating_sub(1).min(6);
            let rung = (base << exp) as f64 / 1000.0;
            let secs = d.as_secs_f64();
            assert!(secs >= rung * 0.5 - 1e-9, "attempt {attempt}: {secs} < {}", rung * 0.5);
            assert!(secs < rung + 1e-9, "attempt {attempt}: {secs} >= {rung}");
        }
        // Distinct chains jitter apart on the same attempt.
        let deltas: HashSet<u128> =
            (0..8u64).map(|c| retry_backoff(base, 42, c, 2).as_micros()).collect();
        assert!(deltas.len() > 1, "jitter collapsed: {deltas:?}");
        // A zero base disables the sleep entirely.
        assert_eq!(retry_backoff(0, 42, 0, 3), Duration::ZERO);
    }
}
