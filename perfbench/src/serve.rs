//! The `serve-mixed` workload: `augur-serve` with two workers and chain
//! migration every third of a request, driven by a closed loop (four
//! requests in flight) and then open-loop steps at three frozen offered
//! rates (low, mid, high).
//!
//! The closed loop gives the end-to-end rate: chain sweeps answered per
//! CPU-second of the process at saturation, at reference host speed (see
//! [`crate::timing::Reference`]); the generator runs the reference
//! between polls. The open-loop steps give the per-layer latencies.
//!
//! The open loop is one generator thread: it submits each request at its
//! seeded due time and polls tickets with `try_wait`, timing every
//! request from when it was due, so a stalled generator or a growing
//! queue shows up in the latency of every later request. Sample requests
//! go round-robin over the models; 2 in 20 requests are score/explain and
//! 1 in 20 sample requests brings a data size not seen before, so the
//! plan cache is both read (repeated shapes) and written
//! (respecialization).

use std::collections::HashMap;
use std::io::{Read as _, Write as _};
use std::time::{Duration, Instant};

use augur::chains::chain_seed;
use augur::{ExecBackend, Model};
use augur_serve::{
    ExplainRequest, ModelRegistry, ModelSpec, Request, Response, SampleOutput, SampleRequest,
    ScoreRequest, Service, ServiceConfig,
};

use crate::inputs::{self, Ask, Kind, ModelInputs, Planned, Scale};
use crate::outcome::Outcome;
use crate::probes::{self, session_config};
use crate::timing::{self, percentile, process_cpu_secs, sorted, Op, Reference, REF_EVERY_SECS};
use crate::trace::{count_allocs, Tracer};
use crate::RunOpts;

/// Worker shards.
pub const WORKERS: usize = 2;
/// Chains per sample request.
pub const CHAINS: usize = 2;
/// Sweeps per chain.
pub const SWEEPS: usize = 24;
/// A chain checkpoints and moves to the next shard every this many
/// sweeps: a third of a request.
pub const MIGRATE_EVERY: u64 = 8;
/// Requests kept in flight during the closed-loop capacity phase.
pub const CONCURRENCY: usize = 2 * WORKERS;
/// Every this-many-th sample request is re-run directly and compared.
pub const CHECK_EVERY: usize = 20;
/// Closed-loop windows are this long; the first is warm-up, and the
/// rates are medians over the rest.
pub const WINDOW_SECS: f64 = 0.5;
/// Longest sleep between ticket polls.
const POLL: Duration = Duration::from_micros(200);

/// The rate-step names, in the order they run.
pub const STEPS: [&str; 3] = ["low", "mid", "high"];

/// Something the open loop can send requests to.
pub trait Target {
    /// A handle on one sent request.
    type Ticket;
    /// Sends request `i` of the current schedule.
    fn submit(&mut self, i: usize) -> Self::Ticket;
    /// `Some(ok)` once the request has finished.
    fn poll(&mut self, t: &Self::Ticket) -> Option<bool>;
}

/// What happened to one open-loop request; times in seconds from the
/// start of its step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sent {
    /// When it was due.
    pub due: f64,
    /// When the generator actually sent it.
    pub sent: f64,
    /// When the generator saw it finish.
    pub done: f64,
    /// Whether it succeeded.
    pub ok: bool,
}

impl Sent {
    /// Latency counted from the due time.
    pub fn latency(&self) -> f64 {
        self.done - self.due
    }

    /// How late the generator sent it.
    pub fn lag(&self) -> f64 {
        self.sent - self.due
    }
}

/// One open-loop step's record.
#[derive(Debug, Clone, Default)]
pub struct Step {
    /// Every request, in due order.
    pub sent: Vec<Sent>,
    /// Least-squares slope of the number of requests in flight over the
    /// step, sampled at every send (requests per second; ~0 when the
    /// service keeps up).
    pub backlog_slope: f64,
    /// Seconds each `submit` call took.
    pub submit_secs: Vec<f64>,
}

/// Sends requests `0..dues.len()` at their due times (seconds from now)
/// and waits for all of them.
pub fn open_loop<T: Target>(target: &mut T, dues: &[f64], tr: &Tracer) -> Step {
    let t0 = Instant::now();
    let mut step = Step::default();
    let mut sent: Vec<Option<Sent>> = vec![None; dues.len()];
    let mut inflight: Vec<(usize, T::Ticket)> = Vec::new();
    let mut samples: Vec<(f64, f64)> = Vec::new();
    let mut next = 0;
    loop {
        let now = t0.elapsed().as_secs_f64();
        while next < dues.len() && dues[next] <= now {
            let at = t0.elapsed().as_secs_f64();
            let s0 = Instant::now();
            let ticket = tr.span("Service::submit", || target.submit(next));
            step.submit_secs.push(s0.elapsed().as_secs_f64());
            sent[next] = Some(Sent {
                due: dues[next],
                sent: at,
                done: f64::NAN,
                ok: false,
            });
            inflight.push((next, ticket));
            samples.push((at, inflight.len() as f64));
            next += 1;
        }
        tr.span("Ticket::try_wait", || {
            inflight.retain(|(i, ticket)| match target.poll(ticket) {
                Some(ok) => {
                    let s = sent[*i].as_mut().expect("a polled request was sent");
                    s.done = t0.elapsed().as_secs_f64();
                    s.ok = ok;
                    false
                }
                None => true,
            });
        });
        if next == dues.len() && inflight.is_empty() {
            break;
        }
        let now = t0.elapsed().as_secs_f64();
        let until_due = dues
            .get(next)
            .map_or(POLL, |&d| Duration::from_secs_f64((d - now).max(0.0)));
        std::thread::sleep(until_due.min(POLL));
    }
    for s in sent.iter().flatten() {
        tr.record(
            "request",
            t0 + Duration::from_secs_f64(s.due),
            t0 + Duration::from_secs_f64(s.done),
            None,
        );
    }
    step.sent = sent.into_iter().flatten().collect();
    step.backlog_slope = slope(&samples);
    step
}

/// One reference pass of a closed-loop phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tick {
    /// Wall seconds from the start of the phase.
    pub at: f64,
    /// CPU seconds of the whole process just before the pass.
    pub cpu: f64,
    /// CPU seconds the pass took.
    pub ref_secs: f64,
}

/// What a closed-loop phase recorded.
#[derive(Debug, Clone, Default)]
pub struct Closed {
    /// `(wall seconds from the start, request index)` of each request
    /// that succeeded within the phase, in completion order.
    pub done: Vec<(f64, usize)>,
    /// The reference passes: one every [`REF_EVERY_SECS`] while the phase
    /// is open, and one as it closes.
    pub ticks: Vec<Tick>,
}

/// Keeps `concurrency` requests in flight for `secs`, running a
/// `reference` pass between polls every [`REF_EVERY_SECS`] and once at
/// the end. Requests still in flight at the end are drained but not
/// counted.
pub fn closed_loop<T: Target>(
    target: &mut T,
    concurrency: usize,
    secs: f64,
    reference: &Reference,
) -> Closed {
    let t0 = Instant::now();
    let mut rec = Closed::default();
    let mut inflight: Vec<(usize, T::Ticket)> = Vec::new();
    let mut next = 0;
    loop {
        let open = t0.elapsed().as_secs_f64() < secs;
        while open && inflight.len() < concurrency {
            inflight.push((next, target.submit(next)));
            next += 1;
        }
        inflight.retain(|(i, t)| match target.poll(t) {
            Some(ok) => {
                let at = t0.elapsed().as_secs_f64();
                if ok && at < secs {
                    rec.done.push((at, *i));
                }
                false
            }
            None => true,
        });
        let now = t0.elapsed().as_secs_f64();
        let last = rec.ticks.last().map_or(f64::NEG_INFINITY, |t| t.at);
        if (open && now - last >= REF_EVERY_SECS) || (!open && last < secs) {
            let cpu = process_cpu_secs();
            rec.ticks.push(Tick {
                at: now,
                cpu,
                ref_secs: reference.pass(),
            });
        }
        if !open && inflight.is_empty() {
            return rec;
        }
        std::thread::sleep(POLL);
    }
}

/// The closed loop's rates over windows of about `win` seconds, each
/// running from the first reference pass in it to the first pass of the
/// next; the first window is warm-up and left out. `weight` gives the
/// work each answered request counts for. Returns each window's work per
/// CPU-second of the process (reference passes left out) at reference
/// host speed, and its work per wall second.
pub fn closed_rates(
    closed: &Closed,
    win: f64,
    weight: impl Fn(usize) -> usize,
) -> (Vec<f64>, Vec<f64>) {
    let ticks = &closed.ticks;
    let mut bounds: Vec<usize> = Vec::new();
    for (j, t) in ticks.iter().enumerate() {
        let w = (t.at / win).floor();
        let last_w = bounds.last().map(|&b| (ticks[b].at / win).floor());
        if (w >= 1.0 && last_w.is_none_or(|l| w > l)) || j + 1 == ticks.len() {
            bounds.push(j);
        }
    }
    let (mut adjusted, mut raw) = (Vec::new(), Vec::new());
    for pair in bounds.windows(2) {
        let (a, b) = (&ticks[pair[0]], &ticks[pair[1]]);
        let passes: Vec<f64> = ticks[pair[0]..pair[1]].iter().map(|t| t.ref_secs).collect();
        let cpu = b.cpu - a.cpu - passes.iter().sum::<f64>();
        let work: usize = closed
            .done
            .iter()
            .filter(|(t, _)| (a.at..b.at).contains(t))
            .map(|&(_, i)| weight(i))
            .sum();
        if cpu > 0.0 {
            adjusted.push(work as f64 / cpu / timing::host_speed(&passes));
            raw.push(work as f64 / (b.at - a.at));
        }
    }
    (adjusted, raw)
}

/// Least-squares slope of `(x, y)` points (0 for fewer than two).
pub fn slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    if points.len() < 2 {
        return 0.0;
    }
    let mx = points.iter().map(|p| p.0).sum::<f64>() / n;
    let my = points.iter().map(|p| p.1).sum::<f64>() / n;
    let sxx: f64 = points.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum();
    let sxy: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    if sxx > 0.0 {
        sxy / sxx
    } else {
        0.0
    }
}

/// Serving-run settings.
#[derive(Debug, Clone)]
pub struct ServeRun {
    /// Models served, round-robin.
    pub models: Vec<Kind>,
    /// Offered rates of the low/mid/high steps, requests per second.
    pub rates: [f64; 3],
    /// Length of the low/mid/high steps.
    pub step_secs: [f64; 3],
    /// Length of the closed-loop phase before the steps.
    pub closed_secs: f64,
}

/// A sample request for `inputs` with session seed `seed`.
fn sample_request(inputs: &ModelInputs, seed: u64, chains: usize, sweeps: usize) -> Request {
    Request::Sample(SampleRequest {
        model: inputs.kind.name().into(),
        version: None,
        args: inputs.args.clone(),
        data: inputs.data.clone(),
        chains,
        sweeps,
        record: inputs.record.clone(),
        config: Some(session_config(inputs, seed, ExecBackend::Tape, 1, false)),
        migrate_every: None,
        deadline: None,
    })
}

/// The request `p` asks for; with `check`, a sample request also carries
/// what the correctness check needs to re-run it.
fn planned_request(
    base: &[ModelInputs],
    p: &Planned,
    data_seed: u64,
    check: bool,
) -> (Request, Option<ToCheck>) {
    match p.ask {
        Ask::Sample { model, grow } => {
            let inputs = if grow == 0 {
                base[model].clone()
            } else {
                inputs::serve_model(base[model].kind, data_seed, grow)
            };
            let req = sample_request(&inputs, p.seed, CHAINS, SWEEPS);
            (
                req,
                check.then_some(ToCheck {
                    inputs,
                    seed: p.seed,
                }),
            )
        }
        Ask::Score { model } => {
            let m = &base[model];
            let req = Request::Score(ScoreRequest {
                model: m.kind.name().into(),
                version: None,
                args: m.args.clone(),
                data: m.data.clone(),
                config: Some(session_config(m, p.seed, ExecBackend::Tape, 1, false)),
                deadline: None,
            });
            (req, None)
        }
        Ask::Explain { model } => {
            let m = &base[model];
            let req = Request::Explain(ExplainRequest {
                model: m.kind.name().into(),
                version: None,
                args: m.args.clone(),
                data: m.data.clone(),
                deadline: None,
            });
            (req, None)
        }
    }
}

/// The inputs and session seed of a sample request whose response the
/// correctness check re-runs directly.
struct ToCheck {
    inputs: ModelInputs,
    seed: u64,
}

/// A sample response kept for the direct-run comparison.
struct Kept {
    req: ToCheck,
    output: SampleOutput,
}

/// The service as an open/closed-loop target.
struct ServiceTarget<'a> {
    svc: &'a Service,
    /// Requests of the current step, taken on submit.
    queue: Vec<Option<(Request, Option<ToCheck>)>>,
    /// Closed-loop requests are built on the fly from these.
    base: &'a [ModelInputs],
    kept: Vec<Kept>,
    samples_sent: usize,
}

impl Target for ServiceTarget<'_> {
    type Ticket = (augur_serve::Ticket, Option<ToCheck>);

    fn submit(&mut self, i: usize) -> Self::Ticket {
        let (req, check) = match self.queue.get_mut(i).and_then(Option::take) {
            Some(planned) => planned,
            None => {
                let p = Planned {
                    due: 0.0,
                    ask: closed_ask(i, self.base.len()),
                    seed: 0xC0FFEE + i as u64,
                };
                planned_request(self.base, &p, 0, false)
            }
        };
        (self.svc.submit(req), check)
    }

    fn poll(&mut self, t: &Self::Ticket) -> Option<bool> {
        let result = t.0.try_wait()?;
        let ok = result.is_ok();
        if let (Ok(Response::Sample(output)), Some(req)) = (result, &t.1) {
            let req = ToCheck {
                inputs: req.inputs.clone(),
                seed: req.seed,
            };
            self.kept.push(Kept { req, output });
        }
        Some(ok)
    }
}

/// Registers `models` and starts the service.
fn start(models: &[Kind], telemetry: bool) -> Result<Service, String> {
    let registry = ModelRegistry::new();
    for kind in models {
        registry
            .register(kind.name(), ModelSpec::new(kind.source()))
            .map_err(|e| e.to_string())?;
    }
    Ok(Service::start(
        registry,
        ServiceConfig {
            workers: WORKERS,
            migrate_every: MIGRATE_EVERY,
            base_seed: 0xA464,
            backend: ExecBackend::Tape,
            trace_path: None,
            telemetry_addr: telemetry.then(|| "127.0.0.1:0".to_string()),
            queue_bound: 256,
            default_deadline: None,
            max_retries: 3,
            retry_backoff_ms: 2,
            fault: None,
        },
    ))
}

/// The serving set-up `setup_s` times: registration, `Service::start`,
/// and the first request per model, answered. That request runs one
/// chain for one sweep: it plans the model and binds a session, and
/// samples no more than it must, since every chain hand-off between
/// threads made this time double from run to run on a shared 2-core VM.
///
/// # Errors
///
/// Returns the first failure as text.
pub fn setup(base: &[ModelInputs], tr: &Tracer, telemetry: bool) -> Result<Service, String> {
    let models: Vec<Kind> = base.iter().map(|m| m.kind).collect();
    let svc = tr.span("Service::start", || start(&models, telemetry))?;
    let tickets: Vec<_> = base
        .iter()
        .map(|m| svc.submit(sample_request(m, 1, 1, 1)))
        .collect();
    for t in tickets {
        t.wait().map_err(|e| format!("first request failed: {e}"))?;
    }
    Ok(svc)
}

/// The frozen serving settings for `scale`.
pub fn serve_run(models: Vec<Kind>, seconds: f64, scale: Scale) -> ServeRun {
    let rates = crate::frozen_rates();
    match scale {
        // At 20 s the closed loop gives 17 timed windows and, at the
        // frozen rates, each step offers 225–275 requests, so each step's
        // p95 has at least ten samples beyond it.
        Scale::Full => ServeRun {
            models,
            rates,
            step_secs: [0.25 * seconds, 0.17 * seconds, 0.13 * seconds],
            closed_secs: 0.45 * seconds,
        },
        Scale::Smoke => ServeRun {
            models,
            rates: rates.map(|r| r / 4.0),
            step_secs: [0.3; 3],
            closed_secs: 3.0 * WINDOW_SECS,
        },
    }
}

/// The request at position `i` of the closed loop: the shared shapes
/// only, with the open loop's share of score/explain requests.
fn closed_ask(i: usize, models: usize) -> Ask {
    inputs::side_request(i, models).unwrap_or(Ask::Sample {
        model: i % models,
        grow: 0,
    })
}

/// Runs the `serve-mixed` workload.
pub fn run(opts: &RunOpts) -> Outcome {
    let mut out = Outcome::new("serve-mixed", opts.seed, opts.trace);
    let tr = Tracer::new(opts.trace);
    let cfg = serve_run(inputs::SERVE_MODELS.to_vec(), opts.seconds, opts.scale);
    let result = tr.span("serve", || drive(&mut out, &cfg, opts, &tr, true));
    if let Err(e) = result {
        out.check("serving run", false, e);
        return out;
    }
    if opts.trace {
        let base: Vec<ModelInputs> = cfg
            .models
            .iter()
            .map(|&k| inputs::serve_model(k, opts.seed, 0))
            .collect();
        tr.span("probes", || {
            for m in &base {
                if let Err(e) = probes::probe_model(
                    &mut out,
                    m,
                    opts.seed,
                    ExecBackend::Tape,
                    probes::window_secs(opts.scale),
                ) {
                    out.check("layer probes", false, e);
                }
            }
            average_ratios(&mut out, base.len());
            if let Err(e) = profile_sessions(&mut out, &base, opts.seed) {
                out.check("session profile", false, e);
            }
        });
        out.layers = crate::trace::self_times(&tr.spans());
        crate::finish_trace(&tr, &out);
    }
    out
}

/// Ratio metrics were summed over `models` probe calls; turn them into
/// means.
fn average_ratios(out: &mut Outcome, models: usize) {
    for name in ["native.procs_covered", "par.speedup", "trace_overhead"] {
        if let Some(m) = out.get(name) {
            let v = m.value / models as f64;
            out.put(name, v, "ratio");
        }
    }
}

/// Session-level metrics for a serving workload, from direct sessions
/// over each model at serving size (the service's own sessions are not
/// reachable from outside), pooled across the models.
fn profile_sessions(out: &mut Outcome, base: &[ModelInputs], seed: u64) -> Result<(), String> {
    let mut sessions = Vec::new();
    let mut ops = Vec::new();
    let mut allocs = 0;
    for m in base {
        let model = Model::compile(m.kind.source()).map_err(|e| e.to_string())?;
        let plan = m.plan(&model).map_err(|e| e.to_string())?;
        let mut s = probes::ready_session(
            &plan,
            m,
            session_config(m, seed, ExecBackend::Tape, 1, true),
        )?;
        let t0 = Instant::now();
        let mut n = 0;
        while t0.elapsed().as_secs_f64() < 0.3 || n < 10 {
            let start = t0.elapsed().as_secs_f64();
            let t = Instant::now();
            let ((), a) = count_allocs(true, || s.sweep());
            allocs += a;
            ops.push(Op {
                start,
                secs: t.elapsed().as_secs_f64(),
            });
            n += 1;
        }
        sessions.push(s);
    }
    crate::batch::session_layers(out, &sessions, &ops, allocs);
    Ok(())
}

/// Serves `cfg.models` in a closed-loop phase followed by the open-loop
/// rate steps, adding the serving metrics and, when `check` is set, the
/// response check to `out`.
fn drive(
    out: &mut Outcome,
    cfg: &ServeRun,
    opts: &RunOpts,
    tr: &Tracer,
    check: bool,
) -> Result<(), String> {
    let reference = Reference::new();
    let base: Vec<ModelInputs> = cfg
        .models
        .iter()
        .map(|&k| inputs::serve_model(k, opts.seed, 0))
        .collect();
    let svc = setup(&base, tr, opts.trace)?;
    let mut rng = augur_math::Prng::seed_from_u64(opts.seed);
    let mut grow = 0;
    let schedules: Vec<Vec<Planned>> = cfg
        .rates
        .iter()
        .zip(cfg.step_secs)
        .map(|(&r, secs)| {
            let count = ((r * secs).round() as usize).max(1);
            inputs::schedule(&mut rng, base.len(), count, secs, &mut grow)
        })
        .collect();

    let mut target = ServiceTarget {
        svc: &svc,
        queue: Vec::new(),
        base: &base,
        kept: Vec::new(),
        samples_sent: 0,
    };
    let closed = tr.span("closed loop", || {
        closed_loop(&mut target, CONCURRENCY, cfg.closed_secs, &reference)
    });
    // A sample request delivers CHAINS × SWEEPS chain sweeps, a score or
    // explain request none.
    let (rates, raw) = closed_rates(&closed, WINDOW_SECS, |i| match closed_ask(i, base.len()) {
        Ask::Sample { .. } => CHAINS * SWEEPS,
        _ => 0,
    });
    let passes: Vec<f64> = closed.ticks.iter().map(|t| t.ref_secs).collect();
    crate::batch::put_rates(out, &rates, &raw, &passes);
    let (_, requests) = closed_rates(&closed, WINDOW_SECS, |_| 1);
    out.put_n(
        "serve.capacity_rps",
        timing::median(&requests),
        "1/s",
        requests.len(),
        timing::rel_iqr(&requests),
    );
    out.notes.push(format!(
        "closed loop: {} requests answered in {:.1} s at {CONCURRENCY} in flight; per-window requests/s {:?}",
        closed.done.len(),
        cfg.closed_secs,
        requests.iter().map(|r| r.round()).collect::<Vec<_>>()
    ));

    let mut steps = Vec::new();
    let mut allocs = 0;
    let (mut step_migrations, mut step_samples) = (0, 0);
    for ((name, sched), secs) in STEPS.iter().zip(&schedules).zip(cfg.step_secs) {
        target.queue = sched
            .iter()
            .map(|p| {
                let check = matches!(p.ask, Ask::Sample { .. }) && {
                    target.samples_sent += 1;
                    target.samples_sent % CHECK_EVERY == 1
                };
                Some(planned_request(&base, p, opts.seed ^ 0x5EED, check))
            })
            .collect();
        let dues: Vec<f64> = sched.iter().map(|p| p.due).collect();
        // The closed loop drained and each open loop waits for all its requests,
        // so this delta counts this step's sample requests' hops alone.
        let migrations_before = svc.metrics().migrations;
        let (step, n) = count_allocs(opts.trace, || {
            tr.span("step", || open_loop(&mut target, &dues, tr))
        });
        step_migrations += svc.metrics().migrations - migrations_before;
        step_samples += sched
            .iter()
            .filter(|p| matches!(p.ask, Ask::Sample { .. }))
            .count();
        allocs += n;
        let by_kind = |keep: &dyn Fn(&Ask) -> bool| -> String {
            let lat: Vec<f64> = sched
                .iter()
                .zip(&step.sent)
                .filter(|(p, _)| keep(&p.ask))
                .map(|(_, s)| s.latency() * 1e3)
                .collect();
            format!("{:.1}", timing::median(&lat))
        };
        let per_model: Vec<String> = base
            .iter()
            .enumerate()
            .map(|(m, inputs)| {
                let p50 =
                    by_kind(&|a: &Ask| matches!(a, Ask::Sample { model, grow: 0 } if *model == m));
                format!("{} {p50}", inputs.kind.name())
            })
            .collect();
        out.notes.push(format!(
            "{name}: {} requests at {:.1}/s offered, backlog slope {:.2}/s; median ms by kind: {}, new shape {}, score/explain {}",
            step.sent.len(),
            step.sent.len() as f64 / secs,
            step.backlog_slope,
            per_model.join(", "),
            by_kind(&|a: &Ask| matches!(a, Ask::Sample { grow, .. } if *grow > 0)),
            by_kind(&|a: &Ask| !matches!(a, Ask::Sample { .. })),
        ));
        steps.push(step);
    }
    let m = tr.span("Service::metrics", || svc.metrics());
    if opts.trace {
        scrape(out, &svc);
    }
    let responses = std::mem::take(&mut target.kept);
    drop(target);
    svc.shutdown();
    let peak_mib = crate::vm_hwm_kib() / 1024.0;

    let sent: Vec<&Sent> = steps.iter().flat_map(|s| &s.sent).collect();
    // Every request the service saw, set-up and closed loop included;
    // `failed` counts timeouts, and shed requests never reach it.
    out.attempted += m.submitted;
    out.failed += m.failed + m.shed;

    out.put("peak_rss_mb", peak_mib, "MiB");

    // Quality per sweep of the kept responses' draws.
    let traces: Vec<Vec<f64>> = responses
        .iter()
        .flat_map(|k| draw_traces(&k.output))
        .collect();
    out.put(
        "mcmc.ess_per_sweep",
        crate::batch::mean_ess(&traces),
        "ratio",
    );

    if check {
        check_responses(out, &responses);
    }

    // Serving-layer metrics: cheap, so kept in both runs' result files;
    // allocations are only counted in the traced run.
    let submit_ms: Vec<f64> = steps
        .iter()
        .flat_map(|s| &s.submit_secs)
        .map(|s| s * 1e3)
        .collect();
    out.put_n(
        "serve.submit_ms",
        timing::median(&submit_ms),
        "ms",
        submit_ms.len(),
        timing::rel_iqr(&submit_ms),
    );
    out.put("serve.queue_high_water", m.queue_high_water as f64, "count");
    out.put(
        "serve.migrations_per_req",
        step_migrations as f64 / step_samples.max(1) as f64,
        "count",
    );
    let (hits, misses, resp) = m.models.iter().fold((0, 0, 0), |(h, mi, r), ms| {
        (
            h + ms.stats.hits,
            mi + ms.stats.misses,
            r + ms.stats.respecializes,
        )
    });
    out.put(
        "serve.plan_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    out.notes
        .push(format!("plan cache: {hits} hits, {misses} misses"));
    out.put("serve.respecializes", resp as f64, "count");
    let lag_ms = sorted(&sent.iter().map(|s| s.lag() * 1e3).collect::<Vec<_>>());
    out.put_n(
        "serve.generator_lag_ms",
        percentile(&lag_ms, 95.0),
        "ms",
        lag_ms.len(),
        0.0,
    );
    // Latency counts from each request's due time. It is a per-layer
    // metric: on a shared 2-core VM its median moved 40% between quiet
    // and busy stretches of the host, since every chain hand-off waits
    // for an idle core to wake.
    for (name, step) in STEPS.iter().zip(&steps) {
        let lat = sorted(
            &step
                .sent
                .iter()
                .map(|s| s.latency() * 1e3)
                .collect::<Vec<_>>(),
        );
        out.put_percentile(&format!("serve.latency_p50_ms.{name}"), &lat, 50.0, "ms");
        out.put_percentile(&format!("serve.latency_p95_ms.{name}"), &lat, 95.0, "ms");
        out.put(
            &format!("serve.backlog_growth.{name}"),
            step.backlog_slope,
            "1/s",
        );
    }
    out.put(
        "alloc.per_request",
        allocs as f64 / sent.len().max(1) as f64,
        "count",
    );
    Ok(())
}

/// Per-(chain, component) traces of a sample response's recorded draws.
fn draw_traces(output: &SampleOutput) -> Vec<Vec<f64>> {
    let mut traces = Vec::new();
    for chain in &output.draws {
        let Some(first) = chain.first() else { continue };
        let mut names: Vec<&String> = first.keys().collect();
        names.sort();
        for name in names {
            for j in 0..first[name].len() {
                traces.push(chain.iter().map(|d| d[name][j]).collect());
            }
        }
    }
    traces
}

/// Compares each kept response with a direct run over a freshly compiled
/// plan, seeded as `ChainPlan` seeds chains: draws and report digests
/// must match byte for byte.
fn check_responses(out: &mut Outcome, kept: &[Kept]) {
    let mut models: HashMap<&'static str, Model> = HashMap::new();
    let mut mismatches = Vec::new();
    for k in kept {
        let model = models.entry(k.req.inputs.kind.name()).or_insert_with(|| {
            Model::compile(k.req.inputs.kind.source()).expect("serving models compile")
        });
        let Ok(plan) = k.req.inputs.plan(model) else {
            mismatches.push(format!("{}: plan failed", k.req.inputs.kind.name()));
            continue;
        };
        let record: Vec<&str> = k.req.inputs.record.iter().map(String::as_str).collect();
        for c in 0..CHAINS {
            let cfg = session_config(
                &k.req.inputs,
                chain_seed(k.req.seed, c),
                ExecBackend::Tape,
                1,
                false,
            );
            let same = plan.session(cfg).ok().and_then(|mut s| {
                s.init().ok()?;
                let draws = s.sample(SWEEPS, &record).ok()?;
                let bits = |d: &[HashMap<String, Vec<f64>>]| -> Vec<Vec<(String, Vec<u64>)>> {
                    d.iter()
                        .map(|m| {
                            let mut v: Vec<(String, Vec<u64>)> = m
                                .iter()
                                .map(|(n, x)| (n.clone(), x.iter().map(|f| f.to_bits()).collect()))
                                .collect();
                            v.sort();
                            v
                        })
                        .collect()
                };
                Some(
                    bits(&draws) == bits(&k.output.draws[c])
                        && s.report().digest() == k.output.report_digests[c],
                )
            });
            if same != Some(true) {
                mismatches.push(format!(
                    "{} seed {} chain {c}",
                    k.req.inputs.kind.name(),
                    k.req.seed
                ));
            }
        }
    }
    out.check(
        "every 20th sample response equals a direct run (draws and report digests)",
        !kept.is_empty() && mismatches.is_empty(),
        if mismatches.is_empty() {
            format!("{} responses compared", kept.len())
        } else {
            format!(
                "{} responses compared; mismatched: {}",
                kept.len(),
                mismatches.join(", ")
            )
        },
    );
}

/// Raw-TCP `GET /metrics` against a live service: median time and size.
fn scrape(out: &mut Outcome, svc: &Service) {
    let Some(addr) = svc.telemetry_addr() else {
        return;
    };
    let mut times = Vec::new();
    let mut bytes = 0usize;
    for _ in 0..5 {
        let t0 = Instant::now();
        let Ok(mut s) = std::net::TcpStream::connect(addr) else {
            continue;
        };
        let _ = write!(s, "GET /metrics HTTP/1.0\r\nHost: bench\r\n\r\n");
        let mut body = Vec::new();
        let _ = s.read_to_end(&mut body);
        times.push(t0.elapsed().as_secs_f64() * 1e3);
        bytes = body.len();
    }
    out.put_n(
        "obs.scrape_ms",
        timing::median(&times),
        "ms",
        times.len(),
        timing::rel_iqr(&times),
    );
    out.put("obs.scrape_kb", bytes as f64 / 1024.0, "KiB");
}

/// The serving layer's metrics for a batch workload's model: a short
/// serving run of that model alone, at half the frozen rates.
///
/// # Errors
///
/// Returns the first failure as text.
pub fn probe(out: &mut Outcome, kind: Kind, opts: &RunOpts) -> Result<(), String> {
    let mut cfg = serve_run(vec![kind], 3.0, opts.scale);
    cfg.rates = cfg.rates.map(|r| r / 2.0);
    let mut probe_out = Outcome::new(&out.workload, opts.seed, true);
    drive(&mut probe_out, &cfg, opts, &Tracer::new(false), false)?;
    for m in probe_out.metrics {
        if m.name.starts_with("serve.")
            || m.name.starts_with("obs.")
            || m.name == "alloc.per_request"
        {
            out.metrics.push(m);
        }
    }
    Ok(())
}
