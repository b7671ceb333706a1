//! Observability tests: `Session::report()` against an independent
//! oracle, the JSONL trace sink, and `Chains::report()` diagnostics.

use augur::prelude::*;

const GAMMA_POISSON: &str = "(N, a, b) => {
    param r ~ Gamma(a, b) ;
    data c[n] ~ Poisson(r) for n <- 0 until N ;
}";

fn gamma_poisson_sampler(config: SessionConfig) -> Session {
    let model = Model::with_schedule(GAMMA_POISSON, "MH r").unwrap();
    let mut s = model
        .plan(
            vec![HostValue::Int(6), HostValue::Real(2.0), HostValue::Real(1.0)],
            vec![("c", HostValue::VecF(vec![3.0, 5.0, 4.0, 2.0, 6.0, 4.0]))],
        )
        .unwrap()
        .session(config)
        .unwrap();
    s.init().unwrap();
    s
}

/// For an MH-only schedule, the report's accept count must equal an
/// oracle recount from the recorded trace: a random-walk proposal is
/// accepted iff the parameter's bits changed across the sweep (the §5.5
/// restore-on-reject discipline restores rejected states bitwise).
#[test]
fn mh_accepts_match_oracle_recount_in_both_lanes() {
    for exec in [ExecBackend::Tree, ExecBackend::Tape] {
        let mut s = gamma_poisson_sampler(SessionConfig { backend: exec, ..Default::default() });
        let sweeps = 400u64;
        let mut prev = s.param("r").unwrap()[0].to_bits();
        let mut oracle_accepts = 0u64;
        for _ in 0..sweeps {
            s.sweep();
            let now = s.param("r").unwrap()[0].to_bits();
            if now != prev {
                oracle_accepts += 1;
            }
            prev = now;
        }
        let report = s.report();
        assert_eq!(report.schedule, "MH Single(r)");
        assert_eq!(report.sweeps, sweeps);
        let stats = report.kernel("MH Single(r)").expect("kernel present");
        assert_eq!(stats.proposals, sweeps, "{exec:?}");
        assert_eq!(stats.accepts, oracle_accepts, "{exec:?}: report vs oracle recount");
        // sanity: a tuned random walk accepts some but not all proposals
        assert!(oracle_accepts > 0 && oracle_accepts < sweeps, "{exec:?}");
        assert_eq!(
            report.acceptance_rate("MH Single(r)"),
            Some(oracle_accepts as f64 / sweeps as f64)
        );
        assert_eq!(s.acceptance_rate(0), stats.acceptance_rate());
    }
}

/// Timers populate the per-kernel wall-time breakdown; disabling them
/// zeroes it without touching the deterministic counters.
#[test]
fn timers_are_optional_and_do_not_affect_the_digest() {
    let run = |timers: bool| {
        let mut s = gamma_poisson_sampler(SessionConfig { timers, ..Default::default() });
        for _ in 0..50 {
            s.sweep();
        }
        s.report()
    };
    let timed = run(true);
    let untimed = run(false);
    assert!(timed.exec.total_wall_secs > 0.0);
    assert_eq!(untimed.exec.total_wall_secs, 0.0);
    assert_eq!(timed.digest(), untimed.digest());
    // the rendered report carries the schedule and the counters
    let shown = format!("{timed}");
    assert!(shown.contains("MH Single(r)"));
    assert!(shown.contains("proposals"));
}

/// The JSONL sink streams one record per sweep whose per-kernel deltas
/// sum to the final report's cumulative counters.
#[test]
fn trace_sink_streams_per_sweep_deltas() {
    let path = std::env::temp_dir().join(format!(
        "augur_trace_test_{}_{:?}.jsonl",
        std::process::id(),
        std::thread::current().id()
    ));
    let sweeps = 60u64;
    let report = {
        let mut s = gamma_poisson_sampler(SessionConfig {
            trace_path: Some(path.clone()),
            ..Default::default()
        });
        assert_eq!(s.trace_path(), Some(path.as_path()));
        for _ in 0..sweeps {
            s.sweep();
        }
        s.report()
    };
    let text = std::fs::read_to_string(&path).expect("trace file written");
    std::fs::remove_file(&path).ok();
    let lines: Vec<&str> = text.lines().collect();
    // The first record describes the plan the session bound (v2 schema);
    // after it, one record per sweep.
    assert_eq!(lines.len() as u64, sweeps + 1, "plan record + one record per sweep");
    assert!(
        lines[0].contains("\"plan\":{\"event\":\"cold\"") && lines[0].contains("\"misses\":1"),
        "first trace record announces the plan: {}",
        lines[0]
    );
    let lines = &lines[1..];
    let field = |line: &str, key: &str| -> u64 {
        let at = line.find(&format!("\"{key}\":")).expect("field present");
        line[at + key.len() + 3..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect::<String>()
            .parse()
            .unwrap()
    };
    let mut proposals = 0u64;
    let mut accepts = 0u64;
    for (i, line) in lines.iter().enumerate() {
        assert_eq!(field(line, "sweep"), i as u64 + 1);
        assert!(line.contains("\"kernel\":\"MH Single(r)\""), "label in every record");
        let p = field(line, "proposals");
        assert_eq!(p, 1, "one proposal per sweep per kernel");
        proposals += p;
        accepts += field(line, "accepts");
    }
    let stats = report.kernel("MH Single(r)").unwrap();
    assert_eq!(proposals, stats.proposals);
    assert_eq!(accepts, stats.accepts);
}

/// HMC reports leapfrog counts; a well-conditioned posterior produces no
/// divergences while integrating the configured trajectory length.
#[test]
fn hmc_report_counts_leapfrogs() {
    let model = Model::with_schedule(
        "(N, tau2, s2) => {
            param m ~ Normal(0.0, tau2) ;
            data y[n] ~ Normal(m, s2) for n <- 0 until N ;
        }",
        "HMC m",
    )
    .unwrap();
    let mut s = model
        .plan(
            vec![HostValue::Int(5), HostValue::Real(4.0), HostValue::Real(1.0)],
            vec![("y", HostValue::VecF(vec![1.2, 0.8, 1.0, 1.4, 0.6]))],
        )
        .unwrap()
        .session(SessionConfig {
            mcmc: McmcConfig { step_size: 0.15, leapfrog_steps: 12, ..Default::default() },
            ..Default::default()
        })
        .unwrap();
    s.init().unwrap();
    for _ in 0..100 {
        s.sweep();
    }
    let report = s.report();
    let stats = report.kernel("HMC Single(m)").unwrap();
    assert_eq!(stats.divergences, 0);
    assert_eq!(stats.leapfrogs, 100 * 12, "full trajectories, no early aborts");
}

/// `Chains::report()` folds per-parameter ESS and split-R̂ over every
/// recorded component.
#[test]
fn chains_report_covers_recorded_components() {
    let model = Model::compile(
        "(N, tau2, s2) => {
            param m ~ Normal(0.0, tau2) ;
            data y[n] ~ Normal(m, s2) for n <- 0 until N ;
        }",
    )
    .unwrap();
    let plan = model
        .plan(
            vec![HostValue::Int(5), HostValue::Real(4.0), HostValue::Real(1.0)],
            vec![("y", HostValue::VecF(vec![1.2, 0.8, 1.0, 1.4, 0.6]))],
        )
        .unwrap();
    let chains = ChainPlan::new(&plan).chains(4).sweeps(500).record(&["m"]).run().unwrap();
    let report = chains.report().unwrap();
    assert_eq!(report.params.len(), 1);
    let m = report.param("m", 0).unwrap();
    assert!(m.ess > 100.0, "conjugate Gibbs mixes well: ess {}", m.ess);
    assert!((m.split_rhat - 1.0).abs() < 0.1, "split-R̂ {}", m.split_rhat);
    assert_eq!(report.max_split_rhat(), Some(m.split_rhat));
    assert!(format!("{report}").contains("m[0]"));
}

/// An empty chain set is a typed error, not a panic.
#[test]
fn empty_chains_report_is_typed_error() {
    let chains = augur::chains::Chains { draws: Vec::new(), profiles: Vec::new() };
    match chains.report() {
        Err(Error::NoChains) => {}
        other => panic!("expected NoChains, got {other:?}"),
    }
    assert!(chains.profile().is_none(), "no chains ⇒ no aggregate profile");
}
