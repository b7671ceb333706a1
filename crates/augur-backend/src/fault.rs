//! Deterministic fault injection for exercising the recovery paths.
//!
//! A [`FaultPlan`] describes faults to inject into a run so that every
//! guardrail — non-finite density containment, worker panic isolation,
//! trace-sink drop counting — is exercised deterministically in tests and
//! CI rather than waiting for a real failure in production. Plans are
//! parsed from the `AUGUR_FAULT` environment variable (or set
//! programmatically on `SessionConfig::fault`); the grammar is a
//! `;`-separated list of clauses:
//!
//! ```text
//! nan@proc:NAME            poison procedure NAME's result with NaN, every sweep
//! nan@proc:NAME:sweep=N    ... only on sweep N (1-based)
//! panic@worker:I           panic inside parallel worker chunk I, every sweep
//! panic@worker:I:sweep=N   ... only on sweep N
//! panic@shard:I            kill service shard worker I before each task it pops
//! panic@shard:I:req=N      ... only for tasks belonging to request id N
//! slow@shard:I:ms=M        delay service shard worker I by M ms per task
//! compile@native           force the native backend's compile/dlopen to fail
//! io@trace                 force every JSONL trace write to fail
//! ```
//!
//! Injection is deterministic: the same plan against the same model and
//! seed trips at exactly the same points at any `AUGUR_THREADS` count
//! (NaN injection keys on procedure name + sweep index; worker-panic
//! injection keys on the chunk index of a parallel dispatch; the
//! service-level clauses key on the shard index and request id). The
//! `shard`/`native` clauses are consumed by the serving layer
//! (`augur-serve`) and the session constructor respectively; they are
//! inert inside a sweep.

use std::fmt;

/// One `nan@proc:…` clause: poison the named procedure's scalar result
/// (or, for Gibbs procedures, the resampled target buffer) with NaN.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NanFault {
    /// The compiled procedure to poison (see `Session::proc_names`).
    pub proc_name: String,
    /// Inject only on this 1-based sweep (every sweep when `None`).
    pub sweep: Option<u64>,
}

/// One `panic@worker:…` clause: panic inside the given worker chunk of
/// every parallel dispatch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PanicFault {
    /// The parallel-dispatch chunk index to panic in.
    pub worker: usize,
    /// Inject only on this 1-based sweep (every sweep when `None`).
    pub sweep: Option<u64>,
}

/// One `panic@shard:…` clause: kill the given service shard worker
/// right before it executes a task (optionally only tasks of one
/// request), exercising the supervisor's respawn-and-requeue path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPanicFault {
    /// The shard worker index to kill.
    pub shard: usize,
    /// Inject only for tasks of this request id (every task when `None`).
    pub req: Option<u64>,
}

/// One `slow@shard:…` clause: delay the given service shard worker
/// before every task it executes (deadline/overload drills).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowFault {
    /// The shard worker index to slow down.
    pub shard: usize,
    /// The delay, in milliseconds.
    pub ms: u64,
}

/// A deterministic fault-injection plan (see the module docs for the
/// grammar).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// NaN-density injections.
    pub nan: Vec<NanFault>,
    /// Worker-panic injections.
    pub panics: Vec<PanicFault>,
    /// Service shard-worker kills (`panic@shard:…`).
    pub shard_panics: Vec<ShardPanicFault>,
    /// Service shard-worker delays (`slow@shard:…`).
    pub slow: Vec<SlowFault>,
    /// Force the native backend's compile/dlopen to fail
    /// (`compile@native`), feeding the per-model circuit breaker.
    pub compile_native: bool,
    /// Force JSONL trace writes to fail (`io@trace`).
    pub trace_io: bool,
}

/// A malformed `AUGUR_FAULT` clause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultParseError {
    /// The clause that failed to parse.
    pub clause: String,
    /// What was wrong with it.
    pub reason: String,
}

impl fmt::Display for FaultParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad fault clause `{}`: {}", self.clause, self.reason)
    }
}

impl std::error::Error for FaultParseError {}

impl FaultPlan {
    /// Parses a plan from the `AUGUR_FAULT` grammar.
    ///
    /// # Errors
    ///
    /// Returns a [`FaultParseError`] naming the first malformed clause.
    pub fn parse(s: &str) -> Result<FaultPlan, FaultParseError> {
        let mut plan = FaultPlan::default();
        for clause in s.split(';').map(str::trim).filter(|c| !c.is_empty()) {
            let err = |reason: &str| FaultParseError {
                clause: clause.to_owned(),
                reason: reason.to_owned(),
            };
            let (kind, rest) = clause.split_once('@').ok_or_else(|| err("missing `@`"))?;
            match kind {
                "nan" => {
                    let rest = rest
                        .strip_prefix("proc:")
                        .ok_or_else(|| err("expected `nan@proc:NAME[:sweep=N]`"))?;
                    let (name, sweep) = split_sweep(rest, &err)?;
                    if name.is_empty() {
                        return Err(err("empty procedure name"));
                    }
                    plan.nan.push(NanFault { proc_name: name.to_owned(), sweep });
                }
                "panic" => {
                    if let Some(rest) = rest.strip_prefix("worker:") {
                        let (idx, sweep) = split_sweep(rest, &err)?;
                        let worker =
                            idx.parse().map_err(|_| err("worker index must be an integer"))?;
                        plan.panics.push(PanicFault { worker, sweep });
                    } else if let Some(rest) = rest.strip_prefix("shard:") {
                        let (idx, req) = match rest.split_once(':') {
                            None => (rest, None),
                            Some((idx, tail)) => {
                                let n = tail
                                    .strip_prefix("req=")
                                    .ok_or_else(|| {
                                        err("expected `panic@shard:I[:req=N]` (`:req=N` suffix)")
                                    })?
                                    .parse()
                                    .map_err(|_| err("request id must be an integer"))?;
                                (idx, Some(n))
                            }
                        };
                        let shard = idx
                            .parse()
                            .map_err(|_| err("expected `panic@shard:I[:req=N]` (integer shard)"))?;
                        plan.shard_panics.push(ShardPanicFault { shard, req });
                    } else {
                        return Err(err(
                            "expected `panic@worker:I[:sweep=N]` or `panic@shard:I[:req=N]`",
                        ));
                    }
                }
                "slow" => {
                    let rest = rest
                        .strip_prefix("shard:")
                        .ok_or_else(|| err("expected `slow@shard:I:ms=M`"))?;
                    let (idx, tail) = rest
                        .split_once(':')
                        .ok_or_else(|| err("expected `slow@shard:I:ms=M` (`:ms=M` suffix)"))?;
                    let shard = idx
                        .parse()
                        .map_err(|_| err("expected `slow@shard:I:ms=M` (integer shard)"))?;
                    let ms = tail
                        .strip_prefix("ms=")
                        .ok_or_else(|| err("expected `slow@shard:I:ms=M` (`:ms=M` suffix)"))?
                        .parse()
                        .map_err(|_| err("expected `slow@shard:I:ms=M` (integer ms)"))?;
                    plan.slow.push(SlowFault { shard, ms });
                }
                "compile" => {
                    if rest != "native" {
                        return Err(err("expected `compile@native`"));
                    }
                    plan.compile_native = true;
                }
                "io" => {
                    if rest != "trace" {
                        return Err(err("expected `io@trace`"));
                    }
                    plan.trace_io = true;
                }
                _ => return Err(err("unknown fault kind (nan, panic, slow, compile, io)")),
            }
        }
        Ok(plan)
    }

    /// The plan from the `AUGUR_FAULT` environment variable, if set.
    ///
    /// # Errors
    ///
    /// Returns a [`FaultParseError`] for a set-but-malformed variable.
    pub fn from_env() -> Result<Option<FaultPlan>, FaultParseError> {
        match std::env::var("AUGUR_FAULT") {
            Ok(s) if !s.trim().is_empty() => FaultPlan::parse(&s).map(Some),
            _ => Ok(None),
        }
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.nan.is_empty()
            && self.panics.is_empty()
            && self.shard_panics.is_empty()
            && self.slow.is_empty()
            && !self.compile_native
            && !self.trace_io
    }

    /// Renders the plan back into the `AUGUR_FAULT` grammar. Every plan
    /// round-trips: `FaultPlan::parse(&plan.render()) == Ok(plan)`.
    pub fn render(&self) -> String {
        let mut clauses = Vec::new();
        for f in &self.nan {
            clauses.push(match f.sweep {
                Some(n) => format!("nan@proc:{}:sweep={n}", f.proc_name),
                None => format!("nan@proc:{}", f.proc_name),
            });
        }
        for f in &self.panics {
            clauses.push(match f.sweep {
                Some(n) => format!("panic@worker:{}:sweep={n}", f.worker),
                None => format!("panic@worker:{}", f.worker),
            });
        }
        for f in &self.shard_panics {
            clauses.push(match f.req {
                Some(n) => format!("panic@shard:{}:req={n}", f.shard),
                None => format!("panic@shard:{}", f.shard),
            });
        }
        for f in &self.slow {
            clauses.push(format!("slow@shard:{}:ms={}", f.shard, f.ms));
        }
        if self.compile_native {
            clauses.push("compile@native".to_owned());
        }
        if self.trace_io {
            clauses.push("io@trace".to_owned());
        }
        clauses.join(";")
    }

    /// Whether to poison procedure `name`'s result on sweep `sweep`
    /// (1-based).
    pub fn nan_hits(&self, name: &str, sweep: u64) -> bool {
        self.nan.iter().any(|f| f.proc_name == name && f.sweep.is_none_or(|s| s == sweep))
    }

    /// Whether to panic in worker chunk `worker` on sweep `sweep`
    /// (1-based).
    pub fn panic_hits(&self, worker: usize, sweep: u64) -> bool {
        self.panics.iter().any(|f| f.worker == worker && f.sweep.is_none_or(|s| s == sweep))
    }

    /// Whether to kill service shard worker `shard` before executing a
    /// task of request `req`.
    pub fn shard_panic_hits(&self, shard: usize, req: u64) -> bool {
        self.shard_panics.iter().any(|f| f.shard == shard && f.req.is_none_or(|r| r == req))
    }

    /// The injected per-task delay for service shard worker `shard`, in
    /// milliseconds (`None` when no `slow@shard` clause targets it).
    pub fn shard_slow_ms(&self, shard: usize) -> Option<u64> {
        let total: u64 = self.slow.iter().filter(|f| f.shard == shard).map(|f| f.ms).sum();
        (total > 0).then_some(total)
    }
}

/// Splits `NAME[:sweep=N]` into the name and the optional sweep.
fn split_sweep<'a>(
    rest: &'a str,
    err: &impl Fn(&str) -> FaultParseError,
) -> Result<(&'a str, Option<u64>), FaultParseError> {
    match rest.split_once(':') {
        None => Ok((rest, None)),
        Some((name, tail)) => {
            let n = tail
                .strip_prefix("sweep=")
                .ok_or_else(|| err("expected `:sweep=N` suffix"))?
                .parse()
                .map_err(|_| err("sweep must be an integer"))?;
            Ok((name, Some(n)))
        }
    }
}

/// The distinguishable payload of an injected worker panic (so the driver
/// can label the typed error as injected rather than organic).
pub const INJECTED_PANIC: &str = "fault injection: worker panic";

/// The distinguishable payload of an injected shard-worker kill (the
/// serving layer's supervisor recognizes and reports it as injected).
pub const INJECTED_SHARD_PANIC: &str = "fault injection: shard worker killed";

/// The recorded fallback reason of an injected native compile failure
/// (`compile@native`); it feeds the per-model circuit breaker exactly as
/// an organic toolchain failure would.
pub const INJECTED_NATIVE_FAILURE: &str = "fault injection: native compile failure";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_grammar() {
        let plan = FaultPlan::parse("nan@proc:u0_ll:sweep=7; panic@worker:2; io@trace").unwrap();
        assert_eq!(plan.nan, vec![NanFault { proc_name: "u0_ll".into(), sweep: Some(7) }]);
        assert_eq!(plan.panics, vec![PanicFault { worker: 2, sweep: None }]);
        assert!(plan.trace_io);
        assert!(!plan.is_empty());
    }

    #[test]
    fn hit_predicates_honor_sweep_filters() {
        let plan = FaultPlan::parse("nan@proc:mu:sweep=3;panic@worker:1:sweep=5").unwrap();
        assert!(plan.nan_hits("mu", 3));
        assert!(!plan.nan_hits("mu", 4));
        assert!(!plan.nan_hits("nu", 3));
        assert!(plan.panic_hits(1, 5));
        assert!(!plan.panic_hits(1, 6));
        assert!(!plan.panic_hits(0, 5));
        let every = FaultPlan::parse("nan@proc:mu").unwrap();
        assert!(every.nan_hits("mu", 1) && every.nan_hits("mu", 99));
    }

    #[test]
    fn parses_service_level_clauses() {
        let plan = FaultPlan::parse(
            "panic@shard:1; panic@shard:0:req=7; slow@shard:2:ms=50; compile@native",
        )
        .unwrap();
        assert_eq!(
            plan.shard_panics,
            vec![
                ShardPanicFault { shard: 1, req: None },
                ShardPanicFault { shard: 0, req: Some(7) },
            ]
        );
        assert_eq!(plan.slow, vec![SlowFault { shard: 2, ms: 50 }]);
        assert!(plan.compile_native);
        assert!(!plan.is_empty());
        assert!(plan.shard_panic_hits(1, 99));
        assert!(plan.shard_panic_hits(0, 7));
        assert!(!plan.shard_panic_hits(0, 8));
        assert_eq!(plan.shard_slow_ms(2), Some(50));
        assert_eq!(plan.shard_slow_ms(0), None);
    }

    #[test]
    fn rejects_malformed_clauses() {
        for bad in [
            "nan",
            "nan@procmu",
            "nan@proc:",
            "nan@proc:mu:sweep=x",
            "nan@proc:mu:after=3",
            "panic@worker:abc",
            "io@disk",
            "boom@proc:mu",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "`{bad}` should be rejected");
        }
    }

    /// Malformed service-level clauses name the expected form in their
    /// reason, so an operator can correct the `AUGUR_FAULT` value from
    /// the error alone.
    #[test]
    fn malformed_service_clauses_name_the_expected_form() {
        for (bad, expect) in [
            ("panic@shard:", "panic@shard:I[:req=N]"),
            ("panic@shard:x", "panic@shard:I[:req=N]"),
            ("panic@shard:0:sweep=3", "panic@shard:I[:req=N]"),
            ("panic@shard:0:req=x", "integer"),
            ("panic@elsewhere:0", "panic@worker:I[:sweep=N]` or `panic@shard:I[:req=N]"),
            ("slow@shard:0", "slow@shard:I:ms=M"),
            ("slow@shard:0:ms=x", "slow@shard:I:ms=M"),
            ("slow@shard:0:secs=1", "slow@shard:I:ms=M"),
            ("slow@worker:0:ms=1", "slow@shard:I:ms=M"),
            ("compile@tape", "compile@native"),
            ("throttle@shard:0", "unknown fault kind"),
        ] {
            let err = FaultPlan::parse(bad).expect_err(&format!("`{bad}` should be rejected"));
            assert_eq!(err.clause, bad);
            assert!(
                err.reason.contains(expect),
                "`{bad}`: reason `{}` should name `{expect}`",
                err.reason
            );
        }
    }

    /// Every valid clause survives a render → parse round trip.
    #[test]
    fn every_clause_round_trips() {
        for spec in [
            "nan@proc:mu",
            "nan@proc:mu:sweep=3",
            "panic@worker:2",
            "panic@worker:2:sweep=5",
            "panic@shard:0",
            "panic@shard:1:req=9",
            "slow@shard:0:ms=25",
            "compile@native",
            "io@trace",
            "nan@proc:u0_ll:sweep=7;panic@worker:1;panic@shard:0:req=2;slow@shard:1:ms=5;compile@native;io@trace",
        ] {
            let plan = FaultPlan::parse(spec).unwrap();
            let rendered = plan.render();
            assert_eq!(
                FaultPlan::parse(&rendered).unwrap(),
                plan,
                "`{spec}` did not round-trip (rendered `{rendered}`)"
            );
        }
        assert_eq!(FaultPlan::default().render(), "");
    }

    #[test]
    fn empty_plan_is_empty() {
        assert!(FaultPlan::parse("").unwrap().is_empty());
        assert!(FaultPlan::parse(" ; ").unwrap().is_empty());
    }
}
