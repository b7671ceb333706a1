//! Kernel-level observability: deterministic per-update counters, run
//! reports, and the opt-in JSONL trace sink.
//!
//! Every base update of the compiled sweep is instrumented: the driver
//! records proposals, accepts, HMC/NUTS leapfrog steps and divergences,
//! and slice-sampler reflection/shrink counts into one [`KernelStats`]
//! per schedule step, keyed by the step's Kernel-IL label (e.g.
//! `HMC Single(mu)`). The engine additionally counts procedure calls,
//! retired tape instructions, and parallel dispatches
//! ([`EngineMetrics`]).
//!
//! **Determinism contract.** Everything [`RunReport::digest`] covers —
//! the schedule string, sweep count, per-kernel counters, and the work
//! counter — is *bit-identical* at any `AUGUR_THREADS` count and under
//! either execution strategy, because the counters derive from the same
//! deterministic RNG draws as the traces themselves, and worker-side
//! counters merge in chunk order (see `DESIGN.md` § Deterministic
//! metrics). Wall-clock fields and the execution-shape counters
//! ([`ExecReport`]) are observability only and are deliberately excluded
//! from the digest.

use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};

/// What a single base update reported back to the driver.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdateOutcome {
    /// Whether the update moved the state (Gibbs and successful slice
    /// updates always do).
    pub accepted: bool,
    /// Leapfrog integration steps taken (HMC/NUTS).
    pub leapfrogs: u64,
    /// Divergent trajectories detected (HMC non-finite energy, NUTS
    /// divergence-guard trips).
    pub divergences: u64,
    /// Gradient reflections off the slice boundary (reflective slice).
    pub slice_reflections: u64,
    /// Bracket shrink steps (elliptical slice).
    pub slice_shrinks: u64,
    /// Non-finite log-densities or positions detected and contained by
    /// the numerical guardrails: each event forced a rejection (restoring
    /// the §5.5 state copy) instead of poisoning the chain.
    pub numerical_events: u64,
}

impl UpdateOutcome {
    /// An unconditionally accepted move with no inner-loop counters
    /// (Gibbs).
    pub fn accepted() -> UpdateOutcome {
        UpdateOutcome { accepted: true, ..UpdateOutcome::default() }
    }
}

/// Cumulative statistics for one kernel unit of the schedule.
///
/// All integer fields are deterministic (identical at any thread count
/// and under either execution strategy); `wall_secs` is wall-clock
/// observability only and is excluded from [`RunReport::digest`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KernelStats {
    /// Update invocations (one per sweep).
    pub proposals: u64,
    /// Accepted moves.
    pub accepts: u64,
    /// Leapfrog integration steps (HMC/NUTS).
    pub leapfrogs: u64,
    /// Divergent trajectories.
    pub divergences: u64,
    /// Reflective-slice boundary reflections.
    pub slice_reflections: u64,
    /// Elliptical-slice bracket shrinks.
    pub slice_shrinks: u64,
    /// Non-finite values detected and contained by the numerical
    /// guardrails (the step was rejected instead of poisoning the chain).
    pub numerical_events: u64,
    /// Cumulative wall time spent in this update, in seconds. Zero when
    /// the sampler was built with `SessionConfig::timers = false`.
    pub wall_secs: f64,
}

impl KernelStats {
    /// Folds one update outcome into the cumulative counters.
    pub fn record(&mut self, o: UpdateOutcome) {
        self.proposals += 1;
        self.accepts += u64::from(o.accepted);
        self.leapfrogs += o.leapfrogs;
        self.divergences += o.divergences;
        self.slice_reflections += o.slice_reflections;
        self.slice_shrinks += o.slice_shrinks;
        self.numerical_events += o.numerical_events;
    }

    /// Accepted / proposed (NaN before the first sweep).
    pub fn acceptance_rate(&self) -> f64 {
        if self.proposals == 0 {
            f64::NAN
        } else {
            self.accepts as f64 / self.proposals as f64
        }
    }

    /// The deterministic counters, in a fixed order (excludes wall
    /// time).
    pub fn counters(&self) -> [u64; 7] {
        [
            self.proposals,
            self.accepts,
            self.leapfrogs,
            self.divergences,
            self.slice_reflections,
            self.slice_shrinks,
            self.numerical_events,
        ]
    }

    /// The per-sweep delta against an earlier snapshot of the same
    /// kernel (used by the trace sink).
    pub fn delta(&self, earlier: &KernelStats) -> KernelStats {
        KernelStats {
            proposals: self.proposals - earlier.proposals,
            accepts: self.accepts - earlier.accepts,
            leapfrogs: self.leapfrogs - earlier.leapfrogs,
            divergences: self.divergences - earlier.divergences,
            slice_reflections: self.slice_reflections - earlier.slice_reflections,
            slice_shrinks: self.slice_shrinks - earlier.slice_shrinks,
            numerical_events: self.numerical_events - earlier.numerical_events,
            wall_secs: self.wall_secs - earlier.wall_secs,
        }
    }
}

/// Number of tape-instruction classes tracked by the phase profiler.
pub const N_OP_CLASSES: usize = 6;

/// Stable names of the tape-instruction classes, aligned with
/// [`EngineMetrics::op_class`] indices.
pub const OP_CLASS_NAMES: [&str; N_OP_CLASSES] =
    ["load", "arith", "dist", "sample", "store", "control"];

/// Engine-level execution counters.
///
/// `proc_calls` and `instrs_retired` are deterministic for a fixed
/// strategy; the dispatch counters describe the *shape* of execution
/// (how work was fanned out) and therefore vary with the thread count —
/// they live in [`ExecReport`], outside the determinism contract.
/// Worker-side counters are merged into the parent engine in chunk
/// order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineMetrics {
    /// Compiled-procedure invocations.
    pub proc_calls: u64,
    /// Tape instructions retired (0 under the tree-walking strategy).
    pub instrs_retired: u64,
    /// Parallel regions fanned out to the worker pool.
    pub par_dispatches: u64,
    /// Worker chunks executed across all dispatches.
    pub par_chunks: u64,
    /// Statistic-loop iterations a scatter plan ran instead of the body's
    /// instructions (see `TInstr::LoopStart`).
    pub scatter_iters: u64,
    /// Retired tape instructions by class ([`OP_CLASS_NAMES`] order),
    /// populated only when the sampler was built with timers on. Zero
    /// under the tree-walker, so — like `instrs_retired` — these are
    /// strategy-dependent and stay outside the digest contract.
    pub op_class: [u64; N_OP_CLASSES],
}

impl EngineMetrics {
    /// Adds a worker engine's counters into this one (called from the
    /// chunk-ordered merge, next to the copy-back of the chunk's rows).
    pub fn absorb(&mut self, worker: EngineMetrics) {
        self.proc_calls += worker.proc_calls;
        self.instrs_retired += worker.instrs_retired;
        self.par_dispatches += worker.par_dispatches;
        self.par_chunks += worker.par_chunks;
        self.scatter_iters += worker.scatter_iters;
        for (a, b) in self.op_class.iter_mut().zip(worker.op_class) {
            *a += b;
        }
    }
}

/// One schedule step's label and cumulative statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelReport {
    /// The step in Kernel-IL notation, e.g. `Gibbs Single(z)` or
    /// `HMC Block(sigma2, b, theta)`.
    pub kernel: String,
    /// Its cumulative counters.
    pub stats: KernelStats,
}

/// Execution-shape counters: how the run was executed, not what it
/// computed. These vary with the thread count and strategy and are
/// excluded from [`RunReport::digest`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecReport {
    /// Configured worker-thread count.
    pub threads: usize,
    /// Compiled-procedure invocations.
    pub proc_calls: u64,
    /// Tape instructions retired (0 under the tree-walker).
    pub instrs_retired: u64,
    /// Parallel regions fanned out to the worker pool.
    pub par_dispatches: u64,
    /// Worker chunks executed.
    pub par_chunks: u64,
    /// Statistic-loop iterations run by their scatter plans.
    pub scatter_iters: u64,
    /// Total wall time across all instrumented updates, in seconds.
    pub total_wall_secs: f64,
}

/// A structured account of everything a sampler did: per-kernel
/// acceptance and inner-loop counters keyed by the Kernel-IL schedule
/// string, the sweep count, the deterministic work counter, and
/// execution-shape statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// The full schedule in Kernel-IL notation
    /// (`Gibbs Single(pi) (*) HMC Single(mu) (*) …`).
    pub schedule: String,
    /// Sweeps executed so far.
    pub sweeps: u64,
    /// Per-step reports, in schedule order.
    pub kernels: Vec<KernelReport>,
    /// Abstract work units retired (deterministic at any thread count).
    pub work: u64,
    /// JSONL trace records that could not be written (sink I/O failures).
    /// Trace writes are best-effort, so drops never poison the chain —
    /// but they are counted and surfaced here. Environment-dependent,
    /// hence excluded from [`RunReport::digest`].
    pub trace_records_dropped: u64,
    /// Execution-shape counters (thread-count dependent; excluded from
    /// the digest).
    pub exec: ExecReport,
}

impl RunReport {
    /// The stats of the step labeled `kernel`, if present.
    pub fn kernel(&self, kernel: &str) -> Option<&KernelStats> {
        self.kernels.iter().find(|k| k.kernel == kernel).map(|k| &k.stats)
    }

    /// Acceptance rate of the step labeled `kernel` (NaN before the
    /// first sweep; `None` for unknown labels).
    pub fn acceptance_rate(&self, kernel: &str) -> Option<f64> {
        self.kernel(kernel).map(KernelStats::acceptance_rate)
    }

    /// A canonical rendering of every deterministic field — the
    /// schedule, sweep count, per-kernel counters, and work counter.
    /// Two runs of the same model and seed produce byte-identical
    /// digests at any `AUGUR_THREADS` count and under either execution
    /// strategy; wall time and dispatch shape are excluded.
    pub fn digest(&self) -> String {
        let mut out =
            format!("schedule={};sweeps={};work={}", self.schedule, self.sweeps, self.work);
        for k in &self.kernels {
            let [p, a, lf, dv, refl, shr, nev] = k.stats.counters();
            out.push_str(&format!(
                ";{}:p={p},a={a},lf={lf},div={dv},refl={refl},shr={shr},nev={nev}",
                k.kernel
            ));
        }
        out
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "schedule: {}", self.schedule)?;
        writeln!(
            f,
            "sweeps: {}   work: {}   threads: {}   wall: {:.3}s",
            self.sweeps, self.work, self.exec.threads, self.exec.total_wall_secs
        )?;
        writeln!(
            f,
            "{:<34} {:>9} {:>8} {:>6} {:>8} {:>5} {:>6} {:>7} {:>5} {:>9}",
            "kernel",
            "proposals",
            "accepts",
            "rate",
            "leapfrog",
            "div",
            "refl",
            "shrink",
            "nev",
            "wall(s)"
        )?;
        for k in &self.kernels {
            let s = &k.stats;
            writeln!(
                f,
                "{:<34} {:>9} {:>8} {:>6.3} {:>8} {:>5} {:>6} {:>7} {:>5} {:>9.4}",
                k.kernel,
                s.proposals,
                s.accepts,
                s.acceptance_rate(),
                s.leapfrogs,
                s.divergences,
                s.slice_reflections,
                s.slice_shrinks,
                s.numerical_events,
                s.wall_secs
            )?;
        }
        write!(
            f,
            "exec: {} proc calls, {} tape instrs, {} dispatches / {} chunks",
            self.exec.proc_calls,
            self.exec.instrs_retired,
            self.exec.par_dispatches,
            self.exec.par_chunks
        )
    }
}

/// The opt-in JSONL event sink: one line per sweep (schema v2), with
/// per-kernel *delta* counters, streamed to the path given by
/// `SessionConfig::trace_path` (or the `AUGUR_TRACE` environment
/// variable). Other layers format their own records and stream them
/// through [`TraceSink::write_line`] (the serving layer's v4 request
/// records). Writes are buffered and flushed every
/// [`TraceSink::FLUSH_EVERY`] records and on drop — dashboards tailing
/// the file see records at that granularity, and the sampler never pays
/// a syscall per sweep. See `DESIGN.md` § JSONL trace schema.
#[derive(Debug)]
pub struct TraceSink {
    path: PathBuf,
    out: BufWriter<File>,
    dropped: u64,
    /// Records written into the buffer since the last successful flush;
    /// counted into `dropped` if a flush fails (a short flush truncates
    /// everything still buffered).
    unflushed: u64,
    fail_writes: bool,
}

impl TraceSink {
    /// Buffered records are flushed to disk after this many records.
    pub const FLUSH_EVERY: u64 = 64;

    /// Creates (truncating) the sink file.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error message.
    pub fn create(path: &Path) -> Result<TraceSink, String> {
        let file = File::create(path)
            .map_err(|e| format!("cannot create trace file `{}`: {e}", path.display()))?;
        Ok(TraceSink {
            path: path.to_path_buf(),
            out: BufWriter::new(file),
            dropped: 0,
            unflushed: 0,
            fail_writes: false,
        })
    }

    /// The sink's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records that could not be written because the underlying I/O
    /// failed. Writes are best-effort — a full disk must not poison the
    /// chain — but drops are counted and surfaced as
    /// `RunReport::trace_records_dropped`.
    pub fn records_dropped(&self) -> u64 {
        self.dropped
    }

    /// Forces every subsequent write to fail (the `io@trace` fault
    /// injection), exercising the drop-counting path without an actual
    /// full disk.
    pub fn set_fail_writes(&mut self, fail: bool) {
        self.fail_writes = fail;
    }

    /// Streams one sweep record (schema v2, marked `"v":2`). `deltas`
    /// are this sweep's per-kernel counter increments, aligned with
    /// `labels`; when the phase profiler is on, `work_deltas` carries
    /// each step's deterministic work increment and is merged into the
    /// per-kernel objects. Drops are counted as in
    /// [`TraceSink::write_line`].
    pub fn write_sweep(
        &mut self,
        sweep: u64,
        labels: &[String],
        deltas: &[KernelStats],
        wall_secs: f64,
        work_deltas: Option<&[u64]>,
    ) {
        let mut line =
            format!("{{\"v\":2,\"sweep\":{sweep},\"wall_secs\":{wall_secs:e},\"kernels\":[");
        for (i, (label, d)) in labels.iter().zip(deltas).enumerate() {
            if i > 0 {
                line.push(',');
            }
            let [p, a, lf, dv, refl, shr, nev] = d.counters();
            line.push_str(&format!(
                "{{\"kernel\":{},\"proposals\":{p},\"accepts\":{a},\"leapfrogs\":{lf},\
                 \"divergences\":{dv},\"slice_reflections\":{refl},\"slice_shrinks\":{shr},\
                 \"numerical_events\":{nev},\"wall_secs\":{:e}",
                json_str(label),
                d.wall_secs
            ));
            if let Some(w) = work_deltas.and_then(|ws| ws.get(i)) {
                line.push_str(&format!(",\"work\":{w}"));
            }
            line.push('}');
        }
        line.push_str("]}\n");
        self.write_line(&line);
    }

    /// Streams the session's plan-provenance record (schema v2): what
    /// the plan cache did for the plan this session binds to (`cold`,
    /// `hit`, or `respecialize`), the canonical shape fingerprint, and
    /// the cache counters at bind time. Written once, before the first
    /// sweep record, when the session is created.
    pub fn write_plan(
        &mut self,
        event: &str,
        fingerprint: u64,
        stats: &crate::plan::PlanCacheStats,
    ) {
        let line = format!(
            "{{\"v\":2,\"plan\":{{\"event\":{},\"fingerprint\":\"{fingerprint:016x}\",\
             \"hits\":{},\"misses\":{},\"respecializes\":{},\"entries\":{}}}}}\n",
            json_str(event),
            stats.hits,
            stats.misses,
            stats.respecializes,
            stats.entries,
        );
        self.write_line(&line);
    }

    /// Streams one complete record (`line` ends in a newline). Trace I/O
    /// is best-effort observability: a full disk must not poison the
    /// chain itself, but silent loss is not acceptable either, so a
    /// failed buffered write drops the record and bumps
    /// [`TraceSink::records_dropped`]. Every
    /// [`TraceSink::FLUSH_EVERY`] records the buffer is flushed.
    pub fn write_line(&mut self, line: &str) {
        if self.fail_writes || self.out.write_all(line.as_bytes()).is_err() {
            self.dropped += 1;
            return;
        }
        self.unflushed += 1;
        if self.unflushed >= Self::FLUSH_EVERY {
            self.flush();
        }
    }

    /// Flushes buffered records to disk. On failure every record still
    /// buffered is counted as dropped — truncation is never silent.
    pub fn flush(&mut self) {
        if self.out.flush().is_err() {
            self.dropped += self.unflushed;
        }
        self.unflushed = 0;
    }
}

impl Drop for TraceSink {
    fn drop(&mut self) {
        self.flush();
    }
}

/// A JSON string literal for `s`: quotes, backslashes and control
/// characters escaped.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_rate() {
        let mut s = KernelStats::default();
        assert!(s.acceptance_rate().is_nan());
        s.record(UpdateOutcome::accepted());
        s.record(UpdateOutcome {
            accepted: false,
            leapfrogs: 8,
            divergences: 1,
            ..Default::default()
        });
        assert_eq!(s.proposals, 2);
        assert_eq!(s.accepts, 1);
        assert_eq!(s.leapfrogs, 8);
        assert_eq!(s.divergences, 1);
        assert!((s.acceptance_rate() - 0.5).abs() < 1e-15);
    }

    #[test]
    fn digest_excludes_wall_time() {
        let mk = |wall: f64, chunks: u64| RunReport {
            schedule: "Gibbs Single(z)".into(),
            sweeps: 3,
            kernels: vec![KernelReport {
                kernel: "Gibbs Single(z)".into(),
                stats: KernelStats {
                    proposals: 3,
                    accepts: 3,
                    wall_secs: wall,
                    ..Default::default()
                },
            }],
            work: 42,
            trace_records_dropped: chunks, // env-dependent, digest-excluded
            exec: ExecReport {
                threads: 1,
                proc_calls: 3,
                instrs_retired: 10,
                par_dispatches: 0,
                par_chunks: chunks,
                scatter_iters: 0,
                total_wall_secs: wall,
            },
        };
        assert_eq!(mk(0.25, 0).digest(), mk(99.0, 8).digest());
    }

    #[test]
    fn trace_sink_buffers_and_flushes_explicitly() {
        let path = std::env::temp_dir().join(format!(
            "augur_sink_buffer_test_{}_{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ));
        let mut sink = TraceSink::create(&path).unwrap();
        let labels = vec!["k".to_owned()];
        let deltas = vec![KernelStats::default()];
        for s in 1..=4 {
            sink.write_sweep(s, &labels, &deltas, 0.0, Some(&[7]));
        }
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "",
            "records stay buffered until a flush"
        );
        sink.flush();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 4);
        assert!(text.starts_with("{\"v\":2,"), "schema v2 marker");
        assert!(text.contains("\"work\":7"), "work deltas merged per kernel");
        assert_eq!(sink.records_dropped(), 0);
        drop(sink);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_str("plain"), "\"plain\"");
    }
}
