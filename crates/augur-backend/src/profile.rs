//! Compiler explain plans and the deterministic runtime phase profiler.
//!
//! Two complementary observability surfaces:
//!
//! * [`ExplainPlan`] — a compile-time span tree recorded while the
//!   pipeline runs: which §3.3 conditional rewrite fired per kernel unit
//!   (and why fallbacks happened), the Kernel-IL strategy per update, the
//!   Low-- size-inference allocation table with resolved byte bounds, AD
//!   statistics, and the Blk-IL decisions (loop commuting, inlining,
//!   atomic→`sumBlk`), each span carrying wall time and decision counters.
//!   [`ExplainPlan::render`] deliberately omits wall times so its output
//!   is stable enough for golden tests; [`ExplainPlan::render_timed`] adds
//!   them.
//! * [`Profile`] — per-schedule-step and per-tape-op-class work accounting
//!   for a run, gated by `SessionConfig::timers`. Work counters are
//!   charged by the deterministic cost model and merged in chunk order, so
//!   [`Profile::digest`] is byte-identical across execution strategies and
//!   thread counts; wall times and op-class counts ride along outside the
//!   digest contract.

use std::fmt;

use crate::metrics::{json_str, N_OP_CLASSES, OP_CLASS_NAMES};

/// One node of a compile-time explain tree: a named pipeline phase (or
/// decision site) with wall time, ordered `key = value` attributes, and
/// child spans.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Phase or decision-site name (e.g. `density`, `unit Single(z)`).
    pub name: String,
    /// Wall-clock seconds spent in the phase (0 when not timed).
    pub wall_secs: f64,
    /// Ordered attributes — rewrite names, counters, byte bounds.
    pub attrs: Vec<(String, String)>,
    /// Nested phases/decisions, in pipeline order.
    pub children: Vec<Span>,
}

impl Span {
    /// A new span with no time, attributes, or children.
    pub fn new(name: impl Into<String>) -> Span {
        Span { name: name.into(), wall_secs: 0.0, attrs: Vec::new(), children: Vec::new() }
    }

    /// A new span with a recorded wall time.
    pub fn timed(name: impl Into<String>, wall_secs: f64) -> Span {
        Span { wall_secs, ..Span::new(name) }
    }

    /// Appends an attribute (insertion order is preserved in every
    /// rendering).
    pub fn attr(&mut self, key: impl Into<String>, value: impl Into<String>) -> &mut Span {
        self.attrs.push((key.into(), value.into()));
        self
    }

    /// Appends a child span.
    pub fn child(&mut self, span: Span) -> &mut Span {
        self.children.push(span);
        self
    }

    fn render_into(&self, out: &mut String, depth: usize, timed: bool) {
        let pad = "  ".repeat(depth);
        out.push_str(&pad);
        out.push_str(&self.name);
        if timed {
            out.push_str(&format!(" ({:.3}s)", self.wall_secs));
        }
        out.push('\n');
        for (k, v) in &self.attrs {
            out.push_str(&pad);
            out.push_str("  ");
            out.push_str(k);
            out.push_str(" = ");
            out.push_str(v);
            out.push('\n');
        }
        for c in &self.children {
            c.render_into(out, depth + 1, timed);
        }
    }

    fn json_into(&self, out: &mut String) {
        out.push_str("{\"name\":");
        out.push_str(&json_str(&self.name));
        out.push_str(&format!(",\"wall_secs\":{:.6}", self.wall_secs));
        out.push_str(",\"attrs\":[");
        for (i, (k, v)) in self.attrs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('[');
            out.push_str(&json_str(k));
            out.push(',');
            out.push_str(&json_str(v));
            out.push(']');
        }
        out.push_str("],\"children\":[");
        for (i, c) in self.children.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            c.json_into(out);
        }
        out.push_str("]}");
    }
}

/// The compile-time explain plan of one sampler build: a span tree through
/// the whole pipeline (frontend → Density IL → Kernel IL → lowering →
/// codegen/Blk), recorded as the build runs. Obtained from
/// `Session::explain()`.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainPlan {
    /// The root span (`explain`), whose children are the pipeline phases.
    pub root: Span,
}

impl ExplainPlan {
    /// Stable pretty-printed tree **without wall times** — safe for golden
    /// tests: the output depends only on the model, schedule, and bound
    /// data sizes.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.root.render_into(&mut out, 0, false);
        out
    }

    /// Pretty-printed tree with per-span wall times appended (not stable
    /// across runs).
    pub fn render_timed(&self) -> String {
        let mut out = String::new();
        self.root.render_into(&mut out, 0, true);
        out
    }

    /// The plan as a single JSON object (`name`/`wall_secs`/`attrs`/
    /// `children`, attributes as ordered `[key, value]` pairs).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.root.json_into(&mut out);
        out
    }
}

impl fmt::Display for ExplainPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Deterministic work (and wall time) attributed to one schedule step
/// across a run.
#[derive(Debug, Clone, PartialEq)]
pub struct StepProfile {
    /// The step's stable label (as in `RunReport`), e.g. `Gibbs Single(z)`.
    pub label: String,
    /// Deterministic work units charged while this step ran (cost-model
    /// work, identical across strategies and thread counts).
    pub work: u64,
    /// Wall-clock seconds spent in this step (not deterministic; outside
    /// the digest contract).
    pub wall_secs: f64,
}

/// Peak-memory watermark: what size inference bounded up front versus what
/// the compiled procedures can actually touch. Both are computed
/// statically, so they are identical across strategies and thread counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemWatermark {
    /// Bytes allocated up front by size inference (§5.2): every model
    /// buffer and planned temporary.
    pub bound_bytes: u64,
    /// Bytes of buffers statically referenced by at least one compiled
    /// procedure — the reachable subset of the bound.
    pub touched_bytes: u64,
}

/// The runtime phase profile of one sampler (or an aggregate over chains):
/// per-schedule-step work/wall accounting, per-tape-op-class instruction
/// counts, and the memory watermark. Obtained from `Session::profile()`;
/// populated only while `SessionConfig::timers` is on.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// The schedule, as `(*)`-joined step labels.
    pub schedule: String,
    /// Sweeps profiled.
    pub sweeps: u64,
    /// Total deterministic work units charged across the run.
    pub work: u64,
    /// Per-schedule-step accounting, in sweep order.
    pub steps: Vec<StepProfile>,
    /// Tape instructions retired per op class (see
    /// [`OP_CLASS_NAMES`]). Strategy-dependent — the tree walker retires
    /// no tape instructions — so **excluded from [`Profile::digest`]**.
    pub op_class: [u64; N_OP_CLASSES],
    /// Static memory watermark.
    pub mem: MemWatermark,
    /// Worker threads the run was configured with.
    pub threads: usize,
    /// Execution strategy (`Tape` or `Tree`).
    pub strategy: String,
}

impl Profile {
    /// The deterministic digest of the work-counter portion of the
    /// profile: schedule, sweeps, total work, and per-step work. Two runs
    /// of the same model/seed/sweeps produce byte-identical digests at any
    /// thread count and under either execution strategy — wall times,
    /// op-class counts, and thread/strategy metadata are deliberately
    /// excluded.
    pub fn digest(&self) -> String {
        let mut out =
            format!("schedule={};sweeps={};work={}", self.schedule, self.sweeps, self.work);
        for s in &self.steps {
            out.push_str(&format!(";{}:work={}", s.label, s.work));
        }
        out
    }

    /// Folded-stack rendering (`flamegraph.pl`-compatible): one
    /// `frame;frame count` line per schedule step (weighted by work) and
    /// per retired op class. Spaces inside labels become `_`, `;` becomes
    /// `,`.
    pub fn folded(&self) -> String {
        let frame = |s: &str| s.replace(';', ",").replace(' ', "_");
        let mut out = String::new();
        for s in &self.steps {
            out.push_str(&format!("augur;sweep;{} {}\n", frame(&s.label), s.work));
        }
        for (i, n) in self.op_class.iter().enumerate() {
            if *n > 0 {
                out.push_str(&format!("augur;tape;{} {}\n", OP_CLASS_NAMES[i], n));
            }
        }
        out
    }

    /// The profile as a single JSON object (everything, including the
    /// non-deterministic wall times and metadata).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"schedule\":{},\"sweeps\":{},\"work\":{},\"threads\":{},\"strategy\":{}",
            json_str(&self.schedule),
            self.sweeps,
            self.work,
            self.threads,
            json_str(&self.strategy),
        );
        out.push_str(",\"steps\":[");
        for (i, s) in self.steps.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"label\":{},\"work\":{},\"wall_secs\":{:.6}}}",
                json_str(&s.label),
                s.work,
                s.wall_secs
            ));
        }
        out.push_str("],\"op_class\":{");
        for (i, n) in self.op_class.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{}:{}", json_str(OP_CLASS_NAMES[i]), n));
        }
        out.push_str(&format!(
            "}},\"mem\":{{\"bound_bytes\":{},\"touched_bytes\":{}}}}}",
            self.mem.bound_bytes, self.mem.touched_bytes
        ));
        out
    }

    /// Merges another profile of the **same compiled model** into this one
    /// (multi-chain aggregation): sweeps, work, per-step work/wall, and
    /// op-class counts add; the memory watermark and metadata must agree
    /// and are kept.
    pub fn absorb(&mut self, other: &Profile) {
        self.sweeps += other.sweeps;
        self.work += other.work;
        for (mine, theirs) in self.steps.iter_mut().zip(&other.steps) {
            mine.work += theirs.work;
            mine.wall_secs += theirs.wall_secs;
        }
        for (mine, theirs) in self.op_class.iter_mut().zip(&other.op_class) {
            *mine += theirs;
        }
    }
}

impl fmt::Display for Profile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "profile: {} sweeps, {} work units, {} threads, {}",
            self.sweeps, self.work, self.threads, self.strategy
        )?;
        writeln!(f, "{:<28} {:>14} {:>10}", "step", "work", "wall (s)")?;
        for s in &self.steps {
            writeln!(f, "{:<28} {:>14} {:>10.4}", s.label, s.work, s.wall_secs)?;
        }
        let retired: u64 = self.op_class.iter().sum();
        if retired > 0 {
            write!(f, "tape ops:")?;
            for (i, n) in self.op_class.iter().enumerate() {
                if *n > 0 {
                    write!(f, " {}={}", OP_CLASS_NAMES[i], n)?;
                }
            }
            writeln!(f)?;
        }
        writeln!(
            f,
            "memory: {} bytes bound by size inference, {} bytes statically touched",
            self.mem.bound_bytes, self.mem.touched_bytes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_profile() -> Profile {
        Profile {
            schedule: "Gibbs Single(z) (*) HMC Single(mu)".into(),
            sweeps: 10,
            work: 1500,
            steps: vec![
                StepProfile { label: "Gibbs Single(z)".into(), work: 900, wall_secs: 0.5 },
                StepProfile { label: "HMC Single(mu)".into(), work: 600, wall_secs: 0.25 },
            ],
            op_class: [10, 20, 30, 4, 5, 6],
            mem: MemWatermark { bound_bytes: 800, touched_bytes: 640 },
            threads: 2,
            strategy: "Tape".into(),
        }
    }

    #[test]
    fn digest_covers_work_not_wall_or_ops() {
        let mut p = sample_profile();
        let d = p.digest();
        assert_eq!(
            d,
            "schedule=Gibbs Single(z) (*) HMC Single(mu);sweeps=10;work=1500;\
             Gibbs Single(z):work=900;HMC Single(mu):work=600"
        );
        // wall times, op classes, threads, strategy are outside the digest
        p.steps[0].wall_secs = 99.0;
        p.op_class = [0; N_OP_CLASSES];
        p.threads = 8;
        p.strategy = "Tree".into();
        assert_eq!(p.digest(), d);
    }

    #[test]
    fn folded_stacks_are_flamegraph_shaped() {
        let p = sample_profile();
        let folded = p.folded();
        assert!(folded.contains("augur;sweep;Gibbs_Single(z) 900\n"), "{folded}");
        assert!(folded.contains("augur;tape;dist 30\n"), "{folded}");
        for line in folded.lines() {
            let (stack, count) = line.rsplit_once(' ').expect("frame count");
            assert!(stack.contains(';') && count.parse::<u64>().is_ok(), "{line}");
        }
    }

    #[test]
    fn absorb_sums_counters_elementwise() {
        let mut a = sample_profile();
        let b = sample_profile();
        a.absorb(&b);
        assert_eq!(a.sweeps, 20);
        assert_eq!(a.work, 3000);
        assert_eq!(a.steps[1].work, 1200);
        assert_eq!(a.op_class[2], 60);
        assert_eq!(a.mem.bound_bytes, 800); // static — not additive
    }

    #[test]
    fn explain_render_is_stable_and_untimed() {
        let mut root = Span::new("explain");
        let mut unit = Span::timed("unit Single(z)", 0.123);
        unit.attr("z[n]", "categorical-indexing (mixture rule)");
        let mut density = Span::new("density");
        density.child(unit);
        root.child(density);
        let plan = ExplainPlan { root };
        assert_eq!(
            plan.render(),
            "explain\n  density\n    unit Single(z)\n      z[n] = categorical-indexing (mixture rule)\n"
        );
        assert!(plan.render_timed().contains("unit Single(z) (0.123s)"));
        let json = plan.to_json();
        assert!(json.starts_with("{\"name\":\"explain\""), "{json}");
        assert!(json.contains("[\"z[n]\",\"categorical-indexing (mixture rule)\"]"), "{json}");
    }
}
