//! The §5.4 parallelization optimizer.

use augur_dist::DistKind;
use augur_low::il::{AssignOp, Expr, LoopKind, Stmt};

use crate::il::{Blk, BlkProc};

/// Resolves symbolic sizes at optimization time. AugurV2 compiles at
/// runtime, "so the symbolic values can be resolved" (§5.4) — the backend
/// implements this against the bound model arguments.
pub trait SizeOracle {
    /// The trip count of `lo until hi`, if resolvable (comprehension
    /// variables are taken at their lower bound for ragged bounds).
    fn extent(&self, lo: &Expr, hi: &Expr) -> Option<i64>;
    /// The length of a vector-valued expression, if resolvable.
    fn vec_len(&self, e: &Expr) -> Option<i64>;
}

/// Optimization toggles and thresholds (the ablation benches flip these).
#[derive(Debug, Clone)]
pub struct OptFlags {
    /// Enable loop commuting.
    pub commute: bool,
    /// Enable primitive inlining.
    pub inline: bool,
    /// Enable summation-block conversion.
    pub sum_blk: bool,
    /// Commute when `inner ≥ ratio × outer`.
    pub commute_ratio: i64,
    /// Convert to `sumBlk` when the contention ratio (threads per distinct
    /// atomic location) is at least this.
    pub contention_ratio: i64,
    /// Device lane count: inlining is kept only when the outer extent
    /// alone underutilizes the device (the paper's "inline only if it
    /// helps" heuristic).
    pub device_lanes: i64,
}

impl Default for OptFlags {
    fn default() -> Self {
        OptFlags {
            commute: true,
            inline: true,
            sum_blk: true,
            commute_ratio: 4,
            contention_ratio: 32,
            device_lanes: 2880,
        }
    }
}

/// What the optimizer did — surfaced in benches and compiler logs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OptReport {
    /// Loops commuted.
    pub commuted: usize,
    /// Primitive operations inlined.
    pub inlined: usize,
    /// `AtmPar` blocks converted to summation blocks.
    pub converted_to_sum: usize,
}

impl OptReport {
    /// True when the optimizer left the program untouched.
    pub fn is_noop(&self) -> bool {
        self.commuted == 0 && self.inlined == 0 && self.converted_to_sum == 0
    }

    /// Stable one-line summary for explain plans and compiler logs.
    pub fn describe(&self) -> String {
        format!(
            "commuted={} inlined={} sum_blk={}",
            self.commuted, self.inlined, self.converted_to_sum
        )
    }
}

impl std::ops::AddAssign for OptReport {
    fn add_assign(&mut self, rhs: OptReport) {
        self.commuted += rhs.commuted;
        self.inlined += rhs.inlined;
        self.converted_to_sum += rhs.converted_to_sum;
    }
}

/// Optimizes a block program in place, returning a report.
pub fn optimize(proc_: &mut BlkProc, oracle: &dyn SizeOracle, flags: &OptFlags) -> OptReport {
    let mut report = OptReport::default();
    let blocks = std::mem::take(&mut proc_.blocks);
    proc_.blocks = optimize_blocks(blocks, oracle, flags, &mut report);
    report
}

fn optimize_blocks(
    blocks: Vec<Blk>,
    oracle: &dyn SizeOracle,
    flags: &OptFlags,
    report: &mut OptReport,
) -> Vec<Blk> {
    let mut out = Vec::new();
    for b in blocks {
        match b {
            Blk::ParBlk { kind, var, lo, hi, body, inner_par } => {
                let blk = Blk::ParBlk { kind, var, lo, hi, body, inner_par };
                out.extend(optimize_parblk(blk, oracle, flags, report));
            }
            Blk::LoopBlk { var, lo, hi, body } => out.push(Blk::LoopBlk {
                var,
                lo,
                hi,
                body: optimize_blocks(body, oracle, flags, report),
            }),
            other => out.push(other),
        }
    }
    out
}

fn optimize_parblk(
    blk: Blk,
    oracle: &dyn SizeOracle,
    flags: &OptFlags,
    report: &mut OptReport,
) -> Vec<Blk> {
    let Blk::ParBlk { kind, var, lo, hi, body, inner_par } = blk else {
        unreachable!("optimize_parblk called with a non-parBlk")
    };

    // 1. Summation-block conversion: `loop AtmPar { acc += e; … }` where
    //    every statement increments a location *fixed across threads* and
    //    the contention ratio is high (§5.4's estimate: threads divided by
    //    distinct locations).
    if flags.sum_blk && kind == LoopKind::AtmPar {
        if let Some(incs) = fixed_location_increments(&body, &var) {
            if let Some(extent) = oracle.extent(&lo, &hi) {
                // Every increment targets one location ⇒ ratio = extent.
                if extent >= flags.contention_ratio {
                    report.converted_to_sum += incs.len();
                    return incs
                        .into_iter()
                        .map(|(acc, rhs)| Blk::SumBlk {
                            acc,
                            var: var.clone(),
                            lo: lo.clone(),
                            hi: hi.clone(),
                            rhs,
                        })
                        .collect();
                }
            }
        }
    }

    // 2. Commuting: swap with an inner parallel loop when the inner trip
    //    count dwarfs the outer one (K ≪ N), to launch more threads.
    //    Sampling bodies are excluded: per-thread RNG streams are keyed by
    //    the outer thread index, which commuting would reassign.
    if flags.commute && !contains_sampling(&body) {
        if let Stmt::Loop {
            kind: ik @ (LoopKind::Par | LoopKind::AtmPar),
            var: iv,
            lo: ilo,
            hi: ihi,
            body: ibody,
        } = &body
        {
            let bounds_independent = !mentions(ilo, &var) && !mentions(ihi, &var);
            if bounds_independent {
                if let (Some(outer), Some(inner)) =
                    (oracle.extent(&lo, &hi), oracle.extent(ilo, ihi))
                {
                    if inner >= flags.commute_ratio * outer {
                        report.commuted += 1;
                        // The commuted block inherits the stricter
                        // annotation of the pair.
                        let new_kind = if kind == LoopKind::AtmPar || *ik == LoopKind::AtmPar {
                            LoopKind::AtmPar
                        } else {
                            LoopKind::Par
                        };
                        let swapped = Blk::ParBlk {
                            kind: new_kind,
                            var: iv.clone(),
                            lo: ilo.clone(),
                            hi: ihi.clone(),
                            body: Stmt::Loop {
                                kind,
                                var: var.clone(),
                                lo: lo.clone(),
                                hi: hi.clone(),
                                body: ibody.clone(),
                            },
                            inner_par,
                        };
                        return vec![swapped];
                    }
                }
            }
        }
    }

    // 3. Inlining: a thread body that is a single structured-sampling
    //    statement (Dirichlet, MvNormal) hides a data-parallel inner loop;
    //    expose it when the outer extent alone underutilizes the device.
    if flags.inline && inner_par.is_none() {
        if let Stmt::Sample { dist: DistKind::Dirichlet | DistKind::MvNormal, args, .. } = &body {
            let underutilized =
                oracle.extent(&lo, &hi).map(|e| e < flags.device_lanes).unwrap_or(false);
            if underutilized && oracle.vec_len(&args[0]).is_some() {
                report.inlined += 1;
                let width = Expr::Len(Box::new(args[0].clone()));
                return vec![Blk::ParBlk { kind, var, lo, hi, body, inner_par: Some(width) }];
            }
        }
    }

    vec![Blk::ParBlk { kind, var, lo, hi, body, inner_par }]
}

/// If every statement of the body is `lv += rhs` with `lv` not indexed by
/// the thread variable, returns those increments.
fn fixed_location_increments(
    body: &Stmt,
    thread_var: &str,
) -> Option<Vec<(augur_low::il::LValue, Expr)>> {
    let stmts: Vec<&Stmt> = match body {
        Stmt::Seq(s) => s.iter().collect(),
        other => vec![other],
    };
    if stmts.is_empty() {
        return None;
    }
    let mut incs = Vec::new();
    for s in stmts {
        match s {
            Stmt::Assign { lhs, op: AssignOp::Inc, rhs } => {
                if lhs.indices.iter().any(|i| mentions(i, thread_var)) {
                    return None;
                }
                incs.push((lhs.clone(), rhs.clone()));
            }
            _ => return None,
        }
    }
    Some(incs)
}

/// True when the statement tree contains a sampling operation.
fn contains_sampling(s: &Stmt) -> bool {
    match s {
        Stmt::Sample { .. } | Stmt::SampleLogits { .. } => true,
        Stmt::Seq(ss) => ss.iter().any(contains_sampling),
        Stmt::If { then, els, .. } => {
            contains_sampling(then) || els.as_deref().is_some_and(contains_sampling)
        }
        Stmt::Loop { body, .. } => contains_sampling(body),
        Stmt::Assign { .. } => false,
    }
}

/// True when the expression mentions the variable.
pub(crate) fn mentions(e: &Expr, var: &str) -> bool {
    match e {
        Expr::Var(n) => n == var,
        Expr::Int(_) | Expr::Real(_) => false,
        Expr::Index(a, b) | Expr::Binop(_, a, b) => mentions(a, var) || mentions(b, var),
        Expr::Neg(a) | Expr::Len(a) => mentions(a, var),
        Expr::Call(_, args) | Expr::Op(_, args) => args.iter().any(|a| mentions(a, var)),
        Expr::DistLl { args, point, .. }
        | Expr::DistGradParam { args, point, .. }
        | Expr::DistGradPoint { args, point, .. } => {
            args.iter().any(|a| mentions(a, var)) || mentions(point, var)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use augur_low::il::LValue;

    struct FixedOracle {
        sizes: std::collections::HashMap<String, i64>,
    }

    impl FixedOracle {
        fn new(pairs: &[(&str, i64)]) -> Self {
            FixedOracle { sizes: pairs.iter().map(|(k, v)| ((*k).to_owned(), *v)).collect() }
        }
    }

    impl SizeOracle for FixedOracle {
        fn extent(&self, lo: &Expr, hi: &Expr) -> Option<i64> {
            let lo_v = match lo {
                Expr::Int(v) => *v,
                Expr::Var(n) => *self.sizes.get(n)?,
                _ => return None,
            };
            let hi_v = match hi {
                Expr::Int(v) => *v,
                Expr::Var(n) => *self.sizes.get(n)?,
                _ => return None,
            };
            Some(hi_v - lo_v)
        }

        fn vec_len(&self, e: &Expr) -> Option<i64> {
            match e {
                Expr::Var(n) => self.sizes.get(&format!("len:{n}")).copied(),
                _ => None,
            }
        }
    }

    fn parblk(kind: LoopKind, var: &str, hi: &str, body: Stmt) -> Blk {
        Blk::ParBlk {
            kind,
            var: var.into(),
            lo: Expr::Int(0),
            hi: Expr::var(hi),
            body,
            inner_par: None,
        }
    }

    fn fixed_inc(name: &str) -> Stmt {
        Stmt::Assign { lhs: LValue::name(name), op: AssignOp::Inc, rhs: Expr::var("t") }
    }

    #[test]
    fn contended_atmpar_becomes_sumblk() {
        // The §5.4 example: parBlk AtmPar (n ← 0 until N) { adj_var += … }
        let mut p = BlkProc {
            name: "g".into(),
            blocks: vec![parblk(LoopKind::AtmPar, "n", "N", fixed_inc("adj_var"))],
            ret: None,
        };
        let oracle = FixedOracle::new(&[("N", 50_000)]);
        let r = optimize(&mut p, &oracle, &OptFlags::default());
        assert_eq!(r.converted_to_sum, 1);
        assert_eq!(p.blocks[0].kind_name(), "sumBlk");
    }

    #[test]
    fn indexed_increments_stay_atomic() {
        // adj_mu[z[n]] += …: locations scale with data — no conversion.
        let body = Stmt::Assign {
            lhs: LValue {
                var: "adj_mu".into(),
                indices: vec![Expr::index(Expr::var("z"), Expr::var("n"))],
            },
            op: AssignOp::Inc,
            rhs: Expr::var("t"),
        };
        let mut p = BlkProc {
            name: "g".into(),
            blocks: vec![parblk(LoopKind::AtmPar, "n", "N", body)],
            ret: None,
        };
        let oracle = FixedOracle::new(&[("N", 50_000)]);
        let r = optimize(&mut p, &oracle, &OptFlags::default());
        assert_eq!(r.converted_to_sum, 0);
        assert_eq!(p.blocks[0].kind_name(), "parBlk");
    }

    #[test]
    fn small_extent_not_converted() {
        let mut p = BlkProc {
            name: "g".into(),
            blocks: vec![parblk(LoopKind::AtmPar, "n", "N", fixed_inc("a"))],
            ret: None,
        };
        let oracle = FixedOracle::new(&[("N", 8)]);
        let r = optimize(&mut p, &oracle, &OptFlags::default());
        assert_eq!(r.converted_to_sum, 0);
    }

    #[test]
    fn multi_increment_body_splits_into_sumblks() {
        // The Adult-dataset case: several gradient components, each a
        // fixed location ⇒ several map-reduces (§7.2).
        let body = Stmt::Seq(vec![fixed_inc("adj_b"), fixed_inc("adj_s")]);
        let mut p = BlkProc {
            name: "g".into(),
            blocks: vec![parblk(LoopKind::AtmPar, "n", "N", body)],
            ret: None,
        };
        let oracle = FixedOracle::new(&[("N", 50_000)]);
        let r = optimize(&mut p, &oracle, &OptFlags::default());
        assert_eq!(r.converted_to_sum, 2);
        assert_eq!(p.blocks.len(), 2);
        assert!(p.blocks.iter().all(|b| b.kind_name() == "sumBlk"));
    }

    #[test]
    fn k_much_less_than_n_commutes() {
        // parBlk Par (k ← 0 until K) { loop Par (n ← 0 until N) … }, K ≪ N
        let inner = Stmt::Loop {
            kind: LoopKind::Par,
            var: "n".into(),
            lo: Expr::Int(0),
            hi: Expr::var("N"),
            body: Box::new(Stmt::Assign {
                lhs: LValue { var: "out".into(), indices: vec![Expr::var("k"), Expr::var("n")] },
                op: AssignOp::Set,
                rhs: Expr::Real(0.0),
            }),
        };
        let mut p = BlkProc {
            name: "p".into(),
            blocks: vec![parblk(LoopKind::Par, "k", "K", inner)],
            ret: None,
        };
        let oracle = FixedOracle::new(&[("K", 3), ("N", 10_000)]);
        let r = optimize(&mut p, &oracle, &OptFlags::default());
        assert_eq!(r.commuted, 1);
        match &p.blocks[0] {
            Blk::ParBlk { var, body, .. } => {
                assert_eq!(var, "n");
                assert!(matches!(body, Stmt::Loop { var, .. } if var == "k"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn ragged_inner_bounds_block_commuting() {
        // inner bound mentions the outer variable: len[d]
        let inner = Stmt::Loop {
            kind: LoopKind::Par,
            var: "j".into(),
            lo: Expr::Int(0),
            hi: Expr::index(Expr::var("len"), Expr::var("d")),
            body: Box::new(fixed_inc("a")),
        };
        let mut p = BlkProc {
            name: "p".into(),
            blocks: vec![parblk(LoopKind::Par, "d", "D", inner)],
            ret: None,
        };
        let oracle = FixedOracle::new(&[("D", 3)]);
        let r = optimize(&mut p, &oracle, &OptFlags::default());
        assert_eq!(r.commuted, 0);
    }

    #[test]
    fn dirichlet_sampling_inlines_when_underutilized() {
        let body = Stmt::Sample {
            lhs: LValue { var: "theta".into(), indices: vec![Expr::var("d")] },
            dist: DistKind::Dirichlet,
            args: vec![Expr::var("alpha")],
        };
        let mut p = BlkProc {
            name: "p".into(),
            blocks: vec![parblk(LoopKind::Par, "d", "D", body)],
            ret: None,
        };
        let oracle = FixedOracle::new(&[("D", 100), ("len:alpha", 50)]);
        let r = optimize(&mut p, &oracle, &OptFlags::default());
        assert_eq!(r.inlined, 1);
        match &p.blocks[0] {
            Blk::ParBlk { inner_par, .. } => assert!(inner_par.is_some()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn inlining_skipped_when_device_already_full() {
        let body = Stmt::Sample {
            lhs: LValue { var: "theta".into(), indices: vec![Expr::var("d")] },
            dist: DistKind::Dirichlet,
            args: vec![Expr::var("alpha")],
        };
        let mut p = BlkProc {
            name: "p".into(),
            blocks: vec![parblk(LoopKind::Par, "d", "D", body)],
            ret: None,
        };
        let oracle = FixedOracle::new(&[("D", 1_000_000), ("len:alpha", 50)]);
        let r = optimize(&mut p, &oracle, &OptFlags::default());
        assert_eq!(r.inlined, 0);
    }

    #[test]
    fn flags_disable_each_optimization() {
        let flags =
            OptFlags { commute: false, inline: false, sum_blk: false, ..OptFlags::default() };
        let mut p = BlkProc {
            name: "g".into(),
            blocks: vec![parblk(LoopKind::AtmPar, "n", "N", fixed_inc("a"))],
            ret: None,
        };
        let oracle = FixedOracle::new(&[("N", 50_000)]);
        let r = optimize(&mut p, &oracle, &flags);
        assert_eq!(r, OptReport::default());
        assert_eq!(p.blocks[0].kind_name(), "parBlk");
    }

    #[test]
    fn optimizer_recurses_into_loopblks() {
        let inner = parblk(LoopKind::AtmPar, "n", "N", fixed_inc("w"));
        let mut p = BlkProc {
            name: "p".into(),
            blocks: vec![Blk::LoopBlk {
                var: "c".into(),
                lo: Expr::Int(0),
                hi: Expr::Int(3),
                body: vec![inner],
            }],
            ret: None,
        };
        let oracle = FixedOracle::new(&[("N", 100_000)]);
        let r = optimize(&mut p, &oracle, &OptFlags::default());
        assert_eq!(r.converted_to_sum, 1);
    }
}
