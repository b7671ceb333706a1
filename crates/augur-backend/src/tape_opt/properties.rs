//! Property tests for the tape optimizer and the engines that run its
//! output: randomly generated two-level loop nests must evaluate to
//! exactly the values a direct reference evaluator computes, on the
//! tree-walker, the tape (one and three threads), native code and the
//! simulated GPU, with equal `work` on every CPU engine.
//!
//! The nests are shaped to exercise the optimizer: invariant buffer
//! loads in the inner loop, an inner loop over a (possibly empty) row or
//! up to a constant bound, with a `Categorical` log-density at the inner
//! index, and zero-trip loops. Cases come from the in-tree `Prng` with
//! fixed seeds, so every run checks the same programs. The module lives
//! in the crate so the native lane can load a [`ProcTable`]'s C directly.

use std::sync::Arc;

use augur_dist::{DistKind, Prng};
use augur_lang::ast::BinOp;
use augur_low::il::{AssignOp, Expr, LValue, LoopKind, ProcDecl, Stmt};
use gpu_sim::{Device, DeviceConfig};

use crate::compile::{Compiler, ProcTable};
use crate::eval::{Engine, ExecMode};
use crate::metrics::EngineMetrics;
use crate::state::{RowElem, Shape, State};
use crate::tape::{ExecBackend, TInstr};

/// Inputs per case; the outer trip count never exceeds it, so `input[i]`
/// is always in range.
const N_IN: usize = 6;

/// A scalar expression the generator controls, interpretable directly.
#[derive(Debug, Clone)]
enum RefExpr {
    Const(f64),
    /// `input[k]`: invariant in both loops.
    Cell(usize),
    /// `input[i]`: invariant in the inner loop.
    CellAtOuter,
    /// The outer loop index `i`.
    Outer,
    /// The inner loop index `j` (inner bodies only).
    Inner,
    Bin(BinOp, Box<RefExpr>, Box<RefExpr>),
    Neg(Box<RefExpr>),
}

impl RefExpr {
    fn gen(rng: &mut Prng, depth: u32, inner: bool) -> RefExpr {
        if depth == 0 || rng.below(3) == 0 {
            return match rng.below(if inner { 5 } else { 4 }) {
                0 => RefExpr::Const((rng.uniform() * 8.0 - 4.0).round() / 4.0),
                1 => RefExpr::Cell(rng.below(N_IN)),
                2 => RefExpr::CellAtOuter,
                3 => RefExpr::Outer,
                _ => RefExpr::Inner,
            };
        }
        let form = rng.below(4);
        let mut sub = || Box::new(RefExpr::gen(rng, depth - 1, inner));
        match form {
            0 => RefExpr::Neg(sub()),
            f => RefExpr::Bin([BinOp::Add, BinOp::Sub, BinOp::Mul][f - 1], sub(), sub()),
        }
    }

    fn to_il(&self, input: &str) -> Expr {
        match self {
            RefExpr::Const(c) => Expr::Real(*c),
            RefExpr::Cell(k) => Expr::index(Expr::var(input), Expr::Int(*k as i64)),
            RefExpr::CellAtOuter => Expr::index(Expr::var(input), Expr::var("i")),
            RefExpr::Outer => Expr::var("i"),
            RefExpr::Inner => Expr::var("j"),
            RefExpr::Bin(op, a, b) => {
                Expr::Binop(*op, Box::new(a.to_il(input)), Box::new(b.to_il(input)))
            }
            RefExpr::Neg(a) => Expr::Neg(Box::new(a.to_il(input))),
        }
    }

    fn eval(&self, input: &[f64], i: usize, j: usize) -> f64 {
        match self {
            RefExpr::Const(c) => *c,
            RefExpr::Cell(k) => input[*k],
            RefExpr::CellAtOuter => input[i],
            RefExpr::Outer => i as f64,
            RefExpr::Inner => j as f64,
            RefExpr::Bin(op, a, b) => {
                let (x, y) = (a.eval(input, i, j), b.eval(input, i, j));
                match op {
                    BinOp::Add => x + y,
                    BinOp::Sub => x - y,
                    BinOp::Mul => x * y,
                    BinOp::Div => x / y,
                }
            }
            RefExpr::Neg(a) => -a.eval(input, i, j),
        }
    }
}

/// One generated procedure:
///
/// ```text
/// for i <- 0 until n:                  (outer kind)
///   acc[i] = e_outer
///   for j <- 0 until hi:               (inner kind; src = g, or w[i];
///                                       hi = len(src), or a constant)
///     out[i][j] = e_inner
///     out[i][j] += Categorical(src).ll(j)
///     acc[i] += e_invariant
/// ```
///
/// With `src = g` bounded by `len(g)` the log-density's weights are
/// invariant in the outer loop, so the optimizer fills them once per
/// entry; with `src = w[i]` only the row selection is hoisted. A
/// constant bound first selects the weights inside the inner loop, so
/// they are hoisted into its preheader alone and no fill may read them;
/// past the end of a shorter `src` the log-density is `-inf`.
struct Case {
    n: usize,
    outer: LoopKind,
    inner: LoopKind,
    global_src: bool,
    /// `Some(c)`: the inner loop runs `0 until c`; `None`: `0 until len(src)`.
    const_hi: Option<usize>,
    input: Vec<f64>,
    g: Vec<f64>,
    w: Vec<Vec<f64>>,
    e_outer: RefExpr,
    e_inner: RefExpr,
    e_invariant: RefExpr,
}

fn weight(rng: &mut Prng) -> f64 {
    // Zero weights exercise the -inf branch of the log-density.
    if rng.below(5) == 0 {
        0.0
    } else {
        0.05 + 2.0 * rng.uniform()
    }
}

impl Case {
    /// Case `c` of a batch: its weight source and bound form cycle with
    /// `c`, so every batch of four or more covers all four pairings.
    fn gen(rng: &mut Prng, c: usize) -> Case {
        let kinds = [LoopKind::Seq, LoopKind::Par, LoopKind::AtmPar];
        // n = 0 (a zero-trip outer loop) about one case in six.
        let n = rng.below(N_IN);
        let g_len = rng.below(5);
        Case {
            n,
            outer: kinds[rng.below(3)],
            inner: kinds[rng.below(3)],
            global_src: c.is_multiple_of(2),
            const_hi: (c % 4 >= 2).then(|| rng.below(5)),
            input: (0..N_IN).map(|_| rng.uniform_range(-3.0, 3.0)).collect(),
            g: (0..g_len).map(|_| weight(rng)).collect(),
            // Rows of length 0..=4: an empty row is a zero-trip inner loop.
            w: (0..n).map(|_| (0..rng.below(5)).map(|_| weight(rng)).collect()).collect(),
            e_outer: RefExpr::gen(rng, 3, false),
            e_inner: RefExpr::gen(rng, 3, true),
            e_invariant: RefExpr::gen(rng, 2, false),
        }
    }

    fn src(&self, i: usize) -> &[f64] {
        if self.global_src {
            &self.g
        } else {
            &self.w[i]
        }
    }

    /// The inner trip count at outer index `i`.
    fn hi(&self, i: usize) -> usize {
        self.const_hi.unwrap_or_else(|| self.src(i).len())
    }

    /// The widest inner extent, which sizes the rows of `out`.
    fn width(&self) -> usize {
        (0..self.n).map(|i| self.hi(i)).max().unwrap_or(0)
    }

    /// Binds this case's buffers (suffixed `c`) into the shared state.
    fn bind(&self, c: usize, st: &mut State) {
        let rows = |lens: &mut dyn Iterator<Item = usize>| {
            let mut offsets = vec![0];
            for len in lens {
                offsets.push(offsets.last().unwrap() + len);
            }
            Shape::Rows { offsets, elem: RowElem::Vec }
        };
        let id = st.insert(format!("input{c}"), Shape::Vector(N_IN));
        st.flat_mut(id).copy_from_slice(&self.input);
        let id = st.insert(format!("g{c}"), Shape::Vector(self.g.len()));
        st.flat_mut(id).copy_from_slice(&self.g);
        let id = st.insert(format!("w{c}"), rows(&mut self.w.iter().map(Vec::len)));
        st.flat_mut(id).copy_from_slice(&self.w.concat());
        st.insert(format!("out{c}"), rows(&mut (0..self.n).map(|_| self.width())));
        st.insert(format!("acc{c}"), Shape::Vector(self.n));
    }

    fn proc_decl(&self, c: usize) -> ProcDecl {
        let input = format!("input{c}");
        let src = if self.global_src {
            Expr::var(format!("g{c}"))
        } else {
            Expr::index(Expr::var(format!("w{c}")), Expr::var("i"))
        };
        let hi = match self.const_hi {
            Some(c) => Expr::Int(c as i64),
            None => Expr::Len(Box::new(src.clone())),
        };
        let out = LValue { var: format!("out{c}"), indices: vec![Expr::var("i"), Expr::var("j")] };
        let acc = LValue { var: format!("acc{c}"), indices: vec![Expr::var("i")] };
        let inner = Stmt::Seq(vec![
            Stmt::Assign { lhs: out.clone(), op: AssignOp::Set, rhs: self.e_inner.to_il(&input) },
            Stmt::Assign {
                lhs: out,
                op: AssignOp::Inc,
                rhs: Expr::DistLl {
                    dist: DistKind::Categorical,
                    args: vec![src],
                    point: Box::new(Expr::var("j")),
                },
            },
            Stmt::Assign {
                lhs: acc.clone(),
                op: AssignOp::Inc,
                rhs: self.e_invariant.to_il(&input),
            },
        ]);
        let body = Stmt::Seq(vec![
            Stmt::Assign { lhs: acc, op: AssignOp::Set, rhs: self.e_outer.to_il(&input) },
            Stmt::Loop {
                kind: self.inner,
                var: "j".into(),
                lo: Expr::Int(0),
                hi,
                body: Box::new(inner),
            },
        ]);
        ProcDecl {
            name: format!("p{c}"),
            body: Stmt::Loop {
                kind: self.outer,
                var: "i".into(),
                lo: Expr::Int(0),
                hi: Expr::Int(self.n as i64),
                body: Box::new(body),
            },
            ret: None,
        }
    }

    /// The reference result: `out` (row-major) then `acc`.
    fn reference(&self) -> Vec<f64> {
        let x = &self.input;
        let mut out = vec![0.0; self.n * self.width()];
        let mut acc = vec![0.0; self.n];
        for i in 0..self.n {
            acc[i] = self.e_outer.eval(x, i, 0);
            let src = self.src(i);
            for j in 0..self.hi(i) {
                let cell = &mut out[i * self.width() + j];
                *cell = self.e_inner.eval(x, i, j);
                *cell += match src.get(j) {
                    Some(&p) if p > 0.0 => p.ln(),
                    _ => f64::NEG_INFINITY,
                };
                acc[i] += self.e_invariant.eval(x, i, j);
            }
        }
        out.extend(acc);
        out
    }
}

/// One engine over the shared state, configured for a lane.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Lane {
    Tree,
    Tape(usize),
    Native,
    Gpu,
}

/// One case's run: the result bits, the work charged, and the tape
/// instructions retired with their op classes.
type Run = (Vec<u64>, u64, EngineMetrics);

/// Runs every procedure on one lane. `None` when the lane is
/// unavailable (no C toolchain).
fn run_lane(lane: Lane, st: &State, table: &ProcTable, n: usize) -> Option<Vec<Run>> {
    let mode = if lane == Lane::Gpu { ExecMode::Gpu } else { ExecMode::Cpu };
    let device = match mode {
        ExecMode::Cpu => Device::new(DeviceConfig::host_cpu_like()),
        ExecMode::Gpu => Device::new(DeviceConfig::titan_black_like()),
    };
    let mut eng = Engine::new(st.clone(), Prng::seed_from_u64(0), device, mode);
    match lane {
        Lane::Tree => eng.backend = ExecBackend::Tree,
        Lane::Tape(threads) => {
            eng.set_threads(threads);
            eng.profile_ops = true;
        }
        Lane::Native => match crate::native::build_native(table, st) {
            Ok(module) => {
                eng.native = Some(Arc::new(module));
                eng.backend = ExecBackend::Native;
            }
            Err(reason) => {
                eprintln!("no native lane: {reason}");
                return None;
            }
        },
        Lane::Gpu => {}
    }
    Some(
        (0..n)
            .map(|c| {
                let work = eng.work();
                eng.metrics = EngineMetrics::default();
                eng.run_proc(table, c);
                let mut bits: Vec<u64> =
                    eng.flat_of(&format!("out{c}")).iter().map(|x| x.to_bits()).collect();
                bits.extend(eng.flat_of(&format!("acc{c}")).iter().map(|x| x.to_bits()));
                (bits, eng.work() - work, eng.metrics)
            })
            .collect(),
    )
}

#[test]
fn optimized_loop_nests_match_the_reference_on_every_engine() {
    let mut rng = Prng::seed_from_u64(0x1D7E_5EED);
    let cases: Vec<Case> = (0..48).map(|c| Case::gen(&mut rng, c)).collect();
    let mut st = State::new();
    for (c, case) in cases.iter().enumerate() {
        case.bind(c, &mut st);
    }
    let mut table = ProcTable::default();
    for (c, case) in cases.iter().enumerate() {
        let p = case.proc_decl(c);
        let cpu = Compiler::new(&st).proc(&p);
        let gpu = Compiler::new(&st).blk_proc(&augur_blk::to_blocks(&p));
        table.insert(cpu, gpu, &st);
    }
    // The batch reaches both rewrites of the optimizer.
    let instrs = || table.tapes.iter().flat_map(|p| &p.tape.instrs);
    assert!(instrs().any(|i| matches!(i, TInstr::LlFill { .. })), "no log-density vector filled");
    assert!(
        table.tapes.iter().any(|p| p.tape.instrs.iter().enumerate().any(|(pc, i)| matches!(
            i,
            TInstr::LoopStart { body, .. } if *body as usize > pc + 1
        ))),
        "no instruction hoisted"
    );

    let expected: Vec<Vec<u64>> =
        cases.iter().map(|c| c.reference().iter().map(|x| x.to_bits()).collect()).collect();
    let tree = run_lane(Lane::Tree, &st, &table, cases.len()).expect("tree lane");
    let tape = run_lane(Lane::Tape(1), &st, &table, cases.len()).expect("tape lane");
    for lane in [Lane::Tree, Lane::Tape(1), Lane::Tape(3), Lane::Native, Lane::Gpu] {
        let Some(got) = run_lane(lane, &st, &table, cases.len()) else { continue };
        for (c, ((bits, work, metrics), want)) in got.iter().zip(&expected).enumerate() {
            assert_eq!(bits, want, "{lane:?}: case {c} differs from the reference");
            if lane != Lane::Gpu {
                assert_eq!(*work, tree[c].1, "{lane:?}: case {c} charged different work");
            }
            if let Lane::Tape(_) = lane {
                // Chunks each run a preheader; the dispatch retires it once.
                let (want, got) = (&tape[c].2, metrics);
                assert_eq!(got.instrs_retired, want.instrs_retired, "{lane:?}: case {c} retired");
                assert_eq!(got.op_class, want.op_class, "{lane:?}: case {c} op classes");
            }
        }
    }
}
