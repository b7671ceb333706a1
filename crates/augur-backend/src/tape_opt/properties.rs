//! Property tests for the tape optimizer and the engines that run its
//! output: randomly generated two-level loop nests must evaluate to
//! exactly the values a direct reference evaluator computes, on the
//! tree-walker, the tape (one and three threads), native code and the
//! simulated GPU, with equal `work` on every CPU engine.
//!
//! The nests are shaped to exercise the optimizer: invariant buffer
//! loads in the inner loop, an inner loop over a (possibly empty) row or
//! up to a constant bound, with a `Categorical` log-density at the inner
//! index, and zero-trip loops. A second batch covers the tape's
//! accumulate stores — `+=` of a `VecScale`, an `OuterSub` or a state
//! row — into vector, matrix and `Rows` destinations, and a third the
//! fused log-weight stores of finite-sum weight loops. Cases come from
//! the in-tree `Prng` with fixed seeds, so every run checks the same
//! programs. The module lives in the crate so the native lane can load a
//! [`ProcTable`]'s C directly.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use augur_dist::{DistKind, Prng, ValueMut, ValueRef};
use augur_lang::ast::BinOp;
use augur_low::il::{AssignOp, Expr, LValue, LoopKind, OpN, ProcDecl, Stmt};
use gpu_sim::{Device, DeviceConfig};

use crate::compile::{Compiler, ProcTable};
use crate::eval::{Engine, ExecMode};
use crate::metrics::EngineMetrics;
use crate::native::NativeModule;
use crate::state::{RowElem, Shape, State};
use crate::tape::{ExecBackend, TInstr, Weight};

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
///
/// A `flat` case stores `out[j]` instead, a vector every outer iteration
/// overwrites, with a constant `e_inner`: over `w[i]` the two stores are
/// a finite-sum weight, which the optimizer fuses.
struct Case {
    n: usize,
    outer: LoopKind,
    inner: LoopKind,
    global_src: bool,
    /// `Some(c)`: the inner loop runs `0 until c`; `None`: `0 until len(src)`.
    const_hi: Option<usize>,
    flat: bool,
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
    /// Cases from [`N_NESTED`] on are `flat`.
    fn gen(rng: &mut Prng, c: usize) -> Case {
        let kinds = [LoopKind::Seq, LoopKind::Par, LoopKind::AtmPar];
        // n = 0 (a zero-trip outer loop) about one case in six.
        let n = rng.below(N_IN);
        let g_len = rng.below(5);
        let mut case = Case {
            n,
            outer: kinds[rng.below(3)],
            inner: kinds[rng.below(3)],
            global_src: c.is_multiple_of(2),
            const_hi: (c % 4 >= 2).then(|| rng.below(5)),
            flat: c >= N_NESTED,
            input: (0..N_IN).map(|_| rng.uniform_range(-3.0, 3.0)).collect(),
            g: (0..g_len).map(|_| weight(rng)).collect(),
            // Rows of length 0..=4: an empty row is a zero-trip inner loop.
            w: (0..n).map(|_| (0..rng.below(5)).map(|_| weight(rng)).collect()).collect(),
            e_outer: RefExpr::gen(rng, 3, false),
            e_inner: RefExpr::gen(rng, 3, true),
            e_invariant: RefExpr::gen(rng, 2, false),
        };
        if case.flat {
            case.e_inner = RefExpr::Const((rng.uniform() * 8.0 - 4.0).round() / 4.0);
        }
        case
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
        let out = if self.flat {
            Shape::Vector(self.width())
        } else {
            rows(&mut (0..self.n).map(|_| self.width()))
        };
        st.insert(format!("out{c}"), out);
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
        let indices = if self.flat { vec![] } else { vec![Expr::var("i")] };
        let indices = indices.into_iter().chain([Expr::var("j")]).collect();
        let out = LValue { var: format!("out{c}"), indices };
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
        let rows = if self.flat { 1 } else { self.n };
        let mut out = vec![0.0; rows * self.width()];
        let mut acc = vec![0.0; self.n];
        for (i, acc_i) in acc.iter_mut().enumerate() {
            *acc_i = self.e_outer.eval(x, i, 0);
            let src = self.src(i);
            for j in 0..self.hi(i) {
                let row = if self.flat { 0 } else { i };
                let cell = &mut out[row * self.width() + j];
                *cell = self.e_inner.eval(x, i, j);
                *cell += match src.get(j) {
                    Some(&p) if p > 0.0 => p.ln(),
                    _ => f64::NEG_INFINITY,
                };
                *acc_i += self.e_invariant.eval(x, i, j);
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

/// The native module of a table, or `None` (with the reason on stderr)
/// when the lane is unavailable (no C toolchain).
fn native_module(table: &ProcTable, st: &State) -> Option<Arc<NativeModule>> {
    crate::native::build_native(table, st)
        .map(Arc::new)
        .map_err(|reason| eprintln!("no native lane: {reason}"))
        .ok()
}

/// An engine over `st` configured for a lane (`native` holds the
/// table's module on the native lane).
fn lane_engine(lane: Lane, st: &State, native: Option<&Arc<NativeModule>>) -> Engine {
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
        Lane::Native => {
            eng.native = native.cloned();
            eng.backend = ExecBackend::Native;
        }
        Lane::Gpu => {}
    }
    eng
}

/// Runs every procedure on one lane. `None` when the lane is
/// unavailable (no C toolchain).
fn run_lane(lane: Lane, st: &State, table: &ProcTable, n: usize) -> Option<Vec<Run>> {
    let native = if lane == Lane::Native { Some(native_module(table, st)?) } else { None };
    let mut eng = lane_engine(lane, st, native.as_ref());
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

/// Cases of the loop-nest batch that store `out[i][j]`; the rest are
/// `flat`.
const N_NESTED: usize = 48;

#[test]
fn optimized_loop_nests_match_the_reference_on_every_engine() {
    let mut rng = Prng::seed_from_u64(0x1D7E_5EED);
    let cases: Vec<Case> = (0..N_NESTED + 16).map(|c| Case::gen(&mut rng, c)).collect();
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
    // The batch reaches the three rewrites of the optimizer.
    let instrs = || table.tapes.iter().flat_map(|p| &p.tape.instrs);
    assert!(instrs().any(|i| matches!(i, TInstr::LlFill { .. })), "no log-density vector filled");
    assert!(instrs().any(|i| matches!(i, TInstr::LlWeight(_))), "no log-weight store fused");
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

/// The right-hand side of a generated accumulate store.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Rhs {
    /// `VecScale(s[i], src)`.
    Scale,
    /// `VecScale(Normal(0.5, 2).grad_point(s[i]), src)`: a scalar
    /// gradient scales the row.
    Grad,
    /// `OuterSub(src, y[z[i]])`.
    Outer,
    /// `src` itself, a state region.
    Row,
}

/// The destination of a generated accumulate store.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Dst {
    /// A whole `Vector` buffer.
    Vector,
    /// A whole `Matrix` buffer.
    Matrix,
    /// Row `z[i]` of a `Rows` buffer (of matrices for an outer product).
    Rows,
}

/// One generated accumulate store:
///
/// ```text
/// for i <- 0 until n:                  (kind; Seq when src aliases dst)
///   dst[z[i]] op= rhs                  (dst unindexed unless Rows)
/// ```
///
/// `src` is row `i` of `x`, or — `alias` — the destination's own cells:
/// all of them, or row 0 of a `Rows` destination (of a matrix for an
/// outer product). Each store covers `width` cells. In a `mismatch`
/// case one row of `x` is a cell longer, so that iteration panics (the
/// store's length check, or the outer product's operand check).
struct AccCase {
    n: usize,
    kind: LoopKind,
    rhs: Rhs,
    dst: Dst,
    /// `Set` instead of `Inc` (state rows only).
    set: bool,
    alias: bool,
    /// The outer product's dimension (`width = d * d`).
    d: usize,
    width: usize,
    /// Rows of a `Rows` destination and of `y`.
    k: usize,
    x: Vec<Vec<f64>>,
    y: Vec<Vec<f64>>,
    z: Vec<f64>,
    s: Vec<f64>,
    /// The destination's initial cells.
    init: Vec<f64>,
}

impl AccCase {
    /// Case `c` of a batch: the right-hand side, destination and
    /// aliasing cycle with `c`, so every batch of 24 covers each
    /// pairing.
    fn gen(rng: &mut Prng, c: usize) -> AccCase {
        let rhs = [Rhs::Scale, Rhs::Grad, Rhs::Outer, Rhs::Row][c % 4];
        let dst = [Dst::Vector, Dst::Matrix, Dst::Rows][c / 4 % 3];
        // An outer product can alias only a matrix row.
        let alias = c / 12 % 2 == 1 && (rhs != Rhs::Outer || dst == Dst::Matrix);
        let d = if dst == Dst::Vector { rng.below(4) } else { 1 + rng.below(3) };
        let width = if rhs == Rhs::Outer || dst == Dst::Matrix { d * d } else { rng.below(5) };
        let src_len = if rhs == Rhs::Outer { d } else { width };
        // Zero-trip loops about one case in seven; the parallel kinds
        // fan out across workers from four iterations.
        let n = rng.below(7);
        let k = 1 + rng.below(3);
        let long = (!alias && c.is_multiple_of(5) && n > 0).then(|| rng.below(n));
        let draw =
            |rng: &mut Prng, len: usize| (0..len).map(|_| rng.uniform_range(-2.0, 2.0)).collect();
        let kinds = [LoopKind::Seq, LoopKind::Par, LoopKind::AtmPar];
        let y_len = d + rng.below(2);
        let cells = if dst == Dst::Rows { k * width } else { width };
        AccCase {
            n,
            kind: if alias { LoopKind::Seq } else { kinds[rng.below(3)] },
            rhs,
            dst,
            set: rhs == Rhs::Row && rng.below(4) == 0,
            alias,
            d,
            width,
            k,
            x: (0..n).map(|i| draw(rng, src_len + usize::from(long == Some(i)))).collect(),
            y: (0..k).map(|_| draw(rng, y_len)).collect(),
            z: (0..n).map(|_| rng.below(k) as f64).collect(),
            s: draw(rng, n),
            init: draw(rng, cells),
        }
    }

    /// Binds this case's buffers (suffixed `c`) into the shared state.
    fn bind(&self, c: usize, st: &mut State) {
        let rows = |lens: Vec<usize>, elem: RowElem| {
            let mut offsets = vec![0];
            for len in lens {
                offsets.push(offsets.last().unwrap() + len);
            }
            Shape::Rows { offsets, elem }
        };
        let mut put = |name: String, shape: Shape, cells: &[f64]| {
            let id = st.insert(name, shape);
            st.flat_mut(id).copy_from_slice(cells);
        };
        put(
            format!("ax{c}"),
            rows(self.x.iter().map(Vec::len).collect(), RowElem::Vec),
            &self.x.concat(),
        );
        put(
            format!("ay{c}"),
            rows(self.y.iter().map(Vec::len).collect(), RowElem::Vec),
            &self.y.concat(),
        );
        put(format!("az{c}"), Shape::Vector(self.n), &self.z);
        put(format!("as{c}"), Shape::Vector(self.n), &self.s);
        let dst = match self.dst {
            Dst::Vector => Shape::Vector(self.width),
            Dst::Matrix => Shape::Matrix(self.d),
            Dst::Rows if self.rhs == Rhs::Outer => {
                rows(vec![self.width; self.k], RowElem::Mat(self.d))
            }
            Dst::Rows => rows(vec![self.width; self.k], RowElem::Vec),
        };
        put(format!("ad{c}"), dst, &self.init);
    }

    fn proc_decl(&self, c: usize) -> ProcDecl {
        let var = |name: &str| Expr::var(format!("{name}{c}"));
        let at_i = |name: &str| Expr::index(var(name), Expr::var("i"));
        let src = match (self.alias, self.dst, self.rhs) {
            (false, ..) => at_i("ax"),
            (true, Dst::Rows, _) | (true, _, Rhs::Outer) => Expr::index(var("ad"), Expr::Int(0)),
            (true, ..) => var("ad"),
        };
        let grad = || Expr::DistGradPoint {
            dist: DistKind::Normal,
            args: vec![Expr::Real(0.5), Expr::Real(2.0)],
            point: Box::new(at_i("as")),
        };
        let rhs = match self.rhs {
            Rhs::Scale => Expr::Op(OpN::VecScale, vec![at_i("as"), src]),
            Rhs::Grad => Expr::Op(OpN::VecScale, vec![grad(), src]),
            Rhs::Outer => Expr::Op(OpN::OuterSub, vec![src, Expr::index(var("ay"), at_i("az"))]),
            Rhs::Row => src,
        };
        let indices = if self.dst == Dst::Rows { vec![at_i("az")] } else { vec![] };
        ProcDecl {
            name: format!("q{c}"),
            body: Stmt::Loop {
                kind: self.kind,
                var: "i".into(),
                lo: Expr::Int(0),
                hi: Expr::Int(self.n as i64),
                body: Box::new(Stmt::Assign {
                    lhs: LValue { var: format!("ad{c}"), indices },
                    op: if self.set { AssignOp::Set } else { AssignOp::Inc },
                    rhs,
                }),
            },
            ret: None,
        }
    }

    /// The destination's final cells, or `None` when an iteration
    /// panics. Each store computes its whole value first and then
    /// stores it, as the unfused tree-walker does.
    fn reference(&self) -> Option<Vec<f64>> {
        let mut dst = self.init.clone();
        for i in 0..self.n {
            let (start, len) = match self.dst {
                Dst::Rows => (self.z[i] as usize * self.width, self.width),
                _ => (0, dst.len()),
            };
            let src = match (self.alias, self.dst, self.rhs) {
                (false, ..) => self.x[i].clone(),
                (true, Dst::Rows, _) => dst[..self.width].to_vec(),
                (true, _, Rhs::Outer) => dst[..self.d].to_vec(),
                (true, ..) => dst.clone(),
            };
            let scaled = |s: f64| src.iter().map(|x| s * x).collect::<Vec<f64>>();
            let val = match self.rhs {
                Rhs::Scale => scaled(self.s[i]),
                Rhs::Grad => {
                    let (mut g, args) = (0.0, [ValueRef::Scalar(0.5), ValueRef::Scalar(2.0)]);
                    let point = ValueRef::Scalar(self.s[i]);
                    DistKind::Normal.grad_point(&args, point, ValueMut::Scalar(&mut g)).unwrap();
                    scaled(g)
                }
                Rhs::Outer => {
                    let b = &self.y[self.z[i] as usize];
                    if b.len() < src.len() {
                        return None;
                    }
                    let diff: Vec<f64> = src.iter().zip(b).map(|(p, q)| p - q).collect();
                    diff.iter().flat_map(|p| diff.iter().map(move |q| p * q)).collect()
                }
                Rhs::Row => src,
            };
            if val.len() != len {
                return None;
            }
            for (cell, v) in dst[start..start + len].iter_mut().zip(&val) {
                if self.set {
                    *cell = *v;
                } else {
                    *cell += v;
                }
            }
        }
        Some(dst)
    }
}

/// Runs procedure `c` on a fresh engine of one lane: the bits of
/// buffers `bufs` and the work charged, or the panic message.
fn run_caught(
    lane: Lane,
    st: &State,
    table: &ProcTable,
    native: Option<&Arc<NativeModule>>,
    c: usize,
    bufs: &[String],
) -> Result<(Vec<u64>, u64), String> {
    let mut eng = lane_engine(lane, st, native);
    catch_unwind(AssertUnwindSafe(|| eng.run_proc(table, c))).map_err(|payload| {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    })?;
    let bits = bufs.iter().flat_map(|b| eng.flat_of(b).iter().map(|x| x.to_bits())).collect();
    Ok((bits, eng.work()))
}

/// [`run_caught`] on an accumulate-store case's destination.
fn run_acc(
    lane: Lane,
    st: &State,
    table: &ProcTable,
    native: Option<&Arc<NativeModule>>,
    c: usize,
) -> Result<(Vec<u64>, u64), String> {
    run_caught(lane, st, table, native, c, &[format!("ad{c}")])
}

/// Checks every lane's runs of a batch against its reference results
/// (`None` where the reference panics): equal bits and the tree's work,
/// or the tree's panic message.
fn check_lanes(
    st: &State,
    table: &ProcTable,
    expected: &[Option<Vec<f64>>],
    run: impl Fn(Lane, Option<&Arc<NativeModule>>, usize) -> Result<(Vec<u64>, u64), String>,
) {
    let native = native_module(table, st);
    let lanes = [Lane::Tree, Lane::Tape(1), Lane::Tape(3), Lane::Native];
    let tree: Vec<_> = (0..expected.len()).map(|c| run(Lane::Tree, None, c)).collect();
    for lane in lanes {
        if lane == Lane::Native && native.is_none() {
            continue;
        }
        for (c, want) in expected.iter().enumerate() {
            let got = run(lane, native.as_ref(), c);
            match (want, &got, &tree[c]) {
                (Some(want), Ok((bits, work)), Ok((_, tree_work))) => {
                    let want: Vec<u64> = want.iter().map(|x| x.to_bits()).collect();
                    assert_eq!(*bits, want, "{lane:?}: case {c} differs from the reference");
                    assert_eq!(work, tree_work, "{lane:?}: case {c} charged different work");
                }
                (None, Err(msg), Err(tree_msg)) => {
                    assert_eq!(msg, tree_msg, "{lane:?}: case {c} panicked differently");
                }
                _ => panic!("{lane:?}: case {c} ran {got:?}, the tree {:?}", tree[c]),
            }
        }
    }
}

#[test]
fn accumulate_stores_match_the_reference_on_every_engine() {
    let mut rng = Prng::seed_from_u64(0xACC_5707E);
    let cases: Vec<AccCase> = (0..48).map(|c| AccCase::gen(&mut rng, c)).collect();
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
    // The batch reaches both fused primitives and the in-place row add,
    // in loops that fan out across workers and in ones that panic.
    let instrs = || table.tapes.iter().flat_map(|p| &p.tape.instrs);
    for vop in [OpN::VecScale, OpN::OuterSub] {
        let fused = instrs().any(|i| matches!(i, TInstr::AccStore { vop: v, .. } if *v == vop));
        assert!(fused, "no fused {vop:?} store");
    }
    assert!(instrs().any(|i| matches!(i, TInstr::Write { src, .. } if src.is_view())));
    assert!(cases.iter().any(|c| c.kind == LoopKind::AtmPar && c.n >= 4 && !c.alias));
    assert!(cases.iter().any(|c| c.reference().is_none()), "no case panics");

    let expected: Vec<_> = cases.iter().map(AccCase::reference).collect();
    check_lanes(&st, &table, &expected, |lane, native, c| run_acc(lane, &st, &table, native, c));
}

/// The log-density of a generated weight.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Dens {
    /// `Categorical(p[k]).ll(x[i])`: a row, printed inline in C.
    Cat,
    /// `MvNormal(m[k], s[k]).ll(y[i])`: a mean row and a covariance row.
    MvRow,
    /// `MvNormal(m[k], sig).ll(y[i])`: an invariant covariance.
    MvInv,
    /// `Normal(mu[k], var[k]).ll(x[i])`: two scalar cells, inline in C.
    Normal,
}

/// One generated finite-sum weight loop:
///
/// ```text
/// for i <- 0 until n:                  (kind)
///   acc[i] = 0
///   for k <- 0 until hi:               (len(g) with a prior term)
///     wt[k] = reset                    (optional)
///     wt[k] += Categorical(g).ll(k)    (optional prior term)
///     wt[k] += dens(rows k; point i)
///     acc[i] += wt[k]                  (with a reset, or in a Seq loop)
/// ```
///
/// The parameters have `rows` rows and `wt` has `w_len` cells: `hi`, or
/// one fewer, so that iteration panics at a row or at the store. Without
/// a reset `wt[k]` sums over `i`, which only a sequential loop may read
/// back.
struct WeightCase {
    n: usize,
    kind: LoopKind,
    dens: Dens,
    reset: Option<f64>,
    prior: bool,
    hi: usize,
    w_len: usize,
    rows: usize,
    d: usize,
    g: Vec<f64>,
    /// Points of `Cat` and `Normal`.
    x: Vec<f64>,
    /// Points of the `MvNormal` densities.
    y: Vec<Vec<f64>>,
    /// Categorical rows, mean rows, or `[mu, var]` of `Normal` per row.
    p: Vec<Vec<f64>>,
    /// Covariance rows (`MvRow`), or the one covariance (`MvInv`).
    s: Vec<Vec<f64>>,
    /// `wt`'s initial cells.
    init: Vec<f64>,
}

/// A random symmetric positive-definite `d × d` matrix, row-major.
fn spd(rng: &mut Prng, d: usize) -> Vec<f64> {
    let a: Vec<f64> = (0..d * d).map(|_| rng.uniform_range(-1.0, 1.0)).collect();
    let mut m = vec![0.0; d * d];
    for r in 0..d {
        for c in 0..d {
            m[r * d + c] = (0..d).map(|t| a[r * d + t] * a[c * d + t]).sum::<f64>();
        }
        m[r * d + r] += 0.5;
    }
    m
}

impl WeightCase {
    /// Case `c` of a batch: the density, reset, prior term and loop kind
    /// cycle with `c`, so every batch of 48 covers each combination of
    /// the first three in each kind.
    fn gen(rng: &mut Prng, c: usize) -> WeightCase {
        let dens = [Dens::Cat, Dens::MvRow, Dens::MvInv, Dens::Normal][c % 4];
        let reset = (c / 4).is_multiple_of(2).then(|| (rng.uniform() * 8.0 - 4.0).round() / 4.0);
        let prior = (c / 8).is_multiple_of(2);
        // Zero-trip outer loops one case in eight; the parallel kinds fan
        // out across workers from four iterations, half the cases.
        let n = rng.below(8);
        let hi = rng.below(4);
        let (mut w_len, mut rows) = (hi, hi);
        if hi > 0 && c.is_multiple_of(3) {
            match rng.below(3) {
                0 => w_len -= 1,
                1 => rows -= 1,
                _ => (w_len, rows) = (hi - 1, hi - 1),
            }
        }
        let d = 1 + rng.below(3);
        let uniform = |rng: &mut Prng, len: usize| -> Vec<f64> {
            (0..len).map(|_| rng.uniform_range(-2.0, 2.0)).collect()
        };
        let p = match dens {
            Dens::Cat => (0..rows).map(|_| (0..3).map(|_| weight(rng)).collect()).collect(),
            Dens::MvRow | Dens::MvInv => (0..rows).map(|_| uniform(rng, d)).collect(),
            Dens::Normal => {
                (0..rows).map(|_| vec![rng.uniform_range(-1.0, 1.0), 0.2 + rng.uniform()]).collect()
            }
        };
        let s = match dens {
            Dens::MvRow => (0..rows).map(|_| spd(rng, d)).collect(),
            Dens::MvInv => vec![spd(rng, d)],
            Dens::Cat | Dens::Normal => vec![],
        };
        let x = match dens {
            // Index 3 is past the end of every row: `-inf`.
            Dens::Cat => (0..n).map(|_| rng.below(4) as f64).collect(),
            _ => uniform(rng, n),
        };
        WeightCase {
            n,
            kind: [LoopKind::Seq, LoopKind::Par, LoopKind::AtmPar][c / 16 % 3],
            dens,
            reset,
            prior,
            hi,
            w_len,
            rows,
            d,
            g: (0..hi).map(|_| weight(rng)).collect(),
            x,
            y: (0..n).map(|_| uniform(rng, d)).collect(),
            p,
            s,
            init: uniform(rng, w_len),
        }
    }

    /// Binds this case's buffers (suffixed `c`) into the shared state.
    fn bind(&self, c: usize, st: &mut State) {
        let rows = |lens: Vec<usize>, elem: RowElem| {
            let mut offsets = vec![0];
            for len in lens {
                offsets.push(offsets.last().unwrap() + len);
            }
            Shape::Rows { offsets, elem }
        };
        let mut put = |name: &str, shape: Shape, cells: &[f64]| {
            let id = st.insert(format!("{name}{c}"), shape);
            st.flat_mut(id).copy_from_slice(cells);
        };
        put("wt", Shape::Vector(self.w_len), &self.init);
        put("wacc", Shape::Vector(self.n), &vec![0.0; self.n]);
        put("wg", Shape::Vector(self.hi), &self.g);
        put("wx", Shape::Vector(self.n), &self.x);
        put("wy", rows(vec![self.d; self.n], RowElem::Vec), &self.y.concat());
        match self.dens {
            Dens::Normal => {
                let col = |j: usize| self.p.iter().map(|r| r[j]).collect::<Vec<f64>>();
                put("wmu", Shape::Vector(self.rows), &col(0));
                put("wvar", Shape::Vector(self.rows), &col(1));
            }
            _ => {
                let lens = self.p.iter().map(Vec::len).collect();
                put("wp", rows(lens, RowElem::Vec), &self.p.concat());
            }
        }
        match self.dens {
            Dens::MvRow => {
                let shape = rows(vec![self.d * self.d; self.rows], RowElem::Mat(self.d));
                put("ws", shape, &self.s.concat());
            }
            Dens::MvInv => put("ws", Shape::Matrix(self.d), &self.s[0]),
            Dens::Cat | Dens::Normal => {}
        }
    }

    fn proc_decl(&self, c: usize) -> ProcDecl {
        let var = |name: &str| Expr::var(format!("{name}{c}"));
        let at = |name: &str, i: &str| Expr::index(var(name), Expr::var(i));
        let wt = LValue { var: format!("wt{c}"), indices: vec![Expr::var("k")] };
        let acc = LValue { var: format!("wacc{c}"), indices: vec![Expr::var("i")] };
        let (args, point) = match self.dens {
            Dens::Cat => (vec![at("wp", "k")], at("wx", "i")),
            Dens::MvRow => (vec![at("wp", "k"), at("ws", "k")], at("wy", "i")),
            Dens::MvInv => (vec![at("wp", "k"), var("ws")], at("wy", "i")),
            Dens::Normal => (vec![at("wmu", "k"), at("wvar", "k")], at("wx", "i")),
        };
        let dist = match self.dens {
            Dens::Cat => DistKind::Categorical,
            Dens::MvRow | Dens::MvInv => DistKind::MvNormal,
            Dens::Normal => DistKind::Normal,
        };
        let store = |op, rhs| Stmt::Assign { lhs: wt.clone(), op, rhs };
        let mut body = Vec::new();
        if let Some(r) = self.reset {
            body.push(store(AssignOp::Set, Expr::Real(r)));
        }
        if self.prior {
            let prior = Expr::DistLl {
                dist: DistKind::Categorical,
                args: vec![var("wg")],
                point: Box::new(Expr::var("k")),
            };
            body.push(store(AssignOp::Inc, prior));
        }
        body.push(store(AssignOp::Inc, Expr::DistLl { dist, args, point: Box::new(point) }));
        if self.reads_back() {
            body.push(Stmt::Assign { lhs: acc.clone(), op: AssignOp::Inc, rhs: at("wt", "k") });
        }
        let hi =
            if self.prior { Expr::Len(Box::new(var("wg"))) } else { Expr::Int(self.hi as i64) };
        let inner = Stmt::Loop {
            kind: LoopKind::Seq,
            var: "k".into(),
            lo: Expr::Int(0),
            hi,
            body: Box::new(Stmt::Seq(body)),
        };
        let outer = Stmt::Seq(vec![
            Stmt::Assign { lhs: acc, op: AssignOp::Set, rhs: Expr::Real(0.0) },
            inner,
        ]);
        ProcDecl {
            name: format!("wl{c}"),
            body: Stmt::Loop {
                kind: self.kind,
                var: "i".into(),
                lo: Expr::Int(0),
                hi: Expr::Int(self.n as i64),
                body: Box::new(outer),
            },
            ret: None,
        }
    }

    /// Whether iteration `i` adds its weights into `acc[i]`.
    fn reads_back(&self) -> bool {
        self.reset.is_some() || self.kind == LoopKind::Seq
    }

    /// The final `wt` then `acc`, or `None` when an iteration panics.
    fn reference(&self) -> Option<Vec<f64>> {
        let mut wt = self.init.clone();
        let mut acc = vec![0.0; self.n];
        for (i, acc_i) in acc.iter_mut().enumerate() {
            for k in 0..self.hi {
                if k >= self.rows {
                    return None;
                }
                let ll = |dist: DistKind, args: &[ValueRef], point| {
                    dist.log_pdf(args, point).expect("a well-formed density")
                };
                let d = self.d;
                let y = ValueRef::Vector(&self.y[i]);
                let dens = match self.dens {
                    Dens::Cat => ll(
                        DistKind::Categorical,
                        &[ValueRef::Vector(&self.p[k])],
                        ValueRef::Scalar(self.x[i]),
                    ),
                    Dens::MvRow | Dens::MvInv => {
                        let cov = &self.s[if self.dens == Dens::MvRow { k } else { 0 }];
                        let args =
                            [ValueRef::Vector(&self.p[k]), ValueRef::Matrix { data: cov, dim: d }];
                        ll(DistKind::MvNormal, &args, y)
                    }
                    Dens::Normal => {
                        let args = [ValueRef::Scalar(self.p[k][0]), ValueRef::Scalar(self.p[k][1])];
                        ll(DistKind::Normal, &args, ValueRef::Scalar(self.x[i]))
                    }
                };
                let cell = wt.get_mut(k)?;
                if let Some(r) = self.reset {
                    *cell = r;
                }
                if self.prior {
                    *cell += match self.g[k] {
                        p if p > 0.0 => p.ln(),
                        _ => f64::NEG_INFINITY,
                    };
                }
                *cell += dens;
                if self.reads_back() {
                    *acc_i += *cell;
                }
            }
        }
        wt.extend(acc);
        Some(wt)
    }
}

#[test]
fn fused_weights_match_the_reference_on_every_engine() {
    let mut rng = Prng::seed_from_u64(0x3E16_4775);
    let cases: Vec<WeightCase> = (0..48).map(|c| WeightCase::gen(&mut rng, c)).collect();
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
    // Every case fuses its weight (twice where an empty `g` leaves the
    // prior term an `LlStore`: it fuses with the reset), and the batch
    // reaches each part: the reset, the prior term, row and cell loads,
    // and each density; in loops that fan out across workers and in ones
    // that panic.
    let fused = |i: &TInstr| matches!(i, TInstr::LlWeight(_));
    for (c, p) in table.tapes.iter().enumerate() {
        assert!(p.tape.instrs.iter().any(fused), "case {c} did not fuse:\n{}", p.tape.disasm());
    }
    let weights: Vec<&Weight> = table
        .tapes
        .iter()
        .flat_map(|p| &p.tape.instrs)
        .filter_map(|i| if let TInstr::LlWeight(wt) = i { Some(&**wt) } else { None })
        .collect();
    assert!(weights.iter().any(|w| w.reset.is_some()) && weights.iter().any(|w| w.reset.is_none()));
    assert!(weights.iter().any(|w| w.prior.is_some()) && weights.iter().any(|w| w.prior.is_none()));
    assert!(weights.iter().any(|w| w.loads.iter().any(|l| l.row)));
    assert!(weights.iter().any(|w| w.loads.iter().any(|l| !l.row)));
    for dist in [DistKind::Categorical, DistKind::MvNormal, DistKind::Normal] {
        assert!(weights.iter().any(|w| w.dist == dist), "no fused {dist:?} weight");
    }
    for kind in [LoopKind::Seq, LoopKind::Par, LoopKind::AtmPar] {
        let fans_out = |c: &&WeightCase| c.kind == kind && c.n >= 4 && c.hi > 0;
        assert!(cases.iter().any(|c| fans_out(&c) && c.reference().is_some()), "{kind:?}");
    }
    assert!(cases.iter().any(|c| c.n > 0 && c.hi == 0), "no zero-trip weight loop");
    let panics = |c: &&WeightCase| c.reference().is_none();
    assert!(cases.iter().filter(panics).any(|c| c.rows < c.w_len), "no case panics at a row");
    assert!(cases.iter().filter(panics).any(|c| c.w_len < c.rows), "no case panics at a store");

    let expected: Vec<_> = cases.iter().map(WeightCase::reference).collect();
    check_lanes(&st, &table, &expected, |lane, native, c| {
        run_caught(lane, &st, &table, native, c, &[format!("wt{c}"), format!("wacc{c}")])
    });
}
