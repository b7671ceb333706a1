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
/// a finite-sum weight, which the optimizer fuses. A `mat_acc` case binds
/// `acc` as a 3×3 matrix, whose one index addresses a cell, not a row.
struct Case {
    n: usize,
    outer: LoopKind,
    inner: LoopKind,
    mat_acc: bool,
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
            mat_acc: c % 3 == 1,
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
        let acc = if self.mat_acc { Shape::Matrix(3) } else { Shape::Vector(self.n) };
        st.insert(format!("acc{c}"), acc);
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
        acc.resize(if self.mat_acc { 9 } else { self.n }, 0.0);
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

/// Case `c` of the loop-nest batch after the generated ones: a `Par`
/// loop with a loop-carried read, `acc[i] = acc[i - 1] * 0.5 + i` for
/// `i` in `1..N_IN` over `acc[0] = 0.5` (and an empty `out`). It reads
/// the buffer it writes, so it is not write-partitioned and runs
/// sequentially at any thread count. Returns it with its reference.
fn carried_case(c: usize, st: &mut State) -> (ProcDecl, Vec<f64>) {
    st.insert(format!("out{c}"), Shape::Vector(0));
    let acc = st.insert(format!("acc{c}"), Shape::Vector(N_IN));
    st.flat_mut(acc)[0] = 0.5;
    let bin = |op, a, b| Expr::Binop(op, Box::new(a), Box::new(b));
    let acc = format!("acc{c}");
    let prev = Expr::index(Expr::var(&acc), bin(BinOp::Sub, Expr::var("i"), Expr::Int(1)));
    let rhs = bin(BinOp::Add, bin(BinOp::Mul, prev, Expr::Real(0.5)), Expr::var("i"));
    let body = Stmt::Assign {
        lhs: LValue { var: acc, indices: vec![Expr::var("i")] },
        op: AssignOp::Set,
        rhs,
    };
    let decl = ProcDecl {
        name: format!("p{c}"),
        body: Stmt::Loop {
            kind: LoopKind::Par,
            var: "i".into(),
            lo: Expr::Int(1),
            hi: Expr::Int(N_IN as i64),
            body: Box::new(body),
        },
        ret: None,
    };
    let want = (1..N_IN).fold(vec![0.5], |mut w, i| {
        w.push(w[i - 1] * 0.5 + i as f64);
        w
    });
    (decl, want)
}

#[test]
fn optimized_loop_nests_match_the_reference_on_every_engine() {
    let mut rng = Prng::seed_from_u64(0x1D7E_5EED);
    let cases: Vec<Case> = (0..N_NESTED + 16).map(|c| Case::gen(&mut rng, c)).collect();
    let mut st = State::new();
    for (c, case) in cases.iter().enumerate() {
        case.bind(c, &mut st);
    }
    let (carried, carried_want) = carried_case(cases.len(), &mut st);
    let decls = cases.iter().enumerate().map(|(c, case)| case.proc_decl(c));
    let mut table = ProcTable::default();
    for p in decls.chain([carried]) {
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

    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    let mut expected: Vec<Vec<u64>> = cases.iter().map(|c| bits(&c.reference())).collect();
    expected.push(bits(&carried_want));
    let n = expected.len();
    let tree = run_lane(Lane::Tree, &st, &table, n).expect("tree lane");
    let tape = run_lane(Lane::Tape(1), &st, &table, n).expect("tape lane");
    let mut dispatched = 0;
    for lane in [Lane::Tree, Lane::Tape(1), Lane::Tape(3), Lane::Native, Lane::Gpu] {
        let Some(got) = run_lane(lane, &st, &table, n) else { continue };
        dispatched += got.iter().map(|(.., m)| m.par_dispatches).sum::<u64>();
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
    assert!(dispatched > 0, "no loop of the batch fanned out on {:?}", Lane::Tape(3));
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
///   dst[z[i]] op= rhs                  (dst unindexed unless Rows;
///                                       dst[i] when direct)
/// ```
///
/// `src` is row `i` of `x`, or — `alias` — the destination's own cells:
/// all of them, or row 0 of a `Rows` destination (of a matrix for an
/// outer product). Each store covers `width` cells. In a `mismatch`
/// case one row of `x` is a cell longer, so that iteration panics (the
/// store's length check, or the outer product's operand check). A
/// `direct` case is a write-partitioned `Par` loop: iteration `i` stores
/// row `i` of a `Rows` destination with `n` rows (and `z[i] = i`).
struct AccCase {
    n: usize,
    kind: LoopKind,
    rhs: Rhs,
    dst: Dst,
    /// `Set` instead of `Inc` (state rows only).
    set: bool,
    alias: bool,
    direct: bool,
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

/// Cases of the accumulate-store batch that store through `z`; the rest
/// are `direct`.
const N_SHARED: usize = 48;

impl AccCase {
    /// Case `c` of a batch: the right-hand side, destination and
    /// aliasing cycle with `c`, so every batch of 24 covers each
    /// pairing. Cases from [`N_SHARED`] on are `direct`.
    fn gen(rng: &mut Prng, c: usize) -> AccCase {
        let direct = c >= N_SHARED;
        let rhs = [Rhs::Scale, Rhs::Grad, Rhs::Outer, Rhs::Row][c % 4];
        let dst = if direct { Dst::Rows } else { [Dst::Vector, Dst::Matrix, Dst::Rows][c / 4 % 3] };
        // An outer product can alias only a matrix row.
        let alias = !direct && c / 12 % 2 == 1 && (rhs != Rhs::Outer || dst == Dst::Matrix);
        let d = if dst == Dst::Vector { rng.below(4) } else { 1 + rng.below(3) };
        let width = if rhs == Rhs::Outer || dst == Dst::Matrix { d * d } else { rng.below(5) };
        let src_len = if rhs == Rhs::Outer { d } else { width };
        // Zero-trip loops about one case in seven; a direct case fans
        // out across workers, from four iterations.
        let n = if direct { 4 + rng.below(3) } else { rng.below(7) };
        let k = if direct { n } else { 1 + rng.below(3) };
        let long = (!alias && c.is_multiple_of(5) && n > 0).then(|| rng.below(n));
        let draw =
            |rng: &mut Prng, len: usize| (0..len).map(|_| rng.uniform_range(-2.0, 2.0)).collect();
        let kinds = [LoopKind::Seq, LoopKind::Par, LoopKind::AtmPar];
        let y_len = d + rng.below(2);
        let cells = if dst == Dst::Rows { k * width } else { width };
        AccCase {
            n,
            kind: if direct {
                LoopKind::Par
            } else if alias {
                LoopKind::Seq
            } else {
                kinds[rng.below(3)]
            },
            rhs,
            dst,
            set: rhs == Rhs::Row && rng.below(4) == 0,
            alias,
            direct,
            d,
            width,
            k,
            x: (0..n).map(|i| draw(rng, src_len + usize::from(long == Some(i)))).collect(),
            y: (0..k).map(|_| draw(rng, y_len)).collect(),
            z: (0..n).map(|i| if direct { i as f64 } else { rng.below(k) as f64 }).collect(),
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
        let indices = match self.dst {
            Dst::Rows if self.direct => vec![Expr::var("i")],
            Dst::Rows => vec![at_i("az")],
            _ => vec![],
        };
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
/// buffers `bufs`, the work charged and the loops dispatched to the
/// worker pool, or the panic message.
fn run_caught(
    lane: Lane,
    st: &State,
    table: &ProcTable,
    native: Option<&Arc<NativeModule>>,
    c: usize,
    bufs: &[String],
) -> Result<(Vec<u64>, u64, u64), String> {
    let mut eng = lane_engine(lane, st, native);
    catch_unwind(AssertUnwindSafe(|| eng.run_proc(table, c))).map_err(|payload| {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    })?;
    let bits = bufs.iter().flat_map(|b| eng.flat_of(b).iter().map(|x| x.to_bits())).collect();
    Ok((bits, eng.work(), eng.metrics.par_dispatches))
}

/// [`run_caught`] on an accumulate-store case's destination.
fn run_acc(
    lane: Lane,
    st: &State,
    table: &ProcTable,
    native: Option<&Arc<NativeModule>>,
    c: usize,
) -> Result<(Vec<u64>, u64, u64), String> {
    run_caught(lane, st, table, native, c, &[format!("ad{c}")])
}

/// Checks every lane's runs of a batch against its reference results
/// (`None` where the reference panics): equal bits and the tree's work,
/// or the tree's panic message; and that a lane (the three-thread tape,
/// the only one with workers) fanned at least one loop out.
fn check_lanes(
    st: &State,
    table: &ProcTable,
    expected: &[Option<Vec<f64>>],
    run: impl Fn(Lane, Option<&Arc<NativeModule>>, usize) -> Result<(Vec<u64>, u64, u64), String>,
) {
    let native = native_module(table, st);
    let lanes = [Lane::Tree, Lane::Tape(1), Lane::Tape(3), Lane::Native];
    let tree: Vec<_> = (0..expected.len()).map(|c| run(Lane::Tree, None, c)).collect();
    let mut dispatched = 0;
    for lane in lanes {
        if lane == Lane::Native && native.is_none() {
            continue;
        }
        for (c, want) in expected.iter().enumerate() {
            let got = run(lane, native.as_ref(), c);
            match (want, &got, &tree[c]) {
                (Some(want), Ok((bits, work, dispatches)), Ok((_, tree_work, _))) => {
                    let want: Vec<u64> = want.iter().map(|x| x.to_bits()).collect();
                    assert_eq!(*bits, want, "{lane:?}: case {c} differs from the reference");
                    assert_eq!(work, tree_work, "{lane:?}: case {c} charged different work");
                    dispatched += dispatches;
                }
                (None, Err(msg), Err(tree_msg)) => {
                    assert_eq!(msg, tree_msg, "{lane:?}: case {c} panicked differently");
                }
                _ => panic!("{lane:?}: case {c} ran {got:?}, the tree {:?}", tree[c]),
            }
        }
    }
    assert!(dispatched > 0, "no loop of the batch fanned out on {:?}", Lane::Tape(3));
}

#[test]
fn accumulate_stores_match_the_reference_on_every_engine() {
    let mut rng = Prng::seed_from_u64(0xACC_5707E);
    let cases: Vec<AccCase> = (0..N_SHARED + 12).map(|c| AccCase::gen(&mut rng, c)).collect();
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
    // in loops that fan out across workers, in `AtmPar` loops long
    // enough to fan out, which run sequentially, and in ones that panic.
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
///     acc[i] += wt[k]
/// ```
///
/// The parameters have `rows` rows and `wt` has `w_len` cells: `hi`, or
/// one fewer, so that iteration panics at a row or at the store. With a
/// reset `wt` is thread-local scratch, as the compiler's weight vectors
/// are, and a `Par` loop is write-partitioned; without one `wt[k]` sums
/// over `i`, a loop-carried read that keeps every kind of loop
/// sequential.
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
        if self.reset.is_some() {
            st.mark_thread_local(st.expect_id(&format!("wt{c}")));
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
        body.push(Stmt::Assign { lhs: acc.clone(), op: AssignOp::Inc, rhs: at("wt", "k") });
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
                *acc_i += *cell;
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

/// A `+=` store of a generated statistic loop, and the plan destination
/// it compiles to (nested in a `Par` loop over `p`, every destination
/// gains `p` as its first index).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Stat {
    /// `d[g] += 1`, a count: `Cell1` (nested `d[p][g]`, `Cell2`).
    Count,
    /// `d[g] += x[i]`, a cell sum: `Cell1` (nested `d[p][g]`, `Cell2`).
    Sum,
    /// `d += x[i]`, a total: `Cell0` (nested `d[p]`, `Cell1`).
    Total,
    /// `d[g][c[i]] += x[i]`, a cell of a row: `Cell2` (nested
    /// `d[p][c[i]]`).
    Cell,
    /// `d[g] += y[i]`, a row sum: `Row1` (nested `d[p]`).
    RowSum,
    /// `d[g] += outer_sub(y[i], m[g])`, a scatter into a row of
    /// matrices: `Row1` (nested `d[p]`).
    Outer,
}

const STATS: [Stat; 6] =
    [Stat::Count, Stat::Sum, Stat::Total, Stat::Cell, Stat::RowSum, Stat::Outer];

/// How a faulty case breaks iteration `f`.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Fault {
    /// `z[f] = -1`.
    Negative,
    /// `z[f] = NaN`.
    Nan,
    /// `z[f] = k`, one past the last group.
    PastEnd,
    /// `c[f] = w`, one past a `Cell` row.
    PastRow,
    /// Row `y[f]` is a cell longer than the others.
    LongRow,
}

/// One generated statistic loop:
///
/// ```text
/// [for p <- 0 until np:]              (Par, when nested: write-partitioned)
///   for i <- 0 until n:               (Seq or AtmPar)
///     d0[…] += …                      (one to three `Stat` stores, each
///     …                                into its own buffer)
/// ```
///
/// The group index `g` is a cell load `z[i]`, or the index `i` itself
/// (which runs past the `k` groups when `n > k`). A `fault` breaks
/// iteration `f` of every `p`.
struct ScatterCase {
    n: usize,
    kind: LoopKind,
    np: Option<usize>,
    k: usize,
    d: usize,
    /// Row length of a `Cell` destination.
    w: usize,
    by_index: bool,
    stats: Vec<Stat>,
    fault: Option<(Fault, usize)>,
    x: Vec<f64>,
    z: Vec<f64>,
    c: Vec<f64>,
    y: Vec<Vec<f64>>,
    m: Vec<Vec<f64>>,
    /// Each destination's initial cells.
    init: Vec<Vec<f64>>,
}

/// Generated statistic loops: every store form in flat and nested
/// loops, faulty and not.
const N_SCATTER: usize = 60;

impl ScatterCase {
    /// Case `c`: the first store cycles through every form, one case in
    /// four is nested, one in three faulty (cycling through the faults),
    /// one in seven a zero-trip loop.
    fn gen(rng: &mut Prng, c: usize) -> ScatterCase {
        let np = (c % 4 == 3).then(|| 4 + rng.below(3));
        let n = if c.is_multiple_of(7) { 0 } else { 1 + rng.below(8) };
        let (k, d, w) = (1 + rng.below(3), 1 + rng.below(3), 1 + rng.below(3));
        let mut stats = vec![STATS[(c + c / 4) % 6]];
        // At most three stores, so a plan's eight buffer slots suffice.
        for _ in 0..rng.below(2) {
            let s = STATS[rng.below(6)];
            if !stats.contains(&s) {
                stats.push(s);
            }
        }
        let faults = [Fault::Negative, Fault::Nan, Fault::PastEnd, Fault::PastRow, Fault::LongRow];
        let fault = (c % 3 == 1 && n > 0).then(|| (faults[c / 3 % 5], rng.below(n)));
        match fault {
            Some((Fault::PastRow, _)) if !stats.contains(&Stat::Cell) => stats.push(Stat::Cell),
            Some((Fault::LongRow, _))
                if !stats.contains(&Stat::RowSum) && !stats.contains(&Stat::Outer) =>
            {
                stats.push(Stat::RowSum)
            }
            _ => {}
        }
        let by_index = np.is_none() && fault.is_none() && rng.below(5) == 0;
        let draw = |rng: &mut Prng, len: usize| -> Vec<f64> {
            (0..len).map(|_| rng.uniform_range(-2.0, 2.0)).collect()
        };
        let mut z: Vec<f64> = (0..n).map(|_| rng.below(k) as f64).collect();
        let mut cols: Vec<f64> = (0..n).map(|_| rng.below(w) as f64).collect();
        let mut y: Vec<Vec<f64>> = (0..n).map(|_| draw(rng, d)).collect();
        match fault {
            Some((Fault::Negative, f)) => z[f] = -1.0,
            Some((Fault::Nan, f)) => z[f] = f64::NAN,
            Some((Fault::PastEnd, f)) => z[f] = k as f64,
            Some((Fault::PastRow, f)) => cols[f] = w as f64,
            Some((Fault::LongRow, f)) => y[f].push(0.5),
            None => {}
        }
        let mut case = ScatterCase {
            n,
            kind: [LoopKind::Seq, LoopKind::AtmPar][rng.below(2)],
            np,
            k,
            d,
            w,
            by_index,
            stats,
            fault,
            x: draw(rng, n),
            z,
            c: cols,
            y,
            m: (0..k)
                .map(|_| {
                    let len = d + rng.below(2);
                    draw(rng, len)
                })
                .collect(),
            init: Vec::new(),
        };
        case.init =
            (0..case.stats.len()).map(|s| draw(rng, case.dest_shape(s).num_cells())).collect();
        case
    }

    /// Rows, or cells, of one destination per group (per `p` nested).
    fn slots(&self) -> usize {
        self.np.unwrap_or(self.k)
    }

    /// The shape of store `s`'s destination.
    fn dest_shape(&self, s: usize) -> Shape {
        let rows = |n: usize, len: usize, elem| Shape::Rows {
            offsets: (0..=n).map(|r| r * len).collect(),
            elem,
        };
        let nested = self.np.is_some();
        match self.stats[s] {
            Stat::Count | Stat::Sum if nested => rows(self.slots(), self.k, RowElem::Vec),
            Stat::Count | Stat::Sum => Shape::Vector(self.k),
            Stat::Total if nested => Shape::Vector(self.slots()),
            Stat::Total => Shape::Num,
            Stat::Cell => rows(self.slots(), self.w, RowElem::Vec),
            Stat::RowSum => rows(self.slots(), self.d, RowElem::Vec),
            Stat::Outer => rows(self.slots(), self.d * self.d, RowElem::Mat(self.d)),
        }
    }

    /// Binds this case's buffers (suffixed `c`) into the shared state.
    fn bind(&self, c: usize, st: &mut State) {
        let mut put = |name: String, shape: Shape, cells: &[f64]| {
            let id = st.insert(name, shape);
            st.flat_mut(id).copy_from_slice(cells);
        };
        let rows = |rs: &[Vec<f64>]| {
            let mut offsets = vec![0];
            for r in rs {
                offsets.push(offsets.last().unwrap() + r.len());
            }
            Shape::Rows { offsets, elem: RowElem::Vec }
        };
        put(format!("sx{c}"), Shape::Vector(self.n), &self.x);
        put(format!("sz{c}"), Shape::Vector(self.n), &self.z);
        put(format!("sc{c}"), Shape::Vector(self.n), &self.c);
        put(format!("sy{c}"), rows(&self.y), &self.y.concat());
        put(format!("sm{c}"), rows(&self.m), &self.m.concat());
        for (s, init) in self.init.iter().enumerate() {
            put(format!("sd{c}_{s}"), self.dest_shape(s), init);
        }
    }

    fn dest_names(&self, c: usize) -> Vec<String> {
        (0..self.stats.len()).map(|s| format!("sd{c}_{s}")).collect()
    }

    fn proc_decl(&self, c: usize) -> ProcDecl {
        let var = |name: &str| Expr::var(format!("{name}{c}"));
        let at_i = |name: &str| Expr::index(var(name), Expr::var("i"));
        let g = if self.by_index { Expr::var("i") } else { at_i("sz") };
        let slot = if self.np.is_some() { Expr::var("p") } else { g.clone() };
        let cell = |mut idx: Vec<Expr>| {
            if self.np.is_some() {
                idx.insert(0, Expr::var("p"));
            }
            idx
        };
        let stores = self.stats.iter().enumerate().map(|(s, stat)| {
            let (indices, rhs) = match stat {
                Stat::Count => (cell(vec![g.clone()]), Expr::Real(1.0)),
                Stat::Sum => (cell(vec![g.clone()]), at_i("sx")),
                Stat::Total => (cell(vec![]), at_i("sx")),
                Stat::Cell => (vec![slot.clone(), at_i("sc")], at_i("sx")),
                Stat::RowSum => (vec![slot.clone()], at_i("sy")),
                Stat::Outer => (
                    vec![slot.clone()],
                    Expr::Op(OpN::OuterSub, vec![at_i("sy"), Expr::index(var("sm"), g.clone())]),
                ),
            };
            let lhs = LValue { var: format!("sd{c}_{s}"), indices };
            Stmt::Assign { lhs, op: AssignOp::Inc, rhs }
        });
        let loop_ = |kind, var: &str, hi: usize, body| Stmt::Loop {
            kind,
            var: var.into(),
            lo: Expr::Int(0),
            hi: Expr::Int(hi as i64),
            body: Box::new(body),
        };
        let inner = loop_(self.kind, "i", self.n, Stmt::seq(stores.collect()));
        let body = match self.np {
            Some(np) => loop_(LoopKind::Par, "p", np, inner),
            None => inner,
        };
        ProcDecl { name: format!("s{c}"), body, ret: None }
    }

    /// The destinations' cells after the run, and whether it panics: the
    /// run stops at the first store whose operands or destination fail,
    /// after every earlier store (of that iteration too). Each store
    /// evaluates its value, then its destination, then stores.
    fn reference(&self) -> (Vec<Vec<f64>>, bool) {
        let at = |x: f64, len: usize| (x >= 0.0 && (x as usize) < len).then_some(x as usize);
        let mut dst = self.init.clone();
        let (k, d, w) = (self.k, self.d, self.w);
        for p in 0..self.np.unwrap_or(1) {
            for i in 0..self.n {
                let g = if self.by_index { i as f64 } else { self.z[i] };
                for (s, stat) in self.stats.iter().enumerate() {
                    let val = match stat {
                        Stat::Count => vec![1.0],
                        Stat::Sum | Stat::Total | Stat::Cell => vec![self.x[i]],
                        Stat::RowSum => self.y[i].clone(),
                        Stat::Outer => {
                            let (a, Some(r)) = (&self.y[i], at(g, k)) else { return (dst, true) };
                            if self.m[r].len() < a.len() {
                                return (dst, true);
                            }
                            let diff: Vec<f64> =
                                a.iter().zip(&self.m[r]).map(|(p, q)| p - q).collect();
                            diff.iter().flat_map(|p| diff.iter().map(move |q| p * q)).collect()
                        }
                    };
                    let nested = self.np.is_some();
                    let group = if nested { Some(p) } else { at(g, k) };
                    let range = match stat {
                        Stat::Count | Stat::Sum if nested => at(g, k).map(|g| (p * k + g, 1)),
                        Stat::Count | Stat::Sum => at(g, k).map(|g| (g, 1)),
                        Stat::Total => Some((if nested { p } else { 0 }, 1)),
                        Stat::Cell => group.zip(at(self.c[i], w)).map(|(r, col)| (r * w + col, 1)),
                        Stat::RowSum => group.map(|r| (r * d, d)),
                        Stat::Outer => group.map(|r| (r * d * d, d * d)),
                    };
                    let Some((start, len)) = range.filter(|&(_, len)| len == val.len()) else {
                        return (dst, true);
                    };
                    for (cell, v) in dst[s][start..start + len].iter_mut().zip(&val) {
                        *cell += v;
                    }
                }
            }
        }
        (dst, false)
    }
}

/// One run of a statistic-loop case: the panic message if it panicked,
/// the destinations' bits, the work charged and the engine's metrics.
type ScatterRun = (Option<String>, Vec<u64>, u64, EngineMetrics);

fn run_scatter_case(
    lane: Lane,
    st: &State,
    table: &ProcTable,
    native: Option<&Arc<NativeModule>>,
    c: usize,
    bufs: &[String],
) -> ScatterRun {
    let mut eng = lane_engine(lane, st, native);
    let panic = catch_unwind(AssertUnwindSafe(|| eng.run_proc(table, c))).err().map(|payload| {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    });
    let bits = bufs.iter().flat_map(|b| eng.flat_of(b).iter().map(|x| x.to_bits())).collect();
    (panic, bits, eng.work(), eng.metrics)
}

#[test]
fn scatter_loops_match_the_reference_on_every_engine() {
    let mut rng = Prng::seed_from_u64(0x5CA7_7E25);
    let cases: Vec<ScatterCase> = (0..N_SCATTER).map(|c| ScatterCase::gen(&mut rng, c)).collect();
    let mut st = State::new();
    for (c, case) in cases.iter().enumerate() {
        case.bind(c, &mut st);
    }
    // The same procedures twice: with their scatter plans, and without
    // (every loop on the instruction path).
    let (mut table, mut unplanned) = (ProcTable::default(), ProcTable::default());
    for (c, case) in cases.iter().enumerate() {
        let p = case.proc_decl(c);
        for t in [&mut table, &mut unplanned] {
            let cpu = Compiler::new(&st).proc(&p);
            let gpu = Compiler::new(&st).blk_proc(&augur_blk::to_blocks(&p));
            t.insert(cpu, gpu, &st);
        }
    }
    for p in &mut unplanned.tapes {
        p.tape.scatters.clear();
    }
    // Every generated loop is a statistic loop, and the batch covers
    // every store form, flat and nested, faulty and zero-trip loops.
    for (c, p) in table.tapes.iter().enumerate() {
        assert_eq!(p.tape.scatters.len(), 1, "case {c} ({:?}) has no scatter plan", cases[c].stats);
    }
    for stat in STATS {
        for nested in [false, true] {
            let covered = cases.iter().any(|c| c.stats.contains(&stat) && c.np.is_some() == nested);
            assert!(covered, "no {stat:?} store (nested: {nested})");
        }
    }
    let expected: Vec<_> = cases.iter().map(ScatterCase::reference).collect();
    assert!(expected.iter().filter(|(_, panics)| *panics).count() >= 10, "too few faulty cases");
    assert!(cases.iter().any(|c| c.n == 0), "no zero-trip loop");

    let native = native_module(&table, &st);
    let bits = |cells: &[Vec<f64>]| cells.concat().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let run = |lane, table: &ProcTable, native, c: usize| {
        run_scatter_case(lane, &st, table, native, c, &cases[c].dest_names(c))
    };
    let tree: Vec<ScatterRun> =
        (0..cases.len()).map(|c| run(Lane::Tree, &table, None, c)).collect();
    let reference: Vec<ScatterRun> =
        (0..cases.len()).map(|c| run(Lane::Tape(1), &unplanned, None, c)).collect();
    let mut planned_iters = [0; 2];
    let mut dispatched = 0;
    for lane in [Lane::Tree, Lane::Tape(1), Lane::Tape(3), Lane::Native] {
        if lane == Lane::Native && native.is_none() {
            continue;
        }
        for (c, ((want, panics), case)) in expected.iter().zip(&cases).enumerate() {
            let (panic, got, work, metrics) = run(lane, &table, native.as_ref(), c);
            let at = format!("{lane:?}: case {c} ({:?}, {:?})", case.stats, case.fault);
            assert_eq!(panic.is_some(), *panics, "{at}: panicked {panic:?}");
            assert_eq!(panic, tree[c].0, "{at}: panicked differently from the tree");
            // A worker that panics hands nothing back, so a nested loop
            // that panics at three threads leaves only what the main
            // engine stored.
            if !(lane == Lane::Tape(3) && case.np.is_some() && *panics) {
                assert_eq!(got, bits(want), "{at}: state differs from the reference");
            }
            if !panics {
                assert_eq!(work, tree[c].2, "{at}: charged different work");
            }
            if let Lane::Tape(threads) = lane {
                let plain = &reference[c];
                if threads == 1 || !panics {
                    assert_eq!(work, plain.2, "{at}: work differs from the instruction path");
                    let (a, b) = (&metrics, &plain.3);
                    assert_eq!(a.instrs_retired, b.instrs_retired, "{at}: instructions retired");
                    assert_eq!(a.op_class, b.op_class, "{at}: op classes");
                }
                planned_iters[threads / 3] += metrics.scatter_iters;
                dispatched += metrics.par_dispatches;
            }
        }
    }
    assert!(planned_iters[0] > 0, "no scatter plan ran on {:?}", Lane::Tape(1));
    assert!(planned_iters[1] > 0, "no scatter plan ran on {:?}", Lane::Tape(3));
    assert!(dispatched > 0, "no nested loop fanned out on {:?}", Lane::Tape(3));
    assert!(reference.iter().all(|r| r.3.scatter_iters == 0), "the instruction path ran a plan");
}
