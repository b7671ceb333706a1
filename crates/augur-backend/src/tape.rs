//! The tape engine: slot-resolved procedures compiled to a flat,
//! register-based instruction array executed by a tight dispatch loop.
//!
//! The tree-walking interpreter in [`crate::eval`] recurses over boxed
//! `RExpr`/`RStmt` nodes; every node costs a virtual call, a pointer chase
//! and a branch mispredict. This module plays the role the emitted
//! CUDA/C code plays in the paper's native pipeline: the one-time
//! compilation step that removes interpretive overhead from the sweep
//! loop. Each procedure is lowered once — at [`ProcTable::insert`] time —
//! into a [`Tape`]: a linear `Vec<TInstr>` with structured control flow
//! (loops, conditionals) resolved to pre-computed jump offsets.
//!
//! Two design decisions carry the speedup over the tree-walker:
//!
//! * **Split register banks.** Scalar values live in a plain `Vec<f64>`
//!   bank; only vector/matrix views occupy the [`View`] bank. Because
//!   buffer *shapes* are known when the tape is compiled (the emitter
//!   holds the [`State`]), every expression's kind is inferred statically
//!   and scalar instructions never touch the enum bank — no discriminant
//!   checks, no drop glue, no 32-byte moves on the hot path. A packed
//!   operand ([`Opd`]) selects the bank with its high bit.
//! * **Fused addressing.** The common `buf[i]` and `buf[i][j]` chains
//!   (a `Ref` plus one or two `Index` nodes in the tree) collapse into
//!   single [`TInstr::LoadCell1`]/[`TInstr::LoadRow1`]/
//!   [`TInstr::LoadCell2`] instructions that read the state directly.
//!
//! The tape executes the *same* abstract machine as the tree-walker: the
//! same state buffers, the same work-unit accounting (fused instructions
//! charge exactly the work of the tree nodes they replace), and —
//! crucially — the same RNG discipline (draws happen only in
//! `Sample`/`SampleLogits` instructions and at parallel-loop reseed
//! points), so for a fixed seed the two strategies produce bit-identical
//! traces. The tree-walker is kept as the reference oracle; differential
//! tests assert equality.
//!
//! The tape is also the last IL before native code: [`crate::native`]
//! prints each [`TapeProc`] as C, running the scalar instructions inline
//! and every other instruction through `Engine::exec_instr` — the
//! function this module's dispatch loop hands every non-control
//! instruction to — so the two fast engines share one lowering and one
//! implementation of each instruction.
//!
//! [`ProcTable::insert`]: crate::compile::ProcTable::insert
//! [`State`]: crate::state::State

use augur_dist::{DistKind, ValueMut, ValueRef};
use augur_lang::ast::{BinOp, Builtin};
use augur_low::il::{AssignOp, LoopKind, OpN};

use crate::compile::{RExpr, RLValue, RProc, RRef, RStmt};
use crate::eval::{
    dest_index, dist_op_cost, sample_cost, slice_of, value_ref_of, view_cells, Dest, Engine,
    OwnArg, OwnVal, View,
};
use crate::state::{BufId, Cells, Loc, RowElem, Shape, State};

/// Minimum iteration span worth fanning out to the worker pool. Kept low
/// so small models still exercise (and differentially test) the parallel
/// path; bit-identity makes the threshold a pure throughput knob.
const MIN_PAR_SPAN: i64 = 4;

/// Which execution backend the engine uses for compiled CPU procedures.
///
/// Every backend implements the same abstract machine and produces
/// bit-identical traces for a fixed seed; they differ only in dispatch
/// overhead. Selected via [`SessionConfig::backend`] or the
/// `AUGUR_BACKEND` environment variable (`tree` / `tape` / `native`).
/// The choice applies to the CPU target: a simulated-GPU session always
/// runs Blk IL on the tree-walker and reports [`ExecBackend::Tree`] (see
/// [`Session::backend`]).
///
/// [`SessionConfig::backend`]: crate::driver::SessionConfig::backend
/// [`Session::backend`]: crate::driver::Session::backend
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum ExecBackend {
    /// Recursive tree-walking over the slot-resolved IL (the reference
    /// oracle).
    Tree,
    /// Flat register-machine tape compiled at table-insertion time
    /// (the default).
    #[default]
    Tape,
    /// Emitted C compiled with the host toolchain and `dlopen`ed (the
    /// paper's native pipeline). Falls back to [`ExecBackend::Tape`] with
    /// a recorded reason when no C toolchain is available; see
    /// [`Session::backend_fallback`].
    ///
    /// [`Session::backend_fallback`]: crate::driver::Session::backend_fallback
    Native,
}

impl ExecBackend {
    /// Parses a backend name as accepted by `AUGUR_BACKEND`
    /// (case-insensitive `tree` / `tape` / `native`).
    pub fn parse(name: &str) -> Option<ExecBackend> {
        match name.to_ascii_lowercase().as_str() {
            "tree" => Some(ExecBackend::Tree),
            "tape" => Some(ExecBackend::Tape),
            "native" => Some(ExecBackend::Native),
            _ => None,
        }
    }
}

/// Bank selector bit of a packed operand.
const VBIT: u32 = 1 << 31;

/// A packed operand: an index into the scalar (`f64`) register bank, or —
/// when the high bit is set — into the view bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Opd(u32);

impl Opd {
    /// Scalar register `r`.
    #[inline]
    pub(crate) fn f(r: u32) -> Opd {
        Opd(r)
    }

    /// View register `r`.
    #[inline]
    pub(crate) fn v(r: u32) -> Opd {
        Opd(r | VBIT)
    }

    /// True when the operand names a view register.
    #[inline]
    pub fn is_view(self) -> bool {
        self.0 & VBIT != 0
    }

    /// The register index within its bank.
    #[inline]
    pub fn index(self) -> usize {
        (self.0 & !VBIT) as usize
    }
}

/// Statically-inferred expression kind. Shapes are known at tape-compile
/// time, so every expression is assigned a bank before execution; `Dyn`
/// (gradient results, scalar or vector depending on the distribution)
/// stays in the view bank and is coerced where a scalar is required.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EK {
    Num,
    Vec,
    Mat,
    RowsVec,
    RowsMat,
    Dyn,
}

/// Maximum number of index expressions on a store destination. Resolved
/// stores index at most a `Rows` row plus a cell within it.
const MAX_LHS_IDX: usize = 4;

/// A compiled store destination with its addressing mode resolved at
/// tape-compile time from the target buffer's shape, so the hot store
/// path needs no shape dispatch. Index fields name scalar registers
/// holding the (already-evaluated) index values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TDest {
    /// The single cell of a scalar buffer.
    Cell0 {
        /// Target buffer (shape `Num`).
        buf: BufId,
    },
    /// A directly-addressed cell: `buf[f[i]]` of a vector (or flat
    /// matrix-cell) buffer.
    Cell1 {
        /// Target buffer.
        buf: BufId,
        /// Scalar register holding the cell index.
        i: u32,
        /// Static flat length, for the bounds check.
        len: u32,
    },
    /// A whole row of a `Rows` buffer: `buf[f[i]]`.
    Row1 {
        /// Target buffer (shape `Rows`).
        buf: BufId,
        /// Scalar register holding the row index.
        i: u32,
    },
    /// A cell behind a row: `buf[f[row]][f[col]]` of a `Rows` buffer.
    Cell2 {
        /// Target buffer (shape `Rows`).
        buf: BufId,
        /// Scalar register holding the row index.
        row: u32,
        /// Scalar register holding the column index.
        col: u32,
    },
    /// Any other form (whole-buffer ranges, deeper chains): resolved by
    /// the generic index walk.
    Slow {
        /// Target buffer.
        buf: BufId,
        /// Scalar registers holding index values, in application order.
        idx: [u32; MAX_LHS_IDX],
        /// How many of `idx` are meaningful.
        n_idx: u8,
    },
}

/// Gradient target of a [`TInstr::DistGrad`] instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GradWrt {
    /// Differentiate with respect to parameter `i`.
    Param(u8),
    /// Differentiate with respect to the point.
    Point,
}

/// One tape instruction. Bare `u32` fields name a register in the bank
/// implied by the instruction (`f…` scalar, `v…` view); [`Opd`] fields
/// carry their own bank selector. Jump targets are absolute instruction
/// indices.
#[derive(Debug, Clone, PartialEq)]
pub enum TInstr {
    /// `f[dst] ← constant`.
    ConstF {
        /// Destination scalar register.
        dst: u32,
        /// The constant.
        val: f64,
    },
    /// `f[dst] ← env[depth]` (an enclosing loop variable).
    LoopIdx {
        /// Destination scalar register.
        dst: u32,
        /// Loop-nesting depth from the outside.
        depth: u32,
    },
    /// `f[dst] ← buf` for a scalar-shaped buffer.
    LoadScalar {
        /// Destination scalar register.
        dst: u32,
        /// The buffer (shape `Num`).
        buf: BufId,
    },
    /// `v[dst] ← view of buf` for a vector/matrix/rows buffer.
    RefBufV {
        /// Destination view register.
        dst: u32,
        /// The buffer.
        buf: BufId,
    },
    /// `f[dst] ← buf[f[i]]` — fused load of a vector-buffer cell
    /// (replaces a `Ref` + `Index` tree chain; charges their work).
    LoadCell1 {
        /// Destination scalar register.
        dst: u32,
        /// The buffer (shape `Vector`).
        buf: BufId,
        /// Scalar register holding the index.
        i: u32,
    },
    /// `v[dst] ← buf[f[i]]` — fused load of a matrix row or a `Rows`
    /// element.
    LoadRow1 {
        /// Destination view register.
        dst: u32,
        /// The buffer (shape `Matrix` or `Rows`).
        buf: BufId,
        /// Scalar register holding the index.
        i: u32,
    },
    /// `f[dst] ← buf[f[row]][f[col]]` — fused load of a cell behind a
    /// double index (matrix cell or ragged-row element).
    LoadCell2 {
        /// Destination scalar register.
        dst: u32,
        /// The buffer (shape `Matrix` or `Rows` of vectors).
        buf: BufId,
        /// Scalar register holding the first (row) index.
        row: u32,
        /// Scalar register holding the second (column) index.
        col: u32,
    },
    /// `f[dst] ← scalar of v[a]` — zero-work bank coercion; panics when
    /// the view is not scalar (mirrors the tree's `eval_num`).
    NumOf {
        /// Destination scalar register.
        dst: u32,
        /// Source view register.
        a: u32,
    },
    /// `f[dst] ← base[f[idx]]` for a dynamically-typed base yielding a
    /// scalar.
    IndexF {
        /// Destination scalar register.
        dst: u32,
        /// Operand holding the indexable value.
        base: Opd,
        /// Scalar register holding the index.
        idx: u32,
    },
    /// `v[dst] ← base[f[idx]]` yielding a sub-view (matrix row, rows
    /// element).
    IndexV {
        /// Destination view register.
        dst: u32,
        /// Operand holding the indexable value.
        base: Opd,
        /// Scalar register holding the index.
        idx: u32,
    },
    /// `f[dst] ← f[a] ⊕ f[b]`.
    BinopF {
        /// Destination scalar register.
        dst: u32,
        /// The operator.
        op: BinOp,
        /// Left operand register.
        a: u32,
        /// Right operand register.
        b: u32,
    },
    /// `f[dst] ← −f[a]`.
    NegF {
        /// Destination scalar register.
        dst: u32,
        /// Operand register.
        a: u32,
    },
    /// `f[dst] ← g(f[a])` for a unary builtin (sigmoid/exp/log/sqrt).
    Call1F {
        /// Destination scalar register.
        dst: u32,
        /// The builtin.
        f: Builtin,
        /// Operand register.
        a: u32,
    },
    /// `f[dst] ← dot(a, b)`.
    DotF {
        /// Destination scalar register.
        dst: u32,
        /// Left vector operand.
        a: Opd,
        /// Right vector operand.
        b: Opd,
    },
    /// `v[dst] ← op(a)` for a unary vector/matrix primitive.
    Op1 {
        /// Destination view register.
        dst: u32,
        /// The primitive.
        op: OpN,
        /// Operand.
        a: Opd,
    },
    /// `v[dst] ← op(a, b)` for a binary vector/matrix primitive.
    Op2 {
        /// Destination view register.
        dst: u32,
        /// The primitive.
        op: OpN,
        /// First operand.
        a: Opd,
        /// Second operand.
        b: Opd,
    },
    /// `f[dst] ← log p(point | args)` — an inlined log-density opcode.
    DistLl {
        /// Destination scalar register.
        dst: u32,
        /// The distribution.
        dist: DistKind,
        /// Parameter operands.
        args: [Opd; 2],
        /// How many of `args` are meaningful.
        n_args: u8,
        /// Operand holding the point.
        point: Opd,
    },
    /// `dst ← ∇ log p(point | args)` with respect to `wrt`. A scalar
    /// differentiated slot writes a scalar register; a vector slot a
    /// view register (a vector, or a scalar when the operand is).
    DistGrad {
        /// Destination register.
        dst: Opd,
        /// The distribution.
        dist: DistKind,
        /// Differentiation target.
        wrt: GradWrt,
        /// Parameter operands.
        args: [Opd; 2],
        /// How many of `args` are meaningful.
        n_args: u8,
        /// Operand holding the point.
        point: Opd,
    },
    /// `f[dst] ← length(v[a])`.
    LenV {
        /// Destination scalar register.
        dst: u32,
        /// Operand view register.
        a: u32,
    },
    /// Store `src` into the destination (set or increment). A source
    /// that is a region of another buffer is read in place.
    Write {
        /// The destination.
        lhs: TDest,
        /// Set or increment.
        op: AssignOp,
        /// Operand holding the value.
        src: Opd,
    },
    /// Fused accumulate store: `lhs += vop(a, b)` for `VecScale` and
    /// `OuterSub`, each element computed straight into the destination
    /// cells. Charges, computes and panics exactly like the
    /// [`TInstr::Op2`] + [`TInstr::Write`] pair it replaces, and takes
    /// that pair's path when an operand shares the destination's buffer.
    AccStore {
        /// The destination.
        lhs: TDest,
        /// The primitive (`VecScale` or `OuterSub`).
        vop: OpN,
        /// First operand.
        a: Opd,
        /// Second operand.
        b: Opd,
    },
    /// Draw from `dist(args)` into the destination — an inlined sampler
    /// opcode.
    Sample {
        /// The destination.
        lhs: TDest,
        /// The distribution.
        dist: DistKind,
        /// Parameter operands.
        args: [Opd; 2],
        /// How many of `args` are meaningful.
        n_args: u8,
    },
    /// Draw a categorical index from log weights into the destination.
    SampleLogits {
        /// The destination.
        lhs: TDest,
        /// Operand holding the log-weight vector.
        w: Opd,
    },
    /// Jump to `target` when `f[a] ≠ f[b]` (compiled `IfEq` guard).
    JumpIfNe {
        /// Left comparand register.
        a: u32,
        /// Right comparand register.
        b: u32,
        /// Absolute jump target.
        target: u32,
    },
    /// Unconditional jump.
    Jump {
        /// Absolute jump target.
        target: u32,
    },
    /// Enter a loop: `lo`/`hi` scalar registers hold the
    /// (already-evaluated) bounds; `exit` is the instruction after the
    /// matching [`TInstr::LoopEnd`].
    LoopStart {
        /// Loop annotation (`Par` loops reseed per-thread streams).
        kind: LoopKind,
        /// Scalar register holding the lower bound.
        lo: u32,
        /// Scalar register holding the upper bound.
        hi: u32,
        /// Absolute index of the body's first instruction. The
        /// instructions in between are the loop's *preheader*: invariant
        /// work the optimizer hoisted out of the body ([`crate::tape_opt`]).
        /// It runs once per entry of a loop that runs at least once, before
        /// the first iteration; [`TInstr::LoopEnd`] resumes at `body`.
        body: u32,
        /// Absolute index of the first instruction after the loop.
        exit: u32,
        /// True for a write-partitioned `Par` loop (`write_partitioned`):
        /// its chunks write disjoint rows and read none another writes, so
        /// a fresh one may run them on the worker pool.
        split: bool,
    },
    /// Close the innermost loop: advance the index and jump back, or fall
    /// through when exhausted. `w` charges the work of instructions the
    /// value-numbering pass elided from the loop body and of those the
    /// optimizer hoisted into the preheader (their full per-iteration
    /// charge, per iteration) so work accounting stays identical to the
    /// tree-walker's.
    LoopEnd {
        /// Work units elided from or hoisted out of the body.
        w: u32,
    },
    /// Charge `n` work units for elided (value-numbered) instructions in
    /// a straight-line region that does not end in a [`TInstr::LoopEnd`].
    ChargeW {
        /// Work units to charge.
        n: u32,
    },
    /// Charge `1 + len(a)`: the work of a repeated `dot(a, ·)` whose value
    /// is already in a register (value numbering reuses it; the charge
    /// depends on the operand length, so it is paid here at run time).
    ChargeDot {
        /// The dot's left operand.
        a: Opd,
    },
    /// Fill scratch cells `s + k`, for `k` in `f[lo]..f[hi]`, with
    /// `log p(k | args)` — an invariant log-density vector the optimizer
    /// evaluates once per loop entry ([`crate::tape_opt`]). A preheader
    /// instruction: it charges nothing, its [`TInstr::LlScratch`] readers
    /// keep the per-use charge.
    LlFill {
        /// First scratch cell.
        s: u32,
        /// Scratch cells reserved (the static bound of `f[hi]`).
        len: u32,
        /// The distribution.
        dist: DistKind,
        /// Parameter operands.
        args: [Opd; 2],
        /// How many of `args` are meaningful.
        n_args: u8,
        /// Scalar register holding the first point.
        lo: u32,
        /// Scalar register holding the end of the point range.
        hi: u32,
    },
    /// `lhs op= scratch[s + f[k]]`: an [`TInstr::LlStore`] whose point is
    /// the index `f[k]` of the loop an [`TInstr::LlFill`] covers. Charges
    /// exactly what the `LlStore` it replaces charged.
    LlScratch {
        /// The destination.
        lhs: TDest,
        /// Set or increment.
        op: AssignOp,
        /// The distribution (for the work charge and listings).
        dist: DistKind,
        /// First scratch cell of the filled vector.
        s: u32,
        /// Scalar register holding the point (the loop index).
        k: u32,
    },
    /// Store an immediate: a fused `ConstF` + `Write` (charges both the
    /// constant node and the store).
    WriteImm {
        /// The destination.
        lhs: TDest,
        /// Set or increment.
        op: AssignOp,
        /// The immediate value.
        val: f64,
    },
    /// Fused log-density-and-store: `lhs op= log p(point | args)` — the
    /// dominant pattern of discrete Gibbs inner loops. Charges exactly
    /// like a [`TInstr::DistLl`] followed by a scalar [`TInstr::Write`].
    LlStore {
        /// The destination.
        lhs: TDest,
        /// Set or increment.
        op: AssignOp,
        /// The distribution.
        dist: DistKind,
        /// Parameter operands.
        args: [Opd; 2],
        /// How many of `args` are meaningful.
        n_args: u8,
        /// Operand holding the point.
        point: Opd,
    },
    /// Fused log-weight store: one component of a finite-sum weight loop,
    /// the run of instructions [`crate::tape_opt`] replaces by it (see
    /// [`Weight`]). Boxed, so the instruction stays 48 bytes.
    LlWeight(Box<Weight>),
}

// The dispatch loop walks `TInstr`s; a wider payload belongs in a box.
const _: () = assert!(std::mem::size_of::<TInstr>() == 48);

/// The payload of a [`TInstr::LlWeight`]: the weight `lhs = buf[f[k]]` of
/// component `k`, built by the run
///
/// ```text
/// writei  buf[fk] <- reset                      (optional)
/// llstore buf[fk] op= s[fk]                     (optional prior term)
/// row1    vD <- B[fk]   /  load1 fD <- B[fk]    (zero or more loads)
/// llstore buf[fk] op= dist(args; point=point)
/// ```
///
/// whose loads' registers no other instruction reads. Each execution
/// leaves the cell and the work counter as that run does, after all of
/// its bounds checks.
#[derive(Debug, Clone, PartialEq)]
pub struct Weight {
    /// The destination, a [`TDest::Cell1`] indexed by `k`.
    pub(crate) lhs: TDest,
    /// The reset's value, stored with `<-`.
    pub(crate) reset: Option<f64>,
    /// The prior term, a [`TInstr::LlScratch`] at `k`.
    pub(crate) prior: Option<Prior>,
    /// The loads of row or cell `k`, in order.
    pub(crate) loads: Vec<WeightLoad>,
    /// Set or increment, for the density's store.
    pub(crate) op: AssignOp,
    /// The distribution.
    pub(crate) dist: DistKind,
    /// Parameter operands (registers the loads define, or defined before
    /// the run).
    pub(crate) args: [Opd; 2],
    /// How many of `args` are meaningful.
    pub(crate) n_args: u8,
    /// Operand holding the point.
    pub(crate) point: Opd,
}

/// The prior term of a [`Weight`]: `lhs op= scratch[s + f[k]]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prior {
    /// Set or increment.
    pub(crate) op: AssignOp,
    /// First scratch cell of the filled vector.
    pub(crate) s: u32,
    /// The filled distribution (for the work charge).
    pub(crate) dist: DistKind,
}

/// A load of a [`Weight`]: `v[dst] ← buf[f[k]]` (a row, as
/// [`TInstr::LoadRow1`]) or `f[dst] ← buf[f[k]]` (a cell, as
/// [`TInstr::LoadCell1`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightLoad {
    /// Destination register, in the view bank for a row.
    pub(crate) dst: u32,
    /// The buffer.
    pub(crate) buf: BufId,
    /// A row rather than a cell.
    pub(crate) row: bool,
}

impl Weight {
    /// The scalar register holding the component index.
    pub(crate) fn k(&self) -> u32 {
        match self.lhs {
            TDest::Cell1 { i, .. } => i,
            other => unreachable!("a weight stores to a Cell1, not {other:?}"),
        }
    }

    /// The density's operands, the point last.
    pub(crate) fn operands(&self) -> impl Iterator<Item = Opd> + '_ {
        self.args[..self.n_args as usize].iter().copied().chain([self.point])
    }

    /// Whether `o` is a load's register.
    pub(crate) fn loads_into(&self, o: Opd) -> bool {
        self.loads.iter().any(|l| l.opd() == o)
    }

    /// Whether the destination's bounds check comes before the loads'
    /// (a reset or prior term stores before them).
    pub(crate) fn dest_first(&self) -> bool {
        self.reset.is_some() || self.prior.is_some()
    }

    /// Work charged per execution: the replaced instructions' charges.
    pub(crate) fn work(&self, point_len: usize) -> u64 {
        let reset = if self.reset.is_some() { 2 } else { 0 };
        let prior = self.prior.map_or(0, |p| 2 + dist_op_cost(p.dist, 0));
        reset + prior + 3 * self.loads.len() as u64 + 2 + dist_op_cost(self.dist, point_len)
    }
}

impl WeightLoad {
    /// The register the load defines.
    pub(crate) fn opd(&self) -> Opd {
        if self.row {
            Opd::v(self.dst)
        } else {
            Opd::f(self.dst)
        }
    }

    /// The instruction this load replaces, indexed by `f[k]`.
    pub(crate) fn instr(&self, k: u32) -> TInstr {
        let (dst, buf) = (self.dst, self.buf);
        if self.row {
            TInstr::LoadRow1 { dst, buf, i: k }
        } else {
            TInstr::LoadCell1 { dst, buf, i: k }
        }
    }
}

/// The most buffers one scatter plan resolves; a statistic loop that
/// touches more keeps the instruction path.
pub(crate) const MAX_SCATTER_BUFS: usize = 8;
/// The most values one plan holds: the loop index, the registers it reads
/// from before the loop, and its cell loads.
pub(crate) const MAX_SCATTER_VALS: usize = 16;
/// The most row loads, and the most stores, of one plan.
pub(crate) const MAX_SCATTER_ROWS: usize = 8;

/// The scatter plan of a statistic loop, the fourth rewrite of
/// [`crate::tape_opt`]: its body as loads and `+=` stores over value
/// slots, row slots and the buffers of `bufs`, which
/// [`Engine::run_scatter`] resolves once per loop entry and runs an
/// iteration at a time. Value slot 0 holds the loop index; `pre` names
/// the registers defined before the loop and their slots, read at entry.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Scatter {
    /// The loop's `LoopStart` pc.
    pub(crate) pc: u32,
    /// The buffers the plan reads and writes.
    pub(crate) bufs: Vec<BufId>,
    /// `(register, slot)` of every register read from before the loop.
    pub(crate) pre: Vec<(u32, u8)>,
    /// The body's loads, in body order.
    pub(crate) loads: Vec<ScatterLoad>,
    /// The body's stores, in body order.
    pub(crate) stores: Vec<ScatterStore>,
    /// Work charged per iteration to the dispatch loop's counter: every
    /// static charge of the body and its `LoopEnd`.
    pub(crate) work: u64,
    /// Work charged per iteration to the engine's own counter, where the
    /// loads' `index_view` charges it.
    pub(crate) work_eng: u64,
    /// Instructions retired per iteration (the body and its `LoopEnd`).
    pub(crate) retired: u64,
    /// Those instructions' op classes.
    pub(crate) classes: [u64; crate::metrics::N_OP_CLASSES],
}

/// A load of a [`Scatter`]. Each reads buffer slot `buf` at the value in
/// slot `i` (or `row`, `col`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum ScatterLoad {
    /// A [`TInstr::LoadCell1`] of a vector into value slot `dst`.
    Cell { dst: u8, buf: u8, i: u8 },
    /// A [`TInstr::LoadCell2`] of rows of vectors into value slot `dst`.
    Cell2 { dst: u8, buf: u8, row: u8, col: u8 },
    /// A [`TInstr::LoadRow1`] of rows of vectors into row slot `dst`.
    Row { dst: u8, buf: u8, i: u8 },
}

/// A `+=` store of a [`Scatter`]: where, and what.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ScatterStore {
    pub(crate) dest: ScatterDest,
    pub(crate) src: ScatterSrc,
}

/// The destination of a [`ScatterStore`], as its [`TDest`] with value
/// slots for registers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum ScatterDest {
    Cell0 { buf: u8 },
    Cell1 { buf: u8, i: u8, len: u32 },
    Cell2 { buf: u8, row: u8, col: u8 },
    Row1 { buf: u8, i: u8 },
}

/// The source of a [`ScatterStore`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum ScatterSrc {
    /// A [`TInstr::WriteImm`]'s immediate.
    Imm(f64),
    /// A scalar [`TInstr::Write`] of a value slot.
    Val(u8),
    /// A view [`TInstr::Write`] of a row slot.
    Row(u8),
    /// An [`TInstr::AccStore`] of `OuterSub` over two row slots.
    Outer(u8, u8),
}

/// `x` as an index below `len`, when `check_index` and the bounds check
/// after it both accept it.
#[inline(always)]
fn scatter_index(x: f64, len: usize) -> Option<usize> {
    (x >= 0.0 && (x as usize) < len).then_some(x as usize)
}

/// Row `x` of a `Rows` buffer's `offsets`, when the row checks accept it.
#[inline(always)]
fn scatter_row(x: f64, offsets: &[usize]) -> Option<(usize, usize)> {
    let r = scatter_index(x, offsets.len().saturating_sub(1))?;
    Some((offsets[r], offsets[r + 1]))
}

/// The profiler's op-class index of an instruction (see
/// [`crate::metrics::OP_CLASS_NAMES`]): `load`, `arith`, `dist`,
/// `sample`, `store`, or `control`.
pub fn op_class_of(i: &TInstr) -> usize {
    match i {
        TInstr::ConstF { .. }
        | TInstr::LoopIdx { .. }
        | TInstr::LoadScalar { .. }
        | TInstr::RefBufV { .. }
        | TInstr::LoadCell1 { .. }
        | TInstr::LoadRow1 { .. }
        | TInstr::LoadCell2 { .. }
        | TInstr::NumOf { .. }
        | TInstr::IndexF { .. }
        | TInstr::IndexV { .. }
        | TInstr::LenV { .. } => 0,
        TInstr::BinopF { .. }
        | TInstr::NegF { .. }
        | TInstr::Call1F { .. }
        | TInstr::DotF { .. }
        | TInstr::Op1 { .. }
        | TInstr::Op2 { .. } => 1,
        TInstr::DistLl { .. }
        | TInstr::DistGrad { .. }
        | TInstr::LlStore { .. }
        | TInstr::LlFill { .. }
        | TInstr::LlScratch { .. }
        | TInstr::LlWeight(_) => 2,
        TInstr::Sample { .. } | TInstr::SampleLogits { .. } => 3,
        TInstr::Write { .. } | TInstr::WriteImm { .. } | TInstr::AccStore { .. } => 4,
        TInstr::JumpIfNe { .. }
        | TInstr::Jump { .. }
        | TInstr::LoopStart { .. }
        | TInstr::LoopEnd { .. }
        | TInstr::ChargeW { .. }
        | TInstr::ChargeDot { .. } => 5,
    }
}

/// A compiled instruction tape.
#[derive(Debug, Clone, PartialEq)]
pub struct Tape {
    /// The instruction stream.
    pub instrs: Vec<TInstr>,
    /// Size of the scalar register bank.
    pub n_fregs: usize,
    /// Size of the view register bank.
    pub n_vregs: usize,
    /// Work units elided after the last control instruction, charged once
    /// per run.
    pub tail_w: u32,
    /// Scratch cells the tape's [`TInstr::LlFill`] vectors occupy.
    pub n_scratch: usize,
    /// The statistic loops' scatter plans, by ascending `LoopStart` pc
    /// ([`crate::tape_opt`]). The instruction stream does not mention
    /// them: only the interpreter's `LoopStart` looks one up.
    pub(crate) scatters: Vec<Scatter>,
}

/// A procedure compiled for CPU tape execution.
#[derive(Debug, Clone, PartialEq)]
pub struct TapeProc {
    /// Name (for logs and kernel labels).
    pub name: String,
    /// The body tape.
    pub tape: Tape,
    /// Optional scalar result, evaluated host-side after the tape runs.
    pub ret: Option<RExpr>,
}

impl TapeProc {
    /// Compiles a slot-resolved procedure to a tape and runs the tape
    /// optimizer over it. The state supplies buffer shapes for static
    /// kind inference, load fusion, and the optimizer's scratch sizes.
    pub fn compile(p: &RProc, state: &State) -> TapeProc {
        let mut em = Emitter::new(state);
        em.stmt(&p.body);
        let tape = crate::tape_opt::optimize(em.finish(), state);
        TapeProc { name: p.name.clone(), tape, ret: p.ret.clone() }
    }
}

/// Visits every operand an instruction reads, in either bank.
pub(crate) fn reads(i: &TInstr, out: &mut impl FnMut(Opd)) {
    let f = Opd::f;
    match i {
        TInstr::ConstF { .. }
        | TInstr::LoopIdx { .. }
        | TInstr::LoadScalar { .. }
        | TInstr::RefBufV { .. }
        | TInstr::Jump { .. }
        | TInstr::LoopEnd { .. }
        | TInstr::ChargeW { .. } => {}
        TInstr::LoadCell1 { i, .. } | TInstr::LoadRow1 { i, .. } => out(f(*i)),
        TInstr::NegF { a, .. } | TInstr::Call1F { a, .. } => out(f(*a)),
        TInstr::NumOf { a, .. } | TInstr::LenV { a, .. } => out(Opd::v(*a)),
        TInstr::Op1 { a, .. } | TInstr::ChargeDot { a } => out(*a),
        TInstr::LoadCell2 { row: a, col: b, .. }
        | TInstr::BinopF { a, b, .. }
        | TInstr::JumpIfNe { a, b, .. }
        | TInstr::LoopStart { lo: a, hi: b, .. } => {
            out(f(*a));
            out(f(*b));
        }
        TInstr::IndexF { base, idx, .. } | TInstr::IndexV { base, idx, .. } => {
            out(f(*idx));
            out(*base);
        }
        TInstr::DotF { a, b, .. } | TInstr::Op2 { a, b, .. } => {
            out(*a);
            out(*b);
        }
        TInstr::DistLl { args, n_args, point, .. }
        | TInstr::DistGrad { args, n_args, point, .. } => {
            args[..*n_args as usize].iter().for_each(|a| out(*a));
            out(*point);
        }
        TInstr::LlFill { args, n_args, lo, hi, .. } => {
            args[..*n_args as usize].iter().for_each(|a| out(*a));
            out(f(*lo));
            out(f(*hi));
        }
        TInstr::Write { lhs, src, .. } => {
            out(*src);
            dest_reads(lhs, out);
        }
        TInstr::AccStore { lhs, a, b, .. } => {
            out(*a);
            out(*b);
            dest_reads(lhs, out);
        }
        TInstr::Sample { lhs, args, n_args, .. } => {
            args[..*n_args as usize].iter().for_each(|a| out(*a));
            dest_reads(lhs, out);
        }
        TInstr::SampleLogits { lhs, w } => {
            out(*w);
            dest_reads(lhs, out);
        }
        TInstr::WriteImm { lhs, .. } => dest_reads(lhs, out),
        TInstr::LlStore { lhs, args, n_args, point, .. } => {
            args[..*n_args as usize].iter().for_each(|a| out(*a));
            out(*point);
            dest_reads(lhs, out);
        }
        TInstr::LlScratch { lhs, k, .. } => {
            out(f(*k));
            dest_reads(lhs, out);
        }
        // The loads' registers are the weight's own.
        TInstr::LlWeight(wt) => {
            dest_reads(&wt.lhs, out);
            wt.operands().filter(|o| !wt.loads_into(*o)).for_each(out);
        }
    }
}

fn dest_reads(d: &TDest, out: &mut impl FnMut(Opd)) {
    match d {
        TDest::Cell0 { .. } => {}
        TDest::Cell1 { i, .. } | TDest::Row1 { i, .. } => out(Opd::f(*i)),
        TDest::Cell2 { row, col, .. } => {
            out(Opd::f(*row));
            out(Opd::f(*col));
        }
        TDest::Slow { idx, n_idx, .. } => {
            idx[..*n_idx as usize].iter().for_each(|r| out(Opd::f(*r)))
        }
    }
}

/// The register an instruction writes, in either bank.
pub(crate) fn writes(i: &TInstr) -> Option<Opd> {
    match i {
        TInstr::ConstF { dst, .. }
        | TInstr::LoopIdx { dst, .. }
        | TInstr::LoadScalar { dst, .. }
        | TInstr::LoadCell1 { dst, .. }
        | TInstr::LoadCell2 { dst, .. }
        | TInstr::NumOf { dst, .. }
        | TInstr::IndexF { dst, .. }
        | TInstr::BinopF { dst, .. }
        | TInstr::NegF { dst, .. }
        | TInstr::Call1F { dst, .. }
        | TInstr::DotF { dst, .. }
        | TInstr::DistLl { dst, .. }
        | TInstr::LenV { dst, .. } => Some(Opd::f(*dst)),
        TInstr::RefBufV { dst, .. }
        | TInstr::LoadRow1 { dst, .. }
        | TInstr::IndexV { dst, .. }
        | TInstr::Op1 { dst, .. }
        | TInstr::Op2 { dst, .. } => Some(Opd::v(*dst)),
        TInstr::DistGrad { dst, .. } => Some(*dst),
        _ => None,
    }
}

/// The buffer an instruction stores to, if any.
pub(crate) fn stored_buf(i: &TInstr) -> Option<BufId> {
    let dest = match i {
        TInstr::Write { lhs, .. }
        | TInstr::AccStore { lhs, .. }
        | TInstr::WriteImm { lhs, .. }
        | TInstr::LlStore { lhs, .. }
        | TInstr::LlScratch { lhs, .. }
        | TInstr::Sample { lhs, .. }
        | TInstr::SampleLogits { lhs, .. } => lhs,
        TInstr::LlWeight(wt) => &wt.lhs,
        _ => return None,
    };
    Some(match dest {
        TDest::Cell0 { buf }
        | TDest::Cell1 { buf, .. }
        | TDest::Row1 { buf, .. }
        | TDest::Cell2 { buf, .. }
        | TDest::Slow { buf, .. } => *buf,
    })
}

/// The static length bound of the view a `RefBufV`/`LoadRow1` defines
/// (the longest row for a ragged row), and whether densities read it as
/// a vector rather than a matrix. `None` for any other instruction.
pub(crate) fn region_len(state: &State, def: &TInstr) -> Option<(usize, bool)> {
    let (buf, row) = match def {
        TInstr::RefBufV { buf, .. } => (*buf, false),
        TInstr::LoadRow1 { buf, .. } => (*buf, true),
        _ => return None,
    };
    Some(match (state.shape(buf), row) {
        (Shape::Vector(n), false) => (*n, true),
        (Shape::Matrix(d), false) => (d * d, false),
        (shape @ Shape::Rows { .. }, false) => (shape.num_cells(), true),
        (Shape::Matrix(d), true) => (*d, true),
        (Shape::Rows { elem: RowElem::Vec, offsets }, true) => {
            (offsets.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0), true)
        }
        (Shape::Rows { elem: RowElem::Mat(d), .. }, true) => (d * d, false),
        (Shape::Vector(_) | Shape::Num, true) | (Shape::Num, false) => return None,
    })
}

/// Every store destination of a statement tree, in emission order. The
/// loop emitter pre-invalidates their buffers so an entry defined before
/// the loop can't serve iteration `n+1` a value that iteration `n`
/// overwrote, and tests them with [`write_partitioned`].
fn store_dests<'a>(s: &'a RStmt, out: &mut Vec<&'a RLValue>) {
    match s {
        RStmt::Seq(ss) => ss.iter().for_each(|s| store_dests(s, out)),
        RStmt::Assign { lhs, .. } | RStmt::Sample { lhs, .. } | RStmt::SampleLogits { lhs, .. } => {
            out.push(lhs)
        }
        RStmt::IfEq { then, els, .. } => {
            store_dests(then, out);
            if let Some(e) = els {
                store_dests(e, out);
            }
        }
        RStmt::Loop { body, .. } => store_dests(body, out),
    }
}

/// Whether a `Par` loop at nesting depth `depth` whose body stores to
/// `dests` is write-partitioned: every store goes to thread-local
/// scratch or has the loop's own variable as its first index (`z[n]`,
/// `z[d][j]`, `mu[k]`), and no expression in the body reads a buffer it
/// stores to outside thread-local scratch. Iterations then write
/// disjoint rows and read no row another iteration writes, so a chunk of
/// them run on a copy of the state leaves its rows exactly as the
/// sequential run does. Decided on the slot-resolved body, before the
/// optimizer hoists, fills or fuses anything that could hide a read.
fn write_partitioned(state: &State, depth: usize, dests: &[&RLValue], body: &RStmt) -> bool {
    let own_row = RExpr::Ref(RRef::Loop(depth));
    let shared_store = |b| !state.is_thread_local(b) && dests.iter().any(|l| l.buf == b);
    dests.iter().all(|l| !shared_store(l.buf) || l.indices.first() == Some(&own_row))
        && !crate::compile::read_bufs(body).into_iter().any(shared_store)
}

/// Value-numbering key. Registers are SSA-like (each written by exactly
/// one instruction that dominates its readers), so keys over operand
/// registers identify a value as long as any *buffer* state they read is
/// unchanged — the emitter invalidates buffer-reading keys at stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum MemoKey {
    /// `env[depth]` — position-only, never invalidated.
    Loop(u32),
    /// A constant, keyed by bit pattern — never invalidated.
    Const(u64),
    /// `buf` (scalar shape) — a *value* load, invalidated when `buf` is
    /// stored to.
    LoadScalar(BufId),
    /// `buf[f[i]]` — value load, invalidated on stores to `buf`.
    LoadCell1(BufId, u32),
    /// `buf[f[row]][f[col]]` — value load, invalidated on stores.
    LoadCell2(BufId, u32, u32),
    /// A whole-buffer view — a *descriptor* (buffer id + extent), not a
    /// value: readers see current data through it, so stores never
    /// invalidate it.
    RefBuf(BufId),
    /// `buf[f[i]]` as a row/matrix view — descriptor, like [`MemoKey::RefBuf`].
    LoadRow1(BufId, u32),
    /// `f[a] ⊕ f[b]` over scalar registers — register values are
    /// immutable, never invalidated.
    Binop(u8, u32, u32),
    /// `−f[a]`.
    Neg(u32),
    /// `g(f[a])` for a unary builtin.
    Call1(u8, u32),
    /// Scalar coercion of a view register holding a `Num`.
    NumOf(u32),
    /// `dot(v[a], v[b])`. The *value* depends on buffer data behind the
    /// view operands, so this key is invalidated on stores to either
    /// provenance buffer. A hit reuses the register and emits a
    /// [`TInstr::ChargeDot`], because the elided work depends on the
    /// operand length.
    Dot(u32, u32),
    /// `log p(f[point] | scalar args)` — all operands in scalar
    /// registers, so never invalidated.
    DistLl(DistKind, u32, u32, u32),
    /// `∇ log p` with scalar operands and a scalar result; `wrt` encodes
    /// `Point` as 0 and `Param(i)` as `i + 1`.
    DistGrad(DistKind, u8, u32, u32, u32),
}

impl MemoKey {
    /// Whether a store to `buf` makes this key stale. `vreg_buf` maps
    /// view registers to the buffer their descriptor reads (dot
    /// operands).
    fn reads_buf(&self, buf: BufId, vreg_buf: &std::collections::HashMap<u32, BufId>) -> bool {
        match self {
            MemoKey::LoadScalar(b) | MemoKey::LoadCell1(b, _) | MemoKey::LoadCell2(b, _, _) => {
                *b == buf
            }
            MemoKey::Dot(a, b) => vreg_buf.get(a) == Some(&buf) || vreg_buf.get(b) == Some(&buf),
            _ => false,
        }
    }
}

/// Placeholder register for an unused distribution-argument slot in a
/// memo key (arity < 2). Distinct from any real register.
const NO_REG: u32 = u32::MAX;

/// Whether every live distribution argument sits in a scalar register
/// (register values are immutable, so such operands can key a memo).
fn all_scalar(args: &[Opd; 2], n_args: u8) -> bool {
    args.iter().take(n_args as usize).all(|a| !a.is_view())
}

/// The two argument registers of a memo key (`NO_REG` for unused slots).
fn key_args(args: &[Opd; 2], n_args: u8) -> (u32, u32) {
    let n = n_args as usize;
    let get = |i: usize| if i < n { args[i].index() as u32 } else { NO_REG };
    (get(0), get(1))
}

/// Memo key for a log-density over scalar registers only, or `None`
/// when any operand is a view (buffer-dependent data).
fn scalar_ll_key(dist: DistKind, args: &[Opd; 2], n_args: u8, point: Opd) -> Option<MemoKey> {
    if point.is_view() || !all_scalar(args, n_args) {
        return None;
    }
    let (a0, a1) = key_args(args, n_args);
    Some(MemoKey::DistLl(dist, a0, a1, point.index() as u32))
}

/// Single-pass tape emitter. Registers are assigned one per expression
/// occurrence (no reuse): every register is written by exactly one
/// instruction that dominates all its readers, so loop re-entry simply
/// overwrites. A local value-numbering memo reuses results where the
/// defining instruction dominates the use and the value cannot have
/// changed: position keys (`LoopIdx`/`ConstF`) and scalar computations
/// over registers unconditionally, buffer *loads* until the buffer is
/// stored to (stores invalidate; loop bodies pre-invalidate every
/// buffer they write so iteration `n+1` never reuses iteration `n`'s
/// staleness; joins keep the intersection of both paths). Each elided
/// occurrence still charges the work the tree-walker would have paid,
/// accumulated in `pending_w` and flushed into the region's closing
/// [`TInstr::LoopEnd`] (or an explicit [`TInstr::ChargeW`]) so work
/// totals match the tree exactly.
struct Emitter<'s> {
    state: &'s State,
    instrs: Vec<TInstr>,
    next_f: u32,
    next_v: u32,
    memo: std::collections::HashMap<MemoKey, u32>,
    /// Buffer provenance of descriptor view registers (`RefBufV` /
    /// `LoadRow1` destinations) — what a memoized dot over them reads.
    vreg_buf: std::collections::HashMap<u32, BufId>,
    pending_w: u32,
    /// Loops enclosing the statement being emitted.
    depth: usize,
}

impl<'s> Emitter<'s> {
    fn new(state: &'s State) -> Emitter<'s> {
        Emitter {
            state,
            instrs: Vec::new(),
            next_f: 0,
            next_v: 0,
            memo: std::collections::HashMap::new(),
            vreg_buf: std::collections::HashMap::new(),
            pending_w: 0,
            depth: 0,
        }
    }

    fn finish(self) -> Tape {
        Tape {
            instrs: self.instrs,
            n_fregs: self.next_f as usize,
            n_vregs: self.next_v as usize,
            tail_w: self.pending_w,
            n_scratch: 0,
            scatters: Vec::new(),
        }
    }

    /// Emits pending elided-work charges as an explicit instruction.
    /// Needed before control-flow points whose execution count differs
    /// from the region the elisions happened in.
    fn flush_charge(&mut self) {
        if self.pending_w > 0 {
            let n = self.pending_w;
            self.pending_w = 0;
            self.push(TInstr::ChargeW { n });
        }
    }

    /// Value-numbered scalar emission: returns the existing register for
    /// `key` (charging `w` — the work the elided instruction would have
    /// retired) or materializes via `emit`.
    fn memo_f(&mut self, key: MemoKey, w: u32, emit: impl FnOnce(&mut Self, u32)) -> u32 {
        if let Some(&r) = self.memo.get(&key) {
            self.pending_w += w;
            return r;
        }
        let dst = self.freg();
        emit(self, dst);
        self.memo.insert(key, dst);
        dst
    }

    /// [`Emitter::memo_f`] for view-register results. Only sound for
    /// instructions whose reuse survives multiple readers: descriptor
    /// views, which `take_opd` reads non-destructively.
    fn memo_v(&mut self, key: MemoKey, w: u32, emit: impl FnOnce(&mut Self, u32)) -> u32 {
        if let Some(&r) = self.memo.get(&key) {
            self.pending_w += w;
            return r;
        }
        let dst = self.vreg();
        emit(self, dst);
        self.memo.insert(key, dst);
        dst
    }

    /// Drops memo entries whose value a store to `buf` may have changed.
    fn invalidate_buf(&mut self, buf: BufId) {
        let vreg_buf = &self.vreg_buf;
        self.memo.retain(|k, _| !k.reads_buf(buf, vreg_buf));
    }

    /// Keeps only memo entries that are also in `other` with the same
    /// register — the set valid on both paths of a join (branch arms, or
    /// loop-taken vs zero-trip).
    fn intersect_memo(&mut self, other: &std::collections::HashMap<MemoKey, u32>) {
        self.memo.retain(|k, r| other.get(k) == Some(r));
    }

    fn freg(&mut self) -> u32 {
        let r = self.next_f;
        self.next_f += 1;
        r
    }

    fn vreg(&mut self) -> u32 {
        let r = self.next_v;
        self.next_v += 1;
        r
    }

    fn push(&mut self, i: TInstr) -> u32 {
        self.instrs.push(i);
        (self.instrs.len() - 1) as u32
    }

    fn here(&self) -> u32 {
        self.instrs.len() as u32
    }

    /// Coerces an emitted operand to a scalar register; `Dyn` operands
    /// get a zero-work [`TInstr::NumOf`] that panics at run time when the
    /// value is not scalar (exactly where the tree's `eval_num` would).
    fn as_f(&mut self, opd: Opd) -> u32 {
        if !opd.is_view() {
            return opd.index() as u32;
        }
        let a = opd.index() as u32;
        self.memo_f(MemoKey::NumOf(a), 0, |em, dst| {
            em.push(TInstr::NumOf { dst, a });
        })
    }

    /// Emits (or reuses) a [`TInstr::DistGrad`]. A scalar differentiated
    /// slot always yields a scalar, so its gradient gets a scalar
    /// register; a vector slot keeps a view register (`EK::Dyn`: the
    /// result is scalar when the operand is). Scalar-in/scalar-out
    /// gradients — every operand in a scalar register too — are
    /// value-numbered: register values are immutable, so a repeat with
    /// the same registers is the same number, elided at the cost the
    /// interpreter would have charged (`1 + dist_op_cost(dist, 0)`, the
    /// scalar-point cost).
    fn grad_instr(
        &mut self,
        dist: DistKind,
        wrt: GradWrt,
        args: [Opd; 2],
        n_args: u8,
        point: Opd,
    ) -> (Opd, EK) {
        let scalar_out = match wrt {
            GradWrt::Param(pos) => dist.param_tys()[pos as usize] != augur_dist::SimpleTy::Vec,
            GradWrt::Point => dist.point_ty() != augur_dist::SimpleTy::Vec,
        };
        if !scalar_out {
            let dst = Opd::v(self.vreg());
            self.push(TInstr::DistGrad { dst, dist, wrt, args, n_args, point });
            return (dst, EK::Dyn);
        }
        let emit = |em: &mut Self, dst: u32| {
            em.push(TInstr::DistGrad { dst: Opd::f(dst), dist, wrt, args, n_args, point });
        };
        let dst = if !point.is_view() && all_scalar(&args, n_args) {
            let wrt_code = match wrt {
                GradWrt::Point => 0,
                GradWrt::Param(pos) => pos + 1,
            };
            let (a0, a1) = key_args(&args, n_args);
            let key = MemoKey::DistGrad(dist, wrt_code, a0, a1, point.index() as u32);
            self.memo_f(key, 1 + crate::eval::dist_op_cost(dist, 0) as u32, emit)
        } else {
            let dst = self.freg();
            emit(self, dst);
            dst
        };
        (Opd::f(dst), EK::Num)
    }

    /// Emits code computing `e` into a scalar register.
    fn expr_f(&mut self, e: &RExpr) -> u32 {
        let (opd, _) = self.expr(e);
        self.as_f(opd)
    }

    /// Emits code computing `e`, returning the operand holding its value
    /// and its inferred kind. Operand evaluation order mirrors the
    /// tree-walker exactly (only RNG draws are order-sensitive, but we
    /// keep arithmetic order identical for auditability).
    fn expr(&mut self, e: &RExpr) -> (Opd, EK) {
        match e {
            RExpr::Const(v) => {
                let val = *v;
                let dst = self.memo_f(MemoKey::Const(val.to_bits()), 1, |em, dst| {
                    em.push(TInstr::ConstF { dst, val });
                });
                (Opd::f(dst), EK::Num)
            }
            RExpr::Ref(RRef::Loop(d)) => {
                let depth = *d as u32;
                let dst = self.memo_f(MemoKey::Loop(depth), 1, |em, dst| {
                    em.push(TInstr::LoopIdx { dst, depth });
                });
                (Opd::f(dst), EK::Num)
            }
            RExpr::Ref(RRef::Buf(b)) => match self.state.shape(*b) {
                Shape::Num => {
                    let buf = *b;
                    let dst = self.memo_f(MemoKey::LoadScalar(buf), 1, |em, dst| {
                        em.push(TInstr::LoadScalar { dst, buf });
                    });
                    (Opd::f(dst), EK::Num)
                }
                shape => {
                    let ek = match shape {
                        Shape::Vector(_) => EK::Vec,
                        Shape::Matrix(_) => EK::Mat,
                        Shape::Rows { elem: RowElem::Vec, .. } => EK::RowsVec,
                        Shape::Rows { elem: RowElem::Mat(_), .. } => EK::RowsMat,
                        Shape::Num => unreachable!(),
                    };
                    let buf = *b;
                    let dst = self.memo_v(MemoKey::RefBuf(buf), 1, |em, dst| {
                        em.push(TInstr::RefBufV { dst, buf });
                        em.vreg_buf.insert(dst, buf);
                    });
                    (Opd::v(dst), ek)
                }
            },
            RExpr::Index(base, idx) => self.index_expr(base, idx),
            RExpr::Binop(op, a, b) => {
                let ra = self.expr_f(a);
                let rb = self.expr_f(b);
                let op = *op;
                let dst = self.memo_f(MemoKey::Binop(op as u8, ra, rb), 1, |em, dst| {
                    em.push(TInstr::BinopF { dst, op, a: ra, b: rb });
                });
                (Opd::f(dst), EK::Num)
            }
            RExpr::Neg(a) => {
                let ra = self.expr_f(a);
                let dst = self.memo_f(MemoKey::Neg(ra), 1, |em, dst| {
                    em.push(TInstr::NegF { dst, a: ra });
                });
                (Opd::f(dst), EK::Num)
            }
            RExpr::Call(f, args) => match f {
                Builtin::Dot => {
                    let (ra, _) = self.expr(&args[0]);
                    let (rb, _) = self.expr(&args[1]);
                    // A repeat reuses the register but still pays the
                    // dot's data-dependent work (`1 + len(a)`) through a
                    // `ChargeDot`. Only sound when both operands are
                    // views with known buffer provenance (the key
                    // invalidates on stores to them), which also means
                    // the repeat cannot fail where the first did not.
                    let memoable = ra.is_view()
                        && rb.is_view()
                        && self.vreg_buf.contains_key(&(ra.index() as u32))
                        && self.vreg_buf.contains_key(&(rb.index() as u32));
                    if memoable {
                        let key = MemoKey::Dot(ra.index() as u32, rb.index() as u32);
                        if let Some(&r) = self.memo.get(&key) {
                            self.push(TInstr::ChargeDot { a: ra });
                            return (Opd::f(r), EK::Num);
                        }
                        let dst = self.freg();
                        self.push(TInstr::DotF { dst, a: ra, b: rb });
                        self.memo.insert(key, dst);
                        return (Opd::f(dst), EK::Num);
                    }
                    let dst = self.freg();
                    self.push(TInstr::DotF { dst, a: ra, b: rb });
                    (Opd::f(dst), EK::Num)
                }
                _ => {
                    let ra = self.expr_f(&args[0]);
                    let f = *f;
                    let dst = self.memo_f(MemoKey::Call1(f as u8, ra), 1, |em, dst| {
                        em.push(TInstr::Call1F { dst, f, a: ra });
                    });
                    (Opd::f(dst), EK::Num)
                }
            },
            RExpr::DistLl { dist, args, point } => {
                let (ra, n_args) = self.dist_args(args);
                let (rp, _) = self.expr(point);
                let dist = *dist;
                if let Some(key) = scalar_ll_key(dist, &ra, n_args, rp) {
                    let w = 1 + crate::eval::dist_op_cost(dist, 0) as u32;
                    let dst = self.memo_f(key, w, |em, dst| {
                        em.push(TInstr::DistLl { dst, dist, args: ra, n_args, point: rp });
                    });
                    return (Opd::f(dst), EK::Num);
                }
                let dst = self.freg();
                self.push(TInstr::DistLl { dst, dist, args: ra, n_args, point: rp });
                (Opd::f(dst), EK::Num)
            }
            RExpr::DistGradParam { dist, i, args, point } => {
                let (ra, n_args) = self.dist_args(args);
                let (rp, _) = self.expr(point);
                self.grad_instr(*dist, GradWrt::Param(*i as u8), ra, n_args, rp)
            }
            RExpr::DistGradPoint { dist, args, point } => {
                let (ra, n_args) = self.dist_args(args);
                let (rp, _) = self.expr(point);
                self.grad_instr(*dist, GradWrt::Point, ra, n_args, rp)
            }
            RExpr::Op(op, args) => {
                let ek = match op {
                    OpN::VecAdd | OpN::VecSub | OpN::VecScale | OpN::MatVec => EK::Vec,
                    OpN::MatAdd | OpN::MatScale | OpN::MatInv | OpN::OuterSub => EK::Mat,
                };
                let (ra, _) = self.expr(&args[0]);
                let dst;
                if args.len() == 1 {
                    dst = self.vreg();
                    self.push(TInstr::Op1 { dst, op: *op, a: ra });
                } else {
                    let (rb, _) = self.expr(&args[1]);
                    dst = self.vreg();
                    self.push(TInstr::Op2 { dst, op: *op, a: ra, b: rb });
                }
                (Opd::v(dst), ek)
            }
            RExpr::Len(a) => {
                let (ra, _) = self.expr(a);
                let dst = self.freg();
                if ra.is_view() {
                    self.push(TInstr::LenV { dst, a: ra.index() as u32 });
                } else {
                    // length of a scalar is 0 in the tree's accounting;
                    // charge the Len node's unit of work via a constant.
                    self.push(TInstr::ConstF { dst, val: 0.0 });
                }
                (Opd::f(dst), EK::Num)
            }
        }
    }

    /// Emits an `Index` node, fusing `buf[i]` / `buf[i][j]` chains over
    /// direct buffer references into single loads.
    fn index_expr(&mut self, base: &RExpr, idx: &RExpr) -> (Opd, EK) {
        if let RExpr::Ref(RRef::Buf(b)) = base {
            let buf = *b;
            match self.state.shape(buf) {
                Shape::Vector(_) => {
                    let i = self.expr_f(idx);
                    // Elides as Ref + Index nodes + the index walk (3).
                    let dst = self.memo_f(MemoKey::LoadCell1(buf, i), 3, |em, dst| {
                        em.push(TInstr::LoadCell1 { dst, buf, i });
                    });
                    return (Opd::f(dst), EK::Num);
                }
                Shape::Matrix(_) => {
                    let i = self.expr_f(idx);
                    let dst = self.memo_v(MemoKey::LoadRow1(buf, i), 3, |em, dst| {
                        em.push(TInstr::LoadRow1 { dst, buf, i });
                        em.vreg_buf.insert(dst, buf);
                    });
                    return (Opd::v(dst), EK::Vec);
                }
                Shape::Rows { elem, .. } => {
                    let ek = match elem {
                        RowElem::Vec => EK::Vec,
                        RowElem::Mat(_) => EK::Mat,
                    };
                    let i = self.expr_f(idx);
                    let dst = self.memo_v(MemoKey::LoadRow1(buf, i), 3, |em, dst| {
                        em.push(TInstr::LoadRow1 { dst, buf, i });
                        em.vreg_buf.insert(dst, buf);
                    });
                    return (Opd::v(dst), ek);
                }
                // indexing a scalar buffer panics at run time, via the
                // generic path (as in the tree)
                Shape::Num => {}
            }
        }
        if let RExpr::Index(ibase, iidx) = base {
            if let RExpr::Ref(RRef::Buf(b)) = &**ibase {
                if matches!(
                    self.state.shape(*b),
                    Shape::Matrix(_) | Shape::Rows { elem: RowElem::Vec, .. }
                ) {
                    // buf[i][j]: the tree evaluates j (the outer index)
                    // before i (the inner one).
                    let buf = *b;
                    let col = self.expr_f(idx);
                    let row = self.expr_f(iidx);
                    // Ref + two Index nodes + two index walks (5).
                    let dst = self.memo_f(MemoKey::LoadCell2(buf, row, col), 5, |em, dst| {
                        em.push(TInstr::LoadCell2 { dst, buf, row, col });
                    });
                    return (Opd::f(dst), EK::Num);
                }
            }
        }
        // Generic form: the index is evaluated before the base, as in
        // the tree.
        let i = self.expr_f(idx);
        let (bopd, bek) = self.expr(base);
        match bek {
            EK::Mat | EK::RowsVec => {
                let dst = self.vreg();
                self.push(TInstr::IndexV { dst, base: bopd, idx: i });
                (Opd::v(dst), EK::Vec)
            }
            EK::RowsMat => {
                let dst = self.vreg();
                self.push(TInstr::IndexV { dst, base: bopd, idx: i });
                (Opd::v(dst), EK::Mat)
            }
            // Vec and Dyn bases index to scalars; a Num base panics at
            // run time ("cannot index scalar"), as in the tree.
            _ => {
                let dst = self.freg();
                self.push(TInstr::IndexF { dst, base: bopd, idx: i });
                (Opd::f(dst), EK::Num)
            }
        }
    }

    fn dist_args(&mut self, args: &[RExpr]) -> ([Opd; 2], u8) {
        debug_assert!(args.len() <= 2, "distribution arity exceeds 2");
        let mut out = [Opd::f(!VBIT); 2];
        for (slot, a) in out.iter_mut().zip(args) {
            let (opd, _) = self.expr(a);
            *slot = opd;
        }
        (out, args.len() as u8)
    }

    fn lvalue(&mut self, l: &RLValue) -> TDest {
        assert!(
            l.indices.len() <= MAX_LHS_IDX,
            "store destination indexed {} deep (max {MAX_LHS_IDX})",
            l.indices.len()
        );
        let mut idx = [u32::MAX; MAX_LHS_IDX];
        for (slot, e) in idx.iter_mut().zip(&l.indices) {
            *slot = self.expr_f(e);
        }
        match (self.state.shape(l.buf), l.indices.len()) {
            (Shape::Num, 0) => TDest::Cell0 { buf: l.buf },
            (Shape::Vector(n), 1) => TDest::Cell1 { buf: l.buf, i: idx[0], len: *n as u32 },
            (Shape::Matrix(d), 1) => TDest::Cell1 { buf: l.buf, i: idx[0], len: (d * d) as u32 },
            (Shape::Rows { .. }, 1) => TDest::Row1 { buf: l.buf, i: idx[0] },
            (Shape::Rows { .. }, 2) => TDest::Cell2 { buf: l.buf, row: idx[0], col: idx[1] },
            _ => TDest::Slow { buf: l.buf, idx, n_idx: l.indices.len() as u8 },
        }
    }

    fn stmt(&mut self, s: &RStmt) {
        match s {
            RStmt::Seq(stmts) => {
                for t in stmts {
                    self.stmt(t);
                }
            }
            RStmt::Assign { lhs, op, rhs } => {
                // Fused forms first; otherwise the tree's order — value
                // before destination indices.
                match rhs {
                    RExpr::Const(v) => {
                        let lv = self.lvalue(lhs);
                        self.push(TInstr::WriteImm { lhs: lv, op: *op, val: *v });
                    }
                    RExpr::DistLl { dist, args, point } => {
                        let (ra, n_args) = self.dist_args(args);
                        let (rp, _) = self.expr(point);
                        let lv = self.lvalue(lhs);
                        self.push(TInstr::LlStore {
                            lhs: lv,
                            op: *op,
                            dist: *dist,
                            args: ra,
                            n_args,
                            point: rp,
                        });
                    }
                    RExpr::Op(vop @ (OpN::VecScale | OpN::OuterSub), args)
                        if *op == AssignOp::Inc && args.len() == 2 =>
                    {
                        let (a, _) = self.expr(&args[0]);
                        let (b, _) = self.expr(&args[1]);
                        let lv = self.lvalue(lhs);
                        self.push(TInstr::AccStore { lhs: lv, vop: *vop, a, b });
                    }
                    _ => {
                        let (src, _) = self.expr(rhs);
                        let lv = self.lvalue(lhs);
                        self.push(TInstr::Write { lhs: lv, op: *op, src });
                    }
                }
                self.invalidate_buf(lhs.buf);
            }
            RStmt::IfEq { a, b, then, els } => {
                let ra = self.expr_f(a);
                let rb = self.expr_f(b);
                self.flush_charge();
                let snap = self.memo.clone();
                let jne = self.push(TInstr::JumpIfNe { a: ra, b: rb, target: 0 });
                self.stmt(then);
                self.flush_charge();
                // The join keeps only values valid on *both* paths:
                // entries created inside a branch don't dominate the
                // join, and entries a branch's stores invalidated must
                // stay invalid past it.
                let then_memo = std::mem::replace(&mut self.memo, snap);
                match els {
                    Some(e) => {
                        let jend = self.push(TInstr::Jump { target: 0 });
                        self.patch_target(jne, self.here());
                        self.stmt(e);
                        self.flush_charge();
                        self.intersect_memo(&then_memo);
                        self.patch_target(jend, self.here());
                    }
                    None => {
                        self.intersect_memo(&then_memo);
                        self.patch_target(jne, self.here());
                    }
                }
            }
            RStmt::Loop { kind, lo, hi, body } => {
                let rlo = self.expr_f(lo);
                let rhi = self.expr_f(hi);
                // Pending charges belong to the enclosing region, not to
                // every iteration; the memo survives into the body (the
                // defining instructions dominate it) but entries created
                // inside must not leak past the (possibly zero-trip) loop.
                self.flush_charge();
                let snap = self.memo.clone();
                // Iteration n's stores must not leak stale loads into
                // iteration n+1 through entries defined before the loop:
                // pre-invalidate every buffer the body writes.
                let mut dests = Vec::new();
                store_dests(body, &mut dests);
                for l in &dests {
                    self.invalidate_buf(l.buf);
                }
                let split = *kind == LoopKind::Par
                    && write_partitioned(self.state, self.depth, &dests, body);
                let start = self.push(TInstr::LoopStart {
                    kind: *kind,
                    lo: rlo,
                    hi: rhi,
                    body: self.here() + 1,
                    exit: 0,
                    split,
                });
                self.depth += 1;
                self.stmt(body);
                self.depth -= 1;
                let w = self.pending_w;
                self.pending_w = 0;
                self.push(TInstr::LoopEnd { w });
                // Keep only entries valid both before the (possibly
                // zero-trip) loop and after its body: body-created
                // registers don't dominate the exit, and an entry the
                // body invalidated must stay invalid past it.
                let cur = std::mem::replace(&mut self.memo, snap);
                self.memo.retain(|k, r| cur.get(k) == Some(r));
                self.patch_target(start, self.here());
            }
            RStmt::Sample { lhs, dist, args } => {
                let (ra, n_args) = self.dist_args(args);
                let lv = self.lvalue(lhs);
                self.push(TInstr::Sample { lhs: lv, dist: *dist, args: ra, n_args });
                self.invalidate_buf(lhs.buf);
            }
            RStmt::SampleLogits { lhs, weights } => {
                let (rw, _) = self.expr(weights);
                let lv = self.lvalue(lhs);
                self.push(TInstr::SampleLogits { lhs: lv, w: rw });
                self.invalidate_buf(lhs.buf);
            }
        }
    }

    fn patch_target(&mut self, at: u32, to: u32) {
        match &mut self.instrs[at as usize] {
            TInstr::JumpIfNe { target, .. }
            | TInstr::Jump { target }
            | TInstr::LoopStart { exit: target, .. } => *target = to,
            other => unreachable!("patching non-jump instruction {other:?}"),
        }
    }
}

/// An active loop on the tape VM's frame stack.
#[derive(Debug)]
pub(crate) struct TapeFrame {
    idx: i64,
    hi: i64,
    body_pc: u32,
    exit: u32,
    /// True for a fresh `Par` loop: iterations run on per-thread streams
    /// keyed by `launch` and the master RNG is restored on exit.
    fresh: bool,
    launch: u64,
    master: Option<augur_dist::Prng>,
}

impl Tape {
    /// The scatter plan of the loop whose `LoopStart` is at `pc`.
    #[inline]
    fn scatter(&self, pc: u32) -> Option<&Scatter> {
        if self.scatters.is_empty() {
            return None;
        }
        self.scatters.binary_search_by_key(&pc, |s| s.pc).ok().map(|k| &self.scatters[k])
    }

    /// Renders the tape as human-readable assembly, one instruction per
    /// line (`pc: OPCODE operands`). Scalar registers print as `fN`,
    /// view registers as `vN`; a loop with a scatter plan ends its line
    /// with `scatter`.
    pub fn disasm(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "; {} instrs, {} fregs, {} vregs",
            self.instrs.len(),
            self.n_fregs,
            self.n_vregs
        );
        for (pc, i) in self.instrs.iter().enumerate() {
            let _ = write!(out, "{pc:4}: ");
            let _ = match i {
                TInstr::ConstF { dst, val } => writeln!(out, "const   f{dst} <- {val}"),
                TInstr::LoopIdx { dst, depth } => writeln!(out, "loopidx f{dst} <- env[{depth}]"),
                TInstr::LoadScalar { dst, buf } => writeln!(out, "load    f{dst} <- buf#{buf}"),
                TInstr::RefBufV { dst, buf } => writeln!(out, "refbuf  v{dst} <- buf#{buf}"),
                TInstr::LoadCell1 { dst, buf, i } => {
                    writeln!(out, "load1   f{dst} <- buf#{buf}[f{i}]")
                }
                TInstr::LoadRow1 { dst, buf, i } => {
                    writeln!(out, "row1    v{dst} <- buf#{buf}[f{i}]")
                }
                TInstr::LoadCell2 { dst, buf, row, col } => {
                    writeln!(out, "load2   f{dst} <- buf#{buf}[f{row}][f{col}]")
                }
                TInstr::NumOf { dst, a } => writeln!(out, "numof   f{dst} <- v{a}"),
                TInstr::IndexF { dst, base, idx } => {
                    writeln!(out, "index   f{dst} <- {}[f{idx}]", fmt_opd(*base))
                }
                TInstr::IndexV { dst, base, idx } => {
                    writeln!(out, "index   v{dst} <- {}[f{idx}]", fmt_opd(*base))
                }
                TInstr::BinopF { dst, op, a, b } => {
                    writeln!(out, "binop   f{dst} <- f{a} {op:?} f{b}")
                }
                TInstr::NegF { dst, a } => writeln!(out, "neg     f{dst} <- -f{a}"),
                TInstr::Call1F { dst, f, a } => writeln!(out, "call    f{dst} <- {f:?}(f{a})"),
                TInstr::DotF { dst, a, b } => {
                    writeln!(out, "dot     f{dst} <- {} . {}", fmt_opd(*a), fmt_opd(*b))
                }
                TInstr::Op1 { dst, op, a } => {
                    writeln!(out, "op      v{dst} <- {op:?}({})", fmt_opd(*a))
                }
                TInstr::Op2 { dst, op, a, b } => {
                    writeln!(out, "op      v{dst} <- {op:?}({}, {})", fmt_opd(*a), fmt_opd(*b))
                }
                TInstr::DistLl { dst, dist, args, n_args, point } => {
                    writeln!(
                        out,
                        "ll      f{dst} <- {dist:?}({}; point={})",
                        fmt_args(args, *n_args),
                        fmt_opd(*point)
                    )
                }
                TInstr::DistGrad { dst, dist, wrt, args, n_args, point } => {
                    writeln!(
                        out,
                        "grad    {} <- d/d{wrt:?} {dist:?}({}; point={})",
                        fmt_opd(*dst),
                        fmt_args(args, *n_args),
                        fmt_opd(*point)
                    )
                }
                TInstr::LenV { dst, a } => writeln!(out, "len     f{dst} <- len(v{a})"),
                TInstr::Write { lhs, op, src } => {
                    writeln!(out, "write   {} {} {}", fmt_lhs(lhs), fmt_assign(*op), fmt_opd(*src))
                }
                TInstr::AccStore { lhs, vop, a, b } => writeln!(
                    out,
                    "accum   {} += {vop:?}({}, {})",
                    fmt_lhs(lhs),
                    fmt_opd(*a),
                    fmt_opd(*b)
                ),
                TInstr::Sample { lhs, dist, args, n_args } => {
                    writeln!(
                        out,
                        "sample  {} <~ {dist:?}({})",
                        fmt_lhs(lhs),
                        fmt_args(args, *n_args)
                    )
                }
                TInstr::SampleLogits { lhs, w } => {
                    writeln!(out, "samplel {} <~ logits({})", fmt_lhs(lhs), fmt_opd(*w))
                }
                TInstr::JumpIfNe { a, b, target } => {
                    writeln!(out, "jne     f{a}, f{b} -> {target}")
                }
                TInstr::Jump { target } => writeln!(out, "jmp     -> {target}"),
                TInstr::LoopStart { kind, lo, hi, body, exit, .. } => {
                    let _ = write!(out, "loop    {kind:?} f{lo}..f{hi}");
                    if *body as usize != pc + 1 {
                        let _ = write!(out, " body -> {body}");
                    }
                    let planned = if self.scatter(pc as u32).is_some() { " scatter" } else { "" };
                    writeln!(out, " exit -> {exit}{planned}")
                }
                TInstr::LoopEnd { w } => {
                    if *w == 0 {
                        writeln!(out, "endloop")
                    } else {
                        writeln!(out, "endloop +w{w}")
                    }
                }
                TInstr::ChargeW { n } => writeln!(out, "charge  +w{n}"),
                TInstr::ChargeDot { a } => writeln!(out, "charge  +w1+len({})", fmt_opd(*a)),
                TInstr::LlFill { s, len, dist, args, n_args, lo, hi } => writeln!(
                    out,
                    "llfill  s{s}[{len}] <- {dist:?}({}; point=f{lo}..f{hi})",
                    fmt_args(args, *n_args)
                ),
                TInstr::LlScratch { lhs, op, s, k, .. } => {
                    writeln!(out, "llstore {} {} s{s}[f{k}]", fmt_lhs(lhs), fmt_assign(*op))
                }
                TInstr::WriteImm { lhs, op, val } => {
                    writeln!(out, "writei  {} {} {val}", fmt_lhs(lhs), fmt_assign(*op))
                }
                TInstr::LlStore { lhs, op, dist, args, n_args, point } => {
                    writeln!(
                        out,
                        "llstore {} {} {dist:?}({}; point={})",
                        fmt_lhs(lhs),
                        fmt_assign(*op),
                        fmt_args(args, *n_args),
                        fmt_opd(*point)
                    )
                }
                TInstr::LlWeight(wt) => writeln!(out, "{}", fmt_weight(wt)),
            };
        }
        out
    }
}

fn fmt_opd(o: Opd) -> String {
    if o.is_view() {
        format!("v{}", o.index())
    } else {
        format!("f{}", o.index())
    }
}

fn fmt_args(args: &[Opd; 2], n: u8) -> String {
    (0..n as usize).map(|k| fmt_opd(args[k])).collect::<Vec<_>>().join(", ")
}

fn fmt_lhs(l: &TDest) -> String {
    match l {
        TDest::Cell0 { buf } => format!("buf#{buf}"),
        TDest::Cell1 { buf, i, .. } => format!("buf#{buf}[f{i}]"),
        TDest::Row1 { buf, i } => format!("buf#{buf}[f{i}]:row"),
        TDest::Cell2 { buf, row, col } => format!("buf#{buf}[f{row}][f{col}]"),
        TDest::Slow { buf, idx, n_idx } => {
            let mut s = format!("buf#{buf}");
            for i in idx.iter().take(*n_idx as usize) {
                s.push_str(&format!("[f{i}]"));
            }
            s
        }
    }
}

/// `llweight buf#B[fK] <- 0; += s0[fK]; v1 = buf#R[fK]:row; += Dist(…)`:
/// the parts of a weight in their order.
fn fmt_weight(wt: &Weight) -> String {
    let k = wt.k();
    let mut s = format!("llweight {}", fmt_lhs(&wt.lhs));
    if let Some(c) = wt.reset {
        s.push_str(&format!(" <- {c};"));
    }
    if let Some(p) = wt.prior {
        s.push_str(&format!(" {} s{}[f{k}];", fmt_assign(p.op), p.s));
    }
    for l in &wt.loads {
        let (bank, row) = if l.row { ('v', ":row") } else { ('f', "") };
        s.push_str(&format!(" {bank}{} = buf#{}[f{k}]{row};", l.dst, l.buf));
    }
    let (args, point) = (fmt_args(&wt.args, wt.n_args), fmt_opd(wt.point));
    s + &format!(" {} {:?}({args}; point={point})", fmt_assign(wt.op), wt.dist)
}

fn fmt_assign(op: AssignOp) -> &'static str {
    match op {
        AssignOp::Set => "<-",
        AssignOp::Inc => "+=",
    }
}

#[inline]
fn num(v: &View) -> f64 {
    match v {
        View::Num(x) => *x,
        other => panic!("expected scalar, got {other:?}"),
    }
}

/// Where the dispatch loop continues after [`Engine::exec_instr`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Flow {
    /// The next instruction.
    Next,
    /// An absolute instruction index (a taken jump).
    Jump(u32),
    /// A `LoopStart`/`LoopEnd`, whose frame bookkeeping the loop owns.
    Loop,
}

#[inline]
fn check_index(x: f64) -> usize {
    assert!(x >= 0.0, "negative index {x}");
    x as usize
}

impl Engine {
    /// Executes a tape to completion, returning the number of retired
    /// instructions. Work units are charged to `self.work` with exactly
    /// the same accounting as the tree-walker, so both strategies observe
    /// identical virtual work for identical programs.
    pub(crate) fn run_tape(&mut self, tape: &Tape) -> u64 {
        self.run_tape_span(tape, 0, tape.instrs.len() as u32, Vec::new(), true)
    }

    /// Executes the instruction range `[start_pc, end_pc)` of a tape.
    ///
    /// Full-tape runs pass `0..len` with no initial frames; worker
    /// threads executing one chunk of a parallel loop pass the loop's
    /// body range plus a pre-built [`TapeFrame`] covering their slice of
    /// the iteration space, so chunked execution re-enters the *same*
    /// interpreter and inherits its bit-exact work/RNG accounting.
    /// `charge_tail` is false for chunk runs — the trailing elided-work
    /// charge belongs to the whole-tape run, once.
    pub(crate) fn run_tape_span(
        &mut self,
        tape: &Tape,
        start_pc: u32,
        end_pc: u32,
        initial_frames: Vec<TapeFrame>,
        charge_tail: bool,
    ) -> u64 {
        let mut f = std::mem::take(&mut self.tape_fregs);
        let mut v = std::mem::take(&mut self.tape_vregs);
        if f.len() < tape.n_fregs {
            f.resize(tape.n_fregs, 0.0);
        }
        if v.len() < tape.n_vregs {
            v.resize(tape.n_vregs, View::Num(0.0));
        }
        if self.tape_scratch.len() < tape.n_scratch {
            self.tape_scratch.resize(tape.n_scratch, 0.0);
        }
        // Work accumulates locally and flushes once on exit: the engine
        // only reads `self.work` between procedure runs. Helpers that
        // charge `self.work` directly (op_views, write_dest, index_view)
        // remain correct — the totals add.
        let mut w: u64 = 0;
        let prof = self.profile_ops;
        let mut ops = [0u64; crate::metrics::N_OP_CLASSES];
        // Loop frames recycle an engine-held stack so steady-state
        // sweeps stay allocation-free (same pattern as the register
        // scratch above); chunk runs that arrive with a pre-built frame
        // seed the recycled stack instead.
        let mut frames: Vec<TapeFrame> = std::mem::take(&mut self.tape_frames);
        frames.clear();
        frames.extend(initial_frames);
        let mut retired: u64 = 0;
        let mut pc: u32 = start_pc;
        let end = end_pc;
        while pc < end {
            retired += 1;
            if prof {
                ops[op_class_of(&tape.instrs[pc as usize])] += 1;
            }
            let instr = &tape.instrs[pc as usize];
            // One dispatch: `exec_instr` is inlined, and the flow it
            // returns is a constant per arm, so the compiler threads each
            // arm straight to its continuation.
            match (self.exec_instr(instr, &mut f, &mut v, &mut w), instr) {
                (Flow::Next, _) => {}
                (Flow::Jump(target), _) => {
                    pc = target;
                    continue;
                }
                (Flow::Loop, TInstr::LoopStart { kind, lo, hi, body, exit, split }) => {
                    let lo = f[*lo as usize] as i64;
                    let hi = f[*hi as usize] as i64;
                    let fresh = *kind == LoopKind::Par && !self.in_parallel;
                    // Parallel dispatch: only a fresh write-partitioned
                    // `Par` loop (its per-thread streams are
                    // chunking-invariant, and its chunks write disjoint
                    // rows). Every other loop, `AtmPar` included, runs
                    // here; workers run inside a parallel region, so
                    // nested loops never re-dispatch.
                    if self.threads > 1 && *split && fresh && hi - lo >= MIN_PAR_SPAN {
                        // One kernel launch, exactly like the sequential
                        // path; the master RNG is simply never disturbed.
                        self.launch_counter += 1;
                        let span = (pc + 1, *body, *exit);
                        let launch = self.launch_counter;
                        retired += self.dispatch_loop_chunks(tape, span, (lo, hi), launch, &f, &v);
                        pc = *exit;
                        continue;
                    }
                    let mut launch = 0;
                    let mut master = None;
                    if fresh {
                        // One kernel launch, counted even for empty launches,
                        // exactly like the tree-walker.
                        self.launch_counter += 1;
                        launch = self.launch_counter;
                        master = Some(self.rng.clone());
                        self.in_parallel = true;
                    }
                    if lo >= hi {
                        if fresh {
                            self.in_parallel = false;
                            self.rng = master.take().expect("fresh loop saved the master RNG");
                        }
                        pc = *exit;
                        continue;
                    }
                    if fresh {
                        self.rng = self.thread_rng(launch, lo);
                    }
                    self.env.push(lo);
                    frames.push(TapeFrame {
                        idx: lo,
                        hi,
                        body_pc: *body,
                        exit: *exit,
                        fresh,
                        launch,
                        master,
                    });
                    if *body > pc + 1 {
                        self.run_preheader(tape, pc + 1, *body, &mut f, &mut v);
                        retired += self.retire_preheader(tape, pc + 1, *body);
                    }
                    // A statistic loop runs in its plan up to the first
                    // iteration a check fails, which the body re-runs.
                    if let Some(sc) = tape.scatter(pc) {
                        let at = self.run_scatter(sc, (lo, hi), &f, &mut w, &mut retired, &mut ops);
                        if at == hi {
                            frames.pop();
                            self.env.pop();
                            pc = *exit;
                            continue;
                        }
                        frames.last_mut().expect("the loop's frame").idx = at;
                        *self.env.last_mut().expect("the loop's env slot") = at;
                    }
                    pc = *body;
                    continue;
                }
                (Flow::Loop, TInstr::LoopEnd { w: extra }) => {
                    // Charges for instructions elided from the loop body by
                    // value numbering — once per iteration, including this
                    // final one, exactly as the tree would have paid them.
                    w += *extra as u64;
                    let frame = frames.last_mut().expect("LoopEnd without a frame");
                    frame.idx += 1;
                    if frame.idx < frame.hi {
                        *self.env.last_mut().expect("loop frame owns an env slot") = frame.idx;
                        if frame.fresh {
                            let (launch, idx) = (frame.launch, frame.idx);
                            self.rng = self.thread_rng(launch, idx);
                        }
                        pc = frame.body_pc;
                        continue;
                    }
                    let frame = frames.pop().expect("LoopEnd without a frame");
                    self.env.pop();
                    if frame.fresh {
                        self.in_parallel = false;
                        self.rng = frame.master.expect("fresh loop saved the master RNG");
                    }
                    pc = frame.exit;
                    continue;
                }
                (Flow::Loop, other) => unreachable!("{other:?} is not a loop instruction"),
            }
            pc += 1;
        }
        if prof {
            for (m, o) in self.metrics.op_class.iter_mut().zip(&ops) {
                *m += *o;
            }
        }
        self.work += w + if charge_tail { tape.tail_w as u64 } else { 0 };
        self.tape_fregs = f;
        self.tape_vregs = v;
        frames.clear();
        self.tape_frames = frames;
        retired
    }

    /// Executes one instruction against the register banks, charging its
    /// work to `w`, and says where control goes next; loop bookkeeping is
    /// left to the dispatch loop ([`Flow::Loop`]). The interpreter loop
    /// above and the native backend's `step` callback both run
    /// instructions through here, so the two engines share semantics,
    /// work charges, bounds checks (and their panic messages), and the
    /// pooled-scratch discipline that keeps steady-state sweeps
    /// allocation-free.
    ///
    /// # Panics
    ///
    /// Wherever the tree-walker would panic.
    #[inline(always)]
    pub(crate) fn exec_instr(
        &mut self,
        instr: &TInstr,
        f: &mut [f64],
        v: &mut [View],
        w: &mut u64,
    ) -> Flow {
        match instr {
            TInstr::ConstF { dst, val } => {
                *w += 1;
                f[*dst as usize] = *val;
            }
            TInstr::LoopIdx { dst, depth } => {
                *w += 1;
                f[*dst as usize] = self.env[*depth as usize] as f64;
            }
            TInstr::LoadScalar { dst, buf } => {
                *w += 1;
                f[*dst as usize] = self.state.flat(*buf)[0];
            }
            TInstr::RefBufV { dst, buf } => {
                *w += 1;
                v[*dst as usize] = self.buf_view(*buf);
            }
            TInstr::LoadCell1 { dst, buf, i } => {
                f[*dst as usize] = self.load_cell1(*buf, f[*i as usize], w);
            }
            TInstr::LoadRow1 { dst, buf, i } => {
                v[*dst as usize] = self.load_row1(*buf, f[*i as usize], w);
            }
            TInstr::LoadCell2 { dst, buf, row, col } => {
                // Ref + two Index nodes (3) + two index_view charges.
                *w += 3;
                let r = check_index(f[*row as usize]);
                let c = check_index(f[*col as usize]);
                let base = self.buf_view(*buf);
                let row_view = self.index_view(base, r);
                f[*dst as usize] = num(&self.index_view(row_view, c));
            }
            TInstr::NumOf { dst, a } => {
                f[*dst as usize] = num(&v[*a as usize]);
            }
            TInstr::IndexF { dst, base, idx } => {
                *w += 1;
                let i = check_index(f[*idx as usize]);
                let b = take_opd(f, v, *base);
                f[*dst as usize] = num(&self.index_view(b, i));
            }
            TInstr::IndexV { dst, base, idx } => {
                *w += 1;
                let i = check_index(f[*idx as usize]);
                let b = take_opd(f, v, *base);
                v[*dst as usize] = self.index_view(b, i);
            }
            TInstr::BinopF { dst, op, a, b } => {
                *w += 1;
                let x = f[*a as usize];
                let y = f[*b as usize];
                f[*dst as usize] = match op {
                    BinOp::Add => x + y,
                    BinOp::Sub => x - y,
                    BinOp::Mul => x * y,
                    BinOp::Div => x / y,
                };
            }
            TInstr::NegF { dst, a } => {
                *w += 1;
                f[*dst as usize] = -f[*a as usize];
            }
            TInstr::Call1F { dst, f: func, a } => {
                *w += 1;
                let x = f[*a as usize];
                f[*dst as usize] = match func {
                    Builtin::Sigmoid => augur_math::special::sigmoid(x),
                    Builtin::Exp => x.exp(),
                    Builtin::Log => x.ln(),
                    Builtin::Sqrt => x.sqrt(),
                    Builtin::Dot => unreachable!("Dot compiles to a DotF instruction"),
                };
            }
            TInstr::DotF { dst, a, b } => {
                *w += 1;
                let r = {
                    let sa = opd_slice(&self.state, v, *a);
                    let sb = opd_slice(&self.state, v, *b);
                    *w += sa.len() as u64;
                    augur_math::vecops::dot(sa, sb)
                };
                f[*dst as usize] = r;
            }
            TInstr::Op1 { dst, op, a } => {
                *w += 1;
                let va = take_opd(f, v, *a);
                v[*dst as usize] = self.op_views(*op, va, View::Num(0.0));
            }
            TInstr::Op2 { dst, op, a, b } => {
                *w += 1;
                let va = take_opd(f, v, *a);
                let vb = take_opd(f, v, *b);
                v[*dst as usize] = self.op_views(*op, va, vb);
            }
            TInstr::DistLl { dst, dist, args, n_args, point } => {
                f[*dst as usize] = self.tape_ll(*dist, args, *n_args, *point, f, v, w);
            }
            TInstr::DistGrad { dst, dist, wrt, args, n_args, point } => {
                *w += 1;
                let n = *n_args as usize;
                *w += dist_op_cost(*dist, opd_len(self, v, *point));
                let out_len = match wrt {
                    GradWrt::Param(pos) => match dist.param_tys()[*pos as usize] {
                        augur_dist::SimpleTy::Vec => opd_len(self, v, args[*pos as usize]),
                        _ => 0,
                    },
                    GradWrt::Point => match dist.point_ty() {
                        augur_dist::SimpleTy::Vec => opd_len(self, v, *point),
                        _ => 0,
                    },
                };
                let refs = [
                    opd_ref(&self.state, f, v, args[0], n > 0),
                    opd_ref(&self.state, f, v, args[1], n > 1),
                ];
                let pref = opd_ref(&self.state, f, v, *point, true);
                let grad = |out: ValueMut| match wrt {
                    GradWrt::Param(pos) => dist
                        .grad_param(*pos as usize, &refs[..n], pref, out)
                        .expect("grad_param failed"),
                    GradWrt::Point => {
                        dist.grad_point(&refs[..n], pref, out).expect("grad_point failed")
                    }
                };
                if out_len == 0 {
                    let mut out = 0.0;
                    grad(ValueMut::Scalar(&mut out));
                    if dst.is_view() {
                        v[dst.index()] = View::Num(out);
                    } else {
                        f[dst.index()] = out;
                    }
                } else {
                    // Only a vector slot has a length, and its gradient
                    // has a view register.
                    *w += out_len as u64;
                    let mut out = augur_math::PoolVec::zeroed(out_len);
                    grad(ValueMut::Vector(&mut out));
                    v[dst.index()] = View::Own(out);
                }
            }
            TInstr::LenV { dst, a } => {
                *w += 1;
                f[*dst as usize] = self.view_len(&v[*a as usize]) as f64;
            }
            TInstr::Write { lhs, op, src } => {
                if src.is_view() {
                    let view = take_opd(f, v, *src);
                    self.store_view(lhs, *op, view, f, w);
                } else {
                    self.store_num(lhs, *op, f[src.index()], f, w);
                }
            }
            TInstr::AccStore { lhs, vop, a, b } => {
                // The replaced `Op2`'s unit; the primitive and the store
                // charge the rest.
                *w += 1;
                let va = take_opd(f, v, *a);
                let vb = take_opd(f, v, *b);
                self.acc_store(lhs, *vop, va, vb, f, w);
            }
            TInstr::Sample { lhs, dist, args, n_args } => {
                let n = *n_args as usize;
                let mut owned = [OwnArg::Num(0.0), OwnArg::Num(0.0)];
                for k in 0..n {
                    owned[k] = if args[k].is_view() {
                        let view = take_opd(f, v, args[k]);
                        self.own_arg(view)
                    } else {
                        OwnArg::Num(f[args[k].index()])
                    };
                }
                *w += sample_cost(*dist, &owned[..n]);
                let dest = self.tape_dest(lhs, f);
                let refs = [owned[0].as_ref(), owned[1].as_ref()];
                match dest {
                    crate::eval::Dest::Cell { buf, idx } => {
                        let mut out = 0.0;
                        dist.sample(&refs[..n], &mut self.rng, ValueMut::Scalar(&mut out))
                            .expect("sampling failed");
                        self.state.flat_mut(buf)[idx] = out;
                    }
                    crate::eval::Dest::Range { buf, start, len } => {
                        let slice = &mut self.state.flat_mut(buf)[start..start + len];
                        let out = match dist.point_ty() {
                            augur_dist::SimpleTy::Mat => {
                                let dim = (len as f64).sqrt() as usize;
                                ValueMut::Matrix { data: slice, dim }
                            }
                            _ => ValueMut::Vector(slice),
                        };
                        dist.sample(&refs[..n], &mut self.rng, out).expect("sampling failed");
                    }
                }
            }
            TInstr::SampleLogits { lhs, w: wreg } => {
                *w += 4;
                let idx = {
                    let wv = opd_slice(&self.state, v, *wreg);
                    *w += wv.len() as u64;
                    self.rng.categorical_log(wv)
                };
                match self.tape_dest(lhs, f) {
                    crate::eval::Dest::Cell { buf, idx: cell } => {
                        self.state.flat_mut(buf)[cell] = idx as f64;
                    }
                    crate::eval::Dest::Range { .. } => panic!("SampleLogits writes a scalar"),
                }
            }
            TInstr::ChargeW { n } => {
                // Deferred charges for elided instructions in a
                // straight-line region.
                *w += *n as u64;
            }
            TInstr::ChargeDot { a } => *w += 1 + opd_len(self, v, *a) as u64,
            TInstr::LlFill { s, dist, args, n_args, lo, hi, .. } => {
                let (lo, hi) = (f[*lo as usize] as i64, f[*hi as usize] as i64);
                self.fill_ll(*s as usize, *dist, args, *n_args, lo, hi, f, v);
            }
            TInstr::LlScratch { lhs, op, dist, s, k } => {
                // The replaced LlStore's DistLl unit and cost, then the
                // store.
                *w += 1 + dist_op_cost(*dist, 0);
                let ll = self.tape_scratch[*s as usize + f[*k as usize] as usize];
                self.store_num(lhs, *op, ll, f, w);
            }
            TInstr::WriteImm { lhs, op, val } => {
                // The elided ConstF node's unit plus the store.
                *w += 1;
                self.store_num(lhs, *op, *val, f, w);
            }
            TInstr::LlStore { lhs, op, dist, args, n_args, point } => {
                // The DistLl node's unit and cost, then the store.
                let ll = self.tape_ll(*dist, args, *n_args, *point, f, v, w);
                self.store_num(lhs, *op, ll, f, w);
            }
            TInstr::LlWeight(wt) => self.ll_weight(wt, f, v, w),
            TInstr::JumpIfNe { a, b, target } => {
                if f[*a as usize] != f[*b as usize] {
                    return Flow::Jump(*target);
                }
            }
            TInstr::Jump { target } => return Flow::Jump(*target),
            TInstr::LoopStart { .. } | TInstr::LoopEnd { .. } => return Flow::Loop,
        }
        Flow::Next
    }

    /// `log p(point | args)` for a `DistLl`/`LlStore`, charging the
    /// node's unit plus the distribution's cost.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn tape_ll(
        &mut self,
        dist: DistKind,
        args: &[Opd; 2],
        n_args: u8,
        point: Opd,
        f: &[f64],
        v: &[View],
        w: &mut u64,
    ) -> f64 {
        let n = n_args as usize;
        *w += 1 + dist_op_cost(dist, opd_len(self, v, point));
        if dist == DistKind::MvNormal {
            return self.mv_normal_ll(args, n, point, f, v);
        }
        let refs = [
            opd_ref(&self.state, f, v, args[0], n > 0),
            opd_ref(&self.state, f, v, args[1], n > 1),
        ];
        let pref = opd_ref(&self.state, f, v, point, true);
        dist.log_pdf(&refs[..n], pref).expect("ll evaluation failed")
    }

    /// Cell `i` of a vector buffer, for a `LoadCell1`: the `Ref` and
    /// `Index` nodes' two units here, `index_view` charges the third.
    #[inline(always)]
    fn load_cell1(&mut self, buf: BufId, i: f64, w: &mut u64) -> f64 {
        *w += 2;
        let i = check_index(i);
        let base = self.buf_view(buf);
        num(&self.index_view(base, i))
    }

    /// Row `i` of a buffer, for a `LoadRow1`, charged as
    /// [`Engine::load_cell1`]: a `Rows` row straight from its offset
    /// table, anything else (and every panic) through `index_view`.
    #[inline(always)]
    pub(crate) fn load_row1(&mut self, buf: BufId, i: f64, w: &mut u64) -> View {
        *w += 2;
        let i = check_index(i);
        if let Shape::Rows { offsets, elem } = self.state.shape(buf) {
            if i + 1 < offsets.len() {
                self.work += 1;
                let (start, end) = (offsets[i], offsets[i + 1]);
                return match *elem {
                    RowElem::Vec => View::Slice { buf, start, len: end - start },
                    RowElem::Mat(dim) => View::MatV { buf, start, dim },
                };
            }
        }
        let base = self.buf_view(buf);
        self.index_view(base, i)
    }

    /// A [`TInstr::LlWeight`]: every bounds check first — the
    /// destination's, then the loads', or the loads' first when the
    /// density's store is the first store — so a failed check stores
    /// nothing and raises the replaced instruction's message. Then the
    /// replaced run's charges, and its stores as one cell updated in its
    /// order (the density reads no cell of the destination's buffer). The
    /// loads and the density are the `LoadRow1`/`LoadCell1` and `LlStore`
    /// paths. Kept out of line so the dispatch loop does not grow.
    #[inline(never)]
    fn ll_weight(&mut self, wt: &Weight, f: &mut [f64], v: &mut [View], w: &mut u64) {
        let checked = if wt.dest_first() { self.tape_cell(&wt.lhs, f) } else { None };
        for l in &wt.loads {
            let k = f[wt.k() as usize];
            if l.row {
                v[l.dst as usize] = self.load_row1(l.buf, k, w);
            } else {
                f[l.dst as usize] = self.load_cell1(l.buf, k, w);
            }
        }
        let cell = checked.or_else(|| self.tape_cell(&wt.lhs, f));
        let (buf, idx) = cell.expect("a weight stores to a cell");
        // The `WriteImm`'s constant and store; the `LlScratch`'s density
        // unit and cost, and store; the `LlStore`'s store.
        *w += 1 + if wt.reset.is_some() { 2 } else { 0 };
        let prior = wt.prior.map(|p| {
            *w += 2 + dist_op_cost(p.dist, 0);
            (p.op, self.tape_scratch[p.s as usize + idx])
        });
        let ll = self.tape_ll(wt.dist, &wt.args, wt.n_args, wt.point, f, v, w);
        let c = &mut self.state.flat_mut(buf)[idx];
        if let Some(x) = wt.reset {
            *c = x;
        }
        for (op, x) in prior.into_iter().chain([(wt.op, ll)]) {
            match op {
                AssignOp::Set => *c = x,
                AssignOp::Inc => *c += x,
            }
        }
    }

    /// `MvNormal` log-density through the engine's factor memo: a
    /// state-backed covariance is factored once while its cells stay
    /// unchanged, an owned one into scratch. A point row, a mean row and a
    /// covariance region (a mixture component's density) go from their
    /// cells straight into the memo. Kept out of line so the dispatch
    /// loop does not grow. A malformed operand (wrong arity, a non-matrix
    /// covariance) takes the generic path and its panics.
    #[inline(never)]
    fn mv_normal_ll(
        &mut self,
        args: &[Opd; 2],
        n: usize,
        point: Opd,
        f: &[f64],
        v: &[View],
    ) -> f64 {
        let views = n == 2 && args[0].is_view() && args[1].is_view() && point.is_view();
        if views {
            if let (
                &View::Slice { buf: xb, start: xs, len },
                &View::Slice { buf: mb, start: ms, len: ml },
                &View::MatV { buf: cb, start: cs, dim },
            ) = (&v[point.index()], &v[args[0].index()], &v[args[1].index()])
            {
                let st = &self.state;
                let (x, mu) = (&st.flat(xb)[xs..xs + len], &st.flat(mb)[ms..ms + ml]);
                let cov = &st.flat(cb)[cs..cs + dim * dim];
                return self.factors.log_pdf_at(cb, cs, cov, dim, x, mu);
            }
        }
        let refs = [
            opd_ref(&self.state, f, v, args[0], n > 0),
            opd_ref(&self.state, f, v, args[1], n > 1),
        ];
        let pref = opd_ref(&self.state, f, v, point, true);
        match (n, refs[1]) {
            (2, ValueRef::Matrix { data, dim }) => {
                let (x, mu) = (pref.vector(), refs[0].vector());
                match v[args[1].index()] {
                    View::MatV { buf, start, .. } => {
                        self.factors.log_pdf_at(buf, start, data, dim, x, mu)
                    }
                    _ => self.factors.log_pdf_owned(data, dim, x, mu),
                }
            }
            _ => DistKind::MvNormal.log_pdf(&refs[..n], pref).expect("ll evaluation failed"),
        }
    }

    /// An [`TInstr::LlFill`]: `scratch[s + k] = log p(k | args)` for `k`
    /// in `lo..hi`, evaluated exactly as a [`TInstr::DistLl`] at point `k`
    /// would be. Kept out of line so the dispatch loop does not grow.
    #[allow(clippy::too_many_arguments)]
    #[inline(never)]
    fn fill_ll(
        &mut self,
        s: usize,
        dist: DistKind,
        args: &[Opd; 2],
        n_args: u8,
        lo: i64,
        hi: i64,
        f: &[f64],
        v: &[View],
    ) {
        let n = n_args as usize;
        let refs = [
            opd_ref(&self.state, f, v, args[0], n > 0),
            opd_ref(&self.state, f, v, args[1], n > 1),
        ];
        for k in lo..hi {
            let ll = dist.log_pdf(&refs[..n], ValueRef::Scalar(k as f64));
            self.tape_scratch[s + k as usize] = ll.expect("ll evaluation failed");
        }
    }

    /// [`Engine::exec_instr`] out of line: the one instance that loop
    /// preheaders and the native backend's `step` callback share, so a
    /// build carries the interpreter twice — inlined in the dispatch loop
    /// and here.
    #[inline(never)]
    pub(crate) fn step(&mut self, i: &TInstr, f: &mut [f64], v: &mut [View], w: &mut u64) -> Flow {
        self.exec_instr(i, f, v, w)
    }

    /// Runs a loop's preheader `[from, to)` before its first iteration.
    /// Hoisted instructions charge nothing here — the loop's `LoopEnd`
    /// pays their full per-iteration charge — so the work they (and the
    /// helpers they call) add is rolled back.
    fn run_preheader(&mut self, tape: &Tape, from: u32, to: u32, f: &mut [f64], v: &mut [View]) {
        let work = self.work;
        for pc in from..to {
            self.step(&tape.instrs[pc as usize], f, v, &mut 0);
        }
        self.work = work;
    }

    /// Retires a preheader `[from, to)` once per loop entry — a parallel
    /// dispatch runs it in every chunk but retires it once — so
    /// `instrs_retired` and the op-class counts do not depend on the
    /// thread count. Returns the number of instructions retired.
    fn retire_preheader(&mut self, tape: &Tape, from: u32, to: u32) -> u64 {
        if self.profile_ops {
            for instr in &tape.instrs[from as usize..to as usize] {
                self.metrics.op_class[op_class_of(instr)] += 1;
            }
        }
        (to - from) as u64
    }

    /// Runs iterations `lo..hi` of a statistic loop through its plan. The
    /// plan's buffers are resolved once. Each iteration first evaluates
    /// its loads and every check of the replaced instructions — exactly
    /// the conditions under which each takes its fast path — and then
    /// applies its stores in body order, with those instructions' IEEE
    /// operations. At the first iteration a check fails it stops, before
    /// any of that iteration's stores, and returns that iteration's index
    /// (`hi` when all ran): the body's instructions re-run it, making its
    /// earlier stores and raising the failing instruction's own panic.
    /// Each completed iteration charges its work where the instructions
    /// charge it, and retires them and their op classes. Kept out of line
    /// so the dispatch loop does not grow.
    #[inline(never)]
    fn run_scatter(
        &mut self,
        sc: &Scatter,
        (lo, hi): (i64, i64),
        f: &[f64],
        w: &mut u64,
        retired: &mut u64,
        ops: &mut [u64; crate::metrics::N_OP_CLASSES],
    ) -> i64 {
        let cells = self.state.cells_mut();
        let mut bufs = [Loc::default(); MAX_SCATTER_BUFS];
        for (b, &id) in bufs.iter_mut().zip(&sc.bufs) {
            *b = cells.locate(id);
        }
        let Cells { arena, data, .. } = cells;
        let get =
            |arena: &[f64], region: bool, at: usize| if region { data[at] } else { arena[at] };
        let mut vals = [0.0; MAX_SCATTER_VALS];
        for &(r, slot) in &sc.pre {
            vals[slot as usize] = f[r as usize];
        }
        // Row slots as (in the data region, first cell, length); each
        // store's destination as (first arena cell, length).
        let mut rows = [(false, 0, 0); MAX_SCATTER_ROWS];
        let mut dests = [(0, 0); MAX_SCATTER_ROWS];
        let (mut i, mut row_w) = (lo, 0);
        'iters: while i < hi {
            vals[0] = i as f64;
            for ld in &sc.loads {
                match *ld {
                    ScatterLoad::Cell { dst, buf, i } => {
                        let b = &bufs[buf as usize];
                        let Some(k) = scatter_index(vals[i as usize], b.len) else { break 'iters };
                        vals[dst as usize] = get(arena, b.data, b.start + k);
                    }
                    ScatterLoad::Cell2 { dst, buf, row, col } => {
                        let b = &bufs[buf as usize];
                        let Some((s, e)) = scatter_row(vals[row as usize], b.offsets) else {
                            break 'iters;
                        };
                        let Some(k) = scatter_index(vals[col as usize], e - s) else {
                            break 'iters;
                        };
                        vals[dst as usize] = get(arena, b.data, b.start + s + k);
                    }
                    ScatterLoad::Row { dst, buf, i } => {
                        let b = &bufs[buf as usize];
                        let Some((s, e)) = scatter_row(vals[i as usize], b.offsets) else {
                            break 'iters;
                        };
                        rows[dst as usize] = (b.data, b.start + s, e - s);
                    }
                }
            }
            for (st, d) in sc.stores.iter().zip(&mut dests) {
                *d = match st.dest {
                    ScatterDest::Cell0 { buf } => (bufs[buf as usize].start, 1),
                    ScatterDest::Cell1 { buf, i, len } => {
                        let Some(k) = scatter_index(vals[i as usize], len as usize) else {
                            break 'iters;
                        };
                        (bufs[buf as usize].start + k, 1)
                    }
                    ScatterDest::Cell2 { buf, row, col } => {
                        let b = &bufs[buf as usize];
                        let Some((s, e)) = scatter_row(vals[row as usize], b.offsets) else {
                            break 'iters;
                        };
                        let Some(k) = scatter_index(vals[col as usize], e - s) else {
                            break 'iters;
                        };
                        (b.start + s + k, 1)
                    }
                    ScatterDest::Row1 { buf, i } => {
                        let b = &bufs[buf as usize];
                        let Some((s, e)) = scatter_row(vals[i as usize], b.offsets) else {
                            break 'iters;
                        };
                        (b.start + s, e - s)
                    }
                };
                // `store_view` adds a row of the destination's length in
                // place; `acc_store` an outer product of the destination's
                // length whose second operand is no shorter than its first.
                let fits = match st.src {
                    ScatterSrc::Imm(_) | ScatterSrc::Val(_) => true,
                    ScatterSrc::Row(r) => rows[r as usize].2 == d.1,
                    ScatterSrc::Outer(a, b) => {
                        let (la, lb) = (rows[a as usize].2, rows[b as usize].2);
                        lb >= la && la * la == d.1
                    }
                };
                if !fits {
                    break 'iters;
                }
            }
            for (st, &(d, n)) in sc.stores.iter().zip(&dests) {
                match st.src {
                    ScatterSrc::Imm(x) => arena[d] += x,
                    ScatterSrc::Val(s) => arena[d] += vals[s as usize],
                    ScatterSrc::Row(r) => {
                        let (region, s0, _) = rows[r as usize];
                        for k in 0..n {
                            arena[d + k] += get(arena, region, s0 + k);
                        }
                        row_w += n as u64;
                    }
                    ScatterSrc::Outer(a, b) => {
                        let ((ra, a0, la), (rb, b0, _)) = (rows[a as usize], rows[b as usize]);
                        for r in 0..la {
                            let di = get(arena, ra, a0 + r) - get(arena, rb, b0 + r);
                            for c in 0..la {
                                let dc = get(arena, ra, a0 + c) - get(arena, rb, b0 + c);
                                arena[d + r * la + c] += di * dc;
                            }
                        }
                        row_w += 2 * n as u64;
                    }
                }
            }
            i += 1;
        }
        let done = (i - lo) as u64;
        *w += done * sc.work + row_w;
        self.work += done * sc.work_eng;
        *retired += done * sc.retired;
        if self.profile_ops {
            ops.iter_mut().zip(sc.classes).for_each(|(o, c)| *o += done * c);
        }
        self.metrics.scatter_iters += done;
        i
    }

    /// Stores a view (a `Write` whose source is a view register). A
    /// region of another buffer is added (or copied) straight from its
    /// cells when the destination is a range of its length; everything
    /// else, a region of the destination's own buffer included, is copied
    /// out (`own_val`) and stored by `write_dest`, with its charges and
    /// panics.
    fn store_view(&mut self, lhs: &TDest, op: AssignOp, view: View, f: &[f64], w: &mut u64) {
        let dest = self.tape_dest(lhs, f);
        if let (Some((src, s0, n)), Dest::Range { buf, start, len }) =
            (state_range(&self.state, &view), dest)
        {
            if n == len && src != buf {
                *w += len as u64;
                let (cells, rest) = self.state.split_mut(buf);
                let (cells, xs) = (&mut cells[start..start + len], &rest.flat(src)[s0..s0 + len]);
                match op {
                    AssignOp::Set => cells.copy_from_slice(xs),
                    AssignOp::Inc => cells.iter_mut().zip(xs).for_each(|(c, x)| *c += x),
                }
                return;
            }
        }
        let val = self.own_val(view);
        self.write_dest(dest, op, val, false);
    }

    /// An [`TInstr::AccStore`], `lhs += vop(a, b)`, after its unit. With
    /// well-formed operands and a range destination of the result's
    /// length in a buffer no operand is a region of, each element is
    /// computed straight into its cell — `cell += s * x[i]`, `cell +=
    /// (a[i] - b[i]) * (a[j] - b[j])`, the operations of the `Op2` +
    /// `Write` pair in its order — charging the pair's `len` plus `len`.
    /// Anything else runs the pair itself (`op_views`, then `write_dest`),
    /// which raises its panics in its order: operand kind, destination,
    /// length.
    fn acc_store(&mut self, lhs: &TDest, vop: OpN, a: View, b: View, f: &[f64], w: &mut u64) {
        let vector = |x: &View| !matches!(x, View::Num(_));
        let n = match vop {
            OpN::VecScale if !vector(&a) && vector(&b) => Some(self.view_len(&b)),
            OpN::OuterSub if vector(&a) && vector(&b) && self.view_len(&b) >= self.view_len(&a) => {
                Some(self.view_len(&a) * self.view_len(&a))
            }
            _ => None,
        };
        if let Some(n) = n {
            let dest = self.tape_dest(lhs, f);
            if let Dest::Range { buf, start, len } = dest {
                let apart = |x| state_range(&self.state, x).is_none_or(|(b, ..)| b != buf);
                if len == n && apart(&a) && apart(&b) {
                    *w += 2 * n as u64;
                    let (cells, rest) = self.state.split_mut(buf);
                    let cells = &mut cells[start..start + n];
                    let xb = view_cells(&b, |id| rest.flat(id));
                    if vop == OpN::VecScale {
                        let s = num(&a);
                        cells.iter_mut().zip(xb).for_each(|(c, x)| *c += s * x);
                        return;
                    }
                    let xa = view_cells(&a, |id| rest.flat(id));
                    for (row, (p, q)) in
                        cells.chunks_exact_mut(xa.len().max(1)).zip(xa.iter().zip(xb))
                    {
                        let di = p - q;
                        for (c, (pj, qj)) in row.iter_mut().zip(xa.iter().zip(xb)) {
                            *c += di * (pj - qj);
                        }
                    }
                    return;
                }
            }
        }
        let val = self.op_views(vop, a, b);
        let val = self.own_val(val);
        let dest = self.tape_dest(lhs, f);
        self.write_dest(dest, AssignOp::Inc, val, false);
    }

    /// Stores a scalar (`Write`/`WriteImm`/`LlStore`): directly-addressed
    /// cells take the fast path, everything else the generic destination
    /// walk.
    #[inline(always)]
    fn store_num(&mut self, lhs: &TDest, op: AssignOp, x: f64, f: &[f64], w: &mut u64) {
        if let Some((buf, idx)) = self.tape_cell(lhs, f) {
            *w += 1;
            self.store_cell(buf, idx, op, x);
        } else {
            let dest = self.tape_dest(lhs, f);
            self.write_dest(dest, op, OwnVal::Num(x), false);
        }
    }

    /// The cell a `Cell0`/`Cell1`/`Cell2` destination names (`None` for
    /// the row and generic forms). Bounds checks and panics match
    /// [`dest_index`] exactly.
    #[inline(always)]
    fn tape_cell(&self, lhs: &TDest, f: &[f64]) -> Option<(BufId, usize)> {
        match lhs {
            TDest::Cell0 { buf } => Some((*buf, 0)),
            TDest::Cell1 { buf, i, len } => {
                let x = f[*i as usize];
                assert!(x >= 0.0, "negative store index");
                let i = x as usize;
                assert!(i < *len as usize, "store index {i} out of bounds for {len}");
                Some((*buf, i))
            }
            TDest::Cell2 { buf, row, col } => {
                let r = f[*row as usize];
                assert!(r >= 0.0, "negative store index");
                let (s, e) = self.state.row_range(*buf, r as usize);
                let c = f[*col as usize];
                assert!(c >= 0.0, "negative store index");
                let c = c as usize;
                let len = e - s;
                assert!(c < len, "store index {c} out of bounds for {len}");
                Some((*buf, s + c))
            }
            TDest::Row1 { .. } | TDest::Slow { .. } => None,
        }
    }

    /// Sets or increments one cell.
    #[inline(always)]
    fn store_cell(&mut self, buf: BufId, idx: usize, op: AssignOp, x: f64) {
        let cell = &mut self.state.flat_mut(buf)[idx];
        match op {
            AssignOp::Set => *cell = x,
            AssignOp::Inc => *cell += x,
        }
    }

    /// Splits `[lo, hi)` into at most `k` contiguous non-empty chunks.
    fn par_chunks(lo: i64, hi: i64, k: usize) -> Vec<(i64, i64)> {
        let n = (hi - lo) as usize;
        let k = k.min(n).max(1);
        (0..k).map(|i| (lo + (n * i / k) as i64, lo + (n * (i + 1) / k) as i64)).collect()
    }

    /// Which worker chunks of an `n`-chunk dispatch the fault plan wants
    /// to panic in (`panic@worker:I`). `None` when no plan is armed — the
    /// common case, so the dispatch hot path pays one branch.
    fn chunk_bombs(&self, n: usize) -> Option<Vec<bool>> {
        let plan = self.fault.as_ref()?;
        if plan.panics.is_empty() {
            return None;
        }
        Some((0..n).map(|w| plan.panic_hits(w, self.fault_sweep)).collect())
    }

    /// Fans the iterations of a write-partitioned `Par` loop (kernel
    /// launch `launch`) across the worker pool. `span` is the loop's
    /// `(preheader, body, exit)` pcs. Each worker gets a copy of the cell
    /// arena (the bound data is shared) plus clones of the register banks
    /// and scratch, and runs its chunk through [`Engine::run_par_chunk`].
    /// Chunks are contiguous and in iteration order, and each one's rows
    /// of the buffers the loop stores to are exactly the sequential run's,
    /// so copying them back ([`Engine::merge_worker`]) gives the same
    /// state at any worker count. Returns the retired-instruction count:
    /// the chunks' bodies plus the preheader once.
    fn dispatch_loop_chunks(
        &mut self,
        tape: &Tape,
        span: (u32, u32, u32),
        (lo, hi): (i64, i64),
        launch: u64,
        f: &[f64],
        v: &[View],
    ) -> u64 {
        self.metrics.par_dispatches += 1;
        let pool = self.pool.take().unwrap_or_else(|| crate::par::Pool::new(self.threads));
        let chunks = Self::par_chunks(lo, hi, pool.threads());
        let mut workers: Vec<Engine> = chunks.iter().map(|_| self.fork_worker(f, v)).collect();
        let bombs = self.chunk_bombs(chunks.len());
        let retireds: Vec<u64> = {
            let jobs: Vec<Box<dyn FnOnce() -> u64 + Send + '_>> = workers
                .iter_mut()
                .zip(&chunks)
                .enumerate()
                .map(|(w, (wk, &(a, b)))| {
                    let bomb = bombs.as_ref().is_some_and(|bs| bs[w]);
                    Box::new(move || {
                        if bomb {
                            panic!("{} (worker {w})", crate::fault::INJECTED_PANIC);
                        }
                        wk.run_par_chunk(tape, span, a, b, launch)
                    }) as Box<dyn FnOnce() -> u64 + Send + '_>
                })
                .collect();
            pool.scatter(jobs)
        };
        self.pool = Some(pool);
        let body = &tape.instrs[span.1 as usize..span.2 as usize];
        let mut written: Vec<BufId> = body.iter().filter_map(stored_buf).collect();
        written.sort_unstable();
        written.dedup();
        for (wk, &chunk) in workers.iter().zip(&chunks) {
            self.merge_worker(wk, &written, chunk);
        }
        retireds.iter().sum::<u64>() + self.retire_preheader(tape, span.0, span.1)
    }

    /// Runs one chunk `[chunk_lo, chunk_hi)` of a parallel tape loop on a
    /// worker engine: seed the chunk's first per-thread stream, pre-build
    /// the loop frame, run the loop's preheader, and re-enter the
    /// interpreter over the body span. The frame's `LoopEnd` handling
    /// advances the index, reseeds the streams, and exits at `exit` —
    /// identical bookkeeping to the sequential path, which is what makes
    /// the chunking invisible.
    fn run_par_chunk(
        &mut self,
        tape: &Tape,
        (pre_pc, body_pc, exit): (u32, u32, u32),
        chunk_lo: i64,
        chunk_hi: i64,
        launch: u64,
    ) -> u64 {
        self.metrics.par_chunks += 1;
        self.rng = self.thread_rng(launch, chunk_lo);
        self.env.push(chunk_lo);
        let frame = TapeFrame {
            idx: chunk_lo,
            hi: chunk_hi,
            body_pc,
            exit,
            fresh: true,
            launch,
            // Placeholder master: the worker's RNG is discarded with it.
            master: Some(augur_dist::Prng::seed_from_u64(0)),
        };
        let mut f = std::mem::take(&mut self.tape_fregs);
        let mut v = std::mem::take(&mut self.tape_vregs);
        self.run_preheader(tape, pre_pc, body_pc, &mut f, &mut v);
        self.tape_fregs = f;
        self.tape_vregs = v;
        self.run_tape_span(tape, body_pc, exit, vec![frame], false)
    }

    /// Resolves a compiled destination to concrete cells. The fast
    /// variants skip the shape dispatch of the generic walk; bounds
    /// checks and panics match [`dest_index`] exactly.
    fn tape_dest(&self, lhs: &TDest, f: &[f64]) -> crate::eval::Dest {
        if let Some((buf, idx)) = self.tape_cell(lhs, f) {
            return crate::eval::Dest::Cell { buf, idx };
        }
        match lhs {
            TDest::Row1 { buf, i } => {
                let x = f[*i as usize];
                assert!(x >= 0.0, "negative store index");
                let (s, e) = self.state.row_range(*buf, x as usize);
                crate::eval::Dest::Range { buf: *buf, start: s, len: e - s }
            }
            TDest::Slow { buf, idx, n_idx } => {
                let mut d = self.buf_view_dest(*buf);
                for k in 0..*n_idx as usize {
                    let i = f[idx[k] as usize];
                    assert!(i >= 0.0, "negative store index");
                    d = dest_index(&self.state, d, i as usize, k == 0);
                }
                d
            }
            TDest::Cell0 { .. } | TDest::Cell1 { .. } | TDest::Cell2 { .. } => {
                unreachable!("cell destinations resolve through tape_cell")
            }
        }
    }
}

/// Takes an operand as an owned view. Owned (pooled) registers are
/// consumed — those still have a single static reader — but descriptor
/// views are cheap `Copy`-like clones and stay in place, because value
/// numbering may route several readers through one register.
#[inline]
fn take_opd(f: &[f64], v: &mut [View], opd: Opd) -> View {
    if opd.is_view() {
        match &v[opd.index()] {
            View::Own(_) | View::OwnMat(..) => {
                std::mem::replace(&mut v[opd.index()], View::Num(0.0))
            }
            other => other.clone(),
        }
    } else {
        View::Num(f[opd.index()])
    }
}

/// The state cells a region view covers, as `(buffer, start, len)`;
/// `None` for scalars and owned values.
fn state_range(state: &State, v: &View) -> Option<(BufId, usize, usize)> {
    match v {
        View::Slice { buf, start, len } => Some((*buf, *start, *len)),
        View::MatV { buf, start, dim } => Some((*buf, *start, dim * dim)),
        View::Rows { buf } => Some((*buf, 0, state.flat(*buf).len())),
        View::Num(_) | View::Own(_) | View::OwnMat(..) => None,
    }
}

/// Borrows an operand as a `ValueRef`, or a placeholder when the slot is
/// unused (arity < 2).
#[inline]
fn opd_ref<'a>(
    state: &'a State,
    f: &'a [f64],
    v: &'a [View],
    opd: Opd,
    live: bool,
) -> ValueRef<'a> {
    if !live {
        return ValueRef::Scalar(0.0);
    }
    if opd.is_view() {
        value_ref_of(state, &v[opd.index()])
    } else {
        ValueRef::Scalar(f[opd.index()])
    }
}

/// Borrows an operand as a flat slice (vector contexts only).
#[inline]
fn opd_slice<'a>(state: &'a State, v: &'a [View], opd: Opd) -> &'a [f64] {
    if opd.is_view() {
        slice_of(state, &v[opd.index()])
    } else {
        panic!("expected vector view, got scalar")
    }
}

/// Flat length of an operand: scalars have length 0 (matching the
/// tree-walker's `view_len` of a `Num`).
#[inline]
fn opd_len(eng: &Engine, v: &[View], opd: Opd) -> usize {
    if opd.is_view() {
        eng.view_len(&v[opd.index()])
    } else {
        0
    }
}
