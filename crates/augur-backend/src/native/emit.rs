//! The native C emitter: one translation unit per specialized plan,
//! printed from each procedure's [`TapeProc`](crate::tape::TapeProc).
//!
//! The tape lowering is the last IL of the pipeline: it has already
//! fused loads and stores, value-numbered repeated subexpressions, and
//! charged every elided node's work. The emitter prints that instruction
//! stream as C, one function per procedure, so the tape interpreter and
//! the native engine share one lowering:
//!
//! * scalar registers (`fN`) become C locals, loops become C `for`
//!   loops, and jumps become `goto`s to the tape's own targets;
//! * loads, stores, arithmetic, `dot`, loop bookkeeping, and the hot
//!   scalar densities and gradients (Normal, Bernoulli[Logit],
//!   Exponential, Poisson, Categorical over a buffer row) run inline,
//!   with the same operations in the same order and the same work
//!   charges as the interpreter (formulas copied from `augur-dist`;
//!   `-ffp-contract=off` keeps them bit-identical);
//! * categorical draws from log weights (`SampleLogits`) run inline too:
//!   `aug_cat_draw` is `Prng::categorical_log` ported exactly, stepping
//!   the engine's splitmix64 counter through the context's `R` pointer;
//! * the optimizer's loop preheaders print as `if (lo < hi) { … }`
//!   before the `for`, and its invariant log-density vectors as stack
//!   arrays (`scN`) filled there;
//! * every other instruction — other sampling, vector/matrix
//!   primitives, the remaining densities — is a `step(pc)` callback that
//!   runs the interpreter's own code for that instruction
//!   (`Engine::exec_instr`) against the engine's register banks. C spills
//!   the scalar registers the instruction reads into the bank and
//!   reloads the one it writes.
//!
//! Buffer regions (`RefBufV`/`LoadRow1` views) live in C as `(start,
//! len)` coordinates; a callback that reads one rebuilds it in the view
//! bank by re-running its definition. Owned temporaries live only in the
//! bank. A fused accumulate store over regions and scalar registers, a
//! `Write` of a region, and a constant broadcast (the `buf <- 0` reset
//! that opens each statistic and gradient procedure) run inline over a
//! whole buffer or a `Rows` row.
//!
//! Inline bounds checks mirror the interpreter's assertions. When one
//! fails, C calls `trap(pc)`, which re-runs the instruction in Rust so
//! the panic carries the interpreter's exact message.
//!
//! Shape specialization makes the code static: buffer ids, vector
//! lengths, matrix dimensions, and ragged-row offset tables are baked in
//! as constants.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use augur_dist::DistKind;
use augur_lang::ast::{BinOp, Builtin};
use augur_low::il::{AssignOp, LoopKind, OpN};

use crate::compile::ProcTable;
use crate::eval::dist_op_cost;
use crate::state::{BufId, RowElem, Shape, State};
use crate::tape::{reads, region_len, writes, GradWrt, Opd, TDest, TInstr, Tape, Weight};
use crate::tape_opt::inline_sample_len;

/// Version of the emitted C and the callback ABI, named in the artifact
/// cache directory.
pub const CODEGEN_VERSION: u32 = 5;

/// Formats an `f64` so that C's `strtod` round-trips it bit-exactly
/// (Rust's `{:e}` prints shortest-round-trip digits; correctly-rounded
/// parsing recovers the same bits).
fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NAN".into()
    } else if v == f64::INFINITY {
        "INFINITY".into()
    } else if v == f64::NEG_INFINITY {
        "(-INFINITY)".into()
    } else {
        format!("{v:e}")
    }
}

/// Emits the whole translation unit for a proc table.
pub(crate) fn emit_module(table: &ProcTable, state: &State) -> String {
    let mut used_offs = BTreeSet::new();
    let mut fns = String::new();
    for (idx, p) in table.tapes.iter().enumerate() {
        let symbol = format!("aug_p{idx}");
        let _ = writeln!(fns, "/* proc {idx}: {} */", p.name);
        fns.push_str(&ProcEmitter::new(state, &p.tape, &mut used_offs).emit(&symbol));
    }
    let mut src = PREAMBLE.replace("{CODEGEN_VERSION}", &CODEGEN_VERSION.to_string());
    for buf in used_offs {
        let Shape::Rows { offsets, .. } = state.shape(buf) else {
            unreachable!("offset table requested for non-Rows buffer");
        };
        let vals: Vec<String> = offsets.iter().map(|o| o.to_string()).collect();
        let _ = writeln!(
            src,
            "static const int64_t off{buf}[{}] = {{{}}};",
            offsets.len(),
            vals.join(", ")
        );
    }
    src.push('\n');
    src.push_str(&fns);
    let _ = writeln!(src, "void (*const aug_procs[{}])(augctx*) = {{", table.tapes.len());
    for idx in 0..table.tapes.len() {
        let _ = writeln!(src, "  aug_p{idx},");
    }
    src.push_str("};\n");
    src
}

const PREAMBLE: &str = r#"/* Generated by augur-backend native codegen v{CODEGEN_VERSION} from the tape. Do not edit. */
#include <stdint.h>
#include <math.h>

typedef struct augctx augctx;
typedef struct {
  void     (*step)(augctx*, uint32_t);
  void     (*trap)(augctx*, uint32_t);
  uint64_t (*par_enter)(augctx*);
  void     (*par_iter)(augctx*, uint64_t, int64_t);
  void     (*par_exit)(augctx*);
} augvt;
struct augctx { double** B; double* F; const augvt* vt; uint64_t W; uint64_t* R; };

/* Rust `f64 as i64`: truncating, saturating, NaN -> 0. */
static inline int64_t aug_i64(double x) {
  if (x != x) return 0;
  if (x <= -9223372036854775808.0) return INT64_MIN;
  if (x >= 9223372036854775807.0) return INT64_MAX;
  return (int64_t)x;
}
/* Rust `f64 as u8`, back to f64. */
static inline double aug_u8(double x) {
  if (!(x >= 0.0)) return 0.0;
  if (x > 255.0) return 255.0;
  return (double)(uint64_t)x;
}

/* augur_math::special and augur_dist — exact formula copies. */
static inline double aug_sigmoid(double x) {
  if (x >= 0.0) { double e = exp(-x); return 1.0 / (1.0 + e); }
  else { double e = exp(x); return e / (1.0 + e); }
}
static inline double aug_log1p_exp(double x) {
  return x > 0.0 ? x + log1p(exp(-x)) : log1p(exp(x));
}
static inline double aug_normal_ll(double x, double mu, double var) {
  if (var <= 0.0) return -INFINITY;
  double d = x - mu;
  return -0.5 * (1.8378770664093456 + log(var)) - 0.5 * d * d / var;
}
static inline double aug_bern_ll(double x, double p) {
  if (!(x == 0.0 || x == 1.0)) return -INFINITY;
  if (!(p >= 0.0 && p <= 1.0)) return -INFINITY;
  return x == 1.0 ? log(p) : log1p(-p);
}
static inline double aug_bernlogit_ll(double x, double eta) {
  if (!(x == 0.0 || x == 1.0)) return -INFINITY;
  return x == 1.0 ? -aug_log1p_exp(-eta) : -aug_log1p_exp(eta);
}
static inline double aug_exp_ll(double x, double rate) {
  if (x < 0.0 || rate <= 0.0) return -INFINITY;
  return log(rate) - rate * x;
}
/* `k as usize` is 0 for NaN and saturates above. */
static inline double aug_cat_ll(double k, const double* p, int64_t len) {
  if (k < 0.0) return -INFINITY;
  if (!(k >= 1.0)) k = 0.0;
  if (!(k < (double)len)) return -INFINITY;
  double pk = p[(int64_t)k];
  return pk > 0.0 ? log(pk) : -INFINITY;
}
/* augur_math::Prng::categorical_log over `len` log-weights, the exps
   cached in `e` for the scan; steps the splitmix64 counter `*r` once.
   -1, before drawing, where the interpreter panics. */
static inline int64_t aug_cat_draw(const double* l, int64_t len, double* e, uint64_t* r) {
  double m = -INFINITY;
  for (int64_t q = 0; q < len; q++) if (l[q] > m) m = l[q];
  if (!(m > -INFINITY)) return -1;
  double total = -0.0;
  for (int64_t q = 0; q < len; q++) { e[q] = exp(l[q] - m); total += e[q]; }
  if (!(total > 0.0 && isfinite(total))) return -1;
  uint64_t z = (*r += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  z ^= z >> 31;
  double t = (double)(z >> 11) * (1.0 / 9007199254740992.0) * total;
  for (int64_t q = 0; q < len; q++) { t -= e[q]; if (t < 0.0) return q; }
  return len - 1;
}

"#;

/// A view register's region as C expressions over its buffer.
struct Region {
    buf: BufId,
    start: String,
    len: String,
    /// Whether the interpreter hands the view to a density as a vector
    /// (slices and whole `Rows` buffers) rather than a matrix.
    vector: bool,
}

/// Marks a view register that is not a region in [`region_defs`].
pub(crate) const NOT_REGION: u32 = u32::MAX;

/// For each view register, the instruction defining it when it is a
/// region (`RefBufV`/`LoadRow1`, whose coordinates C computes), else
/// [`NOT_REGION`]. A callback that reads a region rebuilds it in the
/// view bank by re-running that definition.
pub(crate) fn region_defs(tape: &Tape) -> Vec<u32> {
    let mut defs = vec![NOT_REGION; tape.n_vregs];
    for (pc, i) in tape.instrs.iter().enumerate() {
        if let TInstr::RefBufV { dst, .. } | TInstr::LoadRow1 { dst, .. } = i {
            defs[*dst as usize] = pc as u32;
        }
    }
    defs
}

/// The C expression of an inlined scalar log-density at point `x` (a C
/// expression), when `dist` has one and its operands are scalar
/// registers (the Categorical's weights a vector region instead).
fn scalar_ll(dist: DistKind, args: &[Opd; 2], n_args: u8, x: &str) -> Option<String> {
    let a = |k: usize| (!args[k].is_view()).then(|| format!("f{}", args[k].index()));
    match (dist, n_args) {
        (DistKind::Normal, 2) => Some(format!("aug_normal_ll({x}, {}, {})", a(0)?, a(1)?)),
        (DistKind::Bernoulli, 1) => Some(format!("aug_bern_ll({x}, {})", a(0)?)),
        (DistKind::BernoulliLogit, 1) => Some(format!("aug_bernlogit_ll({x}, {})", a(0)?)),
        (DistKind::Exponential, 1) => Some(format!("aug_exp_ll({x}, {})", a(0)?)),
        _ => None,
    }
}

/// The C expression of an inlined scalar gradient (the value `grad_*`
/// accumulates into a fresh `0.0`), when one exists and every operand is
/// a scalar register.
fn scalar_grad(
    dist: DistKind,
    wrt: GradWrt,
    args: &[Opd; 2],
    n_args: u8,
    point: Opd,
) -> Option<String> {
    if point.is_view() || args[..n_args as usize].iter().any(|a| a.is_view()) {
        return None;
    }
    let x = format!("f{}", point.index());
    let a = |k: usize| format!("f{}", args[k].index());
    let g = match (dist, n_args, wrt) {
        (DistKind::Normal, 2, GradWrt::Param(0)) => format!("({x} - {}) / {}", a(0), a(1)),
        (DistKind::Normal, 2, GradWrt::Param(1)) => format!(
            "-0.5 / {v} + 0.5 * ({x} - {m}) * ({x} - {m}) / ({v} * {v})",
            m = a(0),
            v = a(1)
        ),
        (DistKind::Normal, 2, GradWrt::Point) => format!("-({x} - {}) / {}", a(0), a(1)),
        (DistKind::BernoulliLogit, 1, GradWrt::Param(0)) => {
            format!("aug_u8({x}) - aug_sigmoid({})", a(0))
        }
        (DistKind::Bernoulli, 1, GradWrt::Param(0)) => {
            format!("{x} == 1.0 ? 1.0 / {p} : -1.0 / (1.0 - {p})", p = a(0))
        }
        (DistKind::Exponential, 1, GradWrt::Param(0)) => format!("1.0 / {} - {x}", a(0)),
        (DistKind::Exponential, 1, GradWrt::Point) => format!("-{}", a(0)),
        (DistKind::Poisson, 1, GradWrt::Param(0)) => format!("{x} / {} - 1.0", a(0)),
        _ => return None,
    };
    Some(format!("0.0 + ({g})"))
}

/// The buffer of a destination C stores a range of inline — all of it,
/// or a `Rows` row; `None` for cells and the generic walk.
fn range_buf(lhs: &TDest) -> Option<BufId> {
    match lhs {
        TDest::Slow { buf, n_idx: 0, .. } | TDest::Row1 { buf, .. } => Some(*buf),
        _ => None,
    }
}

/// Emits one procedure's C function from its tape.
struct ProcEmitter<'a> {
    state: &'a State,
    tape: &'a Tape,
    used_offs: &'a mut BTreeSet<BufId>,
    /// [`region_defs`]: regions live in C, every other view register
    /// only in the interpreter's bank.
    regions: Vec<u32>,
    /// View registers inline C reads.
    in_c: Vec<bool>,
    /// Instructions C runs itself (the rest are `step` callbacks).
    inline: Vec<bool>,
    used_bufs: BTreeSet<BufId>,
    body: String,
    indent: usize,
    /// Static work charges not yet flushed into `W`.
    pending_w: u64,
    /// Freshness (`Par` outside any `Par`) of each open loop.
    loops: Vec<bool>,
    /// The first instruction after the preheader being printed; the
    /// main loop skips to it.
    resume: usize,
    /// Whether the function draws categoricals inline (and so reads the
    /// context's RNG counter).
    draws: bool,
}

impl<'a> ProcEmitter<'a> {
    /// Decides which instructions run inline — those whose view operands
    /// are regions — and so which regions need coordinates in C.
    fn new(state: &'a State, tape: &'a Tape, used_offs: &'a mut BTreeSet<BufId>) -> Self {
        // A fused weight's row loads are regions too, defined by the weight.
        let mut regions = region_defs(tape);
        for (pc, i) in tape.instrs.iter().enumerate() {
            if let TInstr::LlWeight(wt) = i {
                wt.loads.iter().filter(|l| l.row).for_each(|l| regions[l.dst as usize] = pc as u32);
            }
        }
        let mut em = ProcEmitter {
            state,
            tape,
            used_offs,
            regions,
            in_c: vec![false; tape.n_vregs],
            inline: vec![true; tape.instrs.len()],
            used_bufs: BTreeSet::new(),
            body: String::new(),
            indent: 1,
            pending_w: 0,
            loops: Vec::new(),
            resume: 0,
            draws: false,
        };
        for (pc, i) in tape.instrs.iter().enumerate() {
            em.inline[pc] = em.inlinable(i);
        }
        // A weight that calls back reads its prior term from the engine's
        // scratch, so the fill of that vector calls back too; the fills
        // inline weights read stay on C's stack.
        let mut engine_scratch = BTreeSet::new();
        for (pc, i) in tape.instrs.iter().enumerate() {
            if let (TInstr::LlWeight(wt), false) = (i, em.inline[pc]) {
                engine_scratch.extend(wt.prior.map(|p| p.s));
            }
        }
        for (pc, i) in tape.instrs.iter().enumerate() {
            if let TInstr::LlFill { s, .. } = i {
                em.inline[pc] = !engine_scratch.contains(s);
            }
            if em.inline[pc] {
                reads(i, &mut |o| {
                    if o.is_view() {
                        em.in_c[o.index()] = true;
                    }
                });
                if let TInstr::LlWeight(wt) = i {
                    wt.loads.iter().filter(|l| l.row).for_each(|l| em.in_c[l.dst as usize] = true);
                }
            }
        }
        em
    }

    /// Whether an operand is a region.
    fn is_region(&self, o: &Opd) -> bool {
        o.is_view() && self.regions[o.index()] != NOT_REGION
    }

    /// Whether C can run `i` itself.
    fn inlinable(&self, i: &TInstr) -> bool {
        let region = |o: &Opd| self.is_region(o);
        // A range store reads scalar registers and regions of other
        // buffers (from its own, the interpreter copies first).
        let range_from = |lhs: &TDest, srcs: &[Opd]| {
            range_buf(lhs).is_some_and(|d| {
                srcs.iter().all(|o| !o.is_view() || region(o) && self.region(o.index()).buf != d)
            })
        };
        match i {
            TInstr::ConstF { .. }
            | TInstr::LoopIdx { .. }
            | TInstr::LoadScalar { .. }
            | TInstr::BinopF { .. }
            | TInstr::NegF { .. }
            | TInstr::Call1F { .. }
            | TInstr::ChargeW { .. }
            | TInstr::JumpIfNe { .. }
            | TInstr::Jump { .. }
            | TInstr::LoopStart { .. }
            | TInstr::LoopEnd { .. }
            | TInstr::LlFill { .. }
            | TInstr::RefBufV { .. }
            | TInstr::LoadRow1 { .. } => true,
            TInstr::ChargeDot { a } => region(a),
            TInstr::LoadCell1 { buf, .. } => matches!(self.state.shape(*buf), Shape::Vector(_)),
            TInstr::LoadCell2 { buf, .. } => matches!(
                self.state.shape(*buf),
                Shape::Matrix(_) | Shape::Rows { elem: RowElem::Vec, .. }
            ),
            TInstr::DotF { a, b, .. } => region(a) && region(b),
            TInstr::LenV { a, .. } => region(&Opd::v(*a)),
            TInstr::DistGrad { dst, dist, wrt, args, n_args, point } => {
                !dst.is_view() && scalar_grad(*dist, *wrt, args, *n_args, *point).is_some()
            }
            TInstr::DistLl { dist, args, n_args, point, .. } => {
                self.ll_at(*dist, args, *n_args, *point).is_some()
            }
            TInstr::LlStore { lhs, dist, args, n_args, point, .. } => {
                self.cell(lhs).is_some() && self.ll_at(*dist, args, *n_args, *point).is_some()
            }
            TInstr::Write { lhs, src, .. } if src.is_view() => range_from(lhs, &[*src]),
            TInstr::Write { lhs, .. } => self.cell(lhs).is_some(),
            TInstr::AccStore { lhs, vop, a, b } => {
                b.is_view() && (a.is_view() || *vop == OpN::VecScale) && range_from(lhs, &[*a, *b])
            }
            // A broadcast (`buf <- 0` over a whole buffer or a row) is a
            // fill; a broadcast increment panics in the interpreter.
            TInstr::WriteImm { lhs, op, .. } => {
                self.cell(lhs).is_some() || *op == AssignOp::Set && range_buf(lhs).is_some()
            }
            TInstr::LlScratch { lhs, .. } => self.cell(lhs).is_some(),
            TInstr::LlWeight(wt) => self.ll_at(wt.dist, &wt.args, wt.n_args, wt.point).is_some(),
            TInstr::SampleLogits { lhs, w } => self.sample_len(lhs, *w).is_some(),
            TInstr::NumOf { .. }
            | TInstr::IndexF { .. }
            | TInstr::IndexV { .. }
            | TInstr::Op1 { .. }
            | TInstr::Op2 { .. }
            | TInstr::Sample { .. } => false,
        }
    }

    /// The exp-array length of a `SampleLogits` C draws inline.
    fn sample_len(&self, lhs: &TDest, w: Opd) -> Option<usize> {
        let def = self.is_region(&w).then(|| &self.tape.instrs[self.regions[w.index()] as usize]);
        inline_sample_len(self.state, lhs, def)
    }

    /// An inlined log-density's C expression at a scalar-register point,
    /// if it has one.
    fn ll_at(&self, dist: DistKind, args: &[Opd; 2], n_args: u8, point: Opd) -> Option<String> {
        let x = format!("f{}", point.index());
        self.ll_expr(dist, args, n_args, &x).filter(|_| !point.is_view())
    }

    /// An inlined log-density's C expression at point `x` (a C
    /// expression), if it has one.
    fn ll_expr(&self, dist: DistKind, args: &[Opd; 2], n_args: u8, x: &str) -> Option<String> {
        if dist == DistKind::Categorical && n_args == 1 {
            let w = args[0];
            if !self.is_region(&w) {
                return None;
            }
            let r = self.region(w.index());
            if !r.vector {
                return None;
            }
            return Some(format!("aug_cat_ll({x}, b{} + {}, {})", r.buf, r.start, r.len));
        }
        scalar_ll(dist, args, n_args, x)
    }

    /// The region of a region view register. Its length and vector-ness
    /// come from [`region_len`]; only a ragged row's length is read at
    /// run time (`vlN`), the table giving its bound.
    fn region(&self, r: usize) -> Region {
        let def = match &self.tape.instrs[self.regions[r] as usize] {
            TInstr::LlWeight(wt) => {
                let load = wt.loads.iter().find(|l| l.row && l.dst as usize == r);
                &load.expect("a fused row load defines the region").instr(wt.k())
            }
            def => def,
        };
        let (len, vector) = region_len(self.state, def)
            .unwrap_or_else(|| unreachable!("view register {r} defined by {def:?}"));
        let (buf, start, len) = match def {
            TInstr::RefBufV { buf, .. } => (*buf, "0".into(), len.to_string()),
            TInstr::LoadRow1 { buf, .. } => {
                let ragged =
                    matches!(self.state.shape(*buf), Shape::Rows { elem: RowElem::Vec, .. });
                (*buf, format!("vs{r}"), if ragged { format!("vl{r}") } else { len.to_string() })
            }
            _ => unreachable!("region_len answers only for regions"),
        };
        Region { buf, start, len, vector }
    }

    /// The guard and cell index of a directly-addressed destination
    /// (`None` for row and generic destinations, which stay in Rust).
    fn cell(&self, lhs: &TDest) -> Option<(BufId, Option<String>, String)> {
        match lhs {
            TDest::Cell0 { buf } => Some((*buf, None, "0".into())),
            TDest::Cell1 { buf, i, len } => {
                Some((*buf, Some(format!("f{i} >= 0.0 && f{i} < {len}")), format!("(int64_t)f{i}")))
            }
            TDest::Cell2 { buf, row, col } => {
                let nrows = self.state.shape(*buf).num_rows();
                let k = format!("(int64_t)f{row}");
                Some((
                    *buf,
                    Some(format!(
                        "f{row} >= 0.0 && f{row} < {nrows} && f{col} >= 0.0 && \
                         f{col} < (double)(off{buf}[{k} + 1] - off{buf}[{k}])"
                    )),
                    format!("off{buf}[{k}] + (int64_t)f{col}"),
                ))
            }
            TDest::Row1 { .. } | TDest::Slow { .. } => None,
        }
    }

    fn line(&mut self, s: &str) {
        for _ in 0..self.indent {
            self.body.push_str("  ");
        }
        self.body.push_str(s);
        self.body.push('\n');
    }

    fn flush_w(&mut self) {
        if self.pending_w > 0 {
            let w = std::mem::take(&mut self.pending_w);
            self.line(&format!("W += {w};"));
        }
    }

    fn buf(&mut self, id: BufId) -> String {
        self.used_bufs.insert(id);
        format!("b{id}")
    }

    /// C that spills into the bank the scalar registers `pc` reads,
    /// including those the definitions of its region operands read (the
    /// callback re-runs them).
    fn spills(&self, pc: usize) -> String {
        let mut regs = BTreeSet::new();
        let mut scalar = |o: Opd| {
            if !o.is_view() {
                regs.insert(o.index());
            }
        };
        reads(&self.tape.instrs[pc], &mut |o| {
            if self.is_region(&o) {
                reads(&self.tape.instrs[self.regions[o.index()] as usize], &mut scalar);
            } else {
                scalar(o);
            }
        });
        regs.iter().map(|r| format!("F[{r}] = f{r}; ")).collect()
    }

    /// A `step(pc)` callback: spill, call, reload the scalar result.
    fn step(&mut self, pc: usize) {
        let mut s = self.spills(pc);
        let _ = write!(s, "vt->step(c, {pc});");
        if let Some(d) = writes(&self.tape.instrs[pc]).filter(|d| !d.is_view()) {
            let _ = write!(s, " f{0} = F[{0}];", d.index());
        }
        self.line(&s);
    }

    /// `if (!(cond)) trap(pc)`: re-runs `pc` in Rust, so the interpreter
    /// raises its own panic. A guard the line before already prints (a
    /// weight's destination and row checks at the same index) is not
    /// printed again.
    fn guard(&mut self, pc: usize, cond: &str) {
        let g = format!("if (!({cond})) {{ {}vt->trap(c, {pc}); }}", self.spills(pc));
        if self.body.lines().next_back().map(str::trim_start) != Some(g.as_str()) {
            self.line(&g);
        }
    }

    /// A store over a whole buffer or a `Rows` row whose length must be
    /// `len` (C traps on a bad row or length; `None` for a broadcast,
    /// which fills whatever length the destination has). `lp` prints the
    /// loop from the destination's C buffer, start and length; the length
    /// is charged `times` times.
    fn range_store(
        &mut self,
        pc: usize,
        lhs: &TDest,
        len: Option<&str>,
        times: usize,
        lp: impl FnOnce(&str, &str, &str) -> String,
    ) {
        let buf = range_buf(lhs).expect("a range store");
        let (start, n) = match (lhs, self.state.shape(buf).clone()) {
            (TDest::Row1 { i, .. }, Shape::Rows { offsets, .. }) => {
                self.guard(pc, &format!("f{i} >= 0.0 && f{i} < {}", offsets.len() - 1));
                self.used_offs.insert(buf);
                let k = format!("off{buf}[(int64_t)f{i}]");
                (k.clone(), format!("(off{buf}[(int64_t)f{i} + 1] - {k})"))
            }
            (_, shape) => ("0".into(), shape.num_cells().to_string()),
        };
        if let Some(len) = len.filter(|len| *len != n) {
            self.guard(pc, &format!("{len} == {n}"));
        }
        let d = self.buf(buf);
        self.line(&lp(&d, &start, &n));
        for _ in 0..times {
            self.charge_len(&n);
        }
    }

    /// `d[q] op x[q]` over a range store from region `x` (`op` may scale).
    fn vec_store(&mut self, pc: usize, lhs: &TDest, x: Opd, op: &str, times: usize) {
        let r = self.region(x.index());
        let x = self.buf(r.buf);
        self.range_store(pc, lhs, Some(&r.len), times, |d, ds, n| {
            format!("for (int64_t q = 0; q < {n}; q++) {d}[{ds} + q] {op}{x}[{} + q];", r.start)
        });
    }

    /// A `LoadRow1` region: the interpreter's bounds check, then the
    /// coordinates when inline code reads them.
    fn load_row(&mut self, pc: usize, r: usize, buf: BufId, i: u32) {
        let coords = self.in_c[r];
        match self.state.shape(buf).clone() {
            Shape::Matrix(d) => {
                self.guard(pc, &format!("f{i} >= 0.0 && f{i} < {d}"));
                if coords {
                    self.line(&format!("vs{r} = (int64_t)f{i} * {d};"));
                }
            }
            Shape::Rows { elem, offsets } => {
                self.guard(pc, &format!("f{i} >= 0.0 && f{i} < {}", offsets.len() - 1));
                if coords {
                    self.used_offs.insert(buf);
                    self.line(&format!("vs{r} = off{buf}[(int64_t)f{i}];"));
                    if elem == RowElem::Vec {
                        self.line(&format!("vl{r} = off{buf}[(int64_t)f{i} + 1] - vs{r};"));
                    }
                }
            }
            shape => unreachable!("row load from a {shape:?} buffer"),
        }
    }

    /// A scalar store into a directly-addressed cell.
    fn store(&mut self, pc: usize, lhs: &TDest, op: AssignOp, x: &str) {
        self.check_cell(pc, lhs);
        self.write_cell(lhs, op, x);
    }

    /// The bounds check of a directly-addressed cell.
    fn check_cell(&mut self, pc: usize, lhs: &TDest) {
        let (buf, cond, _) = self.cell(lhs).expect("inline stores address a cell");
        if matches!(lhs, TDest::Cell2 { .. }) {
            self.used_offs.insert(buf);
        }
        if let Some(cond) = cond {
            self.guard(pc, &cond);
        }
    }

    /// A store into a directly-addressed cell already checked.
    fn write_cell(&mut self, lhs: &TDest, op: AssignOp, x: &str) {
        let (buf, _, idx) = self.cell(lhs).expect("inline stores address a cell");
        let b = self.buf(buf);
        let sym = if op == AssignOp::Set { "=" } else { "+=" };
        self.line(&format!("{b}[{idx}] {sym} {x};"));
    }

    /// A `LoadCell1` from a vector buffer: its bounds check (trapping to
    /// `pc`), then the cell.
    fn load_cell(&mut self, pc: usize, dst: u32, buf: BufId, i: u32) {
        let Shape::Vector(n) = *self.state.shape(buf) else { unreachable!() };
        self.guard(pc, &format!("f{i} >= 0.0 && f{i} < {n}"));
        let b = self.buf(buf);
        self.line(&format!("f{dst} = {b}[(int64_t)f{i}];"));
    }

    /// An inline [`TInstr::LlWeight`]: one guard per bounds check, in the
    /// interpreter's order, then the replaced run's stores.
    fn weight(&mut self, pc: usize, wt: &Weight) {
        let k = wt.k();
        self.pending_w += wt.work(0);
        if wt.dest_first() {
            self.check_cell(pc, &wt.lhs);
        }
        for l in &wt.loads {
            if l.row {
                self.load_row(pc, l.dst as usize, l.buf, k);
            } else {
                self.load_cell(pc, l.dst, l.buf, k);
            }
        }
        if !wt.dest_first() {
            self.check_cell(pc, &wt.lhs);
        }
        if let Some(c) = wt.reset {
            self.write_cell(&wt.lhs, AssignOp::Set, &fmt_f64(c));
        }
        if let Some(p) = wt.prior {
            self.write_cell(&wt.lhs, p.op, &format!("sc{}[(int64_t)f{k}]", p.s));
        }
        let e = self.ll_at(wt.dist, &wt.args, wt.n_args, wt.point).expect("inlinable");
        self.ll_bufs(wt.dist, &wt.args);
        self.write_cell(&wt.lhs, wt.op, &e);
    }

    fn instr(&mut self, pc: usize) {
        let tape = self.tape;
        let i = &tape.instrs[pc];
        if !self.inline[pc] {
            self.step(pc);
            return;
        }
        match i {
            TInstr::ConstF { dst, val } => {
                self.pending_w += 1;
                self.line(&format!("f{dst} = {};", fmt_f64(*val)));
            }
            TInstr::LoopIdx { dst, depth } => {
                self.pending_w += 1;
                self.line(&format!("f{dst} = (double)i{depth};"));
            }
            TInstr::LoadScalar { dst, buf } => {
                self.pending_w += 1;
                let b = self.buf(*buf);
                self.line(&format!("f{dst} = {b}[0];"));
            }
            TInstr::RefBufV { .. } => self.pending_w += 1,
            TInstr::LoadRow1 { dst, buf, i } => {
                self.pending_w += 3;
                self.load_row(pc, *dst as usize, *buf, *i);
            }
            TInstr::LoadCell1 { dst, buf, i } => {
                self.pending_w += 3;
                self.load_cell(pc, *dst, *buf, *i);
            }
            TInstr::LoadCell2 { dst, buf, row, col } => {
                self.pending_w += 5;
                let b = self.buf(*buf);
                match self.state.shape(*buf).clone() {
                    Shape::Matrix(d) => {
                        self.guard(
                            pc,
                            &format!(
                                "f{row} >= 0.0 && f{col} >= 0.0 && f{row} < {d} && f{col} < {d}"
                            ),
                        );
                        self.line(&format!(
                            "f{dst} = {b}[(int64_t)f{row} * {d} + (int64_t)f{col}];"
                        ));
                    }
                    Shape::Rows { offsets, .. } => {
                        self.used_offs.insert(*buf);
                        let k = format!("(int64_t)f{row}");
                        self.guard(
                            pc,
                            &format!(
                                "f{row} >= 0.0 && f{col} >= 0.0 && f{row} < {} && \
                                 f{col} < (double)(off{buf}[{k} + 1] - off{buf}[{k}])",
                                offsets.len() - 1
                            ),
                        );
                        self.line(&format!("f{dst} = {b}[off{buf}[{k}] + (int64_t)f{col}];"));
                    }
                    shape => unreachable!("cell load from a {shape:?} buffer"),
                }
            }
            TInstr::BinopF { dst, op, a, b } => {
                self.pending_w += 1;
                let sym = match op {
                    BinOp::Add => "+",
                    BinOp::Sub => "-",
                    BinOp::Mul => "*",
                    BinOp::Div => "/",
                };
                self.line(&format!("f{dst} = f{a} {sym} f{b};"));
            }
            TInstr::NegF { dst, a } => {
                self.pending_w += 1;
                self.line(&format!("f{dst} = -f{a};"));
            }
            TInstr::Call1F { dst, f, a } => {
                self.pending_w += 1;
                let name = match f {
                    Builtin::Sigmoid => "aug_sigmoid",
                    Builtin::Exp => "exp",
                    Builtin::Log => "log",
                    Builtin::Sqrt => "sqrt",
                    Builtin::Dot => unreachable!("Dot compiles to a DotF instruction"),
                };
                self.line(&format!("f{dst} = {name}(f{a});"));
            }
            TInstr::DotF { dst, a, b } => {
                self.pending_w += 1;
                let (ra, rb) = (self.region(a.index()), self.region(b.index()));
                let (ba, bb) = (self.buf(ra.buf), self.buf(rb.buf));
                if ra.len != rb.len {
                    self.guard(pc, &format!("{} == {}", ra.len, rb.len));
                }
                self.charge_len(&ra.len);
                self.line(&format!(
                    "{{ double s = -0.0; for (int64_t q = 0; q < {}; q++) s += {ba}[{} + q] * {bb}[{} + q]; f{dst} = s; }}",
                    ra.len, ra.start, rb.start
                ));
            }
            TInstr::LenV { dst, a } => {
                self.pending_w += 1;
                let len = self.region(*a as usize).len;
                self.line(&format!("f{dst} = (double)({len});"));
            }
            TInstr::DistLl { dst, dist, args, n_args, point } => {
                self.pending_w += 5;
                let e = self.ll_at(*dist, args, *n_args, *point).expect("inlinable");
                self.ll_bufs(*dist, args);
                self.line(&format!("f{dst} = {e};"));
            }
            TInstr::DistGrad { dst, dist, wrt, args, n_args, point } => {
                self.pending_w += 5;
                let e = scalar_grad(*dist, *wrt, args, *n_args, *point).expect("inlinable");
                self.line(&format!("f{} = {e};", dst.index()));
            }
            TInstr::Write { lhs, op, src } if src.is_view() => {
                let sym = if *op == AssignOp::Set { "=" } else { "+=" };
                self.vec_store(pc, lhs, *src, &format!("{sym} "), 1);
            }
            TInstr::Write { lhs, op, src } => {
                self.pending_w += 1;
                self.store(pc, lhs, *op, &format!("f{}", src.index()));
            }
            // The `Op2` unit, then the primitive's and the store's length.
            TInstr::AccStore { lhs, vop: OpN::VecScale, a, b } => {
                self.pending_w += 1;
                self.vec_store(pc, lhs, *b, &format!("+= f{} * ", a.index()), 2);
            }
            TInstr::AccStore { lhs, a, b, .. } => {
                self.pending_w += 1;
                let (ra, rb) = (self.region(a.index()), self.region(b.index()));
                let (xa, xb, m) = (self.buf(ra.buf), self.buf(rb.buf), &ra.len);
                let diff = |k: &str| format!("{xa}[{} + {k}] - {xb}[{} + {k}]", ra.start, rb.start);
                if rb.len != *m {
                    self.guard(pc, &format!("{} >= {m}", rb.len));
                }
                self.range_store(pc, lhs, Some(&format!("{m} * {m}")), 2, |d, ds, _| {
                    format!(
                        "for (int64_t q = 0; q < {m}; q++) {{ double dq = {}; for (int64_t r = 0; \
                         r < {m}; r++) {d}[{ds} + q * {m} + r] += dq * ({}); }}",
                        diff("q"),
                        diff("r")
                    )
                });
            }
            // The elided `ConstF`'s unit, then the store's: one for a
            // cell, the length for a broadcast.
            TInstr::WriteImm { lhs, op, val } if self.cell(lhs).is_some() => {
                self.pending_w += 2;
                self.store(pc, lhs, *op, &fmt_f64(*val));
            }
            TInstr::WriteImm { lhs, val, .. } => {
                self.pending_w += 1;
                let x = fmt_f64(*val);
                self.range_store(pc, lhs, None, 1, |d, ds, n| {
                    format!("for (int64_t q = 0; q < {n}; q++) {d}[{ds} + q] = {x};")
                });
            }
            TInstr::LlStore { lhs, op, dist, args, n_args, point } => {
                self.pending_w += 6;
                let e = self.ll_at(*dist, args, *n_args, *point).expect("inlinable");
                self.ll_bufs(*dist, args);
                self.store(pc, lhs, *op, &e);
            }
            TInstr::LlFill { s, dist, args, n_args, lo, hi, .. } => {
                let e = self
                    .ll_expr(*dist, args, *n_args, "(double)q")
                    .expect("the optimizer fills only densities C prints inline");
                self.ll_bufs(*dist, args);
                self.line(&format!(
                    "for (int64_t q = aug_i64(f{lo}); q < aug_i64(f{hi}); q++) sc{s}[q] = {e};"
                ));
            }
            TInstr::LlScratch { lhs, op, dist, s, k } => {
                // The replaced LlStore's unit, density cost, and store.
                self.pending_w += 2 + dist_op_cost(*dist, 0);
                self.store(pc, lhs, *op, &format!("sc{s}[(int64_t)f{k}]"));
            }
            TInstr::LlWeight(wt) => self.weight(pc, wt),
            TInstr::SampleLogits { lhs, w } => {
                let n = self.sample_len(lhs, *w).expect("inlinable");
                let r = self.region(w.index());
                self.pending_w += 4;
                self.charge_len(&r.len);
                let b = self.buf(r.buf);
                self.draws = true;
                self.line(&format!("{{ double e[{n}];"));
                self.indent += 1;
                let (start, len) = (&r.start, &r.len);
                self.line(&format!("int64_t k = aug_cat_draw({b} + {start}, {len}, e, R);"));
                self.guard(pc, "k >= 0");
                self.store(pc, lhs, AssignOp::Set, "(double)k");
                self.indent -= 1;
                self.line("}");
            }
            TInstr::ChargeW { n } => self.pending_w += *n as u64,
            TInstr::ChargeDot { a } => {
                self.pending_w += 1;
                let len = self.region(a.index()).len;
                self.charge_len(&len);
            }
            TInstr::JumpIfNe { a, b, target } => {
                self.flush_w();
                self.line(&format!("if (f{a} != f{b}) goto L{target};"));
            }
            TInstr::Jump { target } => {
                self.flush_w();
                self.line(&format!("goto L{target};"));
            }
            TInstr::LoopStart { kind, lo, hi, body, .. } => {
                self.flush_w();
                let d = self.loops.len();
                // A `Par` loop outside any fresh `Par` loop is one kernel
                // launch with per-iteration RNG streams.
                let fresh = *kind == LoopKind::Par && !self.loops.contains(&true);
                self.line(&format!("{{ int64_t n{d} = aug_i64(f{hi});"));
                self.indent += 1;
                if fresh {
                    self.line(&format!("uint64_t L{d} = vt->par_enter(c);"));
                }
                let body = *body as usize;
                if body > pc + 1 {
                    // The preheader: once per entry of a loop that runs,
                    // charging nothing (`LoopEnd` pays hoisted work).
                    // Hoisted region selections may print no code.
                    let outer = std::mem::take(&mut self.body);
                    self.indent += 1;
                    for p in pc + 1..body {
                        self.instr(p);
                    }
                    self.indent -= 1;
                    self.pending_w = 0;
                    self.resume = body;
                    let pre = std::mem::replace(&mut self.body, outer);
                    if !pre.is_empty() {
                        self.line(&format!("if (aug_i64(f{lo}) < n{d}) {{"));
                        self.body.push_str(&pre);
                        self.line("}");
                    }
                }
                self.line(&format!("for (int64_t i{d} = aug_i64(f{lo}); i{d} < n{d}; i{d}++) {{"));
                self.indent += 1;
                if fresh {
                    self.line(&format!("vt->par_iter(c, L{d}, i{d});"));
                }
                self.loops.push(fresh);
            }
            TInstr::LoopEnd { w } => {
                // Elided-work charges land once per iteration.
                self.pending_w += *w as u64;
                self.flush_w();
                let fresh = self.loops.pop().expect("LoopEnd closes a LoopStart");
                self.indent -= 1;
                self.line("}");
                if fresh {
                    self.line("vt->par_exit(c);");
                }
                self.indent -= 1;
                self.line("}");
            }
            _ => unreachable!("{i:?} always runs in Rust"),
        }
    }

    /// Charges a region length: statically when it is a constant.
    fn charge_len(&mut self, len: &str) {
        match len.parse::<u64>() {
            Ok(n) => self.pending_w += n,
            Err(_) => self.line(&format!("W += (uint64_t){len};")),
        }
    }

    /// Declares the weight buffer of an inlined Categorical.
    fn ll_bufs(&mut self, dist: DistKind, args: &[Opd; 2]) {
        if dist == DistKind::Categorical {
            let r = self.region(args[0].index());
            self.buf(r.buf);
        }
    }

    /// The complete C function.
    fn emit(mut self, symbol: &str) -> String {
        let mut labels = BTreeSet::new();
        for i in &self.tape.instrs {
            if let TInstr::JumpIfNe { target, .. } | TInstr::Jump { target } = i {
                labels.insert(*target as usize);
            }
        }
        for pc in 0..self.tape.instrs.len() {
            if pc < self.resume {
                continue;
            }
            if labels.contains(&pc) {
                self.flush_w();
                self.line(&format!("L{pc}:;"));
            }
            self.instr(pc);
        }
        if labels.contains(&self.tape.instrs.len()) {
            self.flush_w();
            self.line(&format!("L{}:;", self.tape.instrs.len()));
        }
        self.pending_w += self.tape.tail_w as u64;
        self.flush_w();

        let mut f = format!("static void {symbol}(augctx* c) {{\n");
        f.push_str("  const augvt* vt = c->vt;\n  double* F = c->F;\n  uint64_t W = 0;\n");
        if self.draws {
            f.push_str("  uint64_t* R = c->R;\n");
        }
        for b in &self.used_bufs {
            let _ = writeln!(f, "  double* b{b} = c->B[{b}];");
        }
        let regs: Vec<String> = (0..self.tape.n_fregs).map(|r| format!("f{r}")).collect();
        if !regs.is_empty() {
            let _ = writeln!(f, "  double {};", regs.join(", "));
        }
        // Row coordinates (`vsN`, and `vlN` for ragged rows) C reads.
        let mut coords = Vec::new();
        for r in 0..self.regions.len() {
            if self.in_c[r] && self.regions[r] != NOT_REGION {
                let Region { start, len, .. } = self.region(r);
                coords.extend([start, len].into_iter().filter(|c| c.starts_with('v')));
            }
        }
        if !coords.is_empty() {
            let _ = writeln!(f, "  int64_t {};", coords.join(", "));
        }
        for (i, inline) in self.tape.instrs.iter().zip(&self.inline) {
            if let (TInstr::LlFill { s, len, .. }, true) = (i, inline) {
                let _ = writeln!(f, "  double sc{s}[{len}];");
            }
        }
        f.push_str(&self.body);
        f.push_str("  c->W += W;\n  (void)vt; (void)F;\n}\n\n");
        f
    }
}
