//! Compilation of Low--/Blk IL into slot-resolved executable form.
//!
//! This step plays the role of the paper's Cuda/C emission + `nvcc`/`clang`
//! compile: names become buffer ids, loop variables become environment
//! slots, and the result is a compact tree the engine executes without any
//! name lookups. A C-like rendering of the same program is available from
//! `augur_low::il::pretty_proc` for inspection.

use std::collections::HashMap;

use augur_blk::{Blk, BlkProc};
use augur_dist::DistKind;
use augur_lang::ast::{BinOp, Builtin};
use augur_low::il::{AssignOp, Cond, Expr, LValue, LoopKind, ProcDecl, Stmt};

use crate::state::{BufId, State};

/// A resolved reference: a state buffer or an enclosing loop variable
/// (indexed by nesting depth from the outside).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RRef {
    /// A named buffer.
    Buf(BufId),
    /// A loop variable at the given depth.
    Loop(usize),
}

/// A slot-resolved expression.
#[derive(Debug, Clone, PartialEq)]
pub enum RExpr {
    /// A constant.
    Const(f64),
    /// A buffer or loop variable.
    Ref(RRef),
    /// Indexing.
    Index(Box<RExpr>, Box<RExpr>),
    /// Binary arithmetic.
    Binop(BinOp, Box<RExpr>, Box<RExpr>),
    /// Negation.
    Neg(Box<RExpr>),
    /// Builtin function.
    Call(Builtin, Vec<RExpr>),
    /// Log-density evaluation.
    DistLl {
        /// The distribution.
        dist: DistKind,
        /// Parameters.
        args: Vec<RExpr>,
        /// Point.
        point: Box<RExpr>,
    },
    /// Gradient with respect to parameter `i`.
    DistGradParam {
        /// The distribution.
        dist: DistKind,
        /// Parameter position.
        i: usize,
        /// Parameters.
        args: Vec<RExpr>,
        /// Point.
        point: Box<RExpr>,
    },
    /// Gradient with respect to the point.
    DistGradPoint {
        /// The distribution.
        dist: DistKind,
        /// Parameters.
        args: Vec<RExpr>,
        /// Point.
        point: Box<RExpr>,
    },
    /// Functional vector/matrix primitive.
    Op(augur_low::il::OpN, Vec<RExpr>),
    /// Vector length.
    Len(Box<RExpr>),
}

/// A resolved store destination.
#[derive(Debug, Clone, PartialEq)]
pub struct RLValue {
    /// Target buffer.
    pub buf: BufId,
    /// Index expressions.
    pub indices: Vec<RExpr>,
}

/// A resolved statement.
#[derive(Debug, Clone, PartialEq)]
pub enum RStmt {
    /// Sequence.
    Seq(Vec<RStmt>),
    /// Assignment / increment.
    Assign {
        /// Destination.
        lhs: RLValue,
        /// Set or increment.
        op: AssignOp,
        /// Value.
        rhs: RExpr,
    },
    /// Equality-guarded statement.
    IfEq {
        /// Left side.
        a: RExpr,
        /// Right side.
        b: RExpr,
        /// Then branch.
        then: Box<RStmt>,
        /// Else branch.
        els: Option<Box<RStmt>>,
    },
    /// Loop; the variable lives at the next environment depth.
    Loop {
        /// Annotation (kept for the cost model).
        kind: LoopKind,
        /// Lower bound.
        lo: RExpr,
        /// Upper bound.
        hi: RExpr,
        /// Body.
        body: Box<RStmt>,
    },
    /// Draw from a distribution into a destination.
    Sample {
        /// Destination.
        lhs: RLValue,
        /// Distribution.
        dist: DistKind,
        /// Parameters.
        args: Vec<RExpr>,
    },
    /// Draw a categorical index from log weights.
    SampleLogits {
        /// Destination.
        lhs: RLValue,
        /// Log-weight vector.
        weights: RExpr,
    },
}

/// A resolved procedure.
#[derive(Debug, Clone, PartialEq)]
pub struct RProc {
    /// Name (for logs).
    pub name: String,
    /// Body.
    pub body: RStmt,
    /// Optional scalar result.
    pub ret: Option<RExpr>,
}

/// A resolved Blk-IL block (GPU target).
#[derive(Debug, Clone, PartialEq)]
pub enum RBlk {
    /// Host-sequential code.
    Seq(RStmt),
    /// A kernel of `hi − lo` threads; the thread index is the next
    /// environment slot.
    Par {
        /// Annotation.
        kind: LoopKind,
        /// Lower bound.
        lo: RExpr,
        /// Upper bound.
        hi: RExpr,
        /// Per-thread body.
        body: RStmt,
        /// Extra per-thread parallel width exposed by inlining.
        inner_par: Option<RExpr>,
    },
    /// Sequentially launched inner blocks.
    Loop {
        /// Lower bound.
        lo: RExpr,
        /// Upper bound.
        hi: RExpr,
        /// Inner blocks.
        body: Vec<RBlk>,
    },
    /// Map-reduce.
    Sum {
        /// Accumulation target (read as the initial value).
        acc: RLValue,
        /// Lower bound.
        lo: RExpr,
        /// Upper bound.
        hi: RExpr,
        /// Element expression.
        rhs: RExpr,
    },
}

/// A resolved block procedure.
#[derive(Debug, Clone, PartialEq)]
pub struct RBlkProc {
    /// Name.
    pub name: String,
    /// Blocks.
    pub blocks: Vec<RBlk>,
    /// Optional scalar result.
    pub ret: Option<RExpr>,
}

/// Compilation context: the lexical stack of loop variables.
#[derive(Debug)]
pub struct Compiler<'a> {
    state: &'a State,
    loops: Vec<String>,
}

impl<'a> Compiler<'a> {
    /// Creates a compiler resolving against `state` (all buffers must be
    /// allocated already).
    pub fn new(state: &'a State) -> Self {
        Compiler { state, loops: Vec::new() }
    }

    /// Compiles a procedure.
    ///
    /// # Panics
    ///
    /// Panics on references to unallocated buffers — a compiler bug, since
    /// size inference plans every buffer up front.
    pub fn proc(&mut self, p: &ProcDecl) -> RProc {
        RProc {
            name: p.name.clone(),
            body: self.stmt(&p.body),
            ret: p.ret.as_ref().map(|e| self.expr(e)),
        }
    }

    /// Compiles a Blk-IL procedure (GPU target).
    pub fn blk_proc(&mut self, p: &BlkProc) -> RBlkProc {
        RBlkProc {
            name: p.name.clone(),
            blocks: p.blocks.iter().map(|b| self.blk(b)).collect(),
            ret: p.ret.as_ref().map(|e| self.expr(e)),
        }
    }

    fn blk(&mut self, b: &Blk) -> RBlk {
        match b {
            Blk::SeqBlk(s) => RBlk::Seq(self.stmt(s)),
            Blk::ParBlk { kind, var, lo, hi, body, inner_par } => {
                let lo = self.expr(lo);
                let hi = self.expr(hi);
                let inner_par = inner_par.as_ref().map(|e| self.expr(e));
                self.loops.push(var.clone());
                let body = self.stmt(body);
                self.loops.pop();
                RBlk::Par { kind: *kind, lo, hi, body, inner_par }
            }
            Blk::LoopBlk { var, lo, hi, body } => {
                let lo = self.expr(lo);
                let hi = self.expr(hi);
                self.loops.push(var.clone());
                let body = body.iter().map(|b| self.blk(b)).collect();
                self.loops.pop();
                RBlk::Loop { lo, hi, body }
            }
            Blk::SumBlk { acc, var, lo, hi, rhs } => {
                let acc = self.lvalue(acc);
                let lo = self.expr(lo);
                let hi = self.expr(hi);
                self.loops.push(var.clone());
                let rhs = self.expr(rhs);
                self.loops.pop();
                RBlk::Sum { acc, lo, hi, rhs }
            }
        }
    }

    fn stmt(&mut self, s: &Stmt) -> RStmt {
        match s {
            Stmt::Seq(stmts) => RStmt::Seq(stmts.iter().map(|t| self.stmt(t)).collect()),
            Stmt::Assign { lhs, op, rhs } => {
                RStmt::Assign { lhs: self.lvalue(lhs), op: *op, rhs: self.expr(rhs) }
            }
            Stmt::If { cond: Cond::Eq(a, b), then, els } => RStmt::IfEq {
                a: self.expr(a),
                b: self.expr(b),
                then: Box::new(self.stmt(then)),
                els: els.as_ref().map(|e| Box::new(self.stmt(e))),
            },
            Stmt::Loop { kind, var, lo, hi, body } => {
                let lo = self.expr(lo);
                let hi = self.expr(hi);
                self.loops.push(var.clone());
                let body = Box::new(self.stmt(body));
                self.loops.pop();
                RStmt::Loop { kind: *kind, lo, hi, body }
            }
            Stmt::Sample { lhs, dist, args } => RStmt::Sample {
                lhs: self.lvalue(lhs),
                dist: *dist,
                args: args.iter().map(|a| self.expr(a)).collect(),
            },
            Stmt::SampleLogits { lhs, weights } => {
                RStmt::SampleLogits { lhs: self.lvalue(lhs), weights: self.expr(weights) }
            }
        }
    }

    fn lvalue(&mut self, l: &LValue) -> RLValue {
        RLValue {
            buf: self.state.expect_id(&l.var),
            indices: l.indices.iter().map(|e| self.expr(e)).collect(),
        }
    }

    fn expr(&mut self, e: &Expr) -> RExpr {
        match e {
            Expr::Var(name) => {
                // Innermost loop shadowing: search from the top.
                if let Some(pos) = self.loops.iter().rposition(|v| v == name) {
                    RExpr::Ref(RRef::Loop(pos))
                } else {
                    RExpr::Ref(RRef::Buf(self.state.expect_id(name)))
                }
            }
            Expr::Int(v) => RExpr::Const(*v as f64),
            Expr::Real(v) => RExpr::Const(*v),
            Expr::Index(a, b) => RExpr::Index(Box::new(self.expr(a)), Box::new(self.expr(b))),
            Expr::Binop(op, a, b) => {
                RExpr::Binop(*op, Box::new(self.expr(a)), Box::new(self.expr(b)))
            }
            Expr::Neg(a) => RExpr::Neg(Box::new(self.expr(a))),
            Expr::Call(f, args) => RExpr::Call(*f, args.iter().map(|a| self.expr(a)).collect()),
            Expr::DistLl { dist, args, point } => RExpr::DistLl {
                dist: *dist,
                args: args.iter().map(|a| self.expr(a)).collect(),
                point: Box::new(self.expr(point)),
            },
            Expr::DistGradParam { dist, i, args, point } => RExpr::DistGradParam {
                dist: *dist,
                i: *i,
                args: args.iter().map(|a| self.expr(a)).collect(),
                point: Box::new(self.expr(point)),
            },
            Expr::DistGradPoint { dist, args, point } => RExpr::DistGradPoint {
                dist: *dist,
                args: args.iter().map(|a| self.expr(a)).collect(),
                point: Box::new(self.expr(point)),
            },
            Expr::Op(op, args) => RExpr::Op(*op, args.iter().map(|a| self.expr(a)).collect()),
            Expr::Len(a) => RExpr::Len(Box::new(self.expr(a))),
        }
    }
}

/// Named procedure registry built once per compiled model. Each
/// procedure is stored in three forms: the CPU tree and its tape (the
/// engine picks one from its [`ExecBackend`](crate::tape::ExecBackend)),
/// and the Blk-IL tree the simulated GPU runs.
#[derive(Debug, Default)]
pub struct ProcTable {
    names: HashMap<String, usize>,
    /// CPU form of each procedure.
    pub procs: Vec<RProc>,
    /// GPU (Blk) form, same indices.
    pub blk_procs: Vec<RBlkProc>,
    /// Tape-compiled CPU form, same indices.
    pub tapes: Vec<crate::tape::TapeProc>,
    /// Buffers statically referenced by each procedure (sorted,
    /// deduplicated), same indices — the reachable-memory side of the
    /// profiler's watermark.
    pub buf_refs: Vec<Vec<BufId>>,
}

impl ProcTable {
    /// Registers a compiled procedure pair, tape-compiling the CPU form.
    /// The state supplies buffer shapes so the tape compiler can bank
    /// registers and fuse loads statically.
    pub fn insert(&mut self, cpu: RProc, gpu: RBlkProc, state: &State) {
        let idx = self.procs.len();
        self.names.insert(cpu.name.clone(), idx);
        self.tapes.push(crate::tape::TapeProc::compile(&cpu, state));
        self.buf_refs.push(proc_buf_refs(&cpu));
        self.procs.push(cpu);
        self.blk_procs.push(gpu);
    }

    /// Index of a procedure by name.
    ///
    /// # Panics
    ///
    /// Panics if the procedure does not exist.
    pub fn index(&self, name: &str) -> usize {
        *self.names.get(name).unwrap_or_else(|| panic!("no procedure named `{name}`"))
    }

    /// All registered procedure names, in insertion order.
    pub fn proc_names(&self) -> Vec<&str> {
        self.procs.iter().map(|p| p.name.as_str()).collect()
    }

    /// The name of the procedure at table index `idx` (fault-plan
    /// matching and diagnostics).
    pub fn proc_name(&self, idx: usize) -> &str {
        &self.procs[idx].name
    }
}

/// Every buffer a compiled procedure statically references (reads or
/// writes), sorted and deduplicated. Purely syntactic — a superset of
/// what any one run touches, and identical across strategies and thread
/// counts.
pub fn proc_buf_refs(p: &RProc) -> Vec<BufId> {
    let mut out = Vec::new();
    refs_stmt(&p.body, true, &mut out);
    if let Some(ret) = &p.ret {
        refs_expr(ret, &mut out);
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Every buffer a statement tree reads, with duplicates: each store's
/// destination buffer is left out, its index expressions are not.
pub(crate) fn read_bufs(s: &RStmt) -> Vec<BufId> {
    let mut out = Vec::new();
    refs_stmt(s, false, &mut out);
    out
}

/// The buffers `s` references; destination buffers only when `stores`.
fn refs_stmt(s: &RStmt, stores: bool, out: &mut Vec<BufId>) {
    match s {
        RStmt::Seq(stmts) => stmts.iter().for_each(|t| refs_stmt(t, stores, out)),
        RStmt::Assign { lhs, rhs, .. } => {
            refs_lvalue(lhs, stores, out);
            refs_expr(rhs, out);
        }
        RStmt::IfEq { a, b, then, els } => {
            refs_expr(a, out);
            refs_expr(b, out);
            refs_stmt(then, stores, out);
            if let Some(e) = els {
                refs_stmt(e, stores, out);
            }
        }
        RStmt::Loop { lo, hi, body, .. } => {
            refs_expr(lo, out);
            refs_expr(hi, out);
            refs_stmt(body, stores, out);
        }
        RStmt::Sample { lhs, args, .. } => {
            refs_lvalue(lhs, stores, out);
            args.iter().for_each(|a| refs_expr(a, out));
        }
        RStmt::SampleLogits { lhs, weights } => {
            refs_lvalue(lhs, stores, out);
            refs_expr(weights, out);
        }
    }
}

fn refs_lvalue(l: &RLValue, stores: bool, out: &mut Vec<BufId>) {
    if stores {
        out.push(l.buf);
    }
    l.indices.iter().for_each(|e| refs_expr(e, out));
}

fn refs_expr(e: &RExpr, out: &mut Vec<BufId>) {
    match e {
        RExpr::Const(_) => {}
        RExpr::Ref(RRef::Buf(id)) => out.push(*id),
        RExpr::Ref(RRef::Loop(_)) => {}
        RExpr::Index(a, b) | RExpr::Binop(_, a, b) => {
            refs_expr(a, out);
            refs_expr(b, out);
        }
        RExpr::Neg(a) | RExpr::Len(a) => refs_expr(a, out),
        RExpr::Call(_, args) | RExpr::Op(_, args) => {
            args.iter().for_each(|a| refs_expr(a, out));
        }
        RExpr::DistLl { args, point, .. }
        | RExpr::DistGradParam { args, point, .. }
        | RExpr::DistGradPoint { args, point, .. } => {
            args.iter().for_each(|a| refs_expr(a, out));
            refs_expr(point, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::Shape;

    #[test]
    fn resolves_buffers_and_loop_vars() {
        let mut st = State::new();
        let n = st.insert("N", Shape::Num);
        let acc = st.insert("acc", Shape::Num);
        let p = ProcDecl {
            name: "p".into(),
            body: Stmt::Loop {
                kind: LoopKind::Par,
                var: "i".into(),
                lo: Expr::Int(0),
                hi: Expr::var("N"),
                body: Box::new(Stmt::Assign {
                    lhs: LValue::name("acc"),
                    op: AssignOp::Inc,
                    rhs: Expr::var("i"),
                }),
            },
            ret: Some(Expr::var("acc")),
        };
        let r = Compiler::new(&st).proc(&p);
        match &r.body {
            RStmt::Loop { hi, body, .. } => {
                assert_eq!(*hi, RExpr::Ref(RRef::Buf(n)));
                match &**body {
                    RStmt::Assign { lhs, rhs, .. } => {
                        assert_eq!(lhs.buf, acc);
                        assert_eq!(*rhs, RExpr::Ref(RRef::Loop(0)));
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn inner_loop_shadows_outer() {
        let mut st = State::new();
        st.insert("out", Shape::Vector(4));
        let p = ProcDecl {
            name: "p".into(),
            body: Stmt::Loop {
                kind: LoopKind::Seq,
                var: "i".into(),
                lo: Expr::Int(0),
                hi: Expr::Int(2),
                body: Box::new(Stmt::Loop {
                    kind: LoopKind::Seq,
                    var: "i".into(), // shadowing
                    lo: Expr::Int(0),
                    hi: Expr::Int(2),
                    body: Box::new(Stmt::Assign {
                        lhs: LValue { var: "out".into(), indices: vec![Expr::var("i")] },
                        op: AssignOp::Set,
                        rhs: Expr::Real(1.0),
                    }),
                }),
            },
            ret: None,
        };
        let r = Compiler::new(&st).proc(&p);
        // the innermost i resolves to depth 1
        let RStmt::Loop { body, .. } = &r.body else { panic!() };
        let RStmt::Loop { body, .. } = &**body else { panic!() };
        let RStmt::Assign { lhs, .. } = &**body else { panic!() };
        assert_eq!(lhs.indices[0], RExpr::Ref(RRef::Loop(1)));
    }

    #[test]
    #[should_panic(expected = "no buffer named")]
    fn unknown_buffer_panics() {
        let st = State::new();
        let p = ProcDecl {
            name: "p".into(),
            body: Stmt::Assign {
                lhs: LValue::name("ghost"),
                op: AssignOp::Set,
                rhs: Expr::Real(0.0),
            },
            ret: None,
        };
        Compiler::new(&st).proc(&p);
    }
}
