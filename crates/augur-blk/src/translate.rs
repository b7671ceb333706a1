//! Initial Low-- → Blk translation (§5.4): "every top-level loop we
//! encounter in the body is converted to a parallel block with the same
//! loop annotation; the remaining top-level statements … are generated as
//! a sequential block."

use augur_low::il::{LoopKind, ProcDecl, Stmt};

use crate::il::{Blk, BlkProc};

/// Translates a procedure body into blocks.
pub fn to_blocks(proc_: &ProcDecl) -> BlkProc {
    let mut blocks = Vec::new();
    let mut pending_seq: Vec<Stmt> = Vec::new();

    let flush = |pending: &mut Vec<Stmt>, blocks: &mut Vec<Blk>| {
        if !pending.is_empty() {
            blocks.push(Blk::SeqBlk(Stmt::seq(std::mem::take(pending))));
        }
    };

    let top: Vec<Stmt> = match &proc_.body {
        Stmt::Seq(stmts) => stmts.clone(),
        other => vec![other.clone()],
    };
    for stmt in top {
        match stmt {
            Stmt::Loop { kind: kind @ (LoopKind::Par | LoopKind::AtmPar), var, lo, hi, body } => {
                flush(&mut pending_seq, &mut blocks);
                blocks.push(Blk::ParBlk { kind, var, lo, hi, body: *body, inner_par: None });
            }
            Stmt::Loop { kind: LoopKind::Seq, var, lo, hi, body } => {
                // A sequential top-level loop of parallel work becomes a
                // loopBlk; of scalar work, a seqBlk.
                let inner =
                    to_blocks(&ProcDecl { name: String::new(), body: *body.clone(), ret: None });
                let has_parallel = inner.blocks.iter().any(|b| !matches!(b, Blk::SeqBlk(_)));
                flush(&mut pending_seq, &mut blocks);
                if has_parallel {
                    blocks.push(Blk::LoopBlk { var, lo, hi, body: inner.blocks });
                } else {
                    blocks.push(Blk::SeqBlk(Stmt::Loop { kind: LoopKind::Seq, var, lo, hi, body }));
                }
            }
            other => pending_seq.push(other),
        }
    }
    flush(&mut pending_seq, &mut blocks);
    BlkProc { name: proc_.name.clone(), blocks, ret: proc_.ret.clone() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use augur_low::il::{AssignOp, Expr, LValue};

    fn inc(name: &str) -> Stmt {
        Stmt::Assign { lhs: LValue::name(name), op: AssignOp::Inc, rhs: Expr::Real(1.0) }
    }

    #[test]
    fn top_level_loops_become_parblks() {
        let p = ProcDecl {
            name: "p".into(),
            body: Stmt::Seq(vec![
                Stmt::Assign { lhs: LValue::name("acc"), op: AssignOp::Set, rhs: Expr::Real(0.0) },
                Stmt::Loop {
                    kind: LoopKind::AtmPar,
                    var: "n".into(),
                    lo: Expr::Int(0),
                    hi: Expr::var("N"),
                    body: Box::new(inc("acc")),
                },
            ]),
            ret: Some(Expr::var("acc")),
        };
        let b = to_blocks(&p);
        let kinds: Vec<&str> = b.blocks.iter().map(Blk::kind_name).collect();
        assert_eq!(kinds, ["seqBlk", "parBlk"]);
        assert_eq!(b.ret, Some(Expr::var("acc")));
    }

    #[test]
    fn trailing_statements_flushed_as_seqblk() {
        let p = ProcDecl {
            name: "p".into(),
            body: Stmt::Seq(vec![
                Stmt::Loop {
                    kind: LoopKind::Par,
                    var: "k".into(),
                    lo: Expr::Int(0),
                    hi: Expr::var("K"),
                    body: Box::new(inc("a")),
                },
                inc("b"),
            ]),
            ret: None,
        };
        let b = to_blocks(&p);
        let kinds: Vec<&str> = b.blocks.iter().map(Blk::kind_name).collect();
        assert_eq!(kinds, ["parBlk", "seqBlk"]);
    }

    #[test]
    fn seq_loop_of_parallel_work_becomes_loopblk() {
        let p = ProcDecl {
            name: "p".into(),
            body: Stmt::Loop {
                kind: LoopKind::Seq,
                var: "c".into(),
                lo: Expr::Int(0),
                hi: Expr::Int(4),
                body: Box::new(Stmt::Loop {
                    kind: LoopKind::Par,
                    var: "n".into(),
                    lo: Expr::Int(0),
                    hi: Expr::var("N"),
                    body: Box::new(inc("a")),
                }),
            },
            ret: None,
        };
        let b = to_blocks(&p);
        assert_eq!(b.blocks.len(), 1);
        match &b.blocks[0] {
            Blk::LoopBlk { body, .. } => {
                assert_eq!(body.len(), 1);
                assert_eq!(body[0].kind_name(), "parBlk");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn scalar_seq_loop_stays_sequential() {
        let p = ProcDecl {
            name: "p".into(),
            body: Stmt::Loop {
                kind: LoopKind::Seq,
                var: "i".into(),
                lo: Expr::Int(0),
                hi: Expr::Int(10),
                body: Box::new(inc("a")),
            },
            ret: None,
        };
        let b = to_blocks(&p);
        assert_eq!(b.blocks.len(), 1);
        assert_eq!(b.blocks[0].kind_name(), "seqBlk");
    }
}
