//! Property test for the interpreter's atomic accumulation: an `AtmPar`
//! sum of integer-valued cells equals the exact integer sum. Inputs come
//! from the in-tree `Prng` with fixed seeds, so every run checks the same
//! programs. The tape optimizer's generated loop nests are checked
//! in-crate (`tape_opt::properties`), where the native lane can load a
//! procedure table's C directly.

use augur_backend::compile::{Compiler, ProcTable};
use augur_backend::eval::{Engine, ExecMode};
use augur_backend::state::{Shape, State};
use augur_dist::Prng;
use augur_low::il::{AssignOp, Expr, LValue, LoopKind, ProcDecl, Stmt};
use gpu_sim::{Device, DeviceConfig};

/// Atomic accumulation order: summing via AtmPar must equal the
/// sequential sum exactly for integer-valued work (no rounding play).
#[test]
fn atomic_accumulation_is_exact_for_integers() {
    let mut rng = Prng::seed_from_u64(0xA70_41C5);
    for _ in 0..32 {
        let len = 1 + rng.below(40);
        let values: Vec<i64> = (0..len).map(|_| rng.below(200) as i64 - 100).collect();
        let mut st = State::new();
        let vid = st.insert("vals", Shape::Vector(values.len()));
        let as_f: Vec<f64> = values.iter().map(|&v| v as f64).collect();
        st.flat_mut(vid).copy_from_slice(&as_f);
        st.insert("acc", Shape::Num);
        let p = ProcDecl {
            name: "sum".into(),
            body: Stmt::Seq(vec![
                Stmt::Assign { lhs: LValue::name("acc"), op: AssignOp::Set, rhs: Expr::Real(0.0) },
                Stmt::Loop {
                    kind: LoopKind::AtmPar,
                    var: "i".into(),
                    lo: Expr::Int(0),
                    hi: Expr::Int(values.len() as i64),
                    body: Box::new(Stmt::Assign {
                        lhs: LValue::name("acc"),
                        op: AssignOp::Inc,
                        rhs: Expr::index(Expr::var("vals"), Expr::var("i")),
                    }),
                },
            ]),
            ret: Some(Expr::var("acc")),
        };
        let cpu = Compiler::new(&st).proc(&p);
        let blk = augur_blk::to_blocks(&p);
        let gpu = Compiler::new(&st).blk_proc(&blk);
        let mut table = ProcTable::default();
        table.insert(cpu, gpu, &st);
        let mut eng = Engine::new(
            st,
            Prng::seed_from_u64(0),
            Device::new(DeviceConfig::host_cpu_like()),
            ExecMode::Cpu,
        );
        let total = eng.run_proc(&table, 0).unwrap();
        let expect: i64 = values.iter().sum();
        assert_eq!(total as i64, expect);
    }
}
