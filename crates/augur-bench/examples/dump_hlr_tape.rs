//! Disassembles every compiled HLR tape and prints the folded op-class
//! profile after a few sweeps — the inspection loop used to find (and
//! keep an eye on) redundant work in the tape emitter, e.g. the
//! duplicated logit chain in the row loop of `u0_llgrad` that
//! value-numbering CSE shares between the log-density term and the
//! gradient. Compare with `dump_lda` for the Gibbs-heavy models.

use augur::prelude::*;
use augurv2::{models, workloads};

fn main() {
    let d = 8usize;
    let n = 60usize;
    let data = workloads::logistic_data(n, d, 11);
    let model = Model::compile(models::HLR).unwrap();
    let plan = model
        .plan(
            vec![
                HostValue::Real(1.0),
                HostValue::Int(n as i64),
                HostValue::Int(d as i64),
                HostValue::Ragged(data.x.clone()),
            ],
            vec![("y", HostValue::VecF(data.y.clone()))],
        )
        .unwrap();
    let mut s = plan
        .session(SessionConfig {
            backend: ExecBackend::Tape,
            seed: 3,
            mcmc: McmcConfig { step_size: 0.01, leapfrog_steps: 10, ..Default::default() },
            ..Default::default()
        })
        .unwrap();
    for name in s.proc_names() {
        println!("==== {name} ====");
        println!("{}", s.disasm(name));
    }
    s.init().unwrap();
    for _ in 0..20 {
        s.sweep();
    }
    println!("{}", s.profile().folded());
}
