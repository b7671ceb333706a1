//! Diagnostic: print LDA tape disassembly or time sweeps (--time).
use augur::{ExecBackend, HostValue, Model, SessionConfig, Target};
use augurv2::{models, workloads};

fn main() {
    let time = std::env::args().any(|a| a == "--time");
    let exec =
        if std::env::args().any(|a| a == "--tree") { ExecBackend::Tree } else { ExecBackend::Tape };
    let corpus = workloads::lda_corpus(20, 80, 2000, 200, 1200);
    let model = Model::compile(models::LDA).expect("LDA parses");
    let mut s = model
        .plan(
            vec![
                HostValue::Int(30),
                HostValue::Int(corpus.docs.len() as i64),
                HostValue::VecF(vec![0.5; 30]),
                HostValue::VecF(vec![0.1; corpus.vocab]),
                HostValue::VecI(corpus.lens.clone()),
            ],
            vec![("w", HostValue::RaggedI(corpus.docs.clone()))],
        )
        .expect("LDA plans")
        .session(SessionConfig {
            target: Target::Cpu,
            seed: 21,
            backend: exec,
            ..Default::default()
        })
        .expect("LDA builds");
    if !time {
        for name in s.proc_names() {
            println!("== {name} ==\n{}", s.disasm(name));
        }
        return;
    }
    s.init().unwrap();
    let t0 = std::time::Instant::now();
    for _ in 0..12 {
        s.sweep();
    }
    println!("{exec:?}: {:.3} s for 12 sweeps", t0.elapsed().as_secs_f64());
}
