//! Topic modeling with LDA — the paper's scalability workload (§7.2).
//!
//! Compiles the LDA model with the heuristic schedule (all four parameters
//! get Gibbs updates: Dirichlet–Categorical conjugacy for θ and φ,
//! finite-sum enumeration for the assignments) and recovers planted
//! topics from a synthetic corpus. Also demonstrates the GPU target: the
//! same compiled model re-run on the simulated device, with the kernel-
//! launch/contention cost model reporting virtual time.
//!
//! Run with: `cargo run --release --example lda_topics`

use augur::prelude::*;
use augur::DeviceConfig;
use augurv2::{models, workloads};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let topics = 4;
    let corpus = workloads::lda_corpus(topics, 60, 200, 40, 7);
    println!(
        "corpus: {} docs, {} tokens, vocabulary {}",
        corpus.docs.len(),
        corpus.tokens,
        corpus.vocab
    );

    let model = Model::compile(models::LDA)?;
    println!("heuristic kernel: {}", model.kernel());

    let args = vec![
        HostValue::Int(topics as i64),
        HostValue::Int(corpus.docs.len() as i64),
        HostValue::VecF(vec![0.5; topics]),       // alpha
        HostValue::VecF(vec![0.1; corpus.vocab]), // beta
        HostValue::VecI(corpus.lens.clone()),     // len
    ];

    let plan = model.plan(args, vec![("w", HostValue::RaggedI(corpus.docs.clone()))])?;
    let mut sampler = plan.session(SessionConfig::default())?;
    sampler.init().unwrap();
    for _ in 0..100 {
        sampler.sweep();
    }

    // Top words per topic: the planted topics concentrate on contiguous
    // vocabulary slices, so the learned φ rows should too.
    let phi = sampler.param("phi").unwrap().to_vec();
    let v = corpus.vocab;
    println!("\nlearned topics (top-5 words each):");
    for t in 0..topics {
        let row = &phi[t * v..(t + 1) * v];
        let mut idx: Vec<usize> = (0..v).collect();
        idx.sort_by(|&a, &b| row[b].total_cmp(&row[a]));
        let top: Vec<String> = idx[..5].iter().map(|w| format!("w{w}")).collect();
        println!("  topic {t}: {}", top.join(" "));
    }
    println!("\nCPU virtual time for 100 sweeps: {:.3}s", sampler.virtual_secs());

    // Same plan, GPU target: the target is a session concern, so the
    // compiled tapes are shared — no recompile, no replan.
    let mut gpu = plan.session(SessionConfig {
        target: Target::Gpu(DeviceConfig::titan_black_like()),
        ..Default::default()
    })?;
    gpu.init().unwrap();
    for _ in 0..100 {
        gpu.sweep();
    }
    let c = gpu.device_counters();
    println!(
        "GPU virtual time: {:.3}s ({} kernel launches, {} atomics)",
        gpu.virtual_secs(),
        c.launches,
        c.atomic_ops
    );
    Ok(())
}
