//! Fault-tolerance tests: kill-and-resume from a checkpoint must be
//! invisible — the resumed chain's trace and final report digest are
//! byte-identical to an uninterrupted run, in both execution lanes and at
//! any worker-thread count.

use std::path::PathBuf;

use augur::{ExecBackend, HostValue, McmcConfig, Model, Session, SessionConfig};
use augurv2::models::{hgmm_args, lda_args};
use augurv2::{models, workloads};

fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "augur_resume_{tag}_{}_{:?}.ckpt",
        std::process::id(),
        std::thread::current().id()
    ))
}

/// The per-sweep trajectory of every parameter, as raw bits.
fn record_sweeps(s: &mut Session, n: u64) -> Vec<Vec<u64>> {
    let names: Vec<String> = s.param_names().to_vec();
    (0..n)
        .map(|_| {
            s.sweep();
            names
                .iter()
                .flat_map(|p| s.param(p).unwrap().iter().map(|x| x.to_bits()))
                .collect()
        })
        .collect()
}

fn hgmm_sampler(config: SessionConfig) -> Session {
    let (k, d, n) = (2, 2, 40);
    let data = workloads::hgmm_data(k, d, n, 7);
    Model::compile(models::HGMM)
        .unwrap()
        .plan(hgmm_args(k, d, n), vec![("y", HostValue::Ragged(data.points.clone()))])
        .unwrap()
        .session(config)
        .unwrap()
}

fn lda_sampler(config: SessionConfig) -> Session {
    let topics = 2;
    let corpus = workloads::lda_corpus(topics, 8, 12, 8, 11);
    Model::compile(models::LDA)
        .unwrap()
        .plan(lda_args(topics, &corpus), vec![("w", HostValue::RaggedI(corpus.docs.clone()))])
        .unwrap()
        .session(config)
        .unwrap()
}

fn hlr_sampler(config: SessionConfig) -> Session {
    let (n, d) = (30, 3);
    let data = workloads::logistic_data(n, d, 13);
    Model::compile(models::HLR)
        .unwrap()
        .plan(
            vec![
                HostValue::Real(1.0),
                HostValue::Int(n as i64),
                HostValue::Int(d as i64),
                HostValue::Ragged(data.x.clone()),
            ],
            vec![("y", HostValue::VecF(data.y.clone()))],
        )
        .unwrap()
        .session(SessionConfig {
            mcmc: McmcConfig { step_size: 0.05, leapfrog_steps: 8, ..config.mcmc },
            ..config
        })
        .unwrap()
}

fn kill_resume_is_invisible(
    tag: &str,
    build: fn(SessionConfig) -> Session,
    exec: ExecBackend,
    threads: usize,
) {
    let config = || SessionConfig {
        backend: exec,
        threads,
        checkpoint_every: 0, // checkpoints are written explicitly below
        ..Default::default()
    };
    let total = 30u64;
    let kill_at = 13u64;

    // Reference: one uninterrupted run.
    let mut s = build(config());
    s.init().unwrap();
    let reference = record_sweeps(&mut s, total);
    let reference_digest = s.report().digest();

    // Interrupted run: sweep to the kill point, checkpoint, and drop the
    // sampler entirely (the "kill").
    let path = tmp(&format!("{tag}_{threads}"));
    let mut prefix = {
        let mut s = build(config());
        s.init().unwrap();
        let prefix = record_sweeps(&mut s, kill_at);
        s.write_checkpoint(&path).unwrap();
        prefix
    };

    // Resume in a fresh process-equivalent: new sampler, no init.
    let mut s = build(config());
    assert_eq!(s.resume(&path).unwrap(), kill_at);
    assert_eq!(s.sweeps(), kill_at);
    prefix.extend(record_sweeps(&mut s, total - kill_at));
    std::fs::remove_file(&path).ok();

    assert_eq!(prefix, reference, "{tag}: resumed trajectory diverged");
    assert_eq!(
        s.report().digest(),
        reference_digest,
        "{tag}: resumed report digest diverged"
    );
}

#[test]
fn hgmm_kill_resume_tree_and_tape_all_thread_counts() {
    kill_resume_is_invisible("hgmm_tree", hgmm_sampler, ExecBackend::Tree, 1);
    for threads in [1, 2, 8] {
        kill_resume_is_invisible("hgmm_tape", hgmm_sampler, ExecBackend::Tape, threads);
    }
}

#[test]
fn lda_kill_resume_tree_and_tape_all_thread_counts() {
    kill_resume_is_invisible("lda_tree", lda_sampler, ExecBackend::Tree, 1);
    for threads in [1, 2, 8] {
        kill_resume_is_invisible("lda_tape", lda_sampler, ExecBackend::Tape, threads);
    }
}

#[test]
fn hlr_kill_resume_tree_and_tape_all_thread_counts() {
    kill_resume_is_invisible("hlr_tree", hlr_sampler, ExecBackend::Tree, 1);
    for threads in [1, 2, 8] {
        kill_resume_is_invisible("hlr_tape", hlr_sampler, ExecBackend::Tape, threads);
    }
}

/// A checkpoint written under one thread count resumes bit-exactly under
/// another: determinism is thread-count invariant, and the snapshot
/// carries everything the trajectory depends on.
#[test]
fn checkpoint_resumes_across_thread_counts() {
    let config = |threads| SessionConfig {
        backend: ExecBackend::Tape,
        threads,
        checkpoint_every: 0,
        ..Default::default()
    };
    let mut s = hgmm_sampler(config(1));
    s.init().unwrap();
    let reference = record_sweeps(&mut s, 24);

    let path = tmp("cross_threads");
    let mut prefix = {
        let mut s = hgmm_sampler(config(1));
        s.init().unwrap();
        let prefix = record_sweeps(&mut s, 10);
        s.write_checkpoint(&path).unwrap();
        prefix
    };
    let mut s = hgmm_sampler(config(8));
    s.resume(&path).unwrap();
    prefix.extend(record_sweeps(&mut s, 14));
    std::fs::remove_file(&path).ok();
    assert_eq!(prefix, reference, "thread-count change across resume diverged");
}

/// Periodic checkpointing via `checkpoint_every` leaves a resumable file
/// behind without the caller ever asking for a write.
#[test]
fn periodic_checkpoints_are_written_and_resumable() {
    let path = tmp("periodic");
    let mut s = hgmm_sampler(SessionConfig {
        checkpoint_path: Some(path.clone()),
        checkpoint_every: 5,
        ..Default::default()
    });
    s.init().unwrap();
    let reference = record_sweeps(&mut s, 20);

    // The periodic file reflects the most recent multiple of 5: sweep 20.
    let mut r = hgmm_sampler(SessionConfig { checkpoint_every: 0, ..Default::default() });
    assert_eq!(r.resume(&path).unwrap(), 20);
    std::fs::remove_file(&path).ok();
    let names: Vec<String> = r.param_names().to_vec();
    let now: Vec<u64> = names
        .iter()
        .flat_map(|p| r.param(p).unwrap().iter().map(|x| x.to_bits()))
        .collect();
    assert_eq!(&now, reference.last().unwrap(), "periodic checkpoint is stale");
}

/// Resuming from a checkpoint of a *different* schedule is a typed
/// mismatch error, not silent corruption.
#[test]
fn mismatched_checkpoint_is_a_typed_error() {
    let path = tmp("mismatch");
    let mut s = hgmm_sampler(SessionConfig { checkpoint_every: 0, ..Default::default() });
    s.init().unwrap();
    s.sweep();
    s.write_checkpoint(&path).unwrap();

    let mut other = hlr_sampler(SessionConfig { checkpoint_every: 0, ..Default::default() });
    let err = other.resume(&path).unwrap_err();
    std::fs::remove_file(&path).ok();
    assert!(
        format!("{err}").contains("schedule"),
        "expected a schedule mismatch, got: {err}"
    );
}

/// A damaged checkpoint file — truncated mid-record or bit-flipped —
/// surfaces as a typed `checkpoint` error naming the offending file,
/// never a panic or a silently-wrong resume (the integrity digest
/// catches flips that leave every line well-formed).
#[test]
fn corrupt_checkpoint_files_are_typed_errors_naming_the_path() {
    let path = tmp("corrupt");
    let mut s = hgmm_sampler(SessionConfig { checkpoint_every: 0, ..Default::default() });
    s.init().unwrap();
    s.sweep();
    s.write_checkpoint(&path).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();

    let expect_corrupt = |tag: &str, damaged: &str| {
        std::fs::write(&path, damaged).unwrap();
        let mut r = hgmm_sampler(SessionConfig { checkpoint_every: 0, ..Default::default() });
        let err = augur::Error::from(r.resume(&path).unwrap_err());
        assert_eq!(err.kind(), augur::ErrorKind::Checkpoint, "{tag}");
        let msg = format!("{err}");
        let file = path.file_name().unwrap().to_str().unwrap();
        assert!(msg.contains(file), "{tag}: error must name the file, got: {msg}");
    };

    // Truncated mid-record, as a crash while copying the file would
    // leave it.
    expect_corrupt("truncated", &text[..text.len() - text.len() / 3]);

    // One flipped hex digit in a buffer cell: every line stays
    // well-formed, so only the integrity digest can catch it.
    let line = text.find("\nbuf ").expect("a buffer record") + 1;
    let flip = line + text[line..].find('\n').expect("line end") - 1;
    let mut bytes = text.clone().into_bytes();
    bytes[flip] = if bytes[flip] == b'0' { b'1' } else { b'0' };
    expect_corrupt("bit-flipped", &String::from_utf8(bytes).unwrap());

    std::fs::remove_file(&path).ok();
}

/// `ChainPlan::resume_dir` continues every chain to the requested total,
/// and the post-resume draws are byte-identical to the same sweeps of an
/// uninterrupted multi-chain run.
#[test]
fn chain_plan_resume_dir_matches_uninterrupted_run() {
    let model = Model::compile(
        "(N, tau2, s2) => {
            param m ~ Normal(0.0, tau2) ;
            data y[n] ~ Normal(m, s2) for n <- 0 until N ;
        }",
    )
    .unwrap();
    let data = vec![1.2, 0.8, 1.0, 1.4, 0.6];
    let plan = model
        .plan(
            vec![HostValue::Int(5), HostValue::Real(4.0), HostValue::Real(1.0)],
            vec![("y", HostValue::VecF(data.clone()))],
        )
        .unwrap();
    let runner = |sweeps: usize| {
        augur::chains::ChainPlan::new(&plan)
            .config(SessionConfig { checkpoint_every: 20, ..Default::default() })
            .chains(3)
            .sweeps(sweeps)
            .record(&["m"])
    };

    // Reference: 40 sweeps straight through.
    let full = runner(40).run().unwrap();

    // Interrupted: 20 sweeps with a checkpoint directory, then resume the
    // directory and continue to 40.
    let dir = std::env::temp_dir().join(format!(
        "augur_resume_dir_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = runner(20).checkpoint_dir(&dir).run().unwrap();
    let resumed = runner(40).resume_dir(&dir).unwrap();
    std::fs::remove_dir_all(&dir).ok();

    let full_traces = full.traces("m", 0).unwrap();
    let resumed_traces = resumed.traces("m", 0).unwrap();
    assert_eq!(resumed_traces.len(), full_traces.len());
    for (c, (r, f)) in resumed_traces.iter().zip(&full_traces).enumerate() {
        assert_eq!(r.len(), 20, "chain {c}: resumed run covers post-resume sweeps");
        let tail: Vec<u64> = f[20..].iter().map(|x| x.to_bits()).collect();
        let got: Vec<u64> = r.iter().map(|x| x.to_bits()).collect();
        assert_eq!(got, tail, "chain {c}: resumed draws diverged");
    }
}
