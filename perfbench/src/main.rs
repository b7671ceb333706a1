//! `augur-bench`: run the benchmark, or compare two sets of results.
//!
//! ```text
//! augur-bench [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
//! augur-bench --compare PARENT_DIR CHANGE_DIR
//! augur-bench --calibrate RESULTS_DIR
//! ```
//!
//! The measured phase lasts `run_seconds` from `BENCHMARK.json` (1 s
//! under `--smoke`); `--seconds`, if given, must name that length.
//!
//! Each workload runs in a child process with a private `TMPDIR`; its
//! `setup_s` is the median of several cold set-ups, each in a child
//! process of its own. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed`, and the metrics
//! `BENCHMARK.json` declares — end-to-end ones untraced, per-layer ones
//! with `--trace`.

use std::io::Read as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use augur_perfbench::inputs::Scale;
use augur_perfbench::json::{num, quote};
use augur_perfbench::outcome::Outcome;
use augur_perfbench::spec::{Declared, Spec};
use augur_perfbench::timing::{self, Host};
use augur_perfbench::{compare, trace, work_root, RunOpts, WORKLOADS};

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

/// Cold set-ups timed per workload; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Length of the measured phase under `--smoke`.
const SMOKE_SECONDS: f64 = 1.0;
/// Every child process must finish before this much of the invocation
/// has passed.
const DEADLINE: Duration = Duration::from_secs(170);

const USAGE: &str = "usage: augur-bench [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--smoke]\n       augur-bench --compare PARENT_DIR CHANGE_DIR\n       augur-bench --calibrate RESULTS_DIR";

#[derive(Debug)]
enum Mode {
    Run,
    /// Internal: run one workload in this process, print its result.
    Child,
    /// Internal: time one cold set-up, print the seconds.
    SetupProbe,
    Compare(Vec<String>),
    Calibrate(String),
}

#[derive(Debug)]
struct Args {
    mode: Mode,
    workloads: Vec<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut a = Args {
        mode: Mode::Run,
        workloads: Vec::new(),
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
    };
    let mut it = raw.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => a.workloads.push(value("a workload name")?),
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed takes an integer")?
            }
            "--seconds" => {
                a.seconds = Some(
                    value("a number")?
                        .parse()
                        .map_err(|_| "--seconds takes a number")?,
                )
            }
            "--trace" => {
                a.trace = true;
                if let Some(v) = it.next_if(|v| *v == "0" || *v == "1") {
                    a.trace = v == "1";
                }
            }
            "--smoke" => a.smoke = true,
            "--child" => a.mode = Mode::Child,
            "--setup-probe" => a.mode = Mode::SetupProbe,
            "--compare" => a.mode = Mode::Compare(it.by_ref().cloned().collect()),
            "--calibrate" => a.mode = Mode::Calibrate(value("a directory of result files")?),
            "-h" | "--help" => return Err(USAGE.into()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    for w in &a.workloads {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload {w} (known: {})",
                WORKLOADS.join(", ")
            ));
        }
    }
    if a.workloads.is_empty() {
        a.workloads = WORKLOADS.iter().map(|w| (*w).to_owned()).collect();
    }
    Ok(a)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("augur-bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let scale = if args.smoke {
        Scale::Smoke
    } else {
        Scale::Full
    };
    let run_seconds = match run_seconds(&args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("augur-bench: {e}");
            return ExitCode::from(2);
        }
    };
    let opts = RunOpts {
        seed: args.seed,
        seconds: run_seconds,
        trace: args.trace,
        scale,
    };
    let result = match &args.mode {
        Mode::Compare(paths) => compare_mode(paths),
        Mode::Calibrate(dir) => Spec::load().and_then(|spec| {
            let runs = load_results(&json_files(Path::new(dir))?)?;
            print!("{}", augur_perfbench::calibrate::calibrate(&runs, &spec)?);
            Ok(true)
        }),
        Mode::SetupProbe => augur_perfbench::setup_seconds(&args.workloads[0], args.seed, scale)
            .map(|(secs, ref_secs)| {
                println!("{} {}", num(secs), num(ref_secs));
                true
            }),
        Mode::Child => match augur_perfbench::run_workload(&args.workloads[0], &opts) {
            Some(out) => {
                println!("{}", out.to_json());
                Ok(out.correct())
            }
            None => Err(format!("unknown workload {}", args.workloads[0])),
        },
        Mode::Run => orchestrate(&args, &opts),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("augur-bench: {e}");
            ExitCode::from(2)
        }
    }
}

/// The length of the measured phase: `run_seconds` from `BENCHMARK.json`,
/// or [`SMOKE_SECONDS`] under `--smoke`. The benchmark sets it, so that
/// runs of two commits measure alike; `--seconds` is accepted only when it
/// names that same length.
fn run_seconds(args: &Args) -> Result<f64, String> {
    let fixed = if args.smoke {
        SMOKE_SECONDS
    } else {
        Spec::load()?.run_seconds
    };
    match args.seconds {
        Some(s) if s != fixed => Err(format!(
            "--seconds {s}: the run length is fixed at {fixed} s (`run_seconds` in BENCHMARK.json, {SMOKE_SECONDS} s under --smoke)"
        )),
        _ => Ok(fixed),
    }
}

/// Runs this binary with `args` under a private `TMPDIR` and without any
/// inherited `AUGUR_*` setting, returning its standard output.
fn spawn_self(args: &[String], tmp: &Path, deadline: Instant) -> Result<String, String> {
    std::fs::create_dir_all(tmp).map_err(|e| format!("creating {}: {e}", tmp.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(args)
        .env("TMPDIR", tmp)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("AUGUR_") {
            cmd.env_remove(key);
        }
    }
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("spawning a child run: {e}"))?;
    let mut pipe = child.stdout.take().expect("stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut s = String::new();
        let _ = pipe.read_to_string(&mut s);
        s
    });
    let status = loop {
        match child.try_wait().map_err(|e| e.to_string())? {
            Some(status) => break status,
            None if Instant::now() > deadline => {
                let _ = child.kill();
                let _ = child.wait();
                let _ = reader.join();
                return Err(format!(
                    "child run `{}` exceeded the time limit",
                    args.join(" ")
                ));
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    let stdout = reader
        .join()
        .map_err(|_| "reading child output failed".to_string())?;
    // Exit code 1 is a failed check: the result still comes back.
    if !status.success() && status.code() != Some(1) {
        return Err(format!(
            "child run `{}` failed with {status}",
            args.join(" ")
        ));
    }
    Ok(stdout)
}

fn last_line(stdout: &str) -> &str {
    stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .unwrap_or("")
}

/// Runs each requested workload and prints its table and the final JSON
/// line. Returns whether every check passed.
fn orchestrate(args: &Args, opts: &RunOpts) -> Result<bool, String> {
    let spec = Spec::load()?;
    let deadline = Instant::now() + DEADLINE;
    let host = Host::probe();
    let mut common = vec!["--seed".to_string(), opts.seed.to_string()];
    if args.smoke {
        common.push("--smoke".into());
    }
    let mut outcomes = Vec::new();
    for w in &args.workloads {
        let run_dir = work_root().join(format!("run-{}-{w}-{}", std::process::id(), opts.seed));
        let _ = std::fs::remove_dir_all(&run_dir);
        let result = run_one(w, opts, &common, &run_dir, deadline);
        let _ = std::fs::remove_dir_all(&run_dir);
        let out = result?;
        let file = work_root().join("results").join(format!(
            "{w}-s{}-{}.json",
            opts.seed,
            if opts.trace { "traced" } else { "untraced" }
        ));
        let body = out.to_json();
        let with_host = format!("{{\"host\":{},{}", host.to_json(), &body[1..]);
        std::fs::create_dir_all(work_root().join("results"))
            .and_then(|()| std::fs::write(&file, with_host + "\n"))
            .map_err(|e| format!("writing {}: {e}", file.display()))?;
        print!("{}", table(&out, &spec, &host, opts.trace));
        outcomes.push(out);
    }
    let declared = if opts.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    println!("{}", final_line(&outcomes, declared)?);
    Ok(outcomes.iter().all(Outcome::correct))
}

fn run_one(
    w: &str,
    opts: &RunOpts,
    common: &[String],
    run_dir: &Path,
    deadline: Instant,
) -> Result<Outcome, String> {
    let with = |mode: &str, extra: &[String]| -> Vec<String> {
        let mut v = vec![mode.to_string(), "--workload".into(), w.into()];
        v.extend_from_slice(common);
        v.extend_from_slice(extra);
        v
    };
    // Each probe's set-up time, as measured and at reference host speed.
    let (mut raw, mut setup) = (Vec::new(), Vec::new());
    if !opts.trace {
        for i in 0..SETUP_REPS {
            let stdout = spawn_self(
                &with("--setup-probe", &[]),
                &run_dir.join(format!("setup-{i}")),
                deadline,
            )?;
            let nums: Vec<f64> = last_line(&stdout)
                .split_whitespace()
                .filter_map(|x| x.parse().ok())
                .collect();
            let [secs, ref_secs] = nums[..] else {
                return Err(format!("set-up probe printed {stdout:?}"));
            };
            raw.push(secs);
            setup.push(secs * timing::host_speed(&[ref_secs]));
        }
    }
    let extra = ["--trace".into(), (opts.trace as u8).to_string()];
    let stdout = spawn_self(&with("--child", &extra), &run_dir.join("tmp"), deadline)?;
    let mut out =
        Outcome::from_json(last_line(&stdout)).map_err(|e| format!("{w}: child result: {e}"))?;
    if !setup.is_empty() {
        for (name, v) in [("setup_s", &setup), ("raw_setup_s", &raw)] {
            out.put_n(name, timing::median(v), "s", v.len(), timing::rel_iqr(v));
        }
        out.notes.push(format!(
            "set-up: median {:.6} s as measured, {:.6} s at reference speed",
            timing::median(&raw),
            timing::median(&setup)
        ));
    }
    Ok(out)
}

/// The human-readable report of one workload run.
fn table(out: &Outcome, spec: &Spec, host: &Host, traced: bool) -> String {
    let mut s = format!(
        "\n== {} · seed {} · {} · {} cores, {}, {}, commit {}\n",
        out.workload,
        out.seed,
        if traced {
            "traced run (per-layer metrics)"
        } else {
            "untraced run (end-to-end metrics)"
        },
        host.nproc,
        host.rustc,
        host.cc,
        host.commit
    );
    s.push_str(&format!(
        "{:<40} {:>16} {:<6} {:>7} {:>11}\n",
        "metric", "value", "unit", "n", "IQR/median"
    ));
    let declared = if traced {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    for d in declared {
        match out.get(&d.name) {
            Some(m) => s.push_str(&format!(
                "{:<40} {:>16.6} {:<6} {:>7} {:>11.4}\n",
                m.name, m.value, m.unit, m.n, m.spread
            )),
            None => s.push_str(&format!("{:<40} {:>16} {}\n", d.name, "MISSING", d.unit)),
        }
    }
    s.push_str(&format!(
        "attempted {} · failed {}\n",
        out.attempted, out.failed
    ));
    for c in &out.checks {
        s.push_str(&format!(
            "[{}] {} — {}\n",
            if c.pass { "ok" } else { "FAIL" },
            c.name,
            c.detail
        ));
    }
    for n in &out.notes {
        s.push_str(&format!("note: {n}\n"));
    }
    if !out.layers.is_empty() {
        s.push_str(&format!(
            "{:<28} {:>8} {:>12} {:>12}\n",
            "span", "count", "total (s)", "self (s)"
        ));
        for l in &out.layers {
            s.push_str(&format!(
                "{:<28} {:>8} {:>12.6} {:>12.6}\n",
                l.name, l.count, l.total_secs, l.self_secs
            ));
        }
    }
    s
}

/// The result line: `correct`, `attempted`, `failed`, and exactly the
/// declared metrics (prefixed with the workload when several ran).
fn final_line(outcomes: &[Outcome], declared: &[Declared]) -> Result<String, String> {
    let mut metrics = Vec::new();
    for out in outcomes {
        for d in declared {
            let m = out
                .get(&d.name)
                .ok_or_else(|| format!("{}: metric {} was not measured", out.workload, d.name))?;
            if m.unit != d.unit || !m.value.is_finite() {
                return Err(format!(
                    "{}: metric {} = {} {} (declared unit {})",
                    out.workload, d.name, m.value, m.unit, d.unit
                ));
            }
            let key = if outcomes.len() == 1 {
                d.name.clone()
            } else {
                format!("{}.{}", out.workload, d.name)
            };
            metrics.push(format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                quote(&key),
                num(m.value),
                quote(&d.unit)
            ));
        }
    }
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcomes.iter().all(Outcome::correct),
        outcomes.iter().map(|o| o.attempted).sum::<u64>().max(1),
        outcomes.iter().map(|o| o.failed).sum::<u64>(),
        metrics.join(",")
    ))
}

/// The `*.json` files of a directory, sorted.
fn json_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .flatten()
        .map(|e| e.path())
        .filter(|f| f.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    Ok(files)
}

fn load_results(files: &[PathBuf]) -> Result<Vec<Outcome>, String> {
    files
        .iter()
        .map(|f| {
            let text = std::fs::read_to_string(f).map_err(|e| format!("{}: {e}", f.display()))?;
            Outcome::from_json(text.trim()).map_err(|e| format!("{}: {e}", f.display()))
        })
        .collect()
}

/// `--compare PARENT CHANGE`: each side a directory of result files (or
/// result files grouped by directory).
fn compare_mode(paths: &[String]) -> Result<bool, String> {
    let mut groups: Vec<(PathBuf, Vec<PathBuf>)> = Vec::new();
    for p in paths.iter().map(PathBuf::from) {
        let (dir, files) = if p.is_dir() {
            (p.clone(), json_files(&p)?)
        } else {
            (
                p.parent().unwrap_or(Path::new(".")).to_path_buf(),
                vec![p.clone()],
            )
        };
        match groups.iter_mut().find(|g| g.0 == dir) {
            Some(g) => g.1.extend(files),
            None => groups.push((dir, files)),
        }
    }
    let [parent, change] = <[_; 2]>::try_from(groups)
        .map_err(|_| "--compare takes exactly two sides: PARENT_DIR CHANGE_DIR".to_string())?;
    let spec = Spec::load()?;
    let rows = compare::compare(&load_results(&parent.1)?, &load_results(&change.1)?, &spec)?;
    print!("{}", compare::render(&rows));
    Ok(rows
        .iter()
        .all(|r| r.verdict != compare::Verdict::Regressed))
}
