//! Shared timing and statistics: order statistics, the quartile rule the
//! acceptance check uses, percentiles and the samples beyond them, the
//! bound rule, timed windows, CPU clocks, the host-speed reference, and
//! the host fingerprint.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)`
//! (the "exclusive" method) exactly, so a spread printed here equals the
//! spread Python computes from the same values.

use std::process::Command;

use crate::json::quote;

/// `xs` sorted ascending.
///
/// # Panics
///
/// Panics on NaN, which no measurement produces.
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are never NaN"));
    v
}

/// The median (mean of the middle pair for even counts); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First quartile, median, and third quartile, computed as Python's
/// `statistics.quantiles(xs, n=4)` does. With fewer than two values every
/// quartile is the single value (or 0).
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let v = sorted(xs);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return [x, x, x];
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile range as a share of the median: the spread measure
/// `BENCHMARK.json` bounds are set against.
pub fn rel_iqr(xs: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(xs);
    let med = median(xs);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// Nearest-rank percentile `p` (0–100) of an ascending slice: always a
/// value that was actually measured.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly above the nearest-rank percentile `p` of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n)
}

/// The largest regression bound `BENCHMARK.json` admits.
pub const MAX_BOUND: f64 = 0.25;

/// The regression bound for a metric whose calibration runs showed the
/// given relative IQR: twice the spread, at least 10%, at most
/// [`MAX_BOUND`]. `None` when the spread itself exceeds [`MAX_BOUND`]:
/// no admissible bound holds such a metric, so it must be made steadier
/// or dropped.
pub fn regression_bound(spread: f64) -> Option<f64> {
    (spread <= MAX_BOUND).then(|| (2.0 * spread).clamp(0.10, MAX_BOUND))
}

/// One timed operation: when it started (seconds into its phase) and
/// how long it took.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Op {
    /// Start, in seconds from the beginning of the phase.
    pub start: f64,
    /// Duration in seconds.
    pub secs: f64,
}

/// Groups operations into consecutive windows of `win` seconds by start
/// time; empty windows are dropped.
pub fn windows(ops: &[Op], win: f64) -> Vec<Vec<Op>> {
    let mut out: Vec<Vec<Op>> = Vec::new();
    let mut current = usize::MAX;
    for op in ops {
        let w = (op.start / win).floor() as usize;
        if w != current {
            out.push(Vec::new());
            current = w;
        }
        out.last_mut().expect("a window was just pushed").push(*op);
    }
    out
}

/// Operations per busy second of a window.
pub fn throughput(ops: &[Op]) -> f64 {
    let busy: f64 = ops.iter().map(|o| o.secs).sum();
    if busy > 0.0 {
        ops.len() as f64 / busy
    } else {
        0.0
    }
}

/// The host a result was measured on.
#[derive(Debug, Clone)]
pub struct Host {
    /// Cores available to this process.
    pub nproc: usize,
    /// `rustc -V`.
    pub rustc: String,
    /// First line of `cc --version`.
    pub cc: String,
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub commit: String,
}

impl Host {
    /// Probes the current host.
    pub fn probe() -> Host {
        let first_line = |prog: &str, args: &[&str]| {
            Command::new(prog)
                .args(args)
                .output()
                .ok()
                .filter(|o| o.status.success())
                .and_then(|o| String::from_utf8(o.stdout).ok())
                .and_then(|s| s.lines().next().map(str::to_owned))
                .unwrap_or_else(|| "unknown".into())
        };
        Host {
            nproc: std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1),
            rustc: first_line("rustc", &["-V"]),
            cc: first_line("cc", &["--version"]),
            commit: first_line("git", &["rev-parse", "HEAD"]),
        }
    }

    /// The fingerprint as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"rustc\":{},\"cc\":{},\"commit\":{}}}",
            self.nproc,
            quote(&self.rustc),
            quote(&self.cc),
            quote(&self.commit)
        )
    }
}

/// Seconds of CPU time the calling thread has run.
///
/// Timed phases count CPU time, not wall time: on the shared VM this
/// benchmark was built on, the hypervisor at times takes a virtual CPU
/// away for stretches of milliseconds (steal time), and a sweep or a
/// serving window that spans such a stretch lost a quarter to three
/// quarters of its wall time. Linux leaves steal time out of a thread's
/// CPU time.
pub fn thread_cpu_secs() -> f64 {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// Seconds of CPU time all threads of this process have run, steal time
/// left out as in [`thread_cpu_secs`].
pub fn process_cpu_secs() -> f64 {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("augur-bench reads CPU time through 64-bit Linux's clock_gettime");

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

fn cpu_clock(clock: i32) -> f64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) and `clock` is one of Linux's CPU-time clocks.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// CPU seconds one [`Reference`] pass took on the calibration host (a
/// 2-core Xeon VM) in a quiet stretch. Host speed is measured against it.
pub const REF_NOMINAL_SECS: f64 = 0.000_3;
/// A timed phase runs one reference pass at least this often.
pub const REF_EVERY_SECS: f64 = 0.05;
/// Length of the multiply-add arrays, and passes over them.
const DOT_LEN: usize = 4096;
const DOT_REPS: usize = 30;
/// Entries of the gathered table (512 KiB: past L1, within L2), indices
/// read per pass, and passes over them.
const TABLE_LEN: usize = 1 << 16;
const GATHER_LEN: usize = 1 << 14;
const GATHER_REPS: usize = 5;
/// Arguments of `exp` and `ln`, and passes over them.
const MATH_LEN: usize = 1024;
const MATH_REPS: usize = 5;
/// Two-dimensional points given a category each, and passes over them.
const DRAW_POINTS: usize = 2048;
const DRAW_REPS: usize = 2;
/// Centres (on the diagonal) of the three categories the points are drawn into.
const DRAW_CENTRES: [f64; 3] = [-3.0, 0.0, 3.0];

/// The host-speed reference: a fixed kernel, independent of the code
/// under test, timed between the operations of a phase. One pass does
/// the four kinds of work the samplers do: dense multiply-adds, loads at
/// random indices from a table larger than L1, `exp`/`ln`, and categorical
/// draws (Gaussian weights, a uniform variate, a branch on the category),
/// the first three in about equal shares of time and the draws in about
/// a fifth of it.
///
/// The host is a shared VM whose neighbours slow it by up to half for
/// seconds to minutes, and they slow these kernels with the samplers:
/// over 1 s windows the sweep rates of the three batch workloads and the
/// first three kernels' speed correlated 0.89–0.94 (log–log slope
/// 0.8–1.0), while a latency-bound integer loop followed them far less
/// (0.28–0.76). Adding the categorical draws narrowed the spread of scaled
/// rates over 19 runs from 0.032–0.080 to 0.026–0.073 (IQR over median,
/// per batch workload). So a rate measured next to this kernel and scaled
/// by its speed is the rate at the calibration host's speed; the raw rate
/// is kept alongside.
#[derive(Debug, Clone)]
pub struct Reference {
    x: Vec<f64>,
    y: Vec<f64>,
    table: Vec<f64>,
    index: Vec<u32>,
    args: Vec<f64>,
    points: Vec<f64>,
}

/// One step of the xorshift generator the reference draws from.
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// A uniform variate in [0, 1) from the xorshift generator.
fn uniform(state: &mut u64) -> f64 {
    (xorshift(state) >> 11) as f64 / (1u64 << 53) as f64
}

impl Default for Reference {
    fn default() -> Self {
        Reference::new()
    }
}

impl Reference {
    /// The kernel's fixed inputs.
    pub fn new() -> Reference {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let index = (0..GATHER_LEN)
            .map(|_| (xorshift(&mut state) % TABLE_LEN as u64) as u32)
            .collect();
        let points = (0..2 * DRAW_POINTS)
            .map(|_| uniform(&mut state) * 6.0 - 3.0)
            .collect();
        Reference {
            x: (0..DOT_LEN).map(|i| i as f64 * 0.5).collect(),
            y: (0..DOT_LEN).map(|i| 1.0 / (i as f64 + 1.0)).collect(),
            table: (0..TABLE_LEN).map(|i| i as f64).collect(),
            index,
            args: (0..MATH_LEN).map(|i| i as f64 * 0.37).collect(),
            points,
        }
    }

    /// Runs one pass and returns its CPU seconds.
    pub fn pass(&self) -> f64 {
        use std::hint::black_box;
        let t0 = thread_cpu_secs();
        let mut acc = [0.0f64; 4];
        for r in 0..DOT_REPS {
            let (x, y) = black_box((&self.x, &self.y));
            for (i, (a, b)) in x.iter().zip(y).enumerate() {
                acc[i & 3] += a * b + r as f64;
            }
        }
        for _ in 0..GATHER_REPS {
            let (table, index) = black_box((&self.table, &self.index));
            for (i, &k) in index.iter().enumerate() {
                acc[i & 3] += table[k as usize] * 1.0001;
            }
        }
        for _ in 0..MATH_REPS {
            for a in black_box(&self.args) {
                acc[0] += (-a * 1e-3).exp() + (a + 1.0).ln();
            }
        }
        // The same draws every pass, so every pass does the same work.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..DRAW_REPS {
            for p in black_box(&self.points).chunks_exact(2) {
                let w =
                    DRAW_CENTRES.map(|m| (-0.5 * ((p[0] - m).powi(2) + (p[1] - m).powi(2))).exp());
                let u = uniform(&mut state) * w.iter().sum::<f64>();
                let c = if u < w[0] {
                    0
                } else if u < w[0] + w[1] {
                    1
                } else {
                    2
                };
                acc[c] += p[0] + p[1];
            }
        }
        black_box(acc);
        thread_cpu_secs() - t0
    }

    /// The median of `n` passes after one untimed pass, in CPU seconds.
    pub fn median_pass(&self, n: usize) -> f64 {
        self.pass();
        median(&(0..n.max(1)).map(|_| self.pass()).collect::<Vec<_>>())
    }
}

/// Host speed relative to the calibration host, from the durations
/// `ref_secs` of reference passes: below 1 when the host runs slower.
pub fn host_speed(ref_secs: &[f64]) -> f64 {
    if ref_secs.is_empty() {
        return 1.0;
    }
    REF_NOMINAL_SECS / median(ref_secs)
}

/// The rates of consecutive windows of `win` seconds at the calibration
/// host's speed. `ops` are grouped by start time and `rate` turns each
/// window's ops into a rate, which is divided by the host speed that the
/// reference passes `refs` starting in the same window measured (all of
/// `refs` for a window without one). Windows without ops are dropped.
pub fn adjusted_rates(ops: &[Op], refs: &[Op], win: f64, rate: impl Fn(&[Op]) -> f64) -> Vec<f64> {
    let index = |o: &Op| (o.start / win).floor() as usize;
    let all: Vec<f64> = refs.iter().map(|o| o.secs).collect();
    windows(ops, win)
        .iter()
        .map(|w| {
            let k = index(&w[0]);
            let here: Vec<f64> = refs
                .iter()
                .filter(|o| index(o) == k)
                .map(|o| o.secs)
                .collect();
            rate(w) / host_speed(if here.is_empty() { &all } else { &here })
        })
        .collect()
}
