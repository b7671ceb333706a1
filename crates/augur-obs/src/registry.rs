//! The metrics registry: labeled counters, gauges, and fixed-bucket
//! histograms with lock-cheap atomic recording, rendered in the
//! Prometheus text exposition format.
//!
//! # Design
//!
//! Recording is the hot path and must not perturb serving latency, so
//! every instrument is a handful of atomics behind an `Arc`: callers
//! hold the `Arc<Counter>`/`Arc<Gauge>`/`Arc<Histogram>` directly and
//! record with relaxed atomic ops — no name lookup, no lock. The
//! registry's own lock is taken only at registration (get-or-create of
//! a series) and at render time, both cold paths.
//!
//! Series identity is `(family name, sorted label pairs)`; registering
//! the same identity twice returns the same instrument, which is what
//! lets independent subsystems (service front-end, plan cache mirror,
//! breaker mirror) share series safely.
//!
//! Pull-model sources — the plan cache, the circuit breakers, queue
//! depths — register a **collect hook** ([`MetricsRegistry::on_collect`])
//! that runs at the top of every [`MetricsRegistry::render`] and copies
//! the current source state into mirrored instruments, the classic
//! Prometheus collector pattern.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrites the total — for counters that *mirror* an external
    /// cumulative source (plan-cache hit totals, breaker trip totals)
    /// inside a collect hook, where the source already owns
    /// monotonicity.
    pub fn store(&self, total: u64) {
        self.value.store(total, Ordering::Relaxed);
    }

    /// The current total.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// How a gauge behaves when the registry renders it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GaugeMode {
    /// Rendering reads the value and leaves it alone (the default).
    Standard,
    /// Rendering *takes* the value, resetting it to zero — a windowed
    /// gauge: each scrape observes the extremum/accumulation since the
    /// previous scrape (used for `queue_high_water`, whose since-start
    /// variant hides per-window behavior).
    ResetOnCollect,
}

/// A gauge: an `f64` that can go up and down. Stored as raw bits in an
/// `AtomicU64`, so recording is a single relaxed store and `set_max` is
/// a short CAS loop.
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
    mode: GaugeMode,
}

impl Gauge {
    fn new(mode: GaugeMode) -> Gauge {
        Gauge { bits: AtomicU64::new(0f64.to_bits()), mode }
    }

    /// Overwrites the value.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Raises the value to `v` if `v` is larger (high-water tracking).
    /// NaN is ignored.
    pub fn set_max(&self, v: f64) {
        if v.is_nan() {
            return;
        }
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            if f64::from_bits(cur) >= v {
                return;
            }
            match self.bits.compare_exchange_weak(
                cur,
                v.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Adds `d` (CAS loop; gauges move rarely enough that contention is
    /// immaterial).
    pub fn add(&self, d: f64) {
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + d).to_bits();
            match self.bits.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// The current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    /// Takes the current value, resetting the gauge to zero (what a
    /// render does for [`GaugeMode::ResetOnCollect`] gauges).
    pub fn take(&self) -> f64 {
        f64::from_bits(self.bits.swap(0f64.to_bits(), Ordering::Relaxed))
    }
}

/// A fixed-bucket histogram. Observations land in the first bucket
/// whose upper bound is `>= v` (cumulative `le` semantics at render
/// time, per the Prometheus exposition format), plus an implicit
/// `+Inf` bucket; the sum, count, and exact maximum ride along so
/// snapshot-style summaries don't lose the tail to bucket resolution.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    /// One slot per bound plus the `+Inf` overflow slot.
    counts: Vec<AtomicU64>,
    sum_bits: AtomicU64,
    max_bits: AtomicU64,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Histogram {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect(),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            max_bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// The default latency bounds (seconds): 1ms → 60s, roughly
    /// logarithmic.
    pub fn latency_bounds() -> &'static [f64] {
        &[0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0]
    }

    /// Records one observation.
    pub fn observe(&self, v: f64) {
        let idx = self.bounds.iter().position(|&b| v <= b).unwrap_or(self.bounds.len());
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        // Sum and max via CAS loops (f64 bits in AtomicU64).
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
        let mut cur = self.max_bits.load(Ordering::Relaxed);
        while f64::from_bits(cur) < v {
            match self.max_bits.compare_exchange_weak(
                cur,
                v.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Total observation count.
    pub fn count(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// The exact largest observation (0 when empty).
    pub fn max(&self) -> f64 {
        f64::from_bits(self.max_bits.load(Ordering::Relaxed))
    }

    /// `(upper bound, cumulative count)` per bucket, ending with the
    /// `(+Inf ≡ f64::INFINITY, total)` bucket.
    pub fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let mut out = Vec::with_capacity(self.counts.len());
        let mut cum = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            cum += c.load(Ordering::Relaxed);
            let bound = self.bounds.get(i).copied().unwrap_or(f64::INFINITY);
            out.push((bound, cum));
        }
        out
    }

    /// The `q`-quantile estimated from the buckets: linear
    /// interpolation inside the bucket holding the target rank, the
    /// exact max for the overflow bucket. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let rank = (q * total as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            let in_bucket = c.load(Ordering::Relaxed);
            if cum + in_bucket >= rank {
                if i >= self.bounds.len() {
                    return self.max();
                }
                let lo = if i == 0 { 0.0 } else { self.bounds[i - 1] };
                let hi = self.bounds[i];
                let into = (rank - cum) as f64 / in_bucket as f64;
                return (lo + (hi - lo) * into).min(self.max());
            }
            cum += in_bucket;
        }
        self.max()
    }
}

/// What kind of instrument a family holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

struct Series {
    labels: Vec<(String, String)>,
    instrument: Instrument,
}

struct Family {
    help: String,
    kind: Kind,
    series: Vec<Series>,
}

type CollectHook = Box<dyn Fn() + Send + Sync>;

/// The registry: a named set of metric families, each holding one
/// series per label set, plus the collect hooks run before every
/// render. See the [module docs](self) for the locking story.
#[derive(Default)]
pub struct MetricsRegistry {
    families: Mutex<BTreeMap<String, Family>>,
    hooks: Mutex<Vec<CollectHook>>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let fams = self.families.lock().unwrap_or_else(|e| e.into_inner());
        f.debug_struct("MetricsRegistry").field("families", &fams.len()).finish_non_exhaustive()
    }
}

fn sorted_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> =
        labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
    out.sort();
    out
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    fn series<T, F, G>(
        &self,
        name: &str,
        help: &str,
        kind: Kind,
        labels: &[(&str, &str)],
        make: F,
        extract: G,
    ) -> Arc<T>
    where
        F: FnOnce() -> (Arc<T>, Instrument),
        G: Fn(&Instrument) -> Option<Arc<T>>,
    {
        let wanted = sorted_labels(labels);
        let mut fams = self.families.lock().unwrap_or_else(|e| e.into_inner());
        let fam = fams.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            kind,
            series: Vec::new(),
        });
        assert!(fam.kind == kind, "metric family `{name}` registered with two kinds");
        if let Some(s) = fam.series.iter().find(|s| s.labels == wanted) {
            return extract(&s.instrument)
                .unwrap_or_else(|| unreachable!("family kind checked above"));
        }
        let (handle, instrument) = make();
        fam.series.push(Series { labels: wanted, instrument });
        handle
    }

    /// Get-or-create the counter series `(name, labels)`.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        self.series(
            name,
            help,
            Kind::Counter,
            labels,
            || {
                let c = Arc::new(Counter::default());
                (Arc::clone(&c), Instrument::Counter(c))
            },
            |i| match i {
                Instrument::Counter(c) => Some(Arc::clone(c)),
                _ => None,
            },
        )
    }

    /// Get-or-create the gauge series `(name, labels)`. The mode is
    /// fixed by the first registration.
    pub fn gauge(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        mode: GaugeMode,
    ) -> Arc<Gauge> {
        self.series(
            name,
            help,
            Kind::Gauge,
            labels,
            || {
                let g = Arc::new(Gauge::new(mode));
                (Arc::clone(&g), Instrument::Gauge(g))
            },
            |i| match i {
                Instrument::Gauge(g) => Some(Arc::clone(g)),
                _ => None,
            },
        )
    }

    /// Get-or-create the histogram series `(name, labels)` with the
    /// given upper bounds (ignored when the series already exists).
    pub fn histogram(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        bounds: &[f64],
    ) -> Arc<Histogram> {
        self.series(
            name,
            help,
            Kind::Histogram,
            labels,
            || {
                let h = Arc::new(Histogram::new(bounds));
                (Arc::clone(&h), Instrument::Histogram(h))
            },
            |i| match i {
                Instrument::Histogram(h) => Some(Arc::clone(h)),
                _ => None,
            },
        )
    }

    /// Registers a collect hook, run (in registration order) at the top
    /// of every [`render`](MetricsRegistry::render) — the pull path for
    /// sources that own their counters (plan cache, breakers, queues).
    pub fn on_collect(&self, hook: impl Fn() + Send + Sync + 'static) {
        self.hooks.lock().unwrap_or_else(|e| e.into_inner()).push(Box::new(hook));
    }

    /// Renders the whole registry in the Prometheus text exposition
    /// format (version 0.0.4), running collect hooks first. Families
    /// render in name order, series in label order — the output is
    /// deterministic for a given state.
    pub fn render(&self) -> String {
        {
            let hooks = self.hooks.lock().unwrap_or_else(|e| e.into_inner());
            for hook in hooks.iter() {
                hook();
            }
        }
        let fams = self.families.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = String::new();
        for (name, fam) in fams.iter() {
            out.push_str(&format!("# HELP {name} {}\n", escape_help(&fam.help)));
            out.push_str(&format!("# TYPE {name} {}\n", fam.kind.as_str()));
            let mut series: Vec<&Series> = fam.series.iter().collect();
            series.sort_by(|a, b| a.labels.cmp(&b.labels));
            for s in series {
                match &s.instrument {
                    Instrument::Counter(c) => {
                        out.push_str(&format!(
                            "{name}{} {}\n",
                            render_labels(&s.labels, None),
                            c.get()
                        ));
                    }
                    Instrument::Gauge(g) => {
                        let v = match g.mode {
                            GaugeMode::Standard => g.get(),
                            GaugeMode::ResetOnCollect => g.take(),
                        };
                        out.push_str(&format!(
                            "{name}{} {}\n",
                            render_labels(&s.labels, None),
                            fmt_f64(v)
                        ));
                    }
                    Instrument::Histogram(h) => {
                        for (bound, cum) in h.cumulative_buckets() {
                            let le = if bound.is_infinite() {
                                "+Inf".to_string()
                            } else {
                                fmt_f64(bound)
                            };
                            out.push_str(&format!(
                                "{name}_bucket{} {cum}\n",
                                render_labels(&s.labels, Some(("le", &le)))
                            ));
                        }
                        out.push_str(&format!(
                            "{name}_sum{} {}\n",
                            render_labels(&s.labels, None),
                            fmt_f64(h.sum())
                        ));
                        out.push_str(&format!(
                            "{name}_count{} {}\n",
                            render_labels(&s.labels, None),
                            h.count()
                        ));
                    }
                }
            }
        }
        out
    }
}

/// Formats a float the exposition format accepts (`NaN`, `+Inf`,
/// `-Inf`, or the shortest round-trip decimal).
fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

fn escape_label(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

/// `{k="v",...}` with an optional extra pair appended (the histogram
/// `le` label); empty label sets render as nothing.
fn render_labels(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    if labels.is_empty() && extra.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> =
        labels.iter().map(|(k, v)| format!("{k}=\"{}\"", escape_label(v))).collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{}\"", escape_label(v)));
    }
    format!("{{{}}}", parts.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_returns_the_same_instrument() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("augur_x_total", "x", &[("model", "m")]);
        let b = reg.counter("augur_x_total", "x", &[("model", "m")]);
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        // Different labels → different series.
        let c = reg.counter("augur_x_total", "x", &[("model", "other")]);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn render_is_well_formed_and_sorted() {
        let reg = MetricsRegistry::new();
        reg.counter("augur_b_total", "second", &[]).add(7);
        reg.gauge("augur_a", "first", &[("k", "v")], GaugeMode::Standard).set(1.5);
        let text = reg.render();
        let a = text.find("augur_a").unwrap();
        let b = text.find("augur_b_total").unwrap();
        assert!(a < b, "families must render in name order:\n{text}");
        assert!(text.contains("# TYPE augur_a gauge"));
        assert!(text.contains("augur_a{k=\"v\"} 1.5"));
        assert!(text.contains("augur_b_total 7"));
    }

    #[test]
    fn reset_on_collect_gauges_window_between_renders() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("augur_hw", "high water", &[], GaugeMode::ResetOnCollect);
        g.set_max(3.0);
        g.set_max(2.0);
        assert!(reg.render().contains("augur_hw 3"));
        // The render consumed the window.
        assert!(reg.render().contains("augur_hw 0"));
        g.set_max(1.0);
        assert!(reg.render().contains("augur_hw 1"));
    }

    #[test]
    fn histogram_buckets_cumulate_and_quantiles_interpolate() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("augur_lat_seconds", "latency", &[], &[0.1, 1.0, 10.0]);
        for v in [0.05, 0.05, 0.5, 2.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 4);
        assert!((h.sum() - 2.6).abs() < 1e-12);
        assert_eq!(h.max(), 2.0);
        assert_eq!(h.cumulative_buckets(), vec![(0.1, 2), (1.0, 3), (10.0, 4), (f64::INFINITY, 4)]);
        // p50 → rank 2 → first bucket, fully into it.
        assert!((h.quantile(0.5) - 0.1).abs() < 1e-12);
        // The max rides along exactly even though 2.0 sits mid-bucket.
        assert_eq!(h.quantile(1.0), 2.0);
        let text = reg.render();
        assert!(text.contains("augur_lat_seconds_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("augur_lat_seconds_count 4"));
    }

    #[test]
    fn collect_hooks_run_before_render() {
        let reg = Arc::new(MetricsRegistry::new());
        let g = reg.gauge("augur_pulled", "pulled", &[], GaugeMode::Standard);
        let hook_g = Arc::clone(&g);
        reg.on_collect(move || hook_g.set(42.0));
        assert!(reg.render().contains("augur_pulled 42"));
    }

    #[test]
    fn label_values_are_escaped() {
        let reg = MetricsRegistry::new();
        reg.counter("augur_esc_total", "esc", &[("m", "a\"b\\c")]).inc();
        assert!(reg.render().contains("augur_esc_total{m=\"a\\\"b\\\\c\"} 1"));
    }
}
