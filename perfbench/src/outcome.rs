//! What one workload run produces — metrics with units, sample counts and
//! spreads, correctness checks, and request/sweep accounting — and its
//! JSON result-file form, which `--compare` reads back.

use std::fmt::Write as _;

use crate::json::{num, quote, Json};
use crate::timing::{beyond, percentile, rel_iqr};
use crate::trace::LayerTime;

/// One measured metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as declared in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit, as declared in `BENCHMARK.json`.
    pub unit: String,
    /// Samples behind the value (1 for a single reading).
    pub n: usize,
    /// IQR over median of those samples (0 for a single reading).
    pub spread: f64,
}

/// One correctness check.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub pass: bool,
    /// Evidence, e.g. the compared values.
    pub detail: String,
}

/// Everything one workload run reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    /// Workload name.
    pub workload: String,
    /// The seed its inputs came from.
    pub seed: u64,
    /// Whether this was the traced run.
    pub traced: bool,
    /// Length of the measured phase in seconds; `--compare` pairs only
    /// runs of equal length.
    pub seconds: f64,
    /// Operations attempted (timed sweeps, or requests sent).
    pub attempted: u64,
    /// Operations that failed (errored sweeps; failed, shed or timed-out
    /// requests).
    pub failed: u64,
    /// Metrics in production order.
    pub metrics: Vec<Metric>,
    /// Correctness checks.
    pub checks: Vec<Check>,
    /// Per-layer self times from the traced run.
    pub layers: Vec<LayerTime>,
    /// Free-form context lines printed with the table.
    pub notes: Vec<String>,
}

impl Outcome {
    /// A new, empty outcome.
    pub fn new(workload: &str, seed: u64, traced: bool) -> Outcome {
        Outcome {
            workload: workload.into(),
            seed,
            traced,
            ..Outcome::default()
        }
    }

    /// Adds a single reading.
    pub fn put(&mut self, name: &str, value: f64, unit: &str) {
        self.put_n(name, value, unit, 1, 0.0);
    }

    /// Adds a value with its sample count and spread.
    pub fn put_n(&mut self, name: &str, value: f64, unit: &str, n: usize, spread: f64) {
        let m = Metric {
            name: name.into(),
            value,
            unit: unit.into(),
            n,
            spread,
        };
        match self.metrics.iter_mut().find(|x| x.name == name) {
            Some(slot) => *slot = m,
            None => self.metrics.push(m),
        }
    }

    /// Adds percentile `p` of the ascending samples `sorted` as metric
    /// `name`, with a note when fewer than ten samples lie beyond it.
    pub fn put_percentile(&mut self, name: &str, sorted: &[f64], p: f64, unit: &str) {
        let n = sorted.len();
        self.put_n(name, percentile(sorted, p), unit, n, rel_iqr(sorted));
        if beyond(n, p) < 10 {
            self.notes.push(format!(
                "{name} rests on {n} samples ({} beyond it); fewer than ten beyond",
                beyond(n, p)
            ));
        }
    }

    /// The metric called `name`.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Records a check.
    pub fn check(&mut self, name: &str, pass: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.into(),
            pass,
            detail: detail.into(),
        });
    }

    /// Whether every check passed (and at least one ran).
    pub fn correct(&self) -> bool {
        !self.checks.is_empty() && self.checks.iter().all(|c| c.pass)
    }

    /// The full result as one JSON object.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"workload\":{},\"seed\":{},\"traced\":{},\"seconds\":{},\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            quote(&self.workload),
            self.seed,
            self.traced,
            num(self.seconds),
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(
                out,
                "{sep}{}:{{\"value\":{},\"unit\":{},\"n\":{},\"spread\":{}}}",
                quote(&m.name),
                num(m.value),
                quote(&m.unit),
                m.n,
                num(m.spread)
            );
        }
        out.push_str("},\"checks\":[");
        for (i, c) in self.checks.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(
                out,
                "{sep}{{\"name\":{},\"pass\":{},\"detail\":{}}}",
                quote(&c.name),
                c.pass,
                quote(&c.detail)
            );
        }
        out.push_str("],\"layers\":[");
        for (i, l) in self.layers.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(
                out,
                "{sep}{{\"name\":{},\"count\":{},\"total_s\":{},\"self_s\":{}}}",
                quote(&l.name),
                l.count,
                num(l.total_secs),
                num(l.self_secs)
            );
        }
        out.push_str("],\"notes\":[");
        for (i, n) in self.notes.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(out, "{sep}{}", quote(n));
        }
        out.push_str("]}");
        out
    }

    /// Parses [`Outcome::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns a message for malformed JSON or missing fields.
    pub fn from_json(text: &str) -> Result<Outcome, String> {
        let v = Json::parse(text)?;
        let field = |k: &str| v.get(k).ok_or_else(|| format!("result lacks `{k}`"));
        let count = |k: &str| -> Result<u64, String> {
            field(k)?
                .num()
                .map(|x| x as u64)
                .ok_or_else(|| format!("`{k}` is not a number"))
        };
        let mut out = Outcome::new(
            field("workload")?
                .str()
                .ok_or("`workload` is not a string")?,
            count("seed")?,
            field("traced")? == &Json::Bool(true),
        );
        out.seconds = field("seconds")?.num().ok_or("`seconds` is not a number")?;
        out.attempted = count("attempted")?;
        out.failed = count("failed")?;
        if let Some(Json::Obj(ms)) = v.get("metrics") {
            for (name, m) in ms {
                let value = m
                    .get("value")
                    .and_then(Json::num)
                    .ok_or("metric lacks a value")?;
                let unit = m.get("unit").and_then(Json::str).unwrap_or("");
                let n = m.get("n").and_then(Json::num).unwrap_or(1.0) as usize;
                let spread = m.get("spread").and_then(Json::num).unwrap_or(0.0);
                out.put_n(name, value, unit, n, spread);
            }
        }
        for c in v.get("checks").map(Json::arr).unwrap_or(&[]) {
            out.check(
                c.get("name").and_then(Json::str).unwrap_or(""),
                c.get("pass") == Some(&Json::Bool(true)),
                c.get("detail").and_then(Json::str).unwrap_or(""),
            );
        }
        for l in v.get("layers").map(Json::arr).unwrap_or(&[]) {
            out.layers.push(LayerTime {
                name: l.get("name").and_then(Json::str).unwrap_or("").into(),
                count: l.get("count").and_then(Json::num).unwrap_or(0.0) as usize,
                total_secs: l.get("total_s").and_then(Json::num).unwrap_or(0.0),
                self_secs: l.get("self_s").and_then(Json::num).unwrap_or(0.0),
            });
        }
        for n in v.get("notes").map(Json::arr).unwrap_or(&[]) {
            out.notes.push(n.str().unwrap_or("").into());
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_files_round_trip() {
        let mut o = Outcome::new("hlr-hmc", 7, true);
        o.seconds = 15.0;
        o.attempted = 10;
        o.failed = 1;
        o.put_n("sweeps_per_s", 123.456_789_012_345, "1/s", 40, 0.031);
        o.check("tape == tree", true, "3 sweeps");
        o.layers.push(LayerTime {
            name: "Session::sweep".into(),
            count: 3,
            total_secs: 0.5,
            self_secs: 0.25,
        });
        o.notes.push("host: 2 cores".into());
        let back = Outcome::from_json(&o.to_json()).unwrap();
        assert_eq!(back, o);
        assert!(back.correct());
    }
}
