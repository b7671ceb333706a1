//! `--compare`: judges a change against its parent from result files of
//! alternating runs, one row per workload × end-to-end metric.
//!
//! Runs pair up by workload and seed. A change *improved* a metric when
//! it wins at least nine tenths of the pairs (ties count for neither) and
//! the medians differ by more than the parent's own IQR. It *regressed*
//! when its median is worse than the parent's by more than the metric's
//! bound in `BENCHMARK.json`. When the parent's runs spread wider than
//! the bound the row is *unresolved*, unless every change run beats
//! every parent run. Everything else is *no worse*. Fewer than ten pairs
//! is always *unresolved*.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::outcome::Outcome;
use crate::spec::Spec;
use crate::timing::{median, quartiles};

/// Pairs below this count cannot support a verdict.
pub const MIN_PAIRS: usize = 10;
/// Absolute floor on the `setup_s` bound: tape set-up is sub-millisecond,
/// where a relative bound is timer noise.
pub const SETUP_FLOOR_S: f64 = 0.005;

/// A comparison verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Wins ≥ 90% of pairs by more than the parent's spread.
    Improved,
    /// Not worse than the parent by more than the bound.
    NoWorse,
    /// Worse than the parent by more than the bound.
    Regressed,
    /// Too few pairs, or the parent's spread exceeds the bound.
    Unresolved,
}

impl Verdict {
    /// Lowercase name for tables.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::NoWorse => "no worse",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One workload × metric comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload.
    pub workload: String,
    /// Metric.
    pub metric: String,
    /// Pairs compared.
    pub pairs: usize,
    /// Parent quartiles.
    pub parent: [f64; 3],
    /// Change quartiles.
    pub change: [f64; 3],
    /// Share of pairs the change won.
    pub win_fraction: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Judges one metric from paired `(parent, change)` values.
pub fn judge(
    pairs: &[(f64, f64)],
    higher_is_better: bool,
    bound: f64,
    abs_floor: f64,
) -> (f64, Verdict) {
    let better = |a: f64, b: f64| if higher_is_better { a > b } else { a < b };
    let wins = pairs.iter().filter(|(p, c)| better(*c, *p)).count();
    let win_fraction = if pairs.is_empty() {
        0.0
    } else {
        wins as f64 / pairs.len() as f64
    };
    if pairs.len() < MIN_PAIRS {
        return (win_fraction, Verdict::Unresolved);
    }
    let p: Vec<f64> = pairs.iter().map(|x| x.0).collect();
    let c: Vec<f64> = pairs.iter().map(|x| x.1).collect();
    let [pq1, pm, pq3] = quartiles(&p);
    let cm = median(&c);
    let allowed = (bound * pm.abs()).max(abs_floor);
    let worse_by = if higher_is_better { pm - cm } else { cm - pm };
    let every_change_better = c.iter().all(|&cv| p.iter().all(|&pv| better(cv, pv)));
    let verdict = if pq3 - pq1 > allowed && !every_change_better {
        Verdict::Unresolved
    } else if worse_by > allowed {
        Verdict::Regressed
    } else if win_fraction >= 0.9 && -worse_by > pq3 - pq1 {
        Verdict::Improved
    } else {
        Verdict::NoWorse
    };
    (win_fraction, verdict)
}

/// Compares untraced parent and change results, pairing runs by
/// workload and seed.
///
/// # Errors
///
/// Returns a message when a pair's runs measured for different lengths:
/// their numbers are not comparable.
pub fn compare(parent: &[Outcome], change: &[Outcome], spec: &Spec) -> Result<Vec<Row>, String> {
    let index = |runs: &[Outcome]| -> BTreeMap<(String, u64), Outcome> {
        runs.iter()
            .filter(|o| !o.traced)
            .map(|o| ((o.workload.clone(), o.seed), o.clone()))
            .collect()
    };
    let (p, c) = (index(parent), index(change));
    for ((w, seed), po) in &p {
        if let Some(co) = c.get(&(w.clone(), *seed)) {
            if po.seconds != co.seconds {
                return Err(format!(
                    "{w} seed {seed}: the parent run measured {} s and the change run {} s",
                    po.seconds, co.seconds
                ));
            }
        }
    }
    let mut workloads: Vec<String> = p.keys().map(|k| k.0.clone()).collect();
    workloads.dedup();
    let mut rows = Vec::new();
    for w in workloads {
        for d in &spec.end_to_end {
            let pairs: Vec<(f64, f64)> = p
                .iter()
                .filter(|(k, _)| k.0 == w)
                .filter_map(|(k, po)| {
                    let co = c.get(k)?;
                    Some((po.get(&d.name)?.value, co.get(&d.name)?.value))
                })
                .collect();
            let floor = if d.name == "setup_s" {
                SETUP_FLOOR_S
            } else {
                0.0
            };
            let (win_fraction, verdict) =
                judge(&pairs, d.higher_is_better, d.bound.unwrap_or(0.0), floor);
            let side =
                |f: fn(&(f64, f64)) -> f64| quartiles(&pairs.iter().map(f).collect::<Vec<_>>());
            rows.push(Row {
                workload: w.clone(),
                metric: d.name.clone(),
                pairs: pairs.len(),
                parent: side(|x| x.0),
                change: side(|x| x.1),
                win_fraction,
                verdict,
            });
        }
    }
    Ok(rows)
}

/// The comparison as a fixed-width table.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<12} {:<16} {:>5} {:>32} {:>32} {:>5} verdict\n",
        "workload", "metric", "pairs", "parent q1 / median / q3", "change q1 / median / q3", "wins"
    );
    for r in rows {
        let q = |v: [f64; 3]| format!("{:.4} / {:.4} / {:.4}", v[0], v[1], v[2]);
        let _ = writeln!(
            out,
            "{:<12} {:<16} {:>5} {:>32} {:>32} {:>4.0}% {}",
            r.workload,
            r.metric,
            r.pairs,
            q(r.parent),
            q(r.change),
            r.win_fraction * 100.0,
            r.verdict.name()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(p: &[f64], c: &[f64]) -> Vec<(f64, f64)> {
        p.iter().copied().zip(c.iter().copied()).collect()
    }

    #[test]
    fn verdicts_follow_the_pairing_rules() {
        let base: Vec<f64> = (0..10).map(|i| 100.0 + i as f64 * 0.2).collect();
        let faster: Vec<f64> = base.iter().map(|x| x * 1.2).collect();
        let slower: Vec<f64> = base.iter().map(|x| x * 0.7).collect();
        let same: Vec<f64> = base.iter().rev().copied().collect();
        assert_eq!(
            judge(&pairs(&base, &faster), true, 0.1, 0.0).1,
            Verdict::Improved
        );
        assert_eq!(
            judge(&pairs(&base, &slower), true, 0.1, 0.0).1,
            Verdict::Regressed
        );
        assert_eq!(
            judge(&pairs(&base, &same), true, 0.1, 0.0).1,
            Verdict::NoWorse
        );
        // lower-is-better flips the direction
        assert_eq!(
            judge(&pairs(&base, &slower), false, 0.1, 0.0).1,
            Verdict::Improved
        );
        // too few pairs
        assert_eq!(
            judge(&pairs(&base[..5], &faster[..5]), true, 0.1, 0.0).1,
            Verdict::Unresolved
        );
        // parent spread wider than the bound
        let wide: Vec<f64> = (0..10).map(|i| 50.0 + i as f64 * 20.0).collect();
        let wide_c: Vec<f64> = wide.iter().rev().copied().collect();
        assert_eq!(
            judge(&pairs(&wide, &wide_c), true, 0.1, 0.0).1,
            Verdict::Unresolved
        );
        // the absolute floor absorbs sub-millisecond set-up noise
        let setup: Vec<f64> = (0..10).map(|i| 0.001 + i as f64 * 1e-5).collect();
        let setup_c: Vec<f64> = setup.iter().map(|x| x * 2.0).collect();
        assert_eq!(
            judge(&pairs(&setup, &setup_c), false, 0.25, SETUP_FLOOR_S).1,
            Verdict::NoWorse
        );
    }
}
