//! `--calibrate DIR`: per-workload baseline medians and spreads of the
//! end-to-end metrics, and the bound each spread suggests, from a
//! directory of untraced result files (at least five runs per workload,
//! each with its own seed). The output is the `baseline` section of
//! `calibration.json`; bounds go to `BENCHMARK.json` by hand.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::{num, quote};
use crate::outcome::Outcome;
use crate::spec::Spec;
use crate::timing::{median, regression_bound, rel_iqr};

/// Runs per workload below which a baseline is not worth recording.
pub const MIN_RUNS: usize = 5;

/// The calibration summary of `runs` as a JSON object.
///
/// # Errors
///
/// Returns a message naming a workload with fewer than [`MIN_RUNS`] runs.
pub fn calibrate(runs: &[Outcome], spec: &Spec) -> Result<String, String> {
    let mut by_workload: BTreeMap<&str, Vec<&Outcome>> = BTreeMap::new();
    for o in runs.iter().filter(|o| !o.traced) {
        by_workload.entry(&o.workload).or_default().push(o);
    }
    let mut worst: BTreeMap<&str, f64> = BTreeMap::new();
    let mut out = String::from("{\n  \"baseline\": {");
    for (i, (w, outs)) in by_workload.iter().enumerate() {
        if outs.len() < MIN_RUNS {
            return Err(format!(
                "{w}: {} runs, need at least {MIN_RUNS}",
                outs.len()
            ));
        }
        let _ = write!(
            out,
            "{}\n    {}: {{",
            if i > 0 { "," } else { "" },
            quote(w)
        );
        for (j, d) in spec.end_to_end.iter().enumerate() {
            let values: Vec<f64> = outs
                .iter()
                .filter_map(|o| o.get(&d.name))
                .map(|m| m.value)
                .collect();
            let spread = rel_iqr(&values);
            if d.name != "setup_s" {
                let slot = worst.entry(&d.name).or_insert(0.0);
                *slot = slot.max(spread);
            }
            let _ = write!(
                out,
                "{}\n      {}: {{\"median\": {}, \"iqr_over_median\": {}, \"runs\": {}}}",
                if j > 0 { "," } else { "" },
                quote(&d.name),
                num(median(&values)),
                num(spread),
                values.len()
            );
        }
        out.push_str("\n    }");
    }
    // `null`: some workload spread wider than any admissible bound, so the
    // metric must be made steadier or dropped.
    out.push_str("\n  },\n  \"suggested_bounds\": {");
    for (i, (name, spread)) in worst.iter().enumerate() {
        let _ = write!(
            out,
            "{}\n    {}: {}",
            if i > 0 { "," } else { "" },
            quote(name),
            regression_bound(*spread).map_or_else(|| "null".to_string(), num)
        );
    }
    out.push_str("\n  }");
    let capacity: Vec<f64> = runs
        .iter()
        .filter_map(|o| o.get("serve.capacity_rps"))
        .map(|m| m.value)
        .collect();
    if !capacity.is_empty() {
        let _ = write!(
            out,
            ",\n  \"serve_capacity_rps\": {}",
            num(median(&capacity))
        );
    }
    out.push_str("\n}\n");
    Ok(out)
}
