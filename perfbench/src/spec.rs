//! The metric declarations in the repository's `BENCHMARK.json`: the
//! single list of names, units, directions and bounds every run reports
//! against.

use std::path::PathBuf;

use crate::json::Json;

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `true` when higher values are better.
    pub higher_is_better: bool,
    /// Regression bound as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// The declarations, in file order.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Length of a run's measured phase in seconds (`run_seconds`), the
    /// same for every run of every commit.
    pub run_seconds: f64,
    /// Workload names.
    pub workloads: Vec<String>,
    /// End-to-end metrics (the untraced run prints exactly these).
    pub end_to_end: Vec<Declared>,
    /// Per-layer metrics (the traced run prints exactly these).
    pub per_layer: Vec<Declared>,
}

/// Path of `BENCHMARK.json`: the root of the repository this package
/// sits in.
pub fn path() -> PathBuf {
    crate::bench_dir().parent().map_or_else(
        || PathBuf::from("BENCHMARK.json"),
        |p| p.join("BENCHMARK.json"),
    )
}

impl Spec {
    /// Reads and parses `BENCHMARK.json`.
    ///
    /// # Errors
    ///
    /// Returns a message for a missing file or a malformed declaration.
    pub fn load() -> Result<Spec, String> {
        let p = path();
        let text =
            std::fs::read_to_string(&p).map_err(|e| format!("reading {}: {e}", p.display()))?;
        Spec::parse(&text)
    }

    /// Parses the text of `BENCHMARK.json`.
    ///
    /// # Errors
    ///
    /// Returns a message for malformed JSON or declarations.
    pub fn parse(text: &str) -> Result<Spec, String> {
        let v = Json::parse(text)?;
        let list = |key: &str| -> Result<Vec<Declared>, String> {
            v.get(key)
                .ok_or_else(|| format!("BENCHMARK.json lacks `{key}`"))?
                .arr()
                .iter()
                .map(|m| {
                    let s = |k: &str| {
                        m.get(k)
                            .and_then(Json::str)
                            .map(str::to_owned)
                            .ok_or_else(|| format!("{key}: entry lacks `{k}`"))
                    };
                    Ok(Declared {
                        name: s("name")?,
                        unit: s("unit")?,
                        higher_is_better: s("better")? == "higher",
                        bound: m.get("bound").and_then(Json::num),
                    })
                })
                .collect()
        };
        let workloads = v
            .get("workloads")
            .ok_or("BENCHMARK.json lacks `workloads`")?
            .arr()
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::str).map(str::to_owned))
            .collect();
        Ok(Spec {
            run_seconds: v
                .get("run_seconds")
                .and_then(Json::num)
                .filter(|s| *s > 0.0)
                .ok_or("BENCHMARK.json lacks a positive `run_seconds`")?,
            workloads,
            end_to_end: list("end_to_end")?,
            per_layer: list("per_layer")?,
        })
    }

    /// The declaration of metric `name`, end-to-end or per-layer.
    pub fn find(&self, name: &str) -> Option<&Declared> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|d| d.name == name)
    }
}
