//! The whole benchmark at tiny sizes: every workload's correctness
//! checks pass, and the untraced and traced runs print every metric
//! `BENCHMARK.json` declares.

use std::process::Command;

use augur_perfbench::json::Json;
use augur_perfbench::spec::Spec;
use augur_perfbench::WORKLOADS;

fn run(trace: &str) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_augur-bench"))
        .args(["--smoke", "--trace", trace])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "--smoke --trace {trace} failed ({}):\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last).unwrap_or_else(|e| panic!("bad result line {last}: {e}"))
}

#[test]
fn smoke_run_checks_pass_and_every_declared_metric_is_printed() {
    let spec = Spec::load().expect("BENCHMARK.json parses");
    assert_eq!(spec.workloads, WORKLOADS);
    for (trace, declared) in [("0", &spec.end_to_end), ("1", &spec.per_layer)] {
        let result = run(trace);
        assert_eq!(
            result.get("correct"),
            Some(&Json::Bool(true)),
            "--trace {trace}"
        );
        assert!(result.get("attempted").and_then(Json::num).unwrap_or(0.0) >= 1.0);
        let metrics = result.get("metrics").expect("a metrics object");
        for w in WORKLOADS {
            for d in declared {
                let key = format!("{w}.{}", d.name);
                let m = metrics
                    .get(&key)
                    .unwrap_or_else(|| panic!("--trace {trace}: {key} missing"));
                assert_eq!(
                    m.get("unit").and_then(Json::str),
                    Some(d.unit.as_str()),
                    "{key}"
                );
                assert!(
                    m.get("value")
                        .and_then(Json::num)
                        .is_some_and(f64::is_finite),
                    "{key}"
                );
            }
        }
    }
}
