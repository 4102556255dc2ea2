//! Smoke test: every workload at its smallest size (one suite seed, a
//! 12-target SoC, a few dozen gateway requests), untraced and traced. Each
//! run must pass its output checks and print every metric `BENCHMARK.json`
//! names, with its unit, on the result line.
//!
//! ```text
//! cargo test --release --manifest-path benchmark/Cargo.toml
//! ```

use stbus_gateway::json::{self, Value};
use std::process::Command;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of each metric in the `section` array.
fn metrics(spec: &Value, section: &str) -> Vec<(String, String)> {
    spec.get(section)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn run(workload: &str, trace: u8) -> Value {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{workload}-{trace}"));
    std::fs::create_dir_all(&dir).expect("per-run working directory");
    let output = Command::new(env!("CARGO_BIN_EXE_stbus-benchmark"))
        .args([
            "--workload",
            workload,
            "--seed",
            "1",
            "--seconds",
            "1",
            "--tiny",
        ])
        .args(["--trace", &trace.to_string()])
        .current_dir(&dir)
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    json::parse(last).expect("the last line is JSON")
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    let spec = benchmark_json();
    let workloads: Vec<String> = spec
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workload list")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert!(workloads.len() >= 2);
    for workload in &workloads {
        for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
            let result = run(workload, trace);
            assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
            assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
            assert!(result.get("attempted").and_then(Value::as_u64) >= Some(1));
            let printed = result.get("metrics").expect("metrics object");
            let expected = metrics(&spec, section);
            for (name, unit) in &expected {
                let metric = printed
                    .get(name)
                    .unwrap_or_else(|| panic!("{workload} trace={trace}: `{name}` missing"));
                assert!(metric.get("value").and_then(Value::as_f64).is_some());
                assert_eq!(
                    metric.get("unit").and_then(Value::as_str),
                    Some(unit.as_str()),
                    "{workload} trace={trace}: unit of `{name}`"
                );
            }
            match printed {
                Value::Obj(fields) => assert_eq!(fields.len(), expected.len()),
                _ => panic!("metrics is an object"),
            }
        }
    }
}
