//! Keeps `BENCHMARK.json` and the `e2e` binary from drifting: the file must
//! equal `e2e --list`, and every workload at `--scale smoke` must print
//! exactly the metrics the file names, finite, under both `--trace` values.
//!
//! Run with `cargo test --release --offline --manifest-path e2e/Cargo.toml`.

use serde_json::Value;
use std::collections::BTreeSet;
use std::process::Command;

const EXE: &str = env!("CARGO_BIN_EXE_e2e");

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn names(spec: &Value, list: &str) -> Vec<String> {
    spec.get(list)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("{list} is a list"))
        .iter()
        .map(|entry| {
            entry
                .get("name")
                .and_then(Value::as_str)
                .expect("entry has a name")
                .to_string()
        })
        .collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn benchmark_json_is_the_binarys_own_table() {
    let listed = Command::new(EXE)
        .arg("--list")
        .output()
        .expect("e2e --list runs");
    assert!(listed.status.success());
    let listed: Value = serde_json::from_slice(&listed.stdout).expect("--list prints JSON");
    assert_eq!(
        listed,
        benchmark_json(),
        "BENCHMARK.json differs from `e2e --list`"
    );
}

#[test]
fn benchmark_json_stays_inside_the_contract() {
    let spec = benchmark_json();
    let workloads = names(&spec, "workloads");
    let end_to_end = names(&spec, "end_to_end");
    let per_layer = names(&spec, "per_layer");
    assert!((2..=8).contains(&workloads.len()));
    assert!((1..=16).contains(&end_to_end.len()));
    assert!((1..=128).contains(&per_layer.len()));
    let all: Vec<&String> = workloads
        .iter()
        .chain(&end_to_end)
        .chain(&per_layer)
        .collect();
    assert!(
        all.iter().all(|n| well_formed(n)),
        "a name breaks [A-Za-z0-9][A-Za-z0-9_.-]*"
    );
    assert_eq!(
        all.iter().collect::<BTreeSet<_>>().len(),
        all.len(),
        "a name is used twice"
    );
    assert!(end_to_end.iter().any(|n| n == "setup_s"));
    for entry in spec
        .get("end_to_end")
        .and_then(Value::as_array)
        .expect("list")
    {
        let bound = entry.get("bound").and_then(Value::as_f64).expect("bound");
        assert!(
            bound > 0.0 && bound <= 0.25,
            "bound {bound} outside (0, 0.25]"
        );
    }
}

#[test]
fn every_workload_emits_every_named_metric() {
    let spec = benchmark_json();
    for workload in names(&spec, "workloads") {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let output = Command::new(EXE)
                .args(["--workload", &workload, "--seed", "7", "--seconds", "0.2"])
                .args(["--trace", trace, "--scale", "smoke"])
                .output()
                .expect("e2e runs");
            let stdout = String::from_utf8_lossy(&output.stdout);
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert!(
                output.status.success(),
                "{workload} --trace {trace} failed:\n{stderr}"
            );
            let result: Value = serde_json::from_str(stdout.lines().last().expect("a result line"))
                .expect("result parses");
            let keys: Vec<&String> = result.as_object().expect("an object").keys().collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
            assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
            assert!(
                result
                    .get("attempted")
                    .and_then(Value::as_u64)
                    .expect("attempted")
                    >= 1
            );
            let metrics = result
                .get("metrics")
                .and_then(Value::as_object)
                .expect("metrics");
            let expected: BTreeSet<String> = names(&spec, list).into_iter().collect();
            let emitted: BTreeSet<String> = metrics.keys().cloned().collect();
            assert_eq!(emitted, expected, "{workload} --trace {trace}");
            for (name, entry) in metrics {
                let value = entry.get("value").and_then(Value::as_f64);
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{workload}: {name} is not a finite number"
                );
                assert!(
                    entry.get("unit").and_then(Value::as_str).is_some(),
                    "{workload}: {name} has no unit"
                );
            }
        }
    }
}
