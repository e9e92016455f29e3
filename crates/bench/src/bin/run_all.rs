//! Runs every experiment binary in sequence (the EXPERIMENTS.md refresh).
//!
//! Usage: `cargo run --release -p seagull-bench --bin run_all`
//! Set `SEAGULL_SCALE=paper` for populations closer to the paper's.

use std::process::Command;

const EXPERIMENTS: &[&str] = &[
    "fig02_error_bound",
    "fig03_classification",
    "fig04_07_patterns",
    "fig08_10_ll_windows",
    "fig11a_model_runtime",
    "fig11bcd_model_accuracy",
    "sec532_persistent_accuracy",
    "sec54_deployment_accuracy",
    "fig12a_pipeline_runtime",
    "fig12b_parallel_eval",
    "fig13a_impact",
    "fig13b_capacity",
    "fig16_17_sql",
    "a1_sql_classification",
    "ablate_error_bound",
    "ablate_history_gate",
    "ablate_model_params",
    "ablate_pf_variant",
    "obs_dump",
];

fn main() {
    let exe_dir = std::env::current_exe()
        .expect("current exe")
        .parent()
        .expect("exe dir")
        .to_path_buf();
    let mut failures = Vec::new();
    for name in EXPERIMENTS {
        println!("\n================================================================");
        println!("== {name}");
        println!("================================================================");
        let path = exe_dir.join(name);
        let status = if path.exists() {
            Command::new(&path).status()
        } else {
            // Fallback: build-and-run through cargo (slower, but works when
            // binaries were not prebuilt).
            Command::new("cargo")
                .args([
                    "run",
                    "--release",
                    "-q",
                    "-p",
                    "seagull-bench",
                    "--bin",
                    name,
                ])
                .status()
        };
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("experiment {name} failed with {s}");
                failures.push(*name);
            }
            Err(e) => {
                eprintln!("experiment {name} could not start: {e}");
                failures.push(*name);
            }
        }
    }
    println!("\n================================================================");
    if failures.is_empty() {
        println!("all {} experiments completed", EXPERIMENTS.len());
    } else {
        println!("FAILED: {failures:?}");
        std::process::exit(1);
    }
}
