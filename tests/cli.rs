//! Smoke runs of the `seagull-cli` binary: every command, on a fleet of at
//! most 20 servers, exits 0 and prints its headline.

use std::path::PathBuf;
use std::process::Command;

/// Runs the binary with `args` and returns its standard output, failing the
/// test on a non-zero exit.
fn run(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_seagull-cli"))
        .args(args)
        .output()
        .expect("the binary starts");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(
        out.status.success(),
        "seagull-cli {args:?} exited {}: {}{stdout}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

#[test]
fn classify_prints_the_breakdown() {
    let out = run(&["classify", "--servers", "20", "--seed", "7"]);
    assert!(out.starts_with("classified 20 servers:"), "{out}");
    assert!(out.contains("short-lived"), "{out}");
}

#[test]
fn pipeline_prints_the_dashboard() {
    let out = run(&["pipeline", "--servers", "20"]);
    assert!(
        out.starts_with("=== Seagull pipeline dashboard ==="),
        "{out}"
    );
    assert!(out.contains("runs: 3 (0 blocked)"), "{out}");
    // Three clean weeks raise no alert: a week scoring below the one
    // before is data noise, not a deploy to roll back.
    assert!(out.contains("open incidents: 0 critical"), "{out}");
}

#[test]
fn schedule_prints_the_decisions() {
    let out = run(&["schedule", "--servers", "20"]);
    assert!(out.starts_with("scheduled "), "{out}");
    assert!(
        out.contains("moved into predicted lowest-load windows"),
        "{out}"
    );
}

/// Every class is served a gate and a window, and scored by the pipeline.
#[test]
fn forecast_prints_the_served_window_for_every_class() {
    for class in ["stable", "daily", "weekly", "unstable"] {
        let out = run(&["forecast", "--class", class, "--seed", "3"]);
        let headline = format!("on one {class} server: backup day");
        assert!(out.lines().next().unwrap().contains(&headline), "{out}");
        assert!(out.contains("served LL window starts at"), "{out}");
        assert!(out.contains("pipeline's score of backup day"), "{out}");
    }
}

#[test]
fn simulate_writes_the_weekly_blobs() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli-simulate");
    let _ = std::fs::remove_dir_all(&dir);
    let out = run(&[
        "simulate",
        "--servers",
        "20",
        "--weeks",
        "2",
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert!(
        out.starts_with("wrote 2 weekly blobs for 20 servers"),
        "{out}"
    );
    assert!(dir.is_dir());
    std::fs::remove_dir_all(&dir).unwrap();
}
