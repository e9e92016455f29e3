//! `e2e`: one seeded end-to-end benchmark of the Seagull reproduction, with
//! per-layer attribution. See `README.md` beside this crate.
//!
//! Every workload runs the same three parts in one process, round after round
//! — the weekly fleet path, journaled deploys against restart recovery, and a
//! closed-loop reader beside an open-loop publisher — and differs in the
//! fleet it generates, the model it deploys, and how long a round spends in
//! each part. Outputs are checked against an oracle; the last line of standard
//! output is the result object the driver reads.

mod durable;
mod fleet;
mod layers;
mod run;
mod spec;
mod storm;
mod trace;
mod util;

use serde_json::Value;
use spec::{Workload, END_TO_END, PER_LAYER, WORKLOADS};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use util::{median, object, quantile};

const DEFAULT_SEED: u64 = 2020;

pub struct Args {
    workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    repeat: Option<usize>,
    list: bool,
    pub spans: Option<String>,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: e2e --workload <{}> [--seed <u64, default {DEFAULT_SEED}>] [--seconds <s, default {}>] \
         [--trace 0|1] [--scale full|smoke] [--repeat <n>] [--spans <file>] | --list",
        names.join("|"),
        spec::RUN_SECONDS
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        repeat: None,
        list: false,
        spans: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--list" => args.list = true,
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            "--scale" => args.smoke = value()? == "smoke",
            "--repeat" => {
                args.repeat = Some(value()?.parse().map_err(|e| format!("--repeat: {e}"))?)
            }
            "--spans" => args.spans = Some(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// `--list`: the spec tables in the shape of `BENCHMARK.json`, which is
/// this output saved (the smoke test holds the two equal).
fn list() {
    let strings =
        |items: &[&str]| Value::from(items.iter().map(|&s| Value::from(s)).collect::<Vec<_>>());
    let workloads: Vec<Value> = WORKLOADS
        .iter()
        .map(|w| object([("name", w.name.into()), ("why", w.why.into())]))
        .collect();
    let end_to_end: Vec<Value> = END_TO_END
        .iter()
        .map(|m| {
            object([
                ("name", m.name.into()),
                ("unit", m.unit.into()),
                ("better", m.better.as_str().into()),
                ("bound", m.bound.into()),
            ])
        })
        .collect();
    let per_layer: Vec<Value> = PER_LAYER
        .iter()
        .map(|m| {
            object([
                ("name", m.name.into()),
                ("unit", m.unit.into()),
                ("better", m.better.as_str().into()),
            ])
        })
        .collect();
    let out = object([
        ("command", strings(&spec::COMMAND)),
        ("paths", strings(&spec::PATHS)),
        ("run_seconds", spec::RUN_SECONDS.into()),
        ("workloads", workloads.into()),
        ("end_to_end", end_to_end.into()),
        ("per_layer", per_layer.into()),
    ]);
    println!(
        "{}",
        serde_json::to_string_pretty(&out).expect("spec serializes")
    );
}

/// Runs the workload `n` times as child processes, seeds `seed..seed + n`,
/// and prints per metric the median, the quartiles, their distance as a
/// share of the median, and whether that stayed inside the metric's bound.
fn repeat(workload: &Workload, args: &Args, n: usize) -> ExitCode {
    let exe = std::env::current_exe().expect("own path");
    let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut all_correct = true;
    for i in 0..n {
        let mut child = Command::new(&exe);
        child
            .args(["--workload", workload.name])
            .args(["--seed", &(args.seed + i as u64).to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if args.smoke {
            child.args(["--scale", "smoke"]);
        }
        let output = child.output().expect("child runs");
        let stdout = String::from_utf8_lossy(&output.stdout);
        let Some(result) = stdout
            .lines()
            .last()
            .and_then(|l| serde_json::from_str::<Value>(l).ok())
        else {
            eprintln!("e2e: run {i} printed no result");
            return ExitCode::FAILURE;
        };
        all_correct &=
            output.status.success() && result.get("correct").and_then(Value::as_bool) == Some(true);
        for (name, entry) in result
            .get("metrics")
            .and_then(Value::as_object)
            .into_iter()
            .flatten()
        {
            if let Some(value) = entry.get("value").and_then(Value::as_f64) {
                samples.entry(name.clone()).or_default().push(value);
            }
        }
    }
    println!(
        "{} x{n}, seeds {}..{}, {} s each",
        workload.name,
        args.seed,
        args.seed + n as u64,
        args.seconds
    );
    println!(
        "{:<40} {:>14} {:>14} {:>14} {:>8}  bound",
        "metric", "median", "q1", "q3", "iqr/med"
    );
    for (name, values) in &samples {
        // The driver's spread: `statistics.quantiles(values, n=4)`, exclusive method.
        let exclusive = |q: f64| {
            let pos = (q * (values.len() + 1) as f64 - 1.0).clamp(0.0, (values.len() - 1) as f64);
            quantile(values, pos / (values.len() - 1).max(1) as f64)
        };
        let (q1, med, q3) = (exclusive(0.25), median(values), exclusive(0.75));
        let spread = if med != 0.0 {
            (q3 - q1) / med.abs()
        } else {
            0.0
        };
        let bound = END_TO_END.iter().find(|e| e.name == name).map(|e| e.bound);
        let verdict = match bound {
            Some(b) if spread <= b / 3.0 => format!("{b} ok"),
            Some(b) if spread <= b => format!("{b} wide"),
            Some(b) => format!("{b} EXCEEDED"),
            None => "-".to_string(),
        };
        println!("{name:<40} {med:>14.4} {q1:>14.4} {q3:>14.4} {spread:>8.4}  {verdict}");
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("e2e: at least one run was not correct");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2e: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if args.list {
        list();
        return ExitCode::SUCCESS;
    }
    let Some(workload) = args.workload.as_deref().and_then(spec::workload) else {
        eprintln!("e2e: name a workload\n{}", usage());
        return ExitCode::from(2);
    };
    match args.repeat {
        Some(n) if n > 0 => repeat(workload, &args, n),
        _ => run::run(workload, &args),
    }
}
