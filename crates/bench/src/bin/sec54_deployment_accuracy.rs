//! Section 5.4 — The deployed model, fleet-wide: prints
//! [`seagull_bench::deployed::deployment_accuracy`] beside the paper's
//! numbers.

use seagull_bench::deployed::deployment_accuracy;
use seagull_bench::{emit_json, Table};
use serde_json::json;

fn main() -> std::io::Result<()> {
    let (acc, predictable_pct) = deployment_accuracy(42);
    println!(
        "Section 5.4: deployed persistent forecast on all {} long-lived servers\n",
        acc.servers
    );
    let rows = [
        ("LL windows chosen correctly", acc.window_correct_pct, 99.0),
        (
            "LL-window load predicted accurately",
            acc.load_accurate_pct,
            96.0,
        ),
        ("long-lived servers predictable", predictable_pct, 75.0),
    ];
    let mut t = Table::new(["metric", "measured", "paper"]);
    for (metric, measured, paper) in rows {
        t.row([
            metric.to_string(),
            format!("{measured:.2}%"),
            format!("{paper}%"),
        ]);
    }
    t.print();

    emit_json(
        "sec54_deployment_accuracy",
        &json!({
            "servers": acc.servers,
            "window_correct_pct": acc.window_correct_pct,
            "load_accurate_pct": acc.load_accurate_pct,
            "predictable_pct": predictable_pct,
            "paper": { "window_correct_pct": 99.0, "load_accurate_pct": 96.0,
                       "predictable_pct": 75.0 },
        }),
    )?;

    Ok(())
}
