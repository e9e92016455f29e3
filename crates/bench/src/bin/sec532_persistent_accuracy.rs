//! Section 5.3.2 — Persistent forecast on stable servers and servers with a
//! pattern.
//!
//! Paper: "this heuristic correctly selected 99.83 % of LL windows,
//! accurately predicted the load during 99.06 % of all windows, and
//! classified 96.92 % of servers as predictable."

use seagull_bench::refit::{
    evaluate_fleet_week, predictability_fleet, predictable_pct, summarize, EvaluationConfig,
};
use seagull_bench::{emit_json, fleets, Table};
use seagull_core::classify::{classify_fleet, ServerClass};
use seagull_forecast::PersistentForecast;
use serde_json::json;

fn main() -> std::io::Result<()> {
    let (fleet, spec) = fleets::classification_fleet(42);
    let start = spec.start_day;
    let cfg = EvaluationConfig::default();
    let model = PersistentForecast::previous_day();

    // The Section 5.3.2 population: long-lived servers that are stable or
    // follow a daily/weekly pattern.
    let report = classify_fleet(&fleet, start + 28);
    let keep: std::collections::HashSet<u64> = report
        .assignments
        .iter()
        .filter(|(_, c)| {
            matches!(
                c,
                ServerClass::Stable | ServerClass::DailyPattern | ServerClass::WeeklyPattern
            )
        })
        .map(|(id, _)| id.0)
        .collect();
    let predictable_pool: Vec<_> = fleet
        .iter()
        .filter(|s| keep.contains(&s.meta.id.0))
        .cloned()
        .collect();

    // Backup-day evaluation in the last full week of the window.
    let evals = evaluate_fleet_week(&predictable_pool, start + 21, &model, &cfg, 4);
    let summary = summarize(&evals);
    let preds = predictability_fleet(&predictable_pool, start + 28, &model, &cfg, 4);
    let pred_pct = predictable_pct(&preds);

    println!(
        "Section 5.3.2: persistent forecast (previous day) on {} stable/patterned servers\n",
        predictable_pool.len()
    );
    let mut t = Table::new(["metric", "measured", "paper"]);
    t.row([
        "LL windows chosen correctly".to_string(),
        format!("{:.2}%", summary.window_correct_pct),
        "99.83%".to_string(),
    ]);
    t.row([
        "LL-window load predicted accurately".to_string(),
        format!("{:.2}%", summary.load_accurate_pct),
        "99.06%".to_string(),
    ]);
    t.row([
        "servers classified predictable".to_string(),
        format!("{pred_pct:.2}%"),
        "96.92%".to_string(),
    ]);
    t.print();

    emit_json(
        "sec532_persistent_accuracy",
        &json!({
            "servers": predictable_pool.len(),
            "window_correct_pct": summary.window_correct_pct,
            "load_accurate_pct": summary.load_accurate_pct,
            "predictable_pct": pred_pct,
            "paper": { "window_correct_pct": 99.83, "load_accurate_pct": 99.06,
                       "predictable_pct": 96.92 },
        }),
    )?;

    Ok(())
}
