//! Ablation — which persistent-forecast variant?
//!
//! DESIGN.md §5. Section 5.2 argues previous-day covers the largest server
//! subset (53.7 %) vs previous-equivalent-day (53.6 %) vs week-average
//! (53.5 %). This ablation evaluates all three variants per ground-truth
//! class so the coverage argument is visible in the metrics.

use seagull_bench::refit::{evaluate_fleet_week, summarize, EvaluationConfig};
use seagull_bench::{emit_json, fleets, Table};
use seagull_core::par::default_threads;
use seagull_forecast::{PersistentForecast, PersistentVariant};
use seagull_telemetry::server::GeneratedClass;
use serde_json::json;

fn main() -> std::io::Result<()> {
    let (fleet, spec) = fleets::classification_fleet(42);
    let start = spec.start_day;
    let cfg = EvaluationConfig {
        // The equivalent-day variant needs a full week of history.
        train_days: 8,
        ..EvaluationConfig::default()
    };
    let threads = default_threads();

    let classes = [
        GeneratedClass::Stable,
        GeneratedClass::DailyPattern,
        GeneratedClass::WeeklyPattern,
        GeneratedClass::Unstable,
    ];

    println!("Ablation: persistent-forecast variant per server class\n");
    let mut t = Table::new([
        "class",
        "variant",
        "LL windows correct %",
        "in-window load accurate %",
        "n",
    ]);
    let mut records = Vec::new();
    for class in classes {
        let pool: Vec<_> = fleet
            .iter()
            .filter(|s| s.meta.class == class && s.meta.deleted_day.is_none())
            .cloned()
            .collect();
        if pool.is_empty() {
            continue;
        }
        for variant in PersistentVariant::ALL {
            let model = PersistentForecast::new(variant);
            let evals = evaluate_fleet_week(&pool, start + 21, &model, &cfg, threads);
            let summary = summarize(&evals);
            t.row([
                class.label().to_string(),
                format!("{variant:?}"),
                format!("{:.1}", summary.window_correct_pct),
                format!("{:.1}", summary.load_accurate_pct),
                summary.evaluated.to_string(),
            ]);
            records.push(json!({
                "class": class.label(), "variant": format!("{variant:?}"),
                "window_correct_pct": summary.window_correct_pct,
                "load_accurate_pct": summary.load_accurate_pct,
                "evaluated": summary.evaluated,
            }));
        }
    }
    t.print();
    println!(
        "\nreading: week-average only handles stable load; equivalent-day adds \
         weekly patterns; previous-day adds daily patterns on top — the \
         paper's reason for deploying previous-day"
    );

    emit_json("ablate_pf_variant", &json!({ "rows": records }))?;

    Ok(())
}
