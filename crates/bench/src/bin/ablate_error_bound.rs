//! Ablation — does the asymmetric +10/−5 error bound matter?
//!
//! DESIGN.md §5. The paper chose an asymmetric bound "because a slight
//! overestimation of low load periods is less critical ... than a slight
//! underestimation". This ablation sweeps symmetric and asymmetric bounds
//! and reports how the fleet-wide metrics and the predictability gate react.

use seagull_bench::refit::{
    evaluate_fleet_week, predictability_fleet, predictable_pct, summarize, EvaluationConfig,
};
use seagull_bench::{emit_json, fleets, Table};
use seagull_core::metrics::{AccuracyConfig, ErrorBound};
use seagull_core::par::default_threads;
use seagull_forecast::PersistentForecast;
use serde_json::json;

/// A bound as wide over as under.
fn symmetric(width: f64) -> ErrorBound {
    ErrorBound {
        over: width,
        under: width,
    }
}

fn main() -> std::io::Result<()> {
    let (fleet, spec) = fleets::classification_fleet(42);
    let start = spec.start_day;
    let long_lived: Vec<_> = fleet
        .iter()
        .filter(|s| s.meta.is_long_lived(start + 28))
        .cloned()
        .collect();
    let model = PersistentForecast::previous_day();
    let threads = default_threads();

    let bounds = [
        (
            "paper +10/-5",
            ErrorBound {
                over: 10.0,
                under: 5.0,
            },
        ),
        ("symmetric ±5", symmetric(5.0)),
        ("symmetric ±7.5", symmetric(7.5)),
        ("symmetric ±10", symmetric(10.0)),
        (
            "inverted +5/-10",
            ErrorBound {
                over: 5.0,
                under: 10.0,
            },
        ),
    ];

    println!(
        "Ablation: acceptable error bound ({} long-lived servers)\n",
        long_lived.len()
    );
    let mut t = Table::new([
        "bound",
        "LL windows correct %",
        "in-window load accurate %",
        "predictable %",
    ]);
    let mut records = Vec::new();
    for (name, bound) in bounds {
        let cfg = EvaluationConfig {
            accuracy: AccuracyConfig {
                bound,
                ..AccuracyConfig::default()
            },
            ..EvaluationConfig::default()
        };
        let evals = evaluate_fleet_week(&long_lived, start + 21, &model, &cfg, threads);
        let summary = summarize(&evals);
        let preds = predictability_fleet(&long_lived, start + 28, &model, &cfg, threads);
        let ppct = predictable_pct(&preds);
        t.row([
            name.to_string(),
            format!("{:.2}", summary.window_correct_pct),
            format!("{:.2}", summary.load_accurate_pct),
            format!("{ppct:.2}"),
        ]);
        records.push(json!({
            "bound": name, "over": bound.over, "under": bound.under,
            "window_correct_pct": summary.window_correct_pct,
            "load_accurate_pct": summary.load_accurate_pct,
            "predictable_pct": ppct,
        }));
    }
    t.print();
    println!(
        "\nreading: tightening the under-prediction side (the risky direction) \
         gates out more servers; the asymmetric bound trades a small loss of \
         coverage for protection against scheduling into under-predicted load"
    );

    emit_json("ablate_error_bound", &json!({ "rows": records }))?;

    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symmetric_bound_helper() {
        let b = symmetric(5.0);
        assert!(b.contains(25.0, 20.0));
        assert!(b.contains(15.0, 20.0));
        assert!(!b.contains(26.0, 20.0));
    }
}
