//! Figure 11(b)–(d) — Low-load prediction accuracy per model per region,
//! on unstable servers.
//!
//! Paper: NimbusML chooses the most LL windows correctly; persistent
//! forecast, NimbusML, and GluonTS are comparable on in-window accuracy and
//! predictability; Prophet is similar or lower. The surprise the paper
//! deploys on: "the accuracy of ML models is not significantly higher than
//! the accuracy of persistent forecast."

use seagull_bench::refit::{
    evaluate_fleet_week, predictability_fleet, predictable_pct, summarize, EvaluationConfig,
};
use seagull_bench::zoo::additive::FitMethod;
use seagull_bench::zoo::{AdditiveConfig, AdditiveForecaster, FeedForwardForecaster};
use seagull_bench::{emit_json, fleets, scale, Scale, Table};
use seagull_core::par::default_threads;
use seagull_forecast::{Forecaster, PersistentForecast, SsaForecaster};
use serde_json::json;

fn main() -> std::io::Result<()> {
    let per_region = match scale() {
        Scale::Small => 40,
        Scale::Paper => 200,
    };
    let threads = default_threads();
    let cfg = EvaluationConfig::default();

    let persistent = PersistentForecast::previous_day();
    let ssa = SsaForecaster::default();
    let ff = FeedForwardForecaster::default();
    // Exact additive fit: accuracy is the question here, runtime was 11(a).
    let additive = AdditiveForecaster::new(AdditiveConfig {
        fit: FitMethod::Exact,
        ..AdditiveConfig::default()
    });
    let models: Vec<(&str, &dyn Forecaster)> = vec![
        ("PF", &persistent),
        ("N", &ssa),
        ("G", &ff),
        ("P", &additive),
    ];
    let regions = ["region-1", "region-2", "region-3", "region-4"];

    println!(
        "Figure 11(b-d): accuracy per model per region ({per_region} unstable servers/region)\n"
    );
    let mut table = Table::new([
        "region",
        "model",
        "LL windows correct %",
        "in-window load accurate %",
        "predictable servers %",
    ]);
    let mut records = Vec::new();
    for (ri, region) in regions.iter().enumerate() {
        // Four weeks of history so the three-week gate can run.
        let (fleet, start) = fleets::unstable_pool(1000 + ri as u64, per_region, 4);
        for (name, model) in &models {
            let evals = evaluate_fleet_week(&fleet, start + 21, *model, &cfg, threads);
            let summary = summarize(&evals);
            let preds = predictability_fleet(&fleet, start + 28, *model, &cfg, threads);
            let ppct = predictable_pct(&preds);
            table.row([
                region.to_string(),
                name.to_string(),
                format!("{:.1}", summary.window_correct_pct),
                format!("{:.1}", summary.load_accurate_pct),
                format!("{ppct:.1}"),
            ]);
            records.push(json!({
                "region": region, "model": name,
                "window_correct_pct": summary.window_correct_pct,
                "load_accurate_pct": summary.load_accurate_pct,
                "predictable_pct": ppct,
                "evaluated": summary.evaluated,
            }));
            eprintln!("[{region}/{name} done]");
        }
    }
    table.print();
    println!(
        "\npaper: PF/N/G comparable, P similar or lower; ML not significantly \
         better than persistent forecast -> persistent forecast deployed"
    );

    emit_json("fig11bcd_model_accuracy", &json!({ "rows": records }))?;

    Ok(())
}
