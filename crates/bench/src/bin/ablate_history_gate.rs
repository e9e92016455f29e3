//! Ablation — the three-week predictability gate (Definition 9).
//!
//! DESIGN.md §5. The paper: "Three weeks of history is a compromise between
//! prediction confidence and relevance of this rule to the majority of
//! servers (58 % of servers survive beyond three weeks)." This ablation
//! sweeps the gate length and reports (a) how many servers pass and (b) how
//! often servers that pass then get a wrong window — the confidence/coverage
//! trade-off.

use seagull_bench::refit::{evaluate_backup_day, predictability_fleet, EvaluationConfig};
use seagull_bench::{emit_json, fleets, Table};
use seagull_core::par::default_threads;
use seagull_forecast::PersistentForecast;
use serde_json::json;

fn main() -> std::io::Result<()> {
    let (_, spec) = fleets::classification_fleet(42);
    // Five-week window: gates up to 4 weeks fit before the final week.
    let fleet: Vec<_> = {
        use seagull_telemetry::fleet::FleetGenerator;
        let spec5 = spec.clone();
        FleetGenerator::new(spec5).generate_weeks(5)
    };
    let start = spec.start_day;
    let model = PersistentForecast::previous_day();
    let threads = default_threads();
    let final_week = start + 28;

    println!("Ablation: predictability-gate length (Definition 9)\n");
    let mut t = Table::new([
        "gate weeks",
        "servers passing gate %",
        "wrong window after passing %",
        "inaccurate load after passing %",
    ]);
    let mut records = Vec::new();
    for weeks in 1..=4usize {
        let cfg = EvaluationConfig {
            predictability_weeks: weeks,
            ..EvaluationConfig::default()
        };
        let verdicts = predictability_fleet(&fleet, final_week, &model, &cfg, threads);
        let passing: Vec<u64> = verdicts
            .iter()
            .filter(|v| v.predictable)
            .map(|v| v.server_id)
            .collect();
        let pass_pct = 100.0 * passing.len() as f64 / fleet.len() as f64;

        // Outcome in the held-out final week for servers that passed.
        let mut wrong_window = 0usize;
        let mut inaccurate = 0usize;
        let mut evaluated = 0usize;
        for server in fleet.iter().filter(|s| passing.contains(&s.meta.id.0)) {
            let day = server.meta.backup.day_in_week(final_week);
            if let Some(e) = evaluate_backup_day(server, day, &model, &cfg) {
                evaluated += 1;
                if !e.window_correct {
                    wrong_window += 1;
                }
                if !e.load_accurate {
                    inaccurate += 1;
                }
            }
        }
        let pct = |n: usize| {
            if evaluated == 0 {
                0.0
            } else {
                100.0 * n as f64 / evaluated as f64
            }
        };
        t.row([
            weeks.to_string(),
            format!("{pass_pct:.2}"),
            format!("{:.2}", pct(wrong_window)),
            format!("{:.2}", pct(inaccurate)),
        ]);
        records.push(json!({
            "gate_weeks": weeks,
            "pass_pct": pass_pct,
            "wrong_window_pct": pct(wrong_window),
            "inaccurate_pct": pct(inaccurate),
            "evaluated": evaluated,
        }));
        eprintln!("[gate {weeks}w done]");
    }
    t.print();
    println!(
        "\nreading: longer gates admit fewer servers but the admitted ones \
         misfire less — three weeks sits where extra weeks stop buying \
         meaningful error reduction (the paper's compromise)"
    );

    emit_json("ablate_history_gate", &json!({ "rows": records }))?;

    Ok(())
}
