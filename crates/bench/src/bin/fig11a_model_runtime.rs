//! Figure 11(a) — Training and inference runtime per model as the number of
//! (unstable) servers grows.
//!
//! Paper: persistent forecast needs no training; NimbusML (SSA) and GluonTS
//! (feed-forward) scale roughly linearly; Prophet (additive) is orders of
//! magnitude slower; ARIMA's six-parameter search is so expensive it is
//! excluded from the comparison beyond a token sample. Absolute times differ
//! from the paper's testbed; the *ordering* and the linear scaling are the
//! reproduction targets.

use seagull_bench::zoo::{AdditiveForecaster, ArimaConfig, ArimaForecaster, FeedForwardForecaster};
use seagull_bench::{emit_json, fleets, scale, Scale, Table};
use seagull_forecast::{Forecaster, PersistentForecast, SsaForecaster};
use seagull_timeseries::Timestamp;
use serde_json::json;
use std::time::{Duration, Instant};

struct Sweep {
    model: String,
    servers: usize,
    train: Duration,
    infer: Duration,
}

fn main() -> std::io::Result<()> {
    let counts: &[usize] = match scale() {
        Scale::Small => &[10, 50, 100, 200],
        Scale::Paper => &[10, 50, 100, 200, 400, 700],
    };
    let max = *counts.last().unwrap();
    // One week of history + the target day, all unstable servers.
    let (fleet, start) = fleets::unstable_pool(7, max, 2);
    let target_day = start + 8;
    let day_start = Timestamp::from_days(target_day);
    let hist_start = Timestamp::from_days(target_day - 7);

    let persistent = PersistentForecast::previous_day();
    let ssa = SsaForecaster::default();
    let ff = FeedForwardForecaster::default();
    let additive = AdditiveForecaster::default();
    let arima = ArimaForecaster::new(ArimaConfig::default());
    let models: Vec<(&str, &dyn Forecaster)> = vec![
        ("persistent", &persistent),
        ("nimbus-ssa", &ssa),
        ("gluon-ff", &ff),
        ("prophet-additive", &additive),
        ("arima", &arima),
    ];

    let mut rows: Vec<Sweep> = Vec::new();
    for (name, model) in &models {
        for &n in counts {
            // ARIMA's grid search is intractable at scale — as in the paper,
            // sample it once at the smallest count and extrapolate by
            // exclusion.
            if *name == "arima" && n > counts[0] {
                continue;
            }
            let mut train = Duration::ZERO;
            let mut infer = Duration::ZERO;
            for server in &fleet[..n] {
                let Ok(history) = server.series.slice(hist_start, day_start) else {
                    continue;
                };
                let t = Instant::now();
                let Ok(fitted) = model.fit(&history) else {
                    continue;
                };
                train += t.elapsed();
                let t = Instant::now();
                let _ = fitted.predict(history.points_per_day());
                infer += t.elapsed();
            }
            rows.push(Sweep {
                model: name.to_string(),
                servers: n,
                train,
                infer,
            });
            eprintln!(
                "[{name} x{n}: train {:.2}s infer {:.2}s]",
                train.as_secs_f64(),
                infer.as_secs_f64()
            );
        }
    }

    println!("Figure 11(a): training and inference runtime (unstable servers)\n");
    let mut t = Table::new(["model", "servers", "train (s)", "infer (s)", "total (s)"]);
    for r in &rows {
        t.row([
            r.model.clone(),
            r.servers.to_string(),
            format!("{:.3}", r.train.as_secs_f64()),
            format!("{:.3}", r.infer.as_secs_f64()),
            format!("{:.3}", (r.train + r.infer).as_secs_f64()),
        ]);
    }
    t.print();

    // The paper's qualitative findings, checked on the largest common count.
    let total = |m: &str, n: usize| {
        rows.iter()
            .find(|r| r.model == m && r.servers == n)
            .map(|r| (r.train + r.infer).as_secs_f64())
            .unwrap_or(f64::NAN)
    };
    let n = *counts.last().unwrap();
    println!("\nordering at {n} servers (paper: persistent < ssa/ff << prophet; arima excluded):");
    println!(
        "  persistent {:.3}s | ssa {:.3}s | ff {:.3}s | additive {:.3}s",
        total("persistent", n),
        total("nimbus-ssa", n),
        total("gluon-ff", n),
        total("prophet-additive", n)
    );
    let arima_small = total("arima", counts[0]);
    println!(
        "  arima at {} servers already costs {arima_small:.3}s (per-server {:.3}s)",
        counts[0],
        arima_small / counts[0] as f64
    );

    emit_json(
        "fig11a_model_runtime",
        &json!({
            "rows": rows.iter().map(|r| json!({
                "model": r.model, "servers": r.servers,
                "train_s": r.train.as_secs_f64(), "infer_s": r.infer.as_secs_f64(),
            })).collect::<Vec<_>>(),
        }),
    )?;

    Ok(())
}
