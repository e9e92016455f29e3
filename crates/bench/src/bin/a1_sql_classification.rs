//! Appendix A.1 — Classification of SQL databases.
//!
//! Paper: "We analyzed a random sample of several thousands of single
//! standard and premium SQL databases during one month in 2019 and concluded
//! that 19.36 % of them are stable" (Definition 10).

use seagull_bench::autoscale::{classify_sql_fleet, sql_fleet_spec, StableDbConfig};
use seagull_bench::{emit_json, scale, Scale, Table};
use seagull_telemetry::fleet::FleetGenerator;
use serde_json::json;

fn main() -> std::io::Result<()> {
    let databases = match scale() {
        Scale::Small => 2000,
        Scale::Paper => 8000,
    };
    let spec = sql_fleet_spec(77, databases);
    let fleet = FleetGenerator::new(spec).generate_weeks(4);
    let report = classify_sql_fleet(&fleet, &StableDbConfig::default());

    println!("Appendix A.1: SQL database classification (Definition 10)\n");
    let mut t = Table::new(["class", "measured %", "paper %"]);
    t.row([
        "stable".to_string(),
        format!("{:.2}", report.stable_pct()),
        "19.36".to_string(),
    ]);
    t.row([
        "unstable".to_string(),
        format!("{:.2}", 100.0 - report.stable_pct()),
        "80.64".to_string(),
    ]);
    t.print();
    println!("\ndatabases analyzed: {}", report.databases);

    emit_json(
        "a1_sql_classification",
        &json!({
            "databases": report.databases,
            "stable_pct": report.stable_pct(),
            "paper": { "stable_pct": 19.36 },
        }),
    )?;

    Ok(())
}
