//! Figure 3 — Classification of servers.
//!
//! Paper: of a random sample of servers from four regions over one month,
//! 42.1 % are short-lived; of the long-lived 58 %, 53.5 % (of all servers)
//! are stable, ~0.2 % follow a daily or weekly pattern, and 4.2 % follow no
//! pattern.

use seagull_bench::{emit_json, fleets, Table};
use seagull_core::classify::{classify_fleet, ServerClass};
use serde_json::json;

fn main() -> std::io::Result<()> {
    let (fleet, spec) = fleets::classification_fleet(42);
    let as_of = spec.start_day + 28;
    let report = classify_fleet(&fleet, as_of);
    let long_lived_pct = 100.0 - report.percentage(ServerClass::ShortLived);

    println!(
        "Figure 3: classification of {} servers (4 regions, 1 month)\n",
        report.total()
    );
    let classes = [
        (ServerClass::ShortLived, 42.1),
        (ServerClass::Stable, 53.5),
        (ServerClass::DailyPattern, 0.2),
        (ServerClass::WeeklyPattern, 0.1),
        (ServerClass::NoPattern, 4.2),
    ];
    let mut table = Table::new(["class", "measured %", "paper %"]);
    for (class, paper) in classes {
        table.row([
            class.label().to_string(),
            format!("{:.2}", report.percentage(class)),
            format!("{paper:.1}"),
        ]);
    }
    table.row([
        "long-lived (total)".to_string(),
        format!("{long_lived_pct:.2}"),
        "58.0".to_string(),
    ]);
    table.print();

    emit_json(
        "fig03_classification",
        &json!({
            "servers": report.total(),
            "measured": classes
                .iter()
                .map(|(c, _)| (c.label(), report.percentage(*c)))
                .collect::<Vec<_>>(),
            "long_lived_pct": long_lived_pct,
            "paper": {
                "short_lived": 42.1, "stable": 53.5,
                "daily_or_weekly": 0.3, "no_pattern": 4.2, "long_lived": 58.0
            },
        }),
    )?;

    Ok(())
}
