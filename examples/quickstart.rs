//! Quickstart: generate a fleet, classify it, run the weekly pipeline into
//! the serving layer, and read one server's next backup window from it.
//!
//! Run with `cargo run --release --example quickstart`.

use seagull::backup::{serve_weeks, served_backup_day};
use seagull::core::classify::{classify_fleet, ServerClass};
use seagull::core::pipeline::GateState;
use seagull::telemetry::fleet::{FleetGenerator, FleetSpec};

fn main() {
    // 1. A month of 5-minute telemetry for a small region. Everything is
    //    seeded: rerunning reproduces the same fleet bit-for-bit.
    let spec = FleetSpec::small_region(7);
    let region = spec.regions[0].name.clone();
    let start = spec.start_day;
    let fleet = FleetGenerator::new(spec).generate_weeks(4);
    println!("generated {} servers over 4 weeks", fleet.len());

    // 2. Classify the fleet per the paper's Definitions 3-6 (Figure 3).
    let report = classify_fleet(&fleet, start + 28);
    println!("\nclassification:");
    for class in [
        ServerClass::ShortLived,
        ServerClass::Stable,
        ServerClass::DailyPattern,
        ServerClass::WeeklyPattern,
        ServerClass::NoPattern,
    ] {
        println!("  {:<14} {:>6.2}%", class.label(), report.percentage(class));
    }

    // 3. Four weekly pipeline runs with the production model (persistent
    //    forecast, previous day): each scores the last week's predictions
    //    and deploys this week's into the serving layer.
    let weeks: Vec<i64> = (0..4).map(|w| start + 7 * w).collect();
    let (serve, pipeline, _) = serve_weeks(&fleet, std::slice::from_ref(&region), &weeks);

    // 4. A server that lived through the month, on its backup day next
    //    week: the gate the pipeline moved on from its own scores
    //    (Definition 9), the served lowest-load window, and the pipeline's
    //    own score of the server's last backup day (Definitions 2 and 8).
    let server = fleet
        .iter()
        .find(|s| s.meta.alive_on(start) && s.meta.deleted_day.is_none())
        .expect("a long-lived server exists");
    let (backup_day, served, last) =
        served_backup_day(&serve, &pipeline, &region, server, start + 28);
    let (gate, window) = served.expect("the server is served");
    let window = window.expect("a window fits the predicted day");
    println!(
        "\nserver {}: predicted lowest-load window on day {backup_day} starts at {} \
         ({} min, predicted mean load {:.1}%); gate {}",
        server.meta.id,
        window.start,
        window.duration_min,
        window.mean_load,
        if gate == GateState::OPEN {
            "open: the scheduler moves the backup there"
        } else {
            "closed: the backup keeps its default time"
        }
    );
    let last = last.expect("the server's backup days were scored");
    println!(
        "day {}: window chosen correctly: {} | in-window load accurate: {} \
         (bucket ratio {:.1}%)",
        last.day, last.window_correct, last.load_accurate, last.window_bucket_ratio
    );
}
