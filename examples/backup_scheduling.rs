//! End-to-end backup scheduling: telemetry → load extraction → AML pipeline
//! → serving layer → backup scheduler → runner service → impact analysis.
//!
//! This is the paper's production deployment in miniature (Sections 2, 2.3,
//! 6.2). Run with `cargo run --release --example backup_scheduling`.

use seagull::backup::{
    analyze_impact, serve_weeks, BackupScheduler, FabricPropertyStore, RunnerService,
    SchedulerConfig,
};
use seagull::core::metrics::ErrorBound;
use seagull::telemetry::fleet::{FleetGenerator, FleetSpec};

fn main() {
    // --- Telemetry: five weeks for one region -----------------------------
    let mut spec = FleetSpec::small_region(11);
    spec.regions[0].servers = 200;
    let region = spec.regions[0].name.clone();
    let start = spec.start_day;
    let fleet = FleetGenerator::new(spec).generate_weeks(5);
    println!("fleet: {} servers in {region}", fleet.len());

    // --- Load extraction and the weekly AML pipeline -----------------------
    // Four weeks of load into the blob store, each week's run deploying into
    // the serving layer; the fifth week is the one scheduled.
    let weeks: Vec<i64> = (0..4).map(|w| start + 7 * w).collect();
    let (serve, pipeline, reports) = serve_weeks(&fleet, std::slice::from_ref(&region), &weeks);
    for r in &reports {
        println!(
            "pipeline week {}: {} servers, {} predictions, {} evaluations{}",
            r.week_start_day,
            r.servers,
            r.predictions_written,
            r.evaluations,
            r.accuracy
                .map(|a| format!(
                    " (LL correct {:.1}%, accurate {:.1}%)",
                    a.window_correct_pct, a.load_accurate_pct
                ))
                .unwrap_or_default()
        );
    }
    println!(
        "deployed model: {:?} v{}",
        pipeline.config.forecaster.name(),
        pipeline
            .registry
            .deployed(&region)
            .map(|v| v.version)
            .unwrap_or(0)
    );

    // --- The runner service schedules the next week's backups --------------
    // From the last deployed snapshot: a server moves only once three
    // scored weeks in a row passed (Definition 9).
    let runner = RunnerService::new(
        BackupScheduler::new(SchedulerConfig::default()),
        4, // clusters
    );
    let fabric = FabricPropertyStore::new();
    let mut all_backups = Vec::new();
    for offset in 0..7 {
        let report = runner.run_day(&fleet, start + 28 + offset, &serve, &region, &fabric);
        println!(
            "runner day {}: {} due, availability {:.1}%",
            report.day,
            report.backups.len(),
            report.availability() * 100.0
        );
        all_backups.extend(report.backups);
    }

    // --- Impact (Figure 13(a)) ----------------------------------------------
    let impact = analyze_impact(&fleet, &all_backups, &ErrorBound::default(), 60.0);
    println!(
        "\nimpact: {} backups | moved {:.1}% | already-optimal {:.1}% | \
         incorrect {:.1}% | kept default {:.1}% | {:.1} hours improved",
        impact.overall.total,
        impact.overall.moved_pct(),
        impact.overall.already_optimal_pct(),
        impact.overall.incorrect_pct(),
        impact.overall.kept_default_pct(),
        impact.hours_improved,
    );
}
