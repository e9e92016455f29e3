//! Figure 13(a) — Backup-scheduling impact.
//!
//! Paper, over one month of production: for daily-pattern predictable
//! servers, 12.5 % of backups moved into correctly chosen LL windows, 85.3 %
//! of default windows already were the LL window, 2.1 % of LL windows were
//! chosen incorrectly; stable servers: 99.5 % of defaults already optimal;
//! for busy servers (load > 60 %), 7.7 % of collisions with peaks are now
//! avoided — several hundred hours of improved customer experience.
//!
//! Two populations are scheduled: the production Figure-3 mix (overall
//! rates) and a pattern-enriched fleet (per-class rates — the paper's daily/
//! weekly classes are only ~0.3 % of the fleet, far too sparse for per-class
//! percentages at reproduction scale).

use seagull_backup::impact::ImpactCounts;
use seagull_backup::{
    analyze_impact, serve_weeks, BackupScheduler, FabricPropertyStore, SchedulerConfig,
};
use seagull_bench::{emit_json, scale, Table};
use seagull_core::metrics::ErrorBound;
use seagull_telemetry::fleet::{ClassMix, FleetGenerator, FleetSpec, RegionSpec, ServerTelemetry};
use seagull_telemetry::server::GeneratedClass;
use serde_json::json;

/// The production path over five weeks of `spec`'s fleet: four weekly
/// pipeline runs per region deploy into the serving layer, and the fifth
/// week's backups are scheduled from the fourth week's snapshots. Week 5 is
/// the first a server can be moved in: its gate needs three scored weeks.
fn schedule(spec: FleetSpec) -> (Vec<ServerTelemetry>, Vec<seagull_backup::ScheduledBackup>) {
    let start = spec.start_day;
    let regions: Vec<String> = spec.regions.iter().map(|r| r.name.clone()).collect();
    let generator = FleetGenerator::new(spec);
    let by_region: Vec<_> = (0..regions.len())
        .map(|r| generator.generate_region(r, 5))
        .collect();
    let fleet = by_region.concat();
    let weeks: Vec<i64> = (0..4).map(|w| start + 7 * w).collect();
    let (serve, ..) = serve_weeks(&fleet, &regions, &weeks);
    let scheduler = BackupScheduler::new(SchedulerConfig::default());
    let fabric = FabricPropertyStore::new();
    let scheduled = regions
        .iter()
        .zip(&by_region)
        .flat_map(|(region, servers)| {
            scheduler.schedule_week_served(servers, start + 28, &serve, region, &fabric)
        })
        .collect();
    (fleet, scheduled)
}

fn main() -> std::io::Result<()> {
    let factor = scale().factor();

    // Population 1: the production mix.
    let (fleet, scheduled) = schedule(FleetSpec::four_regions(42, 40 * factor));
    let report = analyze_impact(&fleet, &scheduled, &ErrorBound::default(), 60.0);

    // Population 2: pattern-enriched, for per-class rates.
    let enriched_spec = FleetSpec {
        seed: 43,
        regions: vec![RegionSpec {
            name: "enriched".into(),
            servers: 1200 * factor,
        }],
        start_day: 17_997,
        grid_min: 5,
        mix: ClassMix {
            short_lived: 0.0,
            stable: 0.40,
            daily: 0.25,
            weekly: 0.15,
            unstable: 0.20,
        },
        capacity_reaching: 0.037,
    };
    let (efleet, escheduled) = schedule(enriched_spec);
    let ereport = analyze_impact(&efleet, &escheduled, &ErrorBound::default(), 60.0);

    println!(
        "Figure 13(a): impact over {} scheduled backups (production mix)\n",
        report.overall.total
    );
    let mut t = Table::new([
        "population",
        "moved to LL %",
        "default already LL %",
        "incorrect %",
        "kept default %",
        "n",
    ]);
    let add = |t: &mut Table, label: &str, c: ImpactCounts| {
        t.row([
            label.to_string(),
            format!("{:.1}", c.moved_pct()),
            format!("{:.1}", c.already_optimal_pct()),
            format!("{:.1}", c.incorrect_pct()),
            format!("{:.1}", c.kept_default_pct()),
            c.total.to_string(),
        ]);
    };
    add(&mut t, "all servers (Fig.3 mix)", report.overall);
    add(
        &mut t,
        "stable (Fig.3 mix)",
        report.class_counts(GeneratedClass::Stable),
    );
    t.print();

    println!("\nper-class rates (pattern-enriched fleet):\n");
    let mut t2 = Table::new([
        "class",
        "moved to LL %",
        "default already LL %",
        "incorrect %",
        "kept default %",
        "n",
    ]);
    for class in [
        GeneratedClass::Stable,
        GeneratedClass::DailyPattern,
        GeneratedClass::WeeklyPattern,
        GeneratedClass::Unstable,
    ] {
        add(&mut t2, class.label(), ereport.class_counts(class));
    }
    t2.print();

    println!(
        "\nbusy servers (>60% load, production mix): {} collisions with peaks, \
         {} avoided ({:.1}%) [paper: 7.7%]",
        report.busy_collisions,
        report.busy_collisions_avoided,
        report.busy_avoided_pct()
    );
    println!(
        "busy servers (enriched): {} collisions, {} avoided ({:.1}%)",
        ereport.busy_collisions,
        ereport.busy_collisions_avoided,
        ereport.busy_avoided_pct()
    );
    println!(
        "hours of improved customer experience this week: {:.1} h (production mix), \
         {:.1} h (enriched) [paper: several hundred per month across all regions]",
        report.hours_improved, ereport.hours_improved
    );
    println!(
        "\npaper reference (daily-pattern predictable): moved 12.5%, already-LL 85.3%, \
         incorrect 2.1%; stable: 99.5% already-LL"
    );

    emit_json(
        "fig13a_impact",
        &json!({
            "production_mix": {
                "overall": report.overall,
                "stable": report.class_counts(GeneratedClass::Stable),
                "busy_collisions": report.busy_collisions,
                "busy_avoided_pct": report.busy_avoided_pct(),
                "hours_improved": report.hours_improved,
            },
            "enriched": {
                "by_class": ereport.by_class.iter()
                    .map(|(c, n)| (c.label(), n)).collect::<Vec<_>>(),
                "busy_collisions": ereport.busy_collisions,
                "busy_avoided_pct": ereport.busy_avoided_pct(),
                "hours_improved": ereport.hours_improved,
            },
            "paper": { "daily_moved": 12.5, "daily_already": 85.3, "daily_incorrect": 2.1,
                       "stable_already": 99.5, "busy_avoided": 7.7 },
        }),
    )?;

    Ok(())
}
