//! `seagull-cli` — drive the Seagull system from the command line.
//!
//! Subcommands:
//!
//! * `simulate`  — generate a synthetic fleet and write extracted weekly
//!   `SGCB` blobs to a directory (the ADLS layout).
//! * `classify`  — classify a fleet and print the Figure-3 breakdown.
//! * `pipeline`  — run the weekly AML pipeline end-to-end and print the
//!   dashboard.
//! * `schedule`  — run the backup scheduler for one week and summarize
//!   decisions.
//! * `forecast`  — fit a deployable model (persistent or SSA) on one
//!   synthetic server and print its predicted lowest-load window. The
//!   Figure 11 bins of `seagull-bench` run the other three models.
//!
//! Run `seagull-cli help` (or any subcommand with `--help`) for flags.

use seagull::backup::{BackupScheduler, FabricPropertyStore, ScheduleDecision, SchedulerConfig};
use seagull::core::classify::{classify_fleet_with, ClassifyConfig, ServerClass};
use seagull::core::metrics::lowest_load_window;
use seagull::core::pipeline::{AmlPipeline, PipelineConfig};
use seagull::core::Dashboard;
use seagull::forecast::{Forecaster, PersistentForecast, PersistentVariant, SsaForecaster};
use seagull::telemetry::blobstore::DiskBlobStore;
use seagull::telemetry::extract::LoadExtraction;
use seagull::telemetry::fleet::{FleetGenerator, FleetSpec};
use seagull::telemetry::server::GeneratedClass;
use seagull::timeseries::Timestamp;
use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::Arc;

/// Minimal `--flag value` parser.
struct Args {
    flags: HashMap<String, String>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut flags = HashMap::new();
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            let Some(name) = a.strip_prefix("--") else {
                return Err(format!(
                    "unexpected argument {a:?} (flags are --name value)"
                ));
            };
            if name == "help" {
                flags.insert("help".to_string(), "true".to_string());
                continue;
            }
            let Some(value) = it.next() else {
                return Err(format!("flag --{name} needs a value"));
            };
            flags.insert(name.to_string(), value.clone());
        }
        Ok(Args { flags })
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value {v:?} for --{name}")),
        }
    }

    fn get_str(&self, name: &str, default: &str) -> String {
        self.flags
            .get(name)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    fn wants_help(&self) -> bool {
        self.flags.contains_key("help")
    }
}

fn usage() -> &'static str {
    "seagull-cli — Seagull load prediction & backup scheduling\n\
     \n\
     USAGE: seagull-cli <command> [--flag value ...]\n\
     \n\
     COMMANDS:\n\
       simulate   --servers N --weeks W --seed S --out DIR\n\
       classify   --servers N --weeks W --seed S\n\
       pipeline   --servers N --weeks W --seed S\n\
       schedule   --servers N --seed S\n\
       forecast   --model persistent|ssa\n\
                  --class stable|daily|weekly|unstable --seed S\n\
       help\n"
}

fn fleet_spec(args: &Args) -> Result<FleetSpec, String> {
    let servers: usize = args.get("servers", 100)?;
    let seed: u64 = args.get("seed", 42)?;
    let mut spec = FleetSpec::small_region(seed);
    spec.regions[0].servers = servers;
    Ok(spec)
}

fn cmd_simulate(args: &Args) -> Result<(), String> {
    let spec = fleet_spec(args)?;
    let weeks: usize = args.get("weeks", 4)?;
    let out = args.get_str("out", "./seagull-data");
    let start = spec.start_day;
    let region = spec.regions[0].name.clone();
    let fleet = FleetGenerator::new(spec).generate_weeks(weeks);
    let store = DiskBlobStore::open(&out).map_err(|e| e.to_string())?;
    let week_days: Vec<i64> = (0..weeks as i64).map(|w| start + 7 * w).collect();
    let keys = LoadExtraction::columnar(5)
        .run(&fleet, &[region], &week_days, &store)
        .map_err(|e| e.to_string())?;
    println!(
        "wrote {} weekly blobs for {} servers under {out}",
        keys.len(),
        fleet.len()
    );
    for k in keys {
        println!("  {k}");
    }
    Ok(())
}

fn cmd_classify(args: &Args) -> Result<(), String> {
    let spec = fleet_spec(args)?;
    let weeks: usize = args.get("weeks", 4)?;
    let as_of = spec.start_day + (weeks * 7) as i64;
    let fleet = FleetGenerator::new(spec).generate_weeks(weeks);
    let report = classify_fleet_with(&fleet, as_of, &ClassifyConfig::default());
    println!("classified {} servers:", report.total());
    for class in [
        ServerClass::ShortLived,
        ServerClass::Stable,
        ServerClass::DailyPattern,
        ServerClass::WeeklyPattern,
        ServerClass::NoPattern,
    ] {
        println!(
            "  {:<15} {:>7.2}%  ({})",
            class.label(),
            report.percentage(class),
            report.count(class)
        );
    }
    Ok(())
}

fn cmd_pipeline(args: &Args) -> Result<(), String> {
    let spec = fleet_spec(args)?;
    let weeks: usize = args.get("weeks", 3)?;
    let start = spec.start_day;
    let region = spec.regions[0].name.clone();
    let fleet = FleetGenerator::new(spec).generate_weeks(weeks);
    let store = Arc::new(seagull::telemetry::blobstore::MemoryBlobStore::new());
    let week_days: Vec<i64> = (0..weeks as i64).map(|w| start + 7 * w).collect();
    LoadExtraction::columnar(5)
        .run(
            &fleet,
            std::slice::from_ref(&region),
            &week_days,
            store.as_ref(),
        )
        .map_err(|e| e.to_string())?;
    let pipeline = AmlPipeline::new(PipelineConfig::production(), store);
    let dashboard = Dashboard::new();
    for report in pipeline.run_schedule(&[region], &week_days) {
        dashboard.record(report);
    }
    print!("{}", dashboard.render(&pipeline.incidents));
    Ok(())
}

fn cmd_schedule(args: &Args) -> Result<(), String> {
    let spec = fleet_spec(args)?;
    let start = spec.start_day;
    let fleet = FleetGenerator::new(spec).generate_weeks(5);
    let scheduler = BackupScheduler::new(SchedulerConfig::default());
    let fabric = FabricPropertyStore::new();
    let model = PersistentForecast::previous_day();
    let scheduled = scheduler.schedule_week(&fleet, start + 28, &model, &fabric);
    let rescheduled = scheduled
        .iter()
        .filter(|b| matches!(b.decision, ScheduleDecision::Rescheduled { .. }))
        .count();
    println!(
        "scheduled {} backups for week starting day {}:",
        scheduled.len(),
        start + 28
    );
    println!("  moved into predicted lowest-load windows: {rescheduled}");
    println!("  kept at default time: {}", scheduled.len() - rescheduled);
    let mut by_reason: HashMap<String, usize> = HashMap::new();
    for b in &scheduled {
        if let ScheduleDecision::DefaultKept { reason } = b.decision {
            *by_reason.entry(format!("{reason:?}")).or_default() += 1;
        }
    }
    for (reason, n) in by_reason {
        println!("    {reason}: {n}");
    }
    Ok(())
}

fn cmd_forecast(args: &Args) -> Result<(), String> {
    let seed: u64 = args.get("seed", 42)?;
    let class = match args.get_str("class", "daily").as_str() {
        "stable" => GeneratedClass::Stable,
        "daily" => GeneratedClass::DailyPattern,
        "weekly" => GeneratedClass::WeeklyPattern,
        "unstable" => GeneratedClass::Unstable,
        other => return Err(format!("unknown class {other:?}")),
    };
    // A one-server fleet of the requested class.
    let mix = seagull::telemetry::fleet::ClassMix {
        short_lived: 0.0,
        stable: if class == GeneratedClass::Stable {
            1.0
        } else {
            0.0
        },
        daily: if class == GeneratedClass::DailyPattern {
            1.0
        } else {
            0.0
        },
        weekly: if class == GeneratedClass::WeeklyPattern {
            1.0
        } else {
            0.0
        },
        unstable: if class == GeneratedClass::Unstable {
            1.0
        } else {
            0.0
        },
    };
    let spec = FleetSpec {
        seed,
        regions: vec![seagull::telemetry::fleet::RegionSpec {
            name: "cli".into(),
            servers: 1,
        }],
        start_day: 17_997,
        grid_min: 5,
        mix,
        capacity_reaching: 0.0,
    };
    let start = spec.start_day;
    let server = FleetGenerator::new(spec).generate_weeks(2).remove(0);

    let model_name = args.get_str("model", "persistent");
    let persistent = PersistentForecast::new(PersistentVariant::PreviousDay);
    let ssa = SsaForecaster::default();
    let model: &dyn Forecaster = match model_name.as_str() {
        "persistent" => &persistent,
        "ssa" => &ssa,
        other => return Err(format!("unknown model {other:?}")),
    };

    let backup_day = start + 8;
    let history = server
        .series
        .slice(
            Timestamp::from_days(backup_day - 7),
            Timestamp::from_days(backup_day),
        )
        .map_err(|e| e.to_string())?;
    let predicted = model
        .fit_predict(&history, history.points_per_day())
        .map_err(|e| e.to_string())?;
    let duration = server.meta.backup.duration_min;
    let window =
        lowest_load_window(&predicted, duration).ok_or("no window fits the predicted day")?;
    println!(
        "model {model_name} on a {} server: predicted LL window for day {backup_day} \
         starts at {} ({duration} min, predicted mean load {:.1}%)",
        class.label(),
        window.start,
        window.mean_load
    );
    if let Some(truth) = server.series.day(backup_day) {
        let eval = seagull::core::metrics::evaluate_low_load(
            &truth,
            &predicted,
            duration,
            &seagull::core::metrics::AccuracyConfig::default(),
        )
        .ok_or("evaluation failed")?;
        println!(
            "against the true load: window correct = {}, in-window bucket ratio = {:.1}%",
            eval.window_correct, eval.window_bucket_ratio
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = argv.first().map(String::as_str) else {
        eprint!("{}", usage());
        return ExitCode::FAILURE;
    };
    let args = match Args::parse(&argv[1..]) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    if args.wants_help() || command == "help" {
        print!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let result = match command {
        "simulate" => cmd_simulate(&args),
        "classify" => cmd_classify(&args),
        "pipeline" => cmd_pipeline(&args),
        "schedule" => cmd_schedule(&args),
        "forecast" => cmd_forecast(&args),
        other => Err(format!("unknown command {other:?}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn flags_parse_into_values() {
        let a = parse(&["--servers", "50", "--seed", "9"]).unwrap();
        assert_eq!(a.get::<usize>("servers", 0).unwrap(), 50);
        assert_eq!(a.get::<u64>("seed", 0).unwrap(), 9);
        assert_eq!(a.get::<usize>("weeks", 4).unwrap(), 4, "default applies");
        assert_eq!(a.get_str("out", "x"), "x");
    }

    #[test]
    fn malformed_flags_rejected() {
        assert!(parse(&["positional"]).is_err());
        assert!(parse(&["--servers"]).is_err(), "missing value");
        let a = parse(&["--servers", "abc"]).unwrap();
        assert!(a.get::<usize>("servers", 0).is_err());
    }

    #[test]
    fn help_flag_detected() {
        let a = parse(&["--help"]).unwrap();
        assert!(a.wants_help());
        assert!(!parse(&[]).unwrap().wants_help());
    }

    #[test]
    fn usage_lists_all_commands() {
        for cmd in ["simulate", "classify", "pipeline", "schedule", "forecast"] {
            assert!(usage().contains(cmd), "{cmd} missing from usage");
        }
    }
}
