//! Crash → restart → recover integration tests (DESIGN.md §12).
//!
//! Each scenario runs the full stack — extraction, fleet pipeline, durable
//! deploy sink, checkpointed fleet runner — kills the "process" at an
//! injected crash point (a stage boundary or a blob-store op), then restarts
//! over the surviving blob store: journal replay republishes last-known-good
//! snapshots, checkpoints skip completed region-weeks, and the remaining
//! work re-runs. The recovered system must answer serving queries and emit
//! backup schedules **byte-identical** to an uninterrupted run.

use seagull::backup::{BackupScheduler, FabricPropertyStore, SchedulerConfig};
use seagull::core::fleet::FleetRunner;
use seagull::core::pipeline::{AmlPipeline, DeploySink, PipelineConfig};
use seagull::core::resilience::StageChaos;
use seagull::serve::{snapshot_key, DurableServeSink, RecoveryReport, ServeService};
use seagull::telemetry::blobstore::{BlobStore, MemoryBlobStore};
use seagull::telemetry::chaos::{ChaosBlobStore, ChaosConfig, CrashPoint, DetRng, InjectedCrash};
use seagull::telemetry::extract::LoadExtraction;
use seagull::telemetry::fleet::{FleetGenerator, FleetSpec, ServerTelemetry};
use seagull::telemetry::frame::checksum64;
use std::fmt::Write as _;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// The fixed scenario fleet: four (small) regions, two weeks.
struct Env {
    fleet: Vec<ServerTelemetry>,
    regions: Vec<String>,
    weeks: Vec<i64>,
}

fn build_env() -> Env {
    let spec = FleetSpec::four_regions(11, 2);
    let start = spec.start_day;
    let regions: Vec<String> = spec.regions.iter().map(|r| r.name.clone()).collect();
    let fleet = FleetGenerator::new(spec).generate_weeks(2);
    let weeks: Vec<i64> = (0..2).map(|w| start + 7 * w).collect();
    Env {
        fleet,
        regions,
        weeks,
    }
}

/// Deterministic pipeline configuration: byte-identical recovery is defined
/// against a single-threaded production run. Persisted snapshots carry no
/// fitted models, and the production forecast attaches none (it never
/// consults the warm cache), so a recovered process serves what the
/// uninterrupted one does — see `seagull::serve::persist`.
fn config() -> PipelineConfig {
    PipelineConfig {
        threads: 1,
        ..PipelineConfig::production()
    }
}

/// Where to kill the simulated process.
enum Crash {
    None,
    /// Die at the entry of `stage` for `region` at week `tick`.
    Stage(&'static str, String, i64),
    /// Die at a blob-store op (see [`CrashPoint`]).
    Blob(CrashPoint),
}

/// Digest of everything the outside world can observe from serving: every
/// region's served predictions plus a full week of served backup schedules.
/// Registry versions and snapshot epochs are deliberately excluded — they
/// count deploy *attempts*, which legitimately differ after a restart; the
/// contract is that the *served bytes* do not.
fn digest(env: &Env, serve: &ServeService) -> u64 {
    let mut acc = String::new();
    let final_week = *env.weeks.last().unwrap();
    serve.set_clock_day(final_week + 7);
    let scheduler = BackupScheduler::new(SchedulerConfig::default());
    let fabric = FabricPropertyStore::new();
    for region in &env.regions {
        match serve.snapshot(region) {
            Some(snap) => {
                for id in snap.server_ids() {
                    let sv = snap.server(id).unwrap();
                    let _ = write!(
                        acc,
                        "{region}/{id}@{}+{}m:{:?};",
                        sv.materialized_day(),
                        sv.duration_min(),
                        sv.prediction().values(),
                    );
                }
            }
            None => {
                let _ = write!(acc, "{region}/none;");
            }
        }
        for offset in 0..7 {
            for b in scheduler.schedule_day_served(
                &env.fleet,
                final_week + 7 + offset,
                serve,
                region,
                &fabric,
            ) {
                let _ = write!(
                    acc,
                    "B{region}/{}@{}:{}+{}:{:?};",
                    b.server_id,
                    b.backup_day,
                    b.start.minutes(),
                    b.duration_min,
                    b.decision,
                );
            }
        }
    }
    checksum64(acc.as_bytes())
}

struct RunOutcome {
    digest: u64,
    crashed: bool,
    recovery: Option<RecoveryReport>,
    /// The serving handle answering queries at the end of the run (the
    /// restarted one when a crash fired).
    serve: ServeService,
}

/// Runs the schedule end to end with an optional injected crash; on a crash,
/// restarts over the surviving store and recovers.
fn run(env: &Env, crash: Crash) -> RunOutcome {
    // The "disk": survives the crash. Extraction happens before the process
    // under test starts, so it is written directly.
    let disk = Arc::new(MemoryBlobStore::new());
    LoadExtraction::columnar(5)
        .run(&env.fleet, &env.regions, &env.weeks, disk.as_ref())
        .unwrap();

    let chaos = Arc::new(ChaosBlobStore::new(
        Arc::clone(&disk) as Arc<dyn BlobStore>,
        ChaosConfig::default(),
    ));
    let stage_chaos = match &crash {
        Crash::Stage(stage, region, tick) => {
            let (s, r, t) = (*stage, region.clone(), *tick);
            StageChaos::kill_at(move |stage, region, tick| stage == s && region == r && tick == t)
        }
        _ => StageChaos::none(),
    };
    if let Crash::Blob(point) = crash {
        chaos.arm_crash(point);
    }

    let serve = ServeService::with_defaults();
    let sink = Arc::new(DurableServeSink::new(
        serve.clone(),
        Arc::clone(&chaos) as Arc<dyn BlobStore>,
    ));
    let pipeline = AmlPipeline::new(config(), Arc::clone(&chaos) as Arc<dyn BlobStore>)
        .with_chaos(stage_chaos)
        .with_deploy_sink(Arc::clone(&sink) as Arc<dyn DeploySink>);
    let runner = FleetRunner::new(pipeline, env.regions.clone())
        .with_checkpoints(Arc::clone(&chaos) as Arc<dyn BlobStore>);

    match catch_unwind(AssertUnwindSafe(|| runner.run_schedule(&env.weeks))) {
        Ok(_) => RunOutcome {
            digest: digest(env, &serve),
            crashed: false,
            recovery: None,
            serve,
        },
        Err(payload) => {
            // Only the injected crash may panic; anything else is a bug.
            let crash = match payload.downcast::<InjectedCrash>() {
                Ok(crash) => crash,
                Err(other) => resume_unwind(other),
            };
            assert!(!crash.context.is_empty());
            // "Restart": fresh process state, same disk. The dead chaos
            // wrapper is discarded with the dead process.
            let serve2 = ServeService::with_defaults();
            let (sink2, report) =
                DurableServeSink::recover(serve2.clone(), Arc::clone(&disk) as Arc<dyn BlobStore>)
                    .unwrap();
            let pipeline2 = AmlPipeline::new(config(), Arc::clone(&disk) as Arc<dyn BlobStore>)
                .with_deploy_sink(Arc::new(sink2) as Arc<dyn DeploySink>);
            let runner2 = FleetRunner::new(pipeline2, env.regions.clone())
                .with_checkpoints(Arc::clone(&disk) as Arc<dyn BlobStore>);
            runner2.run_schedule(&env.weeks);
            RunOutcome {
                digest: digest(env, &serve2),
                crashed: true,
                recovery: Some(report),
                serve: serve2,
            }
        }
    }
}

const STAGES: [&str; 6] = [
    "ingestion",
    "validation",
    "features",
    "train-infer",
    "accuracy-eval",
    "deployment",
];

/// The recovered (or, for a kill point past the op stream, uninterrupted)
/// run serves what the baseline serves, and no journaled region was lost.
fn assert_recovers_to(baseline: &RunOutcome, out: &RunOutcome, what: &str) {
    assert_eq!(
        out.digest, baseline.digest,
        "recovered run diverged from the uninterrupted baseline after {what}"
    );
    if let Some(report) = &out.recovery {
        assert!(
            report.regions_unrecovered.is_empty(),
            "journaled regions must recover after {what}: {report:?}"
        );
    }
}

#[test]
fn stage_crashes_recover_byte_identical_serving_and_schedules() {
    let env = build_env();
    let baseline = run(&env, Crash::None);
    assert!(!baseline.crashed);

    // The earliest possible death (before any deploy is journaled), then a
    // death at every stage of every region in the final week, when the
    // journal holds the first week's deploys and part of the second's.
    let earliest = ("ingestion", env.regions[0].clone(), env.weeks[0]);
    let final_week = STAGES.iter().flat_map(|&stage| {
        let week = env.weeks[1];
        env.regions.iter().map(move |r| (stage, r.clone(), week))
    });
    for (stage, region, week) in std::iter::once(earliest).chain(final_week) {
        let what = format!("dying at {stage}/{region}@{week}");
        let out = run(&env, Crash::Stage(stage, region, week));
        assert!(out.crashed, "kill point must fire: {what}");
        assert_recovers_to(&baseline, &out, &what);
    }
}

#[test]
fn deploy_boundary_blob_crashes_recover_byte_identical() {
    let env = build_env();
    let baseline = run(&env, Crash::None);

    // The nth journal / snapshot / checkpoint write, torn at 0, mid-write
    // and just after completion.
    let points = [
        ("journal", 1, 0.0),
        ("journal", 2, 0.5),
        ("journal", 4, 1.0),
        ("snapshot", 1, 0.0),
        ("snapshot", 3, 0.33),
        ("snapshot", 5, 1.0),
        // Checkpoint ops 1-4 are the week's existence probes (gets); the
        // marker writes follow. nth 5 tears the first week-one marker,
        // nth 14 tears a week-two marker mid-write.
        ("checkpoint", 5, 0.5),
        ("checkpoint", 14, 0.9),
    ];
    for (fragment, nth, torn) in points {
        let what = format!("blob crash {fragment}#{nth} torn at {torn}");
        let out = run(&env, Crash::Blob(CrashPoint::on_key(fragment, nth, torn)));
        assert!(out.crashed, "kill point must fire: {what}");
        assert_recovers_to(&baseline, &out, &what);
    }

    // Seeded kills: blob-store op index and torn fraction drawn from the
    // seed. A seed whose op index lands past the run's op stream finishes
    // clean and must still equal the baseline.
    let mut crashed = 0;
    for seed in 0..20u64 {
        let mut rng = DetRng::new(0xC0FFEE ^ seed);
        let at = rng.next_u64() % 64;
        let torn = rng.next_f64();
        let out = run(&env, Crash::Blob(CrashPoint::at_op(at, torn)));
        crashed += usize::from(out.crashed);
        assert_recovers_to(
            &baseline,
            &out,
            &format!("seed {seed}: op {at} torn at {torn}"),
        );
    }
    assert!(crashed >= 10, "only {crashed} of 20 seeded kills fired");
}

#[test]
fn recovery_counters_land_in_the_stable_export() {
    let env = build_env();
    // Die in the last week so the journal already holds first-week deploys.
    let out = run(
        &env,
        Crash::Stage("deployment", env.regions[0].clone(), env.weeks[1]),
    );
    assert!(out.crashed);
    let report = out.recovery.unwrap();
    assert!(report.journal_records > 0, "first-week deploys journaled");
    assert!(report.snapshots_restored > 0, "snapshots republished");
    let registry = out.serve.obs().registry();
    assert_eq!(
        registry
            .counter("seagull_recovery_journal_records_replayed_total", &[])
            .get(),
        report.journal_records as u64
    );
    assert_eq!(
        registry
            .counter("seagull_recovery_snapshots_restored_total", &[])
            .get(),
        report.snapshots_restored as u64
    );
    let export = out.serve.obs().stable_export();
    assert!(export.contains("seagull_recovery_journal_records_replayed_total"));
    assert!(export.contains("seagull_recovery_snapshots_restored_total"));
}

#[test]
fn torn_newest_snapshot_serves_previous_journaled_epoch() {
    let env = build_env();
    // A clean, crash-free run writing through the durable sink.
    let disk = Arc::new(MemoryBlobStore::new());
    LoadExtraction::columnar(5)
        .run(&env.fleet, &env.regions, &env.weeks, disk.as_ref())
        .unwrap();
    let serve = ServeService::with_defaults();
    let sink = Arc::new(DurableServeSink::new(
        serve.clone(),
        Arc::clone(&disk) as Arc<dyn BlobStore>,
    ));
    let pipeline = AmlPipeline::new(config(), Arc::clone(&disk) as Arc<dyn BlobStore>)
        .with_deploy_sink(Arc::clone(&sink) as Arc<dyn DeploySink>);
    pipeline.run_schedule(&env.regions, &env.weeks);

    let region = &env.regions[3];
    let newest_seq = sink.next_seq(region) - 1;
    assert!(newest_seq >= 2, "two weeks deploy at least two epochs");
    let key = snapshot_key(region, newest_seq);
    let whole = disk.get(&key).unwrap();
    // Tear the newest snapshot blob, as a crash mid-put would.
    disk.put(&key, whole.slice(0..whole.len() / 2)).unwrap();

    let serve2 = ServeService::with_defaults();
    let (_, report) =
        DurableServeSink::recover(serve2.clone(), Arc::clone(&disk) as Arc<dyn BlobStore>).unwrap();
    assert!(
        report.snapshot_fallbacks >= 1,
        "torn blob skipped: {report:?}"
    );
    assert!(report.regions_unrecovered.is_empty());
    // The region serves the previous journaled epoch — never a torn read.
    let recovered = serve2.snapshot(region).expect("region recovered");
    assert_eq!(recovered.week_start_day(), env.weeks[0]);
    assert_eq!(
        serve.snapshot(region).unwrap().week_start_day(),
        env.weeks[1],
        "pre-crash process was serving the newest epoch"
    );
    // Every other region still recovers its newest snapshot.
    for other in &env.regions[..3] {
        assert_eq!(
            serve2.snapshot(other).unwrap().week_start_day(),
            env.weeks[1],
            "untorn region {other} restores its newest epoch"
        );
    }
}

#[test]
fn checkpoints_skip_completed_regions_after_restart() {
    let env = build_env();
    // Kill during the final week once two regions have already completed it:
    // region order is the fan-out order, so dying at region index 2's first
    // stage leaves regions 0 and 1 checkpointed for that week.
    let out = run(
        &env,
        Crash::Stage("ingestion", env.regions[2].clone(), env.weeks[1]),
    );
    assert!(out.crashed);
    let baseline = run(&env, Crash::None);
    assert_eq!(out.digest, baseline.digest);

    // Now observe the skip directly: a fully-completed schedule re-run over
    // the same checkpoint store runs nothing.
    let disk = Arc::new(MemoryBlobStore::new());
    LoadExtraction::columnar(5)
        .run(&env.fleet, &env.regions, &env.weeks, disk.as_ref())
        .unwrap();
    let pipeline = AmlPipeline::new(config(), Arc::clone(&disk) as Arc<dyn BlobStore>);
    let runner = FleetRunner::new(pipeline, env.regions.clone())
        .with_checkpoints(Arc::clone(&disk) as Arc<dyn BlobStore>);
    let first = runner.run_schedule(&env.weeks);
    assert_eq!(first.len(), env.regions.len() * env.weeks.len());
    let rerun = runner.run_schedule(&env.weeks);
    assert!(rerun.is_empty(), "all region-weeks checkpointed");
    for region in &env.regions {
        for &week in &env.weeks {
            assert!(runner.completed(region, week));
        }
    }
}
