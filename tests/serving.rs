//! Serving-layer integration tests: pipeline → snapshot publication →
//! queries, concurrent readers racing mid-flight deploys, old-epoch
//! coherence, breaker admission, and the served scheduler path.

use seagull::backup::{BackupScheduler, FabricPropertyStore, ScheduleDecision, SchedulerConfig};
use seagull::core::metrics::{lowest_load_window, LowLoadWindow};
use seagull::core::pipeline::{AmlPipeline, DeploySink, GateState, PipelineConfig, PredictionDoc};
use seagull::core::resilience::{BreakerState, COOLDOWN_TICKS, TRIP_THRESHOLD};
use seagull::core::IncidentManager;
use seagull::forecast::{FittedModel, Forecaster, PersistentForecast};
use seagull::serve::{ModelSnapshot, ServeError, ServeService};
use seagull::telemetry::blobstore::MemoryBlobStore;
use seagull::telemetry::chaos::DetRng;
use seagull::telemetry::extract::LoadExtraction;
use seagull::telemetry::fleet::{FleetGenerator, FleetSpec, ServerTelemetry};
use seagull::timeseries::{TimeSeries, Timestamp};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

/// A prediction for day 14 on the half-hour grid.
fn doc(region: &str, server_id: u64, values: Vec<f64>, duration_min: i64) -> PredictionDoc {
    PredictionDoc {
        region: region.into(),
        server_id,
        day: 14,
        step_min: 30,
        values,
        duration_min,
        gate: GateState::OPEN,
    }
}

/// A snapshot whose every server carries the same constant value — torn
/// reads (mixing servers from two snapshots) become detectable.
fn region_snapshot(region: &str, version: u64, servers: u64, value: f64) -> ModelSnapshot {
    let docs: Vec<PredictionDoc> = (0..servers)
        .map(|id| doc(region, id, vec![value; 48], 60))
        .collect();
    ModelSnapshot::from_predictions(region, version, 7, "m", &docs)
}

fn uniform_snapshot(version: u64, servers: u64, value: f64) -> ModelSnapshot {
    region_snapshot("west", version, servers, value)
}

#[test]
fn concurrent_readers_race_mid_flight_deploys_without_torn_reads() {
    let serve = ServeService::with_defaults();
    const SERVERS: u64 = 16;
    const DEPLOYS: u64 = 200;
    serve.publish(uniform_snapshot(1, SERVERS, 1.0));

    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        // Writer: a deploy storm, one snapshot per version.
        scope.spawn(|| {
            for v in 2..=DEPLOYS {
                serve.publish(uniform_snapshot(v, SERVERS, v as f64));
            }
            stop.store(true, Ordering::Release);
        });
        // Readers: every answer must be internally consistent — all values
        // in a response equal, and whole batches from a single version.
        for _ in 0..4 {
            scope.spawn(|| {
                let mut last_epoch = 0u64;
                while !stop.load(Ordering::Acquire) {
                    let epoch = serve.epoch("west");
                    assert!(epoch >= last_epoch, "epochs must be monotonic");
                    last_epoch = epoch;

                    let series = serve.predict("west", 3, 48).expect("server 3 exists");
                    let first = series.values()[0];
                    assert!(series.values().iter().all(|v| *v == first), "torn read");

                    let batch = serve
                        .predict_batch("west", &[(0, 4), (7, 4), (15, 4)])
                        .expect("batch admitted");
                    let versions: Vec<f64> = batch
                        .iter()
                        .map(|r| r.as_ref().expect("all servers exist").values()[0])
                        .collect();
                    assert!(
                        versions.iter().all(|v| *v == versions[0]),
                        "batch mixed snapshots: {versions:?}"
                    );
                }
            });
        }
    });

    assert_eq!(serve.epoch("west"), DEPLOYS);
    let last = serve.predict("west", 0, 1).unwrap();
    assert_eq!(last.values()[0], DEPLOYS as f64);
}

#[test]
fn reader_holding_old_epoch_keeps_coherent_prediction_set() {
    let serve = ServeService::with_defaults();
    serve.publish(uniform_snapshot(1, 8, 1.0));
    let held = serve.snapshot("west").expect("published");
    assert_eq!(held.epoch(), 1);

    for v in 2..=50 {
        serve.publish(uniform_snapshot(v, 8, v as f64));
    }

    // The held snapshot is immutable: same epoch, same servers, same values,
    // regardless of the 49 deploys that landed after it.
    assert_eq!(held.epoch(), 1);
    assert_eq!(held.version(), 1);
    assert_eq!(held.len(), 8);
    for id in held.server_ids() {
        let series = held.server(id).unwrap().prediction();
        assert!(series.values().iter().all(|v| *v == 1.0));
    }
    // While the store moved on.
    assert_eq!(serve.epoch("west"), 50);
    assert_eq!(serve.snapshot("west").unwrap().version(), 50);
}

#[test]
fn multi_region_deploy_storms_stay_isolated() {
    // Each region's values encode (region index, version) so any
    // cross-region or cross-epoch leak through the region map is
    // detectable.
    let serve = ServeService::with_defaults();
    const REGIONS: usize = 12;
    const DEPLOYS: u64 = 60;
    let names: Vec<String> = (0..REGIONS).map(|i| format!("region-{i}")).collect();
    let value_of = |region: usize, version: u64| (region as f64) * 1_000.0 + version as f64;
    for (i, name) in names.iter().enumerate() {
        serve.publish(region_snapshot(name, 1, 4, value_of(i, 1)));
    }

    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        // Writer: a deploy storm interleaved across the regions.
        scope.spawn(|| {
            for v in 2..=DEPLOYS {
                for (i, name) in names.iter().enumerate() {
                    serve.publish(region_snapshot(name, v, 4, value_of(i, v)));
                }
            }
            stop.store(true, Ordering::Release);
        });
        // Readers: responses must be internally uniform and belong to the
        // queried region's value space, never a neighbor's.
        for t in 0..3 {
            let (serve, names, stop) = (&serve, &names, &stop);
            scope.spawn(move || {
                let mut region = t;
                while !stop.load(Ordering::Acquire) {
                    region = (region + 1) % REGIONS;
                    let series = serve
                        .predict(&names[region], 2, 48)
                        .expect("server 2 exists in every region");
                    let first = series.values()[0];
                    assert!(series.values().iter().all(|v| *v == first), "torn read");
                    let version = first - (region as f64) * 1_000.0;
                    assert!(
                        (1.0..=DEPLOYS as f64).contains(&version),
                        "region {region} served a foreign value {first}"
                    );
                }
            });
        }
    });

    for (i, name) in names.iter().enumerate() {
        assert_eq!(serve.epoch(name), DEPLOYS);
        let last = serve.predict(name, 0, 1).unwrap();
        assert_eq!(last.values()[0], value_of(i, DEPLOYS));
    }
    let mut published = serve.regions();
    published.sort();
    let mut expected = names.clone();
    expected.sort();
    assert_eq!(published, expected);

    // Publish-time metrics count every publish against its own region.
    let reg = serve.obs().registry();
    for name in &names {
        assert_eq!(
            reg.counter("seagull_serve_publishes_total", &[("region", name)])
                .get(),
            DEPLOYS,
            "{name}"
        );
    }
    assert_eq!(
        reg.gauge("seagull_serve_snapshots_retired", &[]).get() as u64,
        REGIONS as u64 * (DEPLOYS - 1),
        "every superseded snapshot is retired exactly once"
    );
}

#[test]
fn superseded_snapshots_are_freed_at_the_swap_and_the_live_one_with_the_service() {
    let serve = ServeService::with_defaults();
    serve.publish(uniform_snapshot(1, 8, 1.0));
    let held = serve.snapshot("west").expect("published");
    let mut published = vec![Arc::downgrade(&held)];
    for v in 2..=41 {
        serve.publish(uniform_snapshot(v, 8, v as f64));
        // A query in between: an answer must not keep its snapshot alive.
        assert_eq!(serve.predict("west", 0, 1).unwrap().values()[0], v as f64);
        published.push(Arc::downgrade(&serve.snapshot("west").expect("published")));
    }

    // The held snapshot is intact; every other superseded one is already
    // gone — nothing waits for a collection pass.
    let live = published.pop().expect("41 publishes");
    assert_eq!(held.version(), 1);
    for id in held.server_ids() {
        let series = held.server(id).unwrap().prediction();
        assert!(series.values().iter().all(|v| *v == 1.0));
    }
    assert!(published[0].upgrade().is_some(), "the reader's Arc owns it");
    for (i, superseded) in published.iter().enumerate().skip(1) {
        assert!(superseded.upgrade().is_none(), "publish {} leaked", i + 1);
    }
    let retired = serve
        .obs()
        .registry()
        .gauge("seagull_serve_snapshots_retired", &[]);
    assert_eq!(retired.get(), 40.0);

    // The live snapshot goes with the service (store, slots and the region
    // context the queries built), the held one with its last reader.
    assert_eq!(live.upgrade().expect("still serving").version(), 41);
    drop(serve);
    assert!(live.upgrade().is_none(), "the service leaked its snapshot");
    drop(held);
    assert!(published[0].upgrade().is_none());
}

#[test]
fn first_queries_racing_on_one_region_share_one_context() {
    // Eight threads send a region's first query at once, before anything
    // is published. Whichever builds the region's context, all of them —
    // and the publish that follows — must end up on one snapshot slot and
    // one set of counters: a loser left holding a private slot would
    // answer `NoSnapshot` forever.
    const THREADS: u64 = 8;
    let serve = ServeService::with_defaults();
    let barrier = Barrier::new(THREADS as usize);
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                barrier.wait();
                let first = serve.predict("fresh", 99, 4);
                if barrier.wait().is_leader() {
                    serve.publish(region_snapshot("fresh", 1, 4, 5.0));
                }
                barrier.wait();
                assert!(matches!(first, Err(ServeError::NoSnapshot { .. })));
                // The same query now reaches the snapshot, which has no
                // server 99, and a good one reads the published values.
                assert!(matches!(
                    serve.predict("fresh", 99, 4),
                    Err(ServeError::UnknownServer { server_id: 99, .. })
                ));
                let series = serve.predict("fresh", 2, 4).expect("published");
                assert_eq!(series.values(), &[5.0; 4]);
            });
        }
    });

    // A query that finds no snapshot returns before outcome accounting, so
    // the counted errors are the ones sent after the publish: all of them,
    // on one counter.
    let requests = |outcome| {
        serve
            .obs()
            .registry()
            .counter(
                "seagull_serve_requests_total",
                &[("region", "fresh"), ("outcome", outcome)],
            )
            .get()
    };
    assert_eq!(requests("error"), THREADS);
    assert_eq!(requests("ok"), THREADS);
    assert_eq!(requests("rejected"), 0);
    assert_eq!(serve.epoch("fresh"), 1);
    assert_eq!(serve.regions(), vec!["fresh".to_string()]);
}

#[test]
fn pipeline_deploys_publish_snapshots_end_to_end() {
    let mut spec = FleetSpec::small_region(7);
    spec.regions[0].servers = 60;
    let region = spec.regions[0].name.clone();
    let start = spec.start_day;
    let weeks: Vec<i64> = (0..4).map(|w| start + 7 * w).collect();
    let fleet: Vec<ServerTelemetry> = FleetGenerator::new(spec).generate_weeks(4);

    let store = Arc::new(MemoryBlobStore::new());
    LoadExtraction::columnar(5)
        .run(
            &fleet,
            std::slice::from_ref(&region),
            &weeks,
            store.as_ref(),
        )
        .unwrap();

    let serve = ServeService::with_defaults();
    let pipeline = AmlPipeline::new(PipelineConfig::production(), store)
        .with_deploy_sink(Arc::new(serve.clone()));
    let reports = pipeline.run_schedule(std::slice::from_ref(&region), &weeks);
    assert!(reports.iter().all(|r| !r.blocked));

    // One epoch per weekly deploy; snapshot tracks the registry.
    assert_eq!(serve.epoch(&region), 4);
    let snap = serve.snapshot(&region).expect("deploys published");
    assert_eq!(
        Some(snap.version()),
        reports.last().unwrap().deployed_version
    );
    assert!(
        !snap.is_empty(),
        "snapshot carries the deployed predictions"
    );
    assert_eq!(snap.week_start_day(), start + 21);

    // Served predictions match the documents the pipeline stored.
    let sid = snap.server_ids().next().unwrap();
    let served = serve.predict_day(&region, sid, snap.server(sid).unwrap().materialized_day());
    let series = served.expect("materialized day is servable");
    assert_eq!(series.values().len(), series.len());

    // The served scheduler path reschedules a healthy fleet's backups into
    // snapshot windows and writes fabric properties.
    serve.set_clock_day(start + 28);
    let scheduler = BackupScheduler::new(SchedulerConfig::default());
    let fabric = FabricPropertyStore::new();
    let mut all = Vec::new();
    for offset in 0..7 {
        all.extend(scheduler.schedule_day_served(
            &fleet,
            start + 28 + offset,
            &serve,
            &region,
            &fabric,
        ));
    }
    assert!(!all.is_empty());
    let rescheduled = all
        .iter()
        .filter(|b| matches!(b.decision, ScheduleDecision::Rescheduled { .. }))
        .count();
    assert!(
        rescheduled > 0,
        "some backups land in served windows ({}/{})",
        rescheduled,
        all.len()
    );
    for b in &all {
        assert_eq!(
            fabric.backup_window_start(seagull::telemetry::server::ServerId(b.server_id)),
            Some(b.start)
        );
    }
}

#[test]
fn open_breaker_sheds_serving_traffic_until_cooldown() {
    let serve = ServeService::with_defaults();
    serve.publish(uniform_snapshot(1, 4, 1.0));
    // A healthy sibling: only the tripped region may shed.
    serve.publish(region_snapshot("east", 1, 4, 2.0));
    let east_serves = || {
        (0..4).all(|id| {
            serve
                .predict("east", id, 4)
                .is_ok_and(|p| p.values()[0] == 2.0)
                && serve.ll_window("east", id, 14).is_ok()
        })
    };
    assert!(serve.predict("west", 0, 4).is_ok());
    assert!(east_serves());

    // Trip the shared breaker the way the pipeline would.
    let incidents = IncidentManager::new();
    for _ in 0..TRIP_THRESHOLD {
        serve.breaker().record_failure("west", 0, &incidents);
    }
    assert_eq!(serve.breaker().state("west"), BreakerState::Open);
    for id in 0..4 {
        assert!(matches!(
            serve.predict("west", id, 4),
            Err(ServeError::Rejected { .. })
        ));
        assert!(matches!(
            serve.ll_window("west", id, 14),
            Err(ServeError::Rejected { .. })
        ));
        assert!(east_serves(), "east answers while west sheds");
    }

    // Serving's admission check is read-only: it must not consume the
    // breaker's half-open probe budget while the region is open.
    assert_eq!(serve.breaker().state("west"), BreakerState::Open);
    assert_eq!(serve.breaker().state("east"), BreakerState::Closed);

    // After the cooldown the pipeline's probe succeeds and serving resumes.
    assert!(serve.breaker().allow("west", COOLDOWN_TICKS));
    serve
        .breaker()
        .record_success("west", COOLDOWN_TICKS, &incidents);
    assert_eq!(serve.breaker().state("west"), BreakerState::Closed);
    assert_eq!(serve.predict("west", 0, 4).unwrap().values()[0], 1.0);
    assert!(east_serves(), "east answers after west closes");
}

#[test]
fn failed_deploy_keeps_last_known_good_snapshot() {
    let serve = ServeService::with_defaults();
    serve.publish(uniform_snapshot(1, 4, 1.0));
    let epoch_before = serve.epoch("west");

    // A failed deployment fires the fallback hook, not a publish.
    serve.on_fallback("west", 14);
    assert_eq!(serve.epoch("west"), epoch_before, "no swap on fallback");
    let snap = serve.snapshot("west").unwrap();
    assert_eq!(snap.version(), 1, "last-known-good still serving");
    assert_eq!(
        serve
            .obs()
            .registry()
            .counter("seagull_serve_fallback_kept_total", &[("region", "west")])
            .get(),
        1
    );
}

/// The day server `id` is predicted at deploy `version`: a plateau with one
/// hour-long dip whose place moves with every deploy and whose depth names
/// the deploy, so a window is the answer of exactly one `(version, id)`.
fn dipped_day(version: u64, id: u64) -> Vec<f64> {
    let at = ((version * 5 + id * 3) % 46) as usize;
    let mut values = vec![9.0; 48];
    values[at] = version as f64 / 1024.0;
    values[at + 1] = version as f64 / 1024.0;
    values
}

fn dipped_snapshot(version: u64, servers: u64) -> ModelSnapshot {
    let docs: Vec<PredictionDoc> = (0..servers)
        .map(|id| doc("west", id, dipped_day(version, id), 60))
        .collect();
    ModelSnapshot::from_predictions("west", version, 7, "m", &docs)
}

#[test]
fn ll_window_answers_follow_the_snapshot_across_deploys() {
    const SERVERS: u64 = 4;
    const DEPLOYS: u64 = 150;
    const READERS: u64 = 8;
    let serve = ServeService::with_defaults();
    serve.publish(dipped_snapshot(1, SERVERS));
    // The search, recomputed on the series deploy `version` carried.
    let recomputed = |version: u64, id: u64| {
        let day = TimeSeries::new(Timestamp::from_days(14), 30, dipped_day(version, id)).unwrap();
        lowest_load_window(&day, 60).expect("an hour fits a day")
    };

    /// Raises the flag when dropped, on a normal return and on a panic.
    struct StopOnDrop<'a>(&'a AtomicBool);
    impl Drop for StopOnDrop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Release);
        }
    }

    let answered = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        // Publisher: the next deploy goes out only after the readers have
        // answered a round of queries on the current one, so every snapshot
        // is asked for its windows while it serves. A reader that fails an
        // assertion raises `stop` on its way out, which ends the wait (and
        // the other readers), so the scope joins and the panic is reported.
        scope.spawn(|| {
            let _done = StopOnDrop(&stop);
            for version in 2..=DEPLOYS {
                let seen = answered.load(Ordering::Acquire);
                while answered.load(Ordering::Acquire) < seen + 2 * READERS {
                    if stop.load(Ordering::Acquire) {
                        return;
                    }
                    std::hint::spin_loop();
                }
                serve.publish(dipped_snapshot(version, SERVERS));
            }
        });
        for reader in 0..READERS {
            let (serve, answered, stop) = (&serve, &answered, &stop);
            scope.spawn(move || {
                let _failed = StopOnDrop(stop);
                let mut id = reader;
                while !stop.load(Ordering::Acquire) {
                    id = (id + 1) % SERVERS;
                    let before = serve.epoch("west");
                    let window = serve.ll_window("west", id, 14).expect("server exists");
                    let after = serve.epoch("west");
                    // The swap lands before the epoch is stored, so the
                    // snapshot held was stamped `before..=after + 1`: never
                    // older than an epoch this reader had already seen.
                    let version = (window.mean_load * 1024.0) as u64;
                    assert!(
                        (before..=after + 1).contains(&version),
                        "window of deploy {version} served between epochs {before} and {after}"
                    );
                    assert_eq!(window, recomputed(version, id), "server {id}");
                    answered.fetch_add(1, Ordering::Release);
                }
            });
        }
    });

    assert_eq!(serve.epoch("west"), DEPLOYS);
    for id in 0..SERVERS {
        assert_eq!(serve.ll_window("west", id, 14), Ok(recomputed(DEPLOYS, id)));
    }
}

/// A one-day history whose persistent forecast repeats `level` forever.
fn flat_model(day: i64, level: f64) -> Arc<dyn FittedModel> {
    let history = TimeSeries::new(Timestamp::from_days(day), 30, vec![level; 48]).unwrap();
    Arc::from(PersistentForecast::previous_day().fit(&history).unwrap())
}

#[test]
fn ll_window_matches_predict_day_then_search_on_every_path() {
    // What `ll_window` stands for: the day's series, then the search.
    fn composed(
        serve: &ServeService,
        server: u64,
        day: i64,
        duration_min: u32,
    ) -> Result<LowLoadWindow, ServeError> {
        let series = serve.predict_day("west", server, day)?;
        lowest_load_window(&series, duration_min).ok_or(ServeError::NoWindow { duration_min })
    }
    let doc = |server_id, values, duration_min| doc("west", server_id, values, duration_min);
    let ramp: Vec<f64> = (0..48).map(|i| f64::from((i * 7) % 48)).collect();
    let mut snapshot = ModelSnapshot::from_predictions(
        "west",
        1,
        7,
        "m",
        &[
            doc(0, ramp.clone(), 60),
            doc(1, ramp.clone(), 120),
            doc(2, ramp.clone(), 0),
            doc(3, ramp.clone(), 45),
            doc(4, ramp.clone(), 1500),
            doc(5, ramp[..24].to_vec(), 60),
            doc(6, ramp[..24].to_vec(), 60),
        ],
    );
    snapshot.attach_model(1, flat_model(13, 3.0));
    snapshot.attach_model(6, flat_model(13, 4.0));
    let serve = ServeService::with_defaults();
    serve.publish(snapshot);

    // (server, day, the document's duration, the path the case takes)
    let table: [(u64, i64, u32, &str); 10] = [
        (0, 14, 60, "materialized day"),
        (1, 14, 120, "materialized day, model attached"),
        (1, 15, 120, "another day, through the cached model"),
        (0, 15, 60, "another day, no model: DayUnavailable"),
        (99, 14, 60, "unknown server"),
        (2, 14, 0, "zero duration: NoWindow"),
        (3, 14, 45, "duration off the grid: NoWindow"),
        (4, 14, 1500, "duration longer than the day: NoWindow"),
        (5, 14, 60, "half a day, no model: DayUnavailable"),
        (6, 14, 60, "half a day, the model covers it"),
    ];
    for (server, day, duration_min, case) in table {
        let want = composed(&serve, server, day, duration_min);
        assert_eq!(serve.ll_window("west", server, day), want, "{case}");
    }
    // The table reached each kind of answer it names.
    assert!(serve.ll_window("west", 0, 14).is_ok());
    assert_eq!(serve.ll_window("west", 1, 15).unwrap().mean_load, 3.0);
    assert_eq!(serve.ll_window("west", 6, 14).unwrap().mean_load, 4.0);
    assert_eq!(
        serve.ll_window("west", 5, 14),
        Err(ServeError::DayUnavailable { day: 14 })
    );
    assert_eq!(
        serve.ll_window("west", 4, 14),
        Err(ServeError::NoWindow { duration_min: 1500 })
    );

    // An open breaker sheds before either side looks at the snapshot.
    let incidents = IncidentManager::new();
    for _ in 0..TRIP_THRESHOLD {
        serve.breaker().record_failure("west", 0, &incidents);
    }
    assert_eq!(
        serve.ll_window("west", 0, 14),
        Err(ServeError::Rejected {
            region: "west".into()
        })
    );
    assert_eq!(serve.ll_window("west", 0, 14), composed(&serve, 0, 14, 60));
}

/// One request of the seeded mix the 1-against-8-threads test replays.
enum Request {
    Predict(u64, usize),
    Day(u64, i64),
    Window(u64, i64),
    Batch(Vec<(u64, usize)>),
}

/// Everything a response says, wall time aside: start and exact value bits
/// on success, the error otherwise.
fn response_digest(request: &Request, serve: &ServeService, region: &str) -> u64 {
    fn series(h: &mut DefaultHasher, r: &Result<TimeSeries, ServeError>) {
        match r {
            Ok(s) => {
                s.start().minutes().hash(h);
                s.values().iter().for_each(|v| v.to_bits().hash(h));
            }
            Err(e) => format!("{e:?}").hash(h),
        }
    }
    let mut h = DefaultHasher::new();
    match request {
        Request::Predict(server, horizon) => {
            series(&mut h, &serve.predict(region, *server, *horizon))
        }
        Request::Day(server, day) => series(&mut h, &serve.predict_day(region, *server, *day)),
        Request::Window(server, day) => match serve.ll_window(region, *server, *day) {
            Ok(w) => (w.start.minutes(), w.duration_min, w.mean_load.to_bits()).hash(&mut h),
            Err(e) => format!("{e:?}").hash(&mut h),
        },
        Request::Batch(requests) => match serve.predict_batch(region, requests) {
            Ok(responses) => responses.iter().for_each(|r| series(&mut h, r)),
            Err(e) => format!("{e:?}").hash(&mut h),
        },
    }
    h.finish()
}

/// Read-path determinism: the same seeded mix of single predictions, day
/// predictions, window lookups and batches of 8 — good requests, unknown
/// servers, horizons and days only a cached model reaches or nothing does —
/// gives byte-identical responses whether one thread sends it or eight
/// share it.
#[test]
fn responses_are_identical_at_one_and_eight_reader_threads() {
    const REGIONS: [&str; 3] = ["east", "north", "west"];
    const SERVERS: u64 = 24;
    const REQUESTS: usize = 6_000;
    let mut rng = DetRng::new(0xda7a);
    let serve = ServeService::with_defaults();
    for (r, region) in REGIONS.iter().enumerate() {
        let docs: Vec<PredictionDoc> = (0..SERVERS)
            .map(|id| {
                let values = (0..48).map(|_| (rng.next_u64() % 10_000) as f64 / 100.0);
                PredictionDoc {
                    day: 14 + (id % 7) as i64,
                    ..doc(
                        region,
                        id,
                        values.collect(),
                        [60, 120, 90, 45][(id % 4) as usize],
                    )
                }
            })
            .collect();
        let mut snapshot = ModelSnapshot::from_predictions(region, 1, 7, "m", &docs);
        for id in (0..SERVERS).filter(|id| id % 3 == 0) {
            snapshot.attach_model(id, flat_model(13 + (id % 7) as i64, (r as u64 + id) as f64));
        }
        serve.publish(snapshot);
    }
    let mut rng = DetRng::new(0x5ea9_0115);
    let server = |rng: &mut DetRng| rng.next_u64() % (SERVERS + 2);
    let requests: Vec<(usize, Request)> = (0..REQUESTS)
        .map(|_| {
            let region = (rng.next_u64() % REGIONS.len() as u64) as usize;
            let id = server(&mut rng);
            let request = match rng.next_u64() % 4 {
                0 => Request::Predict(id, 1 + (rng.next_u64() % 96) as usize),
                1 => Request::Day(id, 14 + (rng.next_u64() % 9) as i64),
                2 => Request::Window(id, 14 + (id % 7) as i64 + (rng.next_u64() % 4 / 3) as i64),
                _ => Request::Batch(
                    (0..8)
                        .map(|_| (server(&mut rng), 1 + (rng.next_u64() % 96) as usize))
                        .collect(),
                ),
            };
            (region, request)
        })
        .collect();

    let run = |threads: usize| -> Vec<u64> {
        let mut digests = vec![0u64; requests.len()];
        let chunk = requests.len().div_ceil(threads);
        std::thread::scope(|scope| {
            for (requests, digests) in requests.chunks(chunk).zip(digests.chunks_mut(chunk)) {
                let serve = &serve;
                scope.spawn(move || {
                    for ((region, request), digest) in requests.iter().zip(digests) {
                        *digest = response_digest(request, serve, REGIONS[*region]);
                    }
                });
            }
        });
        digests
    };
    let single = run(1);
    assert_eq!(single, run(8), "threads=1 and threads=8 must answer alike");
    // The mix is not degenerate: day and window answers repeat per server,
    // the rest mostly differ.
    let distinct: std::collections::BTreeSet<u64> = single.iter().copied().collect();
    assert!(distinct.len() > REQUESTS / 4, "{} distinct", distinct.len());
}
