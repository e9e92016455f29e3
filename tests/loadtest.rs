//! Load-test harness integration: seeded generators driving a real
//! [`ServeService`], digest determinism across worker counts, knee finding
//! on measured sweeps, and overload shed → cooldown recovery end to end.

use seagull::core::pipeline::PredictionDoc;
use seagull::core::IncidentManager;
use seagull::serve::{ModelSnapshot, ServeError, ServeService};
use seagull_bench::loadtest::{
    find_knee, fnv1a_fold_f64s, fnv1a_fold_u64, ClosedLoop, LoadRun, OpenLoop, OverloadStats,
    SweepPoint, FNV_OFFSET,
};
use std::time::Instant;

fn publish_uniform(serve: &ServeService, region: &str, servers: u64, value: f64) {
    let docs: Vec<PredictionDoc> = (0..servers)
        .map(|id| PredictionDoc {
            region: region.into(),
            server_id: id,
            day: 14,
            step_min: 30,
            values: vec![value; 48],
            duration_min: 60,
        })
        .collect();
    serve.publish(ModelSnapshot::from_predictions(region, 1, 7, "m", &docs));
}

/// Digest one prediction the way the bench does: timestamp + exact value
/// bits, or the error rendering.
fn digest(serve: &ServeService, region: &str, server: u64, horizon: usize) -> u64 {
    match serve.predict(region, server, horizon) {
        Ok(s) => {
            let h = fnv1a_fold_u64(FNV_OFFSET, s.start().minutes() as u64);
            fnv1a_fold_f64s(h, s.values())
        }
        Err(e) => fnv1a_fold_u64(FNV_OFFSET, format!("err:{e}").len() as u64),
    }
}

#[test]
fn generators_are_seeded_and_deterministic() {
    let a = OpenLoop::new(11)
        .rate_qps(50_000.0)
        .requests(400)
        .arrivals();
    let b = OpenLoop::new(11)
        .rate_qps(50_000.0)
        .requests(400)
        .arrivals();
    assert_eq!(a, b);
    assert!(a.windows(2).all(|w| w[0] <= w[1]), "schedule is monotone");
    assert_eq!(
        OpenLoop::new(11).rate_qps(50_000.0).requests(400).len(),
        400
    );
    assert_eq!(ClosedLoop::new(2).requests(300).len(), 300);
}

#[test]
fn closed_loop_digest_is_identical_across_worker_counts_on_a_live_service() {
    let serve = ServeService::with_defaults();
    publish_uniform(&serve, "west", 16, 7.5);
    let query = |i: usize| digest(&serve, "west", (i % 20) as u64, 1 + i % 48);

    let one = ClosedLoop::new(1).requests(2_000).run(query);
    let four = ClosedLoop::new(4).requests(2_000).run(query);
    assert_eq!(
        one.digest, four.digest,
        "the read path must answer identically no matter how many workers race"
    );
    assert_eq!(one.latencies_us.len(), 2_000);
}

#[test]
fn open_loop_digest_is_identical_across_thread_counts_on_a_live_service() {
    let serve = ServeService::with_defaults();
    publish_uniform(&serve, "west", 16, 3.25);
    let query = |i: usize| digest(&serve, "west", (i % 20) as u64, 1 + i % 48);

    let gen = OpenLoop::new(5).rate_qps(200_000.0).requests(2_000);
    let one = gen.run(1, query);
    let four = gen.run(4, query);
    assert_eq!(one.digest, four.digest);
    assert_eq!(one.offered_qps, Some(200_000.0));
}

#[test]
fn sweep_points_and_knee_compose_from_runs() {
    // Synthetic runs (sorted latencies, fixed walls) keep the knee check
    // timing-independent while exercising the same types the bench uses.
    let run_at = |offered: f64, achieved: f64, lat: Vec<f64>| LoadRun {
        latencies_us: lat,
        wall_s: 1.0,
        offered_qps: Some(offered),
        achieved_qps: achieved,
        digest: 0,
    };
    let healthy = SweepPoint::from_run(&run_at(1_000.0, 990.0, vec![1.0, 2.0, 3.0, 4.0]));
    assert_eq!(healthy.p50_us, 2.0);
    assert_eq!(healthy.p99_us, 4.0);
    assert!(healthy.absorbed(100.0));

    let saturated = SweepPoint::from_run(&run_at(2_000.0, 1_200.0, vec![500.0, 900.0]));
    assert!(!saturated.absorbed(100.0));
    assert_eq!(find_knee(&[healthy, saturated], 100.0), Some(0));
}

#[test]
fn overload_sheds_through_the_generator_and_recovers_after_cooldown() {
    let serve = ServeService::with_defaults();
    publish_uniform(&serve, "west", 8, 1.0);
    publish_uniform(&serve, "east", 8, 2.0);

    // Trip west the way the pipeline would; east stays healthy.
    let incidents = IncidentManager::new();
    let threshold = serve.breaker().config().trip_threshold;
    for _ in 0..threshold {
        serve.breaker().record_failure("west", 0, &incidents);
    }

    // Drive a closed-loop burst across both regions and classify outcomes.
    let outcomes: Vec<(f64, bool)> = (0..400)
        .map(|i| {
            let region = if i % 2 == 0 { "west" } else { "east" };
            let q0 = Instant::now();
            let result = serve.predict(region, (i % 8) as u64, 4);
            let lat = q0.elapsed().as_secs_f64() * 1e6;
            let shed = matches!(result, Err(ServeError::Rejected { .. }));
            assert_eq!(shed, region == "west", "only the tripped region sheds");
            (lat, shed)
        })
        .collect();
    let stats = OverloadStats::classify(&outcomes);
    assert_eq!(stats.shed, 200);
    assert_eq!(stats.served, 200);
    assert!((stats.shed_fraction() - 0.5).abs() < 1e-12);

    // Cooldown elapses → half-open probe admitted → success closes the
    // breaker → the previously shedding region serves again.
    let cooldown = serve.breaker().config().cooldown_ticks;
    assert!(serve.breaker().allow("west", cooldown));
    serve.breaker().record_success("west", cooldown, &incidents);
    let recovered = serve.predict("west", 0, 4);
    assert!(recovered.is_ok(), "region serves again after recovery");
    assert_eq!(recovered.unwrap().values()[0], 1.0);
}
