//! One run of one workload: set-up, rounds, the oracle's bookkeeping, and
//! the two output lines.
//!
//! A round is a fleet pass (and a traced one beside it under `--trace 1`),
//! durable passes for the workload's `durable_ms`, then a quiet and a storm
//! segment of `serve_ms` each. Rounds repeat until `--seconds` have passed,
//! so every metric samples the whole run and a slow spell of the machine
//! falls on all of them alike. The machine's speed is taken before and after
//! each part, on as many busy threads as the part has, and the part's
//! samples are scaled by the mean of the two (see `util::Kernel`).

use crate::durable::{self, DurablePass};
use crate::fleet::{self, Inputs, Pass, PassConfig};
use crate::spec::{Workload, END_TO_END, PER_LAYER};
use crate::storm::{self, QueryTable, KINDS};
use crate::trace::{Deploy, Recorder};
use crate::util::{median, object, peak_rss_mb, quantile, secs, trimmed_mean, Kernel, LogHist};
use crate::{layers, Args};
use serde_json::{Map, Value};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SETUP_REPEATS: usize = 3;
const MIN_ROUNDS: usize = 3;

/// Operations attempted and failed, for the result line.
struct Ops {
    attempted: u64,
    failed: u64,
}

impl Ops {
    /// One oracle comparison.
    fn check(&mut self, holds: bool, what: &str) {
        self.attempted += 1;
        if !holds {
            self.failed += 1;
            eprintln!("e2e: oracle mismatch: {what}");
        }
    }
}

/// Samples of one timing: as measured, and scaled to the reference speed of
/// the machine. `speed` above 1 means the machine ran faster than the
/// reference while the sample was taken.
#[derive(Default)]
pub struct Timing {
    pub raw: Vec<f64>,
    scaled: Vec<f64>,
}

impl Timing {
    fn time(&mut self, value: f64, speed: f64) {
        self.raw.push(value);
        self.scaled.push(value * speed);
    }

    fn rate(&mut self, per_second: f64, speed: f64) {
        self.raw.push(per_second);
        self.scaled.push(per_second / speed);
    }
}

/// Named values of one run; the spec tables pick what is printed.
#[derive(Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
    /// Value, quartiles and count of the samples behind it.
    summaries: Map,
}

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Sets `name` to the median of `samples` (per-layer numbers).
    pub fn set_median(&mut self, name: &'static str, samples: &[f64]) {
        self.summarized(name, median(samples), samples);
    }

    /// Sets `name` to the trimmed mean of the scaled samples; the same of
    /// the samples as measured rides along in the detail line.
    pub fn set_timing(&mut self, name: &'static str, timing: &Timing) {
        let raw = trimmed_mean(&timing.raw);
        self.summarized(name, trimmed_mean(&timing.scaled), &timing.scaled)
            .insert("raw".into(), raw.into());
    }

    fn summarized(&mut self, name: &'static str, value: f64, samples: &[f64]) -> &mut Map {
        self.values.insert(name, value);
        let spread = object([
            ("value", value.into()),
            ("q1", quantile(samples, 0.25).into()),
            ("q3", quantile(samples, 0.75).into()),
            ("n", samples.len().into()),
        ]);
        self.summaries.insert(name.into(), spread);
        match self.summaries.get_mut(name) {
            Some(Value::Object(spread)) => spread,
            _ => unreachable!("just inserted"),
        }
    }
}

/// Everything before the first timed pass.
pub struct Setup {
    pub inputs: Inputs,
    /// The `threads = 1` pass every later pass must reproduce; its service
    /// is the one the serve segments query, its deploys the ones the durable
    /// passes replay.
    pub reference: Pass,
    pub table: QueryTable,
    /// Digest of the reference service's answers to the probe.
    pub probe: u64,
}

fn set_up(workload: &Workload, scale: usize, seed: u64) -> Setup {
    let inputs = Inputs::generate(workload, scale, seed);
    let reference = fleet::run_pass(
        &inputs,
        &PassConfig {
            threads: 1,
            model: workload.model,
            trace: None,
            capture: true,
        },
    );
    let table = QueryTable::build(&reference.serve, &inputs.regions, seed);
    let probe = table.probe(&reference.serve);
    Setup {
        inputs,
        reference,
        table,
        probe,
    }
}

/// Per-pass timings of fleet passes.
#[derive(Default)]
pub struct FleetSamples {
    pub wall: Timing,
    throughput: Timing,
    cold: Timing,
    warm: Timing,
}

impl FleetSamples {
    fn push(&mut self, pass: &Pass, speed: f64) {
        self.wall.time(pass.wall, speed);
        self.throughput.rate(pass.server_weeks() / pass.wall, speed);
        self.cold.time(pass.week_walls[0], speed);
        for &week in &pass.week_walls[1..] {
            self.warm.time(week, speed);
        }
    }
}

/// What the fleet passes of a run left behind.
#[derive(Default)]
pub struct FleetPart {
    pub plain: FleetSamples,
    pub traced: FleetSamples,
    /// Per traced pass: its stage seconds in `layers::STAGES` order, and its
    /// fit errors.
    pub traced_passes: Vec<([f64; layers::STAGES.len()], u64)>,
    /// The newest untraced pass, kept whole for its counts and stores.
    pub last: Option<Pass>,
}

/// What the durable passes of a run left behind.
#[derive(Default)]
pub struct DurablePart {
    pub deploy_ms: Timing,
    pub recover_ms: Timing,
    pub passes: u64,
    pub newest: Option<DurablePass>,
}

/// What the quiet and storm segments of a run left behind.
#[derive(Default)]
pub struct ServePart {
    qps: Timing,
    p50: Timing,
    p99: Timing,
    publish_p50: Timing,
    quiet_qps: Timing,
    quiet_p50: Timing,
    quiet_p99: Timing,
    pub storm_all: LogHist,
    pub by_kind: [LogHist; KINDS],
    pub publish_all: LogHist,
    pub late_all: LogHist,
    pub requests: u64,
    pub publishes: u64,
    pub errors: u64,
    pub max_late: Duration,
}

/// One run in progress.
pub struct Run<'a> {
    pub workload: &'a Workload,
    pub args: &'a Args,
    pub threads: usize,
    pub setup: &'a Setup,
    pub recorder: Option<Arc<Recorder>>,
    kernel: Kernel,
    ops: Ops,
    pub fleet: FleetPart,
    pub durable: DurablePart,
    pub serve: ServePart,
}

impl Run<'_> {
    fn check_pass(&mut self, pass: &Pass, what: &str) {
        self.ops.attempted += pass.reports.len() as u64 + pass.due_servers;
        self.ops.failed += pass.failed_ops();
        for r in pass.reports.iter().filter(|r| r.blocked || r.is_degraded()) {
            eprintln!(
                "e2e: {what}: {} week {} blocked={} degraded={:?}",
                r.region, r.week_start_day, r.blocked, r.degraded
            );
        }
        let setup = self.setup;
        self.ops.check(
            pass.digest == setup.reference.digest,
            &format!("{what}: predictions and schedules differ from the threads=1 reference"),
        );
        self.ops.check(
            setup.table.probe(&pass.serve) == setup.probe,
            &format!("{what}: served answers differ from the threads=1 reference"),
        );
    }

    fn fleet_pass(&mut self, trace: Option<Arc<Recorder>>) -> Pass {
        fleet::run_pass(
            &self.setup.inputs,
            &PassConfig {
                threads: self.threads,
                model: self.workload.model,
                trace,
                capture: false,
            },
        )
    }

    fn fleet_round(&mut self) {
        self.kernel.speed(self.threads);
        let pass = self.fleet_pass(None);
        let speed = self.kernel.speed_since(self.threads);
        self.check_pass(&pass, "fleet pass");
        self.fleet.plain.push(&pass, speed);
        self.fleet.last = Some(pass);
        if let Some(rec) = self.recorder.clone() {
            rec.set_pass(self.fleet.traced_passes.len() as u32 + 1);
            let pass = self.fleet_pass(Some(rec));
            let speed = self.kernel.speed_since(self.threads);
            self.check_pass(&pass, "traced fleet pass");
            self.fleet.traced.push(&pass, speed);
            self.fleet.traced_passes.push((
                layers::STAGES.map(|(_, stage)| pass.stage_s(stage)),
                pass.fit_errors,
            ));
        }
    }

    fn durable_round(&mut self, run_for: Duration) {
        let deploys = &self.setup.reference.deploys;
        let began = Instant::now();
        let mut passes = Vec::new();
        while passes.is_empty() || began.elapsed() < run_for {
            let pass = durable::run_pass(deploys, &self.setup.table, self.setup.probe);
            self.ops.attempted += deploys.len() as u64 + 1;
            self.ops.failed += pass.put_failures + pass.report.snapshot_fallbacks as u64;
            self.ops.check(
                pass.probe_matches,
                "durable pass: recovered service answers differently",
            );
            passes.push(pass);
        }
        let speed = self.kernel.speed_since(1);
        for pass in &passes {
            self.durable.deploy_ms.time(pass.deploy_s * 1e3, speed);
            self.durable.recover_ms.time(pass.recover_s * 1e3, speed);
        }
        self.durable.passes += passes.len() as u64;
        self.durable.newest = passes.pop();
    }

    fn serve_round(&mut self, newest: &[&Deploy], segment: Duration) {
        let part = &mut self.serve;
        let (quiet, stormy, published) = storm::segment_pair(
            &self.setup.reference.serve,
            &self.setup.table,
            newest,
            segment,
            part.requests as usize,
        );
        let speed = self.kernel.speed_since(1);
        for side in [&quiet, &stormy] {
            self.ops.attempted += side.requests;
            self.ops.failed += side.errors + side.mismatches;
            part.errors += side.errors;
            part.requests += side.requests;
        }
        self.ops.attempted += published.publishes;
        part.quiet_qps.rate(quiet.qps(), speed);
        part.quiet_p50.time(quiet.all.quantile_us(0.5), speed);
        part.quiet_p99.time(quiet.all.quantile_us(0.99), speed);
        part.qps.rate(stormy.qps(), speed);
        part.p50.time(stormy.all.quantile_us(0.5), speed);
        part.p99.time(stormy.all.quantile_us(0.99), speed);
        part.publish_p50
            .time(published.latency.quantile_us(0.5), speed);
        part.storm_all.merge(&stormy.all);
        for (merged, kind) in part.by_kind.iter_mut().zip(&stormy.by_kind) {
            merged.merge(kind);
        }
        part.publish_all.merge(&published.latency);
        part.late_all.merge(&published.late);
        part.publishes += published.publishes;
        part.max_late = part.max_late.max(published.max_late);
    }

    /// The end-to-end metrics, and the per-layer ones that are timings of
    /// the same parts.
    fn summarize(&mut self, m: &mut Metrics) {
        let last = self.fleet.last.as_ref().expect("at least one round");
        m.set_timing("server_weeks_per_s", &self.fleet.plain.throughput);
        m.set_timing("cold_week_s", &self.fleet.plain.cold);
        m.set_timing("warm_week_s", &self.fleet.plain.warm);
        m.set("ll_window_correct_pct", last.window_correct_pct());
        m.set_timing("durable_deploy_ms", &self.durable.deploy_ms);
        m.set_timing("recover_ms", &self.durable.recover_ms);
        m.set_timing("serve_qps", &self.serve.qps);
        m.set_timing("serve_p50_us", &self.serve.p50);
        m.set_timing("serve.service.p99_us", &self.serve.p99);
        m.set_timing("serve.store.publish_p50_us", &self.serve.publish_p50);
        m.set_timing("serve.service.quiet_qps", &self.serve.quiet_qps);
        m.set_timing("serve.service.quiet_p50_us", &self.serve.quiet_p50);
        m.set_timing("serve.service.quiet_p99_us", &self.serve.quiet_p99);
        m.set("bench.rounds", self.fleet.plain.wall.raw.len() as f64);
        m.set("bench.durable_passes", self.durable.passes as f64);
        m.set("bench.serve_requests", self.serve.requests as f64);
    }
}

fn machine(threads: usize, cores: usize, oversubscribed: bool) -> Value {
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    object([
        ("cores", cores.into()),
        ("threads", threads.into()),
        ("oversubscribed", oversubscribed.into()),
        ("profile", profile.into()),
        ("os", std::env::consts::OS.into()),
        ("arch", std::env::consts::ARCH.into()),
    ])
}

pub fn run(workload: &Workload, args: &Args) -> ExitCode {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = cores.min(2);
    // A storm segment runs a reader beside a publisher: two harness threads.
    let oversubscribed = cores < 2;
    let scale = if args.smoke { 1 } else { workload.scale };
    let mut m = Metrics::default();
    let mut kernel = Kernel::new();

    // Set-up, several times; the last one is kept.
    let mut setup_walls = Timing::default();
    let mut setup = None;
    kernel.speed(1);
    for _ in 0..if args.smoke { 1 } else { SETUP_REPEATS } {
        drop(setup.take());
        let began = Instant::now();
        setup = Some(set_up(workload, scale, args.seed));
        let wall = secs(began.elapsed());
        setup_walls.time(wall, kernel.speed_since(1));
    }
    let setup = setup.expect("set up at least once");
    m.set_timing("setup_s", &setup_walls);

    let deploys = &setup.reference.deploys;
    let newest: Vec<&Deploy> = setup
        .inputs
        .regions
        .iter()
        .map(|r| {
            deploys
                .iter()
                .rev()
                .find(|d| &d.region == r)
                .expect("every region deployed")
        })
        .collect();
    let shrink = if args.smoke { 10 } else { 1 };
    let durable_for = Duration::from_millis(workload.durable_ms / shrink);
    let segment = Duration::from_millis(workload.serve_ms / shrink);
    let mut run = Run {
        workload,
        args,
        threads,
        setup: &setup,
        recorder: args.trace.then(|| Arc::new(Recorder::new())),
        kernel,
        ops: Ops {
            attempted: setup.reference.reports.len() as u64 + setup.reference.due_servers,
            failed: setup.reference.failed_ops(),
        },
        fleet: FleetPart::default(),
        durable: DurablePart::default(),
        serve: ServePart::default(),
    };

    let began = Instant::now();
    let run_for = Duration::from_secs_f64(args.seconds);
    let min_rounds = if args.smoke { 1 } else { MIN_ROUNDS };
    let mut rounds = 0;
    while rounds < min_rounds || began.elapsed() < run_for {
        run.fleet_round();
        run.kernel.speed(1);
        run.durable_round(durable_for);
        run.serve_round(&newest, segment);
        rounds += 1;
    }
    run.ops.check(
        durable::torn_newest_falls_back_one_epoch(deploys),
        "torn newest snapshot did not fall back exactly one epoch",
    );
    run.ops.check(
        setup.table.probe(&setup.reference.serve) == setup.probe,
        "served answers changed across the storms",
    );
    run.ops.check(
        !oversubscribed,
        "fewer than 2 cores: the reader and the publisher would share one",
    );

    run.summarize(&mut m);
    if args.trace {
        layers::measure(&run, &mut m);
    }
    let ops = &run.ops;
    m.set("peak_rss_mb", peak_rss_mb());
    m.set("bench.failed_ops", ops.failed as f64);
    m.set("bench.attempted_ops", ops.attempted as f64);

    // The detail line, then the result line.
    let inputs = &setup.inputs;
    let detail = object([
        ("workload", workload.name.into()),
        ("seed", args.seed.into()),
        ("seconds", args.seconds.into()),
        ("trace", args.trace.into()),
        ("machine", machine(threads, cores, oversubscribed)),
        (
            "input",
            object([
                ("servers", inputs.total_servers().into()),
                ("regions", inputs.regions.len().into()),
                ("weeks", fleet::WEEKS.into()),
                ("server_weeks", inputs.server_weeks().into()),
                (
                    "server_weeks_ingested",
                    setup.reference.server_weeks().into(),
                ),
                ("deploys", deploys.len().into()),
                ("fleet_scale", scale.into()),
            ]),
        ),
        (
            "failed_ops_share",
            (ops.failed as f64 / ops.attempted as f64).into(),
        ),
        (
            "oracle_digest",
            format!("{:016x}", setup.reference.digest ^ setup.probe).into(),
        ),
        (
            "kernel_ms",
            object([
                ("one_thread", (median(&run.kernel.times_s[0]) * 1e3).into()),
                ("two_threads", (median(&run.kernel.times_s[1]) * 1e3).into()),
            ]),
        ),
        ("timings", std::mem::take(&mut m.summaries).into()),
    ]);
    println!(
        "{}",
        serde_json::to_string(&object([("detail", detail)])).expect("detail serializes")
    );

    let names: Vec<(&str, &str)> = if args.trace {
        PER_LAYER.iter().map(|p| (p.name, p.unit)).collect()
    } else {
        END_TO_END.iter().map(|e| (e.name, e.unit)).collect()
    };
    let metrics: Map = names
        .into_iter()
        .map(|(name, unit)| {
            let value = *m
                .values
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            (
                name.to_string(),
                object([("value", value.into()), ("unit", unit.into())]),
            )
        })
        .collect();
    let correct = ops.failed == 0;
    let result = object([
        ("correct", correct.into()),
        ("attempted", ops.attempted.into()),
        ("failed", ops.failed.into()),
        ("metrics", metrics.into()),
    ]);
    println!(
        "{}",
        serde_json::to_string(&result).expect("result serializes")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
