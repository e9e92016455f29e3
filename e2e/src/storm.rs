//! The serve phase: a seeded query table, a closed-loop reader, and an
//! open-loop publisher.
//!
//! One reader thread issues the table's queries back to back (closed loop,
//! one client). In a storm segment one publisher thread swaps a region's
//! snapshot every 5 ms, round robin, on a fixed schedule (open loop): each
//! publish is timed from the moment it was due, and how late the generator
//! itself ran is reported. A quiet segment of the same length, reader only,
//! runs before each storm segment. Published snapshots carry the same
//! predictions as the one they replace, so every answer stays checkable
//! whichever epoch the reader lands on.

use crate::trace::Deploy;
use crate::util::{Fnv, LogHist};
use seagull_serve::{ModelSnapshot, ServeError, ServeService};
use seagull_telemetry::chaos::DetRng;
use seagull_timeseries::TimeSeries;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

pub const KINDS: usize = 4;
const TABLE_LEN: usize = 4096;
/// Queries the durable phase and the pass oracle replay.
pub const PROBE_LEN: usize = 1000;
const BATCH: usize = 8;
const MAX_HORIZON: u64 = 96;
pub const PUBLISH_EVERY: Duration = Duration::from_millis(5);

pub enum Query {
    Predict {
        region: usize,
        server: u64,
        horizon: usize,
    },
    Day {
        region: usize,
        server: u64,
        day: i64,
    },
    Window {
        region: usize,
        server: u64,
        day: i64,
    },
    Batch {
        region: usize,
        requests: Vec<(u64, usize)>,
    },
}

impl Query {
    fn kind(&self) -> usize {
        match self {
            Query::Predict { .. } => 0,
            Query::Day { .. } => 1,
            Query::Window { .. } => 2,
            Query::Batch { .. } => 3,
        }
    }
}

/// The seeded request mix with the answer each request must give.
pub struct QueryTable {
    pub regions: Vec<String>,
    pub queries: Vec<Query>,
    /// `answer(.., full = false)` of each query on the reference service.
    pub expected: Vec<u64>,
}

fn fold_series(h: &mut Fnv, series: &TimeSeries, full: bool) {
    let values = series.values();
    h.u64(values.len() as u64);
    h.i64(series.start().minutes());
    if full {
        h.f64s(values);
    } else if let (Some(first), Some(last)) = (values.first(), values.last()) {
        h.f64s(&[*first, *last]);
    }
}

impl QueryTable {
    /// A 25/25/25/25 mix of `predict` (horizon 1..=96), `predict_day`,
    /// `ll_window` and `predict_batch` of 8, over servers drawn uniformly
    /// from the snapshots `serve` holds; only requests that succeed there.
    pub fn build(serve: &ServeService, regions: &[String], seed: u64) -> QueryTable {
        let mut servers: Vec<(usize, u64, i64)> = Vec::new();
        for (r, region) in regions.iter().enumerate() {
            let snapshot = serve
                .snapshot(region)
                .expect("reference pass deployed every region");
            servers.extend(
                snapshot
                    .servers()
                    .map(|(id, s)| (r, id, s.materialized_day())),
            );
        }
        assert!(!servers.is_empty(), "no served servers to query");
        let mut rng = DetRng::new(seed ^ 0x5e47_e11e);
        let pick = |rng: &mut DetRng| servers[(rng.next_u64() % servers.len() as u64) as usize];
        let horizon = |rng: &mut DetRng| (1 + rng.next_u64() % MAX_HORIZON) as usize;
        let mut table = QueryTable {
            regions: regions.to_vec(),
            queries: Vec::with_capacity(TABLE_LEN),
            expected: Vec::new(),
        };
        for i in 0..TABLE_LEN {
            let (region, server, day) = pick(&mut rng);
            table.queries.push(match i % KINDS {
                0 => Query::Predict {
                    region,
                    server,
                    horizon: horizon(&mut rng),
                },
                1 => Query::Day {
                    region,
                    server,
                    day,
                },
                2 => Query::Window {
                    region,
                    server,
                    day,
                },
                _ => {
                    let in_region: Vec<u64> = servers
                        .iter()
                        .filter(|s| s.0 == region)
                        .map(|s| s.1)
                        .collect();
                    let requests = (0..BATCH)
                        .map(|_| {
                            let id = in_region[(rng.next_u64() % in_region.len() as u64) as usize];
                            (id, horizon(&mut rng))
                        })
                        .collect();
                    Query::Batch { region, requests }
                }
            });
        }
        table.expected = table
            .queries
            .iter()
            .map(|q| {
                table
                    .answer(serve, q, false)
                    .expect("table holds only answerable requests")
            })
            .collect();
        table
    }

    /// Issues one request and folds the response into a digest: the whole
    /// response when `full`, else its shape and end points (cheap enough to
    /// check inside the closed loop).
    pub fn answer(
        &self,
        serve: &ServeService,
        query: &Query,
        full: bool,
    ) -> Result<u64, ServeError> {
        let mut h = Fnv::new();
        match query {
            Query::Predict {
                region,
                server,
                horizon,
            } => {
                fold_series(
                    &mut h,
                    &serve.predict(&self.regions[*region], *server, *horizon)?,
                    full,
                );
            }
            Query::Day {
                region,
                server,
                day,
            } => {
                fold_series(
                    &mut h,
                    &serve.predict_day(&self.regions[*region], *server, *day)?,
                    full,
                );
            }
            Query::Window {
                region,
                server,
                day,
            } => {
                let w = serve.ll_window(&self.regions[*region], *server, *day)?;
                h.i64(w.start.minutes());
                h.u64(u64::from(w.duration_min));
                h.u64(w.mean_load.to_bits());
            }
            Query::Batch { region, requests } => {
                for response in serve.predict_batch(&self.regions[*region], requests)? {
                    fold_series(&mut h, &response?, full);
                }
            }
        }
        Ok(h.0)
    }

    /// Full digest of the first [`PROBE_LEN`] answers; errors fold in as a
    /// marker, so a failing service never matches a healthy one.
    pub fn probe(&self, serve: &ServeService) -> u64 {
        let mut h = Fnv::new();
        for query in &self.queries[..PROBE_LEN.min(self.queries.len())] {
            h.u64(self.answer(serve, query, true).unwrap_or(0xdead));
        }
        h.0
    }
}

/// What one reader segment saw.
#[derive(Default)]
pub struct ReaderOut {
    pub requests: u64,
    pub wall: Duration,
    pub all: LogHist,
    pub by_kind: [LogHist; KINDS],
    pub errors: u64,
    pub mismatches: u64,
}

impl ReaderOut {
    pub fn qps(&self) -> f64 {
        self.requests as f64 / self.wall.as_secs_f64()
    }
}

/// Closed loop, one client: next request only after the previous answer.
fn read_until(
    serve: &ServeService,
    table: &QueryTable,
    offset: usize,
    stop: impl Fn(Instant) -> bool,
) -> ReaderOut {
    let mut out = ReaderOut::default();
    let began = Instant::now();
    let mut i = offset % table.queries.len();
    loop {
        let query = &table.queries[i];
        let sent = Instant::now();
        let answer = table.answer(serve, query, false);
        let done = Instant::now();
        let latency = done - sent;
        out.all.record(latency);
        out.by_kind[query.kind()].record(latency);
        out.requests += 1;
        match answer {
            Ok(digest) => out.mismatches += u64::from(digest != table.expected[i]),
            Err(_) => out.errors += 1,
        }
        i = (i + 1) % table.queries.len();
        if stop(done) {
            out.wall = done - began;
            return out;
        }
    }
}

/// Builds the snapshot a publish swaps in: the region's newest captured
/// predictions, with the fitted models the serving snapshot already holds.
fn rebuild(serve: &ServeService, deploy: &Deploy) -> ModelSnapshot {
    let mut snapshot = ModelSnapshot::from_predictions(
        &deploy.region,
        deploy.version,
        deploy.week_start_day,
        &deploy.model_name,
        &deploy.predictions,
    );
    if let Some(current) = serve.snapshot(&deploy.region) {
        for (id, server) in current.servers() {
            if let Some(model) = server.model() {
                snapshot.attach_model(id, model.clone());
            }
        }
    }
    snapshot
}

/// What the publisher of one storm segment saw.
#[derive(Default)]
pub struct PublisherOut {
    /// Publish latency from the due time.
    pub latency: LogHist,
    /// How late each publish started, from the due time.
    pub late: LogHist,
    pub max_late: Duration,
    pub publishes: u64,
}

/// Open loop: publish `k` is due at `began + k * PUBLISH_EVERY` whatever
/// happened to publish `k - 1`. The next snapshot is built in the slack
/// before its due time, so building is not part of the timed publish.
fn publish_until(
    serve: &ServeService,
    newest: &[&Deploy],
    began: Instant,
    end: Instant,
) -> PublisherOut {
    let mut out = PublisherOut::default();
    for k in 0u32.. {
        let due = began + PUBLISH_EVERY * k;
        if due >= end {
            break;
        }
        let snapshot = rebuild(serve, newest[k as usize % newest.len()]);
        // Sleep most of the wait, spin the rest: a sleep alone wakes tens of
        // microseconds late, which would be charged to every publish.
        let now = Instant::now();
        if due > now + Duration::from_micros(300) {
            std::thread::sleep(due - now - Duration::from_micros(300));
        }
        while Instant::now() < due {
            std::hint::spin_loop();
        }
        let started = Instant::now();
        serve.publish(snapshot);
        let done = Instant::now();
        let late = started - due;
        out.late.record(late);
        out.max_late = out.max_late.max(late);
        out.latency.record(done - due);
        out.publishes += 1;
    }
    out
}

/// One quiet segment (reader only) then one storm segment (reader beside
/// publisher), each `segment` long. Two harness threads at most.
pub fn segment_pair(
    serve: &ServeService,
    table: &QueryTable,
    newest: &[&Deploy],
    segment: Duration,
    offset: usize,
) -> (ReaderOut, ReaderOut, PublisherOut) {
    let quiet_end = Instant::now() + segment;
    let quiet = read_until(serve, table, offset, |now| now >= quiet_end);

    // Release in the publisher pairs with Acquire in the reader's stop test:
    // a reader that sees the flag also sees every publish before it.
    let publisher_done = AtomicBool::new(false);
    let began = Instant::now();
    let (storm, published) = std::thread::scope(|scope| {
        let publisher = scope.spawn(|| {
            let out = publish_until(serve, newest, began, began + segment);
            publisher_done.store(true, Ordering::Release);
            out
        });
        let storm = read_until(serve, table, offset + quiet.requests as usize, |_| {
            publisher_done.load(Ordering::Acquire)
        });
        (storm, publisher.join().expect("publisher thread"))
    });
    (quiet, storm, published)
}
