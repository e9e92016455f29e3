//! The durable phase: journaled deploys against restart recovery. Each pass
//! replays the captured deploys of the set-up pass (4 regions × 4 weeks)
//! into a fresh `DurableServeSink` over a fresh `MemoryBlobStore`, drops the
//! sink and its service, recovers into a new service, and answers the probe.

use crate::fleet::put_failures;
use crate::storm::QueryTable;
use crate::trace::Deploy;
use crate::util::secs;
use seagull_core::pipeline::DeploySink;
use seagull_serve::persist::SNAPSHOT_KIND;
use seagull_serve::{snapshot_key, DurableServeSink, RecoveryReport, ServeService};
use seagull_telemetry::blobstore::{BlobStore, MemoryBlobStore};
use std::sync::Arc;
use std::time::Instant;

pub struct DurablePass {
    /// Wall of the journaled deploys.
    pub deploy_s: f64,
    /// `recover` call until the probe's first answer.
    pub recover_s: f64,
    pub snapshot_bytes: u64,
    pub journal_records: u64,
    pub put_failures: u64,
    pub report: RecoveryReport,
    /// The recovered service answers the probe exactly as the service that
    /// was dropped did, and as the reference service does.
    pub probe_matches: bool,
}

fn deploy_all(deploys: &[Deploy]) -> (Arc<MemoryBlobStore>, ServeService, DurableServeSink, f64) {
    let store = Arc::new(MemoryBlobStore::new());
    let serve = ServeService::with_defaults();
    let sink = DurableServeSink::new(serve.clone(), Arc::clone(&store) as Arc<dyn BlobStore>);
    let began = Instant::now();
    for deploy in deploys {
        sink.on_deploy(&deploy.event());
    }
    let deploy_s = secs(began.elapsed());
    (store, serve, sink, deploy_s)
}

pub fn run_pass(deploys: &[Deploy], table: &QueryTable, expect_probe: u64) -> DurablePass {
    let (store, serve, sink, deploy_s) = deploy_all(deploys);
    let before_drop = table.probe(&serve);
    let journal_records = sink.journal_records() as u64;
    let put_failures = put_failures(&serve);
    let snapshot_bytes = store
        .list(SNAPSHOT_KIND)
        .expect("memory store lists")
        .iter()
        .map(|key| store.size(key).expect("listed blob present"))
        .sum();
    drop(sink);
    drop(serve);

    let recovered = ServeService::with_defaults();
    let began = Instant::now();
    let (_sink, report) = DurableServeSink::recover(recovered.clone(), store as Arc<dyn BlobStore>)
        .expect("memory store reads");
    let first = table.answer(&recovered, &table.queries[0], false);
    let recover_s = secs(began.elapsed());
    let probe_matches = first.is_ok_and(|d| d == table.expected[0])
        && table.probe(&recovered) == before_drop
        && before_drop == expect_probe
        && report.regions_unrecovered.is_empty();
    DurablePass {
        deploy_s,
        recover_s,
        snapshot_bytes,
        journal_records,
        put_failures,
        report,
        probe_matches,
    }
}

/// The torn-write check, untimed: with the newest snapshot blob of one
/// region cut in half, recovery must fall back exactly one epoch for that
/// region and restore every other region's newest.
pub fn torn_newest_falls_back_one_epoch(deploys: &[Deploy]) -> bool {
    let Some(newest) = deploys.last() else {
        return false;
    };
    let of_region: Vec<&Deploy> = deploys
        .iter()
        .filter(|d| d.region == newest.region)
        .collect();
    let [.., previous, _] = of_region.as_slice() else {
        return false;
    };
    let (store, serve, sink, _) = deploy_all(deploys);
    drop(sink);
    drop(serve);
    let key = snapshot_key(&newest.region, of_region.len() as u64);
    let whole = store.get(&key).expect("newest snapshot blob present");
    store
        .put(&key, whole.slice(0..whole.len() / 2))
        .expect("memory store accepts every put");

    let recovered = ServeService::with_defaults();
    let Ok((_sink, report)) =
        DurableServeSink::recover(recovered.clone(), store as Arc<dyn BlobStore>)
    else {
        return false;
    };
    let fell_back = recovered.snapshot(&newest.region).is_some_and(|s| {
        s.version() == previous.version && s.week_start_day() == previous.week_start_day
    });
    let others_newest = deploys
        .iter()
        .filter(|d| d.region != newest.region)
        .all(|d| {
            recovered
                .snapshot(&d.region)
                .is_some_and(|s| s.version() >= d.version)
        });
    fell_back
        && others_newest
        && report.snapshot_fallbacks == 1
        && report.regions_unrecovered.is_empty()
}
