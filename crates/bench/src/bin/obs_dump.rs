//! obs_dump — run a simulated pipeline week under fault injection and dump
//! the observability exports: Prometheus text exposition, span JSON-lines,
//! and a chrome://tracing trace file under `experiments/`.
//!
//! The bin doubles as the CI smoke check for the obs layer: it re-parses
//! both text exports and verifies the stable export is byte-identical
//! across two identical runs before exiting.

use seagull_bench::spans::parse_span_json_lines;
use seagull_bench::{emit_json, fleets};
use seagull_core::dashboard;
use seagull_core::pipeline::{AmlPipeline, PipelineConfig};
use seagull_obs::{export, Obs, TimeMode};
use seagull_telemetry::blobstore::MemoryBlobStore;
use seagull_telemetry::chaos::{ChaosBlobStore, ChaosConfig};
use seagull_telemetry::extract::LoadExtraction;
use serde_json::json;
use std::sync::Arc;

/// One deterministic two-week simulation: flaky storage, two pipeline runs
/// into one shared observability handle.
fn simulate(seed: u64) -> (Obs, AmlPipeline, String) {
    let (fleet, spec) = fleets::region_fleet(seed, 60, 2);
    let region = spec.regions[0].name.clone();
    let start = spec.start_day;
    let mem = Arc::new(MemoryBlobStore::new());
    LoadExtraction::columnar(5)
        .run(
            &fleet,
            std::slice::from_ref(&region),
            &[start, start + 7],
            mem.as_ref(),
        )
        .expect("extraction succeeds");
    let chaos = Arc::new(ChaosBlobStore::new(
        mem,
        ChaosConfig {
            seed,
            transient_fault_prob: 0.25,
            ..ChaosConfig::default()
        },
    ));
    let obs = Obs::new();
    let pipeline = AmlPipeline::new(PipelineConfig::production(), Arc::clone(&chaos) as Arc<_>)
        .with_obs(obs.clone());
    pipeline.run_region_week(&region, start);
    pipeline.run_region_week(&region, start + 7);
    chaos.export_metrics(obs.registry());
    (obs, pipeline, region)
}

fn main() -> std::io::Result<()> {
    let (obs, pipeline, region) = simulate(42);

    let prom = export::to_prometheus(&obs.registry().snapshot());
    let spans = obs.tracer().spans();
    let span_lines = export::spans_to_json_lines(&spans, TimeMode::Full);
    let chrome = export::spans_to_chrome_trace(&spans);

    println!("=== Prometheus exposition (region {region}) ===");
    print!("{prom}");
    println!("\n=== Span JSON-lines ===");
    print!("{span_lines}");
    println!("\n=== Dashboard ===");
    print!("{}", dashboard::render(&pipeline.docs, &pipeline.incidents));

    // Smoke checks: both text exports must survive their own parsers, and
    // the stable export must be byte-identical for a same-seed rerun.
    let parsed = export::parse_prometheus(&prom).expect("prometheus re-parses");
    assert!(!parsed.is_empty(), "exposition has samples");
    assert!(
        parsed
            .iter()
            .any(|s| s.name == "seagull_retry_attempts_total"),
        "retry counters exported"
    );
    let reparsed = parse_span_json_lines(&span_lines).expect("spans re-parse");
    assert_eq!(reparsed.len(), spans.len(), "every span round-trips");
    assert!(
        spans.iter().any(|s| s.name == "run-week"),
        "run spans recorded"
    );
    let (obs2, _, _) = simulate(42);
    assert_eq!(
        obs.stable_export(),
        obs2.stable_export(),
        "same seed, byte-identical stable export"
    );
    println!("\n[smoke: exports parse; stable export reproducible]");

    // The committed count is of the stable samples: the full exposition
    // also holds volatile series whose count moves from run to run.
    let stable = export::to_prometheus(&obs.registry().stable_snapshot());
    let stable_samples = export::parse_prometheus(&stable).expect("stable export re-parses");

    let trace_path = emit_json(
        "obs_dump",
        &json!({
            "metrics": stable_samples.len(),
            "spans": spans.len(),
            "stable_export_bytes": obs.stable_export().len(),
        }),
    )?;
    let chrome_path = trace_path.with_file_name("obs_dump_trace.json");
    std::fs::write(&chrome_path, chrome)?;
    eprintln!("[chrome trace written to {}]", chrome_path.display());

    Ok(())
}
