//! Fit-kernel parity tests: the randomized SSA subspace kernel against the
//! dense Jacobi path at the *forecast* level (not just factorization-level),
//! across window sizes, ranks, and signal seeds.
//!
//! The property runs under proptest; it also has a fixed deterministic
//! twin so the invariant stays exercised where proptest is unavailable.

use proptest::prelude::*;
use seagull::forecast::ssa::RANDOMIZED_PARITY_TOL;
use seagull::forecast::{Forecaster, SsaConfig, SsaForecaster, SsaKernel};
use seagull::telemetry::blobstore::{BlobStore, MemoryBlobStore};
use seagull::telemetry::extract::{LoadExtraction, RegionWeekBatch};
use seagull::telemetry::fleet::{ClassMix, FleetGenerator, FleetSpec};
use seagull::timeseries::{fill_gaps, GapFill, TimeSeries, Timestamp};

/// A mixed daily + fast-cycle signal with deterministic phase/amplitude
/// drawn from `seed`, long enough for any window in the tested range.
fn signal(seed: u64, len: usize) -> TimeSeries {
    let a = 20.0 + (seed % 7) as f64 * 3.0;
    let b = 4.0 + (seed % 5) as f64 * 2.0;
    let phase = (seed % 11) as f64 * 0.37;
    TimeSeries::from_fn(Timestamp::from_days(30), 5, len, |t| {
        let m = t.minutes() as f64;
        50.0 + a * (2.0 * std::f64::consts::PI * m / 1440.0 + phase).sin()
            + b * (2.0 * std::f64::consts::PI * m / 360.0).cos()
            + 2.0 * ((m / 31.0).sin() * (m / 13.0).cos())
    })
    .unwrap()
}

fn ssa(window: usize, max_rank: usize, kernel: SsaKernel) -> SsaForecaster {
    SsaForecaster::new(SsaConfig {
        window,
        max_rank,
        kernel,
        ..SsaConfig::default()
    })
}

/// Max |a - b| across two equal-length forecasts.
fn max_abs_diff(a: &TimeSeries, b: &TimeSeries) -> f64 {
    assert_eq!(a.len(), b.len());
    a.values()
        .iter()
        .zip(b.values())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0f64, f64::max)
}

/// Forecast-level parity between `fast` and the dense kernel on one history.
fn assert_parity_with_dense(fast: &SsaForecaster, hist: &TimeSeries, what: &str) {
    let (window, max_rank) = (fast.config().window, fast.config().max_rank);
    let horizon = 288;
    let fast = fast.fit_predict(hist, horizon).expect("fast fit");
    let dense = ssa(window, max_rank, SsaKernel::Dense)
        .fit_predict(hist, horizon)
        .expect("dense fit");
    let diff = max_abs_diff(&fast, &dense);
    assert!(
        diff <= RANDOMIZED_PARITY_TOL,
        "window={window} rank={max_rank} {what}: kernel divergence \
         {diff} exceeds tolerance {RANDOMIZED_PARITY_TOL}"
    );
}

/// Forecast-level parity between the two kernels on one configuration.
fn assert_kernel_parity(window: usize, max_rank: usize, seed: u64) {
    assert_parity_with_dense(
        &ssa(window, max_rank, SsaKernel::Randomized),
        &signal(seed, 2016),
        &format!("seed={seed}"),
    );
}

/// The series the pipeline hands its forecaster: one week of a four-region
/// fleet on a pattern-heavy class mix (10 / 30 / 35 / 15 / 10, the
/// population where an SSA fit has structure to find), through the
/// extraction blob and the pipeline's gap repair.
fn fleet_server_weeks() -> Vec<(String, TimeSeries)> {
    let mut spec = FleetSpec::four_regions(90, 2);
    spec.mix = ClassMix {
        short_lived: 0.10,
        stable: 0.30,
        daily: 0.35,
        weekly: 0.15,
        unstable: 0.10,
    };
    let week = spec.start_day;
    let regions: Vec<String> = spec.regions.iter().map(|r| r.name.clone()).collect();
    let fleet = FleetGenerator::new(spec).generate_weeks(1);
    let store = MemoryBlobStore::new();
    let keys = LoadExtraction::default()
        .run(&fleet, &regions, &[week], &store)
        .unwrap();
    let mut out = Vec::new();
    for (region, key) in regions.iter().zip(&keys) {
        let blob = store.get(key).unwrap();
        for mut s in RegionWeekBatch::decode(&blob).unwrap().extract(5) {
            fill_gaps(&mut s.series, GapFill::Linear);
            out.push((format!("{region}/{}", s.id.0), s.series));
        }
    }
    out
}

#[test]
fn randomized_matches_dense_across_fixed_grid() {
    // A deterministic sweep over the (window, rank) corners the pipeline
    // actually uses, plus off-default shapes.
    for &(window, rank) in &[(72usize, 12usize), (72, 4), (144, 12), (96, 8), (288, 6)] {
        for seed in [1u64, 17, 90] {
            assert_kernel_parity(window, rank, seed);
        }
    }

    // The pipeline's configuration on the pipeline's inputs: `Auto` against
    // dense on every server-week of the fleet.
    let auto = SsaForecaster::new(SsaConfig::default());
    assert_eq!(auto.config().kernel, SsaKernel::Auto);
    let server_weeks = fleet_server_weeks();
    assert_eq!(server_weeks.len(), 114, "2 + 8 + 24 + 80 servers");
    for (server, hist) in &server_weeks {
        assert_parity_with_dense(&auto, hist, server);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomized-vs-dense forecast parity holds across arbitrary window
    /// sizes, rank caps, and signal seeds — not just the defaults.
    #[test]
    fn randomized_matches_dense_everywhere(
        window in 48usize..320,
        max_rank in 2usize..16,
        seed in any::<u64>(),
    ) {
        assert_kernel_parity(window, max_rank, seed);
    }
}
