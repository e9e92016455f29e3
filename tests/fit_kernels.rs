//! Fit-kernel parity tests: the randomized SSA subspace kernel against the
//! dense Jacobi path at the *forecast* level (not just factorization-level),
//! across window sizes, ranks, and signal seeds.
//!
//! The property runs under proptest; it also has a fixed deterministic
//! twin so the invariant stays exercised where proptest is unavailable.

use proptest::prelude::*;
use seagull::forecast::ssa::RANDOMIZED_PARITY_TOL;
use seagull::forecast::{Forecaster, SsaConfig, SsaForecaster, SsaKernel};
use seagull::timeseries::{TimeSeries, Timestamp};

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

/// Forecast-level parity between the two kernels on one configuration.
fn assert_kernel_parity(window: usize, max_rank: usize, seed: u64) {
    let hist = signal(seed, 2016);
    let horizon = 288;
    let fast = ssa(window, max_rank, SsaKernel::Randomized)
        .fit_predict(&hist, horizon)
        .expect("randomized fit");
    let dense = ssa(window, max_rank, SsaKernel::Dense)
        .fit_predict(&hist, horizon)
        .expect("dense fit");
    let diff = max_abs_diff(&fast, &dense);
    assert!(
        diff <= RANDOMIZED_PARITY_TOL,
        "window={window} rank={max_rank} seed={seed}: kernel divergence \
         {diff} exceeds tolerance {RANDOMIZED_PARITY_TOL}"
    );
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
