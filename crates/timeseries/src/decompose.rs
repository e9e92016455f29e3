//! Classical seasonal–trend decomposition.
//!
//! Used by the Feature Extraction module to quantify *how* seasonal a
//! server's load is (the paper separates servers with daily/weekly patterns
//! from pattern-free ones; seasonal strength is the continuous version of
//! that distinction, one of the "other features to improve accuracy" the
//! paper plans to add).
//!
//! The method is the classical additive decomposition: trend by centered
//! moving average over one period, seasonal component by per-phase means of
//! the detrended series, residual as what remains.
//!
//! Cost: O(n) for `n` points whatever the period (the moving average is a
//! difference of prefix sums); the strengths are O(n) with no temporaries.

use crate::series::TimeSeries;
use serde::Serialize;

/// An additive decomposition `value = trend + seasonal + residual`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Decomposition {
    /// Period in grid points.
    pub period: usize,
    /// Trend component (same length as the input; edges extended).
    pub trend: Vec<f64>,
    /// Seasonal component (repeats with `period`; zero-mean).
    pub seasonal: Vec<f64>,
    /// Residual.
    pub residual: Vec<f64>,
}

impl Decomposition {
    /// Seasonal strength in `[0, 1]`: `max(0, 1 - var(resid)/var(seasonal +
    /// resid))` (Hyndman's definition). Near 1 for strongly periodic load,
    /// near 0 for pattern-free load.
    pub fn seasonal_strength(&self) -> f64 {
        self.strengths().0
    }

    /// Trend strength in `[0, 1]`, analogous to seasonal strength.
    pub fn trend_strength(&self) -> f64 {
        self.strengths().1
    }

    /// Both strengths, `(seasonal, trend)`, each `max(0, 1 - var(resid) /
    /// var(component + resid))` with population variances taken in two
    /// passes. The three variances (of the residual, and of each component
    /// plus the residual) share the two loops, one sum chain each, so a
    /// chain sees the additions it would see alone and the loops wait on
    /// three adds at a time instead of one.
    pub fn strengths(&self) -> (f64, f64) {
        let n = self.residual.len().max(1) as f64;
        // Per point: the residual, and each component plus the residual.
        let rows = || {
            let components = self.seasonal.iter().zip(&self.trend);
            let lanes = |(r, (s, t)): (&f64, (&f64, &f64))| [*r, s + r, t + r];
            self.residual.iter().zip(components).map(lanes)
        };
        // `-0.0` is what `Iterator::sum` starts from.
        let mut sums = [-0.0f64; 3];
        for row in rows() {
            for (sum, x) in sums.iter_mut().zip(row) {
                *sum += x;
            }
        }
        let means = sums.map(|sum| sum / n);
        let mut squares = [-0.0f64; 3];
        for row in rows() {
            for ((sum, x), mean) in squares.iter_mut().zip(row).zip(means) {
                *sum += (x - mean) * (x - mean);
            }
        }
        let [residual, seasonal, trend] = squares.map(|sum| sum / n);
        let strength = |denom: f64| {
            if denom <= 1e-12 {
                0.0
            } else {
                (1.0 - residual / denom).max(0.0)
            }
        };
        (strength(seasonal), strength(trend))
    }
}

/// Decomposes a series with the given period (in grid points).
///
/// Returns `None` when the series is shorter than two periods, contains
/// NaNs, or `period < 2` — the decomposition would be meaningless.
pub fn decompose(series: &TimeSeries, period: usize) -> Option<Decomposition> {
    let n = series.len();
    if period < 2 || n < 2 * period || series.values().iter().any(|v| v.is_nan()) {
        return None;
    }
    let values = series.values();

    // Trend: centered moving average over `i ± period/2`, each window sum the
    // difference of two prefix sums. Edge windows shrink to what exists; the
    // full ones in between (`n >= 2 * period` leaves some) share one width.
    let half = period / 2;
    let mut prefix = Vec::with_capacity(n + 1);
    let mut running = 0.0;
    prefix.push(running);
    for &v in values {
        running += v;
        prefix.push(running);
    }
    let edge = |i: usize| {
        let lo = i.saturating_sub(half);
        let hi = (i + half).min(n - 1);
        (prefix[hi + 1] - prefix[lo]) / (hi + 1 - lo) as f64
    };
    let width = (2 * half + 1) as f64;
    let mut trend = Vec::with_capacity(n);
    trend.extend((0..half).map(edge));
    trend.extend(
        prefix[2 * half + 1..]
            .iter()
            .zip(&prefix)
            .map(|(above, below)| (above - below) / width),
    );
    trend.extend((n - half..n).map(edge));

    // Seasonal: per-phase mean of the detrended series, centered to zero.
    // One period at a time, so the phase is the position in the chunk.
    let mut phase_mean = vec![0.0f64; period];
    for (vs, ts) in values.chunks(period).zip(trend.chunks(period)) {
        for ((sum, v), t) in phase_mean.iter_mut().zip(vs).zip(ts) {
            *sum += v - t;
        }
    }
    // Phases the last, partial period reaches were seen once more.
    for (phase, sum) in phase_mean.iter_mut().enumerate() {
        *sum /= (n / period + usize::from(phase < n % period)) as f64;
    }
    let grand = crate::stats::mean(&phase_mean);
    for p in &mut phase_mean {
        *p -= grand;
    }

    let mut seasonal = Vec::with_capacity(n);
    while seasonal.len() < n {
        seasonal.extend_from_slice(&phase_mean[..period.min(n - seasonal.len())]);
    }
    let residual: Vec<f64> = values
        .iter()
        .zip(&trend)
        .zip(&seasonal)
        .map(|((v, t), s)| v - t - s)
        .collect();
    Some(Decomposition {
        period,
        trend,
        seasonal,
        residual,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Timestamp;
    use proptest::prelude::*;

    fn series(n: usize, f: impl Fn(usize) -> f64) -> TimeSeries {
        TimeSeries::new(Timestamp::from_days(10), 5, (0..n).map(f).collect()).unwrap()
    }

    #[test]
    fn pure_sine_has_high_seasonal_strength() {
        let period = 48;
        let s = series(480, |i| {
            20.0 + 10.0 * (2.0 * std::f64::consts::PI * i as f64 / period as f64).sin()
        });
        let d = decompose(&s, period).unwrap();
        assert!(d.seasonal_strength() > 0.95, "{}", d.seasonal_strength());
        // Components sum back to the signal.
        for i in 0..s.len() {
            let sum = d.trend[i] + d.seasonal[i] + d.residual[i];
            assert!((sum - s.values()[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn constant_series_has_no_seasonality() {
        let s = series(200, |_| 42.0);
        let d = decompose(&s, 20).unwrap();
        assert_eq!(d.seasonal_strength(), 0.0);
        assert!(d.seasonal.iter().all(|v| v.abs() < 1e-9));
    }

    #[test]
    fn noise_has_low_seasonal_strength() {
        // Deterministic pseudo-noise with no period-48 structure.
        let s = series(480, |i| {
            ((i as u64).wrapping_mul(0x9e3779b97f4a7c15) >> 40) as f64 / 1e5
        });
        let d = decompose(&s, 48).unwrap();
        assert!(d.seasonal_strength() < 0.4, "{}", d.seasonal_strength());
    }

    #[test]
    fn trend_strength_detects_slopes() {
        let s = series(300, |i| i as f64 * 0.1);
        let d = decompose(&s, 30).unwrap();
        assert!(d.trend_strength() > 0.95, "{}", d.trend_strength());
    }

    #[test]
    fn degenerate_inputs_rejected() {
        let s = series(30, |i| i as f64);
        assert!(decompose(&s, 1).is_none());
        assert!(decompose(&s, 20).is_none(), "needs two full periods");
        let mut nan = series(100, |i| i as f64);
        nan.values_mut()[5] = f64::NAN;
        assert!(decompose(&nan, 10).is_none());
    }

    #[test]
    fn seasonal_component_is_periodic() {
        let s = series(400, |i| (i % 40) as f64);
        let d = decompose(&s, 40).unwrap();
        for i in 0..s.len() - 40 {
            assert!((d.seasonal[i] - d.seasonal[i + 40]).abs() < 1e-12);
        }
    }

    /// The kernel `decompose` replaced: every trend point re-sums its whole
    /// window, O(n·period). Kept as the oracle for the prefix-sum trend.
    fn decompose_reference(series: &TimeSeries, period: usize) -> Option<Decomposition> {
        let n = series.len();
        if period < 2 || n < 2 * period || series.values().iter().any(|v| v.is_nan()) {
            return None;
        }
        let values = series.values();
        let half = period / 2;
        let trend: Vec<f64> = (0..n)
            .map(|i| {
                let lo = i.saturating_sub(half);
                let hi = (i + half).min(n - 1);
                crate::stats::mean(&values[lo..=hi])
            })
            .collect();
        let mut phase_sum = vec![0.0f64; period];
        let mut phase_cnt = vec![0usize; period];
        for i in 0..n {
            let phase = i % period;
            phase_sum[phase] += values[i] - trend[i];
            phase_cnt[phase] += 1;
        }
        let mut phase_mean: Vec<f64> = phase_sum
            .iter()
            .zip(&phase_cnt)
            .map(|(s, c)| s / (*c).max(1) as f64)
            .collect();
        let grand = crate::stats::mean(&phase_mean);
        for p in &mut phase_mean {
            *p -= grand;
        }
        let seasonal: Vec<f64> = (0..n).map(|i| phase_mean[i % period]).collect();
        let residual: Vec<f64> = (0..n).map(|i| values[i] - trend[i] - seasonal[i]).collect();
        Some(Decomposition {
            period,
            trend,
            seasonal,
            residual,
        })
    }

    /// The variance `strengths` fused: one replayable iterator, a mean pass
    /// and a squares pass.
    fn variance(xs: impl ExactSizeIterator<Item = f64> + Clone) -> f64 {
        let n = xs.len().max(1) as f64;
        let mean = xs.clone().sum::<f64>() / n;
        xs.map(|x| (x - mean) * (x - mean)).sum::<f64>() / n
    }

    /// The strength formula as it was: one component at a time, two
    /// variances each.
    fn strength_reference(component: &[f64], residual: &[f64]) -> f64 {
        let denom = variance(component.iter().zip(residual).map(|(c, r)| c + r));
        if denom <= 1e-12 {
            return 0.0;
        }
        (1.0 - variance(residual.iter().copied()) / denom).max(0.0)
    }

    fn assert_strengths_match_reference(d: &Decomposition) -> (f64, f64) {
        let (seasonal, trend) = d.strengths();
        let want = (
            strength_reference(&d.seasonal, &d.residual),
            strength_reference(&d.trend, &d.residual),
        );
        assert_eq!(seasonal.to_bits(), want.0.to_bits());
        assert_eq!(trend.to_bits(), want.1.to_bits());
        assert_eq!(d.seasonal_strength().to_bits(), seasonal.to_bits());
        assert_eq!(d.trend_strength().to_bits(), trend.to_bits());
        (seasonal, trend)
    }

    #[test]
    fn fused_strengths_match_on_degenerate_components() {
        // A constant series: both denominators are under the `1e-12` floor.
        let flat = decompose(&series(600, |_| 42.0), 288).unwrap();
        assert_eq!(assert_strengths_match_reference(&flat), (0.0, 0.0));
        // Nothing at all, and nothing but negative zeros.
        for residual in [vec![], vec![-0.0; 4]] {
            let empty = Decomposition {
                period: 2,
                trend: residual.clone(),
                seasonal: residual.clone(),
                residual,
            };
            assert_eq!(assert_strengths_match_reference(&empty), (0.0, 0.0));
        }
    }

    proptest! {
        /// Prefix-sum trend against window re-summing: every component within
        /// 1e-9 on load-sized values, `None` in the same cases (short series,
        /// NaN, period < 2), and the strengths bit-identical on the same
        /// components.
        #[test]
        fn prefix_sum_trend_matches_reference(
            values in proptest::collection::vec(prop_oneof![40 => 0.0f64..100.0, 1 => Just(f64::NAN)], 0..700),
            nan_free in any::<bool>(),
            period in 0usize..320,
        ) {
            let values = if nan_free {
                values.into_iter().map(|v| if v.is_nan() { 50.0 } else { v }).collect()
            } else {
                values
            };
            let s = TimeSeries::new(Timestamp::from_days(10), 5, values).unwrap();
            let got = decompose(&s, period);
            let want = decompose_reference(&s, period);
            prop_assert_eq!(got.is_some(), want.is_some());
            if let (Some(got), Some(want)) = (got, want) {
                prop_assert_eq!(got.period, want.period);
                for (g, w) in [
                    (&got.trend, &want.trend),
                    (&got.seasonal, &want.seasonal),
                    (&got.residual, &want.residual),
                ] {
                    prop_assert_eq!(g.len(), w.len());
                    for (a, b) in g.iter().zip(w) {
                        prop_assert!((a - b).abs() <= 1e-9, "{} vs {}", a, b);
                    }
                }
                assert_strengths_match_reference(&got);
            }
        }
    }
}
