//! Time-series diagnostics: autocorrelation, partial autocorrelation, and
//! the Ljung–Box whiteness statistic.
//!
//! These are the classical Box–Jenkins order-identification tools behind
//! auto-ARIMA: the PACF cutoff suggests the AR order, the ACF cutoff the MA
//! order, and Ljung–Box on the residuals checks whether a fitted model left
//! structure behind. [`crate::arima`] uses them to pre-screen its order grid
//! (`ArimaConfig::prescreen`), which is also how pmdarima keeps its search
//! tractable.

use serde::Serialize;

/// Verdict of [`series_drift`]: how far a series moved from a baseline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct DriftVerdict {
    /// Level shift in baseline standard deviations (|Δmean| / σ₀).
    pub level_shift: f64,
    /// Scale ratio σ₁/σ₀ (1.0 when both are degenerate).
    pub scale_ratio: f64,
    /// Whether either signal crossed its drift threshold.
    pub drifted: bool,
}

/// Level shift beyond this many baseline sigmas flags drift.
const DRIFT_LEVEL_SIGMAS: f64 = 3.0;
/// Scale ratio outside `[1/x, x]` flags drift.
const DRIFT_SCALE_FACTOR: f64 = 2.5;

/// Compare a series against baseline `(mean, std)` statistics captured at an
/// earlier fit, flagging level or scale shifts that should invalidate a
/// cached model (see `crate::cache`).
///
/// Deterministic and cheap (two passes over `values`). A near-constant
/// baseline (σ₀ ≈ 0) falls back to a relative-mean gate so flat series
/// don't flag drift on numeric noise.
pub fn series_drift(baseline_mean: f64, baseline_std: f64, values: &[f64]) -> DriftVerdict {
    if values.is_empty() {
        return DriftVerdict {
            level_shift: 0.0,
            scale_ratio: 1.0,
            drifted: false,
        };
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
    let std = var.sqrt();
    // Floor the denominator so flat baselines use a 5%-of-level gate.
    let denom = baseline_std.max(0.05 * baseline_mean.abs()).max(1e-9);
    let level_shift = (mean - baseline_mean).abs() / denom;
    let scale_ratio = if baseline_std <= 1e-9 && std <= 1e-9 {
        1.0
    } else {
        std / baseline_std.max(1e-9)
    };
    let drifted = level_shift > DRIFT_LEVEL_SIGMAS
        || !(1.0 / DRIFT_SCALE_FACTOR..=DRIFT_SCALE_FACTOR).contains(&scale_ratio);
    DriftVerdict {
        level_shift,
        scale_ratio,
        drifted,
    }
}

/// Sample autocorrelation for lags `0..=max_lag` (index 0 is always 1).
///
/// Returns an empty vector for series shorter than 2 points or with zero
/// variance.
pub fn acf(series: &[f64], max_lag: usize) -> Vec<f64> {
    let n = series.len();
    if n < 2 {
        return Vec::new();
    }
    let mean = seagull_timeseries::mean(series);
    let denom: f64 = series.iter().map(|v| (v - mean) * (v - mean)).sum();
    if denom <= 1e-12 {
        return Vec::new();
    }
    let max_lag = max_lag.min(n - 1);
    let mut out = Vec::with_capacity(max_lag + 1);
    for lag in 0..=max_lag {
        let num: f64 = series[lag..]
            .iter()
            .zip(series)
            .map(|(a, b)| (a - mean) * (b - mean))
            .sum();
        out.push(num / denom);
    }
    out
}

/// Partial autocorrelation for lags `1..=max_lag` via the Durbin–Levinson
/// recursion. `pacf(x, k)[0]` is the lag-1 partial autocorrelation.
pub fn pacf(series: &[f64], max_lag: usize) -> Vec<f64> {
    let rho = acf(series, max_lag);
    if rho.len() < 2 {
        return Vec::new();
    }
    let max_lag = rho.len() - 1;
    let mut phi_prev = vec![0.0f64; max_lag + 1];
    let mut phi = vec![0.0f64; max_lag + 1];
    let mut out = Vec::with_capacity(max_lag);
    // k = 1.
    phi_prev[1] = rho[1];
    out.push(rho[1]);
    let mut v = 1.0 - rho[1] * rho[1];
    for k in 2..=max_lag {
        let mut num = rho[k];
        for j in 1..k {
            num -= phi_prev[j] * rho[k - j];
        }
        if v.abs() <= 1e-12 {
            out.push(0.0);
            continue;
        }
        let phi_kk = num / v;
        for j in 1..k {
            phi[j] = phi_prev[j] - phi_kk * phi_prev[k - j];
        }
        phi[k] = phi_kk;
        v *= 1.0 - phi_kk * phi_kk;
        phi_prev[..=k].copy_from_slice(&phi[..=k]);
        out.push(phi_kk);
    }
    out
}

/// The Ljung–Box portmanteau statistic over the first `lags` residual
/// autocorrelations. Large values (vs. a χ²(lags) reference) indicate the
/// residuals are not white noise.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct LjungBox {
    /// The portmanteau statistic value.
    pub statistic: f64,
    /// Number of autocorrelation lags summed.
    pub lags: usize,
}

/// Computes the Ljung–Box statistic.
pub fn ljung_box(residuals: &[f64], lags: usize) -> Option<LjungBox> {
    let n = residuals.len();
    if n < lags + 2 {
        return None;
    }
    let rho = acf(residuals, lags);
    if rho.len() <= lags {
        return None;
    }
    let nf = n as f64;
    let statistic = nf
        * (nf + 2.0)
        * rho[1..=lags]
            .iter()
            .enumerate()
            .map(|(i, r)| r * r / (nf - (i + 1) as f64))
            .sum::<f64>();
    Some(LjungBox { statistic, lags })
}

/// Suggests `(max_p, max_q)` for an ARIMA grid from the significant PACF and
/// ACF lags (cutoff at the usual ±1.96/√n band), capped at `cap`.
pub fn suggest_orders(series: &[f64], cap: usize) -> (usize, usize) {
    let n = series.len();
    if n < 10 {
        return (cap, cap);
    }
    let band = 1.96 / (n as f64).sqrt();
    let last_significant = |vals: &[f64]| {
        vals.iter()
            .rposition(|v| v.abs() > band)
            .map(|i| i + 1)
            .unwrap_or(0)
    };
    let rho = acf(series, cap);
    if rho.len() <= 1 {
        // Degenerate series (constant / too short): no information, keep the
        // full grid.
        return (cap, cap);
    }
    let p = last_significant(&pacf(series, cap));
    let q = last_significant(&rho[1..]);
    (p.min(cap), q.min(cap))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ar1(phi: f64, n: usize) -> Vec<f64> {
        // Deterministic AR(1) sequence driven by well-mixed hash noise.
        let mut x = 0.0f64;
        (0..n)
            .map(|i| {
                let mut h = (i as u64).wrapping_add(0x9e37_79b9_7f4a_7c15);
                h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                h ^= h >> 31;
                let e = ((h >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
                x = phi * x + e;
                x
            })
            .collect()
    }

    #[test]
    fn acf_lag_zero_is_one() {
        let x = ar1(0.7, 500);
        let r = acf(&x, 10);
        assert!((r[0] - 1.0).abs() < 1e-12);
        assert_eq!(r.len(), 11);
    }

    #[test]
    fn acf_of_ar1_decays_geometrically() {
        let x = ar1(0.8, 4000);
        let r = acf(&x, 3);
        assert!(r[1] > 0.6, "lag1 {}", r[1]);
        // rho(2) ≈ rho(1)^2 for AR(1).
        assert!(
            (r[2] - r[1] * r[1]).abs() < 0.1,
            "{} vs {}",
            r[2],
            r[1] * r[1]
        );
    }

    #[test]
    fn pacf_of_ar1_cuts_off_after_lag_one() {
        let x = ar1(0.8, 4000);
        let p = pacf(&x, 6);
        assert!(p[0] > 0.6, "lag1 pacf {}", p[0]);
        for (i, v) in p.iter().enumerate().skip(1) {
            assert!(v.abs() < 0.1, "pacf lag {} = {v}", i + 1);
        }
    }

    #[test]
    fn white_noise_has_small_ljung_box() {
        let noise: Vec<f64> = (0..2000)
            .map(|i| {
                let h = (i as u64).wrapping_mul(0x9e3779b97f4a7c15) ^ 0xabcdef;
                let h = (h ^ (h >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
                ((h >> 11) as f64 / (1u64 << 53) as f64) - 0.5
            })
            .collect();
        let lb = ljung_box(&noise, 10).unwrap();
        // chi^2(10) 95th percentile is 18.3.
        assert!(lb.statistic < 25.0, "statistic {}", lb.statistic);
        let structured = ar1(0.8, 2000);
        let lb2 = ljung_box(&structured, 10).unwrap();
        assert!(lb2.statistic > 100.0, "structured {}", lb2.statistic);
    }

    #[test]
    fn degenerate_inputs() {
        assert!(acf(&[1.0], 3).is_empty());
        assert!(acf(&[2.0; 50], 3).is_empty(), "zero variance");
        assert!(pacf(&[1.0, 2.0], 0).is_empty());
        assert!(ljung_box(&[1.0, 2.0], 5).is_none());
    }

    #[test]
    fn suggest_orders_for_ar_process() {
        let x = ar1(0.8, 3000);
        let (p, q) = suggest_orders(&x, 5);
        assert!(p >= 1, "AR structure detected: p={p}");
        assert!(q <= 5);
        let flat = vec![0.0; 3000];
        assert_eq!(
            suggest_orders(&flat, 5),
            (5, 5),
            "degenerate falls back to cap"
        );
    }
}
