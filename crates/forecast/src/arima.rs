//! ARIMA with automatic order search.
//!
//! "ARIMA is computationally intensive since it searches the optimal values
//! of six parameters per server in order to make an accurate load prediction"
//! (Section 2.1). Those six are the non-seasonal orders `(p, d, q)` and the
//! seasonal orders `(P, D, Q)`. This module implements:
//!
//! * non-seasonal and seasonal differencing / integration;
//! * Hannan–Rissanen two-stage estimation (a long autoregression supplies
//!   residual estimates, then ARMA coefficients come from one OLS);
//! * conditional-sum-of-squares refinement by numerical gradient descent;
//! * AIC-driven grid search over all six orders — the part that makes
//!   auto-ARIMA expensive, faithfully reproduced;
//! * multi-step forecasting with innovation zeroing and re-integration.
//!
//! Seasonal AR/MA terms enter additively at lags `s, 2s, …` (a pragmatic
//! simplification of the multiplicative Box–Jenkins polynomial; for load
//! telemetry the difference is far below the noise floor).

use crate::{check_history, FittedModel, ForecastError, ForecastGrid, Forecaster};
use seagull_linalg::{least_squares, Matrix};
use seagull_timeseries::TimeSeries;
use serde::{Deserialize, Serialize};

/// A full ARIMA order: `(p, d, q) × (P, D, Q)` with seasonal period `s`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ArimaOrder {
    /// Non-seasonal autoregressive order.
    pub p: usize,
    /// Non-seasonal differencing order.
    pub d: usize,
    /// Non-seasonal moving-average order.
    pub q: usize,
    /// Seasonal autoregressive order.
    pub sp: usize,
    /// Seasonal differencing order.
    pub sd: usize,
    /// Seasonal moving-average order.
    pub sq: usize,
    /// Seasonal period in grid points (e.g. 288 for daily at 5-minute grid).
    pub period: usize,
}

impl ArimaOrder {
    /// A plain non-seasonal order.
    pub fn simple(p: usize, d: usize, q: usize) -> ArimaOrder {
        ArimaOrder {
            p,
            d,
            q,
            sp: 0,
            sd: 0,
            sq: 0,
            period: 0,
        }
    }

    /// Number of estimated coefficients (for AIC).
    fn k(&self) -> usize {
        1 + self.p + self.q + self.sp + self.sq
    }

    /// AR lags (regular then seasonal).
    fn ar_lags(&self) -> Vec<usize> {
        let mut l: Vec<usize> = (1..=self.p).collect();
        l.extend((1..=self.sp).map(|j| j * self.period));
        l
    }

    /// MA lags (regular then seasonal).
    fn ma_lags(&self) -> Vec<usize> {
        let mut l: Vec<usize> = (1..=self.q).collect();
        l.extend((1..=self.sq).map(|j| j * self.period));
        l
    }
}

impl std::fmt::Display for ArimaOrder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ARIMA({},{},{})({},{},{})[{}]",
            self.p, self.d, self.q, self.sp, self.sd, self.sq, self.period
        )
    }
}

/// ARIMA search configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArimaConfig {
    /// Maximum regular AR order searched.
    pub max_p: usize,
    /// Maximum regular differencing searched.
    pub max_d: usize,
    /// Maximum regular MA order searched.
    pub max_q: usize,
    /// Maximum seasonal AR order searched.
    pub max_sp: usize,
    /// Maximum seasonal differencing searched.
    pub max_sd: usize,
    /// Maximum seasonal MA order searched.
    pub max_sq: usize,
    /// Seasonal period in grid points (0 disables the seasonal grid).
    pub period: usize,
    /// CSS gradient-refinement iterations per candidate order.
    pub refine_iterations: usize,
    /// Pre-screen the grid with ACF/PACF order suggestions (Box-Jenkins):
    /// caps the regular `p`/`q` search at the last significant PACF/ACF lag,
    /// the way pmdarima's stepwise search keeps auto-ARIMA tractable.
    pub prescreen: bool,
}

impl Default for ArimaConfig {
    fn default() -> Self {
        ArimaConfig {
            max_p: 2,
            max_d: 1,
            max_q: 2,
            max_sp: 1,
            max_sd: 1,
            max_sq: 1,
            period: 288,
            refine_iterations: 60,
            prescreen: false,
        }
    }
}

impl ArimaConfig {
    /// A fixed single order (no search).
    pub fn fixed(order: ArimaOrder) -> ArimaConfig {
        ArimaConfig {
            max_p: order.p,
            max_d: order.d,
            max_q: order.q,
            max_sp: order.sp,
            max_sd: order.sd,
            max_sq: order.sq,
            period: order.period,
            refine_iterations: 60,
            prescreen: false,
        }
    }

    fn candidate_orders(&self) -> Vec<ArimaOrder> {
        let mut orders = Vec::new();
        let seasonal = self.period > 0;
        for d in 0..=self.max_d {
            for p in 0..=self.max_p {
                for q in 0..=self.max_q {
                    if seasonal {
                        for sd in 0..=self.max_sd {
                            for sp in 0..=self.max_sp {
                                for sq in 0..=self.max_sq {
                                    orders.push(ArimaOrder {
                                        p,
                                        d,
                                        q,
                                        sp,
                                        sd,
                                        sq,
                                        period: self.period,
                                    });
                                }
                            }
                        }
                    } else {
                        orders.push(ArimaOrder::simple(p, d, q));
                    }
                }
            }
        }
        // Skip the degenerate all-zero model unless it is the only one.
        if orders.len() > 1 {
            orders.retain(|o| o.k() > 1 || o.d + o.sd > 0);
        }
        orders
    }
}

/// The auto-ARIMA forecaster.
#[derive(Debug, Clone, PartialEq)]
pub struct ArimaForecaster {
    config: ArimaConfig,
}

impl ArimaForecaster {
    /// Creates a forecaster with the given search configuration.
    pub fn new(config: ArimaConfig) -> ArimaForecaster {
        ArimaForecaster { config }
    }

    /// The configuration.
    pub fn config(&self) -> &ArimaConfig {
        &self.config
    }
}

impl Default for ArimaForecaster {
    fn default() -> Self {
        ArimaForecaster::new(ArimaConfig::default())
    }
}

impl Forecaster for ArimaForecaster {
    fn name(&self) -> &'static str {
        "arima"
    }

    fn fit(&self, history: &TimeSeries) -> Result<Box<dyn FittedModel>, ForecastError> {
        let c = &self.config;
        let min_needed = 2 * c.period.max(30) + 10;
        check_history(history, min_needed)?;

        let effective = if c.prescreen {
            let (p_cap, q_cap) =
                crate::diagnostics::suggest_orders(history.values(), c.max_p.max(c.max_q));
            ArimaConfig {
                max_p: c.max_p.min(p_cap.max(1)),
                max_q: c.max_q.min(q_cap),
                ..c.clone()
            }
        } else {
            c.clone()
        };

        let mut best: Option<(f64, FittedArima)> = None;
        for order in effective.candidate_orders() {
            match fit_order(history, order, c.refine_iterations) {
                Ok((aic, fitted)) => {
                    if best.as_ref().is_none_or(|(b, _)| aic < *b) {
                        best = Some((aic, fitted));
                    }
                }
                Err(_) => continue, // Unfittable candidate; auto-ARIMA skips it.
            }
        }
        match best {
            Some((_, fitted)) => Ok(Box::new(fitted)),
            None => Err(ForecastError::Numerical(
                "no ARIMA candidate could be fit".into(),
            )),
        }
    }
}

/// Applies lag-`k` differencing once.
fn difference(x: &[f64], k: usize) -> Vec<f64> {
    x.iter().skip(k).zip(x).map(|(a, b)| a - b).collect()
}

/// Fits one candidate order; returns (AIC, fitted model).
fn fit_order(
    history: &TimeSeries,
    order: ArimaOrder,
    refine_iterations: usize,
) -> Result<(f64, FittedArima), ForecastError> {
    // Differencing: d regular passes then sd seasonal passes, remembering the
    // tails needed for re-integration.
    let mut w: Vec<f64> = history.values().to_vec();
    let mut regular_tails: Vec<f64> = Vec::new();
    for _ in 0..order.d {
        regular_tails.push(*w.last().expect("nonempty"));
        w = difference(&w, 1);
        if w.is_empty() {
            return Err(ForecastError::InsufficientHistory { needed: 2, got: 1 });
        }
    }
    let mut seasonal_tails: Vec<Vec<f64>> = Vec::new();
    for _ in 0..order.sd {
        if w.len() <= order.period || order.period == 0 {
            return Err(ForecastError::InsufficientHistory {
                needed: order.period + 1,
                got: w.len(),
            });
        }
        seasonal_tails.push(w[w.len() - order.period..].to_vec());
        w = difference(&w, order.period);
    }

    let ar_lags = order.ar_lags();
    let ma_lags = order.ma_lags();
    let max_lag = ar_lags.iter().chain(&ma_lags).copied().max().unwrap_or(0);
    if w.len() < max_lag + 10 {
        return Err(ForecastError::InsufficientHistory {
            needed: max_lag + 10,
            got: w.len(),
        });
    }

    // Stage 1 (Hannan–Rissanen): long AR for residual estimates, but only
    // when MA terms exist.
    let resid_est = if ma_lags.is_empty() {
        vec![0.0; w.len()]
    } else {
        long_ar_residuals(&w, (max_lag + 5).min(w.len() / 4).max(5))?
    };

    // Stage 2: OLS of w_t on AR lags of w and MA lags of residuals.
    let start = max_lag;
    let n_rows = w.len() - start;
    let n_cols = 1 + ar_lags.len() + ma_lags.len();
    if n_rows < n_cols + 2 {
        return Err(ForecastError::InsufficientHistory {
            needed: n_cols + 2 + start,
            got: w.len(),
        });
    }
    let mut design = Matrix::zeros_pooled(n_rows, n_cols);
    let mut target = seagull_linalg::scratch::take(n_rows);
    for (r, t) in (start..w.len()).enumerate() {
        let row = design.row_mut(r);
        row[0] = 1.0;
        for (j, &lag) in ar_lags.iter().enumerate() {
            row[1 + j] = w[t - lag];
        }
        for (j, &lag) in ma_lags.iter().enumerate() {
            row[1 + ar_lags.len() + j] = resid_est[t - lag];
        }
        target.push(w[t]);
    }
    let ls = least_squares(&design, &target);
    design.recycle();
    seagull_linalg::scratch::recycle(target);
    let mut coef = ls?;

    // Stage 3: CSS refinement with a numerical gradient.
    if refine_iterations > 0 {
        refine_css(&w, &order, &mut coef, refine_iterations);
    }

    // Final residuals and AIC.
    let resid = css_residuals(&w, &order, &coef);
    let n_eff = (w.len() - max_lag) as f64;
    let sigma2 = (resid.iter().skip(max_lag).map(|r| r * r).sum::<f64>() / n_eff).max(1e-12);
    let aic = n_eff * sigma2.ln() + 2.0 * order.k() as f64;

    Ok((
        aic,
        FittedArima {
            order,
            coef,
            w,
            resid,
            regular_tails,
            seasonal_tails,
            grid: ForecastGrid::after(history),
        },
    ))
}

/// Long-AR residual estimation for Hannan–Rissanen stage one.
fn long_ar_residuals(w: &[f64], m: usize) -> Result<Vec<f64>, ForecastError> {
    let n_rows = w.len() - m;
    let mut design = Matrix::zeros_pooled(n_rows, m + 1);
    let mut target = seagull_linalg::scratch::take(n_rows);
    for (r, t) in (m..w.len()).enumerate() {
        let row = design.row_mut(r);
        row[0] = 1.0;
        for j in 1..=m {
            row[j] = w[t - j];
        }
        target.push(w[t]);
    }
    let ls = least_squares(&design, &target);
    design.recycle();
    seagull_linalg::scratch::recycle(target);
    let coef = ls?;
    let mut resid = vec![0.0f64; w.len()];
    for t in m..w.len() {
        let mut pred = coef[0];
        for j in 1..=m {
            pred += coef[j] * w[t - j];
        }
        resid[t] = w[t] - pred;
    }
    Ok(resid)
}

/// Conditional-sum-of-squares residual recursion for a coefficient vector
/// laid out as `[intercept, ar..., ma...]`.
fn css_residuals(w: &[f64], order: &ArimaOrder, coef: &[f64]) -> Vec<f64> {
    let ar_lags = order.ar_lags();
    let ma_lags = order.ma_lags();
    let max_lag = ar_lags.iter().chain(&ma_lags).copied().max().unwrap_or(0);
    let mut resid = vec![0.0f64; w.len()];
    for t in max_lag..w.len() {
        let mut pred = coef[0];
        for (j, &lag) in ar_lags.iter().enumerate() {
            pred += coef[1 + j] * w[t - lag];
        }
        for (j, &lag) in ma_lags.iter().enumerate() {
            pred += coef[1 + ar_lags.len() + j] * resid[t - lag];
        }
        resid[t] = w[t] - pred;
    }
    resid
}

fn css_objective(w: &[f64], order: &ArimaOrder, coef: &[f64]) -> f64 {
    let max_lag = order
        .ar_lags()
        .iter()
        .chain(&order.ma_lags())
        .copied()
        .max()
        .unwrap_or(0);
    css_residuals(w, order, coef)
        .iter()
        .skip(max_lag)
        .map(|r| r * r)
        .sum()
}

/// Numerical-gradient descent on the CSS objective with backtracking.
fn refine_css(w: &[f64], order: &ArimaOrder, coef: &mut [f64], iterations: usize) {
    let mut obj = css_objective(w, order, coef);
    let mut step = 1e-3;
    let h = 1e-6;
    for _ in 0..iterations {
        // Finite-difference gradient.
        let mut grad = vec![0.0f64; coef.len()];
        for j in 0..coef.len() {
            let orig = coef[j];
            coef[j] = orig + h;
            let plus = css_objective(w, order, coef);
            coef[j] = orig;
            grad[j] = (plus - obj) / h;
        }
        let gnorm = grad.iter().map(|g| g * g).sum::<f64>().sqrt();
        if gnorm < 1e-10 {
            break;
        }
        // Backtracking line search.
        let mut improved = false;
        for _ in 0..12 {
            let trial: Vec<f64> = coef
                .iter()
                .zip(&grad)
                .map(|(c, g)| c - step * g / gnorm)
                .collect();
            let trial_obj = css_objective(w, order, &trial);
            if trial_obj < obj {
                coef.copy_from_slice(&trial);
                obj = trial_obj;
                step *= 1.5;
                improved = true;
                break;
            }
            step *= 0.5;
        }
        if !improved {
            break;
        }
    }
}

struct FittedArima {
    order: ArimaOrder,
    coef: Vec<f64>,
    /// The (differenced) working series.
    w: Vec<f64>,
    /// CSS residuals aligned with `w`.
    resid: Vec<f64>,
    /// Last values removed by each regular differencing pass (for
    /// re-integration, innermost last).
    regular_tails: Vec<f64>,
    /// Last `period` values removed by each seasonal differencing pass.
    seasonal_tails: Vec<Vec<f64>>,
    grid: ForecastGrid,
}

impl FittedModel for FittedArima {
    fn predict(&self, horizon: usize) -> Result<TimeSeries, ForecastError> {
        let ar_lags = self.order.ar_lags();
        let ma_lags = self.order.ma_lags();
        // Forecast the differenced series: future innovations are zero, past
        // residuals come from the CSS recursion.
        let mut wbuf = self.w.clone();
        let mut rbuf = self.resid.clone();
        for _ in 0..horizon {
            let t = wbuf.len();
            let mut pred = self.coef[0];
            for (j, &lag) in ar_lags.iter().enumerate() {
                if t >= lag {
                    pred += self.coef[1 + j] * wbuf[t - lag];
                }
            }
            for (j, &lag) in ma_lags.iter().enumerate() {
                if t >= lag {
                    pred += self.coef[1 + ar_lags.len() + j] * rbuf[t - lag];
                }
            }
            wbuf.push(pred);
            rbuf.push(0.0);
        }
        let mut fc: Vec<f64> = wbuf[self.w.len()..].to_vec();

        // Re-integrate: seasonal passes (innermost last applied first in
        // reverse), then regular passes.
        for tail in self.seasonal_tails.iter().rev() {
            let s = tail.len();
            let mut hist = tail.clone();
            for v in fc.iter_mut() {
                let base = hist[hist.len() - s];
                let nv = *v + base;
                hist.push(nv);
                *v = nv;
            }
        }
        for &tail in self.regular_tails.iter().rev() {
            let mut prev = tail;
            for v in fc.iter_mut() {
                prev += *v;
                *v = prev;
            }
        }
        for v in &mut fc {
            *v = v.clamp(0.0, 100.0);
        }
        self.grid.series(fc)
    }
}

#[cfg(test)]
mod tests {
    // (prescreen coverage lives in `prescreen_caps_grid` below)
    use super::*;
    use crate::testutil::{daily_sine, rmse};
    use seagull_timeseries::{TimeSeries, Timestamp};

    fn nonseasonal() -> ArimaForecaster {
        ArimaForecaster::new(ArimaConfig {
            max_p: 2,
            max_d: 1,
            max_q: 1,
            max_sp: 0,
            max_sd: 0,
            max_sq: 0,
            period: 0,
            refine_iterations: 20,
            prescreen: false,
        })
    }

    #[test]
    fn repeated_fits_reuse_scratch_buffers() {
        let hist = daily_sine(3, 15);
        let model = nonseasonal();
        // First fit seeds this thread's pool; later fits draw from it.
        model.fit(&hist).unwrap();
        let before = seagull_linalg::scratch::stats();
        model.fit(&hist).unwrap();
        let after = seagull_linalg::scratch::stats();
        assert!(
            after.reuses > before.reuses,
            "second fit reused no scratch buffers ({before:?} -> {after:?})"
        );
    }

    #[test]
    fn ar1_process_is_recovered() {
        // Deterministic AR(1)-like decay toward a mean.
        let mut x = 50.0f64;
        let vals: Vec<f64> = (0..300)
            .map(|i| {
                // Inject a small deterministic perturbation.
                let shock = if i % 17 == 0 { 3.0 } else { 0.0 };
                x = 20.0 + 0.7 * (x - 20.0) + shock;
                x
            })
            .collect();
        let hist = TimeSeries::new(Timestamp::from_days(5), 5, vals).unwrap();
        let model = ArimaForecaster::new(ArimaConfig::fixed(ArimaOrder::simple(1, 0, 0)));
        let pred = model.fit_predict(&hist, 50).unwrap();
        // Forecast should decay towards the unconditional mean (~21).
        let last = pred.values()[49];
        assert!((last - 21.0).abs() < 4.0, "long-run forecast {last}");
    }

    #[test]
    fn linear_trend_with_differencing() {
        let hist = TimeSeries::from_fn(Timestamp::from_days(5), 5, 200, |t| {
            10.0 + 0.02 * (t - Timestamp::from_days(5)) as f64 / 5.0
        })
        .unwrap();
        let model = nonseasonal();
        let pred = model.fit_predict(&hist, 30).unwrap();
        let expect_last = 10.0 + 0.02 * (200.0 + 29.0);
        assert!(
            (pred.values()[29] - expect_last).abs() < 1.0,
            "got {} want {expect_last}",
            pred.values()[29]
        );
    }

    #[test]
    fn seasonal_differencing_tracks_daily_pattern() {
        let hist = daily_sine(3, 15); // period 96
        let model = ArimaForecaster::new(ArimaConfig {
            max_p: 1,
            max_d: 0,
            max_q: 0,
            max_sp: 0,
            max_sd: 1,
            max_sq: 0,
            period: 96,
            refine_iterations: 10,
            prescreen: false,
        });
        let pred = model.fit_predict(&hist, 96).unwrap();
        let truth = daily_sine(4, 15);
        let expect = truth.slice(hist.end(), hist.end() + 1440).unwrap();
        let err = rmse(&pred, &expect);
        assert!(err < 2.0, "rmse {err}");
    }

    #[test]
    fn grid_search_prefers_better_order() {
        // Strongly trending data: models with d=1 should win the AIC race,
        // giving a forecast that keeps rising.
        let hist = TimeSeries::from_fn(Timestamp::from_days(5), 5, 150, |t| {
            5.0 + 0.05 * (t - Timestamp::from_days(5)) as f64 / 5.0
        })
        .unwrap();
        let pred = nonseasonal().fit_predict(&hist, 10).unwrap();
        assert!(pred.values()[9] > hist.values()[149]);
    }

    #[test]
    fn candidate_enumeration_counts() {
        let cfg = ArimaConfig {
            max_p: 1,
            max_d: 1,
            max_q: 1,
            max_sp: 0,
            max_sd: 0,
            max_sq: 0,
            period: 0,
            refine_iterations: 0,
            prescreen: false,
        };
        // 2*2*2 = 8 minus the all-zero degenerate model.
        assert_eq!(cfg.candidate_orders().len(), 7);
        let seasonal = ArimaConfig::default();
        // 3*2*3 regular × 2*2*2 seasonal = 144, minus the degenerate one.
        assert_eq!(seasonal.candidate_orders().len(), 143);
    }

    #[test]
    fn insufficient_history_rejected() {
        let hist = TimeSeries::from_fn(Timestamp::from_days(5), 5, 20, |_| 1.0).unwrap();
        assert!(matches!(
            nonseasonal().fit(&hist),
            Err(ForecastError::InsufficientHistory { .. })
        ));
    }

    #[test]
    fn nan_rejected() {
        let mut hist = daily_sine(2, 15);
        hist.values_mut()[0] = f64::NAN;
        assert!(matches!(
            nonseasonal().fit(&hist),
            Err(ForecastError::NonFiniteHistory)
        ));
    }

    #[test]
    fn order_display() {
        let o = ArimaOrder {
            p: 1,
            d: 1,
            q: 2,
            sp: 1,
            sd: 0,
            sq: 1,
            period: 96,
        };
        assert_eq!(o.to_string(), "ARIMA(1,1,2)(1,0,1)[96]");
    }

    #[test]
    fn prescreen_caps_grid() {
        // A strongly AR(1) series: the prescreen should cut the grid well
        // below the unconstrained size while still fitting successfully.
        let mut x = 30.0f64;
        let vals: Vec<f64> = (0..400)
            .map(|i| {
                let h = (i as u64).wrapping_mul(0x9e3779b97f4a7c15);
                let e = ((h >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
                x = 20.0 + 0.7 * (x - 20.0) + 2.0 * e;
                x
            })
            .collect();
        let hist = TimeSeries::new(Timestamp::from_days(5), 5, vals).unwrap();
        let screened = ArimaForecaster::new(ArimaConfig {
            max_p: 3,
            max_d: 1,
            max_q: 3,
            max_sp: 0,
            max_sd: 0,
            max_sq: 0,
            period: 0,
            refine_iterations: 5,
            prescreen: true,
        });
        let pred = screened.fit_predict(&hist, 20).unwrap();
        assert_eq!(pred.len(), 20);
        // Forecast decays toward the unconditional mean.
        assert!((pred.values()[19] - 20.0).abs() < 6.0);
    }

    #[test]
    fn forecasts_clamped() {
        let hist = TimeSeries::from_fn(Timestamp::from_days(5), 5, 120, |t| {
            90.0 + 0.05 * (t - Timestamp::from_days(5)) as f64 / 5.0
        })
        .unwrap();
        let pred = nonseasonal().fit_predict(&hist, 500).unwrap();
        for v in pred.values() {
            assert!((0.0..=100.0).contains(v));
        }
    }
}
