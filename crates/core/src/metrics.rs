//! Low-load prediction accuracy metrics — Definitions 1–9 of the paper,
//! plus the Appendix A error metrics (Mean NRMSE, MASE).
//!
//! The paper's central methodological contribution is that classical error
//! metrics "give no insights into whether the lowest load window was chosen
//! correctly per server per day nor whether the load was predicted accurately
//! during this window" (Section 3.1), and replaces them with two use-case
//! metrics: the *bucket ratio* under an asymmetric error bound, and the
//! *lowest-load window* correctness check.

use seagull_timeseries::{min_mean_window, TimeSeries, Timestamp};
use serde::Serialize;

/// Definition 1's acceptable error bound.
///
/// Asymmetric by design: "+10/−5 ... because a slight overestimation of low
/// load periods is less critical for our use case than a slight
/// underestimation that may result in interference with high customer load."
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ErrorBound {
    /// Tolerated over-prediction, in CPU percentage points (paper: 10).
    pub over: f64,
    /// Tolerated under-prediction, in CPU percentage points (paper: 5).
    pub under: f64,
}

impl Default for ErrorBound {
    fn default() -> Self {
        ErrorBound {
            over: 10.0,
            under: 5.0,
        }
    }
}

impl ErrorBound {
    /// A symmetric bound (used by the ablation study).
    pub fn symmetric(width: f64) -> ErrorBound {
        ErrorBound {
            over: width,
            under: width,
        }
    }

    /// True if `predicted` is within the bound of `truth`.
    #[inline]
    pub fn contains(&self, predicted: f64, truth: f64) -> bool {
        let err = predicted - truth;
        err <= self.over && -err <= self.under
    }
}

/// Accuracy thresholds (Definitions 1–2 constants).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct AccuracyConfig {
    /// The asymmetric error bound (Definition 1).
    pub bound: ErrorBound,
    /// Minimum bucket ratio (in percent) for a prediction to count as
    /// accurate (paper: 90).
    pub bucket_ratio_threshold: f64,
}

impl Default for AccuracyConfig {
    fn default() -> Self {
        AccuracyConfig {
            bound: ErrorBound::default(),
            bucket_ratio_threshold: 90.0,
        }
    }
}

/// Definition 1: the percentage of predicted points within the acceptable
/// error bound of their true counterparts, over `[0, 100]`.
///
/// ```
/// use seagull_core::metrics::{bucket_ratio, ErrorBound};
/// let truth = [20.0, 20.0, 20.0, 20.0];
/// let predicted = [22.0, 29.0, 14.0, 31.0]; // hit, hit, miss(-6), miss(+11)
/// let ratio = bucket_ratio(&predicted, &truth, &ErrorBound::default());
/// assert_eq!(ratio, Some(50.0));
/// ```
///
/// Missing *true* points (NaN) carry no ground truth and are excluded from
/// the denominator; missing *predicted* points are automatic misses. Returns
/// `None` when no comparable pair exists or the slices differ in length.
pub fn bucket_ratio(predicted: &[f64], truth: &[f64], bound: &ErrorBound) -> Option<f64> {
    if predicted.len() != truth.len() {
        return None;
    }
    let mut hits = 0usize;
    let mut total = 0usize;
    for (&p, &t) in predicted.iter().zip(truth) {
        if t.is_nan() {
            continue;
        }
        total += 1;
        if !p.is_nan() && bound.contains(p, t) {
            hits += 1;
        }
    }
    (total > 0).then(|| 100.0 * hits as f64 / total as f64)
}

/// Definition 2: a prediction is accurate when the bucket ratio reaches the
/// threshold (90 % in production).
pub fn is_accurate(predicted: &[f64], truth: &[f64], config: &AccuracyConfig) -> bool {
    bucket_ratio(predicted, truth, &config.bound)
        .is_some_and(|r| r >= config.bucket_ratio_threshold)
}

/// Definition 7: a lowest-load window — the contiguous interval of the
/// backup's length with minimal average load on a day.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct LowLoadWindow {
    /// Window start time.
    pub start: Timestamp,
    /// Window length in minutes.
    pub duration_min: u32,
    /// Average load (of the series it was computed on) inside the window.
    pub mean_load: f64,
}

impl LowLoadWindow {
    /// Exclusive end of the window.
    pub fn end(&self) -> Timestamp {
        self.start + self.duration_min as i64
    }
}

/// Finds the lowest-load window of `duration_min` minutes in a day (or any
/// span) of load. Returns `None` if the duration does not fit on the grid or
/// exceeds the series.
///
/// ```
/// use seagull_core::metrics::lowest_load_window;
/// use seagull_timeseries::{TimeSeries, Timestamp};
/// let day = TimeSeries::new(
///     Timestamp::from_days(10), 5,
///     vec![50.0, 40.0, 5.0, 5.0, 30.0, 60.0],
/// ).unwrap();
/// let w = lowest_load_window(&day, 10).unwrap(); // 10 minutes = 2 points
/// assert_eq!(w.start, day.timestamp_at(2));
/// assert_eq!(w.mean_load, 5.0);
/// ```
pub fn lowest_load_window(day: &TimeSeries, duration_min: u32) -> Option<LowLoadWindow> {
    let step = day.step_min();
    if duration_min == 0 || !duration_min.is_multiple_of(step) {
        return None;
    }
    let len = (duration_min / step) as usize;
    let stat = min_mean_window(day.values(), len)?;
    Some(LowLoadWindow {
        start: day.timestamp_at(stat.start_index),
        duration_min,
        mean_load: stat.mean,
    })
}

/// The combined Definition 8 + Definition 2 evaluation of one server-day.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct LowLoadEvaluation {
    /// True LL window (computed on the true load).
    pub true_window: LowLoadWindow,
    /// Predicted LL window (computed on the predicted load).
    pub predicted_window: LowLoadWindow,
    /// Average *true* load inside the predicted window.
    pub true_load_in_predicted: f64,
    /// Definition 8: predicted window chosen correctly.
    pub window_correct: bool,
    /// Bucket ratio of predicted-vs-true inside the predicted window.
    pub window_bucket_ratio: f64,
    /// Definition 2 applied inside the predicted window.
    pub load_accurate: bool,
}

/// Evaluates the two orthogonal low-load metrics for one day.
///
/// `truth` and `predicted` must cover the same day on the same grid.
/// Returns `None` when the windows cannot be computed (mismatched grids,
/// oversized duration, all-missing data).
pub fn evaluate_low_load(
    truth: &TimeSeries,
    predicted: &TimeSeries,
    duration_min: u32,
    config: &AccuracyConfig,
) -> Option<LowLoadEvaluation> {
    if !truth.same_grid(predicted)
        || truth.start() != predicted.start()
        || truth.len() != predicted.len()
    {
        return None;
    }
    let true_window = lowest_load_window(truth, duration_min)?;
    let predicted_window = lowest_load_window(predicted, duration_min)?;

    // Average true load during the predicted window.
    let true_in_pred = truth
        .slice_values(predicted_window.start, predicted_window.end())
        .ok()?;
    let true_load_in_predicted = seagull_timeseries::mean(true_in_pred);

    // Definition 8: the predicted window is correct when the true load there
    // is within the bound of the true minimum ("there is no other window ...
    // that has significantly lower average user CPU load").
    let window_correct = config
        .bound
        .contains(true_load_in_predicted, true_window.mean_load);

    // Definition 2 inside the predicted window.
    let pred_in_pred = predicted
        .slice_values(predicted_window.start, predicted_window.end())
        .ok()?;
    let window_bucket_ratio =
        bucket_ratio(pred_in_pred, true_in_pred, &config.bound).unwrap_or(0.0);
    let load_accurate = window_bucket_ratio >= config.bucket_ratio_threshold;

    Some(LowLoadEvaluation {
        true_window,
        predicted_window,
        true_load_in_predicted,
        window_correct,
        window_bucket_ratio,
        load_accurate,
    })
}

/// Appendix A, Equation 2: `sqrt(mean(error²)) / mean(true)`.
///
/// Returns `None` for empty input or a zero true mean.
pub fn mean_nrmse(predicted: &[f64], truth: &[f64]) -> Option<f64> {
    if predicted.len() != truth.len() || truth.is_empty() {
        return None;
    }
    let mse = predicted
        .iter()
        .zip(truth)
        .map(|(p, t)| (p - t) * (p - t))
        .sum::<f64>()
        / truth.len() as f64;
    let mean_true = seagull_timeseries::mean(truth);
    (mean_true.abs() > 1e-12).then(|| mse.sqrt() / mean_true)
}

/// Appendix A, Equation 3: mean absolute error scaled by the in-sample
/// one-step-ahead naive error ("the error produced by a one step ahead true
/// forecast").
///
/// Returns `None` for empty/mismatched input or a constant true series
/// (zero normalizing factor).
pub fn mase(predicted: &[f64], truth: &[f64]) -> Option<f64> {
    if predicted.len() != truth.len() || truth.len() < 2 {
        return None;
    }
    let mae = predicted
        .iter()
        .zip(truth)
        .map(|(p, t)| (p - t).abs())
        .sum::<f64>()
        / truth.len() as f64;
    let naive =
        truth.windows(2).map(|w| (w[1] - w[0]).abs()).sum::<f64>() / (truth.len() - 1) as f64;
    (naive > 1e-12).then(|| mae / naive)
}

#[cfg(test)]
mod tests {
    use super::*;
    use seagull_timeseries::Timestamp;

    fn ts(vals: &[f64]) -> TimeSeries {
        TimeSeries::new(Timestamp::from_days(4), 5, vals.to_vec()).unwrap()
    }

    #[test]
    fn bound_is_asymmetric() {
        let b = ErrorBound::default();
        assert!(b.contains(25.0, 20.0)); // +5 over: ok
        assert!(b.contains(30.0, 20.0)); // +10 over: boundary ok
        assert!(!b.contains(30.1, 20.0)); // beyond +10
        assert!(b.contains(15.0, 20.0)); // -5 under: boundary ok
        assert!(!b.contains(14.9, 20.0)); // beyond -5
        assert!(b.contains(20.0, 20.0));
    }

    #[test]
    fn bucket_ratio_counts_hits() {
        let b = ErrorBound::default();
        let truth = [10.0, 10.0, 10.0, 10.0];
        let pred = [12.0, 21.0, 6.0, 4.0]; // hit, miss(+11), hit(-4), miss(-6)
        assert_eq!(bucket_ratio(&pred, &truth, &b), Some(50.0));
    }

    #[test]
    fn bucket_ratio_nan_semantics() {
        let b = ErrorBound::default();
        // True NaN excluded from denominator; predicted NaN is a miss.
        let truth = [10.0, f64::NAN, 10.0];
        let pred = [10.0, 10.0, f64::NAN];
        assert_eq!(bucket_ratio(&pred, &truth, &b), Some(50.0));
        assert_eq!(bucket_ratio(&[1.0], &[f64::NAN], &b), None);
        assert_eq!(bucket_ratio(&[1.0, 2.0], &[1.0], &b), None);
        assert_eq!(bucket_ratio(&[], &[], &b), None);
    }

    #[test]
    fn figure2_style_inaccuracy() {
        // A prediction that looks "close enough" but only 75 % of points are
        // in the bound is inaccurate under Definition 2.
        let cfg = AccuracyConfig::default();
        let truth = vec![20.0; 100];
        let mut pred = vec![22.0; 100];
        for p in pred.iter_mut().take(25) {
            *p = 33.0; // 25 % of points exceed the +10 bound
        }
        assert_eq!(bucket_ratio(&pred, &truth, &cfg.bound), Some(75.0));
        assert!(!is_accurate(&pred, &truth, &cfg));
        // At 90 % the prediction becomes accurate.
        let pred_good: Vec<f64> = (0..100).map(|i| if i < 10 { 33.0 } else { 22.0 }).collect();
        assert!(is_accurate(&pred_good, &truth, &cfg));
    }

    #[test]
    fn ll_window_finds_valley() {
        // Valley of length 3 (15 minutes) at indices 4..7.
        let day = ts(&[50.0, 40.0, 30.0, 20.0, 1.0, 1.0, 1.0, 20.0, 30.0]);
        let w = lowest_load_window(&day, 15).unwrap();
        assert_eq!(w.start, day.timestamp_at(4));
        assert_eq!(w.duration_min, 15);
        assert!((w.mean_load - 1.0).abs() < 1e-12);
        assert_eq!(w.end() - w.start, 15);
    }

    #[test]
    fn ll_window_rejects_bad_durations() {
        let day = ts(&[1.0, 2.0, 3.0]);
        assert!(lowest_load_window(&day, 0).is_none());
        assert!(lowest_load_window(&day, 7).is_none()); // not on the grid
        assert!(lowest_load_window(&day, 20).is_none()); // longer than day
    }

    #[test]
    fn figure8_overlapping_not_required_for_correctness() {
        // True valley at the start, predicted valley at the end, but the true
        // load at the predicted window is only slightly higher: correct.
        let truth = ts(&[2.0, 2.0, 10.0, 10.0, 3.0, 3.0]);
        let predicted = ts(&[9.0, 9.0, 9.0, 9.0, 1.0, 1.0]);
        let eval = evaluate_low_load(&truth, &predicted, 10, &AccuracyConfig::default()).unwrap();
        assert_eq!(eval.true_window.start, truth.timestamp_at(0));
        assert_eq!(eval.predicted_window.start, truth.timestamp_at(4));
        assert!((eval.true_load_in_predicted - 3.0).abs() < 1e-12);
        assert!(eval.window_correct); // 3.0 within +10 of 2.0
    }

    #[test]
    fn figure9_accurate_load_wrong_window() {
        // Predicted load matches true load closely inside the predicted
        // window, but the true LL window is much lower elsewhere.
        let truth = ts(&[0.0, 0.0, 30.0, 30.0, 30.0, 30.0]);
        let predicted = ts(&[50.0, 50.0, 31.0, 31.0, 31.0, 31.0]);
        let eval = evaluate_low_load(&truth, &predicted, 10, &AccuracyConfig::default()).unwrap();
        assert!(eval.load_accurate, "load prediction is accurate in-window");
        assert!(!eval.window_correct, "but the window is 30 points worse");
    }

    #[test]
    fn figure10_correct_window_inaccurate_load() {
        // Windows coincide but the true load is far above the prediction.
        let truth = ts(&[30.0, 30.0, 20.0, 20.0, 60.0, 60.0]);
        let predicted = ts(&[32.0, 32.0, 2.0, 2.0, 64.0, 64.0]);
        let eval = evaluate_low_load(&truth, &predicted, 10, &AccuracyConfig::default()).unwrap();
        assert!(eval.window_correct, "windows coincide");
        assert!(!eval.load_accurate, "under-predicted by 18");
        assert_eq!(eval.window_bucket_ratio, 0.0);
    }

    #[test]
    fn evaluate_rejects_mismatched_series() {
        let truth = ts(&[1.0, 2.0, 3.0]);
        let other = TimeSeries::new(Timestamp::from_days(5), 5, vec![1.0, 2.0, 3.0]).unwrap();
        assert!(evaluate_low_load(&truth, &other, 10, &AccuracyConfig::default()).is_none());
        let short = ts(&[1.0, 2.0]);
        assert!(evaluate_low_load(&truth, &short, 10, &AccuracyConfig::default()).is_none());
    }

    #[test]
    fn nrmse_of_mean_prediction_is_one_ish() {
        // Predicting the mean gives NRMSE = std/mean by this definition.
        let truth = [10.0, 20.0, 30.0, 40.0];
        let mean = 25.0;
        let pred = [mean; 4];
        let n = mean_nrmse(&pred, &truth).unwrap();
        let expect = seagull_timeseries::stddev(&truth) / mean;
        assert!((n - expect).abs() < 1e-12);
        assert!(mean_nrmse(&[], &[]).is_none());
        assert!(mean_nrmse(&[1.0], &[0.0]).is_none());
    }

    #[test]
    fn perfect_prediction_scores_zero() {
        let truth = [5.0, 6.0, 7.0];
        assert_eq!(mean_nrmse(&truth, &truth), Some(0.0));
        assert_eq!(mase(&truth, &truth), Some(0.0));
    }

    #[test]
    fn mase_scales_by_naive_error() {
        let truth = [0.0, 1.0, 0.0, 1.0]; // naive error = 1
        let pred = [0.5, 0.5, 0.5, 0.5]; // mae = 0.5
        assert!((mase(&pred, &truth).unwrap() - 0.5).abs() < 1e-12);
        // Constant series: undefined.
        assert!(mase(&[1.0, 1.0], &[2.0, 2.0]).is_none());
        assert!(mase(&[1.0], &[1.0]).is_none());
    }

    #[test]
    fn symmetric_bound_helper() {
        let b = ErrorBound::symmetric(5.0);
        assert!(b.contains(25.0, 20.0));
        assert!(b.contains(15.0, 20.0));
        assert!(!b.contains(26.0, 20.0));
    }
}
