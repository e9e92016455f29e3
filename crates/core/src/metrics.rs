//! Low-load prediction accuracy metrics — Definitions 1–8 of the paper.
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
}
