//! Load-anomaly detection: robust spike/level-shift detection on gridded
//! telemetry.
//!
//! The Data Validation module detects *data* anomalies; this detector flags
//! *load* anomalies — points far outside the series' own robust dispersion —
//! which the paper's incident pipeline surfaces as "unexpected change of
//! customer behavior" (the residual 2.1 % of mischosen windows in Fig. 13(a)
//! are attributed to exactly these).
//!
//! The detector is the classic rolling-median / MAD rule: a point is
//! anomalous when it deviates from the window median by more than
//! `threshold` robust standard deviations. Medians make it immune to the
//! spikes it is hunting.
//!
//! Cost: O(n·w) for `n` points and half-window `w`, with no allocation after
//! the window buffer is set up (see [`detect_anomalies`]).

use crate::series::TimeSeries;
use serde::{Deserialize, Serialize};

/// Detector parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AnomalyConfig {
    /// Rolling window half-width in grid points (window = 2w+1 points).
    pub half_window: usize,
    /// Robust z-score threshold.
    pub threshold: f64,
}

impl Default for AnomalyConfig {
    fn default() -> Self {
        AnomalyConfig {
            half_window: 12, // ±1 hour at 5-minute granularity
            threshold: 6.0,
        }
    }
}

/// One detected anomaly.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LoadAnomaly {
    /// Index into the series.
    pub index: usize,
    /// The offending value.
    pub value: f64,
    /// The local median it deviates from.
    pub local_median: f64,
    /// Robust z-score magnitude.
    pub score: f64,
}

/// Scans a series for anomalous points. NaN points are skipped (they are
/// data anomalies, handled by validation).
///
/// O(n·w) for `w = half_window` (one branch-free count over the window and
/// one shift of part of it per point), with one buffer allocated up front and
/// none per point: the window's present values are kept sorted as it slides
/// and the median is read off the middle. The MAD is searched for among the
/// runs of that sorted window around the median, but only for the few points
/// an O(1) lower bound on it, read off the same window, cannot already clear.
pub fn detect_anomalies(series: &TimeSeries, config: &AnomalyConfig) -> Vec<LoadAnomaly> {
    let values = series.values();
    let n = values.len();
    let w = config.half_window;
    if n == 0 || w == 0 {
        return Vec::new();
    }
    let mut out = Vec::new();
    // All the window ever holds: `2w + 1` points, or the whole series.
    let mut window = SortedWindow {
        sorted: Vec::with_capacity(w.saturating_mul(2).saturating_add(1).min(n)),
    };
    for &x in &values[..w.min(n)] {
        window.slide(None, Some(x));
    }
    for (i, &v) in values.iter().enumerate() {
        // Point `i + w` enters the window, point `i - w - 1` leaves it.
        let entering = i.checked_add(w).and_then(|j| values.get(j)).copied();
        let leaving = i
            .checked_sub(w)
            .and_then(|j| j.checked_sub(1))
            .map(|j| values[j]);
        window.slide(leaving, entering);
        if v.is_nan() || window.sorted.len() < 3 {
            continue;
        }
        let median = window.median();
        let deviation = (v - median).abs();
        // `floor <= mad` (a NaN bound floors at 1e-6, as a NaN MAD does) and
        // division is monotone, so this quotient is no less than the score.
        // A NaN quotient compares false and the point takes the exact path.
        let floor = window.mad_lower_bound(median).max(1e-6) * 1.4826;
        if deviation / floor <= config.threshold {
            continue;
        }
        // MAD with the Gaussian consistency constant 1.4826.
        let mad = window.median_abs_deviation(median).max(1e-6) * 1.4826;
        let score = deviation / mad;
        if score > config.threshold {
            out.push(LoadAnomaly {
                index: i,
                value: v,
                local_median: median,
                score,
            });
        }
    }
    out
}

/// The present (non-NaN) values of the sliding window, kept sorted. Values
/// that compare equal stay in series order, oldest first, which is the order
/// a stable sort of the window would give them.
struct SortedWindow {
    sorted: Vec<f64>,
}

impl SortedWindow {
    /// Moves the window one step: `leaving` (the oldest point, if the window
    /// is full on the left) goes out and `entering` (if the series reaches
    /// that far) comes in. NaN points were never in the window. Stays within
    /// the capacity `detect_anomalies` reserved, so this never allocates.
    fn slide(&mut self, leaving: Option<f64>, entering: Option<f64>) {
        let s = &mut self.sorted;
        let leaving = leaving.filter(|x| !x.is_nan());
        let entering = entering.filter(|x| !x.is_nan());
        // The oldest point is the first of its equals; a new one goes last.
        // The window is short and its order unpredictable, so both positions
        // are counted in one pass without a branch rather than searched for.
        // An absent side counts against NaN, which compares false throughout.
        let (old, new) = (leaving.unwrap_or(f64::NAN), entering.unwrap_or(f64::NAN));
        let (mut out, mut into) = (0, 0);
        for &y in s.iter() {
            out += usize::from(y < old);
            into += usize::from(y <= new);
        }
        match (leaving, entering) {
            // Both: shift only the values between the two positions.
            (Some(_), Some(x)) if into > out => {
                s.copy_within(out + 1..into, out);
                s[into - 1] = x;
            }
            (Some(_), Some(x)) => {
                s.copy_within(into..out, into + 1);
                s[into] = x;
            }
            (Some(_), None) => {
                s.remove(out);
            }
            (None, Some(x)) => s.insert(into, x),
            (None, None) => {}
        }
    }

    fn median(&self) -> f64 {
        let s = &self.sorted;
        let mid = s.len() / 2;
        if s.len() % 2 == 1 {
            s[mid]
        } else {
            0.5 * (s[mid - 1] + s[mid])
        }
    }

    /// A lower bound on [`Self::median_abs_deviation`] from two reads. The
    /// MAD is no less than the `run`-th smallest deviation, `run` being
    /// `k + 1` values for an odd window and `k` for an even one. Deviations
    /// fall towards the middle of the sorted window and rise after it, so
    /// only the values strictly between `h = (run - 1) / 2` places left of
    /// the middle and `h` places right of it can deviate by less than both of
    /// those two do, and there are fewer than `run` of them.
    fn mad_lower_bound(&self, median: f64) -> f64 {
        let s = &self.sorted;
        let k = s.len() / 2;
        let (lo_mid, run) = if s.len() % 2 == 1 {
            (k, k + 1)
        } else {
            (k - 1, k)
        };
        let h = (run - 1) / 2;
        let dev = |i: usize| (s[i] - median).abs();
        dev(lo_mid - h).min(dev(k + h))
    }

    /// Median of `|x - median|` over the window, by search instead of sort.
    /// The deviations fall as the values rise to the median and rise after
    /// it, so the `k + 1` smallest are those of one run `sorted[lo..=lo + k]`
    /// with the largest at an end of the run. Moving the run right lowers its
    /// left end's deviation and raises its right end's, so the best run is at
    /// or just before the first whose right end deviates no less than its left.
    fn median_abs_deviation(&self, median: f64) -> f64 {
        let s = &self.sorted;
        let k = s.len() / 2;
        let dev = |i: usize| (s[i] - median).abs();
        let runs = s.len() - k;
        let (mut first, mut end) = (0, runs);
        while first < end {
            let lo = (first + end) / 2;
            if dev(lo + k) < dev(lo) {
                first = lo + 1;
            } else {
                end = lo;
            }
        }
        let lo = if first == runs || (first > 0 && dev(first - 1) < dev(first + k)) {
            first - 1
        } else {
            first
        };
        let (left, right) = (dev(lo), dev(lo + k));
        // Rank k is the larger end; rank k - 1 is the largest once it is gone.
        let (upper, lower) = if left >= right {
            (left, right.max(dev(lo + 1)))
        } else {
            (right, left.max(dev(lo + k - 1)))
        };
        if s.len() % 2 == 1 {
            upper
        } else {
            0.5 * (lower + upper)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Timestamp;
    use proptest::prelude::*;

    fn series(values: Vec<f64>) -> TimeSeries {
        TimeSeries::new(Timestamp::from_days(2), 5, values).unwrap()
    }

    #[test]
    fn flat_series_with_spike() {
        let mut values = vec![20.0; 200];
        values[100] = 95.0;
        let anomalies = detect_anomalies(&series(values), &AnomalyConfig::default());
        assert_eq!(anomalies.len(), 1);
        assert_eq!(anomalies[0].index, 100);
        assert!(anomalies[0].score > 6.0);
        assert!((anomalies[0].local_median - 20.0).abs() < 1.0);
    }

    #[test]
    fn smooth_wave_is_clean() {
        let values: Vec<f64> = (0..288)
            .map(|i| 30.0 + 20.0 * (2.0 * std::f64::consts::PI * i as f64 / 288.0).sin())
            .collect();
        let anomalies = detect_anomalies(&series(values), &AnomalyConfig::default());
        assert!(anomalies.is_empty(), "{anomalies:?}");
    }

    #[test]
    fn multiple_spikes_found() {
        let mut values = vec![10.0; 300];
        for &i in &[50usize, 150, 250] {
            values[i] = 80.0;
        }
        let anomalies = detect_anomalies(&series(values), &AnomalyConfig::default());
        let idxs: Vec<usize> = anomalies.iter().map(|a| a.index).collect();
        assert_eq!(idxs, vec![50, 150, 250]);
    }

    #[test]
    fn nan_points_skipped() {
        let mut values = vec![10.0; 100];
        values[50] = f64::NAN;
        values[70] = 90.0;
        let anomalies = detect_anomalies(&series(values), &AnomalyConfig::default());
        assert_eq!(anomalies.len(), 1);
        assert_eq!(anomalies[0].index, 70);
    }

    #[test]
    fn threshold_tunes_sensitivity() {
        let mut values = vec![10.0f64; 100];
        // Mild bump over a noisy-ish base.
        for (i, v) in values.iter_mut().enumerate() {
            *v += (i % 3) as f64;
        }
        values[50] = 25.0;
        let strict = AnomalyConfig {
            threshold: 20.0,
            ..AnomalyConfig::default()
        };
        let lax = AnomalyConfig {
            threshold: 3.0,
            ..AnomalyConfig::default()
        };
        assert!(detect_anomalies(&series(values.clone()), &strict).is_empty());
        assert!(!detect_anomalies(&series(values), &lax).is_empty());
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let empty = TimeSeries::empty(Timestamp::EPOCH, 5).unwrap();
        assert!(detect_anomalies(&empty, &AnomalyConfig::default()).is_empty());
        let tiny = series(vec![1.0, 2.0]);
        assert!(detect_anomalies(&tiny, &AnomalyConfig::default()).is_empty());
    }

    /// The kernel `detect_anomalies` replaced: a fresh window, two sorts and
    /// one allocation per point. Kept as the oracle the sliding window must
    /// match bit for bit.
    fn detect_anomalies_reference(series: &TimeSeries, config: &AnomalyConfig) -> Vec<LoadAnomaly> {
        let values = series.values();
        let n = values.len();
        if n == 0 || config.half_window == 0 {
            return Vec::new();
        }
        let mut out = Vec::new();
        let mut window_buf: Vec<f64> = Vec::with_capacity(2 * config.half_window + 1);
        for i in 0..n {
            let v = values[i];
            if v.is_nan() {
                continue;
            }
            let lo = i.saturating_sub(config.half_window);
            let hi = (i + config.half_window).min(n - 1);
            window_buf.clear();
            window_buf.extend(values[lo..=hi].iter().copied().filter(|x| !x.is_nan()));
            if window_buf.len() < 3 {
                continue;
            }
            let median = median_of(&mut window_buf);
            // MAD with the Gaussian consistency constant 1.4826.
            let mut deviations: Vec<f64> = window_buf.iter().map(|x| (x - median).abs()).collect();
            let mad = median_of(&mut deviations).max(1e-6) * 1.4826;
            let score = (v - median).abs() / mad;
            if score > config.threshold {
                out.push(LoadAnomaly {
                    index: i,
                    value: v,
                    local_median: median,
                    score,
                });
            }
        }
        out
    }

    /// In-place median (reorders the buffer).
    fn median_of(buf: &mut [f64]) -> f64 {
        let mid = buf.len() / 2;
        buf.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs in buffer"));
        if buf.len() % 2 == 1 {
            buf[mid]
        } else {
            0.5 * (buf[mid - 1] + buf[mid])
        }
    }

    fn load() -> impl Strategy<Value = f64> {
        prop_oneof![
            6 => 0.0f64..100.0,
            // Few distinct values, so windows are full of ties.
            3 => (0u32..8).prop_map(|k| f64::from(k) * 0.5),
            1 => prop_oneof![Just(0.0), Just(-0.0)],
            // Sums and differences of these overflow to infinity.
            1 => prop_oneof![Just(1e308), Just(-1e308), Just(f64::MAX)],
        ]
    }

    /// Runs of loads broken by runs of NaN, or a series of length 0 to 3.
    fn gappy_values() -> impl Strategy<Value = Vec<f64>> {
        let run = prop_oneof![
            3 => proptest::collection::vec(load(), 0..40),
            1 => (1usize..30).prop_map(|n| vec![f64::NAN; n]),
        ];
        prop_oneof![
            4 => proptest::collection::vec(run, 0..8).prop_map(|runs| runs.concat()),
            1 => proptest::collection::vec(prop_oneof![3 => load(), 1 => Just(f64::NAN)], 0..=3),
        ]
    }

    proptest! {
        /// The sliding window reports the same anomalies as the per-point
        /// sort, to the bit, for windows shorter and longer than the series.
        /// Threshold -1 reports every point that has a score at all and skips
        /// none; 0 and infinity skip all but the scoreless; NaN reports none.
        #[test]
        fn sliding_window_matches_reference(
            values in gappy_values(),
            half_window in 1usize..=60,
            threshold in prop_oneof![
                Just(-1.0),
                Just(0.0),
                Just(3.0),
                Just(6.0),
                Just(f64::INFINITY),
                Just(f64::NAN),
            ],
        ) {
            let s = series(values);
            let config = AnomalyConfig { half_window, threshold };
            let got = detect_anomalies(&s, &config);
            let want = detect_anomalies_reference(&s, &config);
            prop_assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                prop_assert_eq!(g.index, w.index);
                prop_assert_eq!(g.value.to_bits(), w.value.to_bits());
                prop_assert_eq!(g.local_median.to_bits(), w.local_median.to_bits());
                prop_assert_eq!(g.score.to_bits(), w.score.to_bits());
            }
        }

        /// The skip in `detect_anomalies` is sound: wherever the detector
        /// scores a point, the O(1) bound is no more than the MAD it stands
        /// in for, ties, signed zeros and overflowing sums included.
        #[test]
        fn mad_lower_bound_never_exceeds_the_mad(
            values in gappy_values(),
            half_window in 1usize..=60,
        ) {
            let mut window = SortedWindow { sorted: Vec::new() };
            for &x in &values[..half_window.min(values.len())] {
                window.slide(None, Some(x));
            }
            for i in 0..values.len() {
                let leaving = i.checked_sub(half_window + 1).map(|j| values[j]);
                window.slide(leaving, values.get(i + half_window).copied());
                if window.sorted.len() < 3 {
                    continue;
                }
                let median = window.median();
                let lower = window.mad_lower_bound(median);
                let mad = window.median_abs_deviation(median);
                prop_assert!(lower <= mad, "{} > {} in {:?}", lower, mad, window.sorted);
            }
        }
    }
}
