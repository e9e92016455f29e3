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
//! Cost: O(n·w) for `n` points and half-window `w`. The window is never
//! sorted and no sorted copy of it is kept: its values stay where they
//! arrived and an index order beside them is corrected by one constant-size
//! move per point, with no allocation after the two buffers are set up (see
//! [`detect_anomalies`]).

use crate::series::TimeSeries;
use serde::Serialize;

/// Detector parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
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
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
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
/// O(n·w) for `w = half_window`: per point one branch-free count over the
/// `2w + 1` input values of the window and one constant-size move in the
/// window's order. Two buffers are allocated up front and nothing per point:
/// the window keeps its values where they arrived and, beside them, the order
/// a stable sort would give them, and the median is read through the middle
/// of that order. The MAD is searched for among the runs of the order around
/// the median, but only for the few points an O(1) lower bound on it, read
/// through the same order, cannot already clear.
///
/// # Panics
/// If the window would span more than `u32::MAX` points, which takes a series
/// of over two billion samples.
pub fn detect_anomalies(series: &TimeSeries, config: &AnomalyConfig) -> Vec<LoadAnomaly> {
    let values = series.values();
    let n = values.len();
    // A wider window than the series holds nothing more than one as wide.
    let w = config.half_window.min(n);
    if w == 0 {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut window = OrderedWindow::new(w);
    for e in 0..w {
        window.step(values, e);
    }
    for (i, &v) in values.iter().enumerate() {
        // Point `i + w` enters the window, point `i - w - 1` leaves it.
        window.step(values, i + w);
        if v.is_nan() || window.len < 3 {
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

/// A position in [`OrderedWindow::ring`]. Every step moves a block of these,
/// so they are kept as narrow as any window a series in memory can fill.
type Slot = u32;

/// Slots one block move carries. The two positions of a step are less than
/// the window apart, so a ±1 h window (25 slots) never needs a second block.
const BLOCK: usize = 32;

/// The `2w + 1` points around the current one, each where it arrived, and
/// the order of their values. A point that is NaN or lies outside the series
/// is a NaN slot, so the window is full from the first step to the last and
/// every step is the same one: the oldest point out, a new one in its slot.
struct OrderedWindow {
    /// Point `j` of the series sits in slot `j % cap` while the window covers
    /// it.
    ring: Vec<f64>,
    /// The slots as a stable sort of the window would leave them: the `len`
    /// present values ascending, equal ones (`-0.0` and `0.0` are) oldest
    /// first, then the NaN slots, oldest first. `cap` entries, and a block of
    /// slack behind them for the moves to run into.
    order: Vec<Slot>,
    /// Present (non-NaN) values in the window.
    len: usize,
}

impl OrderedWindow {
    /// The window of half-width `w` before any point has entered it.
    fn new(w: usize) -> Self {
        let cap = 2 * w + 1;
        let slots = Slot::try_from(cap).expect("a window of more than u32::MAX points");
        OrderedWindow {
            ring: vec![f64::NAN; cap],
            order: (0..slots).chain([0; BLOCK]).collect(),
            len: 0,
        }
    }

    /// Moves the window one step: point `e` of `values` comes in (a NaN slot
    /// once the series has ended) and point `e - cap`, the oldest, goes out.
    fn step(&mut self, values: &[f64], e: usize) {
        let cap = self.ring.len();
        let first = e.saturating_sub(cap);
        let entering = values.get(e).copied().unwrap_or(f64::NAN);
        let leaving = if e >= cap { values[first] } else { f64::NAN };
        // The window as it stands is `values[e - cap..e]`, cut to the series.
        // Its oldest point is the first of its equals in the order and the
        // new one goes last among its, so counting smaller (and equal) values
        // gives both positions, in one pass without a branch over the input
        // itself: the order is unpredictable, and nothing here waits for what
        // the last step stored. NaN compares false on either side.
        let (mut below, mut upto) = (0, 0);
        for &z in &values[first..e.min(values.len())] {
            below += usize::from(z < leaving);
            upto += usize::from(z <= entering);
        }
        // The oldest NaN slot is the first of them, a new one the last.
        let out = if leaving.is_nan() { self.len } else { below };
        let into = if entering.is_nan() { cap } else { upto };
        self.len = self.len + usize::from(!entering.is_nan()) - usize::from(!leaving.is_nan());

        // `upto` counted the leaving point if it sorts before the new one.
        let left = into > out;
        let at = into - usize::from(left);
        // The slots between the two positions move one place towards `out`:
        // a whole block is moved whatever the distance, and what it overran
        // behind the further position is put back from a copy.
        let (src, dst, restore) = if left {
            (out + 1, out, at + 1)
        } else {
            (at, at + 1, out + 1)
        };
        let order = &mut self.order[..];
        let slot = order[out];
        let mut saved = [0; BLOCK];
        saved.copy_from_slice(&order[restore..restore + BLOCK]);
        let blocks = out.abs_diff(at).div_ceil(BLOCK).max(1);
        // Towards the front the blocks go front to back, towards the back
        // back to front, so none reads what an earlier one wrote.
        let (mut off, stride) = if left {
            (0, BLOCK)
        } else {
            ((blocks - 1) * BLOCK, BLOCK.wrapping_neg())
        };
        for _ in 0..blocks {
            order.copy_within(src + off..src + off + BLOCK, dst + off);
            off = off.wrapping_add(stride);
        }
        order[restore..restore + BLOCK].copy_from_slice(&saved);
        order[at] = slot;
        self.ring[slot as usize] = entering;
    }

    /// The value `rank` places up the order; `rank < len`.
    fn at(&self, rank: usize) -> f64 {
        self.ring[self.order[rank] as usize]
    }

    fn median(&self) -> f64 {
        let mid = self.len / 2;
        if self.len % 2 == 1 {
            self.at(mid)
        } else {
            0.5 * (self.at(mid - 1) + self.at(mid))
        }
    }

    /// A lower bound on [`Self::median_abs_deviation`] from two reads. The
    /// MAD is no less than the `run`-th smallest deviation, `run` being
    /// `k + 1` values for an odd window and `k` for an even one. Deviations
    /// fall towards the middle of the ordered window and rise after it, so
    /// only the values strictly between `h = (run - 1) / 2` places left of
    /// the middle and `h` places right of it can deviate by less than both of
    /// those two do, and there are fewer than `run` of them.
    fn mad_lower_bound(&self, median: f64) -> f64 {
        let k = self.len / 2;
        let (lo_mid, run) = if self.len % 2 == 1 {
            (k, k + 1)
        } else {
            (k - 1, k)
        };
        let h = (run - 1) / 2;
        let dev = |i: usize| (self.at(i) - median).abs();
        dev(lo_mid - h).min(dev(k + h))
    }

    /// Median of `|x - median|` over the window, by search instead of sort.
    /// The deviations fall as the values rise to the median and rise after
    /// it, so the `k + 1` smallest are those of one run `lo..=lo + k` of the
    /// order with the largest at an end of the run. Moving the run right
    /// lowers its left end's deviation and raises its right end's, so the
    /// best run is at or just before the first whose right end deviates no
    /// less than its left.
    fn median_abs_deviation(&self, median: f64) -> f64 {
        let k = self.len / 2;
        let dev = |i: usize| (self.at(i) - median).abs();
        let runs = self.len - k;
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
        if self.len % 2 == 1 {
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

    /// Half-windows up to past the longest generated series, with the ones
    /// whose `2w + 1` slots straddle one block and two, and one no series
    /// reaches.
    fn half_windows() -> impl Strategy<Value = usize> {
        prop_oneof![
            6 => 1usize..=140,
            2 => prop_oneof![
                Just(BLOCK / 2 - 1),
                Just(BLOCK / 2),
                Just(BLOCK - 1),
                Just(BLOCK),
            ],
            1 => Just(usize::MAX),
        ]
    }

    proptest! {
        /// The sliding window reports the same anomalies as the per-point
        /// sort, to the bit, for windows shorter and longer than the series
        /// (the oracle's arithmetic stops at the series' length, past which a
        /// window holds nothing more). Threshold -1 reports every point that
        /// has a score at all and skips none; 0 and infinity skip all but the
        /// scoreless; NaN reports none.
        #[test]
        fn sliding_window_matches_reference(
            values in gappy_values(),
            half_window in half_windows(),
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
            let reachable = AnomalyConfig { half_window: half_window.min(s.len()), threshold };
            let want = detect_anomalies_reference(&s, &reachable);
            prop_assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                prop_assert_eq!(g.index, w.index);
                prop_assert_eq!(g.value.to_bits(), w.value.to_bits());
                prop_assert_eq!(g.local_median.to_bits(), w.local_median.to_bits());
                prop_assert_eq!(g.score.to_bits(), w.score.to_bits());
            }
        }

        /// After every step the order is the stable sort of the window: the
        /// present values ascending with equal ones (`-0.0` and `0.0` too) by
        /// age, then the NaN slots by age, each slot holding its point.
        #[test]
        fn order_is_the_stable_sort_of_the_window(
            values in gappy_values(),
            half_window in 1usize..=140,
        ) {
            let w = half_window.min(values.len());
            let cap = 2 * w + 1;
            let mut window = OrderedWindow::new(w);
            for e in 0..values.len() + w {
                window.step(&values, e);
                // The window now covers points `e - cap + 1..=e`, oldest first.
                let mut want: Vec<(usize, f64)> = (0..cap)
                    .map(|age| {
                        let point = (e + 1 + age).checked_sub(cap);
                        let value = point.and_then(|j| values.get(j)).copied();
                        ((e + 1 + age) % cap, value.unwrap_or(f64::NAN))
                    })
                    .collect();
                want.sort_by(|(_, a), (_, b)| match (a.is_nan(), b.is_nan()) {
                    (false, false) => a.partial_cmp(b).expect("neither is NaN"),
                    (a_nan, b_nan) => a_nan.cmp(&b_nan),
                });
                let present = want.iter().filter(|(_, x)| !x.is_nan()).count();
                prop_assert_eq!(window.len, present);
                for (rank, &(slot, value)) in want.iter().enumerate() {
                    prop_assert_eq!(window.order[rank] as usize, slot, "rank {} at step {}", rank, e);
                    prop_assert_eq!(window.ring[slot].to_bits(), value.to_bits());
                }
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
            let w = half_window.min(values.len());
            let mut window = OrderedWindow::new(w);
            for e in 0..values.len() + w {
                window.step(&values, e);
                if e < w || window.len < 3 {
                    continue;
                }
                let median = window.median();
                let lower = window.mad_lower_bound(median);
                let mad = window.median_abs_deviation(median);
                let present: Vec<f64> = (0..window.len).map(|rank| window.at(rank)).collect();
                prop_assert!(lower <= mad, "{} > {} in {:?}", lower, mad, present);
            }
        }
    }
}
