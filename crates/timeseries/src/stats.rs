//! Summary statistics over value slices.
//!
//! Everything here is O(n) in the slice length. The sums and extrema
//! allocate nothing; [`quantile`] makes one NaN-free buffer of order keys and
//! selects its order statistics from it, and [`SummaryStats::compute`] one
//! NaN-free copy for its sums besides.

use serde::{Deserialize, Serialize};

/// Arithmetic mean. Returns NaN for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Population standard deviation. Returns NaN for an empty slice.
pub fn stddev(values: &[f64]) -> f64 {
    stddev_about(values, mean(values))
}

/// [`stddev`] of a slice whose [`mean`] is already known.
fn stddev_about(values: &[f64], mean: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / values.len() as f64;
    var.sqrt()
}

/// Minimum, ignoring NaN. Returns NaN if the slice is empty or all-NaN.
pub fn min(values: &[f64]) -> f64 {
    values
        .iter()
        .copied()
        .filter(|v| !v.is_nan())
        .fold(
            f64::NAN,
            |acc, v| if acc.is_nan() || v < acc { v } else { acc },
        )
}

/// Maximum, ignoring NaN. Returns NaN if the slice is empty or all-NaN.
pub fn max(values: &[f64]) -> f64 {
    values
        .iter()
        .copied()
        .filter(|v| !v.is_nan())
        .fold(
            f64::NAN,
            |acc, v| if acc.is_nan() || v > acc { v } else { acc },
        )
}

/// [`min`] and [`max`] of a NaN-free slice in one pass, each a chain of
/// selects with no branch. Of values that compare equal the first is kept.
fn extrema(present: &[f64]) -> (f64, f64) {
    let Some((&first, rest)) = present.split_first() else {
        return (f64::NAN, f64::NAN);
    };
    rest.iter().fold((first, first), |(lo, hi), &v| {
        (if v < lo { v } else { lo }, if v > hi { v } else { hi })
    })
}

/// The integer that orders as `v` does under [`f64::total_cmp`], by that
/// function's own transform: done once per value here, not twice per
/// comparison there. With no NaN that is the order of `<`, except that -0.0
/// comes before 0.0, which [`stable_rank`] does not rely on.
fn order_key(v: f64) -> i64 {
    flip_magnitude_if_negative(v.to_bits() as i64)
}

/// The value `key` was made from.
fn from_order_key(key: i64) -> f64 {
    f64::from_bits(flip_magnitude_if_negative(key) as u64)
}

/// Negative floats order by falling magnitude bits, negative integers by
/// rising ones. Keeps the sign bit, so it is its own inverse.
fn flip_magnitude_if_negative(bits: i64) -> i64 {
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// Quantile via linear interpolation on sorted data, `q` in `[0, 1]`.
/// Returns NaN for an empty slice. NaNs in the input are ignored. O(n): the
/// order statistics either side of the quantile are selected, not sorted for.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let present = values.iter().copied().filter(|v| !v.is_nan());
    let mut keys: Vec<i64> = present.map(order_key).collect();
    quantile_by_selection(values, &mut keys, 0, q).0
}

/// [`quantile`] of `values`, given the [`order_key`]s of its non-NaN entries
/// in `keys`, and one past the rank this call selected, for the next call to
/// pass as `settled`. Ranks below `settled` are already in their places
/// relative to the rest and rank `settled - 1` holds its own key, as an
/// earlier call for a smaller `q` left them (0 for a first call); the rest
/// are in any order, which changes.
fn quantile_by_selection(values: &[f64], keys: &mut [i64], settled: usize, q: f64) -> (f64, usize) {
    if keys.is_empty() {
        return (f64::NAN, settled);
    }
    let q = q.clamp(0.0, 1.0);
    let pos = q * (keys.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    debug_assert!(lo + 1 >= settled, "quantiles are asked for in rising order");
    // Only the partition the earlier selection left above it holds rank `lo`.
    if lo >= settled {
        keys[settled..].select_nth_unstable(lo - settled);
    }
    let at_lo = stable_rank(values, from_order_key(keys[lo]), lo);
    if lo == hi {
        return (at_lo, lo + 1);
    }
    // Everything above rank `lo` is no less than it: the next is the least.
    let least = *keys[hi..].iter().min().expect("rank hi is present");
    let frac = pos - lo as f64;
    let at_hi = stable_rank(values, from_order_key(least), hi);
    (at_lo * (1.0 - frac) + at_hi * frac, lo + 1)
}

/// Element `k` of the stable ascending sort of the non-NaN entries of
/// `values`, given a value `picked` that compares equal to it.
fn stable_rank(values: &[f64], picked: f64, k: usize) -> f64 {
    if picked != 0.0 {
        return picked;
    }
    // 0.0 and -0.0 compare equal and a stable sort leaves them in input
    // order, so which zero has rank `k` is read off the input.
    let negatives = values.iter().filter(|v| **v < 0.0).count();
    let mut zeros = values.iter().copied().filter(|v| *v == 0.0);
    zeros
        .nth(k - negatives)
        .expect("rank k falls among the zeros")
}

/// A bundle of summary statistics. Used by the feature-extraction module.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SummaryStats {
    pub count: usize,
    pub missing: usize,
    pub mean: f64,
    pub stddev: f64,
    pub min: f64,
    pub max: f64,
    pub p50: f64,
    pub p95: f64,
}

impl SummaryStats {
    /// Computes statistics over `values`, treating NaN as missing: O(n), with
    /// one NaN-free copy for the order-dependent sums and one buffer of its
    /// integer order keys, partially reordered by the quantile selections.
    pub fn compute(values: &[f64]) -> SummaryStats {
        let mut present = values.to_vec();
        present.retain(|v| !v.is_nan());
        let mean = mean(&present);
        let stddev = stddev_about(&present, mean);
        let (min, max) = extrema(&present);
        let mut keys: Vec<i64> = present.iter().copied().map(order_key).collect();
        // p95 is selected inside the partition p50 left above itself.
        let (p50, settled) = quantile_by_selection(values, &mut keys, 0, 0.5);
        let (p95, _) = quantile_by_selection(values, &mut keys, settled, 0.95);
        SummaryStats {
            count: values.len(),
            missing: values.len() - present.len(),
            mean,
            stddev,
            min,
            max,
            p50,
            p95,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn mean_and_stddev() {
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert!(mean(&[]).is_nan());
        assert_eq!(stddev(&[5.0, 5.0, 5.0]), 0.0);
        let s = stddev(&[2.0, 4.0]);
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn min_max_ignore_nan() {
        assert_eq!(min(&[3.0, f64::NAN, 1.0]), 1.0);
        assert_eq!(max(&[3.0, f64::NAN, 1.0]), 3.0);
        assert!(min(&[]).is_nan());
        assert!(max(&[f64::NAN]).is_nan());
    }

    #[test]
    fn quantiles() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert!(quantile(&[], 0.5).is_nan());
        // Out-of-range q is clamped.
        assert_eq!(quantile(&v, 2.0), 4.0);
        assert_eq!(quantile(&v, -1.0), 1.0);
    }

    #[test]
    fn quantile_unsorted_input() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.5), 2.5);
    }

    #[test]
    fn summary_counts_missing() {
        let s = SummaryStats::compute(&[1.0, f64::NAN, 3.0]);
        assert_eq!(s.count, 3);
        assert_eq!(s.missing, 1);
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
    }

    /// `quantile` as it was: its own filtered copy and sort on every call.
    fn quantile_reference(values: &[f64], q: f64) -> f64 {
        let mut sorted: Vec<f64> = values.iter().copied().filter(|v| !v.is_nan()).collect();
        if sorted.is_empty() {
            return f64::NAN;
        }
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaNs filtered"));
        let q = q.clamp(0.0, 1.0);
        let pos = q * (sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        if lo == hi {
            sorted[lo]
        } else {
            let frac = pos - lo as f64;
            sorted[lo] * (1.0 - frac) + sorted[hi] * frac
        }
    }

    /// `SummaryStats::compute` as it was: three filtered copies, two sorts.
    fn compute_reference(values: &[f64]) -> SummaryStats {
        let present: Vec<f64> = values.iter().copied().filter(|v| !v.is_nan()).collect();
        SummaryStats {
            count: values.len(),
            missing: values.len() - present.len(),
            mean: mean(&present),
            stddev: stddev(&present),
            min: min(&present),
            max: max(&present),
            p50: quantile_reference(&present, 0.5),
            p95: quantile_reference(&present, 0.95),
        }
    }

    /// Loads, gaps, ties, signed zeros and magnitudes whose sums overflow.
    fn mixed_values() -> impl Strategy<Value = Vec<f64>> {
        proptest::collection::vec(
            prop_oneof![
                6 => 0.0f64..100.0,
                3 => (0u32..8).prop_map(|k| f64::from(k) * 0.5),
                1 => prop_oneof![Just(0.0), Just(-0.0)],
                1 => prop_oneof![Just(1e308), Just(-1e308)],
                2 => Just(f64::NAN),
            ],
            0..300,
        )
    }

    /// Three or four distinct values, so every partition is mostly pivots.
    fn duplicate_heavy_values() -> impl Strategy<Value = Vec<f64>> {
        proptest::collection::vec(
            prop_oneof![
                8 => (0u32..3).prop_map(|k| f64::from(k) - 1.0),
                2 => prop_oneof![Just(0.0), Just(-0.0)],
                1 => Just(f64::NAN),
            ],
            0..300,
        )
    }

    /// A block of zeros of both signs, in a seeded order among negatives and
    /// positives counted so that the ranks either side of p50, or of p95,
    /// fall inside the block: which zero has the rank is then the answer.
    fn zeros_at_the_ranks() -> impl Strategy<Value = Vec<f64>> {
        (
            proptest::collection::vec(any::<bool>(), 2..12),
            0usize..200,
            any::<bool>(),
            any::<u64>(),
        )
            .prop_map(|(signs, below, at_p95, seed)| {
                let zeros = signs.len();
                // p50 of `2 * below + zeros` values and p95 of `below + zeros`
                // (for `below <= 19 * (zeros - 1)`) both land on a zero.
                let (below, above) = if at_p95 {
                    (below % (19 * (zeros - 1) + 1), 0)
                } else {
                    (below, below)
                };
                let mut values: Vec<f64> = (0..below)
                    .map(|i| -1.0 - (i % 3) as f64)
                    .chain(signs.iter().map(|&neg| if neg { -0.0 } else { 0.0 }))
                    .chain((0..above).map(|i| 1.0 + (i % 3) as f64))
                    .collect();
                let mut state = seed;
                for i in (1..values.len()).rev() {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    values.swap(i, (state >> 33) as usize % (i + 1));
                }
                values
            })
    }

    proptest! {
        /// Order keys that tell the zeros apart and a p95 selected inside
        /// p50's upper partition give every field the bits the per-quantile
        /// copies and `partial_cmp` sorts gave: ties, signed zeros (at the
        /// selected ranks too) and gaps included.
        #[test]
        fn summary_matches_reference(
            values in prop_oneof![
                4 => mixed_values(),
                2 => duplicate_heavy_values(),
                2 => zeros_at_the_ranks(),
            ],
            q in -0.5f64..1.5,
        ) {
            let got = SummaryStats::compute(&values);
            let want = compute_reference(&values);
            prop_assert_eq!(got.count, want.count);
            prop_assert_eq!(got.missing, want.missing);
            for (g, w) in [
                (got.mean, want.mean),
                (got.stddev, want.stddev),
                (got.min, want.min),
                (got.max, want.max),
                (got.p50, want.p50),
                (got.p95, want.p95),
                (quantile(&values, q), quantile_reference(&values, q)),
            ] {
                prop_assert_eq!(g.to_bits(), w.to_bits(), "{} vs {}", g, w);
            }
        }
    }
}
