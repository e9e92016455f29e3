//! Summary statistics over value slices.
//!
//! Everything here is O(n) in the slice length. The sums and extrema
//! allocate nothing; [`quantile`] and [`SummaryStats::compute`] make one
//! NaN-free copy each and select their order statistics from it.

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
    if values.is_empty() {
        return f64::NAN;
    }
    let m = mean(values);
    let var = values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / values.len() as f64;
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

/// Quantile via linear interpolation on sorted data, `q` in `[0, 1]`.
/// Returns NaN for an empty slice. NaNs in the input are ignored. O(n): the
/// order statistics either side of the quantile are selected, not sorted for.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut present: Vec<f64> = values.iter().copied().filter(|v| !v.is_nan()).collect();
    quantile_by_selection(values, &mut present, q)
}

/// [`quantile`] of `values`, given its non-NaN entries in `present` in any
/// order (which changes).
fn quantile_by_selection(values: &[f64], present: &mut [f64], q: f64) -> f64 {
    if present.is_empty() {
        return f64::NAN;
    }
    let q = q.clamp(0.0, 1.0);
    let pos = q * (present.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let at_lo = order_statistic(values, present, lo);
    if lo == hi {
        at_lo
    } else {
        let frac = pos - lo as f64;
        at_lo * (1.0 - frac) + order_statistic(values, present, hi) * frac
    }
}

/// Element `k` of the stable ascending sort of the non-NaN entries of
/// `values`; `present` holds those entries in any order (which changes).
fn order_statistic(values: &[f64], present: &mut [f64], k: usize) -> f64 {
    let (_, &mut picked, _) =
        present.select_nth_unstable_by(k, |a, b| a.partial_cmp(b).expect("NaNs filtered"));
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
    /// one buffer that is filtered once and, after the order-dependent sums,
    /// partially reordered by the quantile selections.
    pub fn compute(values: &[f64]) -> SummaryStats {
        let mut present: Vec<f64> = values.iter().copied().filter(|v| !v.is_nan()).collect();
        let (mean, stddev) = (mean(&present), stddev(&present));
        let (min, max) = (min(&present), max(&present));
        let p50 = quantile_by_selection(values, &mut present, 0.5);
        let p95 = quantile_by_selection(values, &mut present, 0.95);
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

    proptest! {
        /// One buffer and one sort give every field the bits the old
        /// per-quantile copies gave, ties, signed zeros and gaps included.
        #[test]
        fn summary_matches_reference(
            values in proptest::collection::vec(
                prop_oneof![
                    6 => 0.0f64..100.0,
                    3 => (0u32..8).prop_map(|k| f64::from(k) * 0.5),
                    1 => prop_oneof![Just(0.0), Just(-0.0)],
                    1 => prop_oneof![Just(1e308), Just(-1e308)],
                    2 => Just(f64::NAN),
                ],
                0..300,
            ),
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
