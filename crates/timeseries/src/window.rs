//! Sliding-window primitives.
//!
//! The lowest-load window search (paper Definition 7) is a minimum-mean
//! fixed-length window over a day of load samples; [`min_mean_window`] is the
//! O(n) prefix-sum implementation used by `seagull-core::metrics`.

use serde::Serialize;

/// Result of a window scan: the starting index of the chosen window and the
/// mean of the values inside it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct WindowStat {
    /// Index of the first point in the window.
    pub start_index: usize,
    /// Mean of the `len` values starting at `start_index`.
    pub mean: f64,
}

/// Points whose prefix sums [`min_mean_window`] keeps on the stack (3 KB):
/// a day on the five-minute grid is 288 plus the leading zero, so the search
/// the scheduler asks for never touches the heap. Longer inputs use a `Vec`.
const STACK_PREFIX: usize = 384;

/// Finds the contiguous window of `len` points with the minimal mean.
///
/// Ties are broken in favor of the earliest window, which makes the search
/// deterministic. Returns `None` when `len` is zero or exceeds the slice.
/// NaN values poison any window containing them (such windows never win),
/// so callers must gap-fill first if they want those regions considered.
pub fn min_mean_window(values: &[f64], len: usize) -> Option<WindowStat> {
    if len == 0 || len > values.len() {
        return None;
    }
    let mut stack = [0.0; STACK_PREFIX];
    let mut heap = Vec::new();
    let prefix: &mut [f64] = if values.len() < STACK_PREFIX {
        &mut stack[..=values.len()]
    } else {
        heap.resize(values.len() + 1, 0.0);
        &mut heap
    };
    // One pass: `prefix[i]` is the sum of the non-NaN values before `i`, and
    // `clean_from` is one past the newest NaN (missing sample) seen, so a
    // single gap does not poison every window that follows it; windows
    // starting before `clean_from` contain a NaN and are skipped.
    let width = len as f64;
    let mut acc = 0.0;
    let mut clean_from = 0usize;
    let mut best: Option<WindowStat> = None;
    // Sum of the incumbent's window. NaN until there is one, and again when
    // an overflowed sum made the incumbent's mean NaN: both compare false
    // below and send the candidate through the exact test.
    let mut best_sum = f64::NAN;
    for (i, &v) in values.iter().enumerate() {
        if v.is_nan() {
            clean_from = i + 1;
        } else {
            acc += v;
        }
        let end = i + 1;
        prefix[end] = acc;
        if end < clean_from + len {
            continue;
        }
        let start = end - len;
        let sum = acc - prefix[start];
        // Dividing by the one positive width is monotone, so a sum no
        // smaller has a mean no smaller and the incumbent (earlier) stays;
        // only a smaller sum pays for the division.
        if sum >= best_sum {
            continue;
        }
        let mean = sum / width;
        match best {
            Some(b) if b.mean <= mean => {}
            _ => {
                best = Some(WindowStat {
                    start_index: start,
                    mean,
                });
                best_sum = sum;
            }
        }
    }
    best
}

/// Rolling mean with a centered-less window: output `i` is the mean of
/// `values[i..i+len]`; the output has `values.len() - len + 1` entries.
/// Returns an empty vector when `len` is zero or exceeds the input.
pub fn rolling_mean(values: &[f64], len: usize) -> Vec<f64> {
    if len == 0 || len > values.len() {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(values.len() - len + 1);
    let mut sum: f64 = values[..len].iter().sum();
    out.push(sum / len as f64);
    for i in len..values.len() {
        sum += values[i] - values[i - len];
        out.push(sum / len as f64);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The search as it was first written, the definition the one-pass
    /// [`min_mean_window`] is held to: two prefix arrays on the heap and a
    /// division per candidate start.
    fn min_mean_window_reference(values: &[f64], len: usize) -> Option<WindowStat> {
        if len == 0 || len > values.len() {
            return None;
        }
        // Prefix sums give O(n) scanning. NaNs (missing samples) are tracked in a
        // separate count prefix so a single gap does not poison every window that
        // follows it; windows containing any NaN are skipped.
        let mut prefix = Vec::with_capacity(values.len() + 1);
        let mut nan_prefix = Vec::with_capacity(values.len() + 1);
        prefix.push(0.0);
        nan_prefix.push(0usize);
        let mut acc = 0.0;
        let mut nans = 0usize;
        for &v in values {
            if v.is_nan() {
                nans += 1;
            } else {
                acc += v;
            }
            prefix.push(acc);
            nan_prefix.push(nans);
        }
        let mut best: Option<WindowStat> = None;
        for start in 0..=(values.len() - len) {
            if nan_prefix[start + len] - nan_prefix[start] > 0 {
                continue;
            }
            let sum = prefix[start + len] - prefix[start];
            let mean = sum / len as f64;
            match best {
                Some(b) if b.mean <= mean => {}
                _ => {
                    best = Some(WindowStat {
                        start_index: start,
                        mean,
                    })
                }
            }
        }
        best
    }

    #[test]
    fn finds_minimum_mean() {
        let v = [5.0, 1.0, 1.0, 5.0, 0.0, 0.5];
        let w = min_mean_window(&v, 2).unwrap();
        assert_eq!(w.start_index, 4);
        assert!((w.mean - 0.25).abs() < 1e-12);
    }

    #[test]
    fn tie_breaks_earliest() {
        let v = [1.0, 1.0, 2.0, 1.0, 1.0];
        let w = min_mean_window(&v, 2).unwrap();
        assert_eq!(w.start_index, 0);
    }

    #[test]
    fn window_length_equals_input() {
        let v = [2.0, 4.0];
        let w = min_mean_window(&v, 2).unwrap();
        assert_eq!(w.start_index, 0);
        assert_eq!(w.mean, 3.0);
    }

    #[test]
    fn degenerate_lengths() {
        assert!(min_mean_window(&[1.0], 0).is_none());
        assert!(min_mean_window(&[1.0], 2).is_none());
        assert!(min_mean_window(&[], 1).is_none());
    }

    #[test]
    fn nan_windows_are_skipped() {
        let v = [f64::NAN, 5.0, 1.0, 1.0];
        let w = min_mean_window(&v, 2).unwrap();
        assert_eq!(w.start_index, 2);
    }

    #[test]
    fn all_nan_returns_none() {
        let v = [f64::NAN, f64::NAN];
        assert!(min_mean_window(&v, 1).is_none());
    }

    #[test]
    fn rolling_mean_matches_naive() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        let r = rolling_mean(&v, 3);
        assert_eq!(r, vec![2.0, 3.0, 4.0]);
        assert!(rolling_mean(&v, 0).is_empty());
        assert!(rolling_mean(&v, 6).is_empty());
    }

    #[test]
    fn min_mean_window_agrees_with_rolling_mean() {
        let v: Vec<f64> = (0..50).map(|i| ((i * 37) % 17) as f64).collect();
        for len in 1..=10 {
            let w = min_mean_window(&v, len).unwrap();
            let roll = rolling_mean(&v, len);
            let (bi, bv) = roll
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(b.1).unwrap().then(a.0.cmp(&b.0)))
                .unwrap();
            assert_eq!(w.start_index, bi);
            assert!((w.mean - bv).abs() < 1e-9);
        }
    }

    fn load() -> impl Strategy<Value = f64> {
        prop_oneof![
            6 => 0.0f64..100.0,
            // Few distinct levels, so windows tie on sum and on mean.
            4 => (0u32..4).prop_map(|k| f64::from(k) * 0.5),
            1 => prop_oneof![Just(0.0), Just(-0.0)],
            // Sums of these overflow to infinity, and their differences (or
            // the two infinities in one window) to NaN.
            1 => prop_oneof![
                Just(1e308),
                Just(-1e308),
                Just(f64::INFINITY),
                Just(f64::NEG_INFINITY),
            ],
        ]
    }

    /// Runs of loads broken by runs of NaN; about one input in five holds
    /// a run longer than [`STACK_PREFIX`], so the heap branch runs too.
    fn gappy_values() -> impl Strategy<Value = Vec<f64>> {
        let run = prop_oneof![
            12 => proptest::collection::vec(load(), 0..40),
            4 => (1usize..30).prop_map(|n| vec![f64::NAN; n]),
            1 => proptest::collection::vec(load(), STACK_PREFIX..STACK_PREFIX + 40),
        ];
        proptest::collection::vec(run, 0..8).prop_map(|runs| runs.concat())
    }

    proptest! {
        /// Same window and the same mean, to the bit, as the reference:
        /// NaN runs, ties, signed zeros, overflowing sums, every degenerate
        /// `len`, inputs on either side of the stack buffer.
        #[test]
        fn one_pass_search_matches_reference(
            values in gappy_values(),
            pick in 0usize..6,
            fraction in 0.0f64..1.0,
        ) {
            let n = values.len();
            let len = match pick {
                0 => 0,
                1 => 1,
                2 => n,
                3 => n + 1,
                _ => 1 + (fraction * n as f64) as usize,
            };
            let got = min_mean_window(&values, len);
            let want = min_mean_window_reference(&values, len);
            prop_assert_eq!(got.map(|w| w.start_index), want.map(|w| w.start_index));
            prop_assert_eq!(
                got.map(|w| w.mean.to_bits()),
                want.map(|w| w.mean.to_bits())
            );
        }
    }

    #[test]
    fn heap_branch_starts_at_the_stack_buffer_size() {
        // 383 points fill the stack buffer exactly; 384 is the first `Vec`.
        for n in [STACK_PREFIX - 1, STACK_PREFIX, 3 * STACK_PREFIX] {
            let v: Vec<f64> = (0..n).map(|i| ((i * 37) % 101) as f64).collect();
            for len in [1, 24, n] {
                assert_eq!(
                    min_mean_window(&v, len),
                    min_mean_window_reference(&v, len),
                    "n = {n}, len = {len}"
                );
            }
        }
    }
}
