//! Gap filling on the grid.
//!
//! Load Extraction (paper Section 2.2) delivers "average customer CPU load
//! percentage per five minutes", with a missing bucket as NaN;
//! [`fill_gaps`] repairs the missing buckets that the Data Validation module
//! tolerates below its alert threshold.

use crate::series::TimeSeries;

/// Strategy for repairing missing (NaN) samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GapFill {
    /// Linear interpolation between the nearest present neighbors; edges are
    /// extended from the nearest present value.
    Linear,
    /// Carry the previous present value forward; a leading gap is filled
    /// backward from the first present value.
    Forward,
    /// Replace every gap with a constant.
    Constant(u32),
}

/// Fills NaN gaps in-place according to the strategy. A series with *no*
/// present values is left untouched (the validation module rejects it
/// upstream).
///
/// A gap-free series is also left untouched *without* taking a mutable view,
/// so series sharing a decode buffer (columnar ingest) stay zero-copy in the
/// common complete-telemetry case.
pub fn fill_gaps(series: &mut TimeSeries, strategy: GapFill) {
    if series.missing_count() == 0 {
        return;
    }
    let values = series.values_mut();
    let first_present = match values.iter().position(|v| !v.is_nan()) {
        Some(i) => i,
        None => return,
    };
    match strategy {
        GapFill::Constant(c) => {
            for v in values.iter_mut() {
                if v.is_nan() {
                    *v = c as f64;
                }
            }
        }
        GapFill::Forward => {
            let head = values[first_present];
            for v in values[..first_present].iter_mut() {
                *v = head;
            }
            let mut last = head;
            for v in values.iter_mut() {
                if v.is_nan() {
                    *v = last;
                } else {
                    last = *v;
                }
            }
        }
        GapFill::Linear => {
            let head = values[first_present];
            for v in values[..first_present].iter_mut() {
                *v = head;
            }
            let mut i = first_present;
            while i < values.len() {
                if !values[i].is_nan() {
                    i += 1;
                    continue;
                }
                // `i` starts a gap; find the next present value.
                let gap_start = i;
                let left = values[gap_start - 1];
                let right_idx = values[gap_start..].iter().position(|v| !v.is_nan());
                match right_idx {
                    Some(off) => {
                        let right_idx = gap_start + off;
                        let right = values[right_idx];
                        let span = (right_idx - (gap_start - 1)) as f64;
                        for (k, v) in values[gap_start..right_idx].iter_mut().enumerate() {
                            let frac = (k + 1) as f64 / span;
                            *v = left * (1.0 - frac) + right * frac;
                        }
                        i = right_idx;
                    }
                    None => {
                        // Trailing gap: extend the last present value.
                        for v in values[gap_start..].iter_mut() {
                            *v = left;
                        }
                        break;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Timestamp;

    fn series_with(vals: &[f64]) -> TimeSeries {
        TimeSeries::new(Timestamp::EPOCH, 5, vals.to_vec()).unwrap()
    }

    #[test]
    fn linear_fill_interpolates() {
        let mut s = series_with(&[1.0, f64::NAN, f64::NAN, 4.0]);
        fill_gaps(&mut s, GapFill::Linear);
        assert_eq!(s.values(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn linear_fill_extends_edges() {
        let mut s = series_with(&[f64::NAN, 2.0, f64::NAN]);
        fill_gaps(&mut s, GapFill::Linear);
        assert_eq!(s.values(), &[2.0, 2.0, 2.0]);
    }

    #[test]
    fn forward_fill() {
        let mut s = series_with(&[f64::NAN, 2.0, f64::NAN, 5.0, f64::NAN]);
        fill_gaps(&mut s, GapFill::Forward);
        assert_eq!(s.values(), &[2.0, 2.0, 2.0, 5.0, 5.0]);
    }

    #[test]
    fn constant_fill() {
        let mut s = series_with(&[f64::NAN, 2.0]);
        fill_gaps(&mut s, GapFill::Constant(0));
        assert_eq!(s.values(), &[0.0, 2.0]);
    }

    #[test]
    fn all_missing_untouched() {
        let mut s = series_with(&[f64::NAN, f64::NAN]);
        fill_gaps(&mut s, GapFill::Linear);
        assert_eq!(s.missing_count(), 2);
    }

    #[test]
    fn no_gaps_is_noop() {
        let mut s = series_with(&[1.0, 2.0]);
        fill_gaps(&mut s, GapFill::Linear);
        assert_eq!(s.values(), &[1.0, 2.0]);
    }

    #[test]
    fn no_gaps_keeps_shared_storage() {
        let base = series_with(&[1.0, 2.0, 3.0]);
        let mut view = base.slice(base.start(), base.end()).unwrap();
        fill_gaps(&mut view, GapFill::Linear);
        assert!(
            base.shares_storage(&view),
            "gap-free fill must not detach the view"
        );
    }
}
