//! The regular-grid [`TimeSeries`] type.
//!
//! Storage is a shared `Arc<[f64]>` plus an `(offset, len)` view, so slicing
//! a series — a day window, a training history, a forecast input — shares the
//! parent's buffer instead of cloning it. Mutation copies the view out first
//! (copy-on-write), so sharing is never observable through the API.

use crate::calendar::MINUTES_PER_DAY;
use crate::time::Timestamp;
use serde::Serialize;
use std::fmt;
use std::sync::Arc;

/// Errors produced by [`TimeSeries`] constructors and combinators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TimeSeriesError {
    /// The step must be a positive number of minutes that divides a day, so
    /// that whole-day slicing (backup days, daily patterns) is exact.
    InvalidStep { step_min: u32 },
    /// The start timestamp must lie on the step grid.
    MisalignedStart { start: Timestamp, step_min: u32 },
    /// Two series that must share a grid do not.
    GridMismatch,
    /// A requested time range is not covered by the series.
    OutOfRange { requested: Timestamp },
    /// A value was not finite (NaN or infinite) where finiteness is required.
    NonFiniteValue { index: usize },
    /// A shared-storage view does not fit inside its buffer.
    ViewOutOfBounds {
        offset: usize,
        len: usize,
        storage_len: usize,
    },
}

impl fmt::Display for TimeSeriesError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TimeSeriesError::InvalidStep { step_min } => {
                write!(f, "step of {step_min} min must be positive and divide 1440")
            }
            TimeSeriesError::MisalignedStart { start, step_min } => {
                write!(
                    f,
                    "start {start} is not aligned to a {step_min}-minute grid"
                )
            }
            TimeSeriesError::GridMismatch => write!(f, "series grids do not match"),
            TimeSeriesError::OutOfRange { requested } => {
                write!(f, "timestamp {requested} is outside the series")
            }
            TimeSeriesError::NonFiniteValue { index } => {
                write!(f, "non-finite value at index {index}")
            }
            TimeSeriesError::ViewOutOfBounds {
                offset,
                len,
                storage_len,
            } => {
                write!(
                    f,
                    "view [{offset}, {offset}+{len}) exceeds shared storage of {storage_len} points"
                )
            }
        }
    }
}

impl std::error::Error for TimeSeriesError {}

/// A time series on a regular minute grid.
///
/// ```
/// use seagull_timeseries::{TimeSeries, Timestamp};
/// // Two hours of 5-minute samples starting at midnight of day 100.
/// let s = TimeSeries::from_fn(Timestamp::from_days(100), 5, 24, |t| {
///     t.minute_of_day() as f64
/// }).unwrap();
/// assert_eq!(s.len(), 24);
/// assert_eq!(s.value_at(Timestamp::from_days(100) + 60), Some(60.0));
/// assert_eq!(s.end() - s.start(), 120);
/// ```
///
/// Invariants (enforced at construction):
/// * `step_min > 0` and `step_min` divides 1440 (whole-day slicing is exact);
/// * `start` lies on the `step_min` grid;
/// * the `(offset, len)` view fits inside the shared storage.
///
/// Values are allowed to be NaN to represent *missing telemetry*; the data
/// validation module of `seagull-core` detects and reports them, and
/// [`crate::resample::fill_gaps`] repairs them.
///
/// Cloning and slicing are cheap: [`slice`](TimeSeries::slice),
/// [`day`](TimeSeries::day), and [`shifted`](TimeSeries::shifted) return
/// views over the same `Arc<[f64]>` buffer
/// ([`shares_storage`](TimeSeries::shares_storage) observes this). Serde and
/// `PartialEq` see only the viewed values, so views are indistinguishable
/// from owned series.
#[derive(Clone)]
pub struct TimeSeries {
    start: Timestamp,
    step_min: u32,
    storage: Arc<[f64]>,
    offset: usize,
    len: usize,
}

/// The serde-facing shape of a [`TimeSeries`]. Kept identical to the
/// pre-view representation (`start`, `step_min`, `values`) so documents and
/// exports are unchanged by the shared-storage refactor.
#[derive(Serialize)]
struct SeriesRepr {
    start: Timestamp,
    step_min: u32,
    values: Vec<f64>,
}

impl Serialize for TimeSeries {
    fn serialize<S>(&self, serializer: S) -> Result<S::Ok, S::Error>
    where
        S: serde::Serializer,
    {
        SeriesRepr {
            start: self.start,
            step_min: self.step_min,
            values: self.values().to_vec(),
        }
        .serialize(serializer)
    }
}

impl fmt::Debug for TimeSeries {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TimeSeries")
            .field("start", &self.start)
            .field("step_min", &self.step_min)
            .field("values", &self.values())
            .finish()
    }
}

/// Equality compares the *viewed* values, so a zero-copy view equals an
/// owned series with the same grid and contents.
impl PartialEq for TimeSeries {
    fn eq(&self, other: &TimeSeries) -> bool {
        self.start == other.start
            && self.step_min == other.step_min
            && self.values() == other.values()
    }
}

impl TimeSeries {
    fn validate_grid(start: Timestamp, step_min: u32) -> Result<(), TimeSeriesError> {
        if step_min == 0 || MINUTES_PER_DAY % step_min as i64 != 0 {
            return Err(TimeSeriesError::InvalidStep { step_min });
        }
        if !start.is_aligned(step_min) {
            return Err(TimeSeriesError::MisalignedStart { start, step_min });
        }
        Ok(())
    }

    /// Creates a series from a start timestamp, grid step, and values.
    pub fn new(
        start: Timestamp,
        step_min: u32,
        values: Vec<f64>,
    ) -> Result<TimeSeries, TimeSeriesError> {
        Self::validate_grid(start, step_min)?;
        let len = values.len();
        Ok(TimeSeries {
            start,
            step_min,
            storage: values.into(),
            offset: 0,
            len,
        })
    }

    /// Creates a series as a view over `storage[offset..offset + len]`
    /// without copying. This is how the columnar blob decoder hands every
    /// server a window into one shared buffer.
    pub fn from_shared(
        start: Timestamp,
        step_min: u32,
        storage: Arc<[f64]>,
        offset: usize,
        len: usize,
    ) -> Result<TimeSeries, TimeSeriesError> {
        Self::validate_grid(start, step_min)?;
        if offset
            .checked_add(len)
            .is_none_or(|end| end > storage.len())
        {
            return Err(TimeSeriesError::ViewOutOfBounds {
                offset,
                len,
                storage_len: storage.len(),
            });
        }
        Ok(TimeSeries {
            start,
            step_min,
            storage,
            offset,
            len,
        })
    }

    /// Creates an empty series with the given grid.
    pub fn empty(start: Timestamp, step_min: u32) -> Result<TimeSeries, TimeSeriesError> {
        Self::new(start, step_min, Vec::new())
    }

    /// Builds a series by evaluating `f` at each grid timestamp.
    pub fn from_fn(
        start: Timestamp,
        step_min: u32,
        len: usize,
        mut f: impl FnMut(Timestamp) -> f64,
    ) -> Result<TimeSeries, TimeSeriesError> {
        let mut values = Vec::with_capacity(len);
        for i in 0..len {
            values.push(f(start + i as i64 * step_min as i64));
        }
        Self::new(start, step_min, values)
    }

    /// Number of points.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the series holds no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Grid step in minutes.
    #[inline]
    pub fn step_min(&self) -> u32 {
        self.step_min
    }

    /// Grid points per day (e.g. 288 for a 5-minute grid).
    #[inline]
    pub fn points_per_day(&self) -> usize {
        (MINUTES_PER_DAY / self.step_min as i64) as usize
    }

    /// Timestamp of the first point.
    #[inline]
    pub fn start(&self) -> Timestamp {
        self.start
    }

    /// Timestamp one step past the last point (exclusive end).
    #[inline]
    pub fn end(&self) -> Timestamp {
        self.start + self.len as i64 * self.step_min as i64
    }

    /// The values as a slice.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.storage[self.offset..self.offset + self.len]
    }

    /// The values as a mutable slice. If the storage is shared with other
    /// series (views), the viewed range is copied out first so mutation
    /// never affects them (copy-on-write).
    pub fn values_mut(&mut self) -> &mut [f64] {
        if Arc::get_mut(&mut self.storage).is_none() {
            let owned: Arc<[f64]> = self.storage[self.offset..self.offset + self.len].into();
            self.storage = owned;
            self.offset = 0;
        }
        let (offset, len) = (self.offset, self.len);
        &mut Arc::get_mut(&mut self.storage).expect("storage is uniquely owned")
            [offset..offset + len]
    }

    /// Consumes the series, returning its values.
    #[inline]
    pub fn into_values(self) -> Vec<f64> {
        self.values().to_vec()
    }

    /// The shared backing buffer. Views produced by
    /// [`slice`](TimeSeries::slice) / [`day`](TimeSeries::day) return the
    /// same `Arc` as their parent (`Arc::ptr_eq`); use
    /// [`shares_storage`](TimeSeries::shares_storage) to test that.
    #[inline]
    pub fn storage(&self) -> &Arc<[f64]> {
        &self.storage
    }

    /// True if `self` and `other` are views over the same allocation.
    #[inline]
    pub fn shares_storage(&self, other: &TimeSeries) -> bool {
        Arc::ptr_eq(&self.storage, &other.storage)
    }

    /// Timestamp of point `i` (which need not be in bounds).
    #[inline]
    pub fn timestamp_at(&self, i: usize) -> Timestamp {
        self.start + i as i64 * self.step_min as i64
    }

    /// Index of the grid point at timestamp `ts`, if `ts` is on the grid and
    /// within the series.
    pub fn index_of(&self, ts: Timestamp) -> Option<usize> {
        let delta = ts - self.start;
        if delta < 0 || delta % self.step_min as i64 != 0 {
            return None;
        }
        let idx = (delta / self.step_min as i64) as usize;
        (idx < self.len).then_some(idx)
    }

    /// Value at timestamp `ts`, if covered.
    pub fn value_at(&self, ts: Timestamp) -> Option<f64> {
        self.index_of(ts).map(|i| self.values()[i])
    }

    /// Iterates over `(timestamp, value)` pairs.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (Timestamp, f64)> + '_ {
        self.values()
            .iter()
            .enumerate()
            .map(move |(i, &v)| (self.timestamp_at(i), v))
    }

    /// True if `other` shares this series' step.
    #[inline]
    pub fn same_grid(&self, other: &TimeSeries) -> bool {
        self.step_min == other.step_min && (self.start - other.start) % self.step_min as i64 == 0
    }

    /// Returns the sub-series covering `[from, to)` as a zero-copy view
    /// sharing this series' storage, or an error if the range is not fully
    /// covered or misaligned.
    pub fn slice(&self, from: Timestamp, to: Timestamp) -> Result<TimeSeries, TimeSeriesError> {
        let (i, n) = self.view_range(from, to)?;
        Ok(TimeSeries {
            start: from,
            step_min: self.step_min,
            storage: Arc::clone(&self.storage),
            offset: self.offset + i,
            len: n,
        })
    }

    /// Resolves `[from, to)` to a `(start index, point count)` pair within
    /// the view, validating coverage and alignment.
    fn view_range(
        &self,
        from: Timestamp,
        to: Timestamp,
    ) -> Result<(usize, usize), TimeSeriesError> {
        if to < from {
            return Err(TimeSeriesError::OutOfRange { requested: to });
        }
        let i = self
            .index_of(from)
            .ok_or(TimeSeriesError::OutOfRange { requested: from })?;
        if (to - from) % self.step_min as i64 != 0 {
            return Err(TimeSeriesError::MisalignedStart {
                start: to,
                step_min: self.step_min,
            });
        }
        let n = ((to - from) / self.step_min as i64) as usize;
        if i + n > self.len {
            return Err(TimeSeriesError::OutOfRange { requested: to });
        }
        Ok((i, n))
    }

    /// Borrowed view of the values covering `[from, to)`.
    pub fn slice_values(&self, from: Timestamp, to: Timestamp) -> Result<&[f64], TimeSeriesError> {
        let (i, n) = self.view_range(from, to)?;
        Ok(&self.values()[i..i + n])
    }

    /// The values for the calendar day with the given day index, if the series
    /// fully covers that day.
    pub fn day_values(&self, day_index: i64) -> Option<&[f64]> {
        let from = Timestamp::from_days(day_index);
        let to = Timestamp::from_days(day_index + 1);
        self.slice_values(from, to).ok()
    }

    /// The sub-series for a calendar day, if fully covered. Like
    /// [`slice`](TimeSeries::slice), the result is a view sharing storage.
    pub fn day(&self, day_index: i64) -> Option<TimeSeries> {
        let from = Timestamp::from_days(day_index);
        let to = Timestamp::from_days(day_index + 1);
        self.slice(from, to).ok()
    }

    /// First calendar day fully covered by this series, if any.
    pub fn first_full_day(&self) -> Option<i64> {
        let d = if self.start.minute_of_day() == 0 {
            self.start.day_index()
        } else {
            self.start.day_index() + 1
        };
        self.day_values(d).map(|_| d)
    }

    /// Last calendar day fully covered by this series, if any.
    pub fn last_full_day(&self) -> Option<i64> {
        if self.is_empty() {
            return None;
        }
        // The last candidate day ends at or before `end()`.
        let d = self.end().day_index() - 1;
        self.day_values(d).map(|_| d)
    }

    /// Iterates over the day indices fully covered by this series.
    pub fn full_days(&self) -> impl Iterator<Item = i64> + '_ {
        match (self.first_full_day(), self.last_full_day()) {
            (Some(a), Some(b)) => a..=b,
            #[allow(clippy::reversed_empty_ranges)]
            _ => 1..=0, // canonical empty RangeInclusive
        }
    }

    /// Appends another series that starts exactly where this one ends.
    /// Rebuilds the backing buffer; appending detaches from any shared
    /// storage.
    pub fn append(&mut self, tail: &TimeSeries) -> Result<(), TimeSeriesError> {
        if tail.step_min != self.step_min {
            return Err(TimeSeriesError::GridMismatch);
        }
        if !self.is_empty() && tail.start != self.end() {
            return Err(TimeSeriesError::GridMismatch);
        }
        let start = if self.is_empty() {
            tail.start
        } else {
            self.start
        };
        let mut values = Vec::with_capacity(self.len + tail.len);
        values.extend_from_slice(self.values());
        values.extend_from_slice(tail.values());
        self.start = start;
        self.storage = values.into();
        self.offset = 0;
        self.len = self.storage.len();
        Ok(())
    }

    /// Pushes one value at the end of the grid. Rebuilds the backing buffer;
    /// pushing detaches from any shared storage.
    pub fn push(&mut self, value: f64) {
        let mut values = Vec::with_capacity(self.len + 1);
        values.extend_from_slice(self.values());
        values.push(value);
        self.storage = values.into();
        self.offset = 0;
        self.len = self.storage.len();
    }

    /// Returns a view shifted forward in time by `minutes` (which must be a
    /// multiple of the step). The *values* are shared unchanged; only the
    /// timestamps move. This is the primitive behind persistent forecasting:
    /// yesterday's load shifted forward by one day *is* the prediction for
    /// today.
    pub fn shifted(&self, minutes: i64) -> Result<TimeSeries, TimeSeriesError> {
        if minutes % self.step_min as i64 != 0 {
            return Err(TimeSeriesError::MisalignedStart {
                start: self.start + minutes,
                step_min: self.step_min,
            });
        }
        Ok(TimeSeries {
            start: self.start + minutes,
            step_min: self.step_min,
            storage: Arc::clone(&self.storage),
            offset: self.offset,
            len: self.len,
        })
    }

    /// Number of NaN (missing) values.
    pub fn missing_count(&self) -> usize {
        self.values().iter().filter(|v| v.is_nan()).count()
    }

    /// Verifies every value is finite.
    pub fn check_finite(&self) -> Result<(), TimeSeriesError> {
        match self.values().iter().position(|v| !v.is_finite()) {
            Some(index) => Err(TimeSeriesError::NonFiniteValue { index }),
            None => Ok(()),
        }
    }

    /// Mean of the values (NaN-free input assumed; NaNs propagate).
    pub fn mean(&self) -> f64 {
        crate::stats::mean(self.values())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(vals: &[f64]) -> TimeSeries {
        TimeSeries::new(Timestamp::from_days(10), 5, vals.to_vec()).unwrap()
    }

    #[test]
    fn construction_validates_grid() {
        assert!(matches!(
            TimeSeries::new(Timestamp::EPOCH, 0, vec![]),
            Err(TimeSeriesError::InvalidStep { .. })
        ));
        assert!(matches!(
            TimeSeries::new(Timestamp::EPOCH, 7, vec![]),
            Err(TimeSeriesError::InvalidStep { .. })
        ));
        assert!(matches!(
            TimeSeries::new(Timestamp::from_minutes(3), 5, vec![]),
            Err(TimeSeriesError::MisalignedStart { .. })
        ));
        assert!(TimeSeries::new(Timestamp::from_minutes(15), 5, vec![1.0]).is_ok());
    }

    #[test]
    fn indexing_round_trips() {
        let s = ts(&[1.0, 2.0, 3.0, 4.0]);
        for i in 0..s.len() {
            assert_eq!(s.index_of(s.timestamp_at(i)), Some(i));
        }
        assert_eq!(s.value_at(s.timestamp_at(2)), Some(3.0));
        assert_eq!(s.index_of(s.start() - 5), None);
        assert_eq!(s.index_of(s.end()), None);
        assert_eq!(s.index_of(s.start() + 1), None);
    }

    #[test]
    fn end_is_exclusive() {
        let s = ts(&[1.0, 2.0]);
        assert_eq!(s.end() - s.start(), 10);
    }

    #[test]
    fn slicing() {
        let s = ts(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        let from = s.timestamp_at(1);
        let to = s.timestamp_at(4);
        let sub = s.slice(from, to).unwrap();
        assert_eq!(sub.values(), &[2.0, 3.0, 4.0]);
        assert_eq!(sub.start(), from);
        assert!(s.slice(from, s.end() + 5).is_err());
        assert!(s.slice(s.start() - 5, to).is_err());
    }

    #[test]
    fn slicing_is_zero_copy() {
        let s = ts(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        let sub = s.slice(s.timestamp_at(1), s.timestamp_at(4)).unwrap();
        assert!(Arc::ptr_eq(s.storage(), sub.storage()));
        assert!(s.shares_storage(&sub));
        // A view of a view still shares the root storage.
        let subsub = sub.slice(sub.timestamp_at(1), sub.timestamp_at(2)).unwrap();
        assert!(Arc::ptr_eq(s.storage(), subsub.storage()));
        assert_eq!(subsub.values(), &[3.0]);
    }

    #[test]
    fn day_slicing_is_zero_copy() {
        let n = 2 * 288;
        let s =
            TimeSeries::from_fn(Timestamp::from_days(10), 5, n, |t| t.day_index() as f64).unwrap();
        let day = s.day(11).unwrap();
        assert!(
            Arc::ptr_eq(s.storage(), day.storage()),
            "day() must be a view into the parent buffer"
        );
        assert_eq!(day.len(), 288);
        // shifted() shares storage too: persistent forecasting moves
        // timestamps without touching the buffer.
        let tomorrow = day.shifted(MINUTES_PER_DAY).unwrap();
        assert!(s.shares_storage(&tomorrow));
    }

    #[test]
    fn mutation_detaches_shared_views() {
        let s = ts(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        let mut sub = s.slice(s.timestamp_at(1), s.timestamp_at(4)).unwrap();
        sub.values_mut()[0] = 99.0;
        // The parent is untouched; the view copied out before writing.
        assert_eq!(s.values(), &[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(sub.values(), &[99.0, 3.0, 4.0]);
        assert!(!s.shares_storage(&sub));
    }

    #[test]
    fn unique_series_mutates_in_place() {
        let mut s = ts(&[1.0, 2.0]);
        let before = Arc::as_ptr(s.storage());
        s.values_mut()[1] = 7.0;
        assert_eq!(Arc::as_ptr(s.storage()), before, "no spurious copy");
        assert_eq!(s.values(), &[1.0, 7.0]);
    }

    #[test]
    fn view_equality_ignores_sharing() {
        let s = ts(&[1.0, 2.0, 3.0, 4.0]);
        let view = s.slice(s.timestamp_at(1), s.timestamp_at(3)).unwrap();
        let owned = TimeSeries::new(s.timestamp_at(1), 5, vec![2.0, 3.0]).unwrap();
        assert_eq!(view, owned);
    }

    #[test]
    fn from_shared_validates_bounds() {
        let storage: Arc<[f64]> = vec![1.0, 2.0, 3.0].into();
        let v = TimeSeries::from_shared(Timestamp::from_days(1), 5, Arc::clone(&storage), 1, 2)
            .unwrap();
        assert_eq!(v.values(), &[2.0, 3.0]);
        assert!(Arc::ptr_eq(v.storage(), &storage));
        assert!(matches!(
            TimeSeries::from_shared(Timestamp::from_days(1), 5, Arc::clone(&storage), 2, 2),
            Err(TimeSeriesError::ViewOutOfBounds { .. })
        ));
    }

    #[test]
    fn day_slicing() {
        // Two full days at 5-minute resolution starting at day 10.
        let n = 2 * 288;
        let s =
            TimeSeries::from_fn(Timestamp::from_days(10), 5, n, |t| t.day_index() as f64).unwrap();
        assert_eq!(s.day_values(10).unwrap().len(), 288);
        assert!(s.day_values(10).unwrap().iter().all(|&v| v == 10.0));
        assert!(s.day_values(11).unwrap().iter().all(|&v| v == 11.0));
        assert!(s.day_values(12).is_none());
        assert_eq!(s.first_full_day(), Some(10));
        assert_eq!(s.last_full_day(), Some(11));
        assert_eq!(s.full_days().collect::<Vec<_>>(), vec![10, 11]);
    }

    #[test]
    fn partial_day_coverage() {
        // Starts mid-day: first full day is the next one.
        let start = Timestamp::from_days(10) + 720;
        let s = TimeSeries::from_fn(start, 5, 288 + 144, |_| 0.0).unwrap();
        assert_eq!(s.first_full_day(), Some(11));
        assert_eq!(s.last_full_day(), Some(11));
        assert!(s.day_values(10).is_none());
    }

    #[test]
    fn empty_series_days() {
        let s = TimeSeries::empty(Timestamp::EPOCH, 5).unwrap();
        assert_eq!(s.first_full_day(), None);
        assert_eq!(s.last_full_day(), None);
        assert_eq!(s.full_days().count(), 0);
    }

    #[test]
    fn append_contiguous() {
        let mut a = ts(&[1.0, 2.0]);
        let b = TimeSeries::new(a.end(), 5, vec![3.0]).unwrap();
        a.append(&b).unwrap();
        assert_eq!(a.values(), &[1.0, 2.0, 3.0]);

        let gap = TimeSeries::new(a.end() + 5, 5, vec![9.0]).unwrap();
        assert!(a.append(&gap).is_err());

        let mut empty = TimeSeries::empty(Timestamp::EPOCH, 5).unwrap();
        empty.append(&a).unwrap();
        assert_eq!(empty.start(), a.start());
        assert_eq!(empty.len(), 3);
    }

    #[test]
    fn append_and_push_preserve_shared_views() {
        let base = ts(&[1.0, 2.0, 3.0]);
        let view = base
            .slice(base.timestamp_at(0), base.timestamp_at(2))
            .unwrap();
        let mut grown = base.clone();
        grown.push(4.0);
        assert_eq!(grown.values(), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(base.values(), &[1.0, 2.0, 3.0]);
        assert_eq!(view.values(), &[1.0, 2.0]);
    }

    #[test]
    fn shifted_moves_timestamps_not_values() {
        let s = ts(&[1.0, 2.0]);
        let t = s.shifted(MINUTES_PER_DAY).unwrap();
        assert_eq!(t.values(), s.values());
        assert_eq!(t.start(), s.start() + MINUTES_PER_DAY);
        assert!(s.shifted(3).is_err());
    }

    #[test]
    fn missing_and_finite_checks() {
        let s = ts(&[1.0, f64::NAN, 3.0]);
        assert_eq!(s.missing_count(), 2 - 1);
        assert!(matches!(
            s.check_finite(),
            Err(TimeSeriesError::NonFiniteValue { index: 1 })
        ));
        assert!(ts(&[1.0, 2.0]).check_finite().is_ok());
    }

    #[test]
    fn iter_pairs() {
        let s = ts(&[1.0, 2.0]);
        let pairs: Vec<_> = s.iter().collect();
        assert_eq!(pairs[0], (s.start(), 1.0));
        assert_eq!(pairs[1], (s.start() + 5, 2.0));
    }

    #[test]
    fn same_grid() {
        let a = ts(&[1.0]);
        let b = TimeSeries::new(a.start() + 25, 5, vec![2.0]).unwrap();
        let c = TimeSeries::new(a.start(), 15, vec![2.0]).unwrap();
        assert!(a.same_grid(&b));
        assert!(!a.same_grid(&c));
    }
}
