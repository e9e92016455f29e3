//! Minute-resolution timestamps.

use crate::calendar::{DayOfWeek, MINUTES_PER_DAY, MINUTES_PER_WEEK};
use serde::Serialize;
use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// A point in time with minute resolution, stored as minutes since the Unix
/// epoch (1970-01-01 00:00 UTC).
///
/// All Seagull telemetry is gridded at five- or fifteen-minute resolution
/// (paper Sections 2.2 and A.1), so minutes are exact. Negative values are
/// permitted (times before the epoch) although they never occur in practice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
#[serde(transparent)]
pub struct Timestamp(pub i64);

impl Timestamp {
    /// The Unix epoch: 1970-01-01 00:00, a Thursday.
    pub const EPOCH: Timestamp = Timestamp(0);

    /// Creates a timestamp from minutes since the epoch.
    #[inline]
    pub const fn from_minutes(minutes: i64) -> Self {
        Timestamp(minutes)
    }

    /// Creates a timestamp from whole days since the epoch.
    #[inline]
    pub const fn from_days(days: i64) -> Self {
        Timestamp(days * MINUTES_PER_DAY)
    }

    /// Minutes since the epoch.
    #[inline]
    pub const fn minutes(self) -> i64 {
        self.0
    }

    /// The day index (days since the epoch), floor semantics for negative
    /// timestamps.
    #[inline]
    pub const fn day_index(self) -> i64 {
        self.0.div_euclid(MINUTES_PER_DAY)
    }

    /// Minute of the day, in `0..1440`.
    #[inline]
    pub const fn minute_of_day(self) -> i64 {
        self.0.rem_euclid(MINUTES_PER_DAY)
    }

    /// Minute of the week, in `0..10080`, where minute 0 is Monday 00:00.
    #[inline]
    pub const fn minute_of_week(self) -> i64 {
        // Epoch day (1970-01-01) is a Thursday; shift so Monday begins a week.
        (self.0 - 4 * MINUTES_PER_DAY).rem_euclid(MINUTES_PER_WEEK)
    }

    /// Day of week for this timestamp.
    #[inline]
    pub fn day_of_week(self) -> DayOfWeek {
        DayOfWeek::from_day_index(self.day_index())
    }

    /// The midnight starting this timestamp's day.
    #[inline]
    pub const fn start_of_day(self) -> Timestamp {
        Timestamp(self.day_index() * MINUTES_PER_DAY)
    }

    /// Rounds down to a multiple of `step_min` minutes from the epoch.
    #[inline]
    pub const fn align_down(self, step_min: u32) -> Timestamp {
        let s = step_min as i64;
        Timestamp(self.0.div_euclid(s) * s)
    }

    /// Rounds up to a multiple of `step_min` minutes from the epoch.
    #[inline]
    pub const fn align_up(self, step_min: u32) -> Timestamp {
        let s = step_min as i64;
        Timestamp(self.0.div_euclid(s) * s + if self.0.rem_euclid(s) == 0 { 0 } else { s })
    }

    /// True if this timestamp lies on the `step_min` grid.
    #[inline]
    pub const fn is_aligned(self, step_min: u32) -> bool {
        self.0.rem_euclid(step_min as i64) == 0
    }
}

impl Add<i64> for Timestamp {
    type Output = Timestamp;
    #[inline]
    fn add(self, minutes: i64) -> Timestamp {
        Timestamp(self.0 + minutes)
    }
}

impl AddAssign<i64> for Timestamp {
    #[inline]
    fn add_assign(&mut self, minutes: i64) {
        self.0 += minutes;
    }
}

impl Sub<i64> for Timestamp {
    type Output = Timestamp;
    #[inline]
    fn sub(self, minutes: i64) -> Timestamp {
        Timestamp(self.0 - minutes)
    }
}

impl SubAssign<i64> for Timestamp {
    #[inline]
    fn sub_assign(&mut self, minutes: i64) {
        self.0 -= minutes;
    }
}

impl Sub<Timestamp> for Timestamp {
    type Output = i64;
    /// Difference in minutes.
    #[inline]
    fn sub(self, rhs: Timestamp) -> i64 {
        self.0 - rhs.0
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let day = self.day_index();
        let mod_day = self.minute_of_day();
        write!(f, "d{}+{:02}:{:02}", day, mod_day / 60, mod_day % 60)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_thursday() {
        assert_eq!(Timestamp::EPOCH.day_of_week(), DayOfWeek::Thursday);
    }

    #[test]
    fn day_index_and_minute_of_day() {
        let t = Timestamp::from_minutes(3 * MINUTES_PER_DAY + 125);
        assert_eq!(t.day_index(), 3);
        assert_eq!(t.minute_of_day(), 125);
        assert_eq!(t.start_of_day(), Timestamp::from_days(3));
    }

    #[test]
    fn negative_timestamps_floor() {
        let t = Timestamp::from_minutes(-1);
        assert_eq!(t.day_index(), -1);
        assert_eq!(t.minute_of_day(), MINUTES_PER_DAY - 1);
    }

    #[test]
    fn minute_of_week_starts_monday() {
        // Day 4 after the epoch is Monday 1970-01-05.
        let monday = Timestamp::from_days(4);
        assert_eq!(monday.day_of_week(), DayOfWeek::Monday);
        assert_eq!(monday.minute_of_week(), 0);
        assert_eq!((monday + 61).minute_of_week(), 61);
        assert_eq!((monday - 1).minute_of_week(), MINUTES_PER_WEEK - 1);
    }

    #[test]
    fn alignment() {
        let t = Timestamp::from_minutes(17);
        assert_eq!(t.align_down(5).minutes(), 15);
        assert_eq!(t.align_up(5).minutes(), 20);
        assert!(Timestamp::from_minutes(20).is_aligned(5));
        assert!(!t.is_aligned(5));
        assert_eq!(Timestamp::from_minutes(20).align_up(5).minutes(), 20);
        assert_eq!(Timestamp::from_minutes(-17).align_down(5).minutes(), -20);
        assert_eq!(Timestamp::from_minutes(-17).align_up(5).minutes(), -15);
    }

    #[test]
    fn arithmetic() {
        let t = Timestamp::from_minutes(100);
        assert_eq!((t + 5).minutes(), 105);
        assert_eq!((t - 5).minutes(), 95);
        assert_eq!(t + 5 - t, 5);
        let mut u = t;
        u += 10;
        u -= 4;
        assert_eq!(u.minutes(), 106);
    }

    #[test]
    fn display_format() {
        let t = Timestamp::from_minutes(MINUTES_PER_DAY + 65);
        assert_eq!(t.to_string(), "d1+01:05");
    }
}
