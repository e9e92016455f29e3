//! Calendar constants and day-of-week math.
//!
//! Seagull schedules backups per *day* and recognizes *daily* and *weekly*
//! load patterns (paper Definitions 5 and 6), so whole-day and whole-week
//! arithmetic shows up throughout the system.

use serde::Serialize;
use std::fmt;

/// Minutes in an hour.
pub const MINUTES_PER_HOUR: i64 = 60;
/// Minutes in a day.
pub const MINUTES_PER_DAY: i64 = 24 * MINUTES_PER_HOUR;
/// Minutes in a week.
pub const MINUTES_PER_WEEK: i64 = 7 * MINUTES_PER_DAY;

/// Day of the week. The Unix epoch (1970-01-01) is a Thursday.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub enum DayOfWeek {
    Monday,
    Tuesday,
    Wednesday,
    Thursday,
    Friday,
    Saturday,
    Sunday,
}

impl DayOfWeek {
    /// All days, Monday first.
    pub const ALL: [DayOfWeek; 7] = [
        DayOfWeek::Monday,
        DayOfWeek::Tuesday,
        DayOfWeek::Wednesday,
        DayOfWeek::Thursday,
        DayOfWeek::Friday,
        DayOfWeek::Saturday,
        DayOfWeek::Sunday,
    ];

    /// Day of week for a day index (days since the epoch).
    #[inline]
    pub fn from_day_index(day_index: i64) -> DayOfWeek {
        // Day 0 is Thursday => shift by 3 so that 0 maps to Monday-based 3.
        Self::ALL[(day_index + 3).rem_euclid(7) as usize]
    }

    /// Monday-based index in `0..7`.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// True for Saturday and Sunday.
    #[inline]
    pub fn is_weekend(self) -> bool {
        matches!(self, DayOfWeek::Saturday | DayOfWeek::Sunday)
    }
}

impl fmt::Display for DayOfWeek {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DayOfWeek::Monday => "Mon",
            DayOfWeek::Tuesday => "Tue",
            DayOfWeek::Wednesday => "Wed",
            DayOfWeek::Thursday => "Thu",
            DayOfWeek::Friday => "Fri",
            DayOfWeek::Saturday => "Sat",
            DayOfWeek::Sunday => "Sun",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_day_is_thursday() {
        assert_eq!(DayOfWeek::from_day_index(0), DayOfWeek::Thursday);
        assert_eq!(DayOfWeek::from_day_index(1), DayOfWeek::Friday);
        assert_eq!(DayOfWeek::from_day_index(4), DayOfWeek::Monday);
        assert_eq!(DayOfWeek::from_day_index(-1), DayOfWeek::Wednesday);
        assert_eq!(DayOfWeek::from_day_index(-4), DayOfWeek::Sunday);
    }

    #[test]
    fn weekly_periodicity() {
        for d in -20..20 {
            assert_eq!(
                DayOfWeek::from_day_index(d),
                DayOfWeek::from_day_index(d + 7)
            );
        }
    }

    #[test]
    fn weekend_flag() {
        assert!(DayOfWeek::Saturday.is_weekend());
        assert!(DayOfWeek::Sunday.is_weekend());
        assert!(!DayOfWeek::Monday.is_weekend());
        assert!(!DayOfWeek::Friday.is_weekend());
    }

    #[test]
    fn indices_monday_based() {
        assert_eq!(DayOfWeek::Monday.index(), 0);
        assert_eq!(DayOfWeek::Sunday.index(), 6);
        for (i, d) in DayOfWeek::ALL.iter().enumerate() {
            assert_eq!(d.index(), i);
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(DayOfWeek::Wednesday.to_string(), "Wed");
    }
}
