//! Server identity, lifecycle, and backup configuration.

use seagull_timeseries::Timestamp;
use serde::Serialize;
use std::fmt;

/// A fleet-unique server identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
#[serde(transparent)]
pub struct ServerId(pub u64);

impl fmt::Display for ServerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "srv-{:08}", self.0)
    }
}

/// Which load archetype a server was *generated* as.
///
/// This is ground truth known only to the simulator. Seagull's classifier
/// (Definitions 3–6 of the paper, implemented in `seagull-core::classify`)
/// must *recover* this structure from the load alone; experiments compare the
/// recovered classes against these labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum GeneratedClass {
    /// Near-constant load.
    Stable,
    /// Strong pattern repeating every day (e.g. an automated recurring job).
    DailyPattern,
    /// Weekday/weekend structure repeating every week.
    WeeklyPattern,
    /// Regime switches and bursts; conforms to no recognizable pattern.
    Unstable,
}

impl GeneratedClass {
    /// Short label used by experiment output.
    pub fn label(self) -> &'static str {
        match self {
            GeneratedClass::Stable => "stable",
            GeneratedClass::DailyPattern => "daily",
            GeneratedClass::WeeklyPattern => "weekly",
            GeneratedClass::Unstable => "unstable",
        }
    }
}

/// Default backup window configuration for a server.
///
/// The paper's motivation: backups are scheduled "by an automated workflow
/// that does not take typical customer activity patterns into account", so
/// the default start time is arbitrary relative to load.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct BackupConfig {
    /// Minute-of-day when the default full backup begins (0..1440).
    pub default_start_minute: u32,
    /// Expected duration of a full backup, in minutes (multiple of the grid).
    pub duration_min: u32,
    /// Day of the week the server is due for its full backup, as a
    /// Monday-based index 0..7. Servers are due "at least once a week".
    pub backup_weekday: u8,
}

impl BackupConfig {
    /// Default backup window `[start, end)` on the given day.
    pub fn default_window_on(&self, day_index: i64) -> (Timestamp, Timestamp) {
        let start = Timestamp::from_days(day_index) + self.default_start_minute as i64;
        (start, start + self.duration_min as i64)
    }
}

/// Static metadata for one server.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ServerMeta {
    /// Fleet-unique identifier.
    pub id: ServerId,
    /// Region the server lives in (pipelines run per region).
    pub region: String,
    /// First day (inclusive) the server existed.
    pub created_day: i64,
    /// First day (exclusive) the server no longer exists; `None` = still alive.
    pub deleted_day: Option<i64>,
    /// Ground-truth generated load class.
    pub class: GeneratedClass,
    /// Backup window configuration.
    pub backup: BackupConfig,
}

impl ServerMeta {
    /// Lifespan in whole days as of `as_of_day` (exclusive).
    pub fn lifespan_days(&self, as_of_day: i64) -> i64 {
        let end = self.deleted_day.unwrap_or(as_of_day).min(as_of_day);
        (end - self.created_day).max(0)
    }

    /// True if the server exists on the given day.
    pub fn alive_on(&self, day_index: i64) -> bool {
        day_index >= self.created_day && self.deleted_day.is_none_or(|d| day_index < d)
    }

    /// Paper Definition 3: long-lived iff it existed more than three weeks.
    pub fn is_long_lived(&self, as_of_day: i64) -> bool {
        self.lifespan_days(as_of_day) > 21
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(created: i64, deleted: Option<i64>) -> ServerMeta {
        ServerMeta {
            id: ServerId(1),
            region: "test".into(),
            created_day: created,
            deleted_day: deleted,
            class: GeneratedClass::Stable,
            backup: BackupConfig {
                default_start_minute: 600,
                duration_min: 60,
                backup_weekday: 2,
            },
        }
    }

    #[test]
    fn lifespan_and_longevity() {
        let m = meta(0, None);
        assert_eq!(m.lifespan_days(10), 10);
        assert!(!m.is_long_lived(21));
        assert!(!m.is_long_lived(21));
        assert!(m.is_long_lived(22));
        let gone = meta(0, Some(5));
        assert_eq!(gone.lifespan_days(10), 5);
        assert!(!gone.is_long_lived(100));
    }

    #[test]
    fn alive_on_respects_bounds() {
        let m = meta(3, Some(7));
        assert!(!m.alive_on(2));
        assert!(m.alive_on(3));
        assert!(m.alive_on(6));
        assert!(!m.alive_on(7));
        let forever = meta(3, None);
        assert!(forever.alive_on(1_000_000));
    }

    #[test]
    fn default_window() {
        let m = meta(0, None);
        let (s, e) = m.backup.default_window_on(4);
        assert_eq!(s, Timestamp::from_days(4) + 600);
        assert_eq!(e - s, 60);
    }

    #[test]
    fn display_id() {
        assert_eq!(ServerId(42).to_string(), "srv-00000042");
    }
}
