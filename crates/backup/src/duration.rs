//! The backup-duration model.
//!
//! Definition 7 needs "the expected duration of full backup of the server",
//! which in production is estimated from database size and historical backup
//! throughput. This model is the estimator: size divided by throughput plus
//! fixed setup overhead, rounded up to the telemetry grid so the window
//! search operates on whole buckets.

use serde::Serialize;

/// Size-to-duration estimator for full backups.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct BackupDurationModel {
    /// Sustained backup throughput, MB per minute.
    pub throughput_mb_per_min: f64,
    /// Fixed overhead per backup (snapshots, metadata), minutes.
    pub setup_min: f64,
    /// Telemetry grid, minutes; durations round up to a multiple of this.
    pub grid_min: u32,
    /// Lower clamp so tiny databases still get a schedulable window.
    pub min_duration_min: u32,
    /// Upper clamp: a window must fit within one day.
    pub max_duration_min: u32,
}

impl Default for BackupDurationModel {
    fn default() -> Self {
        BackupDurationModel {
            throughput_mb_per_min: 2048.0, // ~34 MB/s sustained
            setup_min: 5.0,
            grid_min: 5,
            min_duration_min: 30,
            max_duration_min: 12 * 60,
        }
    }
}

impl BackupDurationModel {
    /// Expected full-backup duration for a database of `size_mb`, in minutes,
    /// grid-aligned and clamped.
    pub fn estimate_min(&self, size_mb: f64) -> u32 {
        let raw = self.setup_min + size_mb.max(0.0) / self.throughput_mb_per_min;
        let grid = self.grid_min.max(1) as f64;
        let aligned = (raw / grid).ceil() * grid;
        (aligned as u32)
            .max(self.min_duration_min)
            .min(self.max_duration_min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_database_hits_floor() {
        let m = BackupDurationModel::default();
        assert_eq!(m.estimate_min(100.0), 30);
        assert_eq!(m.estimate_min(0.0), 30);
        assert_eq!(m.estimate_min(-5.0), 30);
    }

    #[test]
    fn duration_scales_with_size() {
        let m = BackupDurationModel::default();
        let one_tb = m.estimate_min(1_048_576.0); // 1 TB
                                                  // 1 TB / 2 GB/min = 512 min + 5 setup -> 520 on the 5-min grid.
        assert_eq!(one_tb, 520);
        assert!(m.estimate_min(2_097_152.0) > one_tb);
    }

    #[test]
    fn giant_database_hits_ceiling() {
        let m = BackupDurationModel::default();
        assert_eq!(m.estimate_min(1e9), 720);
    }

    #[test]
    fn grid_alignment() {
        let m = BackupDurationModel {
            grid_min: 15,
            min_duration_min: 15,
            ..BackupDurationModel::default()
        };
        let d = m.estimate_min(100_000.0); // ~48.8 + 5 = ~53.8 -> 60
        assert_eq!(d % 15, 0);
        assert_eq!(d, 60);
    }
}
