//! Additional telemetry signals — the Section 2.2 extension.
//!
//! "For the backup scheduling scenario, we have selected the average customer
//! CPU load percentage per five minutes as an indicator of customer activity.
//! Other signals (memory, I/O, number of active connections, etc.) can be
//! added to improve accuracy." This module generates those signals,
//! correlated with the CPU shape the way real database telemetry is:
//!
//! * **memory** tracks a smoothed (slow-moving) version of CPU on top of a
//!   resident baseline — buffer pools fill under load and drain slowly;
//! * **connections** scale with instantaneous CPU plus count noise;
//! * **disk I/O** follows CPU with multiplicative burstiness.
//!
//! Each signal is a pure function of (server seed, timestamp), like the CPU
//! shape itself, so any window of any signal can be regenerated exactly.

use crate::shape::LoadShape;
use seagull_timeseries::{TimeSeries, Timestamp};
use serde::Serialize;

/// The telemetry signals Seagull can consume.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum SignalKind {
    /// Average customer CPU load percentage (the paper's deployed signal).
    Cpu,
    /// Memory utilization percentage.
    Memory,
    /// Active connection count.
    Connections,
    /// Disk I/O throughput, MB per minute.
    DiskIo,
}

impl SignalKind {
    /// All signals.
    pub const ALL: [SignalKind; 4] = [
        SignalKind::Cpu,
        SignalKind::Memory,
        SignalKind::Connections,
        SignalKind::DiskIo,
    ];

    /// Column label for extracts.
    pub fn label(self) -> &'static str {
        match self {
            SignalKind::Cpu => "avg_cpu",
            SignalKind::Memory => "avg_memory",
            SignalKind::Connections => "active_connections",
            SignalKind::DiskIo => "disk_io_mb_min",
        }
    }
}

/// Generates the full signal set for one server from its CPU shape.
#[derive(Debug, Clone, Copy)]
pub struct SignalGenerator {
    shape: LoadShape,
    seed: u64,
}

impl SignalGenerator {
    /// Wraps a server's CPU shape.
    pub fn new(shape: LoadShape, seed: u64) -> SignalGenerator {
        SignalGenerator { shape, seed }
    }

    /// The value of `kind` at `at`.
    pub fn value(&self, kind: SignalKind, at: Timestamp) -> f64 {
        let cpu = self.shape.value(at);
        match kind {
            SignalKind::Cpu => cpu,
            SignalKind::Memory => {
                // Resident baseline + exponentially smoothed CPU: average the
                // CPU over a trailing 2-hour comb (cheap deterministic proxy
                // for a low-pass filter).
                let mut acc = 0.0;
                let mut weight = 0.0;
                for (i, w) in [1.0f64, 0.8, 0.6, 0.4, 0.2].iter().enumerate() {
                    acc += w * self.shape.value(at - (i as i64 * 30));
                    weight += w;
                }
                let smoothed = acc / weight;
                (35.0 + 0.6 * smoothed).clamp(0.0, 100.0)
            }
            SignalKind::Connections => {
                // ~1.5 connections per CPU point plus a small floor and
                // deterministic count noise.
                let noise = (hash_at(self.seed ^ 0x636f_6e6e, at) % 5) as f64;
                (3.0 + 1.5 * cpu + noise).floor()
            }
            SignalKind::DiskIo => {
                // I/O tracks CPU with multiplicative burstiness in [0.5, 1.5].
                let u = (hash_at(self.seed ^ 0x6469_736b, at) % 1024) as f64 / 1024.0;
                (0.5 + u) * 4.0 * cpu
            }
        }
    }

    /// A gridded series of `kind` covering `[start, start + len·step)`.
    pub fn series(
        &self,
        kind: SignalKind,
        start: Timestamp,
        step_min: u32,
        len: usize,
    ) -> TimeSeries {
        TimeSeries::from_fn(start, step_min, len, |t| self.value(kind, t))
            .expect("caller passes a grid-aligned start")
    }
}

fn hash_at(seed: u64, at: Timestamp) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(at.minutes() as u64);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::GeneratedClass;
    use crate::shape::ShapeParams;

    fn generator() -> SignalGenerator {
        SignalGenerator::new(
            LoadShape::new(GeneratedClass::DailyPattern, 11, ShapeParams::default()),
            11,
        )
    }

    #[test]
    fn signals_are_deterministic() {
        let g = generator();
        let t = Timestamp::from_minutes(10_000_000);
        for kind in SignalKind::ALL {
            assert_eq!(g.value(kind, t), g.value(kind, t));
        }
    }

    #[test]
    fn cpu_signal_matches_shape() {
        let g = generator();
        let t = Timestamp::from_days(700) + 600;
        assert_eq!(
            g.value(SignalKind::Cpu, t),
            LoadShape::new(GeneratedClass::DailyPattern, 11, ShapeParams::default()).value(t)
        );
    }

    #[test]
    fn memory_is_bounded_and_smoother_than_cpu() {
        let g = generator();
        let start = Timestamp::from_days(700);
        let cpu = g.series(SignalKind::Cpu, start, 5, 288);
        let mem = g.series(SignalKind::Memory, start, 5, 288);
        for v in mem.values() {
            assert!((0.0..=100.0).contains(v));
        }
        // Smoothness: mean absolute first difference must be smaller.
        let rough = |s: &TimeSeries| {
            s.values()
                .windows(2)
                .map(|w| (w[1] - w[0]).abs())
                .sum::<f64>()
                / (s.len() - 1) as f64
        };
        assert!(rough(&mem) < rough(&cpu));
    }

    #[test]
    fn connections_are_integral_and_track_cpu() {
        let g = generator();
        let start = Timestamp::from_days(700);
        let cpu = g.series(SignalKind::Cpu, start, 5, 288);
        let conn = g.series(SignalKind::Connections, start, 5, 288);
        for v in conn.values() {
            assert_eq!(v.fract(), 0.0, "connection counts are whole");
            assert!(*v >= 3.0);
        }
        // Correlation with CPU should be strongly positive.
        let corr = correlation(cpu.values(), conn.values());
        assert!(corr > 0.8, "corr {corr}");
    }

    #[test]
    fn disk_io_nonnegative_and_correlated() {
        let g = generator();
        let start = Timestamp::from_days(700);
        let cpu = g.series(SignalKind::Cpu, start, 5, 288);
        let io = g.series(SignalKind::DiskIo, start, 5, 288);
        assert!(io.values().iter().all(|v| *v >= 0.0));
        let corr = correlation(cpu.values(), io.values());
        assert!(corr > 0.5, "corr {corr}");
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(SignalKind::Cpu.label(), "avg_cpu");
        assert_eq!(SignalKind::Memory.label(), "avg_memory");
    }

    fn correlation(a: &[f64], b: &[f64]) -> f64 {
        let ma = seagull_timeseries::mean(a);
        let mb = seagull_timeseries::mean(b);
        let mut num = 0.0;
        let mut da = 0.0;
        let mut db = 0.0;
        for (x, y) in a.iter().zip(b) {
            num += (x - ma) * (y - mb);
            da += (x - ma) * (x - ma);
            db += (y - mb) * (y - mb);
        }
        num / (da.sqrt() * db.sqrt()).max(1e-12)
    }
}
