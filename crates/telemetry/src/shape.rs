//! Per-class load-shape models.
//!
//! Each simulated server owns a [`LoadShape`]: a *pure function* from
//! timestamp to average-customer-CPU-percentage. Purity (the value depends
//! only on the server seed and the timestamp) makes generation deterministic
//! and order-independent, so any slice of any server's telemetry can be
//! regenerated bit-identically by every experiment.
//!
//! The four archetypes mirror the paper's Section 3.2 classification:
//!
//! * **Stable** (Fig. 4) — near-constant load; the weekly average predicts it.
//! * **Daily pattern** (Fig. 5) — "such a precise daily pattern could be the
//!   result of an automated recurring workload": a diurnal curve repeated
//!   identically every day, with amplitude far exceeding the acceptable error
//!   bound so the server is *not* stable.
//! * **Weekly pattern** (Fig. 6) — weekday/weekend structure: previous
//!   equivalent day predicts it, previous day fails across the
//!   weekday/weekend boundary.
//! * **Unstable** (Fig. 7) — piecewise regime switches and bursts that follow
//!   neither pattern.

use crate::server::GeneratedClass;
use seagull_timeseries::{Timestamp, MINUTES_PER_DAY};
use serde::Serialize;

/// Parameters of a server's load shape.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ShapeParams {
    /// Baseline load level (CPU %).
    pub base_load: f64,
    /// Peak-to-baseline amplitude of the diurnal component (CPU %).
    pub amplitude: f64,
    /// Standard deviation of the per-sample Gaussian noise (CPU %).
    pub noise_sigma: f64,
    /// Multiplier applied to the diurnal component on weekends
    /// (`WeeklyPattern` only; 1.0 elsewhere).
    pub weekend_scale: f64,
    /// Phase shift of the diurnal curve in minutes (e.g. regional timezones).
    pub phase_min: i64,
    /// Hard capacity ceiling (CPU %); values clamp to `[0, capacity]`.
    pub capacity: f64,
}

impl Default for ShapeParams {
    fn default() -> Self {
        ShapeParams {
            base_load: 20.0,
            amplitude: 40.0,
            noise_sigma: 1.0,
            weekend_scale: 0.2,
            phase_min: 0,
            capacity: 100.0,
        }
    }
}

/// A deterministic load generator for one server.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct LoadShape {
    kind: GeneratedClass,
    seed: u64,
    params: ShapeParams,
}

impl LoadShape {
    /// Creates a shape of the given archetype.
    pub fn new(kind: GeneratedClass, seed: u64, params: ShapeParams) -> LoadShape {
        LoadShape { kind, seed, params }
    }

    /// The archetype.
    pub fn kind(&self) -> GeneratedClass {
        self.kind
    }

    /// The parameters.
    pub fn params(&self) -> &ShapeParams {
        &self.params
    }

    /// The load value at a timestamp, in `[0, capacity]`.
    pub fn value(&self, at: Timestamp) -> f64 {
        let p = &self.params;
        let noise = gaussian(self.seed ^ 0x6e6f_6973, at.minutes() as u64) * p.noise_sigma;
        let raw = match self.kind {
            GeneratedClass::Stable => p.base_load + noise,
            GeneratedClass::DailyPattern => {
                p.base_load + p.amplitude * diurnal(at, p.phase_min) + noise
            }
            GeneratedClass::WeeklyPattern => {
                let scale = if at.day_of_week().is_weekend() {
                    p.weekend_scale
                } else {
                    1.0
                };
                p.base_load + p.amplitude * scale * diurnal(at, p.phase_min) + noise
            }
            GeneratedClass::Unstable => self.unstable_value(at) + noise,
        };
        raw.clamp(0.0, p.capacity)
    }

    /// Unstable servers hold a random level for a random multi-hour regime,
    /// then jump; occasional bursts ride on top. Both the regime boundaries
    /// and the levels are pure functions of (seed, block index), so the shape
    /// conforms to neither a daily nor a weekly pattern.
    fn unstable_value(&self, at: Timestamp) -> f64 {
        let p = &self.params;
        // Regime blocks: fixed 6-hour micro-blocks grouped into regimes of
        // roughly 6-42 hours, decided by per-block hashes. Long enough that
        // adjacent days *sometimes* resemble each other (a minority of these
        // servers is borderline predictable, as in the paper), short enough
        // that no daily or weekly pattern ever holds across a whole window.
        let micro = at.minutes().div_euclid(360) as u64;
        // Walk back to the start of the current regime (at most 6 blocks).
        let mut start = micro;
        for _ in 0..6 {
            if start == 0 {
                break;
            }
            // A block begins a new regime with probability ~0.3.
            if uniform(self.seed ^ 0x7265_6769, start) < 0.3 {
                break;
            }
            start -= 1;
        }
        let level = p.base_load + uniform(self.seed ^ 0x6c65_766c, start) * p.amplitude;
        // Bursts: ~4 % of hour slots spike towards capacity.
        let slot = at.minutes().div_euclid(60) as u64;
        let burst = if uniform(self.seed ^ 0x6275_7273, slot) < 0.04 {
            0.6 * (p.capacity - level).max(0.0)
        } else {
            0.0
        };
        level + burst
    }
}

/// Smooth diurnal basis in `[0, 1]`: zero overnight, a raised-sine hump over
/// the 08:00–20:00 business window (peak at 14:00), shifted by `phase_min`.
fn diurnal(at: Timestamp, phase_min: i64) -> f64 {
    let m = (at.minute_of_day() - phase_min).rem_euclid(MINUTES_PER_DAY) as f64;
    let start = 8.0 * 60.0;
    let span = 12.0 * 60.0;
    if m < start || m > start + span {
        return 0.0;
    }
    ((m - start) / span * std::f64::consts::PI).sin()
}

/// SplitMix64 hash of two words: the pure-function randomness source.
fn hash64(a: u64, b: u64) -> u64 {
    let mut z = a
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(b)
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Uniform in `[0, 1)` from a (seed, index) pair.
fn uniform(seed: u64, index: u64) -> f64 {
    (hash64(seed, index) >> 11) as f64 / (1u64 << 53) as f64
}

/// Standard Gaussian via Box–Muller on two independent uniforms.
fn gaussian(seed: u64, index: u64) -> f64 {
    let u1 = uniform(seed, index).max(1e-12);
    let u2 = uniform(seed ^ 0x5555_5555_5555_5555, index);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use seagull_timeseries::TimeSeries;

    fn shape(kind: GeneratedClass) -> LoadShape {
        LoadShape::new(kind, 7, ShapeParams::default())
    }

    fn gen_days(s: &LoadShape, from_day: i64, days: usize) -> TimeSeries {
        TimeSeries::from_fn(Timestamp::from_days(from_day), 5, days * 288, |t| {
            s.value(t)
        })
        .unwrap()
    }

    #[test]
    fn values_deterministic_and_bounded() {
        let s = shape(GeneratedClass::Unstable);
        let t = Timestamp::from_minutes(123_456_780);
        assert_eq!(s.value(t), s.value(t));
        for i in 0..2000 {
            let v = s.value(Timestamp::from_minutes(i * 5));
            assert!((0.0..=100.0).contains(&v), "value {v} out of range");
        }
    }

    #[test]
    fn stable_stays_near_base() {
        let s = shape(GeneratedClass::Stable);
        let ts = gen_days(&s, 100, 7);
        let mean = ts.mean();
        assert!((mean - 20.0).abs() < 1.0, "mean {mean}");
        // Nearly all points within a few sigma of base.
        let frac_close = ts
            .values()
            .iter()
            .filter(|&&v| (v - 20.0).abs() < 4.0)
            .count() as f64
            / ts.len() as f64;
        assert!(frac_close > 0.98);
    }

    #[test]
    fn daily_pattern_repeats_each_day() {
        let s = shape(GeneratedClass::DailyPattern);
        let ts = gen_days(&s, 100, 2);
        let d0 = ts.day_values(100).unwrap();
        let d1 = ts.day_values(101).unwrap();
        // The deterministic component repeats; only noise differs.
        for (a, b) in d0.iter().zip(d1) {
            assert!((a - b).abs() < 8.0, "daily repeat violated: {a} vs {b}");
        }
        // And it has real amplitude: the peak is far above the base.
        let max = seagull_timeseries::max(d0);
        assert!(max > 50.0, "max {max}");
    }

    #[test]
    fn weekly_pattern_weekend_differs() {
        let s = shape(GeneratedClass::WeeklyPattern);
        // Day 104 is a Monday (epoch day 0 = Thursday; 104 % 7 == 6 -> Wed?).
        // Compute explicitly instead.
        let mut weekday_peak = 0.0f64;
        let mut weekend_peak = 0.0f64;
        for d in 100..114 {
            let ts = gen_days(&s, d, 1);
            let peak = seagull_timeseries::max(ts.values());
            if Timestamp::from_days(d).day_of_week().is_weekend() {
                weekend_peak = weekend_peak.max(peak);
            } else {
                weekday_peak = weekday_peak.max(peak);
            }
        }
        assert!(
            weekday_peak > weekend_peak + 20.0,
            "weekday {weekday_peak} vs weekend {weekend_peak}"
        );
    }

    #[test]
    fn weekly_pattern_repeats_across_weeks() {
        let s = shape(GeneratedClass::WeeklyPattern);
        let a = gen_days(&s, 100, 1);
        let b = gen_days(&s, 107, 1);
        for (x, y) in a.values().iter().zip(b.values()) {
            assert!((x - y).abs() < 8.0);
        }
    }

    #[test]
    fn unstable_differs_day_to_day() {
        let s = shape(GeneratedClass::Unstable);
        let ts = gen_days(&s, 100, 2);
        let d0 = ts.day_values(100).unwrap();
        let d1 = ts.day_values(101).unwrap();
        // A large fraction of points should differ by more than the error
        // bound (else it would accidentally have a daily pattern).
        let big_diffs = d0
            .iter()
            .zip(d1)
            .filter(|(a, b)| (*a - *b).abs() > 10.0)
            .count() as f64
            / d0.len() as f64;
        assert!(big_diffs > 0.3, "only {big_diffs} of points differ");
    }

    #[test]
    fn diurnal_basis_properties() {
        let mk = |m: i64| diurnal(Timestamp::from_minutes(m), 0);
        assert_eq!(mk(0), 0.0); // midnight
        assert_eq!(mk(7 * 60), 0.0); // 07:00
        assert!((mk(14 * 60) - 1.0).abs() < 1e-9); // 14:00 peak
        assert!(mk(10 * 60) > 0.0);
        assert_eq!(mk(21 * 60), 0.0);
        // Phase shift moves the peak.
        let shifted = diurnal(Timestamp::from_minutes(16 * 60), 120);
        assert!((shifted - 1.0).abs() < 1e-9);
    }

    #[test]
    fn gaussian_noise_moments() {
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|i| gaussian(99, i)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn different_seeds_decorrelate() {
        let a = LoadShape::new(GeneratedClass::Unstable, 1, ShapeParams::default());
        let b = LoadShape::new(GeneratedClass::Unstable, 2, ShapeParams::default());
        let ta = gen_days(&a, 50, 1);
        let tb = gen_days(&b, 50, 1);
        let same = ta
            .values()
            .iter()
            .zip(tb.values())
            .filter(|(x, y)| (*x - *y).abs() < 1.0)
            .count();
        assert!(same < ta.len() / 2);
    }
}
