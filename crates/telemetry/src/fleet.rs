//! Seeded fleet generation.
//!
//! The paper's input is "a random sample of several tens of thousands of
//! servers from four regions during one month in 2019" (Section 3.2). This
//! module regenerates such samples synthetically: a [`FleetSpec`] fixes the
//! population mix (defaults match the paper's measured Figure 3 exactly), the
//! per-region server counts, and the observation window; [`FleetGenerator`]
//! deterministically expands it into per-server metadata and gridded
//! telemetry.

use crate::server::{BackupConfig, GeneratedClass, ServerId, ServerMeta};
use crate::shape::{LoadShape, ShapeParams};
use seagull_timeseries::rng::ChaCha8;
use seagull_timeseries::{TimeSeries, Timestamp};
use serde::Serialize;

/// One region and its server count. Regions differ in size by orders of
/// magnitude in production ("the size of input files ranges from hundreds of
/// kilobytes to a few gigabytes").
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct RegionSpec {
    /// Region name (blob keys and pipeline runs are per region).
    pub name: String,
    /// Number of servers generated in the region.
    pub servers: usize,
}

/// Population mix of generated server classes. Fractions must sum to 1.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ClassMix {
    /// Servers that exist fewer than three weeks (paper: 42.1 %).
    pub short_lived: f64,
    /// Long-lived with near-constant load (paper: 53.5 %).
    pub stable: f64,
    /// Long-lived with a daily pattern (paper: ~0.2 %).
    pub daily: f64,
    /// Long-lived with a weekly pattern (paper: ~0.1 %).
    pub weekly: f64,
    /// Long-lived with no recognizable pattern (paper: 4.2 %).
    pub unstable: f64,
}

impl Default for ClassMix {
    /// The Figure 3 distribution.
    fn default() -> Self {
        ClassMix {
            short_lived: 0.421,
            stable: 0.535,
            daily: 0.002,
            weekly: 0.001,
            unstable: 0.041,
        }
    }
}

impl ClassMix {
    /// Checks the fractions are nonnegative and sum to ~1.
    pub fn validate(&self) -> Result<(), String> {
        let parts = [
            self.short_lived,
            self.stable,
            self.daily,
            self.weekly,
            self.unstable,
        ];
        if parts.iter().any(|p| *p < 0.0) {
            return Err("class fractions must be nonnegative".into());
        }
        let sum: f64 = parts.iter().sum();
        if (sum - 1.0).abs() > 1e-6 {
            return Err(format!("class fractions sum to {sum}, expected 1"));
        }
        Ok(())
    }
}

/// Full specification of a synthetic fleet.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FleetSpec {
    /// Master seed; everything downstream derives from it.
    pub seed: u64,
    /// Regions and their sizes.
    pub regions: Vec<RegionSpec>,
    /// First day (index) of the observation window. Long-lived servers are
    /// created at least four weeks before this day so that the three-week
    /// lifespan rule (Definition 3) can fire within the window.
    pub start_day: i64,
    /// Telemetry grid in minutes (5 for PostgreSQL/MySQL, 15 for SQL DBs).
    pub grid_min: u32,
    /// Population mix.
    pub mix: ClassMix,
    /// Fraction of servers whose weekly peak reaches CPU capacity
    /// (paper Fig. 13(b): 3.7 %).
    pub capacity_reaching: f64,
}

impl FleetSpec {
    /// A small single-region fleet for examples and tests.
    pub fn small_region(seed: u64) -> FleetSpec {
        FleetSpec {
            seed,
            regions: vec![RegionSpec {
                name: "region-a".into(),
                servers: 80,
            }],
            start_day: 18_000, // some day in 2019
            grid_min: 5,
            mix: ClassMix::default(),
            capacity_reaching: 0.037,
        }
    }

    /// The paper's four-region setup, scaled by `scale` servers per region
    /// unit (sizes vary by more than an order of magnitude, mirroring the
    /// "hundreds of kilobytes to a few gigabytes" spread).
    pub fn four_regions(seed: u64, scale: usize) -> FleetSpec {
        FleetSpec {
            seed,
            regions: vec![
                RegionSpec {
                    name: "region-xs".into(),
                    servers: scale,
                },
                RegionSpec {
                    name: "region-s".into(),
                    servers: scale * 4,
                },
                RegionSpec {
                    name: "region-m".into(),
                    servers: scale * 12,
                },
                RegionSpec {
                    name: "region-l".into(),
                    servers: scale * 40,
                },
            ],
            start_day: 18_000,
            grid_min: 5,
            mix: ClassMix::default(),
            capacity_reaching: 0.037,
        }
    }

    /// Total servers across all regions.
    pub fn total_servers(&self) -> usize {
        self.regions.iter().map(|r| r.servers).sum()
    }
}

/// One server's generated metadata and telemetry over the window.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ServerTelemetry {
    /// Static metadata (identity, lifecycle, backup configuration).
    pub meta: ServerMeta,
    /// Gridded load covering the intersection of the server's lifetime with
    /// the observation window.
    pub series: TimeSeries,
    /// The ground-truth shape (kept so experiments can regenerate arbitrary
    /// extra days, e.g. "true" load on the backup day).
    pub shape: LoadShape,
}

impl ServerTelemetry {
    /// Regenerates the true load for an arbitrary day (even outside the
    /// stored series), if the server is alive on it.
    pub fn true_day(&self, day_index: i64) -> Option<TimeSeries> {
        if !self.meta.alive_on(day_index) {
            return None;
        }
        let n = (seagull_timeseries::MINUTES_PER_DAY / self.series.step_min() as i64) as usize;
        Some(
            TimeSeries::from_fn(
                Timestamp::from_days(day_index),
                self.series.step_min(),
                n,
                |t| self.shape.value(t),
            )
            .expect("day start is grid-aligned"),
        )
    }
}

/// Deterministic fleet expansion.
#[derive(Debug, Clone)]
pub struct FleetGenerator {
    spec: FleetSpec,
}

impl FleetGenerator {
    /// Creates a generator; panics if the class mix is invalid.
    pub fn new(spec: FleetSpec) -> FleetGenerator {
        spec.mix.validate().expect("invalid class mix");
        FleetGenerator { spec }
    }

    /// The spec.
    pub fn spec(&self) -> &FleetSpec {
        &self.spec
    }

    /// Generates every region over a window of `weeks` weeks.
    pub fn generate_weeks(&self, weeks: usize) -> Vec<ServerTelemetry> {
        (0..self.spec.regions.len())
            .flat_map(|r| self.generate_region(r, weeks))
            .collect()
    }

    /// Generates one region (by index into `spec.regions`) over `weeks` weeks.
    pub fn generate_region(&self, region_idx: usize, weeks: usize) -> Vec<ServerTelemetry> {
        let region = &self.spec.regions[region_idx];
        let window_start = self.spec.start_day;
        let window_end = window_start + (weeks * 7) as i64;
        // Global index offset so server ids are fleet-unique.
        let offset: usize = self.spec.regions[..region_idx]
            .iter()
            .map(|r| r.servers)
            .sum();
        (0..region.servers)
            .map(|i| self.generate_server(offset + i, &region.name, window_start, window_end))
            .collect()
    }

    fn generate_server(
        &self,
        index: usize,
        region: &str,
        window_start: i64,
        window_end: i64,
    ) -> ServerTelemetry {
        let mut rng = ChaCha8::seed_from_u64(
            self.spec.seed ^ (index as u64).wrapping_mul(0x9e3779b97f4a7c15),
        );
        let mix = &self.spec.mix;

        // Draw lifecycle and class.
        let roll = rng.next_f64();
        let (short_lived, class) = if roll < mix.short_lived {
            // Short-lived servers reuse the long-lived conditional mix for
            // their shape; the lifecycle is what makes them short-lived.
            let long_total = mix.stable + mix.daily + mix.weekly + mix.unstable;
            let r2 = rng.next_f64() * long_total;
            let c = if r2 < mix.stable {
                GeneratedClass::Stable
            } else if r2 < mix.stable + mix.daily {
                GeneratedClass::DailyPattern
            } else if r2 < mix.stable + mix.daily + mix.weekly {
                GeneratedClass::WeeklyPattern
            } else {
                GeneratedClass::Unstable
            };
            (true, c)
        } else if roll < mix.short_lived + mix.stable {
            (false, GeneratedClass::Stable)
        } else if roll < mix.short_lived + mix.stable + mix.daily {
            (false, GeneratedClass::DailyPattern)
        } else if roll < mix.short_lived + mix.stable + mix.daily + mix.weekly {
            (false, GeneratedClass::WeeklyPattern)
        } else {
            (false, GeneratedClass::Unstable)
        };

        let (created_day, deleted_day) = if short_lived {
            // Created inside (or shortly before) the window, lives 1..=20 days.
            let created = window_start - 3 + rng.gen_range(0..(window_end - window_start + 3));
            let lifespan = rng.gen_range(1..=20);
            (created, Some(created + lifespan))
        } else {
            // Created 4..=30 weeks before the window; never deleted.
            (window_start - rng.gen_range(28..=210), None)
        };

        // Peak-load target (Fig. 13(b)): a small fraction reaches capacity.
        let reaches_capacity = rng.next_f64() < self.spec.capacity_reaching;
        let target_peak: f64 = if reaches_capacity {
            rng.gen_range(98.0..=100.0)
        } else {
            rng.gen_range(15.0..90.0)
        };
        let noise_sigma = rng.gen_range(0.6..1.6);
        let params = match class {
            GeneratedClass::Stable => ShapeParams {
                base_load: (target_peak - 3.5 * noise_sigma).max(1.0),
                amplitude: 0.0,
                noise_sigma,
                weekend_scale: 1.0,
                phase_min: 0,
                capacity: 100.0,
            },
            GeneratedClass::DailyPattern | GeneratedClass::WeeklyPattern => {
                let base = rng.gen_range(3.0..12.0);
                ShapeParams {
                    base_load: base,
                    amplitude: (target_peak - base).max(15.0),
                    noise_sigma,
                    weekend_scale: if class == GeneratedClass::WeeklyPattern {
                        rng.gen_range(0.05..0.3)
                    } else {
                        1.0
                    },
                    phase_min: rng.gen_range(0..24) * 30,
                    capacity: 100.0,
                }
            }
            GeneratedClass::Unstable => {
                let base = rng.gen_range(3.0..12.0);
                ShapeParams {
                    base_load: base,
                    amplitude: (target_peak - base).max(15.0),
                    noise_sigma,
                    weekend_scale: 1.0,
                    phase_min: 0,
                    capacity: 100.0,
                }
            }
        };

        let grid = self.spec.grid_min;
        let backup = BackupConfig {
            default_start_minute: rng.gen_range(0..(1440 / grid)) * grid,
            duration_min: rng.gen_range(6..=36) * grid, // 30 min .. 3 h on a 5-min grid
            backup_weekday: rng.gen_range(0..7),
        };

        let meta = ServerMeta {
            id: ServerId(index as u64),
            region: region.to_string(),
            created_day,
            deleted_day,
            class,
            backup,
        };
        let shape = LoadShape::new(class, self.spec.seed ^ hash_index(index), params);

        // Telemetry covers lifetime ∩ window.
        let from = created_day.max(window_start);
        let to = deleted_day.unwrap_or(window_end).min(window_end);
        let n_days = (to - from).max(0) as usize;
        let points = n_days * (seagull_timeseries::MINUTES_PER_DAY / grid as i64) as usize;
        let series =
            TimeSeries::from_fn(Timestamp::from_days(from), grid, points, |t| shape.value(t))
                .expect("grid-aligned day start");

        ServerTelemetry {
            meta,
            series,
            shape,
        }
    }
}

fn hash_index(index: usize) -> u64 {
    let mut z = (index as u64).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_mix_is_figure3() {
        let mix = ClassMix::default();
        mix.validate().unwrap();
        assert!((mix.short_lived - 0.421).abs() < 1e-9);
        assert!((mix.stable - 0.535).abs() < 1e-9);
    }

    #[test]
    fn invalid_mix_rejected() {
        let mut mix = ClassMix::default();
        mix.stable += 0.5;
        assert!(mix.validate().is_err());
        mix.stable = -1.0;
        assert!(mix.validate().is_err());
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = FleetSpec::small_region(123);
        let a = FleetGenerator::new(spec.clone()).generate_weeks(1);
        let b = FleetGenerator::new(spec).generate_weeks(1);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.meta, y.meta);
            assert_eq!(x.series, y.series);
        }
    }

    /// Servers 0-3 of seed 2020 as every earlier build drew them (short- and
    /// long-lived, two classes): a change in draw order or width moves one.
    #[test]
    fn seed_2020_metadata_is_pinned() {
        let fleet = FleetGenerator::new(FleetSpec::small_region(2020)).generate_region(0, 1);
        let got: Vec<_> = fleet[..4]
            .iter()
            .map(|s| {
                (
                    s.meta.class,
                    s.meta.created_day,
                    s.meta.deleted_day,
                    s.meta.backup,
                )
            })
            .collect();
        let backup = |default_start_minute, duration_min, backup_weekday| BackupConfig {
            default_start_minute,
            duration_min,
            backup_weekday,
        };
        assert_eq!(
            got,
            [
                (
                    GeneratedClass::Stable,
                    18_006,
                    Some(18_010),
                    backup(1170, 60, 0)
                ),
                (GeneratedClass::Stable, 17_882, None, backup(700, 50, 4)),
                (GeneratedClass::Stable, 17_852, None, backup(125, 95, 1)),
                (
                    GeneratedClass::Unstable,
                    18_002,
                    Some(18_006),
                    backup(130, 50, 5)
                ),
            ]
        );
    }

    #[test]
    fn ids_are_unique_across_regions() {
        let spec = FleetSpec::four_regions(7, 5);
        let fleet = FleetGenerator::new(spec).generate_weeks(1);
        let mut ids: Vec<u64> = fleet.iter().map(|s| s.meta.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), fleet.len());
    }

    #[test]
    fn class_mix_roughly_respected() {
        let mut spec = FleetSpec::small_region(9);
        spec.regions[0].servers = 4000;
        let fleet = FleetGenerator::new(spec.clone()).generate_weeks(4);
        let end = spec.start_day + 28;
        let short =
            fleet.iter().filter(|s| !s.meta.is_long_lived(end)).count() as f64 / fleet.len() as f64;
        assert!((short - 0.421).abs() < 0.04, "short-lived fraction {short}");
        let stable = fleet
            .iter()
            .filter(|s| s.meta.is_long_lived(end) && s.meta.class == GeneratedClass::Stable)
            .count() as f64
            / fleet.len() as f64;
        assert!((stable - 0.535).abs() < 0.04, "stable fraction {stable}");
    }

    #[test]
    fn long_lived_cover_full_window() {
        let spec = FleetSpec::small_region(5);
        let start = spec.start_day;
        let fleet = FleetGenerator::new(spec).generate_weeks(2);
        for s in &fleet {
            if s.meta.deleted_day.is_none() {
                assert_eq!(s.series.start(), Timestamp::from_days(start));
                assert_eq!(s.series.len(), 14 * 288);
            } else {
                assert!(s.series.len() <= 14 * 288);
            }
        }
    }

    #[test]
    fn short_lived_under_three_weeks() {
        let mut spec = FleetSpec::small_region(11);
        spec.regions[0].servers = 1000;
        let fleet = FleetGenerator::new(spec).generate_weeks(4);
        for s in &fleet {
            if let Some(del) = s.meta.deleted_day {
                assert!(del - s.meta.created_day <= 21);
            }
        }
    }

    #[test]
    fn true_day_matches_series() {
        let spec = FleetSpec::small_region(3);
        let start = spec.start_day;
        let fleet = FleetGenerator::new(spec).generate_weeks(1);
        let long = fleet.iter().find(|s| s.meta.deleted_day.is_none()).unwrap();
        let day = long.true_day(start).unwrap();
        assert_eq!(day.values(), long.series.day_values(start).unwrap());
        assert!(long.true_day(start - 1000).is_none());
    }

    #[test]
    fn capacity_reaching_fraction() {
        let mut spec = FleetSpec::small_region(17);
        spec.regions[0].servers = 3000;
        let fleet = FleetGenerator::new(spec).generate_weeks(1);
        let reaching = fleet
            .iter()
            .filter(|s| !s.series.is_empty())
            .filter(|s| seagull_timeseries::max(s.series.values()) >= 97.0)
            .count() as f64
            / fleet.len() as f64;
        // Expect ~3.7 % (stable near-capacity servers and bursty unstable
        // ones both contribute; tolerance is loose).
        assert!(reaching > 0.01 && reaching < 0.12, "reaching {reaching}");
    }
}
