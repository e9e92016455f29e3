//! # seagull-backup
//!
//! The backup-scheduling use case — the paper's "use-case-specific online
//! components" (Section 2.3) plus the impact analysis of Section 6.2.
//!
//! * [`fabric`] — the Service Fabric property store substitute: the scheduler
//!   "stores the start time of this window as a service fabric property of
//!   respective PostgreSQL and MySQL database instances. This property is
//!   used by the backup service to schedule backups."
//! * [`scheduler`] — the backup-scheduling algorithm: verify three weeks of
//!   predictability, pick the predicted lowest-load window, write the fabric
//!   property; unpredictable or young servers keep the default time.
//! * [`runner`] — the Master Data Service runner substitute: "the backup
//!   scheduler runs within Master Data Service (MDS) runner per day and
//!   cluster."
//! * [`impact`] — the Figure 13 impact analysis: moved/already-optimal/
//!   incorrect windows per server class, busy-server collision avoidance,
//!   hours of improved customer experience, and the capacity histogram.

#![forbid(unsafe_code)]

pub mod fabric;
pub mod impact;
pub mod runner;
pub mod scheduler;

pub use fabric::{FabricPropertyStore, BACKUP_WINDOW_START_PROPERTY};
pub use impact::{analyze_impact, capacity_histogram, CapacityHistogram, ImpactReport};
pub use runner::{ClusterReport, RunnerReport, RunnerService};
pub use scheduler::{
    BackupScheduler, DefaultReason, ScheduleDecision, ScheduledBackup, SchedulerConfig,
};
