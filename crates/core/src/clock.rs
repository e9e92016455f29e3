//! The Pipeline Scheduler substitute: recurring jobs on a simulated clock.
//!
//! In production "a run of the AML pipeline is scheduled once a week per
//! region" and "the backup scheduler runs within MDS runner per day and
//! cluster" (Section 2.2–2.3). This module provides the clockwork: a
//! day-granular simulated clock and a recurring-job scheduler that fires the
//! weekly pipeline runs and daily runner passes in deterministic order, so
//! whole months of operations can be simulated in tests and experiments.

use serde::Serialize;

/// A recurring job definition.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct RecurringJob {
    /// Job name, echoed into every [`JobRun`].
    pub name: String,
    /// Fires on days where `(day - anchor_day) % every_days == 0`.
    pub every_days: i64,
    /// Day the cadence is anchored at.
    pub anchor_day: i64,
}

impl RecurringJob {
    /// A weekly job anchored at `anchor_day` (the paper's per-region
    /// pipeline cadence).
    pub fn weekly(name: impl Into<String>, anchor_day: i64) -> RecurringJob {
        RecurringJob {
            name: name.into(),
            every_days: 7,
            anchor_day,
        }
    }

    /// A daily job (the runner-service cadence).
    pub fn daily(name: impl Into<String>) -> RecurringJob {
        RecurringJob {
            name: name.into(),
            every_days: 1,
            anchor_day: 0,
        }
    }

    /// True if the job fires on `day`.
    pub fn due_on(&self, day: i64) -> bool {
        self.every_days > 0 && (day - self.anchor_day).rem_euclid(self.every_days) == 0
    }
}

/// A record of one job firing.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct JobRun {
    /// Name of the job that fired.
    pub name: String,
    /// Day it fired on.
    pub day: i64,
}

/// Day-granular scheduler over a simulated clock.
///
/// Jobs fire in registration order within a day — register the weekly
/// pipeline before the daily backup runner so fresh predictions exist when
/// the runner consumes them, exactly as production sequences them.
/// A boxed job action, invoked with the firing day.
type JobAction<'a> = Box<dyn FnMut(i64) + 'a>;

/// The recurring-job scheduler: registered jobs fire in order as the
/// simulated clock advances day by day.
pub struct JobScheduler<'a> {
    jobs: Vec<(RecurringJob, JobAction<'a>)>,
}

impl<'a> JobScheduler<'a> {
    /// Creates an empty scheduler.
    pub fn new() -> JobScheduler<'a> {
        JobScheduler { jobs: Vec::new() }
    }

    /// Registers a job with its action.
    pub fn register(&mut self, job: RecurringJob, action: impl FnMut(i64) + 'a) {
        self.jobs.push((job, Box::new(action)));
    }

    /// Advances the clock over `[from_day, to_day)`, firing every due job,
    /// and returns the firing log.
    pub fn run(&mut self, from_day: i64, to_day: i64) -> Vec<JobRun> {
        let mut log = Vec::new();
        for day in from_day..to_day {
            for (job, action) in &mut self.jobs {
                if job.due_on(day) {
                    action(day);
                    log.push(JobRun {
                        name: job.name.clone(),
                        day,
                    });
                }
            }
        }
        log
    }
}

impl Default for JobScheduler<'_> {
    fn default() -> Self {
        JobScheduler::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[test]
    fn weekly_job_fires_on_anchor_cadence() {
        let job = RecurringJob::weekly("pipeline", 100);
        assert!(job.due_on(100));
        assert!(job.due_on(107));
        assert!(job.due_on(93));
        assert!(!job.due_on(101));
    }

    #[test]
    fn daily_fires_every_day() {
        let job = RecurringJob::daily("runner");
        for d in -3..10 {
            assert!(job.due_on(d));
        }
    }

    #[test]
    fn zero_interval_never_fires() {
        let job = RecurringJob {
            name: "broken".into(),
            every_days: 0,
            anchor_day: 0,
        };
        assert!(!job.due_on(0));
    }

    #[test]
    fn scheduler_orders_jobs_within_a_day() {
        let order = RefCell::new(Vec::new());
        let mut sched = JobScheduler::new();
        sched.register(RecurringJob::weekly("pipeline", 0), |d| {
            order.borrow_mut().push(("pipeline", d));
        });
        sched.register(RecurringJob::daily("runner"), |d| {
            order.borrow_mut().push(("runner", d));
        });
        let log = sched.run(0, 8);
        // Day 0 and day 7 fire both jobs, pipeline first.
        let o = order.borrow();
        assert_eq!(o[0], ("pipeline", 0));
        assert_eq!(o[1], ("runner", 0));
        assert_eq!(o.len(), 2 + 6 + 2); // 2 on day 0, 1/day for 1..7, 2 on day 7
        assert_eq!(log.len(), o.len());
        assert_eq!(log.iter().filter(|r| r.name == "pipeline").count(), 2);
    }

    #[test]
    fn run_is_half_open() {
        let count = RefCell::new(0);
        let mut sched = JobScheduler::new();
        sched.register(RecurringJob::daily("d"), |_| {
            *count.borrow_mut() += 1;
        });
        sched.run(5, 5);
        assert_eq!(*count.borrow(), 0);
        sched.run(5, 6);
        assert_eq!(*count.borrow(), 1);
    }
}
