//! Resilience primitives: immediate retry of transient faults, and the
//! stage-fault and kill hooks that chaos tests drive the pipeline with.
//!
//! The paper's robustness claim (Section 1) is that Seagull "continually
//! re-evaluates accuracy of predictions, fallback to previously known good
//! models and triggers alerts as appropriate". A failed deploy keeping the
//! served snapshot is the model-fallback half; [`retry`] is the
//! infrastructure half that production incidents (Section 2.2) actually
//! exercise. It re-runs an op on transient errors, at most [`MAX_ATTEMPTS`]
//! times in all; a permanent error ends it at once. A run whose retries are
//! exhausted ends blocked or degraded, with its incident, and the next week
//! tries again. The pipeline runs on a simulated day-granular clock, so
//! nothing waits between attempts.
//!
//! Retries are deterministic: the same faults give the same attempts, which
//! is what makes chaos runs replayable.

use seagull_obs::Registry;
use std::fmt;
use std::sync::Arc;

pub use seagull_telemetry::chaos::InjectedCrash;

/// Attempts [`retry`] makes at most, the first one included.
pub const MAX_ATTEMPTS: u32 = 5;

/// An error from one stage attempt, classified for the retry loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageError {
    /// Whether a retry could plausibly succeed (timeouts, torn reads,
    /// outages) — permanent errors (missing data, schema violations) fail
    /// immediately.
    pub transient: bool,
    /// Human-readable cause.
    pub message: String,
}

impl StageError {
    /// A retryable error.
    pub fn transient(message: impl Into<String>) -> StageError {
        StageError {
            transient: true,
            message: message.into(),
        }
    }

    /// A non-retryable error.
    pub fn permanent(message: impl Into<String>) -> StageError {
        StageError {
            transient: false,
            message: message.into(),
        }
    }

    /// Classifies an `io::Error`: `NotFound` is permanent (absent data will
    /// not appear on retry); everything else is treated as transient
    /// infrastructure trouble.
    pub fn from_io(e: &std::io::Error) -> StageError {
        if e.kind() == std::io::ErrorKind::NotFound {
            StageError::permanent(e.to_string())
        } else {
            StageError::transient(e.to_string())
        }
    }
}

impl fmt::Display for StageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let class = if self.transient {
            "transient"
        } else {
            "permanent"
        };
        write!(f, "{class}: {}", self.message)
    }
}

impl std::error::Error for StageError {}

/// Runs `op`, retrying transient errors immediately, for at most
/// [`MAX_ATTEMPTS`] attempts. The closure receives the 1-based attempt
/// number. A permanent error or the last attempt's error is returned as is.
pub fn retry<T>(mut op: impl FnMut(u32) -> Result<T, StageError>) -> RetryResult<T> {
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        match op(attempts) {
            Ok(value) => {
                return RetryResult {
                    outcome: Ok(value),
                    attempts,
                }
            }
            Err(e) if !e.transient || attempts >= MAX_ATTEMPTS => {
                return RetryResult {
                    outcome: Err(e),
                    attempts,
                }
            }
            Err(_) => {}
        }
    }
}

/// [`retry`] plus metrics: records the attempt, retry and exhaustion
/// counters into `registry`, labelled by `(region, stage)`.
pub fn retry_observed<T>(
    registry: &Registry,
    stage: &str,
    region: &str,
    op: impl FnMut(u32) -> Result<T, StageError>,
) -> RetryResult<T> {
    let result = retry(op);
    let labels = [("region", region), ("stage", stage)];
    registry
        .counter("seagull_retry_attempts_total", &labels)
        .add(u64::from(result.attempts));
    if result.retries() > 0 {
        registry
            .counter("seagull_retries_total", &labels)
            .add(u64::from(result.retries()));
    }
    if result.outcome.is_err() {
        registry
            .counter("seagull_retry_exhausted_total", &labels)
            .inc();
    }
    result
}

/// Outcome of a retried operation, with attempt accounting.
#[derive(Debug)]
pub struct RetryResult<T> {
    /// Final result after all attempts.
    pub outcome: Result<T, StageError>,
    /// Attempts made (≥ 1).
    pub attempts: u32,
}

impl<T> RetryResult<T> {
    /// Retries made beyond the first attempt.
    pub fn retries(&self) -> u32 {
        self.attempts.saturating_sub(1)
    }
}

/// Test hook injecting stage-level faults into the pipeline: called with
/// `(stage, region, tick, attempt)`, returns whether that attempt fails.
pub type StageFaultHook = Arc<dyn Fn(&str, &str, i64, u32) -> bool + Send + Sync>;

/// Test hook for stage-boundary kill-points: called with
/// `(stage, region, tick)` at the entry of every pipeline stage; returning
/// true simulates process death there (the pipeline panics with
/// [`InjectedCrash`], exactly like a [`seagull_telemetry::ChaosBlobStore`]
/// crash point).
pub type StageKillHook = Arc<dyn Fn(&str, &str, i64) -> bool + Send + Sync>;

/// Test hook injecting *server-granular* faults into the fused dataflow
/// pipeline: called with `(stage, region, server_id, tick, attempt)` inside
/// each per-server operator's retry loop, returns whether that attempt
/// fails. Unlike [`StageFaultHook`], an exhausted server-granular fault
/// quarantines only that server — siblings keep flowing.
pub type ServerFaultHook = Arc<dyn Fn(&str, &str, u64, i64, u32) -> bool + Send + Sync>;

/// Optional stage-fault injection, set on a pipeline with
/// [`AmlPipeline::with_chaos`](crate::pipeline::AmlPipeline::with_chaos).
#[derive(Clone, Default)]
pub struct StageChaos {
    hook: Option<StageFaultHook>,
    kill: Option<StageKillHook>,
    server_hook: Option<ServerFaultHook>,
}

impl StageChaos {
    /// No injected stage faults (production).
    pub fn none() -> StageChaos {
        StageChaos::default()
    }

    /// Injects faults per the hook.
    pub fn from_fn(
        hook: impl Fn(&str, &str, i64, u32) -> bool + Send + Sync + 'static,
    ) -> StageChaos {
        StageChaos {
            hook: Some(Arc::new(hook)),
            ..StageChaos::default()
        }
    }

    /// Injects per-server faults per the hook, consulted inside each
    /// per-server operator's retry loop.
    pub fn from_server_fn(
        hook: impl Fn(&str, &str, u64, i64, u32) -> bool + Send + Sync + 'static,
    ) -> StageChaos {
        StageChaos {
            server_hook: Some(Arc::new(hook)),
            ..StageChaos::default()
        }
    }

    /// Kills the process (panics with [`InjectedCrash`]) at the first stage
    /// boundary where the hook returns true.
    pub fn kill_at(hook: impl Fn(&str, &str, i64) -> bool + Send + Sync + 'static) -> StageChaos {
        StageChaos {
            kill: Some(Arc::new(hook)),
            ..StageChaos::default()
        }
    }

    /// Whether this attempt of `stage` should fail.
    pub fn should_fail(&self, stage: &str, region: &str, tick: i64, attempt: u32) -> bool {
        self.hook
            .as_ref()
            .is_some_and(|h| h(stage, region, tick, attempt))
    }

    /// Whether this attempt of `stage` for a specific server should fail
    /// (consulted by the dataflow pipeline's per-server operators).
    pub fn should_fail_server(
        &self,
        stage: &str,
        region: &str,
        server: u64,
        tick: i64,
        attempt: u32,
    ) -> bool {
        self.server_hook
            .as_ref()
            .is_some_and(|h| h(stage, region, server, tick, attempt))
    }

    /// Stage-boundary kill-point: the pipeline calls this at the entry of
    /// every stage; if the kill hook fires, the simulated process dies on
    /// the spot via [`InjectedCrash`] (no return, no cleanup — recovery must
    /// cope with whatever the blob store already holds).
    pub fn kill_point(&self, stage: &str, region: &str, tick: i64) {
        if self.kill.as_ref().is_some_and(|h| h(stage, region, tick)) {
            InjectedCrash::die(format!("stage {stage} for {region}@{tick}"));
        }
    }
}

impl fmt::Debug for StageChaos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "StageChaos(fault: {}, kill: {}, server_fault: {})",
            if self.hook.is_some() {
                "hooked"
            } else {
                "none"
            },
            if self.kill.is_some() {
                "hooked"
            } else {
                "none"
            },
            if self.server_hook.is_some() {
                "hooked"
            } else {
                "none"
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `k` transient failures before a success: the loop makes
    /// min(k + 1, MAX_ATTEMPTS) attempts and succeeds iff k < MAX_ATTEMPTS.
    /// A permanent error makes one attempt.
    #[test]
    fn retry_counts_attempts_against_the_constant() {
        for k in 0..=6u32 {
            let mut calls = 0u32;
            let result = retry(|attempt| {
                calls += 1;
                if attempt <= k {
                    Err(StageError::transient("flaky"))
                } else {
                    Ok(attempt)
                }
            });
            assert_eq!(result.attempts, (k + 1).min(MAX_ATTEMPTS), "k = {k}");
            assert_eq!(calls, result.attempts, "k = {k}");
            assert_eq!(result.retries(), result.attempts - 1, "k = {k}");
            assert_eq!(result.outcome.is_ok(), k < MAX_ATTEMPTS, "k = {k}");
            if let Ok(succeeded_at) = result.outcome {
                assert_eq!(succeeded_at, k + 1, "stops at the first success");
            }
        }
        let mut calls = 0u32;
        let result = retry(|_| {
            calls += 1;
            Err::<(), _>(StageError::permanent("missing"))
        });
        assert!(result.outcome.is_err());
        assert_eq!((calls, result.attempts), (1, 1));
    }

    #[test]
    fn io_error_classification() {
        let not_found = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        assert!(!StageError::from_io(&not_found).transient);
        let timeout = std::io::Error::new(std::io::ErrorKind::TimedOut, "slow");
        assert!(StageError::from_io(&timeout).transient);
        let refused = std::io::Error::new(std::io::ErrorKind::ConnectionRefused, "outage");
        assert!(StageError::from_io(&refused).transient);
    }

    #[test]
    fn retry_observed_records_retry_metrics() {
        let registry = Registry::new();
        let labels = [("region", "west"), ("stage", "ingestion")];
        let result = retry_observed(&registry, "ingestion", "west", |attempt| {
            if attempt < 3 {
                Err(StageError::transient("flaky"))
            } else {
                Ok(attempt)
            }
        });
        assert!(result.outcome.is_ok());
        assert_eq!(
            registry
                .counter("seagull_retry_attempts_total", &labels)
                .get(),
            3
        );
        assert_eq!(registry.counter("seagull_retries_total", &labels).get(), 2);
        assert_eq!(
            registry
                .counter("seagull_retry_exhausted_total", &labels)
                .get(),
            0
        );

        let failed = retry_observed(&registry, "ingestion", "west", |_| {
            Err::<(), _>(StageError::permanent("missing"))
        });
        assert!(failed.outcome.is_err());
        assert_eq!(
            registry
                .counter("seagull_retry_exhausted_total", &labels)
                .get(),
            1
        );
    }

    #[test]
    fn stage_kill_point_dies_with_injected_crash() {
        let chaos = StageChaos::kill_at(|stage, region, tick| {
            stage == "deployment" && region == "west" && tick == 100
        });
        // Non-matching boundaries pass through.
        chaos.kill_point("ingestion", "west", 100);
        chaos.kill_point("deployment", "east", 100);
        StageChaos::none().kill_point("deployment", "west", 100);
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            chaos.kill_point("deployment", "west", 100)
        }))
        .unwrap_err();
        let crash = died.downcast::<InjectedCrash>().expect("InjectedCrash");
        assert!(crash.context.contains("deployment"));
    }

    #[test]
    fn stage_chaos_hook_fires() {
        let chaos = StageChaos::from_fn(|stage, _, _, attempt| stage == "train" && attempt == 1);
        assert!(chaos.should_fail("train", "west", 0, 1));
        assert!(!chaos.should_fail("train", "west", 0, 2));
        assert!(!chaos.should_fail("deploy", "west", 0, 1));
        assert!(!StageChaos::none().should_fail("train", "west", 0, 1));
    }
}
