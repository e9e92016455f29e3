//! Resilience primitives: immediate retry of transient faults, and a
//! per-region circuit breaker.
//!
//! The paper's robustness claim (Section 1) is that Seagull "continually
//! re-evaluates accuracy of predictions, fallback to previously known good
//! models and triggers alerts as appropriate". A failed deploy keeping the
//! served snapshot is the model-fallback half; this module supplies the
//! infrastructure half that
//! production incidents (Section 2.2) actually exercise:
//!
//! * [`retry`] — re-runs an op on transient errors, at most
//!   [`MAX_ATTEMPTS`] times in all; a permanent error ends it at once. The
//!   pipeline runs on a simulated day-granular clock, so nothing waits
//!   between attempts.
//! * [`CircuitBreaker`] — per-key (region) closed → open → half-open state
//!   machine. [`TRIP_THRESHOLD`] consecutive failures trip it (raising a
//!   `Critical` incident); after [`COOLDOWN_TICKS`] pipeline clock ticks one
//!   probe run is let through half-open, and success closes the circuit
//!   (resolving the trip incident and raising an `Info`).
//!
//! Both are deterministic: the same faults give the same attempts and the
//! same transitions, which is what makes chaos runs replayable.

use crate::incident::{IncidentManager, Severity};
use seagull_obs::Registry;
use serde::Serialize;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

pub use seagull_telemetry::chaos::InjectedCrash;

/// Attempts [`retry`] makes at most, the first one included.
pub const MAX_ATTEMPTS: u32 = 5;

/// Consecutive failures that trip a closed [`CircuitBreaker`].
pub const TRIP_THRESHOLD: u32 = 3;

/// Pipeline clock ticks an open [`CircuitBreaker`] waits before it admits a
/// half-open probe (the pipeline ticks in day indices, so 14 ≈ two weekly
/// runs skipped).
pub const COOLDOWN_TICKS: i64 = 14;

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

/// Circuit-breaker states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum BreakerState {
    /// Normal operation.
    Closed,
    /// Tripped: requests are rejected until the cooldown elapses.
    Open,
    /// Cooldown elapsed: one probe request is allowed through.
    HalfOpen,
}

impl BreakerState {
    /// Numeric encoding for the `seagull_breaker_state` gauge:
    /// 0 = closed, 1 = half-open, 2 = open.
    pub fn gauge_value(self) -> f64 {
        match self {
            BreakerState::Closed => 0.0,
            BreakerState::HalfOpen => 1.0,
            BreakerState::Open => 2.0,
        }
    }

    fn to_u8(self) -> u8 {
        match self {
            BreakerState::Closed => 0,
            BreakerState::HalfOpen => 1,
            BreakerState::Open => 2,
        }
    }

    fn from_u8(v: u8) -> BreakerState {
        match v {
            1 => BreakerState::HalfOpen,
            2 => BreakerState::Open,
            _ => BreakerState::Closed,
        }
    }
}

/// A lock-free, read-only view of one key's breaker state.
///
/// High-rate admission checks (the serving read path) cannot afford the
/// breaker's `RwLock` on every request. A probe is a shared atomic cell the
/// breaker updates on every state transition for its key; reading it is a
/// single `Acquire` load. Obtain one per key up front (it is cheap to clone)
/// and consult it per request.
///
/// A probe observes transitions made through *any* clone of the breaker it
/// came from; it never mutates state and never consumes half-open probes.
#[derive(Clone)]
pub struct BreakerProbe {
    cell: Arc<AtomicU8>,
}

impl BreakerProbe {
    /// The key's current state (closed if the key has never transitioned).
    pub fn state(&self) -> BreakerState {
        BreakerState::from_u8(self.cell.load(Ordering::Acquire))
    }

    /// Whether requests for this key should be shed right now.
    pub fn is_open(&self) -> bool {
        self.state() == BreakerState::Open
    }
}

impl fmt::Debug for BreakerProbe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BreakerProbe")
            .field("state", &self.state())
            .finish()
    }
}

/// Observable per-key breaker status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerSnapshot {
    /// Current breaker state for the key.
    pub state: BreakerState,
    /// Failures since the last success.
    pub consecutive_failures: u32,
    /// Times this key has tripped open.
    pub trips: u32,
}

#[derive(Debug, Clone, Copy)]
struct KeyState {
    state: BreakerState,
    consecutive_failures: u32,
    opened_at_tick: i64,
    trips: u32,
}

impl KeyState {
    fn closed() -> KeyState {
        KeyState {
            state: BreakerState::Closed,
            consecutive_failures: 0,
            opened_at_tick: 0,
            trips: 0,
        }
    }
}

/// Per-key (region) circuit breaker.
///
/// The only paths between states are closed → open (threshold reached),
/// open → half-open (cooldown elapsed, checked in [`CircuitBreaker::allow`]),
/// half-open → closed (probe succeeded) and half-open → open (probe failed);
/// an open breaker can never close without passing half-open.
#[derive(Clone, Default)]
pub struct CircuitBreaker {
    inner: Arc<RwLock<HashMap<String, KeyState>>>,
    /// Per-key state mirrors for lock-free [`BreakerProbe`] reads. Written
    /// under the `inner` write lock at every transition, so a probe can
    /// never observe a state `inner` has moved past.
    cells: Arc<RwLock<HashMap<String, Arc<AtomicU8>>>>,
}

impl CircuitBreaker {
    /// Creates a breaker where every key starts closed.
    pub fn new() -> CircuitBreaker {
        CircuitBreaker::default()
    }

    /// A lock-free read-only probe for `key`'s state, for hot read paths
    /// that cannot afford [`CircuitBreaker::state`]'s lock per request.
    /// Does not create breaker state for the key (the key only enters the
    /// state machine when failures or successes are recorded).
    pub fn probe(&self, key: &str) -> BreakerProbe {
        BreakerProbe {
            cell: self.cell(key),
        }
    }

    /// Lock order is `inner` before `cells`, everywhere: transitions hold
    /// the `inner` write guard while mirroring into `cells`, and this
    /// seeding path holds an `inner` read guard across the insert so a
    /// concurrent transition (which would need the write guard) can neither
    /// race the seed stale nor deadlock against it.
    fn cell(&self, key: &str) -> Arc<AtomicU8> {
        if let Some(cell) = self
            .cells
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(key)
        {
            return Arc::clone(cell);
        }
        let inner = self.inner.read().unwrap_or_else(PoisonError::into_inner);
        let state = inner.get(key).map_or(BreakerState::Closed, |ks| ks.state);
        let mut cells = self.cells.write().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(
            cells
                .entry(key.to_string())
                .or_insert_with(|| Arc::new(AtomicU8::new(state.to_u8()))),
        )
    }

    /// Mirrors a transition into the key's probe cell (no-op when nobody
    /// has requested a probe for the key yet — the cell is seeded from
    /// `inner` on first request). Callers hold the `inner` write guard.
    fn sync_cell(&self, key: &str, state: BreakerState) {
        if let Some(cell) = self
            .cells
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(key)
        {
            cell.store(state.to_u8(), Ordering::Release);
        }
    }

    /// Whether a request for `key` may proceed at `tick`. An open breaker
    /// whose cooldown has elapsed moves to half-open and admits the probe.
    pub fn allow(&self, key: &str, tick: i64) -> bool {
        let mut map = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        let ks = map.entry(key.to_string()).or_insert_with(KeyState::closed);
        match ks.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => {
                if tick - ks.opened_at_tick >= COOLDOWN_TICKS {
                    ks.state = BreakerState::HalfOpen;
                    self.sync_cell(key, BreakerState::HalfOpen);
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Records a successful run. A half-open probe success closes the
    /// circuit, resolves the breaker's open incidents for the key, and
    /// raises an `Info` recovery incident.
    pub fn record_success(&self, key: &str, tick: i64, incidents: &IncidentManager) {
        let mut map = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        let ks = map.entry(key.to_string()).or_insert_with(KeyState::closed);
        if ks.state == BreakerState::HalfOpen {
            ks.state = BreakerState::Closed;
            self.sync_cell(key, BreakerState::Closed);
            incidents.resolve_matching("circuit-breaker", key);
            incidents.raise_keyed(
                Severity::Info,
                "circuit-breaker",
                key,
                "recovered",
                format!("circuit for {key} closed at tick {tick}: half-open probe succeeded"),
            );
        }
        ks.consecutive_failures = 0;
    }

    /// Records a failed run. Reaching the threshold trips a closed breaker
    /// (raising a `Critical` incident); a failed half-open probe re-opens
    /// (raising a `Warning`). Failures while open are not counted — the
    /// breaker is already rejecting traffic.
    pub fn record_failure(&self, key: &str, tick: i64, incidents: &IncidentManager) {
        let mut map = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        let ks = map.entry(key.to_string()).or_insert_with(KeyState::closed);
        match ks.state {
            BreakerState::Closed => {
                ks.consecutive_failures += 1;
                if ks.consecutive_failures >= TRIP_THRESHOLD {
                    ks.state = BreakerState::Open;
                    ks.opened_at_tick = tick;
                    ks.trips += 1;
                    self.sync_cell(key, BreakerState::Open);
                    incidents.raise_keyed(
                        Severity::Critical,
                        "circuit-breaker",
                        key,
                        "tripped",
                        format!(
                            "circuit for {key} opened at tick {tick} after {} consecutive failures",
                            ks.consecutive_failures
                        ),
                    );
                }
            }
            BreakerState::HalfOpen => {
                ks.state = BreakerState::Open;
                ks.opened_at_tick = tick;
                ks.trips += 1;
                self.sync_cell(key, BreakerState::Open);
                incidents.raise_keyed(
                    Severity::Warning,
                    "circuit-breaker",
                    key,
                    "probe-failed",
                    format!("half-open probe for {key} failed at tick {tick}; circuit re-opened"),
                );
            }
            BreakerState::Open => {}
        }
    }

    /// Current state for a key (closed if never seen).
    pub fn state(&self, key: &str) -> BreakerState {
        self.inner
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(key)
            .map_or(BreakerState::Closed, |ks| ks.state)
    }

    /// Observable status for a key.
    pub fn snapshot(&self, key: &str) -> BreakerSnapshot {
        let map = self.inner.read().unwrap_or_else(PoisonError::into_inner);
        let ks = map.get(key).copied().unwrap_or_else(KeyState::closed);
        BreakerSnapshot {
            state: ks.state,
            consecutive_failures: ks.consecutive_failures,
            trips: ks.trips,
        }
    }

    /// Publishes one key's state into `registry` as gauges:
    /// `seagull_breaker_state` (see [`BreakerState::gauge_value`]),
    /// `seagull_breaker_consecutive_failures`, and `seagull_breaker_trips`.
    /// Idempotent — callers re-publish after each breaker interaction. One
    /// key at a time, so a run never exports a mid-flight snapshot of
    /// *another* region's breaker, which would make the merged registry
    /// depend on scheduling.
    pub fn publish_region(&self, registry: &Registry, key: &str) {
        let map = self.inner.read().unwrap_or_else(PoisonError::into_inner);
        let ks = map.get(key).copied().unwrap_or_else(KeyState::closed);
        let labels = [("region", key)];
        registry
            .gauge("seagull_breaker_state", &labels)
            .set(ks.state.gauge_value());
        registry
            .gauge("seagull_breaker_consecutive_failures", &labels)
            .set(f64::from(ks.consecutive_failures));
        registry
            .gauge("seagull_breaker_trips", &labels)
            .set(f64::from(ks.trips));
    }
}

impl fmt::Debug for CircuitBreaker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CircuitBreaker")
            .field(
                "keys",
                &self
                    .inner
                    .read()
                    .unwrap_or_else(PoisonError::into_inner)
                    .len(),
            )
            .finish()
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

    /// Records the [`TRIP_THRESHOLD`] failures that trip a closed breaker.
    fn trip(breaker: &CircuitBreaker, key: &str, tick: i64, incidents: &IncidentManager) {
        for _ in 0..TRIP_THRESHOLD {
            breaker.record_failure(key, tick, incidents);
        }
    }

    #[test]
    fn breaker_trips_after_threshold_and_raises_critical() {
        let incidents = IncidentManager::new();
        let breaker = CircuitBreaker::new();
        for tick in 0..i64::from(TRIP_THRESHOLD) - 1 {
            assert!(breaker.allow("west", tick));
            breaker.record_failure("west", tick, &incidents);
            assert_eq!(breaker.state("west"), BreakerState::Closed);
        }
        let tick = i64::from(TRIP_THRESHOLD) - 1;
        assert!(breaker.allow("west", tick));
        breaker.record_failure("west", tick, &incidents);
        assert_eq!(breaker.state("west"), BreakerState::Open);
        assert_eq!(incidents.open_count(Severity::Critical), 1);
        assert_eq!(breaker.snapshot("west").trips, 1);
        // Other keys are independent.
        assert_eq!(breaker.state("east"), BreakerState::Closed);
        assert!(breaker.allow("east", tick));
    }

    #[test]
    fn breaker_recovers_through_half_open() {
        let incidents = IncidentManager::new();
        let breaker = CircuitBreaker::new();
        trip(&breaker, "west", 100, &incidents);
        assert_eq!(breaker.state("west"), BreakerState::Open);
        assert!(
            !breaker.allow("west", 100 + COOLDOWN_TICKS - 1),
            "cooldown not elapsed"
        );
        assert!(
            breaker.allow("west", 100 + COOLDOWN_TICKS),
            "cooldown elapsed: probe admitted"
        );
        assert_eq!(breaker.state("west"), BreakerState::HalfOpen);
        breaker.record_success("west", 100 + COOLDOWN_TICKS, &incidents);
        assert_eq!(breaker.state("west"), BreakerState::Closed);
        assert_eq!(
            incidents.open_count(Severity::Critical),
            0,
            "trip incident resolved on recovery"
        );
        assert_eq!(incidents.open_count(Severity::Info), 1);
    }

    #[test]
    fn lock_free_probe_tracks_every_transition() {
        let incidents = IncidentManager::new();
        let breaker = CircuitBreaker::new();
        // A probe taken before any state exists reads closed, and taking it
        // does not create breaker state for the key.
        let probe = breaker.probe("west");
        assert_eq!(probe.state(), BreakerState::Closed);
        assert!(!probe.is_open());
        assert_eq!(breaker.snapshot("west").trips, 0);

        trip(&breaker, "west", 0, &incidents);
        assert!(probe.is_open(), "trip visible through the probe");
        assert!(breaker.allow("west", COOLDOWN_TICKS));
        assert_eq!(probe.state(), BreakerState::HalfOpen);
        breaker.record_success("west", COOLDOWN_TICKS, &incidents);
        assert_eq!(probe.state(), BreakerState::Closed);

        // A probe taken after transitions is seeded from existing state.
        trip(&breaker, "east", 0, &incidents);
        assert!(breaker.probe("east").is_open());
        // Probes observe transitions made through breaker clones too.
        breaker.clone().allow("east", COOLDOWN_TICKS);
        assert_eq!(breaker.probe("east").state(), BreakerState::HalfOpen);
    }

    #[test]
    fn failed_probe_reopens_the_breaker() {
        let incidents = IncidentManager::new();
        let breaker = CircuitBreaker::new();
        trip(&breaker, "west", 0, &incidents);
        let reopened = COOLDOWN_TICKS;
        assert!(breaker.allow("west", reopened));
        assert_eq!(breaker.state("west"), BreakerState::HalfOpen);
        // One failed probe re-opens; no threshold applies half-open.
        breaker.record_failure("west", reopened, &incidents);
        assert_eq!(breaker.state("west"), BreakerState::Open);
        assert!(
            !breaker.allow("west", reopened + COOLDOWN_TICKS - 1),
            "cooldown restarts from re-open"
        );
        assert!(breaker.allow("west", reopened + COOLDOWN_TICKS));
        assert_eq!(breaker.snapshot("west").trips, 2);
        assert_eq!(incidents.open_count(Severity::Warning), 1);
    }

    #[test]
    fn successes_reset_the_failure_streak() {
        let incidents = IncidentManager::new();
        let breaker = CircuitBreaker::new();
        for tick in 0..10 {
            for _ in 1..TRIP_THRESHOLD {
                breaker.record_failure("west", tick, &incidents);
            }
            breaker.record_success("west", tick, &incidents);
        }
        assert_eq!(breaker.state("west"), BreakerState::Closed);
        assert_eq!(incidents.open_total(), 0);
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
    fn breaker_publishes_state_gauges() {
        let incidents = IncidentManager::new();
        let registry = Registry::new();
        let breaker = CircuitBreaker::new();
        trip(&breaker, "west", 0, &incidents);
        breaker.record_success("east", 0, &incidents);
        breaker.publish_region(&registry, "west");
        breaker.publish_region(&registry, "east");
        let gauge = |key: &str| {
            registry
                .gauge("seagull_breaker_state", &[("region", key)])
                .get()
        };
        assert_eq!(gauge("west"), BreakerState::Open.gauge_value());
        assert_eq!(gauge("east"), BreakerState::Closed.gauge_value());
        assert_eq!(
            registry
                .gauge("seagull_breaker_trips", &[("region", "west")])
                .get(),
            1.0
        );
        // Half-open shows up after the cooldown probe is admitted.
        assert!(breaker.allow("west", COOLDOWN_TICKS));
        breaker.publish_region(&registry, "west");
        assert_eq!(gauge("west"), BreakerState::HalfOpen.gauge_value());
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
