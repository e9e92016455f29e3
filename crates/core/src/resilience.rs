//! Resilience primitives: retry with backoff, and a per-region circuit
//! breaker.
//!
//! The paper's robustness claim (Section 1) is that Seagull "continually
//! re-evaluates accuracy of predictions, fallback to previously known good
//! models and triggers alerts as appropriate". The registry implements the
//! model-fallback half; this module supplies the infrastructure half that
//! production incidents (Section 2.2) actually exercise:
//!
//! * [`RetryPolicy`] — exponential backoff with deterministic seeded jitter,
//!   a max-attempt count, and a per-op backoff budget. Delays are *virtual*:
//!   the pipeline runs on a simulated day-granular clock, so the policy
//!   accounts the backoff it would have slept instead of sleeping.
//! * [`CircuitBreaker`] — per-key (region) closed → open → half-open state
//!   machine. A consecutive-failure threshold trips it (raising a `Critical`
//!   incident); after a cooldown measured in pipeline clock ticks one probe
//!   run is let through half-open, and success closes the circuit (resolving
//!   the trip incident and raising an `Info`).
//!
//! Both are deterministic: a fixed seed reproduces the exact backoff
//! schedule, which is what makes chaos runs replayable.

use crate::incident::{IncidentManager, Severity};
use parking_lot::RwLock;
use seagull_obs::Registry;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

pub use seagull_telemetry::chaos::{DetRng, InjectedCrash};
use seagull_telemetry::frame::{fnv_step, FNV_OFFSET};

/// Mixes a stage identity into the policy seed so each (stage, region, tick)
/// gets an independent but reproducible jitter stream. FNV-1a over the
/// identifying bytes.
pub fn stage_seed(base: u64, stage: &str, region: &str, tick: i64) -> u64 {
    let tick_bytes = tick.to_le_bytes();
    stage
        .as_bytes()
        .iter()
        .chain(region.as_bytes())
        .chain(&tick_bytes)
        .fold(FNV_OFFSET ^ base, |h, &b| fnv_step(h, u64::from(b)))
}

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

/// Exponential-backoff retry policy with deterministic seeded jitter.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Total attempts (first try included); at least 1.
    pub max_attempts: u32,
    /// Delay before the first retry, milliseconds.
    pub base_delay_ms: u64,
    /// Backoff growth factor per retry (clamped to ≥ 1).
    pub multiplier: f64,
    /// Upper bound on any single delay, milliseconds.
    pub cap_ms: u64,
    /// Fraction of the raw delay that jitter may subtract (0 – 1).
    /// Subtractive jitter keeps every delay ≤ the cap.
    pub jitter_frac: f64,
    /// Total backoff budget per op, milliseconds; retries stop once the
    /// next delay would exceed it. 0 disables the budget.
    pub budget_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 5,
            base_delay_ms: 10,
            multiplier: 2.0,
            cap_ms: 1_000,
            jitter_frac: 0.2,
            budget_ms: 30_000,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// The un-jittered delay before retry `retry_index` (0-based).
    /// Monotone non-decreasing and bounded by `cap_ms`.
    pub fn raw_delay_ms(&self, retry_index: u32) -> u64 {
        let mult = self.multiplier.max(1.0);
        let cap = self.cap_ms as f64;
        let mut d = (self.base_delay_ms.min(self.cap_ms)) as f64;
        for _ in 0..retry_index {
            d = (d * mult).min(cap);
        }
        d as u64
    }

    /// The jittered delay before retry `retry_index` for a given seed.
    /// Deterministic: the same `(seed, retry_index)` always yields the same
    /// delay, and jitter only subtracts, so the cap still holds.
    pub fn delay_ms(&self, seed: u64, retry_index: u32) -> u64 {
        let raw = self.raw_delay_ms(retry_index);
        let frac = self.jitter_frac.clamp(0.0, 1.0);
        if raw == 0 || frac == 0.0 {
            return raw;
        }
        let mut rng =
            DetRng::new(seed ^ u64::from(retry_index).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let cut = (raw as f64 * frac * rng.next_f64()) as u64;
        raw - cut
    }

    /// The full backoff schedule for a seed (one delay per possible retry).
    pub fn delays_ms(&self, seed: u64) -> Vec<u64> {
        (0..self.max_attempts.saturating_sub(1))
            .map(|i| self.delay_ms(seed, i))
            .collect()
    }

    /// Runs `op` under the policy. The closure receives the 1-based attempt
    /// number. Retries only transient errors, stops at `max_attempts` or
    /// when the backoff budget would be exceeded, and accounts (does not
    /// sleep) the virtual backoff.
    pub fn run<T>(
        &self,
        seed: u64,
        mut op: impl FnMut(u32) -> Result<T, StageError>,
    ) -> RetryResult<T> {
        let max = self.max_attempts.max(1);
        let mut attempts = 0u32;
        let mut backoff_ms = 0u64;
        loop {
            attempts += 1;
            match op(attempts) {
                Ok(value) => {
                    return RetryResult {
                        outcome: Ok(value),
                        attempts,
                        backoff_ms,
                    }
                }
                Err(e) => {
                    let next_delay = self.delay_ms(seed, attempts - 1);
                    let over_budget =
                        self.budget_ms > 0 && backoff_ms + next_delay > self.budget_ms;
                    if !e.transient || attempts >= max || over_budget {
                        return RetryResult {
                            outcome: Err(e),
                            attempts,
                            backoff_ms,
                        };
                    }
                    backoff_ms += next_delay;
                }
            }
        }
    }

    /// [`RetryPolicy::run`] plus metrics: records attempt/retry counters and
    /// the virtual-backoff histogram into `registry`, labelled by
    /// `(region, stage)`. All of it is deterministic for a fixed seed, so
    /// the series are stable-exportable.
    pub fn run_observed<T>(
        &self,
        seed: u64,
        registry: &Registry,
        stage: &str,
        region: &str,
        op: impl FnMut(u32) -> Result<T, StageError>,
    ) -> RetryResult<T> {
        let result = self.run(seed, op);
        let labels = [("region", region), ("stage", stage)];
        registry
            .counter("seagull_retry_attempts_total", &labels)
            .add(u64::from(result.attempts));
        if result.retries() > 0 {
            registry
                .counter("seagull_retries_total", &labels)
                .add(u64::from(result.retries()));
            registry
                .histogram("seagull_retry_backoff_ms", &labels)
                .observe(result.backoff_ms as f64);
        }
        if result.outcome.is_err() {
            registry
                .counter("seagull_retry_exhausted_total", &labels)
                .inc();
        }
        result
    }
}

/// Outcome of a retried operation, with attempt accounting.
#[derive(Debug)]
pub struct RetryResult<T> {
    /// Final result after all attempts.
    pub outcome: Result<T, StageError>,
    /// Attempts made (≥ 1).
    pub attempts: u32,
    /// Virtual backoff accounted across retries, milliseconds.
    pub backoff_ms: u64,
}

impl<T> RetryResult<T> {
    /// Retries made beyond the first attempt.
    pub fn retries(&self) -> u32 {
        self.attempts.saturating_sub(1)
    }
}

/// Circuit-breaker states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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

/// Circuit-breaker tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BreakerConfig {
    /// Consecutive failures that trip a closed breaker.
    pub trip_threshold: u32,
    /// Cooldown before a probe is allowed, in pipeline clock ticks (the
    /// pipeline ticks in day indices, so 14 ≈ two weekly runs skipped).
    pub cooldown_ticks: i64,
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig {
            trip_threshold: 3,
            cooldown_ticks: 14,
        }
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
#[derive(Clone)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    inner: Arc<RwLock<HashMap<String, KeyState>>>,
    /// Per-key state mirrors for lock-free [`BreakerProbe`] reads. Written
    /// under the `inner` write lock at every transition, so a probe can
    /// never observe a state `inner` has moved past.
    cells: Arc<RwLock<HashMap<String, Arc<AtomicU8>>>>,
}

impl CircuitBreaker {
    /// Creates a breaker where every key starts closed.
    pub fn new(config: BreakerConfig) -> CircuitBreaker {
        CircuitBreaker {
            config,
            inner: Arc::new(RwLock::new(HashMap::new())),
            cells: Arc::new(RwLock::new(HashMap::new())),
        }
    }

    /// The configured thresholds.
    pub fn config(&self) -> BreakerConfig {
        self.config
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
        if let Some(cell) = self.cells.read().get(key) {
            return Arc::clone(cell);
        }
        let inner = self.inner.read();
        let state = inner.get(key).map_or(BreakerState::Closed, |ks| ks.state);
        let mut cells = self.cells.write();
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
        if let Some(cell) = self.cells.read().get(key) {
            cell.store(state.to_u8(), Ordering::Release);
        }
    }

    /// Whether a request for `key` may proceed at `tick`. An open breaker
    /// whose cooldown has elapsed moves to half-open and admits the probe.
    pub fn allow(&self, key: &str, tick: i64) -> bool {
        let mut map = self.inner.write();
        let ks = map.entry(key.to_string()).or_insert_with(KeyState::closed);
        match ks.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => {
                if tick - ks.opened_at_tick >= self.config.cooldown_ticks {
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
        let mut map = self.inner.write();
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
        let mut map = self.inner.write();
        let ks = map.entry(key.to_string()).or_insert_with(KeyState::closed);
        match ks.state {
            BreakerState::Closed => {
                ks.consecutive_failures += 1;
                if ks.consecutive_failures >= self.config.trip_threshold {
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
            .get(key)
            .map_or(BreakerState::Closed, |ks| ks.state)
    }

    /// Observable status for a key.
    pub fn snapshot(&self, key: &str) -> BreakerSnapshot {
        let map = self.inner.read();
        let ks = map.get(key).copied().unwrap_or_else(KeyState::closed);
        BreakerSnapshot {
            state: ks.state,
            consecutive_failures: ks.consecutive_failures,
            trips: ks.trips,
        }
    }

    /// Publishes every key's state into `registry` as gauges:
    /// `seagull_breaker_state` (see [`BreakerState::gauge_value`]),
    /// `seagull_breaker_consecutive_failures`, and `seagull_breaker_trips`.
    /// Idempotent — callers re-publish after each breaker interaction.
    pub fn publish_state(&self, registry: &Registry) {
        let map = self.inner.read();
        for (key, ks) in map.iter() {
            Self::publish_key(registry, key, ks);
        }
    }

    /// Publishes one key's state (same gauges as
    /// [`CircuitBreaker::publish_state`]). Concurrent region runs use this
    /// so a run never exports a mid-flight snapshot of *another* region's
    /// breaker, which would make the merged registry depend on scheduling.
    pub fn publish_region(&self, registry: &Registry, key: &str) {
        let map = self.inner.read();
        let ks = map.get(key).copied().unwrap_or_else(KeyState::closed);
        Self::publish_key(registry, key, &ks);
    }

    fn publish_key(registry: &Registry, key: &str, ks: &KeyState) {
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
            .field("config", &self.config)
            .field("keys", &self.inner.read().len())
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

/// Optional stage-fault injection carried by [`ResiliencePolicy`].
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

    /// Adds a kill hook to an existing configuration.
    pub fn with_kill(
        mut self,
        hook: impl Fn(&str, &str, i64) -> bool + Send + Sync + 'static,
    ) -> StageChaos {
        self.kill = Some(Arc::new(hook));
        self
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

/// The pipeline's resilience configuration: retry policy, breaker tuning,
/// jitter seed, and the optional stage-fault hook.
#[derive(Debug, Clone)]
pub struct ResiliencePolicy {
    /// Retry-with-backoff policy for every stage.
    pub retry: RetryPolicy,
    /// Per-region circuit-breaker tuning.
    pub breaker: BreakerConfig,
    /// Base seed for backoff jitter (mixed per stage via [`stage_seed`]).
    pub seed: u64,
    /// Optional seeded fault-injection hook (tests and chaos drills).
    pub chaos: StageChaos,
}

impl Default for ResiliencePolicy {
    fn default() -> ResiliencePolicy {
        ResiliencePolicy {
            retry: RetryPolicy::default(),
            breaker: BreakerConfig::default(),
            seed: 0,
            chaos: StageChaos::none(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_recovers_from_transient_faults() {
        let policy = RetryPolicy::default();
        let result = policy.run(7, |attempt| {
            if attempt < 3 {
                Err(StageError::transient("flaky"))
            } else {
                Ok(attempt)
            }
        });
        assert_eq!(result.outcome.as_ref().unwrap(), &3);
        assert_eq!(result.attempts, 3);
        assert_eq!(result.retries(), 2);
        assert!(result.backoff_ms > 0, "two retries account backoff");
    }

    #[test]
    fn permanent_errors_are_not_retried() {
        let policy = RetryPolicy::default();
        let mut calls = 0;
        let result = policy.run(7, |_| {
            calls += 1;
            Err::<(), _>(StageError::permanent("missing"))
        });
        assert!(result.outcome.is_err());
        assert_eq!(calls, 1);
        assert_eq!(result.backoff_ms, 0);
    }

    #[test]
    fn retries_stop_at_max_attempts() {
        let policy = RetryPolicy {
            max_attempts: 4,
            ..RetryPolicy::default()
        };
        let mut calls = 0;
        let result = policy.run(7, |_| {
            calls += 1;
            Err::<(), _>(StageError::transient("down"))
        });
        assert_eq!(calls, 4);
        assert_eq!(result.attempts, 4);
    }

    #[test]
    fn backoff_budget_stops_retries_early() {
        let policy = RetryPolicy {
            max_attempts: 100,
            base_delay_ms: 400,
            multiplier: 1.0,
            jitter_frac: 0.0,
            budget_ms: 1_000,
            ..RetryPolicy::default()
        };
        let mut calls = 0;
        let result = policy.run(7, |_| {
            calls += 1;
            Err::<(), _>(StageError::transient("down"))
        });
        // 400 + 400 fits the 1000ms budget; a third delay would exceed it.
        assert_eq!(calls, 3);
        assert_eq!(result.backoff_ms, 800);
    }

    #[test]
    fn delays_are_deterministic_and_capped() {
        let policy = RetryPolicy {
            max_attempts: 10,
            base_delay_ms: 10,
            multiplier: 3.0,
            cap_ms: 500,
            jitter_frac: 0.5,
            budget_ms: 0,
        };
        let a = policy.delays_ms(42);
        let b = policy.delays_ms(42);
        assert_eq!(a, b);
        assert_ne!(a, policy.delays_ms(43));
        assert!(a.iter().all(|&d| d <= 500));
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
    fn breaker_trips_after_threshold_and_raises_critical() {
        let incidents = IncidentManager::new();
        let breaker = CircuitBreaker::new(BreakerConfig {
            trip_threshold: 3,
            cooldown_ticks: 14,
        });
        for tick in 0..2 {
            assert!(breaker.allow("west", tick));
            breaker.record_failure("west", tick, &incidents);
            assert_eq!(breaker.state("west"), BreakerState::Closed);
        }
        assert!(breaker.allow("west", 2));
        breaker.record_failure("west", 2, &incidents);
        assert_eq!(breaker.state("west"), BreakerState::Open);
        assert_eq!(incidents.open_count(Severity::Critical), 1);
        assert_eq!(breaker.snapshot("west").trips, 1);
        // Other keys are independent.
        assert_eq!(breaker.state("east"), BreakerState::Closed);
        assert!(breaker.allow("east", 2));
    }

    #[test]
    fn breaker_recovers_through_half_open() {
        let incidents = IncidentManager::new();
        let breaker = CircuitBreaker::new(BreakerConfig {
            trip_threshold: 1,
            cooldown_ticks: 10,
        });
        breaker.record_failure("west", 100, &incidents);
        assert_eq!(breaker.state("west"), BreakerState::Open);
        assert!(!breaker.allow("west", 105), "cooldown not elapsed");
        assert!(
            breaker.allow("west", 110),
            "cooldown elapsed: probe admitted"
        );
        assert_eq!(breaker.state("west"), BreakerState::HalfOpen);
        breaker.record_success("west", 110, &incidents);
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
        let breaker = CircuitBreaker::new(BreakerConfig {
            trip_threshold: 1,
            cooldown_ticks: 10,
        });
        // A probe taken before any state exists reads closed, and taking it
        // does not create breaker state for the key.
        let probe = breaker.probe("west");
        assert_eq!(probe.state(), BreakerState::Closed);
        assert!(!probe.is_open());
        assert_eq!(breaker.snapshot("west").trips, 0);

        breaker.record_failure("west", 0, &incidents);
        assert!(probe.is_open(), "trip visible through the probe");
        assert!(breaker.allow("west", 10));
        assert_eq!(probe.state(), BreakerState::HalfOpen);
        breaker.record_success("west", 10, &incidents);
        assert_eq!(probe.state(), BreakerState::Closed);

        // A probe taken after transitions is seeded from existing state.
        breaker.record_failure("east", 0, &incidents);
        assert!(breaker.probe("east").is_open());
        // Probes observe transitions made through breaker clones too.
        breaker.clone().allow("east", 10);
        assert_eq!(breaker.probe("east").state(), BreakerState::HalfOpen);
    }

    #[test]
    fn failed_probe_reopens_the_breaker() {
        let incidents = IncidentManager::new();
        let breaker = CircuitBreaker::new(BreakerConfig {
            trip_threshold: 1,
            cooldown_ticks: 10,
        });
        breaker.record_failure("west", 0, &incidents);
        assert!(breaker.allow("west", 10));
        assert_eq!(breaker.state("west"), BreakerState::HalfOpen);
        breaker.record_failure("west", 10, &incidents);
        assert_eq!(breaker.state("west"), BreakerState::Open);
        assert!(!breaker.allow("west", 15), "cooldown restarts from re-open");
        assert!(breaker.allow("west", 20));
        assert_eq!(breaker.snapshot("west").trips, 2);
        assert_eq!(incidents.open_count(Severity::Warning), 1);
    }

    #[test]
    fn successes_reset_the_failure_streak() {
        let incidents = IncidentManager::new();
        let breaker = CircuitBreaker::new(BreakerConfig {
            trip_threshold: 3,
            cooldown_ticks: 14,
        });
        for tick in 0..10 {
            breaker.record_failure("west", tick, &incidents);
            breaker.record_failure("west", tick, &incidents);
            breaker.record_success("west", tick, &incidents);
        }
        assert_eq!(breaker.state("west"), BreakerState::Closed);
        assert_eq!(incidents.open_total(), 0);
    }

    #[test]
    fn stage_seed_separates_stages() {
        let a = stage_seed(1, "ingestion", "west", 100);
        assert_eq!(a, stage_seed(1, "ingestion", "west", 100));
        assert_ne!(a, stage_seed(1, "validation", "west", 100));
        assert_ne!(a, stage_seed(1, "ingestion", "east", 100));
        assert_ne!(a, stage_seed(1, "ingestion", "west", 107));
        assert_ne!(a, stage_seed(2, "ingestion", "west", 100));
    }

    /// Retry jitter, and with it the stable export under chaos, hangs on
    /// these: the values every build so far has produced.
    #[test]
    fn stage_seed_values_are_pinned() {
        assert_eq!(
            stage_seed(0, "ingestion", "west", 100),
            0x72e5_89f6_3644_32ba
        );
        assert_eq!(
            stage_seed(0x5eed, "train_infer", "region-b", -7),
            0x56ba_9d68_d84f_c634
        );
        assert_eq!(
            stage_seed(u64::MAX, "", "", i64::MIN),
            0x383d_c0c4_ccf7_559a
        );
    }

    #[test]
    fn run_observed_records_retry_metrics() {
        let registry = Registry::new();
        let policy = RetryPolicy::default();
        let labels = [("region", "west"), ("stage", "ingestion")];
        let result = policy.run_observed(7, &registry, "ingestion", "west", |attempt| {
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
                .histogram("seagull_retry_backoff_ms", &labels)
                .count(),
            1
        );
        assert_eq!(
            registry
                .counter("seagull_retry_exhausted_total", &labels)
                .get(),
            0
        );

        let failed = policy.run_observed(7, &registry, "ingestion", "west", |_| {
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
        let breaker = CircuitBreaker::new(BreakerConfig {
            trip_threshold: 1,
            cooldown_ticks: 10,
        });
        breaker.record_failure("west", 0, &incidents);
        breaker.record_success("east", 0, &incidents);
        breaker.publish_state(&registry);
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
        assert!(breaker.allow("west", 10));
        breaker.publish_state(&registry);
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
