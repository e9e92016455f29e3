//! The watch engine: sliding-window SLI series, burn-rate evaluation, and
//! alert lifecycle.
//!
//! The engine is fed SLI events (`good`/`bad` counts at a virtual tick)
//! through [`WatchEngine::record`] and its typed wrappers, and evaluated
//! with [`WatchEngine::evaluate`]. Evaluation computes burn rates over
//! every configured [`BurnRatePair`] window, raises one deduped incident
//! per `(SLO, pair, region)` through the shared [`IncidentManager`] on the
//! rising edge, resolves it on the falling edge, and maintains per-region
//! health gauges plus stable burn-rate/attainment series in the `Obs`
//! registry.
//!
//! ## Determinism
//!
//! State is keyed by `(SLO, region)`, so concurrent recorders touching
//! disjoint regions (the fleet pattern) cannot interleave observably;
//! counters are commutative. [`WatchEngine::evaluate`] mutates alert state
//! and raises incidents, so it must be called from a serial step — the
//! orchestrator barrier, a bench loop, a test — never from inside a
//! parallel region. Under that rule every gauge, counter, and incident row
//! is a pure function of the recorded events and byte-stable in
//! `Obs::stable_export()`.

use crate::slo::{default_pairs, BurnRatePair, SloKind, SloSpec};
use seagull_core::{IncidentManager, Severity};
use seagull_obs::Obs;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Mutex;

/// One per-tick SLI reading: `(tick, good, bad)`.
type Reading = (u64, u64, u64);

/// Sliding event window for one `(SLO, region)` pair.
#[derive(Default)]
struct SloSeries {
    /// Per-tick aggregated readings, ticks ascending.
    ring: VecDeque<Reading>,
    /// Names of burn-rate pairs currently firing.
    active: BTreeSet<&'static str>,
}

impl SloSeries {
    /// Good/bad totals over the window `(tick - window, tick]`.
    fn window_counts(&self, tick: u64, window: u64) -> (u64, u64) {
        let from = tick.saturating_sub(window);
        let mut good = 0;
        let mut bad = 0;
        for &(t, g, b) in self.ring.iter().rev() {
            if t <= from {
                break;
            }
            if t <= tick {
                good += g;
                bad += b;
            }
        }
        (good, bad)
    }
}

/// One burn-rate alert edge produced by [`WatchEngine::evaluate`].
#[derive(Clone, Debug, PartialEq)]
pub struct AlertTransition {
    /// The SLO whose budget is burning (or recovered).
    pub slo: String,
    /// Region the alert applies to.
    pub region: String,
    /// Which [`BurnRatePair`] crossed its factor.
    pub pair: &'static str,
    /// Severity of the underlying incident.
    pub severity: Severity,
    /// `true` when the alert fired, `false` when it cleared.
    pub fired: bool,
}

/// Evaluates [`SloSpec`]s over sliding windows of the virtual clock.
pub struct WatchEngine {
    slos: Vec<SloSpec>,
    pairs: Vec<BurnRatePair>,
    incidents: IncidentManager,
    obs: Obs,
    /// Ticks of history to retain: the widest alert or attainment window.
    horizon: u64,
    state: Mutex<BTreeMap<(String, String), SloSeries>>,
}

impl WatchEngine {
    /// Creates an engine over the shared observability handle and incident
    /// log, with the [`default_pairs`] burn-rate rules.
    pub fn new(obs: Obs, incidents: IncidentManager) -> WatchEngine {
        WatchEngine {
            slos: Vec::new(),
            pairs: default_pairs(),
            incidents,
            obs,
            horizon: 1,
            state: Mutex::new(BTreeMap::new()),
        }
    }

    /// Replaces the burn-rate pairs (e.g. to tighten windows in tests).
    pub fn with_pairs(mut self, pairs: Vec<BurnRatePair>) -> WatchEngine {
        self.pairs = pairs;
        self.recompute_horizon();
        self
    }

    /// Registers an objective.
    pub fn add_slo(&mut self, slo: SloSpec) {
        self.slos.push(slo);
        self.recompute_horizon();
    }

    fn recompute_horizon(&mut self) {
        let widest_pair = self.pairs.iter().map(|p| p.long).max().unwrap_or(1);
        let widest_slo = self.slos.iter().map(|s| s.window).max().unwrap_or(1);
        self.horizon = widest_pair.max(widest_slo);
    }

    /// The registered objectives.
    pub fn slos(&self) -> &[SloSpec] {
        &self.slos
    }

    /// The configured burn-rate pairs.
    pub fn pairs(&self) -> &[BurnRatePair] {
        &self.pairs
    }

    /// The incident log alerts fire through.
    pub fn incidents(&self) -> &IncidentManager {
        &self.incidents
    }

    /// The observability handle watch metrics land in.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    fn spec(&self, slo: &str) -> &SloSpec {
        self.slos
            .iter()
            .find(|s| s.name == slo)
            .unwrap_or_else(|| panic!("unknown SLO `{slo}`"))
    }

    /// Records `good`/`bad` events for `slo` in `region` at a virtual
    /// tick. Safe to call from concurrent recorders as long as each region
    /// is recorded by one thread at a time (the fleet's disjoint-region
    /// rule).
    pub fn record(&self, slo: &str, region: &str, tick: u64, good: u64, bad: u64) {
        // Panic on unknown SLOs up front (a typo would otherwise silently
        // accumulate events no evaluation ever reads).
        let _ = self.spec(slo);
        if good + bad == 0 {
            return;
        }
        let labels = [("region", region), ("slo", slo)];
        let registry = self.obs.registry();
        registry
            .counter("seagull_slo_good_events_total", &labels)
            .add(good);
        registry
            .counter("seagull_slo_bad_events_total", &labels)
            .add(bad);
        let mut state = self.state.lock().unwrap();
        let series = state
            .entry((slo.to_string(), region.to_string()))
            .or_default();
        match series.ring.back_mut() {
            Some((t, g, b)) if *t == tick => {
                *g += good;
                *b += bad;
            }
            Some((t, _, _)) if *t > tick => {
                // Late reading: fold into the closest earlier slot rather
                // than breaking ring monotonicity.
                if let Some((_, g, b)) = series.ring.iter_mut().rev().find(|(t, _, _)| *t <= tick) {
                    *g += good;
                    *b += bad;
                } else {
                    series.ring.push_front((tick, good, bad));
                }
            }
            _ => series.ring.push_back((tick, good, bad)),
        }
        let from = tick.saturating_sub(self.horizon);
        while series.ring.front().is_some_and(|&(t, _, _)| t <= from) {
            series.ring.pop_front();
        }
    }

    /// Records one latency observation against an
    /// [`SloKind::LatencyUnder`] objective's threshold.
    pub fn observe_latency(&self, slo: &str, region: &str, tick: u64, value: f64) {
        let SloKind::LatencyUnder { threshold } = self.spec(slo).kind else {
            panic!("SLO `{slo}` is not a latency objective");
        };
        self.record(
            slo,
            region,
            tick,
            (value <= threshold) as u64,
            (value > threshold) as u64,
        );
    }

    /// Records one staleness observation (e.g.
    /// `ServeService::staleness_days`) against an
    /// [`SloKind::StalenessUnder`] objective.
    pub fn observe_staleness(&self, slo: &str, region: &str, tick: u64, staleness_days: i64) {
        let SloKind::StalenessUnder { max_days } = self.spec(slo).kind else {
            panic!("SLO `{slo}` is not a staleness objective");
        };
        let ok = staleness_days <= max_days;
        self.record(slo, region, tick, ok as u64, !ok as u64);
    }

    /// Burn rate of `slo` in `region` over the trailing `window` ticks: the
    /// bad-event fraction divided by the error budget (0.0 with no events).
    pub fn burn_rate(&self, slo: &str, region: &str, tick: u64, window: u64) -> f64 {
        let spec = self.spec(slo);
        let state = self.state.lock().unwrap();
        let Some(series) = state.get(&(slo.to_string(), region.to_string())) else {
            return 0.0;
        };
        burn(series, tick, window, spec.budget())
    }

    /// Attainment of `slo` in `region` over its own window, percent (100.0
    /// with no events).
    pub fn attainment_pct(&self, slo: &str, region: &str, tick: u64) -> f64 {
        let spec = self.spec(slo);
        let state = self.state.lock().unwrap();
        let Some(series) = state.get(&(slo.to_string(), region.to_string())) else {
            return 100.0;
        };
        attainment(series, tick, spec.window)
    }

    /// Distinct regions with recorded events, sorted.
    pub fn regions(&self) -> Vec<String> {
        let state = self.state.lock().unwrap();
        let mut out: Vec<String> = state.keys().map(|(_, region)| region.clone()).collect();
        out.dedup();
        out.sort();
        out.dedup();
        out
    }

    /// Currently firing alerts as `(slo, region, pair, severity)`, sorted.
    pub fn open_alerts(&self) -> Vec<(String, String, &'static str, Severity)> {
        let state = self.state.lock().unwrap();
        let mut out = Vec::new();
        for ((slo, region), series) in state.iter() {
            for pair_name in &series.active {
                let severity = self
                    .pairs
                    .iter()
                    .find(|p| p.name == *pair_name)
                    .map(|p| p.severity)
                    .unwrap_or(Severity::Warning);
                out.push((slo.clone(), region.clone(), *pair_name, severity));
            }
        }
        out
    }

    /// Evaluates every `(SLO, region)` series at `tick`: updates burn-rate
    /// and attainment gauges, fires/clears burn-rate alerts through the
    /// incident log, and flips per-region health gauges. Returns the alert
    /// edges this evaluation produced, in sorted `(SLO, region)` order.
    ///
    /// Call from a serial step (an orchestrator barrier, a bench loop) —
    /// never from inside a parallel region.
    pub fn evaluate(&self, tick: u64) -> Vec<AlertTransition> {
        let registry = self.obs.registry();
        let mut transitions = Vec::new();
        let mut region_alerting: BTreeMap<String, bool> = BTreeMap::new();
        let mut state = self.state.lock().unwrap();
        for ((slo_name, region), series) in state.iter_mut() {
            let spec = self
                .slos
                .iter()
                .find(|s| &s.name == slo_name)
                .expect("recorded SLO is registered");
            for pair in &self.pairs {
                let burn_long = burn(series, tick, pair.long, spec.budget());
                let burn_short = burn(series, tick, pair.short, spec.budget());
                registry
                    .gauge(
                        "seagull_slo_burn_rate",
                        &[
                            ("pair", pair.name),
                            ("region", region),
                            ("slo", slo_name),
                            ("window", "long"),
                        ],
                    )
                    .set(burn_long);
                registry
                    .gauge(
                        "seagull_slo_burn_rate",
                        &[
                            ("pair", pair.name),
                            ("region", region),
                            ("slo", slo_name),
                            ("window", "short"),
                        ],
                    )
                    .set(burn_short);
                let firing = burn_long >= pair.factor && burn_short >= pair.factor;
                let was_firing = series.active.contains(pair.name);
                let source = format!("slo:{slo_name}:{}", pair.name);
                if firing && !was_firing {
                    series.active.insert(pair.name);
                    self.incidents.raise_keyed(
                        pair.severity,
                        &source,
                        region,
                        "burn-rate",
                        format!(
                            "SLO {slo_name} burn rate {burn_long:.2}x/{burn_short:.2}x \
                             over budget (pair {}, factor {})",
                            pair.name, pair.factor
                        ),
                    );
                    registry
                        .counter(
                            "seagull_slo_alerts_fired_total",
                            &[("pair", pair.name), ("region", region), ("slo", slo_name)],
                        )
                        .inc();
                    transitions.push(AlertTransition {
                        slo: slo_name.clone(),
                        region: region.clone(),
                        pair: pair.name,
                        severity: pair.severity,
                        fired: true,
                    });
                } else if !firing && was_firing {
                    series.active.remove(pair.name);
                    self.incidents.resolve_matching(&source, region);
                    registry
                        .counter(
                            "seagull_slo_alerts_cleared_total",
                            &[("pair", pair.name), ("region", region), ("slo", slo_name)],
                        )
                        .inc();
                    transitions.push(AlertTransition {
                        slo: slo_name.clone(),
                        region: region.clone(),
                        pair: pair.name,
                        severity: pair.severity,
                        fired: false,
                    });
                }
            }
            registry
                .gauge(
                    "seagull_slo_attainment_pct",
                    &[("region", region), ("slo", slo_name)],
                )
                .set(attainment(series, tick, spec.window));
            let entry = region_alerting.entry(region.clone()).or_default();
            *entry |= !series.active.is_empty();
        }
        for (region, alerting) in region_alerting {
            registry
                .gauge("seagull_watch_region_healthy", &[("region", &region)])
                .set(if alerting { 0.0 } else { 1.0 });
        }
        transitions
    }
}

/// Burn rate over `(tick - window, tick]` given an error budget.
fn burn(series: &SloSeries, tick: u64, window: u64, budget: f64) -> f64 {
    let (good, bad) = series.window_counts(tick, window);
    let total = good + bad;
    if total == 0 {
        return 0.0;
    }
    (bad as f64 / total as f64) / budget
}

/// Good-event percentage over `(tick - window, tick]` (100.0 with no
/// events).
fn attainment(series: &SloSeries, tick: u64, window: u64) -> f64 {
    let (good, bad) = series.window_counts(tick, window);
    let total = good + bad;
    if total == 0 {
        return 100.0;
    }
    100.0 * good as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slo::TICKS_PER_HOUR;

    fn engine() -> WatchEngine {
        let mut e = WatchEngine::new(Obs::new(), IncidentManager::new());
        e.add_slo(SloSpec::error_rate("serve-errors", 0.99));
        e
    }

    #[test]
    fn no_events_means_no_alerts_and_full_attainment() {
        let e = engine();
        assert!(e.evaluate(100).is_empty());
        assert_eq!(e.attainment_pct("serve-errors", "west", 100), 100.0);
        assert_eq!(e.burn_rate("serve-errors", "west", 100, 60), 0.0);
    }

    #[test]
    fn sustained_errors_fire_fast_pair_then_clear_on_recovery() {
        // Only the fast pair, so the slow pair's wide windows don't keep
        // the incident log non-empty after recovery.
        let mut e =
            WatchEngine::new(Obs::new(), IncidentManager::new()).with_pairs(vec![BurnRatePair {
                name: "fast",
                long: TICKS_PER_HOUR,
                short: 5,
                factor: 14.4,
                severity: Severity::Critical,
            }]);
        e.add_slo(SloSpec::error_rate("serve-errors", 0.99));
        // One hour of 50% errors: burn = 0.5 / 0.01 = 50x >= 14.4x.
        for t in 1..=TICKS_PER_HOUR {
            e.record("serve-errors", "west", t, 10, 10);
        }
        let fired = e.evaluate(TICKS_PER_HOUR);
        assert!(
            fired.iter().any(|a| a.pair == "fast" && a.fired),
            "fast pair should fire: {fired:?}"
        );
        assert_eq!(e.incidents().open_total(), 1);
        let open = e.incidents().open();
        assert_eq!(open[0].source, "slo:serve-errors:fast");
        assert_eq!(open[0].severity, Severity::Critical);
        // Re-evaluating while still firing must not duplicate the incident.
        e.evaluate(TICKS_PER_HOUR);
        assert_eq!(e.incidents().open_total(), 1);
        assert_eq!(e.incidents().all().len(), 1);

        // Recovery: clean traffic long enough to drain the short window.
        for t in TICKS_PER_HOUR + 1..=2 * TICKS_PER_HOUR {
            e.record("serve-errors", "west", t, 20, 0);
        }
        let cleared = e.evaluate(2 * TICKS_PER_HOUR);
        assert!(cleared.iter().any(|a| a.pair == "fast" && !a.fired));
        assert_eq!(e.incidents().open_total(), 0);
        assert_eq!(
            e.obs()
                .registry()
                .gauge("seagull_watch_region_healthy", &[("region", "west")])
                .get(),
            1.0
        );
    }

    #[test]
    fn alerts_are_scoped_per_region() {
        let e = engine();
        for t in 1..=TICKS_PER_HOUR {
            e.record("serve-errors", "west", t, 0, 10);
            e.record("serve-errors", "east", t, 10, 0);
        }
        e.evaluate(TICKS_PER_HOUR);
        let healthy = |r: &str| {
            e.obs()
                .registry()
                .gauge("seagull_watch_region_healthy", &[("region", r)])
                .get()
        };
        assert_eq!(healthy("west"), 0.0);
        assert_eq!(healthy("east"), 1.0);
        assert!(e.open_alerts().iter().all(|(_, r, _, _)| r == "west"));
    }

    #[test]
    fn short_window_gates_stale_burns() {
        let e = engine();
        // Errors only in the first 5 minutes of the hour: the long window
        // still burns, but the short window has recovered — no alert.
        for t in 1..=5 {
            e.record("serve-errors", "west", t, 0, 100);
        }
        for t in 6..=TICKS_PER_HOUR {
            e.record("serve-errors", "west", t, 100, 0);
        }
        let fired = e.evaluate(TICKS_PER_HOUR);
        assert!(
            !fired.iter().any(|a| a.pair == "fast" && a.fired),
            "short window must gate: {fired:?}"
        );
    }

    #[test]
    fn staleness_and_latency_observers_classify_events() {
        let mut e = WatchEngine::new(Obs::new(), IncidentManager::new());
        e.add_slo(SloSpec::staleness_under("staleness", 14, 0.9));
        e.add_slo(SloSpec::latency_under("latency", 0.010, 0.95));
        e.observe_staleness("staleness", "west", 1, 7);
        e.observe_staleness("staleness", "west", 2, 21);
        e.observe_latency("latency", "west", 1, 0.005);
        e.observe_latency("latency", "west", 2, 0.500);
        assert_eq!(e.attainment_pct("staleness", "west", 2), 50.0);
        assert_eq!(e.attainment_pct("latency", "west", 2), 50.0);
    }

    #[test]
    fn evaluation_is_a_pure_function_of_recorded_events() {
        let run = || {
            let e = engine();
            for t in 1..=90 {
                e.record("serve-errors", "a", t, 9, 1);
                e.record("serve-errors", "b", t, 10, 0);
            }
            e.evaluate(90);
            e.obs().stable_export()
        };
        assert_eq!(run(), run());
    }
}
