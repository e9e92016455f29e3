//! Property-based tests for the circuit breaker's state-machine invariants
//! under arbitrary event sequences.

use proptest::prelude::*;
use seagull_core::incident::IncidentManager;
use seagull_core::resilience::{BreakerState, CircuitBreaker, TRIP_THRESHOLD};

/// A breaker event: `true` = the guarded op succeeded, `false` = it failed.
fn event_strategy() -> impl Strategy<Value = Vec<bool>> {
    proptest::collection::vec(any::<bool>(), 1..120)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// State-machine invariant: the breaker never transitions open → closed
    /// without passing through half-open, trips only at `TRIP_THRESHOLD`,
    /// and only `allow` (cooldown expiry) leaves the open state.
    #[test]
    fn breaker_never_skips_half_open(
        events in event_strategy(),
        tick_step in 1i64..10,
    ) {
        let incidents = IncidentManager::new();
        let breaker = CircuitBreaker::new();
        let mut tick = 0i64;
        let mut prev = breaker.state("k");
        let mut streak = 0u32;
        for &ok in &events {
            tick += tick_step;
            let admitted = breaker.allow("k", tick);
            let after_allow = breaker.state("k");
            // allow() may only move open → half-open, nothing else.
            match (prev, after_allow) {
                (a, b) if a == b => {}
                (BreakerState::Open, BreakerState::HalfOpen) => {
                    prop_assert!(admitted, "the half-open transition admits the probe");
                }
                (a, b) => prop_assert!(false, "allow() moved {a:?} -> {b:?}"),
            }
            prop_assert_eq!(
                admitted,
                after_allow != BreakerState::Open,
                "exactly the non-open states admit"
            );
            if admitted {
                if ok {
                    breaker.record_success("k", tick, &incidents);
                } else {
                    breaker.record_failure("k", tick, &incidents);
                }
            }
            let after_record = breaker.state("k");
            // record_*() transitions, from the post-allow state.
            match (after_allow, after_record) {
                (a, b) if a == b => {}
                (BreakerState::HalfOpen, BreakerState::Closed) => {
                    prop_assert!(admitted && ok, "half-open closes only on probe success");
                }
                (BreakerState::HalfOpen, BreakerState::Open) => {
                    prop_assert!(admitted && !ok, "half-open re-opens only on probe failure");
                }
                (BreakerState::Closed, BreakerState::Open) => {
                    prop_assert!(admitted && !ok, "closed trips only on a recorded failure");
                }
                (a, b) => prop_assert!(false, "record moved {a:?} -> {b:?}"),
            }
            // Trip-threshold accounting (closed-state failures only).
            if after_allow == BreakerState::Closed && admitted {
                streak = if ok { 0 } else { streak + 1 };
                if streak >= TRIP_THRESHOLD {
                    prop_assert_eq!(after_record, BreakerState::Open, "threshold must trip");
                    streak = 0;
                } else {
                    prop_assert_eq!(after_record, BreakerState::Closed);
                }
            } else if after_allow == BreakerState::HalfOpen && admitted {
                streak = 0;
            }
            prev = after_record;
        }
    }
}
