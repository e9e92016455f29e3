//! Property-based tests for the fork-join parallel maps: the parallel
//! map must be an order-preserving, exactly-once map for *any* item count
//! (including 0 and 1) and *any* thread count, and the profiled variant's
//! accounting must cover every item.

use proptest::prelude::*;
use seagull_core::par::{parallel_map, parallel_map_profiled};
use std::sync::atomic::{AtomicU64, Ordering};

fn items_strategy() -> impl Strategy<Value = Vec<i64>> {
    proptest::collection::vec(-1_000_000i64..1_000_000, 0..200)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// parallel_map == serial map, for arbitrary items and thread counts.
    /// Output order follows input order regardless of which worker ran what.
    #[test]
    fn parallel_map_matches_serial_map(
        items in items_strategy(),
        threads in 0usize..9,
    ) {
        let serial: Vec<i64> = items.iter().map(|x| x.wrapping_mul(3) - 7).collect();
        let parallel = parallel_map(&items, threads, |x| x.wrapping_mul(3) - 7);
        prop_assert_eq!(parallel, serial);
    }

    /// The closure runs exactly once per item — no drops, no double runs —
    /// even when threads far exceed items.
    #[test]
    fn every_item_maps_exactly_once(
        items in items_strategy(),
        threads in 1usize..9,
    ) {
        let calls = AtomicU64::new(0);
        let out = parallel_map(&items, threads, |x| {
            calls.fetch_add(1, Ordering::Relaxed);
            *x
        });
        prop_assert_eq!(out.len(), items.len());
        prop_assert_eq!(calls.load(Ordering::Relaxed), items.len() as u64);
    }

    /// The profiled variant returns the same results and its per-worker item
    /// counts sum to the input length: every item is attributed to exactly
    /// one worker.
    #[test]
    fn profile_accounts_for_every_item(
        items in items_strategy(),
        threads in 1usize..9,
    ) {
        let (out, profile) = parallel_map_profiled(&items, threads, |x| x + 1);
        let serial: Vec<i64> = items.iter().map(|x| x + 1).collect();
        prop_assert_eq!(out, serial);
        prop_assert_eq!(profile.total_items(), items.len() as u64);
        // Never more participants than requested (threads >= 1 here).
        prop_assert!(profile.workers.len() <= threads.max(1));
    }
}

/// Degenerate sizes, pinned explicitly (proptest may shrink past them).
#[test]
fn empty_and_single_item_inputs() {
    for threads in [0usize, 1, 2, 8] {
        let empty: Vec<u32> = Vec::new();
        assert_eq!(parallel_map(&empty, threads, |x| x * 2), Vec::<u32>::new());
        assert_eq!(parallel_map(&[5u32], threads, |x| x * 2), vec![10]);
        let (out, profile) = parallel_map_profiled(&[9u32], threads, |x| x + 1);
        assert_eq!(out, vec![10]);
        assert_eq!(profile.total_items(), 1);
    }
}

/// The same input mapped at different thread counts is bit-identical — the
/// determinism contract the fleet orchestrator builds on.
#[test]
fn thread_count_is_unobservable_in_results() {
    let items: Vec<u64> = (0..257).collect();
    let baseline = parallel_map(&items, 1, |x| x.wrapping_mul(0x9E37_79B9) >> 3);
    for threads in [2usize, 3, 4, 8] {
        let got = parallel_map(&items, threads, |x| x.wrapping_mul(0x9E37_79B9) >> 3);
        assert_eq!(got, baseline, "results diverged at threads={threads}");
    }
}
