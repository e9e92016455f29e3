//! Seeded stress over the map protocol: panics, injected crashes, nesting and
//! skewed costs at 1 / 2 / 8 threads, each case on a seat counter of its own
//! that must read zero again when the case is over — the panicking ones too.

use super::*;
use seagull_telemetry::chaos::DetRng;
use std::hint::black_box;

fn pick(rng: &mut DetRng, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

/// Busy work proportional to `cost`, with a value to compare.
fn spin(cost: u64) -> u64 {
    (0..cost * 64).fold(cost, |x, i| black_box(x.rotate_left(5) ^ i))
}

fn total(values: &[u64]) -> u64 {
    values.iter().fold(0, |sum, &v| sum.wrapping_add(v))
}

/// Runs `f`, which must panic, and hands back the payload.
fn panics<R>(f: impl FnOnce() -> R) -> Box<dyn std::any::Any + Send> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(_) => panic!("the map swallowed a panic"),
        Err(payload) => payload,
    }
}

#[test]
fn seeded_cases_keep_the_contract_and_return_every_seat() {
    let mut rng = DetRng::new(0x5ea9_0115);
    for case in 0..600 {
        let threads = [1usize, 2, 8][pick(&mut rng, 3)];
        let n = 1 + pick(&mut rng, 48);
        let k = pick(&mut rng, n);
        // Mostly cheap items, one in eight forty times the rest.
        let costs: Vec<u64> = (0..n)
            .map(|_| [40, 1, 1, 2, 0, 3, 1, 2][pick(&mut rng, 8)])
            .collect();
        let items: Vec<usize> = (0..n).collect();
        let serial: Vec<u64> = costs.iter().map(|&c| spin(c)).collect();
        let seats = AtomicIsize::new(0);
        let kind = case % 6;
        let what = format!("case {case}: kind {kind}, {n} items, k={k}, threads={threads}");
        // An inner map over a prefix of the costs, summed.
        let inner_sum = |upto: usize, bad: Option<fn() -> u64>| {
            let inner = &items[..=upto];
            let f = |&j: &usize| match bad {
                Some(die) if j == upto / 2 => die(),
                _ => spin(costs[j]),
            };
            total(&map_on(&seats, inner, threads, usize::MAX, f).0)
        };
        let prefix_sum = |upto: usize| total(&serial[..=upto]);
        match kind {
            // Skewed costs, chunked claims: the serial answer, all accounted.
            0 => {
                let (out, profile) = map_on(&seats, &costs, threads, usize::MAX, |&c| spin(c));
                assert_eq!(out, serial, "{what}");
                assert_eq!(profile.total_items(), n as u64, "{what}");
                assert_eq!(profile.workers.len(), threads.min(n), "{what}");
            }
            // A panic in item k of a plain map propagates.
            1 => {
                let payload = panics(|| {
                    map_on(&seats, &items, threads, usize::MAX, |&i| match i == k {
                        true => panic!("stress: item {i}"),
                        false => spin(costs[i]),
                    })
                });
                let message = payload.downcast_ref::<String>().expect(&what);
                assert_eq!(message, &format!("stress: item {k}"), "{what}");
            }
            // The same panic under `parallel_map_tasks` poisons item k alone.
            2 => {
                let f = isolated(|&i: &usize| match i == k {
                    true => panic!("stress: item {i}"),
                    false => spin(costs[i]),
                });
                let (out, _) = map_on(&seats, &items, threads, 1, f);
                for (i, result) in out.into_iter().enumerate() {
                    match i == k {
                        true => assert_eq!(result, Err(format!("stress: item {k}")), "{what}"),
                        false => assert_eq!(result, Ok(serial[i]), "{what}"),
                    }
                }
            }
            // A map nested inside every task.
            3 => {
                let f = isolated(|&i: &usize| inner_sum(i, None));
                let (out, _) = map_on(&seats, &items, threads, 1, f);
                for (i, result) in out.into_iter().enumerate() {
                    assert_eq!(result, Ok(prefix_sum(i)), "{what}");
                }
            }
            // An `InjectedCrash` inside the map nested in task k escalates
            // through both levels.
            4 => {
                let die: fn() -> u64 = || InjectedCrash::die("stress: nested kill point");
                let f = isolated(|&i: &usize| inner_sum(i, (i == k).then_some(die)));
                let payload = panics(|| map_on(&seats, &items, threads, 1, f));
                assert!(payload.is::<InjectedCrash>(), "{what}");
            }
            // A plain panic there stops at task k.
            _ => {
                let die: fn() -> u64 = || panic!("stress: nested panic");
                let f = isolated(|&i: &usize| inner_sum(i, (i == k).then_some(die)));
                let (out, _) = map_on(&seats, &items, threads, 1, f);
                for (i, result) in out.into_iter().enumerate() {
                    match i == k {
                        true => assert_eq!(result, Err("stress: nested panic".into()), "{what}"),
                        false => assert_eq!(result, Ok(prefix_sum(i)), "{what}"),
                    }
                }
            }
        }
        assert_eq!(seats.load(Relaxed), 0, "seats after {what}");
    }
}
