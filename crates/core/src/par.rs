//! The Dask substitute: a fork-join data-parallel map over scoped threads.
//!
//! The paper partitions input "per server and processes servers in parallel"
//! with Dask, winning 3–4.6× over single-threaded execution (Figure 12(b)).
//! Here a map forks helpers inside one [`std::thread::scope`], the caller
//! takes part, and every participant claims chunks of the input from one
//! atomic cursor, keeps its `(index, result)` pairs and hands them back
//! through `join`; the caller puts them in input order. Nothing outlives the
//! call, so the compiler checks every borrow and the module has no `unsafe`.
//!
//! Maps nest (the region-level map runs a per-server map inside each item),
//! and a thread per participant per level would multiply. The process-wide
//! `SEATS` counter keeps the running threads of all levels together at
//! `threads`. A helper holds a seat from before its fork until it exits. A
//! caller looks for a free seat before *each* claim, so a nested map forks
//! late, when a helper of the enclosing map has run out of items and left. A
//! caller with nothing left to claim lends its seat while it blocks in `join`
//! and has it back from its last helper, so the map nested inside the item a
//! helper still holds can fork there: whoever claimed the largest region, it
//! ends up on all threads. The caller never waits for a seat, so
//! `threads == 1`, a full house or a failed `spawn` cost parallelism only.
//!
//! Every atomic here is `Relaxed`: each is one word of claims or counts that
//! publishes no other data; what the items produce travels through `join`,
//! which is the synchronization.

use seagull_obs::{ParallelProfile, WorkerProfile};
use seagull_telemetry::chaos::InjectedCrash;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicUsize, Ordering::Relaxed};
use std::thread;
use std::time::{Duration, Instant};

/// Upper bound on the participants of one map, whatever `threads` asks for.
const MAX_WORKERS: usize = 64;

/// Target chunks per participant: enough for the shared cursor to level skew,
/// few enough that the per-chunk atomic and `Instant` samples stay amortized.
const CHUNKS_PER_WORKER: usize = 8;

/// Live helper threads of every map in the process, minus the callers that
/// have lent their seat: 0 whenever no map is running.
static SEATS: AtomicIsize = AtomicIsize::new(0);

/// Set in [`Job::helpers`] once the caller has nothing left to claim.
const CALLER_WAITS: usize = 1 << (usize::BITS - 1);

/// One map in flight, shared by its participants.
struct Job<'a, T, F> {
    items: &'a [T],
    f: &'a F,
    chunk: usize,
    /// First index nobody has claimed.
    cursor: AtomicUsize,
    /// A participant panicked: claim nothing more.
    abort: AtomicBool,
    /// Helpers that have not exited, plus [`CALLER_WAITS`].
    helpers: AtomicUsize,
    seats: &'a AtomicIsize,
}

/// What a participant brings back.
struct Part<R> {
    results: Vec<(usize, R)>,
    profile: WorkerProfile,
}

/// A helper's seat, taken before the fork and dropped as the thread exits
/// (or with its closure, when the thread could not be spawned).
struct Seat<'a, T, F>(&'a Job<'a, T, F>);

impl<'a, T, F> Seat<'a, T, F> {
    fn take(job: &'a Job<'a, T, F>, threads: usize) -> Option<Self> {
        let free = |n: isize| (n + 1 < threads as isize).then_some(n + 1);
        job.seats.fetch_update(Relaxed, Relaxed, free).ok()?;
        job.helpers.fetch_add(1, Relaxed);
        Some(Seat(job))
    }
}

impl<T, F> Drop for Seat<'_, T, F> {
    fn drop(&mut self) {
        // The last helper out leaves its seat to a caller that lent its own.
        if self.0.helpers.fetch_sub(1, Relaxed) != CALLER_WAITS | 1 {
            self.0.seats.fetch_sub(1, Relaxed);
        }
    }
}

impl<T, F> Job<'_, T, F> {
    /// Claims chunks until none is left (or a participant panicked), calling
    /// `before_claim` ahead of each. A panic in `f` comes back as `Err`.
    fn work<R>(&self, worker: usize, mut before_claim: impl FnMut()) -> thread::Result<Part<R>>
    where
        F: Fn(&T) -> R,
    {
        let started = Instant::now();
        let mut results = Vec::new();
        let mut busy = Duration::ZERO;
        let ran = catch_unwind(AssertUnwindSafe(|| {
            while !self.abort.load(Relaxed) {
                before_claim();
                let start = self.cursor.fetch_add(self.chunk, Relaxed);
                if start >= self.items.len() {
                    break;
                }
                let end = (start + self.chunk).min(self.items.len());
                // One timing sample per chunk: sub-microsecond closures do
                // not report mostly `Instant::now` overhead.
                let chunk_start = Instant::now();
                for i in start..end {
                    results.push((i, (self.f)(&self.items[i])));
                }
                busy += chunk_start.elapsed();
            }
        }));
        if let Err(payload) = ran {
            self.abort.store(true, Relaxed);
            return Err(payload);
        }
        let idle = started.elapsed().saturating_sub(busy);
        let profile = worker_profile(worker, results.len() as u64, busy, idle);
        Ok(Part { results, profile })
    }
}

/// The one map behind the three entry points: `threads` participants at most
/// (within `1..=64` and the item count), `max_chunk` items per claim at most,
/// seats from `seats` ([`SEATS`] outside this module's tests).
fn map_on<T: Sync, R: Send, F: Fn(&T) -> R + Sync>(
    seats: &AtomicIsize,
    items: &[T],
    threads: usize,
    max_chunk: usize,
    f: F,
) -> (Vec<R>, ParallelProfile) {
    let region_start = Instant::now();
    let len = items.len();
    let threads = threads.clamp(1, MAX_WORKERS).min(len.max(1));
    if threads == 1 {
        let out: Vec<R> = items.iter().map(&f).collect();
        let region_wall = region_start.elapsed();
        let workers = vec![worker_profile(0, len as u64, region_wall, Duration::ZERO)];
        return (out, profile_of(workers, region_wall));
    }
    let chunk = len.div_ceil(threads * CHUNKS_PER_WORKER).min(max_chunk);
    let job = &Job {
        items,
        f: &f,
        chunk,
        cursor: AtomicUsize::new(0),
        abort: AtomicBool::new(false),
        helpers: AtomicUsize::new(0),
        seats,
    };
    let outcomes = thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads - 1);
        // Fork while a helper would still find an item after the next claim.
        let more_left = || job.cursor.load(Relaxed) + chunk < len;
        let own = job.work(0, || {
            while handles.len() + 1 < threads && more_left() {
                let Some(seat) = Seat::take(job, threads) else {
                    break;
                };
                let worker = handles.len() + 1;
                let helper = move || {
                    let _seat = seat;
                    job.work(worker, || {})
                };
                let named = thread::Builder::new().name(format!("seagull-par-{worker}"));
                match named.spawn_scoped(scope, helper) {
                    Ok(handle) => handles.push(handle),
                    // Out of threads: the seat went back with the closure.
                    Err(_) => break,
                }
            }
        });
        // Nothing left to claim. While a helper is still inside, this thread
        // only waits: it lends its seat, to have it back from the last one out.
        if job.helpers.fetch_or(CALLER_WAITS, Relaxed) != 0 {
            seats.fetch_sub(1, Relaxed);
        }
        let joined = handles.into_iter().map(|h| h.join().unwrap_or_else(Err));
        std::iter::once(own).chain(joined).collect::<Vec<_>>()
    });

    // Every participant has left; the first panic goes on from here.
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(len).collect();
    let mut workers = Vec::with_capacity(threads);
    for outcome in outcomes {
        let part = outcome.unwrap_or_else(|payload| resume_unwind(payload));
        for (i, r) in part.results {
            slots[i] = Some(r);
        }
        workers.push(part.profile);
    }
    let out: Vec<R> = slots
        .into_iter()
        .map(|s| s.expect("every index produced exactly one result"))
        .collect();
    let region_wall = region_start.elapsed();
    // Helpers never forked (no seat, or the caller was done first) report
    // zero work and full-region idle, keeping `workers.len()` (and the
    // `seagull_parallel_workers` gauge) at `threads`.
    for worker in workers.len()..threads {
        workers.push(worker_profile(worker, 0, Duration::ZERO, region_wall));
    }
    (out, profile_of(workers, region_wall))
}

fn worker_profile(worker: usize, items: u64, busy: Duration, idle: Duration) -> WorkerProfile {
    WorkerProfile {
        worker,
        items,
        busy,
        idle,
    }
}

fn profile_of(workers: Vec<WorkerProfile>, region_wall: Duration) -> ParallelProfile {
    ParallelProfile {
        workers,
        region_wall,
    }
}

/// `f` with a panic caught and rendered, for [`parallel_map_tasks`]; an
/// [`InjectedCrash`] goes on unwinding.
fn isolated<T, R>(f: impl Fn(&T) -> R) -> impl Fn(&T) -> Result<R, String> {
    move |item| {
        catch_unwind(AssertUnwindSafe(|| f(item))).map_err(|payload| {
            if payload.is::<InjectedCrash>() {
                resume_unwind(payload);
            }
            let text = payload.downcast_ref::<&str>().map(|s| (*s).to_string());
            text.or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".to_string())
        })
    }
}

/// Parallel map preserving input order.
///
/// ```
/// use seagull_core::par::parallel_map;
/// let squares = parallel_map(&[1u64, 2, 3, 4], 2, |x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
///
/// Up to `threads` participants (at least one, at most 64; one means
/// serial-on-this-thread), the caller among them. `f` runs once per item; a
/// panic in any participant propagates after in-flight chunks finish.
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    map_on(&SEATS, items, threads, usize::MAX, f).0
}

/// [`parallel_map`] with a per-participant [`ParallelProfile`]: items
/// claimed, busy wall time inside the closure (sampled per chunk), and idle
/// time (alive but without work: the input drained while siblings were
/// still running, or the helper was never forked).
pub fn parallel_map_profiled<T, R, F>(
    items: &[T],
    threads: usize,
    f: F,
) -> (Vec<R>, ParallelProfile)
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    map_on(&SEATS, items, threads, usize::MAX, f)
}

/// Task-granular parallel map with per-item panic isolation: every item is
/// its own claim (a slow item never strands queue-mates behind it in a
/// chunk) and a panic inside `f` poisons only that item's slot, surfacing as
/// `Err(panic message)` instead of aborting the whole map.
///
/// This is the scheduling primitive behind the pipeline's fused per-server
/// dataflow operators: server-sized tasks with skewed costs, where one
/// pathological server must neither stall nor kill its siblings.
/// [`InjectedCrash`] panics (chaos kill points simulating process death) are
/// *not* isolated — they resume unwinding so recovery tests still observe a
/// crash.
pub fn parallel_map_tasks<T, R, F>(
    items: &[T],
    threads: usize,
    f: F,
) -> (Vec<Result<R, String>>, ParallelProfile)
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    map_on(&SEATS, items, threads, 1, isolated(f))
}

/// The default worker count: available parallelism, as Dask defaults to the
/// machine's cores.
pub fn default_threads() -> usize {
    thread::available_parallelism().map_or(4, |n| n.get())
}

/// The worker count the pipeline and bench bins should use: the
/// `SEAGULL_THREADS` env override when set to a positive integer, else
/// [`default_threads`]; at most 64 either way.
pub fn configured_threads() -> usize {
    threads_from(std::env::var("SEAGULL_THREADS").ok().as_deref())
}

fn threads_from(var: Option<&str>) -> usize {
    let asked = var.and_then(|v| v.trim().parse().ok()).filter(|&n| n >= 1);
    asked.unwrap_or_else(default_threads).min(MAX_WORKERS)
}

#[cfg(test)]
mod stress;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Runs `f` counted in `inside`, folding the count into `high_water`.
    fn tracked<R>(inside: &AtomicUsize, high_water: &AtomicUsize, f: impl FnOnce() -> R) -> R {
        high_water.fetch_max(inside.fetch_add(1, Relaxed) + 1, Relaxed);
        let r = f();
        inside.fetch_sub(1, Relaxed);
        r
    }

    #[test]
    fn equals_serial_map() {
        let items: Vec<u64> = (0..1000).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for threads in [1, 2, 4, 8] {
            let par = parallel_map(&items, threads, |x| x * x + 1);
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn empty_input() {
        let out: Vec<u32> = parallel_map(&[] as &[u32], 4, |x| *x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_item() {
        assert_eq!(parallel_map(&[7], 16, |x| x + 1), vec![8]);
    }

    #[test]
    fn order_preserved_with_skewed_work() {
        // Earlier items take longer: completion order inverts input order,
        // the result must not.
        let items: Vec<u64> = (0..50).collect();
        let out = parallel_map(&items, 8, |&x| {
            if x < 5 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            x
        });
        assert_eq!(out, items);
    }

    #[test]
    fn actually_uses_multiple_threads() {
        use std::collections::HashSet;
        // Seats of its own: on the process-wide counter a test running a map
        // beside this one may hold every seat for as long as this one runs.
        let seats = AtomicIsize::new(0);
        let seen = Mutex::new(HashSet::new());
        let items: Vec<u32> = (0..64).collect();
        map_on(&seats, &items, 4, usize::MAX, |_| {
            std::thread::sleep(std::time::Duration::from_millis(1));
            seen.lock().unwrap().insert(std::thread::current().id());
        });
        assert!(seen.lock().unwrap().len() > 1);
        assert_eq!(seats.load(Relaxed), 0);
    }

    #[test]
    fn default_threads_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn profiled_map_accounts_every_item() {
        let items: Vec<u64> = (0..200).collect();
        let (out, profile) = parallel_map_profiled(&items, 4, |x| x + 1);
        assert_eq!(out, (1..=200).collect::<Vec<u64>>());
        assert_eq!(profile.total_items(), 200);
        assert_eq!(profile.workers.len(), 4);
        assert!(profile.imbalance_ratio() >= 1.0);
    }

    #[test]
    fn profiled_map_serial_path() {
        let (out, profile) = parallel_map_profiled(&[1u32, 2, 3], 1, |x| x * 2);
        assert_eq!(out, vec![2, 4, 6]);
        assert_eq!(profile.workers.len(), 1);
        assert_eq!(profile.total_items(), 3);
        assert_eq!(profile.workers[0].idle, Duration::ZERO);
    }

    #[test]
    fn nested_maps_complete() {
        let outer: Vec<u32> = (0..8).collect();
        let sums = parallel_map(&outer, 4, |&o| {
            let inner: Vec<u32> = (0..64).map(|i| i + o).collect();
            parallel_map(&inner, 4, |x| x * 2).iter().sum::<u32>()
        });
        let expected: Vec<u32> = outer
            .iter()
            .map(|&o| (0..64).map(|i| (i + o) * 2).sum())
            .collect();
        assert_eq!(sums, expected);
    }

    #[test]
    fn waiting_caller_helps_a_nested_map() {
        // Two participants, two outer items. Item 0 ends only once the other
        // participant holds item 1, the last one, so whoever ran item 0 is
        // then out of work: a helper leaves and frees its seat, a caller
        // lends its own. Either way item 1's nested map must get a second
        // thread, forked late; its items stay slow until one has shown up.
        let seats = AtomicIsize::new(0);
        let last_item_taken = AtomicBool::new(false);
        let seen = Mutex::new(std::collections::HashSet::new());
        let two_seen = || seen.lock().unwrap().len() > 1;
        map_on(&seats, &[0u32, 1], 2, usize::MAX, |&item| {
            if item == 0 {
                while !last_item_taken.load(Relaxed) {
                    thread::yield_now();
                }
                return;
            }
            last_item_taken.store(true, Relaxed);
            map_on(&seats, &[(); 2000], 2, 1, |()| {
                seen.lock().unwrap().insert(thread::current().id());
                if !two_seen() {
                    thread::sleep(Duration::from_millis(1));
                }
            });
        });
        assert!(two_seen(), "the nested map ran on one thread");
        assert_eq!(seats.load(Relaxed), 0);
    }

    #[test]
    fn nested_maps_never_run_more_than_threads_closures() {
        // A thread per participant per level would put threads² closures in
        // flight; the seats keep both levels together at `threads`.
        for threads in [2usize, 4, 8] {
            let seats = AtomicIsize::new(0);
            let (inside, high_water) = (AtomicUsize::new(0), AtomicUsize::new(0));
            let outer: Vec<usize> = (0..3 * threads).collect();
            let (sums, _) = map_on(&seats, &outer, threads, 1, |&o| {
                // Skewed: the last outer items are the long ones, so helpers
                // leave the outer map while nested maps are still running.
                let inner: Vec<usize> = (0..8 * (o + 1)).collect();
                let (out, _) = map_on(&seats, &inner, threads, usize::MAX, |&i| {
                    tracked(&inside, &high_water, || {
                        thread::sleep(Duration::from_micros(50));
                        i + o
                    })
                });
                out.iter().sum::<usize>()
            });
            let expected: Vec<usize> = outer
                .iter()
                .map(|&o| (0..8 * (o + 1)).map(|i| i + o).sum())
                .collect();
            assert_eq!(sums, expected, "threads={threads}");
            let most = high_water.load(Relaxed);
            assert!(
                most <= threads,
                "{most} closures at once, threads={threads}"
            );
            assert_eq!(seats.load(Relaxed), 0, "threads={threads}");
        }
    }

    #[test]
    fn thread_request_is_clamped_to_64() {
        let seats = AtomicIsize::new(0);
        let (inside, high_water) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let items: Vec<u32> = (0..10_000).collect();
        let (out, profile) = map_on(&seats, &items, 10_000, usize::MAX, |&x| {
            tracked(&inside, &high_water, || {
                thread::yield_now();
                x
            })
        });
        assert_eq!(out, items);
        assert_eq!(profile.workers.len(), MAX_WORKERS);
        let most = high_water.load(Relaxed);
        assert!(most <= MAX_WORKERS, "{most} closures at once");
        assert_eq!(seats.load(Relaxed), 0);
    }

    #[test]
    fn panic_propagates() {
        let items: Vec<u32> = (0..100).collect();
        let result = std::panic::catch_unwind(|| {
            parallel_map(&items, 4, |&x| {
                if x == 37 {
                    panic!("boom on {x}");
                }
                x
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn configured_threads_positive() {
        assert!(configured_threads() >= 1);
    }

    #[test]
    fn configured_threads_caps_the_override_and_the_default() {
        assert_eq!(threads_from(Some("5000")), MAX_WORKERS);
        assert_eq!(threads_from(Some(" 3 ")), 3);
        for unusable in [None, Some("0"), Some("-2"), Some("many")] {
            assert_eq!(threads_from(unusable), default_threads().min(MAX_WORKERS));
        }
    }

    #[test]
    fn map_tasks_matches_serial_and_preserves_order() {
        let items: Vec<u64> = (0..500).collect();
        for threads in [1, 2, 8] {
            let (out, profile) = parallel_map_tasks(&items, threads, |x| x * 3);
            let got: Vec<u64> = out.into_iter().map(|r| r.unwrap()).collect();
            let want: Vec<u64> = items.iter().map(|x| x * 3).collect();
            assert_eq!(got, want, "threads={threads}");
            assert_eq!(profile.total_items(), 500);
        }
    }

    #[test]
    fn map_tasks_isolates_panics_per_item() {
        let items: Vec<u32> = (0..100).collect();
        for threads in [1, 4] {
            let (out, _) = parallel_map_tasks(&items, threads, |&x| {
                if x == 13 || x == 77 {
                    panic!("poison item {x}");
                }
                x + 1
            });
            assert_eq!(out.len(), 100);
            for (i, r) in out.iter().enumerate() {
                if i == 13 || i == 77 {
                    let msg = r.as_ref().unwrap_err();
                    assert!(msg.contains("poison item"), "got {msg:?}");
                } else {
                    assert_eq!(*r.as_ref().unwrap(), i as u32 + 1);
                }
            }
        }
    }

    #[test]
    fn map_tasks_escalates_injected_crashes() {
        let items: Vec<u32> = (0..16).collect();
        let result = std::panic::catch_unwind(|| {
            parallel_map_tasks(&items, 2, |&x| {
                if x == 3 {
                    InjectedCrash::die("kill point inside fused op");
                }
                x
            })
        });
        let payload = result.expect_err("InjectedCrash must not be isolated");
        assert!(payload.is::<InjectedCrash>());
    }

    #[test]
    fn map_tasks_slow_item_does_not_stall_siblings() {
        // With chunked claims a slow item strands the rest of its chunk;
        // task-granular claims must let every sibling finish while the slow
        // item is still running. (Seats of its own, as above: without a
        // second thread the straggler comes first whatever the claims are.)
        let seats = AtomicIsize::new(0);
        let items: Vec<u32> = (0..40).collect();
        let done: Mutex<Vec<(u32, Instant)>> = Mutex::new(Vec::new());
        let slow = isolated(|&x: &u32| {
            if x == 0 {
                std::thread::sleep(Duration::from_millis(200));
            }
            done.lock().unwrap().push((x, Instant::now()));
            x
        });
        let (out, _) = map_on(&seats, &items, 2, 1, slow);
        assert_eq!(out.len(), 40);
        let done = done.lock().unwrap();
        let slow_at = done.iter().find(|(x, _)| *x == 0).unwrap().1;
        let stalled = done
            .iter()
            .filter(|(x, at)| *x != 0 && *at > slow_at)
            .count();
        assert_eq!(
            stalled, 0,
            "{stalled} siblings finished after the straggler"
        );
    }
}
