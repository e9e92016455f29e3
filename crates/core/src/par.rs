//! The Dask substitute: a from-scratch data-parallel executor.
//!
//! The paper partitions input "per server and processes servers in parallel"
//! with Dask, winning 3–4.6× over single-threaded execution (Figure 12(b)).
//! Earlier revisions spawned a `std::thread::scope` per call and pulled one
//! index at a time from a shared atomic; this module replaces that with a
//! persistent [`ExecPool`]: long-lived workers, *chunked* ranges (one atomic
//! op and one timing sample per chunk instead of per item), work stealing
//! between participants when a range drains, and results written into a
//! preallocated slot vector instead of flowing through a channel.
//!
//! The caller always participates in its own map. That keeps the pool
//! deadlock-free under nested parallelism (a region-level map whose closure
//! runs an inner per-server map borrows no worker it must then wait for) and
//! means `threads == 1` costs nothing but a serial loop. A caller that has
//! nothing left to claim but whose helpers are still inside spends the wait
//! helping other registered maps, the nested ones of those helpers first of
//! all, so a nested map gets the same threads whoever claimed its parent item.
//! (It follows that a map must not be called with a lock held that another
//! map's closure takes: the helping caller would block on its own lock.)

use seagull_obs::{ParallelProfile, WorkerProfile};
use seagull_telemetry::chaos::InjectedCrash;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// Upper bound on pool threads; requests beyond this share the existing
/// workers (callers still participate, so progress never depends on it).
const MAX_POOL_WORKERS: usize = 64;

/// Target chunks per participant: enough for stealing to level skew, few
/// enough that the per-chunk atomic and `Instant` samples stay amortized.
const CHUNKS_PER_WORKER: usize = 8;

// ---------------------------------------------------------------------------
// Pool plumbing
// ---------------------------------------------------------------------------

struct PoolState {
    /// Maps currently accepting helpers, in registration order.
    jobs: Vec<Arc<JobHandle>>,
    /// Worker threads spawned so far.
    workers: usize,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Workers park here waiting for a job that wants helpers.
    work_cv: Condvar,
    /// Callers park here waiting for their last helper to leave the job, or
    /// for a job they can help with meanwhile.
    done_cv: Condvar,
}

/// A type-erased in-flight `map` that pool workers can join.
///
/// `ctx` points at a stack-allocated `MapCtx` in the calling thread. The
/// deregistration protocol makes the erased borrow sound: the caller removes
/// the job from `PoolState::jobs` and then waits until `active == 0` under
/// the same lock workers use to join, so no worker can observe `ctx` after
/// the caller's frame is released.
struct JobHandle {
    run: unsafe fn(*const ()),
    ctx: *const (),
    /// Helpers this job still accepts (the caller occupies one participant
    /// slot itself).
    helpers_wanted: usize,
    joined: AtomicUsize,
    /// Helpers currently inside `run`.
    active: AtomicUsize,
}

// SAFETY: `ctx` is only dereferenced by workers between registration and
// deregistration, while the referenced `MapCtx` (which is `Sync`) is pinned
// on the caller's stack.
unsafe impl Send for JobHandle {}
unsafe impl Sync for JobHandle {}

/// Cleanup handle: held by `ExecPool` clones only (workers hold just
/// `PoolShared`), so when the last user handle drops the workers are told
/// to exit instead of leaking a cycle.
struct PoolGuard {
    shared: Arc<PoolShared>,
}

impl Drop for PoolGuard {
    fn drop(&mut self) {
        let mut state = self.shared.state.lock().unwrap();
        state.shutdown = true;
        drop(state);
        self.shared.work_cv.notify_all();
    }
}

/// A persistent work-stealing execution pool.
///
/// Cloning is cheap and shares the same workers. Workers are spawned lazily
/// up to the largest `threads` any map has requested (capped at
/// `MAX_POOL_WORKERS`); they survive across calls, so steady-state maps
/// pay no thread spawn/teardown.
#[derive(Clone)]
pub struct ExecPool {
    shared: Arc<PoolShared>,
    _guard: Arc<PoolGuard>,
}

impl ExecPool {
    /// Create a pool. Workers are spawned on demand, so an idle pool costs
    /// nothing beyond the handle.
    pub fn new() -> ExecPool {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                jobs: Vec::new(),
                workers: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        ExecPool {
            _guard: Arc::new(PoolGuard {
                shared: Arc::clone(&shared),
            }),
            shared,
        }
    }

    /// The process-wide shared pool used by [`parallel_map`] /
    /// [`parallel_map_profiled`]. Its workers live for the process.
    pub fn global() -> &'static ExecPool {
        static GLOBAL: OnceLock<ExecPool> = OnceLock::new();
        GLOBAL.get_or_init(ExecPool::new)
    }

    /// Number of worker threads spawned so far (excludes callers).
    pub fn workers_spawned(&self) -> usize {
        self.shared.state.lock().unwrap().workers
    }

    fn ensure_workers(&self, wanted: usize) {
        let wanted = wanted.min(MAX_POOL_WORKERS);
        let mut state = self.shared.state.lock().unwrap();
        while state.workers < wanted {
            let id = state.workers;
            let shared = Arc::clone(&self.shared);
            std::thread::Builder::new()
                .name(format!("seagull-exec-{id}"))
                .spawn(move || worker_loop(shared))
                .expect("spawn pool worker");
            state.workers += 1;
        }
    }

    /// Parallel map preserving input order; see [`parallel_map`].
    pub fn map<T, R, F>(&self, items: &[T], threads: usize, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.map_profiled(items, threads, f).0
    }

    /// Parallel map returning a per-participant [`ParallelProfile`]; see
    /// [`parallel_map_profiled`].
    pub fn map_profiled<T, R, F>(
        &self,
        items: &[T],
        threads: usize,
        f: F,
    ) -> (Vec<R>, ParallelProfile)
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let chunk = chunk_size(items.len(), threads.max(1).min(items.len().max(1)));
        self.map_with_chunk(items, threads, chunk, f)
    }

    /// Task-granular parallel map with per-item panic isolation: every item
    /// is its own schedulable unit (`chunk == 1`, so a slow item never
    /// strands queue-mates behind it in a claimed chunk) and a panic inside
    /// `f` poisons only that item's slot, surfacing as `Err(panic message)`
    /// instead of aborting the whole map.
    ///
    /// This is the scheduling primitive behind the pipeline's fused
    /// per-server dataflow operators: server-sized tasks with skewed costs,
    /// where one pathological server must neither stall nor kill its
    /// siblings. [`InjectedCrash`] panics (chaos kill points simulating
    /// process death) are *not* isolated — they resume unwinding so recovery
    /// tests still observe a crash.
    pub fn map_tasks<T, R, F>(
        &self,
        items: &[T],
        threads: usize,
        f: F,
    ) -> (Vec<Result<R, String>>, ParallelProfile)
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.map_with_chunk(items, threads, 1, move |item| {
            match catch_unwind(AssertUnwindSafe(|| f(item))) {
                Ok(r) => Ok(r),
                Err(payload) => {
                    if payload.is::<InjectedCrash>() {
                        resume_unwind(payload);
                    }
                    Err(panic_message(payload.as_ref()))
                }
            }
        })
    }

    fn map_with_chunk<T, R, F>(
        &self,
        items: &[T],
        threads: usize,
        chunk: usize,
        f: F,
    ) -> (Vec<R>, ParallelProfile)
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let threads = threads.max(1).min(items.len().max(1));
        let region_start = Instant::now();
        if threads == 1 {
            let out: Vec<R> = items.iter().map(&f).collect();
            let busy = region_start.elapsed();
            let profile = ParallelProfile {
                workers: vec![WorkerProfile {
                    worker: 0,
                    items: items.len() as u64,
                    busy,
                    idle: Duration::ZERO,
                }],
                region_wall: region_start.elapsed(),
            };
            return (out, profile);
        }
        assert!(
            items.len() < u32::MAX as usize,
            "parallel_map supports up to 2^32-1 items"
        );

        let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
        let ctx = MapCtx {
            items,
            f: &f,
            slots: SlotPtr(slots.as_mut_ptr()),
            ranges: partition_ranges(items.len(), threads),
            chunk,
            next_ordinal: AtomicUsize::new(0),
            abort: AtomicBool::new(false),
            profiles: Mutex::new(Vec::with_capacity(threads)),
            panic: Mutex::new(None),
        };
        let job = Arc::new(JobHandle {
            run: run_erased::<T, R, F>,
            ctx: &ctx as *const MapCtx<'_, T, R, F> as *const (),
            helpers_wanted: threads - 1,
            joined: AtomicUsize::new(0),
            active: AtomicUsize::new(0),
        });

        self.ensure_workers(threads - 1);
        {
            let mut state = self.shared.state.lock().unwrap();
            state.jobs.push(Arc::clone(&job));
        }
        self.shared.work_cv.notify_all();
        self.shared.done_cv.notify_all();

        // The caller is always a participant: progress never depends on a
        // pool worker being free.
        participant_run(&ctx);

        // Deregister, then wait for helpers still inside `run`. After this
        // block no worker holds a reference into `ctx` or `slots`.
        //
        // A helper still inside may itself be the caller of a nested map
        // (a region's per-server fan-out under the region-level map). The
        // wait is spent helping there, as an idle pool worker would: without
        // it, whether the last and largest item ran on one thread or on all
        // of them hung on which participant happened to claim it.
        {
            let mut state = self.shared.state.lock().unwrap();
            state.jobs.retain(|j| !Arc::ptr_eq(j, &job));
            while job.active.load(Ordering::Acquire) > 0 {
                let (relocked, helped) = help_one(&self.shared, state);
                state = relocked;
                if !helped {
                    state = self.shared.done_cv.wait(state).unwrap();
                }
            }
        }

        if let Some(payload) = ctx.panic.lock().unwrap().take() {
            resume_unwind(payload);
        }

        let out: Vec<R> = slots
            .into_iter()
            .map(|s| s.expect("every index produced exactly one result"))
            .collect();

        let region_wall = region_start.elapsed();
        let mut workers = ctx.profiles.into_inner().unwrap();
        // Participant slots no helper reached in time report zero work and
        // full-region idle, keeping `workers.len()` (and the stable
        // `seagull_parallel_workers` gauge) deterministic at `threads`.
        for ordinal in workers.len()..threads {
            workers.push(WorkerProfile {
                worker: ordinal,
                items: 0,
                busy: Duration::ZERO,
                idle: region_wall,
            });
        }
        workers.sort_by_key(|w| w.worker);
        (
            out,
            ParallelProfile {
                workers,
                region_wall,
            },
        )
    }
}

impl Default for ExecPool {
    fn default() -> Self {
        ExecPool::new()
    }
}

/// Joins the first registered job that still accepts a helper and runs it
/// until nothing is left to claim. Takes and returns the state lock; `false`
/// means no job wanted help and nothing ran.
fn help_one<'a>(
    shared: &'a PoolShared,
    state: MutexGuard<'a, PoolState>,
) -> (MutexGuard<'a, PoolState>, bool) {
    let job = state
        .jobs
        .iter()
        .find(|j| j.joined.load(Ordering::Relaxed) < j.helpers_wanted)
        .map(Arc::clone);
    let Some(job) = job else {
        return (state, false);
    };
    // Both counters move under the state lock, synchronizing with
    // deregistration in `map_with_chunk`.
    job.joined.fetch_add(1, Ordering::Relaxed);
    job.active.fetch_add(1, Ordering::Release);
    drop(state);
    // SAFETY: the job was found registered under the lock, so its caller is
    // still pinned waiting for `active == 0`.
    unsafe { (job.run)(job.ctx) };
    let state = shared.state.lock().unwrap();
    if job.active.fetch_sub(1, Ordering::Release) == 1 {
        shared.done_cv.notify_all();
    }
    (state, true)
}

fn worker_loop(shared: Arc<PoolShared>) {
    let mut state = shared.state.lock().unwrap();
    while !state.shutdown {
        let (relocked, helped) = help_one(&shared, state);
        state = relocked;
        if !helped {
            state = shared.work_cv.wait(state).unwrap();
        }
    }
}

// ---------------------------------------------------------------------------
// Per-map context
// ---------------------------------------------------------------------------

struct SlotPtr<R>(*mut Option<R>);
// SAFETY: disjoint indices are written by exactly one participant each (a
// chunk is claimed by CAS before being processed), and the owning Vec is not
// touched until all participants have left.
unsafe impl<R: Send> Send for SlotPtr<R> {}
unsafe impl<R: Send> Sync for SlotPtr<R> {}

struct MapCtx<'a, T, R, F> {
    items: &'a [T],
    f: &'a F,
    slots: SlotPtr<R>,
    /// One packed `(start, end)` range per participant slot.
    ranges: Vec<AtomicU64>,
    chunk: usize,
    next_ordinal: AtomicUsize,
    abort: AtomicBool,
    profiles: Mutex<Vec<WorkerProfile>>,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

fn pack(start: u32, end: u32) -> u64 {
    ((start as u64) << 32) | end as u64
}

fn unpack(v: u64) -> (usize, usize) {
    ((v >> 32) as usize, (v & 0xffff_ffff) as usize)
}

fn partition_ranges(len: usize, participants: usize) -> Vec<AtomicU64> {
    let base = len / participants;
    let extra = len % participants;
    let mut start = 0usize;
    (0..participants)
        .map(|p| {
            let size = base + usize::from(p < extra);
            let range = AtomicU64::new(pack(start as u32, (start + size) as u32));
            start += size;
            range
        })
        .collect()
}

fn chunk_size(len: usize, participants: usize) -> usize {
    len.div_ceil(participants * CHUNKS_PER_WORKER).max(1)
}

/// Renders a caught panic payload for the `Err` side of [`ExecPool::map_tasks`].
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Claim the next chunk for `ordinal`: drain the own range from the front,
/// then steal from the *back* of sibling ranges (stealing from the opposite
/// end keeps the owner and the thief off the same cache lines until the
/// range is nearly empty).
fn claim_chunk<T, R, F>(ctx: &MapCtx<'_, T, R, F>, ordinal: usize) -> Option<(usize, usize)> {
    let n = ctx.ranges.len();
    for offset in 0..n {
        let victim = (ordinal + offset) % n;
        let range = &ctx.ranges[victim];
        let mut cur = range.load(Ordering::Acquire);
        loop {
            let (start, end) = unpack(cur);
            if start >= end {
                break;
            }
            let (next, claimed) = if offset == 0 {
                let ns = (start + ctx.chunk).min(end);
                (pack(ns as u32, end as u32), (start, ns))
            } else {
                let ne = end.saturating_sub(ctx.chunk).max(start);
                (pack(start as u32, ne as u32), (ne, end))
            };
            match range.compare_exchange_weak(cur, next, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => return Some(claimed),
                Err(actual) => cur = actual,
            }
        }
    }
    None
}

fn participant_run<T, R, F>(ctx: &MapCtx<'_, T, R, F>)
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let started = Instant::now();
    let ordinal = ctx.next_ordinal.fetch_add(1, Ordering::Relaxed);
    if ordinal >= ctx.ranges.len() {
        // More helpers woke than participant slots; nothing to claim.
        return;
    }
    let mut busy = Duration::ZERO;
    let mut count = 0u64;
    let result = catch_unwind(AssertUnwindSafe(|| {
        while !ctx.abort.load(Ordering::Relaxed) {
            let Some((start, end)) = claim_chunk(ctx, ordinal) else {
                break;
            };
            // One timing sample per chunk: sub-microsecond closures no
            // longer report mostly `Instant::now` overhead.
            let chunk_start = Instant::now();
            for i in start..end {
                let r = (ctx.f)(&ctx.items[i]);
                // SAFETY: index `i` belongs to a chunk claimed exclusively
                // by this participant; each slot is written at most once.
                unsafe { *ctx.slots.0.add(i) = Some(r) };
            }
            busy += chunk_start.elapsed();
            count += (end - start) as u64;
        }
    }));
    if let Err(payload) = result {
        ctx.abort.store(true, Ordering::Relaxed);
        let mut slot = ctx.panic.lock().unwrap();
        if slot.is_none() {
            *slot = Some(payload);
        }
    }
    ctx.profiles.lock().unwrap().push(WorkerProfile {
        worker: ordinal,
        items: count,
        busy,
        idle: started.elapsed().saturating_sub(busy),
    });
}

/// Monomorphic entry point stored in the type-erased [`JobHandle`].
///
/// # Safety
/// `ctx` must point at a live `MapCtx<T, R, F>` (guaranteed by the
/// registration/deregistration protocol in [`ExecPool::map_profiled`]).
unsafe fn run_erased<T, R, F>(ctx: *const ())
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    participant_run(&*(ctx as *const MapCtx<'_, T, R, F>));
}

// ---------------------------------------------------------------------------
// Free-function API (thin wrappers over the global pool)
// ---------------------------------------------------------------------------

/// Parallel map preserving input order.
///
/// ```
/// use seagull_core::par::parallel_map;
/// let squares = parallel_map(&[1u64, 2, 3, 4], 2, |x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
///
/// Runs on the process-wide [`ExecPool`] with up to `threads` participants
/// (at least one; one means serial-on-this-thread). `f` runs once per item;
/// a panic in any participant propagates after in-flight chunks finish.
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    ExecPool::global().map(items, threads, f)
}

/// [`parallel_map`] with a per-participant [`ParallelProfile`]: items
/// pulled, busy wall time inside the closure (sampled per chunk), and
/// steal-idle time (alive but without work: every range drained while
/// siblings were still running).
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
    ExecPool::global().map_profiled(items, threads, f)
}

/// [`ExecPool::map_tasks`] on the process-wide pool: task-granular claims
/// (one item per chunk) with per-item panic isolation. Used by the fused
/// dataflow pipeline so a poison or straggler server affects only itself.
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
    ExecPool::global().map_tasks(items, threads, f)
}

/// The default worker count: available parallelism, as Dask defaults to the
/// machine's cores.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// The worker count the pipeline and bench bins should use: the
/// `SEAGULL_THREADS` env override when set to a positive integer, else
/// [`default_threads`] capped at `MAX_POOL_WORKERS`.
pub fn configured_threads() -> usize {
    match std::env::var("SEAGULL_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
    {
        Some(n) if n >= 1 => n,
        _ => default_threads().min(MAX_POOL_WORKERS),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        use std::sync::Mutex;
        let seen = Mutex::new(HashSet::new());
        let items: Vec<u32> = (0..64).collect();
        parallel_map(&items, 4, |_| {
            std::thread::sleep(std::time::Duration::from_millis(1));
            seen.lock().unwrap().insert(std::thread::current().id());
        });
        assert!(seen.lock().unwrap().len() > 1);
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
    fn pool_workers_persist_across_maps() {
        let pool = ExecPool::new();
        let items: Vec<u32> = (0..256).collect();
        pool.map(&items, 4, |x| x + 1);
        let after_first = pool.workers_spawned();
        assert!(after_first >= 3, "pool spawned {after_first} workers");
        pool.map(&items, 4, |x| x + 2);
        assert_eq!(
            pool.workers_spawned(),
            after_first,
            "second map reuses workers instead of spawning"
        );
    }

    #[test]
    fn nested_maps_complete() {
        let outer: Vec<u32> = (0..8).collect();
        let pool = ExecPool::new();
        let sums = pool.map(&outer, 4, |&o| {
            let inner: Vec<u32> = (0..64).map(|i| i + o).collect();
            pool.map(&inner, 4, |x| x * 2).iter().sum::<u32>()
        });
        let expected: Vec<u32> = outer
            .iter()
            .map(|&o| (0..64).map(|i| (i + o) * 2).sum())
            .collect();
        assert_eq!(sums, expected);
    }

    #[test]
    fn waiting_caller_helps_a_nested_map() {
        // One pool worker. The caller's own item ends only once the worker
        // has item 1, whose nested map sees two threads inside it together
        // only if the caller, waiting for the worker to leave the outer map,
        // comes to help.
        let pool = ExecPool::new();
        let worker_has_item = AtomicBool::new(false);
        let inside = AtomicUsize::new(0);
        let out = pool.map(&[0u32, 1], 2, |&item| {
            if item == 0 {
                while !worker_has_item.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                return true;
            }
            worker_has_item.store(true, Ordering::Release);
            let met = pool.map(&[(); 2], 2, |()| {
                inside.fetch_add(1, Ordering::AcqRel);
                let began = Instant::now();
                while inside.load(Ordering::Acquire) < 2 {
                    if began.elapsed() > Duration::from_secs(5) {
                        return false;
                    }
                    std::thread::yield_now();
                }
                true
            });
            met == [true, true]
        });
        assert_eq!(out, [true, true], "the nested map ran on one thread");
        assert_eq!(pool.workers_spawned(), 1);
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
        use std::sync::Mutex;
        use std::time::Instant;
        // With chunked claims a slow item strands the rest of its chunk;
        // task-granular claims must let every sibling finish while the slow
        // item is still running.
        let items: Vec<u32> = (0..40).collect();
        let done: Mutex<Vec<(u32, Instant)>> = Mutex::new(Vec::new());
        let (out, _) = ExecPool::global().map_tasks(&items, 2, |&x| {
            if x == 0 {
                std::thread::sleep(Duration::from_millis(200));
            }
            done.lock().unwrap().push((x, Instant::now()));
            x
        });
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
