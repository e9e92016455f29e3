//! Deterministic fault injection for blob storage.
//!
//! The paper's incident catalogue — "missing or invalid input data, errors or
//! exceptions in any step of the pipeline, and failed model deployment"
//! (Section 2.2) — starts at the storage layer. [`ChaosBlobStore`] decorates
//! any [`BlobStore`] with seeded, reproducible faults so the resilience
//! machinery in `seagull-core` can be driven through realistic failure
//! schedules in tests and experiments:
//!
//! * **transient faults** — an op fails with a timeout; the next attempt may
//!   succeed (the retry-policy case),
//! * **torn reads** — a `get` returns a truncated prefix of the blob (the
//!   mid-write-crash case the pipeline must not parse as valid input),
//! * **sustained outages** — every op against one `(kind, region)` key-space
//!   slice fails until the slice is healed (the circuit-breaker case).
//!
//! * **crashes** — at an armed [`CrashPoint`] the store simulates process
//!   death: a `put` leaves only a strict prefix of the blob durable, the op
//!   panics with an [`InjectedCrash`] payload, and every later op on the
//!   same store panics too (the process is dead). The recovery harness
//!   catches the unwind, rebuilds the stack over the surviving inner store,
//!   and asserts restart recovery (DESIGN.md §12).
//!
//! Every decision comes from one seeded [`DetRng`] stream consumed in op
//! order, so a fixed seed reproduces a byte-identical fault schedule
//! ([`ChaosBlobStore::schedule_log`]) run after run. Crash checks consume no
//! randomness, so arming a crash never shifts the fault schedule.

use crate::blobstore::{Blob, BlobKey, BlobStore};
use seagull_obs::Registry;
use std::collections::BTreeSet;
use std::fmt;
use std::io;
use std::sync::{Arc, Mutex, PoisonError};

/// A minimal deterministic RNG (SplitMix64): the stream behind every fault
/// schedule. Fleets draw from `seagull_timeseries::rng::ChaCha8`; a fault
/// schedule keeps this one-word stream of its own, so this file alone pins
/// it.
#[derive(Debug, Clone)]
pub struct DetRng {
    state: u64,
}

impl DetRng {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> DetRng {
        DetRng { state: seed }
    }

    /// Next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Fault-injection parameters. All probabilities are per operation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ChaosConfig {
    /// Seed of the fault schedule.
    pub seed: u64,
    /// Probability an op fails with a retryable timeout.
    pub transient_fault_prob: f64,
    /// Probability a `get` returns a truncated prefix of the blob.
    pub torn_read_prob: f64,
}

/// Operation and fault counters for assertions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChaosStats {
    /// Operations attempted against the store.
    pub ops: u64,
    /// Total injected faults (transient + torn + outage rejections).
    pub faults: u64,
    /// Ops failed with a retryable timeout.
    pub transient_faults: u64,
    /// `get`s that returned a truncated prefix.
    pub torn_reads: u64,
    /// Ops rejected by a sustained outage.
    pub outage_rejections: u64,
    /// Crash points fired (0 or 1 per store lifetime).
    pub crashes: u64,
}

/// When an armed crash fires, relative to the store's op stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CrashSpec {
    /// Die on the op with this 0-based index in the store's op stream.
    AtOp(u64),
    /// Die on the `nth` (1-based) op whose key display contains `fragment`.
    /// Targets semantic boundaries — e.g. `fragment: "journal"` with
    /// `nth: 1` dies on the first journal write of a run.
    OnKey {
        /// Substring matched against the op's key display.
        fragment: String,
        /// Which match fires (1-based).
        nth: u64,
    },
}

/// An armed kill-point: where the simulated process death happens and how
/// much of an in-flight `put` survives.
#[derive(Debug, Clone, PartialEq)]
pub struct CrashPoint {
    /// When to die.
    pub spec: CrashSpec,
    /// For a `put` at the crash point: fraction of the payload made durable
    /// before death, clamped to `[0, 1]`. Values below 1 leave a strict
    /// prefix (a torn write the readers must reject); 1.0 means the write
    /// completed and the process died just after.
    pub torn_frac: f64,
}

impl CrashPoint {
    /// A crash at op index `at` that tears an in-flight `put` at `torn_frac`.
    pub fn at_op(at: u64, torn_frac: f64) -> CrashPoint {
        CrashPoint {
            spec: CrashSpec::AtOp(at),
            torn_frac,
        }
    }

    /// A crash on the `nth` (1-based) op whose key contains `fragment`.
    pub fn on_key(fragment: impl Into<String>, nth: u64, torn_frac: f64) -> CrashPoint {
        CrashPoint {
            spec: CrashSpec::OnKey {
                fragment: fragment.into(),
                nth,
            },
            torn_frac,
        }
    }
}

/// Panic payload carried by a simulated process death, from either a
/// [`ChaosBlobStore`] crash point or a stage kill-point in `seagull-core`.
/// Harnesses `catch_unwind` and downcast to this type to distinguish an
/// injected crash from a genuine bug.
#[derive(Debug, Clone)]
pub struct InjectedCrash {
    /// Where the process died, for logs and assertions.
    pub context: String,
}

impl fmt::Display for InjectedCrash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "injected crash at {}", self.context)
    }
}

impl InjectedCrash {
    /// Simulates process death by panicking with this payload.
    pub fn die(context: impl Into<String>) -> ! {
        std::panic::panic_any(InjectedCrash {
            context: context.into(),
        })
    }
}

struct ChaosState {
    rng: DetRng,
    stats: ChaosStats,
    /// Sliced sustained outages, keyed by `(kind, region)`.
    outages: BTreeSet<(String, String)>,
    /// One line per injected fault, in op order.
    log: Vec<String>,
    /// Armed kill-point, if any.
    crash: Option<CrashPoint>,
    /// `OnKey` matches seen so far.
    crash_key_matches: u64,
    /// Set once a crash fires; every later op dies too.
    crashed: bool,
}

/// The decision taken for one operation.
enum Injection {
    /// Proceed; `torn_frac` is the truncation point for a torn read.
    Proceed { torn_frac: Option<f64> },
    /// Fail the op with this error.
    Fail(io::Error),
    /// Simulated process death: tear an in-flight `put` at `torn_frac`,
    /// then panic with [`InjectedCrash`].
    Crash { torn_frac: f64 },
}

/// A [`BlobStore`] decorator that injects seeded, reproducible faults.
pub struct ChaosBlobStore {
    inner: Arc<dyn BlobStore>,
    config: ChaosConfig,
    state: Mutex<ChaosState>,
}

impl ChaosBlobStore {
    /// Wraps a store with the given fault configuration.
    pub fn new(inner: Arc<dyn BlobStore>, config: ChaosConfig) -> ChaosBlobStore {
        ChaosBlobStore {
            inner,
            state: Mutex::new(ChaosState {
                rng: DetRng::new(config.seed),
                stats: ChaosStats::default(),
                outages: BTreeSet::new(),
                log: Vec::new(),
                crash: None,
                crash_key_matches: 0,
                crashed: false,
            }),
            config,
        }
    }

    /// Starts a sustained outage: every op touching `(kind, region)` fails
    /// until [`ChaosBlobStore::clear_outage`].
    pub fn set_outage(&self, kind: &str, region: &str) {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .outages
            .insert((kind.to_string(), region.to_string()));
    }

    /// Heals a sustained outage; returns whether one was active.
    pub fn clear_outage(&self, kind: &str, region: &str) -> bool {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .outages
            .remove(&(kind.to_string(), region.to_string()))
    }

    /// Arms a kill-point. At most one is armed at a time; arming replaces
    /// any previous point and resets the `OnKey` match counter.
    pub fn arm_crash(&self, point: CrashPoint) {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        st.crash = Some(point);
        st.crash_key_matches = 0;
    }

    /// True once a crash point has fired; the store is "dead" and every
    /// further op panics with [`InjectedCrash`].
    pub fn crashed(&self) -> bool {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .crashed
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ChaosStats {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .stats
    }

    /// The fault schedule so far: one line per injected fault, in op order.
    /// Byte-identical across runs with the same seed and op sequence.
    pub fn schedule_log(&self) -> String {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .log
            .join("\n")
    }

    /// Mirrors the op/fault counters into `registry`. Idempotent: each
    /// counter is overwritten with the current cumulative total, so
    /// exporting after every pipeline run never double-counts. With a fixed
    /// seed and op sequence every exported value is deterministic.
    pub fn export_metrics(&self, registry: &Registry) {
        let stats = self.stats();
        let set = |name: &str, v: u64| registry.counter(name, &[]).store(v);
        set("seagull_chaos_ops_total", stats.ops);
        set("seagull_chaos_faults_total", stats.faults);
        set(
            "seagull_chaos_transient_faults_total",
            stats.transient_faults,
        );
        set("seagull_chaos_torn_reads_total", stats.torn_reads);
        set(
            "seagull_chaos_outage_rejections_total",
            stats.outage_rejections,
        );
        set("seagull_chaos_crashes_total", stats.crashes);
        registry.gauge("seagull_chaos_active_outages", &[]).set(
            self.state
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .outages
                .len() as f64,
        );
    }

    /// Rolls the fault dice for one op. The roll order per op is fixed
    /// (transient, then torn for reads) so schedules stay aligned across
    /// runs.
    fn inject(&self, op: &str, kind: &str, region: &str, key: &str, read: bool) -> Injection {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let op_index = st.stats.ops;
        st.stats.ops += 1;
        if st.crashed {
            drop(st);
            InjectedCrash::die(format!("{op} {key} (store already crashed)"));
        }
        let fire = match st.crash.clone() {
            None => false,
            Some(cp) => match cp.spec {
                CrashSpec::AtOp(at) => op_index == at,
                CrashSpec::OnKey { ref fragment, nth } => {
                    if key.contains(fragment.as_str()) {
                        st.crash_key_matches += 1;
                        st.crash_key_matches == nth
                    } else {
                        false
                    }
                }
            },
        };
        if fire {
            let torn_frac = st.crash.as_ref().map(|c| c.torn_frac).unwrap_or(0.0);
            st.crashed = true;
            st.stats.crashes += 1;
            st.log.push(format!("#{op_index} {op} {key}: crash"));
            return Injection::Crash {
                torn_frac: torn_frac.clamp(0.0, 1.0),
            };
        }
        if st.outages.contains(&(kind.to_string(), region.to_string())) {
            st.stats.faults += 1;
            st.stats.outage_rejections += 1;
            st.log.push(format!("#{op_index} {op} {key}: outage"));
            return Injection::Fail(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                format!("injected sustained outage for {kind}/{region}"),
            ));
        }
        if self.config.transient_fault_prob > 0.0
            && st.rng.next_f64() < self.config.transient_fault_prob
        {
            st.stats.faults += 1;
            st.stats.transient_faults += 1;
            st.log.push(format!("#{op_index} {op} {key}: transient"));
            return Injection::Fail(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("injected transient fault on {op} {key}"),
            ));
        }
        let mut torn_frac = None;
        if read
            && self.config.torn_read_prob > 0.0
            && st.rng.next_f64() < self.config.torn_read_prob
        {
            st.stats.faults += 1;
            st.stats.torn_reads += 1;
            let frac = st.rng.next_f64();
            st.log
                .push(format!("#{op_index} {op} {key}: torn({frac:.6})"));
            torn_frac = Some(frac);
        }
        Injection::Proceed { torn_frac }
    }
}

impl fmt::Debug for ChaosBlobStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        f.debug_struct("ChaosBlobStore")
            .field("config", &self.config)
            .field("stats", &st.stats)
            .field("outages", &st.outages)
            .finish()
    }
}

impl BlobStore for ChaosBlobStore {
    fn put(&self, key: &BlobKey, data: Blob) -> io::Result<()> {
        match self.inject("put", &key.kind, &key.region, &key.to_string(), false) {
            Injection::Fail(e) => Err(e),
            Injection::Proceed { .. } => self.inner.put(key, data),
            Injection::Crash { torn_frac } => {
                // The process dies mid-write: only a prefix of the payload
                // reaches the inner store (at torn_frac = 1.0, all of it).
                let cut = ((data.len() as f64) * torn_frac) as usize;
                let cut = cut.min(data.len());
                if cut > 0 {
                    let _ = self.inner.put(key, data.slice(0..cut));
                }
                InjectedCrash::die(format!("put {key} ({cut}/{} bytes durable)", data.len()));
            }
        }
    }

    fn get(&self, key: &BlobKey) -> io::Result<Blob> {
        match self.inject("get", &key.kind, &key.region, &key.to_string(), true) {
            Injection::Fail(e) => Err(e),
            Injection::Crash { .. } => InjectedCrash::die(format!("get {key}")),
            Injection::Proceed { torn_frac } => {
                let data = self.inner.get(key)?;
                match torn_frac {
                    Some(frac) if !data.is_empty() => {
                        // frac < 1, so the prefix is strictly shorter.
                        let cut = (data.len() as f64 * frac) as usize;
                        Ok(data.slice(0..cut))
                    }
                    _ => Ok(data),
                }
            }
        }
    }

    fn size(&self, key: &BlobKey) -> io::Result<u64> {
        match self.inject("size", &key.kind, &key.region, &key.to_string(), false) {
            Injection::Fail(e) => Err(e),
            Injection::Crash { .. } => InjectedCrash::die(format!("size {key}")),
            Injection::Proceed { .. } => self.inner.size(key),
        }
    }

    fn list(&self, kind: &str) -> io::Result<Vec<BlobKey>> {
        // Lists span regions, so only transient faults apply ("*" matches no
        // sliced outage).
        match self.inject("list", kind, "*", kind, false) {
            Injection::Fail(e) => Err(e),
            Injection::Crash { .. } => InjectedCrash::die(format!("list {kind}")),
            Injection::Proceed { .. } => self.inner.list(kind),
        }
    }

    fn delete(&self, key: &BlobKey) -> io::Result<bool> {
        match self.inject("delete", &key.kind, &key.region, &key.to_string(), false) {
            Injection::Fail(e) => Err(e),
            Injection::Crash { .. } => InjectedCrash::die(format!("delete {key}")),
            Injection::Proceed { .. } => self.inner.delete(key),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blobstore::MemoryBlobStore;

    fn chaos(config: ChaosConfig) -> ChaosBlobStore {
        ChaosBlobStore::new(Arc::new(MemoryBlobStore::new()), config)
    }

    #[test]
    fn no_faults_is_a_passthrough() {
        let store = chaos(ChaosConfig::default());
        let k = BlobKey::extracted("west", 100);
        store.put(&k, Blob::from(&b"hello"[..])).unwrap();
        assert_eq!(&store.get(&k).unwrap()[..], b"hello");
        assert_eq!(store.size(&k).unwrap(), 5);
        assert_eq!(store.list("extracted").unwrap(), vec![k.clone()]);
        assert!(store.delete(&k).unwrap());
        let stats = store.stats();
        assert_eq!(stats.ops, 5);
        assert_eq!(stats.faults, 0);
        assert!(store.schedule_log().is_empty());
    }

    #[test]
    fn same_seed_same_schedule() {
        let run = || {
            let store = chaos(ChaosConfig {
                seed: 42,
                transient_fault_prob: 0.4,
                torn_read_prob: 0.3,
            });
            let k = BlobKey::extracted("west", 100);
            let _ = store.put(&k, Blob::from(&b"0123456789"[..]));
            for _ in 0..50 {
                let _ = store.get(&k);
            }
            (store.schedule_log(), store.stats())
        };
        let (log_a, stats_a) = run();
        let (log_b, stats_b) = run();
        assert_eq!(log_a, log_b);
        assert_eq!(stats_a, stats_b);
        assert!(stats_a.faults > 0, "40% fault rate over 51 ops must fire");
    }

    #[test]
    fn different_seed_different_schedule() {
        let run = |seed| {
            let store = chaos(ChaosConfig {
                seed,
                transient_fault_prob: 0.5,
                ..ChaosConfig::default()
            });
            let k = BlobKey::extracted("west", 100);
            for _ in 0..64 {
                let _ = store.get(&k);
            }
            store.schedule_log()
        };
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn sustained_outage_is_sliced_and_healable() {
        let store = chaos(ChaosConfig::default());
        let west = BlobKey::extracted("west", 100);
        let east = BlobKey::extracted("east", 100);
        store.put(&west, Blob::from(&b"w"[..])).unwrap();
        store.put(&east, Blob::from(&b"e"[..])).unwrap();

        store.set_outage("extracted", "west");
        let err = store.get(&west).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused);
        assert!(store.put(&west, Blob::from(&b"x"[..])).is_err());
        // The other region's slice is unaffected.
        assert_eq!(&store.get(&east).unwrap()[..], b"e");

        assert!(store.clear_outage("extracted", "west"));
        assert!(!store.clear_outage("extracted", "west"));
        assert_eq!(&store.get(&west).unwrap()[..], b"w");
        assert!(store.stats().outage_rejections >= 2);
    }

    #[test]
    fn torn_reads_truncate_strictly() {
        let store = chaos(ChaosConfig {
            seed: 7,
            torn_read_prob: 1.0,
            ..ChaosConfig::default()
        });
        let k = BlobKey::extracted("west", 100);
        store
            .put(&k, Blob::from(&b"full blob contents"[..]))
            .unwrap();
        for _ in 0..10 {
            let got = store.get(&k).unwrap();
            assert!(got.len() < 18, "torn read must be a strict prefix");
            assert_eq!(&got[..], &b"full blob contents"[..got.len()]);
        }
        assert_eq!(store.stats().torn_reads, 10);
    }

    #[test]
    fn export_metrics_is_idempotent() {
        let store = chaos(ChaosConfig {
            seed: 7,
            transient_fault_prob: 0.5,
            ..ChaosConfig::default()
        });
        let k = BlobKey::extracted("west", 100);
        for _ in 0..20 {
            let _ = store.get(&k);
        }
        store.set_outage("extracted", "west");
        let registry = Registry::new();
        store.export_metrics(&registry);
        store.export_metrics(&registry);
        let stats = store.stats();
        assert_eq!(
            registry.counter("seagull_chaos_ops_total", &[]).get(),
            stats.ops,
            "repeated export must not double-count"
        );
        assert_eq!(
            registry
                .counter("seagull_chaos_transient_faults_total", &[])
                .get(),
            stats.transient_faults
        );
        assert_eq!(
            registry.gauge("seagull_chaos_active_outages", &[]).get(),
            1.0
        );
    }

    #[test]
    fn crash_at_op_tears_the_put_and_kills_the_store() {
        let inner = Arc::new(MemoryBlobStore::new());
        let store = ChaosBlobStore::new(inner.clone(), ChaosConfig::default());
        let k = BlobKey::extracted("west", 100);
        store.put(&k, Blob::from(&b"full"[..])).unwrap();
        // Op #1 is the next put; half the payload survives.
        store.arm_crash(CrashPoint::at_op(1, 0.5));
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            store.put(&k, Blob::from(&b"replacement"[..]))
        }))
        .unwrap_err();
        let crash = died
            .downcast::<InjectedCrash>()
            .expect("InjectedCrash payload");
        assert!(crash.context.contains("put"), "context: {}", crash.context);
        assert!(store.crashed());
        assert_eq!(store.stats().crashes, 1);
        // The inner store holds a strict prefix of the torn write.
        let durable = inner.get(&k).unwrap();
        assert_eq!(&durable[..], &b"replacement"[..5]);
        // The dead store refuses every further op by dying again.
        let again = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| store.get(&k)));
        assert!(again.is_err());
    }

    #[test]
    fn crash_on_key_targets_the_nth_match() {
        let inner = Arc::new(MemoryBlobStore::new());
        let store = ChaosBlobStore::new(inner.clone(), ChaosConfig::default());
        store.arm_crash(CrashPoint::on_key("journal", 2, 0.0));
        let journal = BlobKey {
            kind: "journal".into(),
            region: "deploys".into(),
            week: 0,
        };
        let other = BlobKey::extracted("west", 100);
        store.put(&other, Blob::from(&b"safe"[..])).unwrap();
        store.put(&journal, Blob::from(&b"one"[..])).unwrap();
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            store.put(&journal, Blob::from(&b"two"[..]))
        }));
        assert!(died.is_err());
        // torn_frac 0: nothing of the dying write landed.
        assert_eq!(&inner.get(&journal).unwrap()[..], b"one");
    }

    #[test]
    fn arming_a_crash_does_not_shift_the_fault_schedule() {
        let run = |crash: Option<CrashPoint>| {
            let store = chaos(ChaosConfig {
                seed: 11,
                transient_fault_prob: 0.3,
                ..ChaosConfig::default()
            });
            if let Some(cp) = crash {
                store.arm_crash(cp);
            }
            let k = BlobKey::extracted("west", 100);
            for _ in 0..30 {
                let _ = store.get(&k);
            }
            store.schedule_log()
        };
        // A crash armed far beyond the op count never fires and leaves the
        // transient schedule byte-identical.
        assert_eq!(run(None), run(Some(CrashPoint::at_op(10_000, 0.5))));
    }

    #[test]
    fn det_rng_is_deterministic_and_uniformish() {
        let mut a = DetRng::new(99);
        let mut b = DetRng::new(99);
        let mut sum = 0.0;
        for _ in 0..1000 {
            let x = a.next_f64();
            assert_eq!(x, b.next_f64());
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        assert!((sum / 1000.0 - 0.5).abs() < 0.05, "mean {}", sum / 1000.0);
    }
}
