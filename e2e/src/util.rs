//! Local helpers: digest, quantiles, a log-bucket latency histogram, peak
//! RSS. Kept here so the harness depends on nothing but the seagull crates
//! and `serde_json`.

use serde_json::{Map, Value};
use std::time::Duration;

/// A JSON object from its members.
pub fn object<const N: usize>(members: [(&str, Value); N]) -> Value {
    Value::from(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect::<Map>(),
    )
}

/// FNV-1a, 64 bit: the correctness oracle's digest.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn i64(&mut self, v: i64) {
        self.u64(v as u64);
    }

    pub fn f64s(&mut self, values: &[f64]) {
        for v in values {
            self.u64(v.to_bits());
        }
    }
}

/// The `q` quantile of `values` by linear interpolation between order
/// statistics (Python's `statistics.quantiles(..., method="inclusive")`).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let below = pos.floor() as usize;
    let above = (below + 1).min(sorted.len() - 1);
    sorted[below] + (sorted[above] - sorted[below]) * (pos - below as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The mean of `values` without their lowest and highest tenth; the median
/// below five values.
///
/// A mean uses every sample where a median uses the middle one or two, so it
/// moves less from run to run; dropping a tenth at each end keeps the odd
/// stall of a shared machine out of it. It also moves in proportion when a
/// timing turns out bimodal, where a median jumps from one mode to the other
/// (see `fleet::REGION_UNITS` for the case that was found).
pub fn trimmed_mean(values: &[f64]) -> f64 {
    if values.len() < 5 {
        return median(values);
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = (sorted.len() / 10).max(1);
    let kept = &sorted[cut..sorted.len() - cut];
    kept.iter().sum::<f64>() / kept.len() as f64
}

const SUB_BITS: u32 = 5;
const SUB: usize = 1 << SUB_BITS;

/// Latency histogram over nanoseconds: 32 linear sub-buckets per power of
/// two (about 3 % wide), fixed size, no per-sample storage.
pub struct LogHist {
    counts: Vec<u64>,
    total: u64,
}

impl Default for LogHist {
    fn default() -> LogHist {
        LogHist {
            counts: vec![0; (64 - SUB_BITS as usize + 1) * SUB],
            total: 0,
        }
    }
}

impl LogHist {
    fn index(ns: u64) -> usize {
        if ns < SUB as u64 {
            return ns as usize;
        }
        let exp = 63 - ns.leading_zeros();
        let sub = (ns >> (exp - SUB_BITS)) as usize & (SUB - 1);
        (exp - SUB_BITS + 1) as usize * SUB + sub
    }

    /// Lower edge and width, in nanoseconds, of bucket `i`.
    fn edges(i: usize) -> (f64, f64) {
        if i < SUB {
            return (i as f64, 1.0);
        }
        let exp = (i / SUB) as u32 + SUB_BITS - 1;
        let width = (1u64 << (exp - SUB_BITS)) as f64;
        ((1u64 << exp) as f64 + (i % SUB) as f64 * width, width)
    }

    pub fn record(&mut self, d: Duration) {
        self.counts[Self::index(d.as_nanos() as u64)] += 1;
        self.total += 1;
    }

    /// The `q` quantile in microseconds, interpolated inside its bucket.
    pub fn quantile_us(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = q * self.total as f64;
        let mut seen = 0.0;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && seen + c as f64 >= rank {
                let (low, width) = Self::edges(i);
                return (low + width * ((rank - seen) / c as f64)) / 1e3;
            }
            seen += c as f64;
        }
        unreachable!("rank lies within the total");
    }

    pub fn merge(&mut self, other: &LogHist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }
}

/// Seconds the calibration kernel takes on the reference box at its usual
/// speed; the fixed point every timing is scaled to.
pub const KERNEL_REFERENCE_S: f64 = 0.0058;
const KERNEL_WORDS: usize = 1 << 19;
const KERNEL_CHAIN: usize = 2_600_000;
const KERNEL_REPEATS: usize = 3;

/// A fixed piece of work that measures how fast the machine is right now.
///
/// The reference box is a shared virtual machine whose speed drifts by tens
/// of percent over seconds to minutes, for everything on it alike (a plain
/// arithmetic loop and a memory-streaming loop slow down together, their
/// ratio holding within a few percent), and whose two processors at times
/// share one core, which nearly halves the speed of two busy threads. Each
/// round therefore times this kernel next to the work it measures, on as
/// many threads as that work keeps busy, and scales the measured times by
/// the reference time over the kernel's time. The kernel is the harness's own — it
/// calls nothing in the seagull crates — so a change to the program cannot
/// move it; it streams over a 4 MiB buffer and then runs a dependent
/// floating-point chain, about 6 ms in all.
pub struct Kernel {
    buffers: [Vec<f64>; 2],
    /// The latest speed taken with one thread and with two.
    latest: [f64; 2],
    /// Every kernel time taken, seconds, `[one thread, two threads]`.
    pub times_s: [Vec<f64>; 2],
}

fn kernel_once(buffer: &mut [f64]) -> f64 {
    let began = std::time::Instant::now();
    for _ in 0..4 {
        for x in buffer.iter_mut() {
            *x = *x * 0.999_999 + 0.25;
        }
    }
    let mut x = std::hint::black_box(buffer[0]);
    for _ in 0..KERNEL_CHAIN {
        x = x * 0.999_999_9 + 0.5;
    }
    std::hint::black_box(x);
    secs(began.elapsed())
}

/// Best of a few repeats: a hiccup only ever adds time.
fn kernel_best(buffer: &mut [f64]) -> f64 {
    (0..KERNEL_REPEATS)
        .map(|_| kernel_once(buffer))
        .fold(f64::INFINITY, f64::min)
}

impl Kernel {
    pub fn new() -> Kernel {
        Kernel {
            buffers: [vec![1.0; KERNEL_WORDS], vec![1.0; KERNEL_WORDS]],
            latest: [1.0; 2],
            times_s: [Vec::new(), Vec::new()],
        }
    }

    /// Takes the machine's speed as `threads` (1 or 2) busy threads see it —
    /// with two, the slower of them. Above 1 is faster than the reference.
    pub fn speed(&mut self, threads: usize) -> f64 {
        let [a, b] = &mut self.buffers;
        let took = if threads < 2 {
            kernel_best(a)
        } else {
            std::thread::scope(|scope| {
                let other = scope.spawn(|| kernel_best(b));
                kernel_best(a).max(other.join().expect("kernel thread"))
            })
        };
        let slot = threads.min(2) - 1;
        self.times_s[slot].push(took);
        self.latest[slot] = KERNEL_REFERENCE_S / took;
        self.latest[slot]
    }

    /// Takes the speed again and returns its mean with the previous taking:
    /// the speed over whatever ran between the two.
    pub fn speed_since(&mut self, threads: usize) -> f64 {
        let before = self.latest[threads.min(2) - 1];
        (before + self.speed(threads)) / 2.0
    }
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|l| l.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trimmed_mean_drops_a_tenth_at_each_end() {
        let mut v: Vec<f64> = (1..=20).map(f64::from).collect();
        v[19] = 1e9; // one stall
        assert_eq!(trimmed_mean(&v), (3..=18).sum::<i32>() as f64 / 16.0);
        assert_eq!(trimmed_mean(&[1.0, 100.0, 3.0]), 3.0);
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn histogram_buckets_are_contiguous_and_narrow() {
        let mut prev = 0;
        for ns in [
            0u64,
            1,
            31,
            32,
            33,
            63,
            64,
            1000,
            1 << 20,
            (1 << 40) + 12345,
        ] {
            let i = LogHist::index(ns);
            assert!(i >= prev);
            prev = i;
            let (low, width) = LogHist::edges(i);
            assert!(
                low <= ns as f64 && (ns as f64) < low + width,
                "{ns} in [{low}, +{width})"
            );
            assert!(ns < 32 || width / low <= 1.0 / 32.0 + 1e-12);
        }
    }

    #[test]
    fn histogram_quantiles_track_samples() {
        let mut h = LogHist::default();
        for us in 1..=1000u64 {
            h.record(Duration::from_micros(us));
        }
        assert!((h.quantile_us(0.5) - 500.0).abs() < 20.0);
        assert!((h.quantile_us(0.99) - 990.0).abs() < 35.0);
    }

    #[test]
    fn fnv_matches_reference_vector() {
        let mut h = Fnv::new();
        h.bytes(b"a");
        assert_eq!(h.0, 0xaf63_dc4c_8601_ec8c);
    }
}
