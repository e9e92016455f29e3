//! Per-worker scratch buffers for batched linear algebra.
//!
//! SSA fits embed every server's history into a fresh `L × K` trajectory
//! matrix, decompose it, and reconstruct a low-rank approximation — three
//! large allocations per fit that are dead microseconds later. When the
//! pipeline fits thousands of servers per worker thread, the allocator
//! becomes measurable. This module keeps a small thread-local pool of
//! `Vec<f64>` backing stores: [`take`] hands out a recycled buffer when one
//! is available, and [`recycle`] returns a buffer for the next fit on the
//! same worker.
//!
//! Thread-local by construction: no locks, no cross-thread traffic, and a
//! pool that dies with its worker. Recycling is strictly optional — a
//! buffer that is never returned is simply freed by `Vec`'s own drop.

use std::cell::RefCell;

/// Max buffers kept per thread; beyond this, recycled buffers are freed.
const MAX_POOLED: usize = 8;

/// Buffers above this capacity are never pooled (protects against one huge
/// fit permanently pinning memory on every worker).
const MAX_POOLED_CAPACITY: usize = 4 << 20; // 4M f64 = 32 MiB

#[derive(Default)]
struct Pool {
    buffers: Vec<Vec<f64>>,
    reuses: u64,
    fresh: u64,
}

thread_local! {
    static POOL: RefCell<Pool> = RefCell::new(Pool::default());
}

/// Counters for this thread's pool, for tests and benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScratchStats {
    /// `take` calls served from the pool.
    pub reuses: u64,
    /// `take` calls that had to allocate fresh.
    pub fresh: u64,
}

/// An empty `Vec<f64>` with at least `capacity` spare room, recycled from
/// this thread's pool when possible.
pub fn take(capacity: usize) -> Vec<f64> {
    POOL.with(|pool| {
        let mut pool = pool.borrow_mut();
        // Best fit: the smallest pooled buffer that already has room, so
        // big buffers stay available for big requests.
        let best = pool
            .buffers
            .iter()
            .enumerate()
            .filter(|(_, b)| b.capacity() >= capacity)
            .min_by_key(|(_, b)| b.capacity())
            .map(|(i, _)| i);
        match best {
            Some(i) => {
                pool.reuses += 1;
                pool.buffers.swap_remove(i)
            }
            None => {
                pool.fresh += 1;
                Vec::with_capacity(capacity)
            }
        }
    })
}

/// Returns a buffer to this thread's pool. The contents are cleared; only
/// the capacity is kept.
pub fn recycle(mut buffer: Vec<f64>) {
    buffer.clear();
    if buffer.capacity() == 0 || buffer.capacity() > MAX_POOLED_CAPACITY {
        return;
    }
    POOL.with(|pool| {
        let mut pool = pool.borrow_mut();
        if pool.buffers.len() < MAX_POOLED {
            pool.buffers.push(buffer);
        } else if let Some(smallest) = pool
            .buffers
            .iter_mut()
            .min_by_key(|b| b.capacity())
            .filter(|b| b.capacity() < buffer.capacity())
        {
            *smallest = buffer;
        }
    });
}

/// This thread's pool counters.
pub fn stats() -> ScratchStats {
    POOL.with(|pool| {
        let pool = pool.borrow();
        ScratchStats {
            reuses: pool.reuses,
            fresh: pool.fresh,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_recycle_roundtrip_reuses_capacity() {
        let before = stats();
        let mut a = take(1024);
        a.extend(std::iter::repeat_n(1.0, 1024));
        let ptr = a.as_ptr();
        recycle(a);
        let b = take(512);
        assert_eq!(b.as_ptr(), ptr, "recycled allocation is handed back");
        assert!(b.is_empty(), "recycled buffer is cleared");
        assert!(b.capacity() >= 1024);
        let after = stats();
        assert_eq!(after.reuses, before.reuses + 1);
        assert_eq!(after.fresh, before.fresh + 1);
    }

    #[test]
    fn undersized_pool_entries_are_skipped() {
        recycle(Vec::with_capacity(8));
        let big = take(1 << 16);
        assert!(big.capacity() >= 1 << 16);
    }
}
