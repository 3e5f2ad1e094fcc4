//! A striped, relaxed item counter for the map containers.
//!
//! Maintaining an exact size on a nonblocking map would serialize every
//! insert/remove on one cache line — the opposite of what the containers are
//! for.  `LenCounter` instead keeps one padded stripe per thread slot
//! (indexed by `tid % STRIPES`, the same slot id the persistence arenas use)
//! and sums the stripes on read.  Updates are relaxed atomics on a
//! thread-mostly-private line, so the common case costs one uncontended
//! `fetch_add`; reads are O(STRIPES) and observe some linearization-
//! consistent value, which is all a load-factor trigger or a `STATS` report
//! needs.
//!
//! The flushing discipline matches the `medley` transaction counters: deltas are applied when the
//! operation's outcome is decided (immediately in a standalone context,
//! from the post-commit cleanup phase in a transaction), never
//! speculatively — an aborted transaction leaves the counter untouched.

use std::sync::atomic::{AtomicI64, Ordering};

/// Number of counter stripes.  Matches the padding granularity rather than a
/// thread cap: slot ids above it wrap and share a stripe, which only costs
/// occasional contention on that stripe, never correctness.
const STRIPES: usize = 64;

/// One cache-line-padded stripe.
#[repr(align(64))]
struct Stripe(AtomicI64);

/// A relaxed item counter: per-thread-slot stripes summed on read.
pub struct LenCounter {
    stripes: Box<[Stripe; STRIPES]>,
}

impl LenCounter {
    /// A counter at zero.
    pub fn new() -> Self {
        Self {
            stripes: Box::new(std::array::from_fn(|_| Stripe(AtomicI64::new(0)))),
        }
    }

    /// Applies a delta on the stripe of thread slot `tid`.
    #[inline]
    pub fn add(&self, tid: usize, delta: i64) {
        self.stripes[tid % STRIPES]
            .0
            .fetch_add(delta, Ordering::Relaxed);
    }

    /// Sums all stripes.  Clamped at zero: concurrent in-flight deltas can
    /// transiently make the raw sum negative (a remove's decrement may land
    /// on one stripe before the matching insert's increment lands on
    /// another).
    pub fn len(&self) -> u64 {
        let sum: i64 = self
            .stripes
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum();
        sum.max(0) as u64
    }

    /// Whether the counter currently sums to zero (see [`LenCounter::len`]
    /// for the consistency caveats).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for LenCounter {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for LenCounter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LenCounter")
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stripes_sum_and_clamp() {
        let c = LenCounter::new();
        assert_eq!(c.len(), 0);
        assert!(c.is_empty());
        c.add(0, 5);
        c.add(1, 3);
        c.add(65, -2); // wraps onto stripe 1
        assert_eq!(c.len(), 6);
        c.add(2, -100);
        assert_eq!(c.len(), 0, "transient negative sums clamp to zero");
        c.add(2, 100);
        assert_eq!(c.len(), 6);
    }

    #[test]
    fn concurrent_adds_are_conserved() {
        use std::sync::Arc;
        let c = Arc::new(LenCounter::new());
        let mut joins = Vec::new();
        for t in 0..8 {
            let c = Arc::clone(&c);
            joins.push(std::thread::spawn(move || {
                for _ in 0..10_000 {
                    c.add(t, 1);
                    c.add(t + 3, -1);
                    c.add(t, 1);
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(c.len(), 8 * 10_000);
    }
}
