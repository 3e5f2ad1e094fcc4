//! Small concurrency utilities shared across the workspace: cache-line
//! padding and exponential backoff.
//!
//! These mirror the helpers every high-performance concurrent C++ codebase
//! (including the paper's) carries around; we implement them locally instead
//! of pulling in `crossbeam-utils` to keep the dependency surface minimal.

use std::ops::{Deref, DerefMut};

pub mod sync {
    //! A `parking_lot`-flavoured mutex over `std::sync::Mutex`.
    //!
    //! The workspace builds in offline containers with no registry access, so
    //! instead of depending on `parking_lot` the crates that need a plain
    //! blocking lock (the baselines `onefile`/`tdsl`, the `pmem` slab, and the
    //! non-x86_64 `AtomicU128` fallback) use this wrapper: `lock()` returns
    //! the guard directly and poisoning is ignored (a panicking holder does
    //! not make the data unusable for the benchmark baselines, matching
    //! `parking_lot` semantics).

    /// A mutual-exclusion lock whose `lock` returns the guard directly.
    #[derive(Debug, Default)]
    pub struct Mutex<T> {
        inner: std::sync::Mutex<T>,
    }

    impl<T> Mutex<T> {
        /// Creates a new mutex holding `value`.
        pub const fn new(value: T) -> Self {
            Self {
                inner: std::sync::Mutex::new(value),
            }
        }

        /// Acquires the lock, ignoring poisoning.
        pub fn lock(&self) -> std::sync::MutexGuard<'_, T> {
            match self.inner.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            }
        }

        /// Consumes the mutex, returning the inner value.
        pub fn into_inner(self) -> T {
            match self.inner.into_inner() {
                Ok(v) => v,
                Err(poisoned) => poisoned.into_inner(),
            }
        }
    }
}

/// Pads and aligns a value to 128 bytes to avoid false sharing.
///
/// 128 bytes (two cache lines) is used rather than 64 because Intel
/// prefetchers pull adjacent line pairs; this matches `crossbeam`'s choice.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Wraps `value` in a cache-line-aligned container.
    pub const fn new(value: T) -> Self {
        Self { value }
    }

    /// Consumes the wrapper, returning the inner value.
    pub fn into_inner(self) -> T {
        self.value
    }
}

impl<T> Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

/// Exponential backoff for contended retry loops.
///
/// Starts with a handful of `spin_loop` hints and escalates to
/// `thread::yield_now` once the exponent saturates, which is important on
/// machines with fewer cores than runnable threads (such as CI containers).
#[derive(Debug)]
pub struct Backoff {
    step: u32,
    limit: u32,
}

impl Default for Backoff {
    fn default() -> Self {
        Self::new()
    }
}

impl Backoff {
    const SPIN_LIMIT: u32 = 6;
    const YIELD_LIMIT: u32 = 10;

    /// Creates a fresh backoff counter with the default escalation cap.
    pub fn new() -> Self {
        Self::with_limit(Self::YIELD_LIMIT)
    }

    /// Creates a backoff counter whose exponent saturates at `limit`
    /// (clamped to the default maximum).  A limit of 0 makes every
    /// [`Backoff::backoff`] a single spin-loop hint — the cheapest polite
    /// retry — which latency-sensitive callers select through
    /// [`RunConfig::backoff_limit`](crate::RunConfig::backoff_limit).
    pub fn with_limit(limit: u32) -> Self {
        Self {
            step: 0,
            limit: limit.min(Self::YIELD_LIMIT),
        }
    }

    /// Resets the counter to its initial state.
    pub fn reset(&mut self) {
        self.step = 0;
    }

    /// Backs off, spinning for short waits and yielding for longer ones.
    pub fn backoff(&mut self) {
        if self.step <= Self::SPIN_LIMIT {
            for _ in 0..(1u32 << self.step) {
                std::hint::spin_loop();
            }
        } else {
            std::thread::yield_now();
        }
        if self.step < self.limit {
            self.step += 1;
        }
    }

    /// Returns `true` once the caller should consider parking or aborting
    /// rather than continuing to spin.
    pub fn is_completed(&self) -> bool {
        self.step >= self.limit
    }
}

/// A tiny, fast, seedable PRNG (xorshift64*), used where we need cheap
/// per-thread randomness (skiplist level generation, workload mixing) without
/// depending on `rand` in library crates.
#[derive(Debug, Clone)]
pub struct FastRng {
    state: u64,
}

impl FastRng {
    /// Creates a generator from a nonzero seed (zero is mapped to a fixed
    /// constant so the stream never degenerates).
    pub fn new(seed: u64) -> Self {
        Self {
            state: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
        }
    }

    /// Returns the next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Returns a value uniformly distributed in `[0, bound)`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        self.next_u64() % bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_padded_is_big_and_transparent() {
        let p = CachePadded::new(5u64);
        assert_eq!(*p, 5);
        assert!(std::mem::size_of::<CachePadded<u64>>() >= 128);
        assert_eq!(std::mem::align_of::<CachePadded<u64>>(), 128);
        assert_eq!(p.into_inner(), 5);
    }

    #[test]
    fn backoff_escalates_and_resets() {
        let mut b = Backoff::new();
        assert!(!b.is_completed());
        for _ in 0..20 {
            b.backoff();
        }
        assert!(b.is_completed());
        b.reset();
        assert!(!b.is_completed());
    }

    #[test]
    fn fastrng_is_deterministic_and_bounded() {
        let mut a = FastRng::new(42);
        let mut b = FastRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = FastRng::new(7);
        for _ in 0..1000 {
            assert!(c.next_below(10) < 10);
        }
    }

    #[test]
    fn fastrng_zero_seed_is_usable() {
        let mut r = FastRng::new(0);
        let x = r.next_u64();
        let y = r.next_u64();
        assert_ne!(x, y);
    }
}
