//! `TxCache` — a fixed-capacity cache table built by *composing* two NBTC
//! structures in one transaction per operation.
//!
//! This is the paper's pitch turned into a product feature: a cache needs a
//! lookup structure (what is cached?) and a recency structure (what gets
//! evicted?), and a nonblocking cache is only correct if the two move
//! together.  `TxCache` composes a [`MichaelHashMap`] (the entries), a
//! [`MsQueue`] (the admission order), and a second hash map of reference
//! bits into single Medley transactions:
//!
//! * a **hit** is `map.get` *plus* its recency record (setting the CLOCK
//!   reference bit) — atomically, so an eviction scan never observes a
//!   half-recorded hit;
//! * an **insert** is `map.put` *plus* admission-queue enqueue *plus*
//!   however many evictions bring the cache back under capacity — one
//!   transaction, so a committed state never exceeds `capacity` and an
//!   evicted entry can never be resurrected by a racing hit (the hit and
//!   the eviction conflict on the entry's map node and one of them aborts
//!   and retries).
//!
//! The eviction policy is **second chance** (CLOCK, an LRU approximation):
//! candidates leave the admission queue in FIFO order, but a candidate
//! whose reference bit is set gets the bit cleared and is re-queued instead
//! of evicted.  Entries removed through [`TxCache::remove`] leave a stale
//! key in the queue; the eviction scan discards stale keys when it meets
//! them, so removal stays O(1).
//!
//! Memory safety of evictions rides on the underlying structures' NBTC
//! reclamation (`tretire` on the committing transaction's epoch): the map
//! node an eviction unlinks is retired, not freed, so a concurrent reader
//! that lost the race still reads a live node and then fails validation —
//! no leak, no double-free.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use medley::{CasWord, Ctx};
use nbds::{MichaelHashMap, MsQueue};
use pmem::Value;

/// How many referenced (second-chance) candidates one eviction pass may
/// recycle before it evicts the next candidate regardless of its reference
/// bit.  Bounds the queue churn — and therefore the descriptor footprint —
/// of a single insert: under a pathologically all-hot queue, CLOCK degrades
/// to FIFO instead of growing the transaction without bound.
const SECOND_CHANCE_SCAN: usize = 8;

/// Hit / miss / eviction tallies for one cache shard.
///
/// Bumped from post-commit cleanup closures, so an aborted attempt counts
/// nothing and the tallies describe committed operations only.
#[derive(Debug, Default)]
pub struct CacheCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl CacheCounters {
    /// `(hits, misses, evictions)` snapshot (relaxed loads; the counters
    /// are monotonic).
    pub fn snapshot(&self) -> (u64, u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
            self.evictions.load(Ordering::Relaxed),
        )
    }
}

/// A fixed-capacity transactional second-chance cache (see the module
/// docs).  All operations are generic over [`Ctx`], so a cache op composes
/// into larger transactions (`MGETB`/`BATCH`) exactly like a plain table op
/// — but unlike plain tables, a cache op is only *correct* under a
/// transactional context, because each op spans several structures.
pub struct TxCache {
    /// The cached entries.
    map: MichaelHashMap<Value>,
    /// Admission order (FIFO); may hold stale keys for entries removed out
    /// of band, discarded by the eviction scan.
    queue: MsQueue<u64>,
    /// Presence = referenced since last (re)queued: the CLOCK bit.
    touched: MichaelHashMap<u64>,
    /// Live-entry count as a transactional word.  Admission increments it
    /// and eviction decrements it *inside the same transaction* as the map
    /// change, so `occupancy <= capacity` holds in every committed state —
    /// not merely eventually.
    occupancy: CasWord,
    capacity: u64,
    counters: Arc<CacheCounters>,
}

impl TxCache {
    /// A cache over `buckets` hash buckets holding at most `capacity` live
    /// entries.
    ///
    /// # Panics
    /// Panics if `capacity == 0` (enforced earlier, with a typed error, by
    /// `StoreConfig` validation).
    pub fn new(buckets: usize, capacity: u64) -> Self {
        assert!(capacity > 0, "cache capacity must be nonzero");
        Self {
            map: MichaelHashMap::with_buckets(buckets),
            queue: MsQueue::new(),
            touched: MichaelHashMap::with_buckets(buckets),
            occupancy: CasWord::new(0),
            capacity,
            counters: Arc::new(CacheCounters::default()),
        }
    }

    /// The configured live-entry bound.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// This shard's hit/miss/eviction tallies.
    pub fn counters(&self) -> &CacheCounters {
        &self.counters
    }

    /// Committed live-entry count (spins past in-flight descriptors).
    pub fn occupancy(&self) -> u64 {
        self.occupancy.load_value_spin()
    }

    /// Bucket count of the entry map (for the `STATS` table section).
    pub fn bucket_count(&self) -> usize {
        self.map.bucket_count()
    }

    /// Queues a +1/-1 counter bump to run if (and only if) the operation
    /// commits.
    fn tally<C: Ctx>(
        cx: &mut C,
        counters: &Arc<CacheCounters>,
        pick: fn(&CacheCounters) -> &AtomicU64,
    ) {
        let c = Arc::clone(counters);
        cx.add_cleanup(move |_| {
            pick(&c).fetch_add(1, Ordering::Relaxed);
        });
    }

    /// Adds `delta` to the occupancy word inside the current transaction
    /// and returns the new value.  The CAS loop mirrors the structures'
    /// own helping discipline: a failed speculative CAS means a concurrent
    /// committed change, so re-read and retry (in a transaction, the retry
    /// hits the freshly buffered value and succeeds deterministically).
    fn bump_occupancy<C: Ctx>(&self, cx: &mut C, delta: i64) -> u64 {
        loop {
            let cur = cx.nbtc_load(&self.occupancy);
            let next = cur.wrapping_add_signed(delta);
            if cx.nbtc_cas(&self.occupancy, cur, next, true, true) {
                return next;
            }
        }
    }

    /// Sets the CLOCK reference bit for `key` — but only if unset, so the
    /// hot-key common case stays a pure (descriptor-free, read-only
    /// committable) probe.
    fn touch<C: Ctx>(&self, cx: &mut C, key: u64) {
        if !self.touched.contains(cx, key) {
            self.touched.put(cx, key, 1);
        }
    }

    /// Lookup + recency record, atomically.  A hit sets the reference bit;
    /// both outcomes tally post-commit.
    pub fn get<C: Ctx>(&self, cx: &mut C, key: u64) -> Option<Value> {
        let val = self.map.get(cx, key);
        if val.is_some() {
            self.touch(cx, key);
            Self::tally(cx, &self.counters, |c| &c.hits);
        } else {
            Self::tally(cx, &self.counters, |c| &c.misses);
        }
        val
    }

    /// Membership probe.  Deliberately policy-neutral: no reference bit,
    /// no hit/miss tally — `CONTAINS` asks about the cache, it doesn't use
    /// it.
    pub fn contains<C: Ctx>(&self, cx: &mut C, key: u64) -> bool {
        self.map.contains(cx, key)
    }

    /// Insert-or-replace + admission + eviction, atomically.
    ///
    /// A replacement counts as a reference (the entry is evidently hot); a
    /// fresh admission enqueues the key unreferenced and then evicts until
    /// the cache is back under capacity.  Returns the previous value.
    pub fn put<C: Ctx>(&self, cx: &mut C, key: u64, val: Value) -> Option<Value> {
        let prev = self.map.put(cx, key, val);
        if prev.is_some() {
            self.touch(cx, key);
            return prev;
        }
        // Fresh admission: clear any reference bit left over from a prior
        // life of this key, enqueue, and pay for the slot.
        self.touched.remove(cx, key);
        self.queue.enqueue(cx, key);
        let mut occupancy = self.bump_occupancy(cx, 1);
        while occupancy > self.capacity {
            if !self.evict_one(cx) {
                break;
            }
            occupancy -= 1;
        }
        prev
    }

    /// Removal, with its occupancy decrement and reference-bit clear in the
    /// same transaction.  The admission-queue entry goes stale and is
    /// discarded by a later eviction scan.
    pub fn remove<C: Ctx>(&self, cx: &mut C, key: u64) -> Option<Value> {
        let prev = self.map.remove(cx, key);
        if prev.is_some() {
            self.bump_occupancy(cx, -1);
            self.touched.remove(cx, key);
        }
        prev
    }

    /// Evicts one live entry chosen by the second-chance scan; returns
    /// `false` only if the admission queue ran dry (no live entries).
    fn evict_one<C: Ctx>(&self, cx: &mut C) -> bool {
        let mut chances = 0usize;
        loop {
            let Some(candidate) = self.queue.dequeue(cx) else {
                return false;
            };
            let referenced = self.touched.remove(cx, candidate).is_some();
            if !self.map.contains(cx, candidate) {
                // Stale queue entry: the key was removed out of band and
                // its slot already given back.  Discard and keep scanning.
                continue;
            }
            if referenced && chances < SECOND_CHANCE_SCAN {
                chances += 1;
                self.queue.enqueue(cx, candidate);
                continue;
            }
            self.map.remove(cx, candidate);
            self.bump_occupancy(cx, -1);
            Self::tally(cx, &self.counters, |c| &c.evictions);
            return true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medley::TxManager;
    use std::sync::atomic::AtomicBool;

    fn word(v: u64) -> Value {
        Value::U64(v)
    }

    #[test]
    fn capacity_is_an_invariant_not_a_goal() {
        let mgr = TxManager::with_max_threads(4);
        let mut h = mgr.register();
        let cache = TxCache::new(64, 8);
        // Admit far more keys than fit: after every single committed put,
        // occupancy must already be back under capacity.
        for k in 0..100 {
            h.run(|t| {
                cache.put(t, k, word(k * 10));
                Ok(())
            })
            .unwrap();
            assert!(cache.occupancy() <= 8, "over capacity after put {k}");
        }
        let (_, _, evictions) = cache.counters().snapshot();
        assert_eq!(evictions, 100 - 8);
    }

    #[test]
    fn second_chance_protects_referenced_entries() {
        let mgr = TxManager::with_max_threads(4);
        let mut h = mgr.register();
        let cache = TxCache::new(64, 4);
        for k in 0..4 {
            h.run(|t| {
                cache.put(t, k, word(k));
                Ok(())
            })
            .unwrap();
        }
        // Reference key 0: it is the oldest, but the hit must save it from
        // the next eviction, which falls on key 1 instead.
        let hit = h.run(|t| Ok(cache.get(t, 0))).unwrap();
        assert_eq!(hit, Some(word(0)));
        h.run(|t| {
            cache.put(t, 99, word(99));
            Ok(())
        })
        .unwrap();
        let mut present = Vec::new();
        for k in [0, 1, 2, 3, 99] {
            if h.run(|t| Ok(cache.contains(t, k))).unwrap() {
                present.push(k);
            }
        }
        assert_eq!(present, vec![0, 2, 3, 99]);
        let (hits, misses, _) = cache.counters().snapshot();
        assert_eq!((hits, misses), (1, 0));
    }

    #[test]
    fn remove_gives_the_slot_back_and_queue_entry_goes_stale() {
        let mgr = TxManager::with_max_threads(4);
        let mut h = mgr.register();
        let cache = TxCache::new(64, 2);
        for k in 0..2 {
            h.run(|t| {
                cache.put(t, k, word(k));
                Ok(())
            })
            .unwrap();
        }
        assert_eq!(h.run(|t| Ok(cache.remove(t, 0))).unwrap(), Some(word(0)));
        assert_eq!(cache.occupancy(), 1);
        // The freed slot admits a new key without evicting the survivor —
        // the stale queue entry for key 0 must be skipped, not "evicted".
        h.run(|t| {
            cache.put(t, 7, word(7));
            Ok(())
        })
        .unwrap();
        assert!(h.run(|t| Ok(cache.contains(t, 1))).unwrap());
        assert!(h.run(|t| Ok(cache.contains(t, 7))).unwrap());
        let (_, _, evictions) = cache.counters().snapshot();
        assert_eq!(evictions, 0);
    }

    #[test]
    fn counters_only_count_committed_operations() {
        let mgr = TxManager::with_max_threads(4);
        let mut h = mgr.register();
        let cache = TxCache::new(64, 8);
        h.run(|t| {
            cache.put(t, 1, word(1));
            Ok(())
        })
        .unwrap();
        // A hit inside an explicitly aborted transaction must not tally.
        let _: medley::TxResult<()> = h.run(|t| {
            let _ = cache.get(t, 1);
            Err(t.abort(medley::AbortReason::Explicit))
        });
        let (hits, misses, _) = cache.counters().snapshot();
        assert_eq!((hits, misses), (0, 0));
    }

    #[test]
    fn concurrent_hits_and_inserts_never_overflow_or_lose_the_invariant() {
        const CAP: u64 = 32;
        let mgr = TxManager::with_max_threads(8);
        let cache = Arc::new(TxCache::new(128, CAP));
        let stop = Arc::new(AtomicBool::new(false));
        let mut threads = Vec::new();
        for tid in 0..6u64 {
            let mgr = mgr.clone();
            let cache = Arc::clone(&cache);
            let stop = Arc::clone(&stop);
            threads.push(std::thread::spawn(move || {
                let mut h = mgr.register();
                let mut x = tid * 0x9E37 + 1;
                for i in 0..4_000u64 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let k = x % 200;
                    if i % 3 == 0 {
                        let _ = h.run(|t| Ok(cache.get(t, k)));
                    } else if i % 7 == 0 {
                        let _ = h.run(|t| Ok(cache.remove(t, k)));
                    } else {
                        let _ = h.run(|t| {
                            cache.put(t, k, Value::U64(k));
                            Ok(())
                        });
                    }
                }
                stop.store(true, Ordering::Relaxed);
            }));
        }
        // Sample the invariant while the mutators run: every committed
        // state must hold occupancy <= capacity.
        while !stop.load(Ordering::Relaxed) {
            assert!(cache.occupancy() <= CAP, "capacity invariant violated");
            std::thread::yield_now();
        }
        for t in threads {
            t.join().unwrap();
        }
        assert!(cache.occupancy() <= CAP);
        // The ground truth agrees with the transactional occupancy word.
        let live = cache.map.snapshot().len() as u64;
        assert_eq!(live, cache.occupancy());
        let (_, _, evictions) = cache.counters().snapshot();
        assert!(evictions > 0, "stress must actually exercise eviction");
    }
}
