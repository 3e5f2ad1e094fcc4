//! NBTC-transformed version of Michael's chained lock-free hash table
//! (paper Fig. 2): a fixed array of buckets, each an ordered
//! [`MichaelList`].
//!
//! The paper's microbenchmark uses 1 M buckets over a 1 M key space; the
//! default here matches, and [`MichaelHashMap::with_buckets`] lets tests and
//! benchmarks pick smaller tables.
//!
//! Operations delegate to the per-bucket [`MichaelList`], so they inherit its
//! commit fast-path eligibility: a transaction made of one `insert`/`put`/
//! `remove` commits with a single plain CAS and lookup-only transactions
//! commit descriptor-free (see `medley::TxManager` fast paths).
//!
//! Under the lazy-publication runtime even *multi*-operation transactions
//! leave the buckets untouched while they execute: every critical CAS is
//! buffered thread-locally and the counted reads registered by the list
//! traversals stay in the owner-private read buffer, so concurrent
//! standalone operations on the same buckets never encounter (or help) a
//! descriptor before the transaction reaches its commit.

use crate::counter::LenCounter;
use crate::list::MichaelList;
use medley::Ctx;

/// Default number of buckets (matches the paper's configuration).
pub const DEFAULT_BUCKETS: usize = 1 << 20;

/// A lock-free, NBTC-composable chained hash map from `u64` keys to `V`.
pub struct MichaelHashMap<V> {
    buckets: Box<[MichaelList<V>]>,
    mask: u64,
    /// Striped live-item counter.  Deltas follow the transactional outcome
    /// discipline: applied immediately standalone, post-commit in a
    /// transaction, never on abort (see [`LenCounter`]).
    count: LenCounter,
}

impl<V> MichaelHashMap<V>
where
    V: Clone + Send + Sync + 'static,
{
    /// Creates a map with the default bucket count.
    pub fn new() -> Self {
        Self::with_buckets(DEFAULT_BUCKETS)
    }

    /// Creates a map with `buckets` buckets (rounded up to a power of two).
    pub fn with_buckets(buckets: usize) -> Self {
        let n = buckets.next_power_of_two().max(1);
        let buckets = (0..n).map(|_| MichaelList::new()).collect::<Vec<_>>();
        Self {
            buckets: buckets.into_boxed_slice(),
            mask: (n - 1) as u64,
            count: LenCounter::new(),
        }
    }

    /// Number of buckets.
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Committed live-item count (relaxed striped sum; see
    /// [`LenCounter::len`] for the consistency caveats).
    pub fn len(&self) -> u64 {
        self.count.len()
    }

    /// Whether [`MichaelHashMap::len`] currently reads zero.
    pub fn is_empty(&self) -> bool {
        self.count.is_empty()
    }

    /// Registers a counter delta to apply when the enclosing operation's
    /// outcome is decided (immediately standalone, post-commit in a
    /// transaction, dropped on abort).
    fn count_delta<C: Ctx>(&self, cx: &mut C, delta: i64) {
        let counter_addr = &self.count as *const LenCounter as usize;
        cx.add_cleanup(move |h| {
            // SAFETY: the map outlives the transaction (caller contract —
            // the same one the list unlink cleanups rely on).
            let count = unsafe { &*(counter_addr as *const LenCounter) };
            count.add(h.tid(), delta);
        });
    }

    #[inline]
    fn bucket(&self, key: u64) -> &MichaelList<V> {
        // Fibonacci hashing spreads adjacent integer keys across buckets.
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        &self.buckets[(h & self.mask) as usize]
    }

    /// Looks up `key`.
    pub fn get<C: Ctx>(&self, cx: &mut C, key: u64) -> Option<V> {
        self.bucket(key).get(cx, key)
    }

    /// Looks up `key` and maps its value through `f`, which may run more
    /// than once (see [`TxMap::get_with`](crate::TxMap::get_with)).
    pub fn get_with<C: Ctx, R>(&self, cx: &mut C, key: u64, f: impl FnMut(&V) -> R) -> Option<R> {
        self.bucket(key).get_with(cx, key, f)
    }

    /// Whether `key` is present (counted-read traversal; never clones the
    /// value).
    pub fn contains<C: Ctx>(&self, cx: &mut C, key: u64) -> bool {
        self.bucket(key).contains(cx, key)
    }

    /// Inserts `key -> val` only if absent; returns `true` on success.
    pub fn insert<C: Ctx>(&self, cx: &mut C, key: u64, val: V) -> bool {
        let ok = self.bucket(key).insert(cx, key, val);
        if ok {
            self.count_delta(cx, 1);
        }
        ok
    }

    /// Inserts or replaces; returns the previous value if any.
    pub fn put<C: Ctx>(&self, cx: &mut C, key: u64, val: V) -> Option<V> {
        let old = self.bucket(key).put(cx, key, val);
        if old.is_none() {
            self.count_delta(cx, 1);
        }
        old
    }

    /// Removes `key`; returns its value if it was present.
    pub fn remove<C: Ctx>(&self, cx: &mut C, key: u64) -> Option<V> {
        let old = self.bucket(key).remove(cx, key);
        if old.is_some() {
            self.count_delta(cx, -1);
        }
        old
    }

    /// Quiescent count of live keys (test/diagnostic helper).
    pub fn len_quiescent(&self) -> usize {
        self.buckets.iter().map(|b| b.len_quiescent()).sum()
    }

    /// Quiescent snapshot of all `(key, value)` pairs (unordered across
    /// buckets).
    pub fn snapshot(&self) -> Vec<(u64, V)> {
        let mut out = Vec::new();
        for b in self.buckets.iter() {
            out.extend(b.snapshot());
        }
        out
    }
}

impl<V> Default for MichaelHashMap<V>
where
    V: Clone + Send + Sync + 'static,
{
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medley::{AbortReason, TxManager, TxResult};
    use std::sync::Arc;

    fn small_map() -> MichaelHashMap<u64> {
        MichaelHashMap::with_buckets(64)
    }

    #[test]
    fn basic_crud() {
        let mgr = TxManager::new();
        let mut h = mgr.register();
        let map = small_map();
        assert_eq!(map.get(&mut h.nontx(), 1), None);
        assert!(map.insert(&mut h.nontx(), 1, 10));
        assert!(!map.insert(&mut h.nontx(), 1, 11));
        assert_eq!(map.get(&mut h.nontx(), 1), Some(10));
        assert_eq!(map.put(&mut h.nontx(), 1, 12), Some(10));
        assert_eq!(map.put(&mut h.nontx(), 2, 20), None);
        assert_eq!(map.remove(&mut h.nontx(), 1), Some(12));
        assert_eq!(map.remove(&mut h.nontx(), 1), None);
        assert_eq!(map.len_quiescent(), 1);
    }

    #[test]
    fn len_counter_tracks_commits_only() {
        let mgr = TxManager::new();
        let mut h = mgr.register();
        let map = small_map();
        assert!(map.is_empty());
        assert!(map.insert(&mut h.nontx(), 1, 10));
        assert_eq!(map.put(&mut h.nontx(), 2, 20), None);
        assert_eq!(
            map.put(&mut h.nontx(), 2, 21),
            Some(20),
            "replace is neutral"
        );
        assert_eq!(map.len(), 2);
        let res: TxResult<()> = h.run(|t| {
            assert!(map.insert(t, 3, 30));
            assert_eq!(map.remove(t, 1), Some(10));
            Err(t.abort(AbortReason::Explicit))
        });
        assert!(res.is_err());
        assert_eq!(map.len(), 2, "aborted deltas must not land");
        let res: TxResult<()> = h.run(|t| {
            assert!(map.insert(t, 3, 30));
            assert_eq!(map.remove(t, 1), Some(10));
            Ok(())
        });
        assert!(res.is_ok());
        assert_eq!(map.len(), 2, "+1 and -1 in one committed transaction");
        assert_eq!(map.len() as usize, map.len_quiescent());
    }

    #[test]
    fn bucket_count_rounds_to_power_of_two() {
        let m = MichaelHashMap::<u64>::with_buckets(100);
        assert_eq!(m.bucket_count(), 128);
        let m = MichaelHashMap::<u64>::with_buckets(1);
        assert_eq!(m.bucket_count(), 1);
    }

    #[test]
    fn many_keys_single_thread() {
        let mgr = TxManager::new();
        let mut h = mgr.register();
        let map = MichaelHashMap::with_buckets(256);
        for k in 0..2_000u64 {
            assert!(map.insert(&mut h.nontx(), k, k * 3));
        }
        assert_eq!(map.len_quiescent(), 2_000);
        for k in 0..2_000u64 {
            assert_eq!(map.get(&mut h.nontx(), k), Some(k * 3));
        }
        for k in (0..2_000u64).step_by(2) {
            assert_eq!(map.remove(&mut h.nontx(), k), Some(k * 3));
        }
        assert_eq!(map.len_quiescent(), 1_000);
    }

    #[test]
    fn cross_table_transfer_transaction() {
        // The paper's Fig. 3 example: transfer between accounts in two hash
        // tables, atomically.
        let mgr = TxManager::new();
        let mut h = mgr.register();
        let ht1 = small_map();
        let ht2 = small_map();
        assert!(ht1.insert(&mut h.nontx(), 100, 500)); // account 100 with balance 500
        assert!(ht2.insert(&mut h.nontx(), 200, 50));

        let transfer = |h: &mut medley::ThreadHandle, amount: u64| -> TxResult<()> {
            h.run(|h| {
                let v1 = ht1.get(h, 100);
                let v2 = ht2.get(h, 200);
                match v1 {
                    Some(b) if b >= amount => {
                        ht1.put(h, 100, b - amount);
                        ht2.put(h, 200, v2.unwrap_or(0) + amount);
                        Ok(())
                    }
                    _ => Err(h.abort(AbortReason::Explicit)),
                }
            })
        };

        assert!(transfer(&mut h, 120).is_ok());
        assert_eq!(ht1.get(&mut h.nontx(), 100), Some(380));
        assert_eq!(ht2.get(&mut h.nontx(), 200), Some(170));

        // Insufficient funds: the explicit abort leaves both tables untouched.
        assert!(transfer(&mut h, 1_000).is_err());
        assert_eq!(ht1.get(&mut h.nontx(), 100), Some(380));
        assert_eq!(ht2.get(&mut h.nontx(), 200), Some(170));
    }

    #[test]
    fn concurrent_mixed_workload_consistency() {
        const THREADS: usize = 4;
        const OPS: usize = 600;
        const KEY_SPACE: u64 = 128;
        let mgr = TxManager::new();
        let map = Arc::new(MichaelHashMap::<u64>::with_buckets(64));
        let mut joins = Vec::new();
        for t in 0..THREADS {
            let mgr = Arc::clone(&mgr);
            let map = Arc::clone(&map);
            joins.push(std::thread::spawn(move || {
                let mut h = mgr.register();
                let mut rng = medley::util::FastRng::new((t + 1) as u64);
                for _ in 0..OPS {
                    let k = rng.next_below(KEY_SPACE);
                    match rng.next_below(3) {
                        0 => {
                            map.put(&mut h.nontx(), k, k * 2);
                        }
                        1 => {
                            map.remove(&mut h.nontx(), k);
                        }
                        _ => {
                            if let Some(v) = map.get(&mut h.nontx(), k) {
                                assert_eq!(v, k * 2, "value must always match its key");
                            }
                        }
                    }
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        for (k, v) in map.snapshot() {
            assert_eq!(v, k * 2);
        }
    }

    #[test]
    fn concurrent_transactions_across_two_tables() {
        // Move tokens between two tables; the combined number of tokens is
        // invariant under concurrent transactional transfers.
        const THREADS: usize = 4;
        const OPS: usize = 200;
        const KEYS: u64 = 16;
        let mgr = TxManager::new();
        let a = Arc::new(MichaelHashMap::<u64>::with_buckets(32));
        let b = Arc::new(MichaelHashMap::<u64>::with_buckets(32));
        {
            let mut h = mgr.register();
            for k in 0..KEYS {
                assert!(a.insert(&mut h.nontx(), k, 10));
                assert!(b.insert(&mut h.nontx(), k, 10));
            }
        }
        let mut joins = Vec::new();
        for t in 0..THREADS {
            let mgr = Arc::clone(&mgr);
            let a = Arc::clone(&a);
            let b = Arc::clone(&b);
            joins.push(std::thread::spawn(move || {
                let mut h = mgr.register();
                let mut rng = medley::util::FastRng::new((t + 7) as u64);
                for _ in 0..OPS {
                    let k = rng.next_below(KEYS);
                    let a_to_b = rng.next_below(2) == 0;
                    let _ = h.run(|h| {
                        let (src, dst) = if a_to_b { (&a, &b) } else { (&b, &a) };
                        let sv = src.get(h, k).unwrap_or(0);
                        let dv = dst.get(h, k).unwrap_or(0);
                        if sv == 0 {
                            return Err(h.abort(AbortReason::Explicit));
                        }
                        src.put(h, k, sv - 1);
                        dst.put(h, k, dv + 1);
                        Ok(())
                    });
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let total: u64 = a
            .snapshot()
            .iter()
            .chain(b.snapshot().iter())
            .map(|(_, v)| *v)
            .sum();
        assert_eq!(total, KEYS * 10 * 2);
    }
}
