//! Common traits for transactional containers.
//!
//! The benchmark harness, the TPC-C layer, and the integration tests all work
//! against these traits so that the Medley hash table, the Medley skiplist,
//! the txMontage persistent maps, and the baseline systems (OneFile, TDSL,
//! LFTT) can be swapped freely — mirroring how the paper runs the same
//! workloads over every competitor.
//!
//! All operations are generic over a [`Ctx`] execution context, so a single
//! `impl` serves both standalone calls (through [`medley::NonTx`], where the
//! instrumentation monomorphizes away) and transactional calls (through
//! [`medley::Txn`]).  The price is that the traits are not object-safe;
//! harness code is generic over `M: TxMap<V>` instead of boxing
//! `dyn TxMap`.

use medley::Ctx;

/// A map from `u64` keys to values of type `V` whose operations can
/// participate in Medley transactions (called with a [`medley::Txn`]
/// context) or run standalone (called with a [`medley::NonTx`] context).
pub trait TxMap<V>: Send + Sync {
    /// Looks up `key` and maps its value through `f`.
    ///
    /// A lookup re-loads the value word after mapping it and keeps the
    /// result only if the word still holds what was mapped: `f` may run
    /// more than once, each time on a value the key was bound to, and the
    /// result of the last run is returned.  Deliberately **required** (no
    /// default that maps once): a wrapper that keeps a record's name in the
    /// value word, not the record, relies on the re-check (`txmontage`'s
    /// payload ids).
    fn get_with<C: Ctx, R>(&self, cx: &mut C, key: u64, f: impl FnMut(&V) -> R) -> Option<R>;
    /// Looks up `key`.
    fn get<C: Ctx>(&self, cx: &mut C, key: u64) -> Option<V>
    where
        V: Clone,
    {
        self.get_with(cx, key, V::clone)
    }
    /// Inserts `key -> val` only if absent; returns `true` on success.
    fn insert<C: Ctx>(&self, cx: &mut C, key: u64, val: V) -> bool;
    /// Inserts or replaces; returns the previous value if any.
    fn put<C: Ctx>(&self, cx: &mut C, key: u64, val: V) -> Option<V>;
    /// Removes `key`; returns its value if present.
    fn remove<C: Ctx>(&self, cx: &mut C, key: u64) -> Option<V>;
    /// Whether `key` is present.
    ///
    /// Deliberately **required** (no default): a membership test must be a
    /// counted-read traversal that registers its linearizing load and never
    /// clones `V`.  An earlier default delegated to `self.get(..).is_some()`,
    /// which silently cloned the value for any container that forgot to
    /// override it — making the choice explicit turns that performance trap
    /// into a compile error.  (See the `contains_never_clones_the_value`
    /// test for the enforcement on the in-crate containers.)
    fn contains<C: Ctx>(&self, cx: &mut C, key: u64) -> bool;
}

/// An **ordered** map: a [`TxMap`] whose keys additionally support a
/// transactional range cursor.
///
/// Implemented by the skiplist (and its durable wrapper in `txmontage`);
/// [`crate::MichaelHashMap`] and [`crate::SplitOrderedMap`] stay
/// deliberately unordered — hashing destroys key order, so an ordered
/// cursor over them would be a lie the type system should not tell.
pub trait TxOrderedMap<V>: TxMap<V> {
    /// Collects up to `limit` `(key, f(value))` pairs with keys in
    /// `bounds`, in ascending key order, each value mapped as
    /// [`TxMap::get_with`] maps it.
    ///
    /// Under a transactional context the cursor's linearizing loads join the
    /// read set (counted reads), so a *committed* scan is an atomic snapshot
    /// of the traversed window; standalone the walk is uninstrumented and
    /// makes no cross-key atomicity claim.
    fn range_with<C: Ctx, R>(
        &self,
        cx: &mut C,
        bounds: std::ops::Range<u64>,
        limit: usize,
        f: impl FnMut(&V) -> R,
    ) -> Vec<(u64, R)>;
    /// Collects up to `limit` `(key, value)` pairs with keys in `bounds`,
    /// in ascending key order (see [`TxOrderedMap::range_with`]).
    fn range<C: Ctx>(&self, cx: &mut C, bounds: std::ops::Range<u64>, limit: usize) -> Vec<(u64, V)>
    where
        V: Clone,
    {
        self.range_with(cx, bounds, limit, V::clone)
    }
}

/// A FIFO queue whose operations can participate in Medley transactions or
/// run standalone — the queue-shaped counterpart of [`TxMap`], so queue
/// workloads are harness-swappable too.
pub trait TxQueue<V>: Send + Sync {
    /// Appends `val` at the tail.
    fn enqueue<C: Ctx>(&self, cx: &mut C, val: V);
    /// Removes and returns the head value, or `None` if empty.
    fn dequeue<C: Ctx>(&self, cx: &mut C) -> Option<V>;
    /// Whether the queue is empty (a single linearizing observation).
    fn is_empty<C: Ctx>(&self, cx: &mut C) -> bool;
}

/// Implements [`TxMap`] by forwarding to the inherent operations of the
/// same names.
macro_rules! forward_tx_map {
    ($($map:ident),+) => {$(
        impl<V> TxMap<V> for crate::$map<V>
        where
            V: Clone + Send + Sync + 'static,
        {
            fn get_with<C: Ctx, R>(
                &self,
                cx: &mut C,
                key: u64,
                f: impl FnMut(&V) -> R,
            ) -> Option<R> {
                crate::$map::get_with(self, cx, key, f)
            }
            fn insert<C: Ctx>(&self, cx: &mut C, key: u64, val: V) -> bool {
                crate::$map::insert(self, cx, key, val)
            }
            fn put<C: Ctx>(&self, cx: &mut C, key: u64, val: V) -> Option<V> {
                crate::$map::put(self, cx, key, val)
            }
            fn remove<C: Ctx>(&self, cx: &mut C, key: u64) -> Option<V> {
                crate::$map::remove(self, cx, key)
            }
            fn contains<C: Ctx>(&self, cx: &mut C, key: u64) -> bool {
                crate::$map::contains(self, cx, key)
            }
        }
    )+};
}
forward_tx_map!(MichaelHashMap, SkipList, MichaelList, SplitOrderedMap);

impl<V> TxOrderedMap<V> for crate::SkipList<V>
where
    V: Clone + Send + Sync + 'static,
{
    fn range_with<C: Ctx, R>(
        &self,
        cx: &mut C,
        bounds: std::ops::Range<u64>,
        limit: usize,
        f: impl FnMut(&V) -> R,
    ) -> Vec<(u64, R)> {
        crate::SkipList::range_with(self, cx, bounds, limit, f)
    }
}

impl<V> TxQueue<V> for crate::MsQueue<V>
where
    V: Clone + Send + Sync + 'static,
{
    fn enqueue<C: Ctx>(&self, cx: &mut C, val: V) {
        crate::MsQueue::enqueue(self, cx, val)
    }
    fn dequeue<C: Ctx>(&self, cx: &mut C) -> Option<V> {
        crate::MsQueue::dequeue(self, cx)
    }
    fn is_empty<C: Ctx>(&self, cx: &mut C) -> bool {
        crate::MsQueue::is_empty(self, cx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medley::{ThreadHandle, TxManager};

    fn exercise<M: TxMap<u64>>(map: &M, h: &mut ThreadHandle) {
        let cx = &mut h.nontx();
        assert!(!map.contains(cx, 9));
        assert!(map.insert(cx, 9, 90));
        assert!(map.contains(cx, 9));
        assert_eq!(map.get(cx, 9), Some(90));
        assert_eq!(map.put(cx, 9, 91), Some(90));
        assert_eq!(map.remove(cx, 9), Some(91));
        assert_eq!(map.remove(cx, 9), None);
    }

    #[test]
    fn all_structures_satisfy_the_trait() {
        let mgr = TxManager::new();
        let mut h = mgr.register();
        exercise(&crate::MichaelHashMap::<u64>::with_buckets(16), &mut h);
        exercise(&crate::SkipList::<u64>::new(), &mut h);
        exercise(&crate::MichaelList::<u64>::new(), &mut h);
        exercise(&crate::SplitOrderedMap::<u64>::new(), &mut h);
    }

    #[test]
    fn queue_trait_is_usable_in_both_contexts() {
        fn drive<Q: TxQueue<u64>>(q: &Q, h: &mut ThreadHandle) {
            assert!(q.is_empty(&mut h.nontx()));
            q.enqueue(&mut h.nontx(), 5);
            let moved: medley::TxResult<Option<u64>> = h.run(|t| {
                let v = q.dequeue(t);
                if let Some(v) = v {
                    q.enqueue(t, v + 1);
                }
                Ok(v)
            });
            assert_eq!(moved, Ok(Some(5)));
            assert_eq!(q.dequeue(&mut h.nontx()), Some(6));
        }
        let mgr = TxManager::new();
        let mut h = mgr.register();
        drive(&crate::MsQueue::<u64>::new(), &mut h);
    }

    #[test]
    fn contains_works_transactionally_without_cloning() {
        // `contains` must register a validatable read: a read-only
        // transaction made of `contains` calls commits descriptor-free.
        let mgr = TxManager::new();
        let mut h = mgr.register();
        let map = crate::MichaelHashMap::<String>::with_buckets(16);
        assert!(map.insert(&mut h.nontx(), 1, "one".to_string()));
        let res = h.run(|t| Ok((map.contains(t, 1), map.contains(t, 2))));
        assert_eq!(res, Ok((true, false)));
        h.flush_stats();
        assert!(mgr.stats_snapshot().ro_commits >= 1);
    }

    /// A value type whose `Clone` counts invocations: proof that no in-crate
    /// container answers `contains` through the old cloning `get` shortcut.
    #[derive(Debug)]
    struct CountsClones(std::sync::Arc<std::sync::atomic::AtomicU64>);
    impl Clone for CountsClones {
        fn clone(&self) -> Self {
            self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Self(std::sync::Arc::clone(&self.0))
        }
    }

    #[test]
    fn contains_never_clones_the_value() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        fn probe<M: TxMap<CountsClones>>(map: &M, h: &mut medley::ThreadHandle) {
            let clones = Arc::new(AtomicU64::new(0));
            assert!(map.insert(&mut h.nontx(), 1, CountsClones(Arc::clone(&clones))));
            let inserted = clones.load(Ordering::Relaxed);
            assert!(map.contains(&mut h.nontx(), 1));
            assert!(!map.contains(&mut h.nontx(), 2));
            let res = h.run(|t| Ok((map.contains(t, 1), map.contains(t, 2))));
            assert_eq!(res, Ok((true, false)));
            assert_eq!(
                clones.load(Ordering::Relaxed),
                inserted,
                "contains must not clone the value"
            );
        }
        let mgr = TxManager::new();
        let mut h = mgr.register();
        probe(
            &crate::MichaelHashMap::<CountsClones>::with_buckets(16),
            &mut h,
        );
        probe(&crate::MichaelList::<CountsClones>::new(), &mut h);
        probe(&crate::SkipList::<CountsClones>::new(), &mut h);
        probe(&crate::SplitOrderedMap::<CountsClones>::new(), &mut h);
    }
}
