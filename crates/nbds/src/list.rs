//! NBTC-transformed version of Michael's lock-free ordered linked list
//! (the building block of Michael's chained hash table, paper Fig. 2): the
//! crate's ordered chain, started at `head` and keyed by `u64`.
//!
//! The traversal, the linearizing CASes, the read-registration rule and the
//! post-commit unlink all live in the shared chain module; the table in the
//! [crate docs](crate) says which word each outcome registers.  A node keeps
//! its value in a `CasWord` of its own, so a `put` that finds its key is one
//! (critical) CAS on that word — no node, no unlink, nothing to retire but a
//! boxed old value — and a `remove` is one CAS of the same word to "dead".
//! In a transaction that has looked the key up already, the `put` CASes the
//! word that lookup found and does not search at all.
//!
//! Every operation is generic over a [`medley::Ctx`] execution context:
//! monomorphized for [`medley::NonTx`] it *is* the original uninstrumented
//! algorithm, and monomorphized for [`medley::Txn`] its critical accesses
//! run speculatively and commit atomically.
//!
//! ## Commit fast-path eligibility
//!
//! Every update performs exactly **one** critical CAS, so a transaction
//! consisting of a single `insert`/`put`/`remove` qualifies for the runtime's
//! single-CAS direct commit (no descriptor is ever installed), and a
//! transaction of lookups and failed updates commits descriptor-free through
//! the read-only path.  With lazy publication a registered read is pure
//! thread-local bookkeeping: it reaches the shared descriptor only if the
//! enclosing transaction ends up publishing one at commit.

use crate::chain::{self, MemoKey, Node};
use medley::{CasWord, Ctx};
use std::marker::PhantomData;

/// A sorted, lock-free, NBTC-composable linked-list map from `u64` keys to
/// values of type `V`.
///
/// All operations work both inside and outside Medley transactions; outside a
/// transaction the instrumentation is elided and the structure behaves like
/// the original nonblocking list.
pub struct MichaelList<V> {
    /// Start of a chain of `Node<u64, V>`, linked only through `chain`.
    head: CasWord,
    _marker: PhantomData<V>,
}

// SAFETY: the list is an ordinary shared concurrent container; nodes are
// reachable from multiple threads and reclaimed through EBR.
unsafe impl<V: Send + Sync> Send for MichaelList<V> {}
unsafe impl<V: Send + Sync> Sync for MichaelList<V> {}

impl<V> Default for MichaelList<V>
where
    V: Clone + Send + Sync + 'static,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<V> MichaelList<V>
where
    V: Clone + Send + Sync + 'static,
{
    /// Creates an empty list.
    pub fn new() -> Self {
        Self {
            head: CasWord::new(0),
            _marker: PhantomData,
        }
    }

    /// Looks up `key`, returning a clone of its value.
    pub fn get<C: Ctx>(&self, cx: &mut C, key: u64) -> Option<V> {
        self.get_with(cx, key, V::clone)
    }

    /// Looks up `key` and maps its value through `f`, which may run more
    /// than once (see [`TxMap::get_with`](crate::TxMap::get_with)).
    pub fn get_with<C: Ctx, R>(&self, cx: &mut C, key: u64, f: impl FnMut(&V) -> R) -> Option<R> {
        let at = MemoKey::new(self, key);
        // SAFETY: pinned by `with_op`; `head` starts a `Node<u64, V>` chain.
        cx.with_op(|cx| unsafe { Node::lookup(cx, at, &self.head, key, f) })
    }

    /// Whether `key` is present.  Registers the same counted linearizing
    /// load as [`MichaelList::get`] but never clones the value.
    pub fn contains<C: Ctx>(&self, cx: &mut C, key: u64) -> bool {
        self.get_with(cx, key, |_| ()).is_some()
    }

    /// Inserts `key -> val` only if `key` is absent.  Returns `true` on
    /// success; on failure the value is dropped.
    pub fn insert<C: Ctx>(&self, cx: &mut C, key: u64, val: V) -> bool {
        let at = MemoKey::new(self, key);
        // SAFETY: pinned by `with_op`; `head` starts a `Node<u64, V>` chain.
        cx.with_op(|cx| unsafe { Node::insert(cx, at, &self.head, key, val) })
    }

    /// Inserts or replaces, returning the previous value if any.  After a
    /// lookup of `key` in the same transaction, one CAS on the value word
    /// that lookup found, without a search.
    pub fn put<C: Ctx>(&self, cx: &mut C, key: u64, val: V) -> Option<V> {
        let at = MemoKey::new(self, key);
        // SAFETY: pinned by `with_op`; `head` starts a `Node<u64, V>` chain.
        cx.with_op(|cx| unsafe { Node::put(cx, at, &self.head, key, val) })
    }

    /// Removes `key`, returning its value if it was present.
    pub fn remove<C: Ctx>(&self, cx: &mut C, key: u64) -> Option<V> {
        // SAFETY: pinned by `with_op`; `head` starts a `Node<u64, V>` chain.
        cx.with_op(|cx| unsafe { Node::remove(cx, &self.head, key) })
    }

    /// Quiescent snapshot of the live `(key, value)` pairs, in key order.
    ///
    /// Intended for tests, recovery tooling and single-threaded inspection:
    /// it must not race with concurrent transactional updates.
    pub fn snapshot(&self) -> Vec<(u64, V)> {
        let mut out = Vec::new();
        // SAFETY: quiescence is the caller's contract.
        unsafe {
            chain::walk(&self.head, |n: &Node<u64, V>, live| {
                if live {
                    out.push((n.key, chain::value_of(n)));
                }
            })
        };
        out
    }

    /// Number of live keys (quiescent; see [`MichaelList::snapshot`]).
    pub fn len_quiescent(&self) -> usize {
        self.snapshot().len()
    }
}

impl<V> Drop for MichaelList<V> {
    fn drop(&mut self) {
        // SAFETY: `&mut self` gives exclusive access.
        unsafe { chain::free_all::<Node<u64, V>>(&self.head) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medley::{AbortReason, TxManager, TxResult};
    use std::sync::Arc;

    fn setup() -> (Arc<TxManager>, MichaelList<u64>) {
        (TxManager::new(), MichaelList::new())
    }

    #[test]
    fn empty_list_lookups() {
        let (mgr, list) = setup();
        let mut h = mgr.register();
        assert_eq!(list.get(&mut h.nontx(), 1), None);
        assert!(!list.contains(&mut h.nontx(), 1));
        assert_eq!(list.remove(&mut h.nontx(), 1), None);
        assert_eq!(list.len_quiescent(), 0);
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let (mgr, list) = setup();
        let mut h = mgr.register();
        assert!(list.insert(&mut h.nontx(), 5, 50));
        assert!(
            !list.insert(&mut h.nontx(), 5, 51),
            "duplicate insert must fail"
        );
        assert_eq!(list.get(&mut h.nontx(), 5), Some(50));
        assert_eq!(list.remove(&mut h.nontx(), 5), Some(50));
        assert_eq!(list.get(&mut h.nontx(), 5), None);
        assert_eq!(list.remove(&mut h.nontx(), 5), None);
    }

    #[test]
    fn keys_stay_sorted() {
        let (mgr, list) = setup();
        let mut h = mgr.register();
        for k in [5u64, 1, 9, 3, 7, 2, 8] {
            assert!(list.insert(&mut h.nontx(), k, k * 10));
        }
        let snap = list.snapshot();
        let keys: Vec<u64> = snap.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![1, 2, 3, 5, 7, 8, 9]);
    }

    #[test]
    fn put_replaces_and_returns_old() {
        let (mgr, list) = setup();
        let mut h = mgr.register();
        assert_eq!(list.put(&mut h.nontx(), 7, 70), None);
        assert_eq!(list.put(&mut h.nontx(), 7, 71), Some(70));
        assert_eq!(list.get(&mut h.nontx(), 7), Some(71));
        assert_eq!(list.len_quiescent(), 1);
        assert_eq!(list.remove(&mut h.nontx(), 7), Some(71));
        assert_eq!(list.len_quiescent(), 0);
    }

    #[test]
    fn transactional_ops_are_atomic() {
        let (mgr, list) = setup();
        let mut h = mgr.register();
        assert!(list.insert(&mut h.nontx(), 1, 10));
        // Move key 1 to key 2 atomically.
        let res: TxResult<()> = h.run(|h| {
            let v = list.remove(h, 1).unwrap();
            assert!(list.insert(h, 2, v));
            Ok(())
        });
        assert!(res.is_ok());
        assert_eq!(list.get(&mut h.nontx(), 1), None);
        assert_eq!(list.get(&mut h.nontx(), 2), Some(10));
    }

    #[test]
    fn aborted_transaction_leaves_no_trace() {
        let (mgr, list) = setup();
        let mut h = mgr.register();
        assert!(list.insert(&mut h.nontx(), 1, 10));
        let res: TxResult<()> = h.run(|h| {
            assert_eq!(list.remove(h, 1), Some(10));
            assert!(list.insert(h, 2, 20));
            assert!(list.insert(h, 3, 30));
            Err(h.abort(AbortReason::Explicit))
        });
        assert!(res.is_err());
        assert_eq!(
            list.get(&mut h.nontx(), 1),
            Some(10),
            "remove must be rolled back"
        );
        assert_eq!(
            list.get(&mut h.nontx(), 2),
            None,
            "insert must be rolled back"
        );
        assert_eq!(list.get(&mut h.nontx(), 3), None);
        assert_eq!(list.len_quiescent(), 1);
    }

    #[test]
    fn transaction_sees_its_own_writes() {
        let (mgr, list) = setup();
        let mut h = mgr.register();
        let res: TxResult<()> = h.run(|h| {
            assert!(list.insert(h, 4, 40));
            assert_eq!(list.get(h, 4), Some(40), "read-your-own-write");
            assert_eq!(list.remove(h, 4), Some(40));
            assert_eq!(list.get(h, 4), None, "read-your-own-delete");
            assert!(list.insert(h, 4, 41));
            Ok(())
        });
        assert!(res.is_ok());
        assert_eq!(list.get(&mut h.nontx(), 4), Some(41));
        assert_eq!(list.len_quiescent(), 1);
    }

    #[test]
    fn concurrent_disjoint_inserts() {
        const THREADS: u64 = 4;
        const PER_THREAD: u64 = 300;
        let mgr = TxManager::new();
        let list = Arc::new(MichaelList::<u64>::new());
        let mut joins = Vec::new();
        for t in 0..THREADS {
            let mgr = Arc::clone(&mgr);
            let list = Arc::clone(&list);
            joins.push(std::thread::spawn(move || {
                let mut h = mgr.register();
                for i in 0..PER_THREAD {
                    let k = t * PER_THREAD + i;
                    assert!(list.insert(&mut h.nontx(), k, k));
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(list.len_quiescent(), (THREADS * PER_THREAD) as usize);
        let mut h = mgr.register();
        for k in 0..THREADS * PER_THREAD {
            assert_eq!(list.get(&mut h.nontx(), k), Some(k));
        }
    }

    #[test]
    fn concurrent_transfer_preserves_total() {
        // Classic bank-transfer workload over list cells.
        const THREADS: usize = 4;
        const OPS: usize = 400;
        const ACCOUNTS: u64 = 8;
        let mgr = TxManager::new();
        let list = Arc::new(MichaelList::<u64>::new());
        {
            let mut h = mgr.register();
            for a in 0..ACCOUNTS {
                assert!(list.insert(&mut h.nontx(), a, 100));
            }
        }
        let mut joins = Vec::new();
        for t in 0..THREADS {
            let mgr = Arc::clone(&mgr);
            let list = Arc::clone(&list);
            joins.push(std::thread::spawn(move || {
                let mut h = mgr.register();
                let mut rng = medley::util::FastRng::new(t as u64 + 1);
                for _ in 0..OPS {
                    let from = rng.next_below(ACCOUNTS);
                    let to = rng.next_below(ACCOUNTS);
                    if from == to {
                        continue;
                    }
                    let _ = h.run(|h| {
                        let a = list.get(h, from).unwrap();
                        let b = list.get(h, to).unwrap();
                        if a == 0 {
                            return Err(h.abort(AbortReason::Explicit));
                        }
                        list.put(h, from, a - 1);
                        list.put(h, to, b + 1);
                        Ok(())
                    });
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let total: u64 = list.snapshot().iter().map(|(_, v)| *v).sum();
        assert_eq!(total, ACCOUNTS * 100);
    }

    #[test]
    fn nodes_unlinked_by_an_aborted_attempt_are_still_freed() {
        // A traversal that helps unlink a deleted node applies that CAS at
        // once, so the node must be retired even if the helping attempt
        // aborts: every value created is dropped once the list, the handles
        // and the manager are gone.  (Contended transfers, the shape of
        // `concurrent_transfer_preserves_total`, over the even keys; the odd
        // keys between them are removed and re-inserted all the time, inside
        // the transfers and standalone, because a transfer alone replaces
        // values in place and never makes a dead node.)
        use std::sync::atomic::{AtomicUsize, Ordering};
        static CREATED: AtomicUsize = AtomicUsize::new(0);
        static DROPPED: AtomicUsize = AtomicUsize::new(0);
        struct Counted(u64);
        impl Counted {
            fn new(v: u64) -> Self {
                CREATED.fetch_add(1, Ordering::Relaxed);
                Counted(v)
            }
        }
        impl Clone for Counted {
            fn clone(&self) -> Self {
                Counted::new(self.0)
            }
        }
        impl Drop for Counted {
            fn drop(&mut self) {
                DROPPED.fetch_add(1, Ordering::Relaxed);
            }
        }

        const THREADS: usize = 4;
        const OPS: usize = 2_000;
        const ACCOUNTS: u64 = 4;
        let mgr = TxManager::new();
        let list = Arc::new(MichaelList::<Counted>::new());
        {
            let mut h = mgr.register();
            for a in 0..ACCOUNTS {
                assert!(list.insert(&mut h.nontx(), 2 * a, Counted::new(100)));
                assert!(list.insert(&mut h.nontx(), 2 * a + 1, Counted::new(0)));
            }
        }
        let start = std::sync::Barrier::new(THREADS);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (mgr, list, start) = (&mgr, &list, &start);
                s.spawn(move || {
                    let mut h = mgr.register();
                    let mut rng = medley::util::FastRng::new(t as u64 + 1);
                    start.wait();
                    for i in 0..OPS {
                        let from = rng.next_below(ACCOUNTS);
                        let to = (from + 1 + rng.next_below(ACCOUNTS - 1)) % ACCOUNTS;
                        let odd = 2 * rng.next_below(ACCOUNTS) + 1;
                        h.run(|t| {
                            let a = list.get(t, 2 * from).unwrap().0;
                            let b = list.get(t, 2 * to).unwrap().0;
                            if i % 8 == 0 {
                                // Two cores: let somebody in between the
                                // reads and the writes.
                                std::thread::yield_now();
                            }
                            list.put(t, 2 * from, Counted::new(a.wrapping_sub(1)));
                            list.put(t, 2 * to, Counted::new(b.wrapping_add(1)));
                            if let Some(c) = list.remove(t, odd) {
                                // (Fails only in an attempt that is doomed.)
                                list.insert(t, odd, Counted::new(c.0 + 1));
                            }
                            Ok(())
                        })
                        .unwrap();
                        let odd = 2 * rng.next_below(ACCOUNTS) + 1;
                        if let Some(c) = list.remove(&mut h.nontx(), odd) {
                            list.insert(&mut h.nontx(), odd, c);
                        }
                    }
                });
            }
        });
        let snap = mgr.stats_snapshot();
        assert!(snap.conflict_aborts > 0, "no attempt aborted: {snap:?}");
        // Balances wrap below zero; conservation holds modulo 2^64.
        let total = list
            .snapshot()
            .iter()
            .filter(|(k, _)| k % 2 == 0)
            .fold(0u64, |s, (_, v)| s.wrapping_add(v.0));
        assert_eq!(total, ACCOUNTS * 100);
        drop(list);
        drop(mgr);
        let (created, dropped) = (
            CREATED.load(Ordering::Relaxed),
            DROPPED.load(Ordering::Relaxed),
        );
        assert_eq!(
            created,
            dropped,
            "{} values leaked over {} conflict aborts",
            created - dropped,
            snap.conflict_aborts
        );
    }
}
