//! The found-word memo, from outside: a `put` that follows a lookup of the
//! same key in the same transaction CASes the value word that lookup found,
//! without searching.  Every case interleaves two handles by hand — one
//! transaction opened with `begin`, the other handle's standalone operations
//! between its steps — and runs on the four maps of `nbds` and on their
//! durable wrappers; the skiplists end with no deleted node left linked.
//!
//! * `a_foreign_replace_*` — the put writes over the value that is there
//!   now, the commit fails on the get's registered read, and the retry
//!   writes over the foreign value.
//! * `a_foreign_remove_and_reinsert_*` — the remembered word is dead, so the
//!   put searches and replaces in the new node (it returns the new node's
//!   value, not the dead word); the commit fails, the new node keeps its
//!   value, and the retry's value lands there.
//! * `the_own_remove_*` — after the transaction's own remove the put inserts
//!   the key again.
//! * `get_put_put_get_*` — the transaction reads its own last write.
//! * `an_aborted_attempt_*` — the node an aborted attempt looked up is
//!   removed and reclaimed before the next attempt, whose put must not touch
//!   it.  A memo entry that outlived its attempt would CAS freed memory.
//!   Without a sanitizer the freed node still reads "dead", and the put
//!   searches as it should; under ASan, which CI runs this file with, the
//!   allocator's bookkeeping overwrites it, and the put returns garbage.  (A
//!   word is read and written by inline assembly, which ASan does not see,
//!   so the test's assertion is what fails, not a report.)

use medley::{AbortReason, ThreadHandle, TxError, TxManager};
use nbds::{MichaelHashMap, MichaelList, SkipList, SplitOrderedMap, TxMap};
use pmem::{NvmCostModel, PersistenceDomain};
use std::sync::Arc;
use txmontage::Durable;

/// The key every case reads and writes; keys `0..KEYS` start out bound to
/// ten times themselves.
const KEY: u64 = 5;
const KEYS: u64 = 32;

/// One interleaving, run on a fresh manager and map.
trait Case {
    fn run<M: TxMap<u64>>(&self, mgr: &Arc<TxManager>, map: &M);
}

/// Two handles on `mgr` — the transaction's and the other one — with the
/// keys of `map` filled in.
fn handles<M: TxMap<u64>>(mgr: &Arc<TxManager>, map: &M) -> (ThreadHandle, ThreadHandle) {
    let (mine, mut other) = (mgr.register(), mgr.register());
    for k in 0..KEYS {
        assert!(map.insert(&mut other.nontx(), k, 10 * k));
    }
    (mine, other)
}

fn on_durable<M: TxMap<u64>>(case: &impl Case, inner: M) -> Durable<M, u64> {
    // One manager per persistence domain, and no advancer: the epoch stands
    // still, so only the interleaving decides a commit.
    let mgr = TxManager::new();
    let domain = PersistenceDomain::new(Arc::clone(&mgr), NvmCostModel::ZERO);
    let map = Durable::new(inner, domain);
    case.run(&mgr, &map);
    map
}

fn on_every_map(case: impl Case) {
    case.run(&TxManager::new(), &MichaelList::new());
    case.run(&TxManager::new(), &MichaelHashMap::with_buckets(8));
    case.run(&TxManager::new(), &SplitOrderedMap::new());
    let skip = SkipList::new();
    case.run(&TxManager::new(), &skip);
    assert_eq!(skip.check_integrity_quiescent(), Ok((0, 0)), "skiplist");
    on_durable(&case, MichaelList::new());
    on_durable(&case, MichaelHashMap::with_buckets(8));
    on_durable(&case, SplitOrderedMap::new());
    let skip = on_durable(&case, SkipList::new());
    assert_eq!(
        skip.inner().check_integrity_quiescent(),
        Ok((0, 0)),
        "durable skiplist"
    );
}

/// Reads `KEY` and writes it one higher, committing.
fn increment<M: TxMap<u64>>(h: &mut ThreadHandle, map: &M) -> Option<u64> {
    let res = h.run(|t| {
        let v = map.get(t, KEY).expect("present");
        Ok(map.put(t, KEY, v + 1))
    });
    res.expect("commits")
}

struct ForeignReplace;

impl Case for ForeignReplace {
    fn run<M: TxMap<u64>>(&self, mgr: &Arc<TxManager>, map: &M) {
        let (mut mine, mut other) = handles(mgr, map);
        let mut t = mine.begin();
        assert_eq!(map.get(&mut t, KEY), Some(50));
        assert_eq!(map.put(&mut other.nontx(), KEY, 60), Some(50));
        assert_eq!(map.put(&mut t, KEY, 51), Some(60), "what is there now");
        assert_eq!(t.commit(), Err(TxError::Conflict));
        assert_eq!(map.get(&mut other.nontx(), KEY), Some(60));
        assert_eq!(increment(&mut mine, map), Some(60));
        assert_eq!(map.get(&mut other.nontx(), KEY), Some(61));
    }
}

#[test]
fn a_foreign_replace_between_get_and_put_fails_the_commit() {
    on_every_map(ForeignReplace);
}

struct ForeignRemoveAndReinsert;

impl Case for ForeignRemoveAndReinsert {
    fn run<M: TxMap<u64>>(&self, mgr: &Arc<TxManager>, map: &M) {
        let (mut mine, mut other) = handles(mgr, map);
        let mut t = mine.begin();
        assert_eq!(map.get(&mut t, KEY), Some(50));
        assert_eq!(map.remove(&mut other.nontx(), KEY), Some(50));
        assert!(map.insert(&mut other.nontx(), KEY, 70));
        // A CAS on the dead word would have handed back "dead".
        assert_eq!(map.put(&mut t, KEY, 51), Some(70), "the new node");
        assert_eq!(t.commit(), Err(TxError::Conflict));
        assert_eq!(map.get(&mut other.nontx(), KEY), Some(70));
        assert_eq!(increment(&mut mine, map), Some(70));
        assert_eq!(map.get(&mut other.nontx(), KEY), Some(71));
    }
}

#[test]
fn a_foreign_remove_and_reinsert_between_get_and_put_fails_the_commit() {
    on_every_map(ForeignRemoveAndReinsert);
}

struct OwnRemoveThenPut;

impl Case for OwnRemoveThenPut {
    fn run<M: TxMap<u64>>(&self, mgr: &Arc<TxManager>, map: &M) {
        let (mut mine, mut other) = handles(mgr, map);
        let mut t = mine.begin();
        assert_eq!(map.get(&mut t, KEY), Some(50));
        assert_eq!(map.remove(&mut t, KEY), Some(50));
        assert_eq!(map.put(&mut t, KEY, 51), None, "inserted again");
        assert_eq!(map.get(&mut t, KEY), Some(51));
        assert_eq!(map.put(&mut t, KEY, 52), Some(51));
        assert_eq!(t.commit(), Ok(()));
        assert_eq!(map.get(&mut other.nontx(), KEY), Some(52));
        assert_eq!(map.get(&mut other.nontx(), KEY + 1), Some(60));
    }
}

#[test]
fn the_own_remove_then_put_inserts_the_key_again() {
    on_every_map(OwnRemoveThenPut);
}

struct GetPutPutGet;

impl Case for GetPutPutGet {
    fn run<M: TxMap<u64>>(&self, mgr: &Arc<TxManager>, map: &M) {
        let (mut mine, mut other) = handles(mgr, map);
        let mut t = mine.begin();
        assert_eq!(map.get(&mut t, KEY), Some(50));
        assert_eq!(map.put(&mut t, KEY, 51), Some(50));
        assert_eq!(map.put(&mut t, KEY, 52), Some(51));
        assert_eq!(map.get(&mut t, KEY), Some(52), "the last write");
        assert_eq!(map.get(&mut other.nontx(), KEY), Some(50), "buffered");
        assert_eq!(t.commit(), Ok(()));
        assert_eq!(map.get(&mut other.nontx(), KEY), Some(52));
    }
}

#[test]
fn get_put_put_get_reads_its_own_last_write() {
    on_every_map(GetPutPutGet);
}

struct AbortedAttemptForgets;

impl Case for AbortedAttemptForgets {
    fn run<M: TxMap<u64>>(&self, mgr: &Arc<TxManager>, map: &M) {
        let (mut mine, mut other) = handles(mgr, map);
        let mut t = mine.begin();
        assert_eq!(map.get(&mut t, KEY), Some(50));
        let _ = t.abort(AbortReason::Conflict);
        drop(t);
        // Between the attempts the node is removed, and churn on other keys
        // moves the reclamation epochs on until it is freed.
        assert_eq!(map.remove(&mut other.nontx(), KEY), Some(50));
        for i in 0..4_000 {
            let k = KEYS + i % 64;
            assert!(map.insert(&mut other.nontx(), k, i));
            assert_eq!(map.remove(&mut other.nontx(), k), Some(i));
        }
        assert!(map.insert(&mut other.nontx(), KEY, 70));
        let mut t = mine.begin();
        assert_eq!(map.put(&mut t, KEY, 71), Some(70));
        assert_eq!(t.commit(), Ok(()));
        assert_eq!(map.get(&mut other.nontx(), KEY), Some(71));
    }
}

#[test]
fn an_aborted_attempt_leaves_nothing_for_the_next_to_recall() {
    on_every_map(AbortedAttemptForgets);
}
