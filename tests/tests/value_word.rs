//! The value word, from outside: every list-based map keeps a present key's
//! binding in one `CasWord` of the node, which `put` swaps, `remove` kills and
//! a found `get` registers.  These tests hold that word to what a map owes its
//! callers, on the four `TxMap`s of `nbds` and their durable wrappers.
//!
//! * `handoff_*` — **every value written is handed on exactly once.**  Threads
//!   write unique tags with `put` and `insert`, take them out with `put` and
//!   `remove`, and log what each call returned.  At rest every tag that was
//!   written is *either* still the value of its key *or* was returned as the
//!   previous value by exactly one later `put`/`remove` — never both, never
//!   neither.  A `put` that wins its CAS on a node whose removal has already
//!   linearized writes a tag nobody will ever see again ("neither"); a `put`
//!   and a `remove` that both take the same old value fail "exactly one".
//!   Both happen as soon as the two linearize on different words of the node.
//!   Run standalone, and with the operations paired into transactions half
//!   of which abort — whose tags must never surface anywhere.  Half of the
//!   pairs are on one key, so a `put` after a lookup takes the value word
//!   the lookup found (the found-word memo) with 8 threads on the node.
//! * `edge_words_*` — the `u64`s around the inline/boxed boundary of the
//!   word's encoding round-trip through every operation.
//! * `every_value_is_dropped_once_*` — with a value type that counts its
//!   constructions and drops: a replaced, removed or never-committed value is
//!   dropped once, and so is one still in the map when the map goes.
//!
//! CI runs this file in the ASan + LSan pass and loops it in release under
//! ASan next to `skiplist_churn`: a use of a retired value box must be a
//! report, not luck.

use medley::util::FastRng;
use medley::{AbortReason, ThreadHandle, TxManager, TxResult};
use nbds::{MichaelHashMap, MichaelList, SkipList, SplitOrderedMap, TxMap, TxOrderedMap};
use pmem::{EpochAdvancer, NvmCostModel, PersistenceDomain};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use txmontage::Durable;

/// More than there are cores, so that threads are preempted mid-operation.
const THREADS: usize = 8;
/// Operations (or transactions) per thread and run.
const OPS: usize = if cfg!(debug_assertions) {
    3_000
} else {
    30_000
};

/// What one thread saw: the `(key, tag)` pairs it bound, the ones it was
/// handed back as a previous value, and the ones a read showed it.
#[derive(Default)]
struct Log {
    written: Vec<(u64, u64)>,
    returned: Vec<(u64, u64)>,
    seen: Vec<(u64, u64)>,
}

impl Log {
    fn append(&mut self, other: &mut Log) {
        self.written.append(&mut other.written);
        self.returned.append(&mut other.returned);
        self.seen.append(&mut other.seen);
    }
}

/// One random operation on `key`, binding `tag` if it writes.
fn step<M: TxMap<u64>, C: medley::Ctx>(
    map: &M,
    cx: &mut C,
    op: u64,
    key: u64,
    tag: u64,
    log: &mut Log,
) {
    match op {
        0..=2 => {
            log.written.push((key, tag));
            if let Some(old) = map.put(cx, key, tag) {
                log.returned.push((key, old));
            }
        }
        3 => {
            if map.insert(cx, key, tag) {
                log.written.push((key, tag));
            }
        }
        4 | 5 => {
            if let Some(old) = map.remove(cx, key) {
                log.returned.push((key, old));
            }
        }
        _ => {
            if let Some(v) = map.get(cx, key) {
                log.seen.push((key, v));
            }
        }
    }
}

/// Runs the workload — standalone operations, or two-operation transactions
/// of which every other one aborts — and checks the hand-off property.
fn handoff<M: TxMap<u64>>(mgr: &Arc<TxManager>, map: &M, keys: u64, transactional: bool) {
    let logs: Vec<(Log, Vec<u64>)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                s.spawn(move || {
                    let mut h = mgr.register();
                    let mut rng = FastRng::new(0x7A6 + t as u64);
                    // Unique, and never 0: thread in the top bits.
                    let mut next_tag = ((t as u64 + 1) << 48) | 1;
                    let mut log = Log::default();
                    let mut aborted_tags = Vec::new();
                    for i in 0..OPS {
                        let mut draw = |rng: &mut FastRng| {
                            next_tag += 1;
                            (rng.next_below(7), rng.next_below(keys), next_tag)
                        };
                        if !transactional {
                            let (op, key, tag) = draw(&mut rng);
                            step(map, &mut h.nontx(), op, key, tag, &mut log);
                            continue;
                        }
                        let abort = i % 2 == 1;
                        // Fresh tags per attempt: what an attempt that did
                        // not commit wrote must not be found anywhere.
                        let mut attempt_tags = Vec::new();
                        let res: TxResult<Log> = h.run(|tx| {
                            let mut mine = Log::default();
                            let mut first = None;
                            for _ in 0..2 {
                                let (op, mut key, tag) = draw(&mut rng);
                                // Half the time the second op takes the
                                // first one's key, as a read-modify-write
                                // does: the put then CASes the word the
                                // lookup before it found.
                                if let Some(k) = first.filter(|_| rng.next_below(2) == 0) {
                                    key = k;
                                }
                                first = Some(key);
                                attempt_tags.push(tag);
                                step(map, tx, op, key, tag, &mut mine);
                            }
                            if abort {
                                return Err(tx.abort(AbortReason::Explicit));
                            }
                            Ok(mine)
                        });
                        match res {
                            Ok(mut mine) => {
                                let kept: HashSet<u64> =
                                    mine.written.iter().map(|&(_, tag)| tag).collect();
                                attempt_tags.retain(|tag| !kept.contains(tag));
                                log.append(&mut mine);
                            }
                            Err(e) => assert!(abort, "transaction failed: {e:?}"),
                        }
                        aborted_tags.append(&mut attempt_tags);
                    }
                    (log, aborted_tags)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("worker panicked"))
            .collect()
    });

    let mut h = mgr.register();
    let live: HashMap<u64, u64> = (0..keys)
        .filter_map(|k| map.get(&mut h.nontx(), k).map(|v| (k, v)))
        .collect();
    let mut written = HashMap::new();
    let mut never = HashSet::new();
    for (log, aborted) in &logs {
        for &(key, tag) in &log.written {
            assert!(written.insert(tag, key).is_none(), "tag {tag:#x} reused");
        }
        never.extend(aborted.iter().copied());
    }
    let mut handed = HashMap::<u64, u32>::new();
    for (log, _) in &logs {
        for &(key, tag) in log.returned.iter().chain(&log.seen) {
            assert!(
                !never.contains(&tag),
                "tag {tag:#x} of an attempt that never committed surfaced"
            );
            assert_eq!(
                written.get(&tag),
                Some(&key),
                "tag {tag:#x} read under key {key} was never written there"
            );
        }
        for &(_, tag) in &log.returned {
            *handed.entry(tag).or_default() += 1;
        }
    }
    for (key, tag) in &live {
        assert_eq!(
            written.get(tag),
            Some(key),
            "live value {tag:#x} of key {key} was never written there"
        );
    }
    let (mut lost, mut twice, mut both) = (0, 0, 0);
    for (tag, key) in &written {
        let is_live = live.get(key) == Some(tag);
        match (handed.get(tag).copied().unwrap_or(0), is_live) {
            (0, true) | (1, false) => {}
            (0, false) => lost += 1,
            (_, true) => both += 1,
            (_, false) => twice += 1,
        }
    }
    assert_eq!(
        (lost, twice, both),
        (0, 0, 0),
        "of {} tags written: {lost} neither live nor handed on, {twice} handed on more than once, \
         {both} handed on and still live",
        written.len()
    );
    assert!(
        handed.len() > OPS / 8,
        "the load handed on only {} tags",
        handed.len()
    );
}

/// Both modes, on few keys (everybody on the same nodes) and on some more.
/// `make` also returns whatever has to live as long as the map.
fn handoff_all<M: TxMap<u64>, K>(make: impl Fn(&Arc<TxManager>) -> (M, K)) {
    for (keys, transactional) in [(4, false), (64, false), (4, true), (64, true)] {
        let mgr = TxManager::new();
        let (map, _kept) = make(&mgr);
        handoff(&mgr, &map, keys, transactional);
    }
}

/// A durable wrapper of `inner`, with a live advancer so that operations
/// cross epochs.
fn durable<M: TxMap<u64>>(mgr: &Arc<TxManager>, inner: M) -> (Durable<M, u64>, EpochAdvancer) {
    let domain = PersistenceDomain::new(Arc::clone(mgr), NvmCostModel::ZERO);
    let advancer = EpochAdvancer::spawn(Arc::clone(&domain), Duration::from_millis(1));
    (Durable::new(inner, domain), advancer)
}

#[test]
fn handoff_list() {
    handoff_all(|_| (MichaelList::<u64>::new(), ()));
}

#[test]
fn handoff_hash() {
    handoff_all(|_| (MichaelHashMap::<u64>::with_buckets(8), ()));
}

#[test]
fn handoff_elastic() {
    handoff_all(|_| (SplitOrderedMap::<u64>::new(), ()));
}

#[test]
fn handoff_skiplist() {
    handoff_all(|_| (SkipList::<u64>::new(), ()));
}

#[test]
fn handoff_durable_list() {
    handoff_all(|mgr| durable(mgr, MichaelList::new()));
}

#[test]
fn handoff_durable_hash() {
    handoff_all(|mgr| durable(mgr, MichaelHashMap::with_buckets(8)));
}

#[test]
fn handoff_durable_elastic() {
    handoff_all(|mgr| durable(mgr, SplitOrderedMap::new()));
}

#[test]
fn handoff_durable_skiplist() {
    handoff_all(|mgr| durable(mgr, SkipList::new()));
}

/// Small values live in the word itself, values from 2⁶³ up in a box.
const EDGES: [u64; 4] = [0, (1 << 63) - 1, 1 << 63, u64::MAX];

fn edge_words<M: TxMap<u64>>(map: &M, h: &mut ThreadHandle) {
    for (key, &v) in EDGES.iter().enumerate() {
        let key = key as u64;
        assert!(map.insert(&mut h.nontx(), key, v));
        assert!(!map.insert(&mut h.nontx(), key, !v), "present");
        assert_eq!(map.get(&mut h.nontx(), key), Some(v));
        assert!(map.contains(&mut h.nontx(), key));
        // Through every other edge and back, standalone and transactional.
        let mut cur = v;
        for &next in EDGES.iter().chain([&v]) {
            assert_eq!(map.put(&mut h.nontx(), key, next), Some(cur));
            assert_eq!(map.get(&mut h.nontx(), key), Some(next));
            let old = h.run(|tx| {
                let old = map.put(tx, key, cur);
                assert_eq!(map.get(tx, key), Some(cur), "own write");
                Ok(old)
            });
            assert_eq!(old, Ok(Some(next)));
            let old = h.run(|tx| Ok((map.get(tx, key), map.put(tx, key, next))));
            assert_eq!(old, Ok((Some(cur), Some(cur))));
            cur = next;
        }
        assert_eq!(map.remove(&mut h.nontx(), key), Some(v));
        assert_eq!(map.get(&mut h.nontx(), key), None);
        assert_eq!(map.put(&mut h.nontx(), key, v), None);
        let gone = h.run(|tx| Ok((map.remove(tx, key), map.get(tx, key))));
        assert_eq!(gone, Ok((Some(v), None)));
        assert_eq!(map.remove(&mut h.nontx(), key), None);
    }
}

fn edge_pages<M: TxOrderedMap<u64>>(map: &M, h: &mut ThreadHandle) {
    for (key, &v) in EDGES.iter().enumerate() {
        assert!(map.insert(&mut h.nontx(), key as u64, v));
    }
    let want: Vec<(u64, u64)> = EDGES
        .iter()
        .enumerate()
        .map(|(k, &v)| (k as u64, v))
        .collect();
    assert_eq!(map.range(&mut h.nontx(), 0..u64::MAX, 16), want);
    assert_eq!(
        h.run(|tx| Ok(map.range(tx, 0..u64::MAX, 16))),
        Ok(want.clone())
    );
    assert_eq!(map.range(&mut h.nontx(), 1..3, 16), want[1..3]);
}

#[test]
fn edge_words_round_trip_on_every_map() {
    let mgr = TxManager::new();
    let mut h = mgr.register();
    edge_words(&MichaelList::<u64>::new(), &mut h);
    edge_words(&MichaelHashMap::<u64>::with_buckets(2), &mut h);
    edge_words(&SplitOrderedMap::<u64>::new(), &mut h);
    let skip = SkipList::<u64>::new();
    edge_words(&skip, &mut h);
    edge_pages(&skip, &mut h);
}

#[test]
fn edge_words_round_trip_on_every_durable_map() {
    // One manager per persistence domain.
    fn on<M: TxMap<u64>>(inner: M, check: impl Fn(&Durable<M, u64>, &mut ThreadHandle)) {
        let mgr = TxManager::new();
        let (map, _advancer) = durable(&mgr, inner);
        check(&map, &mut mgr.register());
    }
    on(MichaelList::new(), edge_words);
    on(MichaelHashMap::with_buckets(2), edge_words);
    on(SplitOrderedMap::new(), edge_words);
    on(SkipList::new(), |m, h| {
        edge_words(m, h);
        edge_pages(m, h);
    });
}

/// Counts itself: constructions (clones included) and drops.
struct Counted {
    v: u64,
    tally: &'static Tally,
}

struct Tally {
    created: AtomicUsize,
    dropped: AtomicUsize,
}

impl Tally {
    const fn new() -> Self {
        Self {
            created: AtomicUsize::new(0),
            dropped: AtomicUsize::new(0),
        }
    }
    fn make(&'static self, v: u64) -> Counted {
        self.created.fetch_add(1, Ordering::Relaxed);
        Counted { v, tally: self }
    }
    /// Values in existence.
    fn alive(&self) -> usize {
        let (created, dropped) = (
            self.created.load(Ordering::Relaxed),
            self.dropped.load(Ordering::Relaxed),
        );
        assert!(dropped <= created, "{dropped} drops of {created} values");
        created - dropped
    }
}

impl Clone for Counted {
    fn clone(&self) -> Self {
        self.tally.make(self.v)
    }
}

impl Drop for Counted {
    fn drop(&mut self) {
        self.tally.dropped.fetch_add(1, Ordering::Relaxed);
    }
}

/// Every way a value can leave a map, or never get into it; then the map goes
/// with values still in it.  `alive` is checked where reclamation cannot be
/// lagging — nothing retired yet, or everything gone.
fn every_value_is_dropped_once<M: TxMap<Counted>>(tally: &'static Tally, map: M) {
    const KEYS: u64 = 32;
    let mgr = TxManager::new();
    {
        let mut h = mgr.register();
        for k in 0..KEYS {
            assert!(map.insert(&mut h.nontx(), k, tally.make(k)));
        }
        assert_eq!(tally.alive(), KEYS as usize);
        // A failed insert drops what it was given.
        assert!(!map.insert(&mut h.nontx(), 0, tally.make(99)));
        assert!(h.run(|tx| Ok(map.insert(tx, 1, tally.make(99)))) == Ok(false));
        assert_eq!(tally.alive(), KEYS as usize);
        // Aborted insert, replace and remove: the map is as it was, and so
        // is the count once the returned clones are gone.
        for k in 0..KEYS {
            let res: TxResult<()> = h.run(|tx| {
                assert!(map.insert(tx, KEYS + k, tally.make(k)));
                let old = map.put(tx, k, tally.make(k + 1)).expect("present");
                assert_eq!(old.v, k);
                assert_eq!(map.put(tx, k, tally.make(k + 2)).expect("own").v, k + 1);
                assert_eq!(
                    map.remove(tx, (k + 1) % KEYS).expect("present").v,
                    (k + 1) % KEYS
                );
                Err(tx.abort(AbortReason::Explicit))
            });
            assert!(res.is_err());
            assert_eq!(
                tally.alive(),
                KEYS as usize,
                "after aborted transaction {k}"
            );
        }
        // Committed: replace (standalone, transactional, twice in one
        // transaction), remove, remove-and-reinsert, insert-and-remove.
        for round in 0..200u64 {
            let k = round % KEYS;
            let old = map
                .put(&mut h.nontx(), k, tally.make(round))
                .expect("present");
            drop(old);
            let res = h.run(|tx| {
                map.put(tx, k, tally.make(round + 1));
                map.put(tx, k, tally.make(round + 2));
                let moved = map.remove(tx, (k + 1) % KEYS).expect("present");
                assert!(map.insert(tx, (k + 1) % KEYS, moved));
                assert!(map.insert(tx, KEYS + k, tally.make(0)));
                map.remove(tx, KEYS + k).expect("own insert");
                Ok(())
            });
            assert_eq!(res, Ok(()));
            if round % 3 == 0 {
                let gone = map.remove(&mut h.nontx(), k).expect("present");
                assert!(map.insert(&mut h.nontx(), k, gone));
            }
        }
        for k in 0..KEYS / 2 {
            assert!(map.remove(&mut h.nontx(), k).is_some());
        }
        assert!(tally.alive() >= (KEYS / 2) as usize);
    }
    drop(map);
    drop(mgr);
    assert_eq!(
        tally.alive(),
        0,
        "{} of {} values never dropped",
        tally.alive(),
        tally.created.load(Ordering::Relaxed)
    );
}

#[test]
fn every_value_is_dropped_once_list() {
    static TALLY: Tally = Tally::new();
    every_value_is_dropped_once(&TALLY, MichaelList::new());
}

#[test]
fn every_value_is_dropped_once_hash() {
    static TALLY: Tally = Tally::new();
    every_value_is_dropped_once(&TALLY, MichaelHashMap::with_buckets(4));
}

#[test]
fn every_value_is_dropped_once_elastic() {
    static TALLY: Tally = Tally::new();
    every_value_is_dropped_once(&TALLY, SplitOrderedMap::new());
}

#[test]
fn every_value_is_dropped_once_skiplist() {
    static TALLY: Tally = Tally::new();
    every_value_is_dropped_once(&TALLY, SkipList::new());
}
