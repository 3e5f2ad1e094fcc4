//! Read-registration property, per container: a **committed** read-only
//! transaction must have seen a serializable state.
//!
//! `audited_transfers` runs 8 threads of transfer transactions over a small
//! hot set (2 `get` + 2 `put`-replace, so every write linearizes on the found
//! node's value word) and, every 64th transaction, a read-only audit of all 32
//! accounts.  Transfers conserve the total, so every audit that commits must
//! sum to it.  An audit that registers the wrong word for a found key is not
//! invalidated by a concurrent replace and commits a sum that is off by one
//! in-flight transfer — which is how the read-registration bug fixed in PR 14
//! showed (1-3% of audits on the hash map).
//!
//! One instance per list-based container: the chained hash map, the elastic
//! map with its directory force-grown underneath, the skiplist, and the
//! durable wrappers of the first and the last with a live epoch advancer.
//!
//! `audited_ranges` is the same property for the ordered cursor: the audit is
//! one `range` page over all accounts, and every 8th transfer takes both
//! accounts *out* and puts them back (remove + insert in one transaction), so
//! that nodes die, are marked and unlinked, and new ones are linked next to
//! them while pages are being read.  A page registers two words per key —
//! the node's link, which an insert behind it must CAS, and its value word,
//! which a replace or a remove must — and a committed page that misses
//! either shows as a sum that is off, or as a missing account.

use integration_tests::StopOnDrop;
use medley::{AbortReason, TxManager, TxResult};
use nbds::{MichaelHashMap, SkipList, SplitOrderedMap, TxMap, TxOrderedMap};
use pmem::{EpochAdvancer, NvmCostModel, PersistenceDomain};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use txmontage::{DurableHashMap, DurableSkipList};

const ACCOUNTS: u64 = 32;
const INITIAL: u64 = 1_000;
const THREADS: usize = 8;
/// Most transfers hit a small hot set so 8 threads actually collide.
const HOT: u64 = 4;
/// Sized on the commit before the fix (release, 2 cores): the hash instance
/// saw 5-186 torn audits of 3000 in 20 of 20 runs, but none in 3 of 20 at
/// half this length.  The debug load keeps tier-1 quick.
const TXS_PER_THREAD: usize = if cfg!(debug_assertions) {
    3_000
} else {
    24_000
};

/// Runs the workload on `map`; `background`, if any, is called every 200 µs
/// from one more thread for as long as the workers run.
fn audited_transfers<M: TxMap<u64>>(
    mgr: &Arc<TxManager>,
    map: &M,
    background: Option<&(dyn Fn() + Sync)>,
) {
    {
        let mut h = mgr.register();
        for k in 0..ACCOUNTS {
            assert!(map.insert(&mut h.nontx(), k, INITIAL));
        }
    }
    let stop = AtomicBool::new(false);
    let audits = AtomicU64::new(0);
    let torn = AtomicU64::new(0);

    std::thread::scope(|s| {
        let _release = StopOnDrop(&stop);
        if let Some(tick) = background {
            let stop = &stop;
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    tick();
                    std::thread::sleep(Duration::from_micros(200));
                }
            });
        }
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let (audits, torn) = (&audits, &torn);
                s.spawn(move || {
                    let mut h = mgr.register();
                    let mut rng = medley::util::FastRng::new(t as u64 + 0xA0D1);
                    for i in 0..TXS_PER_THREAD {
                        if i % 64 == 0 {
                            let sum: TxResult<u64> = h.run(|tx| {
                                Ok((0..ACCOUNTS)
                                    .map(|k| map.get(tx, k).expect("account vanished"))
                                    .sum())
                            });
                            audits.fetch_add(1, Ordering::Relaxed);
                            if sum != Ok(ACCOUNTS * INITIAL) {
                                torn.fetch_add(1, Ordering::Relaxed);
                            }
                            continue;
                        }
                        let mut pick = || {
                            if rng.next_below(4) < 3 {
                                rng.next_below(HOT)
                            } else {
                                rng.next_below(ACCOUNTS)
                            }
                        };
                        let (from, to) = (pick(), pick());
                        if from == to {
                            continue;
                        }
                        let amt = 1 + rng.next_below(5);
                        let _ = h.run(|tx| {
                            let a = map.get(tx, from).expect("account vanished");
                            let b = map.get(tx, to).expect("account vanished");
                            if a < amt {
                                return Err(tx.abort(AbortReason::Explicit));
                            }
                            map.put(tx, from, a - amt);
                            map.put(tx, to, b + amt);
                            Ok(())
                        });
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().expect("worker thread panicked");
        }
    });

    let (audits, torn) = (audits.into_inner(), torn.into_inner());
    assert_eq!(
        torn, 0,
        "{torn} of {audits} committed audits observed a non-serializable state"
    );
    let mut h = mgr.register();
    let total: u64 = (0..ACCOUNTS)
        .map(|k| map.get(&mut h.nontx(), k).expect("account vanished"))
        .sum();
    assert_eq!(total, ACCOUNTS * INITIAL, "money must be conserved");
    h.flush_stats();
    drop(h);
    let snap = mgr.stats_snapshot();
    assert!(
        snap.conflict_aborts > 0 && snap.ro_commits > 0,
        "the load must conflict, and audits must take the read-only path: {snap:?}"
    );
}

#[test]
fn audited_transfers_hash() {
    let mgr = TxManager::new();
    audited_transfers(&mgr, &MichaelHashMap::<u64>::with_buckets(64), None);
}

#[test]
fn audited_transfers_elastic() {
    let mgr = TxManager::new();
    let map = SplitOrderedMap::<u64>::new();
    let grow = || {
        if map.buckets() < (1 << 16) {
            map.force_grow();
        }
    };
    audited_transfers(&mgr, &map, Some(&grow));
    assert!(map.grow_events() > 0, "the grower never managed a doubling");
    let (items, _) = map
        .check_integrity_quiescent()
        .expect("table integrity after concurrent growth");
    assert_eq!(items, ACCOUNTS);
}

#[test]
fn audited_transfers_skiplist() {
    let mgr = TxManager::new();
    let map = SkipList::<u64>::new();
    audited_transfers(&mgr, &map, None);
    assert_eq!(map.check_integrity_quiescent(), Ok((0, 0)));
}

/// A domain with a live advancer, so audits and transfers cross epochs.
fn durable_domain(mgr: &Arc<TxManager>) -> (Arc<PersistenceDomain>, EpochAdvancer) {
    let domain = PersistenceDomain::new(Arc::clone(mgr), NvmCostModel::ZERO);
    let advancer = EpochAdvancer::spawn(Arc::clone(&domain), Duration::from_millis(1));
    (domain, advancer)
}

#[test]
fn audited_transfers_durable_hash() {
    let mgr = TxManager::new();
    let (domain, _advancer) = durable_domain(&mgr);
    audited_transfers(&mgr, &DurableHashMap::hash_map(64, domain), None);
}

#[test]
fn audited_transfers_durable_skiplist() {
    let mgr = TxManager::new();
    let (domain, _advancer) = durable_domain(&mgr);
    let map = DurableSkipList::skip_list(domain);
    audited_transfers(&mgr, &map, None);
    assert_eq!(map.inner().check_integrity_quiescent(), Ok((0, 0)));
}

/// The range workload on `map`: 6 threads of transfers (every 8th by remove
/// and re-insert) and 2 of full-window pages in read-only transactions.
fn audited_ranges<M: TxOrderedMap<u64>>(mgr: &Arc<TxManager>, map: &M) {
    const WRITERS: usize = 6;
    {
        let mut h = mgr.register();
        for k in 0..ACCOUNTS {
            assert!(map.insert(&mut h.nontx(), k, INITIAL));
        }
    }
    let stop = AtomicBool::new(false);
    let audits = AtomicU64::new(0);
    let torn = AtomicU64::new(0);

    std::thread::scope(|s| {
        let release = StopOnDrop(&stop);
        for _ in WRITERS..THREADS {
            let (stop, audits, torn) = (&stop, &audits, &torn);
            s.spawn(move || {
                let mut h = mgr.register();
                while !stop.load(Ordering::Relaxed) {
                    let page = h
                        .run(|tx| Ok(map.range(tx, 0..ACCOUNTS, usize::MAX)))
                        .expect("a read-only transaction only ever retries");
                    audits.fetch_add(1, Ordering::Relaxed);
                    let sum: u64 = page.iter().map(|&(_, v)| v).sum();
                    let keys = page.iter().map(|&(k, _)| k);
                    if sum != ACCOUNTS * INITIAL || !keys.eq(0..ACCOUNTS) {
                        torn.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
        let writers: Vec<_> = (0..WRITERS)
            .map(|t| {
                s.spawn(move || {
                    let mut h = mgr.register();
                    let mut rng = medley::util::FastRng::new(t as u64 + 0x5CA9);
                    for i in 0..TXS_PER_THREAD / 2 {
                        let mut pick = || {
                            if rng.next_below(4) < 3 {
                                rng.next_below(HOT)
                            } else {
                                rng.next_below(ACCOUNTS)
                            }
                        };
                        let (from, to) = (pick(), pick());
                        if from == to {
                            continue;
                        }
                        let amt = 1 + rng.next_below(5);
                        let _ = h.run(|tx| {
                            // An attempt that is doomed may find an account
                            // gone (it read the way to a node before that
                            // node's removal and the node after); it retries.
                            let retry = AbortReason::Conflict;
                            let by_reinsert = i % 8 == 0;
                            let (a, b) = if by_reinsert {
                                (map.remove(tx, from), map.remove(tx, to))
                            } else {
                                (map.get(tx, from), map.get(tx, to))
                            };
                            let (Some(a), Some(b)) = (a, b) else {
                                return Err(tx.abort(retry));
                            };
                            if a < amt {
                                return Err(tx.abort(AbortReason::Explicit));
                            }
                            if !by_reinsert {
                                map.put(tx, from, a - amt);
                                map.put(tx, to, b + amt);
                            } else if !(map.insert(tx, from, a - amt)
                                && map.insert(tx, to, b + amt))
                            {
                                return Err(tx.abort(retry));
                            }
                            Ok(())
                        });
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().expect("writer thread panicked");
        }
        drop(release);
    });

    let (audits, torn) = (audits.into_inner(), torn.into_inner());
    assert_eq!(
        torn, 0,
        "{torn} of {audits} committed pages observed a non-serializable state"
    );
    assert!(audits > 0, "no page committed");
    let mut h = mgr.register();
    let page = map.range(&mut h.nontx(), 0..ACCOUNTS, usize::MAX);
    assert!(page.iter().map(|&(k, _)| k).eq(0..ACCOUNTS));
    let total: u64 = page.iter().map(|&(_, v)| v).sum();
    assert_eq!(total, ACCOUNTS * INITIAL, "money must be conserved");
}

#[test]
fn audited_ranges_skiplist() {
    let mgr = TxManager::new();
    let map = SkipList::<u64>::new();
    audited_ranges(&mgr, &map);
    assert_eq!(map.check_integrity_quiescent(), Ok((0, 0)));
}

#[test]
fn audited_ranges_durable_skiplist() {
    let mgr = TxManager::new();
    let (domain, _advancer) = durable_domain(&mgr);
    let map = DurableSkipList::skip_list(domain);
    audited_ranges(&mgr, &map);
    assert_eq!(map.inner().check_integrity_quiescent(), Ok((0, 0)));
}
