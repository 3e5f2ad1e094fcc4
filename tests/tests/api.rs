//! Tests of the typestate `Ctx`/`Txn` API surface: panic safety of the
//! `Txn` drop guard, equivalence of the `NonTx` and `Txn` execution
//! contexts under concurrency, exact statistics on handle drop, and the
//! `RunConfig` retry policy.
//!
//! (The *compile-time* guarantees — a `Txn` cannot escape its closure, a
//! second `begin` is rejected, standalone calls cannot overlap an open
//! transaction — are `compile_fail` doc-tests on `medley::Txn`.)

use medley::{AbortReason, CasWord, Ctx, RunConfig, TxError, TxManager, TxResult};
use nbds::{MichaelHashMap, MsQueue, SkipList, TxMap, TxQueue};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Regression test for the panic-safety bug: a panic inside a `run` body
/// used to leave `ThreadHandle::in_tx == true` with an installed descriptor,
/// wedging the handle (the next `tx_begin` would assert) and blocking every
/// other thread that touched the poisoned words.  The `Txn` drop guard must
/// abort on unwind: the handle stays reusable and no word is left carrying
/// the descriptor.  Both transactions write two words, so they are on the
/// general (published-descriptor) path by shape.
#[test]
fn panic_inside_run_aborts_and_leaves_handle_reusable() {
    let mgr = TxManager::new();
    let mut h = mgr.register();
    let a = CasWord::new(10);
    let b = CasWord::new(20);

    let result = catch_unwind(AssertUnwindSafe(|| {
        let _: TxResult<()> = h.run(|t| {
            assert!(t.nbtc_cas(&a, 10, 11, true, true));
            assert!(t.nbtc_cas(&b, 20, 21, true, true));
            panic!("boom in transaction body");
        });
    }));
    assert!(result.is_err(), "the panic must propagate");

    // The descriptor must be uninstalled and the speculation rolled back:
    // a plain observer sees the pre-transaction values, not a descriptor.
    assert_eq!(a.try_load_value(), Some(10));
    assert_eq!(b.try_load_value(), Some(20));
    assert!(!h.in_tx(), "unwind must close the transaction");

    // The handle — and its descriptor — is reusable: a fresh two-word
    // transaction publishes it and commits.
    let res = h.run(|t| {
        let (va, vb) = (t.nbtc_load(&a), t.nbtc_load(&b));
        assert!(t.nbtc_cas(&a, va, va + 5, true, true));
        assert!(t.nbtc_cas(&b, vb, vb + 5, true, true));
        Ok(())
    });
    assert!(res.is_ok());
    assert_eq!(a.try_load_value(), Some(15));
    assert_eq!(b.try_load_value(), Some(25));

    h.flush_stats();
    let snap = mgr.stats_snapshot();
    assert_eq!(snap.unwind_aborts, 1, "the unwind abort must be recorded");
    assert_eq!(snap.commits, 1);
    assert_eq!(
        (snap.general_commits, snap.fast_commits),
        (1, 0),
        "a two-word transaction commits through the descriptor"
    );
}

/// Same regression through a container: the panic unwinds out of a skiplist
/// insert transaction and the structure stays consistent and usable.
#[test]
fn panic_mid_container_transaction_rolls_back() {
    let mgr = TxManager::new();
    let mut h = mgr.register();
    let sl = SkipList::<u64>::new();
    assert!(sl.insert(&mut h.nontx(), 1, 10));

    let result = catch_unwind(AssertUnwindSafe(|| {
        let _: TxResult<()> = h.run(|t| {
            assert_eq!(sl.remove(t, 1), Some(10));
            assert!(sl.insert(t, 2, 20));
            panic!("boom after two speculative container ops");
        });
    }));
    assert!(result.is_err());
    assert!(!h.in_tx());
    assert_eq!(sl.get(&mut h.nontx(), 1), Some(10), "remove rolled back");
    assert_eq!(sl.get(&mut h.nontx(), 2), None, "insert rolled back");
    assert_eq!(sl.len_quiescent(), 1);
}

/// Statistics are exact after a handle drop, without a manual
/// `flush_stats` call (the batched per-thread tallies flush in `Drop`).
#[test]
fn handle_drop_flushes_batched_stats_exactly() {
    let mgr = TxManager::new();
    let w = CasWord::new(0);
    const COMMITS: u64 = 7; // deliberately below the flush batch size
    {
        let mut h = mgr.register();
        for _ in 0..COMMITS {
            let res: TxResult<()> = h.run(|t| {
                let v = t.nbtc_load(&w);
                assert!(t.nbtc_cas(&w, v, v + 1, true, true));
                Ok(())
            });
            assert!(res.is_ok());
        }
        let _: TxResult<()> = h.run(|t| Err(t.abort(AbortReason::Explicit)));
        // No flush_stats here: dropping the handle must flush.
    }
    let snap = mgr.stats_snapshot();
    assert_eq!(snap.commits, COMMITS);
    assert_eq!(snap.aborts, 1);
    assert_eq!(snap.explicit_aborts, 1);
    assert_eq!(snap.fast_commits, COMMITS);
}

/// The bounded retry policy surfaces `RetriesExhausted` and the abort-reason
/// counters classify what happened.
#[test]
fn run_config_bounds_retries_and_stats_classify_aborts() {
    let mgr = TxManager::new();
    let mut h = mgr.register();
    let cfg = RunConfig::new().max_retries(2).backoff_limit(1);
    let mut attempts = 0u32;
    let res: TxResult<()> = h.run_with(&cfg, |t| {
        attempts += 1;
        Err(t.abort(AbortReason::Conflict))
    });
    assert_eq!(res, Err(TxError::RetriesExhausted));
    assert_eq!(attempts, 3);
    h.flush_stats();
    let snap = mgr.stats_snapshot();
    assert_eq!(snap.conflict_aborts, 3);
    assert_eq!(snap.aborts, 3);
    assert_eq!(snap.commits, 0);
}

/// 8-thread stress driving the *same* workload through both execution
/// contexts: half the operations run standalone (`NonTx`), half
/// transactionally (`Txn`), over a map and a queue.  Token conservation must
/// hold and all three commit paths must fire.
#[test]
fn mixed_nontx_and_txn_contexts_conserve_tokens() {
    const THREADS: usize = 8;
    const OPS: usize = 10_000;
    const TOKENS: u64 = 64;
    let mgr = TxManager::new();
    let table: Arc<MichaelHashMap<u64>> = Arc::new(MichaelHashMap::with_buckets(128));
    let queue: Arc<MsQueue<u64>> = Arc::new(MsQueue::new());
    {
        let mut h = mgr.register();
        for tok in 0..TOKENS {
            assert!(table.insert(&mut h.nontx(), tok, tok));
        }
    }

    let mut joins = Vec::new();
    for tix in 0..THREADS {
        let mgr = Arc::clone(&mgr);
        let table = Arc::clone(&table);
        let queue = Arc::clone(&queue);
        joins.push(std::thread::spawn(move || {
            let mut h = mgr.register();
            let mut rng = medley::util::FastRng::new(tix as u64 + 31);
            for _ in 0..OPS {
                let k = rng.next_below(TOKENS);
                match rng.next_below(5) {
                    // Lone single-op transactions (single-CAS direct-commit
                    // candidates): enqueue a sentinel, then try to dequeue
                    // it back; a real token drawn instead is restored by the
                    // explicit abort.
                    4 => {
                        let _ = h.run(|t| {
                            queue.enqueue(t, u64::MAX);
                            Ok(())
                        });
                        let _ = h.run(|t| {
                            if let Some(tok) = queue.dequeue(t) {
                                if tok != u64::MAX {
                                    queue.enqueue(t, tok);
                                    return Err(t.abort(AbortReason::Explicit));
                                }
                            }
                            Ok(())
                        });
                    }
                    // Transactional move table -> queue (two containers).
                    0 => {
                        let _ = h.run(|t| {
                            if let Some(tok) = table.remove(t, k) {
                                queue.enqueue(t, tok);
                            }
                            Ok(())
                        });
                    }
                    // Transactional move queue -> table.  Sentinels from
                    // case 4 are consumed by the dequeue alone (re-inserting
                    // one would wedge every later sentinel in a retry loop).
                    1 => {
                        let _ = h.run(|t| {
                            if let Some(tok) = queue.dequeue(t) {
                                if tok != u64::MAX && !table.insert(t, tok, tok) {
                                    // Own speculation went inconsistent
                                    // (duplicate observed): retry.
                                    return Err(t.abort(AbortReason::Conflict));
                                }
                            }
                            Ok(())
                        });
                    }
                    // Standalone reads (uninstrumented path).
                    2 => {
                        let mut cx = h.nontx();
                        if let Some(v) = table.get(&mut cx, k) {
                            assert_eq!(v, k, "value must match its key");
                        }
                        let _ = table.contains(&mut cx, k);
                    }
                    // Read-only transaction (descriptor-free commit).
                    _ => {
                        let _ = h.run(|t| {
                            if let Some(v) = table.get(t, k) {
                                assert_eq!(v, k);
                            }
                            Ok(())
                        });
                    }
                }
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }

    // Conservation: every token exists exactly once across both structures.
    let mut h = mgr.register();
    let mut seen = std::collections::HashSet::new();
    while let Some(tok) = queue.dequeue(&mut h.nontx()) {
        if tok != u64::MAX {
            assert!(seen.insert(tok), "token {tok} duplicated");
        }
    }
    for (k, v) in table.snapshot() {
        assert_eq!(k, v);
        assert!(seen.insert(k), "token {k} duplicated across structures");
    }
    assert_eq!(seen.len() as u64, TOKENS, "tokens must be conserved");
    drop(h);

    let snap = mgr.stats_snapshot();
    assert!(snap.commits > 0);
    assert!(
        snap.fast_commits > 0,
        "single-CAS direct commits must fire: {snap:?}"
    );
    assert!(
        snap.ro_commits > 0,
        "descriptor-free read-only commits must fire: {snap:?}"
    );
}

/// A transaction overflowing the descriptor's write capacity through a
/// container must surface `CapacityExceeded` instead of livelocking the
/// container's retry loop (regression: the overflowed CAS used to report
/// failure, which `insert` treats as contention and retries forever; it is
/// buffered like every other, and the commit refuses).
#[test]
fn container_transaction_over_capacity_fails_cleanly() {
    let mgr = TxManager::new();
    let mut h = mgr.register();
    let map = MichaelHashMap::<u64>::with_buckets(1 << 13);
    let n = (medley::MAX_ENTRIES + 2) as u64;
    let res: TxResult<()> = h.run(|t| {
        for k in 0..n {
            map.insert(t, k, k);
        }
        Ok(())
    });
    assert_eq!(res, Err(TxError::CapacityExceeded));
    assert!(!h.in_tx());
    assert_eq!(map.len_quiescent(), 0, "speculative inserts rolled back");
    // The handle and map stay usable afterwards.
    assert!(map.insert(&mut h.nontx(), 1, 1));
    assert_eq!(map.get(&mut h.nontx(), 1), Some(1));
}

/// A range page registers two reads per key it returns (the node's link and
/// its value word) plus the link it entered through, and the read set holds
/// twice what the write set does: an atomic page is as wide as it was when a
/// key cost one read — one key short of `MAX_ENTRIES` — and a wider one
/// reports the capacity instead of committing a page it did not validate.
#[test]
fn atomic_range_page_is_bounded_by_the_read_capacity() {
    let mgr = TxManager::new();
    let mut h = mgr.register();
    let sl = SkipList::<u64>::new();
    let n = medley::MAX_ENTRIES as u64;
    for k in 0..n {
        assert!(sl.insert(&mut h.nontx(), k, k));
    }
    let sl = &sl;
    let mut page = |limit: usize| h.run(|t| Ok(sl.range(t, 0..u64::MAX, limit)));
    let widest = page(medley::MAX_ENTRIES - 1).expect("fits");
    assert!(widest.iter().map(|&(k, _)| k).eq(0..n - 1));
    assert_eq!(page(medley::MAX_ENTRIES), Err(TxError::CapacityExceeded));
    assert!(!h.in_tx());
}

/// The generic trait surface composes across containers: one function drives
/// any `TxMap` + `TxQueue` pair in either context.
#[test]
fn trait_level_composition_works_in_both_contexts() {
    fn transfer_in<M: TxMap<u64>, Q: TxQueue<u64>>(
        h: &mut medley::ThreadHandle,
        map: &M,
        q: &Q,
        key: u64,
    ) -> TxResult<()> {
        h.run(|t| {
            let v = map
                .remove(t, key)
                .ok_or_else(|| t.abort(AbortReason::Explicit))?;
            q.enqueue(t, v);
            Ok(())
        })
    }

    let mgr = TxManager::new();
    let mut h = mgr.register();
    let map = MichaelHashMap::<u64>::with_buckets(16);
    let queue = MsQueue::<u64>::new();
    assert!(map.insert(&mut h.nontx(), 3, 33));

    assert!(transfer_in(&mut h, &map, &queue, 3).is_ok());
    assert_eq!(
        transfer_in(&mut h, &map, &queue, 3),
        Err(TxError::Explicit),
        "missing key aborts explicitly"
    );
    assert_eq!(queue.dequeue(&mut h.nontx()), Some(33));
    assert!(queue.is_empty(&mut h.nontx()));
}
