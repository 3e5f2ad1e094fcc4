//! Recovery stress for the sharded persistence domain: multi-threaded
//! prefix-consistency of recovered cuts, and payload-accounting invariants
//! under abort storms — all with a live background `EpochAdvancer`, so every
//! run crosses many durability horizons while operations are in flight.

use medley::{AbortReason, TxManager, TxResult};
use pmem::{EpochAdvancer, NvmCostModel, PersistenceDomain};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use txmontage::DurableHashMap;

/// 8 threads hammer a durable map with puts and removes across (at least)
/// 8 epochs, each thread periodically `sync`ing and recording the durable
/// floor it is now guaranteed.  Every concurrent recovery — and the final
/// one — must be a prefix-consistent cut:
///
/// * **nothing durable missing** — for every key, the recovered value is at
///   least the last value whose `sync` completed before the recovery
///   started (values are monotone per key, so "at least" is the cut check);
/// * **nothing newer than the horizon** — the recovered value was actually
///   written: it never exceeds the last value the owner wrote.
#[test]
fn recovery_is_a_prefix_consistent_cut_under_fire() {
    const THREADS: usize = 8;
    const KEYS_PER_THREAD: u64 = 8;
    const ROUNDS: u64 = 300;
    let mgr = TxManager::with_max_threads(THREADS + 2);
    let domain = PersistenceDomain::new(Arc::clone(&mgr), NvmCostModel::ZERO);
    let map = Arc::new(DurableHashMap::hash_map(256, Arc::clone(&domain)));
    let advancer = EpochAdvancer::spawn(Arc::clone(&domain), Duration::from_micros(50));

    // `floors[k]` is a value for key `k` whose durability has been
    // guaranteed by a completed sync; `ceilings[k]` the newest value ever
    // written.  Writers only increase both.
    let floors: Vec<AtomicU64> = (0..THREADS as u64 * KEYS_PER_THREAD)
        .map(|_| AtomicU64::new(0))
        .collect();
    let ceilings: Vec<AtomicU64> = (0..THREADS as u64 * KEYS_PER_THREAD)
        .map(|_| AtomicU64::new(0))
        .collect();

    std::thread::scope(|s| {
        for t in 0..THREADS as u64 {
            let mgr = Arc::clone(&mgr);
            let map = Arc::clone(&map);
            let (floors, ceilings) = (&floors, &ceilings);
            s.spawn(move || {
                let mut h = mgr.register();
                for i in 1..=ROUNDS {
                    let k = t * KEYS_PER_THREAD + (i % KEYS_PER_THREAD);
                    // Ceiling first: the value may be visible the moment the
                    // put linearizes.
                    ceilings[k as usize].fetch_max(i, Ordering::SeqCst);
                    map.put(&mut h.nontx(), k, i);
                    if i % 32 == 0 {
                        // Everything completed before this sync is durable
                        // forever after.
                        map.sync();
                        floors[k as usize].fetch_max(i, Ordering::SeqCst);
                    }
                    if i % 64 == 17 {
                        // Removes churn payload retirement; the key is
                        // re-put with a larger value on the next round that
                        // hits it, so monotonicity is preserved (a removed
                        // key simply has no recovered entry).
                        map.remove(&mut h.nontx(), k);
                    }
                }
                map.sync();
            });
        }
        // Concurrent recoveries while the writers run.
        let check = |rec: &HashMap<u64, u64>, floors_at_start: &[u64]| {
            for (k, v) in rec {
                let ceiling = ceilings[*k as usize].load(Ordering::SeqCst);
                assert!(
                    *v <= ceiling,
                    "key {k}: recovered {v} was never written (ceiling {ceiling})"
                );
            }
            for (k, floor) in floors_at_start.iter().enumerate() {
                if *floor == 0 {
                    continue;
                }
                // The key may have been legitimately removed after the
                // floor was set; but if present, it must not be older.
                if let Some(v) = rec.get(&(k as u64)) {
                    assert!(
                        *v >= *floor,
                        "key {k}: recovered {v} older than durable floor {floor}"
                    );
                }
            }
        };
        for _ in 0..100 {
            let floors_at_start: Vec<u64> =
                floors.iter().map(|f| f.load(Ordering::SeqCst)).collect();
            let (rec, _horizon) = map.recover_with_horizon();
            check(&rec, &floors_at_start);
        }
    });
    drop(advancer);

    // Quiescent check: after a final sync the recovery equals the live map
    // exactly, and the domain accounting is consistent.
    domain.sync();
    let rec = map.recover();
    let mut h = mgr.register();
    let mut cx = h.nontx();
    let mut live = 0usize;
    for k in 0..THREADS as u64 * KEYS_PER_THREAD {
        let in_map = map.get(&mut cx, k);
        assert_eq!(rec.get(&k).copied(), in_map, "final cut differs on key {k}");
        live += usize::from(in_map.is_some());
    }
    assert_eq!(rec.len(), live);
    let stats = domain.stats();
    assert_eq!(stats.live_payloads, live);
    assert_eq!(
        stats.live_payloads + stats.free_slots,
        stats.allocated_slots,
        "every non-live slot must be on a free list exactly once: {stats:?}"
    );
    assert!(
        stats.persisted_epoch >= 8,
        "the stress must actually span many epochs: {stats:?}"
    );
}

/// Abort storms: transactions allocate payloads and then roll back (explicit
/// aborts and epoch-validation conflicts).
/// Abandoned payloads must all be recycled — live counts reflect only
/// committed state and every allocated slot is either live or free after a
/// quiescent sync.
#[test]
fn abort_storms_leak_no_payloads() {
    const THREADS: usize = 8;
    const ROUNDS: u64 = 400;
    let mgr = TxManager::with_max_threads(THREADS + 2);
    let domain = PersistenceDomain::new(Arc::clone(&mgr), NvmCostModel::ZERO);
    let map = Arc::new(DurableHashMap::hash_map(256, Arc::clone(&domain)));
    let advancer = EpochAdvancer::spawn(Arc::clone(&domain), Duration::from_micros(50));
    std::thread::scope(|s| {
        for t in 0..THREADS as u64 {
            let mgr = Arc::clone(&mgr);
            let map = Arc::clone(&map);
            s.spawn(move || {
                let mut h = mgr.register();
                for i in 0..ROUNDS {
                    let k = (t << 32) | (i % 16);
                    if i % 2 == 0 {
                        // Committed baseline traffic.
                        let _: TxResult<()> = h.run(|tx| {
                            map.put(tx, k, i);
                            Ok(())
                        });
                    } else {
                        // The storm: multi-payload transactions that
                        // always roll back.
                        let r: TxResult<()> = h.run(|tx| {
                            map.put(tx, k, i);
                            map.put(tx, k ^ 1, i);
                            map.remove(tx, k);
                            Err(tx.abort(AbortReason::Explicit))
                        });
                        assert!(r.is_err());
                    }
                }
            });
        }
    });
    drop(advancer);
    domain.sync();
    domain.sync();
    let rec = map.recover();
    let stats = domain.stats();
    assert_eq!(
        stats.live_payloads,
        rec.len(),
        "live payloads must equal recoverable keys: {stats:?}"
    );
    assert_eq!(
        stats.live_payloads + stats.free_slots,
        stats.allocated_slots,
        "abort storm leaked payload slots: {stats:?}"
    );
    // Aborted values (odd rounds) must never be recovered: every
    // recovered value came from a committed even-round put.
    for (k, v) in &rec {
        assert!(v % 2 == 0, "aborted put of {v} for key {k} was recovered");
    }
}
