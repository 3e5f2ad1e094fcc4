//! Multi-threaded stress tests for the commit pipeline: conservation
//! invariants under 8 threads × 10 000 transactions exercising the
//! single-CAS direct commit, the descriptor-free read-only commit, and the
//! general descriptor path in one workload — plus a 16-thread zipfian
//! hot-word stress that drives the *contended* regime (install conflicts,
//! helping) and asserts it actually happened via the statistics.

use bench::workload::{run_hot_transfer, KeyDist, ThroughputConfig};
use medley::{AbortReason, CasWord, Ctx, TxManager, TxResult};
use nbds::{MichaelHashMap, MsQueue, SplitOrderedMap, TxMap, TxQueue};
use std::sync::Arc;

const THREADS: usize = 8;
const TXS_PER_THREAD: usize = 10_000;

/// Bank-transfer invariant across raw `CasWord`s: a mix of two-word
/// transfers (general MCNS path), single-word deposits matched by later
/// withdrawals (single-CAS fast path), and read-only audits (descriptor-free
/// path).  The sum over all accounts must be invariant, every audit must
/// observe the invariant, and the statistics must show that all three commit
/// paths actually ran.
#[test]
fn bank_transfer_conservation_across_cas_words() {
    const ACCOUNTS: u64 = 16;
    const INITIAL: u64 = 1_000;
    let mgr = TxManager::new();
    let accounts: Arc<Vec<CasWord>> =
        Arc::new((0..ACCOUNTS).map(|_| CasWord::new(INITIAL)).collect());

    let mut joins = Vec::new();
    for t in 0..THREADS {
        let mgr = Arc::clone(&mgr);
        let accounts = Arc::clone(&accounts);
        joins.push(std::thread::spawn(move || {
            let mut h = mgr.register();
            let mut rng = medley::util::FastRng::new(t as u64 + 1);
            for _ in 0..TXS_PER_THREAD {
                match rng.next_below(5) {
                    // Two-word transfer: general descriptor path.
                    0..=2 => {
                        let from = rng.next_below(ACCOUNTS) as usize;
                        let to = rng.next_below(ACCOUNTS) as usize;
                        if from == to {
                            continue;
                        }
                        let amt = 1 + rng.next_below(5);
                        let _ = h.run(|t| {
                            let a = t.nbtc_load(&accounts[from]);
                            let b = t.nbtc_load(&accounts[to]);
                            if a < amt {
                                return Err(t.abort(AbortReason::Explicit));
                            }
                            if !t.nbtc_cas(&accounts[from], a, a - amt, true, true) {
                                return Err(t.abort(AbortReason::Conflict));
                            }
                            if !t.nbtc_cas(&accounts[to], b, b + amt, true, true) {
                                return Err(t.abort(AbortReason::Conflict));
                            }
                            Ok(())
                        });
                    }
                    // Self-transfer rebalance: a single-CAS transaction that
                    // does not change the total (add then subtract on one
                    // account within the same speculative write).
                    3 => {
                        let acc = rng.next_below(ACCOUNTS) as usize;
                        let _ = h.run(|t| {
                            let v = t.nbtc_load(&accounts[acc]);
                            if !t.nbtc_cas(&accounts[acc], v, v + 7, true, true) {
                                return Err(t.abort(AbortReason::Conflict));
                            }
                            // Rewrite of the same buffered word: still one
                            // write-set entry, still the direct commit.
                            if !t.nbtc_cas(&accounts[acc], v + 7, v, true, true) {
                                return Err(t.abort(AbortReason::Conflict));
                            }
                            Ok(())
                        });
                    }
                    // Read-only audit: must always observe the invariant.
                    _ => {
                        let total: TxResult<u64> = h.run(|t| {
                            let mut sum = 0;
                            for w in accounts.iter() {
                                let (v, c) = t.nbtc_load_counted(w);
                                t.add_read_with_counter(w, v, c);
                                sum += v;
                            }
                            Ok(sum)
                        });
                        if let Ok(sum) = total {
                            assert_eq!(
                                sum,
                                ACCOUNTS * INITIAL,
                                "audit observed a non-serializable state"
                            );
                        }
                    }
                }
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }

    let total: u64 = accounts.iter().map(|w| w.try_load_value().unwrap()).sum();
    assert_eq!(total, ACCOUNTS * INITIAL, "money must be conserved");

    let snap = mgr.stats_snapshot();
    assert!(snap.commits > 0);
    assert!(
        snap.fast_commits > 0,
        "single-CAS transactions must take the direct path: {snap:?}"
    );
    assert!(
        snap.ro_commits > 0,
        "read-only audits must take the descriptor-free path: {snap:?}"
    );
    assert!(
        snap.commits > snap.fast_commits + snap.ro_commits,
        "two-word transfers must exercise the general path: {snap:?}"
    );
}

/// Conservation under *hot* contention: 16 threads hammer 8 accounts with
/// zipfian-picked transfers (theta 0.99 concentrates most traffic on one or
/// two words), interleaved with read-only audits that must always observe
/// the invariant.  The workload itself is `bench::workload::run_hot_transfer`,
/// which asserts conservation internally (mid-run audits and an end-of-run
/// total).
/// On top of that, this test asserts the contended regime actually
/// materialized: nonzero `conflict_aborts` (lost installs / invalidated
/// reads), nonzero `helps` (a thread finalized someone else's published
/// descriptor), and a commit-path mix covering the general and read-only
/// paths.  Because descriptors are only visible during the commit window
/// under lazy publication, a single short round on a small host may not
/// produce a help; the workload repeats (bounded) until the counters are
/// nonzero.
#[test]
fn zipfian_hot_word_contention_stress() {
    const WORDS: u64 = 8;
    const MAX_ROUNDS: usize = 10;
    let cfg = ThroughputConfig {
        threads: 16,
        duration: std::time::Duration::from_millis(100),
        dist: KeyDist::Zipfian(0.99),
    };

    let mut commits = 0u64;
    let mut general_commits = 0u64;
    let mut ro_commits = 0u64;
    let mut conflict_aborts = 0u64;
    let mut helps = 0u64;
    for _ in 0..MAX_ROUNDS {
        let r = run_hot_transfer(&cfg, WORDS);
        commits += r.stats.commits;
        general_commits += r.stats.general_commits;
        ro_commits += r.stats.ro_commits;
        conflict_aborts += r.stats.conflict_aborts;
        helps += r.stats.helps;
        if conflict_aborts > 0 && helps > 0 {
            break;
        }
    }

    assert!(commits > 0);
    assert!(
        general_commits > 0,
        "zipfian transfers must exercise the general path (commits={commits})"
    );
    assert!(
        ro_commits > 0,
        "audits must exercise the read-only path (commits={commits})"
    );
    assert!(
        conflict_aborts > 0,
        "a hot {WORDS}-word set under 16 threads must produce conflicts (commits={commits})"
    );
    assert!(
        helps > 0,
        "contended commits must produce cross-thread helping (commits={commits})"
    );
}

/// Token conservation across a queue and a map: transactions move tokens
/// queue→table and table→queue; lone enqueues/dequeues and lookups exercise
/// the fast paths through the `nbds` containers.  Generic over [`TxMap`] so
/// the same composition stress covers every map implementation; `snapshot`
/// drains the map's final state (not part of the trait).
fn run_queue_map_transfer<M>(table: Arc<M>, snapshot: impl FnOnce(&M) -> Vec<(u64, u64)>)
where
    M: TxMap<u64> + 'static,
{
    const TOKENS: u64 = 64;
    let mgr = TxManager::new();
    let queue: Arc<MsQueue<u64>> = Arc::new(MsQueue::new());
    // Drive the queue exclusively through the `TxQueue` trait object surface
    // (generically), proving queues are harness-swappable like maps.
    fn enq<Q: TxQueue<u64>, C: Ctx>(q: &Q, cx: &mut C, v: u64) {
        q.enqueue(cx, v);
    }
    fn deq<Q: TxQueue<u64>, C: Ctx>(q: &Q, cx: &mut C) -> Option<u64> {
        q.dequeue(cx)
    }
    {
        let mut h = mgr.register();
        for tok in 0..TOKENS {
            enq(&*queue, &mut h.nontx(), tok);
        }
    }

    let mut joins = Vec::new();
    for t in 0..THREADS {
        let mgr = Arc::clone(&mgr);
        let queue = Arc::clone(&queue);
        let table = Arc::clone(&table);
        joins.push(std::thread::spawn(move || {
            let mut h = mgr.register();
            let mut rng = medley::util::FastRng::new(t as u64 + 101);
            for _ in 0..TXS_PER_THREAD {
                match rng.next_below(4) {
                    // Queue → table (two containers, general path).
                    0 => {
                        let _ = h.run(|t| {
                            if let Some(tok) = deq(&*queue, t) {
                                // Helper markers from case 2 are consumed by
                                // the dequeue alone; real tokens move into
                                // the table.
                                if tok != u64::MAX && !table.insert(t, tok, tok) {
                                    // Inconsistent speculation: retry.
                                    return Err(t.abort(AbortReason::Conflict));
                                }
                            }
                            Ok(())
                        });
                    }
                    // Table → queue.
                    1 => {
                        let k = rng.next_below(TOKENS);
                        let _ = h.run(|t| {
                            if let Some(tok) = table.remove(t, k) {
                                enq(&*queue, t, tok);
                            }
                            Ok(())
                        });
                    }
                    // Lone enqueue+dequeue round trip: single-op txs through
                    // the direct-commit path.
                    2 => {
                        let _ = h.run(|t| {
                            enq(&*queue, t, u64::MAX);
                            Ok(())
                        });
                        let _ = h.run(|t| {
                            // The helper token may be interleaved with real
                            // tokens; push non-tokens back where a real token
                            // was drawn.
                            if let Some(tok) = deq(&*queue, t) {
                                if tok != u64::MAX {
                                    enq(&*queue, t, tok);
                                    return Err(t.abort(AbortReason::Explicit));
                                }
                            }
                            Ok(())
                        });
                    }
                    // Read-only lookup transaction.
                    _ => {
                        let k = rng.next_below(TOKENS);
                        let _ = h.run(|t| {
                            if let Some(v) = table.get(t, k) {
                                assert_eq!(v, k, "value must always match its key");
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

    // Drain and count: every original token exists exactly once across the
    // two structures (helper tokens from case 2 were balanced out by the
    // explicit aborts, but count whatever remains defensively).
    let mut h = mgr.register();
    let mut seen = std::collections::HashSet::new();
    while let Some(tok) = queue.dequeue(&mut h.nontx()) {
        if tok != u64::MAX {
            assert!(seen.insert(tok), "token {tok} duplicated");
        }
    }
    for (k, v) in snapshot(table.as_ref()) {
        assert_eq!(k, v);
        assert!(seen.insert(k), "token {k} duplicated across structures");
    }
    assert_eq!(seen.len() as u64, TOKENS, "tokens must be conserved");
    drop(h);

    let snap = mgr.stats_snapshot();
    assert!(
        snap.fast_commits > 0,
        "container fast path never taken: {snap:?}"
    );
    assert!(
        snap.ro_commits > 0,
        "container read-only path never taken: {snap:?}"
    );
}

#[test]
fn queue_hashtable_transfer_conserves_tokens() {
    run_queue_map_transfer(
        Arc::new(MichaelHashMap::<u64>::with_buckets(128)),
        MichaelHashMap::snapshot,
    );
}

/// The same queue↔map composition over the elastic table with **zero
/// pre-sizing**: it boots at the minimum directory and any growth happens
/// while the transactional traffic is live.
#[test]
fn queue_split_ordered_transfer_conserves_tokens() {
    run_queue_map_transfer(
        Arc::new(SplitOrderedMap::<u64>::new()),
        SplitOrderedMap::snapshot,
    );
}
