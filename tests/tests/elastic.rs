//! Elastic-table integration tests: transactions composing across a
//! [`nbds::SplitOrderedMap`] while its bucket directory is forcibly doubled
//! under them, and the service-layer view of the same machinery.
//!
//! * `transfers_conserve_across_a_force_grown_table` — 8 threads run
//!   transfer and multi-key-audit transactions over one elastic map booted
//!   at the minimum directory size while every thread periodically forces a
//!   directory doubling mid-traffic; the total must be conserved in every
//!   atomic audit and at the end, the table must pass its structural
//!   integrity check, and the statistics must show both real growth
//!   (`grow_events > 0`) and real contention (`conflict_aborts > 0`).
//! * `stats_reports_elastic_growth_over_the_wire` — an elastic server is
//!   loaded over loopback TCP until its shards double; the `STATS` reply's
//!   table section must report elastic shards, summed item counts matching
//!   the load, grown bucket counts, and nonzero grow events.

use integration_tests::StopOnDrop;
use medley::{AbortReason, TxManager, TxResult};
use nbds::SplitOrderedMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

#[test]
fn transfers_conserve_across_a_force_grown_table() {
    const ACCOUNTS: u64 = 32;
    const INITIAL: u64 = 1_000;
    const THREADS: usize = 8;
    // CI runs this file in release (where the full count exercises real
    // contention); debug `cargo test` keeps a load that finishes quickly.
    const TXS_PER_THREAD: usize = if cfg!(debug_assertions) {
        1_500
    } else {
        12_000
    };
    // Most transfers hit a small hot set so 8 threads actually collide.
    const HOT: u64 = 4;

    let mgr = TxManager::new();
    let map: Arc<SplitOrderedMap<u64>> = Arc::new(SplitOrderedMap::new());
    {
        let mut h = mgr.register();
        for k in 0..ACCOUNTS {
            assert!(map.insert(&mut h.nontx(), k, INITIAL));
        }
    }
    let stop = AtomicBool::new(false);

    std::thread::scope(|s| {
        // Releases the grower on every way out of the scope.
        let _release = StopOnDrop(&stop);
        // A dedicated grower doubles the directory throughout the run: every
        // transfer and audit below races sentinel insertion and directory
        // publication, which must stay invisible to their outcomes.
        let map_ref = &map;
        let stop_ref = &stop;
        s.spawn(move || {
            while !stop_ref.load(Ordering::Relaxed) {
                if map_ref.buckets() < (1 << 16) {
                    map_ref.force_grow();
                }
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
        });

        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let mgr = Arc::clone(&mgr);
                let map = Arc::clone(&map);
                s.spawn(move || {
                    let mut h = mgr.register();
                    let mut rng = medley::util::FastRng::new(t as u64 + 0xE1A);
                    for i in 0..TXS_PER_THREAD {
                        if i % 64 == 0 {
                            // Multi-key audit (the MGET shape): one atomic
                            // read-only snapshot of every account must observe
                            // the conserved total, mid-grow included.
                            let total: TxResult<u64> = h.run(|tx| {
                                let mut sum = 0;
                                for k in 0..ACCOUNTS {
                                    sum += map.get(tx, k).expect("account vanished");
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
                            continue;
                        }
                        let pick = |r: &mut medley::util::FastRng| {
                            if r.next_below(4) < 3 {
                                r.next_below(HOT)
                            } else {
                                r.next_below(ACCOUNTS)
                            }
                        };
                        let from = pick(&mut rng);
                        let to = pick(&mut rng);
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
        // Join the workers explicitly; leaving the closure then releases
        // the grower, which the scope itself would otherwise wait on forever.
        for w in workers {
            w.join().expect("worker thread panicked");
        }
    });

    let mut h = mgr.register();
    let total: u64 = (0..ACCOUNTS)
        .map(|k| map.get(&mut h.nontx(), k).expect("account vanished"))
        .sum();
    assert_eq!(total, ACCOUNTS * INITIAL, "money must be conserved");
    drop(h);

    assert!(
        map.grow_events() > 0,
        "the grower thread never managed a doubling"
    );
    assert!(
        map.buckets() > 2,
        "directory still at boot size after forced growth"
    );
    let (items, _) = map
        .check_integrity_quiescent()
        .expect("table integrity after concurrent growth");
    assert_eq!(items, ACCOUNTS);

    h = mgr.register();
    h.flush_stats();
    drop(h);
    let snap = mgr.stats_snapshot();
    assert!(
        snap.conflict_aborts > 0,
        "8 threads on {HOT} hot accounts must conflict: {snap:?}"
    );
    assert!(
        snap.ro_commits > 0,
        "audits must take the read-only path: {snap:?}"
    );
    assert!(
        snap.general_commits > 0,
        "transfers must take the general path: {snap:?}"
    );
}

#[test]
fn stats_reports_elastic_growth_over_the_wire() {
    use kvstore::{Client, Server, ServerConfig, ShardKind, StoreConfig, TableKind};

    const KEYS: u64 = 20_000;
    let cfg = ServerConfig {
        workers: 2,
        store: StoreConfig {
            tables: TableKind::Elastic,
            shards: 2,
            ..Default::default()
        },
        ..Default::default()
    };
    let server = Server::start(&cfg).expect("start elastic server");
    let addr = server.local_addr();

    let mut c = Client::connect(addr).expect("connect");
    let pairs: Vec<(u64, u64)> = (0..KEYS).map(|k| (k, k)).collect();
    for chunk in pairs.chunks(512) {
        c.mset(chunk).expect("load mset");
    }
    // A cross-shard atomic read still works on the grown tables.
    let got = c.mget(&[0, 1, KEYS - 1]).expect("mget");
    assert_eq!(got, vec![Some(0), Some(1), Some(KEYS - 1)]);

    let stats = c.stats().expect("stats");
    let tables = stats.tables.expect("elastic server must report tables");
    assert_eq!(tables.shards.len(), 2);
    assert!(
        tables.grow_events > 0,
        "{KEYS} keys into 2 boot-sized shards must grow: {tables:?}"
    );
    let mut items = 0;
    for sh in &tables.shards {
        assert_eq!(sh.kind, ShardKind::Elastic);
        assert!(
            sh.buckets > kvstore::ELASTIC_BOOT_BUCKETS as u64,
            "shard never left boot size: {tables:?}"
        );
        items += sh.items.expect("elastic shards maintain item counts");
    }
    assert_eq!(items, KEYS, "wire-reported items must match the load");
    server.shutdown();
}
