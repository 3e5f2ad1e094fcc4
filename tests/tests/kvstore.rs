//! Service-layer integration tests: the kvstore server driven over real
//! loopback TCP connections.
//!
//! * `transfer_stress_conserves_over_loopback` — 8 pipelined client
//!   connections hammer `TRANSFER` over a hot zipfian keyset while
//!   read-only `MGETB` audits — interleaved on those connections and
//!   back-to-back on a ninth — assert the total balance is conserved *in
//!   every atomic snapshot*, not just at the end; afterwards the exact
//!   post-drain statistics must show real contention (`conflict_aborts >
//!   0`) and a consistent commit-path partition (`commits == fast + ro +
//!   general`).
//! * `durable_restart_recovers_sync_acked_state` — a durable server with a
//!   manual epoch clock is stopped after a `SYNC`; the recovered map must
//!   equal exactly the state the `SYNC` acknowledged (later un-synced
//!   writes lost), and a "restarted" server reloaded from that cut serves
//!   it back over the wire.

use bench::workload::KeyDist;
use integration_tests::{mget_words, mset_words};
use kvstore::{Client, Cmd, KvError, Server, ServerConfig, StoreBackend, StoreConfig, TableKind};
use medley::util::FastRng;
use pmem::Value;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

#[test]
fn transfer_stress_conserves_over_loopback() {
    const ACCOUNTS: u64 = 8;
    const INITIAL: u64 = 1 << 20;
    const CONNECTIONS: usize = 8;
    const ROUNDS: u64 = 1500;

    let cfg = ServerConfig {
        workers: 4,
        store: StoreConfig {
            // Mixed tables: the hot accounts spread over hash *and*
            // skiplist shards, so transfers compose different structure
            // types in one transaction.
            tables: TableKind::Mixed,
            shards: 4,
            ..Default::default()
        },
        ..Default::default()
    };
    let server = Server::start(&cfg).expect("start server");
    let addr = server.local_addr();

    {
        let mut c = Client::connect(addr).expect("preload");
        let pairs: Vec<(u64, u64)> = (0..ACCOUNTS).map(|k| (k, INITIAL)).collect();
        mset_words(&mut c, &pairs).expect("preload mset");
    }

    /// Counts a transfer client as finished however it exits, so a panic in
    /// one of them cannot leave the audit client (and the scope) waiting.
    struct Finished<'a>(&'a AtomicUsize);
    impl Drop for Finished<'_> {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }
    let finished = AtomicUsize::new(0);
    let finished = &finished;

    let audits = std::thread::scope(|s| {
        // One more client does nothing but audit: back-to-back MGETBs over
        // all accounts for as long as transfers run, every reply of which
        // must conserve the total.
        let auditor = s.spawn(move || {
            let mut c = Client::connect(addr).expect("connect auditor");
            let keys: Vec<u64> = (0..ACCOUNTS).collect();
            let mut audits = 0u64;
            while finished.load(Ordering::Relaxed) < CONNECTIONS {
                let vals = mget_words(&mut c, &keys).expect("audit mget");
                let sum: u64 = vals.iter().map(|v| v.expect("account present")).sum();
                assert_eq!(sum, ACCOUNTS * INITIAL, "audit client saw a torn state");
                audits += 1;
            }
            audits
        });
        for t in 0..CONNECTIONS {
            s.spawn(move || {
                let _finished = Finished(finished);
                let mut c = Client::connect(addr).expect("connect");
                let sampler = KeyDist::Zipfian(0.99).sampler(ACCOUNTS);
                let mut rng = FastRng::new(0x7AA + t as u64);
                for i in 1..=ROUNDS {
                    if i.is_multiple_of(64) {
                        // Read-only audit: one atomic MGETB snapshot across
                        // all shards must conserve the total even while
                        // transfers are mid-flight on other connections.
                        let keys: Vec<u64> = (0..ACCOUNTS).collect();
                        let vals = mget_words(&mut c, &keys).expect("audit mget");
                        let sum: u64 = vals.iter().map(|v| v.expect("account present")).sum();
                        assert_eq!(sum, ACCOUNTS * INITIAL, "audit saw a torn state");
                        continue;
                    }
                    let from = sampler.sample(&mut rng);
                    let mut to = sampler.sample(&mut rng);
                    if to == from {
                        to = (to + 1) % ACCOUNTS;
                    }
                    match c.transfer(from, to, 1) {
                        Ok(_) => {}
                        // Balance drained or retry budget exhausted: both
                        // leave the store untouched.
                        Err(KvError::Server(_)) => {}
                        Err(e) => panic!("transport failure: {e}"),
                    }
                }
            });
        }
        auditor.join().expect("audit client panicked")
    });
    assert!(audits > 0, "the audit client never completed an MGETB");

    // Final conservation check over the wire.
    {
        let mut c = Client::connect(addr).expect("final check");
        let keys: Vec<u64> = (0..ACCOUNTS).collect();
        let vals = mget_words(&mut c, &keys).expect("final mget");
        let sum: u64 = vals.iter().map(|v| v.expect("account present")).sum();
        assert_eq!(sum, ACCOUNTS * INITIAL, "transfers must conserve balance");
    }

    // Drain the pool: every worker handle drops and flushes, so the
    // snapshot below is exact.
    let store = server.shutdown();
    let snap = store.manager().stats_snapshot();
    assert!(snap.commits > 0, "stress must commit: {snap:?}");
    assert_eq!(
        snap.commits,
        snap.fast_commits + snap.ro_commits + snap.general_commits,
        "commit paths must partition commits exactly: {snap:?}"
    );
    assert!(
        snap.general_commits > 0,
        "transfers publish descriptors: {snap:?}"
    );
    assert!(
        snap.conflict_aborts > 0,
        "a hot zipfian keyset under 8 connections must conflict: {snap:?}"
    );
}

#[test]
fn scan_stress_conserves_over_loopback() {
    // 8 pipelined connections hammer TRANSFER over range-partitioned
    // skiplist shards while interleaved SCANs audit the whole key space:
    // a scan page is one atomic read-only transaction, so every page must
    // be ordered, complete, and conserve the total balance even with
    // transfers mid-flight on the other connections.
    const ACCOUNTS: u64 = 64;
    const INITIAL: u64 = 1 << 16;
    const CONNECTIONS: usize = 8;
    const ROUNDS: u64 = 800;

    let cfg = ServerConfig {
        workers: 4,
        store: StoreConfig {
            tables: TableKind::Skip,
            shards: 4,
            ..Default::default()
        },
        ..Default::default()
    };
    let server = Server::start(&cfg).expect("start server");
    let addr = server.local_addr();
    // Stride accounts across the u64 space so the range partition spreads
    // them over every shard (and scans cross shard boundaries).
    let stride = u64::MAX / ACCOUNTS;

    {
        let mut c = Client::connect(addr).expect("preload");
        let pairs: Vec<(u64, u64)> = (0..ACCOUNTS).map(|i| (i * stride, INITIAL)).collect();
        mset_words(&mut c, &pairs).expect("preload mset");
    }

    std::thread::scope(|s| {
        for t in 0..CONNECTIONS {
            s.spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                let sampler = KeyDist::Zipfian(0.99).sampler(ACCOUNTS);
                let mut rng = FastRng::new(0x5CA2 + t as u64);
                for i in 1..=ROUNDS {
                    if i.is_multiple_of(16) {
                        // Read-only audit: one atomic ordered page of the
                        // whole space.
                        let page = c.scan(0, u64::MAX, ACCOUNTS as u32).expect("audit scan");
                        assert_eq!(page.len() as u64, ACCOUNTS, "scan missed accounts");
                        let mut sum = 0u64;
                        let mut prev: Option<u64> = None;
                        for (k, v) in &page {
                            assert!(prev < Some(*k), "page keys must be strictly ascending");
                            prev = Some(*k);
                            sum += v.as_u64().expect("word-only workload");
                        }
                        assert_eq!(sum, ACCOUNTS * INITIAL, "scan saw a torn state");
                        continue;
                    }
                    let from = sampler.sample(&mut rng);
                    let mut to = sampler.sample(&mut rng);
                    if to == from {
                        to = (to + 1) % ACCOUNTS;
                    }
                    match c.transfer(from * stride, to * stride, 1) {
                        Ok(_) => {}
                        Err(KvError::Server(_)) => {}
                        Err(e) => panic!("transport failure: {e}"),
                    }
                }
            });
        }
    });

    // Final page over the wire, then exact post-drain statistics.
    {
        let mut c = Client::connect(addr).expect("final check");
        let page = c.scan(0, u64::MAX, ACCOUNTS as u32).expect("final scan");
        let sum: u64 = page
            .iter()
            .map(|(_, v)| v.as_u64().expect("word-only workload"))
            .sum();
        assert_eq!(sum, ACCOUNTS * INITIAL, "transfers must conserve balance");
    }
    let store = server.shutdown();
    let snap = store.manager().stats_snapshot();
    assert!(
        snap.ro_commits > 0,
        "scans commit on the read-only path: {snap:?}"
    );
    assert!(
        snap.general_commits > 0,
        "transfers publish descriptors: {snap:?}"
    );
}

#[test]
fn durable_restart_recovers_sync_acked_state() {
    let cfg = ServerConfig {
        workers: 2,
        store: StoreConfig {
            backend: StoreBackend::Durable,
            // Manual epoch clock: only SYNC moves the durability horizon,
            // so the recovery cut is exactly the last acknowledged SYNC.
            advancer_period: None,
            tables: TableKind::Mixed,
            shards: 4,
            ..Default::default()
        },
        ..Default::default()
    };
    let server = Server::start(&cfg).expect("start durable server");
    let addr = server.local_addr();

    // Mutate the store while mirroring the expected contents client-side.
    let mut expected: HashMap<u64, u64> = HashMap::new();
    let mut c = Client::connect(addr).expect("connect");
    let mut rng = FastRng::new(42);
    for k in 0..64u64 {
        let v = rng.next_u64() >> 1;
        c.put_b(k, &v.to_le_bytes()).expect("put");
        expected.insert(k, v);
    }
    for k in (0..64u64).step_by(3) {
        c.del_b(k).expect("del");
        expected.remove(&k);
    }
    mset_words(&mut c, &[(100, 1), (101, 2), (102, 3)]).expect("mset");
    expected.extend([(100, 1), (101, 2), (102, 3)]);

    // The durability cut: everything above is acknowledged durable.
    let epoch = c.sync().expect("sync");
    assert!(epoch >= 1);

    // Post-sync writes: acknowledged, but *not* covered by the cut (the
    // epoch clock is manual, so nothing advances past them).
    for k in 200..232u64 {
        c.put_b(k, &k.to_le_bytes()).expect("post-sync put");
    }
    c.del_b(101).expect("post-sync del");
    drop(c);

    // "Crash": stop the server without another sync.
    let store = server.shutdown();
    let recovered = store.recover();
    let recovered: HashMap<u64, u64> = recovered
        .into_iter()
        .map(|(k, v)| (k, v.as_u64().expect("word-only workload")))
        .collect();
    assert_eq!(
        recovered, expected,
        "recovery must equal exactly the SYNC-acknowledged state"
    );

    // "Restart": bring up a fresh server seeded from the recovered cut and
    // verify the state round-trips over the wire.
    let server2 = Server::start(&cfg).expect("restart server");
    let mut c = Client::connect(server2.local_addr()).expect("reconnect");
    let pairs: Vec<(u64, u64)> = recovered.iter().map(|(&k, &v)| (k, v)).collect();
    for chunk in pairs.chunks(256) {
        mset_words(&mut c, chunk).expect("reload");
    }
    for (&k, &v) in &expected {
        let got = c.get_b(k).expect("get");
        assert_eq!(got, Some(Value::U64(v)), "key {k} after restart");
    }
    assert_eq!(
        c.get_b(201).expect("get"),
        None,
        "un-synced write must be lost"
    );
    assert_eq!(
        c.get_b(101).expect("get"),
        Some(Value::U64(2)),
        "un-synced delete must be rolled back by recovery"
    );
    drop(c);
    server2.shutdown();
}

#[test]
fn batch_transactions_over_the_wire_are_atomic() {
    // A BATCH is one transaction: a concurrent reader pipelining MGETBs must
    // never observe a partially applied batch (the two keys are flipped
    // together every time).
    const FLIPS: u64 = 400;
    let server = Server::start(&ServerConfig::default()).expect("start server");
    let addr = server.local_addr();
    {
        let mut c = Client::connect(addr).expect("preload");
        mset_words(&mut c, &[(1, 0), (2, 1)]).expect("mset");
    }
    std::thread::scope(|s| {
        s.spawn(move || {
            let mut c = Client::connect(addr).expect("writer");
            for i in 0..FLIPS {
                let (a, b) = ((i + 1) % 2, i % 2);
                let put = |k, v| Cmd::PutB(k, Value::U64(v));
                c.batch(vec![put(1, a), put(2, b)]).expect("batch");
            }
        });
        s.spawn(move || {
            let mut c = Client::connect(addr).expect("reader");
            for _ in 0..FLIPS {
                let vals = mget_words(&mut c, &[1, 2]).expect("mget");
                let (a, b) = (vals[0].unwrap(), vals[1].unwrap());
                assert_eq!(a + b, 1, "snapshot split a batch: {a} + {b}");
            }
        });
    });
    server.shutdown();
}

#[test]
fn durable_server_with_live_advancer_recovers_prefix() {
    // With a real ticking epoch clock, a recovery cut taken mid-run is a
    // consistent prefix: per-key values only move forward (each key is
    // written with increasing values by a single connection).
    let cfg = ServerConfig {
        workers: 2,
        store: StoreConfig {
            backend: StoreBackend::Durable,
            advancer_period: Some(Duration::from_micros(100)),
            ..Default::default()
        },
        ..Default::default()
    };
    let server = Server::start(&cfg).expect("start server");
    let addr = server.local_addr();
    let mut c = Client::connect(addr).expect("connect");
    for round in 1..=200u64 {
        for k in 0..8u64 {
            c.put_b(k, &round.to_le_bytes()).expect("put");
        }
    }
    let synced_epoch = c.sync().expect("sync");
    assert!(synced_epoch >= 1);
    drop(c);
    let store = server.shutdown();
    let rec = store.recover();
    for k in 0..8u64 {
        assert_eq!(
            rec.get(&k),
            Some(&Value::U64(200)),
            "final sync must cover key {k}"
        );
    }
}
