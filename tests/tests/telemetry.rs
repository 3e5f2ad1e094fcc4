//! Observability integration tests: the telemetry layer driven over real
//! loopback TCP connections, plus the allocation guard for the hot path.
//!
//! * `metrics_attribute_ops_and_aborts_over_loopback` — mixed traffic
//!   (including forced application errors) against a default server; the
//!   `METRICS` reply must attribute at least three distinct opcodes with
//!   non-zero latency totals and at least one abort-reason counter.
//! * `trace_with_zero_threshold_captures_every_request` — a single-worker
//!   server with `slow_threshold = 0` traces every tracked request, so the
//!   ring's record/eviction counts are exactly determined by the command
//!   count and capacity.
//! * `prometheus_page_shows_the_event_loop_counters` — the exposition page
//!   and `Server::event_stats` (the `STATS` event-loop section) render the
//!   same registry counters, with the clock on and off.
//! * `telemetry_hot_path_does_not_allocate` — a counting global allocator
//!   wraps the whole test binary; recording latencies, errors, phase time,
//!   counters and steady-state trace pushes must not allocate at all.  The count is
//!   per thread, so the server tests running beside it on another core do
//!   not show up in it.
//! * `replace_*`, `insert_*`, `remove_*`, `durable_*` — the same allocator
//!   pins what a map update costs: nothing for a `put` that finds its key
//!   when the value is a word, one box when it is not, one node for an
//!   insert, nothing for a remove until its node is retired, and nothing
//!   for a durable `put` of a word, whose index keeps the payload id as an
//!   inline word.  What a transaction
//!   defers to its commit or abort is stored inline; only the skiplist's
//!   index maintenance, which carries its search hints, is boxed.

use kvstore::{Client, Server, ServerConfig, StoreConfig, TableKind, TelemetryConfig};
use medley::{ThreadHandle, TxManager};
use nbds::{MichaelHashMap, SkipList, SplitOrderedMap, TxMap};
use obs::{MetricsRegistry, RegistrySpec, TraceRecord, TraceRing};
use pmem::{NvmCostModel, PersistenceDomain, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use std::time::Duration;
use txmontage::DurableHashMap;

/// System allocator wrapped with an allocation counter.  Installed for the
/// whole test binary; individual tests read deltas around the region they
/// care about.
struct CountingAlloc;

thread_local! {
    /// Allocations made by the current thread.  Const-initialized and
    /// without a destructor, so touching it from inside the allocator never
    /// allocates or runs after teardown.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn count_allocation() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn metrics_attribute_ops_and_aborts_over_loopback() {
    let cfg = ServerConfig {
        workers: 2,
        store: StoreConfig {
            tables: TableKind::Mixed,
            shards: 4,
            ..Default::default()
        },
        ..Default::default()
    };
    let server = Server::start(&cfg).expect("start server");
    let mut c = Client::connect(server.local_addr()).expect("connect");

    let (v1000, v2000) = (1000u64.to_le_bytes(), 2000u64.to_le_bytes());
    for k in 0..32u64 {
        c.put_b(k, &v1000).expect("put");
    }
    for k in 0..32u64 {
        assert_eq!(c.get_b(k).expect("get"), Some(Value::U64(1000)));
    }
    for k in 0..8u64 {
        c.cas_b(k, &v1000, &v2000).expect("cas");
    }
    for k in 0..8u64 {
        c.transfer(k, k + 8, 1).expect("transfer");
    }
    // Forced application errors: transfers from keys that do not exist
    // must surface as abort-reason counters in the exposition.
    for k in 1000..1008u64 {
        assert!(c.transfer(k, 0, 1).is_err(), "missing source must fail");
    }

    let m = c.metrics().expect("metrics");
    assert!(m.uptime_secs < 3600, "sane uptime");
    let active: Vec<_> = m.ops.iter().filter(|o| o.hist.total() > 0).collect();
    assert!(
        active.len() >= 3,
        "expected >=3 active opcodes, got {:?}",
        m.ops.iter().map(|o| o.opcode).collect::<Vec<_>>()
    );
    let total_aborts: u64 = m.ops.iter().flat_map(|o| o.aborts.iter()).sum();
    assert!(total_aborts >= 8, "forced errors must be counted as aborts");
    // Event-loop phase accounting: something was decoded and executed.
    assert_eq!(m.worker_phases.len(), cfg.workers);
    let phase_total: u64 = m.worker_phases.iter().flatten().sum();
    assert!(phase_total > 0, "phase accounting saw no work");

    // The Prometheus rendering of the same snapshot names the ops.
    let page = server
        .telemetry()
        .expect("telemetry on by default")
        .render_prometheus();
    assert!(page.contains("kvstore_uptime_seconds"));
    assert!(page.contains("kvstore_op_latency_ns_bucket{op=\"get_b\""));
    assert!(page.contains("kvstore_op_aborts_total"));

    server.shutdown();
}

#[test]
fn trace_with_zero_threshold_captures_every_request() {
    const CAPACITY: usize = 16;
    const COMMANDS: u64 = 100;

    let cfg = ServerConfig {
        // One worker, one connection: every tracked request lands in the
        // same ring, so the arithmetic below is exact.
        workers: 1,
        store: StoreConfig {
            shards: 2,
            ..Default::default()
        },
        telemetry: TelemetryConfig {
            slow_threshold: Duration::ZERO,
            trace_capacity: CAPACITY,
            ..Default::default()
        },
        ..Default::default()
    };
    let server = Server::start(&cfg).expect("start server");
    let mut c = Client::connect(server.local_addr()).expect("connect");

    for k in 0..COMMANDS {
        c.put_b(k, &k.to_le_bytes()).expect("put");
    }
    // TRACE itself is an admin command and must not trace itself.
    let t = c.trace().expect("trace");
    assert_eq!(t.records.len(), CAPACITY);
    assert_eq!(t.evicted, COMMANDS - CAPACITY as u64);
    for r in &t.records {
        assert_eq!(r.status, 0, "all puts succeeded");
        assert!(r.exec_ns > 0, "execution took nonzero time");
    }
    // Idempotent: a second dump sees the same ring (the dump itself did
    // not add records).
    let t2 = c.trace().expect("trace again");
    assert_eq!(t2.records.len(), CAPACITY);
    assert_eq!(t2.evicted, t.evicted);

    server.shutdown();
}

#[test]
fn prometheus_page_shows_the_event_loop_counters() {
    for enabled in [true, false] {
        let cfg = ServerConfig {
            workers: 2,
            telemetry: TelemetryConfig {
                enabled,
                ..Default::default()
            },
            ..Default::default()
        };
        let server = Server::start(&cfg).expect("start server");
        let mut c = Client::connect(server.local_addr()).expect("connect");
        for k in 0..64u64 {
            c.put_b(k, &k.to_le_bytes()).expect("put");
        }
        let tel = server
            .telemetry()
            .expect("a server always keeps its counts");
        // Idle workers still count a wait per poll timeout: take a page
        // between two equal readings, so it shows exactly those values.
        let (events, page) = loop {
            let before = server.event_stats();
            let page = tel.render_prometheus();
            if server.event_stats() == before {
                break (before, page);
            }
        };
        assert!(events.epoll_waits > 0 && events.events_dispatched > 0);
        assert_eq!(events.per_worker.len(), cfg.workers);
        for (w, row) in events.per_worker.iter().enumerate() {
            for (event, n) in [
                ("epoll_waits", row.epoll_waits),
                ("events_dispatched", row.events_dispatched),
                ("spurious_wakeups", row.spurious_wakeups),
                ("writev_saved", row.writev_saved),
                ("accept_retries", 0),
            ] {
                let sample = format!(
                    "kvstore_worker_events_total{{worker=\"{w}\",event=\"{event}\"}} {n}\n"
                );
                assert!(page.contains(&sample), "telemetry {enabled}: no {sample:?}");
            }
        }
        drop(c);
        server.shutdown();
    }
}

#[test]
fn telemetry_hot_path_does_not_allocate() {
    const SPEC: RegistrySpec = RegistrySpec {
        ops: &["get", "put"],
        errors: &["retry", "not_found"],
        phases: &["decode", "execute"],
        counters: &["epoll_waits", "writev_saved"],
    };
    let registry = MetricsRegistry::new(SPEC, 2);
    let ring = TraceRing::new(8);
    let rec = TraceRecord {
        opcode: 0x01,
        req_id: 7,
        queue_ns: 10,
        exec_ns: 20,
        retries: 0,
        status: 0,
    };
    // Fill the ring first: steady state is pop-oldest + push-newest inside
    // the preallocated deque.
    for _ in 0..8 {
        ring.push(rec);
    }

    let before = allocations();
    for i in 0..10_000u64 {
        let w = registry.worker((i % 2) as usize);
        w.record_op((i % 2) as usize, 100 + i, i % 3);
        w.record_error((i % 2) as usize, (i % 2) as usize);
        w.add_phase_ns((i % 2) as usize, 50);
        w.add((i % 2) as usize, 1);
        ring.push(rec);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "telemetry recording must be allocation-free"
    );
}

/// Keys of the update pins: a few, so every `put` finds its key.
const KEYS: u64 = 16;
/// Calls timed per pin, after as many to warm up: the handle's read, write
/// and retire vectors and the limbo bag grow to their working size once.
const CALLS: u64 = 2_000;

/// Allocations made by `CALLS` calls of `f`, after a warm-up of as many.
fn allocations_of(mut f: impl FnMut(u64)) -> u64 {
    (0..CALLS).for_each(&mut f);
    let before = allocations();
    (CALLS..2 * CALLS).for_each(&mut f);
    allocations() - before
}

/// Allocations per committed `put` over a present key: standalone, alone in
/// a transaction (direct commit), and in a 2 `get` + 2 `put` transfer
/// (general commit).
fn replace_allocations<V: Clone, M>(
    map: &M,
    h: &mut ThreadHandle,
    val: impl Fn(u64) -> V,
) -> [u64; 3]
where
    M: TxMap<V>,
{
    for k in 0..KEYS {
        assert!(map.insert(&mut h.nontx(), k, val(k)));
    }
    let standalone = allocations_of(|i| {
        assert!(map.put(&mut h.nontx(), i % KEYS, val(i)).is_some());
    });
    let alone = allocations_of(|i| {
        let old = h.run(|tx| Ok(map.put(tx, i % KEYS, val(i))));
        assert!(matches!(old, Ok(Some(_))));
    });
    let transfer = allocations_of(|i| {
        let (a, b) = (i % KEYS, (i + 1) % KEYS);
        let res = h.run(|tx| {
            let (x, y) = (map.get(tx, a), map.get(tx, b));
            assert!(x.is_some() && y.is_some());
            map.put(tx, a, val(i));
            map.put(tx, b, val(i + 1));
            Ok(())
        });
        assert_eq!(res, Ok(()));
    });
    h.flush_stats();
    [standalone, alone, transfer]
}

#[test]
fn replace_of_a_word_allocates_nothing() {
    let mgr = TxManager::new();
    let mut h = mgr.register();
    let word = |i: u64| i;
    let hash = MichaelHashMap::<u64>::with_buckets(8);
    assert_eq!(replace_allocations(&hash, &mut h, word), [0; 3], "hash");
    let elastic = SplitOrderedMap::<u64>::new();
    assert_eq!(
        replace_allocations(&elastic, &mut h, word),
        [0; 3],
        "elastic"
    );
    let skip = SkipList::<u64>::new();
    assert_eq!(replace_allocations(&skip, &mut h, word), [0; 3], "skiplist");
    let snap = mgr.stats_snapshot();
    assert_eq!(snap.aborts, 0, "{snap:?}");
    assert!(snap.fast_commits >= 6 * CALLS && snap.general_commits >= 6 * CALLS);
}

#[test]
fn replace_of_a_boxed_value_allocates_its_box() {
    let mgr = TxManager::new();
    let mut h = mgr.register();
    // A value beside a payload id, as a blob durable map's index keeps
    // them.  (A `u64` from 2^63 up is boxed as well.)
    let pair = |i: u64| (i, !i);
    let per_call = [CALLS, CALLS, 2 * CALLS];
    let hash = MichaelHashMap::<(u64, u64)>::with_buckets(8);
    assert_eq!(replace_allocations(&hash, &mut h, pair), per_call, "hash");
    let elastic = SplitOrderedMap::<(u64, u64)>::new();
    assert_eq!(
        replace_allocations(&elastic, &mut h, pair),
        per_call,
        "elastic"
    );
    let skip = SkipList::<(u64, u64)>::new();
    assert_eq!(
        replace_allocations(&skip, &mut h, pair),
        per_call,
        "skiplist"
    );
    let big = |i: u64| i | 1 << 63;
    let skip = SkipList::<u64>::new();
    assert_eq!(
        replace_allocations(&skip, &mut h, big),
        per_call,
        "big words"
    );
}

#[test]
fn insert_allocates_its_node() {
    let mgr = TxManager::new();
    let mut h = mgr.register();
    // Fresh keys, so every insert links a node.  Found: one allocation per
    // insert, the node (a skiplist tower is one allocation at any height),
    // standalone and in a transaction alike — the hash map's deferred item
    // count is stored inline — except that a transaction boxes the
    // skiplist's index maintenance (towers taller than one level: half of
    // them), whose capture carries a hint per level.
    let hash = MichaelHashMap::<u64>::with_buckets(1 << 12);
    let standalone = allocations_of(|i| assert!(hash.insert(&mut h.nontx(), i, i)));
    assert_eq!(standalone, CALLS, "hash, standalone");
    let in_tx = allocations_of(|i| {
        assert_eq!(h.run(|tx| Ok(hash.insert(tx, 1 << 32 | i, i))), Ok(true));
    });
    assert_eq!(in_tx, CALLS, "hash, in a transaction");

    let skip = SkipList::<u64>::new();
    let standalone = allocations_of(|i| assert!(skip.insert(&mut h.nontx(), i, i)));
    assert_eq!(standalone, CALLS, "skiplist, standalone");
    let in_tx = allocations_of(|i| {
        assert_eq!(h.run(|tx| Ok(skip.insert(tx, 1 << 32 | i, i))), Ok(true));
    });
    assert!(
        (CALLS + CALLS / 3..2 * CALLS - CALLS / 3).contains(&in_tx),
        "skiplist, in a transaction: {in_tx} allocations for {CALLS} inserts"
    );
}

#[test]
fn remove_in_a_transaction_allocates_nothing_before_retirement() {
    // The unlink and the item count a remove defers to its commit are
    // stored inline, so until the node reaches reclamation nothing is
    // allocated or freed on its behalf.
    let mgr = TxManager::new();
    let mut h = mgr.register();
    let hash = MichaelHashMap::<u64>::with_buckets(1 << 12);
    let elastic = SplitOrderedMap::<u64>::new();
    for k in 0..2 * CALLS {
        assert!(hash.insert(&mut h.nontx(), k, k));
        assert!(elastic.insert(&mut h.nontx(), k, k));
    }
    let removes = allocations_of(|i| {
        assert_eq!(h.run(|tx| Ok(hash.remove(tx, i))), Ok(Some(i)));
    });
    assert_eq!(removes, 0, "hash");
    let removes = allocations_of(|i| {
        assert_eq!(h.run(|tx| Ok(elastic.remove(tx, i))), Ok(Some(i)));
    });
    assert_eq!(removes, 0, "elastic");
}

#[test]
fn durable_put_of_a_word_allocates_nothing() {
    // A durable `put` defers two payload actions (abandon on abort, retire
    // the replaced payload on commit); both are stored inline, and a word
    // map's index keeps the payload id as an inline word, so nothing is
    // left to allocate.  A `sync` after each call recycles the replaced
    // payloads' slots, so the arena does not grow a chunk mid-count.
    let mgr = TxManager::new();
    let domain = PersistenceDomain::new(Arc::clone(&mgr), NvmCostModel::ZERO);
    let map = DurableHashMap::<u64>::hash_map(8, Arc::clone(&domain));
    let mut h = mgr.register();
    for k in 0..KEYS {
        assert!(map.insert(&mut h.nontx(), k, k));
    }
    let alone = allocations_of(|i| {
        let old = h.run(|tx| Ok(map.put(tx, i % KEYS, i)));
        assert!(matches!(old, Ok(Some(_))));
        domain.sync();
    });
    assert_eq!(alone, 0, "alone in a transaction");
    let transfer = allocations_of(|i| {
        let (a, b) = (i % KEYS, (i + 1) % KEYS);
        let res = h.run(|tx| {
            let (x, y) = (map.get(tx, a), map.get(tx, b));
            assert!(x.is_some() && y.is_some());
            map.put(tx, a, i);
            map.put(tx, b, i + 1);
            Ok(())
        });
        assert_eq!(res, Ok(()));
        domain.sync();
    });
    assert_eq!(transfer, 0, "in a transfer");
    h.flush_stats();
    assert_eq!(mgr.stats_snapshot().aborts, 0);
}
