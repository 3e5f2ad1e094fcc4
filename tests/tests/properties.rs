//! Property-based tests: the transactional structures must agree with a
//! sequential model under arbitrary operation sequences, and transactions
//! must be all-or-nothing.
//!
//! The container has no registry access, so instead of `proptest` these use a
//! small deterministic case generator over `medley::util::FastRng`: each test
//! runs `CASES` independently seeded operation sequences and reports the
//! failing seed on panic, which makes any failure reproducible by rerunning
//! with that seed.

use medley::util::FastRng;
use medley::{AbortReason, TxManager, TxResult};
use nbds::{MichaelHashMap, SkipList, SplitOrderedMap, TxMap};
use std::collections::BTreeMap;

const CASES: u64 = 64;

/// An operation in a generated workload.
#[derive(Debug, Clone, Copy)]
enum Op {
    Get(u64),
    Insert(u64, u64),
    Put(u64, u64),
    Remove(u64),
}

/// A small key space maximizes collisions between operations.
fn random_op(rng: &mut FastRng) -> Op {
    let key = rng.next_below(32);
    let val = rng.next_below(1_000);
    match rng.next_below(4) {
        0 => Op::Get(key),
        1 => Op::Insert(key, val),
        2 => Op::Put(key, val),
        _ => Op::Remove(key),
    }
}

fn random_ops(rng: &mut FastRng, min: u64, max: u64) -> Vec<Op> {
    let n = min + rng.next_below(max - min);
    (0..n).map(|_| random_op(rng)).collect()
}

/// Runs `case` once per seed, labelling panics with the seed that failed.
fn for_each_case(mut case: impl FnMut(&mut FastRng)) {
    for seed in 1..=CASES {
        let mut rng = FastRng::new(seed * 0x9E37_79B9 + 1);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| case(&mut rng)));
        if let Err(payload) = result {
            eprintln!("property failed for case seed {seed}");
            std::panic::resume_unwind(payload);
        }
    }
}

fn check_against_model<M: TxMap<u64>>(map: &M, ops: &[Op]) {
    let mgr = TxManager::new();
    let mut h = mgr.register();
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    for op in ops {
        match *op {
            Op::Get(k) => assert_eq!(map.get(&mut h.nontx(), k), model.get(&k).copied()),
            Op::Insert(k, v) => {
                let expected = !model.contains_key(&k);
                if expected {
                    model.insert(k, v);
                }
                assert_eq!(map.insert(&mut h.nontx(), k, v), expected);
            }
            Op::Put(k, v) => {
                assert_eq!(map.put(&mut h.nontx(), k, v), model.insert(k, v));
            }
            Op::Remove(k) => assert_eq!(map.remove(&mut h.nontx(), k), model.remove(&k)),
        }
    }
    for (k, v) in &model {
        assert_eq!(map.get(&mut h.nontx(), *k), Some(*v));
    }
}

#[test]
fn hashmap_matches_sequential_model() {
    for_each_case(|rng| {
        let ops = random_ops(rng, 1, 200);
        check_against_model(&MichaelHashMap::<u64>::with_buckets(16), &ops);
    });
}

#[test]
fn skiplist_matches_sequential_model() {
    for_each_case(|rng| {
        let ops = random_ops(rng, 1, 200);
        check_against_model(&SkipList::<u64>::new(), &ops);
    });
}

#[test]
fn split_ordered_matches_sequential_model() {
    for_each_case(|rng| {
        let ops = random_ops(rng, 1, 200);
        // Boot at the minimum size so longer sequences cross the grow
        // threshold mid-run and the model check spans a resize.
        check_against_model(&SplitOrderedMap::<u64>::new(), &ops);
    });
}

#[test]
fn split_order_key_math_properties() {
    use nbds::split_ordered::{key_hash, parent_bucket, so_regular_key, so_sentinel_key};
    for_each_case(|rng| {
        for _ in 0..256 {
            let k = rng.next_u64();
            // Bit reversal is an involution, so the split-order mapping is
            // injective: distinct hashes yield distinct regular keys.
            let reg = so_regular_key(key_hash(k));
            assert_eq!(reg.reverse_bits(), key_hash(k) | 1 << 63);
            // Regular keys are odd, sentinel keys even: the two key
            // populations can never collide in the shared list order.
            assert_eq!(reg & 1, 1, "regular split-order keys must be odd");
            let b = rng.next_u64() >> rng.next_below(64).max(33);
            let sen = so_sentinel_key(b);
            assert_eq!(sen & 1, 0, "sentinel split-order keys must be even");
            // Parent recursion: clearing the top set bit strictly decreases
            // the bucket index and terminates at bucket 0, in at most 64
            // steps (one per possible set bit).
            let mut cur = b;
            let mut steps = 0;
            while cur != 0 {
                let parent = parent_bucket(cur);
                assert!(parent < cur, "parent {parent} not below bucket {cur}");
                // The parent's sentinel sorts before the child's: the child
                // splits the parent's chain.
                assert!(
                    so_sentinel_key(parent) < so_sentinel_key(cur),
                    "parent sentinel must precede child sentinel in list order"
                );
                cur = parent;
                steps += 1;
                assert!(steps <= 64, "parent chain failed to terminate");
            }
        }
    });
}

#[test]
fn split_ordered_integrity_over_random_grow_schedules() {
    for_each_case(|rng| {
        let ops = random_ops(rng, 50, 400);
        let mgr = TxManager::new();
        let mut h = mgr.register();
        let map = SplitOrderedMap::<u64>::new();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for op in &ops {
            match *op {
                Op::Get(k) => {
                    assert_eq!(map.get(&mut h.nontx(), k), model.get(&k).copied());
                }
                Op::Insert(k, v) => {
                    if map.insert(&mut h.nontx(), k, v) {
                        model.insert(k, v);
                    }
                }
                Op::Put(k, v) => {
                    assert_eq!(map.put(&mut h.nontx(), k, v), model.insert(k, v));
                }
                Op::Remove(k) => assert_eq!(map.remove(&mut h.nontx(), k), model.remove(&k)),
            }
            // Random grow schedule: doubling at arbitrary points must be
            // invisible to the operation stream. Capped so a long schedule
            // doesn't allocate a multi-million-entry directory for ~200 keys.
            if rng.next_below(16) == 0 && map.buckets() < (1 << 10) {
                map.force_grow();
            }
        }
        drop(h);
        // Integrity: split-order sorted list, every initialized bucket's
        // sentinel reachable and its parent chain initialized (monotone
        // bucket initialization), counter consistent with reachable items.
        let (items, _buckets) = map
            .check_integrity_quiescent()
            .expect("integrity after random grow schedule");
        assert_eq!(items, model.len() as u64);
        let mut h = mgr.register();
        for (k, v) in &model {
            assert_eq!(map.get(&mut h.nontx(), *k), Some(*v));
        }
    });
}

#[test]
fn skiplist_snapshot_is_sorted_and_deduplicated() {
    for_each_case(|rng| {
        let ops = random_ops(rng, 1, 200);
        let mgr = TxManager::new();
        let mut h = mgr.register();
        let sl = SkipList::<u64>::new();
        for op in &ops {
            match *op {
                Op::Get(k) => {
                    sl.get(&mut h.nontx(), k);
                }
                Op::Insert(k, v) => {
                    sl.insert(&mut h.nontx(), k, v);
                }
                Op::Put(k, v) => {
                    sl.put(&mut h.nontx(), k, v);
                }
                Op::Remove(k) => {
                    sl.remove(&mut h.nontx(), k);
                }
            }
        }
        let keys: Vec<u64> = sl.snapshot().iter().map(|(k, _)| *k).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(keys, sorted);
    });
}

#[test]
fn aborted_transactions_are_all_or_nothing() {
    for_each_case(|rng| {
        let committed = random_ops(rng, 1, 40);
        let speculative = random_ops(rng, 1, 40);
        let mgr = TxManager::new();
        let mut h = mgr.register();
        let map = MichaelHashMap::<u64>::with_buckets(16);
        // Apply a committed prefix non-transactionally.
        for op in &committed {
            match *op {
                Op::Get(k) => {
                    map.get(&mut h.nontx(), k);
                }
                Op::Insert(k, v) => {
                    map.insert(&mut h.nontx(), k, v);
                }
                Op::Put(k, v) => {
                    map.put(&mut h.nontx(), k, v);
                }
                Op::Remove(k) => {
                    map.remove(&mut h.nontx(), k);
                }
            }
        }
        let before = {
            let mut snap = map.snapshot();
            snap.sort_unstable();
            snap
        };
        // Run an aborted transaction over arbitrary further operations.
        let res: TxResult<()> = h.run(|h| {
            for op in &speculative {
                match *op {
                    Op::Get(k) => {
                        map.get(h, k);
                    }
                    Op::Insert(k, v) => {
                        map.insert(h, k, v);
                    }
                    Op::Put(k, v) => {
                        map.put(h, k, v);
                    }
                    Op::Remove(k) => {
                        map.remove(h, k);
                    }
                }
            }
            Err(h.abort(AbortReason::Explicit))
        });
        assert!(res.is_err());
        let after = {
            let mut snap = map.snapshot();
            snap.sort_unstable();
            snap
        };
        assert_eq!(before, after, "aborted transaction must leave no trace");
    });
}

#[test]
fn zipfian_theoretical_ranks_form_a_distribution() {
    use bench::workload::Zipf;
    // Deterministic sanity of the generator's analytic side: rank
    // probabilities are positive, non-increasing, and sum to 1.
    for &(n, theta) in &[(2u64, 0.5), (16, 0.99), (1024, 0.7), (4096, 0.99)] {
        let z = Zipf::new(n, theta);
        let mut sum = 0.0;
        let mut prev = f64::INFINITY;
        for k in 0..n {
            let p = z.rank_probability(k);
            assert!(p > 0.0);
            assert!(p <= prev, "rank probabilities must be non-increasing");
            prev = p;
            sum += p;
        }
        assert!(
            (sum - 1.0).abs() < 1e-9,
            "rank probabilities must sum to 1, got {sum} for n={n} theta={theta}"
        );
    }
}

#[test]
fn zipfian_samples_respect_distribution_bounds() {
    use bench::workload::Zipf;
    const SAMPLES: usize = 20_000;
    for_each_case(|rng| {
        // Random key-space size and skew per case.
        let n = 16 + rng.next_below(1 << 12);
        let theta = 0.5 + rng.next_below(49) as f64 / 100.0; // 0.50..=0.98
        let z = Zipf::new(n, theta);
        let mut head_hits = 0usize;
        let mut top_decile_hits = 0usize;
        let top_decile = (n / 10).max(1);
        for _ in 0..SAMPLES {
            let k = z.sample(rng);
            assert!(k < n, "sample {k} out of bounds for n={n}");
            if k == 0 {
                head_hits += 1;
            }
            if k < top_decile {
                top_decile_hits += 1;
            }
        }
        // The hottest rank's empirical frequency must track its analytic
        // probability (generous tolerance: 20k samples, random parameters).
        let expected = z.rank_probability(0);
        let observed = head_hits as f64 / SAMPLES as f64;
        assert!(
            (observed - expected).abs() < 0.4 * expected + 0.01,
            "rank-0 frequency {observed:.4} vs expected {expected:.4} (n={n}, theta={theta})"
        );
        // Skew sanity: the top decile must capture visibly more mass than a
        // uniform distribution would give it.
        let uniform_share = top_decile as f64 / n as f64;
        let observed_share = top_decile_hits as f64 / SAMPLES as f64;
        assert!(
            observed_share > 1.2 * uniform_share,
            "top-{top_decile} share {observed_share:.4} not skewed above uniform {uniform_share:.4} \
             (n={n}, theta={theta})"
        );
    });
}

#[test]
fn tpcc_key_encoding_is_injective() {
    use std::collections::HashMap;
    use tpcc::{customer_key, Field};
    // Exhaustive over a small id box rather than sampled: every distinct
    // (warehouse, district, customer) triple must map to a distinct key.
    let mut seen: HashMap<u64, (u64, u64, u64)> = HashMap::new();
    for w in 0..10 {
        for d in 0..10 {
            for c in (0..1000).step_by(37) {
                let key = customer_key(Field::Balance, w, d, c);
                if let Some(prev) = seen.insert(key, (w, d, c)) {
                    panic!("collision: {:?} and {:?} share key {key}", prev, (w, d, c));
                }
            }
        }
    }
}

#[test]
fn store_scan_matches_btreemap_model() {
    use kvstore::{Cmd, CmdOut, Store, StoreConfig, TableKind};
    use std::sync::Arc;
    // Arbitrary key sets over the full u64 space (so the range partition
    // splits them over every shard), arbitrary windows and limits: a SCAN
    // page must equal exactly what a sorted sequential model returns.
    for_each_case(|rng| {
        let cfg = StoreConfig {
            tables: TableKind::Skip,
            shards: 1 + rng.next_below(7) as usize,
            ..Default::default()
        };
        let mgr = TxManager::with_max_threads(2);
        let (store, _adv) = Store::new(Arc::clone(&mgr), &cfg).expect("valid config");
        let mut h = mgr.register();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for _ in 0..(1 + rng.next_below(200)) {
            let (k, v) = (rng.next_u64(), rng.next_below(1_000));
            let put = Cmd::PutB(k, pmem::Value::U64(v));
            store.exec(&mut h, &put).expect("put");
            model.insert(k, v);
        }
        // A few removes keep the model honest about absent keys.
        let keys: Vec<u64> = model.keys().copied().collect();
        for k in keys.iter().step_by(5) {
            store.exec(&mut h, &Cmd::DelB(*k)).expect("del");
            model.remove(k);
        }
        for _ in 0..8 {
            let (lo, hi) = (rng.next_u64(), rng.next_u64());
            let limit = rng.next_below(50) as u32;
            let got = match store.exec(&mut h, &Cmd::Scan { lo, hi, limit }) {
                Ok(CmdOut::Page(page)) => page,
                other => panic!("scan returned {other:?}"),
            };
            let want: Vec<(u64, pmem::Value)> = if lo < hi {
                model
                    .range(lo..hi)
                    .take(limit as usize)
                    .map(|(&k, &v)| (k, pmem::Value::U64(v)))
                    .collect()
            } else {
                Vec::new()
            };
            assert_eq!(got, want, "window [{lo}, {hi}) limit {limit}");
        }
        // The full window is the sorted model verbatim.
        let got = match store.exec(
            &mut h,
            &Cmd::Scan {
                lo: 0,
                hi: u64::MAX,
                limit: 1_000,
            },
        ) {
            Ok(CmdOut::Page(page)) => page,
            other => panic!("scan returned {other:?}"),
        };
        let want: Vec<(u64, pmem::Value)> = model
            .range(..u64::MAX)
            .map(|(&k, &v)| (k, pmem::Value::U64(v)))
            .collect();
        assert_eq!(got, want);
    });
}
