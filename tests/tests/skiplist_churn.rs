//! Skiplist churn: more threads than cores hammering a handful of keys, so
//! that towers are linked, marked, purged and retired under each other all
//! the time, and replacements pile up behind their victims on every level.
//!
//! The shapes (threads × keys) go from "everybody on the same four towers"
//! to "a small index that is rebuilt continuously".  Every value is twice
//! its key, `range` pages must be strictly ascending, and at the end the
//! structural check must find every index pointer backed by a level-0 node
//! and no deleted node left linked anywhere.  What this catches first is
//! reclamation: a purge that can be shadowed by a same-key replacement, or a
//! late index link to a retired tower, shows as a wrong value, a dangling
//! index pointer in the check, or a crash (CI loops this file in release
//! under `MALLOC_PERTURB_`, which poisons freed memory).

use integration_tests::StopOnDrop;
use medley::{TxManager, TxResult};
use nbds::SkipList;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// Per shape.  Debug keeps tier-1 quick; CI's release loop does the work.
const RUN: Duration = Duration::from_millis(if cfg!(debug_assertions) { 700 } else { 1_500 });

fn churn(threads: usize, keys: u64) {
    let mgr = TxManager::new();
    let sl = SkipList::<u64>::new();
    let stop = AtomicBool::new(false);
    let ops = AtomicU64::new(0);
    std::thread::scope(|s| {
        let release = StopOnDrop(&stop);
        for t in 0..threads {
            let (mgr, sl, stop, ops) = (&mgr, &sl, &stop, &ops);
            s.spawn(move || {
                let mut h = mgr.register();
                let mut rng = medley::util::FastRng::new(0xC4A2 + t as u64);
                let mut done = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let k = rng.next_below(keys);
                    match rng.next_below(8) {
                        0 => drop(sl.insert(&mut h.nontx(), k, 2 * k)),
                        1 | 2 => {
                            if let Some(old) = sl.put(&mut h.nontx(), k, 2 * k) {
                                assert_eq!(old, 2 * k, "put({k}) replaced a foreign value");
                            }
                        }
                        3 | 4 => {
                            if let Some(old) = sl.remove(&mut h.nontx(), k) {
                                assert_eq!(old, 2 * k, "remove({k}) returned a foreign value");
                            }
                        }
                        5 => {
                            if let Some(v) = sl.get(&mut h.nontx(), k) {
                                assert_eq!(v, 2 * k, "get({k})");
                            }
                        }
                        6 => {
                            let page = sl.range(&mut h.nontx(), k..keys, 16);
                            assert!(page.iter().all(|&(key, v)| key >= k && v == 2 * key));
                            assert!(
                                page.windows(2).all(|w| w[0].0 < w[1].0),
                                "range page out of order: {page:?}"
                            );
                        }
                        // A move, as one transaction: its maintenance runs
                        // after the commit, from hints taken before it.
                        _ => {
                            let to = rng.next_below(keys);
                            let _: TxResult<()> = h.run(|tx| {
                                if sl.remove(tx, k).is_some() {
                                    sl.put(tx, to, 2 * to);
                                }
                                Ok(())
                            });
                        }
                    }
                    done += 1;
                }
                ops.fetch_add(done, Ordering::Relaxed);
            });
        }
        std::thread::sleep(RUN);
        drop(release);
    });
    let ops = ops.into_inner();
    assert!(ops > 1_000, "{threads}x{keys}: only {ops} operations ran");
    let snap = sl.snapshot();
    assert!(snap.iter().all(|&(k, v)| k < keys && v == 2 * k));
    assert!(snap.windows(2).all(|w| w[0].0 < w[1].0));
    assert_eq!(
        sl.check_integrity_quiescent(),
        Ok((0, 0)),
        "{threads}x{keys} after {ops} operations"
    );
}

#[test]
fn churn_2_threads_4_keys() {
    churn(2, 4);
}

#[test]
fn churn_6_threads_32_keys() {
    churn(6, 32);
}

#[test]
fn churn_12_threads_8_keys() {
    churn(12, 8);
}

#[test]
fn churn_8_threads_512_keys() {
    churn(8, 512);
}
