//! # tdsl — a TDSL-style blocking transactional map baseline
//!
//! TDSL (Spiegelman, Golan-Gueta, Keidar; PLDI'16) provides *blocking*
//! transactions over hand-modified concurrent data structures.  Its defining
//! properties, which this baseline preserves, are:
//!
//! * read sets contain only **semantically critical** items (here: one
//!   versioned cell per key touched), not every memory word;
//! * commit is **blocking**: the write set is locked (in a canonical order),
//!   the read set is validated against per-cell versions, writes are applied,
//!   versions are bumped, locks are released;
//! * conflicting transactions abort and retry.
//!
//! The implementation is a per-key versioned-cell store (TL2 applied at node
//! granularity), which is how TDSL's maps behave for the get/insert/remove
//! workloads of the paper's Figs. 8–9.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use medley::util::sync::Mutex;
use std::collections::btree_map::BTreeMap;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A per-key cell: a version counter, a lock bit (the mutex), and the value
/// (`None` = key absent).
struct Cell {
    version: AtomicU64,
    lock: Mutex<()>,
    value: Mutex<Option<u64>>,
}

impl Cell {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            version: AtomicU64::new(0),
            lock: Mutex::new(()),
            value: Mutex::new(None),
        })
    }
}

/// One shard of the key → cell index.
type Shard = Mutex<HashMap<u64, Arc<Cell>>>;

/// A TDSL-style transactional map from `u64` keys to `u64` values.
pub struct TdslMap {
    /// Sharded index from key to its cell; cells are created on first touch
    /// and live for the lifetime of the map.
    shards: Box<[Shard]>,
    commits: AtomicU64,
    aborts: AtomicU64,
}

/// Error indicating the transaction must be retried (validation/lock
/// conflict) or was explicitly aborted by the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TdslAbort {
    /// Commit-time validation failed; retrying may succeed.
    Conflict,
    /// The program requested the abort; `run` does not retry.
    Explicit,
}

/// A transaction over one or more [`TdslMap`]s.
pub struct TdslTx {
    /// Read set: cell -> version observed.
    reads: Vec<(Arc<Cell>, u64)>,
    /// Write set: cell -> new value (`None` = remove), deduplicated by
    /// address and applied in address order to avoid deadlock.
    writes: BTreeMap<usize, (Arc<Cell>, Option<u64>)>,
}

impl TdslTx {
    fn new() -> Self {
        Self {
            reads: Vec::new(),
            writes: BTreeMap::new(),
        }
    }
}

impl Default for TdslMap {
    fn default() -> Self {
        Self::new()
    }
}

impl TdslMap {
    const SHARDS: usize = 256;

    /// Creates an empty map.
    pub fn new() -> Self {
        Self {
            shards: (0..Self::SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            commits: AtomicU64::new(0),
            aborts: AtomicU64::new(0),
        }
    }

    /// `(commits, aborts)` so far.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.commits.load(Ordering::Relaxed),
            self.aborts.load(Ordering::Relaxed),
        )
    }

    fn cell(&self, key: u64) -> Arc<Cell> {
        let shard = &self.shards[(key as usize) & (Self::SHARDS - 1)];
        let mut guard = shard.lock();
        Arc::clone(guard.entry(key).or_insert_with(Cell::new))
    }

    /// Transactional read of `key`.
    pub fn get_tx(&self, tx: &mut TdslTx, key: u64) -> Option<u64> {
        let cell = self.cell(key);
        let addr = Arc::as_ptr(&cell) as usize;
        if let Some((_, v)) = tx.writes.get(&addr) {
            return *v;
        }
        let version = cell.version.load(Ordering::Acquire);
        let value = *cell.value.lock();
        tx.reads.push((Arc::clone(&cell), version));
        value
    }

    /// Transactional insert-or-replace; returns the previous value.
    pub fn put_tx(&self, tx: &mut TdslTx, key: u64, val: u64) -> Option<u64> {
        let old = self.get_tx(tx, key);
        let cell = self.cell(key);
        tx.writes
            .insert(Arc::as_ptr(&cell) as usize, (cell, Some(val)));
        old
    }

    /// Transactional insert-if-absent.
    pub fn insert_tx(&self, tx: &mut TdslTx, key: u64, val: u64) -> bool {
        if self.get_tx(tx, key).is_some() {
            return false;
        }
        let cell = self.cell(key);
        tx.writes
            .insert(Arc::as_ptr(&cell) as usize, (cell, Some(val)));
        true
    }

    /// Transactional remove; returns the previous value.
    pub fn remove_tx(&self, tx: &mut TdslTx, key: u64) -> Option<u64> {
        let old = self.get_tx(tx, key);
        if old.is_some() {
            let cell = self.cell(key);
            tx.writes.insert(Arc::as_ptr(&cell) as usize, (cell, None));
        }
        old
    }

    /// Attempts to commit `tx` (commit-time locking + read validation).
    fn commit(tx: TdslTx) -> Result<(), TdslAbort> {
        // Lock the write set in address order.
        let mut guards = Vec::with_capacity(tx.writes.len());
        for (_, (cell, _)) in tx.writes.iter() {
            guards.push(cell.lock.lock());
        }
        // Validate the read set: versions unchanged (unless we own the cell).
        for (cell, version) in tx.reads.iter() {
            let owned = tx.writes.contains_key(&(Arc::as_ptr(cell) as usize));
            let cur = cell.version.load(Ordering::Acquire);
            if cur != *version && !owned {
                return Err(TdslAbort::Conflict);
            }
            if owned && cur != *version {
                return Err(TdslAbort::Conflict);
            }
        }
        // Apply writes and bump versions.
        for (_, (cell, val)) in tx.writes.iter() {
            *cell.value.lock() = *val;
            cell.version.fetch_add(1, Ordering::Release);
        }
        drop(guards);
        Ok(())
    }

    /// Runs a transaction body over this map (and, via the same `TdslTx`,
    /// over other maps as well), retrying on conflicts.
    pub fn run<R>(
        &self,
        mut body: impl FnMut(&mut TdslTx) -> Result<R, TdslAbort>,
    ) -> Result<R, TdslAbort> {
        loop {
            let mut tx = TdslTx::new();
            match body(&mut tx) {
                Ok(r) => match Self::commit(tx) {
                    Ok(()) => {
                        self.commits.fetch_add(1, Ordering::Relaxed);
                        return Ok(r);
                    }
                    Err(TdslAbort::Conflict) => {
                        self.aborts.fetch_add(1, Ordering::Relaxed);
                        std::thread::yield_now();
                    }
                    Err(e) => return Err(e),
                },
                Err(TdslAbort::Conflict) => {
                    self.aborts.fetch_add(1, Ordering::Relaxed);
                    std::thread::yield_now();
                }
                Err(e) => {
                    self.aborts.fetch_add(1, Ordering::Relaxed);
                    return Err(e);
                }
            }
        }
    }

    /// Non-transactional lookup (single-op transaction).
    pub fn get(&self, key: u64) -> Option<u64> {
        self.run(|tx| Ok(self.get_tx(tx, key))).unwrap()
    }

    /// Non-transactional insert-or-replace.
    pub fn put(&self, key: u64, val: u64) -> Option<u64> {
        self.run(|tx| Ok(self.put_tx(tx, key, val))).unwrap()
    }

    /// Non-transactional insert-if-absent.
    pub fn insert(&self, key: u64, val: u64) -> bool {
        self.run(|tx| Ok(self.insert_tx(tx, key, val))).unwrap()
    }

    /// Non-transactional remove.
    pub fn remove(&self, key: u64) -> Option<u64> {
        self.run(|tx| Ok(self.remove_tx(tx, key))).unwrap()
    }

    /// Quiescent count of live keys.
    pub fn len_quiescent(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .values()
                    .filter(|c| c.value.lock().is_some())
                    .count()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_crud() {
        let m = TdslMap::new();
        assert_eq!(m.get(1), None);
        assert!(m.insert(1, 10));
        assert!(!m.insert(1, 11));
        assert_eq!(m.get(1), Some(10));
        assert_eq!(m.put(1, 12), Some(10));
        assert_eq!(m.remove(1), Some(12));
        assert_eq!(m.remove(1), None);
        assert_eq!(m.len_quiescent(), 0);
    }

    #[test]
    fn explicit_abort_rolls_back() {
        let m = TdslMap::new();
        assert!(m.insert(1, 100));
        let r: Result<(), TdslAbort> = m.run(|tx| {
            m.put_tx(tx, 1, 0);
            Err(TdslAbort::Explicit)
        });
        assert_eq!(r, Err(TdslAbort::Explicit));
        assert_eq!(m.get(1), Some(100));
    }

    #[test]
    fn cross_map_transaction() {
        let a = TdslMap::new();
        let b = TdslMap::new();
        assert!(a.insert(1, 50));
        let r = a.run(|tx| {
            let v = a.get_tx(tx, 1).unwrap();
            a.put_tx(tx, 1, v - 20);
            b.put_tx(tx, 1, 20);
            Ok(())
        });
        assert!(r.is_ok());
        assert_eq!(a.get(1), Some(30));
        assert_eq!(b.get(1), Some(20));
    }

    #[test]
    fn concurrent_transfers_preserve_sum() {
        const THREADS: usize = 4;
        const OPS: usize = 400;
        const KEYS: u64 = 8;
        let m = Arc::new(TdslMap::new());
        for k in 0..KEYS {
            m.insert(k, 100);
        }
        let mut joins = Vec::new();
        for t in 0..THREADS {
            let m = Arc::clone(&m);
            joins.push(std::thread::spawn(move || {
                let mut rng = medley::util::FastRng::new(t as u64 + 1);
                for _ in 0..OPS {
                    let from = rng.next_below(KEYS);
                    let to = rng.next_below(KEYS);
                    if from == to {
                        continue;
                    }
                    let _ = m.run(|tx| {
                        let a = m.get_tx(tx, from).unwrap();
                        let b = m.get_tx(tx, to).unwrap();
                        if a == 0 {
                            return Err(TdslAbort::Explicit);
                        }
                        m.put_tx(tx, from, a - 1);
                        m.put_tx(tx, to, b + 1);
                        Ok(())
                    });
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let total: u64 = (0..KEYS).map(|k| m.get(k).unwrap()).sum();
        assert_eq!(total, KEYS * 100);
    }
}
