//! Transaction descriptors and the status-word protocol of M-compare-N-swap.
//!
//! Each thread owns one [`Desc`] (pre-allocated inside the `TxManager` and
//! reused across transactions, as in the paper).  A descriptor packs a
//! `tid | serial | status` triple into a single 64-bit status word (Fig. 4)
//! and carries a read set and a write set.
//!
//! ## The two-phase (private-then-published) lifecycle
//!
//! The descriptor is **cold for the whole execution phase** of a
//! transaction.  Reads and writes accumulate in plain thread-local buffers
//! owned by the `ThreadHandle` (`local_reads` / `local_writes` in
//! `txmanager.rs`); no shared entry is written and no descriptor is installed
//! in any [`CasWord`] while operations execute.  Only `Txn::commit` — and
//! only on the general commit path — moves the transaction into its
//! **published** phase:
//!
//! 1. *publish*: every buffered read and write is copied into the
//!    stamp-sealed entries below ([`Desc::push_read`] / [`Desc::push_write`]);
//! 2. *install*: the descriptor is CASed into each written word over its
//!    recorded `(value, counter)` pre-image;
//! 3. *expose*: `setReady` flips the status word `InPrep -> InProg`, after
//!    which any thread may help validate and finalize;
//! 4. *resolve*: validation decides `Committed`/`Aborted` and `uninstall`
//!    replaces the descriptor in each word with the new (or old) value.
//!
//! Helpers can reach the descriptor only through an installed word, so the
//! publish step always happens-before any cross-thread access: the install
//! CAS is a `lock cmpxchg16b`, which orders the owner's publish stores before
//! it, and the helper's load that finds the descriptor is an acquire load,
//! which orders its entry reads after it.  (A `CasWord` load is *only* that
//! — it is not a fence; the owner's side of every store-then-load order in
//! this protocol is a locked CAS, see the `atomic128` module docs.)
//! Everything before step 1 is invisible to other threads — the price of
//! helping-readiness (shared-memory traffic on every entry) is paid once per
//! *published* transaction instead of once per operation.
//!
//! ## Hot/cold layout
//!
//! Small transactions should never walk cold memory.  The descriptor is
//! split into a **hot header** — the status word, the two set sizes, and
//! `INLINE_READS`/`INLINE_WRITES` (8 + 8) inline entries, all sharing the
//! descriptor's first few cache lines — and a **spill region** holding the
//! remaining capacity (up to [`MAX_ENTRIES`] writes and twice as many reads).
//! The spill is allocated lazily on first use: a thread that only ever runs small
//! transactions costs ~1 KiB instead of the ~300 KiB a fully pre-allocated
//! descriptor used to occupy (and `TxManager::new` no longer touches ~40 MiB
//! of entry memory up front).
//!
//! ## Cross-thread access and memory ordering
//!
//! Other threads ("helpers") read a descriptor's sets while finalizing a
//! published transaction, so every entry field is an atomic and every entry
//! is stamped with the serial number of the transaction it belongs to.  Each
//! entry is a per-entry seqlock with the serial as the sequence word:
//!
//! * **publish** (owner): `stamp.store(0, Relaxed)`; `fence(Release)`;
//!   field stores (`Relaxed`); `stamp.store(serial, Release)`.
//! * **snapshot** (helper): `stamp.load(Acquire)`; field loads (`Relaxed`);
//!   `fence(Acquire)`; `stamp` re-load — accept only if both loads returned
//!   the expected serial.
//!
//! The correctness argument is the classic seqlock one, with serials in
//! place of sequence numbers (serials are strictly monotonic per descriptor,
//! so the stamp can never ABA):
//!
//! * If the first stamp load returns `serial`, it synchronizes with the
//!   owner's `Release` store of `serial`, so the subsequent field loads see
//!   at least that incarnation's values (field stores precede the stamp
//!   store in the owner's program order).
//! * If any field load observed a *later* incarnation's value, the owner's
//!   `fence(Release)`-after-`stamp = 0` pairs with the helper's
//!   `fence(Acquire)`-before-re-load: the re-load then sees `0` (or the
//!   later serial), never the stale `serial`, and the snapshot is rejected.
//!
//! This replaces the earlier per-field `SeqCst` discipline: on x86 every
//! `SeqCst` store costs a full fence, which the commit path paid five times
//! per entry; the `Release`/`Acquire` pairs compile to plain loads and
//! stores.  The status word keeps `SeqCst` CASes — it is the linearization
//! point of commit/abort and is touched a constant number of times per
//! transaction.

use crate::atomic128::pack;
use crate::casobj::CasWord;
use std::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Maximum number of write-set entries per transaction; the read set holds
/// twice as many (`MAX_READ_ENTRIES`).
///
/// TPC-C `newOrder` touches on the order of a hundred words; 4096 leaves
/// ample headroom.  Only the first `INLINE_READS`/`INLINE_WRITES` (8 + 8)
/// entries live inside the descriptor; the rest are spilled to a lazily
/// allocated region, so the capacity is effectively free until a transaction
/// actually uses it.
pub const MAX_ENTRIES: usize = 4096;

/// Maximum number of read-set entries per transaction: two per write-set
/// entry, because the widest read there is — an ordered range page —
/// registers two words per key it returns (the node's link and its value
/// word), and a page should hold as many keys as a transaction can write.
pub(crate) const MAX_READ_ENTRIES: usize = 2 * MAX_ENTRIES;

/// Read-set entries stored inline in the descriptor's hot header.
pub(crate) const INLINE_READS: usize = 8;

/// Write-set entries stored inline in the descriptor's hot header.
pub(crate) const INLINE_WRITES: usize = 8;

/// Transaction status values (paper Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Status {
    /// Initial state; the transaction is still executing operations.
    InPrep = 0,
    /// `Txn::commit` has installed the descriptor; the transaction is ready to
    /// commit and may be helped to completion by any thread.
    InProg = 1,
    /// The transaction committed; speculative values become real.
    Committed = 2,
    /// The transaction aborted; speculative values are rolled back.
    Aborted = 3,
}

impl Status {
    fn from_bits(bits: u64) -> Self {
        match bits & 3 {
            0 => Status::InPrep,
            1 => Status::InProg,
            2 => Status::Committed,
            _ => Status::Aborted,
        }
    }
}

const STATUS_MASK: u64 = 0b11;
const SERIAL_SHIFT: u32 = 2;
const SERIAL_BITS: u32 = 48;
const SERIAL_MASK: u64 = ((1 << SERIAL_BITS) - 1) << SERIAL_SHIFT;
const TID_SHIFT: u32 = 50;

/// Packs a `(tid, serial, status)` triple into a status word.
#[inline]
pub fn pack_status(tid: u64, serial: u64, status: Status) -> u64 {
    (tid << TID_SHIFT) | ((serial << SERIAL_SHIFT) & SERIAL_MASK) | status as u64
}

/// Extracts the thread id from a status word.
#[inline]
pub fn tid_of(word: u64) -> u64 {
    word >> TID_SHIFT
}

/// Extracts the serial number from a status word.
#[inline]
pub fn serial_of(word: u64) -> u64 {
    (word & SERIAL_MASK) >> SERIAL_SHIFT
}

/// Extracts the status from a status word.
#[inline]
pub fn status_of(word: u64) -> Status {
    Status::from_bits(word)
}

/// One read-set entry: an address and the `(value, counter)` pair observed by
/// the linearizing load of a read-only operation.
#[derive(Debug, Default)]
pub(crate) struct ReadEntry {
    stamp: AtomicU64,
    addr: AtomicUsize,
    val: AtomicU64,
    cnt: AtomicU64,
}

impl ReadEntry {
    /// Owner-side seqlock publish (see the module docs for the ordering
    /// argument).
    #[inline]
    fn publish(&self, serial: u64, addr: usize, val: u64, cnt: u64) {
        self.stamp.store(0, Ordering::Relaxed);
        fence(Ordering::Release);
        self.addr.store(addr, Ordering::Relaxed);
        self.val.store(val, Ordering::Relaxed);
        self.cnt.store(cnt, Ordering::Relaxed);
        self.stamp.store(serial, Ordering::Release);
    }

    /// Helper-side seqlock snapshot: `Some((addr, val, cnt))` iff the entry
    /// consistently belongs to `serial`.
    #[inline]
    fn snapshot(&self, serial: u64) -> Option<(usize, u64, u64)> {
        if self.stamp.load(Ordering::Acquire) != serial {
            return None;
        }
        let addr = self.addr.load(Ordering::Relaxed);
        let val = self.val.load(Ordering::Relaxed);
        let cnt = self.cnt.load(Ordering::Relaxed);
        fence(Ordering::Acquire);
        if self.stamp.load(Ordering::Relaxed) != serial {
            return None; // recycled mid-read; it belongs to another serial
        }
        Some((addr, val, cnt))
    }
}

/// One write-set entry: the address, the pre-image `(old value, counter)` and
/// the speculative new value of a critical CAS.
#[derive(Debug, Default)]
pub(crate) struct WriteEntry {
    stamp: AtomicU64,
    addr: AtomicUsize,
    old_val: AtomicU64,
    cnt: AtomicU64,
    new_val: AtomicU64,
}

impl WriteEntry {
    #[inline]
    fn publish(&self, serial: u64, addr: usize, old_val: u64, cnt: u64, new_val: u64) {
        self.stamp.store(0, Ordering::Relaxed);
        fence(Ordering::Release);
        self.addr.store(addr, Ordering::Relaxed);
        self.old_val.store(old_val, Ordering::Relaxed);
        self.cnt.store(cnt, Ordering::Relaxed);
        self.new_val.store(new_val, Ordering::Relaxed);
        self.stamp.store(serial, Ordering::Release);
    }

    /// `Some((addr, old_val, cnt, new_val))` iff the entry consistently
    /// belongs to `serial`.
    #[inline]
    fn snapshot(&self, serial: u64) -> Option<(usize, u64, u64, u64)> {
        if self.stamp.load(Ordering::Acquire) != serial {
            return None;
        }
        let addr = self.addr.load(Ordering::Relaxed);
        let old_val = self.old_val.load(Ordering::Relaxed);
        let cnt = self.cnt.load(Ordering::Relaxed);
        let new_val = self.new_val.load(Ordering::Relaxed);
        fence(Ordering::Acquire);
        if self.stamp.load(Ordering::Relaxed) != serial {
            return None;
        }
        Some((addr, old_val, cnt, new_val))
    }
}

/// A per-thread transaction descriptor.
///
/// Reused across transactions; the serial number embedded in the status word
/// distinguishes incarnations.  The layout is split into a hot header
/// (status, counts, inline entries) and a lazily allocated spill region; see
/// the module docs.
pub struct Desc {
    status: AtomicU64,
    rcount: AtomicUsize,
    wcount: AtomicUsize,
    reads_inline: [ReadEntry; INLINE_READS],
    writes_inline: [WriteEntry; INLINE_WRITES],
    reads_spill: OnceLock<Box<[ReadEntry]>>,
    writes_spill: OnceLock<Box<[WriteEntry]>>,
}

impl std::fmt::Debug for Desc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.status.load(Ordering::Relaxed);
        f.debug_struct("Desc")
            .field("tid", &tid_of(s))
            .field("serial", &serial_of(s))
            .field("status", &status_of(s))
            .field("reads", &self.rcount.load(Ordering::Relaxed))
            .field("writes", &self.wcount.load(Ordering::Relaxed))
            .finish()
    }
}

impl Desc {
    /// Creates a descriptor for thread `tid`.  Only the hot header is
    /// allocated; the spill region materializes on first use.
    pub fn new(tid: u64) -> Self {
        Self {
            status: AtomicU64::new(pack_status(tid, 0, Status::InPrep)),
            rcount: AtomicUsize::new(0),
            wcount: AtomicUsize::new(0),
            reads_inline: std::array::from_fn(|_| ReadEntry::default()),
            writes_inline: std::array::from_fn(|_| WriteEntry::default()),
            reads_spill: OnceLock::new(),
            writes_spill: OnceLock::new(),
        }
    }

    /// The raw status word.
    #[inline]
    pub fn status_word(&self) -> u64 {
        self.status.load(Ordering::SeqCst)
    }

    /// Current serial number.
    #[inline]
    pub fn serial(&self) -> u64 {
        serial_of(self.status_word())
    }

    /// This descriptor's address encoded as the 64-bit payload stored in a
    /// [`CasWord`] while the descriptor is installed.
    #[inline]
    pub fn as_payload(&self) -> u64 {
        self as *const Desc as u64
    }

    /// Entry `idx` of the read set (inline or spill).  The spill half is only
    /// reachable once the owner has pushed past the inline capacity, which
    /// initializes it first.
    #[inline]
    fn read_entry(&self, idx: usize) -> &ReadEntry {
        if idx < INLINE_READS {
            &self.reads_inline[idx]
        } else {
            &self.reads_spill.get().expect("spill read published")[idx - INLINE_READS]
        }
    }

    #[inline]
    fn write_entry(&self, idx: usize) -> &WriteEntry {
        if idx < INLINE_WRITES {
            &self.writes_inline[idx]
        } else {
            &self.writes_spill.get().expect("spill write published")[idx - INLINE_WRITES]
        }
    }

    /// Begins a new transaction: clears both sets and advances the serial
    /// number, resetting the status to `InPrep` (paper `txBegin`).
    ///
    /// Only the owning thread calls this, and with lazy publication the
    /// descriptor is guaranteed uninstalled everywhere by the time it runs,
    /// so plain (`Relaxed`/`Release`) stores suffice: stale helpers of the
    /// previous serial are fenced off by the entry stamps and the serial
    /// check in every status CAS.
    pub fn begin(&self) {
        self.rcount.store(0, Ordering::Relaxed);
        self.wcount.store(0, Ordering::Relaxed);
        let cur = self.status.load(Ordering::Relaxed);
        let next = pack_status(tid_of(cur), serial_of(cur).wrapping_add(1), Status::InPrep);
        self.status.store(next, Ordering::Release);
    }

    /// CAS on the status word that preserves `tid | serial` and moves
    /// `expected_full`'s status to `to` (paper `stsCAS`).
    #[inline]
    pub fn status_cas(&self, expected_full: u64, to: Status) -> bool {
        let desired = (expected_full & !STATUS_MASK) | to as u64;
        self.status
            .compare_exchange(expected_full, desired, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    /// Transitions `InPrep -> InProg` for the current serial (paper
    /// `setReady`).  Fails if the transaction has already been aborted.
    pub fn set_ready(&self) -> bool {
        let cur = self.status.load(Ordering::SeqCst);
        if status_of(cur) != Status::InPrep {
            return false;
        }
        self.status_cas(cur, Status::InProg)
    }

    // ------------------------------------------------------------------
    // Owner-side publication (the "publish" step of the lifecycle)
    // ------------------------------------------------------------------

    /// Appends an entry to the read set.  Returns `false` when capacity is
    /// exhausted (the transaction must then abort with `CapacityExceeded`).
    pub fn push_read(&self, serial: u64, addr: *const CasWord, val: u64, cnt: u64) -> bool {
        let idx = self.rcount.load(Ordering::Relaxed);
        if idx >= MAX_READ_ENTRIES {
            return false;
        }
        let e = if idx < INLINE_READS {
            &self.reads_inline[idx]
        } else {
            &self.reads_spill.get_or_init(|| {
                (0..MAX_READ_ENTRIES - INLINE_READS)
                    .map(|_| ReadEntry::default())
                    .collect()
            })[idx - INLINE_READS]
        };
        e.publish(serial, addr as usize, val, cnt);
        self.rcount.store(idx + 1, Ordering::Release);
        true
    }

    /// Appends an entry to the write set.  Returns `false` when capacity is
    /// exhausted.
    pub fn push_write(
        &self,
        serial: u64,
        addr: *const CasWord,
        old_val: u64,
        cnt: u64,
        new_val: u64,
    ) -> bool {
        let idx = self.wcount.load(Ordering::Relaxed);
        if idx >= MAX_ENTRIES {
            return false;
        }
        let e = if idx < INLINE_WRITES {
            &self.writes_inline[idx]
        } else {
            &self.writes_spill.get_or_init(|| {
                (0..MAX_ENTRIES - INLINE_WRITES)
                    .map(|_| WriteEntry::default())
                    .collect()
            })[idx - INLINE_WRITES]
        };
        e.publish(serial, addr as usize, old_val, cnt, new_val);
        self.wcount.store(idx + 1, Ordering::Release);
        true
    }

    // ------------------------------------------------------------------
    // Commit/abort machinery (callable by owner and helpers)
    // ------------------------------------------------------------------

    /// Validates every read entry stamped with `serial`: the addressed word
    /// must still hold exactly the recorded `(value, counter)` pair — or
    /// hold **this transaction's own descriptor**, installed by a write of
    /// the same transaction over exactly that `(value, counter)` pre-image
    /// (installation bumps the counter by one).
    ///
    /// The own-write tolerance is essential, not cosmetic: a transaction
    /// that reads a word and also writes it (for instance a transfer whose
    /// source node is the list predecessor of its destination) installs its
    /// descriptor over the very pre-image the read recorded; without the
    /// tolerance it would invalidate its own read, abort, and — because the
    /// retry deterministically reproduces the same read-then-write pattern —
    /// livelock forever.
    pub fn validate_reads(&self, serial: u64) -> bool {
        let n = self.rcount.load(Ordering::Acquire).min(MAX_READ_ENTRIES);
        for idx in 0..n {
            let Some((addr, val, cnt)) = self.read_entry(idx).snapshot(serial) else {
                continue; // stale or recycled entry of another serial
            };
            // SAFETY: the CasWord lives inside a data-structure node that is
            // protected by the owner's EBR pin for the duration of the
            // transaction, and helpers only run `validate_reads` while the
            // owner's transaction (hence its pin) is still live.
            let obj = unsafe { &*(addr as *const CasWord) };
            let (cur_val, cur_cnt) = obj.load_parts();
            if cur_val == val && cur_cnt == cnt {
                continue;
            }
            if CasWord::counter_is_descriptor(cur_cnt)
                && cur_val == self.as_payload()
                && cur_cnt == cnt.wrapping_add(1)
            {
                // Own write installed over the observed pre-image: the read
                // is still valid (the write takes effect atomically with the
                // commit; counters advance on every change, so a matching
                // `cnt` pins the exact incarnation that was read).
                continue;
            }
            return false;
        }
        true
    }

    /// Uninstalls this descriptor from every write-set entry stamped with
    /// `serial`, writing back the new value on commit or the old value on
    /// abort (paper `uninstall`).  Idempotent and safe to run concurrently
    /// from several threads: each per-word CAS expects the installed
    /// descriptor with the exact counter, so at most one uninstaller wins per
    /// word and all of them write the same value.  Entries whose install CAS
    /// never ran (commit lost a conflict mid-install) fail the expected-value
    /// check and are skipped harmlessly.
    pub fn uninstall(&self, serial: u64, outcome: Status) {
        debug_assert!(outcome == Status::Committed || outcome == Status::Aborted);
        let n = self.wcount.load(Ordering::Acquire).min(MAX_ENTRIES);
        let me = self.as_payload();
        for idx in 0..n {
            let Some((addr, old_val, cnt, new_val)) = self.write_entry(idx).snapshot(serial) else {
                continue; // recycled; not ours to touch
            };
            let write_back = if outcome == Status::Committed {
                new_val
            } else {
                old_val
            };
            // SAFETY: same argument as in `validate_reads`.
            let obj = unsafe { &*(addr as *const CasWord) };
            let installed = pack(me, cnt.wrapping_add(1));
            let replacement = pack(write_back, cnt.wrapping_add(2));
            let _ = obj.raw().cas(installed, replacement);
        }
    }

    /// Finalizes this descriptor on behalf of another thread that found it
    /// installed in `obj` holding the raw 128-bit value `observed`
    /// (paper `tryFinalize`, with additional serial re-validation so that a
    /// lagging helper can never interfere with a *newer* transaction of the
    /// same owner thread).
    ///
    /// With lazy publication a helper can only get here during the install
    /// window of a commit (status `InPrep`, entries already published) or
    /// after `setReady` (`InProg`), so the entries it needs are always
    /// visible: the install CAS that exposed the descriptor is a full
    /// barrier ordered after the publish stores, and the caller found the
    /// descriptor with an acquire load.
    pub fn try_finalize(&self, obj: &CasWord, observed: u128) {
        let d = self.status.load(Ordering::SeqCst);
        // Ensure the status word we read describes the transaction that is
        // actually installed in `obj`; otherwise the owner has already moved
        // on and there is nothing for us to do.
        if obj.raw().load() != observed {
            return;
        }
        let serial = serial_of(d);
        let mut cur = d;
        if status_of(cur) == Status::InPrep {
            // Eager contention management: abort the owner caught between
            // install and `setReady`.
            let _ = self.status_cas(cur, Status::Aborted);
            cur = self.status.load(Ordering::SeqCst);
            if serial_of(cur) != serial {
                return;
            }
        }
        if status_of(cur) == Status::InProg {
            // Help the owner finish its commit.
            if self.validate_reads(serial) {
                let _ = self.status_cas(cur, Status::Committed);
            } else {
                let _ = self.status_cas(cur, Status::Aborted);
            }
            cur = self.status.load(Ordering::SeqCst);
            if serial_of(cur) != serial {
                return;
            }
        }
        match status_of(cur) {
            Status::Committed => self.uninstall(serial, Status::Committed),
            Status::Aborted => self.uninstall(serial, Status::Aborted),
            // The owner raced ahead (new serial, or still somehow InPrep /
            // InProg for a different incarnation): leave it alone.
            _ => {}
        }
    }

    /// Directly resolves the final outcome of the current serial from the
    /// owner's side at commit time.  Returns the final status.
    pub fn finalize_own(&self, serial: u64) -> Status {
        let cur = self.status.load(Ordering::SeqCst);
        if serial_of(cur) != serial {
            // Should not happen for the owner; treat as aborted.
            return Status::Aborted;
        }
        if status_of(cur) == Status::InProg {
            if self.validate_reads(serial) {
                let _ = self.status_cas(cur, Status::Committed);
            } else {
                let _ = self.status_cas(cur, Status::Aborted);
            }
        }
        status_of(self.status.load(Ordering::SeqCst))
    }

    /// Owner-side abort of the current serial regardless of state (used by
    /// every abort path of the handle).  Returns the final status (a helper may have already
    /// committed an `InProg` transaction, in which case the commit wins).
    pub fn abort_own(&self, serial: u64) -> Status {
        loop {
            let cur = self.status.load(Ordering::SeqCst);
            if serial_of(cur) != serial {
                return Status::Aborted;
            }
            match status_of(cur) {
                Status::Committed => return Status::Committed,
                Status::Aborted => return Status::Aborted,
                Status::InPrep | Status::InProg => {
                    if self.status_cas(cur, Status::Aborted) {
                        return Status::Aborted;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_word_packing_roundtrip() {
        for tid in [0u64, 1, 511, 16383] {
            for serial in [0u64, 1, 42, (1 << 48) - 1] {
                for st in [
                    Status::InPrep,
                    Status::InProg,
                    Status::Committed,
                    Status::Aborted,
                ] {
                    let w = pack_status(tid, serial, st);
                    assert_eq!(tid_of(w), tid);
                    assert_eq!(serial_of(w), serial);
                    assert_eq!(status_of(w), st);
                }
            }
        }
    }

    #[test]
    fn begin_bumps_serial_and_resets() {
        let d = Desc::new(3);
        assert_eq!(d.serial(), 0);
        d.begin();
        assert_eq!(d.serial(), 1);
        assert_eq!(status_of(d.status_word()), Status::InPrep);
        assert_eq!(d.rcount.load(Ordering::Relaxed), 0);
        assert_eq!(d.wcount.load(Ordering::Relaxed), 0);
        d.begin();
        assert_eq!(d.serial(), 2);
    }

    #[test]
    fn set_ready_then_commit_abort_transitions() {
        let d = Desc::new(1);
        d.begin();
        assert!(d.set_ready());
        assert_eq!(status_of(d.status_word()), Status::InProg);
        assert!(!d.set_ready(), "setReady requires InPrep");
        let cur = d.status_word();
        assert!(d.status_cas(cur, Status::Committed));
        assert_eq!(status_of(d.status_word()), Status::Committed);
    }

    #[test]
    fn spill_region_is_lazy_and_transparent() {
        let d = Desc::new(0);
        d.begin();
        let s = d.serial();
        let a = CasWord::new(7);
        // Stay within the inline capacity: no spill allocation.
        for _ in 0..INLINE_READS {
            assert!(d.push_read(s, &a, 7, 0));
        }
        assert!(
            d.reads_spill.get().is_none(),
            "inline pushes must not spill"
        );
        // One more read crosses into the spill region.
        assert!(d.push_read(s, &a, 7, 0));
        assert!(d.reads_spill.get().is_some());
        assert_eq!(d.rcount.load(Ordering::Relaxed), INLINE_READS + 1);
        // All entries (inline and spilled) validate against current memory.
        assert!(d.validate_reads(s));
        assert!(a.cas_value(7, 8));
        assert!(
            !d.validate_reads(s),
            "spilled entries must be validated too"
        );
    }

    #[test]
    fn entry_snapshot_rejects_other_serials() {
        let d = Desc::new(0);
        d.begin();
        let s = d.serial();
        let a = CasWord::new(1);
        assert!(d.push_read(s, &a, 1, 0));
        assert!(d.reads_inline[0].snapshot(s).is_some());
        assert!(d.reads_inline[0].snapshot(s + 1).is_none());
        // Recycling the entry for the next serial invalidates the old stamp.
        d.begin();
        let s2 = d.serial();
        assert!(d.push_read(s2, &a, 1, 0));
        assert!(d.reads_inline[0].snapshot(s).is_none());
        assert!(d.reads_inline[0].snapshot(s2).is_some());
    }

    #[test]
    fn validate_reads_tolerates_own_installed_write() {
        // A transaction that reads a word and later installs its own write
        // over the observed pre-image must still validate (regression test
        // for the read-your-own-write-set livelock).
        let d = Desc::new(0);
        d.begin();
        let s = d.serial();
        let a = CasWord::new(5);
        let (v, c) = a.load_parts();
        assert!(d.push_read(s, &a, v, c));
        assert!(d.push_write(s, &a, v, c, 6));
        // Simulate the install: descriptor payload with counter bumped by 1.
        assert!(a
            .raw()
            .cas(pack(v, c), pack(d.as_payload(), c.wrapping_add(1))));
        assert!(
            d.validate_reads(s),
            "own installed write must not invalidate the read"
        );
        // A *foreign* descriptor (different payload) must still fail.
        assert!(a.raw().cas(
            pack(d.as_payload(), c.wrapping_add(1)),
            pack(0xdead_beef, c.wrapping_add(1))
        ));
        assert!(!d.validate_reads(s));
    }

    #[test]
    fn validate_reads_detects_change() {
        let d = Desc::new(0);
        d.begin();
        let s = d.serial();
        let a = CasWord::new(5);
        let (v, c) = a.load_parts();
        assert!(d.push_read(s, &a, v, c));
        assert!(d.validate_reads(s));
        // Any change to the word (value or counter) must fail validation.
        assert!(a.cas_value(5, 6));
        assert!(!d.validate_reads(s));
    }

    #[test]
    fn uninstall_writes_back_and_skips_never_installed_entries() {
        let d = Desc::new(0);
        d.begin();
        let s = d.serial();
        let a = CasWord::new(10);
        let b = CasWord::new(20);
        let (av, ac) = a.load_parts();
        let (bv, bc) = b.load_parts();
        assert!(d.push_write(s, &a, av, ac, 11));
        assert!(d.push_write(s, &b, bv, bc, 21));
        // Install only `a`; `b`'s install never ran (lost conflict).
        assert!(a
            .raw()
            .cas(pack(av, ac), pack(d.as_payload(), ac.wrapping_add(1))));
        d.uninstall(s, Status::Aborted);
        assert_eq!(a.try_load_value(), Some(10), "installed word rolled back");
        assert_eq!(b.load_parts(), (20, 0), "never-installed word untouched");
    }

    #[test]
    fn capacity_is_enforced() {
        let d = Desc::new(0);
        d.begin();
        let s = d.serial();
        let a = CasWord::new(0);
        for _ in 0..MAX_READ_ENTRIES {
            assert!(d.push_read(s, &a, 0, 0));
        }
        assert!(!d.push_read(s, &a, 0, 0));
        for _ in 0..MAX_ENTRIES {
            assert!(d.push_write(s, &a, 0, 0, 1));
        }
        assert!(!d.push_write(s, &a, 0, 0, 1));
    }
}
