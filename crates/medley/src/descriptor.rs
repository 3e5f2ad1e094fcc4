//! Transaction descriptors and the status-word protocol of M-compare-N-swap.
//!
//! Each thread owns one [`Desc`] (pre-allocated inside the `TxManager` and
//! reused across transactions, as in the paper).  A descriptor packs a
//! `tid | serial | status` triple into a single 64-bit status word (Fig. 4)
//! and carries a write set.
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
//! 1. *publish writes*: every buffered write is copied into the stamp-sealed
//!    entries below ([`Desc::push_write`]);
//! 2. *install*: the descriptor is CASed into each written word over its
//!    recorded `(value, counter)` pre-image; a failed CAS is a lost
//!    conflict, since counters only grow;
//! 3. *decide*: the owner checks its buffered reads against memory and, if
//!    they all hold, CASes the status word `InPrep -> Committed`
//!    ([`Desc::decide_own`]);
//! 4. *uninstall*: the descriptor in each word is replaced with the new (or
//!    old) value.
//!
//! The read set is never published: only the owner validates it.  A helper
//! that meets the descriptor while it is undecided aborts it
//! ([`Desc::try_finalize`]), after which the owner's status CAS fails — that
//! is all obstruction-freedom asks of a stalled owner.  A helper that meets a
//! decided descriptor uninstalls it from the published write entries.
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
//! split into a **hot header** — the status word, the write-set size, and
//! `INLINE_WRITES` (8) inline entries, all sharing the descriptor's first
//! few cache lines — and a **spill region** holding the remaining capacity
//! (up to [`MAX_ENTRIES`] writes).  The spill is allocated lazily on first
//! use: a thread that only ever runs small transactions costs a few hundred
//! bytes instead of the ~160 KiB a fully pre-allocated write set would
//! occupy.
//!
//! ## Cross-thread access and memory ordering
//!
//! Helpers read a descriptor's write set while uninstalling a published
//! transaction, so every entry field is an atomic and every entry is stamped
//! with the serial number of the transaction it belongs to.  Each entry is a
//! per-entry seqlock with the serial as the sequence word:
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
//! On x86 the `Release`/`Acquire` pairs compile to plain loads and stores.
//! The status word keeps `SeqCst` CASes — it is the linearization point of
//! commit/abort and is touched a constant number of times per transaction.

use crate::atomic128::pack;
use crate::casobj::CasWord;
use std::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Maximum number of write-set entries per transaction; the read set holds
/// twice as many (`MAX_READ_ENTRIES`).
///
/// TPC-C `newOrder` touches on the order of a hundred words; 4096 leaves
/// ample headroom.  Only the first `INLINE_WRITES` (8) entries live inside
/// the descriptor; the rest are spilled to a lazily allocated region, so the
/// capacity is effectively free until a transaction actually uses it.
pub const MAX_ENTRIES: usize = 4096;

/// Maximum number of read-set entries per transaction: two per write-set
/// entry, because the widest read there is — an ordered range page —
/// registers two words per key it returns (the node's link and its value
/// word), and a page should hold as many keys as a transaction can write.
/// The read set stays in the owner's buffer; this bounds that buffer.
pub(crate) const MAX_READ_ENTRIES: usize = 2 * MAX_ENTRIES;

/// Write-set entries stored inline in the descriptor's hot header.
pub(crate) const INLINE_WRITES: usize = 8;

/// Transaction status values (paper Fig. 4, without `InProg`: only the
/// owner decides, so there is no state in which others complete a commit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Status {
    /// Initial state: the transaction is executing, or committing and not
    /// yet decided.  Any thread that meets the descriptor may abort it.
    InPrep = 0,
    /// The transaction committed; speculative values become real.
    Committed = 1,
    /// The transaction aborted; speculative values are rolled back.
    Aborted = 2,
}

impl Status {
    fn from_bits(bits: u64) -> Self {
        match bits & STATUS_MASK {
            0 => Status::InPrep,
            1 => Status::Committed,
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
    /// Owner-side seqlock publish (see the module docs for the ordering
    /// argument).
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

    /// Helper-side seqlock snapshot: `Some((addr, old_val, cnt, new_val))`
    /// iff the entry consistently belongs to `serial`.
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
            return None; // recycled mid-read; it belongs to another serial
        }
        Some((addr, old_val, cnt, new_val))
    }
}

/// A per-thread transaction descriptor.
///
/// Reused across transactions; the serial number embedded in the status word
/// distinguishes incarnations.  The layout is split into a hot header
/// (status, count, inline entries) and a lazily allocated spill region; see
/// the module docs.
pub struct Desc {
    status: AtomicU64,
    wcount: AtomicUsize,
    writes_inline: [WriteEntry; INLINE_WRITES],
    writes_spill: OnceLock<Box<[WriteEntry]>>,
}

impl std::fmt::Debug for Desc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.status.load(Ordering::Relaxed);
        f.debug_struct("Desc")
            .field("tid", &tid_of(s))
            .field("serial", &serial_of(s))
            .field("status", &status_of(s))
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
            wcount: AtomicUsize::new(0),
            writes_inline: std::array::from_fn(|_| WriteEntry::default()),
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

    /// Entry `idx` of the write set (inline or spill).  The spill half is
    /// only reachable once the owner has pushed past the inline capacity,
    /// which initializes it first.
    #[inline]
    fn write_entry(&self, idx: usize) -> &WriteEntry {
        if idx < INLINE_WRITES {
            &self.writes_inline[idx]
        } else {
            &self.writes_spill.get().expect("spill write published")[idx - INLINE_WRITES]
        }
    }

    /// Begins a new transaction: clears the write set and advances the
    /// serial number, resetting the status to `InPrep` (paper `txBegin`).
    ///
    /// Only the owning thread calls this, and with lazy publication the
    /// descriptor is guaranteed uninstalled everywhere by the time it runs,
    /// so plain (`Relaxed`/`Release`) stores suffice: stale helpers of the
    /// previous serial are fenced off by the entry stamps and the serial
    /// check in every status CAS.
    pub fn begin(&self) {
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

    /// The owner's decision for `serial`: `InPrep -> to`.  Fails iff the
    /// transaction is already decided — by a helper that aborted it, since
    /// only the owner ever commits.
    #[inline]
    pub fn decide_own(&self, serial: u64, to: Status) -> bool {
        let tid = tid_of(self.status.load(Ordering::Relaxed));
        self.status_cas(pack_status(tid, serial, Status::InPrep), to)
    }

    /// Appends an entry to the write set (the "publish writes" step of the
    /// lifecycle).  Returns `false` when capacity is exhausted.
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
            // SAFETY: the CasWord lives inside a data-structure node that is
            // protected by the owner's EBR pin for the duration of the
            // transaction, and an entry stamped with `serial` names a word
            // the descriptor may still be installed on — the owner's pin
            // outlives every install of that serial.
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
    /// An undecided descriptor is aborted: the helper does not finish the
    /// owner's commit, it only makes sure the owner can no longer make one.
    /// The write entries the uninstall needs are always visible: the install
    /// CAS that exposed the descriptor is a full barrier ordered after the
    /// publish stores, and the caller found the descriptor with an acquire
    /// load.
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
            // Eager contention management: abort the undecided owner.
            let _ = self.status_cas(cur, Status::Aborted);
            cur = self.status.load(Ordering::SeqCst);
            if serial_of(cur) != serial {
                return;
            }
        }
        match status_of(cur) {
            Status::InPrep => {} // unreachable: a failed CAS means decided
            outcome => self.uninstall(serial, outcome),
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
                for st in [Status::InPrep, Status::Committed, Status::Aborted] {
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
        assert_eq!(d.wcount.load(Ordering::Relaxed), 0);
        d.begin();
        assert_eq!(d.serial(), 2);
    }

    #[test]
    fn undecided_status_is_decided_once() {
        let d = Desc::new(1);
        d.begin();
        let s = d.serial();
        // A helper's abort of the undecided transaction...
        assert!(d.status_cas(d.status_word(), Status::Aborted));
        // ...makes the owner's commit fail, and the outcome stays put.
        assert!(!d.decide_own(s, Status::Committed));
        assert!(!d.decide_own(s, Status::Aborted));
        assert_eq!(status_of(d.status_word()), Status::Aborted);
        // The next incarnation decides afresh; an older serial cannot touch it.
        d.begin();
        assert!(!d.decide_own(s, Status::Committed), "stale serial");
        assert!(d.decide_own(d.serial(), Status::Committed));
        assert_eq!(status_of(d.status_word()), Status::Committed);
        assert!(!d.status_cas(pack_status(1, d.serial(), Status::InPrep), Status::Aborted));
    }

    #[test]
    fn spill_region_is_lazy_and_transparent() {
        let d = Desc::new(0);
        d.begin();
        let s = d.serial();
        let words: Vec<CasWord> = (0..=INLINE_WRITES as u64).map(CasWord::new).collect();
        // Stay within the inline capacity: no spill allocation.
        for (v, w) in words.iter().take(INLINE_WRITES).enumerate() {
            assert!(d.push_write(s, w, v as u64, 0, 100 + v as u64));
        }
        assert!(
            d.writes_spill.get().is_none(),
            "inline pushes must not spill"
        );
        // One more write crosses into the spill region.
        assert!(d.push_write(s, &words[INLINE_WRITES], INLINE_WRITES as u64, 0, 108));
        assert!(d.writes_spill.get().is_some());
        assert_eq!(d.wcount.load(Ordering::Relaxed), INLINE_WRITES + 1);
        // Inline and spilled entries are uninstalled alike.
        for (v, w) in words.iter().enumerate() {
            assert!(w.raw().cas(pack(v as u64, 0), pack(d.as_payload(), 1)));
        }
        d.uninstall(s, Status::Committed);
        for (v, w) in words.iter().enumerate() {
            assert_eq!(w.load_parts(), (100 + v as u64, 2), "spilled entries too");
        }
    }

    #[test]
    fn entry_snapshot_rejects_other_serials() {
        let d = Desc::new(0);
        d.begin();
        let s = d.serial();
        let a = CasWord::new(1);
        assert!(d.push_write(s, &a, 1, 0, 2));
        assert!(d.writes_inline[0].snapshot(s).is_some());
        assert!(d.writes_inline[0].snapshot(s + 1).is_none());
        // Recycling the entry for the next serial invalidates the old stamp.
        d.begin();
        let s2 = d.serial();
        assert!(d.push_write(s2, &a, 1, 0, 3));
        assert!(d.writes_inline[0].snapshot(s).is_none());
        assert!(d.writes_inline[0].snapshot(s2).is_some());
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
        for _ in 0..MAX_ENTRIES {
            assert!(d.push_write(s, &a, 0, 0, 1));
        }
        assert!(!d.push_write(s, &a, 0, 0, 1));
    }
}
