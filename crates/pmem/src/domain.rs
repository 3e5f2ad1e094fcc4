//! The persistence domain: payload store + epoch protocol (nbMontage-style).
//!
//! nbMontage distinguishes *payloads* (semantically significant data — for a
//! mapping, the pile of key/value pairs) from *indices* (transient structures
//! kept in DRAM and rebuilt on recovery).  Payloads are tagged with the epoch
//! of the operation that created or retired them; wall-clock time is divided
//! into epochs, payloads are written back in batches at epoch boundaries, and
//! recovery after a crash in epoch `e` restores the state as of the end of
//! epoch `e - 2`.
//!
//! [`PersistenceDomain`] implements exactly this protocol over the simulated
//! NVM of [`crate::nvm`].  The epoch clock is the `TxManager`'s epoch word,
//! so that — with `TxManager::set_epoch_validation(true)` — Medley
//! transactions validate the epoch as part of their MCNS commit and therefore
//! always linearize entirely inside one epoch: this is the one-line
//! integration that gives txMontage failure atomicity "almost for free"
//! (paper Sec. 4.4).
//!
//! # Contention-scalable payload store
//!
//! The payload store is sharded into **per-thread arenas**, one per
//! `TxManager` thread slot (the manager guarantees at most one live handle
//! per slot, so each arena has a single allocating thread).  The fast paths
//! take one lock, their arena's nursery lock, on a line of its own:
//!
//! * **alloc** — reuse a slot recycled out of the nursery, else pop the
//!   arena's Treiber free list (single popper: the owning slot) or
//!   bump-extend a lazily allocated chunk; tag the slot.  A birth tagged with
//!   the current epoch enters the arena's **nursery**, a stale one the
//!   arena's *dirty list* for its epoch;
//! * **retire** (any thread) — tagged `e`, recycle the slot on the spot if
//!   its birth is `e` and the nursery still holds that birth; else store the
//!   tag and push the slot on the dirty list for `e`.  The tag is final (a
//!   standalone caller retires with the epoch it re-reads after its update);
//! * **abandon** (aborted transaction) — recycle on the spot if the nursery
//!   still holds the birth; else flag the slot, recycled when its birth
//!   entry is consumed (at once if that already happened).
//!
//! A nursery holds the births of one epoch; an owner allocating in a later
//! epoch hands the survivors to their epoch's dirty list in one splice.
//! Dirty lists are **epoch-indexed**: each arena keeps a small ring of
//! intrusive lock-free lists, one per recent epoch.
//! [`PersistenceDomain::advance_epoch`] consumes only the lists of the
//! epochs crossing the durability horizon, and in place the births of the
//! nurseries behind it (an idle owner's), so the per-epoch write-back is
//! `O(payloads born/retired in those epochs)` rather than `O(every slot
//! ever allocated)`.
//!
//! Recycling on the spot is safe because **a hot-path slot read is
//! re-checked against the index word that named it**: a reader loads a
//! payload id from an index value word, reads the slot with
//! [`PersistenceDomain::payload_word`], and re-loads the word.  Slots are
//! never freed while the domain lives and every field is atomic, so a read
//! of a slot recycled under the reader is memory-safe, only stale; and a
//! payload is retired only after its binding has left the index word, so a
//! word that still holds the same id and counter proves the read was of the
//! live payload.  Recovery and the drain read slots under the recycle lock.
//! A slot recycled on the spot has no dirty entry, and its birth is above
//! every horizon (recovery needs `birth < horizon <= retire`), so neither
//! can see it.
//!
//! ## Epoch lifecycle of one payload slot
//!
//! ```text
//!   alloc(e)                    retire(r)                advance past r
//!   ────────►  LIVE, birth=e  ───────────►  retired(r)  ───────────────►  FREE
//!      │        │  nursery, then            │  dirty[r%R] ◄─ retire         │
//!      │        │  dirty[e%R] ◄─ birth      │                               │
//!      │        ▼ advance past e            ▼ advance past r                │
//!      │     birth written back        retirement written back,             │
//!      │     (payload durable,         slot recycled exactly once           │
//!      │      recoverable)             (never before it is durable)         │
//!      │                                                                    │
//!      ├── retire(e) or abort while still in the nursery → recycled ────────┤
//!      │   on the spot: no dirty entry, no write-back                       │
//!      └── abort later → ABANDONED ── birth entry consumed ─────────────────┘
//! ```
//!
//! A payload whose retirement reaches a dirty list is written back, birth
//! and retirement, even if both carry one epoch: the nursery has already
//! caught every such retirement made before the owner moved on to the next
//! epoch, which under a skewed update mix is most of them.
//!
//! Both drains may skip an owner overtaken by two advances between its
//! clock read and its nursing, so it re-reads the clock after nursing and,
//! if its epoch is behind the horizon, consumes its own nursery under the
//! recycle lock (the repair a stale dirty-list push gets).
//!
//! ## Payload format
//!
//! A slot is one cache line: eight words, the free-list link sharing storage
//! with the birth dirty link (a slot is on the free list only after both of
//! its dirty entries are consumed, and leaves it before its next birth entry
//! is pushed).  A word value lives in the slot's `val`.  Any other value
//! spills to a chain of 256-byte overflow blocks (a link and 248 data bytes
//! each), which the slot's `val` heads and its `vlen` length-prefixes.  A
//! birth writes back the slot's line plus four lines per block, a
//! retirement the slot's line.  Slots and blocks live in two slabs of the
//! arena, one `Slab` type: lazily allocated chunks, extended by the owner,
//! and a free list it alone pops.  A slot recycled on the spot returns its
//! chain with it.
//!
//! `persisted_epoch` is advanced only *after* the write-back of the epochs it
//! covers, and [`PersistenceDomain::recover`] derives its horizon from
//! `persisted_epoch` under the same lock that serializes recycling — so
//! recovery can never claim durability for an epoch whose write-back has not
//! happened, and no payload visible at the horizon is recycled mid-scan.

use crate::nvm::{NvmCostModel, SimNvm};
use crate::value::{Value, MAX_VALUE_BYTES};
use medley::util::sync::Mutex;
use medley::util::CachePadded;
use medley::TxManager;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::OnceLock;

/// A payload slot is retired but its retirement is not yet durable.
const LIVE: u64 = u64::MAX;

/// Birth sentinel of a slot that currently holds no payload (free, or still
/// being initialized by its owner).
const UNBORN: u64 = u64::MAX;

/// Identifier of a payload record (returned by
/// [`PersistenceDomain::alloc_value`]).  The id packs the owning thread slot
/// into the high bits and the slot index into the low 38 bits; treat it as
/// opaque.  A thread slot fits in 14 bits, so an id is below 2⁵²: an index
/// can keep it as an inline word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PayloadId(pub u64);

/// Statistics of a persistence domain.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DomainStats {
    /// Payload records currently considered live (born, not retired, not
    /// abandoned).
    pub live_payloads: usize,
    /// Payload slots available for reuse.
    pub free_slots: usize,
    /// Payload slots ever created (live + free + in flight).
    pub allocated_slots: usize,
    /// Epoch up to which payloads have been written back.
    pub persisted_epoch: u64,
    /// Current epoch.
    pub current_epoch: u64,
}

// ---------------------------------------------------------------------------
// PayloadId encoding
// ---------------------------------------------------------------------------

/// Bits of a [`PayloadId`] holding the slot index within its arena.
const IDX_BITS: u32 = 38;
const IDX_MASK: u64 = (1 << IDX_BITS) - 1;

#[inline]
fn encode_id(tid: usize, idx: u64) -> PayloadId {
    debug_assert!(idx <= IDX_MASK);
    PayloadId(((tid as u64) << IDX_BITS) | idx)
}

#[inline]
fn decode_id(id: PayloadId) -> (usize, u64) {
    ((id.0 >> IDX_BITS) as usize, id.0 & IDX_MASK)
}

// ---------------------------------------------------------------------------
// Arenas
// ---------------------------------------------------------------------------

/// Slot-state flags (bits of `Slot::state`).  `*_CONSUMED`: that dirty
/// entry has been consumed (and written back) by a drain.
const BIRTH_CONSUMED: u64 = 1 << 0;
const RETIRE_CONSUMED: u64 = 1 << 1;
/// The slot has been pushed on its arena's free list (set exactly once per
/// incarnation — this is the per-slot flag that replaces the old
/// `free.contains(&idx)` scan and makes double-recycling impossible).
const FREED: u64 = 1 << 2;
/// The payload belongs to an aborted transaction and was never part of any
/// durable state; recycled when its birth dirty entry is consumed.
const ABANDONED: u64 = 1 << 3;

const KIND_BIRTH: usize = 0;
const KIND_RETIRE: usize = 1;

/// The dirty-list entry of slot `idx` of the given kind.
#[inline]
fn entry(idx: u64, kind: usize) -> u64 {
    idx * 2 + kind as u64
}

/// Inverse of [`entry`]: `(idx, kind)`.
#[inline]
fn decode_entry(enc: u64) -> (u64, usize) {
    (enc / 2, (enc % 2) as usize)
}
/// The free-list link of a slot is its birth dirty link: a slot is freed
/// only after both of its dirty entries have been consumed (the recycling
/// handoff of `ArenaStore::consume`), and only the owner's pop, which
/// takes it off the free list, pushes a new birth entry.
const FREE_LINK: usize = KIND_BIRTH;

/// Size of the per-arena epoch ring of dirty lists.  Unconsumed dirty epochs
/// span at most the two epochs above the durability horizon (plus a little
/// slack for stale tags, which the drain re-buckets), so 8 is ample.
const RING: usize = 8;

const CHUNK_SHIFT: u32 = 13;
/// Elements per lazily-allocated slab chunk.
const CHUNK_SIZE: usize = 1 << CHUNK_SHIFT;
/// Maximum chunks per slab (bounds each slab at 8Mi elements — comfortably
/// above the paper's 1M-key workloads even when one thread preloads the
/// whole store; the chunk table, 40 KiB, is allocated with the slab's first
/// chunk).
const MAX_CHUNKS: usize = 1024;

/// `vlen` sentinel: the slot's value is the plain word in `val`.
const VLEN_WORD: u64 = u64::MAX;
/// Data words per overflow block (a 256-byte block: next link + 248 data
/// bytes).
const OVF_DATA_WORDS: usize = 31;
const OVF_DATA_BYTES: usize = OVF_DATA_WORDS * 8;

/// One payload slot: a key/value pair, its birth/retire epochs, its state
/// flags, and the intrusive links threading it (per kind) onto one
/// epoch-indexed dirty list, or onto its arena's free list.  The value is a
/// word in `val` (`vlen == VLEN_WORD`) or an overflow-chain head (`val` =
/// block index + 1, `vlen` = byte length).
///
/// Eight words on a cache line of their own: the alloc/retire fast paths
/// and the write-back of a word payload each touch one line.
#[repr(align(64))]
struct Slot {
    key: AtomicU64,
    val: AtomicU64,
    /// Value byte length, or [`VLEN_WORD`] for a plain word in `val`.
    vlen: AtomicU64,
    /// Birth epoch; [`UNBORN`] while the slot is free.  Stored with
    /// `Release` as the publication of `key`/`val` and the chain.
    birth: AtomicU64,
    /// Retirement epoch; [`LIVE`] while the payload is live.
    retire: AtomicU64,
    state: AtomicU64,
    /// Next dirty entry per kind (encoded entry + 1; 0 = end), meaningful
    /// only while the slot sits on the corresponding dirty list.  While the
    /// slot is FREED, `links[FREE_LINK]` is the next free slot instead
    /// (index + 1; 0 = end): the two uses never overlap (see [`FREE_LINK`]).
    /// While its birth is in the nursery, `links[KIND_BIRTH]` is its
    /// position there.
    links: [AtomicU64; 2],
}

const _: () = assert!(std::mem::size_of::<Slot>() == 64 && std::mem::align_of::<Slot>() == 64);

impl Default for Slot {
    fn default() -> Self {
        Self {
            key: AtomicU64::new(0),
            val: AtomicU64::new(0),
            vlen: AtomicU64::new(VLEN_WORD),
            birth: AtomicU64::new(UNBORN),
            retire: AtomicU64::new(LIVE),
            state: AtomicU64::new(0),
            links: [AtomicU64::new(0), AtomicU64::new(0)],
        }
    }
}

/// One 256-byte overflow block of a spilled value.
#[derive(Default)]
struct OvfBlock {
    /// Next block in the chain (index + 1; 0 = end).
    next: AtomicU64,
    data: [AtomicU64; OVF_DATA_WORDS],
}

/// An element of a [`Slab`]: while it is free, its free link holds the next
/// free element (index + 1; 0 = end).
trait FreeLink: Default {
    fn free_link(&self) -> &AtomicU64;
}

impl FreeLink for Slot {
    /// The birth dirty link (see [`FREE_LINK`]).
    fn free_link(&self) -> &AtomicU64 {
        &self.links[FREE_LINK]
    }
}

impl FreeLink for OvfBlock {
    /// The chain link: a free block is in no chain.
    fn free_link(&self) -> &AtomicU64 {
        &self.next
    }
}

/// Simulated cache lines written back for one payload birth: the slot's
/// line, plus four lines per 256-byte overflow block of a spilled value.
#[inline]
fn birth_lines(vlen: u64) -> u64 {
    if vlen == VLEN_WORD {
        1
    } else {
        1 + (vlen as usize).div_ceil(OVF_DATA_BYTES).max(1) as u64 * 4
    }
}

/// Pushes the chain from `first` to the one whose link is `last` on a
/// Treiber stack (any thread).
fn treiber_push(head: &AtomicU64, first: u64, last: &AtomicU64) {
    loop {
        let h = head.load(Ordering::Acquire);
        last.store(h, Ordering::Relaxed);
        if head
            .compare_exchange_weak(h, first + 1, Ordering::Release, Ordering::Acquire)
            .is_ok()
        {
            return;
        }
    }
}

/// [`MAX_CHUNKS`] chunks of [`CHUNK_SIZE`] elements, each allocated when
/// first needed.
type ChunkTable<T> = OnceLock<Box<[OnceLock<Box<[T]>>]>>;

/// One arena's slots, or its overflow blocks: a [`ChunkTable`] extended by
/// the owning thread only, and a Treiber free list pushed by any thread and
/// popped only by the owner (a single popper, so the pop cannot suffer ABA).
///
/// The chunk table is allocated with the first chunk, so an arena that
/// never allocates keeps one empty `OnceLock` per slab.  A lookup makes the
/// same two dependent loads as a table allocated up front: the table
/// pointer, inline in the slab, then the chunk's entry.
#[derive(Default)]
struct Slab<T> {
    /// On lines of its own: a lookup on any thread resolves its payload's
    /// slot through it, while the owner and the drains write the counters
    /// below.
    chunks: CachePadded<ChunkTable<T>>,
    /// Published element count.
    len: AtomicU64,
    /// Free-list head (index + 1; 0 = empty).
    free_head: AtomicU64,
}

impl<T: FreeLink> Slab<T> {
    /// Element `idx`, which has been published.
    #[inline]
    fn get(&self, idx: u64) -> &T {
        let (chunk, off) = (idx >> CHUNK_SHIFT, idx & (CHUNK_SIZE as u64 - 1));
        let chunk = self.chunks.get().and_then(|t| t[chunk as usize].get());
        &chunk.expect("published chunk")[off as usize]
    }

    /// Pops a free element (owning thread only).
    fn pop_free(&self) -> Option<u64> {
        loop {
            let h = self.free_head.load(Ordering::Acquire);
            if h == 0 {
                return None;
            }
            let next = self.get(h - 1).free_link().load(Ordering::Relaxed);
            if self
                .free_head
                .compare_exchange(h, next, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return Some(h - 1);
            }
        }
    }

    /// Pushes `idx` on the free list (any thread).
    fn push_free(&self, idx: u64) {
        treiber_push(&self.free_head, idx, self.get(idx).free_link());
    }

    /// Extends the slab by one element (owning thread only).
    fn bump(&self) -> u64 {
        let idx = self.len.load(Ordering::Relaxed);
        let chunk = (idx >> CHUNK_SHIFT) as usize;
        assert!(chunk < MAX_CHUNKS, "payload arena exhausted");
        let table = self
            .chunks
            .get_or_init(|| (0..MAX_CHUNKS).map(|_| OnceLock::new()).collect());
        table[chunk].get_or_init(|| (0..CHUNK_SIZE).map(|_| T::default()).collect());
        // Fresh slots carry `birth == UNBORN`, so publishing the length
        // before the slot is tagged cannot expose uninitialized payloads.
        self.len.store(idx + 1, Ordering::Release);
        idx
    }
}

/// [`Arena::held`] of a nursery that holds no birth.
const NO_BIRTHS: u64 = u64::MAX;

/// An arena's births of one epoch (the epoch is [`Arena::held`]) and the
/// slots recycled out of them (see the module docs).
#[derive(Default)]
struct Nursery {
    /// Birth entries; a slot's birth link holds its position here.
    births: Vec<u64>,
    /// Slot indices recycled on the spot; reused first.  Under the lock they
    /// cost no atomic, unlike the slab's free list.
    recycled: Vec<u64>,
}

/// One thread slot's payload arena: the slot slab, the overflow-block slab,
/// the epoch ring of dirty lists, and the nursery.
struct Arena {
    slots: Slab<Slot>,
    ovf: Slab<OvfBlock>,
    /// Epoch-indexed dirty-list heads (encoded entry + 1; 0 = empty).
    dirty: [AtomicU64; RING],
    /// On a line of its own: foreign retirers take this lock.
    nursery: CachePadded<Mutex<Nursery>>,
    /// The nursery's epoch, or [`NO_BIRTHS`]: written under its lock, read
    /// without it by drains.  `SeqCst`: an owner stores it before re-reading
    /// the clock, a drain loads it after advancing it; one sees the other.
    held: AtomicU64,
}

impl Default for Arena {
    fn default() -> Self {
        Self {
            slots: Slab::default(),
            ovf: Slab::default(),
            dirty: std::array::from_fn(|_| AtomicU64::new(0)),
            nursery: CachePadded::default(),
            held: AtomicU64::new(NO_BIRTHS),
        }
    }
}

impl Arena {
    /// The dirty link of `enc`'s kind in `enc`'s slot.
    fn link(&self, enc: u64) -> &AtomicU64 {
        let (idx, kind) = decode_entry(enc);
        &self.slots.get(idx).links[kind]
    }

    /// Pushes the non-empty chain of dirty entries `encs` on the list of
    /// `epoch` with one CAS (any thread; lock-free Treiber push).
    fn push_dirty(&self, epoch: u64, encs: &[u64]) {
        for pair in encs.windows(2) {
            self.link(pair[0]).store(pair[1] + 1, Ordering::Relaxed);
        }
        let head = &self.dirty[(epoch % RING as u64) as usize];
        treiber_push(head, encs[0], self.link(encs[encs.len() - 1]));
    }

    /// Adds slot `idx`, born in the current epoch, to the nursery; returns
    /// the earlier epoch whose births it first moved to a dirty list.
    fn nurse(&self, n: &mut Nursery, epoch: u64, idx: u64) -> Option<u64> {
        let held = self.held.load(Ordering::Relaxed);
        let handed = (held != epoch && held != NO_BIRTHS).then(|| {
            self.push_dirty(held, &n.births);
            n.births.clear();
            held
        });
        if held != epoch {
            self.held.store(epoch, Ordering::SeqCst);
        }
        let link = &self.slots.get(idx).links[KIND_BIRTH];
        link.store(n.births.len() as u64, Ordering::Relaxed);
        n.births.push(entry(idx, KIND_BIRTH));
        handed
    }

    /// Recycles slot `idx` on the spot if the nursery `n` still holds its
    /// birth; returns whether it did.
    fn recycle_nursling(&self, n: &mut Nursery, idx: u64) -> bool {
        let enc = entry(idx, KIND_BIRTH);
        let pos = self.link(enc).load(Ordering::Relaxed) as usize;
        if n.births.get(pos) != Some(&enc) {
            return false;
        }
        n.births.swap_remove(pos);
        if let Some(&moved) = n.births.get(pos) {
            self.link(moved).store(pos as u64, Ordering::Relaxed);
        }
        if n.births.is_empty() {
            self.held.store(NO_BIRTHS, Ordering::Relaxed);
        }
        self.release(idx);
        n.recycled.push(idx);
        true
    }

    /// Returns a dead slot's overflow chain to the arena and marks the slot
    /// unborn.  Callers hold the recycle lock, or recycle a nursery birth:
    /// above every horizon, no recovery scan reads its chain.
    fn release(&self, idx: u64) {
        let s = self.slots.get(idx);
        if s.vlen.load(Ordering::Relaxed) != VLEN_WORD {
            let mut head = s.val.load(Ordering::Relaxed);
            while head != 0 {
                // Read the link before the push overwrites it with the
                // free-list link (they share the `next` field).
                let next = self.ovf.get(head - 1).next.load(Ordering::Relaxed);
                self.ovf.push_free(head - 1);
                head = next;
            }
        }
        s.vlen.store(VLEN_WORD, Ordering::Relaxed);
        s.birth.store(UNBORN, Ordering::Release);
    }

    /// Builds the overflow chain for `bytes`, tail to head (so every `next`
    /// link is written before the head is published), and returns the head
    /// block index + 1.  Owning thread only.
    fn alloc_ovf_chain(&self, bytes: &[u8]) -> u64 {
        let nblocks = bytes.len().div_ceil(OVF_DATA_BYTES).max(1);
        let mut next = 0u64;
        for i in (0..nblocks).rev() {
            let idx = self.ovf.pop_free().unwrap_or_else(|| self.ovf.bump());
            let blk = self.ovf.get(idx);
            let end = bytes.len().min((i + 1) * OVF_DATA_BYTES);
            for (w, part) in bytes[i * OVF_DATA_BYTES..end].chunks(8).enumerate() {
                let mut buf = [0u8; 8];
                buf[..part.len()].copy_from_slice(part);
                blk.data[w].store(u64::from_le_bytes(buf), Ordering::Relaxed);
            }
            blk.next.store(next, Ordering::Relaxed);
            next = idx + 1;
        }
        next
    }

    /// Reads the value of slot `s`.  Callers hold the recycle lock (recovery
    /// scan), so the slot cannot be recycled — and its overflow chain cannot
    /// be reclaimed — mid-read.
    fn read_value(&self, s: &Slot) -> Value {
        let vlen = s.vlen.load(Ordering::Relaxed);
        if vlen == VLEN_WORD {
            return Value::U64(s.val.load(Ordering::Relaxed));
        }
        let len = (vlen as usize).min(MAX_VALUE_BYTES);
        let mut out = Vec::with_capacity(len.div_ceil(OVF_DATA_BYTES) * OVF_DATA_BYTES);
        let mut head = s.val.load(Ordering::Relaxed);
        while head != 0 && out.len() < len {
            let blk = self.ovf.get(head - 1);
            for w in &blk.data {
                out.extend(w.load(Ordering::Relaxed).to_le_bytes());
            }
            head = blk.next.load(Ordering::Relaxed);
        }
        out.truncate(len);
        Value::from_bytes(&out)
    }
}

/// The sharded payload store.
struct ArenaStore {
    arenas: Box<[CachePadded<Arena>]>,
    /// Serializes slot recycling against recovery scans (and the periodic
    /// drains against each other).  Never taken on the alloc/retire fast
    /// paths.
    recycle_lock: Mutex<()>,
}

impl ArenaStore {
    fn new(max_threads: usize) -> Self {
        Self {
            arenas: (0..max_threads)
                .map(|_| CachePadded::new(Arena::default()))
                .collect(),
            recycle_lock: Mutex::new(()),
        }
    }

    /// Recycles a slot exactly once per incarnation (the FREED flag makes a
    /// second attempt a no-op).  A spilled value's overflow chain is
    /// released with its slot; every caller holds the recycle lock, so no
    /// recovery scan can be walking the chain concurrently.
    fn free_slot(arena: &Arena, idx: u64) {
        let s = arena.slots.get(idx);
        if s.state.fetch_or(FREED, Ordering::AcqRel) & FREED == 0 {
            arena.release(idx);
            arena.slots.push_free(idx);
        }
    }

    /// Consumes one epoch bucket of one arena ([`ArenaStore::consume`]);
    /// returns the lines to write back.  Caller holds `recycle_lock`.
    fn drain_bucket(&self, arena: &Arena, bucket: usize, durable: u64) -> u64 {
        let mut entry = arena.dirty[bucket].swap(0, Ordering::AcqRel);
        let mut flushed = 0u64;
        while entry != 0 {
            // Read the successor before any re-push can reuse the link.
            let next = arena.link(entry - 1).load(Ordering::Relaxed);
            flushed += Self::consume(arena, entry - 1, durable);
            entry = next;
        }
        flushed
    }

    /// [`ArenaStore::drain_nursery`] on every nursery behind `durable`,
    /// skipping the others without taking their lock.
    fn drain_nurseries(&self, durable: u64) -> u64 {
        let behind = |a: &&CachePadded<Arena>| a.held.load(Ordering::SeqCst) < durable;
        let drain = |a: &CachePadded<Arena>| Self::drain_nursery(a, durable);
        self.arenas.iter().filter(behind).map(drain).sum()
    }

    /// Consumes, in place, the births of `arena`'s nursery if its epoch is
    /// before `durable`.  Caller holds `recycle_lock`.
    fn drain_nursery(arena: &Arena, durable: u64) -> u64 {
        let mut n = arena.nursery.lock();
        if arena.held.load(Ordering::Relaxed) >= durable {
            return 0;
        }
        arena.held.store(NO_BIRTHS, Ordering::Relaxed);
        let consume = |enc| Self::consume(arena, enc, durable);
        n.births.drain(..).map(consume).sum()
    }

    /// Consumes one dirty entry: writes back a due birth or retirement,
    /// recycles the slot once its retirement (or abandonment) is resolved,
    /// and re-buckets an entry whose tag was moved to a later epoch.
    /// Returns the number of cache lines to write back.  Caller holds
    /// `recycle_lock`.
    ///
    /// ## Recycling handoff (why freeing waits for *both* entries)
    ///
    /// The dirty lists are intrusive: each slot owns its birth/retire link
    /// fields, so a slot must never be recycled — and thus reallocated,
    /// which pushes a *new* birth entry and overwrites the link — while one
    /// of its old entries is still sitting in some bucket (the overwrite
    /// would splice the new list into the old one and could even close a
    /// cycle, hanging the next drain).  A retirement's bucket can be
    /// consumed before its birth's (LIFO order within one shared `e % RING`
    /// bucket, or a birth entry stranded by a push/drain race, in a bucket
    /// or in a nursery), so the free is a handoff: whichever
    /// of the two consumptions observes the other's `*_CONSUMED` flag
    /// already set (the `fetch_or`s totally order them) recycles the slot.
    /// Only then is every reference to the slot's links gone — which is also
    /// what lets the free list reuse the birth link.
    fn consume(arena: &Arena, enc: u64, durable: u64) -> u64 {
        let (idx, kind) = decode_entry(enc);
        let s = arena.slots.get(idx);
        let tag = [&s.birth, &s.retire][kind].load(Ordering::Acquire);
        if tag == UNBORN {
            return 0; // already recycled (or, defensive: retirement LIVE)
        }
        if tag >= durable && s.state.load(Ordering::Relaxed) & ABANDONED == 0 {
            // Tag moved to a later epoch (standalone-op re-validation): not
            // due yet, re-bucket.
            arena.push_dirty(tag, &[enc]);
            return 0;
        }
        let mine = BIRTH_CONSUMED << kind;
        let st = s.state.fetch_or(mine, Ordering::AcqRel);
        // A birth writes back the whole record, a retirement its slot's
        // line, an abandoned payload (never durable) nothing.
        let lines = match st & (mine | ABANDONED) {
            0 if kind == KIND_BIRTH => birth_lines(s.vlen.load(Ordering::Relaxed)),
            0 => 1,
            _ => 0,
        };
        // The second consumption recycles (the handoff above), so a
        // retirement is recycled only once durable; an abandoned birth
        // needs no retirement (`free_slot` is idempotent).
        if st & ((BIRTH_CONSUMED | RETIRE_CONSUMED) ^ mine | ABANDONED) != 0 {
            Self::free_slot(arena, idx);
        }
        lines
    }
}

// ---------------------------------------------------------------------------
// Domain
// ---------------------------------------------------------------------------

/// An nbMontage-style persistence domain bound to one [`TxManager`].
///
/// Payload arenas are registered per manager thread slot: the domain sizes
/// its store from [`TxManager::max_threads`] and callers identify their
/// arena by the thread-slot id (`Ctx::tid` / `ThreadHandle::tid`), so a
/// domain must only be used with handles of the manager it was created on.
pub struct PersistenceDomain {
    mgr: Arc<TxManager>,
    nvm: SimNvm,
    store: ArenaStore,
    /// Epoch up to which all payload births/retirements have been "written
    /// back" to simulated NVM (exclusive).  Advanced only after the
    /// write-back of the epochs it covers.
    persisted_epoch: AtomicU64,
}

impl std::fmt::Debug for PersistenceDomain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PersistenceDomain")
            .field("current_epoch", &self.current_epoch())
            .field(
                "persisted_epoch",
                &self.persisted_epoch.load(Ordering::Relaxed),
            )
            .finish()
    }
}

/// Exclusive upper bound of the durable epochs at clock value `epoch`:
/// epochs `0 .. durable_end(epoch)` are durable.  Recovery at epoch `e`
/// restores the state as of the *end of epoch `e - 2`*, so nothing at all is
/// durable until the clock has reached 2 (the seed's `saturating_sub`
/// arithmetic conflated "epoch 0 is durable" with "nothing is durable yet",
/// recovering fresh epoch-0 payloads before any write-back and skipping them
/// in the write-back batches).
#[inline]
fn durable_end(epoch: u64) -> u64 {
    if epoch >= 2 {
        epoch - 1
    } else {
        0
    }
}

impl PersistenceDomain {
    /// Creates a domain on `mgr` with the given NVM cost model, and turns on
    /// epoch validation for all transactions of that manager.
    pub fn new(mgr: Arc<TxManager>, cost: NvmCostModel) -> Arc<Self> {
        mgr.set_epoch_validation(true);
        let store = ArenaStore::new(mgr.max_threads());
        Arc::new(Self {
            mgr,
            nvm: SimNvm::new(cost),
            store,
            persisted_epoch: AtomicU64::new(0),
        })
    }

    /// The transaction manager whose epoch word drives this domain.
    pub fn manager(&self) -> &Arc<TxManager> {
        &self.mgr
    }

    /// The simulated NVM device (for inspecting flush/fence counts).
    pub fn nvm(&self) -> &SimNvm {
        &self.nvm
    }

    /// Current epoch.
    pub fn current_epoch(&self) -> u64 {
        self.mgr.current_epoch()
    }

    /// Allocates a payload record for `key -> val`, tagged with `epoch`, in
    /// the arena of thread slot `tid` (the caller's `Ctx::tid()` /
    /// `ThreadHandle::tid()`; the manager guarantees the slot has a single
    /// live owner, which is what makes the arena fast path safe).  A word
    /// value lives in the slot; any other value spills from it to a
    /// length-prefixed overflow chain.
    pub fn alloc_value(&self, tid: usize, key: u64, val: &Value, epoch: u64) -> PayloadId {
        assert!(
            val.byte_len() <= MAX_VALUE_BYTES,
            "payload value exceeds MAX_VALUE_BYTES"
        );
        let arena = &self.store.arenas[tid];
        let mut n = arena.nursery.lock();
        let idx = n
            .recycled
            .pop()
            .or_else(|| arena.slots.pop_free())
            .unwrap_or_else(|| arena.slots.bump());
        let s = arena.slots.get(idx);
        let (word, vlen) = match val {
            Value::U64(v) => (*v, VLEN_WORD),
            Value::Bytes(b) => (arena.alloc_ovf_chain(b), b.len() as u64),
        };
        s.key.store(key, Ordering::Relaxed);
        s.val.store(word, Ordering::Relaxed);
        s.vlen.store(vlen, Ordering::Relaxed);
        s.retire.store(LIVE, Ordering::Relaxed);
        s.state.store(0, Ordering::Relaxed);
        // Publishes the fields above to recovery/write-back scans.
        s.birth.store(epoch, Ordering::Release);
        let nursed = epoch == self.current_epoch();
        // Under the nursery lock: a hook that drains this arena waits for it.
        medley::failpoint!("domain::nurse", key);
        let dirty = if nursed {
            arena.nurse(&mut n, epoch, idx)
        } else {
            arena.push_dirty(epoch, &[entry(idx, KIND_BIRTH)]);
            Some(epoch)
        };
        drop(n);
        if let Some(e) = dirty {
            self.repair_stale_bucket(tid, e);
        }
        if nursed && durable_end(self.current_epoch()) > epoch {
            // Both drains since the clock read may have skipped us.
            self.repair(|durable| ArenaStore::drain_nursery(arena, durable));
        }
        encode_id(tid, idx)
    }

    /// The word value of the word payload `id`, read without a lock.
    ///
    /// The slot may have been retired and recycled since `id` was read, and
    /// then the result belongs to whatever lives there now: a hot-path
    /// caller takes `id` from an index value word and keeps the result only
    /// if a re-load of that word after this read still holds `id` with the
    /// same counter (module docs).  The `Acquire` load orders that re-load
    /// after it.
    pub fn payload_word(&self, id: PayloadId) -> u64 {
        let (tid, idx) = decode_id(id);
        let slot = self.store.arenas[tid].slots.get(idx);
        slot.val.load(Ordering::Acquire)
    }

    /// Abandons a payload that belongs to an *aborted* transaction: the
    /// record was never part of any durable state (its birth epoch is more
    /// recent than every possible recovery horizon), so its slot is recycled
    /// at once if the nursery still holds its birth, else as soon as its
    /// birth-epoch dirty list is consumed (at once if that already
    /// happened).
    pub fn abandon_payload(&self, id: PayloadId) {
        let (tid, idx) = decode_id(id);
        let arena = &self.store.arenas[tid];
        if arena.recycle_nursling(&mut arena.nursery.lock(), idx) {
            return;
        }
        let s = arena.slots.get(idx);
        let st = s.state.fetch_or(ABANDONED, Ordering::AcqRel);
        debug_assert_eq!(st & FREED, 0, "payload abandoned after recycle");
        if st & BIRTH_CONSUMED != 0 {
            // The birth dirty entry was already consumed (the epoch crossed
            // the horizon while the transaction was in flight); nobody else
            // will recycle the slot.  The free must happen under the recycle
            // lock — recovery scans rely on it to pin every slot whose (old)
            // birth they have already read, and a lock-free free here would
            // let the owner reallocate the slot mid-scan and have the scan
            // emit the new in-flight key/value under the old durable birth
            // epoch.  Cold path: this branch only runs when an abort raced
            // the durability horizon.
            let _g = self.store.recycle_lock.lock();
            ArenaStore::free_slot(arena, idx);
        }
    }

    /// Marks the payload `id` as retired in `epoch` (the key/value pair it
    /// represents has been removed or replaced).  May be called from any
    /// thread, not only the arena owner.  `epoch` is final.  A payload born
    /// in `epoch` whose birth the nursery still holds is recycled on the
    /// spot (see the module docs).
    pub fn retire_payload(&self, id: PayloadId, epoch: u64) {
        let (tid, idx) = decode_id(id);
        let arena = &self.store.arenas[tid];
        let s = arena.slots.get(idx);
        if s.birth.load(Ordering::Relaxed) == epoch
            && arena.recycle_nursling(&mut arena.nursery.lock(), idx)
        {
            return;
        }
        let prev = s.retire.swap(epoch, Ordering::AcqRel);
        debug_assert_eq!(prev, LIVE, "payload retired twice");
        arena.push_dirty(epoch, &[entry(idx, KIND_RETIRE)]);
        self.repair_stale_bucket(tid, epoch);
    }

    /// Moves the birth tag of `id` from `from` to the later epoch `to`.
    ///
    /// Standalone (`NonTx`) operations read the epoch before their index
    /// update linearizes; if the clock advanced across the update, the
    /// payload would claim durability one horizon too early (it would be
    /// recovered at a cut the operation is not part of).  Re-tagging with an
    /// epoch read *after* the linearization is always conservative: the
    /// operation linearized no later than the re-read, so the payload can be
    /// lost with the newest epochs but never resurrected.  The write-back
    /// drain re-buckets the pending dirty entry to the new epoch.
    ///
    /// A CAS (never a blind store) so that a slot a foreign remover has
    /// recycled on the spot is left untouched (only the caller, its owner,
    /// can reallocate it).  Removers re-read the clock before retiring.
    pub fn retag_birth(&self, id: PayloadId, from: u64, to: u64) {
        debug_assert!(from <= to);
        let (tid, idx) = decode_id(id);
        let s = self.store.arenas[tid].slots.get(idx);
        let _ = s
            .birth
            .compare_exchange(from, to, Ordering::AcqRel, Ordering::Relaxed);
    }

    /// A dirty entry was pushed for an epoch that is already persisted (a
    /// stale tag, or a push that raced the write-back of its epoch): drain
    /// that bucket now so the write-back claim stays honest.  One relaxed
    /// load on the fast path; the lock is taken only in the racy case.
    fn repair_stale_bucket(&self, tid: usize, epoch: u64) {
        if epoch < self.persisted_epoch.load(Ordering::Acquire) {
            let (arena, bucket) = (&self.store.arenas[tid], (epoch % RING as u64) as usize);
            self.repair(|durable| self.store.drain_bucket(arena, bucket, durable));
        }
    }

    /// Runs `drain` at the persisted horizon under the recycle lock and
    /// writes back what it consumed.
    fn repair(&self, drain: impl FnOnce(u64) -> u64) {
        let _g = self.store.recycle_lock.lock();
        let flushed = drain(self.persisted_epoch.load(Ordering::Relaxed));
        if flushed > 0 {
            self.nvm.flush_lines(flushed);
            self.nvm.fence();
        }
    }

    /// Advances the epoch clock by one and performs the periodic persistence
    /// work for every epoch that is now two behind: all payloads born or
    /// retired in those epochs are written back (one simulated cache-line
    /// flush per record, one fence per batch), and slots whose retirement is
    /// durable are recycled.  This consumes only the nurseries and dirty
    /// lists of the crossing epochs — `O(dirty)`, not `O(all slots)`; a
    /// nursery is locked only if its births are behind the new horizon.
    ///
    /// Returns the new current epoch.
    pub fn advance_epoch(&self) -> u64 {
        let new_epoch = self.mgr.advance_epoch();
        // `persisted_epoch` holds the *exclusive* end of the epoch range
        // whose payload births/retirements have been written back.
        let durable = durable_end(new_epoch);
        let store = &self.store;
        let _g = store.recycle_lock.lock();
        let prev = self.persisted_epoch.load(Ordering::Relaxed);
        if durable > prev {
            let mut flushed = store.drain_nurseries(durable);
            // Each bucket needs draining at most once even if the horizon
            // jumped more than a full ring.
            let lo = if durable - prev >= RING as u64 {
                durable - RING as u64
            } else {
                prev
            };
            for e in lo..durable {
                let bucket = (e % RING as u64) as usize;
                for arena in store.arenas.iter() {
                    flushed += store.drain_bucket(arena, bucket, durable);
                }
            }
            if flushed > 0 {
                self.nvm.flush_lines(flushed);
            }
            self.nvm.fence();
            // Published only after the write-back above, so a recovery
            // horizon derived from it is always honest.
            self.persisted_epoch.store(durable, Ordering::Release);
        }
        new_epoch
    }

    /// nbMontage `sync()`: makes everything completed before the call
    /// durable by advancing the epoch twice.
    ///
    /// This additionally drains *every* dirty bucket (not only the ones the
    /// two advances crossed) and every nursery behind the horizon: an entry
    /// pushed or nursed concurrently with the drain of its own epoch can
    /// land after that drain passed and would otherwise wait for the ring
    /// to wrap or the next advance.  `sync` is the quiescence point, so it
    /// settles such stragglers immediately.
    pub fn sync(&self) {
        self.advance_epoch();
        self.advance_epoch();
        let store = &self.store;
        let _g = store.recycle_lock.lock();
        let durable = self.persisted_epoch.load(Ordering::Relaxed);
        let mut flushed = store.drain_nurseries(durable);
        for arena in store.arenas.iter() {
            for bucket in 0..RING {
                flushed += store.drain_bucket(arena, bucket, durable);
            }
        }
        if flushed > 0 {
            self.nvm.flush_lines(flushed);
            self.nvm.fence();
        }
    }

    /// Simulates post-crash recovery: returns the key/value mapping as of
    /// the recovery horizon.  A payload is recovered if it was born in a
    /// durable epoch and either never retired or retired at/after the
    /// horizon.  Equivalent to [`PersistenceDomain::recover_with_horizon`]
    /// without the horizon.
    pub fn recover(&self) -> HashMap<u64, Value> {
        self.recover_with_horizon().0
    }

    /// [`PersistenceDomain::recover`] for stores known to hold only word
    /// values (the historical fixed-width interface; panics if a blob value
    /// is encountered).
    pub fn recover_u64(&self) -> HashMap<u64, u64> {
        self.recover()
            .into_iter()
            .map(|(k, v)| {
                let v = v
                    .as_u64()
                    .expect("recover_u64 on a store holding blob values");
                (k, v)
            })
            .collect()
    }

    /// Post-crash recovery, also returning the horizon used (the epoch cut
    /// the mapping corresponds to: everything before it is included, nothing
    /// at or after it).
    ///
    /// The horizon is `persisted_epoch` — the exclusive end of the epochs
    /// whose write-back has actually happened — read under the same lock
    /// that serializes recycling.  Deriving it from `current_epoch()` (as
    /// the old code did) races a concurrent [`PersistenceDomain::advance_epoch`]: the clock is
    /// bumped *before* the write-back, so a recovery sampling the clock in
    /// that window would claim durability for epochs that were never written
    /// back.  Holding the recycle lock additionally pins every payload
    /// retired at/after the horizon for the duration of the scan.
    pub fn recover_with_horizon(&self) -> (HashMap<u64, Value>, u64) {
        let store = &self.store;
        let _g = store.recycle_lock.lock();
        let horizon = self.persisted_epoch.load(Ordering::Acquire);
        let mut out = HashMap::new();
        for arena in store.arenas.iter() {
            for idx in 0..arena.slots.len.load(Ordering::Acquire) {
                let s = arena.slots.get(idx);
                let b = s.birth.load(Ordering::Acquire);
                if b == UNBORN || b >= horizon {
                    continue; // free, in-flight, or not yet durable
                }
                if s.state.load(Ordering::Relaxed) & ABANDONED != 0 {
                    continue; // aborted transaction's payload
                }
                let r = s.retire.load(Ordering::Relaxed);
                if r == LIVE || r >= horizon {
                    out.insert(s.key.load(Ordering::Relaxed), arena.read_value(s));
                }
            }
        }
        (out, horizon)
    }

    /// Counters describing the domain's state.
    pub fn stats(&self) -> DomainStats {
        let store = &self.store;
        let _g = store.recycle_lock.lock();
        let mut live = 0usize;
        let mut free = 0usize;
        let mut allocated = 0usize;
        for arena in store.arenas.iter() {
            // The nursery lock keeps the owner from taking a slot off the
            // free list, and the recycle lock everyone from putting one on
            // it, so each FREED flag below is one free-list entry.
            let n = arena.nursery.lock();
            free += n.recycled.len();
            let len = arena.slots.len.load(Ordering::Acquire);
            allocated += len as usize;
            for idx in 0..len {
                let s = arena.slots.get(idx);
                let st = s.state.load(Ordering::Relaxed);
                if st & FREED != 0 {
                    free += 1;
                } else if s.birth.load(Ordering::Acquire) != UNBORN
                    && st & ABANDONED == 0
                    && s.retire.load(Ordering::Relaxed) == LIVE
                {
                    live += 1;
                }
            }
        }
        DomainStats {
            live_payloads: live,
            free_slots: free,
            allocated_slots: allocated,
            persisted_epoch: self.persisted_epoch.load(Ordering::Relaxed),
            current_epoch: self.current_epoch(),
        }
    }
}

/// A background thread that advances the domain's epoch at a fixed period,
/// like nbMontage's epoch advancer.
pub struct EpochAdvancer {
    stop: Arc<std::sync::atomic::AtomicBool>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl EpochAdvancer {
    /// Spawns an advancer ticking every `period`.
    ///
    /// The tick schedule is absolute (`start + k·period`), not
    /// sleep-relative: epoch length is the system's durability promise (an
    /// operation is durable within two periods of completing), so an
    /// advancer that oversleeps — e.g. starved on an oversubscribed box —
    /// catches up instead of silently stretching the epochs and skipping
    /// write-back work.  The catch-up is *lag-bounded* (at most a few
    /// periods of back-to-back advances, then the schedule resyncs): an
    /// unbounded burst would advance the epoch continuously for as long as
    /// the backlog lasts, and since every epoch-validated transaction aborts
    /// when the epoch moves under it, a long burst livelocks all durable
    /// transactions in the system.
    pub fn spawn(domain: Arc<PersistenceDomain>, period: std::time::Duration) -> Self {
        const MAX_LAG_PERIODS: u32 = 4;
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let join = std::thread::spawn(move || {
            let mut next = std::time::Instant::now() + period;
            // Long periods are slept in bounded slices so a shutdown request
            // is honored promptly instead of after up to one full period
            // (µs/ms periods are unaffected: one slice covers them).
            const MAX_SLEEP_SLICE: std::time::Duration = std::time::Duration::from_millis(10);
            while !stop2.load(Ordering::Relaxed) {
                let now = std::time::Instant::now();
                if now < next {
                    std::thread::sleep((next - now).min(MAX_SLEEP_SLICE));
                    if std::time::Instant::now() < next {
                        continue;
                    }
                }
                domain.advance_epoch();
                next += period;
                let now = std::time::Instant::now();
                if now > next + period * MAX_LAG_PERIODS {
                    next = now;
                }
            }
        });
        Self {
            stop,
            join: Some(join),
        }
    }

    /// Requests the advancer thread to stop and joins it.
    ///
    /// Dropping an `EpochAdvancer` does the same implicitly; the explicit
    /// form exists so shutdown sequences can place the join deliberately —
    /// e.g. the durable `kvstore` server drains its workers first, then
    /// stops the advancer, then takes its final recovery cut, guaranteeing
    /// no epoch advance (and no write-back) races the cut.  After `shutdown`
    /// returns, the epoch clock is no longer ticking and no advancer-driven
    /// write-back can be in flight.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

impl Drop for EpochAdvancer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn domain() -> Arc<PersistenceDomain> {
        PersistenceDomain::new(TxManager::new(), NvmCostModel::ZERO)
    }

    #[test]
    fn payloads_become_durable_after_two_epochs() {
        let d = domain();
        let e = d.current_epoch();
        d.alloc_value(0, 1, &Value::U64(10), e);
        // Not yet durable: recovery horizon is e - 2.
        assert!(d.recover().is_empty());
        d.advance_epoch();
        d.advance_epoch();
        let rec = d.recover_u64();
        assert_eq!(rec.get(&1), Some(&10));
    }

    #[test]
    fn retirement_hides_payload_after_horizon_passes() {
        let d = domain();
        let e = d.current_epoch();
        let id = d.alloc_value(0, 2, &Value::U64(20), e);
        d.sync();
        assert_eq!(d.recover_u64().get(&2), Some(&20));
        let e2 = d.current_epoch();
        d.retire_payload(id, e2);
        // Retirement not yet durable: still recovered.
        assert_eq!(d.recover_u64().get(&2), Some(&20));
        d.sync();
        assert!(!d.recover().contains_key(&2));
    }

    #[test]
    fn retired_slots_are_recycled_only_when_durable() {
        // Retired in a later epoch than its birth: the slot waits until the
        // retirement is durable.
        let d = domain();
        let id = d.alloc_value(0, 3, &Value::U64(30), d.current_epoch());
        d.advance_epoch();
        d.retire_payload(id, d.current_epoch());
        assert_eq!(d.stats().free_slots, 0);
        d.advance_epoch();
        assert_eq!(d.stats().free_slots, 0, "retirement not yet durable");
        d.sync();
        assert_eq!(d.stats().free_slots, 1);
        // The recycled slot is reused by the next allocation.
        let id2 = d.alloc_value(0, 4, &Value::U64(40), d.current_epoch());
        assert_eq!(id2, id);
    }

    #[test]
    fn chunk_tables_are_built_by_the_first_allocation() {
        // The thread slot of every slot slab whose chunk table exists, and
        // whether an overflow slab has one.
        fn built(d: &PersistenceDomain) -> (Vec<usize>, bool) {
            let arenas = d.store.arenas.iter().enumerate();
            let slabs = arenas.filter_map(|(tid, a)| a.slots.chunks.get().map(|_| tid));
            let ovf = d.store.arenas.iter().any(|a| a.ovf.chunks.get().is_some());
            (slabs.collect(), ovf)
        }
        let d = domain();
        assert_eq!(built(&d), (vec![], false));
        d.alloc_value(0, 1, &Value::U64(10), d.current_epoch());
        assert_eq!(built(&d), (vec![0], false));
    }

    #[test]
    fn a_slot_retired_in_its_birth_epoch_is_free_at_once() {
        let d = domain();
        let e = d.current_epoch();
        let id = d.alloc_value(0, 3, &Value::U64(30), e);
        d.retire_payload(id, e);
        assert_eq!(d.stats().free_slots, 1, "recycled on the spot");
        assert_eq!(d.stats().live_payloads, 0);
        // The next allocation reuses it, before any advance.
        let id2 = d.alloc_value(0, 4, &Value::U64(40), e);
        assert_eq!(id2, id);
        assert_eq!(d.stats().free_slots, 0);
        d.retire_payload(id2, e);
        d.sync();
        assert_eq!(flushes(&d), 0, "neither payload is written back");
        assert_eq!(d.stats().allocated_slots, 1);
        assert!(d.recover().is_empty());
    }

    #[test]
    fn a_retirement_after_the_birth_epoch_is_not_recycled_on_the_spot() {
        // Born in `e` and still in the nursery (the owner has not allocated
        // since), retired by a standalone remover whose re-read saw `e + 1`:
        // the payload belongs to the cut at horizon `e + 1`.
        let d = domain();
        d.sync();
        let e = d.current_epoch();
        let id = d.alloc_value(0, 1, &Value::U64(10), e);
        d.advance_epoch();
        d.retire_payload(id, e + 1);
        assert_eq!(d.stats().free_slots, 0, "not recycled on the spot");
        d.advance_epoch();
        let (rec, horizon) = d.recover_with_horizon();
        assert_eq!(horizon, e + 1);
        assert_eq!(rec.get(&1), Some(&Value::U64(10)), "cut lost the payload");
        d.advance_epoch();
        let (rec, horizon) = d.recover_with_horizon();
        assert_eq!(horizon, e + 2);
        assert!(rec.is_empty());
        assert_eq!(d.stats().free_slots, 1);
        assert_eq!(flushes(&d), 2, "birth and retirement written back");
    }

    #[test]
    fn an_aborted_transactions_payload_is_free_before_any_advance() {
        use medley::{AbortReason, Ctx, TxError};
        let d = domain();
        let e = d.current_epoch();
        let mut h = d.manager().register();
        let res = h.run(|t| -> Result<(), _> {
            let id = d.alloc_value(t.tid(), 1, &Value::U64(10), t.snapshot_epoch().unwrap());
            let d = Arc::clone(&d);
            t.add_abort_action(move |_| d.abandon_payload(id));
            Err(t.abort(AbortReason::Explicit))
        });
        assert_eq!(res, Err(TxError::Explicit));
        let stats = d.stats();
        assert_eq!(stats.current_epoch, e);
        assert_eq!(
            (stats.free_slots, stats.allocated_slots, stats.live_payloads),
            (1, 1, 0)
        );
        d.sync();
        assert_eq!(flushes(&d), 0);
        assert!(d.recover().is_empty());
    }

    #[test]
    fn a_foreign_same_epoch_retirement_recycles_into_the_owners_arena() {
        let d = PersistenceDomain::new(TxManager::with_max_threads(2), NvmCostModel::ZERO);
        let e = d.current_epoch();
        let id = d.alloc_value(0, 1, &Value::U64(10), e);
        std::thread::scope(|s| {
            s.spawn(|| d.retire_payload(id, e));
        });
        assert_eq!(d.stats().free_slots, 1);
        assert_eq!(
            d.alloc_value(0, 2, &Value::U64(20), e),
            id,
            "the owner reuses it"
        );
        d.sync();
        assert_eq!(flushes(&d), 1, "only the second payload is written back");
        assert_eq!(d.recover_u64(), HashMap::from([(2, 20)]));
    }

    #[test]
    fn a_birth_overtaken_by_two_advances_is_written_back_before_alloc_returns() {
        // The owner reads the clock as `e`, then both drains that cover `e`
        // run before it nurses the birth, so they find its nursery empty.
        let d = domain();
        d.sync();
        let e = d.current_epoch();
        let d2 = Arc::clone(&d);
        let armed = medley::failpoint::arm("domain::nurse", move |_| {
            d2.advance_epoch();
            d2.advance_epoch();
        });
        d.alloc_value(0, 1, &Value::U64(10), e);
        assert_ne!(armed.hits(), 0, "the hook ran");
        let (rec, horizon) = d.recover_with_horizon();
        assert_eq!(horizon, e + 1, "the cut covers the birth");
        assert_eq!(rec.get(&1), Some(&Value::U64(10)));
        assert_eq!(flushes(&d), 1, "and its write-back happened");
        d.sync();
        assert_eq!(flushes(&d), 1, "exactly once");
    }

    /// A worker parked in `alloc_value` after its clock read, holding its
    /// arena's nursery lock before the nursing, does not stop another thread
    /// slot from allocating and retiring in the same epoch on its own arena.
    /// What does wait for it today, and is not asserted here, is everything
    /// that locks slot 0's nursery: `stats`; `advance_epoch` and `sync` once
    /// their horizon reaches a birth slot 0 has nursed; and a foreign
    /// `retire_payload` of a slot-0 payload in its birth epoch.
    #[test]
    fn a_worker_parked_before_nursing_does_not_stop_another_arena() {
        let d = domain();
        let e = d.current_epoch();
        std::thread::scope(|s| {
            let (park, arm_here) = medley::failpoint::park("domain::nurse", 1);
            s.spawn(|| {
                let _armed = arm_here();
                d.alloc_value(0, 1, &Value::U64(10), e);
            });
            park.wait();
            let old = d.alloc_value(1, 2, &Value::U64(20), e);
            d.alloc_value(1, 2, &Value::U64(21), e);
            d.retire_payload(old, e);
        });
        d.sync();
        assert_eq!(d.recover_u64(), HashMap::from([(1, 10), (2, 21)]));
    }

    #[test]
    fn an_idle_owners_births_are_durable_after_two_advances() {
        // The owner allocates once and never again, so it never hands its
        // nursery on: the drain has to take the birth from there.
        let d = PersistenceDomain::new(TxManager::with_max_threads(4), NvmCostModel::ZERO);
        let e = d.current_epoch();
        d.alloc_value(3, 1, &Value::U64(10), e);
        d.advance_epoch();
        assert!(d.recover().is_empty());
        d.advance_epoch();
        assert_eq!(d.recover_u64().get(&1), Some(&10));
        assert_eq!(flushes(&d), 1);
    }

    #[test]
    fn retired_durable_slot_enters_free_list_exactly_once() {
        // Regression for the recycle loop double-pushing slots: a slot whose
        // retirement became durable must be recycled exactly once, no matter
        // how many more epochs pass over it.
        let d = domain();
        let e = d.current_epoch();
        let id = d.alloc_value(0, 7, &Value::U64(70), e);
        d.retire_payload(id, e);
        d.sync();
        assert_eq!(d.stats().free_slots, 1);
        for _ in 0..6 {
            d.advance_epoch();
            assert_eq!(d.stats().free_slots, 1, "slot recycled more than once");
        }
        // One allocation consumes the recycled slot...
        let id2 = d.alloc_value(0, 8, &Value::U64(80), d.current_epoch());
        assert_eq!(id2, id);
        assert_eq!(d.stats().free_slots, 0);
        // ...and the next one must get a fresh slot, not a duplicate.
        let id3 = d.alloc_value(0, 9, &Value::U64(90), d.current_epoch());
        assert_ne!(id3, id2);
    }

    #[test]
    fn abandoned_payloads_are_recycled_and_never_recovered() {
        let d = domain();
        let e = d.current_epoch();
        let id = d.alloc_value(0, 5, &Value::U64(50), e);
        d.abandon_payload(id);
        assert_eq!(d.stats().live_payloads, 0);
        d.sync();
        d.sync();
        assert!(d.recover().is_empty());
        assert_eq!(d.stats().free_slots, 1);
        // Abandon after the birth epoch already crossed the horizon
        // (in-flight transaction overtaken by the clock).
        let e = d.current_epoch();
        let id = d.alloc_value(0, 6, &Value::U64(60), e);
        d.sync(); // birth write-back happens with the payload in flight
        d.abandon_payload(id);
        assert!(!d.recover().contains_key(&6));
        d.sync();
        assert!(!d.recover().contains_key(&6));
        assert_eq!(d.stats().live_payloads, 0);
        // The first abandoned slot was recycled and reused by the second
        // allocation, so exactly one slot is free again.
        assert_eq!(d.stats().free_slots, 1);
        assert_eq!(d.stats().allocated_slots, 1);
    }

    #[test]
    fn flush_and_fence_are_batched_per_epoch() {
        let d = domain();
        let e = d.current_epoch();
        for k in 0..100 {
            d.alloc_value(0, k, &Value::U64(k), e);
        }
        let (flushes_before, _) = d.nvm().stats().snapshot();
        assert_eq!(flushes_before, 0, "no eager flushing");
        d.sync();
        let (flushes, fences) = d.nvm().stats().snapshot();
        assert_eq!(flushes, 100, "one write-back per payload, batched");
        assert!(fences <= 4, "a handful of fences per epoch, not per op");
    }

    #[test]
    fn dirty_lists_make_write_back_proportional_to_churn() {
        // A large resident population must not be re-flushed by later
        // epochs: after the initial write-back, an epoch that saw k updates
        // flushes O(k) lines, independent of the resident set.
        let d = domain();
        let e = d.current_epoch();
        for k in 0..10_000 {
            d.alloc_value(0, k, &Value::U64(k), e);
        }
        d.sync();
        let (flushes_initial, _) = d.nvm().stats().snapshot();
        assert_eq!(flushes_initial, 10_000);
        // Two quiet epochs: nothing new to write back.
        d.sync();
        let (flushes_quiet, _) = d.nvm().stats().snapshot();
        assert_eq!(flushes_quiet, flushes_initial, "quiet epochs flush nothing");
        // A small burst: write-back is proportional to the burst only.
        let e = d.current_epoch();
        for k in 0..10 {
            d.alloc_value(0, 100_000 + k, &Value::U64(k), e);
        }
        d.sync();
        let (flushes_burst, _) = d.nvm().stats().snapshot();
        assert_eq!(flushes_burst - flushes_quiet, 10);
    }

    #[test]
    fn multi_arena_payloads_recover_together() {
        let mgr = TxManager::with_max_threads(8);
        let d = PersistenceDomain::new(mgr, NvmCostModel::ZERO);
        let e = d.current_epoch();
        for tid in 0..8 {
            d.alloc_value(tid, tid as u64, &Value::U64(tid as u64 * 10), e);
        }
        d.sync();
        let rec = d.recover_u64();
        assert_eq!(rec.len(), 8);
        for tid in 0..8u64 {
            assert_eq!(rec.get(&tid), Some(&(tid * 10)));
        }
        assert_eq!(d.stats().live_payloads, 8);
        assert_eq!(d.stats().allocated_slots, 8);
    }

    #[test]
    fn recovery_horizon_never_outruns_write_back() {
        // Regression for the recover/advance race: the epoch *clock* is
        // advanced before the write-back runs, so a horizon derived from
        // `current_epoch()` would claim durability for epochs that were
        // never written back.  Bumping the raw clock (as a preempted
        // advancer does between its two steps) must not move the recovery
        // horizon.
        let d = domain();
        let e = d.current_epoch();
        d.alloc_value(0, 1, &Value::U64(10), e);
        // The clock alone races ahead; no write-back has happened.
        d.manager().advance_epoch();
        d.manager().advance_epoch();
        let (rec, horizon) = d.recover_with_horizon();
        assert_eq!(horizon, 0, "horizon must track write-back");
        assert!(
            rec.is_empty(),
            "claimed durability without write-back: {rec:?}"
        );
        // Once the domain itself advances, the write-back runs and the
        // payload becomes recoverable.
        d.advance_epoch();
        let (rec, horizon) = d.recover_with_horizon();
        assert_eq!(horizon, d.stats().persisted_epoch);
        assert_eq!(rec.get(&1), Some(&Value::U64(10)));
    }

    #[test]
    fn recover_races_advancer_without_claiming_unflushed_epochs() {
        // The satellite-1 regression proper: hammer recover() while a
        // µs-period advancer runs and an allocator churns payloads.  Each
        // payload's value records its birth tag, so any recovered entry
        // tagged at/after the returned horizon is a claim of durability for
        // an epoch whose write-back had not happened.
        let mgr = TxManager::with_max_threads(4);
        let d = PersistenceDomain::new(mgr, NvmCostModel::ZERO);
        let advancer = EpochAdvancer::spawn(Arc::clone(&d), std::time::Duration::from_micros(1));
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            let d2 = &d;
            let stop = &stop;
            s.spawn(move || {
                // Retire each previous allocation so the arena stays small:
                // the recovery scans below are O(arena slots), and an
                // unbounded allocator makes the racing loop quadratic on a
                // slow box.
                let mut pending: Option<PayloadId> = None;
                let mut k = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let e = d2.current_epoch();
                    let id = d2.alloc_value(0, k, &Value::U64(e), e);
                    if let Some(old) = pending.take() {
                        d2.retire_payload(old, d2.current_epoch());
                    }
                    pending = Some(id);
                    k += 1;
                }
            });
            let mut last_horizon = 0;
            for _ in 0..500 {
                let (rec, horizon) = d.recover_with_horizon();
                assert!(horizon >= last_horizon, "horizon must be monotone");
                last_horizon = horizon;
                for (k, birth_tag) in rec {
                    let birth_tag = birth_tag.as_u64().unwrap();
                    assert!(
                        birth_tag < horizon,
                        "key {k} born in epoch {birth_tag} recovered at horizon {horizon}"
                    );
                }
            }
            stop.store(true, Ordering::Relaxed);
        });
        drop(advancer);
    }

    #[test]
    fn stale_tags_are_repaired_by_retag() {
        // The standalone-operation race: a payload tagged in epoch `e` whose
        // index update linearizes after the clock moved must be re-tagged
        // with the later epoch, or it becomes recoverable at a horizon its
        // operation is not part of.
        let d = domain();
        let e = d.current_epoch();
        let id = d.alloc_value(0, 1, &Value::U64(10), e);
        // The clock moves across the (conceptual) index update; the fix
        // re-tags the payload with the post-linearization epoch.
        d.advance_epoch();
        let now = d.current_epoch();
        d.retag_birth(id, e, now);
        d.advance_epoch(); // horizon crosses e, but not `now`
        let (rec, horizon) = d.recover_with_horizon();
        assert!(horizon > e);
        assert!(
            !rec.contains_key(&1),
            "re-tagged payload recovered before its new epoch is durable"
        );
        d.sync();
        assert_eq!(
            d.recover_u64().get(&1),
            Some(&10),
            "durable after the new tag"
        );

        // Retirements need no retag: the remover re-reads the clock after
        // its index update and retires with that epoch, `now2`, so at a
        // horizon between its first read and `now2` the payload must still
        // be visible.
        let stale = d.current_epoch();
        d.advance_epoch();
        let now2 = d.current_epoch();
        d.retire_payload(id, now2);
        d.advance_epoch(); // horizon crosses `stale`
        let (rec, horizon) = d.recover_with_horizon();
        assert!(horizon > stale && horizon <= now2);
        assert_eq!(
            rec.get(&1),
            Some(&Value::U64(10)),
            "retirement claimed durable before its write-back epoch"
        );
        d.sync();
        assert!(!d.recover().contains_key(&1));
    }

    #[test]
    fn blob_values_of_every_length_roundtrip() {
        // A word (8 bytes), the lengths the old inline classes bounded, and
        // overflow-chain spills of 1, many, and max-ish blocks.
        let lens = [0usize, 5, 8, 64, 65, 448, 449, 4096, 100_000];
        let d = domain();
        let e = d.current_epoch();
        for (k, len) in lens.iter().enumerate() {
            let bytes: Vec<u8> = (0..*len).map(|i| (i * 13 + k) as u8).collect();
            d.alloc_value(0, k as u64, &Value::from_bytes(&bytes), e);
        }
        d.sync();
        // The data format: a slot's line per payload, and four lines per
        // 248 data bytes of a spilled value, at least one block.
        let lines = |len: usize| match len {
            8 => 1,
            _ => 1 + 4 * len.div_ceil(248).max(1) as u64,
        };
        assert_eq!(flushes(&d), lens.iter().map(|&len| lines(len)).sum::<u64>());
        let rec = d.recover();
        assert_eq!(rec.len(), lens.len());
        for (k, len) in lens.iter().enumerate() {
            let bytes: Vec<u8> = (0..*len).map(|i| (i * 13 + k) as u8).collect();
            assert_eq!(
                rec.get(&(k as u64)),
                Some(&Value::from_bytes(&bytes)),
                "len {len}"
            );
        }
    }

    #[test]
    fn a_blob_retired_in_its_birth_epoch_frees_its_slot_and_chain_at_once() {
        let d = domain();
        let e = d.current_epoch();
        let blob = Value::from_bytes(&[7; 64]);
        let id = d.alloc_value(0, 1, &blob, e);
        d.retire_payload(id, e);
        assert_eq!(d.stats().free_slots, 1, "recycled on the spot");
        let blocks = d.store.arenas[0].ovf.len.load(Ordering::Relaxed);
        let id2 = d.alloc_value(0, 2, &blob, e);
        assert_eq!(id2, id, "the slot is reused");
        assert_eq!(
            d.store.arenas[0].ovf.len.load(Ordering::Relaxed),
            blocks,
            "and so is its chain"
        );
        d.retire_payload(id2, e);
        d.sync();
        assert_eq!(flushes(&d), 0, "neither blob is written back");
        assert!(d.recover().is_empty());
    }

    #[test]
    fn spilled_records_recycle_their_overflow_chain() {
        // A retired oversized record must return its head slot *and* its
        // overflow blocks; a later spill of similar size reuses both instead
        // of growing the slabs.
        let d = domain();
        let big: Vec<u8> = (0..10_000).map(|i| i as u8).collect();
        let e = d.current_epoch();
        let id = d.alloc_value(0, 1, &Value::from_bytes(&big), e);
        d.sync();
        d.retire_payload(id, d.current_epoch());
        d.sync();
        let stats = d.stats();
        assert_eq!(stats.free_slots, 1);
        // Reallocate a slightly smaller spill: same head slot, recycled
        // blocks, no slab growth.
        let big2: Vec<u8> = (0..9_000).map(|i| (i * 3) as u8).collect();
        let id2 = d.alloc_value(0, 2, &Value::from_bytes(&big2), d.current_epoch());
        assert_eq!(id2, id, "head slot must be recycled");
        assert_eq!(d.stats().allocated_slots, stats.allocated_slots);
        d.sync();
        let rec = d.recover();
        assert_eq!(rec.get(&2), Some(&Value::from_bytes(&big2)));
        assert!(!rec.contains_key(&1));
    }

    #[test]
    fn epoch_validation_is_enabled_on_the_manager() {
        let mgr = TxManager::new();
        assert!(!mgr.epoch_validation_enabled());
        let _d = PersistenceDomain::new(Arc::clone(&mgr), NvmCostModel::ZERO);
        assert!(mgr.epoch_validation_enabled());
    }

    #[test]
    fn advancer_ticks_in_background() {
        let d = domain();
        let before = d.current_epoch();
        {
            let _adv = EpochAdvancer::spawn(Arc::clone(&d), std::time::Duration::from_millis(5));
            std::thread::sleep(std::time::Duration::from_millis(60));
        }
        assert!(d.current_epoch() > before);
    }

    fn flushes(d: &PersistenceDomain) -> u64 {
        d.nvm().stats().snapshot().0
    }

    #[test]
    fn a_payload_retired_in_its_birth_epoch_is_never_written_back() {
        let d = domain();
        let e = d.current_epoch();
        let id = d.alloc_value(0, 1, &Value::U64(10), e);
        d.retire_payload(id, e);
        d.sync();
        assert_eq!(flushes(&d), 0, "born and retired in one epoch: no lines");
        assert_eq!(d.stats().free_slots, 1, "and still recycled");

        // Retired one epoch after its birth: the birth line and the
        // retirement line.
        let e = d.current_epoch();
        let id = d.alloc_value(0, 2, &Value::U64(20), e);
        d.advance_epoch();
        d.retire_payload(id, d.current_epoch());
        d.sync();
        assert_eq!(flushes(&d), 2);
        assert_eq!(d.stats().free_slots, 1);
        assert!(d.recover().is_empty());
    }

    #[test]
    fn a_late_retirement_in_the_birth_epoch_is_still_written_back() {
        // The post-commit cleanup of a replace, overtaken by two advances:
        // the birth was written back when its epoch crossed the horizon, so
        // the durable image holds the payload and the retirement has to
        // reach it even though both carry the same epoch.
        let d = domain();
        let e = d.current_epoch();
        let id = d.alloc_value(0, 1, &Value::U64(10), e);
        d.sync();
        assert_eq!(flushes(&d), 1);
        assert_eq!(d.recover_u64().get(&1), Some(&10));
        d.retire_payload(id, e);
        assert_eq!(flushes(&d), 2, "the stale bucket is drained at once");
        assert!(d.recover().is_empty());
        d.sync();
        assert_eq!(flushes(&d), 2);
        assert_eq!(d.stats().free_slots, 1);
    }

    #[test]
    fn recovery_matches_a_reference_model_at_every_horizon() {
        // Mixed churn on one thread with a manual clock: allocations,
        // retirements in the birth epoch, in later epochs and after the
        // birth was written back, and abandons.  After every advance the
        // recovered map must be exactly the payloads with
        // `birth < horizon <= retire` that were not abandoned.
        struct Rec {
            birth: u64,
            retire: Option<u64>,
            abandoned: bool,
            id: PayloadId,
        }
        let d = domain();
        let mut rng = medley::util::FastRng::new(0x5EED);
        let mut recs: Vec<Rec> = Vec::new();
        let mut live: Vec<usize> = Vec::new();
        let mut horizons = 0;
        for _ in 0..400 {
            let e = d.current_epoch();
            for _ in 0..rng.next_below(8) {
                let key = recs.len() as u64;
                let id = d.alloc_value(0, key, &Value::U64(key * 3), e);
                if rng.next_below(8) == 0 {
                    d.abandon_payload(id);
                    recs.push(Rec {
                        birth: e,
                        retire: None,
                        abandoned: true,
                        id,
                    });
                } else {
                    live.push(recs.len());
                    recs.push(Rec {
                        birth: e,
                        retire: None,
                        abandoned: false,
                        id,
                    });
                }
            }
            for _ in 0..rng.next_below(6) {
                if live.is_empty() {
                    break;
                }
                let r = &mut recs[live.swap_remove(rng.next_below(live.len() as u64) as usize)];
                // Mostly the current epoch; sometimes a stale one (a late
                // cleanup), never before the birth.
                let tag = if rng.next_below(4) == 0 {
                    r.birth.max(e.saturating_sub(2))
                } else {
                    e
                };
                d.retire_payload(r.id, tag);
                r.retire = Some(tag);
            }
            d.advance_epoch();
            let (rec, horizon) = d.recover_with_horizon();
            let expect: HashMap<u64, Value> = recs
                .iter()
                .enumerate()
                .filter(|(_, r)| {
                    !r.abandoned && r.birth < horizon && r.retire.is_none_or(|t| t >= horizon)
                })
                .map(|(k, _)| (k as u64, Value::U64(k as u64 * 3)))
                .collect();
            assert_eq!(rec, expect, "horizon {horizon}");
            horizons += 1;
        }
        assert!(horizons > 100);
        let stats = d.stats();
        assert_eq!(stats.live_payloads, live.len());
    }

    #[test]
    fn churn_under_a_microsecond_advancer_frees_every_dead_slot_once() {
        // Alloc, retire and abandon race a 1 µs advancer, so recycling goes
        // through every path that writes the shared birth/free link: drains
        // by the advancer, stale-bucket repairs and late abandons.
        let mgr = TxManager::with_max_threads(2);
        let d = PersistenceDomain::new(mgr, NvmCostModel::ZERO);
        let advancer = EpochAdvancer::spawn(Arc::clone(&d), std::time::Duration::from_micros(1));
        let mut rng = medley::util::FastRng::new(7);
        let mut live: Vec<PayloadId> = Vec::new();
        for k in 0..20_000u64 {
            let e = d.current_epoch();
            let id = d.alloc_value(0, k, &Value::U64(k), e);
            match rng.next_below(4) {
                0 => d.abandon_payload(id),
                _ => live.push(id),
            }
            if live.len() > 64 {
                let victim = live.swap_remove(rng.next_below(live.len() as u64) as usize);
                // Sometimes tagged with the allocation's (possibly stale)
                // epoch, like a retirement overtaken by the clock.
                let tag = if k % 3 == 0 { e } else { d.current_epoch() };
                d.retire_payload(victim, tag);
            }
        }
        drop(advancer);
        d.sync();
        d.sync();
        let stats = d.stats();
        assert_eq!(stats.live_payloads, live.len());
        assert_eq!(
            stats.free_slots + live.len(),
            stats.allocated_slots,
            "every dead slot is on the free list exactly once: {stats:?}"
        );
        assert_eq!(d.recover().len(), live.len());
    }

    #[test]
    fn concurrent_alloc_retire_across_arenas_keeps_accounting() {
        // 8 threads allocate and retire in their own arenas while an
        // advancer recycles; afterwards every retired slot is free exactly
        // once and every survivor is recoverable.
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 2_000;
        let mgr = TxManager::with_max_threads(THREADS);
        let d = PersistenceDomain::new(mgr, NvmCostModel::ZERO);
        let advancer = EpochAdvancer::spawn(Arc::clone(&d), std::time::Duration::from_micros(20));
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let d = &d;
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        let e = d.current_epoch();
                        let key = ((t as u64) << 32) | i;
                        let id = d.alloc_value(t, key, &Value::U64(i), e);
                        if i % 2 == 0 {
                            d.retire_payload(id, d.current_epoch());
                        }
                    }
                });
            }
        });
        drop(advancer);
        d.sync();
        d.sync();
        let stats = d.stats();
        let expected_live = (THREADS as u64 * PER_THREAD / 2) as usize;
        assert_eq!(stats.live_payloads, expected_live);
        assert_eq!(
            stats.free_slots + expected_live,
            stats.allocated_slots,
            "every non-live slot must be free exactly once: {stats:?}"
        );
        assert_eq!(d.recover().len(), expected_live);
    }
}
