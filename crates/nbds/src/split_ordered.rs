//! NBTC-transformed split-ordered hash table (Shalev & Shavit, *Split-Ordered
//! Lists: Lock-Free Extensible Hash Tables*), the crate's elastic map.
//!
//! # Structure
//!
//! All items live in **one** ordered [`MichaelList`](crate::MichaelList)-style
//! linked list, sorted not by key but by *split-order key*: the bit-reversed
//! hash, with the low bit reserved to separate the two node classes —
//!
//! * **regular nodes** carry an item; their split-order key is
//!   [`so_regular_key`]`(h) = reverse_bits(h) | 1` (always odd);
//! * **sentinel nodes** mark the start of a bucket; their split-order key is
//!   [`so_sentinel_key`]`(b) = reverse_bits(b)` (always even, because bucket
//!   indices stay far below 2^63).
//!
//! On top of the list sits a growable directory of bucket pointers: a fixed
//! array of [`SEGMENTS`] lazily-allocated segments, where segment *i* holds
//! the 2^i sentinel pointers for buckets `[2^i, 2^(i+1))`.  The table's
//! current bucket count `size` is a power of two; an operation hashes its
//! key, takes `h & (size - 1)` as its bucket, and starts its traversal at
//! that bucket's sentinel instead of the head — dividing the list into
//! `size` short runs.
//!
//! # Resizing
//!
//! Growing is one CAS: `size: s → 2s` when the item count passes
//! `LOAD_FACTOR × s`.  Nothing is rehashed — bit reversal guarantees that
//! the items of old bucket `b` split *in place* into new buckets `b` and
//! `b + s`, already in order.  The new buckets' sentinels are created lazily
//! on first access ([`parent_bucket`] recursion: bucket `b`'s sentinel is
//! spliced in right after the sentinel of `b` with its top set bit cleared),
//! so a resize is incremental and never stop-the-world.  A thread acting on
//! a stale (smaller) `size` lands on an *ancestor* bucket of the key's true
//! bucket, whose sentinel precedes every key of its descendants — the
//! traversal is merely longer, never wrong.
//!
//! # Why directory work never joins a transaction's footprint
//!
//! Sentinel insertion and directory/segment publication are *infrastructure*
//! actions: they change the table's physical layout but not its abstract
//! key→value state — a table with or without bucket 7's sentinel contains
//! exactly the same items.  Running them through the transactional
//! instrumentation would be wrong on two counts: (a) two transactions over
//! disjoint keys that both first-touch the same bucket would conflict on the
//! sentinel splice, and (b) an abort would have to *undo* the sentinel,
//! un-publishing layout that concurrent operations may already rely on.  So
//! these actions go through [`medley::Ctx::untracked_load`] /
//! [`medley::Ctx::untracked_cas`]: even mid-transaction they take effect
//! immediately, are visible to all threads, survive an abort of the
//! enclosing transaction, and are never validated at commit.  (The sole
//! interaction with the enclosing transaction is indirect: an untracked CAS
//! can invalidate a buffered speculative write to the same word, which
//! surfaces as an ordinary conflict abort and retry.)  The item operations
//! themselves (`get`/`insert`/`put`/`remove`) are the very code
//! [`MichaelList`](crate::MichaelList) runs — the crate's ordered chain,
//! started at a sentinel word and keyed by `(split-order key, key)` — one
//! critical CAS per update, a counted linearizing read per read-only
//! outcome, so single-op transactions keep the single-CAS direct commit and
//! read-only transactions keep the descriptor-free commit, even mid-grow.
//! Sentinel splicing is the same traversal compiled over the untracked
//! primitives.
//!
//! # Counting
//!
//! The load-factor trigger needs an item count; an exact shared counter
//! would serialize every update, so the table keeps a striped relaxed
//! [`LenCounter`] whose deltas follow the transactional outcome discipline:
//! applied immediately in a standalone context, from the post-commit cleanup
//! phase in a transaction, and not at all on abort.

use crate::chain::{self, Link, MemoKey, Node, UNTRACKED};
use crate::counter::LenCounter;
use medley::{CasWord, Ctx};
use std::marker::PhantomData;
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};

/// Number of directory segments; segment `i` covers buckets
/// `[2^i, 2^(i+1))`, so the table can grow to `2^SEGMENTS` buckets.
pub const SEGMENTS: usize = 32;

/// Hard ceiling on the bucket count (`2^SEGMENTS`).
pub const MAX_BUCKETS: u64 = 1 << SEGMENTS;

/// Average chain length that triggers a doubling.
const LOAD_FACTOR: u64 = 4;

/// How many successful inserts pass between two load-factor checks (summing
/// the striped counter on every insert would defeat the striping).
const GROW_CHECK_INTERVAL: u64 = 64;

/// Full-width Fibonacci hash of a key.  The multiplier is odd, so the map
/// `key → h` is a bijection on `u64` — distinct keys always produce distinct
/// hashes, and the regular/regular tie in split order is limited to hashes
/// differing only in the top bit (resolved by comparing keys).
#[inline]
pub fn key_hash(key: u64) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Split-order key of a regular (item) node: bit-reversed hash with the low
/// bit set.  Always odd.
#[inline]
pub fn so_regular_key(h: u64) -> u64 {
    h.reverse_bits() | 1
}

/// Split-order key of bucket `b`'s sentinel node: the bit-reversed bucket
/// index.  Always even for `b < 2^63` (and bucket indices stay below
/// [`MAX_BUCKETS`]), so sentinel keys and regular keys are disjoint.
#[inline]
pub fn so_sentinel_key(b: u64) -> u64 {
    b.reverse_bits()
}

/// The parent of bucket `b` in the recursive split ordering: `b` with its
/// most-significant set bit cleared — the bucket `b` split off from when the
/// table doubled past `b`.  Requires `b > 0` (bucket 0 is the root).
#[inline]
pub fn parent_bucket(b: u64) -> u64 {
    debug_assert!(b > 0, "bucket 0 has no parent");
    b & !(1u64 << (63 - b.leading_zeros()))
}

/// A node of the split-ordered list, ordered by `(split-order key, key)`.
/// Sentinels hold no value and reuse `key` for their bucket index; regular
/// nodes hold a `V` and the user key.  The two classes never compare equal:
/// their split-order keys have different parity.
type SoNode<V> = Node<(u64, u64), V>;

/// A lock-free, NBTC-composable, **elastic** hash map from `u64` keys to `V`:
/// a Shalev–Shavit split-ordered list that doubles its bucket directory
/// on-line when the load factor passes a threshold.  See the module docs for
/// the resize and instrumentation story.
pub struct SplitOrderedMap<V> {
    /// Start-of-list word; doubles as bucket 0's "sentinel" (bucket 0 has no
    /// node — every traversal of bucket 0 starts here).  Starts a chain of
    /// `SoNode<V>`, linked only through `chain`.
    head: CasWord,
    /// Directory: segment `i` is a lazily-allocated array of `2^i` sentinel
    /// pointers for buckets `[2^i, 2^(i+1))`.
    segments: [AtomicPtr<AtomicPtr<SoNode<V>>>; SEGMENTS],
    /// Current bucket count (power of two).  Grows monotonically; stale
    /// smaller reads only lengthen traversals (ancestor buckets).
    size: AtomicU64,
    /// Striped live-item counter (commit-disciplined; see module docs).
    count: LenCounter,
    /// Number of successful `size` doublings.
    grow_events: AtomicU64,
    /// Successful-insert ticker gating the load-factor check.
    grow_ticks: AtomicU64,
    _marker: PhantomData<V>,
}

// SAFETY: an ordinary shared concurrent container; nodes are reachable from
// multiple threads and reclaimed through EBR.
unsafe impl<V: Send + Sync> Send for SplitOrderedMap<V> {}
unsafe impl<V: Send + Sync> Sync for SplitOrderedMap<V> {}

impl<V> Default for SplitOrderedMap<V>
where
    V: Clone + Send + Sync + 'static,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<V> SplitOrderedMap<V>
where
    V: Clone + Send + Sync + 'static,
{
    /// Creates an empty table at the minimum size (two buckets).  There is
    /// nothing to pre-size: the directory doubles itself under load.
    pub fn new() -> Self {
        Self::with_buckets(2)
    }

    /// Creates an empty table with an initial bucket count (rounded up to a
    /// power of two, clamped to `[2, MAX_BUCKETS]`).  Purely a warm-start
    /// hint — the table grows past it on its own.
    pub fn with_buckets(buckets: usize) -> Self {
        let n = (buckets.next_power_of_two().max(2) as u64).min(MAX_BUCKETS);
        Self {
            head: CasWord::new(0),
            segments: std::array::from_fn(|_| AtomicPtr::new(ptr::null_mut())),
            size: AtomicU64::new(n),
            count: LenCounter::new(),
            grow_events: AtomicU64::new(0),
            grow_ticks: AtomicU64::new(0),
            _marker: PhantomData,
        }
    }

    // -- directory -----------------------------------------------------------

    /// Segment index and intra-segment offset of bucket `b > 0`.
    #[inline]
    fn segment_of(b: u64) -> (usize, usize) {
        let seg = (63 - b.leading_zeros()) as usize;
        (seg, (b - (1u64 << seg)) as usize)
    }

    /// The directory slot of bucket `b > 0`, allocating its segment on first
    /// touch.  Segment allocation is a plain pointer CAS — infrastructure
    /// below even the `untracked` layer, since segments are private memory
    /// until published.
    fn slot(&self, b: u64) -> &AtomicPtr<SoNode<V>> {
        let (seg, idx) = Self::segment_of(b);
        let mut arr = self.segments[seg].load(Ordering::Acquire);
        if arr.is_null() {
            let len = 1usize << seg;
            let fresh: Box<[AtomicPtr<SoNode<V>>]> =
                (0..len).map(|_| AtomicPtr::new(ptr::null_mut())).collect();
            let raw = Box::into_raw(fresh) as *mut AtomicPtr<SoNode<V>>;
            match self.segments[seg].compare_exchange(
                ptr::null_mut(),
                raw,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => arr = raw,
                Err(existing) => {
                    // Lost the publication race: reclaim our private array.
                    // SAFETY: `raw` was never published and came from
                    // `Box::into_raw` of a `len`-element boxed slice.
                    unsafe {
                        drop(Box::from_raw(ptr::slice_from_raw_parts_mut(raw, len)));
                    }
                    arr = existing;
                }
            }
        }
        // SAFETY: `arr` is a live `len`-element array published above (or by
        // another thread) and never freed before `Drop`; `idx < 2^seg`.
        unsafe { &*arr.add(idx) }
    }

    /// The sentinel pointer of bucket `b` without allocating anything
    /// (null if the bucket — or its whole segment — is uninitialized).
    fn slot_peek(&self, b: u64) -> *mut SoNode<V> {
        let (seg, idx) = Self::segment_of(b);
        let arr = self.segments[seg].load(Ordering::Acquire);
        if arr.is_null() {
            return ptr::null_mut();
        }
        // SAFETY: published segment arrays stay live until `Drop`.
        unsafe { (*arr.add(idx)).load(Ordering::Acquire) }
    }

    /// Returns bucket `b`'s sentinel node, initializing the bucket (and,
    /// recursively, its ancestors) on first access.  Recursion depth is
    /// bounded by `log2(size)`.
    ///
    /// All list work here is **untracked** — see the module docs.
    fn bucket_sentinel<C: Ctx>(&self, cx: &mut C, b: u64) -> *mut SoNode<V> {
        debug_assert!(b > 0);
        let existing = self.slot(b).load(Ordering::Acquire);
        if !existing.is_null() {
            return existing;
        }
        // First access: splice the sentinel in after the parent bucket's,
        // then publish it in the directory.
        let parent = parent_bucket(b);
        let parent_start = if parent == 0 {
            &self.head
        } else {
            self.sentinel_link(cx, parent)
        };
        let so = (so_sentinel_key(b), b);
        // Allocated privately (not `tnew`): sentinel ownership must not be
        // tied to an enclosing transaction's abort path.
        let node = Box::into_raw(Box::new(SoNode::<V>::new(so, chain::NO_VALUE)));
        let spliced = loop {
            // SAFETY: pinned (`with_op` is the caller's contract);
            // `parent_start` is the head or an immortal sentinel's link.
            let pos = unsafe { chain::find::<UNTRACKED, _, C>(cx, parent_start, so) };
            if pos.found() {
                // Another thread spliced this sentinel first; ours was never
                // published.
                // SAFETY: `node` is still private.
                unsafe { drop(Box::from_raw(node)) };
                break pos.curr();
            }
            // SAFETY: `node` is private and its key is absent at `pos`.
            if unsafe { pos.link(cx, node) } {
                break node;
            }
        };
        // Publish.  Racers splice/find the *same* list node, so the CAS is
        // idempotent; a loser's failure means the slot already holds
        // `spliced`.
        let _ = self.slot(b).compare_exchange(
            ptr::null_mut(),
            spliced,
            Ordering::AcqRel,
            Ordering::Acquire,
        );
        spliced
    }

    /// The link word of bucket `b`'s sentinel (`b > 0`).
    fn sentinel_link<C: Ctx>(&self, cx: &mut C, b: u64) -> &CasWord {
        // SAFETY: sentinels are never removed, so they live until `Drop`.
        unsafe { (*self.bucket_sentinel(cx, b)).next() }
    }

    /// The traversal start word for hash `h` under the current directory
    /// size.  Must be called inside `with_op` (the sentinel splice traverses
    /// the list).
    fn op_start<C: Ctx>(&self, cx: &mut C, h: u64) -> &CasWord {
        // Relaxed: a stale smaller size routes to an ancestor bucket, which
        // is correct (its sentinel precedes all descendant keys).
        let size = self.size.load(Ordering::Relaxed);
        match h & (size - 1) {
            0 => &self.head,
            b => self.sentinel_link(cx, b),
        }
    }

    // -- counting / growth ---------------------------------------------------

    /// Registers the +1 of a successful insert or the −1 of a successful
    /// remove.  Runs when the outcome is decided: immediately standalone,
    /// post-commit in a transaction (and not at all on abort).  The insert
    /// hook is also where the load-factor trigger fires — growth is driven
    /// by *committed* items.
    fn note_delta<C: Ctx>(&self, cx: &mut C, delta: i64) {
        let map_addr = self as *const Self as usize;
        cx.add_cleanup(move |h| {
            // SAFETY: the map outlives the transaction (caller contract —
            // the same one the unlink cleanups rely on).
            let map = unsafe { &*(map_addr as *const Self) };
            map.count.add(h.tid(), delta);
            if delta > 0 {
                map.maybe_grow();
            }
        });
    }

    /// Doubles `size` while the committed item count exceeds
    /// `LOAD_FACTOR × size`.  Gated to every [`GROW_CHECK_INTERVAL`]-th
    /// insert so the striped counter is not summed on every update.
    fn maybe_grow(&self) {
        if !self
            .grow_ticks
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(GROW_CHECK_INTERVAL)
        {
            return;
        }
        let items = self.count.len();
        loop {
            let size = self.size.load(Ordering::Relaxed);
            if size >= MAX_BUCKETS || items <= size.saturating_mul(LOAD_FACTOR) {
                return;
            }
            if self
                .size
                .compare_exchange(size, size * 2, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                self.grow_events.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Unconditionally doubles the directory (test/diagnostic hook for
    /// exercising growth without a million inserts).  Returns the new size.
    pub fn force_grow(&self) -> u64 {
        loop {
            let size = self.size.load(Ordering::Relaxed);
            if size >= MAX_BUCKETS {
                return size;
            }
            if self
                .size
                .compare_exchange(size, size * 2, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                self.grow_events.fetch_add(1, Ordering::Relaxed);
                return size * 2;
            }
        }
    }

    /// Committed live-item count (relaxed striped sum — see
    /// [`LenCounter::len`] for the consistency caveats).
    pub fn len(&self) -> u64 {
        self.count.len()
    }

    /// Whether [`SplitOrderedMap::len`] currently reads zero.
    pub fn is_empty(&self) -> bool {
        self.count.is_empty()
    }

    /// Current bucket count (power of two; grows monotonically).
    pub fn buckets(&self) -> u64 {
        self.size.load(Ordering::Relaxed)
    }

    /// Number of `size` doublings so far.
    pub fn grow_events(&self) -> u64 {
        self.grow_events.load(Ordering::Relaxed)
    }

    /// Number of buckets whose sentinel has been spliced and published
    /// (buckets initialize lazily, so this trails [`SplitOrderedMap::buckets`];
    /// bucket 0 — the head — counts as always initialized).
    pub fn initialized_buckets(&self) -> u64 {
        let size = self.buckets();
        1 + (1..size).filter(|&b| !self.slot_peek(b).is_null()).count() as u64
    }

    // -- operations ----------------------------------------------------------

    /// Runs one chain operation on `key`'s bucket: `f(cx, start, chain key)`.
    fn on_bucket<C: Ctx, R>(
        &self,
        cx: &mut C,
        key: u64,
        f: impl FnOnce(&mut C, &CasWord, (u64, u64)) -> R,
    ) -> R {
        cx.with_op(|cx| {
            let h = key_hash(key);
            let start = self.op_start(cx, h);
            f(cx, start, (so_regular_key(h), key))
        })
    }

    /// Looks up `key`, returning a clone of its value.
    pub fn get<C: Ctx>(&self, cx: &mut C, key: u64) -> Option<V> {
        self.get_with(cx, key, V::clone)
    }

    /// Looks up `key` and maps its value through `f`, which may run more
    /// than once (see [`TxMap::get_with`](crate::TxMap::get_with)).
    pub fn get_with<C: Ctx, R>(&self, cx: &mut C, key: u64, f: impl FnMut(&V) -> R) -> Option<R> {
        // The map, not the bucket: a key's start word moves as the table
        // grows.
        let at = MemoKey::new(self, key);
        // SAFETY (all four operations): `on_bucket` pins and hands out a start
        // word of this map's `SoNode<V>` chain.  A found node is regular (odd
        // split-order key), so it has a value.
        self.on_bucket(cx, key, |cx, start, k| unsafe {
            SoNode::lookup(cx, at, start, k, f)
        })
    }

    /// Whether `key` is present.  Registers the same counted linearizing
    /// load as [`SplitOrderedMap::get`] but never clones the value.
    pub fn contains<C: Ctx>(&self, cx: &mut C, key: u64) -> bool {
        self.get_with(cx, key, |_| ()).is_some()
    }

    /// Inserts `key -> val` only if `key` is absent.  Returns `true` on
    /// success; on failure the value is dropped.
    pub fn insert<C: Ctx>(&self, cx: &mut C, key: u64, val: V) -> bool {
        let at = MemoKey::new(self, key);
        // SAFETY: see `get_with`.
        let inserted = self.on_bucket(cx, key, |cx, start, k| unsafe {
            SoNode::insert(cx, at, start, k, val)
        });
        if inserted {
            self.note_delta(cx, 1);
        }
        inserted
    }

    /// Inserts or replaces, returning the previous value if any (after a
    /// lookup of `key` in the same transaction, without a search).
    pub fn put<C: Ctx>(&self, cx: &mut C, key: u64, val: V) -> Option<V> {
        let at = MemoKey::new(self, key);
        // SAFETY: see `get_with`.
        let old = self.on_bucket(cx, key, |cx, start, k| unsafe {
            SoNode::put(cx, at, start, k, val)
        });
        if old.is_none() {
            self.note_delta(cx, 1);
        }
        old
    }

    /// Removes `key`, returning its value if it was present.
    pub fn remove<C: Ctx>(&self, cx: &mut C, key: u64) -> Option<V> {
        // SAFETY: see `get_with`.
        let old = self.on_bucket(cx, key, |cx, start, k| unsafe {
            SoNode::<V>::remove(cx, start, k)
        });
        if old.is_some() {
            self.note_delta(cx, -1);
        }
        old
    }

    // -- quiescent inspection ------------------------------------------------

    /// Quiescent snapshot of the live `(key, value)` pairs, in *split* order
    /// (bit-reversed hash order), sentinels elided.
    ///
    /// Intended for tests, recovery tooling and single-threaded inspection:
    /// it must not race with concurrent transactional updates.
    pub fn snapshot(&self) -> Vec<(u64, V)> {
        let mut out = Vec::new();
        // SAFETY: quiescence is the caller's contract.
        unsafe {
            chain::walk(&self.head, |n: &SoNode<V>, live| {
                // Regular nodes have odd split-order keys; sentinels are
                // skipped.
                if live && n.key.0 & 1 == 1 {
                    out.push((n.key.1, chain::value_of(n)));
                }
            })
        };
        out
    }

    /// Number of live keys (quiescent; see [`SplitOrderedMap::snapshot`]).
    pub fn len_quiescent(&self) -> usize {
        self.snapshot().len()
    }

    /// Quiescent structural self-check, for property tests over random grow
    /// schedules.  Verifies:
    ///
    /// * the list is strictly sorted by `(split-order key, key)`;
    /// * every published directory slot points to an unmarked, reachable
    ///   sentinel whose split-order key matches its bucket;
    /// * bucket initialization is *monotone*: an initialized bucket's parent
    ///   chain is fully initialized (the recursive splice can't skip
    ///   ancestors);
    /// * the striped counter agrees with the number of reachable live items.
    ///
    /// Returns `(live items, spliced sentinels)` or a description of the
    /// violated invariant.
    pub fn check_integrity_quiescent(&self) -> Result<(u64, u64), String> {
        let mut items = 0u64;
        let mut sentinels = 0u64;
        let mut reachable = std::collections::HashMap::new();
        let mut nodes = Vec::new();
        // SAFETY: quiescence is the caller's contract.
        unsafe {
            chain::walk(&self.head, |n: &SoNode<V>, live| {
                nodes.push((n.key, live, n as *const SoNode<V> as usize));
            })
        };
        let mut last: Option<(u64, u64)> = None;
        for ((so, key), live, addr) in nodes {
            if let Some(prev) = last {
                if prev >= (so, key) {
                    return Err(format!(
                        "split order violated: {prev:?} precedes ({so}, {key})"
                    ));
                }
            }
            last = Some((so, key));
            if live {
                let is_sentinel = so & 1 == 0;
                if is_sentinel {
                    if so != so_sentinel_key(key) {
                        return Err(format!("sentinel so_key mismatch for bucket {key}"));
                    }
                    sentinels += 1;
                } else {
                    if so != so_regular_key(key_hash(key)) {
                        return Err(format!("regular so_key mismatch for key {key}"));
                    }
                    items += 1;
                }
                reachable.insert(addr, is_sentinel);
            }
        }
        let size = self.buckets();
        if !size.is_power_of_two() {
            return Err(format!("size {size} not a power of two"));
        }
        for b in 1..size {
            let p = self.slot_peek(b);
            if p.is_null() {
                continue;
            }
            match reachable.get(&(p as usize)) {
                Some(true) => {}
                Some(false) => return Err(format!("slot {b} points at a regular node")),
                None => return Err(format!("slot {b} points at an unreachable node")),
            }
            // SAFETY: the slot's node was just verified reachable and live.
            let (so, key) = unsafe { (*p).key };
            if key != b || so != so_sentinel_key(b) {
                return Err(format!("slot {b} holds sentinel of bucket {key}"));
            }
            // Monotone initialization: the parent chain must be published.
            let mut a = b;
            while a > 0 {
                a = parent_bucket(a);
                if a > 0 && self.slot_peek(a).is_null() {
                    return Err(format!("bucket {b} initialized before ancestor {a}"));
                }
            }
        }
        if self.count.len() != items {
            return Err(format!(
                "counter reads {} but {items} items are reachable",
                self.count.len()
            ));
        }
        Ok((items, sentinels))
    }
}

impl<V> Drop for SplitOrderedMap<V> {
    fn drop(&mut self) {
        // Exclusive access: every node (sentinel or regular) appears in the
        // list exactly once; directory slots are duplicate pointers.  Nodes
        // unlinked earlier are owned by the EBR limbo bags.
        // SAFETY: `&mut self` gives exclusive access.
        unsafe { chain::free_all::<SoNode<V>>(&self.head) };
        for (i, seg) in self.segments.iter().enumerate() {
            let p = seg.load(Ordering::Relaxed);
            if !p.is_null() {
                // SAFETY: published segments came from `Box::into_raw` of a
                // `2^i`-element boxed slice and are freed exactly once here.
                unsafe {
                    drop(Box::from_raw(ptr::slice_from_raw_parts_mut(p, 1usize << i)));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medley::{AbortReason, TxManager, TxResult};
    use std::sync::Arc;

    fn setup() -> (Arc<TxManager>, SplitOrderedMap<u64>) {
        (TxManager::new(), SplitOrderedMap::new())
    }

    #[test]
    fn split_order_math() {
        // Bit reversal is an involution; sentinel keys are even, regular
        // keys odd; parents strictly decrease to zero.
        for x in [0u64, 1, 2, 0xdead_beef, u64::MAX, 1 << 63] {
            assert_eq!(x.reverse_bits().reverse_bits(), x);
        }
        for b in 1..512u64 {
            assert_eq!(so_sentinel_key(b) & 1, 0);
            assert!(parent_bucket(b) < b);
            let mut a = b;
            let mut hops = 0;
            while a > 0 {
                a = parent_bucket(a);
                hops += 1;
            }
            assert!(hops <= 64);
        }
        for k in 0..512u64 {
            assert_eq!(so_regular_key(key_hash(k)) & 1, 1);
        }
    }

    #[test]
    fn crud_roundtrip_from_minimum_size() {
        let (mgr, map) = setup();
        let mut h = mgr.register();
        assert_eq!(map.buckets(), 2);
        assert_eq!(map.get(&mut h.nontx(), 1), None);
        assert!(map.insert(&mut h.nontx(), 1, 10));
        assert!(!map.insert(&mut h.nontx(), 1, 11));
        assert_eq!(map.get(&mut h.nontx(), 1), Some(10));
        assert!(map.contains(&mut h.nontx(), 1));
        assert_eq!(map.put(&mut h.nontx(), 1, 12), Some(10));
        assert_eq!(map.put(&mut h.nontx(), 2, 20), None);
        assert_eq!(map.remove(&mut h.nontx(), 1), Some(12));
        assert_eq!(map.remove(&mut h.nontx(), 1), None);
        assert_eq!(map.len(), 1);
        assert_eq!(map.len_quiescent(), 1);
        map.check_integrity_quiescent().unwrap();
    }

    #[test]
    fn grows_under_load_and_stays_correct() {
        let (mgr, map) = setup();
        let mut h = mgr.register();
        const N: u64 = 5_000;
        for k in 0..N {
            assert!(map.insert(&mut h.nontx(), k, k * 3));
        }
        assert!(
            map.grow_events() > 0,
            "5k inserts from 2 buckets must trigger growth (size={})",
            map.buckets()
        );
        assert!(map.buckets() >= 256);
        assert_eq!(map.len(), N);
        for k in 0..N {
            assert_eq!(map.get(&mut h.nontx(), k), Some(k * 3));
        }
        let (items, _) = map.check_integrity_quiescent().unwrap();
        assert_eq!(items, N);
        for k in (0..N).step_by(2) {
            assert_eq!(map.remove(&mut h.nontx(), k), Some(k * 3));
        }
        assert_eq!(map.len(), N / 2);
        map.check_integrity_quiescent().unwrap();
    }

    #[test]
    fn force_grow_is_transparent() {
        let (mgr, map) = setup();
        let mut h = mgr.register();
        for k in 0..64u64 {
            assert!(map.insert(&mut h.nontx(), k, k));
        }
        for _ in 0..6 {
            map.force_grow();
            for k in 0..64u64 {
                assert_eq!(map.get(&mut h.nontx(), k), Some(k));
            }
        }
        assert!(map.buckets() >= 128);
        // Touch every key once more so lazy buckets initialize, then check.
        for k in 0..64u64 {
            assert!(map.contains(&mut h.nontx(), k));
        }
        map.check_integrity_quiescent().unwrap();
    }

    #[test]
    fn transactional_ops_are_atomic_and_abortable() {
        let (mgr, map) = setup();
        let mut h = mgr.register();
        assert!(map.insert(&mut h.nontx(), 1, 10));
        let res: TxResult<()> = h.run(|t| {
            let v = map.remove(t, 1).unwrap();
            assert!(map.insert(t, 2, v));
            assert_eq!(map.get(t, 2), Some(10), "read-your-own-write");
            Ok(())
        });
        assert!(res.is_ok());
        assert_eq!(map.get(&mut h.nontx(), 1), None);
        assert_eq!(map.get(&mut h.nontx(), 2), Some(10));
        assert_eq!(map.len(), 1, "move is count-neutral");

        let res: TxResult<()> = h.run(|t| {
            assert_eq!(map.remove(t, 2), Some(10));
            assert!(map.insert(t, 3, 30));
            Err(t.abort(AbortReason::Explicit))
        });
        assert!(res.is_err());
        assert_eq!(map.get(&mut h.nontx(), 2), Some(10), "rolled back");
        assert_eq!(map.get(&mut h.nontx(), 3), None, "rolled back");
        assert_eq!(map.len(), 1, "aborts leave the counter untouched");
        map.check_integrity_quiescent().unwrap();
    }

    #[test]
    fn single_op_transactions_keep_fast_paths_mid_grow() {
        let (mgr, map) = setup();
        let mut h = mgr.register();
        for k in 0..32u64 {
            assert!(map.insert(&mut h.nontx(), k, k));
        }
        map.force_grow();
        map.force_grow();
        // One update per transaction → single-CAS direct commit; lookups →
        // descriptor-free read-only commit.  Growth must not break either.
        let r: TxResult<()> = h.run(|t| {
            assert!(map.insert(t, 100, 100));
            Ok(())
        });
        assert!(r.is_ok());
        let r: TxResult<bool> = h.run(|t| Ok(map.contains(t, 100)));
        assert_eq!(r, Ok(true));
        h.flush_stats();
        let snap = mgr.stats_snapshot();
        assert!(
            snap.fast_commits >= 1,
            "insert must direct-commit: {snap:?}"
        );
        assert!(
            snap.ro_commits >= 1,
            "lookup must commit read-only: {snap:?}"
        );
    }

    #[test]
    fn concurrent_inserts_while_growing() {
        const THREADS: u64 = 4;
        const PER_THREAD: u64 = 2_000;
        let mgr = TxManager::new();
        let map = Arc::new(SplitOrderedMap::<u64>::new());
        let mut joins = Vec::new();
        for t in 0..THREADS {
            let mgr = Arc::clone(&mgr);
            let map = Arc::clone(&map);
            joins.push(std::thread::spawn(move || {
                let mut h = mgr.register();
                for i in 0..PER_THREAD {
                    let k = t * PER_THREAD + i;
                    assert!(map.insert(&mut h.nontx(), k, k));
                    if i % 512 == 0 {
                        map.force_grow();
                    }
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(map.len(), THREADS * PER_THREAD);
        let mut h = mgr.register();
        for k in 0..THREADS * PER_THREAD {
            assert_eq!(map.get(&mut h.nontx(), k), Some(k));
        }
        let (items, _) = map.check_integrity_quiescent().unwrap();
        assert_eq!(items, THREADS * PER_THREAD);
    }
}
