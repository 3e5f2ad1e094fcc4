//! NBTC-transformed lock-free skiplist (in the style of Fraser's CAS-based
//! skiplist, which the paper transforms for Medley and LFTT).
//!
//! Level 0 is the crate's ordered chain (`chain.rs`) on the towers' level-0
//! links; the levels above it are an index of plain pair words (see
//! Towers).  A lookup reads the index, one word per step, and either stops
//! at a live tower of its key there (see Early exit) or runs the chain's
//! traversal, `chain::try_find`, on level 0.  The cleanup passes below run
//! that traversal on level 0 and a Harris find of their own on the index
//! levels they clean, entered at a hint, not at a head.
//!
//! Membership is defined by level 0's value word: a key is in the map while
//! a tower holding it is linked on level 0 and its value word is alive.  An
//! insert linearizes at the level-0 link CAS; a replacing `put` and a remove
//! at a CAS of the tower's value word, to the new value and to "dead"; and a
//! read-only outcome registers the found tower's value word when the key is
//! present and the level-0 predecessor when it is absent (the table in the
//! [crate docs](crate)).  Exactly **one critical CAS per update** therefore
//! needs to be executed speculatively: single-operation transactions take
//! the runtime's single-CAS direct-commit path, read-only transactions
//! commit descriptor-free, and larger ones buffer their critical CASes
//! thread-locally until the commit-time install, so an abort leaves no trace
//! in the structure — no dead value, no link.  A `put` that finds its key
//! touches no link at all: no tower, no index maintenance, no retirement
//! but that of a boxed old value.  After a lookup of its key in the same
//! transaction it does not even descend: it CASes the value word the lookup
//! found (the found-word memo of `chain.rs`).
//!
//! The deletion marks are all cleanup.  A dead tower's lanes are marked by
//! its remover at the start of its index maintenance, top-down; level 0 may
//! have been marked before that by an insert of the same key that found the
//! dead tower in its way (it marks, unlinks on level 0 and links its own; it
//! never retires).
//!
//! # Early exit
//!
//! A lookup that stops on an index level at a link naming its key loads
//! that tower's value word, counted, so that a transaction reads its own
//! write there.  If the word is not dead, the tower is the key's holder and
//! the lookup ends: it registers and remembers exactly the word the level-0
//! search would have found.  That is exact because a key has at most one
//! tower with a live value word, a dead word never revives, and a tower is
//! linked on an index level only after its level-0 link took effect, so a
//! live one met there is in the map.  A dead one sends the lookup on down.
//! Every hit on a tower taller than 1, about half of all hits, ends this way.
//! `remove` and `range` search down to level 0: a purge needs a predecessor
//! on every level, and a range page registers the level-0 link into its
//! first key.
//!
//! # Index maintenance
//!
//! The upper levels are a probabilistic index (in nbMontage terms "index",
//! not "payload").  Only maintenance writes them, after the linearization is
//! decided — at once standalone, post-commit in a transaction — with plain
//! CASes that no transaction buffers or rolls back, so a plain load of an
//! upper lane is exact even inside one.  Every write of a lane stores a
//! pointer together with its target's key: a new tower's lane is a copy of
//! its predecessor's, a link CAS writes `(node, its key)`, a mark keeps the
//! key half, and an unlink copies the victim's frozen word.  A search does no
//! more there: from the highest occupied level down it steps through marked
//! nodes, helping nobody.  Maintenance costs O(log n): it starts on each
//! level at the predecessor the search found there.  Such a hint may be dead;
//! if its link on the level is marked, the pass backs off to the hint of the
//! level above, and so on to the head, never marked — not to a new descent,
//! which would return the dead hint for as long as its remover stalls.
//!
//! * **The remover** of a node — the operation whose CAS killed its value
//!   word — marks the node's lanes top-down, then *purges* every lane: one
//!   pass from the hint, **through the nodes holding the same key**, to the
//!   first greater key, unlinking every marked node on the way.  Going
//!   through equal keys is what makes the pass sufficient: an insert that
//!   follows the removal has its victim's key and may be linked in front of
//!   it on an upper level, where a search for the key would stop.  (On level
//!   0 a dead tower is unlinked before its successor of the same key is
//!   linked.)
//! * **The linker** of a node — the operation that inserted it — links the
//!   upper lanes bottom-up, so a node linked on a level was linked on every
//!   level below.  A link CAS that succeeds proves the successor it installs
//!   is still in the lane (it was the value of a predecessor word that is
//!   unmarked, hence in the lane itself).  It proves nothing about the node
//!   being linked: the remover may have marked and purged this lane a moment
//!   before, finding nothing.  So after every link CAS the linker re-reads
//!   the node's own lane and, if it is marked, purges the lane itself and
//!   stops linking.
//! * **Retirement is a handoff.**  Linker and remover each say when they are
//!   done with the node, and whoever says so last retires it.  Either the
//!   linker's re-read saw the lane unmarked — then the remover's mark, and
//!   its purge, came after the link and found the node — or the linker
//!   purged the lane itself.  Hence a retired node is in no lane and will not
//!   be linked again, which is all epoch-based reclamation needs: a thread
//!   that still holds a pointer to it was pinned while the node was
//!   reachable, before the retirement.  (Retiring in the remover alone is not
//!   enough even with the linker's re-read: in the window between a late
//!   link and the linker's own purge, a thread pinned *after* the retirement
//!   could pick the node up.)
//!
//! # Towers
//!
//! A node is allocated as a 48-byte header (key, height, value word, level-0
//! link) followed by exactly `height - 1` index lanes — 64 bytes on average,
//! not a fixed 20-lane array — as one `Tower<V, I>` with its number of
//! lanes, so allocation, `tdelete`, retirement and `Drop` stay typed.  The
//! level-0 link is a Medley `CasWord`, the transactional chain's.  An index
//! lane is a plain 128-bit word `(successor | mark, successor's key)`, the
//! end of a level sorting as key `u64::MAX`: a descent step compares the key
//! half and follows the pointer half, one load that never touches a node
//! header.  No counter half is needed there: nothing registers an index
//! word, no descriptor is ever installed in one, and a CAS on one compares
//! the pointer (the key half follows from it), which EBR and "a marked tower
//! is never relinked" keep free of ABA.  A value that is not a small `u64` lives in a box of its own that
//! the value word points to.

use crate::chain::{self, Link, MemoKey, Put, TRACKED};
use crate::tag;
use medley::{AtomicU128, CasWord, Ctx, NonTx};
use std::marker::PhantomData;
use std::ptr;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

/// Maximum tower height (matches the paper's 20-level skiplists).
pub const MAX_HEIGHT: usize = 20;

/// A lane's sort key: a node holding `key` sorts as `at(key)`, and
/// `past(key)` is the bound just behind every such node, which lets a purge
/// say "through equal keys" to the shared traversal.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Bound {
    key: u64,
    past: bool,
}

impl Bound {
    fn at(key: u64) -> Self {
        Self { key, past: false }
    }
    fn past(key: u64) -> Self {
        Self { key, past: true }
    }
}

/// An index word: the pointer half (successor and deletion mark) and the
/// key half (the successor's key).
fn pair(bits: u64, key: u64) -> u128 {
    u128::from(key) << 64 | u128::from(bits)
}

/// The `(pointer half, key half)` of an index word.
fn halves(word: u128) -> (u64, u64) {
    (word as u64, (word >> 64) as u64)
}

/// The index word at the end of a level: no successor, sorting after every
/// key.
const END: u128 = (u64::MAX as u128) << 64;

/// The header of a tower; its index lanes follow it (see [`Tower`]).
#[repr(C)]
struct Node<V> {
    key: u64,
    height: u8,
    /// [`LINKED`] and [`REMOVED`], each set once; the second setter retires.
    done: AtomicU8,
    /// What the key is bound to (the value word of `chain.rs`).
    value: CasWord,
    /// The link on level 0, the chain's.
    next: CasWord,
    _val: PhantomData<V>,
}

/// The node's linker will not touch it again (set from birth on a tower of
/// height 1, which has nothing to link).
const LINKED: u8 = 1;
/// The node's remover has purged it from every lane.
const REMOVED: u8 = 2;

/// What a node is allocated as: the header and one index lane per level
/// above 0.
#[repr(C)]
struct Tower<V, const I: usize> {
    node: Node<V>,
    /// Levels 1 to `I`.
    index: [AtomicU128; I],
}

/// Evaluates `$body` with the constant `$I` equal to `$height - 1`, so that
/// a node can be handed to the allocator as the `Tower<V, I>` it is.
macro_rules! with_height {
    ($height:expr, $I:ident => $body:expr) => {
        with_height!(@arms $height, $I, $body,
            1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20)
    };
    (@arms $height:expr, $I:ident, $body:expr, $($n:literal)*) => {
        match $height {
            $($n => {
                const $I: usize = $n - 1;
                $body
            })*
            h => unreachable!("tower height {h}"),
        }
    };
}
const _: () = assert!(MAX_HEIGHT == 20, "`with_height!` lists the heights");

impl<V> Node<V> {
    /// Offset of the level-1 lane from the header, the same at every height.
    const INDEX: usize = std::mem::offset_of!(Tower<V, 0>, index);

    /// The index lane of `this` on `level`.
    ///
    /// # Safety
    /// `this` heads a tower taller than `level`, which is at least 1, and
    /// may be used for all of it.
    #[inline]
    unsafe fn lane(this: *const Self, level: usize) -> *const AtomicU128 {
        debug_assert!(level >= 1, "level 0 is `next`");
        // SAFETY: the caller's contract; `repr(C)` puts `index` at `INDEX`.
        unsafe {
            this.byte_add(Self::INDEX)
                .cast::<AtomicU128>()
                .add(level - 1)
        }
    }
}

/// Checks, under `debug_assertions`, that the key half `key` of a followed
/// index word names the key of `node`.  This is a plain load of the header,
/// which AddressSanitizer sees; the loads of the index words are inline
/// assembly, which it does not.
///
/// # Safety
/// `node` was read from an index word under the current pin.
#[inline]
unsafe fn check_key<V>(node: *const Node<V>, key: u64) {
    // SAFETY: the caller's contract keeps the node allocated.
    debug_assert_eq!(unsafe { (*node).key }, key, "an index word's key half");
}

/// Unlinking from level 0 does not retire: the tower may still be linked in
/// the index, so it is retired by handoff (see the module docs).
impl<V> Link for Node<V> {
    type Key = Bound;
    type Val = V;
    const RETIRE_ON_UNLINK: bool = false;
    fn key(&self) -> Bound {
        Bound::at(self.key)
    }
    fn value(&self) -> &CasWord {
        &self.value
    }
    fn next(&self) -> &CasWord {
        &self.next
    }
    unsafe fn free(this: *mut Self) {
        // SAFETY: the caller owns the node, which was allocated as the tower
        // of its height.
        unsafe {
            with_height!((*this).height, I => drop(Box::from_raw(this.cast::<Tower<V, I>>())))
        }
    }
    unsafe fn tdelete<C: Ctx>(cx: &mut C, this: *mut Self) {
        // SAFETY: the caller's contract, and as above.
        unsafe { with_height!((*this).height, I => cx.tdelete(this.cast::<Tower<V, I>>())) }
    }
}

/// A position on level 0.
type Pos<V> = chain::Position<Node<V>, TRACKED>;

/// The predecessor of a key on every level, as its search found them (null:
/// the head tower, also above `top`).  Hints, perhaps dead, for maintenance.
type Preds<V> = [*mut Node<V>; MAX_HEIGHT];

/// A lock-free, NBTC-composable skiplist map from `u64` keys to `V`.
pub struct SkipList<V> {
    /// The head tower's level-0 link ...
    head: CasWord,
    /// ... and its index lanes, level `l` at `l - 1`.
    index: [AtomicU128; MAX_HEIGHT - 1],
    seed: AtomicU64,
    /// No tower is taller (a hint: raised before a tower can be linked).
    top: AtomicU8,
    _marker: PhantomData<V>,
}

// SAFETY: shared concurrent container, nodes reclaimed through EBR.
unsafe impl<V: Send + Sync> Send for SkipList<V> {}
// SAFETY: every shared word is atomic, and a node is freed only by EBR.
unsafe impl<V: Send + Sync> Sync for SkipList<V> {}

impl<V> SkipList<V>
where
    V: Clone + Send + Sync + 'static,
{
    /// Creates an empty skiplist.
    pub fn new() -> Self {
        Self {
            head: CasWord::new(0),
            index: std::array::from_fn(|_| AtomicU128::new(END)),
            seed: AtomicU64::new(0x9E37_79B9_7F4A_7C15),
            top: AtomicU8::new(1),
            _marker: PhantomData,
        }
    }

    /// Pseudo-random tower height with a geometric(1/2) distribution.
    fn random_height(&self) -> usize {
        let mut x = self
            .seed
            .fetch_add(0xA24B_AED4_963E_E407, Ordering::Relaxed);
        x ^= x >> 33;
        x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        x ^= x >> 33;
        ((x.trailing_ones() as usize) + 1).min(MAX_HEIGHT)
    }

    /// The level-0 link of `node`, or of the head tower when `node` is null.
    ///
    /// # Safety
    /// `node` is null or protected by the current pin.
    unsafe fn next(&self, node: *mut Node<V>) -> &CasWord {
        if node.is_null() {
            &self.head
        } else {
            // SAFETY: the caller's contract.
            unsafe { &(*node).next }
        }
    }

    /// The index lane of `node` on `level` (at least 1), or of the head
    /// tower when `node` is null.
    ///
    /// # Safety
    /// `node` is null or protected by the current pin and taller than `level`.
    #[inline]
    unsafe fn lane(&self, node: *mut Node<V>, level: usize) -> &AtomicU128 {
        if node.is_null() {
            medley::failpoint!("skiplist::head", level as u64);
            &self.index[level - 1]
        } else {
            // SAFETY: the caller's contract; node pointers come out of link
            // words, which hold pointers to whole towers.
            unsafe { &*Node::lane(node, level) }
        }
    }

    /// Searches for `key` and returns its level-0 position, recording in
    /// `preds` the last node before it on every level.  The index is only
    /// read (module docs), as in Herlihy and Shavit's wait-free `contains`:
    /// one plain load per step, through marked nodes, never loading the link
    /// of the node they stop at.  With `exit`, a live tower of `key` met on
    /// an index level ends the search (module docs) with `preds` filled down
    /// to that level only.  Level 0, where the outcome is otherwise decided
    /// and registered, is the chain's traversal ([`SkipList::reposition`]).
    fn search<C: Ctx>(&self, cx: &mut C, key: u64, preds: &mut Preds<V>, exit: bool) -> Pos<V> {
        let mut pred = ptr::null_mut();
        for level in (1..usize::from(self.top.load(Ordering::Relaxed))).rev() {
            // Enter at the predecessor found above unless its link here is
            // marked — it may be purged from this lane already, and its frozen
            // link older than our pin — and then at the nearest earlier one
            // whose link is not, the head last.
            let mut from = level + 1;
            let (mut bits, mut next_key) = loop {
                // SAFETY: pinned by the caller's `with_op`; `pred` is null or
                // was met on level `from > level`, so it has this lane.
                let (bits, next_key) = halves(unsafe { self.lane(pred, level) }.load());
                if !tag::is_marked(bits) {
                    break (bits, next_key);
                }
                from += 1;
                pred = preds.get(from).copied().unwrap_or(ptr::null_mut());
            };
            // Every node `bits` points at was read from this lane under the
            // pin, from an unmarked link (its owner was in the lane then, and
            // so was the node) or from the frozen link of a marked node met
            // here (the owner was in the lane at or after the pin; when it
            // left, its link pointed at a node in the lane).  Either way the
            // node was in the lane at or after the pin, so it was not retired
            // before it.
            while next_key < key {
                medley::failpoint!("chain::hop");
                pred = tag::as_ptr(bits);
                // SAFETY: a key half below `key` is not the end's, so `pred`
                // is a node, allocated (above) and, linked on this level,
                // taller than it.
                (bits, next_key) = unsafe {
                    check_key(pred, next_key);
                    halves((*Node::lane(pred, level)).load())
                };
            }
            preds[level] = pred;
            let next = tag::as_ptr::<Node<V>>(bits);
            if exit && next_key == key && !next.is_null() {
                // SAFETY: `next` is a node, allocated (above).
                let value = unsafe {
                    check_key(next, key);
                    &(*next).value
                };
                let (val, cnt) = cx.nbtc_load_counted(value);
                // A dead tower sends the search on down.
                if val != chain::DEAD {
                    return Pos::alive(next, val, cnt);
                }
            }
        }
        preds[0] = pred;
        medley::failpoint!("skiplist::floor");
        // SAFETY: pinned, and every hint was met on its level by this descent.
        unsafe { self.reposition(cx, Bound::at(key), preds) }
    }

    /// [`SkipList::search`], ending early, for callers that do not need the
    /// predecessors.
    fn locate<C: Ctx>(&self, cx: &mut C, key: u64) -> Pos<V> {
        self.search(cx, key, &mut [ptr::null_mut(); MAX_HEIGHT], true)
    }

    /// Looks up `key`.
    pub fn get<C: Ctx>(&self, cx: &mut C, key: u64) -> Option<V> {
        self.get_with(cx, key, V::clone)
    }

    /// Looks up `key` and maps its value through `f`, which may run more
    /// than once (see [`TxMap::get_with`](crate::TxMap::get_with)).
    pub fn get_with<C: Ctx, R>(&self, cx: &mut C, key: u64, f: impl FnMut(&V) -> R) -> Option<R> {
        let at = MemoKey::new(self, key);
        // SAFETY: pinned by `with_op`; `locate` searches this list.
        cx.with_op(|cx| unsafe { chain::get(cx, at, |cx| self.locate(cx, key), f) })
    }

    /// Whether `key` is present.  Registers the same counted linearizing
    /// load as [`SkipList::get`] but never clones the value.
    pub fn contains<C: Ctx>(&self, cx: &mut C, key: u64) -> bool {
        self.get_with(cx, key, |_| ()).is_some()
    }

    /// Ordered range cursor: collects up to `limit` live `(key, value)`
    /// pairs with keys in `bounds`, in ascending key order.
    ///
    /// Transactionally this is an **atomic snapshot of the traversed
    /// window**: the linearizing level-0 loads — the link into the first
    /// candidate, and each live node's own level-0 link *and* value word —
    /// join the read set with their counter tokens, so commit-time
    /// validation fails if anything in the window changed between the walk
    /// and the commit: an insert CASes a registered link, a replace or a
    /// remove a registered value word.  Marked nodes are skipped *without*
    /// registration: a level-0 link never changes again once marked, so the
    /// hop through one is pinned by the registered words on either side of
    /// it.  A node that is dead but not yet marked contributes its link —
    /// which can still change — and nothing else: its value word cannot.
    ///
    /// Standalone ([`NonTx`]) the same code monomorphizes into an
    /// uninstrumented read pass with no cross-node atomicity claim, like
    /// [`SkipList::snapshot`] but bounded.
    pub fn range<C: Ctx>(
        &self,
        cx: &mut C,
        bounds: std::ops::Range<u64>,
        limit: usize,
    ) -> Vec<(u64, V)> {
        self.range_with(cx, bounds, limit, V::clone)
    }

    /// [`SkipList::range`], each value mapped through `f` by the re-checked
    /// read of a lookup (see [`TxMap::get_with`](crate::TxMap::get_with)):
    /// the pair a key registers is the one its value was mapped from, and a
    /// word that dies during the read leaves its key out, as one found dead.
    pub fn range_with<C: Ctx, R>(
        &self,
        cx: &mut C,
        bounds: std::ops::Range<u64>,
        limit: usize,
        mut f: impl FnMut(&V) -> R,
    ) -> Vec<(u64, R)> {
        cx.with_op(|cx| {
            let mut out = Vec::new();
            if bounds.start >= bounds.end || limit == 0 {
                return out;
            }
            let preds = &mut [ptr::null_mut(); MAX_HEIGHT];
            let pos = self.search(cx, bounds.start, preds, false);
            pos.register_prev(cx);
            let mut curr = pos.curr();
            while !curr.is_null() {
                // SAFETY: every node on the level-0 list is protected by the
                // current pin; keys are immutable after construction.
                let node = unsafe { &*curr };
                if node.key >= bounds.end || out.len() == limit {
                    break;
                }
                let (next_raw, next_cnt) = cx.nbtc_load_counted(&node.next);
                curr = tag::as_ptr::<Node<V>>(next_raw);
                if tag::is_marked(next_raw) {
                    // Removed and frozen: hop over it unregistered.
                    continue;
                }
                // Pins the link to the successor.
                cx.add_read_with_counter(&node.next, next_raw, next_cnt);
                let read = cx.nbtc_load_counted(&node.value);
                if read.0 == chain::DEAD {
                    continue;
                }
                // SAFETY: a live word of a node of this list, read under the
                // current pin.
                if let Some((v, val, cnt)) =
                    unsafe { chain::map_live(cx, &node.value, read, &mut f) }
                {
                    // Proves membership, and the binding.
                    cx.add_read_with_counter(&node.value, val, cnt);
                    out.push((node.key, v));
                }
            }
            out
        })
    }

    /// One chain traversal of level 0 up to `bound`, the one rule that turns
    /// hints into a position: from `preds[0]`, or, while that node's link is
    /// marked, from `preds[1]`, …, the head (module docs).
    ///
    /// # Safety
    /// Pinned; every `preds[l]` is null or a node with key below `bound`
    /// that was met on level `l` under the pin.
    unsafe fn reposition<C: Ctx>(&self, cx: &mut C, bound: Bound, preds: &Preds<V>) -> Pos<V> {
        let mut from = 0;
        loop {
            let pred = preds.get(from).copied().unwrap_or(ptr::null_mut());
            // SAFETY: the caller's contract on `preds`.
            let start = unsafe { self.next(pred) };
            // SAFETY: pinned.
            if let Some(pos) = unsafe { chain::try_find(cx, start, bound) } {
                return pos;
            }
            // Otherwise the pass lost an unlink race and is simply repeated.
            if !pred.is_null() && tag::is_marked(cx.nbtc_load(start)) {
                from += 1;
            }
        }
    }

    /// One pass of Harris's find on index level `level` from `start`, the
    /// index's [`chain::try_find`]: returns the lane before the first tower
    /// at or past `bound` and the word seen in it, unlinking every marked
    /// tower on the way.  `None` means the pass has to be restarted: it lost
    /// an unlink race, or met a marked word (`start` among them).
    ///
    /// # Safety
    /// Pinned; `start` is the lane on `level` of the head or of a tower met
    /// on that level under the pin.
    unsafe fn try_find_index(
        level: usize,
        start: &AtomicU128,
        bound: Bound,
    ) -> Option<(&AtomicU128, u128)> {
        let (mut prev, mut word) = (start, start.load());
        loop {
            let (bits, key) = halves(word);
            let curr = tag::as_ptr::<Node<V>>(bits);
            if tag::is_marked(bits) {
                return None;
            }
            if curr.is_null() {
                return Some((prev, word));
            }
            // SAFETY: `curr` was in the level under the pin (as in
            // `search`), so it is allocated and has this lane.
            let link = unsafe {
                check_key(curr, key);
                &*Node::lane(curr, level)
            };
            let next = link.load();
            let (next_bits, next_key) = halves(next);
            if tag::is_marked(next_bits) {
                // Removed: unlink it, its frozen word into `prev`.
                let succ = pair(tag::unmarked(next_bits), next_key);
                if !prev.cas(word, succ) {
                    return None;
                }
                word = succ;
                continue;
            }
            if Bound::at(key) >= bound {
                return Some((prev, word));
            }
            (prev, word) = (link, next);
        }
    }

    /// [`SkipList::try_find_index`] from the hints, by the rule of
    /// [`SkipList::reposition`].
    ///
    /// # Safety
    /// As for [`SkipList::reposition`]; `level` is at least 1.
    unsafe fn find_index(
        &self,
        level: usize,
        bound: Bound,
        preds: &Preds<V>,
    ) -> (&AtomicU128, u128) {
        let mut from = level;
        loop {
            let pred = preds.get(from).copied().unwrap_or(ptr::null_mut());
            // SAFETY: the caller's contract on `preds`; a node met on level
            // `from >= level` has this lane.
            let start = unsafe { self.lane(pred, level) };
            // SAFETY: as above.
            if let Some(found) = unsafe { Self::try_find_index(level, start, bound) } {
                return found;
            }
            if !pred.is_null() && tag::is_marked(halves(start.load()).0) {
                from += 1;
            }
        }
    }

    /// The purge of `key` on `level`: one pass from the hints through the
    /// equal keys, unlinking every marked node (module docs).
    ///
    /// # Safety
    /// As for [`SkipList::reposition`].
    unsafe fn purge(&self, cx: &mut NonTx<'_>, key: u64, level: usize, preds: &Preds<V>) {
        // SAFETY: the caller's contract.
        unsafe {
            if level == 0 {
                self.reposition(cx, Bound::past(key), preds);
            } else {
                self.find_index(level, Bound::past(key), preds);
            }
        }
    }

    /// Links `node` on `level`.  `false` means the node is being removed and
    /// must not be linked any higher.
    ///
    /// # Safety
    /// As for [`SkipList::find_index`]; `node` holds `key`, is taller than
    /// `level`, linked on every level below and not yet released by its
    /// linker, which is the caller.
    unsafe fn link_level(
        &self,
        cx: &mut NonTx<'_>,
        key: u64,
        node: *mut Node<V>,
        level: usize,
        preds: &Preds<V>,
    ) -> bool {
        // SAFETY (whole body): `node` is not retired before its linker
        // releases it; the rest is the caller's contract.
        let (value, own) = unsafe { (&(*node).value, self.lane(node, level)) };
        loop {
            if cx.nbtc_load(value) == chain::DEAD {
                return false;
            }
            // SAFETY: the caller's contract.
            let (prev, succ) = unsafe { self.find_index(level, Bound::at(key), preds) };
            // Point the node at its successor, unless its remover got here.
            let cur = own.load();
            if tag::is_marked(halves(cur).0) {
                return false;
            }
            if cur != succ && !own.cas(cur, succ) {
                continue;
            }
            medley::failpoint!("skiplist::before_link", key);
            if !prev.cas(succ, pair(tag::from_ptr(node), key)) {
                continue;
            }
            // Linked.  If the remover marked this lane before the link, its
            // purge may have come and gone: undo the link ourselves.
            if tag::is_marked(halves(own.load()).0) {
                // SAFETY: the caller's contract.
                unsafe { self.purge(cx, key, level, preds) };
                return false;
            }
            return true;
        }
    }

    /// Index maintenance after a level-0 linearization of `key`: purges
    /// `deleted`, the node the operation removed, from every lane and links
    /// `linked`, the node it inserted, into its upper lanes.
    ///
    /// # Safety
    /// As for [`SkipList::reposition`]; the caller is the remover of
    /// `deleted` and the linker of `linked`, both holding `key`.
    unsafe fn maintain(
        &self,
        cx: &mut NonTx<'_>,
        key: u64,
        linked: Option<*mut Node<V>>,
        deleted: Option<*mut Node<V>>,
        preds: &Preds<V>,
    ) {
        // SAFETY (whole body): neither node is retired before this call
        // releases it.
        let height = |node: Option<*mut Node<V>>| {
            // SAFETY: as just said.
            node.map_or(0, |n| unsafe { (*n).height } as usize)
        };
        let (purge_top, mut link_top) = (height(deleted), height(linked));
        if let Some(victim) = deleted {
            medley::failpoint!("skiplist::before_mark", key);
            for level in (1..purge_top).rev() {
                // SAFETY: pinned, and `purge_top` is the victim's height.
                let lane = unsafe { self.lane(victim, level) };
                loop {
                    let word = lane.load();
                    let (bits, next_key) = halves(word);
                    if lane.cas(word, pair(tag::marked(bits), next_key)) {
                        break;
                    }
                }
            }
            // Level 0 last, where an insert of the key may have helped.
            // SAFETY: the victim is not retired before this call releases it.
            chain::mark(cx, unsafe { &(*victim).next });
            medley::failpoint!("skiplist::before_purge", key);
        }
        // Bottom-up, so that a node linked on a level is linked below it.
        for level in 0..purge_top.max(link_top) {
            if level < purge_top {
                // SAFETY: the caller's contract.
                unsafe { self.purge(cx, key, level, preds) };
            }
            if let Some(node) = linked.filter(|_| (1..link_top).contains(&level)) {
                // SAFETY: the caller's contract; `node` is linked below
                // `level`, or this loop would have stopped linking it.
                if !unsafe { self.link_level(cx, key, node, level, preds) } {
                    link_top = 0;
                }
            }
        }
        for (node, who) in [(linked, LINKED), (deleted, REMOVED)] {
            let Some(node) = node else { continue };
            // Whoever is done with the node last retires it.
            // SAFETY: not retired before this call releases it.
            if unsafe { &(*node).done }.fetch_or(who, Ordering::AcqRel) | who == LINKED | REMOVED {
                // SAFETY: in no lane and never linked again (module docs).
                unsafe {
                    with_height!((*node).height, I => cx.retire_now(node.cast::<Tower<V, I>>()))
                }
            }
        }
    }

    /// Allocates a node with a random tower height and the value word
    /// `bits` (from `chain::encode`).
    fn new_node<C: Ctx>(&self, cx: &mut C, key: u64, bits: u64) -> *mut Node<V> {
        let height = self.random_height();
        self.top.fetch_max(height as u8, Ordering::Relaxed);
        let node = Node {
            key,
            height: height as u8,
            done: AtomicU8::new(if height == 1 { LINKED } else { 0 }),
            value: CasWord::new(bits),
            next: CasWord::new(0),
            _val: PhantomData,
        };
        with_height!(height, I => {
            let index = std::array::from_fn(|_| AtomicU128::new(END));
            cx.tnew(Tower::<V, I> { node, index }).cast()
        })
    }

    /// Registers the index maintenance that follows a level-0 linearization,
    /// run once the outcome is decided, with the predecessors the
    /// operation's search found as hints.
    fn maintain_on_commit<C: Ctx>(
        &self,
        cx: &mut C,
        key: u64,
        linked: Option<*mut Node<V>>,
        deleted: Option<*mut Node<V>>,
        preds: Preds<V>,
    ) {
        // SAFETY: `linked` is the caller's own node.
        let linked = linked.filter(|&node| unsafe { (*node).height } > 1);
        if linked.is_none() && deleted.is_none() {
            return;
        }
        let list = self as *const Self;
        cx.add_cleanup(move |h| {
            // Cleanup context is definitionally non-transactional.
            let mut cx = NonTx::new(h);
            // SAFETY: the structure outlives the transaction (caller
            // contract).  The pin of the operation, or of its transaction,
            // is still held: it keeps the hints allocated, and both nodes
            // until `maintain` — called for them only here — releases them.
            unsafe { (*list).maintain(&mut cx, key, linked, deleted, &preds) };
        });
    }

    /// Inserts `key -> val` only if absent; returns `true` on success.
    pub fn insert<C: Ctx>(&self, cx: &mut C, key: u64, val: V) -> bool {
        cx.with_op(|cx| {
            let mut preds = [ptr::null_mut(); MAX_HEIGHT];
            // Linearization + publication point: the bottom-level link.  A
            // search that ends early finds the key present, so the one that
            // leads to a link went down to level 0 and filled `preds`.
            // SAFETY: `search` positions are taken under this `with_op`'s
            // pin, and `new_node` towers are fresh from `tnew`.
            let linked = unsafe {
                chain::insert(
                    cx,
                    MemoKey::new(self, key),
                    |cx| self.search(cx, key, &mut preds, true),
                    |cx| {
                        let bits = chain::encode(cx, val);
                        self.new_node(cx, key, bits)
                    },
                )
            };
            self.maintain_on_commit(cx, key, linked, None, preds);
            linked.is_some()
        })
    }

    /// Inserts or replaces; returns the previous value if any.  After a
    /// lookup of `key` in the same transaction, one CAS on the value word
    /// that lookup found, without a descent.
    pub fn put<C: Ctx>(&self, cx: &mut C, key: u64, val: V) -> Option<V> {
        cx.with_op(|cx| {
            let bits = chain::encode(cx, val);
            let at = MemoKey::new(self, key);
            let mut preds = [ptr::null_mut(); MAX_HEIGHT];
            // Linearization point: the CAS of the found node's value word,
            // or the bottom-level link of a new one (after a full search, as
            // in `insert`).
            // SAFETY: as in `insert`; a replace is what hands its old word
            // to `take`.
            unsafe {
                let locate = |cx: &mut C| self.search(cx, key, &mut preds, true);
                match chain::put(cx, bits, at, locate, |cx| self.new_node(cx, key, bits)) {
                    Put::Inserted(node) => {
                        self.maintain_on_commit(cx, key, Some(node), None, preds);
                        None
                    }
                    Put::Replaced(old) => Some(chain::take(cx, old)),
                }
            }
        })
    }

    /// Removes `key`; returns its value if present.
    pub fn remove<C: Ctx>(&self, cx: &mut C, key: u64) -> Option<V> {
        cx.with_op(|cx| {
            let mut preds = [ptr::null_mut(); MAX_HEIGHT];
            // Linearization point: the CAS of the value word to "dead".
            let locate = |cx: &mut C| self.search(cx, key, &mut preds, false);
            let (removed, old) = chain::remove(cx, locate)?;
            self.maintain_on_commit(cx, key, None, Some(removed.curr()), preds);
            // SAFETY: the remove is what took the word out.
            Some(unsafe { chain::take(cx, old) })
        })
    }

    /// Quiescent snapshot of the live `(key, value)` pairs in key order.
    pub fn snapshot(&self) -> Vec<(u64, V)> {
        let mut out = Vec::new();
        // SAFETY: quiescence is the caller's contract.
        unsafe {
            chain::walk(&self.head, |n: &Node<V>, live| {
                if live {
                    out.push((n.key, chain::value_of(n)));
                }
            })
        };
        out
    }

    /// Quiescent count of live keys.
    pub fn len_quiescent(&self) -> usize {
        self.snapshot().len()
    }

    /// The link of `node` (null: the head) on `level`: its pointer half and,
    /// on an index level, its key half.
    ///
    /// # Safety
    /// As for [`SkipList::lane`], and no operation runs concurrently.
    unsafe fn link_quiescent(&self, node: *mut Node<V>, level: usize) -> (u64, Option<u64>) {
        // SAFETY: the caller's contract.
        unsafe {
            if level == 0 {
                (self.next(node).load_value_spin(), None)
            } else {
                let (bits, key) = halves(self.lane(node, level).load());
                (bits, Some(key))
            }
        }
    }

    /// Quiescent structural check, for tests and stress runs.  Verifies:
    ///
    /// * every level is sorted by key, strictly among live nodes;
    /// * every node linked on an upper level is reachable on level 0 (the
    ///   level-0 addresses are collected first and a pointer is looked up in
    ///   them *before* it is followed, so a dangling index pointer is
    ///   reported, not dereferenced) and is taller than that level;
    /// * every index word's key half is its successor's key (`u64::MAX` at
    ///   the end of a level), the head's included.
    ///
    /// Returns how many deleted nodes are still linked `(on level 0, on the
    /// levels above)`: once every operation has returned, its maintenance
    /// has too, so a caller at rest expects `(0, 0)`.
    pub fn check_integrity_quiescent(&self) -> Result<(u64, u64), String> {
        // Level-0 address -> whether the node is live.
        let mut towers = std::collections::HashMap::new();
        let mut leftover = (0u64, 0u64);
        for level in 0..MAX_HEIGHT {
            let mut last: Option<(u64, bool)> = None;
            // SAFETY: quiescence is the caller's contract; the head has every
            // level.
            let (mut bits, mut half) = unsafe { self.link_quiescent(ptr::null_mut(), level) };
            loop {
                let node = tag::as_ptr::<Node<V>>(bits);
                if level > 0 && !node.is_null() && !towers.contains_key(&(node as usize)) {
                    return Err(format!(
                        "level {level}: dangling index pointer {node:p} after key {:?}",
                        last.map(|(key, _)| key)
                    ));
                }
                // SAFETY: as above, and `node` is reachable on level 0
                // (walked first; checked just above).
                let key = if node.is_null() {
                    u64::MAX
                } else {
                    unsafe { (*node).key }
                };
                if half.is_some_and(|half| half != key) {
                    return Err(format!(
                        "level {level}: the link after key {:?} says key {half:?}, not {key}",
                        last.map(|(key, _)| key)
                    ));
                }
                if node.is_null() {
                    break;
                }
                // SAFETY: as above.
                let (height, value) = unsafe { ((*node).height as usize, &(*node).value) };
                if height <= level {
                    return Err(format!(
                        "level {level}: key {key} linked above its height {height}"
                    ));
                }
                // SAFETY: as above, and `level < height`.
                (bits, half) = unsafe { self.link_quiescent(node, level) };
                let mut live = !tag::is_marked(bits) && value.load_value_spin() != chain::DEAD;
                if level == 0 {
                    towers.insert(node as usize, live);
                    leftover.0 += u64::from(!live);
                } else {
                    live &= towers[&(node as usize)];
                    leftover.1 += u64::from(!live);
                }
                if let Some((prev, prev_live)) = last {
                    if prev > key || (prev == key && prev_live && live) {
                        return Err(format!("level {level}: key {prev} precedes key {key}"));
                    }
                }
                last = Some((key, live));
            }
        }
        Ok(leftover)
    }
}

impl<V> Default for SkipList<V>
where
    V: Clone + Send + Sync + 'static,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<V> Drop for SkipList<V> {
    fn drop(&mut self) {
        // Every node is reachable at level 0.
        // SAFETY: `&mut self` gives exclusive access.
        unsafe { chain::free_all::<Node<V>>(&self.head) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medley::{failpoint, AbortReason, TxError, TxManager, TxResult};
    use std::sync::Arc;

    #[test]
    fn basic_crud() {
        let mgr = TxManager::new();
        let mut h = mgr.register();
        let sl = SkipList::new();
        assert_eq!(sl.get(&mut h.nontx(), 3), None);
        assert!(sl.insert(&mut h.nontx(), 3, 30));
        assert!(!sl.insert(&mut h.nontx(), 3, 31));
        assert_eq!(sl.get(&mut h.nontx(), 3), Some(30));
        assert_eq!(sl.put(&mut h.nontx(), 3, 33), Some(30));
        assert_eq!(sl.get(&mut h.nontx(), 3), Some(33));
        assert_eq!(sl.remove(&mut h.nontx(), 3), Some(33));
        assert_eq!(sl.remove(&mut h.nontx(), 3), None);
        assert_eq!(sl.len_quiescent(), 0);
    }

    #[test]
    fn many_keys_stay_sorted() {
        let mgr = TxManager::new();
        let mut h = mgr.register();
        let sl = SkipList::new();
        let mut keys: Vec<u64> = (0..1_000)
            .map(|i| (i * 2_654_435_761u64) % 100_000)
            .collect();
        keys.sort_unstable();
        keys.dedup();
        for &k in &keys {
            assert!(sl.insert(&mut h.nontx(), k, k + 1));
        }
        let snap = sl.snapshot();
        assert_eq!(snap.len(), keys.len());
        let snap_keys: Vec<u64> = snap.iter().map(|(k, _)| *k).collect();
        assert_eq!(snap_keys, keys, "snapshot must be sorted and complete");
        for &k in keys.iter().step_by(3) {
            assert_eq!(sl.remove(&mut h.nontx(), k), Some(k + 1));
        }
        for &k in keys.iter() {
            let expect = if keys.iter().position(|&x| x == k).unwrap() % 3 == 0 {
                None
            } else {
                Some(k + 1)
            };
            assert_eq!(sl.get(&mut h.nontx(), k), expect);
        }
    }

    #[test]
    fn random_height_distribution_is_sane() {
        let sl = SkipList::<u64>::new();
        let mut counts = [0usize; MAX_HEIGHT + 1];
        for _ in 0..10_000 {
            let h = sl.random_height();
            assert!((1..=MAX_HEIGHT).contains(&h));
            counts[h] += 1;
        }
        assert!(
            counts[1] > 3_000,
            "about half the towers should be height 1"
        );
        assert!(counts[1] < 7_000);
    }

    #[test]
    fn range_cursor_matches_model() {
        let mgr = TxManager::new();
        let mut h = mgr.register();
        let sl = SkipList::new();
        let keys: Vec<u64> = (0..200).map(|i| i * 3 + 1).collect();
        for &k in &keys {
            assert!(sl.insert(&mut h.nontx(), k, k * 10));
        }
        // Standalone walk.
        let page = sl.range(&mut h.nontx(), 10..100, usize::MAX);
        let model: Vec<(u64, u64)> = keys
            .iter()
            .filter(|&&k| (10..100).contains(&k))
            .map(|&k| (k, k * 10))
            .collect();
        assert_eq!(page, model);
        // Limit truncation takes the smallest keys.
        let page = sl.range(&mut h.nontx(), 10..100, 5);
        assert_eq!(page, model[..5]);
        // Empty and inverted windows.
        assert!(sl.range(&mut h.nontx(), 2..3, 10).is_empty());
        assert!(sl.range(&mut h.nontx(), 50..50, 10).is_empty());
        #[allow(clippy::reversed_empty_ranges)]
        let inverted = 100..10;
        assert!(sl.range(&mut h.nontx(), inverted, 10).is_empty());
        // Transactional: a read-only scan commits descriptor-free and sees
        // the same page; own writes inside the transaction are visible.
        let res: TxResult<Vec<(u64, u64)>> = h.run(|t| Ok(sl.range(t, 10..100, usize::MAX)));
        assert_eq!(res.unwrap(), model);
        h.flush_stats();
        assert!(mgr.stats_snapshot().ro_commits >= 1);
        let res: TxResult<usize> = h.run(|t| {
            assert!(sl.insert(t, 12, 120));
            let page = sl.range(t, 10..100, usize::MAX);
            assert!(page.contains(&(12, 120)), "own insert visible to scan");
            Ok(page.len())
        });
        assert_eq!(res.unwrap(), model.len() + 1);
        // Deleted keys disappear from the page.
        sl.remove(&mut h.nontx(), 12).unwrap();
        sl.remove(&mut h.nontx(), 13).unwrap();
        let page = sl.range(&mut h.nontx(), 10..100, usize::MAX);
        assert!(!page.iter().any(|&(k, _)| k == 12 || k == 13));
    }

    #[test]
    fn transactional_composition_and_rollback() {
        let mgr = TxManager::new();
        let mut h = mgr.register();
        let sl = SkipList::new();
        assert!(sl.insert(&mut h.nontx(), 1, 10));

        // Committed transaction: move 1 -> 2.
        let ok: TxResult<()> = h.run(|h| {
            let v = sl.remove(h, 1).unwrap();
            assert!(sl.insert(h, 2, v));
            assert_eq!(sl.get(h, 1), None, "own delete visible");
            assert_eq!(sl.get(h, 2), Some(10), "own insert visible");
            Ok(())
        });
        assert!(ok.is_ok());
        assert_eq!(sl.get(&mut h.nontx(), 1), None);
        assert_eq!(sl.get(&mut h.nontx(), 2), Some(10));

        // Aborted transaction leaves no trace.
        let err: TxResult<()> = h.run(|h| {
            assert_eq!(sl.remove(h, 2), Some(10));
            assert!(sl.insert(h, 5, 50));
            Err(h.abort(AbortReason::Explicit))
        });
        assert!(err.is_err());
        assert_eq!(sl.get(&mut h.nontx(), 2), Some(10));
        assert_eq!(sl.get(&mut h.nontx(), 5), None);
        assert_eq!(sl.len_quiescent(), 1);
    }

    #[test]
    fn concurrent_disjoint_inserts_and_lookups() {
        const THREADS: u64 = 4;
        const PER_THREAD: u64 = 400;
        let mgr = TxManager::new();
        let sl = Arc::new(SkipList::<u64>::new());
        let mut joins = Vec::new();
        for t in 0..THREADS {
            let mgr = Arc::clone(&mgr);
            let sl = Arc::clone(&sl);
            joins.push(std::thread::spawn(move || {
                let mut h = mgr.register();
                for i in 0..PER_THREAD {
                    let k = t * PER_THREAD + i;
                    assert!(sl.insert(&mut h.nontx(), k, k * 7));
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(sl.len_quiescent(), (THREADS * PER_THREAD) as usize);
        assert_eq!(sl.check_integrity_quiescent(), Ok((0, 0)));
        let mut h = mgr.register();
        for k in 0..THREADS * PER_THREAD {
            assert_eq!(sl.get(&mut h.nontx(), k), Some(k * 7));
        }
    }

    #[test]
    fn concurrent_mixed_ops_value_invariant() {
        const THREADS: usize = 4;
        const OPS: usize = 500;
        const KEY_SPACE: u64 = 64;
        let mgr = TxManager::new();
        let sl = Arc::new(SkipList::<u64>::new());
        let mut joins = Vec::new();
        for t in 0..THREADS {
            let mgr = Arc::clone(&mgr);
            let sl = Arc::clone(&sl);
            joins.push(std::thread::spawn(move || {
                let mut h = mgr.register();
                let mut rng = medley::util::FastRng::new((t + 11) as u64);
                for _ in 0..OPS {
                    let k = rng.next_below(KEY_SPACE);
                    match rng.next_below(4) {
                        0 => {
                            sl.insert(&mut h.nontx(), k, k * 2);
                        }
                        1 => {
                            sl.put(&mut h.nontx(), k, k * 2);
                        }
                        2 => {
                            sl.remove(&mut h.nontx(), k);
                        }
                        _ => {
                            if let Some(v) = sl.get(&mut h.nontx(), k) {
                                assert_eq!(v, k * 2);
                            }
                        }
                    }
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(sl.check_integrity_quiescent(), Ok((0, 0)));
        let snap = sl.snapshot();
        for (k, v) in &snap {
            assert_eq!(*v, *k * 2);
        }
        let keys: Vec<u64> = snap.iter().map(|(k, _)| *k).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(
            keys, sorted,
            "level-0 list must remain sorted and duplicate-free"
        );
    }

    #[test]
    fn concurrent_transfers_preserve_sum() {
        const THREADS: usize = 4;
        const OPS: usize = 250;
        const ACCOUNTS: u64 = 10;
        let mgr = TxManager::new();
        let sl = Arc::new(SkipList::<u64>::new());
        {
            let mut h = mgr.register();
            for a in 0..ACCOUNTS {
                assert!(sl.insert(&mut h.nontx(), a, 1_000));
            }
        }
        let mut joins = Vec::new();
        for t in 0..THREADS {
            let mgr = Arc::clone(&mgr);
            let sl = Arc::clone(&sl);
            joins.push(std::thread::spawn(move || {
                let mut h = mgr.register();
                let mut rng = medley::util::FastRng::new((t + 3) as u64);
                for _ in 0..OPS {
                    let from = rng.next_below(ACCOUNTS);
                    let to = rng.next_below(ACCOUNTS);
                    if from == to {
                        continue;
                    }
                    let amt = 1 + rng.next_below(5);
                    let _ = h.run(|h| {
                        let a = sl.get(h, from).unwrap();
                        let b = sl.get(h, to).unwrap();
                        if a < amt {
                            return Err(h.abort(AbortReason::Explicit));
                        }
                        sl.put(h, from, a - amt);
                        sl.put(h, to, b + amt);
                        Ok(())
                    });
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let total: u64 = sl.snapshot().iter().map(|(_, v)| *v).sum();
        assert_eq!(total, ACCOUNTS * 1_000);
        assert_eq!(sl.check_integrity_quiescent(), Ok((0, 0)));
    }

    /// Keys of the nodes linked on `level`, in order (quiescent).
    fn keys_on_level(sl: &SkipList<u64>, level: usize) -> Vec<u64> {
        let mut keys = Vec::new();
        // SAFETY: quiescent; the head has every level.
        let mut node =
            tag::as_ptr::<Node<u64>>(unsafe { sl.link_quiescent(ptr::null_mut(), level) }.0);
        while !node.is_null() {
            // SAFETY: quiescent, and linked on `level`.
            unsafe {
                keys.push((*node).key);
                node = tag::as_ptr(sl.link_quiescent(node, level).0);
            }
        }
        keys
    }

    /// A tower of height at least `height` from the middle of `sl`.
    fn tall_key(sl: &SkipList<u64>, height: usize) -> u64 {
        let tall = keys_on_level(sl, height - 1);
        tall[tall.len() / 2]
    }

    /// A search whose index hint is deleted on level 0 — here by the running
    /// transaction's own speculative mark, which nobody can unlink before
    /// commit — backs off to an earlier predecessor it already holds.  It
    /// used to walk level 0 from the head: half of 2^14 nodes.  (The mark is
    /// the help an insert gives the same transaction's removal; the removal
    /// alone kills the value word and leaves every link as it was.)
    #[test]
    fn search_past_own_speculative_mark_stays_logarithmic() {
        const KEYS: u64 = 1 << 14;
        let mgr = TxManager::new();
        let mut h = mgr.register();
        let sl = SkipList::new();
        for k in 0..KEYS {
            assert!(sl.insert(&mut h.nontx(), k, k));
        }
        // A tall tower in the middle: the index leads to it on every level.
        let tall = keys_on_level(&sl, 4);
        let a = tall[tall.len() / 2];
        assert!(a > KEYS / 8 && a + 1 < KEYS, "picked {a}");
        let hops: TxResult<u64> = h.run(|tx| {
            assert_eq!(sl.remove(tx, a), Some(a));
            let hops = medley::failpoint::arm("chain::hop", |_| {});
            assert_eq!(sl.get(tx, a + 1), Some(a + 1));
            assert_eq!(sl.get(tx, a), None);
            // Marks the dead tower's level-0 link, speculatively: the index
            // still leads to it on every level above.
            assert!(sl.insert(tx, a, 7));
            assert_eq!(sl.get(tx, a + 1), Some(a + 1));
            assert_eq!(sl.get(tx, a), Some(7));
            Ok(hops.hits())
        });
        let hops = hops.unwrap();
        assert!(
            hops < 400,
            "five searches next to an own removal took {hops} hops"
        );
        assert_eq!(sl.get(&mut h.nontx(), a), Some(7));
        assert_eq!(sl.len_quiescent() as u64, KEYS);
        assert_eq!(sl.check_integrity_quiescent(), Ok((0, 0)));
    }

    /// The descent's cost: a lookup among n keys steps over a few nodes per
    /// level, index and level 0 together, and starts at the highest occupied
    /// level — the empty head levels above it are not even read.  A hit on a
    /// tower taller than 1, about half of them, ends in the index and runs
    /// no level-0 traversal.
    #[test]
    fn descent_is_logarithmic_and_starts_at_top() {
        const KEYS: u64 = 1 << 14;
        const GETS: u64 = 1_000;
        let mgr = TxManager::new();
        let mut h = mgr.register();
        let sl = SkipList::new();
        for k in 0..KEYS {
            assert!(sl.insert(&mut h.nontx(), k, k));
        }
        let top = usize::from(sl.top.load(Ordering::Relaxed));
        assert!(top < MAX_HEIGHT, "top {top}");
        let mut rng = medley::util::FastRng::new(5);
        let heads = std::rc::Rc::new(std::cell::Cell::new(0u32));
        let read = std::rc::Rc::clone(&heads);
        let _heads = failpoint::arm("skiplist::head", move |l| read.set(read.get() | 1 << l));
        let hops = failpoint::arm("chain::hop", |_| {});
        let floors = failpoint::arm("skiplist::floor", |_| {});
        for _ in 0..GETS {
            let k = rng.next_below(KEYS);
            assert_eq!(sl.get(&mut h.nontx(), k), Some(k));
        }
        let hops = hops.hits() / GETS;
        assert!(hops <= 3 * 14, "{hops} hops per get at 2^14 keys");
        let floors = floors.hits();
        assert!(
            (GETS - floors) * 10 >= GETS * 4,
            "only {} of {GETS} gets ended above level 0",
            GETS - floors
        );
        assert_eq!(
            heads.get() >> top,
            0,
            "a head word at or above top {top} was read"
        );
        assert_ne!(heads.get() & 1 << (top - 1), 0, "the descent starts at top");
    }

    /// A remover parked between marking a tall tower on every lane and
    /// purging it leaves a dead tower in the whole index.  The descent walks
    /// through it; whatever starts a chain traversal from it — a level-0
    /// search, the maintenance of a neighbour that took it as a hint — backs
    /// off to an earlier hint.  (Were a dead hint answered by a new descent,
    /// which no longer helps, that would spin until the remover resumed.)
    #[test]
    fn parked_remover_of_a_tall_tower_does_not_block_its_neighbours() {
        const BASE: u64 = 0x7A11_0000_0000;
        const STRIDE: u64 = 4;
        let mgr = TxManager::new();
        let sl = SkipList::<u64>::new();
        let mut h = mgr.register();
        for k in 0..256 {
            assert!(sl.insert(&mut h.nontx(), BASE + k * STRIDE, k));
        }
        let tall = keys_on_level(&sl, 3);
        let key = tall[tall.len() / 2];
        let (lo, hi, above) = (key - STRIDE, key + STRIDE, key + 1);
        let val = |k: u64| (k - BASE) / STRIDE;
        std::thread::scope(|s| {
            let (park, arm_here) = failpoint::park("skiplist::before_purge", key);
            s.spawn(|| {
                let _armed = arm_here();
                let mut h = mgr.register();
                assert_eq!(sl.remove(&mut h.nontx(), key), Some(val(key)));
            });
            park.wait();
            let expect = (Some(val(lo)), Some(val(hi)), false);
            let nontx = (sl.get(&mut h.nontx(), lo), sl.get(&mut h.nontx(), hi));
            assert_eq!((nontx.0, nontx.1, sl.contains(&mut h.nontx(), key)), expect);
            let txn: TxResult<_> =
                h.run(|tx| Ok((sl.get(tx, lo), sl.get(tx, hi), sl.contains(tx, key))));
            assert_eq!(txn, Ok(expect));
            let page = [(lo, val(lo)), (hi, val(hi))];
            assert_eq!(sl.range(&mut h.nontx(), lo..hi + 1, 8), page);
            let txn: TxResult<_> = h.run(|tx| Ok(sl.range(tx, lo..hi + 1, 8)));
            assert_eq!(txn.unwrap(), page);
            // Until the insert is tall enough to link an upper lane, whose
            // hint is the dead tower.
            for attempt in 0.. {
                assert!(attempt < 64, "no tower of height > 1 in 64 inserts");
                assert!(sl.insert(&mut h.nontx(), above, 1));
                if keys_on_level(&sl, 1).contains(&above) {
                    break;
                }
                assert_eq!(sl.remove(&mut h.nontx(), above), Some(1));
            }
            assert_eq!(sl.get(&mut h.nontx(), above), Some(1));
        });
        assert_eq!(sl.check_integrity_quiescent(), Ok((0, 0)));
        assert_eq!(sl.get(&mut h.nontx(), key), None);
        assert_eq!(sl.get(&mut h.nontx(), above), Some(1));
        assert_eq!(sl.len_quiescent(), 256);
    }

    /// A linker stalled between preparing its node's lane and the link CAS
    /// links a node whose remover has marked and purged that lane already.
    /// The node must not be retired under it, and must be out of the lane
    /// again when the linker returns.  (When the remover alone retired, the
    /// link stayed: a dangling index pointer once the churn below had
    /// recycled the node's memory.)
    #[test]
    fn late_link_of_a_removed_node_is_undone() {
        const KEY: u64 = 0x5EED_0000_0000;
        let mgr = TxManager::new();
        let sl = SkipList::<u64>::new();
        let mut h = mgr.register();
        for k in 0..64 {
            sl.insert(&mut h.nontx(), KEY - 1_000 + k, 0);
        }
        std::thread::scope(|s| {
            let (park, arm_here) = failpoint::park("skiplist::before_link", KEY);
            s.spawn(|| {
                let armed = arm_here();
                let mut h = mgr.register();
                // Until a tower taller than one level comes up and parks.
                while armed.hits() == 0 {
                    sl.remove(&mut h.nontx(), KEY);
                    assert!(sl.insert(&mut h.nontx(), KEY, 1));
                }
            });
            park.wait();
            assert_eq!(sl.remove(&mut h.nontx(), KEY), Some(1));
            // Unrelated churn far below the key: epochs advance, and memory
            // that was retired meanwhile is freed and reused.
            // (Remove and insert: a `put` over a present key retires nothing.)
            for i in 0..20_000u64 {
                sl.remove(&mut h.nontx(), i % 512);
                sl.insert(&mut h.nontx(), i % 512, i);
            }
        });
        // Before any other traversal could tidy up behind the linker.
        assert_eq!(sl.check_integrity_quiescent(), Ok((0, 0)));
        assert_eq!(sl.get(&mut h.nontx(), KEY), None);
    }

    /// Between a remove's linearization and the first mark its node is dead
    /// but unmarked: absent for a reader, which writes nothing, and helped
    /// out of the way by an insert of the key, whose new tower then shares
    /// the upper levels with the dead one until the remover's purge.
    #[test]
    fn dead_unmarked_node_is_absent_to_readers_and_replaced_by_insert() {
        const KEY: u64 = 0xDEAD_0000_0000;
        let mgr = TxManager::new();
        let sl = SkipList::<u64>::new();
        let mut h = mgr.register();
        for k in 0..64 {
            sl.insert(&mut h.nontx(), KEY - 32 + k, k);
        }
        std::thread::scope(|s| {
            let (park, arm_here) = failpoint::park("skiplist::before_mark", KEY);
            s.spawn(|| {
                let _armed = arm_here();
                let mut h = mgr.register();
                assert_eq!(sl.remove(&mut h.nontx(), KEY), Some(32));
            });
            park.wait();
            let cases = failpoint::arm("chain::cas", |_| {});
            assert_eq!(sl.get(&mut h.nontx(), KEY), None);
            assert!(!sl.contains(&mut h.nontx(), KEY));
            let seen: TxResult<_> = h.run(|tx| Ok((sl.get(tx, KEY), sl.contains(tx, KEY))));
            assert_eq!(seen, Ok((None, false)));
            let page = sl.range(&mut h.nontx(), KEY - 1..KEY + 2, 8);
            assert_eq!(page, [(KEY - 1, 31), (KEY + 1, 33)]);
            assert_eq!(cases.hits(), 0, "a reader wrote");
            assert_eq!(sl.remove(&mut h.nontx(), KEY), None);
            assert_eq!(cases.hits(), 0, "a failed remove wrote");
            assert!(sl.insert(&mut h.nontx(), KEY, 99));
            assert_eq!(sl.get(&mut h.nontx(), KEY), Some(99));
        });
        assert_eq!(sl.check_integrity_quiescent(), Ok((0, 0)));
        assert_eq!(sl.get(&mut h.nontx(), KEY), Some(99));
        assert_eq!(sl.len_quiescent(), 64);
    }

    /// A get that ends in the index registers the value word it found there,
    /// so a foreign `put` of the key before the commit fails the commit.
    #[test]
    fn a_get_ended_in_the_index_conflicts_with_a_foreign_put() {
        let mgr = TxManager::new();
        let (mut mine, mut other) = (mgr.register(), mgr.register());
        let sl = SkipList::new();
        for k in 0..1024 {
            assert!(sl.insert(&mut other.nontx(), k, k));
        }
        let key = tall_key(&sl, 3);
        let mut t = mine.begin();
        let floors = failpoint::arm("skiplist::floor", |_| {});
        assert_eq!(sl.get(&mut t, key), Some(key));
        assert_eq!(floors.hits(), 0, "the get went down to level 0");
        assert_eq!(sl.put(&mut other.nontx(), key, 7), Some(key));
        assert_eq!(t.commit(), Err(TxError::Conflict));
        assert_eq!(mine.run(|tx| Ok(sl.get(tx, key))), Ok(Some(7)));
    }

    /// A remover of a tall tower parked before its first mark leaves the dead
    /// tower unmarked on every level, where a lookup of the key meets it.
    /// Once the key is inserted again, `get` and `contains`, standalone and in
    /// a transaction, return the new tower's value: the dead word sends them
    /// on down.  The new tower is taken again until it is of height 1, so
    /// that the dead one is the only tower of the key in the index.
    #[test]
    fn lookups_pass_a_dead_tower_in_the_index_to_the_key_s_new_one() {
        const BASE: u64 = 0xE417_0000_0000;
        let mgr = TxManager::new();
        let sl = SkipList::<u64>::new();
        let mut h = mgr.register();
        for k in 0..256 {
            assert!(sl.insert(&mut h.nontx(), BASE + 4 * k, k));
        }
        let key = tall_key(&sl, 4);
        std::thread::scope(|s| {
            let (park, arm_here) = failpoint::park("skiplist::before_mark", key);
            s.spawn(|| {
                let _armed = arm_here();
                let mut h = mgr.register();
                assert_eq!(sl.remove(&mut h.nontx(), key), Some((key - BASE) / 4));
            });
            park.wait();
            let towers =
                |sl: &SkipList<u64>| keys_on_level(sl, 1).iter().filter(|&&k| k == key).count();
            for val in 1000.. {
                assert!(val < 1064, "no tower of height 1 in 64 inserts");
                assert!(sl.insert(&mut h.nontx(), key, val));
                let nontx = (
                    sl.get(&mut h.nontx(), key),
                    sl.contains(&mut h.nontx(), key),
                );
                assert_eq!(nontx, (Some(val), true));
                let txn: TxResult<_> = h.run(|tx| Ok((sl.get(tx, key), sl.contains(tx, key))));
                assert_eq!(txn, Ok((Some(val), true)));
                if towers(&sl) == 1 {
                    break;
                }
                assert_eq!(sl.remove(&mut h.nontx(), key), Some(val));
            }
        });
        assert_eq!(sl.check_integrity_quiescent(), Ok((0, 0)));
        assert_eq!(sl.len_quiescent(), 256);
    }

    /// After its own remove of a tall tower's key, a transaction does not
    /// find the key, although the index still leads to the dead tower: its
    /// own write of the value word is what the early exit reads.
    #[test]
    fn an_own_remove_hides_a_tall_tower_from_the_early_exit() {
        let mgr = TxManager::new();
        let mut h = mgr.register();
        let sl = SkipList::new();
        for k in 0..1024 {
            assert!(sl.insert(&mut h.nontx(), k, k));
        }
        let key = tall_key(&sl, 3);
        let res = h.run(|tx| {
            assert_eq!(sl.remove(tx, key), Some(key));
            assert!(keys_on_level(&sl, 2).contains(&key), "the index lost it");
            Ok((sl.get(tx, key), sl.contains(tx, key), sl.insert(tx, key, 5)))
        });
        assert_eq!(res, Ok((None, false, true)));
        assert_eq!(sl.get(&mut h.nontx(), key), Some(5));
        assert_eq!(sl.check_integrity_quiescent(), Ok((0, 0)));
    }

    /// The integrity check compares every index word's key half with its
    /// successor's key, the head's words included.
    #[test]
    fn integrity_check_catches_a_wrong_key_half() {
        let mgr = TxManager::new();
        let mut h = mgr.register();
        let sl = SkipList::new();
        for k in 0..256 {
            assert!(sl.insert(&mut h.nontx(), k, k));
        }
        let first = tag::as_ptr::<Node<u64>>(halves(sl.index[1].load()).0);
        assert!(!first.is_null(), "no tower of height 3");
        // SAFETY: quiescent; `first` is linked on level 2.
        for (lane, level) in [(&sl.index[0], 1), (unsafe { sl.lane(first, 2) }, 2)] {
            let word = lane.load();
            let (bits, key) = halves(word);
            assert!(lane.cas(word, pair(bits, key ^ 1)));
            let err = sl
                .check_integrity_quiescent()
                .expect_err("a wrong key half");
            assert!(err.starts_with(&format!("level {level}:")), "{err}");
            assert!(lane.cas(pair(bits, key ^ 1), word));
            assert_eq!(sl.check_integrity_quiescent(), Ok((0, 0)));
        }
    }
}
