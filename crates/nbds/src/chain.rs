//! The marked-pointer ordered chain: the one Harris–Michael list core under
//! [`MichaelList`](crate::MichaelList), [`SplitOrderedMap`](crate::SplitOrderedMap)
//! and level 0 of [`SkipList`](crate::SkipList).
//!
//! A chain is a singly linked list of nodes sorted by [`Link::key`], hanging
//! off a start word that is never marked (a list head, a bucket sentinel's
//! link, a skiplist head tower).  A node's own link word carries the deletion
//! mark in its low bit: a node is in the set exactly while its link is
//! unmarked, and a marked link never changes again.  A node may carry several
//! link words — *lanes* — and so sit in several chains at once: the list and
//! the split-ordered map have lane 0 only, a skiplist tower has one lane per
//! level, and every level of the skiplist is this chain on its lane.
//!
//! The NBTC transformation of the paper is applied here, once:
//!
//! * [`try_find`] is the only traversal (counted loads, help-unlink);
//! * [`Position::link`], `replace` and `mark` are the only linearizing CASes
//!   — exactly **one** critical CAS per update, so a single-update
//!   transaction commits with one plain CAS;
//! * [`Position::register_read`] is the only rule choosing the word a
//!   read-only outcome registers (the table in the [crate docs](crate)), and
//!   it names the words those three CASes hit;
//! * unlinking and retiring a deleted node is post-linearization cleanup,
//!   registered with `add_cleanup` so a transaction runs it after commit;
//!   nodes come from `tnew`, so an abort frees them.
//!
//! The code is compiled twice: [`TRACKED`] goes through the transactional
//! primitives and is what item operations use; [`UNTRACKED`] goes through
//! `untracked_load`/`untracked_cas` for layout work that must never join a
//! transaction's footprint (bucket-sentinel splicing).
//!
//! # Contract
//!
//! Nodes are reclaimed through EBR, so every function that follows a link is
//! `unsafe`: the caller must be inside [`Ctx::with_op`] (which holds the pin)
//! and must only pass start words of chains whose nodes are all `Box<N>`
//! allocations linked through this module.  A [`Position`] is a set of
//! pointers observed under that pin and must not outlive the `with_op` call
//! it was produced in.

use crate::tag;
use medley::{CasWord, Ctx};

/// A node that can be linked into a chain: an ordering key plus, per lane,
/// the link to its successor there.
pub(crate) trait Link: Sized {
    /// The chain's sort key.
    type Key: Ord + Copy;
    /// Whether the traversal that physically unlinks a marked node also
    /// retires it.  `false` for skiplist towers, which may still be linked in
    /// other lanes and are retired by the skiplist's own protocol instead.
    const RETIRE_ON_UNLINK: bool;
    fn key(&self) -> Self::Key;
    /// The node's link word in `lane`.
    ///
    /// # Safety
    /// `this` is a live node that has `lane`, and the pointer may be used for
    /// the node's whole allocation (a tower's lanes lie behind its header).
    unsafe fn lane(this: *const Self, lane: usize) -> *const CasWord;
    /// Frees a node nobody else can reach.
    ///
    /// # Safety
    /// `this` came from `Ctx::tnew` (or a `Box`) of the type the node was
    /// allocated as, and is not used again.
    unsafe fn free(this: *mut Self) {
        // SAFETY: the caller's contract; a node is a `Box<Self>` unless the
        // implementor says otherwise by overriding this.
        drop(unsafe { Box::from_raw(this) });
    }
}

/// The plain chain node of the list and the split-ordered map.
pub(crate) struct Node<K, V> {
    pub(crate) key: K,
    pub(crate) val: V,
    next: CasWord,
}

impl<K: Ord + Copy, V> Link for Node<K, V> {
    type Key = K;
    const RETIRE_ON_UNLINK: bool = true;
    fn key(&self) -> K {
        self.key
    }
    unsafe fn lane(this: *const Self, _lane: usize) -> *const CasWord {
        // SAFETY: `this` is live (caller contract).
        unsafe { &raw const (*this).next }
    }
}

/// Accesses join the enclosing transaction (and are the plain algorithm under
/// [`medley::NonTx`]).
pub(crate) const TRACKED: bool = true;
/// Accesses take effect at once and are never validated or rolled back.
pub(crate) const UNTRACKED: bool = false;

/// Loads `(value, counter token)`.  An untracked load has no token, which is
/// why [`Position::register_read`] exists for [`TRACKED`] positions only.
fn load<const T: bool, C: Ctx>(cx: &mut C, w: &CasWord) -> (u64, u64) {
    if T {
        cx.nbtc_load_counted(w)
    } else {
        (cx.untracked_load(w), 0)
    }
}

/// CAS on the value; `lin_pt` says whether success linearizes (and
/// publishes) the caller's operation.
fn cas<const T: bool, C: Ctx>(cx: &mut C, w: &CasWord, old: u64, new: u64, lin_pt: bool) -> bool {
    if T {
        cx.nbtc_cas(w, old, new, lin_pt, lin_pt)
    } else {
        cx.untracked_cas(w, old, new)
    }
}

/// Where a key is, or would be, in one lane: the predecessor word with the
/// value and counter token observed in it, and the candidate node (the first
/// with key ≥ the target) with what was observed in *its* link.
pub(crate) struct Position<N, const T: bool> {
    lane: usize,
    /// Owner of `prev`; null while `prev` is still the traversal's start word.
    pred: *mut N,
    prev: *const CasWord,
    /// Never marked: equals `tag::from_ptr(curr)`.
    prev_val: u64,
    prev_cnt: u64,
    curr: *mut N,
    /// Unmarked link of `curr` and its token; zero when `curr` is null.
    next: u64,
    next_cnt: u64,
    found: bool,
}

// Nodes stepped over by `try_find` on this thread, for tests that bound a
// traversal's length.
#[cfg(test)]
thread_local!(pub(crate) static HOPS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) });

/// One pass of Michael's `find` along `lane` from `start`: stops before the
/// first node with key ≥ `key`, physically unlinking every marked node met on
/// the way.  `None` means the pass has to be restarted — it lost an unlink
/// race, or the predecessor word turned out marked (its owner is deleted; a
/// frozen word must never be reported as a predecessor, because no later
/// insert would CAS it).  The second case includes a `start` that is itself a
/// dead node's link, which only a skiplist hint can be.
///
/// # Safety
/// See the module contract; every node of the chain has `lane`.
pub(crate) unsafe fn try_find<const T: bool, N: Link + Send + 'static, C: Ctx>(
    cx: &mut C,
    start: &CasWord,
    lane: usize,
    key: N::Key,
) -> Option<Position<N, T>> {
    let mut pred = std::ptr::null_mut();
    let mut prev = start;
    let (mut curr_bits, mut prev_cnt) = load::<T, C>(cx, prev);
    loop {
        if tag::is_marked(curr_bits) {
            return None;
        }
        let curr = tag::as_ptr::<N>(curr_bits);
        let mut pos = Position {
            lane,
            pred,
            prev,
            prev_val: curr_bits,
            prev_cnt,
            curr,
            next: 0,
            next_cnt: 0,
            found: false,
        };
        if curr.is_null() {
            return Some(pos);
        }
        // SAFETY: `curr` was reachable from the chain under the caller's pin,
        // so it is a live `N`, and it has `lane` because it is linked there.
        let (ckey, link) = unsafe { ((*curr).key(), &*N::lane(curr, lane)) };
        let (next_bits, next_cnt) = load::<T, C>(cx, link);
        if tag::is_marked(next_bits) {
            // `curr` is logically deleted by an operation that has already
            // linearized; help unlink it.  Not a linearization point of ours,
            // but the runtime makes it critical on its own if it follows a
            // speculative read of the same transaction.
            if !cas::<T, C>(cx, prev, curr_bits, tag::unmarked(next_bits), false) {
                return None;
            }
            if N::RETIRE_ON_UNLINK {
                // A helping CAS is applied at once, and then no abort undoes
                // it, unless the transaction buffered it; only a buffered
                // unlink may leave the retirement to the commit (an aborted
                // attempt would otherwise drop it and leak the node).
                // SAFETY: winning the unlink CAS makes this thread the only
                // retirer of `curr`, which is unreachable now, or will be
                // once the buffered unlink commits.
                unsafe {
                    if T && cx.write_is_buffered(prev) {
                        cx.tretire(curr)
                    } else {
                        cx.retire_now(curr)
                    }
                }
            }
            // The unlink advanced `prev`'s counter; reload so the token is
            // the one a later registration or CAS has to match.
            (curr_bits, prev_cnt) = load::<T, C>(cx, prev);
            continue;
        }
        if ckey >= key {
            pos.next = next_bits;
            pos.next_cnt = next_cnt;
            pos.found = ckey == key;
            return Some(pos);
        }
        #[cfg(test)]
        HOPS.with(|h| h.set(h.get() + 1));
        pred = curr;
        prev = link;
        curr_bits = next_bits;
        prev_cnt = next_cnt;
    }
}

/// [`try_find`] on lane 0 until it succeeds, for chains whose `start` is
/// immortal.
///
/// # Safety
/// See the module contract.
pub(crate) unsafe fn find<const T: bool, N: Link + Send + 'static, C: Ctx>(
    cx: &mut C,
    start: &CasWord,
    key: N::Key,
) -> Position<N, T> {
    loop {
        // SAFETY: forwarded from the caller's contract; lane 0 always exists.
        if let Some(pos) = unsafe { try_find(cx, start, 0, key) } {
            return pos;
        }
    }
}

impl<N: Link, const T: bool> Position<N, T> {
    /// The node holding the key, if the key is present.
    pub(crate) fn node(&self) -> Option<&N> {
        // SAFETY: `curr` is non-null when `found`, and stays allocated for as
        // long as the pin the position was taken under (module contract).
        self.found.then(|| unsafe { &*self.curr })
    }

    /// The candidate node (null at the end of the chain).
    pub(crate) fn curr(&self) -> *mut N {
        self.curr
    }

    /// The node owning the predecessor word; null if that is still the word
    /// the traversal started from.
    pub(crate) fn pred(&self) -> *mut N {
        self.pred
    }

    /// The predecessor word and the (unmarked) bits of the candidate seen in
    /// it, for callers that link a node that is already shared and so cannot
    /// use [`Position::link`].
    pub(crate) fn prev(&self) -> (*const CasWord, u64) {
        (self.prev, self.prev_val)
    }

    /// Links `node` in front of the candidate: the linearization (and
    /// publication) point of an insert, a CAS on the **predecessor word**.
    ///
    /// # Safety
    /// `node` is a live allocation not reachable from any chain, and the key
    /// is absent at this position.
    pub(crate) unsafe fn link<C: Ctx>(&self, cx: &mut C, node: *mut N) -> bool {
        // SAFETY: `node` is private to the caller; `prev` is the start word or
        // a pinned node's link.
        unsafe {
            (*N::lane(node, self.lane)).store_value(self.prev_val);
            cas::<T, C>(cx, &*self.prev, self.prev_val, tag::from_ptr(node), true)
        }
    }

    /// Replaces the found node by `node` (paper Fig. 2): one CAS on the
    /// **found node's link** marks it *at* the replacement, which removes the
    /// old node and splices the new one in at once.
    ///
    /// # Safety
    /// `node` is a live allocation not reachable from any chain, and the key
    /// is present at this position.
    unsafe fn replace<C: Ctx>(&self, cx: &mut C, node: *mut N) -> bool {
        // SAFETY: `node` is private to the caller; `curr` is pinned.
        unsafe {
            (*N::lane(node, self.lane)).store_value(self.next);
            let marked_at_node = tag::marked(tag::from_ptr(node));
            cas::<T, C>(cx, self.curr_link(), self.next, marked_at_node, true)
        }
    }

    /// Logically deletes the found node: the linearization point of a
    /// remove, a CAS on the **found node's link**.
    ///
    /// # Safety
    /// The key is present at this position.
    unsafe fn mark<C: Ctx>(&self, cx: &mut C) -> bool {
        // SAFETY: `curr` is pinned and non-null (caller contract).
        let link = unsafe { self.curr_link() };
        cas::<T, C>(cx, link, self.next, tag::marked(self.next), true)
    }

    /// The candidate's link word in this position's lane.
    ///
    /// # Safety
    /// `curr` is non-null.
    unsafe fn curr_link(&self) -> &CasWord {
        // SAFETY: `curr` stays allocated for as long as the pin the position
        // was taken under, and is linked in `lane`.
        unsafe { &*N::lane(self.curr, self.lane) }
    }
}

impl<N: Link> Position<N, TRACKED> {
    /// Registers the linearizing load of a read-only outcome (found or absent
    /// `get`/`contains`, failed `insert`, failed `remove`): **the word whose
    /// CAS would make the outcome wrong**.
    ///
    /// * key present ⇒ the found node's link `(curr.next, next, next_cnt)`:
    ///   `replace` and `mark` — the only ways the key's binding can change —
    ///   CAS exactly that word;
    /// * key absent ⇒ the predecessor word `(prev, prev_val, prev_cnt)`:
    ///   `link` must CAS it to make the key appear, and deleting the
    ///   predecessor's owner marks it.
    fn register_read<C: Ctx>(&self, cx: &mut C) {
        if self.found {
            // SAFETY: `curr` is non-null when `found`.
            cx.add_read_with_counter(unsafe { self.curr_link() }, self.next, self.next_cnt)
        } else {
            self.register_prev(cx)
        }
    }

    /// Completes a lookup: maps the node holding the key through `f` and
    /// registers the outcome, present or absent.
    pub(crate) fn read<C: Ctx, R>(&self, cx: &mut C, f: impl FnOnce(&N) -> R) -> Option<R> {
        let res = self.node().map(f);
        self.register_read(cx);
        res
    }

    /// Registers the link into the candidate, whatever the candidate's key:
    /// the first read of a range cursor, which proves nothing was inserted
    /// between the predecessor and the candidate.
    pub(crate) fn register_prev<C: Ctx>(&self, cx: &mut C) {
        // SAFETY: `prev` is the start word or a pinned node's link.
        cx.add_read_with_counter(unsafe { &*self.prev }, self.prev_val, self.prev_cnt);
    }
}

// Updates, generic over how the position is found (`find` from a start word,
// or the skiplist's descent through its index)

/// Inserts the private node `node` unless its key is present, in which case
/// the failed insert registers as a read and the node is still the caller's
/// (to `tdelete` as the type it was allocated as).
///
/// # Safety
/// `node` is unpublished; `locate` returns positions of `node`'s key taken
/// under the current pin.
pub(crate) unsafe fn insert<N: Link, C: Ctx>(
    cx: &mut C,
    node: *mut N,
    mut locate: impl FnMut(&mut C) -> Position<N, TRACKED>,
) -> bool {
    loop {
        let pos = locate(cx);
        if pos.found {
            pos.register_read(cx);
            return false;
        }
        // SAFETY: `node` is still private and the key is absent.
        if unsafe { pos.link(cx, node) } {
            return true;
        }
    }
}

/// Inserts the private node `node`, or replaces the node holding its key:
/// returns the position of the replaced node, `None` if none was.
///
/// # Safety
/// As for [`insert`].
pub(crate) unsafe fn put<N: Link, C: Ctx>(
    cx: &mut C,
    node: *mut N,
    mut locate: impl FnMut(&mut C) -> Position<N, TRACKED>,
) -> Option<Position<N, TRACKED>> {
    loop {
        let pos = locate(cx);
        // SAFETY (both arms): `node` is still private, and the arm matches
        // whether the key is present.
        if pos.found {
            if unsafe { pos.replace(cx, node) } {
                return Some(pos);
            }
        } else if unsafe { pos.link(cx, node) } {
            return None;
        }
    }
}

/// Marks the node holding the key and returns its position; `None` (a
/// read-only outcome, registered) if the key is absent.
pub(crate) fn remove<N: Link, C: Ctx>(
    cx: &mut C,
    mut locate: impl FnMut(&mut C) -> Position<N, TRACKED>,
) -> Option<Position<N, TRACKED>> {
    loop {
        let pos = locate(cx);
        if !pos.found {
            pos.register_read(cx);
            return None;
        }
        // SAFETY: the key is present.
        if unsafe { pos.mark(cx) } {
            return Some(pos);
        }
    }
}

// Map operations over `Node<K, V>` chains (list, split-ordered map)

/// # Safety
/// All four operations: see the module contract.
impl<K: Ord + Copy + Send + 'static, V: Send + 'static> Node<K, V> {
    pub(crate) fn new(key: K, val: V) -> Self {
        let next = CasWord::new(0);
        Self { key, val, next }
    }

    /// Looks `key` up and maps its value through `read`.
    pub(crate) unsafe fn lookup<C: Ctx, R>(
        cx: &mut C,
        start: &CasWord,
        key: K,
        read: impl FnOnce(&V) -> R,
    ) -> Option<R> {
        // SAFETY: forwarded from the caller's contract.
        unsafe { find::<TRACKED, Self, C>(cx, start, key) }.read(cx, |n| read(&n.val))
    }

    /// Inserts `key -> val` only if `key` is absent.
    pub(crate) unsafe fn insert<C: Ctx>(cx: &mut C, start: &CasWord, key: K, val: V) -> bool {
        let node = cx.tnew(Self::new(key, val));
        // SAFETY: `node` is fresh, and still private if it was not inserted;
        // the rest is the caller's contract.
        unsafe {
            let inserted = insert(cx, node, |cx| find(cx, start, key));
            if !inserted {
                cx.tdelete(node);
            }
            inserted
        }
    }

    /// Inserts or replaces, returning the previous value (`None`: inserted).
    pub(crate) unsafe fn put<C: Ctx>(cx: &mut C, start: &CasWord, key: K, val: V) -> Option<V>
    where
        V: Clone,
    {
        let node = cx.tnew(Self::new(key, val));
        // SAFETY: `node` is fresh; the rest is the caller's contract.
        let replaced = unsafe { put(cx, node, |cx| find(cx, start, key)) }?;
        let old = replaced.node().map(|old| old.val.clone());
        replaced.unlink_on_commit(cx, tag::from_ptr(node));
        old
    }

    /// Removes `key`, returning its value if it was present.
    pub(crate) unsafe fn remove<C: Ctx>(cx: &mut C, start: &CasWord, key: K) -> Option<V>
    where
        V: Clone,
    {
        // SAFETY: forwarded from the caller's contract.
        let removed = remove(cx, |cx| unsafe { find::<TRACKED, Self, C>(cx, start, key) })?;
        let old = removed.node().map(|old| old.val.clone());
        removed.unlink_on_commit(cx, removed.next);
        old
    }
}

impl<N: Link + Send + 'static> Position<N, TRACKED> {
    /// After `replace`/`mark` linearized: once the outcome is decided (at
    /// once standalone, post-commit in a transaction, never on abort) swing
    /// the predecessor from the dead node to `succ` and retire the node.
    fn unlink_on_commit<C: Ctx>(&self, cx: &mut C, succ: u64) {
        let (prev, curr) = (self.prev as usize, self.curr as usize);
        cx.add_cleanup(move |h| {
            // SAFETY: the structure outlives the transaction (caller contract
            // of every container), so `prev` is still a link word of it.
            if unsafe { &*(prev as *const CasWord) }.cas_value(curr as u64, succ) {
                // SAFETY: winning the unlink makes this the only retirer.
                unsafe { h.retire_now(curr as *mut N) };
            }
            // Otherwise a concurrent traversal already helped.
        });
    }
}

// Quiescent walks

/// Calls `f(node, live)` for every node reachable from `head` on lane 0, in
/// chain order; `live` is false for logically deleted nodes not yet unlinked.
///
/// # Safety
/// No operation may run on the chain concurrently.
pub(crate) unsafe fn walk<N: Link>(head: &CasWord, mut f: impl FnMut(&N, bool)) {
    let mut bits = head.load_value_spin();
    while !tag::as_ptr::<N>(bits).is_null() {
        let node = tag::as_ptr::<N>(bits);
        // SAFETY: quiescence is the caller's contract, so every reachable
        // node stays allocated for the whole walk; lane 0 always exists.
        unsafe {
            bits = (*N::lane(node, 0)).load_value_spin();
            f(&*node, !tag::is_marked(bits));
        }
    }
}

/// Frees every node still reachable from `head` on lane 0 (nodes unlinked
/// earlier are owned by the EBR limbo bags).
///
/// # Safety
/// The caller has exclusive access to the chain and never uses it again.
pub(crate) unsafe fn free_all<N: Link>(head: &CasWord) {
    let mut bits = head.load_value_spin();
    while !tag::as_ptr::<N>(bits).is_null() {
        let node = tag::as_ptr::<N>(bits);
        // SAFETY: exclusive access; every node appears in the chain once, so
        // it is live until freed here, right after its link was read.
        unsafe {
            bits = (*N::lane(node, 0)).load_value_spin();
            N::free(node);
        }
    }
}
