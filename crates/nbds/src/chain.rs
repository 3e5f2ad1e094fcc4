//! The marked-pointer ordered chain: the one Harris–Michael list core under
//! [`MichaelList`](crate::MichaelList), [`SplitOrderedMap`](crate::SplitOrderedMap)
//! and level 0 of [`SkipList`](crate::SkipList).
//!
//! A chain is a singly linked list of nodes sorted by [`Link::key`], hanging
//! off a start word that is never marked (a list head, a bucket sentinel's
//! link, the skiplist's level-0 head), through one link word per node.  The
//! skiplist's upper levels are an index of plain pair words that no
//! transaction touches, kept by the skiplist itself.
//!
//! # The value word
//!
//! Besides its links a node carries one more [`CasWord`], the **value word**,
//! and that word alone says what the node's key is bound to: an inline `u64`
//! or a pointer to a boxed value while the key is in the set, [`DEAD`] from
//! the moment it is removed — for good; a dead node is never revived, a later
//! insert of the key links a new one.  So a key is in the set exactly while a
//! node holding it is linked on lane 0 with a live value word, and a present
//! key's binding changes by a CAS on that one word and in no other way.
//!
//! The deletion mark in the low bit of a link is what it is in Harris's
//! list — the promise that the link will never change again, which makes the
//! unlink safe — but it is no longer what removes the key.  It is set *after*
//! the removal linearized, by the remover's cleanup or by an insert that
//! finds the dead node in its way, whichever comes first.  Between the two
//! steps the node is dead but unmarked: absent for every reader, which
//! registers the predecessor word as for any miss and writes nothing, and
//! still a valid predecessor for its neighbours.
//!
//! (Paper Fig. 2 replaces a value by marking the old node's link *at* a new
//! node, one CAS that removes and splices at once.  That is replace-by-copy
//! — a node, its retirement and an unlink per `put` — where one CAS on a word
//! will do, so it is gone; and once `put` writes the value word, `remove`
//! has to linearize there too.  Were it still the mark, a standalone `put`
//! could win its CAS on a node whose link was marked a moment before, and
//! both would report the same previous value: two words, no atomicity.)
//!
//! The NBTC transformation of the paper is applied here, once:
//!
//! * [`try_find`] is the only traversal (counted loads, help-unlink); a
//!   skiplist lookup that meets its key alive in the index does without
//!   it, and its [`Position::alive`] registers the same value word;
//! * [`Position::link`] (predecessor word), `swap` and `kill` (value
//!   word) are the only linearizing CASes — exactly **one** critical CAS per
//!   update, so a single-update transaction commits with one plain CAS;
//! * [`Position::register_read`] is the only rule choosing the word a
//!   read-only outcome registers (the table in the [crate docs](crate)), and
//!   it names the words those three CASes hit;
//! * marking, unlinking and retiring a dead node is post-linearization
//!   cleanup, registered with `add_cleanup` so a transaction runs it after
//!   commit; nodes and boxed values come from `tnew`, so an abort frees them,
//!   and a replaced or removed box is `tretire`d.
//!
//! # The re-checked read
//!
//! A lookup that finds its key alive maps the value word through the
//! caller's function and then loads the word again ([`map_live`]).  If the
//! word still holds the same value and counter token, the mapping was of the
//! key's binding over the whole interval between the two loads, and that
//! pair is what the lookup registers and remembers.  If the word moved to
//! another live value, that value is mapped and re-checked in turn; if it
//! died, the lookup searches again.  An inline value or a box needs none of
//! this, since the pin keeps a box readable, but a word may also name a
//! record kept elsewhere that is reused as soon as the binding leaves the
//! word (a `txmontage` payload id: its slot can be recycled on the spot).
//! The unchanged pair is what proves the record was not reused during the
//! read.  The price is one load of a line the lookup has just read.
//! Standalone, the re-load is the read's linearization point; in a
//! transaction the pair is validated at commit as any registered read, and
//! a word the transaction has written re-loads as its buffered value.
//!
//! # The found-word memo
//!
//! A transaction that reads a key and then writes it would search for the
//! same value word twice.  So a lookup that finds its key alive — `get`,
//! `contains`, a failed `insert`, the replace of a `put` — files the word in
//! the transaction's memo ([`Ctx::remember`], keyed by the container and the
//! key), and a later `put` of the key in the same transaction first CASes
//! that word ([`Ctx::recall`]); it searches only if the word is dead or the
//! CAS loses.  Taking the remembered word is exact, not a guess.  A key has
//! at most one node with a live value word, a dead word never revives, and
//! the transaction's pin, held from `begin` to its commit or abort, keeps the
//! node allocated.  So a remembered word that is alive in the transaction's
//! view — in memory, or in the transaction's own buffered write — belongs to
//! the key's holder, and the CAS is the one a search would have made.
//! Whatever changed since the lookup fails the lookup's registered read, or
//! the CAS's pre-image, at commit, as it would after a search.  A `remove`
//! still searches, because its cleanup needs the predecessor.  Standalone
//! nothing is remembered, and the branch folds away.
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
use medley::{CasWord, Ctx, NonTx};
use std::any::Any;
use std::marker::PhantomData;
use std::ptr;

// The value word's encoding

/// Bit 63 of a value word: set, the rest is a pointer to a `Box<V>` from
/// `tnew`; clear, the word is the value itself — a `u64` below 2⁶³ in a
/// chain of `u64`s, the one case where a `put` need not allocate.  (User
/// addresses keep bit 63 clear on every 64-bit target there is.)
const BOXED: u64 = 1 << 63;

/// The value word of a removed key: the boxed arm with a null pointer.
pub(crate) const DEAD: u64 = BOXED;

/// The value word of a node that carries no value and is never removed (a
/// bucket sentinel): live, owns no box, never read.
pub(crate) const NO_VALUE: u64 = 0;

/// Encodes `val` as a live value word, boxing it unless it is a `u64` that
/// fits inline.  (`V` is known at monomorphization, so the test folds.)
pub(crate) fn encode<V: Send + 'static, C: Ctx>(cx: &mut C, val: V) -> u64 {
    match (&val as &dyn Any).downcast_ref::<u64>() {
        Some(&word) if word & BOXED == 0 => word,
        _ => cx.tnew(val) as u64 | BOXED,
    }
}

/// The box behind `bits`, if there is one.
fn boxed<V>(bits: u64) -> Option<*mut V> {
    (bits & BOXED != 0 && bits != DEAD).then_some((bits ^ BOXED) as *mut V)
}

/// Maps the value encoded in the live word `bits` through `f`.
///
/// # Safety
/// `bits` was read, under the current pin, from the value word of a node in
/// a chain of `V`s.
unsafe fn decode<V: 'static, R>(bits: u64, f: impl FnOnce(&V) -> R) -> R {
    debug_assert_ne!(bits, DEAD);
    match boxed::<V>(bits) {
        // SAFETY: a box leaves its word only by a replace or a remove, which
        // retire it; the pin taken before the word was read outlasts that.
        Some(val) => f(unsafe { &*val }),
        None => f((&bits as &dyn Any)
            .downcast_ref()
            .expect("an inline value word in a chain of another type")),
    }
}

/// The value that `bits` — a live word just CASed out of a node by the
/// caller's replace or remove — was holding; its box, if any, is retired.
///
/// # Safety
/// As for [`decode`], and the caller's CAS is what took `bits` out.
pub(crate) unsafe fn take<V: Clone + Send + 'static, C: Ctx>(cx: &mut C, bits: u64) -> V {
    // SAFETY: forwarded; the CAS made this operation the box's only retirer.
    unsafe {
        let val = decode(bits, V::clone);
        if let Some(old) = boxed::<V>(bits) {
            cx.tretire(old);
        }
        val
    }
}

/// A node that can be linked into a chain: an ordering key, a value word
/// and the link to its successor.
pub(crate) trait Link: Sized {
    /// The chain's sort key.
    type Key: Ord + Copy;
    /// What the value word encodes.
    type Val;
    /// Whether the traversal that physically unlinks a marked node also
    /// retires it.  `false` for skiplist towers, which may still be linked in
    /// the index and are retired by the skiplist's own protocol instead.
    const RETIRE_ON_UNLINK: bool;
    fn key(&self) -> Self::Key;
    /// The node's value word.
    fn value(&self) -> &CasWord;
    /// The node's link word.
    fn next(&self) -> &CasWord;
    /// Frees a node nobody else can reach — the node, not what its value
    /// word points to.
    ///
    /// # Safety
    /// `this` came from `Ctx::tnew` (or a `Box`) of the type the node was
    /// allocated as, and is not used again.
    unsafe fn free(this: *mut Self) {
        // SAFETY: the caller's contract; a node is a `Box<Self>` unless the
        // implementor says otherwise by overriding this.
        drop(unsafe { Box::from_raw(this) });
    }
    /// [`Ctx::tdelete`] of a node that was never linked, as the type it was
    /// allocated as.
    ///
    /// # Safety
    /// `this` came from `cx.tnew` and is private to the caller.
    unsafe fn tdelete<C: Ctx>(cx: &mut C, this: *mut Self) {
        // SAFETY: the caller's contract; see `free`.
        unsafe { cx.tdelete(this) }
    }
}

/// The plain chain node of the list and the split-ordered map.
pub(crate) struct Node<K, V> {
    pub(crate) key: K,
    value: CasWord,
    next: CasWord,
    _val: PhantomData<V>,
}

impl<K: Ord + Copy, V> Link for Node<K, V> {
    type Key = K;
    type Val = V;
    const RETIRE_ON_UNLINK: bool = true;
    fn key(&self) -> K {
        self.key
    }
    fn value(&self) -> &CasWord {
        &self.value
    }
    fn next(&self) -> &CasWord {
        &self.next
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
    medley::failpoint!("chain::cas");
    if T {
        cx.nbtc_cas(w, old, new, lin_pt, lin_pt)
    } else {
        cx.untracked_cas(w, old, new)
    }
}

/// A key as the found-word memo files it (module docs): the container, by
/// address, and the key.
#[derive(Clone, Copy)]
pub(crate) struct MemoKey {
    owner: usize,
    key: u64,
}

impl MemoKey {
    pub(crate) fn new<T>(container: &T, key: u64) -> Self {
        Self {
            owner: container as *const T as usize,
            key,
        }
    }
}

/// What the candidate of a [`Position`] is to the key.
#[derive(Clone, Copy)]
enum Hold {
    /// Not its holder: there is no candidate, or its key is greater.
    No,
    /// It held the key, which was removed; `next` is its link, not marked
    /// yet.
    Dead { next: u64 },
    /// It holds the key: its value word and the token it was read with.  (Its
    /// link is not even loaded: alive is unmarked, and nothing else needs it.)
    Alive { val: u64, cnt: u64 },
}

/// Where a key is, or would be, in a chain: the predecessor word with the
/// value and counter token observed in it, and the candidate node (the first
/// unmarked one with key ≥ the target) with what it is to the key.
pub(crate) struct Position<N, const T: bool> {
    /// Null in a [`Position::alive`], which found no predecessor.
    prev: *const CasWord,
    /// Never marked: equals `tag::from_ptr(curr)`.
    prev_val: u64,
    prev_cnt: u64,
    curr: *mut N,
    hold: Hold,
}

/// One pass of Michael's `find` from `start`: stops before the first node
/// with key ≥ `key`, physically unlinking every marked node met on the way.
/// `None` means the pass has to be restarted — it lost an unlink race, or
/// the predecessor word turned out marked (its owner is deleted; a frozen
/// word must never be reported as a predecessor, because no later insert
/// would CAS it).  The second case includes a `start` that is itself a dead
/// node's link, which only a skiplist hint can be.
///
/// # Safety
/// See the module contract.
pub(crate) unsafe fn try_find<const T: bool, N: Link + Send + 'static, C: Ctx>(
    cx: &mut C,
    start: &CasWord,
    key: N::Key,
) -> Option<Position<N, T>> {
    let mut prev = start;
    let (mut curr_bits, mut prev_cnt) = load::<T, C>(cx, prev);
    loop {
        if tag::is_marked(curr_bits) {
            return None;
        }
        let curr = tag::as_ptr::<N>(curr_bits);
        let mut pos = Position {
            prev,
            prev_val: curr_bits,
            prev_cnt,
            curr,
            hold: Hold::No,
        };
        if curr.is_null() {
            return Some(pos);
        }
        // SAFETY: `curr` was reachable from the chain under the caller's pin,
        // so it is a live `N`.
        let node = unsafe { &*curr };
        let (ckey, link) = (node.key(), node.next());
        let holds = ckey == key;
        if holds {
            let (val, cnt) = load::<T, C>(cx, node.value());
            if val != DEAD {
                pos.hold = Hold::Alive { val, cnt };
                return Some(pos);
            }
        }
        let (next_bits, next_cnt) = load::<T, C>(cx, link);
        if tag::is_marked(next_bits) {
            // `curr` was removed by an operation that has already
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
            if holds {
                pos.hold = Hold::Dead { next: next_bits };
            }
            return Some(pos);
        }
        medley::failpoint!("chain::hop");
        prev = link;
        curr_bits = next_bits;
        prev_cnt = next_cnt;
    }
}

/// [`try_find`] until it succeeds, for chains whose `start` is immortal.
///
/// # Safety
/// See the module contract.
pub(crate) unsafe fn find<const T: bool, N: Link + Send + 'static, C: Ctx>(
    cx: &mut C,
    start: &CasWord,
    key: N::Key,
) -> Position<N, T> {
    loop {
        // SAFETY: forwarded from the caller's contract.
        if let Some(pos) = unsafe { try_find(cx, start, key) } {
            return pos;
        }
    }
}

impl<N: Link, const T: bool> Position<N, T> {
    /// The position of a key that a search found in `node`, its value word
    /// alive with `val` read with the token `cnt`, without the predecessor:
    /// the skiplist's early exit.  It reads, registers, remembers and swaps
    /// the same value word as a position from [`try_find`] holding `node`
    /// would, and is never linked at, removed from or used as a range start.
    pub(crate) fn alive(node: *mut N, val: u64, cnt: u64) -> Self {
        Self {
            prev: ptr::null(),
            prev_val: 0,
            prev_cnt: 0,
            curr: node,
            hold: Hold::Alive { val, cnt },
        }
    }

    /// Whether the key is present: the candidate holds it and is alive.
    pub(crate) fn found(&self) -> bool {
        matches!(self.hold, Hold::Alive { .. })
    }

    /// The candidate node (null at the end of the chain).
    pub(crate) fn curr(&self) -> *mut N {
        self.curr
    }

    /// Links `node` in front of the candidate: the linearization (and
    /// publication) point of an insert, a CAS on the **predecessor word**.
    ///
    /// # Safety
    /// `node` is a live allocation not reachable from any chain, and the key
    /// is absent at this position.
    pub(crate) unsafe fn link<C: Ctx>(&self, cx: &mut C, node: *mut N) -> bool {
        // SAFETY: `node` is private to the caller; `prev` is the start word or
        // a pinned node's link (a position with the key absent has one).
        unsafe {
            (*node).next().store_value(self.prev_val);
            cas::<T, C>(cx, &*self.prev, self.prev_val, tag::from_ptr(node), true)
        }
    }

    /// The candidate, which holds (or held) the key.
    fn holder(&self) -> &N {
        debug_assert!(!matches!(self.hold, Hold::No));
        // SAFETY: only `try_find` sets `hold`, on a candidate that is a
        // node; it stays allocated for as long as the pin the position was
        // taken under (module contract).
        unsafe { &*self.curr }
    }

    /// Rebinds the found key from the value word `val` to `bits`: the
    /// linearization point of a replacing `put`, a CAS on the **found node's
    /// value word**.
    fn swap<C: Ctx>(&self, cx: &mut C, val: u64, bits: u64) -> bool {
        cas::<T, C>(cx, self.holder().value(), val, bits, true)
    }

    /// Removes the found key: the linearization point of a remove, a CAS on
    /// the **found node's value word** that nothing ever follows.
    fn kill<C: Ctx>(&self, cx: &mut C, val: u64) -> bool {
        self.swap(cx, val, DEAD)
    }

    /// Marks the link `next` of a [`Hold::Dead`] candidate, which is in the
    /// way, so that the caller's next pass unlinks it: help for a remove that
    /// has linearized, never a linearization point.  Failure means the link
    /// moved on — marked by someone else, or a neighbour was linked behind
    /// the node — and the next pass sees that too.
    fn help_mark<C: Ctx>(&self, cx: &mut C, next: u64) {
        cas::<T, C>(cx, self.holder().next(), next, tag::marked(next), false);
    }
}

impl<N: Link> Position<N, TRACKED> {
    /// Registers the linearizing load of a read-only outcome (found or absent
    /// `get`/`contains`, failed `insert`, failed `remove`): **the word whose
    /// CAS would make the outcome wrong**.
    ///
    /// * key present ⇒ the found node's value word `(curr.value, val, cnt)`:
    ///   `swap` and `kill` — the only ways the key's binding can
    ///   change — CAS exactly that word;
    /// * key absent ⇒ the predecessor word `(prev, prev_val, prev_cnt)`:
    ///   `link` must CAS it to make the key appear, deleting the
    ///   predecessor's owner marks it, and if the candidate is a dead node
    ///   holding the key, an insert has to unlink that first — through this
    ///   very word.
    fn register_read<C: Ctx>(&self, cx: &mut C) {
        match self.hold {
            Hold::Alive { val, cnt } => cx.add_read_with_counter(self.holder().value(), val, cnt),
            _ => self.register_prev(cx),
        }
    }

    /// Completes a lookup of `at`: maps the value the key is bound to
    /// through `f` by a re-checked read (module docs), registers the
    /// outcome, present or absent, and remembers the value word of a present
    /// key.  `None` if the word died during the read: the caller searches
    /// again.
    fn read<C: Ctx, R>(
        &self,
        cx: &mut C,
        at: MemoKey,
        f: &mut impl FnMut(&N::Val) -> R,
    ) -> Option<Option<R>>
    where
        N::Val: 'static,
    {
        let Hold::Alive { val, cnt } = self.hold else {
            self.register_read(cx);
            return Some(None);
        };
        // SAFETY: `(val, cnt)` was read from the value word of a node of this
        // chain under the pin the position was taken under.
        let (res, val, cnt) = unsafe { map_live(cx, self.holder().value(), (val, cnt), f) }?;
        // What the key was bound to at the re-load.
        let read = Self {
            hold: Hold::Alive { val, cnt },
            ..*self
        };
        read.register_read(cx);
        read.remember(cx, at);
        Some(Some(res))
    }

    /// Files the value word of a found key in the transaction's memo, for a
    /// later `put` of the key (module docs).
    fn remember<C: Ctx>(&self, cx: &mut C, at: MemoKey) {
        if let Hold::Alive { .. } = self.hold {
            cx.remember(at.owner, at.key, self.holder().value());
        }
    }

    /// Registers the link into the candidate, whatever the candidate's key:
    /// the first read of a range cursor, which proves nothing was inserted
    /// between the predecessor and the candidate.
    pub(crate) fn register_prev<C: Ctx>(&self, cx: &mut C) {
        debug_assert!(!self.prev.is_null(), "an early exit has no predecessor");
        // SAFETY: `prev` is the start word or a pinned node's link.
        cx.add_read_with_counter(unsafe { &*self.prev }, self.prev_val, self.prev_cnt);
    }
}

/// Maps the live value that `word` held as `(val, cnt)` through `f`, then
/// re-loads `word`: the re-checked read (module docs).  Returns the result
/// of the mapping of the pair the word still held at its re-load, after
/// mapping each newer live value the word moved to in between, or `None` if
/// the word died.
///
/// # Safety
/// `word` is the value word of a node in a chain of `V`s, and `(val, cnt)`
/// a live value and its token read from it, under the current pin.
pub(crate) unsafe fn map_live<V: 'static, R, C: Ctx>(
    cx: &mut C,
    word: &CasWord,
    (mut val, mut cnt): (u64, u64),
    f: &mut impl FnMut(&V) -> R,
) -> Option<(R, u64, u64)> {
    loop {
        // SAFETY: the caller's contract, which every re-load under the same
        // pin keeps.
        let res = unsafe { decode(val, &mut *f) };
        let now = cx.nbtc_load_counted(word);
        if now == (val, cnt) {
            return Some((res, val, cnt));
        }
        if now.0 == DEAD {
            return None;
        }
        (val, cnt) = now;
    }
}

// Operations, generic over how the position is found (`find` from a start
// word, or the skiplist's descent through its index) and how a node is made

/// Looks the key of `at` up and maps the value it is bound to through `f`,
/// which may run more than once (module docs); the outcome, present or
/// absent, is registered, and the value word of a present key remembered.
///
/// # Safety
/// `locate` returns positions of the key of `at` taken under the current
/// pin in the container of `at`.
pub(crate) unsafe fn get<N: Link, C: Ctx, R>(
    cx: &mut C,
    at: MemoKey,
    mut locate: impl FnMut(&mut C) -> Position<N, TRACKED>,
    mut f: impl FnMut(&N::Val) -> R,
) -> Option<R>
where
    N::Val: 'static,
{
    loop {
        if let Some(res) = locate(cx).read(cx, at, &mut f) {
            return res;
        }
    }
}

/// Inserts a node made by `make` — called once, and only when the key was
/// seen absent — unless the key is present, in which case the failed insert
/// registers as a read (and remembers the word it found).  Returns the node
/// it linked.
///
/// # Safety
/// `locate` returns positions of the key of `at` taken under the current
/// pin in the container of `at`, and `make` a node from `cx.tnew` holding
/// that key, its value word from [`encode`].
pub(crate) unsafe fn insert<N: Link, C: Ctx>(
    cx: &mut C,
    at: MemoKey,
    mut locate: impl FnMut(&mut C) -> Position<N, TRACKED>,
    make: impl FnOnce(&mut C) -> *mut N,
) -> Option<*mut N> {
    let mut make = Some(make);
    let mut node: *mut N = ptr::null_mut();
    loop {
        let pos = locate(cx);
        match pos.hold {
            Hold::Alive { .. } => {
                pos.register_read(cx);
                pos.remember(cx, at);
                if !node.is_null() {
                    // Made for a position that somebody else's insert took.
                    // SAFETY: still private; both came from `cx.tnew`.
                    unsafe {
                        if let Some(val) = boxed::<N::Val>((*node).value().load_value_spin()) {
                            cx.tdelete(val);
                        }
                        N::tdelete(cx, node);
                    }
                }
                return None;
            }
            Hold::Dead { next } => pos.help_mark(cx, next),
            Hold::No => {
                if let Some(make) = make.take() {
                    node = make(cx);
                }
                // SAFETY: `node` is still private and the key is absent.
                if unsafe { pos.link(cx, node) } {
                    return Some(node);
                }
            }
        }
    }
}

/// What [`put`] did.
pub(crate) enum Put<N> {
    /// The key was absent: this node, made by `make`, holds it now.
    Inserted(*mut N),
    /// The key was present, bound to this value word, which the caller now
    /// has to [`take`].
    Replaced(u64),
}

/// Binds the key to the value word `bits`: one CAS on the value word of the
/// node holding it, or, if there is none, the insert of a node made by `make`.
/// The value word the transaction remembers for the key is tried first,
/// before any search (module docs).
///
/// # Safety
/// As for [`insert`]; `bits` came from [`encode`] and is what `make` puts
/// into its node.
pub(crate) unsafe fn put<N: Link, C: Ctx>(
    cx: &mut C,
    bits: u64,
    at: MemoKey,
    mut locate: impl FnMut(&mut C) -> Position<N, TRACKED>,
    make: impl FnOnce(&mut C) -> *mut N,
) -> Put<N> {
    if let Some(word) = cx.recall(at.owner, at.key) {
        // SAFETY: a value word of a node of this container, remembered by
        // the open transaction, whose pin keeps the node allocated.
        let word = unsafe { &*word };
        let (val, _) = cx.nbtc_load_counted(word);
        // Dead for good: if the key is present, another node holds it.
        if val != DEAD && cas::<TRACKED, C>(cx, word, val, bits, true) {
            return Put::Replaced(val);
        }
    }
    let mut make = Some(make);
    let mut node: *mut N = ptr::null_mut();
    loop {
        let pos = locate(cx);
        match pos.hold {
            Hold::Alive { val, .. } => {
                if pos.swap(cx, val, bits) {
                    pos.remember(cx, at);
                    if !node.is_null() {
                        // Made while the key was absent; `bits` has another
                        // home.
                        // SAFETY: still private, and from `cx.tnew`.
                        unsafe { N::tdelete(cx, node) };
                    }
                    return Put::Replaced(val);
                }
            }
            Hold::Dead { next } => pos.help_mark(cx, next),
            Hold::No => {
                if let Some(make) = make.take() {
                    node = make(cx);
                }
                // SAFETY: `node` is still private and the key is absent.
                if unsafe { pos.link(cx, node) } {
                    return Put::Inserted(node);
                }
            }
        }
    }
}

/// Kills the node holding the key and returns its position and the value
/// word it held; `None` (a read-only outcome, registered) if the key is
/// absent.  The caller owes the node its cleanup (mark, unlink, retire) and
/// the value its [`take`].
pub(crate) fn remove<N: Link, C: Ctx>(
    cx: &mut C,
    mut locate: impl FnMut(&mut C) -> Position<N, TRACKED>,
) -> Option<(Position<N, TRACKED>, u64)> {
    loop {
        let pos = locate(cx);
        let Hold::Alive { val, .. } = pos.hold else {
            pos.register_read(cx);
            return None;
        };
        if pos.kill(cx, val) {
            return Some((pos, val));
        }
    }
}

/// Sets the deletion mark on `link`, the link of a dead node, unless a
/// helper has, and returns the successor frozen into it.
pub(crate) fn mark(cx: &mut NonTx<'_>, link: &CasWord) -> u64 {
    loop {
        let next = cx.nbtc_load(link);
        if tag::is_marked(next) || cx.nbtc_cas(link, next, tag::marked(next), false, false) {
            return tag::unmarked(next);
        }
    }
}

// Map operations over `Node<K, V>` chains (list, split-ordered map)

/// # Safety
/// All four operations: see the module contract; `at` names the container
/// that `start` is a word of, and `key`.
impl<K: Ord + Copy + Send + 'static, V: Send + Sync + 'static> Node<K, V> {
    /// A node whose value word holds `bits`: [`NO_VALUE`], or from
    /// [`encode`] of a `V`.
    pub(crate) fn new(key: K, bits: u64) -> Self {
        Self {
            key,
            value: CasWord::new(bits),
            next: CasWord::new(0),
            _val: PhantomData,
        }
    }

    /// Looks `key` up and maps its value through `read`.
    pub(crate) unsafe fn lookup<C: Ctx, R>(
        cx: &mut C,
        at: MemoKey,
        start: &CasWord,
        key: K,
        read: impl FnMut(&V) -> R,
    ) -> Option<R> {
        // SAFETY: forwarded from the caller's contract.
        unsafe { get(cx, at, |cx| find::<TRACKED, Self, C>(cx, start, key), read) }
    }

    /// Inserts `key -> val` only if `key` is absent.
    pub(crate) unsafe fn insert<C: Ctx>(
        cx: &mut C,
        at: MemoKey,
        start: &CasWord,
        key: K,
        val: V,
    ) -> bool {
        // SAFETY: the caller's contract, and a fresh node of `key`.
        let linked = unsafe {
            insert(
                cx,
                at,
                |cx| find(cx, start, key),
                |cx| {
                    let bits = encode(cx, val);
                    cx.tnew(Self::new(key, bits))
                },
            )
        };
        linked.is_some()
    }

    /// Inserts or replaces, returning the previous value (`None`: inserted).
    pub(crate) unsafe fn put<C: Ctx>(
        cx: &mut C,
        at: MemoKey,
        start: &CasWord,
        key: K,
        val: V,
    ) -> Option<V>
    where
        V: Clone,
    {
        let bits = encode(cx, val);
        // SAFETY: the caller's contract, and a fresh node of `key`; a
        // replace is what hands its old word to `take`.
        unsafe {
            let locate = |cx: &mut C| find(cx, start, key);
            match put(cx, bits, at, locate, |cx| cx.tnew(Self::new(key, bits))) {
                Put::Inserted(_) => None,
                Put::Replaced(old) => Some(take(cx, old)),
            }
        }
    }

    /// Removes `key`, returning its value if it was present.
    pub(crate) unsafe fn remove<C: Ctx>(cx: &mut C, start: &CasWord, key: K) -> Option<V>
    where
        V: Clone,
    {
        // SAFETY: forwarded from the caller's contract.
        let (removed, old) = remove(cx, |cx| unsafe { find::<TRACKED, Self, C>(cx, start, key) })?;
        removed.unlink_on_commit(cx);
        // SAFETY: the remove is what took the word out.
        Some(unsafe { take(cx, old) })
    }
}

impl<N: Link + Send + 'static> Position<N, TRACKED> {
    /// After `kill` linearized: once the outcome is decided (at once
    /// standalone, post-commit in a transaction, never on abort) mark the
    /// dead node, swing the predecessor past it and retire it.
    fn unlink_on_commit<C: Ctx>(&self, cx: &mut C) {
        let (prev, curr) = (self.prev as usize, self.curr as usize);
        cx.add_cleanup(move |h| {
            let (prev, curr) = (prev as *const CasWord, curr as *mut N);
            let cx = &mut NonTx::new(h);
            // SAFETY: the pin of the operation, or of its transaction, is
            // still held, so `curr` and the owner of `prev` are allocated
            // (the head of a structure outlives the transaction: caller
            // contract of every container).
            let (prev, link) = unsafe { (&*prev, (*curr).next()) };
            let succ = mark(cx, link);
            if cx.nbtc_cas(prev, tag::from_ptr(curr), succ, false, false) {
                // SAFETY: winning the unlink makes this the only retirer.
                unsafe { cx.retire_now(curr) };
            }
            // Otherwise `prev` is no longer the node's predecessor word, and
            // the traversal that finds the marked node unlinks it.
        });
    }
}

// Quiescent walks

/// Clones the value a node is bound to.
///
/// # Safety
/// No operation runs on the chain concurrently, and the node is alive.
pub(crate) unsafe fn value_of<N: Link>(node: &N) -> N::Val
where
    N::Val: Clone + 'static,
{
    // SAFETY: quiescence keeps the word, and the box it may point to, still.
    unsafe { decode(node.value().load_value_spin(), N::Val::clone) }
}

/// Calls `f(node, live)` for every node reachable from `head`, in chain
/// order; `live` is false for removed nodes not yet unlinked.
///
/// # Safety
/// No operation may run on the chain concurrently.
pub(crate) unsafe fn walk<N: Link>(head: &CasWord, mut f: impl FnMut(&N, bool)) {
    let mut bits = head.load_value_spin();
    while !tag::as_ptr::<N>(bits).is_null() {
        // SAFETY: quiescence is the caller's contract, so every reachable
        // node stays allocated for the whole walk.
        let node = unsafe { &*tag::as_ptr::<N>(bits) };
        bits = node.next().load_value_spin();
        f(node, node.value().load_value_spin() != DEAD);
    }
}

/// Frees every node still reachable from `head`, and the value it is bound
/// to (nodes unlinked earlier, and values replaced or removed, are owned by
/// the EBR limbo bags).
///
/// # Safety
/// The caller has exclusive access to the chain and never uses it again.
pub(crate) unsafe fn free_all<N: Link>(head: &CasWord) {
    let mut bits = head.load_value_spin();
    while !tag::as_ptr::<N>(bits).is_null() {
        let node = tag::as_ptr::<N>(bits);
        // SAFETY: exclusive access; every node appears in the chain once, so
        // it is live until freed here, right after its link was read, and a
        // box belongs to the one value word that points to it.
        unsafe {
            bits = (*node).next().load_value_spin();
            if let Some(val) = boxed::<N::Val>((*node).value().load_value_spin()) {
                drop(Box::from_raw(val));
            }
            N::free(node);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{MichaelHashMap, MichaelList, SkipList, SplitOrderedMap, TxMap};
    use medley::{ThreadHandle, TxManager};

    const KEYS: u64 = 256;

    /// Nodes stepped over and CASes attempted, summed over calls.
    #[derive(Clone, Copy, Debug, Default, PartialEq)]
    struct Cost {
        hops: u64,
        cases: u64,
    }

    impl Cost {
        /// Adds what `f` costs on this thread.
        fn add<R>(&mut self, f: impl FnOnce() -> R) -> R {
            let hops = medley::failpoint::arm("chain::hop", |_| {});
            let cases = medley::failpoint::arm("chain::cas", |_| {});
            let res = f();
            self.hops += hops.hits();
            self.cases += cases.hits();
            res
        }
    }

    /// What a `put` of every key costs: in a transaction after a lookup of
    /// the key (a `get`, a `contains` or a failed `insert`, by turns); after
    /// another `put` of it; alone in a transaction; and standalone, after a
    /// standalone `get`.
    fn put_costs<M: TxMap<u64>>(map: &M, h: &mut ThreadHandle) -> [Cost; 4] {
        for k in 0..KEYS {
            assert!(map.insert(&mut h.nontx(), k, k));
        }
        let [mut found, mut again, mut alone, mut standalone] = [Cost::default(); 4];
        for k in 0..KEYS {
            let res = h.run(|tx| {
                let v = map.get(tx, k).expect("present");
                match k % 3 {
                    0 => {}
                    1 => assert!(map.contains(tx, k)),
                    _ => assert!(!map.insert(tx, k, 0)),
                }
                assert_eq!(found.add(|| map.put(tx, k, v + 1)), Some(v));
                Ok(())
            });
            assert_eq!(res, Ok(()));
            let res = h.run(|tx| {
                let v = alone.add(|| map.put(tx, k, k)).expect("present");
                assert_eq!(again.add(|| map.put(tx, k, v)), Some(k));
                Ok(())
            });
            assert_eq!(res, Ok(()));
            let v = map.get(&mut h.nontx(), k).expect("present");
            assert_eq!(standalone.add(|| map.put(&mut h.nontx(), k, v)), Some(v));
        }
        [found, again, alone, standalone]
    }

    /// The found-word memo, by its search counts: a `put` in a transaction
    /// that has looked its key up already steps over no node and makes one
    /// CAS; one that has not still searches, and so does every standalone
    /// `put` — exactly as far as a transactional one with nothing
    /// remembered.
    fn put_after_lookup_does_not_search<M: TxMap<u64>>(map: &M, what: &str) {
        let mgr = TxManager::new();
        let mut h = mgr.register();
        let [found, again, alone, standalone] = put_costs(map, &mut h);
        let once = Cost {
            hops: 0,
            cases: KEYS,
        };
        assert_eq!(found, once, "{what}: put after a lookup");
        assert_eq!(again, once, "{what}: put after a put");
        assert!(alone.hops > KEYS, "{what}: put alone searched {alone:?}");
        assert_eq!(standalone, alone, "{what}: standalone put after a get");
    }

    #[test]
    fn put_after_a_lookup_of_its_key_does_not_search() {
        put_after_lookup_does_not_search(&MichaelList::new(), "list");
        put_after_lookup_does_not_search(&MichaelHashMap::with_buckets(16), "hash");
        put_after_lookup_does_not_search(&SplitOrderedMap::new(), "elastic");
        put_after_lookup_does_not_search(&SkipList::new(), "skiplist");
    }

    /// A remembered word that is dead sends the `put` to the search, which
    /// finds the key's new node, or none; and a word remembered by one
    /// container is not taken for the same key in another.
    #[test]
    fn a_dead_or_foreign_word_is_not_taken() {
        let mgr = TxManager::new();
        let mut h = mgr.register();
        let (a, b) = (MichaelList::new(), MichaelList::new());
        assert!(a.insert(&mut h.nontx(), 7, 70));
        assert!(b.insert(&mut h.nontx(), 7, 700));
        let res = h.run(|tx| {
            assert_eq!(a.get(tx, 7), Some(70));
            assert_eq!(b.put(tx, 7, 701), Some(700), "b's own node");
            assert_eq!(a.remove(tx, 7), Some(70));
            assert_eq!(a.put(tx, 7, 71), None, "re-inserted");
            assert_eq!(a.put(tx, 7, 72), Some(71));
            Ok((a.get(tx, 7), b.get(tx, 7)))
        });
        assert_eq!(res, Ok((Some(72), Some(701))));
        assert_eq!(a.snapshot(), [(7, 72)]);
        assert_eq!(b.snapshot(), [(7, 701)]);
    }
}
