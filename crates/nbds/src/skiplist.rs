//! NBTC-transformed lock-free skiplist (in the style of Fraser's CAS-based
//! skiplist, which the paper transforms for Medley and LFTT).
//!
//! Membership is defined entirely by the bottom-level list — the crate's
//! ordered chain, entered at the predecessor the index found instead of at a
//! head.  An insert linearizes at the level-0 link CAS, a remove (or the
//! removal half of a replace) at the level-0 marking CAS, and a read-only
//! outcome registers the found node's own level-0 link when the key is
//! present and the level-0 predecessor when it is absent (the table in the
//! [crate docs](crate)).  Exactly **one critical CAS per update** therefore
//! needs to be executed speculatively.
//!
//! The upper levels are a probabilistic index (in nbMontage terms, they are
//! "index", not "payload"): they are linked and unlinked in the
//! post-linearization cleanup phase with plain CASes, so they never carry
//! descriptors and never need to be rolled back.  An aborted remove may leave
//! a node's upper levels marked; the node simply degrades to a bottom-level
//! node until it is removed for real, which affects performance but never
//! correctness.
//!
//! Reclamation: a node is retired only by the operation that logically
//! deleted it, and only after a verification search has confirmed the node is
//! unlinked from every level, so index pointers can never dangle.
//!
//! Because every update performs exactly one critical CAS (the level-0 link
//! or mark) and every read-only outcome registers exactly one counted load,
//! single-operation transactions over this skiplist take the runtime's
//! single-CAS direct-commit path and read-only transactions commit
//! descriptor-free.  Larger transactions buffer all their level-0 CASes
//! thread-locally (lazy publication), so the tower structure is never
//! exposed to a half-done transaction: other threads see the pre-image of
//! every critical word until the commit-time install.

use crate::chain::{self, Link, TRACKED};
use crate::tag;
use medley::{CasWord, Ctx, NonTx};
use std::marker::PhantomData;
use std::ptr;
use std::sync::atomic::{AtomicU64, Ordering};

/// Maximum tower height (matches the paper's 20-level skiplists).
pub const MAX_HEIGHT: usize = 20;

pub(crate) struct Node<V> {
    key: u64,
    val: V,
    height: usize,
    tower: [CasWord; MAX_HEIGHT],
}

/// Level 0 is the membership chain.  Unlinking there does not retire: the
/// tower may still be linked above, so the remover retires it after purging
/// every level (see `finish_removal`).
impl<V> Link for Node<V> {
    type Key = u64;
    const RETIRE_ON_UNLINK: bool = false;
    fn key(&self) -> u64 {
        self.key
    }
    fn next(&self) -> &CasWord {
        &self.tower[0]
    }
}

/// Result of positioning at the bottom level.
type Level0Pos<V> = chain::Position<Node<V>, TRACKED>;

/// A lock-free, NBTC-composable skiplist map from `u64` keys to `V`.
pub struct SkipList<V> {
    head: [CasWord; MAX_HEIGHT],
    seed: AtomicU64,
    _marker: PhantomData<V>,
}

// SAFETY: shared concurrent container, nodes reclaimed through EBR.
unsafe impl<V: Send + Sync> Send for SkipList<V> {}
unsafe impl<V: Send + Sync> Sync for SkipList<V> {}

impl<V> SkipList<V>
where
    V: Clone + Send + Sync + 'static,
{
    /// Creates an empty skiplist.
    pub fn new() -> Self {
        Self {
            head: std::array::from_fn(|_| CasWord::new(0)),
            seed: AtomicU64::new(0x9E37_79B9_7F4A_7C15),
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

    /// The level-`level` link word of `node`, or of the head tower when
    /// `node` is null.
    #[inline]
    fn word_at(&self, node: *mut Node<V>, level: usize) -> *const CasWord {
        if node.is_null() {
            &self.head[level]
        } else {
            // SAFETY: callers only pass nodes protected by the current pin.
            unsafe { &(*node).tower[level] }
        }
    }

    /// Searches for `key`, filling `preds`/`succs` with the insertion point
    /// at every index level (`1..`) and returning the bottom-level position.
    /// Marked nodes encountered on the way are physically unlinked (helping),
    /// but never retired here.
    fn search<C: Ctx>(
        &self,
        cx: &mut C,
        key: u64,
        preds: &mut [*mut Node<V>; MAX_HEIGHT],
        succs: &mut [u64; MAX_HEIGHT],
    ) -> Level0Pos<V> {
        'retry: loop {
            let mut pred_node: *mut Node<V> = ptr::null_mut();
            for level in (1..MAX_HEIGHT).rev() {
                loop {
                    let pred_word = self.word_at(pred_node, level);
                    // SAFETY: pred_word is valid while pinned.
                    let raw = cx.nbtc_load(unsafe { &*pred_word });
                    if tag::is_marked(raw) && !pred_node.is_null() {
                        // The pred node picked up at a higher level has since
                        // been deleted at this one.  Restart this level from
                        // the head tower, where the marked node is
                        // encountered as `curr` and handled by the
                        // unlink-help branch below.
                        pred_node = ptr::null_mut();
                        continue;
                    }
                    let curr_bits = tag::unmarked(raw);
                    let curr = tag::as_ptr::<Node<V>>(curr_bits);
                    if curr.is_null() {
                        preds[level] = pred_node;
                        succs[level] = 0;
                        break;
                    }
                    // SAFETY: curr reachable and pinned.
                    let next_raw = cx.nbtc_load(unsafe { &(*curr).tower[level] });
                    if tag::is_marked(next_raw) {
                        // curr is deleted at this level; help unlink it.
                        if !cx.nbtc_cas(
                            unsafe { &*pred_word },
                            curr_bits,
                            tag::unmarked(next_raw),
                            false,
                            false,
                        ) {
                            continue 'retry;
                        }
                        continue;
                    }
                    if unsafe { (*curr).key } < key {
                        pred_node = curr;
                        continue;
                    }
                    preds[level] = pred_node;
                    succs[level] = curr_bits;
                    break;
                }
            }
            // Level 0: the shared chain traversal, entered at the index's
            // predecessor.
            loop {
                // SAFETY: pinned by the caller's `with_op`; level-0 words only
                // ever link `Node<V>`s, through `chain`.
                let start = unsafe { &*self.word_at(pred_node, 0) };
                if let Some(pos) = unsafe { chain::try_find(cx, start, key) } {
                    return pos;
                }
                if pred_node.is_null() || !tag::is_marked(cx.nbtc_load(start)) {
                    // Lost an unlink race.
                    continue 'retry;
                }
                // The index led to a node that is deleted at level 0 —
                // possibly by this very transaction, in which case nobody can
                // unlink it before commit and a fresh descent would end here
                // again.  Walk level 0 from the head instead.
                pred_node = ptr::null_mut();
            }
        }
    }

    fn empty_arrays() -> ([*mut Node<V>; MAX_HEIGHT], [u64; MAX_HEIGHT]) {
        ([ptr::null_mut(); MAX_HEIGHT], [0; MAX_HEIGHT])
    }

    /// [`SkipList::search`] for callers that do not need the index levels.
    fn locate<C: Ctx>(&self, cx: &mut C, key: u64) -> Level0Pos<V> {
        let (mut preds, mut succs) = Self::empty_arrays();
        self.search(cx, key, &mut preds, &mut succs)
    }

    /// Looks up `key`.
    pub fn get<C: Ctx>(&self, cx: &mut C, key: u64) -> Option<V> {
        cx.with_op(|cx| self.locate(cx, key).read(cx, |n| n.val.clone()))
    }

    /// Whether `key` is present.  Registers the same counted linearizing
    /// load as [`SkipList::get`] but never clones the value.
    pub fn contains<C: Ctx>(&self, cx: &mut C, key: u64) -> bool {
        cx.with_op(|cx| self.locate(cx, key).read(cx, |_| ()).is_some())
    }

    /// Ordered range cursor: collects up to `limit` live `(key, value)`
    /// pairs with keys in `bounds`, in ascending key order.
    ///
    /// Transactionally this is an **atomic snapshot of the traversed
    /// window**: the linearizing level-0 loads — the link into the first
    /// candidate and each live node's own level-0 word — join the read set
    /// with their counter tokens, so commit-time validation fails if any
    /// membership in the window changed between the walk and the commit.
    /// Marked nodes are skipped *without* registration: a level-0 word never
    /// changes again once marked (removal freezes it at `marked(next)`, a
    /// replace at `marked(replacement)`), so the hop through a dead node is
    /// pinned by the registered live words on either side of it.  Any
    /// membership change in the window — an insert, a removal mark, a
    /// replace — must CAS one of the registered words, which invalidates the
    /// counter token and aborts the scan's transaction.
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
        cx.with_op(|cx| {
            let mut out = Vec::new();
            if bounds.start >= bounds.end || limit == 0 {
                return out;
            }
            let pos = self.locate(cx, bounds.start);
            pos.register_prev(cx);
            let mut curr = pos.curr();
            // SAFETY: every node on the level-0 list is protected by the
            // current pin; keys are immutable after construction.
            while let Some(node) = unsafe { curr.as_ref() } {
                if node.key >= bounds.end || out.len() == limit {
                    break;
                }
                let (next_raw, next_cnt) = cx.nbtc_load_counted(&node.tower[0]);
                if tag::is_marked(next_raw) {
                    // Logically deleted: hop over it unregistered (frozen
                    // word, see above).  A replace parks the successor with
                    // the same key here, so order is preserved.
                    curr = tag::as_ptr::<Node<V>>(tag::unmarked(next_raw));
                    continue;
                }
                // Live: this one load both proves membership and pins the
                // link to the successor.
                cx.add_read_with_counter(&node.tower[0], next_raw, next_cnt);
                out.push((node.key, node.val.clone()));
                curr = tag::as_ptr::<Node<V>>(tag::unmarked(next_raw));
            }
            out
        })
    }

    /// Links `node` into levels `1..height` (post-linearization index
    /// maintenance).  Called from cleanup context, which is definitionally
    /// non-transactional — hence the concrete [`NonTx`] context.
    fn link_upper_levels(&self, cx: &mut NonTx<'_>, node: *mut Node<V>) {
        let (mut preds, mut succs) = Self::empty_arrays();
        // SAFETY: node is linked at level 0 (committed) and cannot be freed
        // before it is unlinked from every level, which cannot happen while
        // its own remover has not yet retired it and we are pinned.
        let (key, height) = unsafe { ((*node).key, (*node).height) };
        'levels: for level in 1..height {
            loop {
                // Stop early if the node has since been logically deleted.
                let bottom = unsafe { (*node).tower[0].load_parts().0 };
                if tag::is_marked(bottom) {
                    break 'levels;
                }
                let _ = self.search(cx, key, &mut preds, &mut succs);
                let succ = succs[level];
                if tag::as_ptr::<Node<V>>(succ) == node {
                    // Already linked at this level (e.g. by a previous retry).
                    continue 'levels;
                }
                // Point the node at its successor, unless it got marked.
                let cur = unsafe { (*node).tower[level].load_parts().0 };
                if tag::is_marked(cur) {
                    break 'levels;
                }
                if cur != succ && !unsafe { &(*node).tower[level] }.cas_value(cur, succ) {
                    continue;
                }
                let pred_word = self.word_at(preds[level], level);
                // SAFETY: preds[level] pinned.
                if unsafe { &*pred_word }.cas_value(succ, tag::from_ptr(node)) {
                    // Post-link validation: the successor we just linked to
                    // may have been marked (and even verified as unlinked by
                    // its remover) between our search and the link CAS.  We
                    // created that link, so we are responsible for making
                    // sure it does not outlive our EBR pin — unlink any
                    // marked successor before returning, or the remover's
                    // retirement would leave a permanently dangling index
                    // pointer (use-after-free for later traversals).
                    self.unlink_marked_successors(node, level);
                    continue 'levels;
                }
                // Lost a race; re-search and retry this level.
            }
        }
    }

    /// Repeatedly unlinks `node`'s level-`level` successor while that
    /// successor is marked at `level`.  Part of the creator-validates
    /// discipline described in [`SkipList::link_upper_levels`].
    fn unlink_marked_successors(&self, node: *mut Node<V>, level: usize) {
        loop {
            // SAFETY: `node` is reachable and pinned by the caller; any
            // successor observed here was linked while we are pinned, so its
            // memory cannot be reclaimed before we return.
            let cur = unsafe { (*node).tower[level].load_parts().0 };
            let succ = tag::as_ptr::<Node<V>>(tag::unmarked(cur));
            if tag::is_marked(cur) || succ.is_null() {
                return;
            }
            let succ_next = unsafe { (*succ).tower[level].load_parts().0 };
            if !tag::is_marked(succ_next) {
                return;
            }
            // Marked successor: splice it out of our own link word.
            let _ = unsafe { &(*node).tower[level] }.cas_value(cur, tag::unmarked(succ_next));
            // Re-examine: the replacement successor may be marked as well.
        }
    }

    /// Walks level `level` from the head, unlinking **every** marked node
    /// with key ≤ `key` (paper-style helping, but traversing *through* equal
    /// keys).  A plain `search` is not enough for a retiring node: a `put`
    /// replacement carries the same key as its victim, so `search(key)`
    /// stops at the replacement and never reaches a marked victim linked
    /// behind it.
    fn purge_level(&self, cx: &mut NonTx<'_>, level: usize, key: u64) {
        'retry: loop {
            let mut pred: *mut Node<V> = ptr::null_mut();
            loop {
                let pred_word = self.word_at(pred, level);
                // SAFETY: pred_word valid while pinned.
                let raw = cx.nbtc_load(unsafe { &*pred_word });
                let curr_bits = tag::unmarked(raw);
                let curr = tag::as_ptr::<Node<V>>(curr_bits);
                if curr.is_null() {
                    return;
                }
                // SAFETY: curr reachable and pinned.
                let next_raw = cx.nbtc_load(unsafe { &(*curr).tower[level] });
                if tag::is_marked(next_raw) {
                    if !cx.nbtc_cas(
                        unsafe { &*pred_word },
                        curr_bits,
                        tag::unmarked(next_raw),
                        false,
                        false,
                    ) {
                        continue 'retry;
                    }
                    continue;
                }
                let ckey = unsafe { (*curr).key };
                if ckey > key {
                    return;
                }
                pred = curr;
            }
        }
    }

    /// Marks levels `height-1 .. 1` of `node` (cleanup of a logical delete),
    /// then unlinks the node everywhere and retires it.
    fn finish_removal(&self, cx: &mut NonTx<'_>, node: *mut Node<V>) {
        // SAFETY: node is pinned and not yet retired (we are its unique
        // retirer).
        let height = unsafe { (*node).height };
        let key = unsafe { (*node).key };
        for level in (1..height).rev() {
            loop {
                let cur = unsafe { (*node).tower[level].load_parts().0 };
                if tag::is_marked(cur) {
                    break;
                }
                if unsafe { &(*node).tower[level] }.cas_value(cur, tag::marked(cur)) {
                    break;
                }
            }
        }
        // Purge every level the node may still be linked at; the traversal
        // goes through equal keys so a replacement with the same key cannot
        // shadow the retiring node.  Afterwards the only links that can
        // still materialize come from in-flight linkers, and those unlink
        // their own marked successors before unpinning (see
        // `link_upper_levels`), which is enough because this node's memory
        // cannot be reclaimed while any such linker stays pinned.
        for level in (0..height).rev() {
            self.purge_level(cx, level, key);
        }
        // SAFETY: unreachable from the structure and uniquely retired here.
        unsafe { cx.retire_now(node) };
    }

    /// Allocates a node with a random tower height.
    fn new_node<C: Ctx>(&self, cx: &mut C, key: u64, val: V) -> *mut Node<V> {
        cx.tnew(Node {
            key,
            val,
            height: self.random_height(),
            tower: std::array::from_fn(|_| CasWord::new(0)),
        })
    }

    /// Registers the index maintenance that follows a level-0 linearization,
    /// run once the outcome is decided: link the new node's upper levels,
    /// then mark, purge and retire the node it deleted.
    fn maintain_on_commit<C: Ctx>(
        &self,
        cx: &mut C,
        linked: Option<*mut Node<V>>,
        deleted: Option<*mut Node<V>>,
    ) {
        let list = self as *const Self as usize;
        let (linked, deleted) = (linked.map(|n| n as usize), deleted.map(|n| n as usize));
        cx.add_cleanup(move |h| {
            // Cleanup context is definitionally non-transactional.
            let mut cx = NonTx::new(h);
            // SAFETY: the structure outlives the transaction (caller
            // contract), and both nodes are kept allocated by the pin until
            // `finish_removal` — whose only caller for `deleted` is here —
            // retires them.
            unsafe {
                let list = &*(list as *const Self);
                if let Some(node) = linked {
                    list.link_upper_levels(&mut cx, node as *mut Node<V>);
                }
                if let Some(node) = deleted {
                    list.finish_removal(&mut cx, node as *mut Node<V>);
                }
            }
        });
    }

    /// Inserts `key -> val` only if absent; returns `true` on success.
    pub fn insert<C: Ctx>(&self, cx: &mut C, key: u64, val: V) -> bool {
        cx.with_op(|cx| {
            let node = self.new_node(cx, key, val);
            let (mut preds, mut succs) = Self::empty_arrays();
            // Linearization + publication point: the bottom-level link.
            // SAFETY: `node` is fresh from `tnew`; `search` positions are
            // taken under this `with_op`'s pin.
            let inserted = unsafe {
                chain::insert(cx, node, |cx| self.search(cx, key, &mut preds, &mut succs))
            };
            if inserted {
                self.maintain_on_commit(cx, Some(node), None);
            }
            inserted
        })
    }

    /// Inserts or replaces; returns the previous value if any.
    pub fn put<C: Ctx>(&self, cx: &mut C, key: u64, val: V) -> Option<V> {
        cx.with_op(|cx| {
            let node = self.new_node(cx, key, val);
            let (mut preds, mut succs) = Self::empty_arrays();
            // Linearization point: the bottom-level link, or the mark of the
            // old node's bottom link *at* the replacement (paper Fig. 2).
            // SAFETY: as in `insert`.
            let replaced =
                unsafe { chain::put(cx, node, |cx| self.search(cx, key, &mut preds, &mut succs)) };
            let old = replaced.as_ref().and_then(|pos| pos.node());
            let old_val = old.map(|n| n.val.clone());
            self.maintain_on_commit(cx, Some(node), replaced.map(|pos| pos.curr()));
            old_val
        })
    }

    /// Removes `key`; returns its value if present.
    pub fn remove<C: Ctx>(&self, cx: &mut C, key: u64) -> Option<V> {
        cx.with_op(|cx| {
            // Linearization point: marking the bottom-level link.
            let removed = chain::remove(cx, |cx| self.locate(cx, key))?;
            let old_val = removed.node().map(|old| old.val.clone());
            self.maintain_on_commit(cx, None, Some(removed.curr()));
            old_val
        })
    }

    /// Quiescent snapshot of the live `(key, value)` pairs in key order.
    pub fn snapshot(&self) -> Vec<(u64, V)> {
        let mut out = Vec::new();
        // SAFETY: quiescence is the caller's contract.
        unsafe {
            chain::walk(&self.head[0], |n: &Node<V>, live| {
                if live {
                    out.push((n.key, n.val.clone()));
                }
            })
        };
        out
    }

    /// Quiescent count of live keys.
    pub fn len_quiescent(&self) -> usize {
        self.snapshot().len()
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
        unsafe { chain::free_all::<Node<V>>(&self.head[0]) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medley::{AbortReason, TxManager, TxResult};
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
        assert!(mgr.stats().snapshot().ro_commits >= 1);
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
    }
}
