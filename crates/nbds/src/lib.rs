//! # nbds — NBTC-transformed nonblocking data structures
//!
//! This crate contains the concurrent data structures the paper composes with
//! Medley, each transformed mechanically according to the NBTC methodology
//! (replace critical loads/CASes with `nbtc_load`/`nbtc_cas`, register the
//! linearizing load of every read-only outcome with the counter token it
//! observed (`nbtc_load_counted` + `add_read_with_counter`), push
//! post-linearization work to `add_cleanup`, and allocate through
//! `tnew`/`tdelete`/`tretire`):
//!
//! * [`MichaelList`] — Michael's lock-free ordered list (paper Fig. 2's
//!   building block);
//! * [`MichaelHashMap`] — Michael's chained hash table;
//! * [`SplitOrderedMap`] — the Shalev–Shavit split-ordered list: an
//!   **elastic** hash table whose bucket directory doubles on-line under
//!   load, with transactions composing across the table mid-grow;
//! * [`SkipList`] — a Fraser-style CAS-based skiplist, its level 0 the same
//!   chain as the list's, its index levels plain words that pair each link
//!   with its successor's key, kept by O(log n) post-commit maintenance;
//! * [`MsQueue`] — the Michael–Scott FIFO queue.
//!
//! In the four maps a node keeps its value in a `CasWord` of its own, the
//! *value word*: a `u64` below 2⁶³ inline, anything else as a pointer to a
//! box.  A `put` that finds its key is one CAS on that word and allocates,
//! links, unlinks and retires no node; a `remove` is one CAS of the same word
//! to "dead", and the marking and unlinking of the node is cleanup.  A
//! transaction remembers the value words its lookups found, so a `put` after
//! a lookup of the same key does not search at all: it CASes that word.  A
//! lookup re-loads the value word after it has read the value and keeps the
//! read only if the word has not moved ([`TxMap::get_with`]), so a word may
//! also name a record kept outside the node and reused as soon as its
//! binding is gone (`txmontage` keeps payload ids there).
//!
//! Every operation is generic over a [`medley::Ctx`] execution context.
//! Called with the [`medley::Txn`] guard handed out by
//! [`medley::ThreadHandle::run`] (or [`medley::ThreadHandle::begin`]), the
//! operations of one or more structures compose into a strictly serializable
//! transaction; called with a [`medley::NonTx`] standalone context (from
//! [`medley::ThreadHandle::nontx`]) they monomorphize into exactly the
//! original nonblocking algorithms — the standalone/transactional
//! distinction is a compile-time fact, not a runtime branch.
//!
//! # Which word a read registers, and who writes it
//!
//! A composed transaction is exactly as serializable as each container's
//! choice of the word a read-only outcome registers: the commit validates
//! that word, so it must be the word every mutator that could falsify the
//! outcome CASes at its linearization point.  The list-based maps share one
//! traversal and one rule (`chain::try_find` and
//! `chain::Position::register_read`, private to this crate), so one pair of
//! rows covers them all.  `prev` is the link word the traversal arrived
//! through (list head, bucket sentinel link or the predecessor node's link;
//! level 0 in the skiplist, whose upper levels are index, read with plain
//! loads and never registered), `curr` the node holding the key and
//! `curr.value` its value word.  A skiplist lookup that meets its key alive
//! on an index level stops there, registering the same `curr.value`.
//!
//! | container | read-only outcome | registers | falsified by | which CASes |
//! |---|---|---|---|---|
//! | [`MichaelList`], [`MichaelHashMap`], [`SplitOrderedMap`], [`SkipList`] | key present (`get` hit, `contains` true, failed `insert`) | `curr.value`, as re-loaded after the value was read | `put`-replace, `remove` | `curr.value` (to the new value; to "dead") |
//! | same | key absent (`get` miss, `contains` false, failed `remove`), which includes "the candidate holds the key but is dead and not yet unlinked" | `prev` | `insert`, `put`-insert | `prev` (link; before that, the unlink of a dead candidate, also `prev`) |
//! | same | a `put` after a lookup of its key in the same transaction that found it present (`get`, `contains`, failed `insert`, an earlier `put`'s replace): no search, one CAS on the word the lookup found | nothing more: the lookup registered that same `curr.value` | `put`-replace, `remove` between the two | `curr.value`: the lookup's read fails validation, or the put's pre-image its install; a dead word sends the put to the search |
//! | [`SkipList`] | key present, its tower met alive above level 0 (`get`, `contains`, failed `insert`; a `put` replaces there) | `curr.value`, without descending further: a key has one live tower, and a dead word never revives | `put`-replace, `remove` | `curr.value` |
//! | [`SkipList`] `range` | page of live keys | `prev` of the first candidate, then `node.next` and `node.value` of every live node in the window (`node.next` alone of a dead one not yet marked) | `insert`/`put`-insert into the window; `remove`/`put`-replace of a listed key | the `prev` or `node.next` it lands on; the `node.value` — all registered |
//! | [`MsQueue`] | `dequeue` → `None`, `is_empty` → `true` | `dummy.next` (the head node's link) | `enqueue` | the last node's `next`, which is `dummy.next` while the queue is empty |
//! | [`MsQueue`] | `is_empty` → `false` | `head` | `dequeue` | `head` (swing to the next node) |
//!
//! An outcome can also be invalidated by a CAS that leaves it true — an
//! unrelated insert after `prev`, a neighbour's removal marking `prev`, a
//! `put` of the value that is already there — which costs a retry, never a
//! wrong commit.  Nothing that happens to `curr`'s links touches a "present":
//! a key's binding is its node's value word and nothing else.  Reads of a transaction's own buffered writes register
//! nothing: the write's pre-image is validated by the commit CAS instead.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

mod chain;
pub mod counter;
pub mod hashtable;
pub mod list;
pub mod map;
pub mod msqueue;
pub mod skiplist;
pub mod split_ordered;
pub mod tag;

pub use counter::LenCounter;
pub use hashtable::MichaelHashMap;
pub use list::MichaelList;
pub use map::{TxMap, TxOrderedMap, TxQueue};
pub use msqueue::MsQueue;
pub use skiplist::SkipList;
pub use split_ordered::SplitOrderedMap;
