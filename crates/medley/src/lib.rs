//! # Medley — NonBlocking Transaction Composition (NBTC)
//!
//! Medley is an obstruction-free runtime for composing operations of
//! *existing* nonblocking data structures into strictly serializable
//! transactions, reproducing the system described in
//! **"Transactional Composition of Nonblocking Data Structures"**
//! (Cai, Wen, Scott; PPoPP 2023).
//!
//! The key observation of NBTC is that in an already-nonblocking structure
//! only the *critical* memory accesses — the linearizing load of a read-only
//! operation and the CASes between an update's publication point and its
//! linearization point — must take effect together, atomically.  Everything
//! before them can run eagerly; everything after them ("cleanup") can be
//! postponed until after commit.  Medley therefore instruments roughly **one
//! memory access per constituent operation** instead of every load and store
//! like a conventional STM.
//!
//! ## Architecture
//!
//! Everything runs through an execution context.  The modules are private;
//! their items are re-exported from the crate root:
//!
//! * `ctx` — the **API**: the sealed [`Ctx`] trait with its two execution
//!   contexts, [`NonTx`] (standalone — the instrumentation monomorphizes
//!   away) and [`Txn`] (transactional — an RAII guard that aborts on
//!   drop/unwind), plus the [`RunConfig`] retry policy.  `Ctx` is also the
//!   paper's `Composable` support surface (`add_read_with_counter`,
//!   `add_cleanup`, `tnew`, `tdelete`, `tretire`).
//! * `txmanager` — [`TxManager`] / [`ThreadHandle`]: registration, the doors
//!   into a context ([`ThreadHandle::nontx`], [`ThreadHandle::begin`],
//!   [`ThreadHandle::run`]) and, crate-private, the engines behind them:
//!   thread-local read/write buffers and the three commit paths.
//! * `deferred` — the cleanups and abort actions a transaction registers,
//!   each a function pointer, a drop pointer and three inline words of
//!   capture (a larger capture is boxed once).
//! * `memo` — the found-word memo: the value words a transaction's lookups
//!   found, so that a later write of the same key need not search for its
//!   word again ([`Ctx::remember`], [`Ctx::recall`]).
//! * `casobj` — [`CasWord`]: a 64-bit value augmented with a 64-bit counter;
//!   odd counters mark an installed transaction descriptor.
//! * `descriptor` — per-thread reusable descriptors implementing
//!   M-compare-N-swap: write set and status word (`tid|serial|status`).
//!   Descriptors follow a two-phase, *private-then-published* lifecycle:
//!   reads and writes accumulate in plain thread-local buffers during
//!   execution; only [`Txn::commit`], on the general commit path, publishes
//!   the writes and installs the descriptor, and the owner alone validates
//!   the reads — see the module docs for the layout (hot header + lazy
//!   spill) and memory-ordering argument.
//! * `atomic128` — [`AtomicU128`], a 128-bit atomic word: `lock cmpxchg16b`
//!   to write, one aligned vector load to read (its module docs list every
//!   place where a store must be ordered before such a load, and by what).
//!   Re-exported for words that no transaction touches, such as the
//!   skiplist's index links in `nbds`.
//! * `ebr` — epoch-based safe memory reclamation.
//! * [`util`] — cache-line padding, backoff, a poison-free mutex and a small
//!   PRNG, shared with the rest of the workspace.
//!
//! ## Failpoints
//!
//! The tests of every crate stop or observe a thread at a named step
//! through one facility, the hidden `failpoint` module.  A site is one
//! statement, `failpoint!(NAME)` or `failpoint!(NAME, arg)`, whose one `u64`
//! argument is the key or level at hand.  A test arms a hook for a name on
//! its own thread and gets back a guard that disarms it when dropped; passes
//! on other threads do not see it, and a pass nested inside a running hook
//! does not run it again.  The site's expansion is `#[cfg(test)]`, evaluated
//! where the site is, so it is compiled only into the containing crate's
//! tests and costs nothing anywhere else.
//!
//! ## Example
//!
//! ```
//! use medley::{AbortReason, Ctx, TxManager, TxError, CasWord};
//!
//! let mgr = TxManager::new();
//! let mut h = mgr.register();
//! let a = CasWord::new(100);
//! let b = CasWord::new(0);
//!
//! // Atomically move 10 units from `a` to `b`.  The closure receives a
//! // `Txn` guard; aborting goes through it, and a panic would roll back.
//! let moved: Result<(), TxError> = h.run(|t| {
//!     let x = t.nbtc_load(&a);
//!     let y = t.nbtc_load(&b);
//!     if x < 10 {
//!         return Err(t.abort(AbortReason::Explicit));
//!     }
//!     if !t.nbtc_cas(&a, x, x - 10, true, true) {
//!         return Err(t.abort(AbortReason::Conflict));
//!     }
//!     if !t.nbtc_cas(&b, y, y + 10, true, true) {
//!         return Err(t.abort(AbortReason::Conflict));
//!     }
//!     Ok(())
//! });
//! assert!(moved.is_ok());
//! assert_eq!(a.try_load_value(), Some(90));
//! assert_eq!(b.try_load_value(), Some(10));
//! ```
//!
//! Higher-level NBTC-transformed containers (queues, hash tables, skiplists,
//! binary search trees) live in the companion `nbds` crate; persistence
//! (txMontage) lives in `pmem` + `txmontage`.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

mod atomic128;
mod casobj;
mod ctx;
mod deferred;
mod descriptor;
mod ebr;
mod errors;
#[doc(hidden)]
pub mod failpoint;
mod memo;
mod txmanager;
pub mod util;

pub use atomic128::AtomicU128;
pub use casobj::CasWord;
pub use ctx::{Ctx, NonTx, RunConfig, Txn};
pub use descriptor::MAX_ENTRIES;
pub use errors::{Abort, AbortReason, TxError, TxResult};
pub use txmanager::{ThreadHandle, TxManager, TxStatsSnapshot};
