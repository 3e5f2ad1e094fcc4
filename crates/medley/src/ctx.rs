//! Execution contexts: the typestate layer that makes "standalone" and
//! "inside a transaction" different *types* rather than a runtime branch.
//!
//! NBTC's headline promise (paper Sec. 2) is that a transformed operation
//! runs **uninstrumented** when called outside a transaction and
//! **speculatively** when called inside one.  This module states that
//! distinction in the type system, in the style of kcas's explicit `xt`
//! transaction contexts, and it is the only way to execute anything:
//!
//! * [`NonTx`] is the standalone context.  Its `nbtc_load` / `nbtc_cas`
//!   compile down to the plain loads and CASes of the original nonblocking
//!   algorithm (plus the mandatory helping of encountered descriptors) —
//!   no `in_tx` check, no read-set bookkeeping, no speculative-value lookup.
//!   A container operation monomorphized for `NonTx` *is* the uninstrumented
//!   algorithm.
//! * [`Txn`] is the transactional context: an RAII guard created only by
//!   [`ThreadHandle::run`] / [`ThreadHandle::begin`].  It records reads and
//!   writes for commit-time validation, gives the transaction read-your-own-
//!   write visibility, exposes [`Txn::abort`] for `?`-style early return
//!   (which closes the guard: nothing can execute through it afterwards), and
//!   **aborts the transaction when dropped without commit** — so a panic
//!   unwinding out of a transaction body cannot leak an installed descriptor
//!   or leave the handle stuck mid-transaction.
//!
//! Containers are written once, generically: `fn get<C: Ctx>(&self, cx: &mut
//! C, ...)`.  Calling a "transactional" helper with no transaction open,
//! starting a second transaction on a handle whose first is still running,
//! smuggling the transaction token out of its retry closure — all are
//! rejected at compile time (see the `compile_fail` examples on [`Txn`]).

use crate::casobj::CasWord;
use crate::errors::{Abort, AbortReason, TxResult};
use crate::txmanager::{AbortKind, ThreadHandle};

mod sealed {
    /// Seals [`super::Ctx`]: the NBTC runtime defines exactly two execution
    /// contexts (standalone and transactional), and the containers'
    /// correctness argument — critical accesses are either all plain or all
    /// speculative within one operation — relies on there being no third.
    pub trait Sealed {}
    impl Sealed for super::NonTx<'_> {}
    impl Sealed for super::Txn<'_> {}
}

/// An execution context for NBTC-transformed operations.
///
/// This trait is **sealed**: its only implementations are [`NonTx`]
/// (standalone execution — instrumentation compiled away) and [`Txn`]
/// (transactional execution — critical accesses run speculatively and take
/// effect atomically at commit).  Data structures written against `Ctx`
/// therefore get the paper's NBTC contract for free:
///
/// * **Standalone** (`NonTx`): `nbtc_load` and `nbtc_cas` are the plain
///   atomic load / value-CAS of the original nonblocking algorithm, with the
///   single addition that an encountered transaction descriptor is finalized
///   (helped or aborted) so a stalled transaction can never block a
///   non-transactional operation.  `add_read_with_counter` is a no-op;
///   `add_cleanup` runs its closure immediately; `tnew`/`tretire` allocate
///   and retire directly.
/// * **Transactional** (`Txn`): every critical CAS is buffered in plain
///   thread-local memory (lazy publication — nothing is visible to other
///   threads until commit); loads see the transaction's own buffered values;
///   registered reads are validated at commit; the commit itself picks the
///   cheapest sufficient path (descriptor-free read-only, single plain CAS,
///   or publish-install-resolve through the descriptor); cleanup closures
///   run only after a successful commit, and `tnew`ed blocks are freed on
///   abort.
///
/// The methods are the paper's `Composable` support surface.
pub trait Ctx: sealed::Sealed + Sized {
    /// Brackets one data-structure operation: pins the SMR epoch for its
    /// duration and (in a transaction) resets the speculation interval,
    /// exactly as the paper's `OpStarter` does at the top of every operation.
    fn with_op<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R;

    /// Transactional load of a [`CasWord`] (paper `nbtcLoad`); plain
    /// descriptor-finalizing load in a [`NonTx`] context.
    fn nbtc_load(&mut self, obj: &CasWord) -> u64 {
        self.nbtc_load_counted(obj).0
    }

    /// Like [`Ctx::nbtc_load`], but also returns the counter token observed
    /// by the load, for exact read registration via
    /// [`Ctx::add_read_with_counter`].
    fn nbtc_load_counted(&mut self, obj: &CasWord) -> (u64, u64);

    /// Transactional CAS (paper `nbtcCAS`); plain descriptor-finalizing CAS
    /// in a [`NonTx`] context.  `lin_pt` / `pub_pt` declare whether this CAS,
    /// if successful, is the linearization and/or publication point of the
    /// current operation.
    fn nbtc_cas(
        &mut self,
        obj: &CasWord,
        expected: u64,
        desired: u64,
        lin_pt: bool,
        pub_pt: bool,
    ) -> bool;

    /// Registers the linearizing load of a read-only outcome for commit-time
    /// validation (`val`/`cnt` as returned by [`Ctx::nbtc_load_counted`]).
    /// No-op in a [`NonTx`] context — standalone operations have nothing to
    /// validate.
    fn add_read_with_counter(&mut self, obj: &CasWord, val: u64, cnt: u64);

    /// Registers post-critical ("cleanup") work: deferred to after commit in
    /// a transaction, run immediately in a [`NonTx`] context.  Cleanups run
    /// in registration order; an abort drops them unrun.
    ///
    /// Deferring allocates nothing when the closure's capture fits in three
    /// words and is at most word-aligned (a pointer or two and a counter);
    /// a larger capture is boxed once.
    fn add_cleanup(&mut self, f: impl FnOnce(&mut ThreadHandle) + 'static);

    /// Registers compensation work that runs only if the transaction aborts
    /// (in registration order; a commit drops it unrun); dropped without
    /// running in a [`NonTx`] context (a standalone operation cannot abort).
    /// Stored as [`Ctx::add_cleanup`] stores a cleanup: inline up to three
    /// words of capture.
    fn add_abort_action(&mut self, f: impl FnOnce(&mut ThreadHandle) + 'static);

    /// Allocates a block whose ownership is tied to the transaction (paper
    /// `tNew`): freed automatically on abort; plain allocation in a
    /// [`NonTx`] context.
    fn tnew<T>(&mut self, value: T) -> *mut T;

    /// Frees a block previously produced by [`Ctx::tnew`] that was never
    /// published (paper `tDelete`).
    ///
    /// # Safety
    /// `ptr` must have been returned by `tnew::<T>` on this context's handle
    /// and must not be reachable from any shared structure.
    unsafe fn tdelete<T>(&mut self, ptr: *mut T);

    /// Retires a node through epoch-based reclamation (paper `tRetire`):
    /// deferred to commit in a transaction, immediate in a [`NonTx`] context.
    ///
    /// # Safety
    /// `ptr` must have been allocated via `Box` (directly or through `tnew`)
    /// and must be unlinked from the structure by the time the retirement
    /// takes effect, with no other thread retiring it as well.
    unsafe fn tretire<T: Send + 'static>(&mut self, ptr: *mut T);

    /// Immediate retirement regardless of context (used by cleanup closures
    /// and cleanup-phase helpers).
    ///
    /// # Safety
    /// Same contract as [`Ctx::tretire`].
    unsafe fn retire_now<T: Send + 'static>(&mut self, ptr: *mut T);

    /// Whether this context executes transactionally.  `const`-foldable after
    /// monomorphization: `false` for [`NonTx`], `true` for [`Txn`].
    fn is_transactional(&self) -> bool;

    /// The thread-slot id of the underlying [`ThreadHandle`] (always below
    /// [`TxManager::max_threads`](crate::TxManager::max_threads) of the
    /// manager the handle is registered with).
    ///
    /// This is the per-slot arena hook: side structures that keep per-thread
    /// state — such as the payload arenas of a persistence domain — index it
    /// by this id, relying on the manager's guarantee that at most one live
    /// handle owns a slot at a time.
    fn tid(&self) -> usize;

    /// The persistence epoch the transaction snapshotted at begin
    /// (txMontage hook), or `None` in a standalone context.
    fn snapshot_epoch(&self) -> Option<u64>;

    /// Plain descriptor-finalizing load that **never joins a transaction's
    /// read set**, even in a [`Txn`] context.
    ///
    /// This is the hook for *infrastructure* actions inside a container
    /// operation — work that maintains the container's physical layout
    /// (e.g. publishing a bucket sentinel or doubling a directory in a
    /// split-ordered hash table) rather than its abstract state.  Such
    /// actions must take effect immediately and must not be validated,
    /// buffered, or rolled back with the enclosing transaction: two
    /// transactions touching disjoint keys may both trigger the same bucket
    /// initialization, and neither should conflict-abort over it.
    fn untracked_load(&mut self, obj: &CasWord) -> u64;

    /// Plain descriptor-finalizing CAS that **never joins a transaction's
    /// write set** — the effect is immediately visible to all threads and is
    /// not undone if the enclosing transaction aborts.
    ///
    /// See [`Ctx::untracked_load`] for the intended use (container
    /// infrastructure actions).  Callers must ensure the CAS is harmless to
    /// the transaction's atomicity argument: it may only install state that
    /// is semantically a no-op at the abstract level (sentinels, directory
    /// slots, unlinking already-deleted nodes).
    fn untracked_cas(&mut self, obj: &CasWord, expected: u64, desired: u64) -> bool;

    /// Whether this context holds a write to `obj` that other threads cannot
    /// see yet: a CAS the open transaction buffered, to publish at commit or
    /// drop on abort.  Always `false` in a [`NonTx`] context, where every CAS
    /// takes effect at once.
    ///
    /// This is how a *helping* CAS — `nbtc_cas(.., false, false)`, such as
    /// the unlink of a node some other operation has already deleted —
    /// learns what it did.  Outside its operation's speculation interval it
    /// is applied on the spot and **survives an abort**, so a node it made
    /// unreachable must be retired now ([`Ctx::retire_now`]); inside the
    /// interval, or on a word the transaction already wrote, it joined the
    /// write buffer, and the retirement has to wait for the commit
    /// ([`Ctx::tretire`]).  Asked right after a successful CAS on `obj`, this
    /// tells the two apart.
    fn write_is_buffered(&self, obj: &CasWord) -> bool;

    /// Notes that this transaction's lookup of `key` in the container
    /// `owner` (its address) found `word`: the value word of the node that
    /// holds the key, alive when it was read.  A later update of the key in
    /// the same transaction can [`Ctx::recall`] the word and CAS it instead
    /// of searching for it again.  A no-op in a [`NonTx`] context.
    ///
    /// The memo keeps the last four words noted, newest first, and forgets
    /// them all when a transaction begins: an entry never outlives the
    /// attempt that noted it, whose nodes an abort may let go.  Key it by the
    /// container, not by where its search started, which can move (a
    /// split-ordered map's bucket, after the directory grows).
    fn remember(&mut self, owner: usize, key: u64, word: &CasWord);

    /// The word this transaction last noted for `(owner, key)` with
    /// [`Ctx::remember`]; always `None` in a [`NonTx`] context, where the
    /// branch it guards folds away.
    ///
    /// The word stays allocated until the transaction ends, because the
    /// transaction holds its reclamation pin from `begin` to its commit or
    /// abort.  Whether the word still holds the key is the caller's to
    /// decide, through a load in this context.
    fn recall(&mut self, owner: usize, key: u64) -> Option<*const CasWord>;
}

// ---------------------------------------------------------------------------
// NonTx
// ---------------------------------------------------------------------------

/// The standalone execution context: operations run **uninstrumented**, as
/// the original nonblocking algorithms.
///
/// `NonTx` is a zero-cost wrapper around `&mut ThreadHandle` (obtained from
/// [`ThreadHandle::nontx`]); monomorphizing a container operation for it
/// compiles the transactional machinery away entirely — no `in_tx` branch is
/// ever evaluated, no read set is kept, and `tnew`/`tretire`/`add_cleanup`
/// reduce to plain allocation, immediate retirement, and immediate cleanup.
///
/// ```
/// use medley::{Ctx, TxManager};
///
/// let mgr = TxManager::new();
/// let mut h = mgr.register();
/// let w = medley::CasWord::new(3);
/// // A lone CAS through the standalone context: one plain counted CAS.
/// assert!(h.nontx().nbtc_cas(&w, 3, 4, true, true));
/// assert_eq!(w.try_load_value(), Some(4));
/// ```
pub struct NonTx<'h> {
    h: &'h mut ThreadHandle,
}

impl<'h> NonTx<'h> {
    /// Wraps a thread handle as a standalone execution context
    /// (equivalent to [`ThreadHandle::nontx`]; cleanup closures, which
    /// receive the bare handle, use this to run container operations).
    #[inline]
    pub fn new(h: &'h mut ThreadHandle) -> Self {
        Self { h }
    }

    // Note: deliberately no `handle()` escape hatch — a context is the only
    // door to the handle's engines, and `Txn` relies on that.  Drop the
    // context to get the handle back.
}

impl Ctx for NonTx<'_> {
    fn with_op<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        // Unwind-safe bracket: the guard owns the context borrow and the
        // body runs on a reborrow through it, so the unpin in `Drop` runs
        // even when the body panics (a leaked pin would stall epoch
        // reclamation process-wide), without any raw-pointer aliasing.
        struct Guard<'a, 'h>(&'a mut NonTx<'h>);
        impl Drop for Guard<'_, '_> {
            fn drop(&mut self) {
                self.0.h.unpin_op();
            }
        }
        self.h.pin_op();
        let guard = Guard(self);
        f(&mut *guard.0)
    }

    #[inline]
    fn nbtc_load_counted(&mut self, obj: &CasWord) -> (u64, u64) {
        self.h.untracked_load_counted(obj)
    }

    #[inline]
    fn nbtc_cas(
        &mut self,
        obj: &CasWord,
        expected: u64,
        desired: u64,
        _lin_pt: bool,
        _pub_pt: bool,
    ) -> bool {
        self.h.untracked_cas(obj, expected, desired)
    }

    #[inline]
    fn add_read_with_counter(&mut self, _obj: &CasWord, _val: u64, _cnt: u64) {}

    fn add_cleanup(&mut self, f: impl FnOnce(&mut ThreadHandle) + 'static) {
        f(self.h);
    }

    fn add_abort_action(&mut self, _f: impl FnOnce(&mut ThreadHandle) + 'static) {}

    #[inline]
    fn tnew<T>(&mut self, value: T) -> *mut T {
        Box::into_raw(Box::new(value))
    }

    unsafe fn tdelete<T>(&mut self, ptr: *mut T) {
        // SAFETY: forwarded from the caller's contract.
        drop(unsafe { Box::from_raw(ptr) });
    }

    unsafe fn tretire<T: Send + 'static>(&mut self, ptr: *mut T) {
        // SAFETY: forwarded from the caller's contract.
        unsafe { self.h.retire_now(ptr) };
    }

    unsafe fn retire_now<T: Send + 'static>(&mut self, ptr: *mut T) {
        // SAFETY: forwarded from the caller's contract.
        unsafe { self.h.retire_now(ptr) };
    }

    #[inline]
    fn is_transactional(&self) -> bool {
        false
    }

    #[inline]
    fn tid(&self) -> usize {
        self.h.tid()
    }

    #[inline]
    fn snapshot_epoch(&self) -> Option<u64> {
        None
    }

    #[inline]
    fn untracked_load(&mut self, obj: &CasWord) -> u64 {
        self.h.untracked_load_counted(obj).0
    }

    #[inline]
    fn untracked_cas(&mut self, obj: &CasWord, expected: u64, desired: u64) -> bool {
        self.h.untracked_cas(obj, expected, desired)
    }

    #[inline]
    fn write_is_buffered(&self, _obj: &CasWord) -> bool {
        false
    }

    #[inline]
    fn remember(&mut self, _owner: usize, _key: u64, _word: &CasWord) {}

    #[inline]
    fn recall(&mut self, _owner: usize, _key: u64) -> Option<*const CasWord> {
        None
    }
}

impl std::fmt::Debug for NonTx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NonTx").field("tid", &self.h.tid()).finish()
    }
}

impl ThreadHandle {
    /// The standalone execution context of this handle: container operations
    /// called through it run uninstrumented, exactly like the original
    /// nonblocking algorithms.
    #[inline]
    pub fn nontx(&mut self) -> NonTx<'_> {
        NonTx::new(self)
    }
}

// ---------------------------------------------------------------------------
// Txn
// ---------------------------------------------------------------------------

/// The transactional execution context: an RAII guard over an open Medley
/// transaction.
///
/// A `Txn` is created only by [`ThreadHandle::run`] (which owns the retry
/// loop) or [`ThreadHandle::begin`] (manual commit control).  While it is
/// alive it mutably borrows the handle, so the type system enforces the
/// runtime's single-open-transaction rule, and its `Drop` aborts the
/// transaction if it is still open — panics unwinding out of a transaction
/// body roll back instead of leaking an installed descriptor.
///
/// A second `begin` while a transaction is open is rejected at compile time:
///
/// ```compile_fail,E0499
/// use medley::TxManager;
/// let mgr = TxManager::new();
/// let mut h = mgr.register();
/// let t1 = h.begin();
/// let t2 = h.begin(); // ERROR: `h` is already mutably borrowed by `t1`
/// drop(t1);
/// drop(t2);
/// ```
///
/// And the guard cannot be smuggled out of a [`ThreadHandle::run`] closure
/// (its lifetime is higher-ranked, so nothing outside the closure can hold
/// it):
///
/// ```compile_fail
/// use medley::TxManager;
/// let mgr = TxManager::new();
/// let mut h = mgr.register();
/// let mut escaped = None;
/// let _ = h.run(|t| {
///     escaped = Some(t); // ERROR: borrowed data escapes the closure
///     Ok(())
/// });
/// ```
///
/// Standalone calls cannot run concurrently with the transaction either —
/// the handle is mutably borrowed for as long as the guard lives:
///
/// ```compile_fail,E0499
/// use medley::{Ctx, TxManager};
/// let mgr = TxManager::new();
/// let mut h = mgr.register();
/// let t = h.begin();
/// h.nontx(); // ERROR: cannot borrow `h` mutably a second time
/// drop(t);
/// ```
pub struct Txn<'h> {
    h: &'h mut ThreadHandle,
    /// Set by [`Txn::abort`]; lets a later [`Txn::commit`] report the abort
    /// instead of panicking, and lets `run` classify the outcome.
    aborted: Option<AbortReason>,
}

impl<'h> Txn<'h> {
    #[inline]
    pub(crate) fn new(h: &'h mut ThreadHandle) -> Self {
        debug_assert!(h.in_tx());
        Self { h, aborted: None }
    }

    /// Whether the transaction is still open (neither committed nor
    /// aborted).  [`Txn::abort`] closes the guard: all that is left to do
    /// with it is return the token (or [`Txn::commit`], which reports the
    /// abort).
    #[inline]
    pub fn is_open(&self) -> bool {
        self.h.in_tx()
    }

    /// The handle of the open transaction: the one door from this guard to
    /// the engines, shut once the transaction is.  A body that keeps calling
    /// operations after [`Txn::abort`] has a bug — nothing it did could ever
    /// commit — so it gets a panic before anything touches shared memory
    /// (the guard's drop, by then a no-op, leaves the handle reusable).
    #[inline]
    fn open(&mut self) -> &mut ThreadHandle {
        assert!(
            self.h.in_tx(),
            "operation through a transaction guard closed by abort({:?})",
            self.aborted
        );
        self.h
    }

    /// Aborts the transaction now (paper `txAbort`) and returns the [`Abort`]
    /// token to propagate, so the idiomatic early return from a transaction
    /// body is
    ///
    /// ```
    /// use medley::{AbortReason, TxError, TxManager};
    /// let mgr = TxManager::new();
    /// let mut h = mgr.register();
    /// let balance = 3_u64;
    /// let res = h.run(|t| {
    ///     if balance < 10 {
    ///         return Err(t.abort(AbortReason::Explicit));
    ///     }
    ///     Ok(())
    /// });
    /// assert_eq!(res, Err(TxError::Explicit));
    /// ```
    ///
    /// [`AbortReason::Explicit`] is final ([`ThreadHandle::run`] reports
    /// [`TxError::Explicit`](crate::TxError::Explicit) without retrying);
    /// [`AbortReason::Conflict`]
    /// requests a retry.  Either way the buffered writes are dropped and the
    /// guard is closed: return the token at once.
    ///
    /// # Panics
    /// Any [`Ctx`] access through the guard after this call panics.
    pub fn abort(&mut self, reason: AbortReason) -> Abort {
        if self.h.in_tx() {
            self.h.abort_with(match reason {
                AbortReason::Explicit => AbortKind::Explicit,
                AbortReason::Conflict => AbortKind::Conflict,
            });
            self.aborted = Some(reason);
        }
        Abort::new(reason)
    }

    /// Attempts to commit the transaction, consuming the guard (paper
    /// `txEnd`).  Only needed with [`ThreadHandle::begin`];
    /// [`ThreadHandle::run`] commits on its own.
    ///
    /// On success the buffered writes of all constituent operations become
    /// visible atomically and the registered cleanups run; on failure
    /// ([`TxError::Conflict`](crate::TxError::Conflict),
    /// [`TxError::CapacityExceeded`](crate::TxError::CapacityExceeded))
    /// everything is rolled back.  If the transaction was already closed by
    /// [`Txn::abort`], this reports the abort
    /// ([`TxError::Explicit`](crate::TxError::Explicit) or
    /// [`TxError::Conflict`](crate::TxError::Conflict)) instead of
    /// committing.
    #[inline]
    pub fn commit(self) -> TxResult<()> {
        if !self.h.in_tx() {
            // Closed by an earlier `abort` on this guard.
            return Err(match self.aborted {
                Some(AbortReason::Conflict) => crate::TxError::Conflict,
                _ => crate::TxError::Explicit,
            });
        }
        // The engine closes the transaction on every path (commit or
        // abort), so the subsequent guard drop is a no-op.
        self.h.commit()
    }

    /// Validates the read set registered so far (paper `validateReads`):
    /// optional opacity check for bodies that cannot tolerate inconsistent
    /// reads.  Reports `false` once the transaction is doomed or aborted.
    pub fn validate_reads(&self) -> bool {
        self.h.in_tx() && self.h.validate_reads()
    }

    // Note: deliberately no `handle()` escape hatch; the guard's bookkeeping
    // relies on nothing else closing or reopening the transaction.  Commit
    // or drop the guard first, then use the handle.
}

impl Drop for Txn<'_> {
    #[inline]
    fn drop(&mut self) {
        if self.h.in_tx() {
            // Dropped without commit: abort.  This is the unwind path — a
            // panic in a transaction body, or glue code that let the guard
            // fall out of scope — and it must leave the handle reusable with
            // no descriptor installed anywhere.
            self.h.abort_with(AbortKind::Unwind);
        }
    }
}

/// Every access to a word or to the transaction's sets goes through the
/// private `Txn::open`, so the engines only ever see an open transaction.
impl Ctx for Txn<'_> {
    fn with_op<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        // Unwind-safe bracket (see the `NonTx` impl): additionally resets
        // the speculation interval on both entry and exit, as the paper's
        // `OpStarter` does.
        struct Guard<'a, 'h>(&'a mut Txn<'h>);
        impl Drop for Guard<'_, '_> {
            fn drop(&mut self) {
                self.0.h.clear_spec_interval();
                self.0.h.unpin_op();
            }
        }
        self.h.pin_op();
        self.h.clear_spec_interval();
        let guard = Guard(self);
        f(&mut *guard.0)
    }

    #[inline]
    fn nbtc_load_counted(&mut self, obj: &CasWord) -> (u64, u64) {
        self.open().tx_load_counted(obj)
    }

    #[inline]
    fn nbtc_cas(
        &mut self,
        obj: &CasWord,
        expected: u64,
        desired: u64,
        lin_pt: bool,
        pub_pt: bool,
    ) -> bool {
        self.open().tx_cas(obj, expected, desired, lin_pt, pub_pt)
    }

    #[inline]
    fn add_read_with_counter(&mut self, obj: &CasWord, val: u64, cnt: u64) {
        self.open().add_read_with_counter(obj, val, cnt);
    }

    fn add_cleanup(&mut self, f: impl FnOnce(&mut ThreadHandle) + 'static) {
        self.open().add_cleanup(f);
    }

    fn add_abort_action(&mut self, f: impl FnOnce(&mut ThreadHandle) + 'static) {
        self.open().add_abort_action(f);
    }

    #[inline]
    fn tnew<T>(&mut self, value: T) -> *mut T {
        self.open().tnew(value)
    }

    unsafe fn tdelete<T>(&mut self, ptr: *mut T) {
        // SAFETY: forwarded from the caller's contract.
        unsafe { self.open().tdelete(ptr) }
    }

    unsafe fn tretire<T: Send + 'static>(&mut self, ptr: *mut T) {
        // SAFETY: forwarded from the caller's contract.
        unsafe { self.open().tretire(ptr) }
    }

    unsafe fn retire_now<T: Send + 'static>(&mut self, ptr: *mut T) {
        // SAFETY: forwarded from the caller's contract.
        unsafe { self.h.retire_now(ptr) };
    }

    #[inline]
    fn is_transactional(&self) -> bool {
        true
    }

    #[inline]
    fn tid(&self) -> usize {
        self.h.tid()
    }

    #[inline]
    fn snapshot_epoch(&self) -> Option<u64> {
        Some(self.h.snapshot_epoch())
    }

    #[inline]
    fn untracked_load(&mut self, obj: &CasWord) -> u64 {
        // Deliberately bypasses `tx_load_counted`: the value read is
        // infrastructure, not part of the transaction's footprint, so it is
        // neither buffered nor validated.
        self.open().untracked_load_counted(obj).0
    }

    #[inline]
    fn untracked_cas(&mut self, obj: &CasWord, expected: u64, desired: u64) -> bool {
        // Immediate global effect even mid-transaction: infrastructure CASes
        // (sentinel insertion, directory publication) must survive an abort
        // of the enclosing transaction.
        self.open().untracked_cas(obj, expected, desired)
    }

    #[inline]
    fn write_is_buffered(&self, obj: &CasWord) -> bool {
        // A closed guard's buffer is empty.
        self.h.local_write_index(obj).is_some()
    }

    #[inline]
    fn remember(&mut self, owner: usize, key: u64, word: &CasWord) {
        self.open().memo.remember(owner, key, word);
    }

    #[inline]
    fn recall(&mut self, owner: usize, key: u64) -> Option<*const CasWord> {
        self.open().memo.recall(owner, key)
    }
}

impl std::fmt::Debug for Txn<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Txn")
            .field("tid", &self.h.tid())
            .field("open", &self.h.in_tx())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// RunConfig
// ---------------------------------------------------------------------------

/// Retry policy for [`ThreadHandle::run_with`], built in the builder style.
///
/// Capped exponential backoff is the contention manager: the commit protocol
/// is obstruction-free, a transaction that loses a conflict unwinds to the
/// retry loop, waits (each wait is one `cm_waits` in
/// [`TxStatsSnapshot`](crate::TxStatsSnapshot)) and tries again, and one
/// that keeps losing eventually runs in isolation long enough to commit.
/// The default (used by [`ThreadHandle::run`]) retries forever with the full
/// ladder.  Latency-sensitive callers can bound the retry count (surfaced as
/// [`TxError::RetriesExhausted`](crate::TxError::RetriesExhausted)) and cap
/// how far the backoff escalates.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub(crate) max_retries: Option<u64>,
    pub(crate) backoff_limit: u32,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            max_retries: None,
            backoff_limit: u32::MAX,
        }
    }
}

impl RunConfig {
    /// The default policy: unlimited retries, full exponential backoff.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bounds the number of *retries* (attempts after the first).  When the
    /// budget is exhausted [`ThreadHandle::run_with`] returns
    /// [`TxError::RetriesExhausted`](crate::TxError::RetriesExhausted)
    /// instead of spinning further; 0 means
    /// one attempt, no retry.
    pub fn max_retries(mut self, retries: u64) -> Self {
        self.max_retries = Some(retries);
        self
    }

    /// Caps the exponential-backoff escalation at `limit` doubling steps
    /// (0 = a single spin-loop hint between attempts; the default escalates
    /// all the way to `thread::yield_now`).
    pub fn backoff_limit(mut self, limit: u32) -> Self {
        self.backoff_limit = limit;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::errors::TxError;
    use crate::txmanager::TxManager;

    #[test]
    fn nontx_is_uninstrumented() {
        let mgr = TxManager::new();
        let mut h = mgr.register();
        let w = CasWord::new(1);
        let mut cx = h.nontx();
        assert!(!cx.is_transactional());
        assert_eq!(cx.snapshot_epoch(), None);
        let (v, c) = cx.nbtc_load_counted(&w);
        assert_eq!((v, c), (1, 0));
        // Registration is a no-op; the CAS is a plain counted CAS.
        cx.add_read_with_counter(&w, v, c);
        assert!(cx.nbtc_cas(&w, 1, 2, true, true));
        assert_eq!(w.load_parts(), (2, 2));
    }

    #[test]
    fn nontx_cleanup_runs_immediately_and_abort_action_is_dropped() {
        use std::cell::Cell;
        use std::rc::Rc;
        let mgr = TxManager::new();
        let mut h = mgr.register();
        let ran = Rc::new(Cell::new(0));
        let (r1, r2) = (Rc::clone(&ran), Rc::clone(&ran));
        let mut cx = h.nontx();
        cx.add_cleanup(move |_| r1.set(r1.get() + 1));
        assert_eq!(ran.get(), 1);
        cx.add_abort_action(move |_| r2.set(r2.get() + 100));
        assert_eq!(ran.get(), 1, "standalone abort actions never run");
    }

    #[test]
    fn the_memo_lasts_one_attempt_and_standalone_keeps_none() {
        let mgr = TxManager::new();
        let mut h = mgr.register();
        let (a, b) = (CasWord::new(1), CasWord::new(2));
        let mut cx = h.nontx();
        cx.remember(1, 7, &a);
        assert_eq!(cx.recall(1, 7), None, "standalone remembers nothing");
        let mut t = h.begin();
        assert_eq!(t.recall(1, 7), None);
        t.remember(1, 7, &a);
        t.remember(2, 7, &b);
        assert_eq!(t.recall(1, 7), Some(&a as *const CasWord));
        assert_eq!(t.recall(2, 7), Some(&b as *const CasWord));
        let _ = t.abort(AbortReason::Conflict);
        drop(t);
        let res = h.run(|t| Ok(t.recall(1, 7)));
        assert_eq!(res, Ok(None), "a new attempt starts with nothing");
        let mut t = h.begin();
        t.remember(1, 7, &b);
        assert!(t.commit().is_ok());
        let mut t = h.begin();
        assert_eq!(t.recall(1, 7), None, "nor does one after a commit");
        drop(t);
    }

    #[test]
    fn txn_guard_commits_and_reports_state() {
        let mgr = TxManager::new();
        let mut h = mgr.register();
        let w = CasWord::new(5);
        let mut t = h.begin();
        assert!(t.is_open());
        assert!(t.is_transactional());
        let v = t.nbtc_load(&w);
        assert!(t.nbtc_cas(&w, v, v + 1, true, true));
        assert!(t.commit().is_ok());
        assert_eq!(w.try_load_value(), Some(6));
        assert!(!h.in_tx());
    }

    #[test]
    fn txn_guard_aborts_on_drop() {
        let mgr = TxManager::new();
        let mut h = mgr.register();
        let w = CasWord::new(5);
        {
            let mut t = h.begin();
            assert!(t.nbtc_cas(&w, 5, 9, true, true));
            // Guard falls out of scope without commit.
        }
        assert!(!h.in_tx(), "drop must close the transaction");
        assert_eq!(w.try_load_value(), Some(5), "write rolled back");
        h.flush_stats();
        assert_eq!(mgr.stats_snapshot().unwind_aborts, 1);
    }

    #[test]
    fn explicit_abort_returns_token_and_rolls_back() {
        let mgr = TxManager::new();
        let mut h = mgr.register();
        let w = CasWord::new(5);
        let res: TxResult<()> = h.run(|t| {
            assert!(t.nbtc_cas(&w, 5, 6, true, true));
            Err(t.abort(AbortReason::Explicit))
        });
        assert_eq!(res, Err(TxError::Explicit));
        assert_eq!(w.try_load_value(), Some(5));
        h.flush_stats();
        let snap = mgr.stats_snapshot();
        assert_eq!(snap.explicit_aborts, 1);
        assert_eq!(snap.unwind_aborts, 0, "aborted guard must not double-count");
    }

    #[test]
    fn conflict_abort_retries() {
        let mgr = TxManager::new();
        let mut h = mgr.register();
        let w = CasWord::new(0);
        let mut attempts = 0;
        let res = h.run(|t| {
            attempts += 1;
            let v = t.nbtc_load(&w);
            if attempts < 3 {
                return Err(t.abort(AbortReason::Conflict));
            }
            assert!(t.nbtc_cas(&w, v, v + 1, true, true));
            Ok(v + 1)
        });
        assert_eq!(res, Ok(1));
        assert_eq!(attempts, 3);
        h.flush_stats();
        let snap = mgr.stats_snapshot();
        assert_eq!(snap.conflict_aborts, 2);
        assert_eq!(snap.cm_waits, 2, "each retry is paced by one backoff wait");
    }

    #[test]
    fn run_with_bounded_retries_exhausts() {
        let mgr = TxManager::new();
        let mut h = mgr.register();
        let cfg = RunConfig::new().max_retries(3).backoff_limit(0);
        let mut attempts = 0;
        let res: TxResult<()> = h.run_with(&cfg, |t| {
            attempts += 1;
            Err(t.abort(AbortReason::Conflict))
        });
        assert_eq!(res, Err(TxError::RetriesExhausted));
        assert_eq!(attempts, 4, "one initial attempt plus three retries");
        assert!(!h.in_tx());
    }

    #[test]
    fn commit_after_abort_reports_the_abort_instead_of_panicking() {
        let mgr = TxManager::new();
        let mut h = mgr.register();
        let mut t = h.begin();
        let _ = t.abort(AbortReason::Explicit);
        assert_eq!(t.commit(), Err(TxError::Explicit));
        let mut t = h.begin();
        let _ = t.abort(AbortReason::Conflict);
        assert_eq!(t.commit(), Err(TxError::Conflict));
        assert!(!h.in_tx());
    }

    #[test]
    fn stale_abort_token_still_closes_the_transaction() {
        // A body that smuggles a token from an earlier `run` and returns it
        // without aborting: `run` must close the open transaction under the
        // token's reason (not leave it to the unwind guard).
        let mgr = TxManager::new();
        let mut h = mgr.register();
        let w = CasWord::new(1);
        let mut stale: Option<crate::errors::Abort> = None;
        let _: TxResult<()> = h.run(|t| {
            stale = Some(t.abort(AbortReason::Explicit));
            Err(stale.unwrap())
        });
        let res: TxResult<()> = h.run(|t| {
            assert!(t.nbtc_cas(&w, 1, 2, true, true));
            Err(stale.unwrap()) // transaction still open here
        });
        assert_eq!(res, Err(TxError::Explicit));
        assert!(!h.in_tx());
        assert_eq!(w.try_load_value(), Some(1), "open tx must be rolled back");
        h.flush_stats();
        let snap = mgr.stats_snapshot();
        assert_eq!(
            snap.unwind_aborts, 0,
            "stale token must not be classified as an unwind abort"
        );
        assert_eq!(snap.explicit_aborts, 2);
    }

    #[test]
    fn panic_inside_operation_body_does_not_leak_the_op_pin() {
        // A panicking `V::clone` (or user closure) inside `with_op` must not
        // leave the EBR pin held — a leaked pin stalls epoch reclamation for
        // the whole process.
        let mgr = TxManager::new();
        let mut h = mgr.register();
        let w = CasWord::new(1);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut cx = h.nontx();
            cx.with_op(|cx| {
                let _ = cx.nbtc_load(&w);
                panic!("boom inside a standalone operation");
            })
        }));
        assert!(result.is_err());
        assert_eq!(h.pin_depth(), 0, "standalone op pin leaked on unwind");

        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _: TxResult<()> = h.run(|t| {
                t.with_op(|t| {
                    let _ = t.nbtc_load(&w);
                    panic!("boom inside a transactional operation");
                })
            });
        }));
        assert!(result.is_err());
        assert!(!h.in_tx());
        assert_eq!(h.pin_depth(), 0, "transactional op pin leaked on unwind");
    }

    #[test]
    fn operation_through_an_aborted_guard_panics_and_touches_nothing() {
        let mgr = TxManager::new();
        let mut h = mgr.register();
        let w = CasWord::new(1);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _: TxResult<()> = h.run(|t| {
                let _ = t.abort(AbortReason::Conflict);
                assert!(!t.is_open());
                assert!(!t.write_is_buffered(&w));
                t.with_op(|t| {
                    t.nbtc_cas(&w, 1, 7, true, true);
                });
                Ok(())
            });
        }));
        assert!(result.is_err(), "a closed guard must refuse the CAS");
        assert_eq!(w.load_parts(), (1, 0), "the word was never touched");
        assert!(!h.in_tx());
        assert_eq!(h.pin_depth(), 0);
        let res = h.run(|t| Ok(t.nbtc_cas(&w, 1, 2, true, true)));
        assert_eq!(res, Ok(true), "the handle stays usable");
        assert_eq!(w.try_load_value(), Some(2));
    }

    #[test]
    fn body_that_aborts_and_returns_ok_is_treated_as_aborted() {
        let mgr = TxManager::new();
        let mut h = mgr.register();
        let w = CasWord::new(1);
        let mut attempts = 0;
        let res = h.run(|t| {
            attempts += 1;
            assert!(t.nbtc_cas(&w, 1, 7, true, true));
            if attempts == 1 {
                let _ = t.abort(AbortReason::Conflict);
            }
            Ok(attempts)
        });
        assert_eq!(res, Ok(2), "a swallowed conflict abort is retried");
        assert_eq!(w.try_load_value(), Some(7));
        let res = h.run(|t| {
            assert!(t.nbtc_cas(&w, 7, 9, true, true));
            let _ = t.abort(AbortReason::Explicit);
            Ok(())
        });
        assert_eq!(res, Err(TxError::Explicit));
        assert_eq!(w.load_parts(), (7, 2), "only the one commit wrote");
    }
}
