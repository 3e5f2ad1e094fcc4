//! The transaction manager and per-thread handles.
//!
//! [`TxManager`] owns one pre-allocated descriptor per thread slot plus the
//! epoch-based reclamation domain; it is shared (via `Arc`) among all
//! transactional data structures that may participate in the same
//! transactions, exactly like the `TxManager*` the paper's `Composable`
//! objects share.
//!
//! [`ThreadHandle`] is the per-thread capability through which every
//! operation runs.  It combines the roles of the paper's `OpStarter`
//! (per-operation instrumentation gate + SMR pin), the thread-local
//! descriptor pointer, and the thread-local `cleanups` / `allocs` lists.
//! Nothing executes on a bare handle: [`ThreadHandle::nontx`] lends it to a
//! standalone context and [`ThreadHandle::begin`] / [`ThreadHandle::run`] to
//! a transactional one (see [`Ctx`](crate::Ctx)).
//!
//! The engines behind those contexts — the standalone `untracked_*` pair and
//! the transactional `tx_load_counted` / `tx_cas` / `add_read_with_counter` /
//! `commit` — live here as crate-private methods on the handle: they need
//! mutable access to per-thread state (speculation-interval flag, read and
//! write buffers), which maps naturally onto `&mut self`.

use crate::atomic128::{pack, unpack};
use crate::casobj::CasWord;
use crate::ctx::{RunConfig, Txn};
use crate::deferred::{self, Deferred};
use crate::descriptor::{Desc, Status};
use crate::ebr::{self, drop_boxed, DropFn};
use crate::errors::{Abort, AbortReason, TxError, TxResult};
use crate::memo::Memo;
use crate::util::{Backoff, CachePadded};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Sentinel counter recorded for loads that returned one of the transaction's
/// own speculative values; such loads never need read-set validation.
const OWN_SPECULATIVE: u64 = u64::MAX;

/// How many commit/abort/help events a [`ThreadHandle`] accumulates locally
/// before flushing them into the manager's shared counters.  Batching keeps
/// the commit fast paths free of shared-cache-line traffic; exact global
/// counts are available after [`ThreadHandle::flush_stats`] (called
/// automatically when a handle is dropped).
const STATS_FLUSH_EVERY: u64 = 64;

/// Declares the runtime's counters, once: each entry is a public field of
/// [`TxStatsSnapshot`] (with its documentation) and the [`Stat`] slot it
/// occupies in the manager's shared array and in every handle's tallies.
macro_rules! tx_counters {
    ($($(#[$doc:meta])* $field:ident = $stat:ident,)*) => {
        /// A counter's slot in [`TxManager`]'s shared array and in each
        /// [`ThreadHandle`]'s unflushed tallies.
        #[derive(Clone, Copy)]
        enum Stat {
            $($stat,)*
        }

        const STATS: usize = [$(Stat::$stat,)*].len();

        /// A point-in-time copy of a [`TxManager`]'s counters
        /// ([`TxManager::stats_snapshot`]).
        #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
        pub struct TxStatsSnapshot {
            $($(#[$doc])* pub $field: u64,)*
        }

        impl TxStatsSnapshot {
            /// The counters in declaration order, which is also their order
            /// in the manager's shared array and on the `STATS` wire reply.
            pub fn to_array(&self) -> [u64; STATS] {
                [$(self.$field,)*]
            }

            /// The inverse of [`TxStatsSnapshot::to_array`].
            pub fn from_array([$($field,)*]: [u64; STATS]) -> Self {
                Self { $($field,)* }
            }
        }
    };
}

tx_counters! {
    /// Transactions that committed (via any path).
    commits = Commits,
    /// Transactions that aborted (for any reason).
    aborts = Aborts,
    /// Times a thread finalized (helped or aborted) another thread's
    /// descriptor.
    helps = Helps,
    /// Commits that took the single-CAS direct path: exactly one write-set
    /// entry, committed with one plain 128-bit CAS and no descriptor
    /// installation (subset of `commits`).
    fast_commits = FastCommits,
    /// Commits of read-only transactions: validated their read set and
    /// committed with zero shared-memory writes (subset of `commits`).
    ro_commits = RoCommits,
    /// Commits that took the general M-compare-N-swap path: published their
    /// write set into the descriptor, installed it on every written word,
    /// validated their reads and decided with one status CAS (subset of
    /// `commits`; `commits` =
    /// `fast_commits + ro_commits + general_commits`).
    general_commits = GeneralCommits,
    /// Aborts caused by losing a conflict — another transaction's write
    /// invalidated a read, a buffered write lost its word, or a helper
    /// aborted the descriptor (subset of `aborts`).
    conflict_aborts = ConflictAborts,
    /// Aborts requested by the program through
    /// [`Txn::abort`](crate::Txn::abort) with [`AbortReason::Explicit`]
    /// (subset of `aborts`).
    explicit_aborts = ExplicitAborts,
    /// Aborts because the transaction overflowed the descriptor's read/write
    /// set capacity (subset of `aborts`).
    capacity_aborts = CapacityAborts,
    /// Aborts performed by a [`Txn`] drop guard unwinding out of
    /// a panicking transaction body, or by a [`ThreadHandle`] dropped
    /// mid-transaction (subset of `aborts`).
    unwind_aborts = UnwindAborts,
    /// Contention-manager waits: one per conflict retry paced by the capped
    /// exponential backoff of [`ThreadHandle::run_with`].
    cm_waits = CmWaits,
}

/// Internal classification of why an abort happened (surfaces in
/// [`TxStatsSnapshot`] as the per-reason abort counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AbortKind {
    /// Lost a conflict (validation failure, stolen word, helper abort).
    Conflict,
    /// The program asked for the abort.
    Explicit,
    /// Descriptor capacity overflow.
    Capacity,
    /// A drop guard aborted on unwind (panic) or handle teardown.
    Unwind,
}

/// Shared transaction-management state (paper `TxManager`).
pub struct TxManager {
    descs: Box<[CachePadded<Desc>]>,
    slot_in_use: Box<[AtomicBool]>,
    collector: Arc<ebr::Collector>,
    epoch_word: CachePadded<CasWord>,
    epoch_validation: AtomicBool,
    /// One counter per [`Stat`], each on its own pair of cache lines so that
    /// threads flushing different counters never false-share.
    stats: [CachePadded<AtomicU64>; STATS],
}

impl std::fmt::Debug for TxManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TxManager")
            .field("max_threads", &self.descs.len())
            .field(
                "epoch_validation",
                &self.epoch_validation.load(Ordering::Relaxed),
            )
            .finish()
    }
}

impl TxManager {
    /// Default number of thread slots.
    pub const DEFAULT_MAX_THREADS: usize = 128;

    /// Creates a manager with the default number of thread slots.
    pub fn new() -> Arc<Self> {
        Self::with_max_threads(Self::DEFAULT_MAX_THREADS)
    }

    /// Creates a manager able to serve up to `max_threads` concurrently
    /// registered handles.
    pub fn with_max_threads(max_threads: usize) -> Arc<Self> {
        assert!(
            (1..(1 << 14)).contains(&max_threads),
            "tid must fit in 14 bits"
        );
        let descs = (0..max_threads)
            .map(|tid| CachePadded::new(Desc::new(tid as u64)))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        let slot_in_use = (0..max_threads)
            .map(|_| AtomicBool::new(false))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Arc::new(Self {
            descs,
            slot_in_use,
            collector: ebr::Collector::new(max_threads),
            epoch_word: CachePadded::new(CasWord::new(0)),
            epoch_validation: AtomicBool::new(false),
            stats: Default::default(),
        })
    }

    /// Registers the calling thread and returns its handle.
    ///
    /// # Panics
    /// Panics if all thread slots are taken.
    pub fn register(self: &Arc<Self>) -> ThreadHandle {
        for (tid, flag) in self.slot_in_use.iter().enumerate() {
            if flag
                .compare_exchange(false, true, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                let participant = self.collector.register();
                let desc_ptr: *const Desc = &*self.descs[tid];
                return ThreadHandle {
                    mgr: Arc::clone(self),
                    tid,
                    desc_ptr,
                    participant,
                    in_tx: false,
                    spec_interval: false,
                    serial: 0,
                    snapshot_epoch: 0,
                    capacity_exceeded: false,
                    local_writes: Vec::new(),
                    write_filter: 0,
                    local_reads: Vec::new(),
                    memo: Memo::new(),
                    cleanups: Vec::new(),
                    abort_actions: Vec::new(),
                    allocs: Vec::new(),
                    retires: Vec::new(),
                    tallies: [0; STATS],
                    stat_unflushed: 0,
                    last_run_attempts: 0,
                };
            }
        }
        panic!("TxManager: thread slots exhausted");
    }

    /// A point-in-time copy of the aggregate statistics — the one place that
    /// sums the per-thread counter flushes into a coherent snapshot.
    ///
    /// Counters are batched per handle (see [`ThreadHandle::flush_stats`]),
    /// so a snapshot taken while handles are live may lag each handle by up
    /// to a flush batch; counts are exact once the contributing handles have
    /// been dropped (drop flushes) or explicitly flushed.  The commit-path
    /// counters partition `commits`: `commits == fast_commits + ro_commits +
    /// general_commits` holds on every exact snapshot.
    pub fn stats_snapshot(&self) -> TxStatsSnapshot {
        TxStatsSnapshot::from_array(std::array::from_fn(|i| {
            self.stats[i].load(Ordering::Relaxed)
        }))
    }

    /// Number of thread slots this manager was created with.
    ///
    /// Thread-slot ids handed out by [`TxManager::register`] are always in
    /// `0..max_threads()`, and at most one live [`ThreadHandle`] holds a
    /// given slot at a time.  Per-slot side structures (such as the payload
    /// arenas of `pmem::PersistenceDomain`) size themselves from this value
    /// and index by [`ThreadHandle::tid`]: registration through the manager
    /// is what makes a slot's arena single-writer.
    pub fn max_threads(&self) -> usize {
        self.descs.len()
    }

    /// Current value of the persistence epoch.
    pub fn current_epoch(&self) -> u64 {
        self.epoch_word.load_parts().0
    }

    /// Advances the persistence epoch by one, returning the new value.
    pub fn advance_epoch(&self) -> u64 {
        loop {
            let (v, _) = self.epoch_word.load_parts();
            if self.epoch_word.cas_value(v, v + 1) {
                return v + 1;
            }
        }
    }

    /// Enables or disables folding the persistence-epoch check into every
    /// transaction's read set (txMontage hook).  `pmem`'s epoch system
    /// advances the epoch word; while this is enabled every transaction reads
    /// it when it begins and validates it at commit, which guarantees that
    /// all operations of a transaction linearize in the same persistence
    /// epoch (paper Sec. 4.4).
    pub fn set_epoch_validation(&self, enabled: bool) {
        self.epoch_validation.store(enabled, Ordering::SeqCst);
    }

    /// Whether epoch validation is currently enabled.
    pub fn epoch_validation_enabled(&self) -> bool {
        self.epoch_validation.load(Ordering::SeqCst)
    }
}

/// One critical CAS of the open transaction, buffered in plain thread-local
/// memory (the owner-private hot path of the lazy-publication pipeline).
///
/// *Every* critical CAS lands here first — not just the first one, as in the
/// earlier single-buffer design.  Nothing is published while the transaction
/// executes: loads of a buffered word return `new_val` (read-your-own-write),
/// rewrites update `new_val` in place, and other threads see the untouched
/// pre-image.  At commit the buffer decides the path:
///
/// * empty → descriptor-free read-only commit;
/// * one entry whose pre-image subsumes the read set → single plain 128-bit
///   CAS from `(old_val, cnt)` to `(new_val, cnt + 2)`, exactly the
///   transition a standalone `nbtc_cas` would make;
/// * otherwise → the entries are published into the descriptor, the
///   descriptor is installed over each recorded pre-image, and the owner
///   validates its reads and decides with one status CAS (general path).
#[derive(Debug, Clone, Copy)]
struct LocalWrite {
    addr: *const CasWord,
    old_val: u64,
    cnt: u64,
    new_val: u64,
}

/// Per-thread handle used to execute operations and transactions.
///
/// Not `Send`/`Sync`: each thread registers its own handle with
/// [`TxManager::register`].
pub struct ThreadHandle {
    mgr: Arc<TxManager>,
    tid: usize,
    desc_ptr: *const Desc,
    participant: ebr::Participant,
    in_tx: bool,
    spec_interval: bool,
    serial: u64,
    snapshot_epoch: u64,
    /// The read or write set outgrew the descriptor: the commit is guaranteed
    /// to fail, but operations keep executing as in any transaction (every
    /// critical CAS is still buffered), so container retry loops stay live.
    capacity_exceeded: bool,
    /// The transaction's write set, buffered in plain thread-local memory.
    /// Addresses are unique (a second CAS on a buffered word rewrites its
    /// entry in place), and nothing is published until commit.  See
    /// [`LocalWrite`].
    local_writes: Vec<LocalWrite>,
    /// 64-bit Bloom filter over the addresses in `local_writes`: a load
    /// whose address misses the filter provably has no buffered write, so
    /// the read-your-own-write lookup skips the linear scan.  Large
    /// transactions (TPC-C) would otherwise pay O(write-set) per load.
    write_filter: u64,
    /// The transaction's read set, buffered in plain thread-local memory as
    /// `(addr, value, counter)`.  It is never published: every commit path,
    /// the general one included, validates this buffer on the owner's
    /// thread.
    local_reads: Vec<(usize, u64, u64)>,
    /// The value words the transaction's lookups found (`Ctx::remember`).
    pub(crate) memo: Memo,
    cleanups: Vec<Deferred>,
    abort_actions: Vec<Deferred>,
    /// Blocks `tnew`ed by the open transaction: freed on abort, the
    /// structures' on commit.
    allocs: Vec<(*mut u8, DropFn)>,
    /// Blocks `tretire`d by the open transaction: handed to the limbo bag on
    /// commit, left where they are on abort.
    retires: Vec<(*mut u8, DropFn)>,
    /// Counter events not yet flushed into `TxManager::stats`, by [`Stat`].
    tallies: [u64; STATS],
    stat_unflushed: u64,
    /// Attempt count of the most recently finished `run_with` (1 = committed
    /// first try).  Consumed by [`ThreadHandle::take_last_attempts`] so
    /// service layers can attribute retries to the request that paid them.
    last_run_attempts: u64,
}

impl std::fmt::Debug for ThreadHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadHandle")
            .field("tid", &self.tid)
            .field("in_tx", &self.in_tx)
            .field("serial", &self.serial)
            .finish()
    }
}

impl ThreadHandle {
    #[inline]
    fn desc(&self) -> &Desc {
        // SAFETY: `desc_ptr` points into `self.mgr.descs`, which lives as long
        // as the `Arc<TxManager>` this handle holds.
        unsafe { &*self.desc_ptr }
    }

    /// The thread-slot id of this handle.
    #[inline]
    pub fn tid(&self) -> usize {
        self.tid
    }

    /// Whether a transaction is currently open on this handle.
    #[inline]
    pub fn in_tx(&self) -> bool {
        self.in_tx
    }

    /// The persistence epoch the open transaction observed when it began
    /// (meaningful only when epoch validation is enabled).
    #[inline]
    pub(crate) fn snapshot_epoch(&self) -> u64 {
        self.snapshot_epoch
    }

    #[inline]
    fn count(&mut self, stat: Stat) {
        self.tallies[stat as usize] += 1;
    }

    // ------------------------------------------------------------------
    // Operation bracket (paper `OpStarter`), the halves `Ctx::with_op` is
    // made of
    // ------------------------------------------------------------------

    /// Pins the SMR epoch for the duration of one operation.
    #[inline]
    pub(crate) fn pin_op(&mut self) {
        self.participant.pin();
    }

    /// Unpins the SMR epoch at the end of an operation.
    #[inline]
    pub(crate) fn unpin_op(&mut self) {
        self.participant.unpin();
    }

    /// Resets the per-operation speculation-interval flag (the paper's
    /// `OpStarter` reset).
    #[inline]
    pub(crate) fn clear_spec_interval(&mut self) {
        self.spec_interval = false;
    }

    /// Current SMR pin-nesting depth of this handle (diagnostics/tests).
    #[cfg(test)]
    pub(crate) fn pin_depth(&self) -> usize {
        self.participant.pin_depth()
    }

    // ------------------------------------------------------------------
    // Transaction control (paper `txBegin` / `txEnd`)
    // ------------------------------------------------------------------

    /// Opens a transaction and returns its [`Txn`] guard (paper `txBegin`).
    ///
    /// While the guard is alive the handle is mutably borrowed, so a second
    /// `begin` (or any standalone [`NonTx`](crate::NonTx) access) on the same
    /// handle is a *compile-time* error.  If the guard is dropped without
    /// [`Txn::commit`] — including by a panic unwinding through the
    /// transaction body — the transaction is aborted and the handle stays
    /// reusable.
    ///
    /// Most code should use [`ThreadHandle::run`], which adds the retry loop;
    /// `begin` is for callers that need manual commit control.
    ///
    /// # Panics
    /// Panics if a transaction is already open on this handle (its guard was
    /// leaked with `mem::forget`).
    pub fn begin(&mut self) -> Txn<'_> {
        assert!(!self.in_tx, "nested transactions are not supported");
        self.desc().begin();
        self.serial = self.desc().serial();
        self.in_tx = true;
        self.spec_interval = false;
        self.capacity_exceeded = false;
        self.local_writes.clear();
        self.write_filter = 0;
        self.local_reads.clear();
        self.memo.clear();
        debug_assert!(self.cleanups.is_empty());
        debug_assert!(self.allocs.is_empty());
        debug_assert!(self.retires.is_empty());
        self.participant.pin();
        if self.mgr.epoch_validation_enabled() {
            let (epoch, cnt) = self.mgr.epoch_word.load_parts();
            self.snapshot_epoch = epoch;
            // Folding the epoch check into the MCNS read set is all txMontage
            // needs for failure atomicity (paper Sec. 4.4).
            let addr = &*self.mgr.epoch_word as *const CasWord as usize;
            self.local_reads.push((addr, epoch, cnt));
        }
        Txn::new(self)
    }

    /// Attempts to commit the open transaction (the engine of
    /// [`Txn::commit`]).
    ///
    /// On success the speculative writes of all constituent operations become
    /// visible atomically and the registered cleanup closures run.  On
    /// failure everything is rolled back.
    ///
    /// Three commit paths exist, tried cheapest-first.  The whole execution
    /// phase ran against private thread-local buffers (`local_reads` /
    /// `local_writes`); nothing has been published yet, so this function owns
    /// the entire publication decision:
    ///
    /// 1. **Read-only** — the write buffer is empty: the recorded
    ///    `(addr, value, counter)` reads are re-validated and the transaction
    ///    commits with *zero* shared-memory writes; the `tid|serial|status`
    ///    word is never touched and no helper can ever observe the
    ///    transaction.
    /// 2. **Single-CAS direct** — the write buffer holds exactly one entry
    ///    whose pre-image subsumes the read set: the write commits with one
    ///    plain 128-bit CAS bumping the even counter by 2, exactly like a
    ///    non-transactional update.  Contention (the word changed, or a
    ///    descriptor of another transaction is installed and survives
    ///    helping) falls back to a conflict abort, and
    ///    [`ThreadHandle::run`] retries as needed.
    /// 3. **General** — the buffered writes are published into the
    ///    descriptor's seqlock-stamped entries, the descriptor is installed
    ///    over each write's recorded pre-image, the owner validates its
    ///    reads, decides with one status CAS `InPrep → Committed` and
    ///    uninstalls.  Any thread that meets the undecided descriptor may
    ///    abort it, which makes that CAS fail.
    pub(crate) fn commit(&mut self) -> TxResult<()> {
        debug_assert!(self.in_tx, "commit without an open transaction");
        if self.capacity_exceeded {
            self.abort_with(AbortKind::Capacity);
            return Err(TxError::CapacityExceeded);
        }
        // Fast path 1: descriptor-free read-only commit.
        if self.local_writes.is_empty() {
            if self.validate_local_reads() {
                self.commit_tail(Stat::RoCommits);
                return Ok(());
            }
            self.abort_with(AbortKind::Conflict);
            return Err(TxError::Conflict);
        }
        // Fast path 2: single-CAS direct commit of the buffered write.
        //
        // Serializability constraint: the direct commit orders the
        // transaction at its commit CAS, but nothing pins the read set
        // between validation and that CAS (the buffered write is
        // invisible, so concurrent symmetric transactions could all
        // validate and then all commit — write skew).  The general path
        // closes exactly this window by installing the descriptor on
        // every write word *before* validating.  The direct commit is
        // therefore taken only when the commit CAS itself subsumes read
        // validation: the read set is empty, or every read is of the
        // written word's own pre-image (in which case the ABA-safe
        // `(value, counter)` check of the commit CAS *is* the
        // validation, atomically at the linearization point).  Note the
        // txMontage epoch read registered by `begin` counts as a
        // foreign read, so epoch-validated transactions always publish a
        // descriptor.
        if self.local_writes.len() == 1 {
            let pw = self.local_writes[0];
            let reads_subsumed = self.local_reads.iter().all(|&(addr, val, cnt)| {
                addr == pw.addr as usize && val == pw.old_val && cnt == pw.cnt
            });
            if reads_subsumed {
                // SAFETY: the word was passed to `nbtc_cas` during this
                // transaction and is protected by the EBR pin held since
                // `begin`.
                let obj = unsafe { &*pw.addr };
                loop {
                    let (_, val, cnt) = self.load_settled(obj);
                    if val != pw.old_val || cnt != pw.cnt {
                        self.abort_with(AbortKind::Conflict);
                        return Err(TxError::Conflict);
                    }
                    if obj.cas_value_counted(pw.old_val, pw.cnt, pw.new_val) {
                        self.commit_tail(Stat::FastCommits);
                        return Ok(());
                    }
                    // The word changed between load and CAS; re-examine.
                }
            }
        }
        self.commit_general()
    }

    /// The general commit path: publish writes, install, decide, uninstall
    /// (see the `descriptor` module docs for the lifecycle).  This is the
    /// only place in the runtime where the descriptor becomes visible to
    /// other threads.
    ///
    /// Every written word is held by the descriptor from its install until
    /// the decision, and each read was unchanged from its load until its
    /// validation load, so the transaction linearizes at its first
    /// validation load.  Write skew stays excluded because each of two
    /// symmetric transactions installs before it validates.
    fn commit_general(&mut self) -> TxResult<()> {
        // Publish the write set: a helper that aborts us needs it to
        // uninstall the moment the first install CAS lands.
        if !self.publish_writes() {
            self.capacity_exceeded = true;
            self.abort_with(AbortKind::Capacity);
            return Err(TxError::CapacityExceeded);
        }
        // Install: CAS the descriptor straight over each recorded pre-image.
        // A failed CAS is a lost conflict, whatever the word holds now:
        // counters only grow, so it can never hold the pre-image again.  A
        // foreign descriptor met there is left to its owner — finalizing it
        // could not save this commit, only abort that one too; the retry's
        // loads help it if it is still there.  Installed prefixes are rolled
        // back by the uninstall inside `abort_with`.
        let me = self.desc().as_payload();
        let lost = self.local_writes.iter().any(|w| {
            // SAFETY: the word is protected by the EBR pin held since
            // `begin`.
            let obj = unsafe { &*w.addr };
            !obj.raw()
                .cas(pack(w.old_val, w.cnt), pack(me, w.cnt.wrapping_add(1)))
        });
        if lost {
            self.abort_with(AbortKind::Conflict);
            return Err(TxError::Conflict);
        }
        crate::failpoint!("txmanager::validate");
        // Decide: the owner alone validates its reads.  A helper may abort
        // us meanwhile, and then the status CAS fails.
        if !self.validate_local_reads() || !self.desc().decide_own(self.serial, Status::Committed) {
            self.abort_with(AbortKind::Conflict);
            return Err(TxError::Conflict);
        }
        // Uninstall from the owner's own buffer; a helper that got here
        // first made these CASes fail harmlessly.
        for w in &self.local_writes {
            // SAFETY: as for the install.
            let obj = unsafe { &*w.addr };
            let _ = obj.raw().cas(
                pack(me, w.cnt.wrapping_add(1)),
                pack(w.new_val, w.cnt.wrapping_add(2)),
            );
        }
        self.commit_tail(Stat::GeneralCommits);
        Ok(())
    }

    /// Publishes the buffered write set into the descriptor's stamped
    /// entries (lazy publication: this runs once per general-path commit,
    /// never during execution; the read set is never published).  Returns
    /// `false` on capacity overflow.
    fn publish_writes(&self) -> bool {
        let serial = self.serial;
        let desc = self.desc();
        self.local_writes
            .iter()
            .all(|w| desc.push_write(serial, w.addr, w.old_val, w.cnt, w.new_val))
    }

    /// Common post-commit bookkeeping: releases transactional state, tallies
    /// the commit under the counter of the `path` it took, runs the
    /// registered cleanups and unpins (even if a cleanup panics).
    fn commit_tail(&mut self, path: Stat) {
        self.in_tx = false;
        self.spec_interval = false;
        self.local_writes.clear();
        // Ownership of tnew-ed blocks passes to the structures.
        self.allocs.clear();
        self.abort_actions.clear();
        for (ptr, drop_fn) in self.retires.drain(..) {
            // SAFETY: the contract of `tretire`, whose unlink has committed.
            unsafe { self.participant.retire_erased(ptr, drop_fn) };
        }
        self.count(Stat::Commits);
        self.count(path);
        self.note_stat_event();
        if self.cleanups.is_empty() {
            self.participant.unpin();
        } else {
            deferred::run_then_unpin(self, |h| &mut h.cleanups);
        }
    }

    /// Flushes the per-thread statistic tallies into the manager's shared
    /// counters.  Called automatically every `STATS_FLUSH_EVERY` events and
    /// when the handle is dropped; call it explicitly before
    /// [`TxManager::stats_snapshot`] if exact counts are needed while this
    /// handle is still live.
    pub fn flush_stats(&mut self) {
        for (local, shared) in self.tallies.iter_mut().zip(&self.mgr.stats) {
            if *local > 0 {
                shared.fetch_add(std::mem::take(local), Ordering::Relaxed);
            }
        }
        self.stat_unflushed = 0;
    }

    #[inline]
    fn note_stat_event(&mut self) {
        self.stat_unflushed += 1;
        if self.stat_unflushed >= STATS_FLUSH_EVERY {
            self.flush_stats();
        }
    }

    /// Validates the read set of the open transaction (the engine of
    /// [`Txn::validate_reads`]).  Also reports `false` once the transaction
    /// is doomed (its read or write set overflowed): the commit cannot
    /// succeed.
    pub(crate) fn validate_reads(&self) -> bool {
        !self.capacity_exceeded && self.validate_local_reads()
    }

    /// Runs `body` as a transaction under the default [`RunConfig`]:
    /// conflicts retry forever with exponential backoff, explicit aborts are
    /// returned as [`TxError::Explicit`], and capacity overflows as
    /// [`TxError::CapacityExceeded`].
    ///
    /// The body receives a [`Txn`] execution context; container operations
    /// called through it compose into one atomic transaction.  The guard
    /// cannot escape the closure (its lifetime is higher-ranked), and a panic
    /// inside the body aborts the transaction on unwind instead of leaking an
    /// installed descriptor.
    pub fn run<R>(&mut self, body: impl FnMut(&mut Txn<'_>) -> Result<R, Abort>) -> TxResult<R> {
        self.run_with(&RunConfig::default(), body)
    }

    /// Runs `body` as a transaction under an explicit retry policy.
    ///
    /// ```
    /// use medley::{Ctx, RunConfig, TxManager};
    ///
    /// let mgr = TxManager::new();
    /// let mut h = mgr.register();
    /// let w = medley::CasWord::new(5);
    /// let cfg = RunConfig::new().max_retries(16).backoff_limit(4);
    /// let doubled = h.run_with(&cfg, |t| {
    ///     let v = t.nbtc_load(&w);
    ///     t.nbtc_cas(&w, v, v * 2, true, true);
    ///     Ok(v * 2)
    /// });
    /// assert_eq!(doubled, Ok(10));
    /// ```
    #[inline]
    pub fn run_with<R>(
        &mut self,
        cfg: &RunConfig,
        mut body: impl FnMut(&mut Txn<'_>) -> Result<R, Abort>,
    ) -> TxResult<R> {
        let mut backoff = Backoff::with_limit(cfg.backoff_limit);
        let mut attempts: u64 = 0;
        loop {
            attempts += 1;
            let mut txn = self.begin();
            let outcome = match body(&mut txn) {
                // `commit` also reports an abort the body recorded without
                // returning its token.
                Ok(value) => txn.commit().map(|()| value),
                Err(abort) => {
                    // `Abort` normally proves the body already rolled the
                    // transaction back (the token only comes from
                    // `Txn::abort`).  A stale token smuggled in from an
                    // earlier attempt can arrive with the transaction still
                    // open, though — close it under the token's reason so
                    // the statistics classify it correctly rather than as an
                    // unwind abort of the guard drop.
                    if txn.is_open() {
                        let _ = txn.abort(abort.reason());
                    }
                    drop(txn);
                    Err(match abort.reason() {
                        AbortReason::Explicit => TxError::Explicit,
                        AbortReason::Conflict => TxError::Conflict,
                    })
                }
            };
            match outcome {
                Err(TxError::Conflict) => {}
                done => {
                    self.last_run_attempts = attempts;
                    return done;
                }
            }
            // Lost a conflict: the contention manager is capped exponential
            // backoff, one counted wait per retry.
            if let Some(max) = cfg.max_retries {
                if attempts > max {
                    self.last_run_attempts = attempts;
                    return Err(TxError::RetriesExhausted);
                }
            }
            self.count(Stat::CmWaits);
            self.note_stat_event();
            backoff.backoff();
        }
    }

    /// Returns the attempt count of the most recent [`run`](Self::run) /
    /// [`run_with`](Self::run_with) call and resets it to zero — a committed
    /// first try reads 1, N−1 conflict retries read N.  Point operations
    /// that never enter `run_with` leave it at 0, so a service layer can
    /// call this after *any* command and charge the retries (attempts beyond
    /// the first) to the request that incurred them without threading
    /// counters through every execution path.
    #[inline]
    pub fn take_last_attempts(&mut self) -> u64 {
        std::mem::take(&mut self.last_run_attempts)
    }

    /// Aborts the open transaction, recording `kind` in the per-reason abort
    /// statistics.
    #[inline]
    pub(crate) fn abort_with(&mut self, kind: AbortKind) {
        self.count(match kind {
            AbortKind::Conflict => Stat::ConflictAborts,
            AbortKind::Explicit => Stat::ExplicitAborts,
            AbortKind::Capacity => Stat::CapacityAborts,
            AbortKind::Unwind => Stat::UnwindAborts,
        });
        // Buffered writes that were never published: dropping them is the
        // rollback (any that *were* installed are rolled back by the
        // uninstall below).
        self.local_writes.clear();
        // Only the owner commits, so this either decides the abort or finds
        // a helper's abort already decided.
        let desc = self.desc();
        desc.decide_own(self.serial, Status::Aborted);
        desc.uninstall(self.serial, Status::Aborted);
        // Undo tnew allocations: they were never published (speculative
        // installs have just been rolled back), so immediate free is safe.
        for (ptr, drop_fn) in self.allocs.drain(..) {
            // SAFETY: allocated by `tnew` on this thread and never handed to
            // any other thread.
            unsafe { drop_fn(ptr) };
        }
        self.cleanups.clear();
        // What was to be retired stays reachable: its unlink never happened.
        self.retires.clear();
        self.in_tx = false;
        self.spec_interval = false;
        self.count(Stat::Aborts);
        self.note_stat_event();
        if self.abort_actions.is_empty() {
            self.participant.unpin();
        } else {
            deferred::run_then_unpin(self, |h| &mut h.abort_actions);
        }
    }

    // ------------------------------------------------------------------
    // Composable support (paper `Composable` base class): the engines
    // behind `Txn`.  Each assumes an open transaction — `Txn` refuses the
    // calls of a closed guard before they get here.
    // ------------------------------------------------------------------

    /// Registers a read for commit-time validation: `val` and `cnt` must be
    /// the pair returned by a preceding [`ThreadHandle::tx_load_counted`]
    /// of `obj` — the linearizing load of a read-only operation.
    #[inline]
    pub(crate) fn add_read_with_counter(&mut self, obj: &CasWord, val: u64, cnt: u64) {
        if cnt == OWN_SPECULATIVE {
            // Reading one's own speculative write needs no validation.
            return;
        }
        if self.local_reads.len() >= crate::descriptor::MAX_READ_ENTRIES {
            self.capacity_exceeded = true;
            return;
        }
        self.local_reads
            .push((obj as *const CasWord as usize, val, cnt));
    }

    /// Validates the locally buffered read set against current memory.  Each
    /// entry must still hold the recorded `(value, counter)` pair, or this
    /// transaction's own descriptor installed over exactly that pair
    /// (counter + 1): on the general path this runs with every write
    /// installed, and a read of a word the transaction also writes would
    /// otherwise abort it on every retry.  The descriptor-free paths and the
    /// public opacity check run before any install, where buffered writes
    /// leave memory untouched and the tolerance never applies.
    fn validate_local_reads(&self) -> bool {
        let me = self.desc().as_payload();
        self.local_reads.iter().all(|&(addr, val, cnt)| {
            // SAFETY: the word is protected by the EBR pin held since
            // `begin`.
            let now = unsafe { &*(addr as *const CasWord) }.load_parts();
            now == (val, cnt) || now == (me, cnt.wrapping_add(1))
        })
    }

    /// Registers post-critical ("cleanup") work to run after the transaction
    /// commits; an abort drops it unrun.
    pub(crate) fn add_cleanup(&mut self, f: impl FnOnce(&mut ThreadHandle) + 'static) {
        debug_assert!(self.in_tx);
        self.cleanups.push(Deferred::new(f));
    }

    /// Registers compensation work that runs only if the transaction aborts
    /// (the complement of [`ThreadHandle::add_cleanup`]).
    ///
    /// txMontage uses this to release payload records allocated by an
    /// operation whose enclosing transaction rolls back.
    pub(crate) fn add_abort_action(&mut self, f: impl FnOnce(&mut ThreadHandle) + 'static) {
        debug_assert!(self.in_tx);
        self.abort_actions.push(Deferred::new(f));
    }

    /// Allocates a block whose ownership is tied to the transaction: if the
    /// transaction aborts, the block is freed automatically (paper `tNew`).
    #[inline]
    pub(crate) fn tnew<T>(&mut self, value: T) -> *mut T {
        debug_assert!(self.in_tx);
        let ptr = Box::into_raw(Box::new(value));
        self.allocs.push((ptr as *mut u8, drop_boxed::<T>));
        ptr
    }

    /// Frees a block previously produced by [`ThreadHandle::tnew`] that was
    /// never published (paper `tDelete`).
    ///
    /// # Safety
    /// `ptr` must have been returned by `tnew::<T>` on this handle and must
    /// not be reachable from any shared structure.
    pub(crate) unsafe fn tdelete<T>(&mut self, ptr: *mut T) {
        if let Some(pos) = self.allocs.iter().position(|(p, _)| *p == ptr as *mut u8) {
            self.allocs.swap_remove(pos);
        }
        // SAFETY: forwarded from the caller's contract.
        drop(unsafe { Box::from_raw(ptr) });
    }

    /// Retires a node through epoch-based reclamation once the transaction
    /// commits (paper `tRetire`); on abort the retirement simply does not
    /// happen, so the unlink it follows must be one the abort undoes (see
    /// [`Ctx::write_is_buffered`](crate::Ctx::write_is_buffered)).
    ///
    /// # Safety
    /// `ptr` must have been allocated via `Box` (directly or through `tnew`)
    /// and must be unlinked from the structure by the time the retirement
    /// takes effect, with no other thread retiring it as well.
    pub(crate) unsafe fn tretire<T: Send + 'static>(&mut self, ptr: *mut T) {
        debug_assert!(self.in_tx);
        self.retires.push((ptr as *mut u8, drop_boxed::<T>));
    }

    /// Immediate retirement through epoch-based reclamation, for cleanup
    /// closures (which receive the handle) and the execution contexts.
    ///
    /// # Safety
    /// `ptr` must have been allocated via `Box` (directly or through `tnew`)
    /// and must already be unlinked from the structure, with no other thread
    /// retiring it as well.
    pub unsafe fn retire_now<T: Send + 'static>(&mut self, ptr: *mut T) {
        // SAFETY: forwarded from the caller's contract.
        unsafe { self.participant.retire_raw(ptr) };
    }

    // ------------------------------------------------------------------
    // Memory accesses (paper `nbtcLoad` / `nbtcCAS`): the standalone pair
    // `NonTx` is made of and the transactional pair behind `Txn`
    // ------------------------------------------------------------------

    /// The Bloom-filter bit for a word address (Fibonacci hash of the
    /// pointer, top 6 bits select one of 64 positions).
    #[inline]
    fn filter_bit(obj: &CasWord) -> u64 {
        let h = (obj as *const CasWord as usize as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        1u64 << (h >> 58)
    }

    /// The transaction's buffered write to `obj`, if any (addresses in
    /// `local_writes` are unique).  The Bloom filter screens out the common
    /// case — a load of a word this transaction never wrote — in O(1).
    /// `Some` is what [`Ctx::write_is_buffered`](crate::Ctx::write_is_buffered)
    /// reports.
    #[inline]
    pub(crate) fn local_write_index(&self, obj: &CasWord) -> Option<usize> {
        if self.write_filter & Self::filter_bit(obj) == 0 {
            return None;
        }
        self.local_writes
            .iter()
            .position(|w| std::ptr::eq(w.addr, obj as *const CasWord))
    }

    /// Loads `obj` until it holds a real value and returns
    /// `(raw, value, counter)`.  A descriptor met on the way is finalized —
    /// uninstalled if decided, aborted first if not — and counted as a help,
    /// so neither a standalone operation nor a commit ever waits on a stalled
    /// transaction.  Every load and CAS of the runtime starts here.
    #[inline]
    fn load_settled(&mut self, obj: &CasWord) -> (u128, u64, u64) {
        loop {
            let raw = obj.load_raw();
            let (val, cnt) = unpack(raw);
            if !CasWord::counter_is_descriptor(cnt) {
                return (raw, val, cnt);
            }
            debug_assert!(
                val != 0 && (val as usize).is_multiple_of(std::mem::align_of::<Desc>()),
                "odd-counter word holds non-descriptor payload {val:#x} (cnt {cnt:#x})"
            );
            // Lazy publication: our own descriptor is installed only inside
            // `commit_general`, on words this loop has already left, so a
            // descriptor met while a transaction is open is foreign.
            debug_assert!(
                !self.in_tx || !std::ptr::eq(val as *const Desc, self.desc_ptr),
                "own descriptor met on a word it was not yet installed on"
            );
            // SAFETY: descriptors live inside their TxManager, which is
            // kept alive by every structure and handle that can reach
            // this word.
            unsafe { (*(val as *const Desc)).try_finalize(obj, raw) };
            self.count(Stat::Helps);
            self.note_stat_event();
        }
    }

    /// The standalone load: an ordinary atomic load that finalizes any
    /// encountered descriptor.  This is the *whole* instrumentation of a
    /// standalone operation — no `in_tx` branch, no speculative-value lookup,
    /// no read bookkeeping — and it is what [`NonTx`](crate::NonTx)
    /// monomorphizes container operations down to.
    #[inline]
    pub(crate) fn untracked_load_counted(&mut self, obj: &CasWord) -> (u64, u64) {
        let (_, val, cnt) = self.load_settled(obj);
        (val, cnt)
    }

    /// The transactional load (paper `nbtcLoad`): additionally returns the
    /// transaction's own buffered value when one exists (read-your-own-write
    /// visibility over the thread-local write buffer), with a sentinel
    /// counter that makes registering it a no-op.
    #[inline]
    pub(crate) fn tx_load_counted(&mut self, obj: &CasWord) -> (u64, u64) {
        if let Some(i) = self.local_write_index(obj) {
            // Our own buffered write: the speculation interval of the
            // current operation starts here, exactly as when the paper's
            // protocol observes its own installed descriptor.
            self.spec_interval = true;
            return (self.local_writes[i].new_val, OWN_SPECULATIVE);
        }
        self.untracked_load_counted(obj)
    }

    /// The standalone CAS: an ordinary value CAS that finalizes any
    /// encountered descriptor first, exactly the update the original
    /// nonblocking algorithm would perform.  Counterpart of
    /// [`ThreadHandle::untracked_load_counted`] for [`NonTx`](crate::NonTx).
    #[inline]
    pub(crate) fn untracked_cas(&mut self, obj: &CasWord, expected: u64, desired: u64) -> bool {
        loop {
            let (raw, val, cnt) = self.load_settled(obj);
            if val != expected {
                return false;
            }
            if obj.raw().cas(raw, pack(desired, cnt.wrapping_add(2))) {
                return true;
            }
            // The word changed under us; re-examine.
        }
    }

    /// The transactional CAS (paper `nbtcCAS`).
    ///
    /// `lin_pt` / `pub_pt` declare whether this CAS, if successful, is the
    /// linearization and/or publication point of the current operation.  A
    /// critical CAS (one inside the operation's speculation interval) is
    /// executed speculatively: *every* critical CAS is buffered in the
    /// thread-local write set (see `LocalWrite` in this module) and becomes
    /// visible to other threads only at commit.  A transaction whose single
    /// critical CAS stays its only write — a lone `insert`/`remove`/`enqueue`
    /// inside [`ThreadHandle::run`] — never publishes a descriptor at all and
    /// commits with one plain CAS; multi-write transactions publish and
    /// install the descriptor inside `commit` (lazy publication).
    #[inline]
    pub(crate) fn tx_cas(
        &mut self,
        obj: &CasWord,
        expected: u64,
        desired: u64,
        lin_pt: bool,
        pub_pt: bool,
    ) -> bool {
        // Operating on a word the transaction already wrote: rewrite the
        // buffered entry in place.  Any CAS on a buffered word — critical or
        // not — is absorbed by the buffer, exactly as the paper's protocol
        // updates an installed own descriptor entry.
        if let Some(i) = self.local_write_index(obj) {
            self.spec_interval = true;
            if self.local_writes[i].new_val != expected {
                return false;
            }
            self.local_writes[i].new_val = desired;
            if lin_pt {
                self.spec_interval = false;
            }
            return true;
        }
        let (raw, val, cnt) = self.load_settled(obj);
        if val != expected {
            return false;
        }
        if pub_pt || lin_pt {
            self.spec_interval = true;
        }
        if self.spec_interval {
            // Critical CAS: buffer it.  Nothing is published — the
            // descriptor entry is written and installed only at commit, so
            // the owner-private hot path costs a Vec push into cache-hot
            // memory instead of five shared atomic stores plus an install
            // CAS.
            if self.local_writes.len() >= crate::descriptor::MAX_ENTRIES {
                // More writes than a descriptor holds: `commit` will report
                // `CapacityExceeded` (and `validate_reads` says so at once).
                // The CAS is buffered all the same — failing it would send
                // container retry loops (re-traverse, re-CAS) spinning on a
                // CAS that can never succeed.
                self.capacity_exceeded = true;
            }
            self.local_writes.push(LocalWrite {
                addr: obj as *const CasWord,
                old_val: val,
                cnt,
                new_val: desired,
            });
            self.write_filter |= Self::filter_bit(obj);
            if lin_pt {
                self.spec_interval = false;
            }
            return true;
        }
        // Non-critical CAS inside a transaction (e.g. helping an already
        // linearized operation): executed on the fly, and not undone by an
        // abort.
        obj.raw().cas(raw, pack(desired, cnt.wrapping_add(2)))
    }
}

impl Drop for ThreadHandle {
    fn drop(&mut self) {
        if self.in_tx {
            // A handle dropped mid-transaction (e.g. due to a panic in glue
            // code) must not leave its descriptor installed anywhere.
            self.abort_with(AbortKind::Unwind);
        }
        self.flush_stats();
        self.mgr.slot_in_use[self.tid].store(false, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::Ctx;
    use crate::descriptor::{pack_status, status_of};

    #[test]
    fn register_and_release_slots() {
        let mgr = TxManager::with_max_threads(2);
        let h1 = mgr.register();
        let h2 = mgr.register();
        assert_ne!(h1.tid(), h2.tid());
        drop(h1);
        let h3 = mgr.register();
        assert!(h3.tid() < 2);
        drop(h2);
        drop(h3);
    }

    #[test]
    fn single_word_transaction_commits() {
        let mgr = TxManager::new();
        let mut h = mgr.register();
        let w = CasWord::new(1);
        let mut t = h.begin();
        let v = t.nbtc_load(&w);
        assert_eq!(v, 1);
        assert!(t.nbtc_cas(&w, 1, 2, true, true));
        // The first critical CAS is buffered (single-CAS fast path): other
        // observers still see the old value, not a descriptor.
        assert_eq!(w.try_load_value(), Some(1));
        assert!(t.commit().is_ok());
        assert_eq!(w.try_load_value(), Some(2));
        h.flush_stats();
        let snap = mgr.stats_snapshot();
        assert_eq!(snap.commits, 1);
        assert_eq!(
            snap.fast_commits, 1,
            "lone critical CAS must commit directly"
        );
    }

    #[test]
    fn read_only_transaction_commits_descriptor_free() {
        let mgr = TxManager::new();
        let mut h = mgr.register();
        let w = CasWord::new(7);
        let mut t = h.begin();
        let (v, c) = t.nbtc_load_counted(&w);
        t.add_read_with_counter(&w, v, c);
        assert!(t.commit().is_ok());
        h.flush_stats();
        let snap = mgr.stats_snapshot();
        assert_eq!(snap.commits, 1);
        assert_eq!(snap.ro_commits, 1);
        assert_eq!(snap.fast_commits, 0);
        // The word was never touched: value and counter are pristine.
        assert_eq!(w.load_parts(), (7, 0));
    }

    #[test]
    fn read_only_commit_detects_invalidated_read() {
        let mgr = TxManager::new();
        let mut h = mgr.register();
        let mut other = mgr.register();
        let w = CasWord::new(1);
        let mut t = h.begin();
        let (v, c) = t.nbtc_load_counted(&w);
        t.add_read_with_counter(&w, v, c);
        assert!(other.nontx().nbtc_cas(&w, 1, 2, true, true));
        assert_eq!(t.commit(), Err(TxError::Conflict));
        h.flush_stats();
        assert_eq!(mgr.stats_snapshot().ro_commits, 0);
    }

    #[test]
    fn second_critical_word_stays_buffered_until_commit() {
        let mgr = TxManager::new();
        let mut h = mgr.register();
        let a = CasWord::new(10);
        let b = CasWord::new(20);
        let mut t = h.begin();
        assert!(t.nbtc_cas(&a, 10, 11, true, true));
        // Every critical CAS is buffered: `a` still shows its old value.
        assert_eq!(a.try_load_value(), Some(10));
        assert!(t.nbtc_cas(&b, 20, 21, true, true));
        // Still nothing published — lazy publication defers the descriptor
        // to the commit.
        assert_eq!(a.try_load_value(), Some(10));
        assert_eq!(b.try_load_value(), Some(20));
        // Read-your-own-write visibility comes from the buffer.
        assert_eq!(t.nbtc_load(&a), 11);
        assert_eq!(t.nbtc_load(&b), 21);
        assert!(t.commit().is_ok());
        assert_eq!(a.try_load_value(), Some(11));
        assert_eq!(b.try_load_value(), Some(21));
        h.flush_stats();
        let snap = mgr.stats_snapshot();
        assert_eq!(snap.commits, 1);
        assert_eq!(
            snap.fast_commits, 0,
            "two-word tx must take the general path"
        );
        assert_eq!(snap.general_commits, 1);
    }

    #[test]
    fn buffered_write_lost_to_contention_aborts_and_retries() {
        let mgr = TxManager::new();
        let mut h = mgr.register();
        let mut other = mgr.register();
        let w = CasWord::new(1);
        let mut t = h.begin();
        assert!(t.nbtc_cas(&w, 1, 2, true, true));
        // The buffered write is invisible, so a non-transactional CAS wins
        // the word outright.
        assert!(other.nontx().nbtc_cas(&w, 1, 9, true, true));
        assert_eq!(t.commit(), Err(TxError::Conflict));
        assert_eq!(w.try_load_value(), Some(9));
        // A retry through `run` succeeds on the fresh value.
        let out: TxResult<()> = h.run(|t| {
            let v = t.nbtc_load(&w);
            assert!(t.nbtc_cas(&w, v, v + 1, true, true));
            Ok(())
        });
        assert!(out.is_ok());
        assert_eq!(w.try_load_value(), Some(10));
    }

    #[test]
    fn stolen_buffered_word_fails_at_commit_install() {
        let mgr = TxManager::new();
        let mut h = mgr.register();
        let mut other = mgr.register();
        let a = CasWord::new(1);
        let b = CasWord::new(5);
        let mut t = h.begin();
        assert!(t.nbtc_cas(&a, 1, 2, true, true));
        // `a` changes under the buffered write...
        assert!(other.nontx().nbtc_cas(&a, 1, 7, true, true));
        // ...but execution continues undisturbed against the private buffer
        // (lazy publication defers conflict detection to the commit-time
        // install, whose pre-image CAS then fails).
        assert!(t.nbtc_cas(&b, 5, 6, true, true));
        assert_eq!(t.nbtc_load(&b), 6, "buffered speculation stays visible");
        assert_eq!(t.commit(), Err(TxError::Conflict));
        assert_eq!(a.try_load_value(), Some(7));
        assert_eq!(b.try_load_value(), Some(5), "speculation on b rolled back");
        h.flush_stats();
        assert_eq!(mgr.stats_snapshot().conflict_aborts, 1);
    }

    #[test]
    fn symmetric_read_write_pairs_cannot_write_skew() {
        // tx1 reads A and writes B; tx2 reads B and writes A, fully
        // interleaved.  A serializable runtime must abort at least one of
        // them: if both committed, each would have read state the other's
        // write invalidated, with no serial order.  (Regression test for the
        // single-CAS fast path committing foreign reads without pinning
        // them.)
        let mgr = TxManager::new();
        let mut h1 = mgr.register();
        let mut h2 = mgr.register();
        let a = CasWord::new(10);
        let b = CasWord::new(20);
        let mut t1 = h1.begin();
        let (va, c) = t1.nbtc_load_counted(&a);
        t1.add_read_with_counter(&a, va, c);
        assert!(t1.nbtc_cas(&b, 20, 21, true, true));
        let mut t2 = h2.begin();
        let (vb, c) = t2.nbtc_load_counted(&b);
        t2.add_read_with_counter(&b, vb, c);
        assert!(t2.nbtc_cas(&a, 10, 11, true, true));
        let r1 = t1.commit();
        let r2 = t2.commit();
        assert!(
            r1.is_err() || r2.is_err(),
            "write skew: both symmetric transactions committed ({r1:?}, {r2:?})"
        );
        // The surviving state must correspond to a serial order.
        let (fa, fb) = (a.try_load_value().unwrap(), b.try_load_value().unwrap());
        match (r1.is_ok(), r2.is_ok()) {
            (true, false) => assert_eq!((fa, fb), (10, 21)),
            (false, true) => assert_eq!((fa, fb), (11, 20)),
            (false, false) => assert_eq!((fa, fb), (10, 20)),
            (true, true) => unreachable!(),
        }
    }

    #[test]
    fn foreign_read_plus_single_write_takes_general_path() {
        // The direct commit cannot order reads of other words (write-skew
        // hazard), so such a transaction must publish a descriptor even
        // though its write set is a single word.
        let mgr = TxManager::new();
        let mut h = mgr.register();
        let a = CasWord::new(1);
        let b = CasWord::new(2);
        let mut t = h.begin();
        let (v, c) = t.nbtc_load_counted(&a);
        t.add_read_with_counter(&a, v, c);
        assert!(t.nbtc_cas(&b, 2, 3, true, true));
        assert!(t.commit().is_ok());
        h.flush_stats();
        let snap = mgr.stats_snapshot();
        assert_eq!(snap.commits, 1);
        assert_eq!(
            snap.fast_commits, 0,
            "a buffered write with a foreign read must not commit directly"
        );
        assert_eq!(b.try_load_value(), Some(3));
    }

    #[test]
    fn single_cas_with_same_word_read_still_takes_fast_path() {
        // A read of the written word's own pre-image is subsumed by the
        // commit CAS: the transaction still qualifies for the direct path.
        let mgr = TxManager::new();
        let mut h = mgr.register();
        let w = CasWord::new(5);
        let mut t = h.begin();
        let (v, c) = t.nbtc_load_counted(&w);
        t.add_read_with_counter(&w, v, c);
        assert!(t.nbtc_cas(&w, 5, 6, true, true));
        assert!(t.commit().is_ok());
        h.flush_stats();
        assert_eq!(mgr.stats_snapshot().fast_commits, 1);
        assert_eq!(w.try_load_value(), Some(6));
    }

    #[test]
    fn abort_rolls_back_speculative_writes() {
        let mgr = TxManager::new();
        let mut h = mgr.register();
        let w = CasWord::new(1);
        let mut t = h.begin();
        assert!(t.nbtc_cas(&w, 1, 2, true, true));
        let token = t.abort(AbortReason::Explicit);
        assert_eq!(token.reason(), AbortReason::Explicit);
        assert_eq!(t.commit(), Err(TxError::Explicit));
        assert_eq!(w.try_load_value(), Some(1));
        assert!(!h.in_tx());
    }

    #[test]
    fn read_validation_detects_conflicting_write() {
        let mgr = TxManager::new();
        let mut h = mgr.register();
        let mut other = mgr.register();
        let w = CasWord::new(1);
        let target = CasWord::new(10);
        let mut t = h.begin();
        let (v, c) = t.nbtc_load_counted(&w);
        t.add_read_with_counter(&w, v, c);
        // A conflicting non-transactional write invalidates the read.
        assert!(other.nontx().nbtc_cas(&w, 1, 5, true, true));
        assert!(t.nbtc_cas(&target, 10, 11, true, true));
        assert_eq!(t.commit(), Err(TxError::Conflict));
        // The speculative write to `target` must have been rolled back.
        assert_eq!(target.try_load_value(), Some(10));
    }

    #[test]
    fn own_speculative_values_are_visible_within_tx() {
        let mgr = TxManager::new();
        let mut h = mgr.register();
        let w = CasWord::new(1);
        let mut t = h.begin();
        assert!(t.nbtc_cas(&w, 1, 2, true, true));
        let (v, c) = t.nbtc_load_counted(&w);
        assert_eq!(v, 2, "same tx must see its own write");
        // Read of own speculative value does not poison the read set.
        t.add_read_with_counter(&w, v, c);
        assert!(t.nbtc_cas(&w, 2, 3, true, true));
        assert!(t.commit().is_ok());
        assert_eq!(w.try_load_value(), Some(3));
    }

    #[test]
    fn installed_foreign_descriptor_is_finalized_by_plain_operations() {
        // Simulate a transaction caught mid-commit: a descriptor published
        // (entry stamped) and installed in `w`, still InPrep — exactly the
        // state a preempted owner leaves between its installs and its
        // status CAS.  A non-transactional CAS must abort it, write the
        // pre-image back, and proceed — and count the help.
        let mgr = TxManager::new();
        let mut b = mgr.register();
        let w = CasWord::new(1);
        let stalled = Desc::new(99);
        stalled.begin();
        let serial = stalled.serial();
        let (v, c) = w.load_parts();
        assert!(stalled.push_write(serial, &w, v, c, 2));
        assert!(w
            .raw()
            .cas(pack(v, c), pack(stalled.as_payload(), c.wrapping_add(1))));
        assert_eq!(w.try_load_value(), None, "descriptor visibly installed");
        // b, running non-transactionally, encounters the descriptor, aborts
        // the InPrep transaction, uninstalls the pre-image, and wins the
        // word.
        assert!(b.nontx().nbtc_cas(&w, 1, 9, true, true));
        assert_eq!(w.try_load_value(), Some(9));
        assert_eq!(status_of(stalled.status_word()), Status::Aborted);
        b.flush_stats();
        assert!(
            mgr.stats_snapshot().helps >= 1,
            "the finalization must be counted as a help"
        );
        // The stalled owner's own commit attempt must now fail.
        assert!(!stalled.decide_own(serial, Status::Committed));
        assert!(!stalled.status_cas(pack_status(99, serial, Status::InPrep), Status::Committed));
    }

    #[test]
    fn failed_install_leaves_the_foreign_descriptor_to_its_owner() {
        // `t` buffers writes of `z` and `w`; then another transaction's
        // descriptor lands on `w` over the pre-image `t` recorded.  Helping
        // it could not make `t`'s install succeed, so `t` loses without
        // touching it.
        let mgr = TxManager::new();
        let mut h = mgr.register();
        let w = CasWord::new(1);
        let z = CasWord::new(5);
        let mut t = h.begin();
        assert!(t.nbtc_cas(&z, 5, 6, true, true));
        assert!(t.nbtc_cas(&w, 1, 2, true, true));
        let other = Desc::new(99);
        other.begin();
        let serial = other.serial();
        assert!(other.push_write(serial, &w, 1, 0, 3));
        assert!(w.raw().cas(pack(1, 0), pack(other.as_payload(), 1)));
        assert_eq!(t.commit(), Err(TxError::Conflict));
        assert_eq!(status_of(other.status_word()), Status::InPrep);
        assert_eq!(w.load_parts(), (other.as_payload(), 1), "still installed");
        assert_eq!(z.load_parts(), (5, 2), "installed prefix rolled back");
        // Its owner decides as if nothing happened.
        assert!(other.decide_own(serial, Status::Committed));
        other.uninstall(serial, Status::Committed);
        assert_eq!(w.load_parts(), (3, 2));
        h.flush_stats();
        assert_eq!(mgr.stats_snapshot().helps, 0);
    }

    /// Commits a transaction that reads `reads` and increments both
    /// `writes`, with `at_validate` run at its validate step.
    fn commit_parked_at_validate(
        h: &mut ThreadHandle,
        reads: &[Arc<CasWord>],
        writes: [&Arc<CasWord>; 2],
        mut at_validate: impl FnMut() + 'static,
    ) -> TxResult<()> {
        let mut t = h.begin();
        for r in reads {
            let (v, c) = t.nbtc_load_counted(r);
            t.add_read_with_counter(r, v, c);
        }
        for w in writes {
            let v = t.nbtc_load(w);
            assert!(t.nbtc_cas(w, v, v + 1, true, true));
        }
        let armed = crate::failpoint::arm("txmanager::validate", move |_| at_validate());
        let out = t.commit();
        assert_ne!(armed.hits(), 0, "the hook ran");
        out
    }

    #[test]
    fn nontx_cas_on_a_written_word_aborts_the_undecided_owner() {
        let mgr = TxManager::new();
        let mut h = mgr.register();
        let mut other = mgr.register();
        let a = Arc::new(CasWord::new(10));
        let b = Arc::new(CasWord::new(20));
        let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
        let out = commit_parked_at_validate(&mut h, &[], [&a, &b], move || {
            // Both words hold the owner's descriptor; the CAS on `a` aborts
            // it, rolls both back, and then wins `a`.
            assert_eq!(b2.try_load_value(), None, "descriptor installed");
            assert!(other.nontx().nbtc_cas(&a2, 10, 99, true, true));
            assert_eq!(b2.try_load_value(), Some(20));
            other.flush_stats();
        });
        assert_eq!(out, Err(TxError::Conflict));
        assert_eq!(a.try_load_value(), Some(99));
        assert_eq!(
            b.try_load_value(),
            Some(20),
            "other word back at its pre-image"
        );
        h.flush_stats();
        let snap = mgr.stats_snapshot();
        assert!(snap.helps >= 1, "the abort is a help");
        assert_eq!((snap.general_commits, snap.conflict_aborts), (0, 1));
    }

    #[test]
    fn foreign_read_changed_before_validation_aborts_the_owner() {
        let mgr = TxManager::new();
        let mut h = mgr.register();
        let mut other = mgr.register();
        let r = Arc::new(CasWord::new(1));
        let a = Arc::new(CasWord::new(10));
        let b = Arc::new(CasWord::new(20));
        let r2 = Arc::clone(&r);
        let out = commit_parked_at_validate(&mut h, &[Arc::clone(&r)], [&a, &b], move || {
            assert!(other.nontx().nbtc_cas(&r2, 1, 2, true, true));
        });
        assert_eq!(out, Err(TxError::Conflict));
        // The owner aborted itself: no written word moved, nobody helped.
        assert_eq!(a.try_load_value(), Some(10));
        assert_eq!(b.try_load_value(), Some(20));
        assert_eq!(r.try_load_value(), Some(2));
        h.flush_stats();
        let snap = mgr.stats_snapshot();
        assert_eq!((snap.helps, snap.conflict_aborts), (0, 1));
    }

    #[test]
    fn reading_and_writing_both_words_commits_on_the_first_attempt() {
        // Each read finds the owner's own descriptor over exactly the
        // pre-image it recorded, which validation must accept.
        let mgr = TxManager::new();
        let mut h = mgr.register();
        let a = CasWord::new(10);
        let b = CasWord::new(20);
        // Bounded: without the tolerance every retry aborts itself again.
        let out = h.run_with(&RunConfig::new().max_retries(3), |t| {
            for w in [&a, &b] {
                let (v, c) = t.nbtc_load_counted(w);
                t.add_read_with_counter(w, v, c);
            }
            assert!(t.nbtc_cas(&a, 10, 9, true, true));
            assert!(t.nbtc_cas(&b, 20, 21, true, true));
            Ok(())
        });
        assert_eq!(out, Ok(()));
        assert_eq!(h.take_last_attempts(), 1);
        assert_eq!(
            (a.try_load_value(), b.try_load_value()),
            (Some(9), Some(21))
        );
        h.flush_stats();
        let snap = mgr.stats_snapshot();
        assert_eq!((snap.general_commits, snap.aborts), (1, 0));
    }

    #[test]
    fn ninth_read_changed_before_validation_is_a_conflict() {
        // More reads than the descriptor ever held inline: every one of
        // them is validated.
        let mgr = TxManager::new();
        let mut h = mgr.register();
        let mut other = mgr.register();
        let reads: Vec<Arc<CasWord>> = (0..9).map(|i| Arc::new(CasWord::new(i))).collect();
        let a = Arc::new(CasWord::new(10));
        let b = Arc::new(CasWord::new(20));
        let ninth = Arc::clone(&reads[8]);
        let out = commit_parked_at_validate(&mut h, &reads, [&a, &b], move || {
            assert!(other.nontx().nbtc_cas(&ninth, 8, 80, true, true));
        });
        assert_eq!(out, Err(TxError::Conflict));
        assert_eq!(
            (a.try_load_value(), b.try_load_value()),
            (Some(10), Some(20))
        );
        // Unchanged, the same nine reads commit.
        let out = commit_parked_at_validate(&mut h, &reads, [&a, &b], || {});
        assert_eq!(out, Ok(()));
    }

    #[test]
    fn contender_during_install_window_wins_and_commit_fails() {
        let mgr = TxManager::new();
        let mut a = mgr.register();
        let mut b = mgr.register();
        let w = CasWord::new(1);
        // A second critical word puts `a` on the general path, so its commit
        // actually publishes a descriptor and installs it word by word
        // (invisible during execution either way).
        let other = CasWord::new(5);
        let mut t = a.begin();
        assert!(t.nbtc_cas(&w, 1, 2, true, true));
        assert!(t.nbtc_cas(&other, 5, 6, true, true));
        // Lazy publication: b sees the pre-image (no descriptor) and wins
        // the word outright with a plain CAS.
        assert_eq!(w.try_load_value(), Some(1));
        assert!(b.nontx().nbtc_cas(&w, 1, 9, true, true));
        assert_eq!(w.try_load_value(), Some(9));
        // a's commit-time install finds the changed pre-image and fails.
        assert_eq!(t.commit(), Err(TxError::Conflict));
        assert_eq!(w.try_load_value(), Some(9));
        assert_eq!(other.try_load_value(), Some(5), "installed prefix undone");
    }

    #[test]
    fn run_retries_conflicts_and_returns_value() {
        let mgr = TxManager::new();
        let mut h = mgr.register();
        let w = CasWord::new(0);
        let mut attempts = 0;
        let out: TxResult<u64> = h.run(|t| {
            attempts += 1;
            let v = t.nbtc_load(&w);
            if attempts == 1 {
                // Simulate a conflict on the first attempt.
                return Err(t.abort(AbortReason::Conflict));
            }
            assert!(t.nbtc_cas(&w, v, v + 1, true, true));
            Ok(v + 1)
        });
        assert_eq!(out, Ok(1));
        assert!(attempts >= 2);
        assert_eq!(w.try_load_value(), Some(1));
    }

    #[test]
    fn run_propagates_explicit_abort() {
        let mgr = TxManager::new();
        let mut h = mgr.register();
        let w = CasWord::new(5);
        let out: TxResult<()> = h.run(|t| {
            assert!(t.nbtc_cas(&w, 5, 6, true, true));
            Err(t.abort(AbortReason::Explicit))
        });
        assert_eq!(out, Err(TxError::Explicit));
        assert_eq!(w.try_load_value(), Some(5));
    }

    #[test]
    fn write_set_overflow_surfaces_capacity_exceeded_without_livelock() {
        // Regression: a critical CAS past the descriptor's write capacity
        // used to report failure, which container retry loops interpret as
        // contention — spinning forever on a transaction that can never
        // commit.  It is buffered like any other (the transaction is doomed)
        // so control reaches the commit, which reports `CapacityExceeded`.
        let mgr = TxManager::new();
        let mut h = mgr.register();
        let words: Vec<CasWord> = (0..crate::descriptor::MAX_ENTRIES + 2)
            .map(|_| CasWord::new(0))
            .collect();
        let helped = CasWord::new(7);
        let res: TxResult<()> = h.run(|t| {
            for w in &words {
                assert!(
                    t.nbtc_cas(w, 0, 1, true, true),
                    "a doomed transaction's CAS must not fail into a retry loop"
                );
            }
            assert!(!t.validate_reads(), "overflowed transaction is doomed");
            // Later accesses still see the transaction's own buffered
            // writes, so verify-by-reload loops (the helping pattern in the
            // containers) converge instead of spinning on unchanged memory.
            let extra = CasWord::new(10);
            let mut spins = 0;
            loop {
                spins += 1;
                assert!(spins < 4, "doomed CAS loop failed to converge");
                let v = t.nbtc_load(&extra);
                if t.nbtc_cas(&extra, v, v + 1, true, true) {
                    break;
                }
            }
            assert_eq!(
                t.nbtc_load(&extra),
                11,
                "buffered write must be visible to the same transaction"
            );
            assert!(
                !t.nbtc_cas(&extra, 10, 99, true, true),
                "stale expected value must still fail"
            );
            assert!(t.write_is_buffered(&extra));
            assert_eq!(extra.try_load_value(), Some(10), "memory untouched");
            // A helping CAS (of the next operation: outside any speculation
            // interval) is applied on the spot, exactly as in a healthy
            // transaction, and says so: its caller must retire what it
            // unlinked now, because the abort will not undo it.
            assert!(t.with_op(|t| t.nbtc_cas(&helped, 7, 8, false, false)));
            assert!(!t.write_is_buffered(&helped));
            assert_eq!(helped.try_load_value(), Some(8));
            Ok(())
        });
        assert_eq!(res, Err(TxError::CapacityExceeded));
        assert!(!h.in_tx());
        for w in &words {
            assert_eq!(w.try_load_value(), Some(0), "all writes rolled back");
        }
        h.flush_stats();
        assert_eq!(mgr.stats_snapshot().capacity_aborts, 1);
    }

    #[test]
    fn tnew_is_freed_on_abort() {
        let mgr = TxManager::new();
        let mut h = mgr.register();
        let mut t = h.begin();
        let p = t.tnew(123u64);
        // SAFETY: `p` is live until the abort below frees it.
        assert_eq!(unsafe { *p }, 123);
        let _ = t.abort(AbortReason::Explicit);
        drop(t);
        // No leak: Miri/asan would flag a double free if tnew's rollback were
        // wrong; here we just assert the transaction state is clean.
        assert!(!h.in_tx());
    }

    #[test]
    fn cleanups_run_only_after_commit() {
        use std::cell::Cell;
        use std::rc::Rc;
        let mgr = TxManager::new();
        let mut h = mgr.register();
        let w = CasWord::new(0);

        let ran = Rc::new(Cell::new(0));
        let r2 = Rc::clone(&ran);
        let mut t = h.begin();
        assert!(t.nbtc_cas(&w, 0, 1, true, true));
        t.add_cleanup(move |_| r2.set(r2.get() + 1));
        assert_eq!(ran.get(), 0, "cleanup must not run before commit");
        assert!(t.commit().is_ok());
        assert_eq!(ran.get(), 1);

        // On abort the cleanup must never run.
        let r3 = Rc::clone(&ran);
        let mut t = h.begin();
        t.add_cleanup(move |_| r3.set(r3.get() + 100));
        let _ = t.abort(AbortReason::Explicit);
        drop(t);
        assert_eq!(ran.get(), 1);

        // Outside a transaction the closure runs immediately.
        let r4 = Rc::clone(&ran);
        h.nontx().add_cleanup(move |_| r4.set(r4.get() + 10));
        assert_eq!(ran.get(), 11);
    }

    #[test]
    fn epoch_validation_aborts_cross_epoch_transactions() {
        let mgr = TxManager::new();
        mgr.set_epoch_validation(true);
        let mut h = mgr.register();
        let w = CasWord::new(0);
        let mut t = h.begin();
        assert_eq!(t.snapshot_epoch(), Some(0));
        assert!(t.nbtc_cas(&w, 0, 1, true, true));
        // The persistence epoch advances before the transaction commits.
        mgr.advance_epoch();
        assert_eq!(t.commit(), Err(TxError::Conflict));
        assert_eq!(w.try_load_value(), Some(0));
        // A retry in the new epoch succeeds.
        let mut t = h.begin();
        assert_eq!(t.snapshot_epoch(), Some(1));
        assert!(t.nbtc_cas(&w, 0, 1, true, true));
        assert!(t.commit().is_ok());
    }

    #[test]
    fn non_critical_cas_inside_tx_takes_effect_immediately() {
        let mgr = TxManager::new();
        let mut h = mgr.register();
        let w = CasWord::new(7);
        let mut t = h.begin();
        // Not a publication or linearization point and no speculation
        // interval started: helping CASes execute on the fly, and say so.
        assert!(t.nbtc_cas(&w, 7, 8, false, false));
        assert!(!t.write_is_buffered(&w));
        assert_eq!(w.try_load_value(), Some(8));
        // The same helping CAS on a word the transaction already wrote
        // joins the buffer instead.
        let own = CasWord::new(1);
        assert!(t.nbtc_cas(&own, 1, 2, true, true));
        assert!(t.nbtc_cas(&own, 2, 3, false, false));
        assert!(t.write_is_buffered(&own));
        assert_eq!(own.try_load_value(), Some(1));
        let _ = t.abort(AbortReason::Explicit);
        assert!(
            !t.write_is_buffered(&own),
            "an aborted guard buffers nothing"
        );
        drop(t);
        assert_eq!(own.try_load_value(), Some(1));
        // The non-critical CAS is NOT rolled back (it helped an operation
        // that had already linearized).
        assert_eq!(w.try_load_value(), Some(8));
    }

    #[test]
    fn concurrent_counter_increments_are_atomic() {
        const THREADS: usize = 4;
        const PER_THREAD: usize = 2_000;
        let mgr = TxManager::new();
        let w = Arc::new(CasWord::new(0));
        let mut handles = Vec::new();
        for _ in 0..THREADS {
            let mgr = Arc::clone(&mgr);
            let w = Arc::clone(&w);
            handles.push(std::thread::spawn(move || {
                let mut h = mgr.register();
                for _ in 0..PER_THREAD {
                    loop {
                        let done: TxResult<bool> = h.run(|t| {
                            let v = t.nbtc_load(&w);
                            Ok(t.nbtc_cas(&w, v, v + 1, true, true))
                        });
                        if done.unwrap() {
                            break;
                        }
                    }
                }
            }));
        }
        for t in handles {
            t.join().unwrap();
        }
        assert_eq!(w.try_load_value(), Some((THREADS * PER_THREAD) as u64));
    }

    #[test]
    fn two_word_transfer_preserves_sum() {
        // The canonical Fig. 3 scenario: transfer between two "accounts" with
        // concurrent transfers in both directions; the sum is invariant.
        const THREADS: usize = 4;
        const PER_THREAD: usize = 1_000;
        let mgr = TxManager::new();
        let a = Arc::new(CasWord::new(1_000));
        let b = Arc::new(CasWord::new(1_000));
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let mgr = Arc::clone(&mgr);
            let a = Arc::clone(&a);
            let b = Arc::clone(&b);
            handles.push(std::thread::spawn(move || {
                let mut h = mgr.register();
                let (from, to) = if t % 2 == 0 { (a, b) } else { (b, a) };
                for _ in 0..PER_THREAD {
                    let _ = h.run(|t| {
                        let x = t.nbtc_load(&from);
                        let y = t.nbtc_load(&to);
                        if x == 0 {
                            return Err(t.abort(AbortReason::Explicit));
                        }
                        if !t.nbtc_cas(&from, x, x - 1, true, true) {
                            return Err(t.abort(AbortReason::Conflict));
                        }
                        if !t.nbtc_cas(&to, y, y + 1, true, true) {
                            return Err(t.abort(AbortReason::Conflict));
                        }
                        Ok(())
                    });
                }
            }));
        }
        for t in handles {
            t.join().unwrap();
        }
        let total = a.try_load_value().unwrap() + b.try_load_value().unwrap();
        assert_eq!(total, 2_000);
    }
}
