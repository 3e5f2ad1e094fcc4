//! Epoch-based safe memory reclamation (SMR).
//!
//! The paper's `Composable` base class provides `tRetire` backed by
//! epoch-based reclamation (Fraser \[10], Hart et al. \[17], RCU \[27]); every
//! NBTC structure relies on it so that a node is never freed while another
//! thread may still hold a private reference to it.  We implement the classic
//! three-generation scheme:
//!
//! * a global epoch counter advances only when every *pinned* participant has
//!   observed the current epoch;
//! * retired objects are tagged with the epoch in which they were retired and
//!   freed once the global epoch has advanced twice past it.  A participant's
//!   limbo bag is a FIFO: the global epoch never goes back, so its entries are
//!   in retirement-epoch order and a collection stops at the first one that
//!   is still too young — a retirement costs O(freed), not O(bag).
//!
//! A participant stays pinned for the duration of an entire Medley
//! transaction (not just a single operation): the transaction's read and
//! write sets hold raw pointers into data-structure nodes between constituent
//! operations, so those nodes must not be reclaimed until the transaction has
//! committed or aborted.

use crate::util::sync::Mutex;
use crate::util::CachePadded;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Number of retirements between attempts to advance the global epoch.
const ADVANCE_THRESHOLD: usize = 64;

/// Drops a type-erased value behind a thin pointer: a `Box<T>`
/// ([`drop_boxed`]), or a deferred action's capture stored in place.
pub(crate) type DropFn = unsafe fn(*mut u8);

/// A type-erased retired allocation awaiting reclamation.
struct Retired {
    ptr: *mut u8,
    drop_fn: DropFn,
    epoch: u64,
}

// SAFETY: the retired pointer is only dropped by the owning participant, and
// ownership of the allocation was transferred to the bag at retire time.
unsafe impl Send for Retired {}

/// The [`DropFn`] of a `Box<T>`.
///
/// # Safety
/// `ptr` originated from `Box::<T>::into_raw` and is uniquely owned by the
/// caller (a limbo bag, or a transaction's list of unpublished blocks).
pub(crate) unsafe fn drop_boxed<T>(ptr: *mut u8) {
    // SAFETY: forwarded from the caller's contract.
    drop(unsafe { Box::from_raw(ptr as *mut T) });
}

/// Shared state of the reclamation domain.
pub struct Collector {
    global_epoch: CachePadded<AtomicU64>,
    slots: Box<[CachePadded<Slot>]>,
    registered: AtomicUsize,
    /// Garbage inherited from exited participants whose bags were not yet
    /// safe to free; drained opportunistically by live participants and
    /// unconditionally when the collector itself is dropped.
    orphans: Mutex<Vec<Retired>>,
    /// Lock-free emptiness hint for `orphans`, so the per-retirement
    /// `collect` path never touches the shared mutex in the common case
    /// (no exited-thread garbage pending).
    orphan_count: AtomicUsize,
}

impl std::fmt::Debug for Collector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Collector")
            .field("global_epoch", &self.global_epoch.load(Ordering::Relaxed))
            .field("registered", &self.registered.load(Ordering::Relaxed))
            .finish()
    }
}

#[derive(Debug)]
struct Slot {
    /// Epoch the participant was pinned in, or `IDLE` when not pinned.
    local_epoch: AtomicU64,
    in_use: AtomicBool,
}

const IDLE: u64 = u64::MAX;

impl Collector {
    /// Creates a collector able to serve up to `max_participants` concurrently
    /// registered threads.
    pub fn new(max_participants: usize) -> Arc<Self> {
        let slots = (0..max_participants)
            .map(|_| {
                CachePadded::new(Slot {
                    local_epoch: AtomicU64::new(IDLE),
                    in_use: AtomicBool::new(false),
                })
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Arc::new(Self {
            global_epoch: CachePadded::new(AtomicU64::new(2)),
            slots,
            registered: AtomicUsize::new(0),
            orphans: Mutex::new(Vec::new()),
            orphan_count: AtomicUsize::new(0),
        })
    }

    /// Registers the calling thread, returning a [`Participant`] handle.
    ///
    /// # Panics
    /// Panics if `max_participants` handles are already live.
    pub fn register(self: &Arc<Self>) -> Participant {
        for (idx, slot) in self.slots.iter().enumerate() {
            if slot
                .in_use
                .compare_exchange(false, true, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                self.registered.fetch_add(1, Ordering::Relaxed);
                return Participant {
                    collector: Arc::clone(self),
                    slot: idx,
                    pin_depth: 0,
                    bag: VecDeque::new(),
                    retired_since_advance: 0,
                };
            }
        }
        panic!("ebr::Collector: participant slots exhausted");
    }

    /// Attempts to advance the global epoch.  Succeeds only if every pinned
    /// participant has already observed the current epoch.
    fn try_advance(&self) -> u64 {
        let global = self.global_epoch.load(Ordering::Acquire);
        for slot in self.slots.iter() {
            if !slot.in_use.load(Ordering::Acquire) {
                continue;
            }
            let local = slot.local_epoch.load(Ordering::Acquire);
            if local != IDLE && local != global {
                return global; // a straggler pins an older epoch
            }
        }
        // Multiple threads may race here; the CAS makes the advance idempotent.
        let _ = self.global_epoch.compare_exchange(
            global,
            global + 1,
            Ordering::AcqRel,
            Ordering::Acquire,
        );
        self.global_epoch.load(Ordering::Acquire)
    }

    /// Frees every orphaned allocation whose grace period has elapsed.
    /// Cheap when there are none: a relaxed counter check skips the lock.
    fn drain_orphans(this: &Arc<Self>, global: u64) {
        if this.orphan_count.load(Ordering::Acquire) == 0 {
            return;
        }
        let mut orphans = this.orphans.lock();
        let mut i = 0;
        while i < orphans.len() {
            if orphans[i].epoch + 2 <= global {
                let r = orphans.swap_remove(i);
                // SAFETY: ownership was transferred to the orphan list by an
                // exiting participant and the grace period has elapsed.
                unsafe { (r.drop_fn)(r.ptr) };
            } else {
                i += 1;
            }
        }
        this.orphan_count.store(orphans.len(), Ordering::Release);
    }
}

impl Drop for Collector {
    fn drop(&mut self) {
        // No participant can exist here (each holds an `Arc<Collector>`), so
        // every remaining orphan is unreachable and safe to free.
        for r in self.orphans.lock().drain(..) {
            // SAFETY: as above; the collector is the sole owner now.
            unsafe { (r.drop_fn)(r.ptr) };
        }
    }
}

/// A per-thread handle onto a [`Collector`].
///
/// The handle is **not** `Sync`; each thread owns its own.  Dropping the
/// handle flushes (frees) any garbage that is already safe and leaks the
/// remainder to the collector's final drop (bounded by the last two epochs).
pub struct Participant {
    collector: Arc<Collector>,
    slot: usize,
    pin_depth: usize,
    /// Limbo bag, oldest retirement first (epochs are non-decreasing).
    bag: VecDeque<Retired>,
    retired_since_advance: usize,
}

impl std::fmt::Debug for Participant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Participant")
            .field("slot", &self.slot)
            .field("pin_depth", &self.pin_depth)
            .field("pending", &self.bag.len())
            .finish()
    }
}

impl Participant {
    /// Pins the participant to the current epoch.  Pins nest; only the
    /// outermost pin/unpin pair touches shared state.
    #[inline]
    pub fn pin(&mut self) {
        if self.pin_depth == 0 {
            let g = self.collector.global_epoch.load(Ordering::Acquire);
            self.collector.slots[self.slot]
                .local_epoch
                .store(g, Ordering::SeqCst);
        }
        self.pin_depth += 1;
    }

    /// Current pin-nesting depth (diagnostics/tests).
    #[cfg(test)]
    pub(crate) fn pin_depth(&self) -> usize {
        self.pin_depth
    }

    /// Releases one level of pinning.
    #[inline]
    pub fn unpin(&mut self) {
        debug_assert!(self.pin_depth > 0, "unpin without matching pin");
        self.pin_depth -= 1;
        if self.pin_depth == 0 {
            self.collector.slots[self.slot]
                .local_epoch
                .store(IDLE, Ordering::Release);
        }
    }

    /// Retires a boxed allocation; it will be dropped once no thread can
    /// still hold a reference obtained before the retirement.
    #[cfg(test)]
    pub fn retire<T: Send + 'static>(&mut self, boxed: Box<T>) {
        // SAFETY: the box is ours to give away, and `drop_boxed::<T>` is how
        // a `Box<T>` is freed.
        unsafe { self.retire_erased(Box::into_raw(boxed) as *mut u8, drop_boxed::<T>) };
    }

    /// Retires a raw pointer previously produced by `Box::into_raw`.
    ///
    /// # Safety
    /// `ptr` must be a valid, uniquely-owned `Box<T>` allocation that no other
    /// thread will free.
    pub unsafe fn retire_raw<T: Send + 'static>(&mut self, ptr: *mut T) {
        // SAFETY: forwarded from the caller's contract.
        unsafe { self.retire_erased(ptr as *mut u8, drop_boxed::<T>) };
    }

    /// Retires a type-erased allocation: `drop_fn(ptr)` runs once no thread
    /// can still hold a reference obtained before the retirement.
    ///
    /// # Safety
    /// `ptr` is uniquely owned by the caller, sendable, and `drop_fn` frees
    /// it; nobody else will.
    pub(crate) unsafe fn retire_erased(&mut self, ptr: *mut u8, drop_fn: DropFn) {
        let epoch = self.collector.global_epoch.load(Ordering::Acquire);
        self.bag.push_back(Retired {
            ptr,
            drop_fn,
            epoch,
        });
        self.retired_since_advance += 1;
        if self.retired_since_advance >= ADVANCE_THRESHOLD {
            self.retired_since_advance = 0;
            self.collector.try_advance();
        }
        self.collect();
    }

    /// Frees every retired allocation that is at least two epochs old, both
    /// in this participant's bag and among garbage inherited from exited
    /// participants.
    pub fn collect(&mut self) {
        let global = self.collector.global_epoch.load(Ordering::Acquire);
        // Oldest first; everything behind the first entry that is too young
        // is younger still.
        while let Some(front) = self.bag.front() {
            crate::failpoint!("ebr::examine");
            if front.epoch + 2 > global {
                break;
            }
            let r = self.bag.pop_front().expect("front exists");
            // SAFETY: the allocation was transferred to us at retire time
            // and the grace period (two epoch advances) has elapsed.
            unsafe { (r.drop_fn)(r.ptr) };
        }
        Collector::drain_orphans(&self.collector, global);
    }

    /// Forces epoch advancement attempts until the local bag is empty or no
    /// further progress is possible (used by tests and shutdown paths).
    pub fn flush(&mut self) {
        for _ in 0..4 {
            self.collector.try_advance();
            self.collect();
            if self.bag.is_empty() {
                break;
            }
        }
    }
}

impl Drop for Participant {
    fn drop(&mut self) {
        // Make a best-effort attempt to drain the bag, then release the slot.
        self.collector.slots[self.slot]
            .local_epoch
            .store(IDLE, Ordering::Release);
        self.flush();
        // Anything still pending is freed here: no new references can be
        // created once the slot shows IDLE and the remaining items were
        // retired at least one full operation ago by this thread.  To stay
        // conservative we only do this when no other participant is pinned.
        let anyone_pinned = self.collector.slots.iter().enumerate().any(|(i, s)| {
            i != self.slot
                && s.in_use.load(Ordering::Acquire)
                && s.local_epoch.load(Ordering::Acquire) != IDLE
        });
        if !anyone_pinned {
            for r in self.bag.drain(..) {
                // SAFETY: no participant is pinned, so no thread holds a
                // reference obtained before these retirements.
                unsafe { (r.drop_fn)(r.ptr) };
            }
        } else {
            // Hand the stragglers to the collector: live participants drain
            // them once the grace period elapses, and the collector's own
            // drop frees whatever is left, so an exiting thread leaks
            // nothing.
            let mut orphans = self.collector.orphans.lock();
            orphans.extend(self.bag.drain(..));
            self.collector
                .orphan_count
                .store(orphans.len(), Ordering::Release);
        }
        self.collector.slots[self.slot]
            .in_use
            .store(false, Ordering::Release);
        self.collector.registered.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    // One drop counter per test: tests run in parallel, so a shared one
    // would see (and reset) the other test's drops.
    static DROPS_SINGLE: AtomicUsize = AtomicUsize::new(0);
    static DROPS_STRESS: AtomicUsize = AtomicUsize::new(0);

    struct Tracked(&'static AtomicUsize);
    impl Drop for Tracked {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn retire_eventually_drops() {
        let c = Collector::new(4);
        let mut p = c.register();
        p.pin();
        for _ in 0..10 {
            p.retire(Box::new(Tracked(&DROPS_SINGLE)));
        }
        p.unpin();
        p.flush();
        assert_eq!(DROPS_SINGLE.load(Ordering::SeqCst), 10);
        assert!(p.bag.is_empty());
    }

    #[test]
    fn pinned_straggler_blocks_reclamation() {
        let c = Collector::new(4);
        let mut a = c.register();
        let mut b = c.register();
        b.pin(); // straggler pinned at the current epoch
        let before = c.global_epoch.load(Ordering::Acquire);
        a.pin();
        a.retire(Box::new(42u64));
        a.unpin();
        // Straggler still pinned at `before`; epoch may advance at most once
        // past it, so the item (retired at `before`) cannot yet be freed.
        a.flush();
        assert!(c.global_epoch.load(Ordering::Acquire) <= before + 1);
        assert_eq!(a.bag.len(), 1);
        b.unpin();
        a.flush();
        assert!(a.bag.is_empty());
    }

    #[test]
    fn retire_into_a_stalled_bag_examines_one_entry() {
        let c = Collector::new(4);
        let mut a = c.register();
        let mut b = c.register();
        b.pin(); // holds the epoch back: nothing `a` retires can be freed
        for i in 0..10_000u64 {
            a.pin();
            a.retire(Box::new(i));
            a.unpin();
        }
        assert_eq!(a.bag.len(), 10_000, "the stalled pin kept everything");
        let examine = crate::failpoint::arm("ebr::examine", |_| {});
        a.pin();
        a.retire(Box::new(0u64));
        a.unpin();
        let examined = examine.hits();
        assert!(
            examined <= 1,
            "one retirement looked at {examined} of 10001 bag entries"
        );
        assert!(a
            .bag
            .iter()
            .zip(a.bag.iter().skip(1))
            .all(|(x, y)| x.epoch <= y.epoch));
        b.unpin();
        a.flush();
        assert!(a.bag.is_empty());
    }

    #[test]
    fn nested_pins() {
        let c = Collector::new(2);
        let mut p = c.register();
        p.pin();
        p.pin();
        assert_eq!(p.pin_depth, 2);
        p.unpin();
        assert_eq!(p.pin_depth, 1);
        p.unpin();
        assert_eq!(p.pin_depth, 0);
    }

    #[test]
    fn registration_slots_recycle() {
        let c = Collector::new(1);
        {
            let _p = c.register();
            assert_eq!(c.registered.load(Ordering::Relaxed), 1);
        }
        assert_eq!(c.registered.load(Ordering::Relaxed), 0);
        let _p2 = c.register(); // would panic if the slot leaked
    }

    #[test]
    fn concurrent_retire_stress() {
        const THREADS: usize = 4;
        const PER_THREAD: usize = 500;
        let c = Collector::new(THREADS);
        let mut handles = Vec::new();
        for _ in 0..THREADS {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                let mut p = c.register();
                for _ in 0..PER_THREAD {
                    p.pin();
                    p.retire(Box::new(Tracked(&DROPS_STRESS)));
                    p.unpin();
                }
                p.flush();
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Bags of threads that exited while others were still pinned were
        // handed to the collector; any live participant drains them.
        let mut p = c.register();
        p.flush();
        drop(p);
        assert_eq!(DROPS_STRESS.load(Ordering::SeqCst), THREADS * PER_THREAD);
    }
}
