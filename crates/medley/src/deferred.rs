//! Deferred actions: the post-commit cleanups and abort compensations a
//! transaction registers ([`Ctx::add_cleanup`](crate::Ctx::add_cleanup),
//! [`Ctx::add_abort_action`](crate::Ctx::add_abort_action)), kept without a
//! heap allocation.
//!
//! Nearly every action captures a pointer or two and a word of context (an
//! unlink's predecessor and node, a counter and its delta, a payload id and
//! its epoch), so a [`Deferred`] keeps the capture inline in three words,
//! beside a function pointer that moves the closure out and calls it and a
//! drop pointer that destroys it unrun.  A capture that is larger than three
//! words or aligned above a word is boxed once, and the box — one word — is
//! what is kept inline.

use crate::ebr::DropFn;
use crate::txmanager::ThreadHandle;
use std::marker::PhantomData;
use std::mem::{self, ManuallyDrop, MaybeUninit};

/// The inline capture storage: three words, word-aligned.
type Inline = MaybeUninit<[usize; 3]>;

/// One registered action: `FnOnce(&mut ThreadHandle)` with its capture
/// stored in place.  Dropping it drops the closure unrun.
pub(crate) struct Deferred {
    /// Moves the closure out of `data` and calls it.
    // SAFETY: called at most once, on the `data` it was built with, and
    // never together with `drop`.
    call: unsafe fn(*mut u8, &mut ThreadHandle),
    /// Drops the closure in `data` unrun.
    // SAFETY: called at most once, on the `data` it was built with, and
    // never together with `call`.
    drop: DropFn,
    data: Inline,
    /// The capture may be `!Send` (it only ever runs on the registering
    /// handle's thread).
    _local: PhantomData<*const ()>,
}

impl Deferred {
    /// Whether a capture of type `F` fits the inline storage.
    const fn fits<F>() -> bool {
        mem::size_of::<F>() <= mem::size_of::<Inline>()
            && mem::align_of::<F>() <= mem::align_of::<Inline>()
    }

    /// Stores `f`: inline if it fits, otherwise as one `Box` (which does).
    #[inline]
    pub(crate) fn new<F: FnOnce(&mut ThreadHandle) + 'static>(f: F) -> Self {
        if Self::fits::<F>() {
            Self::inline(f)
        } else {
            Self::inline(Box::new(f))
        }
    }

    #[inline]
    fn inline<F: FnOnce(&mut ThreadHandle) + 'static>(f: F) -> Self {
        assert!(Self::fits::<F>());
        let mut data = Inline::uninit();
        // SAFETY: `F` fits `data` in size and alignment (asserted above).
        unsafe { data.as_mut_ptr().cast::<F>().write(f) };
        Self {
            call: call_as::<F>,
            drop: drop_as::<F>,
            data,
            _local: PhantomData,
        }
    }

    /// Runs the action, consuming it.
    #[inline]
    pub(crate) fn run(self, h: &mut ThreadHandle) {
        let mut this = ManuallyDrop::new(self);
        // SAFETY: `call` was built for the closure in `data`, and `this` is
        // never dropped, so the closure is moved out exactly once (a panic
        // inside it drops what it captured on the way out).
        unsafe { (this.call)(this.data.as_mut_ptr().cast(), h) }
    }
}

impl Drop for Deferred {
    fn drop(&mut self) {
        // SAFETY: `drop` was built for the closure in `data`, which has not
        // been moved out: `run` never lets its entry drop.
        unsafe { (self.drop)(self.data.as_mut_ptr().cast()) }
    }
}

/// The `call` of a [`Deferred`] holding an `F`.
///
/// # Safety
/// `data` holds a live `F`, which is moved out: it must not be used again.
unsafe fn call_as<F: FnOnce(&mut ThreadHandle)>(data: *mut u8, h: &mut ThreadHandle) {
    // SAFETY: forwarded from the caller's contract.
    let f = unsafe { data.cast::<F>().read() };
    f(h)
}

/// The `drop` of a [`Deferred`] holding an `F`.
///
/// # Safety
/// `data` holds a live `F`, which is dropped: it must not be used again.
unsafe fn drop_as<F>(data: *mut u8) {
    // SAFETY: forwarded from the caller's contract.
    unsafe { data.cast::<F>().drop_in_place() }
}

/// Runs the actions of the list `list` picks out of `h`, in registration
/// order, then unpins `h` — also when an action panics, in which case the
/// actions after it are dropped unrun.  The emptied vector is put back for
/// its capacity, so the next transaction's first action finds room.
pub(crate) fn run_then_unpin(
    h: &mut ThreadHandle,
    list: fn(&mut ThreadHandle) -> &mut Vec<Deferred>,
) {
    struct Unpin<'a>(&'a mut ThreadHandle);
    impl Drop for Unpin<'_> {
        fn drop(&mut self) {
            self.0.unpin_op();
        }
    }
    let mut actions = mem::take(list(h));
    let guard = Unpin(h);
    for action in actions.drain(..) {
        action.run(&mut *guard.0);
    }
    *list(&mut *guard.0) = actions;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AbortReason, CasWord, Ctx, TxManager};
    use std::cell::{Cell, RefCell};
    use std::rc::Rc;

    /// Counts its drops into a shared cell.
    struct DropCount(Rc<Cell<u32>>);

    impl Drop for DropCount {
        fn drop(&mut self) {
            self.0.set(self.0.get() + 1);
        }
    }

    fn fits_of<F>(_: &F) -> bool {
        Deferred::fits::<F>()
    }

    #[test]
    fn a_captured_destructor_runs_once_whether_the_action_runs_or_not() {
        let mgr = TxManager::new();
        let mut h = mgr.register();
        let w = CasWord::new(0);
        let (ran, dropped) = (Rc::new(Cell::new(0)), Rc::new(Cell::new(0)));
        let action = |ran: &Rc<Cell<u32>>, dropped: &Rc<Cell<u32>>| {
            let (ran, guard) = (Rc::clone(ran), DropCount(Rc::clone(dropped)));
            move |_: &mut ThreadHandle| {
                let _guard = guard;
                ran.set(ran.get() + 1);
            }
        };
        assert!(
            fits_of(&action(&Rc::default(), &Rc::default())),
            "two Rc words stay inline"
        );

        // Committed: the cleanup runs and its capture is dropped once; the
        // abort action is dropped unrun.
        let mut t = h.begin();
        assert!(t.nbtc_cas(&w, 0, 1, true, true));
        t.add_cleanup(action(&ran, &dropped));
        t.add_abort_action(action(&ran, &dropped));
        assert_eq!((ran.get(), dropped.get()), (0, 0));
        assert!(t.commit().is_ok());
        assert_eq!((ran.get(), dropped.get()), (1, 2));

        // Aborted: the cleanup is dropped unrun; the abort action runs.
        let mut t = h.begin();
        t.add_cleanup(action(&ran, &dropped));
        t.add_abort_action(action(&ran, &dropped));
        let _ = t.abort(AbortReason::Explicit);
        drop(t);
        assert_eq!((ran.get(), dropped.get()), (2, 4));
        assert_eq!(Rc::strong_count(&ran), 1, "no capture outlives its action");
        assert_eq!(h.pin_depth(), 0);
    }

    #[test]
    fn large_and_over_aligned_captures_are_boxed_and_still_run() {
        #[repr(align(32))]
        struct Wide(u64);
        impl Wide {
            fn get(&self) -> u64 {
                self.0
            }
        }
        let mgr = TxManager::new();
        let mut h = mgr.register();
        let sum = Rc::new(Cell::new(0u64));
        let dropped = Rc::new(Cell::new(0));
        let (s1, s2) = (Rc::clone(&sum), Rc::clone(&sum));
        let words = [1u64, 2, 3, 4];
        let large = move |_: &mut ThreadHandle| s1.set(s1.get() + words.iter().sum::<u64>());
        let wide = Wide(100);
        let guard = DropCount(Rc::clone(&dropped));
        let aligned = move |_: &mut ThreadHandle| {
            let _guard = &guard;
            s2.set(s2.get() + wide.get());
        };
        assert!(!fits_of(&large), "five words do not fit");
        assert!(!fits_of(&aligned), "32-byte alignment does not fit");
        let mut t = h.begin();
        t.add_cleanup(large.clone());
        t.add_cleanup(aligned);
        assert!(t.commit().is_ok());
        assert_eq!(sum.get(), 110);
        assert_eq!(dropped.get(), 1);
        // Dropped unrun, the boxed capture is released too.
        let mut t = h.begin();
        t.add_cleanup(large);
        let _ = t.abort(AbortReason::Explicit);
        drop(t);
        assert_eq!(sum.get(), 110);
        assert_eq!(Rc::strong_count(&sum), 1);
    }

    #[test]
    fn actions_run_in_registration_order() {
        let mgr = TxManager::new();
        let mut h = mgr.register();
        let order = Rc::new(RefCell::new(Vec::new()));
        let push = |i: u64| {
            let order = Rc::clone(&order);
            move |_: &mut ThreadHandle| order.borrow_mut().push(i)
        };
        let res = h.run(|t| {
            for i in 0..6 {
                if i % 3 == 2 {
                    // A boxed entry between inline ones.
                    let (f, pad) = (push(i), [i; 4]);
                    let boxed = move |h: &mut ThreadHandle| {
                        assert_eq!(pad, [i; 4]);
                        f(h)
                    };
                    assert!(!fits_of(&boxed));
                    t.add_cleanup(boxed);
                } else {
                    t.add_cleanup(push(i));
                }
            }
            Ok(())
        });
        assert_eq!(res, Ok(()));
        assert_eq!(*order.borrow(), vec![0, 1, 2, 3, 4, 5]);
        order.borrow_mut().clear();
        let res: crate::TxResult<()> = h.run(|t| {
            t.add_abort_action(push(7));
            t.add_abort_action(push(8));
            Err(t.abort(AbortReason::Explicit))
        });
        assert!(res.is_err());
        assert_eq!(*order.borrow(), vec![7, 8]);
    }

    #[test]
    fn a_panicking_cleanup_leaves_the_handle_reusable() {
        let mgr = TxManager::new();
        let mut h = mgr.register();
        let w = CasWord::new(0);
        let ran = Rc::new(Cell::new(0));
        let dropped = Rc::new(Cell::new(0));
        let counted = |n: u32| {
            let (ran, guard) = (Rc::clone(&ran), DropCount(Rc::clone(&dropped)));
            move |_: &mut ThreadHandle| {
                let _guard = guard;
                ran.set(ran.get() + n);
            }
        };
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = h.run(|t| {
                assert!(t.nbtc_cas(&w, 0, 1, true, true));
                t.add_cleanup(counted(1));
                let guard = DropCount(Rc::clone(&dropped));
                t.add_cleanup(move |_| {
                    let _guard = guard;
                    panic!("boom in a cleanup");
                });
                t.add_cleanup(counted(10));
                t.add_cleanup(counted(100));
                Ok(())
            });
        }));
        assert!(result.is_err());
        assert_eq!(w.try_load_value(), Some(1), "the commit itself happened");
        assert_eq!(ran.get(), 1, "the actions after the panic never run");
        assert_eq!(dropped.get(), 4, "every capture is dropped exactly once");
        assert!(!h.in_tx());
        assert_eq!(h.pin_depth(), 0, "the transaction's pin is released");
        let res = h.run(|t| {
            assert!(t.nbtc_cas(&w, 1, 2, true, true));
            t.add_cleanup(counted(1000));
            Ok(())
        });
        assert_eq!(res, Ok(()));
        assert_eq!((ran.get(), dropped.get()), (1001, 5));
        h.flush_stats();
        assert_eq!(mgr.stats_snapshot().commits, 2);
    }
}
