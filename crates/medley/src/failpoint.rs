//! Failpoints: named steps at which a test runs a hook on the thread that
//! reaches them (crate docs, "Failpoints").  Counting is [`Armed::hits`],
//! running once a closure over an `Option`, parking a thread [`park`].

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::Arc;

/// Passes the failpoint `$name` (a `&'static str`) with the `u64` argument
/// `$arg`, 0 when omitted.  Compiled only into the containing crate's tests.
#[doc(hidden)]
#[macro_export]
macro_rules! failpoint {
    ($name:expr) => {
        $crate::failpoint!($name, 0);
    };
    ($name:expr, $arg:expr) => {
        #[cfg(test)]
        $crate::failpoint::pass($name, $arg);
    };
}

struct Hook {
    name: &'static str,
    hits: Cell<u64>,
    /// Borrowed while it runs.
    run: RefCell<Box<dyn FnMut(u64)>>,
}

thread_local!(static HOOKS: RefCell<Vec<Rc<Hook>>> = const { RefCell::new(Vec::new()) });

/// Runs the hook armed last for `name` on this thread, unless it is running.
pub fn pass(name: &'static str, arg: u64) {
    let hook = HOOKS.try_with(|hs| hs.borrow().iter().rev().find(|h| h.name == name).cloned());
    // A hook disarmed while it runs is dropped with `hook`, outside `HOOKS`.
    if let Some(hook) = hook.ok().flatten() {
        if let Ok(mut run) = hook.run.try_borrow_mut() {
            hook.hits.set(hook.hits.get() + 1);
            run(arg);
        }
    }
}

/// Arms `hook` for the failpoint `name` on this thread until the guard is
/// dropped.
pub fn arm(name: &'static str, hook: impl FnMut(u64) + 'static) -> Armed {
    let hook = Rc::new(Hook {
        name,
        hits: Cell::new(0),
        run: RefCell::new(Box::new(hook)),
    });
    HOOKS.with_borrow_mut(|hooks| hooks.push(Rc::clone(&hook)));
    Armed(hook)
}

/// A hook armed on this thread; dropping it disarms it.
#[must_use = "the hook is disarmed when the guard is dropped"]
pub struct Armed(Rc<Hook>);

impl Armed {
    /// How many times the hook has run, not counting nested passes.
    pub fn hits(&self) -> u64 {
        self.0.hits.get()
    }
}

impl Drop for Armed {
    fn drop(&mut self) {
        // The hook itself drops with `self.0`, outside `HOOKS`: its captures
        // may pass failpoints as they drop.
        let _ = HOOKS.try_with(|hs| hs.borrow_mut().retain(|h| !Rc::ptr_eq(h, &self.0)));
    }
}

/// The test's side of a thread parked by [`park`].  Dropping it resumes the
/// thread, on every way out of the test, so a failed assertion never
/// leaves a scope joining a parked thread.
pub struct Park(Arc<(AtomicBool, AtomicBool)>);

/// Parks the first pass of `name` with argument `key`, until the returned
/// handle is dropped, on the thread that calls the returned closure: the
/// closure arms the hook there.
pub fn park(name: &'static str, key: u64) -> (Park, impl FnOnce() -> Armed + Send) {
    let gate = Arc::new((AtomicBool::new(false), AtomicBool::new(false)));
    let hook = Arc::clone(&gate);
    let arm_here = move || {
        arm(name, move |arg| {
            if arg == key && !hook.0.swap(true, SeqCst) {
                while !hook.1.load(SeqCst) {
                    std::thread::yield_now();
                }
            }
        })
    };
    (Park(gate), arm_here)
}

impl Park {
    /// Waits until the thread has parked.  Panics once it can no longer
    /// park: its hook, armed or not, was dropped.
    pub fn wait(&self) {
        while !self.0 .0.load(SeqCst) {
            assert!(Arc::strong_count(&self.0) > 1, "the thread never parked");
            std::thread::yield_now();
        }
    }
}

impl Drop for Park {
    fn drop(&mut self) {
        self.0 .1.store(true, SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn a_hook_runs_only_on_the_thread_that_armed_it() {
        let armed = arm("test", |_| {});
        std::thread::scope(|s| s.spawn(|| pass("test", 0)).join().unwrap());
        assert_eq!(armed.hits(), 0);
        crate::failpoint!("test");
        assert_eq!(armed.hits(), 1);
    }

    #[test]
    fn a_pass_nested_in_the_running_hook_does_not_run_it_again() {
        let armed = arm("test", |arg| {
            assert_eq!(arg, 1);
            crate::failpoint!("test", 2);
        });
        crate::failpoint!("test", 1);
        assert_eq!(armed.hits(), 1);
    }

    #[test]
    fn dropping_the_guard_disarms_the_hook_also_in_an_unwind() {
        drop(arm("test", |_| panic!("disarmed")));
        pass("test", 0);
        let unwound = catch_unwind(|| {
            let _armed = arm("test", |_| panic!("disarmed"));
            panic!("a failed assertion");
        });
        assert!(unwound.is_err());
        pass("test", 0);
    }

    #[test]
    fn dropping_the_park_handle_resumes_the_parked_thread() {
        let hits = std::sync::atomic::AtomicU64::new(0);
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            std::thread::scope(|s| {
                let (park, arm_here) = park("test", 7);
                s.spawn(|| {
                    let armed = arm_here();
                    for key in [6, 7, 7] {
                        pass("test", key);
                    }
                    hits.store(armed.hits(), SeqCst);
                });
                park.wait();
                panic!("a failed assertion while it is parked");
            })
        }));
        assert!(unwound.is_err());
        assert_eq!(hits.load(SeqCst), 3, "resumed, and parked once");
    }
}
