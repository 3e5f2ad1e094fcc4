//! Integration test host crate (tests live in tests/tests), plus the few
//! helpers more than one test binary needs.

use std::sync::atomic::{AtomicBool, Ordering};

/// Sets the flag when dropped, so a background thread that polls it is
/// released on every way out of the scope that spawned it — a panic
/// included.  (A worker panic used to skip a plain `stop.store(true)`, and
/// `std::thread::scope` then joined the background thread forever.)
pub struct StopOnDrop<'a>(pub &'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}
