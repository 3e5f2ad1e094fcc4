//! `CasWord`: the augmented atomic word of Medley (the paper's `CASObj`).
//!
//! Every 64-bit word at which a *critical* memory access may occur (paper
//! Def. 3) is augmented with a 64-bit counter, and the pair is manipulated
//! with 128-bit CAS (paper Sec. 3.2, Fig. 4):
//!
//! * counter **even** ⇒ the low half holds a real value;
//! * counter **odd**  ⇒ the low half holds a pointer to the descriptor
//!   (`descriptor::Desc`) of the transaction that currently owns the word.
//!
//! Installing a descriptor increments the counter (even → odd); uninstalling
//! increments it again (odd → even).  Plain (non-transactional) CASes bump
//! the counter by two so that read-set validation is ABA-safe.
//!
//! The payload is untyped: structures store pointers (with their low tag
//! bits) and integers as `u64` and convert at the edge.

use crate::atomic128::{pack, unpack, AtomicU128};

/// The augmented atomic word: `(value: u64, counter: u64)` manipulated as one
/// 128-bit unit.
#[repr(transparent)]
#[derive(Debug, Default)]
pub struct CasWord {
    inner: AtomicU128,
}

impl CasWord {
    /// Creates a word holding `value` with counter 0.
    pub const fn new(value: u64) -> Self {
        Self {
            inner: AtomicU128::new(value as u128),
        }
    }

    /// Access to the raw 128-bit atomic (used by the descriptor machinery).
    #[inline]
    pub(crate) fn raw(&self) -> &AtomicU128 {
        &self.inner
    }

    /// Atomically loads `(value, counter)`.
    #[inline]
    pub fn load_parts(&self) -> (u64, u64) {
        unpack(self.inner.load())
    }

    /// Atomically loads the full 128-bit representation.
    #[inline]
    pub fn load_raw(&self) -> u128 {
        self.inner.load()
    }

    /// Whether a counter value indicates an installed descriptor.
    #[inline]
    pub fn counter_is_descriptor(counter: u64) -> bool {
        counter & 1 == 1
    }

    /// Non-atomic-looking initialization store: sets the value, preserving the
    /// counter.  Intended for nodes that are not yet published to other
    /// threads (e.g. setting `new_node.next` before the linearizing CAS); it
    /// is nonetheless implemented with an atomic CAS loop so that misuse can
    /// not tear the word.  Uncontended it is one locked instruction — the
    /// load that fetches the counter is not one.
    pub fn store_value(&self, value: u64) {
        loop {
            let cur = self.inner.load();
            let (_, cnt) = unpack(cur);
            if self.inner.cas(cur, pack(value, cnt)) {
                return;
            }
        }
    }

    /// Plain (non-transactional, non-critical) CAS on the value.
    ///
    /// Fails if a descriptor is currently installed or the value does not
    /// match.  On success the counter advances by two so the word stays in
    /// the "real value" parity and read-set validation observes the change.
    /// One locked instruction (the CAS); a failure decided by the load costs
    /// none.
    pub fn cas_value(&self, expected: u64, desired: u64) -> bool {
        let cur = self.inner.load();
        let (val, cnt) = unpack(cur);
        if Self::counter_is_descriptor(cnt) || val != expected {
            return false;
        }
        self.inner.cas(cur, pack(desired, cnt.wrapping_add(2)))
    }

    /// ABA-safe plain CAS: succeeds only if the word holds exactly the
    /// `(expected, expected_cnt)` pair, advancing the counter by two.
    ///
    /// This is the commit instruction of the single-CAS direct-commit fast
    /// path: a transaction whose write set is one word replaces the
    /// remembered pre-image with the new value in a single step, staying in
    /// the even-counter ("real value") parity exactly as a non-transactional
    /// [`CasWord::cas_value`] would.  The explicit counter makes the check
    /// immune to ABA on the value.
    pub fn cas_value_counted(&self, expected: u64, expected_cnt: u64, desired: u64) -> bool {
        if Self::counter_is_descriptor(expected_cnt) {
            return false;
        }
        self.inner.cas(
            pack(expected, expected_cnt),
            pack(desired, expected_cnt.wrapping_add(2)),
        )
    }

    /// Plain load of the value; returns `None` while a descriptor is
    /// installed.  Non-transactional readers that must not help (e.g. the
    /// un-instrumented "Original" baseline of Fig. 10) use this.
    pub fn try_load_value(&self) -> Option<u64> {
        let (val, cnt) = self.load_parts();
        if Self::counter_is_descriptor(cnt) {
            None
        } else {
            Some(val)
        }
    }

    /// Spins until the word holds a real value and returns it, without
    /// helping.  Only used in tests and single-threaded tooling.
    pub fn load_value_spin(&self) -> u64 {
        loop {
            if let Some(v) = self.try_load_value() {
                return v;
            }
            std::hint::spin_loop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_word_has_even_counter_and_value() {
        let w = CasWord::new(42);
        assert_eq!(w.load_parts(), (42, 0));
        assert_eq!(w.try_load_value(), Some(42));
    }

    #[test]
    fn cas_value_bumps_counter_by_two() {
        let w = CasWord::new(1);
        assert!(w.cas_value(1, 2));
        assert_eq!(w.load_parts(), (2, 2));
        assert!(!w.cas_value(1, 3), "stale expected must fail");
        assert_eq!(w.load_parts(), (2, 2));
    }

    #[test]
    fn store_value_preserves_counter() {
        let w = CasWord::new(1);
        assert!(w.cas_value(1, 2));
        w.store_value(9);
        assert_eq!(w.load_parts(), (9, 2));
    }

    #[test]
    fn descriptor_parity_is_detected() {
        assert!(!CasWord::counter_is_descriptor(0));
        assert!(CasWord::counter_is_descriptor(1));
        assert!(!CasWord::counter_is_descriptor(2));
    }

    #[test]
    fn try_load_value_hides_descriptors() {
        let w = CasWord::new(7);
        // Simulate an installed descriptor: odd counter.
        assert!(w.raw().cas(pack(7, 0), pack(0xdead_beef, 1)));
        assert_eq!(w.try_load_value(), None);
        assert!(
            !w.cas_value(0xdead_beef, 5),
            "plain CAS must not touch descriptors"
        );
        // Uninstall.
        assert!(w.raw().cas(pack(0xdead_beef, 1), pack(8, 2)));
        assert_eq!(w.try_load_value(), Some(8));
    }
}
