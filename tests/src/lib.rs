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

/// `MSETB` of word values: each value goes as its 8 bytes, which the store
/// keeps as the word.
pub fn mset_words(c: &mut kvstore::Client, pairs: &[(u64, u64)]) -> kvstore::KvResult<()> {
    let bytes: Vec<[u8; 8]> = pairs.iter().map(|(_, v)| v.to_le_bytes()).collect();
    let pairs: Vec<(u64, &[u8])> = pairs
        .iter()
        .zip(&bytes)
        .map(|(p, b)| (p.0, &b[..]))
        .collect();
    c.mset_b(&pairs)
}

/// `MGETB` in a word-only workload: each present value as its word.
pub fn mget_words(c: &mut kvstore::Client, keys: &[u64]) -> kvstore::KvResult<Vec<Option<u64>>> {
    let word = |v: pmem::Value| v.as_u64().expect("word-only workload");
    Ok(c.mget_b(keys)?.into_iter().map(|v| v.map(word)).collect())
}
