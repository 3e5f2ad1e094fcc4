//! # tpcc — a TPC-C subset (newOrder + payment) over transactional maps
//!
//! The paper's "somewhat more realistic" benchmark (Fig. 9) runs the
//! `newOrder` and `payment` transactions of TPC-C, in a 1:1 mix, over
//! transactional skiplists (following DBx1000's configuration; neither
//! transaction needs range queries).  This crate reproduces that workload:
//!
//! * every table **field** used by the two transactions is one key/value pair
//!   in a transactional map (`u64` keys encode table / warehouse / district /
//!   customer / item ids; `u64` values hold balances, quantities, counters);
//! * the transactions are written once against the [`KvTx`] trait and run on
//!   any backend: Medley maps, txMontage persistent maps, the OneFile STM
//!   baseline, or the TDSL baseline;
//! * the loader populates warehouses, districts, customers, items and stock
//!   at a configurable (scaled-down) size.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod backend;
pub mod keys;
pub mod workload;

pub use backend::{MedleyBackend, OneFileBackend, TdslBackend};
pub use keys::*;
pub use workload::{
    execute_input, load_chunked, load_initial_data, new_order, payment, random_input, Scale,
    TxInput,
};

/// Abort signal returned by transaction bodies (business-logic rollback).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TpccAbort;

/// The key/value operations a TPC-C transaction needs, independent of which
/// transactional system executes it.
pub trait KvTx {
    /// Reads the value of `key`, if present.
    fn get(&mut self, key: u64) -> Option<u64>;
    /// Inserts or replaces `key -> val`.
    fn put(&mut self, key: u64, val: u64);
    /// Inserts `key -> val`; returns `false` if the key already exists.
    fn insert(&mut self, key: u64, val: u64) -> bool;
}

/// A transactional system on which the TPC-C subset can run.
pub trait TpccBackend: Send + Sync {
    /// Per-thread session state (thread handles, etc.).
    type Session;

    /// Creates a session for the calling thread.
    fn session(&self) -> Self::Session;

    /// Runs `body` as one atomic transaction, retrying system-level conflicts
    /// internally.  Returns `false` only if the body requested an abort.
    fn run_tx(
        &self,
        session: &mut Self::Session,
        body: &mut dyn FnMut(&mut dyn KvTx) -> Result<(), TpccAbort>,
    ) -> bool;
}
