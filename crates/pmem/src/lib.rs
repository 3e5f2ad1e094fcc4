//! # pmem — nbMontage-style periodic persistence substrate
//!
//! This crate reproduces the parts of **nbMontage** (Cai et al., DISC'21)
//! that txMontage builds on:
//!
//! * an **epoch clock** (the `TxManager`'s epoch word) that divides time into
//!   coarse intervals;
//! * a **payload store** holding the semantically significant data of each
//!   structure (key/value pairs), each record tagged with the epoch of the
//!   operation that created or retired it.  A record is a one-line slot
//!   holding its key and a word value; any other value spills from the slot
//!   to a length-prefixed chain of 256-byte overflow blocks.  The store is
//!   sharded into **per-thread arenas** (one per `TxManager` thread slot)
//!   whose allocation and retirement take only the arena's own nursery lock;
//!   a record that dies in its birth epoch is recycled on the spot, with its
//!   chain, and the rest go on **epoch-indexed dirty lists** so the periodic
//!   write-back touches only the records that actually changed in the epochs
//!   crossing the durability horizon;
//! * **periodic persistence**: payloads are written back in batches at epoch
//!   boundaries rather than eagerly, and post-crash recovery restores the
//!   state as of the end of epoch `e − 2` — the *buffered* durable
//!   linearizability of Izraelevitz et al., extended to transactions
//!   (buffered durable strict serializability) by txMontage.  Buffered
//!   durability deliberately trades a bounded recent window for throughput:
//!   a crash in epoch `e` loses the operations of epochs `e − 1` and `e`
//!   (anything newer than the last completed write-back), but never an
//!   operation that a [`PersistenceDomain::sync`] call covered, and recovery
//!   is always a consistent cut — no half-applied transaction is ever
//!   restored;
//! * a **simulated NVM** device that counts (and optionally charges latency
//!   for) cache-line write-backs and fences, standing in for the Optane
//!   hardware of the paper per DESIGN.md's substitution table.
//!
//! The `txmontage` crate combines this domain with the Medley maps of `nbds`.
//! See [`domain`] for the slot lifecycle diagram and the concurrency
//! argument of the arena store.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod domain;
pub mod nvm;
pub mod value;

pub use domain::{DomainStats, EpochAdvancer, PayloadId, PersistenceDomain};
pub use nvm::{NvmCostModel, NvmSnapshot, NvmStats, SimNvm};
pub use value::{Value, MAX_VALUE_BYTES};
