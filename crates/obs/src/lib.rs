//! # obs — shared observability primitives
//!
//! One home for the measurement machinery both the load generators
//! (`bench`) and the service (`kvstore`) need, so client-observed and
//! server-observed numbers come from the *same* histogram implementation
//! and can be compared bucket for bucket:
//!
//! - [`LatencyHistogram`] — the log-bucketed, allocation-free histogram.
//! - [`MetricsRegistry`] — a per-worker, relaxed-atomic registry of
//!   per-operation latency histograms, abort-reason counters, retry
//!   counts, event-loop phase accounting and per-worker event counters.
//!   The hot path pays a clock read and an array increment; no
//!   allocation, no locks.
//! - [`TraceRing`] — a bounded ring of slow-request lifecycle records.
//! - [`prom`] — Prometheus-style text exposition over a registry
//!   snapshot, servable from a plain TCP listener.
//!
//! The crate is deliberately label-generic: the service supplies its
//! operation / abort-reason / phase / counter names as `&'static str`
//! tables via [`RegistrySpec`], so `obs` knows nothing about any
//! particular wire protocol.

#![forbid(unsafe_code)]

mod hist;
pub mod prom;
mod registry;
mod trace;

pub use hist::{LatencyHistogram, BUCKETS};
pub use registry::{MetricsRegistry, MetricsSnapshot, OpSnapshot, RegistrySpec, WorkerMetrics};
pub use trace::{TraceRecord, TraceRing};
