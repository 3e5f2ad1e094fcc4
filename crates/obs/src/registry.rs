//! Per-worker, allocation-free metrics registry.
//!
//! The registry is built once at server start: every per-operation
//! histogram, abort-reason counter, retry counter, phase accumulator and
//! per-worker counter is a pre-sized atomic slot.  Recording on the
//! request path is a relaxed fetch-add into a fixed index — no
//! allocation, no lock, no contended cache line between workers (each
//! worker owns its [`WorkerMetrics`] block).  Aggregation (the cold path:
//! a `METRICS` request or a scrape) sums across workers into plain
//! [`LatencyHistogram`]s and counter vectors.

use crate::hist::{LatencyHistogram, BUCKETS};
use std::sync::atomic::{AtomicU64, Ordering};

/// The label tables a registry is laid out over.  The embedding service
/// supplies its operation, abort-reason, event-loop phase and per-worker
/// counter names; indices into these slices are the only identifiers the
/// hot path uses.
#[derive(Debug, Clone, Copy)]
pub struct RegistrySpec {
    /// Operation labels (one latency histogram + retry counter each).
    pub ops: &'static [&'static str],
    /// Abort/error reason labels (one counter per op × reason).
    pub errors: &'static [&'static str],
    /// Event-loop phase labels (one ns accumulator per worker × phase).
    pub phases: &'static [&'static str],
    /// Monotone counter labels (one count per worker × counter).
    pub counters: &'static [&'static str],
}

/// `n` zeroed slots.
fn zeroed(n: usize) -> Box<[AtomicU64]> {
    (0..n).map(|_| AtomicU64::new(0)).collect()
}

/// Adds `n` to `slot`, skipping the read-modify-write when there is
/// nothing to add.
#[inline]
fn add_to(slot: &AtomicU64, n: u64) {
    if n > 0 {
        slot.fetch_add(n, Ordering::Relaxed);
    }
}

/// Every slot's current value, in order.
fn load_all(slots: &[AtomicU64]) -> Vec<u64> {
    slots.iter().map(|s| s.load(Ordering::Relaxed)).collect()
}

/// A histogram whose buckets are relaxed atomics, recordable from the
/// owning worker without synchronization beyond the increment itself.
struct AtomicHistogram {
    counts: Box<[AtomicU64]>, // BUCKETS entries
    max_ns: AtomicU64,
}

impl AtomicHistogram {
    fn new() -> Self {
        Self {
            counts: zeroed(BUCKETS),
            max_ns: AtomicU64::new(0),
        }
    }

    #[inline]
    fn record_ns(&self, ns: u64) {
        let bucket = 63 - (ns | 1).leading_zeros() as usize;
        self.counts[bucket].fetch_add(1, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    fn merge_into(&self, out: &mut LatencyHistogram) {
        let mut counts = [0u64; BUCKETS];
        for (c, a) in counts.iter_mut().zip(self.counts.iter()) {
            *c = a.load(Ordering::Relaxed);
        }
        out.merge(&LatencyHistogram::from_parts(
            counts,
            self.max_ns.load(Ordering::Relaxed),
        ));
    }
}

/// One worker's pre-allocated metrics block.  All slots are plain atomic
/// words; the worker records with relaxed ordering and a reader thread
/// aggregates whenever asked (counts may trail by an increment — that is
/// the contract of monitoring, not of correctness).
pub struct WorkerMetrics {
    op_hists: Box<[AtomicHistogram]>, // ops
    op_errors: Box<[AtomicU64]>,      // ops × errors, row-major by op
    op_retries: Box<[AtomicU64]>,     // ops
    phase_ns: Box<[AtomicU64]>,       // phases
    counters: Box<[AtomicU64]>,       // counters
    n_errors: usize,
}

impl WorkerMetrics {
    fn new(spec: &RegistrySpec) -> Self {
        Self {
            op_hists: (0..spec.ops.len())
                .map(|_| AtomicHistogram::new())
                .collect(),
            op_errors: zeroed(spec.ops.len() * spec.errors.len()),
            op_retries: zeroed(spec.ops.len()),
            phase_ns: zeroed(spec.phases.len()),
            counters: zeroed(spec.counters.len()),
            n_errors: spec.errors.len(),
        }
    }

    /// Records one served request of operation `op`: end-to-end latency
    /// plus however many transactional attempts beyond the first it took.
    #[inline]
    pub fn record_op(&self, op: usize, latency_ns: u64, retries: u64) {
        self.op_hists[op].record_ns(latency_ns);
        add_to(&self.op_retries[op], retries);
    }

    /// Counts one aborted/failed request of operation `op` with reason
    /// index `error` (indices into [`RegistrySpec::errors`]).
    #[inline]
    pub fn record_error(&self, op: usize, error: usize) {
        self.op_errors[op * self.n_errors + error].fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `ns` nanoseconds to phase `phase` (indices into
    /// [`RegistrySpec::phases`]).  Workers batch their phase time locally
    /// per event-loop pass and flush once, so this is not per-request.
    #[inline]
    pub fn add_phase_ns(&self, phase: usize, ns: u64) {
        add_to(&self.phase_ns[phase], ns);
    }

    /// Adds `n` to counter `counter` (indices into
    /// [`RegistrySpec::counters`]).
    #[inline]
    pub fn add(&self, counter: usize, n: u64) {
        add_to(&self.counters[counter], n);
    }
}

/// Aggregated view of one operation across all workers.
#[derive(Debug, Clone)]
pub struct OpSnapshot {
    /// Index into [`RegistrySpec::ops`].
    pub op: usize,
    /// Merged end-to-end latency histogram.
    pub hist: LatencyHistogram,
    /// Total transactional retries (attempts beyond the first) attributed
    /// to this operation.
    pub retries: u64,
    /// Abort/error counts, indexed like [`RegistrySpec::errors`].
    pub errors: Vec<u64>,
}

impl OpSnapshot {
    /// True if this operation recorded any sample, retry, or error.
    pub fn is_active(&self) -> bool {
        self.hist.total() > 0 || self.retries > 0 || self.errors.iter().any(|&e| e > 0)
    }
}

/// Point-in-time aggregation of a [`MetricsRegistry`].
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// One entry per operation (same order as [`RegistrySpec::ops`]).
    pub ops: Vec<OpSnapshot>,
    /// `phase_ns[worker][phase]` nanoseconds, indexed like
    /// [`RegistrySpec::phases`].
    pub phase_ns: Vec<Vec<u64>>,
    /// `counters[worker][counter]`, indexed like [`RegistrySpec::counters`].
    pub counters: Vec<Vec<u64>>,
}

impl MetricsSnapshot {
    /// Counter `counter` summed over the workers.
    pub fn counter_total(&self, counter: usize) -> u64 {
        self.counters.iter().map(|w| w[counter]).sum()
    }
}

/// The registry: one [`WorkerMetrics`] block per worker, aggregated on
/// demand.  Workers index their own block; nothing on the record path is
/// shared between workers.
pub struct MetricsRegistry {
    spec: RegistrySpec,
    workers: Box<[WorkerMetrics]>,
}

impl MetricsRegistry {
    /// Builds a registry for `workers` workers over the given label
    /// tables.  All storage is allocated here, up front.
    pub fn new(spec: RegistrySpec, workers: usize) -> Self {
        Self {
            spec,
            workers: (0..workers).map(|_| WorkerMetrics::new(&spec)).collect(),
        }
    }

    /// The label tables this registry was laid out over.
    pub fn spec(&self) -> &RegistrySpec {
        &self.spec
    }

    /// Number of worker blocks.
    pub fn n_workers(&self) -> usize {
        self.workers.len()
    }

    /// Worker `i`'s metrics block (the worker holds on to this reference
    /// for its lifetime; no bounds work on the record path).
    pub fn worker(&self, i: usize) -> &WorkerMetrics {
        &self.workers[i]
    }

    /// Aggregates every worker block into plain histograms and counters.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let n_errors = self.spec.errors.len();
        let ops = (0..self.spec.ops.len())
            .map(|op| {
                let mut hist = LatencyHistogram::new();
                let mut retries = 0u64;
                let mut errors = vec![0u64; n_errors];
                for w in self.workers.iter() {
                    w.op_hists[op].merge_into(&mut hist);
                    retries += w.op_retries[op].load(Ordering::Relaxed);
                    for (e, slot) in errors.iter_mut().enumerate() {
                        *slot += w.op_errors[op * n_errors + e].load(Ordering::Relaxed);
                    }
                }
                OpSnapshot {
                    op,
                    hist,
                    retries,
                    errors,
                }
            })
            .collect();
        MetricsSnapshot {
            ops,
            phase_ns: self.workers.iter().map(|w| load_all(&w.phase_ns)).collect(),
            counters: self.workers.iter().map(|w| load_all(&w.counters)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: RegistrySpec = RegistrySpec {
        ops: &["get", "put", "transfer"],
        errors: &["retry", "capacity"],
        phases: &["wait", "exec"],
        counters: &["waits", "retries"],
    };

    #[test]
    fn records_aggregate_across_workers() {
        let reg = MetricsRegistry::new(SPEC, 2);
        reg.worker(0).record_op(0, 1_000, 0);
        reg.worker(1).record_op(0, 3_000, 2);
        reg.worker(1).record_op(2, 50_000, 1);
        reg.worker(0).record_error(0, 1);
        reg.worker(1).record_error(0, 1);
        reg.worker(0).add_phase_ns(1, 500);
        reg.worker(1).add_phase_ns(0, 700);
        reg.worker(0).add(0, 3);
        reg.worker(1).add(0, 4);
        reg.worker(1).add(1, 0);
        reg.worker(1).add(1, 1);

        let snap = reg.snapshot();
        assert_eq!(snap.ops[0].hist.total(), 2);
        assert_eq!(snap.ops[0].hist.max_ns(), 3_000);
        assert_eq!(snap.ops[0].retries, 2);
        assert_eq!(snap.ops[0].errors, vec![0, 2]);
        assert!(snap.ops[0].is_active());
        assert_eq!(snap.ops[1].hist.total(), 0);
        assert!(!snap.ops[1].is_active());
        assert_eq!(snap.ops[2].hist.total(), 1);
        assert_eq!(snap.ops[2].retries, 1);
        assert_eq!(snap.phase_ns, vec![vec![0, 500], vec![700, 0]]);
        assert_eq!(snap.counters, vec![vec![3, 0], vec![4, 1]]);
        assert_eq!(snap.counter_total(0), 7);
    }

    #[test]
    fn atomic_histogram_matches_plain_histogram() {
        let reg = MetricsRegistry::new(SPEC, 1);
        let mut plain = LatencyHistogram::new();
        let mut seed = 0xDEADBEEFu64;
        for _ in 0..5_000 {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            let ns = seed >> (seed % 50);
            reg.worker(0).record_op(1, ns, 0);
            plain.record_ns(ns);
        }
        let snap = reg.snapshot();
        assert_eq!(snap.ops[1].hist.counts(), plain.counts());
        assert_eq!(snap.ops[1].hist.max_ns(), plain.max_ns());
        assert_eq!(snap.ops[1].hist.percentiles_ns(), plain.percentiles_ns());
    }
}
