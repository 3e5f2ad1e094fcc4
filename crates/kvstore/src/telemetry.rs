//! Server-side telemetry, the one counter set a server keeps: per-opcode
//! latency histograms, abort-reason and retry breakdowns, event-loop phase
//! accounting and counters, slow-request tracing, and the backlog gauge.
//!
//! The hot path is allocation-free: each worker owns one
//! [`obs::WorkerMetrics`] block of relaxed atomics inside a shared
//! [`obs::MetricsRegistry`], so recording a request is a handful of
//! `fetch_add`s with no locks.  Aggregation happens only when somebody
//! asks, on the *reader's* thread; every report below is a rendering of
//! one registry snapshot.
//!
//! Four consumers share this module's state:
//!
//! * `STATS`'s load and event-loop sections ([`LoadStats`], [`EventStats`]):
//!   the shed count is the `overload` abort column, the event-loop and
//!   accept-retry counts are per-worker counters;
//! * the `METRICS` wire command ([`Telemetry::metrics_reply`]) — raw
//!   64-bucket histograms per opcode, so a client reconstructs exactly the
//!   server's [`obs::LatencyHistogram`] and can compare its own observed
//!   latencies against the server's service times;
//! * the `TRACE` wire command ([`Telemetry::trace_reply`]) — the newest
//!   slow-request records from every worker's bounded ring;
//! * the optional `--metrics-addr` HTTP listener (`MetricsExporter`) —
//!   Prometheus text exposition rendered by [`obs::prom`], one blocking
//!   thread, plain `std` TCP, no dependencies.
//!
//! [`TelemetryConfig::enabled`] gates only the clock reads: off, the
//! histograms, phases and traces stay empty, and every count (errors,
//! event-loop counters, accept retries) is kept either way.

use crate::proto::{
    self, EventStats, LoadStats, MetricsReply, OpMetrics, TraceReply, WorkerEvents,
};
use crate::store::ErrCode;
use medley::util::CachePadded;
use obs::{MetricsRegistry, MetricsSnapshot, RegistrySpec, TraceRing, WorkerMetrics};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The opcodes the registry tracks, in registry-index order (admin opcodes
/// are deliberately absent: `STATS`/`METRICS`/`TRACE` must not perturb the
/// series they report).
pub(crate) const TRACKED_OPS: [u8; 10] = [
    proto::OP_CONTAINS,
    proto::OP_GETB,
    proto::OP_PUTB,
    proto::OP_DELB,
    proto::OP_CASB,
    proto::OP_TRANSFER,
    proto::OP_BATCH,
    proto::OP_MGETB,
    proto::OP_MSETB,
    proto::OP_SCAN,
];

/// Exposition label per tracked opcode, parallel to `TRACKED_OPS`.
pub const OP_LABELS: &[&str] = &[
    "contains", "get_b", "put_b", "del_b", "cas_b", "transfer", "batch", "mget_b", "mset_b", "scan",
];

/// Abort/error-reason labels, indexed by [`ErrCode`] discriminant order
/// (the order `OpMetrics::aborts` uses on the wire).
pub const ERROR_LABELS: &[&str] = &[
    "retry",
    "capacity",
    "not_found",
    "insufficient",
    "overload",
    "malformed",
];

/// Event-loop phase labels, the index order of
/// [`MetricsReply::worker_phases`] rows: kernel wait, frame decode,
/// command execution (including response encode), and socket flush.
pub const PHASE_LABELS: &[&str] = &["epoll_wait", "decode", "execute", "flush"];

/// Phase indices, named so the server's accounting reads as prose.
pub(crate) const PHASE_EPOLL_WAIT: usize = 0;
pub(crate) const PHASE_DECODE: usize = 1;
pub(crate) const PHASE_EXECUTE: usize = 2;
pub(crate) const PHASE_FLUSH: usize = 3;

/// Per-worker counter labels: the four event-loop counters of
/// [`WorkerEvents`], then the `accept(2)` failures the acceptor survived
/// while this worker was next in line for a connection.
pub const COUNTER_LABELS: &[&str] = &[
    "epoll_waits",
    "events_dispatched",
    "spurious_wakeups",
    "writev_saved",
    "accept_retries",
];

/// Counter indices into [`COUNTER_LABELS`].
pub(crate) const EPOLL_WAITS: usize = 0;
pub(crate) const EVENTS_DISPATCHED: usize = 1;
pub(crate) const SPURIOUS_WAKEUPS: usize = 2;
pub(crate) const WRITEV_SAVED: usize = 3;
pub(crate) const ACCEPT_RETRIES: usize = 4;

/// The registry shape every kvstore server uses.
const SPEC: RegistrySpec = RegistrySpec {
    ops: OP_LABELS,
    errors: ERROR_LABELS,
    phases: PHASE_LABELS,
    counters: COUNTER_LABELS,
};

/// Metric family prefix on the exposition page (`kvstore_op_latency_ns_...`).
const PROM_PREFIX: &str = "kvstore";

/// Registry index of a tracked opcode (`None` for admin/unknown opcodes).
#[inline]
pub(crate) fn op_index(opcode: u8) -> Option<usize> {
    TRACKED_OPS.iter().position(|&op| op == opcode)
}

/// Error-label index of an [`ErrCode`] (the `aborts` vector position).
#[inline]
pub(crate) fn error_index(e: ErrCode) -> usize {
    match e {
        ErrCode::Retry => 0,
        ErrCode::Capacity => 1,
        ErrCode::NotFound => 2,
        ErrCode::Insufficient => 3,
        ErrCode::Overload => 4,
        ErrCode::Malformed => 5,
    }
}

/// Telemetry construction parameters (part of
/// [`crate::ServerConfig`]).
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Read the clock for latency histograms, phase accounting and
    /// slow-request traces.  Off, the per-request path reads no clock and
    /// those three stay empty, while every count `STATS` and `METRICS`
    /// report (errors, event-loop counters, accept retries) is still kept —
    /// the A/B configuration the overhead benchmark compares.
    pub enabled: bool,
    /// Requests whose service time reaches this land in the slow-request
    /// ring.  `Duration::ZERO` traces every tracked request (the
    /// deterministic mode tests use).
    pub slow_threshold: Duration,
    /// Capacity of each worker's slow-request ring (newest kept, evictions
    /// counted).
    pub trace_capacity: usize,
    /// Optional `host:port` to serve Prometheus text exposition on (its own
    /// thread; `None` disables the listener).
    pub metrics_addr: Option<String>,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self {
            enabled: true,
            slow_threshold: Duration::from_millis(1),
            trace_capacity: 256,
            metrics_addr: None,
        }
    }
}

/// The backlog gauge `STATS` reports: each worker's buffered bytes in both
/// directions, stored once per pass, and the high-water mark of their sum.
pub(crate) struct ServerLoad {
    peak_backlog: AtomicU64,
    /// Per-worker backlog bytes, one padded slot each (no false sharing on
    /// the per-pass store).
    backlog: Vec<CachePadded<AtomicU64>>,
}

impl ServerLoad {
    fn new(workers: usize) -> Self {
        Self {
            peak_backlog: AtomicU64::new(0),
            backlog: (0..workers)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
        }
    }

    pub(crate) fn set_backlog(&self, slot: usize, bytes: u64) {
        self.backlog[slot].store(bytes, Ordering::Relaxed);
        let total = self.inflight();
        // Every worker runs this every pass: write the shared peak only
        // when it moves, so a steady backlog costs a load, not a locked RMW.
        if total > self.peak_backlog.load(Ordering::Relaxed) {
            self.peak_backlog.fetch_max(total, Ordering::Relaxed);
        }
    }

    fn inflight(&self) -> u64 {
        self.backlog.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }
}

/// Shared telemetry state: the metrics registry, the per-worker slow-request
/// rings, the backlog gauge, and the server's start instant (uptime).
pub struct Telemetry {
    registry: MetricsRegistry,
    traces: Vec<TraceRing>,
    load: ServerLoad,
    slow_ns: u64,
    timed: bool,
    started: Instant,
}

impl Telemetry {
    pub(crate) fn new(cfg: &TelemetryConfig, workers: usize) -> Self {
        Self {
            registry: MetricsRegistry::new(SPEC, workers),
            traces: (0..workers)
                .map(|_| TraceRing::new(cfg.trace_capacity))
                .collect(),
            load: ServerLoad::new(workers),
            slow_ns: cfg.slow_threshold.as_nanos().min(u64::MAX as u128) as u64,
            timed: cfg.enabled,
            started: Instant::now(),
        }
    }

    /// The current instant when the clock is on (`None`, without reading
    /// it, when [`TelemetryConfig::enabled`] is off).
    #[inline]
    pub(crate) fn clock(&self) -> Option<Instant> {
        self.timed.then(Instant::now)
    }

    /// The backlog gauge.
    pub(crate) fn load(&self) -> &ServerLoad {
        &self.load
    }

    /// The shared metrics registry (per-worker write blocks + snapshots).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Worker `slot`'s metrics block.
    #[inline]
    pub(crate) fn worker(&self, slot: usize) -> &WorkerMetrics {
        self.registry.worker(slot)
    }

    /// Worker `slot`'s slow-request ring.
    #[inline]
    pub(crate) fn trace(&self, slot: usize) -> &TraceRing {
        &self.traces[slot]
    }

    /// Service-time threshold for slow-request tracing, in nanoseconds.
    #[inline]
    pub(crate) fn slow_ns(&self) -> u64 {
        self.slow_ns
    }

    /// Whole seconds since the server started.
    pub fn uptime_secs(&self) -> u64 {
        self.started.elapsed().as_secs()
    }

    /// The `STATS` load and event-loop sections, read off one registry
    /// snapshot.  The shed count is the `overload` abort column: only the
    /// shed branch answers `Overload`.
    pub(crate) fn sections(&self) -> (LoadStats, EventStats) {
        let snap = self.registry.snapshot();
        let overload = error_index(ErrCode::Overload);
        let load = LoadStats {
            shed_requests: snap.ops.iter().map(|o| o.errors[overload]).sum(),
            inflight_bytes: self.load.inflight(),
            peak_inflight_bytes: self.load.peak_backlog.load(Ordering::Relaxed),
            accept_retries: snap.counter_total(ACCEPT_RETRIES),
        };
        (load, events_of(&snap))
    }

    /// Folds the per-worker blocks into the `METRICS` wire reply.  Inactive
    /// opcodes (no samples, no retries, no aborts) are omitted.
    pub fn metrics_reply(&self) -> MetricsReply {
        let snap = self.registry.snapshot();
        MetricsReply {
            uptime_secs: self.uptime_secs(),
            ops: snap
                .ops
                .iter()
                .filter(|o| o.is_active())
                .map(|o| OpMetrics {
                    opcode: TRACKED_OPS[o.op],
                    hist: o.hist.clone(),
                    retries: o.retries,
                    aborts: o.errors.clone(),
                })
                .collect(),
            worker_phases: snap.phase_ns,
        }
    }

    /// Concatenates every worker's slow-request ring (worker order, oldest
    /// first within a worker) into the `TRACE` wire reply.
    pub fn trace_reply(&self) -> TraceReply {
        let mut reply = TraceReply::default();
        for ring in &self.traces {
            let (records, evicted) = ring.snapshot();
            reply.records.extend(records);
            reply.evicted += evicted;
        }
        reply
    }

    /// Renders the Prometheus text exposition page.
    pub fn render_prometheus(&self) -> String {
        obs::prom::render(
            &SPEC,
            &self.registry.snapshot(),
            self.started.elapsed().as_secs_f64(),
            PROM_PREFIX,
        )
    }
}

/// The `STATS` event-loop section: per-worker counter rows and their sums.
fn events_of(snap: &MetricsSnapshot) -> EventStats {
    EventStats {
        epoll_waits: snap.counter_total(EPOLL_WAITS),
        events_dispatched: snap.counter_total(EVENTS_DISPATCHED),
        spurious_wakeups: snap.counter_total(SPURIOUS_WAKEUPS),
        writev_saved: snap.counter_total(WRITEV_SAVED),
        per_worker: snap
            .counters
            .iter()
            .map(|c| WorkerEvents {
                epoll_waits: c[EPOLL_WAITS],
                events_dispatched: c[EVENTS_DISPATCHED],
                spurious_wakeups: c[SPURIOUS_WAKEUPS],
                writev_saved: c[WRITEV_SAVED],
            })
            .collect(),
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("workers", &self.registry.n_workers())
            .field("slow_ns", &self.slow_ns)
            .finish()
    }
}

/// How often the exporter's accept loop rechecks the stop flag while idle.
const EXPORTER_POLL: Duration = Duration::from_millis(25);

/// Per-connection socket timeout: a scraper that stalls mid-request cannot
/// wedge the exporter thread.
const EXPORTER_IO_TIMEOUT: Duration = Duration::from_secs(2);

/// The Prometheus exposition listener: one thread, one nonblocking
/// `TcpListener`, serving every HTTP request with the current exposition
/// page and closing (`Connection: close` semantics — scrapers reconnect per
/// scrape anyway).
pub(crate) struct MetricsExporter {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl MetricsExporter {
    /// Binds `addr` and spawns the serving thread.
    pub(crate) fn start(addr: &str, tel: Arc<Telemetry>) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("kv-metrics".to_string())
            .spawn(move || exporter_loop(listener, tel, thread_stop))?;
        Ok(Self {
            local_addr,
            stop,
            handle: Some(handle),
        })
    }

    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    pub(crate) fn shutdown(mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for MetricsExporter {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn exporter_loop(listener: TcpListener, tel: Arc<Telemetry>, stop: Arc<AtomicBool>) {
    while !stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => {
                // Serve inline: scrapes are rare (seconds apart) and the
                // page renders in microseconds, so a second thread would
                // only add moving parts.
                let _ = serve_scrape(stream, &tel);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(EXPORTER_POLL);
            }
            Err(_) => std::thread::sleep(EXPORTER_POLL),
        }
    }
}

/// Reads (and discards) the request head, then writes the exposition page.
/// Any HTTP request gets the page — there is exactly one resource.
fn serve_scrape(mut stream: std::net::TcpStream, tel: &Telemetry) -> std::io::Result<()> {
    stream.set_read_timeout(Some(EXPORTER_IO_TIMEOUT))?;
    stream.set_write_timeout(Some(EXPORTER_IO_TIMEOUT))?;
    let mut head = [0u8; 4096];
    let mut seen = 0usize;
    while seen < head.len() {
        let n = stream.read(&mut head[seen..])?;
        if n == 0 {
            break;
        }
        seen += n;
        if head[..seen].windows(4).any(|w| w == b"\r\n\r\n") {
            break;
        }
    }
    let body = tel.render_prometheus();
    let response = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        body.len(),
        body
    );
    stream.write_all(response.as_bytes())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::TraceRecord;

    #[test]
    fn op_and_error_indices_are_consistent_with_labels() {
        assert_eq!(TRACKED_OPS.len(), OP_LABELS.len());
        for (i, &op) in TRACKED_OPS.iter().enumerate() {
            assert_eq!(op_index(op), Some(i));
        }
        // Admin opcodes must not be tracked: their handling would otherwise
        // pollute the very series they report.
        for admin in [
            proto::OP_STATS,
            proto::OP_SYNC,
            proto::OP_METRICS,
            proto::OP_TRACE,
        ] {
            assert_eq!(op_index(admin), None);
        }
        assert_eq!(ERROR_LABELS.len(), 6);
        for (e, want) in [
            (ErrCode::Retry, "retry"),
            (ErrCode::Capacity, "capacity"),
            (ErrCode::NotFound, "not_found"),
            (ErrCode::Insufficient, "insufficient"),
            (ErrCode::Overload, "overload"),
            (ErrCode::Malformed, "malformed"),
        ] {
            assert_eq!(ERROR_LABELS[error_index(e)], want);
        }
        for (c, want) in [
            (EPOLL_WAITS, "epoll_waits"),
            (EVENTS_DISPATCHED, "events_dispatched"),
            (SPURIOUS_WAKEUPS, "spurious_wakeups"),
            (WRITEV_SAVED, "writev_saved"),
            (ACCEPT_RETRIES, "accept_retries"),
        ] {
            assert_eq!(COUNTER_LABELS[c], want);
        }
        assert_eq!(COUNTER_LABELS.len(), 5);
    }

    #[test]
    fn metrics_reply_folds_workers_and_omits_idle_ops() {
        let tel = Telemetry::new(&TelemetryConfig::default(), 2);
        let get = op_index(proto::OP_GETB).unwrap();
        let transfer = op_index(proto::OP_TRANSFER).unwrap();
        tel.worker(0).record_op(get, 1_000, 0);
        tel.worker(1).record_op(get, 3_000, 0);
        tel.worker(1).record_op(transfer, 50_000, 2);
        tel.worker(1)
            .record_error(transfer, error_index(ErrCode::Retry));
        tel.worker(0).add_phase_ns(PHASE_EXECUTE, 4_000);

        let reply = tel.metrics_reply();
        assert_eq!(reply.ops.len(), 2, "idle opcodes are omitted");
        let g = reply
            .ops
            .iter()
            .find(|o| o.opcode == proto::OP_GETB)
            .unwrap();
        assert_eq!(g.hist.total(), 2, "workers fold into one histogram");
        let t = reply
            .ops
            .iter()
            .find(|o| o.opcode == proto::OP_TRANSFER)
            .unwrap();
        assert_eq!(t.retries, 2);
        assert_eq!(t.aborts[error_index(ErrCode::Retry)], 1);
        assert_eq!(reply.worker_phases.len(), 2);
        assert_eq!(reply.worker_phases[0][PHASE_EXECUTE], 4_000);
    }

    #[test]
    fn trace_reply_concatenates_worker_rings() {
        let tel = Telemetry::new(
            &TelemetryConfig {
                trace_capacity: 2,
                ..Default::default()
            },
            2,
        );
        for i in 0..3u64 {
            tel.trace(0).push(TraceRecord {
                opcode: proto::OP_PUTB,
                status: 0,
                req_id: i,
                queue_ns: 0,
                exec_ns: 10,
                retries: 0,
            });
        }
        tel.trace(1).push(TraceRecord {
            opcode: proto::OP_GETB,
            status: 0,
            req_id: 100,
            queue_ns: 0,
            exec_ns: 10,
            retries: 0,
        });
        let reply = tel.trace_reply();
        assert_eq!(reply.records.len(), 3, "2 kept on worker 0 + 1 on worker 1");
        assert_eq!(reply.evicted, 1);
    }

    #[test]
    fn exporter_serves_the_exposition_page() {
        let tel = Arc::new(Telemetry::new(&TelemetryConfig::default(), 1));
        tel.worker(0)
            .record_op(op_index(proto::OP_GETB).unwrap(), 5_000, 0);
        let exporter = MetricsExporter::start("127.0.0.1:0", Arc::clone(&tel)).unwrap();
        let mut stream = std::net::TcpStream::connect(exporter.local_addr()).unwrap();
        stream
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut page = String::new();
        stream.read_to_string(&mut page).unwrap();
        assert!(page.starts_with("HTTP/1.1 200 OK"));
        assert!(page.contains("kvstore_uptime_seconds"));
        assert!(page.contains("kvstore_op_latency_ns_bucket{op=\"get_b\""));
        exporter.shutdown();
    }
}
