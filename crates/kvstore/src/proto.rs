//! The kvstore wire protocol: a length-prefixed binary frame codec.
//!
//! # Wire format
//!
//! Every message — request or response — is one *frame*:
//!
//! ```text
//! [u32 len (LE)] [payload: len bytes]
//! ```
//!
//! `len` counts only the payload and must not exceed [`MAX_FRAME`]; a peer
//! announcing a larger frame is malformed and the connection is closed.
//! Frames are fully pipelined: a client may send any number of request
//! frames without waiting, and the server answers each request with exactly
//! one response frame *in request order* per connection.
//!
//! ## Request payload
//!
//! ```text
//! [u32 req_id (LE)] [u8 opcode] [body]
//! ```
//!
//! `req_id` is an opaque client-chosen token echoed verbatim in the
//! response.  Opcodes and bodies (all integers little-endian):
//!
//! | opcode | name       | body |
//! |--------|------------|------|
//! | `0x05` | `CONTAINS` | `key: u64` |
//! | `0x06` | `GETB`     | `key: u64` |
//! | `0x07` | `PUTB`     | `key: u64, vlen: u32, vlen × u8` |
//! | `0x08` | `DELB`     | `key: u64` |
//! | `0x09` | `CASB`     | `key: u64, elen: u32, elen × u8, dlen: u32, dlen × u8` |
//! | `0x12` | `TRANSFER` | `from: u64, to: u64, amount: u64` |
//! | `0x13` | `BATCH`    | `n: u32, n × (u8 opcode + body)` — single-key ops only |
//! | `0x16` | `MGETB`    | `n: u32, n × key: u64` |
//! | `0x17` | `MSETB`    | `n: u32, n × (key: u64, vlen: u32, vlen × u8)` |
//! | `0x18` | `SCAN`     | `lo: u64, hi: u64, limit: u32` |
//! | `0x20` | `STATS`    | (empty) |
//! | `0x21` | `SYNC`     | (empty) |
//! | `0x22` | `METRICS`  | (empty) — server-side telemetry snapshot |
//! | `0x23` | `TRACE`    | (empty) — slow-request trace ring dump |
//!
//! Opcodes `0x01`–`0x04`, `0x10` and `0x11` are retired (they were a
//! fixed-width `u64` twin of the value commands) and decode as malformed.
//!
//! ## Values
//!
//! A value travels **length-prefixed** (`vlen: u32` LE followed by `vlen`
//! raw bytes) and may be `0..=`[`MAX_VALUE_BYTES`] (256 KiB) bytes long;
//! decoders reject anything longer *before* allocating, even though the
//! 1 MiB frame cap would admit it.  An exactly-8-byte value is canonically a
//! word ([`pmem::Value::from_bytes`]), so `PUTB k <5u64 LE>` stores the word
//! 5, which is what `TRANSFER` reads as a balance.
//!
//! Single-key reads and writes (`CONTAINS`/`GETB`/`PUTB`/`DELB`) run as
//! standalone (uninstrumented `NonTx`) operations.  Whatever composes
//! (`CASB`, every multi-key command) runs as one Medley transaction:
//! `MGETB` is one atomic (read-only, descriptor-free) snapshot, `MSETB` and
//! `TRANSFER` are failure-atomic across all their keys — and across whatever
//! *shards* (distinct nonblocking structures) those keys hash to, which is
//! exactly the NBTC composition the paper builds.  `BATCH` runs its command
//! list under a single `ThreadHandle::run_with`; its legal members are the
//! single-key commands (`CONTAINS`/`GETB`/`PUTB`/`DELB`/`CASB`).
//!
//! `SCAN lo hi limit` returns an **atomically consistent ordered page** of
//! the half-open key window `[lo, hi)`: one read-only Medley transaction
//! walks the range-partitioned skiplist shards in key order, so every
//! returned pair coexisted in a single serializable snapshot.  It is only
//! answerable by range-partitioned stores (`TableKind::Skip`); on
//! hash-partitioned ones it reports `ERR_MALFORMED`, and it is not a legal
//! `BATCH` member.  The server truncates pages at `min(limit, 32768)`
//! entries and a 512 KiB value budget; a truncated page is still a
//! consistent *prefix* of the window, so clients resume from
//! `last_key + 1`.  Every returned entry is two counted reads in the scan's
//! transaction descriptor, so a page is additionally bounded by the
//! descriptor's read-set capacity (8192 reads: 4096 keys) — a window too wide to fit
//! reports `ABORT_CAPACITY`, exactly like an oversized `BATCH`: shrink the
//! window and page through it.
//!
//! ## Response payload
//!
//! ```text
//! [u32 req_id (LE)] [u8 status] [u8 opcode echo] [body if status == OK]
//! ```
//!
//! ### Status / abort-code mapping
//!
//! A transaction that loses a conflict is retried server-side up to the
//! configured retry budget; the status byte reports how the command
//! ultimately resolved:
//!
//! | status | name               | meaning |
//! |--------|--------------------|---------|
//! | `0x00` | `OK`               | committed (or standalone op completed) |
//! | `0x10` | `ABORT_RETRY`      | conflict-aborted past the retry budget ([`medley::TxError::RetriesExhausted`]); safe to resend |
//! | `0x11` | `ABORT_CAPACITY`   | transaction overflowed descriptor capacity ([`medley::TxError::CapacityExceeded`]); shrink the batch |
//! | `0x12` | `ERR_NOT_FOUND`    | `TRANSFER` named a missing account (explicit abort; nothing changed) |
//! | `0x13` | `ERR_INSUFFICIENT` | `TRANSFER` source balance below `amount`, or the credit would overflow the destination (explicit abort; nothing changed) |
//! | `0x14` | `ABORT_OVERLOAD`   | load-shed at admission: the server is over its backlog watermark and refused to *start* the (transactional) command — nothing was executed, no partial effects exist; safe to resend after a jittered delay |
//! | `0x20` | `ERR_MALFORMED`    | undecodable request (a retired or unknown opcode included), oversized frame, an illegal `BATCH` member, an over-limit value, `SCAN` on a hash-partitioned store, or a `TRANSFER` account that is not a word (nothing changed) |
//!
//! Non-`OK` responses carry no body beyond the opcode echo.  `OK` bodies:
//!
//! | opcode | body |
//! |--------|------|
//! | `CONTAINS`  | `present: u8` |
//! | `GETB`/`DELB` | `tagged value` (below) |
//! | `PUTB`      | `tagged value` — the previous value |
//! | `CASB`      | `success: u8, tagged value` — post-op value |
//! | `MSETB`     | (empty) |
//! | `TRANSFER`  | `from_after: u64, to_after: u64` |
//! | `BATCH`     | `n: u32, n × (u8 opcode + single-op body)` |
//! | `MGETB`     | `n: u32, n × tagged value` |
//! | `SCAN`      | `n: u32, n × (key: u64, vlen: u32, vlen × u8)` — keys strictly ascending |
//! | `STATS`     | `uptime_secs: u64`, `N` × `u64` transaction counters in declaration order ([`TxStatsSnapshot::to_array`]; `N` = 11), `has_domain: u8` (+ 5 × `u64` domain stats), `has_load: u8` (+ 4 × `u64` load stats), `has_tables: u8` (+ table section, below), `has_events: u8` (+ event-loop section: 4 × `u64` aggregate counters, `n: u32`, `n` × 4 × `u64` per-worker counters — see [`EventStats`]) — see [`StatsReply`] |
//! | `SYNC`      | `persisted_epoch: u64` |
//! | `METRICS`   | `uptime_secs: u64`, `n: u32`, `n` × per-opcode block (`opcode: u8, retries: u64, max_ns: u64`, 64 × `bucket: u64`, `e: u32`, `e` × `abort_count: u64`), `w: u32`, `w` × per-worker phase block (`p: u32`, `p` × `phase_ns: u64`) — see [`MetricsReply`] |
//! | `TRACE`     | `evicted: u64, n: u32`, `n` × trace record (`opcode: u8, status: u8, req_id: u64, queue_ns: u64, exec_ns: u64, retries: u64`) — see [`TraceReply`] |
//!
//! A *tagged value* in a response is one byte of tag plus a
//! tag-dependent body: `0` = absent (no body), `1` = word (`val: u64`),
//! `2` = bytes (`vlen: u32, vlen × u8`, same [`MAX_VALUE_BYTES`] bound as
//! requests).  Encoders emit the canonical form (8-byte values always travel
//! as tag `1`), and decoders re-canonicalize defensively.
//!
//! The `STATS` table section (present when `has_tables == 1`) describes the
//! store's shards and how keys are routed to them:
//!
//! ```text
//! grow_events: u64            // directory doublings, summed over elastic shards
//! partition: u8               // 0 = hash partitioning, 1 = range partitioning
//! has_cache: u8 [+ hits: u64, misses: u64, evictions: u64]  // cache tallies,
//!                             // summed over cache shards (cache stores only)
//! n: u32                      // shard count
//! n × (
//!   kind: u8                  // 0 = hash, 1 = skip, 2 = elastic, 3 = cache
//!   has_items: u8 [+ items: u64]  // per-shard item count (hash/elastic: relaxed;
//!                                 // cache: exact transactional occupancy)
//!   buckets: u64              // current bucket count (0 for skiplists)
//! )
//! ```
//!
//! A shard's load factor is derived, not wired: `items / buckets` for the
//! kinds that report both.  Skiplists have neither buckets nor a maintained
//! counter, so they report `kind = 1`, `has_items = 0`, `buckets = 0`.
//! Cache shards report their *exact* occupancy — the count is maintained
//! inside the same transactions that mutate the shard, so the summed value
//! never exceeds the configured capacity in any committed state.

use crate::store::{Cmd, CmdOut};
use medley::TxStatsSnapshot;
use obs::{LatencyHistogram, TraceRecord, BUCKETS};
use pmem::{DomainStats, Value, MAX_VALUE_BYTES};

/// Maximum payload size of one frame (1 MiB).  Large enough for a
/// multi-thousand-key `MSETB`, small enough that a corrupt length prefix
/// cannot make a peer buffer gigabytes.
pub const MAX_FRAME: usize = 1 << 20;

/// Length of the frame header (the `u32` length prefix).
pub const FRAME_HEADER: usize = 4;

pub(crate) const OP_CONTAINS: u8 = 0x05;
pub(crate) const OP_GETB: u8 = 0x06;
pub(crate) const OP_PUTB: u8 = 0x07;
pub(crate) const OP_DELB: u8 = 0x08;
pub(crate) const OP_CASB: u8 = 0x09;
pub(crate) const OP_TRANSFER: u8 = 0x12;
pub(crate) const OP_BATCH: u8 = 0x13;
pub(crate) const OP_MGETB: u8 = 0x16;
pub(crate) const OP_MSETB: u8 = 0x17;
pub(crate) const OP_SCAN: u8 = 0x18;
pub(crate) const OP_STATS: u8 = 0x20;
pub(crate) const OP_SYNC: u8 = 0x21;
pub(crate) const OP_METRICS: u8 = 0x22;
pub(crate) const OP_TRACE: u8 = 0x23;

const ST_OK: u8 = 0x00;
const ST_ABORT_RETRY: u8 = 0x10;
const ST_ABORT_CAPACITY: u8 = 0x11;
const ST_ERR_NOT_FOUND: u8 = 0x12;
const ST_ERR_INSUFFICIENT: u8 = 0x13;
const ST_ABORT_OVERLOAD: u8 = 0x14;
const ST_ERR_MALFORMED: u8 = 0x20;

/// A decoded request: a store command or an admin command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// A data command executed by the store core.
    Cmd(Cmd),
    /// Aggregated `TxStatsSnapshot` (+ `DomainStats` in durable mode, the
    /// table section, and from a server its uptime, load and event-loop
    /// sections).
    Stats,
    /// Durability cut: everything completed before the reply is recoverable.
    Sync,
    /// Per-opcode telemetry snapshot: latency histograms, abort-reason and
    /// retry breakdowns, per-worker event-loop phase accounting.
    Metrics,
    /// Slow-request trace ring dump.
    Trace,
}

pub use crate::store::ErrCode;

/// Server load / admission-control counters reported by `STATS`.
///
/// These come from the server's overload machinery, not the store core, so a
/// `Store::stats` taken without a server reports `None` for the section.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LoadStats {
    /// Requests refused with [`ErrCode::Overload`] since startup.
    pub shed_requests: u64,
    /// Decoded-but-unexecuted request bytes currently queued across all
    /// connections (the admission backlog the shed watermark gates on).
    pub inflight_bytes: u64,
    /// High-water mark of `inflight_bytes` since startup.
    pub peak_inflight_bytes: u64,
    /// Transient `accept(2)` failures (e.g. `EMFILE`) survived by backing
    /// off and retrying instead of tearing down the listener.
    pub accept_retries: u64,
}

/// What structure implements one shard (the `kind` byte of the `STATS`
/// table section).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardKind {
    /// Michael chained hash table (fixed bucket count).
    Hash,
    /// Skiplist (no buckets, no maintained item counter).
    Skip,
    /// Split-ordered elastic hash table (bucket directory grows on-line).
    Elastic,
    /// Second-chance cache: hash map + FIFO queue composed transactionally.
    Cache,
}

/// How the store routes keys to shards (the `partition` byte of the `STATS`
/// table section).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PartitionScheme {
    /// Keys are hashed to shards; point ops spread evenly, no global order.
    #[default]
    Hash,
    /// Shards own contiguous key ranges in shard order; `SCAN` is available.
    Range,
}

/// Cache effectiveness tallies, summed over a cache store's shards
/// (the `has_cache` section of the `STATS` table section).
///
/// Counters are commit-disciplined: an operation that aborts (or retries)
/// tallies nothing, so `hits + misses` equals the number of *committed*
/// lookups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Committed lookups that found their key.
    pub hits: u64,
    /// Committed lookups that missed.
    pub misses: u64,
    /// Entries removed by the second-chance policy to hold capacity.
    pub evictions: u64,
}

/// One shard's table metrics in the `STATS` reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStats {
    /// Which structure backs the shard.
    pub kind: ShardKind,
    /// Relaxed item count (`None` for kinds without a maintained counter).
    pub items: Option<u64>,
    /// Current bucket count (`0` for bucketless kinds).
    pub buckets: u64,
}

/// Event-loop counters reported by `STATS` (servers only; a bare
/// `Store::stats` reports `None` for the section).
///
/// Summed over the worker threads since startup.  Together they describe how
/// efficiently readiness is being turned into work: `events_dispatched /
/// epoll_waits` is the wakeup batching factor, `spurious_wakeups` counts
/// dispatched readiness events whose pumps moved no bytes and served no
/// frame, and `writev_saved` counts the `write(2)` calls the vectored
/// response path avoided (each `writev` of *n* buffers saves *n − 1* calls).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EventStats {
    /// `epoll_wait(2)` calls made by the worker loops.
    pub epoll_waits: u64,
    /// Readiness events dispatched to connections (doorbell events excluded).
    pub events_dispatched: u64,
    /// Dispatched events whose pumps made no progress.
    pub spurious_wakeups: u64,
    /// `write` syscalls avoided by batching response frames into `writev`.
    pub writev_saved: u64,
    /// The same four counters broken out per worker thread, in worker
    /// order — an uneven spread here means connection handoff is skewed
    /// (the aggregate fields above are the column sums).
    pub per_worker: Vec<WorkerEvents>,
}

/// One worker thread's event-loop counters (the per-worker rows of
/// [`EventStats`]; field meanings identical to the aggregate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkerEvents {
    /// `epoll_wait(2)` calls made by this worker's loop.
    pub epoll_waits: u64,
    /// Readiness events this worker dispatched to connections.
    pub events_dispatched: u64,
    /// Dispatched events whose pumps made no progress.
    pub spurious_wakeups: u64,
    /// `write` syscalls this worker avoided via `writev` batching.
    pub writev_saved: u64,
}

/// The per-table section of the `STATS` reply: one entry per shard plus the
/// store-wide growth tally.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TableStats {
    /// Directory doublings since startup, summed over elastic shards
    /// (always `0` for stores without elastic tables).
    pub grow_events: u64,
    /// How keys are routed to the shards below.
    pub partition: PartitionScheme,
    /// Cache tallies, summed over cache shards (`None` unless the store's
    /// tables are caches).
    pub cache: Option<CacheStats>,
    /// Per-shard kind / items / buckets, in shard order.
    pub shards: Vec<ShardStats>,
}

/// The `STATS` response payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsReply {
    /// Whole seconds since the server started (0 for a bare `Store::stats`
    /// taken without a server).
    pub uptime_secs: u64,
    /// Aggregated transaction counters ([`medley::TxManager::stats_snapshot`]).
    pub tx: TxStatsSnapshot,
    /// Persistence-domain state (durable servers only).
    pub domain: Option<DomainStats>,
    /// Admission-control counters (only when served by a `kvstore` server).
    pub load: Option<LoadStats>,
    /// Per-shard table metrics (item counts, bucket counts, grow events).
    pub tables: Option<TableStats>,
    /// Event-loop counters (only when served by a `kvstore` server).
    pub events: Option<EventStats>,
}

/// One opcode's aggregated telemetry in a [`MetricsReply`].
///
/// The histogram travels as its raw 64 log-bucket counts and reconstructs
/// on the client as the same [`obs::LatencyHistogram`] the load generators
/// record into — which is what makes client-observed vs. server-observed
/// quantile comparisons apples-to-apples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpMetrics {
    /// The wire opcode this block describes.
    pub opcode: u8,
    /// End-to-end (frame-decoded → response-encoded) latency histogram.
    pub hist: LatencyHistogram,
    /// Transactional attempts beyond the first, summed over this opcode's
    /// served requests.
    pub retries: u64,
    /// Abort/error counts, indexed like [`crate::telemetry::ERROR_LABELS`].
    pub aborts: Vec<u64>,
}

/// The `METRICS` response payload: the server's telemetry registry,
/// aggregated across workers at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsReply {
    /// Whole seconds since the server started.
    pub uptime_secs: u64,
    /// One block per opcode that saw traffic (inactive opcodes are not
    /// shipped).
    pub ops: Vec<OpMetrics>,
    /// `worker_phases[worker][phase]` nanoseconds, indexed like
    /// [`crate::telemetry::PHASE_LABELS`].  Empty when telemetry is
    /// disabled on the server.
    pub worker_phases: Vec<Vec<u64>>,
}

/// The `TRACE` response payload: the slow-request rings of every worker,
/// merged.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceReply {
    /// Lifecycle records of requests that crossed the server's slow
    /// threshold (oldest first per worker).
    pub records: Vec<TraceRecord>,
    /// Slow requests that no longer fit in the bounded rings (evicted
    /// oldest-first); `records.len() + evicted` is the total slow count.
    pub evicted: u64,
}

/// A decoded response.
// `Stats` dwarfs the data-path variants, but a `Response` only ever lives
// for one decode-and-match on the client; boxing the rare admin reply
// would cost an allocation per `STATS` for no hot-path gain.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// The command committed; its result.
    Ok(CmdOut),
    /// Statistics snapshot.
    Stats(StatsReply),
    /// `SYNC` acknowledgement carrying the persisted epoch of the cut.
    Synced(u64),
    /// Telemetry snapshot.
    Metrics(MetricsReply),
    /// Slow-request trace dump.
    Trace(TraceReply),
    /// The command failed with the given code.
    Err(ErrCode),
}

/// Frame-decoding error: the peer sent bytes that cannot be a valid frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProtoError;

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("malformed kvstore protocol frame")
    }
}

impl std::error::Error for ProtoError {}

// ---------------------------------------------------------------------------
// Primitive readers/writers
// ---------------------------------------------------------------------------

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// `n: u32`, then the `n` items (the inverse of [`list`]).
fn put_list<T>(buf: &mut Vec<u8>, items: &[T], mut item: impl FnMut(&mut Vec<u8>, &T)) {
    put_u32(buf, items.len() as u32);
    for it in items {
        item(buf, it);
    }
}

/// A presence byte, then the section behind it when present (the inverse of
/// [`opt`]).
fn put_some<T>(buf: &mut Vec<u8>, v: &Option<T>, some: impl FnOnce(&mut Vec<u8>, &T)) {
    match v {
        Some(v) => {
            buf.push(1);
            some(buf, v);
        }
        None => buf.push(0),
    }
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }
    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.bytes(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }
    fn bytes(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        let end = self.pos.checked_add(n).ok_or(ProtoError)?;
        let bytes = self.buf.get(self.pos..end).ok_or(ProtoError)?;
        self.pos = end;
        Ok(bytes)
    }
    fn finished(&self) -> Result<(), ProtoError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(ProtoError)
        }
    }
}

/// Reads `n: u32` and then `n` items.  This is the one place a count from
/// the wire sizes an allocation: `n` is refused unless the bytes left in the
/// payload could hold that many items of `min_item_bytes` (each item's
/// smallest encoding) — such a list could not decode anyway — and the
/// up-front reservation is clamped besides, because an item in memory can
/// be much larger than its bytes on the wire.
fn list<T>(
    cur: &mut Cursor<'_>,
    min_item_bytes: usize,
    mut item: impl FnMut(&mut Cursor<'_>) -> Result<T, ProtoError>,
) -> Result<Vec<T>, ProtoError> {
    let n = cur.u32()? as usize;
    if n > (cur.buf.len() - cur.pos) / min_item_bytes {
        return Err(ProtoError);
    }
    let mut items = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        items.push(item(cur)?);
    }
    Ok(items)
}

/// Reads a presence byte and, when it is `1`, the section behind it.
fn opt<T>(
    cur: &mut Cursor<'_>,
    some: impl FnOnce(&mut Cursor<'_>) -> Result<T, ProtoError>,
) -> Result<Option<T>, ProtoError> {
    match cur.u8()? {
        0 => Ok(None),
        1 => some(cur).map(Some),
        _ => Err(ProtoError),
    }
}

/// [`Cursor::u64`] as an item reader for [`list`] and [`opt`] (a method path
/// is tied to one cursor lifetime; they need a reader for any).
fn get_u64(cur: &mut Cursor<'_>) -> Result<u64, ProtoError> {
    cur.u64()
}

/// A `STATS` section (or row) that is nothing but `u64` counters: `flat!`
/// names the fields once, in wire order, for the encoder and the decoder.
trait Flat: Sized {
    fn put(buf: &mut Vec<u8>, section: &Self);
    fn get(cur: &mut Cursor<'_>) -> Result<Self, ProtoError>;
}

macro_rules! flat {
    ($ty:ident { $($field:ident),* }) => {
        impl Flat for $ty {
            fn put(buf: &mut Vec<u8>, section: &Self) {
                $(put_u64(buf, section.$field as u64);)*
            }
            fn get(cur: &mut Cursor<'_>) -> Result<Self, ProtoError> {
                Ok($ty { $($field: cur.u64()? as _),* })
            }
        }
    };
}

flat!(DomainStats {
    live_payloads,
    free_slots,
    allocated_slots,
    persisted_epoch,
    current_epoch
});
flat!(LoadStats {
    shed_requests,
    inflight_bytes,
    peak_inflight_bytes,
    accept_retries
});
flat!(CacheStats {
    hits,
    misses,
    evictions
});
flat!(WorkerEvents {
    epoll_waits,
    events_dispatched,
    spurious_wakeups,
    writev_saved
});

// Length-prefixed byte value (`vlen: u32, vlen × u8`) used by the request
// bodies.  Words serialize as their 8 LE bytes; the decoder rebuilds
// through `Value::from_bytes`, so canonical form survives the wire.

fn put_value(buf: &mut Vec<u8>, v: &Value) {
    debug_assert!(v.byte_len() <= MAX_VALUE_BYTES);
    put_u32(buf, v.byte_len() as u32);
    match v {
        Value::U64(w) => buf.extend_from_slice(&w.to_le_bytes()),
        Value::Bytes(b) => buf.extend_from_slice(b),
    }
}

fn get_value(cur: &mut Cursor<'_>) -> Result<Value, ProtoError> {
    // Not a `list`: the bound is the value cap, not what the payload could
    // hold.  The frame cap (1 MiB) is larger than the value cap (256 KiB),
    // so this is the check that refuses an over-limit value, and it does so
    // before touching the payload bytes.
    let len = cur.u32()? as usize;
    if len > MAX_VALUE_BYTES {
        return Err(ProtoError);
    }
    Ok(Value::from_bytes(cur.bytes(len)?))
}

// Tagged optional value (`0` absent / `1` word / `2` bytes) used by the
// response bodies.

fn put_opt_value(buf: &mut Vec<u8>, v: &Option<Value>) {
    match v {
        None => buf.push(0),
        Some(Value::U64(w)) => {
            buf.push(1);
            put_u64(buf, *w);
        }
        Some(bytes) => {
            buf.push(2);
            put_value(buf, bytes);
        }
    }
}

fn get_opt_value(cur: &mut Cursor<'_>) -> Result<Option<Value>, ProtoError> {
    match cur.u8()? {
        0 => Ok(None),
        1 => Ok(Some(Value::U64(cur.u64()?))),
        2 => Ok(Some(get_value(cur)?)),
        _ => Err(ProtoError),
    }
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Appends one frame (length prefix + `payload`) to `out`.
///
/// # Panics
/// Panics if `payload` exceeds [`MAX_FRAME`] (encoders bound their payloads,
/// so this indicates a bug, not peer input).
pub fn write_frame(out: &mut Vec<u8>, payload: &[u8]) {
    assert!(payload.len() <= MAX_FRAME, "frame over MAX_FRAME");
    put_u32(out, payload.len() as u32);
    out.extend_from_slice(payload);
}

/// Tries to split one frame out of `buf[*consumed..]`, advancing `*consumed`
/// past it.  Returns `Ok(None)` when the buffer holds only a partial frame,
/// and `Err` when the announced length exceeds [`MAX_FRAME`] (the connection
/// should be closed; resynchronization is impossible).
pub fn take_frame<'a>(buf: &'a [u8], consumed: &mut usize) -> Result<Option<&'a [u8]>, ProtoError> {
    let rest = &buf[*consumed..];
    if rest.len() < FRAME_HEADER {
        return Ok(None);
    }
    let len = u32::from_le_bytes(rest[..4].try_into().unwrap()) as usize;
    if len > MAX_FRAME {
        return Err(ProtoError);
    }
    if rest.len() < FRAME_HEADER + len {
        return Ok(None);
    }
    let frame = &rest[FRAME_HEADER..FRAME_HEADER + len];
    *consumed += FRAME_HEADER + len;
    Ok(Some(frame))
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

fn cmd_opcode(cmd: &Cmd) -> u8 {
    match cmd {
        Cmd::Contains(_) => OP_CONTAINS,
        Cmd::Transfer { .. } => OP_TRANSFER,
        Cmd::Batch(_) => OP_BATCH,
        Cmd::GetB(_) => OP_GETB,
        Cmd::PutB(..) => OP_PUTB,
        Cmd::DelB(_) => OP_DELB,
        Cmd::CasB { .. } => OP_CASB,
        Cmd::MGetB(_) => OP_MGETB,
        Cmd::MSetB(_) => OP_MSETB,
        Cmd::Scan { .. } => OP_SCAN,
    }
}

fn encode_cmd_body(buf: &mut Vec<u8>, cmd: &Cmd) {
    match cmd {
        Cmd::Contains(k) | Cmd::GetB(k) | Cmd::DelB(k) => put_u64(buf, *k),
        Cmd::MGetB(keys) => put_list(buf, keys, |buf, k| put_u64(buf, *k)),
        Cmd::Transfer { from, to, amount } => {
            put_u64(buf, *from);
            put_u64(buf, *to);
            put_u64(buf, *amount);
        }
        Cmd::Batch(cmds) => put_list(buf, cmds, |buf, c| {
            buf.push(cmd_opcode(c));
            encode_cmd_body(buf, c);
        }),
        Cmd::PutB(k, v) => {
            put_u64(buf, *k);
            put_value(buf, v);
        }
        Cmd::CasB {
            key,
            expected,
            desired,
        } => {
            put_u64(buf, *key);
            put_value(buf, expected);
            put_value(buf, desired);
        }
        Cmd::MSetB(pairs) => put_list(buf, pairs, put_entry),
        Cmd::Scan { lo, hi, limit } => {
            put_u64(buf, *lo);
            put_u64(buf, *hi);
            put_u32(buf, *limit);
        }
    }
}

/// A `(key, value)` pair as `MSETB` requests and `SCAN` pages carry it; at
/// least key (8) + length prefix (4) bytes.
fn put_entry(buf: &mut Vec<u8>, (k, v): &(u64, Value)) {
    put_u64(buf, *k);
    put_value(buf, v);
}

fn get_entry(cur: &mut Cursor<'_>) -> Result<(u64, Value), ProtoError> {
    Ok((cur.u64()?, get_value(cur)?))
}

fn decode_cmd_body(cur: &mut Cursor<'_>, opcode: u8, nested: bool) -> Result<Cmd, ProtoError> {
    Ok(match opcode {
        OP_CONTAINS => Cmd::Contains(cur.u64()?),
        OP_TRANSFER if !nested => Cmd::Transfer {
            from: cur.u64()?,
            to: cur.u64()?,
            amount: cur.u64()?,
        },
        // Single-key commands only inside a batch (opcode + key, 9 bytes at
        // least): the IR maps 1:1 onto one transaction, and nested multi-key
        // commands would be a hidden second fan-out.
        OP_BATCH if !nested => Cmd::Batch(list(cur, 9, |cur| {
            let op = cur.u8()?;
            decode_cmd_body(cur, op, true)
        })?),
        OP_GETB => Cmd::GetB(cur.u64()?),
        OP_PUTB => Cmd::PutB(cur.u64()?, get_value(cur)?),
        OP_DELB => Cmd::DelB(cur.u64()?),
        OP_CASB => Cmd::CasB {
            key: cur.u64()?,
            expected: get_value(cur)?,
            desired: get_value(cur)?,
        },
        OP_MGETB if !nested => Cmd::MGetB(list(cur, 8, get_u64)?),
        OP_MSETB if !nested => Cmd::MSetB(list(cur, 12, get_entry)?),
        // A scan is a whole transaction by itself, so like the other
        // multi-key commands it is not a legal BATCH member.
        OP_SCAN if !nested => Cmd::Scan {
            lo: cur.u64()?,
            hi: cur.u64()?,
            limit: cur.u32()?,
        },
        _ => return Err(ProtoError),
    })
}

/// Encodes one request frame (header + payload) onto `out`.
///
/// # Panics
/// Panics if the encoded payload exceeds [`MAX_FRAME`]; use
/// [`try_encode_request`] when the command size comes from caller input.
pub fn encode_request(out: &mut Vec<u8>, req_id: u32, req: &Request) {
    try_encode_request(out, req_id, req).expect("request over MAX_FRAME");
}

/// Fallible [`encode_request`]: returns `Err` (writing nothing) when the
/// command is too large for one frame — an `MGETB`/`MSETB`/`BATCH` this big
/// would be refused by the server's descriptor capacity anyway, so callers
/// should chunk it.
pub fn try_encode_request(out: &mut Vec<u8>, req_id: u32, req: &Request) -> Result<(), ProtoError> {
    let mut payload = Vec::with_capacity(32);
    put_u32(&mut payload, req_id);
    payload.push(request_opcode(req));
    if let Request::Cmd(cmd) = req {
        encode_cmd_body(&mut payload, cmd);
    }
    if payload.len() > MAX_FRAME {
        return Err(ProtoError);
    }
    write_frame(out, &payload);
    Ok(())
}

/// Decodes one request payload (a frame returned by [`take_frame`]).
pub fn decode_request(frame: &[u8]) -> Result<(u32, Request), ProtoError> {
    let mut cur = Cursor::new(frame);
    let req_id = cur.u32()?;
    let opcode = cur.u8()?;
    let req = match opcode {
        OP_STATS => Request::Stats,
        OP_SYNC => Request::Sync,
        OP_METRICS => Request::Metrics,
        OP_TRACE => Request::Trace,
        _ => Request::Cmd(decode_cmd_body(&mut cur, opcode, false)?),
    };
    cur.finished()?;
    Ok((req_id, req))
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

fn out_opcode(out: &CmdOut) -> u8 {
    match out {
        CmdOut::Present(_) => OP_CONTAINS,
        CmdOut::Done => OP_MSETB,
        CmdOut::Transferred { .. } => OP_TRANSFER,
        CmdOut::Batch(_) => OP_BATCH,
        CmdOut::ValueB(_) => OP_GETB,
        CmdOut::PrevB(_) => OP_PUTB,
        CmdOut::RemovedB(_) => OP_DELB,
        CmdOut::CasB { .. } => OP_CASB,
        CmdOut::ValuesB(_) => OP_MGETB,
        CmdOut::Page(_) => OP_SCAN,
    }
}

fn encode_out_body(buf: &mut Vec<u8>, out: &CmdOut) {
    match out {
        CmdOut::Present(p) => buf.push(u8::from(*p)),
        CmdOut::Done => {}
        CmdOut::Transferred {
            from_after,
            to_after,
        } => {
            put_u64(buf, *from_after);
            put_u64(buf, *to_after);
        }
        CmdOut::Batch(outs) => put_list(buf, outs, |buf, o| {
            buf.push(out_opcode(o));
            encode_out_body(buf, o);
        }),
        CmdOut::ValueB(v) | CmdOut::PrevB(v) | CmdOut::RemovedB(v) => put_opt_value(buf, v),
        CmdOut::CasB { success, current } => {
            buf.push(u8::from(*success));
            put_opt_value(buf, current);
        }
        CmdOut::ValuesB(vals) => put_list(buf, vals, put_opt_value),
        CmdOut::Page(entries) => put_list(buf, entries, put_entry),
    }
}

fn decode_out_body(cur: &mut Cursor<'_>, opcode: u8, nested: bool) -> Result<CmdOut, ProtoError> {
    Ok(match opcode {
        OP_CONTAINS => CmdOut::Present(cur.u8()? != 0),
        OP_MSETB if !nested => CmdOut::Done,
        OP_TRANSFER if !nested => CmdOut::Transferred {
            from_after: cur.u64()?,
            to_after: cur.u64()?,
        },
        // The smallest member result is an opcode and one flag byte.
        OP_BATCH if !nested => CmdOut::Batch(list(cur, 2, |cur| {
            let op = cur.u8()?;
            decode_out_body(cur, op, true)
        })?),
        OP_GETB => CmdOut::ValueB(get_opt_value(cur)?),
        OP_PUTB => CmdOut::PrevB(get_opt_value(cur)?),
        OP_DELB => CmdOut::RemovedB(get_opt_value(cur)?),
        OP_CASB => CmdOut::CasB {
            success: cur.u8()? != 0,
            current: get_opt_value(cur)?,
        },
        OP_MGETB if !nested => CmdOut::ValuesB(list(cur, 1, get_opt_value)?),
        OP_SCAN if !nested => CmdOut::Page(list(cur, 12, get_entry)?),
        _ => return Err(ProtoError),
    })
}

fn err_status(e: ErrCode) -> u8 {
    match e {
        ErrCode::Retry => ST_ABORT_RETRY,
        ErrCode::Capacity => ST_ABORT_CAPACITY,
        ErrCode::NotFound => ST_ERR_NOT_FOUND,
        ErrCode::Insufficient => ST_ERR_INSUFFICIENT,
        ErrCode::Overload => ST_ABORT_OVERLOAD,
        ErrCode::Malformed => ST_ERR_MALFORMED,
    }
}

/// The wire status byte a response carries (recorded in slow-request
/// trace records so a dumped trace is self-describing).
pub(crate) fn response_status(resp: &Response) -> u8 {
    match resp {
        Response::Err(e) => err_status(*e),
        _ => ST_OK,
    }
}

fn status_err(st: u8) -> Result<ErrCode, ProtoError> {
    Ok(match st {
        ST_ABORT_RETRY => ErrCode::Retry,
        ST_ABORT_CAPACITY => ErrCode::Capacity,
        ST_ERR_NOT_FOUND => ErrCode::NotFound,
        ST_ERR_INSUFFICIENT => ErrCode::Insufficient,
        ST_ABORT_OVERLOAD => ErrCode::Overload,
        ST_ERR_MALFORMED => ErrCode::Malformed,
        _ => return Err(ProtoError),
    })
}

fn encode_stats(buf: &mut Vec<u8>, s: &StatsReply) {
    put_u64(buf, s.uptime_secs);
    for v in s.tx.to_array() {
        put_u64(buf, v);
    }
    put_some(buf, &s.domain, Flat::put);
    put_some(buf, &s.load, Flat::put);
    put_some(buf, &s.tables, |buf, t| {
        put_u64(buf, t.grow_events);
        buf.push(match t.partition {
            PartitionScheme::Hash => 0,
            PartitionScheme::Range => 1,
        });
        put_some(buf, &t.cache, Flat::put);
        put_list(buf, &t.shards, |buf, sh| {
            buf.push(match sh.kind {
                ShardKind::Hash => 0,
                ShardKind::Skip => 1,
                ShardKind::Elastic => 2,
                ShardKind::Cache => 3,
            });
            put_some(buf, &sh.items, |buf, v| put_u64(buf, *v));
            put_u64(buf, sh.buckets);
        });
    });
    put_some(buf, &s.events, |buf, ev| {
        for v in [
            ev.epoll_waits,
            ev.events_dispatched,
            ev.spurious_wakeups,
            ev.writev_saved,
        ] {
            put_u64(buf, v);
        }
        put_list(buf, &ev.per_worker, Flat::put);
    });
}

fn decode_stats(cur: &mut Cursor<'_>) -> Result<StatsReply, ProtoError> {
    let uptime_secs = cur.u64()?;
    let mut tx = TxStatsSnapshot::default().to_array();
    for v in &mut tx {
        *v = cur.u64()?;
    }
    Ok(StatsReply {
        uptime_secs,
        tx: TxStatsSnapshot::from_array(tx),
        domain: opt(cur, Flat::get)?,
        load: opt(cur, Flat::get)?,
        tables: opt(cur, |cur| {
            Ok(TableStats {
                grow_events: cur.u64()?,
                partition: match cur.u8()? {
                    0 => PartitionScheme::Hash,
                    1 => PartitionScheme::Range,
                    _ => return Err(ProtoError),
                },
                cache: opt(cur, Flat::get)?,
                // Each shard entry is at least 10 bytes on the wire.
                shards: list(cur, 10, |cur| {
                    Ok(ShardStats {
                        kind: match cur.u8()? {
                            0 => ShardKind::Hash,
                            1 => ShardKind::Skip,
                            2 => ShardKind::Elastic,
                            3 => ShardKind::Cache,
                            _ => return Err(ProtoError),
                        },
                        items: opt(cur, get_u64)?,
                        buckets: cur.u64()?,
                    })
                })?,
            })
        })?,
        events: opt(cur, |cur| {
            Ok(EventStats {
                epoll_waits: cur.u64()?,
                events_dispatched: cur.u64()?,
                spurious_wakeups: cur.u64()?,
                writev_saved: cur.u64()?,
                // Each per-worker row is 32 bytes on the wire.
                per_worker: list(cur, 32, Flat::get)?,
            })
        })?,
    })
}

/// Encodes one response frame onto `out`.  `opcode` is the opcode of the
/// request being answered: it is echoed (so error responses stay
/// self-describing) and tells the decoder how to read a result's body, so a
/// [`Response::Ok`] must be the result of that request.
pub fn encode_response(out: &mut Vec<u8>, req_id: u32, opcode: u8, resp: &Response) {
    let mut payload = Vec::with_capacity(32);
    put_u32(&mut payload, req_id);
    payload.push(response_status(resp));
    let buf = &mut payload;
    match resp {
        Response::Ok(cmd_out) => {
            buf.push(opcode);
            encode_out_body(buf, cmd_out);
        }
        Response::Stats(s) => {
            buf.push(OP_STATS);
            encode_stats(buf, s);
        }
        Response::Synced(epoch) => {
            buf.push(OP_SYNC);
            put_u64(buf, *epoch);
        }
        Response::Metrics(m) => {
            buf.push(OP_METRICS);
            put_u64(buf, m.uptime_secs);
            put_list(buf, &m.ops, |buf, op| {
                buf.push(op.opcode);
                put_u64(buf, op.retries);
                put_u64(buf, op.hist.max_ns());
                for &c in op.hist.counts() {
                    put_u64(buf, c);
                }
                put_list(buf, &op.aborts, |buf, a| put_u64(buf, *a));
            });
            put_list(buf, &m.worker_phases, |buf, phases| {
                put_list(buf, phases, |buf, ns| put_u64(buf, *ns));
            });
        }
        Response::Trace(t) => {
            buf.push(OP_TRACE);
            put_u64(buf, t.evicted);
            put_list(buf, &t.records, |buf, r| {
                buf.push(r.opcode);
                buf.push(r.status);
                put_u64(buf, r.req_id);
                put_u64(buf, r.queue_ns);
                put_u64(buf, r.exec_ns);
                put_u64(buf, r.retries);
            });
        }
        Response::Err(_) => buf.push(opcode),
    }
    write_frame(out, &payload);
}

/// Decodes one response payload (a frame returned by [`take_frame`]).
pub fn decode_response(frame: &[u8]) -> Result<(u32, Response), ProtoError> {
    let cur = &mut Cursor::new(frame);
    let req_id = cur.u32()?;
    let status = cur.u8()?;
    let opcode = cur.u8()?;
    let resp = if status != ST_OK {
        Response::Err(status_err(status)?)
    } else {
        match opcode {
            OP_STATS => Response::Stats(decode_stats(cur)?),
            OP_SYNC => Response::Synced(cur.u64()?),
            OP_METRICS => Response::Metrics(MetricsReply {
                uptime_secs: cur.u64()?,
                // Each op block is at least 1 + 8 + 8 + 64×8 + 4 bytes.
                ops: list(cur, 533, |cur| {
                    let opcode = cur.u8()?;
                    let retries = cur.u64()?;
                    let max_ns = cur.u64()?;
                    let mut counts = [0u64; BUCKETS];
                    for c in &mut counts {
                        *c = cur.u64()?;
                    }
                    Ok(OpMetrics {
                        opcode,
                        hist: LatencyHistogram::from_parts(counts, max_ns),
                        retries,
                        aborts: list(cur, 8, get_u64)?,
                    })
                })?,
                // A worker with no phases is still its `u32` count.
                worker_phases: list(cur, 4, |cur| list(cur, 8, get_u64))?,
            }),
            OP_TRACE => {
                let evicted = cur.u64()?;
                // Each trace record is 34 bytes on the wire.
                let records = list(cur, 34, |cur| {
                    Ok(TraceRecord {
                        opcode: cur.u8()?,
                        status: cur.u8()?,
                        req_id: cur.u64()?,
                        queue_ns: cur.u64()?,
                        exec_ns: cur.u64()?,
                        retries: cur.u64()?,
                    })
                })?;
                Response::Trace(TraceReply { records, evicted })
            }
            _ => Response::Ok(decode_out_body(cur, opcode, false)?),
        }
    };
    cur.finished()?;
    Ok((req_id, resp))
}

/// The opcode byte of a request (used by the server to echo it back).
pub fn request_opcode(req: &Request) -> u8 {
    match req {
        Request::Cmd(c) => cmd_opcode(c),
        Request::Stats => OP_STATS,
        Request::Sync => OP_SYNC,
        Request::Metrics => OP_METRICS,
        Request::Trace => OP_TRACE,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        let mut wire = Vec::new();
        encode_request(&mut wire, 7, &req);
        let mut consumed = 0;
        let frame = take_frame(&wire, &mut consumed).unwrap().unwrap();
        let (id, decoded) = decode_request(frame).unwrap();
        assert_eq!(id, 7);
        assert_eq!(decoded, req);
        assert_eq!(consumed, wire.len());
        // The byte after the request id is what the server echoes.
        assert_eq!(frame[4], request_opcode(&req));
    }

    fn roundtrip_response(resp: Response, opcode: u8) {
        let mut wire = Vec::new();
        encode_response(&mut wire, 9, opcode, &resp);
        let mut consumed = 0;
        let frame = take_frame(&wire, &mut consumed).unwrap().unwrap();
        let (id, decoded) = decode_response(frame).unwrap();
        assert_eq!(id, 9);
        assert_eq!(decoded, resp);
        // Request id, status, then the request's opcode, whatever the result.
        assert_eq!(frame[5], opcode);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_request(Request::Cmd(Cmd::Contains(8)));
        roundtrip_request(Request::Cmd(Cmd::Transfer {
            from: 1,
            to: 2,
            amount: 3,
        }));
        roundtrip_request(Request::Cmd(Cmd::Batch(vec![
            Cmd::Contains(1),
            Cmd::PutB(2, Value::U64(3)),
            Cmd::CasB {
                key: 4,
                expected: Value::U64(0),
                desired: Value::U64(1),
            },
        ])));
        roundtrip_request(Request::Stats);
        roundtrip_request(Request::Sync);
        roundtrip_request(Request::Metrics);
        roundtrip_request(Request::Trace);
    }

    #[test]
    fn blob_requests_roundtrip() {
        let blob = Value::from_bytes(b"hello, variable-length world");
        roundtrip_request(Request::Cmd(Cmd::GetB(42)));
        roundtrip_request(Request::Cmd(Cmd::PutB(1, blob.clone())));
        roundtrip_request(Request::Cmd(Cmd::PutB(2, Value::U64(7))));
        roundtrip_request(Request::Cmd(Cmd::PutB(3, Value::from_bytes(b""))));
        roundtrip_request(Request::Cmd(Cmd::DelB(3)));
        roundtrip_request(Request::Cmd(Cmd::CasB {
            key: 4,
            expected: Value::U64(5),
            desired: blob.clone(),
        }));
        roundtrip_request(Request::Cmd(Cmd::MGetB(vec![1, 2, 3])));
        roundtrip_request(Request::Cmd(Cmd::MSetB(vec![
            (1, blob.clone()),
            (2, Value::U64(20)),
        ])));
        // Every single-key command may ride inside a BATCH.
        roundtrip_request(Request::Cmd(Cmd::Batch(vec![
            Cmd::GetB(1),
            Cmd::PutB(2, blob),
            Cmd::CasB {
                key: 4,
                expected: Value::from_bytes(b"old"),
                desired: Value::from_bytes(b"new"),
            },
            Cmd::DelB(5),
        ])));
    }

    #[test]
    fn blob_responses_roundtrip() {
        let blob = Value::from_bytes(&vec![0xAB; 4096]);
        roundtrip_response(Response::Ok(CmdOut::ValueB(Some(blob.clone()))), OP_GETB);
        roundtrip_response(Response::Ok(CmdOut::ValueB(None)), OP_GETB);
        roundtrip_response(Response::Ok(CmdOut::ValueB(Some(Value::U64(9)))), OP_GETB);
        roundtrip_response(Response::Ok(CmdOut::PrevB(Some(blob.clone()))), OP_PUTB);
        roundtrip_response(Response::Ok(CmdOut::RemovedB(None)), OP_DELB);
        roundtrip_response(
            Response::Ok(CmdOut::CasB {
                success: false,
                current: Some(blob.clone()),
            }),
            OP_CASB,
        );
        roundtrip_response(
            Response::Ok(CmdOut::ValuesB(vec![
                Some(Value::U64(1)),
                None,
                Some(Value::from_bytes(b"xyz")),
            ])),
            OP_MGETB,
        );
        roundtrip_response(
            Response::Ok(CmdOut::Batch(vec![
                CmdOut::ValueB(Some(blob)),
                CmdOut::PrevB(None),
                CmdOut::CasB {
                    success: true,
                    current: Some(Value::from_bytes(b"new")),
                },
            ])),
            OP_BATCH,
        );
    }

    #[test]
    fn eight_byte_wire_values_decode_canonically_as_words() {
        // A hand-built PUTB carrying exactly 8 bytes must decode to U64:
        // canonical form is a wire-level invariant, not a courtesy.
        let mut payload = Vec::new();
        put_u32(&mut payload, 1); // req id
        payload.push(OP_PUTB);
        put_u64(&mut payload, 77); // key
        put_u32(&mut payload, 8);
        put_u64(&mut payload, 0xDEAD_BEEF);
        let (_, req) = decode_request(&payload).unwrap();
        assert_eq!(req, Request::Cmd(Cmd::PutB(77, Value::U64(0xDEAD_BEEF))));
    }

    #[test]
    fn oversized_value_is_rejected_before_the_frame_cap() {
        // vlen between MAX_VALUE_BYTES and MAX_FRAME: frame-legal, value-illegal.
        let mut payload = Vec::new();
        put_u32(&mut payload, 2); // req id
        payload.push(OP_PUTB);
        put_u64(&mut payload, 1); // key
        let vlen = (MAX_VALUE_BYTES + 1) as u32;
        put_u32(&mut payload, vlen);
        payload.resize(payload.len() + vlen as usize, 0);
        assert!(payload.len() < MAX_FRAME);
        assert!(decode_request(&payload).is_err());

        // Same bound on the response side (tag 2 tagged value).
        let mut resp = Vec::new();
        put_u32(&mut resp, 3); // req id
        resp.push(ST_OK);
        resp.push(OP_GETB);
        resp.push(2); // tag: bytes
        put_u32(&mut resp, vlen);
        resp.resize(resp.len() + vlen as usize, 0);
        assert!(decode_response(&resp).is_err());
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_response(Response::Ok(CmdOut::Present(false)), OP_CONTAINS);
        roundtrip_response(Response::Ok(CmdOut::Done), OP_MSETB);
        roundtrip_response(
            Response::Ok(CmdOut::Transferred {
                from_after: 4,
                to_after: 6,
            }),
            OP_TRANSFER,
        );
        roundtrip_response(
            Response::Ok(CmdOut::Batch(vec![
                CmdOut::Present(true),
                CmdOut::PrevB(None),
            ])),
            OP_BATCH,
        );
        roundtrip_response(
            Response::Stats(StatsReply {
                uptime_secs: 3600,
                tx: TxStatsSnapshot::from_array([10, 2, 1, 5, 3, 2, 2, 0, 0, 0, 6]),
                domain: Some(DomainStats {
                    live_payloads: 3,
                    free_slots: 1,
                    allocated_slots: 4,
                    persisted_epoch: 7,
                    current_epoch: 9,
                }),
                load: Some(LoadStats {
                    shed_requests: 11,
                    inflight_bytes: 512,
                    peak_inflight_bytes: 4096,
                    accept_retries: 2,
                }),
                events: Some(EventStats {
                    epoll_waits: 1000,
                    events_dispatched: 2500,
                    spurious_wakeups: 3,
                    writev_saved: 700,
                    per_worker: vec![
                        WorkerEvents {
                            epoll_waits: 600,
                            events_dispatched: 1500,
                            spurious_wakeups: 1,
                            writev_saved: 400,
                        },
                        WorkerEvents {
                            epoll_waits: 400,
                            events_dispatched: 1000,
                            spurious_wakeups: 2,
                            writev_saved: 300,
                        },
                    ],
                }),
                tables: Some(TableStats {
                    grow_events: 5,
                    partition: PartitionScheme::Hash,
                    cache: None,
                    shards: vec![
                        ShardStats {
                            kind: ShardKind::Hash,
                            items: Some(100),
                            buckets: 1024,
                        },
                        ShardStats {
                            kind: ShardKind::Skip,
                            items: None,
                            buckets: 0,
                        },
                        ShardStats {
                            kind: ShardKind::Elastic,
                            items: Some(9000),
                            buckets: 4096,
                        },
                    ],
                }),
            }),
            OP_STATS,
        );
        // A bare-store reply (every optional section absent) must roundtrip
        // too: absence flags are part of the wire contract.
        roundtrip_response(
            Response::Stats(StatsReply {
                uptime_secs: 0,
                tx: TxStatsSnapshot::default(),
                domain: None,
                load: None,
                tables: None,
                events: None,
            }),
            OP_STATS,
        );
        roundtrip_response(Response::Synced(12), OP_SYNC);
        for e in [
            ErrCode::Retry,
            ErrCode::Capacity,
            ErrCode::NotFound,
            ErrCode::Insufficient,
            ErrCode::Overload,
            ErrCode::Malformed,
        ] {
            roundtrip_response(Response::Err(e), OP_TRANSFER);
        }
    }

    #[test]
    fn partial_frames_and_pipelines_split_correctly() {
        let mut wire = Vec::new();
        encode_request(&mut wire, 1, &Request::Cmd(Cmd::GetB(1)));
        encode_request(&mut wire, 2, &Request::Cmd(Cmd::PutB(2, Value::U64(3))));
        // Feed byte-by-byte: frames must come out exactly twice, in order.
        let mut buf = Vec::new();
        let mut got = Vec::new();
        for &b in &wire {
            buf.push(b);
            let mut consumed = 0;
            while let Some(frame) = take_frame(&buf, &mut consumed).unwrap() {
                got.push(decode_request(frame).unwrap().0);
            }
            buf.drain(..consumed);
        }
        assert_eq!(got, vec![1, 2]);
        assert!(buf.is_empty());
    }

    #[test]
    fn oversized_frame_is_rejected() {
        let mut wire = Vec::new();
        put_u32(&mut wire, (MAX_FRAME + 1) as u32);
        wire.extend_from_slice(&[0; 16]);
        let mut consumed = 0;
        assert!(take_frame(&wire, &mut consumed).is_err());
    }

    #[test]
    fn nested_multikey_batch_is_rejected() {
        // Hand-craft a BATCH containing a TRANSFER: must not decode.
        let mut payload = Vec::new();
        put_u32(&mut payload, 3); // req id
        payload.push(OP_BATCH);
        put_u32(&mut payload, 1);
        payload.push(OP_TRANSFER);
        put_u64(&mut payload, 1);
        put_u64(&mut payload, 2);
        put_u64(&mut payload, 3);
        assert!(decode_request(&payload).is_err());
        // Same for SCAN: a whole transaction cannot nest inside another.
        let mut payload = Vec::new();
        put_u32(&mut payload, 4); // req id
        payload.push(OP_BATCH);
        put_u32(&mut payload, 1);
        payload.push(OP_SCAN);
        put_u64(&mut payload, 0);
        put_u64(&mut payload, 10);
        put_u32(&mut payload, 5);
        assert!(decode_request(&payload).is_err());
    }

    /// The retired fixed-width opcodes, each with its old well-formed body.
    pub(crate) fn retired_requests() -> [(u8, Vec<u8>); 6] {
        let (k, v) = (3u64.to_le_bytes(), 4u64.to_le_bytes());
        let one = 1u32.to_le_bytes();
        [
            (0x01, k.to_vec()),                  // GET key
            (0x02, [k, v].concat()),             // PUT key val
            (0x03, k.to_vec()),                  // DEL key
            (0x04, [k, v, v].concat()),          // CAS key expected desired
            (0x10, [&one[..], &k].concat()),     // MGET n keys
            (0x11, [&one[..], &k, &v].concat()), // MSET n pairs
        ]
    }

    /// The fixed-width twins of the value commands are gone from the wire:
    /// each old opcode is refused, at top level and as a `BATCH` member.
    #[test]
    fn retired_opcodes_are_refused() {
        let one = 1u32.to_le_bytes();
        for (op, body) in retired_requests() {
            let mut top = 7u32.to_le_bytes().to_vec();
            top.push(op);
            top.extend_from_slice(&body);
            assert_eq!(decode_request(&top), Err(ProtoError), "opcode {op:#04x}");
            let mut nested = 8u32.to_le_bytes().to_vec();
            nested.push(OP_BATCH);
            nested.extend_from_slice(&one);
            nested.push(op);
            nested.extend_from_slice(&body);
            assert_eq!(
                decode_request(&nested),
                Err(ProtoError),
                "opcode {op:#04x} in a batch"
            );
        }
    }

    #[test]
    fn scan_and_cache_stats_roundtrip() {
        roundtrip_request(Request::Cmd(Cmd::Scan {
            lo: 100,
            hi: u64::MAX,
            limit: 4096,
        }));
        roundtrip_response(Response::Ok(CmdOut::Page(Vec::new())), OP_SCAN);
        roundtrip_response(
            Response::Ok(CmdOut::Page(vec![
                (1, Value::U64(10)),
                (2, Value::from_bytes(b"variable-length page entry")),
                (u64::MAX - 1, Value::U64(30)),
            ])),
            OP_SCAN,
        );
        // A cache store's table section: range byte exercised separately.
        roundtrip_response(
            Response::Stats(StatsReply {
                uptime_secs: 42,
                tx: TxStatsSnapshot::default(),
                domain: None,
                load: None,
                tables: Some(TableStats {
                    grow_events: 0,
                    partition: PartitionScheme::Range,
                    cache: Some(CacheStats {
                        hits: 100,
                        misses: 40,
                        evictions: 25,
                    }),
                    shards: vec![ShardStats {
                        kind: ShardKind::Cache,
                        items: Some(32),
                        buckets: 64,
                    }],
                }),
                events: None,
            }),
            OP_STATS,
        );
    }

    #[test]
    fn metrics_reply_roundtrips() {
        // An empty registry snapshot (fresh server, telemetry off or idle).
        roundtrip_response(Response::Metrics(MetricsReply::default()), OP_METRICS);

        // Active ops carry full bucket arrays; the client-side histogram
        // must reconstruct bit-for-bit so quantiles agree with the server.
        let mut hist = LatencyHistogram::new();
        for ns in [120u64, 900, 4_000, 65_000, 1 << 22] {
            hist.record_ns(ns);
        }
        roundtrip_response(
            Response::Metrics(MetricsReply {
                uptime_secs: 17,
                ops: vec![
                    OpMetrics {
                        opcode: OP_GETB,
                        hist: hist.clone(),
                        retries: 3,
                        aborts: vec![1, 0, 2, 0, 0, 0],
                    },
                    OpMetrics {
                        opcode: OP_TRANSFER,
                        hist,
                        retries: 9,
                        aborts: vec![4, 0, 0, 1, 0, 0],
                    },
                ],
                worker_phases: vec![vec![100, 200, 300, 400], vec![50, 60, 70, 80]],
            }),
            OP_METRICS,
        );
    }

    #[test]
    fn trace_reply_roundtrips() {
        roundtrip_response(Response::Trace(TraceReply::default()), OP_TRACE);
        roundtrip_response(
            Response::Trace(TraceReply {
                records: vec![
                    TraceRecord {
                        opcode: OP_PUTB,
                        status: ST_OK,
                        req_id: 42,
                        queue_ns: 1_500,
                        exec_ns: 80_000,
                        retries: 2,
                    },
                    TraceRecord {
                        opcode: OP_CASB,
                        status: ST_ABORT_RETRY,
                        req_id: 43,
                        queue_ns: 900,
                        exec_ns: 2_000_000,
                        retries: 7,
                    },
                ],
                evicted: 12,
            }),
            OP_TRACE,
        );
    }

    fn hex(s: &str) -> Vec<u8> {
        let digits: Vec<u8> = s.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
        assert_eq!(digits.len() % 2, 0, "odd hex string");
        digits
            .chunks(2)
            .map(|d| u8::from_str_radix(std::str::from_utf8(d).unwrap(), 16).unwrap())
            .collect()
    }

    /// The request id every golden frame carries (`04 03 02 01` on the wire).
    const GOLDEN_ID: u32 = 0x0102_0304;

    /// Whole frames (length prefix included) written by hand from the tables
    /// in the module header: a request, and the response that answers it.
    fn golden() -> Vec<(Request, Vec<u8>, Response, Vec<u8>)> {
        let ok = Response::Ok;
        let bytes = Value::from_bytes;
        let transfer = Cmd::Transfer {
            from: 21,
            to: 22,
            amount: 23,
        };
        let transfer_hex =
            "1d000000 04030201 12 1500000000000000 1600000000000000 1700000000000000";
        let stats_hex = "05000000 04030201 20";
        let mut counts = [0u64; BUCKETS];
        counts[0] = 1;
        let zeros = |n: usize| "00".repeat(n);
        let rows: Vec<(Request, String, Response, String)> = vec![
            (
                Request::Cmd(Cmd::Contains(8)),
                "0d000000 04030201 05 0800000000000000".into(),
                ok(CmdOut::Present(true)),
                "07000000 04030201 00 05 01".into(),
            ),
            (
                Request::Cmd(Cmd::GetB(9)),
                "0d000000 04030201 06 0900000000000000".into(),
                ok(CmdOut::ValueB(Some(bytes(b"abc")))),
                "0e000000 04030201 00 06 02 03000000 616263".into(),
            ),
            (
                Request::Cmd(Cmd::PutB(10, bytes(b"hi"))),
                "13000000 04030201 07 0a00000000000000 02000000 6869".into(),
                ok(CmdOut::PrevB(Some(Value::U64(11)))),
                "0f000000 04030201 00 07 01 0b00000000000000".into(),
            ),
            (
                Request::Cmd(Cmd::DelB(12)),
                "0d000000 04030201 08 0c00000000000000".into(),
                ok(CmdOut::RemovedB(None)),
                "07000000 04030201 00 08 00".into(),
            ),
            (
                Request::Cmd(Cmd::CasB {
                    key: 13,
                    expected: Value::U64(14),
                    desired: bytes(b"xyz"),
                }),
                "20000000 04030201 09 0d00000000000000 08000000 0e00000000000000 \
                 03000000 78797a"
                    .into(),
                ok(CmdOut::CasB {
                    success: false,
                    current: Some(Value::U64(15)),
                }),
                "10000000 04030201 00 09 00 01 0f00000000000000".into(),
            ),
            (
                Request::Cmd(transfer.clone()),
                transfer_hex.into(),
                ok(CmdOut::Transferred {
                    from_after: 24,
                    to_after: 25,
                }),
                "16000000 04030201 00 12 1800000000000000 1900000000000000".into(),
            ),
            // A word member, a blob member, and a read answered by a word.
            (
                Request::Cmd(Cmd::Batch(vec![
                    Cmd::PutB(26, Value::U64(27)),
                    Cmd::PutB(28, bytes(b"b")),
                    Cmd::GetB(29),
                ])),
                "35000000 04030201 13 03000000 \
                 07 1a00000000000000 08000000 1b00000000000000 \
                 07 1c00000000000000 01000000 62 \
                 06 1d00000000000000"
                    .into(),
                ok(CmdOut::Batch(vec![
                    CmdOut::PrevB(None),
                    CmdOut::PrevB(None),
                    CmdOut::ValueB(Some(Value::U64(30))),
                ])),
                "18000000 04030201 00 13 03000000 07 00 07 00 06 01 1e00000000000000".into(),
            ),
            (
                Request::Cmd(Cmd::MGetB(vec![31])),
                "11000000 04030201 16 01000000 1f00000000000000".into(),
                ok(CmdOut::ValuesB(vec![Some(bytes(b"q"))])),
                "10000000 04030201 00 16 01000000 02 01000000 71".into(),
            ),
            (
                Request::Cmd(Cmd::MSetB(vec![(32, bytes(b"rs"))])),
                "17000000 04030201 17 01000000 2000000000000000 02000000 7273".into(),
                ok(CmdOut::Done),
                "06000000 04030201 00 17".into(),
            ),
            (
                Request::Cmd(Cmd::Scan {
                    lo: 33,
                    hi: 34,
                    limit: 35,
                }),
                "19000000 04030201 18 2100000000000000 2200000000000000 23000000".into(),
                ok(CmdOut::Page(vec![(33, Value::U64(36))])),
                "1e000000 04030201 00 18 01000000 2100000000000000 08000000 2400000000000000"
                    .into(),
            ),
            // An error carries the status and the opcode echo, nothing else.
            (
                Request::Cmd(transfer),
                transfer_hex.into(),
                Response::Err(ErrCode::Insufficient),
                "06000000 04030201 13 12".into(),
            ),
            (
                Request::Sync,
                "05000000 04030201 21".into(),
                Response::Synced(37),
                "0e000000 04030201 00 21 2500000000000000".into(),
            ),
            // STATS with every optional section present...
            (
                Request::Stats,
                stats_hex.into(),
                Response::Stats(StatsReply {
                    uptime_secs: 1,
                    tx: TxStatsSnapshot::from_array([2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12]),
                    domain: Some(DomainStats {
                        live_payloads: 13,
                        free_slots: 14,
                        allocated_slots: 15,
                        persisted_epoch: 16,
                        current_epoch: 17,
                    }),
                    load: Some(LoadStats {
                        shed_requests: 18,
                        inflight_bytes: 19,
                        peak_inflight_bytes: 20,
                        accept_retries: 21,
                    }),
                    tables: Some(TableStats {
                        grow_events: 22,
                        partition: PartitionScheme::Range,
                        cache: Some(CacheStats {
                            hits: 23,
                            misses: 24,
                            evictions: 25,
                        }),
                        shards: vec![
                            ShardStats {
                                kind: ShardKind::Cache,
                                items: Some(26),
                                buckets: 27,
                            },
                            ShardStats {
                                kind: ShardKind::Skip,
                                items: None,
                                buckets: 0,
                            },
                        ],
                    }),
                    events: Some(EventStats {
                        epoll_waits: 28,
                        events_dispatched: 29,
                        spurious_wakeups: 30,
                        writev_saved: 31,
                        per_worker: vec![WorkerEvents {
                            epoll_waits: 32,
                            events_dispatched: 33,
                            spurious_wakeups: 34,
                            writev_saved: 35,
                        }],
                    }),
                }),
                "38010000 04030201 00 20 0100000000000000 \
                 0200000000000000 0300000000000000 0400000000000000 0500000000000000 \
                 0600000000000000 0700000000000000 0800000000000000 0900000000000000 \
                 0a00000000000000 0b00000000000000 0c00000000000000 \
                 01 0d00000000000000 0e00000000000000 0f00000000000000 \
                    1000000000000000 1100000000000000 \
                 01 1200000000000000 1300000000000000 1400000000000000 1500000000000000 \
                 01 1600000000000000 01 \
                    01 1700000000000000 1800000000000000 1900000000000000 \
                    02000000 \
                    03 01 1a00000000000000 1b00000000000000 \
                    01 00 0000000000000000 \
                 01 1c00000000000000 1d00000000000000 1e00000000000000 1f00000000000000 \
                    01000000 \
                    2000000000000000 2100000000000000 2200000000000000 2300000000000000"
                    .into(),
            ),
            // ...and with none: uptime, eleven zero counters, four absence flags.
            (
                Request::Stats,
                stats_hex.into(),
                Response::Stats(StatsReply {
                    uptime_secs: 0,
                    tx: TxStatsSnapshot::default(),
                    domain: None,
                    load: None,
                    tables: None,
                    events: None,
                }),
                format!("6a000000 04030201 00 20 {} 00 00 00 00", zeros(8 + 11 * 8)),
            ),
            // The two nested-list replies: the decoders with the most bounds.
            (
                Request::Metrics,
                "05000000 04030201 22".into(),
                Response::Metrics(MetricsReply {
                    uptime_secs: 38,
                    ops: vec![OpMetrics {
                        opcode: OP_GETB,
                        hist: LatencyHistogram::from_parts(counts, 5),
                        retries: 3,
                        aborts: vec![39, 40],
                    }],
                    worker_phases: vec![vec![41, 42]],
                }),
                format!(
                    "4f020000 04030201 00 22 2600000000000000 01000000 \
                     06 0300000000000000 0500000000000000 0100000000000000 {} \
                     02000000 2700000000000000 2800000000000000 \
                     01000000 02000000 2900000000000000 2a00000000000000",
                    zeros(63 * 8)
                ),
            ),
            (
                Request::Trace,
                "05000000 04030201 23".into(),
                Response::Trace(TraceReply {
                    records: vec![TraceRecord {
                        opcode: OP_CASB,
                        status: ST_ABORT_RETRY,
                        req_id: 43,
                        queue_ns: 44,
                        exec_ns: 45,
                        retries: 46,
                    }],
                    evicted: 47,
                }),
                "34000000 04030201 00 23 2f00000000000000 01000000 09 10 \
                 2b00000000000000 2c00000000000000 2d00000000000000 2e00000000000000"
                    .into(),
            ),
        ];
        rows.into_iter()
            .map(|(req, req_hex, resp, resp_hex)| (req, hex(&req_hex), resp, hex(&resp_hex)))
            .collect()
    }

    /// Splits the one frame in `wire` out of it.
    fn sole_frame(wire: &[u8]) -> &[u8] {
        let mut consumed = 0;
        let frame = take_frame(wire, &mut consumed).unwrap().unwrap();
        assert_eq!(consumed, wire.len());
        frame
    }

    /// Round-trip tests cannot see an encoder and a decoder change together;
    /// literal bytes can.
    #[test]
    fn golden_wire_bytes() {
        for (req, req_wire, resp, resp_wire) in golden() {
            let mut out = Vec::new();
            encode_request(&mut out, GOLDEN_ID, &req);
            assert_eq!(out, req_wire, "encoding {req:?}");
            assert_eq!(
                decode_request(sole_frame(&req_wire)),
                Ok((GOLDEN_ID, req.clone()))
            );
            out.clear();
            encode_response(&mut out, GOLDEN_ID, request_opcode(&req), &resp);
            assert_eq!(out, resp_wire, "encoding {resp:?}");
            assert_eq!(
                decode_response(sole_frame(&resp_wire)),
                Ok((GOLDEN_ID, resp))
            );
        }
    }

    /// Hostile input never panics the decoders, a cut-short payload is never
    /// mistaken for a whole one, and an untouched frame still decodes.
    #[test]
    fn mutated_frames_never_panic_the_decoders() {
        let frames: Vec<(bool, Vec<u8>)> = golden()
            .into_iter()
            .flat_map(|(_, req, _, resp)| [(true, req), (false, resp)])
            .collect();
        let decode = |is_request: bool, payload: &[u8]| {
            if is_request {
                decode_request(payload).map(|_| ())
            } else {
                decode_response(payload).map(|_| ())
            }
        };
        for (is_request, wire) in &frames {
            for cut in 0..wire.len() {
                let mut consumed = 0;
                assert_eq!(take_frame(&wire[..cut], &mut consumed), Ok(None));
            }
            let payload = sole_frame(wire);
            for cut in 0..payload.len() {
                assert_eq!(decode(*is_request, &payload[..cut]), Err(ProtoError));
            }
        }
        let mut rng = medley::util::FastRng::new(0x5EED_C0DE);
        for _ in 0..20_000 {
            let (is_request, wire) = &frames[rng.next_below(frames.len() as u64) as usize];
            let mut bad = wire.clone();
            let edits = rng.next_below(4);
            for _ in 0..edits {
                let at = rng.next_below(bad.len() as u64) as usize;
                match rng.next_below(4) {
                    0 => bad[at] ^= 1 << rng.next_below(8),
                    1 => bad[at] = rng.next_u64() as u8,
                    2 => bad.truncate(at.max(FRAME_HEADER)),
                    _ => bad.extend_from_slice(&rng.next_u64().to_le_bytes()),
                }
            }
            let _ = take_frame(&bad, &mut 0);
            // Then make the prefix honest again, so the mutation reaches the
            // decoders instead of stopping at `take_frame`.
            let len = (bad.len() - FRAME_HEADER) as u32;
            bad[..FRAME_HEADER].copy_from_slice(&len.to_le_bytes());
            let payload = sole_frame(&bad);
            // Either decoder must survive either kind of frame.
            let as_request = decode_request(payload);
            let as_response = decode_response(payload);
            if edits == 0 {
                let mut again = Vec::new();
                if *is_request {
                    let (id, req) = as_request.unwrap();
                    encode_request(&mut again, id, &req);
                } else {
                    let (id, resp) = as_response.unwrap();
                    encode_response(&mut again, id, payload[5], &resp);
                }
                assert_eq!(&again, wire, "an unmutated frame must round-trip");
            }
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut wire = Vec::new();
        encode_request(&mut wire, 5, &Request::Cmd(Cmd::GetB(1)));
        let mut consumed = 0;
        let frame = take_frame(&wire, &mut consumed).unwrap().unwrap();
        let mut bad = frame.to_vec();
        bad.push(0xFF);
        assert!(decode_request(&bad).is_err());
    }
}
