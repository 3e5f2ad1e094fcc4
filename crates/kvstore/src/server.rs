//! The TCP server: a fixed worker pool multiplexing pipelined connections
//! over per-worker epoll event loops.
//!
//! One acceptor thread hands sockets round-robin to `workers` worker
//! threads (ringing the target worker's eventfd doorbell).  Each worker
//! registers **one** [`medley::ThreadHandle`] — one `TxManager` thread slot,
//! held for the server's lifetime — and multiplexes all of its connections
//! over it (thread-per-core style: the worker *is* the transaction thread,
//! so a command never crosses a thread boundary between decode and commit).
//! Requests are executed in arrival order per connection and responses are
//! written back in the same order, so clients may pipeline arbitrarily
//! deeply.
//!
//! # Readiness-driven multiplexing
//!
//! Each worker owns a **level-triggered** [`crate::sys::Epoll`] instance.
//! A connection's interest mask is a pure function of its state, recomputed
//! after every pump and pushed to the kernel (`EPOLL_CTL_MOD`) only when it
//! changes:
//!
//! * `EPOLLIN` is wanted unless the peer is gone (`eof`/`dead`), the inbound
//!   stream is poisoned, the write-side backpressure latch (`wpaused`) is
//!   set, or the read-side bound is hit (a complete frame is parked and the
//!   undecoded backlog is ≥ `rbuf_high`).  The old skip-flag checks became
//!   interest changes: a paused connection costs *nothing* until its
//!   watermark clears, instead of being polled and skipped every pass.
//! * `EPOLLOUT` is wanted exactly while response bytes are queued.  A short
//!   or `WouldBlock` write leaves bytes queued, which *is* the re-arm — the
//!   next `EPOLLOUT` event resumes the flush.
//!
//! Responses are encoded into a per-connection segment chain and flushed
//! with **vectored writes** (`writev`): one syscall covers up to
//! [`MAX_WRITE_IOVECS`] queued segments, and the saved-syscall tally is
//! reported through `STATS` ([`crate::proto::EventStats`]).
//!
//! Shutdown is a graceful drain: the acceptor stops, every doorbell rings,
//! every worker finishes executing the complete frames already buffered on
//! its connections, flushes its write chains, and only then closes the
//! sockets and drops its handle (flushing its statistics).  In durable mode
//! the epoch advancer is stopped *after* the workers, so every committed
//! update still has a ticking clock while requests are in flight.

use crate::proto::{self, EventStats, LoadStats, Request, Response, StatsReply};
use crate::store::{ErrCode, Store, StoreConfig};
use crate::sys::{Epoll, EpollEvent, WakeFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT};
use crate::telemetry::{
    self, MetricsExporter, Telemetry, TelemetryConfig, ACCEPT_RETRIES, EPOLL_WAITS,
    EVENTS_DISPATCHED, PHASE_DECODE, PHASE_EPOLL_WAIT, PHASE_EXECUTE, PHASE_FLUSH,
    SPURIOUS_WAKEUPS, WRITEV_SAVED,
};
use medley::{ThreadHandle, TxManager};
use obs::{TraceRecord, WorkerMetrics};
use pmem::EpochAdvancer;
use std::collections::VecDeque;
use std::io::{IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address (`127.0.0.1:0` picks a free port; see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Worker threads (= `TxManager` slots held; each multiplexes any number
    /// of connections).
    pub workers: usize,
    /// The store the workers execute against.
    pub store: StoreConfig,
    /// How long [`Server::shutdown`] lets the drain run before force-closing
    /// connections that still have unflushed output.
    pub drain_deadline: Duration,
    /// Admission-control and backpressure watermarks.
    pub overload: OverloadConfig,
    /// Telemetry: per-opcode latency/abort/retry series, slow-request
    /// tracing, and the optional Prometheus exposition listener.
    pub telemetry: TelemetryConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            store: StoreConfig::default(),
            drain_deadline: Duration::from_secs(5),
            overload: OverloadConfig::default(),
            telemetry: TelemetryConfig::default(),
        }
    }
}

/// Admission-control watermarks: every buffer a peer can grow has a bound,
/// and crossing a bound changes behavior (drop read interest, shed) instead
/// of allocating.  High/low pairs give hysteresis so the server does not
/// flap at a boundary.
///
/// With these bounds, per-connection memory is `O(rbuf_high + wbuf_high +
/// MAX_FRAME)` regardless of offered load: a peer that will not drain its
/// responses loses `EPOLLIN` interest; a peer that floods requests loses it
/// once a complete frame is parked; and a worker whose total backlog passes
/// `shed_high` refuses to *start* transactional work (cheap shed responses)
/// until it drains below `shed_low`.
#[derive(Debug, Clone)]
pub struct OverloadConfig {
    /// Stop reading a connection whose unflushed response bytes exceed this.
    pub wbuf_high: usize,
    /// Resume reading once unflushed response bytes drain below this.
    pub wbuf_low: usize,
    /// Stop reading a connection whose undecoded inbound backlog exceeds
    /// this *and* already holds a complete frame (a partial frame keeps
    /// reading so it can finish: frames are bounded by
    /// [`proto::MAX_FRAME`], so this cannot unbound the buffer).
    pub rbuf_high: usize,
    /// Frames executed from one connection per worker pass — bounds how
    /// long one deeply-pipelined peer can monopolize its worker before the
    /// other connections get their pumps.
    pub conn_inflight: usize,
    /// Worker backlog bytes (buffered requests + responses across its
    /// connections) at which transactional commands start being shed with
    /// [`ErrCode::Overload`].  `0` sheds every transactional command — a
    /// deterministic mode the overload tests use.
    pub shed_high: usize,
    /// Worker backlog bytes below which shedding stops.
    pub shed_low: usize,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        Self {
            wbuf_high: 256 << 10,
            wbuf_low: 64 << 10,
            rbuf_high: 256 << 10,
            conn_inflight: 64,
            shed_high: 1 << 20,
            shed_low: 256 << 10,
        }
    }
}

/// Escalating sleep for transient `accept(2)` failures (`EMFILE`, `ENFILE`,
/// `ECONNABORTED`, …).  The listener must never be torn down for these: the
/// condition clears when connections close, and an acceptor that dies turns
/// a load spike into a permanent outage.
struct AcceptBackoff {
    delay: Duration,
}

impl AcceptBackoff {
    const INITIAL: Duration = Duration::from_millis(1);
    const MAX: Duration = Duration::from_millis(100);

    fn new() -> Self {
        Self {
            delay: Self::INITIAL,
        }
    }

    fn reset(&mut self) {
        self.delay = Self::INITIAL;
    }

    /// Returns the delay to sleep now and doubles the next one (capped).
    fn advance(&mut self) -> Duration {
        let now = self.delay;
        self.delay = (self.delay * 2).min(Self::MAX);
        now
    }

    /// Sleeps the current delay, escalating for the next failure.
    fn wait(&mut self) {
        let d = self.advance();
        std::thread::sleep(d);
    }
}

/// Read chunk size per `read` call.
const READ_CHUNK: usize = 64 << 10;

/// `epoll_wait` records fetched per pass.
const EVENT_BATCH: usize = 256;

/// Poll timeout while idle.  The doorbell interrupts it for handoffs and
/// shutdown, and any socket event interrupts it for traffic, so this only
/// bounds how stale the shed latch / backlog gauge can get on a quiet
/// worker.
const IDLE_POLL_MS: i32 = 100;

/// Poll timeout while draining for shutdown: short, so the quiesce check
/// and drain deadline are reevaluated promptly.
const DRAIN_POLL_MS: i32 = 1;

/// Epoll token reserved for the worker's doorbell (connection slots use
/// their slab index, which can never reach this).
const WAKE_TOKEN: u64 = u64::MAX;

/// Segment target for the response chain: frames append to the open tail
/// segment until it reaches this size, so tiny responses coalesce instead of
/// each becoming its own iovec.
const WRITE_SEGMENT_BYTES: usize = 16 << 10;

/// Maximum iovecs per `writev` — comfortably under every Unix's `IOV_MAX`
/// (≥ 1024) while keeping the per-call stack cost small.
pub const MAX_WRITE_IOVECS: usize = 64;

/// Queued response bytes awaiting the socket: a chain of closed segments
/// plus an open tail that response frames append to.  Flushed with vectored
/// writes; partially-written head segments are tracked by offset, not
/// memmoved.
struct WriteChain {
    segs: VecDeque<Vec<u8>>,
    /// Consumed bytes of `segs.front()`.
    head: usize,
    /// The open segment new frames are encoded into.
    tail: Vec<u8>,
    /// Total unflushed bytes across `segs` and `tail`.
    len: usize,
}

impl WriteChain {
    fn new() -> Self {
        Self {
            segs: VecDeque::new(),
            head: 0,
            tail: Vec::new(),
            len: 0,
        }
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends whatever `f` encodes into the open tail segment, sealing the
    /// tail into the chain once it reaches the segment target.
    fn encode_with(&mut self, f: impl FnOnce(&mut Vec<u8>)) {
        let before = self.tail.len();
        f(&mut self.tail);
        self.len += self.tail.len() - before;
        if self.tail.len() >= WRITE_SEGMENT_BYTES {
            self.segs.push_back(std::mem::take(&mut self.tail));
        }
    }

    /// Fills `iovs` with up to [`MAX_WRITE_IOVECS`] slices covering the
    /// queued bytes, oldest first.
    fn gather<'a>(&'a self, iovs: &mut Vec<IoSlice<'a>>) {
        iovs.clear();
        for (i, seg) in self.segs.iter().enumerate() {
            if iovs.len() == MAX_WRITE_IOVECS {
                return;
            }
            let from = if i == 0 { self.head } else { 0 };
            if from < seg.len() {
                iovs.push(IoSlice::new(&seg[from..]));
            }
        }
        if iovs.len() < MAX_WRITE_IOVECS {
            // With no closed segments, `head` tracks consumption of the
            // open tail itself.
            let from = if self.segs.is_empty() { self.head } else { 0 };
            if from < self.tail.len() {
                iovs.push(IoSlice::new(&self.tail[from..]));
            }
        }
    }

    /// Marks `n` queued bytes as written, releasing exhausted segments.
    fn advance(&mut self, mut n: usize) {
        debug_assert!(n <= self.len);
        self.len -= n;
        while n > 0 {
            if let Some(front) = self.segs.front() {
                let avail = front.len() - self.head;
                if n >= avail {
                    n -= avail;
                    self.head = 0;
                    self.segs.pop_front();
                } else {
                    self.head += n;
                    n = 0;
                }
            } else {
                // Only the open tail remains; it is consumed in order too.
                debug_assert!(n <= self.tail.len() - self.head);
                self.head += n;
                if self.head == self.tail.len() {
                    self.tail.clear();
                    self.head = 0;
                }
                n = 0;
            }
        }
        if self.len == 0 {
            self.head = 0;
            self.segs.clear();
            self.tail.clear();
        }
    }
}

/// One multiplexed connection's state.
struct Conn {
    stream: TcpStream,
    /// Inbound bytes; `rpos` marks how far frames have been consumed.
    rbuf: Vec<u8>,
    rpos: usize,
    /// Outbound response frames awaiting the socket.
    chain: WriteChain,
    /// The interest mask currently registered with the worker's epoll.
    interest: u32,
    /// Readiness bits delivered this pass (consumed by the service loop).
    ready: u32,
    /// The connection holds a complete, executable frame but its last
    /// execute pump stopped early (per-pass budget or write-buffer bound):
    /// the worker must run another pass without waiting for socket events.
    exec_pending: bool,
    /// Peer closed its sending side (we still flush what we owe).
    eof: bool,
    /// The inbound stream is unrecoverable (oversized length prefix): no
    /// more reading or decoding, but responses to requests that already
    /// executed are still flushed before the socket closes.
    poisoned: bool,
    /// Connection is unusable (I/O error); dropped immediately.
    dead: bool,
    /// Backpressure latch: reading is paused because the peer stopped
    /// draining its responses (unflushed bytes crossed `wbuf_high`); cleared
    /// once they fall below `wbuf_low`.
    wpaused: bool,
    /// When the most recent socket read delivered bytes — the queue-time
    /// anchor for slow-request tracing (how long a frame sat buffered
    /// before its execute pump reached it).
    last_read: Option<Instant>,
}

impl Conn {
    fn new(stream: TcpStream) -> std::io::Result<Self> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            rbuf: Vec::new(),
            rpos: 0,
            chain: WriteChain::new(),
            interest: 0,
            ready: 0,
            exec_pending: false,
            eof: false,
            poisoned: false,
            dead: false,
            wpaused: false,
            last_read: None,
        })
    }

    /// Whether every byte owed to the peer has hit the socket.
    fn flushed(&self) -> bool {
        self.chain.is_empty()
    }

    /// Response bytes accepted for this peer but not yet on the socket.
    fn unflushed(&self) -> usize {
        self.chain.len
    }

    /// Undecoded inbound bytes.
    fn inbound_backlog(&self) -> usize {
        self.rbuf.len() - self.rpos
    }

    /// Bytes this connection holds in either direction — its contribution
    /// to the worker backlog the shed watermark gates on.
    fn backlog_bytes(&self) -> usize {
        self.inbound_backlog() + self.unflushed()
    }

    /// Rolls the write-side backpressure latch forward (hysteresis over
    /// `wbuf_high`/`wbuf_low`).
    fn update_wpause(&mut self, ov: &OverloadConfig) {
        if self.wpaused {
            if self.unflushed() <= ov.wbuf_low {
                self.wpaused = false;
            }
        } else if self.unflushed() >= ov.wbuf_high {
            self.wpaused = true;
        }
    }

    /// The interest mask this connection's state calls for.  Backpressure
    /// is expressed here: a paused or bounded connection simply stops
    /// asking for `EPOLLIN`, and queued response bytes are what ask for
    /// `EPOLLOUT`.
    fn desired_interest(&self, ov: &OverloadConfig) -> u32 {
        if self.dead {
            return 0;
        }
        let mut mask = 0;
        let read_bounded = self.inbound_backlog() >= ov.rbuf_high && self.has_pending_frame();
        if !self.eof && !self.poisoned && !self.wpaused && !read_bounded {
            mask |= EPOLLIN;
        }
        if !self.chain.is_empty() {
            mask |= EPOLLOUT;
        }
        mask
    }

    /// Moves queued responses toward the socket with vectored writes.
    /// Returns whether bytes were written.
    fn pump_write(&mut self, wm: &WorkerMetrics) -> bool {
        let mut progress = false;
        while !self.chain.is_empty() {
            let mut iovs: Vec<IoSlice<'_>> = Vec::with_capacity(MAX_WRITE_IOVECS.min(8));
            self.chain.gather(&mut iovs);
            let res = if iovs.len() == 1 {
                self.stream.write(&iovs[0])
            } else {
                self.stream.write_vectored(&iovs)
            };
            match res {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(n) => {
                    // A `writev` of n buffers saves n - 1 `write` calls.
                    wm.add(WRITEV_SAVED, iovs.len() as u64 - 1);
                    self.chain.advance(n);
                    progress = true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        progress
    }

    /// Pulls available bytes off the socket, honoring the backpressure
    /// watermarks.  Returns whether bytes were read.
    fn pump_read(&mut self, ov: &OverloadConfig) -> bool {
        if self.eof || self.dead || self.poisoned {
            return false;
        }
        // Write-side backpressure: a peer that will not drain its responses
        // stops being read (and therefore stops being served) until it
        // catches up — its TCP window, not our heap, absorbs the overload.
        self.update_wpause(ov);
        if self.wpaused {
            return false;
        }
        // Read-side bound: with a complete frame already parked, more input
        // only deepens the queue.  Without one we keep reading so a partial
        // frame can complete (bounded by MAX_FRAME, enforced on decode).
        if self.inbound_backlog() >= ov.rbuf_high && self.has_pending_frame() {
            return false;
        }
        let mut progress = false;
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.eof = true;
                    break;
                }
                Ok(n) => {
                    self.rbuf.extend_from_slice(&chunk[..n]);
                    progress = true;
                    if n < chunk.len() {
                        break;
                    }
                    if self.inbound_backlog() >= ov.rbuf_high && self.has_pending_frame() {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        if progress {
            self.last_read = Some(Instant::now());
        }
        progress
    }

    /// Decodes and executes buffered complete frames — up to the per-pass
    /// budget and the write-buffer bound, shedding transactional commands
    /// while the worker is over its backlog watermark.  Returns whether any
    /// frame was served.
    fn pump_execute(
        &mut self,
        store: &Store,
        h: &mut ThreadHandle,
        ov: &OverloadConfig,
        shedding: bool,
        wt: &WorkerTel<'_>,
    ) -> bool {
        if self.poisoned {
            return false;
        }
        let wm = wt.tel.worker(wt.slot);
        let mut progress = false;
        let mut served = 0usize;
        // Phase tallies for this pump, flushed to the registry once at the
        // end (two relaxed adds per pump, not two per frame).
        let mut decode_acc = 0u64;
        let mut exec_acc = 0u64;
        loop {
            // Per-connection execution bounds: a deeply-pipelined peer gets
            // at most `conn_inflight` frames per pass, and never more
            // responses than `wbuf_high` can hold (unserved frames stay
            // buffered and count toward the backlog).
            if served >= ov.conn_inflight || self.unflushed() >= ov.wbuf_high {
                break;
            }
            let t_decode = wt.tel.clock();
            let frame = match proto::take_frame(&self.rbuf, &mut self.rpos) {
                Ok(Some(f)) => f,
                Ok(None) => break,
                Err(_) => {
                    // A length prefix past MAX_FRAME: resynchronization is
                    // impossible.  Poison (not kill) the connection so the
                    // responses of requests that already executed are still
                    // flushed before the socket closes.
                    self.poisoned = true;
                    break;
                }
            };
            progress = true;
            served += 1;
            match proto::decode_request(frame) {
                Ok((req_id, req)) => {
                    let opcode = proto::request_opcode(&req);
                    let t_exec = wt.tel.clock();
                    let resp = match &req {
                        // Shed only what is expensive: a transactional
                        // command costs a full retry loop, while a
                        // single-key op costs about as much as encoding the
                        // shed response would — refusing those buys nothing.
                        // Admin commands always run (STATS is how overload
                        // is diagnosed).  The shed happens *before* `exec`,
                        // so a refused TRANSFER has zero partial effects,
                        // and the response is encoded in arrival order like
                        // any other, preserving pipelined req-id ordering.
                        Request::Cmd(cmd) if shedding && !cmd.standalone() => {
                            Response::Err(ErrCode::Overload)
                        }
                        Request::Cmd(cmd) => match store.exec(h, cmd) {
                            Ok(out) => Response::Ok(out),
                            Err(e) => Response::Err(e),
                        },
                        Request::Stats => {
                            let (load, events) = wt.tel.sections();
                            Response::Stats(StatsReply {
                                uptime_secs: wt.tel.uptime_secs(),
                                load: Some(load),
                                events: Some(events),
                                ..store.stats(h)
                            })
                        }
                        Request::Sync => Response::Synced(store.sync()),
                        // Fold-on-read: the registry and trace rings are
                        // only aggregated when somebody asks.
                        Request::Metrics => Response::Metrics(wt.tel.metrics_reply()),
                        Request::Trace => Response::Trace(wt.tel.trace_reply()),
                    };
                    self.chain
                        .encode_with(|buf| proto::encode_response(buf, req_id, opcode, &resp));
                    let op = telemetry::op_index(opcode);
                    // Counted with the clock on or off: a shed request is
                    // an `overload` abort here, the count `STATS` reports.
                    if let (Some(op), Response::Err(e)) = (op, &resp) {
                        wm.record_error(op, telemetry::error_index(*e));
                    }
                    if let (Some(t_decode), Some(t_exec)) = (t_decode, t_exec) {
                        // Frame picked up → decoded → response encoded: the
                        // decode/execute split feeds phase accounting; the
                        // execute span is the per-opcode service time.
                        let done = Instant::now();
                        decode_acc += (t_exec - t_decode).as_nanos() as u64;
                        let exec_ns = (done - t_exec).as_nanos() as u64;
                        exec_acc += exec_ns;
                        if let Some(op) = op {
                            let retries = h.take_last_attempts().saturating_sub(1);
                            wm.record_op(op, exec_ns, retries);
                            if exec_ns >= wt.tel.slow_ns() {
                                let queue_ns = self.last_read.map_or(0, |r| {
                                    t_decode.saturating_duration_since(r).as_nanos() as u64
                                });
                                wt.tel.trace(wt.slot).push(TraceRecord {
                                    opcode,
                                    status: proto::response_status(&resp),
                                    req_id: u64::from(req_id),
                                    queue_ns,
                                    exec_ns,
                                    retries,
                                });
                            }
                        }
                    }
                }
                Err(_) => {
                    // Frame boundaries are intact, so answer and carry on.
                    let req_id = frame
                        .get(..4)
                        .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
                        .unwrap_or(0);
                    let opcode = frame.get(4).copied().unwrap_or(0);
                    self.chain.encode_with(|buf| {
                        proto::encode_response(
                            buf,
                            req_id,
                            opcode,
                            &Response::Err(ErrCode::Malformed),
                        )
                    });
                }
            }
        }
        // Reclaim consumed prefix once it dominates the buffer.
        if self.rpos > 4096 && self.rpos * 2 > self.rbuf.len() {
            self.rbuf.drain(..self.rpos);
            self.rpos = 0;
        }
        // Both stay 0 with the clock off, and a 0 adds nothing.
        wm.add_phase_ns(PHASE_DECODE, decode_acc);
        wm.add_phase_ns(PHASE_EXECUTE, exec_acc);
        progress
    }

    /// [`Conn::pump_write`] wrapped in flush-phase accounting when the
    /// clock is on (zero clock reads when it is off).
    fn pump_write_timed(&mut self, wt: &WorkerTel<'_>) -> bool {
        let wm = wt.tel.worker(wt.slot);
        let t = wt.tel.clock();
        let progress = self.pump_write(wm);
        if let Some(t) = t {
            wm.add_phase_ns(PHASE_FLUSH, t.elapsed().as_nanos() as u64);
        }
        progress
    }

    /// Whether another execute pump could make progress right now (used to
    /// schedule zero-timeout passes for leftover budgeted work).
    fn can_execute(&self, ov: &OverloadConfig) -> bool {
        !self.poisoned && self.unflushed() < ov.wbuf_high && self.has_pending_frame()
    }

    /// Whether the connection is finished and can be dropped.
    fn finished(&self) -> bool {
        self.dead
            || (self.poisoned && self.flushed())
            || (self.eof && self.flushed() && !self.has_pending_frame())
    }

    fn has_pending_frame(&self) -> bool {
        let mut pos = self.rpos;
        matches!(proto::take_frame(&self.rbuf, &mut pos), Ok(Some(_)))
    }
}

/// One worker's view of the shared [`Telemetry`]: its own slot for the
/// allocation-free write path plus the shared state for the fold-on-read
/// admin commands.
struct WorkerTel<'a> {
    tel: &'a Telemetry,
    slot: usize,
}

struct WorkerShared {
    store: Arc<Store>,
    inbox: Arc<Mutex<Vec<TcpStream>>>,
    wake: Arc<WakeFd>,
    stop: Arc<AtomicBool>,
    ov: OverloadConfig,
    tel: Arc<Telemetry>,
}

fn worker_loop(shared: WorkerShared, drain_deadline: Duration, slot: usize) {
    let WorkerShared {
        store,
        inbox,
        wake,
        stop,
        ov,
        tel,
    } = shared;
    let wt = WorkerTel { tel: &tel, slot };
    let wm = tel.worker(slot);
    let mut h = store.manager().register();
    let epoll = Epoll::new().expect("epoll_create1 failed");
    epoll
        .add(wake.as_raw_fd(), EPOLLIN, WAKE_TOKEN)
        .expect("registering worker doorbell failed");
    // Connection slab: the slot index doubles as the epoll token, so one
    // readiness record maps to its connection without a lookup table.
    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut evbuf = vec![EpollEvent::zeroed(); EVENT_BATCH];
    let mut draining_since: Option<Instant> = None;
    // Leftover executable frames from a budget-bounded pass: the next wait
    // must not block on the kernel while decoded work is already parked.
    let mut work_pending = false;
    // Shed latch with hysteresis over this worker's backlog.  `shed_high == 0`
    // starts (and stays) shedding — the deterministic test mode.
    let mut shedding = ov.shed_high == 0;
    loop {
        // Adopt handed-off connections (the acceptor rang the doorbell).
        for stream in inbox.lock().unwrap().drain(..) {
            if let Ok(mut c) = Conn::new(stream) {
                let idx = free.pop().unwrap_or_else(|| {
                    conns.push(None);
                    conns.len() - 1
                });
                c.interest = EPOLLIN;
                match epoll.add(c.stream.as_raw_fd(), EPOLLIN, idx as u64) {
                    Ok(()) => conns[idx] = Some(c),
                    Err(_) => free.push(idx), // conn drops (and closes) here
                }
            }
        }

        let timeout = if work_pending {
            0
        } else if stop.load(Ordering::Acquire) {
            DRAIN_POLL_MS
        } else {
            IDLE_POLL_MS
        };
        let t_wait = tel.clock();
        let n = epoll.wait(&mut evbuf, timeout).unwrap_or(0);
        if let Some(t) = t_wait {
            // Includes idle poll timeouts by design: the epoll_wait share
            // of a worker's time IS its idle fraction.
            wm.add_phase_ns(PHASE_EPOLL_WAIT, t.elapsed().as_nanos() as u64);
        }

        // Deliver readiness to the slab (the doorbell only needs draining:
        // its payload — new conns or the stop flag — is read elsewhere).
        let mut dispatched = 0u64;
        for ev in &evbuf[..n] {
            let token = { ev.data };
            if token == WAKE_TOKEN {
                wake.drain();
                continue;
            }
            if let Some(Some(conn)) = conns.get_mut(token as usize) {
                conn.ready = ev.events;
                dispatched += 1;
            }
        }

        // Service pass: pump only connections with readiness or parked
        // executable frames.  Order per conn: flush first (frees write-
        // buffer budget), then read, then execute, then flush what execute
        // produced.
        let mut progress = false;
        let mut spurious = 0u64;
        let mut backlog = 0u64;
        work_pending = false;
        for (idx, slot) in conns.iter_mut().enumerate() {
            let Some(conn) = slot.as_mut() else {
                continue;
            };
            let bits = std::mem::take(&mut conn.ready);
            let mut moved = false;
            if bits & EPOLLOUT != 0 {
                moved |= conn.pump_write_timed(&wt);
            }
            if bits & (EPOLLIN | EPOLLHUP | EPOLLERR) != 0 {
                moved |= conn.pump_read(&ov);
            }
            if bits != 0 || conn.exec_pending {
                moved |= conn.pump_execute(&store, &mut h, &ov, shedding, &wt);
                moved |= conn.pump_write_timed(&wt);
            }
            if bits != 0 && !moved {
                spurious += 1;
            }
            progress |= moved;
            conn.update_wpause(&ov);
            conn.exec_pending = conn.can_execute(&ov);
            work_pending |= conn.exec_pending;
            if conn.finished() {
                // Dropping the stream closes the fd, which deregisters it
                // from the epoll set implicitly.
                *slot = None;
                free.push(idx);
                continue;
            }
            // Re-arm: push the recomputed interest mask only on change.
            let want = conn.desired_interest(&ov);
            if want != conn.interest {
                let fd = conn.stream.as_raw_fd();
                if epoll.modify(fd, want, idx as u64).is_err() {
                    *slot = None;
                    free.push(idx);
                    continue;
                }
                conn.interest = want;
            }
            backlog += conn.backlog_bytes() as u64;
        }
        wm.add(EPOLL_WAITS, 1);
        wm.add(EVENTS_DISPATCHED, dispatched);
        wm.add(SPURIOUS_WAKEUPS, spurious);

        tel.load().set_backlog(slot, backlog);
        if backlog >= ov.shed_high as u64 {
            shedding = true;
        } else if backlog <= ov.shed_low as u64 && ov.shed_high > 0 {
            shedding = false;
        }

        if stop.load(Ordering::Acquire) {
            let deadline = *draining_since.get_or_insert_with(Instant::now) + drain_deadline;
            // Drain: requests already received keep being served, but once
            // nothing is buffered in either direction the sockets close —
            // we do not wait for peers to hang up.
            let live = conns.iter().flatten();
            let quiesced = !progress
                && conns
                    .iter()
                    .flatten()
                    .all(|c| c.flushed() && !c.has_pending_frame());
            let empty = live.count() == 0;
            if empty || quiesced || Instant::now() > deadline {
                break;
            }
        }
    }
    tel.load().set_backlog(slot, 0);
    // `h` drops here: unwind-safe stats flush for this worker slot.
}

/// A running kvstore server (see the module docs).
pub struct Server {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    wakes: Vec<Arc<WakeFd>>,
    store: Arc<Store>,
    tel: Arc<Telemetry>,
    exporter: Option<MetricsExporter>,
    advancer: Option<EpochAdvancer>,
}

impl Server {
    /// Binds, spawns the worker pool, and starts accepting.
    pub fn start(cfg: &ServerConfig) -> std::io::Result<Self> {
        assert!(cfg.workers > 0, "server needs at least one worker");
        // One slot per worker plus slack for in-process admin/test handles
        // on the same manager.
        let mgr = TxManager::with_max_threads(cfg.workers + 8);
        let (store, advancer) = Store::new(mgr, &cfg.store)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e.to_string()))?;
        let store = Arc::new(store);
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));

        let tel = Arc::new(Telemetry::new(&cfg.telemetry, cfg.workers));
        let exporter = match &cfg.telemetry.metrics_addr {
            Some(addr) => Some(MetricsExporter::start(addr, Arc::clone(&tel))?),
            None => None,
        };

        let inboxes: Vec<Arc<Mutex<Vec<TcpStream>>>> = (0..cfg.workers)
            .map(|_| Arc::new(Mutex::new(Vec::new())))
            .collect();
        let wakes: Vec<Arc<WakeFd>> = (0..cfg.workers)
            .map(|_| WakeFd::new().map(Arc::new))
            .collect::<std::io::Result<_>>()?;
        let workers = inboxes
            .iter()
            .zip(&wakes)
            .enumerate()
            .map(|(slot, (inbox, wake))| {
                let shared = WorkerShared {
                    store: Arc::clone(&store),
                    inbox: Arc::clone(inbox),
                    wake: Arc::clone(wake),
                    stop: Arc::clone(&stop),
                    ov: cfg.overload.clone(),
                    tel: Arc::clone(&tel),
                };
                let deadline = cfg.drain_deadline;
                std::thread::spawn(move || worker_loop(shared, deadline, slot))
            })
            .collect();

        let acceptor = {
            let stop = Arc::clone(&stop);
            let tel = Arc::clone(&tel);
            let wakes = wakes.clone();
            std::thread::spawn(move || {
                let mut next = 0usize;
                let mut backoff = AcceptBackoff::new();
                while !stop.load(Ordering::Acquire) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            backoff.reset();
                            let w = next % inboxes.len();
                            inboxes[w].lock().unwrap().push(stream);
                            // Ring the worker's doorbell: its epoll wait
                            // returns promptly instead of eating the idle
                            // poll timeout before adopting the connection.
                            wakes[w].wake();
                            next += 1;
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            backoff.reset();
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        // EMFILE/ENFILE/ECONNABORTED and friends: transient.
                        // Back off (escalating, capped) and keep the
                        // listener — the condition clears when connections
                        // close, and tearing down turns a spike into an
                        // outage.  Counted on the row of the worker the
                        // next connection goes to.
                        Err(_) => {
                            tel.worker(next % inboxes.len()).add(ACCEPT_RETRIES, 1);
                            backoff.wait();
                        }
                    }
                }
            })
        };

        Ok(Self {
            local_addr,
            stop,
            acceptor: Some(acceptor),
            workers,
            wakes,
            store,
            tel,
            exporter,
            advancer,
        })
    }

    /// A point-in-time snapshot of the admission-control counters (also
    /// available remotely through `STATS`).
    pub fn load_stats(&self) -> LoadStats {
        self.tel.sections().0
    }

    /// A point-in-time snapshot of the event-loop counters (also available
    /// remotely through `STATS`).
    pub fn event_stats(&self) -> EventStats {
        self.tel.sections().1
    }

    /// The telemetry state: the metrics registry, the slow-request rings,
    /// and the exposition renderers (also available remotely through
    /// `METRICS`/`TRACE`).  Always `Some`: a server keeps its counts with
    /// the clock off too.
    pub fn telemetry(&self) -> Option<&Telemetry> {
        Some(&self.tel)
    }

    /// The bound address of the Prometheus exposition listener, when one
    /// was configured (resolves a `:0` port).
    pub fn metrics_local_addr(&self) -> Option<SocketAddr> {
        self.exporter.as_ref().map(MetricsExporter::local_addr)
    }

    /// The bound address (resolves the `:0` port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The store the server executes against (for in-process preload,
    /// statistics, or recovery checks).
    pub fn store(&self) -> &Arc<Store> {
        &self.store
    }

    fn signal_stop(&self) {
        self.stop.store(true, Ordering::Release);
        // Wake every worker out of its poll so the drain starts now, not a
        // poll timeout from now.
        for w in &self.wakes {
            w.wake();
        }
    }

    /// Graceful drain: stop accepting, let every worker serve the requests
    /// already buffered and flush its responses, join the pool, then stop
    /// the epoch advancer (durable mode).  Returns the store so callers can
    /// take post-shutdown statistics (exact: every worker handle has been
    /// dropped, which flushes its tallies) or a recovery cut with no
    /// concurrent epoch ticks.
    pub fn shutdown(mut self) -> Arc<Store> {
        self.signal_stop();
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        if let Some(e) = self.exporter.take() {
            e.shutdown();
        }
        if let Some(adv) = self.advancer.take() {
            adv.shutdown();
        }
        Arc::clone(&self.store)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // `shutdown` consumed the threads if it ran; otherwise stop and join
        // here so a dropped server never leaks its pool.
        self.signal_stop();
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // `advancer` drops (and joins) after the workers by field order.
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accept_backoff_escalates_to_cap_and_resets() {
        let mut b = AcceptBackoff::new();
        let mut prev = Duration::ZERO;
        for _ in 0..16 {
            let d = b.advance();
            assert!(d >= prev, "delays must be nondecreasing");
            assert!(d <= AcceptBackoff::MAX);
            prev = d;
        }
        assert_eq!(prev, AcceptBackoff::MAX, "must reach the cap");
        b.reset();
        assert_eq!(b.advance(), AcceptBackoff::INITIAL);
    }

    #[test]
    fn server_load_tracks_backlog_and_peak() {
        let tel = Telemetry::new(&TelemetryConfig::default(), 2);
        let load = tel.load();
        load.set_backlog(0, 100);
        load.set_backlog(1, 50);
        let s = tel.sections().0;
        assert_eq!(s.inflight_bytes, 150);
        assert_eq!(s.peak_inflight_bytes, 150);
        load.set_backlog(0, 0);
        let s = tel.sections().0;
        assert_eq!(s.inflight_bytes, 50);
        assert_eq!(s.peak_inflight_bytes, 150, "peak must not regress");
        load.set_backlog(1, 200);
        assert_eq!(tel.sections().0.peak_inflight_bytes, 200);
        // A shed is an `overload` abort of its opcode, an accept retry a
        // count on the row of the worker next in line.
        let transfer = telemetry::op_index(proto::OP_TRANSFER).unwrap();
        let overload = telemetry::error_index(ErrCode::Overload);
        tel.worker(0).record_error(transfer, overload);
        tel.worker(1).add(ACCEPT_RETRIES, 1);
        let s = tel.sections().0;
        assert_eq!(s.shed_requests, 1);
        assert_eq!(s.accept_retries, 1);
        assert_eq!(
            tel.sections().1,
            EventStats {
                per_worker: vec![Default::default(); 2],
                ..Default::default()
            }
        );
    }

    #[test]
    fn write_chain_tracks_partial_consumption_across_segments() {
        let mut chain = WriteChain::new();
        // Two sealed segments plus an open tail.
        chain.encode_with(|b| b.extend_from_slice(&[1u8; WRITE_SEGMENT_BYTES]));
        chain.encode_with(|b| b.extend_from_slice(&[2u8; WRITE_SEGMENT_BYTES]));
        chain.encode_with(|b| b.extend_from_slice(&[3u8; 100]));
        let total = 2 * WRITE_SEGMENT_BYTES + 100;
        assert_eq!(chain.len, total);
        assert_eq!(chain.segs.len(), 2);
        assert_eq!(chain.tail.len(), 100);

        // (count, total bytes, first slice's length and leading byte)
        fn peek(chain: &WriteChain) -> (usize, usize, usize, u8) {
            let mut iovs = Vec::new();
            chain.gather(&mut iovs);
            let total = iovs.iter().map(|s| s.len()).sum();
            let (flen, fbyte) = iovs.first().map_or((0, 0), |s| (s.len(), s[0]));
            (iovs.len(), total, flen, fbyte)
        }

        assert_eq!(peek(&chain), (3, total, WRITE_SEGMENT_BYTES, 1));

        // Consume into the middle of the first segment...
        chain.advance(10);
        assert_eq!(peek(&chain), (3, total - 10, WRITE_SEGMENT_BYTES - 10, 1));
        // ...then across the segment boundary into the second.
        chain.advance(WRITE_SEGMENT_BYTES);
        assert_eq!(
            peek(&chain),
            (
                2,
                WRITE_SEGMENT_BYTES - 10 + 100,
                WRITE_SEGMENT_BYTES - 10,
                2
            )
        );
        // ...and drain everything.
        let remaining = chain.len;
        chain.advance(remaining);
        assert!(chain.is_empty());
        assert_eq!(peek(&chain), (0, 0, 0, 0));

        // New bytes after a full drain start a fresh tail; partial tail
        // consumption must resume mid-tail, not from its start.
        chain.encode_with(|b| b.extend_from_slice(b"tail"));
        assert_eq!(chain.len, 4);
        chain.advance(2);
        {
            let mut iovs = Vec::new();
            chain.gather(&mut iovs);
            assert_eq!(iovs.len(), 1);
            assert_eq!(&iovs[0][..], b"il");
        }
    }

    #[test]
    fn write_chain_iovec_gather_is_bounded() {
        let mut chain = WriteChain::new();
        for _ in 0..(2 * MAX_WRITE_IOVECS) {
            chain.encode_with(|b| b.extend_from_slice(&[0u8; WRITE_SEGMENT_BYTES]));
        }
        let mut iovs = Vec::new();
        chain.gather(&mut iovs);
        assert_eq!(iovs.len(), MAX_WRITE_IOVECS);
    }
}
