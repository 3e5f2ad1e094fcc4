//! A blocking client with request pipelining.
//!
//! [`Client::send`] buffers a request frame and returns immediately;
//! [`Client::recv`] flushes the buffer and blocks for the next response.
//! Because the server answers in request order per connection, a client can
//! keep `depth` requests in flight and pair responses positionally — the
//! `kvbench` load generator drives exactly this pattern.  The one-liner
//! methods ([`Client::get_b`], [`Client::transfer`], …) are `send` + `recv`
//! with the response variant checked.

use crate::proto::{self, ErrCode, MetricsReply, Request, Response, StatsReply, TraceReply};
use crate::store::{Cmd, CmdOut};
use medley::util::FastRng;
use pmem::Value;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// How many times a typed command resends after [`ErrCode::Overload`]
/// before surfacing the error.  A bounded budget keeps a saturated server
/// from turning clients into infinite retry loops (which would only deepen
/// the overload).
const OVERLOAD_RESEND_BUDGET: u32 = 8;

/// Base of the jittered overload retry delay; attempt `n` sleeps uniformly
/// in `[0, OVERLOAD_BASE_DELAY_US << min(n, 6))` microseconds ("full
/// jitter", which decorrelates the retry storms that synchronized backoff
/// produces).
const OVERLOAD_BASE_DELAY_US: u64 = 50;

/// Client-side failure of one command.
#[derive(Debug)]
pub enum KvError {
    /// Transport failure; the connection is unusable.
    Io(std::io::Error),
    /// The server answered with an abort/error status.
    Server(ErrCode),
    /// The server answered with a frame this client cannot decode, or a
    /// response shape that does not match the request.
    Proto,
}

impl std::fmt::Display for KvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KvError::Io(e) => write!(f, "kvstore transport error: {e}"),
            KvError::Server(c) => write!(f, "kvstore server error: {c:?}"),
            KvError::Proto => f.write_str("kvstore protocol mismatch"),
        }
    }
}

impl std::error::Error for KvError {}

impl From<std::io::Error> for KvError {
    fn from(e: std::io::Error) -> Self {
        KvError::Io(e)
    }
}

/// Command result alias.
pub type KvResult<T> = Result<T, KvError>;

/// A blocking, pipelining kvstore connection.
pub struct Client {
    stream: TcpStream,
    wbuf: Vec<u8>,
    rbuf: Vec<u8>,
    rpos: usize,
    next_id: u32,
    /// Request ids in flight, oldest first (the server answers in order).
    pending: VecDeque<u32>,
    /// Jitter source for overload retry delays.
    rng: FastRng,
    /// Total [`ErrCode::Overload`] responses this client retried through.
    overload_retries: u64,
}

impl Client {
    /// Connects (TCP, `TCP_NODELAY`).
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // Seed the jitter source per connection (the ephemeral port is
        // unique per live connection on this host), so simultaneous clients
        // never share a retry schedule.
        let seed = stream.local_addr().map_or(1, |a| u64::from(a.port()) + 1);
        Ok(Self {
            stream,
            wbuf: Vec::new(),
            rbuf: Vec::new(),
            rpos: 0,
            next_id: 1,
            pending: VecDeque::new(),
            rng: FastRng::new(seed),
            overload_retries: 0,
        })
    }

    /// Buffers one request frame; [`Client::flush`] (or the next `recv`)
    /// puts it on the wire.  Returns the request id.
    ///
    /// A command too large for one frame (an `MGETB`/`MSETB`/`BATCH` past
    /// [`proto::MAX_FRAME`]) is refused with `InvalidInput` — nothing is
    /// buffered and the pipeline stays intact; chunk the command instead.
    pub fn send(&mut self, req: &Request) -> std::io::Result<u32> {
        let id = self.next_id;
        proto::try_encode_request(&mut self.wbuf, id, req).map_err(|_| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "kvstore command exceeds the maximum frame size",
            )
        })?;
        self.next_id = self.next_id.wrapping_add(1);
        self.pending.push_back(id);
        Ok(id)
    }

    /// Writes every buffered request to the socket.
    pub fn flush(&mut self) -> std::io::Result<()> {
        if !self.wbuf.is_empty() {
            self.stream.write_all(&self.wbuf)?;
            self.wbuf.clear();
        }
        Ok(())
    }

    /// Number of requests sent but not yet answered.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Flushes, then blocks for the next response (they arrive in request
    /// order; the echoed id is checked against the oldest in-flight
    /// request).
    pub fn recv(&mut self) -> KvResult<Response> {
        let expect = self.pending.pop_front().ok_or(KvError::Proto)?;
        self.flush()?;
        loop {
            if let Some(frame) =
                proto::take_frame(&self.rbuf, &mut self.rpos).map_err(|_| KvError::Proto)?
            {
                let (id, resp) = proto::decode_response(frame).map_err(|_| KvError::Proto)?;
                if self.rpos * 2 > self.rbuf.len() && self.rpos > 4096 {
                    self.rbuf.drain(..self.rpos);
                    self.rpos = 0;
                }
                if id != expect {
                    return Err(KvError::Proto);
                }
                return Ok(resp);
            }
            let mut chunk = [0u8; 16 << 10];
            let n = self.stream.read(&mut chunk).map_err(KvError::Io)?;
            if n == 0 {
                return Err(KvError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed mid-response",
                )));
            }
            self.rbuf.extend_from_slice(&chunk[..n]);
        }
    }

    /// Flushes, then waits at most `timeout` for the next pipelined
    /// response.  Returns `Ok(None)` when no request is in flight or no
    /// complete frame arrived in time — the open-loop load generator polls
    /// this so a stalled server cannot block the send clock.
    pub fn recv_timeout(&mut self, timeout: Duration) -> KvResult<Option<Response>> {
        if self.pending.is_empty() {
            return Ok(None);
        }
        self.flush()?;
        loop {
            if let Some(frame) =
                proto::take_frame(&self.rbuf, &mut self.rpos).map_err(|_| KvError::Proto)?
            {
                let expect = self.pending.pop_front().ok_or(KvError::Proto)?;
                let (id, resp) = proto::decode_response(frame).map_err(|_| KvError::Proto)?;
                if self.rpos * 2 > self.rbuf.len() && self.rpos > 4096 {
                    self.rbuf.drain(..self.rpos);
                    self.rpos = 0;
                }
                if id != expect {
                    return Err(KvError::Proto);
                }
                return Ok(Some(resp));
            }
            self.stream
                .set_read_timeout(Some(timeout.max(Duration::from_micros(1))))?;
            let mut chunk = [0u8; 16 << 10];
            let res = self.stream.read(&mut chunk);
            self.stream.set_read_timeout(None)?;
            match res {
                Ok(0) => {
                    return Err(KvError::Io(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "server closed mid-response",
                    )))
                }
                Ok(n) => self.rbuf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Ok(None)
                }
                Err(e) => return Err(KvError::Io(e)),
            }
        }
    }

    /// One round trip: `send` + `recv` (no other requests may be in
    /// flight, so responses stay positionally paired).
    pub fn call(&mut self, req: &Request) -> KvResult<Response> {
        self.send(req)?;
        self.recv()
    }

    /// Total [`ErrCode::Overload`] responses the typed command methods
    /// absorbed by resending.
    pub fn overload_retries(&self) -> u64 {
        self.overload_retries
    }

    fn cmd(&mut self, cmd: Cmd) -> KvResult<CmdOut> {
        let req = Request::Cmd(cmd);
        let mut attempt: u32 = 0;
        loop {
            match self.call(&req)? {
                Response::Ok(out) => return Ok(out),
                // A shed command executed nothing, so resending is safe.
                // Full-jitter backoff, bounded by the resend budget; past
                // the budget the Overload error surfaces to the caller.
                Response::Err(ErrCode::Overload) if attempt < OVERLOAD_RESEND_BUDGET => {
                    attempt += 1;
                    self.overload_retries += 1;
                    let cap = OVERLOAD_BASE_DELAY_US << attempt.min(6);
                    std::thread::sleep(Duration::from_micros(self.rng.next_below(cap.max(1))));
                }
                Response::Err(e) => return Err(KvError::Server(e)),
                _ => return Err(KvError::Proto),
            }
        }
    }

    /// Membership test.
    pub fn contains(&mut self, key: u64) -> KvResult<bool> {
        match self.cmd(Cmd::Contains(key))? {
            CmdOut::Present(p) => Ok(p),
            _ => Err(KvError::Proto),
        }
    }

    /// Ordered range scan: one atomically consistent page of `[lo, hi)`,
    /// at most `limit` entries (server-capped at
    /// [`crate::store::MAX_SCAN_LIMIT`]).  A truncated page is a consistent
    /// prefix; resume from `last_key + 1`.  Only range-partitioned (skiplist)
    /// stores answer scans — others report [`ErrCode::Malformed`].
    pub fn scan(&mut self, lo: u64, hi: u64, limit: u32) -> KvResult<Vec<(u64, Value)>> {
        match self.cmd(Cmd::Scan { lo, hi, limit })? {
            CmdOut::Page(page) => Ok(page),
            _ => Err(KvError::Proto),
        }
    }

    /// Failure-atomic transfer; returns both post-transfer balances.
    pub fn transfer(&mut self, from: u64, to: u64, amount: u64) -> KvResult<(u64, u64)> {
        match self.cmd(Cmd::Transfer { from, to, amount })? {
            CmdOut::Transferred {
                from_after,
                to_after,
            } => Ok((from_after, to_after)),
            _ => Err(KvError::Proto),
        }
    }

    /// Looks up `key`.
    pub fn get_b(&mut self, key: u64) -> KvResult<Option<Value>> {
        match self.cmd(Cmd::GetB(key))? {
            CmdOut::ValueB(v) => Ok(v),
            _ => Err(KvError::Proto),
        }
    }

    /// Inserts or replaces `key`; returns the previous value.  `val` is
    /// canonicalized through [`Value::from_bytes`], so an 8-byte input
    /// stores a word.
    pub fn put_b(&mut self, key: u64, val: &[u8]) -> KvResult<Option<Value>> {
        match self.cmd(Cmd::PutB(key, Value::from_bytes(val)))? {
            CmdOut::PrevB(v) => Ok(v),
            _ => Err(KvError::Proto),
        }
    }

    /// Removes `key`; returns the removed value.
    pub fn del_b(&mut self, key: u64) -> KvResult<Option<Value>> {
        match self.cmd(Cmd::DelB(key))? {
            CmdOut::RemovedB(v) => Ok(v),
            _ => Err(KvError::Proto),
        }
    }

    /// Byte-exact compare-and-swap; returns `(success, post-op value)`.
    pub fn cas_b(
        &mut self,
        key: u64,
        expected: &[u8],
        desired: &[u8],
    ) -> KvResult<(bool, Option<Value>)> {
        match self.cmd(Cmd::CasB {
            key,
            expected: Value::from_bytes(expected),
            desired: Value::from_bytes(desired),
        })? {
            CmdOut::CasB { success, current } => Ok((success, current)),
            _ => Err(KvError::Proto),
        }
    }

    /// Atomic multi-key read: one consistent snapshot of all `keys`.
    pub fn mget_b(&mut self, keys: &[u64]) -> KvResult<Vec<Option<Value>>> {
        match self.cmd(Cmd::MGetB(keys.to_vec()))? {
            CmdOut::ValuesB(v) if v.len() == keys.len() => Ok(v),
            _ => Err(KvError::Proto),
        }
    }

    /// Atomic multi-key write: all pairs commit together.
    pub fn mset_b(&mut self, pairs: &[(u64, &[u8])]) -> KvResult<()> {
        let pairs: Vec<(u64, Value)> = pairs
            .iter()
            .map(|(k, v)| (*k, Value::from_bytes(v)))
            .collect();
        match self.cmd(Cmd::MSetB(pairs))? {
            CmdOut::Done => Ok(()),
            _ => Err(KvError::Proto),
        }
    }

    /// Runs a batch of single-key commands as one transaction.
    pub fn batch(&mut self, cmds: Vec<Cmd>) -> KvResult<Vec<CmdOut>> {
        match self.cmd(Cmd::Batch(cmds))? {
            CmdOut::Batch(outs) => Ok(outs),
            _ => Err(KvError::Proto),
        }
    }

    /// Fetches the server's aggregated statistics.
    pub fn stats(&mut self) -> KvResult<StatsReply> {
        match self.call(&Request::Stats)? {
            Response::Stats(s) => Ok(s),
            Response::Err(e) => Err(KvError::Server(e)),
            _ => Err(KvError::Proto),
        }
    }

    /// Takes a durability cut; returns the persisted epoch (0 on a
    /// transient server).
    pub fn sync(&mut self) -> KvResult<u64> {
        match self.call(&Request::Sync)? {
            Response::Synced(e) => Ok(e),
            Response::Err(e) => Err(KvError::Server(e)),
            _ => Err(KvError::Proto),
        }
    }

    /// Fetches the server's telemetry snapshot: per-opcode latency
    /// histograms (raw buckets, reconstructed client-side as
    /// [`obs::LatencyHistogram`]), retry totals, abort-reason counters, and
    /// per-worker event-loop phase times.  Empty when server telemetry is
    /// disabled.
    pub fn metrics(&mut self) -> KvResult<MetricsReply> {
        match self.call(&Request::Metrics)? {
            Response::Metrics(m) => Ok(m),
            Response::Err(e) => Err(KvError::Server(e)),
            _ => Err(KvError::Proto),
        }
    }

    /// Fetches the server's slow-request trace rings (newest records per
    /// worker plus the count of older records evicted).  Empty when server
    /// telemetry is disabled.
    pub fn trace(&mut self) -> KvResult<TraceReply> {
        match self.call(&Request::Trace)? {
            Response::Trace(t) => Ok(t),
            Response::Err(e) => Err(KvError::Server(e)),
            _ => Err(KvError::Proto),
        }
    }
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("in_flight", &self.pending.len())
            .finish()
    }
}
