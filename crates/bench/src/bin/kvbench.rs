//! Service-level scenarios for the `kvstore` layer: client connections over
//! loopback TCP against in-process servers (or, for `external`, a standalone
//! `kvserver`), zipfian (θ = 0.99) key picks, per-request latency
//! histograms — and, per scenario, the invariant the run must uphold.
//!
//! ```text
//! cargo run --release -p bench --bin kvbench -- --list
//! cargo run --release -p bench --bin kvbench -- \
//!     --scenario overload --connections 2 --workers 2 --seconds 2 --keys 4096
//! ```
//!
//! Every scenario is one row of [`SCENARIOS`]: a `run` that hosts the
//! servers it needs and pushes load through the one driver ([`drive`]), and
//! the bounds its figures must meet — checked by [`check`], a pure function
//! of the rows the run printed, which decides the exit status.  Figures go
//! to stdout as CSV in long form (`scenario,series,metric,value`); a broken
//! bound is named on stderr and the exit status is 1, so a CI step is just
//! the command.
//!
//! The mixed traffic is 50% `GETB`, 20% `PUTB`, 10% blind `CASB`, 10%
//! `TRANSFER` (two picks, amount 1), 10% `MGETB` of 4 keys, every value a
//! word.  There are no `DELB`s so `TRANSFER` accounts stay populated; a
//! refused transfer (`Insufficient`) is a completed round trip, tallied
//! apart from aborts.

use bench::workload::{KeyDist, KeySampler};
use bench::CommonArgs;
use kvstore::{
    Client, Cmd, CmdOut, ErrCode, KvError, KvResult, OverloadConfig, PartitionScheme, Request,
    Response, Server, ServerConfig, StatsReply, StoreBackend, StoreConfig, TableKind,
};
use medley::util::FastRng;
use obs::LatencyHistogram;
use pmem::Value;
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Initial balance preloaded into every key.
const INITIAL: u64 = 1_000_000;
/// Key distribution of every scenario.
const ZIPF: KeyDist = KeyDist::Zipfian(0.99);
/// Keys per `MSETB` when loading (well inside descriptor write capacity).
const LOAD_CHUNK: usize = 512;
/// Connections are multiplexed over at most this many client threads.
const MAX_CLIENT_THREADS: usize = 8;
/// How long a first connect may wait for an external server to bind.
const CONNECT_PATIENCE: Duration = Duration::from_secs(5);
/// How long a connection may take to collect its in-flight responses after
/// the deadline — bounded, so a wedged server cannot hang the run.
const DRAIN_PATIENCE: Duration = Duration::from_millis(500);

/// `fanout`: sockets in the wide run, and requests in flight on each.
const FANOUT_CONNS: usize = 512;
const FANOUT_DEPTH: usize = 4;
/// `overload`: offered load as a multiple of the calibrated service rate.
const OFFERED_MULT: f64 = 2.0;
/// `overload`: most requests one connection may have outstanding before the
/// generator counts a scheduled send as dropped instead of queuing it — an
/// open-loop generator must never let a slow server push back on its clock,
/// but its own memory must stay bounded too.
const OPEN_LOOP_PIPELINE: usize = 4096;
/// `grow`: width of one throughput window of the load phase.
const GROW_WINDOW_MS: u64 = 100;
/// `scan`: strided key slots one windowed query covers.
const SCAN_WINDOW: u64 = 128;
/// `external`: transfers sent from keys that cannot exist.
const PROBE_ERRORS: u64 = 64;

// ---------------------------------------------------------------------------
// Tally, connection, driver
// ---------------------------------------------------------------------------

/// What the connections of one run counted, merged across threads.
#[derive(Default)]
struct Tally {
    ok: u64,
    /// `Retry` / `Capacity`: the transaction gave up, nothing happened.
    retry_aborts: u64,
    /// Any other error answer (`Insufficient`, `NotFound`, ...).
    app_errors: u64,
    /// `Overload`: refused at admission.
    shed: u64,
    /// Open loop: requests put on the wire, scheduled sends skipped because
    /// the pipeline was full, and the deepest pipeline seen.
    sent: u64,
    dropped: u64,
    max_depth: usize,
    /// `scan`: windowed pages, full-space pages, entries returned, and full
    /// pages that missed a key or did not conserve the total.
    scans: u64,
    full_scans: u64,
    scan_entries: u64,
    torn_pages: u64,
    /// `grow` load phase: keys acknowledged per [`GROW_WINDOW_MS`] window.
    windows: Vec<u64>,
    /// Latency of the `ok` answers.
    hist: LatencyHistogram,
}

impl Tally {
    /// Classifies one answer; a committed command's result is handed back.
    fn answer(&mut self, resp: Response, sent_at: Instant) -> Option<CmdOut> {
        match resp {
            Response::Ok(out) => {
                self.ok += 1;
                self.hist.record(sent_at.elapsed());
                return Some(out);
            }
            Response::Err(ErrCode::Overload) => self.shed += 1,
            Response::Err(ErrCode::Retry | ErrCode::Capacity) => self.retry_aborts += 1,
            _ => self.app_errors += 1,
        }
        None
    }

    fn merge(&mut self, o: &Tally) {
        self.ok += o.ok;
        self.retry_aborts += o.retry_aborts;
        self.app_errors += o.app_errors;
        self.shed += o.shed;
        self.sent += o.sent;
        self.dropped += o.dropped;
        self.max_depth = self.max_depth.max(o.max_depth);
        self.scans += o.scans;
        self.full_scans += o.full_scans;
        self.scan_entries += o.scan_entries;
        self.torn_pages += o.torn_pages;
        if self.windows.len() < o.windows.len() {
            self.windows.resize(o.windows.len(), 0);
        }
        for (w, v) in self.windows.iter_mut().zip(&o.windows) {
            *w += v;
        }
        self.hist.merge(&o.hist);
    }
}

/// One call of a connection's workload: send and/or collect some requests.
/// Per-connection state (key range, send clock) lives in the closure.
/// `Ok(false)` (nothing left to do) or an error (the connection broke)
/// retires the connection.
type Step = Box<dyn FnMut(&mut Conn, &mut Tally) -> KvResult<bool>>;

/// Connects, retrying for [`CONNECT_PATIENCE`] (an external server may still
/// be binding its listener).
fn connect(addr: SocketAddr) -> Client {
    let give_up = Instant::now() + CONNECT_PATIENCE;
    loop {
        match Client::connect(addr) {
            Ok(c) => return c,
            Err(e) if Instant::now() >= give_up => panic!("connect to {addr}: {e}"),
            Err(_) => std::thread::sleep(Duration::from_millis(50)),
        }
    }
}

/// One client connection with the send time of each in-flight request
/// (responses come back in request order).
struct Conn {
    client: Client,
    rng: FastRng,
    sent_at: VecDeque<Instant>,
}

impl Conn {
    fn send(&mut self, cmd: Cmd) -> KvResult<()> {
        self.client.send(&Request::Cmd(cmd))?;
        self.sent_at.push_back(Instant::now());
        Ok(())
    }

    fn settle(&mut self, resp: Response, tally: &mut Tally) -> Option<CmdOut> {
        let at = self.sent_at.pop_front().expect("a send time per request");
        tally.answer(resp, at)
    }

    /// Blocks for the oldest in-flight answer.
    fn recv(&mut self, tally: &mut Tally) -> KvResult<Option<CmdOut>> {
        let resp = self.client.recv()?;
        Ok(self.settle(resp, tally))
    }

    /// Waits at most `timeout` for an answer; `false` if none came.
    fn poll(&mut self, tally: &mut Tally, timeout: Duration) -> KvResult<bool> {
        match self.client.recv_timeout(timeout)? {
            Some(resp) => {
                self.settle(resp, tally);
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// One round trip.
    fn call(&mut self, cmd: Cmd, tally: &mut Tally) -> KvResult<Option<CmdOut>> {
        self.send(cmd)?;
        self.recv(tally)
    }
}

/// What one driven run produced.
struct Outcome {
    conns: usize,
    tally: Tally,
    elapsed: Duration,
    /// `STATS` after the run (and after a `SYNC`, so a durable server
    /// reports a fresh cut).
    stats: StatsReply,
}

impl Outcome {
    /// `n` per second of the run.
    fn per_sec(&self, n: u64) -> f64 {
        n as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// The driver: opens `conns` connections to `addr` on up to
/// [`MAX_CLIENT_THREADS`] threads, releases them together, calls each
/// connection's step (from `make_step(connection index)`) round-robin until
/// `duration` has passed or the step stops, collects what is still in
/// flight, and samples the server.
fn drive(
    addr: SocketAddr,
    conns: usize,
    duration: Duration,
    make_step: &(dyn Fn(usize) -> Step + Sync),
) -> Outcome {
    let threads = conns.clamp(1, MAX_CLIENT_THREADS);
    let barrier = Barrier::new(threads + 1);
    let mut tally = Tally::default();
    let elapsed = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut lanes: Vec<(Conn, Step)> = (conns * t / threads
                        ..conns * (t + 1) / threads)
                        .map(|i| {
                            let conn = Conn {
                                client: connect(addr),
                                rng: FastRng::new(0xBE9C4 + i as u64),
                                sent_at: VecDeque::new(),
                            };
                            (conn, make_step(i))
                        })
                        .collect();
                    let mut tally = Tally::default();
                    barrier.wait();
                    let deadline = Instant::now() + duration;
                    while !lanes.is_empty() && Instant::now() < deadline {
                        lanes.retain_mut(|(conn, step)| step(conn, &mut tally).unwrap_or(false));
                    }
                    let give_up = Instant::now() + DRAIN_PATIENCE;
                    for (conn, _) in &mut lanes {
                        while conn.client.in_flight() > 0 && Instant::now() < give_up {
                            if conn.poll(&mut tally, Duration::from_millis(10)).is_err() {
                                break;
                            }
                        }
                    }
                    tally
                })
            })
            .collect();
        barrier.wait();
        let started = Instant::now();
        for h in handles {
            tally.merge(&h.join().expect("client thread panicked"));
        }
        started.elapsed()
    });
    let mut admin = connect(addr);
    let _ = admin.sync();
    let stats = admin.stats().expect("STATS after the run");
    Outcome {
        conns,
        tally,
        elapsed,
        stats,
    }
}

// ---------------------------------------------------------------------------
// Load shapes
// ---------------------------------------------------------------------------

/// One request of the mixed traffic.  The CAS is blind (a pipelined or
/// clocked sender cannot afford a read round trip first); it runs the
/// transactional path whether or not it swaps.
fn mixed(keys: u64) -> impl Fn(&mut FastRng, &KeySampler) -> Cmd + Clone + Sync {
    move |rng, sampler| {
        let k = sampler.sample(rng);
        match rng.next_below(100) {
            0..=49 => Cmd::GetB(k),
            50..=69 => Cmd::PutB(k, Value::U64(rng.next_u64() % INITIAL)),
            70..=79 => Cmd::CasB {
                key: k,
                expected: Value::U64(INITIAL),
                desired: Value::U64(INITIAL),
            },
            80..=89 => {
                let to = sampler.sample(rng);
                Cmd::Transfer {
                    from: k,
                    to: if to == k { (to + 1) % keys } else { to },
                    amount: 1,
                }
            }
            _ => Cmd::MGetB((0..4).map(|_| sampler.sample(rng)).collect()),
        }
    }
}

/// One request of the blob traffic: 50% `GETB`, 40% `PUTB` of `payload`,
/// 10% `MGETB` of 4 keys.
fn blob(payload: Vec<u8>) -> impl Fn(&mut FastRng, &KeySampler) -> Cmd + Clone + Sync {
    move |rng, sampler| {
        let k = sampler.sample(rng);
        match rng.next_below(100) {
            0..=49 => Cmd::GetB(k),
            50..=89 => Cmd::PutB(k, Value::from_bytes(&payload)),
            _ => Cmd::MGetB((0..4).map(|_| sampler.sample(rng)).collect()),
        }
    }
}

/// Closed loop: tops the connection up to `depth` requests in flight, then
/// takes exactly one answer — the pipeline oscillates between `depth - 1`
/// and `depth` and never drains dry.  Depth 1 is the plain request/response
/// client.
fn pipelined<S>(depth: usize, keys: u64, sample: S) -> impl Fn(usize) -> Step + Sync
where
    S: Fn(&mut FastRng, &KeySampler) -> Cmd + Clone + Sync + 'static,
{
    let sampler = ZIPF.sampler(keys);
    move |_| {
        let (sampler, sample) = (sampler.clone(), sample.clone());
        Box::new(move |conn, tally| {
            while conn.client.in_flight() < depth {
                let cmd = sample(&mut conn.rng, &sampler);
                conn.send(cmd)?;
            }
            conn.recv(tally)?;
            Ok(true)
        })
    }
}

/// Open loop: every connection sends mixed traffic on a fixed clock
/// (`offered_per_sec` over all `conns`) however fast answers come back, so
/// load past capacity shows up as shedding and queueing instead of silently
/// slowing the generator.  The pacing shares the driver: the clock is the
/// step's own state, and one step is one tick.
fn open_loop(offered_per_sec: f64, conns: usize, keys: u64) -> impl Fn(usize) -> Step + Sync {
    let interval = Duration::from_secs_f64(conns as f64 / offered_per_sec.max(1.0));
    let sampler = ZIPF.sampler(keys);
    move |_| {
        let (sampler, sample) = (sampler.clone(), mixed(keys));
        let mut next_send = None;
        Box::new(move |conn, tally| {
            // Fire every send that has come due; a full pipeline drops the
            // send (counted) rather than stalling the clock.
            let now = Instant::now();
            let next_send = next_send.get_or_insert(now);
            while *next_send <= now {
                *next_send += interval;
                if conn.client.in_flight() >= OPEN_LOOP_PIPELINE {
                    tally.dropped += 1;
                    continue;
                }
                let cmd = sample(&mut conn.rng, &sampler);
                conn.send(cmd)?;
                tally.sent += 1;
            }
            tally.max_depth = tally.max_depth.max(conn.client.in_flight());
            // Take what has arrived; never block past a sliver of the tick.
            while conn.poll(tally, Duration::from_micros(50))? {}
            let now = Instant::now();
            if *next_send > now {
                std::thread::sleep((*next_send - now).min(Duration::from_micros(200)));
            }
            Ok(true)
        })
    }
}

/// `grow` load phase: the connections split `0..keys` and pump chunked
/// `MSETB`s as fast as the server takes them, tallying acknowledged keys into
/// windows; a connection stops when its range is loaded.  On an elastic
/// server the early windows land while every shard's directory is still
/// doubling, so the window series *is* the during-growth dip curve.
fn load_range(keys: u64, conns: usize) -> impl Fn(usize) -> Step + Sync {
    move |i| {
        let hi = keys * (i as u64 + 1) / conns as u64;
        let mut k = keys * i as u64 / conns as u64;
        let mut begin = None;
        Box::new(move |conn, tally| {
            if k >= hi {
                return Ok(false);
            }
            let begin = *begin.get_or_insert_with(Instant::now);
            let end = (k + LOAD_CHUNK as u64).min(hi);
            let chunk = (k..end).map(|key| (key, Value::U64(INITIAL))).collect();
            if conn.call(Cmd::MSetB(chunk), tally)?.is_some() {
                let w = (begin.elapsed().as_millis() as u64 / GROW_WINDOW_MS) as usize;
                if tally.windows.len() <= w {
                    tally.windows.resize(w + 1, 0);
                }
                tally.windows[w] += end - k;
                k = end;
            }
            Ok(true)
        })
    }
}

/// `scan`: 60% windowed scans, 30% transfers, 10% full-space scans over
/// `keys` accounts strided across the whole `u64` space.  A page is one
/// atomic read-only transaction, so money moving between accounts mid-scan
/// must never change a full page's total.
fn scan_mix(keys: u64, stride: u64) -> impl Fn(usize) -> Step + Sync {
    let total = keys as u128 * INITIAL as u128;
    move |_| {
        Box::new(move |conn, tally| {
            let dice = conn.rng.next_below(100);
            if dice < 60 {
                let lo = conn.rng.next_below(keys) * stride;
                let hi = lo.saturating_add(SCAN_WINDOW * stride);
                let limit = SCAN_WINDOW as u32;
                if let Some(CmdOut::Page(page)) = conn.call(Cmd::Scan { lo, hi, limit }, tally)? {
                    tally.scans += 1;
                    tally.scan_entries += page.len() as u64;
                }
            } else if dice < 90 {
                let from = conn.rng.next_below(keys);
                let to = conn.rng.next_below(keys);
                let to = if to == from { (to + 1) % keys } else { to };
                let (from, to, amount) = (from * stride, to * stride, 1);
                conn.call(Cmd::Transfer { from, to, amount }, tally)?;
            } else {
                let (lo, hi, limit) = (0, u64::MAX, keys as u32);
                if let Some(CmdOut::Page(page)) = conn.call(Cmd::Scan { lo, hi, limit }, tally)? {
                    let word = |(_, v): &(u64, Value)| v.as_u64().unwrap_or(0) as u128;
                    let sum: u128 = page.iter().map(word).sum();
                    tally.full_scans += 1;
                    tally.scan_entries += page.len() as u64;
                    tally.torn_pages += u64::from(page.len() as u64 != keys || sum != total);
                }
            }
            Ok(true)
        })
    }
}

/// `cache`: 70% `GETB`, 30% `PUTB`, no preload — the cache fills and evicts
/// under the traffic itself.
fn cache_mix(keys: u64) -> impl Fn(usize) -> Step + Sync {
    pipelined(1, keys, |rng: &mut FastRng, sampler: &KeySampler| {
        let k = sampler.sample(rng);
        if rng.next_below(100) < 70 {
            Cmd::GetB(k)
        } else {
            Cmd::PutB(k, Value::U64(rng.next_u64() % INITIAL))
        }
    })
}

// ---------------------------------------------------------------------------
// Servers and figures
// ---------------------------------------------------------------------------

fn server(workers: usize, store: StoreConfig) -> ServerConfig {
    ServerConfig {
        workers,
        store,
        ..Default::default()
    }
}

/// Runs `f` against a fresh in-process server, then drains it.
fn host<T>(cfg: &ServerConfig, f: impl FnOnce(SocketAddr) -> T) -> T {
    let server = Server::start(cfg).expect("start kvstore server");
    let out = f(server.local_addr());
    server.shutdown();
    out
}

/// Sends a loading command until it commits: under a busy host a durable
/// server's epoch advancer can abort a many-key transaction past its retry
/// budget, and `Retry` means nothing was executed.
fn insist<T>(mut load: impl FnMut() -> KvResult<T>) -> T {
    for _ in 0..100 {
        match load() {
            Err(KvError::Server(ErrCode::Retry)) => continue,
            other => return other.expect("preload"),
        }
    }
    panic!("preload: still `Retry` after 100 sends");
}

/// Sets every key of `keys` to [`INITIAL`] over the wire.
fn preload(addr: SocketAddr, keys: impl Iterator<Item = u64>) {
    let mut c = connect(addr);
    let initial = INITIAL.to_le_bytes();
    let pairs: Vec<(u64, &[u8])> = keys.map(|k| (k, &initial[..])).collect();
    for chunk in pairs.chunks(LOAD_CHUNK) {
        insist(|| c.mset_b(chunk));
    }
}

/// The mixed closed-loop run most scenarios are made of.
fn mixed_run(addr: SocketAddr, a: &Sizes) -> Outcome {
    let step = pipelined(1, a.keys, mixed(a.keys));
    drive(addr, a.connections, a.duration, &step)
}

/// One printed figure: `(series, metric, value)`.
type Row = (String, &'static str, f64);

/// The figures of one scenario run: printed as they are produced (a run
/// that dies half-way has still shown what it measured), kept for [`check`].
struct Report {
    scenario: &'static str,
    rows: Vec<Row>,
}

impl Report {
    fn put(&mut self, series: &str, metric: &'static str, value: f64) {
        let value = (value * 1e4).round() / 1e4;
        println!("{},{series},{metric},{value}", self.scenario);
        self.rows.push((series.to_string(), metric, value));
    }

    /// The figures every driven run has: client tallies, latency, and the
    /// server's own account of the same interval.
    fn outcome(&mut self, series: &str, o: &Outcome) {
        let (t, tx) = (&o.tally, &o.stats.tx);
        let (p50, _, p99) = t.hist.percentiles_ns();
        let mut figures = vec![
            ("connections", o.conns as f64),
            ("elapsed_s", o.elapsed.as_secs_f64()),
            ("ok", t.ok as f64),
            ("ops_per_sec", o.per_sec(t.ok)),
            ("retry_aborts", t.retry_aborts as f64),
            ("app_errors", t.app_errors as f64),
            ("shed", t.shed as f64),
            ("p50_ns", p50 as f64),
            ("p99_ns", p99 as f64),
            ("p999_ns", t.hist.p999_ns() as f64),
            ("server_commits", tx.commits as f64),
            ("server_conflict_aborts", tx.conflict_aborts as f64),
            ("server_fast_commits", tx.fast_commits as f64),
            ("server_ro_commits", tx.ro_commits as f64),
            ("server_general_commits", tx.general_commits as f64),
        ];
        if let Some(e) = &o.stats.events {
            figures.push(("epoll_waits", e.epoll_waits as f64));
        }
        if let Some(l) = &o.stats.load {
            figures.push(("server_shed", l.shed_requests as f64));
        }
        if let Some(d) = &o.stats.domain {
            figures.push(("live_payloads", d.live_payloads as f64));
        }
        if let Some(tables) = &o.stats.tables {
            let buckets: u64 = tables.shards.iter().map(|sh| sh.buckets).sum();
            figures.push(("grow_events", tables.grow_events as f64));
            figures.push(("total_buckets", buckets as f64));
        }
        for (metric, value) in figures {
            self.put(series, metric, value);
        }
    }
}

/// What a figure must satisfy for its scenario to pass.
enum Want {
    Above(f64),
    AtLeast(f64),
    AtMost(f64),
    Is(f64),
    /// At most another figure of the same series.
    AtMostFig(&'static str),
}
use Want::*;

/// `(series, metric, what it must satisfy)`.
type Bound = (&'static str, &'static str, Want);

/// Holds every figure of `rows` to its bound; the error names the first
/// figure that is missing or out of bounds.
fn check(rows: &[Row], bounds: &[Bound]) -> Result<(), String> {
    let fig = |series: &str, metric: &str| {
        rows.iter()
            .find(|r| r.0 == series && r.1 == metric)
            .map(|r| r.2)
            .ok_or_else(|| format!("{series} {metric}: figure missing"))
    };
    for (series, metric, want) in bounds {
        let v = fig(series, metric)?;
        let (holds, wanted) = match *want {
            Above(x) => (v > x, format!("> {x}")),
            AtLeast(x) => (v >= x, format!(">= {x}")),
            AtMost(x) => (v <= x, format!("<= {x}")),
            Is(x) => (v == x, format!("= {x}")),
            AtMostFig(other) => {
                let x = fig(series, other)?;
                (v <= x, format!("<= {other} = {x}"))
            }
        };
        if !holds {
            return Err(format!("{series} {metric} = {v}, want {wanted}"));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Scenarios
// ---------------------------------------------------------------------------

/// The sizes the command line sets.
struct Sizes {
    connections: usize,
    workers: usize,
    duration: Duration,
    keys: u64,
    /// `--connect`: the standalone server `external` drives.
    connect: Option<SocketAddr>,
}

/// `(name, run, the bounds its figures must meet)`.
type Scenario = (&'static str, fn(&Sizes, &mut Report), &'static [Bound]);

const SCENARIOS: &[Scenario] = &[
    ("default", run_default, DEFAULT_BOUNDS),
    ("external", run_external, EXTERNAL_BOUNDS),
    ("metrics-ab", run_metrics_ab, METRICS_AB_BOUNDS),
    ("fanout", run_fanout, FANOUT_BOUNDS),
    ("overload", run_overload, OVERLOAD_BOUNDS),
    ("grow", run_grow, GROW_BOUNDS),
    ("scan", run_scan, SCAN_BOUNDS),
    ("cache", run_cache, CACHE_BOUNDS),
];

/// The series of `default`: word traffic and blob traffic at a one-block
/// and a many-block size (a durable blob spills from its payload slot to
/// 256-byte overflow blocks: 128 B takes one, 4 KiB seventeen), each on the
/// transient and the durable (txMontage, live epoch advancer) backend.
const DEFAULT_SERIES: [(&str, Option<usize>, StoreBackend); 6] = [
    ("word-transient", None, StoreBackend::Transient),
    ("word-durable", None, StoreBackend::Durable),
    ("blob128-transient", Some(128), StoreBackend::Transient),
    ("blob4096-transient", Some(4096), StoreBackend::Transient),
    ("blob128-durable", Some(128), StoreBackend::Durable),
    ("blob4096-durable", Some(4096), StoreBackend::Durable),
];

fn run_default(a: &Sizes, out: &mut Report) {
    for (series, vsize, backend) in DEFAULT_SERIES {
        let store = StoreConfig {
            backend,
            ..Default::default()
        };
        let o = host(&server(a.workers, store), |addr| match vsize {
            None => {
                preload(addr, 0..a.keys);
                mixed_run(addr, a)
            }
            Some(vsize) => {
                let payload: Vec<u8> = (0..vsize).map(|i| (i * 131) as u8).collect();
                // 64 pairs of <= 4 KiB values stay well under `MAX_FRAME`.
                let mut c = connect(addr);
                for chunk in (0..a.keys).collect::<Vec<_>>().chunks(64) {
                    let pairs: Vec<_> = chunk.iter().map(|&k| (k, &payload[..])).collect();
                    insist(|| c.mset_b(&pairs));
                }
                let step = pipelined(1, a.keys, blob(payload));
                drive(addr, a.connections, a.duration, &step)
            }
        });
        out.outcome(series, &o);
    }
}

/// Every series completes operations, and the server's event loop shows up
/// in its `STATS`.
const DEFAULT_BOUNDS: &[Bound] = &[
    ("word-transient", "ok", Above(0.0)),
    ("word-transient", "epoll_waits", Above(0.0)),
    ("word-durable", "ok", Above(0.0)),
    ("word-durable", "epoll_waits", Above(0.0)),
    ("blob128-transient", "ok", Above(0.0)),
    ("blob128-transient", "epoll_waits", Above(0.0)),
    ("blob4096-transient", "ok", Above(0.0)),
    ("blob4096-transient", "epoll_waits", Above(0.0)),
    ("blob128-durable", "ok", Above(0.0)),
    ("blob128-durable", "epoll_waits", Above(0.0)),
    ("blob4096-durable", "ok", Above(0.0)),
    ("blob4096-durable", "epoll_waits", Above(0.0)),
];

/// `external`: mixed traffic against a standalone `kvserver`, then transfers
/// from keys that cannot exist — so the server's abort attribution has
/// something to count — and the attribution as `METRICS` reports it.
fn run_external(a: &Sizes, out: &mut Report) {
    let addr = a
        .connect
        .unwrap_or_else(|| die("external drives a standalone kvserver: pass --connect ADDR:PORT"));
    preload(addr, 0..a.keys);
    out.outcome("external", &mixed_run(addr, a));
    let mut c = connect(addr);
    let refused = (0..PROBE_ERRORS)
        .filter(|i| c.transfer(u64::MAX - i, 0, 1).is_err())
        .count();
    out.put("probe", "refused", refused as f64);
    let m = c.metrics().unwrap_or_default();
    let attributed = m.ops.iter().filter(|o| o.hist.total() > 0).count();
    let aborts: u64 = m.ops.iter().flat_map(|o| &o.aborts).sum();
    out.put("metrics", "attributed_ops", attributed as f64);
    out.put("metrics", "aborts", aborts as f64);
}

/// Every missing-key transfer is refused, and the server attributes traffic
/// to at least three opcodes and the refusals to an abort reason.
const EXTERNAL_BOUNDS: &[Bound] = &[
    ("external", "ok", Above(0.0)),
    ("probe", "refused", Is(PROBE_ERRORS as f64)),
    ("metrics", "attributed_ops", AtLeast(3.0)),
    ("metrics", "aborts", Above(0.0)),
];

/// `metrics-ab`: the same mixed run against two otherwise identical servers,
/// telemetry on and off — the overhead guard of the observability layer
/// (three clock reads and a handful of relaxed atomics per request).
fn run_metrics_ab(a: &Sizes, out: &mut Report) {
    let mut rates = [0.0; 2];
    for (i, series) in ["telemetry-on", "telemetry-off"].into_iter().enumerate() {
        let mut cfg = server(a.workers, StoreConfig::default());
        cfg.telemetry.enabled = i == 0;
        let o = host(&cfg, |addr| {
            preload(addr, 0..a.keys);
            mixed_run(addr, a)
        });
        out.outcome(series, &o);
        rates[i] = o.per_sec(o.tally.ok + o.tally.app_errors);
        out.put(series, "answered_per_sec", rates[i]);
    }
    out.put("summary", "on_off_ratio", rates[0] / rates[1].max(1e-9));
}

const METRICS_AB_BOUNDS: &[Bound] = &[
    ("telemetry-on", "answered_per_sec", Above(0.0)),
    ("telemetry-off", "answered_per_sec", Above(0.0)),
    ("summary", "on_off_ratio", AtLeast(0.80)),
];

/// `fanout`: the same pipelined mixed traffic at the same **total
/// concurrency** — [`FANOUT_DEPTH`] × [`FANOUT_CONNS`] requests in flight —
/// over 8 sockets (deep pipelines) and over [`FANOUT_CONNS`] sockets.
/// Holding the total constant is what makes the p99 ratio meaningful:
/// queueing delay is fixed by Little's law at either socket count, so any
/// gap is pure per-socket multiplexing cost — the thing the readiness loop
/// exists to flatten.
fn run_fanout(a: &Sizes, out: &mut Report) {
    let total = FANOUT_DEPTH * FANOUT_CONNS;
    let mut p99 = [0.0; 2];
    for (i, (series, conns)) in [("base", 8), ("fan", FANOUT_CONNS)].into_iter().enumerate() {
        let o = host(&server(a.workers, StoreConfig::default()), |addr| {
            preload(addr, 0..a.keys);
            let step = pipelined(total / conns, a.keys, mixed(a.keys));
            drive(addr, conns, a.duration, &step)
        });
        out.outcome(series, &o);
        p99[i] = o.tally.hist.percentiles_ns().2 as f64;
    }
    out.put("summary", "total_in_flight", total as f64);
    out.put("summary", "p99_ratio", p99[1] / p99[0].max(1.0));
}

const FANOUT_BOUNDS: &[Bound] = &[
    ("fan", "connections", Is(FANOUT_CONNS as f64)),
    ("fan", "ok", Above(0.0)),
    ("fan", "p99_ns", Above(0.0)),
    ("summary", "p99_ratio", AtMost(3.0)),
];

/// `overload`: measure closed-loop capacity, calibrate the true service
/// rate with a pipeline-capped flood (a few closed-loop connections are
/// latency-bound and understate it — "2× that" may saturate nothing), then
/// offer [`OFFERED_MULT`]× the larger of the two, open loop, to a server
/// with tight shed watermarks.
fn run_overload(a: &Sizes, out: &mut Report) {
    let plain = server(a.workers, StoreConfig::default());
    let open = |out: &mut Report, series: &str, cfg: &ServerConfig, rate: f64| {
        let o = host(cfg, |addr| {
            preload(addr, 0..a.keys);
            let step = open_loop(rate, a.connections, a.keys);
            drive(addr, a.connections, a.duration, &step)
        });
        out.outcome(series, &o);
        out.put(series, "offered_per_sec", rate);
        out.put(series, "sent", o.tally.sent as f64);
        out.put(series, "dropped_sends", o.tally.dropped as f64);
        out.put(series, "max_queue_depth", o.tally.max_depth as f64);
        o
    };
    let cap = host(&plain, |addr| {
        preload(addr, 0..a.keys);
        mixed_run(addr, a)
    });
    out.outcome("capacity", &cap);
    let flood = open(out, "flood", &plain, 50_000_000.0);
    let offered = flood.per_sec(flood.tally.ok).max(cap.per_sec(cap.tally.ok)) * OFFERED_MULT;

    // Tighter shed watermarks than the server default: the pipeline bound
    // caps how much backlog a few connections can build, and the point is to
    // exercise the shed path, not to find the largest queue that fits in RAM.
    let mut cfg = plain.clone();
    cfg.overload = OverloadConfig {
        shed_high: 64 << 10,
        shed_low: 16 << 10,
        ..Default::default()
    };
    let o = open(out, "overloaded", &cfg, offered);
    let shed = o.tally.shed + o.stats.load.map_or(0, |l| l.shed_requests);
    out.put("summary", "shed", shed as f64);
}

/// Shedding engages (client- or server-side count), and a shedding server
/// still serves.
const OVERLOAD_BOUNDS: &[Bound] = &[
    ("overloaded", "ops_per_sec", Above(0.0)),
    ("summary", "shed", Above(0.0)),
];

/// `grow`: the same key load and mixed phase against a hash server
/// pre-sized for the final key count and an elastic server booted at
/// [`kvstore::ELASTIC_BOOT_BUCKETS`] buckets per shard.  The load phase
/// records windowed throughput (the elastic server's during-growth dip); the
/// steady phase shows where the grown table settles against the pre-sized
/// baseline.
fn run_grow(a: &Sizes, out: &mut Report) {
    let shards = StoreConfig::default().shards;
    let presized = (a.keys as usize / shards).max(1).next_power_of_two();
    let mut steady_rate = [0.0; 2];
    for (i, (label, tables, buckets_per_shard)) in [
        ("presized", TableKind::Hash, Some(presized)),
        // Elastic shards size themselves; the knob is a config error there.
        ("elastic", TableKind::Elastic, None),
    ]
    .into_iter()
    .enumerate()
    {
        let store = StoreConfig {
            tables,
            buckets_per_shard,
            ..Default::default()
        };
        let (load, steady) = host(&server(a.workers, store), |addr| {
            // The load runs until every range is in, not for a duration.
            let step = load_range(a.keys, a.connections);
            let load = drive(addr, a.connections, Duration::from_secs(3600), &step);
            (load, mixed_run(addr, a))
        });

        // Dip statistics over complete windows (the last one is partial).
        let w = &load.tally.windows;
        let full = if w.len() > 1 {
            &w[..w.len() - 1]
        } else {
            &w[..]
        };
        let scale = 1000.0 / GROW_WINDOW_MS as f64;
        let min_w = full.iter().copied().min().unwrap_or(0) as f64 * scale;
        let mean_w = full.iter().sum::<u64>() as f64 / full.len().max(1) as f64 * scale;
        let series = format!("{label}-load");
        out.outcome(&series, &load);
        out.put(&series, "keys_per_sec", load.per_sec(a.keys));
        out.put(&series, "min_window_keys_per_sec", min_w);
        out.put(&series, "mean_window_keys_per_sec", mean_w);
        let dip = if mean_w > 0.0 { min_w / mean_w } else { 1.0 };
        out.put(&series, "dip_ratio", dip);
        out.outcome(&format!("{label}-steady"), &steady);
        steady_rate[i] = steady.per_sec(steady.tally.ok);
    }
    let ratio = steady_rate[1] / steady_rate[0].max(1e-9);
    out.put("summary", "steady_ratio", ratio);
}

/// The load doubles directories, and the grown table lands near the
/// pre-sized baseline.
const GROW_BOUNDS: &[Bound] = &[
    ("elastic-steady", "grow_events", Above(0.0)),
    ("elastic-load", "dip_ratio", AtMost(1.0)),
    ("summary", "steady_ratio", AtLeast(0.70)),
];

/// `scan`: a range-partitioned (skiplist) server under [`scan_mix`].
fn run_scan(a: &Sizes, out: &mut Report) {
    // A page is one transaction and every returned entry two counted reads
    // in its descriptor, so an atomic full-space page is bounded by the
    // read-set capacity (8192 reads: 4096 entries), not just `MAX_SCAN_LIMIT`.
    if a.keys > 3_500 {
        die("scan: an atomic page is capped by the 4096-entry read set; keep --keys <= 3500");
    }
    let store = StoreConfig {
        tables: TableKind::Skip,
        ..Default::default()
    };
    let stride = u64::MAX / a.keys;
    let o = host(&server(a.workers, store), |addr| {
        preload(addr, (0..a.keys).map(|i| i * stride));
        let step = scan_mix(a.keys, stride);
        drive(addr, a.connections, a.duration, &step)
    });
    out.outcome("skip", &o);
    let t = &o.tally;
    let ranged = o.stats.tables.as_ref().map(|tb| tb.partition) == Some(PartitionScheme::Range);
    out.put("skip", "range_partitioned", u64::from(ranged) as f64);
    out.put("skip", "scans", (t.scans + t.full_scans) as f64);
    out.put("skip", "full_scans", t.full_scans as f64);
    out.put("skip", "scan_entries", t.scan_entries as f64);
    out.put("skip", "torn_pages", t.torn_pages as f64);
}

/// Scans run, commit on the read-only path, and no full page misses a key
/// or drifts from the total under the concurrent transfers.
const SCAN_BOUNDS: &[Bound] = &[
    ("skip", "range_partitioned", Is(1.0)),
    ("skip", "scans", Above(0.0)),
    ("skip", "full_scans", Above(0.0)),
    ("skip", "scan_entries", Above(0.0)),
    ("skip", "server_ro_commits", Above(0.0)),
    ("skip", "torn_pages", Is(0.0)),
];

/// `cache`: second-chance cache tables (a hash map and a FIFO queue composed
/// in one transaction per op) a quarter the size of the key space.
fn run_cache(a: &Sizes, out: &mut Report) {
    let capacity = (a.keys / 4).max(StoreConfig::default().shards as u64);
    let store = StoreConfig {
        tables: TableKind::Cache { capacity },
        ..Default::default()
    };
    let o = host(&server(a.workers, store), |addr| {
        drive(addr, a.connections, a.duration, &cache_mix(a.keys))
    });
    out.outcome("second-chance", &o);
    let tables = o.stats.tables.as_ref().expect("server reports table stats");
    let cache = tables.cache.expect("cache server reports cache tallies");
    let live: u64 = tables.shards.iter().filter_map(|sh| sh.items).sum();
    out.put("second-chance", "capacity", capacity as f64);
    out.put("second-chance", "live", live as f64);
    out.put("second-chance", "hits", cache.hits as f64);
    out.put("second-chance", "misses", cache.misses as f64);
    out.put("second-chance", "evictions", cache.evictions as f64);
}

const CACHE_BOUNDS: &[Bound] = &[
    ("second-chance", "hits", Above(0.0)),
    ("second-chance", "evictions", Above(0.0)),
    ("second-chance", "live", AtMostFig("capacity")),
];

// ---------------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------------

fn die(why: &str) -> ! {
    eprintln!("kvbench: {why}");
    std::process::exit(2);
}

/// What `--list` prints.
fn list() -> String {
    SCENARIOS.iter().map(|s| format!("{}\n", s.0)).collect()
}

fn main() {
    if std::env::args().any(|a| a == "--list") {
        print!("{}", list());
        return;
    }
    // Hundreds of connections means hundreds of descriptors on both ends of
    // the loopback; lift the soft cap before opening any.
    if let Err(e) = kvstore::sys::raise_nofile_limit() {
        eprintln!("warning: could not raise RLIMIT_NOFILE: {e}");
    }
    let name: String = CommonArgs::extra_flag("--scenario", "default".to_string());
    let Some(&(scenario, run, bounds)) = SCENARIOS.iter().find(|s| s.0 == name) else {
        die(&format!(
            "unknown --scenario {name:?}; --list prints the names"
        ));
    };
    let common = CommonArgs::parse();
    let connect: String = CommonArgs::extra_flag("--connect", String::new());
    let sizes = Sizes {
        connections: CommonArgs::extra_flag("--connections", 2),
        workers: CommonArgs::extra_flag("--workers", 4),
        duration: Duration::from_secs_f64(common.seconds),
        keys: common.keys,
        connect: (!connect.is_empty()).then(|| match connect.parse() {
            Ok(addr) => addr,
            Err(_) => die("--connect wants ADDR:PORT"),
        }),
    };
    println!("scenario,series,metric,value");
    let rows = Vec::new();
    let mut report = Report { scenario, rows };
    run(&sizes, &mut report);
    if let Err(why) = check(&report.rows, bounds) {
        eprintln!("kvbench {scenario}: FAILED: {why}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `"series metric value; ..."` as rows.
    fn rows(text: &'static str) -> Vec<Row> {
        let row = |r: &'static str| {
            let f: Vec<&str> = r.split_whitespace().collect();
            (f[0].to_string(), f[1], f[2].parse().unwrap())
        };
        text.split(';').map(row).collect()
    }

    #[test]
    fn list_is_the_table_and_names_are_unique() {
        let listed = list();
        let mut names: Vec<&str> = listed.lines().collect();
        let table = "default external metrics-ab fanout overload grow scan cache";
        assert_eq!(names, table.split(' ').collect::<Vec<_>>());
        assert_eq!(names.len(), SCENARIOS.len());
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), SCENARIOS.len(), "duplicate scenario name");
    }

    /// Every scenario's bounds accept a passing set of figures and reject it
    /// again with any one figure replaced by a violating value — or, `-`,
    /// missing — naming that figure.
    #[test]
    fn every_check_passes_its_baseline_and_fails_each_violation() {
        let series = DEFAULT_SERIES.map(|(s, ..)| format!("{s} ok 9; {s} epoll_waits 5"));
        let default_ok: &'static str = series.join("; ").leak();
        // (scenario, passing figures, violations)
        let cases: [[&'static str; 3]; 8] = [
            [
                "default",
                default_ok,
                "blob4096-durable ok -; blob128-transient ok 0; word-durable epoll_waits 0",
            ],
            [
                "external",
                "external ok 9; probe refused 64; metrics attributed_ops 5; metrics aborts 64",
                "probe refused 63; metrics attributed_ops 2; metrics aborts 0",
            ],
            [
                "metrics-ab",
                "telemetry-on answered_per_sec 95; telemetry-off answered_per_sec 100; \
                 summary on_off_ratio 0.95",
                "summary on_off_ratio 0.7; telemetry-off answered_per_sec 0",
            ],
            [
                "fanout",
                "fan connections 512; fan ok 1000; fan p99_ns 4e6; summary p99_ratio 1.4",
                "summary p99_ratio 3.5; fan connections 8; fan p99_ns 0; fan ok 0",
            ],
            [
                "overload",
                "overloaded ops_per_sec 5e4; summary shed 120",
                "summary shed 0; overloaded ops_per_sec 0; overloaded ops_per_sec -",
            ],
            [
                "grow",
                "elastic-steady grow_events 24; elastic-load dip_ratio 0.6; summary steady_ratio 1",
                "elastic-steady grow_events 0; summary steady_ratio 0.5; elastic-load dip_ratio 2",
            ],
            [
                "scan",
                "skip range_partitioned 1; skip scans 900; skip full_scans 90; skip torn_pages 0; \
                 skip scan_entries 2e5; skip server_ro_commits 990",
                "skip full_scans 0; skip server_ro_commits 0; skip torn_pages 1; skip scans -",
            ],
            [
                "cache",
                "second-chance hits 700; second-chance evictions 40; second-chance live 1024; \
                 second-chance capacity 1024",
                "second-chance live 1025; second-chance evictions 0; second-chance hits 0",
            ],
        ];
        for ([name, baseline, violations], scenario) in cases.into_iter().zip(SCENARIOS) {
            assert_eq!(name, scenario.0, "a case per scenario, in table order");
            assert_eq!(check(&rows(baseline), scenario.2), Ok(()), "{name}");
            for violation in violations.split("; ") {
                let (figure, value) = violation.rsplit_once(' ').unwrap();
                let mut bad = rows(baseline);
                bad.retain(|r| format!("{} {}", r.0, r.1) != figure);
                if value != "-" {
                    bad.extend(rows(violation));
                }
                let err = check(&bad, scenario.2).expect_err(violation);
                assert!(err.contains(figure), "{name}: {violation}: {err:?}");
            }
        }
    }

    #[test]
    fn answers_are_classified_once() {
        let mut t = Tally::default();
        let at = Instant::now();
        assert_eq!(t.answer(Response::Ok(CmdOut::Done), at), Some(CmdOut::Done));
        use ErrCode::{Capacity, Insufficient, Overload, Retry};
        for code in [Overload, Retry, Capacity, Insufficient] {
            assert_eq!(t.answer(Response::Err(code), at), None);
        }
        assert_eq!((t.ok, t.shed, t.retry_aborts, t.app_errors), (1, 1, 2, 1));
        assert_eq!(t.hist.total(), 1, "only committed answers are timed");
        t.windows = vec![2, 3];
        let mut sum = Tally {
            windows: vec![1],
            ..Default::default()
        };
        sum.merge(&t);
        sum.merge(&t);
        assert_eq!((sum.ok, sum.retry_aborts, sum.hist.total()), (2, 4, 2));
        assert_eq!(sum.windows, [5, 6]);
    }
}
