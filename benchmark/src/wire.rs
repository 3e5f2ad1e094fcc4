//! The wire workloads: `wire-point` and `wire-txn`.
//!
//! An in-process `Server` with one worker, and one client thread on one
//! connection that keeps a window of requests in flight, so the worker is
//! busy all the time and batches its wake-ups. One connection is served in
//! order by one worker, so the client can model the store exactly: it applies
//! every request to its model when it sends it and checks every response
//! against what the model said then.

use crate::gen::Rng;
use crate::harness::{Pacer, WindowPlan, WorkerOut};
use crate::stats::Hist;
use crate::sys;
use crate::trace::{Name, Trace};
use kvstore::proto::{self, Request, Response};
use kvstore::{
    Client, Cmd, CmdOut, EventStats, Server, ServerConfig, Store, StoreBackend, StoreConfig,
};
use medley::{ThreadHandle, TxManager};
use obs::LatencyHistogram;
use pmem::{EpochAdvancer, Value};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

const VALUE_BYTES: usize = 64;
/// `wire-point`: 2^16 blob keys, one bucket each.
const POINT_KEYS: u64 = 1 << 16;
/// `wire-txn`: 2^14 word accounts and 2^14 blob keys.
const ACCOUNTS: u64 = 1 << 14;
const BLOBS: u64 = 1 << 14;
const BLOB_BASE: u64 = 1 << 32;
const BALANCE: u64 = 1 << 40;
/// Ops in the pre-generated stream; the loop cycles through it.
const STREAM: usize = 1 << 16;
const SHARDS: usize = 8;
/// Keys per request of the final read-back (an `MGETB` is one atomic
/// snapshot, bounded by the descriptor's 4096 reads).
const READBACK_CHUNK: usize = 512;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// 90% `GetB`, 10% `PutB`, uniform keys.
    Point,
    /// 40% `MGetB` x8, 30% `MSetB` x4, 25% `Transfer`, 5% `Batch` x6.
    Txn,
}

#[derive(Clone, Copy)]
pub struct WireConfig {
    pub name: &'static str,
    pub mix: Mix,
    pub durable: bool,
    /// Requests in flight: the callers this one thread stands for.
    pub window: usize,
    /// Requests in the set-up's warm-up (a count, not a time).
    pub warmup_ops: u64,
}

pub const WIRE_POINT: WireConfig = WireConfig {
    name: "wire-point",
    mix: Mix::Point,
    durable: false,
    window: 32,
    warmup_ops: 60_000,
};
pub const WIRE_TXN: WireConfig = WireConfig {
    name: "wire-txn",
    mix: Mix::Txn,
    durable: true,
    window: 16,
    warmup_ops: 25_000,
};

pub const MIXES: [WireConfig; 2] = [WIRE_POINT, WIRE_TXN];

fn store_config(cfg: &WireConfig) -> StoreConfig {
    let keys = match cfg.mix {
        Mix::Point => POINT_KEYS,
        Mix::Txn => ACCOUNTS + BLOBS,
    };
    StoreConfig {
        shards: SHARDS,
        // Chains of about one node, as in the lib workloads.
        buckets_per_shard: Some(keys as usize / SHARDS),
        backend: if cfg.durable {
            StoreBackend::Durable
        } else {
            StoreBackend::Transient
        },
        // The store builds its own domain (arena backend, count-only NVM
        // model: `Store::new` fixes that); the epoch length is ours to set.
        advancer_period: cfg.durable.then_some(crate::libwl::ADVANCER_PERIOD),
        ..StoreConfig::default()
    }
}

/// The 64 bytes stored under `key` by its `stamp`-th write (0: the preload).
fn blob(key: u64, stamp: u64) -> [u8; VALUE_BYTES] {
    let mut out = [0u8; VALUE_BYTES];
    out[..8].copy_from_slice(&key.to_le_bytes());
    out[8..16].copy_from_slice(&stamp.to_le_bytes());
    let mut fill = Rng::new(key, stamp);
    for chunk in out[16..].chunks_exact_mut(8) {
        chunk.copy_from_slice(&fill.next_u64().to_le_bytes());
    }
    out
}

fn blob_value(key: u64, stamp: u64) -> Value {
    Value::from_bytes(&blob(key, stamp))
}

fn is_blob(v: &Option<Value>, key: u64, stamp: u64) -> bool {
    matches!(v, Some(Value::Bytes(b)) if b[..] == blob(key, stamp))
}

#[derive(Clone, Copy)]
enum TxnOp {
    MGet([u32; 8]),
    MSet([u32; 4]),
    Transfer { from: u32, to: u32, amount: u8 },
    Batch { gets: [u32; 3], puts: [u32; 3] },
}

fn distinct<const N: usize>(rng: &mut Rng, n: u64) -> [u32; N] {
    let mut out = [u32::MAX; N];
    for i in 0..N {
        loop {
            let k = rng.below(n) as u32;
            if !out[..i].contains(&k) {
                out[i] = k;
                break;
            }
        }
    }
    out
}

/// What the response to a request must be, fixed when the request is sent.
enum Expect {
    Blob(u64, u64),
    PrevBlob(u64, u64),
    Balances([u64; 8]),
    Done,
    Transferred(u64, u64),
    /// `(key, stamp)` of three reads, then of the values three writes replace.
    Batch([(u64, u64); 6]),
}

impl Expect {
    fn matches(&self, resp: &Response) -> bool {
        let Response::Ok(out) = resp else {
            return false;
        };
        match (self, out) {
            (Expect::Blob(k, s), CmdOut::ValueB(v)) => is_blob(v, *k, *s),
            (Expect::PrevBlob(k, s), CmdOut::PrevB(v)) => is_blob(v, *k, *s),
            (Expect::Balances(want), CmdOut::ValuesB(got)) => {
                got.len() == want.len()
                    && got
                        .iter()
                        .zip(want)
                        .all(|(g, w)| *g == Some(Value::U64(*w)))
            }
            (Expect::Done, CmdOut::Done) => true,
            (
                Expect::Transferred(f, t),
                CmdOut::Transferred {
                    from_after,
                    to_after,
                },
            ) => f == from_after && t == to_after,
            (Expect::Batch(want), CmdOut::Batch(got)) => {
                got.len() == want.len()
                    && got.iter().zip(want).all(|(g, (k, s))| match g {
                        CmdOut::ValueB(v) | CmdOut::PrevB(v) => is_blob(v, *k, *s),
                        _ => false,
                    })
            }
            _ => false,
        }
    }
}

/// The request stream and the client's model of the store.
pub struct Script {
    mix: Mix,
    point_ops: Vec<u32>,
    txn_ops: Vec<TxnOp>,
    pos: usize,
    /// Per blob key: how many times it was written.
    stamp: Vec<u64>,
    balance: Vec<u64>,
}

impl Script {
    pub fn new(mix: Mix, seed: u64) -> Self {
        let mut rng = Rng::new(seed, 7);
        let (mut point_ops, mut txn_ops) = (Vec::new(), Vec::new());
        match mix {
            Mix::Point => {
                point_ops = (0..STREAM)
                    .map(|_| {
                        let put = rng.below(10) == 0;
                        rng.below(POINT_KEYS) as u32 | (u32::from(put) << 31)
                    })
                    .collect();
            }
            Mix::Txn => {
                txn_ops = (0..STREAM)
                    .map(|_| match rng.below(100) {
                        0..=39 => TxnOp::MGet(distinct(&mut rng, ACCOUNTS)),
                        40..=69 => TxnOp::MSet(distinct(&mut rng, BLOBS)),
                        70..=94 => {
                            let [from, to] = distinct(&mut rng, ACCOUNTS);
                            TxnOp::Transfer {
                                from,
                                to,
                                amount: rng.below(8) as u8 + 1,
                            }
                        }
                        _ => {
                            let keys: [u32; 6] = distinct(&mut rng, BLOBS);
                            TxnOp::Batch {
                                gets: [keys[0], keys[1], keys[2]],
                                puts: [keys[3], keys[4], keys[5]],
                            }
                        }
                    })
                    .collect();
            }
        }
        let blobs = match mix {
            Mix::Point => POINT_KEYS,
            Mix::Txn => BLOBS,
        };
        Self {
            mix,
            point_ops,
            txn_ops,
            pos: 0,
            stamp: vec![0; blobs as usize],
            balance: match mix {
                Mix::Point => Vec::new(),
                Mix::Txn => vec![BALANCE; ACCOUNTS as usize],
            },
        }
    }

    fn blob_key(&self, idx: u32) -> u64 {
        match self.mix {
            Mix::Point => idx as u64,
            Mix::Txn => BLOB_BASE + idx as u64,
        }
    }

    /// Writes blob `idx` once more in the model; returns its key, the stamp
    /// it had and the new value.
    fn write_blob(&mut self, idx: u32) -> (u64, u64, Value) {
        let key = self.blob_key(idx);
        let prev = self.stamp[idx as usize];
        self.stamp[idx as usize] = prev + 1;
        (key, prev, blob_value(key, prev + 1))
    }

    /// The preload, as `MSETB` commands of at most `chunk` pairs.
    fn preload(&self, chunk: usize) -> Vec<Cmd> {
        let mut pairs: Vec<(u64, Value)> = (0..self.balance.len() as u64)
            .map(|k| (k, Value::U64(BALANCE)))
            .collect();
        pairs.extend((0..self.stamp.len() as u32).map(|i| {
            let key = self.blob_key(i);
            (key, blob_value(key, 0))
        }));
        pairs
            .chunks(chunk)
            .map(|c| Cmd::MSetB(c.to_vec()))
            .collect()
    }

    /// The next request, applied to the model, and the response it must get.
    fn next(&mut self) -> (Request, Expect) {
        let pos = self.pos;
        self.pos = (pos + 1) % STREAM;
        let (cmd, expect) = match self.mix {
            Mix::Point => {
                let word = self.point_ops[pos];
                let idx = word & 0x7FFF_FFFF;
                if word >> 31 == 1 {
                    let (key, prev, val) = self.write_blob(idx);
                    (Cmd::PutB(key, val), Expect::PrevBlob(key, prev))
                } else {
                    let key = self.blob_key(idx);
                    (Cmd::GetB(key), Expect::Blob(key, self.stamp[idx as usize]))
                }
            }
            Mix::Txn => match self.txn_ops[pos] {
                TxnOp::MGet(keys) => (
                    Cmd::MGetB(keys.iter().map(|k| *k as u64).collect()),
                    Expect::Balances(keys.map(|k| self.balance[k as usize])),
                ),
                TxnOp::MSet(idxs) => {
                    let pairs = idxs
                        .iter()
                        .map(|i| {
                            let (key, _, val) = self.write_blob(*i);
                            (key, val)
                        })
                        .collect();
                    (Cmd::MSetB(pairs), Expect::Done)
                }
                TxnOp::Transfer { from, to, amount } => {
                    let amount = amount as u64;
                    self.balance[from as usize] -= amount;
                    self.balance[to as usize] += amount;
                    (
                        Cmd::Transfer {
                            from: from as u64,
                            to: to as u64,
                            amount,
                        },
                        Expect::Transferred(self.balance[from as usize], self.balance[to as usize]),
                    )
                }
                TxnOp::Batch { gets, puts } => {
                    let mut cmds = Vec::with_capacity(6);
                    let mut want = [(0, 0); 6];
                    for (i, idx) in gets.iter().enumerate() {
                        let key = self.blob_key(*idx);
                        cmds.push(Cmd::GetB(key));
                        want[i] = (key, self.stamp[*idx as usize]);
                    }
                    for (i, idx) in puts.iter().enumerate() {
                        let (key, prev, val) = self.write_blob(*idx);
                        cmds.push(Cmd::PutB(key, val));
                        want[3 + i] = (key, prev);
                    }
                    (Cmd::Batch(cmds), Expect::Batch(want))
                }
            },
        };
        (Request::Cmd(cmd), expect)
    }

    /// Every key with the value the model says it holds.
    fn contents(&self) -> Vec<(u64, Value)> {
        let mut all: Vec<(u64, Value)> = self
            .balance
            .iter()
            .enumerate()
            .map(|(k, b)| (k as u64, Value::U64(*b)))
            .collect();
        all.extend(self.stamp.iter().enumerate().map(|(i, s)| {
            let key = self.blob_key(i as u32);
            (key, blob_value(key, *s))
        }));
        all
    }
}

fn preload_store(store: &Store, h: &mut ThreadHandle, script: &Script) {
    for cmd in script.preload(256) {
        assert_eq!(store.exec(h, &cmd), Ok(CmdOut::Done), "preload");
    }
}

/// Server-side counters at one instant; two of them give a phase's deltas.
#[derive(Clone)]
pub struct ServerCounters {
    pub events: EventStats,
    /// Worker 0's nanoseconds per phase, `kvstore::PHASE_LABELS` order.
    pub phases: Vec<u64>,
    pub getb: LatencyHistogram,
    pub shed: u64,
}

struct InFlight {
    sent: Instant,
    sent_ns: u64,
    op: u32,
    expect: Expect,
}

pub struct WireEnv {
    cfg: WireConfig,
    // Dropped in this order: the connection closes before the server joins
    // its worker.
    client: Client,
    server: Server,
    script: Script,
    ring: VecDeque<InFlight>,
    failed: u64,
}

pub fn setup(cfg: WireConfig, seed: u64) -> WireEnv {
    // The server's threads inherit CPU 0 from the thread that starts them, and
    // the client, this thread, stays there too. On one CPU a response wakes
    // the client without an inter-processor interrupt; across the two vCPUs
    // of a shared host that wake-up costs tens of microseconds to
    // milliseconds, and the same build then ran anywhere between 20k and
    // 230k requests a second (half the same-CPU rate at best).
    sys::pin_to_cpu(0);
    let server = Server::start(&ServerConfig {
        workers: 1,
        store: store_config(&cfg),
        ..ServerConfig::default()
    })
    .expect("server starts on a free loopback port");
    let script = Script::new(cfg.mix, seed);
    {
        let store = server.store();
        let mut h = store.manager().register();
        preload_store(store, &mut h, &script);
    }
    let client = Client::connect(server.local_addr()).expect("loopback connect");
    let mut env = WireEnv {
        cfg,
        client,
        server,
        script,
        ring: VecDeque::with_capacity(cfg.window),
        failed: 0,
    };
    let out = env.run_phase(
        WindowPlan::unbounded(),
        cfg.warmup_ops,
        &mut crate::trace::NoTrace,
    );
    assert_eq!(out.failed, 0, "{}: warm-up request failed", cfg.name);
    env
}

impl WireEnv {
    fn send_one<T: Trace>(&mut self, tr: &mut T) {
        let (req, expect) = self.script.next();
        tr.next_op();
        let sent = Instant::now();
        let sent_ns = tr.now_ns();
        tr.span(Name::ClientSend, || self.client.send(&req))
            .expect("request fits a frame");
        self.ring.push_back(InFlight {
            sent,
            sent_ns,
            op: tr.op_id(),
            expect,
        });
    }

    fn recv_one<T: Trace>(&mut self, tr: &mut T, hist: &mut Hist) {
        let resp = tr
            .span(Name::ClientRecv, || self.client.recv())
            .expect("server answers every request");
        let f = self.ring.pop_front().expect("a response for a request");
        if f.expect.matches(&resp) {
            // A failed op has no latency sample.
            hist.record(f.sent.elapsed().as_nanos() as u64);
            tr.flat(Name::Request, f.op, f.sent_ns, tr.now_ns());
        } else {
            self.failed += 1;
        }
    }

    fn drain<T: Trace>(&mut self, tr: &mut T, hist: &mut Hist) -> u64 {
        let n = self.ring.len() as u64;
        while !self.ring.is_empty() {
            self.recv_one(tr, hist);
        }
        n
    }

    /// The closed loop: `window` requests in flight, refilled half a window
    /// at a time so the client pays one `write` per half window; before a
    /// durable server's `Sync` (twice a second) the pipeline drains.
    /// Ends when the plan's last window closes or after `max_ops`.
    pub fn run_phase<T: Trace>(&mut self, plan: WindowPlan, max_ops: u64, tr: &mut T) -> WorkerOut {
        let window = self.cfg.window;
        let half = window / 2;
        let failed0 = self.failed;
        let mut hist = Hist::default();
        let mut pacer = Pacer::start(plan, true);
        let cpu0 = sys::thread_cpu_ns();
        let mut ops = 0u64;
        for _ in 0..window {
            self.send_one(tr);
        }
        loop {
            for _ in 0..half {
                self.recv_one(tr, &mut hist);
            }
            ops += half as u64;
            let out_of_ops = ops + self.ring.len() as u64 >= max_ops;
            if pacer.due(Instant::now()) || out_of_ops {
                let sync = self.cfg.durable && (pacer.sync_due() || out_of_ops);
                if sync || out_of_ops {
                    ops += self.drain(tr, &mut hist);
                }
                if sync {
                    self.client.sync().expect("SYNC");
                }
                if pacer.close(ops, &mut hist) || out_of_ops {
                    break;
                }
            }
            while self.ring.len() < window {
                self.send_one(tr);
            }
        }
        // Nothing stays in flight; these complete after the last window.
        ops += self.drain(tr, &mut hist);
        WorkerOut {
            wins: pacer.wins,
            hist: pacer.hist,
            attempted: ops,
            failed: self.failed - failed0,
            thread_cpu_ns: sys::thread_cpu_ns() - cpu0,
        }
    }

    /// Reads the server's counters; nothing may be in flight.
    pub fn counters(&self) -> ServerCounters {
        let metrics = self
            .server
            .telemetry()
            .expect("telemetry is on by default")
            .metrics_reply();
        let getb_op = proto::request_opcode(&Request::Cmd(Cmd::GetB(0)));
        ServerCounters {
            events: self.server.event_stats(),
            phases: metrics.worker_phases.first().cloned().unwrap_or_default(),
            getb: metrics
                .ops
                .iter()
                .find(|o| o.opcode == getb_op)
                .map_or_else(LatencyHistogram::new, |o| o.hist.clone()),
            shed: self.server.load_stats().shed_requests,
        }
    }

    /// Depth-1 round trips (`Client::call`): `n` `GetB` hits and `n`
    /// `Contains` misses, the cheapest command there is.
    pub fn depth1_round_trips(&mut self, n: usize) -> (Hist, Hist) {
        let mut rng = Rng::new(0xD1, 1);
        let keys = self.script.stamp.len() as u32;
        let (mut getb, mut miss) = (Hist::default(), Hist::default());
        let mut client = Client::connect(self.server.local_addr()).expect("loopback connect");
        for _ in 0..n {
            let key = self.script.blob_key(rng.below(keys as u64) as u32);
            let t = Instant::now();
            let r = client.call(&Request::Cmd(Cmd::GetB(key)));
            getb.record(t.elapsed().as_nanos() as u64);
            assert!(matches!(r, Ok(Response::Ok(CmdOut::ValueB(Some(_))))));
            let t = Instant::now();
            let r = client.call(&Request::Cmd(Cmd::Contains(u64::MAX - key)));
            miss.record(t.elapsed().as_nanos() as u64);
            assert!(matches!(r, Ok(Response::Ok(CmdOut::Present(false)))));
        }
        (getb, miss)
    }

    /// Output checks after the run; returns the number that failed and, for
    /// the durable server, how long `Store::recover` took. The store must
    /// hold what the acknowledged requests left (read back over the wire in
    /// atomic pages, so the accounts also conserve), and after a final `Sync`
    /// and a shutdown `recover()` must return the same.
    pub fn verify(mut self) -> (u64, Option<std::time::Duration>) {
        let want = self.script.contents();
        let mut bad = 0u64;
        let mut total = 0u64;
        for page in want.chunks(READBACK_CHUNK) {
            let keys: Vec<u64> = page.iter().map(|(k, _)| *k).collect();
            let got = self.client.mget_b(&keys).expect("read-back");
            for ((_, w), g) in page.iter().zip(&got) {
                bad += u64::from(g.as_ref() != Some(w));
                if let (Mix::Txn, Some(Value::U64(b))) = (self.cfg.mix, g) {
                    total += b;
                }
            }
        }
        if self.cfg.mix == Mix::Txn {
            bad += u64::from(total != ACCOUNTS * BALANCE);
        }
        if !self.cfg.durable {
            return (bad, None);
        }
        self.client.sync().expect("final SYNC");
        let WireEnv { client, server, .. } = self;
        drop(client);
        let store = server.shutdown();
        let t = Instant::now();
        let rec = store.recover();
        let took = t.elapsed();
        bad += u64::from(rec.len() != want.len());
        bad += want.iter().filter(|(k, w)| rec.get(k) != Some(w)).count() as u64;
        (bad, Some(took))
    }
}

/// Replays the workload's request stream (same seed, so the same requests)
/// through `take_frame`/`decode_request` -> `Store::exec` ->
/// `encode_response` on this thread, with a span around each step: the
/// codec's and the executor's cost for the same inputs, without the event
/// loop, the syscalls and the loopback. Returns how many responses were not
/// what the model expected.
pub fn inline_replay<T: Trace>(cfg: WireConfig, seed: u64, n: u64, tr: &mut T) -> u64 {
    let mgr = TxManager::with_max_threads(16);
    let (store, advancer): (Store, Option<EpochAdvancer>) =
        Store::new(Arc::clone(&mgr), &store_config(&cfg)).expect("valid store config");
    let mut h = mgr.register();
    let mut script = Script::new(cfg.mix, seed);
    preload_store(&store, &mut h, &script);
    let (mut wire, mut reply) = (Vec::new(), Vec::new());
    let mut failed = 0u64;
    for id in 0..n as u32 {
        let (req, expect) = script.next();
        wire.clear();
        reply.clear();
        proto::encode_request(&mut wire, id, &req);
        tr.next_op();

        tr.enter(Name::Decode);
        let mut pos = 0;
        let frame = proto::take_frame(&wire, &mut pos)
            .expect("own frame")
            .expect("whole frame");
        let (rid, decoded) = proto::decode_request(frame).expect("own request");
        tr.exit();

        tr.enter(Name::Exec);
        let Request::Cmd(cmd) = &decoded else {
            unreachable!("the script sends commands only")
        };
        let resp = match store.exec(&mut h, cmd) {
            Ok(out) => Response::Ok(out),
            Err(code) => Response::Err(code),
        };
        tr.exit();

        tr.enter(Name::Encode);
        proto::encode_response(&mut reply, rid, proto::request_opcode(&decoded), &resp);
        tr.exit();

        failed += u64::from(!expect.matches(&resp));
    }
    // The advancer stops before the store and its domain go.
    drop(advancer);
    failed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_requests() {
        for mix in [Mix::Point, Mix::Txn] {
            let (mut a, mut b, mut c) = (
                Script::new(mix, 9),
                Script::new(mix, 9),
                Script::new(mix, 10),
            );
            let mut differs = false;
            for _ in 0..2000 {
                let (ra, rb, rc) = (a.next().0, b.next().0, c.next().0);
                assert_eq!(ra, rb);
                differs |= ra != rc;
            }
            assert!(differs);
        }
    }

    #[test]
    fn the_model_predicts_the_store() {
        // The inline path checks every response against the model.
        for cfg in [WIRE_POINT, WIRE_TXN] {
            let mut rec = crate::trace::Recorder::new(Instant::now(), 0, 0);
            assert_eq!(inline_replay(cfg, 4, 3000, &mut rec), 0, "{}", cfg.name);
            let mut sum = crate::trace::TraceSummary::default();
            sum.add(rec);
            assert_eq!(sum.calls(Name::Exec), 3000);
            assert!(sum.layer_self_ns(crate::trace::Layer::Codec) > 0);
            assert!(sum.layer_self_ns(crate::trace::Layer::Exec) > 0);
        }
    }

    #[test]
    fn txn_mix_has_the_stated_shares() {
        let s = Script::new(Mix::Txn, 1);
        let share = |f: fn(&TxnOp) -> bool| {
            s.txn_ops.iter().filter(|o| f(o)).count() as f64 / STREAM as f64
        };
        assert!((share(|o| matches!(o, TxnOp::MGet(_))) - 0.40).abs() < 0.02);
        assert!((share(|o| matches!(o, TxnOp::MSet(_))) - 0.30).abs() < 0.02);
        assert!((share(|o| matches!(o, TxnOp::Transfer { .. })) - 0.25).abs() < 0.02);
        assert!((share(|o| matches!(o, TxnOp::Batch { .. })) - 0.05).abs() < 0.01);
        let p = Script::new(Mix::Point, 1);
        let puts = p.point_ops.iter().filter(|w| **w >> 31 == 1).count() as f64 / STREAM as f64;
        assert!((puts - 0.10).abs() < 0.01);
    }
}
