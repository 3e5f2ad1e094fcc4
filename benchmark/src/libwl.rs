//! The in-process workloads: `lib-read`, `lib-txn`, `lib-durable`.
//!
//! All three run one transaction shape over a hash map and a skiplist that
//! share a `TxManager`; they differ in the shape (4 reads, or a transfer of
//! 2 reads + 2 replaces), the key distribution and whether the maps are the
//! transient `nbds` ones or their `txmontage` wrappers.

use crate::gen;
use crate::harness::{Measured, Pacer, StopGuard, WindowPlan, WorkerOut};
use crate::stats::Hist;
use crate::sys;
use crate::trace::{Name, NoTrace, Recorder, Trace, TraceSummary};
use medley::{ThreadHandle, TxManager, TxStatsSnapshot};
use nbds::{MichaelHashMap, SkipList, TxMap};
use pmem::{EpochAdvancer, NvmCostModel, NvmSnapshot, PersistenceDomain};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use txmontage::{DurableHashMap, DurableSkipList};

/// Keys per structure: with one node per bucket both structures fit L2, so
/// the loop is instructions, not DRAM.
pub const KEYS: u64 = 1 << 14;
/// Ops in one thread's pre-generated stream; the loop cycles through it.
const STREAM: usize = 1 << 16;
/// Every account starts here; a pair (hash[k], skip[k]) always sums to twice
/// this, whatever transfers committed.
const BALANCE: u64 = 1 << 40;
/// Both durable maps share one payload store, which is keyed by key alone.
const DURABLE_SKIP_OFFSET: u64 = 1 << 32;
/// The fig9/fig10 epoch length.
pub const ADVANCER_PERIOD: Duration = Duration::from_millis(10);

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// 4 `get`s, 2 per structure, uniform keys, all hits.
    Read,
    /// hash[k] and skip[k] read and replaced, zipf 0.9 keys.
    Transfer,
}

#[derive(Clone, Copy)]
pub struct LibConfig {
    pub name: &'static str,
    pub shape: Shape,
    pub threads: usize,
    /// Transactions per thread in the set-up's warm-up (a count, not a time).
    pub warmup_ops: u64,
    /// One transaction in this many is timed, so that the clock reads do not
    /// perturb the loop; the same read tells the worker when a window is over.
    pub sample_every: u64,
}

pub const LIB_READ: LibConfig = LibConfig {
    name: "lib-read",
    shape: Shape::Read,
    threads: 2,
    warmup_ops: 80_000,
    sample_every: 32,
};
pub const LIB_TXN: LibConfig = LibConfig {
    name: "lib-txn",
    shape: Shape::Transfer,
    threads: 2,
    warmup_ops: 640,
    sample_every: 4,
};
pub const LIB_DURABLE: LibConfig = LibConfig {
    name: "lib-durable",
    shape: Shape::Transfer,
    // One worker: the epoch advancer is the second runnable thread.
    threads: 1,
    warmup_ops: 640,
    sample_every: 4,
};

fn hash_value(k: u64) -> u64 {
    k * 3 + 1
}

fn skip_value(k: u64) -> u64 {
    k * 5 + 2
}

struct Durability {
    domain: Arc<PersistenceDomain>,
    /// Dropped (stopped and joined) before the domain.
    _advancer: EpochAdvancer,
}

/// A built and preloaded workload: tables, op streams, and for the durable
/// one the persistence domain with its advancer.
pub struct LibEnv<H, S> {
    cfg: LibConfig,
    mgr: Arc<TxManager>,
    hash: H,
    skip: S,
    skip_offset: u64,
    streams: Vec<Vec<u32>>,
    durability: Option<Durability>,
}

pub type TransientEnv = LibEnv<MichaelHashMap<u64>, SkipList<u64>>;
pub type DurableEnv = LibEnv<DurableHashMap<u64>, DurableSkipList<u64>>;

fn streams(cfg: &LibConfig, seed: u64) -> Vec<Vec<u32>> {
    (0..cfg.threads as u64)
        .map(|t| match cfg.shape {
            Shape::Read => gen::uniform_keys(seed, t, KEYS, STREAM * 4),
            Shape::Transfer => {
                // Bit 31: direction; bits 28..31: amount - 1.
                let mut extra = gen::Rng::new(seed, 100 + t);
                gen::zipf_keys(seed, t, KEYS, 0.9, STREAM)
                    .into_iter()
                    .map(|k| k | ((extra.below(16) as u32) << 28))
                    .collect()
            }
        })
        .collect()
}

fn preload<H: TxMap<u64>, S: TxMap<u64>>(env: &LibEnv<H, S>) {
    let mut h = env.mgr.register();
    let cx = &mut h.nontx();
    for k in 0..KEYS {
        let (hv, sv) = match env.cfg.shape {
            Shape::Read => (hash_value(k), skip_value(k)),
            Shape::Transfer => (BALANCE, BALANCE),
        };
        assert!(env.hash.insert(cx, k, hv), "fresh key");
        assert!(env.skip.insert(cx, k + env.skip_offset, sv), "fresh key");
    }
}

pub fn setup_transient(cfg: LibConfig, seed: u64) -> TransientEnv {
    let env = LibEnv {
        cfg,
        mgr: TxManager::new(),
        // One bucket per key: chains of about one node.
        hash: MichaelHashMap::with_buckets(KEYS as usize),
        skip: SkipList::new(),
        skip_offset: 0,
        streams: streams(&cfg, seed),
        durability: None,
    };
    preload(&env);
    warm_up(&env);
    env
}

pub fn setup_durable(cfg: LibConfig, seed: u64) -> DurableEnv {
    // The one worker runs on CPU 0; the advancer inherits CPU 1 from here.
    sys::pin_to_cpu(1);
    let mgr = TxManager::new();
    // Arena backend (the default), Optane-like flush and fence cost.
    let domain = PersistenceDomain::new(Arc::clone(&mgr), NvmCostModel::OPTANE_LIKE);
    let env = LibEnv {
        cfg,
        hash: DurableHashMap::hash_map(KEYS as usize, Arc::clone(&domain)),
        skip: DurableSkipList::skip_list(Arc::clone(&domain)),
        skip_offset: DURABLE_SKIP_OFFSET,
        streams: streams(&cfg, seed),
        durability: Some(Durability {
            _advancer: EpochAdvancer::spawn(Arc::clone(&domain), ADVANCER_PERIOD),
            domain,
        }),
        mgr,
    };
    preload(&env);
    warm_up(&env);
    env
}

fn warm_up<H: TxMap<u64>, S: TxMap<u64>>(env: &LibEnv<H, S>) {
    let tracers = (0..env.cfg.threads).map(|_| NoTrace).collect();
    let out = run_phase(env, WindowPlan::unbounded(), env.cfg.warmup_ops, tracers);
    assert_eq!(
        out.measured.failed, 0,
        "{}: warm-up op failed",
        env.cfg.name
    );
}

/// Counter deltas over one measured phase.
pub struct LibCounters {
    pub tx: TxStatsSnapshot,
    pub nvm: NvmSnapshot,
    pub epoch_lag_max: u64,
    pub audits: u64,
    pub torn_audits: u64,
}

/// What one worker counted besides its ops.
#[derive(Default)]
struct Tallies {
    audits: u64,
    torn_audits: u64,
    epoch_lag_max: u64,
}

pub struct LibPhase<T> {
    pub measured: Measured,
    pub counters: LibCounters,
    pub tracers: Vec<T>,
}

struct Worker<'a, H, S, T> {
    env: &'a LibEnv<H, S>,
    h: ThreadHandle,
    stream: &'a [u32],
    pos: usize,
    tr: T,
    failed: u64,
    audits: u64,
    torn: u64,
}

impl<H: TxMap<u64>, S: TxMap<u64>, T: Trace> Worker<'_, H, S, T> {
    #[inline]
    fn one_op(&mut self) {
        match self.env.cfg.shape {
            Shape::Read => self.read(),
            Shape::Transfer => self.transfer(),
        }
    }

    #[inline]
    fn read(&mut self) {
        let keys = &self.stream[self.pos..self.pos + 4];
        self.pos = (self.pos + 4) % self.stream.len();
        let (k0, k1, k2, k3) = (
            keys[0] as u64,
            keys[1] as u64,
            keys[2] as u64,
            keys[3] as u64,
        );
        let (hash, skip, off, tr) = (
            &self.env.hash,
            &self.env.skip,
            self.env.skip_offset,
            &mut self.tr,
        );
        tr.next_op();
        tr.enter(Name::Txn);
        let got = self.h.run(|t| {
            let a = tr.span(Name::HashGet, || hash.get(t, k0));
            let b = tr.span(Name::HashGet, || hash.get(t, k1));
            let c = tr.span(Name::SkipGet, || skip.get(t, k2 + off));
            let d = tr.span(Name::SkipGet, || skip.get(t, k3 + off));
            Ok((a, b, c, d))
        });
        tr.exit();
        let want = (
            Some(hash_value(k0)),
            Some(hash_value(k1)),
            Some(skip_value(k2)),
            Some(skip_value(k3)),
        );
        if got != Ok(want) {
            self.failed += 1;
        }
    }

    #[inline]
    fn transfer(&mut self) {
        let word = self.stream[self.pos];
        self.pos = (self.pos + 1) % self.stream.len();
        let k = (word & 0x0FFF_FFFF) as u64;
        let amount = ((word >> 28) & 7) as u64 + 1;
        let to_skip = word >> 31 == 1;
        let (hash, skip, tr) = (&self.env.hash, &self.env.skip, &mut self.tr);
        let sk = k + self.env.skip_offset;
        let (get_h, get_s, put_h, put_s) = if self.env.durability.is_some() {
            (
                Name::DurableHashGet,
                Name::DurableSkipGet,
                Name::DurableHashPut,
                Name::DurableSkipPut,
            )
        } else {
            (Name::HashGet, Name::SkipGet, Name::HashPut, Name::SkipPut)
        };
        tr.next_op();
        tr.enter(Name::Txn);
        let moved = self.h.run(|t| {
            let x = tr.span(get_h, || hash.get(t, k));
            let y = tr.span(get_s, || skip.get(t, sk));
            let (Some(x), Some(y)) = (x, y) else {
                return Ok(false);
            };
            let (nx, ny) = if to_skip {
                (x - amount, y + amount)
            } else {
                (x + amount, y - amount)
            };
            let px = tr.span(put_h, || hash.put(t, k, nx));
            let py = tr.span(put_s, || skip.put(t, sk, ny));
            Ok(px == Some(x) && py == Some(y) && x + y == 2 * BALANCE)
        });
        tr.exit();
        if moved != Ok(true) {
            self.failed += 1;
        }
    }

    /// Four pairs read in one read-only transaction; every committed pair
    /// must sum to `2 * BALANCE`. A pair that does not was read torn: the
    /// "Fix first" bug of ROADMAP.md, here as a count.
    fn audit(&mut self) {
        let (hash, skip, off) = (&self.env.hash, &self.env.skip, self.env.skip_offset);
        let base = self.pos;
        let keys: [u64; 4] = std::array::from_fn(|i| {
            (self.stream[(base + i) % self.stream.len()] & 0x0FFF_FFFF) as u64
        });
        let sums = self.h.run(|t| {
            let mut sums = [0u64; 4];
            for (sum, k) in sums.iter_mut().zip(keys) {
                *sum = hash.get(t, k).unwrap_or(0) + skip.get(t, k + off).unwrap_or(0);
            }
            Ok(sums)
        });
        self.audits += 1;
        if sums.map_or(true, |s| s.iter().any(|s| *s != 2 * BALANCE)) {
            self.torn += 1;
        }
    }
}

/// Runs one worker per tracer until the plan's last window closes or each
/// has done `max_ops`, whichever comes first.
fn run_phase<H: TxMap<u64>, S: TxMap<u64>, T: Trace + Send>(
    env: &LibEnv<H, S>,
    plan: WindowPlan,
    max_ops: u64,
    tracers: Vec<T>,
) -> LibPhase<T> {
    assert_eq!(tracers.len(), env.cfg.threads);
    let tx0 = env.mgr.stats_snapshot();
    let nvm0 = env.nvm_counts();
    let stop = AtomicBool::new(false);
    let outs: Vec<(WorkerOut, T, Tallies)> = std::thread::scope(|s| {
        let handles: Vec<_> = tracers
            .into_iter()
            .enumerate()
            .map(|(thread, tr)| {
                let stop = &stop;
                s.spawn(move || work(env, thread, tr, plan, max_ops, stop))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("lib worker panicked"))
            .collect()
    });
    // Every worker's handle is dropped by now, which flushes its tallies.
    let tx1 = env.mgr.stats_snapshot();
    let nvm1 = env.nvm_counts();
    let mut workers = Vec::new();
    let mut tracers = Vec::new();
    let mut all = Tallies::default();
    for (out, tr, t) in outs {
        workers.push(out);
        tracers.push(tr);
        all.audits += t.audits;
        all.torn_audits += t.torn_audits;
        all.epoch_lag_max = all.epoch_lag_max.max(t.epoch_lag_max);
    }
    LibPhase {
        measured: Measured::merge(workers),
        counters: LibCounters {
            tx: tx_delta(tx1, tx0),
            nvm: nvm1.delta_since(nvm0),
            audits: all.audits,
            torn_audits: all.torn_audits,
            epoch_lag_max: all.epoch_lag_max,
        },
        tracers,
    }
}

pub fn tx_delta(a: TxStatsSnapshot, b: TxStatsSnapshot) -> TxStatsSnapshot {
    TxStatsSnapshot {
        commits: a.commits - b.commits,
        aborts: a.aborts - b.aborts,
        helps: a.helps - b.helps,
        fast_commits: a.fast_commits - b.fast_commits,
        ro_commits: a.ro_commits - b.ro_commits,
        general_commits: a.general_commits - b.general_commits,
        cm_waits: a.cm_waits - b.cm_waits,
        ..a
    }
}

fn work<H: TxMap<u64>, S: TxMap<u64>, T: Trace>(
    env: &LibEnv<H, S>,
    thread: usize,
    tr: T,
    plan: WindowPlan,
    max_ops: u64,
    stop: &AtomicBool,
) -> (WorkerOut, T, Tallies) {
    let _guard = StopGuard(stop);
    sys::pin_to_cpu(thread);
    let mut w = Worker {
        env,
        h: env.mgr.register(),
        stream: &env.streams[thread],
        pos: 0,
        tr,
        failed: 0,
        audits: 0,
        torn: 0,
    };
    // One audit per timed batch, and only where a concurrent writer can tear it.
    let audit = T::ON && env.cfg.shape == Shape::Transfer && env.cfg.threads > 1;
    let mut hist = Hist::default();
    let mut pacer = Pacer::start(plan, false);
    let cpu0 = sys::thread_cpu_ns();
    let mut ops = 0u64;
    let mut lag_max = 0u64;
    loop {
        for _ in 1..env.cfg.sample_every {
            w.one_op();
        }
        let t = Instant::now();
        w.one_op();
        let now = Instant::now();
        hist.record((now - t).as_nanos() as u64);
        ops += env.cfg.sample_every;
        if audit {
            w.audit();
        }
        let out_of_ops = ops >= max_ops;
        if pacer.due(now) || out_of_ops {
            if let (0, Some(d), true) = (thread, &env.durability, pacer.sync_due() || out_of_ops) {
                let st = d.domain.stats();
                lag_max = lag_max.max(st.current_epoch - st.persisted_epoch);
                w.tr.span(Name::Sync, || d.domain.sync());
            }
            if pacer.close(ops, &mut hist) || out_of_ops {
                break;
            }
        }
        if stop.load(Ordering::Relaxed) {
            break;
        }
    }
    w.h.flush_stats();
    let out = WorkerOut {
        wins: pacer.wins,
        hist: pacer.hist,
        attempted: ops,
        failed: w.failed,
        thread_cpu_ns: sys::thread_cpu_ns() - cpu0,
    };
    let tallies = Tallies {
        audits: w.audits,
        torn_audits: w.torn,
        epoch_lag_max: lag_max,
    };
    (out, w.tr, tallies)
}

impl<H: TxMap<u64>, S: TxMap<u64>> LibEnv<H, S> {
    fn nvm_counts(&self) -> NvmSnapshot {
        self.durability
            .as_ref()
            .map_or_else(NvmSnapshot::default, |d| {
                d.domain.nvm().stats().snapshot_counts()
            })
    }

    pub fn domain(&self) -> Option<&Arc<PersistenceDomain>> {
        self.durability.as_ref().map(|d| &d.domain)
    }

    /// The measured windows, untraced.
    pub fn measure(&self, plan: WindowPlan) -> LibPhase<NoTrace> {
        let tracers = (0..self.cfg.threads).map(|_| NoTrace).collect();
        run_phase(self, plan, u64::MAX, tracers)
    }

    /// The same loop with a span around every call into a layer.
    pub fn measure_traced(
        &self,
        plan: WindowPlan,
        clock_ns: u64,
    ) -> (LibPhase<Recorder>, TraceSummary) {
        let tracers = (0..self.cfg.threads as u32)
            .map(|t| Recorder::new(plan.t0, clock_ns, t))
            .collect();
        let mut phase = run_phase(self, plan, u64::MAX, tracers);
        let mut summary = TraceSummary::default();
        for rec in phase.tracers.drain(..) {
            summary.add(rec);
        }
        (phase, summary)
    }

    /// Output checks after the run; returns the number that failed. The live
    /// contents must be what the committed transactions left, and for the
    /// durable workload what `recover()` returns after a final `sync()`.
    pub fn verify(&self) -> u64 {
        let mut h = self.mgr.register();
        let cx = &mut h.nontx();
        let mut bad = 0u64;
        let recovered = self.domain().map(|d| {
            d.sync();
            d.recover_u64()
        });
        if let Some(rec) = &recovered {
            bad += u64::from(rec.len() as u64 != 2 * KEYS);
        }
        for k in 0..KEYS {
            let sk = k + self.skip_offset;
            let (x, y) = (self.hash.get(cx, k), self.skip.get(cx, sk));
            let ok = match (self.cfg.shape, x, y) {
                (Shape::Read, Some(x), Some(y)) => x == hash_value(k) && y == skip_value(k),
                (Shape::Transfer, Some(x), Some(y)) => x + y == 2 * BALANCE,
                _ => false,
            };
            let durable_ok = recovered
                .as_ref()
                .is_none_or(|rec| rec.get(&k).copied() == x && rec.get(&sk).copied() == y);
            bad += u64::from(!(ok && durable_ok));
        }
        bad
    }
}
