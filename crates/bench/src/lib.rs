//! # bench — the paper's evaluation (Sec. 6), and the kvstore scenarios
//!
//! The figure binaries in this crate regenerate the paper's figures:
//!
//! | Binary  | Paper figure | What it measures |
//! |---------|--------------|------------------|
//! | `fig7`  | Fig. 7 a–c   | transactional hash-table throughput vs. threads (Medley, txMontage, OneFile, POneFile) |
//! | `fig8`  | Fig. 8 a–c   | transactional skiplist throughput vs. threads (adds TDSL and LFTT) |
//! | `fig9`  | Fig. 9       | TPC-C (newOrder + payment, 1:1) throughput vs. threads |
//! | `fig10` | Fig. 10 a–c  | per-transaction latency: instrumentation off/on, DRAM vs. simulated NVM vs. full persistence |
//!
//! Each binary prints CSV rows (`figure,system,ratio,threads,value`) so the
//! series can be plotted directly.  Thread counts, run time per point, key
//! space and preload size are configurable from the command line; defaults
//! are scaled down to finish quickly in CI containers (the paper uses 80
//! hyperthreads, a 1 M key space, and 30 s runs).
//!
//! `kvbench` is the service-level counterpart: named scenarios over
//! loopback TCP against `kvstore` servers, each asserting its own invariant
//! (`kvbench --list`).  Committed performance numbers come from neither:
//! they are `benchmark/`'s (see `BENCHMARK.json`).

use medley::util::FastRng;
use medley::{TxError, TxManager};
use nbds::TxMap;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub mod systems;
pub mod workload;

/// One operation of a composed microbenchmark transaction.
#[derive(Debug, Clone, Copy)]
pub enum MicroOp {
    /// Lookup.
    Get(u64),
    /// Insert (with the key doubling as the value).
    Insert(u64),
    /// Remove.
    Remove(u64),
}

/// A system under test for the microbenchmark: executes a short *static*
/// transaction composed of 1–10 operations (exactly the workload of
/// Figs. 7–8).
pub trait MicroSystem: Send + Sync + 'static {
    /// Human-readable name used in the CSV output.
    fn name(&self) -> &'static str;
    /// Per-thread session state.
    fn make_session(&self) -> Box<dyn MicroSession + '_>;
}

/// Per-thread handle of a [`MicroSystem`].
pub trait MicroSession {
    /// Executes one transaction; returns `true` if it committed.
    fn run_tx(&mut self, ops: &[MicroOp]) -> bool;
}

/// Workload parameters for the microbenchmark.
#[derive(Debug, Clone)]
pub struct MicroConfig {
    /// get : insert : remove ratio (e.g. `(0,1,1)`, `(2,1,1)`, `(18,1,1)`).
    pub ratio: (u32, u32, u32),
    /// Size of the key space (paper: 1 M).
    pub key_space: u64,
    /// Number of keys preloaded (paper: 0.5 M).
    pub preload: u64,
    /// Maximum number of operations composed per transaction (paper: 10).
    pub max_ops_per_tx: u64,
    /// Wall-clock duration of each measurement.
    pub duration: Duration,
}

impl Default for MicroConfig {
    fn default() -> Self {
        Self {
            ratio: (0, 1, 1),
            key_space: 1 << 17,
            preload: 1 << 16,
            max_ops_per_tx: 10,
            duration: Duration::from_millis(800),
        }
    }
}

impl MicroConfig {
    /// Generates one random transaction under this configuration.
    pub fn random_tx(&self, rng: &mut FastRng) -> Vec<MicroOp> {
        let n = 1 + rng.next_below(self.max_ops_per_tx);
        let (g, i, r) = self.ratio;
        let total = (g + i + r) as u64;
        (0..n)
            .map(|_| {
                let k = rng.next_below(self.key_space);
                let dice = rng.next_below(total);
                if dice < g as u64 {
                    MicroOp::Get(k)
                } else if dice < (g + i) as u64 {
                    MicroOp::Insert(k)
                } else {
                    MicroOp::Remove(k)
                }
            })
            .collect()
    }
}

/// Runs the microbenchmark for one system at one thread count and returns the
/// throughput in committed transactions per second.
pub fn run_micro(system: &dyn MicroSystem, cfg: &MicroConfig, threads: usize) -> f64 {
    // Preload from a single session.
    {
        let mut s = system.make_session();
        let mut rng = FastRng::new(0xC0FFEE);
        let mut loaded = 0;
        while loaded < cfg.preload {
            let k = rng.next_below(cfg.key_space);
            if s.run_tx(&[MicroOp::Insert(k)]) {
                loaded += 1;
            }
        }
    }
    let stop = Arc::new(AtomicBool::new(false));
    let committed = Arc::new(AtomicU64::new(0));
    std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for t in 0..threads {
            let stop = Arc::clone(&stop);
            let committed = Arc::clone(&committed);
            let cfg = cfg.clone();
            joins.push(scope.spawn(move || {
                let mut session = system.make_session();
                let mut rng = FastRng::new(t as u64 + 1);
                let mut local = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let ops = cfg.random_tx(&mut rng);
                    if session.run_tx(&ops) {
                        local += 1;
                    }
                }
                committed.fetch_add(local, Ordering::Relaxed);
            }));
        }
        std::thread::sleep(cfg.duration);
        stop.store(true, Ordering::Relaxed);
        for j in joins {
            let _ = j.join();
        }
    });
    committed.load(Ordering::Relaxed) as f64 / cfg.duration.as_secs_f64()
}

/// Runs the microbenchmark and returns the average latency per *committed*
/// transaction in nanoseconds (used by Fig. 10).
pub fn run_micro_latency(system: &dyn MicroSystem, cfg: &MicroConfig, threads: usize) -> f64 {
    let start = Instant::now();
    let tput = run_micro(system, cfg, threads);
    let _ = start;
    if tput == 0.0 {
        f64::INFINITY
    } else {
        threads as f64 * 1e9 / tput
    }
}

/// A Medley-composable map driven by a shared `TxManager`, adapted to the
/// microbenchmark interface.  Also used for txMontage (via `Durable`).
pub struct MedleyMicro<M> {
    name: &'static str,
    mgr: Arc<TxManager>,
    map: Arc<M>,
}

impl<M: TxMap<u64> + 'static> MedleyMicro<M> {
    /// Creates the adapter.
    pub fn new(name: &'static str, mgr: Arc<TxManager>, map: Arc<M>) -> Self {
        Self { name, mgr, map }
    }
}

struct MedleyMicroSession<'a, M> {
    handle: medley::ThreadHandle,
    map: &'a M,
}

impl<'a, M: TxMap<u64>> MicroSession for MedleyMicroSession<'a, M> {
    fn run_tx(&mut self, ops: &[MicroOp]) -> bool {
        let map = self.map;
        let res: Result<(), TxError> = self.handle.run(|t| {
            for op in ops {
                match *op {
                    MicroOp::Get(k) => {
                        map.get(t, k);
                    }
                    MicroOp::Insert(k) => {
                        map.insert(t, k, k);
                    }
                    MicroOp::Remove(k) => {
                        map.remove(t, k);
                    }
                }
            }
            Ok(())
        });
        res.is_ok()
    }
}

impl<M: TxMap<u64> + 'static> MicroSystem for MedleyMicro<M> {
    fn name(&self) -> &'static str {
        self.name
    }
    fn make_session(&self) -> Box<dyn MicroSession + '_> {
        Box::new(MedleyMicroSession {
            handle: self.mgr.register(),
            map: &*self.map,
        })
    }
}

/// A Medley map running each operation as a standalone (non-transactional)
/// operation — the "TxOff" configuration of Fig. 10.
pub struct MedleyTxOff<M> {
    name: &'static str,
    mgr: Arc<TxManager>,
    map: Arc<M>,
}

impl<M: TxMap<u64> + 'static> MedleyTxOff<M> {
    /// Creates the adapter.
    pub fn new(name: &'static str, mgr: Arc<TxManager>, map: Arc<M>) -> Self {
        Self { name, mgr, map }
    }
}

struct TxOffSession<'a, M> {
    handle: medley::ThreadHandle,
    map: &'a M,
}

impl<'a, M: TxMap<u64>> MicroSession for TxOffSession<'a, M> {
    fn run_tx(&mut self, ops: &[MicroOp]) -> bool {
        // Standalone context: each operation monomorphizes down to the
        // uninstrumented nonblocking algorithm (the "TxOff" series).
        let mut cx = self.handle.nontx();
        for op in ops {
            match *op {
                MicroOp::Get(k) => {
                    self.map.get(&mut cx, k);
                }
                MicroOp::Insert(k) => {
                    self.map.insert(&mut cx, k, k);
                }
                MicroOp::Remove(k) => {
                    self.map.remove(&mut cx, k);
                }
            }
        }
        true
    }
}

impl<M: TxMap<u64> + 'static> MicroSystem for MedleyTxOff<M> {
    fn name(&self) -> &'static str {
        self.name
    }
    fn make_session(&self) -> Box<dyn MicroSession + '_> {
        Box::new(TxOffSession {
            handle: self.mgr.register(),
            map: &*self.map,
        })
    }
}

/// Prints one CSV row of a figure series.
pub fn emit(figure: &str, system: &str, ratio: (u32, u32, u32), threads: usize, value: f64) {
    println!(
        "{figure},{system},{}:{}:{},{threads},{value:.0}",
        ratio.0, ratio.1, ratio.2
    );
}

/// Parses `--threads 1,2,4 --seconds 0.5 --keys 131072 --preload 65536` style
/// arguments shared by the figure binaries.
pub struct CommonArgs {
    /// Thread counts to sweep.
    pub threads: Vec<usize>,
    /// Seconds per measurement point.
    pub seconds: f64,
    /// Key-space size.
    pub keys: u64,
    /// Preloaded keys.
    pub preload: u64,
}

/// Looks up `--flag value` (or `--flag=value`) in `args`, falling back to
/// `default` only when the flag is absent.  A present-but-unparsable value
/// and a flag that is the last argument are errors: silently falling back
/// would e.g. turn a CI smoke run with a mistyped `--warehouses` into a
/// full-scale TPC-C load.  Flags the caller never asks for are ignored, so
/// binaries can layer their own on the shared ones.
fn flag<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    let eq_prefix = format!("{name}=");
    let raw = args.iter().enumerate().find_map(|(i, a)| {
        if let Some(v) = a.strip_prefix(&eq_prefix) {
            Some(Some(v))
        } else {
            (a == name).then(|| args.get(i + 1).map(String::as_str))
        }
    });
    match raw {
        None => Ok(default),
        Some(None) => Err(format!("{name} requires a value")),
        Some(Some(v)) => v
            .parse()
            .map_err(|_| format!("invalid value {v:?} for {name}")),
    }
}

impl CommonArgs {
    /// Parses the process arguments; an unparsable value is a hard error.
    pub fn parse() -> Self {
        let args: Vec<String> = std::env::args().collect();
        Self::parse_from(&args).unwrap_or_else(|e| panic!("{e}"))
    }

    fn parse_from(args: &[String]) -> Result<Self, String> {
        let threads = flag(args, "--threads", "1,2,4".to_string())?
            .split(',')
            .map(|t| {
                t.parse()
                    .map_err(|_| format!("invalid value {t:?} in --threads"))
            })
            .collect::<Result<Vec<usize>, _>>()?;
        Ok(Self {
            threads,
            seconds: flag(args, "--seconds", 0.8)?,
            keys: flag(args, "--keys", 1 << 17)?,
            preload: flag(args, "--preload", 1 << 16)?,
        })
    }

    /// Reads one extra `--flag value` (or `--flag=value`) process argument
    /// the shared parser does not know about, with the same strictness.
    /// Works for any `FromStr` value type (`u64` scales, `f64` skew
    /// parameters).
    pub fn extra_flag<T: std::str::FromStr>(name: &str, default: T) -> T {
        let args: Vec<String> = std::env::args().collect();
        flag(&args, name, default).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds a [`MicroConfig`] with the given operation ratio.
    pub fn micro_config(&self, ratio: (u32, u32, u32)) -> MicroConfig {
        MicroConfig {
            ratio,
            key_space: self.keys,
            preload: self.preload,
            max_ops_per_tx: 10,
            duration: Duration::from_secs_f64(self.seconds),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_tx_respects_bounds() {
        let cfg = MicroConfig::default();
        let mut rng = FastRng::new(1);
        for _ in 0..100 {
            let tx = cfg.random_tx(&mut rng);
            assert!(!tx.is_empty() && tx.len() <= 10);
        }
    }

    #[test]
    fn read_only_ratio_generates_only_gets() {
        let cfg = MicroConfig {
            ratio: (1, 0, 0),
            ..Default::default()
        };
        let mut rng = FastRng::new(2);
        for _ in 0..50 {
            for op in cfg.random_tx(&mut rng) {
                assert!(matches!(op, MicroOp::Get(_)));
            }
        }
    }

    fn args(list: &[&str]) -> Vec<String> {
        std::iter::once("bin")
            .chain(list.iter().copied())
            .map(String::from)
            .collect()
    }

    #[test]
    fn flags_parse_strictly() {
        let a = CommonArgs::parse_from(&args(&["--seconds=0.1", "--threads", "1,4", "--other"]))
            .expect("valid arguments");
        assert_eq!((a.seconds, a.threads.as_slice()), (0.1, &[1, 4][..]));
        assert_eq!((a.keys, a.preload), (1 << 17, 1 << 16), "absent = default");
        for (bad, why) in [
            (
                &["--seconds", "0.05x"][..],
                "invalid value \"0.05x\" for --seconds",
            ),
            (
                &["--threads", "1,x"][..],
                "invalid value \"x\" in --threads",
            ),
            (
                &["--keys", "4096", "--seconds"][..],
                "--seconds requires a value",
            ),
        ] {
            let err = CommonArgs::parse_from(&args(bad)).err();
            assert_eq!(err.as_deref(), Some(why), "{bad:?}");
        }
    }

    #[test]
    fn micro_harness_runs_medley_end_to_end() {
        let mgr = TxManager::with_max_threads(16);
        let map = Arc::new(nbds::MichaelHashMap::<u64>::with_buckets(1 << 10));
        let sys = MedleyMicro::new("Medley-hash", mgr, map);
        let cfg = MicroConfig {
            key_space: 1 << 10,
            preload: 1 << 8,
            duration: Duration::from_millis(50),
            ..Default::default()
        };
        let tput = run_micro(&sys, &cfg, 1);
        assert!(tput > 0.0, "harness must commit transactions");
    }
}
