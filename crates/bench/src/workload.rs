//! Key-distribution generators (uniform and zipfian) shared by `kvbench` and
//! the integration tests, and the hot-word transfer workload behind
//! `tests/tests/stress.rs::zipfian_hot_word_contention_stress`.

use medley::util::FastRng;
use medley::{AbortReason, CasWord, Ctx, TxManager, TxResult, TxStatsSnapshot};

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::Duration;

// ---------------------------------------------------------------------------
// Key distributions
// ---------------------------------------------------------------------------

/// The generalized harmonic number `H_{n,theta}` (the zipfian normalizer).
pub fn zeta(n: u64, theta: f64) -> f64 {
    (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
}

/// A zipfian key generator over `[0, n)` (rank 0 hottest), using the
/// Gray et al. "Quickly generating billion-record synthetic databases"
/// construction also used by YCSB.
///
/// `theta` in `(0, 1)` controls the skew; the YCSB default `0.99` makes the
/// hottest of 2^16 keys absorb roughly 9% of all draws.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    /// Creates a generator for `n` keys with skew `theta`.
    ///
    /// # Panics
    /// Panics unless `n > 0` and `0 < theta < 1` (use
    /// [`KeySampler::Uniform`] for the unskewed case).
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "zipf needs a nonempty key space");
        assert!(
            theta > 0.0 && theta < 1.0,
            "theta must be in (0, 1), got {theta}"
        );
        let zetan = zeta(n, theta);
        let zeta2 = zeta(2.min(n), theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Self {
            n,
            theta,
            alpha,
            zetan,
            eta,
        }
    }

    /// The size of the key space.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// The skew parameter.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// The probability of drawing rank `k` (0-based; rank 0 is hottest).
    pub fn rank_probability(&self, k: u64) -> f64 {
        1.0 / ((k + 1) as f64).powf(self.theta) / self.zetan
    }

    /// Draws one key in `[0, n)`.
    pub fn sample(&self, rng: &mut FastRng) -> u64 {
        // 53 uniform mantissa bits -> u in [0, 1).
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1.min(self.n - 1);
        }
        let k = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        k.min(self.n - 1)
    }
}

/// A key-distribution choice, materializable into a [`KeySampler`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDist {
    /// Uniform over the key space.
    Uniform,
    /// Zipfian with the given `theta` (rank 0 hottest).
    Zipfian(f64),
}

impl KeyDist {
    /// Builds the sampler for a key space of `n` keys.
    pub fn sampler(self, n: u64) -> KeySampler {
        match self {
            KeyDist::Uniform => KeySampler::Uniform(n),
            KeyDist::Zipfian(theta) => KeySampler::Zipf(Zipf::new(n, theta)),
        }
    }
}

/// A materialized key generator (cheap to sample per draw).
#[derive(Debug, Clone)]
pub enum KeySampler {
    /// Uniform over `[0, n)`.
    Uniform(u64),
    /// Zipfian (see [`Zipf`]).
    Zipf(Zipf),
}

impl KeySampler {
    /// Draws one key.
    #[inline]
    pub fn sample(&self, rng: &mut FastRng) -> u64 {
        match self {
            KeySampler::Uniform(n) => rng.next_below(*n),
            KeySampler::Zipf(z) => z.sample(rng),
        }
    }
}

// ---------------------------------------------------------------------------
// Hot-word transfer
// ---------------------------------------------------------------------------

/// Parameters of [`run_hot_transfer`].
#[derive(Debug, Clone)]
pub struct ThroughputConfig {
    /// Worker thread count.
    pub threads: usize,
    /// Wall-clock measurement duration.
    pub duration: Duration,
    /// Key distribution of the workload's picks.
    pub dist: KeyDist,
}

/// What one [`run_hot_transfer`] run did.
#[derive(Debug, Clone)]
pub struct ThroughputResult {
    /// Committed transactions during the measured window.
    pub committed: u64,
    /// Transaction counters accumulated by the run (fresh manager per run,
    /// handles dropped before sampling, so the counts are exact).
    pub stats: TxStatsSnapshot,
}

/// Runs `body` on `threads` threads for `duration`, barrier-released, and
/// returns the sum of what they return.  `body(thread_idx, stop)` must
/// return its thread-local committed count.
fn run_threads<F>(threads: usize, duration: Duration, body: F) -> u64
where
    F: Fn(usize, &AtomicBool) -> u64 + Sync,
{
    let stop = AtomicBool::new(false);
    let committed = AtomicU64::new(0);
    let barrier = Barrier::new(threads + 1);
    std::thread::scope(|scope| {
        for t in 0..threads {
            let body = &body;
            let stop = &stop;
            let committed = &committed;
            let barrier = &barrier;
            scope.spawn(move || {
                barrier.wait();
                let local = body(t, stop);
                committed.fetch_add(local, Ordering::Relaxed);
            });
        }
        barrier.wait();
        std::thread::sleep(duration);
        stop.store(true, Ordering::Relaxed);
    });
    committed.load(Ordering::Relaxed)
}

/// Hot-word transfer contention: `accounts` words (default 8 — small enough
/// that the zipfian head lands most transfers on one or two words), each
/// transaction moving one unit between two sampled accounts on the general
/// descriptor path, with one read-only full audit every eighth transaction.
///
/// This is the adversarial workload for the commit pipeline: install
/// conflicts, helping storms, and validation failures all concentrate on the
/// hottest word.  The total balance is asserted invariant at the end.
pub fn run_hot_transfer(cfg: &ThroughputConfig, accounts: u64) -> ThroughputResult {
    const INITIAL: u64 = 1 << 20;
    assert!(accounts >= 2);
    let mgr = TxManager::with_max_threads(cfg.threads + 1);
    let words: Vec<CasWord> = (0..accounts).map(|_| CasWord::new(INITIAL)).collect();
    let sampler = cfg.dist.sampler(accounts);

    let committed = run_threads(cfg.threads, cfg.duration, |t, stop| {
        let mut h = mgr.register();
        let mut rng = FastRng::new(0xACC0 + t as u64);
        let sampler = sampler.clone();
        let mut local = 0u64;
        let mut i = 0u64;
        while !stop.load(Ordering::Relaxed) {
            i += 1;
            if i.is_multiple_of(8) {
                // Read-only audit across every account: validates the whole
                // read set under fire.
                let total: TxResult<u64> = h.run(|tx| {
                    let mut sum = 0;
                    for w in words.iter() {
                        let (v, c) = tx.nbtc_load_counted(w);
                        tx.add_read_with_counter(w, v, c);
                        sum += v;
                    }
                    Ok(sum)
                });
                if let Ok(sum) = total {
                    assert_eq!(sum, accounts * INITIAL, "audit saw a torn state");
                    local += 1;
                }
                continue;
            }
            let from = sampler.sample(&mut rng) as usize;
            let mut to = sampler.sample(&mut rng) as usize;
            if to == from {
                to = (to + 1) % accounts as usize;
            }
            let res: TxResult<()> = h.run(|tx| {
                let a = tx.nbtc_load(&words[from]);
                let b = tx.nbtc_load(&words[to]);
                if a == 0 {
                    return Err(tx.abort(AbortReason::Explicit));
                }
                if !tx.nbtc_cas(&words[from], a, a - 1, true, true) {
                    return Err(tx.abort(AbortReason::Conflict));
                }
                if !tx.nbtc_cas(&words[to], b, b + 1, true, true) {
                    return Err(tx.abort(AbortReason::Conflict));
                }
                Ok(())
            });
            if res.is_ok() {
                local += 1;
            }
        }
        local
    });

    let total: u64 = words.iter().map(|w| w.try_load_value().unwrap()).sum();
    assert_eq!(total, accounts * INITIAL, "transfers must conserve balance");
    ThroughputResult {
        committed,
        stats: mgr.stats_snapshot(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_samples_stay_in_bounds() {
        let z = Zipf::new(1000, 0.99);
        let mut rng = FastRng::new(7);
        for _ in 0..20_000 {
            assert!(z.sample(&mut rng) < 1000);
        }
    }

    #[test]
    fn zipf_head_matches_theory() {
        // The empirical frequency of rank 0 must track 1/zeta(n, theta).
        let n = 1 << 10;
        let z = Zipf::new(n, 0.99);
        let expected = z.rank_probability(0);
        let mut rng = FastRng::new(42);
        let samples = 200_000;
        let hits = (0..samples).filter(|_| z.sample(&mut rng) == 0).count();
        let observed = hits as f64 / samples as f64;
        assert!(
            (observed - expected).abs() < 0.25 * expected,
            "rank-0 frequency {observed:.4} vs expected {expected:.4}"
        );
    }

    #[test]
    fn uniform_sampler_is_flat() {
        let s = KeyDist::Uniform.sampler(8);
        let mut rng = FastRng::new(3);
        let mut counts = [0u64; 8];
        for _ in 0..80_000 {
            counts[s.sample(&mut rng) as usize] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "uniform bucket count {c}");
        }
    }

    #[test]
    fn hot_transfer_smoke() {
        let cfg = ThroughputConfig {
            threads: 2,
            duration: Duration::from_millis(40),
            dist: KeyDist::Zipfian(0.99),
        };
        let r = run_hot_transfer(&cfg, 8);
        assert!(r.committed > 0, "contended transfers must commit: {r:?}");
        assert!(r.stats.commits >= r.committed);
    }
}
