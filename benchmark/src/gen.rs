//! Seeded input generation. Op streams are built in set-up from `--seed`
//! alone, so the same seed gives the same inputs and the measured loop reads
//! them from memory.

/// SplitMix64: small, seedable, and good enough to draw keys from.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// `stream` separates the generators of one run (one per thread or op
    /// kind) so they do not repeat each other.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        r.next_u64();
        r
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipfian ranks over `0..n` with exponent `theta` (Gray et al., "Quickly
/// generating billion-record synthetic databases"); rank 0 is the hottest.
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    pub fn new(n: u64, theta: f64) -> Self {
        let zeta = |m: u64| (1..=m).map(|i| (i as f64).powf(-theta)).sum::<f64>();
        let zetan = zeta(n);
        Self {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta(2) / zetan),
        }
    }

    pub fn draw(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        let uz = u * self.zetan;
        if uz < 1.0 {
            0
        } else if uz < 1.0 + 0.5f64.powf(self.theta) {
            1
        } else {
            ((self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64)
                .min(self.n - 1)
        }
    }
}

/// Hot ranks land on scattered keys, as hot rows do in a real table, instead
/// of on the first few (adjacent in the skiplist).
#[inline]
pub fn scatter(rank: u64, n: u64) -> u64 {
    debug_assert!(n.is_power_of_two());
    rank.wrapping_mul(0x9E37_79B9_7F4A_7C15 | 1) & (n - 1)
}

/// `len` uniform keys in `0..n`.
pub fn uniform_keys(seed: u64, stream: u64, n: u64, len: usize) -> Vec<u32> {
    let mut rng = Rng::new(seed, stream);
    (0..len).map(|_| rng.below(n) as u32).collect()
}

/// `len` zipfian keys in `0..n` (a power of two), hot keys scattered.
pub fn zipf_keys(seed: u64, stream: u64, n: u64, theta: f64, len: usize) -> Vec<u32> {
    let mut rng = Rng::new(seed, stream);
    let z = Zipf::new(n, theta);
    (0..len)
        .map(|_| scatter(z.draw(&mut rng), n) as u32)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let a = uniform_keys(7, 1, 1 << 14, 4096);
        assert_eq!(a, uniform_keys(7, 1, 1 << 14, 4096));
        assert_ne!(a, uniform_keys(8, 1, 1 << 14, 4096));
        assert_ne!(a, uniform_keys(7, 2, 1 << 14, 4096));
        let z = zipf_keys(7, 1, 1 << 14, 0.9, 4096);
        assert_eq!(z, zipf_keys(7, 1, 1 << 14, 0.9, 4096));
        assert_ne!(z, zipf_keys(8, 1, 1 << 14, 0.9, 4096));
        assert!(a.iter().chain(&z).all(|k| *k < 1 << 14));
    }

    #[test]
    fn zipf_is_skewed_and_uniform_is_not() {
        let n = 1u64 << 14;
        let len = 200_000;
        let share_of_hottest = |keys: &[u32]| {
            let mut counts = vec![0u32; n as usize];
            for k in keys {
                counts[*k as usize] += 1;
            }
            counts.sort_unstable_by(|a, b| b.cmp(a));
            counts[..16].iter().sum::<u32>() as f64 / keys.len() as f64
        };
        // theta 0.9 over 2^14 keys: the 16 hottest draw about a fifth.
        let z = share_of_hottest(&zipf_keys(3, 0, n, 0.9, len));
        assert!(z > 0.15 && z < 0.35, "zipf top-16 share {z}");
        let u = share_of_hottest(&uniform_keys(3, 0, n, len));
        assert!(u < 0.01, "uniform top-16 share {u}");
    }

    #[test]
    fn scatter_is_a_permutation() {
        let n = 1u64 << 10;
        let mut seen = vec![false; n as usize];
        for r in 0..n {
            seen[scatter(r, n) as usize] = true;
        }
        assert!(seen.iter().all(|s| *s));
    }
}
