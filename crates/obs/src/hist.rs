//! Log-bucketed latency histogram.
//!
//! The server's metrics registry and the load generators share this one
//! implementation — a server-side histogram shipped over the wire as raw
//! bucket counts reconstructs on the client as exactly this type, which is
//! what makes client-observed vs. server-observed quantile comparisons
//! meaningful.

use std::time::Duration;

/// Number of buckets in a [`LatencyHistogram`] (covers 1 ns to ~2^63 ns).
pub const BUCKETS: usize = 64;

/// A log-bucketed latency histogram: bucket `i` counts samples whose
/// nanosecond value has its highest set bit at position `i` (i.e. samples in
/// `[2^i, 2^(i+1))`).  Recording is O(1) with no allocation, so it can sit
/// on a load generator's per-request path; percentiles are reconstructed
/// from the bucket counts with sub-bucket linear interpolation, which keeps
/// the error well under the factor-of-two bucket width.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: [u64; BUCKETS],
    total: u64,
    max_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: [0; BUCKETS],
            total: 0,
            max_ns: 0,
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, latency: Duration) {
        self.record_ns(latency.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Records one sample given directly in nanoseconds.
    #[inline]
    pub fn record_ns(&mut self, ns: u64) {
        let bucket = 63 - (ns | 1).leading_zeros() as usize;
        self.counts[bucket] += 1;
        self.total += 1;
        self.max_ns = self.max_ns.max(ns);
    }

    /// Merges another histogram into this one (per-thread histograms are
    /// merged after a run).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// The raw bucket counts — the wire/exposition representation.
    pub fn counts(&self) -> &[u64; BUCKETS] {
        &self.counts
    }

    /// Reconstructs a histogram from raw bucket counts and the recorded
    /// maximum (the inverse of [`counts`](Self::counts) +
    /// [`max_ns`](Self::max_ns); used when a histogram arrives over the
    /// wire).  The total is recomputed from the counts.
    pub fn from_parts(counts: [u64; BUCKETS], max_ns: u64) -> Self {
        let total = counts.iter().sum();
        Self {
            counts,
            total,
            max_ns,
        }
    }

    /// Number of recorded samples.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Largest recorded sample in nanoseconds.
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// The approximate `q`-quantile (`0.0..=1.0`) in nanoseconds, linearly
    /// interpolated inside the containing bucket.  Returns 0 on an empty
    /// histogram.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                let lo = 1u64 << i;
                let width = lo; // bucket spans [2^i, 2^(i+1))
                let into = (rank - seen) as f64 / c as f64;
                let est = lo as f64 + into * width as f64;
                return (est as u64).min(self.max_ns.max(lo));
            }
            seen += c;
        }
        self.max_ns
    }

    /// `(p50, p90, p99)` in nanoseconds.
    pub fn percentiles_ns(&self) -> (u64, u64, u64) {
        (
            self.quantile_ns(0.50),
            self.quantile_ns(0.90),
            self.quantile_ns(0.99),
        )
    }

    /// The p99.9 in nanoseconds — the tail the overload harness watches,
    /// since saturation shows up there long before it reaches the median.
    pub fn p999_ns(&self) -> u64 {
        self.quantile_ns(0.999)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_track_known_distributions() {
        let mut h = LatencyHistogram::new();
        for ns in 1..=1000u64 {
            h.record(Duration::from_nanos(ns));
        }
        assert_eq!(h.total(), 1000);
        let (p50, p90, p99) = h.percentiles_ns();
        // Log buckets are coarse: allow a factor-of-two envelope.
        assert!((250..=1000).contains(&p50), "p50 {p50}");
        assert!((450..=1024).contains(&p90), "p90 {p90}");
        assert!((700..=1024).contains(&p99), "p99 {p99}");
        assert!(p50 <= p90 && p90 <= p99);
    }

    #[test]
    fn merge_equals_combined_recording() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut c = LatencyHistogram::new();
        for i in 0..500u64 {
            let d = Duration::from_nanos(100 + i * 7);
            if i % 2 == 0 {
                a.record(d);
            } else {
                b.record(d);
            }
            c.record(d);
        }
        a.merge(&b);
        assert_eq!(a.total(), c.total());
        assert_eq!(a.percentiles_ns(), c.percentiles_ns());
        assert_eq!(a.max_ns(), c.max_ns());
    }

    #[test]
    fn merge_is_associative() {
        // Property: merging per-thread (or per-worker) histograms must not
        // depend on merge order — ((a+b)+c) == (a+(b+c)) bucket for bucket.
        // Exercised over pseudo-random sample sets spanning many buckets.
        let mut seed = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _case in 0..50 {
            let mut parts = [
                LatencyHistogram::new(),
                LatencyHistogram::new(),
                LatencyHistogram::new(),
            ];
            for part in parts.iter_mut() {
                let n = next() % 200;
                for _ in 0..n {
                    // Spread across the whole bucket range.
                    part.record_ns(next() >> (next() % 56));
                }
            }
            let [a, b, c] = parts;

            let mut left = a.clone();
            left.merge(&b);
            left.merge(&c);

            let mut bc = b.clone();
            bc.merge(&c);
            let mut right = a.clone();
            right.merge(&bc);

            assert_eq!(left.counts(), right.counts());
            assert_eq!(left.total(), right.total());
            assert_eq!(left.max_ns(), right.max_ns());
            assert_eq!(left.percentiles_ns(), right.percentiles_ns());
        }
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.percentiles_ns(), (0, 0, 0));
        assert_eq!(h.p999_ns(), 0);
        assert_eq!(h.total(), 0);
    }

    #[test]
    fn p999_sits_in_the_tail() {
        let mut h = LatencyHistogram::new();
        // 0.2% of samples are 100µs stragglers: p99.9 must see the tail.
        for _ in 0..9980 {
            h.record(Duration::from_nanos(100));
        }
        for _ in 0..20 {
            h.record(Duration::from_micros(100));
        }
        let p999 = h.p999_ns();
        assert!(p999 >= 50_000, "p99.9 {p999} must reach the straggler");
        assert!(h.percentiles_ns().0 < 1000, "p50 stays fast");
    }

    #[test]
    fn parts_roundtrip_reconstructs_the_histogram() {
        let mut h = LatencyHistogram::new();
        for ns in [3u64, 900, 17_000, 250_000, 1 << 33] {
            h.record_ns(ns);
        }
        let back = LatencyHistogram::from_parts(*h.counts(), h.max_ns());
        assert_eq!(back.counts(), h.counts());
        assert_eq!(back.total(), h.total());
        assert_eq!(back.max_ns(), h.max_ns());
        assert_eq!(back.percentiles_ns(), h.percentiles_ns());
    }
}
