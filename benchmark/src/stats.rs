//! Medians, quartiles and the latency histogram every workload records into.

/// Median of `values` (mean of the middle pair for an even count).
///
/// # Panics
/// Panics on an empty slice: every caller has at least one window.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A run's value from its windows: the mean of the windows that rank between
/// the median and the 95th percentile on the metric's better side.
///
/// On a shared host interference only ever makes a window worse, in bursts
/// that last from milliseconds to seconds, so the better half of the windows
/// is what the system does when the host leaves it alone. The plain median
/// moved by 30% and more between runs of one build when a burst covered half
/// a run; this moved by a tenth or less. The best twentieth is left out: a
/// window can look better than any real one when a thread closes it late.
///
/// # Panics
/// Panics on an empty slice: every caller has at least one window.
pub fn good_half_mean(values: &[f64], higher_is_better: bool) -> f64 {
    assert!(!values.is_empty(), "no windows");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if !higher_is_better {
        v.reverse();
    }
    // Worst first, best last.
    let n = v.len();
    let from = n / 2;
    let to = (n * 19 / 20).max(from + 1);
    v[from..to].iter().sum::<f64>() / (to - from) as f64
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// gives them (the "exclusive" method), so `agree` reports the spread the
/// driver computes.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return (v[0], v[0]);
    }
    let at = |i: usize| {
        // Python: j = i*(n+1) // 4 clamped to [1, n-1]; delta = i*(n+1) - j*4.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Distance between the quartiles as a share of the median.
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// The highest of `wanted` and the coarser percentiles below it that still
/// has at least ten samples beyond it; `None` when not even the median has.
pub fn supported_percentile(samples: u64, wanted: f64) -> Option<f64> {
    // (percentile, samples it needs for ten of them to lie beyond it)
    [
        (0.9999, 100_000),
        (0.999, 10_000),
        (0.99, 1_000),
        (0.9, 100),
        (0.5, 20),
    ]
    .into_iter()
    .filter(|(p, _)| *p <= wanted)
    .find(|(_, needs)| samples >= *needs)
    .map(|(p, _)| p)
}

const SUB_BITS: u32 = 5;
const SUB: usize = 1 << SUB_BITS;
const HIST_BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

/// Latency histogram in nanoseconds with 32 linear sub-buckets per power of
/// two (bucket width at most 1/32 of the value). Constant memory, so a
/// faster run does not show as a larger resident set, and recording is two
/// shifts and an add. `obs::LatencyHistogram` has one bucket per power of two,
/// which is too coarse for a median that must repeat within a few percent.
#[derive(Clone)]
pub struct Hist {
    counts: Box<[u64; HIST_BUCKETS]>,
    total: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Self {
            counts: Box::new([0; HIST_BUCKETS]),
            total: 0,
        }
    }
}

impl Hist {
    #[inline]
    fn index(ns: u64) -> usize {
        if ns < SUB as u64 {
            ns as usize
        } else {
            let shift = 63 - ns.leading_zeros() - SUB_BITS;
            ((shift as usize + 1) << SUB_BITS) + ((ns >> shift) as usize & (SUB - 1))
        }
    }

    fn bucket_bounds(idx: usize) -> (f64, f64) {
        if idx < SUB {
            (idx as f64, 1.0)
        } else {
            let shift = idx / SUB - 1;
            let lo = ((SUB + idx % SUB) as u64) << shift;
            (lo as f64, (1u64 << shift) as f64)
        }
    }

    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::index(ns)] += 1;
        self.total += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
    }

    pub fn total(&self) -> u64 {
        self.total
    }

    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.total = 0;
    }

    /// The `q`-quantile in nanoseconds, interpolated inside its bucket; 0 for
    /// an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.total as f64).max(0.5);
        let mut seen = 0.0;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c as f64 >= rank {
                let (lo, width) = Self::bucket_bounds(idx);
                return lo + width * (rank - seen) / c as f64;
            }
            seen += c as f64;
        }
        unreachable!("rank is at most the total")
    }

    /// The `wanted` percentile if enough samples lie beyond it, else the
    /// highest one that does (see [`supported_percentile`]); 0 without any.
    pub fn tail(&self, wanted: f64) -> f64 {
        supported_percentile(self.total, wanted).map_or(0.0, |p| self.quantile(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_value_is_the_better_half_of_the_windows() {
        // 20 windows at 1000 ops/s, nine of them hit by bursts, one closed
        // late and so too good to be true.
        let mut w = vec![1000.0; 10];
        w.extend([400.0, 380.0, 2.0, 700.0, 650.0, 10.0, 900.0, 850.0, 5.0]);
        w.push(5000.0);
        assert_eq!(good_half_mean(&w, true), 1000.0);
        // Lower is better: the same rule from the other end.
        let lat: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(
            good_half_mean(&lat, false),
            (2..=10).sum::<i32>() as f64 / 9.0
        );
        // Too few windows to trim: the better one, or the only one.
        assert_eq!(good_half_mean(&[3.0, 9.0], true), 9.0);
        assert_eq!(good_half_mean(&[3.0, 9.0], false), 3.0);
        assert_eq!(good_half_mean(&[7.0], true), 7.0);
    }

    #[test]
    fn median_of_windows_ignores_a_burst() {
        // 20 windows, three of them hit by a neighbour's burst.
        let mut w = vec![1000.0; 17];
        w.extend([400.0, 380.0, 2.0]);
        assert_eq!(median(&w), 1000.0);
        assert_eq!(median(&[3.0, 1.0]), 2.0);
        assert_eq!(median(&[5.0]), 5.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([2, 4, 4, 5, 9], n=4) == [3.0, 4.0, 7.0]
        let (q1, q3) = quartiles(&[9.0, 2.0, 4.0, 5.0, 4.0]);
        assert!((q1 - 3.0).abs() < 1e-12 && (q3 - 7.0).abs() < 1e-12);
        assert!((iqr_share(&[9.0, 2.0, 4.0, 5.0, 4.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        assert_eq!(supported_percentile(999, 0.99), Some(0.9));
        assert_eq!(supported_percentile(1000, 0.99), Some(0.99));
        assert_eq!(supported_percentile(10_000_000, 0.99), Some(0.99));
        assert_eq!(supported_percentile(100_000, 0.9999), Some(0.9999));
        assert_eq!(supported_percentile(99_999, 0.9999), Some(0.999));
        assert_eq!(supported_percentile(20, 0.99), Some(0.5));
        assert_eq!(supported_percentile(19, 0.99), None);
    }

    #[test]
    fn hist_quantiles_are_within_a_bucket() {
        let mut h = Hist::default();
        for ns in 1..=100_000u64 {
            h.record(ns);
        }
        for q in [0.5, 0.9, 0.99] {
            let got = h.quantile(q);
            let want = q * 100_000.0;
            assert!(
                (got - want).abs() / want < 1.0 / 32.0,
                "{q}: {got} vs {want}"
            );
        }
        assert_eq!(h.total(), 100_000);
        // Index and bounds agree at every bucket edge.
        for ns in [
            0u64,
            1,
            31,
            32,
            33,
            63,
            64,
            1000,
            1 << 20,
            (1 << 50) + 12345,
        ] {
            let (lo, width) = Hist::bucket_bounds(Hist::index(ns));
            assert!(lo <= ns as f64 && (ns as f64) < lo + width + 1.0, "{ns}");
        }
    }

    #[test]
    fn hist_tail_falls_back_when_samples_are_few() {
        let mut h = Hist::default();
        for ns in 0..500u64 {
            h.record(1000 + ns);
        }
        // 500 samples: p99 has only 5 beyond it, p90 has 50.
        let p90 = h.quantile(0.9);
        assert_eq!(h.tail(0.99), p90);
        let mut merged = Hist::default();
        merged.merge(&h);
        merged.merge(&h);
        assert_eq!(merged.total(), 1000);
        assert_eq!(merged.tail(0.99), merged.quantile(0.99));
    }
}
