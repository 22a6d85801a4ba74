//! A log-bucketed latency histogram owned by the benchmark.
//!
//! Values are non-negative integers (nanoseconds). Values below
//! `2^SUB_BITS` get one exact bucket each; above that every power-of-two
//! range is split into `2^SUB_BITS` equal buckets, so a bucket's width is
//! at most `1 / 2^SUB_BITS` of its lower edge. A quantile answers the
//! midpoint of the bucket holding its rank, clamped to the exact
//! `[min, max]`, so its relative error is bounded by `2^-(SUB_BITS+1)`
//! and it can never fall outside the observed range. There is no upper
//! cap: every `u64` has a bucket, so nothing overflows. Two histograms
//! merge exactly by adding bucket counts.

/// Buckets per power of two above the exact range.
const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
/// One exact range of `SUB` buckets, then `SUB` buckets for each of the
/// remaining `64 - SUB_BITS` binary orders of magnitude.
const BUCKETS: usize = (SUB as usize) * (65 - SUB_BITS as usize);

#[derive(Debug, Clone)]
pub struct LogHist {
    counts: Vec<u64>,
    count: u64,
    min: u64,
    max: u64,
}

impl Default for LogHist {
    fn default() -> Self {
        LogHist::new()
    }
}

fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let order = 63 - v.leading_zeros(); // >= SUB_BITS
    let shift = order - SUB_BITS;
    let sub = (v >> shift) - SUB; // in 0..SUB
    ((shift as u64 + 1) * SUB + sub) as usize
}

/// `[lo, hi]` of the values that land in bucket `b`.
fn bucket_range(b: usize) -> (u64, u64) {
    let b = b as u64;
    if b < SUB {
        return (b, b);
    }
    let shift = b / SUB - 1;
    let lo = (SUB + b % SUB) << shift;
    (lo, lo + ((1u64 << shift) - 1))
}

impl LogHist {
    pub fn new() -> LogHist {
        LogHist {
            counts: vec![0; BUCKETS],
            count: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` observations of the same value.
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[bucket_of(v)] += n;
        self.count += n;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    pub fn merge(&mut self, other: &LogHist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact minimum, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact maximum, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The `q`-quantile (`q` in `[0, 1]`) by the nearest-rank rule,
    /// answered as its bucket's midpoint clamped to `[min, max]`. 0 when
    /// empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (lo, hi) = bucket_range(b);
                let mid = lo as f64 + (hi - lo) as f64 / 2.0;
                return mid.clamp(self.min as f64, self.max as f64);
            }
        }
        self.max as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Upper bound on a quantile's relative error against the exact
    /// order statistic (half a bucket width).
    const REL_ERROR: f64 = 1.0 / (2 * SUB) as f64;

    fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    /// Deterministic heavy-tailed values spanning ns to seconds.
    fn values(n: usize, seed: u64) -> Vec<u64> {
        let mut x = seed;
        (0..n)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let u = (x >> 11) as f64 / (1u64 << 53) as f64;
                (10f64.powf(1.0 + 8.0 * u)) as u64
            })
            .collect()
    }

    #[test]
    fn buckets_cover_every_value_contiguously() {
        let mut prev_hi = None;
        for b in 0..BUCKETS {
            let (lo, hi) = bucket_range(b);
            assert!(lo <= hi);
            if let Some(p) = prev_hi {
                assert_eq!(lo, p + 1, "gap before bucket {b}");
            }
            assert_eq!(bucket_of(lo), b);
            assert_eq!(bucket_of(hi), b);
            prev_hi = Some(hi);
        }
        assert_eq!(prev_hi, Some(u64::MAX));
    }

    #[test]
    fn quantiles_have_bounded_relative_error() {
        let vals = values(20_000, 7);
        let mut h = LogHist::new();
        for &v in &vals {
            h.record(v);
        }
        let mut sorted = vals.clone();
        sorted.sort_unstable();
        for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let exact = exact_quantile(&sorted, q) as f64;
            let got = h.quantile(q);
            assert!(
                (got - exact).abs() <= exact * REL_ERROR + 0.5,
                "q={q}: got {got}, exact {exact}"
            );
        }
        assert_eq!(h.min(), sorted[0]);
        assert_eq!(h.max(), *sorted.last().unwrap());
    }

    #[test]
    fn quantiles_are_clamped_to_the_observed_range() {
        let mut h = LogHist::new();
        h.record_n(1_000_003, 5);
        // One value: every quantile is exactly it, not a bucket midpoint.
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 1_000_003.0);
        }
        h.record(1_000_100);
        assert!(h.quantile(0.5) >= 1_000_003.0);
        assert!(h.quantile(1.0) <= 1_000_100.0);
        assert!(h.quantile(0.5) <= h.quantile(0.99));
        assert!(h.quantile(0.99) <= h.max() as f64);
    }

    #[test]
    fn huge_values_do_not_overflow() {
        let mut h = LogHist::new();
        h.record(u64::MAX);
        h.record(5_598_486_000);
        assert_eq!(h.max(), u64::MAX);
        let p50 = h.quantile(0.5);
        assert!((5_598_486_000.0..=5_598_486_000.0 * (1.0 + 2.0 * REL_ERROR)).contains(&p50));
        assert!(p50 < h.quantile(1.0));
    }

    #[test]
    fn merge_is_exact() {
        let a_vals = values(5_000, 1);
        let b_vals = values(7_000, 2);
        let (mut a, mut b, mut all) = (LogHist::new(), LogHist::new(), LogHist::new());
        for &v in &a_vals {
            a.record(v);
            all.record(v);
        }
        for &v in &b_vals {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a.counts, all.counts);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
        for q in [0.5, 0.99] {
            assert_eq!(a.quantile(q), all.quantile(q));
        }
    }

    #[test]
    fn empty_histogram_answers_zero() {
        let h = LogHist::new();
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
    }
}
