//! Fixed-bucket latency histograms with percentile readout.
//!
//! Values (span durations in nanoseconds) land in one of 256
//! log-scaled buckets: values below 16 get exact buckets, larger
//! values share a bucket with everything carrying the same exponent
//! and top two mantissa bits — a coarse HDR scheme bounding the
//! relative quantile error at ~25 % while keeping recording a single
//! array increment. Differencing two histograms ([`Histogram::delta`])
//! supports interval profiles (e.g. "just the Figure 13 sweep").

/// Bucket count: 16 exact small buckets + 60 exponents × 4 sub-buckets.
const BUCKETS: usize = 16 + 60 * 4;

/// How many tail exemplars a histogram retains.
const MAX_EXEMPLARS: usize = 4;

/// A tail exemplar: one of the largest samples recorded, tagged with
/// the trace it came from, so a p99 outlier in a snapshot links
/// directly to a flight-recorder dump of the offending query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exemplar {
    /// The sample value (nanoseconds by convention).
    pub value_ns: u64,
    /// The trace id active when the sample was recorded (never 0 —
    /// untraced samples are not kept as exemplars).
    pub trace: u64,
}

/// A fixed-bucket histogram of `u64` samples (nanoseconds by
/// convention).
///
/// Equality compares the distribution (buckets, count, sum) only —
/// tail exemplars carry run-specific trace ids and are excluded.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    exemplars: Vec<Exemplar>,
}

impl PartialEq for Histogram {
    fn eq(&self, other: &Self) -> bool {
        self.buckets == other.buckets && self.count == other.count && self.sum == other.sum
    }
}

impl Eq for Histogram {}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// The bucket index for a sample.
fn bucket_of(v: u64) -> usize {
    if v < 16 {
        v as usize
    } else {
        // v >= 16 so leading_zeros <= 59 and exp >= 4.
        let exp = 63 - v.leading_zeros() as usize;
        let sub = ((v >> (exp - 2)) & 0b11) as usize;
        let idx = 16 + (exp - 4) * 4 + sub;
        idx.min(BUCKETS - 1)
    }
}

/// The inclusive lower bound of a bucket.
fn bucket_lo(idx: usize) -> u64 {
    if idx < 16 {
        idx as u64
    } else {
        let exp = (idx - 16) / 4 + 4;
        let sub = ((idx - 16) % 4) as u64;
        (1u64 << exp) + (sub << (exp - 2))
    }
}

/// The exclusive upper bound of a bucket.
fn bucket_hi(idx: usize) -> u64 {
    if idx + 1 < BUCKETS {
        bucket_lo(idx + 1)
    } else {
        u64::MAX
    }
}

impl Histogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            exemplars: Vec::new(),
        }
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        if let Some(b) = self.buckets.get_mut(bucket_of(v)) {
            *b += 1;
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
    }

    /// Record one sample tagged with the trace it came from. When
    /// `trace` is nonzero and the sample ranks among the largest seen,
    /// it is kept as a tail [`Exemplar`].
    pub fn record_with_trace(&mut self, v: u64, trace: u64) {
        self.record(v);
        if trace == 0 {
            return;
        }
        if self.exemplars.len() < MAX_EXEMPLARS {
            self.exemplars.push(Exemplar { value_ns: v, trace });
            self.exemplars.sort_by_key(|e| std::cmp::Reverse(e.value_ns));
        } else if self
            .exemplars
            .last()
            .is_some_and(|smallest| v > smallest.value_ns)
        {
            self.exemplars.pop();
            self.exemplars.push(Exemplar { value_ns: v, trace });
            self.exemplars.sort_by_key(|e| std::cmp::Reverse(e.value_ns));
        }
    }

    /// The retained tail exemplars, largest first.
    pub fn exemplars(&self) -> &[Exemplar] {
        &self.exemplars
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean sample, 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate `q`-quantile (`0.0 ..= 1.0`): the midpoint of the
    /// bucket holding the rank-`ceil(q·count)` sample. Returns 0 when
    /// empty. The estimate is exact for samples below 16 and within
    /// ~25 % relative error beyond.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            seen += c;
            if seen >= rank {
                let lo = bucket_lo(idx);
                let hi = bucket_hi(idx);
                // Midpoint; exact buckets (width ≤ 1) report lo.
                return if hi - lo <= 1 { lo } else { lo + (hi - lo) / 2 };
            }
        }
        0
    }

    /// Bucket-wise difference `self − baseline` (saturating): the
    /// samples recorded since `baseline` was snapshotted from the
    /// same histogram. Exemplars are not differenced — the delta keeps
    /// the current tail exemplars, which already reflect the largest
    /// samples seen so far.
    pub fn delta(&self, baseline: &Histogram) -> Histogram {
        let buckets = self
            .buckets
            .iter()
            .zip(baseline.buckets.iter())
            .map(|(a, b)| a.saturating_sub(*b))
            .collect();
        Histogram {
            buckets,
            count: self.count.saturating_sub(baseline.count),
            sum: self.sum.saturating_sub(baseline.sum),
            exemplars: self.exemplars.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_are_consistent() {
        for idx in 0..BUCKETS {
            let lo = bucket_lo(idx);
            assert_eq!(bucket_of(lo), idx, "lo of bucket {idx}");
            if idx + 1 < BUCKETS {
                assert!(bucket_lo(idx + 1) > lo, "monotone at {idx}");
                assert_eq!(bucket_of(bucket_lo(idx + 1) - 1), idx, "hi of {idx}");
            }
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in [3u64, 3, 3, 7] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5), 3);
        assert_eq!(h.quantile(1.0), 7);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 16);
        assert!((h.mean() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn quantiles_land_in_the_right_bucket() {
        let mut h = Histogram::new();
        // 90 fast samples at ~1µs, 10 slow at ~1ms.
        for _ in 0..90 {
            h.record(1_000);
        }
        for _ in 0..10 {
            h.record(1_000_000);
        }
        let p50 = h.quantile(0.50);
        let p95 = h.quantile(0.95);
        let p99 = h.quantile(0.99);
        assert!((750..=1_500).contains(&p50), "p50 {p50}");
        assert!((750_000..=1_500_000).contains(&p95), "p95 {p95}");
        assert!((750_000..=1_500_000).contains(&p99), "p99 {p99}");
        assert!(p50 <= p95 && p95 <= p99);
    }

    #[test]
    fn empty_histogram_reads_zero() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn exemplars_keep_the_largest_traced_samples() {
        let mut h = Histogram::new();
        h.record_with_trace(50, 0); // untraced: never an exemplar
        for (v, t) in [(10u64, 1u64), (500, 2), (20, 3), (300, 4), (400, 5), (5, 6)] {
            h.record_with_trace(v, t);
        }
        let ex = h.exemplars();
        assert_eq!(ex.len(), MAX_EXEMPLARS);
        let values: Vec<u64> = ex.iter().map(|e| e.value_ns).collect();
        assert_eq!(values, vec![500, 400, 300, 20]);
        assert_eq!(ex[0].trace, 2, "p-max links to its trace");
        assert!(ex.iter().all(|e| e.trace != 0));
        // Equality ignores exemplars: same distribution, different tags.
        let mut other = Histogram::new();
        other.record(50);
        for v in [10u64, 500, 20, 300, 400, 5] {
            other.record(v);
        }
        assert_eq!(h, other);
    }

    #[test]
    fn delta_isolates_an_interval() {
        let mut h = Histogram::new();
        h.record(100);
        h.record(100);
        let snap = h.clone();
        h.record(5_000);
        let d = h.delta(&snap);
        assert_eq!(d.count(), 1);
        let q = d.quantile(0.5);
        assert!((3_500..=7_000).contains(&q), "{q}");
        // Delta against an unrelated larger histogram saturates to 0.
        let z = snap.delta(&h);
        assert_eq!(z.count(), 0);
    }
}
