//! Log2-bucketed latency histograms.
//!
//! [`Histogram::record`] is a pair of relaxed `fetch_add`s — lock-free and
//! wait-free, safe to call from any number of threads inside simulation
//! hot paths. Bucket `0` holds the value `0`; bucket `i ≥ 1` holds values
//! in `[2^(i-1), 2^i)`; values at or above the top bucket's lower bound
//! saturate into the top bucket. Quantiles are estimated by linear
//! interpolation inside the owning bucket, so every estimate is within one
//! bucket (a factor of 2) of the exact order statistic.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets: value `0`, then one power-of-two decade per bucket
/// up to `2^(BUCKETS-2)` nanoseconds (≈ 20 hours), beyond which values
/// saturate into the top bucket.
pub const BUCKETS: usize = 48;

/// A fixed-shape log2 histogram of `u64` samples (nanoseconds by
/// convention). All methods take `&self`; recording never blocks.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// The bucket a value lands in.
#[inline]
fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        // floor(log2(v)) + 1, saturated into the top bucket.
        (64 - v.leading_zeros() as usize).min(BUCKETS - 1)
    }
}

/// Inclusive lower bound of bucket `i`.
#[inline]
fn bucket_lower(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// Inclusive upper bound of bucket `i` (the top bucket is unbounded).
#[inline]
fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i == BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Record one sample (lock-free; relaxed atomics).
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Fold another histogram's contents into this one (bucket-wise adds —
    /// associative and commutative, so partial histograms merge in any
    /// grouping).
    pub fn merge(&self, other: &Histogram) {
        for (dst, src) in self.buckets.iter().zip(other.buckets.iter()) {
            dst.fetch_add(src.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// A point-in-time copy (consistent enough for monitoring: concurrent
    /// records may straddle the bucket reads, never corrupt them).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: [u64; BUCKETS] =
            std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed));
        HistogramSnapshot {
            count: buckets.iter().sum(),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// A point-in-time copy of a [`Histogram`], with quantile estimation.
#[derive(Clone, Debug)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all recorded values (exact, not bucket-approximated).
    pub sum: u64,
    /// Largest recorded value (exact).
    pub max: u64,
    /// Per-bucket sample counts: bucket `0` holds the value `0`, bucket
    /// `i ≥ 1` the values in `[2^(i-1), 2^i)`, the top one everything above.
    pub buckets: [u64; BUCKETS],
}

impl HistogramSnapshot {
    /// Estimate the `q`-quantile (`0.0 ..= 1.0`): find the bucket holding
    /// the rank-`⌈q·count⌉` sample and interpolate linearly inside it. The
    /// estimate is always within the owning bucket — at most a factor of 2
    /// from the exact order statistic (the top bucket interpolates toward
    /// the recorded maximum rather than infinity).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                let lower = bucket_lower(i);
                let upper = if i == BUCKETS - 1 {
                    self.max.max(lower)
                } else {
                    bucket_upper(i)
                };
                let frac = (rank - seen) as f64 / n as f64;
                let est = lower as f64 + (upper - lower) as f64 * frac;
                // `as u64` saturates; clamp keeps the estimate inside the
                // owning bucket even after f64 rounding.
                return (est as u64).clamp(lower, upper);
            }
            seen += n;
        }
        self.max
    }

    /// Median estimate (see [`HistogramSnapshot::quantile`]).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th-percentile estimate.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// `(inclusive upper bound, cumulative count)` per non-empty bucket —
    /// the Prometheus `le` series (the top bucket's bound is `u64::MAX`,
    /// rendered as `+Inf`).
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            cum += n;
            out.push((bucket_upper(i), cum));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn buckets_partition_the_u64_range() {
        for i in 0..BUCKETS {
            assert_eq!(bucket_of(bucket_lower(i)), i);
            assert_eq!(bucket_of(bucket_upper(i)), i);
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    /// Quantile estimates on known distributions stay within the owning
    /// bucket of the exact order statistic (≤ 2× off, and ≥ the bucket's
    /// lower bound which is > exact/2).
    #[test]
    fn quantiles_within_one_bucket_of_exact() {
        // Uniform 1..=1000 and a geometric-ish spread.
        for values in [
            (1..=1000u64).collect::<Vec<_>>(),
            (0..200u64)
                .map(|i| 3u64.saturating_pow((i % 13) as u32))
                .collect(),
        ] {
            let h = Histogram::new();
            for &v in &values {
                h.record(v);
            }
            let mut sorted = values.clone();
            sorted.sort_unstable();
            let snap = h.snapshot();
            for q in [0.50, 0.90, 0.99] {
                let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
                let exact = sorted[rank - 1];
                let est = snap.quantile(q);
                // Same bucket ⇒ est ∈ [lower, upper] of exact's bucket.
                assert!(
                    est >= bucket_lower(bucket_of(exact)) && est <= bucket_upper(bucket_of(exact)),
                    "q={q}: estimate {est} outside exact {exact}'s bucket"
                );
            }
        }
    }

    #[test]
    fn top_bucket_saturates() {
        let h = Histogram::new();
        let top_lower = bucket_lower(BUCKETS - 1);
        h.record(top_lower);
        h.record(u64::MAX / 2);
        h.record(u64::MAX);
        let snap = h.snapshot();
        assert_eq!(
            snap.buckets[BUCKETS - 1],
            3,
            "huge values share the top bucket"
        );
        assert_eq!(snap.max, u64::MAX);
        // The top-bucket quantile interpolates toward the recorded max,
        // never below the bucket's lower bound.
        assert!(snap.quantile(0.99) >= top_lower);
    }

    #[test]
    fn merge_is_associative() {
        let samples: [&[u64]; 3] = [&[1, 5, 9, 1000], &[2, 2, 2], &[0, 7, 1 << 40]];
        let build = |chunks: &[usize]| {
            let acc = Histogram::new();
            for &c in chunks {
                let h = Histogram::new();
                for &v in samples[c] {
                    h.record(v);
                }
                acc.merge(&h);
            }
            acc.snapshot()
        };
        // (a ⊕ b) ⊕ c vs a ⊕ (b ⊕ c): same buckets, sum and max.
        let left = {
            let ab = Histogram::new();
            for &v in samples[0].iter().chain(samples[1]) {
                ab.record(v);
            }
            let abc = Histogram::new();
            abc.merge(&ab);
            let c = Histogram::new();
            for &v in samples[2] {
                c.record(v);
            }
            abc.merge(&c);
            abc.snapshot()
        };
        let right = build(&[0, 1, 2]);
        assert_eq!(left.buckets, right.buckets);
        assert_eq!(left.sum, right.sum);
        assert_eq!(left.max, right.max);
        assert_eq!(left.count, right.count);
    }

    #[test]
    fn concurrent_records_lose_nothing() {
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 5000;
        let h = Arc::new(Histogram::new());
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        h.record(t * PER_THREAD + i);
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, THREADS * PER_THREAD);
        let n = THREADS * PER_THREAD;
        assert_eq!(snap.sum, n * (n - 1) / 2);
        assert_eq!(snap.max, n - 1);
    }

    #[test]
    fn empty_histogram_is_all_zeroes() {
        let snap = Histogram::new().snapshot();
        assert_eq!(snap.count, 0);
        assert_eq!(snap.quantile(0.99), 0);
        assert_eq!(snap.mean(), 0.0);
        assert!(snap.cumulative_buckets().is_empty());
    }
}
