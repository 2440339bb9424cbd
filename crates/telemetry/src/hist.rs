//! Fixed-footprint log-linear histogram.
//!
//! HDR-style bucketing: values below 64 land in width-1 buckets (exact);
//! above that, each power-of-two octave is split into 64 linear
//! sub-buckets, so a bucket's width is at most 1/64 of its lower bound.
//! Reporting the bucket midpoint bounds the relative quantile error by
//! half a bucket width — ≤ 0.79% — comfortably inside the ~2% budget,
//! with zero per-sample storage. The whole histogram is a flat array of
//! 3,776 atomic counters (~30 KiB), mergeable by bucket-wise addition.
//!
//! Recording costs one index computation (a handful of ALU ops on the
//! leading-zero count) plus one relaxed atomic increment. Single-writer
//! shards can use [`Histogram::record_owned`], a plain load+store on a
//! cache line only the owning thread dirties.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// log2 of the linear sub-bucket count per octave.
const SUB_BITS: u32 = 6;
/// Linear sub-buckets per octave (64 → ≤1.6% bucket width).
const SUB: u64 = 1 << SUB_BITS;
/// Total bucket count covering the full `u64` range.
pub const N_BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB as usize;

/// Bucket index for a value. Monotone in `v`.
#[inline(always)]
pub fn bucket_index(v: u64) -> usize {
    if v < SUB {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros();
        let exp = msb - SUB_BITS;
        (((exp + 1) << SUB_BITS) + ((v >> exp) as u32 & (SUB as u32 - 1))) as usize
    }
}

/// Inclusive lower bound of bucket `idx`.
#[inline]
pub fn bucket_lower(idx: usize) -> u64 {
    let idx = idx as u64;
    if idx < SUB {
        idx
    } else {
        let exp = (idx >> SUB_BITS) - 1;
        (SUB + (idx & (SUB - 1))) << exp
    }
}

/// Exclusive upper bound of bucket `idx` (saturating at `u64::MAX`).
#[inline]
pub fn bucket_upper(idx: usize) -> u64 {
    let idx = idx as u64;
    if idx < SUB {
        idx + 1
    } else {
        let exp = (idx >> SUB_BITS) - 1;
        ((SUB + (idx & (SUB - 1)) + 1) << exp).max(bucket_lower(idx as usize))
    }
}

/// Representative value reported for bucket `idx` (the midpoint).
#[inline]
fn bucket_mid(idx: usize) -> f64 {
    if (idx as u64) < SUB {
        idx as f64
    } else {
        (bucket_lower(idx) as f64 + bucket_upper(idx) as f64) / 2.0
    }
}

/// A concurrent log-linear histogram of `u64` samples (typically
/// nanoseconds). Fixed footprint, mergeable, quantiles without samples.
pub struct Histogram {
    buckets: Box<[AtomicU64; N_BUCKETS]>,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram (~30 KiB, allocated zeroed).
    pub fn new() -> Self {
        // Zeroed Box<[AtomicU64; N]> without a 30 KiB stack temporary.
        let v: Vec<AtomicU64> = (0..N_BUCKETS).map(|_| AtomicU64::new(0)).collect();
        let boxed: Box<[AtomicU64]> = v.into_boxed_slice();
        let buckets = boxed.try_into().unwrap_or_else(|_| unreachable!());
        Self { buckets }
    }

    /// Record one sample: one index computation + one relaxed
    /// `fetch_add`. Safe from any number of threads.
    #[inline(always)]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Relaxed);
    }

    /// Record one sample from the histogram's *single writer*: a plain
    /// load+store (no locked RMW). Callers must guarantee only one
    /// thread ever calls the `_owned` methods on this histogram;
    /// concurrent readers just see slightly stale counts.
    #[inline(always)]
    pub fn record_owned(&self, v: u64) {
        let b = &self.buckets[bucket_index(v)];
        b.store(b.load(Relaxed) + 1, Relaxed);
    }

    /// Total recorded samples (sum of buckets; relaxed).
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Relaxed)).sum()
    }

    /// Nearest-rank quantile (same convention as `metrics::Cdf`):
    /// the ceil(p·n)-th smallest sample's bucket midpoint. `NaN` when
    /// empty. `p` is clamped to `[0, 1]`.
    pub fn quantile(&self, p: f64) -> f64 {
        self.snapshot().quantile(p)
    }

    /// A point-in-time copy (sparse) for snapshots, deltas and merges.
    pub fn snapshot(&self) -> HistSnapshot {
        let mut sparse = Vec::new();
        let mut count = 0u64;
        let mut sum = 0.0f64;
        for (i, b) in self.buckets.iter().enumerate() {
            let c = b.load(Relaxed);
            if c != 0 {
                sparse.push((i as u32, c));
                count += c;
                sum += c as f64 * bucket_mid(i);
            }
        }
        HistSnapshot {
            buckets: sparse,
            count,
            sum,
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshot();
        f.debug_struct("Histogram")
            .field("count", &s.count)
            .field("p50", &s.quantile(0.5))
            .field("p99", &s.quantile(0.99))
            .finish()
    }
}

/// Sparse point-in-time histogram state: `(bucket, count)` pairs plus
/// the total count and a midpoint-approximated sum.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistSnapshot {
    /// Non-empty `(bucket index, count)` pairs, ascending by index.
    pub buckets: Vec<(u32, u64)>,
    /// Total samples.
    pub count: u64,
    /// Midpoint-approximated sum of samples (bucket error applies).
    pub sum: f64,
}

impl HistSnapshot {
    /// Nearest-rank quantile over the snapshot. `NaN` when empty.
    pub fn quantile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        let p = p.clamp(0.0, 1.0);
        let rank = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for &(i, c) in &self.buckets {
            cum += c;
            if cum >= rank {
                return bucket_mid(i as usize);
            }
        }
        bucket_mid(self.buckets.last().map(|&(i, _)| i as usize).unwrap_or(0))
    }

    /// Bucket-wise merge of another snapshot into this one.
    pub fn merge(&mut self, other: &HistSnapshot) {
        let mut out = Vec::with_capacity(self.buckets.len() + other.buckets.len());
        let (mut a, mut b) = (0usize, 0usize);
        while a < self.buckets.len() || b < other.buckets.len() {
            match (self.buckets.get(a), other.buckets.get(b)) {
                (Some(&(ia, ca)), Some(&(ib, cb))) if ia == ib => {
                    out.push((ia, ca + cb));
                    a += 1;
                    b += 1;
                }
                (Some(&(ia, ca)), Some(&(ib, _))) if ia < ib => {
                    out.push((ia, ca));
                    a += 1;
                }
                (Some(_), Some(&(ib, cb))) => {
                    out.push((ib, cb));
                    b += 1;
                }
                (Some(&(ia, ca)), None) => {
                    out.push((ia, ca));
                    a += 1;
                }
                (None, Some(&(ib, cb))) => {
                    out.push((ib, cb));
                    b += 1;
                }
                (None, None) => unreachable!(),
            }
        }
        self.buckets = out;
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Bucket-wise difference `self − earlier` (both cumulative states
    /// of the same histogram; counts are monotone so the result is
    /// non-negative).
    pub fn since(&self, earlier: &HistSnapshot) -> HistSnapshot {
        let mut prev = std::collections::HashMap::new();
        for &(i, c) in &earlier.buckets {
            prev.insert(i, c);
        }
        let mut out = HistSnapshot::default();
        for &(i, c) in &self.buckets {
            let d = c.saturating_sub(prev.get(&i).copied().unwrap_or(0));
            if d != 0 {
                out.buckets.push((i, d));
                out.count += d;
                out.sum += d as f64 * bucket_mid(i as usize);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_bounded() {
        let probes = [
            0u64,
            1,
            63,
            64,
            65,
            127,
            128,
            1000,
            4096,
            1 << 20,
            (1 << 20) + 17,
            u64::MAX / 2,
            u64::MAX,
        ];
        let mut prev_idx = 0usize;
        let mut prev_v = 0u64;
        for &v in &probes {
            let i = bucket_index(v);
            assert!(i < N_BUCKETS, "index {i} out of range for {v}");
            assert!(bucket_lower(i) <= v, "lower({i}) > {v}");
            if i < N_BUCKETS - 1 {
                assert!(v < bucket_upper(i), "upper({i}) <= {v}");
            }
            if v > prev_v {
                assert!(i >= prev_idx, "index not monotone at {v}");
            }
            prev_idx = i;
            prev_v = v;
        }
    }

    #[test]
    fn small_values_are_exact() {
        let h = Histogram::new();
        for v in 0..64u64 {
            h.record(v);
        }
        for v in 0..64u64 {
            let q = (v + 1) as f64 / 64.0;
            assert_eq!(h.quantile(q), v as f64);
        }
    }

    #[test]
    fn empty_quantile_is_nan() {
        assert!(Histogram::new().quantile(0.5).is_nan());
    }

    #[test]
    fn snapshot_roundtrip_and_since() {
        let h = Histogram::new();
        for v in [5u64, 500, 50_000] {
            h.record(v);
        }
        let s0 = h.snapshot();
        for v in [500u64, 7_000_000] {
            h.record(v);
        }
        let s1 = h.snapshot();
        let d = s1.since(&s0);
        assert_eq!(d.count, 2);
        assert_eq!(s1.count, h.count());
        assert_eq!(d.quantile(1.0), h.quantile(1.0));
    }
}
