//! Relaxed atomic counters and gauges, plus fixed-width sharded
//! counter arrays. The contract on every hot-path method: one relaxed
//! atomic operation, at most one array index.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};

/// A monotone counter. `inc`/`add` are safe from any thread; the
/// `_owned` variants are plain load+store for single-writer shards.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline(always)]
    pub fn inc(&self) {
        self.0.fetch_add(1, Relaxed);
    }

    #[inline(always)]
    pub fn add(&self, n: u64) {
        if n != 0 {
            self.0.fetch_add(n, Relaxed);
        }
    }

    /// Single-writer add: plain load+store, no locked RMW.
    #[inline(always)]
    pub fn add_owned(&self, n: u64) {
        if n != 0 {
            self.0.store(self.0.load(Relaxed) + n, Relaxed);
        }
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

/// A signed gauge with set/add/sub and a running maximum helper.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline(always)]
    pub fn set(&self, v: i64) {
        self.0.store(v, Relaxed);
    }

    #[inline(always)]
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Relaxed);
    }

    #[inline(always)]
    pub fn sub(&self, n: i64) {
        self.0.fetch_sub(n, Relaxed);
    }

    /// Raise the gauge to `v` if `v` is larger (high-water tracking).
    #[inline(always)]
    pub fn raise(&self, v: i64) {
        self.0.fetch_max(v, Relaxed);
    }

    #[inline]
    pub fn get(&self) -> i64 {
        self.0.load(Relaxed)
    }
}

/// A fixed-width array of counters indexed by a small dense id
/// (action index, invoker slot, shed reason). One relaxed increment +
/// one array index per event; out-of-range ids are dropped rather than
/// panicking (instrumentation must never take down the serving plane).
#[derive(Debug)]
pub struct CounterVec {
    counts: Box<[AtomicU64]>,
}

impl CounterVec {
    pub fn new(len: usize) -> Self {
        Self {
            counts: (0..len).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    #[inline(always)]
    pub fn inc(&self, i: usize) {
        if let Some(c) = self.counts.get(i) {
            c.fetch_add(1, Relaxed);
        }
    }

    #[inline(always)]
    pub fn add(&self, i: usize, n: u64) {
        if n != 0 {
            if let Some(c) = self.counts.get(i) {
                c.fetch_add(n, Relaxed);
            }
        }
    }

    /// Single-writer add: plain load+store on the shard's own line.
    #[inline(always)]
    pub fn add_owned(&self, i: usize, n: u64) {
        if n != 0 {
            if let Some(c) = self.counts.get(i) {
                c.store(c.load(Relaxed) + n, Relaxed);
            }
        }
    }

    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        self.counts.get(i).map(|c| c.load(Relaxed)).unwrap_or(0)
    }

    pub fn total(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Relaxed)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_paths_agree() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        c.add_owned(6);
        assert_eq!(c.get(), 11);
    }

    #[test]
    fn gauge_raise_tracks_max() {
        let g = Gauge::new();
        g.raise(5);
        g.raise(3);
        assert_eq!(g.get(), 5);
        g.add(2);
        g.sub(1);
        assert_eq!(g.get(), 6);
    }

    #[test]
    fn counter_vec_bounds_are_soft() {
        let v = CounterVec::new(2);
        v.inc(0);
        v.add(1, 3);
        v.inc(99); // dropped, not a panic
        assert_eq!(v.get(0), 1);
        assert_eq!(v.get(1), 3);
        assert_eq!(v.total(), 4);
    }
}
