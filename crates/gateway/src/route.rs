//! The sharded, epoch-swapped routing table, and the two candidates
//! it offers each key.
//!
//! Reads (the `invoke` hot path) take one shard-local read lock and
//! borrow the routable list under it — there is **no global lock** on
//! the data path. Membership changes (invoker start / sigterm) are
//! rare; they install one new immutable list in every shard, bumping a
//! global epoch. A reader that routed against a just-retired list is
//! harmless: the target queue rejects the produce (generation-style
//! staleness check) and the caller falls back to the fast lane, so the
//! race costs a hop, never a request.
//!
//! A key has two candidates ([`Choices`]): its **home**, the target its
//! hash picks (what [`Router::pick`] returns), and a second, different
//! target drawn from other hash bits. The caller sends the request to
//! whichever has less outstanding work, home on a tie — the
//! power-of-two-choices rule, which keeps affinity while nothing is
//! queued and routes around a busy target when something is. Both are
//! indices into the one routable list, so a caller bucketing a burst
//! can key its buckets by them. With one routable target the two
//! coincide and no load is read.

use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// SplitMix64: cheap, well-mixed hashing for shard and target choice.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A sharded routing table over targets of type `T` (the gateway uses
/// `Arc<InvokerHandle>`). Every shard holds the same list; a shard only
/// stripes the read lock and rotates the key→target mapping.
pub struct Router<T> {
    shards: Vec<RwLock<Arc<Vec<T>>>>,
    shard_mask: u64,
    epoch: AtomicU64,
}

/// A key's two routing candidates, borrowed from the routable list
/// under the shard's read lock.
pub struct Choices<'a, T> {
    /// The routable list both candidates index into.
    pub targets: &'a [T],
    /// The home candidate: the key's hash pick.
    pub home: usize,
    /// Hash bits the second candidate is drawn from (the shard and the
    /// home pick use others).
    bits: usize,
}

impl<T> Choices<'_, T> {
    /// The second candidate: a target other than home whenever two or
    /// more are routable, home itself when only one is.
    #[inline]
    pub fn alt(&self) -> usize {
        let n = self.targets.len();
        if n < 2 {
            return self.home;
        }
        (self.home + 1 + self.bits % (n - 1)) % n
    }

    /// The candidate with the smaller `load` (called with a candidate's
    /// index), home on a tie. With one routable target this is home and
    /// `load` is never called.
    #[inline]
    pub fn least(&self, mut load: impl FnMut(usize) -> u64) -> usize {
        let alt = self.alt();
        if alt != self.home && load(alt) < load(self.home) {
            alt
        } else {
            self.home
        }
    }
}

impl<T: Clone> Router<T> {
    /// A router with `shards` stripes (rounded up to a power of two).
    pub fn new(shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        Router {
            shards: (0..n).map(|_| RwLock::new(Arc::new(Vec::new()))).collect(),
            shard_mask: (n - 1) as u64,
            epoch: AtomicU64::new(0),
        }
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Snapshot generation; bumps on every membership change.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Route `key` to its home target. `None` when no target is
    /// routable.
    pub fn pick(&self, key: u64) -> Option<T> {
        self.with_choices(key, |c| c.targets[c.home].clone())
    }

    /// Run `f` on `key`'s two candidates **by reference under the
    /// shard's read lock** instead of cloning a target out — the invoke
    /// hot path saves two refcount round-trips per request. The shard
    /// comes from the low hash bits, home from the high ones, rotated by
    /// the shard index so the key→target mapping decorrelates across
    /// shards. `f` must be short (a queue produce); membership writers
    /// only ever contend with it, and they are rare. `None` when no
    /// target is routable.
    pub fn with_choices<R>(&self, key: u64, f: impl FnOnce(Choices<'_, T>) -> R) -> Option<R> {
        let h = mix64(key);
        let shard = (h & self.shard_mask) as usize;
        let list = self.shards[shard].read();
        if list.is_empty() {
            return None;
        }
        Some(f(Choices {
            targets: &list,
            home: ((h >> 32) as usize + shard) % list.len(),
            bits: ((h >> 16) & 0xFFFF) as usize,
        }))
    }

    /// Install a new routable set: one shared list in every shard.
    pub fn rebuild(&self, targets: &[T]) {
        let list = Arc::new(targets.to_vec());
        for shard in &self.shards {
            *shard.write() = list.clone();
        }
        self.epoch.fetch_add(1, Ordering::AcqRel);
    }

    /// True iff no target is routable in any shard.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.read().is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn empty_router_routes_nowhere() {
        let r: Router<u32> = Router::new(8);
        assert!(r.pick(1).is_none());
        assert!(r.is_empty());
        assert_eq!(r.n_shards(), 8);
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        assert_eq!(Router::<u32>::new(5).n_shards(), 8);
        assert_eq!(Router::<u32>::new(1).n_shards(), 1);
        assert_eq!(Router::<u32>::new(0).n_shards(), 1);
    }

    #[test]
    fn routing_is_deterministic_within_an_epoch() {
        let r: Router<u32> = Router::new(4);
        r.rebuild(&[10, 20, 30]);
        let e = r.epoch();
        for key in 0..200u64 {
            assert_eq!(r.pick(key), r.pick(key));
        }
        assert_eq!(r.epoch(), e, "reads do not bump the epoch");
        r.rebuild(&[10, 20]);
        assert_eq!(r.epoch(), e + 1);
    }

    #[test]
    fn load_spreads_over_targets() {
        let r: Router<u32> = Router::new(8);
        r.rebuild(&[0, 1, 2, 3]);
        let mut counts: HashMap<u32, usize> = HashMap::new();
        for key in 0..4_000u64 {
            *counts.entry(r.pick(key).unwrap()).or_default() += 1;
        }
        assert_eq!(counts.len(), 4, "every target sees traffic");
        for (&t, &n) in &counts {
            assert!(
                (600..=1_400).contains(&n),
                "target {t} got {n} of 4000 (imbalanced)"
            );
        }
    }

    /// Both candidates of `key` as target values.
    fn candidates(r: &Router<u32>, key: u64) -> (u32, u32) {
        r.with_choices(key, |c| (c.targets[c.home], c.targets[c.alt()]))
            .expect("targets installed")
    }

    #[test]
    fn candidates_differ_whenever_two_targets_are_routable() {
        let r: Router<u32> = Router::new(8);
        for n in 2..=9u32 {
            r.rebuild(&(0..n).collect::<Vec<_>>());
            for key in 0..2_000u64 {
                let (home, alt) = candidates(&r, key);
                assert_ne!(home, alt, "{n} targets, key {key}");
            }
        }
    }

    #[test]
    fn candidates_coincide_with_one_target() {
        let r: Router<u32> = Router::new(8);
        r.rebuild(&[7]);
        for key in 0..500u64 {
            assert_eq!(candidates(&r, key), (7, 7));
            let least = r.with_choices(key, |c| c.least(|_| panic!("load read with one target")));
            assert_eq!(least, Some(0));
        }
    }

    #[test]
    fn home_candidate_is_the_pick() {
        let r: Router<u32> = Router::new(4);
        r.rebuild(&[10, 20, 30, 40, 50]);
        for key in 0..2_000u64 {
            assert_eq!(Some(candidates(&r, key).0), r.pick(key));
        }
    }

    #[test]
    fn least_prefers_home_on_a_tie_and_the_lighter_otherwise() {
        let r: Router<u32> = Router::new(8);
        r.rebuild(&[0, 1, 2]);
        for key in 0..300u64 {
            r.with_choices(key, |c| {
                let alt = c.alt();
                assert_eq!(c.least(|_| 5), c.home, "tie goes home");
                assert_eq!(c.least(|i| u64::from(i == c.home)), alt);
                assert_eq!(c.least(|i| u64::from(i == alt)), c.home);
            });
        }
    }

    #[test]
    fn every_target_is_a_candidate_evenly() {
        let r: Router<u32> = Router::new(8);
        r.rebuild(&[0, 1, 2, 3]);
        let mut counts: HashMap<u32, usize> = HashMap::new();
        for key in 0..4_000u64 {
            let (home, alt) = candidates(&r, key);
            *counts.entry(home).or_default() += 1;
            *counts.entry(alt).or_default() += 1;
        }
        assert_eq!(counts.len(), 4, "every target is a candidate");
        // 8,000 candidacies over 4 targets: 2,000 each, within ±20 %.
        for (&t, &n) in &counts {
            assert!(
                (1_600..=2_400).contains(&n),
                "target {t} was a candidate {n} times of 8000 (imbalanced)"
            );
        }
    }

    #[test]
    fn removed_target_is_never_picked_again() {
        let r: Router<u32> = Router::new(4);
        r.rebuild(&[1, 2]);
        r.rebuild(&[2]);
        for key in 0..500u64 {
            assert_eq!(r.pick(key), Some(2));
        }
    }
}
