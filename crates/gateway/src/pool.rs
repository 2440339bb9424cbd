//! The per-invoker warm-container pool for the live plane.
//!
//! The DES plane's `whisk::ContainerPool` answers the paper's
//! quantitative questions about cold starts; this is the same lifecycle
//! under real time: each invoker thread **owns** its pool (no locking),
//! warm containers are kept per action with their last-use instant,
//! capacity pressure evicts the least-recently-used idle container, and
//! a keep-alive sweep retires containers that have idled past their
//! action's keep-alive window.

use crate::action::{ActionId, ActionRegistry};
use std::collections::VecDeque;
use std::time::Instant;
use telemetry::flight::{self, EventKind};

/// How an invocation was placed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Reused an idle warm container for this action.
    Warm,
    /// Booted a new container (the caller pays the cold-start penalty).
    Cold,
}

/// Tallies the pool accumulates over its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Placements on a warm container.
    pub warm_hits: u64,
    /// Cold-started containers.
    pub cold_starts: u64,
    /// Idle containers evicted under capacity pressure (LRU).
    pub lru_evictions: u64,
    /// Idle containers retired by the keep-alive sweep.
    pub keepalive_evictions: u64,
    /// Containers retired because their invoker drained (lease revoked
    /// / sigterm): work checked out at sigterm time finishes, checks
    /// back in, and is retired here — never leaked.
    pub drain_retired: u64,
}

impl PoolStats {
    /// Every container ever cold-started must leave through exactly one
    /// retirement path (LRU, keep-alive, or drain); true when the books
    /// balance for a pool whose invoker has exited.
    pub fn containers_conserved(&self) -> bool {
        self.cold_starts == self.lru_evictions + self.keepalive_evictions + self.drain_retired
    }
}

impl std::ops::AddAssign for PoolStats {
    fn add_assign(&mut self, rhs: PoolStats) {
        self.warm_hits += rhs.warm_hits;
        self.cold_starts += rhs.cold_starts;
        self.lru_evictions += rhs.lru_evictions;
        self.keepalive_evictions += rhs.keepalive_evictions;
        self.drain_retired += rhs.drain_retired;
    }
}

/// One invoker's container pool. Single-threaded by design: the owning
/// invoker thread is the only toucher.
pub struct WarmPool {
    slots: usize,
    /// Idle warm containers per action, each stamped with its last-use
    /// instant, oldest at the front.
    warm: Vec<VecDeque<Instant>>,
    idle_total: usize,
    busy: usize,
    stats: PoolStats,
}

impl WarmPool {
    /// A pool with `slots` container slots serving `n_actions` actions.
    pub fn new(slots: usize, n_actions: usize) -> Self {
        assert!(slots >= 1);
        WarmPool {
            slots,
            warm: vec![VecDeque::new(); n_actions],
            idle_total: 0,
            busy: 0,
            stats: PoolStats::default(),
        }
    }

    /// Place an invocation of `action`. Warm reuse picks the most
    /// recently used container (best cache affinity); a cold start under
    /// full capacity first evicts the least recently used idle container
    /// of any action.
    pub fn acquire(&mut self, action: ActionId, _now: Instant) -> Placement {
        let a = action.0 as usize;
        if self.warm[a].pop_back().is_some() {
            self.idle_total -= 1;
            self.busy += 1;
            self.stats.warm_hits += 1;
            return Placement::Warm;
        }
        if self.busy + self.idle_total >= self.slots {
            self.evict_lru();
        }
        self.busy += 1;
        self.stats.cold_starts += 1;
        Placement::Cold
    }

    /// Return the container to the warm set after execution.
    pub fn release(&mut self, action: ActionId, now: Instant) {
        debug_assert!(self.busy > 0, "release without acquire");
        self.busy -= 1;
        self.warm[action.0 as usize].push_back(now);
        self.idle_total += 1;
    }

    /// Retire idle containers whose last use is older than their
    /// action's keep-alive. Returns how many were evicted.
    pub fn sweep(&mut self, now: Instant, registry: &ActionRegistry) -> usize {
        let mut evicted = 0;
        for (a, q) in self.warm.iter_mut().enumerate() {
            let keepalive = registry.spec(ActionId(a as u32)).keepalive;
            while let Some(last) = q.front() {
                if now.saturating_duration_since(*last) > keepalive {
                    q.pop_front();
                    self.idle_total -= 1;
                    evicted += 1;
                    flight::record(EventKind::Evict, a as u64, 1);
                } else {
                    break;
                }
            }
        }
        self.stats.keepalive_evictions += evicted as u64;
        evicted
    }

    fn evict_lru(&mut self) {
        let victim = self
            .warm
            .iter()
            .enumerate()
            .filter_map(|(a, q)| q.front().map(|t| (*t, a)))
            .min_by_key(|(t, _)| *t);
        if let Some((_, a)) = victim {
            self.warm[a].pop_front();
            self.idle_total -= 1;
            self.stats.lru_evictions += 1;
            flight::record(EventKind::Evict, a as u64, 0);
        }
        // No idle container to evict means every slot is genuinely busy;
        // with one request in flight per invoker thread that cannot
        // happen for slots >= 1, so over-commit is a no-op here.
    }

    /// Retire every container at invoker drain time. By the drain
    /// protocol nothing is checked out when this runs (in-flight work
    /// finishes and checks back in first), so the whole population is
    /// idle and is retired — the pool ends empty, leaking nothing.
    /// Returns how many containers were retired.
    pub fn retire_all(&mut self) -> usize {
        debug_assert_eq!(self.busy, 0, "drain with a container checked out");
        let retired = self.idle_total;
        for (a, q) in self.warm.iter_mut().enumerate() {
            if !q.is_empty() {
                flight::record(EventKind::Evict, a as u64, 2);
            }
            q.clear();
        }
        self.idle_total = 0;
        self.stats.drain_retired += retired as u64;
        retired
    }

    /// Containers currently executing.
    pub fn busy(&self) -> usize {
        self.busy
    }

    /// Idle warm containers across all actions.
    pub fn n_warm_idle(&self) -> usize {
        self.idle_total
    }

    /// Lifetime counters.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::ActionSpec;
    use std::time::Duration;

    fn reg(n: usize, keepalive: Duration) -> std::sync::Arc<ActionRegistry> {
        ActionRegistry::new(
            (0..n)
                .map(|i| ActionSpec::noop(&format!("f{i}")).with_keepalive(keepalive))
                .collect(),
        )
    }

    #[test]
    fn cold_then_warm_roundtrip() {
        let mut p = WarmPool::new(4, 2);
        let t = Instant::now();
        assert_eq!(p.acquire(ActionId(0), t), Placement::Cold);
        p.release(ActionId(0), t);
        assert_eq!(p.acquire(ActionId(0), t), Placement::Warm);
        assert_eq!(p.acquire(ActionId(1), t), Placement::Cold, "per-action");
        assert_eq!(p.stats().warm_hits, 1);
        assert_eq!(p.stats().cold_starts, 2);
    }

    #[test]
    fn capacity_pressure_evicts_lru_idle() {
        let mut p = WarmPool::new(2, 3);
        let t0 = Instant::now();
        let t1 = t0 + Duration::from_millis(10);
        // Warm container for action 0 (older) and action 1 (newer).
        p.acquire(ActionId(0), t0);
        p.release(ActionId(0), t0);
        p.acquire(ActionId(1), t1);
        p.release(ActionId(1), t1);
        assert_eq!(p.n_warm_idle(), 2);
        // Pool full: a cold start for action 2 must evict action 0's
        // container (the LRU).
        assert_eq!(p.acquire(ActionId(2), t1), Placement::Cold);
        assert_eq!(p.stats().lru_evictions, 1);
        p.release(ActionId(2), t1);
        // Action 1's container survived; action 0's did not.
        assert_eq!(p.acquire(ActionId(1), t1), Placement::Warm);
        p.release(ActionId(1), t1);
        assert_eq!(p.acquire(ActionId(0), t1), Placement::Cold);
    }

    #[test]
    fn keepalive_zero_evicts_on_the_next_sweep() {
        // A keep-alive of zero means "no idle retention": the container
        // survives only a sweep at the very instant of its check-in
        // (elapsed 0 is not > 0) and is retired by any later one.
        let registry = reg(1, Duration::ZERO);
        let mut p = WarmPool::new(4, 1);
        let t0 = Instant::now();
        p.acquire(ActionId(0), t0);
        p.release(ActionId(0), t0);
        assert_eq!(p.sweep(t0, &registry), 0, "same-instant sweep is a no-op");
        assert_eq!(
            p.sweep(t0 + Duration::from_nanos(1), &registry),
            1,
            "any later sweep evicts a zero-keepalive container"
        );
        assert_eq!(p.n_warm_idle(), 0);
        assert_eq!(p.acquire(ActionId(0), t0), Placement::Cold);
    }

    #[test]
    fn capacity_one_lru_thrash_alternating_actions() {
        // One slot, two actions: every switch evicts the other action's
        // idle container; every repeat is a warm hit. The bookkeeping
        // (busy + idle <= slots) must survive the thrash.
        let mut p = WarmPool::new(1, 2);
        let t = Instant::now();
        for round in 0..8u32 {
            let a = ActionId(round % 2);
            let placement = p.acquire(a, t);
            assert_eq!(placement, Placement::Cold, "round {round}: switch is cold");
            assert!(p.busy() + p.n_warm_idle() <= 1, "capacity respected");
            p.release(a, t);
        }
        // 8 cold starts; the first found an empty pool, the other 7
        // each evicted the previous action's container.
        assert_eq!(p.stats().cold_starts, 8);
        assert_eq!(p.stats().lru_evictions, 7);
        assert_eq!(p.stats().warm_hits, 0);
        // Repeating the same action is warm even at capacity 1.
        assert_eq!(p.acquire(ActionId(1), t), Placement::Warm);
    }

    #[test]
    fn sweep_between_checkout_and_checkin_spares_busy_container() {
        // A sweep firing while the container is checked out (busy) must
        // not evict it or corrupt the counts, no matter how stale its
        // *previous* use is; the keep-alive clock restarts at check-in.
        let registry = reg(1, Duration::from_millis(5));
        let mut p = WarmPool::new(4, 1);
        let t0 = Instant::now();
        assert_eq!(p.acquire(ActionId(0), t0), Placement::Cold);
        // Mid-execution sweep, nominally hours past any keep-alive.
        let mid = t0 + Duration::from_secs(3_600);
        assert_eq!(p.sweep(mid, &registry), 0, "busy containers are not idle");
        assert_eq!(p.busy(), 1);
        assert_eq!(p.n_warm_idle(), 0);
        p.release(ActionId(0), mid);
        // Freshly checked in: survives a sweep within the keep-alive
        // window measured from check-in, then serves warm.
        assert_eq!(p.sweep(mid + Duration::from_millis(2), &registry), 0);
        assert_eq!(p.acquire(ActionId(0), mid), Placement::Warm);
        p.release(ActionId(0), mid);
        // And the keep-alive still applies from the new check-in stamp.
        assert_eq!(p.sweep(mid + Duration::from_millis(50), &registry), 1);
        assert_eq!(p.stats().keepalive_evictions, 1);
    }

    #[test]
    fn retire_all_empties_the_pool_and_balances_the_books() {
        let mut p = WarmPool::new(4, 2);
        let t = Instant::now();
        p.acquire(ActionId(0), t);
        p.release(ActionId(0), t);
        p.acquire(ActionId(1), t);
        p.release(ActionId(1), t);
        assert_eq!(p.retire_all(), 2);
        assert_eq!(p.n_warm_idle(), 0);
        let s = p.stats();
        assert_eq!(s.drain_retired, 2);
        assert!(s.containers_conserved(), "{s:?}");
        // Idempotent on an empty pool.
        assert_eq!(p.retire_all(), 0);
    }

    #[test]
    fn keepalive_sweep_retires_idle_containers() {
        let registry = reg(2, Duration::from_millis(5));
        let mut p = WarmPool::new(8, 2);
        let t0 = Instant::now();
        p.acquire(ActionId(0), t0);
        p.release(ActionId(0), t0);
        p.acquire(ActionId(1), t0);
        p.release(ActionId(1), t0);
        assert_eq!(p.sweep(t0 + Duration::from_millis(2), &registry), 0);
        assert_eq!(p.sweep(t0 + Duration::from_millis(50), &registry), 2);
        assert_eq!(p.n_warm_idle(), 0);
        assert_eq!(p.stats().keepalive_evictions, 2);
        // Next placement is cold again.
        assert_eq!(p.acquire(ActionId(0), t0), Placement::Cold);
    }
}
