//! One invoker's container pool, a pure state machine both planes
//! drive: the DES as `<FunctionId, SimTime>`, each live invoker thread
//! as `<ActionId, Instant>`. OpenWhisk's policy: reuse an idle container
//! of the same function, evict the least recently used idle one at the
//! container limit, bound concurrent cold starts (the §V-C failure
//! window). No clock arithmetic, telemetry or I/O: keep-alive expiry is
//! the caller's predicate, and evictions are reported back to it.
//!
//! The DES digests see which idle container is reused and how LRU ties
//! break, so the rules are pinned: warm reuse takes the *first* idle
//! entry of the key, LRU the *first* minimum of `last_used`, both by
//! `swap_remove`, and LRU evicts before the cold-start bound is checked.

/// Outcome of trying to place an activation of key `K`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Acquire<K> {
    /// An idle warm container of this key was taken.
    Warm,
    /// A new container must be cold-started; its slot is reserved.
    /// `evicted` is the idle container evicted (LRU) to make room.
    Cold { evicted: Option<K> },
    /// `cold_limit` containers are booting; the caller waits or fails.
    /// An LRU eviction made before this check stands.
    ColdBlocked { evicted: Option<K> },
    /// Every slot is busy and nothing is idle to evict.
    NoCapacity,
}

/// Tallies a pool accumulates over its lifetime.
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
    /// Containers retired because their invoker drained (work checked
    /// out at sigterm finishes, checks back in, and is retired here).
    pub drain_retired: u64,
}

impl PoolStats {
    /// True when every container cold-started has left through exactly
    /// one of LRU, keep-alive or drain, as for an exited invoker's pool.
    /// (An abandoned one leaves outside these books; only the DES does.)
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

/// The container pool of one invoker: `K` names a function, `T` is the
/// driver's clock.
#[derive(Debug, Clone)]
pub struct ContainerPool<K, T> {
    slots: usize,
    cold_limit: usize,
    busy: usize,
    cold_starting: usize,
    /// Idle warm containers: `(key, last_used)`.
    idle: Vec<(K, T)>,
    stats: PoolStats,
}

impl<K: Copy + Eq, T: Copy + Ord> ContainerPool<K, T> {
    /// A pool with `slots` container slots and at most `cold_limit`
    /// (at least 1) containers booting at once.
    pub fn new(slots: usize, cold_limit: usize) -> Self {
        assert!(slots >= 1, "a container pool needs at least one slot");
        ContainerPool {
            slots,
            cold_limit: cold_limit.max(1),
            busy: 0,
            cold_starting: 0,
            idle: Vec::new(),
            stats: PoolStats::default(),
        }
    }

    /// Try to place an activation of `k`.
    pub fn acquire(&mut self, k: K) -> Acquire<K> {
        if let Some(pos) = self.idle.iter().position(|&(ik, _)| ik == k) {
            self.idle.swap_remove(pos);
            self.busy += 1;
            self.stats.warm_hits += 1;
            return Acquire::Warm;
        }
        let mut evicted = None;
        if self.busy + self.idle.len() >= self.slots {
            // `min_by_key` keeps the first of equal minima.
            let Some(lru) = (0..self.idle.len()).min_by_key(|&i| self.idle[i].1) else {
                return Acquire::NoCapacity;
            };
            evicted = Some(self.idle.swap_remove(lru).0);
            self.stats.lru_evictions += 1;
        }
        if self.cold_starting >= self.cold_limit {
            return Acquire::ColdBlocked { evicted };
        }
        self.busy += 1;
        self.cold_starting += 1;
        self.stats.cold_starts += 1;
        Acquire::Cold { evicted }
    }

    /// A cold start finished booting; its slot stays busy.
    pub fn cold_done(&mut self) {
        debug_assert!(self.cold_starting > 0, "cold_done without a cold start");
        self.cold_starting = self.cold_starting.saturating_sub(1);
    }

    /// An execution of `k` finished at `now`; its container idles warm.
    pub fn release(&mut self, k: K, now: T) {
        debug_assert!(self.busy > 0, "release without acquire");
        self.busy -= 1;
        self.idle.push((k, now));
    }

    /// An execution was abandoned (interrupt/kill): free its slot, keep
    /// no container.
    pub fn abandon(&mut self) {
        self.busy = self.busy.saturating_sub(1);
    }

    /// The keep-alive sweep: retire every idle container for which
    /// `expired(key, last_used)` holds, and return their keys. A busy
    /// container is not idle, so its keep-alive restarts at check-in.
    pub fn retire_idle(&mut self, mut expired: impl FnMut(K, T) -> bool) -> Vec<K> {
        let mut gone = Vec::new();
        self.idle.retain(|&(k, t)| {
            let out = expired(k, t);
            if out {
                gone.push(k);
            }
            !out
        });
        self.stats.keepalive_evictions += gone.len() as u64;
        gone
    }

    /// The invoker drains: retire every idle container and return their
    /// keys. (By the drain protocol none is busy by then.)
    pub fn retire_all(&mut self) -> Vec<K> {
        let gone: Vec<K> = self.idle.drain(..).map(|(k, _)| k).collect();
        self.stats.drain_retired += gone.len() as u64;
        gone
    }

    /// Container slots.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Containers currently executing.
    pub fn busy(&self) -> usize {
        self.busy
    }

    /// Idle warm containers (the tests' oracle).
    #[cfg(test)]
    pub fn n_warm_idle(&self) -> usize {
        self.idle.len()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimTime;
    use proptest::prelude::*;
    use std::time::{Duration, Instant};

    const COLD: Acquire<u32> = Acquire::Cold { evicted: None };

    /// One execution of `k` ending at `now`: acquire, finish a cold
    /// start, release. Returns the placement.
    fn run<T: Copy + Ord>(p: &mut ContainerPool<u32, T>, k: u32, now: T) -> Acquire<u32> {
        let a = p.acquire(k);
        if let Acquire::Cold { .. } = a {
            p.cold_done();
        }
        p.release(k, now);
        a
    }

    // Under the DES clock.

    type Des = ContainerPool<u32, SimTime>;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn warm_hit_after_release() {
        let mut p = Des::new(2, 4);
        assert_eq!(run(&mut p, 1, t(1)), COLD);
        assert_eq!((p.acquire(1), p.busy()), (Acquire::Warm, 1));
    }

    #[test]
    fn no_capacity_when_all_busy() {
        let mut p = Des::new(1, 4);
        assert_eq!((p.acquire(1), p.acquire(2)), (COLD, Acquire::NoCapacity));
    }

    #[test]
    fn lru_eviction_picks_oldest() {
        let mut p = Des::new(2, 4);
        run(&mut p, 1, t(1));
        run(&mut p, 2, t(5));
        // A third function evicts the LRU (function 1); function 2 stays.
        assert_eq!(run(&mut p, 3, t(7)), Acquire::Cold { evicted: Some(1) });
        assert_eq!(run(&mut p, 2, t(9)), Acquire::Warm);
        assert_eq!(run(&mut p, 1, t(10)), Acquire::Cold { evicted: Some(3) });
    }

    #[test]
    fn cold_concurrency_limit_fails() {
        let mut p = Des::new(8, 2);
        assert_eq!((p.acquire(1), p.acquire(2)), (COLD, COLD));
        assert_eq!(p.acquire(3), Acquire::ColdBlocked { evicted: None });
        p.cold_done();
        assert_eq!(p.acquire(3), COLD);
    }

    #[test]
    fn abandon_frees_slot_without_warm_container() {
        let mut p = Des::new(1, 1);
        p.acquire(1);
        p.cold_done();
        p.abandon();
        assert_eq!((p.busy(), p.n_warm_idle()), (0, 0));
        assert_eq!(p.acquire(2), COLD, "the freed slot needs no eviction");
    }

    // Under the live clock, as the gateway drives it: a cold limit of 1,
    // and keep-alive expiry as "idle longer than the keep-alive".

    type Live = ContainerPool<u32, Instant>;

    fn sweep(p: &mut Live, now: Instant, keepalive_ms: u64) -> usize {
        let keepalive = Duration::from_millis(keepalive_ms);
        p.retire_idle(|_, last| now.saturating_duration_since(last) > keepalive)
            .len()
    }

    fn ms(t: Instant, n: u64) -> Instant {
        t + Duration::from_millis(n)
    }

    #[test]
    fn cold_then_warm_roundtrip() {
        let mut p = Live::new(4, 1);
        assert_eq!(run(&mut p, 0, Instant::now()), COLD);
        assert_eq!(p.acquire(0), Acquire::Warm);
        assert_eq!(p.acquire(1), COLD, "per-action");
        assert_eq!((p.stats().warm_hits, p.stats().cold_starts), (1, 2));
    }

    #[test]
    fn capacity_pressure_evicts_lru_idle() {
        let (mut p, t0) = (Live::new(2, 1), Instant::now());
        let t1 = ms(t0, 10);
        run(&mut p, 0, t0);
        run(&mut p, 1, t1);
        // Full: action 2 evicts action 0's container (the LRU), not 1's.
        assert_eq!(run(&mut p, 2, t1), Acquire::Cold { evicted: Some(0) });
        assert_eq!(run(&mut p, 1, t1), Acquire::Warm);
        assert!(matches!(run(&mut p, 0, t1), Acquire::Cold { .. }));
    }

    #[test]
    fn keepalive_zero_evicts_on_the_next_sweep() {
        // It survives only a sweep at its check-in instant (0 is not > 0).
        let (mut p, t0) = (Live::new(4, 1), Instant::now());
        run(&mut p, 0, t0);
        assert_eq!(sweep(&mut p, t0, 0), 0);
        assert_eq!(sweep(&mut p, t0 + Duration::from_nanos(1), 0), 1);
        assert_eq!(p.acquire(0), COLD);
    }

    #[test]
    fn capacity_one_lru_thrash_alternating_actions() {
        // One slot, two actions: every switch is cold and (but the first)
        // evicts the other action's container; a repeat is warm.
        let (mut p, t) = (Live::new(1, 1), Instant::now());
        for round in 0..8u32 {
            let evicted = (round > 0).then_some(1 - round % 2);
            assert_eq!(run(&mut p, round % 2, t), Acquire::Cold { evicted });
            assert!(p.busy() + p.n_warm_idle() <= 1);
        }
        let s = p.stats();
        assert_eq!((s.cold_starts, s.lru_evictions, s.warm_hits), (8, 7, 0));
        assert_eq!(p.acquire(1), Acquire::Warm);
    }

    #[test]
    fn sweep_between_checkout_and_checkin_spares_busy_container() {
        // However stale its last use, a checked-out container is not
        // idle; its keep-alive restarts at check-in.
        let (mut p, mid) = (Live::new(4, 1), ms(Instant::now(), 3_600_000));
        p.acquire(0);
        p.cold_done();
        assert_eq!(sweep(&mut p, mid, 5), 0, "busy is not idle");
        assert_eq!(p.busy(), 1);
        p.release(0, mid);
        assert_eq!(sweep(&mut p, ms(mid, 2), 5), 0);
        assert_eq!(run(&mut p, 0, mid), Acquire::Warm);
        assert_eq!(sweep(&mut p, ms(mid, 50), 5), 1);
        assert_eq!(p.stats().keepalive_evictions, 1);
    }

    #[test]
    fn retire_all_empties_the_pool_and_balances_the_books() {
        let (mut p, t) = (Live::new(4, 1), Instant::now());
        run(&mut p, 0, t);
        run(&mut p, 1, t);
        assert_eq!(p.retire_all(), vec![0, 1]);
        assert_eq!((p.n_warm_idle(), p.stats().drain_retired), (0, 2));
        assert!(p.stats().containers_conserved(), "{:?}", p.stats());
        assert!(p.retire_all().is_empty(), "idempotent on an empty pool");
    }

    #[test]
    fn keepalive_sweep_retires_idle_containers() {
        let (mut p, t0) = (Live::new(8, 1), Instant::now());
        run(&mut p, 0, t0);
        run(&mut p, 1, t0);
        assert_eq!(sweep(&mut p, ms(t0, 2), 5), 0);
        assert_eq!(sweep(&mut p, ms(t0, 50), 5), 2);
        assert_eq!(p.stats().keepalive_evictions, 2);
        assert_eq!(p.acquire(0), COLD);
    }

    /// One step of `prop_pool_matches_model`: `Release`/`Abandon` pick a
    /// busy container modulo their number, `RetireIdle` takes an age,
    /// `Tick(0)` makes `last_used` ties.
    #[derive(Debug, Clone)]
    enum Op {
        Acquire(u32),
        ColdDone,
        Release(usize),
        Abandon(usize),
        RetireIdle(u64),
        RetireAll,
        Tick(u64),
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u32..6).prop_map(Op::Acquire),
            (0u32..6).prop_map(Op::Acquire),
            Just(Op::ColdDone),
            (0usize..64).prop_map(Op::Release),
            (0usize..64).prop_map(Op::Release),
            (0usize..64).prop_map(Op::Abandon),
            (0u64..20).prop_map(Op::RetireIdle),
            (0u32..12).prop_map(|x| if x == 0 { Op::RetireAll } else { Op::Tick(0) }),
            (0u64..4).prop_map(Op::Tick),
        ]
    }

    /// Take out of the model's idle multiset the entry the pool removed
    /// (one the model holds more often than the pool).
    fn take_gone(model: &mut Vec<(u32, u64)>, pool: &[(u32, u64)]) -> (u32, u64) {
        let count = |v: &[(u32, u64)], e| v.iter().filter(|&&x| x == e).count();
        let pos = (0..model.len())
            .find(|&i| count(model, model[i]) > count(pool, model[i]))
            .expect("the pool removed an idle entry the model holds");
        model.swap_remove(pos)
    }

    fn sorted<E: Ord>(mut v: Vec<E>) -> Vec<E> {
        v.sort_unstable();
        v
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Random call streams against a model (idle containers as a
        /// multiset, busy ones by key). Every step: capacity holds, `Warm`
        /// iff the model has an idle one of the key, LRU takes a minimum
        /// `last_used`, a retire takes what its predicate names, and each
        /// cold start is busy, idle, or gone by one exit.
        #[test]
        fn prop_pool_matches_model(
            slots in 1usize..6,
            cold_limit in 1usize..4,
            ops in proptest::collection::vec(op(), 1..300),
        ) {
            let mut p = ContainerPool::<u32, u64>::new(slots, cold_limit);
            let (mut idle, mut busy) = (Vec::<(u32, u64)>::new(), Vec::<u32>::new());
            let (mut booting, mut abandoned, mut now) = (0, 0, 0);
            for op in ops {
                match op {
                    Op::Acquire(k) => {
                        let warm = idle.iter().any(|e| e.0 == k);
                        let full = busy.len() + idle.len() >= slots;
                        let min = idle.iter().map(|e| e.1).min();
                        let got = p.acquire(k);
                        // What left the idle set: the warm container or the LRU victim.
                        let gone = (idle.len() > p.idle.len())
                            .then(|| take_gone(&mut idle, &p.idle));
                        prop_assert_eq!(gone.is_some(), warm || full && min.is_some());
                        let evicted = gone.filter(|_| !warm).map(|g| g.0);
                        let want = match () {
                            _ if warm => Acquire::Warm,
                            _ if full && min.is_none() => Acquire::NoCapacity,
                            _ if booting >= cold_limit => Acquire::ColdBlocked { evicted },
                            _ => Acquire::Cold { evicted },
                        };
                        prop_assert_eq!(got, want);
                        match gone {
                            Some((g, _)) if warm => prop_assert_eq!(g, k),
                            Some((_, last)) => prop_assert_eq!(Some(last), min, "LRU: a minimum"),
                            None => {}
                        }
                        if let Acquire::Warm | Acquire::Cold { .. } = got {
                            busy.push(k);
                        }
                        booting += matches!(got, Acquire::Cold { .. }) as usize;
                    }
                    Op::ColdDone if booting > 0 => {
                        p.cold_done();
                        booting -= 1;
                    }
                    Op::Release(n) if !busy.is_empty() => {
                        let k = busy.swap_remove(n % busy.len());
                        p.release(k, now);
                        idle.push((k, now));
                    }
                    Op::Abandon(n) if !busy.is_empty() => {
                        busy.swap_remove(n % busy.len());
                        p.abandon();
                        abandoned += 1;
                    }
                    Op::RetireIdle(age) => {
                        let got = p.retire_idle(|_, t| now - t > age);
                        let want = idle.iter().filter(|e| now - e.1 > age).map(|e| e.0);
                        prop_assert_eq!(sorted(got), sorted(want.collect()));
                        idle.retain(|e| now - e.1 <= age);
                    }
                    Op::RetireAll => {
                        let want: Vec<u32> = idle.drain(..).map(|e| e.0).collect();
                        prop_assert_eq!(sorted(p.retire_all()), sorted(want));
                    }
                    Op::Tick(d) => now += d,
                    Op::ColdDone | Op::Release(_) | Op::Abandon(_) => {}
                }
                prop_assert!(p.busy() + p.n_warm_idle() <= slots);
                prop_assert_eq!(p.busy(), busy.len());
                prop_assert_eq!(sorted(p.idle.clone()), sorted(idle.clone()));
                let s = p.stats();
                let gone = s.lru_evictions + s.keepalive_evictions + s.drain_retired + abandoned;
                prop_assert_eq!(s.cold_starts, gone + (busy.len() + idle.len()) as u64);
            }
            // Once nothing is busy and the pool is retired, every cold
            // start has left through exactly one exit.
            busy.drain(..).for_each(|k| p.release(k, now));
            p.retire_all();
            let s = p.stats();
            let exits = s.lru_evictions + s.keepalive_evictions + s.drain_retired + abandoned;
            prop_assert_eq!((s.cold_starts, s.containers_conserved()), (exits, abandoned == 0));
        }
    }
}
