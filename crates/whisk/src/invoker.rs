//! Invoker (worker) state.

use crate::config::Jitter;
use crate::ids::{ActivationId, FunctionId};
use mq::Topic;
use simcore::pool::ContainerPool;
use simcore::{SimRng, SimTime};
use std::collections::VecDeque;

/// Invoker lifecycle, from the controller's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvokerState {
    /// Registered and routable.
    Healthy,
    /// SIGTERM received: finishing the handoff, not routable.
    Draining,
    /// Died without de-registering; the controller has not noticed yet
    /// and still routes to it (the paper's "irresponsive" workers).
    DeadUnnoticed,
}

/// An invoker's poll schedule: the jittered tick chain `t0 = start +
/// jitter(poll_interval)`, `t(k+1) = t(k) + jitter(poll_interval)`,
/// drawn from `poll`, the table of `poll_interval`.
///
/// The jitters come from a stream of the invoker's own,
/// [`PollChain::stream`] of `(whisk seed, invoker key)` and nothing
/// else, so the chain is a pure
/// function of `(seed, key, start)`: a parked loop can skip any number
/// of ticks and resume on exactly the tick an always-armed loop would
/// have reached, whatever the rest of the system drew meanwhile.
#[derive(Debug, Clone)]
pub struct PollChain {
    rng: SimRng,
    next: SimTime,
}

impl PollChain {
    /// The stream the chain of invoker `key` draws its ticks from.
    pub fn stream(seed: u64, key: u64) -> SimRng {
        SimRng::seed_from_u64(seed ^ 0x706f_6c6c_6572).fork(key)
    }

    /// The chain of invoker `key` registered at `start`, at its first
    /// tick.
    pub fn new(seed: u64, key: u64, start: SimTime, poll: &Jitter) -> Self {
        let mut rng = Self::stream(seed, key);
        let next = start + poll.draw(&mut rng);
        PollChain { rng, next }
    }

    /// The tick the chain stands on: the next poll instant.
    pub fn tick(&self) -> SimTime {
        self.next
    }

    /// Step to the following tick and return it.
    pub fn advance(&mut self, poll: &Jitter) -> SimTime {
        self.next += poll.draw(&mut self.rng);
        self.next
    }

    /// Step past every tick before `now`; returns the first tick at or
    /// after it.
    pub fn catch_up(&mut self, now: SimTime, poll: &Jitter) -> SimTime {
        while self.next < now {
            self.advance(poll);
        }
        self.next
    }
}

/// One worker node's invoker.
#[derive(Debug)]
pub struct Invoker {
    /// Lifecycle state.
    pub state: InvokerState,
    /// Its private Kafka topic: dropped with the invoker.
    pub topic: Topic<ActivationId>,
    /// Pulled-but-unstarted activations (the "internal buffer" the drain
    /// protocol flushes to the fast lane, §III-C).
    pub buffer: VecDeque<ActivationId>,
    /// Activations currently executing in containers (at most one per
    /// container slot, so a scan beats a hash), each with its function:
    /// the controller may have retired the activation's record by the
    /// time the container is released.
    pub running: Vec<(ActivationId, FunctionId)>,
    /// The node's container pool.
    pub pool: ContainerPool<FunctionId, SimTime>,
    /// Controller-side estimate of outstanding work (routing pressure).
    pub ctrl_inflight: usize,
    /// The poll loop's tick chain.
    pub poll: PollChain,
    /// The poll loop is parked: nothing was fetchable or buffered at its
    /// last poll, so no `InvokerPoll` is scheduled until a produce wakes
    /// it. A healthy invoker has exactly one poll outstanding iff this
    /// is false.
    pub parked: bool,
}

impl Invoker {
    /// A fresh healthy invoker, its topic empty, whose first poll is due
    /// at `poll.tick()`.
    pub fn new(slots: usize, cold_concurrency: usize, poll: PollChain) -> Self {
        Invoker {
            state: InvokerState::Healthy,
            topic: Topic::new(),
            buffer: VecDeque::new(),
            running: Vec::new(),
            pool: ContainerPool::new(slots, cold_concurrency),
            ctrl_inflight: 0,
            poll,
            parked: false,
        }
    }

    /// Resume the poll loop if it is parked (and the invoker still
    /// serving): returns the instant to schedule its one `InvokerPoll`
    /// at — the first tick of the chain at or after `now`. The ticks
    /// skipped are the ones at which there was nothing to fetch or
    /// dispatch. A tick on the very millisecond of the produce runs
    /// after it.
    pub fn wake(&mut self, now: SimTime, poll: &Jitter) -> Option<SimTime> {
        if !self.parked || self.state != InvokerState::Healthy {
            return None;
        }
        self.parked = false;
        Some(self.poll.catch_up(now, poll))
    }

    /// Take `act` off the running set; its function if it was running
    /// here.
    pub fn finish(&mut self, act: ActivationId) -> Option<FunctionId> {
        let pos = self.running.iter().position(|(a, _)| *a == act)?;
        Some(self.running.swap_remove(pos).1)
    }

    /// Routable by the controller?
    pub fn routable(&self) -> bool {
        // DeadUnnoticed stays true: the controller does not know yet.
        matches!(
            self.state,
            InvokerState::Healthy | InvokerState::DeadUnnoticed
        )
    }

    /// Actually able to process work?
    pub fn alive(&self) -> bool {
        matches!(self.state, InvokerState::Healthy | InvokerState::Draining)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WhiskConfig;

    fn poll() -> Jitter {
        Jitter::new(WhiskConfig::default().poll_interval)
    }

    #[test]
    fn state_predicates() {
        let mut inv = Invoker::new(4, 2, PollChain::new(1, 0, SimTime::ZERO, &poll()));
        assert!(inv.routable() && inv.alive());
        inv.state = InvokerState::Draining;
        assert!(!inv.routable() && inv.alive());
        inv.state = InvokerState::DeadUnnoticed;
        assert!(inv.routable() && !inv.alive());
    }

    #[test]
    fn chain_is_a_function_of_seed_key_and_start() {
        let poll = poll();
        let start = SimTime::from_secs(3);
        let mut a = PollChain::new(9, 4, start, &poll);
        let mut b = PollChain::new(9, 4, start, &poll);
        let mut other_key = PollChain::new(9, 5, start, &poll);
        let mut same = 0;
        for _ in 0..200 {
            let before = a.tick();
            let t = a.advance(&poll);
            assert_eq!(b.advance(&poll), t);
            let step = (t - before).as_millis();
            assert!((170..=230).contains(&step), "tick gap {step} ms");
            same += (other_key.advance(&poll) == t) as u32;
        }
        assert!(same < 20, "keys share a stream: {same}/200 ticks equal");
    }

    #[test]
    fn catch_up_lands_on_the_tick_stepping_would_reach() {
        let poll = poll();
        let mut stepped = PollChain::new(3, 8, SimTime::ZERO, &poll);
        let mut jumped = stepped.clone();
        let now = SimTime::from_secs(60);
        while stepped.tick() < now {
            stepped.advance(&poll);
        }
        assert_eq!(jumped.catch_up(now, &poll), stepped.tick());
        // Already at or past `now`: stays put.
        assert_eq!(jumped.catch_up(now, &poll), stepped.tick());
        assert_eq!(jumped.advance(&poll), stepped.advance(&poll));
    }
}
