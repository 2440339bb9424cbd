//! The simulation driver: [`Engine`] advances virtual time by repeatedly
//! popping the earliest event and handing it to a [`Process`]
//! implementation, which pushes follow-up events through an [`Outbox`].

use crate::events::EventQueue;
use crate::time::{SimDuration, SimTime};

/// Where a [`Process`] deposits follow-up events.
///
/// Events may be scheduled at or after the current instant; scheduling in
/// the past is a logic error and is clamped to "now" (with a debug
/// assertion so tests catch it).
pub struct Outbox<E> {
    now: SimTime,
    staged: Vec<(SimTime, E)>,
}

impl<E> Outbox<E> {
    /// A fresh outbox anchored at `now`.
    pub fn new(now: SimTime) -> Self {
        Outbox {
            now,
            staged: Vec::new(),
        }
    }

    /// The current simulation instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` at absolute time `at` (clamped to `now`). A
    /// subsystem generic over `E: From<Sub>` schedules its own events
    /// straight into a composite outbox.
    pub fn at(&mut self, at: SimTime, event: impl Into<E>) {
        debug_assert!(
            at >= self.now,
            "event scheduled in the past: {at} < {}",
            self.now
        );
        self.staged.push((at.max(self.now), event.into()));
    }

    /// Schedule `event` after a relative delay.
    pub fn after(&mut self, delay: SimDuration, event: impl Into<E>) {
        self.staged.push((self.now + delay, event.into()));
    }

    /// Number of staged events.
    pub fn len(&self) -> usize {
        self.staged.len()
    }

    /// True iff nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.staged.is_empty()
    }

    /// Drain the staged events (used by composition layers that translate
    /// a subsystem outbox into the global event enum).
    pub fn drain(&mut self) -> std::vec::Drain<'_, (SimTime, E)> {
        self.staged.drain(..)
    }

    /// Re-anchor the outbox at a new instant, asserting it is empty.
    pub fn reset(&mut self, now: SimTime) {
        debug_assert!(self.staged.is_empty(), "outbox reset with staged events");
        self.now = now;
    }
}

/// A system driven by the engine.
pub trait Process<E> {
    /// Handle one event at its timestamp; push follow-ups into `out`.
    fn handle(&mut self, now: SimTime, event: E, out: &mut Outbox<E>);
}

// Allow closures as processes — handy in tests and small examples.
impl<E, F: FnMut(SimTime, E, &mut Outbox<E>)> Process<E> for F {
    fn handle(&mut self, now: SimTime, event: E, out: &mut Outbox<E>) {
        self(now, event, out)
    }
}

/// Why the engine stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopCondition {
    /// The queue ran dry.
    QueueEmpty,
    /// The configured horizon was reached; events at or beyond the
    /// horizon remain queued.
    HorizonReached,
}

/// The simulation driver.
///
/// ```
/// use hpcwhisk_simcore::{Engine, Outbox, SimDuration, SimTime};
///
/// // Count ticks of a 1-second clock for one minute.
/// let mut ticks = 0u32;
/// let mut engine = Engine::new();
/// engine.schedule(SimTime::ZERO, ());
/// engine.run_until(
///     SimTime::from_mins(1),
///     &mut |_now: SimTime, (): (), out: &mut Outbox<()>| {
///         ticks += 1;
///         out.after(SimDuration::from_secs(1), ());
///     },
/// );
/// assert_eq!(ticks, 60);
/// ```
pub struct Engine<E> {
    queue: EventQueue<E>,
    now: SimTime,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// A fresh engine at t = 0.
    pub fn new() -> Self {
        Engine {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
        }
    }

    /// Current simulation time (the timestamp of the last processed
    /// event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule an initial event.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        self.queue.push(at, event);
    }

    /// Pending event count.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Timestamp of the earliest pending event, if any — what the next
    /// [`run_until`](Engine::run_until) segment would dispatch first.
    /// Lets an incremental driver (a live lease source stepping the
    /// simulation against a wall clock) sleep until something is
    /// actually due instead of polling blind.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Total events processed so far.
    pub fn steps(&self) -> u64 {
        self.queue.total_popped()
    }

    /// Run until the queue empties or an event at or beyond `horizon` is
    /// reached (that event stays queued).
    ///
    /// One queue pop per dispatched event: a popped event at or past the
    /// horizon is requeued under its original sequence number, so the
    /// FIFO order among same-timestamp events survives segmented runs
    /// (asserted by `segmented_run_equals_one_shot`).
    pub fn run_until<P: Process<E>>(&mut self, horizon: SimTime, process: &mut P) -> StopCondition {
        let mut out = Outbox::new(self.now);
        loop {
            let Some((t, seq, ev)) = self.queue.pop_with_seq() else {
                return StopCondition::QueueEmpty;
            };
            if t >= horizon {
                self.queue.requeue(t, seq, ev);
                self.now = horizon;
                return StopCondition::HorizonReached;
            }
            self.now = t;
            out.reset(t);
            process.handle(t, ev, &mut out);
            for (at, e) in out.drain() {
                self.queue.push(at, e);
            }
        }
    }

    /// Run until the queue empties.
    pub fn run_to_completion<P: Process<E>>(&mut self, process: &mut P) -> StopCondition {
        self.run_until(SimTime::MAX, process)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    enum Ev {
        Ping(u32),
        Stopper,
    }

    #[test]
    fn ping_chain_runs_in_order() {
        let mut engine = Engine::new();
        engine.schedule(SimTime::from_secs(1), Ev::Ping(0));
        let mut seen = vec![];
        let cond = engine.run_to_completion(&mut |now: SimTime, ev: Ev, out: &mut Outbox<Ev>| {
            if let Ev::Ping(n) = ev {
                seen.push((now, n));
                if n < 4 {
                    out.after(SimDuration::from_secs(2), Ev::Ping(n + 1));
                }
            }
        });
        assert_eq!(cond, StopCondition::QueueEmpty);
        assert_eq!(seen.len(), 5);
        assert_eq!(seen[4], (SimTime::from_secs(9), 4));
        assert_eq!(engine.steps(), 5);
    }

    #[test]
    fn horizon_stops_and_preserves_future_events() {
        let mut engine = Engine::new();
        engine.schedule(SimTime::from_secs(5), Ev::Stopper);
        engine.schedule(SimTime::from_secs(1), Ev::Ping(1));
        let mut count = 0;
        let cond = engine.run_until(
            SimTime::from_secs(3),
            &mut |_: SimTime, _: Ev, _: &mut Outbox<Ev>| count += 1,
        );
        assert_eq!(cond, StopCondition::HorizonReached);
        assert_eq!(count, 1);
        assert_eq!(engine.pending(), 1);
        assert_eq!(engine.now(), SimTime::from_secs(3));
    }

    #[test]
    fn same_instant_events_processed_in_push_order() {
        let mut engine = Engine::new();
        for i in 0..5 {
            engine.schedule(SimTime::from_secs(1), Ev::Ping(i));
        }
        let mut seen = vec![];
        engine.run_to_completion(&mut |_: SimTime, ev: Ev, _: &mut Outbox<Ev>| {
            if let Ev::Ping(n) = ev {
                seen.push(n)
            }
        });
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
    }

    /// A stochastic-fanout process driven by a seeded [`crate::SimRng`]:
    /// runs the engine and folds every `(time, payload)` dispatch into
    /// an FNV-1a trace hash.
    fn event_trace_hash(seed: u64, segments: &[u64]) -> (u64, u64) {
        event_trace_hash_with(seed, segments, |rng| rng.range_u64(0, 40))
    }

    /// [`event_trace_hash`] with the follow-up delay (ms) drawn by
    /// `delay`.
    fn event_trace_hash_with(
        seed: u64,
        segments: &[u64],
        delay: impl Fn(&mut crate::SimRng) -> u64,
    ) -> (u64, u64) {
        use crate::SimRng;
        let mut rng = SimRng::seed_from_u64(seed);
        let mut engine: Engine<u64> = Engine::new();
        for i in 0..16 {
            engine.schedule(SimTime::from_millis(i * 37), i);
        }
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut fold = |x: u64| {
            hash ^= x;
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        };
        let mut dispatched = 0u64;
        let mut process = |now: SimTime, ev: u64, out: &mut Outbox<u64>| {
            dispatched += 1;
            fold(now.as_millis());
            fold(ev);
            // Data-dependent fanout: 0–2 follow-ups at jittered delays,
            // many sharing timestamps (stressing the seq tiebreaker).
            if dispatched < 4_000 {
                for _ in 0..rng.range_u64(0, 3) {
                    out.after(
                        SimDuration::from_millis(delay(&mut rng)),
                        ev ^ rng.next_u64(),
                    );
                }
            }
        };
        for h in segments {
            engine.run_until(SimTime::from_millis(*h), &mut process);
        }
        engine.run_to_completion(&mut process);
        (hash, dispatched)
    }

    /// Same seed ⇒ bit-identical event trace (the reproducibility
    /// contract every experiment rests on).
    #[test]
    fn deterministic_trace_hash_for_same_seed() {
        let (h1, n1) = event_trace_hash(42, &[]);
        let (h2, n2) = event_trace_hash(42, &[]);
        assert_eq!(n1, n2);
        assert_eq!(h1, h2);
        assert!(n1 > 200, "fanout actually ran: {n1}");
        let (h3, _) = event_trace_hash(43, &[]);
        assert_ne!(h1, h3, "different seeds must diverge");
    }

    /// Splitting a run into arbitrary `run_until` segments must not
    /// change the trace: the horizon requeue preserves the popped
    /// event's original FIFO position among same-timestamp events.
    #[test]
    fn segmented_run_equals_one_shot() {
        let (whole, n_whole) = event_trace_hash(7, &[]);
        let (split, n_split) = event_trace_hash(7, &[10, 11, 50, 333, 2_000]);
        assert_eq!(n_whole, n_split);
        assert_eq!(whole, split);
    }

    /// The same with follow-ups from milliseconds to minutes ahead, so
    /// entries sit inside and past the event queue's wheel and a segment
    /// boundary pops from its far heap what the requeue puts back at
    /// the front of a wheel slot.
    #[test]
    fn segmented_run_equals_one_shot_across_the_far_horizon() {
        let delay = |rng: &mut crate::SimRng| {
            if rng.range_u64(0, 2) == 0 {
                rng.range_u64(0, 40)
            } else {
                rng.range_u64(0, 100_000)
            }
        };
        let (whole, n_whole) = event_trace_hash_with(42, &[], delay);
        let cuts = [
            10, 11, 50, 4_095, 4_096, 4_097, 10_000, 47_000, 300_000, 2_000_000,
        ];
        let (split, n_split) = event_trace_hash_with(42, &cuts, delay);
        assert!(n_whole > 200, "fanout actually ran: {n_whole}");
        assert_eq!(n_whole, n_split);
        assert_eq!(whole, split);
    }

    #[test]
    fn horizon_requeue_not_counted_as_step() {
        let mut engine: Engine<u32> = Engine::new();
        engine.schedule(SimTime::from_secs(10), 1);
        let cond = engine.run_until(
            SimTime::from_secs(5),
            &mut |_: SimTime, _: u32, _: &mut Outbox<u32>| {},
        );
        assert_eq!(cond, StopCondition::HorizonReached);
        assert_eq!(engine.steps(), 0, "requeued event must not count");
        assert_eq!(engine.pending(), 1);
    }

    #[test]
    fn outbox_now_event_runs_same_instant() {
        let mut engine = Engine::new();
        engine.schedule(SimTime::from_secs(2), Ev::Ping(0));
        let mut times = vec![];
        engine.run_to_completion(&mut |now: SimTime, ev: Ev, out: &mut Outbox<Ev>| {
            times.push(now);
            if ev == Ev::Ping(0) && times.len() == 1 {
                out.at(now, Ev::Ping(1));
            }
        });
        assert_eq!(times, vec![SimTime::from_secs(2), SimTime::from_secs(2)]);
    }
}
