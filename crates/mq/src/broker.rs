//! The in-process broker: named topics, ordered messages, atomic moves.

use simcore::{SimDuration, SimTime};
use std::collections::{HashMap, VecDeque};

/// Identifies a topic within one [`Broker`]. Indexes a slab; stale ids
/// of deleted topics are rejected by a generation check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TopicId {
    index: u32,
    generation: u32,
}

/// One enqueued message.
#[derive(Debug, Clone, PartialEq)]
pub struct Message<T> {
    /// Per-topic, strictly increasing sequence number. A message moved to
    /// another topic is assigned a fresh offset there (as a re-produce in
    /// Kafka would be) while `produced_at` is preserved.
    pub offset: u64,
    /// Simulation time of the *original* produce (survives moves, so
    /// end-to-end latency accounting stays correct across the fast lane).
    pub produced_at: SimTime,
    /// Caller-defined payload (the activation request).
    pub payload: T,
}

struct Topic<T> {
    name: String,
    generation: u32,
    next_offset: u64,
    queue: VecDeque<Message<T>>,
    alive: bool,
}

/// Depth and age diagnostics for one topic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopicStats {
    /// Pending (unfetched) messages.
    pub depth: usize,
    /// Age of the oldest pending message, `ZERO` when empty.
    pub oldest_age: SimDuration,
    /// Total messages ever produced to this topic.
    pub total_produced: u64,
}

/// An in-process multi-topic broker.
///
/// ```
/// use hpcwhisk_mq::Broker;
/// use simcore::SimTime;
///
/// let mut b: Broker<&str> = Broker::new();
/// let invoker0 = b.create_topic("invoker-0");
/// let fast = b.create_topic("fast-lane");
/// b.produce(invoker0, SimTime::ZERO, "req-a");
/// b.produce(invoker0, SimTime::ZERO, "req-b");
/// // Invoker 0 is draining: controller moves the unpulled remainder.
/// let moved = b.move_all(invoker0, fast, SimTime::from_secs(1));
/// assert_eq!(moved, 2);
/// let got = b.fetch(fast, 10);
/// assert_eq!(got.len(), 2);
/// assert_eq!(got[0].payload, "req-a"); // FIFO preserved across the move
/// ```
pub struct Broker<T> {
    topics: Vec<Topic<T>>,
    by_name: HashMap<String, TopicId>,
}

impl<T> Default for Broker<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Broker<T> {
    /// An empty broker.
    pub fn new() -> Self {
        Broker {
            topics: Vec::new(),
            by_name: HashMap::new(),
        }
    }

    /// Create a topic; panics if the name is already live (mirrors
    /// Kafka's create-topic conflict).
    pub fn create_topic(&mut self, name: &str) -> TopicId {
        assert!(
            !self.by_name.contains_key(name),
            "topic {name:?} already exists"
        );
        // Reuse a dead slot if available.
        let index = self.topics.iter().position(|t| !t.alive);
        let id = match index {
            Some(i) => {
                let generation = self.topics[i].generation + 1;
                self.topics[i] = Topic {
                    name: name.to_string(),
                    generation,
                    next_offset: 0,
                    queue: VecDeque::new(),
                    alive: true,
                };
                TopicId {
                    index: i as u32,
                    generation,
                }
            }
            None => {
                self.topics.push(Topic {
                    name: name.to_string(),
                    generation: 0,
                    next_offset: 0,
                    queue: VecDeque::new(),
                    alive: true,
                });
                TopicId {
                    index: (self.topics.len() - 1) as u32,
                    generation: 0,
                }
            }
        };
        self.by_name.insert(name.to_string(), id);
        id
    }

    /// Delete a topic, returning any messages still pending (the caller
    /// decides whether they are lost — baseline OpenWhisk — or re-routed
    /// — HPC-Whisk).
    pub fn delete_topic(&mut self, id: TopicId) -> Vec<Message<T>> {
        let t = self.topic_mut(id);
        t.alive = false;
        let name = t.name.clone();
        let drained = t.queue.drain(..).collect();
        self.by_name.remove(&name);
        drained
    }

    /// Look up a live topic by name.
    pub fn topic_by_name(&self, name: &str) -> Option<TopicId> {
        self.by_name.get(name).copied()
    }

    /// True iff `id` refers to a live topic.
    pub fn is_live(&self, id: TopicId) -> bool {
        self.topics
            .get(id.index as usize)
            .is_some_and(|t| t.alive && t.generation == id.generation)
    }

    /// Append a message; returns its offset within the topic.
    pub fn produce(&mut self, id: TopicId, now: SimTime, payload: T) -> u64 {
        let t = self.topic_mut(id);
        let offset = t.next_offset;
        t.next_offset += 1;
        t.queue.push_back(Message {
            offset,
            produced_at: now,
            payload,
        });
        offset
    }

    /// Pull up to `max` messages in FIFO order, removing them from the
    /// topic (modelled as fetch+commit; the in-flight window lives in the
    /// invoker's internal buffer, as in the paper). Allocates nothing:
    /// the messages move out of the topic as the iterator is advanced,
    /// and whatever of them it has not yielded when dropped is removed
    /// all the same.
    pub fn drain(&mut self, id: TopicId, max: usize) -> impl Iterator<Item = Message<T>> + '_ {
        let t = self.topic_mut(id);
        let n = max.min(t.queue.len());
        t.queue.drain(..n)
    }

    /// [`Broker::drain`] collected into a `Vec`.
    pub fn fetch(&mut self, id: TopicId, max: usize) -> Vec<Message<T>> {
        self.drain(id, max).collect()
    }

    /// Move every pending message from `from` to `to`, preserving order
    /// and original `produced_at`; returns how many moved. This is the
    /// controller's half of the drain protocol.
    pub fn move_all(&mut self, from: TopicId, to: TopicId, _now: SimTime) -> usize {
        assert_ne!(from, to, "move_all onto itself");
        let msgs: Vec<Message<T>> = {
            let t = self.topic_mut(from);
            t.queue.drain(..).collect()
        };
        let n = msgs.len();
        let dst = self.topic_mut(to);
        for m in msgs {
            let offset = dst.next_offset;
            dst.next_offset += 1;
            dst.queue.push_back(Message {
                offset,
                produced_at: m.produced_at,
                payload: m.payload,
            });
        }
        n
    }

    /// Depth/age diagnostics.
    pub fn stats(&self, id: TopicId, now: SimTime) -> TopicStats {
        let t = self.topic_ref(id);
        TopicStats {
            depth: t.queue.len(),
            oldest_age: t
                .queue
                .front()
                .map(|m| now.since(m.produced_at))
                .unwrap_or(SimDuration::ZERO),
            total_produced: t.next_offset,
        }
    }

    /// Pending message count (0 for dead topics).
    pub fn depth(&self, id: TopicId) -> usize {
        self.topics
            .get(id.index as usize)
            .filter(|t| t.alive && t.generation == id.generation)
            .map(|t| t.queue.len())
            .unwrap_or(0)
    }

    /// Number of live topics.
    pub fn n_topics(&self) -> usize {
        self.by_name.len()
    }

    fn topic_mut(&mut self, id: TopicId) -> &mut Topic<T> {
        let t = self
            .topics
            .get_mut(id.index as usize)
            .expect("TopicId out of range");
        assert!(
            t.alive && t.generation == id.generation,
            "stale TopicId for topic {:?}",
            t.name
        );
        t
    }

    fn topic_ref(&self, id: TopicId) -> &Topic<T> {
        let t = self
            .topics
            .get(id.index as usize)
            .expect("TopicId out of range");
        assert!(
            t.alive && t.generation == id.generation,
            "stale TopicId for topic {:?}",
            t.name
        );
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t0() -> SimTime {
        SimTime::ZERO
    }

    #[test]
    fn fifo_and_offsets() {
        let mut b: Broker<u32> = Broker::new();
        let a = b.create_topic("a");
        assert_eq!(b.produce(a, t0(), 10), 0);
        assert_eq!(b.produce(a, t0(), 11), 1);
        assert_eq!(b.produce(a, t0(), 12), 2);
        let got = b.fetch(a, 2);
        assert_eq!(got.iter().map(|m| m.payload).collect::<Vec<_>>(), [10, 11]);
        assert_eq!(b.depth(a), 1);
        let rest = b.fetch(a, 10);
        assert_eq!(rest[0].payload, 12);
        assert_eq!(rest[0].offset, 2);
    }

    #[test]
    fn move_preserves_order_and_produced_at() {
        let mut b: Broker<&str> = Broker::new();
        let from = b.create_topic("from");
        let to = b.create_topic("to");
        b.produce(to, SimTime::from_secs(1), "existing");
        b.produce(from, SimTime::from_secs(2), "x");
        b.produce(from, SimTime::from_secs(3), "y");
        let n = b.move_all(from, to, SimTime::from_secs(9));
        assert_eq!(n, 2);
        assert_eq!(b.depth(from), 0);
        let got = b.fetch(to, 10);
        assert_eq!(
            got.iter().map(|m| m.payload).collect::<Vec<_>>(),
            ["existing", "x", "y"]
        );
        // produced_at survives the move (latency accounting).
        assert_eq!(got[1].produced_at, SimTime::from_secs(2));
    }

    #[test]
    fn drain_dropped_early_removes_its_whole_range() {
        let mut b: Broker<u32> = Broker::new();
        let a = b.create_topic("a");
        for v in 0..5 {
            b.produce(a, t0(), v);
        }
        assert_eq!(b.drain(a, 3).next().map(|m| m.payload), Some(0));
        assert_eq!(b.depth(a), 2);
        assert_eq!(b.fetch(a, 10)[0].payload, 3);
    }

    #[test]
    fn delete_returns_pending_and_invalidates_id() {
        let mut b: Broker<u32> = Broker::new();
        let a = b.create_topic("a");
        b.produce(a, t0(), 1);
        b.produce(a, t0(), 2);
        let orphans = b.delete_topic(a);
        assert_eq!(orphans.len(), 2);
        assert!(!b.is_live(a));
        assert_eq!(b.depth(a), 0);
        // Name can be reused; the old id stays dead.
        let a2 = b.create_topic("a");
        assert!(b.is_live(a2));
        assert!(!b.is_live(a));
        assert_ne!(a, a2);
    }

    #[test]
    #[should_panic]
    fn stale_id_produce_panics() {
        let mut b: Broker<u32> = Broker::new();
        let a = b.create_topic("a");
        b.delete_topic(a);
        b.create_topic("a");
        b.produce(a, t0(), 1); // stale generation
    }

    #[test]
    fn stats_report_depth_and_age() {
        let mut b: Broker<u32> = Broker::new();
        let a = b.create_topic("a");
        b.produce(a, SimTime::from_secs(5), 1);
        b.produce(a, SimTime::from_secs(8), 2);
        let s = b.stats(a, SimTime::from_secs(11));
        assert_eq!(s.depth, 2);
        assert_eq!(s.oldest_age, SimDuration::from_secs(6));
        assert_eq!(s.total_produced, 2);
    }

    #[test]
    fn duplicate_topic_name_panics() {
        let mut b: Broker<u32> = Broker::new();
        b.create_topic("x");
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            b.create_topic("x");
        }));
        assert!(r.is_err());
    }

    #[test]
    fn topic_by_name_lookup() {
        let mut b: Broker<u32> = Broker::new();
        let a = b.create_topic("inv-7");
        assert_eq!(b.topic_by_name("inv-7"), Some(a));
        assert_eq!(b.topic_by_name("nope"), None);
        assert_eq!(b.n_topics(), 1);
    }

    /// Model-based property test: an arbitrary interleaving of produce /
    /// fetch / move operations across 3 topics must never lose, duplicate
    /// or reorder messages relative to a straightforward VecDeque model.
    #[derive(Debug, Clone)]
    enum Op {
        Produce(u8, u16),
        Fetch(u8, u8),
        MoveAll(u8, u8),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u8..3, any::<u16>()).prop_map(|(t, v)| Op::Produce(t, v)),
            (0u8..3, 0u8..8).prop_map(|(t, n)| Op::Fetch(t, n)),
            (0u8..3, 0u8..3).prop_map(|(a, b)| Op::MoveAll(a, b)),
        ]
    }

    proptest! {
        #[test]
        fn prop_model_equivalence(ops in proptest::collection::vec(op_strategy(), 0..120)) {
            let mut b: Broker<u16> = Broker::new();
            let ids = [
                b.create_topic("t0"),
                b.create_topic("t1"),
                b.create_topic("t2"),
            ];
            let mut model: Vec<VecDeque<u16>> = vec![VecDeque::new(); 3];
            let mut fetched_real: Vec<u16> = vec![];
            let mut fetched_model: Vec<u16> = vec![];

            for op in ops {
                match op {
                    Op::Produce(t, v) => {
                        b.produce(ids[t as usize], t0(), v);
                        model[t as usize].push_back(v);
                    }
                    Op::Fetch(t, n) => {
                        let got = b.fetch(ids[t as usize], n as usize);
                        for m in got {
                            fetched_real.push(m.payload);
                        }
                        for _ in 0..n {
                            if let Some(v) = model[t as usize].pop_front() {
                                fetched_model.push(v);
                            }
                        }
                    }
                    Op::MoveAll(a, bidx) => {
                        if a != bidx {
                            b.move_all(ids[a as usize], ids[bidx as usize], t0());
                            let drained: Vec<u16> = model[a as usize].drain(..).collect();
                            model[bidx as usize].extend(drained);
                        }
                    }
                }
            }
            prop_assert_eq!(&fetched_real, &fetched_model);
            for t in 0..3 {
                let remaining: Vec<u16> =
                    b.fetch(ids[t], usize::MAX).into_iter().map(|m| m.payload).collect();
                let model_remaining: Vec<u16> = model[t].iter().copied().collect();
                prop_assert_eq!(remaining, model_remaining);
            }
        }

        /// `drain` is `fetch` without the `Vec`: over the same stream of
        /// operations both hand out the same messages (payload, offset
        /// and original `produced_at`, across moves too) and leave the
        /// same depths.
        #[test]
        fn prop_drain_equals_fetch(ops in proptest::collection::vec(op_strategy(), 0..120)) {
            let mut fetched: Broker<u16> = Broker::new();
            let mut drained: Broker<u16> = Broker::new();
            let f_ids = ["t0", "t1", "t2"].map(|n| fetched.create_topic(n));
            let d_ids = ["t0", "t1", "t2"].map(|n| drained.create_topic(n));
            for (step, op) in ops.into_iter().enumerate() {
                let now = SimTime::from_millis(step as u64);
                match op {
                    Op::Produce(t, v) => {
                        let offset = fetched.produce(f_ids[t as usize], now, v);
                        prop_assert_eq!(drained.produce(d_ids[t as usize], now, v), offset);
                    }
                    Op::Fetch(t, n) => {
                        let want = fetched.fetch(f_ids[t as usize], n as usize);
                        let got: Vec<_> = drained.drain(d_ids[t as usize], n as usize).collect();
                        prop_assert_eq!(got, want);
                    }
                    Op::MoveAll(a, b) if a != b => {
                        let moved = fetched.move_all(f_ids[a as usize], f_ids[b as usize], now);
                        prop_assert_eq!(
                            drained.move_all(d_ids[a as usize], d_ids[b as usize], now),
                            moved
                        );
                    }
                    Op::MoveAll(..) => {}
                }
                for t in 0..3 {
                    prop_assert_eq!(drained.depth(d_ids[t]), fetched.depth(f_ids[t]));
                }
            }
        }

        /// Offsets within a topic are strictly increasing across fetches.
        #[test]
        fn prop_offsets_increasing(batches in proptest::collection::vec(1usize..10, 1..20)) {
            let mut b: Broker<()> = Broker::new();
            let a = b.create_topic("a");
            let mut last: Option<u64> = None;
            for n in batches {
                for _ in 0..n {
                    b.produce(a, t0(), ());
                }
                for m in b.fetch(a, n) {
                    if let Some(prev) = last {
                        prop_assert!(m.offset > prev);
                    }
                    last = Some(m.offset);
                }
            }
        }
    }
}
