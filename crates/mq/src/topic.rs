//! One topic: an ordered log with per-topic offsets and atomic moves.

use simcore::SimTime;
use std::collections::VecDeque;

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

/// A Kafka-like topic: a FIFO log its owner produces to and drains.
///
/// ```
/// use hpcwhisk_mq::Topic;
/// use simcore::SimTime;
///
/// let mut invoker0: Topic<&str> = Topic::new();
/// let mut fast = Topic::new();
/// invoker0.produce(SimTime::ZERO, "req-a");
/// invoker0.produce(SimTime::ZERO, "req-b");
/// // Invoker 0 is draining: controller moves the unpulled remainder.
/// assert_eq!(invoker0.move_all_to(&mut fast), 2);
/// let got: Vec<_> = fast.drain(10).collect();
/// assert_eq!(got.len(), 2);
/// assert_eq!(got[0].payload, "req-a"); // FIFO preserved across the move
/// ```
#[derive(Debug)]
pub struct Topic<T> {
    next_offset: u64,
    queue: VecDeque<Message<T>>,
}

impl<T> Default for Topic<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Topic<T> {
    /// An empty topic.
    pub fn new() -> Self {
        Topic {
            next_offset: 0,
            queue: VecDeque::new(),
        }
    }

    /// Append a message; returns its offset within the topic.
    pub fn produce(&mut self, now: SimTime, payload: T) -> u64 {
        let offset = self.next_offset;
        self.next_offset += 1;
        self.queue.push_back(Message {
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
    pub fn drain(&mut self, max: usize) -> impl Iterator<Item = Message<T>> + '_ {
        let n = max.min(self.queue.len());
        self.queue.drain(..n)
    }

    /// Move every pending message onto `to`, preserving order and
    /// original `produced_at`; returns how many moved. This is the
    /// controller's half of the drain protocol. Allocates nothing but
    /// what `to` needs to hold them.
    pub fn move_all_to(&mut self, to: &mut Topic<T>) -> usize {
        let n = self.queue.len();
        for m in self.queue.drain(..) {
            to.produce(m.produced_at, m.payload);
        }
        n
    }

    /// Pending message count.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// No message pending.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t0() -> SimTime {
        SimTime::ZERO
    }

    fn payloads<T: Copy>(t: &mut Topic<T>, max: usize) -> Vec<T> {
        t.drain(max).map(|m| m.payload).collect()
    }

    #[test]
    fn fifo_and_offsets() {
        let mut a: Topic<u32> = Topic::new();
        assert_eq!(a.produce(t0(), 10), 0);
        assert_eq!(a.produce(t0(), 11), 1);
        assert_eq!(a.produce(t0(), 12), 2);
        assert_eq!(payloads(&mut a, 2), [10, 11]);
        assert_eq!(a.len(), 1);
        let rest: Vec<_> = a.drain(10).collect();
        assert_eq!(rest[0].payload, 12);
        assert_eq!(rest[0].offset, 2);
        assert!(a.is_empty());
    }

    #[test]
    fn move_preserves_order_and_produced_at() {
        let mut from: Topic<&str> = Topic::new();
        let mut to = Topic::new();
        to.produce(SimTime::from_secs(1), "existing");
        from.produce(SimTime::from_secs(2), "x");
        from.produce(SimTime::from_secs(3), "y");
        assert_eq!(from.move_all_to(&mut to), 2);
        assert_eq!(from.len(), 0);
        let got: Vec<_> = to.drain(10).collect();
        assert_eq!(
            got.iter().map(|m| m.payload).collect::<Vec<_>>(),
            ["existing", "x", "y"]
        );
        // produced_at survives the move (latency accounting); the
        // offset is the destination's next.
        assert_eq!(got[1].produced_at, SimTime::from_secs(2));
        assert_eq!(got[2].offset, 2);
    }

    #[test]
    fn drain_dropped_early_removes_its_whole_range() {
        let mut a: Topic<u32> = Topic::new();
        for v in 0..5 {
            a.produce(t0(), v);
        }
        assert_eq!(a.drain(3).next().map(|m| m.payload), Some(0));
        assert_eq!(a.len(), 2);
        assert_eq!(payloads(&mut a, 10)[0], 3);
    }

    /// Model-based property test: an arbitrary interleaving of produce /
    /// drain / move operations across 3 topics must never lose, duplicate
    /// or reorder messages relative to a straightforward VecDeque model.
    #[derive(Debug, Clone)]
    enum Op {
        Produce(u8, u16),
        Drain(u8, u8),
        MoveAll(u8, u8),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u8..3, any::<u16>()).prop_map(|(t, v)| Op::Produce(t, v)),
            (0u8..3, 0u8..8).prop_map(|(t, n)| Op::Drain(t, n)),
            (0u8..3, 0u8..3).prop_map(|(a, b)| Op::MoveAll(a, b)),
        ]
    }

    proptest! {
        #[test]
        fn prop_model_equivalence(ops in proptest::collection::vec(op_strategy(), 0..120)) {
            let mut topics: [Topic<u16>; 3] = Default::default();
            let mut model: Vec<VecDeque<u16>> = vec![VecDeque::new(); 3];
            let mut drained_real: Vec<u16> = vec![];
            let mut drained_model: Vec<u16> = vec![];

            for op in ops {
                match op {
                    Op::Produce(t, v) => {
                        topics[t as usize].produce(t0(), v);
                        model[t as usize].push_back(v);
                    }
                    Op::Drain(t, n) => {
                        drained_real.extend(payloads(&mut topics[t as usize], n as usize));
                        for _ in 0..n {
                            if let Some(v) = model[t as usize].pop_front() {
                                drained_model.push(v);
                            }
                        }
                    }
                    Op::MoveAll(a, b) => {
                        if a != b {
                            let mut from = std::mem::take(&mut topics[a as usize]);
                            from.move_all_to(&mut topics[b as usize]);
                            topics[a as usize] = from;
                            let moved: Vec<u16> = model[a as usize].drain(..).collect();
                            model[b as usize].extend(moved);
                        }
                    }
                }
            }
            prop_assert_eq!(&drained_real, &drained_model);
            for t in 0..3 {
                let remaining = payloads(&mut topics[t], usize::MAX);
                let model_remaining: Vec<u16> = model[t].iter().copied().collect();
                prop_assert_eq!(remaining, model_remaining);
            }
        }

        /// Offsets within a topic are strictly increasing across drains.
        #[test]
        fn prop_offsets_increasing(batches in proptest::collection::vec(1usize..10, 1..20)) {
            let mut a: Topic<()> = Topic::new();
            let mut last: Option<u64> = None;
            for n in batches {
                for _ in 0..n {
                    a.produce(t0(), ());
                }
                for m in a.drain(n) {
                    if let Some(prev) = last {
                        prop_assert!(m.offset > prev);
                    }
                    last = Some(m.offset);
                }
            }
        }
    }
}
