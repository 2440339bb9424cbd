//! Differential proptests for the lock-free MPSC ring: [`RingQueue`]
//! must be protocol-identical to `mq::Topic` (the DES-plane Kafka
//! model all queue semantics are defined against). The topic is
//! unbounded, so the bounded legs mirror the ring's admission bound on
//! it: the topic takes a produce iff its depth is below the ring's
//! capacity, and the ring's `Ok`/`Full` must agree.
//!
//! Two properties:
//!
//! 1. **Equivalence** — for random interleavings of produces and
//!    batched drains at batch sizes {1, 4, 32}, the ring yields the
//!    identical envelope sequence (ids, offsets, `produced_at` stamps,
//!    `Ok`/`Full` outcomes) as the topic, including the close-and-move
//!    sigterm hop (the lane side of the hop, with its fresh offsets, is
//!    `queue.rs`'s `differential_against_mq_broker`).
//! 2. **Wraparound / full-ring** — through a deliberately tiny ring
//!    forced around its buffer many times, a producer refused with
//!    `ring_full` that retries after a drain never loses an item and
//!    never reorders its stream, and every drained offset is the one
//!    the topic's drain returns.

use gateway::{ActionId, Envelope, Produce, Request, RingQueue};
use proptest::collection;
use proptest::prelude::*;
use simcore::SimTime;
use std::time::{Duration, Instant};

fn req(id: u64) -> Request {
    Request {
        id,
        action: ActionId(0),
        key: id,
    }
}

/// Produce request `id`, stamped `t0 + id` ms, to the ring and — iff
/// the topic's depth is below the admission bound `cap` — to the
/// topic; the ring's outcome must agree. Returns whether it landed.
fn mirror_produce(
    ring: &RingQueue,
    topic: &mut mq::Topic<u64>,
    cap: usize,
    id: u64,
    t0: Instant,
) -> bool {
    let room = topic.len() < cap;
    match ring.produce(req(id), t0 + Duration::from_millis(id)) {
        Produce::Ok(offset) => {
            assert!(room, "ring admitted {id} past the topic's bound");
            let t_offset = topic.produce(SimTime::from_millis(id), id);
            assert_eq!(offset, t_offset, "offsets agree");
            true
        }
        Produce::Full(r) => {
            assert!(!room, "ring refused {id} below the topic's bound");
            assert_eq!(r.id, id, "refused request handed back");
            false
        }
        Produce::Closed(r) => panic!("open ring refused {} as closed", r.id),
    }
}

/// The ring's drained batch against the topic's drain of the same
/// size: ids, offsets and `produced_at` stamps.
fn assert_same(batch: &[Envelope], topic: &mut mq::Topic<u64>, k: usize, t0: Instant) {
    let drained: Vec<_> = topic.drain(k).collect();
    assert_eq!(batch.len(), drained.len());
    for (e, m) in batch.iter().zip(&drained) {
        assert_eq!((e.offset, e.req.id), (m.offset, m.payload));
        assert_eq!(
            e.produced_at - t0,
            Duration::from_millis(m.produced_at.as_millis())
        );
    }
}

/// Drive the ring and a topic through one op stream; every produce
/// outcome and drain step must agree.
fn run_case(ops: &[(bool, u8)], k: usize, cap: usize) {
    let ring = RingQueue::new(cap);
    let mut topic: mq::Topic<u64> = mq::Topic::new();
    let t0 = Instant::now();
    let mut next_id = 0u64;
    let mut batch: Vec<Envelope> = Vec::new();

    for &(is_produce, count) in ops {
        for _ in 0..count {
            if is_produce {
                mirror_produce(&ring, &mut topic, cap, next_id, t0);
                next_id += 1;
            } else {
                batch.clear();
                ring.try_pop_batch(&mut batch, k);
                assert_same(&batch, &mut topic, k, t0);
            }
        }
    }

    // Tail: the sigterm hop. The ring's close-and-drain hands back its
    // backlog in order with stamps intact, exactly what the topic's
    // `move_all_to` moves; the closed ring refuses and hands back.
    let mut fast_topic = mq::Topic::new();
    let leftover = ring.close_and_drain();
    assert!(ring.is_closed());
    assert_eq!(leftover.len(), topic.move_all_to(&mut fast_topic));
    for (e, m) in leftover.iter().zip(fast_topic.drain(usize::MAX)) {
        assert_eq!(e.req.id, m.payload);
        assert_eq!(
            e.produced_at - t0,
            Duration::from_millis(m.produced_at.as_millis())
        );
    }
    match ring.produce(req(next_id), t0) {
        Produce::Closed(r) => assert_eq!(r.id, next_id),
        other => panic!("closed ring answered {other:?}"),
    }
}

/// Wraparound stress: a tiny ring (capacity below the op count by
/// orders of magnitude) with a retry-after-drain producer. Every `Full`
/// refusal hands the request back; the producer holds it and re-offers
/// the *same* request after the next drain — the blocked-producer
/// protocol of the gateway's burst path. The consumed stream must be
/// exactly 0..n in order, through many buffer laps, under the offsets
/// the topic's drain returns.
fn run_wraparound(cap: usize, drains: &[u8], total: u64) {
    let ring = RingQueue::new(cap);
    let mut topic: mq::Topic<u64> = mq::Topic::new();
    let t0 = Instant::now();
    let mut next = 0u64;
    let mut blocked: Option<u64> = None;
    let mut consumed = 0u64;
    let mut out: Vec<Envelope> = Vec::new();
    let mut di = 0usize;
    while consumed < total {
        // Produce until refused (or exhausted).
        while next < total || blocked.is_some() {
            let id = blocked.take().unwrap_or(next);
            if !mirror_produce(&ring, &mut topic, cap, id, t0) {
                blocked = Some(id);
                break;
            }
            if id == next {
                next += 1;
            }
        }
        // Drain a schedule-determined batch.
        let k = (drains[di % drains.len()] as usize).max(1);
        di += 1;
        out.clear();
        ring.try_pop_batch(&mut out, k);
        assert_same(&out, &mut topic, k, t0);
        for env in &out {
            assert_eq!(env.req.id, consumed, "no loss, no reorder across laps");
            assert_eq!(env.offset, consumed, "offsets strictly sequential");
            consumed += 1;
        }
    }
    assert_eq!(ring.total_produced(), total);
    assert!(ring.highwater() <= cap);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]
    /// ops: (produce?, how many); drains pop `count` batches of size k.
    /// Unbounded leg: ring ≡ topic at every step. (The name is kept
    /// from the retired mutex-queue and broker oracles; the topic is
    /// the oracle.)
    #[test]
    fn ring_equals_workqueue_and_broker(
        ops in collection::vec((any::<bool>(), 1u8..6), 1..48),
    ) {
        for k in [1usize, 4, 32] {
            // 4096 >> max outstanding (47 ops x 5), so nothing is refused.
            run_case(&ops, k, 4096);
        }
    }

    /// Bounded leg: the topic takes a produce iff its depth is below the
    /// ring's capacity; the ring's `Ok`/`Full` outcomes and refused
    /// requests agree exactly. (Named as the unbounded leg is.)
    #[test]
    fn bounded_ring_equals_bounded_workqueue(
        ops in collection::vec((any::<bool>(), 1u8..6), 1..48),
        cap in 1usize..12,
    ) {
        for k in [1usize, 4, 32] {
            run_case(&ops, k, cap);
        }
    }

    /// Full-ring/wraparound: a producer refused on `ring_full` that
    /// retries after a drain never loses or reorders its stream.
    #[test]
    fn full_ring_retry_never_loses_or_reorders(
        cap in 1usize..9,
        drains in collection::vec(1u8..7, 1..16),
    ) {
        run_wraparound(cap, &drains, 400);
    }
}
