//! The live plane's message vocabulary ([`Request`], [`Envelope`],
//! [`Produce`], [`ProduceBatch`]) and the shared **fast lane**.
//!
//! The per-invoker home queues are the lock-free rings of
//! [`crate::ring`]. The fast lane only carries the backlog a draining
//! invoker moves off its ring (§III-C) and the rare request that raced
//! that drain; every invoker pass reads it first. It is a `Mutex` over a
//! `VecDeque` with an atomic length beside it, so a pass over the empty
//! lane — nearly every pass — takes no lock. Nobody parks on it: an idle
//! invoker parks on its home ring and re-polls the lane every
//! `GatewayConfig::park`, so the lane has no condvar and no wake.
//!
//! It is deliberately not a ring. A bounded ring would give the drain a
//! refusal path (a move can fail only once shutdown has closed the
//! lane), and every invoker consuming it would need a second,
//! multi-consumer pop protocol beside the ring's single-consumer one.
//!
//! Semantics mirror `crates/mq`'s `Topic` (the DES-plane Kafka model),
//! so the two planes implement *one* protocol:
//!
//! * every queue assigns strictly increasing **offsets** at produce
//!   time (`mq::Topic::produce`);
//! * a message moved to another queue during a drain gets a **fresh
//!   offset** there while its **`produced_at` is preserved**
//!   (`mq::Topic::move_all_to`) — end-to-end latency accounting survives
//!   the fast-lane hop;
//! * close-and-drain is atomic with produce, so the drain protocol has
//!   no window in which a request can vanish: a producer either lands
//!   the message in the drained batch or gets it back and reroutes.
//!
//! A proptest below drives the lane and `mq::Topic` through the same
//! close-and-move hops and drains and asserts identical order, offsets
//! and stamps.

use crate::action::ActionId;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use telemetry::flight::{self, EventKind};
use telemetry::Gauge;

/// One invocation request as admitted by the controller.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    /// Controller-assigned request id (unique per gateway).
    pub id: u64,
    /// The action to execute.
    pub action: ActionId,
    /// Routing key (hash of the function name).
    pub key: u64,
}

/// A request inside a queue, stamped with the queue's offset and the
/// original admission time.
#[derive(Debug, Clone, Copy)]
pub struct Envelope {
    /// Per-queue, strictly increasing sequence number (fresh per hop).
    pub offset: u64,
    /// Wall-clock instant of the *original* admission; survives
    /// fast-lane moves, exactly like `mq::Message::produced_at`.
    pub produced_at: Instant,
    /// The admitted request.
    pub req: Request,
}

/// Outcome of a bounded produce.
#[derive(Debug)]
pub enum Produce {
    /// Enqueued under this offset.
    Ok(u64),
    /// The queue is at its admission bound; the request is handed back.
    Full(Request),
    /// The queue is closed (owner draining/gone); the request is handed
    /// back for rerouting to the fast lane.
    Closed(Request),
}

/// Outcome of a batched produce
/// ([`RingQueue::produce_batch`](crate::ring::RingQueue::produce_batch)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProduceBatch {
    /// The first `n` requests of the batch were admitted under
    /// consecutive offsets (`n` is less than the batch length only if
    /// the admission bound was hit; the caller sheds the rest).
    Admitted(usize),
    /// The queue is closed; nothing was admitted and the caller
    /// reroutes the whole batch to the fast lane.
    Closed,
}

/// Flight-recorder tag of the fast lane's events (rings use their
/// invoker id).
const FAST_LANE_TAG: u64 = u64::MAX;

struct Lane {
    q: VecDeque<Envelope>,
    next_offset: u64,
    closed: bool,
    /// Deepest backlog ever observed (one compare per produce under the
    /// lock it already holds).
    highwater: usize,
    /// Next depth at which a flight-recorder high-water event fires
    /// (doubles from 16 so a deepening lane logs O(log depth) events).
    hw_report: usize,
}

/// The shared MPMC fast lane: unbounded, offset-stamped, closable once
/// at shutdown.
pub(crate) struct FastLane {
    inner: Mutex<Lane>,
    /// `inner.q.len()`, stored under the lock and read without it: an
    /// invoker pass over an empty lane skips the mutex. It publishes no
    /// data — a nonzero read only sends the reader to the lock, whose
    /// acquire is what makes the envelopes visible — and a stale zero
    /// only delays the pop to the invoker's next pass, at most `park`
    /// later. (Release stores / Acquire loads all the same.)
    len: AtomicUsize,
    /// The plane-wide queue high-water gauge.
    gauge: Arc<Gauge>,
}

impl FastLane {
    /// An empty, open lane reporting its depth high-water to `gauge`.
    pub(crate) fn new(gauge: Arc<Gauge>) -> Self {
        FastLane {
            inner: Mutex::new(Lane {
                q: VecDeque::new(),
                next_offset: 0,
                closed: false,
                highwater: 0,
                hw_report: 16,
            }),
            len: AtomicUsize::new(0),
            gauge,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Lane> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Re-produce an envelope moved from another queue: fresh offset
    /// here, original `produced_at` preserved (`mq::Topic::move_all_to`).
    /// Errs with the envelope once the lane is closed (after shutdown).
    pub(crate) fn produce_moved(&self, env: Envelope) -> Result<u64, Envelope> {
        let mut g = self.lock();
        if g.closed {
            return Err(env);
        }
        let offset = g.next_offset;
        g.next_offset += 1;
        g.q.push_back(Envelope { offset, ..env });
        let len = g.q.len();
        self.len.store(len, Ordering::Release);
        if len > g.highwater {
            g.highwater = len;
            self.gauge.raise(len as i64);
            if len >= g.hw_report {
                flight::record(EventKind::QueueHighWater, FAST_LANE_TAG, len as u64);
                while g.hw_report <= len {
                    g.hw_report *= 2;
                }
            }
        }
        Ok(offset)
    }

    /// Pop up to `max` of the oldest envelopes into `out` under one
    /// lock, in FIFO order with offsets and stamps intact; returns how
    /// many. Takes no lock while the lane reads empty.
    pub(crate) fn try_pop_batch(&self, out: &mut Vec<Envelope>, max: usize) -> usize {
        if self.len.load(Ordering::Acquire) == 0 {
            return 0;
        }
        let mut g = self.lock();
        let n = max.min(g.q.len());
        out.extend(g.q.drain(..n));
        self.len.store(g.q.len(), Ordering::Release);
        n
    }

    /// Atomically close the lane and take every pending envelope; every
    /// later `produce_moved` errs. Idempotent.
    pub(crate) fn close_and_drain(&self) -> Vec<Envelope> {
        let mut g = self.lock();
        g.closed = true;
        self.len.store(0, Ordering::Release);
        g.q.drain(..).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::RingQueue;
    use proptest::collection;
    use proptest::prelude::*;
    use simcore::SimTime;
    use std::time::Duration;

    fn req(id: u64) -> Request {
        Request {
            id,
            action: ActionId(0),
            key: id,
        }
    }

    fn lane() -> FastLane {
        FastLane::new(Arc::new(Gauge::new()))
    }

    fn moved(id: u64, produced_at: Instant) -> Envelope {
        Envelope {
            offset: 42,
            produced_at,
            req: req(id),
        }
    }

    #[test]
    fn batch_pop_preserves_order_offsets_and_cap() {
        let q = lane();
        let t = Instant::now();
        for id in 0..10u64 {
            q.produce_moved(moved(id, t)).unwrap();
        }
        let mut out = Vec::new();
        assert_eq!(q.try_pop_batch(&mut out, 0), 0, "max=0 is a no-op");
        assert_eq!(q.try_pop_batch(&mut out, 4), 4);
        assert_eq!(q.try_pop_batch(&mut out, 100), 6, "capped by depth");
        assert_eq!(q.try_pop_batch(&mut out, 4), 0, "empty lane");
        let got: Vec<(u64, u64)> = out.iter().map(|e| (e.offset, e.req.id)).collect();
        let want: Vec<(u64, u64)> = (0..10u64).map(|i| (i, i)).collect();
        assert_eq!(got, want);
        // A batch after a refill continues the offset sequence.
        q.produce_moved(moved(10, t)).unwrap();
        out.clear();
        q.try_pop_batch(&mut out, 1);
        assert_eq!((out[0].offset, out[0].req.id), (10, 10));
        assert_eq!(q.gauge.get(), 10, "high-water of the deepest backlog");
    }

    #[test]
    fn close_is_atomic_and_idempotent() {
        let q = lane();
        let t = Instant::now();
        q.produce_moved(moved(0, t)).unwrap();
        q.produce_moved(moved(1, t)).unwrap();
        assert_eq!(q.close_and_drain().len(), 2);
        assert!(q.close_and_drain().is_empty());
        let refused = q.produce_moved(moved(2, t)).expect_err("closed lane");
        assert_eq!(refused.req.id, 2, "the envelope is handed back");
        assert_eq!(q.try_pop_batch(&mut Vec::new(), 8), 0);
    }

    #[test]
    fn moved_envelope_gets_fresh_offset_keeps_produced_at() {
        let q = lane();
        let t0 = Instant::now();
        let stamped = t0 - Duration::from_millis(5);
        assert_eq!(q.produce_moved(moved(9, t0)).unwrap(), 0);
        assert_eq!(
            q.produce_moved(moved(1, stamped)).unwrap(),
            1,
            "fresh offset"
        );
        let mut out = Vec::new();
        q.try_pop_batch(&mut out, 2);
        assert_eq!((out[1].offset, out[1].req.id), (1, 1));
        assert_eq!(out[1].produced_at, stamped, "produced_at survives the move");
    }

    /// One op stream through the gateway's pairing — invoker rings
    /// draining into the lane — and through `mq` topics: `0` produces to
    /// the current invoker, `1` drains the lane `count` times at `k`,
    /// `2` sigterms the invoker (close-and-move; a fresh invoker takes
    /// over), `3` produces straight to the lane (the raced-produce
    /// fallback). Every drain and the final close must agree on ids,
    /// offsets and `produced_at`.
    fn run_case(ops: &[(u8, u8)], k: usize) {
        let fast = lane();
        let mut ring = RingQueue::new(256);
        let mut b_fast: mq::Topic<u64> = mq::Topic::new();
        let mut b_inv = mq::Topic::new();
        let t0 = Instant::now();
        let mut next_id = 0u64;
        let mut batch = Vec::new();
        let check = |ours: &[Envelope], theirs: Vec<mq::Message<u64>>| {
            assert_eq!(ours.len(), theirs.len());
            for (e, m) in ours.iter().zip(&theirs) {
                assert_eq!((e.offset, e.req.id), (m.offset, m.payload));
                let stamp = Duration::from_millis(m.produced_at.as_millis());
                assert_eq!(e.produced_at - t0, stamp, "produced_at survives the hop");
            }
        };
        for &(op, count) in ops {
            match op {
                0 | 3 => {
                    for _ in 0..count {
                        let at = t0 + Duration::from_millis(next_id);
                        let b_at = SimTime::from_millis(next_id);
                        if op == 0 {
                            assert!(matches!(ring.produce(req(next_id), at), Produce::Ok(_)));
                            b_inv.produce(b_at, next_id);
                        } else {
                            fast.produce_moved(moved(next_id, at)).unwrap();
                            b_fast.produce(b_at, next_id);
                        }
                        next_id += 1;
                    }
                }
                1 => {
                    for _ in 0..count {
                        batch.clear();
                        fast.try_pop_batch(&mut batch, k);
                        check(&batch, b_fast.drain(k).collect());
                    }
                }
                _ => {
                    let backlog = ring.close_and_drain();
                    let n = b_inv.move_all_to(&mut b_fast);
                    assert_eq!(backlog.len(), n);
                    for env in backlog {
                        fast.produce_moved(env).unwrap();
                    }
                    ring = RingQueue::new(256);
                    b_inv = mq::Topic::new();
                }
            }
        }
        check(&fast.close_and_drain(), b_fast.drain(usize::MAX).collect());
        assert!(fast.produce_moved(moved(next_id, t0)).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        /// The lane ≡ the `mq` fast-lane topic across close-and-move
        /// hops and batched drains at k ∈ {1, 4, 32}.
        #[test]
        fn differential_against_mq_broker(
            ops in collection::vec((0u8..4, 1u8..6), 1..48),
        ) {
            for k in [1usize, 4, 32] {
                run_case(&ops, k);
            }
        }
    }
}
