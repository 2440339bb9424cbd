//! The live plane's message vocabulary ([`Request`], [`Envelope`],
//! [`Produce`]) and [`WorkQueue`], the Mutex+Condvar queue behind the
//! shared MPMC fast lane. The per-invoker home queues are the lock-free
//! rings of [`crate::ring`]; the fast lane is off the hot path (it only
//! carries the backlog of a draining invoker), every invoker consumes
//! it, and a mutex is the simplest thing that is correct there.
//! `WorkQueue` is also the oracle the ring is differentially tested
//! against (`tests/ring_equiv.rs`, `tests/batch_equiv.rs`).
//!
//! Semantics deliberately mirror `crates/mq`'s `Broker` (the DES-plane
//! Kafka model), so the two planes implement *one* protocol:
//!
//! * every queue assigns strictly increasing **offsets** at produce
//!   time (`mq::Broker::produce`);
//! * a message moved to another queue during a drain gets a **fresh
//!   offset** there while its **`produced_at` is preserved**
//!   (`mq::Broker::move_all`) — end-to-end latency accounting survives
//!   the fast-lane hop;
//! * close-and-drain is atomic with produce, so the drain protocol has
//!   no window in which a request can vanish: a producer either lands
//!   the message in the drained batch or gets it back and reroutes.
//!
//! A unit test below drives this queue and `mq::Broker` through the
//! same operation sequence and asserts identical order/offset behaviour.

use crate::action::ActionId;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use telemetry::flight::{self, EventKind};
use telemetry::{Counter, Gauge};

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

/// Outcome of a batched produce ([`WorkQueue::produce_batch`]).
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

struct Inner {
    q: VecDeque<Envelope>,
    next_offset: u64,
    closed: bool,
    /// Consumers currently parked in [`WorkQueue::pop_timeout`].
    /// Producers skip the condvar notify entirely when nobody is
    /// parked — under load the consumer never blocks, so the hot path
    /// pays zero futex wakes.
    waiting: usize,
    /// Deepest backlog ever observed (updated under the lock a produce
    /// already holds: one compare per produce, no extra atomics until
    /// a new high-water is actually set).
    highwater: usize,
    /// Next depth at which a flight-recorder high-water event fires
    /// (doubles from 16 so a deepening queue logs O(log depth) events).
    hw_report: usize,
}

/// Optional telemetry hookup of one queue: the shared plane-wide
/// high-water gauge, the shared wake counter (each producer-issued
/// consumer notify is a potential submitter preemption — the
/// `queue_wake` source of `gateway_submit_contention_total`), plus the
/// tag (invoker id; `u64::MAX` = fast lane) used in flight-recorder
/// events.
struct QueueTelem {
    gauge: Arc<Gauge>,
    wakes: Arc<Counter>,
    tag: u64,
}

/// An ordered, offset-stamped, closable work queue (Mutex + Condvar;
/// MPSC for invoker queues, MPMC for the fast lane — consumers simply
/// share the receiver side).
pub struct WorkQueue {
    inner: Mutex<Inner>,
    ready: Condvar,
    telem: Option<QueueTelem>,
}

impl Default for WorkQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl WorkQueue {
    /// An empty, open queue.
    pub fn new() -> Self {
        WorkQueue {
            inner: Mutex::new(Inner {
                q: VecDeque::new(),
                next_offset: 0,
                closed: false,
                waiting: 0,
                highwater: 0,
                hw_report: 16,
            }),
            ready: Condvar::new(),
            telem: None,
        }
    }

    /// An empty queue that reports its depth high-water to the shared
    /// `gauge`, counts its consumer wakes on the shared `wakes`
    /// counter, and tags its flight-recorder events with `tag`.
    pub fn with_telem(gauge: Arc<Gauge>, wakes: Arc<Counter>, tag: u64) -> Self {
        let mut q = Self::new();
        q.telem = Some(QueueTelem { gauge, wakes, tag });
        q
    }

    /// Count one producer-issued consumer wake (off the lock; only
    /// reached when a consumer was actually parked).
    #[inline]
    fn note_wake(&self) {
        if let Some(t) = &self.telem {
            t.wakes.inc();
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// High-water bookkeeping after a produce grew the queue: one
    /// compare on the common path; gauge raise + flight event only when
    /// a new per-queue maximum is set (O(log depth) over a queue's
    /// life, not O(produces)).
    #[inline]
    fn note_depth(&self, g: &mut Inner) {
        let len = g.q.len();
        if len > g.highwater {
            g.highwater = len;
            if let Some(t) = &self.telem {
                t.gauge.raise(len as i64);
                if len >= g.hw_report {
                    flight::record(EventKind::QueueHighWater, t.tag, len as u64);
                    while g.hw_report <= len {
                        g.hw_report *= 2;
                    }
                }
            }
        }
    }

    /// Produce a fresh request, refusing beyond `capacity` pending
    /// messages (the admission bound). `capacity` is checked and the
    /// offset assigned under one lock, so the bound is exact.
    pub fn produce(&self, req: Request, produced_at: Instant, capacity: usize) -> Produce {
        let mut g = self.lock();
        if g.closed {
            return Produce::Closed(req);
        }
        if g.q.len() >= capacity {
            return Produce::Full(req);
        }
        let offset = g.next_offset;
        g.next_offset += 1;
        g.q.push_back(Envelope {
            offset,
            produced_at,
            req,
        });
        self.note_depth(&mut g);
        let wake = g.waiting > 0;
        drop(g);
        if wake {
            self.ready.notify_one();
            self.note_wake();
        }
        Produce::Ok(offset)
    }

    /// Produce a whole burst share under **one** lock acquisition and
    /// at most **one** consumer wake. Offsets are assigned in slice
    /// order exactly as sequential [`produce`](WorkQueue::produce)
    /// calls would assign them, the bound is enforced under the same
    /// lock (admit up to the remaining room, hand the rest back via
    /// the count), and — the part that matters on small machines — the
    /// notify fires only after the *entire* group is visible, so a
    /// parked consumer wakes once to the whole group instead of being
    /// woken (and preempting the producer) per request.
    pub fn produce_batch(
        &self,
        reqs: &[Request],
        produced_at: Instant,
        capacity: usize,
    ) -> ProduceBatch {
        let mut g = self.lock();
        if g.closed {
            return ProduceBatch::Closed;
        }
        let room = capacity.saturating_sub(g.q.len()).min(reqs.len());
        for req in &reqs[..room] {
            let offset = g.next_offset;
            g.next_offset += 1;
            g.q.push_back(Envelope {
                offset,
                produced_at,
                req: *req,
            });
        }
        self.note_depth(&mut g);
        let wake = room > 0 && g.waiting > 0;
        drop(g);
        if wake {
            self.ready.notify_one();
            self.note_wake();
        }
        ProduceBatch::Admitted(room)
    }

    /// Re-produce an envelope moved from another queue: fresh offset
    /// here, original `produced_at` preserved (`mq::Broker::move_all`).
    /// Errs with the envelope when this queue is closed.
    pub fn produce_moved(&self, env: Envelope) -> Result<u64, Envelope> {
        let mut g = self.lock();
        if g.closed {
            return Err(env);
        }
        let offset = g.next_offset;
        g.next_offset += 1;
        g.q.push_back(Envelope { offset, ..env });
        self.note_depth(&mut g);
        let wake = g.waiting > 0;
        drop(g);
        if wake {
            self.ready.notify_one();
            self.note_wake();
        }
        Ok(offset)
    }

    /// Non-blocking pop of the oldest pending envelope.
    pub fn try_pop(&self) -> Option<Envelope> {
        self.lock().q.pop_front()
    }

    /// Batched drain: pop up to `max` of the oldest pending envelopes
    /// into `out` under **one** lock acquisition, preserving FIFO order
    /// and every envelope's offset and `produced_at` stamp. Returns how
    /// many were popped. Equivalent to `max` sequential [`try_pop`]
    /// calls (the differential proptest in `tests/batch_equiv.rs` pins
    /// this down against both a `try_pop` loop and `mq::Broker::fetch`),
    /// but amortizes the synchronization over the whole batch.
    ///
    /// [`try_pop`]: WorkQueue::try_pop
    pub fn try_pop_batch(&self, out: &mut Vec<Envelope>, max: usize) -> usize {
        if max == 0 {
            return 0;
        }
        let mut g = self.lock();
        let n = max.min(g.q.len());
        out.extend(g.q.drain(..n));
        n
    }

    /// Pop, parking up to `timeout` for work to arrive.
    pub fn pop_timeout(&self, timeout: Duration) -> Option<Envelope> {
        let deadline = Instant::now() + timeout;
        let mut g = self.lock();
        loop {
            if let Some(env) = g.q.pop_front() {
                return Some(env);
            }
            if g.closed {
                return None;
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            // Register under the same lock the producer's empty-check
            // runs under, so no wakeup can be lost: a producer either
            // sees `waiting > 0` and notifies, or enqueued before we
            // re-checked `q` above.
            g.waiting += 1;
            let (mut guard, _) = self
                .ready
                .wait_timeout(g, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            guard.waiting -= 1;
            g = guard;
        }
    }

    /// Atomically close the queue and take every pending envelope (the
    /// invoker's half of the drain protocol). After this returns, every
    /// `produce` fails with [`Produce::Closed`]; no request can slip in
    /// behind the drain. Idempotent.
    pub fn close_and_drain(&self) -> Vec<Envelope> {
        let mut g = self.lock();
        g.closed = true;
        let drained = g.q.drain(..).collect();
        drop(g);
        // Wake any consumer parked in pop_timeout so it observes the
        // closure promptly.
        self.ready.notify_all();
        drained
    }

    /// Pending message count.
    pub fn depth(&self) -> usize {
        self.lock().q.len()
    }

    /// Total messages ever produced here (== next offset).
    pub fn total_produced(&self) -> u64 {
        self.lock().next_offset
    }

    /// True iff the queue has been closed.
    pub fn is_closed(&self) -> bool {
        self.lock().closed
    }

    /// Deepest backlog this queue ever held.
    pub fn highwater(&self) -> usize {
        self.lock().highwater
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u64) -> Request {
        Request {
            id,
            action: ActionId(0),
            key: id,
        }
    }

    #[test]
    fn offsets_fifo_and_bound() {
        let q = WorkQueue::new();
        let t = Instant::now();
        assert!(matches!(q.produce(req(0), t, 2), Produce::Ok(0)));
        assert!(matches!(q.produce(req(1), t, 2), Produce::Ok(1)));
        match q.produce(req(2), t, 2) {
            Produce::Full(r) => assert_eq!(r.id, 2),
            other => panic!("expected Full, got {other:?}"),
        }
        assert_eq!(q.try_pop().unwrap().req.id, 0);
        assert!(matches!(q.produce(req(3), t, 2), Produce::Ok(2)));
        assert_eq!(q.depth(), 2);
        assert_eq!(q.total_produced(), 3);
    }

    #[test]
    fn batch_pop_preserves_order_offsets_and_cap() {
        let q = WorkQueue::new();
        let t = Instant::now();
        for id in 0..10u64 {
            q.produce(req(id), t, usize::MAX);
        }
        let mut out = Vec::new();
        assert_eq!(q.try_pop_batch(&mut out, 0), 0, "max=0 is a no-op");
        assert_eq!(q.try_pop_batch(&mut out, 4), 4);
        assert_eq!(q.try_pop_batch(&mut out, 100), 6, "capped by depth");
        assert_eq!(q.try_pop_batch(&mut out, 4), 0, "empty queue");
        let got: Vec<(u64, u64)> = out.iter().map(|e| (e.offset, e.req.id)).collect();
        let want: Vec<(u64, u64)> = (0..10u64).map(|i| (i, i)).collect();
        assert_eq!(got, want);
        // A batch after a refill continues the offset sequence.
        q.produce(req(10), t, usize::MAX);
        out.clear();
        q.try_pop_batch(&mut out, 1);
        assert_eq!((out[0].offset, out[0].req.id), (10, 10));
    }

    #[test]
    fn produce_batch_matches_sequential_produces() {
        let grouped = WorkQueue::new();
        let sequential = WorkQueue::new();
        let t = Instant::now();
        // Capacity 5, batch of 8: the first 5 are admitted with the
        // same offsets a produce loop assigns, the rest handed back.
        let reqs: Vec<Request> = (0..8u64).map(req).collect();
        match grouped.produce_batch(&reqs, t, 5) {
            ProduceBatch::Admitted(n) => assert_eq!(n, 5),
            other => panic!("expected Admitted, got {other:?}"),
        }
        let mut seq_admitted = 0;
        for r in &reqs {
            if matches!(sequential.produce(*r, t, 5), Produce::Ok(_)) {
                seq_admitted += 1;
            }
        }
        assert_eq!(seq_admitted, 5);
        let a: Vec<(u64, u64)> = std::iter::from_fn(|| grouped.try_pop())
            .map(|e| (e.offset, e.req.id))
            .collect();
        let b: Vec<(u64, u64)> = std::iter::from_fn(|| sequential.try_pop())
            .map(|e| (e.offset, e.req.id))
            .collect();
        assert_eq!(a, b);
        // Closed queue admits nothing.
        grouped.close_and_drain();
        assert_eq!(grouped.produce_batch(&reqs, t, 5), ProduceBatch::Closed);
    }

    #[test]
    fn close_is_atomic_and_idempotent() {
        let q = WorkQueue::new();
        let t = Instant::now();
        q.produce(req(0), t, 10);
        q.produce(req(1), t, 10);
        let drained = q.close_and_drain();
        assert_eq!(drained.len(), 2);
        assert!(q.close_and_drain().is_empty());
        match q.produce(req(2), t, 10) {
            Produce::Closed(r) => assert_eq!(r.id, 2),
            other => panic!("expected Closed, got {other:?}"),
        }
        assert!(q.try_pop().is_none());
    }

    #[test]
    fn moved_envelope_gets_fresh_offset_keeps_produced_at() {
        let src = WorkQueue::new();
        let dst = WorkQueue::new();
        let t0 = Instant::now();
        dst.produce(req(9), t0, 10); // dst offset 0 taken
        src.produce(req(1), t0, 10);
        let drained = src.close_and_drain();
        let moved = drained[0];
        let off = dst.produce_moved(moved).unwrap();
        assert_eq!(off, 1, "fresh offset in the destination");
        let got = dst.try_pop().unwrap();
        assert_eq!(got.req.id, 9);
        let got = dst.try_pop().unwrap();
        assert_eq!(got.req.id, 1);
        assert_eq!(got.produced_at, t0, "produced_at survives the move");
    }

    #[test]
    fn pop_timeout_times_out_and_wakes_on_close() {
        let q = std::sync::Arc::new(WorkQueue::new());
        assert!(q.pop_timeout(Duration::from_millis(5)).is_none());
        let q2 = q.clone();
        let h = std::thread::spawn(move || q2.pop_timeout(Duration::from_secs(10)));
        std::thread::sleep(Duration::from_millis(10));
        q.close_and_drain();
        assert!(h.join().unwrap().is_none(), "closure unparks the consumer");
    }

    /// Differential check: this queue and `mq::Broker` implement the
    /// same produce/move/fetch protocol — identical payload order and
    /// identical offsets, including across a drain-and-move hop.
    #[test]
    fn differential_against_mq_broker() {
        use simcore::SimTime;

        let inv = WorkQueue::new();
        let fast = WorkQueue::new();
        let mut broker: mq::Broker<u64> = mq::Broker::new();
        let b_inv = broker.create_topic("invoker-0");
        let b_fast = broker.create_topic("fast-lane");

        let t = Instant::now();
        // Produce 5 to the invoker queue, 2 directly to the fast lane.
        for id in 0..5u64 {
            inv.produce(req(id), t, usize::MAX);
            broker.produce(b_inv, SimTime::from_secs(id), id);
        }
        for id in 100..102u64 {
            fast.produce(req(id), t, usize::MAX);
            broker.produce(b_fast, SimTime::from_secs(id), id);
        }
        // Consume one from the invoker queue, then drain the rest to the
        // fast lane (the sigterm path).
        let popped = inv.try_pop().unwrap();
        let fetched = broker.fetch(b_inv, 1);
        assert_eq!(popped.req.id, fetched[0].payload);
        assert_eq!(popped.offset, fetched[0].offset);

        let drained = inv.close_and_drain();
        let n_moved = broker.move_all(b_inv, b_fast, SimTime::from_secs(99));
        assert_eq!(drained.len(), n_moved);
        for env in drained {
            fast.produce_moved(env).unwrap();
        }
        // Both fast lanes must now hold the same payloads in the same
        // order under the same offsets.
        let ours: Vec<(u64, u64)> = std::iter::from_fn(|| fast.try_pop())
            .map(|e| (e.offset, e.req.id))
            .collect();
        let theirs: Vec<(u64, u64)> = broker
            .fetch(b_fast, usize::MAX)
            .into_iter()
            .map(|m| (m.offset, m.payload))
            .collect();
        assert_eq!(ours, theirs);
    }
}
