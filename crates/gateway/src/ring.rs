//! A bounded **lock-free MPSC ring** — the per-invoker work queue for
//! the de-serialized submit path.
//!
//! A mutex-guarded queue serializes N submitter threads on its lock.
//! Each invoker queue is structurally MPSC — many
//! submitters, exactly one consumer (the owning invoker) — so a lock
//! buys nothing the shape doesn't already give us. [`RingQueue`] keeps
//! the *protocol* of `mq::Broker` and has no lock on its produce or pop
//! path:
//!
//! * strictly increasing **offsets** assigned at produce time — the
//!   claimed ring position *is* the offset, so offsets are exactly the
//!   sequence `mq::Broker::produce` would assign;
//! * **`produced_at` preserved** across the fast-lane hop: a drain
//!   hands back each envelope with its admission instant, which the
//!   fast lane keeps under a fresh offset of its own;
//! * **close-and-drain atomic with produce**: closing sets a bit in
//!   the same word producers claim positions from, so a producer
//!   either lands its message *before* the close (and the drain
//!   returns it) or observes the closure and reroutes — no window in
//!   which a request can vanish;
//! * the **waiter-counted wake**: a producer touches the condvar only
//!   when the consumer is actually parked (`park::Park`, the gateway's one
//!   park/wake), so under load the hot path pays zero futex wakes
//!   (each wake is counted as the `queue_wake` contention source).
//!
//! The layout is a Vyukov-style bounded ring. `head` is the producer
//! claim word (position + a CLOSED bit); producers CAS-claim a span of
//! positions, write their slots, then publish each slot by storing
//! `pos + 1` into its sequence word. The single consumer owns `tail`
//! outright: it waits for `seq == tail + 1`, reads, and advances. Each
//! consumer method holds the ring's consumer claim for its duration, so
//! a second thread popping at the same time panics instead of racing. Slot
//! sequence words never need resetting — each lap publishes a distinct
//! value — and the capacity check (`pos - tail < cap`) guarantees a
//! producer never rewrites a slot the consumer hasn't drained.
//! A producer that finds the ring at capacity gets the request back
//! ([`Produce::Full`]) and the encounter is counted as the `ring_full`
//! contention source: back-pressure that used to show up as lock wait
//! now shows up as a typed, observable refusal.
//!
//! `tests/ring_equiv.rs` drives this ring and `mq::Broker` through
//! identical schedules (batch sizes {1, 4, 32}, the close-and-move hop,
//! wraparound and full-ring interleavings; bounded, the broker produces
//! iff its depth is below the ring's capacity) and asserts identical
//! order/offset/outcome behaviour.

use crate::park::Park;
use crate::queue::{Envelope, Produce, ProduceBatch, Request};
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use telemetry::flight::{self, EventKind};
use telemetry::{Counter, Gauge};

/// Closed flag, folded into the producer claim word so close-and-drain
/// is atomic with produce.
const CLOSED: u64 = 1 << 63;
const POS: u64 = CLOSED - 1;

/// One ring slot: the sequence word publishes the payload. `seq ==
/// pos + 1` means "position `pos` is written and readable"; any other
/// value means the slot belongs to a past lap (consumed) or a producer
/// mid-write.
struct Slot {
    seq: AtomicU64,
    val: UnsafeCell<MaybeUninit<Envelope>>,
}

/// Telemetry hookup: the shared high-water gauge, the shared
/// `ring_full` counter, and the flight-recorder tag (invoker id).
struct RingTelem {
    gauge: Arc<Gauge>,
    full: Arc<Counter>,
    tag: u64,
}

/// Bounded lock-free MPSC work queue. Many producers; **one consumer
/// at a time** may be inside the pop/drain side (`try_pop`,
/// `try_pop_batch`, `pop_timeout`, `close_and_drain`), and a call that
/// overlaps another panics — in the gateway the consumer is the owning
/// invoker thread, which also performs the close.
pub struct RingQueue {
    buf: Box<[Slot]>,
    mask: u64,
    /// Admission bound (exact, may be below the power-of-two buffer).
    cap: u64,
    /// Producer claim word: next position to claim, plus [`CLOSED`].
    head: AtomicU64,
    /// Next position the consumer will drain. Written only by the
    /// consumer (Release); producers read it (Acquire) for the bound.
    tail: AtomicU64,
    /// The consumer claim: `true` while a pop/drain call runs (see
    /// [`ConsumerClaim`]).
    consumer: AtomicBool,
    /// Where the consumer parks in [`pop_timeout`](Self::pop_timeout);
    /// counts its wakes on the shared `queue_wake` counter.
    park: Park,
    /// Deepest backlog ever observed (claimed - drained).
    highwater: AtomicU64,
    /// Next depth at which a flight-recorder high-water event fires
    /// (doubles from 16, same cadence as the fast lane).
    hw_report: AtomicU64,
    telem: Option<RingTelem>,
}

// `Send` is automatic (`UnsafeCell<MaybeUninit<Envelope>>` is `Send`
// because `Envelope` is); `Sync` is not, because of the cells.
//
// SAFETY: field by field. `mask`, `cap` and `telem` (shared `Arc`s of
// atomic counters) are never written after construction, and `buf` is
// never reallocated. `head`, `tail`, `highwater` and `hw_report` are
// atomics, and `park` is `Sync`.
// That leaves the slots: a slot's `seq` is atomic, and its `val` is
// written only by the producer that uniquely claimed its position
// through the `head` CAS, only once the consumer has drained the slot's
// previous lap (the room check reads `tail` Acquire after the
// consumer's Release advance), and read only by the consumer after it
// observes that producer's Release store of `seq` with Acquire. There
// is one consumer at a time because every method that reads a slot or
// writes `tail` holds a `ConsumerClaim` for its whole body: taking it
// is a `swap(true, Acquire)` on `consumer` that panics on reading
// `true`, before touching either, and releasing it is a
// `store(false, Release)`. So no two such calls overlap, and each one
// starts after the previous holder's last slot read and `tail` store.
unsafe impl Sync for RingQueue {}

/// Proof of being the ring's only consumer for as long as it lives:
/// [`RingQueue::claim_consumer`] takes it, dropping it releases it.
struct ConsumerClaim<'a>(&'a AtomicBool);

impl Drop for ConsumerClaim<'_> {
    fn drop(&mut self) {
        self.0.store(false, Ordering::Release);
    }
}

impl RingQueue {
    /// An empty, open ring admitting up to `capacity` pending messages
    /// (an exact bound: `produce` refuses the `capacity + 1`-th).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(1) as u64;
        let len = cap.next_power_of_two();
        RingQueue {
            buf: (0..len)
                .map(|_| Slot {
                    seq: AtomicU64::new(0),
                    val: UnsafeCell::new(MaybeUninit::uninit()),
                })
                .collect(),
            mask: len - 1,
            cap,
            head: AtomicU64::new(0),
            tail: AtomicU64::new(0),
            consumer: AtomicBool::new(false),
            park: Park::new(Arc::default()),
            highwater: AtomicU64::new(0),
            hw_report: AtomicU64::new(16),
            telem: None,
        }
    }

    /// A ring that reports depth high-water to the shared `gauge`,
    /// counts consumer wakes on `wakes` and full encounters on `full`,
    /// and tags flight-recorder events with `tag`.
    pub fn with_telem(
        capacity: usize,
        gauge: Arc<Gauge>,
        wakes: Arc<Counter>,
        full: Arc<Counter>,
        tag: u64,
    ) -> Self {
        let mut q = Self::new(capacity);
        q.park = Park::new(wakes);
        q.telem = Some(RingTelem { gauge, full, tag });
        q
    }

    /// Claim `want` consecutive positions for producing, bounded by
    /// room and the closed bit. Returns the first claimed position and
    /// the claimed count (`0` with the ring full), or `Err(())` when
    /// closed.
    fn claim(&self, want: u64) -> Result<(u64, u64), ()> {
        let mut head = self.head.load(Ordering::Relaxed);
        loop {
            if head & CLOSED != 0 {
                return Err(());
            }
            let pos = head & POS;
            // `tail` only advances, so a stale read under-counts room:
            // the bound stays exact, never over-admits. A `tail` past
            // `pos` means `head` is the stale one (producers and the
            // consumer moved on since it was read): saturate, and the
            // CAS below fails on it and retries with a fresh `head`.
            let tail = self.tail.load(Ordering::Acquire);
            let room = self.cap - pos.saturating_sub(tail).min(self.cap);
            let n = want.min(room);
            if n == 0 {
                if let Some(t) = &self.telem {
                    t.full.inc();
                }
                return Ok((pos, 0));
            }
            match self.head.compare_exchange_weak(
                head,
                head + n,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Ok((pos, n)),
                Err(seen) => head = seen,
            }
        }
    }

    /// Write and publish one claimed slot. `pos` must come from a
    /// successful [`claim`](Self::claim) by the calling producer.
    fn publish(&self, pos: u64, env: Envelope) {
        let slot = &self.buf[(pos & self.mask) as usize];
        // SAFETY: `pos` was uniquely claimed by this producer through
        // the `head` CAS, and the claim's room check guarantees the
        // consumer has drained this slot's previous lap (its advance of
        // `tail` is Release, the check reads it Acquire), so no other
        // thread touches `val` until our Release store of `seq` below
        // hands it to the consumer.
        unsafe { (*slot.val.get()).write(env) };
        slot.seq.store(pos + 1, Ordering::Release);
    }

    /// Post-produce bookkeeping: wake the consumer if it is parked
    /// (the slot publishes are the stores its `ready` reads) and track
    /// the depth high-water.
    fn after_produce(&self, end_pos: u64) {
        self.park.wake();
        let depth = end_pos - self.tail.load(Ordering::Acquire).min(end_pos);
        let old = self.highwater.fetch_max(depth, Ordering::Relaxed);
        if depth > old {
            if let Some(t) = &self.telem {
                t.gauge.raise(depth as i64);
                let mut report = self.hw_report.load(Ordering::Relaxed);
                if depth >= report {
                    flight::record(EventKind::QueueHighWater, t.tag, depth);
                    while report <= depth {
                        match self.hw_report.compare_exchange_weak(
                            report,
                            report * 2,
                            Ordering::Relaxed,
                            Ordering::Relaxed,
                        ) {
                            Ok(_) => report *= 2,
                            Err(seen) => report = seen,
                        }
                    }
                }
            }
        }
    }

    /// Produce a fresh request. The ring's own capacity is the
    /// admission bound (exact: checked in the same CAS loop that
    /// assigns the offset).
    pub fn produce(&self, req: Request, produced_at: Instant) -> Produce {
        match self.claim(1) {
            Err(()) => Produce::Closed(req),
            Ok((_, 0)) => Produce::Full(req),
            Ok((pos, _)) => {
                self.publish(
                    pos,
                    Envelope {
                        offset: pos,
                        produced_at,
                        req,
                    },
                );
                self.after_produce(pos + 1);
                Produce::Ok(pos)
            }
        }
    }

    /// Produce a whole burst share under **one** claim CAS and at most
    /// **one** consumer wake. Offsets are consecutive in slice order,
    /// the bound admits up to the remaining room (the caller sheds the
    /// rest via the count).
    pub fn produce_batch(&self, reqs: &[Request], produced_at: Instant) -> ProduceBatch {
        match self.claim(reqs.len() as u64) {
            Err(()) => ProduceBatch::Closed,
            Ok((_, 0)) => ProduceBatch::Admitted(0),
            Ok((pos, n)) => {
                for (i, req) in reqs[..n as usize].iter().enumerate() {
                    self.publish(
                        pos + i as u64,
                        Envelope {
                            offset: pos + i as u64,
                            produced_at,
                            req: *req,
                        },
                    );
                }
                self.after_produce(pos + n);
                ProduceBatch::Admitted(n as usize)
            }
        }
    }

    /// Take the consumer claim. Uncontended on the gateway's path: the
    /// owning invoker is the ring's only caller of the consumer side.
    ///
    /// # Panics
    ///
    /// If another call holds it — two threads popping one ring at once.
    fn claim_consumer(&self) -> ConsumerClaim<'_> {
        assert!(
            !self.consumer.swap(true, Ordering::Acquire),
            "RingQueue has one consumer: a second thread popped concurrently"
        );
        ConsumerClaim(&self.consumer)
    }

    /// Read slot `pos`, which the caller has observed as published.
    ///
    /// # Safety
    ///
    /// The caller must have observed the slot's `seq == pos + 1` with
    /// Acquire, and must not yet have advanced `tail` past `pos`; the
    /// claim makes it the only consumer.
    unsafe fn read(&self, pos: u64, _claim: &ConsumerClaim<'_>) -> Envelope {
        let slot = &self.buf[(pos & self.mask) as usize];
        // SAFETY: the observed `seq == pos + 1` was stored Release by
        // the producer right after its write of `val`, so the payload
        // is initialized and visible; until `tail` passes `pos` no
        // producer may claim this slot's next lap, and no other thread
        // reads it (the caller holds the consumer claim). `Envelope` is
        // `Copy`, so reading it out leaves nothing to drop.
        unsafe { (*slot.val.get()).assume_init_read() }
    }

    /// Non-blocking pop of the oldest pending envelope. Consumer-only.
    pub fn try_pop(&self) -> Option<Envelope> {
        self.pop_claimed(&self.claim_consumer())
    }

    /// True iff the slot at `tail` is published. The caller holds the
    /// consumer claim, so `tail` cannot move under it.
    fn readable(&self, _claim: &ConsumerClaim<'_>) -> bool {
        let t = self.tail.load(Ordering::Relaxed);
        let slot = &self.buf[(t & self.mask) as usize];
        slot.seq.load(Ordering::Acquire) == t + 1
    }

    /// [`try_pop`](Self::try_pop) under a claim the caller holds.
    fn pop_claimed(&self, claim: &ConsumerClaim<'_>) -> Option<Envelope> {
        if !self.readable(claim) {
            return None;
        }
        let t = self.tail.load(Ordering::Relaxed);
        // SAFETY: `seq == t + 1` was just observed with Acquire, and
        // `tail` is still `t`.
        let env = unsafe { self.read(t, claim) };
        self.tail.store(t + 1, Ordering::Release);
        Some(env)
    }

    /// Batched drain: pop up to `max` of the oldest pending envelopes
    /// into `out`, preserving FIFO order and every envelope's offset
    /// and `produced_at` stamp; `tail` is published **once** for the
    /// whole batch. Equivalent to `max` sequential
    /// [`try_pop`](Self::try_pop) calls. Consumer-only.
    pub fn try_pop_batch(&self, out: &mut Vec<Envelope>, max: usize) -> usize {
        let claim = self.claim_consumer();
        let start = self.tail.load(Ordering::Relaxed);
        let mut t = start;
        while t - start < max as u64 {
            let slot = &self.buf[(t & self.mask) as usize];
            if slot.seq.load(Ordering::Acquire) != t + 1 {
                break;
            }
            // SAFETY: `seq == t + 1` was just observed with Acquire; we
            // publish `tail` only after the loop, so it has not passed
            // `t`.
            out.push(unsafe { self.read(t, &claim) });
            t += 1;
        }
        if t != start {
            self.tail.store(t, Ordering::Release);
        }
        (t - start) as usize
    }

    /// Pop, waiting up to `timeout` for work to arrive: the park spins
    /// first while the ring keeps delivering, so a producer publishing
    /// within its spin costs no futex wake (and no `queue_wake`). A
    /// `timeout` past the clock's range waits without a deadline.
    /// Consumer-only: the claim is held across the park.
    pub fn pop_timeout(&self, timeout: Duration) -> Option<Envelope> {
        let claim = self.claim_consumer();
        let deadline = Instant::now().checked_add(timeout);
        loop {
            if let Some(env) = self.pop_claimed(&claim) {
                return Some(env);
            }
            let now = Instant::now();
            let left = deadline.map_or(Duration::MAX, |d| d.saturating_duration_since(now));
            if self.is_closed() || left.is_zero() {
                return None;
            }
            self.park
                .park_unless(left, || self.readable(&claim) || self.is_closed());
        }
    }

    /// Atomically close the ring and take every pending envelope (the
    /// invoker's half of the drain protocol). The CLOSED bit lands in
    /// the producer claim word, so the close linearizes against every
    /// produce: positions claimed before it are drained here (waiting
    /// out any producer mid-publish), claims after it fail with
    /// [`Produce::Closed`]. Idempotent. Consumer-only: the owning
    /// invoker thread closes its own ring.
    pub fn close_and_drain(&self) -> Vec<Envelope> {
        let claim = self.claim_consumer();
        let end = self.head.fetch_or(CLOSED, Ordering::Relaxed) & POS;
        let start = self.tail.load(Ordering::Relaxed);
        let mut drained = Vec::with_capacity((end - start) as usize);
        for pos in start..end {
            let slot = &self.buf[(pos & self.mask) as usize];
            // A producer that claimed before the close may still be
            // between its claim and its publish; its message is part
            // of the pre-close state, so wait it out (publish is two
            // stores away — this spin is bounded by a thread hiccup,
            // not by any lock).
            let mut spins = 0u32;
            while slot.seq.load(Ordering::Acquire) != pos + 1 {
                spins += 1;
                if spins > 64 {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            }
            // SAFETY: the loop above observed `seq == pos + 1` with
            // Acquire, and `tail = end` is stored only after the last
            // read.
            drained.push(unsafe { self.read(pos, &claim) });
        }
        self.tail.store(end, Ordering::Release);
        drained
    }

    /// Total messages ever produced here (== next offset).
    pub fn total_produced(&self) -> u64 {
        self.head.load(Ordering::Relaxed) & POS
    }

    /// True iff the ring has been closed.
    pub fn is_closed(&self) -> bool {
        self.head.load(Ordering::Relaxed) & CLOSED != 0
    }

    /// Deepest backlog this ring ever held.
    pub fn highwater(&self) -> usize {
        self.highwater.load(Ordering::Relaxed) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::ActionId;

    fn req(id: u64) -> Request {
        Request {
            id,
            action: ActionId(0),
            key: id,
        }
    }

    #[test]
    fn offsets_are_sequential_and_fifo() {
        let q = RingQueue::new(8);
        let t = Instant::now();
        for i in 0..5 {
            match q.produce(req(i), t) {
                Produce::Ok(off) => assert_eq!(off, i),
                other => panic!("unexpected: {other:?}"),
            }
        }
        for i in 0..5 {
            let env = q.try_pop().expect("pending");
            assert_eq!(env.offset, i);
            assert_eq!(env.req.id, i);
        }
        assert!(q.try_pop().is_none());
    }

    #[test]
    fn bound_is_exact_and_full_hands_back() {
        // Capacity 5 inside an 8-slot buffer: the logical bound, not
        // the power-of-two size, refuses.
        let q = RingQueue::new(5);
        let t = Instant::now();
        for i in 0..5 {
            assert!(matches!(q.produce(req(i), t), Produce::Ok(_)));
        }
        match q.produce(req(99), t) {
            Produce::Full(r) => assert_eq!(r.id, 99),
            other => panic!("expected Full, got {other:?}"),
        }
        // Draining one opens exactly one slot.
        assert_eq!(q.try_pop().unwrap().req.id, 0);
        assert!(matches!(q.produce(req(5), t), Produce::Ok(5)));
        assert!(matches!(q.produce(req(6), t), Produce::Full(_)));
    }

    #[test]
    fn wraparound_preserves_order_and_offsets() {
        let q = RingQueue::new(4);
        let t = Instant::now();
        let mut next_id = 0u64;
        let mut expect = 0u64;
        // Many laps around the 4-slot ring.
        for _ in 0..100 {
            while let Produce::Ok(_) = q.produce(req(next_id), t) {
                next_id += 1;
            }
            let mut out = Vec::new();
            q.try_pop_batch(&mut out, 3);
            for env in out {
                assert_eq!(env.req.id, expect);
                assert_eq!(env.offset, expect);
                expect += 1;
            }
        }
        assert_eq!(q.total_produced(), next_id);
    }

    #[test]
    fn close_is_atomic_with_produce() {
        let q = RingQueue::new(8);
        let t = Instant::now();
        for i in 0..3 {
            assert!(matches!(q.produce(req(i), t), Produce::Ok(_)));
        }
        let drained = q.close_and_drain();
        assert_eq!(drained.len(), 3);
        assert!(q.is_closed());
        match q.produce(req(9), t) {
            Produce::Closed(r) => assert_eq!(r.id, 9),
            other => panic!("expected Closed, got {other:?}"),
        }
        assert!(matches!(
            q.produce_batch(&[req(1)], t),
            ProduceBatch::Closed
        ));
        // Idempotent.
        assert!(q.close_and_drain().is_empty());
    }

    #[test]
    fn pop_timeout_parks_and_wakes() {
        let q = Arc::new(RingQueue::new(8));
        let p = q.clone();
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            p.produce(req(7), Instant::now());
        });
        // No deadline: a timeout past the clock's range waits for the
        // produce.
        let env = q.pop_timeout(Duration::MAX).expect("woken");
        assert_eq!(env.req.id, 7);
        h.join().unwrap();
        // And times out when nothing arrives.
        assert!(q.pop_timeout(Duration::from_millis(20)).is_none());
    }

    #[test]
    fn a_second_concurrent_consumer_panics() {
        let q = RingQueue::new(8);
        assert!(matches!(q.produce(req(1), Instant::now()), Produce::Ok(0)));
        let held = q.claim_consumer();
        let refused = |pop: &(dyn Fn(&RingQueue) + Sync)| {
            std::thread::scope(|s| s.spawn(|| pop(&q)).join().is_err())
        };
        assert!(refused(&|q| {
            q.try_pop();
        }));
        assert!(refused(&|q| {
            q.try_pop_batch(&mut Vec::new(), 4);
        }));
        assert!(refused(&|q| {
            q.pop_timeout(Duration::ZERO);
        }));
        assert!(refused(&|q| {
            q.close_and_drain();
        }));
        // The refused calls took nothing and left the claim with its
        // holder; once it lets go, the next consumer pops.
        drop(held);
        assert!(!q.is_closed());
        assert_eq!(q.try_pop().map(|env| env.req.id), Some(1));
    }

    #[test]
    fn concurrent_producers_no_loss_no_reorder_per_producer() {
        // 4 producers × 2000 messages through a 64-slot ring with a
        // draining consumer: every message arrives exactly once, and
        // each producer's messages arrive in its send order.
        let q = Arc::new(RingQueue::new(64));
        const PER: u64 = 2_000;
        const PRODS: u64 = 4;
        let mut handles = Vec::new();
        for p in 0..PRODS {
            let q = q.clone();
            handles.push(std::thread::spawn(move || {
                let t = Instant::now();
                for i in 0..PER {
                    let id = p * PER + i;
                    loop {
                        match q.produce(req(id), t) {
                            Produce::Ok(_) => break,
                            Produce::Full(_) => std::thread::yield_now(),
                            Produce::Closed(_) => panic!("never closed"),
                        }
                    }
                }
            }));
        }
        let mut seen = vec![0u32; (PER * PRODS) as usize];
        let mut last: Vec<Option<u64>> = vec![None; PRODS as usize];
        let mut got = 0u64;
        let mut out = Vec::new();
        let mut last_offset: Option<u64> = None;
        while got < PER * PRODS {
            out.clear();
            if q.try_pop_batch(&mut out, 32) == 0 {
                std::thread::yield_now();
                continue;
            }
            for env in &out {
                if let Some(prev) = last_offset {
                    assert_eq!(env.offset, prev + 1, "offsets gapless in drain order");
                }
                last_offset = Some(env.offset);
                let id = env.req.id;
                seen[id as usize] += 1;
                let p = (id / PER) as usize;
                if let Some(prev) = last[p] {
                    assert!(id > prev, "producer {p} reordered: {id} after {prev}");
                }
                last[p] = Some(id);
                got += 1;
            }
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(seen.iter().all(|&c| c == 1), "exactly once");
    }
}
