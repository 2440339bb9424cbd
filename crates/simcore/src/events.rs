//! The deterministic event queue at the heart of the DES engine.
//!
//! Pop order is total by `(time, seq)`, `seq` being the push counter, so
//! which container holds an entry is unobservable. Two hold them, one per
//! population of a simulated day:
//!
//! * the `Wheel` — `SimTime` is whole milliseconds, so the entries due
//!   within `WHEEL_SPAN_MS` of the latest popped time sit in one FIFO
//!   slot per millisecond and are found by a bitmap scan, with no key
//!   comparison at all. These are a request's events, due within half a
//!   second: 3.62 M of the paper's fib day's 3.64 M pops;
//! * `far` — a `std` [`BinaryHeap`] for every other push: job ends and
//!   time limits minutes to hours ahead, scheduling passes, and the
//!   ~4.2 k claim submissions the bootstrap pushes at once. It pops the
//!   fib day's other 22 k events, and 33 k of the 39 k of a
//!   coverage-only week-model day, which has no requests.
//!
//! Entries never migrate between them: a pop takes the smaller of the
//! two heads.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An entry in the queue: ordered by `(time, seq)` ascending, where `seq`
/// is a monotonically increasing insertion counter. The tiebreaker makes
/// simulation runs bit-for-bit reproducible even when many events share a
/// timestamp (common: scheduler passes, poll ticks).
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    /// The min-heap ordering key, unique per entry.
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

/// Reversed on [`Entry::key`], so `std`'s max-heap pops the earliest
/// entry. The key is unique, so the order is total and the pop sequence
/// does not depend on how the heap breaks ties.
impl<E> Ord for Entry<E> {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

impl<E> PartialOrd for Entry<E> {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<E> Eq for Entry<E> {}

/// Slots of the wheel, one per millisecond: entries due less than this
/// far past the latest popped time are wheel entries, every other push
/// goes to `far`. Not a tuning knob — it has to cover what a handler
/// schedules "next" (a request's events are ≤ ~0.5 s ahead, a poll tick
/// 0.2 s, a scheduling pass 15–30 s — the passes stay in `far`, ~3 k of
/// a day's 3.7 M events) while its 8-byte slots stay L1-resident:
/// 4,096 slots are 32 KB, and 16,384 read 2 % slower on the paper's fib
/// day when the wheel was sized (ISSUE 20's prototype, 14 of 16
/// alternating runs).
const WHEEL_SPAN_MS: u64 = 4_096;
const WHEEL_SLOTS: usize = WHEEL_SPAN_MS as usize;
const WHEEL_WORDS: usize = WHEEL_SLOTS / 64;
const _: () = assert!(WHEEL_WORDS == 64, "one summary word covers the bitmap");

/// End of a slot's list / empty free list.
const NIL: u32 = u32::MAX;

/// One millisecond's FIFO: indices into [`Wheel::nodes`].
#[derive(Clone, Copy)]
struct Slot {
    head: u32,
    tail: u32,
}

const EMPTY_SLOT: Slot = Slot {
    head: NIL,
    tail: NIL,
};

/// A wheel entry, linked into its slot's list or the free list.
struct Node<E> {
    seq: u64,
    next: u32,
    /// `None` only while the node is on the free list.
    event: Option<E>,
}

/// The imminent events: a timing wheel of [`WHEEL_SLOTS`] one-millisecond
/// slots over the window `[base, base + WHEEL_SPAN_MS)`.
///
/// The window is as wide as the wheel, so a slot holds entries of one
/// timestamp only, and a slot is appended to in push order, so its list
/// is in `seq` order: `(time, seq)` order holds without comparing keys.
/// `base` only ever advances to the time of a popped entry — the
/// queue-wide minimum — so no wheel entry falls behind it.
struct Wheel<E> {
    slots: Box<[Slot; WHEEL_SLOTS]>,
    /// Bit `s % 64` of word `s / 64` is set iff slot `s` is non-empty.
    occupied: [u64; WHEEL_WORDS],
    /// Bit `w` is set iff `occupied[w] != 0`.
    summary: u64,
    nodes: Vec<Node<E>>,
    free: u32,
    len: usize,
    /// Start of the window, in ms: the latest time popped from the queue.
    base: u64,
}

impl<E> Wheel<E> {
    fn new() -> Self {
        let slots: Box<[Slot]> = vec![EMPTY_SLOT; WHEEL_SLOTS].into_boxed_slice();
        Wheel {
            slots: slots.try_into().ok().expect("WHEEL_SLOTS slots"),
            occupied: [0; WHEEL_WORDS],
            summary: 0,
            nodes: Vec::new(),
            free: NIL,
            len: 0,
            base: 0,
        }
    }

    /// Is `time` inside the window? (A time before `base` wraps to a
    /// huge offset.)
    #[inline]
    fn covers(&self, time: SimTime) -> bool {
        time.as_millis().wrapping_sub(self.base) < WHEEL_SPAN_MS
    }

    #[inline]
    fn slot_of(time: SimTime) -> usize {
        (time.as_millis() % WHEEL_SPAN_MS) as usize
    }

    /// Move the window up to a popped time.
    #[inline]
    fn advance(&mut self, popped: SimTime) {
        self.base = self.base.max(popped.as_millis());
    }

    fn alloc(&mut self, seq: u64, event: E) -> u32 {
        let node = Node {
            seq,
            next: NIL,
            event: Some(event),
        };
        if self.free != NIL {
            let n = self.free;
            self.free = self.nodes[n as usize].next;
            self.nodes[n as usize] = node;
            n
        } else {
            assert!(self.nodes.len() < NIL as usize, "wheel node index fits u32");
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        }
    }

    #[inline]
    fn mark_occupied(&mut self, slot: usize) {
        self.occupied[slot / 64] |= 1 << (slot % 64);
        self.summary |= 1 << (slot / 64);
    }

    /// Append an entry with `covers(time)`, pushed after everything in
    /// its slot.
    #[inline]
    fn push_back(&mut self, time: SimTime, seq: u64, event: E) {
        debug_assert!(self.covers(time));
        let n = self.alloc(seq, event);
        let slot = Self::slot_of(time);
        let tail = self.slots[slot].tail;
        if tail == NIL {
            self.slots[slot].head = n;
            self.mark_occupied(slot);
        } else {
            self.nodes[tail as usize].next = n;
        }
        self.slots[slot].tail = n;
        self.len += 1;
    }

    /// Put back an entry with `covers(time)` that was pushed before
    /// everything in its slot.
    fn push_front(&mut self, time: SimTime, seq: u64, event: E) {
        debug_assert!(self.covers(time));
        let n = self.alloc(seq, event);
        let slot = Self::slot_of(time);
        let head = self.slots[slot].head;
        if head == NIL {
            self.slots[slot].tail = n;
            self.mark_occupied(slot);
        } else {
            debug_assert!(seq < self.nodes[head as usize].seq);
            self.nodes[n as usize].next = head;
        }
        self.slots[slot].head = n;
        self.len += 1;
    }

    /// The first non-empty slot at or after `base`'s, wrapping around,
    /// and the time its entries are due.
    #[inline]
    fn first_slot(&self) -> Option<(usize, SimTime)> {
        if self.len == 0 {
            return None;
        }
        let start = (self.base % WHEEL_SPAN_MS) as usize;
        let (w0, b0) = (start / 64, start % 64);
        let ahead = self.occupied[w0] >> b0;
        let slot = if ahead != 0 {
            start + ahead.trailing_zeros() as usize
        } else {
            // Bit `i` of the rotated summary is word `w0 + 1 + i`; the
            // last one looked at is `w0` again, for its bits below `b0`.
            let next = (w0 + 1) % WHEEL_WORDS;
            let words = self.summary.rotate_right(next as u32);
            let w = (next + words.trailing_zeros() as usize) % WHEEL_WORDS;
            w * 64 + self.occupied[w].trailing_zeros() as usize
        };
        let ahead_ms = (slot + WHEEL_SLOTS - start) % WHEEL_SLOTS;
        Some((slot, SimTime::from_millis(self.base + ahead_ms as u64)))
    }

    /// Sequence number of the first entry of non-empty `slot`.
    #[inline]
    fn head_seq(&self, slot: usize) -> u64 {
        self.nodes[self.slots[slot].head as usize].seq
    }

    /// Remove the first entry of `slot`, which [`Self::first_slot`] just
    /// returned with `time`.
    #[inline]
    fn pop_slot(&mut self, slot: usize, time: SimTime) -> Entry<E> {
        let n = self.slots[slot].head;
        let node = &mut self.nodes[n as usize];
        let event = node.event.take().expect("linked node holds an event");
        let seq = node.seq;
        let next = std::mem::replace(&mut node.next, self.free);
        self.free = n;
        self.slots[slot].head = next;
        if next == NIL {
            self.slots[slot].tail = NIL;
            self.occupied[slot / 64] &= !(1 << (slot % 64));
            if self.occupied[slot / 64] == 0 {
                self.summary &= !(1 << (slot / 64));
            }
        }
        self.len -= 1;
        Entry { time, seq, event }
    }

    /// Drop every entry; the window stays where it is.
    fn clear(&mut self) {
        if self.len > 0 {
            self.slots.fill(EMPTY_SLOT);
            self.occupied = [0; WHEEL_WORDS];
            self.summary = 0;
            self.len = 0;
        }
        self.nodes.clear();
        self.free = NIL;
    }
}

/// A time-ordered, insertion-stable event queue.
///
/// ```
/// use hpcwhisk_simcore::{EventQueue, SimTime};
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_secs(2), "b");
/// q.push(SimTime::from_secs(1), "a");
/// q.push(SimTime::from_secs(2), "c");
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1), "a")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(2), "b")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(2), "c")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    /// Entries due inside the wheel's window when they were pushed: the
    /// events a dispatch loop reorders against.
    wheel: Wheel<E>,
    /// Entries pushed for [`WHEEL_SPAN_MS`] or more past the latest
    /// popped time, or before it.
    far: BinaryHeap<Entry<E>>,
    seq: u64,
    popped: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            wheel: Wheel::new(),
            far: BinaryHeap::new(),
            seq: 0,
            popped: 0,
        }
    }

    /// Schedule `event` at `time`. Events pushed for the same instant pop
    /// in push order.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.seq;
        self.seq += 1;
        if self.wheel.covers(time) {
            self.wheel.push_back(time, seq, event);
        } else {
            self.far.push(Entry { time, seq, event });
        }
    }

    /// Earliest entry across the wheel and `far`.
    #[inline]
    fn pop_entry(&mut self) -> Option<Entry<E>> {
        let e = match (self.wheel.first_slot(), self.far.peek()) {
            (Some((slot, time)), far)
                if far.is_none_or(|f| (time, self.wheel.head_seq(slot)) < f.key()) =>
            {
                self.wheel.pop_slot(slot, time)
            }
            _ => self.far.pop()?,
        };
        self.wheel.advance(e.time);
        self.popped += 1;
        Some(e)
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let e = self.pop_entry()?;
        Some((e.time, e.event))
    }

    /// Remove and return the earliest event together with its insertion
    /// sequence number, so it can be [`EventQueue::requeue`]d without
    /// losing its FIFO position among same-timestamp events. This is the
    /// engine's single-access dispatch path: no separate peek.
    pub fn pop_with_seq(&mut self) -> Option<(SimTime, u64, E)> {
        let e = self.pop_entry()?;
        Some((e.time, e.seq, e.event))
    }

    /// Put back an event obtained from [`EventQueue::pop_with_seq`]
    /// under its original sequence number. The pop is also un-counted,
    /// so `total_popped` reflects only *processed* events.
    pub fn requeue(&mut self, time: SimTime, seq: u64, event: E) {
        debug_assert!(seq < self.seq, "requeue of a seq never handed out");
        self.popped -= 1;
        if self.wheel.covers(time) {
            // It was the queue's minimum a moment ago, so it precedes
            // whatever its slot holds: the front, whichever container
            // it came from.
            self.wheel.push_front(time, seq, event);
        } else {
            self.far.push(Entry { time, seq, event });
        }
    }

    /// Timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        let wheel = self.wheel.first_slot().map(|(_, time)| time);
        let far = self.far.peek().map(|e| e.time);
        wheel.into_iter().chain(far).min()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.wheel.len + self.far.len()
    }

    /// True iff no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events ever popped (the engine's step counter).
    pub fn total_popped(&self) -> u64 {
        self.popped
    }

    /// Total number of events ever pushed (the tests' oracle).
    #[cfg(test)]
    pub fn total_pushed(&self) -> u64 {
        self.seq
    }

    /// Drop every pending event.
    pub fn clear(&mut self) {
        self.wheel.clear();
        self.far.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fifo_within_same_timestamp() {
        let mut q = EventQueue::new();
        for i in 0..100u32 {
            q.push(SimTime::from_secs(7), i);
        }
        for i in 0..100u32 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn time_ordering_dominates() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(5), "late");
        q.push(SimTime::from_secs(1), "early");
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1)));
        assert_eq!(q.pop().unwrap().1, "early");
        assert_eq!(q.pop().unwrap().1, "late");
    }

    #[test]
    fn counters() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(SimTime::ZERO, ());
        q.push(SimTime::ZERO, ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.total_pushed(), 2);
        q.pop();
        assert_eq!(q.total_popped(), 1);
        q.clear();
        assert!(q.is_empty());
        // Counters survive a clear.
        assert_eq!(q.total_pushed(), 2);
    }

    /// One step of `prop_far_heap_order_invariant`.
    #[derive(Debug, Clone)]
    enum FarOp {
        /// Push `by` ms ahead of (or, rarely, before) the last popped
        /// time.
        Push {
            ahead: bool,
            by: u64,
        },
        Pop,
        PopRequeue,
        Clear,
    }

    fn far_op() -> impl Strategy<Value = FarOp> {
        let h = WHEEL_SPAN_MS;
        let ahead = |by| FarOp::Push { ahead: true, by };
        prop_oneof![
            // Imminent, around the horizon to the millisecond, and far.
            (0..h / 10).prop_map(ahead),
            (h - 2..h + 3).prop_map(ahead),
            (h..10 * h).prop_map(ahead),
            (0..10 * h).prop_map(ahead),
            (0..2 * h).prop_map(|by| FarOp::Push { ahead: false, by }),
            Just(FarOp::Pop),
            Just(FarOp::Pop),
            Just(FarOp::Pop),
            Just(FarOp::PopRequeue),
            (0u32..40).prop_map(|x| if x == 0 { FarOp::Clear } else { FarOp::Pop }),
        ]
    }

    proptest! {
        /// Popping must always yield a non-decreasing time sequence, and
        /// for equal times the original insertion order.
        #[test]
        fn prop_pop_order(times in proptest::collection::vec(0u64..1_000, 1..200)) {
            let mut q = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.push(SimTime::from_millis(*t), i);
            }
            let mut prev: Option<(SimTime, usize)> = None;
            while let Some((t, idx)) = q.pop() {
                if let Some((pt, pidx)) = prev {
                    prop_assert!(t >= pt);
                    if t == pt {
                        prop_assert!(idx > pidx);
                    }
                }
                prev = Some((t, idx));
            }
        }

        /// Interleaved push / pop-with-seq / requeue behaves exactly like
        /// a total sort by (time, seq) — the engine's horizon-requeue
        /// path must not perturb FIFO positions.
        #[test]
        fn prop_requeue_preserves_order(ops in proptest::collection::vec((0u64..50, any::<bool>()), 1..150)) {
            let mut q = EventQueue::new();
            let mut expected: Vec<(u64, usize)> = vec![];
            for (i, (t, requeue)) in ops.iter().enumerate() {
                q.push(SimTime::from_millis(*t), i);
                expected.push((*t, i));
                if *requeue {
                    // Pop the earliest and immediately put it back under
                    // its original seq: a no-op on the final order.
                    let (time, seq, ev) = q.pop_with_seq().unwrap();
                    q.requeue(time, seq, ev);
                }
            }
            expected.sort();
            let mut got = vec![];
            while let Some((t, ev)) = q.pop() {
                got.push((t.as_millis(), ev));
            }
            prop_assert_eq!(got, expected);
            prop_assert_eq!(q.total_popped() as usize, ops.len());
        }

        /// Interleaved push runs and pops, half the runs longer than the
        /// bootstrap's burst of ~4.2 k claim submissions, at times (a
        /// 64 ms grid, most of it past the wheel, so many ties) that send
        /// most of each run to `far`: every pop must return exactly the
        /// (time, seq) minimum of what is queued at that instant.
        #[test]
        fn prop_bulk_heapify_order_invariant(
            runs in proptest::collection::vec((proptest::collection::vec(0u64..200, 1..8_192), 0usize..80), 1..6)
        ) {
            let mut q = EventQueue::new();
            let mut model = std::collections::BTreeSet::new();
            let mut next_id = 0usize;
            for (times, pops) in runs {
                for t in times {
                    let t = t * 64;
                    q.push(SimTime::from_millis(t), next_id);
                    model.insert((t, next_id));
                    next_id += 1;
                }
                for _ in 0..pops {
                    match q.pop() {
                        Some((t, id)) => {
                            let min = model.pop_first().unwrap();
                            prop_assert_eq!((t.as_millis(), id), min);
                        }
                        None => prop_assert!(model.is_empty()),
                    }
                }
            }
            while let Some((t, id)) = q.pop() {
                let min = model.pop_first().unwrap();
                prop_assert_eq!((t.as_millis(), id), min);
            }
            prop_assert!(model.is_empty());
        }

        /// Pushes on both sides of the end of the wheel's window,
        /// measured from the last popped time (and a few before it),
        /// interleaved with pops, pop-and-requeue and `clear`: every
        /// pop is the `(time, seq)` minimum of a `BTreeSet` model, and
        /// `peek_time`/`len`/`is_empty` agree with it after every step
        /// — whichever of the wheel or the heap holds the entries.
        #[test]
        fn prop_far_heap_order_invariant(ops in proptest::collection::vec(far_op(), 1..400)) {
            let mut q = EventQueue::new();
            let mut model = std::collections::BTreeSet::new();
            let mut last = 0u64;
            for op in ops {
                match op {
                    FarOp::Push { ahead, by } => {
                        let t = if ahead { last + by } else { last.saturating_sub(by) };
                        model.insert((t, q.total_pushed()));
                        q.push(SimTime::from_millis(t), q.total_pushed());
                    }
                    FarOp::Pop => {
                        let got = q.pop().map(|(t, id)| (t.as_millis(), id));
                        prop_assert_eq!(got, model.pop_first());
                        last = got.map_or(last, |(t, _)| t);
                    }
                    FarOp::PopRequeue => {
                        let popped = q.total_popped();
                        if let Some((t, seq, id)) = q.pop_with_seq() {
                            prop_assert_eq!(Some(&(t.as_millis(), id)), model.first());
                            prop_assert_eq!(seq, id);
                            last = t.as_millis();
                            q.requeue(t, seq, id);
                        }
                        prop_assert_eq!(q.total_popped(), popped);
                    }
                    FarOp::Clear => {
                        q.clear();
                        model.clear();
                    }
                }
                prop_assert_eq!(q.peek_time().map(SimTime::as_millis), model.first().map(|e| e.0));
                prop_assert_eq!(q.len(), model.len());
                prop_assert_eq!(q.is_empty(), model.is_empty());
            }
            while let Some((t, id)) = q.pop() {
                prop_assert_eq!(Some((t.as_millis(), id)), model.pop_first());
            }
            prop_assert!(model.is_empty());
        }

        /// The queue never loses or duplicates events.
        #[test]
        fn prop_conservation(times in proptest::collection::vec(0u64..500, 0..100)) {
            let mut q = EventQueue::new();
            for t in &times {
                q.push(SimTime::from_millis(*t), *t);
            }
            let mut out = vec![];
            while let Some((_, e)) = q.pop() {
                out.push(e);
            }
            let mut expect = times.clone();
            expect.sort_unstable();
            out.sort_unstable();
            prop_assert_eq!(out, expect);
        }
    }

    /// One step of `prop_wheel_window_order_invariant`. Offsets are from
    /// the wheel's `base` — the latest time popped.
    #[derive(Debug, Clone)]
    enum WheelOp {
        /// `n` pushes for `base + by`.
        Push {
            by: u64,
            n: usize,
        },
        /// A push for `base - by`.
        PushBehind {
            by: u64,
        },
        /// A push for the time of the `pick`-th queued entry: a
        /// millisecond some other container may already hold.
        PushAtQueued {
            pick: usize,
        },
        /// A run of `n` pushes from `base + by` on, `step` ms apart: a
        /// burst across the window's end, part to the wheel and part to
        /// `far`.
        Run {
            by: u64,
            step: u64,
            n: usize,
        },
        Pop {
            n: usize,
        },
        PopRequeue,
        /// Pop until the time reaches `base + by`.
        Idle {
            by: u64,
        },
        Clear,
    }

    /// `(time, seq)` of everything queued.
    type Model = std::collections::BTreeSet<(u64, u64)>;

    fn wheel_op() -> impl Strategy<Value = WheelOp> {
        let s = WHEEL_SPAN_MS;
        let push = |by, n| WheelOp::Push { by, n };
        prop_oneof![
            // The window's edges to the millisecond, the first and last
            // slots of a lap, anywhere inside, and laps ahead.
            (s - 2..s + 2, 1usize..4).prop_map(move |(by, n)| push(by, n)),
            (s - 2..s + 2, 1usize..4).prop_map(move |(by, n)| push(by, n)),
            (0u64..3, 1usize..6).prop_map(move |(by, n)| push(by, n)),
            (0..s, 1usize..3).prop_map(move |(by, n)| push(by, n)),
            (0..s, 1usize..3).prop_map(move |(by, n)| push(by, n)),
            (2 * s - 2..2 * s + 2, 1usize..3).prop_map(move |(by, n)| push(by, n)),
            (s..6 * s, 1usize..3).prop_map(move |(by, n)| push(by, n)),
            (1..2 * s).prop_map(|by| WheelOp::PushBehind { by }),
            (0usize..64).prop_map(|pick| WheelOp::PushAtQueued { pick }),
            (0usize..64).prop_map(|pick| WheelOp::PushAtQueued { pick }),
            (s - 40..s + 40, 0u64..3, 60usize..90).prop_map(|(by, step, n)| WheelOp::Run {
                by,
                step,
                n
            }),
            (1usize..6).prop_map(|n| WheelOp::Pop { n }),
            (1usize..6).prop_map(|n| WheelOp::Pop { n }),
            (1usize..40).prop_map(|n| WheelOp::Pop { n }),
            Just(WheelOp::PopRequeue),
            Just(WheelOp::PopRequeue),
            (s - 2..3 * s).prop_map(|by| WheelOp::Idle { by }),
            (0u32..8).prop_map(|x| if x == 0 {
                WheelOp::Clear
            } else {
                WheelOp::Pop { n: 1 }
            }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The wheel against the `BTreeSet` model: pushes on the window's
        /// edges to the millisecond, before `base`, laps ahead (slots
        /// reused after wrap-around, also across idle gaps longer than
        /// the wheel), and same-millisecond bursts whose entries end up
        /// split across the wheel and `far`; mixed with pops,
        /// pop-and-requeue and `clear`. Every pop is the model's
        /// minimum, and `peek_time`/`len` agree with it after every
        /// step.
        #[test]
        fn prop_wheel_window_order_invariant(ops in proptest::collection::vec(wheel_op(), 1..300)) {
            let mut q = EventQueue::new();
            let mut model = Model::new();
            let mut base = 0u64;
            let push = |q: &mut EventQueue<u64>, model: &mut Model, t: u64| {
                model.insert((t, q.total_pushed()));
                q.push(SimTime::from_millis(t), q.total_pushed());
            };
            for op in ops {
                match op {
                    WheelOp::Push { by, n } => {
                        for _ in 0..n {
                            push(&mut q, &mut model, base + by);
                        }
                    }
                    WheelOp::PushBehind { by } => push(&mut q, &mut model, base.saturating_sub(by)),
                    WheelOp::PushAtQueued { pick } => {
                        if let Some(&(t, _)) = model.iter().nth(pick % model.len().max(1)) {
                            push(&mut q, &mut model, t);
                        }
                    }
                    WheelOp::Run { by, step, n } => {
                        for i in 0..n as u64 {
                            push(&mut q, &mut model, base + by + i * step);
                        }
                    }
                    WheelOp::Pop { n } => {
                        for _ in 0..n {
                            let got = q.pop().map(|(t, id)| (t.as_millis(), id));
                            prop_assert_eq!(got, model.pop_first());
                            base = base.max(got.map_or(0, |(t, _)| t));
                        }
                    }
                    WheelOp::PopRequeue => {
                        let popped = q.total_popped();
                        if let Some((t, seq, id)) = q.pop_with_seq() {
                            prop_assert_eq!(Some(&(t.as_millis(), id)), model.first());
                            prop_assert_eq!(seq, id);
                            base = base.max(t.as_millis());
                            q.requeue(t, seq, id);
                        }
                        prop_assert_eq!(q.total_popped(), popped);
                    }
                    WheelOp::Idle { by } => {
                        let until = base + by;
                        push(&mut q, &mut model, until);
                        while base < until {
                            let got = q.pop().map(|(t, id)| (t.as_millis(), id));
                            prop_assert_eq!(got, model.pop_first());
                            base = base.max(got.expect("the push above is queued").0);
                        }
                    }
                    WheelOp::Clear => {
                        q.clear();
                        model.clear();
                    }
                }
                prop_assert_eq!(q.peek_time().map(SimTime::as_millis), model.first().map(|e| e.0));
                prop_assert_eq!(q.len(), model.len());
                prop_assert_eq!(q.is_empty(), model.is_empty());
            }
            while let Some((t, id)) = q.pop() {
                prop_assert_eq!(Some((t.as_millis(), id)), model.pop_first());
            }
            prop_assert!(model.is_empty());
        }
    }
}
