//! The deterministic event queue at the heart of the DES engine.

use crate::time::{SimDuration, SimTime};

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
    /// The min-heap ordering key.
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

/// A 4-ary min-heap over entries. Compared to the binary
/// `std::collections::BinaryHeap` this halves the tree depth, so a pop
/// touches ~half as many rows of the backing array — the dominant cost
/// at day-scale event counts (see the `engine/ping_chain_100k` and
/// `event_queue/push_pop_10k` probes in `BENCH_results.json`). The two
/// std tricks that make its binary heap fast are reproduced here for
/// arity 4: sifts move elements through a **hole** (one copy per level
/// instead of a three-copy swap), and pop sifts the displaced tail
/// element **down to a leaf first and then back up** (the element
/// almost always belongs near the bottom, so this near-halves the
/// comparisons of the classic compare-both-directions descent).
struct QuadHeap<E> {
    v: Vec<Entry<E>>,
}

/// A hole at `pos` in `data`: the element that lived there is held in
/// `elt`, and `move_to` fills the hole from another slot, re-opening it
/// there. On drop the held element is written back into the final hole
/// position, which keeps the heap a permutation of its elements even if
/// a key comparison panics (it cannot for `(SimTime, u64)`, but the
/// guard costs nothing).
struct Hole<'a, E> {
    data: &'a mut [Entry<E>],
    elt: std::mem::ManuallyDrop<Entry<E>>,
    pos: usize,
}

impl<'a, E> Hole<'a, E> {
    /// Safety: `pos` must be in bounds.
    unsafe fn new(data: &'a mut [Entry<E>], pos: usize) -> Self {
        debug_assert!(pos < data.len());
        let elt = std::ptr::read(data.get_unchecked(pos));
        Hole {
            data,
            elt: std::mem::ManuallyDrop::new(elt),
            pos,
        }
    }

    #[inline]
    fn key(&self) -> (SimTime, u64) {
        self.elt.key()
    }

    /// Safety: `i` must be in bounds and must not be the hole.
    #[inline]
    unsafe fn key_at(&self, i: usize) -> (SimTime, u64) {
        debug_assert!(i != self.pos && i < self.data.len());
        self.data.get_unchecked(i).key()
    }

    /// Safety: `i` must be in bounds and must not be the hole.
    #[inline]
    unsafe fn move_to(&mut self, i: usize) {
        debug_assert!(i != self.pos && i < self.data.len());
        let ptr = self.data.as_mut_ptr();
        std::ptr::copy_nonoverlapping(ptr.add(i), ptr.add(self.pos), 1);
        self.pos = i;
    }
}

impl<E> Drop for Hole<'_, E> {
    fn drop(&mut self) {
        // Fill the final hole with the held element.
        unsafe {
            let pos = self.pos;
            std::ptr::copy_nonoverlapping(&*self.elt, self.data.get_unchecked_mut(pos), 1);
        }
    }
}

impl<E> QuadHeap<E> {
    const ARITY: usize = 4;

    fn new() -> Self {
        QuadHeap { v: Vec::new() }
    }

    fn with_capacity(cap: usize) -> Self {
        QuadHeap {
            v: Vec::with_capacity(cap),
        }
    }

    fn push(&mut self, entry: Entry<E>) {
        self.v.push(entry);
        let pos = self.v.len() - 1;
        if pos > 0 {
            // Safety: pos is in bounds; the hole walks parent indices,
            // all < pos.
            unsafe {
                let mut hole = Hole::new(&mut self.v, pos);
                while hole.pos > 0 {
                    let parent = (hole.pos - 1) / Self::ARITY;
                    if hole.key() < hole.key_at(parent) {
                        hole.move_to(parent);
                    } else {
                        break;
                    }
                }
            }
        }
    }

    fn pop(&mut self) -> Option<Entry<E>> {
        let mut item = self.v.pop()?;
        if let Some(root) = self.v.first_mut() {
            std::mem::swap(&mut item, root);
            self.sift_down_to_bottom(0);
        }
        Some(item)
    }

    /// Take the hole straight down along min-children to a leaf, then
    /// sift the displaced element back up from there.
    fn sift_down_to_bottom(&mut self, pos: usize) {
        let n = self.v.len();
        let start = pos;
        // Safety: every index handled to the hole is < n and never
        // equals the hole's own position.
        unsafe {
            let mut hole = Hole::new(&mut self.v, pos);
            loop {
                let first = hole.pos * Self::ARITY + 1;
                if first >= n {
                    break;
                }
                let last = (first + Self::ARITY).min(n);
                let mut best = first;
                let mut best_key = hole.key_at(first);
                for c in first + 1..last {
                    let k = hole.key_at(c);
                    if k < best_key {
                        best = c;
                        best_key = k;
                    }
                }
                hole.move_to(best);
            }
            // Back up towards `start` (exclusive).
            while hole.pos > start {
                let parent = (hole.pos - 1) / Self::ARITY;
                if parent < start || hole.key() >= hole.key_at(parent) {
                    break;
                }
                hole.move_to(parent);
            }
        }
    }

    /// Classic downward sift with early exit — used by [`QuadHeap::heapify`]
    /// (for pop, [`QuadHeap::sift_down_to_bottom`] is faster because the
    /// displaced tail element almost always belongs near a leaf).
    fn sift_down(&mut self, pos: usize) {
        let n = self.v.len();
        // Safety: every index handed to the hole is < n and never equals
        // the hole's own position.
        unsafe {
            let mut hole = Hole::new(&mut self.v, pos);
            loop {
                let first = hole.pos * Self::ARITY + 1;
                if first >= n {
                    break;
                }
                let last = (first + Self::ARITY).min(n);
                let mut best = first;
                let mut best_key = hole.key_at(first);
                for c in first + 1..last {
                    let k = hole.key_at(c);
                    if k < best_key {
                        best = c;
                        best_key = k;
                    }
                }
                if hole.key() <= best_key {
                    break;
                }
                hole.move_to(best);
            }
        }
    }

    /// Floyd's bottom-up heap construction: O(n) total instead of
    /// O(n log n) sift-up pushes. Safe to call on any permutation of the
    /// backing vector.
    fn heapify(&mut self) {
        let n = self.v.len();
        if n < 2 {
            return;
        }
        let last_parent = (n - 2) / Self::ARITY;
        for i in (0..=last_parent).rev() {
            self.sift_down(i);
        }
    }

    fn peek(&self) -> Option<&Entry<E>> {
        self.v.first()
    }

    fn len(&self) -> usize {
        self.v.len()
    }

    fn is_empty(&self) -> bool {
        self.v.is_empty()
    }

    fn clear(&mut self) {
        self.v.clear();
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
    /// Entries due within [`FAR_HORIZON`] of the last popped time when
    /// they were pushed: the events a dispatch loop reorders against.
    heap: QuadHeap<E>,
    /// Entries pushed for [`FAR_HORIZON`] or more past the last popped
    /// time (a simulated day's job ends, time limits, claim
    /// submissions). Keeping them out of `heap` keeps its sifts as
    /// short as the handful of imminent events it holds. Entries never
    /// migrate: pops take the smaller of the tops, and the order is
    /// total by `(time, seq)`, so which heap held an entry is
    /// unobservable.
    far: QuadHeap<E>,
    /// Last popped time + [`FAR_HORIZON`]: pushes at or past it go to
    /// `far`.
    far_from: SimTime,
    /// Staging buffer for push *runs*: the first pushes after a pop go
    /// straight into the heap (the dispatch loop's one-push-per-pop
    /// steady state pays nothing), but a run that outlives the budget
    /// stages here and is merged in bulk at the next pop.
    pending: Vec<Entry<E>>,
    /// A bulk build absorbed as one descending-sorted segment: popping
    /// from its tail is O(1), so a push-then-drain burst costs one
    /// `sort_unstable` instead of n heap sifts + n heap pops. Only
    /// formed when the heap is (nearly) empty; steady-state dispatch
    /// never touches it.
    sorted: Vec<Entry<E>>,
    /// Pushes since the last pop (saturating at the direct-push budget).
    push_streak: u32,
    seq: u64,
    popped: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

/// Pushes per run that sift straight into the heap before staging
/// starts. Anything a dispatch handler fans out per event stays on the
/// direct path; a bootstrap burst or bulk rebuild overflows into the
/// staging buffer and gets one bulk merge (see
/// [`EventQueue::flush_pending`]).
const DIRECT_PUSH_BUDGET: u32 = 8;

/// Staged-run length at which a merge switches from per-entry sifts to
/// a bulk build (sort when it can become the sorted segment, Floyd
/// heapify otherwise).
const BULK_BUILD_MIN: usize = 64;

/// How far past the last popped time a push must lie to go to the far
/// heap. Not a tuning knob: on the paper's fib day (3.67 M events; per
/// pop `heap` holds ~9 entries, `far` ~590 job ends and time limits,
/// and `sorted` the bootstrap's ~4.2 k claim submissions) the day's
/// wall-clock is flat across 0.5 s, 2 s, 10 s and 120 s (404–447,
/// 457–518, 437–450, 460–468 ms over three runs each, against 459–499
/// with a single heap) — anything between the ~200 ms a request event
/// is scheduled ahead and the minutes a timer is.
const FAR_HORIZON: SimDuration = SimDuration::from_secs(10);

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty queue with pre-reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: QuadHeap::with_capacity(cap),
            far: QuadHeap::new(),
            far_from: SimTime::ZERO.saturating_add(FAR_HORIZON),
            pending: Vec::new(),
            sorted: Vec::new(),
            push_streak: 0,
            seq: 0,
            popped: 0,
        }
    }

    /// Schedule `event` at `time`. Events pushed for the same instant pop
    /// in push order.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.seq;
        self.seq += 1;
        let entry = Entry { time, seq, event };
        // Short push runs sift directly (the dispatch loop's steady
        // state); once a run outlives the budget, stage the rest for a
        // bulk merge at the next pop.
        if self.push_streak < DIRECT_PUSH_BUDGET {
            self.push_streak += 1;
            self.place(entry);
        } else {
            self.pending.push(entry);
        }
    }

    /// Sift one entry into the heap its distance from the last popped
    /// time selects.
    #[inline]
    fn place(&mut self, entry: Entry<E>) {
        if entry.time >= self.far_from {
            self.far.push(entry);
        } else {
            self.heap.push(entry);
        }
    }

    /// Merge staged pushes. The pop order is total by `(time, seq)`, so
    /// whether entries arrive by sift, heapify or sort is unobservable.
    #[inline]
    fn flush_pending(&mut self) {
        self.push_streak = 0;
        if self.pending.is_empty() {
            return;
        }
        if self.sorted.is_empty()
            && self.pending.len() >= BULK_BUILD_MIN
            && self.pending.len() >= 8 * self.heap.len()
        {
            // A bulk build from (nearly) scratch: absorb the few
            // direct-path entries, sort once descending, and drain from
            // the tail in O(1) per pop.
            self.pending.append(&mut self.heap.v);
            self.pending
                .sort_unstable_by_key(|e| std::cmp::Reverse(e.key()));
            std::mem::swap(&mut self.sorted, &mut self.pending);
        } else if self.pending.len() >= BULK_BUILD_MIN && self.pending.len() >= self.heap.len() {
            self.heap.v.append(&mut self.pending);
            self.heap.heapify();
        } else {
            while let Some(e) = self.pending.pop() {
                self.place(e);
            }
        }
    }

    /// Earliest entry across the sorted segment and the two heaps.
    #[inline]
    fn pop_entry(&mut self) -> Option<Entry<E>> {
        self.flush_pending();
        let from_sorted = match (self.sorted.last(), self.heap.peek()) {
            (Some(s), Some(h)) => s.key() <= h.key(),
            (Some(_), None) => true,
            (None, _) => false,
        };
        // With `far` empty (every event inside the horizon) this is one
        // length test on top of the two-way choice above.
        let near = if from_sorted {
            self.sorted.last()
        } else {
            self.heap.peek()
        };
        let from_far = match (self.far.peek(), near) {
            (Some(f), Some(n)) => f.key() < n.key(),
            (Some(_), None) => true,
            (None, _) => false,
        };
        let e = if from_far {
            self.far.pop()
        } else if from_sorted {
            self.sorted.pop()
        } else {
            self.heap.pop()
        }?;
        self.far_from = e.time.saturating_add(FAR_HORIZON);
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
    /// engine's single-heap-access dispatch path: no separate peek.
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
        // The entry was the queue's minimum a moment ago and is the
        // next to pop: it belongs with the imminent events whichever
        // heap it came from.
        self.heap.push(Entry { time, seq, event });
    }

    /// Timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        [
            self.heap.peek().map(|e| e.time),
            self.far.peek().map(|e| e.time),
            self.sorted.last().map(|e| e.time),
            self.pending.iter().map(|e| e.time).min(),
        ]
        .into_iter()
        .flatten()
        .min()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.far.len() + self.sorted.len() + self.pending.len()
    }

    /// True iff no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
            && self.far.is_empty()
            && self.sorted.is_empty()
            && self.pending.is_empty()
    }

    /// Total number of events ever popped (the engine's step counter).
    pub fn total_popped(&self) -> u64 {
        self.popped
    }

    /// Total number of events ever pushed.
    pub fn total_pushed(&self) -> u64 {
        self.seq
    }

    /// Drop every pending event.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.far.clear();
        self.pending.clear();
        self.sorted.clear();
        self.push_streak = 0;
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
        let h = FAR_HORIZON.as_millis();
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

        /// Interleaved push runs and pops across the bulk-heapify
        /// threshold: every pop must return exactly the (time, seq)
        /// minimum of what is queued at that instant — the Floyd rebuild
        /// path must be unobservable.
        #[test]
        fn prop_bulk_heapify_order_invariant(
            runs in proptest::collection::vec((proptest::collection::vec(0u64..200, 1..150), 0usize..80), 1..6)
        ) {
            let mut q = EventQueue::new();
            let mut model = std::collections::BTreeSet::new();
            let mut next_id = 0usize;
            for (times, pops) in runs {
                for t in times {
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

        /// Pushes on both sides of the far horizon, measured from the
        /// last popped time as the queue measures it (and a few before
        /// it), interleaved with pops, pop-and-requeue and `clear`:
        /// every pop is the `(time, seq)` minimum of a `BTreeSet` model,
        /// and `peek_time`/`len`/`is_empty` agree with it after every
        /// step — whichever of the heaps, the sorted segment or the
        /// staging buffer holds the entries.
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
}
