//! The backfill availability timeline.
//!
//! Slurm's backfill on the paper's cluster plans in **2-minute slots
//! over a 120-minute window** (§IV-B), i.e. 60 slots — which fits in a
//! `u64` bitmask per node. Bit `s` set means the node is free during
//! slot `[origin + s·res, origin + (s+1)·res)`. This makes the hot
//! operations of a pass — "can these `d` slots start at `s`?", "how long
//! is the free run from now?" — single AND/shift instructions, so a
//! 2,239-node cluster schedules quickly even with passes every few
//! seconds.
//!
//! Two accelerations keep the per-pass cost flat at production scale:
//!
//! * a **slot-0-free node bitset** (`now_free`) maintained on every
//!   block operation, so "who could start *now*?" queries
//!   ([`Timeline::find_single_now`], [`Timeline::count_startable`], the
//!   scheduler's eligible-node lookup) iterate only candidate nodes
//!   instead of scanning the whole cluster;
//! * a **bit-parallel fits mask** ([`Timeline::fits_mask`]): the set of
//!   start slots where `d` consecutive free slots exist is computed in
//!   O(log d) shift-ANDs per node, turning [`Timeline::find_start`]
//!   from an O(slots × nodes) loop-of-loops into one node-major
//!   counting sweep.
//!
//! Since PR 5 the "start now" queries are answered by a **run-length
//! index** (`RunIndex`): per-run-length buckets (bitset of the nodes
//! whose slot-0 free run is exactly ℓ), a run histogram with a non-empty
//! bucket mask, and a lazily rebuilt suffix count. The index is built
//! lazily on the first query and maintained incrementally — O(1) per
//! claim/release — so [`Timeline::find_single_now`] pops the smallest
//! non-empty bucket ≥ d, [`Timeline::count_startable`] reads a cached
//! suffix count, and [`Timeline::find_start`] short-circuits its
//! counting sweep whenever slot 0 already admits the request. Window
//! advances ([`Timeline::advance_slots`]) retain the index, re-bucketing
//! only the nodes whose slot-0 run can have changed (slot 0 free before
//! or after the shift) instead of invalidating it wholesale — the
//! property that lets the scheduler keep one persistent timeline alive
//! across passes.
//!
//! The original scan-based implementations are retained as
//! `*_reference` methods; property tests assert bit-exact equivalence.
//! They live here, not in the scheduler's `oracle`, because production
//! code reaches two of them: `find_single_now` answers `d == 0` through
//! its scan, and `find_start` falls back to its scan when the counting
//! sweep and the collection disagree.

use crate::ids::NodeId;
use simcore::{SimDuration, SimTime};
use std::cell::RefCell;

/// Node selection policy when several nodes satisfy a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FitPolicy {
    /// Lowest node index first (Slurm's default weight-ordered pick).
    FirstFit,
    /// The node whose free run is the smallest that still fits — keeps
    /// long gaps intact for long pilot jobs.
    BestFit,
}

/// A per-node free/busy bitmask over the backfill window.
#[derive(Debug, Clone)]
pub struct Timeline {
    origin: SimTime,
    slot_ms: u64,
    n_slots: u32,
    /// `origin + n_slots · slot_ms`: busy-until times at or past this
    /// block the whole window without any slot arithmetic — the common
    /// case for long-running HPC jobs, and the fast path that keeps the
    /// per-pass projection sweep division-free.
    window_end: SimTime,
    free: Vec<u64>,
    /// Bit `n` set iff node `n`'s slot 0 is free — the candidate set for
    /// every "start now" query.
    now_free: Vec<u64>,
    /// The run-length index, built lazily on the first "start now" query
    /// (so pass timelines that are only written never pay for it) and
    /// then maintained incrementally by every claim/release.
    index: RefCell<Option<RunIndex>>,
    /// Bumped on every window advance — lets a long-lived consumer (the
    /// scheduler's persistent plane) tag derived state with the window
    /// epoch it was computed against.
    generation: u64,
}

/// Run-length-bucketed index over the nodes' slot-0 free runs.
///
/// Invariants (whenever the index exists):
/// * `runs[n]` is exactly `free[n].trailing_ones()` — the length of the
///   free run starting at slot 0;
/// * bucket row ℓ of `buckets` has bit `n` set iff `runs[n] == ℓ`;
/// * `hist[ℓ]` counts the nodes in bucket ℓ and `nonempty` has bit ℓ set
///   iff `hist[ℓ] > 0`;
/// * `suffix[ℓ] == Σ_{j ≥ ℓ} hist[j]` whenever `suffix_valid` — the one
///   lazily invalidated piece, rebuilt in O(n_slots) on the next
///   [`Timeline::count_startable`] after a mutation.
#[derive(Debug, Clone)]
struct RunIndex {
    words: usize,
    runs: Vec<u8>,
    /// `(n_slots + 1)` rows × `words` columns, flattened row-major.
    buckets: Vec<u64>,
    /// Per-row lower bound on the first word with a set bit (clears never
    /// lower it, so it is repaired upward when a scan walks past zeros).
    lo: Vec<u32>,
    hist: Vec<u32>,
    nonempty: u64,
    suffix: Vec<u32>,
    suffix_valid: bool,
}

impl RunIndex {
    /// One sparse sweep: only nodes whose slot 0 is free (the `now_free`
    /// candidate set) are bucketed — bucket row 0 is never queried (the
    /// degenerate d = 0 request takes the reference path), so run-0 nodes
    /// contribute only to the histogram. On a ~95%-occupied production
    /// cluster this touches ~5% of the nodes.
    fn build(free: &[u64], now_free: &[u64], n_slots: u32) -> Self {
        let n = free.len();
        let words = n.div_ceil(64);
        let rows = n_slots as usize + 1;
        let mut runs = vec![0u8; n];
        let mut buckets = vec![0u64; rows * words];
        let mut lo = vec![words as u32; rows];
        let mut hist = vec![0u32; rows];
        let mut indexed = 0u32;
        for (w, bits) in now_free.iter().enumerate() {
            let mut m = *bits;
            while m != 0 {
                let b = m.trailing_zeros() as usize;
                m &= m - 1;
                let i = w * 64 + b;
                // `free` only has bits below n_slots, so trailing_ones
                // is already capped at n_slots.
                let r = free[i].trailing_ones() as usize;
                runs[i] = r as u8;
                buckets[r * words + w] |= 1u64 << b;
                lo[r] = lo[r].min(w as u32);
                hist[r] += 1;
                indexed += 1;
            }
        }
        hist[0] = n as u32 - indexed;
        let mut nonempty = 0u64;
        for (l, h) in hist.iter().enumerate() {
            if *h > 0 {
                nonempty |= 1 << l;
            }
        }
        RunIndex {
            words,
            runs,
            buckets,
            lo,
            hist,
            nonempty,
            suffix: vec![0; rows],
            suffix_valid: false,
        }
    }

    /// Move node `n` to the bucket of its new mask. O(1). Bucket row 0
    /// is not materialized (see [`RunIndex::build`]).
    #[inline]
    fn update(&mut self, node: usize, mask: u64) {
        let new = mask.trailing_ones() as u8;
        let old = self.runs[node];
        if new == old {
            return;
        }
        self.runs[node] = new;
        let (w, bit) = (node / 64, 1u64 << (node % 64));
        if old != 0 {
            self.buckets[old as usize * self.words + w] &= !bit;
        }
        if new != 0 {
            self.buckets[new as usize * self.words + w] |= bit;
            self.lo[new as usize] = self.lo[new as usize].min(w as u32);
        }
        self.hist[old as usize] -= 1;
        if self.hist[old as usize] == 0 {
            self.nonempty &= !(1u64 << old);
        }
        self.hist[new as usize] += 1;
        self.nonempty |= 1u64 << new;
        self.suffix_valid = false;
    }

    /// The cached suffix counts (`suffix[ℓ]` = nodes with run ≥ ℓ),
    /// rebuilt from the histogram if a mutation invalidated them.
    fn suffix_counts(&mut self) -> &[u32] {
        if !self.suffix_valid {
            let mut acc = 0u32;
            for l in (0..self.hist.len()).rev() {
                acc += self.hist[l];
                self.suffix[l] = acc;
            }
            self.suffix_valid = true;
        }
        &self.suffix
    }

    /// Lowest node id in bucket ℓ; `None` if it is empty. Starts at the
    /// row's low-word hint and repairs it to the word it lands on.
    fn lowest_in_bucket(&mut self, l: u32) -> Option<u32> {
        let row = l as usize * self.words;
        for w in self.lo[l as usize] as usize..self.words {
            let bits = self.buckets[row + w];
            if bits != 0 {
                self.lo[l as usize] = w as u32;
                return Some((w * 64) as u32 + bits.trailing_zeros());
            }
        }
        self.lo[l as usize] = self.words as u32;
        None
    }

    /// Visit nodes with run ≥ `d` in ascending id order until `f`
    /// returns `false`. Word-major union over the non-empty buckets ≥ d,
    /// starting at the lowest hint among the candidate rows.
    fn for_each_ge(&self, d: u32, mut f: impl FnMut(u32) -> bool) {
        let cand = self.nonempty >> d;
        if cand == 0 {
            return;
        }
        let mut start = self.words;
        let mut c = cand;
        while c != 0 {
            let l = d + c.trailing_zeros();
            start = start.min(self.lo[l as usize] as usize);
            c &= c - 1;
        }
        for w in start..self.words {
            let mut m = 0u64;
            let mut c = cand;
            while c != 0 {
                let l = d + c.trailing_zeros();
                m |= self.buckets[l as usize * self.words + w];
                c &= c - 1;
            }
            while m != 0 {
                let b = m.trailing_zeros();
                m &= m - 1;
                if !f((w * 64) as u32 + b) {
                    return;
                }
            }
        }
    }

    /// Lowest node id with run ≥ `d` (first-fit). Takes the minimum of
    /// `lowest_in_bucket` over the populated buckets ≥ `d` — each an
    /// amortized-O(1) hop from its low-word hint — and prunes any bucket
    /// whose hint already lies past the best candidate, instead of the
    /// former word-major union walk that scanned O(words) per query.
    fn first_ge(&mut self, d: u32) -> Option<u32> {
        let mut cand = self.nonempty >> d;
        let mut best: Option<u32> = None;
        while cand != 0 {
            let l = d + cand.trailing_zeros();
            cand &= cand - 1;
            if let Some(b) = best {
                // `lo` is a lower bound on the bucket's first populated
                // word: everything in it is ≥ lo·64.
                if self.lo[l as usize] * 64 > b {
                    continue;
                }
            }
            if let Some(n) = self.lowest_in_bucket(l) {
                if best.is_none_or(|b| n < b) {
                    best = Some(n);
                }
            }
        }
        best
    }
}

/// Positions where a run of at least `d` consecutive set bits starts,
/// computed with the doubling shift-AND trick (`d ≤ 64`). Runs in u128
/// so that start positions near the window end — whose requirement is
/// satisfied by the always-free beyond-window region — keep their
/// virtual free bits instead of shifting in zeroes.
#[inline]
fn runs_ge(mut m: u128, d: u32) -> u128 {
    debug_assert!((1..=64).contains(&d));
    let mut have = 1u32;
    while have < d {
        let step = have.min(d - have);
        m &= m >> step;
        have += step;
    }
    m
}

impl Timeline {
    /// A window of `n_slots` slots of `resolution` each, starting at
    /// `origin`, with every node free.
    pub fn new(origin: SimTime, resolution: SimDuration, n_slots: u32, n_nodes: usize) -> Self {
        assert!((1..=63).contains(&n_slots));
        let all_free = (1u64 << n_slots) - 1;
        let words = n_nodes.div_ceil(64);
        let mut now_free = vec![u64::MAX; words];
        if !n_nodes.is_multiple_of(64) {
            now_free[words.max(1) - 1] = (1u64 << (n_nodes % 64)) - 1;
        }
        if n_nodes == 0 {
            now_free.clear();
        }
        let slot_ms = resolution.as_millis();
        Timeline {
            origin,
            slot_ms,
            n_slots,
            window_end: origin + SimDuration::from_millis(slot_ms * n_slots as u64),
            free: vec![all_free; n_nodes],
            now_free,
            index: RefCell::new(None),
            generation: 0,
        }
    }

    /// Keep the run index (if built) in sync after `free[node]` changed.
    #[inline]
    fn touch(&mut self, node: usize) {
        if let Some(idx) = self.index.get_mut().as_mut() {
            idx.update(node, self.free[node]);
        }
    }

    /// Run `f` on the index, building it first if needed.
    #[inline]
    fn with_index<R>(&self, f: impl FnOnce(&mut RunIndex) -> R) -> R {
        let mut guard = self.index.borrow_mut();
        let idx =
            guard.get_or_insert_with(|| RunIndex::build(&self.free, &self.now_free, self.n_slots));
        f(idx)
    }

    /// Build a timeline directly from per-node free masks (bit `s` of
    /// `masks[n]` set ⟺ node `n` free in slot `s`; bits at or above
    /// `n_slots` must be clear) and the slot-0-free words the caller's
    /// sweep accumulated (the scheduler folds them into its projection
    /// pass, so it pays no per-node `block_*` call).
    pub(crate) fn from_parts(
        origin: SimTime,
        resolution: SimDuration,
        n_slots: u32,
        masks: Vec<u64>,
        now_free: Vec<u64>,
    ) -> Self {
        assert!((1..=63).contains(&n_slots));
        debug_assert_eq!(now_free.len(), masks.len().div_ceil(64));
        debug_assert!(masks.iter().all(|m| m >> n_slots == 0));
        debug_assert!(masks
            .iter()
            .enumerate()
            .all(|(i, m)| (now_free[i / 64] >> (i % 64)) & 1 == m & 1));
        let slot_ms = resolution.as_millis();
        Timeline {
            origin,
            slot_ms,
            n_slots,
            window_end: origin + SimDuration::from_millis(slot_ms * n_slots as u64),
            free: masks,
            now_free,
            index: RefCell::new(None),
            generation: 0,
        }
    }

    /// How many window advances this timeline has absorbed (epoch tag
    /// for persistent-plane consumers and debug diagnostics).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Window start.
    pub fn origin(&self) -> SimTime {
        self.origin
    }

    /// Number of slots.
    pub fn n_slots(&self) -> u32 {
        self.n_slots
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.free.len()
    }

    /// Slot index containing time `t` (clamped to the window end).
    pub fn slot_of(&self, t: SimTime) -> u32 {
        if t <= self.origin {
            return 0;
        }
        ((t.since(self.origin).as_millis()) / self.slot_ms).min(self.n_slots as u64) as u32
    }

    /// Slot index covering `t`, rounded *up* to the next boundary — used
    /// for busy-until times so partial slots count as busy.
    pub fn slot_of_ceil(&self, t: SimTime) -> u32 {
        if t <= self.origin {
            return 0;
        }
        let ms = t.since(self.origin).as_millis();
        (ms.div_ceil(self.slot_ms)).min(self.n_slots as u64) as u32
    }

    /// Absolute time of slot `s`'s start.
    pub fn slot_start(&self, s: u32) -> SimTime {
        self.origin + SimDuration::from_millis(self.slot_ms * s as u64)
    }

    #[inline]
    fn clear_now_free(&mut self, node: NodeId) {
        self.now_free[node.0 as usize / 64] &= !(1u64 << (node.0 % 64));
    }

    /// Mark the whole window busy for a node (down nodes).
    pub fn block_all(&mut self, node: NodeId) {
        self.free[node.0 as usize] = 0;
        self.clear_now_free(node);
        self.touch(node.0 as usize);
    }

    /// Mark the node busy from the window start until `t` (rounded up to
    /// a slot boundary) — running jobs with predicted end `t`.
    pub fn block_until(&mut self, node: NodeId, t: SimTime) {
        if t >= self.window_end {
            // Busy past the whole window: no slot arithmetic needed.
            self.free[node.0 as usize] = 0;
            self.clear_now_free(node);
            self.touch(node.0 as usize);
            return;
        }
        let s = self.slot_of_ceil(t);
        if s == 0 {
            return;
        }
        let mask = (1u64 << s) - 1;
        self.free[node.0 as usize] &= !mask;
        self.clear_now_free(node);
        self.touch(node.0 as usize);
    }

    /// Mark slots `[from_slot, to_slot)` busy — reservations.
    pub fn block_slots(&mut self, node: NodeId, from_slot: u32, to_slot: u32) {
        let to = to_slot.min(self.n_slots);
        if from_slot >= to {
            return;
        }
        let mask = range_mask(from_slot, to);
        self.free[node.0 as usize] &= !mask;
        if from_slot == 0 {
            self.clear_now_free(node);
        }
        self.touch(node.0 as usize);
    }

    /// Mark slots `[from_slot, to_slot)` free again — a claim ending
    /// early, or capacity handed back between passes.
    pub fn release_slots(&mut self, node: NodeId, from_slot: u32, to_slot: u32) {
        let to = to_slot.min(self.n_slots);
        if from_slot >= to {
            return;
        }
        self.free[node.0 as usize] |= range_mask(from_slot, to);
        if from_slot == 0 {
            self.now_free[node.0 as usize / 64] |= 1u64 << (node.0 % 64);
        }
        self.touch(node.0 as usize);
    }

    /// Slide the window `k` slots forward: slot `s` now covers what slot
    /// `s + k` covered, and the `k` slots uncovered at the far end are
    /// free (nothing beyond the old window was known to be busy, matching
    /// [`Timeline::is_free_range`]'s truncation). The run index is
    /// *retained*: only nodes whose slot-0 run can have changed — those
    /// with slot 0 free before or after the shift — are re-bucketed, so
    /// an advance costs O(free nodes) instead of a wholesale rebuild on
    /// the next query.
    pub fn advance_slots(&mut self, k: u32) {
        if k == 0 {
            return;
        }
        self.generation += 1;
        let shift = SimDuration::from_millis(self.slot_ms * k as u64);
        self.origin += shift;
        self.window_end += shift;
        let all_free = (1u64 << self.n_slots) - 1;
        // Snapshot the pre-shift slot-0-free words: a node absent from
        // both the old and new candidate sets had run 0 before and after,
        // so its bucket entry is already correct.
        let old_now_free = if self.index.get_mut().is_some() {
            self.now_free.clone()
        } else {
            Vec::new()
        };
        if k >= self.n_slots {
            self.free.fill(all_free);
        } else {
            let tail = range_mask(self.n_slots - k, self.n_slots);
            for m in &mut self.free {
                *m = (*m >> k) | tail;
            }
        }
        for w in &mut self.now_free {
            *w = 0;
        }
        for (i, m) in self.free.iter().enumerate() {
            if m & 1 != 0 {
                self.now_free[i / 64] |= 1u64 << (i % 64);
            }
        }
        let free = &self.free;
        let now_free = &self.now_free;
        if let Some(idx) = self.index.get_mut().as_mut() {
            for (w, old) in old_now_free.iter().enumerate() {
                let mut m = old | now_free[w];
                while m != 0 {
                    let b = m.trailing_zeros() as usize;
                    m &= m - 1;
                    let i = w * 64 + b;
                    idx.update(i, free[i]);
                }
            }
        }
    }

    /// Move the window anchor forward to `new_origin` *without touching
    /// any mask*: slot `s` now starts at `new_origin + s·resolution`.
    /// The persistent scheduling plane uses this when re-anchoring at a
    /// pass instant — a node's slot-rounded free mask is unchanged by an
    /// anchor move unless the anchor crossed one of the node's
    /// busy-release residues, and the caller re-masks exactly those
    /// nodes afterwards.
    pub fn rebase(&mut self, new_origin: SimTime) {
        debug_assert!(new_origin >= self.origin, "rebase only moves forward");
        if new_origin == self.origin {
            return;
        }
        self.generation += 1;
        self.window_end = new_origin + SimDuration::from_millis(self.slot_ms * self.n_slots as u64);
        self.origin = new_origin;
    }

    /// Overwrite a node's free mask wholesale — the persistent scheduling
    /// plane recomputing a node from its authoritative projection. Keeps
    /// the slot-0 bitset and the run index in sync; no-op (and no index
    /// traffic) when the mask is unchanged.
    pub fn set_node_mask(&mut self, node: NodeId, mask: u64) {
        debug_assert_eq!(mask >> self.n_slots, 0, "mask has bits past the window");
        let i = node.0 as usize;
        if self.free[i] == mask {
            return;
        }
        self.free[i] = mask;
        let (w, bit) = (i / 64, 1u64 << (i % 64));
        if mask & 1 != 0 {
            self.now_free[w] |= bit;
        } else {
            self.now_free[w] &= !bit;
        }
        self.touch(i);
    }

    /// True iff both timelines describe the same occupancy: same origin
    /// and bit-identical free masks (differential checks of the
    /// persistent plane against a fresh rebuild).
    #[doc(hidden)]
    pub fn same_occupancy(&self, other: &Timeline) -> bool {
        self.origin == other.origin && self.free == other.free && self.now_free == other.now_free
    }

    /// Mark the node busy over the absolute interval `[from, to)`
    /// (outer slot rounding: from rounds down, to rounds up).
    pub fn block_interval(&mut self, node: NodeId, from: SimTime, to: SimTime) {
        if to <= self.origin || from >= self.window_end {
            return;
        }
        let fs = self.slot_of(from);
        let ts = if to >= self.window_end {
            self.n_slots
        } else {
            self.slot_of_ceil(to)
        };
        self.block_slots(node, fs, ts);
    }

    /// True iff slots `[s, s+d)` are all free on `node` (`d >= 1`).
    /// Requests reaching past the window end are truncated to it:
    /// nothing beyond the window is known to be busy.
    pub fn is_free_range(&self, node: NodeId, s: u32, d: u32) -> bool {
        if d == 0 {
            return true;
        }
        if s >= self.n_slots {
            return false;
        }
        let end = (s + d).min(self.n_slots);
        let mask = range_mask(s, end);
        self.free[node.0 as usize] & mask == mask
    }

    /// Length of the consecutive free run starting at slot `s`.
    pub fn free_run_from(&self, node: NodeId, s: u32) -> u32 {
        if s >= self.n_slots {
            return 0;
        }
        // The free mask only has bits below n_slots, so trailing ones of
        // the shifted mask is the run length, capped at the window end.
        let shifted = self.free[node.0 as usize] >> s;
        shifted.trailing_ones().min(self.n_slots - s)
    }

    /// The set of start slots at which `node` can begin a `d`-slot run
    /// (bit `s` set ⟺ `is_free_range(node, s, d)`), computed in
    /// O(log d) shift-ANDs. Beyond-window slots count as free, matching
    /// [`Timeline::is_free_range`]'s truncation.
    #[inline]
    pub fn fits_mask(&self, node: NodeId, d: u32) -> u64 {
        let valid = (1u64 << self.n_slots) - 1;
        let d = d.clamp(1, self.n_slots);
        // Everything at or beyond the window end counts as free, so a
        // start slot near the end only needs the in-window remainder.
        let ext: u128 = self.free[node.0 as usize] as u128 | (!0u128 << self.n_slots);
        (runs_ge(ext, d) as u64) & valid
    }

    /// The words of the slot-0-free node bitset — nodes whose bit is
    /// clear cannot start anything *now*. Used by the scheduler's
    /// indexed eligible-node lookup.
    pub fn now_free_words(&self) -> &[u64] {
        &self.now_free
    }

    /// Earliest slot `s` at which at least `k` nodes are simultaneously
    /// free for `d` consecutive slots; returns `(s, chosen_nodes)`.
    /// Nodes are chosen first-fit (lowest index).
    ///
    /// One node-major sweep accumulates per-slot viable-node counts from
    /// each node's [`Timeline::fits_mask`]; the earliest slot reaching
    /// `k` wins and a second bounded pass picks its first `k` nodes.
    pub fn find_start(&self, k: u32, d: u32, max_slot: u32) -> Option<(u32, Vec<NodeId>)> {
        if k == 0 {
            // Mirrors the reference scan: the "found k" check sits after
            // a push, so k = 0 can never match.
            return None;
        }
        let d = d.max(1);
        let d_eff = d.min(self.n_slots);
        // Slot-0 fast path: the run index already knows how many nodes
        // can start a d-slot run *now*; when that satisfies k, the
        // earliest slot is 0 and the first k eligible nodes fall out of
        // one ascending bucket-union walk — no per-node fits masks.
        if self.count_startable(d) >= k {
            let mut chosen = Vec::with_capacity(k as usize);
            self.with_index(|idx| {
                idx.for_each_ge(d_eff, |n| {
                    chosen.push(NodeId(n));
                    (chosen.len() as u32) < k
                })
            });
            // A shortfall means the suffix counts and the bucket walk
            // disagree — an index bug. Abort loudly in debug builds; in
            // release, fall through to the counting sweep (whose own
            // mismatch path degrades to the reference scan) rather than
            // return a short node list.
            debug_assert_eq!(chosen.len() as u32, k);
            if chosen.len() as u32 == k {
                return Some((0, chosen));
            }
        }
        let last = max_slot.min(self.n_slots.saturating_sub(1));
        let slot_lim = if last >= 63 {
            u64::MAX
        } else {
            (1u64 << (last + 1)) - 1
        };
        let mut counts = [0u32; 64];
        for i in 0..self.free.len() {
            let mut fits = self.fits_mask(NodeId(i as u32), d) & slot_lim;
            while fits != 0 {
                let s = fits.trailing_zeros();
                counts[s as usize] += 1;
                fits &= fits - 1;
            }
            if counts[0] >= k {
                break; // slot 0 is feasible; nothing can beat it
            }
        }
        let s = (0..=last).find(|s| counts[*s as usize] >= k)?;
        let mut chosen = Vec::with_capacity(k as usize);
        for i in 0..self.free.len() {
            let node = NodeId(i as u32);
            if self.is_free_range(node, s, d) {
                chosen.push(node);
                if chosen.len() as u32 == k {
                    return Some((s, chosen));
                }
            }
        }
        // The counting sweep and the collection scan disagreeing means an
        // index/mask inconsistency. Abort loudly in debug builds; in
        // release, degrade to the slow-but-correct reference scan instead
        // of killing a day-long simulation.
        debug_assert!(
            false,
            "counting sweep found {k} nodes at slot {s}, collection found fewer"
        );
        self.find_start_reference(k, d, max_slot)
    }

    /// Find a single node able to start a `d`-slot job at slot 0,
    /// answered by the run index in O(1) amortized:
    ///
    /// * `BestFit` pops the smallest non-empty bucket ≥ d (the node with
    ///   the tightest still-fitting slot-0 run, lowest id on ties —
    ///   exactly the reference scan's answer);
    /// * `FirstFit` takes the lowest id across all buckets ≥ d.
    pub fn find_single_now(&self, d: u32, policy: FitPolicy) -> Option<NodeId> {
        if d == 0 {
            // Degenerate request: every node fits; preserve the
            // reference scan's answers exactly.
            return self.find_single_now_reference(d, policy);
        }
        if self.free.is_empty() {
            return None;
        }
        let d_eff = d.min(self.n_slots);
        self.with_index(|idx| match policy {
            FitPolicy::FirstFit => idx.first_ge(d_eff).map(NodeId),
            FitPolicy::BestFit => {
                let m = idx.nonempty >> d_eff;
                if m == 0 {
                    return None;
                }
                let l = d_eff + m.trailing_zeros();
                idx.lowest_in_bucket(l).map(NodeId)
            }
        })
    }

    /// Number of nodes free at slot 0 for at least `d` slots — a cached
    /// suffix count over the run histogram (O(1) amortized; rebuilt in
    /// O(n_slots) after a mutation).
    pub fn count_startable(&self, d: u32) -> u32 {
        if d == 0 {
            return self.free.len() as u32;
        }
        if self.free.is_empty() {
            return 0;
        }
        let d_eff = d.min(self.n_slots) as usize;
        self.with_index(|idx| idx.suffix_counts()[d_eff])
    }

    /// Raw mask for a node (tests).
    pub fn mask(&self, node: NodeId) -> u64 {
        self.free[node.0 as usize]
    }

    /// The canonical deterministic churn workload shared by the
    /// `scheduler/placement_churn_2239_nodes` perf probe and the
    /// `placement_churn` regression test (which pins its final state
    /// against the reference scans): BestFit claims from an LCG stream,
    /// releases when saturated, periodic window advances. One definition
    /// keeps the measured shape and the tested one from drifting apart.
    /// Returns the number of placements.
    #[doc(hidden)]
    pub fn run_deterministic_churn(&mut self, steps: u64) -> u64 {
        self.run_deterministic_churn_with(steps, FitPolicy::BestFit)
    }

    /// [`Timeline::run_deterministic_churn`] with an explicit fit policy
    /// — the FirstFit variant backs the probe proving its bucket-hint
    /// query matches BestFit's amortized cost.
    #[doc(hidden)]
    pub fn run_deterministic_churn_with(&mut self, steps: u64, policy: FitPolicy) -> u64 {
        let n = self.n_nodes() as u64;
        let window = self.n_slots();
        let mut placed = 0u64;
        let mut x = 0x243F_6A88_85A3_08D3u64;
        for step in 0..steps {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let d = (1 + (x >> 33) % 31) as u32;
            if let Some(node) = self.find_single_now(d, policy) {
                self.block_slots(node, 0, d);
                placed += 1;
            } else {
                // Saturated: hand back a random node's low slots.
                let node = NodeId(((x >> 17) % n) as u32);
                self.release_slots(node, 0, 1 + ((x >> 7) % window as u64) as u32);
            }
            if step % 64 == 63 {
                self.advance_slots(1 + (x % 4) as u32);
            }
        }
        placed
    }

    // ------------------------------------------------------------------
    // Reference implementations (pre-optimization scans): the judges of
    // the differential tests, and two fallbacks of the queries above.
    // ------------------------------------------------------------------

    /// Scan-based [`Timeline::find_start`] (O(slots × nodes)).
    pub fn find_start_reference(
        &self,
        k: u32,
        d: u32,
        max_slot: u32,
    ) -> Option<(u32, Vec<NodeId>)> {
        let d = d.max(1);
        let last = max_slot.min(self.n_slots.saturating_sub(1));
        for s in 0..=last {
            let mut chosen = Vec::with_capacity(k as usize);
            for (i, _) in self.free.iter().enumerate() {
                let node = NodeId(i as u32);
                if self.is_free_range(node, s, d) {
                    chosen.push(node);
                    if chosen.len() as u32 == k {
                        return Some((s, chosen));
                    }
                }
            }
        }
        None
    }

    /// Scan-based [`Timeline::find_single_now`].
    pub fn find_single_now_reference(&self, d: u32, policy: FitPolicy) -> Option<NodeId> {
        match policy {
            FitPolicy::FirstFit => (0..self.free.len())
                .map(|i| NodeId(i as u32))
                .find(|n| self.is_free_range(*n, 0, d)),
            FitPolicy::BestFit => {
                let mut best: Option<(u32, NodeId)> = None;
                for i in 0..self.free.len() {
                    let node = NodeId(i as u32);
                    if !self.is_free_range(node, 0, d) {
                        continue;
                    }
                    let run = self.free_run_from(node, 0);
                    match best {
                        Some((brun, _)) if brun <= run => {}
                        _ => best = Some((run, node)),
                    }
                    if run == d {
                        break; // perfect fit
                    }
                }
                best.map(|(_, n)| n)
            }
        }
    }

    /// Scan-based [`Timeline::count_startable`].
    pub fn count_startable_reference(&self, d: u32) -> u32 {
        (0..self.free.len())
            .filter(|i| self.is_free_range(NodeId(*i as u32), 0, d))
            .count() as u32
    }
}

fn range_mask(from: u32, to: u32) -> u64 {
    debug_assert!(from < to && to <= 63);
    ((1u64 << (to - from)) - 1) << from
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(n_nodes: usize) -> Timeline {
        Timeline::new(
            SimTime::from_mins(100),
            SimDuration::from_mins(2),
            60,
            n_nodes,
        )
    }

    #[test]
    fn slot_math() {
        let tl = mk(1);
        assert_eq!(tl.slot_of(SimTime::from_mins(100)), 0);
        assert_eq!(tl.slot_of(SimTime::from_mins(101)), 0);
        assert_eq!(tl.slot_of(SimTime::from_mins(102)), 1);
        assert_eq!(tl.slot_of_ceil(SimTime::from_mins(101)), 1);
        assert_eq!(tl.slot_of_ceil(SimTime::from_mins(102)), 1);
        assert_eq!(tl.slot_of_ceil(SimTime::from_mins(103)), 2);
        // Clamping at window end (120 min window → slot 60).
        assert_eq!(tl.slot_of(SimTime::from_mins(500)), 60);
        assert_eq!(tl.slot_start(3), SimTime::from_mins(106));
        // Before origin.
        assert_eq!(tl.slot_of(SimTime::ZERO), 0);
        assert_eq!(tl.slot_of_ceil(SimTime::ZERO), 0);
    }

    #[test]
    fn block_until_rounds_up() {
        let mut tl = mk(2);
        tl.block_until(NodeId(0), SimTime::from_mins(101)); // mid-slot 0
        assert!(!tl.is_free_range(NodeId(0), 0, 1));
        assert!(tl.is_free_range(NodeId(0), 1, 59));
        assert!(tl.is_free_range(NodeId(1), 0, 60));
    }

    #[test]
    fn block_interval_outer_rounding() {
        let mut tl = mk(1);
        // [103, 105) min → slots 1 (contains 103) through 2 (104-106 contains 105).
        tl.block_interval(NodeId(0), SimTime::from_mins(103), SimTime::from_mins(105));
        assert!(tl.is_free_range(NodeId(0), 0, 1));
        assert!(!tl.is_free_range(NodeId(0), 1, 1));
        assert!(!tl.is_free_range(NodeId(0), 2, 1));
        assert!(tl.is_free_range(NodeId(0), 3, 57));
        // Interval entirely before the origin is a no-op.
        let mut tl2 = mk(1);
        tl2.block_interval(NodeId(0), SimTime::ZERO, SimTime::from_mins(50));
        assert!(tl2.is_free_range(NodeId(0), 0, 60));
    }

    #[test]
    fn free_run_lengths() {
        let mut tl = mk(1);
        tl.block_slots(NodeId(0), 5, 7);
        assert_eq!(tl.free_run_from(NodeId(0), 0), 5);
        assert_eq!(tl.free_run_from(NodeId(0), 5), 0);
        assert_eq!(tl.free_run_from(NodeId(0), 7), 53);
        assert_eq!(tl.free_run_from(NodeId(0), 60), 0);
    }

    #[test]
    fn range_past_window_is_truncated() {
        let tl = mk(1);
        // Asking for 100 slots from slot 10: only 50 remain in the
        // window; beyond it, nothing is known busy.
        assert!(tl.is_free_range(NodeId(0), 10, 100));
        assert!(!tl.is_free_range(NodeId(0), 60, 1));
    }

    #[test]
    fn find_start_multi_node() {
        let mut tl = mk(4);
        tl.block_until(NodeId(0), SimTime::from_mins(110)); // 5 slots
        tl.block_until(NodeId(1), SimTime::from_mins(104)); // 2 slots
        tl.block_all(NodeId(2));
        // Node 3 free everywhere. 2 nodes × 3 slots: node 1 frees at
        // slot 2, node 3 always → s=2.
        let (s, nodes) = tl.find_start(2, 3, 59).unwrap();
        assert_eq!(s, 2);
        assert_eq!(nodes, vec![NodeId(1), NodeId(3)]);
        // 3 nodes × 1 slot → must wait for node 0 at slot 5.
        let (s, nodes) = tl.find_start(3, 1, 59).unwrap();
        assert_eq!(s, 5);
        assert_eq!(nodes, vec![NodeId(0), NodeId(1), NodeId(3)]);
        // 4 nodes: impossible (node 2 down).
        assert!(tl.find_start(4, 1, 59).is_none());
    }

    #[test]
    fn find_single_best_fit_prefers_tight_gap() {
        let mut tl = mk(3);
        tl.block_slots(NodeId(0), 10, 60); // run of 10 from 0
        tl.block_slots(NodeId(1), 4, 60); // run of 4
                                          // Node 2 fully free (run 60).
        assert_eq!(tl.find_single_now(3, FitPolicy::BestFit), Some(NodeId(1)));
        assert_eq!(tl.find_single_now(3, FitPolicy::FirstFit), Some(NodeId(0)));
        assert_eq!(tl.find_single_now(11, FitPolicy::BestFit), Some(NodeId(2)));
        assert_eq!(tl.find_single_now(61, FitPolicy::BestFit), Some(NodeId(2)));
    }

    #[test]
    fn count_startable() {
        let mut tl = mk(3);
        tl.block_until(NodeId(0), SimTime::from_mins(104));
        assert_eq!(tl.count_startable(1), 2);
        assert_eq!(tl.count_startable(60), 2);
    }

    #[test]
    fn fits_mask_matches_is_free_range() {
        let mut tl = mk(2);
        tl.block_slots(NodeId(0), 3, 7);
        tl.block_slots(NodeId(0), 20, 21);
        tl.block_until(NodeId(1), SimTime::from_mins(108));
        for d in [1u32, 2, 3, 5, 40, 60, 100] {
            for n in [NodeId(0), NodeId(1)] {
                let fits = tl.fits_mask(n, d);
                for s in 0..60u32 {
                    assert_eq!(
                        fits & (1 << s) != 0,
                        tl.is_free_range(n, s, d),
                        "node {n} d={d} s={s}"
                    );
                }
            }
        }
    }

    #[test]
    fn now_free_tracks_slot0() {
        let mut tl = mk(130);
        assert_eq!(tl.count_startable(1), 130);
        tl.block_all(NodeId(0));
        tl.block_until(NodeId(64), SimTime::from_mins(102));
        tl.block_slots(NodeId(129), 0, 1);
        tl.block_slots(NodeId(5), 10, 20); // slot 0 stays free
        assert_eq!(tl.count_startable(1), 127);
        let words = tl.now_free_words();
        assert_eq!(words.len(), 3);
        assert_eq!(words[0] & 1, 0);
        assert_eq!(words[1] & 1, 0);
        assert_eq!(words[2] & 2, 0);
        assert_ne!(words[0] & (1 << 5), 0);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Blocking never frees slots; free ranges shrink
            /// monotonically under arbitrary block sequences.
            #[test]
            fn prop_blocking_monotone(blocks in proptest::collection::vec((0u32..60, 1u32..61), 0..30)) {
                let mut tl = mk(1);
                let node = NodeId(0);
                let mut prev_free: u32 = (0..60)
                    .filter(|s| tl.is_free_range(node, *s, 1))
                    .count() as u32;
                for (from, len) in blocks {
                    tl.block_slots(node, from, from.saturating_add(len));
                    let free: u32 = (0..60)
                        .filter(|s| tl.is_free_range(node, *s, 1))
                        .count() as u32;
                    prop_assert!(free <= prev_free);
                    prev_free = free;
                }
            }

            /// free_run_from agrees with slot-by-slot is_free_range.
            #[test]
            fn prop_free_run_consistent(blocks in proptest::collection::vec((0u32..60, 1u32..20), 0..10),
                                        s in 0u32..60) {
                let mut tl = mk(1);
                let node = NodeId(0);
                for (from, len) in blocks {
                    tl.block_slots(node, from, (from + len).min(60));
                }
                let run = tl.free_run_from(node, s);
                // Every slot inside the run is free...
                for k in 0..run {
                    prop_assert!(tl.is_free_range(node, s + k, 1));
                }
                // ...and the slot just past it (if in-window) is busy.
                if s + run < 60 {
                    prop_assert!(!tl.is_free_range(node, s + run, 1));
                }
                // is_free_range over the whole run agrees.
                if run > 0 {
                    prop_assert!(tl.is_free_range(node, s, run));
                }
            }

            /// find_start returns the earliest feasible slot: nothing
            /// earlier admits k nodes for d slots.
            #[test]
            fn prop_find_start_earliest(seed_blocks in proptest::collection::vec((0usize..4, 0u32..60, 1u32..30), 0..20),
                                        k in 1u32..4, d in 1u32..10) {
                let mut tl = mk(4);
                for (n, from, len) in seed_blocks {
                    tl.block_slots(NodeId(n as u32), from, (from + len).min(60));
                }
                let feasible = |s: u32| {
                    (0..4).filter(|n| tl.is_free_range(NodeId(*n), s, d)).count() as u32 >= k
                };
                match tl.find_start(k, d, 59) {
                    Some((s, nodes)) => {
                        prop_assert_eq!(nodes.len() as u32, k);
                        for n in &nodes {
                            prop_assert!(tl.is_free_range(*n, s, d));
                        }
                        for earlier in 0..s {
                            prop_assert!(!feasible(earlier), "slot {} was feasible", earlier);
                        }
                    }
                    None => {
                        for s in 0..60 {
                            prop_assert!(!feasible(s));
                        }
                    }
                }
            }

            /// The bit-parallel queries are bit-identical to the scan
            /// reference under arbitrary block patterns.
            #[test]
            fn prop_optimized_matches_reference(
                blocks in proptest::collection::vec((0usize..6, 0u32..60, 1u32..61), 0..60),
                untils in proptest::collection::vec((0usize..6, 100u64..220), 0..6),
                k in 1u32..7, d in 1u32..70, max_slot in 0u32..64,
            ) {
                let mut tl = mk(6);
                for (n, from, len) in blocks {
                    tl.block_slots(NodeId(n as u32), from, from.saturating_add(len));
                }
                for (n, until_min) in untils {
                    tl.block_until(NodeId(n as u32), SimTime::from_mins(until_min));
                }
                prop_assert_eq!(
                    tl.find_start(k, d, max_slot),
                    tl.find_start_reference(k, d, max_slot)
                );
                prop_assert_eq!(
                    tl.find_single_now(d, FitPolicy::FirstFit),
                    tl.find_single_now_reference(d, FitPolicy::FirstFit)
                );
                prop_assert_eq!(
                    tl.find_single_now(d, FitPolicy::BestFit),
                    tl.find_single_now_reference(d, FitPolicy::BestFit)
                );
                prop_assert_eq!(tl.count_startable(d), tl.count_startable_reference(d));
            }
        }
    }

    #[test]
    fn perfect_fit_short_circuit() {
        let mut tl = mk(2);
        tl.block_slots(NodeId(0), 3, 60);
        // d == run on node 0: best fit returns it immediately.
        assert_eq!(tl.find_single_now(3, FitPolicy::BestFit), Some(NodeId(0)));
    }
}
