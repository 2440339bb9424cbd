//! The placement plane: how nodes project onto the pass timelines, and
//! the persistent views a pass re-anchors instead of rebuilding. It owns
//! three invariants. A node's cached projection (`proj_class`,
//! `proj_until`), its idle and pilot bits and its dirty mark are
//! refreshed on every transition that affects the node
//! ([`ClusterSim::refresh_node`]), whichever pass runs next. Between two
//! passes the persistent views hold the projections alone: what a pass
//! paints on top of them (claim windows, reservations, its own
//! placements) is restored by [`ClusterSim::finish_plane`]. And every
//! node busy until a future instant is tracked exactly once, in the
//! residue wheel when the release lies inside the window and in the park
//! when it lies at or past the window end, so a pass brought to `now`
//! holds the projections of a from-scratch build bit for bit.
//!
//! A pass paints a window onto the pilot view only on a node whose slot
//! 0 is free there: the pilot view is read only from slot 0
//! (`find_single_now`, then `free_run_from(node, 0)` on the node it
//! returned) and only loses free bits within a pass, so a window behind
//! a busy slot 0 could never be read — and on a coverage-only week day
//! most windows lie behind one. The HPC view takes every window, since
//! `find_start` reads future slots. So the pilot view
//! equals a full-paint build on every node whose slot 0 is free and is
//! busy at slot 0 wherever the build is; the HPC view equals it bit for
//! bit (`check_plane`, and in a debug build every pass, check both). So
//! a pass costs the nodes that changed and the slot boundaries its anchor
//! crossed, never the cluster.

use super::pass::PassMode;
use super::ClusterSim;
use crate::ids::NodeId;
use crate::job::{JobKind, JobState};
use crate::node::NodeState;
use crate::timeline::Timeline;
use simcore::{SimDuration, SimTime};
use std::cmp::Reverse;

// A node's projection class: a cached summary of `(node state, holder
// job state, waiter status)`, so a pass never consults the job table.
// Stored SoA beside a busy-until time, so the projection sweep streams
// 9 bytes a node.

/// Idle: free in both views.
pub(super) const PROJ_FREE: u8 = 0;
/// Down, reserved, or draining with a promised waiter: blocked in both
/// views for the whole window.
const PROJ_BLOCKED: u8 = 1;
/// Held by a preemptible pilot until `until`: blocked in the pilot view
/// only (invisible to the HPC view).
const PROJ_PILOT_UNTIL: u8 = 2;
/// Held by a non-preemptible job until `until`: blocked in both views.
const PROJ_BOTH_UNTIL: u8 = 3;

/// `wheel_pos` sentinel: node not tracked by the residue wheel.
pub(super) const WHEEL_NONE: u32 = u32::MAX;

/// `park_until` sentinel: node not parked.
pub(super) const NOT_PARKED: SimTime = SimTime::MAX;

/// Multiply-shift reciprocal (round-up magic-number division) for
/// dividing simulation timestamps by a small runtime constant without a
/// hardware divide — the residue wheel takes `until mod resolution` for
/// every busy node on a rebuild and for every endpoint-bucket entry on a
/// sweep, and two u64 divides per node dominate those walks. With
/// `m = ceil(2^64 / d)`, `floor(x * m / 2^64) == x / d` for every
/// `x ≤ 2^64 / d` at minimum — for the 2-minute default resolution
/// that is ~4,800 years of simulated time; a debug assert guards the
/// bound anyway.
#[derive(Clone, Copy)]
pub(super) struct Recip {
    m: u128,
    d: u64,
}

impl Recip {
    pub(super) fn new(d: u64) -> Self {
        debug_assert!(d > 0);
        Self {
            m: (1u128 << 64).div_ceil(d as u128),
            d,
        }
    }

    #[inline]
    fn div(self, x: u64) -> u64 {
        let q = ((x as u128 * self.m) >> 64) as u64;
        debug_assert_eq!(q, x / self.d);
        q
    }

    #[inline]
    fn rem(self, x: u64) -> u64 {
        x - self.div(x) * self.d
    }
}

/// The window geometry of a pass plane: turns a node's cached projection
/// into its per-view free masks, anchored at the plane origin. Shared by
/// the persistent-plane maintenance and the fresh build so the two
/// arithmetics cannot drift.
#[derive(Clone, Copy)]
struct ProjView {
    origin: SimTime,
    window_end: SimTime,
    slot_ms: u64,
    all_free: u64,
}

impl ProjView {
    /// True iff a node busy until `t` is busy over the whole window —
    /// the one comparison that decides an all-zero mask, a parked node
    /// and its admission to the wheel.
    #[inline]
    fn past_window(&self, t: SimTime) -> bool {
        t >= self.window_end
    }

    /// Busy-until time → free mask (busy from slot 0 through the slot
    /// containing `t`, rounded up — mirrors `Timeline::block_until`).
    #[inline]
    fn until_mask(&self, t: SimTime) -> u64 {
        if self.past_window(t) {
            return 0;
        }
        if t <= self.origin {
            return self.all_free;
        }
        let s = t.since(self.origin).as_millis().div_ceil(self.slot_ms);
        self.all_free & !((1u64 << s) - 1)
    }

    /// `(pilot view, hpc view)` free masks for one node projection.
    #[inline]
    fn masks(&self, class: u8, until: SimTime) -> (u64, u64) {
        match class {
            PROJ_FREE => (self.all_free, self.all_free),
            PROJ_BLOCKED => (0, 0),
            PROJ_PILOT_UNTIL => (self.until_mask(until), self.all_free),
            _ => {
                let m = self.until_mask(until);
                (m, m)
            }
        }
    }
}

impl ClusterSim {
    /// Recompute a node's cached pass projection from authoritative
    /// state, and mark it dirty for the persistent plane. O(1); called
    /// on every transition affecting the node.
    pub(super) fn refresh_node(&mut self, n: NodeId) {
        let i = n.0 as usize;
        let mut runs_pilot = false;
        let (class, until) = match self.nodes[i].state {
            NodeState::Idle => (PROJ_FREE, SimTime::ZERO),
            NodeState::Down | NodeState::Reserved(_) => (PROJ_BLOCKED, SimTime::ZERO),
            NodeState::Busy(j) => {
                let job = &self.jobs[j.0 as usize];
                runs_pilot = job.spec.kind == JobKind::Pilot;
                let (pred_end, draining) = match &job.state {
                    JobState::Running { granted_end, .. } => (*granted_end, false),
                    JobState::Draining { kill_at, .. } => (*kill_at, true),
                    _ => unreachable!("busy node with inactive job"),
                };
                if draining && self.node_waiter.contains_key(&n) {
                    // Node promised to a preempting job.
                    (PROJ_BLOCKED, SimTime::ZERO)
                } else if job.spec.preemptible {
                    // Preemptible pilots are invisible to the HPC view.
                    (PROJ_PILOT_UNTIL, pred_end)
                } else {
                    (PROJ_BOTH_UNTIL, pred_end)
                }
            }
        };
        self.proj_class[i] = class;
        self.proj_until[i] = until;
        let bit = 1u64 << (n.0 % 64);
        if self.nodes[i].is_idle() {
            self.idle_bits[i / 64] |= bit;
        } else {
            self.idle_bits[i / 64] &= !bit;
        }
        if runs_pilot {
            self.pilot_bits[i / 64] |= bit;
        } else {
            self.pilot_bits[i / 64] &= !bit;
        }
        // The projection changed (or may have): the persistent plane's
        // masks for this node are stale until the next pass recomputes
        // them. Marked whichever pass runs next, so a sim that switches
        // between the production and the reference pass keeps a coherent
        // plane; the bitset keeps the list to one entry a node.
        if self.plane_dirty_bits[i / 64] & bit == 0 {
            self.plane_dirty_bits[i / 64] |= bit;
            self.plane_dirty.push(n);
        }
    }

    /// The projection→mask geometry for a plane anchored at `origin`.
    fn proj_view(&self, origin: SimTime) -> ProjView {
        let n_slots = self.cfg.n_slots();
        let slot_ms = self.cfg.bf_resolution.as_millis();
        ProjView {
            origin,
            window_end: origin + SimDuration::from_millis(slot_ms * n_slots as u64),
            slot_ms,
            all_free: (1u64 << n_slots) - 1,
        }
    }

    /// One sweep projecting every node onto fresh proj-only timelines at
    /// `origin` (the HPC one empty unless `need_hpc`) — the O(nodes)
    /// path, taken only on the very first pass (and by the oracle's
    /// fresh build); all later passes maintain the persistent plane
    /// incrementally.
    pub(super) fn fresh_proj_planes(
        &self,
        origin: SimTime,
        need_hpc: bool,
    ) -> (Timeline, Timeline) {
        let pv = self.proj_view(origin);
        let n_slots = self.cfg.n_slots();
        let n_hpc = if need_hpc { self.nodes.len() } else { 0 };
        let mut pilot_masks = Vec::with_capacity(self.nodes.len());
        let mut hpc_masks = Vec::with_capacity(n_hpc);
        let mut pilot_nf = vec![0u64; self.nodes.len().div_ceil(64)];
        let mut hpc_nf = vec![0u64; n_hpc.div_ceil(64)];
        for (i, class) in self.proj_class.iter().enumerate() {
            let (pm, hm) = pv.masks(*class, self.proj_until[i]);
            pilot_masks.push(pm);
            pilot_nf[i / 64] |= (pm & 1) << (i % 64);
            if need_hpc {
                hpc_masks.push(hm);
                hpc_nf[i / 64] |= (hm & 1) << (i % 64);
            }
        }
        let res = self.cfg.bf_resolution;
        let tl_pilot = Timeline::from_parts(origin, res, n_slots, pilot_masks, pilot_nf);
        let tl_hpc = Timeline::from_parts(origin, res, n_slots, hpc_masks, hpc_nf);
        (tl_pilot, tl_hpc)
    }

    /// Track `n` if it projects as busy until a future instant: in the
    /// residue wheel when that instant lies inside `pv`'s window (its
    /// mask changes when the plane anchor crosses `until`'s slot residue;
    /// free/blocked masks are anchor-invariant), in the park when it lies
    /// at or past the window end (its mask stays all-busy until the
    /// window reaches it). Bucket entries stay sorted by (residue, node);
    /// sorted insertion also dedups, so a node re-entering a residue it
    /// already has a (stale) entry at never produces duplicates.
    fn wheel_insert(&mut self, n: NodeId, pv: &ProjView) {
        let i = n.0 as usize;
        let class = self.proj_class[i];
        let until = self.proj_until[i];
        if class == PROJ_FREE || class == PROJ_BLOCKED || until <= pv.origin {
            return;
        }
        if pv.past_window(until) {
            if self.park_until[i] != until {
                self.park_until[i] = until;
                self.wheel_pos[i] = WHEEL_NONE;
                self.plane_park.push(Reverse((until, n)));
            }
            return;
        }
        self.park_until[i] = NOT_PARKED;
        let r = self.wheel_res.rem(until.as_millis()) as u32;
        if self.wheel_pos[i] != r {
            self.wheel_pos[i] = r;
            let b = self.wheel_gran.div(r as u64) as usize;
            let bucket = &mut self.plane_wheel[b];
            let at = bucket.partition_point(|&e| e < (r, n));
            if bucket.get(at) != Some(&(r, n)) {
                bucket.insert(at, (r, n));
            }
        }
    }

    /// Rebuild the residue wheel and the park from scratch (fresh plane
    /// build only).
    fn rebuild_wheel(&mut self, now: SimTime) {
        for b in &mut self.plane_wheel {
            b.clear();
        }
        self.wheel_pos.fill(WHEEL_NONE);
        self.plane_park.clear();
        self.park_until.fill(NOT_PARKED);
        let pv = self.proj_view(now);
        for i in 0..self.nodes.len() {
            self.wheel_insert(NodeId(i as u32), &pv);
        }
    }

    /// Set `n`'s masks in both views to its cached projection under `pv`.
    #[inline]
    fn remask(&self, n: NodeId, pv: &ProjView, pilot: &mut Timeline, hpc: &mut Option<Timeline>) {
        let i = n.0 as usize;
        let (pm, hm) = pv.masks(self.proj_class[i], self.proj_until[i]);
        pilot.set_node_mask(n, pm);
        if let Some(h) = hpc.as_mut() {
            h.set_node_mask(n, hm);
        }
    }

    /// Admit every parked node `pv`'s window has reached: its mask may
    /// open on this lap for the first time, and from here on the wheel
    /// tracks it.
    fn admit_parked(&mut self, pv: &ProjView, pilot: &mut Timeline, hpc: &mut Option<Timeline>) {
        while let Some(&Reverse((until, n))) = self.plane_park.peek() {
            if pv.past_window(until) {
                break;
            }
            self.plane_park.pop();
            let i = n.0 as usize;
            if self.park_until[i] != until {
                continue; // stale (released, re-let or re-parked) entry
            }
            self.park_until[i] = NOT_PARKED;
            self.counters.wheel_nodes_reprojected += 1;
            self.remask(n, pv, pilot, hpc);
            self.wheel_insert(n, pv);
        }
    }

    /// Re-mask every node whose busy-release residue the plane anchor
    /// crossed while moving from `prev` to `now`; survivors are kept in
    /// their bucket for the next lap, released nodes leave the wheel.
    fn sweep_wheel(
        &mut self,
        prev: SimTime,
        now: SimTime,
        pv: &ProjView,
        pilot: &mut Timeline,
        hpc: &mut Option<Timeline>,
    ) {
        let res_ms = self.cfg.bf_resolution.as_millis();
        let sweep_all = now.since(prev).as_millis() >= res_ms;
        let (prev_r, now_r) = (
            self.wheel_res.rem(prev.as_millis()),
            self.wheel_res.rem(now.as_millis()),
        );
        let (b0, b1) = (
            self.wheel_gran.div(prev_r) as usize,
            self.wheel_gran.div(now_r) as usize,
        );
        // Buckets are coarser than residues, but each bucket ring is
        // sorted by residue: the crossed residues (prev_r, now_r] — at
        // most two contiguous spans when the anchor wrapped past the
        // period — are located by binary search, so uncrossed entries in
        // the endpoint buckets are never examined and the sweep's work
        // is proportional to the residues actually crossed.
        let wrapped = now_r < prev_r;
        let in_range = |b: usize| {
            if sweep_all {
                true
            } else if !wrapped {
                b0 <= b && b <= b1
            } else {
                b >= b0 || b <= b1 // the anchor wrapped past the period
            }
        };
        for b in 0..self.plane_wheel.len() {
            if !in_range(b) || self.plane_wheel[b].is_empty() {
                continue;
            }
            let bucket = std::mem::take(&mut self.plane_wheel[b]);
            // The crossed sub-ranges of this sorted bucket, in index
            // order and disjoint (when wrapped, the `r <= now_r` span
            // sorts before the `r > prev_r` span).
            let after_prev =
                |bk: &[(u32, NodeId)]| bk.partition_point(|&(r, _)| (r as u64) <= prev_r);
            let upto_now = |bk: &[(u32, NodeId)]| bk.partition_point(|&(r, _)| (r as u64) <= now_r);
            let ranges: [(usize, usize); 2] = if sweep_all {
                [(0, bucket.len()), (bucket.len(), bucket.len())]
            } else if !wrapped {
                let (lo, hi) = (after_prev(&bucket), upto_now(&bucket));
                [(lo, hi.max(lo)), (bucket.len(), bucket.len())]
            } else {
                [(0, upto_now(&bucket)), (after_prev(&bucket), bucket.len())]
            };
            let mut out = std::mem::take(&mut self.wheel_scratch);
            out.clear();
            let mut idx = 0usize;
            for &(lo, hi) in &ranges {
                out.extend_from_slice(&bucket[idx..lo.max(idx)]);
                for &(r, n) in &bucket[lo..hi] {
                    let i = n.0 as usize;
                    if self.wheel_pos[i] != r {
                        continue; // stale (re-bucketed or released) entry
                    }
                    let class = self.proj_class[i];
                    let until = self.proj_until[i];
                    self.counters.wheel_nodes_reprojected += 1;
                    let (pm, hm) = pv.masks(class, until);
                    pilot.set_node_mask(n, pm);
                    if let Some(h) = hpc.as_mut() {
                        h.set_node_mask(n, hm);
                    }
                    if class == PROJ_FREE || class == PROJ_BLOCKED || until <= now {
                        self.wheel_pos[i] = WHEEL_NONE;
                        continue;
                    }
                    out.push((r, n));
                }
                idx = hi.max(idx);
            }
            out.extend_from_slice(&bucket[idx..]);
            self.plane_wheel[b] = out;
            self.wheel_scratch = bucket;
        }
    }

    /// Bring the persistent plane to the pass instant and paint the live
    /// claim/reservation windows, in O(events + residue crossings) since
    /// the last pass instead of O(nodes):
    ///
    /// 1. re-anchor the retained planes at `now` without touching masks —
    ///    a node's slot-rounded free mask only changes when the anchor
    ///    crosses one of its busy-release residues — and sweep the wheel
    ///    buckets the anchor moved across, re-masking exactly the
    ///    crossed nodes (or build the planes fresh the first time);
    /// 2. re-mask the dirty-listed nodes — the ones `refresh_node`
    ///    touched since the last pass;
    /// 3. paint pending pinned-claim windows and (on quick passes) the
    ///    live reservations — onto the HPC view whenever the pass needs
    ///    it, onto the pilot view only where the node's slot 0 is free
    ///    after steps 1–2 — recording every painted node so
    ///    [`Self::finish_plane`] can restore the proj-only invariant.
    ///
    /// Returns `(pilot view, hpc view for this pass, parked hpc view,
    /// painted nodes)`; the pass hpc view is a zero-node dummy when the
    /// pass does not need it, with the materialized plane (if any) parked
    /// and kept coherent for the next pass that does.
    pub(super) fn prepare_plane(
        &mut self,
        now: SimTime,
        mode: PassMode,
        need_hpc: bool,
    ) -> (Timeline, Timeline, Option<Timeline>, Vec<NodeId>) {
        let pv = self.proj_view(now);
        let n_slots = self.cfg.n_slots();

        // 1. Re-anchor (or build) the planes at `now`.
        let (mut pilot, mut hpc, built_fresh) =
            match (self.plane_pilot.take(), self.plane_hpc.take()) {
                (Some(mut p), mut h) if p.origin() <= now => {
                    let prev = p.origin();
                    if prev < now {
                        p.rebase(now);
                        if let Some(h) = h.as_mut() {
                            h.rebase(now);
                        }
                        self.sweep_wheel(prev, now, &pv, &mut p, &mut h);
                        self.admit_parked(&pv, &mut p, &mut h);
                    }
                    (p, h, false)
                }
                _ => {
                    let (p, h) = self.fresh_proj_planes(now, need_hpc);
                    self.rebuild_wheel(now);
                    (p, if need_hpc { Some(h) } else { None }, true)
                }
            };

        // 2. Apply the events since the last pass. A fresh build already
        //    projected every node (and `rebuild_wheel` re-bucketed them),
        //    so the accumulated dirty list — often the whole cluster on a
        //    cold start — is only drained, not re-applied.
        let mut dirty = std::mem::take(&mut self.plane_dirty);
        if !built_fresh {
            for n in &dirty {
                self.remask(*n, &pv, &mut pilot, &mut hpc);
                self.wheel_insert(*n, &pv);
            }
        }
        self.plane_dirty_bits.fill(0);
        dirty.clear();
        self.plane_dirty = dirty;

        // Lazily materialize the hpc view the first time a pass needs it.
        if need_hpc && hpc.is_none() {
            let (_, h) = self.fresh_proj_planes(now, true);
            hpc = Some(h);
        }

        // 3. Paint the transient pass state, recording what was touched.
        let (mut hpc_pass, hpc_parked) = if need_hpc {
            (hpc.expect("hpc plane materialized above"), None)
        } else {
            (Timeline::new(now, self.cfg.bf_resolution, n_slots, 0), hpc)
        };
        let mut painted = std::mem::take(&mut self.painted_scratch);
        painted.clear();
        // A pilot-view window behind a busy slot 0 is never read (module
        // doc); the HPC view's `find_start` reads future slots.
        let mut paint = |n: NodeId, from: SimTime, to: SimTime| {
            let on_pilot = pilot.is_free_range(n, 0, 1);
            if on_pilot {
                pilot.block_interval(n, from, to);
            }
            if need_hpc {
                hpc_pass.block_interval(n, from, to);
            }
            if on_pilot || need_hpc {
                painted.push(n);
            }
        };
        let mut pinned = std::mem::take(&mut self.pinned_pending);
        pinned.retain(|id| self.jobs[id.0 as usize].is_pending());
        for id in &pinned {
            let job = &self.jobs[id.0 as usize];
            let nodes = job.spec.pinned_nodes.as_ref().expect("pinned_pending");
            let ann = job.spec.announced_start.unwrap();
            let end = ann + job.spec.time_limit;
            for n in nodes {
                paint(*n, ann, end);
            }
        }
        self.pinned_pending = pinned;
        if mode == PassMode::Backfill {
            self.reservations.clear();
        } else {
            self.reservations
                .retain(|r| self.jobs[r.job.0 as usize].is_pending());
            for r in &self.reservations {
                for n in &r.nodes {
                    paint(*n, r.start, r.end);
                }
            }
        }
        (pilot, hpc_pass, hpc_parked, painted)
    }

    /// Restore the proj-only invariant on every node the pass painted or
    /// whose projection changed mid-pass, then park the planes for the
    /// next pass.
    pub(super) fn finish_plane(
        &mut self,
        mut pilot: Timeline,
        hpc_pass: Timeline,
        hpc_parked: Option<Timeline>,
        painted: Vec<NodeId>,
    ) {
        let now = pilot.origin();
        let pv = self.proj_view(now);
        let mut hpc = if hpc_pass.n_nodes() > 0 {
            Some(hpc_pass)
        } else {
            hpc_parked
        };
        let mut dirty = std::mem::take(&mut self.plane_dirty);
        for n in painted.iter().chain(dirty.iter()) {
            self.remask(*n, &pv, &mut pilot, &mut hpc);
            self.wheel_insert(*n, &pv);
        }
        self.plane_dirty_bits.fill(0);
        dirty.clear();
        self.plane_dirty = dirty;
        self.painted_scratch = painted;
        self.plane_pilot = Some(pilot);
        self.plane_hpc = hpc;
    }
}
