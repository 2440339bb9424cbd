//! The scheduler's oracles: the retained reference pass, the from-scratch
//! builds the persistent plane is checked against, and the test hooks.
//! It owns one invariant: nothing here is on a production path. `handle`
//! never reaches the reference pass; the debug-only checks run beside a
//! pass and change nothing it decides, and the `#[doc(hidden)]` hooks are
//! called only by tests. They stay `pub`, not `cfg(debug_assertions)`,
//! because CI's `placement-stress` job runs the integration tests that
//! call them with optimizations on.
//!
//! The settled-queue proof (`settled`) has two oracles, and both stay.
//! Under the scenario proptest `prop_skipping_settled_passes_changes_nothing`
//! each catches all twelve mutations of the proof planted when it was
//! built (a voiding site dropped, a dominance test flipped, `next_due`
//! ignored, a pass settling that must not); they differ in where they
//! run:
//!
//! * [`ClusterSim::run_settled_pass_anyway`] runs every skipped pass of
//!   every debug-built day — `tests/end_to_end.rs` and a debug
//!   `paper --row week --quick` included — and asserts that it would
//!   have done nothing. It is compiled out of release builds.
//! * [`ClusterSim::handle_reference`] drives a sim that never skips with
//!   the reference pass; `tests/differential.rs` and
//!   `tests/scheduler_scenarios.rs` compare it with `handle`, observable
//!   for observable. With optimizations on, as CI runs those suites, it
//!   is the only judge.
//!
//! Out of this file on purpose: `Timeline`'s scan-based
//! `find_start_reference`, `find_single_now_reference` and
//! `count_startable_reference` stay in `timeline.rs`. Production code
//! reaches two of them: `find_single_now` answers `d == 0` through the
//! scan, and `find_start` falls back to its scan when its counting sweep
//! and its collection disagree. Moving them here would put production
//! code in the oracle, or change those answers.

use super::pass::{PassMode, Reservation};
use super::ClusterSim;
use crate::events::{ClusterEvent, ClusterNote};
use crate::ids::{JobId, NodeId, NodeList};
use crate::job::{JobKind, JobState};
use crate::node::NodeState;
use crate::timeline::{FitPolicy, Timeline};
use simcore::{Outbox, SimDuration, SimTime};

impl ClusterSim {
    /// [`Self::handle`] with the retained reference pass in place of the
    /// production one. The reference never skips: the settled proof is
    /// cleared first, whatever ran before. A sim may switch between this
    /// and [`Self::handle`] at any event; the plane stays coherent across
    /// the switch (differential tests only).
    #[doc(hidden)]
    pub fn handle_reference(
        &mut self,
        now: SimTime,
        ev: ClusterEvent,
        out: &mut Outbox<ClusterEvent>,
        notes: &mut Vec<ClusterNote>,
    ) {
        self.settled = None;
        self.dispatch(now, ev, out, notes, Self::run_pass_reference);
    }

    /// The pre-optimization scheduling pass, retained verbatim as the
    /// behavioural reference for the differential regression tests:
    /// rebuilds both timelines from the node/job tables and scans the
    /// whole cluster per queued HPC job.
    fn run_pass_reference(
        &mut self,
        now: SimTime,
        mode: PassMode,
        out: &mut Outbox<ClusterEvent>,
        notes: &mut Vec<ClusterNote>,
    ) -> SimDuration {
        let n_slots = self.cfg.n_slots();
        let mut tl_pilot = Timeline::new(now, self.cfg.bf_resolution, n_slots, self.nodes.len());
        let mut tl_hpc = tl_pilot.clone();

        // 1. Project current node occupancy onto the timelines.
        for (i, node) in self.nodes.iter().enumerate() {
            let nid = NodeId(i as u32);
            match node.state {
                NodeState::Idle => {}
                NodeState::Down | NodeState::Reserved(_) => {
                    tl_pilot.block_all(nid);
                    tl_hpc.block_all(nid);
                }
                NodeState::Busy(j) => {
                    let job = &self.jobs[j.0 as usize];
                    let (pred_end, draining) = match &job.state {
                        JobState::Running { granted_end, .. } => (*granted_end, false),
                        JobState::Draining { kill_at, .. } => (*kill_at, true),
                        _ => unreachable!("busy node with inactive job"),
                    };
                    if job.spec.preemptible && !draining {
                        // Preemptible pilots are invisible to the HPC
                        // view; blocked in the pilot view.
                        tl_pilot.block_until(nid, pred_end);
                    } else if draining && self.node_waiter.contains_key(&nid) {
                        // Node promised to a preempting job.
                        tl_pilot.block_all(nid);
                        tl_hpc.block_all(nid);
                    } else {
                        tl_pilot.block_until(nid, pred_end);
                        if !job.spec.preemptible {
                            tl_hpc.block_until(nid, pred_end);
                        }
                    }
                }
            }
        }

        // 2. Project reservations.
        for id in &self.pending {
            let job = &self.jobs[id.0 as usize];
            if !job.is_pending() {
                continue; // started since the last compaction
            }
            if let (Some(nodes), Some(_)) = (&job.spec.pinned_nodes, job.spec.earliest_start) {
                let ann = job.spec.announced_start.unwrap();
                let end = ann + job.spec.time_limit;
                for n in nodes {
                    tl_pilot.block_interval(*n, ann, end);
                    tl_hpc.block_interval(*n, ann, end);
                }
            }
        }
        if mode == PassMode::Backfill {
            self.reservations.clear();
        } else {
            self.reservations
                .retain(|r| self.jobs[r.job.0 as usize].is_pending());
            for r in &self.reservations {
                for n in &r.nodes {
                    tl_pilot.block_interval(*n, r.start, r.end);
                    tl_hpc.block_interval(*n, r.start, r.end);
                }
            }
        }

        // 3. Order the queue: tier desc, priority desc, FIFO.
        let queue = self.pass_queue(now).jobs;

        let limit = match mode {
            PassMode::Quick => self.cfg.sched_queue_depth,
            PassMode::Backfill => self.cfg.bf_max_job_test,
        };
        let mut examined = 0usize;
        let mut var_budget = self.cfg.var_extension_budget_slots;
        let mut var_slots_computed: u64 = 0;
        let mut reservations_created = 0usize;
        let mut new_reservations: Vec<Reservation> = Vec::new();

        for id in queue {
            if examined >= limit {
                break;
            }
            examined += 1;
            let job = &self.jobs[id.0 as usize];
            if self.handovers.contains_key(&id) {
                if job.spec.pinned_nodes.is_some() {
                    self.claim_pinned(now, id, out, notes);
                    for n in self.claimed_nodes(id) {
                        tl_pilot.block_all(n);
                        tl_hpc.block_all(n);
                    }
                }
                continue;
            }
            match job.spec.kind {
                JobKind::Hpc => {
                    if job.spec.pinned_nodes.is_some() {
                        self.claim_pinned(now, id, out, notes);
                        if let Some(nodes) = &self.jobs[id.0 as usize].spec.pinned_nodes {
                            for n in nodes {
                                tl_pilot.block_all(*n);
                                tl_hpc.block_all(*n);
                            }
                        }
                        continue;
                    }
                    let d = self.cfg.slots_ceil(job.spec.time_limit).max(1);
                    let k = job.spec.nodes;
                    let limit_dur = job.spec.time_limit;
                    // Start now? The HPC view treats pilot nodes as free.
                    let eligible: Vec<NodeId> = (0..self.nodes.len())
                        .map(|i| NodeId(i as u32))
                        .filter(|n| tl_hpc.is_free_range(*n, 0, d))
                        .collect();
                    let startable: NodeList = {
                        // Prefer genuinely idle nodes over pilot-held.
                        let (idle, held): (Vec<_>, Vec<_>) = eligible
                            .iter()
                            .copied()
                            .partition(|n| self.nodes[n.0 as usize].is_idle());
                        idle.into_iter().chain(held).take(k as usize).collect()
                    };
                    if startable.len() as u32 == k {
                        for n in &startable {
                            tl_hpc.block_until(*n, now + limit_dur);
                            tl_pilot.block_until(*n, now + limit_dur);
                        }
                        self.start_or_handover(now, id, startable, out, notes);
                    } else if mode == PassMode::Backfill
                        && reservations_created < self.cfg.bf_max_reservations
                    {
                        if let Some((s, nodes)) = tl_hpc.find_start_reference(k, d, n_slots - 1) {
                            let start = tl_hpc.slot_start(s);
                            let end = start + limit_dur;
                            for n in &nodes {
                                tl_hpc.block_interval(*n, start, end);
                                tl_pilot.block_interval(*n, start, end);
                            }
                            new_reservations.push(Reservation {
                                job: id,
                                start,
                                end,
                                nodes,
                            });
                            reservations_created += 1;
                            self.counters.reservations_made += 1;
                        }
                    }
                }
                JobKind::Pilot => {
                    if mode == PassMode::Quick && !self.cfg.quick_pass_places_pilots {
                        continue;
                    }
                    let max_slots = self.cfg.slots_ceil(job.spec.time_limit).max(1);
                    let (d_fit, is_var) = match job.spec.min_time {
                        Some(mt) => (self.cfg.slots_ceil(mt).max(1), true),
                        None => (max_slots, false),
                    };
                    let Some(node) = tl_pilot.find_single_now_reference(d_fit, FitPolicy::BestFit)
                    else {
                        continue;
                    };
                    // A var pilot extends in backfill passes only; a
                    // quick pass grants it its minimum time.
                    let granted_slots = match (is_var, mode) {
                        (false, _) => max_slots,
                        (true, PassMode::Quick) => d_fit,
                        (true, PassMode::Backfill) => {
                            let run = tl_pilot.free_run_from(node, 0).min(max_slots);
                            let ext = (run - d_fit).min(var_budget);
                            var_budget -= ext;
                            var_slots_computed += ext as u64;
                            d_fit + ext
                        }
                    };
                    let granted = self.cfg.slots_to_duration(granted_slots);
                    tl_pilot.block_until(node, now + granted);
                    self.start_job(now, id, NodeList::single(node), granted, out, notes);
                }
            }
        }

        if mode == PassMode::Backfill {
            self.reservations = new_reservations;
        }
        self.pending
            .retain(|id| self.jobs[id.0 as usize].is_pending());

        SimDuration::from_millis(
            self.cfg.bf_per_job_cost.as_millis() * examined as u64
                + self.cfg.bf_var_slot_cost.as_millis() * var_slots_computed,
        )
    }

    /// A skipped pass, run anyway (debug builds): it must schedule
    /// nothing, emit nothing, place nothing and touch no node, waiter or
    /// handover. Runs on timelines built from scratch and leaves the
    /// persistent plane alone, so a debug build sweeps the wheel exactly
    /// when a release build does. Returns the cost the pass charged.
    #[cfg(debug_assertions)]
    pub(super) fn run_settled_pass_anyway(&mut self, now: SimTime, mode: PassMode) -> SimDuration {
        let settled = self.settled;
        let queue = self.pass_queue(now);
        assert!(!queue.need_hpc, "settled with an unpinned HPC job queued");
        assert!(self.reservations.is_empty(), "settled over a reservation");
        // Everything a pass can change without emitting anything.
        let state = |sim: &Self| {
            let pending = |id: &&JobId| sim.jobs[id.0 as usize].is_pending();
            let live: Vec<JobId> = sim.pending.iter().filter(pending).copied().collect();
            let nodes: Vec<NodeState> = sim.nodes.iter().map(|n| n.state).collect();
            let mut handovers: Vec<(JobId, NodeList)> = sim
                .handovers
                .iter()
                .map(|(id, h)| (*id, h.ready.clone()))
                .collect();
            handovers.sort_by_key(|h| h.0);
            (
                live,
                handovers,
                sim.node_waiter.clone(),
                nodes,
                sim.proj_class.clone(),
                sim.proj_until.clone(),
                (sim.counters.pass_placements, sim.counters.reservations_made),
            )
        };
        let before = state(self);
        let (mut tl_pilot, mut tl_hpc) = self.fresh_timelines(now, mode, false);
        let mut out = Outbox::new(now);
        let mut notes = Vec::new();
        let cost = self.place_queue(
            now,
            mode,
            queue,
            &mut tl_pilot,
            &mut tl_hpc,
            &mut Vec::new(),
            &mut out,
            &mut notes,
        );
        assert!(
            out.is_empty() && notes.is_empty(),
            "skipped {mode:?} pass at {now:?} schedules {} events and emits {notes:?}",
            out.len()
        );
        assert!(
            before == state(self),
            "skipped {mode:?} pass at {now:?} changes state"
        );
        self.settled = settled;
        cost
    }

    /// A from-scratch build of both pass views with every window a pass
    /// at `now` could paint: node projections plus the window paint
    /// (pinned pending claims always; live unpinned reservations only on
    /// quick passes, since a backfill pass re-derives its reservations),
    /// on every node — also where the pass itself leaves a pilot-view
    /// window out. Pure — no retain/clear side effects. This is the
    /// independent authority the persistent plane is differentially
    /// checked against, so it deliberately re-scans `self.pending` for
    /// pinned claims rather than trusting the maintained `pinned_pending`
    /// list.
    fn fresh_timelines(
        &self,
        now: SimTime,
        mode: PassMode,
        need_hpc: bool,
    ) -> (Timeline, Timeline) {
        let (mut tl_pilot, mut tl_hpc) = self.fresh_proj_planes(now, need_hpc);
        for id in &self.pending {
            let job = &self.jobs[id.0 as usize];
            if !job.is_pending() {
                continue;
            }
            if let (Some(nodes), Some(_)) = (&job.spec.pinned_nodes, job.spec.earliest_start) {
                let ann = job.spec.announced_start.unwrap();
                let end = ann + job.spec.time_limit;
                for n in nodes {
                    tl_pilot.block_interval(*n, ann, end);
                    if need_hpc {
                        tl_hpc.block_interval(*n, ann, end);
                    }
                }
            }
        }
        if mode != PassMode::Backfill {
            for r in &self.reservations {
                if !self.jobs[r.job.0 as usize].is_pending() {
                    continue;
                }
                for n in &r.nodes {
                    tl_pilot.block_interval(*n, r.start, r.end);
                    if need_hpc {
                        tl_hpc.block_interval(*n, r.start, r.end);
                    }
                }
            }
        }
        (tl_pilot, tl_hpc)
    }

    /// Assert the pass views a pass at `now` holds agree with a
    /// from-scratch build: the pilot view within [`pilot_view_agrees`],
    /// the HPC view (only when the pass needs one) bit for bit.
    pub(super) fn assert_views_fresh(
        &self,
        now: SimTime,
        mode: PassMode,
        need_hpc: bool,
        pilot: &Timeline,
        hpc: &Timeline,
    ) {
        let (fp, fh) = self.fresh_timelines(now, mode, need_hpc);
        if let Err(e) = pilot_view_agrees(&fp, pilot) {
            panic!(
                "pilot plane diverged from fresh build (generation {}): {e}",
                pilot.generation()
            );
        }
        assert!(
            !need_hpc || hpc.same_occupancy(&fh),
            "hpc plane diverged from fresh build (generation {})",
            hpc.generation()
        );
    }

    /// Test hook: bring the persistent plane to `now` exactly as a pass
    /// would, assert both views agree with a from-scratch rebuild (as
    /// [`Self::assert_views_fresh`] does), and restore the between-pass
    /// invariant. Panics on divergence.
    #[doc(hidden)]
    pub fn check_plane(&mut self, now: SimTime) {
        let (pilot, hpc_pass, hpc_parked, painted) = self.prepare_plane(now, PassMode::Quick, true);
        self.assert_views_fresh(now, PassMode::Quick, true, &pilot, &hpc_pass);
        self.finish_plane(pilot, hpc_pass, hpc_parked, painted);
    }

    /// The live future-start reservations `(job, start, end, nodes)` of
    /// still-pending jobs, sorted by job id (differential tests).
    #[doc(hidden)]
    pub fn reservation_snapshot(&self) -> Vec<(JobId, SimTime, SimTime, Vec<NodeId>)> {
        let mut v: Vec<_> = self
            .reservations
            .iter()
            .filter(|r| self.jobs[r.job.0 as usize].is_pending())
            .map(|r| (r.job, r.start, r.end, r.nodes.clone()))
            .collect();
        v.sort_by_key(|r| r.0);
        v
    }

    /// Test hook: the maintained `(idle, pilot)` bitsets a poll reads.
    #[doc(hidden)]
    pub fn poll_bits(&self) -> (&[u64], &[u64]) {
        (&self.idle_bits, &self.pilot_bits)
    }

    /// Test hook: assert the maintained idle/pilot bitsets equal a scan
    /// of the node table, bit for bit, and the maintained counts their
    /// popcounts. Panics on divergence.
    #[doc(hidden)]
    pub fn check_poll_bits(&self) {
        let words = self.nodes.len().div_ceil(64);
        let mut idle = vec![0u64; words];
        let mut pilot = vec![0u64; words];
        for (i, node) in self.nodes.iter().enumerate() {
            match node.state {
                NodeState::Idle => idle[i / 64] |= 1 << (i % 64),
                NodeState::Busy(j) if self.jobs[j.0 as usize].spec.kind == JobKind::Pilot => {
                    pilot[i / 64] |= 1 << (i % 64);
                }
                _ => {}
            }
        }
        assert!(
            idle == self.idle_bits,
            "idle bitset diverged from the node table"
        );
        assert!(
            pilot == self.pilot_bits,
            "pilot bitset diverged from the node table"
        );
        let ones = |bits: &[u64]| bits.iter().map(|w| w.count_ones() as i64).sum::<i64>();
        assert_eq!(self.n_idle, ones(&idle), "idle count diverged");
        assert_eq!(self.n_pilot, ones(&pilot), "pilot count diverged");
    }
}

/// The relation a pass's pilot view keeps to the full-paint `fresh`
/// build: the same origin and slot-0 set, bit-identical masks on every
/// node whose slot 0 is free in `fresh`, and slot 0 busy in both on every
/// other node — there a window may be missing, because a pass paints
/// none on a node it cannot start a pilot on. Names the first node that
/// breaks it.
fn pilot_view_agrees(fresh: &Timeline, view: &Timeline) -> Result<(), String> {
    if view.origin() != fresh.origin() || view.n_nodes() != fresh.n_nodes() {
        return Err(format!(
            "{} nodes at {:?}, fresh {} at {:?}",
            view.n_nodes(),
            view.origin(),
            fresh.n_nodes(),
            fresh.origin()
        ));
    }
    for i in 0..fresh.n_nodes() {
        let n = NodeId(i as u32);
        let (v, f) = (view.mask(n), fresh.mask(n));
        let agrees = if f & 1 != 0 { v == f } else { v & 1 == 0 };
        if !agrees {
            return Err(format!("node {i}: mask {v:#x}, fresh {f:#x}"));
        }
    }
    if view.now_free_words() != fresh.now_free_words() {
        return Err("slot-0 bitset differs from the fresh build's".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Node 0 idle, node 1 busy until minute 10; a claim window over
    /// minutes 40–60 on both, painted on both (`fresh`) or, as a pass
    /// paints it, on the slot-0-free node alone.
    #[test]
    fn pilot_view_may_lack_a_window_only_where_slot_0_is_busy() {
        let base = || {
            let mut tl = Timeline::new(SimTime::ZERO, SimDuration::from_mins(2), 60, 2);
            tl.block_until(NodeId(1), SimTime::from_mins(10));
            tl
        };
        let claim = |tl: &mut Timeline, n| {
            tl.block_interval(NodeId(n), SimTime::from_mins(40), SimTime::from_mins(60))
        };
        let mut fresh = base();
        claim(&mut fresh, 0);
        claim(&mut fresh, 1);
        assert_eq!(pilot_view_agrees(&fresh, &fresh), Ok(()));

        let mut busy_bare = base();
        claim(&mut busy_bare, 0);
        assert_eq!(pilot_view_agrees(&fresh, &busy_bare), Ok(()));

        let mut free_bare = base();
        claim(&mut free_bare, 1);
        assert!(pilot_view_agrees(&fresh, &free_bare).is_err_and(|e| e.starts_with("node 0:")));

        // Slot 0 free in the view where the build has it busy.
        let mut opened = busy_bare.clone();
        opened.set_node_mask(NodeId(1), fresh.mask(NodeId(0)));
        assert!(pilot_view_agrees(&fresh, &opened).is_err_and(|e| e.starts_with("node 1:")));
    }
}
