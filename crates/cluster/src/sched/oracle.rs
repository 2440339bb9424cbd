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
                    let granted_slots = if is_var {
                        if mode == PassMode::Quick && self.cfg.quick_var_min_only {
                            d_fit
                        } else {
                            let run = tl_pilot.free_run_from(node, 0).min(max_slots);
                            let ext = (run - d_fit).min(var_budget);
                            var_budget -= ext;
                            var_slots_computed += ext as u64;
                            d_fit + ext
                        }
                    } else {
                        max_slots
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

    /// A from-scratch build of both pass views exactly as a pass at `now`
    /// would see them: node projections plus the window paint (pinned
    /// pending claims always; live unpinned reservations only on quick
    /// passes, since a backfill pass re-derives its reservations). Pure —
    /// no retain/clear side effects. This is the independent authority
    /// the persistent plane is differentially checked against, so it
    /// deliberately re-scans `self.pending` for pinned claims rather than
    /// trusting the maintained `pinned_pending` list.
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

    /// Assert the pass views a pass at `now` holds equal a from-scratch
    /// build, bit for bit (the HPC view only when the pass needs one).
    pub(super) fn assert_views_fresh(
        &self,
        now: SimTime,
        mode: PassMode,
        need_hpc: bool,
        pilot: &Timeline,
        hpc: &Timeline,
    ) {
        let (fp, fh) = self.fresh_timelines(now, mode, need_hpc);
        assert!(
            pilot.same_occupancy(&fp),
            "pilot plane diverged from fresh build (generation {})",
            pilot.generation()
        );
        assert!(
            !need_hpc || hpc.same_occupancy(&fh),
            "hpc plane diverged from fresh build (generation {})",
            hpc.generation()
        );
    }

    /// Test hook: bring the persistent plane to `now` exactly as a pass
    /// would, assert both views match a from-scratch rebuild bit for bit,
    /// and restore the between-pass invariant. Panics on divergence.
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
