//! The cluster simulator: a Slurm-like workload manager as a
//! deterministic state machine. This file owns the state and the entry
//! points: `pending` holds every job submitted and not yet seen started
//! or cancelled, in pass order ([`ClusterSim::pass_key`]); the pilot
//! census equals a recount of the pending pilots; and of the `QuickPass`
//! events in the queue only the one at `quick_at` runs a pass.
//!
//! Scheduling runs in two kinds of passes, mirroring Slurm:
//!
//! * **quick passes** — event-driven (job completions, submissions,
//!   node transitions), rate-limited by `sched_min_interval`; start jobs
//!   that fit *now*, never create future reservations;
//! * **backfill passes** — periodic (`bf_interval`, stretched by a
//!   simulated pass cost), EASY-style: jobs that cannot start now get
//!   future-start reservations (up to `bf_max_reservations`), lower
//!   priority jobs backfill around them on the 2-minute slot timeline.
//!
//! Pilot (tier-0, preemptible) jobs are placed only where they fit
//! before existing reservations; when reality diverges from declared
//! limits, higher-tier jobs *preempt* pilots: SIGTERM, a grace period
//! (`GraceTime`, 3 min in the paper), then SIGKILL. The composition
//! layer reacts to [`ClusterNote::JobSigterm`] by draining the OpenWhisk
//! invoker and calling [`ClusterSim::pilot_exited`], which releases the
//! node within seconds — this is how "HPC-Whisk jobs never significantly
//! dislodge HPC jobs" (§III-D) is realized. The crate doc maps the other
//! files of the scheduler, one concern each.

mod claims;
mod lifecycle;
mod oracle;
mod pass;
mod plane;
mod poll;
mod settled;

use self::claims::Handover;
use self::pass::{PassMode, Reservation};
use self::plane::{Recip, NOT_PARKED, PROJ_FREE, WHEEL_NONE};
use self::settled::{pilot_fit_slots, Settled};
use crate::config::SlurmConfig;
use crate::events::{ClusterEvent, ClusterNote};
use crate::ids::{JobId, NodeId};
use crate::job::{Job, JobKind, JobOutcome, JobSpec, JobState};
use crate::node::{Node, NodeState};
use crate::timeline::Timeline;
use crate::trace::{AvailabilityTrace, PollIntervals};
use metrics::{OnlineStats, StepSeries};
use simcore::{Outbox, SimDuration, SimRng, SimTime};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Ground-truth state series maintained by the simulator (the poller's
/// view in [`ClusterNote::Polled`] is the *measured* counterpart).
#[derive(Debug, Clone)]
pub struct ClusterSeries {
    /// Number of idle nodes over time.
    pub idle: StepSeries,
    /// Number of nodes running pilot jobs (including draining ones).
    pub pilot: StepSeries,
    /// Number of down nodes over time.
    pub down: StepSeries,
}

/// Aggregate counters, for reports and invariants.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    /// HPC jobs started.
    pub hpc_started: u64,
    /// HPC jobs completed.
    pub hpc_completed: u64,
    /// Pilot jobs started.
    pub pilots_started: u64,
    /// Pilots preempted by higher-tier jobs.
    pub pilots_preempted: u64,
    /// Pilots that reached their granted limit.
    pub pilots_timed_out: u64,
    /// Pilots killed by node failures (no SIGTERM).
    pub pilots_node_failed: u64,
    /// Quick passes due (run or skipped).
    pub quick_passes: u64,
    /// Quick passes over a settled queue, counted and not run (counted
    /// inside `quick_passes` as well).
    pub quick_passes_skipped: u64,
    /// Backfill passes due (run or skipped).
    pub backfill_passes: u64,
    /// Backfill passes over a settled queue, counted and not run
    /// (counted inside `backfill_passes` as well).
    pub backfill_passes_skipped: u64,
    /// Future-start reservations created.
    pub reservations_made: u64,
    /// Delay of pinned demand claims beyond their intended start
    /// (seconds) — the paper's "at most 3 minutes" invasiveness bound.
    pub demand_delay_secs: OnlineStats,
    /// Granted pilot durations (minutes).
    pub pilot_granted_mins: OnlineStats,
    /// Nodes re-masked by the residue-wheel sweep and by admission from
    /// the park, summed over every pass — the regression witness that
    /// the endpoint-bucket walk is crossing-proportional (a full-bucket
    /// walk would inflate this) and that nodes busy past the window are
    /// not walked at all.
    pub wheel_nodes_reprojected: u64,
    /// Placements made by passes: jobs started plus reservations
    /// created.
    pub pass_placements: u64,
}

impl Counters {
    /// Passes of either kind that were due over a settled queue and not
    /// run.
    pub fn passes_skipped(&self) -> u64 {
        self.quick_passes_skipped + self.backfill_passes_skipped
    }

    /// Fold another run's counters into this one (multi-day / multi-seed
    /// aggregation for scraped reports).
    pub fn absorb(&mut self, other: &Counters) {
        self.hpc_started += other.hpc_started;
        self.hpc_completed += other.hpc_completed;
        self.pilots_started += other.pilots_started;
        self.pilots_preempted += other.pilots_preempted;
        self.pilots_timed_out += other.pilots_timed_out;
        self.pilots_node_failed += other.pilots_node_failed;
        self.quick_passes += other.quick_passes;
        self.quick_passes_skipped += other.quick_passes_skipped;
        self.backfill_passes += other.backfill_passes;
        self.backfill_passes_skipped += other.backfill_passes_skipped;
        self.reservations_made += other.reservations_made;
        self.demand_delay_secs.merge(&other.demand_delay_secs);
        self.pilot_granted_mins.merge(&other.pilot_granted_mins);
        self.wheel_nodes_reprojected += other.wheel_nodes_reprojected;
        self.pass_placements += other.pass_placements;
    }
}

/// The Slurm-like cluster simulator.
pub struct ClusterSim {
    cfg: SlurmConfig,
    nodes: Vec<Node>,
    jobs: Vec<Job>,
    /// Jobs submitted and not yet seen started or cancelled, kept in
    /// pass order ([`Self::pass_key`]); started jobs linger until the
    /// end-of-pass compaction, so every reader filters on `is_pending`.
    pending: Vec<JobId>,
    reservations: Vec<Reservation>,
    handovers: HashMap<JobId, Handover>,
    node_waiter: HashMap<NodeId, JobId>,
    /// Instant of the last quick pass (`ZERO` before the first).
    last_quick: SimTime,
    /// Instant of the one queued `QuickPass` event that will run a pass,
    /// if any; every other `QuickPass` event is a request.
    quick_at: Option<SimTime>,
    poll_rng: SimRng,
    series: ClusterSeries,
    counters: Counters,
    n_idle: i64,
    n_pilot: i64,
    n_down: i64,
    /// Cached per-node pass projections, SoA: a class byte (`PROJ_*` in
    /// `plane`) beside a busy-until time.
    proj_class: Vec<u8>,
    proj_until: Vec<SimTime>,
    /// Bit `n` set iff node `n` is idle — intersected with the
    /// timeline's slot-0-free set for the eligible-node lookup.
    idle_bits: Vec<u64>,
    /// Bit `n` set iff node `n` runs a pilot job (draining included) —
    /// with `idle_bits`, the two sets a poll reads.
    pilot_bits: Vec<u64>,
    /// The joined (idle ∪ pilot) availability trace, built poll by poll.
    poll_intervals: PollIntervals,
    /// The standing proof that a pass would place nothing, if any.
    settled: Option<Settled>,
    /// Pending pilots per declared limit in minutes, kept at `submit`,
    /// `start_job` and `cancel_pending`; a limit whose pilots all left
    /// stays with count 0.
    pilot_census: Vec<(u64, usize)>,
    /// The persistent scheduling plane: a long-lived pilot view (and a
    /// lazily materialized HPC view) re-anchored at each pass instant
    /// and mutated by the events the simulator emits instead of being
    /// rebuilt from the node table every pass.
    plane_pilot: Option<Timeline>,
    plane_hpc: Option<Timeline>,
    /// Nodes whose projection changed since the plane was last brought
    /// up to date (dedup'd by the bitset, so at most one entry a node) —
    /// the "events since last pass" a pass applies in O(dirty) instead
    /// of O(nodes).
    plane_dirty: Vec<NodeId>,
    plane_dirty_bits: Vec<u64>,
    /// The busy-release residue wheel: bucket `b` holds the nodes whose
    /// projected release time `u` lies inside the window and has
    /// `u mod bf_resolution` in bucket `b`'s span (later releases wait in
    /// `plane_park`). A node's slot-rounded free mask changes exactly when
    /// the plane anchor crosses such a residue; each bucket is kept
    /// sorted by (residue, node), so a sweep walks only the residues its
    /// anchor crossed (witnessed by [`Counters::wheel_nodes_reprojected`]).
    plane_wheel: Vec<Vec<(u32, NodeId)>>,
    /// Per-node live wheel residue (`WHEEL_NONE` when untracked);
    /// entries whose stored residue disagrees are stale and dropped
    /// lazily on sweep.
    wheel_pos: Vec<u32>,
    /// Busy nodes whose release lies at or past the window end: all-busy
    /// on this lap and the next, so they wait here, earliest release
    /// first, instead of being re-masked to the same zeros once per lap.
    /// `prepare_plane` admits an entry to the wheel once the window has
    /// advanced past its `until`.
    plane_park: BinaryHeap<Reverse<(SimTime, NodeId)>>,
    /// Per-node live park key (`NOT_PARKED` when none); entries whose
    /// stored `until` disagrees are stale and dropped on admission.
    park_until: Vec<SimTime>,
    /// Divide-free reciprocals for the wheel's residue arithmetic
    /// (`wheel_gran.d` is the bucket granularity in ms).
    wheel_res: Recip,
    wheel_gran: Recip,
    /// Pending pinned demand claims, maintained on submit, so painting
    /// their announced windows never re-scans the whole pending queue.
    pinned_pending: Vec<JobId>,
    /// Buffers a pass fills and hands back, so that passes (thousands a
    /// day, most placing nothing) allocate nothing once these have
    /// grown: the pass queue's jobs, the nodes a pass painted, and the
    /// bucket [`Self::sweep_wheel`] rebuilds into.
    queue_scratch: Vec<JobId>,
    painted_scratch: Vec<NodeId>,
    wheel_scratch: Vec<(u32, NodeId)>,
}

impl ClusterSim {
    /// A cluster of `n_nodes` idle nodes.
    pub fn new(cfg: SlurmConfig, n_nodes: usize, seed: u64) -> Self {
        let start = SimTime::ZERO;
        let words = n_nodes.div_ceil(64);
        let res_ms = cfg.bf_resolution.as_millis();
        let wheel_gran_ms = res_ms.div_ceil(128).max(1);
        let n_buckets = res_ms.div_ceil(wheel_gran_ms) as usize;
        let mut idle_bits = vec![u64::MAX; words];
        if !n_nodes.is_multiple_of(64) && words > 0 {
            idle_bits[words - 1] = (1u64 << (n_nodes % 64)) - 1;
        }
        ClusterSim {
            cfg,
            nodes: vec![Node::new(); n_nodes],
            jobs: Vec::new(),
            pending: Vec::new(),
            reservations: Vec::new(),
            handovers: HashMap::new(),
            node_waiter: HashMap::new(),
            last_quick: SimTime::ZERO,
            quick_at: None,
            poll_rng: SimRng::seed_from_u64(seed ^ 0x706f_6c6c),
            series: ClusterSeries {
                idle: StepSeries::new(start, n_nodes as f64),
                pilot: StepSeries::new(start, 0.0),
                down: StepSeries::new(start, 0.0),
            },
            counters: Counters::default(),
            n_idle: n_nodes as i64,
            n_pilot: 0,
            n_down: 0,
            proj_class: vec![PROJ_FREE; n_nodes],
            proj_until: vec![SimTime::ZERO; n_nodes],
            idle_bits,
            pilot_bits: vec![0; words],
            poll_intervals: PollIntervals::new(n_nodes),
            settled: None,
            pilot_census: Vec::new(),
            plane_pilot: None,
            plane_hpc: None,
            plane_dirty: Vec::new(),
            plane_dirty_bits: vec![0; words],
            plane_wheel: vec![Vec::new(); n_buckets],
            wheel_pos: vec![WHEEL_NONE; n_nodes],
            plane_park: BinaryHeap::new(),
            park_until: vec![NOT_PARKED; n_nodes],
            wheel_res: Recip::new(res_ms),
            wheel_gran: Recip::new(wheel_gran_ms),
            pinned_pending: Vec::new(),
            queue_scratch: Vec::new(),
            painted_scratch: Vec::new(),
            wheel_scratch: Vec::new(),
        }
    }

    /// Schedule the initial periodic events (backfill pass and poller).
    pub fn bootstrap(&mut self, now: SimTime, out: &mut Outbox<ClusterEvent>) {
        out.at(now, ClusterEvent::BackfillPass);
        out.at(now, ClusterEvent::Poll);
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of job records ever submitted.
    pub fn n_jobs(&self) -> usize {
        self.jobs.len()
    }

    /// Current idle node count.
    pub fn n_idle(&self) -> usize {
        self.n_idle as usize
    }

    /// Current count of nodes running pilots.
    pub fn n_pilot_nodes(&self) -> usize {
        self.n_pilot as usize
    }

    /// Access a job record.
    pub fn job(&self, id: JobId) -> &Job {
        &self.jobs[id.0 as usize]
    }

    /// Ground-truth state series.
    pub fn series(&self) -> &ClusterSeries {
        &self.series
    }

    /// At the end of a run: the ground-truth state series, and the
    /// availability trace (idle ∪ pilot, §V-B) as the poller saw it —
    /// from its first sample to its last, which counts as unavailable.
    /// Panics unless the poller sampled at two instants.
    pub fn into_parts(self) -> (ClusterSeries, AvailabilityTrace) {
        (self.series, self.poll_intervals.finish())
    }

    /// Aggregate counters.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Pending HPC work in node-hours, by declared limits, summed in
    /// queue order — what a backlog driver tops the queue up against.
    pub fn pending_hpc_node_hours(&self) -> f64 {
        self.pending
            .iter()
            .map(|id| &self.jobs[id.0 as usize])
            .filter(|j| j.is_pending() && j.spec.kind == JobKind::Hpc)
            .fold(0.0, |sum, j| {
                sum + j.spec.nodes as f64 * j.spec.time_limit.as_secs_f64() / 3600.0
            })
    }

    /// Ids of pending jobs matching a predicate, in submission order
    /// (ids are assigned in submission order) — what a manager needs to
    /// *shrink* its queue (pick victims, then
    /// [`cancel_pending`](ClusterSim::cancel_pending) each).
    pub fn pending_ids_matching(&self, pred: impl Fn(&Job) -> bool) -> Vec<JobId> {
        let mut ids: Vec<JobId> = self
            .pending
            .iter()
            .copied()
            .filter(|id| {
                let j = &self.jobs[id.0 as usize];
                j.is_pending() && pred(j)
            })
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Pending *pilot* jobs per declared limit in minutes, as `(limit,
    /// count)` pairs (pilot managers): a census kept as pilots are
    /// submitted, started and cancelled, not a walk of the queue. A
    /// limit whose pilots all left stays listed with count 0; a managed
    /// queue holds a handful of distinct limits, so callers `find`.
    pub fn pending_pilots_by_limit(&self) -> &[(u64, usize)] {
        &self.pilot_census
    }

    /// The census entry for pilots of declared limit `limit`.
    fn pilot_census_slot(&mut self, limit: SimDuration) -> &mut usize {
        let mins = limit.as_mins();
        let at = match self.pilot_census.iter().position(|(m, _)| *m == mins) {
            Some(at) => at,
            None => {
                self.pilot_census.push((mins, 0));
                self.pilot_census.len() - 1
            }
        };
        &mut self.pilot_census[at].1
    }

    /// Submit a job.
    pub fn submit(&mut self, now: SimTime, spec: JobSpec, out: &mut Outbox<ClusterEvent>) -> JobId {
        assert!(spec.nodes >= 1, "job must request at least one node");
        assert!(
            spec.nodes as usize <= self.nodes.len(),
            "job requests {} nodes but the partition has {} (sbatch rejects this)",
            spec.nodes,
            self.nodes.len()
        );
        if let Some(p) = &spec.pinned_nodes {
            assert_eq!(p.len() as u32, spec.nodes);
        }
        let id = JobId(self.jobs.len() as u64);
        self.jobs.push(Job {
            granted: spec.time_limit,
            spec,
            submitted: now,
            state: JobState::Pending,
        });
        let key = self.pass_key(id);
        let at = self.pending.partition_point(|p| self.pass_key(*p) < key);
        self.pending.insert(at, id);
        let spec = &self.jobs[id.0 as usize].spec;
        if spec.pinned_nodes.is_some() && spec.earliest_start.is_some() {
            self.pinned_pending.push(id);
        }
        if let Some(s) = &mut self.settled {
            match spec.earliest_start {
                // Out of the queue until `t`; until then it only paints
                // its window, which frees nothing.
                Some(t) if t > now => s.next_due = Some(s.next_due.map_or(t, |d| d.min(t))),
                // No shorter than a pilot that found no node, and runs
                // from slot 0 have only shrunk since.
                None if spec.kind == JobKind::Pilot
                    && spec.pinned_nodes.is_none()
                    && pilot_fit_slots(&self.cfg, spec) >= s.min_failed_dfit => {}
                _ => self.settled = None,
            }
        }
        if spec.kind == JobKind::Pilot {
            let limit = spec.time_limit;
            *self.pilot_census_slot(limit) += 1;
        }
        // Pinned claims must fire close to their intended start even if
        // the cluster is otherwise quiet.
        if let Some(t) = self.jobs[id.0 as usize].spec.earliest_start {
            if t > now {
                out.at(t, ClusterEvent::QuickPass);
            }
        }
        self.request_quick(now, out);
        id
    }

    /// Start a pinned job immediately on its (idle) nodes, bypassing the
    /// queue. Used to initialize experiments on an already-full cluster
    /// (the paper's days start with ~99% utilization); panics if any
    /// pinned node is not idle.
    pub fn force_start(
        &mut self,
        now: SimTime,
        spec: JobSpec,
        out: &mut Outbox<ClusterEvent>,
        notes: &mut Vec<ClusterNote>,
    ) -> JobId {
        let nodes = spec
            .pinned_nodes
            .clone()
            .expect("force_start requires pinned nodes");
        for n in &nodes {
            assert!(
                self.nodes[n.0 as usize].is_idle(),
                "force_start on non-idle node {n}"
            );
        }
        let limit = spec.time_limit;
        if spec.kind == JobKind::Pilot {
            // Never queued, but `start_job` takes it out of the census.
            *self.pilot_census_slot(limit) += 1;
        }
        let id = JobId(self.jobs.len() as u64);
        self.jobs.push(Job {
            granted: limit,
            spec,
            submitted: now,
            state: JobState::Pending,
        });
        self.start_job(now, id, nodes, limit, out, notes);
        id
    }

    /// Cancel a pending job; returns false if it already left the queue.
    pub fn cancel_pending(&mut self, now: SimTime, id: JobId) -> bool {
        let job = &mut self.jobs[id.0 as usize];
        if !job.is_pending() || self.handovers.contains_key(&id) {
            return false;
        }
        job.state = JobState::Done {
            outcome: JobOutcome::Cancelled,
            at: now,
        };
        self.pending.retain(|j| *j != id);
        // A cancelled claim takes its painted window with it.
        self.settled = None;
        if job.spec.kind == JobKind::Pilot {
            let limit = job.spec.time_limit;
            *self.pilot_census_slot(limit) -= 1;
        }
        true
    }

    /// A draining pilot finished its handoff and exited voluntarily.
    pub fn pilot_exited(
        &mut self,
        now: SimTime,
        id: JobId,
        out: &mut Outbox<ClusterEvent>,
        notes: &mut Vec<ClusterNote>,
    ) {
        let job = &self.jobs[id.0 as usize];
        let outcome = match &job.state {
            JobState::Draining { outcome, .. } => *outcome,
            // Exiting without a SIGTERM (shouldn't happen in the
            // protocol, tolerated as a completion).
            JobState::Running { .. } => JobOutcome::Completed,
            _ => return, // already gone (e.g. grace expired first)
        };
        self.end_job(now, id, outcome, out, notes);
    }

    /// Main event dispatch.
    pub fn handle(
        &mut self,
        now: SimTime,
        ev: ClusterEvent,
        out: &mut Outbox<ClusterEvent>,
        notes: &mut Vec<ClusterNote>,
    ) {
        self.dispatch(now, ev, out, notes, Self::run_pass);
    }

    /// Event dispatch around `pass`, the pass a due `QuickPass` or
    /// `BackfillPass` runs over an unsettled queue. Generic, so each
    /// caller's choice is made at compile time.
    fn dispatch(
        &mut self,
        now: SimTime,
        ev: ClusterEvent,
        out: &mut Outbox<ClusterEvent>,
        notes: &mut Vec<ClusterNote>,
        pass: impl FnOnce(
            &mut Self,
            SimTime,
            PassMode,
            &mut Outbox<ClusterEvent>,
            &mut Vec<ClusterNote>,
        ) -> SimDuration,
    ) {
        match ev {
            ClusterEvent::QuickPass => {
                if self.quick_at != Some(now) {
                    // Not the queued pass but a claim's wake-up at its
                    // `earliest_start`: a request like any other, unless
                    // a pass has just run at this very instant.
                    if self.last_quick != now {
                        self.request_quick(now, out);
                    }
                    return;
                }
                self.quick_at = None;
                self.last_quick = now;
                self.counters.quick_passes += 1;
                if self.queue_is_settled(now) {
                    self.counters.quick_passes_skipped += 1;
                    #[cfg(debug_assertions)]
                    self.run_settled_pass_anyway(now, PassMode::Quick);
                } else {
                    pass(self, now, PassMode::Quick, out, notes);
                }
            }
            ClusterEvent::BackfillPass => {
                self.counters.backfill_passes += 1;
                let cost = if self.queue_is_settled(now) {
                    self.counters.backfill_passes_skipped += 1;
                    // The walk over the queue is what a pass that places
                    // nothing charges to the next interval.
                    let queue = self.pass_queue(now);
                    let queued = queue.jobs.len();
                    self.queue_scratch = queue.jobs;
                    let examined = queued.min(self.cfg.bf_max_job_test);
                    let cost = self.cfg.bf_per_job_cost * examined as u64;
                    #[cfg(debug_assertions)]
                    assert_eq!(
                        self.run_settled_pass_anyway(now, PassMode::Backfill),
                        cost,
                        "a skipped backfill pass charged another cost than the pass"
                    );
                    cost
                } else {
                    pass(self, now, PassMode::Backfill, out, notes)
                };
                let next = self.cfg.bf_interval.max(cost);
                out.after(next, ClusterEvent::BackfillPass);
            }
            ClusterEvent::JobFinished(id) => {
                if matches!(self.jobs[id.0 as usize].state, JobState::Running { .. }) {
                    self.end_job(now, id, JobOutcome::Completed, out, notes);
                }
            }
            ClusterEvent::TimeLimit(id) => self.on_time_limit(now, id, out, notes),
            ClusterEvent::GraceExpired(id) => {
                if let JobState::Draining {
                    kill_at, outcome, ..
                } = self.jobs[id.0 as usize].state.clone()
                {
                    if kill_at <= now {
                        self.end_job(now, id, outcome, out, notes);
                    }
                }
            }
            ClusterEvent::Poll => {
                let sample = self.take_poll_sample(now);
                notes.push(ClusterNote::Polled(sample));
                out.after(self.sample_poll_gap(), ClusterEvent::Poll);
            }
            ClusterEvent::NodeDown(n) => self.on_node_down(now, n, out, notes),
            ClusterEvent::NodeUp(n) => {
                if self.nodes[n.0 as usize].state == NodeState::Down {
                    self.set_node_state(now, n, NodeState::Idle);
                    self.request_quick(now, out);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pending_hpc_node_hours_sums_queued_hpc_jobs_only() {
        let mut sim = ClusterSim::new(SlurmConfig::default(), 4, 1);
        let mut out = Outbox::new(SimTime::ZERO);
        let mins = SimDuration::from_mins;
        // No pass runs, so everything submitted stays queued; a pilot
        // and a cancelled job are not pending HPC work.
        sim.submit(SimTime::ZERO, JobSpec::hpc(2, mins(90), mins(60)), &mut out);
        sim.submit(SimTime::ZERO, JobSpec::hpc(4, mins(15), mins(10)), &mut out);
        let cancelled = sim.submit(SimTime::ZERO, JobSpec::hpc(1, mins(600), mins(5)), &mut out);
        sim.submit(SimTime::ZERO, JobSpec::pilot_fixed(mins(90), 90), &mut out);
        assert!(sim.cancel_pending(SimTime::ZERO, cancelled));
        // 2 nodes × 1.5 h + 4 nodes × 0.25 h.
        assert_eq!(sim.pending_hpc_node_hours(), 4.0);
        // A pass starts the 2-node job; the 4-node one waits for it.
        sim.handle(
            SimTime::ZERO,
            ClusterEvent::BackfillPass,
            &mut out,
            &mut Vec::new(),
        );
        assert_eq!(sim.pending_hpc_node_hours(), 1.0);
    }
}
