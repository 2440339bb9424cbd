//! The job lifecycle and node transitions (§III-C, §III-D): start, then
//! SIGTERM, grace and kill, or a natural end. It owns these invariants:
//! every node-state change goes through [`ClusterSim::set_node_state`],
//! which keeps the idle/pilot/down tallies and the ground-truth series
//! equal to a count of the node table and refreshes the node's
//! projection; a started job always has a `TimeLimit` event at its
//! granted end; a SIGTERMed job always has a `GraceExpired` event at its
//! `kill_at`; a node a job leaves goes to its waiter if it has one, and
//! is idle otherwise; and at most one pass-running `QuickPass` is ever
//! queued ([`ClusterSim::request_quick`]).

use super::ClusterSim;
use crate::events::{ClusterEvent, ClusterNote, SigtermReason};
use crate::ids::{JobId, NodeId, NodeList};
use crate::job::{Job, JobKind, JobOutcome, JobState};
use crate::node::NodeState;
use simcore::{Outbox, SimDuration, SimTime};

impl ClusterSim {
    pub(super) fn start_job(
        &mut self,
        now: SimTime,
        id: JobId,
        nodes: NodeList,
        granted: SimDuration,
        out: &mut Outbox<ClusterEvent>,
        notes: &mut Vec<ClusterNote>,
    ) {
        // Pilots come straight from `find_single_now` with no node-state
        // check: a pass on the very millisecond a holder's `until` lapses
        // sees the node free only because the older `TimeLimit` /
        // `GraceExpired` event wins the `(time, seq)` tie and has already
        // released it.
        debug_assert!(
            nodes.iter().all(|n| {
                let st = self.nodes[n.0 as usize].state;
                st == NodeState::Idle || st == NodeState::Reserved(id)
            }),
            "starting {id} on a node that is neither idle nor reserved for it"
        );
        // The started job is *not* removed from `pending` here — that
        // retain cost O(queue) per start. Every reader of `pending`
        // filters on `is_pending()`, and the end-of-pass retain compacts
        // the list.
        let job = &mut self.jobs[id.0 as usize];
        debug_assert!(job.is_pending(), "starting a non-pending job");
        let granted_end = now + granted;
        job.granted = granted;
        job.state = JobState::Running {
            start: now,
            granted_end,
            nodes: nodes.clone(),
        };
        // Node states refresh after the job record is updated so the
        // projections see the new holder.
        for n in &nodes {
            self.set_node_state(now, *n, NodeState::Busy(id));
        }
        let job = &self.jobs[id.0 as usize];
        out.at(granted_end, ClusterEvent::TimeLimit(id));
        if let Some(actual) = job.spec.actual_runtime {
            let end = now + actual.min(granted);
            if end < granted_end {
                out.at(end, ClusterEvent::JobFinished(id));
            }
        }
        match job.spec.kind {
            JobKind::Hpc => {
                self.counters.hpc_started += 1;
                if let Some(intended) = job.spec.earliest_start {
                    self.counters
                        .demand_delay_secs
                        .add(now.since(intended).as_secs_f64());
                }
            }
            JobKind::Pilot => {
                self.counters.pilots_started += 1;
                self.counters.pilot_granted_mins.add(granted.as_mins_f64());
                let limit = job.spec.time_limit;
                *self.pilot_census_slot(limit) -= 1;
            }
        }
        notes.push(ClusterNote::JobStarted {
            job: id,
            nodes,
            granted_end,
        });
    }

    /// Signal a running job: it drains until `kill_at`, after the grace
    /// its reason grants (`grace_time` for a preemption, `kill_wait` at
    /// the time limit).
    pub(super) fn sigterm(
        &mut self,
        now: SimTime,
        id: JobId,
        reason: SigtermReason,
        out: &mut Outbox<ClusterEvent>,
        notes: &mut Vec<ClusterNote>,
    ) {
        let (grace, outcome) = match reason {
            SigtermReason::Preempted => (self.cfg.grace_time, JobOutcome::Preempted),
            SigtermReason::TimeLimit => (self.cfg.kill_wait, JobOutcome::TimedOut),
        };
        let job = &mut self.jobs[id.0 as usize];
        let JobState::Running { start, nodes, .. } = job.state.clone() else {
            return;
        };
        let kill_at = now + grace;
        job.state = JobState::Draining {
            start,
            kill_at,
            nodes: nodes.clone(),
            outcome,
        };
        for n in &nodes {
            self.refresh_node(*n);
        }
        out.at(kill_at, ClusterEvent::GraceExpired(id));
        notes.push(ClusterNote::JobSigterm {
            job: id,
            reason,
            kill_at,
        });
    }

    pub(super) fn on_time_limit(
        &mut self,
        now: SimTime,
        id: JobId,
        out: &mut Outbox<ClusterEvent>,
        notes: &mut Vec<ClusterNote>,
    ) {
        let job = &self.jobs[id.0 as usize];
        let JobState::Running { granted_end, .. } = &job.state else {
            return; // finished or preempted before the limit
        };
        if *granted_end != now {
            return; // stale event
        }
        match job.spec.kind {
            JobKind::Hpc => self.end_job(now, id, JobOutcome::TimedOut, out, notes),
            JobKind::Pilot => {
                self.counters.pilots_timed_out += 1;
                self.sigterm(now, id, SigtermReason::TimeLimit, out, notes);
            }
        }
    }

    pub(super) fn end_job(
        &mut self,
        now: SimTime,
        id: JobId,
        outcome: JobOutcome,
        out: &mut Outbox<ClusterEvent>,
        notes: &mut Vec<ClusterNote>,
    ) {
        let job = &mut self.jobs[id.0 as usize];
        let nodes: Vec<NodeId> = job.held_nodes().to_vec();
        job.state = JobState::Done { outcome, at: now };
        let kind = job.spec.kind;
        // Emit the end note before handover starts so note order reads
        // causally (ended → successor started).
        notes.push(ClusterNote::JobEnded { job: id, outcome });
        for n in nodes {
            if let Some(waiter) = self.node_waiter.remove(&n) {
                self.set_node_state(now, n, NodeState::Reserved(waiter));
                self.on_handover_node_ready(now, waiter, n, out, notes);
            } else {
                self.set_node_state(now, n, NodeState::Idle);
            }
        }
        match (kind, outcome) {
            (JobKind::Hpc, _) => self.counters.hpc_completed += 1,
            (JobKind::Pilot, JobOutcome::NodeFailed) => {
                self.counters.pilots_node_failed += 1;
            }
            _ => {}
        }
        self.request_quick(now, out);
    }

    pub(super) fn on_node_down(
        &mut self,
        now: SimTime,
        n: NodeId,
        out: &mut Outbox<ClusterEvent>,
        notes: &mut Vec<ClusterNote>,
    ) {
        match self.nodes[n.0 as usize].state {
            NodeState::Down => {}
            NodeState::Idle => self.set_node_state(now, n, NodeState::Down),
            NodeState::Busy(holder) => {
                // Hard failure: the job dies without SIGTERM — this is
                // the path baseline OpenWhisk handles badly (§II).
                self.node_waiter.remove(&n);
                self.end_job(now, holder, JobOutcome::NodeFailed, out, notes);
                self.set_node_state(now, n, NodeState::Down);
            }
            NodeState::Reserved(waiter) => {
                // Tear down the handover; the waiting job re-queues.
                self.settled = None;
                if let Some(h) = self.handovers.remove(&waiter) {
                    for rn in h.ready {
                        if rn != n && self.nodes[rn.0 as usize].state == NodeState::Reserved(waiter)
                        {
                            self.set_node_state(now, rn, NodeState::Idle);
                        }
                    }
                    for wn in h.needed {
                        if self.node_waiter.get(&wn) == Some(&waiter) {
                            self.node_waiter.remove(&wn);
                            self.refresh_node(wn);
                        }
                    }
                }
                self.set_node_state(now, n, NodeState::Down);
                self.request_quick(now, out);
            }
        }
    }

    /// Ask for a quick pass as soon as the rate limit allows. At most
    /// one pass-running `QuickPass` is ever queued: a request that finds
    /// one queued at or before its own instant is already served.
    pub(super) fn request_quick(&mut self, now: SimTime, out: &mut Outbox<ClusterEvent>) {
        let at = (self.last_quick + self.cfg.sched_min_interval).max(now);
        if self.quick_at.is_some_and(|queued| queued <= at) {
            return;
        }
        self.quick_at = Some(at);
        out.at(at, ClusterEvent::QuickPass);
    }

    pub(super) fn set_node_state(&mut self, now: SimTime, n: NodeId, new: NodeState) {
        let node = &mut self.nodes[n.0 as usize];
        let old = node.state;
        if old == new {
            return;
        }
        node.state = new;
        node.since = now;
        if new == NodeState::Idle {
            // The one transition that lengthens a free run from slot 0.
            self.settled = None;
        }
        self.refresh_node(n);
        let delta = |st: NodeState, jobs: &[Job]| -> (i64, i64, i64) {
            match st {
                NodeState::Idle => (1, 0, 0),
                NodeState::Down => (0, 0, 1),
                NodeState::Reserved(_) => (0, 0, 0),
                NodeState::Busy(j) => {
                    if jobs[j.0 as usize].spec.kind == JobKind::Pilot {
                        (0, 1, 0)
                    } else {
                        (0, 0, 0)
                    }
                }
            }
        };
        let (oi, op, od) = delta(old, &self.jobs);
        let (ni, np, nd) = delta(new, &self.jobs);
        self.n_idle += ni - oi;
        self.n_pilot += np - op;
        self.n_down += nd - od;
        self.series.idle.set(now, self.n_idle as f64);
        self.series.pilot.set(now, self.n_pilot as f64);
        self.series.down.set(now, self.n_down as f64);
    }
}
