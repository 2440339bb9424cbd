//! Claims and handover: how a job takes nodes that are not all idle. It
//! owns the handover invariants: a node another job waits for has
//! exactly one waiter in `node_waiter`, is `Reserved` for that waiter
//! the moment its holder ends, and is never placed on in the meantime;
//! a pilot holding a node a claim needs is SIGTERMed once, with the
//! configured grace; and a handover starts its job the moment its last
//! node is ready, without a pass.

use super::ClusterSim;
use crate::events::{ClusterEvent, ClusterNote, SigtermReason};
use crate::ids::{JobId, NodeId, NodeList};
use crate::job::JobState;
use crate::node::NodeState;
use simcore::{Outbox, SimTime};

/// A job waiting for preempted/busy nodes to be handed over.
#[derive(Debug, Clone)]
pub(super) struct Handover {
    pub(super) needed: NodeList,
    pub(super) ready: NodeList,
}

impl ClusterSim {
    /// The pinned nodes claim `id` holds by now, reserved or running.
    pub(super) fn claimed_nodes(&self, id: JobId) -> NodeList {
        let pinned = self.jobs[id.0 as usize].spec.pinned_nodes.iter().flatten();
        pinned
            .copied()
            .filter(|n| {
                let st = self.nodes[n.0 as usize].state;
                st == NodeState::Reserved(id) || st == NodeState::Busy(id)
            })
            .collect()
    }

    /// Try to claim the pinned nodes of demand job `id`; idempotent.
    /// The pinned list is borrow-split out of the spec (and restored)
    /// instead of cloned — this runs on every pass while a claim waits
    /// on a handover, so the hot path must not allocate.
    pub(super) fn claim_pinned(
        &mut self,
        now: SimTime,
        id: JobId,
        out: &mut Outbox<ClusterEvent>,
        notes: &mut Vec<ClusterNote>,
    ) {
        let pinned = std::mem::take(&mut self.jobs[id.0 as usize].spec.pinned_nodes)
            .expect("claim_pinned on unpinned job");
        // Pass 1: figure out what is claimable; existing handover state
        // is merged (nodes already Reserved(id) count as ready).
        let mut ready = NodeList::with_capacity(pinned.len());
        let mut all_ready = true;
        for n in &pinned {
            match self.nodes[n.0 as usize].state {
                NodeState::Idle => ready.push(*n),
                NodeState::Reserved(r) if r == id => ready.push(*n),
                _ => all_ready = false,
            }
        }
        if all_ready {
            self.handovers.remove(&id);
            for n in &ready {
                if self.node_waiter.get(n) == Some(&id) {
                    self.node_waiter.remove(n);
                }
            }
            let limit = self.jobs[id.0 as usize].spec.time_limit;
            self.jobs[id.0 as usize].spec.pinned_nodes = Some(pinned);
            self.start_job(now, id, ready, limit, out, notes);
            return;
        }
        // Pass 2: reserve the claimable nodes and preempt pilots on the
        // rest.
        for n in &ready {
            if self.nodes[n.0 as usize].state == NodeState::Idle {
                self.set_node_state(now, *n, NodeState::Reserved(id));
            }
        }
        for n in &pinned {
            // Waiting set: pinned minus ready (ready nodes are now
            // Reserved(id)).
            match self.nodes[n.0 as usize].state {
                NodeState::Idle => continue,
                NodeState::Reserved(r) if r == id => continue,
                _ => {}
            }
            if self.node_waiter.contains_key(n) {
                continue; // already being reclaimed
            }
            self.wait_for_node(now, id, *n, out, notes);
        }
        match self.handovers.entry(id) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                e.get_mut().ready = ready;
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(Handover {
                    needed: pinned.clone(),
                    ready,
                });
            }
        }
        self.jobs[id.0 as usize].spec.pinned_nodes = Some(pinned);
    }

    /// Start job `id` on `nodes` if they are all immediately free;
    /// otherwise preempt pilots and register a handover.
    pub(super) fn start_or_handover(
        &mut self,
        now: SimTime,
        id: JobId,
        nodes: NodeList,
        out: &mut Outbox<ClusterEvent>,
        notes: &mut Vec<ClusterNote>,
    ) {
        let all_idle = nodes.iter().all(|n| self.nodes[n.0 as usize].is_idle());
        if all_idle {
            let limit = self.jobs[id.0 as usize].spec.time_limit;
            self.start_job(now, id, nodes, limit, out, notes);
            return;
        }
        let mut ready = NodeList::new();
        for n in &nodes {
            match self.nodes[n.0 as usize].state {
                NodeState::Idle => {
                    self.set_node_state(now, *n, NodeState::Reserved(id));
                    ready.push(*n);
                }
                NodeState::Busy(_) => self.wait_for_node(now, id, *n, out, notes),
                other => unreachable!("start_or_handover chose unusable node in state {other:?}"),
            }
        }
        self.handovers.insert(
            id,
            Handover {
                needed: nodes,
                ready,
            },
        );
    }

    /// Put `id` first in line for node `n`, and SIGTERM `n`'s holder with
    /// the preemption grace if that is a running pilot; any other holder
    /// keeps the node until its natural end.
    fn wait_for_node(
        &mut self,
        now: SimTime,
        id: JobId,
        n: NodeId,
        out: &mut Outbox<ClusterEvent>,
        notes: &mut Vec<ClusterNote>,
    ) {
        self.node_waiter.insert(n, id);
        self.refresh_node(n);
        if let NodeState::Busy(holder) = self.nodes[n.0 as usize].state {
            let hjob = &self.jobs[holder.0 as usize];
            if hjob.spec.preemptible && matches!(hjob.state, JobState::Running { .. }) {
                self.sigterm(now, holder, SigtermReason::Preempted, out, notes);
                self.counters.pilots_preempted += 1;
            }
        }
    }

    /// Node `node` was handed to `waiter` by the job that held it.
    pub(super) fn on_handover_node_ready(
        &mut self,
        now: SimTime,
        waiter: JobId,
        node: NodeId,
        out: &mut Outbox<ClusterEvent>,
        notes: &mut Vec<ClusterNote>,
    ) {
        let Some(h) = self.handovers.get_mut(&waiter) else {
            // No handover record (can happen if it was torn down); free
            // the node instead of leaking the reservation.
            self.set_node_state(now, node, NodeState::Idle);
            return;
        };
        if !h.ready.contains(&node) {
            h.ready.push(node);
        }
        if h.ready.len() == h.needed.len() {
            let nodes = std::mem::take(&mut h.ready);
            self.handovers.remove(&waiter);
            let limit = self.jobs[waiter.0 as usize].spec.time_limit;
            self.start_job(now, waiter, nodes, limit, out, notes);
        } else {
            // The next pass re-derives `ready` in pinned order, and the
            // order shows in the eventual `JobStarted`.
            self.settled = None;
        }
    }
}
