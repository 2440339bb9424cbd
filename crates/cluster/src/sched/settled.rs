//! The settled-queue proof: a quick or backfill pass over a queue the
//! previous pass proved unplaceable is counted and not run. It owns one
//! invariant: while `settled` stands and `now` is before its `next_due`,
//! a pass would schedule no event, emit no note, place nothing and touch
//! no node, waiter or handover, and would charge exactly the cost the
//! skip charges.
//!
//! # No pass without work
//!
//! A pass that examined its whole queue, found no unpinned HPC job in
//! it (the only kind that is given a reservation), skipped no pilot and
//! leaves no claim waiting on a node another job is first in line for
//! *settles* the queue ([`Settled`], recorded by `place_queue`): every
//! pilot still queued failed `find_single_now`, every due claim either
//! started or holds (or heads the line for) each of its nodes. A pilot
//! only ever starts at slot 0 of an *idle* node, and everything painted
//! on an idle node's timeline (an announced claim window, which by
//! `announced_start >= earliest_start` cannot end before its claim comes
//! due) has an absolute position, so as the pass origin advances a free
//! run from slot 0 only shrinks: time alone cannot make a queued pilot
//! fit, and a due claim already did all it can until one of its nodes is
//! handed to it (which starts it without a pass).
//!
//! The proof is voided in exactly these places, and nowhere else:
//!
//! * `set_node_state`, when a node turns idle — also during a pass;
//! * `cancel_pending`: a cancelled claim takes its painted window along;
//! * `submit`, for a job that could start — everything except a pilot at
//!   least as long as one that just failed, and a job not yet due, which
//!   lowers `next_due` instead;
//! * `on_handover_node_ready`, when a handover is filled in part (the
//!   next pass re-derives its `ready` list);
//! * `on_node_down`, when a node failure tears a handover down;
//! * `place_queue` itself, which leaves no proof behind a pass that cut
//!   its queue short, skipped a pilot, or ended with a contested node
//!   ([`ClusterSim::handovers_own_their_nodes`]);
//! * the reference entry point in `oracle`, which clears it before
//!   every event.
//!
//! It lapses when `now` reaches `next_due`. While it stands, a
//! `QuickPass` or `BackfillPass` is counted (`*_passes_skipped`) and
//! returns in O(1); a skipped backfill pass still charges the simulated
//! cost of walking the queue to the next interval. The oracles that
//! judge the proof are in `oracle`.

use super::ClusterSim;
use crate::config::SlurmConfig;
use crate::job::JobSpec;
use crate::node::NodeState;
use simcore::SimTime;

/// What the last pass proved about the queue it left behind (module doc,
/// "No pass without work").
#[derive(Debug, Clone, Copy)]
pub(super) struct Settled {
    /// Shortest fit, in slots, among the pilots that found no node
    /// (`u32::MAX` when none was queued): a pilot submitted later that
    /// needs at least this much cannot start either.
    pub(super) min_failed_dfit: u32,
    /// Earliest `earliest_start` among the pending jobs not yet due; a
    /// pass at or after it has a new job to examine.
    pub(super) next_due: Option<SimTime>,
}

/// Slots a pilot must find free from slot 0 to start: its minimum time
/// when variable-length, its limit otherwise.
pub(super) fn pilot_fit_slots(cfg: &SlurmConfig, spec: &JobSpec) -> u32 {
    cfg.slots_ceil(spec.min_time.unwrap_or(spec.time_limit))
        .max(1)
}

impl ClusterSim {
    /// True iff a pass of either kind at `now` provably places nothing:
    /// the proof stands and no job has come due since it was made.
    pub(super) fn queue_is_settled(&self, now: SimTime) -> bool {
        self.settled
            .is_some_and(|s| s.next_due.is_none_or(|due| now < due))
    }

    /// Every claim waiting on a handover holds, or is first in line for,
    /// each of its nodes. A claim that found another job's waiter on a
    /// node registers its own in the first pass after that waiter is
    /// served, so a queue with such a claim in it is not settled.
    pub(super) fn handovers_own_their_nodes(&self) -> bool {
        self.handovers.iter().all(|(id, h)| {
            h.needed.iter().all(|n| {
                self.nodes[n.0 as usize].state == NodeState::Reserved(*id)
                    || self.node_waiter.get(n) == Some(id)
            })
        })
    }
}
