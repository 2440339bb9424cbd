//! The scheduling pass: the queue it walks and the placement walk. It
//! owns the pass order (tier desc, priority desc, FIFO, the id breaking
//! ties), which leaves out the jobs not yet due; the depth of a walk
//! (`sched_queue_depth` for a quick pass, `bf_max_job_test` for a
//! backfill pass); that an HPC job starts only where the HPC view is free
//! from slot 0 for its whole limit (genuinely idle nodes before
//! pilot-held ones, each class in node order) and a pilot only at slot 0
//! of the pilot view; that only a backfill pass creates reservations, and
//! that it replaces all of them; and the cost a pass charges:
//! `bf_per_job_cost` per examined job plus `bf_var_slot_cost` per granted
//! extension slot.

use super::settled::{pilot_fit_slots, Settled};
use super::ClusterSim;
use crate::events::{ClusterEvent, ClusterNote};
use crate::ids::{JobId, NodeId, NodeList};
use crate::job::JobKind;
use crate::timeline::{FitPolicy, Timeline};
use simcore::{Outbox, SimDuration, SimTime};
use std::cmp::Reverse;

/// A future-start reservation created by a backfill pass.
#[derive(Debug, Clone)]
pub(super) struct Reservation {
    pub(super) job: JobId,
    pub(super) start: SimTime,
    pub(super) end: SimTime,
    pub(super) nodes: Vec<NodeId>,
}

/// Which flavour of scheduling pass is running.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum PassMode {
    Quick,
    Backfill,
}

/// The jobs a pass at some instant examines, in pass order.
pub(super) struct PassQueue {
    pub(super) jobs: Vec<JobId>,
    /// True iff an unpinned HPC job is queued — the only kind that
    /// queries the HPC view, which is not built without one.
    pub(super) need_hpc: bool,
    /// Earliest `earliest_start` among the pending jobs left out because
    /// they are not yet due.
    pub(super) next_due: Option<SimTime>,
}

impl ClusterSim {
    /// Where a job sorts in a pass: tier desc, priority desc, FIFO. No
    /// field changes after `submit`, and the trailing id makes the order
    /// strict.
    pub(super) fn pass_key(&self, id: JobId) -> (Reverse<u8>, Reverse<u64>, SimTime, JobId) {
        let j = &self.jobs[id.0 as usize];
        (
            Reverse(j.spec.priority_tier),
            Reverse(j.spec.priority),
            j.submitted,
            id,
        )
    }

    /// The pass queue at `now`: the pending jobs in pass order (`pending`
    /// is kept in [`Self::pass_key`] order by `submit`, so this is a
    /// filter), with what a pass needs to know about them up front. Jobs
    /// not yet due are left out — a pinned claim's window is already
    /// projected as a reservation and its firing is scheduled
    /// separately, so it must not eat pass budget.
    ///
    /// The queue is built in `queue_scratch`: whoever is done with it
    /// puts `jobs` back there ([`Self::place_queue`] does).
    pub(super) fn pass_queue(&mut self, now: SimTime) -> PassQueue {
        let mut jobs = std::mem::take(&mut self.queue_scratch);
        jobs.clear();
        let mut queue = PassQueue {
            jobs,
            need_hpc: false,
            next_due: None,
        };
        for id in &self.pending {
            let j = &self.jobs[id.0 as usize];
            if !j.is_pending() {
                continue; // started since the last compaction
            }
            match j.spec.earliest_start {
                Some(t) if t > now => {
                    queue.next_due = Some(queue.next_due.map_or(t, |due| due.min(t)));
                }
                _ => {
                    queue.need_hpc |= j.spec.kind == JobKind::Hpc && j.spec.pinned_nodes.is_none();
                    queue.jobs.push(*id);
                }
            }
        }
        queue
    }

    /// Up to `k` nodes able to start a `d`-slot HPC job now, genuinely
    /// idle nodes first, ascending node id within each class — the
    /// indexed equivalent of the reference scan-and-partition. Iterates
    /// only the intersection of the timeline's slot-0-free set with the
    /// idle (resp. non-idle) bitset.
    fn startable_for_hpc(&self, tl_hpc: &Timeline, k: u32, d: u32) -> NodeList {
        let mut chosen = NodeList::with_capacity(k as usize);
        let words = tl_hpc.now_free_words();
        for held_pass in [false, true] {
            for (w, bits) in words.iter().enumerate() {
                let mut m = if held_pass {
                    bits & !self.idle_bits[w]
                } else {
                    bits & self.idle_bits[w]
                };
                while m != 0 {
                    let b = m.trailing_zeros();
                    m &= m - 1;
                    let n = NodeId((w * 64) as u32 + b);
                    if tl_hpc.is_free_range(n, 0, d) {
                        chosen.push(n);
                        if chosen.len() as u32 == k {
                            return chosen;
                        }
                    }
                }
            }
        }
        chosen
    }

    /// The production pass: the placement walk on the persistent plane.
    pub(super) fn run_pass(
        &mut self,
        now: SimTime,
        mode: PassMode,
        out: &mut Outbox<ClusterEvent>,
        notes: &mut Vec<ClusterNote>,
    ) -> SimDuration {
        let queue = self.pass_queue(now);
        let need_hpc = queue.need_hpc;
        let (mut tl_pilot, mut tl_hpc, hpc_parked, mut painted) =
            self.prepare_plane(now, mode, need_hpc);
        #[cfg(debug_assertions)]
        self.assert_views_fresh(now, mode, need_hpc, &tl_pilot, &tl_hpc);
        let cost = self.place_queue(
            now,
            mode,
            queue,
            &mut tl_pilot,
            &mut tl_hpc,
            &mut painted,
            out,
            notes,
        );
        self.finish_plane(tl_pilot, tl_hpc, hpc_parked, painted);
        cost
    }

    /// The placement walk of a pass over `queue`, on pass views painted
    /// for `now`; nodes it paints on top are appended to `painted`. Ends
    /// by recording whether it settled the queue. Returns the simulated
    /// pass cost (delays the next backfill pass).
    #[allow(clippy::too_many_arguments)]
    pub(super) fn place_queue(
        &mut self,
        now: SimTime,
        mode: PassMode,
        queue: PassQueue,
        tl_pilot: &mut Timeline,
        tl_hpc: &mut Timeline,
        painted: &mut Vec<NodeId>,
        out: &mut Outbox<ClusterEvent>,
        notes: &mut Vec<ClusterNote>,
    ) -> SimDuration {
        let n_slots = self.cfg.n_slots();
        let need_hpc = queue.need_hpc;
        let limit = match mode {
            PassMode::Quick => self.cfg.sched_queue_depth,
            PassMode::Backfill => self.cfg.bf_max_job_test,
        };
        let mut examined = 0usize;
        let mut var_budget = self.cfg.var_extension_budget_slots;
        let mut var_slots_computed: u64 = 0;
        let mut reservations_created = 0usize;
        let mut new_reservations: Vec<Reservation> = Vec::new();
        // Provisional: it stands unless this pass cuts its queue short,
        // skips a pilot or ends with a contested node — or a node turns
        // idle under it, which voids the proof during a pass as it does
        // after one.
        self.settled = (!need_hpc).then_some(Settled {
            min_failed_dfit: u32::MAX,
            next_due: queue.next_due,
        });

        for &id in &queue.jobs {
            if examined >= limit {
                self.settled = None;
                break;
            }
            examined += 1;
            let job = &self.jobs[id.0 as usize];
            if !self.handovers.is_empty() && self.handovers.contains_key(&id) {
                // Waiting on a preemption handover; pinned claims may
                // still be able to grab newly freed nodes — which the
                // views, built before, still show free.
                if job.spec.pinned_nodes.is_some() {
                    self.claim_pinned(now, id, out, notes);
                    for n in self.claimed_nodes(id) {
                        tl_pilot.block_all(n);
                        if need_hpc {
                            tl_hpc.block_all(n);
                        }
                        painted.push(n);
                    }
                }
                continue;
            }
            match job.spec.kind {
                JobKind::Hpc => {
                    if job.spec.pinned_nodes.is_some() {
                        self.claim_pinned(now, id, out, notes);
                        // The claim owns (or is actively reclaiming) its
                        // nodes from this instant; nothing else may be
                        // placed on them later in this very pass — the
                        // timelines were built before the claim fired.
                        if let Some(nodes) = &self.jobs[id.0 as usize].spec.pinned_nodes {
                            for n in nodes {
                                tl_pilot.block_all(*n);
                                if need_hpc {
                                    tl_hpc.block_all(*n);
                                }
                                painted.push(*n);
                            }
                        }
                        continue;
                    }
                    let d = self.cfg.slots_ceil(job.spec.time_limit).max(1);
                    let k = job.spec.nodes;
                    let limit_dur = job.spec.time_limit;
                    // Start now? The HPC view treats pilot nodes as free;
                    // prefer genuinely idle nodes over pilot-held.
                    let startable = self.startable_for_hpc(tl_hpc, k, d);
                    if startable.len() as u32 == k {
                        for n in &startable {
                            tl_hpc.block_until(*n, now + limit_dur);
                            tl_pilot.block_until(*n, now + limit_dur);
                        }
                        self.counters.pass_placements += 1;
                        self.start_or_handover(now, id, startable, out, notes);
                    } else if mode == PassMode::Backfill
                        && reservations_created < self.cfg.bf_max_reservations
                    {
                        if let Some((s, nodes)) = tl_hpc.find_start(k, d, n_slots - 1) {
                            let start = tl_hpc.slot_start(s);
                            let end = start + limit_dur;
                            for n in &nodes {
                                tl_hpc.block_interval(*n, start, end);
                                tl_pilot.block_interval(*n, start, end);
                                painted.push(*n);
                            }
                            new_reservations.push(Reservation {
                                job: id,
                                start,
                                end,
                                nodes,
                            });
                            reservations_created += 1;
                            self.counters.reservations_made += 1;
                            self.counters.pass_placements += 1;
                        }
                    }
                }
                JobKind::Pilot => {
                    if mode == PassMode::Quick && !self.cfg.quick_pass_places_pilots {
                        self.settled = None;
                        continue;
                    }
                    let max_slots = self.cfg.slots_ceil(job.spec.time_limit).max(1);
                    let d_fit = pilot_fit_slots(&self.cfg, &job.spec);
                    let is_var = job.spec.min_time.is_some();
                    let Some(node) = tl_pilot.find_single_now(d_fit, FitPolicy::BestFit) else {
                        if let Some(s) = &mut self.settled {
                            s.min_failed_dfit = s.min_failed_dfit.min(d_fit);
                        }
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
                    self.counters.pass_placements += 1;
                    self.start_job(now, id, NodeList::single(node), granted, out, notes);
                }
            }
        }

        self.queue_scratch = queue.jobs;
        if mode == PassMode::Backfill {
            self.reservations = new_reservations;
        }
        self.pending
            .retain(|id| self.jobs[id.0 as usize].is_pending());
        if !self.handovers_own_their_nodes() {
            self.settled = None;
        }
        // Only an unpinned HPC job is ever given a reservation, and one
        // of those in the queue already kept the pass from settling it.
        debug_assert!(self.settled.is_none() || self.reservations.is_empty());

        SimDuration::from_millis(
            self.cfg.bf_per_job_cost.as_millis() * examined as u64
                + self.cfg.bf_var_slot_cost.as_millis() * var_slots_computed,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SlurmConfig;
    use crate::job::JobSpec;
    use proptest::prelude::*;
    use simcore::Engine;

    /// `queue` re-sorted the way `pass_queue` used to sort it on every
    /// pass (the filter in front of the sort is unchanged).
    fn sorted_as_before(sim: &ClusterSim, mut queue: Vec<JobId>) -> Vec<JobId> {
        queue.sort_unstable_by_key(|id| {
            let j = &sim.jobs[id.0 as usize];
            (
                Reverse(j.spec.priority_tier),
                Reverse(j.spec.priority),
                j.submitted,
                *id,
            )
        });
        queue
    }

    #[derive(Debug, Clone)]
    enum Step {
        Submit {
            pilot: bool,
            tier: u8,
            priority: u64,
            limit_mins: u64,
        },
        /// A pinned claim due `due_secs - 300` seconds from now (so both
        /// already-due and future claims occur).
        Pinned {
            node: u32,
            tier: u8,
            priority: u64,
            due_secs: u64,
        },
        Cancel {
            pick: usize,
        },
        /// Start a pilot on an idle node, past the queue.
        ForceStart {
            pick: usize,
            limit_mins: u64,
        },
        /// Let time pass: passes run, jobs start and end.
        Advance {
            secs: u64,
        },
    }

    fn step_strategy() -> impl Strategy<Value = Step> {
        prop_oneof![
            (any::<bool>(), 0u8..3, 0u64..3, 2u64..20).prop_map(
                |(pilot, tier, priority, limit_mins)| Step::Submit {
                    pilot,
                    tier,
                    priority,
                    limit_mins
                }
            ),
            (any::<bool>(), 0u8..3, 0u64..3, 2u64..20).prop_map(
                |(pilot, tier, priority, limit_mins)| Step::Submit {
                    pilot,
                    tier,
                    priority,
                    limit_mins
                }
            ),
            (0u32..4, 0u8..3, 0u64..3, 0u64..900).prop_map(|(node, tier, priority, due_secs)| {
                Step::Pinned {
                    node,
                    tier,
                    priority,
                    due_secs,
                }
            }),
            (0usize..64).prop_map(|pick| Step::Cancel { pick }),
            (0usize..64, 2u64..20)
                .prop_map(|(pick, limit_mins)| Step::ForceStart { pick, limit_mins }),
            (0u64..240).prop_map(|secs| Step::Advance { secs }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `submit` keeps `pending` in pass order: through submissions
        /// (several per instant, so submit times tie), cancellations,
        /// passes that start jobs and the compaction behind them, the
        /// filter-only `pass_queue` comes out as the sort left it,
        /// `pending_ids_matching` stays in submission order, and the kept
        /// pilot census equals a recount of the queue (pilots started by
        /// a pass, force-started and cancelled included).
        #[test]
        fn prop_pending_stays_in_pass_order(
            steps in proptest::collection::vec(step_strategy(), 1..80),
        ) {
            // Four nodes: most of the queue waits, some of it starts.
            let mut sim = ClusterSim::new(SlurmConfig::default(), 4, 3);
            let mut engine = Engine::new();
            let mut t = SimTime::from_mins(10);
            let mut out = Outbox::new(t);
            sim.bootstrap(t, &mut out);
            for (at, e) in out.drain() {
                engine.schedule(at, e);
            }
            for step in steps {
                let mut out = Outbox::new(t);
                match step {
                    Step::Submit { pilot, tier, priority, limit_mins } => {
                        let limit = SimDuration::from_mins(limit_mins);
                        let mut spec = if pilot {
                            JobSpec::pilot_fixed(limit, priority)
                        } else {
                            JobSpec::hpc(2, limit, limit)
                        };
                        spec.priority_tier = tier;
                        spec.priority = priority;
                        sim.submit(t, spec, &mut out);
                    }
                    Step::Pinned { node, tier, priority, due_secs } => {
                        let due = t + SimDuration::from_secs(due_secs)
                            - SimDuration::from_secs(300);
                        let limit = SimDuration::from_mins(6);
                        let mut spec =
                            JobSpec::pinned_demand(vec![NodeId(node)], due, due, limit, limit);
                        spec.priority_tier = tier;
                        spec.priority = priority;
                        sim.submit(t, spec, &mut out);
                    }
                    Step::Cancel { pick } => {
                        let ids = sim.pending_ids_matching(|_| true);
                        if !ids.is_empty() {
                            sim.cancel_pending(t, ids[pick % ids.len()]);
                        }
                    }
                    Step::ForceStart { pick, limit_mins } => {
                        let idle: Vec<u32> = (0..4).filter(|n| sim.nodes[*n as usize].is_idle()).collect();
                        if !idle.is_empty() {
                            let mut spec =
                                JobSpec::pilot_fixed(SimDuration::from_mins(limit_mins), 1);
                            spec.pinned_nodes = Some(NodeList::single(NodeId(idle[pick % idle.len()])));
                            sim.force_start(t, spec, &mut out, &mut Vec::new());
                        }
                    }
                    Step::Advance { secs } => {
                        t += SimDuration::from_secs(secs);
                        let sim = &mut sim;
                        engine.run_until(t, &mut |now, ev, out: &mut Outbox<ClusterEvent>| {
                            sim.handle(now, ev, out, &mut Vec::new());
                        });
                    }
                }
                for (at, e) in out.drain() {
                    engine.schedule(at, e);
                }
                let queue = sim.pass_queue(t).jobs;
                prop_assert_eq!(sorted_as_before(&sim, queue.clone()), queue);
                let ids = sim.pending_ids_matching(|_| true);
                prop_assert!(ids.windows(2).all(|w| w[0] < w[1]), "not in id order: {ids:?}");
                let mut recount = std::collections::BTreeMap::new();
                for j in sim.pending.iter().map(|id| &sim.jobs[id.0 as usize]) {
                    if j.is_pending() && j.spec.kind == JobKind::Pilot {
                        *recount.entry(j.spec.time_limit.as_mins()).or_insert(0usize) += 1;
                    }
                }
                let kept = sim.pending_pilots_by_limit().iter().copied();
                prop_assert_eq!(kept.filter(|(_, n)| *n > 0).collect::<std::collections::BTreeMap<_, _>>(), recount);
            }
        }
    }
}
