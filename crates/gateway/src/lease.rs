//! Capacity leases for the live plane: the wall-clock schedule a
//! [`CapacityController`](crate::controller::CapacityController)
//! executes.
//!
//! A [`LeasePlan`] is the live-plane compilation of a
//! `cluster::CapacityTrace`: its grant/extend/revoke events — the one
//! `cluster::LeaseEvent`, here on wall-clock `Duration` offsets from the
//! plan's epoch — are mapped off simulated time (optionally
//! time-compressed), node counts
//! are capped to what one machine can actually run as invoker threads,
//! and an optional **floor** of pinned always-on leases keeps the plane
//! routable through full-outage stretches of the trace (the paper's
//! static-reserve escape hatch; set the floor to zero to reproduce the
//! outage instead — accepted work then waits in the fast lane for the
//! next grant).
//!
//! [`LeasePlan::from_capacity_trace`] is the one compiler of a plan; a
//! test that wants a particular event shape writes it out with
//! [`LeasePlan::new`].

use cluster::capacity::{self, CapacityTrace};
use std::time::Duration;

/// Minimum wall-clock separation enforced between one node's events
/// when time scaling collapses them (see `from_capacity_trace`).
const NODE_TICK: Duration = Duration::from_nanos(1);

/// What happens to one node's lease, in wall-clock offsets from the
/// plan's epoch: the one lease kind of `cluster::capacity` on this clock.
pub type LeaseEventKind = cluster::LeaseEventKind<Duration>;

/// One scheduled capacity event, at an offset from the plan's epoch:
/// the one lease event of `cluster::capacity` on this clock.
pub type LeaseEvent = cluster::LeaseEvent<Duration>;

/// `n` pinned floor grants on nodes `first_node..`, at the epoch, with a
/// deadline far past `horizon`: never drained by the controller's
/// headroom logic, reaped by it at finish.
pub fn floor_grants(
    first_node: u32,
    n: usize,
    horizon: Duration,
) -> impl Iterator<Item = LeaseEvent> {
    let deadline = horizon.max(Duration::from_millis(1)) * 1_000;
    (first_node..)
        .take(n)
        .map(move |node| LeaseEvent::grant(Duration::ZERO, node, deadline))
}

/// A compiled, time-sorted capacity schedule.
#[derive(Debug, Clone)]
pub struct LeasePlan {
    /// Events in the one lease order (`cluster::capacity::sort`: by
    /// `at`, then revoke < extend < grant, then node).
    pub events: Vec<LeaseEvent>,
    /// Wall-clock length of the plan.
    pub horizon: Duration,
    /// Grants dropped because the concurrent-lease cap was reached —
    /// surfaced so a capped replay is never silently thinner than its
    /// trace.
    pub capped_grants: usize,
    /// Pinned floor leases added at compile time (granted at the epoch,
    /// never revoked by the plan; the controller reaps them at finish).
    pub floor: usize,
}

impl LeasePlan {
    /// A plan of `events` over `horizon`, sorted into the one lease
    /// order and checked by `cluster::capacity::validate` (panics on a
    /// causality violation); no capped grants, no floor.
    pub fn new(mut events: Vec<LeaseEvent>, horizon: Duration) -> Self {
        capacity::sort(&mut events);
        capacity::validate(&events);
        LeasePlan {
            events,
            horizon,
            capped_grants: 0,
            floor: 0,
        }
    }

    /// Compile a simulation-time capacity trace into a wall-clock plan.
    ///
    /// `speedup` compresses the schedule (3600.0 replays an hour of
    /// trace per wall second); `max_active` caps concurrent leases to a
    /// runnable invoker-thread count (grants beyond it are dropped and
    /// counted in [`capped_grants`](LeasePlan::capped_grants), along
    /// with the dropped leases' extends and revokes); `min_active`
    /// pins that many extra always-on leases so the plane keeps a
    /// routable floor through zero-availability stretches.
    pub fn from_capacity_trace(
        trace: &CapacityTrace,
        speedup: f64,
        max_active: usize,
        min_active: usize,
    ) -> Self {
        assert!(speedup > 0.0, "speedup must be positive");
        assert!(max_active >= 1, "cap must admit at least one lease");
        use cluster::LeaseEventKind::{Extend, Grant, Revoke};
        let scale = |t: simcore::SimTime| -> Duration {
            Duration::from_secs_f64(t.since(trace.start).as_secs_f64() / speedup)
        };
        // A node's events must stay *strictly* ordered after scaling:
        // a large speedup can collapse distinct simulation times onto
        // the same wall-clock nanosecond, and the kind-ranked tie sort
        // (revokes first) would then reorder a node's grant→revoke into
        // revoke→grant. Bump by 1 ns past the node's last event.
        let mut last_at: Vec<Option<Duration>> = vec![None; trace.n_nodes];
        let mut scaled: Vec<LeaseEvent> = trace
            .events
            .iter()
            .map(|e| {
                let node = e.node as usize;
                let mut ev = e.map(scale);
                ev.at = last_at[node].map_or(ev.at, |last| ev.at.max(last + NODE_TICK));
                last_at[node] = Some(ev.at);
                if let Grant { deadline } | Extend { deadline } = &mut ev.kind {
                    // A lease ends after it starts, even when scaling
                    // collapses the two instants.
                    *deadline = (*deadline).max(ev.at + NODE_TICK);
                }
                ev
            })
            .collect();
        // The tick can move a node's event past another node's at the
        // same nanosecond, so the cap runs over the stream in the order
        // the plan emits it, not in trace order.
        capacity::sort(&mut scaled);
        // Nodes whose grant was dropped at the cap: their extends and
        // revokes are dropped too, until the revoke clears the mark.
        let mut capped: Vec<bool> = vec![false; trace.n_nodes];
        let (mut active, mut capped_grants) = (0usize, 0usize);
        let mut events = Vec::with_capacity(scaled.len());
        for e in scaled {
            let node = e.node as usize;
            match e.kind {
                Grant { .. } if active >= max_active => {
                    capped[node] = true;
                    capped_grants += 1;
                    continue;
                }
                Grant { .. } => active += 1,
                Revoke if capped[node] => {
                    capped[node] = false;
                    continue;
                }
                _ if capped[node] => continue,
                Revoke => active -= 1,
                Extend { .. } => {}
            }
            events.push(e);
        }
        // The floor leases live on the nodes after the trace's own.
        let horizon = scale(trace.end);
        events.extend(floor_grants(trace.n_nodes as u32, min_active, horizon));
        LeasePlan {
            capped_grants,
            floor: min_active,
            ..LeasePlan::new(events, horizon)
        }
    }

    /// Number of grants scheduled (including the pinned floor).
    pub fn n_grants(&self) -> usize {
        capacity::n_grants(&self.events)
    }

    /// Peak concurrently leased nodes the plan reaches.
    pub fn max_concurrent(&self) -> usize {
        capacity::max_concurrent(&self.events)
    }

    /// Lowest concurrently leased node count over the plan's span
    /// (after the first grant; the plan starts at zero by definition).
    pub fn min_concurrent_after_start(&self) -> usize {
        capacity::min_concurrent_after_start(&self.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::AvailabilityTrace;
    use simcore::{SimDuration, SimTime};
    use workload::IdleModel;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn cap_trace(per_node: Vec<Vec<(SimTime, SimTime)>>) -> CapacityTrace {
        let avail = AvailabilityTrace::from_intervals(t(0), t(1_000), per_node);
        CapacityTrace::from_availability(&avail, SimDuration::from_secs(100))
    }

    #[test]
    fn trace_compilation_scales_and_orders() {
        let cap = cap_trace(vec![vec![(t(100), t(150))], vec![(t(120), t(400))]]);
        let plan = LeasePlan::from_capacity_trace(&cap, 100.0, 8, 0);
        assert_eq!(plan.capped_grants, 0);
        assert_eq!(plan.n_grants(), 2);
        assert_eq!(plan.horizon, Duration::from_secs(10));
        // 100 s of trace per wall second.
        assert_eq!(plan.events[0].at, Duration::from_secs(1));
        match plan.events[0].kind {
            LeaseEventKind::Grant { deadline } => assert_eq!(deadline, Duration::from_secs(2)),
            ref k => panic!("expected grant, got {k:?}"),
        }
        // Monotone schedule.
        for w in plan.events.windows(2) {
            assert!(w[0].at <= w[1].at);
        }
    }

    #[test]
    fn cap_drops_whole_leases_not_just_grants() {
        // Three overlapping leases, cap 2: the third lease's grant AND
        // revoke vanish; the count never exceeds the cap and never goes
        // negative.
        let cap = cap_trace(vec![
            vec![(t(0), t(300))],
            vec![(t(10), t(310))],
            vec![(t(20), t(320))],
        ]);
        let plan = LeasePlan::from_capacity_trace(&cap, 10.0, 2, 0);
        assert_eq!(plan.capped_grants, 1);
        assert_eq!(plan.max_concurrent(), 2);
        let revokes = plan
            .events
            .iter()
            .filter(|e| matches!(e.kind, LeaseEventKind::Revoke))
            .count();
        assert_eq!(revokes, 2, "the capped lease's revoke is dropped too");
    }

    #[test]
    fn floor_pins_always_on_leases() {
        let cap = cap_trace(vec![vec![(t(100), t(200))]]);
        let plan = LeasePlan::from_capacity_trace(&cap, 10.0, 4, 2);
        assert_eq!(plan.floor, 2);
        assert_eq!(plan.n_grants(), 3);
        // Floor grants land at the epoch, before any trace lease.
        assert_eq!(plan.events[0].at, Duration::ZERO);
        assert_eq!(plan.events[1].at, Duration::ZERO);
        assert!(plan.min_concurrent_after_start() >= 2);
        // Floor deadlines sit far past the horizon.
        match plan.events[0].kind {
            LeaseEventKind::Grant { deadline } => assert!(deadline > plan.horizon * 100),
            ref k => panic!("expected grant, got {k:?}"),
        }
    }

    #[test]
    fn floor_grants_order_deterministically_with_epoch_events() {
        // A trace lease that starts at the trace epoch ties with the
        // floor grants at Duration::ZERO: grants sort after nothing
        // else is due, in node order, with no stability dependence.
        let cap = cap_trace(vec![vec![(t(0), t(100))]]);
        let plan = LeasePlan::from_capacity_trace(&cap, 10.0, 4, 2);
        let epoch: Vec<_> = plan
            .events
            .iter()
            .filter(|e| e.at == Duration::ZERO)
            .collect();
        assert_eq!(epoch.len(), 3, "trace grant + 2 floor grants at epoch");
        let nodes: Vec<u32> = epoch.iter().map(|e| e.node).collect();
        let mut sorted = nodes.clone();
        sorted.sort_unstable();
        assert_eq!(nodes, sorted, "epoch ties break by node id");
        capacity::validate(&plan.events);
    }

    #[test]
    fn extreme_speedup_keeps_per_node_causality() {
        // A speedup so large every scaled time collapses toward zero:
        // the per-node 1 ns bump must keep each node's grant → extend →
        // revoke strictly ordered (and the plan causally valid) even
        // though distinct simulation times now share wall nanoseconds.
        let avail = AvailabilityTrace::from_intervals(
            t(0),
            t(1_000),
            vec![
                vec![(t(100), t(300)), (t(400), t(600))],
                vec![(t(150), t(500))],
                vec![(t(0), t(1_000))],
            ],
        );
        let cap = CapacityTrace::from_availability(&avail, SimDuration::from_secs(50));
        let plan = LeasePlan::from_capacity_trace(&cap, 1e12, 8, 1);
        capacity::validate(&plan.events);
    }

    #[test]
    fn calibrated_days_compile_to_valid_plans_at_every_speedup_cap_and_floor() {
        // Property test over the calibrated idle models: the trace and
        // every plan compiled from it pass the shared causality check,
        // including the cap path's dropped extends and revokes when a
        // capped lease's events tie with others' at one instant.
        let (horizon, quantum) = (SimDuration::from_hours(2), SimDuration::from_mins_f64(10.0));
        for model in [IdleModel::fib_day(), IdleModel::var_day()] {
            for seed in 0..10 {
                let trace = model.capacity_trace(horizon, seed, quantum);
                capacity::validate(&trace.events);
                for speedup in [1.0, 3_600.0, 1e12] {
                    for (cap, floor) in [1, 3, 8].into_iter().flat_map(|c| [(c, 0), (c, 2)]) {
                        let plan = LeasePlan::from_capacity_trace(&trace, speedup, cap, floor);
                        capacity::validate(&plan.events);
                        assert!(plan.max_concurrent() <= cap + floor);
                        assert_eq!(
                            plan.n_grants() + plan.capped_grants,
                            trace.n_grants() + floor
                        );
                    }
                }
            }
        }
    }
}
