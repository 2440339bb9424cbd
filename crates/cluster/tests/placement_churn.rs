//! Differential churn test for the run-length-indexed timeline.
//!
//! Drives a [`Timeline`] through randomized claim (`block_*`), release
//! (`release_slots`) and window-advance (`advance_slots`) sequences and
//! asserts after **every** step that the indexed queries answer exactly
//! like the retained reference scans, for every depth d ∈ {0, 1, …,
//! n_slots + 1} (including the degenerate d = 0 path) and both fit
//! policies. This is the proof that the incremental index maintenance —
//! bucket moves on claim/release, wholesale invalidation on advance —
//! never drifts from the masks.

use hpcwhisk_cluster::{
    ClusterEvent, ClusterSim, FitPolicy, JobId, JobKind, JobSpec, JobState, NodeId, SlurmConfig,
    Timeline,
};
use proptest::prelude::*;
use simcore::{Engine, Outbox, SimDuration, SimTime};
use std::ops::Range;

/// One generated timeline operation.
#[derive(Debug, Clone)]
enum Op {
    BlockSlots { node: usize, from: u32, len: u32 },
    BlockAll { node: usize },
    BlockUntil { node: usize, mins_ahead: u64 },
    ReleaseSlots { node: usize, from: u32, len: u32 },
    Advance { slots: u32 },
}

fn op_strategy(n_nodes: usize, n_slots: u32) -> impl Strategy<Value = Op> {
    let s = n_slots;
    // (The vendored proptest shim's prop_oneof! is unweighted; claims
    // and releases appear twice to keep the mix claim/release-heavy.)
    prop_oneof![
        (0..n_nodes, 0..s, 1..s + 1).prop_map(|(node, from, len)| Op::BlockSlots {
            node,
            from,
            len
        }),
        (0..n_nodes, 0..s, 1..s + 1).prop_map(|(node, from, len)| Op::BlockSlots {
            node,
            from,
            len
        }),
        (0..n_nodes).prop_map(|node| Op::BlockAll { node }),
        (0..n_nodes, 0u64..300).prop_map(|(node, mins_ahead)| Op::BlockUntil { node, mins_ahead }),
        (0..n_nodes, 0..s, 1..s + 1).prop_map(|(node, from, len)| Op::ReleaseSlots {
            node,
            from,
            len
        }),
        (0..n_nodes, 0..s, 1..s + 1).prop_map(|(node, from, len)| Op::ReleaseSlots {
            node,
            from,
            len
        }),
        (1..s + 1).prop_map(|slots| Op::Advance { slots }),
    ]
}

/// Every indexed query must agree with its reference scan.
fn assert_queries_match(tl: &Timeline, n_slots: u32) {
    for d in 0..=n_slots + 1 {
        assert_eq!(
            tl.find_single_now(d, FitPolicy::BestFit),
            tl.find_single_now_reference(d, FitPolicy::BestFit),
            "BestFit diverged at d={d}"
        );
        assert_eq!(
            tl.find_single_now(d, FitPolicy::FirstFit),
            tl.find_single_now_reference(d, FitPolicy::FirstFit),
            "FirstFit diverged at d={d}"
        );
        assert_eq!(
            tl.count_startable(d),
            tl.count_startable_reference(d),
            "count_startable diverged at d={d}"
        );
    }
    // A couple of find_start shapes exercise the slot-0 fast path and
    // its fallthrough into the counting sweep.
    for (k, d) in [(1, 1), (2, 3), (3, n_slots), (1, n_slots + 1)] {
        assert_eq!(
            tl.find_start(k, d, n_slots.saturating_sub(1)),
            tl.find_start_reference(k, d, n_slots.saturating_sub(1)),
            "find_start diverged at k={k} d={d}"
        );
    }
}

fn run_churn(n_nodes: usize, n_slots: u32, ops: Vec<Op>) {
    let origin = SimTime::from_mins(100);
    let res = SimDuration::from_mins(2);
    let mut tl = Timeline::new(origin, res, n_slots, n_nodes);
    // Query first so the index exists and every subsequent op takes the
    // incremental-maintenance path, not a fresh build.
    assert_queries_match(&tl, n_slots);
    // The strategies draw nodes for the widest cluster; fold them onto this one.
    let id = |node: usize| NodeId((node % n_nodes) as u32);
    for op in ops {
        match op {
            Op::BlockSlots { node, from, len } => {
                tl.block_slots(id(node), from, from.saturating_add(len));
            }
            Op::BlockAll { node } => tl.block_all(id(node)),
            Op::BlockUntil { node, mins_ahead } => {
                let t = tl.origin() + SimDuration::from_mins(mins_ahead);
                tl.block_until(id(node), t);
            }
            Op::ReleaseSlots { node, from, len } => {
                tl.release_slots(id(node), from, from.saturating_add(len));
            }
            Op::Advance { slots } => tl.advance_slots(slots),
        }
        assert_queries_match(&tl, n_slots);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Small clusters, full-size paper window (60 slots).
    #[test]
    fn prop_churn_paper_window(
        n_nodes in 1usize..12,
        ops in proptest::collection::vec(op_strategy(12, 60), 1..60),
    ) {
        run_churn(n_nodes, 60, ops);
    }

    /// Wider clusters crossing the 64-node word boundary, small window.
    #[test]
    fn prop_churn_multiword(
        n_nodes in 60usize..140,
        ops in proptest::collection::vec(op_strategy(140, 12), 1..40),
    ) {
        run_churn(n_nodes, 12, ops);
    }
}

// --- Persistent scheduling-plane differential (sim level) -----------------
//
// The timeline-level proptests above prove the run-length index; the
// suite below proves the *plane*: the long-lived pilot/hpc timelines
// that `ClusterSim` re-anchors and patches between passes instead of
// rebuilding. After every simulator step — submission (claim sources),
// pilot exit (release), node down/up (trace event), elapsed passes
// (advance + reservation diff) — [`ClusterSim::check_plane`] must find
// the persistent views bit-identical to a from-scratch rebuild.

/// One generated simulator step, applied after advancing `dt_secs`.
#[derive(Debug, Clone)]
enum SimOp {
    /// Submit a multi-node HPC job (queues → reservations when tight).
    Hpc {
        nodes: u32,
        limit_mins: u64,
        actual_mins: u64,
    },
    /// Submit a fixed-length pilot.
    PilotFixed { limit_mins: u64 },
    /// Submit a variable-length pilot.
    PilotVar { max_mins: u64 },
    /// Submit a pinned demand claim with a future announced start.
    Pinned {
        node: usize,
        ahead_mins: u64,
        slack_mins: u64,
        limit_mins: u64,
    },
    /// A pinned claim whose limit may reach past the backfill window and
    /// whose run may end at the limit or long before it.
    PinnedLong {
        node: usize,
        ahead_mins: u64,
        limit_mins: u64,
        actual_mins: u64,
    },
    /// Voluntarily exit the `pick`-th currently running pilot, if any.
    PilotExit { pick: usize },
    /// Fail a currently-up node.
    NodeDown { node: usize },
    /// Repair the `pick`-th currently-down node, if any.
    NodeUp { pick: usize },
    /// Let the engine run (quick/backfill passes, job ends, drains).
    Wait,
}

fn sim_op_strategy(n_nodes: usize) -> impl Strategy<Value = SimOp> {
    let n = n_nodes;
    prop_oneof![
        (1u32..5, 2u64..40, 1u64..40).prop_map(|(nodes, limit_mins, actual_mins)| SimOp::Hpc {
            nodes,
            limit_mins,
            actual_mins
        }),
        (2u64..30).prop_map(|limit_mins| SimOp::PilotFixed { limit_mins }),
        (4u64..60).prop_map(|max_mins| SimOp::PilotVar { max_mins }),
        (0..n, 2u64..60, 0u64..15, 4u64..30).prop_map(
            |(node, ahead_mins, slack_mins, limit_mins)| SimOp::Pinned {
                node,
                ahead_mins,
                slack_mins,
                limit_mins
            }
        ),
        (0usize..16).prop_map(|pick| SimOp::PilotExit { pick }),
        (0..n).prop_map(|node| SimOp::NodeDown { node }),
        (0usize..16).prop_map(|pick| SimOp::NodeUp { pick }),
        Just(SimOp::Wait),
        Just(SimOp::Wait),
    ]
}

/// Drive one sim through the op sequence, auditing the plane after
/// every step (and once more after a long drain).
fn run_plane_churn(n_nodes: usize, steps: Vec<(u64, SimOp)>) {
    run_plane_churn_with(SlurmConfig::default(), n_nodes, steps, 0..0);
}

/// The steps indexed by `reference` are driven by `handle_reference`, and
/// the plane is audited only after the last of them: it goes stale across
/// a run of reference passes, and the production pass must pick it up.
fn run_plane_churn_with(
    cfg: SlurmConfig,
    n_nodes: usize,
    steps: Vec<(u64, SimOp)>,
    reference: Range<usize>,
) {
    let mut sim = ClusterSim::new(cfg, n_nodes, 7);
    let mut engine = Engine::new();
    let mut t = SimTime::ZERO;
    {
        let mut out = Outbox::new(t);
        sim.bootstrap(t, &mut out);
        for (at, e) in out.drain() {
            engine.schedule(at, e);
        }
    }
    let mut pilots: Vec<JobId> = Vec::new();
    let mut down: Vec<NodeId> = Vec::new();

    for (i, (dt_secs, op)) in steps.into_iter().enumerate() {
        let handle = if reference.contains(&i) {
            ClusterSim::handle_reference
        } else {
            ClusterSim::handle
        };
        t += SimDuration::from_secs(dt_secs);
        {
            let sim = &mut sim;
            engine.run_until(t, &mut |now, ev, out: &mut Outbox<ClusterEvent>| {
                handle(sim, now, ev, out, &mut Vec::new());
            });
        }
        let mut out = Outbox::new(t);
        let mut notes = Vec::new();
        match op {
            SimOp::Hpc {
                nodes,
                limit_mins,
                actual_mins,
            } => {
                let spec = JobSpec::hpc(
                    nodes.min(n_nodes as u32).max(1),
                    SimDuration::from_mins(limit_mins),
                    SimDuration::from_mins(actual_mins),
                );
                sim.submit(t, spec, &mut out);
            }
            SimOp::PilotFixed { limit_mins } => {
                let spec = JobSpec::pilot_fixed(SimDuration::from_mins(limit_mins), limit_mins);
                let id = sim.submit(t, spec, &mut out);
                pilots.push(id);
            }
            SimOp::PilotVar { max_mins } => {
                let spec =
                    JobSpec::pilot_var(SimDuration::from_mins(2), SimDuration::from_mins(max_mins));
                let id = sim.submit(t, spec, &mut out);
                pilots.push(id);
            }
            SimOp::Pinned {
                node,
                ahead_mins,
                slack_mins,
                limit_mins,
            } => {
                let start = t + SimDuration::from_mins(ahead_mins);
                let spec = JobSpec::pinned_demand(
                    vec![NodeId((node % n_nodes) as u32)],
                    start,
                    start + SimDuration::from_mins(slack_mins),
                    SimDuration::from_mins(limit_mins),
                    SimDuration::from_mins(limit_mins.max(2) - 1),
                );
                sim.submit(t, spec, &mut out);
            }
            SimOp::PinnedLong {
                node,
                ahead_mins,
                limit_mins,
                actual_mins,
            } => {
                let start = t + SimDuration::from_mins(ahead_mins);
                let spec = JobSpec::pinned_demand(
                    vec![NodeId((node % n_nodes) as u32)],
                    start,
                    start,
                    SimDuration::from_mins(limit_mins),
                    SimDuration::from_mins(actual_mins),
                );
                sim.submit(t, spec, &mut out);
            }
            SimOp::PilotExit { pick } => {
                let running: Vec<JobId> = pilots
                    .iter()
                    .copied()
                    .filter(|id| {
                        sim.job(*id).spec.kind == JobKind::Pilot
                            && matches!(sim.job(*id).state, JobState::Running { .. })
                    })
                    .collect();
                if !running.is_empty() {
                    sim.pilot_exited(t, running[pick % running.len()], &mut out, &mut notes);
                }
            }
            SimOp::NodeDown { node } => {
                let n = NodeId((node % n_nodes) as u32);
                if !down.contains(&n) {
                    down.push(n);
                    handle(&mut sim, t, ClusterEvent::NodeDown(n), &mut out, &mut notes);
                }
            }
            SimOp::NodeUp { pick } => {
                if !down.is_empty() {
                    let n = down.remove(pick % down.len());
                    handle(&mut sim, t, ClusterEvent::NodeUp(n), &mut out, &mut notes);
                }
            }
            SimOp::Wait => {}
        }
        for (at, e) in out.drain() {
            engine.schedule(at, e);
        }
        // The audit: persistent plane ≡ fresh rebuild, bit for bit; and
        // the poll sample's maintained bitsets ≡ a node-table scan.
        if !reference.contains(&i) || i + 1 == reference.end {
            sim.check_plane(t);
        }
        sim.check_poll_bits();
    }

    // Drain the tail (timeouts, drains, repairs) and audit once more.
    let end = t + SimDuration::from_hours(3);
    {
        let sim = &mut sim;
        engine.run_until(end, &mut |now, ev, out: &mut Outbox<ClusterEvent>| {
            let mut notes = Vec::new();
            sim.handle(now, ev, out, &mut notes);
        });
    }
    sim.check_plane(end);
    sim.check_poll_bits();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomized multi-pass persistence: the plane must match a fresh
    /// rebuild after every claim/release/advance/trace/reservation step.
    #[test]
    fn prop_persistent_plane_matches_fresh_build(
        n_nodes in 4usize..24,
        steps in proptest::collection::vec((0u64..150, sim_op_strategy(24)), 1..48),
    ) {
        run_plane_churn(n_nodes, steps);
    }
}

/// Ops whose HPC and pinned limits reach far past the 120-minute window
/// (every limit in [`sim_op_strategy`] ends inside it), with runs that
/// end at the limit (`actual_mins` ≥ limit) or early — so nodes are
/// parked beyond the window, admitted as it advances, and released and
/// re-let while a parked entry still names them.
fn long_sim_op_strategy(n_nodes: usize) -> impl Strategy<Value = SimOp> {
    let n = n_nodes;
    prop_oneof![
        (1u32..4, 100u64..400, 1u64..400).prop_map(|(nodes, limit_mins, actual_mins)| {
            SimOp::Hpc {
                nodes,
                limit_mins,
                actual_mins,
            }
        }),
        (1u32..4, 2u64..400).prop_map(|(nodes, limit_mins)| SimOp::Hpc {
            nodes,
            limit_mins,
            actual_mins: 400
        }),
        (0..n, 0u64..30, 100u64..400, 1u64..400).prop_map(
            |(node, ahead_mins, limit_mins, actual_mins)| SimOp::PinnedLong {
                node,
                ahead_mins,
                limit_mins,
                actual_mins
            }
        ),
        (2u64..30).prop_map(|limit_mins| SimOp::PilotFixed { limit_mins }),
        (4u64..60).prop_map(|max_mins| SimOp::PilotVar { max_mins }),
        (0usize..16).prop_map(|pick| SimOp::PilotExit { pick }),
        (0..n).prop_map(|node| SimOp::NodeDown { node }),
        (0usize..16).prop_map(|pick| SimOp::NodeUp { pick }),
        Just(SimOp::Wait),
        Just(SimOp::Wait),
    ]
}

/// Step lengths in seconds: mostly inside one slot, some of a few slots,
/// some longer than the whole window (wheel wrap, full sweep, mass
/// admission from the park).
fn long_dt_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..150, 0u64..150, 180u64..600, 7_800u64..12_000]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The twin of `prop_persistent_plane_matches_fresh_build` for nodes
    /// busy past the window. With `sparse_backfill` the 30 s backfill
    /// chain is out of the way, so the plane anchor itself jumps by the
    /// long steps instead of crawling through them.
    #[test]
    fn prop_parked_plane_matches_fresh_build(
        n_nodes in 4usize..24,
        sparse_backfill in any::<bool>(),
        steps in proptest::collection::vec((long_dt_strategy(), long_sim_op_strategy(24)), 1..48),
    ) {
        let mut cfg = SlurmConfig::default();
        if sparse_backfill {
            cfg.bf_interval = SimDuration::from_hours(6);
        }
        run_plane_churn_with(cfg, n_nodes, steps, 0..0);
    }
}

/// What happens to nodes while the reference pass drives: pilot exits,
/// failures, repairs, and time for passes to run.
fn transition_strategy(n_nodes: usize) -> impl Strategy<Value = SimOp> {
    prop_oneof![
        (0usize..16).prop_map(|pick| SimOp::PilotExit { pick }),
        (0..n_nodes).prop_map(|node| SimOp::NodeDown { node }),
        (0usize..16).prop_map(|pick| SimOp::NodeUp { pick }),
        Just(SimOp::Wait),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A sim that switches from `handle` to `handle_reference` and back
    /// keeps its plane coherent: production passes under churn, then
    /// reference passes while nodes fail, come back and lose their pilots
    /// (every transition marks its node dirty, whichever pass runs), the
    /// audit, then production passes again, audited after each.
    #[test]
    fn prop_plane_stays_coherent_across_reference_passes(
        n_nodes in 4usize..24,
        before in proptest::collection::vec((0u64..150, sim_op_strategy(24)), 1..24),
        during in proptest::collection::vec((0u64..150, transition_strategy(24)), 2..12),
        after in proptest::collection::vec((0u64..150, sim_op_strategy(24)), 1..24),
    ) {
        let reference = before.len()..before.len() + during.len();
        let steps = before
            .into_iter()
            .chain(during)
            .chain(after)
            .collect();
        run_plane_churn_with(SlurmConfig::default(), n_nodes, steps, reference);
    }
}

/// The exact workload the perf probe and criterion bench measure
/// (`Timeline::run_deterministic_churn` — one shared definition, so the
/// measured shape and the tested shape cannot drift apart), pinned here
/// so the probe can never silently measure a panicking loop: a
/// 2,239-node timeline, claims via BestFit pops, periodic releases and
/// advances.
#[test]
fn deterministic_churn_like_the_probe() {
    let mut tl = Timeline::new(SimTime::ZERO, SimDuration::from_mins(2), 60, 2_239);
    let placed = tl.run_deterministic_churn(5_000);
    assert!(placed > 2_000, "churn must mostly place: {placed}");
    // Cross-check the final state against the reference scans.
    for d in 0..=61 {
        assert_eq!(
            tl.find_single_now(d, FitPolicy::BestFit),
            tl.find_single_now_reference(d, FitPolicy::BestFit)
        );
        assert_eq!(tl.count_startable(d), tl.count_startable_reference(d));
    }
}

/// Same pin for the FirstFit flavour of the churn probe, now that
/// FirstFit carries its own lowest-populated-bucket hint instead of the
/// O(words) bucket-union walk.
#[test]
fn deterministic_churn_firstfit_matches_reference() {
    let mut tl = Timeline::new(SimTime::ZERO, SimDuration::from_mins(2), 60, 2_239);
    let placed = tl.run_deterministic_churn_with(5_000, FitPolicy::FirstFit);
    assert!(placed > 2_000, "churn must mostly place: {placed}");
    for d in 0..=61 {
        assert_eq!(
            tl.find_single_now(d, FitPolicy::FirstFit),
            tl.find_single_now_reference(d, FitPolicy::FirstFit),
            "FirstFit diverged at d={d}"
        );
        assert_eq!(tl.count_startable(d), tl.count_startable_reference(d));
    }
}
