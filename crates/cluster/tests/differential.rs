//! Differential regression test for the scheduler-pass optimizations.
//!
//! Two identical clusters process an identical randomized workload —
//! one driven by [`ClusterSim::handle`] (the persistent plane, the
//! settled-queue skip, bitset eligible lookup, bit-parallel backfill
//! search), one by [`ClusterSim::handle_reference`], which runs the
//! retained pre-optimization pass and never skips. Every observable —
//! the full timestamped note stream, job states and granted durations,
//! live reservations, counters and node tallies — must be
//! **bit-identical**: the perf work must not change a single scheduling
//! decision.

use hpcwhisk_cluster::{ClusterEvent, JobId, JobKind, JobSpec, NodeId, SlurmConfig};
use proptest::prelude::*;
use simcore::{SimDuration, SimTime};

mod common;
use common::{assert_same_observables, Harness};

/// One generated submission.
#[derive(Debug, Clone)]
enum GenJob {
    Hpc {
        nodes: u32,
        limit_mins: u64,
        actual_mins: u64,
    },
    PilotFixed {
        limit_mins: u64,
    },
    PilotVar {
        max_mins: u64,
    },
    PinnedDemand {
        node: usize,
        start_min: u64,
        announce_slack_mins: u64,
        limit_mins: u64,
        actual_mins: u64,
    },
}

fn job_strategy() -> impl Strategy<Value = GenJob> {
    prop_oneof![
        (1u32..4, 2u64..40, 1u64..40).prop_map(|(nodes, limit_mins, actual_mins)| GenJob::Hpc {
            nodes,
            limit_mins,
            actual_mins,
        }),
        (2u64..30).prop_map(|limit_mins| GenJob::PilotFixed { limit_mins }),
        (4u64..60).prop_map(|max_mins| GenJob::PilotVar { max_mins }),
        (0usize..64, 5u64..100, 0u64..25, 4u64..30, 4u64..30).prop_map(
            |(node, start_min, announce_slack_mins, limit_mins, actual_mins)| {
                GenJob::PinnedDemand {
                    node,
                    start_min,
                    announce_slack_mins,
                    limit_mins,
                    actual_mins,
                }
            }
        ),
    ]
}

fn to_spec(g: &GenJob, n_nodes: usize) -> JobSpec {
    let m = SimDuration::from_mins;
    match g {
        GenJob::Hpc {
            nodes,
            limit_mins,
            actual_mins,
        } => JobSpec::hpc(
            (*nodes).min(n_nodes as u32).max(1),
            m(*limit_mins),
            m(*actual_mins),
        ),
        GenJob::PilotFixed { limit_mins } => JobSpec::pilot_fixed(m(*limit_mins), *limit_mins),
        GenJob::PilotVar { max_mins } => JobSpec::pilot_var(m(2), m(*max_mins)),
        GenJob::PinnedDemand {
            node,
            start_min,
            announce_slack_mins,
            limit_mins,
            actual_mins,
        } => JobSpec::pinned_demand(
            vec![NodeId((*node % n_nodes) as u32)],
            SimTime::from_mins(*start_min),
            SimTime::from_mins(*start_min + *announce_slack_mins),
            m(*limit_mins),
            m(*actual_mins),
        ),
    }
}

/// Run the same generated scenario on both implementations and demand
/// bit-identical observables.
fn run_differential(
    n_nodes: usize,
    cfg: SlurmConfig,
    jobs: Vec<(u64, GenJob)>,
    node_events: Vec<(usize, u64, u64)>,
    exit_lags_secs: Vec<u64>,
) {
    let mut opt = Harness::with_config(cfg.clone(), n_nodes);
    let mut refr = Harness::with_config(cfg, n_nodes);
    refr.reference = true;

    // Node failures/repairs, scheduled up front (before the engine
    // advances past their timestamps).
    for (node, down_min, up_delta) in &node_events {
        let n = NodeId((*node % n_nodes) as u32);
        let down = SimTime::from_mins(30 + *down_min);
        let up = down + SimDuration::from_mins(1 + *up_delta);
        for h in [&mut opt, &mut refr] {
            h.engine.schedule(down, ClusterEvent::NodeDown(n));
            h.engine.schedule(up, ClusterEvent::NodeUp(n));
        }
    }
    // Submissions, time-ordered (submit_at advances the engine).
    let mut jobs = jobs;
    jobs.sort_by_key(|(t, _)| *t);
    let mut ids = Vec::new();
    for (t_min, g) in &jobs {
        let spec = to_spec(g, n_nodes);
        let t = SimTime::from_mins(*t_min);
        let a = opt.submit_at(t, spec.clone());
        let b = refr.submit_at(t, spec);
        assert_eq!(a, b);
        ids.push(a);
    }

    // Strictly after the last possible submission (240 min), so the
    // engine clock never runs backwards.
    let mid = SimTime::from_mins(260);
    opt.run_until(mid);
    refr.run_until(mid);

    // Voluntary pilot exits: for each sigterm'd pilot, exit `lag`
    // seconds after the SIGTERM (if still before the kill deadline).
    // Decisions derive from the optimized run's notes and are asserted
    // identical in the reference run first.
    let mut exits: Vec<(SimTime, JobId)> = Vec::new();
    for (i, id) in ids.iter().enumerate() {
        if opt.sim.job(*id).spec.kind != JobKind::Pilot {
            continue;
        }
        let ka = opt.sigterm_of(*id);
        assert_eq!(ka, refr.sigterm_of(*id), "sigterm divergence for {id}");
        let Some((_, kill_at)) = ka else { continue };
        let lag = exit_lags_secs[i % exit_lags_secs.len().max(1)];
        if lag == 0 {
            continue; // this pilot never exits voluntarily
        }
        let exit = kill_at - SimDuration::from_secs(lag.min(20));
        if exit > mid {
            exits.push((exit, *id));
        }
    }
    // Exits must be applied in time order (the harness advances the
    // engine to each exit instant).
    exits.sort();
    for (exit, id) in exits {
        opt.pilot_exit_at(exit, id);
        refr.pilot_exit_at(exit, id);
    }

    let end = SimTime::from_hours(8);
    opt.run_until(end);
    refr.run_until(end);

    // The perf work must not change schedules: everything observable
    // must be bit-identical.
    assert_same_observables(&opt, &refr, "end");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random mixed workloads on the default config.
    #[test]
    fn prop_optimized_pass_matches_reference(
        n_nodes in 4usize..24,
        jobs in proptest::collection::vec((0u64..240, job_strategy()), 1..40),
        node_events in proptest::collection::vec((0usize..24, 0u64..200, 0u64..40), 0..4),
        exit_lags in proptest::collection::vec(0u64..30, 1..8),
    ) {
        run_differential(n_nodes, SlurmConfig::default(), jobs, node_events, exit_lags);
    }

    /// The var-model config (backfill-only pilot placement, tight
    /// extension budget, stretched pass cost) — the paper's §V-B2
    /// machinery.
    #[test]
    fn prop_differential_var_config(
        n_nodes in 4usize..16,
        jobs in proptest::collection::vec((0u64..240, job_strategy()), 1..30),
        exit_lags in proptest::collection::vec(0u64..30, 1..8),
        budget in 4u32..40,
    ) {
        let cfg = SlurmConfig {
            quick_pass_places_pilots: false,
            var_extension_budget_slots: budget,
            sched_min_interval: SimDuration::from_secs(10),
            bf_per_job_cost: SimDuration::from_millis(1_500),
            ..SlurmConfig::default()
        };
        run_differential(n_nodes, cfg, jobs, vec![], exit_lags);
    }
}
