//! End-to-end scheduler scenarios for the Slurm-like cluster simulator:
//! priorities, backfill, preemption with grace, variable-length
//! extension, pinned demand claims, node failures and the poller.

use hpcwhisk_cluster::{
    AvailabilityTrace, ClusterEvent, ClusterNote, JobId, JobKind, JobOutcome, JobSpec, JobState,
    NodeId, SigtermReason, SlurmConfig,
};
use hpcwhisk_core::{lengths, offline};
use proptest::prelude::*;
use simcore::{SimDuration, SimTime};

mod common;
use common::{assert_same_observables, Harness};

fn mins(m: u64) -> SimDuration {
    SimDuration::from_mins(m)
}

fn secs(s: u64) -> SimDuration {
    SimDuration::from_secs(s)
}

fn at_min(m: u64) -> SimTime {
    SimTime::from_mins(m)
}

#[test]
fn single_hpc_job_runs_and_completes() {
    let mut h = Harness::new(4);
    let j = h.submit_at(at_min(1), JobSpec::hpc(2, mins(30), mins(10)));
    h.run_until(at_min(60));
    let start = h.started(j).expect("job should start");
    // Started within a few seconds (quick pass latency).
    assert!(
        start <= at_min(1) + SimDuration::from_secs(5),
        "start={start}"
    );
    assert_eq!(h.ended_with(j), Some(JobOutcome::Completed));
    assert_eq!(h.sim.n_idle(), 4);
    assert_eq!(h.sim.counters().hpc_started, 1);
    assert_eq!(h.sim.counters().hpc_completed, 1);
}

#[test]
fn fifo_when_resources_scarce() {
    let mut h = Harness::new(2);
    let a = h.submit_at(at_min(1), JobSpec::hpc(2, mins(10), mins(10)));
    let b = h.submit_at(at_min(1), JobSpec::hpc(2, mins(10), mins(10)));
    h.run_until(at_min(40));
    let sa = h.started(a).unwrap();
    let sb = h.started(b).unwrap();
    assert!(sb >= sa + mins(10), "b must wait for a: {sa} {sb}");
}

#[test]
fn backfill_fills_in_front_of_reservation_without_delaying_it() {
    // 4 nodes. Job A holds 2 nodes for ~30 min; wide job B (4 nodes)
    // must wait for A → gets a reservation at A's declared end. Short
    // 2-node job C (10 min) fits on the two idle nodes before B's
    // reservation and backfills; long 2-node job D (60 min) would delay
    // B and must NOT backfill in front of it.
    let mut h = Harness::new(4);
    let a = h.submit_at(at_min(0), JobSpec::hpc(2, mins(30), mins(29)));
    let b = h.submit_at(at_min(1), JobSpec::hpc(4, mins(30), mins(29)));
    let d = h.submit_at(at_min(2), JobSpec::hpc(2, mins(60), mins(59)));
    let c = h.submit_at(at_min(3), JobSpec::hpc(2, mins(10), mins(9)));
    h.run_until(at_min(180));
    let sa = h.started(a).unwrap();
    let sb = h.started(b).unwrap();
    let sc = h.started(c).unwrap();
    let sd = h.started(d).unwrap();
    assert!(sa < at_min(1));
    // B starts right when A actually ends (within scheduling latency).
    assert!(sb >= sa + mins(29) && sb <= sa + mins(31), "sb={sb}");
    // C backfilled before B started.
    assert!(sc < sb, "C should backfill: sc={sc} sb={sb}");
    assert!(sc <= at_min(4), "C starts promptly: sc={sc}");
    // D could not backfill (would overrun B's reservation).
    assert!(sd >= sb, "D must not delay B: sd={sd} sb={sb}");
}

#[test]
fn pilot_placed_on_idle_node_and_times_out() {
    let mut h = Harness::new(1);
    let p = h.submit_at(at_min(0), JobSpec::pilot_fixed(mins(4), 4));
    h.run_until(at_min(10));
    let start = h.started(p).unwrap();
    let (reason, kill_at) = h.sigterm_of(p).expect("pilot gets SIGTERM at limit");
    assert_eq!(reason, SigtermReason::TimeLimit);
    assert_eq!(kill_at, start + mins(4) + SlurmConfig::default().kill_wait);
    // No voluntary exit → SIGKILL at the grace deadline.
    assert_eq!(h.ended_with(p), Some(JobOutcome::TimedOut));
    let job = h.sim.job(p);
    match &job.state {
        JobState::Done { at, .. } => assert_eq!(*at, kill_at),
        s => panic!("unexpected state {s:?}"),
    }
}

#[test]
fn pilot_voluntary_exit_frees_node_early() {
    let mut h = Harness::new(1);
    let p = h.submit_at(at_min(0), JobSpec::pilot_fixed(mins(4), 4));
    h.run_until(at_min(5));
    let (_, kill_at) = h.sigterm_of(p).unwrap();
    // The invoker drains in 3 s and exits.
    let exit_at = at_min(4) + SimDuration::from_secs(3);
    assert!(exit_at < kill_at);
    h.pilot_exit_at(exit_at, p);
    assert_eq!(h.ended_with(p), Some(JobOutcome::TimedOut));
    assert_eq!(h.sim.n_idle(), 1);
    // The grace deadline later fires on a Done job: no double-end.
    h.run_until(at_min(10));
    let ends = h
        .notes
        .iter()
        .filter(|(_, n)| matches!(n, ClusterNote::JobEnded { job, .. } if *job == p))
        .count();
    assert_eq!(ends, 1);
}

#[test]
fn hpc_job_preempts_pilot_with_grace() {
    let mut h = Harness::new(1);
    let p = h.submit_at(at_min(0), JobSpec::pilot_fixed(mins(90), 90));
    h.run_until(at_min(2));
    assert!(h.started(p).is_some());
    // An HPC job arrives needing the only node.
    let j = h.submit_at(at_min(5), JobSpec::hpc(1, mins(10), mins(9)));
    h.run_until(at_min(6));
    let (reason, kill_at) = h.sigterm_of(p).expect("pilot preempted");
    assert_eq!(reason, SigtermReason::Preempted);
    // Grace is the 3-minute GraceTime.
    assert!(kill_at <= at_min(5) + SimDuration::from_secs(10) + mins(3));
    // Pilot drains quickly; invoker hand-off done in 2 s.
    let (_, kill_at) = h.sigterm_of(p).unwrap();
    let exit = kill_at - mins(3) + SimDuration::from_secs(2);
    h.pilot_exit_at(exit, p);
    h.run_until(at_min(30));
    assert_eq!(h.ended_with(p), Some(JobOutcome::Preempted));
    let sj = h.started(j).expect("HPC job starts after handover");
    // Delay bounded by drain time, far below grace.
    assert!(sj <= at_min(5) + SimDuration::from_secs(15), "sj={sj}");
    assert_eq!(h.ended_with(j), Some(JobOutcome::Completed));
    assert_eq!(h.sim.counters().pilots_preempted, 1);
    let delays = &h.sim.counters().demand_delay_secs;
    assert_eq!(delays.count(), 0, "unpinned jobs don't record demand delay");
}

#[test]
fn unresponsive_preempted_pilot_is_sigkilled_at_grace() {
    let mut h = Harness::new(1);
    let p = h.submit_at(at_min(0), JobSpec::pilot_fixed(mins(90), 90));
    let j = h.submit_at(at_min(5), JobSpec::hpc(1, mins(10), mins(10)));
    // Nobody calls pilot_exited: the grace deadline must fire.
    h.run_until(at_min(30));
    assert_eq!(h.ended_with(p), Some(JobOutcome::Preempted));
    let sj = h.started(j).unwrap();
    let (_, kill_at) = h.sigterm_of(p).unwrap();
    assert_eq!(sj, kill_at, "HPC job starts exactly at SIGKILL");
    assert!(sj.since(at_min(5)) <= mins(3) + SimDuration::from_secs(10));
}

#[test]
fn var_pilot_extension_limited_by_reservation() {
    // One node; a pinned demand claim is announced at minute 20. A var
    // pilot (2..120 min) placed by the backfill pass must be granted
    // only up to the reservation, not its 120-minute maximum.
    let cfg = SlurmConfig {
        quick_pass_places_pilots: false, // placement via backfill only
        ..SlurmConfig::default()
    };
    let mut h = Harness::with_config(cfg, 1);
    let _claim = h.submit_at(
        at_min(0),
        JobSpec::pinned_demand(vec![NodeId(0)], at_min(20), at_min(20), mins(30), mins(30)),
    );
    let p = h.submit_at(at_min(0), JobSpec::pilot_var(mins(2), mins(120)));
    h.run_until(at_min(15));
    let start = h.started(p).expect("var pilot placed by backfill");
    let job = h.sim.job(p);
    let granted = job.granted;
    assert!(
        granted >= mins(2) && start + granted <= at_min(20),
        "granted {granted} must fit before the reservation (start={start})"
    );
    assert!(granted >= mins(16), "extension should fill most of the gap");
}

#[test]
fn var_pilot_quick_pass_gets_minimum_only() {
    let cfg = SlurmConfig {
        quick_pass_places_pilots: true,
        // Keep backfill far away so the quick pass places the pilot.
        bf_interval: SimDuration::from_mins(30),
        ..SlurmConfig::default()
    };
    let mut h = Harness::with_config(cfg, 1);
    // Submit after t=0 so the bootstrap backfill pass has already run.
    let p = h.submit_at(at_min(1), JobSpec::pilot_var(mins(2), mins(120)));
    h.run_until(at_min(3));
    assert!(h.started(p).is_some());
    assert_eq!(h.sim.job(p).granted, mins(2));
}

#[test]
fn pinned_demand_claims_idle_node_on_time() {
    let mut h = Harness::new(2);
    let c = h.submit_at(
        at_min(0),
        JobSpec::pinned_demand(vec![NodeId(1)], at_min(10), at_min(10), mins(20), mins(15)),
    );
    h.run_until(at_min(40));
    let start = h.started(c).unwrap();
    assert!(
        start >= at_min(10) && start <= at_min(10) + SimDuration::from_secs(5),
        "claim fires at its intended start: {start}"
    );
    assert_eq!(h.ended_with(c), Some(JobOutcome::Completed));
    let d = &h.sim.counters().demand_delay_secs;
    assert_eq!(d.count(), 1);
    assert!(d.max().unwrap() <= 5.0);
}

#[test]
fn pinned_demand_preempts_overhanging_pilot() {
    // Pilot sized against the *announced* start (min 30) overhangs the
    // actual claim (min 10) → preemption, and the demand is delayed at
    // most by the grace period.
    let mut h = Harness::new(1);
    let c = h.submit_at(
        at_min(0),
        JobSpec::pinned_demand(vec![NodeId(0)], at_min(10), at_min(30), mins(20), mins(20)),
    );
    let p = h.submit_at(at_min(0), JobSpec::pilot_fixed(mins(28), 28));
    h.run_until(at_min(60));
    let sp = h.started(p).expect("pilot fits before announced start");
    assert!(sp < at_min(1));
    let (reason, _) = h.sigterm_of(p).expect("pilot preempted by the claim");
    assert_eq!(reason, SigtermReason::Preempted);
    let sc = h.started(c).unwrap();
    let delay = sc.since(at_min(10));
    assert!(
        delay <= mins(3) + SimDuration::from_secs(10),
        "demand delay {delay} must be bounded by grace"
    );
    assert_eq!(h.sim.counters().pilots_preempted, 1);
}

#[test]
fn pilot_does_not_fit_inside_announced_window() {
    // Announced claim at minute 6: a 90-minute pilot must NOT start on
    // that node; a 4-minute pilot fits in front.
    let mut h = Harness::new(1);
    h.submit_at(
        at_min(0),
        JobSpec::pinned_demand(vec![NodeId(0)], at_min(6), at_min(6), mins(20), mins(20)),
    );
    let long = h.submit_at(at_min(0), JobSpec::pilot_fixed(mins(90), 90));
    let short = h.submit_at(at_min(0), JobSpec::pilot_fixed(mins(4), 4));
    h.run_until(at_min(5));
    assert!(h.started(long).is_none(), "90-min pilot must not fit");
    assert!(h.started(short).is_some(), "4-min pilot fits the gap");
}

#[test]
fn node_failure_kills_pilot_without_sigterm() {
    let mut h = Harness::new(1);
    let p = h.submit_at(at_min(0), JobSpec::pilot_fixed(mins(90), 90));
    h.run_until(at_min(1));
    h.engine
        .schedule(at_min(2), ClusterEvent::NodeDown(NodeId(0)));
    h.engine
        .schedule(at_min(5), ClusterEvent::NodeUp(NodeId(0)));
    h.run_until(at_min(10));
    assert_eq!(h.ended_with(p), Some(JobOutcome::NodeFailed));
    assert!(h.sigterm_of(p).is_none(), "hard failure: no SIGTERM");
    assert_eq!(h.sim.counters().pilots_node_failed, 1);
    assert_eq!(h.sim.n_idle(), 1, "node returns to service");
}

#[test]
fn poller_emits_samples_with_expected_cadence() {
    let mut h = Harness::new(8);
    h.submit_at(at_min(0), JobSpec::pilot_fixed(mins(30), 30));
    h.run_until(SimTime::from_hours(1));
    let samples: Vec<_> = h
        .notes
        .iter()
        .filter_map(|(_, n)| match n {
            ClusterNote::Polled(s) => Some(*s),
            _ => None,
        })
        .collect();
    // ~10.3 s cadence over an hour → ≥ 320 samples.
    assert!(samples.len() >= 320, "samples={}", samples.len());
    let mut gaps = vec![];
    for w in samples.windows(2) {
        gaps.push(w[1].t.since(w[0].t).as_secs_f64());
    }
    let exact10 = gaps.iter().filter(|g| (**g - 10.0).abs() < 1e-9).count();
    let frac = exact10 as f64 / gaps.len() as f64;
    assert!(
        (frac - 0.7643).abs() < 0.08,
        "frac of exact 10s gaps = {frac}"
    );
    assert!(gaps.iter().all(|g| *g >= 10.0 - 1e-9 && *g <= 20.0 + 1e-9));
    // Sample content: 7 idle + 1 pilot at the start.
    let first = &samples[0];
    assert_eq!(first.n_idle() + first.n_pilot(), 8);
}

/// The reconstruction the poller's interval builder replaced, over the
/// bitsets snapshotted at every poll: probe each node in each sample; a
/// node is available (idle ∪ pilot) from an available sample until the
/// next sample where it is not, the last sample counting as unavailable.
fn scan_poll_bits(polls: &[(SimTime, Vec<u64>, Vec<u64>)], n_nodes: usize) -> AvailabilityTrace {
    let (start, end) = (polls[0].0, polls[polls.len() - 1].0);
    let per_node = (0..n_nodes)
        .map(|n| {
            let mut gaps = Vec::new();
            let mut open: Option<SimTime> = None;
            for (i, (t, idle, pilot)) in polls.iter().enumerate() {
                let avail = (idle[n / 64] | pilot[n / 64]) & (1 << (n % 64)) != 0;
                match (avail && i + 1 < polls.len(), open) {
                    (true, None) => open = Some(*t),
                    (false, Some(from)) => {
                        if *t > from {
                            gaps.push((from, *t));
                        }
                        open = None;
                    }
                    _ => {}
                }
            }
            gaps
        })
        .collect();
    AvailabilityTrace::from_intervals(start, end, per_node)
}

#[test]
fn poller_hands_over_the_trace_a_scan_of_its_samples_gives() {
    // 70 nodes (two bitset words) under churn: HPC jobs of assorted
    // widths come and go, pilots of six lengths fill what they leave,
    // some are preempted, two nodes fail and one returns.
    let mut h = Harness::new(70);
    for (m, ev) in [
        (100, ClusterEvent::NodeDown(NodeId(3))),
        (100, ClusterEvent::NodeDown(NodeId(66))),
        (115, ClusterEvent::NodeUp(NodeId(66))),
    ] {
        h.engine.schedule(at_min(m), ev);
    }
    for i in 0..48u64 {
        let limit = mins(4 + (i * 7) % 23);
        h.submit_at(
            at_min(i * 5),
            JobSpec::hpc(4 + (i % 5) as u32 * 6, limit, limit),
        );
        for k in 0..6 {
            h.submit_at(at_min(i * 5 + 1), JobSpec::pilot_fixed(mins(2 + 3 * k), k));
        }
    }
    h.run_until(SimTime::from_hours(5));

    let samples: Vec<_> = h
        .notes
        .iter()
        .filter_map(|(_, n)| match n {
            ClusterNote::Polled(s) => Some(*s),
            _ => None,
        })
        .collect();
    // One snapshot per sample, taken at the sample's instant.
    assert!(samples
        .iter()
        .map(|s| s.t)
        .eq(h.poll_bits.iter().map(|p| p.0)));
    let scan = scan_poll_bits(&h.poll_bits, 70);
    // The scenario exercises the builder: many intervals, pilots among
    // them, nodes available at the first sample and at the last.
    assert!(scan.n_intervals() > 300, "{} intervals", scan.n_intervals());
    assert!(samples.iter().filter(|s| s.n_pilot() > 0).count() > 500);
    assert!(scan
        .per_node
        .iter()
        .any(|iv| iv.first().is_some_and(|g| g.0 == scan.start)));
    assert!(scan
        .per_node
        .iter()
        .any(|iv| iv.last().is_some_and(|g| g.1 == scan.end)));
    assert!(scan.per_node[3].last().is_some_and(|g| g.1 < at_min(101)));

    let (_, built) = h.sim.into_parts();
    assert_eq!(built.start, scan.start);
    assert_eq!(built.end, scan.end);
    assert_eq!(built.per_node, scan.per_node);
    // And so the clairvoyant rows come out bit for bit the same.
    for lengths in [lengths::A1.to_vec(), lengths::c2()] {
        let cfg = offline::OfflineConfig::table1(lengths);
        assert_eq!(
            format!("{:?}", offline::simulate(&built, &cfg)),
            format!("{:?}", offline::simulate(&scan, &cfg))
        );
    }
}

#[test]
fn pilots_never_delay_hpc_reservation() {
    // 2 nodes; HPC job A (2 nodes, 20 min) runs; HPC job B (2 nodes)
    // pending with a reservation at A's end. Pilots must only fit before
    // the reservation — and B must start on time even with a stream of
    // pilot submissions.
    let mut h = Harness::new(2);
    let a = h.submit_at(at_min(0), JobSpec::hpc(2, mins(20), mins(20)));
    let b = h.submit_at(at_min(1), JobSpec::hpc(2, mins(10), mins(10)));
    for i in 0..10 {
        h.submit_at(at_min(2 + i), JobSpec::pilot_fixed(mins(90), 90));
    }
    h.run_until(at_min(60));
    let sa = h.started(a).unwrap();
    let sb = h.started(b).unwrap();
    // B starts within grace+latency of A's end even if a pilot slipped in.
    assert!(
        sb <= sa + mins(20) + mins(3) + SimDuration::from_secs(10),
        "sb={sb}"
    );
}

#[test]
fn counters_and_series_consistency_under_mixed_load() {
    let mut h = Harness::new(8);
    let mut pilots = vec![];
    for i in 0..6 {
        pilots.push(h.submit_at(at_min(i), JobSpec::pilot_fixed(mins(8), 8)));
    }
    for i in 0..4 {
        h.submit_at(at_min(2 + i), JobSpec::hpc(2, mins(15), mins(12)));
    }
    h.run_until(SimTime::from_hours(2));
    let c = h.sim.counters();
    assert_eq!(c.hpc_started, 4);
    assert_eq!(c.hpc_completed, 4);
    assert!(c.pilots_started >= 6);
    // All nodes idle at the end; series agrees.
    assert_eq!(h.sim.n_idle(), 8);
    assert_eq!(h.sim.series().idle.value_at_end(), 8.0);
    assert_eq!(h.sim.series().pilot.value_at_end(), 0.0);
    // Every started pilot eventually ended (timed out at the latest).
    for p in pilots {
        if h.started(p).is_some() {
            assert!(h.ended_with(p).is_some(), "pilot {p} must end");
        }
    }
}

/// Multi-seed fuzz: random mixes of HPC jobs and pilots must satisfy
/// global conservation invariants — every started job ends, node
/// counters return to baseline, and pilots never outlive grace.
#[test]
fn fuzz_conservation_across_seeds() {
    use simcore::SimRng;

    for seed in 0..8u64 {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut h = Harness::new(12);
        let mut jobs = vec![];
        for i in 0..40 {
            let t = at_min(rng.range_u64(0, 90));
            let spec = if rng.chance(0.5) {
                let nodes = 1 + rng.range_u64(0, 4) as u32;
                let limit = mins(2 + rng.range_u64(0, 30));
                let actual =
                    SimDuration::from_millis(rng.range_u64(60_000, limit.as_millis().max(60_001)));
                JobSpec::hpc(nodes, limit, actual)
            } else if rng.chance(0.5) {
                JobSpec::pilot_fixed(mins(2 + 2 * rng.range_u64(0, 10)), 1)
            } else {
                JobSpec::pilot_var(mins(2), mins(30))
            };
            let _ = i;
            jobs.push(h.submit_at(t, spec));
        }
        // Random pilot exits (some pilots drain voluntarily).
        h.run_until(at_min(95));
        for j in &jobs {
            if h.sim.job(*j).spec.kind == JobKind::Pilot && h.sigterm_of(*j).is_some() {
                // Voluntary exit shortly after SIGTERM for some.
                if rng.chance(0.5) {
                    let (_, kill_at) = h.sigterm_of(*j).unwrap();
                    h.pilot_exit_at(kill_at - SimDuration::from_secs(5), *j);
                }
            }
        }
        // Run far past every limit + grace.
        h.run_until(SimTime::from_hours(4));
        for j in jobs {
            let job = h.sim.job(j);
            assert!(
                matches!(job.state, JobState::Done { .. }),
                "seed {seed}: job {j} stuck in {:?}",
                job.state
            );
        }
        assert_eq!(h.sim.n_idle(), 12, "seed {seed}: nodes leaked");
        assert_eq!(h.sim.n_pilot_nodes(), 0, "seed {seed}");
        assert_eq!(h.sim.series().idle.value_at_end(), 12.0, "seed {seed}");
    }
}

// --- One `QuickPass` in flight -------------------------------------------

#[test]
fn request_on_a_quiet_cluster_runs_its_pass_at_once() {
    let mut h = Harness::new(2);
    // Long after the last pass: the pass runs at the request instant.
    let t = at_min(10) + SimDuration::from_millis(137);
    let j = h.submit_at(t, JobSpec::hpc(1, mins(5), mins(5)));
    h.run_until(at_min(11));
    assert_eq!(h.started(j), Some(t));
}

#[test]
fn requests_inside_the_rate_limit_share_one_pass() {
    let cfg = SlurmConfig {
        sched_min_interval: secs(10),
        bf_interval: SimDuration::from_hours(1), // keep backfill out of it
        ..SlurmConfig::default()
    };
    let mut h = Harness::with_config(cfg, 8);
    let t = at_min(10);
    let a = h.submit_at(t, JobSpec::hpc(1, mins(30), mins(30)));
    h.run_until(t + secs(1));
    assert_eq!(h.started(a), Some(t));
    let (passes, events) = (h.sim.counters().quick_passes, h.quick_events);
    // Three requests 3, 4 and 5 s after that pass: one pass, one event,
    // at last + sched_min_interval.
    let late: Vec<JobId> = (3..6)
        .map(|s| h.submit_at(t + secs(s), JobSpec::hpc(1, mins(30), mins(30))))
        .collect();
    h.run_until(t + secs(9));
    assert!(late.iter().all(|j| h.started(*j).is_none()));
    h.run_until(t + secs(60));
    for j in late {
        assert_eq!(h.started(j), Some(t + secs(10)));
    }
    assert_eq!(h.sim.counters().quick_passes, passes + 1);
    assert_eq!(h.quick_events, events + 1);
}

#[test]
fn due_claim_is_examined_at_its_instant_or_at_the_rate_limit() {
    let cfg = SlurmConfig {
        bf_interval: SimDuration::from_hours(1),
        ..SlurmConfig::default()
    };
    let mut h = Harness::with_config(cfg, 2);
    // Quiet cluster: the wake-up at `earliest_start` gets its pass there.
    let due = at_min(10) + SimDuration::from_millis(421);
    let c = h.submit_at(
        at_min(0),
        JobSpec::pinned_demand(vec![NodeId(0)], due, due, mins(5), mins(5)),
    );
    h.run_until(at_min(11));
    assert_eq!(h.started(c), Some(due));
    // A pass 1 s before the next claim is due: the claim waits for the
    // rate limit, not for a second wake-up.
    let due = at_min(20);
    let c = h.submit_at(
        at_min(12),
        JobSpec::pinned_demand(vec![NodeId(1)], due, due, mins(5), mins(5)),
    );
    let last = due - secs(1);
    let j = h.submit_at(last, JobSpec::hpc(1, mins(1), mins(1)));
    h.run_until(at_min(21));
    assert_eq!(h.started(j), Some(last));
    let min = SlurmConfig::default().sched_min_interval;
    assert_eq!(h.started(c), Some(last + min));
    assert_eq!(h.sim.counters().demand_delay_secs.count(), 2);
}

#[test]
fn wakeup_behind_a_queued_pass_starts_no_second_chain() {
    let cfg = SlurmConfig {
        bf_interval: SimDuration::from_hours(1),
        ..SlurmConfig::default()
    };
    let mut h = Harness::with_config(cfg, 4);
    let t = at_min(10);
    // A claim due at t + 1 s, submitted well ahead.
    let due = t + secs(1);
    let c = h.submit_at(
        at_min(1),
        JobSpec::pinned_demand(vec![NodeId(3)], due, due, mins(5), mins(5)),
    );
    // A pass at t; a request half a second later queues the next pass
    // for t + 2 s; the claim's wake-up lands in between.
    h.submit_at(t, JobSpec::hpc(1, mins(30), mins(30)));
    let (passes, events) = (h.sim.counters().quick_passes, h.quick_events);
    h.submit_at(
        t + SimDuration::from_millis(500),
        JobSpec::hpc(1, mins(30), mins(30)),
    );
    h.run_until(t + secs(30));
    assert_eq!(h.started(c), Some(t + secs(2)));
    // The pass at t, the pass at t + 2 s, and nothing after: the wake-up
    // neither queued a second pass beside the first nor left a re-arm
    // behind that runs a pass nobody asked for.
    assert_eq!(h.sim.counters().quick_passes, passes + 2);
    assert_eq!(h.quick_events, events + 3, "pass, wake-up, pass");
}

/// Over a driven day of pinned claims, pilots and plain jobs, every
/// dispatched `QuickPass` is either the one queued pass or a claim's
/// wake-up: no duplicate chains, no rate-limited re-arms.
#[test]
fn quick_pass_events_are_passes_plus_claim_wakeups() {
    use simcore::SimRng;

    for seed in 0..3u64 {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut h = Harness::new(16);
        let mut future_claims = 0u64;
        let mut t = SimTime::ZERO;
        while t < SimTime::from_mins(40) {
            t += SimDuration::from_millis(rng.range_u64(100, 1_500));
            match rng.range_u64(0, 3) {
                0 => {
                    let due = t + SimDuration::from_millis(rng.range_u64(0, 600_000));
                    future_claims += u64::from(due > t);
                    let limit = mins(2 + rng.range_u64(0, 40));
                    let node = NodeId(rng.range_u64(0, 16) as u32);
                    h.submit_at(
                        t,
                        JobSpec::pinned_demand(vec![node], due, due + mins(3), limit, limit),
                    );
                }
                1 => {
                    h.submit_at(
                        t,
                        JobSpec::pilot_fixed(mins(2 + 2 * rng.range_u64(0, 20)), 1),
                    );
                }
                _ => {
                    let limit = mins(2 + rng.range_u64(0, 30));
                    h.submit_at(
                        t,
                        JobSpec::hpc(1 + rng.range_u64(0, 3) as u32, limit, limit),
                    );
                }
            }
        }
        h.run_until(SimTime::from_hours(2));
        let c = h.sim.counters();
        assert!(c.quick_passes > 200 && future_claims > 50, "seed {seed}");
        assert!(
            h.quick_events <= c.quick_passes + future_claims,
            "seed {seed}: {} QuickPass events for {} passes and {future_claims} wake-ups",
            h.quick_events,
            c.quick_passes
        );
    }
}

// --- No pass without work: the settled-queue proof ------------------------

/// Passes of either kind that were due, and how many of them ran.
fn passes(h: &Harness) -> (u64, u64) {
    let c = h.sim.counters();
    let due = c.quick_passes + c.backfill_passes;
    (due, due - c.passes_skipped())
}

/// One node whose only idle run ends at a claim announced for minute
/// 20, and a 90-minute pilot that therefore cannot start: the queue the
/// edge tests below settle.
fn settled_on_a_claim() -> (Harness, JobId, JobId) {
    let mut h = Harness::new(1);
    let due = at_min(20);
    let claim = JobSpec::pinned_demand(vec![NodeId(0)], due, due, mins(30), mins(30));
    let claim = h.submit_at(at_min(1), claim);
    let pilot = h.submit_at(at_min(1), JobSpec::pilot_fixed(mins(90), 90));
    h.run_until(at_min(2));
    (h, claim, pilot)
}

#[test]
fn settled_cluster_skips_both_pass_kinds_and_counts_them() {
    let (mut h, _, pilot) = settled_on_a_claim();
    let (due, ran) = passes(&h);
    let skipped = |h: &Harness| {
        let c = h.sim.counters();
        (c.backfill_passes_skipped, c.quick_passes_skipped)
    };
    let (backfill, quick) = skipped(&h);
    // Eight minutes of backfill passes, and a quick pass asked for by a
    // pilot as long as the one that just failed: all counted, none run.
    h.submit_at(at_min(5), JobSpec::pilot_fixed(mins(90), 90));
    h.run_until(at_min(10));
    assert_eq!(passes(&h), (due + 16 + 1, ran));
    assert_eq!(skipped(&h), (backfill + 16, quick + 1));
    assert_eq!(h.started(pilot), None);
}

#[test]
fn node_freed_by_job_finished_makes_the_next_pass_run_and_place() {
    let mut h = Harness::new(1);
    let job = h.submit_at(at_min(1), JobSpec::hpc(1, mins(60), mins(10)));
    h.run_until(at_min(2));
    let pilot = h.submit_at(at_min(2), JobSpec::pilot_fixed(mins(30), 30));
    h.run_until(at_min(2) + secs(1));
    let (due, ran) = passes(&h);
    h.run_until(at_min(10));
    assert_eq!(passes(&h), (due + 15, ran), "busy node, settled queue");
    // `JobFinished` at minute 11 turns the node idle: the pass it asks
    // for is a real one, and the pilot starts on the spot.
    h.run_until(at_min(11) + secs(1));
    assert_eq!(h.ended_with(job), Some(JobOutcome::Completed));
    assert_eq!(h.started(pilot), Some(at_min(11)));
    assert_eq!(passes(&h).1, ran + 1);
}

#[test]
fn claim_coming_due_runs_a_pass_although_nothing_mutated() {
    let (mut h, claim, _) = settled_on_a_claim();
    let (due, ran) = passes(&h);
    h.run_until(at_min(20) - secs(1));
    assert_eq!(passes(&h), (due + 36, ran), "all skipped so far");
    assert_eq!(h.started(claim), None);
    // Nothing was submitted, cancelled or freed since minute 1; the pass
    // at the claim's `earliest_start` runs because of the time alone.
    h.run_until(at_min(20) + secs(1));
    assert_eq!(h.started(claim), Some(at_min(20)));
    assert_eq!(passes(&h).1, ran + 1);
}

#[test]
fn shorter_pilot_is_examined_longer_one_is_not() {
    let (mut h, _, _) = settled_on_a_claim();
    // 56 min is shorter than the 90 that failed: examined (and failing
    // too, 9 free slots before the claim); 90 again is not examined.
    for (at, len, runs) in [(3, 56, 1), (4, 90, 0), (5, 34, 1), (6, 56, 0)] {
        let (_, ran) = passes(&h);
        let p = h.submit_at(at_min(at), JobSpec::pilot_fixed(mins(len), len));
        h.run_until(at_min(at) + secs(1));
        assert_eq!(
            passes(&h).1 - ran,
            runs,
            "{len}-minute pilot at minute {at}"
        );
        assert_eq!(h.started(p), None);
    }
    // 8 minutes fit in front of the claim: examined and placed.
    let p = h.submit_at(at_min(7), JobSpec::pilot_fixed(mins(8), 8));
    h.run_until(at_min(7) + secs(1));
    assert_eq!(h.started(p), Some(at_min(7)));
}

#[test]
fn skipped_backfill_pass_rearms_where_a_run_one_does() {
    // Three queued pilots at 20 s each: a pass costs 60 s, twice the
    // interval, whether it walks the queue or only counts it.
    let cfg = SlurmConfig {
        bf_per_job_cost: secs(20),
        ..SlurmConfig::default()
    };
    let backfills = |reference: bool| {
        let mut l = Harness::with_config(cfg.clone(), 1);
        l.reference = reference;
        let due = at_min(30);
        let claim = JobSpec::pinned_demand(vec![NodeId(0)], due, due, mins(30), mins(30));
        l.submit_at(at_min(1), claim);
        for _ in 0..3 {
            l.submit_at(at_min(1), JobSpec::pilot_fixed(mins(90), 90));
        }
        l.run_until(at_min(10));
        let at: Vec<SimTime> = l
            .scheduled
            .iter()
            .filter(|(_, _, e)| *e == ClusterEvent::BackfillPass)
            .map(|(_, at, _)| *at)
            .collect();
        (at, l.sim.counters().backfill_passes_skipped)
    };
    let ((fast, skipped), (reference, _)) = (backfills(false), backfills(true));
    assert_eq!(fast, reference);
    assert!(fast.windows(2).skip(3).all(|w| w[1] - w[0] == secs(60)));
    assert!(skipped >= 8, "{skipped} backfill passes skipped");
}

/// The paper's fixed pilot lengths (set A1), minutes.
const A1: [u64; 9] = [2, 4, 6, 8, 14, 22, 34, 56, 90];

/// One thing that can happen to a cluster between two passes — each
/// cause that voids the settled-queue proof, and each that must not.
#[derive(Debug, Clone)]
enum Mutation {
    PilotFixed {
        len: usize,
    },
    PilotVar {
        max_mins: u64,
    },
    /// A claim on `width` nodes from `node` up, due `due_secs - 120` s
    /// from now (past, present and future), announced `slack_mins` later.
    Claim {
        node: u32,
        width: u32,
        due_secs: u64,
        slack_mins: u64,
    },
    Hpc {
        nodes: u32,
        limit_mins: u64,
    },
    Cancel {
        pick: usize,
    },
    PilotExit {
        pick: usize,
    },
    NodeDown {
        node: u32,
    },
    NodeUp {
        node: u32,
    },
    QuickPass,
    BackfillPass,
    /// Let time pass: 0–150 s, or 2–25 min (past a whole slot, so every
    /// busy mask moves).
    Wait {
        millis: u64,
    },
}

fn mutation_strategy() -> impl Strategy<Value = Mutation> {
    // (The shim's `prop_oneof!` is unweighted: pilots, claims and time
    // appear twice so that queues form and settle between the rarer
    // causes.)
    prop_oneof![
        (0usize..9).prop_map(|len| Mutation::PilotFixed { len }),
        (0usize..9).prop_map(|len| Mutation::PilotFixed { len }),
        (2u64..121).prop_map(|max_mins| Mutation::PilotVar { max_mins }),
        (0u32..6, 1u32..4, 0u64..900, 0u64..8).prop_map(|(node, width, due_secs, slack_mins)| {
            Mutation::Claim {
                node,
                width,
                due_secs,
                slack_mins,
            }
        }),
        (0u32..6, 1u32..4, 0u64..900, 0u64..8).prop_map(|(node, width, due_secs, slack_mins)| {
            Mutation::Claim {
                node,
                width,
                due_secs,
                slack_mins,
            }
        }),
        (1u32..3, 2u64..30).prop_map(|(nodes, limit_mins)| Mutation::Hpc { nodes, limit_mins }),
        (0usize..64).prop_map(|pick| Mutation::Cancel { pick }),
        (0usize..64).prop_map(|pick| Mutation::PilotExit { pick }),
        (0u32..6).prop_map(|node| Mutation::NodeDown { node }),
        (0u32..6).prop_map(|node| Mutation::NodeUp { node }),
        Just(Mutation::QuickPass),
        Just(Mutation::BackfillPass),
        (0u64..150_000).prop_map(|millis| Mutation::Wait { millis }),
        (0u64..150_000).prop_map(|millis| Mutation::Wait { millis }),
        (120_000u64..1_500_000).prop_map(|millis| Mutation::Wait { millis }),
    ]
}

/// Three pass regimes: the default; pilots placed by backfill passes
/// only, with a pass cost above the interval (the var experiment); and
/// a quick pass cut short of a queue the backfill pass walks to the end.
fn regime(which: u8) -> SlurmConfig {
    match which {
        0 => SlurmConfig::default(),
        1 => SlurmConfig {
            quick_pass_places_pilots: false,
            sched_min_interval: secs(10),
            bf_per_job_cost: SimDuration::from_millis(4_000),
            ..SlurmConfig::default()
        },
        _ => SlurmConfig {
            sched_queue_depth: 2,
            ..SlurmConfig::default()
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A sim that skips settled passes and one that runs every pass
    /// (`handle_reference`) see the same notes, schedule the same events
    /// and hold the same jobs, nodes and counters after every step of a
    /// random interleaving of everything that can void the proof and
    /// everything that must not. (In a debug build the sim's own oracle
    /// runs each skipped pass as well.)
    #[test]
    fn prop_skipping_settled_passes_changes_nothing(
        which in 0u8..3,
        steps in proptest::collection::vec(mutation_strategy(), 1..120),
    ) {
        const N: u32 = 6;
        let mut fast = Harness::with_config(regime(which), N as usize);
        let mut refr = Harness::with_config(regime(which), N as usize);
        refr.reference = true;
        let mut t = at_min(10);
        for (i, step) in steps.into_iter().enumerate() {
            for l in [&mut fast, &mut refr] {
                l.run_until(t);
                match step.clone() {
                    Mutation::PilotFixed { len } => {
                        let spec = JobSpec::pilot_fixed(mins(A1[len]), A1[len]);
                        l.call(t, |s, out, _| s.submit(t, spec, out));
                    }
                    Mutation::PilotVar { max_mins } => {
                        let spec = JobSpec::pilot_var(mins(2), mins(max_mins));
                        l.call(t, |s, out, _| s.submit(t, spec, out));
                    }
                    Mutation::Claim { node, width, due_secs, slack_mins } => {
                        let nodes = (0..width).map(|k| NodeId((node + k) % N)).collect();
                        let due = t + secs(due_secs) - secs(120);
                        let limit = mins(4 + slack_mins);
                        let spec = JobSpec::pinned_demand(
                            nodes, due, due + mins(slack_mins), limit, mins(3),
                        );
                        l.call(t, |s, out, _| s.submit(t, spec, out));
                    }
                    Mutation::Hpc { nodes, limit_mins } => {
                        let spec = JobSpec::hpc(nodes, mins(limit_mins), mins(limit_mins / 2 + 1));
                        l.call(t, |s, out, _| s.submit(t, spec, out));
                    }
                    Mutation::Cancel { pick } => {
                        let ids = l.sim.pending_ids_matching(|_| true);
                        if !ids.is_empty() {
                            l.sim.cancel_pending(t, ids[pick % ids.len()]);
                        }
                    }
                    Mutation::PilotExit { pick } => {
                        let sim = &l.sim;
                        let active: Vec<JobId> = (0..sim.n_jobs() as u64)
                            .map(JobId)
                            .filter(|j| {
                                let job = sim.job(*j);
                                job.spec.kind == JobKind::Pilot && job.is_active()
                            })
                            .collect();
                        if !active.is_empty() {
                            let j = active[pick % active.len()];
                            l.call(t, |s, out, notes| s.pilot_exited(t, j, out, notes));
                        }
                    }
                    Mutation::NodeDown { node } => {
                        l.engine.schedule(t, ClusterEvent::NodeDown(NodeId(node)));
                    }
                    Mutation::NodeUp { node } => {
                        l.engine.schedule(t, ClusterEvent::NodeUp(NodeId(node)));
                    }
                    Mutation::QuickPass => l.engine.schedule(t, ClusterEvent::QuickPass),
                    Mutation::BackfillPass => l.engine.schedule(t, ClusterEvent::BackfillPass),
                    Mutation::Wait { .. } => {}
                }
            }
            if let Mutation::Wait { millis } = step {
                t += SimDuration::from_millis(millis);
            }
            assert_same_observables(&fast, &refr, i);
        }
        for l in [&mut fast, &mut refr] {
            l.run_until(t + SimDuration::from_hours(3));
        }
        assert_same_observables(&fast, &refr, "last");
    }
}
