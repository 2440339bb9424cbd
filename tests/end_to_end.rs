//! Cross-crate integration: the full HPC-Whisk stack (workload → cluster
//! → whisk → coverage accounting) through the public facade, asserting
//! the paper's qualitative findings on scaled-down days.

use hpc_whisk::cluster::AvailabilityTrace;
use hpc_whisk::core::{lengths, run_day, DayConfig, ManagerKind, REPLENISH_EVERY};
use hpc_whisk::simcore::{SimDuration, SimTime};
use hpc_whisk::workload::{ConstantRateLoadGen, DemandModel, IdleModel};

fn small_day() -> AvailabilityTrace {
    let mut m = IdleModel::prometheus_week();
    m.n_nodes = 120;
    m.target_avg_idle = 4.0;
    m.generate(SimDuration::from_hours(4), 17)
}

#[test]
fn fib_converts_most_of_the_idle_surface() {
    let trace = small_day();
    let mut cfg = DayConfig::fib_paper(1);
    cfg.load = None;
    let mut rep = run_day(&trace, cfg);
    let slurm = rep.slurm_level();
    // A1 of the paper: fib turns ~90% of the surface into pilots.
    assert!(
        slurm.used_share > 0.75,
        "fib coverage too low: {:.3}",
        slurm.used_share
    );
    // The clairvoyant bound is in the same band and not wildly exceeded.
    let sim = rep.simulation(lengths::A1.to_vec());
    assert!(sim.coverage() > 0.7);
    assert!(slurm.used_share <= sim.coverage() + 0.1);
    // Healthy workers cover most of the pilot surface (paper: >95%).
    let ow = rep.ow_level();
    assert!(
        ow.healthy.3 > 0.80 * slurm.pilot_avg,
        "healthy {:.2} vs pilots {:.2}",
        ow.healthy.3,
        slurm.pilot_avg
    );
}

#[test]
fn var_covers_less_than_fib_on_the_same_day() {
    let trace = small_day();
    let mut fib_cfg = DayConfig::fib_paper(2);
    fib_cfg.load = None;
    let mut var_cfg = DayConfig::var_paper(2);
    var_cfg.load = None;
    let fib = run_day(&trace, fib_cfg);
    let var = run_day(&trace, var_cfg);
    let f = fib.slurm_level().used_share;
    let v = var.slurm_level().used_share;
    assert!(
        v < f,
        "paper's headline ordering must hold: var {v:.3} vs fib {f:.3}"
    );
}

#[test]
fn pilots_never_significantly_delay_prime_demand() {
    let trace = small_day();
    let mut cfg = DayConfig::fib_paper(3);
    cfg.load = None;
    let rep = run_day(&trace, cfg);
    let d = &rep.cluster_counters.demand_delay_secs;
    assert!(d.count() > 50, "claims ran: {}", d.count());
    // §III-D: at most the grace period (3 min), plus scheduling latency.
    assert!(
        d.max().unwrap() <= 180.0 + 15.0,
        "a prime job was delayed {:.1}s",
        d.max().unwrap()
    );
    // Typically the drain finishes in seconds.
    assert!(d.mean() < 20.0, "mean delay {:.1}s", d.mean());
}

#[test]
fn faas_requests_served_with_bounded_latency() {
    let trace = small_day();
    let mut cfg = DayConfig::fib_paper(4);
    cfg.load = Some(ConstantRateLoadGen {
        qps: 2.0,
        n_functions: 25,
    });
    let report = run_day(&trace, cfg);
    let c = &report.whisk_counters;
    assert!(c.submitted >= 28_000);
    let (succ, _, _) = report.accepted_outcome_shares();
    assert!(succ > 0.9, "success of accepted = {succ:.3}");
    let lat = report.latency_success_secs;
    assert!(!lat.is_empty());
    let med = lat.median();
    // The paper's ~0.8-1.2 s ballpark for warm sleep functions.
    assert!((0.5..=2.0).contains(&med), "median latency {med:.3}s");
    // Conservation: nothing unaccounted beyond in-flight tail.
    let answered = c.success + c.failed + c.timeout + c.rejected_503;
    assert!(c.submitted - answered < 50);
}

#[test]
fn uniform_priority_ablation_changes_job_mix() {
    let trace = small_day();
    let mut a = DayConfig::fib_paper(5);
    a.load = None;
    let mut b = a.clone();
    b.manager = ManagerKind::FibUniform(lengths::A1.to_vec());
    let ra = run_day(&trace, a);
    let rb = run_day(&trace, b);
    // Both run; the longest-first variant needs no more pilots than the
    // uniform one for its coverage (greedy packs long gaps with long
    // jobs).
    assert!(ra.cluster_counters.pilots_started > 0);
    assert!(rb.cluster_counters.pilots_started > 0);
    assert!(
        ra.cluster_counters.pilots_started <= rb.cluster_counters.pilots_started + 10,
        "longest-first {} vs uniform {}",
        ra.cluster_counters.pilots_started,
        rb.cluster_counters.pilots_started
    );
}

#[test]
fn reports_are_deterministic_per_seed() {
    let trace = small_day();
    let mk = |seed| {
        let mut cfg = DayConfig::fib_paper(seed);
        cfg.load = Some(ConstantRateLoadGen {
            qps: 1.0,
            n_functions: 5,
        });
        run_day(&trace, cfg)
    };
    let a = mk(9);
    let b = mk(9);
    let c = mk(10);
    assert_eq!(a.whisk_counters.success, b.whisk_counters.success);
    assert_eq!(
        a.cluster_counters.pilots_started,
        b.cluster_counters.pilots_started
    );
    // Different seed → different realization (warm-ups, jitters).
    assert!(
        a.whisk_counters.success != c.whisk_counters.success
            || a.cluster_counters.pilots_started != c.cluster_counters.pilots_started
    );
}

#[test]
fn with_load_day_repeats_exactly_in_process() {
    // Regression: a drain used to re-fire the draining invoker's
    // running activations in `HashSet` iteration order, which differs
    // per set instance — so the paper's 10 QPS day did not even repeat
    // inside one process. Everything the run reports must now be a
    // function of (trace, config, seed) alone.
    let trace = small_day();
    let run = || {
        let r = run_day(&trace, DayConfig::fib_paper(5));
        assert!(r.whisk_counters.refired > 0, "no drain re-fired anything");
        format!(
            "{:?}\n{:?}\n{:?}",
            r.cluster_counters, r.whisk_counters, r.latency_success_secs
        )
    };
    let first = run();
    for _ in 0..2 {
        assert!(first == run(), "same (trace, config, seed), different day");
    }
}

#[test]
fn coverage_only_day_dispatches_no_event_without_work() {
    let trace = small_day();
    let mut cfg = DayConfig::fib_paper(1);
    cfg.load = None;
    let rep = run_day(&trace, cfg);
    let w = &rep.whisk_counters;
    // No request ever enters the system: every invoker polls once, on
    // its first tick, finds nothing and parks for life. The first tick
    // falls at most 230 ms (poll interval + 15 %) after registration,
    // so only an invoker registered that close to the horizon misses it.
    let ups = |before: SimTime| -> u64 {
        rep.healthy_series
            .change_points()
            .windows(2)
            .filter(|w| w[1].0 < before)
            .map(|w| (w[1].1 - w[0].1).max(0.0) as u64)
            .sum()
    };
    let (surely, at_most) = (
        ups(trace.end - SimDuration::from_millis(230)),
        ups(trace.end),
    );
    assert!(surely > 50, "invokers registered: {surely}");
    assert!(
        (surely..=at_most).contains(&w.polls),
        "{} polls for {surely}..={at_most} invokers reaching their first tick",
        w.polls
    );
    // The few polls that did not park found their invoker already
    // draining (SIGTERM inside its first 230 ms).
    assert!(w.polls_parked <= w.polls && w.polls - w.polls_parked < 5);
    assert_eq!(w.timeout_scans, 0);
    // The always-armed loops and scan of the parent commit dispatched
    // 129,899 events over this very day (same trace, same seed).
    assert!(
        rep.events_dispatched * 10 < 129_899,
        "{} events dispatched",
        rep.events_dispatched
    );
}

#[test]
fn coverage_only_day_accounts_for_every_event() {
    // One `QuickPass` per pass plus one wake-up per claim submitted
    // ahead of its start — and with that, every event of a day without
    // load has an owner in the counters. On this day (the full-size
    // week-model day the benchmark's `des_week_sched` draws) duplicate
    // pass chains used to dispatch 71,658 events against the ~45 k the
    // sum below accounts for; it is 38,146 now.
    let trace = IdleModel::prometheus_week().generate(SimDuration::from_hours(24), 7);
    let mut cfg = DayConfig::fib_paper(7);
    cfg.load = None;
    let claims = DemandModel::default().claims_for(&trace, cfg.seed);
    let submitted = claims.iter().filter(|c| c.start > trace.start).count() as u64;
    let wakeups = claims.iter().filter(|c| c.start > c.submit_at).count() as u64;
    let rep = run_day(&trace, cfg);
    let (c, w) = (&rep.cluster_counters, &rep.whisk_counters);
    let sigterms = c.pilots_preempted + c.pilots_timed_out;
    let ticks = trace.horizon().as_millis() / REPLENISH_EVERY.as_millis() + 1;
    let accounted = (c.quick_passes + wakeups)
        + c.backfill_passes
        + rep.samples.len() as u64
        + (2 * c.hpc_started + c.pilots_started) // TimeLimit, JobFinished
        + sigterms // GraceExpired
        + ticks // ManagerTick
        + submitted // SubmitClaim
        + 2 * c.pilots_started // WarmupDone, PilotExit
        + w.polls
        + c.pilots_started; // DrainComplete
    assert!(wakeups > 1_000, "claims with a wake-up: {wakeups}");
    assert!(
        rep.events_dispatched <= accounted,
        "{} events dispatched, {accounted} accounted for",
        rep.events_dispatched
    );
    // Skipping a settled pass removes its work, not its event: the day
    // dispatches and places what it did when every pass ran.
    assert_eq!(rep.events_dispatched, 38_146);
    assert_eq!(c.pass_placements, 1_523);
    assert_eq!(c.quick_passes + c.backfill_passes, 7_530);
    // Every counter of this day, recorded at the commit before PR 26:
    // the event queue's `far` side (a `BinaryHeap` since then), not its
    // wheel, pops 85 % of its events, so a change there must move none.
    assert_eq!(
        format!("{c:?}"),
        "Counters { hpc_started: 4510, hpc_completed: 2276, pilots_started: 1523, \
         pilots_preempted: 441, pilots_timed_out: 1077, pilots_node_failed: 0, \
         quick_passes: 4650, quick_passes_skipped: 2192, backfill_passes: 2880, \
         backfill_passes_skipped: 2539, reservations_made: 0, demand_delay_secs: OnlineStats { \
         n: 4510, mean: 1.9490035476718377, m2: 38057.43438994322, min: 0.0, max: 11.662 }, \
         pilot_granted_mins: OnlineStats { n: 1523, mean: 7.718975705843727, \
         m2: 255511.72160210166, min: 0.0, max: 90.0 }, wheel_nodes_reprojected: 132433, \
         pass_placements: 1523 }"
    );
    assert!(
        c.passes_skipped() >= 4_500,
        "{} quick + {} backfill passes skipped",
        c.quick_passes_skipped,
        c.backfill_passes_skipped
    );
}

#[test]
fn poll_reconstruction_roundtrips_through_facade() {
    let trace = small_day();
    let mut cfg = DayConfig::fib_paper(11);
    cfg.load = None;
    let rep = run_day(&trace, cfg);
    // The availability the poller measured roughly matches the
    // generating trace, over the same nodes and the sampled horizon.
    let measured = &rep.availability;
    assert_eq!(measured.n_nodes(), rep.n_nodes);
    assert_eq!(
        (measured.start, measured.end),
        (rep.samples[0].t, rep.samples[rep.samples.len() - 1].t)
    );
    let gen_mins = trace.total_available().as_mins_f64();
    let meas_mins = measured.total_available().as_mins_f64();
    let ratio = meas_mins / gen_mins;
    assert!(
        (0.85..=1.15).contains(&ratio),
        "measured/generated availability = {ratio:.3}"
    );
    let _ = SimTime::ZERO;
}

#[test]
fn with_load_day_matches_pinned_digest() {
    // The judge of a change that claims to leave the simulation alone
    // (a queue layout, a hasher, an allocation): every figure below was
    // recorded on the commit before PR 15 and must never move unless a
    // PR says it changes behaviour — and then it re-records them.
    // Re-recorded twice by PR 16, in order. Stage one (`pending` in pass
    // order, nodes busy past the window parked off the residue wheel —
    // pure layout): `wheel_nodes_reprojected` 14339 → 6662, the work
    // counter the park exists to move; nothing else. Stage two (at most
    // one pass-running `QuickPass` queued — a behaviour fix: passes run
    // when asked for, not on a surviving chain's ticks): every literal
    // once; `quick_passes` 346 → 321, skipped 16 → 0, `pilots_started`
    // 69 = 69, demand delay mean 0.92 → 1.02 s, max 10.92 → 10.94 s,
    // events 437,329 → 436,657.
    // Re-recorded once by PR 18 (a pass over a settled queue is counted,
    // not run): `quick_passes_skipped` 0 → 141, the new
    // `backfill_passes_skipped` reads 468 (of 480), and the work counter
    // `wheel_nodes_reprojected` 6659 → 4037 — fewer, longer sweeps, the
    // same in a debug build because the oracle that runs each skipped
    // pass anyway leaves the persistent plane alone. Nothing else.
    // `WhiskCounters::accepted` (counted where `invoke` returns `Ok`)
    // was added since; it reads `submitted - rejected_503`, and no other
    // figure moved.
    let r = run_day(&small_day(), DayConfig::fib_paper(5));
    assert_eq!(
        format!("{:?}", r.cluster_counters),
        "Counters { hpc_started: 236, hpc_completed: 116, pilots_started: 69, \
         pilots_preempted: 20, pilots_timed_out: 49, pilots_node_failed: 0, \
         quick_passes: 321, quick_passes_skipped: 141, backfill_passes: 480, \
         backfill_passes_skipped: 468, reservations_made: 0, demand_delay_secs: OnlineStats { n: 236, \
         mean: 1.0172923728813559, m2: 1358.2817148262704, min: 0.0, max: 10.941 }, \
         pilot_granted_mins: OnlineStats { n: 69, mean: 7.623188405797099, \
         m2: 9386.202898550726, min: 0.0, max: 90.0 }, wheel_nodes_reprojected: 4037, \
         pass_placements: 69 }"
    );
    assert_eq!(
        format!("{:?}", r.whisk_counters),
        "WhiskCounters { submitted: 144000, accepted: 84246, rejected_503: 59754, success: 80831, \
         failed: 2957, timeout: 458, refired: 687, moved_to_fastlane: 41, \
         warm_starts: 26480, cold_starts: 54522, drains_clean: 69, hard_deaths: 0, \
         recovered_after_death: 0, dropped_after_death: 0, polls: 60692, \
         polls_parked: 44775, timeout_scans: 8436 }"
    );
    assert_eq!(r.samples.len(), 1_376);
    assert_eq!(r.events_dispatched, 436_657);
    // Latencies are whole milliseconds; sum them as integers off the
    // CDF's support (one point per distinct value, cumulative share).
    let n = r.latency_success_secs.len();
    assert_eq!(n, 80_831);
    let (mut seen, mut sum_ms) = (0u64, 0u64);
    for (secs, share) in r.latency_success_secs.curve() {
        let upto = (share * n as f64).round() as u64;
        sum_ms += (secs * 1000.0).round() as u64 * (upto - seen);
        seen = upto;
    }
    assert_eq!((seen, sum_ms), (80_831, 243_695_357));
}
