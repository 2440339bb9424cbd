//! The elasticity scenario (ISSUE 4): the paper's headline claim —
//! serving FaaS traffic *while* the substrate churns underneath —
//! executed end to end in the live plane.
//!
//! Three sub-scenarios, all runnable in one invocation:
//!
//! * **day replay** (`--day`, default): a day-profile availability
//!   trace from the Prometheus-calibrated idle model, compiled into a
//!   lease plan and replayed (time-compressed) by a background
//!   `CapacityController` while Poisson + diurnal load flows through
//!   the closed-loop harness. Asserts zero lost invocations and prints
//!   the per-action admitted/delayed/shed/lost breakdown plus the
//!   controller's grant/extend/drain/revoke counters.
//! * **churn matrix** (`--churn-matrix [N]`): the exactly-once
//!   acceptance matrix — N iterations (default 100) of trace-driven
//!   grant/revoke churn with randomized trace seeds, each executed at
//!   drain-batch sizes 1, 4 and 32, with mixed single/burst submission
//!   and spin bodies so revocations land mid-batch. Every iteration
//!   asserts zero lost and zero duplicated invocations by id set.
//! * **overload** (`--overload`): the backpressure shape comparison —
//!   the same ~2x-capacity overload run through the hard-shed baseline
//!   and the token-bucket path; asserts the bucket sheds strictly less
//!   and that its delays are the typed, bounded kind.
//!
//! `--quick` runs a scaled-down version of all three (the CI
//! `elasticity-churn` job). With no flags, all three run at full size.
//! `--metrics-out <path>` writes the day-replay gateway's Prometheus
//! exposition (CI greps it for shed/lease conservation invariants).
//!
//! Run with: `cargo run --release -p hpcwhisk_bench --bin elasticity [-- flags]`

use gateway::{
    run_load, run_load_with_controller, ActionBody, ActionId, ActionSpec, AdmissionPolicy,
    BurstScratch, CapacityController, ControllerConfig, Gateway, GatewayConfig, HarnessConfig,
    LeasePlan, TokenBucketCfg,
};
use simcore::{SimDuration, SimRng};
use std::collections::HashSet;
use std::time::{Duration, Instant};
use workload::{Arrival, DiurnalLoadGen, IdleModel, PoissonLoadGen};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let want = |flag: &str| args.iter().any(|a| a == flag);
    let all = !want("--day") && !want("--churn-matrix") && !want("--overload");

    if all || want("--day") {
        day_replay(quick);
    }
    if all || want("--churn-matrix") {
        let n = args
            .iter()
            .position(|a| a == "--churn-matrix")
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(if quick { 15 } else { 100 });
        churn_matrix(n);
    }
    if all || want("--overload") {
        overload_shapes(quick);
    }
    println!("elasticity scenario OK");
}

/// Day-scale trace replay: availability churn from the calibrated idle
/// model against mixed Poisson + diurnal load, zero lost.
fn day_replay(quick: bool) {
    let (hours, seed) = if quick {
        (2, 7)
    } else {
        (24, IdleModel::FIB_DAY_SEED)
    };
    let trace_horizon = SimDuration::from_hours(hours);
    let trace =
        IdleModel::fib_day().capacity_trace(trace_horizon, seed, SimDuration::from_mins_f64(10.0));
    // Compress the day into a few wall seconds; cap concurrent leases
    // at a thread count a CI runner can serve, with a routable floor of
    // one (capped grants are reported, never silently dropped).
    let wall = if quick { 2.0 } else { 6.0 };
    let speedup = trace_horizon.as_secs_f64() / wall;
    let plan = LeasePlan::from_capacity_trace(&trace, speedup, 8, 1);
    println!(
        "[day] {hours} h fib-day trace: {} grants ({} capped at 8 leases), {} early revokes, replayed at {speedup:.0}x",
        plan.n_grants(),
        plan.capped_grants,
        trace.n_early_revokes(),
    );

    let gw = Gateway::new(
        GatewayConfig::default(),
        (0..8)
            .map(|i| {
                ActionSpec::noop(&format!("fn-{i}"))
                    .with_body(ActionBody::Spin(Duration::from_micros(5)))
                    .with_cold_start(Duration::from_micros(200))
            })
            .collect(),
    );
    let mut arrivals: Vec<Arrival> =
        PoissonLoadGen::new(2_000.0, 8).arrivals(SimDuration::from_secs_f64(wall * 0.9), 1);
    arrivals.extend(
        DiurnalLoadGen::new(500.0, 4_000.0, SimDuration::from_secs_f64(wall * 0.9), 8)
            .arrivals(SimDuration::from_secs_f64(wall * 0.9), 2),
    );
    arrivals.sort_by_key(|a| a.at);

    let ctl = CapacityController::new(&gw, plan, ControllerConfig::default(), Instant::now());
    let (mut report, stats) = run_load_with_controller(
        &gw,
        ctl,
        &arrivals,
        &HarnessConfig {
            stall_timeout: Duration::from_secs(30),
            ..Default::default()
        },
    );
    println!("[day] harness: {}", report.summary());
    println!(
        "[day] controller: {} grants, {} extends, {} deadline drains, {} revokes ({} surprise), {} regrants, {} floor deferrals, {} reaped at finish",
        stats.grants,
        stats.extends,
        stats.deadline_drains,
        stats.revokes,
        stats.surprise_revokes,
        stats.regrants_after_drain,
        stats.floor_deferrals,
        stats.reaped_at_finish,
    );
    assert_eq!(report.lost(), 0, "day replay lost accepted invocations");
    assert!(report.completed > 0, "day replay completed nothing");
    assert!(stats.revokes + stats.deadline_drains > 0, "no churn landed");
    hpcwhisk_bench::write_metrics_out(&gw);
    assert_eq!(gw.shutdown(), 0, "requests stranded at shutdown");
    let pools = gw.retired_pool_stats();
    assert!(pools.containers_conserved(), "container leak: {pools:?}");
    println!(
        "[day] OK: {} completed, 0 lost, {} containers retired at drains\n",
        report.completed, pools.drain_retired
    );
}

/// The acceptance matrix: exactly-once under trace-driven churn at
/// every drain-batch size, with randomized trace seeds.
fn churn_matrix(iterations: u64) {
    for &drain_batch in &[1usize, 4, 32] {
        for iter in 0..iterations {
            churn_iteration(iter, drain_batch);
        }
        println!("[matrix] drain_batch {drain_batch}: {iterations} iterations exactly-once");
    }
}

fn churn_iteration(seed: u64, drain_batch: usize) {
    let mut rng = SimRng::seed_from_u64(seed ^ 0xe1a5_71c1 ^ (drain_batch as u64) << 32);
    // A fresh 30-minute window of the calibrated week per iteration:
    // randomized trace seeds drive genuinely different grant/revoke
    // schedules.
    let trace = IdleModel::prometheus_week().capacity_trace(
        SimDuration::from_mins_f64(30.0),
        0x5eed ^ seed.wrapping_mul(0x9e37_79b9) ^ drain_batch as u64,
        SimDuration::from_mins_f64(5.0),
    );
    // Compress to ~40 ms of wall time and step it with a virtual clock.
    let plan_wall = Duration::from_millis(40);
    let speedup = SimDuration::from_mins_f64(30.0).as_secs_f64() / plan_wall.as_secs_f64();
    let plan = LeasePlan::from_capacity_trace(&trace, speedup, 6, 1);

    let gw = Gateway::new(
        GatewayConfig {
            queue_capacity: 16,
            park: Duration::from_micros(200),
            drain_batch,
            ..Default::default()
        },
        vec![
            ActionSpec::noop("noop"),
            ActionSpec::noop("spin").with_body(ActionBody::Spin(Duration::from_micros(
                20 + rng.range_u64(0, 60),
            ))),
        ],
    );
    let n_requests = 150 + rng.index(150);
    let step = plan_wall / n_requests as u32;
    let t0 = Instant::now();
    let mut ctl = CapacityController::new(
        &gw,
        plan,
        ControllerConfig {
            drain_headroom: step * 2,
            min_routable: 1,
            ..Default::default()
        },
        t0,
    );

    let mut accepted = HashSet::new();
    let mut scratch = BurstScratch::default();
    for i in 0..n_requests {
        ctl.poll(t0 + step * i as u32);
        if rng.chance(0.25) {
            let n = 2 + rng.index(10);
            let reqs: Vec<_> = (0..n)
                .map(|_| (ActionId(rng.index(2) as u32), rng.next_u64()))
                .collect();
            let mut outcomes = Vec::new();
            gw.invoke_burst(&reqs, Instant::now(), &mut outcomes, &mut scratch);
            for outcome in outcomes.into_iter().flatten() {
                assert!(accepted.insert(outcome.id), "duplicate id");
            }
        } else if let Ok(admit) = gw.invoke(ActionId(rng.index(2) as u32), rng.next_u64()) {
            assert!(accepted.insert(admit.id), "duplicate id");
        }
    }

    let (mut col, mut done) = (gw.collector(), Vec::new());
    let mut completed = HashSet::new();
    while completed.len() < accepted.len() {
        done.clear();
        if gw.collect_wait(&mut col, &mut done, Duration::from_secs(10)) == 0 {
            panic!(
                "seed {seed} batch {drain_batch}: lost {} of {} ({:?})",
                accepted.len() - completed.len(),
                accepted.len(),
                ctl.stats()
            )
        }
        for c in &done {
            assert!(
                completed.insert(c.id),
                "seed {seed} batch {drain_batch}: request {} executed twice",
                c.id
            );
        }
    }
    assert_eq!(completed, accepted, "seed {seed} batch {drain_batch}");
    ctl.finish();
    assert_eq!(gw.shutdown(), 0, "seed {seed} batch {drain_batch}");
    let pools = gw.retired_pool_stats();
    assert!(
        pools.containers_conserved(),
        "seed {seed} batch {drain_batch}: container leak: {pools:?}"
    );
}

/// Backpressure shapes at ~2x capacity: hard shed (cliff) vs token
/// bucket (typed, bounded slope).
fn overload_shapes(quick: bool) {
    let service = Duration::from_micros(200); // ~5k ops/s per invoker
    let span_ms = if quick { 300 } else { 800 };
    let arrivals = PoissonLoadGen::new(10_000.0, 1).arrivals(SimDuration::from_millis(span_ms), 17);
    let open_loop = HarnessConfig {
        speedup: 1.0,
        max_inflight: 1_000_000,
        stall_timeout: Duration::from_secs(30),
        ..Default::default()
    };
    let run = |admission: AdmissionPolicy, queue_capacity: usize| {
        let gw = Gateway::new(
            GatewayConfig {
                queue_capacity,
                admission,
                ..Default::default()
            },
            vec![ActionSpec::noop("hot").with_body(ActionBody::Spin(service))],
        );
        gw.start_invoker();
        let r = run_load(&gw, &arrivals, &open_loop);
        assert_eq!(gw.shutdown(), 0);
        r
    };

    let mut hard = run(AdmissionPolicy::HardShed, 32);
    let bucket_cfg = TokenBucketCfg {
        rate_per_invoker: 5_000.0,
        burst: 32.0,
        max_delay: Duration::from_millis(100),
    };
    let mut bucket = run(AdmissionPolicy::TokenBucket(bucket_cfg), 65_536);

    println!("[overload] hard shed : {}", hard.summary());
    println!("[overload] bucket    : {}", bucket.summary());
    assert_eq!(hard.lost() + bucket.lost(), 0, "overload lost requests");
    assert!(hard.shed > 0, "baseline not overloaded");
    assert!(
        bucket.shed < hard.shed,
        "token bucket must shed strictly less: {} vs {}",
        bucket.shed,
        hard.shed
    );
    assert!(bucket.delayed > 0, "no typed delays under overload");
    assert_eq!(
        bucket.per_action[0].shed_queue_full, 0,
        "bucket hit the backstop bound"
    );
    let bucket_p99_ms = bucket.latency_quantile(0.99) * 1e3;
    let hard_p99_ms = hard.latency_quantile(0.99) * 1e3;
    println!(
        "[overload] OK: sheds {} -> {} (-{:.0}%), {} delayed admissions, bucket p99 {bucket_p99_ms:.1} ms vs hard p99 {hard_p99_ms:.1} ms\n",
        hard.shed,
        bucket.shed,
        100.0 * (hard.shed - bucket.shed) as f64 / hard.shed.max(1) as f64,
        bucket.delayed,
    );
}
