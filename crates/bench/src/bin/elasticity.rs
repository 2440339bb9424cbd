//! The elasticity scenario (ISSUE 4): the paper's headline claim —
//! serving FaaS traffic *while* the substrate churns underneath —
//! executed end to end in the live plane.
//!
//! Two sub-scenarios, both runnable in one invocation:
//!
//! * **day replay** (`--day`, default): a day-profile availability
//!   trace from the Prometheus-calibrated idle model, compiled into a
//!   lease plan and replayed (time-compressed) by a background
//!   `CapacityController` while Poisson + diurnal load flows through
//!   the closed-loop harness. Asserts zero lost invocations and prints
//!   the per-action admitted/delayed/shed/lost breakdown plus the
//!   controller's grant/extend/drain/revoke counters.
//! * **overload** (`--overload`): the backpressure shape comparison —
//!   the same ~2x-capacity overload run through the hard-shed baseline
//!   and the token-bucket path; asserts the bucket sheds strictly less
//!   and that its delays are the typed, bounded kind.
//!
//! `--quick` runs a scaled-down version of both (the CI
//! `elasticity-churn` job). With no flags, both run at full size. The
//! exactly-once matrix under trace-driven churn at drain batch {1, 4,
//! 32} is `drain_stress`'s `trace_driven_drains_exactly_once` test.
//! `--metrics-out <path>` writes the day-replay gateway's Prometheus
//! exposition (CI greps it for shed/lease conservation invariants).
//!
//! Run with: `cargo run --release -p hpcwhisk_bench --bin elasticity [-- flags]`

use gateway::{
    run_load, run_load_with_controller, ActionBody, ActionSpec, AdmissionPolicy,
    CapacityController, ControllerConfig, Gateway, GatewayConfig, HarnessConfig, LeasePlan,
    TokenBucketCfg,
};
use simcore::SimDuration;
use std::time::{Duration, Instant};
use workload::{Arrival, DiurnalLoadGen, IdleModel, PoissonLoadGen};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let want = |flag: &str| args.iter().any(|a| a == flag);
    let all = !want("--day") && !want("--overload");

    if all || want("--day") {
        day_replay(quick);
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
