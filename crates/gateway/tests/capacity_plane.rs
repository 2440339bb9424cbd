//! End-to-end tests of the capacity-lease plane (ISSUE 4): the
//! Prometheus-calibrated availability process replayed against live
//! invoker threads through the `CapacityController`, warm-container
//! retirement on revoked leases, and the token-bucket admission slope
//! against the hard-shed cliff.

use gateway::{
    books, ActionBody, ActionId, ActionSpec, AdmissionPolicy, CapacityController, ControllerConfig,
    Gateway, GatewayConfig, HarnessConfig, LeaseEvent, LeasePlan, Shed, TokenBucketCfg,
};
use metrics::Outcome;
use simcore::SimDuration;
use std::time::{Duration, Instant};
use workload::{IdleModel, PoissonLoadGen};

/// Collect until `n` completions have arrived (each wait up to 10 s).
fn collect(gw: &Gateway, n: usize) {
    let (mut col, mut done) = (gw.collector(), Vec::new());
    while done.len() < n {
        let got = gw.collect_wait(&mut col, &mut done, Duration::from_secs(10));
        assert!(got > 0, "completion within 10s ({}/{n})", done.len());
    }
}

/// The paper's headline scenario, live: a day-profile availability
/// trace (time-compressed) churns the invoker pool from a background
/// controller thread while Poisson traffic flows — and nothing accepted
/// is ever lost.
#[test]
fn trace_replay_serves_traffic_through_churn() {
    // One hour of the fib-day profile at 3600x: a ~1 s wall-clock plan.
    let trace = IdleModel::fib_day().capacity_trace(
        SimDuration::from_hours(1),
        IdleModel::FIB_DAY_SEED,
        SimDuration::from_mins_f64(10.0),
    );
    let plan = LeasePlan::from_capacity_trace(&trace, 3_600.0, 6, 1);
    assert!(plan.n_grants() > 1, "the hour must carry churn");

    let gw = Gateway::new(
        GatewayConfig::default(),
        (0..4)
            .map(|i| ActionSpec::noop(&format!("fn-{i}")))
            .collect(),
    );
    let arrivals = PoissonLoadGen::new(2_000.0, 4).arrivals(SimDuration::from_millis(900), 3);
    let ctl = CapacityController::new(&gw, plan, ControllerConfig::default(), Instant::now());
    let (report, stats) =
        gateway::run_load_with_controller(&gw, ctl, &arrivals, &HarnessConfig::default());
    assert_eq!(report.lost(), 0, "churn must not lose accepted work");
    assert!(report.tally.completed > 0);
    assert!(stats.grants >= 1, "{stats:?}");
    books::close(&gw, arrivals.len() as u64).expect("books");
}

/// Satellite (ISSUE 4): containers checked out at sigterm time are
/// retired, not leaked — asserted through a full grant→revoke cycle via
/// `retired_pool_stats`.
#[test]
fn revoked_lease_retires_warm_containers() {
    let gw = Gateway::new(
        GatewayConfig::default(),
        vec![
            ActionSpec::noop("a").with_cold_start(Duration::from_micros(200)),
            ActionSpec::noop("b").with_cold_start(Duration::from_micros(200)),
        ],
    );
    let t0 = Instant::now();
    for cycle in 0..2u64 {
        // Grant one lease, warm both actions' containers on it, then
        // let the deadline drain + revoke reclaim the node.
        let node = cycle as u32;
        let ten = Duration::from_millis(10);
        let events = vec![
            LeaseEvent::grant(Duration::ZERO, node, ten),
            LeaseEvent::revoke(ten, node),
        ];
        let plan = LeasePlan::new(events, ten);
        let mut ctl = CapacityController::new(
            &gw,
            plan,
            ControllerConfig {
                drain_headroom: Duration::from_millis(1),
                min_routable: 0,
                ..Default::default()
            },
            t0,
        );
        ctl.poll(t0);
        for i in 0..8u64 {
            gw.invoke(ActionId((i % 2) as u32), i).expect("accepted");
        }
        collect(&gw, 8);
        // Containers are checked in and warm; the revoke drains the
        // invoker, which must retire them.
        ctl.poll(t0 + Duration::from_millis(10));
        assert_eq!(ctl.n_active(), 0);
        let s = ctl.finish();
        assert_eq!(s.revokes, 1);

        let pools = gw.retired_pool_stats();
        let cycles = cycle + 1;
        assert_eq!(pools.cold_starts, 2 * cycles, "one cold start per action");
        assert_eq!(pools.warm_hits, 6 * cycles);
        assert_eq!(
            pools.drain_retired,
            2 * cycles,
            "both warm containers retired at the revoke, not leaked: {pools:?}"
        );
        assert!(pools.containers_conserved(), "{pools:?}");
    }
    books::close(&gw, 16).expect("books");
}

/// Acceptance (ISSUE 4): under a sustained ~2x overload the
/// token-bucket path degrades through typed, bounded delays and sheds
/// strictly less than the hard-shed baseline.
#[test]
fn token_bucket_sheds_less_than_hard_shed_under_overload() {
    let service = Duration::from_micros(200);
    let arrivals = PoissonLoadGen::new(10_000.0, 1).arrivals(SimDuration::from_millis(400), 17);
    let open_loop = HarnessConfig {
        speedup: 1.0,
        max_inflight: 1_000_000,
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
        let r = gateway::run_load(&gw, &arrivals, &open_loop);
        books::close(&gw, arrivals.len() as u64).expect("books");
        r
    };

    // Baseline: the historical hard shed at a tight queue bound — the
    // cliff.
    let mut hard = run(AdmissionPolicy::HardShed, 32);
    // The lease-plane shape: rate tied to capacity, bounded delay
    // budget, the queue bound relaxed to a backstop.
    let mut bucket = run(
        AdmissionPolicy::TokenBucket(TokenBucketCfg {
            rate_per_invoker: 5_000.0,
            burst: 32.0,
            max_delay: Duration::from_millis(100),
        }),
        65_536,
    );

    assert_eq!(hard.lost(), 0, "{}", hard.summary());
    assert_eq!(bucket.lost(), 0, "{}", bucket.summary());
    let (hard_shed, bucket_shed) = (hard.tally.shed_total(), bucket.tally.shed_total());
    assert!(
        hard_shed > 0,
        "the overload must overwhelm the baseline: {}",
        hard.summary()
    );
    assert!(
        bucket_shed < hard_shed,
        "token bucket must shed strictly less: bucket {bucket_shed} vs hard {hard_shed}"
    );
    // The slope is typed: delayed admissions occurred, and the sheds
    // that remain are delay-budget sheds, not queue-full cliffs.
    let bucket_summary = bucket.summary();
    assert!(bucket.tally.delayed > 0, "{bucket_summary}");
    let row = &bucket.per_action[0].1;
    assert_eq!(row[Outcome::Shed(Shed::QueueFull)], 0, "{bucket_summary}");
    if bucket_shed > 0 {
        assert!(
            row[Outcome::Shed(Shed::DelayBudget)] > 0,
            "{bucket_summary}"
        );
    }
    // The one action's row is the whole run's tally.
    assert_eq!(*row, bucket.tally);
}

/// A structural shed (here: no routable invoker) refunds the shaper
/// charge, so a plane that sheds while empty accrues no phantom bucket
/// debt — the first admissions after capacity returns are free.
#[test]
fn structural_sheds_do_not_accrue_bucket_debt() {
    let gw = Gateway::new(
        GatewayConfig {
            admission: AdmissionPolicy::TokenBucket(TokenBucketCfg {
                rate_per_invoker: 1_000.0,
                burst: 4.0,
                max_delay: Duration::from_millis(5),
            }),
            ..Default::default()
        },
        vec![ActionSpec::noop("f")],
    );
    let now = Instant::now();
    // Far more refused submissions than burst + budget could absorb,
    // under a frozen clock: each charge must be returned.
    for i in 0..200u64 {
        assert_eq!(gw.invoke_at(ActionId(0), i, now), Err(Shed::NoInvoker));
    }
    gw.start_invoker();
    let admit = gw
        .invoke_at(ActionId(0), 0, now)
        .expect("no phantom debt after refunded sheds");
    assert!(
        admit.delay.is_zero(),
        "first real admission charged {:?} of leftover debt",
        admit.delay
    );
    collect(&gw, 1);
    books::close(&gw, 201).expect("books");
}

/// The typed delay-budget shed surfaces through the plain invoke path
/// too, and hard-shed planes never produce it.
#[test]
fn delay_budget_shed_is_typed_and_scoped_to_the_policy() {
    let gw = Gateway::new(
        GatewayConfig {
            admission: AdmissionPolicy::TokenBucket(TokenBucketCfg {
                rate_per_invoker: 1_000.0,
                burst: 4.0,
                max_delay: Duration::from_millis(5),
            }),
            ..Default::default()
        },
        vec![ActionSpec::noop("f")],
    );
    assert!(gw.admission_shaping());
    gw.start_invoker();
    let now = Instant::now();
    // Burst far past rate + burst + budget with a frozen timestamp: the
    // tail must shed on the delay budget (4 free + 5 budgeted + slack).
    let mut delay_sheds = 0;
    let mut max_delay_seen = Duration::ZERO;
    for i in 0..64u64 {
        match gw.invoke_at(ActionId(0), i, now) {
            Ok(admit) => max_delay_seen = max_delay_seen.max(admit.delay),
            Err(Shed::DelayBudget) => delay_sheds += 1,
            Err(other) => panic!("unexpected shed {other:?}"),
        }
    }
    assert!(delay_sheds > 40, "delay sheds = {delay_sheds}");
    assert!(
        max_delay_seen <= Duration::from_millis(5),
        "charged delay bounded by the budget: {max_delay_seen:?}"
    );
    assert_eq!(gw.totals()[Outcome::Shed(Shed::DelayBudget)], delay_sheds);
    assert!(gw.totals().delayed > 0);
    // Everything admitted still completes.
    let accepted = 64 - delay_sheds;
    collect(&gw, accepted as usize);
    books::close(&gw, 64).expect("books");
}
