//! Smoke tests of the `hpc_whisk` facade: every substrate is reachable
//! and does its basic job through the re-exported paths.

use hpc_whisk::gateway::{ActionId, ActionSpec, Gateway, GatewayConfig};
use hpc_whisk::metrics::{Cdf, StepSeries};
use hpc_whisk::mq::Topic;
use hpc_whisk::sebs::{bfs, mst, pagerank, Graph, Kernel};
use hpc_whisk::simcore::{Engine, Outbox, SimDuration, SimRng, SimTime};
use hpc_whisk::workload::{HpcWorkloadModel, IdleModel, PoissonLoadGen};

#[test]
fn simcore_engine_via_facade() {
    let mut engine: Engine<u8> = Engine::new();
    engine.schedule(SimTime::from_secs(1), 0);
    let mut n = 0;
    engine.run_until(
        SimTime::from_secs(10),
        &mut |_: SimTime, _: u8, out: &mut Outbox<u8>| {
            n += 1;
            if n < 3 {
                out.after(SimDuration::from_secs(1), 0);
            }
        },
    );
    assert_eq!(n, 3);
}

#[test]
fn metrics_via_facade() {
    let mut c = Cdf::from_values([1.0, 2.0, 3.0]);
    assert_eq!(c.median(), 2.0);
    let mut s = StepSeries::new(SimTime::ZERO, 0.0);
    s.set(SimTime::from_secs(5), 2.0);
    assert!((s.time_avg(SimTime::ZERO, SimTime::from_secs(10)) - 1.0).abs() < 1e-9);
}

#[test]
fn topic_via_facade() {
    let mut t: Topic<u32> = Topic::new();
    t.produce(SimTime::ZERO, 7);
    assert_eq!(t.drain(10).next().map(|m| m.payload), Some(7));
    assert!(t.is_empty());
}

#[test]
fn sebs_kernels_via_facade() {
    let g = Graph::barabasi_albert(500, 2, 1);
    assert_eq!(bfs(&g, 0).1, 500);
    assert_eq!(mst(&g).1, 499);
    let (ranks, _) = pagerank(&g, 1e-8, 100);
    assert!((ranks.iter().sum::<f64>() - 1.0).abs() < 1e-6);
    // The kernel runner times through the facade.
    let m = hpc_whisk::sebs::measure(Kernel::Bfs, &g, 0, 3);
    assert_eq!(m.times_secs.len(), 3);
}

#[test]
fn workload_models_via_facade() {
    let mut rng = SimRng::seed_from_u64(1);
    let j = HpcWorkloadModel::prometheus().sample_job(&mut rng);
    assert!(j.nodes >= 1);
}

#[test]
fn live_gateway_via_facade() {
    // Invoker lifecycle through the capacity-lease API: the floor lease
    // of a plan compiled from an hour of the fib-day idle trace brings
    // the plane up.
    use hpc_whisk::gateway::{CapacityController, ControllerConfig, LeasePlan};
    let trace = IdleModel::fib_day().capacity_trace(
        SimDuration::from_hours(1),
        IdleModel::FIB_DAY_SEED,
        SimDuration::from_mins(10),
    );
    let gw = Gateway::new(GatewayConfig::default(), vec![ActionSpec::noop("f")]);
    let t0 = std::time::Instant::now();
    let mut ctl = CapacityController::new(
        &gw,
        LeasePlan::from_capacity_trace(&trace, 3_600.0, 6, 1),
        ControllerConfig::default(),
        t0,
    );
    ctl.poll(t0);
    let id = gw.invoke(ActionId(0), 0).unwrap().id;
    let (mut col, mut done) = (gw.collector(), Vec::new());
    gw.collect_wait(&mut col, &mut done, std::time::Duration::from_secs(5));
    assert_eq!(done.iter().map(|c| c.id).collect::<Vec<_>>(), [id]);
    let stats = ctl.finish();
    assert!(stats.grants >= 1);
    assert_eq!(gw.shutdown(), 0);
}

#[test]
fn load_harness_via_facade() {
    let gw = Gateway::new(GatewayConfig::default(), vec![ActionSpec::noop("f")]);
    gw.start_invoker();
    let arrivals = PoissonLoadGen::new(1_000.0, 1).arrivals(SimDuration::from_millis(50), 1);
    let r = hpc_whisk::gateway::run_load(
        &gw,
        &arrivals,
        &hpc_whisk::gateway::HarnessConfig {
            speedup: 0.0,
            ..Default::default()
        },
    );
    assert_eq!(r.lost(), 0);
    assert!(r.tally.completed > 0);
}
