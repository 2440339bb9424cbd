//! The live serving plane: run actual compute — the SeBS PageRank
//! kernel — through the sharded gateway on a **lease-driven** pool of
//! invoker threads. Capacity comes and goes the way the paper's does:
//! a `CapacityController` replays a lease plan (grants with deadlines,
//! a mid-burst revoke) while the request stream flows, and no
//! invocation is lost.
//!
//! This is the drain/fast-lane protocol of §III-C on OS threads and
//! queues rather than under the simulator's virtual clock, plus the
//! pieces the DES plane models analytically: warm-container pools with
//! cold starts, deadline-aware drains, admission control, and a
//! closed-loop load harness.
//!
//! Run with: `cargo run --release --example live_faas`

use hpc_whisk::gateway::{
    books, run_load, ActionBody, ActionId, ActionSpec, CapacityController, ControllerConfig,
    Gateway, GatewayConfig, HarnessConfig, LeaseEvent, LeasePlan,
};
use hpc_whisk::sebs::{Graph, Kernel};
use hpc_whisk::simcore::SimDuration;
use hpc_whisk::workload::DiurnalLoadGen;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() {
    // Deploy "functions": PageRank on shared graphs of varying size,
    // each with a realistic cold-start penalty and keep-alive.
    let actions: Vec<ActionSpec> = (0..4u64)
        .map(|i| {
            let g = Arc::new(Graph::barabasi_albert(2_000 * (i as usize + 1), 3, i));
            ActionSpec::noop(&format!("pagerank-{}k", 2 * (i + 1)))
                .with_body(ActionBody::Kernel(Kernel::Pagerank, g))
                .with_cold_start(Duration::from_millis(5))
                .with_keepalive(Duration::from_secs(30))
        })
        .collect();
    let gw = Gateway::new(GatewayConfig::default(), actions);

    // The capacity plan: three pilot leases granted up front; node 1's
    // lease is revoked mid-burst (a prime HPC job reclaims it), the
    // other two run long enough to serve the whole demo.
    let minute = Duration::from_secs(60);
    let events = vec![
        LeaseEvent::grant(Duration::ZERO, 0, minute),
        LeaseEvent::grant(Duration::ZERO, 1, minute),
        LeaseEvent::grant(Duration::ZERO, 2, minute),
        LeaseEvent::revoke(Duration::from_millis(20), 1),
    ];
    let plan = LeasePlan::new(events, minute);
    let t0 = Instant::now();
    let mut ctl = CapacityController::new(&gw, plan, ControllerConfig::default(), t0);
    ctl.poll(t0);
    println!(
        "granted {} pilot leases behind the sharded router",
        ctl.n_routable()
    );

    let n_requests = 120u64;
    let mut accepted = 0u64;
    for i in 0..n_requests {
        gw.invoke(ActionId((i % 4) as u32), i).expect("accepted");
        accepted += 1;
        if i == 40 {
            // Replay up to the revoke event: node 1's invoker drains
            // mid-burst and its backlog takes the fast lane.
            ctl.poll(t0 + Duration::from_millis(20));
            println!("lease on node 1 revoked after 40 submissions (node reclaimed)");
        }
    }

    // One collector and its buffer read every completion.
    let (mut col, mut done) = (gw.collector(), Vec::new());
    while (done.len() as u64) < accepted {
        let got = gw.collect_wait(&mut col, &mut done, Duration::from_secs(60));
        assert!(got > 0, "no request may be lost");
    }
    let mut per_invoker = std::collections::BTreeMap::new();
    let mut cold = 0u64;
    for c in &done {
        *per_invoker.entry(c.invoker).or_insert(0u32) += 1;
        cold += c.cold as u64;
    }
    println!(
        "all {accepted} invocations completed in {:.2?} despite the revoke ({cold} cold starts)",
        t0.elapsed()
    );
    for (inv, n) in per_invoker {
        println!("  invoker {inv}: {n} executions");
    }

    // Second act: replay a compressed diurnal arrival process through
    // the closed-loop harness and report latency quantiles with the
    // per-action admitted/delayed/shed/lost breakdown.
    let arrivals = DiurnalLoadGen::new(50.0, 400.0, SimDuration::from_secs(4), 4)
        .arrivals(SimDuration::from_secs(4), 7);
    println!(
        "replaying a diurnal process: {} arrivals over 4 s (trough 50 qps, peak 400 qps)",
        arrivals.len()
    );
    let report = run_load(&gw, &arrivals, &HarnessConfig::default());
    println!("harness: {}", report.summary());
    assert_eq!(report.lost(), 0, "accepted requests are never lost");

    let stats = ctl.finish();
    println!(
        "controller: {} grants, {} revokes ({} surprise), {} deadline drains, {} reaped at finish",
        stats.grants,
        stats.revokes,
        stats.surprise_revokes,
        stats.deadline_drains,
        stats.reaped_at_finish
    );
    // Shut down and check the books on the closing scrape (gateway::books).
    let offered = n_requests + arrivals.len() as u64;
    books::close(&gw, offered).unwrap_or_else(|v| panic!("the books do not balance: {v:?}"));
    println!(
        "gateway shut down, books balanced ({} containers retired at drains)",
        gw.retired_pool_stats().drain_retired
    );
}
