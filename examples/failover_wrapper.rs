//! Algorithm 1 in action: the client-side wrapper that papers over the
//! cluster's no-worker windows by off-loading to a commercial cloud for
//! 60 seconds after each 503.
//!
//! We run a day whose trace includes a long full-saturation outage,
//! then replay the request timeline through the wrapper to show how
//! many calls Algorithm 1 would have diverted — the paper's §III-E
//! starvation-avoidance argument.
//!
//! Run with: `cargo run --release --example failover_wrapper`

use hpc_whisk::core::{run_day, CommercialBackend, DayConfig, FallbackWrapper, Target};
use hpc_whisk::metrics::{Outcome, Shed};
use hpc_whisk::simcore::{SimDuration, SimRng, SimTime};
use hpc_whisk::workload::{ConstantRateLoadGen, IdleModel};

fn main() {
    // A small day with a forced 40-minute outage in the middle.
    let mut model = IdleModel::var_day();
    model.n_nodes = 200;
    model.target_avg_idle = 4.0;
    model.forced_outage = Some((150, 40));
    let trace = model.generate(SimDuration::from_hours(6), 3);

    let mut cfg = DayConfig::var_paper(3);
    cfg.load = Some(ConstantRateLoadGen {
        qps: 2.0,
        n_functions: 20,
    });
    let report = run_day(&trace, cfg);

    // Replay: walk the per-minute outcome bins; any minute with 503s
    // trips the wrapper into its commercial window.
    let mut wrapper = FallbackWrapper::paper();
    let backend = CommercialBackend::default();
    let mut rng = SimRng::seed_from_u64(99);
    let mut commercial_latency = 0.0f64;
    let rejected = report.outcome_bins[Outcome::Shed(Shed::NoInvoker)].counts();
    let ok = report.outcome_bins[Outcome::Completed].counts();
    for (m, (&rejected, &ok)) in rejected.iter().zip(ok).enumerate() {
        let t = SimTime::from_mins(m as u64);
        for _ in 0..ok {
            // Calls the cluster actually served.
            let _ = wrapper.route(t);
        }
        for _ in 0..rejected {
            // Calls that hit a 503: Algorithm 1 retries commercially and
            // cools off.
            if wrapper.route(t) == Target::HpcWhisk {
                let _ = wrapper.on_503(t);
            }
            commercial_latency += backend.latency(&mut rng).as_secs_f64();
        }
    }

    println!("requests routed through Algorithm 1:");
    println!("  to HPC-Whisk:        {}", wrapper.sent_local);
    println!(
        "  to the commercial cloud: {} (503 events observed: {})",
        wrapper.sent_commercial, wrapper.seen_503
    );
    let total = wrapper.sent_local + wrapper.sent_commercial;
    println!(
        "  commercial share: {:.1}% — the cluster served the rest for free",
        wrapper.sent_commercial as f64 / total as f64 * 100.0
    );
    if wrapper.sent_commercial > 0 {
        println!(
            "  mean commercial latency: {:.0} ms",
            commercial_latency / wrapper.sent_commercial as f64 * 1000.0
        );
    }
    println!(
        "\nwithout the wrapper, {} requests would simply have failed with 503.",
        report.whisk_counters.rejected_503
    );
}
