//! Ablation studies of the design choices the paper argues for but does
//! not measure.
//!
//! 1. **Fast-lane handoff vs. stock OpenWhisk** — with the extension
//!    off, a departing worker's queued requests are lost and time out.
//! 2. **fib longest-first priority vs. uniform** — greedy long-job
//!    placement covers long gaps with fewer warm-ups.
//! 3. **Grace period length** — a grace shorter than the drain time
//!    causes hard kills and losses.
//! 4. **Backfill cadence for the var model** — slower passes directly
//!    eat coverage (the paper's §V-B2 mechanism).

use cluster::AvailabilityTrace;
use hpcwhisk_bench::section;
use hpcwhisk_core::{run_day, DayConfig, DayReport, ManagerKind};
use simcore::SimDuration;
use whisk::DynamicsMode;
use workload::{ConstantRateLoadGen, IdleModel};

fn day_trace(seed: u64) -> AvailabilityTrace {
    let mut m = IdleModel::var_day();
    m.n_nodes = 300;
    m.target_avg_idle = 5.0;
    m.forced_outage = None;
    m.generate(SimDuration::from_hours(6), seed)
}

fn loadgen() -> ConstantRateLoadGen {
    ConstantRateLoadGen {
        qps: 4.0,
        n_functions: 40,
    }
}

fn outcome_line(tag: &str, rep: &DayReport) {
    let c = &rep.whisk_counters;
    println!(
        "{tag:<28} submitted={:>6} success={:>6} failed={:>4} timeout={:>5} 503={:>5} coverage={:>5.1}%",
        c.submitted,
        c.success,
        c.failed,
        c.timeout,
        c.rejected_503,
        rep.slurm_level().used_share * 100.0
    );
}

fn main() {
    let trace = day_trace(11);

    section("Ablation 1: HPC-Whisk drain protocol vs stock OpenWhisk");
    let mut on = DayConfig::fib_paper(3);
    on.load = Some(loadgen());
    let rep_on = run_day(&trace, on.clone());
    let mut off = on.clone();
    off.whisk.mode = DynamicsMode::Baseline;
    let rep_off = run_day(&trace, off);
    outcome_line("drain+fastlane (paper)", &rep_on);
    outcome_line("baseline OpenWhisk", &rep_off);
    let lost_on = rep_on.whisk_counters.timeout;
    let lost_off = rep_off.whisk_counters.timeout;
    println!(
        "→ requests lost (timeout): {lost_off} baseline vs {lost_on} with the drain protocol ({}x)",
        if lost_on > 0 {
            lost_off / lost_on.max(1)
        } else {
            lost_off
        }
    );

    section("Ablation 2: fib longest-first priority vs uniform priority");
    let mut fib = DayConfig::fib_paper(5);
    fib.load = None;
    let mut fib_uniform = fib.clone();
    fib_uniform.manager = match &fib.manager {
        ManagerKind::Fib(l) => ManagerKind::FibUniform(l.clone()),
        other => other.clone(),
    };
    let a = run_day(&trace, fib);
    let b = run_day(&trace, fib_uniform);
    let (sa, sb) = (a.slurm_level(), b.slurm_level());
    println!(
        "longest-first: coverage {:.1}%, pilots started {}",
        sa.used_share * 100.0,
        a.cluster_counters.pilots_started
    );
    println!(
        "uniform:       coverage {:.1}%, pilots started {}",
        sb.used_share * 100.0,
        b.cluster_counters.pilots_started
    );

    section("Ablation 3: preemption grace period vs drain completeness");
    println!("grace | hard deaths | clean drains | demand delay max s");
    for grace_secs in [1u64, 5, 30, 180] {
        let mut cfg = DayConfig::fib_paper(7);
        cfg.load = Some(loadgen());
        cfg.slurm.grace_time = SimDuration::from_secs(grace_secs);
        let rep = run_day(&trace, cfg);
        println!(
            "{:>4}s | {:>11} | {:>12} | {:>18.1}",
            grace_secs,
            rep.whisk_counters.hard_deaths,
            rep.whisk_counters.drains_clean,
            rep.cluster_counters.demand_delay_secs.max().unwrap_or(0.0)
        );
    }

    section("Ablation 4: backfill cadence for the var model");
    println!("bf pass cost/job | coverage % | avg granted min");
    for cost_ms in [40u64, 450, 1_500, 3_000] {
        let mut cfg = DayConfig::var_paper(9);
        cfg.load = None;
        cfg.slurm.bf_per_job_cost = SimDuration::from_millis(cost_ms);
        let rep = run_day(&trace, cfg);
        println!(
            "{:>14}ms | {:>9.1} | {:>15.1}",
            cost_ms,
            rep.slurm_level().used_share * 100.0,
            rep.cluster_counters.pilot_granted_mins.mean()
        );
    }
}
