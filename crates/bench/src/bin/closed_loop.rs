//! Closed-loop mode: instead of replaying a calibrated idle trace, feed
//! the scheduler a *generated HPC job stream* (Fig. 2 distributions)
//! through a backlog driver and let utilization, fragmentation and
//! idleness **emerge** from the EASY backfill itself — then harvest the
//! emergent gaps with the fib pilot manager.
//!
//! This exercises the code paths the trace-driven experiments barely
//! touch: multi-node placement, future-start reservations, backfilling
//! short jobs in front of blocked wide jobs, and preemption driven by
//! genuinely unpredictable job completions.

use cluster::{PollSample, SlurmConfig};
use hpcwhisk_bench::{quick_mode, section, Comparison, DesWork};
use hpcwhisk_core::{coverage, DayConfig, DayReport, Driver, IdleSource, PilotSink, SlurmLevel};
use metrics::OnlineStats;
use rayon::prelude::*;
use simcore::{SimDuration, SimTime};

/// Scheduler fill-up window excluded from the reported samples.
const WARMUP_MINS: u64 = 45;

/// One closed-loop run, fully determined by `seed`: a generated HPC job
/// stream on `n_nodes`, harvested by the fib manager's pilots, whose
/// invokers warm up and drain through the DES FaaS plane (no client
/// load).
fn run_closed_loop(seed: u64, n_nodes: usize, hours: u64) -> DayReport {
    let idle = IdleSource::Backlog {
        n_nodes,
        horizon: SimDuration::from_hours(hours),
    };
    let cfg = DayConfig {
        slurm: SlurmConfig::default(),
        load: None,
        ..DayConfig::fib_paper(seed)
    };
    Driver::new(idle, cfg, PilotSink::Whisk).finish()
}

/// The run's Slurm-level view after the scheduler's fill-up window.
fn settled_level(rep: &DayReport) -> SlurmLevel {
    let from = SimTime::from_mins(WARMUP_MINS);
    let samples: Vec<PollSample> = rep
        .samples
        .iter()
        .filter(|s| s.t >= from)
        .copied()
        .collect();
    coverage::slurm_level(&samples)
}

fn main() {
    let (n_nodes, hours) = if quick_mode() { (200, 2) } else { (1_000, 12) };
    let seeds: Vec<u64> = if quick_mode() {
        vec![2022]
    } else {
        vec![2022, 2023, 2024]
    };

    // Independent replications across seeds, one core each (the rayon
    // fanout leaves per-seed determinism untouched).
    let runs: Vec<(u64, DayReport)> = seeds
        .clone()
        .into_par_iter()
        .map(|seed| (seed, run_closed_loop(seed, n_nodes, hours)))
        .collect();
    let rep = &runs[0].1;
    let c = &rep.cluster_counters;

    section("Closed-loop harvest: emergent idleness from a generated job stream");
    println!(
        "{n_nodes} nodes, {hours} h (first {WARMUP_MINS} min warm-up excluded), seed {}",
        seeds[0]
    );
    println!(
        "HPC jobs started {} / completed {}; backfill reservations created: {}",
        c.hpc_started, c.hpc_completed, c.reservations_made
    );
    println!(
        "pilots started {} (preempted {}, timed out {})",
        c.pilots_started, c.pilots_preempted, c.pilots_timed_out
    );

    let sl = settled_level(rep);
    let utilization = 1.0 - sl.avg_available / n_nodes as f64;
    println!(
        "emergent utilization: {:.2}% busy; {:.2} available nodes on average",
        utilization * 100.0,
        sl.avg_available
    );
    println!(
        "pilot coverage of the emergent idle surface: {:.1}%",
        sl.used_share * 100.0
    );
    println!(
        "prime-demand delay from pilots: n/a in closed loop (jobs queue normally); \
         preemptions show the safety valve worked {} times",
        c.pilots_preempted
    );

    if runs.len() > 1 {
        section("Replication stability across seeds");
        let mut util = OnlineStats::new();
        let mut cov = OnlineStats::new();
        println!("seed | utilization % | coverage % | pilots | preempted");
        for (seed, r) in &runs {
            let rsl = settled_level(r);
            let rc = &r.cluster_counters;
            let ru = (1.0 - rsl.avg_available / n_nodes as f64) * 100.0;
            println!(
                "{seed} | {ru:>13.2} | {:>10.1} | {:>6} | {:>9}",
                rsl.used_share * 100.0,
                rc.pilots_started,
                rc.pilots_preempted
            );
            util.add(ru);
            cov.add(rsl.used_share * 100.0);
        }
        println!(
            "utilization {:.2}% ± {:.2}; coverage {:.1}% ± {:.1}",
            util.mean(),
            util.stddev(),
            cov.mean(),
            cov.stddev()
        );
    }

    section("Sanity vs the paper's regime");
    let mut cmp = Comparison::new();
    cmp.add("utilization %", 99.0, utilization * 100.0);
    cmp.add_str(
        "reservations exercised",
        "yes",
        if c.reservations_made > 0 { "yes" } else { "NO" },
    );
    cmp.add_str(
        "pilots harvest emergent gaps",
        "yes",
        if sl.used_share > 0.5 { "yes" } else { "NO" },
    );
    println!("{}", cmp.render());

    let mut des = DesWork::default();
    des.absorb(rep);
    println!("{}", des.summary());
    hpcwhisk_bench::write_scheduler_metrics_out(c, Some(&des));
}
