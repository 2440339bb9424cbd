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

use cluster::{ClusterEvent, ClusterNote, ClusterSim, Counters, JobKind, PollSample, SlurmConfig};
use hpcwhisk_bench::{quick_mode, section, Comparison};
use hpcwhisk_core::coverage;
use hpcwhisk_core::{lengths, FibManager, PilotManager, REPLENISH_EVERY};
use metrics::OnlineStats;
use rayon::prelude::*;
use simcore::{Engine, Outbox, SimDuration, SimRng, SimTime};
use workload::{BacklogDriver, HpcWorkloadModel};

#[derive(Debug, Clone, PartialEq)]
enum Ev {
    C(ClusterEvent),
    HpcTick,
    ManagerTick,
    PilotExit(cluster::JobId),
}

/// Scheduler fill-up window excluded from the reported samples.
const WARMUP_MINS: u64 = 45;

/// One closed-loop run, fully determined by `seed`.
fn run_closed_loop(seed: u64, n_nodes: usize, hours: u64) -> (Counters, Vec<PollSample>) {
    let horizon = SimTime::from_hours(hours);
    let warmup_window = SimTime::from_mins(WARMUP_MINS);

    let mut sim = ClusterSim::new(SlurmConfig::default(), n_nodes, seed);
    let model = HpcWorkloadModel::prometheus();
    let driver = BacklogDriver::new(model, n_nodes);
    let mut manager = FibManager::paper(lengths::A1.to_vec());
    let mut rng = SimRng::seed_from_u64(seed ^ 77);

    let mut engine: Engine<Ev> = Engine::new();
    {
        let mut co = Outbox::new(SimTime::ZERO);
        sim.bootstrap(SimTime::ZERO, &mut co);
        for (t, e) in co.drain() {
            engine.schedule(t, Ev::C(e));
        }
    }
    engine.schedule(SimTime::ZERO, Ev::HpcTick);
    engine.schedule(SimTime::ZERO, Ev::ManagerTick);

    let mut samples: Vec<PollSample> = Vec::new();

    engine.run_until(
        horizon,
        &mut |now: SimTime, ev: Ev, out: &mut Outbox<Ev>| {
            let mut co = Outbox::new(now);
            let mut notes: Vec<ClusterNote> = Vec::new();
            match ev {
                Ev::C(e) => sim.handle(now, e, &mut co, &mut notes),
                Ev::HpcTick => {
                    // Refresh the pending-work estimate from the queue and
                    // top the backlog up to the driver's target.
                    let mut est = 0.0;
                    sim_pending_hpc(&sim, &mut est);
                    for spec in driver.replenish(est, &mut rng) {
                        sim.submit(now, spec, &mut co);
                    }
                    out.after(SimDuration::from_mins(1), Ev::HpcTick);
                }
                Ev::ManagerTick => {
                    for spec in manager.replenish(&sim) {
                        sim.submit(now, spec, &mut co);
                    }
                    out.after(REPLENISH_EVERY, Ev::ManagerTick);
                }
                Ev::PilotExit(j) => sim.pilot_exited(now, j, &mut co, &mut notes),
            }
            for (t, e) in co.drain() {
                out.at(t, Ev::C(e));
            }
            for n in notes {
                match n {
                    ClusterNote::JobSigterm { job, .. }
                        if sim.job(job).spec.kind == JobKind::Pilot =>
                    {
                        // Invoker drains in ~2 s and exits.
                        out.after(SimDuration::from_secs(2), Ev::PilotExit(job));
                    }
                    ClusterNote::Polled(s) if now >= warmup_window => {
                        samples.push(s);
                    }
                    _ => {}
                }
            }
        },
    );

    (sim.counters().clone(), samples)
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
    let runs: Vec<(u64, Counters, Vec<PollSample>)> = seeds
        .clone()
        .into_par_iter()
        .map(|seed| {
            let (c, samples) = run_closed_loop(seed, n_nodes, hours);
            (seed, c, samples)
        })
        .collect();
    let (c, samples) = (&runs[0].1, &runs[0].2);

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

    let sl = coverage::slurm_level(samples);
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
        for (seed, rc, rs) in &runs {
            let rsl = coverage::slurm_level(rs);
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

    hpcwhisk_bench::write_scheduler_metrics_out(c, None);
}

/// Pending HPC work in node-hours (declared limits), for the backlog
/// feedback loop.
fn sim_pending_hpc(sim: &ClusterSim, est: &mut f64) {
    let total = std::cell::Cell::new(0.0f64);
    let _ = sim.pending_matching(|j| {
        if j.spec.kind == JobKind::Hpc {
            total.set(total.get() + j.spec.nodes as f64 * j.spec.time_limit.as_secs_f64() / 3600.0);
            true
        } else {
            false
        }
    });
    *est = total.get();
}
