//! Table II + Fig. 5 (§V-B1, §V-C): the fib-model experiment day.
//!
//! Runs a 24-hour trace-driven day on a 2,239-node cluster with the fib
//! pilot manager (set A1) and the 10 QPS / 100-function responsiveness
//! load, then prints:
//!
//! * Table II — Simulation vs Slurm-level vs OpenWhisk-level;
//! * Fig. 5a — worker/idle counts over time (hourly averages);
//! * Fig. 5b — per-minute request outcomes (hourly aggregates);
//! * Fig. 5c — CDFs of idle / pilot / available node counts;
//! * a paper-vs-measured comparison of the headline numbers.

use hpcwhisk_bench::{quick_mode, section, Comparison};
use hpcwhisk_core::{lengths, report, run_day, DayConfig};
use metrics::Cdf;
use simcore::{SimDuration, SimTime};
use workload::IdleModel;

fn main() {
    let quick = quick_mode();
    let (hours, model) = if quick {
        let mut m = IdleModel::fib_day();
        m.n_nodes = 200;
        m.target_avg_idle = 6.0;
        (3, m)
    } else {
        (24, IdleModel::fib_day())
    };
    let seed = IdleModel::FIB_DAY_SEED;
    let trace = model.generate(SimDuration::from_hours(hours), seed);
    eprintln!(
        "generated fib-day trace: {} nodes, {} gaps, {:.0} node-min available",
        trace.n_nodes(),
        trace.n_intervals(),
        trace.total_available().as_mins_f64()
    );

    let cfg = DayConfig::fib_paper(seed);
    let mut rep = run_day(&trace, cfg);

    section("Table II: fib job manager");
    let sim = rep.simulation(lengths::A1.to_vec());
    let slurm = rep.slurm_level();
    let ow = rep.ow_level();
    println!(
        "{}",
        report::render_day_table("(fib day)", &sim, &slurm, &ow)
    );

    section("Fig 5a: workers and idle nodes over time (hourly averages)");
    let (from, to) = rep.window;
    println!("hour | healthy workers | idle nodes");
    let mut t = from;
    while t < to {
        let t2 = (t + SimDuration::from_hours(1)).min_time(to);
        println!(
            "{:>4} | {:>15.2} | {:>10.2}",
            t.as_hours_f64() as u64,
            rep.healthy_series.time_avg(t, t2),
            rep.idle_series.time_avg(t, t2),
        );
        t = t2;
    }

    section("Fig 5b: request outcomes over time (hourly sums)");
    println!("hour | success | failed | lost(timeout) | 503");
    let n_hours = ((to - from).as_mins() as usize).div_ceil(60);
    for h in 0..n_hours {
        let range = h * 60..((h + 1) * 60).min(rep.success_bins.counts().len());
        let s: u64 = rep.success_bins.counts()[range.clone()].iter().sum();
        let f: u64 = rep.failed_bins.counts()[range.clone()].iter().sum();
        let l: u64 = rep.timeout_bins.counts()[range.clone()].iter().sum();
        let r: u64 = rep.rejected_bins.counts()[range].iter().sum();
        println!("{h:>4} | {s:>7} | {f:>6} | {l:>13} | {r:>4}");
    }

    section("Fig 5c: node-count CDFs (Slurm-level)");
    let mut idle = Cdf::new();
    let mut pilot = Cdf::new();
    let mut avail = Cdf::new();
    for s in &rep.samples {
        idle.add(s.n_idle() as f64);
        pilot.add(s.n_pilot() as f64);
        avail.add((s.n_idle() + s.n_pilot()) as f64);
    }
    println!("percentile | idle | OpenWhisk (pilot) | originally-idle");
    for p in [0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
        println!(
            "{:>10} | {:>4} | {:>17} | {:>15}",
            format!("{:.0}%", p * 100.0),
            idle.quantile(p),
            pilot.quantile(p),
            avail.quantile(p)
        );
    }

    section("Responsiveness summary (§V-C)");
    let acc = rep.acceptance_rate();
    let (succ, fail, to_share) = rep.accepted_outcome_shares();
    let med_rt = if rep.latency_success_secs.is_empty() {
        f64::NAN
    } else {
        rep.latency_success_secs.median()
    };
    println!(
        "accepted: {:.2}%   of accepted: success {:.2}%, failed {:.2}%, timeout {:.2}%",
        acc * 100.0,
        succ * 100.0,
        fail * 100.0,
        to_share * 100.0
    );
    println!(
        "median response time of successes: {:.0} ms",
        med_rt * 1000.0
    );
    let mut work = hpcwhisk_bench::DesWork::default();
    work.absorb(&rep);
    println!("{}", work.summary());

    section("Paper vs measured");
    let mut c = Comparison::new();
    c.add("Slurm-level used %", 89.97, slurm.used_share * 100.0);
    c.add("Simulation coverage %", 91.95, sim.coverage() * 100.0);
    c.add("Slurm-level avg workers", 10.66, slurm.pilot_avg);
    c.add("Simulation avg ready", 10.59, sim.ready_avg);
    c.add("OW-level avg healthy", 10.39, ow.healthy.3);
    c.add("avg available nodes", 11.85, slurm.avg_available);
    c.add(
        "zero-availability % of time",
        0.6,
        slurm.zero_available_frac * 100.0,
    );
    c.add("accepted requests %", 95.29, acc * 100.0);
    c.add("success of accepted %", 95.19, succ * 100.0);
    c.add("median response ms", 865.0, med_rt * 1000.0);
    c.add(
        "no-invoker total min",
        24.0,
        ow.no_invoker_total.as_mins_f64(),
    );
    if let Some((l50, l75, lavg)) = ow.lifetime_mins {
        c.add("invoker ready lifetime med min", 11.0, l50);
        c.add("invoker ready lifetime p75 min", 31.0, l75);
        c.add("invoker ready lifetime avg min", 23.0, lavg);
    }
    println!("{}", c.render());
}

trait MinTime {
    fn min_time(self, other: SimTime) -> SimTime;
}
impl MinTime for SimTime {
    fn min_time(self, other: SimTime) -> SimTime {
        if self < other {
            self
        } else {
            other
        }
    }
}
