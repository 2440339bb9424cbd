//! The paper's evaluation, one table: Fig. 1-3, Tables I-III and Fig. 7.
//! A row prints its paper-shaped artifact and returns its claims: each
//! figure the paper publishes beside this run's, and each structural
//! check the paper's artifact exhibits. The runner renders a row's
//! claims as its "Paper vs measured" block and prints one `checks` line
//! per row; if any check fails it lists them all and exits 1.
//!
//! `--quick` runs the scaled-down shapes (seconds), `--row <name>` one row.
//!
//! Run with: `cargo run --release -p hpcwhisk_bench --bin paper -- --quick`

use cluster::AvailabilityTrace;
use hpcwhisk_bench::{section, Comparison, DesWork};
use hpcwhisk_core::offline::{simulate, OfflineConfig, OfflineReport};
use hpcwhisk_core::{lengths, report, run_day, DayConfig, DayReport};
use metrics::Cdf;
use rayon::prelude::*;
use sebs::{measure, Graph, Kernel, PlatformModel};
use simcore::{SimDuration, SimRng, SimTime};
use workload::{HpcWorkloadModel, IdleModel};

/// One artifact of the paper: how to regenerate it at a scale.
struct Row {
    name: &'static str,
    /// The heading of its "Paper vs measured" block.
    heading: &'static str,
    run: fn(bool) -> Claims,
}

/// What a row claims against the paper.
#[derive(Default)]
struct Claims {
    /// `(label, paper, measured)`.
    figures: Vec<(String, f64, f64)>,
    /// `(label, holds)`: a structural property of the paper's artifact.
    checks: Vec<(String, bool)>,
    /// Printed under the block.
    note: Option<String>,
}

impl Claims {
    fn fig(&mut self, label: &str, paper: f64, measured: f64) {
        self.figures.push((label.to_string(), paper, measured));
    }

    fn check(&mut self, label: &str, holds: bool) {
        self.checks.push((label.to_string(), holds));
    }
}

const VS: &str = "Paper vs measured";

const ROWS: &[Row] = &[
    row(
        "fig1",
        "Paper vs measured (Fig 1 headline statistics)",
        fig1,
    ),
    row("fig2", VS, fig2),
    row("fig3", VS, fig3),
    row("fig7", VS, fig7),
    row("table1", "Paper vs measured (structural checks)", table1),
    row("table2", VS, |quick| day(&FIB, quick)),
    row("table3", VS, |quick| day(&VAR, quick)),
];

const fn row(name: &'static str, heading: &'static str, run: fn(bool) -> Claims) -> Row {
    Row { name, heading, run }
}

fn main() {
    let (mut quick, mut only) = (false, None);
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--row" => only = Some(args.next().unwrap_or_else(|| usage())),
            _ => usage(),
        }
    }
    let rows: Vec<&Row> = ROWS
        .iter()
        .filter(|r| only.as_deref().is_none_or(|n| n == r.name))
        .collect();
    if rows.is_empty() {
        usage();
    }
    let failed: Vec<String> = rows
        .into_iter()
        .flat_map(|row| report(row, &(row.run)(quick)))
        .collect();
    if !failed.is_empty() {
        eprintln!("paper: {} failed check(s):", failed.len());
        failed.iter().for_each(|f| eprintln!("  {f}"));
        std::process::exit(1);
    }
    println!("paper OK: every check held");
}

fn usage() -> ! {
    let rows: Vec<&str> = ROWS.iter().map(|r| r.name).collect();
    eprintln!("usage: paper [--quick] [--row {}]", rows.join("|"));
    std::process::exit(2);
}

/// Print `row`'s block, its note and its check line; return its failed
/// checks, each as `row: label`.
fn report(row: &Row, claims: &Claims) -> Vec<String> {
    section(row.heading);
    let mut c = Comparison::new();
    for (label, paper, measured) in &claims.figures {
        c.add(label, *paper, *measured);
    }
    for (label, holds) in &claims.checks {
        c.add_str(label, "yes", if *holds { "yes" } else { "NO" });
    }
    println!("{}", c.render());
    if let Some(note) = &claims.note {
        println!("{note}");
    }
    let failed: Vec<String> = claims
        .checks
        .iter()
        .filter(|(_, holds)| !holds)
        .map(|(label, _)| format!("{}: {label}", row.name))
        .collect();
    let n = claims.checks.len();
    println!("checks {}: {} of {n} hold", row.name, n - failed.len());
    failed
}

/// The analysed week's idle trace (a 300-node day at `quick`), the input
/// of Fig. 1 and Table I.
fn week(quick: bool) -> AvailabilityTrace {
    let mut model = IdleModel::prometheus_week();
    let hours = if quick {
        model.n_nodes = 300;
        model.target_avg_idle = 4.0;
        24
    } else {
        7 * 24
    };
    model.generate(SimDuration::from_hours(hours), 42)
}

/// Fig. 1 (§I): the cluster's idle-node process over one week, from the
/// calibrated idle model: (a) CDF of the number of idle nodes, (b) CDF
/// of idle-period lengths, (c) the time series.
fn fig1(quick: bool) -> Claims {
    let trace = week(quick);
    let series = trace.count_series();
    let (t0, t1) = (trace.start, trace.end);

    section("Fig 1a: CDF of the number of idle nodes");
    println!("percentile | idle nodes");
    let mut counts = Cdf::new();
    for (t, _) in series.sample_every(t0, t1, SimDuration::from_secs(10)) {
        counts.add(series.value_at(t));
    }
    for p in [0.1, 0.2, 0.25, 0.5, 0.75, 0.8, 0.9, 0.99] {
        println!("{:>9.0}% | {:>6.0}", p * 100.0, counts.quantile(p));
    }

    section("Fig 1b: CDF of idle-period lengths (minutes)");
    let mut lens = trace.interval_length_mins();
    println!("percentile | minutes");
    for p in [0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99] {
        println!("{:>9.0}% | {:>7.2}", p * 100.0, lens.quantile(p));
    }

    section("Fig 1c: idle nodes over time (6-hour averages and maxima)");
    println!("window | avg idle | max idle");
    let mut t = t0;
    while t < t1 {
        let t2 = (t + SimDuration::from_hours(6)).min(t1);
        let max = series
            .sample_every(t, t2, SimDuration::from_mins(1))
            .into_iter()
            .map(|(_, v)| v)
            .fold(0.0f64, f64::max);
        let avg = series.time_avg(t, t2);
        println!("{:>5.0}h | {avg:>8.2} | {max:>8.0}", t.as_hours_f64());
        t = t2;
    }

    let zero_frac = series.fraction_where(t0, t1, |v| v == 0.0);
    let longest_zero = series.longest_run(t0, t1, |v| v == 0.0);
    let core_hours = trace.total_available().as_secs_f64() / 3600.0 * 24.0;
    let mut c = Claims::default();
    c.fig("avg idle nodes", 9.23, series.time_avg(t0, t1));
    c.fig("p25 idle nodes", 2.0, counts.quantile(0.25));
    c.fig("median idle nodes", 5.0, counts.quantile(0.5));
    c.fig("~80th pctile idle nodes", 13.0, counts.quantile(0.8));
    c.fig("zero-idle share %", 10.11, zero_frac * 100.0);
    let longest_h = longest_zero.as_secs_f64() / 3600.0;
    c.fig("longest zero-idle h", 1.55, longest_h);
    c.fig("median idle period min", 2.0, lens.median());
    c.fig("p75 idle period min", 4.0, lens.quantile(0.75));
    c.fig("mean idle period min", 5.0, lens.mean());
    let tail = lens.fraction_gt(23.0) * 100.0;
    c.fig("P(idle period > 23 min) %", 5.0, tail);
    c.fig(
        "idle surface core-hours (24-core nodes)",
        37_000.0,
        core_hours,
    );
    c
}

/// Fig. 2 (§I): CDFs of user-declared time limits, actual runtimes and
/// the slack between them, for the synthetic HPC job stream calibrated
/// to Prometheus (74k non-commercial jobs in the monitored week).
fn fig2(quick: bool) -> Claims {
    let n_jobs: usize = if quick { 5_000 } else { 74_000 };
    let model = HpcWorkloadModel::prometheus();
    let mut rng = SimRng::seed_from_u64(2022);
    let [mut limits, mut runtimes, mut slack, mut sizes] = [(); 4].map(|_| Cdf::new());
    for _ in 0..n_jobs {
        let j = model.sample_job(&mut rng);
        let lim = j.time_limit.as_mins_f64();
        let rt = j
            .actual_runtime
            .expect("hpc jobs have runtimes")
            .as_mins_f64();
        limits.add(lim);
        runtimes.add(rt);
        slack.add(lim - rt);
        sizes.add(j.nodes as f64);
    }

    section("Fig 2: CDFs of limits (green), runtimes (blue), slack (orange) [minutes]");
    println!("percentile | limit | runtime | slack");
    for p in [0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95] {
        println!(
            "{:>9.0}% | {:>6.0} | {:>7.1} | {:>6.1}",
            p * 100.0,
            limits.quantile(p),
            runtimes.quantile(p),
            slack.quantile(p)
        );
    }
    println!(
        "\njob sizes: median {} nodes, p90 {} nodes, max {} nodes",
        sizes.quantile(0.5),
        sizes.quantile(0.9),
        sizes.max()
    );

    let mut c = Claims::default();
    c.fig("jobs generated", 74_000.0, n_jobs as f64);
    c.fig("median declared limit min", 60.0, limits.median());
    let declaring = limits.fraction_gt(15.0 - 1e-9) * 100.0;
    c.fig("share declaring >= 15 min %", 95.0, declaring);
    let left = runtimes.median() < limits.median();
    c.check("runtime CDF left of limit CDF", left);
    c.check("substantial slack", slack.median() > 10.0);
    c
}

/// (nodes, minutes) of the §I example jobs.
const JOBS: [(u32, u64); 4] = [(3, 5), (1, 13), (2, 7), (4, 8)];
const N_NODES: usize = 5;

/// One placed job: `(job index, start, end, nodes)`.
type PlacedJob = (usize, u64, u64, Vec<usize>);

/// Fig. 3 (§I): the worked example, 4 HPC jobs on 5 nodes scheduled to
/// minimize the maximum completion time, leaving idle gaps that short
/// pilot jobs (lengths 2/4/6/10 min) then fill. Every list schedule of
/// the 24 job orders is tried; the schedule kept is the first of minimal
/// makespan, and the clairvoyant filler runs over its idle surface.
///
/// A known deviation: the text's "average number of idle nodes is 1.2"
/// is not reachable by any makespan-minimal schedule of the four stated
/// jobs. The paper's figure shows a non-optimal layout (node 5 idle
/// until minute 12); the minimal makespan of 18 minutes leaves 16 idle
/// node-minutes, an average of 0.89.
fn fig3(_: bool) -> Claims {
    // Every order of the four jobs, lexicographically.
    let schedules: Vec<(u64, Vec<PlacedJob>)> = (0..256)
        .map(|i| [i >> 6, i >> 4 & 3, i >> 2 & 3, i & 3])
        .filter(|order| (0..4).all(|j| order.contains(&j)))
        .map(|order| list_schedule(&order))
        .collect();
    let &(makespan, ref best) = schedules.iter().min_by_key(|(m, _)| *m).expect("24 orders");

    section("Fig 3: minimal-makespan schedule of the example jobs");
    println!("job | nodes | minutes | start | end | placed on");
    for (j, s, e, nodes) in best {
        let (need, dur) = JOBS[*j];
        println!(
            " #{} | {need:>5} | {dur:>7} | {s:>5} | {e:>3} | {nodes:?}",
            j + 1
        );
    }
    println!("makespan: {makespan} minutes");

    // The idle surface: each node's gaps between its jobs and to the end.
    let mut busy = vec![Vec::<(u64, u64)>::new(); N_NODES];
    for (_, s, e, nodes) in best {
        for &n in nodes {
            busy[n].push((*s, *e));
        }
    }
    let mut idle_surface = 0u64;
    let mut per_node_gaps: Vec<Vec<(SimTime, SimTime)>> = Vec::new();
    for node in &mut busy {
        node.sort_unstable();
        node.push((makespan, makespan));
        let mut gaps = Vec::new();
        let mut cursor = 0u64;
        for &(s, e) in node.iter() {
            if s > cursor {
                gaps.push((SimTime::from_mins(cursor), SimTime::from_mins(s)));
                idle_surface += s - cursor;
            }
            cursor = cursor.max(e);
        }
        per_node_gaps.push(gaps);
    }
    let avg_idle = idle_surface as f64 / makespan as f64;
    println!("idle surface: {idle_surface} node-minutes; average idle nodes: {avg_idle:.2}");

    let end = SimTime::from_mins(makespan);
    let trace = AvailabilityTrace::from_intervals(SimTime::ZERO, end, per_node_gaps);
    let cfg = OfflineConfig {
        lengths_mins: vec![2, 4, 6, 10],
        warmup: SimDuration::from_secs(20),
    };
    let rep = simulate(&trace, &cfg);

    section("Pilot fill of the idle gaps (lengths 2/4/6/10, 20 s warm-up)");
    println!(
        "pilot jobs placed: {}; warm-up {:.1}% / ready {:.1}% / unused {:.1}%",
        rep.n_jobs,
        rep.warmup_share * 100.0,
        rep.ready_share * 100.0,
        rep.unused_share * 100.0
    );

    let mut c = Claims::default();
    c.fig("average idle nodes", 1.2, avg_idle);
    let covered = rep.ready_share * 100.0;
    c.fig(
        "share of idle slots covered by ready invokers %",
        83.0,
        covered,
    );
    let minimal = schedules.iter().all(|(m, _)| makespan <= *m);
    c.check("schedule minimizes makespan", minimal);
    c.note = Some(format!(
        "note: the paper's figure shows a non-optimal layout (node 5 idle \
         until minute 12); with the truly minimal makespan of {makespan} \
         minutes the idle average is {avg_idle:.2}, so the text's 1.2 idle \
         nodes is unreachable by any makespan-minimal schedule."
    ));
    c
}

/// A list schedule: jobs placed in the given order, each at the earliest
/// time enough nodes are free at once, on the nodes free earliest (ties
/// by index).
fn list_schedule(order: &[usize]) -> (u64, Vec<PlacedJob>) {
    let mut free_at = [0u64; N_NODES];
    let mut placed = Vec::new();
    for &j in order {
        let (need, dur) = (JOBS[j].0 as usize, JOBS[j].1);
        let mut idx: Vec<usize> = (0..N_NODES).collect();
        idx.sort_by_key(|n| (free_at[*n], *n));
        idx.truncate(need);
        let start = free_at[idx[need - 1]];
        for &n in &idx {
            free_at[n] = start + dur;
        }
        placed.push((j, start, start + dur, idx));
    }
    (*free_at.iter().max().expect("N_NODES > 0"), placed)
}

/// Fig. 7 (§V-D): single invocations of the three compute-intensive SeBS
/// kernels (bfs, mst, pagerank) on a Prometheus node vs. AWS Lambda with
/// 2048 MB. The kernels run for real on this machine (the "Prometheus
/// node" reference); Lambda is the calibrated slowdown model. The
/// paper's finding, a consistent ~15% advantage for the HPC node, is
/// checked per kernel, plus a memory-sweep ablation of Lambda's CPU
/// share.
fn fig7(quick: bool) -> Claims {
    // "200 invocations to focus on warm performance" (§V-D).
    let (n, m, warmup, reps) = if quick {
        (20_000, 3, 2, 20)
    } else {
        (100_000, 3, 10, 200)
    };
    let g = Graph::barabasi_albert(n, m, 7);
    let edges = g.n_edges();
    eprintln!(
        "graph: {} vertices, {edges} edges (Barabasi-Albert m={m})",
        g.n
    );
    let prometheus = PlatformModel::prometheus_node();
    let lambda = PlatformModel::aws_lambda_2048();

    section("Fig 7: median execution time per kernel (ms)");
    println!("kernel   | Prometheus node | AWS Lambda 2048MB | HPC advantage");
    let mut c = Claims::default();
    let mut advantages = Vec::new();
    for k in Kernel::ALL {
        let meas = measure(k, &g, warmup, reps);
        let p_ms = meas.on_platform(&prometheus) * 1_000.0;
        let l_ms = meas.on_platform(&lambda) * 1_000.0;
        let adv = (1.0 - p_ms / l_ms) * 100.0;
        println!(
            "{:<8} | {p_ms:>15.2} | {l_ms:>17.2} | {adv:>12.1}%",
            k.name()
        );
        c.fig(&format!("{} advantage %", k.name()), 15.0, adv);
        advantages.push(adv);
    }

    section("Ablation: Lambda memory sweep (pagerank, modeled)");
    let meas = measure(Kernel::Pagerank, &g, warmup.min(2), reps.min(30));
    println!("memory MB | modeled median ms");
    for mem in [512, 1024, 1792, 2048, 3008] {
        let p = PlatformModel::aws_lambda(mem);
        println!("{mem:>9} | {:>16.2}", meas.on_platform(&p) * 1_000.0);
    }

    let lo = advantages.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = advantages.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    c.check("advantage consistent across kernels", hi - lo <= 0.1);
    c
}

/// Table I (§IV-B): the offline simulation comparing six candidate
/// pilot-job length sets over the week's idle trace, the calibration
/// that picked set A1 for the fib model.
fn table1(quick: bool) -> Claims {
    let trace = week(quick);
    eprintln!(
        "week trace: {} gaps, {:.0} node-hours available",
        trace.n_intervals(),
        trace.total_available().as_secs_f64() / 3600.0
    );
    let reports: Vec<(&str, Vec<u64>, OfflineReport)> = lengths::all_sets()
        .into_par_iter()
        .map(|(name, set)| {
            let rep = simulate(&trace, &OfflineConfig::table1(set.clone()));
            (name, set, rep)
        })
        .collect();

    section("Table I: simulated coverage of idleness periods per length set");
    println!("{}", report::render_table1(&reports));

    let by_name = |n: &str| {
        &reports
            .iter()
            .find(|(name, ..)| *name == n)
            .expect("a Table I set")
            .2
    };
    let [a1, a2, b, c1, c2] = ["A1", "A2", "B", "C1", "C2"].map(by_name);
    let mut c = Claims::default();
    c.fig("A1 # of jobs", 10_767.0, a1.n_jobs as f64);
    c.fig("A1 warm-up %", 3.98, a1.warmup_share * 100.0);
    c.fig("A1 ready %", 80.58, a1.ready_share * 100.0);
    c.fig("A1 not used %", 15.44, a1.unused_share * 100.0);
    c.fig("A1 avg ready workers", 7.44, a1.ready_avg);
    c.fig("A1 non-availability %", 14.82, a1.non_availability * 100.0);
    c.fig("C2 ready %", 81.20, c2.ready_share * 100.0);
    c.fig("B # of jobs", 12_348.0, b.n_jobs as f64);

    let all = |f: &dyn Fn(&OfflineReport) -> bool| reports.iter().all(|(.., r)| f(r));
    let unused = a1.unused_share;
    c.check(
        "not-used share identical across sets",
        all(&|r| (r.unused_share - unused).abs() < 0.005),
    );
    c.check(
        "C2 has the fewest jobs / best ready share",
        c2.n_jobs <= c1.n_jobs && all(&|r| c2.ready_share >= r.ready_share - 1e-9),
    );
    c.check(
        "B places the most jobs / worst ready share",
        all(&|r| b.n_jobs >= r.n_jobs && b.ready_share <= r.ready_share + 1e-9),
    );
    c.check(
        "A1 beats A2 on ready share",
        a1.ready_share >= a2.ready_share,
    );
    c
}

/// One experiment day of §V-B: a 24-hour trace-driven day on a
/// 2,239-node cluster (200 nodes for 3 h at `quick`) under the 10 QPS /
/// 100-function responsiveness load.
struct Day {
    /// The pilot manager, as the headings name it: "fib" or "var".
    manager: &'static str,
    table: &'static str,
    /// The companion figure: its panels a-c are the day's time series,
    /// outcomes and node-count CDFs.
    fig: &'static str,
    model: fn() -> IdleModel,
    /// `target_avg_idle` of the `quick` model.
    quick_avg_idle: f64,
    seed: u64,
    config: fn(u64) -> DayConfig,
    /// The length set of the clairvoyant bound.
    bound: fn() -> Vec<u64>,
    /// The published figures, in the order [`day`] lists them.
    paper: [f64; 11],
    longest_no_invoker_min: Option<f64>,
    /// Invoker ready lifetime: median, p75 and average minutes.
    lifetime_min: [f64; 3],
    /// Print the diagnostics block in place of the DES work line.
    diagnostics: bool,
}

/// Table II + Fig. 5 (§V-B1, §V-C): the fib manager with set A1.
const FIB: Day = Day {
    manager: "fib",
    table: "Table II",
    fig: "Fig 5",
    model: IdleModel::fib_day,
    quick_avg_idle: 6.0,
    seed: IdleModel::FIB_DAY_SEED,
    config: DayConfig::fib_paper,
    bound: || lengths::A1.to_vec(),
    paper: [
        89.97, 91.95, 10.66, 10.59, 10.39, 11.85, 0.6, 95.29, 95.19, 865.0, 24.0,
    ],
    longest_no_invoker_min: None,
    lifetime_min: [11.0, 31.0, 23.0],
    diagnostics: false,
};

/// Table III + Fig. 6 (§V-B2, §V-C): variable-length pilots
/// (`--time-min 2 --time 120`) whose duration Slurm decides at
/// placement. Extension is a backfill-pass computation with a bounded
/// per-pass budget, so the achieved coverage falls well short of the
/// clairvoyant bound (C2): the paper's central var-model finding (68%
/// achieved vs 84% simulated).
const VAR: Day = Day {
    manager: "var",
    table: "Table III",
    fig: "Fig 6",
    model: IdleModel::var_day,
    quick_avg_idle: 5.0,
    seed: IdleModel::VAR_DAY_SEED,
    config: DayConfig::var_paper,
    bound: lengths::c2,
    paper: [
        68.20, 84.13, 5.03, 5.97, 4.96, 7.38, 9.44, 78.28, 96.99, 1227.0, 218.0,
    ],
    longest_no_invoker_min: Some(85.0),
    lifetime_min: [7.0, 14.5, 14.0],
    diagnostics: true,
};

/// Run `day` and print its table, its figure's three panels and the
/// responsiveness summary.
fn day(day: &Day, quick: bool) -> Claims {
    let (mut model, mut hours) = ((day.model)(), 24);
    if quick {
        (model.n_nodes, model.target_avg_idle, hours) = (200, day.quick_avg_idle, 3);
    }
    let trace = model.generate(SimDuration::from_hours(hours), day.seed);
    eprintln!(
        "generated {}-day trace: {} nodes, {} gaps, {:.0} node-min available",
        day.manager,
        trace.n_nodes(),
        trace.n_intervals(),
        trace.total_available().as_mins_f64()
    );
    let mut rep = run_day(&trace, (day.config)(day.seed));

    section(&format!("{}: {} job manager", day.table, day.manager));
    let sim = rep.simulation((day.bound)());
    let slurm = rep.slurm_level();
    let ow = rep.ow_level();
    let label = &format!("({} day)", day.manager);
    println!("{}", report::render_day_table(label, &sim, &slurm, &ow));

    let fig = day.fig;
    section(&format!(
        "{fig}a: workers and idle nodes over time (hourly averages)"
    ));
    let (from, to) = rep.window;
    println!("hour | healthy workers | idle nodes");
    let mut t = from;
    while t < to {
        let t2 = (t + SimDuration::from_hours(1)).min(to);
        println!(
            "{:>4} | {:>15.2} | {:>10.2}",
            t.as_hours_f64() as u64,
            rep.healthy_series.time_avg(t, t2),
            rep.idle_series.time_avg(t, t2),
        );
        t = t2;
    }

    section(&format!("{fig}b: request outcomes over time (hourly sums)"));
    println!("hour | success | failed | lost(timeout) | 503");
    let n_hours = ((to - from).as_mins() as usize).div_ceil(60);
    for h in 0..n_hours {
        let range = h * 60..((h + 1) * 60).min(rep.success_bins.counts().len());
        let sum = |bins: &metrics::MinuteBins| bins.counts()[range.clone()].iter().sum::<u64>();
        let (s, f) = (sum(&rep.success_bins), sum(&rep.failed_bins));
        let (l, r) = (sum(&rep.timeout_bins), sum(&rep.rejected_bins));
        println!("{h:>4} | {s:>7} | {f:>6} | {l:>13} | {r:>4}");
    }

    section(&format!("{fig}c: node-count CDFs (Slurm-level)"));
    let [mut idle, mut pilot, mut avail] = [(); 3].map(|_| Cdf::new());
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
    if day.diagnostics {
        diagnostics(&rep, &trace);
    } else {
        let mut work = DesWork::default();
        work.absorb(&rep);
        println!("{}", work.summary());
    }

    let measured = [
        ("Slurm-level used %", slurm.used_share * 100.0),
        ("Simulation coverage %", sim.coverage() * 100.0),
        ("Slurm-level avg workers", slurm.pilot_avg),
        ("Simulation avg ready", sim.ready_avg),
        ("OW-level avg healthy", ow.healthy.3),
        ("avg available nodes", slurm.avg_available),
        (
            "zero-availability % of time",
            slurm.zero_available_frac * 100.0,
        ),
        ("accepted requests %", acc * 100.0),
        ("success of accepted %", succ * 100.0),
        ("median response ms", med_rt * 1000.0),
        ("no-invoker total min", ow.no_invoker_total.as_mins_f64()),
    ];
    let mut c = Claims::default();
    for ((label, m), paper) in measured.into_iter().zip(day.paper) {
        c.fig(label, paper, m);
    }
    if let Some(paper) = day.longest_no_invoker_min {
        c.fig(
            "longest no-invoker min",
            paper,
            ow.no_invoker_longest.as_mins_f64(),
        );
    }
    if let Some((l50, l75, lavg)) = ow.lifetime_mins {
        let labels = ["med", "p75", "avg"].map(|s| format!("invoker ready lifetime {s} min"));
        for ((label, paper), m) in labels.iter().zip(day.lifetime_min).zip([l50, l75, lavg]) {
            c.fig(label, paper, m);
        }
    }
    c
}

/// The scheduler's pilot counters and passes, and the day's ground-truth
/// idle and pilot averages beside the trace's.
fn diagnostics(rep: &DayReport, trace: &AvailabilityTrace) {
    section("Diagnostics");
    let cc = &rep.cluster_counters;
    println!(
        "pilots started={} preempted={} timed_out={} granted mins avg={:.1}",
        cc.pilots_started,
        cc.pilots_preempted,
        cc.pilots_timed_out,
        cc.pilot_granted_mins.mean()
    );
    println!(
        "demand delay: n={} mean={:.1}s max={:.1}s",
        cc.demand_delay_secs.count(),
        cc.demand_delay_secs.mean(),
        cc.demand_delay_secs.max().unwrap_or(0.0)
    );
    println!(
        "passes: quick={} backfill={} reservations={}",
        cc.quick_passes, cc.backfill_passes, cc.reservations_made
    );
    let (w0, w1) = rep.window;
    let idle = rep.idle_series.time_avg(w0, w1);
    let pilot = rep.pilot_series.time_avg(w0, w1);
    let trace_avg = trace.count_series().time_avg(trace.start, trace.end);
    println!(
        "ground truth: idle avg={idle:.2} pilot avg={pilot:.2} (sum={:.2}); trace avail avg={trace_avg:.2}",
        idle + pilot
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every row but `fig7` (real graph kernels, slow in a debug build)
    /// at `--quick`: each check holds and each figure is finite. A false
    /// check planted into a row fails the verdict, by name.
    #[test]
    fn quick_rows_hold_their_checks_and_a_planted_failure_is_named() {
        for row in ROWS.iter().filter(|r| r.name != "fig7") {
            let mut claims = (row.run)(true);
            assert_eq!(report(row, &claims), Vec::<String>::new());
            for (label, paper, measured) in &claims.figures {
                let at = format!("{} {label}: {paper} vs {measured}", row.name);
                assert!(paper.is_finite() && measured.is_finite(), "{at}");
            }
            claims.check("planted", false);
            assert_eq!(report(row, &claims), [format!("{}: planted", row.name)]);
        }
    }
}
