//! The paper's evaluation, one table: Fig. 1-3, Tables I-III and Fig. 7,
//! then the DES studies beside them — the ablations of the design
//! choices the paper argues for (drain protocol, longest-first
//! priority, grace period, backfill cadence), emergent idleness from a
//! job backlog, and the §VII week-scale sweep. A row prints its
//! paper-shaped artifact and returns its claims: each figure the paper
//! publishes beside this run's, and each structural check the paper's
//! artifact or argument exhibits. A row that simulates days ends on
//! their books ([`BOOKS`]: each day's `DayReport::books`, the request
//! rule the live gateway's books obey too). The runner renders a row's
//! claims as its "Paper vs measured" block and prints one `checks` line
//! per row, naming the books check where it ran; if any check fails it
//! lists them all and exits 1.
//!
//! `--quick` runs the scaled-down shapes (seconds), `--row <name>` one
//! row, and `--metrics-out PATH` writes the scheduler and DES work
//! counters of the days the rows ran as a Prometheus exposition.
//!
//! Run with: `cargo run --release -p hpcwhisk_bench --bin paper -- --quick`

use cluster::{AvailabilityTrace, SlurmConfig};
use hpcwhisk_bench::{nproc, scheduler_exposition, section, Comparison, DesWork};
use hpcwhisk_core::offline::{simulate, OfflineConfig, OfflineReport};
use hpcwhisk_core::{
    coverage, lengths, report, run_day, run_week_sweep, DayConfig, DayReport, Driver, IdleSource,
    ManagerKind, PilotSink, SlurmLevel, SweepCluster, SweepConfig,
};
use metrics::{outcome, Cdf, OnlineStats, Outcome, Shed};
use rayon::prelude::*;
use sebs::{measure, Graph, Kernel};
use simcore::{SimDuration, SimRng, SimTime};
use whisk::DynamicsMode;
use workload::{ConstantRateLoadGen, HpcWorkloadModel, IdleModel};

/// One artifact of the paper, or one study beside it: how to regenerate
/// it at a scale.
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
    /// The DES work of the days the row ran, summed: what
    /// `--metrics-out` writes.
    work: DesWork,
}

impl Claims {
    fn fig(&mut self, label: &str, paper: f64, measured: f64) {
        self.figures.push((label.to_string(), paper, measured));
    }

    fn check(&mut self, label: &str, holds: bool) {
        self.checks.push((label.to_string(), holds));
    }

    /// Count `rep`'s DES work and books into the row's.
    fn absorb(&mut self, rep: &DayReport) {
        self.work.absorb(&DesWork::of(rep));
    }
}

/// The check a row that simulates days ends on.
const BOOKS: &str = "request books close";

const VS: &str = "Paper vs measured";
const CHECKS: &str = "Paper vs measured (structural checks)";

const ROWS: &[Row] = &[
    row(
        "fig1",
        "Paper vs measured (Fig 1 headline statistics)",
        fig1,
    ),
    row("fig2", VS, fig2),
    row("fig3", VS, fig3),
    row("fig7", VS, fig7),
    row("table1", CHECKS, table1),
    row("table2", VS, |quick| day(&FIB, quick)),
    row("table3", VS, |quick| day(&VAR, quick)),
    row("wrapper", CHECKS, wrapper),
    row("drain", CHECKS, drain),
    row("priority", CHECKS, priority),
    row("grace", CHECKS, grace),
    row("backfill", CHECKS, backfill),
    row("backlog", "Sanity vs the paper's regime", backlog),
    row("week", CHECKS, week_sweep),
];

const fn row(name: &'static str, heading: &'static str, run: fn(bool) -> Claims) -> Row {
    Row { name, heading, run }
}

fn main() {
    let (mut quick, mut only, mut metrics_out) = (false, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--row" => only = Some(args.next().unwrap_or_else(|| usage())),
            "--metrics-out" => metrics_out = Some(args.next().unwrap_or_else(|| usage())),
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
    let (mut failed, mut work) = (Vec::new(), DesWork::default());
    for row in rows {
        let claims = (row.run)(quick);
        failed.extend(report(row, &claims));
        work.absorb(&claims.work);
    }
    if let Some(path) = metrics_out {
        std::fs::write(&path, scheduler_exposition(&work))
            .unwrap_or_else(|e| panic!("--metrics-out {path}: {e}"));
        println!("metrics exposition written to {path}");
    }
    if !failed.is_empty() {
        eprintln!("paper: {} failed check(s):", failed.len());
        failed.iter().for_each(|f| eprintln!("  {f}"));
        std::process::exit(1);
    }
    println!("paper OK: every check held");
}

fn usage() -> ! {
    let rows: Vec<&str> = ROWS.iter().map(|r| r.name).collect();
    eprintln!(
        "usage: paper [--quick] [--row {}] [--metrics-out PATH]",
        rows.join("|")
    );
    std::process::exit(2);
}

/// Print `row`'s block, its note and its check line; return its failed
/// checks, each as `row: label`.
fn report(row: &Row, claims: &Claims) -> Vec<String> {
    section(row.heading);
    let work = &claims.work;
    let books = (work.days > 0).then(|| (BOOKS.to_string(), work.books.is_empty()));
    let checks: Vec<&(String, bool)> = claims.checks.iter().chain(&books).collect();
    let mut c = Comparison::new();
    for (label, paper, measured) in &claims.figures {
        c.add(label, *paper, *measured);
    }
    for (label, holds) in &checks {
        c.add_str(label, "yes", if *holds { "yes" } else { "NO" });
    }
    if !(claims.figures.is_empty() && checks.is_empty()) {
        println!("{}", c.render());
    }
    if let Some(note) = &claims.note {
        println!("{note}");
    }
    for v in &work.books {
        println!("books {}: {v:?}", row.name);
    }
    let failed: Vec<String> = checks
        .iter()
        .filter(|(_, holds)| !holds)
        .map(|(label, _)| format!("{}: {label}", row.name))
        .collect();
    let n = checks.len();
    let held = format!("checks {}: {} of {n} hold", row.name, n - failed.len());
    match books {
        Some(_) => println!(
            "{held}, {BOOKS} among them ({} day(s), {} in flight at the horizon)",
            work.days, work.requests.in_flight
        ),
        None => println!("{held}"),
    }
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
/// kernels (bfs, mst, pagerank), run for real on this machine and timed
/// warm. The paper's other column, AWS Lambda with 2048 MB, cannot be
/// measured from here, so its finding is stated as the paper's input
/// beside the timings and not restated as a figure.
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

    section("Fig 7: median execution time per kernel on this machine (ms)");
    for k in Kernel::ALL {
        let median_ms = measure(k, &g, warmup, reps).median_secs() * 1_000.0;
        println!("{:<8} | {median_ms:>8.2}", k.name());
    }
    let lambda = "AWS Lambda 2048 MB ran every kernel ~15 % slower (x1.15): the paper's input";
    Claims {
        note: Some(lambda.into()),
        ..Claims::default()
    }
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
    /// The §V-B check on Slurm-level used minus simulation coverage, in
    /// pp: its label and its rule.
    gap: (&'static str, fn(f64) -> bool),
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
    gap: (
        "Slurm-level used within 5 pp of simulation coverage",
        |pp| pp.abs() <= 5.0,
    ),
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
    gap: ("Slurm-level used >= 5 pp below simulation coverage", |pp| {
        pp <= -5.0
    }),
};

/// Run `day` and print its table, its figure's three panels and the
/// responsiveness summary.
fn day(day: &Day, quick: bool) -> Claims {
    let trace = day_trace(day, quick);
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
        let bins = &rep.outcome_bins;
        let range = h * 60..((h + 1) * 60).min(bins[Outcome::Completed].counts().len());
        let sum = |o| bins[o].counts()[range.clone()].iter().sum::<u64>();
        let (s, f) = (sum(Outcome::Completed), sum(Outcome::Failed));
        let (l, r) = (sum(Outcome::TimedOut), sum(Outcome::Shed(Shed::NoInvoker)));
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
        println!("{}", DesWork::of(&rep).summary());
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
    let (label, holds) = day.gap;
    c.check(label, holds((slurm.used_share - sim.coverage()) * 100.0));
    c.absorb(&rep);
    c
}

/// `day`'s trace: 24 h of the full model, or 3 h of 200 nodes at `quick`.
fn day_trace(day: &Day, quick: bool) -> AvailabilityTrace {
    let (mut model, mut hours) = ((day.model)(), 24);
    if quick {
        (model.n_nodes, model.target_avg_idle, hours) = (200, day.quick_avg_idle, 3);
    }
    model.generate(SimDuration::from_hours(hours), day.seed)
}

/// Algorithm 1 (§III-E) priced: Table III's var day (205 no-invoker
/// minutes at full scale) with the client wrapper on, one leg per
/// cool-off. The paper states the policy, not what it costs in
/// commercial calls.
fn wrapper(quick: bool) -> Claims {
    let legs = wrapper_legs(quick);
    section("Algorithm 1: the client's calls by cool-off (Table III's var day)");
    println!("cool-off | served % | commercial % | p50 ms | p99 ms");
    for (secs, rep) in &legs {
        let c = &rep.client;
        let pct = |n: u64| 100.0 * n as f64 / rep.offered.max(1) as f64;
        let (served, commercial) = (pct(c.completed + c.offloaded), pct(c.offloaded));
        let [p50, p99] = [0.5, 0.99].map(|p| rep.client_latency_secs.quantile(p) * 1e3);
        println!("{secs:>7}s | {served:>8.2} | {commercial:>12.2} | {p50:>6.0} | {p99:>6.0}");
    }
    let mut c = wrapper_checks(&legs);
    legs.iter().for_each(|(_, rep)| c.absorb(rep));
    c
}

/// The `wrapper` row's cool-offs (s), shortest first.
const COOLOFFS: [u64; 4] = [0, 10, 60, 300];

/// `(cool-off s, report)` per [`COOLOFFS`].
fn wrapper_legs(quick: bool) -> Vec<(u64, DayReport)> {
    let trace = day_trace(&VAR, quick);
    COOLOFFS
        .par_iter()
        .map(|&secs| {
            let cfg = DayConfig {
                wrapper_cooloff: Some(SimDuration::from_secs(secs)),
                ..DayConfig::var_paper(VAR.seed)
            };
            (secs, run_day(&trace, cfg))
        })
        .collect()
}

/// The row's three checks, in order, over its legs.
fn wrapper_checks(legs: &[(u64, DayReport)]) -> Claims {
    let closes = |(_, r): &(u64, DayReport)| outcome::requests(&r.client, r.offered).is_empty();
    let share = |r: &DayReport| r.client.offloaded as f64 / r.offered.max(1) as f64;
    let (zero, first) = &legs[0];
    let retried = *zero == 0 && first.client.offloaded == first.whisk_counters.rejected_503;
    let mut c = Claims::default();
    c.check(
        "client books close at every cool-off",
        legs.iter().all(closes),
    );
    c.check("cool-off 0: commercial calls = cluster 503s", retried);
    c.check(
        "commercial share does not fall as the cool-off grows",
        legs.windows(2).all(|w| share(&w[1].1) >= share(&w[0].1)),
    );
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

/// The ablations' day: a 6-hour var-day trace of 300 nodes, seed 11,
/// without the forced outage. Every leg of every ablation runs on it.
fn ablation_trace() -> AvailabilityTrace {
    let mut m = IdleModel::var_day();
    m.n_nodes = 300;
    m.target_avg_idle = 5.0;
    m.forced_outage = None;
    m.generate(SimDuration::from_hours(6), 11)
}

/// The fib day of the ablations with client load: 4 QPS over 40
/// functions.
fn fib_with_load(seed: u64) -> DayConfig {
    DayConfig {
        load: Some(ConstantRateLoadGen {
            qps: 4.0,
            n_functions: 40,
        }),
        ..DayConfig::fib_paper(seed)
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

/// Ablation 1 (§III-C): the drain protocol and fast-lane handoff
/// against stock OpenWhisk, where a departing worker's queued requests
/// are lost and time out.
fn drain(_: bool) -> Claims {
    let [paper, baseline] = drain_legs();
    section("Ablation 1: HPC-Whisk drain protocol vs stock OpenWhisk");
    outcome_line("drain+fastlane (paper)", &paper);
    outcome_line("baseline OpenWhisk", &baseline);
    let lost_on = paper.whisk_counters.timeout;
    let lost_off = baseline.whisk_counters.timeout;
    println!(
        "→ requests lost (timeout): {lost_off} baseline vs {lost_on} with the drain protocol ({}x)",
        lost_off / lost_on.max(1)
    );
    let mut c = drain_checks(&paper, &baseline);
    c.absorb(&paper);
    c.absorb(&baseline);
    c
}

fn drain_legs() -> [DayReport; 2] {
    let trace = ablation_trace();
    let paper = fib_with_load(3);
    let mut baseline = paper.clone();
    baseline.whisk.mode = DynamicsMode::Baseline;
    [paper, baseline].map(|cfg| run_day(&trace, cfg))
}

fn drain_checks(paper: &DayReport, baseline: &DayReport) -> Claims {
    let (on, off) = (
        paper.whisk_counters.timeout,
        baseline.whisk_counters.timeout,
    );
    let mut c = Claims::default();
    c.check(
        "baseline times out >= 10x the drain protocol's requests",
        off > 0 && off >= 10 * on,
    );
    c
}

/// Ablation 2 (§III-D): the fib manager's longest-first priority against
/// uniform priority. Greedy long-job placement covers the long gaps
/// with fewer pilots, so fewer warm-ups.
fn priority(_: bool) -> Claims {
    let [longest, uniform] = priority_legs();
    section("Ablation 2: fib longest-first priority vs uniform priority");
    for (tag, rep) in [("longest-first:", &longest), ("uniform:      ", &uniform)] {
        println!(
            "{tag} coverage {:.1}%, pilots started {}",
            rep.slurm_level().used_share * 100.0,
            rep.cluster_counters.pilots_started
        );
    }
    let mut c = priority_checks(&longest, &uniform);
    c.absorb(&longest);
    c.absorb(&uniform);
    c
}

fn priority_legs() -> [DayReport; 2] {
    let trace = ablation_trace();
    let longest = DayConfig {
        load: None,
        ..DayConfig::fib_paper(5)
    };
    let uniform = DayConfig {
        manager: ManagerKind::FibUniform(lengths::A1.to_vec()),
        ..longest.clone()
    };
    [longest, uniform].map(|cfg| run_day(&trace, cfg))
}

fn priority_checks(longest: &DayReport, uniform: &DayReport) -> Claims {
    let pilots = |r: &DayReport| r.cluster_counters.pilots_started;
    let used = |r: &DayReport| r.slurm_level().used_share * 100.0;
    let mut c = Claims::default();
    c.check(
        "longest-first starts fewer pilots than uniform",
        pilots(longest) < pilots(uniform),
    );
    c.check(
        "longest-first covers no less than 1 pp below uniform",
        used(longest) >= used(uniform) - 1.0,
    );
    c
}

/// Ablation 3 (§III-C): the preemption grace period against drain
/// completeness. A grace shorter than the drain kills invokers hard.
fn grace(_: bool) -> Claims {
    let legs = grace_legs();
    section("Ablation 3: preemption grace period vs drain completeness");
    println!("grace | hard deaths | clean drains | demand delay max s");
    for (secs, rep) in &legs {
        println!(
            "{:>4}s | {:>11} | {:>12} | {:>18.1}",
            secs,
            rep.whisk_counters.hard_deaths,
            rep.whisk_counters.drains_clean,
            rep.cluster_counters.demand_delay_secs.max().unwrap_or(0.0)
        );
    }
    let mut c = grace_checks(&legs);
    legs.iter().for_each(|(_, rep)| c.absorb(rep));
    c
}

/// `(grace s, report)`, shortest first.
fn grace_legs() -> Vec<(u64, DayReport)> {
    let trace = ablation_trace();
    [1u64, 5, 30, 180]
        .into_iter()
        .map(|secs| {
            let mut cfg = fib_with_load(7);
            cfg.slurm.grace_time = SimDuration::from_secs(secs);
            (secs, run_day(&trace, cfg))
        })
        .collect()
}

fn grace_checks(legs: &[(u64, DayReport)]) -> Claims {
    let deaths = |short: bool| {
        legs.iter()
            .filter(move |(secs, _)| (*secs < 5) == short)
            .map(|(_, rep)| rep.whisk_counters.hard_deaths)
    };
    let mut c = Claims::default();
    c.check("1 s grace kills invokers hard", deaths(true).all(|n| n > 0));
    c.check(">= 5 s grace: no hard death", deaths(false).all(|n| n == 0));
    c
}

/// Ablation 4 (§V-B2): the var model's backfill cadence. A slower pass
/// per pending job directly eats coverage, the mechanism behind the
/// paper's 68 % achieved against 84 % simulated.
fn backfill(_: bool) -> Claims {
    let legs = backfill_legs();
    section("Ablation 4: backfill cadence for the var model");
    println!("bf pass cost/job | coverage % | avg granted min");
    for (ms, rep) in &legs {
        println!(
            "{:>14}ms | {:>9.1} | {:>15.1}",
            ms,
            rep.slurm_level().used_share * 100.0,
            rep.cluster_counters.pilot_granted_mins.mean()
        );
    }
    let mut c = backfill_checks(&legs);
    legs.iter().for_each(|(_, rep)| c.absorb(rep));
    c
}

/// `(per-job pass cost ms, report)`, cheapest first.
fn backfill_legs() -> Vec<(u64, DayReport)> {
    let trace = ablation_trace();
    [40u64, 450, 1_500, 3_000]
        .into_iter()
        .map(|ms| {
            let mut cfg = DayConfig {
                load: None,
                ..DayConfig::var_paper(9)
            };
            cfg.slurm.bf_per_job_cost = SimDuration::from_millis(ms);
            (ms, run_day(&trace, cfg))
        })
        .collect()
}

fn backfill_checks(legs: &[(u64, DayReport)]) -> Claims {
    let used: Vec<f64> = legs
        .iter()
        .map(|(_, rep)| rep.slurm_level().used_share * 100.0)
        .collect();
    let mut c = Claims::default();
    c.check(
        "coverage does not rise with the per-job cost",
        used.windows(2).all(|w| w[1] <= w[0]),
    );
    c.check(
        "coverage falls >= 10 pp from 40 ms to 3 s per job",
        used[0] - used[used.len() - 1] >= 10.0,
    );
    c
}

/// Scheduler fill-up window the backlog row excludes from its samples.
const WARMUP_MINS: u64 = 45;

/// Emergent idleness: instead of replaying a calibrated idle trace, a
/// generated HPC job stream (Fig. 2's distributions) feeds the
/// scheduler through a backlog source, and utilization, fragmentation
/// and idleness emerge from EASY backfill itself; the fib manager's
/// pilots harvest the emergent gaps, their invokers warming up and
/// draining through the DES FaaS plane (no client load). This exercises
/// what the trace-driven days barely touch: multi-node placement,
/// future-start reservations, short jobs backfilled ahead of blocked
/// wide ones, and preemption by unpredictable job completions. One seed
/// at `quick`, three at full, one core each; every check holds on every
/// seed.
fn backlog(quick: bool) -> Claims {
    let (n_nodes, hours, seeds): (_, _, &[u64]) = if quick {
        (200, 2, &[2022])
    } else {
        (1_000, 12, &[2022, 2023, 2024])
    };
    let runs: Vec<(u64, DayReport)> = seeds
        .par_iter()
        .map(|&seed| (seed, backlog_day(seed, n_nodes, hours)))
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

    let mut claims = Claims::default();
    claims.fig("utilization %", 99.0, utilization * 100.0);
    let every = |f: &dyn Fn(&DayReport) -> bool| runs.iter().all(|(_, r)| f(r));
    claims.check(
        "reservations exercised",
        every(&|r| r.cluster_counters.reservations_made > 0),
    );
    claims.check(
        "pilots harvest emergent gaps",
        every(&|r| settled_level(r).used_share > 0.5),
    );
    claims.check(
        "prime jobs preempt pilots",
        every(&|r| r.cluster_counters.pilots_preempted > 0),
    );
    claims.note = Some(DesWork::of(rep).summary());
    runs.iter().for_each(|(_, r)| claims.absorb(r));
    claims
}

/// One backlog day, fully determined by `seed`: a generated HPC job
/// stream on `n_nodes`, harvested by the fib manager's pilots.
fn backlog_day(seed: u64, n_nodes: usize, hours: u64) -> DayReport {
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
    coverage::slurm_level(&rep.samples[rep.samples.partition_point(|s| s.t < from)..])
}

/// One day of the week sweep, as the `week` row keeps it.
struct SweepDay {
    /// Index into the sweep's cluster list.
    cluster: usize,
    /// Day of the week, 0-based.
    dow: u64,
    /// Slurm-level used share of the available time.
    coverage: f64,
    /// The clairvoyant (offline greedy, set A1) bound of `coverage`.
    clairvoyant: f64,
    /// Time-average available nodes.
    avail: f64,
    work: DesWork,
}

impl SweepDay {
    /// Worst prime-demand delay (s): the invasiveness bound.
    fn delay(&self) -> f64 {
        self.work.scheduler.demand_delay_secs.max().unwrap_or(0.0)
    }
}

/// The sweep's clusters: `(label, nodes, target average idle nodes)`.
const QUICK_CLUSTERS: [(&str, usize, f64); 2] = [("quick-250", 250, 4.0), ("quick-120", 120, 2.5)];
const FULL_CLUSTERS: [(&str, usize, f64); 3] = [
    ("prometheus-2239", 2_239, 10.3),
    ("half-1120", 1_120, 5.2),
    // A busier quarter: half the idle surface.
    ("busy-2239", 2_239, 5.0),
];

/// The worker count the rayon fan-out will use — the `RAYON_NUM_THREADS`
/// pin when set (the multicore CI job's cores→days/s curve), else every
/// available core.
fn worker_count() -> usize {
    std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(nproc)
}

/// §VII future work ("evaluate and characterize the quantity of unused
/// resources in longer periods of time"): fib harvests over weeks of
/// the Fig. 1 idle process, each day its own seeded run as the paper's
/// experiment days were, on three clusters × 4 weeks × 3 seeds (two
/// small clusters × 1 week × 2 seeds at `quick`) through the parallel
/// day driver. Reports per day-of-week coverage with error bars across
/// weeks × seeds, and ends on the end-to-end days/s line the multicore
/// CI job reads.
fn week_sweep(quick: bool) -> Claims {
    let began = std::time::Instant::now();
    let (weeks, seeds, shapes): (_, &[u64], &[_]) = if quick {
        (1, &[11, 23], &QUICK_CLUSTERS)
    } else {
        (4, &[11, 23, 47], &FULL_CLUSTERS)
    };
    let cfg = SweepConfig {
        weeks,
        seeds: seeds.to_vec(),
    };
    let clusters: Vec<SweepCluster> = shapes
        .iter()
        .map(|&(label, n_nodes, avg_idle)| {
            let mut model = IdleModel::prometheus_week();
            (model.n_nodes, model.target_avg_idle) = (n_nodes, avg_idle);
            SweepCluster {
                label: label.into(),
                model,
            }
        })
        .collect();

    section(&format!(
        "Week-scale sweep: {} clusters x {} weeks x {} seeds ({} day-runs)",
        clusters.len(),
        cfg.weeks,
        cfg.seeds.len(),
        clusters.len() as u64 * cfg.weeks * 7 * cfg.seeds.len() as u64
    ));
    let wall = std::time::Instant::now();
    // Each trace is generated, its seeds simulated and every day
    // reduced to a `SweepDay` inside one parallel map.
    let days = run_week_sweep(&clusters, &cfg, |cluster, dow, rep| {
        let slurm = rep.slurm_level();
        SweepDay {
            cluster,
            dow,
            coverage: slurm.used_share,
            clairvoyant: rep.simulation(lengths::A1.to_vec()).coverage(),
            avail: slurm.avg_available,
            work: DesWork::of(rep),
        }
    });
    let secs = wall.elapsed().as_secs_f64();
    println!(
        "simulated {} day-runs in {:.0} ms on {} worker(s): {:.2} days/s",
        days.len(),
        secs * 1e3,
        worker_count(),
        days.len() as f64 / secs
    );

    // Per (cluster, day-of-week): mean ± stddev across weeks × seeds.
    println!(
        "cluster          | dow | coverage % (mean ± sd) | clairvoyant % | avail avg | max delay s"
    );
    let mut overall = vec![OnlineStats::new(); clusters.len()];
    for (ci, cl) in clusters.iter().enumerate() {
        for dow in 0..7u64 {
            let mut cov = OnlineStats::new();
            let mut clair = OnlineStats::new();
            let mut avail = OnlineStats::new();
            let mut delay = 0.0f64;
            for d in days.iter().filter(|d| d.cluster == ci && d.dow == dow) {
                cov.add(d.coverage * 100.0);
                clair.add(d.clairvoyant * 100.0);
                avail.add(d.avail);
                delay = delay.max(d.delay());
                overall[ci].add(d.coverage * 100.0);
            }
            if cov.count() > 0 {
                println!(
                    "{:<16} | {dow:>3} | {:>12.1} ± {:>4.1} | {:>13.1} | {:>9.2} | {:>11.1}",
                    cl.label,
                    cov.mean(),
                    cov.stddev(),
                    clair.mean(),
                    avail.mean(),
                    delay
                );
            }
        }
    }
    section("Sweep summary");
    for (cl, stats) in clusters.iter().zip(&overall) {
        println!(
            "{:<16} coverage {:.1}% ± {:.1} over {} day-runs (min {:.1}, max {:.1})",
            cl.label,
            stats.mean(),
            stats.stddev(),
            stats.count(),
            stats.min().unwrap_or(0.0),
            stats.max().unwrap_or(0.0)
        );
    }
    let worst_delay = days.iter().map(SweepDay::delay).fold(0.0, f64::max);
    println!(
        "\nworst prime-demand delay anywhere in the sweep: {worst_delay:.1} s \
         (the paper's invasiveness bound is 3 minutes + handover latency)"
    );
    let secs = began.elapsed().as_secs_f64();
    println!(
        "end to end (generate -> simulate -> report): {} day-runs in {secs:.3} s \
         on {} worker(s), nproc {}: {:.2} days/s",
        days.len(),
        worker_count(),
        nproc(),
        days.len() as f64 / secs
    );

    let mut c = Claims::default();
    c.check(
        "every day within 5 pp of its clairvoyant bound",
        days.iter()
            .all(|d| (d.coverage - d.clairvoyant).abs() <= 0.05),
    );
    c.check("worst prime-demand delay <= 200 s", worst_delay <= 200.0);
    days.iter().for_each(|d| c.work.absorb(&d.work));
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::outcome::Violation;

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
            // A row that simulates days ends on its books, and a rule
            // they break fails the row by name.
            let work = &mut claims.work;
            assert_eq!(work.days > 0, work.events_dispatched > 0, "{}", row.name);
            let mut planted = vec![format!("{}: planted", row.name)];
            if work.days > 0 {
                let (accepted, accounted) = (work.requests.accepted, work.requests.accepted + 1);
                work.books.push(Violation::Unfinished {
                    accepted,
                    accounted,
                });
                planted.push(format!("{}: {BOOKS}", row.name));
            }
            claims.check("planted", false);
            assert_eq!(report(row, &claims), planted);
        }
    }

    fn any_fails(claims: Claims) -> bool {
        claims.checks.iter().any(|(_, holds)| !holds)
    }

    /// Each ablation's checks read its legs' reports: handed the legs
    /// swapped (baseline as the paper's, uniform as longest-first, 1 s
    /// grace as 5 s, 3 s per job as 40 ms), every study's verdict fails.
    #[test]
    fn each_ablation_check_fails_on_its_swapped_legs() {
        let [paper, baseline] = drain_legs();
        assert!(any_fails(drain_checks(&baseline, &paper)));
        let [longest, uniform] = priority_legs();
        assert!(any_fails(priority_checks(&uniform, &longest)));
        let mut legs = grace_legs();
        legs.swap(0, 1);
        (legs[0].0, legs[1].0) = (1, 5);
        assert!(any_fails(grace_checks(&legs)));
        let mut legs = backfill_legs();
        legs.swap(0, 3);
        (legs[0].0, legs[3].0) = (40, 3_000);
        assert!(any_fails(backfill_checks(&legs)));
    }

    /// Each `wrapper` check fails on its planted input: a client call
    /// the books lose, a 503 without its commercial retry at cool-off 0,
    /// and the legs in reverse under their cool-off labels.
    #[test]
    fn each_wrapper_check_fails_on_its_planted_input() {
        let holds = |legs: &[_]| -> Vec<bool> {
            wrapper_checks(legs)
                .checks
                .into_iter()
                .map(|(_, h)| h)
                .collect()
        };
        let mut legs = wrapper_legs(true);
        assert_eq!(holds(&legs), [true; 3]);
        legs[2].1.offered += 1;
        assert_eq!(holds(&legs), [false, true, true]);
        legs[2].1.offered -= 1;
        legs[0].1.whisk_counters.rejected_503 += 1;
        assert_eq!(holds(&legs), [true, false, true]);
        legs[0].1.whisk_counters.rejected_503 -= 1;
        legs.reverse();
        legs.iter_mut()
            .zip(COOLOFFS)
            .for_each(|(leg, secs)| leg.0 = secs);
        // The 300 s leg now sits at cool-off 0 too.
        assert_eq!(holds(&legs), [true, false, false]);
    }

    /// `--metrics-out` over the `backlog` row carries the DES work
    /// families, counted.
    #[test]
    fn the_backlog_exposition_counts_dispatched_events() {
        let row = ROWS.iter().find(|r| r.name == "backlog").expect("a row");
        let text = scheduler_exposition(&(row.run)(true).work);
        let dispatched = text
            .lines()
            .find_map(|l| l.strip_prefix("des_events_dispatched_total "))
            .unwrap_or_else(|| panic!("no des_events_dispatched_total in:\n{text}"));
        assert!(dispatched.parse::<u64>().expect("a count") > 0, "{text}");
    }
}
