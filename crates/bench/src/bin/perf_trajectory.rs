//! Perf-trajectory probe: the micro-probes next to the repo benchmark.
//! It times the hot paths the benchmark cannot see — scheduler passes
//! at production scale, the `mq` topic, the FaaS model's latency draw, the
//! offline simulator, the gateway's submitter and closed-loop
//! throughput, the cores→days/s scaling of `run_days` — and the allocator calls of the two seed-7 days the
//! benchmark runs, and records them in `BENCH_results.json`.
//!
//! ```text
//! perf_trajectory [output.json] [--filter PREFIX] [--check]
//! ```
//!
//! Every probe is one row of [`rows`]: a name, a sample count and one
//! sample, which builds its fixture outside the measured region and
//! returns the operation's [`Cost`] per op — wall-clock ns and calls to
//! the allocator (this binary's global allocator counts them). One loop
//! runs the rows whose name starts with `--filter PREFIX` (e.g.
//! `scheduler/`) and keeps the **minimum** over each row's samples: on a
//! shared host the best-case run is the reproducible one, and an
//! algorithmic regression slows it too. Without `--check` the minima are
//! written to the output file (default `BENCH_results.json`); with it
//! nothing is written, and the process exits nonzero when a row's ns/op
//! is more than 25 % above the checked-in figure (allocs/op are printed
//! beside it, not gated). Writing and checking use the one estimator, so
//! the file holds what the gate compares against. Absolute numbers are
//! machine-dependent; the file is a trajectory read on a host with the
//! `nproc` it records.

use cluster::{ClusterEvent, ClusterSim};
use gateway::{
    run_load, run_load_with_controller, ActionSpec, CapacityController, ControllerConfig, Gateway,
    GatewayConfig, HarnessConfig,
};
use hpcwhisk_bench::{loaded_cluster, steady_passes, warmed_cluster};
use hpcwhisk_core::offline::{simulate, OfflineConfig};
use hpcwhisk_core::{
    lengths, run_day, run_days, DayConfig, DesLeaseSource, DesSourceCfg, IdleSource, ManagerKind,
    SizerCfg, WarmupModel,
};
use mq::Topic;
use simcore::{Outbox, SimDuration, SimRng, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;
use whisk::{Jitter, WhiskConfig};
use workload::{IdleModel, PoissonLoadGen};

/// Calls to the allocator (`alloc` and `realloc`) since the start.
static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting calls.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a statistic
// and publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Relaxed);
        // SAFETY: the caller's `layout` is passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Relaxed);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What an operation costs: wall-clock ns and allocator calls.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Cost {
    ns: f64,
    allocs: f64,
}

impl Cost {
    fn per(self, ops: f64) -> Cost {
        Cost {
            ns: self.ns / ops,
            allocs: self.allocs / ops,
        }
    }

    /// Componentwise: the estimator of every row.
    fn min(self, o: Cost) -> Cost {
        Cost {
            ns: self.ns.min(o.ns),
            allocs: self.allocs.min(o.allocs),
        }
    }
}

/// One probe: `samples` calls of `sample`, each returning the cost per op.
struct Row {
    name: &'static str,
    samples: usize,
    sample: Box<dyn FnMut() -> Cost>,
}

fn row(name: &'static str, samples: usize, sample: impl FnMut() -> Cost + 'static) -> Row {
    Row {
        name,
        samples,
        sample: Box::new(sample),
    }
}

/// The cost of `op`; its result is dropped inside the measured region.
fn cost<O>(op: impl FnOnce() -> O) -> Cost {
    let calls = ALLOC_CALLS.load(Relaxed);
    let t = Instant::now();
    black_box(op());
    Cost {
        ns: t.elapsed().as_nanos() as f64,
        allocs: (ALLOC_CALLS.load(Relaxed) - calls) as f64,
    }
}

/// A sample of `routine` on `iters` fresh `setup` outputs, per op when
/// one routine call is `ops` ops. The routine takes its input by
/// `&mut`, so building and dropping fixtures stay outside the measured
/// region.
fn timed<I, O>(
    iters: usize,
    ops: f64,
    mut setup: impl FnMut() -> I,
    mut routine: impl FnMut(&mut I) -> O,
) -> impl FnMut() -> Cost {
    move || {
        let mut inputs: Vec<I> = (0..iters).map(|_| setup()).collect();
        cost(|| inputs.iter_mut().for_each(|i| drop(black_box(routine(i))))).per(iters as f64 * ops)
    }
}

/// A sample over a fixture built on the first call and kept for the
/// rest (a trace, a batch of days).
fn once<F>(build: impl Fn() -> F, mut sample: impl FnMut(&F) -> Cost) -> impl FnMut() -> Cost {
    let mut fixture = None;
    move || sample(fixture.get_or_insert_with(&build))
}

/// Invoker-thread count of the gateway probes; the row names are
/// spelled to match, so keep them in sync if this ever changes.
const GATEWAY_PROBE_INVOKERS: usize = 8;

/// One serving-plane run: a live gateway (default config, 16 SeBS no-op
/// actions, 8 invokers) driven flat out through the closed-loop harness
/// at `submitters` parallel submitters; the cost per completed request,
/// its ns read off the sustained throughput. With `des` the 8 invokers
/// are the pinned floor of a capacity controller running a live
/// [`DesLeaseSource`]: the cluster DES steps to the wall clock in the
/// background, feedback windows flow every 20 ms, and the pilots the
/// load-sized manager places churn grants and revokes on top, so the
/// plane pays for the whole closed loop. Lossless, and the DES must
/// actually grant.
fn gateway_run(submitters: usize, des: bool) -> Cost {
    let actions = (0..16).map(|i| ActionSpec::noop(&format!("fn-{i}")));
    let gw = Gateway::new(GatewayConfig::default(), actions.collect());
    let horizon = SimDuration::from_secs(if des { 400 } else { 200 });
    let arrivals = PoissonLoadGen::new(1_000.0, 16).arrivals(horizon, 42);
    let harness = HarnessConfig {
        speedup: 0.0, // flat out: measure the plane, not the schedule
        max_inflight: 1_024,
        submitters,
        ..Default::default()
    };
    let ctl = des.then(|| {
        let src = DesLeaseSource::new(DesSourceCfg {
            idle: IdleSource::Empty {
                n_nodes: 8,
                horizon: SimDuration::from_hours(1), // 3 s wall: outlives the run
            },
            seed: 7,
            speedup: 1_200.0,
            max_leases: 4,
            floor: GATEWAY_PROBE_INVOKERS,
            warmup: WarmupModel::instant(),
            manager: ManagerKind::LoadSized {
                sizer: SizerCfg {
                    rate_per_invoker: 100_000.0,
                    headroom: 1.0,
                    backlog_per_invoker: 1e12,
                    min_invokers: 1,
                    max_invokers: 4,
                    alpha: 0.5,
                },
                pilot_len: SimDuration::from_mins(10), // 0.5 s wall: churns mid-run
            },
        });
        let cfg = ControllerConfig {
            feedback_every: Some(std::time::Duration::from_millis(20)),
            ..Default::default()
        };
        CapacityController::from_source(&gw, Box::new(src), cfg, Instant::now())
    });
    if !des {
        for _ in 0..GATEWAY_PROBE_INVOKERS {
            gw.start_invoker();
        }
    }
    let calls = ALLOC_CALLS.load(Relaxed);
    let report = match ctl {
        Some(ctl) => {
            let (report, stats) = run_load_with_controller(&gw, ctl, &arrivals, &harness);
            assert!(
                stats.grants > GATEWAY_PROBE_INVOKERS as u64,
                "the DES never granted a pilot lease on top of the floor"
            );
            report
        }
        None => run_load(&gw, &arrivals, &harness),
    };
    let allocs = (ALLOC_CALLS.load(Relaxed) - calls) as f64;
    assert_eq!(report.lost(), 0, "throughput probe must be lossless");
    gw.shutdown();
    Cost {
        ns: 1e9 / report.throughput,
        allocs: allocs / report.tally.completed as f64,
    }
}

/// Eight independent full-size week days (2,239 nodes, 24 h, coverage
/// only — ~25 ms each, so the fan-out's thread spawn is noise).
fn week_days() -> Vec<(cluster::AvailabilityTrace, DayConfig)> {
    let model = IdleModel::prometheus_week();
    (0..8)
        .map(|i| {
            let trace = model.generate(SimDuration::from_hours(24), 17 + i);
            let mut cfg = DayConfig::fib_paper(i);
            cfg.load = None;
            (trace, cfg)
        })
        .collect()
}

/// Every probe, in the order of the trajectory file.
fn rows() -> Vec<Row> {
    // Steady-state scheduler passes: warmed persistent plane, 8 pilot
    // retire+resubmit events between passes. The plane re-anchors and
    // patches; it never rebuilds. Reported per pass.
    let passes = |ev, churn| timed(3, 60.0, warmed_cluster, steady_passes(ev, churn, 60));
    let churn = |policy| {
        timed(
            3,
            4_096.0,
            || cluster::Timeline::new(SimTime::ZERO, SimDuration::from_mins(2), 60, 2_239),
            // 4,096 indexed placements with releases and window advances
            // mixed in (the canonical shape pinned by the
            // `deterministic_churn_like_the_probe` test); per churn step.
            move |tl: &mut cluster::Timeline| tl.run_deterministic_churn_with(4_096, policy),
        )
    };
    let offline = |hours| {
        once(
            move || IdleModel::prometheus_week().generate(SimDuration::from_hours(hours), 42),
            |trace| cost(|| simulate(trace, &OfflineConfig::table1(lengths::A1.to_vec())).n_jobs),
        )
    };
    // The cores→days/s curve: the same batch of week days through the
    // `run_days` rayon fan-out under a pinned worker count, in ns per
    // simulated day. Per-day results are bit-identical across thread
    // counts; only wall-clock moves. Read the ratio against the file's
    // `nproc`, and on a ≥ 4-core host add a 4-worker row before drawing
    // the curve further.
    let scaling = |threads: usize| {
        once(week_days, move |days| {
            let batch = days.clone();
            std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
            let c = cost(|| run_days(batch)).per(days.len() as f64);
            std::env::remove_var("RAYON_NUM_THREADS");
            c
        })
    };
    // The two seed-7 days the repo benchmark times, one each: ns and
    // allocator calls per simulated day. The counts are a function of
    // the inputs and the standard library's growth policy, not of the
    // host.
    let day = |model: fn() -> IdleModel, load: bool| {
        once(
            move || {
                let mut cfg = DayConfig::fib_paper(7);
                if !load {
                    cfg.load = None;
                }
                (model().generate(SimDuration::from_hours(24), 7), cfg)
            },
            |(trace, cfg)| {
                let cfg = cfg.clone();
                cost(|| run_day(trace, cfg))
            },
        )
    };
    vec![
        row(
            "scheduler/backfill_pass_2239_nodes",
            9,
            passes(ClusterEvent::BackfillPass, 8),
        ),
        row(
            "scheduler/quick_pass_2239_nodes",
            9,
            passes(ClusterEvent::QuickPass, 8),
        ),
        // The settled-pass floor: event-free backfill passes on the
        // warmed cluster. The warming pass settled the queue and nothing
        // has happened since, so each of these is counted and not run —
        // what a `BackfillPass` event costs when there is nothing to
        // decide.
        row(
            "scheduler/persistent_pass_2239_nodes",
            9,
            passes(ClusterEvent::BackfillPass, 0),
        ),
        // One poll is 35 XORs against the previous poll's words plus the
        // few bits that changed (none here), tens of ns — too short a
        // timed region to survive timer granularity, so 64 run per call.
        row(
            "scheduler/poll_sample_2239_nodes",
            9,
            timed(3, 64.0, loaded_cluster, |sim: &mut ClusterSim| {
                (0..64)
                    .map(|_| {
                        let (mut out, mut notes) = (Outbox::new(SimTime::ZERO), Vec::new());
                        sim.handle(SimTime::ZERO, ClusterEvent::Poll, &mut out, &mut notes);
                        notes.len()
                    })
                    .sum::<usize>()
            }),
        ),
        row(
            "scheduler/placement_churn_2239_nodes",
            9,
            churn(cluster::FitPolicy::BestFit),
        ),
        // The FirstFit flavour, pinned since the lowest-populated-bucket
        // hint made it O(1) amortized like BestFit.
        row(
            "scheduler/placement_churn_firstfit_2239",
            9,
            churn(cluster::FitPolicy::FirstFit),
        ),
        row(
            "mq/produce_drain_10k",
            9,
            timed(5, 1.0, Topic::<u64>::new, |t| {
                for i in 0..10_000u64 {
                    t.produce(SimTime::ZERO, i);
                }
                let mut acc = 0u64;
                while !t.is_empty() {
                    acc += t.drain(64).map(|m| m.payload).sum::<u64>();
                }
                acc
            }),
        ),
        // The FaaS model's latency draw, ≈ 10 a request of a fib day:
        // one RNG step and a lookup in the constant's table. Per block
        // of 1,000 draws of `dispatch` (≈ 2 µs), 1 M draws a sample: per
        // draw the row read a whole-ns 2, which the gate's 25 % cannot
        // tell from a rounding step. A sample is 2–3 ms, so 31 of them:
        // with 9 the minimum read 2.0–3.1 ns a draw from run to run.
        row(
            "whisk/latency_draw",
            31,
            timed(
                1,
                1e3,
                || {
                    let j = Jitter::new(WhiskConfig::default().dispatch);
                    (j, SimRng::seed_from_u64(7))
                },
                |(j, rng)| (0..1_000_000).map(|_| j.draw(rng).as_millis()).sum::<u64>(),
            ),
        ),
        row("offline/simulate_A1_day", 7, offline(24)),
        row("offline/simulate_A1_week", 7, offline(24 * 7)),
        // The gateway's submitter curve — the batched flat-out shape at
        // 1, 2 and 4 parallel submitters (admission CAS lines, router
        // shards and queue locks under multi-thread pressure) — and the
        // closed-loop DES-fed shape at 1 and 2 submitters (at 2 both also
        // collect, so the shared completion buffer runs contended). On a
        // single CPU the curve is flat; it catches contention that makes
        // N submitters *slower* than one. Latency at a stated load,
        // saturation throughput and serving through lease churn are the
        // benchmark's `gw_open_noop`, `gw_saturate_noop` and
        // `gw_churn_sleep`.
        row("gateway/throughput_batched_8inv_noop_1sub", 5, || {
            gateway_run(1, false)
        }),
        row("gateway/throughput_batched_8inv_noop_2sub", 5, || {
            gateway_run(2, false)
        }),
        row("gateway/throughput_batched_8inv_noop_4sub", 5, || {
            gateway_run(4, false)
        }),
        row("gateway/throughput_closed_loop_8inv_noop", 5, || {
            gateway_run(1, true)
        }),
        row("gateway/throughput_closed_loop_8inv_noop_2sub", 5, || {
            gateway_run(2, true)
        }),
        row("scaling/run_days_8wk_1t", 5, scaling(1)),
        row("scaling/run_days_8wk_2t", 5, scaling(2)),
        row(
            "alloc/week_day_seed7",
            5,
            day(IdleModel::prometheus_week, false),
        ),
        row("alloc/fib_day_seed7", 3, day(IdleModel::fib_day, true)),
    ]
}

/// Strict reader of the trajectory file: exactly the layout
/// [`render_trajectory`] writes — `"nproc": N` (the cores of the host
/// the rows were read on, which the `scaling/` rows mean nothing
/// without), then one `{"name": "…", "ns_per_op": N, "ops_per_sec":
/// N.NN, "allocs_per_op": N.NN}` line per probe inside `"probes": […]`
/// — with plain decimal numbers, a positive `nproc` and a positive
/// `ns_per_op`. Everything it accepts is JSON any parser reads (no
/// `inf`, no `NaN`), so it serves as the `--check` baseline reader, as
/// the writer's gate and as the test of the checked-in file. Returns the
/// name and cost per probe. Hand-rolled: the workspace has no JSON
/// crate.
fn parse_trajectory(text: &str) -> Result<Vec<(String, Cost)>, String> {
    // A JSON integer: digits, no leading zero.
    let int = |t: &str| {
        !t.is_empty() && t.bytes().all(|b| b.is_ascii_digit()) && (t == "0" || !t.starts_with('0'))
    };
    // An integer, a point, at least one digit.
    let fixed = |t: &str| {
        t.split_once('.').is_some_and(|(whole, frac)| {
            int(whole) && !frac.is_empty() && frac.bytes().all(|b| b.is_ascii_digit())
        })
    };
    let (nproc, body) = text
        .strip_prefix("{\n  \"nproc\": ")
        .and_then(|t| t.strip_suffix("  ]\n}\n"))
        .and_then(|t| t.split_once(",\n  \"probes\": [\n"))
        .ok_or("not a {\"nproc\": N, \"probes\": [...]} document in the writer's layout")?;
    if !int(nproc) || nproc == "0" {
        return Err(format!("nproc `{nproc}` is not a positive integer"));
    }
    let n = body.lines().count();
    let mut out = Vec::with_capacity(n);
    for (i, line) in body.lines().enumerate() {
        let fields = || {
            let rest = line.strip_prefix("    {\"name\": \"")?;
            let (name, rest) = rest.split_once("\", \"ns_per_op\": ")?;
            let (ns, rest) = rest.split_once(", \"ops_per_sec\": ")?;
            let (ops, rest) = rest.split_once(", \"allocs_per_op\": ")?;
            let allocs = rest.strip_suffix(if i + 1 < n { "}," } else { "}" })?;
            let ok = !name
                .chars()
                .any(|c| c == '"' || c == '\\' || c.is_control())
                && int(ns)
                && ns != "0"
                && fixed(ops)
                && fixed(allocs);
            let cost = Cost {
                ns: ns.parse().ok()?,
                allocs: allocs.parse().ok()?,
            };
            ok.then(|| (name.to_string(), cost))
        };
        out.push(fields().ok_or_else(|| format!("line {}: `{line}`", i + 3))?);
    }
    Ok(out)
}

/// Render the trajectory document. Refuses (instead of printing) any
/// row the strict parser would not read back — a non-finite or negative
/// figure, or an ns/op that rounds to zero and so an infinite
/// `ops_per_sec`.
fn render_trajectory(rows: &[(&str, Cost)], nproc: usize) -> Result<String, String> {
    let mut json = format!("{{\n  \"nproc\": {nproc},\n  \"probes\": [\n");
    for (i, (name, c)) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{name}\", \"ns_per_op\": {:.0}, \"ops_per_sec\": {:.2}, \"allocs_per_op\": {:.2}}}{}\n",
            c.ns,
            1e9 / c.ns,
            c.allocs,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    parse_trajectory(&json)?;
    Ok(json)
}

fn main() {
    let mut out_path = "BENCH_results.json".to_string();
    let mut filter: Option<String> = None;
    let mut check = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--check" => check = true,
            "--filter" => {
                filter = Some(args.next().unwrap_or_else(|| {
                    eprintln!("error: --filter needs a prefix");
                    std::process::exit(2);
                }));
            }
            _ => out_path = a,
        }
    }
    // The rows run before anything that differs between writing and
    // checking. A row that allocates reads up to 3× faster or slower
    // depending on what the heap held before it (the topic's 10 k-record
    // log, when freeing it returns the pages to the kernel), so both
    // modes reach the rows with the same heap.
    let results: Vec<(&str, Cost)> = rows()
        .into_iter()
        .filter(|r| filter.as_deref().is_none_or(|p| r.name.starts_with(p)))
        .map(|mut r| {
            let samples = (0..r.samples).map(|_| (r.sample)());
            (
                r.name,
                samples.reduce(Cost::min).expect("a row takes samples"),
            )
        })
        .collect();
    if results.is_empty() {
        eprintln!("error: no probe matches the filter");
        std::process::exit(2);
    }

    // Each minimum beside the checked-in figure (a delta > 1 is a
    // speed-up), gated at 25 % slower. The baseline is always the
    // checked-in file, never a previous run's scratch output, so a
    // repeated run to the same path cannot mask drift.
    let baseline = match std::fs::read_to_string("BENCH_results.json") {
        Ok(text) => parse_trajectory(&text).unwrap_or_else(|e| {
            eprintln!("error: BENCH_results.json is not a strict trajectory document: {e}");
            std::process::exit(2);
        }),
        Err(_) => Vec::new(),
    };
    eprintln!(
        "{:<46} {:>12} {:>12} {:>7} {:>21}",
        "probe", "old ns", "new ns", "delta", "allocs/op old -> new"
    );
    let mut regressions = Vec::new();
    for &(name, new) in &results {
        let old = baseline.iter().find(|(n, _)| n == name).map(|(_, c)| *c);
        let (old_ns, delta, old_allocs) = match old {
            Some(old) => (
                format!("{:.0}", old.ns),
                format!("{:.2}x", old.ns / new.ns),
                format!("{:.2}", old.allocs),
            ),
            None => ("-".into(), "new".into(), "-".into()),
        };
        let marker = match old {
            Some(old) if new.ns > old.ns * 1.25 => {
                regressions.push(name);
                "  <-- regression"
            }
            _ => "",
        };
        eprintln!(
            "{name:<46} {old_ns:>12} {:>12.0} {delta:>7} {old_allocs:>11} -> {:>6.2}{marker}",
            new.ns, new.allocs
        );
    }

    if !check {
        let json = render_trajectory(&results, hpcwhisk_bench::nproc()).unwrap_or_else(|e| {
            eprintln!("error: refusing to write {out_path}: {e}");
            std::process::exit(1);
        });
        std::fs::write(&out_path, json).expect("write results file");
        eprintln!("\nwrote {out_path}");
    } else if regressions.is_empty() {
        eprintln!("\ncheck passed: no probe regressed >25%");
    } else {
        eprintln!("\nregressed >25%: {}", regressions.join(", "));
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CHECKED_IN: &str = include_str!("../../../../BENCH_results.json");

    #[test]
    fn checked_in_trajectory_is_strict_json() {
        let probes = parse_trajectory(CHECKED_IN).expect("BENCH_results.json parses strictly");
        assert!(probes.iter().all(|(_, c)| c.ns > 0.0 && c.allocs >= 0.0));
    }

    /// A row added, renamed or retired without re-recording the file
    /// fails here.
    #[test]
    fn the_table_and_the_checked_in_file_name_the_same_rows() {
        let declared: Vec<&str> = rows().iter().map(|r| r.name).collect();
        let recorded = parse_trajectory(CHECKED_IN).expect("BENCH_results.json parses strictly");
        let recorded: Vec<&str> = recorded.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(declared, recorded);
    }

    #[test]
    fn writer_and_parser_refuse_what_json_does_not_have() {
        let doc = |ns: &str, ops: &str, allocs: &str| {
            format!(
                "{{\n  \"nproc\": 2,\n  \"probes\": [\n    {{\"name\": \"p\", \"ns_per_op\": {ns}, \"ops_per_sec\": {ops}, \"allocs_per_op\": {allocs}}}\n  ]\n}}\n"
            )
        };
        let cost = |ns, allocs| Cost { ns, allocs };
        assert_eq!(
            parse_trajectory(&doc("12", "83333333.33", "0.50")),
            Ok(vec![("p".to_string(), cost(12.0, 0.5))])
        );
        // What the old writer printed for a 0-valued probe, and friends.
        for (ns, ops) in [
            ("0", "inf"),
            ("0", "1.00"),
            ("NaN", "1.00"),
            ("inf", "0.00"),
        ] {
            assert!(
                parse_trajectory(&doc(ns, ops, "0.00")).is_err(),
                "{ns} {ops}"
            );
        }
        for ns in ["01", "1.5", "-1", "1e3", ""] {
            assert!(parse_trajectory(&doc(ns, "1.00", "0.00")).is_err(), "{ns}");
        }
        for allocs in ["1", "-1.00", "NaN", "inf", "01.00", "1.", ""] {
            assert!(
                parse_trajectory(&doc("1", "1.00", allocs)).is_err(),
                "{allocs}"
            );
        }
        assert!(parse_trajectory(&(doc("1", "1.00", "0.00") + "x")).is_err());
        for nproc in ["0", "02", "2.0", "two", ""] {
            let text =
                doc("1", "1.00", "0.00").replace("\"nproc\": 2", &format!("\"nproc\": {nproc}"));
            assert!(parse_trajectory(&text).is_err(), "nproc {nproc}");
        }
        assert_eq!(
            render_trajectory(&[("p", cost(339.4, 2.004))], 2).as_deref(),
            Ok(doc("339", "2946375.96", "2.00").as_str())
        );
        for ns in [0.0, 0.2, f64::INFINITY, f64::NAN] {
            assert!(
                render_trajectory(&[("p", cost(ns, 0.0))], 2).is_err(),
                "{ns}"
            );
        }
        for allocs in [-1.0, f64::INFINITY, f64::NAN] {
            assert!(
                render_trajectory(&[("p", cost(1.0, allocs))], 2).is_err(),
                "{allocs}"
            );
        }
    }
}
