//! The five workloads: what each configures, runs, checks and reports.
//! README.md has the reasoning; the numbers here are the workload
//! definitions and changing one re-bases every result.

use crate::des::{self, DesCfg};
use crate::gw::{self, Capacity, Churn, OpenCfg, OpenOut};
use crate::stats::{median, quantile, quantiles_ns};
use crate::trace::Span;
use crate::{layers, Outcome};
use gateway::{
    ActionBody, ActionSpec, AdmissionPolicy, ControllerConfig, GatewayConfig, TokenBucketCfg,
};
use std::time::{Duration, Instant};
use workload::IdleModel;

/// Set-up is repeated in a run and its median reported: at least
/// `SETUP_MIN_REPS` times and for `SETUP_MIN_TIME` (a set-up of a
/// fraction of a millisecond needs hundreds of repeats before its
/// median stops moving), at most `SETUP_MAX_REPS` times.
const SETUP_MIN_REPS: usize = 15;
const SETUP_MAX_REPS: usize = 300;
const SETUP_MIN_TIME: Duration = Duration::from_millis(150);
/// Share of requests the generator may be > 1 ms late on before the run
/// no longer offered the stated load.
const MAX_LATE_SHARE: f64 = 0.02;

/// Distinct simulated days in a DES run: few enough that 20 s run each
/// four to five times (a fib day takes 1.2 s, a week-model day 0.45 s),
/// because it is the best of a day's repeats that is reported (see
/// `des::run`).
const FIB_DAYS: usize = 4;
const WEEK_DAYS: usize = 8;

pub fn run(name: &str, seed: u64, seconds: f64, traced: bool, process_start: Instant) -> Outcome {
    match name {
        "gw_open_noop" => gw_open(&open_noop_cfg(100_000.0), seed, seconds, traced),
        "gw_churn_sleep" => gw_open(&churn_sleep_cfg(), seed, seconds, traced),
        "gw_saturate_noop" => gw_saturate(seed, seconds, traced),
        "des_fib_load" => des_days(
            DesCfg {
                model: IdleModel::fib_day(),
                with_load: true,
                seed,
                days: FIB_DAYS,
                idle_node_hours: 285.0,
            },
            seconds,
            traced,
            process_start,
        ),
        "des_week_sched" => des_days(
            DesCfg {
                model: IdleModel::prometheus_week(),
                with_load: false,
                seed,
                days: WEEK_DAYS,
                idle_node_hours: 191.0,
            },
            seconds,
            traced,
            process_start,
        ),
        other => unreachable!("{other} is not in spec::WORKLOADS"),
    }
}

/// Run `setup` repeatedly (see [`SETUP_MIN_REPS`]); return the median
/// wall time in seconds, how many repeats it is the median of, and the
/// last result (earlier ones go to `discard`, untimed).
fn timed_setup<T>(mut setup: impl FnMut() -> T, mut discard: impl FnMut(T)) -> (f64, usize, T) {
    let mut walls = Vec::new();
    let mut kept = None;
    let mut spent = Duration::ZERO;
    while walls.len() < SETUP_MIN_REPS || (spent < SETUP_MIN_TIME && walls.len() < SETUP_MAX_REPS) {
        let t = Instant::now();
        let made = setup();
        let wall = t.elapsed();
        spent += wall;
        walls.push(wall.as_secs_f64());
        if let Some(old) = kept.replace(made) {
            discard(old);
        }
    }
    let reps = walls.len();
    (median(&mut walls), reps, kept.expect("at least one repeat"))
}

const NOOP_ACTIONS: usize = 16;
/// The closed loop's invokers: its one client thread never parks, so
/// eight consumers on two cores cost throughput nothing.
const SATURATE_INVOKERS: usize = 8;
/// The open loop's: with eight, ten threads share this box's two cores
/// and the median reads the kernel's placement of them (31–48 µs from
/// run to run); with one it reads the plane (16.2 µs ± 2 %).
const OPEN_NOOP_INVOKERS: usize = 1;

fn noop_actions() -> Vec<ActionSpec> {
    (0..NOOP_ACTIONS)
        .map(|i| ActionSpec::noop(&format!("noop-{i}")))
        .collect()
}

/// 16 uniform no-ops on an invoker that is never revoked. The gateway
/// configuration is the default but for the queue bound: the box stalls
/// every thread for 40–80 ms a few times a minute, which at 100k req/s
/// overruns the default 4,096-deep ring of a single invoker and sheds
/// `QueueFull`; 65,536 rides a stall of 650 ms out.
fn open_noop_cfg(rate: f64) -> OpenCfg {
    OpenCfg {
        rate,
        actions: noop_actions(),
        gateway: GatewayConfig {
            queue_capacity: 1 << 16,
            ..GatewayConfig::default()
        },
        capacity: Capacity::Static(OPEN_NOOP_INVOKERS),
        hybrid_pacer: false,
        limit: Duration::from_millis(1),
        expect_value: 0,
    }
}

const SLEEP_BODY: Duration = Duration::from_millis(2);

/// The paper's scenario: sleep functions served while nodes come and
/// go.
fn churn_sleep_cfg() -> OpenCfg {
    let actions = (0..16)
        .map(|i| {
            ActionSpec::noop(&format!("sleep-{i}"))
                .with_body(ActionBody::Sleep(SLEEP_BODY))
                .with_cold_start(Duration::from_micros(500))
                .with_keepalive(Duration::from_secs(2))
        })
        .collect();
    OpenCfg {
        rate: 1_200.0,
        actions,
        gateway: GatewayConfig {
            pool_slots: 16,
            admission: AdmissionPolicy::TokenBucket(TokenBucketCfg {
                rate_per_invoker: 250.0,
                burst: 16.0,
                max_delay: Duration::from_millis(250),
            }),
            ..GatewayConfig::default()
        },
        capacity: Capacity::Churn(
            Churn {
                floor: 3,
                slots: 3,
                hold: Duration::from_millis(500),
                gap: Duration::from_millis(50),
                early_revoke_frac: 0.4,
                extend_frac: 0.3,
            },
            ControllerConfig {
                drain_headroom: Duration::from_millis(20),
                ..ControllerConfig::default()
            },
        ),
        hybrid_pacer: true,
        limit: Duration::from_millis(10),
        expect_value: SLEEP_BODY.as_nanos() as u64,
    }
}

/// Bring a plane up (timed, repeated), run it open loop, and retry once
/// if the generator itself ran late.
fn open_run(cfg: &OpenCfg, seed: u64, seconds: f64, traced: bool) -> ((f64, usize), OpenOut) {
    let (setup_s, reps, plane) =
        timed_setup(|| gw::bring_up(cfg, seconds, seed), gw::Plane::discard);
    let mut out = gw::open_loop(cfg, plane, traced);
    if !cfg.hybrid_pacer && out.late_share() > MAX_LATE_SHARE {
        eprintln!(
            "   invalid run: generator > 1 ms late on {:.2}% of requests; retrying once",
            out.late_share() * 100.0
        );
        out = gw::open_loop(cfg, gw::bring_up(cfg, seconds, seed), traced);
        if out.late_share() > MAX_LATE_SHARE {
            eprintln!(
                "   WARNING: still {:.2}% late; latencies include generator stalls",
                out.late_share() * 100.0
            );
        }
    }
    ((setup_s, reps), out)
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

/// Every end-to-end number of an open-loop run is the median over its
/// equal one-second windows: the box this runs on stalls every thread
/// for tens of milliseconds a few times a minute, and a whole-run tail
/// or share reads those stalls, not the program.
fn window_medians(windows: &[gw::Window]) -> [f64; 4] {
    let med = |f: fn(&gw::Window) -> f64| median(&mut windows.iter().map(f).collect::<Vec<_>>());
    [
        med(|w| w.p50_us),
        med(|w| w.p99_us),
        med(|w| w.ops_s),
        med(|w| w.served_pct),
    ]
}

fn gw_open(cfg: &OpenCfg, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let ((setup_s, setup_reps), mut out) = open_run(cfg, seed, seconds, traced);
    let mut o = Outcome {
        attempted: out.offered,
        failed: out.failed(),
        problems: out.problems(),
        ..Outcome::default()
    };
    if out.windows.is_empty() {
        o.problems.push("no full window measured".into());
        return o;
    }
    let whole = quantiles_ns(&mut out.latency_ns, &[0.5, 0.99]);
    let [p50, p99, ops_s, served] = window_medians(&out.windows);
    let windows = out.windows.len();
    o.put("setup_s", setup_s, setup_reps);
    o.put("latency_p50_us", p50, windows);
    o.put("throughput_ops_s", ops_s, windows);
    o.put("served_pct", served, windows);
    eprintln!(
        "   offered {} accepted {} delayed {} shed {:?} lost {} cold {} late {:.3}% whole-run p50 {:.1} us p99 {:.1} us",
        out.offered,
        out.accepted,
        out.delayed,
        out.shed,
        out.lost,
        out.cold,
        out.late_share() * 100.0,
        us(whole[0]),
        us(whole[1]),
    );
    if !traced {
        return o;
    }

    // Per-layer numbers, all from the traced run just made.
    let pct = |part: u64, of: u64| 100.0 * part as f64 / of.max(1) as f64;
    stage(
        &mut o,
        &mut out.submit_ns,
        Some("gateway.submit_ns_p50"),
        Some("gateway.submit_ns_p99"),
        1.0,
    );
    stage(
        &mut o,
        &mut out.queue_wait_ns,
        Some("gateway.queue_wait_us_p50"),
        Some("gateway.queue_wait_us_p99"),
        1e3,
    );
    stage(
        &mut o,
        &mut out.service_ns,
        Some("gateway.service_us_p50"),
        None,
        1e3,
    );
    stage(
        &mut o,
        &mut out.collect_lag_ns,
        Some("gateway.collect_lag_us_p50"),
        Some("gateway.collect_lag_us_p99"),
        1e3,
    );
    stage(
        &mut o,
        &mut out.lag_ns,
        Some("gen.lag_us_p50"),
        Some("gen.lag_us_p99"),
        1e3,
    );
    o.put(
        "gen.late_share",
        out.late_share() * 100.0,
        out.offered as usize,
    );
    o.put("gateway.latency_p99_us", p99, windows);
    let collected = out.accepted - out.lost;
    o.put(
        "gateway.collect_batch_mean",
        collected as f64 / out.sweeps.max(1) as f64,
        out.sweeps as usize,
    );
    o.put("gateway.fastlane_moves", out.fastlane_moves as f64, 1);
    let kops = out.offered as f64 / 1e3;
    o.put(
        "gateway.contention_per_kop",
        out.contention as f64 / kops,
        1,
    );
    o.put(
        "admission.delayed_share",
        pct(out.delayed, out.offered),
        out.offered as usize,
    );
    o.put("admission.shed_delay_budget", out.shed[0] as f64, 1);
    o.put("admission.shed_queue_full", out.shed[1] as f64, 1);
    o.put("admission.shed_no_invoker", out.shed[2] as f64, 1);
    o.put("admission.shed_action_saturated", out.shed[3] as f64, 1);
    o.put(
        "pool.cold_share",
        pct(out.cold, collected),
        collected as usize,
    );
    o.put("pool.evictions", out.pool_evictions as f64, 1);
    o.put("telemetry.snapshot_us", out.snapshot_us, 1);
    if let Some(l) = out.lease {
        o.put("controller.grants", l.grants as f64, 1);
        o.put("controller.revokes", l.revokes as f64, 1);
        o.put("controller.deadline_drains", l.deadline_drains as f64, 1);
        o.put("controller.surprise_revokes", l.surprise_revokes as f64, 1);
        o.put(
            "controller.regrants_after_drain",
            l.regrants_after_drain as f64,
            1,
        );
        o.put("lease.invoker_seconds", out.invoker_seconds, 1);
        o.put("lease.min_live", out.min_live as f64, 1);
    }
    put_proc(
        &mut o,
        &out.proc_before,
        &out.proc_after,
        out.offered,
        out.lease.is_some(),
    );

    // What tracing itself costs: the same load for a third of the time
    // with the recorder off, compared on the workload's headline
    // latency. On the churn workload two clock reads vanish behind 2 ms
    // bodies and the difference is run-to-run noise; it is reported for
    // what it is.
    let leg_secs = (seconds / 3.0).max(3.0);
    if let Some(untraced) = leg_p50(cfg, leg_secs, seed, &mut o.problems) {
        o.put("trace.overhead_pct", 100.0 * (p50 / untraced - 1.0), 1);
    }
    if matches!(cfg.capacity, Capacity::Static(_)) {
        // Two more points of the load → latency curve.
        for (name, rate) in [
            ("gateway.p50_us_r25k", 25_000.0),
            ("gateway.p50_us_r400k", 400_000.0),
        ] {
            let c = OpenCfg {
                rate,
                ..cfg.clone()
            };
            if let Some(v) = leg_p50(&c, 3.0, seed, &mut o.problems) {
                o.put(name, v, 2);
            }
        }
    }
    o.spans = out.spans;
    o
}

/// Median and 99th percentile of one stage's samples, under the given
/// metric names, in `scale` nanoseconds per unit.
fn stage(
    o: &mut Outcome,
    v: &mut [u64],
    p50: Option<&'static str>,
    p99: Option<&'static str>,
    scale: f64,
) {
    if v.is_empty() {
        return;
    }
    let q = quantiles_ns(v, &[0.5, 0.99]);
    if let Some(name) = p50 {
        o.put(name, q[0] / scale, v.len());
    }
    if let Some(name) = p99 {
        o.put(name, q[1] / scale, v.len());
    }
}

/// The headline p50 (µs) of one more untraced open-loop leg of `cfg`.
fn leg_p50(cfg: &OpenCfg, seconds: f64, seed: u64, problems: &mut Vec<String>) -> Option<f64> {
    let leg = gw::open_loop(cfg, gw::bring_up(cfg, seconds, seed ^ 0x1e9), false);
    problems.extend(leg.problems());
    (!leg.windows.is_empty()).then(|| window_medians(&leg.windows)[0])
}

fn put_proc(
    o: &mut Outcome,
    before: &crate::stats::ProcSample,
    after: &crate::stats::ProcSample,
    ops: u64,
    threads_come_and_go: bool,
) {
    let ops = ops.max(1) as f64;
    o.put(
        "proc.cpu_us_per_op",
        (after.cpu_us - before.cpu_us) / ops,
        1,
    );
    if !threads_come_and_go {
        // Context switches are summed over live threads, which only
        // means something while the same threads live throughout.
        let per_kop = |a: u64, b: u64| a.saturating_sub(b) as f64 / (ops / 1e3);
        o.put(
            "proc.vol_ctx_switches_per_kop",
            per_kop(after.vol_ctx, before.vol_ctx),
            1,
        );
        o.put(
            "proc.invol_ctx_switches_per_kop",
            per_kop(after.invol_ctx, before.invol_ctx),
            1,
        );
    }
}

fn gw_saturate(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let actions = noop_actions();
    let gateway = GatewayConfig::default();
    let (setup_s, setup_reps, (block, (gw, warm_ids))) = timed_setup(
        || {
            (
                gw::request_block(NOOP_ACTIONS as u32, seed),
                gw::bring_up_static(&gateway, &actions, SATURATE_INVOKERS),
            )
        },
        |(_, (gw, _))| {
            gw.shutdown();
        },
    );
    let out = gw::closed_loop(gw, warm_ids, &block, seconds, traced);
    let mut o = Outcome {
        attempted: out.submitted,
        failed: out.failed(),
        problems: out.problems(),
        ..Outcome::default()
    };
    let mut ops: Vec<f64> = out.block_ops_s.clone();
    let mut p50s: Vec<f64> = out.block_latency_us.iter().map(|b| b.0).collect();
    let mut p99s: Vec<f64> = out.block_latency_us.iter().map(|b| b.1).collect();
    if ops.is_empty() {
        o.problems.push(format!(
            "no full block of {} completions measured",
            gw::BLOCK
        ));
        return o;
    }
    let blocks = ops.len();
    let throughput = median(&mut ops);
    o.put("setup_s", setup_s, setup_reps);
    o.put("latency_p50_us", median(&mut p50s), blocks);
    o.put("throughput_ops_s", throughput, blocks);
    // A closed loop has no due times, so no latency limit applies:
    // served means completed, once, with the right value.
    o.put(
        "served_pct",
        100.0
            * out
                .completed
                .saturating_sub(out.duplicate + out.wrong_value) as f64
            / out.submitted.max(1) as f64,
        out.submitted as usize,
    );
    eprintln!(
        "   submitted {} completed {} shed {} lost {} blocks {} ops/s q1 {:.0} q3 {:.0}",
        out.submitted,
        out.completed,
        out.shed,
        out.lost,
        blocks,
        quantile(&mut ops, 0.25),
        quantile(&mut ops, 0.75),
    );
    if !traced {
        return o;
    }

    o.put(
        "gateway.burst_submit_ns_per_op",
        out.burst_submit_ns as f64 / out.submitted.max(1) as f64,
        out.bursts as usize,
    );
    o.put(
        "gateway.collect_batch_mean",
        out.completed as f64 / out.sweeps.max(1) as f64,
        out.sweeps as usize,
    );
    o.put("gateway.latency_p99_us", median(&mut p99s), blocks);
    o.put(
        "gateway.contention_per_kop",
        out.contention as f64 / (out.submitted as f64 / 1e3),
        1,
    );
    o.put("telemetry.snapshot_us", out.snapshot_us, 1);
    put_proc(
        &mut o,
        &out.proc_before,
        &out.proc_after,
        out.submitted,
        false,
    );
    o.put("ring.produce_pop_ns", layers::ring_produce_pop_ns(), 5);
    o.put("route.pick_ns", layers::route_pick_ns(), 5);
    o.put("telemetry.record_ns", layers::telemetry_record_ns(), 5);

    // Tracing overhead: a shorter leg with the recorder off.
    let (gw, warm_ids) = gw::bring_up_static(&gateway, &actions, SATURATE_INVOKERS);
    let bare = gw::closed_loop(gw, warm_ids, &block, (seconds / 3.0).max(3.0), false);
    o.problems.extend(bare.problems());
    let mut bare_ops = bare.block_ops_s;
    if !bare_ops.is_empty() {
        o.put(
            "trace.overhead_pct",
            100.0 * (median(&mut bare_ops) / throughput.max(1e-9) - 1.0),
            bare_ops.len(),
        );
    }
    // One span per block is all a closed loop has to show: requests
    // are not individually timed.
    o.spans = out
        .block_marks_ns
        .windows(2)
        .enumerate()
        .map(|(i, w)| Span {
            req: i as u64,
            name: "block",
            start_ns: w[0],
            end_ns: w[1],
            parent: None,
        })
        .collect();
    o
}

fn des_days(cfg: DesCfg, seconds: f64, traced: bool, process_start: Instant) -> Outcome {
    let (setup_s, setup_reps, inputs) = timed_setup(|| cfg.inputs(), drop);
    let out = des::run(&cfg, inputs, seconds, traced, process_start);
    eprintln!("   day 0 digest {}", out.day0.digest.render());
    let mut o = Outcome {
        attempted: out.runs,
        failed: out.unrepeated_runs,
        ..Outcome::default()
    };
    eprintln!("   re-run digest {}", out.rerun.render());
    for field in &out.unrepeated {
        o.problems.push(format!("did not repeat: {field}"));
    }
    let mut walls = out.day_best_ms.clone();
    let n = walls.len();
    let p50 = median(&mut walls);
    let (q1, q3) = (quantile(&mut walls, 0.25), quantile(&mut walls, 0.75));
    o.put("setup_s", setup_s, setup_reps);
    // The operation an operator waits for is one simulated day: the
    // median over the run's days of each day's best wall-clock.
    o.put("latency_p50_us", p50 * 1e3, n);
    // Sequential and single-threaded: days per second is the inverse
    // of the median day.
    o.put("throughput_ops_s", 1e3 / p50, n);
    o.put("served_pct", out.day0.served_pct, 1);
    eprintln!(
        "   {} day-runs of {n} days (each at least {} times), best wall ms per day q1 {q1:.1} p50 {p50:.1} q3 {q3:.1}; day 0: used {:.2}% accepted {:.2}% success-of-accepted {:.2}%",
        out.runs, out.min_repeats, out.day0.used_pct, out.day0.accepted_pct, out.day0.success_pct
    );
    if !traced {
        return o;
    }

    let d0 = &out.day0;
    o.put("core.day_wall_ms_p50", p50, n);
    o.put("core.day_wall_ms_q1", q1, n);
    o.put("core.day_wall_ms_q3", q3, n);
    o.put("core.offline_simulate_ms", out.offline_simulate_ms, 1);
    let mut gen = out.trace_gen_ms.clone();
    o.put("workload.trace_gen_ms", median(&mut gen), gen.len());
    o.put("simcore.ns_per_event", layers::simcore_ns_per_event(), 5);
    let mut per_pass = out.us_per_pass.clone();
    o.put("cluster.us_per_pass", median(&mut per_pass), per_pass.len());
    o.put("cluster.passes_per_day", d0.passes(), 1);
    o.put(
        "cluster.quick_skipped_share",
        100.0 * d0.count("quick_passes_skipped") / d0.count("quick_passes").max(1.0),
        1,
    );
    o.put("cluster.placements_per_day", d0.count("pass_placements"), 1);
    o.put(
        "cluster.wheel_reprojected_per_day",
        d0.count("wheel_nodes_reprojected"),
        1,
    );
    o.put(
        "cluster.pilots_started_per_day",
        d0.count("pilots_started"),
        1,
    );
    o.put(
        "cluster.pilots_preempted_per_day",
        d0.count("pilots_preempted"),
        1,
    );
    o.put("cluster.coverage_pct", d0.used_pct, 1);
    o.put("cluster.prime_delay_max_s", d0.prime_delay_max_s, 1);
    if cfg.with_load {
        o.put("core.fidelity_err_pp", d0.fidelity_err_pp, 1);
        let with_load = out.day_best_ms[0];
        o.put(
            "whisk.wall_share",
            100.0 * (1.0 - out.coverage_only_wall_ms / with_load),
            1,
        );
        o.put("whisk.requests_per_day", d0.count("submitted"), 1);
        o.put("whisk.accepted_share", d0.accepted_pct, 1);
        o.put("whisk.success_share", d0.success_pct, 1);
        let starts = d0.count("warm_starts") + d0.count("cold_starts");
        o.put(
            "whisk.cold_share",
            100.0 * d0.count("cold_starts") / starts.max(1.0),
            1,
        );
        o.put("whisk.refired", d0.count("refired"), 1);
    }
    // Nothing is recorded inside `run_day`: a traced day and an
    // untraced day are the same call, so the recorder costs the timed
    // interval nothing.
    o.put("trace.overhead_pct", 0.0, 1);
    o.spans = out.spans;
    o
}
