//! The closed loop, live (ISSUE 8 tentpole demo): feedback-driven pilot
//! sizing against the *real* gateway, compared to an equal-invasiveness
//! static replay.
//!
//! Two legs over the **same** diurnal arrival stream:
//!
//! * **feedback** — a [`DesLeaseSource`] steps the cluster DES to the
//!   wall clock while the controller reports each window's observed
//!   load back into a load-sized manager's pilot sizing. Capacity
//!   follows demand: the sizer rides the diurnal swing up to its cap at
//!   the peak and back to the floor in the trough.
//! * **static** — the invasiveness the feedback leg actually spent
//!   (`pilot_leased_node_secs_total`, serving time only) is flattened
//!   into K constant always-on invokers and replayed as a compiled
//!   [`LeasePlan`]. Same node-seconds, no feedback.
//!
//! The claim under test is the paper's §IV cycle in one number: at
//! equal invasiveness the closed loop sheds strictly less, because it
//! concentrates capacity where the demand is instead of spreading it
//! evenly across the day. Both legs must lose nothing (the §III-C drain
//! guarantee) and the pilot books must balance exactly
//! (`pilot_grants_total == pilot_revokes_total` once the horizon closes
//! every lease).
//!
//! `--quick` runs the scaled-down CI shape. `--metrics-out <path>`
//! writes the feedback leg's gateway exposition concatenated with the
//! pilot-plane exposition (`pilot_*` families) — CI greps it for the
//! conservation invariants.
//!
//! Run with: `cargo run --release -p hpcwhisk_bench --bin closed_loop_live [-- flags]`

use cluster::SlurmConfig;
use gateway::{
    run_load_with_controller, ActionBody, ActionSpec, CapacityController, ControllerConfig,
    Gateway, GatewayConfig, HarnessConfig, LeaseEvent, LeaseEventKind, LeasePlan, LeaseStats,
    LoadReport,
};
use hpcwhisk_bench::{arg_value, gateway_exposition, quick_mode, section};
use hpcwhisk_core::{DesLeaseSource, DesSourceCfg, IdleSource, ManagerKind, SizerCfg, WarmupModel};
use simcore::SimDuration;
use std::time::{Duration, Instant};
use workload::{Arrival, DiurnalLoadGen};

/// Node id the static leg's pinned floor invoker lives on, far above
/// the K replayed invokers (mirrors the DES source's floor block).
const STATIC_FLOOR_NODE: u32 = 1_000_000;

struct Scenario {
    /// Wall span of the arrival stream (one diurnal cycle).
    load_wall: f64,
    /// Wall span of the DES horizon — strictly inside the load span, so
    /// the source exhausts (and closes its invasiveness books) while
    /// traffic still flows and both legs serve the tail on the floor.
    horizon_wall: f64,
    /// Simulated horizon; `speedup = horizon / horizon_wall`.
    horizon: SimDuration,
    trough_qps: f64,
    peak_qps: f64,
}

impl Scenario {
    fn new(quick: bool) -> Self {
        let load_wall = if quick { 2.5 } else { 5.0 };
        Scenario {
            load_wall,
            horizon_wall: load_wall * 0.8,
            horizon: SimDuration::from_hours(1),
            trough_qps: 100.0,
            peak_qps: 10_000.0,
        }
    }

    fn speedup(&self) -> f64 {
        self.horizon.as_secs_f64() / self.horizon_wall
    }

    fn arrivals(&self) -> Vec<Arrival> {
        let span = SimDuration::from_secs_f64(self.load_wall);
        DiurnalLoadGen::new(self.trough_qps, self.peak_qps, span, 8).arrivals(span, 11)
    }

    fn gateway(&self) -> Gateway {
        // Sleep bodies, not spin: an invoker serves ~1k req/s of 1 ms
        // I/O-bound work while *yielding* the core, so aggregate
        // capacity scales with the invoker count even on a single-CPU
        // runner — exactly the thing the two legs differ in. The small
        // queue keeps the shed signal sharp at saturation.
        Gateway::new(
            GatewayConfig {
                queue_capacity: 256,
                ..Default::default()
            },
            (0..8)
                .map(|i| {
                    ActionSpec::noop(&format!("fn-{i}"))
                        .with_body(ActionBody::Sleep(Duration::from_millis(1)))
                        .with_cold_start(Duration::from_micros(200))
                })
                .collect(),
        )
    }

    fn harness(&self) -> HarnessConfig {
        // Open loop: arrivals hit the gateway on schedule regardless of
        // how far behind it is — overload must shed, not slip.
        HarnessConfig {
            max_inflight: 1_000_000,
            stall_timeout: Duration::from_secs(30),
            ..Default::default()
        }
    }
}

fn main() {
    let quick = quick_mode();
    let sc = Scenario::new(quick);
    let arrivals = sc.arrivals();
    println!(
        "closed loop live: {} arrivals over {:.1} s wall ({}..{} req/s diurnal), DES horizon {:.0} sim s at {:.0}x",
        arrivals.len(),
        sc.load_wall,
        sc.trough_qps,
        sc.peak_qps,
        sc.horizon.as_secs_f64(),
        sc.speedup(),
    );

    section("feedback leg (DES-driven pilot capacity)");
    let (fb_report, fb_stats, leased_sim_secs, exposition) = feedback_leg(&sc, &arrivals);

    // Equal invasiveness: the serving node-seconds the feedback leg
    // spent, flattened into K constant invokers across the horizon.
    let k = ((leased_sim_secs as f64 / sc.horizon.as_secs_f64()).round() as usize).max(1);
    section(&format!(
        "static leg ({k} constant invokers = {leased_sim_secs} leased node-seconds / {:.0} s horizon)",
        sc.horizon.as_secs_f64()
    ));
    let (st_report, st_stats) = static_leg(&sc, &arrivals, k);

    section("comparison (equal invasiveness)");
    let pct = |part: u64, whole: u64| 100.0 * part as f64 / whole.max(1) as f64;
    println!(
        "  static  : {} sheds ({:.2}% of {}), {} grants, {} deadline drains",
        st_report.shed,
        pct(st_report.shed, st_report.submitted),
        st_report.submitted,
        st_stats.grants,
        st_stats.deadline_drains,
    );
    println!(
        "  feedback: {} sheds ({:.2}% of {}), {} grants, {} deadline drains, {} feedback windows",
        fb_report.shed,
        pct(fb_report.shed, fb_report.submitted),
        fb_report.submitted,
        fb_stats.grants,
        fb_stats.deadline_drains,
        fb_stats.feedbacks,
    );
    assert!(
        st_report.shed > 0,
        "static leg never saturated — the scenario is under-loaded and proves nothing"
    );
    assert!(
        fb_report.shed < st_report.shed,
        "feedback sizing must shed strictly less than static at equal invasiveness: {} vs {}",
        fb_report.shed,
        st_report.shed
    );

    if let Some(path) = arg_value("--metrics-out") {
        std::fs::write(&path, exposition).unwrap_or_else(|e| panic!("--metrics-out {path}: {e}"));
        println!("metrics exposition written to {path}");
    }
    println!(
        "\nclosed loop live OK: sheds {} -> {} (-{:.0}%) at {} leased node-seconds",
        st_report.shed,
        fb_report.shed,
        100.0 * (st_report.shed - fb_report.shed) as f64 / st_report.shed as f64,
        leased_sim_secs,
    );
}

/// The closed loop proper: DES source + load-sized manager behind the
/// controller, feedback windows flowing. Returns the leg's report and
/// stats, the invasiveness it spent (simulated serving node-seconds)
/// and the combined gateway + pilot-plane exposition.
fn feedback_leg(sc: &Scenario, arrivals: &[Arrival]) -> (LoadReport, LeaseStats, u64, String) {
    let src = DesLeaseSource::new(DesSourceCfg {
        // Empty cluster: placement latency is the DES's.
        idle: IdleSource::Empty {
            n_nodes: 16,
            horizon: sc.horizon,
        },
        seed: 8,
        speedup: sc.speedup(),
        max_leases: 12,
        floor: 1,
        // Boot instantly: the comparison is about sizing.
        warmup: WarmupModel::instant(),
        manager: ManagerKind::LoadSized {
            sizer: SizerCfg {
                // Slightly under the ~1k req/s a 1 ms sleep invoker
                // serves: the sizer over-provisions ~10-20%, which is the
                // feedback leg's ramp-lag cushion.
                rate_per_invoker: 850.0,
                headroom: 1.1,
                backlog_per_invoker: 32.0,
                min_invokers: 1,
                max_invokers: 12,
                alpha: 0.5,
            },
            pilot_len: SimDuration::from_mins(10),
        },
        slurm: SlurmConfig::default(),
    });
    let registry = src.registry().clone();
    let gw = sc.gateway();
    let ctl = CapacityController::from_source(
        &gw,
        Box::new(src),
        ControllerConfig {
            min_routable: 1,
            feedback_every: Some(Duration::from_millis(40)),
            ..Default::default()
        },
        Instant::now(),
    );
    let (mut report, stats) = run_load_with_controller(&gw, ctl, arrivals, &sc.harness());
    println!("  harness   : {}", report.summary());
    println!(
        "  controller: {} grants, {} deadline drains, {} revokes ({} surprise), {} feedback windows, {} reaped at finish",
        stats.grants,
        stats.deadline_drains,
        stats.revokes,
        stats.surprise_revokes,
        stats.feedbacks,
        stats.reaped_at_finish,
    );
    assert_eq!(report.lost(), 0, "feedback leg lost accepted invocations");
    assert!(report.completed > 0, "feedback leg completed nothing");

    // The books balance exactly once the horizon closes every DES
    // lease: every pilot grant was revoked, nothing is live, and the
    // controller reaps exactly the pinned floor.
    let snap = registry.snapshot();
    let pg = snap.counter("pilot_grants_total", &[]).unwrap_or(0);
    let pr = snap.counter("pilot_revokes_total", &[]).unwrap_or(0);
    let live = snap.gauge("pilot_leases_live", &[]).unwrap_or(-1);
    println!("  pilots    : {pg} grants, {pr} revokes, {live} live at horizon");
    assert!(pg > 0, "the loop never granted pilot capacity");
    assert_eq!(pg, pr, "pilot books must balance at the horizon");
    assert_eq!(live, 0, "pilot_leases_live must read zero at the horizon");
    assert_eq!(
        stats.grants,
        stats.revokes + stats.reaped_at_finish,
        "controller books must balance after finish"
    );
    assert_eq!(stats.reaped_at_finish, 1, "only the floor survives");
    assert!(
        snap.counter("pilot_feedback_windows_total", &[])
            .unwrap_or(0)
            > 0,
        "no feedback window ever reached the sizer"
    );
    let leased = snap
        .counter("pilot_leased_node_secs_total", &[])
        .unwrap_or(0);
    assert!(leased > 0, "no invasiveness recorded");

    // Scrape both planes while they are still alive: the gateway's
    // serving-plane families plus the pilot-plane families.
    let mut exposition = gateway_exposition(&gw);
    exposition.push_str(&metrics::telemetry::render_prometheus(&snap));
    assert_eq!(gw.shutdown(), 0, "requests stranded at shutdown");
    (report, stats, leased, exposition)
}

/// The control: the same node-seconds as K always-on invokers across
/// the horizon (plus the same pinned floor), replayed from a compiled
/// plan with no feedback.
fn static_leg(sc: &Scenario, arrivals: &[Arrival], k: usize) -> (LoadReport, LeaseStats) {
    let horizon_wall = Duration::from_secs_f64(sc.horizon_wall);
    let far = horizon_wall * 1_000;
    let mut events = vec![LeaseEvent {
        at: Duration::ZERO,
        node: STATIC_FLOOR_NODE,
        kind: LeaseEventKind::Grant { deadline: far },
    }];
    for node in 0..k as u32 {
        events.push(LeaseEvent {
            at: Duration::ZERO,
            node,
            kind: LeaseEventKind::Grant {
                deadline: horizon_wall,
            },
        });
        events.push(LeaseEvent {
            at: horizon_wall,
            node,
            kind: LeaseEventKind::Revoke,
        });
    }
    events.sort_by_key(|e| (e.at, e.kind.rank(), e.node));
    let plan = LeasePlan {
        events,
        horizon: far,
        capped_grants: 0,
        floor: 1,
    };
    let gw = sc.gateway();
    let ctl = CapacityController::new(
        &gw,
        plan,
        ControllerConfig {
            min_routable: 1,
            ..Default::default()
        },
        Instant::now(),
    );
    let (mut report, stats) = run_load_with_controller(&gw, ctl, arrivals, &sc.harness());
    println!("  harness   : {}", report.summary());
    println!(
        "  controller: {} grants, {} deadline drains, {} revokes, {} reaped at finish",
        stats.grants, stats.deadline_drains, stats.revokes, stats.reaped_at_finish,
    );
    assert_eq!(report.lost(), 0, "static leg lost accepted invocations");
    assert!(report.completed > 0, "static leg completed nothing");
    assert_eq!(gw.shutdown(), 0, "requests stranded at shutdown");
    (report, stats)
}
