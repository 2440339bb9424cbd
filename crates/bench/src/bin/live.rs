//! The live plane's scenarios, one table. A row replays load against one
//! or more gateways (its legs), each behind its own lease source, and
//! lists what must hold over the legs. Every leg's gateway ends on
//! `gateway::books::check` over the scrape taken after its shutdown, and
//! a DES-driven leg also on the pilot books (`hpcwhisk_core::live`).
//!
//! - `smoke`: four leases up front; one drains at its deadline ahead of
//!   its revoke, and a fresh grant replaces it;
//! - `day`: the calibrated fib-day availability trace, time-compressed;
//! - `overload`: ~2x overload through the hard shed and the token bucket;
//! - `closed_loop`: DES-driven, load-sized pilots against the same
//!   node-seconds as constant invokers (equal invasiveness).
//!
//! `--quick` is the CI shape, `--row <name>` runs one row, and
//! `--metrics-out <path>` writes every closing scrape. Prints one
//! `books OK` line per gateway; on any violation or failed expectation
//! it lists them all and exits 1.
//!
//! Run with: `cargo run --release -p hpcwhisk_bench --bin live -- --quick`

use gateway::books;
use gateway::{
    floor_grants, run_load, run_load_with_controller, ActionBody, ActionSpec, AdmissionPolicy,
    CapacityController, ControllerConfig, Gateway, GatewayConfig, HarnessConfig, LeaseEvent,
    LeasePlan, LeaseStats, LoadReport, TokenBucketCfg,
};
use hpcwhisk_core::{live, DesLeaseSource, DesSourceCfg, IdleSource, ManagerKind, SizerCfg};
use metrics::outcome::Violation;
use metrics::telemetry::{render_prometheus, Snapshot};
use metrics::{Outcome, Shed};
use simcore::SimDuration;
use std::time::{Duration, Instant};
use workload::{Arrival, DiurnalLoadGen, IdleModel, PoissonLoadGen};

/// One scenario: its legs, built and run in order, and what must hold.
struct Row {
    name: &'static str,
    legs: &'static [(&'static str, LegFn)],
    expect: &'static [(&'static str, Holds)],
}

/// Builds a leg from `--quick` and the legs run before it.
type LegFn = fn(bool, &[Leg]) -> Setup;

/// An expectation over a row's first and last leg.
type Holds = fn(&Leg, &Leg) -> bool;

/// A gateway, where its capacity comes from, and the load replayed on
/// schedule with at most `max_inflight` outstanding (a million is open
/// loop: overload must shed, not slip).
struct Setup {
    gw: Gateway,
    source: Source,
    arrivals: Vec<Arrival>,
    max_inflight: usize,
}

enum Source {
    /// One invoker, started before the load.
    One,
    Plan(LeasePlan, ControllerConfig),
    Des(Box<DesLeaseSource>, ControllerConfig),
}

/// What one leg saw, its closing scrape and what its books broke.
struct Leg {
    report: LoadReport,
    ctl: LeaseStats,
    pilots: Option<Snapshot>,
    scrape: String,
    violations: Vec<Violation>,
}

const BUCKET: TokenBucketCfg = TokenBucketCfg {
    rate_per_invoker: 5_000.0,
    burst: 32.0,
    max_delay: Duration::from_millis(100),
};

const ROWS: &[Row] = &[
    Row {
        name: "smoke",
        legs: &[("smoke", smoke)],
        expect: &[
            ("lost == 0", |a, _| a.report.lost() == 0),
            ("completed > 0", |a, _| a.report.tally.completed > 0),
            ("throughput > 0", |a, _| a.report.throughput > 0.0),
            ("grants == 5", |a, _| a.ctl.grants == 5),
            ("deadline_drains >= 1", |a, _| a.ctl.deadline_drains >= 1),
            ("revokes == 1", |a, _| a.ctl.revokes == 1),
        ],
    },
    Row {
        name: "day",
        legs: &[("day", day)],
        expect: &[
            ("lost == 0", |a, _| a.report.lost() == 0),
            ("completed > 0", |a, _| a.report.tally.completed > 0),
            ("revokes + deadline_drains > 0", |a, _| {
                a.ctl.revokes + a.ctl.deadline_drains > 0
            }),
        ],
    },
    Row {
        name: "overload",
        legs: &[
            ("hard", |q, _| overload(q, AdmissionPolicy::HardShed, 32)),
            ("bucket", |q, _| {
                overload(q, AdmissionPolicy::TokenBucket(BUCKET), 65_536)
            }),
        ],
        expect: &[
            ("hard.lost + bucket.lost == 0", |h, b| {
                h.report.lost() + b.report.lost() == 0
            }),
            ("hard.shed > 0", |h, _| h.shed() > 0),
            ("bucket.shed < hard.shed", |h, b| b.shed() < h.shed()),
            ("bucket.delayed > 0", |_, b| b.report.tally.delayed > 0),
            ("bucket.shed_queue_full == 0", |_, b| {
                b.report.tally[Outcome::Shed(Shed::QueueFull)] == 0
            }),
        ],
    },
    Row {
        name: "closed_loop",
        legs: &[("feedback", feedback), ("static", flat)],
        expect: &[
            ("feedback.lost == 0", |f, _| f.report.lost() == 0),
            ("feedback.completed > 0", |f, _| {
                f.report.tally.completed > 0
            }),
            ("static.lost == 0", |_, s| s.report.lost() == 0),
            ("static.completed > 0", |_, s| s.report.tally.completed > 0),
            ("pilot grants > 0", |f, _| f.pilot("pilot_grants_total") > 0),
            ("pilot grants == pilot revokes", |f, _| {
                f.pilot("pilot_grants_total") == f.pilot("pilot_revokes_total")
            }),
            ("pilot_leases_live == 0", |f, _| {
                f.pilot("pilot_leases_live") == 0
            }),
            ("feedback.grants == revokes + reaped_at_finish", |f, _| {
                f.ctl.grants == f.ctl.revokes + f.ctl.reaped_at_finish
            }),
            ("feedback.reaped_at_finish == 1", |f, _| {
                f.ctl.reaped_at_finish == 1
            }),
            ("pilot feedback windows > 0", |f, _| {
                f.pilot("pilot_feedback_windows_total") > 0
            }),
            ("pilot leased node-seconds > 0", |f, _| {
                f.pilot("pilot_leased_node_secs_total") > 0
            }),
            ("static.shed > 0", |_, s| s.shed() > 0),
            ("feedback.shed < static.shed", |f, s| f.shed() < s.shed()),
        ],
    },
];

fn main() {
    let (mut quick, mut only, mut out) = (false, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--row" => only = Some(args.next().unwrap_or_else(|| usage())),
            "--metrics-out" => out = Some(args.next().unwrap_or_else(|| usage())),
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
    let mut scrapes = String::new();
    let failures: Vec<String> = rows
        .into_iter()
        .flat_map(|row| run_row(row, quick, &mut scrapes))
        .collect();
    if let Some(path) = out {
        std::fs::write(&path, scrapes).unwrap_or_else(|e| panic!("--metrics-out {path}: {e}"));
    }
    if !failures.is_empty() {
        eprintln!("\nlive: {} failure(s):", failures.len());
        failures.iter().for_each(|f| eprintln!("  {f}"));
        std::process::exit(1);
    }
    println!("\nlive OK: books balanced, every expectation held");
}

fn usage() -> ! {
    let rows: Vec<&str> = ROWS.iter().map(|r| r.name).collect();
    eprintln!(
        "usage: live [--quick] [--row {}] [--metrics-out PATH]",
        rows.join("|")
    );
    std::process::exit(2);
}

/// Run `row`'s legs in order, append each closing scrape to `scrapes`,
/// and return what failed: each rule a leg's books break and each
/// expectation that does not hold.
fn run_row(row: &Row, quick: bool, scrapes: &mut String) -> Vec<String> {
    hpcwhisk_bench::section(row.name);
    let (mut legs, mut failures) = (Vec::<Leg>::new(), Vec::new());
    for &(leg, setup) in row.legs {
        let done = run_leg(leg, setup(quick, &legs));
        let at = format!("{}/{leg}", row.name);
        if done.violations.is_empty() {
            println!("books OK {at}");
        }
        failures.extend(done.violations.iter().map(|v| format!("books {at}: {v:?}")));
        *scrapes += &format!("# live row={} leg={leg}\n{}", row.name, done.scrape);
        legs.push(done);
    }
    for (what, holds) in row.expect {
        let ok = holds(&legs[0], &legs[legs.len() - 1]);
        let verdict = if ok { "OK" } else { "FAILED" };
        println!("expect {}: {what}: {verdict}", row.name);
        if !ok {
            failures.push(format!("expect {}: {what}", row.name));
        }
    }
    failures
}

/// Replay the leg's load, shut its gateway down, and check its books on
/// the closing scrape.
fn run_leg(name: &str, s: Setup) -> Leg {
    let (gw, arrivals) = (&s.gw, &s.arrivals);
    let harness = &HarnessConfig {
        max_inflight: s.max_inflight,
        stall_timeout: Duration::from_secs(30),
        ..Default::default()
    };
    let (report, ctl, pilots) = match s.source {
        Source::One => {
            gw.start_invoker();
            (run_load(gw, arrivals, harness), LeaseStats::default(), None)
        }
        Source::Plan(plan, cfg) => {
            let ctl = CapacityController::new(gw, plan, cfg, Instant::now());
            let (report, stats) = run_load_with_controller(gw, ctl, arrivals, harness);
            (report, stats, None)
        }
        Source::Des(src, cfg) => {
            let registry = src.registry().clone();
            let ctl = CapacityController::from_source(gw, src, cfg, Instant::now());
            let (report, stats) = run_load_with_controller(gw, ctl, arrivals, harness);
            (report, stats, Some(registry.snapshot()))
        }
    };
    println!("[{name}] {}\n[{name}] {ctl:?}", report.summary());
    let snap = books::closing_scrape(gw);
    let offered = arrivals.len() as u64;
    let mut violations = books::check(&snap, offered).err().unwrap_or_default();
    let mut scrape = render_prometheus(&snap);
    if let Some(p) = &pilots {
        violations.extend(live::check_books(p).err().unwrap_or_default());
        scrape += &render_prometheus(p);
    }
    Leg {
        report,
        ctl,
        pilots,
        scrape,
        violations,
    }
}

impl Leg {
    /// The leg's sheds, every reason.
    fn shed(&self) -> u64 {
        self.report.tally.shed_total()
    }

    /// A family of the leg's pilot scrape, counter or gauge; -1 if absent.
    fn pilot(&self, family: &str) -> i64 {
        let read = |p: &Snapshot| {
            let counter = p.counter(family, &[]).map(|v| v as i64);
            counter.or_else(|| p.gauge(family, &[]))
        };
        self.pilots.as_ref().and_then(read).unwrap_or(-1)
    }
}

/// Eight actions of `body`, each cold-starting in 200 µs.
fn eight(cfg: GatewayConfig, body: ActionBody) -> Gateway {
    let action = |i| {
        ActionSpec::noop(&format!("fn-{i}"))
            .with_body(body.clone())
            .with_cold_start(Duration::from_micros(200))
    };
    Gateway::new(cfg, (0..8).map(action).collect())
}

/// Poisson traffic plus one compressed diurnal cycle from 500 req/s to
/// `peak`, merged into one schedule of `secs`.
fn mixed(poisson: f64, peak: f64, secs: f64) -> Vec<Arrival> {
    let span = SimDuration::from_secs_f64(secs);
    let mut arrivals = PoissonLoadGen::new(poisson, 8).arrivals(span, 1);
    arrivals.extend(DiurnalLoadGen::new(500.0, peak, span, 8).arrivals(span, 2));
    arrivals.sort_by_key(|a| a.at);
    arrivals
}

/// Nodes 0-3 granted at the epoch. Node 0's deadline lands mid-replay,
/// so the controller drains it ahead of the revoke 80 ms later (room for
/// a descheduled controller thread to poll), and node 4 replaces it.
fn smoke(_: bool, _: &[Leg]) -> Setup {
    let ms = Duration::from_millis;
    let events = vec![
        LeaseEvent::grant(ms(0), 0, ms(500)),
        LeaseEvent::grant(ms(0), 1, ms(60_000)),
        LeaseEvent::grant(ms(0), 2, ms(60_000)),
        LeaseEvent::grant(ms(0), 3, ms(60_000)),
        LeaseEvent::revoke(ms(580), 0),
        LeaseEvent::grant(ms(580), 4, ms(60_000)),
    ];
    let plan = LeasePlan::new(events, Duration::from_secs(2));
    let cfg = ControllerConfig {
        drain_headroom: ms(5),
        ..Default::default()
    };
    Setup {
        gw: eight(
            GatewayConfig::default(),
            ActionBody::Spin(Duration::from_micros(5)),
        ),
        source: Source::Plan(plan, cfg),
        arrivals: mixed(3_000.0, 6_000.0, 1.0),
        max_inflight: 2_048,
    }
}

/// The fib-day churn replayed in 2 s (6 s in full), capped at eight
/// concurrent leases, a thread count a CI runner serves, over a floor of
/// one; capped grants are counted, never silently dropped.
fn day(quick: bool, _: &[Leg]) -> Setup {
    let (hours, seed, wall) = match quick {
        true => (2, 7, 2.0),
        false => (24, IdleModel::FIB_DAY_SEED, 6.0),
    };
    let horizon = SimDuration::from_hours(hours);
    let trace =
        IdleModel::fib_day().capacity_trace(horizon, seed, SimDuration::from_mins_f64(10.0));
    let plan = LeasePlan::from_capacity_trace(&trace, horizon.as_secs_f64() / wall, 8, 1);
    println!(
        "[day] {hours} h trace: {} grants ({} capped), {} early revokes",
        plan.n_grants(),
        plan.capped_grants,
        trace.n_early_revokes()
    );
    Setup {
        gw: eight(
            GatewayConfig::default(),
            ActionBody::Spin(Duration::from_micros(5)),
        ),
        source: Source::Plan(plan, ControllerConfig::default()),
        arrivals: mixed(2_000.0, 4_000.0, wall * 0.9),
        max_inflight: 512,
    }
}

/// 10k req/s for 300 ms (800 ms in full) against one invoker serving
/// 200 µs spins, ~5k ops/s.
fn overload(quick: bool, admission: AdmissionPolicy, queue_capacity: usize) -> Setup {
    let span = SimDuration::from_millis(if quick { 300 } else { 800 });
    let cfg = GatewayConfig {
        queue_capacity,
        admission,
        ..Default::default()
    };
    let hot = ActionSpec::noop("hot").with_body(ActionBody::Spin(Duration::from_micros(200)));
    Setup {
        gw: Gateway::new(cfg, vec![hot]),
        source: Source::One,
        arrivals: PoissonLoadGen::new(10_000.0, 1).arrivals(span, 17),
        max_inflight: 1_000_000,
    }
}

/// Wall seconds of the closed loop's diurnal cycle. The DES hour ends at
/// 80 % of it, so the source closes its books while traffic still flows
/// and both legs serve the tail on the floor.
fn cycle_wall(quick: bool) -> f64 {
    if quick {
        2.5
    } else {
        5.0
    }
}

/// 100 to 10k req/s over one cycle against 1 ms sleeps: an invoker
/// serves ~1k req/s while yielding its core, so capacity scales with the
/// invoker count even on one CPU, and a 256-deep queue sheds sharply.
fn closed_loop(quick: bool, source: Source) -> Setup {
    let span = SimDuration::from_secs_f64(cycle_wall(quick));
    let cfg = GatewayConfig {
        queue_capacity: 256,
        ..Default::default()
    };
    Setup {
        gw: eight(cfg, ActionBody::Sleep(Duration::from_millis(1))),
        source,
        arrivals: DiurnalLoadGen::new(100.0, 10_000.0, span, 8).arrivals(span, 11),
        max_inflight: 1_000_000,
    }
}

/// The closed loop proper: an empty 16-node cluster, instant warm-up
/// (the comparison is about sizing), and a load-sized manager fed 40 ms
/// feedback windows, sized slightly under the ~1k req/s an invoker
/// serves so that its over-provision cushions the ramp.
fn feedback(quick: bool, _: &[Leg]) -> Setup {
    let horizon = SimDuration::from_hours(1);
    let src = DesLeaseSource::new(DesSourceCfg {
        idle: IdleSource::Empty {
            n_nodes: 16,
            horizon,
        },
        seed: 8,
        speedup: horizon.as_secs_f64() / (cycle_wall(quick) * 0.8),
        max_leases: 12,
        floor: 1,
        warmup: hpcwhisk_core::WarmupModel::instant(),
        manager: ManagerKind::LoadSized {
            sizer: SizerCfg {
                rate_per_invoker: 850.0,
                headroom: 1.1,
                max_invokers: 12,
                alpha: 0.5,
                ..SizerCfg::default()
            },
            pilot_len: SimDuration::from_mins(10),
        },
    });
    let cfg = ControllerConfig {
        feedback_every: Some(Duration::from_millis(40)),
        ..Default::default()
    };
    closed_loop(quick, Source::Des(Box::new(src), cfg))
}

/// The control: the serving node-seconds the feedback leg spent,
/// flattened into K always-on invokers across the DES hour, plus the
/// same pinned floor (node 1,000,000, as in the DES source), no feedback.
fn flat(quick: bool, legs: &[Leg]) -> Setup {
    let leased = legs[0].pilot("pilot_leased_node_secs_total").max(0);
    let k = ((leased as f64 / 3_600.0).round() as u32).max(1);
    println!("[static] {k} constant invokers = {leased} leased node-seconds / 3600 s");
    let wall = Duration::from_secs_f64(cycle_wall(quick) * 0.8);
    let grant = |n| LeaseEvent::grant(Duration::ZERO, n, wall);
    let mut events: Vec<_> = (0..k).map(grant).collect();
    events.extend(floor_grants(1_000_000, 1, wall));
    events.extend((0..k).map(|n| LeaseEvent::revoke(wall, n)));
    let plan = LeasePlan::new(events, wall * 1_000);
    closed_loop(quick, Source::Plan(plan, ControllerConfig::default()))
}
