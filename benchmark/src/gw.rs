//! The live-plane load generators: an open-loop pacer with its own
//! collector thread, and a closed-loop client. Both drive the gateway
//! through its public API only, check every completion they get back,
//! and count from what they observe themselves (`Ok`/`Err` of each
//! invoke, the fields of each `Completion`); where the program has to
//! be asked — fast-lane hops, contention events — the question goes to
//! its telemetry registry.

use crate::stats::{quantiles_ns, ProcSample};
use crate::trace::Span;
use gateway::route::mix64;
use gateway::{
    ActionId, ActionSpec, BurstScratch, CapacityController, Completion, ControllerConfig, Gateway,
    GatewayConfig, LeaseEvent, LeaseEventKind, LeasePlan, LeaseStats, Shed,
};
use simcore::SimRng;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Requests whose due time falls in the first second warm the plane up
/// (thread start, first cold starts, allocator growth) and are checked
/// for correctness but left out of every timing.
pub const WARMUP: Duration = Duration::from_secs(1);
/// Width of the equal windows the open-loop workloads take medians
/// over.
pub const WINDOW: Duration = Duration::from_secs(1);
/// A generator this late on a request did not offer the stated load.
const LATE: Duration = Duration::from_millis(1);
/// At most this many requests' spans go to `trace.jsonl`.
const TRACE_REQUESTS: usize = 10_000;

/// The generated input of an open-loop run: when each request is due
/// (nanoseconds from the run's start), what it invokes, how it routes.
pub struct Arrivals {
    /// Length of the schedule; every due time is below it.
    pub horizon_ns: u64,
    pub due_ns: Vec<u64>,
    pub action: Vec<u32>,
    pub key: Vec<u64>,
}

impl Arrivals {
    /// Poisson arrivals at `rate` per second for `seconds`; every
    /// action equally likely, routed by a per-request random key so the
    /// load spreads evenly over whichever invokers are live. Drawn here
    /// in nanoseconds: `workload::PoissonLoadGen` stamps arrivals in
    /// `SimTime`, whose millisecond tick holds a hundred of these.
    pub fn poisson(rate: f64, seconds: f64, n_actions: u32, seed: u64) -> Self {
        let mut rng = SimRng::seed_from_u64(seed ^ 0xa441_7a15);
        let expect = (rate * seconds) as usize;
        let mut a = Arrivals {
            horizon_ns: (seconds * 1e9) as u64,
            due_ns: Vec::with_capacity(expect + expect / 50 + 16),
            action: Vec::with_capacity(expect + expect / 50 + 16),
            key: Vec::with_capacity(expect + expect / 50 + 16),
        };
        let horizon_ns = seconds * 1e9;
        let mut t = 0.0f64;
        loop {
            t += -rng.f64_open().ln() / rate * 1e9;
            if t >= horizon_ns {
                break;
            }
            a.due_ns.push(t as u64);
            a.action.push(rng.index(n_actions as usize) as u32);
            a.key.push(rng.next_u64());
        }
        a
    }

    pub fn len(&self) -> usize {
        self.due_ns.len()
    }
}

/// Where an open-loop run's invokers come from.
#[derive(Clone)]
pub enum Capacity {
    /// This many invokers, started before the run and never revoked.
    Static(usize),
    /// A seeded [`Churn`] plan executed by the program's own
    /// `CapacityController` on its own thread.
    Churn(Churn, ControllerConfig),
}

/// The shape of the lease churn. The plan is built here and not by
/// `LeasePlan::synthetic_churn`, whose Poisson grants and exponential
/// holds make the *amount* of churn in a 15 s run differ by a quarter
/// from seed to seed (measured: 733–1,010 cold starts, p99 spread
/// 11–22 %). Here the seed moves phases, jitter and which leases are
/// preempted or renewed; how much capacity comes and goes per second
/// does not depend on it.
#[derive(Clone, Copy)]
pub struct Churn {
    /// Leases granted at the epoch and never revoked.
    pub floor: usize,
    /// Nodes that are leased, reclaimed and leased again.
    pub slots: usize,
    /// Announced length of a lease, ±25 % per lease.
    pub hold: Duration,
    /// How long a reclaimed node stays away, ±50 % per gap.
    pub gap: Duration,
    /// Share of leases revoked before their announced deadline.
    pub early_revoke_frac: f64,
    /// Share of leases renewed once, for another hold.
    pub extend_frac: f64,
}

impl Churn {
    /// Every slot runs its own grant → (extend) → revoke → gap cycle
    /// from a seeded phase, with the lease shapes of
    /// `LeasePlan::synthetic_churn`: a grant announces a deadline, a
    /// renewal at three quarters of the hold doubles it, a preemption
    /// lands between 30 % and 95 % of the way to the deadline.
    pub fn plan(&self, horizon: Duration, seed: u64) -> LeasePlan {
        let mut rng = SimRng::seed_from_u64(seed ^ 0x1ea5_e91a);
        let secs = Duration::from_secs_f64;
        let (hold, gap, end) = (
            self.hold.as_secs_f64(),
            self.gap.as_secs_f64(),
            horizon.as_secs_f64(),
        );
        let mut events = Vec::new();
        let mut node = 0u32;
        let mut push = |at: f64, node: u32, kind: LeaseEventKind| {
            events.push(LeaseEvent {
                at: secs(at),
                node,
                kind,
            })
        };
        for _ in 0..self.floor {
            // Never drained by the headroom logic, reaped at finish.
            let deadline = horizon * 1_000;
            push(0.0, node, LeaseEventKind::Grant { deadline });
            node += 1;
        }
        for _ in 0..self.slots {
            let mut t = rng.f64() * (hold + gap);
            while t < end {
                let h = hold * rng.range_f64(0.75, 1.25);
                let renewed = rng.chance(self.extend_frac);
                let deadline = if renewed { t + 2.0 * h } else { t + h };
                let revoke = if rng.chance(self.early_revoke_frac) {
                    t + (deadline - t) * rng.range_f64(0.3, 0.95)
                } else {
                    deadline
                };
                let announced = secs(t + h);
                push(
                    t,
                    node,
                    LeaseEventKind::Grant {
                        deadline: announced,
                    },
                );
                // A preemption that lands before the renewal would have
                // fired makes the renewal moot.
                if renewed && t + 0.75 * h < revoke {
                    let deadline = secs(deadline);
                    push(t + 0.75 * h, node, LeaseEventKind::Extend { deadline });
                }
                push(revoke, node, LeaseEventKind::Revoke);
                node += 1;
                t = revoke + gap * rng.range_f64(0.5, 1.5);
            }
        }
        // The plan's total order: time, then revoke < extend < grant.
        events.sort_by_key(|e| (e.at, e.kind.rank(), e.node));
        LeasePlan {
            events,
            horizon,
            capped_grants: 0,
            floor: self.floor,
        }
    }
}

#[derive(Clone)]
pub struct OpenCfg {
    pub rate: f64,
    pub actions: Vec<ActionSpec>,
    pub gateway: GatewayConfig,
    pub capacity: Capacity,
    /// Sleep to 100 µs before the due time, then poll the clock (a
    /// pacer for rates whose gaps are long enough to sleep through);
    /// otherwise poll all the way. Polling yields the core between
    /// clock reads: a pacer that spins holds a core for whole
    /// timeslices while the program's threads wait for it.
    pub hybrid_pacer: bool,
    /// A request collected later than this after its due time missed.
    pub limit: Duration,
    /// What every body must return.
    pub expect_value: u64,
}

/// A gateway brought up and ready for the first timed request, with the
/// inputs the run will feed it.
pub struct Plane {
    gw: Gateway,
    arrivals: Arrivals,
    plan: Option<LeasePlan>,
    /// Completions the warm-up already took (their ids are spent).
    warm_ids: u64,
}

impl Plane {
    /// Stop the invokers of a plane that will not be measured.
    pub fn discard(self) {
        self.gw.shutdown();
    }
}

/// Arrivals start this long after the controller's epoch, so the
/// pinned floor leases are granted before the first request is due.
const CHURN_LEAD: Duration = Duration::from_millis(50);

/// Everything between process start and the first timed request:
/// generate the inputs, build the gateway, start static invokers and
/// push a warm-up through the whole path.
pub fn bring_up(cfg: &OpenCfg, seconds: f64, seed: u64) -> Plane {
    let arrivals = Arrivals::poisson(cfg.rate, seconds, cfg.actions.len() as u32, seed);
    let gw = Gateway::new(cfg.gateway.clone(), cfg.actions.clone());
    let (plan, warm_ids) = match &cfg.capacity {
        Capacity::Static(n) => {
            for _ in 0..*n {
                gw.start_invoker();
            }
            (None, warm_up(&gw, cfg.actions.len() as u32))
        }
        Capacity::Churn(churn, _) => {
            let horizon = Duration::from_secs_f64(seconds) + CHURN_LEAD;
            (Some(churn.plan(horizon, seed)), 0)
        }
    };
    Plane {
        gw,
        arrivals,
        plan,
        warm_ids,
    }
}

/// Push a few thousand requests through every action and collect them
/// all, so queues, completion stacks and pools have been touched.
fn warm_up(gw: &Gateway, n_actions: u32) -> u64 {
    const ROUNDS: u64 = 20;
    const PER_ROUND: u64 = 1_000;
    let mut col = gw.collector();
    let mut buf = Vec::new();
    let mut accepted = 0u64;
    for r in 0..ROUNDS {
        let mut pending = 0usize;
        for i in 0..PER_ROUND {
            let n = r * PER_ROUND + i;
            if gw
                .invoke(ActionId((n % n_actions as u64) as u32), mix64(n))
                .is_ok()
            {
                pending += 1;
            }
        }
        accepted += pending as u64;
        let give_up = Instant::now() + Duration::from_secs(5);
        while pending > 0 && Instant::now() < give_up {
            buf.clear();
            pending -= gw
                .collect_wait(&mut col, &mut buf, Duration::from_millis(10))
                .min(pending);
        }
    }
    accepted
}

/// What one open-loop run observed.
#[derive(Default)]
pub struct OpenOut {
    pub offered: u64,
    pub accepted: u64,
    pub delayed: u64,
    /// Typed refusals, indexed by [`shed_index`].
    pub shed: [u64; 4],
    /// Accepted, never collected.
    pub lost: u64,
    pub duplicate: u64,
    /// A completion for an id this run never got back from an invoke.
    pub unknown: u64,
    pub wrong_value: u64,
    /// `total != queue_wait + service`, or collected before done.
    pub bad_stage_sum: u64,
    /// Requests left in the fast lane at shutdown.
    pub stranded: u64,

    /// Measured requests only (due after the warm-up) from here on.
    /// Due → collected, every measured completion.
    pub latency_ns: Vec<u64>,
    /// Each full window after the warm-up, by due time.
    pub windows: Vec<Window>,
    pub cold: u64,
    pub sweeps: u64,
    pub late: u64,

    /// Traced runs only.
    pub lag_ns: Vec<u64>,
    pub submit_ns: Vec<u64>,
    pub queue_wait_ns: Vec<u64>,
    pub service_ns: Vec<u64>,
    pub collect_lag_ns: Vec<u64>,
    pub spans: Vec<Span>,

    pub lease: Option<LeaseStats>,
    pub invoker_seconds: f64,
    pub min_live: u64,
    pub fastlane_moves: u64,
    pub contention: u64,
    pub pool_evictions: u64,
    pub snapshot_us: f64,
    pub proc_before: ProcSample,
    pub proc_after: ProcSample,
}

/// What the requests due in one [`WINDOW`] saw.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub p50_us: f64,
    pub p99_us: f64,
    /// Share of the window's offered requests collected within the
    /// limit; shed, lost and late ones all miss.
    pub served_pct: f64,
    /// Completions of the window's requests per second of window.
    pub ops_s: f64,
}

/// Note a violated invariant: `bad` of `what` were seen.
fn flag(problems: &mut Vec<String>, bad: u64, what: &str) {
    if bad > 0 {
        problems.push(format!("{bad} {what}"));
    }
}

pub fn shed_index(s: Shed) -> usize {
    match s {
        Shed::DelayBudget => 0,
        Shed::QueueFull => 1,
        Shed::NoInvoker => 2,
        Shed::ActionSaturated => 3,
    }
}

impl OpenOut {
    pub fn shed_total(&self) -> u64 {
        self.shed.iter().sum()
    }

    /// Operations that did not end in exactly one correct completion.
    pub fn failed(&self) -> u64 {
        self.shed_total() + self.lost + self.duplicate + self.unknown + self.wrong_value
    }

    /// Violations of the run's invariants, in words. Typed sheds are a
    /// correct answer of the program and are not listed here.
    pub fn problems(&self) -> Vec<String> {
        let mut p = Vec::new();
        flag(&mut p, self.lost, "accepted requests never completed");
        flag(
            &mut p,
            self.stranded,
            "requests stranded in the fast lane at shutdown",
        );
        flag(&mut p, self.duplicate, "ids collected more than once");
        flag(&mut p, self.unknown, "completions for ids never handed out");
        flag(
            &mut p,
            self.wrong_value,
            "completions with a wrong body value",
        );
        flag(
            &mut p,
            self.bad_stage_sum,
            "completions whose stages do not sum to their latency",
        );
        if self.accepted + self.shed_total() != self.offered {
            p.push(format!(
                "accepted {} + shed {} != offered {}",
                self.accepted,
                self.shed_total(),
                self.offered
            ));
        }
        p
    }

    pub fn late_share(&self) -> f64 {
        self.late as f64 / self.offered.max(1) as f64
    }
}

/// What the pacer noted per request: the id it was admitted under (or
/// why not) and when the submit started and ended.
struct Submitted {
    id: Vec<u64>,
    start_ns: Vec<u64>,
    submit_ns: Vec<u32>,
}

const NOT_ADMITTED: u64 = u64::MAX;

struct Collected {
    /// (id, collected at) in collection order.
    recs: Vec<(u64, u64)>,
    /// (queue_wait, total) per record; traced runs only.
    stages: Vec<(u64, u64)>,
    wrong_value: u64,
    bad_stage_sum: u64,
    cold: u64,
    sweeps: u64,
}

fn ns_since(t0: Instant) -> u64 {
    Instant::now().saturating_duration_since(t0).as_nanos() as u64
}

/// Run `plane` open loop: this thread paces, a second one collects, and
/// with a churn plan the program's controller runs on a third.
pub fn open_loop(cfg: &OpenCfg, plane: Plane, traced: bool) -> OpenOut {
    let Plane {
        gw,
        arrivals,
        plan,
        warm_ids,
    } = plane;
    let n = arrivals.len();
    let epoch = Instant::now();
    let t_start = epoch + CHURN_LEAD;
    let stop_controller = AtomicBool::new(false);
    // The number of completions the collector must see; unknown until
    // the pacer has offered everything.
    let target = AtomicU64::new(u64::MAX);
    let mut out = OpenOut {
        offered: n as u64,
        ..OpenOut::default()
    };
    if let Some(plan) = &plan {
        out.invoker_seconds = invoker_seconds(plan);
        out.min_live = plan.min_concurrent_after_start() as u64;
    }
    let mut sub = Submitted {
        id: Vec::with_capacity(n),
        start_ns: Vec::with_capacity(n),
        submit_ns: Vec::with_capacity(if traced { n } else { 0 }),
    };

    let (collected, lease) = std::thread::scope(|s| {
        let controller = plan.map(|plan| {
            let Capacity::Churn(_, ctl) = &cfg.capacity else {
                unreachable!("a plan exists only for churn capacity")
            };
            let (gw, stop) = (&gw, &stop_controller);
            s.spawn(move || {
                let mut c = CapacityController::new(gw, plan, *ctl, epoch);
                c.run(stop);
                c.finish()
            })
        });
        let collector = {
            let (gw, target, expect) = (&gw, &target, cfg.expect_value);
            s.spawn(move || collect(gw, target, t_start, traced, expect))
        };

        if traced {
            out.proc_before = ProcSample::read();
        }
        for i in 0..n {
            let due = t_start + Duration::from_nanos(arrivals.due_ns[i]);
            let mut now = Instant::now();
            if cfg.hybrid_pacer {
                let ahead = due.saturating_duration_since(now);
                if ahead > Duration::from_micros(150) {
                    std::thread::sleep(ahead - Duration::from_micros(100));
                    now = Instant::now();
                }
            }
            while now < due {
                std::thread::yield_now();
                now = Instant::now();
            }
            // The program's clock for this request starts at its due
            // time, not at whenever the generator got to it.
            let r = gw.invoke_at(ActionId(arrivals.action[i]), arrivals.key[i], due);
            if traced {
                let end = Instant::now();
                sub.submit_ns
                    .push((end - now).as_nanos().min(u32::MAX as u128) as u32);
            }
            sub.start_ns.push((now - t_start).as_nanos() as u64);
            sub.id.push(match r {
                Ok(admit) => {
                    out.accepted += 1;
                    out.delayed += admit.delayed() as u64;
                    admit.id
                }
                Err(shed) => {
                    out.shed[shed_index(shed)] += 1;
                    NOT_ADMITTED
                }
            });
        }
        target.store(out.accepted, Ordering::Release);
        let collected = collector.join().expect("collector thread panicked");
        if traced {
            out.proc_after = ProcSample::read();
        }
        stop_controller.store(true, Ordering::Release);
        let lease = controller.map(|c| c.join().expect("controller thread panicked"));
        (collected, lease)
    });
    out.lease = lease;

    let telem = gw.telemetry().expect("the workloads run with telemetry on");
    let t = Instant::now();
    let snap = telem.registry().snapshot();
    out.snapshot_us = t.elapsed().as_secs_f64() * 1e6;
    out.stranded = gw.shutdown() as u64;
    // Drains finish during shutdown, so the hop count is read after it.
    let snap_end = telem.registry().snapshot();
    out.fastlane_moves = snap_end
        .counter("gateway_fastlane_moves_total", &[])
        .unwrap_or(0);
    out.contention = snap.counter_sum("gateway_submit_contention_total", &[]);
    let pools = gw.retired_pool_stats();
    out.pool_evictions = pools.lru_evictions + pools.keepalive_evictions;

    account(cfg, &arrivals, &sub, collected, warm_ids, traced, &mut out);
    out
}

const COLLECT_GRACE: Duration = Duration::from_secs(15);

fn collect(
    gw: &Gateway,
    target: &AtomicU64,
    t_start: Instant,
    traced: bool,
    expect: u64,
) -> Collected {
    let mut c = Collected {
        recs: Vec::new(),
        stages: Vec::new(),
        wrong_value: 0,
        bad_stage_sum: 0,
        cold: 0,
        sweeps: 0,
    };
    let mut col = gw.collector();
    let mut buf: Vec<Completion> = Vec::with_capacity(8_192);
    let mut give_up = None;
    loop {
        if gw.collect_wait(&mut col, &mut buf, Duration::from_millis(20)) > 0 {
            let t = ns_since(t_start);
            c.sweeps += 1;
            for done in buf.drain(..) {
                c.wrong_value += (done.value != expect) as u64;
                c.bad_stage_sum += (done.total != done.queue_wait + done.service) as u64;
                c.cold += done.cold as u64;
                c.recs.push((done.id, t));
                if traced {
                    c.stages.push((
                        done.queue_wait.as_nanos() as u64,
                        done.total.as_nanos() as u64,
                    ));
                }
            }
        }
        let want = target.load(Ordering::Acquire);
        if want != u64::MAX {
            if c.recs.len() as u64 >= want {
                return c;
            }
            let limit = *give_up.get_or_insert_with(|| Instant::now() + COLLECT_GRACE);
            if Instant::now() > limit {
                return c; // whatever is missing is reported as lost
            }
        }
    }
}

/// Invoker-seconds a plan supplies inside its horizon.
fn invoker_seconds(plan: &LeasePlan) -> f64 {
    let mut live = 0u32;
    let mut last = Duration::ZERO;
    let mut area = 0.0;
    for e in &plan.events {
        let at = e.at.min(plan.horizon);
        area += live as f64 * (at - last).as_secs_f64();
        last = at;
        match e.kind {
            LeaseEventKind::Grant { .. } => live += 1,
            LeaseEventKind::Revoke => live = live.saturating_sub(1),
            LeaseEventKind::Extend { .. } => {}
        }
    }
    area + live as f64 * plan.horizon.saturating_sub(last).as_secs_f64()
}

/// Join what the pacer submitted with what the collector got back.
fn account(
    cfg: &OpenCfg,
    arrivals: &Arrivals,
    sub: &Submitted,
    collected: Collected,
    warm_ids: u64,
    traced: bool,
    out: &mut OpenOut,
) {
    let n = arrivals.len();
    let warm_ns = WARMUP.as_nanos() as u64;
    let limit_ns = cfg.limit.as_nanos() as u64;
    out.wrong_value = collected.wrong_value;
    out.bad_stage_sum = collected.bad_stage_sum;
    out.cold = collected.cold;
    out.sweeps = collected.sweeps;

    // id → request index. The gateway numbers requests from 0 and the
    // warm-up spent the first `warm_ids`; anything outside what this
    // run was handed is an unknown id.
    let max_id = sub.id.iter().filter(|&&id| id != NOT_ADMITTED).max();
    let mut index_of = vec![u32::MAX; max_id.map_or(0, |m| (m + 1 - warm_ids.min(m + 1)) as usize)];
    for (i, &id) in sub.id.iter().enumerate() {
        if id != NOT_ADMITTED {
            match id
                .checked_sub(warm_ids)
                .and_then(|k| index_of.get_mut(k as usize))
            {
                Some(slot) => *slot = i as u32,
                None => out.unknown += 1, // an id below the warm-up's range
            }
        }
    }

    // Only full windows count: a last partial one is cut here.
    let window_ns = WINDOW.as_nanos() as u64;
    let n_windows = (arrivals.horizon_ns / window_ns) as usize;
    let mut windows: Vec<Vec<u64>> = vec![Vec::new(); n_windows];
    let mut offered_in = vec![0u64; n_windows];
    for &due in &arrivals.due_ns {
        if let Some(n) = offered_in.get_mut((due / window_ns) as usize) {
            *n += 1;
        }
    }
    let mut seen = vec![false; n];
    let stride = (collected.recs.len() / TRACE_REQUESTS).max(1);
    for (k, &(id, t)) in collected.recs.iter().enumerate() {
        let Some(&i) = id
            .checked_sub(warm_ids)
            .and_then(|k| index_of.get(k as usize))
            .filter(|&&i| i != u32::MAX)
        else {
            out.unknown += 1;
            continue;
        };
        let i = i as usize;
        if std::mem::replace(&mut seen[i], true) {
            out.duplicate += 1;
            continue;
        }
        let due = arrivals.due_ns[i];
        let latency = t.saturating_sub(due);
        let measured = due >= warm_ns;
        if measured {
            out.latency_ns.push(latency);
            if let Some(win) = windows.get_mut((due / window_ns) as usize) {
                win.push(latency);
            }
        }
        if traced {
            let (qw, total) = collected.stages[k];
            // collected − due − total: what the completion stack, the
            // wake and this collector added after the body was done.
            let Some(lag) = latency.checked_sub(total) else {
                out.bad_stage_sum += 1;
                continue;
            };
            let service = total - qw.min(total);
            debug_assert_eq!(qw + service + lag, latency);
            if measured {
                out.queue_wait_ns.push(qw);
                out.service_ns.push(service);
                out.collect_lag_ns.push(lag);
            }
            if k % stride == 0 {
                let start = sub.start_ns[i];
                let submit_end = start + sub.submit_ns[i] as u64;
                let s = |name, a, b, parent| Span {
                    req: id,
                    name,
                    start_ns: a,
                    end_ns: b,
                    parent,
                };
                out.spans.extend([
                    s("request", due, t, None),
                    s("queue_wait", due, due + qw, Some("request")),
                    s("gen_lag", due, start, Some("queue_wait")),
                    s("submit", start, submit_end, Some("queue_wait")),
                    s("service", due + qw, due + total, Some("request")),
                    s("collect_lag", due + total, t, Some("request")),
                ]);
            }
        }
    }
    out.lost = sub
        .id
        .iter()
        .zip(&seen)
        .filter(|(&id, &seen)| id != NOT_ADMITTED && !seen)
        .count() as u64;

    out.windows = windows
        .iter_mut()
        .zip(&offered_in)
        .skip((warm_ns / window_ns) as usize)
        .filter(|(w, _)| !w.is_empty())
        .map(|(w, &offered)| {
            let within = w.iter().filter(|&&l| l <= limit_ns).count();
            let q = quantiles_ns(w, &[0.5, 0.99]);
            Window {
                p50_us: q[0] / 1e3,
                p99_us: q[1] / 1e3,
                served_pct: 100.0 * within as f64 / offered as f64,
                ops_s: w.len() as f64 / WINDOW.as_secs_f64(),
            }
        })
        .collect();
    for i in 0..n {
        let due = arrivals.due_ns[i];
        let lag = sub.start_ns[i].saturating_sub(due);
        out.late += (lag > LATE.as_nanos() as u64) as u64;
        if traced && due >= warm_ns {
            out.lag_ns.push(lag);
        }
    }
    if traced {
        out.submit_ns = (0..n)
            .filter(|&i| arrivals.due_ns[i] >= warm_ns)
            .map(|i| sub.submit_ns[i] as u64)
            .collect();
    }
}

// ---------------------------------------------------------------------
// Closed loop
// ---------------------------------------------------------------------

/// Requests kept in flight by the closed-loop client.
pub const IN_FLIGHT: usize = 1_024;
/// Requests per `invoke_burst`.
pub const BURST: usize = 64;
/// Completions per throughput block (and the size of the reusable
/// pre-generated request block).
pub const BLOCK: usize = 2_000_000;
const _: () = assert!(BLOCK.is_multiple_of(BURST) && IN_FLIGHT.is_multiple_of(BURST));

#[derive(Default)]
pub struct ClosedOut {
    pub submitted: u64,
    pub completed: u64,
    pub shed: u64,
    pub lost: u64,
    pub duplicate: u64,
    pub unknown: u64,
    pub wrong_value: u64,
    pub stranded: u64,
    /// ops/s of each block after the first.
    pub block_ops_s: Vec<f64>,
    /// (p50, p99) in µs of the sampled submit→collected latencies of
    /// each block after the first.
    pub block_latency_us: Vec<(f64, f64)>,
    pub sweeps: u64,
    /// When each block's last completion was collected, from the
    /// loop's start.
    pub block_marks_ns: Vec<u64>,
    /// Wall time inside `invoke_burst`; traced runs only.
    pub burst_submit_ns: u64,
    pub bursts: u64,
    pub contention: u64,
    pub snapshot_us: f64,
    pub proc_before: ProcSample,
    pub proc_after: ProcSample,
}

impl ClosedOut {
    pub fn failed(&self) -> u64 {
        self.shed + self.lost + self.duplicate + self.unknown + self.wrong_value
    }

    pub fn problems(&self) -> Vec<String> {
        let mut p = Vec::new();
        flag(&mut p, self.lost, "accepted requests never completed");
        flag(
            &mut p,
            self.stranded,
            "requests stranded in the fast lane at shutdown",
        );
        flag(&mut p, self.duplicate, "ids collected more than once");
        flag(&mut p, self.unknown, "completions for ids never handed out");
        flag(
            &mut p,
            self.wrong_value,
            "completions with a wrong body value",
        );
        p
    }
}

/// The pre-generated request block of the closed loop.
pub fn request_block(n_actions: u32, seed: u64) -> Vec<(ActionId, u64)> {
    let mut rng = SimRng::seed_from_u64(seed ^ 0xb10c_b10c);
    (0..BLOCK)
        .map(|_| {
            (
                ActionId(rng.index(n_actions as usize) as u32),
                rng.next_u64(),
            )
        })
        .collect()
}

/// A static plane for the closed loop, warmed like the open loop's.
pub fn bring_up_static(
    gateway: &GatewayConfig,
    actions: &[ActionSpec],
    invokers: usize,
) -> (Gateway, u64) {
    let gw = Gateway::new(gateway.clone(), actions.to_vec());
    for _ in 0..invokers {
        gw.start_invoker();
    }
    let warm_ids = warm_up(&gw, actions.len() as u32);
    (gw, warm_ids)
}

/// One client thread keeps [`IN_FLIGHT`] requests outstanding for
/// `seconds`, then drains. It never parks: an empty sweep yields the
/// core and sweeps again.
pub fn closed_loop(
    gw: Gateway,
    warm_ids: u64,
    block: &[(ActionId, u64)],
    seconds: f64,
    traced: bool,
) -> ClosedOut {
    let mut out = ClosedOut::default();
    let mut scratch = BurstScratch::default();
    let mut admits = Vec::with_capacity(BURST);
    let mut col = gw.collector();
    let mut done: Vec<Completion> = Vec::with_capacity(2 * IN_FLIGHT);
    // One bit per id handed out, for the exactly-once check.
    let mut seen: Vec<u64> = Vec::new();
    let mut max_id = 0u64;
    // The last few bursts' id range and submit time, to sample one
    // latency per burst without a per-request table.
    let mut recent = [(0u64, 0u64, 0u64); 2 * IN_FLIGHT / BURST];
    let mut samples: Vec<u64> = Vec::new();
    let mut pos = 0usize;
    let mut in_flight = 0usize;
    let mut next_mark = BLOCK as u64;
    let mut last_mark_ns = 0u64;
    let mut blocks_done = 0u64;
    let mut stopping = false;

    if traced {
        out.proc_before = ProcSample::read();
    }
    let t0 = Instant::now();
    loop {
        while !stopping && in_flight + BURST <= IN_FLIGHT {
            let now = Instant::now();
            admits.clear();
            gw.invoke_burst(&block[pos..pos + BURST], now, &mut admits, &mut scratch);
            if traced {
                out.burst_submit_ns += now.elapsed().as_nanos() as u64;
            }
            let (mut lo, mut hi) = (u64::MAX, 0u64);
            for a in &admits {
                match a {
                    Ok(admit) => {
                        lo = lo.min(admit.id);
                        hi = hi.max(admit.id);
                        in_flight += 1;
                    }
                    Err(_) => out.shed += 1,
                }
            }
            max_id = max_id.max(hi);
            recent[out.bursts as usize % recent.len()] = (lo, hi, (now - t0).as_nanos() as u64);
            out.bursts += 1;
            out.submitted += BURST as u64;
            pos = (pos + BURST) % block.len();
        }
        done.clear();
        if gw.collect_completions_with(&mut col, &mut done) == 0 {
            if stopping && (in_flight == 0 || t0.elapsed().as_secs_f64() > seconds + 15.0) {
                break;
            }
            std::thread::yield_now();
            continue;
        }
        let t = (Instant::now() - t0).as_nanos() as u64;
        out.sweeps += 1;
        if seen.len() * 64 <= max_id as usize {
            seen.resize((max_id as usize / 64 + 1).next_power_of_two(), 0);
        }
        for c in &done {
            out.wrong_value += (c.value != 0) as u64;
            if c.id < warm_ids || c.id > max_id {
                out.unknown += 1;
                continue;
            }
            let word = &mut seen[c.id as usize / 64];
            let bit = 1u64 << (c.id % 64);
            out.duplicate += (*word & bit != 0) as u64;
            *word |= bit;
            if c.id % BURST as u64 == 0 {
                if let Some(&(_, _, at)) =
                    recent.iter().find(|&&(lo, hi, _)| lo <= c.id && c.id <= hi)
                {
                    samples.push(t.saturating_sub(at));
                }
            }
        }
        in_flight = in_flight.saturating_sub(done.len());
        out.completed += done.len() as u64;
        if out.completed >= next_mark {
            // The first block is the warm-up.
            if blocks_done > 0 && !samples.is_empty() {
                out.block_ops_s
                    .push(BLOCK as f64 / ((t - last_mark_ns) as f64 / 1e9));
                let q = quantiles_ns(&mut samples, &[0.5, 0.99]);
                out.block_latency_us.push((q[0] / 1e3, q[1] / 1e3));
            }
            out.block_marks_ns.push(t);
            samples.clear();
            blocks_done += 1;
            last_mark_ns = t;
            next_mark += BLOCK as u64;
        }
        stopping |= t as f64 / 1e9 >= seconds;
    }
    if traced {
        out.proc_after = ProcSample::read();
    }
    out.lost = in_flight as u64;

    let telem = gw.telemetry().expect("the workloads run with telemetry on");
    let t = Instant::now();
    let snap = telem.registry().snapshot();
    out.snapshot_us = t.elapsed().as_secs_f64() * 1e6;
    out.contention = snap.counter_sum("gateway_submit_contention_total", &[]);
    out.stranded = gw.shutdown() as u64;
    out
}
