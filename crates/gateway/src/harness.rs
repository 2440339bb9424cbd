//! The closed-loop load harness: replays a `workload` arrival stream
//! (Poisson, diurnal, or the paper's constant-rate process) against a
//! live [`Gateway`] and folds per-request latencies
//! into fixed-footprint log-linear histograms.
//!
//! The loop is *closed* through an in-flight window: arrivals are
//! released on their (scaled) schedule, but never more than
//! `max_inflight` may be outstanding — completions open the window
//! again, so an overloaded plane back-pressures the client instead of
//! queueing unboundedly inside the harness. With `speedup == 0` the
//! schedule collapses and the harness drives the plane flat out (the
//! throughput-probe mode).
//!
//! The report is built **from** two [`Registry`](telemetry::Registry)
//! snapshots — one at the start, one at the end of the replay — read
//! as [`Tally`]s, run-wide and per action, so the harness numbers and
//! the Prometheus exposition can never disagree; the loop itself does
//! no per-request accounting at all. Due arrivals are admitted in
//! bursts of up to [`SUBMIT_BATCH`], each burst with **one** clock read
//! shared as their admission timestamp.

use crate::action::ActionId;
use crate::controller::{CapacityController, LeaseStats};
use crate::gateway::{BurstScratch, Gateway, Shed};
use crate::route::mix64;
use metrics::{Outcome, Tally};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use telemetry::{HistSnapshot, Snapshot};
use workload::Arrival;

/// How to replay an arrival stream.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Schedule compression: 1.0 replays in real time, 10.0 ten times
    /// faster, 0.0 ignores the schedule entirely (flat-out mode).
    pub speedup: f64,
    /// Closed-loop window: max requests outstanding at once.
    pub max_inflight: usize,
    /// Safety valve: stop waiting for completions after this much wall
    /// time with no progress (only trips if the plane lost requests or
    /// has no invokers left — a healthy run never hits it).
    pub stall_timeout: Duration,
    /// Parallel submitter threads (0 is treated as 1). The arrival
    /// stream is partitioned **by action hash** across N scoped threads
    /// — all invocations of one action go through one submitter, so
    /// per-action ordering and per-action row sums are the same at
    /// every N. Each submitter owns its own [`BurstScratch`],
    /// clock reads and [`Collector`](crate::gateway::Collector) cursor,
    /// and doubles as a completion collector; the whole run is read
    /// from one registry-snapshot diff. The closed-loop window is a
    /// shared atomic; concurrent submitters may transiently overshoot
    /// it by at most `submitters * SUBMIT_BATCH`.
    pub submitters: usize,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            speedup: 1.0,
            max_inflight: 512,
            stall_timeout: Duration::from_secs(10),
            submitters: 1,
        }
    }
}

/// Due arrivals admitted per burst.
pub const SUBMIT_BATCH: usize = 64;

/// Everything the run observed.
pub struct LoadReport {
    /// Wall-clock span of the run.
    pub wall: Duration,
    /// The run's requests by outcome: the registry's diff across it.
    pub tally: Tally,
    /// Completions that cold-started a container.
    pub cold_starts: u64,
    /// Completed requests per second of wall time.
    pub throughput: f64,
    /// End-to-end latency (admission → completion), **nanoseconds** —
    /// a mergeable log-linear histogram snapshot, not raw samples.
    pub latency: HistSnapshot,
    /// The same tally per action, `(name, tally)`, index-aligned with
    /// the gateway's action registry, so a scenario's outcome is
    /// diagnosable at a glance (which action saturated its cap, which
    /// one ate the delay budget, which one lost work).
    pub per_action: Vec<(String, Tally)>,
}

impl LoadReport {
    /// Accepted requests that never completed. Zero on every healthy
    /// run — the drain protocol's whole point. Saturating:
    /// `completed` is a diff of the gateway's books and so includes
    /// completions of requests admitted before the run's first
    /// snapshot.
    pub fn lost(&self) -> u64 {
        self.tally.outstanding()
    }

    /// Human summary: one totals line, then one line per action that
    /// saw traffic, breaking out ok / delayed / shed (by reason) /
    /// lost.
    pub fn summary(&mut self) -> String {
        let (p50, p99) = (
            self.latency.quantile(0.5) / 1e9,
            self.latency.quantile(0.99) / 1e9,
        );
        let t = &self.tally;
        let mut s = format!(
            "{} completed / {} accepted ({} delayed) / {} shed in {:.2?}  |  {:.0} ops/s  |  p50 {:.1} µs  p99 {:.1} µs  |  {} cold  |  lost {}",
            t.completed,
            t.accepted,
            t.delayed,
            t.shed_total(),
            self.wall,
            self.throughput,
            p50 * 1e6,
            p99 * 1e6,
            self.cold_starts,
            self.lost()
        );
        for (name, a) in self.per_action.iter().filter(|(_, a)| a.arrivals() > 0) {
            let shed = |r: Shed| a[Outcome::Shed(r)];
            s.push_str(&format!(
                "\n  {name}: {}/{} ok, {} delayed, {} shed ({} queue, {} cap, {} route, {} budget), {} lost",
                a.completed,
                a.arrivals(),
                a.delayed,
                a.shed_total(),
                shed(Shed::QueueFull),
                shed(Shed::ActionSaturated),
                shed(Shed::NoInvoker),
                shed(Shed::DelayBudget),
                a.outstanding()
            ));
        }
        s
    }
}

/// Run-wide state shared by the submitter threads of one replay. The
/// closed-loop window lives in `inflight`; `submitting` counts
/// partitions still replaying so the last collector knows when the run
/// is over; `progress_ns` is a watermark of the latest wall offset at
/// which *any* thread made progress (stall detection must be global —
/// one thread idling while another drains is healthy).
struct Shared {
    inflight: AtomicUsize,
    submitting: AtomicUsize,
    stop: AtomicBool,
    progress_ns: AtomicU64,
}

/// Decrement `n` by `by`, clamping at zero — stray completions from
/// traffic predating the run must not underflow the shared window.
fn dec_clamped(n: &AtomicUsize, by: usize) {
    let _ = n.fetch_update(Ordering::AcqRel, Ordering::Relaxed, |cur| {
        Some(cur.saturating_sub(by))
    });
}

/// Replay `arrivals` against `gw`, mapping each arrival's function
/// index onto the gateway's action catalogue modulo its size. The
/// stream is partitioned **by action hash** across
/// [`HarnessConfig::submitters`] scoped threads, each running
/// `submitter_loop` against the shared window. Any submitter may
/// collect any completion (all sweep one shared buffer), so no
/// thread sees the whole run — its truth is the registry-snapshot diff.
pub fn run_load(gw: &Gateway, arrivals: &[Arrival], cfg: &HarnessConfig) -> LoadReport {
    let n_actions = gw.actions().len() as u32;
    let n_sub = cfg.submitters.max(1);
    // A start-of-run snapshot; every tally comes from the end-of-run
    // diff against it.
    let s0 = gw.telem.registry().snapshot();
    // All invocations of one action go through one submitter, so
    // per-action submission order does not depend on the thread count.
    let mut parts: Vec<Vec<Arrival>> = vec![Vec::new(); n_sub];
    for a in arrivals {
        let action = a.function as u32 % n_actions;
        parts[(mix64(action as u64 + 1) % n_sub as u64) as usize].push(*a);
    }
    let shared = Shared {
        inflight: AtomicUsize::new(0),
        submitting: AtomicUsize::new(n_sub),
        stop: AtomicBool::new(false),
        progress_ns: AtomicU64::new(0),
    };
    let t0 = Instant::now();
    // A panicking submitter propagates when the scope joins it.
    std::thread::scope(|scope| {
        for part in &parts {
            let shared = &shared;
            scope.spawn(move || submitter_loop(gw, part, cfg, shared, t0, n_actions));
        }
    });
    let wall = t0.elapsed();
    let s1 = gw.telem.registry().snapshot();
    // Absolute counter diffs (not the scrape-to-scrape `counter_delta`),
    // so an interleaved scrape by another observer — a metrics exporter
    // running mid-load — cannot steal this run's counts.
    let tally = |filter: &[(&str, &str)]| {
        let read = |s| Tally::from_scrape(s, REQUESTS, filter).unwrap_or_default();
        read(&s1).since(&read(&s0))
    };
    let cold = |s: &Snapshot| s.counter_sum(REQUESTS, &[("outcome", "cold")]);
    let latency = |s: &Snapshot| {
        let total = s.histogram("gateway_latency_ns", &[("kind", "total")]);
        total.cloned().unwrap_or_default()
    };
    let per_action = (0..n_actions).map(|i| {
        let name = gw.actions().spec(ActionId(i)).name.clone();
        let t = tally(&[("action", &name)]);
        (name, t)
    });
    let t = tally(&[]);
    LoadReport {
        wall,
        tally: t,
        cold_starts: cold(&s1).saturating_sub(cold(&s0)),
        throughput: t.completed as f64 / wall.as_secs_f64().max(1e-9),
        latency: latency(&s1).since(&latency(&s0)),
        per_action: per_action.collect(),
    }
}

/// The family the run's tallies are read from.
const REQUESTS: &str = "gateway_requests_total";

/// One submitter thread's loop: its own [`Collector`] cursor,
/// [`BurstScratch`] and clock reads, sharing only the atomic window and
/// the stop/progress flags.
///
/// [`Collector`]: crate::gateway::Collector
fn submitter_loop(
    gw: &Gateway,
    part: &[Arrival],
    cfg: &HarnessConfig,
    shared: &Shared,
    t0: Instant,
    n_actions: u32,
) {
    let mut col = gw.collector();
    let mut next = 0usize;
    let mut announced_done = false;
    let mut buf: Vec<crate::gateway::Completion> = Vec::with_capacity(SUBMIT_BATCH);
    let mut burst_reqs: Vec<(ActionId, u64)> = Vec::with_capacity(SUBMIT_BATCH);
    let mut burst_out: Vec<Result<crate::gateway::Admit, Shed>> = Vec::with_capacity(SUBMIT_BATCH);
    let mut scratch = BurstScratch::default();
    let progress = |at: Instant| {
        shared
            .progress_ns
            .fetch_max(at.duration_since(t0).as_nanos() as u64, Ordering::Relaxed)
    };
    loop {
        buf.clear();
        // Gate epoch *before* the sweep: a completion published while we
        // sweep bumps the epoch, so the park below returns immediately
        // instead of sleeping through it.
        let epoch = gw.completion_epoch();
        let collected = gw.collect_completions_with(&mut col, &mut buf);
        if collected > 0 {
            // A completion with no submission of this run outstanding is
            // a stray from traffic that predates it (the caller invoked
            // the gateway directly and did not collect); the clamp keeps
            // it out of the window.
            dec_clamped(&shared.inflight, collected);
            progress(Instant::now());
        }
        if shared.stop.load(Ordering::Relaxed) {
            break;
        }
        if next < part.len() {
            let window = cfg
                .max_inflight
                .saturating_sub(shared.inflight.load(Ordering::Acquire));
            if window > 0 {
                // One clock read decides how many arrivals are due and
                // serves as the shared admission timestamp of the
                // whole burst.
                let now = Instant::now();
                let due = if cfg.speedup <= 0.0 {
                    part.len() - next
                } else {
                    let sim_now = now.duration_since(t0).as_secs_f64() * cfg.speedup;
                    part[next..].partition_point(|a| a.at.as_secs_f64() <= sim_now)
                };
                let burst = due.min(window).min(SUBMIT_BATCH);
                if burst > 0 {
                    burst_reqs.clear();
                    burst_out.clear();
                    for a in &part[next..next + burst] {
                        let action = ActionId(a.function as u32 % n_actions);
                        burst_reqs.push((action, a.function as u64));
                    }
                    // Charge the window for the whole burst *before*
                    // submitting: an invoker can execute a request and a
                    // sibling collector decrement it before this thread
                    // even returns from `invoke_burst` — charging after
                    // the fact would leak those early decrements (they
                    // clamp at zero) and jam the window shut. Sheds are
                    // refunded below; they never complete. The progress
                    // mark goes first so nobody sees the window open on
                    // a watermark that predates a schedule gap.
                    progress(now);
                    shared.inflight.fetch_add(burst, Ordering::AcqRel);
                    gw.invoke_burst(&burst_reqs, now, &mut burst_out, &mut scratch);
                    let ok = burst_out.iter().filter(|o| o.is_ok()).count();
                    if ok < burst {
                        dec_clamped(&shared.inflight, burst - ok);
                    }
                    next += burst;
                    continue;
                }
            }
        } else {
            if !announced_done {
                announced_done = true;
                shared.submitting.fetch_sub(1, Ordering::AcqRel);
            }
            if shared.inflight.load(Ordering::Acquire) == 0
                && shared.submitting.load(Ordering::Acquire) == 0
            {
                break;
            }
        }
        if collected == 0 {
            // Nothing submittable and nothing collected. With requests
            // outstanding that is a stall once it lasts `stall_timeout`
            // (lost requests; `report.lost()` will be nonzero) — any
            // thread's progress resets the clock for all of them. With
            // the window empty it is only a gap in the schedule.
            if shared.inflight.load(Ordering::Acquire) > 0 {
                let idle = t0
                    .elapsed()
                    .as_nanos()
                    .saturating_sub(shared.progress_ns.load(Ordering::Relaxed) as u128);
                if idle > cfg.stall_timeout.as_nanos() {
                    shared.stop.store(true, Ordering::Release);
                    break;
                }
            }
            // Park on the completion gate instead of poll-sleeping: an
            // invoker flush wakes us the moment work lands, and the cap
            // (shrunk to the next due arrival) keeps the schedule honest
            // and the driver off the invokers' cores on small machines.
            let mut park = Duration::from_millis(1);
            if next < part.len() && cfg.speedup > 0.0 {
                let due_in = part[next].at.as_secs_f64() / cfg.speedup - t0.elapsed().as_secs_f64();
                if due_in > 0.0 {
                    park = park.min(Duration::from_secs_f64(due_in));
                }
            }
            gw.wait_completions(epoch, park);
        }
    }
}

/// Drive `arrivals` through `gw` while `ctl` replays its lease plan on
/// a scoped background thread — the canonical pairing of the load
/// harness with a [`CapacityController`]. Plan events already due at
/// call time (the epoch grants) are applied *before* the first arrival,
/// so bring-up never races traffic; once the replay completes the
/// controller is stopped and its remaining leases reaped. Returns the
/// load report together with the controller's final stats.
pub fn run_load_with_controller(
    gw: &Gateway,
    mut ctl: CapacityController<'_>,
    arrivals: &[Arrival],
    cfg: &HarnessConfig,
) -> (LoadReport, LeaseStats) {
    ctl.poll(Instant::now());
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let stop = &stop;
        let handle = s.spawn(move || {
            ctl.run(stop);
            ctl.finish()
        });
        let report = run_load(gw, arrivals, cfg);
        stop.store(true, Ordering::Release);
        (report, handle.join().expect("capacity controller thread"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::ActionSpec;
    use crate::gateway::GatewayConfig;
    use simcore::{SimDuration, SimTime};
    use workload::{DiurnalLoadGen, PoissonLoadGen};

    fn plane(n_invokers: usize, n_actions: usize) -> Gateway {
        let gw = Gateway::new(
            GatewayConfig::default(),
            (0..n_actions)
                .map(|i| ActionSpec::noop(&format!("fn-{i}")))
                .collect(),
        );
        for _ in 0..n_invokers {
            gw.start_invoker();
        }
        gw
    }

    #[test]
    fn poisson_replay_is_lossless() {
        let gw = plane(2, 8);
        let arrivals = PoissonLoadGen::new(4_000.0, 8).arrivals(SimDuration::from_millis(250), 3);
        assert!(!arrivals.is_empty());
        let mut r = run_load(&gw, &arrivals, &HarnessConfig::default());
        assert_eq!(r.lost(), 0, "{}", r.summary());
        assert_eq!(r.tally.arrivals(), arrivals.len() as u64);
        assert!(r.throughput > 0.0);
        assert!(r.latency.quantile(0.5) >= 0.0);
        assert_eq!(gw.shutdown(), 0);
    }

    #[test]
    fn diurnal_replay_is_lossless() {
        let gw = plane(2, 4);
        let arrivals = DiurnalLoadGen::new(500.0, 8_000.0, SimDuration::from_millis(200), 4)
            .arrivals(SimDuration::from_millis(200), 5);
        let mut r = run_load(
            &gw,
            &arrivals,
            &HarnessConfig {
                speedup: 2.0,
                ..Default::default()
            },
        );
        assert_eq!(r.lost(), 0, "{}", r.summary());
        assert!(r.tally.completed > 0);
    }

    #[test]
    fn flat_out_mode_ignores_schedule() {
        let gw = plane(2, 2);
        // Arrivals spread over a simulated hour: flat-out mode must not
        // take an hour.
        let arrivals = PoissonLoadGen::new(2.0, 2).arrivals(SimDuration::from_hours(1), 9);
        let t = Instant::now();
        let r = run_load(
            &gw,
            &arrivals,
            &HarnessConfig {
                speedup: 0.0,
                ..Default::default()
            },
        );
        assert!(t.elapsed() < Duration::from_secs(5));
        assert_eq!(r.lost(), 0);
        assert_eq!(r.tally.completed, arrivals.len() as u64);
    }

    #[test]
    fn empty_run_reports_nan_quantiles() {
        // Regression: a latency quantile of a run with no completions is
        // NaN (the guard lives in HistSnapshot::quantile), not a panic.
        let gw = plane(1, 1);
        let mut r = run_load(&gw, &[], &HarnessConfig::default());
        assert_eq!(r.tally.completed, 0);
        assert!(r.latency.quantile(0.5).is_nan());
        assert!(r.latency.quantile(0.99).is_nan());
        assert!(r.summary().contains("NaN"), "{}", r.summary());
        assert_eq!(gw.shutdown(), 0);
    }

    #[test]
    fn multi_submitter_replay_is_lossless() {
        // 2 and 4 submitters over the same stream: conservation holds
        // (submitted = accepted + shed, lost == 0) and the per-action
        // rows equal the single-threaded reference exactly — the
        // action-hash partition keeps every action on one submitter.
        let arrivals = PoissonLoadGen::new(6_000.0, 8).arrivals(SimDuration::from_millis(150), 17);
        let reference = {
            let gw = plane(2, 8);
            let r = run_load(
                &gw,
                &arrivals,
                &HarnessConfig {
                    speedup: 0.0,
                    ..Default::default()
                },
            );
            gw.shutdown();
            r
        };
        for submitters in [2usize, 4] {
            let gw = plane(2, 8);
            let mut r = run_load(
                &gw,
                &arrivals,
                &HarnessConfig {
                    speedup: 0.0,
                    submitters,
                    ..Default::default()
                },
            );
            assert_eq!(r.lost(), 0, "submitters={submitters}: {}", r.summary());
            assert_eq!(r.tally.arrivals(), arrivals.len() as u64);
            for ((name, a), (_, b)) in r.per_action.iter().zip(&reference.per_action) {
                assert_eq!(a.arrivals(), b.arrivals(), "row {name} arrivals");
                assert_eq!(a.completed, b.completed, "row {name} completed");
            }
            assert_eq!(gw.shutdown(), 0);
        }
    }

    #[test]
    fn schedule_gap_longer_than_stall_timeout_is_not_a_stall() {
        // Two arrivals 100 ms apart, stall valve at 20 ms: with nothing
        // outstanding the quiet stretch is the schedule, not a stall,
        // at any submitter count (the gap used to stop a 2-submitter
        // replay before its second arrival).
        let arrivals =
            [SimTime::ZERO, SimTime::from_millis(100)].map(|at| Arrival { at, function: 0 });
        for submitters in [1usize, 2] {
            let gw = plane(1, 1);
            let r = run_load(
                &gw,
                &arrivals,
                &HarnessConfig {
                    stall_timeout: Duration::from_millis(20),
                    submitters,
                    ..Default::default()
                },
            );
            assert_eq!(
                (r.tally.arrivals(), r.tally.completed),
                (2, 2),
                "submitters={submitters}"
            );
            assert_eq!(gw.shutdown(), 0);
        }
    }

    #[test]
    fn stray_completion_from_before_the_run_is_not_lost_work() {
        // A request admitted before the run's first snapshot completes
        // inside the run: the `completed` diff counts it, the
        // `accepted` diff does not, and `lost()` must read 0 instead of
        // underflowing.
        let gw = Gateway::new(
            GatewayConfig::default(),
            vec![ActionSpec::noop("slow")
                .with_body(crate::action::ActionBody::Sleep(Duration::from_millis(20)))],
        );
        gw.start_invoker();
        gw.invoke(ActionId(0), 0).expect("the stray is admitted");
        let arrivals = [SimTime::ZERO; 3].map(|at| Arrival { at, function: 0 });
        let mut r = run_load(&gw, &arrivals, &HarnessConfig::default());
        let summary = r.summary(); // prints `lost` for the run and the row
        assert_eq!(r.tally.arrivals(), arrivals.len() as u64, "{summary}");
        assert!(r.tally.completed >= r.tally.accepted, "{summary}");
        let row = r.per_action[0].1.outstanding();
        assert_eq!((r.lost(), row), (0, 0), "{summary}");
        assert_eq!(gw.shutdown(), 0);
    }

    #[test]
    fn closed_loop_window_bounds_queueing() {
        // One slow invoker, tiny window: the harness may never have more
        // than `max_inflight` outstanding, so queue depth stays bounded
        // and nothing is shed even though the plane is saturated.
        let gw = Gateway::new(
            GatewayConfig {
                queue_capacity: 4,
                ..Default::default()
            },
            vec![ActionSpec::noop("slow")
                .with_body(crate::action::ActionBody::Spin(Duration::from_micros(200)))],
        );
        gw.start_invoker();
        let arrivals = PoissonLoadGen::new(50_000.0, 1).arrivals(SimDuration::from_millis(20), 1);
        let mut r = run_load(
            &gw,
            &arrivals,
            &HarnessConfig {
                speedup: 0.0,
                max_inflight: 4,
                ..Default::default()
            },
        );
        let summary = r.summary();
        let shed = r.tally.shed_total();
        assert_eq!(shed, 0, "window ≤ queue bound ⇒ no sheds: {summary}");
        assert_eq!(r.lost(), 0);
    }
}
