//! Drain-without-loss stress matrix: seeded iterations of lease churn
//! — invoker leases granted, extended, drained at deadlines and
//! revoked at arbitrary points while a request stream flows — and
//! after every iteration, **every accepted request completed exactly
//! once**: no losses, no duplicates.
//!
//! Each iteration compiles its [`LeasePlan`] the way production does,
//! with [`LeasePlan::from_capacity_trace`] over a fresh window of the
//! calibrated idle model (renewals, early preemption-shaped revokes, a
//! pinned routable floor), and steps a [`CapacityController`] through
//! it — on a **virtual clock** interleaved with the submissions, or on
//! its own thread against the wall clock while submitters and
//! collectors race it.
//!
//! This exercises the whole drain stack at once: the atomic queue
//! closure, batched fast-lane/home-queue pops (including a
//! deadline-led or surprise drain landing while a popped batch is
//! mid-execution — in-flight work finishes, only unstarted backlog
//! moves), the fast-lane move with preserved `produced_at` (the `mq`
//! ordering semantics), producer-vs-drain races rerouting to the fast
//! lane, the router's epoch swaps under membership churn, the shared
//! completion buffer under invoker death and slot reuse, and the
//! controller's deadline-headroom drains racing live traffic.

use cluster::capacity;
use gateway::{
    books, ActionBody, ActionId, ActionSpec, AdmissionPolicy, BurstScratch, CapacityController,
    Completion, ControllerConfig, Gateway, GatewayConfig, LeaseEventKind, LeasePlan,
    TokenBucketCfg,
};
use metrics::Tally;
use simcore::{SimDuration, SimRng};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use workload::IdleModel;

/// Exactly-once under trace-driven churn, 120 iterations on the virtual
/// clock, each replaying its own window of the week model. The queue
/// bound (16) is below the drain batch (32), so a pop takes a whole
/// backlog at once.
#[test]
fn trace_driven_drains_exactly_once() {
    for iter in 0..120u64 {
        run_iteration(iter, 16);
    }
}

// A pop takes at most the queue bound from the home ring, so a bound
// of 1, 4 or 32 makes each ring pop hold at most that many bodies: one
// body in flight at a time, a small batch, and a full `DRAIN_BATCH`.
// A drain then lands between single bodies, inside a small batch, or
// behind a full one. 100 iterations each on their own trace seeds.

#[test]
fn hundred_randomized_drains_exactly_once_batch_1() {
    for iter in 0..100u64 {
        run_iteration(iter ^ (1 << 32), 1);
    }
}

#[test]
fn hundred_randomized_drains_exactly_once_batch_4() {
    for iter in 0..100u64 {
        run_iteration(iter ^ (4 << 32), 4);
    }
}

#[test]
fn hundred_randomized_drains_exactly_once_batch_32() {
    for iter in 0..100u64 {
        run_iteration(iter ^ (32 << 32), 32);
    }
}

/// ISSUE 9: the same exactly-once guarantee under **real concurrent
/// submitters and collectors** racing live lease churn. Every cell of
/// the {1, 2, 4}-submitter × {1, 2}-collector matrix runs seeded churn
/// iterations with the controller replaying its plan on its own thread,
/// and asserts conservation — `submitted = accepted + shed`, the
/// accepted sets disjoint across submitters, the collected id-sets
/// disjoint across collectors, and their union exactly the accepted
/// union (`lost == 0`, nothing duplicated).
#[test]
fn submitter_collector_matrix_exactly_once_under_churn() {
    for n_sub in [1usize, 2, 4] {
        for n_col in [1usize, 2] {
            for seed in 0..4u64 {
                run_matrix_iteration(seed, n_sub, n_col, AdmissionPolicy::HardShed);
            }
        }
    }
}

/// The token-bucket shaper under the same live churn, {1, 2, 4}
/// submitters racing on its one token line while capacity changes
/// reprice it. Asserts, on top of the matrix cell's exactly-once:
///
/// - **conservation**: the cell's closing [`books::check`] and
///   [`Gateway::totals`] (`delayed ≤ accepted`, as the submitters saw)
///   — no arrival double-counted or lost across the admit CAS, the
///   structural-shed refunds and the reprices;
/// - **rate bound** — total admissions never exceed what the token line
///   (max capacity × rate, plus burst and delay credit) could have
///   issued in the measured wall-clock window.
#[test]
fn token_bucket_churn_conservation() {
    const RATE: f64 = 1_000.0;
    const BURST: f64 = 48.0;
    const MAX_DELAY: Duration = Duration::from_millis(10);
    for n_sub in [1usize, 2, 4] {
        for seed in 0..3u64 {
            let run = run_matrix_iteration(
                seed,
                n_sub,
                1,
                AdmissionPolicy::TokenBucket(TokenBucketCfg {
                    rate_per_invoker: RATE,
                    burst: BURST,
                    max_delay: MAX_DELAY,
                }),
            );
            let t = run.gw.totals();
            assert_eq!(
                t.accepted, run.accepted,
                "seed {seed} {n_sub}sub: the books disagree with the submitters"
            );
            assert!(t.delayed <= run.accepted, "seed {seed} {n_sub}sub");
            // Even with every grant healthy for the whole window the
            // token line could issue at most (elapsed + max_delay) ×
            // max_capacity × rate admissions plus the burst — counted
            // twice, because a reprice re-scales the allowance in place.
            let bound = (run.elapsed + MAX_DELAY).as_secs_f64() * RATE * 6.0 + 2.0 * BURST;
            assert!(
                (run.accepted as f64) <= bound,
                "seed {seed} {n_sub}sub: token bucket over-admitted: {} accepted > bound {bound:.0}",
                run.accepted
            );
        }
    }
}

/// The fast lane has no wake: an idle invoker parks on its own ring and
/// re-polls the lane every 500 µs. So a backlog moved there by a drain
/// must reach a survivor that is parked at the moment of the move, with
/// no produce on the survivor's ring to wake it. One invoker A is woken
/// by one 20 ms sleep, which it runs alone, and seven more queue
/// behind it; survivor B starts idle and parks; A is sigtermed
/// mid-body. Every moved request completes exactly once on B, and B's
/// first start comes within the park plus slack of the move.
#[test]
fn drained_backlog_reaches_a_parked_survivor_without_a_wake() {
    const N: usize = 8;
    let gw = Gateway::new(
        GatewayConfig::default(),
        vec![ActionSpec::noop("sleep").with_body(ActionBody::Sleep(Duration::from_millis(20)))],
    );
    let a = gw.start_invoker();
    // One admission instant for every request, so each completion's
    // stamps place its start and end on one clock.
    let t0 = Instant::now();
    let invoke = |k: u64| gw.invoke_at(ActionId(0), k, t0).expect("accepted").id;
    // Let A park, so the first request wakes it alone and the rest
    // queue behind its body; then let B find its ring empty and park.
    // None of this is observable from here, so the sleeps only make it
    // likely; every assertion below holds whichever way they fell.
    std::thread::sleep(Duration::from_millis(2));
    let mut ids = HashSet::from([invoke(0)]);
    std::thread::sleep(Duration::from_millis(2));
    ids.extend((1..N as u64).map(invoke));
    let b = gw.start_invoker();
    std::thread::sleep(Duration::from_millis(8));
    let sigtermed = t0.elapsed();
    assert!(gw.sigterm(a));
    gw.join_invoker(a);

    let (mut col, mut done) = (gw.collector(), Vec::new());
    while done.len() < N {
        assert!(
            gw.collect_wait(&mut col, &mut done, Duration::from_secs(10)) > 0,
            "moved backlog stranded: {}/{N} completed",
            done.len()
        );
    }
    let collected: HashSet<u64> = done.iter().map(|c| c.id).collect();
    assert_eq!((done.len(), collected), (N, ids), "exactly once");
    let (on_a, on_b): (Vec<&Completion>, Vec<_>) = done.iter().partition(|c| c.invoker == a.id);
    assert!(on_b.iter().all(|c| c.invoker == b.id));
    assert!(on_b.len() >= N - 2, "only {} moved to B", on_b.len());
    assert_eq!(gw.fastlane_moves(), on_b.len() as u64);
    // A moves its backlog after the sigterm and right after its last
    // body ends: the later of the two bounds the move from below.
    let moved_at = on_a.iter().map(|c| c.total).fold(sigtermed, Duration::max);
    let b_first = on_b.iter().map(|c| c.queue_wait).min().expect("B ran");
    let gap = b_first
        .checked_sub(moved_at)
        .expect("B started before the move");
    assert!(
        gap <= Duration::from_millis(100),
        "parked survivor reached the lane {gap:?} after the move"
    );
    books::close(&gw, N as u64).expect("books");
    let t = gw.totals();
    assert_eq!((t.accepted, t.completed), (N as u64, N as u64));
}

/// One ledger, two readers — the plain [`Gateway::totals`] the
/// controller's feedback uses and the registry exposition — driven
/// through what could pull them apart: three submitters (`invoke`, and
/// `invoke_burst` of 8 and of 64, the benchmark's size) shedding
/// against a queue bound of 8 and a token bucket inside a closed
/// window, while the main thread sigterms, reaps and regrants an
/// invoker three times and samples `totals()` throughout. A rebuild
/// can land mid-burst, after which a router index the burst bucketed by
/// names another invoker (or none) and the burst falls back to its
/// scan.
#[test]
fn totals_and_exposition_are_one_ledger_across_a_reap() {
    const WINDOW: usize = 128;
    let gw = Gateway::new(
        GatewayConfig {
            queue_capacity: 8,
            admission: AdmissionPolicy::TokenBucket(TokenBucketCfg {
                rate_per_invoker: 50_000.0,
                burst: 16.0,
                max_delay: Duration::from_micros(500),
            }),
            ..Default::default()
        },
        vec![
            ActionSpec::noop("noop"),
            ActionSpec::noop("spin").with_body(ActionBody::Spin(Duration::from_micros(20))),
        ],
    );
    gw.start_invoker();
    let mut wave = gw.start_invoker();
    let (stop, inflight) = (AtomicBool::new(false), AtomicUsize::new(0));
    let deadline = Instant::now() + Duration::from_secs(30);

    let offered: u64 = std::thread::scope(|s| {
        let (gw, stop, inflight) = (&gw, &stop, &inflight);
        // One submitter per submit path and burst size (`invoke`,
        // `invoke_burst` of 8 and 64); each also collects, and all stay
        // until the window is empty.
        let subs = [1usize, 8, 64].map(|burst| {
            s.spawn(move || {
                let (mut col, mut done) = (gw.collector(), Vec::new());
                let (mut scratch, mut outcomes) = (BurstScratch::default(), Vec::new());
                let mut offered = 0u64;
                loop {
                    assert!(Instant::now() < deadline, "requests lost");
                    done.clear();
                    let got = gw.collect_completions_with(&mut col, &mut done);
                    inflight.fetch_sub(got, Ordering::AcqRel);
                    if stop.load(Ordering::Acquire) {
                        if inflight.load(Ordering::Acquire) == 0 {
                            return offered;
                        }
                    } else if inflight.fetch_add(burst, Ordering::AcqRel) + burst > WINDOW {
                        // The window is charged before the submit, as in
                        // the harness; an overshooting charge is returned.
                        inflight.fetch_sub(burst, Ordering::AcqRel);
                    } else {
                        let reqs: Vec<_> = (offered..offered + burst as u64)
                            .map(|k| (ActionId(k as u32 % 2), k))
                            .collect();
                        outcomes.clear();
                        if burst == 1 {
                            outcomes.push(gw.invoke(reqs[0].0, reqs[0].1));
                        } else {
                            gw.invoke_burst(&reqs, Instant::now(), &mut outcomes, &mut scratch);
                        }
                        offered += burst as u64;
                        let shed = outcomes.iter().filter(|o| o.is_err()).count();
                        inflight.fetch_sub(shed, Ordering::AcqRel);
                        if shed == 0 {
                            continue;
                        }
                    }
                    std::thread::yield_now();
                }
            })
        });
        // Every reading obeys both bounds, whatever the wave is doing:
        // `completed` never steps back (telemetry shards outlive their
        // invoker) and `outstanding()` never exceeds the window.
        let mut last = 0u64;
        let mut sample_for = |ms: u64| {
            let until = Instant::now() + Duration::from_millis(ms);
            while Instant::now() < until {
                let t = gw.totals();
                assert!(t.completed >= last, "completed stepped back: {t:?}");
                assert!(t.outstanding() <= WINDOW as u64, "past the window: {t:?}");
                last = t.completed;
                std::thread::sleep(Duration::from_micros(100));
            }
        };
        for _ in 0..3 {
            sample_for(15);
            assert!(gw.sigterm(wave));
            sample_for(2);
            gw.join_invoker(wave);
            sample_for(15);
            wave = gw.start_invoker();
        }
        sample_for(15);
        stop.store(true, Ordering::Release);
        subs.into_iter().map(|h| h.join().expect("submitter")).sum()
    });
    // After shutdown the books balance against what the submitters
    // offered, and the two readers agree as whole tallies.
    let snap = books::close(&gw, offered).expect("books");
    let t = gw.totals();
    let scraped = Tally::from_scrape(&snap, "gateway_requests_total", &[]);
    assert_eq!(scraped, Some(t));
    assert_eq!(
        Some(gw.fastlane_moves()),
        snap.counter("gateway_fastlane_moves_total", &[])
    );
    assert!(t.shed_total() > 0, "the config never shed: {t:?}");
}

/// What one matrix cell leaves behind for further assertions: the
/// (shut-down) gateway with its books, and the submit side's totals.
struct MatrixRun {
    gw: Gateway,
    accepted: u64,
    /// Wall-clock span from the first submit to the last collect.
    elapsed: Duration,
}

fn run_matrix_iteration(
    seed: u64,
    n_sub: usize,
    n_col: usize,
    admission: AdmissionPolicy,
) -> MatrixRun {
    let cell = ((n_sub as u64) << 8) | n_col as u64;
    let mut rng = SimRng::seed_from_u64(seed ^ 0x9e37_79b9 ^ (cell << 40));
    let n_requests = 300 + rng.index(200); // 300..=499, split across submitters
    let gw = Gateway::new(
        GatewayConfig {
            queue_capacity: 16,
            admission,
            ..Default::default()
        },
        vec![
            ActionSpec::noop("noop"),
            ActionSpec::noop("spin").with_body(ActionBody::Spin(Duration::from_micros(
                20 + rng.range_u64(0, 40),
            ))),
        ],
    );
    // Wall-clock churn this time: the controller replays the plan on
    // its own thread while submitters and collectors run flat out, so
    // grants/drains/revokes land at genuinely arbitrary points in the
    // submit and sweep races.
    let plan = trace_plan(seed ^ (cell << 40), Duration::from_millis(40));
    let t0 = Instant::now();
    let mut ctl = CapacityController::new(
        &gw,
        plan,
        ControllerConfig {
            drain_headroom: Duration::from_millis(2),
            ..Default::default()
        },
        t0,
    );
    // Epoch grants before traffic so bring-up never races the stream.
    ctl.poll(t0);

    let stop = AtomicBool::new(false);
    let submitting = AtomicUsize::new(n_sub);
    let accepted_total = AtomicUsize::new(0);
    let collected_total = AtomicUsize::new(0);
    let submit_start = Instant::now();

    let (accepted_sets, collected_sets, ctl_stats) = std::thread::scope(|s| {
        let gw = &gw;
        let stop = &stop;
        let submitting = &submitting;
        let accepted_total = &accepted_total;
        let collected_total = &collected_total;
        let ctl_handle = s.spawn(move || {
            ctl.run(stop);
            ctl.finish()
        });
        let sub_handles: Vec<_> = (0..n_sub)
            .map(|si| {
                let share = n_requests / n_sub + usize::from(si < n_requests % n_sub);
                let mut rng = SimRng::seed_from_u64(seed ^ (0xb5ad_4ece + si as u64));
                s.spawn(move || {
                    let mut scratch = BurstScratch::default();
                    let mut accepted = HashSet::new();
                    let mut shed = 0u64;
                    let mut submitted = 0usize;
                    while submitted < share {
                        if rng.chance(0.25) {
                            let n = (2 + rng.index(8)).min(share - submitted);
                            let reqs: Vec<_> = (0..n)
                                .map(|_| (ActionId(rng.index(2) as u32), rng.next_u64()))
                                .collect();
                            let mut outcomes = Vec::new();
                            gw.invoke_burst(&reqs, Instant::now(), &mut outcomes, &mut scratch);
                            submitted += n;
                            for outcome in outcomes {
                                match outcome {
                                    Ok(admit) => {
                                        assert!(accepted.insert(admit.id), "duplicate admit id");
                                    }
                                    Err(_) => shed += 1,
                                }
                            }
                        } else {
                            submitted += 1;
                            match gw.invoke(ActionId(rng.index(2) as u32), rng.next_u64()) {
                                Ok(admit) => {
                                    assert!(accepted.insert(admit.id), "duplicate admit id");
                                }
                                Err(_) => shed += 1,
                            }
                        }
                    }
                    // Conservation on the submit side: every attempt is
                    // either in the accepted set or counted shed.
                    assert_eq!(submitted as u64, accepted.len() as u64 + shed);
                    accepted_total.fetch_add(accepted.len(), Ordering::AcqRel);
                    submitting.fetch_sub(1, Ordering::AcqRel);
                    accepted
                })
            })
            .collect();
        let col_handles: Vec<_> = (0..n_col)
            .map(|_| {
                s.spawn(move || {
                    let mut col = gw.collector();
                    let mut buf = Vec::new();
                    let mut ids = Vec::new();
                    let deadline = Instant::now() + Duration::from_secs(20);
                    loop {
                        buf.clear();
                        let epoch = gw.completion_epoch();
                        let got = gw.collect_completions_with(&mut col, &mut buf);
                        if got > 0 {
                            ids.extend(buf.iter().map(|c| c.id));
                            collected_total.fetch_add(got, Ordering::AcqRel);
                            continue;
                        }
                        // Submitters done ⇒ accepted_total is final; all
                        // collectors stop once the union is complete.
                        if submitting.load(Ordering::Acquire) == 0
                            && collected_total.load(Ordering::Acquire)
                                >= accepted_total.load(Ordering::Acquire)
                        {
                            break;
                        }
                        assert!(
                            Instant::now() < deadline,
                            "seed {seed} {n_sub}sub/{n_col}col: lost requests \
                             ({}/{} collected)",
                            collected_total.load(Ordering::Relaxed),
                            accepted_total.load(Ordering::Relaxed),
                        );
                        gw.wait_completions(epoch, Duration::from_millis(1));
                    }
                    ids
                })
            })
            .collect();
        let accepted_sets: Vec<HashSet<u64>> = sub_handles
            .into_iter()
            .map(|h| h.join().expect("submitter"))
            .collect();
        let collected_sets: Vec<Vec<u64>> = col_handles
            .into_iter()
            .map(|h| h.join().expect("collector"))
            .collect();
        stop.store(true, Ordering::Release);
        let stats = ctl_handle.join().expect("controller");
        (accepted_sets, collected_sets, stats)
    });
    let elapsed = submit_start.elapsed();

    // Accepted ids are globally unique across submitters.
    let mut accepted = HashSet::new();
    for set in &accepted_sets {
        for id in set {
            assert!(
                accepted.insert(*id),
                "seed {seed} {n_sub}sub/{n_col}col: admit id {id} issued twice"
            );
        }
    }
    // The collectors' id-sets are disjoint and their union is exactly
    // the accepted set: exactly-once across concurrent collectors.
    let mut completed = HashSet::new();
    for ids in &collected_sets {
        for id in ids {
            assert!(
                completed.insert(*id),
                "seed {seed} {n_sub}sub/{n_col}col: request {id} collected twice"
            );
        }
    }
    assert_eq!(
        completed, accepted,
        "seed {seed} {n_sub}sub/{n_col}col: collected ≠ accepted"
    );
    assert!(ctl_stats.grants >= 1, "plan granted nothing: {ctl_stats:?}");
    let cell = format!("seed {seed} {n_sub}sub/{n_col}col");
    books::close(&gw, n_requests as u64).unwrap_or_else(|v| panic!("{cell}: {v:?}"));
    let stray = gw.collect_completions_with(&mut gw.collector(), &mut Vec::new());
    assert_eq!(stray, 0, "stray completion");
    MatrixRun {
        gw,
        accepted: accepted.len() as u64,
        elapsed,
    }
}

/// A plan replaying a fresh 30-minute window of the calibrated week
/// model in 2-minute lease quanta, Slurm's backfill slot (the trace
/// seed moves with `seed`, so every iteration gets its own
/// grant/extend/revoke schedule), compressed into `horizon`, capped at
/// six leases over a pinned floor of one that keeps the plane routable.
/// Every plan renews a lease and revokes one before its deadline, the
/// two shapes a drain must survive besides the plain deadline revoke: a
/// window without both (one of the 300 first windows the batch tests
/// draw) is passed over for the next one of the same seed, and the
/// helper panics if eight in a row lack them.
fn trace_plan(seed: u64, horizon: Duration) -> LeasePlan {
    let window = SimDuration::from_mins(30);
    let speedup = window.as_secs_f64() / horizon.as_secs_f64();
    let mut shapes = Vec::new();
    for next in 0..8u64 {
        let trace = IdleModel::prometheus_week().capacity_trace(
            window,
            0x5eed ^ seed.wrapping_mul(0x9e37_79b9) ^ next.wrapping_mul(0xa076_1d64_78bd_642f),
            SimDuration::from_mins(2),
        );
        let plan = LeasePlan::from_capacity_trace(&trace, speedup, 6, 1);
        let extends = plan
            .events
            .iter()
            .filter(|e| matches!(e.kind, LeaseEventKind::Extend { .. }))
            .count();
        let early = capacity::n_early_revokes(&plan.events);
        if extends >= 1 && early >= 1 {
            return plan;
        }
        shapes.push((extends, early));
    }
    panic!("seed {seed}: no window renews and revokes early: (extends, early revokes) {shapes:?}");
}

/// One iteration on the virtual clock: a trace plan stepped once per
/// submitted request, on invokers whose queues hold `queue_capacity`.
fn run_iteration(seed: u64, queue_capacity: usize) {
    let mut rng = SimRng::seed_from_u64(seed ^ 0xd8a1_57e5);
    let n_requests = 120 + rng.index(180); // 120..=299
    let gw = Gateway::new(
        GatewayConfig {
            // Small queues make producer-vs-drain races and fast-lane
            // fallbacks far more likely.
            queue_capacity,
            ..Default::default()
        },
        vec![
            ActionSpec::noop("noop"),
            // A touch of real work so backlogs build and drains land
            // mid-burst and mid-batch.
            ActionSpec::noop("spin").with_body(ActionBody::Spin(Duration::from_micros(
                20 + rng.range_u64(0, 60),
            ))),
        ],
    );
    // The lease schedule: one virtual tick per submitted request. The
    // plan's pinned floor keeps one invoker routable at all times, so
    // everything accepted can complete.
    let step = Duration::from_micros(100);
    let t0 = Instant::now();
    let mut ctl = CapacityController::new(
        &gw,
        trace_plan(seed, step * n_requests as u32),
        ControllerConfig {
            drain_headroom: step * 2,
            ..Default::default()
        },
        t0,
    );

    let mut accepted = HashSet::new();
    let (mut offered, mut shed) = (0u64, 0u64);
    let mut scratch = BurstScratch::default();
    for i in 0..n_requests {
        // Advance the lease clock: grants, deadline drains, revokes and
        // renewals interleave with the stream at seed-determined points.
        ctl.poll(t0 + step * i as u32);
        // Mix the two submit paths: mostly single invokes, ~25% grouped
        // bursts (the batched-producer path that can race a drain with
        // a whole group and take the fast-lane fallback wholesale).
        if rng.chance(0.25) {
            let n = 2 + rng.index(10);
            let reqs: Vec<_> = (0..n)
                .map(|_| (ActionId(rng.index(2) as u32), rng.next_u64()))
                .collect();
            let mut outcomes = Vec::new();
            gw.invoke_burst(&reqs, Instant::now(), &mut outcomes, &mut scratch);
            assert_eq!(outcomes.len(), reqs.len());
            offered += n as u64;
            for outcome in outcomes {
                match outcome {
                    Ok(admit) => {
                        assert!(accepted.insert(admit.id), "request ids must be unique");
                    }
                    Err(_) => shed += 1,
                }
            }
        } else {
            offered += 1;
            let action = ActionId(rng.index(2) as u32);
            match gw.invoke(action, rng.next_u64()) {
                Ok(admit) => {
                    assert!(accepted.insert(admit.id), "request ids must be unique");
                }
                Err(_) => shed += 1,
            }
        }
    }

    // Collect every completion; exactly-once means the completed set
    // equals the accepted set with no duplicates.
    let (mut col, mut buf) = (gw.collector(), Vec::new());
    let mut completed = HashSet::new();
    while completed.len() < accepted.len() {
        buf.clear();
        if gw.collect_wait(&mut col, &mut buf, Duration::from_secs(10)) == 0 {
            panic!(
                "seed {seed}: lost {} of {} accepted requests ({} shed, {:?})",
                accepted.len() - completed.len(),
                accepted.len(),
                shed,
                ctl.stats(),
            )
        }
        for c in &buf {
            assert!(
                completed.insert(c.id),
                "seed {seed}: request {} executed twice",
                c.id
            );
            assert!(
                accepted.contains(&c.id),
                "seed {seed}: completion for unknown request {}",
                c.id
            );
        }
    }
    assert_eq!(completed, accepted, "seed {seed}");
    let stats = ctl.finish();
    assert!(stats.grants >= 1, "plan granted nothing: {stats:?}");
    // Graceful shutdown afterwards strands nothing, and with every
    // invoker joined the books balance: everything offered accepted or
    // shed, everything accepted completed, leases and containers
    // conserved.
    books::close(&gw, offered).unwrap_or_else(|v| panic!("seed {seed}: {v:?}"));
    assert_eq!(
        gw.collect_completions_with(&mut col, &mut buf),
        0,
        "seed {seed}: stray completion"
    );
}
