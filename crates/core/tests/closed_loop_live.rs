//! The closed loop, stepped deterministically: manager → cluster DES →
//! capacity controller → live gateway, driven by a virtual clock.
//!
//! What must hold across a full pilot placement + eviction cycle:
//!
//! * **exactly-once lease conservation** — at every step, the
//!   controller's `grants − revokes` equals its live lease count, the
//!   gateway's routable invokers equal the controller's non-draining
//!   leases, and the pilot registry's counters obey
//!   `pilot_grants_total − pilot_revokes_total == pilot_leases_live`;
//! * **feedback steers sizing** — observed load raises the sizer's
//!   target above its floor; starved feedback (no traffic) lets it
//!   shrink back, and the routable floor is respected throughout;
//! * **nothing is lost** — every request accepted by the gateway
//!   completes (the §III-C drain guarantee, exercised here through real
//!   pilot churn rather than a hand-written plan);
//! * **the stream is pinned** — scripted polls and feedback windows,
//!   with no gateway, yield a recorded lease sequence and books.

use gateway::{
    books, ActionId, ActionSpec, CapacityController, ControllerConfig, Gateway, GatewayConfig,
    LeaseEvent, LeaseEventKind, LeaseSource, LoadFeedback,
};
use hpcwhisk_core::{
    live, DesLeaseSource, DesSourceCfg, IdleSource, ManagerKind, PilotStats, SizerCfg, WarmupModel,
};
use simcore::SimDuration;
use std::sync::Arc;
use std::time::{Duration, Instant};
use telemetry::Registry;

fn ms(n: u64) -> Duration {
    Duration::from_millis(n)
}

fn cfg() -> DesSourceCfg<'static> {
    DesSourceCfg {
        // Empty cluster: placement is immediate.
        idle: IdleSource::Empty {
            n_nodes: 8,
            horizon: SimDuration::from_mins(20),
        },
        seed: 42,
        speedup: 60.0, // one simulated minute per wall second
        max_leases: 4,
        floor: 1,
        warmup: WarmupModel::instant(), // deterministic
        manager: ManagerKind::LoadSized {
            sizer: sizer(4),
            pilot_len: SimDuration::from_mins(5),
        },
    }
}

/// Rate term only, no smoothing: deterministic.
fn sizer(max_invokers: usize) -> SizerCfg {
    SizerCfg {
        rate_per_invoker: 50.0,
        headroom: 1.0,
        backlog_per_invoker: 1e12,
        min_invokers: 1,
        max_invokers,
        alpha: 1.0,
    }
}

/// A controller over a source built from `c`, with 250 ms feedback
/// windows, and the source's pilot registry.
fn controller<'g>(
    gw: &'g Gateway,
    c: DesSourceCfg<'_>,
    t0: Instant,
) -> (CapacityController<'g>, Arc<Registry>) {
    let src = DesLeaseSource::new(c);
    let registry = src.registry().clone();
    let cfg = ControllerConfig {
        drain_headroom: ms(5),
        feedback_every: Some(ms(250)),
    };
    (
        CapacityController::from_source(gw, Box::new(src), cfg, t0),
        registry,
    )
}

#[test]
fn stepped_cycle_conserves_leases_and_sizes_to_load() {
    let gw = Gateway::new(GatewayConfig::default(), vec![ActionSpec::noop("f")]);
    let t0 = Instant::now();
    let (mut ctl, registry) = controller(&gw, cfg(), t0);

    // Load during the first virtual half: ~150 req per 250 ms window =
    // 600 req/s, which at 50 req/s/invoker asks for the 4-invoker cap.
    // Silence after: the sizer must fall back to its floor.
    let load_until = ms(10_000);
    let horizon_wall = ms(20_000); // 20 sim min at speedup 60
    let mut now = t0;
    let mut max_target = 0i64;
    let mut steps = 0u64;
    let mut submitted = 0u64;
    let mut accepted = 0u64;
    loop {
        steps += 1;
        assert!(steps < 1_000_000, "stepper runaway");
        let wake = ctl.poll(now);

        // Conservation at every single step.
        let s = ctl.stats();
        assert_eq!(
            s.grants - s.revokes,
            ctl.n_active() as u64,
            "controller books balance at step {steps}"
        );
        assert_eq!(
            gw.n_healthy(),
            ctl.n_routable(),
            "gateway routability mirrors non-draining leases"
        );
        let snap = registry.snapshot();
        live::check_books(&snap).unwrap_or_else(|v| panic!("pilot books, step {steps}: {v:?}"));
        assert!(
            ctl.n_routable() >= 1 || s.grants == 1,
            "routable floor respected once the floor grant landed"
        );
        max_target = max_target.max(snap.gauge("pilot_target_invokers", &[]).unwrap_or(0));

        if ctl.plan_done() {
            break;
        }

        // Drive traffic while inside the load phase.
        let offset = now - t0;
        if offset < load_until && gw.n_healthy() > 0 {
            for i in 0..15u64 {
                submitted += 1;
                if gw
                    .invoke(ActionId(0), offset.as_millis() as u64 * 100 + i)
                    .is_ok()
                {
                    accepted += 1;
                }
            }
        }

        // Virtual clock: jump to the controller's requested wake (or a
        // poll interval if it has none), never past the horizon check.
        now = wake.unwrap_or(now + ms(10)).max(now + ms(1));
        assert!(
            now - t0 < horizon_wall + ms(60_000),
            "virtual clock ran far past the horizon without exhausting"
        );
    }

    // The DES closed every lease at its horizon: only the pinned floor
    // remains, and the books agree.
    let s = ctl.stats();
    assert_eq!(ctl.n_active(), 1, "only the floor lease survives");
    assert_eq!(s.grants - s.revokes, 1);
    let snap = registry.snapshot();
    let pg = snap.counter("pilot_grants_total", &[]).unwrap_or(0);
    let pr = snap.counter("pilot_revokes_total", &[]).unwrap_or(0);
    assert!(pg > 0, "the loop actually granted pilot capacity");
    assert_eq!(pg, pr, "every DES grant was revoked by the horizon");
    assert_eq!(snap.gauge("pilot_leases_live", &[]).unwrap_or(-1), 0);

    // Feedback steered the sizer: load pushed the target above the
    // floor; starvation brought it back down.
    assert!(
        snap.counter("pilot_feedback_windows_total", &[])
            .unwrap_or(0)
            > 0,
        "feedback windows reached the source"
    );
    assert!(
        max_target > 1,
        "observed load raised the invoker target above the floor (max {max_target})"
    );
    assert_eq!(
        snap.gauge("pilot_target_invokers", &[]).unwrap_or(-1),
        1,
        "starved feedback shrank the target back to the floor"
    );

    // Nothing lost: every accepted request completes (the floor invoker
    // survives to the end, so the drain guarantee applies).
    assert!(accepted > 0, "the load phase admitted traffic");
    let deadline = Instant::now() + Duration::from_secs(10);
    while gw.totals().outstanding() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let fs = ctl.finish();
    assert_eq!(fs.reaped_at_finish, 1, "finish reaps the floor lease");
    books::close(&gw, submitted).unwrap_or_else(|v| panic!("{submitted} submitted: {v:?}"));
}

#[test]
fn starved_feedback_never_grants_above_floor() {
    // No traffic at all: the sizer sees empty windows from the first
    // one on, keeps its target at the floor, and the supply the manager
    // maintains stays minimal — pilot grants happen (the floor of the
    // *sizer*, min_invokers, is served by pilots) but never more than
    // the target plus placement overlap.
    let c = DesSourceCfg {
        idle: IdleSource::Empty {
            n_nodes: 8,
            horizon: SimDuration::from_mins(10),
        },
        ..cfg()
    };
    let gw = Gateway::new(GatewayConfig::default(), vec![ActionSpec::noop("f")]);
    let t0 = Instant::now();
    let (mut ctl, registry) = controller(&gw, c, t0);
    let mut now = t0;
    let mut steps = 0u64;
    loop {
        steps += 1;
        assert!(steps < 1_000_000, "stepper runaway");
        let wake = ctl.poll(now);
        let snap = registry.snapshot();
        assert!(
            snap.gauge("pilot_target_invokers", &[]).unwrap_or(0) <= 1,
            "no load → target stays at the sizer floor"
        );
        // Live DES leases track the tiny target: at most the target
        // plus one replenish cycle of overlap while an old pilot drains
        // and its replacement starts.
        assert!(
            snap.gauge("pilot_leases_live", &[]).unwrap_or(0) <= 2,
            "supply stays at the floor (plus handover overlap)"
        );
        if ctl.plan_done() {
            break;
        }
        now = wake.unwrap_or(now + ms(10)).max(now + ms(1));
    }
    let snap = registry.snapshot();
    let pg = snap.counter("pilot_grants_total", &[]).unwrap_or(0);
    let pr = snap.counter("pilot_revokes_total", &[]).unwrap_or(0);
    assert_eq!(pg, pr, "conservation holds in the starved case too");
    assert!(
        gw.n_healthy() >= 1,
        "the pinned routable floor held throughout"
    );
    ctl.finish();
    books::close(&gw, 0).expect("gateway books");
}

/// One lease event as `(at_ns, node, Some(deadline_ns))` for a grant
/// and `(at_ns, node, None)` for a revoke.
type Pinned = (u64, u32, Option<u64>);

/// Drive `src` on a virtual wall clock with no gateway: a poll every
/// 250 ms, each followed by one feedback window whose arrivals ramp up
/// to 600 req/s over the first half of the horizon and are zero after.
/// Returns the lease stream in canonical order (time, revokes first,
/// node: the horizon close revokes a batch at one instant) and the
/// source's final books.
fn scripted_stream(mut src: DesLeaseSource, horizon_wall: Duration) -> (Vec<Pinned>, PilotStats) {
    let step = ms(250);
    let mut events: Vec<LeaseEvent> = Vec::new();
    let mut now = Duration::ZERO;
    let mut window = 0u64;
    while !src.exhausted() {
        src.poll(now, &mut events);
        let arrivals = if now < horizon_wall / 2 {
            (window * 15).min(150)
        } else {
            0
        };
        src.observe(&LoadFeedback {
            window: step,
            arrivals,
            ..Default::default()
        });
        window += 1;
        now += step;
        assert!(now < horizon_wall * 2, "the source never exhausted");
    }
    cluster::capacity::sort(&mut events);
    let ns = |d: Duration| d.as_nanos() as u64;
    let pinned = events.iter().map(|e| match e.kind {
        LeaseEventKind::Grant { deadline } => (ns(e.at), e.node, Some(ns(deadline))),
        _ => (ns(e.at), e.node, None),
    });
    (pinned.collect(), src.stats())
}

/// The callers' shape: instant warm-up, an empty 8-node cluster, at
/// most 4 leases, and a sizer that asks for more pilots than the
/// cluster has nodes at the peak, so grants hit the lease cap, pilots
/// queue, and the starved half cancels them.
fn scripted_cfg() -> DesSourceCfg<'static> {
    DesSourceCfg {
        manager: ManagerKind::LoadSized {
            sizer: SizerCfg {
                alpha: 0.5,
                ..sizer(10)
            },
            pilot_len: SimDuration::from_mins(5),
        },
        ..cfg()
    }
}

#[test]
fn scripted_polls_and_feedback_pin_the_lease_stream() {
    let (events, stats) = scripted_stream(DesLeaseSource::new(scripted_cfg()), ms(20_000));
    // Recorded before the three DES loops became one driver.
    let expected: Vec<Pinned> = vec![
        (0, 1_000_000, Some(20_000_000_000_000)),
        (33_333_333, 0, Some(6_033_333_333)),
        (500_000_000, 1, Some(6_500_000_000)),
        (750_000_000, 2, Some(6_750_000_000)),
        (1_000_000_000, 3, Some(7_000_000_000)),
        (6_033_333_333, 0, None),
        (6_066_666_667, 4, Some(12_066_666_667)),
        (6_500_000_000, 1, None),
        (6_533_333_333, 5, Some(12_533_333_333)),
        (6_750_000_000, 2, None),
        (6_783_333_333, 6, Some(12_783_333_333)),
        (7_000_000_000, 3, None),
        (7_033_333_333, 7, Some(13_033_333_333)),
        (12_066_666_667, 4, None),
        (12_533_333_333, 5, None),
        (12_783_333_333, 6, None),
        (13_033_333_333, 7, None),
        (14_000_000_000, 8, Some(20_000_000_000)),
        (20_000_000_000, 8, None),
    ];
    assert_eq!(events, expected);
    assert_eq!(
        stats,
        PilotStats {
            submitted: 19,
            cancelled: 2,
            grants: 9,
            revokes: 9,
            preemptions: 0,
            capped: 8,
            warmup_cancelled: 8,
            feedbacks: 81,
            leased_node_secs: 3_240,
        }
    );

    // The same script over a generated HPC job stream with the measured
    // warm-up: pilots wait for backfill holes and are preempted.
    let src = DesLeaseSource::new(DesSourceCfg {
        idle: IdleSource::Backlog {
            n_nodes: 8,
            horizon: SimDuration::from_mins(20),
        },
        warmup: WarmupModel::default(),
        ..scripted_cfg()
    });
    let (events, stats) = scripted_stream(src, ms(20_000));
    let expected: Vec<Pinned> = vec![
        (0, 1_000_000, Some(20_000_000_000_000)),
        (158_400_000, 0, Some(6_033_333_333)),
        (632_783_333, 1, Some(6_500_000_000)),
        (1_156_850_000, 2, Some(6_750_000_000)),
        (1_420_250_000, 3, Some(7_000_000_000)),
        (6_033_333_333, 0, None),
        (6_248_516_667, 4, Some(12_066_666_667)),
        (6_500_000_000, 1, None),
        (6_664_350_000, 5, Some(12_533_333_333)),
        (6_750_000_000, 2, None),
        (6_984_333_333, 6, Some(12_783_333_333)),
        (7_000_000_000, 3, None),
        (7_198_316_667, 7, Some(13_033_333_333)),
        (11_000_000_000, 4, None),
        (11_000_000_000, 5, None),
        (11_000_000_000, 6, None),
        (11_000_000_000, 7, None),
    ];
    assert_eq!(events, expected);
    assert_eq!(
        stats,
        PilotStats {
            submitted: 18,
            cancelled: 3,
            grants: 8,
            revokes: 8,
            preemptions: 4,
            capped: 6,
            warmup_cancelled: 6,
            feedbacks: 81,
            leased_node_secs: 2_389,
        }
    );
}
