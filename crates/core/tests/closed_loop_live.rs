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
//!   pilot churn rather than a hand-written plan).

use gateway::{ActionId, ActionSpec, CapacityController, ControllerConfig, Gateway, GatewayConfig};
use hpcwhisk_core::{DesLeaseSource, DesSourceCfg, SizerCfg};
use simcore::SimDuration;
use std::time::{Duration, Instant};

fn ms(n: u64) -> Duration {
    Duration::from_millis(n)
}

fn cfg() -> DesSourceCfg {
    DesSourceCfg {
        n_nodes: 8,
        seed: 42,
        speedup: 60.0, // one simulated minute per wall second
        horizon: SimDuration::from_mins(20),
        max_leases: 4,
        floor: 1,
        drain: SimDuration::from_secs(2),
        warmup: None,     // deterministic: invokers boot instantly
        hpc_churn: false, // empty cluster: placement is immediate
        sizer: SizerCfg {
            rate_per_invoker: 50.0,
            headroom: 1.0,
            backlog_per_invoker: 1e12, // rate term only: deterministic
            min_invokers: 1,
            max_invokers: 4,
            alpha: 1.0,
        },
        pilot_len: SimDuration::from_mins(5),
        pilot_priority: 10,
        replenish_every: SimDuration::from_secs(15),
        ..Default::default()
    }
}

#[test]
fn stepped_cycle_conserves_leases_and_sizes_to_load() {
    let gw = Gateway::new(GatewayConfig::default(), vec![ActionSpec::noop("f")]);
    let src = DesLeaseSource::new(cfg());
    let registry = src.registry().clone();
    let t0 = Instant::now();
    let mut ctl = CapacityController::from_source(
        &gw,
        Box::new(src),
        ControllerConfig {
            drain_headroom: ms(5),
            min_routable: 1,
            poll_interval: ms(10),
            feedback_every: Some(ms(250)),
        },
        t0,
    );

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
        let pg = snap.counter("pilot_grants_total", &[]).unwrap_or(0);
        let pr = snap.counter("pilot_revokes_total", &[]).unwrap_or(0);
        let live = snap.gauge("pilot_leases_live", &[]).unwrap_or(0);
        assert_eq!(pg as i64 - pr as i64, live, "pilot registry conserves");
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
    assert_eq!(
        gw.totals().outstanding(),
        0,
        "all accepted requests completed ({submitted} submitted)"
    );
    let fs = ctl.finish();
    assert_eq!(fs.reaped_at_finish, 1, "finish reaps the floor lease");
}

#[test]
fn starved_feedback_never_grants_above_floor() {
    // No traffic at all: the sizer sees empty windows from the first
    // one on, keeps its target at the floor, and the supply the manager
    // maintains stays minimal — pilot grants happen (the floor of the
    // *sizer*, min_invokers, is served by pilots) but never more than
    // the target plus placement overlap.
    let mut c = cfg();
    c.sizer.min_invokers = 1;
    c.sizer.max_invokers = 4;
    c.horizon = SimDuration::from_mins(10);
    let gw = Gateway::new(GatewayConfig::default(), vec![ActionSpec::noop("f")]);
    let src = DesLeaseSource::new(c);
    let registry = src.registry().clone();
    let t0 = Instant::now();
    let mut ctl = CapacityController::from_source(
        &gw,
        Box::new(src),
        ControllerConfig {
            drain_headroom: ms(5),
            min_routable: 1,
            poll_interval: ms(10),
            feedback_every: Some(ms(250)),
        },
        t0,
    );
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
}
