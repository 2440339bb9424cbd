//! The flight recorder end to end: with the recorder enabled, a short
//! gateway run leaves cold-start / warm-hit / drain / evict events in
//! the per-thread rings, and an injected exactly-once violation dumps
//! that ring — the black box a conservation failure is diagnosed from.

use gateway::{ActionId, ActionSpec, Gateway, GatewayConfig};
use std::collections::HashSet;
use std::time::{Duration, Instant};
use telemetry::flight::{self, EventKind};

/// The rings hold a `kind` event with payload `b`, if given (an evict's
/// `b` is its reason: 0 LRU, 1 keep-alive, 2 drain).
fn recorded(kind: EventKind, b: Option<u64>) -> bool {
    flight::events()
        .iter()
        .any(|e| e.kind == kind && b.is_none_or(|b| e.b == b))
}

/// Single test (the recorder is process-global, so phases share one fn):
/// drive traffic, sigterm an invoker, then trip `flight::guard` on a
/// fabricated duplicate-completion count and inspect the dump.
#[test]
fn violation_dumps_recorded_ring() {
    flight::enable();
    // fn-1 keeps no idle container, so an idle invoker's sweep retires
    // it; fn-0's survive until their invoker drains.
    let fn1 = ActionSpec::noop("fn-1").with_keepalive(Duration::ZERO);
    let gw = Gateway::new(
        GatewayConfig::default(),
        vec![ActionSpec::noop("fn-0"), fn1],
    );
    let t1 = gw.start_invoker();
    let _t2 = gw.start_invoker();

    let mut ids = HashSet::new();
    for i in 0..64u64 {
        ids.insert(gw.invoke(ActionId((i % 2) as u32), i).expect("accepted").id);
    }
    // A drain mid-run so DrainStart/DrainFinish land in the ring too.
    assert!(gw.sigterm(t1));
    gw.join_invoker(t1);

    let (mut col, mut done) = (gw.collector(), Vec::new());
    let mut seen = HashSet::new();
    while seen.len() < ids.len() {
        done.clear();
        let got = gw.collect_wait(&mut col, &mut done, Duration::from_secs(10));
        assert!(got > 0, "completion within 10s");
        for c in &done {
            // The real exactly-once check, phrased through the guard: a
            // repeated completion id would dump the ring right here.
            flight::guard(
                seen.insert(c.id),
                "completion id delivered exactly once per admitted request",
            );
        }
    }
    assert_eq!(seen, ids);
    // One more fn-1 on the survivor, which then idles and sweeps.
    gw.invoke(ActionId(1), 64).expect("accepted");
    let one = gw.collect_wait(&mut col, &mut done, Duration::from_secs(10));
    assert_eq!(one, 1);
    let deadline = Instant::now() + Duration::from_secs(10);
    while !recorded(EventKind::Evict, Some(1)) {
        assert!(Instant::now() < deadline, "no keep-alive eviction in 10 s");
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(gw.shutdown(), 0);

    assert!(
        recorded(EventKind::ColdStart, None),
        "a first run cold-starts"
    );
    assert!(recorded(EventKind::DrainStart, None), "a sigterm drains");
    assert!(recorded(EventKind::DrainFinish, None), "a drain finishes");

    // Inject a violation: the guard must dump the ring before panicking.
    assert!(flight::last_dump().is_none(), "clean run leaves no dump");
    let err = std::panic::catch_unwind(|| {
        flight::guard(false, "injected: completions exceed admissions");
    })
    .expect_err("violated guard panics");
    let msg = err
        .downcast_ref::<String>()
        .map(String::as_str)
        .unwrap_or_default();
    assert!(msg.contains("injected: completions exceed admissions"));

    let dump = flight::last_dump().expect("violation stored a dump");
    assert!(dump.contains("injected: completions exceed admissions"));
    assert!(dump.contains("=== flight recorder"), "dump header present");
    assert!(
        dump.contains("cold_start") || dump.contains("warm_hit"),
        "dump shows execution events: {dump}"
    );
    let evicts: Vec<&str> = dump.lines().filter(|l| l.contains(" evict ")).collect();
    for tag in [1, 2] {
        let b = format!(" b={tag}");
        assert!(evicts.iter().any(|l| l.ends_with(&b)), "no b={tag}: {dump}");
    }
    flight::disable();
}
