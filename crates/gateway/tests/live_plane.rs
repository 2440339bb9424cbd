//! End-to-end tests of the live serving plane: the behaviours the old
//! `whisk::live` thread demo guaranteed (migrated here when that module
//! was retired onto this crate), plus the subsystems it did not have —
//! admission control, warm pools, per-action caps, real kernels.

use gateway::{
    books, ActionBody, ActionId, ActionSpec, BurstScratch, Completion, Gateway, GatewayConfig, Shed,
};
use sebs::{Graph, Kernel};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn noop_plane(n_actions: usize) -> Gateway {
    Gateway::new(
        GatewayConfig::default(),
        (0..n_actions)
            .map(|i| ActionSpec::noop(&format!("fn-{i}")))
            .collect(),
    )
}

/// Collect until at least `n` completions have arrived (each wait up
/// to 10 s).
fn collect(gw: &Gateway, n: usize) -> Vec<Completion> {
    let (mut col, mut out) = (gw.collector(), Vec::new());
    while out.len() < n {
        let got = gw.collect_wait(&mut col, &mut out, Duration::from_secs(10));
        assert!(got > 0, "completion within 10s ({}/{n})", out.len());
    }
    out
}

/// The one completion of a plane with exactly one request outstanding.
fn recv(gw: &Gateway) -> Completion {
    let mut got = collect(gw, 1);
    assert_eq!(got.len(), 1, "one request outstanding");
    got.pop().unwrap()
}

#[test]
fn basic_invocation_roundtrip() {
    let gw = noop_plane(1);
    let inv = gw.start_invoker();
    let id = gw.invoke(ActionId(0), 7).expect("accepted").id;
    let c = recv(&gw);
    assert_eq!(c.id, id);
    assert_eq!(c.invoker, inv.id);
    assert_eq!(c.action, ActionId(0));
    assert!(c.total >= c.queue_wait);
    books::close(&gw, 1).expect("books");
}

#[test]
#[should_panic(expected = "GatewayConfig::pool_slots must be at least 1")]
fn zero_pool_slots_is_refused_at_construction() {
    // Not in the first invoker thread, where it would strand requests.
    let cfg = GatewayConfig {
        pool_slots: 0,
        ..GatewayConfig::default()
    };
    Gateway::new(cfg, vec![ActionSpec::noop("f")]);
}

#[test]
fn rejects_with_no_invokers() {
    let gw = noop_plane(1);
    assert_eq!(gw.invoke(ActionId(0), 1), Err(Shed::NoInvoker));
    let t = gw.start_invoker();
    assert!(gw.invoke(ActionId(0), 1).is_ok());
    assert!(gw.sigterm(t));
    gw.join_invoker(t);
    assert_eq!(gw.n_healthy(), 0);
    assert_eq!(gw.invoke(ActionId(0), 1), Err(Shed::NoInvoker));
    // The accepted request either completed before the drain or sits in
    // the fast lane; a late-arriving invoker picks it up.
    gw.start_invoker();
    let _ = recv(&gw);
    books::close(&gw, 3).expect("books");
}

#[test]
fn drain_hands_off_backlog_no_request_lost() {
    let gw = Gateway::new(
        GatewayConfig::default(),
        vec![ActionSpec::noop("slow").with_body(ActionBody::Spin(Duration::from_micros(300)))],
    );
    let t1 = gw.start_invoker();
    let _t2 = gw.start_invoker();
    // Slow work so a backlog builds on both queues.
    let mut ids = HashSet::new();
    for i in 0..200u64 {
        ids.insert(gw.invoke(ActionId(0), i % 16).expect("accepted").id);
    }
    // SIGTERM invoker 1 mid-burst: its backlog must flow through the
    // fast lane to invoker 2.
    assert!(gw.sigterm(t1));
    gw.join_invoker(t1);
    let mut done = HashSet::new();
    for c in collect(&gw, 200) {
        assert!(done.insert(c.id), "duplicate execution of {}", c.id);
    }
    assert_eq!(done, ids);
    books::close(&gw, 200).expect("books");
}

#[test]
fn work_spreads_over_healthy_invokers() {
    let gw = noop_plane(4);
    for _ in 0..4 {
        gw.start_invoker();
    }
    assert_eq!(gw.n_healthy(), 4);
    for i in 0..400u64 {
        gw.invoke(ActionId((i % 4) as u32), i).unwrap();
    }
    let mut by_invoker: HashMap<u64, usize> = HashMap::new();
    for c in collect(&gw, 400) {
        *by_invoker.entry(c.invoker).or_insert(0) += 1;
    }
    assert_eq!(by_invoker.values().sum::<usize>(), 400);
    // Hash routing over 400 distinct keys: every invoker sees work.
    assert!(by_invoker.len() >= 3, "distribution: {by_invoker:?}");
    books::close(&gw, 400).expect("books");
}

/// Two choices on outstanding work: while one of two invokers is held
/// in a 50 ms body, every no-op submitted and collected one at a time —
/// through `invoke`, then through `invoke_burst` bursts of 1 — runs on
/// the idle invoker, whichever of the two its key hashes to. (Key-only
/// routing sends about half of them behind the hold.)
#[test]
fn requests_route_around_a_busy_invoker() {
    let gw = Gateway::new(
        GatewayConfig::default(),
        vec![
            ActionSpec::noop("noop"),
            ActionSpec::noop("hold").with_body(ActionBody::Sleep(Duration::from_millis(50))),
        ],
    );
    let invokers = [gw.start_invoker().id, gw.start_invoker().id];
    let (mut col, mut scratch, mut outcomes) =
        (gw.collector(), BurstScratch::default(), Vec::new());
    for burst in [false, true] {
        let hold = gw.invoke(ActionId(1), 0).expect("hold admitted").id;
        let mut got: Vec<Completion> = Vec::new();
        let mut noops = Vec::new();
        for key in 1..=20u64 {
            let id = if burst {
                outcomes.clear();
                let reqs = [(ActionId(0), key)];
                gw.invoke_burst(&reqs, Instant::now(), &mut outcomes, &mut scratch);
                outcomes[0].expect("no-op admitted").id
            } else {
                gw.invoke(ActionId(0), key).expect("no-op admitted").id
            };
            while !got.iter().any(|c| c.id == id) {
                let n = gw.collect_wait(&mut col, &mut got, Duration::from_secs(10));
                assert!(n > 0, "no-op {id} completes within 10 s");
            }
            noops.push(id);
        }
        while !got.iter().any(|c| c.id == hold) {
            assert!(gw.collect_wait(&mut col, &mut got, Duration::from_secs(10)) > 0);
        }
        let busy = got.iter().find(|c| c.id == hold).unwrap().invoker;
        let idle = invokers.into_iter().find(|&i| i != busy).unwrap();
        for c in got.iter().filter(|c| noops.contains(&c.id)) {
            assert_eq!(
                c.invoker, idle,
                "burst {burst}: no-op {} ran on the busy invoker",
                c.id
            );
        }
        assert_eq!(got.len(), 21, "burst {burst}: the hold and 20 no-ops");
    }
    books::close(&gw, 42).expect("books");
}

#[test]
fn sequential_drains_leave_last_invoker_serving() {
    let gw = noop_plane(1);
    let tokens: Vec<_> = (0..3).map(|_| gw.start_invoker()).collect();
    let mut ids = HashSet::new();
    for i in 0..90u64 {
        ids.insert(gw.invoke(ActionId(0), i).unwrap().id);
    }
    for t in &tokens[..2] {
        assert!(gw.sigterm(*t));
        gw.join_invoker(*t);
    }
    let mut done = HashSet::new();
    for c in collect(&gw, 90) {
        assert!(done.insert(c.id));
    }
    assert_eq!(done, ids);
    assert_eq!(gw.n_healthy(), 1);
    books::close(&gw, 90).expect("books");
}

#[test]
fn stale_token_is_rejected_by_generation_check() {
    let gw = noop_plane(1);
    let t1 = gw.start_invoker();
    assert!(gw.sigterm(t1));
    gw.join_invoker(t1);
    // The reaped slot is reused by the next invoker; the old token's
    // generation no longer matches.
    let t2 = gw.start_invoker();
    assert!(!gw.sigterm(t1), "stale token must not kill the new invoker");
    assert_eq!(gw.n_healthy(), 1);
    assert!(gw.sigterm(t2));
    gw.join_invoker(t2);
    assert_eq!(gw.n_healthy(), 0);
}

#[test]
fn admission_sheds_on_queue_overload_and_never_loses_accepted() {
    let gw = Gateway::new(
        GatewayConfig {
            queue_capacity: 8,
            ..Default::default()
        },
        vec![ActionSpec::noop("slow").with_body(ActionBody::Spin(Duration::from_micros(500)))],
    );
    gw.start_invoker();
    let mut accepted = 0u64;
    let mut shed = 0u64;
    for i in 0..500u64 {
        match gw.invoke(ActionId(0), i) {
            Ok(_) => accepted += 1,
            Err(Shed::QueueFull) => shed += 1,
            Err(e) => panic!("unexpected shed reason {e:?}"),
        }
    }
    assert!(shed > 0, "a bounded queue must shed under this burst");
    assert!(accepted >= 8, "the bound admits up to the capacity");
    assert_eq!(collect(&gw, accepted as usize).len() as u64, accepted);
    books::close(&gw, 500).expect("books");
    assert_eq!(gw.totals()[metrics::Outcome::Shed(Shed::QueueFull)], shed);
}

#[test]
fn per_action_inflight_cap_sheds() {
    let gw = Gateway::new(
        GatewayConfig::default(),
        vec![ActionSpec::noop("capped")
            .with_body(ActionBody::Spin(Duration::from_millis(5)))
            .with_max_inflight(2)],
    );
    gw.start_invoker();
    let a = gw.invoke(ActionId(0), 1);
    let b = gw.invoke(ActionId(0), 2);
    assert!(a.is_ok() && b.is_ok());
    // Third concurrent admission must shed on the action cap (the two
    // admitted ones are still queued or executing on the single slow
    // invoker).
    assert_eq!(gw.invoke(ActionId(0), 3), Err(Shed::ActionSaturated));
    assert_eq!(collect(&gw, 2).len(), 2);
    // Capacity released: admissible again.
    assert!(gw.invoke(ActionId(0), 4).is_ok());
    recv(&gw);
    books::close(&gw, 4).expect("books");
}

#[test]
fn cold_start_then_warm_reuse_per_invoker() {
    let gw = Gateway::new(
        GatewayConfig::default(),
        vec![ActionSpec::noop("f").with_cold_start(Duration::from_millis(20))],
    );
    gw.start_invoker();
    gw.invoke(ActionId(0), 1).unwrap();
    let first = recv(&gw);
    assert!(first.cold, "first placement cold-starts");
    assert!(
        first.service >= Duration::from_millis(20),
        "cold-start penalty is real time: {:?}",
        first.service
    );
    gw.invoke(ActionId(0), 1).unwrap();
    let second = recv(&gw);
    assert!(!second.cold, "second placement reuses the warm container");
    assert!(second.service < Duration::from_millis(10));
    books::close(&gw, 2).expect("books");
    let pools = gw.retired_pool_stats();
    assert_eq!(pools.cold_starts, 1);
    assert_eq!(pools.warm_hits, 1);
}

#[test]
fn keepalive_expiry_forces_recold() {
    let gw = Gateway::new(
        GatewayConfig::default(),
        vec![ActionSpec::noop("f")
            .with_cold_start(Duration::from_micros(100))
            .with_keepalive(Duration::from_millis(10))],
    );
    gw.start_invoker();
    gw.invoke(ActionId(0), 1).unwrap();
    assert!(recv(&gw).cold);
    // Idle well past the keep-alive: the invoker's idle sweep retires
    // the warm container.
    std::thread::sleep(Duration::from_millis(60));
    gw.invoke(ActionId(0), 1).unwrap();
    assert!(recv(&gw).cold, "keep-alive expiry evicts the container");
    books::close(&gw, 2).expect("books");
    assert_eq!(gw.retired_pool_stats().keepalive_evictions, 1);
}

#[test]
fn sebs_kernels_serve_as_function_bodies() {
    let g = Arc::new(Graph::barabasi_albert(300, 2, 7));
    let gw = Gateway::new(
        GatewayConfig::default(),
        vec![
            ActionSpec::noop("bfs").with_body(ActionBody::Kernel(Kernel::Bfs, g.clone())),
            ActionSpec::noop("mst").with_body(ActionBody::Kernel(Kernel::Mst, g.clone())),
            ActionSpec::noop("pagerank").with_body(ActionBody::Kernel(Kernel::Pagerank, g)),
        ],
    );
    gw.start_invoker();
    gw.start_invoker();
    for i in 0..30u64 {
        gw.invoke(ActionId((i % 3) as u32), i).unwrap();
    }
    let values: Vec<u64> = collect(&gw, 30).iter().map(|c| c.value).collect();
    // Real kernels return real results (BFS visits 300 vertices, MST
    // spans 299 edges, PageRank converges).
    assert!(values.iter().all(|v| *v > 0));
    books::close(&gw, 30).expect("books");
}

#[test]
fn route_epoch_bumps_on_membership_changes_only() {
    let gw = noop_plane(1);
    let e0 = gw.route_epoch();
    let t = gw.start_invoker();
    let e1 = gw.route_epoch();
    assert!(e1 > e0);
    for i in 0..50 {
        gw.invoke(ActionId(0), i).unwrap();
    }
    assert_eq!(gw.route_epoch(), e1, "invokes do not touch the table");
    gw.sigterm(t);
    assert!(gw.route_epoch() > e1);
    gw.join_invoker(t);
    // A replacement invoker serves whatever the drain moved to the fast
    // lane, so all 50 still complete.
    gw.start_invoker();
    assert_eq!(collect(&gw, 50).len(), 50);
    books::close(&gw, 50).expect("books");
}
