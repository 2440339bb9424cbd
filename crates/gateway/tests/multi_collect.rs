//! Concurrent-collector regression tests for the lock-free completion
//! plane: any number of collectors may sweep the shard table at once,
//! and **every accepted request is observed exactly once across all of
//! them** — including completions that took the one-at-a-time API's
//! spill-buffer detour.

use gateway::{ActionId, ActionSpec, Completion, Gateway, GatewayConfig};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

fn plane(invokers: usize, actions: usize) -> Gateway {
    let gw = Gateway::new(
        GatewayConfig::default(),
        (0..actions)
            .map(|i| ActionSpec::noop(&format!("fn-{i}")))
            .collect(),
    );
    for _ in 0..invokers {
        gw.start_invoker();
    }
    gw
}

/// Wait until every accepted request has been executed *and* flushed to
/// its shard. `completed` is bumped just before the publish in the same
/// flush call, so a short grace after the count settles suffices.
fn wait_flushed(gw: &Gateway, expect: u64) {
    let t = Instant::now();
    while gw.totals().completed < expect {
        assert!(t.elapsed() < Duration::from_secs(10), "plane stalled");
        std::thread::sleep(Duration::from_millis(1));
    }
    std::thread::sleep(Duration::from_millis(20));
}

/// Two dedicated collectors racing over a live plane, one of them also
/// churning the one-at-a-time `try_recv` path (which sweeps whole
/// batches and spills the excess): the union of everything observed is
/// exactly the accepted id set — nothing lost, nothing duplicated.
#[test]
fn concurrent_collectors_lose_and_duplicate_nothing() {
    let gw = plane(4, 8);
    const N: u64 = 20_000;
    let done = AtomicBool::new(false);
    let collected = AtomicUsize::new(0);

    let (submitted, a_ids, b_ids) = std::thread::scope(|s| {
        let gw = &gw;
        let done = &done;
        let collected = &collected;
        let collector = |use_try_recv: bool| {
            move || {
                let mut col = gw.collector();
                let mut buf: Vec<Completion> = Vec::new();
                let mut ids: Vec<u64> = Vec::new();
                let mut spin = 0u32;
                loop {
                    buf.clear();
                    let mut got = gw.collect_completions_with(&mut col, &mut buf);
                    ids.extend(buf.iter().map(|c| c.id));
                    if use_try_recv {
                        // Exercise the spill path from this thread too:
                        // try_recv sweeps a batch, pops one, spills the
                        // rest for everyone else to find.
                        if let Some(c) = gw.try_recv() {
                            ids.push(c.id);
                            got += 1;
                        }
                    }
                    collected.fetch_add(got, Ordering::Relaxed);
                    if got == 0 {
                        if done.load(Ordering::Acquire) {
                            break;
                        }
                        spin += 1;
                        if spin.is_multiple_of(8) {
                            std::thread::sleep(Duration::from_micros(200));
                        }
                    } else {
                        spin = 0;
                    }
                }
                ids
            }
        };
        let a = s.spawn(collector(false));
        let b = s.spawn(collector(true));

        let mut submitted: HashSet<u64> = HashSet::new();
        for i in 0..N {
            let admit = gw
                .invoke(ActionId((i % 8) as u32), i)
                .expect("noop actions never shed");
            assert!(submitted.insert(admit.id), "admit ids must be unique");
        }
        // All accepted: wait for the collectors to account for every one
        // of them, then release them.
        let t = Instant::now();
        while collected.load(Ordering::Relaxed) < submitted.len() {
            assert!(
                t.elapsed() < Duration::from_secs(30),
                "collectors starved: {}/{} after {:?}",
                collected.load(Ordering::Relaxed),
                submitted.len(),
                t.elapsed()
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        done.store(true, Ordering::Release);
        (
            submitted,
            a.join().expect("collector a"),
            b.join().expect("collector b"),
        )
    });

    let union: HashSet<u64> = a_ids.iter().chain(b_ids.iter()).copied().collect();
    assert_eq!(
        a_ids.len() + b_ids.len(),
        union.len(),
        "a completion was collected twice"
    );
    assert_eq!(union, submitted, "a completion was lost");
    assert_eq!(gw.shutdown(), 0);
}

/// The spill-visibility regression: `try_recv` sweeps a whole batch and
/// spills everything past the first completion. Those spilled
/// completions must be visible to *other* collectors — both the shared
/// anonymous cursor and a dedicated `Collector` — not parked in a
/// buffer only the spilling caller can reach.
#[test]
fn spilled_completions_are_visible_to_other_collectors() {
    let gw = plane(1, 1);
    const N: u64 = 64;
    let mut submitted: HashSet<u64> = HashSet::new();
    for i in 0..N {
        submitted.insert(gw.invoke(ActionId(0), i).expect("admitted").id);
    }
    wait_flushed(&gw, N);

    // One invoker ⇒ one shard: this sweep takes the whole batch, keeps
    // one completion and spills the rest.
    let first = gw.try_recv().expect("all completions are flushed");
    let mut seen: HashSet<u64> = HashSet::from([first.id]);

    // A *different* collector identity drains what was spilled.
    let mut col = gw.collector();
    let mut buf = Vec::new();
    let t = Instant::now();
    while seen.len() < submitted.len() {
        assert!(
            t.elapsed() < Duration::from_secs(5),
            "spilled completions invisible to other collectors: {}/{}",
            seen.len(),
            submitted.len()
        );
        buf.clear();
        gw.collect_completions_with(&mut col, &mut buf);
        for c in &buf {
            assert!(seen.insert(c.id), "completion {} duplicated", c.id);
        }
    }
    assert_eq!(seen, submitted);
    assert_eq!(gw.shutdown(), 0);
}

/// Two threads racing `collect_completions` (the shared-cursor API)
/// over a pre-spilled backlog: the spill drain itself is exactly-once
/// under concurrency.
#[test]
fn concurrent_collectors_split_a_spilled_backlog_exactly_once() {
    let gw = plane(1, 1);
    const N: u64 = 512;
    let mut submitted: HashSet<u64> = HashSet::new();
    for i in 0..N {
        submitted.insert(gw.invoke(ActionId(0), i).expect("admitted").id);
    }
    wait_flushed(&gw, N);
    let first = gw.try_recv().expect("flushed");

    let (a_ids, b_ids) = std::thread::scope(|s| {
        let gw = &gw;
        let drain = || {
            move || {
                let mut buf = Vec::new();
                let mut ids = Vec::new();
                let t = Instant::now();
                while t.elapsed() < Duration::from_millis(300) {
                    buf.clear();
                    if gw.collect_completions(&mut buf) > 0 {
                        ids.extend(buf.iter().map(|c| c.id));
                    }
                }
                ids
            }
        };
        let a = s.spawn(drain());
        let b = s.spawn(drain());
        (a.join().expect("drain a"), b.join().expect("drain b"))
    });

    let mut union: HashSet<u64> = HashSet::from([first.id]);
    for id in a_ids.iter().chain(b_ids.iter()) {
        assert!(union.insert(*id), "completion {id} drained twice");
    }
    assert_eq!(union, submitted, "spilled completions lost");
    assert_eq!(gw.shutdown(), 0);
}
