//! Concurrent-collector regression test for the completion plane: any
//! number of collectors may sweep the one shared completion buffer at
//! once, each behind its own lock-free empty check, and **every
//! accepted request is observed exactly once across all of them**.

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

/// Two collectors racing over a live plane, one sweeping flat out and
/// one parking on the completion gate between sweeps (`collect_wait`):
/// the union of everything observed is exactly the accepted id set —
/// nothing lost, nothing duplicated.
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
        let collector = |parks: bool| {
            move || {
                let mut col = gw.collector();
                let mut buf: Vec<Completion> = Vec::new();
                let mut ids: Vec<u64> = Vec::new();
                let mut spin = 0u32;
                loop {
                    buf.clear();
                    let got = if parks {
                        gw.collect_wait(&mut col, &mut buf, Duration::from_millis(1))
                    } else {
                        gw.collect_completions_with(&mut col, &mut buf)
                    };
                    ids.extend(buf.iter().map(|c| c.id));
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
