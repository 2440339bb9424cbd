//! Isolated loops over single layers, through their public types: what
//! one operation of the layer costs with nothing else running. They
//! give the per-layer numbers that no span around a whole request can.

use gateway::queue::{Produce, Request};
use gateway::{ActionId, RingQueue, Router};
use simcore::{Engine, Outbox, SimDuration, SimTime};
use std::hint::black_box;
use std::time::Instant;

const OPS: u64 = 2_000_000;
const REPEATS: usize = 5;

/// Median over [`REPEATS`] timings of `OPS` operations, in ns per op.
fn ns_per_op(mut body: impl FnMut()) -> f64 {
    let mut runs: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let t = Instant::now();
            body();
            t.elapsed().as_nanos() as f64 / OPS as f64
        })
        .collect();
    crate::stats::median(&mut runs)
}

/// `RingQueue::produce` + `try_pop` of one request, single thread.
pub fn ring_produce_pop_ns() -> f64 {
    let q = RingQueue::new(4_096);
    let now = Instant::now();
    ns_per_op(|| {
        for id in 0..OPS {
            let req = Request {
                id,
                action: ActionId(0),
                key: id,
            };
            assert!(matches!(q.produce(black_box(req), now), Produce::Ok(_)));
            black_box(q.try_pop());
        }
    })
}

/// `Router::pick` over 8 targets on 8 shards.
pub fn route_pick_ns() -> f64 {
    let router: Router<u32> = Router::new(8);
    router.rebuild(&[0, 1, 2, 3, 4, 5, 6, 7]);
    ns_per_op(|| {
        let mut acc = 0u64;
        for key in 0..OPS {
            acc += router.pick(black_box(key)).expect("targets installed") as u64;
        }
        black_box(acc);
    })
}

/// `Histogram::record` of a latency-shaped value.
pub fn telemetry_record_ns() -> f64 {
    let h = telemetry::Histogram::new();
    ns_per_op(|| {
        for i in 0..OPS {
            h.record(black_box(20_000 + (i & 0xfff)));
        }
    })
}

/// Pending events the engine's queue holds during the ping chains, so
/// each pop and push works on a heap ten levels deep, not an empty one.
const PENDING: u64 = 1_024;

/// One event through `Engine`: [`PENDING`] interleaved ping chains,
/// where handling an event schedules its chain's next.
pub fn simcore_ns_per_event() -> f64 {
    ns_per_op(|| {
        let mut engine: Engine<u64> = Engine::new();
        for chain in 0..PENDING {
            engine.schedule(SimTime::from_millis(chain), chain);
        }
        let mut handled = 0u64;
        engine.run_to_completion(&mut |_now: SimTime, n: u64, out: &mut Outbox<u64>| {
            handled += 1;
            if n + PENDING < OPS {
                out.after(SimDuration::from_millis(PENDING), n + PENDING);
            }
        });
        assert_eq!(handled, OPS);
    })
}
