//! Microbenchmarks of the DES engine's event queue — the substrate
//! every experiment's wall-time rests on. (Dispatch through the engine
//! is timed by the benchmark's `simcore.ns_per_event`, on the
//! 1,024-pending shape a simulated day has.)

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use simcore::{EventQueue, SimTime};
use std::hint::black_box;

fn bench_event_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue");
    g.bench_function("push_pop_10k", |b| {
        b.iter_batched(
            EventQueue::<u64>::new,
            |mut q| {
                for i in 0..10_000u64 {
                    q.push(SimTime::from_millis((i * 7919) % 100_000), i);
                }
                let mut acc = 0u64;
                while let Some((_, e)) = q.pop() {
                    acc = acc.wrapping_add(e);
                }
                black_box(acc)
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_event_queue
}
criterion_main!(benches);
