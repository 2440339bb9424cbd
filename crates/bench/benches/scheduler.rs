//! Benchmarks of the Slurm-like scheduler at production scale: a
//! 2,239-node cluster processing a backfill pass with a 100-deep pilot
//! queue — the operation whose cadence bounds the whole day simulation.

use cluster::{ClusterEvent, SlurmConfig, Timeline};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use hpcwhisk_bench::{loaded_cluster, steady_passes, warmed_cluster};
use simcore::{Outbox, SimDuration, SimTime};
use std::hint::black_box;

fn bench_passes(c: &mut Criterion) {
    let mut g = c.benchmark_group("scheduler");
    g.sample_size(20);
    // Cold pass: the plane is built from scratch (first pass of a run).
    g.bench_function("backfill_pass_2239_nodes", |b| {
        b.iter_batched_ref(
            loaded_cluster,
            |sim| {
                let mut out = Outbox::new(SimTime::ZERO);
                let mut notes = Vec::new();
                sim.handle(
                    SimTime::ZERO,
                    ClusterEvent::BackfillPass,
                    &mut out,
                    &mut notes,
                );
                black_box(notes.len())
            },
            BatchSize::LargeInput,
        )
    });
    g.bench_function("quick_pass_2239_nodes", |b| {
        b.iter_batched_ref(
            loaded_cluster,
            |sim| {
                // The pass `loaded_cluster`'s submissions queued, at the
                // instant the rate limit put it; a `QuickPass` at any
                // other instant is a request, not a pass.
                let due = SimTime::ZERO + SlurmConfig::default().sched_min_interval;
                let mut out = Outbox::new(due);
                let mut notes = Vec::new();
                sim.handle(due, ClusterEvent::QuickPass, &mut out, &mut notes);
                black_box(notes.len())
            },
            BatchSize::LargeInput,
        )
    });
    // Steady state: 60 chained passes (one full 2-minute residue lap),
    // 8 pilot retire+resubmit events between passes — the persistent
    // plane re-anchors and patches instead of rebuilding, so the
    // per-pass cost tracks events, not nodes. Reported per 60-pass
    // chain; divide by 60 to compare with the probe's per-pass figure.
    // Every pass is a real one: a retired pilot turns its node idle,
    // which unsettles the queue.
    g.bench_function("persistent_pass_churn_2239_nodes", |b| {
        b.iter_batched_ref(
            warmed_cluster,
            |w| black_box(steady_passes(ClusterEvent::BackfillPass, 8, 60)(w)),
            BatchSize::LargeInput,
        )
    });
    g.bench_function("placement_churn_2239_nodes", |b| {
        // 4,096 run-length-indexed placements per iteration with
        // releases and window advances mixed in — the index's O(1)
        // amortized claim/release/advance contract under sustained
        // churn (the canonical stream shared with the perf_trajectory
        // probe and pinned by the placement_churn regression test).
        b.iter_batched_ref(
            || Timeline::new(SimTime::ZERO, SimDuration::from_mins(2), 60, 2_239),
            |tl| black_box(tl.run_deterministic_churn(4_096)),
            BatchSize::LargeInput,
        )
    });
    g.bench_function("poll_sample_2239_nodes", |b| {
        // One poll on a fresh cluster: 35 XORs against the previous
        // poll's words (none yet, so the 111 idle nodes open their
        // intervals), two counts copied and the next `Poll` scheduled.
        // `perf_trajectory` times the steady state (64 polls in a row).
        b.iter_batched_ref(
            loaded_cluster,
            |sim| {
                let mut out = Outbox::new(SimTime::ZERO);
                let mut notes = Vec::new();
                sim.handle(SimTime::ZERO, ClusterEvent::Poll, &mut out, &mut notes);
                black_box(notes.len())
            },
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

criterion_group!(benches, bench_passes);
criterion_main!(benches);
