//! Benchmarks of the Slurm-like scheduler at production scale: a
//! 2,239-node cluster processing a backfill pass with a 100-deep pilot
//! queue — the operation whose cadence bounds the whole day simulation.

use cluster::{
    ClusterEvent, ClusterNote, ClusterSim, JobId, JobKind, JobSpec, SlurmConfig, Timeline,
};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use hpcwhisk_core::{lengths, FibManager, PilotManager};
use simcore::{Outbox, SimDuration, SimTime};
use std::hint::black_box;

/// A 2,239-node cluster, ~95% occupied by HPC jobs, with a full pilot
/// queue waiting.
fn loaded_cluster() -> ClusterSim {
    let mut sim = ClusterSim::new(SlurmConfig::default(), 2_239, 1);
    let mut out = Outbox::new(SimTime::ZERO);
    let mut notes = Vec::new();
    // Occupy most nodes with pinned demand.
    for n in 0..2_128u32 {
        sim.force_start(
            SimTime::ZERO,
            JobSpec::pinned_demand(
                vec![cluster::NodeId(n)],
                SimTime::ZERO,
                SimTime::ZERO,
                SimDuration::from_hours(8),
                SimDuration::from_hours(7),
            ),
            &mut out,
            &mut notes,
        );
    }
    // Fill the pilot queue the way the fib manager would.
    let mut mgr = FibManager::paper(lengths::A1.to_vec());
    for spec in mgr.replenish(&sim) {
        sim.submit(SimTime::ZERO, spec, &mut out);
    }
    sim
}

/// The loaded cluster with its persistent scheduling plane warmed by
/// one full backfill pass, plus the pilots that pass started.
fn warmed_cluster() -> (ClusterSim, Vec<JobId>, SimTime) {
    let mut sim = loaded_cluster();
    let mut out = Outbox::new(SimTime::ZERO);
    let mut notes = Vec::new();
    sim.handle(
        SimTime::ZERO,
        ClusterEvent::BackfillPass,
        &mut out,
        &mut notes,
    );
    let running = notes
        .iter()
        .filter_map(|n| match n {
            ClusterNote::JobStarted { job, .. } if sim.job(*job).spec.kind == JobKind::Pilot => {
                Some(*job)
            }
            _ => None,
        })
        .collect();
    (sim, running, SimTime::ZERO)
}

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
            |(sim, running, t)| {
                let mut started = 0usize;
                for _ in 0..60 {
                    *t += SimDuration::from_secs(2);
                    let mut out = Outbox::new(*t);
                    let mut notes = Vec::new();
                    for _ in 0..8 {
                        if let Some(id) = running.pop() {
                            sim.pilot_exited(*t, id, &mut out, &mut notes);
                        }
                    }
                    for _ in 0..8 {
                        sim.submit(
                            *t,
                            JobSpec::pilot_fixed(SimDuration::from_mins(30), 30),
                            &mut out,
                        );
                    }
                    notes.clear();
                    sim.handle(*t, ClusterEvent::BackfillPass, &mut out, &mut notes);
                    for n in &notes {
                        if let ClusterNote::JobStarted { job, .. } = n {
                            if sim.job(*job).spec.kind == JobKind::Pilot {
                                running.push(*job);
                            }
                        }
                    }
                    started += notes.len();
                }
                assert_eq!(sim.counters().passes_skipped(), 0);
                black_box(started)
            },
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
