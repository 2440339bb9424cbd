//! The harness the scheduler's scenario and differential suites share:
//! a [`ClusterSim`] driven by the DES engine through `handle`, or through
//! `handle_reference` when `reference` is set, with every note, emitted
//! event and polled bitset recorded.

// Each suite uses its own part of the harness.
#![allow(dead_code)]

use hpcwhisk_cluster::{
    ClusterEvent, ClusterNote, ClusterSim, JobId, JobOutcome, JobSpec, SigtermReason, SlurmConfig,
};
use simcore::{Engine, Outbox, SimTime};

/// Drives a [`ClusterSim`] with the DES engine, collecting notes.
pub struct Harness {
    pub sim: ClusterSim,
    pub engine: Engine<ClusterEvent>,
    pub notes: Vec<(SimTime, ClusterNote)>,
    /// `QuickPass` events dispatched so far.
    pub quick_events: u64,
    /// `(scheduled at, due at, event)` for every event the sim emitted.
    pub scheduled: Vec<(SimTime, SimTime, ClusterEvent)>,
    /// `(instant, idle bits, pilot bits)` the sim held at every poll.
    pub poll_bits: Vec<(SimTime, Vec<u64>, Vec<u64>)>,
    /// Drive the sim with `handle_reference` instead of `handle`.
    pub reference: bool,
}

impl Harness {
    pub fn new(n_nodes: usize) -> Self {
        Self::with_config(SlurmConfig::default(), n_nodes)
    }

    pub fn with_config(cfg: SlurmConfig, n_nodes: usize) -> Self {
        let mut sim = ClusterSim::new(cfg, n_nodes, 42);
        let mut engine = Engine::new();
        let mut out = Outbox::new(SimTime::ZERO);
        sim.bootstrap(SimTime::ZERO, &mut out);
        for (t, e) in out.drain() {
            engine.schedule(t, e);
        }
        Harness {
            sim,
            engine,
            notes: Vec::new(),
            quick_events: 0,
            scheduled: Vec::new(),
            poll_bits: Vec::new(),
            reference: false,
        }
    }

    /// Call into the sim at `t` (the engine is already there) and feed
    /// what it schedules and notes back.
    pub fn call<R>(
        &mut self,
        t: SimTime,
        f: impl FnOnce(&mut ClusterSim, &mut Outbox<ClusterEvent>, &mut Vec<ClusterNote>) -> R,
    ) -> R {
        let mut out = Outbox::new(t);
        let mut notes = Vec::new();
        let r = f(&mut self.sim, &mut out, &mut notes);
        self.notes.extend(notes.into_iter().map(|n| (t, n)));
        for (at, e) in out.drain() {
            self.scheduled.push((t, at, e.clone()));
            self.engine.schedule(at, e);
        }
        r
    }

    pub fn submit_at(&mut self, t: SimTime, spec: JobSpec) -> JobId {
        // Run up to the submission instant first.
        self.run_until(t);
        self.call(t, |sim, out, _| sim.submit(t, spec, out))
    }

    pub fn pilot_exit_at(&mut self, t: SimTime, job: JobId) {
        self.run_until(t);
        self.call(t, |sim, out, notes| sim.pilot_exited(t, job, out, notes));
    }

    pub fn run_until(&mut self, horizon: SimTime) {
        let sim = &mut self.sim;
        let notes = &mut self.notes;
        let quick_events = &mut self.quick_events;
        let scheduled = &mut self.scheduled;
        let poll_bits = &mut self.poll_bits;
        let handle = if self.reference {
            ClusterSim::handle_reference
        } else {
            ClusterSim::handle
        };
        self.engine.run_until(
            horizon,
            &mut |now: SimTime, ev: ClusterEvent, out: &mut Outbox<ClusterEvent>| {
                *quick_events += u64::from(ev == ClusterEvent::QuickPass);
                let mut local = Vec::new();
                let mut emitted = Outbox::new(now);
                handle(sim, now, ev, &mut emitted, &mut local);
                if local.iter().any(|n| matches!(n, ClusterNote::Polled(_))) {
                    let (idle, pilot) = sim.poll_bits();
                    poll_bits.push((now, idle.to_vec(), pilot.to_vec()));
                }
                notes.extend(local.into_iter().map(|n| (now, n)));
                for (at, e) in emitted.drain() {
                    scheduled.push((now, at, e.clone()));
                    out.at(at, e);
                }
            },
        );
    }

    pub fn started(&self, job: JobId) -> Option<SimTime> {
        self.notes.iter().find_map(|(t, n)| match n {
            ClusterNote::JobStarted { job: j, .. } if *j == job => Some(*t),
            _ => None,
        })
    }

    pub fn ended_with(&self, job: JobId) -> Option<JobOutcome> {
        self.notes.iter().find_map(|(_, n)| match n {
            ClusterNote::JobEnded { job: j, outcome } if *j == job => Some(*outcome),
            _ => None,
        })
    }

    pub fn sigterm_of(&self, job: JobId) -> Option<(SigtermReason, SimTime)> {
        self.notes.iter().find_map(|(_, n)| match n {
            ClusterNote::JobSigterm {
                job: j,
                reason,
                kill_at,
            } if *j == job => Some((*reason, *kill_at)),
            _ => None,
        })
    }
}

/// Pending pilots per limit, zero entries dropped, sorted — the form in
/// which a kept census and a recount can be compared.
fn census(sim: &ClusterSim) -> Vec<(u64, usize)> {
    let mut c: Vec<(u64, usize)> = sim
        .pending_pilots_by_limit()
        .iter()
        .copied()
        .filter(|(_, n)| *n > 0)
        .collect();
    c.sort_unstable();
    c
}

/// Everything observable about a sim except the work it did to get
/// there (`*_passes_skipped`, `wheel_nodes_reprojected`).
pub fn assert_same_observables(a: &Harness, b: &Harness, step: impl std::fmt::Display) {
    assert_eq!(a.notes, b.notes, "step {step}: notes diverged");
    assert_eq!(a.scheduled, b.scheduled, "step {step}: scheduled events");
    let (sa, sb) = (&a.sim, &b.sim);
    assert_eq!(sa.n_jobs(), sb.n_jobs());
    for i in 0..sa.n_jobs() {
        let id = JobId(i as u64);
        assert_eq!(sa.job(id).state, sb.job(id).state, "step {step}: {id}");
        assert_eq!(sa.job(id).granted, sb.job(id).granted, "step {step}: {id}");
    }
    assert_eq!(sa.reservation_snapshot(), sb.reservation_snapshot());
    assert_eq!(
        sa.pending_ids_matching(|_| true),
        sb.pending_ids_matching(|_| true)
    );
    assert_eq!(census(sa), census(sb), "step {step}: pilot census");
    assert_eq!(
        (sa.n_idle(), sa.n_pilot_nodes()),
        (sb.n_idle(), sb.n_pilot_nodes())
    );
    let (ca, cb) = (sa.counters(), sb.counters());
    let counts = |c: &hpcwhisk_cluster::Counters| {
        [
            c.hpc_started,
            c.hpc_completed,
            c.pilots_started,
            c.pilots_preempted,
            c.pilots_timed_out,
            c.pilots_node_failed,
            c.quick_passes,
            c.backfill_passes,
            c.reservations_made,
            c.demand_delay_secs.count(),
            c.pilot_granted_mins.count(),
        ]
    };
    assert_eq!(counts(ca), counts(cb), "step {step}: counters");
    assert_eq!(ca.demand_delay_secs.max(), cb.demand_delay_secs.max());
    assert_eq!(
        (cb.quick_passes_skipped, cb.backfill_passes_skipped),
        (0, 0),
        "the reference never skips"
    );
}
