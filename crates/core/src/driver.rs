//! The one DES driver: a cluster whose idleness comes from an
//! [`IdleSource`], a manager behind [`PilotManager`] asked every
//! [`REPLENISH_EVERY`], and a [`PilotSink`], under one event loop.
//! HPC-Whisk's §III pilot lifecycle is written here once: Slurm starts a
//! pilot, its invoker warms up, serves, is SIGTERMed, drains and exits.
//! [`run_day`](crate::run_day) is `Driver::new(..).finish()`;
//! [`DesLeaseSource`](crate::DesLeaseSource) steps a driver poll by poll
//! against a wall clock.
//!
//! A run is a function of `(source, config, sink)` alone. The RNG stream
//! `seed ^ 0xDA71` forks the maintenance draws (2), then the warm-up and
//! load draws (1), then Algorithm 1's commercial draws (3), which move
//! no other draw; a generated HPC job stream draws from `seed ^ 77`.

use crate::experiment::{DayConfig, DayReport};
use crate::live::LeaseBuffer;
use crate::manager::{PilotManager, REPLENISH_EVERY};
use crate::pilot::{PilotPhase, PilotTable, WarmupModel};
use crate::wrapper::{CommercialBackend, FallbackWrapper};
use cluster::{
    AvailabilityTrace, ClusterEvent, ClusterNote, ClusterSim, JobId, JobKind, JobState, PollSample,
};
use gateway::LoadFeedback;
use metrics::{MsCdf, Outcome, OutcomeBins, Tally};
use simcore::{Engine, Outbox, Process, SimDuration, SimRng, SimTime};
use whisk::{FunctionId, FunctionSpec, InvokerId, WhiskEvent, WhiskNote, WhiskSys};
use workload::{BacklogDriver, ConstantRateLoadGen, DemandClaim, HpcWorkloadModel};

/// How long a SIGTERMed pilot of a [`PilotSink::Leases`] run takes to
/// hand its backlog off and exit.
pub(crate) const LEASE_DRAIN: SimDuration = SimDuration::from_secs(2);

/// How often the generated HPC job stream is topped up.
const BACKLOG_EVERY: SimDuration = SimDuration::from_mins(1);

/// Where a day's idleness comes from.
#[derive(Debug, Clone, Copy)]
pub enum IdleSource<'a> {
    /// An availability trace: its busy time becomes prime-demand claims
    /// under [`DayConfig::demand`]. The day is the trace's window.
    Trace(&'a AvailabilityTrace),
    /// A generated HPC job stream (Fig. 2) that a [`BacklogDriver`] tops
    /// up every minute: idleness emerges from EASY backfill. The day is
    /// `[0, horizon)` on `n_nodes`.
    Backlog {
        n_nodes: usize,
        horizon: SimDuration,
    },
    /// An empty cluster: pilots place at once. The day is `[0, horizon)`
    /// on `n_nodes`.
    Empty {
        n_nodes: usize,
        horizon: SimDuration,
    },
}

/// What a pilot becomes once its invoker is warm.
#[derive(Debug, Clone, Copy)]
pub enum PilotSink {
    /// An invoker of the DES FaaS plane, serving [`DayConfig::load`]
    /// into the report's outcome bins. A SIGTERM drains it; a pilot
    /// still warming exits after [`DayConfig::warming_exit_lag`].
    Whisk,
    /// A lease for a live gateway: a grant when the invoker is warm (none
    /// past `max_leases` live ones; those are counted), a revoke at
    /// SIGTERM, and an exit 2 s later.
    Leases { max_leases: usize },
}

/// Composite event type of the driver.
enum SysEvent {
    Cluster(ClusterEvent),
    Whisk(WhiskEvent),
    ManagerTick,
    /// A prime-demand claim becomes visible to the scheduler.
    SubmitClaim(u32),
    /// The generated HPC job stream is topped up.
    BacklogTick,
    /// A pilot's invoker finished booting.
    WarmupDone(JobId),
    /// A SIGTERMed pilot that is not draining through the FaaS plane
    /// exits.
    PilotExit(JobId),
    /// The i-th client request fires.
    Load(u64),
}

impl From<WhiskEvent> for SysEvent {
    fn from(e: WhiskEvent) -> Self {
        SysEvent::Whisk(e)
    }
}

struct DayState {
    cluster: ClusterSim,
    whisk: WhiskSys,
    manager: Box<dyn PilotManager>,
    pilots: PilotTable,
    /// `Some` for a [`PilotSink::Leases`] run.
    leases: Option<LeaseBuffer>,
    rng: SimRng,
    claims: Vec<DemandClaim>,
    /// The generated HPC job stream and its own RNG stream.
    backlog: Option<(BacklogDriver, SimRng)>,
    fns: Vec<FunctionId>,
    load: Option<ConstantRateLoadGen>,
    warmup: WarmupModel,
    warming_exit_lag: SimDuration,
    start: SimTime,
    wrapper: Option<FallbackWrapper>,
    commercial: CommercialBackend,
    /// The commercial cloud's latency draws, apart from `rng`.
    commercial_rng: SimRng,
    /// [`DayReport::offered`] and [`DayReport::client`].
    offered: u64,
    client: Tally,
    client_latency_secs: MsCdf,
    samples: Vec<PollSample>,
    outcome_bins: OutcomeBins,
    latency_success_secs: MsCdf,
    /// Scratch outbox and note buffers for calls into the two
    /// subsystems (see [`DayState::with_cluster`]), kept across events
    /// so dispatching one allocates nothing once they have grown. The
    /// platform schedules straight into the engine's outbox.
    cluster_out: Outbox<ClusterEvent>,
    cluster_notes: Vec<ClusterNote>,
    whisk_notes: Vec<WhiskNote>,
}

/// Take a scratch outbox out of `DayState`, anchored at `now`.
fn take_outbox<E>(slot: &mut Outbox<E>, now: SimTime) -> Outbox<E> {
    let mut out = std::mem::replace(slot, Outbox::new(now));
    out.reset(now);
    out
}

impl DayState {
    /// Algorithm 1 sends the call made at `now` to the commercial
    /// cloud, which answers it.
    fn offload(&mut self, now: SimTime) {
        self.client.offloaded += 1;
        self.outcome_bins.record(Outcome::Offloaded, now);
        self.client_latency_secs
            .add(self.commercial.latency(&mut self.commercial_rng));
    }

    /// Call into the cluster with scratch buffers, forward the events
    /// it scheduled and react to its notes. A call nested under another
    /// (through `react_*`) finds the scratch taken and runs on fresh
    /// buffers.
    fn with_cluster<R>(
        &mut self,
        now: SimTime,
        out: &mut Outbox<SysEvent>,
        call: impl FnOnce(&mut ClusterSim, &mut Outbox<ClusterEvent>, &mut Vec<ClusterNote>) -> R,
    ) -> R {
        let mut co = take_outbox(&mut self.cluster_out, now);
        let mut cn = std::mem::take(&mut self.cluster_notes);
        let r = call(&mut self.cluster, &mut co, &mut cn);
        for (t, e) in co.drain() {
            out.at(t, SysEvent::Cluster(e));
        }
        self.react_cluster(now, &mut cn, out);
        self.cluster_out = co;
        self.cluster_notes = cn;
        r
    }

    /// [`with_cluster`](Self::with_cluster), for the FaaS platform,
    /// which schedules into `out` itself.
    fn with_whisk<R>(
        &mut self,
        now: SimTime,
        out: &mut Outbox<SysEvent>,
        call: impl FnOnce(&mut WhiskSys, &mut Outbox<SysEvent>, &mut Vec<WhiskNote>) -> R,
    ) -> R {
        let mut wn = std::mem::take(&mut self.whisk_notes);
        let r = call(&mut self.whisk, out, &mut wn);
        self.react_whisk(now, &mut wn, out);
        self.whisk_notes = wn;
        r
    }

    /// React to (and drain) the cluster's notes.
    fn react_cluster(
        &mut self,
        now: SimTime,
        notes: &mut Vec<ClusterNote>,
        out: &mut Outbox<SysEvent>,
    ) {
        for note in notes.drain(..) {
            match note {
                ClusterNote::JobStarted { job, .. } => {
                    if self.cluster.job(job).spec.kind == JobKind::Pilot {
                        self.pilots.on_started(now, job);
                        let w = self.warmup.sample(&mut self.rng);
                        out.at(now + w, SysEvent::WarmupDone(job));
                    }
                }
                ClusterNote::JobSigterm { job, reason, .. } => {
                    if self.cluster.job(job).spec.kind != JobKind::Pilot {
                        continue;
                    }
                    let phase = self.pilots.phase(job);
                    if matches!(phase, Some(PilotPhase::Warming | PilotPhase::Serving)) {
                        self.pilots.on_draining(now, job);
                    }
                    if let Some(leases) = &mut self.leases {
                        leases.sigterm(now, job, phase, reason);
                        out.at(now + LEASE_DRAIN, SysEvent::PilotExit(job));
                    } else if phase == Some(PilotPhase::Warming) {
                        // Never registered: the pilot process just tears
                        // down and exits.
                        out.at(now + self.warming_exit_lag, SysEvent::PilotExit(job));
                    } else if phase == Some(PilotPhase::Serving) {
                        self.with_whisk(now, out, |w, wo, wn| {
                            w.sigterm_invoker(now, InvokerId(job.0), wo, wn)
                        });
                    }
                }
                ClusterNote::JobEnded { job, .. } => {
                    if self.cluster.job(job).spec.kind == JobKind::Pilot {
                        self.pilots.on_gone(now, job);
                        match &mut self.leases {
                            // Ended without a SIGTERM we saw.
                            Some(leases) => leases.revoke(now, job),
                            // SIGKILL / node failure with the invoker
                            // still up: hard death (no-op if already
                            // de-registered).
                            None => self.with_whisk(now, out, |w, wo, wn| {
                                w.kill_invoker(now, InvokerId(job.0), wo, wn)
                            }),
                        }
                    }
                }
                ClusterNote::Polled(s) => self.samples.push(s),
            }
        }
    }

    /// React to (and drain) the platform's notes.
    fn react_whisk(
        &mut self,
        now: SimTime,
        notes: &mut Vec<WhiskNote>,
        out: &mut Outbox<SysEvent>,
    ) {
        for note in notes.drain(..) {
            match note {
                WhiskNote::InvokerUp(inv) => {
                    self.pilots.on_serving(now, JobId(inv.0));
                }
                WhiskNote::InvokerDraining(_) => {}
                WhiskNote::InvokerGone { inv, clean } => {
                    if clean {
                        // Drain finished: the pilot process exits and
                        // frees its node well before SIGKILL.
                        let job = JobId(inv.0);
                        self.with_cluster(now, out, |c, co, cn| c.pilot_exited(now, job, co, cn));
                    }
                }
                WhiskNote::ActivationDone {
                    outcome,
                    submitted,
                    answered,
                    ..
                } => {
                    self.outcome_bins.record(outcome, submitted);
                    self.client[outcome] += 1;
                    if outcome == Outcome::Completed {
                        let latency = answered.since(submitted);
                        self.latency_success_secs.add(latency);
                        self.client_latency_secs.add(latency);
                    }
                }
            }
        }
    }
}

impl Process<SysEvent> for DayState {
    fn handle(&mut self, now: SimTime, ev: SysEvent, out: &mut Outbox<SysEvent>) {
        match ev {
            SysEvent::Cluster(e) => {
                self.with_cluster(now, out, |c, co, cn| c.handle(now, e, co, cn));
            }
            SysEvent::Whisk(e) => {
                self.with_whisk(now, out, |w, wo, wn| w.handle(now, e, wo, wn));
            }
            SysEvent::ManagerTick => {
                let plan = self.manager.plan(&self.cluster, self.pilots.n_live());
                let submitted = plan.submit.len();
                let cancelled = self.with_cluster(now, out, |c, co, _| {
                    let cancelled = plan
                        .cancel
                        .iter()
                        .filter(|id| c.cancel_pending(now, **id))
                        .count();
                    for spec in plan.submit {
                        c.submit(now, spec, co);
                    }
                    cancelled
                });
                if let Some(leases) = &mut self.leases {
                    leases.planned(submitted, cancelled, self.manager.target());
                }
                out.after(REPLENISH_EVERY, SysEvent::ManagerTick);
            }
            SysEvent::SubmitClaim(i) => {
                let spec = self.claims[i as usize].to_spec();
                self.with_cluster(now, out, |c, co, _| c.submit(now, spec, co));
            }
            SysEvent::BacklogTick => {
                if let Some((driver, rng)) = &mut self.backlog {
                    let jobs = driver.replenish(self.cluster.pending_hpc_node_hours(), rng);
                    self.with_cluster(now, out, |c, co, _| {
                        for spec in jobs {
                            c.submit(now, spec, co);
                        }
                    });
                }
                out.after(BACKLOG_EVERY, SysEvent::BacklogTick);
            }
            SysEvent::WarmupDone(job) => {
                if self.pilots.phase(job) == Some(PilotPhase::Warming)
                    && self.cluster.job(job).is_active()
                {
                    match &mut self.leases {
                        Some(leases) => {
                            let JobState::Running { granted_end, .. } = self.cluster.job(job).state
                            else {
                                unreachable!("a warming pilot runs")
                            };
                            if leases.grant(now, job, granted_end) {
                                self.pilots.on_serving(now, job);
                            }
                        }
                        None => {
                            self.with_whisk(now, out, |w, wo, wn| {
                                w.start_invoker(now, job.0, wo, wn)
                            });
                        }
                    }
                }
            }
            SysEvent::PilotExit(job) => {
                self.with_cluster(now, out, |c, co, cn| c.pilot_exited(now, job, co, cn));
            }
            SysEvent::Load(i) => {
                let Some(load) = &self.load else {
                    return;
                };
                let next =
                    SimTime::from_millis(self.start.as_millis() + load.time_of(i + 1).as_millis());
                let f = self.fns[load.function_for(&mut self.rng)];
                self.offered += 1;
                if self.wrapper.as_ref().is_some_and(|w| w.cooling(now)) {
                    self.offload(now);
                } else if let Err(shed) = self.with_whisk(now, out, |w, wo, _| w.invoke(now, f, wo))
                {
                    self.outcome_bins.record(Outcome::Shed(shed), now);
                    if let Some(w) = self.wrapper.as_mut() {
                        // Algorithm 1: start the cool-off window and
                        // retry the call commercially.
                        w.on_503(now);
                        self.offload(now);
                    } else {
                        self.client[Outcome::Shed(shed)] += 1;
                    }
                } else {
                    self.client.accepted += 1;
                }
                out.at(next, SysEvent::Load(i + 1));
            }
        }
    }
}

/// One steppable day. See the module docs.
pub struct Driver {
    engine: Engine<SysEvent>,
    day: DayState,
    manager_name: &'static str,
    window: (SimTime, SimTime),
    n_nodes: usize,
}

impl Driver {
    /// Build the day: the cluster with its idleness, the manager and the
    /// sink, every periodic tick and every claim scheduled.
    pub fn new(idle: IdleSource<'_>, cfg: DayConfig, sink: PilotSink) -> Self {
        let (n_nodes, start, end) = match idle {
            IdleSource::Trace(trace) => (trace.n_nodes(), trace.start, trace.end),
            IdleSource::Backlog { n_nodes, horizon } | IdleSource::Empty { n_nodes, horizon } => {
                (n_nodes, SimTime::ZERO, SimTime::ZERO + horizon)
            }
        };
        let horizon = end.since(start);
        let horizon_mins = horizon.as_mins() as usize + 2;
        let mut cluster = ClusterSim::new(cfg.slurm.clone(), n_nodes, cfg.seed);
        let mut whisk = WhiskSys::new(cfg.whisk.clone(), cfg.seed);
        let manager = cfg.manager.make();
        let manager_name = manager.name();
        let mut rng = SimRng::seed_from_u64(cfg.seed ^ 0xDA71);

        let claims = match idle {
            IdleSource::Trace(trace) => cfg.demand.claims_for(trace, cfg.seed),
            IdleSource::Backlog { .. } | IdleSource::Empty { .. } => Vec::new(),
        };
        let mut engine = Engine::new();

        // Bootstrap periodic machinery.
        let mut co = Outbox::new(start);
        cluster.bootstrap(start, &mut co);
        for (t, e) in co.drain() {
            engine.schedule(t, SysEvent::Cluster(e));
        }
        let leases = match sink {
            PilotSink::Whisk => {
                let mut wo = Outbox::<SysEvent>::new(start);
                whisk.bootstrap(start, &mut wo);
                for (t, e) in wo.drain() {
                    engine.schedule(t, e);
                }
                None
            }
            PilotSink::Leases { max_leases } => Some(LeaseBuffer::new(max_leases)),
        };
        engine.schedule(start, SysEvent::ManagerTick);

        // The day starts on a full cluster: claims already running at the
        // start are force-started (their notes are for HPC claims —
        // nothing to do); the rest arrive by submit time.
        let mut cn = Vec::new();
        for (i, c) in claims.iter().enumerate() {
            if c.start == start {
                cluster.force_start(start, c.to_spec(), &mut co, &mut cn);
            } else {
                engine.schedule(c.submit_at.max(start), SysEvent::SubmitClaim(i as u32));
            }
        }
        for (t, e) in co.drain() {
            engine.schedule(t, SysEvent::Cluster(e));
        }
        let backlog = matches!(idle, IdleSource::Backlog { .. }).then(|| {
            engine.schedule(start, SysEvent::BacklogTick);
            BacklogDriver::new(HpcWorkloadModel::prometheus(), n_nodes)
        });

        // Functions + client load.
        let fns: Vec<FunctionId> = match &cfg.load {
            Some(load) => (0..load.n_functions)
                .map(|i| {
                    whisk.register_function(FunctionSpec::sleep(
                        &format!("fn-{i}"),
                        SimDuration::from_millis(10),
                    ))
                })
                .collect(),
            None => Vec::new(),
        };
        if cfg.load.is_some() {
            engine.schedule(start, SysEvent::Load(0));
        }

        // Random maintenance windows: node down, repair, node up.
        if let Some(m) = &cfg.maintenance {
            let mut mrng = rng.fork(2);
            let horizon_days = horizon.as_secs_f64() / 86_400.0;
            let n_events = (m.events_per_node_day * n_nodes as f64 * horizon_days).round() as usize;
            let repair = simcore::dist::LogNormal::new(m.repair_median_mins.ln(), 0.8);
            for _ in 0..n_events {
                let node = cluster::NodeId(mrng.index(n_nodes) as u32);
                let at = SimTime::from_millis(
                    start.as_millis() + mrng.range_u64(0, horizon.as_millis()),
                );
                let dur = SimDuration::from_mins_f64(
                    simcore::dist::Sample::sample(&repair, &mut mrng).clamp(2.0, 240.0),
                );
                engine.schedule(at, SysEvent::Cluster(ClusterEvent::NodeDown(node)));
                engine.schedule(at + dur, SysEvent::Cluster(ClusterEvent::NodeUp(node)));
            }
        }
        // The HPC job stream draws from its own stream, so what it
        // generates does not move with the maintenance or warm-up draws.
        let backlog = backlog.map(|driver| (driver, SimRng::seed_from_u64(cfg.seed ^ 77)));

        // The commercial stream forks last, so no other stream moves.
        let day_rng = rng.fork(1);
        let commercial_rng = rng.fork(3);
        let day = DayState {
            cluster,
            whisk,
            manager,
            pilots: PilotTable::new(start),
            leases,
            wrapper: cfg.wrapper_cooloff.map(FallbackWrapper::with_cooloff),
            commercial: CommercialBackend::default(),
            commercial_rng,
            offered: 0,
            client: Tally::default(),
            client_latency_secs: MsCdf::new(),
            rng: day_rng,
            claims,
            backlog,
            fns,
            load: cfg.load,
            warmup: cfg.warmup,
            warming_exit_lag: cfg.warming_exit_lag,
            start,
            samples: Vec::new(),
            outcome_bins: OutcomeBins::new(start, horizon_mins),
            latency_success_secs: MsCdf::new(),
            cluster_out: Outbox::new(start),
            cluster_notes: Vec::new(),
            whisk_notes: Vec::new(),
        };
        Driver {
            engine,
            day,
            manager_name,
            window: (start, end),
            n_nodes,
        }
    }

    /// The simulated window `[start, end)` the day runs over.
    pub(crate) fn window(&self) -> (SimTime, SimTime) {
        self.window
    }

    /// Dispatch every event before `t` (clamped to the window's end).
    pub fn step_until(&mut self, t: SimTime) {
        self.engine.run_until(t.min(self.window.1), &mut self.day);
    }

    /// When the next event is due, if any.
    pub(crate) fn next_event_time(&self) -> Option<SimTime> {
        self.engine.next_event_time()
    }

    /// Fold one window of observed FaaS load into the manager.
    pub(crate) fn observe(&mut self, fb: &LoadFeedback) {
        self.day.manager.observe(fb);
        if let Some(leases) = &mut self.day.leases {
            leases.observed(self.day.manager.target());
        }
    }

    /// The lease sink, for a [`PilotSink::Leases`] run.
    pub(crate) fn leases(&self) -> Option<&LeaseBuffer> {
        self.day.leases.as_ref()
    }

    /// [`leases`](Self::leases), mutably.
    pub(crate) fn leases_mut(&mut self) -> Option<&mut LeaseBuffer> {
        self.day.leases.as_mut()
    }

    /// Run to the end of the window and report the day.
    pub fn finish(mut self) -> DayReport {
        self.step_until(self.window.1);
        let day = self.day;
        let cluster_counters = day.cluster.counters().clone();
        let whisk_counters = day.whisk.counters().clone();
        let mut client = day.client;
        client.in_flight = day.whisk.in_flight();
        let whisk_series = day.whisk.into_series();
        let (cluster_series, availability) = day.cluster.into_parts();
        DayReport {
            manager_name: self.manager_name,
            window: self.window,
            n_nodes: self.n_nodes,
            samples: day.samples,
            availability,
            cluster_counters,
            whisk_counters,
            healthy_series: whisk_series.healthy,
            irresp_series: whisk_series.irresp,
            warming_series: day.pilots.warming_series,
            serve_lifetimes_mins: day.pilots.serve_lifetimes_mins,
            idle_series: cluster_series.idle,
            pilot_series: cluster_series.pilot,
            outcome_bins: day.outcome_bins,
            latency_success_secs: day.latency_success_secs,
            offered: day.offered,
            client,
            client_latency_secs: day.client_latency_secs,
            events_dispatched: self.engine.steps(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_offload_leaves_the_day_stream_alone() {
        let mut cfg = DayConfig::fib_paper(5);
        cfg.wrapper_cooloff = Some(SimDuration::from_secs(10));
        let idle = IdleSource::Empty {
            n_nodes: 4,
            horizon: SimDuration::from_mins(5),
        };
        let mut driver = Driver::new(idle, cfg, PilotSink::Whisk);
        let day = &mut driver.day;
        let (mut untouched, mut commercial) = (day.rng.clone(), day.commercial_rng.clone());
        day.offload(SimTime::ZERO);
        assert_eq!(day.client.offloaded, 1);
        assert_eq!(day.rng.next_u64(), untouched.next_u64());
        assert_ne!(day.commercial_rng.next_u64(), commercial.next_u64());
    }
}
