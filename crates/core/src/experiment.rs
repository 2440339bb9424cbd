//! The end-to-end day experiment (§V): a trace-driven prime-demand
//! stream, the pilot-job manager, the Slurm-like scheduler, the
//! OpenWhisk-like platform and the constant-rate client load, all
//! composed under one deterministic event loop.
//!
//! One call to [`run_day`] reproduces everything a Table II/III row
//! needs: the poll-sample log (Slurm-level perspective), the controller
//! worker-state series (OpenWhisk-level), per-minute outcome bins
//! (Figs. 5b/6b) and response-time distributions.

use crate::coverage::{self, OwLevel, SlurmLevel};
use crate::manager::{PilotManager, REPLENISH_EVERY};
use crate::offline::{self, OfflineConfig, OfflineReport};
use crate::pilot::{PilotPhase, PilotTable, WarmupModel};
use cluster::{
    AvailabilityTrace, ClusterEvent, ClusterNote, ClusterSim, Counters, JobId, JobKind, PollSample,
    SlurmConfig,
};
use metrics::{Cdf, MinuteBins, StepSeries};
use simcore::{Engine, Outbox, Process, SimDuration, SimRng, SimTime};
use whisk::{
    FunctionId, FunctionSpec, InvokerId, Outcome, WhiskConfig, WhiskCounters, WhiskEvent,
    WhiskNote, WhiskSys,
};
use workload::{ConstantRateLoadGen, DemandClaim, DemandModel};

/// Composite event type of the experiment.
#[derive(Debug, Clone, PartialEq)]
pub enum SysEvent {
    /// Cluster-internal event.
    Cluster(ClusterEvent),
    /// FaaS-platform-internal event.
    Whisk(WhiskEvent),
    /// Pilot-manager replenishment tick (every 15 s).
    ManagerTick,
    /// A prime-demand claim becomes visible to the scheduler.
    SubmitClaim(u32),
    /// A pilot's invoker finished booting.
    WarmupDone(JobId),
    /// A pilot that received SIGTERM before registering exits.
    PilotExit(JobId),
    /// The i-th client request fires.
    Load(u64),
}

pub use crate::manager::ManagerKind;

/// Experiment configuration.
#[derive(Debug, Clone)]
pub struct DayConfig {
    /// Scheduler parameters.
    pub slurm: SlurmConfig,
    /// FaaS platform parameters.
    pub whisk: WhiskConfig,
    /// Pilot-supply strategy.
    pub manager: ManagerKind,
    /// Client load (None = coverage-only experiment).
    pub load: Option<ConstantRateLoadGen>,
    /// Demand announcement-noise model.
    pub demand: DemandModel,
    /// Invoker warm-up model.
    pub warmup: WarmupModel,
    /// How long after SIGTERM a still-warming pilot takes to exit.
    pub warming_exit_lag: SimDuration,
    /// Run the client load through Algorithm 1 (§III-E): after a 503,
    /// off-load to the commercial cloud for this cool-off period.
    pub wrapper_cooloff: Option<SimDuration>,
    /// Random node maintenance/failures (§IV-A notes that idle is not
    /// the complement of busy for exactly this reason).
    pub maintenance: Option<MaintenanceModel>,
    /// Master seed.
    pub seed: u64,
}

/// Node maintenance model: each event takes a random node down for a
/// log-normal-distributed repair time. Pilots on the node die without
/// SIGTERM — the ungraceful path the health-timeout recovery handles.
#[derive(Debug, Clone)]
pub struct MaintenanceModel {
    /// Expected node-down events per node per day.
    pub events_per_node_day: f64,
    /// Median repair time (minutes).
    pub repair_median_mins: f64,
}

impl Default for MaintenanceModel {
    fn default() -> Self {
        MaintenanceModel {
            events_per_node_day: 0.005,
            repair_median_mins: 25.0,
        }
    }
}

impl DayConfig {
    /// The fib experiment (§V-B1): set A1, quick-pass placement,
    /// 10 QPS load over 100 sleep functions.
    pub fn fib_paper(seed: u64) -> Self {
        DayConfig {
            // Production Slurm on a 2,000+ node cluster responds to
            // events in ~10 s, not instantly (the paper measured up to
            // 20 s query latency, §IV-A) — the quick-pass rate limit
            // models that.
            slurm: SlurmConfig {
                sched_min_interval: simcore::SimDuration::from_secs(10),
                ..SlurmConfig::default()
            },
            whisk: WhiskConfig::default(),
            manager: ManagerKind::Fib(crate::lengths::A1.to_vec()),
            load: Some(ConstantRateLoadGen::paper()),
            demand: DemandModel::default(),
            warmup: WarmupModel::default(),
            warming_exit_lag: SimDuration::from_millis(800),
            wrapper_cooloff: None,
            maintenance: None,
            seed,
        }
    }

    /// The var experiment (§V-B2). Variable-length extension is a
    /// backfill-pass computation in Slurm, so quick passes do not place
    /// pilots, and the per-pass extension budget is tight — the paper's
    /// observed gap between simulated (84%) and achieved (68%) coverage
    /// comes from exactly this machinery.
    pub fn var_paper(seed: u64) -> Self {
        DayConfig {
            slurm: SlurmConfig {
                quick_pass_places_pilots: false,
                // Most var jobs get only their minimum 2-minute grant:
                // the extension procedure is expensive and runs against
                // a stale snapshot (§V-B2), so only a handful of slots
                // per pass extend successfully...
                var_extension_budget_slots: 30,
                // ...and processing 100 variable-length jobs makes the
                // pass itself slow, stretching the effective cadence to
                // ~50 s.
                bf_per_job_cost: simcore::SimDuration::from_millis(1_500),
                sched_min_interval: simcore::SimDuration::from_secs(10),
                ..SlurmConfig::default()
            },
            manager: ManagerKind::Var,
            ..Self::fib_paper(seed)
        }
    }
}

/// Everything a day produced.
#[derive(Debug)]
pub struct DayReport {
    /// Strategy name ("fib"/"var").
    pub manager_name: &'static str,
    /// Observation window.
    pub window: (SimTime, SimTime),
    /// Cluster size.
    pub n_nodes: usize,
    /// Poll-sample log (the Slurm-level raw data): idle and pilot node
    /// counts per sample.
    pub samples: Vec<PollSample>,
    /// Availability (idle ∪ pilot) per node as the poller saw it, built
    /// by the cluster while it sampled.
    pub availability: AvailabilityTrace,
    /// Cluster counters.
    pub cluster_counters: Counters,
    /// Platform counters.
    pub whisk_counters: WhiskCounters,
    /// Healthy-invoker series.
    pub healthy_series: StepSeries,
    /// Irresponsive-invoker series.
    pub irresp_series: StepSeries,
    /// Warming-pilot series.
    pub warming_series: StepSeries,
    /// Ready lifetime per invoker (minutes).
    pub serve_lifetimes_mins: Cdf,
    /// Ground-truth idle-node series.
    pub idle_series: StepSeries,
    /// Ground-truth pilot-node series.
    pub pilot_series: StepSeries,
    /// Per-minute successful requests (Fig. 5b/6b).
    pub success_bins: MinuteBins,
    /// Per-minute failed requests.
    pub failed_bins: MinuteBins,
    /// Per-minute timed-out ("lost") requests.
    pub timeout_bins: MinuteBins,
    /// Per-minute 503 rejections.
    pub rejected_bins: MinuteBins,
    /// Client-observed response times of successful requests (seconds).
    pub latency_success_secs: Cdf,
    /// Algorithm 1 accounting, when the wrapper is enabled:
    /// `(sent_to_cluster, sent_commercial, observed_503s)`.
    pub wrapper_stats: Option<(u64, u64, u64)>,
    /// Per-minute requests off-loaded to the commercial cloud.
    pub commercial_bins: MinuteBins,
    /// Commercial-path response times (seconds).
    pub commercial_latency_secs: Cdf,
    /// Events the engine dispatched over the day — the DES's unit of
    /// work, to read next to the day's wall-clock.
    pub events_dispatched: u64,
}

impl DayReport {
    /// The Slurm-level perspective (Tables II/III).
    pub fn slurm_level(&self) -> SlurmLevel {
        coverage::slurm_level(&self.samples)
    }

    /// The clairvoyant Simulation perspective over the measured trace.
    pub fn simulation(&self, lengths_mins: Vec<u64>) -> OfflineReport {
        offline::simulate(&self.availability, &OfflineConfig::table1(lengths_mins))
    }

    /// The OpenWhisk-level perspective.
    pub fn ow_level(&mut self) -> OwLevel {
        coverage::ow_level(
            &self.healthy_series,
            &self.irresp_series,
            &self.warming_series,
            &mut self.serve_lifetimes_mins,
            self.window.0,
            self.window.1,
        )
    }

    /// Share of client requests the controller accepted (1 − the 503
    /// rate the paper reports, §V-C).
    pub fn acceptance_rate(&self) -> f64 {
        let c = &self.whisk_counters;
        if c.submitted == 0 {
            return 1.0;
        }
        1.0 - c.rejected_503 as f64 / c.submitted as f64
    }

    /// Of the accepted requests: (success, failed, timeout) shares.
    pub fn accepted_outcome_shares(&self) -> (f64, f64, f64) {
        let c = &self.whisk_counters;
        let accepted = (c.submitted - c.rejected_503).max(1) as f64;
        (
            c.success as f64 / accepted,
            c.failed as f64 / accepted,
            c.timeout as f64 / accepted,
        )
    }
}

struct DayState {
    cluster: ClusterSim,
    whisk: WhiskSys,
    manager: Box<dyn PilotManager>,
    pilots: PilotTable,
    rng: SimRng,
    claims: Vec<DemandClaim>,
    fns: Vec<FunctionId>,
    load: Option<ConstantRateLoadGen>,
    warmup: WarmupModel,
    warming_exit_lag: SimDuration,
    start: SimTime,
    wrapper: Option<crate::wrapper::FallbackWrapper>,
    commercial: crate::wrapper::CommercialBackend,
    commercial_bins: MinuteBins,
    commercial_latency_secs: Cdf,
    samples: Vec<PollSample>,
    success_bins: MinuteBins,
    failed_bins: MinuteBins,
    timeout_bins: MinuteBins,
    rejected_bins: MinuteBins,
    latency_success_secs: Cdf,
    /// Scratch outboxes and note buffers for calls into the two
    /// subsystems (see [`DayState::with_cluster`]), kept across events
    /// so dispatching one allocates nothing once they have grown.
    cluster_out: Outbox<ClusterEvent>,
    cluster_notes: Vec<ClusterNote>,
    whisk_out: Outbox<WhiskEvent>,
    whisk_notes: Vec<WhiskNote>,
}

/// Take a scratch outbox out of `DayState`, anchored at `now`.
fn take_outbox<E>(slot: &mut Outbox<E>, now: SimTime) -> Outbox<E> {
    let mut out = std::mem::replace(slot, Outbox::new(now));
    out.reset(now);
    out
}

impl DayState {
    fn record_commercial(&mut self, now: SimTime) {
        self.commercial_bins.record(now);
        self.commercial_latency_secs
            .add(self.commercial.latency(&mut self.rng).as_secs_f64());
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

    /// [`with_cluster`](Self::with_cluster), for the FaaS platform.
    fn with_whisk<R>(
        &mut self,
        now: SimTime,
        out: &mut Outbox<SysEvent>,
        call: impl FnOnce(&mut WhiskSys, &mut Outbox<WhiskEvent>, &mut Vec<WhiskNote>) -> R,
    ) -> R {
        let mut wo = take_outbox(&mut self.whisk_out, now);
        let mut wn = std::mem::take(&mut self.whisk_notes);
        let r = call(&mut self.whisk, &mut wo, &mut wn);
        for (t, e) in wo.drain() {
            out.at(t, SysEvent::Whisk(e));
        }
        self.react_whisk(now, &mut wn, out);
        self.whisk_out = wo;
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
                ClusterNote::JobSigterm { job, .. } => {
                    if self.cluster.job(job).spec.kind != JobKind::Pilot {
                        continue;
                    }
                    match self.pilots.phase(job) {
                        Some(PilotPhase::Warming) => {
                            // Never registered: the pilot process just
                            // tears down and exits.
                            self.pilots.on_draining(now, job);
                            out.at(now + self.warming_exit_lag, SysEvent::PilotExit(job));
                        }
                        Some(PilotPhase::Serving) => {
                            self.pilots.on_draining(now, job);
                            self.with_whisk(now, out, |w, wo, wn| {
                                w.sigterm_invoker(now, InvokerId(job.0), wo, wn)
                            });
                        }
                        _ => {}
                    }
                }
                ClusterNote::JobEnded { job, .. } => {
                    if self.cluster.job(job).spec.kind == JobKind::Pilot {
                        self.pilots.on_gone(now, job);
                        // SIGKILL / node failure with the invoker still
                        // up: hard death (no-op if already de-registered).
                        self.with_whisk(now, out, |w, wo, wn| {
                            w.kill_invoker(now, InvokerId(job.0), wo, wn)
                        });
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
                } => match outcome {
                    Outcome::Success => {
                        self.success_bins.record(submitted);
                        self.latency_success_secs
                            .add(answered.since(submitted).as_secs_f64());
                    }
                    Outcome::Failed => self.failed_bins.record(submitted),
                    Outcome::Timeout => self.timeout_bins.record(submitted),
                },
                WhiskNote::Rejected503 { at, .. } => self.rejected_bins.record(at),
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
                let jobs = self.manager.replenish(&self.cluster);
                self.with_cluster(now, out, |c, co, _| {
                    for spec in jobs {
                        c.submit(now, spec, co);
                    }
                });
                out.after(REPLENISH_EVERY, SysEvent::ManagerTick);
            }
            SysEvent::SubmitClaim(i) => {
                let spec = self.claims[i as usize].to_spec();
                self.with_cluster(now, out, |c, co, _| c.submit(now, spec, co));
            }
            SysEvent::WarmupDone(job) => {
                if self.pilots.phase(job) == Some(PilotPhase::Warming)
                    && self.cluster.job(job).is_active()
                {
                    self.with_whisk(now, out, |w, wo, wn| w.start_invoker(now, job.0, wo, wn));
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
                let f = self.fns[self.rng.index(self.fns.len())];
                let to_cluster = match self.wrapper.as_mut() {
                    Some(w) => w.route(now) == crate::wrapper::Target::HpcWhisk,
                    None => true,
                };
                if to_cluster {
                    let res = self.with_whisk(now, out, |w, wo, wn| w.invoke(now, f, wo, wn));
                    if res == whisk::InvokeResult::Rejected503 {
                        if let Some(w) = self.wrapper.as_mut() {
                            // Algorithm 1: retry commercially and
                            // start the cool-off window.
                            let _ = w.on_503(now);
                            self.record_commercial(now);
                        }
                    }
                } else {
                    self.record_commercial(now);
                }
                out.at(next, SysEvent::Load(i + 1));
            }
        }
    }
}

/// Run one full experiment day over `trace`.
pub fn run_day(trace: &AvailabilityTrace, cfg: DayConfig) -> DayReport {
    let n_nodes = trace.n_nodes();
    let horizon_mins = trace.horizon().as_mins() as usize + 2;
    let mut cluster = ClusterSim::new(cfg.slurm.clone(), n_nodes, cfg.seed);
    let mut whisk = WhiskSys::new(cfg.whisk.clone(), cfg.seed);
    let manager: Box<dyn PilotManager> = cfg.manager.make();
    let manager_name = manager.name();
    let mut rng = SimRng::seed_from_u64(cfg.seed ^ 0xDA71);

    let claims = cfg.demand.claims_for(trace, cfg.seed);
    let mut engine: Engine<SysEvent> = Engine::new();

    // Bootstrap periodic machinery.
    {
        let mut co = Outbox::new(trace.start);
        cluster.bootstrap(trace.start, &mut co);
        for (t, e) in co.drain() {
            engine.schedule(t, SysEvent::Cluster(e));
        }
        let mut wo = Outbox::new(trace.start);
        whisk.bootstrap(trace.start, &mut wo);
        for (t, e) in wo.drain() {
            engine.schedule(t, SysEvent::Whisk(e));
        }
    }
    engine.schedule(trace.start, SysEvent::ManagerTick);

    // The day starts on a full cluster: claims already running at the
    // trace start are force-started; the rest arrive by submit time.
    {
        let mut co = Outbox::new(trace.start);
        let mut cn = Vec::new();
        for (i, c) in claims.iter().enumerate() {
            if c.start == trace.start {
                cluster.force_start(trace.start, c.to_spec(), &mut co, &mut cn);
            } else {
                engine.schedule(
                    c.submit_at.max(trace.start),
                    SysEvent::SubmitClaim(i as u32),
                );
            }
        }
        for (t, e) in co.drain() {
            engine.schedule(t, SysEvent::Cluster(e));
        }
        // Initial JobStarted notes are for HPC claims — nothing to do.
        cn.clear();
    }

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
        engine.schedule(trace.start, SysEvent::Load(0));
    }

    // Random maintenance windows: node down, repair, node up.
    if let Some(m) = &cfg.maintenance {
        let mut mrng = rng.fork(2);
        let horizon_days = trace.horizon().as_secs_f64() / 86_400.0;
        let n_events = (m.events_per_node_day * n_nodes as f64 * horizon_days).round() as usize;
        let repair = simcore::dist::LogNormal::new(m.repair_median_mins.ln(), 0.8);
        for _ in 0..n_events {
            let node = cluster::NodeId(mrng.index(n_nodes) as u32);
            let at = SimTime::from_millis(
                trace.start.as_millis() + mrng.range_u64(0, trace.horizon().as_millis()),
            );
            let dur = SimDuration::from_mins_f64(
                simcore::dist::Sample::sample(&repair, &mut mrng).clamp(2.0, 240.0),
            );
            engine.schedule(at, SysEvent::Cluster(ClusterEvent::NodeDown(node)));
            engine.schedule(at + dur, SysEvent::Cluster(ClusterEvent::NodeUp(node)));
        }
    }

    let mut state = DayState {
        cluster,
        whisk,
        manager,
        pilots: PilotTable::new(trace.start),
        wrapper: cfg
            .wrapper_cooloff
            .map(crate::wrapper::FallbackWrapper::with_cooloff),
        commercial: crate::wrapper::CommercialBackend::default(),
        commercial_bins: MinuteBins::new(trace.start, horizon_mins),
        commercial_latency_secs: Cdf::new(),
        rng: rng.fork(1),
        claims,
        fns,
        load: cfg.load.clone(),
        warmup: cfg.warmup.clone(),
        warming_exit_lag: cfg.warming_exit_lag,
        start: trace.start,
        samples: Vec::new(),
        success_bins: MinuteBins::new(trace.start, horizon_mins),
        failed_bins: MinuteBins::new(trace.start, horizon_mins),
        timeout_bins: MinuteBins::new(trace.start, horizon_mins),
        rejected_bins: MinuteBins::new(trace.start, horizon_mins),
        latency_success_secs: Cdf::new(),
        cluster_out: Outbox::new(trace.start),
        cluster_notes: Vec::new(),
        whisk_out: Outbox::new(trace.start),
        whisk_notes: Vec::new(),
    };

    engine.run_until(trace.end, &mut state);

    let cluster_counters = state.cluster.counters().clone();
    let whisk_counters = state.whisk.counters().clone();
    let whisk_series = state.whisk.into_series();
    let (cluster_series, availability) = state.cluster.into_parts();
    DayReport {
        manager_name,
        window: (trace.start, trace.end),
        n_nodes,
        samples: state.samples,
        availability,
        cluster_counters,
        whisk_counters,
        healthy_series: whisk_series.healthy,
        irresp_series: whisk_series.irresp,
        warming_series: state.pilots.warming_series,
        serve_lifetimes_mins: state.pilots.serve_lifetimes_mins,
        idle_series: cluster_series.idle,
        pilot_series: cluster_series.pilot,
        success_bins: state.success_bins,
        failed_bins: state.failed_bins,
        timeout_bins: state.timeout_bins,
        rejected_bins: state.rejected_bins,
        latency_success_secs: state.latency_success_secs,
        wrapper_stats: state
            .wrapper
            .map(|w| (w.sent_local, w.sent_commercial, w.seen_503)),
        commercial_bins: state.commercial_bins,
        commercial_latency_secs: state.commercial_latency_secs,
        events_dispatched: engine.steps(),
    }
}

/// Run many independent day experiments across threads. Each `(trace,
/// config)` pair is a self-contained deterministic simulation (its own
/// [`SimRng`] streams derived from `config.seed`), so results are
/// bit-identical to running [`run_day`] sequentially — the rayon fanout
/// only changes wall-clock. Reports return in input order.
pub fn run_days(days: Vec<(AvailabilityTrace, DayConfig)>) -> Vec<DayReport> {
    use rayon::prelude::*;
    days.into_par_iter()
        .map(|(trace, cfg)| run_day(&trace, cfg))
        .collect()
}

/// One cluster shape in a week-scale sweep.
#[derive(Debug, Clone)]
pub struct SweepCluster {
    /// Label for reports (e.g. "prometheus-2239").
    pub label: String,
    /// The idle-process model generating this cluster's traces.
    pub model: workload::IdleModel,
}

/// Configuration of a multi-week, multi-cluster, multi-seed sweep — the
/// §VII extension: "evaluate and characterize the quantity of unused
/// resources in longer periods of time".
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Weeks simulated per cluster (each day is its own deterministic
    /// run, mirroring how the paper's experiment days were separate).
    pub weeks: u64,
    /// Replication seeds per day (error bars).
    pub seeds: Vec<u64>,
    /// Pilot-supply strategy.
    pub manager: ManagerKind,
}

/// One simulated day of a sweep, flattened for aggregation.
#[derive(Debug, Clone)]
pub struct SweepDay {
    /// Index into the sweep's cluster list.
    pub cluster: usize,
    /// Week index (0-based).
    pub week: u64,
    /// Day-of-week index (0-based).
    pub day: u64,
    /// Replication seed.
    pub seed: u64,
    /// Time-average available nodes (Slurm-level).
    pub avg_available: f64,
    /// Achieved coverage share of available time.
    pub coverage: f64,
    /// Clairvoyant (offline greedy) coverage bound.
    pub clairvoyant: f64,
    /// Pilots started.
    pub pilots: u64,
    /// Pilots preempted by prime demand.
    pub preempted: u64,
    /// Worst prime-demand delay (seconds) — the invasiveness bound.
    pub max_demand_delay_secs: f64,
}

/// Run a full week-scale sweep through the rayon day driver: every
/// `(cluster, week, day, seed)` combination is one independent,
/// per-seed-deterministic [`run_day`], so wall-clock scales with cores
/// while results stay bit-identical to sequential runs. Each unique
/// `(cluster, week, day)` trace is generated once and shared by
/// reference across its replication seeds (which run inside one rayon
/// task — the fan-out across unique traces saturates cores long before
/// per-seed parallelism would matter). Results return flattened in
/// `(cluster, week, day, seed)` order.
pub fn run_week_sweep(clusters: &[SweepCluster], cfg: &SweepConfig) -> Vec<SweepDay> {
    use rayon::prelude::*;
    let mut days = Vec::new();
    for (ci, cl) in clusters.iter().enumerate() {
        for week in 0..cfg.weeks {
            for day in 0..7 {
                // One trace per (cluster, week, day): replication seeds
                // share the trace and vary the scheduler/poller streams.
                let trace_seed = 0x5EED_0000 + week * 7 + day;
                let trace = cl.model.generate(SimDuration::from_hours(24), trace_seed);
                days.push((ci, week, day, trace_seed, trace));
            }
        }
    }
    let lengths = cfg.manager.clairvoyant_lengths();
    let per_day: Vec<Vec<SweepDay>> = days
        .par_iter()
        .map(|(cluster, week, day, trace_seed, trace)| {
            cfg.seeds
                .iter()
                .map(|&seed| {
                    let mut day_cfg = DayConfig::fib_paper(seed ^ (trace_seed << 8));
                    day_cfg.manager = cfg.manager.clone();
                    day_cfg.load = None;
                    let rep = run_day(trace, day_cfg);
                    let slurm = rep.slurm_level();
                    let sim = rep.simulation(lengths.clone());
                    SweepDay {
                        cluster: *cluster,
                        week: *week,
                        day: *day,
                        seed,
                        avg_available: slurm.avg_available,
                        coverage: slurm.used_share,
                        clairvoyant: sim.coverage(),
                        pilots: rep.cluster_counters.pilots_started,
                        preempted: rep.cluster_counters.pilots_preempted,
                        max_demand_delay_secs: rep
                            .cluster_counters
                            .demand_delay_secs
                            .max()
                            .unwrap_or(0.0),
                    }
                })
                .collect()
        })
        .collect();
    per_day.into_iter().flatten().collect()
}

/// Run the same day configuration over many seeds in parallel —
/// replication studies (error bars for Tables II/III) scale with cores.
/// Each replication gets `cfg.seed = seed`; per-seed determinism is
/// guaranteed by the forked `SimRng` streams.
pub fn run_replications(
    trace: &AvailabilityTrace,
    cfg: &DayConfig,
    seeds: &[u64],
) -> Vec<DayReport> {
    use rayon::prelude::*;
    seeds
        .to_vec()
        .into_par_iter()
        .map(|seed| {
            let mut c = cfg.clone();
            c.seed = seed;
            run_day(trace, c)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small handcrafted availability trace: 8 nodes, assorted gaps
    /// over two hours.
    fn small_trace() -> AvailabilityTrace {
        let m = |x: u64| SimTime::from_mins(x);
        AvailabilityTrace::from_intervals(
            SimTime::ZERO,
            m(120),
            vec![
                vec![(m(5), m(15)), (m(40), m(44))],
                vec![(m(10), m(90))],
                vec![(m(20), m(26))],
                vec![(m(30), m(32)), (m(60), m(80))],
                vec![(m(50), m(54))],
                vec![],
                vec![(m(70), m(73))],
                vec![(m(100), m(118))],
            ],
        )
    }

    fn light_load() -> ConstantRateLoadGen {
        ConstantRateLoadGen {
            qps: 1.0,
            n_functions: 10,
        }
    }

    #[test]
    fn fib_day_runs_and_covers_gaps() {
        let trace = small_trace();
        let mut cfg = DayConfig::fib_paper(11);
        cfg.load = Some(light_load());
        let mut report = run_day(&trace, cfg);
        assert_eq!(report.manager_name, "fib");
        // Pilots were started and the big 80-minute gap was covered.
        assert!(report.cluster_counters.pilots_started >= 4);
        let sl = report.slurm_level();
        assert!(
            sl.used_share > 0.5,
            "coverage too low: {:.3}",
            sl.used_share
        );
        // Some invokers served; lifetimes recorded.
        let ow = report.ow_level();
        assert!(ow.lifetime_mins.is_some());
        // Demand claims were never delayed more than grace + latency.
        let d = &report.cluster_counters.demand_delay_secs;
        assert!(d.count() > 0);
        assert!(
            d.max().unwrap() <= 185.0,
            "demand delayed {}s",
            d.max().unwrap()
        );
    }

    #[test]
    fn requests_served_while_workers_exist() {
        let trace = small_trace();
        let mut cfg = DayConfig::fib_paper(13);
        cfg.load = Some(light_load());
        let report = run_day(&trace, cfg);
        let c = &report.whisk_counters;
        assert!(c.submitted > 6_000, "load ran: {}", c.submitted);
        assert!(c.success > 0, "some requests succeeded");
        // Conservation: every submitted request is accounted for
        // (allowing those still in flight at the horizon).
        let answered = c.success + c.failed + c.timeout + c.rejected_503;
        assert!(answered <= c.submitted);
        assert!(c.submitted - answered < 100, "too many unaccounted");
        // 503s happen (node 5 never has gaps; zero-worker windows exist).
        assert!(c.rejected_503 > 0);
    }

    /// A trace of many *short* gaps — the regime where the var model's
    /// backfill-only placement (≥ bf_interval of waiting per gap) hurts,
    /// which is the paper's explanation of the 68%-vs-84% gap (§V-B2).
    fn short_gap_trace() -> AvailabilityTrace {
        let s = |x: u64| SimTime::from_secs(x);
        let mut per_node = Vec::new();
        for n in 0..10u64 {
            let mut gaps = Vec::new();
            // Gaps of 4 minutes, staggered so they open at offsets not
            // aligned with the 30-second backfill cadence.
            let mut t = 300 + n * 47;
            while t + 240 < 7_000 {
                gaps.push((s(t), s(t + 240)));
                t += 600 + (n % 3) * 130;
            }
            per_node.push(gaps);
        }
        AvailabilityTrace::from_intervals(SimTime::ZERO, s(7_200), per_node)
    }

    #[test]
    fn var_day_uses_var_jobs_and_covers_less() {
        let trace = short_gap_trace();
        let mut fib_cfg = DayConfig::fib_paper(17);
        fib_cfg.load = None;
        let mut var_cfg = DayConfig::var_paper(17);
        var_cfg.load = None;
        let fib = run_day(&trace, fib_cfg);
        let var = run_day(&trace, var_cfg);
        assert_eq!(var.manager_name, "var");
        assert!(var.cluster_counters.pilots_started > 0);
        let f = fib.slurm_level().used_share;
        let v = var.slurm_level().used_share;
        assert!(
            v + 0.03 < f,
            "var must cover less than fib on short gaps: var={v:.3} fib={f:.3}"
        );
    }

    #[test]
    fn wrapper_in_the_loop_offloads_during_outages() {
        // Node 5 never has gaps and the early minutes have no workers:
        // the wrapper must divert those calls commercially and nothing
        // is simply dropped.
        let trace = small_trace();
        let mut cfg = DayConfig::fib_paper(31);
        cfg.load = Some(light_load());
        cfg.wrapper_cooloff = Some(SimDuration::from_secs(60));
        let report = run_day(&trace, cfg);
        let (local, commercial, seen_503) = report.wrapper_stats.expect("wrapper enabled");
        assert!(commercial > 0, "outage windows must off-load");
        assert!(local > commercial, "the cluster serves the bulk");
        assert!(seen_503 > 0);
        assert_eq!(report.commercial_bins.total(), commercial);
        assert_eq!(report.commercial_latency_secs.len() as u64, commercial);
        // With the wrapper, the *client* experiences no starvation: all
        // wrapper-routed commercial calls succeed by construction, and
        // cluster 503s only occur at the moment the cool-off window is
        // (re)opened.
        assert_eq!(report.whisk_counters.rejected_503, seen_503);
    }

    #[test]
    fn maintenance_kills_pilots_ungracefully_but_system_survives() {
        let trace = small_trace();
        let mut cfg = DayConfig::fib_paper(37);
        cfg.load = Some(light_load());
        cfg.maintenance = Some(MaintenanceModel {
            events_per_node_day: 60.0, // exaggerated so hits are certain in 2 h
            repair_median_mins: 10.0,
        });
        let report = run_day(&trace, cfg);
        // Failures happened and at least some hit pilots hard.
        assert!(
            report.cluster_counters.pilots_node_failed > 0,
            "expected node failures to catch pilots"
        );
        assert!(report.whisk_counters.hard_deaths > 0);
        // The platform keeps serving.
        assert!(report.whisk_counters.success > 1_000);
        let answered = report.whisk_counters.success
            + report.whisk_counters.failed
            + report.whisk_counters.timeout
            + report.whisk_counters.rejected_503;
        assert!(report.whisk_counters.submitted - answered < 100);
    }

    #[test]
    fn deterministic_given_seed() {
        let trace = small_trace();
        let mk = || {
            let mut cfg = DayConfig::fib_paper(23);
            cfg.load = Some(light_load());
            run_day(&trace, cfg)
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.whisk_counters.success, b.whisk_counters.success);
        assert_eq!(a.whisk_counters.rejected_503, b.whisk_counters.rejected_503);
        assert_eq!(
            a.cluster_counters.pilots_started,
            b.cluster_counters.pilots_started
        );
        assert_eq!(a.samples.len(), b.samples.len());
    }

    #[test]
    fn parallel_replications_match_sequential_runs() {
        let trace = small_trace();
        let mut cfg = DayConfig::fib_paper(0);
        cfg.load = Some(light_load());
        let seeds = [11u64, 23, 47];
        let par = run_replications(&trace, &cfg, &seeds);
        for (seed, rep) in seeds.iter().zip(par.iter()) {
            let mut c = cfg.clone();
            c.seed = *seed;
            let seq = run_day(&trace, c);
            // Bit-identical outcomes: threading must not perturb the
            // per-seed deterministic streams.
            assert_eq!(rep.whisk_counters.submitted, seq.whisk_counters.submitted);
            assert_eq!(rep.whisk_counters.success, seq.whisk_counters.success);
            assert_eq!(
                rep.cluster_counters.pilots_started,
                seq.cluster_counters.pilots_started
            );
            assert_eq!(rep.samples.len(), seq.samples.len());
        }
        // Distinct seeds genuinely explore different trajectories.
        assert!(
            par[0].whisk_counters.success != par[1].whisk_counters.success
                || par[1].whisk_counters.success != par[2].whisk_counters.success
        );
    }

    #[test]
    fn run_days_preserves_input_order() {
        let trace = small_trace();
        let mk = |seed| {
            let mut c = DayConfig::fib_paper(seed);
            c.load = None;
            c
        };
        let reports = run_days(vec![
            (trace.clone(), mk(1)),
            (trace.clone(), mk(2)),
            (trace.clone(), mk(3)),
        ]);
        assert_eq!(reports.len(), 3);
        for (i, seed) in [1u64, 2, 3].iter().enumerate() {
            let seq = run_day(&trace, mk(*seed));
            assert_eq!(
                reports[i].cluster_counters.pilots_started, seq.cluster_counters.pilots_started,
                "report {i} out of order or non-deterministic"
            );
        }
    }

    #[test]
    fn simulation_perspective_bounds_reality() {
        let trace = small_trace();
        let mut cfg = DayConfig::fib_paper(29);
        cfg.load = None;
        let report = run_day(&trace, cfg);
        let sim = report.simulation(crate::lengths::A1.to_vec());
        let actual = report.slurm_level().used_share;
        // The clairvoyant coverage is an upper bound (small slack for
        // sampling noise at 10-second resolution).
        assert!(
            sim.coverage() + 0.05 >= actual,
            "sim {:.3} vs actual {:.3}",
            sim.coverage(),
            actual
        );
    }
}
