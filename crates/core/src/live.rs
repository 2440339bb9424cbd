//! The closed loop, live: a discrete-event simulation of the HPC
//! cluster driving the **real** gateway's capacity — pilot jobs in,
//! lease events out, observed load back in.
//!
//! [`DesLeaseSource`] implements [`gateway::LeaseSource`]. Where
//! [`PlanSource`](gateway::PlanSource) replays a schedule compiled
//! before the run, this source *computes* the schedule as it goes: each
//! controller poll advances an embedded [`ClusterSim`] to the
//! wall-clock-mapped simulation time, and whatever the backfill
//! scheduler decided in that span — pilots placed, pilots preempted,
//! pilots timed out — streams out as incremental lease events. The
//! feedback leg closes the paper's §IV cycle: the controller reports
//! each window's observed load ([`gateway::LoadFeedback`]) and a
//! [`LoadSizedManager`] resizes the pilot supply it submits into the
//! simulated queue, so FaaS demand steers HPC pilot placement which
//! steers FaaS capacity.
//!
//! Two clocks, one mapping: `speedup` simulation seconds pass per wall
//! second. A 12-hour simulated day compresses into seconds of wall time
//! while the gateway underneath serves real requests on real threads.
//!
//! The pilot lifecycle mirrors `experiment::run_day`:
//!
//! * **placed** (`JobStarted`) — the invoker boots; the grant is
//!   emitted only after the sampled warm-up elapses (§IV-B's measured
//!   12.48 s median), with the scheduler's granted end as deadline;
//! * **sigterm** (`JobSigterm`) — preemption or timeout: the revoke is
//!   emitted immediately (the §III-C drain starts) and the pilot exits
//!   after its handoff time ([`DesSourceCfg::drain`]);
//! * a pilot sigtermed **while still warming** never produces a grant
//!   (counted separately — that warm-up was wasted invasiveness).
//!
//! Every lease transition is also recorded into a
//! [`cluster::CapacityLog`], so a finished run yields the standard
//! [`cluster::CapacityTrace`] for invasiveness accounting — including
//! compiling an *equal-invasiveness static plan* for the replay leg the
//! `closed_loop_live` bench compares against.

use crate::manager::{LoadSizedManager, SizerCfg};
use crate::pilot::WarmupModel;
use cluster::{
    CapacityLog, ClusterEvent, ClusterNote, ClusterSim, JobId, JobKind, SigtermReason, SlurmConfig,
};
use gateway::{LeaseEvent, LeaseEventKind, LeaseSource, LoadFeedback};
use simcore::{Engine, Outbox, SimDuration, SimRng, SimTime};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;
use telemetry::{one_series, Collected, Counter, Gauge, MetricKind, Registry};
use workload::{BacklogDriver, HpcWorkloadModel};

/// Node-id block the pinned floor leases live in, far above any id the
/// DES allocates (fresh ids per pilot lease, starting at zero).
const FLOOR_NODE_BASE: u32 = 1_000_000;

/// Configuration for [`DesLeaseSource`].
#[derive(Debug, Clone)]
pub struct DesSourceCfg {
    /// Simulated cluster size.
    pub n_nodes: usize,
    /// Master seed (cluster, workload and warm-up sampling).
    pub seed: u64,
    /// Scheduler configuration.
    pub slurm: SlurmConfig,
    /// Simulation seconds per wall-clock second.
    pub speedup: f64,
    /// Simulated span to run; the source is exhausted past it.
    pub horizon: SimDuration,
    /// Cap on concurrent DES-backed invokers (grants beyond it are
    /// dropped and counted — the single-machine analogue of the lease
    /// cap in [`gateway::LeasePlan::from_capacity_trace`]).
    pub max_leases: usize,
    /// Pinned always-on invokers emitted at the epoch, outside the DES
    /// (the routable floor; never revoked by the source).
    pub floor: usize,
    /// Pilot handoff time after sigterm (invoker drain + exit).
    pub drain: SimDuration,
    /// Warm-up model; `None` boots invokers instantly (tests).
    pub warmup: Option<WarmupModel>,
    /// Drive a generated background HPC job stream so idleness — and
    /// therefore pilot capacity — *emerges* from backfill. Off, the
    /// cluster is empty and pilots place instantly (tests).
    pub hpc_churn: bool,
    /// Load-sizing tuning for the pilot manager.
    pub sizer: SizerCfg,
    /// Declared pilot wall-time limit.
    pub pilot_len: SimDuration,
    /// Slurm priority for pilots.
    pub pilot_priority: u64,
    /// Manager replenishment cadence (simulated).
    pub replenish_every: SimDuration,
}

impl Default for DesSourceCfg {
    fn default() -> Self {
        DesSourceCfg {
            n_nodes: 64,
            seed: 2022,
            slurm: SlurmConfig::default(),
            speedup: 3_600.0,
            horizon: SimDuration::from_hours(12),
            max_leases: 8,
            floor: 1,
            drain: SimDuration::from_secs(2),
            warmup: Some(WarmupModel::default()),
            hpc_churn: true,
            sizer: SizerCfg::default(),
            pilot_len: SimDuration::from_mins(10),
            pilot_priority: 10,
            replenish_every: crate::manager::REPLENISH_EVERY,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Ev {
    C(ClusterEvent),
    HpcTick,
    ManagerTick,
    /// Warm-up finished: the pilot's invoker is ready to serve.
    Serving(JobId),
    /// Handoff finished: the pilot exits voluntarily.
    PilotExit(JobId),
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum LeaseState {
    /// Placed, invoker booting; no grant emitted yet. Carries the
    /// scheduler-granted end from the `JobStarted` note — the lease
    /// deadline the eventual grant announces.
    Warming { granted_end: SimTime },
    /// Grant emitted on this gateway node id at this simulated instant
    /// (the leased-node-seconds accounting anchor).
    Serving { node: u32, since: SimTime },
    /// Revoke emitted (or warm-up cancelled); awaiting exit.
    Closed,
}

/// Raw pilot-plane counters, mirrored in the source's registry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PilotStats {
    /// Pilot jobs submitted to the simulated queue.
    pub submitted: u64,
    /// Pending pilots cancelled by the shrink path.
    pub cancelled: u64,
    /// Lease grants emitted (floor excluded).
    pub grants: u64,
    /// Lease revokes emitted (floor excluded).
    pub revokes: u64,
    /// Revokes caused by preemption (prime job reclaimed the node).
    pub preemptions: u64,
    /// Grants dropped at the `max_leases` cap.
    pub capped: u64,
    /// Pilots sigtermed before their warm-up finished.
    pub warmup_cancelled: u64,
    /// Feedback windows folded into the sizer.
    pub feedbacks: u64,
    /// Simulated node-seconds spent *serving* (grant → revoke, floor
    /// and warm-up excluded) — the invasiveness actually converted into
    /// FaaS capacity, and the figure the equal-invasiveness static plan
    /// in the `closed_loop_live` bench is built from.
    pub leased_node_secs: u64,
}

struct PilotTelem {
    registry: Arc<Registry>,
    submitted: Arc<Counter>,
    cancelled: Arc<Counter>,
    grants: Arc<Counter>,
    revokes: Arc<Counter>,
    preemptions: Arc<Counter>,
    capped: Arc<Counter>,
    warmup_cancelled: Arc<Counter>,
    feedbacks: Arc<Counter>,
    leased_secs: Arc<Counter>,
    target: Arc<Gauge>,
    live: Arc<Gauge>,
}

impl PilotTelem {
    fn new() -> Self {
        let registry = Arc::new(Registry::new());
        let counter = |name: &str, help: &str| -> Arc<Counter> {
            let c = Arc::new(Counter::new());
            let cc = c.clone();
            registry.register(
                name,
                help,
                MetricKind::Counter,
                Box::new(move || one_series(Collected::Counter(cc.get()))),
            );
            c
        };
        let gauge = |name: &str, help: &str| -> Arc<Gauge> {
            let g = Arc::new(Gauge::new());
            let gc = g.clone();
            registry.register(
                name,
                help,
                MetricKind::Gauge,
                Box::new(move || one_series(Collected::Gauge(gc.get()))),
            );
            g
        };
        PilotTelem {
            submitted: counter("pilot_submitted_total", "Pilot jobs submitted to the queue"),
            cancelled: counter("pilot_cancelled_total", "Pending pilots cancelled (shrink)"),
            grants: counter(
                "pilot_grants_total",
                "Lease grants emitted (floor excluded)",
            ),
            revokes: counter(
                "pilot_revokes_total",
                "Lease revokes emitted (floor excluded)",
            ),
            preemptions: counter("pilot_preemptions_total", "Revokes caused by preemption"),
            capped: counter("pilot_capped_total", "Grants dropped at the lease cap"),
            warmup_cancelled: counter(
                "pilot_warmup_cancelled_total",
                "Pilots sigtermed before warm-up finished",
            ),
            feedbacks: counter("pilot_feedback_windows_total", "Feedback windows observed"),
            leased_secs: counter(
                "pilot_leased_node_secs_total",
                "Simulated node-seconds serving (grant to revoke, floor excluded)",
            ),
            target: gauge("pilot_target_invokers", "Sizer's current invoker target"),
            live: gauge("pilot_leases_live", "DES-backed leases currently live"),
            registry,
        }
    }
}

/// The live DES lease source. See the module docs.
pub struct DesLeaseSource {
    cfg: DesSourceCfg,
    engine: Engine<Ev>,
    sim: ClusterSim,
    manager: LoadSizedManager,
    hpc: Option<BacklogDriver>,
    rng: SimRng,
    /// Wall-domain events ready for the controller, FIFO.
    buffer: Vec<LeaseEvent>,
    leases: HashMap<JobId, LeaseState>,
    /// Sim-domain record of every lease for invasiveness accounting.
    log: CapacityLog,
    next_node: u32,
    live_leases: usize,
    floor_emitted: bool,
    sim_done: bool,
    stats: PilotStats,
    telem: PilotTelem,
}

impl DesLeaseSource {
    /// Build the source: seeds the cluster, bootstraps the poller and
    /// schedules the first manager and workload ticks.
    pub fn new(cfg: DesSourceCfg) -> Self {
        assert!(cfg.speedup > 0.0, "speedup must be positive");
        assert!(cfg.max_leases >= 1);
        let mut sim = ClusterSim::new(cfg.slurm.clone(), cfg.n_nodes, cfg.seed);
        let manager = LoadSizedManager::new(cfg.sizer, cfg.pilot_len, cfg.pilot_priority);
        let hpc = cfg
            .hpc_churn
            .then(|| BacklogDriver::new(HpcWorkloadModel::prometheus(), cfg.n_nodes));
        let mut engine: Engine<Ev> = Engine::new();
        {
            let mut co = Outbox::new(SimTime::ZERO);
            sim.bootstrap(SimTime::ZERO, &mut co);
            for (t, e) in co.drain() {
                engine.schedule(t, Ev::C(e));
            }
        }
        if hpc.is_some() {
            engine.schedule(SimTime::ZERO, Ev::HpcTick);
        }
        engine.schedule(SimTime::ZERO, Ev::ManagerTick);
        DesLeaseSource {
            rng: SimRng::seed_from_u64(cfg.seed ^ 0xc105_ed10),
            cfg,
            engine,
            sim,
            manager,
            hpc,
            buffer: Vec::new(),
            leases: HashMap::new(),
            log: CapacityLog::new(),
            next_node: 0,
            live_leases: 0,
            floor_emitted: false,
            sim_done: false,
            stats: PilotStats::default(),
            telem: PilotTelem::new(),
        }
    }

    /// Pilot-plane counters so far.
    pub fn stats(&self) -> PilotStats {
        self.stats
    }

    /// The pilot telemetry registry (`pilot_*` families).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.telem.registry
    }

    /// DES-backed leases currently live (floor excluded).
    pub fn live_leases(&self) -> usize {
        self.live_leases
    }

    /// The simulated cluster's aggregate counters.
    pub fn cluster_counters(&self) -> &cluster::Counters {
        self.sim.counters()
    }

    /// Consume the source and return the sim-domain capacity trace it
    /// recorded (open leases closed at the horizon).
    pub fn into_capacity_trace(self) -> cluster::CapacityTrace {
        let end = SimTime::ZERO + self.cfg.horizon;
        self.log.into_trace(SimTime::ZERO, end)
    }

    fn sim_of(&self, wall: Duration) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs_f64(wall.as_secs_f64() * self.cfg.speedup)
    }

    fn wall_of(&self, t: SimTime) -> Duration {
        Duration::from_secs_f64(t.since(SimTime::ZERO).as_secs_f64() / self.cfg.speedup)
    }

    /// Advance the simulation to `target` and translate what happened
    /// into buffered wall-domain lease events.
    fn step_sim(&mut self, target: SimTime) {
        let horizon = SimTime::ZERO + self.cfg.horizon;
        let target = target.min(horizon);
        // Split borrows: the engine drives a closure over the rest.
        let DesLeaseSource {
            cfg,
            engine,
            sim,
            manager,
            hpc,
            rng,
            buffer,
            leases,
            log,
            next_node,
            live_leases,
            stats,
            telem,
            ..
        } = self;
        let speedup = cfg.speedup;
        let wall_of =
            |t: SimTime| Duration::from_secs_f64(t.since(SimTime::ZERO).as_secs_f64() / speedup);
        engine.run_until(target, &mut |now: SimTime, ev: Ev, out: &mut Outbox<Ev>| {
            let mut co = Outbox::new(now);
            let mut notes: Vec<ClusterNote> = Vec::new();
            match ev {
                Ev::C(e) => sim.handle(now, e, &mut co, &mut notes),
                Ev::HpcTick => {
                    if let Some(driver) = hpc {
                        // Pending HPC work in node-hours (declared
                        // limits), for the backlog feedback loop.
                        let total = std::cell::Cell::new(0.0f64);
                        let _ = sim.pending_matching(|j| {
                            if j.spec.kind == JobKind::Hpc {
                                total.set(
                                    total.get()
                                        + j.spec.nodes as f64 * j.spec.time_limit.as_secs_f64()
                                            / 3600.0,
                                );
                                true
                            } else {
                                false
                            }
                        });
                        for spec in driver.replenish(total.get(), rng) {
                            sim.submit(now, spec, &mut co);
                        }
                    }
                    out.after(SimDuration::from_mins(1), Ev::HpcTick);
                }
                Ev::ManagerTick => {
                    let serving = leases
                        .values()
                        .filter(|s| !matches!(s, LeaseState::Closed))
                        .count();
                    let plan = manager.plan(sim, serving);
                    for id in &plan.cancel {
                        if sim.cancel_pending(now, *id) {
                            stats.cancelled += 1;
                            telem.cancelled.inc();
                        }
                    }
                    for spec in plan.submit {
                        sim.submit(now, spec, &mut co);
                        stats.submitted += 1;
                        telem.submitted.inc();
                    }
                    telem.target.set(manager.target() as i64);
                    out.after(cfg.replenish_every, Ev::ManagerTick);
                }
                Ev::Serving(job) => {
                    // Emit the grant only if the pilot survived warm-up.
                    if let Some(state) = leases.get_mut(&job) {
                        if let LeaseState::Warming { granted_end } = *state {
                            if *live_leases >= cfg.max_leases {
                                stats.capped += 1;
                                telem.capped.inc();
                                // The pilot keeps its node (the
                                // invasiveness is spent either way) but
                                // the gateway gets no invoker; it stays
                                // Warming so a later sigterm is still
                                // accounted.
                            } else {
                                let node = *next_node;
                                *next_node += 1;
                                *state = LeaseState::Serving { node, since: now };
                                *live_leases += 1;
                                buffer.push(LeaseEvent {
                                    at: wall_of(now),
                                    node,
                                    kind: LeaseEventKind::Grant {
                                        deadline: wall_of(granted_end),
                                    },
                                });
                                log.grant(now, node, granted_end);
                                stats.grants += 1;
                                telem.grants.inc();
                                telem.live.set(*live_leases as i64);
                            }
                        }
                    }
                }
                Ev::PilotExit(job) => sim.pilot_exited(now, job, &mut co, &mut notes),
            }
            for (t, e) in co.drain() {
                out.at(t, Ev::C(e));
            }
            for n in notes {
                match n {
                    ClusterNote::JobStarted {
                        job, granted_end, ..
                    } if sim.job(job).spec.kind == JobKind::Pilot => {
                        leases.insert(job, LeaseState::Warming { granted_end });
                        let warm = cfg
                            .warmup
                            .as_ref()
                            .map(|m| m.sample(rng))
                            .unwrap_or(SimDuration::ZERO);
                        out.after(warm, Ev::Serving(job));
                    }
                    ClusterNote::JobSigterm { job, reason, .. }
                        if sim.job(job).spec.kind == JobKind::Pilot =>
                    {
                        match leases.get_mut(&job) {
                            Some(state @ LeaseState::Warming { .. }) => {
                                *state = LeaseState::Closed;
                                stats.warmup_cancelled += 1;
                                telem.warmup_cancelled.inc();
                            }
                            Some(state @ LeaseState::Serving { .. }) => {
                                let LeaseState::Serving { node, since } = *state else {
                                    unreachable!()
                                };
                                *state = LeaseState::Closed;
                                *live_leases -= 1;
                                buffer.push(LeaseEvent {
                                    at: wall_of(now),
                                    node,
                                    kind: LeaseEventKind::Revoke,
                                });
                                log.revoke(now, node);
                                stats.revokes += 1;
                                telem.revokes.inc();
                                let secs = now.since(since).as_secs_f64().round() as u64;
                                stats.leased_node_secs += secs;
                                telem.leased_secs.add(secs);
                                telem.live.set(*live_leases as i64);
                                if reason == SigtermReason::Preempted {
                                    stats.preemptions += 1;
                                    telem.preemptions.inc();
                                }
                            }
                            _ => {}
                        }
                        // The invoker hands its backlog off and exits.
                        out.after(cfg.drain, Ev::PilotExit(job));
                    }
                    ClusterNote::JobEnded { job, .. }
                        if sim.job(job).spec.kind == JobKind::Pilot =>
                    {
                        // A pilot that ended without a sigterm we saw
                        // (defensive): close its lease.
                        if let Some(LeaseState::Serving { node, since }) = leases.get(&job).copied()
                        {
                            buffer.push(LeaseEvent {
                                at: wall_of(now),
                                node,
                                kind: LeaseEventKind::Revoke,
                            });
                            log.revoke(now, node);
                            *live_leases -= 1;
                            stats.revokes += 1;
                            telem.revokes.inc();
                            let secs = now.since(since).as_secs_f64().round() as u64;
                            stats.leased_node_secs += secs;
                            telem.leased_secs.add(secs);
                            telem.live.set(*live_leases as i64);
                        }
                        leases.remove(&job);
                    }
                    _ => {}
                }
            }
        });
        if target >= horizon && !self.sim_done {
            // The run is over: reclaim every live lease at the horizon.
            let at = self.wall_of(horizon);
            let closing: Vec<(JobId, u32, SimTime)> = self
                .leases
                .iter()
                .filter_map(|(j, s)| match s {
                    LeaseState::Serving { node, since } => Some((*j, *node, *since)),
                    _ => None,
                })
                .collect();
            for (job, node, since) in closing {
                self.buffer.push(LeaseEvent {
                    at,
                    node,
                    kind: LeaseEventKind::Revoke,
                });
                self.leases.insert(job, LeaseState::Closed);
                self.live_leases -= 1;
                self.stats.revokes += 1;
                self.telem.revokes.inc();
                let secs = horizon.since(since).as_secs_f64().round() as u64;
                self.stats.leased_node_secs += secs;
                self.telem.leased_secs.add(secs);
            }
            self.telem.live.set(0);
            self.sim_done = true;
        }
    }
}

impl LeaseSource for DesLeaseSource {
    fn poll(&mut self, now: Duration, out: &mut Vec<LeaseEvent>) -> Option<Duration> {
        if !self.floor_emitted {
            // Pinned floor invokers, granted at the epoch with a
            // deadline far past any horizon (the controller reaps them
            // at finish) — same shape as a compiled plan's floor.
            let far = self
                .wall_of(SimTime::ZERO + self.cfg.horizon)
                .max(Duration::from_millis(1))
                * 1_000;
            for i in 0..self.cfg.floor as u32 {
                self.buffer.push(LeaseEvent {
                    at: Duration::ZERO,
                    node: FLOOR_NODE_BASE + i,
                    kind: LeaseEventKind::Grant { deadline: far },
                });
            }
            self.floor_emitted = true;
        }
        if !self.sim_done {
            self.step_sim(self.sim_of(now));
        }
        // Everything buffered is due: emissions happen at simulated
        // instants the wall clock has already passed.
        out.append(&mut self.buffer);
        if self.sim_done {
            None
        } else {
            self.engine.next_event_time().map(|t| self.wall_of(t))
        }
    }

    fn observe(&mut self, fb: &LoadFeedback) {
        self.manager.observe(fb);
        self.stats.feedbacks += 1;
        self.telem.feedbacks.inc();
        self.telem.target.set(self.manager.target() as i64);
    }

    fn exhausted(&self) -> bool {
        self.sim_done && self.buffer.is_empty()
    }

    fn floor(&self) -> usize {
        self.cfg.floor
    }
}
