//! The closed loop, live: a discrete-event simulation of the HPC
//! cluster driving the **real** gateway's capacity — pilot jobs in,
//! lease events out, observed load back in.
//!
//! [`DesLeaseSource`] implements [`gateway::LeaseSource`]. Where
//! [`PlanSource`](gateway::PlanSource) replays a schedule compiled
//! before the run, this source *computes* it as it goes: it is a
//! wall-clock adapter over the one DES [`Driver`] with a
//! [`PilotSink::Leases`] sink. Each controller poll steps the driver to
//! the wall-clock-mapped simulation time (`speedup` simulation seconds
//! per wall second), and the pilots the scheduler placed, preempted or
//! timed out in that span stream out as lease events: a grant once a
//! pilot's invoker has warmed up, with the granted end as deadline; a
//! revoke at its SIGTERM; none for a pilot SIGTERMed while warming
//! (counted — that warm-up was wasted invasiveness). The controller
//! reports each window's observed load ([`gateway::LoadFeedback`]) into
//! the driver's manager — any [`ManagerKind`]; a
//! [`LoadSized`](ManagerKind::LoadSized) one resizes the pilot supply,
//! so FaaS demand steers HPC pilot placement, which steers FaaS
//! capacity (the paper's §IV cycle).
//!
//! The source adds what only a live plane has: the pinned floor
//! invokers granted at the epoch, and the close at the horizon, which
//! revokes every lease still live.

use crate::driver::{Driver, IdleSource, PilotSink};
use crate::experiment::DayConfig;
use crate::manager::ManagerKind;
use crate::pilot::{PilotPhase, WarmupModel};
use cluster::{JobId, LeaseEvent, SigtermReason, SlurmConfig};
use gateway::{floor_grants, LeaseSource, LoadFeedback};
use metrics::outcome::{self, Violation};
use simcore::{SimDuration, SimTime};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;
use telemetry::{one_series, Collected, MetricKind, Registry, Snapshot};

/// Node-id block the pinned floor leases live in, far above any id the
/// DES allocates (fresh ids per pilot lease, starting at zero).
const FLOOR_NODE_BASE: u32 = 1_000_000;

/// Configuration for [`DesLeaseSource`].
#[derive(Debug, Clone)]
pub struct DesSourceCfg<'a> {
    /// The simulated cluster and where its idleness comes from (its
    /// window is the source's horizon; the source is exhausted past it).
    pub idle: IdleSource<'a>,
    /// Master seed (cluster, workload and warm-up sampling).
    pub seed: u64,
    /// Simulation seconds per wall-clock second.
    pub speedup: f64,
    /// Cap on concurrent DES-backed invokers (grants beyond it are
    /// dropped and counted — the single-machine analogue of the lease
    /// cap in [`gateway::LeasePlan::from_capacity_trace`]).
    pub max_leases: usize,
    /// Pinned always-on invokers emitted at the epoch, outside the DES
    /// (the routable floor; never revoked by the source).
    pub floor: usize,
    /// Invoker warm-up model.
    pub warmup: WarmupModel,
    /// Pilot-supply strategy.
    pub manager: ManagerKind,
}

/// Raw pilot-plane counters, exposed by the source's registry.
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
    /// of the `live` runner's `closed_loop` row is built from.
    pub leased_node_secs: u64,
}

/// The pilot plane's books as the registry exposes them.
#[derive(Debug, Clone, Copy, Default)]
struct Books {
    stats: PilotStats,
    /// The manager's invoker target, once it sized against load.
    target: i64,
    /// DES-backed leases live now.
    live: i64,
}

/// A registry exposing `books` as the `pilot_*` families.
fn pilot_registry(books: &Arc<Mutex<Books>>) -> Registry {
    use Collected::{Counter, Gauge};
    let registry = Registry::new();
    let family = |name: &str, help: &str, read: fn(&Books) -> Collected| {
        let kind = match read(&Books::default()) {
            Counter(_) => MetricKind::Counter,
            _ => MetricKind::Gauge,
        };
        let books = books.clone();
        let collect = move || one_series(read(&books.lock().expect("pilot books")));
        registry.register(name, help, kind, Box::new(collect));
    };
    let help = "Pilot jobs submitted to the queue";
    family("pilot_submitted_total", help, |b| {
        Counter(b.stats.submitted)
    });
    let help = "Pending pilots cancelled (shrink)";
    family("pilot_cancelled_total", help, |b| {
        Counter(b.stats.cancelled)
    });
    let help = "Lease grants emitted (floor excluded)";
    family("pilot_grants_total", help, |b| Counter(b.stats.grants));
    let help = "Lease revokes emitted (floor excluded)";
    family("pilot_revokes_total", help, |b| Counter(b.stats.revokes));
    let help = "Revokes caused by preemption";
    family("pilot_preemptions_total", help, |b| {
        Counter(b.stats.preemptions)
    });
    let help = "Grants dropped at the lease cap";
    family("pilot_capped_total", help, |b| Counter(b.stats.capped));
    let help = "Pilots sigtermed before warm-up finished";
    family("pilot_warmup_cancelled_total", help, |b| {
        Counter(b.stats.warmup_cancelled)
    });
    let help = "Feedback windows observed";
    family("pilot_feedback_windows_total", help, |b| {
        Counter(b.stats.feedbacks)
    });
    let help = "Simulated node-seconds serving (grant to revoke, floor excluded)";
    family("pilot_leased_node_secs_total", help, |b| {
        Counter(b.stats.leased_node_secs)
    });
    let help = "Sizer's current invoker target";
    family("pilot_target_invokers", help, |b| Gauge(b.target));
    let help = "DES-backed leases currently live";
    family("pilot_leases_live", help, |b| Gauge(b.live));
    registry
}

/// The `pilot_*` families every pilot-plane scrape carries.
const PILOT_FAMILIES: [&str; 7] = [
    "pilot_submitted_total",
    "pilot_grants_total",
    "pilot_revokes_total",
    "pilot_leases_live",
    "pilot_feedback_windows_total",
    "pilot_leased_node_secs_total",
    "pilot_target_invokers",
];

/// The pilot plane's books on `snap`, a scrape of
/// [`DesLeaseSource::registry`]: every family of `PILOT_FAMILIES` is
/// there, and the lease rule both planes share ([`outcome::leases`])
/// holds over the pilot families.
pub fn check_books(snap: &Snapshot) -> Result<(), Vec<Violation>> {
    let mut found = outcome::missing(snap, &PILOT_FAMILIES);
    let (grants, revokes, live) = (PILOT_FAMILIES[1], PILOT_FAMILIES[2], PILOT_FAMILIES[3]);
    if found.is_empty() {
        found.extend(outcome::leases(snap, grants, revokes, live).err());
    }
    found.is_empty().then_some(()).ok_or(found)
}

/// The [`PilotSink::Leases`] sink of the [`Driver`]: a lease per warm
/// pilot, buffered in simulated time until the adapter collects it.
pub(crate) struct LeaseBuffer {
    max_leases: usize,
    /// Grants and revokes not yet collected, in emission order.
    emitted: Vec<LeaseEvent<SimTime>>,
    /// Live leases: the gateway node id and the grant instant per pilot.
    serving: HashMap<JobId, (u32, SimTime)>,
    next_node: u32,
    books: Books,
    /// What the registry reads: `books` as of the last [`publish`].
    ///
    /// [`publish`]: LeaseBuffer::publish
    published: Arc<Mutex<Books>>,
    registry: Arc<Registry>,
}

impl LeaseBuffer {
    pub(crate) fn new(max_leases: usize) -> Self {
        assert!(max_leases >= 1);
        let published = Arc::default();
        LeaseBuffer {
            max_leases,
            emitted: Vec::new(),
            serving: HashMap::new(),
            next_node: 0,
            books: Books::default(),
            registry: Arc::new(pilot_registry(&published)),
            published,
        }
    }

    /// A manager round submitted and cancelled this many pilots while
    /// sizing toward `target`.
    pub(crate) fn planned(&mut self, submitted: usize, cancelled: usize, target: Option<usize>) {
        self.books.stats.submitted += submitted as u64;
        self.books.stats.cancelled += cancelled as u64;
        self.sized(target);
    }

    /// One feedback window reached the manager, now sizing toward
    /// `target`.
    pub(crate) fn observed(&mut self, target: Option<usize>) {
        self.books.stats.feedbacks += 1;
        self.sized(target);
    }

    fn sized(&mut self, target: Option<usize>) {
        if let Some(t) = target {
            self.books.target = t as i64;
        }
    }

    /// A pilot's invoker is warm: grant it a lease until `deadline`,
    /// unless `max_leases` are live — then the pilot keeps its node (the
    /// invasiveness is spent either way) but the gateway gets no
    /// invoker. Returns whether it was granted.
    pub(crate) fn grant(&mut self, now: SimTime, job: JobId, deadline: SimTime) -> bool {
        if self.serving.len() >= self.max_leases {
            self.books.stats.capped += 1;
            return false;
        }
        let node = self.next_node;
        self.next_node += 1;
        self.serving.insert(job, (node, now));
        self.emitted.push(LeaseEvent::grant(now, node, deadline));
        self.books.stats.grants += 1;
        self.books.live = self.serving.len() as i64;
        true
    }

    /// SIGTERM reached a pilot that was in `phase`.
    pub(crate) fn sigterm(
        &mut self,
        now: SimTime,
        job: JobId,
        phase: Option<PilotPhase>,
        reason: SigtermReason,
    ) {
        match phase {
            Some(PilotPhase::Warming) => self.books.stats.warmup_cancelled += 1,
            Some(PilotPhase::Serving) => {
                self.revoke(now, job);
                if reason == SigtermReason::Preempted {
                    self.books.stats.preemptions += 1;
                }
            }
            _ => {}
        }
    }

    /// Revoke the lease `job` holds, if any.
    pub(crate) fn revoke(&mut self, now: SimTime, job: JobId) {
        let Some((node, since)) = self.serving.remove(&job) else {
            return;
        };
        self.emitted.push(LeaseEvent::revoke(now, node));
        self.books.stats.revokes += 1;
        self.books.stats.leased_node_secs += now.since(since).as_secs_f64().round() as u64;
        self.books.live = self.serving.len() as i64;
    }

    /// The horizon: revoke every live lease at `at`, in node order.
    fn close(&mut self, at: SimTime) {
        let mut live: Vec<(u32, JobId)> = self.serving.iter().map(|(j, (n, _))| (*n, *j)).collect();
        live.sort_unstable();
        for (_, job) in live {
            self.revoke(at, job);
        }
    }

    /// Let the registry see the books.
    fn publish(&self) {
        *self.published.lock().expect("pilot books") = self.books;
    }
}

/// The live DES lease source. See the module docs.
pub struct DesLeaseSource {
    driver: Driver,
    speedup: f64,
    /// The pinned floor grants, until the first poll hands them out.
    floor: Vec<LeaseEvent<Duration>>,
    done: bool,
}

impl DesLeaseSource {
    /// Build the source: the driver with a lease sink, its cluster,
    /// manager and periodic ticks scheduled.
    pub fn new(cfg: DesSourceCfg<'_>) -> Self {
        assert!(cfg.speedup > 0.0, "speedup must be positive");
        let day = DayConfig {
            // Slurm's default quick-pass spacing (2 s), not the fib
            // day's 10 s.
            slurm: SlurmConfig::default(),
            manager: cfg.manager,
            load: None,
            warmup: cfg.warmup,
            ..DayConfig::fib_paper(cfg.seed)
        };
        let sink = PilotSink::Leases {
            max_leases: cfg.max_leases,
        };
        let mut src = DesLeaseSource {
            driver: Driver::new(cfg.idle, day, sink),
            speedup: cfg.speedup,
            floor: Vec::new(),
            done: false,
        };
        // Pinned floor invokers: the same shape as a compiled plan's
        // floor, on their own node block.
        let horizon = src.wall_of(src.driver.window().1);
        src.floor = floor_grants(FLOOR_NODE_BASE, cfg.floor, horizon).collect();
        src
    }

    fn sink_mut(&mut self) -> &mut LeaseBuffer {
        self.driver.leases_mut().expect("built with a lease sink")
    }

    fn sink(&self) -> &LeaseBuffer {
        self.driver.leases().expect("built with a lease sink")
    }

    /// Pilot-plane counters so far.
    pub fn stats(&self) -> PilotStats {
        self.sink().books.stats
    }

    /// The pilot telemetry registry (`pilot_*` families).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.sink().registry
    }

    /// The wall-clock offset of simulated instant `t`.
    fn wall_of(&self, t: SimTime) -> Duration {
        Duration::from_secs_f64(t.since(self.driver.window().0).as_secs_f64() / self.speedup)
    }
}

impl LeaseSource for DesLeaseSource {
    fn poll(&mut self, now: Duration, out: &mut Vec<LeaseEvent<Duration>>) -> Option<Duration> {
        out.append(&mut self.floor);
        if !self.done {
            let (start, end) = self.driver.window();
            let target = start + SimDuration::from_secs_f64(now.as_secs_f64() * self.speedup);
            self.driver.step_until(target);
            if target >= end {
                self.sink_mut().close(end);
                self.done = true;
            }
            // Everything emitted is due: it happened at simulated
            // instants the wall clock has already passed.
            let emitted = std::mem::take(&mut self.sink_mut().emitted);
            out.extend(emitted.into_iter().map(|e| e.map(|t| self.wall_of(t))));
            self.sink_mut().publish();
        }
        if self.done {
            None
        } else {
            self.driver.next_event_time().map(|t| self.wall_of(t))
        }
    }

    fn observe(&mut self, fb: &LoadFeedback) {
        self.driver.observe(fb);
        self.sink_mut().publish();
    }

    fn exhausted(&self) -> bool {
        self.done
    }
}
