//! The end-to-end day experiment (§V): a trace-driven prime-demand
//! stream, the pilot-job manager, the Slurm-like scheduler, the
//! OpenWhisk-like platform and the constant-rate client load — its
//! configuration ([`DayConfig`]), its report ([`DayReport`]) and the
//! fan-outs over many days.
//!
//! One call to [`run_day`] — the [`Driver`] over a trace with the FaaS
//! plane as its sink — reproduces everything a Table II/III row needs:
//! the poll-sample log (Slurm-level perspective), the controller
//! worker-state series (OpenWhisk-level), per-minute outcome bins
//! (Figs. 5b/6b) and response-time distributions — and closes its
//! books like a gateway: [`DayReport::books`] is the request rule both
//! planes share, over the cluster's ledger and the client's.

use crate::coverage::{self, OwLevel, SlurmLevel};
use crate::driver::{Driver, IdleSource, PilotSink};
use crate::offline::{self, OfflineConfig, OfflineReport};
use crate::pilot::WarmupModel;
use cluster::{AvailabilityTrace, Counters, PollSample, SlurmConfig};
use metrics::outcome::{self, Violation};
use metrics::{Cdf, MsCdf, OutcomeBins, StepSeries, Tally};
use simcore::{SimDuration, SimTime};
use whisk::{WhiskConfig, WhiskCounters};
use workload::ConstantRateLoadGen;

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
    /// Invoker warm-up model.
    pub warmup: WarmupModel,
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
            warmup: WarmupModel::default(),
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
    /// Per-minute requests by outcome (Fig. 5b/6b; a timeout is "lost").
    /// A 503 that Algorithm 1 retries is binned as the cluster's shed and
    /// as the client's offload.
    pub outcome_bins: OutcomeBins,
    /// Client-observed response times of successful requests (queries
    /// answer in seconds), counted per whole millisecond.
    pub latency_success_secs: MsCdf,
    /// Client calls the load generator made, counted at each arrival
    /// before Algorithm 1 routes it: the client rule's `offered`.
    pub offered: u64,
    /// The client's ledger: each call accepted by the cluster, shed, or
    /// [`Outcome::Offloaded`](metrics::Outcome::Offloaded) by Algorithm 1
    /// ([`DayConfig::wrapper_cooloff`]); accepted ones end as the
    /// cluster's do, `in_flight` counting the activations still
    /// unanswered at the horizon. Without the wrapper it equals
    /// [`tally`](Self::tally).
    pub client: Tally,
    /// Response times of the calls the client was served: the cluster's
    /// successes and the commercial answers, per whole millisecond.
    pub client_latency_secs: MsCdf,
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

    /// The cluster's request ledger.
    pub fn tally(&self) -> Tally {
        self.whisk_counters.tally(self.client.in_flight)
    }

    /// The request rule twice: over [`tally`](Self::tally) for the
    /// `submitted` arrivals the platform was offered (every one
    /// accepted or shed with a 503), and over [`client`](Self::client)
    /// for the [`offered`](Self::offered) calls (every one accepted,
    /// shed or offloaded); every acceptance completed, failed, timed out
    /// or still in flight.
    pub fn books(&self) -> Result<(), Vec<Violation>> {
        let mut found = outcome::requests(&self.tally(), self.whisk_counters.submitted);
        found.extend(outcome::requests(&self.client, self.offered));
        found.is_empty().then_some(()).ok_or(found)
    }

    /// Of the accepted requests: (success, failed, timeout) shares.
    pub fn accepted_outcome_shares(&self) -> (f64, f64, f64) {
        let c = &self.whisk_counters;
        let accepted = c.accepted.max(1) as f64;
        (
            c.success as f64 / accepted,
            c.failed as f64 / accepted,
            c.timeout as f64 / accepted,
        )
    }
}

/// Run one full experiment day over `trace`.
pub fn run_day(trace: &AvailabilityTrace, cfg: DayConfig) -> DayReport {
    Driver::new(IdleSource::Trace(trace), cfg, PilotSink::Whisk).finish()
}

/// Run many independent day experiments across threads. Each `(trace,
/// config)` pair is a self-contained deterministic simulation (its own
/// [`SimRng`](simcore::SimRng) streams derived from `config.seed`), so results are
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

/// Configuration of a multi-week, multi-cluster, multi-seed sweep of
/// fib days (set A1, no client load) — the §VII extension: "evaluate
/// and characterize the quantity of unused resources in longer periods
/// of time".
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Weeks simulated per cluster (each day is its own deterministic
    /// run, mirroring how the paper's experiment days were separate).
    pub weeks: u64,
    /// Replication seeds per day (error bars).
    pub seeds: Vec<u64>,
}

/// Run a full week-scale sweep through the rayon day driver: every
/// `(cluster, week, day, seed)` combination is one independent,
/// per-seed-deterministic [`run_day`], so wall-clock scales with cores
/// while results stay bit-identical to sequential runs. Each unique
/// `(cluster, week, day)` trace is generated once and shared by
/// reference across its replication seeds (which run inside one rayon
/// task — the fan-out across unique traces saturates cores long before
/// per-seed parallelism would matter). `reduce(cluster, day_of_week,
/// report)` keeps what the caller needs of each day inside the parallel
/// map, so no report outlives its day. Results return in `(cluster,
/// week, day, seed)` order.
pub fn run_week_sweep<T: Send>(
    clusters: &[SweepCluster],
    cfg: &SweepConfig,
    reduce: impl Fn(usize, u64, &DayReport) -> T + Sync,
) -> Vec<T> {
    use rayon::prelude::*;
    let mut days = Vec::new();
    for (ci, cl) in clusters.iter().enumerate() {
        for week in 0..cfg.weeks {
            for day in 0..7 {
                // One trace per (cluster, week, day): replication seeds
                // share the trace and vary the scheduler/poller streams.
                let trace_seed = 0x5EED_0000 + week * 7 + day;
                let trace = cl.model.generate(SimDuration::from_hours(24), trace_seed);
                days.push((ci, day, trace_seed, trace));
            }
        }
    }
    let per_day: Vec<Vec<T>> = days
        .par_iter()
        .map(|(cluster, day, trace_seed, trace)| {
            cfg.seeds
                .iter()
                .map(|&seed| {
                    let day_cfg = DayConfig {
                        load: None,
                        ..DayConfig::fib_paper(seed ^ (trace_seed << 8))
                    };
                    reduce(*cluster, *day, &run_day(trace, day_cfg))
                })
                .collect()
        })
        .collect();
    per_day.into_iter().flatten().collect()
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
        // Conservation: every submitted request is accounted for, those
        // still in flight at the horizon by name.
        assert_eq!(report.books(), Ok(()));
        assert_eq!(report.client.in_flight, 0);
        // Without the wrapper the client's ledger is the cluster's.
        assert_eq!(report.client, report.tally());
        assert_eq!(report.offered, c.submitted);
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

    /// The small trace's day with Algorithm 1 on, at the paper's 60 s
    /// cool-off.
    fn wrapped_day() -> DayReport {
        let mut cfg = DayConfig::fib_paper(31);
        cfg.load = Some(light_load());
        cfg.wrapper_cooloff = Some(SimDuration::from_secs(60));
        run_day(&small_trace(), cfg)
    }

    #[test]
    fn wrapper_in_the_loop_offloads_during_outages() {
        // Node 5 never has gaps and the early minutes have no workers:
        // the wrapper must divert those calls commercially and nothing
        // is simply dropped.
        let r = wrapped_day();
        let (cluster, client) = (r.tally(), r.client);
        assert_eq!(r.books(), Ok(()));
        assert!(0 < client.offloaded && client.offloaded < client.accepted);
        // Every 503 is retried commercially, so the client sees no shed,
        // and the cluster is offered what no cool-off diverted.
        assert!(cluster.shed_total() > 0 && client.shed_total() == 0);
        let (mut without_offloads, mut without_sheds) = (client, cluster);
        (without_offloads.offloaded, without_sheds.shed) = (0, [0; 4]);
        assert_eq!(without_offloads, without_sheds);
        let direct = client.offloaded - cluster.shed_total();
        assert_eq!(r.offered, r.whisk_counters.submitted + direct);
        let binned = r.outcome_bins[metrics::Outcome::Offloaded].total();
        assert_eq!(binned, client.offloaded);
        let served = client.completed + client.offloaded;
        assert_eq!(r.client_latency_secs.len() as u64, served);
    }

    /// `report`'s books find exactly one violation: the client's
    /// `offered` off balance.
    fn unoffered(report: &DayReport) -> bool {
        let found = report.books().unwrap_err();
        matches!(found[..], [Violation::Unoffered { .. }])
    }

    #[test]
    fn an_offload_the_client_tally_misses_breaks_the_books() {
        let mut report = wrapped_day();
        report.client.offloaded -= 1;
        assert!(unoffered(&report));
    }

    #[test]
    fn a_call_that_reaches_neither_path_breaks_the_books() {
        let mut report = wrapped_day();
        report.offered += 1;
        assert!(unoffered(&report));
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
        // Every request is accounted for, hard deaths or not.
        assert_eq!(report.books(), Ok(()));
        assert_eq!(report.client.in_flight, 0);
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
    fn run_days_preserves_input_order() {
        let trace = small_trace();
        let mk = |seed| DayConfig {
            load: Some(light_load()),
            ..DayConfig::fib_paper(seed)
        };
        let seeds = [11u64, 23, 47];
        let reports = run_days(seeds.iter().map(|&s| (trace.clone(), mk(s))).collect());
        assert_eq!(reports.len(), 3);
        for (i, seed) in seeds.iter().enumerate() {
            // Bit-identical outcomes in input order: threading must not
            // perturb the per-seed deterministic streams.
            let (par, seq) = (&reports[i], run_day(&trace, mk(*seed)));
            let c = |r: &DayReport| {
                let (w, c) = (&r.whisk_counters, &r.cluster_counters);
                (w.submitted, w.success, c.pilots_started, r.samples.len())
            };
            assert_eq!(
                c(par),
                c(&seq),
                "report {i} out of order or non-deterministic"
            );
        }
        // Distinct seeds genuinely explore different trajectories.
        let success: Vec<u64> = reports.iter().map(|r| r.whisk_counters.success).collect();
        assert!(success[0] != success[1] || success[1] != success[2]);
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
