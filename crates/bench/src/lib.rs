//! # hpcwhisk-bench
//!
//! Three binaries and the utilities they share. `paper` regenerates
//! every table and figure of the paper's evaluation and the DES studies
//! beside it (its rows are the experiment index): each row prints the
//! paper-shaped artifact, then a paper-vs-measured comparison whose
//! structural checks decide the exit code. `live` runs the gateway
//! scenarios and `perf_trajectory` the micro-probes.
//!
//! `paper` and `live` accept `--quick` to run a scaled-down
//! configuration (fewer nodes / shorter horizon) for smoke testing.

#![forbid(unsafe_code)]

use cluster::{
    ClusterEvent, ClusterNote, ClusterSim, JobId, JobKind, JobSpec, NodeId, SlurmConfig,
};
use hpcwhisk_core::{lengths, FibManager, PilotManager};
use metrics::outcome::Violation;
use metrics::{Outcome, Table, Tally};
use simcore::{Outbox, SimDuration, SimTime};

/// A paper-vs-measured comparison accumulator.
#[derive(Debug, Default)]
pub struct Comparison {
    rows: Vec<(String, String, String)>,
}

impl Comparison {
    /// Empty comparison.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a numeric row; the rendering includes the measured/paper
    /// ratio so shape deviations are visible at a glance.
    pub fn add(&mut self, label: &str, paper: f64, measured: f64) -> &mut Self {
        let ratio = if paper.abs() > 1e-12 {
            format!("{:.2}", measured / paper)
        } else {
            "-".to_string()
        };
        self.rows.push((
            label.to_string(),
            format!("{paper:.2}"),
            format!("{measured:.2} (x{ratio})"),
        ));
        self
    }

    /// Add a free-form row.
    pub fn add_str(&mut self, label: &str, paper: &str, measured: &str) -> &mut Self {
        self.rows
            .push((label.to_string(), paper.to_string(), measured.to_string()));
        self
    }

    /// Render the comparison table.
    pub fn render(&self) -> String {
        let mut t = Table::new(&["Metric", "Paper", "Measured"]);
        for (l, p, m) in &self.rows {
            t.row(&[l.clone(), p.clone(), m.clone()]);
        }
        t.render()
    }
}

/// Cores this process may run on — printed or recorded beside every
/// reading that depends on threads.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The DES's own work over one or more simulated days: events the
/// engine dispatched and, of those, the platform's poll and timeout-scan
/// events, beside the scheduler's counters (its passes run and skipped
/// among them) — the counts to read next to a day's wall-clock — and
/// the requests the days served, by outcome, with what each day's
/// books broke.
#[derive(Debug, Clone, Default)]
pub struct DesWork {
    /// `DayReport::events_dispatched`, summed.
    pub events_dispatched: u64,
    /// `WhiskCounters::polls`, summed.
    pub polls: u64,
    /// `WhiskCounters::polls_parked`, summed.
    pub polls_parked: u64,
    /// `WhiskCounters::timeout_scans`, summed.
    pub timeout_scans: u64,
    /// Days counted in.
    pub days: u64,
    /// `DayReport::tally`, summed.
    pub requests: Tally,
    /// What `DayReport::books` found, day by day.
    pub books: Vec<Violation>,
    /// `DayReport::cluster_counters`, summed.
    pub scheduler: cluster::Counters,
}

impl DesWork {
    /// One day's work.
    pub fn of(rep: &hpcwhisk_core::DayReport) -> Self {
        let w = &rep.whisk_counters;
        DesWork {
            events_dispatched: rep.events_dispatched,
            polls: w.polls,
            polls_parked: w.polls_parked,
            timeout_scans: w.timeout_scans,
            days: 1,
            requests: rep.tally(),
            books: rep.books().err().unwrap_or_default(),
            scheduler: rep.cluster_counters.clone(),
        }
    }

    /// Fold `other`'s counts in.
    pub fn absorb(&mut self, other: &DesWork) {
        self.events_dispatched += other.events_dispatched;
        self.polls += other.polls;
        self.polls_parked += other.polls_parked;
        self.timeout_scans += other.timeout_scans;
        self.days += other.days;
        self.requests.absorb(&other.requests);
        self.books.extend(other.books.iter().cloned());
        self.scheduler.absorb(&other.scheduler);
    }

    /// The one-line summary the `paper` rows that run days print.
    pub fn summary(&self) -> String {
        let c = &self.scheduler;
        format!(
            "DES work: {} events dispatched, of which {} invoker polls ({} parked their loop) \
             and {} timeout scans; quick passes {} run + {} skipped, backfill passes {} run + {} \
             skipped",
            self.events_dispatched,
            self.polls,
            self.polls_parked,
            self.timeout_scans,
            c.quick_passes - c.quick_passes_skipped,
            c.quick_passes_skipped,
            c.backfill_passes - c.backfill_passes_skipped,
            c.backfill_passes_skipped
        )
    }
}

/// Render `work` as Prometheus text through a one-shot telemetry
/// registry — the scheduler plane's pass and job counters, the DES
/// work counters and `des_requests_total{outcome}`, the simulator's
/// equivalent of scraping the gateway's live registry (its
/// `gateway_requests_total` carries the same outcome labels).
pub fn scheduler_exposition(work: &DesWork) -> String {
    use metrics::telemetry::{labels, render_prometheus, Collected, Labels, MetricKind, Registry};
    let c = &work.scheduler;
    let reg = Registry::new();
    let counter = |name: &str, help: &str, rows: Vec<(Labels, u64)>| {
        let collect = move || {
            rows.iter()
                .map(|(l, v)| (l.clone(), Collected::Counter(*v)))
                .collect::<Vec<_>>()
        };
        reg.register(name, help, MetricKind::Counter, Box::new(collect));
    };
    counter(
        "scheduler_passes_total",
        "scheduling passes due by mode; the *_skipped modes count those of them not run \
         because the queue was settled",
        vec![
            (labels(&[("mode", "quick")]), c.quick_passes),
            (labels(&[("mode", "quick_skipped")]), c.quick_passes_skipped),
            (labels(&[("mode", "backfill")]), c.backfill_passes),
            (
                labels(&[("mode", "backfill_skipped")]),
                c.backfill_passes_skipped,
            ),
        ],
    );
    counter(
        "scheduler_jobs_total",
        "job lifecycle events by kind",
        vec![
            (
                labels(&[("kind", "hpc"), ("event", "started")]),
                c.hpc_started,
            ),
            (
                labels(&[("kind", "hpc"), ("event", "completed")]),
                c.hpc_completed,
            ),
            (
                labels(&[("kind", "pilot"), ("event", "started")]),
                c.pilots_started,
            ),
            (
                labels(&[("kind", "pilot"), ("event", "preempted")]),
                c.pilots_preempted,
            ),
            (
                labels(&[("kind", "pilot"), ("event", "timed_out")]),
                c.pilots_timed_out,
            ),
            (
                labels(&[("kind", "pilot"), ("event", "node_failed")]),
                c.pilots_node_failed,
            ),
        ],
    );
    counter(
        "scheduler_reservations_total",
        "future-start reservations created",
        vec![(labels(&[]), c.reservations_made)],
    );
    counter(
        "scheduler_pass_placements_total",
        "starts plus reservations made by passes",
        vec![(labels(&[]), c.pass_placements)],
    );
    counter(
        "scheduler_wheel_nodes_reprojected_total",
        "nodes re-masked by the residue-wheel sweep (crossing-proportional witness)",
        vec![(labels(&[]), c.wheel_nodes_reprojected)],
    );
    counter(
        "des_events_dispatched_total",
        "events the DES engine dispatched",
        vec![(labels(&[]), work.events_dispatched)],
    );
    counter(
        "des_whisk_events_total",
        "platform housekeeping events executed, and poll loops parked",
        vec![
            (labels(&[("kind", "poll")]), work.polls),
            (labels(&[("kind", "poll_parked")]), work.polls_parked),
            (labels(&[("kind", "timeout_scan")]), work.timeout_scans),
        ],
    );
    counter(
        "des_requests_total",
        "client requests of the simulated days by outcome",
        Outcome::ALL
            .map(|o| (labels(&[("outcome", o.label())]), work.requests[o]))
            .into(),
    );
    render_prometheus(&reg.snapshot())
}

/// The scheduler fixture of `perf_trajectory`'s `scheduler/` rows: a
/// 2,239-node cluster, ~95% occupied by pinned demand, with a
/// full fib pilot queue pending.
pub fn loaded_cluster() -> ClusterSim {
    let mut sim = ClusterSim::new(SlurmConfig::default(), 2_239, 1);
    let mut out = Outbox::new(SimTime::ZERO);
    let mut notes = Vec::new();
    let (zero, hours) = (SimTime::ZERO, SimDuration::from_hours);
    for n in 0..2_128u32 {
        let spec = JobSpec::pinned_demand(vec![NodeId(n)], zero, zero, hours(8), hours(7));
        sim.force_start(zero, spec, &mut out, &mut notes);
    }
    for spec in FibManager::paper(lengths::A1.to_vec()).plan(&sim, 0).submit {
        sim.submit(zero, spec, &mut out);
    }
    sim
}

/// A cluster, the pilots it runs, and its clock.
pub type WarmCluster = (ClusterSim, Vec<JobId>, SimTime);

/// [`loaded_cluster`] after one full backfill pass — the persistent
/// scheduling plane materialized, the pilot queue placed — and the
/// pilots that pass started: the steady state later passes run from.
pub fn warmed_cluster() -> WarmCluster {
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

/// `steps` consecutive steady-state passes, 2 s apart, each after
/// `churn` pilots retire and as many are resubmitted — the
/// churn-proportional cost of re-anchor, event apply and placement
/// (60 steps make one 2-minute residue lap). With churn every pass is a
/// real one (a retired pilot's idle node unsettles the queue); without,
/// every pass is skipped. The routine asserts which.
pub fn steady_passes(
    ev: ClusterEvent,
    churn: usize,
    steps: usize,
) -> impl FnMut(&mut WarmCluster) -> usize {
    move |(sim, running, t): &mut WarmCluster| {
        let skipped_before = sim.counters().passes_skipped();
        let mut total = 0usize;
        for _ in 0..steps {
            *t += SimDuration::from_secs(2);
            let t = *t;
            let mut out = Outbox::new(t);
            let mut notes = Vec::new();
            for _ in 0..churn {
                if let Some(id) = running.pop() {
                    sim.pilot_exited(t, id, &mut out, &mut notes);
                }
            }
            for _ in 0..churn {
                sim.submit(
                    t,
                    JobSpec::pilot_fixed(SimDuration::from_mins(30), 30),
                    &mut out,
                );
            }
            notes.clear();
            sim.handle(t, ev.clone(), &mut out, &mut notes);
            for n in &notes {
                if let ClusterNote::JobStarted { job, .. } = n {
                    if sim.job(*job).spec.kind == JobKind::Pilot {
                        running.push(*job);
                    }
                }
            }
            total += notes.len();
        }
        assert_eq!(
            sim.counters().passes_skipped() - skipped_before,
            if churn > 0 { 0 } else { steps as u64 },
            "passes skipped at churn {churn}"
        );
        total
    }
}

/// Print a section header.
pub fn section(title: &str) {
    println!("\n=== {title} ===\n");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_renders_ratio() {
        let mut c = Comparison::new();
        c.add("coverage %", 90.0, 87.3);
        c.add_str("who wins", "fib", "fib");
        let s = c.render();
        assert!(s.contains("coverage %"));
        assert!(s.contains("87.30 (x0.97)"));
        assert!(s.contains("fib"));
    }

    #[test]
    fn comparison_handles_zero_paper_value() {
        let mut c = Comparison::new();
        c.add("zero", 0.0, 1.0);
        assert!(c.render().contains("-"));
    }
}
