//! Pilot ⇄ invoker lifecycle glue (§III-A): tracks each pilot job from
//! Slurm start through invoker warm-up, serving, drain and exit, and
//! maintains the warming-worker series and per-invoker ready lifetimes
//! that Tables II/III report.

use cluster::JobId;
use metrics::{Cdf, StepSeries};
use simcore::dist::{LogNormal, Sample};
use simcore::{SimDuration, SimRng, SimTime};
use std::collections::HashMap;

/// Where a pilot is in its life.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PilotPhase {
    /// Slurm started the job; the OpenWhisk invoker is booting.
    Warming,
    /// The invoker is registered and healthy.
    Serving,
    /// SIGTERM received; hand-off in progress.
    Draining,
    /// The job left the cluster.
    Gone,
}

/// The invoker warm-up time model, from the paper's measurement
/// (§IV-B): median 12.48 s, 95th percentile 26.50 s.
#[derive(Debug, Clone)]
pub struct WarmupModel {
    /// `None`: invokers boot instantly.
    dist: Option<LogNormal>,
}

impl Default for WarmupModel {
    fn default() -> Self {
        WarmupModel {
            dist: Some(LogNormal::from_median_and_quantile(12.48, 0.95, 26.50)),
        }
    }
}

impl WarmupModel {
    /// Invokers that boot instantly, drawing nothing from the RNG — for
    /// runs whose subject is not the warm-up.
    pub fn instant() -> Self {
        WarmupModel { dist: None }
    }

    /// Sample one warm-up duration.
    pub fn sample(&self, rng: &mut SimRng) -> SimDuration {
        match &self.dist {
            Some(d) => SimDuration::from_secs_f64(d.sample(rng).clamp(3.0, 120.0)),
            None => SimDuration::ZERO,
        }
    }
}

/// Lifecycle table for all pilots of one experiment.
#[derive(Debug)]
pub struct PilotTable {
    phase: HashMap<JobId, PilotPhase>,
    serve_since: HashMap<JobId, SimTime>,
    /// Ready (serving) duration per invoker, minutes.
    pub serve_lifetimes_mins: Cdf,
    /// Number of pilots in the warming phase over time.
    pub warming_series: StepSeries,
    n_warming: i64,
    n_serving: usize,
}

impl PilotTable {
    /// An empty table anchored at `start`.
    pub fn new(start: SimTime) -> Self {
        PilotTable {
            phase: HashMap::new(),
            serve_since: HashMap::new(),
            serve_lifetimes_mins: Cdf::new(),
            warming_series: StepSeries::new(start, 0.0),
            n_warming: 0,
            n_serving: 0,
        }
    }

    /// Current phase (None if unknown).
    pub fn phase(&self, job: JobId) -> Option<PilotPhase> {
        self.phase.get(&job).copied()
    }

    /// Pilot job started on a node: warming begins.
    pub fn on_started(&mut self, now: SimTime, job: JobId) {
        let prev = self.phase.insert(job, PilotPhase::Warming);
        debug_assert!(prev.is_none(), "pilot {job} started twice");
        self.n_warming += 1;
        self.warming_series.set(now, self.n_warming as f64);
    }

    /// The invoker registered as healthy.
    pub fn on_serving(&mut self, now: SimTime, job: JobId) {
        let prev = self.phase.insert(job, PilotPhase::Serving);
        if prev == Some(PilotPhase::Warming) {
            self.n_warming -= 1;
            self.warming_series.set(now, self.n_warming as f64);
        }
        if prev != Some(PilotPhase::Serving) {
            self.n_serving += 1;
        }
        self.serve_since.insert(job, now);
    }

    /// SIGTERM reached the pilot.
    pub fn on_draining(&mut self, now: SimTime, job: JobId) {
        match self.phase.insert(job, PilotPhase::Draining) {
            Some(PilotPhase::Warming) => {
                self.n_warming -= 1;
                self.warming_series.set(now, self.n_warming as f64);
            }
            Some(PilotPhase::Serving) => {
                self.n_serving -= 1;
                if let Some(since) = self.serve_since.remove(&job) {
                    self.serve_lifetimes_mins
                        .add(now.since(since).as_mins_f64());
                }
            }
            _ => {}
        }
    }

    /// The pilot left the cluster.
    pub fn on_gone(&mut self, now: SimTime, job: JobId) {
        match self.phase.insert(job, PilotPhase::Gone) {
            Some(PilotPhase::Warming) => {
                self.n_warming -= 1;
                self.warming_series.set(now, self.n_warming as f64);
            }
            Some(PilotPhase::Serving) => {
                self.n_serving -= 1;
                // Hard death while serving (node failure): close the
                // lifetime here.
                if let Some(since) = self.serve_since.remove(&job) {
                    self.serve_lifetimes_mins
                        .add(now.since(since).as_mins_f64());
                }
            }
            _ => {}
        }
    }

    /// Number of pilots warming or serving: on a node and not yet told
    /// to leave.
    pub fn n_live(&self) -> usize {
        self.n_warming as usize + self.n_serving
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn warmup_model_matches_measured_quantiles() {
        let m = WarmupModel::default();
        let mut rng = SimRng::seed_from_u64(1);
        let mut xs: Vec<f64> = (0..20_000)
            .map(|_| m.sample(&mut rng).as_secs_f64())
            .collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let med = xs[xs.len() / 2];
        assert!((11.0..=14.0).contains(&med), "median warm-up = {med}");
        let p95 = xs[xs.len() * 95 / 100];
        assert!((23.0..=30.0).contains(&p95), "p95 warm-up = {p95}");
    }

    #[test]
    fn normal_lifecycle_records_lifetime() {
        let mut t = PilotTable::new(SimTime::ZERO);
        let j = JobId(1);
        t.on_started(secs(0), j);
        assert_eq!(t.phase(j), Some(PilotPhase::Warming));
        assert_eq!(t.n_live(), 1);
        t.on_serving(secs(12), j);
        assert_eq!(t.warming_series.value_at(secs(12)), 0.0);
        assert_eq!(t.n_live(), 1);
        t.on_draining(secs(612), j);
        assert_eq!(t.n_live(), 0);
        t.on_gone(secs(615), j);
        assert_eq!(t.phase(j), Some(PilotPhase::Gone));
        assert_eq!(t.serve_lifetimes_mins.len(), 1);
        assert!((t.serve_lifetimes_mins.mean() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn sigterm_during_warmup_records_no_lifetime() {
        let mut t = PilotTable::new(SimTime::ZERO);
        let j = JobId(2);
        t.on_started(secs(0), j);
        t.on_draining(secs(5), j);
        t.on_gone(secs(6), j);
        assert_eq!(t.serve_lifetimes_mins.len(), 0);
        assert_eq!(t.n_live(), 0);
    }

    #[test]
    fn hard_death_while_serving_closes_lifetime() {
        let mut t = PilotTable::new(SimTime::ZERO);
        let j = JobId(3);
        t.on_started(secs(0), j);
        t.on_serving(secs(10), j);
        t.on_gone(secs(70), j); // node failure: no drain phase
        assert_eq!(t.serve_lifetimes_mins.len(), 1);
        assert!((t.serve_lifetimes_mins.mean() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn warming_series_tracks_concurrency() {
        let mut t = PilotTable::new(SimTime::ZERO);
        t.on_started(secs(0), JobId(1));
        t.on_started(secs(1), JobId(2));
        assert_eq!(t.warming_series.value_at(secs(1)), 2.0);
        t.on_serving(secs(10), JobId(1));
        assert_eq!(t.warming_series.value_at(secs(10)), 1.0);
        t.on_serving(secs(14), JobId(2));
        assert_eq!(t.warming_series.value_at(secs(14)), 0.0);
    }
}
