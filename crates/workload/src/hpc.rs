//! HPC job-stream generation calibrated to the paper's Fig. 2:
//! user-declared time limits (median 60 min, 95% of jobs declare at
//! least 15 min), actual runtimes, and the slack between them.
//!
//! Also provides the closed-loop driver that keeps a simulated cluster
//! at Prometheus-like >99% utilization by feeding a bounded backlog.

use cluster::JobSpec;
use simcore::dist::{LogNormal, Sample};
use simcore::{SimDuration, SimRng};

/// Distributions for one synthetic HPC job.
#[derive(Debug, Clone)]
pub struct HpcWorkloadModel {
    /// Declared limit (minutes): log-normal, median 60, 5th pctile 15.
    pub limit_mins: LogNormal,
    /// Hard bounds on the declared limit (minutes).
    pub limit_bounds: (f64, f64),
    /// Runtime as a fraction of the declared limit (log-normal, capped
    /// at 1); about this fraction of jobs run into their limit.
    pub runtime_frac: LogNormal,
    /// Probability a job hits its limit exactly (killed at timeout).
    pub timeout_prob: f64,
    /// Job sizes (nodes) with weights.
    pub sizes: Vec<(f64, u32)>,
}

impl HpcWorkloadModel {
    /// The Prometheus calibration (Fig. 2).
    pub fn prometheus() -> Self {
        HpcWorkloadModel {
            // median 60 min; P(limit < 15 min) = 5%  →  sigma =
            // ln(60/15)/1.645.
            limit_mins: LogNormal::from_median_and_quantile(60.0, 0.05, 15.0),
            limit_bounds: (2.0, 72.0 * 60.0),
            runtime_frac: LogNormal::new((0.30f64).ln(), 0.85),
            timeout_prob: 0.08,
            sizes: vec![
                (0.40, 1),
                (0.17, 2),
                (0.06, 3),
                (0.11, 4),
                (0.09, 8),
                (0.04, 12),
                (0.05, 16),
                (0.03, 24),
                (0.02, 32),
                (0.015, 48),
                (0.008, 64),
                (0.005, 128),
                (0.002, 256),
            ],
        }
    }

    /// Sample one job.
    pub fn sample_job(&self, rng: &mut SimRng) -> JobSpec {
        let limit_m = self
            .limit_mins
            .sample(rng)
            .clamp(self.limit_bounds.0, self.limit_bounds.1);
        let limit = SimDuration::from_mins_f64(limit_m);
        let runtime = if rng.chance(self.timeout_prob) {
            limit
        } else {
            let frac = self.runtime_frac.sample(rng).clamp(0.02, 0.995);
            SimDuration::from_mins_f64(limit_m * frac)
        };
        let nodes = self.sample_size(rng);
        JobSpec::hpc(nodes, limit, runtime)
    }

    fn sample_size(&self, rng: &mut SimRng) -> u32 {
        let tot: f64 = self.sizes.iter().map(|(w, _)| w).sum();
        let mut pick = rng.f64() * tot;
        for (w, k) in &self.sizes {
            if pick < *w {
                return *k;
            }
            pick -= w;
        }
        self.sizes.last().map(|(_, k)| *k).unwrap_or(1)
    }

    /// Mean job size in nodes (the tests' oracle).
    #[cfg(test)]
    pub fn mean_size(&self) -> f64 {
        let tot: f64 = self.sizes.iter().map(|(w, _)| w).sum();
        self.sizes.iter().map(|(w, k)| w * *k as f64).sum::<f64>() / tot
    }
}

/// Closed-loop backlog driver: keeps roughly `target_backlog_node_hours`
/// of pending work queued, so the scheduler always has material to
/// backfill with — the mechanism behind Prometheus' >99% utilization.
#[derive(Debug, Clone)]
pub struct BacklogDriver {
    /// The job distributions.
    pub model: HpcWorkloadModel,
    /// Pending-work target in node-hours.
    pub target_backlog_node_hours: f64,
    /// Max jobs submitted per replenishment tick (keeps queue depth
    /// bounded, like real submission-rate limits).
    pub max_jobs_per_tick: usize,
    /// Partition size: jobs wider than this are never generated (sbatch
    /// would reject them, and an infeasible head-of-queue job would
    /// deadlock the backlog).
    pub max_nodes: u32,
}

impl BacklogDriver {
    /// Default driver for a cluster of `n_nodes`.
    pub fn new(model: HpcWorkloadModel, n_nodes: usize) -> Self {
        BacklogDriver {
            model,
            // ~45 minutes of full-cluster work queued.
            target_backlog_node_hours: n_nodes as f64 * 0.75,
            max_jobs_per_tick: 50,
            max_nodes: n_nodes as u32,
        }
    }

    /// Jobs to submit now, given the current pending backlog
    /// (node-hours, computed from declared limits).
    pub fn replenish(&self, pending_node_hours: f64, rng: &mut SimRng) -> Vec<JobSpec> {
        let mut jobs = Vec::new();
        let mut backlog = pending_node_hours;
        while backlog < self.target_backlog_node_hours && jobs.len() < self.max_jobs_per_tick {
            let mut j = self.model.sample_job(rng);
            for _ in 0..16 {
                if j.nodes <= self.max_nodes {
                    break;
                }
                j = self.model.sample_job(rng);
            }
            if j.nodes > self.max_nodes {
                continue; // vanishingly unlikely; skip rather than wedge
            }
            backlog += j.nodes as f64 * j.time_limit.as_secs_f64() / 3600.0;
            jobs.push(j);
        }
        jobs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn limits_match_fig2_marginals() {
        let m = HpcWorkloadModel::prometheus();
        let mut rng = SimRng::seed_from_u64(1);
        let mut limits: Vec<f64> = (0..40_000)
            .map(|_| m.sample_job(&mut rng).time_limit.as_mins_f64())
            .collect();
        limits.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let med = limits[limits.len() / 2];
        assert!((50.0..=70.0).contains(&med), "median limit = {med} min");
        // "95% of jobs declare at least 15 minutes".
        let p05 = limits[limits.len() / 20];
        assert!((12.0..=20.0).contains(&p05), "5th pctile = {p05} min");
    }

    #[test]
    fn runtimes_below_limits_with_slack() {
        let m = HpcWorkloadModel::prometheus();
        let mut rng = SimRng::seed_from_u64(2);
        let mut timeouts = 0;
        let mut slack_mins = Vec::new();
        for _ in 0..20_000 {
            let j = m.sample_job(&mut rng);
            let rt = j.actual_runtime.unwrap();
            assert!(rt <= j.time_limit);
            if rt == j.time_limit {
                timeouts += 1;
            }
            slack_mins.push((j.time_limit - rt).as_mins_f64());
        }
        let to_frac = timeouts as f64 / 20_000.0;
        assert!(
            (0.05..=0.12).contains(&to_frac),
            "timeout share = {to_frac}"
        );
        slack_mins.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let med_slack = slack_mins[slack_mins.len() / 2];
        // Fig 2: substantial slack; median tens of minutes.
        assert!(
            (15.0..=60.0).contains(&med_slack),
            "median slack = {med_slack}"
        );
    }

    #[test]
    fn sizes_dominated_by_small_jobs() {
        let m = HpcWorkloadModel::prometheus();
        let mut rng = SimRng::seed_from_u64(3);
        let sizes: Vec<u32> = (0..20_000).map(|_| m.sample_job(&mut rng).nodes).collect();
        let single = sizes.iter().filter(|s| **s == 1).count() as f64 / 20_000.0;
        assert!((0.3..=0.5).contains(&single), "1-node share = {single}");
        assert!(sizes.iter().any(|s| *s >= 128), "large jobs exist");
        let mean = sizes.iter().map(|s| *s as f64).sum::<f64>() / 20_000.0;
        assert!((mean - m.mean_size()).abs() < 0.5);
    }

    #[test]
    fn backlog_driver_fills_to_target() {
        let m = HpcWorkloadModel::prometheus();
        let d = BacklogDriver::new(m, 100);
        let mut rng = SimRng::seed_from_u64(4);
        let jobs = d.replenish(0.0, &mut rng);
        assert!(!jobs.is_empty());
        let added: f64 = jobs
            .iter()
            .map(|j| j.nodes as f64 * j.time_limit.as_secs_f64() / 3600.0)
            .sum();
        assert!(added >= d.target_backlog_node_hours || jobs.len() == d.max_jobs_per_tick);
        // Near-full backlog: nothing to add.
        let none = d.replenish(d.target_backlog_node_hours + 1.0, &mut rng);
        assert!(none.is_empty());
    }

    #[test]
    fn backlog_driver_never_generates_infeasible_jobs() {
        let m = HpcWorkloadModel::prometheus();
        let d = BacklogDriver::new(m, 64); // tiny partition
        let mut rng = SimRng::seed_from_u64(5);
        for _ in 0..50 {
            for j in d.replenish(0.0, &mut rng) {
                assert!(j.nodes <= 64, "sbatch would reject a {}-node job", j.nodes);
            }
        }
    }
}
