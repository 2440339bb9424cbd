//! The HPC-Whisk job manager (§III-D): an external process that keeps
//! the Slurm queue supplied with pilot jobs, replenishing every 15
//! seconds and never exceeding 100 queued pilots ("so the jobs do not
//! introduce a significant load on the Slurm scheduler").

use cluster::{ClusterSim, JobSpec};
use gateway::LoadFeedback;
use simcore::SimDuration;

/// Total queued pilots never exceeds this (paper §III-D).
pub const QUEUE_CAP: usize = 100;

/// Replenishment cadence (paper: 15-second intervals).
pub const REPLENISH_EVERY: SimDuration = SimDuration::from_secs(15);

/// Slurm priority of a [`LoadSizedManager`]'s pilots.
const LOAD_SIZED_PRIORITY: u64 = 10;

/// A pilot-supply strategy, asked every [`REPLENISH_EVERY`] (`Send`: a
/// live lease source runs it on the controller's thread).
pub trait PilotManager: Send {
    /// Inspect the queue and decide this round's submissions and
    /// cancellations. `serving` counts the pilots holding nodes that
    /// have not been told to leave (warming or serving).
    fn plan(&mut self, cluster: &ClusterSim, serving: usize) -> PilotPlan;
    /// Fold one window of observed FaaS load in. Default: ignored (a
    /// manager that keeps a fixed bag of jobs has nothing to resize).
    fn observe(&mut self, _fb: &LoadFeedback) {}
    /// The invoker count the manager sizes its supply toward, if it
    /// sizes against load.
    fn target(&self) -> Option<usize> {
        None
    }
    /// Strategy name for reports.
    fn name(&self) -> &'static str;
}

/// What a [`PilotManager`] wants done with the pilot queue this round:
/// jobs to submit, pending victims to cancel.
#[derive(Debug, Default)]
pub struct PilotPlan {
    /// New pilots to submit.
    pub submit: Vec<JobSpec>,
    /// Pending pilots to cancel (shrink path; running pilots are left
    /// to their deadlines — the scheduler reclaims them anyway).
    pub cancel: Vec<cluster::JobId>,
}

/// Which pilot-supply strategy an experiment uses — the configuration
/// counterpart of [`PilotManager`] (cloneable, serializable-by-hand),
/// used by the day harness and the week-scale sweep driver.
#[derive(Debug, Clone)]
pub enum ManagerKind {
    /// Fixed lengths (minutes), e.g. set A1.
    Fib(Vec<u64>),
    /// Fixed lengths without the longest-first priority (ablation).
    FibUniform(Vec<u64>),
    /// Variable-length jobs (2–120 min).
    Var,
    /// Pilots of one length, as many as the observed load asks for
    /// ([`LoadSizedManager`]).
    LoadSized {
        /// Load-sizing tuning.
        sizer: SizerCfg,
        /// Declared pilot wall-time limit.
        pilot_len: SimDuration,
    },
}

impl ManagerKind {
    /// Instantiate the matching manager.
    pub fn make(&self) -> Box<dyn PilotManager> {
        match self {
            ManagerKind::Fib(lengths) => Box::new(FibManager::paper(lengths.clone())),
            ManagerKind::FibUniform(lengths) => {
                Box::new(FibManager::uniform_priority(lengths.clone()))
            }
            ManagerKind::Var => Box::new(VarManager::paper()),
            ManagerKind::LoadSized { sizer, pilot_len } => {
                Box::new(LoadSizedManager::new(*sizer, *pilot_len))
            }
        }
    }
}

/// The *fib* model: bags of fixed-length jobs, 10 of each length, with
/// longer jobs given higher priority so Slurm fills long idleness
/// periods greedily (§III-D).
#[derive(Debug, Clone)]
pub struct FibManager {
    /// Job lengths in minutes (e.g. set A1).
    pub lengths_mins: Vec<u64>,
    /// Target queued jobs per length (paper: 10).
    pub per_length: usize,
    /// Give longer jobs higher priority ("the higher the execution time,
    /// the higher the job's priority", §III-D). Disabling this is the
    /// ablation showing why greedy longest-first matters.
    pub longest_first: bool,
}

impl FibManager {
    /// The paper's configuration: set A1, 10 jobs per length.
    pub fn paper(lengths_mins: Vec<u64>) -> Self {
        FibManager {
            lengths_mins,
            per_length: 10,
            longest_first: true,
        }
    }

    /// Ablation variant: all lengths get equal priority.
    pub fn uniform_priority(lengths_mins: Vec<u64>) -> Self {
        FibManager {
            longest_first: false,
            ..Self::paper(lengths_mins)
        }
    }
}

impl PilotManager for FibManager {
    fn plan(&mut self, cluster: &ClusterSim, _serving: usize) -> PilotPlan {
        let pending = cluster.pending_pilots_by_limit();
        let total_pending: usize = pending.iter().map(|(_, n)| n).sum();
        let mut budget = QUEUE_CAP.saturating_sub(total_pending);
        let mut jobs = Vec::new();
        for &len in &self.lengths_mins {
            let have = pending
                .iter()
                .find(|(mins, _)| *mins == len)
                .map_or(0, |(_, n)| *n);
            let want = self.per_length.saturating_sub(have).min(budget);
            let priority = if self.longest_first { len } else { 1 };
            for _ in 0..want {
                jobs.push(JobSpec::pilot_fixed(SimDuration::from_mins(len), priority));
            }
            budget -= want;
            if budget == 0 {
                break;
            }
        }
        PilotPlan {
            submit: jobs,
            cancel: Vec::new(),
        }
    }

    fn name(&self) -> &'static str {
        "fib"
    }
}

/// The *var* model: 100 flexible jobs with `--time-min 2 --time 120`;
/// Slurm decides each job's actual duration at placement (§III-D).
#[derive(Debug, Clone)]
pub struct VarManager {
    /// Minimum duration (minutes; paper: 2 — one allocation slot).
    pub min_mins: u64,
    /// Maximum duration (minutes; paper: 120 — the backfill window).
    pub max_mins: u64,
    /// Target queue depth (paper: 100).
    pub target: usize,
}

impl VarManager {
    /// The paper's configuration.
    pub fn paper() -> Self {
        VarManager {
            min_mins: 2,
            max_mins: 120,
            target: QUEUE_CAP,
        }
    }
}

impl PilotManager for VarManager {
    fn plan(&mut self, cluster: &ClusterSim, _serving: usize) -> PilotPlan {
        let pending: usize = cluster
            .pending_pilots_by_limit()
            .iter()
            .map(|(_, n)| n)
            .sum();
        let want = self.target.min(QUEUE_CAP).saturating_sub(pending);
        let (min, max) = (self.min_mins, self.max_mins);
        let submit = (0..want)
            .map(|_| JobSpec::pilot_var(SimDuration::from_mins(min), SimDuration::from_mins(max)))
            .collect();
        PilotPlan {
            submit,
            cancel: Vec::new(),
        }
    }

    fn name(&self) -> &'static str {
        "var"
    }
}

/// Tuning for [`LoadSizedManager`].
#[derive(Debug, Clone, Copy)]
pub struct SizerCfg {
    /// Requests per second one invoker is expected to absorb (used to
    /// convert the observed arrival rate into an invoker target).
    pub rate_per_invoker: f64,
    /// Safety margin multiplied onto the load-implied target (1.2 =
    /// 20% spare capacity for arrival burstiness and warm-up lag).
    pub headroom: f64,
    /// Outstanding requests one invoker is allowed to have queued
    /// before the backlog term asks for another invoker.
    pub backlog_per_invoker: f64,
    /// Never target fewer invokers than this (the serving floor).
    pub min_invokers: usize,
    /// Never target more invokers than this (the paper's invasiveness
    /// cap: pilots must stay guests on the cluster).
    pub max_invokers: usize,
    /// EWMA smoothing factor per feedback window in `(0, 1]`; higher
    /// follows the load faster, lower rides out noise.
    pub alpha: f64,
}

impl Default for SizerCfg {
    fn default() -> Self {
        SizerCfg {
            rate_per_invoker: 100.0,
            headroom: 1.2,
            backlog_per_invoker: 32.0,
            min_invokers: 1,
            max_invokers: 16,
            alpha: 0.4,
        }
    }
}

/// The **closed-loop** pilot manager: sizes its pilot supply against
/// the *observed* FaaS load instead of keeping a fixed bag of jobs.
///
/// Each feedback window the serving plane reports arrivals, sheds and
/// queue depth ([`gateway::LoadFeedback`]); the manager folds the
/// arrival rate into an EWMA and converts it to an invoker target:
///
/// ```text
/// target = clamp( ceil(ewma_rate / rate_per_invoker * headroom
///                      + outstanding / backlog_per_invoker),
///                 min_invokers, max_invokers )
/// ```
///
/// Each round's [`plan`](PilotManager::plan) tops the pilot queue up to
/// `target − (serving + pending)` or cancels pending pilots when the
/// target shrank — running pilots are never killed by the manager (the
/// batch scheduler owns reclaims; shrinking by attrition keeps the
/// manager non-invasive, §II's guest discipline).
#[derive(Debug, Clone)]
pub struct LoadSizedManager {
    /// Tuning.
    pub cfg: SizerCfg,
    /// Declared pilot wall-time limit.
    pub pilot_len: SimDuration,
    ewma_rate: f64,
    outstanding: u64,
    /// Feedback windows folded in so far.
    windows: u64,
}

impl LoadSizedManager {
    /// A manager starting from a zero-load estimate.
    pub fn new(cfg: SizerCfg, pilot_len: SimDuration) -> Self {
        assert!(cfg.rate_per_invoker > 0.0);
        assert!(cfg.max_invokers >= cfg.min_invokers);
        assert!(cfg.alpha > 0.0 && cfg.alpha <= 1.0);
        LoadSizedManager {
            cfg,
            pilot_len,
            ewma_rate: 0.0,
            outstanding: 0,
            windows: 0,
        }
    }

    /// The invoker target implied by the current load estimate.
    fn sized_target(&self) -> usize {
        let demand = (self.ewma_rate / self.cfg.rate_per_invoker * self.cfg.headroom
            + self.outstanding as f64 / self.cfg.backlog_per_invoker)
            .ceil() as usize;
        demand.clamp(self.cfg.min_invokers, self.cfg.max_invokers)
    }
}

impl PilotManager for LoadSizedManager {
    fn plan(&mut self, cluster: &ClusterSim, serving: usize) -> PilotPlan {
        let pending_ids = cluster.pending_ids_matching(|j| j.spec.kind == cluster::JobKind::Pilot);
        let supply = serving + pending_ids.len();
        let target = self.sized_target();
        let mut plan = PilotPlan::default();
        if target > supply {
            let want = (target - supply).min(QUEUE_CAP.saturating_sub(pending_ids.len()));
            for _ in 0..want {
                plan.submit
                    .push(JobSpec::pilot_fixed(self.pilot_len, LOAD_SIZED_PRIORITY));
            }
        } else if supply > target {
            // Shrink by cancelling *pending* pilots only, newest first
            // (they would start last anyway).
            let excess = (supply - target).min(pending_ids.len());
            plan.cancel
                .extend(pending_ids.iter().rev().take(excess).copied());
        }
        plan
    }

    /// Fold one observed-load window into the rate estimate.
    fn observe(&mut self, fb: &LoadFeedback) {
        let rate = fb.arrival_rate();
        self.ewma_rate = if self.windows == 0 {
            rate
        } else {
            self.cfg.alpha * rate + (1.0 - self.cfg.alpha) * self.ewma_rate
        };
        self.outstanding = fb.outstanding;
        self.windows += 1;
    }

    fn target(&self) -> Option<usize> {
        Some(self.sized_target())
    }

    fn name(&self) -> &'static str {
        "load-sized"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lengths;
    use cluster::SlurmConfig;
    use simcore::{Outbox, SimTime};

    fn empty_cluster() -> ClusterSim {
        ClusterSim::new(SlurmConfig::default(), 1, 1)
    }

    #[test]
    fn fib_fills_ten_of_each_length() {
        let mut m = FibManager::paper(lengths::A1.to_vec());
        let jobs = m.plan(&empty_cluster(), 0).submit;
        assert_eq!(jobs.len(), 9 * 10);
        for len in lengths::A1 {
            let n = jobs
                .iter()
                .filter(|j| j.time_limit == SimDuration::from_mins(*len))
                .count();
            assert_eq!(n, 10, "length {len}");
        }
        // Longer lengths carry higher priority.
        let p90 = jobs
            .iter()
            .find(|j| j.time_limit == SimDuration::from_mins(90))
            .unwrap()
            .priority;
        let p2 = jobs
            .iter()
            .find(|j| j.time_limit == SimDuration::from_mins(2))
            .unwrap()
            .priority;
        assert!(p90 > p2);
    }

    #[test]
    fn fib_tops_up_only_missing_lengths() {
        // Simulate a queue that already holds pilots by submitting them
        // to a real cluster with no nodes (they stay pending forever).
        let mut cluster = ClusterSim::new(SlurmConfig::default(), 1, 1);
        let mut out = Outbox::new(SimTime::ZERO);
        for _ in 0..7 {
            cluster.submit(
                SimTime::ZERO,
                JobSpec::pilot_fixed(SimDuration::from_mins(90), 90),
                &mut out,
            );
        }
        let mut m = FibManager::paper(lengths::A1.to_vec());
        let jobs = m.plan(&cluster, 0).submit;
        let n90 = jobs
            .iter()
            .filter(|j| j.time_limit == SimDuration::from_mins(90))
            .count();
        assert_eq!(n90, 3, "tops 7 queued up to 10");
        assert_eq!(jobs.len(), 8 * 10 + 3);
    }

    #[test]
    fn fib_respects_global_cap() {
        // 95 pilots already queued: only 5 more may be created.
        let mut cluster = ClusterSim::new(SlurmConfig::default(), 1, 1);
        let mut out = Outbox::new(SimTime::ZERO);
        for _ in 0..95 {
            cluster.submit(
                SimTime::ZERO,
                JobSpec::pilot_fixed(SimDuration::from_mins(4), 4),
                &mut out,
            );
        }
        let mut m = FibManager::paper(lengths::A1.to_vec());
        let jobs = m.plan(&cluster, 0).submit;
        assert_eq!(jobs.len(), 5);
    }

    #[test]
    fn var_fills_to_one_hundred() {
        let mut m = VarManager::paper();
        let jobs = m.plan(&empty_cluster(), 0).submit;
        assert_eq!(jobs.len(), 100);
        for j in &jobs {
            assert_eq!(j.min_time, Some(SimDuration::from_mins(2)));
            assert_eq!(j.time_limit, SimDuration::from_mins(120));
        }
    }

    #[test]
    fn var_tops_up_deficit_only() {
        let mut cluster = ClusterSim::new(SlurmConfig::default(), 1, 1);
        let mut out = Outbox::new(SimTime::ZERO);
        for _ in 0..60 {
            cluster.submit(
                SimTime::ZERO,
                JobSpec::pilot_var(SimDuration::from_mins(2), SimDuration::from_mins(120)),
                &mut out,
            );
        }
        let mut m = VarManager::paper();
        assert_eq!(m.plan(&cluster, 0).submit.len(), 40);
    }

    #[test]
    fn names() {
        assert_eq!(FibManager::paper(vec![2]).name(), "fib");
        assert_eq!(VarManager::paper().name(), "var");
        assert_eq!(
            LoadSizedManager::new(SizerCfg::default(), SimDuration::from_mins(10)).name(),
            "load-sized"
        );
    }

    fn fb(window_s: u64, arrivals: u64, outstanding: u64) -> LoadFeedback {
        LoadFeedback {
            window: std::time::Duration::from_secs(window_s),
            arrivals,
            sheds: 0,
            outstanding,
            routable: 0,
        }
    }

    #[test]
    fn sizer_target_follows_observed_load() {
        let cfg = SizerCfg {
            rate_per_invoker: 100.0,
            headroom: 1.0,
            backlog_per_invoker: 1e12, // neutralize the backlog term
            min_invokers: 1,
            max_invokers: 8,
            alpha: 1.0, // no smoothing: target == last window
        };
        let mut m = LoadSizedManager::new(cfg, SimDuration::from_mins(10));
        assert_eq!(m.target(), Some(1), "no observations → floor");
        m.observe(&fb(1, 350, 0));
        assert_eq!(m.target(), Some(4), "350 req/s at 100/invoker → 4");
        m.observe(&fb(1, 2_000, 0));
        assert_eq!(m.target(), Some(8), "capped at max_invokers");
        m.observe(&fb(1, 0, 0));
        assert_eq!(m.target(), Some(1), "starved feedback → floor");
    }

    #[test]
    fn sizer_backlog_term_adds_capacity() {
        let cfg = SizerCfg {
            rate_per_invoker: 100.0,
            headroom: 1.0,
            backlog_per_invoker: 10.0,
            min_invokers: 1,
            max_invokers: 16,
            alpha: 1.0,
        };
        let mut m = LoadSizedManager::new(cfg, SimDuration::from_mins(10));
        m.observe(&fb(1, 100, 45));
        // 1 invoker of rate + ceil(45/10) of backlog pressure.
        assert_eq!(m.target(), Some(6));
    }

    #[test]
    fn plan_tops_up_then_shrinks_by_cancelling_pending() {
        let mut cluster = ClusterSim::new(SlurmConfig::default(), 1, 1);
        let mut out = Outbox::new(SimTime::ZERO);
        let cfg = SizerCfg {
            rate_per_invoker: 100.0,
            headroom: 1.0,
            backlog_per_invoker: 1e12,
            min_invokers: 1,
            max_invokers: 8,
            alpha: 1.0,
        };
        let mut m = LoadSizedManager::new(cfg, SimDuration::from_mins(10));
        m.observe(&fb(1, 500, 0));
        let p = m.plan(&cluster, 0);
        assert_eq!(p.submit.len(), 5);
        assert!(p.cancel.is_empty());
        // Queue them (no scheduler pass runs: they stay pending).
        for spec in p.submit {
            cluster.submit(SimTime::ZERO, spec, &mut out);
        }
        // Supply now matches the target: nothing to do.
        let p = m.plan(&cluster, 0);
        assert!(p.submit.is_empty() && p.cancel.is_empty());
        // Load vanishes: the plan cancels pending pilots down to the
        // floor, newest first.
        m.observe(&fb(1, 0, 0));
        let p = m.plan(&cluster, 0);
        assert!(p.submit.is_empty());
        assert_eq!(p.cancel.len(), 4, "5 pending − floor 1");
        for id in &p.cancel {
            assert!(cluster.cancel_pending(SimTime::ZERO, *id));
        }
        assert_eq!(
            cluster.pending_ids_matching(|j| j.spec.kind == cluster::JobKind::Pilot),
            vec![cluster::JobId(0)],
            "the oldest pilot survives"
        );
    }
}
