//! Job specifications and lifecycle state.

use crate::ids::{NodeId, NodeList};
use simcore::{SimDuration, SimTime};

/// What kind of job this is, determining its scheduling treatment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobKind {
    /// A prime HPC job: priority tier ≥ 1, never preempted.
    Hpc,
    /// An HPC-Whisk pilot job: tier 0, preemptible, single node.
    Pilot,
}

/// A job submission, as `sbatch` would see it.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Prime HPC job or HPC-Whisk pilot.
    pub kind: JobKind,
    /// Number of nodes requested.
    pub nodes: u32,
    /// Declared time limit (`--time`).
    pub time_limit: SimDuration,
    /// Minimum acceptable time for variable-length jobs (`--time-min`).
    /// When set, the scheduler may grant any duration in
    /// `[min_time, time_limit]`, chosen at placement (the paper's *var*
    /// model).
    pub min_time: Option<SimDuration>,
    /// The job's real running time, unknown to the scheduler. `None`
    /// means the job runs until its (granted) limit — pilots do this.
    pub actual_runtime: Option<SimDuration>,
    /// Priority tier (partition `PriorityTier`): pilots 0, HPC ≥ 1.
    /// Jobs of a lower tier never delay a higher tier.
    pub priority_tier: u8,
    /// Priority within the tier; higher runs first. The *fib* manager
    /// maps job length to priority so longer pilots are placed first.
    pub priority: u64,
    /// Whether the scheduler may cancel this job to free resources
    /// (`PreemptMode=CANCEL`). True for pilots.
    pub preemptible: bool,
    /// Trace-driven mode: the job must run exactly on these nodes
    /// (models exogenous prime demand claiming specific nodes).
    pub pinned_nodes: Option<NodeList>,
    /// Trace-driven mode: earliest start (the demand's intended claim
    /// time); the scheduler will not start the job before it.
    pub earliest_start: Option<SimTime>,
    /// Trace-driven mode: the start time the *scheduler believes* (its
    /// backfill reservation), `>= earliest_start`. Running jobs declare
    /// limits longer than their runtimes (Fig. 2 slack), so Slurm's
    /// reservations sit later than reality; pilots sized against the
    /// announced start overhang the real claim and get preempted — the
    /// central uncertainty HPC-Whisk absorbs.
    pub announced_start: Option<SimTime>,
}

impl JobSpec {
    /// A standard HPC job.
    pub fn hpc(nodes: u32, time_limit: SimDuration, actual_runtime: SimDuration) -> Self {
        JobSpec {
            kind: JobKind::Hpc,
            nodes,
            time_limit,
            min_time: None,
            actual_runtime: Some(actual_runtime.min(time_limit)),
            priority_tier: 1,
            priority: 0,
            preemptible: false,
            pinned_nodes: None,
            earliest_start: None,
            announced_start: None,
        }
    }

    /// A fixed-length pilot job (the *fib* model).
    pub fn pilot_fixed(time_limit: SimDuration, priority: u64) -> Self {
        JobSpec {
            kind: JobKind::Pilot,
            nodes: 1,
            time_limit,
            min_time: None,
            actual_runtime: None,
            priority_tier: 0,
            priority,
            preemptible: true,
            pinned_nodes: None,
            earliest_start: None,
            announced_start: None,
        }
    }

    /// A variable-length pilot job (the *var* model):
    /// `--time-min min_time --time max_time`.
    pub fn pilot_var(min_time: SimDuration, max_time: SimDuration) -> Self {
        assert!(min_time <= max_time);
        JobSpec {
            kind: JobKind::Pilot,
            nodes: 1,
            time_limit: max_time,
            min_time: Some(min_time),
            actual_runtime: None,
            priority_tier: 0,
            priority: 0,
            preemptible: true,
            pinned_nodes: None,
            earliest_start: None,
            announced_start: None,
        }
    }

    /// A trace-driven prime-demand claim pinned to specific nodes.
    /// `announced` is where the scheduler believes the claim starts
    /// (`>= start`); pilots are sized against it.
    pub fn pinned_demand(
        nodes: Vec<NodeId>,
        start: SimTime,
        announced: SimTime,
        time_limit: SimDuration,
        actual_runtime: SimDuration,
    ) -> Self {
        JobSpec {
            kind: JobKind::Hpc,
            nodes: nodes.len() as u32,
            time_limit,
            min_time: None,
            actual_runtime: Some(actual_runtime.min(time_limit)),
            priority_tier: 1,
            priority: 0,
            preemptible: false,
            pinned_nodes: Some(nodes.into()),
            earliest_start: Some(start),
            announced_start: Some(announced.max(start)),
        }
    }
}

/// Why a job left the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobOutcome {
    /// Ran to (actual) completion.
    Completed,
    /// Reached its granted time limit and was killed (pilots exiting via
    /// drain report `Completed` through [`crate::ClusterSim::pilot_exited`]).
    TimedOut,
    /// Preempted by a higher-tier job and cancelled.
    Preempted,
    /// Cancelled while pending or running.
    Cancelled,
    /// Lost to a node failure.
    NodeFailed,
}

/// Lifecycle state of a job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobState {
    /// Waiting in the queue.
    Pending,
    /// Allocated and executing.
    Running {
        /// When it started.
        start: SimTime,
        /// Scheduler-granted end (start + granted duration).
        granted_end: SimTime,
        /// Allocated nodes.
        nodes: NodeList,
    },
    /// Received SIGTERM; will be SIGKILLed at `kill_at` unless it exits
    /// first.
    Draining {
        /// When it started running.
        start: SimTime,
        /// SIGKILL deadline.
        kill_at: SimTime,
        /// Allocated nodes.
        nodes: NodeList,
        /// What the eventual outcome will be recorded as.
        outcome: JobOutcome,
    },
    /// Terminal.
    Done {
        /// Why it ended.
        outcome: JobOutcome,
        /// When it ended.
        at: SimTime,
    },
}

/// A job record inside the simulator.
#[derive(Debug, Clone)]
pub struct Job {
    /// The submission.
    pub spec: JobSpec,
    /// Submission time.
    pub submitted: SimTime,
    /// Current lifecycle state.
    pub state: JobState,
    /// Scheduler-granted duration (for var-length jobs, decided at
    /// placement; otherwise the declared limit).
    pub granted: SimDuration,
}

impl Job {
    /// Nodes currently held (running or draining).
    pub fn held_nodes(&self) -> &[NodeId] {
        match &self.state {
            JobState::Running { nodes, .. } | JobState::Draining { nodes, .. } => nodes,
            _ => &[],
        }
    }

    /// True while the job occupies nodes.
    pub fn is_active(&self) -> bool {
        matches!(
            self.state,
            JobState::Running { .. } | JobState::Draining { .. }
        )
    }

    /// True iff still queued.
    pub fn is_pending(&self) -> bool {
        matches!(self.state, JobState::Pending)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hpc_spec_clamps_runtime_to_limit() {
        let s = JobSpec::hpc(4, SimDuration::from_mins(10), SimDuration::from_mins(60));
        assert_eq!(s.actual_runtime, Some(SimDuration::from_mins(10)));
        assert_eq!(s.priority_tier, 1);
        assert!(!s.preemptible);
    }

    #[test]
    fn pilot_fixed_shape() {
        let s = JobSpec::pilot_fixed(SimDuration::from_mins(90), 90);
        assert_eq!(s.kind, JobKind::Pilot);
        assert_eq!(s.nodes, 1);
        assert_eq!(s.priority_tier, 0);
        assert!(s.preemptible);
        assert!(s.actual_runtime.is_none());
    }

    #[test]
    fn pilot_var_bounds() {
        let s = JobSpec::pilot_var(SimDuration::from_mins(2), SimDuration::from_mins(120));
        assert_eq!(s.min_time, Some(SimDuration::from_mins(2)));
        assert_eq!(s.time_limit, SimDuration::from_mins(120));
    }

    #[test]
    #[should_panic]
    fn pilot_var_rejects_inverted_bounds() {
        JobSpec::pilot_var(SimDuration::from_mins(10), SimDuration::from_mins(5));
    }

    #[test]
    fn job_state_accessors() {
        let spec = JobSpec::pilot_fixed(SimDuration::from_mins(2), 2);
        let mut j = Job {
            spec,
            submitted: SimTime::ZERO,
            state: JobState::Pending,
            granted: SimDuration::from_mins(2),
        };
        assert!(j.is_pending());
        assert!(!j.is_active());
        assert!(j.held_nodes().is_empty());
        j.state = JobState::Running {
            start: SimTime::from_secs(5),
            granted_end: SimTime::from_secs(125),
            nodes: NodeList::single(NodeId(3)),
        };
        assert!(j.is_active());
        assert_eq!(j.held_nodes(), &[NodeId(3)]);
    }
}
