//! Cluster event and notification types.
//!
//! [`ClusterEvent`]s drive the simulator's internal timing (scheduler
//! passes, job completions, grace deadlines). [`ClusterNote`]s are
//! *effects* surfaced to the composition layer (the HPC-Whisk harness),
//! which reacts by booting/draining OpenWhisk invokers and feeds the
//! poll log into coverage accounting.

use crate::ids::{JobId, NodeId, NodeList};
use crate::job::JobOutcome;
use simcore::SimTime;

/// Internal timing events of the cluster simulator.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterEvent {
    /// A quick scheduling pass (event-driven builtin scheduler).
    QuickPass,
    /// A full backfill pass.
    BackfillPass,
    /// A job's actual runtime elapsed.
    JobFinished(JobId),
    /// A job reached its granted time limit.
    TimeLimit(JobId),
    /// SIGKILL deadline for a draining job.
    GraceExpired(JobId),
    /// The 10-second node-state poller fires.
    Poll,
    /// A node fails / enters maintenance.
    NodeDown(NodeId),
    /// A node returns to service.
    NodeUp(NodeId),
}

/// Why a job received SIGTERM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SigtermReason {
    /// Preempted by a higher-tier job.
    Preempted,
    /// Granted time limit reached.
    TimeLimit,
}

/// One sample of the node-state poller (§IV-A Slurm-level perspective):
/// how many nodes were idle and how many ran pilot jobs at `t`. Which
/// nodes they were goes into the availability trace the simulator
/// builds as it samples ([`crate::ClusterSim::into_parts`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PollSample {
    /// Sample timestamp.
    pub t: SimTime,
    /// Number of idle nodes.
    pub idle: u32,
    /// Number of nodes running HPC-Whisk pilots.
    pub pilot: u32,
}

// A day keeps ~8,600 of these; two words each.
const _: () = assert!(std::mem::size_of::<PollSample>() <= 16);

impl PollSample {
    /// Number of idle nodes in the sample.
    pub fn n_idle(&self) -> u32 {
        self.idle
    }
    /// Number of pilot nodes in the sample.
    pub fn n_pilot(&self) -> u32 {
        self.pilot
    }
}

/// Effects surfaced to the composition layer.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterNote {
    /// A job started on `nodes`; pilots trigger invoker boot.
    JobStarted {
        /// The job.
        job: JobId,
        /// Allocated nodes.
        nodes: NodeList,
        /// Scheduler-granted end time.
        granted_end: SimTime,
    },
    /// SIGTERM delivered; the job has until `kill_at` to exit. Pilots
    /// begin the invoker drain protocol here.
    JobSigterm {
        /// The job.
        job: JobId,
        /// Why.
        reason: SigtermReason,
        /// SIGKILL deadline.
        kill_at: SimTime,
    },
    /// The job left the cluster; its nodes are free.
    JobEnded {
        /// The job.
        job: JobId,
        /// Why it ended.
        outcome: JobOutcome,
    },
    /// A poller sample was taken.
    Polled(PollSample),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClusterSim, JobSpec, SlurmConfig};
    use simcore::{Engine, Outbox, SimDuration};

    #[test]
    fn polled_counts_equal_bitset_popcounts() {
        // 70 nodes (two bitset words), pilots and HPC jobs coming and
        // going for half an hour: every sample's counts are the
        // popcounts of the sets the poll read at that instant.
        let mut sim = ClusterSim::new(SlurmConfig::default(), 70, 3);
        let mut engine: Engine<ClusterEvent> = Engine::new();
        let mut boot = Outbox::new(SimTime::ZERO);
        sim.bootstrap(SimTime::ZERO, &mut boot);
        for i in 0..40 {
            sim.submit(
                SimTime::ZERO,
                JobSpec::pilot_fixed(SimDuration::from_mins(2 + i % 7), i),
                &mut boot,
            );
        }
        for i in 0..6 {
            let limit = SimDuration::from_mins(5 + 3 * i);
            sim.submit(SimTime::ZERO, JobSpec::hpc(8, limit, limit), &mut boot);
        }
        for (t, e) in boot.drain() {
            engine.schedule(t, e);
        }
        let (mut polls, mut with_pilots) = (0, 0);
        engine.run_until(SimTime::from_mins(30), &mut |now: SimTime,
                                                       ev: ClusterEvent,
                                                       out: &mut Outbox<
            ClusterEvent,
        >| {
            let mut notes = Vec::new();
            sim.handle(now, ev, out, &mut notes);
            for note in notes {
                if let ClusterNote::Polled(s) = note {
                    let (idle, pilot) = sim.poll_bits();
                    let ones = |bits: &[u64]| bits.iter().map(|w| w.count_ones()).sum::<u32>();
                    assert_eq!(s.t, now);
                    assert_eq!((s.n_idle(), s.n_pilot()), (ones(idle), ones(pilot)));
                    polls += 1;
                    with_pilots += u32::from(s.n_pilot() > 0);
                }
            }
        });
        assert!(
            polls > 100 && with_pilots > 10,
            "{polls} polls, {with_pilots} with pilots"
        );
    }
}
