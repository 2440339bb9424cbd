//! # hpcwhisk-cluster
//!
//! A Slurm-like HPC workload manager, simulated: the substrate on which
//! the HPC-Whisk reproduction schedules both the prime HPC workload and
//! the low-priority, preemptible pilot jobs that host OpenWhisk
//! invokers.
//!
//! Faithfully modelled Slurm behaviours (paper §III-D, §IV):
//!
//! * **priority tiers** — pilot jobs sit in a `PriorityTier 0` partition
//!   and never delay tier ≥ 1 jobs;
//! * **preemption** (`PreemptMode=CANCEL`) — SIGTERM, 3-minute grace,
//!   SIGKILL; the grace window is where the invoker drain protocol runs;
//! * **EASY backfill** on a 2-minute-slot, 120-minute window, with
//!   future-start reservations and bounded per-pass work;
//! * **variable-length jobs** (`--time-min`/`--time`) — duration decided
//!   at placement by extending from the minimum, with a bounded
//!   extension budget per pass (the mechanism behind the paper's
//!   var-vs-simulation coverage gap, §V-B2);
//! * **the 10-second node-state poller** with the measured jitter
//!   distribution (§IV-A), from which the Slurm-level perspective is
//!   reconstructed;
//! * **trace-driven prime demand** — pinned demand claims with
//!   *announced* (believed) vs *actual* start times, reproducing the
//!   declared-limit slack that makes idle periods unpredictable.
//!
//! Module map:
//!
//! * `sched` — [`ClusterSim`], the scheduler, one concern a file: `pass`
//!   (queue and placement walk), `plane` (projections, residue wheel,
//!   park), `settled` (the skip proof), `claims` (pinned claims and
//!   handover), `lifecycle` (start, SIGTERM, grace, end, node
//!   transitions), `poll` (the poller) and `oracle` (the reference pass
//!   and test hooks, off every production path);
//! * [`timeline`] — the 60-slot bitmask timeline a pass plans on;
//! * [`trace`] — the availability trace the poller builds;
//! * [`config`], [`events`], [`ids`], [`job`], [`node`] — the Slurm
//!   settings, the events and notes, and the records the scheduler keeps;
//! * [`capacity`] — the one lease vocabulary: `LeaseEvent<T>` (grant,
//!   extend, revoke) on any clock, with one order, one causality check
//!   and the shared stats, and `CapacityTrace`, the availability trace
//!   as such a stream in simulated time, for the live plane.

#![forbid(unsafe_code)]

pub mod capacity;
pub mod config;
pub mod events;
pub mod ids;
pub mod job;
pub mod node;
mod sched;
pub mod timeline;
pub mod trace;

pub use capacity::{CapacityTrace, LeaseEvent, LeaseEventKind};
pub use config::SlurmConfig;
pub use events::{ClusterEvent, ClusterNote, PollSample, SigtermReason};
pub use ids::{JobId, NodeId, NodeList};
pub use job::{Job, JobKind, JobOutcome, JobSpec, JobState};
pub use node::{Node, NodeState};
pub use sched::{ClusterSeries, ClusterSim, Counters};
pub use timeline::{FitPolicy, Timeline};
pub use trace::AvailabilityTrace;
