//! # hpcwhisk-gateway
//!
//! The **live serving plane** of the HPC-Whisk reproduction: where
//! `crates/whisk` models the platform under the deterministic DES
//! engine to answer the paper's quantitative questions, this crate runs
//! the same architecture on real OS threads to serve real traffic —
//! and proves the drain protocol under genuine concurrency.
//!
//! Layers (one module each):
//!
//! * [`action`] — the catalogue of deployable actions with real bodies
//!   (SeBS kernels from `crates/sebs`, calibrated spins, no-ops),
//!   cold-start/keep-alive parameters and per-action in-flight caps;
//! * [`route`] — a sharded, epoch-swapped routing table: the invoke hot
//!   path takes one shard-local read lock, never a global one, and gets
//!   two candidates per key, sent to the less loaded;
//! * [`ring`] / [`queue`] — the per-invoker lock-free MPSC rings, the
//!   message vocabulary, and the shared fast lane a draining invoker
//!   moves its backlog to (a mutex-guarded deque behind a lock-free
//!   empty check), both with the offset/`produced_at` semantics of
//!   `crates/mq` (each differentially tested against `mq::Topic`);
//!   an invoker parks on its empty ring, and a collector on the
//!   completion gate, through one waiter-counted park/wake (`park`);
//! * [`admission`] — admission *shaping*: the default hard-shed policy,
//!   or a capacity-tracking token bucket that degrades through a typed,
//!   bounded **delay** before shedding (a latency slope instead of a
//!   shed cliff under overload and capacity dips);
//! * [`gateway`] — admission control, the invoker threads with the
//!   paper's §III-C fast-lane-first drain protocol (draining up to 32
//!   envelopes per pass, parking 500 µs when idle), one **completion
//!   buffer** (a mutex-guarded `Vec` every invoker appends its batches
//!   to and any number of collectors swap out whole, behind a lock-free
//!   empty check like the fast lane's), and graceful sigterm/join
//!   lifecycle;
//!   each invoker thread owns a warm-container pool, the DES plane's
//!   `simcore::pool::ContainerPool` under wall-clock time
//!   (cold-start penalty, keep-alive eviction, LRU under capacity
//!   pressure), and records its evictions in the flight recorder;
//! * [`lease`] — capacity leases: [`LeaseEvent`] is `cluster`'s one
//!   lease event on wall-clock offsets, and a wall-clock [`LeasePlan`]
//!   has one compiler, [`LeasePlan::from_capacity_trace`] over a
//!   `cluster::CapacityTrace` availability stream, with per-lease
//!   deadlines, a concurrency cap and a pinned routable floor;
//! * [`controller`] — the [`CapacityController`] that executes a plan:
//!   grants start invokers, deadlines trigger drains *ahead* of the
//!   revoke (§III-C's grace window) but never the last routable
//!   invoker, revokes reap — the lease-driven invoker lifecycle that
//!   replaces hand-rolled start/sigterm/join;
//! * [`harness`] — the closed-loop load harness replaying
//!   `crates/workload` arrival processes (Poisson, diurnal) into
//!   log-linear latency histograms, with a run-wide and a per-action
//!   `metrics::Tally` read *from* the telemetry registry;
//! * [`telem`] — the gateway's telemetry plane and only ledger: a
//!   `telemetry::Registry` of sharded counters, gauges and latency
//!   histograms covering every admission outcome, lease transition,
//!   pool event and queue high-water, scrapeable as Prometheus text
//!   and readable as a plain `metrics::Tally`.
//!
//! The request vocabulary ([`Shed`], `metrics::Outcome`,
//! `metrics::Tally`) and the rules the books check are
//! `metrics::outcome`'s, shared with the DES plane.
//!
//! The drain guarantee, stated once and tested in
//! `tests/drain_stress.rs` and by the `day` row of the `live` scenario
//! runner, both replaying calibrated idle traces: **every admitted request is
//! executed exactly once as long as one invoker survives** — sigterm
//! moves unstarted backlog to the fast lane with admission timestamps
//! preserved; producers that race a drain reroute themselves. Every
//! such run ends on [`books::check`], the plane's books read from the
//! scrape taken after shutdown.

#![deny(unsafe_code, clippy::undocumented_unsafe_blocks)]

pub mod action;
pub mod admission;
pub mod books;
pub mod controller;
pub mod gateway;
pub mod harness;
pub mod lease;
mod park;
pub mod queue;
#[allow(unsafe_code)]
pub mod ring;
pub mod route;
pub mod source;
pub mod telem;

pub use action::{ActionBody, ActionId, ActionRegistry, ActionSpec};
pub use admission::{AdmissionPolicy, TokenBucketCfg};
pub use controller::{CapacityController, ControllerConfig, LeaseStats};
pub use gateway::{
    Admit, BurstScratch, Collector, Completion, Gateway, GatewayConfig, InvokerToken, Shed,
};
pub use harness::{run_load, run_load_with_controller, HarnessConfig, LoadReport};
pub use lease::{floor_grants, LeaseEvent, LeaseEventKind, LeasePlan};
pub use queue::{Envelope, Produce, ProduceBatch, Request};
pub use ring::RingQueue;
pub use route::Router;
pub use simcore::pool::PoolStats;
pub use source::{LeaseSource, LoadFeedback, PlanSource};
pub use telem::{GatewayTelemetry, SlotTelem};
