//! # hpcwhisk-workload
//!
//! Workload and trace generators calibrated to the statistics the paper
//! publishes about Prometheus, the production cluster it evaluates on:
//!
//! * [`idle::IdleModel`] — the idle-node process of Fig. 1 (regime
//!   switching between saturated and fragmented periods, batch gap
//!   openings, heavy-tailed per-node idle durations), with presets for
//!   the analysed week and the two experiment days;
//! * [`demand::DemandModel`] — converts an idle trace into the pinned
//!   prime-demand claim stream that drives the cluster simulator, with
//!   announced-vs-actual start noise modelling declared-limit slack
//!   (every DES day draws its claims from the default model);
//! * [`hpc::HpcWorkloadModel`] — Fig. 2 job distributions (declared
//!   limits, runtimes, slack, sizes) plus the closed-loop backlog driver
//!   for >99% utilization;
//! * [`faas::ConstantRateLoadGen`] — the 10 QPS / 100-function
//!   responsiveness workload (§V-C), plus Poisson and diurnal
//!   (non-homogeneous Poisson) request processes for driving the live
//!   gateway.
//!
//! Every constant is documented at its definition; the module tests are
//! the calibration record — they assert the generated marginals land in
//! tolerance bands around the published numbers.

#![forbid(unsafe_code)]

pub mod demand;
pub mod faas;
pub mod hpc;
pub mod idle;

pub use demand::{DemandClaim, DemandModel};
pub use faas::{Arrival, ConstantRateLoadGen, DiurnalLoadGen, PoissonLoadGen};
pub use hpc::{BacklogDriver, HpcWorkloadModel};
pub use idle::IdleModel;
