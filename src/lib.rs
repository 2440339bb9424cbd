//! # hpc-whisk
//!
//! Facade crate for the HPC-Whisk reproduction (SC 2022: *Using Unused:
//! Non-Invasive Dynamic FaaS Infrastructure with HPC-Whisk*).
//!
//! Re-exports every workspace crate under a stable path so examples,
//! integration tests and downstream users need a single dependency:
//!
//! * [`simcore`] — deterministic discrete-event engine;
//! * [`metrics`] — CDFs, time-weighted series, table rendering;
//! * [`mq`] — Kafka-like ordered-log topics (`mq::Topic`);
//! * [`cluster`] — Slurm-like workload manager (backfill, preemption);
//! * [`whisk`] — OpenWhisk-like FaaS platform with the HPC-Whisk
//!   dynamic-invoker extensions (the DES plane);
//! * [`gateway`] — the live serving plane: sharded routing, warm
//!   container pools and the drain protocol on real OS threads, with a
//!   closed-loop load harness;
//! * [`workload`] — trace generators calibrated to the paper's
//!   Prometheus statistics;
//! * [`sebs`] — SeBS-style compute kernels (BFS, MST, PageRank);
//! * [`core`] — the paper's contribution: pilot-job managers, the
//!   drain/handoff protocol glue, the clairvoyant offline simulator and
//!   the end-to-end experiment harness.

#![forbid(unsafe_code)]

pub use cluster;
pub use gateway;
pub use hpcwhisk_core as core;
pub use metrics;
pub use mq;
pub use sebs;
pub use simcore;
pub use whisk;
pub use workload;
