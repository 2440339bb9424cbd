//! # hpcwhisk-sebs
//!
//! The compute-intensive subset of the SeBS serverless benchmark suite
//! used by the paper's Fig. 7 (§V-D): **bfs**, **mst** and **pagerank**
//! on Barabási–Albert graphs — implemented for real, so the benchmark
//! harness measures genuine CPU work — plus calibrated platform models
//! (Prometheus node vs. AWS Lambda at various memory sizes).

#![forbid(unsafe_code)]

pub mod graph;
pub mod kernels;
pub mod platform;
pub mod runner;

pub use graph::Graph;
pub use kernels::{bfs, mst, pagerank};
pub use platform::{PlatformModel, LAMBDA_BASE_FACTOR, LAMBDA_FULL_VCPU_MB};
pub use runner::{measure, Kernel, Measurement};
