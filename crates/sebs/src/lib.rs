//! # hpcwhisk-sebs
//!
//! The compute-intensive subset of the SeBS serverless benchmark suite
//! used by the paper's Fig. 7 (§V-D): **bfs**, **mst** and **pagerank**
//! on Barabási–Albert graphs — implemented for real, so the benchmark
//! harness measures genuine CPU work on the local core.

#![forbid(unsafe_code)]

pub mod graph;
pub mod kernels;
pub mod runner;

pub use graph::Graph;
pub use kernels::{bfs, mst, pagerank};
pub use runner::{measure, Kernel, Measurement};
