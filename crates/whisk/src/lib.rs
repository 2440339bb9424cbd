//! # hpcwhisk-whisk
//!
//! An OpenWhisk-like Function-as-a-Service platform with the HPC-Whisk
//! dynamic-invoker extensions (paper §II–III).
//!
//! The platform is an event-driven state machine (see [`WhiskSys`])
//! designed to run under the deterministic DES engine of
//! `hpcwhisk-simcore`. It models the full invocation data path —
//! controller routing by function hash over a *dynamic* invoker set,
//! per-invoker Kafka topics (via `hpcwhisk-mq`), invoker poll loops,
//! warm/cold container pools with LRU eviction and bounded cold-start
//! concurrency (`simcore::pool`, which the live plane drives too) — plus
//! the paper's contributions:
//!
//! * dynamic registration and *graceful de-registration* of invokers,
//! * the SIGTERM drain protocol with the global **fast-lane** topic,
//! * recovery of silently-dead invokers' queues, with a
//!   [`DynamicsMode::Baseline`] switch reproducing stock OpenWhisk's
//!   lose-the-queue behaviour for ablation.
//!
//! This crate is the **DES plane** only. The live plane — the same
//! architecture on real OS threads, serving real traffic — lives in
//! `crates/gateway` (`hpcwhisk_gateway`), which absorbed and
//! generalized the thread demo that used to live here as
//! `whisk::live`.

#![forbid(unsafe_code)]

pub mod action;
pub mod activation;
pub mod config;
pub mod events;
pub mod ids;
pub mod invoker;
pub mod system;

pub use action::{ExecModel, FunctionSpec};
pub use activation::{ActState, ActivationRecord, InvokeResult, Outcome};
pub use config::{DynamicsMode, WhiskConfig};
pub use events::{WhiskEvent, WhiskNote};
pub use ids::{ActivationId, FunctionId, InvokerId};
pub use invoker::{Invoker, InvokerState, PollChain};
pub use system::{WhiskCounters, WhiskSeries, WhiskSys};
