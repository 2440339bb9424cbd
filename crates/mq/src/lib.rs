//! # hpcwhisk-mq
//!
//! A Kafka-like ordered-log broker substrate.
//!
//! OpenWhisk uses Apache Kafka as its invocation transport: the
//! controller appends activation requests to a *per-invoker topic*; each
//! invoker pulls from its own topic in FIFO order. The HPC-Whisk
//! extension adds one *fast-lane* topic shared by all invokers, into
//! which (a) a draining invoker moves its already-pulled-but-unexecuted
//! requests, and (b) the controller moves the not-yet-pulled remainder of
//! the draining invoker's topic. Invokers always pull the fast lane
//! before their own topic, so re-routed requests run with the highest
//! priority (paper §III-C).
//!
//! The semantics that matter for the handoff protocol's correctness —
//! FIFO per topic, strictly increasing offsets, lossless atomic *move*
//! between topics — are exactly what this crate implements and
//! property-tests. Network/broker latency is modelled by the caller
//! (`whisk::latency`), keeping this crate purely about ordering.

#![forbid(unsafe_code)]

pub mod broker;

pub use broker::{Broker, Message, TopicId, TopicStats};
