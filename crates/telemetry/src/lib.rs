//! # hpcwhisk-telemetry
//!
//! The always-on metrics plane for the HPC-Whisk reproduction: the
//! sensory substrate the paper's §V/§VII evaluation assumes (HPC-Whisk
//! instrumented OpenWhisk + Prometheus node metrics) and that every
//! closed-loop capacity decision must read from.
//!
//! Four pieces, all built for hot paths measured in nanoseconds:
//!
//! * [`Counter`] / [`Gauge`] / [`CounterVec`] — relaxed atomics; a
//!   recorded event costs one relaxed increment plus one array index.
//!   Single-writer shards (one per invoker thread) can use the
//!   `*_owned` variants, which compile to a plain load+store on the
//!   writer's own cache line.
//! * [`Histogram`] — fixed-footprint log-linear latency histogram
//!   (64 linear sub-buckets per power of two): mergeable, ~1.6% worst
//!   case relative bucket error, quantiles without storing samples.
//!   Replaces the unbounded `Vec`-backed `Cdf` on serving hot paths.
//! * [`Registry`] — named metric families behind `dyn Collect`
//!   closures so the hot path never touches the registry;
//!   [`Registry::snapshot`] is epoch-stamped and carries
//!   delta-since-last-scrape for every series;
//!   [`render_prometheus`] emits the text exposition format.
//! * [`flight`] — a lock-free per-thread flight-recorder ring of typed
//!   events (sheds, lease grants/revokes, drains, cold/warm/evict,
//!   queue high-water) dumped on exactly-once violations, conservation
//!   failures, or test panics.

#![forbid(unsafe_code)]

pub mod counter;
pub mod flight;
pub mod hist;
pub mod registry;

pub use counter::{Counter, CounterVec, Gauge};
pub use flight::{EventKind, FlightEvent};
pub use hist::{HistSnapshot, Histogram};
pub use registry::{
    labels, one_series, render_prometheus, Collect, Collected, FamilySnapshot, Labels, MetricKind,
    Registry, SeriesSnapshot, Snapshot,
};
