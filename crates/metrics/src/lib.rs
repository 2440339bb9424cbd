//! # hpcwhisk-metrics
//!
//! Statistics and reporting utilities shared by every experiment harness
//! in the HPC-Whisk reproduction:
//!
//! * [`Cdf`] — empirical distributions with quantiles, matching the CDF
//!   plots of Figs. 1, 2, 5c and 6c of the paper. It keeps every
//!   observation, so it is for real-valued or few observations (idle
//!   nodes per poll, pilot lifetimes);
//! * [`MsCdf`] — the same quantiles and curve, exact, over whole
//!   millisecond spans kept as per-millisecond counts: for the
//!   simulated day's per-request response times (Table II's median),
//!   which number in the hundreds of thousands;
//! * [`StepSeries`] — a piecewise-constant time series with
//!   *time-weighted* averages, quantiles and integrals. Metrics like
//!   "average number of ready workers" (Tables I–III) are time-weighted,
//!   not sample-weighted, and this type is the single source of truth for
//!   that arithmetic;
//! * [`MinuteBins`] — per-minute aggregation used by the responsiveness
//!   plots (Figs. 5b, 6b);
//! * [`OnlineStats`] — streaming mean/variance/min/max;
//! * [`Table`] — ASCII table rendering for paper-shaped reports.
//!
//! The always-on serving-plane telemetry (sharded counters, log-linear
//! histograms, Prometheus exposition, flight recorder) lives in the
//! [`telemetry`] crate and is re-exported here so consumers take one
//! metrics dependency.

#![forbid(unsafe_code)]

pub mod cdf;
pub mod ms_cdf;
pub mod summary;
pub mod table;
pub mod timeseries;

pub use cdf::Cdf;
pub use ms_cdf::MsCdf;
pub use summary::OnlineStats;
pub use table::Table;
pub use timeseries::{MinuteBins, StepSeries};

pub use telemetry;
pub use telemetry::{HistSnapshot, Histogram, Registry};
