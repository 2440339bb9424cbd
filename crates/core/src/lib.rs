//! # hpcwhisk-core
//!
//! The paper's primary contribution, as a library: everything HPC-Whisk
//! adds on top of stock Slurm and OpenWhisk.
//!
//! * [`manager`] — the pilot-job supply managers (*fib*: bags of
//!   fixed-length jobs with longest-first priority; *var*:
//!   `--time-min 2 --time 120` flexible jobs), replenishing every 15 s
//!   under a 100-job queue cap (§III-D);
//! * [`lengths`] — the candidate length sets A1–A3, B, C1, C2 of
//!   Table I (§IV-B);
//! * [`offline`] — the clairvoyant a-posteriori simulator that
//!   regenerates Table I and the Simulation rows of Tables II/III;
//! * [`pilot`] — the pilot ⇄ invoker lifecycle glue, including the
//!   measured warm-up model (median 12.48 s, p95 26.5 s);
//! * [`coverage`] — the Slurm-level and OpenWhisk-level accounting
//!   perspectives (§IV-A);
//! * [`wrapper`] — Algorithm 1, the client-side 503 fallback to a
//!   commercial cloud (§III-E);
//! * [`driver`] — the one DES driver: a cluster whose idleness comes
//!   from an [`IdleSource`] (a trace, a generated HPC job stream, or
//!   nothing), a manager behind [`PilotManager`], and a [`PilotSink`]
//!   (the DES FaaS plane, or lease events for a live gateway), stepped
//!   with [`Driver::step_until`] and closed into a [`DayReport`];
//! * [`experiment`] — the day experiment's configuration and report,
//!   [`experiment::run_day`] (one call into the driver) and the
//!   parallel multi-day, multi-seed and week-sweep fan-outs over it;
//! * [`live`] — the closed loop against the *real* gateway: a
//!   [`DesLeaseSource`] steps the driver to the wall clock, streams
//!   pilot placements/evictions as live lease events, and feeds
//!   observed gateway load back into its manager (a
//!   [`LoadSizedManager`] sizes its pilots to it — the paper's §IV
//!   cycle end-to-end);
//! * [`report`] — paper-shaped table rendering.

#![forbid(unsafe_code)]

pub mod coverage;
pub mod driver;
pub mod experiment;
pub mod lengths;
pub mod live;
pub mod manager;
pub mod offline;
pub mod pilot;
pub mod report;
pub mod wrapper;

pub use coverage::{OwLevel, SlurmLevel};
pub use driver::{Driver, IdleSource, PilotSink};
pub use experiment::{
    run_day, run_days, run_week_sweep, DayConfig, DayReport, ManagerKind, SweepCluster, SweepConfig,
};
pub use live::{DesLeaseSource, DesSourceCfg, PilotStats};
pub use manager::{
    FibManager, LoadSizedManager, PilotManager, PilotPlan, SizerCfg, VarManager, QUEUE_CAP,
    REPLENISH_EVERY,
};
pub use offline::{simulate, OfflineConfig, OfflineReport};
pub use pilot::{PilotPhase, PilotTable, WarmupModel};
pub use wrapper::{CommercialBackend, FallbackWrapper, Target};
