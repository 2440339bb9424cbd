//! # hpcwhisk-simcore
//!
//! Deterministic discrete-event simulation (DES) engine underpinning every
//! other crate in the HPC-Whisk reproduction.
//!
//! The engine is deliberately minimal and allocation-conscious:
//!
//! * [`SimTime`] / [`SimDuration`] — millisecond-resolution virtual time.
//! * [`EventQueue`] — a priority queue (a millisecond timing wheel for
//!   the imminent events, a `std` binary heap for the rest) with a
//!   monotonic sequence tiebreaker, so event ordering is fully deterministic even when many
//!   events share a timestamp.
//! * [`Engine`] — the driver loop. Systems implement [`Process`] and push
//!   follow-up events through an [`Outbox`].
//! * [`SimRng`] — a seeded small RNG; all stochastic behaviour flows
//!   through it so any experiment is reproducible from `(config, seed)`.
//! * [`dist`] — self-contained samplers (exponential, log-normal,
//!   Weibull, Pareto, mixtures, empirical) implemented with
//!   inverse-transform / Box–Muller so we do not need `rand_distr`.
//! * [`pool`] — one invoker's container pool as a pure state machine,
//!   generic over its clock: the DES drives it in [`SimTime`], the live
//!   gateway's invoker threads in `Instant`.
//!
//! The design follows the "state machine + scheduler" DES pattern: each
//! subsystem (cluster, whisk, ...) is a plain state machine handling its
//! own event enum; a composition layer maps between subsystem outboxes
//! and the global queue. This keeps every subsystem unit-testable without
//! the engine.

#![forbid(unsafe_code)]

pub mod dist;
pub mod engine;
pub mod events;
pub mod pool;
pub mod rng;
pub mod time;

pub use engine::{Engine, Outbox, Process, StopCondition};
pub use events::EventQueue;
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
