//! FaaS platform events and notes.

use crate::ids::{ActivationId, FunctionId, InvokerId};
use metrics::Outcome;
use simcore::SimTime;

/// Internal timing events of the FaaS platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WhiskEvent {
    /// An accepted activation becomes visible in its invoker's topic
    /// (controller overhead + Kafka produce latency elapsed).
    Enqueue {
        /// The activation.
        act: ActivationId,
        /// Destination invoker.
        inv: InvokerId,
    },
    /// An invoker's periodic topic poll.
    InvokerPoll(InvokerId),
    /// A container finished booting for an activation.
    ColdStartDone {
        /// The invoker.
        inv: InvokerId,
        /// The activation waiting on the container.
        act: ActivationId,
    },
    /// An execution finished.
    ExecDone {
        /// The invoker.
        inv: InvokerId,
        /// The activation.
        act: ActivationId,
    },
    /// A draining invoker finished its flush and de-registers.
    DrainComplete(InvokerId),
    /// The controller notices a silently-dead invoker (missed pings).
    DeathNoticed(InvokerId),
    /// Controller's periodic timeout scan.
    TimeoutScan,
}

/// Effects surfaced to the composition layer / metrics.
#[derive(Debug, Clone, PartialEq)]
pub enum WhiskNote {
    /// An activation was answered (or declared timed out).
    ActivationDone {
        /// The activation.
        act: ActivationId,
        /// The function.
        function: FunctionId,
        /// [`Outcome::Completed`], [`Outcome::Failed`] or
        /// [`Outcome::TimedOut`].
        outcome: Outcome,
        /// Client submission time.
        submitted: SimTime,
        /// Answer time (client-side, including the client RTT share).
        answered: SimTime,
        /// Delivery attempts (>1 = re-routed through the fast lane).
        attempts: u32,
    },
    /// An invoker registered and is healthy.
    InvokerUp(InvokerId),
    /// An invoker began draining (SIGTERM received).
    InvokerDraining(InvokerId),
    /// An invoker left the system.
    InvokerGone {
        /// The invoker.
        inv: InvokerId,
        /// True if it de-registered cleanly (drain protocol), false if
        /// it died silently and the controller noticed later.
        clean: bool,
    },
}
