//! Where lease events come from: the [`LeaseSource`] abstraction that
//! turns the [`CapacityController`](crate::CapacityController) from a
//! plan *replayer* into a plan *consumer*.
//!
//! A source is polled with the controller's clock (offsets from the
//! controller epoch) and streams [`LeaseEvent`]s incrementally — the
//! controller no longer needs the whole schedule up front. Two shapes
//! exist today:
//!
//! * [`PlanSource`] — wraps a precompiled [`LeasePlan`] and replays it
//!   verbatim: the pre-closed-loop behaviour, still the right tool for
//!   deterministic tests and trace replays.
//! * `core::DesLeaseSource` (in the `hpcwhisk_core` crate) — runs the
//!   HPC cluster simulation *live*: a pilot manager submits pilot jobs,
//!   backfill placement decides the grants, and preemptions become the
//!   revokes. This is the paper's §IV cycle closed end-to-end.
//!
//! The loop closes through [`LeaseSource::observe`]: each feedback
//! interval the controller diffs the gateway's registry counters into a
//! [`LoadFeedback`] (arrival rate, sheds, outstanding queue depth) and
//! hands it to the source, which may use it to resize its pilot supply.
//! A plan replay ignores the feedback; the DES source feeds it into the
//! manager's pilot-sizing decision each `bf_interval`.

use crate::lease::{LeaseEvent, LeasePlan};
use std::time::Duration;

/// Observed serving-plane load over one feedback window, diffed from
/// the gateway's cumulative counters by the controller.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LoadFeedback {
    /// Wall-clock length of the window the deltas cover.
    pub window: Duration,
    /// Requests that arrived in the window (accepted + shed).
    pub arrivals: u64,
    /// Requests shed in the window (all reasons).
    pub sheds: u64,
    /// Requests accepted but not yet completed at window end — the
    /// plane's outstanding queue depth.
    pub outstanding: u64,
    /// Routable (non-draining) invokers at window end.
    pub routable: usize,
}

impl LoadFeedback {
    /// Arrivals per second over the window (0 for an empty window).
    pub fn arrival_rate(&self) -> f64 {
        let s = self.window.as_secs_f64();
        if s > 0.0 {
            self.arrivals as f64 / s
        } else {
            0.0
        }
    }

    /// Sheds per second over the window.
    pub fn shed_rate(&self) -> f64 {
        let s = self.window.as_secs_f64();
        if s > 0.0 {
            self.sheds as f64 / s
        } else {
            0.0
        }
    }
}

/// An incremental stream of lease events, polled by the controller.
///
/// Implementations must be `Send`: the controller runs on a background
/// thread in the live pairing
/// ([`run_load_with_controller`](crate::run_load_with_controller)).
pub trait LeaseSource: Send {
    /// Append every event due at or before `now` (an offset from the
    /// controller epoch) to `out`, in time order, revokes before grants
    /// on ties. Returns the offset at which the source next expects to
    /// produce something (`None` when nothing is scheduled — the
    /// controller then falls back to its poll interval while the source
    /// is live, and stops waking for the source once it is
    /// [`exhausted`](LeaseSource::exhausted)).
    fn poll(&mut self, now: Duration, out: &mut Vec<LeaseEvent>) -> Option<Duration>;

    /// Observed load since the last feedback window. Default: ignored
    /// (a plan replay has nothing to resize).
    fn observe(&mut self, _fb: &LoadFeedback) {}

    /// True once the source will never emit another event.
    fn exhausted(&self) -> bool;
}

/// The one-shot replay source: a [`LeasePlan`] compiled ahead of time,
/// streamed out on its schedule. Exactly the pre-`LeaseSource`
/// controller semantics.
pub struct PlanSource {
    events: Vec<LeaseEvent>,
    next: usize,
}

impl PlanSource {
    /// Wrap a compiled plan.
    pub fn new(plan: LeasePlan) -> Self {
        PlanSource {
            events: plan.events,
            next: 0,
        }
    }
}

impl LeaseSource for PlanSource {
    fn poll(&mut self, now: Duration, out: &mut Vec<LeaseEvent>) -> Option<Duration> {
        while let Some(ev) = self.events.get(self.next) {
            if ev.at > now {
                break;
            }
            out.push(*ev);
            self.next += 1;
        }
        self.events.get(self.next).map(|e| e.at)
    }

    fn exhausted(&self) -> bool {
        self.next >= self.events.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn plan_source_streams_on_schedule() {
        let grant = |at, node| LeaseEvent::grant(ms(at), node, ms(100));
        let plan = LeasePlan::new(vec![grant(0, 0), grant(10, 1), grant(20, 2)], ms(50));
        let mut src = PlanSource::new(plan);
        let mut out = Vec::new();
        let next = src.poll(ms(0), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(next, Some(ms(10)));
        assert!(!src.exhausted());
        let next = src.poll(ms(15), &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(next, Some(ms(20)));
        let next = src.poll(ms(20), &mut out);
        assert_eq!(out.len(), 3);
        assert_eq!(next, None);
        assert!(src.exhausted());
    }

    #[test]
    fn feedback_rates() {
        let fb = LoadFeedback {
            window: Duration::from_secs(2),
            arrivals: 100,
            sheds: 10,
            outstanding: 7,
            routable: 3,
        };
        assert!((fb.arrival_rate() - 50.0).abs() < 1e-9);
        assert!((fb.shed_rate() - 5.0).abs() < 1e-9);
        assert_eq!(LoadFeedback::default().arrival_rate(), 0.0);
    }
}
