//! Capacity leases: the availability process as an *event stream*.
//!
//! An [`AvailabilityTrace`] answers "when was each node available" as a
//! set of intervals — the right shape for the clairvoyant offline
//! simulator, which sees the whole future at once. The live serving
//! plane cannot see the future: it learns about capacity the way the
//! paper's platform does (§III-C), one pilot-job event at a time — a
//! **grant** when a pilot starts on an unused node (with the declared
//! wall-time limit as its lease deadline), an **extend** when the pilot
//! is renewed before that deadline, and a **revoke** when the batch
//! scheduler reclaims the node (at the deadline, or *early* when a
//! prime job preempts the pilot).
//!
//! [`LeaseEvent<T>`] is that event, defined once for every clock: the
//! simulation writes it on [`SimTime`], the gateway on wall-clock
//! `Duration` offsets (`gateway::LeaseEvent`), and [`LeaseEvent::map`]
//! carries a stream from one clock to the other. Every stream shares
//! one total order ([`LeaseEvent::order_key`], [`sort`]), one causality
//! check ([`validate`]) and one set of stats ([`n_grants`],
//! [`n_early_revokes`], [`max_concurrent`],
//! [`min_concurrent_after_start`]).
//!
//! [`CapacityTrace`] is the simulated-time stream over a horizon,
//! derived from any [`AvailabilityTrace`] — the Prometheus-calibrated
//! generator in `workload`, or the trace the simulated poller builds as
//! it samples ([`crate::ClusterSim::into_parts`], the backfill-timeline
//! perspective). The gateway compiles it into a wall-clock plan its
//! capacity controller replays against the live plane; the deadlines
//! are what make *deadline-aware* drains possible — the controller can
//! start draining an invoker before the kill arrives, exactly the
//! sigterm-grace protocol of §III-C.

use crate::trace::AvailabilityTrace;
use metrics::StepSeries;
use simcore::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::fmt::Debug;

/// What happened to one node's lease, on clock `T` (simulated
/// [`SimTime`] here, wall-clock offsets in the gateway).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeaseEventKind<T> {
    /// A pilot job started on the node; capacity is promised until
    /// `deadline` (the declared wall-time limit).
    Grant {
        /// Announced end of the lease.
        deadline: T,
    },
    /// The lease was renewed before its deadline (the backfill window
    /// still had room for the pilot).
    Extend {
        /// The new announced end of the lease.
        deadline: T,
    },
    /// The node was reclaimed. At the announced deadline this is the
    /// graceful path; earlier, it models preemption by a prime job.
    Revoke,
}

impl<T> LeaseEventKind<T> {
    /// Tie-break rank for events at the same instant: revokes before
    /// extends before grants, so a reused node is freed before it is
    /// re-granted and an extend always targets a live lease.
    pub fn rank(&self) -> u8 {
        match self {
            LeaseEventKind::Revoke => 0,
            LeaseEventKind::Extend { .. } => 1,
            LeaseEventKind::Grant { .. } => 2,
        }
    }
}

/// One event of a lease stream on clock `T`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaseEvent<T> {
    /// When the event occurs.
    pub at: T,
    /// The node the lease lives on (also the invoker's identity on the
    /// live plane, where node ids are plan-local).
    pub node: u32,
    /// Grant, extend or revoke.
    pub kind: LeaseEventKind<T>,
}

impl<T> LeaseEvent<T> {
    /// A lease granted on `node` at `at`, promised until `deadline`.
    pub fn grant(at: T, node: u32, deadline: T) -> Self {
        let kind = LeaseEventKind::Grant { deadline };
        LeaseEvent { at, node, kind }
    }

    /// `node`'s lease renewed at `at` until `deadline`.
    pub fn extend(at: T, node: u32, deadline: T) -> Self {
        let kind = LeaseEventKind::Extend { deadline };
        LeaseEvent { at, node, kind }
    }

    /// `node` reclaimed at `at`.
    pub fn revoke(at: T, node: u32) -> Self {
        let kind = LeaseEventKind::Revoke;
        LeaseEvent { at, node, kind }
    }

    /// The same event on another clock: `clock` maps the instant and
    /// the deadline alike.
    pub fn map<U>(self, mut clock: impl FnMut(T) -> U) -> LeaseEvent<U> {
        let kind = match self.kind {
            LeaseEventKind::Grant { deadline } => LeaseEventKind::Grant {
                deadline: clock(deadline),
            },
            LeaseEventKind::Extend { deadline } => LeaseEventKind::Extend {
                deadline: clock(deadline),
            },
            LeaseEventKind::Revoke => LeaseEventKind::Revoke,
        };
        LeaseEvent {
            at: clock(self.at),
            node: self.node,
            kind,
        }
    }
}

impl<T: Copy> LeaseEvent<T> {
    /// The one total order of a lease stream: by instant, then revoke <
    /// extend < grant ([`LeaseEventKind::rank`]), then node, so a stream
    /// is a deterministic function of its events.
    pub fn order_key(&self) -> (T, u8, u32) {
        (self.at, self.kind.rank(), self.node)
    }
}

/// Sort `events` into the total order of [`LeaseEvent::order_key`].
pub fn sort<T: Ord + Copy>(events: &mut [LeaseEvent<T>]) {
    events.sort_by_key(LeaseEvent::order_key);
}

/// Check a stream's per-node causality, panicking on the first broken
/// rule: events are in the order of [`sort`]; a grant lands on a free
/// node, with a deadline after the grant; an extend or revoke lands on
/// a held one; an extend never moves the deadline back. Returns the
/// leases still held after the last event, node → deadline.
pub fn validate<T: Ord + Copy + Debug>(events: &[LeaseEvent<T>]) -> BTreeMap<u32, T> {
    let mut held = BTreeMap::new();
    for w in events.windows(2) {
        assert!(
            w[0].order_key() <= w[1].order_key(),
            "events out of order: {:?} then {:?}",
            w[0],
            w[1]
        );
    }
    for e in events {
        match e.kind {
            LeaseEventKind::Grant { deadline } => {
                assert!(deadline > e.at, "node {}: grant already expired", e.node);
                let prev = held.insert(e.node, deadline);
                assert!(prev.is_none(), "node {}: grant over live lease", e.node);
            }
            LeaseEventKind::Extend { deadline } => {
                let cur = held.get_mut(&e.node);
                let cur = cur.unwrap_or_else(|| panic!("node {}: extend without lease", e.node));
                assert!(deadline >= *cur, "node {}: deadline moved back", e.node);
                *cur = deadline;
            }
            LeaseEventKind::Revoke => {
                let prev = held.remove(&e.node);
                assert!(prev.is_some(), "node {}: revoke without lease", e.node);
            }
        }
    }
    held
}

/// Number of grants in the stream.
pub fn n_grants<T>(events: &[LeaseEvent<T>]) -> usize {
    let grant = |e: &&LeaseEvent<T>| matches!(e.kind, LeaseEventKind::Grant { .. });
    events.iter().filter(grant).count()
}

/// Number of revokes that arrive *before* their lease's announced
/// deadline — the preemption share of the stream.
pub fn n_early_revokes<T: Ord + Copy>(events: &[LeaseEvent<T>]) -> usize {
    let mut deadline = BTreeMap::new();
    let mut early = 0;
    for e in events {
        match e.kind {
            LeaseEventKind::Grant { deadline: d } | LeaseEventKind::Extend { deadline: d } => {
                deadline.insert(e.node, d);
            }
            LeaseEventKind::Revoke => {
                if deadline.remove(&e.node).is_some_and(|d| e.at < d) {
                    early += 1;
                }
            }
        }
    }
    early
}

/// Each event with the concurrently leased node count after it.
fn concurrency<T>(events: &[LeaseEvent<T>]) -> impl Iterator<Item = (&LeaseEvent<T>, usize)> {
    events.iter().scan(0usize, |cur, e| {
        match e.kind {
            LeaseEventKind::Grant { .. } => *cur += 1,
            LeaseEventKind::Revoke => *cur = cur.saturating_sub(1),
            LeaseEventKind::Extend { .. } => {}
        }
        Some((e, *cur))
    })
}

/// Peak number of simultaneously leased nodes.
pub fn max_concurrent<T>(events: &[LeaseEvent<T>]) -> usize {
    concurrency(events).map(|(_, n)| n).max().unwrap_or(0)
}

/// Lowest concurrently leased node count over the stream's span after
/// its first grant (a stream starts at zero by definition).
pub fn min_concurrent_after_start<T>(events: &[LeaseEvent<T>]) -> usize {
    let (mut min, mut last) = (usize::MAX, 0);
    for (e, n) in concurrency(events) {
        if matches!(e.kind, LeaseEventKind::Revoke) {
            min = min.min(n);
        }
        last = n;
    }
    min.min(last)
}

/// A replayable, time-sorted stream of capacity events over a horizon.
///
/// Invariants (checked by [`validate`](CapacityTrace::validate), which
/// every constructor runs): the stream passes the shared [`validate`]
/// (sorted, each node alternating grant → (extend)* → revoke, deadlines
/// never moving back), every event lies inside the horizon, and every
/// grant is revoked within it.
#[derive(Debug, Clone)]
pub struct CapacityTrace {
    /// Horizon start.
    pub start: SimTime,
    /// Horizon end.
    pub end: SimTime,
    /// Number of nodes the node ids index into.
    pub n_nodes: usize,
    /// The event stream, in the total order of [`sort`] (ties: revokes
    /// before grants, so a same-instant reclaim-and-regrant never
    /// double-counts).
    pub events: Vec<LeaseEvent<SimTime>>,
}

impl CapacityTrace {
    /// Derive the causal lease stream from an interval trace.
    ///
    /// Each availability interval `[a, b)` becomes one lease: a grant
    /// at `a` with deadline `a + quantum` (the pilot's declared
    /// wall-time limit), an extend shortly before each deadline while
    /// the interval still has room, and a revoke at `b`. A revoke
    /// before the announced deadline is an *early* revoke — the
    /// preemption case the drain protocol exists for.
    ///
    /// `quantum` is the declared pilot length; the extend lead time is
    /// `quantum / 4` (at least one millisecond, at most `quantum / 2`),
    /// mirroring a renewal submitted inside the backfill window rather
    /// than at the last instant.
    pub fn from_availability(trace: &AvailabilityTrace, quantum: SimDuration) -> Self {
        assert!(
            quantum > SimDuration::ZERO,
            "lease quantum must be positive"
        );
        // The lead must stay strictly inside the quantum: at quantum/2
        // or less, an extend can never reach back to (or past) its own
        // grant instant, whatever the trace resolution.
        let lead = (quantum / 4)
            .max(SimDuration::from_millis(1))
            .min(quantum / 2);
        let mut events = Vec::with_capacity(trace.n_intervals() * 2);
        for (node, intervals) in trace.per_node.iter().enumerate() {
            let node = node as u32;
            for &(a, b) in intervals {
                let mut deadline = a + quantum;
                events.push(LeaseEvent::grant(a, node, deadline));
                // Renew while the interval outlives the announced
                // deadline; each extend fires `lead` before the
                // deadline it replaces.
                while deadline < b {
                    let at = deadline - lead.min(deadline.since(a));
                    deadline += quantum;
                    events.push(LeaseEvent::extend(at, node, deadline));
                }
                events.push(LeaseEvent::revoke(b, node));
            }
        }
        sort(&mut events);
        let trace = CapacityTrace {
            start: trace.start,
            end: trace.end,
            n_nodes: trace.n_nodes(),
            events,
        };
        trace.validate();
        trace
    }

    /// Check the invariants; panics with the offending node on
    /// violation. Cheap (one linear pass) — constructors call it.
    pub fn validate(&self) {
        let open = validate(&self.events);
        if let (Some(first), Some(last)) = (self.events.first(), self.events.last()) {
            assert!(
                first.at >= self.start,
                "event before horizon at {:?}",
                first.at
            );
            assert!(last.at <= self.end, "event past horizon at {:?}", last.at);
        }
        if let Some(node) = open.keys().next() {
            panic!("node {node}: lease never revoked");
        }
    }

    /// Number of grants in the stream.
    pub fn n_grants(&self) -> usize {
        n_grants(&self.events)
    }

    /// Number of revokes that arrive before their lease's deadline.
    pub fn n_early_revokes(&self) -> usize {
        n_early_revokes(&self.events)
    }

    /// Step series of concurrently leased nodes over time (the live
    /// plane's invoker-count target).
    pub fn leased_series(&self) -> StepSeries {
        let mut s = StepSeries::new(self.start, 0.0);
        let mut count = 0.0;
        let mut i = 0;
        while i < self.events.len() {
            let t = self.events[i].at;
            while i < self.events.len() && self.events[i].at == t {
                match self.events[i].kind {
                    LeaseEventKind::Grant { .. } => count += 1.0,
                    LeaseEventKind::Revoke => count -= 1.0,
                    LeaseEventKind::Extend { .. } => {}
                }
                i += 1;
            }
            s.set(t, count);
        }
        s
    }

    /// Peak number of simultaneously leased nodes.
    pub fn max_concurrent(&self) -> usize {
        max_concurrent(&self.events)
    }

    /// Total leased node-seconds over the horizon — the *invasiveness*
    /// of the capacity stream (how much node time the pilots actually
    /// occupied).
    pub fn leased_node_secs(&self) -> f64 {
        let mut since = vec![self.start; self.n_nodes];
        let mut total = 0.0f64;
        for e in &self.events {
            match e.kind {
                LeaseEventKind::Grant { .. } => since[e.node as usize] = e.at,
                LeaseEventKind::Extend { .. } => {}
                LeaseEventKind::Revoke => total += e.at.since(since[e.node as usize]).as_secs_f64(),
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn avail(per_node: Vec<Vec<(SimTime, SimTime)>>) -> AvailabilityTrace {
        AvailabilityTrace::from_intervals(t(0), t(10_000), per_node)
    }

    #[test]
    fn short_interval_is_grant_then_early_revoke() {
        // Interval shorter than the quantum: the revoke arrives before
        // the announced deadline — the preemption shape.
        let tr = avail(vec![vec![(t(100), t(160))]]);
        let cap = CapacityTrace::from_availability(&tr, SimDuration::from_secs(600));
        assert_eq!(cap.n_grants(), 1);
        assert_eq!(cap.n_early_revokes(), 1);
        assert_eq!(cap.events.len(), 2);
        match cap.events[0].kind {
            LeaseEventKind::Grant { deadline } => assert_eq!(deadline, t(700)),
            ref k => panic!("expected grant, got {k:?}"),
        }
        assert_eq!(cap.events[1].at, t(160));
        assert_eq!(cap.events[1].kind, LeaseEventKind::Revoke);
    }

    #[test]
    fn long_interval_extends_until_the_deadline_covers_it() {
        // Interval of 25 min with a 10-min quantum: deadlines at 10,
        // 20, 30 min — two extends, then a revoke at 25 min (early
        // relative to the 30-min announcement).
        let tr = avail(vec![vec![(t(0), t(1500))]]);
        let cap = CapacityTrace::from_availability(&tr, SimDuration::from_secs(600));
        let extends: Vec<_> = cap
            .events
            .iter()
            .filter_map(|e| match e.kind {
                LeaseEventKind::Extend { deadline } => Some((e.at, deadline)),
                _ => None,
            })
            .collect();
        assert_eq!(extends.len(), 2);
        // Lead is quantum/4 = 150 s: extends at 450 and 1050.
        assert_eq!(extends[0], (t(450), t(1200)));
        assert_eq!(extends[1], (t(1050), t(1800)));
        assert_eq!(
            cap.n_early_revokes(),
            1,
            "25 min ends before the 30-min deadline"
        );
    }

    #[test]
    fn exact_multiple_revokes_at_the_deadline() {
        // Interval exactly one quantum long: no extend, revoke lands
        // precisely at the announced deadline (the graceful path).
        let tr = avail(vec![vec![(t(0), t(600))]]);
        let cap = CapacityTrace::from_availability(&tr, SimDuration::from_secs(600));
        assert_eq!(cap.events.len(), 2);
        assert_eq!(cap.n_early_revokes(), 0);
    }

    #[test]
    fn leased_series_and_peak_track_overlap() {
        let tr = avail(vec![
            vec![(t(0), t(100)), (t(200), t(300))],
            vec![(t(50), t(250))],
        ]);
        let cap = CapacityTrace::from_availability(&tr, SimDuration::from_secs(1_000));
        let s = cap.leased_series();
        assert_eq!(s.value_at(t(10)), 1.0);
        assert_eq!(s.value_at(t(60)), 2.0);
        assert_eq!(s.value_at(t(150)), 1.0);
        assert_eq!(s.value_at(t(210)), 2.0);
        assert_eq!(s.value_at(t(290)), 1.0);
        assert_eq!(cap.max_concurrent(), 2);
        assert_eq!(cap.n_grants(), 3);
    }

    #[test]
    fn leased_node_secs_sums_each_lease() {
        // 0: 10 → 150 and 200 → 260 = 200 s; 1: 20 → 80 = 60 s.
        let tr = avail(vec![
            vec![(t(10), t(150)), (t(200), t(260))],
            vec![(t(20), t(80))],
        ]);
        let cap = CapacityTrace::from_availability(&tr, SimDuration::from_secs(100));
        assert!((cap.leased_node_secs() - 260.0).abs() < 1e-9);
    }

    #[test]
    fn back_to_back_intervals_release_before_regrant() {
        // min_busy separation of zero: node 0's second lease starts the
        // instant the first ends; the revoke must sort first.
        let tr = avail(vec![vec![(t(0), t(100)), (t(100), t(200))]]);
        let cap = CapacityTrace::from_availability(&tr, SimDuration::from_secs(50));
        cap.validate();
        let at_100: Vec<_> = cap.events.iter().filter(|e| e.at == t(100)).collect();
        assert_eq!(at_100.len(), 2);
        assert_eq!(at_100[0].kind, LeaseEventKind::Revoke);
        assert!(matches!(at_100[1].kind, LeaseEventKind::Grant { .. }));
    }

    #[test]
    #[should_panic(expected = "lease quantum must be positive")]
    fn zero_quantum_rejected() {
        let tr = avail(vec![vec![(t(0), t(100))]]);
        CapacityTrace::from_availability(&tr, SimDuration::ZERO);
    }

    #[test]
    fn tiny_quantum_leads_stay_inside_the_lease() {
        // Regression: a 1 ms quantum used to produce an extend at the
        // grant instant itself (lead floor ≥ quantum), which the
        // tie-break ordered before its own grant and validate()
        // rejected. The lead is now clamped to quantum/2.
        let tr = avail(vec![vec![(t(0), t(1))]]);
        let cap = CapacityTrace::from_availability(&tr, SimDuration::from_millis(1));
        cap.validate();
        assert_eq!(cap.n_grants(), 1);
        assert!(
            cap.events
                .iter()
                .any(|e| matches!(e.kind, LeaseEventKind::Extend { .. })),
            "the 1 s interval must be renewed many times"
        );
    }
}
