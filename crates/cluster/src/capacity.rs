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
//! [`CapacityTrace`] is that causal view: a time-sorted stream of
//! grant/extend/revoke events with per-lease deadlines, derived from
//! any [`AvailabilityTrace`] — the Prometheus-calibrated generator in
//! `workload`, or the trace the simulated poller builds as it samples
//! ([`crate::ClusterSim::into_parts`], the backfill-timeline
//! perspective). The gateway's capacity controller replays it against
//! the live plane; the deadlines are what make *deadline-aware* drains
//! possible — the controller can start draining an invoker before the
//! kill arrives, exactly the sigterm-grace protocol of §III-C.

use crate::trace::AvailabilityTrace;
use metrics::StepSeries;
use simcore::{SimDuration, SimTime};

/// What happened to one node's lease.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CapacityEventKind {
    /// A pilot job started on the node; capacity is promised until
    /// `deadline` (the declared wall-time limit).
    Grant {
        /// Announced end of the lease.
        deadline: SimTime,
    },
    /// The lease was renewed before its deadline (the backfill window
    /// still had room for the pilot).
    Extend {
        /// The new announced end of the lease.
        deadline: SimTime,
    },
    /// The node was reclaimed. At the announced deadline this is the
    /// graceful path; earlier, it models preemption by a prime job.
    Revoke,
}

/// One event in the capacity stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapacityEvent {
    /// When the event occurs.
    pub at: SimTime,
    /// The node the lease lives on.
    pub node: u32,
    /// Grant, extend or revoke.
    pub kind: CapacityEventKind,
}

/// A replayable, time-sorted stream of capacity events over a horizon.
///
/// Invariants (checked by [`validate`](CapacityTrace::validate), which
/// every constructor runs): events are sorted by time; each node
/// alternates grant → (extend)* → revoke; deadlines never move
/// backwards across an extend; every grant is eventually revoked within
/// the horizon.
#[derive(Debug, Clone)]
pub struct CapacityTrace {
    /// Horizon start.
    pub start: SimTime,
    /// Horizon end.
    pub end: SimTime,
    /// Number of nodes the node ids index into.
    pub n_nodes: usize,
    /// The event stream, sorted by `at` (ties: revokes before grants,
    /// so a same-instant reclaim-and-regrant never double-counts).
    pub events: Vec<CapacityEvent>,
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
            for &(a, b) in intervals {
                let mut deadline = a + quantum;
                events.push(CapacityEvent {
                    at: a,
                    node: node as u32,
                    kind: CapacityEventKind::Grant { deadline },
                });
                // Renew while the interval outlives the announced
                // deadline; each extend fires `lead` before the
                // deadline it replaces.
                while deadline < b {
                    let at = deadline - lead.min(deadline.since(a));
                    deadline += quantum;
                    events.push(CapacityEvent {
                        at,
                        node: node as u32,
                        kind: CapacityEventKind::Extend { deadline },
                    });
                }
                events.push(CapacityEvent {
                    at: b,
                    node: node as u32,
                    kind: CapacityEventKind::Revoke,
                });
            }
        }
        // Revokes sort before grants at the same instant so a
        // back-to-back reuse of a node is a release followed by a
        // fresh lease, never two concurrent leases.
        events.sort_by_key(|e| (e.at, matches!(e.kind, CapacityEventKind::Grant { .. })));
        let trace = CapacityTrace {
            start: trace.start,
            end: trace.end,
            n_nodes: trace.n_nodes(),
            events,
        };
        trace.validate();
        trace
    }

    /// Check the structural invariants; panics with the offending node
    /// on violation. Cheap (one linear pass) — constructors call it.
    pub fn validate(&self) {
        let mut leased: Vec<Option<SimTime>> = vec![None; self.n_nodes];
        let mut prev = self.start;
        for e in &self.events {
            assert!(e.at >= prev, "events out of order at {:?}", e.at);
            assert!(e.at <= self.end, "event past horizon at {:?}", e.at);
            prev = e.at;
            let slot = &mut leased[e.node as usize];
            match e.kind {
                CapacityEventKind::Grant { deadline } => {
                    assert!(slot.is_none(), "node {}: grant over live lease", e.node);
                    assert!(deadline > e.at, "node {}: grant already expired", e.node);
                    *slot = Some(deadline);
                }
                CapacityEventKind::Extend { deadline } => {
                    let cur = slot.expect("extend without lease");
                    assert!(deadline >= cur, "node {}: deadline moved back", e.node);
                    *slot = Some(deadline);
                }
                CapacityEventKind::Revoke => {
                    assert!(slot.is_some(), "node {}: revoke without lease", e.node);
                    *slot = None;
                }
            }
        }
        for (n, s) in leased.iter().enumerate() {
            assert!(s.is_none(), "node {n}: lease never revoked");
        }
    }

    /// Number of grants in the stream.
    pub fn n_grants(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, CapacityEventKind::Grant { .. }))
            .count()
    }

    /// Number of revokes that arrive *before* their lease's announced
    /// deadline — the preemption share of the stream.
    pub fn n_early_revokes(&self) -> usize {
        let mut deadline: Vec<Option<SimTime>> = vec![None; self.n_nodes];
        let mut early = 0;
        for e in &self.events {
            match e.kind {
                CapacityEventKind::Grant { deadline: d }
                | CapacityEventKind::Extend { deadline: d } => deadline[e.node as usize] = Some(d),
                CapacityEventKind::Revoke => {
                    if deadline[e.node as usize].take().is_some_and(|d| e.at < d) {
                        early += 1;
                    }
                }
            }
        }
        early
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
                    CapacityEventKind::Grant { .. } => count += 1.0,
                    CapacityEventKind::Revoke => count -= 1.0,
                    CapacityEventKind::Extend { .. } => {}
                }
                i += 1;
            }
            s.set(t, count);
        }
        s
    }

    /// Peak number of simultaneously leased nodes.
    pub fn max_concurrent(&self) -> usize {
        let mut cur = 0usize;
        let mut max = 0usize;
        for e in &self.events {
            match e.kind {
                CapacityEventKind::Grant { .. } => {
                    cur += 1;
                    max = max.max(cur);
                }
                CapacityEventKind::Revoke => cur -= 1,
                CapacityEventKind::Extend { .. } => {}
            }
        }
        max
    }

    /// Total leased node-seconds over the horizon — the *invasiveness*
    /// of the capacity stream (how much node time the pilots actually
    /// occupied). Leases still open at the horizon are counted to it.
    pub fn leased_node_secs(&self) -> f64 {
        let mut open: Vec<Option<SimTime>> = vec![None; self.n_nodes];
        let mut total = 0.0f64;
        for e in &self.events {
            match e.kind {
                CapacityEventKind::Grant { .. } => open[e.node as usize] = Some(e.at),
                CapacityEventKind::Extend { .. } => {}
                CapacityEventKind::Revoke => {
                    if let Some(a) = open[e.node as usize].take() {
                        total += e.at.since(a).as_secs_f64();
                    }
                }
            }
        }
        for a in open.into_iter().flatten() {
            total += self.end.since(a).as_secs_f64();
        }
        total
    }
}

/// An **incremental** capacity recorder: where
/// [`CapacityTrace::from_availability`] compiles a lease stream from a
/// complete interval trace, a `CapacityLog` accumulates the stream *as
/// it happens* — a live DES source pushes each pilot grant/extend/revoke
/// the moment the scheduler decides it, and the finished log converts
/// into an ordinary [`CapacityTrace`] for invasiveness accounting or
/// offline replay of the same run.
#[derive(Debug, Clone, Default)]
pub struct CapacityLog {
    events: Vec<CapacityEvent>,
    /// Highest node id seen + 1.
    n_nodes: usize,
}

impl CapacityLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, at: SimTime, node: u32, kind: CapacityEventKind) {
        self.n_nodes = self.n_nodes.max(node as usize + 1);
        self.events.push(CapacityEvent { at, node, kind });
    }

    /// Record a lease grant.
    pub fn grant(&mut self, at: SimTime, node: u32, deadline: SimTime) {
        self.push(at, node, CapacityEventKind::Grant { deadline });
    }

    /// Record a renewal.
    pub fn extend(&mut self, at: SimTime, node: u32, deadline: SimTime) {
        self.push(at, node, CapacityEventKind::Extend { deadline });
    }

    /// Record a reclaim.
    pub fn revoke(&mut self, at: SimTime, node: u32) {
        self.push(at, node, CapacityEventKind::Revoke);
    }

    /// Events recorded so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Close the log over `[start, end]` and validate the invariants.
    /// Leases still open get a synthetic revoke at `end` (the horizon
    /// reclaims whatever the scheduler had not), so the result always
    /// satisfies [`CapacityTrace::validate`].
    pub fn into_trace(mut self, start: SimTime, end: SimTime) -> CapacityTrace {
        self.events
            .sort_by_key(|e| (e.at, matches!(e.kind, CapacityEventKind::Grant { .. })));
        let mut open: Vec<bool> = vec![false; self.n_nodes];
        for e in &self.events {
            match e.kind {
                CapacityEventKind::Grant { .. } => open[e.node as usize] = true,
                CapacityEventKind::Revoke => open[e.node as usize] = false,
                CapacityEventKind::Extend { .. } => {}
            }
        }
        for (node, still_open) in open.into_iter().enumerate() {
            if still_open {
                self.events.push(CapacityEvent {
                    at: end,
                    node: node as u32,
                    kind: CapacityEventKind::Revoke,
                });
            }
        }
        let trace = CapacityTrace {
            start,
            end,
            n_nodes: self.n_nodes,
            events: self.events,
        };
        trace.validate();
        trace
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
            CapacityEventKind::Grant { deadline } => assert_eq!(deadline, t(700)),
            ref k => panic!("expected grant, got {k:?}"),
        }
        assert_eq!(cap.events[1].at, t(160));
        assert_eq!(cap.events[1].kind, CapacityEventKind::Revoke);
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
                CapacityEventKind::Extend { deadline } => Some((e.at, deadline)),
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
    fn back_to_back_intervals_release_before_regrant() {
        // min_busy separation of zero: node 0's second lease starts the
        // instant the first ends; the revoke must sort first.
        let tr = avail(vec![vec![(t(0), t(100)), (t(100), t(200))]]);
        let cap = CapacityTrace::from_availability(&tr, SimDuration::from_secs(50));
        cap.validate();
        let at_100: Vec<_> = cap.events.iter().filter(|e| e.at == t(100)).collect();
        assert_eq!(at_100.len(), 2);
        assert_eq!(at_100[0].kind, CapacityEventKind::Revoke);
        assert!(matches!(at_100[1].kind, CapacityEventKind::Grant { .. }));
    }

    #[test]
    #[should_panic(expected = "lease quantum must be positive")]
    fn zero_quantum_rejected() {
        let tr = avail(vec![vec![(t(0), t(100))]]);
        CapacityTrace::from_availability(&tr, SimDuration::ZERO);
    }

    #[test]
    fn capacity_log_accumulates_and_closes_open_leases() {
        let mut log = CapacityLog::new();
        log.grant(t(10), 0, t(100));
        log.grant(t(20), 1, t(80));
        log.extend(t(90), 0, t(200));
        log.revoke(t(80), 1);
        // Node 0 is still leased at the horizon: the close reclaims it.
        let trace = log.into_trace(t(0), t(150));
        assert_eq!(trace.n_grants(), 2);
        assert_eq!(
            trace
                .events
                .iter()
                .filter(|e| matches!(e.kind, CapacityEventKind::Revoke))
                .count(),
            2,
            "the open lease got a horizon revoke"
        );
        // 0: 10 → 150 (synthetic) = 140 s; 1: 20 → 80 = 60 s.
        assert!((trace.leased_node_secs() - 200.0).abs() < 1e-9);
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
                .any(|e| matches!(e.kind, CapacityEventKind::Extend { .. })),
            "the 1 s interval must be renewed many times"
        );
    }
}
