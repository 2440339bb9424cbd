//! Gateway-side telemetry: the metric families of the serving plane —
//! its only ledger — wired so the hot paths never touch the registry.
//!
//! Layout follows the sharding of the plane itself. Submit-side
//! counters (accepted, delayed, sheds — all per action) are plain
//! relaxed [`CounterVec`]s shared by every submitter; the batched
//! submit path accumulates per-action accepted counts in its burst
//! scratch and flushes them with **one** atomic add per action per
//! burst. Invoker-side series (completed, cold starts, the two latency
//! histograms) live in a private [`SlotTelem`] shard per invoker
//! thread, written with the single-writer `*_owned` load+store
//! variants — the hot path costs one plain load+store plus one array
//! index per event, no locked RMW, no contention.
//!
//! The [`Registry`] only sees any of this at scrape time: each family
//! is a closure that reads the shared atomics and merges the
//! per-invoker shards. [`LoadReport`](crate::harness::LoadReport) is
//! built *from* these snapshots, and [`Totals`] (what the capacity
//! controller's feedback reads) sums the same atomics without a
//! snapshot, so the harness, the controller and the exposition can
//! never disagree.

use crate::action::ActionRegistry;
use crate::gateway::Shed;
use simcore::pool::PoolStats;
use std::sync::{Arc, Mutex};
use telemetry::{
    labels, Collected, Counter, CounterVec, Gauge, HistSnapshot, Histogram, MetricKind, Registry,
};

/// Per-invoker single-writer telemetry shard. Created by
/// [`GatewayTelemetry::new_slot`] at invoker start; only the owning
/// invoker thread writes (via the `*_owned` methods), scrape-time
/// closures merge across shards. Shards outlive their invoker so the
/// counters stay monotone across lease churn.
pub struct SlotTelem {
    /// Completions per action.
    pub completed: CounterVec,
    /// Cold-started completions per action (subset of `completed`).
    pub cold: CounterVec,
    /// End-to-end latency (admission → done), nanoseconds.
    pub lat_total: Histogram,
    /// Queue-wait share (admission → execution start), nanoseconds.
    pub lat_queue_wait: Histogram,
}

/// The serving plane's metric families. One per [`Gateway`]; hot paths
/// hold `Arc`s to the individual atomics, the registry reads them only
/// at [`Registry::snapshot`] time.
///
/// [`Gateway`]: crate::Gateway
pub struct GatewayTelemetry {
    registry: Arc<Registry>,
    n_actions: usize,
    /// Admissions per action (`gateway_requests_total{outcome="accepted"}`).
    pub accepted: Arc<CounterVec>,
    /// Delay-charged admissions per action (subset of accepted).
    pub delayed: Arc<CounterVec>,
    /// Sheds per action, one vec per [`Shed`] reason.
    pub shed_queue_full: Arc<CounterVec>,
    pub shed_action_saturated: Arc<CounterVec>,
    pub shed_no_invoker: Arc<CounterVec>,
    pub shed_delay_budget: Arc<CounterVec>,
    /// Envelopes that took the fast-lane hop during a drain.
    pub fastlane_moves: Arc<Counter>,
    /// Capacity leases granted (invokers started) / revoked (reaped).
    pub lease_grants: Arc<Counter>,
    pub lease_revokes: Arc<Counter>,
    /// Leases currently held: grants − revokes by construction.
    pub leases_live: Arc<Gauge>,
    /// Healthy (routable) invokers, set on every router rebuild.
    pub invokers_routable: Arc<Gauge>,
    /// Work-queue depth high-water across every queue (fast lane
    /// included), raised by the queues themselves.
    pub queue_highwater: Arc<Gauge>,
    /// Consumer wakes issued by producers across every invoker ring —
    /// each one is a potential submitter preemption on an
    /// oversubscribed machine (`gateway_submit_contention_total
    /// {source="queue_wake"}`).
    pub queue_wakes: Arc<Counter>,
    /// Collector wakes issued by invoker publishes on the completion
    /// gate (`source="completion_wake"`): nonzero only while a
    /// collector parks, as on an open-loop plane between arrivals.
    pub completion_wakes: Arc<Counter>,
    /// Container-pool lifecycle events, published as deltas at sweep /
    /// retire time (zero per-op cost): warm_hit, cold_start, lru_evict,
    /// keepalive_evict, drain_retired.
    pub pool_events: Arc<CounterVec>,
    slots: Arc<Mutex<Vec<Arc<SlotTelem>>>>,
}

/// The request ledger as plain values: the same atomics the
/// `gateway_requests_total` and `gateway_fastlane_moves_total`
/// families expose, summed over actions and invoker shards. All
/// monotone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Requests admitted (each completes exactly once as long as an
    /// invoker survives to serve it).
    pub accepted: u64,
    /// Admissions the shaper charged a nonzero virtual delay (a subset
    /// of `accepted`).
    pub delayed: u64,
    /// Sheds per reason, indexed by [`shed_code`].
    pub shed: [u64; 4],
    /// Requests executed and about to be published to a completion
    /// shard (counted in the invoker's flush, just before the publish).
    pub completed: u64,
    /// Envelopes that took the fast-lane hop during a drain (flushed by
    /// the invoker or rerouted by a racing producer).
    pub fastlane_moves: u64,
}

impl Totals {
    /// Sheds for one reason.
    pub fn shed_by(&self, reason: Shed) -> u64 {
        self.shed[shed_code(reason) as usize]
    }

    /// Total sheds across all reasons.
    pub fn shed_total(&self) -> u64 {
        self.shed.iter().sum()
    }

    /// Accepted minus completed — in-flight while running, lost only if
    /// the plane shut down with requests stranded. Saturating: a reader
    /// can catch `completed` ahead of `accepted` (the producer counts
    /// the admission after the enqueue, and a fast invoker can execute
    /// and count the request in between).
    pub fn outstanding(&self) -> u64 {
        self.accepted.saturating_sub(self.completed)
    }
}

/// Dense indices into [`GatewayTelemetry::pool_events`].
pub(crate) const POOL_WARM_HIT: usize = 0;
pub(crate) const POOL_COLD_START: usize = 1;
pub(crate) const POOL_LRU_EVICT: usize = 2;
pub(crate) const POOL_KEEPALIVE_EVICT: usize = 3;
pub(crate) const POOL_DRAIN_RETIRED: usize = 4;
const POOL_EVENT_NAMES: [&str; 5] = [
    "warm_hit",
    "cold_start",
    "lru_evict",
    "keepalive_evict",
    "drain_retired",
];

impl GatewayTelemetry {
    /// Build the family set for a gateway serving `action_names` and
    /// register every family with a fresh registry.
    pub fn new(action_names: Vec<String>) -> Self {
        let registry = Arc::new(Registry::new());
        let names: Arc<[String]> = action_names.into();
        let n = names.len();
        let t = GatewayTelemetry {
            registry: registry.clone(),
            n_actions: n,
            accepted: Arc::new(CounterVec::new(n)),
            delayed: Arc::new(CounterVec::new(n)),
            shed_queue_full: Arc::new(CounterVec::new(n)),
            shed_action_saturated: Arc::new(CounterVec::new(n)),
            shed_no_invoker: Arc::new(CounterVec::new(n)),
            shed_delay_budget: Arc::new(CounterVec::new(n)),
            fastlane_moves: Arc::new(Counter::new()),
            lease_grants: Arc::new(Counter::new()),
            lease_revokes: Arc::new(Counter::new()),
            leases_live: Arc::new(Gauge::new()),
            invokers_routable: Arc::new(Gauge::new()),
            queue_highwater: Arc::new(Gauge::new()),
            queue_wakes: Arc::new(Counter::new()),
            completion_wakes: Arc::new(Counter::new()),
            pool_events: Arc::new(CounterVec::new(POOL_EVENT_NAMES.len())),
            slots: Arc::new(Mutex::new(Vec::new())),
        };

        // gateway_requests_total{action, outcome}: submit-side vecs
        // plus the invoker shards merged per action.
        let submit = [
            ("accepted", t.accepted.clone()),
            ("delayed", t.delayed.clone()),
            ("shed_queue_full", t.shed_queue_full.clone()),
            ("shed_action_saturated", t.shed_action_saturated.clone()),
            ("shed_no_invoker", t.shed_no_invoker.clone()),
            ("shed_delay_budget", t.shed_delay_budget.clone()),
        ];
        let slots = t.slots.clone();
        let fam_names = names.clone();
        registry.register(
            "gateway_requests_total",
            "Request outcomes per action (accepted/delayed/shed_*/completed/cold)",
            MetricKind::Counter,
            Box::new(move || {
                let mut out = Vec::new();
                for (outcome, vec) in &submit {
                    for (a, name) in fam_names.iter().enumerate() {
                        out.push((
                            labels(&[("action", name), ("outcome", outcome)]),
                            Collected::Counter(vec.get(a)),
                        ));
                    }
                }
                let shards = slots.lock().unwrap_or_else(|e| e.into_inner());
                for (outcome, pick) in [("completed", 0usize), ("cold", 1usize)] {
                    for (a, name) in fam_names.iter().enumerate() {
                        let v: u64 = shards
                            .iter()
                            .map(|s| {
                                if pick == 0 {
                                    s.completed.get(a)
                                } else {
                                    s.cold.get(a)
                                }
                            })
                            .sum();
                        out.push((
                            labels(&[("action", name), ("outcome", outcome)]),
                            Collected::Counter(v),
                        ));
                    }
                }
                out
            }),
        );

        // gateway_latency_ns{kind}: per-invoker histogram shards merged
        // at scrape time.
        let slots = t.slots.clone();
        registry.register(
            "gateway_latency_ns",
            "Request latency in nanoseconds (kind=total|queue_wait)",
            MetricKind::Histogram,
            Box::new(move || {
                let shards = slots.lock().unwrap_or_else(|e| e.into_inner());
                let mut total = HistSnapshot::default();
                let mut wait = HistSnapshot::default();
                for s in shards.iter() {
                    total.merge(&s.lat_total.snapshot());
                    wait.merge(&s.lat_queue_wait.snapshot());
                }
                vec![
                    (labels(&[("kind", "total")]), Collected::Hist(total)),
                    (labels(&[("kind", "queue_wait")]), Collected::Hist(wait)),
                ]
            }),
        );

        let c = t.lease_grants.clone();
        registry.register(
            "gateway_lease_grants_total",
            "Capacity leases granted (invokers started)",
            MetricKind::Counter,
            Box::new(move || telemetry::one_series(Collected::Counter(c.get()))),
        );
        let c = t.lease_revokes.clone();
        registry.register(
            "gateway_lease_revokes_total",
            "Capacity leases revoked (invokers reaped)",
            MetricKind::Counter,
            Box::new(move || telemetry::one_series(Collected::Counter(c.get()))),
        );
        let g = t.leases_live.clone();
        registry.register(
            "gateway_leases_live",
            "Leases currently held (grants minus revokes)",
            MetricKind::Gauge,
            Box::new(move || telemetry::one_series(Collected::Gauge(g.get()))),
        );
        let g = t.invokers_routable.clone();
        registry.register(
            "gateway_invokers_routable",
            "Healthy (routable) invokers",
            MetricKind::Gauge,
            Box::new(move || telemetry::one_series(Collected::Gauge(g.get()))),
        );
        let c = t.fastlane_moves.clone();
        registry.register(
            "gateway_fastlane_moves_total",
            "Envelopes that took the fast-lane hop during a drain",
            MetricKind::Counter,
            Box::new(move || telemetry::one_series(Collected::Counter(c.get()))),
        );
        let g = t.queue_highwater.clone();
        registry.register(
            "gateway_queue_highwater",
            "Deepest work-queue backlog observed (any queue)",
            MetricKind::Gauge,
            Box::new(move || telemetry::one_series(Collected::Gauge(g.get()))),
        );
        let pool = t.pool_events.clone();
        registry.register(
            "gateway_pool_events_total",
            "Container-pool lifecycle events (published at sweep/retire)",
            MetricKind::Counter,
            Box::new(move || {
                POOL_EVENT_NAMES
                    .iter()
                    .enumerate()
                    .map(|(i, name)| (labels(&[("event", name)]), Collected::Counter(pool.get(i))))
                    .collect()
            }),
        );
        t
    }

    /// Register the admission shaper's charged-delay counter (the
    /// shaper owns the atomic; see
    /// [`AdmissionShaper`](crate::admission::AdmissionShaper)).
    pub(crate) fn register_shaper(&self, charged_ns: Arc<Counter>) {
        self.registry.register(
            "gateway_shaper_charged_delay_ns_total",
            "Total virtual delay charged by the admission shaper (ns)",
            MetricKind::Counter,
            Box::new(move || telemetry::one_series(Collected::Counter(charged_ns.get()))),
        );
    }

    /// Register `gateway_submit_contention_total{source}`: the CAS
    /// retries of the lock-free submit-path structures (the GCRA token
    /// line and the per-action in-flight caps), the consumer wakes
    /// producers issued on the work queues, the full-ring refusals of
    /// the MPSC rings, and, on the collect side, the collector wakes
    /// invokers issued on the completion gate. Every series is zero on
    /// an idle plane, and the CAS series on a single-submitter one, so
    /// a flat spot in the cores→ops/s curve is attributable from the
    /// exposition alone: which shared line the extra cores fought over.
    pub(crate) fn register_contention(
        &self,
        shaper_cas: Arc<Counter>,
        ring_full: Arc<Counter>,
        actions: Arc<ActionRegistry>,
    ) {
        let queue_wakes = self.queue_wakes.clone();
        let completion_wakes = self.completion_wakes.clone();
        self.registry.register(
            "gateway_submit_contention_total",
            "Submit/collect-path contention events (CAS retries, wakes, full rings)",
            MetricKind::Counter,
            Box::new(move || {
                vec![
                    (
                        labels(&[("source", "shaper_cas")]),
                        Collected::Counter(shaper_cas.get()),
                    ),
                    (
                        labels(&[("source", "admit_cas")]),
                        Collected::Counter(actions.admit_cas_retries()),
                    ),
                    (
                        labels(&[("source", "queue_wake")]),
                        Collected::Counter(queue_wakes.get()),
                    ),
                    (
                        labels(&[("source", "ring_full")]),
                        Collected::Counter(ring_full.get()),
                    ),
                    (
                        labels(&[("source", "completion_wake")]),
                        Collected::Counter(completion_wakes.get()),
                    ),
                ]
            }),
        );
    }

    /// The registry backing this gateway's families.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Number of actions the per-action vecs are sized for.
    pub fn n_actions(&self) -> usize {
        self.n_actions
    }

    /// Allocate (and retain for scraping) a fresh single-writer shard
    /// for a starting invoker.
    pub fn new_slot(&self) -> Arc<SlotTelem> {
        let slot = Arc::new(SlotTelem {
            completed: CounterVec::new(self.n_actions),
            cold: CounterVec::new(self.n_actions),
            lat_total: Histogram::new(),
            lat_queue_wait: Histogram::new(),
        });
        self.slots
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(slot.clone());
        slot
    }

    /// The request ledger as plain values: one relaxed load per
    /// action per submit-side vec plus one per action per invoker
    /// shard — no closures, no label rendering, cheap enough for the
    /// controller's feedback cadence. `accepted` is read before
    /// `completed`, so [`Totals::outstanding`] never overstates what
    /// was in flight at the moment `accepted` was read.
    pub fn totals(&self) -> Totals {
        let mut t = Totals {
            accepted: self.accepted.total(),
            delayed: self.delayed.total(),
            fastlane_moves: self.fastlane_moves.get(),
            ..Default::default()
        };
        for (reason, vec) in [
            (Shed::NoInvoker, &self.shed_no_invoker),
            (Shed::QueueFull, &self.shed_queue_full),
            (Shed::ActionSaturated, &self.shed_action_saturated),
            (Shed::DelayBudget, &self.shed_delay_budget),
        ] {
            t.shed[shed_code(reason) as usize] = vec.total();
        }
        // Keeps the relaxed loads above ahead of the ones below.
        std::sync::atomic::fence(std::sync::atomic::Ordering::Acquire);
        let shards = self.slots.lock().unwrap_or_else(|e| e.into_inner());
        t.completed = shards.iter().map(|s| s.completed.total()).sum();
        t
    }

    /// Count one shed on the submit path; hands the reason back so the
    /// caller returns exactly what was counted.
    #[inline]
    pub(crate) fn note_shed(&self, action: usize, reason: Shed) -> Shed {
        match reason {
            Shed::QueueFull => self.shed_queue_full.inc(action),
            Shed::ActionSaturated => self.shed_action_saturated.inc(action),
            Shed::NoInvoker => self.shed_no_invoker.inc(action),
            Shed::DelayBudget => self.shed_delay_budget.inc(action),
        }
        telemetry::flight::record(
            telemetry::EventKind::AdmissionShed,
            action as u64,
            shed_code(reason),
        );
        reason
    }

    /// Publish the change in a pool's lifetime stats since the last
    /// publish (called at sweep/retire time, never per-op).
    pub(crate) fn publish_pool_delta(&self, last: &mut PoolStats, now: PoolStats) {
        self.pool_events
            .add(POOL_WARM_HIT, now.warm_hits - last.warm_hits);
        self.pool_events
            .add(POOL_COLD_START, now.cold_starts - last.cold_starts);
        self.pool_events
            .add(POOL_LRU_EVICT, now.lru_evictions - last.lru_evictions);
        self.pool_events.add(
            POOL_KEEPALIVE_EVICT,
            now.keepalive_evictions - last.keepalive_evictions,
        );
        self.pool_events
            .add(POOL_DRAIN_RETIRED, now.drain_retired - last.drain_retired);
        *last = now;
    }
}

/// Stable numeric code for a shed reason (flight-recorder payloads).
pub fn shed_code(reason: Shed) -> u64 {
    match reason {
        Shed::NoInvoker => 0,
        Shed::QueueFull => 1,
        Shed::ActionSaturated => 2,
        Shed::DelayBudget => 3,
    }
}

/// Per-burst accepted-count accumulator: plain (non-atomic) per-action
/// tallies filled during a burst's admit pass and flushed with one
/// atomic add per action per burst, so a burst of 64 costs the shared
/// `accepted` lines one RMW per action, not 64.
#[derive(Default)]
pub(crate) struct BurstCounts {
    counts: Vec<u32>,
}

impl BurstCounts {
    #[inline]
    pub(crate) fn ensure(&mut self, n_actions: usize) {
        if self.counts.len() < n_actions {
            self.counts.resize(n_actions, 0);
        }
    }

    #[inline(always)]
    pub(crate) fn note(&mut self, action: usize) {
        if let Some(c) = self.counts.get_mut(action) {
            *c += 1;
        }
    }

    #[inline(always)]
    pub(crate) fn unnote(&mut self, action: usize) {
        if let Some(c) = self.counts.get_mut(action) {
            *c = c.saturating_sub(1);
        }
    }

    /// Flush the non-zero tallies into `accepted` and reset.
    pub(crate) fn flush(&mut self, accepted: &CounterVec) {
        for (a, c) in self.counts.iter_mut().enumerate() {
            if *c != 0 {
                accepted.add(a, *c as u64);
                *c = 0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_render_and_sum() {
        let t = GatewayTelemetry::new(vec!["f0".into(), "f1".into()]);
        t.accepted.add(0, 3);
        t.accepted.add(1, 2);
        t.shed_queue_full.inc(1);
        t.lease_grants.add(2);
        t.lease_revokes.inc();
        t.leases_live.set(1);
        let slot = t.new_slot();
        slot.completed.add_owned(0, 3);
        slot.lat_total.record_owned(1500);
        let snap = t.registry().snapshot();
        assert_eq!(
            snap.counter_sum("gateway_requests_total", &[("outcome", "accepted")]),
            5
        );
        assert_eq!(
            snap.counter(
                "gateway_requests_total",
                &[("action", "f0"), ("outcome", "completed")]
            ),
            Some(3)
        );
        // The plain-value reader sums the same atomics.
        let totals = t.totals();
        assert_eq!((totals.accepted, totals.completed), (5, 3));
        assert_eq!(totals.shed_by(Shed::QueueFull), 1);
        assert_eq!((totals.shed_total(), totals.outstanding()), (1, 2));
        assert_eq!(snap.counter("gateway_lease_grants_total", &[]), Some(2));
        assert_eq!(snap.gauge("gateway_leases_live", &[]), Some(1));
        let h = snap
            .histogram("gateway_latency_ns", &[("kind", "total")])
            .unwrap();
        assert_eq!(h.count, 1);
        let text = telemetry::render_prometheus(&snap);
        assert!(text.contains("gateway_requests_total{action=\"f0\",outcome=\"accepted\"} 3"));
        assert!(text.contains("gateway_latency_ns_count{kind=\"total\"} 1"));
    }

    #[test]
    fn burst_counts_flush_amortizes() {
        let t = GatewayTelemetry::new(vec!["a".into(), "b".into()]);
        let mut bc = BurstCounts::default();
        bc.ensure(2);
        bc.note(0);
        bc.note(0);
        bc.note(1);
        bc.unnote(1);
        bc.flush(&t.accepted);
        assert_eq!(t.accepted.get(0), 2);
        assert_eq!(t.accepted.get(1), 0);
        // Reset: a second flush adds nothing.
        bc.flush(&t.accepted);
        assert_eq!(t.accepted.get(0), 2);
    }

    #[test]
    fn pool_delta_publishing_is_incremental() {
        let t = GatewayTelemetry::new(vec!["a".into()]);
        let mut last = PoolStats::default();
        let s1 = PoolStats {
            warm_hits: 5,
            cold_starts: 2,
            ..Default::default()
        };
        t.publish_pool_delta(&mut last, s1);
        let s2 = PoolStats {
            warm_hits: 9,
            cold_starts: 2,
            drain_retired: 2,
            ..Default::default()
        };
        t.publish_pool_delta(&mut last, s2);
        assert_eq!(t.pool_events.get(POOL_WARM_HIT), 9);
        assert_eq!(t.pool_events.get(POOL_COLD_START), 2);
        assert_eq!(t.pool_events.get(POOL_DRAIN_RETIRED), 2);
    }
}
