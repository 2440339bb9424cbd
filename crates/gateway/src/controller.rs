//! The capacity controller: executes a stream of lease events against
//! a live [`Gateway`], owning the whole invoker lifecycle — the one
//! place in the codebase that calls `start_invoker` / `sigterm` /
//! `join_invoker` in anger.
//!
//! Events come from a [`LeaseSource`]: a precompiled [`LeasePlan`]
//! replay ([`PlanSource`]), or a live discrete-event simulation of the
//! HPC scheduler streaming pilot placements and evictions as they
//! happen (`core::DesLeaseSource`). The controller closes the loop the
//! other way too: each `feedback_every` it diffs the gateway's request
//! counters into a [`LoadFeedback`] and hands it to the source, so a
//! pilot manager can size its supply against *observed* load — the
//! paper's §IV cycle.
//!
//! The controller is a poll-driven state machine: [`poll`] applies
//! every due lease event and deadline check at a caller-supplied `now`,
//! so it can run on a background thread against the real clock
//! ([`run`]) *or* be stepped deterministically with a virtual clock
//! (the drain-stress matrix advances `now` per submitted request).
//!
//! The paper's §III-C timing is the point: a lease carries its
//! **deadline**, so the controller does not wait for the kill. At
//! `deadline - drain_headroom` it sigterms the invoker — atomically
//! unrouting it (and steepening the admission shaper) while the revoke
//! is still in the future — which gives the backlog the grace window to
//! drain through the fast lane *before* the node is reclaimed. A grant
//! whose remaining lease is already shorter than the headroom drains
//! immediately (its headroom point is in the past; the arithmetic is
//! checked, never panicking on the `Instant` underflow). An early
//! revoke (preemption) still works: it is simply a drain with no
//! headroom. A routable floor is respected: the controller never
//! headroom-drains the plane below `min_routable`; only an explicit
//! revoke (the batch scheduler reclaiming the node) can do that.
//!
//! [`poll`]: CapacityController::poll
//! [`run`]: CapacityController::run

use crate::gateway::{Gateway, InvokerToken};
use crate::lease::{LeaseEvent, LeaseEventKind, LeasePlan};
use crate::source::{LeaseSource, LoadFeedback, PlanSource};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use telemetry::flight::{self, EventKind};

/// Controller tuning.
#[derive(Debug, Clone, Copy)]
pub struct ControllerConfig {
    /// How long before a lease's deadline the drain starts (the §III-C
    /// grace window the controller grants itself).
    pub drain_headroom: Duration,
    /// Never headroom-drain below this many routable invokers; explicit
    /// revokes still execute (the scheduler owns the node).
    pub min_routable: usize,
    /// Upper bound on the background loop's sleep between polls.
    pub poll_interval: Duration,
    /// How often observed load is diffed into a [`LoadFeedback`] and
    /// fed to the source (the live analogue of the scheduler's
    /// `bf_interval`). `None` disables the feedback channel — the
    /// default, and a no-op for plan replays anyway.
    pub feedback_every: Option<Duration>,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            drain_headroom: Duration::from_millis(2),
            min_routable: 1,
            poll_interval: Duration::from_millis(1),
            feedback_every: None,
        }
    }
}

/// What the controller did over a run (all monotonic).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LeaseStats {
    /// Leases granted (invokers started), including any pinned floor.
    pub grants: u64,
    /// Deadlines extended on a live (non-draining) lease.
    pub extends: u64,
    /// Revokes executed (invokers reaped on lease events).
    pub revokes: u64,
    /// Drains started *ahead* of the revoke by the deadline-headroom
    /// logic — the §III-C early-warning path.
    pub deadline_drains: u64,
    /// Revokes that arrived **before the announced deadline** with no
    /// drain in progress: preemption without warning. A revoke at or
    /// after a deadline the controller knew about (but whose drain was
    /// floor-deferred, or whose headroom point predates the grant) is
    /// not a surprise — the deadline was announced.
    pub surprise_revokes: u64,
    /// Renewals that arrived after the drain had already begun: the old
    /// invoker is reaped and a fresh one started on the node.
    pub regrants_after_drain: u64,
    /// Headroom drains skipped to keep the routable floor.
    pub floor_deferrals: u64,
    /// Leases still active when [`finish`](CapacityController::finish)
    /// reaped them.
    pub reaped_at_finish: u64,
    /// Feedback windows delivered to the source.
    pub feedbacks: u64,
}

struct ActiveLease {
    node: u32,
    token: InvokerToken,
    deadline: Instant,
    draining: bool,
    /// The headroom drain came due but was blocked by the routable
    /// floor. Marks the deferral episode so the stat counts it once,
    /// and keeps the (already past) headroom point out of the next-wake
    /// computation. Cleared by an extend; a later poll with spare
    /// routable capacity still drains the lease.
    deferred: bool,
}

/// Executes a [`LeaseSource`]'s event stream against a gateway. See the
/// module docs.
pub struct CapacityController<'g> {
    gw: &'g Gateway,
    source: Box<dyn LeaseSource + 'g>,
    /// Scratch for the events a source poll returned (capacity reused
    /// across polls).
    due: Vec<LeaseEvent>,
    /// The epoch: event offsets and deadlines are relative to it.
    t0: Instant,
    cfg: ControllerConfig,
    active: Vec<ActiveLease>,
    stats: LeaseStats,
    /// Offset of the next feedback tick (feedback enabled only).
    next_feedback: Duration,
    /// Offset the last delivered window ended at.
    last_feedback: Duration,
    prev_arrivals: u64,
    prev_sheds: u64,
}

impl<'g> CapacityController<'g> {
    /// A controller that will replay `plan` with offsets measured from
    /// `epoch` (pass `Instant::now()` to start immediately).
    pub fn new(gw: &'g Gateway, plan: LeasePlan, cfg: ControllerConfig, epoch: Instant) -> Self {
        Self::from_source(gw, Box::new(PlanSource::new(plan)), cfg, epoch)
    }

    /// A controller drawing events from an arbitrary source — a live
    /// DES, a remote scheduler feed, or a wrapped plan.
    pub fn from_source(
        gw: &'g Gateway,
        source: Box<dyn LeaseSource + 'g>,
        cfg: ControllerConfig,
        epoch: Instant,
    ) -> Self {
        CapacityController {
            gw,
            source,
            due: Vec::new(),
            t0: epoch,
            cfg,
            active: Vec::new(),
            stats: LeaseStats::default(),
            next_feedback: cfg.feedback_every.unwrap_or(Duration::ZERO),
            last_feedback: Duration::ZERO,
            prev_arrivals: 0,
            prev_sheds: 0,
        }
    }

    /// Leases currently held (draining ones included).
    pub fn n_active(&self) -> usize {
        self.active.len()
    }

    /// Leases still routable (not draining).
    pub fn n_routable(&self) -> usize {
        self.active.iter().filter(|l| !l.draining).count()
    }

    /// Lease statistics so far.
    pub fn stats(&self) -> LeaseStats {
        self.stats
    }

    /// True once the source has no further events to deliver.
    pub fn plan_done(&self) -> bool {
        self.source.exhausted()
    }

    /// The source, for post-run inspection (e.g. a DES source's pilot
    /// statistics).
    pub fn source(&self) -> &dyn LeaseSource {
        self.source.as_ref()
    }

    /// Diff the gateway's cumulative request counters since the last
    /// window into a [`LoadFeedback`].
    fn collect_feedback(&mut self, offset: Duration) -> LoadFeedback {
        let c = self.gw.totals();
        let (sheds, arrivals) = (c.shed_total(), c.arrivals());
        let fb = LoadFeedback {
            window: offset.saturating_sub(self.last_feedback),
            arrivals: arrivals.saturating_sub(self.prev_arrivals),
            sheds: sheds.saturating_sub(self.prev_sheds),
            outstanding: c.outstanding(),
            routable: self.n_routable(),
        };
        self.prev_arrivals = arrivals;
        self.prev_sheds = sheds;
        self.last_feedback = offset;
        fb
    }

    /// Apply every event due at `now` and run the deadline-headroom
    /// scan. Returns the next instant at which something is scheduled
    /// to happen (`None` when the source is exhausted and no live lease
    /// has a pending deadline drain).
    pub fn poll(&mut self, now: Instant) -> Option<Instant> {
        let offset = now.saturating_duration_since(self.t0);
        // Feedback first: the source sees the load of the closing
        // window before deciding what this poll's events should be.
        if let Some(every) = self.cfg.feedback_every {
            if offset >= self.next_feedback {
                let fb = self.collect_feedback(offset);
                self.source.observe(&fb);
                self.stats.feedbacks += 1;
                self.next_feedback = offset + every;
            }
        }
        let hint = self.source.poll(offset, &mut self.due);
        let due = std::mem::take(&mut self.due);
        for ev in &due {
            debug_assert!(ev.at <= offset, "source emitted a future event");
            self.apply(*ev);
        }
        self.due = due;
        self.due.clear();
        // Deadline-aware drains: unroute ahead of the revoke, but never
        // below the routable floor. Scanning in deadline order makes
        // the floor deterministic when several deadlines are due. A
        // lease granted with less remaining than the headroom is picked
        // up here in the same poll — it drains immediately.
        let mut routable = self.n_routable();
        loop {
            let due = self
                .active
                .iter_mut()
                .filter(|l| !l.draining && l.deadline <= now + self.cfg.drain_headroom)
                .min_by_key(|l| l.deadline);
            let Some(lease) = due else { break };
            if routable <= self.cfg.min_routable {
                // Count the episode once, not once per poll.
                if !lease.deferred {
                    lease.deferred = true;
                    self.stats.floor_deferrals += 1;
                }
                break;
            }
            lease.draining = true;
            lease.deferred = false;
            routable -= 1;
            self.stats.deadline_drains += 1;
            flight::record(EventKind::DrainStart, lease.node as u64, 1);
            let drained = self.gw.sigterm(lease.token);
            debug_assert!(drained, "controller-held token must be live");
        }
        // Next wake: the earliest of the source's hint, the next
        // *future* headroom point of a live lease, and the next
        // feedback tick. `checked_sub` guards the headroom subtraction:
        // a deadline closer than the headroom (or an `Instant` with no
        // representable past) has no future headroom point — it either
        // already drained above or sits floor-deferred, and a deferred
        // lease's past headroom point must not be offered as a wake
        // time (it would busy-spin `run`); it gets another chance at
        // whatever poll follows the next transition.
        let next_src = if self.source.exhausted() {
            None
        } else {
            hint.map(|h| self.t0 + h.max(offset))
        };
        let next_deadline = self
            .active
            .iter()
            .filter(|l| !l.draining)
            .filter_map(|l| l.deadline.checked_sub(self.cfg.drain_headroom))
            .filter(|&t| t > now)
            .min();
        let next_fb = self
            .cfg
            .feedback_every
            .map(|_| self.t0 + self.next_feedback)
            .filter(|&t| t > now);
        [next_src, next_deadline, next_fb]
            .into_iter()
            .flatten()
            .min()
    }

    fn apply(&mut self, ev: LeaseEvent) {
        match ev.kind {
            LeaseEventKind::Grant { deadline } => {
                debug_assert!(
                    !self.active.iter().any(|l| l.node == ev.node),
                    "grant over a live lease on node {}",
                    ev.node
                );
                let token = self.gw.start_invoker();
                self.active.push(ActiveLease {
                    node: ev.node,
                    token,
                    deadline: self.t0 + deadline,
                    draining: false,
                    deferred: false,
                });
                self.stats.grants += 1;
            }
            LeaseEventKind::Extend { deadline } => {
                let Some(lease) = self.active.iter_mut().find(|l| l.node == ev.node) else {
                    debug_assert!(false, "extend without a lease on node {}", ev.node);
                    return;
                };
                if !lease.draining {
                    lease.deadline = self.t0 + deadline;
                    lease.deferred = false;
                    self.stats.extends += 1;
                } else {
                    // The renewal lost the race against the headroom
                    // drain: the old invoker is already unroutable, so
                    // reap it and start a fresh one on the node — a new
                    // pilot job on the same hardware.
                    self.gw.join_invoker(lease.token);
                    lease.token = self.gw.start_invoker();
                    lease.deadline = self.t0 + deadline;
                    lease.draining = false;
                    lease.deferred = false;
                    self.stats.regrants_after_drain += 1;
                }
            }
            LeaseEventKind::Revoke => {
                let Some(i) = self.active.iter().position(|l| l.node == ev.node) else {
                    debug_assert!(false, "revoke without a lease on node {}", ev.node);
                    return;
                };
                let lease = self.active.remove(i);
                if !lease.draining {
                    // A revoke at or past the announced deadline is not
                    // a surprise even though no drain ran: the drain
                    // was floor-deferred (or the headroom point predated
                    // the grant and the floor blocked the immediate
                    // drain). Only an early reclaim counts.
                    if self.t0 + ev.at < lease.deadline {
                        self.stats.surprise_revokes += 1;
                        flight::record(EventKind::LeaseRevoke, ev.node as u64, 1);
                    }
                    self.gw.sigterm(lease.token);
                }
                self.gw.join_invoker(lease.token);
                self.stats.revokes += 1;
            }
        }
    }

    /// Drive the source against the real clock until `stop` is set.
    /// Sleeps until the next scheduled transition, capped by
    /// `poll_interval` so a raised `stop` is noticed promptly.
    pub fn run(&mut self, stop: &AtomicBool) {
        while !stop.load(Ordering::Acquire) {
            let now = Instant::now();
            let next = self.poll(now);
            let until_next = next
                .map(|t| t.saturating_duration_since(now))
                .unwrap_or(self.cfg.poll_interval);
            // Sleep floor keeps a due transition from degenerating into
            // a pure spin; it yields to a sub-50 µs `poll_interval`
            // rather than violating the caller's cap (Ord::clamp
            // panics when min > max).
            let floor = Duration::from_micros(50).min(self.cfg.poll_interval);
            std::thread::sleep(until_next.clamp(floor, self.cfg.poll_interval.max(floor)));
        }
    }

    /// Reap every lease still held (finishing any in-progress drains)
    /// and return the final stats. The gateway survives — a caller can
    /// hand it to a new controller with a new source.
    pub fn finish(mut self) -> LeaseStats {
        for lease in &self.active {
            if !lease.draining {
                self.gw.sigterm(lease.token);
            }
            self.stats.reaped_at_finish += 1;
        }
        for lease in &self.active {
            self.gw.join_invoker(lease.token);
        }
        self.active.clear();
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{ActionBody, ActionId, ActionSpec};
    use crate::gateway::{GatewayConfig, Shed};
    use crate::lease::LeasePlan;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    fn gw() -> Gateway {
        Gateway::new(GatewayConfig::default(), vec![ActionSpec::noop("f")])
    }

    #[test]
    fn grant_extend_revoke_lifecycle_with_virtual_clock() {
        let gw = gw();
        let t0 = Instant::now();
        let p = LeasePlan::new(
            vec![
                LeaseEvent::grant(ms(0), 0, ms(50)),
                LeaseEvent::extend(ms(30), 0, ms(90)),
                LeaseEvent::revoke(ms(90), 0),
            ],
            ms(100),
        );
        let mut ctl = CapacityController::new(
            &gw,
            p,
            ControllerConfig {
                drain_headroom: ms(5),
                min_routable: 0,
                ..Default::default()
            },
            t0,
        );
        ctl.poll(t0);
        assert_eq!(ctl.n_routable(), 1);
        assert_eq!(gw.n_healthy(), 1);
        // Without the extend, t0+46ms would be inside the headroom
        // window; the extend at 30 ms pushes the deadline to 90 ms.
        ctl.poll(t0 + ms(46));
        assert_eq!(ctl.n_routable(), 1, "extend deferred the drain");
        // Headroom before the new deadline: drain starts, invoker
        // unrouted, lease still held.
        ctl.poll(t0 + ms(86));
        assert_eq!(ctl.n_routable(), 0);
        assert_eq!(ctl.n_active(), 1);
        assert_eq!(gw.n_healthy(), 0, "unrouted ahead of the revoke");
        // The revoke reaps it.
        ctl.poll(t0 + ms(90));
        assert_eq!(ctl.n_active(), 0);
        let s = ctl.finish();
        assert_eq!(s.grants, 1);
        assert_eq!(s.extends, 1);
        assert_eq!(s.deadline_drains, 1);
        assert_eq!(s.revokes, 1);
        assert_eq!(s.surprise_revokes, 0);
        assert_eq!(s.reaped_at_finish, 0);
    }

    #[test]
    fn early_revoke_is_a_surprise_drain() {
        let gw = gw();
        let t0 = Instant::now();
        let p = LeasePlan::new(
            vec![
                LeaseEvent::grant(ms(0), 0, ms(80)),
                LeaseEvent::revoke(ms(10), 0),
            ],
            ms(100),
        );
        let mut ctl = CapacityController::new(&gw, p, ControllerConfig::default(), t0);
        ctl.poll(t0);
        assert_eq!(gw.n_healthy(), 1);
        ctl.poll(t0 + ms(10));
        assert_eq!(gw.n_healthy(), 0);
        let s = ctl.finish();
        assert_eq!(s.surprise_revokes, 1);
        assert_eq!(s.deadline_drains, 0);
        assert_eq!(s.revokes, 1);
    }

    #[test]
    fn floor_blocks_headroom_drain_but_not_revoke() {
        let gw = gw();
        let t0 = Instant::now();
        let p = LeasePlan::new(
            vec![
                LeaseEvent::grant(ms(0), 0, ms(20)),
                LeaseEvent::revoke(ms(40), 0),
            ],
            ms(100),
        );
        let mut ctl = CapacityController::new(
            &gw,
            p,
            ControllerConfig {
                drain_headroom: ms(5),
                min_routable: 1,
                ..Default::default()
            },
            t0,
        );
        ctl.poll(t0);
        // Deadline passed, but draining would empty the plane: deferred.
        ctl.poll(t0 + ms(25));
        assert_eq!(ctl.n_routable(), 1);
        assert_eq!(ctl.stats().floor_deferrals, 1);
        // Re-polling neither re-counts the episode nor returns a wake
        // instant in the past (which would busy-spin `run`).
        let wake = ctl.poll(t0 + ms(26));
        ctl.poll(t0 + ms(27));
        assert_eq!(
            ctl.stats().floor_deferrals,
            1,
            "one episode, not one per poll"
        );
        if let Some(t) = wake {
            assert!(
                t > t0 + ms(26),
                "deferred headroom point must not be offered as a wake time"
            );
        }
        // The revoke executes regardless (the scheduler owns the node),
        // but it is not a *surprise*: the deadline had been announced
        // and passed — the drain was merely floor-deferred.
        ctl.poll(t0 + ms(40));
        assert_eq!(ctl.n_active(), 0);
        assert_eq!(gw.n_healthy(), 0);
        let s = ctl.finish();
        assert_eq!(s.revokes, 1);
        assert_eq!(
            s.surprise_revokes, 0,
            "a post-deadline revoke after a deferred drain was announced"
        );
    }

    #[test]
    fn short_deadline_grant_drains_immediately_not_as_surprise() {
        // A grant whose remaining lease is shorter than the headroom:
        // its headroom point is in the past at grant time. It must
        // drain in the same poll (checked arithmetic, no Instant
        // underflow panic), count once as a deadline drain, and its
        // deadline revoke must not be a surprise.
        let gw = gw();
        let t0 = Instant::now();
        let p = LeasePlan::new(
            vec![
                LeaseEvent::grant(ms(0), 0, ms(1)),
                LeaseEvent::revoke(ms(1), 0),
            ],
            ms(100),
        );
        let mut ctl = CapacityController::new(
            &gw,
            p,
            ControllerConfig {
                drain_headroom: ms(50),
                min_routable: 0,
                ..Default::default()
            },
            t0,
        );
        let wake = ctl.poll(t0);
        assert_eq!(ctl.n_active(), 1);
        assert_eq!(ctl.n_routable(), 0, "drained in the granting poll");
        assert_eq!(ctl.stats().deadline_drains, 1);
        if let Some(t) = wake {
            assert!(t > t0, "no past wake from the drained lease");
        }
        ctl.poll(t0 + ms(1));
        assert_eq!(ctl.n_active(), 0);
        let s = ctl.finish();
        assert_eq!(s.deadline_drains, 1, "counted once");
        assert_eq!(s.surprise_revokes, 0, "the deadline was announced");
        assert_eq!(s.revokes, 1);
    }

    #[test]
    fn short_deadline_grant_under_floor_still_not_surprise() {
        // Same shape but the floor blocks the immediate drain: the
        // revoke at the (announced, passed) deadline is still not a
        // surprise, and the episode counts once as a floor deferral.
        let gw = gw();
        let t0 = Instant::now();
        let p = LeasePlan::new(
            vec![
                LeaseEvent::grant(ms(0), 0, ms(1)),
                LeaseEvent::revoke(ms(2), 0),
            ],
            ms(100),
        );
        let mut ctl = CapacityController::new(
            &gw,
            p,
            ControllerConfig {
                drain_headroom: ms(50),
                min_routable: 1,
                ..Default::default()
            },
            t0,
        );
        ctl.poll(t0);
        assert_eq!(ctl.n_routable(), 1, "floor kept it routable");
        assert_eq!(ctl.stats().floor_deferrals, 1);
        ctl.poll(t0 + ms(2));
        let s = ctl.finish();
        assert_eq!(s.revokes, 1);
        assert_eq!(s.surprise_revokes, 0);
        assert_eq!(s.deadline_drains, 0);
    }

    #[test]
    fn regrant_after_drain_replaces_the_invoker() {
        let gw = gw();
        let t0 = Instant::now();
        let p = LeasePlan::new(
            vec![
                LeaseEvent::grant(ms(0), 0, ms(10)),
                // The renewal arrives after the deadline drain began.
                LeaseEvent::extend(ms(20), 0, ms(80)),
                LeaseEvent::revoke(ms(80), 0),
            ],
            ms(100),
        );
        let mut ctl = CapacityController::new(
            &gw,
            p,
            ControllerConfig {
                drain_headroom: ms(2),
                min_routable: 0,
                ..Default::default()
            },
            t0,
        );
        ctl.poll(t0);
        ctl.poll(t0 + ms(12));
        assert_eq!(ctl.n_routable(), 0, "drained at the deadline");
        ctl.poll(t0 + ms(20));
        assert_eq!(ctl.n_routable(), 1, "regranted on the same node");
        assert_eq!(gw.n_healthy(), 1);
        let s = ctl.finish();
        assert_eq!(s.regrants_after_drain, 1);
        assert_eq!(s.grants, 1, "a regrant is not a plan grant");
    }

    #[test]
    fn feedback_windows_reach_the_source() {
        // A recording source: captures every LoadFeedback it is handed.
        struct Recorder {
            seen: Vec<LoadFeedback>,
            done: bool,
        }
        impl LeaseSource for Recorder {
            fn poll(&mut self, _now: Duration, _out: &mut Vec<LeaseEvent>) -> Option<Duration> {
                None
            }
            fn observe(&mut self, fb: &LoadFeedback) {
                self.seen.push(*fb);
            }
            fn exhausted(&self) -> bool {
                self.done
            }
        }
        let gw = gw();
        let t0 = Instant::now();
        let mut ctl = CapacityController::from_source(
            &gw,
            Box::new(Recorder {
                seen: Vec::new(),
                done: false,
            }),
            ControllerConfig {
                feedback_every: Some(ms(10)),
                ..Default::default()
            },
            t0,
        );
        // First tick is scheduled at one interval, not the epoch.
        let wake = ctl.poll(t0);
        assert_eq!(wake, Some(t0 + ms(10)), "next wake is the feedback tick");
        ctl.poll(t0 + ms(10));
        // Drive some traffic (no invokers: every submit sheds) and
        // check the next window counts it.
        for i in 0..7u64 {
            let _ = gw.invoke(ActionId(0), i);
        }
        ctl.poll(t0 + ms(20));
        let s = ctl.stats();
        assert_eq!(s.feedbacks, 2);
        ctl.finish();
    }

    #[test]
    fn feedback_reads_window_deltas_off_the_ledger() {
        // One invoker on 2 ms bodies behind a queue bound of 4: a burst
        // admits a handful and sheds the rest `QueueFull`.
        let gw = Gateway::new(
            GatewayConfig {
                queue_capacity: 4,
                ..Default::default()
            },
            vec![ActionSpec::noop("f").with_body(ActionBody::Sleep(ms(2)))],
        );
        gw.start_invoker();
        let mut ctl = CapacityController::new(
            &gw,
            LeasePlan::new(vec![], ms(100)),
            ControllerConfig::default(),
            Instant::now(),
        );
        let burst = |n: u64| {
            let shed = |i: &u64| match gw.invoke(ActionId(0), *i) {
                Ok(_) => false,
                Err(Shed::QueueFull) => true,
                Err(other) => panic!("unexpected shed {other:?}"),
            };
            (0..n).filter(shed).count() as u64
        };
        let mut col = gw.collector();
        let mut collect = |n: u64| {
            let mut done = Vec::new();
            while (done.len() as u64) < n {
                let got = gw.collect_wait(&mut col, &mut done, Duration::from_secs(10));
                assert!(got > 0, "completion");
            }
        };
        let shed1 = burst(32);
        assert!(shed1 > 0 && shed1 < 32, "shed {shed1} of 32");
        let fb1 = ctl.collect_feedback(ms(10));
        assert_eq!((fb1.window, fb1.arrivals, fb1.sheds), (ms(10), 32, shed1));
        assert!(fb1.outstanding <= 32 - shed1);
        collect(32 - shed1);
        // The second window reports its own burst, not the running sum,
        // and nothing is outstanding once everything is collected.
        let shed2 = burst(12);
        collect(12 - shed2);
        let fb2 = ctl.collect_feedback(ms(30));
        assert_eq!(
            (fb2.window, fb2.arrivals, fb2.sheds, fb2.outstanding),
            (ms(20), 12, shed2, 0)
        );
        ctl.finish();
        assert_eq!(gw.shutdown(), 0);
    }
}
