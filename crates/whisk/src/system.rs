//! The FaaS platform: controller, invokers, and the HPC-Whisk dynamic
//! worker protocol, as one event-driven state machine.
//!
//! Data path of one invocation (§II):
//! client → controller (routing by function hash over the *dynamic*
//! healthy set) → per-invoker Kafka topic → invoker poll loop → container
//! (warm, or cold-started) → execution → result → client.
//!
//! The HPC-Whisk extensions (§III-C) implemented here:
//!
//! * invokers register/de-register dynamically; the controller keeps a
//!   live list of routable invokers and answers **503** when it is empty;
//! * on SIGTERM the invoker stops pulling, the controller *moves* its
//!   unpulled topic messages to the global **fast lane**, the invoker
//!   flushes its internal buffer there too, and (for interruptible
//!   functions) aborts running executions and re-routes them;
//! * every invoker pulls the fast lane **before** its own topic;
//! * an invoker's poll loop costs events only while there is work: a
//!   poll that leaves nothing fetchable or buffered **parks** the loop,
//!   and the next produce it could fetch wakes it on the tick its
//!   jittered chain would have reached anyway (see [`PollChain`]);
//! * a silently-dead invoker keeps receiving requests until its missed
//!   health pings are noticed (`health_timeout`); in
//!   [`DynamicsMode::HpcWhisk`] the orphaned topic is then recovered to
//!   the fast lane, in [`DynamicsMode::Baseline`] it is dropped and the
//!   requests time out — the stock OpenWhisk failure the paper fixes.

use crate::action::FunctionSpec;
use crate::activation::ActivationRecord;
use crate::config::{DynamicsMode, WhiskConfig};
use crate::events::{WhiskEvent, WhiskNote};
use crate::ids::{stable_hash, ActivationId, FunctionId, InvokerId};
use crate::invoker::{Invoker, InvokerState, PollChain};
use metrics::{Outcome, Shed, StepSeries, Tally};
use mq::{Broker, TopicId};
use simcore::pool::Acquire;
use simcore::{Outbox, SimDuration, SimRng, SimTime};
use std::collections::{HashMap, VecDeque};

/// Worker-count series (the OpenWhisk-level perspective of Tables
/// II/III: healthy vs irresponsive workers over time).
#[derive(Debug, Clone)]
pub struct WhiskSeries {
    /// Healthy (serving) invokers.
    pub healthy: StepSeries,
    /// Irresponsive invokers: draining or dead-but-unnoticed.
    pub irresp: StepSeries,
}

/// Aggregate platform counters.
#[derive(Debug, Clone, Default)]
pub struct WhiskCounters {
    /// Invocations submitted by clients.
    pub submitted: u64,
    /// Submissions [`WhiskSys::invoke`] answered with an activation id.
    pub accepted: u64,
    /// Rejected with 503 (no healthy invoker).
    pub rejected_503: u64,
    /// Answered successfully.
    pub success: u64,
    /// Failed during execution.
    pub failed: u64,
    /// Timed out at the controller deadline.
    pub timeout: u64,
    /// Requests re-routed through the fast lane (buffer flush +
    /// interrupted executions).
    pub refired: u64,
    /// Unpulled messages moved topic → fast lane by the controller.
    pub moved_to_fastlane: u64,
    /// Warm container hits.
    pub warm_starts: u64,
    /// Cold starts.
    pub cold_starts: u64,
    /// Invokers that de-registered cleanly.
    pub drains_clean: u64,
    /// Invokers that died without de-registering.
    pub hard_deaths: u64,
    /// Orphaned messages recovered after a noticed death (HpcWhisk mode).
    pub recovered_after_death: u64,
    /// Orphaned messages dropped after a noticed death (Baseline mode).
    pub dropped_after_death: u64,
    /// `InvokerPoll` events executed.
    pub polls: u64,
    /// Polls that left nothing fetchable or buffered and parked their
    /// loop.
    pub polls_parked: u64,
    /// `TimeoutScan` events executed.
    pub timeout_scans: u64,
}

impl WhiskCounters {
    /// The request ledger these counters keep, with `in_flight`
    /// activations still unanswered ([`WhiskSys::in_flight`]).
    pub fn tally(&self, in_flight: u64) -> Tally {
        let mut t = Tally {
            accepted: self.accepted,
            completed: self.success,
            failed: self.failed,
            timed_out: self.timeout,
            in_flight,
            ..Tally::default()
        };
        t[Outcome::Shed(Shed::NoInvoker)] = self.rejected_503;
        t
    }
}

/// What every handler works on besides the invokers: kept apart from
/// them so that a handler can hold the one `&mut Invoker` its event
/// addresses — looked up once — and still start and answer activations.
struct Shared {
    cfg: WhiskConfig,
    functions: Vec<FunctionSpec>,
    /// The records whose deadline no timeout scan has passed yet, in id
    /// (= submission = deadline) order: `records[i]` is activation
    /// `records_base + i`. A scan answers what is still in flight at
    /// its deadline, so an id below `records_base` — *retired* — was
    /// answered, and nothing but "not in flight" is ever asked of it
    /// again. The window is `deadline` × request rate long (600 records
    /// at the paper's load), not the day's 864,000.
    records: VecDeque<ActivationRecord>,
    records_base: u64,
    rng: SimRng,
    counters: WhiskCounters,
}

/// Invoker ids below this index [`InvokerTable::dense`] directly. Callers
/// key invokers by pilot job id, and a cluster hands job ids out densely
/// from zero (~10⁵ a simulated day).
const DENSE_IDS: u64 = 1 << 20;

/// The registered invokers by id.
#[derive(Default)]
struct InvokerTable {
    /// `dense[id]` for `id < DENSE_IDS`, grown to the largest id seen.
    dense: Vec<Option<Box<Invoker>>>,
    /// Every other id. Never iterated, so its order is never observed.
    spill: HashMap<u64, Invoker>,
}

impl InvokerTable {
    #[inline]
    fn get(&self, id: InvokerId) -> Option<&Invoker> {
        if id.0 < DENSE_IDS {
            self.dense.get(id.0 as usize)?.as_deref()
        } else {
            self.spill.get(&id.0)
        }
    }

    #[inline]
    fn get_mut(&mut self, id: InvokerId) -> Option<&mut Invoker> {
        if id.0 < DENSE_IDS {
            self.dense.get_mut(id.0 as usize)?.as_deref_mut()
        } else {
            self.spill.get_mut(&id.0)
        }
    }

    /// Register `inv` under `id` (not registered: `start_invoker` checks).
    fn insert(&mut self, id: InvokerId, inv: Invoker) {
        if id.0 < DENSE_IDS {
            let i = id.0 as usize;
            if self.dense.len() <= i {
                self.dense.resize_with(i + 1, || None);
            }
            self.dense[i] = Some(Box::new(inv));
        } else {
            self.spill.insert(id.0, inv);
        }
    }

    fn remove(&mut self, id: InvokerId) -> Option<Invoker> {
        if id.0 < DENSE_IDS {
            self.dense.get_mut(id.0 as usize)?.take().map(|b| *b)
        } else {
            self.spill.remove(&id.0)
        }
    }
}

/// The FaaS platform state machine.
pub struct WhiskSys {
    shared: Shared,
    broker: Broker<ActivationId>,
    fast_lane: TopicId,
    invokers: InvokerTable,
    routable: Vec<InvokerId>,
    /// Origin of the timeout-scan grid (scans run at `scan_origin +
    /// k * timeout_scan_every`, `k >= 1`).
    scan_origin: SimTime,
    /// A `TimeoutScan` is scheduled; true only while a record is live.
    scan_armed: bool,
    seed: u64,
    series: WhiskSeries,
    n_healthy: i64,
    n_irresp: i64,
}

impl Shared {
    /// The record of `act`, unless retired.
    #[inline]
    fn live(&self, act: ActivationId) -> Option<&ActivationRecord> {
        let i = act.0.checked_sub(self.records_base)?;
        self.records.get(i as usize)
    }

    /// [`Self::live`], mutably.
    #[inline]
    fn live_mut(&mut self, act: ActivationId) -> Option<&mut ActivationRecord> {
        let i = act.0.checked_sub(self.records_base)?;
        self.records.get_mut(i as usize)
    }

    /// The record of `act` if the client is still waiting for it.
    #[inline]
    fn in_flight(&mut self, act: ActivationId) -> Option<&mut ActivationRecord> {
        self.live_mut(act).filter(|r| r.in_flight())
    }

    /// Count one more delivery attempt of `act` and put it on the fast
    /// lane, if the client is still waiting for it.
    fn refire(&mut self, act: ActivationId, broker: &mut Broker<ActivationId>, lane: TopicId) {
        if let Some(r) = self.in_flight(act) {
            r.attempts += 1;
            let submitted = r.submitted;
            broker.produce(lane, submitted, act);
            self.counters.refired += 1;
        }
    }

    /// `base` with the configured jitter, from the platform's stream.
    fn jitter(&mut self, base: SimDuration) -> SimDuration {
        self.cfg.jitter(base, &mut self.rng)
    }

    /// Start `inv`'s buffered activations on containers until capacity
    /// runs out.
    fn dispatch(
        &mut self,
        now: SimTime,
        id: InvokerId,
        inv: &mut Invoker,
        out: &mut Outbox<WhiskEvent>,
        notes: &mut Vec<WhiskNote>,
    ) {
        if !inv.alive() {
            return;
        }
        loop {
            let Some(&act) = inv.buffer.front() else {
                return;
            };
            let Some(f) = self.in_flight(act).map(|r| r.function) else {
                // Timed out while queued; drop silently.
                inv.buffer.pop_front();
                inv.ctrl_inflight = inv.ctrl_inflight.saturating_sub(1);
                continue;
            };
            match inv.pool.acquire(f) {
                Acquire::Warm => {
                    inv.buffer.pop_front();
                    inv.running.push((act, f));
                    self.counters.warm_starts += 1;
                    let service = self.functions[f.0 as usize].exec.service_time();
                    let d = self.jitter(self.cfg.dispatch) + service;
                    out.after(d, WhiskEvent::ExecDone { inv: id, act });
                }
                Acquire::Cold { .. } => {
                    inv.buffer.pop_front();
                    inv.running.push((act, f));
                    self.counters.cold_starts += 1;
                    let d = self.jitter(self.cfg.cold_start);
                    out.after(d, WhiskEvent::ColdStartDone { inv: id, act });
                }
                Acquire::ColdBlocked { .. } => {
                    // Containers are booting as fast as the node allows.
                    // Under moderate pressure the request just waits; a
                    // badly backed-up buffer means the node is thrashing
                    // (the paper's container-limit failure window, §V-C)
                    // and container creation starts failing.
                    if inv.buffer.len() >= self.cfg.buffer_max / 2 {
                        inv.buffer.pop_front();
                        inv.ctrl_inflight = inv.ctrl_inflight.saturating_sub(1);
                        self.answer(now, act, Outcome::Failed, notes);
                    } else {
                        return;
                    }
                }
                Acquire::NoCapacity => return,
            }
        }
    }

    /// Mark an activation answered and emit its note.
    fn answer(
        &mut self,
        now: SimTime,
        act: ActivationId,
        outcome: Outcome,
        notes: &mut Vec<WhiskNote>,
    ) {
        let rtt = self.jitter(self.cfg.client_rtt);
        let result_path = match outcome {
            Outcome::Completed => self.jitter(self.cfg.result_path),
            _ => SimDuration::ZERO,
        };
        let r = self
            .in_flight(act)
            .expect("answering once, before retiring");
        r.state = outcome;
        let (function, submitted, attempts) = (r.function, r.submitted, r.attempts);
        match outcome {
            Outcome::Completed => self.counters.success += 1,
            Outcome::Failed => self.counters.failed += 1,
            Outcome::TimedOut => self.counters.timeout += 1,
            other => unreachable!("{other:?} does not answer an activation"),
        }
        notes.push(WhiskNote::ActivationDone {
            act,
            function,
            outcome,
            submitted,
            answered: now + result_path + rtt,
            attempts,
        });
    }
}

impl WhiskSys {
    /// A fresh platform with no functions or invokers.
    pub fn new(cfg: WhiskConfig, seed: u64) -> Self {
        let mut broker = Broker::new();
        let fast_lane = broker.create_topic("fast-lane");
        WhiskSys {
            shared: Shared {
                cfg,
                functions: Vec::new(),
                records: VecDeque::new(),
                records_base: 0,
                rng: SimRng::seed_from_u64(seed ^ 0x7768_6973_6b00),
                counters: WhiskCounters::default(),
            },
            broker,
            fast_lane,
            invokers: InvokerTable::default(),
            routable: Vec::new(),
            scan_origin: SimTime::ZERO,
            scan_armed: false,
            seed,
            series: WhiskSeries {
                healthy: StepSeries::new(SimTime::ZERO, 0.0),
                irresp: StepSeries::new(SimTime::ZERO, 0.0),
            },
            n_healthy: 0,
            n_irresp: 0,
        }
    }

    /// Anchor the controller's periodic work: timeout scans run on the
    /// grid `now + k * timeout_scan_every`, and only at the ticks some
    /// deadline is waiting for.
    pub fn bootstrap(&mut self, now: SimTime, out: &mut Outbox<WhiskEvent>) {
        self.scan_origin = now;
        self.arm_scan(out);
    }

    /// Schedule the timeout scan at the first grid tick at or after the
    /// earliest deadline, unless one is scheduled or nothing is waiting.
    /// Records are in deadline order, so every activation is declared
    /// timed out at the first grid tick at or after its deadline — the
    /// instant a scan at every tick would find it.
    fn arm_scan(&mut self, out: &mut Outbox<WhiskEvent>) {
        if self.scan_armed {
            return;
        }
        let Some(deadline) = self.shared.records.front().map(|r| r.deadline) else {
            return;
        };
        let every = self.shared.cfg.timeout_scan_every;
        let k = (deadline - self.scan_origin)
            .as_millis()
            .div_ceil(every.as_millis().max(1))
            .max(1);
        self.scan_armed = true;
        out.at(self.scan_origin + every * k, WhiskEvent::TimeoutScan);
    }

    /// Deploy a function.
    pub fn register_function(&mut self, spec: FunctionSpec) -> FunctionId {
        let id = FunctionId(self.shared.functions.len() as u32);
        self.shared.functions.push(spec);
        id
    }

    /// Number of deployed functions.
    pub fn n_functions(&self) -> usize {
        self.shared.functions.len()
    }

    /// Healthy invoker count.
    pub fn n_healthy(&self) -> usize {
        self.n_healthy as usize
    }

    /// Counters.
    pub fn counters(&self) -> &WhiskCounters {
        &self.shared.counters
    }

    /// Worker-count series.
    pub fn series(&self) -> &WhiskSeries {
        &self.series
    }

    /// The worker-count series, at the end of a run.
    pub fn into_series(self) -> WhiskSeries {
        self.series
    }

    /// Activations the controller has not answered yet: the records no
    /// outcome has closed, as at the end of a run.
    pub fn in_flight(&self) -> u64 {
        let records = self.shared.records.iter();
        records.filter(|r| r.in_flight()).count() as u64
    }

    /// Controller record of an activation, kept until the timeout scan
    /// that passes its deadline; `None` once retired (tests/diagnostics).
    pub fn record(&self, act: ActivationId) -> Option<&ActivationRecord> {
        self.shared.live(act)
    }

    /// Depth of the fast lane (diagnostics).
    pub fn fast_lane_depth(&self) -> usize {
        self.broker.depth(self.fast_lane)
    }

    /// Lifecycle state and own-topic depth of a registered invoker
    /// (tests/diagnostics).
    pub fn invoker_status(&self, id: InvokerId) -> Option<(InvokerState, usize)> {
        let inv = self.invokers.get(id)?;
        Some((inv.state, self.broker.depth(inv.topic)))
    }

    // ------------------------------------------------------------------
    // Client API
    // ------------------------------------------------------------------

    /// Submit an invocation at `now` (client send time): its activation
    /// id, or [`Shed::NoInvoker`] — the 503 — when no healthy invoker is
    /// registered (§III-E).
    pub fn invoke(
        &mut self,
        now: SimTime,
        f: FunctionId,
        out: &mut Outbox<WhiskEvent>,
    ) -> Result<ActivationId, Shed> {
        assert!(
            (f.0 as usize) < self.shared.functions.len(),
            "unknown function"
        );
        self.shared.counters.submitted += 1;
        let Some(inv) = self.route(f) else {
            self.shared.counters.rejected_503 += 1;
            return Err(Shed::NoInvoker);
        };
        let act = ActivationId(self.shared.records_base + self.shared.records.len() as u64);
        let deadline = now + self.shared.cfg.deadline;
        self.shared.records.push_back(ActivationRecord {
            function: f,
            submitted: now,
            deadline,
            state: Outcome::InFlight,
            assigned: Some(inv),
            attempts: 1,
        });
        self.arm_scan(out);
        if let Some(i) = self.invokers.get_mut(inv) {
            i.ctrl_inflight += 1;
        }
        let delay = self.shared.jitter(self.shared.cfg.ctrl_overhead)
            + self.shared.jitter(self.shared.cfg.kafka_delay);
        out.after(delay, WhiskEvent::Enqueue { act, inv });
        self.shared.counters.accepted += 1;
        Ok(act)
    }

    /// OpenWhisk-style home-invoker routing: the function's hash picks a
    /// home position in the (sorted) routable list; linear probing finds
    /// a not-overloaded invoker, falling back to the home invoker.
    fn route(&self, f: FunctionId) -> Option<InvokerId> {
        if self.routable.is_empty() {
            return None;
        }
        let n = self.routable.len();
        let home = (stable_hash(f.0 as u64 + 1) % n as u64) as usize;
        for i in 0..n {
            let cand = self.routable[(home + i) % n];
            let inv = self.invokers.get(cand).expect("routable is registered");
            if inv.ctrl_inflight < inv.pool.slots() {
                return Some(cand);
            }
        }
        Some(self.routable[home])
    }

    // ------------------------------------------------------------------
    // Invoker lifecycle API (driven by the pilot-job glue)
    // ------------------------------------------------------------------

    /// A warmed-up pilot registers its invoker; it becomes routable
    /// immediately.
    pub fn start_invoker(
        &mut self,
        now: SimTime,
        key: u64,
        out: &mut Outbox<WhiskEvent>,
        notes: &mut Vec<WhiskNote>,
    ) -> InvokerId {
        let id = InvokerId(key);
        assert!(
            self.invokers.get(id).is_none(),
            "invoker {id} already registered"
        );
        let topic = self.broker.create_topic(&format!("invoker-{key}"));
        let poll = PollChain::new(self.seed, key, now, &self.shared.cfg);
        out.at(poll.tick(), WhiskEvent::InvokerPoll(id));
        self.invokers.insert(
            id,
            Invoker::new(
                topic,
                self.shared.cfg.container_slots,
                self.shared.cfg.cold_concurrency,
                poll,
            ),
        );
        let pos = self.routable.partition_point(|x| *x < id);
        self.routable.insert(pos, id);
        self.n_healthy += 1;
        self.push_series(now);
        notes.push(WhiskNote::InvokerUp(id));
        id
    }

    /// SIGTERM: begin the drain protocol (§III-C).
    pub fn sigterm_invoker(
        &mut self,
        now: SimTime,
        id: InvokerId,
        out: &mut Outbox<WhiskEvent>,
        notes: &mut Vec<WhiskNote>,
    ) {
        if self.shared.cfg.mode == DynamicsMode::Baseline {
            // Stock OpenWhisk has no SIGTERM handling (§II): the invoker
            // keeps serving obliviously until SIGKILL; its queue is lost.
            return;
        }
        let Some(inv) = self.invokers.get_mut(id) else {
            return;
        };
        if inv.state != InvokerState::Healthy {
            return;
        }
        inv.state = InvokerState::Draining;
        self.routable.retain(|x| *x != id);
        self.n_healthy -= 1;
        self.n_irresp += 1;
        self.push_series(now);
        notes.push(WhiskNote::InvokerDraining(id));

        // Controller half: move unpulled topic messages to the fast lane.
        let inv = self.invokers.get_mut(id).expect("just checked");
        let moved = self.broker.move_all(inv.topic, self.fast_lane, now);
        self.shared.counters.moved_to_fastlane += moved as u64;

        // Invoker half: flush the internal buffer.
        for act in inv.buffer.drain(..) {
            self.shared.refire(act, &mut self.broker, self.fast_lane);
        }
        // Interrupt running executions of interruptible functions and
        // re-route them too — in id order: the re-fire order decides
        // fast-lane offsets, and `running` is in no particular one.
        inv.running.sort_unstable();
        let shared = &mut self.shared;
        let (broker, pool) = (&mut self.broker, &mut inv.pool);
        inv.running.retain(|&(act, f)| {
            if !shared.functions[f.0 as usize].interruptible {
                return true;
            }
            pool.abandon();
            shared.refire(act, broker, self.fast_lane);
            false
        });
        self.wake_fast_lane(now, out);
        let d = self.shared.jitter(self.shared.cfg.drain_flush);
        out.after(d, WhiskEvent::DrainComplete(id));
    }

    /// Hard death: SIGKILL or node failure, no drain. In-buffer and
    /// running work is lost; the controller keeps routing to the corpse
    /// until the health timeout.
    pub fn kill_invoker(
        &mut self,
        now: SimTime,
        id: InvokerId,
        out: &mut Outbox<WhiskEvent>,
        notes: &mut Vec<WhiskNote>,
    ) {
        let Some(inv) = self.invokers.get_mut(id) else {
            return;
        };
        match inv.state {
            InvokerState::Healthy => {
                inv.state = InvokerState::DeadUnnoticed;
                inv.buffer.clear();
                inv.running.clear();
                self.shared.counters.hard_deaths += 1;
                self.n_healthy -= 1;
                self.n_irresp += 1;
                self.push_series(now);
                out.after(self.shared.cfg.health_timeout, WhiskEvent::DeathNoticed(id));
            }
            InvokerState::Draining => {
                // The controller already stopped routing; tear down now.
                self.shared.counters.hard_deaths += 1;
                self.remove_invoker(now, id, false, out, notes);
            }
            InvokerState::DeadUnnoticed => {}
        }
    }

    // ------------------------------------------------------------------
    // Event handling
    // ------------------------------------------------------------------

    /// Main event dispatch.
    pub fn handle(
        &mut self,
        now: SimTime,
        ev: WhiskEvent,
        out: &mut Outbox<WhiskEvent>,
        notes: &mut Vec<WhiskNote>,
    ) {
        match ev {
            WhiskEvent::Enqueue { act, inv } => self.on_enqueue(now, act, inv, out),
            WhiskEvent::InvokerPoll(id) => self.on_poll(now, id, out, notes),
            WhiskEvent::ColdStartDone { inv, act } => self.on_cold_done(now, inv, act, out),
            WhiskEvent::ExecDone { inv, act } => self.on_exec_done(now, inv, act, out, notes),
            WhiskEvent::DrainComplete(id) => {
                if self
                    .invokers
                    .get(id)
                    .is_some_and(|i| i.state == InvokerState::Draining)
                {
                    self.shared.counters.drains_clean += 1;
                    self.remove_invoker(now, id, true, out, notes);
                }
            }
            WhiskEvent::DeathNoticed(id) => {
                if self
                    .invokers
                    .get(id)
                    .is_some_and(|i| i.state == InvokerState::DeadUnnoticed)
                {
                    self.routable.retain(|x| *x != id);
                    self.remove_invoker(now, id, false, out, notes);
                }
            }
            WhiskEvent::TimeoutScan => {
                self.shared.counters.timeout_scans += 1;
                self.scan_armed = false;
                // Retire every record whose deadline has passed, answering
                // the ones still in flight.
                while let Some(r) = self.shared.records.front() {
                    if r.deadline > now {
                        break;
                    }
                    if r.in_flight() {
                        let act = ActivationId(self.shared.records_base);
                        self.shared.answer(now, act, Outcome::TimedOut, notes);
                    }
                    self.shared.records.pop_front();
                    self.shared.records_base += 1;
                }
                self.arm_scan(out);
            }
        }
    }

    fn on_enqueue(
        &mut self,
        now: SimTime,
        act: ActivationId,
        inv: InvokerId,
        out: &mut Outbox<WhiskEvent>,
    ) {
        let Some(submitted) = self.shared.in_flight(act).map(|r| r.submitted) else {
            return;
        };
        match self.invokers.get_mut(inv) {
            Some(i) => {
                // Delivered even to a dead-unnoticed invoker's topic:
                // the controller does not know better yet (and a corpse
                // is not woken — the health timeout recovers the topic).
                self.broker.produce(i.topic, submitted, act);
                if let Some(tick) = i.wake(now, &self.shared.cfg) {
                    out.at(tick, WhiskEvent::InvokerPoll(inv));
                }
            }
            None => {
                // The chosen invoker de-registered in flight; the fast
                // lane guarantees any surviving invoker picks it up.
                self.broker.produce(self.fast_lane, submitted, act);
                self.wake_fast_lane(now, out);
            }
        }
    }

    /// After a produce into the fast lane: any healthy invoker may fetch
    /// it and the first to poll wins, so every parked one is woken.
    fn wake_fast_lane(&mut self, now: SimTime, out: &mut Outbox<WhiskEvent>) {
        if self.broker.depth(self.fast_lane) == 0 {
            return;
        }
        for id in &self.routable {
            let inv = self.invokers.get_mut(*id).expect("routable is registered");
            if let Some(tick) = inv.wake(now, &self.shared.cfg) {
                out.at(tick, WhiskEvent::InvokerPoll(*id));
            }
        }
    }

    fn on_poll(
        &mut self,
        now: SimTime,
        id: InvokerId,
        out: &mut Outbox<WhiskEvent>,
        notes: &mut Vec<WhiskNote>,
    ) {
        self.shared.counters.polls += 1;
        let Some(inv) = self.invokers.get_mut(id) else {
            return; // gone — the poll loop dies with it
        };
        if inv.state != InvokerState::Healthy {
            return;
        }
        debug_assert!(
            !inv.parked && inv.poll.tick() == now,
            "poll off {id}'s chain"
        );
        let room = self.shared.cfg.buffer_max.saturating_sub(inv.buffer.len());
        if room > 0 {
            // Fast lane first (§III-C), own topic with the remainder.
            let before = inv.buffer.len();
            for m in self.broker.drain(self.fast_lane, room) {
                inv.buffer.push_back(m.payload);
                inv.ctrl_inflight += 1; // fast-lane work was unassigned
                if let Some(r) = self.shared.live_mut(m.payload) {
                    r.assigned = Some(id);
                }
            }
            let room = room - (inv.buffer.len() - before);
            let own = self.broker.drain(inv.topic, room);
            inv.buffer.extend(own.map(|m| m.payload));
        }
        self.shared.dispatch(now, id, inv, out, notes);
        // Re-arm only while the next tick could do something: fetch (a
        // topic it reads is non-empty) or dispatch (its buffer is; a
        // full buffer is a non-empty one). Otherwise park until a
        // produce wakes the loop.
        let next = inv.poll.advance(&self.shared.cfg);
        if !inv.buffer.is_empty()
            || self.broker.depth(inv.topic) > 0
            || self.broker.depth(self.fast_lane) > 0
        {
            out.at(next, WhiskEvent::InvokerPoll(id));
        } else {
            inv.parked = true;
            self.shared.counters.polls_parked += 1;
        }
    }

    fn on_cold_done(
        &mut self,
        _now: SimTime,
        id: InvokerId,
        act: ActivationId,
        out: &mut Outbox<WhiskEvent>,
    ) {
        let Some(inv) = self.invokers.get_mut(id) else {
            return;
        };
        if !inv.alive() {
            return;
        }
        inv.pool.cold_done();
        let Some(&(_, f)) = inv.running.iter().find(|(a, _)| *a == act) else {
            return; // aborted during drain
        };
        let service = self.shared.functions[f.0 as usize].exec.service_time();
        let d = self.shared.jitter(self.shared.cfg.dispatch) + service;
        out.after(d, WhiskEvent::ExecDone { inv: id, act });
    }

    fn on_exec_done(
        &mut self,
        now: SimTime,
        id: InvokerId,
        act: ActivationId,
        out: &mut Outbox<WhiskEvent>,
        notes: &mut Vec<WhiskNote>,
    ) {
        let Some(inv) = self.invokers.get_mut(id) else {
            return;
        };
        let Some(f) = inv.finish(act) else {
            return; // re-routed or invoker died meanwhile
        };
        inv.pool.release(f, now);
        inv.ctrl_inflight = inv.ctrl_inflight.saturating_sub(1);
        if self.shared.in_flight(act).is_some() {
            self.shared.answer(now, act, Outcome::Completed, notes);
        }
        // A slot freed: start the next buffered activation immediately.
        self.shared.dispatch(now, id, inv, out, notes);
    }

    fn remove_invoker(
        &mut self,
        now: SimTime,
        id: InvokerId,
        clean: bool,
        out: &mut Outbox<WhiskEvent>,
        notes: &mut Vec<WhiskNote>,
    ) {
        let inv = self.invokers.remove(id).expect("removing unknown invoker");
        // Catch stragglers delivered after the drain's move_all.
        let leftovers = self.broker.depth(inv.topic);
        if leftovers > 0 {
            match self.shared.cfg.mode {
                DynamicsMode::HpcWhisk => {
                    let n = self.broker.move_all(inv.topic, self.fast_lane, now);
                    if clean {
                        self.shared.counters.moved_to_fastlane += n as u64;
                    } else {
                        self.shared.counters.recovered_after_death += n as u64;
                    }
                    self.wake_fast_lane(now, out);
                }
                DynamicsMode::Baseline => {
                    let orphans = self.broker.delete_topic(inv.topic);
                    self.shared.counters.dropped_after_death += orphans.len() as u64;
                }
            }
        }
        if self.broker.is_live(inv.topic) {
            self.broker.delete_topic(inv.topic);
        }
        self.n_irresp -= 1;
        self.push_series(now);
        notes.push(WhiskNote::InvokerGone { inv: id, clean });
    }

    fn push_series(&mut self, now: SimTime) {
        self.series.healthy.set(now, self.n_healthy as f64);
        self.series.irresp.set(now, self.n_irresp as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::FunctionSpec;
    use simcore::SimDuration;

    fn sys() -> WhiskSys {
        WhiskSys::new(WhiskConfig::default(), 1)
    }

    #[test]
    fn function_registration_assigns_sequential_ids() {
        let mut s = sys();
        let a = s.register_function(FunctionSpec::sleep("a", SimDuration::from_millis(1)));
        let b = s.register_function(FunctionSpec::sleep("b", SimDuration::from_millis(1)));
        assert_eq!(a, FunctionId(0));
        assert_eq!(b, FunctionId(1));
        assert_eq!(s.n_functions(), 2);
    }

    #[test]
    fn routing_is_stable_for_a_fixed_healthy_set() {
        let mut s = sys();
        let f = s.register_function(FunctionSpec::sleep("f", SimDuration::from_millis(1)));
        let mut out = Outbox::new(SimTime::ZERO);
        let mut notes = Vec::new();
        for k in 0..5 {
            s.start_invoker(SimTime::ZERO, k, &mut out, &mut notes);
        }
        let first = s.route(f).unwrap();
        for _ in 0..20 {
            assert_eq!(s.route(f), Some(first), "same home while set unchanged");
        }
    }

    #[test]
    fn routing_spreads_distinct_functions() {
        let mut s = sys();
        let mut out = Outbox::new(SimTime::ZERO);
        let mut notes = Vec::new();
        for k in 0..8 {
            s.start_invoker(SimTime::ZERO, k, &mut out, &mut notes);
        }
        let mut homes = std::collections::HashSet::new();
        for i in 0..64 {
            let f = s.register_function(FunctionSpec::sleep(
                &format!("f{i}"),
                SimDuration::from_millis(1),
            ));
            homes.insert(s.route(f).unwrap());
        }
        assert!(
            homes.len() >= 5,
            "64 functions spread over 8 invokers: {homes:?}"
        );
    }

    #[test]
    fn an_arrival_neither_accepted_nor_shed_breaks_the_books() {
        let mut s = sys();
        let f = s.register_function(FunctionSpec::sleep("f", SimDuration::from_millis(1)));
        let mut out = Outbox::new(SimTime::ZERO);
        assert_eq!(s.invoke(SimTime::ZERO, f, &mut out), Err(Shed::NoInvoker));
        s.start_invoker(SimTime::ZERO, 1, &mut out, &mut Vec::new());
        assert!(s.invoke(SimTime::ZERO, f, &mut out).is_ok());
        let books = |s: &WhiskSys| {
            let c = s.counters();
            metrics::outcome::requests(&c.tally(s.in_flight()), c.submitted)
        };
        assert_eq!(books(&s), vec![]);
        // Submitted, then neither accepted nor shed: lost on the way in.
        s.shared.counters.submitted += 1;
        let unoffered = metrics::outcome::Violation::Unoffered {
            offered: 3,
            accepted: 1,
            shed: 1,
            offloaded: 0,
        };
        assert_eq!(books(&s), vec![unoffered]);
    }

    #[test]
    fn sigterm_unknown_or_double_is_harmless() {
        let mut s = sys();
        let mut out = Outbox::new(SimTime::ZERO);
        let mut notes = Vec::new();
        s.sigterm_invoker(SimTime::ZERO, InvokerId(9), &mut out, &mut notes);
        assert!(notes.is_empty());
        s.start_invoker(SimTime::ZERO, 1, &mut out, &mut notes);
        notes.clear();
        s.sigterm_invoker(SimTime::from_secs(1), InvokerId(1), &mut out, &mut notes);
        assert_eq!(notes.len(), 1);
        notes.clear();
        // Second SIGTERM: no double drain.
        s.sigterm_invoker(SimTime::from_secs(2), InvokerId(1), &mut out, &mut notes);
        assert!(notes.is_empty());
    }

    /// Dispatch everything due before `until`.
    fn run(s: &mut WhiskSys, engine: &mut simcore::Engine<WhiskEvent>, until: SimTime) {
        engine.run_until(
            until,
            &mut |now: SimTime, ev: WhiskEvent, out: &mut Outbox<WhiskEvent>| {
                s.handle(now, ev, out, &mut Vec::new());
            },
        );
    }

    #[test]
    fn sigterm_frees_the_slot_of_an_execution_whose_record_is_retired() {
        let mut s = sys();
        let mut engine = simcore::Engine::new();
        let slow = s.register_function(FunctionSpec::sleep("slow", SimDuration::from_secs(70)));
        let mut out = Outbox::new(SimTime::ZERO);
        s.start_invoker(SimTime::ZERO, 1, &mut out, &mut Vec::new());
        let r = s.invoke(SimTime::ZERO, slow, &mut out);
        let Ok(act) = r else {
            panic!("a healthy invoker is registered")
        };
        for (t, e) in out.drain() {
            engine.schedule(t, e);
        }
        // Timed out at 60 s and retired, 10 s before the execution ends.
        let t = SimTime::from_secs(62);
        run(&mut s, &mut engine, t);
        assert!(s.record(act).is_none());
        let inv = s.invokers.get(InvokerId(1)).unwrap();
        assert_eq!(
            (inv.running.as_slice(), inv.pool.busy()),
            (&[(act, slow)][..], 1)
        );

        s.sigterm_invoker(t, InvokerId(1), &mut Outbox::new(t), &mut Vec::new());
        let inv = s.invokers.get(InvokerId(1)).unwrap();
        assert_eq!((inv.running.as_slice(), inv.pool.busy()), (&[][..], 0));
        assert_eq!(s.counters().refired, 0);
        assert_eq!(s.fast_lane_depth(), 0);
    }

    #[test]
    fn invoker_table_indexes_small_ids_and_hashes_the_rest() {
        let mut s = sys();
        let mut out = Outbox::new(SimTime::ZERO);
        let mut notes = Vec::new();
        let keys = [0, 5, DENSE_IDS - 1, DENSE_IDS, u64::MAX];
        for k in keys {
            s.start_invoker(SimTime::ZERO, k, &mut out, &mut notes);
        }
        assert_eq!(s.invokers.dense.len() as u64, DENSE_IDS);
        assert_eq!(s.invokers.spill.len(), 2);
        for k in keys {
            assert!(s.invoker_status(InvokerId(k)).is_some(), "{k}");
        }
        assert!(s.invoker_status(InvokerId(4)).is_none());
        assert!(s.invoker_status(InvokerId(DENSE_IDS + 1)).is_none());
        for k in keys {
            s.kill_invoker(SimTime::ZERO, InvokerId(k), &mut out, &mut notes);
        }
        for k in keys {
            s.handle(
                SimTime::from_secs(10),
                WhiskEvent::DeathNoticed(InvokerId(k)),
                &mut out,
                &mut notes,
            );
            assert!(s.invoker_status(InvokerId(k)).is_none(), "{k}");
        }
        assert_eq!(s.n_healthy(), 0);
    }

    #[test]
    #[should_panic]
    fn duplicate_invoker_key_rejected() {
        let mut s = sys();
        let mut out = Outbox::new(SimTime::ZERO);
        let mut notes = Vec::new();
        s.start_invoker(SimTime::ZERO, 1, &mut out, &mut notes);
        s.start_invoker(SimTime::ZERO, 1, &mut out, &mut notes);
    }

    #[test]
    fn kill_while_draining_tears_down_immediately() {
        let mut s = sys();
        let mut out = Outbox::new(SimTime::ZERO);
        let mut notes = Vec::new();
        s.start_invoker(SimTime::ZERO, 1, &mut out, &mut notes);
        s.sigterm_invoker(SimTime::from_secs(1), InvokerId(1), &mut out, &mut notes);
        notes.clear();
        s.kill_invoker(SimTime::from_secs(2), InvokerId(1), &mut out, &mut notes);
        assert!(matches!(
            notes.as_slice(),
            [WhiskNote::InvokerGone { clean: false, .. }]
        ));
        assert_eq!(s.n_healthy(), 0);
        assert_eq!(s.counters().hard_deaths, 1);
    }
}
