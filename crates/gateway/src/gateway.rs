//! The gateway: admission control, sharded routing, invoker threads,
//! and the §III-C drain protocol under real concurrency.
//!
//! Data path (one request):
//!
//! 1. **Admission** — a per-action in-flight CAS plus a per-queue bound
//!    checked at produce time; overload sheds with a typed reason
//!    instead of building unbounded queues.
//! 2. **Routing** — one shard-local read lock, no global lock
//!    ([`crate::route::Router`]). A key has two candidates, its hash
//!    home and a second invoker; the request goes to the one with less
//!    outstanding work (produced to its ring minus executed), home on a
//!    tie. One routable invoker reads no load.
//! 3. **Queueing** — the chosen invoker's lock-free MPSC ring assigns
//!    the offset ([`crate::ring::RingQueue`], `mq` semantics).
//! 4. **Execution** — the invoker thread drains a **batch** of up to
//!    32 envelopes per pass, shared fast lane first, topped up from
//!    its own ring; placement goes through its private
//!    [`ContainerPool`] (the DES plane's pool, under `Instant`: cold
//!    start, keep-alive, LRU) and the body runs for real.
//! 5. **Completion** — one [`Completion`] per executed request,
//!    carrying queue-wait/service/total latencies, appended batch-wise
//!    to the plane's **one completion buffer** under its mutex (one
//!    lock per batch). Each consumer holds a [`Collector`] and takes
//!    everything pending with one swap via
//!    [`Gateway::collect_completions_with`] / [`Gateway::collect_wait`];
//!    a sweep over an empty buffer takes no lock.
//!
//! Drain (`sigterm` → `join`): the controller atomically unroutes the
//! invoker and flips its state; the invoker finishes the batch it has
//! already popped (in-flight work, executed normally), atomically
//! closes its queue and moves the unstarted backlog to the fast lane
//! with `produced_at` preserved. A producer that raced the closure gets
//! its request back and reroutes to the fast lane itself — accepted
//! requests are never lost and never duplicated, at any batch size.

use crate::action::{ActionId, ActionRegistry, ActionSpec};
use crate::admission::{AdmissionPolicy, AdmissionShaper, Shape};
use crate::park::Park;
use crate::queue::{Envelope, FastLane, Produce, ProduceBatch, Request};
use crate::ring::RingQueue;
use crate::route::Router;
use crate::telem::{BurstCounts, GatewayTelemetry, SlotTelem};
use metrics::Tally;
use simcore::pool::{Acquire, ContainerPool, PoolStats};
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use telemetry::flight::{self, EventKind};
use telemetry::Counter;

pub use metrics::outcome::Shed;

/// A successful admission: the request id plus the virtual delay the
/// admission shaper charged. Under [`AdmissionPolicy::HardShed`] (and
/// inside the token bucket's burst allowance) the delay is zero; a
/// nonzero delay marks a *delayed* admission — the typed middle ground
/// between a free admit and a shed, surfaced per request so callers can
/// account shed vs delayed vs lost separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Admit {
    /// Controller-assigned request id.
    pub id: u64,
    /// Virtual delay charged by the admission shaper.
    pub delay: Duration,
}

impl Admit {
    /// True when the shaper charged this admission a nonzero delay.
    pub fn delayed(&self) -> bool {
        !self.delay.is_zero()
    }
}

/// One executed invocation.
#[derive(Debug, Clone, Copy)]
pub struct Completion {
    /// Controller-assigned request id.
    pub id: u64,
    /// The action executed.
    pub action: ActionId,
    /// The invoker that executed it.
    pub invoker: u64,
    /// The body's return value.
    pub value: u64,
    /// Whether a container had to be cold-started.
    pub cold: bool,
    /// Admission → execution start.
    pub queue_wait: Duration,
    /// Execution start → done (includes any cold-start penalty).
    pub service: Duration,
    /// Admission → done.
    pub total: Duration,
}

/// Routing-table stripes (see [`Router::new`]).
const SHARDS: usize = 8;

/// An invoker runs its keep-alive sweep at least this often (in
/// requests executed), even under load.
const SWEEP_EVERY_OPS: u64 = 1_024;

/// How long an idle invoker parks before re-polling the fast lane and
/// its drain flag. The re-poll is load-bearing: 500 µs keeps the vCPUs
/// of a lightly loaded plane awake, so a sleeping body's answer is
/// collected sooner than with a 20 ms park.
const PARK: Duration = Duration::from_micros(500);

/// Max envelopes an invoker pops per pass of its loop: the fast lane
/// first (no lock while it is empty), topped up from the home ring.
const DRAIN_BATCH: usize = 32;

/// Tuning knobs of the serving plane.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Per-invoker queue admission bound.
    pub queue_capacity: usize,
    /// Container slots per invoker pool (at least 1; [`Gateway::new`]
    /// panics on 0).
    pub pool_slots: usize,
    /// How admissions are shaped beyond the structural bounds:
    /// [`AdmissionPolicy::HardShed`] (default, the historical
    /// behaviour) or a capacity-tracking token bucket that degrades
    /// through a bounded delay before shedding.
    pub admission: AdmissionPolicy,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            queue_capacity: 4_096,
            pool_slots: 64,
            admission: AdmissionPolicy::HardShed,
        }
    }
}

const STATE_HEALTHY: u8 = 0;
const STATE_DRAINING: u8 = 1;
const STATE_GONE: u8 = 2;

/// The shared handle of one invoker: its state flag, its work queue
/// and how far it has worked through it.
pub struct InvokerHandle {
    /// Stable invoker id (unique per gateway, never reused).
    pub id: u64,
    state: AtomicU8,
    /// One past the last ring offset this invoker has executed, stored
    /// by the invoker thread once per batch after the batch runs.
    done: AtomicU64,
    queue: RingQueue,
}

impl InvokerHandle {
    fn is_healthy(&self) -> bool {
        self.state.load(Ordering::Acquire) == STATE_HEALTHY
    }

    /// Requests produced to this invoker's ring and not yet executed:
    /// queued plus the batch in hand. Fast-lane work belongs to no
    /// invoker and is not counted.
    fn outstanding(&self) -> u64 {
        let done = self.done.load(Ordering::Relaxed);
        self.queue.total_produced().saturating_sub(done)
    }
}

/// Capability to sigterm/join one started invoker. Generation-checked:
/// a token for a slot that has since been reaped and reused is rejected
/// instead of acting on the wrong invoker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvokerToken {
    index: u32,
    generation: u32,
    /// The invoker's stable id (for logs/assertions).
    pub id: u64,
}

struct Slot {
    generation: u32,
    handle: Option<Arc<InvokerHandle>>,
    join: Option<JoinHandle<PoolStats>>,
}

/// The plane's one completion buffer, shared by every invoker and
/// every collector. A publish appends a batch under the mutex; a sweep
/// swaps the whole buffer out under it, so buffers circulate and a
/// steady-state publish allocates nothing. `seq` bumps after every
/// publish; an idle collector parks on `park` until it moves (a wake is
/// paid only while one is parked, and counted as `completion_wake`).
struct Completions {
    buf: Mutex<Vec<Completion>>,
    /// `buf.len()`, stored under the lock and read without it, like the
    /// fast lane's ([`crate::queue`]): an empty sweep takes no lock. A
    /// stale zero strands nothing: the length is stored before `seq`
    /// bumps, so a collector that read the new epoch sees it, and one
    /// that read the old epoch is woken.
    len: AtomicUsize,
    seq: AtomicU64,
    park: Park,
}

impl Completions {
    /// Append a batch, leaving `done` empty with its capacity, then bump
    /// the epoch and wake parked collectors.
    fn publish(&self, done: &mut Vec<Completion>) {
        if done.is_empty() {
            return;
        }
        let mut buf = self.buf.lock().unwrap_or_else(|e| e.into_inner());
        buf.append(done);
        self.len.store(buf.len(), Ordering::Release);
        drop(buf);
        self.seq.fetch_add(1, Ordering::Release);
        self.park.wake();
    }

    /// Move everything published into `out`, oldest first; returns how
    /// many. An empty `out` trades places with the buffer; a non-empty
    /// one is appended to.
    fn drain_into(&self, out: &mut Vec<Completion>) -> usize {
        if self.len.load(Ordering::Acquire) == 0 {
            return 0;
        }
        let mut buf = self.buf.lock().unwrap_or_else(|e| e.into_inner());
        let n = buf.len();
        if out.is_empty() {
            std::mem::swap(&mut *buf, out);
        } else {
            out.append(&mut buf);
        }
        self.len.store(0, Ordering::Release);
        n
    }
}

/// A collecting thread's handle for [`Gateway::collect_completions_with`]
/// and [`Gateway::collect_wait`]. It holds nothing: every collector
/// sweeps the one shared buffer.
#[derive(Debug)]
pub struct Collector;

/// Caller-held scratch for [`Gateway::invoke_burst`]: the per-target
/// buckets of a burst, kept across calls so their backing allocations
/// are reused instead of rebuilt per burst. One per submitter thread
/// (`Default::default()` to create); the gateway clears it before
/// returning, dropping its invoker-handle references so a retired
/// invoker is never pinned between bursts.
#[derive(Default)]
pub struct BurstScratch {
    buckets: Vec<Bucket>,
    used: usize,
    /// Router index → the bucket last made for the target there. An
    /// entry is a hint: it is trusted only while that bucket is in use
    /// and holds the same target, so neither a rebuild nor a past
    /// burst can misdirect a request, only cost a scan.
    by_index: Vec<usize>,
    /// Plain per-action accepted tallies, flushed to the telemetry
    /// plane with one atomic add per action per burst.
    counts: BurstCounts,
}

#[derive(Default)]
struct Bucket {
    target: Option<Arc<InvokerHandle>>,
    /// The target's outstanding work, read once when the bucket was
    /// made; its load adds the requests bucketed since.
    base: u64,
    reqs: Vec<Request>,
    idx: Vec<usize>,
    /// Per-request shaper charge (index-aligned with `reqs`), so a
    /// produce-pass refusal refunds exactly what the admit pass
    /// charged, even if a capacity change landed in between.
    costs: Vec<u64>,
}

impl Bucket {
    fn load(&self) -> u64 {
        self.base + self.reqs.len() as u64
    }
}

impl BurstScratch {
    /// The position of the bucket for `target`, found at router index
    /// `index`: the indexed bucket when it still holds `target`, else a
    /// scan, else a new bucket (reusing a spare slot's allocations when
    /// one exists) whose load is read now.
    fn bucket_for(&mut self, index: usize, target: &Arc<InvokerHandle>) -> usize {
        let holds = |b: &Bucket| b.target.as_ref().is_some_and(|t| Arc::ptr_eq(t, target));
        let used = &self.buckets[..self.used];
        if let Some(&b) = self.by_index.get(index) {
            if used.get(b).is_some_and(holds) {
                return b;
            }
        }
        let b = used.iter().position(holds).unwrap_or_else(|| {
            if self.used == self.buckets.len() {
                self.buckets.push(Bucket::default());
            }
            let bucket = &mut self.buckets[self.used];
            bucket.target = Some(target.clone());
            bucket.base = target.outstanding();
            self.used += 1;
            self.used - 1
        });
        if index >= self.by_index.len() {
            self.by_index.resize(index + 1, usize::MAX);
        }
        self.by_index[index] = b;
        b
    }

    /// Clear the used buckets (dropping target handles, keeping the
    /// request/index capacity) and mark the scratch reusable.
    fn finish(&mut self) {
        for bucket in &mut self.buckets[..self.used] {
            bucket.target = None;
            bucket.reqs.clear();
            bucket.idx.clear();
            bucket.costs.clear();
        }
        self.used = 0;
    }
}

/// The live HPC-Whisk serving plane.
pub struct Gateway {
    cfg: GatewayConfig,
    actions: Arc<ActionRegistry>,
    router: Router<Arc<InvokerHandle>>,
    slots: Mutex<Vec<Slot>>,
    fast: Arc<FastLane>,
    /// The completion buffer and its wake gate, shared with every
    /// invoker thread.
    completions: Arc<Completions>,
    /// The token-bucket admission shaper (inert under `HardShed`);
    /// capacity is re-fed on every router rebuild.
    shaper: AdmissionShaper,
    /// Full-ring refusals across every invoker ring (the `ring_full`
    /// contention source; shared so new rings keep one series).
    ring_full: Arc<Counter>,
    next_request: AtomicU64,
    next_invoker: AtomicU64,
    /// Pool stats of reaped invokers, folded in at join time.
    retired_pools: Mutex<PoolStats>,
    /// The plane's only ledger: every request outcome, lease
    /// transition, pool event and queue high-water is counted here and
    /// nowhere else ([`Gateway::totals`] and the exposition both read
    /// it).
    pub(crate) telem: Arc<GatewayTelemetry>,
}

impl Gateway {
    /// A gateway serving `actions`, with no invokers yet.
    pub fn new(cfg: GatewayConfig, actions: Vec<ActionSpec>) -> Self {
        assert!(
            cfg.pool_slots >= 1,
            "GatewayConfig::pool_slots must be at least 1"
        );
        let shaper = AdmissionShaper::new(&cfg.admission, Instant::now());
        let ring_full = Arc::new(Counter::new());
        let action_names: Vec<String> = actions.iter().map(|a| a.name.clone()).collect();
        let actions = ActionRegistry::new(actions);
        let telem = Arc::new(GatewayTelemetry::new(action_names));
        telem.register_shaper(shaper.charged_counter());
        telem.register_contention(
            shaper.cas_retry_counter(),
            ring_full.clone(),
            actions.clone(),
        );
        // The fast lane reports its high-water under the shared gauge.
        let fast = FastLane::new(telem.queue_highwater.clone());
        Gateway {
            cfg,
            actions,
            router: Router::new(SHARDS),
            slots: Mutex::new(Vec::new()),
            fast: Arc::new(fast),
            completions: Arc::new(Completions {
                buf: Mutex::new(Vec::new()),
                len: AtomicUsize::new(0),
                seq: AtomicU64::new(0),
                park: Park::new(telem.completion_wakes.clone()),
            }),
            shaper,
            ring_full,
            next_request: AtomicU64::new(0),
            next_invoker: AtomicU64::new(0),
            retired_pools: Mutex::new(PoolStats::default()),
            telem,
        }
    }

    /// The telemetry plane. Always `Some`: the `Option` survives only
    /// because the benchmark package, which this crate may not edit,
    /// unwraps it.
    pub fn telemetry(&self) -> Option<&Arc<GatewayTelemetry>> {
        Some(&self.telem)
    }

    /// The request ledger as plain values, read straight off the
    /// telemetry atomics (no registry snapshot).
    pub fn totals(&self) -> Tally {
        self.telem.totals()
    }

    /// Envelopes that took the fast-lane hop during a drain (flushed by
    /// the invoker or rerouted by a racing producer).
    pub fn fastlane_moves(&self) -> u64 {
        self.telem.fastlane_moves.get()
    }

    /// The action catalogue.
    pub fn actions(&self) -> &ActionRegistry {
        &self.actions
    }

    /// Routing-table epoch (bumps on membership change).
    pub fn route_epoch(&self) -> u64 {
        self.router.epoch()
    }

    /// True when a token-bucket admission policy is shaping traffic
    /// (false under the default hard-shed policy).
    pub fn admission_shaping(&self) -> bool {
        self.shaper.shaping()
    }

    /// Aggregate container-pool stats: live invokers are not readable
    /// (their pools are thread-private), so this returns the folded
    /// stats of every invoker reaped so far.
    pub fn retired_pool_stats(&self) -> PoolStats {
        *self.retired_pools.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Number of healthy (routable) invokers.
    pub fn n_healthy(&self) -> usize {
        self.slots
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .filter(|s| s.handle.as_ref().is_some_and(|h| h.is_healthy()))
            .count()
    }

    /// Start a new invoker thread and make it routable.
    pub fn start_invoker(&self) -> InvokerToken {
        let id = self.next_invoker.fetch_add(1, Ordering::Relaxed);
        let cap = self.cfg.queue_capacity;
        let queue = RingQueue::with_telem(
            cap,
            self.telem.queue_highwater.clone(),
            self.telem.queue_wakes.clone(),
            self.ring_full.clone(),
            id,
        );
        let handle = Arc::new(InvokerHandle {
            id,
            state: AtomicU8::new(STATE_HEALTHY),
            done: AtomicU64::new(0),
            queue,
        });
        let mut slots = self.slots.lock().unwrap_or_else(|e| e.into_inner());
        // Reserve the slot before spawning; it is reused only after
        // its previous occupant joined.
        let index = match slots.iter().position(|s| s.handle.is_none()) {
            Some(i) => {
                slots[i].handle = Some(handle.clone());
                i
            }
            None => {
                slots.push(Slot {
                    generation: 0,
                    handle: Some(handle.clone()),
                    join: None,
                });
                slots.len() - 1
            }
        };
        // A lease granted: the invoker lifecycle *is* the lease
        // lifecycle, so grants − revokes = live leases by construction
        // no matter which driver (controller, test, bin) starts it.
        self.telem.lease_grants.inc();
        self.telem.leases_live.add(1);
        flight::record(EventKind::LeaseGrant, id, 0);
        let worker = InvokerCtx {
            handle,
            fast: self.fast.clone(),
            completions: self.completions.clone(),
            actions: self.actions.clone(),
            telem: self.telem.clone(),
            slot: self.telem.new_slot(),
            pool_slots: self.cfg.pool_slots,
        };
        slots[index].join = Some(
            std::thread::Builder::new()
                .name(format!("invoker-{id}"))
                .spawn(move || worker.run())
                .expect("spawn invoker thread"),
        );
        let token = InvokerToken {
            index: index as u32,
            generation: slots[index].generation,
            id,
        };
        self.rebuild_router(&slots);
        token
    }

    /// A collector handle. Any number of threads may collect at once;
    /// each completion reaches exactly one of them.
    pub fn collector(&self) -> Collector {
        Collector
    }

    /// Move everything published so far into `out`, oldest batch
    /// first; returns how many. One lock, none while nothing is pending.
    pub fn collect_completions_with(
        &self,
        _col: &mut Collector,
        out: &mut Vec<Completion>,
    ) -> usize {
        self.completions.drain_into(out)
    }

    /// Blocking collect: sweep, and if nothing is pending park on the
    /// completion gate (a publish wakes the collector, idle waits burn
    /// no CPU) until something lands or `timeout` elapses. Returns how
    /// many completions were moved into `out` (0 on timeout).
    pub fn collect_wait(
        &self,
        col: &mut Collector,
        out: &mut Vec<Completion>,
        timeout: Duration,
    ) -> usize {
        let deadline = Instant::now().checked_add(timeout);
        loop {
            let seen = self.completion_epoch();
            let n = self.collect_completions_with(col, out);
            if n > 0 {
                return n;
            }
            let remaining = match deadline {
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        return 0;
                    }
                    d - now
                }
                None => Duration::MAX,
            };
            self.wait_completions(seen, remaining);
        }
    }

    /// The completion-publish epoch: bumps every time an invoker
    /// publishes a batch. Pair with
    /// [`wait_completions`](Gateway::wait_completions): read the epoch,
    /// sweep, and if the sweep came up empty wait for the epoch to
    /// move — a publish racing the sweep makes the wait return
    /// immediately.
    pub fn completion_epoch(&self) -> u64 {
        self.completions.seq.load(Ordering::Acquire)
    }

    /// Park until the completion epoch moves past `seen` or `timeout`
    /// elapses (waiter-counted: producers skip the wake entirely while
    /// nobody waits). See
    /// [`completion_epoch`](Gateway::completion_epoch).
    pub fn wait_completions(&self, seen: u64, timeout: Duration) {
        let moved = || self.completion_epoch() != seen;
        self.completions.park.park_unless(timeout, moved);
    }

    /// Submit an invocation of `action` with routing key `key`. Returns
    /// the admission (id + any shaper delay), or the shed reason.
    pub fn invoke(&self, action: ActionId, key: u64) -> Result<Admit, Shed> {
        self.invoke_at(action, key, Instant::now())
    }

    /// [`invoke`](Gateway::invoke) with a caller-supplied admission
    /// timestamp, so a submitter batching arrivals into bursts pays one
    /// clock read per burst instead of one per request. `produced_at`
    /// seeds the queue-wait/total latency accounting *and* the token
    /// bucket's clock; callers must pass a recent instant (the harness
    /// reads the clock once per burst).
    pub fn invoke_at(
        &self,
        action: ActionId,
        key: u64,
        produced_at: Instant,
    ) -> Result<Admit, Shed> {
        let telem = &*self.telem;
        let a = action.0 as usize;
        if !self.actions.try_admit(action) {
            return Err(telem.note_shed(a, Shed::ActionSaturated));
        }
        let (delay, charged) = match self.shaper.admit(produced_at) {
            Shape::Admit { delay, cost } => (delay, cost),
            Shape::Shed => {
                self.actions.release(action);
                return Err(telem.note_shed(a, Shed::DelayBudget));
            }
        };
        // Pick the less loaded candidate and produce under the route
        // shard's read lock (no target clone). Close-vs-produce
        // atomicity is the ring's own: `CLOSED` shares the word
        // producers claim their slot on, so a produce either lands
        // before the owner's drain or is handed back.
        let mut id = 0;
        let produced = self.router.with_choices(key, |c| {
            let target = &c.targets[c.least(|i| c.targets[i].outstanding())];
            id = self.next_request.fetch_add(1, Ordering::Relaxed);
            let req = Request { id, action, key };
            target.queue.produce(req, produced_at)
        });
        let Some(produced) = produced else {
            // Structural shed after the shaper said yes: return the
            // charge, or a plane shedding NoInvoker/QueueFull would
            // accumulate phantom bucket debt for work that never
            // entered a queue.
            self.shaper.refund(charged);
            self.actions.release(action);
            return Err(telem.note_shed(a, Shed::NoInvoker));
        };
        match produced {
            Produce::Ok(_) => {}
            Produce::Full(_) => {
                self.shaper.refund(charged);
                self.actions.release(action);
                return Err(telem.note_shed(a, Shed::QueueFull));
            }
            Produce::Closed(req) => {
                // Stale route: the target started draining after the
                // pick. The fast lane is the lossless fallback; it is
                // only ever closed once every invoker is gone, in which
                // case we shed instead.
                let env = Envelope {
                    offset: 0,
                    produced_at,
                    req,
                };
                if self.fast.produce_moved(env).is_err() {
                    self.shaper.refund(charged);
                    self.actions.release(action);
                    return Err(telem.note_shed(a, Shed::NoInvoker));
                }
                telem.fastlane_moves.inc();
            }
        }
        telem.accepted.inc(a);
        if !delay.is_zero() {
            telem.delayed.inc(a);
        }
        Ok(Admit { id, delay })
    }

    /// Submit a burst of invocations sharing one admission timestamp.
    /// Each request is admission-checked, shaped and routed
    /// individually (same shed semantics and the same two-choice rule
    /// as [`invoke_at`](Gateway::invoke_at); a candidate's load is read
    /// once per burst and counts what the burst has already bucketed
    /// for it), but the requests bound for one invoker are produced to
    /// its queue as a **single group** — one slot-range claim and at
    /// most one consumer wake per target ring per burst, instead of one
    /// per request. On an oversubscribed machine that is the difference
    /// between a parked invoker preempting the submitter once per
    /// request and once per burst. Outcomes are appended to `out` in
    /// input order.
    ///
    /// `scratch` holds the per-target buckets; the caller keeps it
    /// across bursts so their allocations are paid once per submitter,
    /// not once per call (the old per-call allocation was a measured
    /// residual at small burst sizes).
    ///
    /// The close-vs-produce atomicity is unchanged: a group refused by
    /// a draining target is rerouted to the fast lane exactly like a
    /// raced single produce, so exactly-once holds at any burst size
    /// (the drain-stress matrix submits through both paths).
    pub fn invoke_burst(
        &self,
        reqs: &[(ActionId, u64)],
        produced_at: Instant,
        out: &mut Vec<Result<Admit, Shed>>,
        scratch: &mut BurstScratch,
    ) {
        let base = out.len();
        // Pass 1: admit + shape + route, bucketing requests per target
        // invoker. Buckets hold input indices so pass 2 can fix up
        // outcomes. Accepted telemetry is tallied in plain per-action
        // counts and flushed once per burst (not one atomic per op).
        debug_assert_eq!(scratch.used, 0, "scratch reused before finish");
        let telem = &*self.telem;
        scratch.counts.ensure(telem.n_actions());
        for (i, &(action, key)) in reqs.iter().enumerate() {
            let a = action.0 as usize;
            if !self.actions.try_admit(action) {
                out.push(Err(telem.note_shed(a, Shed::ActionSaturated)));
                continue;
            }
            let (delay, charged) = match self.shaper.admit(produced_at) {
                Shape::Admit { delay, cost } => (delay, cost),
                Shape::Shed => {
                    self.actions.release(action);
                    out.push(Err(telem.note_shed(a, Shed::DelayBudget)));
                    continue;
                }
            };
            let routed = self.router.with_choices(key, |c| {
                let load = |i| {
                    let b = scratch.bucket_for(i, &c.targets[i]);
                    scratch.buckets[b].load()
                };
                let pick = c.least(load);
                scratch.bucket_for(pick, &c.targets[pick])
            });
            let Some(b) = routed else {
                self.shaper.refund(charged);
                self.actions.release(action);
                out.push(Err(telem.note_shed(a, Shed::NoInvoker)));
                continue;
            };
            let id = self.next_request.fetch_add(1, Ordering::Relaxed);
            let bucket = &mut scratch.buckets[b];
            bucket.reqs.push(Request { id, action, key });
            bucket.idx.push(i);
            bucket.costs.push(charged);
            scratch.counts.note(a);
            out.push(Ok(Admit { id, delay }));
        }
        // Pass 2: one grouped produce per target; fix up the outcomes
        // of whatever the group could not land. A bucket made only to
        // read a candidate's load stays empty and is skipped: an empty
        // produce would count a spurious `ring_full`.
        let BurstScratch {
            buckets,
            used,
            counts,
            ..
        } = scratch;
        for bucket in buckets[..*used].iter().filter(|b| !b.reqs.is_empty()) {
            let target = bucket.target.as_ref().expect("used bucket has a target");
            match target.queue.produce_batch(&bucket.reqs, produced_at) {
                ProduceBatch::Admitted(n) => {
                    for (&i, &charged) in bucket.idx[n..].iter().zip(&bucket.costs[n..]) {
                        let action = reqs[i].0;
                        self.shaper.refund(charged);
                        self.actions.release(action);
                        counts.unnote(action.0 as usize);
                        out[base + i] = Err(telem.note_shed(action.0 as usize, Shed::QueueFull));
                    }
                }
                ProduceBatch::Closed => {
                    // The target started draining after the pick: the
                    // whole group takes the fast-lane fallback.
                    for ((req, &i), &charged) in
                        bucket.reqs.iter().zip(&bucket.idx).zip(&bucket.costs)
                    {
                        let env = Envelope {
                            offset: 0,
                            produced_at,
                            req: *req,
                        };
                        if self.fast.produce_moved(env).is_ok() {
                            telem.fastlane_moves.inc();
                        } else {
                            let a = req.action.0 as usize;
                            self.shaper.refund(charged);
                            self.actions.release(req.action);
                            counts.unnote(a);
                            out[base + i] = Err(telem.note_shed(a, Shed::NoInvoker));
                        }
                    }
                }
            }
        }
        scratch.finish();
        scratch.counts.flush(&telem.accepted);
        // Only a shaping policy can have charged delays; the default
        // hard-shed hot path skips the outcome rescan entirely.
        if self.shaper.shaping() {
            for (o, &(action, _)) in out[base..].iter().zip(reqs) {
                if o.as_ref().is_ok_and(Admit::delayed) {
                    telem.delayed.inc(action.0 as usize);
                }
            }
        }
    }

    /// SIGTERM an invoker: atomically unroute it and flip it to
    /// draining. Its thread finishes the in-flight request, flushes the
    /// unstarted backlog to the fast lane and exits. `false` for a
    /// stale token or an invoker not healthy.
    pub fn sigterm(&self, token: InvokerToken) -> bool {
        let slots = self.slots.lock().unwrap_or_else(|e| e.into_inner());
        let Some(slot) = slots.get(token.index as usize) else {
            return false;
        };
        if slot.generation != token.generation {
            return false;
        }
        let Some(handle) = &slot.handle else {
            return false;
        };
        let flipped = handle
            .state
            .compare_exchange(
                STATE_HEALTHY,
                STATE_DRAINING,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok();
        if flipped {
            self.rebuild_router(&slots);
        }
        flipped
    }

    /// Wait for a sigtermed invoker to finish draining and reap its
    /// slot. Stale tokens are ignored.
    pub fn join_invoker(&self, token: InvokerToken) {
        let join = {
            let mut slots = self.slots.lock().unwrap_or_else(|e| e.into_inner());
            let Some(slot) = slots.get_mut(token.index as usize) else {
                return;
            };
            if slot.generation != token.generation {
                return;
            }
            slot.join.take()
        };
        if let Some(join) = join {
            let pool_stats = join.join().expect("invoker thread panicked");
            let mut retired = self.retired_pools.lock().unwrap_or_else(|e| e.into_inner());
            *retired += pool_stats;
            drop(retired);
            let mut slots = self.slots.lock().unwrap_or_else(|e| e.into_inner());
            let slot = &mut slots[token.index as usize];
            slot.handle = None;
            slot.generation += 1;
            self.rebuild_router(&slots);
            self.telem.lease_revokes.inc();
            self.telem.leases_live.sub(1);
            flight::record(EventKind::LeaseRevoke, token.id, 0);
        }
    }

    /// Drain every invoker gracefully. Returns the number of requests
    /// left stranded in the fast lane (nonzero only if the last invoker
    /// exited with accepted work still queued).
    pub fn shutdown(&self) -> usize {
        let tokens: Vec<InvokerToken> = {
            let slots = self.slots.lock().unwrap_or_else(|e| e.into_inner());
            slots
                .iter()
                .enumerate()
                .filter(|(_, s)| s.handle.is_some())
                .map(|(i, s)| InvokerToken {
                    index: i as u32,
                    generation: s.generation,
                    id: s.handle.as_ref().unwrap().id,
                })
                .collect()
        };
        for t in &tokens {
            self.sigterm(*t);
        }
        for t in tokens {
            self.join_invoker(t);
        }
        let stranded = self.fast.close_and_drain();
        for env in &stranded {
            self.actions.release(env.req.action);
        }
        stranded.len()
    }

    fn rebuild_router(&self, slots: &[Slot]) {
        let healthy: Vec<Arc<InvokerHandle>> = slots
            .iter()
            .filter_map(|s| s.handle.clone())
            .filter(|h| h.is_healthy())
            .collect();
        // Admission tracks live capacity: a lease granted relaxes the
        // shaper, a revoke (or a deadline-led early drain) steepens it
        // *before* the invoker thread is even gone.
        self.shaper.set_capacity(healthy.len());
        self.telem.invokers_routable.set(healthy.len() as i64);
        self.router.rebuild(&healthy);
    }
}

/// An invoker thread's container pool, on the wall clock.
type Pool = ContainerPool<ActionId, Instant>;

/// Cold starts an invoker thread may have booting: it runs one body at
/// a time.
const COLD_LIMIT: usize = 1;

/// Everything an invoker thread needs, captured at spawn.
struct InvokerCtx {
    handle: Arc<InvokerHandle>,
    fast: Arc<FastLane>,
    completions: Arc<Completions>,
    actions: Arc<ActionRegistry>,
    /// The plane's families.
    telem: Arc<GatewayTelemetry>,
    /// This invoker's private single-writer shard.
    slot: Arc<SlotTelem>,
    pool_slots: usize,
}

impl InvokerCtx {
    fn run(self) -> PoolStats {
        let mut pool = Pool::new(self.pool_slots, COLD_LIMIT);
        let mut ops_since_sweep = 0u64;
        let mut batch: Vec<Envelope> = Vec::with_capacity(DRAIN_BATCH);
        let mut done: Vec<Completion> = Vec::with_capacity(DRAIN_BATCH);
        // Pool telemetry is folded at sweep/retire time as the delta of
        // the pool's lifetime stats — zero per-op publishing cost.
        let mut last_pool = PoolStats::default();
        loop {
            if self.handle.state.load(Ordering::Acquire) == STATE_DRAINING {
                // Atomic close: nothing can enqueue behind this drain.
                // Any batch popped before the flag flipped has already
                // been executed and flushed (in-flight work finishes;
                // only *unstarted* backlog moves).
                let backlog = self.handle.queue.close_and_drain();
                let n = backlog.len() as u64;
                flight::record(EventKind::DrainStart, self.handle.id, n);
                for env in backlog {
                    // The fast lane outlives every invoker; a failed
                    // move is only possible after full shutdown.
                    let _ = self.fast.produce_moved(env);
                }
                self.telem.fastlane_moves.add(n);
                self.handle.state.store(STATE_GONE, Ordering::Release);
                // Retire the container population (all idle by now: the
                // in-flight batch finished and checked back in above) —
                // a revoked node's containers are reclaimed, not leaked.
                debug_assert_eq!(pool.busy(), 0, "drain with a container checked out");
                for a in pool.retire_all() {
                    flight::record(EventKind::Evict, a.0 as u64, 2);
                }
                self.telem.publish_pool_delta(&mut last_pool, pool.stats());
                flight::record(EventKind::DrainFinish, self.handle.id, n);
                return pool.stats();
            }
            // §III-C ordering: drain the shared fast lane before the
            // private queue, so handed-off work is not starved — then
            // top the batch up from the home ring.
            self.fast.try_pop_batch(&mut batch, DRAIN_BATCH);
            // Envelopes from here on come from the home ring, in offset
            // order.
            let from_ring = batch.len();
            if batch.len() < DRAIN_BATCH {
                let room = DRAIN_BATCH - batch.len();
                self.handle.queue.try_pop_batch(&mut batch, room);
            }
            if batch.is_empty() {
                // Idle: run the keep-alive sweep, then park briefly on
                // the private queue.
                self.sweep(&mut pool, Instant::now(), &mut last_pool);
                ops_since_sweep = 0;
                if let Some(env) = self.handle.queue.pop_timeout(PARK) {
                    batch.push(env);
                }
            }
            if !batch.is_empty() {
                ops_since_sweep += batch.len() as u64;
                // One clock read per op: each execution's end instant
                // is the next one's start (the batch loop has no gap
                // between them), halving the clock traffic of the old
                // read-start-read-end shape.
                let ring_end = batch[from_ring..].last().map(|env| env.offset + 1);
                let mut t = Instant::now();
                for env in batch.drain(..) {
                    t = self.execute(env, t, &mut pool, &mut done);
                }
                // Before the publish, so a collector that sees these
                // completions reads this invoker's load without them.
                if let Some(end) = ring_end {
                    self.handle.done.store(end, Ordering::Relaxed);
                }
                self.flush(&mut done);
                if ops_since_sweep >= SWEEP_EVERY_OPS {
                    self.sweep(&mut pool, t, &mut last_pool);
                    ops_since_sweep = 0;
                }
            }
        }
    }

    /// Retire the containers idle past their action's keep-alive, then
    /// publish the pool's books.
    fn sweep(&self, pool: &mut Pool, now: Instant, last: &mut PoolStats) {
        let keepalive = |a| self.actions.spec(a).keepalive;
        for a in pool.retire_idle(|a, t| now.saturating_duration_since(t) > keepalive(a)) {
            flight::record(EventKind::Evict, a.0 as u64, 1);
        }
        self.telem.publish_pool_delta(last, pool.stats());
    }

    /// Execute one envelope starting at `start`; returns the end
    /// instant (which the batch loop feeds forward as the next start).
    fn execute(
        &self,
        env: Envelope,
        start: Instant,
        pool: &mut Pool,
        done: &mut Vec<Completion>,
    ) -> Instant {
        let spec = self.actions.spec(env.req.action);
        // One body at a time, `cold_done` before it and `release` after:
        // every acquire finds nothing booting (never `ColdBlocked`) and
        // nothing busy (a full pool has an LRU victim, never `NoCapacity`).
        let cold = match pool.acquire(env.req.action) {
            Acquire::Warm => false,
            Acquire::Cold { evicted } => {
                if let Some(a) = evicted {
                    flight::record(EventKind::Evict, a.0 as u64, 0);
                }
                // The cold start occupies the invoker for real.
                while start.elapsed() < spec.cold_start {
                    std::hint::spin_loop();
                }
                pool.cold_done();
                true
            }
            other => unreachable!("one body at a time cannot be refused: {other:?}"),
        };
        let value = spec.body.run();
        let end = Instant::now();
        pool.release(env.req.action, end);
        // Release the admission slot per execution, not per batch:
        // deferring it to the flush would hold tight per-action
        // in-flight caps for the rest of the batch and shed traffic
        // the unbatched plane would have admitted.
        self.actions.release(env.req.action);
        let queue_wait = start.saturating_duration_since(env.produced_at);
        let total = end.saturating_duration_since(env.produced_at);
        // Single-writer shard: plain load+store on lines only this
        // thread dirties, two histogram records per completion.
        self.slot.lat_total.record_owned(total.as_nanos() as u64);
        self.slot
            .lat_queue_wait
            .record_owned(queue_wait.as_nanos() as u64);
        flight::record(
            if cold {
                EventKind::ColdStart
            } else {
                EventKind::WarmHit
            },
            env.req.action.0 as u64,
            self.handle.id,
        );
        done.push(Completion {
            id: env.req.id,
            action: env.req.action,
            invoker: self.handle.id,
            value,
            cold,
            queue_wait,
            service: end.saturating_duration_since(start),
            total,
        });
        end
    }

    /// Retire a finished batch: count it `completed` (and `cold`) in
    /// this invoker's shard, then publish every completion with one
    /// append — in that order, so a completion a collector can see is
    /// already in the books. (Admission slots were already released
    /// per execution — caps must open the moment a request finishes.)
    fn flush(&self, done: &mut Vec<Completion>) {
        for c in done.iter() {
            let a = c.action.0 as usize;
            self.slot.completed.add_owned(a, 1);
            if c.cold {
                self.slot.cold.add_owned(a, 1);
            }
        }
        self.completions.publish(done);
    }
}

impl Drop for Gateway {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    fn batch(ids: &[u64]) -> Vec<Completion> {
        let c = |id| Completion {
            id,
            action: ActionId(0),
            invoker: 0,
            value: 0,
            cold: false,
            queue_wait: Duration::ZERO,
            service: Duration::ZERO,
            total: Duration::ZERO,
        };
        ids.iter().map(|&id| c(id)).collect()
    }

    fn ids(v: &[Completion]) -> Vec<u64> {
        v.iter().map(|c| c.id).collect()
    }

    #[test]
    fn sweeps_append_to_a_full_out_and_swap_into_an_empty_one() {
        let gw = Gateway::new(GatewayConfig::default(), vec![ActionSpec::noop("f")]);
        let c = &gw.completions;
        let mut out = batch(&[0]);
        assert_eq!(c.drain_into(&mut out), 0, "an empty sweep moves nothing");
        c.publish(&mut Vec::new());
        assert_eq!(gw.completion_epoch(), 0, "an empty batch is not published");
        let mut done = Vec::with_capacity(32);
        let cap = done.capacity();
        for ids in [[1, 2], [3, 4]] {
            done.extend(batch(&ids));
            c.publish(&mut done);
            assert!(done.is_empty() && done.capacity() == cap, "done comes back");
        }
        assert_eq!(gw.completion_epoch(), 2);
        assert_eq!(c.drain_into(&mut out), 4);
        assert_eq!(ids(&out), [0, 1, 2, 3, 4], "appended, in publish order");
        c.publish(&mut batch(&[5]));
        let mut empty = Vec::with_capacity(64);
        let spare = empty.as_ptr();
        assert_eq!(c.drain_into(&mut empty), 1);
        assert_eq!(ids(&empty), [5]);
        let buf = c.buf.lock().unwrap();
        assert_eq!(
            buf.as_ptr(),
            spare,
            "swapped: the plane keeps out's allocation"
        );
    }

    /// An invoker-side thread publishes one completion per round, at a
    /// round-dependent offset from the collector's sweep; the collector
    /// `collect_wait`s for it, into an empty `out` on odd rounds and a
    /// non-empty one on even rounds. A round that waits out `STRANDED`
    /// lost its batch to a stale empty check or a lost wake (the sweep
    /// after the timeout still finds it, so the time is the symptom).
    /// Run it in release: a debug build hides a missing fence.
    #[test]
    fn the_lock_free_empty_check_strands_no_batch() {
        const STRANDED: Duration = Duration::from_secs(10);
        const ROUNDS: u64 = 20_000;
        let gw = Gateway::new(GatewayConfig::default(), vec![ActionSpec::noop("f")]);
        let (collected, failed) = (AtomicU64::new(0), AtomicBool::new(false));
        let mut bad = None;
        std::thread::scope(|s| {
            s.spawn(|| {
                for r in 1..=ROUNDS {
                    while collected.load(Ordering::Acquire) < r - 1 {
                        if failed.load(Ordering::Relaxed) {
                            return;
                        }
                        std::hint::spin_loop();
                    }
                    let jitter = (r * 37) % 400;
                    (0..jitter * jitter / 400).for_each(|_| std::hint::spin_loop());
                    gw.completions.publish(&mut batch(&[r]));
                }
            });
            let mut col = gw.collector();
            for r in 1..=ROUNDS {
                let mut out = batch(if r % 2 == 0 { &[0] } else { &[] });
                let start = Instant::now();
                let n = gw.collect_wait(&mut col, &mut out, STRANDED);
                let want = if r % 2 == 0 { vec![0, r] } else { vec![r] };
                if start.elapsed() >= STRANDED || n != 1 || ids(&out) != want {
                    bad = Some((r, n, ids(&out)));
                    failed.store(true, Ordering::Relaxed);
                    return;
                }
                collected.store(r, Ordering::Release);
            }
        });
        assert_eq!(
            bad, None,
            "(round, collected, ids) of a stranded or wrong round"
        );
    }
}
