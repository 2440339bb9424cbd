//! The gateway: admission control, sharded routing, invoker threads,
//! and the §III-C drain protocol under real concurrency.
//!
//! Data path (one request):
//!
//! 1. **Admission** — a per-action in-flight CAS plus a per-queue bound
//!    checked at produce time; overload sheds with a typed reason
//!    instead of building unbounded queues.
//! 2. **Routing** — one shard-local read lock, no global lock
//!    ([`crate::route::Router`]).
//! 3. **Queueing** — the home invoker's lock-free MPSC ring assigns
//!    the offset ([`crate::ring::RingQueue`], `mq` semantics).
//! 4. **Execution** — the invoker thread drains a **batch** of up to
//!    `drain_batch` envelopes per pass, shared fast lane first, topped
//!    up from its own ring; placement goes through its private
//!    [`ContainerPool`] (the DES plane's pool, under `Instant`: cold
//!    start, keep-alive, LRU) and the body runs for real.
//! 5. **Completion** — one [`Completion`] per executed request,
//!    carrying queue-wait/service/total latencies, published batch-wise
//!    to the invoker's **private completion shard** (exactly one
//!    producer per shard — there is no shared multi-producer point on
//!    the completion path). Each consumer holds a [`Collector`] and
//!    sweeps the shards round-robin via
//!    [`Gateway::collect_completions_with`] / [`Gateway::collect_wait`].
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
use crate::queue::{Envelope, FastLane, Produce, ProduceBatch, Request};
use crate::ring::RingQueue;
use crate::route::Router;
use crate::telem::{BurstCounts, GatewayTelemetry, SlotTelem, Totals};
use simcore::pool::{Acquire, ContainerPool, PoolStats};
use std::sync::atomic::{AtomicPtr, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use telemetry::flight::{self, EventKind};
use telemetry::Counter;

/// Why a request was refused at admission (the 4xx/5xx path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shed {
    /// No healthy invoker is routable (503).
    NoInvoker,
    /// The home invoker's queue is at the admission bound (429).
    QueueFull,
    /// The action is at its gateway-wide in-flight cap (429).
    ActionSaturated,
    /// The token-bucket shaper's delay budget is exhausted: admitting
    /// would charge more virtual delay than
    /// [`TokenBucketCfg::max_delay`](crate::admission::TokenBucketCfg)
    /// allows (429). Only occurs under an active token-bucket policy.
    DelayBudget,
}

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

/// Tuning knobs of the serving plane.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Routing-table stripes (rounded up to a power of two).
    pub shards: usize,
    /// Per-invoker queue admission bound.
    pub queue_capacity: usize,
    /// Container slots per invoker pool (at least 1; [`Gateway::new`]
    /// panics on 0).
    pub pool_slots: usize,
    /// How long an idle invoker parks before re-polling the fast lane
    /// and its drain flag.
    pub park: Duration,
    /// Run the keep-alive sweep at least this often even under load.
    pub sweep_every_ops: u64,
    /// Max envelopes an invoker pops per pass of its loop: the fast
    /// lane first (no lock while it is empty), topped up from the home
    /// ring. 1 reproduces the unbatched per-pop behaviour exactly; the
    /// drain-stress matrix proves exactly-once at 1, 4 and 32.
    pub drain_batch: usize,
    /// How admissions are shaped beyond the structural bounds:
    /// [`AdmissionPolicy::HardShed`] (default, the historical
    /// behaviour) or a capacity-tracking token bucket that degrades
    /// through a bounded delay before shedding.
    pub admission: AdmissionPolicy,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            shards: 8,
            queue_capacity: 4_096,
            pool_slots: 64,
            park: Duration::from_micros(500),
            sweep_every_ops: 1_024,
            drain_batch: 32,
            admission: AdmissionPolicy::HardShed,
        }
    }
}

const STATE_HEALTHY: u8 = 0;
const STATE_DRAINING: u8 = 1;
const STATE_GONE: u8 = 2;

/// The shared handle of one invoker: its state flag and its work queue.
pub struct InvokerHandle {
    /// Stable invoker id (unique per gateway, never reused).
    pub id: u64,
    state: AtomicU8,
    queue: RingQueue,
}

impl InvokerHandle {
    fn is_healthy(&self) -> bool {
        self.state.load(Ordering::Acquire) == STATE_HEALTHY
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

/// One published batch of completions, a node in a shard's lock-free
/// segment stack.
struct Segment {
    batch: Vec<Completion>,
    next: *mut Segment,
}

/// One invoker slot's completion buffer: a **lock-free** Treiber stack
/// of batch segments. Exactly one producer at a time (the invoker
/// thread occupying the slot — slots are only reused after the previous
/// thread joined) pushes whole batches; any number of collectors race
/// to `swap` the entire chain out, so the structure is push-only and
/// swap-all — no pop-one, hence no ABA window. The buffer outlives its
/// invoker: completions published just before a drain remain
/// collectible after the thread is reaped.
///
/// Cache-line-aligned so two collectors hammering adjacent shard heads
/// never false-share (the expected first profile hit under multi-core
/// collection). `claim` lets N collectors split the shard space: a
/// sweep skips shards another collector is already draining instead of
/// contending on their heads.
#[repr(align(128))]
struct CompletionShard {
    head: AtomicPtr<Segment>,
    claim: AtomicU32,
}

impl CompletionShard {
    fn new() -> Self {
        CompletionShard {
            head: AtomicPtr::new(std::ptr::null_mut()),
            claim: AtomicU32::new(0),
        }
    }

    /// Publish a batch: one boxed segment pushed with a CAS (the only
    /// contender is a collector's swap). `done` is left empty with its
    /// capacity intact for reuse, preserving the old contract.
    fn publish(&self, done: &mut Vec<Completion>) {
        if done.is_empty() {
            return;
        }
        let cap = done.capacity();
        let batch = std::mem::replace(done, Vec::with_capacity(cap));
        let seg = Box::into_raw(Box::new(Segment {
            batch,
            next: std::ptr::null_mut(),
        }));
        let mut head = self.head.load(Ordering::Relaxed);
        loop {
            // SAFETY: `seg` came from `Box::into_raw` above and is not
            // yet published (the CAS below has not succeeded), so this
            // thread holds the only pointer to it.
            unsafe { (*seg).next = head };
            match self
                .head
                .compare_exchange_weak(head, seg, Ordering::Release, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => head = seen,
            }
        }
    }

    /// Move everything pending into `out` (oldest batch first); returns
    /// how many. Lock-free: one `swap` detaches the whole chain, which
    /// this collector then owns exclusively.
    fn drain_into(&self, out: &mut Vec<Completion>) -> usize {
        let mut p = self.head.swap(std::ptr::null_mut(), Ordering::Acquire);
        if p.is_null() {
            return 0;
        }
        // The chain is newest-first; reverse in place for FIFO.
        let mut prev: *mut Segment = std::ptr::null_mut();
        while !p.is_null() {
            // SAFETY: every node of the chain was published by
            // `publish` (a live `Box::into_raw` allocation whose `next`
            // was written before its Release CAS, which our Acquire
            // swap pairs with), and the swap detached the whole chain:
            // no producer or other collector can reach it any more, so
            // this thread owns every node exclusively.
            unsafe {
                let next = (*p).next;
                (*p).next = prev;
                prev = p;
                p = next;
            }
        }
        let mut n = 0;
        let mut p = prev;
        while !p.is_null() {
            // SAFETY: `p` is a node of the exclusively owned chain
            // reversed above, each visited once; `Box::from_raw`
            // returns the allocation `publish` leaked and frees it here.
            let seg = unsafe { Box::from_raw(p) };
            n += seg.batch.len();
            out.extend_from_slice(&seg.batch);
            p = seg.next;
        }
        n
    }

    /// Try to claim this shard for one collector's sweep; collectors
    /// that lose skip the shard instead of contending on its head.
    fn try_claim(&self, tag: u32) -> bool {
        self.claim
            .compare_exchange(0, tag, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    fn release_claim(&self) {
        self.claim.store(0, Ordering::Release);
    }
}

impl Drop for CompletionShard {
    fn drop(&mut self) {
        let mut p = *self.head.get_mut();
        while !p.is_null() {
            // SAFETY: `&mut self` excludes every producer and collector,
            // so the chain still hanging off `head` is owned here; each
            // node is a `publish` allocation, visited and freed once.
            let seg = unsafe { Box::from_raw(p) };
            p = seg.next;
        }
    }
}

/// Chunk 0 of the shard table holds this many shards; chunk `k` holds
/// `CHUNK_BASE << k`, so 24 chunks cover ~134M invoker slots without
/// ever moving a published entry.
const CHUNK_BASE: usize = 8;
const N_CHUNKS: usize = 24;

/// The epoch-published completion-shard list: an append-only chunked
/// table replacing the old `Mutex<Vec<Arc<CompletionShard>>>`. Shards
/// are only ever *added* (slot reuse reuses the same shard), so the
/// table never moves an entry: readers locate a shard through one
/// `Acquire` load of the published length plus one of the owning chunk
/// pointer — a collector's sweep holds no lock at all. Writers
/// (`Gateway::start_invoker`) are already serialized by the slots
/// mutex; they allocate whole chunks of initialized shards and then
/// publish the new length with a `Release` store, so any index below
/// the length a reader observes is fully initialized.
struct ShardTable {
    len: AtomicUsize,
    chunks: [AtomicPtr<Arc<CompletionShard>>; N_CHUNKS],
}

impl ShardTable {
    fn new() -> Self {
        ShardTable {
            len: AtomicUsize::new(0),
            chunks: std::array::from_fn(|_| AtomicPtr::new(std::ptr::null_mut())),
        }
    }

    /// Chunk index and offset of shard `i`.
    #[inline]
    fn locate(i: usize) -> (usize, usize) {
        let k = ((i / CHUNK_BASE) + 1).ilog2() as usize;
        (k, i - CHUNK_BASE * ((1 << k) - 1))
    }

    /// Published shard count (the list's epoch, in ArcSwap terms).
    #[inline]
    fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// Grow the published prefix to at least `n` shards. Callers are
    /// serialized by the gateway's slots lock; concurrent readers stay
    /// lock-free throughout.
    fn ensure(&self, n: usize) {
        if n == 0 || n <= self.len.load(Ordering::Relaxed) {
            return;
        }
        let (last_k, _) = Self::locate(n - 1);
        for k in 0..=last_k {
            if self.chunks[k].load(Ordering::Relaxed).is_null() {
                let cap = CHUNK_BASE << k;
                let chunk: Box<[Arc<CompletionShard>]> =
                    (0..cap).map(|_| Arc::new(CompletionShard::new())).collect();
                self.chunks[k].store(
                    Box::into_raw(chunk) as *mut Arc<CompletionShard>,
                    Ordering::Release,
                );
            }
        }
        self.len.store(n, Ordering::Release);
    }

    /// The shard at `i`; callers pass `i < self.len()`.
    #[inline]
    fn get(&self, i: usize) -> &Arc<CompletionShard> {
        let (k, off) = Self::locate(i);
        let chunk = self.chunks[k].load(Ordering::Acquire);
        assert!(!chunk.is_null(), "shard {i} beyond the published table");
        // SAFETY: a non-null chunk `k` was Release-stored by `ensure`
        // (our Acquire load pairs with it) as a boxed slice of
        // `CHUNK_BASE << k` shards, all initialized before the store,
        // and `locate` puts `off` below that length. Chunks are never
        // freed or moved until the table drops, which `&self` outlives.
        unsafe { &*chunk.add(off) }
    }
}

impl Drop for ShardTable {
    fn drop(&mut self) {
        for k in 0..N_CHUNKS {
            let p = *self.chunks[k].get_mut();
            if !p.is_null() {
                let cap = CHUNK_BASE << k;
                // SAFETY: a non-null chunk `k` is the `Box<[_]>` of
                // exactly `cap` shards that `ensure` leaked; rebuilding
                // the fat pointer with that length frees it once, and
                // `&mut self` excludes every reader.
                unsafe {
                    drop(Box::from_raw(std::ptr::slice_from_raw_parts_mut(p, cap)));
                }
            }
        }
    }
}

/// The completion-wait gate: `seq` bumps on every shard publish and
/// `waiters` counts parked collectors, so producers skip the condvar
/// (and its futex) entirely while every collector is busy — the same
/// waiter-counted-wake discipline as [`RingQueue::pop_timeout`]. Idle
/// collectors ([`Gateway::collect_wait`], the harness's
/// [`Gateway::wait_completions`]) park until a publish actually
/// happens instead of polling and burning a core each.
struct CompletionGate {
    seq: AtomicU64,
    waiters: AtomicUsize,
    lock: Mutex<()>,
    cv: Condvar,
}

impl CompletionGate {
    fn new() -> Self {
        CompletionGate {
            seq: AtomicU64::new(0),
            waiters: AtomicUsize::new(0),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    #[inline]
    fn epoch(&self) -> u64 {
        self.seq.load(Ordering::SeqCst)
    }

    /// Producer side: called after a publish. SeqCst on the bump and
    /// the waiter check pairs with the consumer's register-then-recheck
    /// so no wakeup is lost; the common (no waiter) case is one RMW +
    /// one load per *batch*, never a lock.
    #[inline]
    fn publish_wake(&self) {
        self.seq.fetch_add(1, Ordering::SeqCst);
        if self.waiters.load(Ordering::SeqCst) > 0 {
            let _g = self.lock.lock().unwrap_or_else(|e| e.into_inner());
            self.cv.notify_all();
        }
    }

    /// Consumer side: park until the epoch moves past `seen` or
    /// `timeout` elapses. `seen` must have been read *before* the
    /// caller's (empty) sweep: a publish that raced the sweep moved the
    /// epoch, so the wait returns immediately and the caller re-sweeps.
    fn wait(&self, seen: u64, timeout: Duration) {
        self.waiters.fetch_add(1, Ordering::SeqCst);
        {
            let g = self.lock.lock().unwrap_or_else(|e| e.into_inner());
            if self.seq.load(Ordering::SeqCst) == seen {
                let _ = self.cv.wait_timeout(g, timeout);
            }
        }
        self.waiters.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A per-collector cursor + claim tag for the sharded completion path:
/// create one per collecting thread with [`Gateway::collector`] and
/// sweep through [`Gateway::collect_completions_with`] /
/// [`Gateway::collect_wait`]. Each collector rotates its own start
/// shard and skips shards another collector has claimed, so N
/// collectors split the shard space instead of serializing — and the
/// cursor lives in the collector's own cache line (the struct is
/// line-aligned), not on a shared one.
#[repr(align(128))]
#[derive(Debug)]
pub struct Collector {
    cursor: usize,
    tag: u32,
}

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
    /// Plain per-action accepted tallies, flushed to the telemetry
    /// plane with one atomic add per action per burst.
    counts: BurstCounts,
}

#[derive(Default)]
struct Bucket {
    target: Option<Arc<InvokerHandle>>,
    reqs: Vec<Request>,
    idx: Vec<usize>,
    /// Per-request shaper charge (index-aligned with `reqs`), so a
    /// produce-pass refusal refunds exactly what the admit pass
    /// charged, even if a capacity change landed in between.
    costs: Vec<u64>,
}

impl BurstScratch {
    /// The bucket for `target`, reusing a spare slot's allocations when
    /// one exists.
    fn bucket_for(&mut self, target: &Arc<InvokerHandle>) -> &mut Bucket {
        if let Some(i) = (0..self.used).find(|&i| {
            self.buckets[i]
                .target
                .as_ref()
                .is_some_and(|t| Arc::ptr_eq(t, target))
        }) {
            return &mut self.buckets[i];
        }
        if self.used == self.buckets.len() {
            self.buckets.push(Bucket::default());
        }
        let bucket = &mut self.buckets[self.used];
        self.used += 1;
        bucket.target = Some(target.clone());
        bucket
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
    /// Per-slot completion buffers, index-aligned with `slots`: the
    /// append-only epoch-published table — collectors never take a lock
    /// (growth is serialized by the `slots` mutex).
    completion_shards: ShardTable,
    /// Completion-publish wake gate (waiter-counted; see
    /// [`CompletionGate`]). Shared with every invoker thread.
    gate: Arc<CompletionGate>,
    /// Next tag handed to a [`Collector`] (tags ≥ 1; 0 means
    /// unclaimed).
    next_collector: AtomicU32,
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
        let shards = cfg.shards;
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
            router: Router::new(shards),
            slots: Mutex::new(Vec::new()),
            fast: Arc::new(fast),
            completion_shards: ShardTable::new(),
            gate: Arc::new(CompletionGate::new()),
            next_collector: AtomicU32::new(1),
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
    pub fn totals(&self) -> Totals {
        self.telem.totals()
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
            queue,
        });
        let mut slots = self.slots.lock().unwrap_or_else(|e| e.into_inner());
        // Reserve the slot (and its completion shard) before spawning:
        // the thread owns the shard for the slot's whole occupancy, and
        // slot reuse only happens after the previous occupant joined,
        // so every shard has exactly one producer at any time.
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
        // Still under the slots lock, which serializes table growth;
        // collectors read the table lock-free throughout.
        self.completion_shards.ensure(index + 1);
        let shard = self.completion_shards.get(index).clone();
        // A lease granted: the invoker lifecycle *is* the lease
        // lifecycle, so grants − revokes = live leases by construction
        // no matter which driver (controller, test, bin) starts it.
        self.telem.lease_grants.inc();
        self.telem.leases_live.add(1);
        flight::record(EventKind::LeaseGrant, id, 0);
        let worker = InvokerCtx {
            handle,
            fast: self.fast.clone(),
            completions: shard,
            gate: self.gate.clone(),
            actions: self.actions.clone(),
            telem: self.telem.clone(),
            slot: self.telem.new_slot(),
            pool_slots: self.cfg.pool_slots,
            park: self.cfg.park,
            sweep_every_ops: self.cfg.sweep_every_ops,
            drain_batch: self.cfg.drain_batch.max(1),
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

    /// A dedicated collector handle: its own round-robin cursor (on its
    /// own cache line) and a unique shard-claim tag.
    pub fn collector(&self) -> Collector {
        let tag = self.next_collector.fetch_add(1, Ordering::Relaxed);
        Collector {
            cursor: tag as usize,
            tag,
        }
    }

    /// Sweep every completion shard once through `col`, moving
    /// everything published so far into `out`; returns how many. The
    /// sweep starts one shard further round each call, so no invoker's
    /// completions are systematically served first, and holds **no
    /// mutex**: the shard list is epoch-published and each shard is a
    /// lock-free segment stack. Shards claimed by another collector are
    /// skipped — that collector takes whatever is pending there — so N
    /// collectors split the shard space instead of serializing on it.
    pub fn collect_completions_with(
        &self,
        col: &mut Collector,
        out: &mut Vec<Completion>,
    ) -> usize {
        let len = self.completion_shards.len();
        if len == 0 {
            return 0;
        }
        let start = col.cursor % len;
        col.cursor = col.cursor.wrapping_add(1);
        let mut n = 0;
        let mut skipped = 0u64;
        for i in 0..len {
            let shard = self.completion_shards.get((start + i) % len);
            if !shard.try_claim(col.tag) {
                skipped += 1;
                continue;
            }
            n += shard.drain_into(out);
            shard.release_claim();
        }
        self.telem.collect_claim_skips.add(skipped);
        n
    }

    /// Blocking collect: sweep, and if nothing is pending park on the
    /// completion gate (waiter-counted — a publish wakes the collector,
    /// idle waits burn no CPU) until something lands or `timeout`
    /// elapses. Returns how many completions were moved into `out`
    /// (0 on timeout).
    pub fn collect_wait(
        &self,
        col: &mut Collector,
        out: &mut Vec<Completion>,
        timeout: Duration,
    ) -> usize {
        let deadline = Instant::now().checked_add(timeout);
        loop {
            let seen = self.gate.epoch();
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
            self.gate.wait(seen, remaining);
        }
    }

    /// The completion-publish epoch: bumps every time an invoker
    /// publishes a batch. Pair with
    /// [`wait_completions`](Gateway::wait_completions): read the epoch,
    /// sweep, and if the sweep came up empty wait for the epoch to
    /// move — a publish racing the sweep makes the wait return
    /// immediately.
    pub fn completion_epoch(&self) -> u64 {
        self.gate.epoch()
    }

    /// Park until the completion epoch moves past `seen` or `timeout`
    /// elapses (waiter-counted: producers skip the wake entirely while
    /// nobody waits). See
    /// [`completion_epoch`](Gateway::completion_epoch).
    pub fn wait_completions(&self, seen: u64, timeout: Duration) {
        self.gate.wait(seen, timeout);
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
        // Produce under the route shard's read lock (no target clone).
        // Close-vs-produce atomicity is the ring's own: `CLOSED` shares
        // the word producers claim their slot on, so a produce either
        // lands before the owner's drain or is handed back.
        let mut id = 0;
        let produced = self.router.with_pick(key, |target| {
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
    /// individually (same shed semantics as
    /// [`invoke_at`](Gateway::invoke_at)), but the requests bound for
    /// one invoker are produced to its queue as a **single group** —
    /// one slot-range claim and at most one consumer wake per target
    /// ring per burst, instead of one per request. On an
    /// oversubscribed machine that is the difference between a parked
    /// invoker preempting the submitter once per request and once per
    /// burst. Outcomes are appended to `out` in input order.
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
            let Some(target) = self.router.pick(key) else {
                self.shaper.refund(charged);
                self.actions.release(action);
                out.push(Err(telem.note_shed(a, Shed::NoInvoker)));
                continue;
            };
            let id = self.next_request.fetch_add(1, Ordering::Relaxed);
            let bucket = scratch.bucket_for(&target);
            bucket.reqs.push(Request { id, action, key });
            bucket.idx.push(i);
            bucket.costs.push(charged);
            scratch.counts.note(a);
            out.push(Ok(Admit { id, delay }));
        }
        // Pass 2: one grouped produce per target; fix up the outcomes
        // of whatever the group could not land.
        let BurstScratch {
            buckets,
            used,
            counts,
        } = scratch;
        for bucket in &buckets[..*used] {
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
    completions: Arc<CompletionShard>,
    gate: Arc<CompletionGate>,
    actions: Arc<ActionRegistry>,
    /// The plane's families.
    telem: Arc<GatewayTelemetry>,
    /// This invoker's private single-writer shard.
    slot: Arc<SlotTelem>,
    pool_slots: usize,
    park: Duration,
    sweep_every_ops: u64,
    drain_batch: usize,
}

impl InvokerCtx {
    fn run(self) -> PoolStats {
        let mut pool = Pool::new(self.pool_slots, COLD_LIMIT);
        let mut ops_since_sweep = 0u64;
        let mut batch: Vec<Envelope> = Vec::with_capacity(self.drain_batch);
        let mut done: Vec<Completion> = Vec::with_capacity(self.drain_batch);
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
            self.fast.try_pop_batch(&mut batch, self.drain_batch);
            if batch.len() < self.drain_batch {
                let room = self.drain_batch - batch.len();
                self.handle.queue.try_pop_batch(&mut batch, room);
            }
            if batch.is_empty() {
                // Idle: run the keep-alive sweep, then park briefly on
                // the private queue.
                self.sweep(&mut pool, Instant::now(), &mut last_pool);
                ops_since_sweep = 0;
                if let Some(env) = self.handle.queue.pop_timeout(self.park) {
                    batch.push(env);
                }
            }
            if !batch.is_empty() {
                ops_since_sweep += batch.len() as u64;
                // One clock read per op: each execution's end instant
                // is the next one's start (the batch loop has no gap
                // between them), halving the clock traffic of the old
                // read-start-read-end shape.
                let mut t = Instant::now();
                for env in batch.drain(..) {
                    t = self.execute(env, t, &mut pool, &mut done);
                }
                self.flush(&mut done);
                if ops_since_sweep >= self.sweep_every_ops {
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
    /// push — in that order, so a completion a collector can see is
    /// already in the books. (Admission slots were already released
    /// per execution — caps must open the moment a request finishes.)
    fn flush(&self, done: &mut Vec<Completion>) {
        if done.is_empty() {
            return;
        }
        for c in done.iter() {
            let a = c.action.0 as usize;
            self.slot.completed.add_owned(a, 1);
            if c.cold {
                self.slot.cold.add_owned(a, 1);
            }
        }
        self.completions.publish(done);
        // Wake parked collectors — after the publish, so a woken
        // collector's sweep finds the batch. One RMW per batch when
        // nobody waits; the condvar is touched only when someone does.
        self.gate.publish_wake();
    }
}

impl Drop for Gateway {
    fn drop(&mut self) {
        self.shutdown();
    }
}
