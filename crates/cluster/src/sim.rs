//! The cluster simulator: a Slurm-like workload manager as a
//! deterministic state machine.
//!
//! Scheduling runs in two kinds of passes, mirroring Slurm:
//!
//! * **quick passes** — event-driven (job completions, submissions,
//!   node transitions), rate-limited by `sched_min_interval`; start jobs
//!   that fit *now*, never create future reservations;
//! * **backfill passes** — periodic (`bf_interval`, stretched by a
//!   simulated pass cost), EASY-style: jobs that cannot start now get
//!   future-start reservations (up to `bf_max_reservations`), lower
//!   priority jobs backfill around them on the 2-minute slot timeline.
//!
//! Pilot (tier-0, preemptible) jobs are placed only where they fit
//! before existing reservations; when reality diverges from declared
//! limits, higher-tier jobs *preempt* pilots: SIGTERM, a grace period
//! (`GraceTime`, 3 min in the paper), then SIGKILL. The composition
//! layer reacts to [`ClusterNote::JobSigterm`] by draining the OpenWhisk
//! invoker and calling [`ClusterSim::pilot_exited`], which releases the
//! node within seconds — this is how "HPC-Whisk jobs never significantly
//! dislodge HPC jobs" (§III-D) is realized.
//!
//! # Pass-cost engineering
//!
//! Three structures keep a pass cheap on a 2,239-node cluster:
//!
//! * a **per-node projection summary** ([`NodeProjection`]), refreshed
//!   incrementally on node/job transitions, so building the pass
//!   timelines is a branch-light linear sweep that never touches the
//!   job table;
//! * the **settled-queue proof** (below): a quick *or* backfill pass
//!   over a queue the previous pass proved unplaceable is counted and
//!   not run;
//! * the cluster-wide **idle bitset** intersected with the timeline's
//!   slot-0-free bitset, so the per-job eligible/startable lookup
//!   inspects only candidate nodes instead of scanning the cluster.
//!
//! The pre-optimization pass is retained as `run_pass_reference`
//! (enabled via [`ClusterSim::set_reference_mode`]); a differential
//! proptest in `tests/differential.rs` asserts both produce bit-equal
//! schedules.
//!
//! # No pass without work
//!
//! A pass that examined its whole queue, found no unpinned HPC job in
//! it (the only kind that is given a reservation), skipped no pilot and
//! leaves no claim waiting on a node another job is first in line for
//! *settles* the queue (`Settled`): every pilot still queued failed
//! `find_single_now`, every due claim either started or holds (or heads
//! the line for) each of its nodes. A pilot only ever starts at slot 0 of an *idle* node, and
//! everything painted on an idle node's timeline (an announced claim
//! window, which by `announced_start >= earliest_start` cannot end
//! before its claim comes due) has an absolute position, so as the pass
//! origin advances a free run from slot 0 only shrinks: time alone
//! cannot make a queued pilot fit, and a due claim already did all it
//! can until one of its nodes is handed to it (which starts it without a
//! pass). The proof is therefore voided only where a node turns idle, a
//! pending job is cancelled, a claim's handover changes other than by
//! completing (torn down by a node failure, or partially filled — the
//! next pass re-derives its `ready` list), or a job is submitted that
//! could start — everything except a pilot at least as long as one that
//! just failed, and a job not yet due, which lowers `next_due` instead;
//! and it lapses when `now` reaches `next_due`. While it stands, a
//! `QuickPass` or `BackfillPass` is counted (`*_passes_skipped`) and
//! returns in O(1); a skipped backfill pass still charges the simulated
//! cost of walking the queue to the next interval.
//!
//! In a debug build every skipped pass is *run anyway* — on timelines
//! built from scratch, so the persistent plane and its work counter see
//! the same passes as a release build — and must schedule no event, emit
//! no note, place nothing, touch no node, waiter or handover and charge
//! the cost the skip charged. `reference_mode` never skips, which makes
//! `tests/differential.rs` the judge with optimizations on.

use crate::config::SlurmConfig;
use crate::events::{ClusterEvent, ClusterNote, PollSample, SigtermReason};
use crate::ids::{JobId, NodeId, NodeList};
use crate::job::{Job, JobKind, JobOutcome, JobSpec, JobState};
use crate::node::{Node, NodeState};
use crate::timeline::{FitPolicy, Timeline};
use crate::trace::{AvailabilityTrace, PollIntervals};
use metrics::{OnlineStats, StepSeries};
use simcore::{Outbox, SimDuration, SimRng, SimTime};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// A future-start reservation created by a backfill pass.
#[derive(Debug, Clone)]
struct Reservation {
    job: JobId,
    start: SimTime,
    end: SimTime,
    nodes: Vec<NodeId>,
}

/// A job waiting for preempted/busy nodes to be handed over.
#[derive(Debug, Clone)]
struct Handover {
    needed: NodeList,
    ready: NodeList,
}

/// Which flavour of scheduling pass is running.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PassMode {
    Quick,
    Backfill,
}

/// What the last pass proved about the queue it left behind (module doc,
/// "No pass without work").
#[derive(Debug, Clone, Copy)]
struct Settled {
    /// Shortest fit, in slots, among the pilots that found no node
    /// (`u32::MAX` when none was queued): a pilot submitted later that
    /// needs at least this much cannot start either.
    min_failed_dfit: u32,
    /// Earliest `earliest_start` among the pending jobs not yet due; a
    /// pass at or after it has a new job to examine.
    next_due: Option<SimTime>,
}

/// The jobs a pass at some instant examines, in pass order.
struct PassQueue {
    jobs: Vec<JobId>,
    /// True iff an unpinned HPC job is queued — the only kind that
    /// queries the HPC view, which is not built without one.
    need_hpc: bool,
    /// Earliest `earliest_start` among the pending jobs left out because
    /// they are not yet due.
    next_due: Option<SimTime>,
}

/// Slots a pilot must find free from slot 0 to start: its minimum time
/// when variable-length, its limit otherwise.
fn pilot_fit_slots(cfg: &SlurmConfig, spec: &JobSpec) -> u32 {
    cfg.slots_ceil(spec.min_time.unwrap_or(spec.time_limit))
        .max(1)
}

/// How a node projects onto the pass timelines — a cached summary of
/// `(node state, holder job state, waiter status)`, refreshed on every
/// transition so a pass never consults the job table. Stored SoA (a
/// class byte plus a busy-until time) so the per-pass projection sweep
/// streams 9 bytes per node instead of a 16-byte enum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeProjection {
    /// Idle: free in both views.
    Free,
    /// Down, reserved, or draining with a promised waiter: blocked in
    /// both views for the whole window.
    Blocked,
    /// Held by a preemptible pilot until `t`: blocked in the pilot view
    /// only (invisible to the HPC view).
    PilotUntil(SimTime),
    /// Held by a non-preemptible job until `t`: blocked in both views.
    BothUntil(SimTime),
}

const PROJ_FREE: u8 = 0;
const PROJ_BLOCKED: u8 = 1;
const PROJ_PILOT_UNTIL: u8 = 2;
const PROJ_BOTH_UNTIL: u8 = 3;

/// `wheel_pos` sentinel: node not tracked by the residue wheel.
const WHEEL_NONE: u32 = u32::MAX;

/// `park_until` sentinel: node not parked.
const NOT_PARKED: SimTime = SimTime::MAX;

/// Ground-truth state series maintained by the simulator (the poller's
/// view in [`ClusterNote::Polled`] is the *measured* counterpart).
#[derive(Debug, Clone)]
pub struct ClusterSeries {
    /// Number of idle nodes over time.
    pub idle: StepSeries,
    /// Number of nodes running pilot jobs (including draining ones).
    pub pilot: StepSeries,
    /// Number of down nodes over time.
    pub down: StepSeries,
}

/// Aggregate counters, for reports and invariants.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    /// HPC jobs started.
    pub hpc_started: u64,
    /// HPC jobs completed.
    pub hpc_completed: u64,
    /// Pilot jobs started.
    pub pilots_started: u64,
    /// Pilots preempted by higher-tier jobs.
    pub pilots_preempted: u64,
    /// Pilots that reached their granted limit.
    pub pilots_timed_out: u64,
    /// Pilots killed by node failures (no SIGTERM).
    pub pilots_node_failed: u64,
    /// Quick passes due (run or skipped).
    pub quick_passes: u64,
    /// Quick passes over a settled queue, counted and not run (counted
    /// inside `quick_passes` as well).
    pub quick_passes_skipped: u64,
    /// Backfill passes due (run or skipped).
    pub backfill_passes: u64,
    /// Backfill passes over a settled queue, counted and not run
    /// (counted inside `backfill_passes` as well).
    pub backfill_passes_skipped: u64,
    /// Future-start reservations created.
    pub reservations_made: u64,
    /// Delay of pinned demand claims beyond their intended start
    /// (seconds) — the paper's "at most 3 minutes" invasiveness bound.
    pub demand_delay_secs: OnlineStats,
    /// Granted pilot durations (minutes).
    pub pilot_granted_mins: OnlineStats,
    /// Nodes re-masked by the residue-wheel sweep and by admission from
    /// the park, summed over every pass — the regression witness that
    /// the endpoint-bucket walk is crossing-proportional (a full-bucket
    /// walk would inflate this) and that nodes busy past the window are
    /// not walked at all.
    pub wheel_nodes_reprojected: u64,
    /// Placements made by passes: jobs started plus reservations
    /// created.
    pub pass_placements: u64,
    /// Per-phase pass span totals in wall-clock nanoseconds, populated
    /// only when [`ClusterSim::enable_pass_spans`] was called: plane
    /// re-anchor (or fresh build), wheel sweep, dirty-node patch +
    /// window paint, and the placement walk itself.
    pub span_rebase_ns: u64,
    pub span_wheel_ns: u64,
    pub span_dirty_ns: u64,
    pub span_placement_ns: u64,
}

impl Counters {
    /// Passes of either kind that were due over a settled queue and not
    /// run.
    pub fn passes_skipped(&self) -> u64 {
        self.quick_passes_skipped + self.backfill_passes_skipped
    }

    /// Fold another run's counters into this one (multi-day / multi-seed
    /// aggregation for scraped reports).
    pub fn absorb(&mut self, other: &Counters) {
        self.hpc_started += other.hpc_started;
        self.hpc_completed += other.hpc_completed;
        self.pilots_started += other.pilots_started;
        self.pilots_preempted += other.pilots_preempted;
        self.pilots_timed_out += other.pilots_timed_out;
        self.pilots_node_failed += other.pilots_node_failed;
        self.quick_passes += other.quick_passes;
        self.quick_passes_skipped += other.quick_passes_skipped;
        self.backfill_passes += other.backfill_passes;
        self.backfill_passes_skipped += other.backfill_passes_skipped;
        self.reservations_made += other.reservations_made;
        self.demand_delay_secs.merge(&other.demand_delay_secs);
        self.pilot_granted_mins.merge(&other.pilot_granted_mins);
        self.wheel_nodes_reprojected += other.wheel_nodes_reprojected;
        self.pass_placements += other.pass_placements;
        self.span_rebase_ns += other.span_rebase_ns;
        self.span_wheel_ns += other.span_wheel_ns;
        self.span_dirty_ns += other.span_dirty_ns;
        self.span_placement_ns += other.span_placement_ns;
    }
}

/// Advance a span mark (when spans are enabled) and fold the elapsed
/// nanoseconds into `acc`.
#[inline]
fn span_lap(mark: &mut Option<std::time::Instant>, acc: &mut u64) {
    if let Some(m) = mark {
        let now = std::time::Instant::now();
        *acc += now.duration_since(*m).as_nanos() as u64;
        *m = now;
    }
}

/// The Slurm-like cluster simulator.
pub struct ClusterSim {
    cfg: SlurmConfig,
    nodes: Vec<Node>,
    jobs: Vec<Job>,
    /// Jobs submitted and not yet seen started or cancelled, kept in
    /// pass order ([`Self::pass_key`]); started jobs linger until the
    /// end-of-pass compaction, so every reader filters on `is_pending`.
    pending: Vec<JobId>,
    reservations: Vec<Reservation>,
    handovers: HashMap<JobId, Handover>,
    node_waiter: HashMap<NodeId, JobId>,
    /// Instant of the last quick pass (`ZERO` before the first).
    last_quick: SimTime,
    /// Instant of the one queued `QuickPass` event that will run a pass,
    /// if any; every other `QuickPass` event is a request.
    quick_at: Option<SimTime>,
    poll_rng: SimRng,
    series: ClusterSeries,
    counters: Counters,
    n_idle: i64,
    n_pilot: i64,
    n_down: i64,
    /// Cached per-node pass projections, SoA (see [`NodeProjection`]).
    proj_class: Vec<u8>,
    proj_until: Vec<SimTime>,
    /// Bit `n` set iff node `n` is idle — intersected with the
    /// timeline's slot-0-free set for the eligible-node lookup.
    idle_bits: Vec<u64>,
    /// Bit `n` set iff node `n` runs a pilot job (draining included) —
    /// with `idle_bits`, the two sets a poll reads.
    pilot_bits: Vec<u64>,
    /// The joined (idle ∪ pilot) availability trace, built poll by poll.
    poll_intervals: PollIntervals,
    /// The standing proof that a pass would place nothing, if any.
    settled: Option<Settled>,
    /// Pending pilots per declared limit in minutes, kept at `submit`,
    /// `start_job` and `cancel_pending`; a limit whose pilots all left
    /// stays with count 0.
    pilot_census: Vec<(u64, usize)>,
    /// The persistent scheduling plane: a long-lived pilot view (and a
    /// lazily materialized HPC view) re-anchored at each pass instant
    /// and mutated by the events the simulator emits instead of being
    /// rebuilt from the node table every pass.
    plane_pilot: Option<Timeline>,
    plane_hpc: Option<Timeline>,
    /// Nodes whose projection changed since the plane was last brought
    /// up to date (dedup'd by the bitset) — the "events since last pass"
    /// a pass applies in O(dirty) instead of O(nodes).
    plane_dirty: Vec<NodeId>,
    plane_dirty_bits: Vec<u64>,
    /// The busy-release residue wheel: bucket `b` holds the nodes whose
    /// projected release time `u` lies inside the window and has
    /// `u mod bf_resolution` in bucket `b`'s span (later releases wait in
    /// `plane_park`). A node's slot-rounded free mask changes exactly when
    /// the plane anchor crosses such a residue, so a pass re-masks only
    /// the buckets its anchor moved across — every busy node is touched
    /// once per resolution period instead of once per pass. Each bucket
    /// is a ring kept **sorted by (residue, node)**, so the endpoint
    /// buckets of a sweep locate the crossed residue range by binary
    /// search and the walk is crossing-proportional: uncrossed entries
    /// are never examined (witnessed by
    /// [`Counters::wheel_nodes_reprojected`]).
    plane_wheel: Vec<Vec<(u32, NodeId)>>,
    /// Per-node live wheel residue (`WHEEL_NONE` when untracked);
    /// entries whose stored residue disagrees are stale and dropped
    /// lazily on sweep.
    wheel_pos: Vec<u32>,
    /// Busy nodes whose release lies at or past the window end: all-busy
    /// on this lap and the next, so they wait here, earliest release
    /// first, instead of being re-masked to the same zeros once per lap.
    /// `prepare_plane` admits an entry to the wheel once the window has
    /// advanced past its `until`.
    plane_park: BinaryHeap<Reverse<(SimTime, NodeId)>>,
    /// Per-node live park key (`NOT_PARKED` when none); entries whose
    /// stored `until` disagrees are stale and dropped on admission.
    park_until: Vec<SimTime>,
    /// Divide-free reciprocals for the wheel's residue arithmetic
    /// (`wheel_gran.d` is the bucket granularity in ms).
    wheel_res: Recip,
    wheel_gran: Recip,
    /// Pending pinned demand claims, maintained on submit, so painting
    /// their announced windows never re-scans the whole pending queue.
    pinned_pending: Vec<JobId>,
    /// Buffers a pass fills and hands back, so that passes (thousands a
    /// day, most placing nothing) allocate nothing once these have
    /// grown: the pass queue's jobs, the nodes a pass painted, and the
    /// bucket [`Self::sweep_wheel`] rebuilds into.
    queue_scratch: Vec<JobId>,
    painted_scratch: Vec<NodeId>,
    wheel_scratch: Vec<(u32, NodeId)>,
    /// Run the retained pre-optimization pass instead (differential
    /// tests only).
    reference_mode: bool,
    /// Measure per-phase pass spans into [`Counters`] (off by default:
    /// four `Instant` reads per pass when on, none when off).
    pass_spans: bool,
}

/// Multiply-shift reciprocal (round-up magic-number division) for
/// dividing simulation timestamps by a small runtime constant without a
/// hardware divide — the residue wheel takes `until mod resolution` for
/// every busy node on a rebuild and for every endpoint-bucket entry on a
/// sweep, and two u64 divides per node dominate those walks. With
/// `m = ceil(2^64 / d)`, `floor(x * m / 2^64) == x / d` for every
/// `x ≤ 2^64 / d` at minimum — for the 2-minute default resolution
/// that is ~4,800 years of simulated time; a debug assert guards the
/// bound anyway.
#[derive(Clone, Copy)]
struct Recip {
    m: u128,
    d: u64,
}

impl Recip {
    fn new(d: u64) -> Self {
        debug_assert!(d > 0);
        Self {
            m: (1u128 << 64).div_ceil(d as u128),
            d,
        }
    }

    #[inline]
    fn div(self, x: u64) -> u64 {
        let q = ((x as u128 * self.m) >> 64) as u64;
        debug_assert_eq!(q, x / self.d);
        q
    }

    #[inline]
    fn rem(self, x: u64) -> u64 {
        x - self.div(x) * self.d
    }
}

/// The window geometry of a pass plane: turns a node's cached projection
/// into its per-view free masks, anchored at the plane origin. Shared by
/// the persistent-plane maintenance and the fresh differential build so
/// the two arithmetics cannot drift.
#[derive(Clone, Copy)]
struct ProjView {
    origin: SimTime,
    window_end: SimTime,
    slot_ms: u64,
    all_free: u64,
}

impl ProjView {
    /// True iff a node busy until `t` is busy over the whole window —
    /// the one comparison that decides an all-zero mask, a parked node
    /// and its admission to the wheel.
    #[inline]
    fn past_window(&self, t: SimTime) -> bool {
        t >= self.window_end
    }

    /// Busy-until time → free mask (busy from slot 0 through the slot
    /// containing `t`, rounded up — mirrors `Timeline::block_until`).
    #[inline]
    fn until_mask(&self, t: SimTime) -> u64 {
        if self.past_window(t) {
            return 0;
        }
        if t <= self.origin {
            return self.all_free;
        }
        let s = t.since(self.origin).as_millis().div_ceil(self.slot_ms);
        self.all_free & !((1u64 << s) - 1)
    }

    /// `(pilot view, hpc view)` free masks for one node projection.
    #[inline]
    fn masks(&self, class: u8, until: SimTime) -> (u64, u64) {
        match class {
            PROJ_FREE => (self.all_free, self.all_free),
            PROJ_BLOCKED => (0, 0),
            PROJ_PILOT_UNTIL => (self.until_mask(until), self.all_free),
            _ => {
                let m = self.until_mask(until);
                (m, m)
            }
        }
    }
}

impl ClusterSim {
    /// A cluster of `n_nodes` idle nodes.
    pub fn new(cfg: SlurmConfig, n_nodes: usize, seed: u64) -> Self {
        let start = SimTime::ZERO;
        let words = n_nodes.div_ceil(64);
        let res_ms = cfg.bf_resolution.as_millis();
        let wheel_gran_ms = res_ms.div_ceil(128).max(1);
        let n_buckets = res_ms.div_ceil(wheel_gran_ms) as usize;
        let mut idle_bits = vec![u64::MAX; words];
        if !n_nodes.is_multiple_of(64) && words > 0 {
            idle_bits[words - 1] = (1u64 << (n_nodes % 64)) - 1;
        }
        ClusterSim {
            cfg,
            nodes: vec![Node::new(); n_nodes],
            jobs: Vec::new(),
            pending: Vec::new(),
            reservations: Vec::new(),
            handovers: HashMap::new(),
            node_waiter: HashMap::new(),
            last_quick: SimTime::ZERO,
            quick_at: None,
            poll_rng: SimRng::seed_from_u64(seed ^ 0x706f_6c6c),
            series: ClusterSeries {
                idle: StepSeries::new(start, n_nodes as f64),
                pilot: StepSeries::new(start, 0.0),
                down: StepSeries::new(start, 0.0),
            },
            counters: Counters::default(),
            n_idle: n_nodes as i64,
            n_pilot: 0,
            n_down: 0,
            proj_class: vec![PROJ_FREE; n_nodes],
            proj_until: vec![SimTime::ZERO; n_nodes],
            idle_bits,
            pilot_bits: vec![0; words],
            poll_intervals: PollIntervals::new(n_nodes),
            settled: None,
            pilot_census: Vec::new(),
            plane_pilot: None,
            plane_hpc: None,
            plane_dirty: Vec::new(),
            plane_dirty_bits: vec![0; words],
            plane_wheel: vec![Vec::new(); n_buckets],
            wheel_pos: vec![WHEEL_NONE; n_nodes],
            plane_park: BinaryHeap::new(),
            park_until: vec![NOT_PARKED; n_nodes],
            wheel_res: Recip::new(res_ms),
            wheel_gran: Recip::new(wheel_gran_ms),
            pinned_pending: Vec::new(),
            queue_scratch: Vec::new(),
            painted_scratch: Vec::new(),
            wheel_scratch: Vec::new(),
            reference_mode: false,
            pass_spans: false,
        }
    }

    /// Schedule the initial periodic events (backfill pass and poller).
    pub fn bootstrap(&mut self, now: SimTime, out: &mut Outbox<ClusterEvent>) {
        out.at(now, ClusterEvent::BackfillPass);
        out.at(now, ClusterEvent::Poll);
    }

    /// Switch to the retained pre-optimization scheduling pass
    /// (differential regression tests only).
    #[doc(hidden)]
    pub fn set_reference_mode(&mut self, on: bool) {
        self.reference_mode = on;
        // The reference pass never settles the queue, so it never skips.
        self.settled = None;
        // Dirty tracking is disabled in reference mode, so any retained
        // plane would go silently stale across a mode switch.
        self.plane_pilot = None;
        self.plane_hpc = None;
        self.plane_dirty.clear();
        self.plane_dirty_bits.fill(0);
    }

    /// Measure per-phase pass spans (rebase / wheel sweep / dirty patch
    /// / placement) into [`Counters`] from now on. Off by default; when
    /// on, each pass costs four extra `Instant` reads.
    pub fn enable_pass_spans(&mut self) {
        self.pass_spans = true;
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of job records ever submitted.
    pub fn n_jobs(&self) -> usize {
        self.jobs.len()
    }

    /// Current idle node count.
    pub fn n_idle(&self) -> usize {
        self.n_idle as usize
    }

    /// Current count of nodes running pilots.
    pub fn n_pilot_nodes(&self) -> usize {
        self.n_pilot as usize
    }

    /// Access a job record.
    pub fn job(&self, id: JobId) -> &Job {
        &self.jobs[id.0 as usize]
    }

    /// Ground-truth state series.
    pub fn series(&self) -> &ClusterSeries {
        &self.series
    }

    /// At the end of a run: the ground-truth state series, and the
    /// availability trace (idle ∪ pilot, §V-B) as the poller saw it —
    /// from its first sample to its last, which counts as unavailable.
    /// Panics unless the poller sampled at two instants.
    pub fn into_parts(self) -> (ClusterSeries, AvailabilityTrace) {
        (self.series, self.poll_intervals.finish())
    }

    /// Aggregate counters.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// The live future-start reservations `(job, start, end, nodes)` of
    /// still-pending jobs, sorted by job id (differential tests).
    #[doc(hidden)]
    pub fn reservation_snapshot(&self) -> Vec<(JobId, SimTime, SimTime, Vec<NodeId>)> {
        let mut v: Vec<_> = self
            .reservations
            .iter()
            .filter(|r| self.jobs[r.job.0 as usize].is_pending())
            .map(|r| (r.job, r.start, r.end, r.nodes.clone()))
            .collect();
        v.sort_by_key(|r| r.0);
        v
    }

    /// Pending job count matching a predicate (manager replenishment).
    pub fn pending_matching(&self, pred: impl Fn(&Job) -> bool) -> usize {
        self.pending
            .iter()
            .filter(|id| {
                let j = &self.jobs[id.0 as usize];
                j.is_pending() && pred(j)
            })
            .count()
    }

    /// Ids of pending jobs matching a predicate, in submission order
    /// (ids are assigned in submission order) — what a manager needs to
    /// *shrink* its queue (pick victims, then
    /// [`cancel_pending`](ClusterSim::cancel_pending) each).
    pub fn pending_ids_matching(&self, pred: impl Fn(&Job) -> bool) -> Vec<JobId> {
        let mut ids: Vec<JobId> = self
            .pending
            .iter()
            .copied()
            .filter(|id| {
                let j = &self.jobs[id.0 as usize];
                j.is_pending() && pred(j)
            })
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Pending *pilot* jobs per declared limit in minutes, as `(limit,
    /// count)` pairs (pilot managers): a census kept as pilots are
    /// submitted, started and cancelled, not a walk of the queue. A
    /// limit whose pilots all left stays listed with count 0; a managed
    /// queue holds a handful of distinct limits, so callers `find`.
    pub fn pending_pilots_by_limit(&self) -> &[(u64, usize)] {
        &self.pilot_census
    }

    /// The census entry for pilots of declared limit `limit`.
    fn pilot_census_slot(&mut self, limit: SimDuration) -> &mut usize {
        let mins = limit.as_mins();
        let at = match self.pilot_census.iter().position(|(m, _)| *m == mins) {
            Some(at) => at,
            None => {
                self.pilot_census.push((mins, 0));
                self.pilot_census.len() - 1
            }
        };
        &mut self.pilot_census[at].1
    }

    /// Submit a job.
    pub fn submit(&mut self, now: SimTime, spec: JobSpec, out: &mut Outbox<ClusterEvent>) -> JobId {
        assert!(spec.nodes >= 1, "job must request at least one node");
        assert!(
            spec.nodes as usize <= self.nodes.len(),
            "job requests {} nodes but the partition has {} (sbatch rejects this)",
            spec.nodes,
            self.nodes.len()
        );
        if let Some(p) = &spec.pinned_nodes {
            assert_eq!(p.len() as u32, spec.nodes);
        }
        let id = JobId(self.jobs.len() as u64);
        self.jobs.push(Job {
            granted: spec.time_limit,
            spec,
            submitted: now,
            state: JobState::Pending,
        });
        let key = self.pass_key(id);
        let at = self.pending.partition_point(|p| self.pass_key(*p) < key);
        self.pending.insert(at, id);
        let spec = &self.jobs[id.0 as usize].spec;
        if spec.pinned_nodes.is_some() && spec.earliest_start.is_some() {
            self.pinned_pending.push(id);
        }
        if let Some(s) = &mut self.settled {
            match spec.earliest_start {
                // Out of the queue until `t`; until then it only paints
                // its window, which frees nothing.
                Some(t) if t > now => s.next_due = Some(s.next_due.map_or(t, |d| d.min(t))),
                // No shorter than a pilot that found no node, and runs
                // from slot 0 have only shrunk since.
                None if spec.kind == JobKind::Pilot
                    && spec.pinned_nodes.is_none()
                    && pilot_fit_slots(&self.cfg, spec) >= s.min_failed_dfit => {}
                _ => self.settled = None,
            }
        }
        if spec.kind == JobKind::Pilot {
            let limit = spec.time_limit;
            *self.pilot_census_slot(limit) += 1;
        }
        // Pinned claims must fire close to their intended start even if
        // the cluster is otherwise quiet.
        if let Some(t) = self.jobs[id.0 as usize].spec.earliest_start {
            if t > now {
                out.at(t, ClusterEvent::QuickPass);
            }
        }
        self.request_quick(now, out);
        id
    }

    /// Start a pinned job immediately on its (idle) nodes, bypassing the
    /// queue. Used to initialize experiments on an already-full cluster
    /// (the paper's days start with ~99% utilization); panics if any
    /// pinned node is not idle.
    pub fn force_start(
        &mut self,
        now: SimTime,
        spec: JobSpec,
        out: &mut Outbox<ClusterEvent>,
        notes: &mut Vec<ClusterNote>,
    ) -> JobId {
        let nodes = spec
            .pinned_nodes
            .clone()
            .expect("force_start requires pinned nodes");
        for n in &nodes {
            assert!(
                self.nodes[n.0 as usize].is_idle(),
                "force_start on non-idle node {n}"
            );
        }
        let limit = spec.time_limit;
        if spec.kind == JobKind::Pilot {
            // Never queued, but `start_job` takes it out of the census.
            *self.pilot_census_slot(limit) += 1;
        }
        let id = JobId(self.jobs.len() as u64);
        self.jobs.push(Job {
            granted: limit,
            spec,
            submitted: now,
            state: JobState::Pending,
        });
        self.start_job(now, id, nodes, limit, out, notes);
        id
    }

    /// Cancel a pending job; returns false if it already left the queue.
    pub fn cancel_pending(&mut self, now: SimTime, id: JobId) -> bool {
        let job = &mut self.jobs[id.0 as usize];
        if !job.is_pending() || self.handovers.contains_key(&id) {
            return false;
        }
        job.state = JobState::Done {
            outcome: JobOutcome::Cancelled,
            at: now,
        };
        self.pending.retain(|j| *j != id);
        // A cancelled claim takes its painted window with it.
        self.settled = None;
        if job.spec.kind == JobKind::Pilot {
            let limit = job.spec.time_limit;
            *self.pilot_census_slot(limit) -= 1;
        }
        true
    }

    /// A draining pilot finished its handoff and exited voluntarily.
    pub fn pilot_exited(
        &mut self,
        now: SimTime,
        id: JobId,
        out: &mut Outbox<ClusterEvent>,
        notes: &mut Vec<ClusterNote>,
    ) {
        let job = &self.jobs[id.0 as usize];
        let outcome = match &job.state {
            JobState::Draining { outcome, .. } => *outcome,
            // Exiting without a SIGTERM (shouldn't happen in the
            // protocol, tolerated as a completion).
            JobState::Running { .. } => JobOutcome::Completed,
            _ => return, // already gone (e.g. grace expired first)
        };
        self.end_job(now, id, outcome, out, notes);
    }

    /// Main event dispatch.
    pub fn handle(
        &mut self,
        now: SimTime,
        ev: ClusterEvent,
        out: &mut Outbox<ClusterEvent>,
        notes: &mut Vec<ClusterNote>,
    ) {
        match ev {
            ClusterEvent::QuickPass => {
                if self.quick_at != Some(now) {
                    // Not the queued pass but a claim's wake-up at its
                    // `earliest_start`: a request like any other, unless
                    // a pass has just run at this very instant.
                    if self.last_quick != now {
                        self.request_quick(now, out);
                    }
                    return;
                }
                self.quick_at = None;
                self.last_quick = now;
                self.counters.quick_passes += 1;
                if self.queue_is_settled(now) {
                    self.counters.quick_passes_skipped += 1;
                    #[cfg(debug_assertions)]
                    self.run_settled_pass_anyway(now, PassMode::Quick);
                } else if self.reference_mode {
                    self.run_pass_reference(now, PassMode::Quick, out, notes);
                } else {
                    self.run_pass(now, PassMode::Quick, out, notes);
                }
            }
            ClusterEvent::BackfillPass => {
                self.counters.backfill_passes += 1;
                let cost = if self.queue_is_settled(now) {
                    self.counters.backfill_passes_skipped += 1;
                    // The walk over the queue is what a pass that places
                    // nothing charges to the next interval.
                    let queue = self.pass_queue(now);
                    let queued = queue.jobs.len();
                    self.queue_scratch = queue.jobs;
                    let examined = queued.min(self.cfg.bf_max_job_test);
                    let cost = self.cfg.bf_per_job_cost * examined as u64;
                    #[cfg(debug_assertions)]
                    assert_eq!(
                        self.run_settled_pass_anyway(now, PassMode::Backfill),
                        cost,
                        "a skipped backfill pass charged another cost than the pass"
                    );
                    cost
                } else if self.reference_mode {
                    self.run_pass_reference(now, PassMode::Backfill, out, notes)
                } else {
                    self.run_pass(now, PassMode::Backfill, out, notes)
                };
                let next = self.cfg.bf_interval.max(cost);
                out.after(next, ClusterEvent::BackfillPass);
            }
            ClusterEvent::JobFinished(id) => {
                if matches!(self.jobs[id.0 as usize].state, JobState::Running { .. }) {
                    self.end_job(now, id, JobOutcome::Completed, out, notes);
                }
            }
            ClusterEvent::TimeLimit(id) => self.on_time_limit(now, id, out, notes),
            ClusterEvent::GraceExpired(id) => {
                if let JobState::Draining {
                    kill_at, outcome, ..
                } = self.jobs[id.0 as usize].state.clone()
                {
                    if kill_at <= now {
                        self.end_job(now, id, outcome, out, notes);
                    }
                }
            }
            ClusterEvent::Poll => {
                let sample = self.take_poll_sample(now);
                notes.push(ClusterNote::Polled(sample));
                out.after(self.sample_poll_gap(), ClusterEvent::Poll);
            }
            ClusterEvent::NodeDown(n) => self.on_node_down(now, n, out, notes),
            ClusterEvent::NodeUp(n) => {
                if self.nodes[n.0 as usize].state == NodeState::Down {
                    self.set_node_state(now, n, NodeState::Idle);
                    self.request_quick(now, out);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Incremental pass bookkeeping
    // ------------------------------------------------------------------

    /// True iff a pass of either kind at `now` provably places nothing:
    /// the proof stands and no job has come due since it was made.
    fn queue_is_settled(&self, now: SimTime) -> bool {
        self.settled
            .is_some_and(|s| s.next_due.is_none_or(|due| now < due))
    }

    /// Every claim waiting on a handover holds, or is first in line for,
    /// each of its nodes. A claim that found another job's waiter on a
    /// node registers its own in the first pass after that waiter is
    /// served, so a queue with such a claim in it is not settled.
    fn handovers_own_their_nodes(&self) -> bool {
        self.handovers.iter().all(|(id, h)| {
            h.needed.iter().all(|n| {
                self.nodes[n.0 as usize].state == NodeState::Reserved(*id)
                    || self.node_waiter.get(n) == Some(id)
            })
        })
    }

    /// A skipped pass, run anyway (debug builds): it must schedule
    /// nothing, emit nothing, place nothing and touch no node, waiter or
    /// handover. Runs on timelines built from scratch and leaves the
    /// persistent plane alone, so a debug build sweeps the wheel exactly
    /// when a release build does. Returns the cost the pass charged.
    #[cfg(debug_assertions)]
    fn run_settled_pass_anyway(&mut self, now: SimTime, mode: PassMode) -> SimDuration {
        let settled = self.settled;
        let queue = self.pass_queue(now);
        assert!(!queue.need_hpc, "settled with an unpinned HPC job queued");
        assert!(self.reservations.is_empty(), "settled over a reservation");
        // Everything a pass can change without emitting anything.
        let state = |sim: &Self| {
            let pending = |id: &&JobId| sim.jobs[id.0 as usize].is_pending();
            let live: Vec<JobId> = sim.pending.iter().filter(pending).copied().collect();
            let nodes: Vec<NodeState> = sim.nodes.iter().map(|n| n.state).collect();
            let mut handovers: Vec<(JobId, NodeList)> = sim
                .handovers
                .iter()
                .map(|(id, h)| (*id, h.ready.clone()))
                .collect();
            handovers.sort_by_key(|h| h.0);
            (
                live,
                handovers,
                sim.node_waiter.clone(),
                nodes,
                sim.proj_class.clone(),
                sim.proj_until.clone(),
                (sim.counters.pass_placements, sim.counters.reservations_made),
            )
        };
        let before = state(self);
        let (mut tl_pilot, mut tl_hpc) = self.fresh_timelines(now, mode, false);
        let mut out = Outbox::new(now);
        let mut notes = Vec::new();
        let cost = self.place_queue(
            now,
            mode,
            queue,
            &mut tl_pilot,
            &mut tl_hpc,
            &mut Vec::new(),
            &mut out,
            &mut notes,
        );
        assert!(
            out.is_empty() && notes.is_empty(),
            "skipped {mode:?} pass at {now:?} schedules {} events and emits {notes:?}",
            out.len()
        );
        assert!(
            before == state(self),
            "skipped {mode:?} pass at {now:?} changes state"
        );
        self.settled = settled;
        cost
    }

    /// Recompute a node's cached pass projection from authoritative
    /// state. O(1); called on every transition affecting the node.
    fn refresh_node(&mut self, n: NodeId) {
        let i = n.0 as usize;
        let mut runs_pilot = false;
        let p = match self.nodes[i].state {
            NodeState::Idle => NodeProjection::Free,
            NodeState::Down | NodeState::Reserved(_) => NodeProjection::Blocked,
            NodeState::Busy(j) => {
                let job = &self.jobs[j.0 as usize];
                runs_pilot = job.spec.kind == JobKind::Pilot;
                let (pred_end, draining) = match &job.state {
                    JobState::Running { granted_end, .. } => (*granted_end, false),
                    JobState::Draining { kill_at, .. } => (*kill_at, true),
                    _ => unreachable!("busy node with inactive job"),
                };
                if draining && self.node_waiter.contains_key(&n) {
                    // Node promised to a preempting job.
                    NodeProjection::Blocked
                } else if job.spec.preemptible {
                    // Preemptible pilots are invisible to the HPC view.
                    NodeProjection::PilotUntil(pred_end)
                } else {
                    NodeProjection::BothUntil(pred_end)
                }
            }
        };
        let (class, until) = match p {
            NodeProjection::Free => (PROJ_FREE, SimTime::ZERO),
            NodeProjection::Blocked => (PROJ_BLOCKED, SimTime::ZERO),
            NodeProjection::PilotUntil(t) => (PROJ_PILOT_UNTIL, t),
            NodeProjection::BothUntil(t) => (PROJ_BOTH_UNTIL, t),
        };
        self.proj_class[i] = class;
        self.proj_until[i] = until;
        let bit = 1u64 << (n.0 % 64);
        if self.nodes[i].is_idle() {
            self.idle_bits[i / 64] |= bit;
        } else {
            self.idle_bits[i / 64] &= !bit;
        }
        if runs_pilot {
            self.pilot_bits[i / 64] |= bit;
        } else {
            self.pilot_bits[i / 64] &= !bit;
        }
        // The projection changed (or may have): the persistent plane's
        // masks for this node are stale until the next pass recomputes
        // them.
        if !self.reference_mode && self.plane_dirty_bits[i / 64] & bit == 0 {
            self.plane_dirty_bits[i / 64] |= bit;
            self.plane_dirty.push(n);
        }
    }

    // ------------------------------------------------------------------
    // Scheduling passes
    // ------------------------------------------------------------------

    /// The projection→mask geometry for a plane anchored at `origin`.
    fn proj_view(&self, origin: SimTime) -> ProjView {
        let n_slots = self.cfg.n_slots();
        let slot_ms = self.cfg.bf_resolution.as_millis();
        ProjView {
            origin,
            window_end: origin + SimDuration::from_millis(slot_ms * n_slots as u64),
            slot_ms,
            all_free: (1u64 << n_slots) - 1,
        }
    }

    /// One branch-light sweep projecting every node onto fresh proj-only
    /// timelines at `origin` — the O(nodes) path, taken only on the very
    /// first pass (and in the debug differential); all later passes
    /// maintain the persistent plane incrementally.
    fn fresh_proj_planes(&self, origin: SimTime, need_hpc: bool) -> (Timeline, Timeline) {
        let pv = self.proj_view(origin);
        let n_slots = self.cfg.n_slots();
        let n = self.nodes.len();
        let words = n.div_ceil(64);
        let mut pilot_masks = Vec::with_capacity(n);
        let mut hpc_masks = Vec::with_capacity(if need_hpc { n } else { 0 });
        let mut pilot_nf = Vec::with_capacity(words);
        let mut hpc_nf = Vec::with_capacity(if need_hpc { words } else { 0 });
        let (mut pw, mut hw) = (0u64, 0u64);
        for (i, class) in self.proj_class.iter().enumerate() {
            let (pm, hm) = pv.masks(*class, self.proj_until[i]);
            pilot_masks.push(pm);
            pw |= (pm & 1) << (i & 63);
            if need_hpc {
                hpc_masks.push(hm);
                hw |= (hm & 1) << (i & 63);
            }
            if i & 63 == 63 {
                pilot_nf.push(pw);
                pw = 0;
                if need_hpc {
                    hpc_nf.push(hw);
                    hw = 0;
                }
            }
        }
        if !n.is_multiple_of(64) {
            pilot_nf.push(pw);
            if need_hpc {
                hpc_nf.push(hw);
            }
        }
        let res = self.cfg.bf_resolution;
        let tl_pilot = Timeline::from_parts(origin, res, n_slots, pilot_masks, pilot_nf);
        let tl_hpc = Timeline::from_parts(origin, res, n_slots, hpc_masks, hpc_nf);
        (tl_pilot, tl_hpc)
    }

    /// A from-scratch build of both pass views exactly as a pass at `now`
    /// would see them: node projections plus the window paint (pinned
    /// pending claims always; live unpinned reservations only on quick
    /// passes, since a backfill pass re-derives its reservations). Pure —
    /// no retain/clear side effects. This is the independent authority
    /// the persistent plane is differentially checked against, so it
    /// deliberately re-scans `self.pending` for pinned claims rather than
    /// trusting the maintained `pinned_pending` list.
    fn fresh_timelines(
        &self,
        now: SimTime,
        mode: PassMode,
        need_hpc: bool,
    ) -> (Timeline, Timeline) {
        let (mut tl_pilot, mut tl_hpc) = self.fresh_proj_planes(now, need_hpc);
        for id in &self.pending {
            let job = &self.jobs[id.0 as usize];
            if !job.is_pending() {
                continue;
            }
            if let (Some(nodes), Some(_)) = (&job.spec.pinned_nodes, job.spec.earliest_start) {
                let ann = job.spec.announced_start.unwrap();
                let end = ann + job.spec.time_limit;
                for n in nodes {
                    tl_pilot.block_interval(*n, ann, end);
                    if need_hpc {
                        tl_hpc.block_interval(*n, ann, end);
                    }
                }
            }
        }
        if mode != PassMode::Backfill {
            for r in &self.reservations {
                if !self.jobs[r.job.0 as usize].is_pending() {
                    continue;
                }
                for n in &r.nodes {
                    tl_pilot.block_interval(*n, r.start, r.end);
                    if need_hpc {
                        tl_hpc.block_interval(*n, r.start, r.end);
                    }
                }
            }
        }
        (tl_pilot, tl_hpc)
    }

    /// Track `n` if it projects as busy until a future instant: in the
    /// residue wheel when that instant lies inside `pv`'s window (its
    /// mask changes when the plane anchor crosses `until`'s slot residue;
    /// free/blocked masks are anchor-invariant), in the park when it lies
    /// at or past the window end (its mask stays all-busy until the
    /// window reaches it). Bucket entries stay sorted by (residue, node);
    /// sorted insertion also dedups, so a node re-entering a residue it
    /// already has a (stale) entry at never produces duplicates.
    fn wheel_insert(&mut self, n: NodeId, pv: &ProjView) {
        let i = n.0 as usize;
        let class = self.proj_class[i];
        let until = self.proj_until[i];
        if class == PROJ_FREE || class == PROJ_BLOCKED || until <= pv.origin {
            return;
        }
        if pv.past_window(until) {
            if self.park_until[i] != until {
                self.park_until[i] = until;
                self.wheel_pos[i] = WHEEL_NONE;
                self.plane_park.push(Reverse((until, n)));
            }
            return;
        }
        self.park_until[i] = NOT_PARKED;
        let r = self.wheel_res.rem(until.as_millis()) as u32;
        if self.wheel_pos[i] != r {
            self.wheel_pos[i] = r;
            let b = self.wheel_gran.div(r as u64) as usize;
            let bucket = &mut self.plane_wheel[b];
            let at = bucket.partition_point(|&e| e < (r, n));
            if bucket.get(at) != Some(&(r, n)) {
                bucket.insert(at, (r, n));
            }
        }
    }

    /// Rebuild the residue wheel and the park from scratch (fresh plane
    /// build only).
    fn rebuild_wheel(&mut self, now: SimTime) {
        for b in &mut self.plane_wheel {
            b.clear();
        }
        self.wheel_pos.fill(WHEEL_NONE);
        self.plane_park.clear();
        self.park_until.fill(NOT_PARKED);
        let pv = self.proj_view(now);
        for i in 0..self.nodes.len() {
            self.wheel_insert(NodeId(i as u32), &pv);
        }
    }

    /// Set `n`'s masks in both views to its cached projection under `pv`.
    #[inline]
    fn remask(&self, n: NodeId, pv: &ProjView, pilot: &mut Timeline, hpc: &mut Option<Timeline>) {
        let i = n.0 as usize;
        let (pm, hm) = pv.masks(self.proj_class[i], self.proj_until[i]);
        pilot.set_node_mask(n, pm);
        if let Some(h) = hpc.as_mut() {
            h.set_node_mask(n, hm);
        }
    }

    /// Admit every parked node `pv`'s window has reached: its mask may
    /// open on this lap for the first time, and from here on the wheel
    /// tracks it.
    fn admit_parked(&mut self, pv: &ProjView, pilot: &mut Timeline, hpc: &mut Option<Timeline>) {
        while let Some(&Reverse((until, n))) = self.plane_park.peek() {
            if pv.past_window(until) {
                break;
            }
            self.plane_park.pop();
            let i = n.0 as usize;
            if self.park_until[i] != until {
                continue; // stale (released, re-let or re-parked) entry
            }
            self.park_until[i] = NOT_PARKED;
            self.counters.wheel_nodes_reprojected += 1;
            self.remask(n, pv, pilot, hpc);
            self.wheel_insert(n, pv);
        }
    }

    /// Re-mask every node whose busy-release residue the plane anchor
    /// crossed while moving from `prev` to `now`; survivors are kept in
    /// their bucket for the next lap, released nodes leave the wheel.
    fn sweep_wheel(
        &mut self,
        prev: SimTime,
        now: SimTime,
        pv: &ProjView,
        pilot: &mut Timeline,
        hpc: &mut Option<Timeline>,
    ) {
        let res_ms = self.cfg.bf_resolution.as_millis();
        let sweep_all = now.since(prev).as_millis() >= res_ms;
        let (prev_r, now_r) = (
            self.wheel_res.rem(prev.as_millis()),
            self.wheel_res.rem(now.as_millis()),
        );
        let (b0, b1) = (
            self.wheel_gran.div(prev_r) as usize,
            self.wheel_gran.div(now_r) as usize,
        );
        // Buckets are coarser than residues, but each bucket ring is
        // sorted by residue: the crossed residues (prev_r, now_r] — at
        // most two contiguous spans when the anchor wrapped past the
        // period — are located by binary search, so uncrossed entries in
        // the endpoint buckets are never examined and the sweep's work
        // is proportional to the residues actually crossed.
        let wrapped = now_r < prev_r;
        let in_range = |b: usize| {
            if sweep_all {
                true
            } else if !wrapped {
                b0 <= b && b <= b1
            } else {
                b >= b0 || b <= b1 // the anchor wrapped past the period
            }
        };
        for b in 0..self.plane_wheel.len() {
            if !in_range(b) || self.plane_wheel[b].is_empty() {
                continue;
            }
            let bucket = std::mem::take(&mut self.plane_wheel[b]);
            // The crossed sub-ranges of this sorted bucket, in index
            // order and disjoint (when wrapped, the `r <= now_r` span
            // sorts before the `r > prev_r` span).
            let after_prev =
                |bk: &[(u32, NodeId)]| bk.partition_point(|&(r, _)| (r as u64) <= prev_r);
            let upto_now = |bk: &[(u32, NodeId)]| bk.partition_point(|&(r, _)| (r as u64) <= now_r);
            let ranges: [(usize, usize); 2] = if sweep_all {
                [(0, bucket.len()), (bucket.len(), bucket.len())]
            } else if !wrapped {
                let (lo, hi) = (after_prev(&bucket), upto_now(&bucket));
                [(lo, hi.max(lo)), (bucket.len(), bucket.len())]
            } else {
                [(0, upto_now(&bucket)), (after_prev(&bucket), bucket.len())]
            };
            let mut out = std::mem::take(&mut self.wheel_scratch);
            out.clear();
            let mut idx = 0usize;
            for &(lo, hi) in &ranges {
                out.extend_from_slice(&bucket[idx..lo.max(idx)]);
                for &(r, n) in &bucket[lo..hi] {
                    let i = n.0 as usize;
                    if self.wheel_pos[i] != r {
                        continue; // stale (re-bucketed or released) entry
                    }
                    let class = self.proj_class[i];
                    let until = self.proj_until[i];
                    self.counters.wheel_nodes_reprojected += 1;
                    let (pm, hm) = pv.masks(class, until);
                    pilot.set_node_mask(n, pm);
                    if let Some(h) = hpc.as_mut() {
                        h.set_node_mask(n, hm);
                    }
                    if class == PROJ_FREE || class == PROJ_BLOCKED || until <= now {
                        self.wheel_pos[i] = WHEEL_NONE;
                        continue;
                    }
                    out.push((r, n));
                }
                idx = hi.max(idx);
            }
            out.extend_from_slice(&bucket[idx..]);
            self.plane_wheel[b] = out;
            self.wheel_scratch = bucket;
        }
    }

    /// Bring the persistent plane to the pass instant and paint the live
    /// claim/reservation windows, in O(events + residue crossings) since
    /// the last pass instead of O(nodes):
    ///
    /// 1. re-anchor the retained planes at `now` without touching masks —
    ///    a node's slot-rounded free mask only changes when the anchor
    ///    crosses one of its busy-release residues — and sweep the wheel
    ///    buckets the anchor moved across, re-masking exactly the
    ///    crossed nodes (or build the planes fresh the first time);
    /// 2. re-mask the dirty-listed nodes — the ones `refresh_node`
    ///    touched since the last pass;
    /// 3. paint pending pinned-claim windows and (on quick passes) the
    ///    live reservations, recording every painted node so
    ///    [`Self::finish_plane`] can restore the proj-only invariant.
    ///
    /// Returns `(pilot view, hpc view for this pass, parked hpc view,
    /// painted nodes)`; the pass hpc view is a zero-node dummy when the
    /// pass does not need it, with the materialized plane (if any) parked
    /// and kept coherent for the next pass that does.
    fn prepare_plane(
        &mut self,
        now: SimTime,
        mode: PassMode,
        need_hpc: bool,
    ) -> (Timeline, Timeline, Option<Timeline>, Vec<NodeId>) {
        let pv = self.proj_view(now);
        let n_slots = self.cfg.n_slots();

        // 1. Re-anchor (or build) the planes at `now`.
        let mut mark = self.pass_spans.then(std::time::Instant::now);
        let (mut pilot, mut hpc, built_fresh) =
            match (self.plane_pilot.take(), self.plane_hpc.take()) {
                (Some(mut p), mut h) if p.origin() <= now => {
                    let prev = p.origin();
                    if prev < now {
                        p.rebase(now);
                        if let Some(h) = h.as_mut() {
                            h.rebase(now);
                        }
                        span_lap(&mut mark, &mut self.counters.span_rebase_ns);
                        self.sweep_wheel(prev, now, &pv, &mut p, &mut h);
                        self.admit_parked(&pv, &mut p, &mut h);
                        span_lap(&mut mark, &mut self.counters.span_wheel_ns);
                    }
                    (p, h, false)
                }
                _ => {
                    // A fresh build replaces the rebase; charge it there.
                    let (p, h) = self.fresh_proj_planes(now, need_hpc);
                    self.rebuild_wheel(now);
                    span_lap(&mut mark, &mut self.counters.span_rebase_ns);
                    (p, if need_hpc { Some(h) } else { None }, true)
                }
            };

        // 2. Apply the events since the last pass. A fresh build already
        //    projected every node (and `rebuild_wheel` re-bucketed them),
        //    so the accumulated dirty list — often the whole cluster on a
        //    cold start — is only drained, not re-applied.
        let mut dirty = std::mem::take(&mut self.plane_dirty);
        if !built_fresh {
            for n in &dirty {
                self.remask(*n, &pv, &mut pilot, &mut hpc);
                self.wheel_insert(*n, &pv);
            }
        }
        self.plane_dirty_bits.fill(0);
        dirty.clear();
        self.plane_dirty = dirty;

        // Lazily materialize the hpc view the first time a pass needs it.
        if need_hpc && hpc.is_none() {
            let (_, h) = self.fresh_proj_planes(now, true);
            hpc = Some(h);
        }

        // 3. Paint the transient pass state, recording what was touched.
        let (mut hpc_pass, hpc_parked) = if need_hpc {
            (hpc.expect("hpc plane materialized above"), None)
        } else {
            (Timeline::new(now, self.cfg.bf_resolution, n_slots, 0), hpc)
        };
        let mut painted = std::mem::take(&mut self.painted_scratch);
        painted.clear();
        let mut pinned = std::mem::take(&mut self.pinned_pending);
        pinned.retain(|id| self.jobs[id.0 as usize].is_pending());
        for id in &pinned {
            let job = &self.jobs[id.0 as usize];
            let nodes = job.spec.pinned_nodes.as_ref().expect("pinned_pending");
            let ann = job.spec.announced_start.unwrap();
            let end = ann + job.spec.time_limit;
            for n in nodes {
                pilot.block_interval(*n, ann, end);
                if need_hpc {
                    hpc_pass.block_interval(*n, ann, end);
                }
                painted.push(*n);
            }
        }
        self.pinned_pending = pinned;
        if mode == PassMode::Backfill {
            self.reservations.clear();
        } else {
            self.reservations
                .retain(|r| self.jobs[r.job.0 as usize].is_pending());
            for r in &self.reservations {
                for n in &r.nodes {
                    pilot.block_interval(*n, r.start, r.end);
                    if need_hpc {
                        hpc_pass.block_interval(*n, r.start, r.end);
                    }
                    painted.push(*n);
                }
            }
        }
        span_lap(&mut mark, &mut self.counters.span_dirty_ns);
        (pilot, hpc_pass, hpc_parked, painted)
    }

    /// Restore the proj-only invariant on every node the pass painted or
    /// whose projection changed mid-pass, then park the planes for the
    /// next pass.
    fn finish_plane(
        &mut self,
        mut pilot: Timeline,
        hpc_pass: Timeline,
        hpc_parked: Option<Timeline>,
        painted: Vec<NodeId>,
    ) {
        let now = pilot.origin();
        let pv = self.proj_view(now);
        let mut hpc = if hpc_pass.n_nodes() > 0 {
            Some(hpc_pass)
        } else {
            hpc_parked
        };
        let mut dirty = std::mem::take(&mut self.plane_dirty);
        for n in painted.iter().chain(dirty.iter()) {
            self.remask(*n, &pv, &mut pilot, &mut hpc);
            self.wheel_insert(*n, &pv);
        }
        self.plane_dirty_bits.fill(0);
        dirty.clear();
        self.plane_dirty = dirty;
        self.painted_scratch = painted;
        self.plane_pilot = Some(pilot);
        self.plane_hpc = hpc;
    }

    /// Test hook: bring the persistent plane to `now` exactly as a pass
    /// would, assert both views match a from-scratch rebuild bit for bit,
    /// and restore the between-pass invariant. Panics on divergence.
    #[doc(hidden)]
    pub fn check_plane(&mut self, now: SimTime) {
        let (pilot, hpc_pass, hpc_parked, painted) = self.prepare_plane(now, PassMode::Quick, true);
        let (fp, fh) = self.fresh_timelines(now, PassMode::Quick, true);
        assert!(
            pilot.same_occupancy(&fp),
            "pilot plane diverged from fresh build (generation {})",
            pilot.generation()
        );
        assert!(
            hpc_pass.same_occupancy(&fh),
            "hpc plane diverged from fresh build (generation {})",
            hpc_pass.generation()
        );
        self.finish_plane(pilot, hpc_pass, hpc_parked, painted);
    }

    /// Where a job sorts in a pass: tier desc, priority desc, FIFO. No
    /// field changes after `submit`, and the trailing id makes the order
    /// strict.
    fn pass_key(&self, id: JobId) -> (Reverse<u8>, Reverse<u64>, SimTime, JobId) {
        let j = &self.jobs[id.0 as usize];
        (
            Reverse(j.spec.priority_tier),
            Reverse(j.spec.priority),
            j.submitted,
            id,
        )
    }

    /// The pass queue at `now`: the pending jobs in pass order (`pending`
    /// is kept in [`Self::pass_key`] order by `submit`, so this is a
    /// filter), with what a pass needs to know about them up front. Jobs
    /// not yet due are left out — a pinned claim's window is already
    /// projected as a reservation and its firing is scheduled
    /// separately, so it must not eat pass budget.
    ///
    /// The queue is built in `queue_scratch`: whoever is done with it
    /// puts `jobs` back there ([`Self::place_queue`] does).
    fn pass_queue(&mut self, now: SimTime) -> PassQueue {
        let mut jobs = std::mem::take(&mut self.queue_scratch);
        jobs.clear();
        let mut queue = PassQueue {
            jobs,
            need_hpc: false,
            next_due: None,
        };
        for id in &self.pending {
            let j = &self.jobs[id.0 as usize];
            if !j.is_pending() {
                continue; // started since the last compaction
            }
            match j.spec.earliest_start {
                Some(t) if t > now => {
                    queue.next_due = Some(queue.next_due.map_or(t, |due| due.min(t)));
                }
                _ => {
                    queue.need_hpc |= j.spec.kind == JobKind::Hpc && j.spec.pinned_nodes.is_none();
                    queue.jobs.push(*id);
                }
            }
        }
        queue
    }

    /// Up to `k` nodes able to start a `d`-slot HPC job now, genuinely
    /// idle nodes first, ascending node id within each class — the
    /// indexed equivalent of the reference scan-and-partition. Iterates
    /// only the intersection of the timeline's slot-0-free set with the
    /// idle (resp. non-idle) bitset.
    fn startable_for_hpc(&self, tl_hpc: &Timeline, k: u32, d: u32) -> NodeList {
        let mut chosen = NodeList::with_capacity(k as usize);
        let words = tl_hpc.now_free_words();
        for held_pass in [false, true] {
            for (w, bits) in words.iter().enumerate() {
                let mut m = if held_pass {
                    bits & !self.idle_bits[w]
                } else {
                    bits & self.idle_bits[w]
                };
                while m != 0 {
                    let b = m.trailing_zeros();
                    m &= m - 1;
                    let n = NodeId((w * 64) as u32 + b);
                    if tl_hpc.is_free_range(n, 0, d) {
                        chosen.push(n);
                        if chosen.len() as u32 == k {
                            return chosen;
                        }
                    }
                }
            }
        }
        chosen
    }

    fn run_pass(
        &mut self,
        now: SimTime,
        mode: PassMode,
        out: &mut Outbox<ClusterEvent>,
        notes: &mut Vec<ClusterNote>,
    ) -> SimDuration {
        let queue = self.pass_queue(now);
        let need_hpc = queue.need_hpc;
        let (mut tl_pilot, mut tl_hpc, hpc_parked, mut painted) =
            self.prepare_plane(now, mode, need_hpc);
        #[cfg(debug_assertions)]
        {
            let (fp, fh) = self.fresh_timelines(now, mode, need_hpc);
            debug_assert!(
                tl_pilot.same_occupancy(&fp),
                "pilot plane diverged from fresh build (generation {})",
                tl_pilot.generation()
            );
            debug_assert!(
                !need_hpc || tl_hpc.same_occupancy(&fh),
                "hpc plane diverged from fresh build (generation {})",
                tl_hpc.generation()
            );
        }
        let cost = self.place_queue(
            now,
            mode,
            queue,
            &mut tl_pilot,
            &mut tl_hpc,
            &mut painted,
            out,
            notes,
        );
        self.finish_plane(tl_pilot, tl_hpc, hpc_parked, painted);
        cost
    }

    /// The placement walk of a pass over `queue`, on pass views painted
    /// for `now`; nodes it paints on top are appended to `painted`. Ends
    /// by recording whether it settled the queue. Returns the simulated
    /// pass cost (delays the next backfill pass).
    #[allow(clippy::too_many_arguments)]
    fn place_queue(
        &mut self,
        now: SimTime,
        mode: PassMode,
        queue: PassQueue,
        tl_pilot: &mut Timeline,
        tl_hpc: &mut Timeline,
        painted: &mut Vec<NodeId>,
        out: &mut Outbox<ClusterEvent>,
        notes: &mut Vec<ClusterNote>,
    ) -> SimDuration {
        let n_slots = self.cfg.n_slots();
        let need_hpc = queue.need_hpc;
        let limit = match mode {
            PassMode::Quick => self.cfg.sched_queue_depth,
            PassMode::Backfill => self.cfg.bf_max_job_test,
        };
        let mut examined = 0usize;
        let mut var_budget = self.cfg.var_extension_budget_slots;
        let mut var_slots_computed: u64 = 0;
        let mut reservations_created = 0usize;
        let mut new_reservations: Vec<Reservation> = Vec::new();
        let mut mark = self.pass_spans.then(std::time::Instant::now);
        // Provisional: it stands unless this pass cuts its queue short,
        // skips a pilot or ends with a contested node — or a node turns
        // idle under it, which voids the proof during a pass as it does
        // after one.
        self.settled = (!need_hpc).then_some(Settled {
            min_failed_dfit: u32::MAX,
            next_due: queue.next_due,
        });

        for &id in &queue.jobs {
            if examined >= limit {
                self.settled = None;
                break;
            }
            examined += 1;
            let job = &self.jobs[id.0 as usize];
            if !self.handovers.is_empty() && self.handovers.contains_key(&id) {
                // Waiting on a preemption handover; pinned claims may
                // still be able to grab newly freed nodes — which the
                // views, built before, still show free.
                if job.spec.pinned_nodes.is_some() {
                    self.claim_pinned(now, id, out, notes);
                    for n in self.claimed_nodes(id) {
                        tl_pilot.block_all(n);
                        if need_hpc {
                            tl_hpc.block_all(n);
                        }
                        painted.push(n);
                    }
                }
                continue;
            }
            match job.spec.kind {
                JobKind::Hpc => {
                    if job.spec.pinned_nodes.is_some() {
                        self.claim_pinned(now, id, out, notes);
                        // The claim owns (or is actively reclaiming) its
                        // nodes from this instant; nothing else may be
                        // placed on them later in this very pass — the
                        // timelines were built before the claim fired.
                        if let Some(nodes) = &self.jobs[id.0 as usize].spec.pinned_nodes {
                            for n in nodes {
                                tl_pilot.block_all(*n);
                                if need_hpc {
                                    tl_hpc.block_all(*n);
                                }
                                painted.push(*n);
                            }
                        }
                        continue;
                    }
                    let d = self.cfg.slots_ceil(job.spec.time_limit).max(1);
                    let k = job.spec.nodes;
                    let limit_dur = job.spec.time_limit;
                    // Start now? The HPC view treats pilot nodes as free;
                    // prefer genuinely idle nodes over pilot-held.
                    let startable = self.startable_for_hpc(tl_hpc, k, d);
                    if startable.len() as u32 == k {
                        for n in &startable {
                            tl_hpc.block_until(*n, now + limit_dur);
                            tl_pilot.block_until(*n, now + limit_dur);
                        }
                        self.counters.pass_placements += 1;
                        self.start_or_handover(now, id, startable, out, notes);
                    } else if mode == PassMode::Backfill
                        && reservations_created < self.cfg.bf_max_reservations
                    {
                        if let Some((s, nodes)) = tl_hpc.find_start(k, d, n_slots - 1) {
                            let start = tl_hpc.slot_start(s);
                            let end = start + limit_dur;
                            for n in &nodes {
                                tl_hpc.block_interval(*n, start, end);
                                tl_pilot.block_interval(*n, start, end);
                                painted.push(*n);
                            }
                            new_reservations.push(Reservation {
                                job: id,
                                start,
                                end,
                                nodes,
                            });
                            reservations_created += 1;
                            self.counters.reservations_made += 1;
                            self.counters.pass_placements += 1;
                        }
                    }
                }
                JobKind::Pilot => {
                    if mode == PassMode::Quick && !self.cfg.quick_pass_places_pilots {
                        self.settled = None;
                        continue;
                    }
                    let max_slots = self.cfg.slots_ceil(job.spec.time_limit).max(1);
                    let d_fit = pilot_fit_slots(&self.cfg, &job.spec);
                    let is_var = job.spec.min_time.is_some();
                    let Some(node) = tl_pilot.find_single_now(d_fit, FitPolicy::BestFit) else {
                        if let Some(s) = &mut self.settled {
                            s.min_failed_dfit = s.min_failed_dfit.min(d_fit);
                        }
                        continue;
                    };
                    let granted_slots = if is_var {
                        if mode == PassMode::Quick && self.cfg.quick_var_min_only {
                            d_fit
                        } else {
                            let run = tl_pilot.free_run_from(node, 0).min(max_slots);
                            let ext = (run - d_fit).min(var_budget);
                            var_budget -= ext;
                            var_slots_computed += ext as u64;
                            d_fit + ext
                        }
                    } else {
                        max_slots
                    };
                    let granted = self.cfg.slots_to_duration(granted_slots);
                    tl_pilot.block_until(node, now + granted);
                    self.counters.pass_placements += 1;
                    self.start_job(now, id, NodeList::single(node), granted, out, notes);
                }
            }
        }

        span_lap(&mut mark, &mut self.counters.span_placement_ns);
        self.queue_scratch = queue.jobs;
        if mode == PassMode::Backfill {
            self.reservations = new_reservations;
        }
        self.pending
            .retain(|id| self.jobs[id.0 as usize].is_pending());
        if !self.handovers_own_their_nodes() {
            self.settled = None;
        }
        // Only an unpinned HPC job is ever given a reservation, and one
        // of those in the queue already kept the pass from settling it.
        debug_assert!(self.settled.is_none() || self.reservations.is_empty());

        SimDuration::from_millis(
            self.cfg.bf_per_job_cost.as_millis() * examined as u64
                + self.cfg.bf_var_slot_cost.as_millis() * var_slots_computed,
        )
    }

    /// The pre-optimization scheduling pass, retained verbatim as the
    /// behavioural reference for the differential regression tests:
    /// rebuilds both timelines from the node/job tables and scans the
    /// whole cluster per queued HPC job.
    fn run_pass_reference(
        &mut self,
        now: SimTime,
        mode: PassMode,
        out: &mut Outbox<ClusterEvent>,
        notes: &mut Vec<ClusterNote>,
    ) -> SimDuration {
        let n_slots = self.cfg.n_slots();
        let mut tl_pilot = Timeline::new(now, self.cfg.bf_resolution, n_slots, self.nodes.len());
        let mut tl_hpc = tl_pilot.clone();

        // 1. Project current node occupancy onto the timelines.
        for (i, node) in self.nodes.iter().enumerate() {
            let nid = NodeId(i as u32);
            match node.state {
                NodeState::Idle => {}
                NodeState::Down | NodeState::Reserved(_) => {
                    tl_pilot.block_all(nid);
                    tl_hpc.block_all(nid);
                }
                NodeState::Busy(j) => {
                    let job = &self.jobs[j.0 as usize];
                    let (pred_end, draining) = match &job.state {
                        JobState::Running { granted_end, .. } => (*granted_end, false),
                        JobState::Draining { kill_at, .. } => (*kill_at, true),
                        _ => unreachable!("busy node with inactive job"),
                    };
                    if job.spec.preemptible && !draining {
                        // Preemptible pilots are invisible to the HPC
                        // view; blocked in the pilot view.
                        tl_pilot.block_until(nid, pred_end);
                    } else if draining && self.node_waiter.contains_key(&nid) {
                        // Node promised to a preempting job.
                        tl_pilot.block_all(nid);
                        tl_hpc.block_all(nid);
                    } else {
                        tl_pilot.block_until(nid, pred_end);
                        if !job.spec.preemptible {
                            tl_hpc.block_until(nid, pred_end);
                        }
                    }
                }
            }
        }

        // 2. Project reservations.
        for id in &self.pending {
            let job = &self.jobs[id.0 as usize];
            if !job.is_pending() {
                continue; // started since the last compaction
            }
            if let (Some(nodes), Some(_)) = (&job.spec.pinned_nodes, job.spec.earliest_start) {
                let ann = job.spec.announced_start.unwrap();
                let end = ann + job.spec.time_limit;
                for n in nodes {
                    tl_pilot.block_interval(*n, ann, end);
                    tl_hpc.block_interval(*n, ann, end);
                }
            }
        }
        if mode == PassMode::Backfill {
            self.reservations.clear();
        } else {
            self.reservations
                .retain(|r| self.jobs[r.job.0 as usize].is_pending());
            for r in &self.reservations {
                for n in &r.nodes {
                    tl_pilot.block_interval(*n, r.start, r.end);
                    tl_hpc.block_interval(*n, r.start, r.end);
                }
            }
        }

        // 3. Order the queue: tier desc, priority desc, FIFO.
        let queue = self.pass_queue(now).jobs;

        let limit = match mode {
            PassMode::Quick => self.cfg.sched_queue_depth,
            PassMode::Backfill => self.cfg.bf_max_job_test,
        };
        let mut examined = 0usize;
        let mut var_budget = self.cfg.var_extension_budget_slots;
        let mut var_slots_computed: u64 = 0;
        let mut reservations_created = 0usize;
        let mut new_reservations: Vec<Reservation> = Vec::new();

        for id in queue {
            if examined >= limit {
                break;
            }
            examined += 1;
            let job = &self.jobs[id.0 as usize];
            if self.handovers.contains_key(&id) {
                if job.spec.pinned_nodes.is_some() {
                    self.claim_pinned(now, id, out, notes);
                    for n in self.claimed_nodes(id) {
                        tl_pilot.block_all(n);
                        tl_hpc.block_all(n);
                    }
                }
                continue;
            }
            match job.spec.kind {
                JobKind::Hpc => {
                    if job.spec.pinned_nodes.is_some() {
                        self.claim_pinned(now, id, out, notes);
                        if let Some(nodes) = &self.jobs[id.0 as usize].spec.pinned_nodes {
                            for n in nodes {
                                tl_pilot.block_all(*n);
                                tl_hpc.block_all(*n);
                            }
                        }
                        continue;
                    }
                    let d = self.cfg.slots_ceil(job.spec.time_limit).max(1);
                    let k = job.spec.nodes;
                    let limit_dur = job.spec.time_limit;
                    // Start now? The HPC view treats pilot nodes as free.
                    let eligible: Vec<NodeId> = (0..self.nodes.len())
                        .map(|i| NodeId(i as u32))
                        .filter(|n| tl_hpc.is_free_range(*n, 0, d))
                        .collect();
                    let startable: NodeList = {
                        // Prefer genuinely idle nodes over pilot-held.
                        let (idle, held): (Vec<_>, Vec<_>) = eligible
                            .iter()
                            .copied()
                            .partition(|n| self.nodes[n.0 as usize].is_idle());
                        idle.into_iter().chain(held).take(k as usize).collect()
                    };
                    if startable.len() as u32 == k {
                        for n in &startable {
                            tl_hpc.block_until(*n, now + limit_dur);
                            tl_pilot.block_until(*n, now + limit_dur);
                        }
                        self.start_or_handover(now, id, startable, out, notes);
                    } else if mode == PassMode::Backfill
                        && reservations_created < self.cfg.bf_max_reservations
                    {
                        if let Some((s, nodes)) = tl_hpc.find_start_reference(k, d, n_slots - 1) {
                            let start = tl_hpc.slot_start(s);
                            let end = start + limit_dur;
                            for n in &nodes {
                                tl_hpc.block_interval(*n, start, end);
                                tl_pilot.block_interval(*n, start, end);
                            }
                            new_reservations.push(Reservation {
                                job: id,
                                start,
                                end,
                                nodes,
                            });
                            reservations_created += 1;
                            self.counters.reservations_made += 1;
                        }
                    }
                }
                JobKind::Pilot => {
                    if mode == PassMode::Quick && !self.cfg.quick_pass_places_pilots {
                        continue;
                    }
                    let max_slots = self.cfg.slots_ceil(job.spec.time_limit).max(1);
                    let (d_fit, is_var) = match job.spec.min_time {
                        Some(mt) => (self.cfg.slots_ceil(mt).max(1), true),
                        None => (max_slots, false),
                    };
                    let Some(node) = tl_pilot.find_single_now_reference(d_fit, FitPolicy::BestFit)
                    else {
                        continue;
                    };
                    let granted_slots = if is_var {
                        if mode == PassMode::Quick && self.cfg.quick_var_min_only {
                            d_fit
                        } else {
                            let run = tl_pilot.free_run_from(node, 0).min(max_slots);
                            let ext = (run - d_fit).min(var_budget);
                            var_budget -= ext;
                            var_slots_computed += ext as u64;
                            d_fit + ext
                        }
                    } else {
                        max_slots
                    };
                    let granted = self.cfg.slots_to_duration(granted_slots);
                    tl_pilot.block_until(node, now + granted);
                    self.start_job(now, id, NodeList::single(node), granted, out, notes);
                }
            }
        }

        if mode == PassMode::Backfill {
            self.reservations = new_reservations;
        }
        self.pending
            .retain(|id| self.jobs[id.0 as usize].is_pending());

        SimDuration::from_millis(
            self.cfg.bf_per_job_cost.as_millis() * examined as u64
                + self.cfg.bf_var_slot_cost.as_millis() * var_slots_computed,
        )
    }

    /// The pinned nodes claim `id` holds by now, reserved or running.
    fn claimed_nodes(&self, id: JobId) -> NodeList {
        let pinned = self.jobs[id.0 as usize].spec.pinned_nodes.iter().flatten();
        pinned
            .copied()
            .filter(|n| {
                let st = self.nodes[n.0 as usize].state;
                st == NodeState::Reserved(id) || st == NodeState::Busy(id)
            })
            .collect()
    }

    /// Try to claim the pinned nodes of demand job `id`; idempotent.
    /// The pinned list is borrow-split out of the spec (and restored)
    /// instead of cloned — this runs on every pass while a claim waits
    /// on a handover, so the hot path must not allocate.
    fn claim_pinned(
        &mut self,
        now: SimTime,
        id: JobId,
        out: &mut Outbox<ClusterEvent>,
        notes: &mut Vec<ClusterNote>,
    ) {
        let pinned = std::mem::take(&mut self.jobs[id.0 as usize].spec.pinned_nodes)
            .expect("claim_pinned on unpinned job");
        // Pass 1: figure out what is claimable; existing handover state
        // is merged (nodes already Reserved(id) count as ready).
        let mut ready = NodeList::with_capacity(pinned.len());
        let mut all_ready = true;
        for n in &pinned {
            match self.nodes[n.0 as usize].state {
                NodeState::Idle => ready.push(*n),
                NodeState::Reserved(r) if r == id => ready.push(*n),
                _ => all_ready = false,
            }
        }
        if all_ready {
            self.handovers.remove(&id);
            for n in &ready {
                if self.node_waiter.get(n) == Some(&id) {
                    self.node_waiter.remove(n);
                }
            }
            let limit = self.jobs[id.0 as usize].spec.time_limit;
            self.jobs[id.0 as usize].spec.pinned_nodes = Some(pinned);
            self.start_job(now, id, ready, limit, out, notes);
            return;
        }
        // Pass 2: reserve the claimable nodes and preempt pilots on the
        // rest.
        for n in &ready {
            if self.nodes[n.0 as usize].state == NodeState::Idle {
                self.set_node_state(now, *n, NodeState::Reserved(id));
            }
        }
        for n in &pinned {
            // Waiting set: pinned minus ready (ready nodes are now
            // Reserved(id)).
            match self.nodes[n.0 as usize].state {
                NodeState::Idle => continue,
                NodeState::Reserved(r) if r == id => continue,
                _ => {}
            }
            if self.node_waiter.contains_key(n) {
                continue; // already being reclaimed
            }
            self.node_waiter.insert(*n, id);
            self.refresh_node(*n);
            if let NodeState::Busy(holder) = self.nodes[n.0 as usize].state {
                let hjob = &self.jobs[holder.0 as usize];
                if hjob.spec.preemptible && matches!(hjob.state, JobState::Running { .. }) {
                    self.sigterm(
                        now,
                        holder,
                        SigtermReason::Preempted,
                        self.cfg.grace_time,
                        JobOutcome::Preempted,
                        out,
                        notes,
                    );
                    self.counters.pilots_preempted += 1;
                }
                // Non-preemptible holders: wait for their natural end.
            }
        }
        match self.handovers.entry(id) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                e.get_mut().ready = ready;
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(Handover {
                    needed: pinned.clone(),
                    ready,
                });
            }
        }
        self.jobs[id.0 as usize].spec.pinned_nodes = Some(pinned);
    }

    /// Start job `id` on `nodes` if they are all immediately free;
    /// otherwise preempt pilots and register a handover.
    fn start_or_handover(
        &mut self,
        now: SimTime,
        id: JobId,
        nodes: NodeList,
        out: &mut Outbox<ClusterEvent>,
        notes: &mut Vec<ClusterNote>,
    ) {
        let all_idle = nodes.iter().all(|n| self.nodes[n.0 as usize].is_idle());
        if all_idle {
            let limit = self.jobs[id.0 as usize].spec.time_limit;
            self.start_job(now, id, nodes, limit, out, notes);
            return;
        }
        let mut ready = NodeList::new();
        for n in &nodes {
            match self.nodes[n.0 as usize].state {
                NodeState::Idle => {
                    self.set_node_state(now, *n, NodeState::Reserved(id));
                    ready.push(*n);
                }
                NodeState::Busy(holder) => {
                    self.node_waiter.insert(*n, id);
                    self.refresh_node(*n);
                    let hjob = &self.jobs[holder.0 as usize];
                    if hjob.spec.preemptible && matches!(hjob.state, JobState::Running { .. }) {
                        self.sigterm(
                            now,
                            holder,
                            SigtermReason::Preempted,
                            self.cfg.grace_time,
                            JobOutcome::Preempted,
                            out,
                            notes,
                        );
                        self.counters.pilots_preempted += 1;
                    }
                }
                other => unreachable!("start_or_handover chose unusable node in state {other:?}"),
            }
        }
        self.handovers.insert(
            id,
            Handover {
                needed: nodes,
                ready,
            },
        );
    }

    // ------------------------------------------------------------------
    // Job lifecycle
    // ------------------------------------------------------------------

    fn start_job(
        &mut self,
        now: SimTime,
        id: JobId,
        nodes: NodeList,
        granted: SimDuration,
        out: &mut Outbox<ClusterEvent>,
        notes: &mut Vec<ClusterNote>,
    ) {
        // Pilots come straight from `find_single_now` with no node-state
        // check: a pass on the very millisecond a holder's `until` lapses
        // sees the node free only because the older `TimeLimit` /
        // `GraceExpired` event wins the `(time, seq)` tie and has already
        // released it.
        debug_assert!(
            nodes.iter().all(|n| {
                let st = self.nodes[n.0 as usize].state;
                st == NodeState::Idle || st == NodeState::Reserved(id)
            }),
            "starting {id} on a node that is neither idle nor reserved for it"
        );
        // The started job is *not* removed from `pending` here — that
        // retain cost O(queue) per start. Every reader of `pending`
        // filters on `is_pending()`, and the end-of-pass retain compacts
        // the list.
        let job = &mut self.jobs[id.0 as usize];
        debug_assert!(job.is_pending(), "starting a non-pending job");
        let granted_end = now + granted;
        job.granted = granted;
        job.state = JobState::Running {
            start: now,
            granted_end,
            nodes: nodes.clone(),
        };
        // Node states refresh after the job record is updated so the
        // projections see the new holder.
        for n in &nodes {
            self.set_node_state(now, *n, NodeState::Busy(id));
        }
        let job = &self.jobs[id.0 as usize];
        out.at(granted_end, ClusterEvent::TimeLimit(id));
        if let Some(actual) = job.spec.actual_runtime {
            let end = now + actual.min(granted);
            if end < granted_end {
                out.at(end, ClusterEvent::JobFinished(id));
            }
        }
        match job.spec.kind {
            JobKind::Hpc => {
                self.counters.hpc_started += 1;
                if let Some(intended) = job.spec.earliest_start {
                    self.counters
                        .demand_delay_secs
                        .add(now.since(intended).as_secs_f64());
                }
            }
            JobKind::Pilot => {
                self.counters.pilots_started += 1;
                self.counters.pilot_granted_mins.add(granted.as_mins_f64());
                let limit = job.spec.time_limit;
                *self.pilot_census_slot(limit) -= 1;
            }
        }
        notes.push(ClusterNote::JobStarted {
            job: id,
            nodes,
            granted_end,
        });
    }

    #[allow(clippy::too_many_arguments)]
    fn sigterm(
        &mut self,
        now: SimTime,
        id: JobId,
        reason: SigtermReason,
        grace: SimDuration,
        outcome: JobOutcome,
        out: &mut Outbox<ClusterEvent>,
        notes: &mut Vec<ClusterNote>,
    ) {
        let job = &mut self.jobs[id.0 as usize];
        let JobState::Running { start, nodes, .. } = job.state.clone() else {
            return;
        };
        let kill_at = now + grace;
        job.state = JobState::Draining {
            start,
            kill_at,
            nodes: nodes.clone(),
            outcome,
        };
        for n in &nodes {
            self.refresh_node(*n);
        }
        out.at(kill_at, ClusterEvent::GraceExpired(id));
        notes.push(ClusterNote::JobSigterm {
            job: id,
            reason,
            kill_at,
        });
    }

    fn on_time_limit(
        &mut self,
        now: SimTime,
        id: JobId,
        out: &mut Outbox<ClusterEvent>,
        notes: &mut Vec<ClusterNote>,
    ) {
        let job = &self.jobs[id.0 as usize];
        let JobState::Running { granted_end, .. } = &job.state else {
            return; // finished or preempted before the limit
        };
        if *granted_end != now {
            return; // stale event
        }
        match job.spec.kind {
            JobKind::Hpc => self.end_job(now, id, JobOutcome::TimedOut, out, notes),
            JobKind::Pilot => {
                self.counters.pilots_timed_out += 1;
                self.sigterm(
                    now,
                    id,
                    SigtermReason::TimeLimit,
                    self.cfg.kill_wait,
                    JobOutcome::TimedOut,
                    out,
                    notes,
                );
            }
        }
    }

    fn end_job(
        &mut self,
        now: SimTime,
        id: JobId,
        outcome: JobOutcome,
        out: &mut Outbox<ClusterEvent>,
        notes: &mut Vec<ClusterNote>,
    ) {
        let job = &mut self.jobs[id.0 as usize];
        let nodes: Vec<NodeId> = job.held_nodes().to_vec();
        job.state = JobState::Done { outcome, at: now };
        let kind = job.spec.kind;
        // Emit the end note before handover starts so note order reads
        // causally (ended → successor started).
        notes.push(ClusterNote::JobEnded { job: id, outcome });
        for n in nodes {
            if let Some(waiter) = self.node_waiter.remove(&n) {
                self.set_node_state(now, n, NodeState::Reserved(waiter));
                self.on_handover_node_ready(now, waiter, n, out, notes);
            } else {
                self.set_node_state(now, n, NodeState::Idle);
            }
        }
        match (kind, outcome) {
            (JobKind::Hpc, _) => self.counters.hpc_completed += 1,
            (JobKind::Pilot, JobOutcome::NodeFailed) => {
                self.counters.pilots_node_failed += 1;
            }
            _ => {}
        }
        self.request_quick(now, out);
    }

    fn on_handover_node_ready(
        &mut self,
        now: SimTime,
        waiter: JobId,
        node: NodeId,
        out: &mut Outbox<ClusterEvent>,
        notes: &mut Vec<ClusterNote>,
    ) {
        let Some(h) = self.handovers.get_mut(&waiter) else {
            // No handover record (can happen if it was torn down); free
            // the node instead of leaking the reservation.
            self.set_node_state(now, node, NodeState::Idle);
            return;
        };
        if !h.ready.contains(&node) {
            h.ready.push(node);
        }
        if h.ready.len() == h.needed.len() {
            let nodes = std::mem::take(&mut h.ready);
            self.handovers.remove(&waiter);
            let limit = self.jobs[waiter.0 as usize].spec.time_limit;
            self.start_job(now, waiter, nodes, limit, out, notes);
        } else {
            // The next pass re-derives `ready` in pinned order, and the
            // order shows in the eventual `JobStarted`.
            self.settled = None;
        }
    }

    fn on_node_down(
        &mut self,
        now: SimTime,
        n: NodeId,
        out: &mut Outbox<ClusterEvent>,
        notes: &mut Vec<ClusterNote>,
    ) {
        match self.nodes[n.0 as usize].state {
            NodeState::Down => {}
            NodeState::Idle => self.set_node_state(now, n, NodeState::Down),
            NodeState::Busy(holder) => {
                // Hard failure: the job dies without SIGTERM — this is
                // the path baseline OpenWhisk handles badly (§II).
                self.node_waiter.remove(&n);
                self.end_job(now, holder, JobOutcome::NodeFailed, out, notes);
                self.set_node_state(now, n, NodeState::Down);
            }
            NodeState::Reserved(waiter) => {
                // Tear down the handover; the waiting job re-queues.
                self.settled = None;
                if let Some(h) = self.handovers.remove(&waiter) {
                    for rn in h.ready {
                        if rn != n && self.nodes[rn.0 as usize].state == NodeState::Reserved(waiter)
                        {
                            self.set_node_state(now, rn, NodeState::Idle);
                        }
                    }
                    for wn in h.needed {
                        if self.node_waiter.get(&wn) == Some(&waiter) {
                            self.node_waiter.remove(&wn);
                            self.refresh_node(wn);
                        }
                    }
                }
                self.set_node_state(now, n, NodeState::Down);
                self.request_quick(now, out);
            }
        }
    }

    // ------------------------------------------------------------------
    // Bookkeeping
    // ------------------------------------------------------------------

    /// Ask for a quick pass as soon as the rate limit allows. At most
    /// one pass-running `QuickPass` is ever queued: a request that finds
    /// one queued at or before its own instant is already served.
    fn request_quick(&mut self, now: SimTime, out: &mut Outbox<ClusterEvent>) {
        let at = (self.last_quick + self.cfg.sched_min_interval).max(now);
        if self.quick_at.is_some_and(|queued| queued <= at) {
            return;
        }
        self.quick_at = Some(at);
        out.at(at, ClusterEvent::QuickPass);
    }

    fn set_node_state(&mut self, now: SimTime, n: NodeId, new: NodeState) {
        let node = &mut self.nodes[n.0 as usize];
        let old = node.state;
        if old == new {
            return;
        }
        node.state = new;
        node.since = now;
        if new == NodeState::Idle {
            // The one transition that lengthens a free run from slot 0.
            self.settled = None;
        }
        self.refresh_node(n);
        let delta = |st: NodeState, jobs: &[Job]| -> (i64, i64, i64) {
            match st {
                NodeState::Idle => (1, 0, 0),
                NodeState::Down => (0, 0, 1),
                NodeState::Reserved(_) => (0, 0, 0),
                NodeState::Busy(j) => {
                    if jobs[j.0 as usize].spec.kind == JobKind::Pilot {
                        (0, 1, 0)
                    } else {
                        (0, 0, 0)
                    }
                }
            }
        };
        let (oi, op, od) = delta(old, &self.jobs);
        let (ni, np, nd) = delta(new, &self.jobs);
        self.n_idle += ni - oi;
        self.n_pilot += np - op;
        self.n_down += nd - od;
        self.series.idle.set(now, self.n_idle as f64);
        self.series.pilot.set(now, self.n_pilot as f64);
        self.series.down.set(now, self.n_down as f64);
    }

    /// A poll XORs the two maintained sets against the previous poll's
    /// and opens or closes the availability intervals of the nodes that
    /// changed; the sample itself is the two maintained counts.
    fn take_poll_sample(&mut self, t: SimTime) -> PollSample {
        #[cfg(debug_assertions)]
        self.check_poll_bits();
        self.poll_intervals
            .sample(t, &self.idle_bits, &self.pilot_bits);
        PollSample {
            t,
            idle: self.n_idle as u32,
            pilot: self.n_pilot as u32,
        }
    }

    /// Test hook: the maintained `(idle, pilot)` bitsets a poll reads.
    #[doc(hidden)]
    pub fn poll_bits(&self) -> (&[u64], &[u64]) {
        (&self.idle_bits, &self.pilot_bits)
    }

    /// Test hook: assert the maintained idle/pilot bitsets equal a scan
    /// of the node table, bit for bit, and the maintained counts their
    /// popcounts. Panics on divergence.
    #[doc(hidden)]
    pub fn check_poll_bits(&self) {
        let words = self.nodes.len().div_ceil(64);
        let mut idle = vec![0u64; words];
        let mut pilot = vec![0u64; words];
        for (i, node) in self.nodes.iter().enumerate() {
            match node.state {
                NodeState::Idle => idle[i / 64] |= 1 << (i % 64),
                NodeState::Busy(j) if self.jobs[j.0 as usize].spec.kind == JobKind::Pilot => {
                    pilot[i / 64] |= 1 << (i % 64);
                }
                _ => {}
            }
        }
        assert!(
            idle == self.idle_bits,
            "idle bitset diverged from the node table"
        );
        assert!(
            pilot == self.pilot_bits,
            "pilot bitset diverged from the node table"
        );
        let ones = |bits: &[u64]| bits.iter().map(|w| w.count_ones() as i64).sum::<i64>();
        assert_eq!(self.n_idle, ones(&idle), "idle count diverged");
        assert_eq!(self.n_pilot, ones(&pilot), "pilot count diverged");
    }

    /// Poll cadence with the jitter the paper measured (§IV-A): 76.43%
    /// exactly 10 s, 23.26% in 11–13 s, 0.31% in 14–20 s.
    fn sample_poll_gap(&mut self) -> SimDuration {
        let u = self.poll_rng.f64();
        if u < 0.7643 {
            SimDuration::from_secs(10)
        } else if u < 0.7643 + 0.2326 {
            SimDuration::from_millis(self.poll_rng.range_u64(11_000, 13_001))
        } else {
            SimDuration::from_millis(self.poll_rng.range_u64(14_000, 20_001))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use simcore::Engine;

    /// `queue` re-sorted the way `pass_queue` used to sort it on every
    /// pass (the filter in front of the sort is unchanged).
    fn sorted_as_before(sim: &ClusterSim, mut queue: Vec<JobId>) -> Vec<JobId> {
        queue.sort_unstable_by_key(|id| {
            let j = &sim.jobs[id.0 as usize];
            (
                Reverse(j.spec.priority_tier),
                Reverse(j.spec.priority),
                j.submitted,
                *id,
            )
        });
        queue
    }

    #[derive(Debug, Clone)]
    enum Step {
        Submit {
            pilot: bool,
            tier: u8,
            priority: u64,
            limit_mins: u64,
        },
        /// A pinned claim due `due_secs - 300` seconds from now (so both
        /// already-due and future claims occur).
        Pinned {
            node: u32,
            tier: u8,
            priority: u64,
            due_secs: u64,
        },
        Cancel {
            pick: usize,
        },
        /// Start a pilot on an idle node, past the queue.
        ForceStart {
            pick: usize,
            limit_mins: u64,
        },
        /// Let time pass: passes run, jobs start and end.
        Advance {
            secs: u64,
        },
    }

    fn step_strategy() -> impl Strategy<Value = Step> {
        prop_oneof![
            (any::<bool>(), 0u8..3, 0u64..3, 2u64..20).prop_map(
                |(pilot, tier, priority, limit_mins)| Step::Submit {
                    pilot,
                    tier,
                    priority,
                    limit_mins
                }
            ),
            (any::<bool>(), 0u8..3, 0u64..3, 2u64..20).prop_map(
                |(pilot, tier, priority, limit_mins)| Step::Submit {
                    pilot,
                    tier,
                    priority,
                    limit_mins
                }
            ),
            (0u32..4, 0u8..3, 0u64..3, 0u64..900).prop_map(|(node, tier, priority, due_secs)| {
                Step::Pinned {
                    node,
                    tier,
                    priority,
                    due_secs,
                }
            }),
            (0usize..64).prop_map(|pick| Step::Cancel { pick }),
            (0usize..64, 2u64..20)
                .prop_map(|(pick, limit_mins)| Step::ForceStart { pick, limit_mins }),
            (0u64..240).prop_map(|secs| Step::Advance { secs }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `submit` keeps `pending` in pass order: through submissions
        /// (several per instant, so submit times tie), cancellations,
        /// passes that start jobs and the compaction behind them, the
        /// filter-only `pass_queue` comes out as the sort left it,
        /// `pending_ids_matching` stays in submission order, and the kept
        /// pilot census equals a recount of the queue (pilots started by
        /// a pass, force-started and cancelled included).
        #[test]
        fn prop_pending_stays_in_pass_order(
            steps in proptest::collection::vec(step_strategy(), 1..80),
        ) {
            // Four nodes: most of the queue waits, some of it starts.
            let mut sim = ClusterSim::new(SlurmConfig::default(), 4, 3);
            let mut engine = Engine::new();
            let mut t = SimTime::from_mins(10);
            let mut out = Outbox::new(t);
            sim.bootstrap(t, &mut out);
            for (at, e) in out.drain() {
                engine.schedule(at, e);
            }
            for step in steps {
                let mut out = Outbox::new(t);
                match step {
                    Step::Submit { pilot, tier, priority, limit_mins } => {
                        let limit = SimDuration::from_mins(limit_mins);
                        let mut spec = if pilot {
                            JobSpec::pilot_fixed(limit, priority)
                        } else {
                            JobSpec::hpc(2, limit, limit)
                        };
                        spec.priority_tier = tier;
                        spec.priority = priority;
                        sim.submit(t, spec, &mut out);
                    }
                    Step::Pinned { node, tier, priority, due_secs } => {
                        let due = t + SimDuration::from_secs(due_secs)
                            - SimDuration::from_secs(300);
                        let limit = SimDuration::from_mins(6);
                        let mut spec =
                            JobSpec::pinned_demand(vec![NodeId(node)], due, due, limit, limit);
                        spec.priority_tier = tier;
                        spec.priority = priority;
                        sim.submit(t, spec, &mut out);
                    }
                    Step::Cancel { pick } => {
                        let ids = sim.pending_ids_matching(|_| true);
                        if !ids.is_empty() {
                            sim.cancel_pending(t, ids[pick % ids.len()]);
                        }
                    }
                    Step::ForceStart { pick, limit_mins } => {
                        let idle: Vec<u32> = (0..4).filter(|n| sim.nodes[*n as usize].is_idle()).collect();
                        if !idle.is_empty() {
                            let mut spec =
                                JobSpec::pilot_fixed(SimDuration::from_mins(limit_mins), 1);
                            spec.pinned_nodes = Some(NodeList::single(NodeId(idle[pick % idle.len()])));
                            sim.force_start(t, spec, &mut out, &mut Vec::new());
                        }
                    }
                    Step::Advance { secs } => {
                        t += SimDuration::from_secs(secs);
                        let sim = &mut sim;
                        engine.run_until(t, &mut |now, ev, out: &mut Outbox<ClusterEvent>| {
                            sim.handle(now, ev, out, &mut Vec::new());
                        });
                    }
                }
                for (at, e) in out.drain() {
                    engine.schedule(at, e);
                }
                let queue = sim.pass_queue(t).jobs;
                prop_assert_eq!(sorted_as_before(&sim, queue.clone()), queue);
                let ids = sim.pending_ids_matching(|_| true);
                prop_assert!(ids.windows(2).all(|w| w[0] < w[1]), "not in id order: {ids:?}");
                let mut recount = std::collections::BTreeMap::new();
                for j in sim.pending.iter().map(|id| &sim.jobs[id.0 as usize]) {
                    if j.is_pending() && j.spec.kind == JobKind::Pilot {
                        *recount.entry(j.spec.time_limit.as_mins()).or_insert(0usize) += 1;
                    }
                }
                let kept = sim.pending_pilots_by_limit().iter().copied();
                prop_assert_eq!(kept.filter(|(_, n)| *n > 0).collect::<std::collections::BTreeMap<_, _>>(), recount);
            }
        }
    }
}
