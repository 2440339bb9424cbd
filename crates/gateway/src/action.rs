//! Actions served by the live plane: a name, a real function body (a
//! SeBS kernel, a calibrated spin, or a no-op), and the container-
//! lifecycle parameters the warm pools enforce.

use sebs::{Graph, Kernel};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Index of an action in the gateway's [`ActionRegistry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ActionId(pub u32);

/// What an invocation of the action actually executes.
#[derive(Clone)]
pub enum ActionBody {
    /// No work: isolates the serving plane's own overhead.
    Noop,
    /// Busy-spin for a fixed duration (a calibrated "sleep function",
    /// §V-C style, without yielding the core).
    Spin(Duration),
    /// Block for a fixed duration, yielding the core — an I/O-bound
    /// body whose aggregate capacity scales with the invoker count even
    /// on a single CPU (what capacity benches need on small runners).
    Sleep(Duration),
    /// A real SeBS kernel over a shared input graph (§V-D bodies).
    Kernel(Kernel, Arc<Graph>),
}

impl ActionBody {
    /// Execute the body, returning a checksum-like result value.
    pub fn run(&self) -> u64 {
        match self {
            ActionBody::Noop => 0,
            ActionBody::Spin(d) => {
                let t = std::time::Instant::now();
                let mut spins = 0u64;
                while t.elapsed() < *d {
                    spins = spins.wrapping_add(1);
                    std::hint::spin_loop();
                }
                spins
            }
            ActionBody::Sleep(d) => {
                std::thread::sleep(*d);
                d.as_nanos() as u64
            }
            ActionBody::Kernel(k, g) => k.run(g) as u64,
        }
    }
}

impl std::fmt::Debug for ActionBody {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ActionBody::Noop => f.write_str("Noop"),
            ActionBody::Spin(d) => write!(f, "Spin({d:?})"),
            ActionBody::Sleep(d) => write!(f, "Sleep({d:?})"),
            ActionBody::Kernel(k, g) => write!(f, "Kernel({}, |V|={})", k.name(), g.n),
        }
    }
}

/// One deployable action.
#[derive(Debug, Clone)]
pub struct ActionSpec {
    /// OpenWhisk action name (also the routing key source).
    pub name: String,
    /// The work an invocation performs.
    pub body: ActionBody,
    /// Penalty paid when no warm container exists on the executing
    /// invoker (modelled as real wall time on the invoker thread).
    pub cold_start: Duration,
    /// How long an idle warm container survives before eviction.
    pub keepalive: Duration,
    /// Gateway-wide cap on concurrently admitted invocations of this
    /// action; excess is shed at admission (429 path).
    pub max_inflight: usize,
}

impl ActionSpec {
    /// A no-op action with effectively unlimited concurrency and no
    /// cold-start cost — the serving-plane overhead probe.
    pub fn noop(name: &str) -> Self {
        ActionSpec {
            name: name.to_string(),
            body: ActionBody::Noop,
            cold_start: Duration::ZERO,
            keepalive: Duration::from_secs(600),
            max_inflight: usize::MAX,
        }
    }

    /// Set the cold-start penalty.
    pub fn with_cold_start(mut self, d: Duration) -> Self {
        self.cold_start = d;
        self
    }

    /// Set the warm-container keep-alive.
    pub fn with_keepalive(mut self, d: Duration) -> Self {
        self.keepalive = d;
        self
    }

    /// Set the gateway-wide in-flight cap.
    pub fn with_max_inflight(mut self, n: usize) -> Self {
        self.max_inflight = n.max(1);
        self
    }

    /// Set the body.
    pub fn with_body(mut self, body: ActionBody) -> Self {
        self.body = body;
        self
    }
}

struct Entry {
    spec: ActionSpec,
    inflight: AtomicUsize,
}

/// The immutable action catalogue, shared by the controller front end
/// and every invoker thread. Per-action in-flight counts live here so
/// admission control is a single atomic on the hot path.
pub struct ActionRegistry {
    entries: Vec<Entry>,
    /// Lost [`try_admit`](ActionRegistry::try_admit) CAS rounds:
    /// submitters racing on one action's in-flight line. Zero with a
    /// single submitter; exposed as
    /// `gateway_submit_contention_total{source="admit_cas"}`.
    cas_retries: AtomicU64,
}

impl ActionRegistry {
    /// Build from specs; the `ActionId` of each action is its index.
    pub fn new(specs: Vec<ActionSpec>) -> Arc<Self> {
        assert!(!specs.is_empty(), "registry needs at least one action");
        Arc::new(ActionRegistry {
            entries: specs
                .into_iter()
                .map(|spec| Entry {
                    spec,
                    inflight: AtomicUsize::new(0),
                })
                .collect(),
            cas_retries: AtomicU64::new(0),
        })
    }

    /// Total admission CAS retries across every action (a contention
    /// probe, not a correctness counter).
    pub fn admit_cas_retries(&self) -> u64 {
        self.cas_retries.load(Ordering::Relaxed)
    }

    /// Number of registered actions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True iff no actions are registered (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The spec behind an id. Panics on an out-of-range id (ids are
    /// created by this registry, so that is a caller bug).
    pub fn spec(&self, id: ActionId) -> &ActionSpec {
        &self.entries[id.0 as usize].spec
    }

    /// Current in-flight admissions for an action.
    pub fn inflight(&self, id: ActionId) -> usize {
        self.entries[id.0 as usize].inflight.load(Ordering::Relaxed)
    }

    /// Try to admit one invocation; false when the action is at its
    /// in-flight cap (the caller sheds).
    pub(crate) fn try_admit(&self, id: ActionId) -> bool {
        let e = &self.entries[id.0 as usize];
        let mut cur = e.inflight.load(Ordering::Relaxed);
        loop {
            if cur >= e.spec.max_inflight {
                return false;
            }
            match e.inflight.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(seen) => {
                    // A racing submitter moved the count first: retry.
                    // Counted (relaxed, off the uncontended path) so
                    // multi-submitter contention shows up in telemetry.
                    self.cas_retries.fetch_add(1, Ordering::Relaxed);
                    cur = seen;
                }
            }
        }
    }

    /// Release one admission (called by the invoker after execution).
    pub(crate) fn release(&self, id: ActionId) {
        let prev = self.entries[id.0 as usize]
            .inflight
            .fetch_sub(1, Ordering::AcqRel);
        debug_assert!(prev >= 1, "release without admit");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admit_release_respects_cap() {
        let reg = ActionRegistry::new(vec![ActionSpec::noop("f").with_max_inflight(2)]);
        let id = ActionId(0);
        assert!(reg.try_admit(id));
        assert!(reg.try_admit(id));
        assert!(!reg.try_admit(id), "cap of 2 reached");
        reg.release(id);
        assert!(reg.try_admit(id));
        assert_eq!(reg.inflight(id), 2);
    }

    #[test]
    fn bodies_run() {
        assert_eq!(ActionBody::Noop.run(), 0);
        assert!(ActionBody::Spin(Duration::from_micros(50)).run() > 0);
        assert!(ActionBody::Sleep(Duration::from_micros(50)).run() > 0);
        let g = Arc::new(Graph::barabasi_albert(200, 2, 1));
        assert!(ActionBody::Kernel(Kernel::Bfs, g).run() > 0);
    }
}
