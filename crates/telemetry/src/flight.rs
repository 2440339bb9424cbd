//! Lock-free per-thread flight recorder.
//!
//! Every participating thread owns a fixed ring of typed events
//! (sheds, lease grants/revokes, drain start/finish, cold/warm/evict,
//! queue-depth high-water). Recording is wait-free: a thread-local ring
//! lookup, three relaxed stores, one release store of the head — no
//! locks, no allocation, no cross-thread contention. The recorder is
//! **off by default** (a single relaxed load + branch per call site);
//! stress tests and churn binaries switch it on.
//!
//! On an exactly-once violation or a conservation failure ([`guard`]),
//! [`dump`] merges every thread's ring into one time-sorted table of
//! the last events before the failure — the black box you read *after*
//! the crash.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Events per thread ring (power of two).
pub const RING: usize = 256;

/// Typed flight-recorder events. `a`/`b` are event-specific payloads
/// (ids, depths, counts) documented per variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// Admission shed; `a` = action index, `b` = shed reason code.
    AdmissionShed = 1,
    /// Capacity lease granted; `a` = node id.
    LeaseGrant = 2,
    /// Capacity lease revoked; `a` = node id, `b` = 1 if surprise.
    LeaseRevoke = 3,
    /// Invoker drain started; `a` = node id, `b` = 1 if deadline-led.
    DrainStart = 4,
    /// Invoker drain finished; `a` = node id, `b` = requests flushed.
    DrainFinish = 5,
    /// Cold container start; `a` = action index, `b` = invoker slot.
    ColdStart = 6,
    /// Warm container hit; `a` = action index, `b` = invoker slot.
    WarmHit = 7,
    /// Container evicted; `a` = action index, `b` = 0 LRU / 1 keepalive / 2 drain-retire.
    Evict = 8,
    /// Work-queue depth high-water mark; `a` = invoker slot, `b` = depth.
    QueueHighWater = 9,
    /// Free-form marker for tests; `a`/`b` caller-defined.
    Marker = 10,
}

impl EventKind {
    fn from_u8(v: u8) -> Option<Self> {
        match v {
            1 => Some(Self::AdmissionShed),
            2 => Some(Self::LeaseGrant),
            3 => Some(Self::LeaseRevoke),
            4 => Some(Self::DrainStart),
            5 => Some(Self::DrainFinish),
            6 => Some(Self::ColdStart),
            7 => Some(Self::WarmHit),
            8 => Some(Self::Evict),
            9 => Some(Self::QueueHighWater),
            10 => Some(Self::Marker),
            _ => None,
        }
    }

    pub fn as_str(&self) -> &'static str {
        match self {
            Self::AdmissionShed => "admission_shed",
            Self::LeaseGrant => "lease_grant",
            Self::LeaseRevoke => "lease_revoke",
            Self::DrainStart => "drain_start",
            Self::DrainFinish => "drain_finish",
            Self::ColdStart => "cold_start",
            Self::WarmHit => "warm_hit",
            Self::Evict => "evict",
            Self::QueueHighWater => "queue_highwater",
            Self::Marker => "marker",
        }
    }
}

/// One decoded event, as returned by [`events`].
#[derive(Debug, Clone, Copy)]
pub struct FlightEvent {
    /// Nanoseconds since the recorder's process-wide epoch.
    pub at_ns: u64,
    pub kind: EventKind,
    pub a: u64,
    pub b: u64,
    /// Arbitrary id of the recording thread.
    pub thread: u64,
}

struct Slot {
    // kind in the top byte, timestamp (ns, truncated to 56 bits) below.
    word: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

struct Ring {
    slots: Box<[Slot]>,
    head: AtomicU64,
    thread: u64,
}

impl Ring {
    fn new(thread: u64) -> Self {
        Self {
            slots: (0..RING)
                .map(|_| Slot {
                    word: AtomicU64::new(0),
                    a: AtomicU64::new(0),
                    b: AtomicU64::new(0),
                })
                .collect(),
            head: AtomicU64::new(0),
            thread,
        }
    }
}

struct Recorder {
    enabled: AtomicBool,
    epoch: Instant,
    rings: Mutex<Vec<Arc<Ring>>>,
    next_thread: AtomicU64,
    last_dump: Mutex<Option<String>>,
}

fn recorder() -> &'static Recorder {
    static REC: OnceLock<Recorder> = OnceLock::new();
    REC.get_or_init(|| Recorder {
        enabled: AtomicBool::new(false),
        epoch: Instant::now(),
        rings: Mutex::new(Vec::new()),
        next_thread: AtomicU64::new(0),
        last_dump: Mutex::new(None),
    })
}

thread_local! {
    static TLS_RING: std::cell::OnceCell<Arc<Ring>> = const { std::cell::OnceCell::new() };
}

/// Switch the recorder on (idempotent). Off by default; when off,
/// [`record`] is a single relaxed load + branch.
pub fn enable() {
    recorder().enabled.store(true, Ordering::Relaxed);
}

/// Switch the recorder off. Rings are kept (a later enable resumes).
pub fn disable() {
    recorder().enabled.store(false, Ordering::Relaxed);
}

/// Whether the recorder is currently on.
#[inline(always)]
pub fn enabled() -> bool {
    recorder().enabled.load(Ordering::Relaxed)
}

/// Record one event into this thread's ring. Wait-free when enabled;
/// one load + branch when disabled.
#[inline]
pub fn record(kind: EventKind, a: u64, b: u64) {
    let rec = recorder();
    if !rec.enabled.load(Ordering::Relaxed) {
        return;
    }
    let at = rec.epoch.elapsed().as_nanos() as u64 & ((1 << 56) - 1);
    let word = ((kind as u64) << 56) | at;
    TLS_RING.with(|cell| {
        let ring = cell.get_or_init(|| {
            let id = rec.next_thread.fetch_add(1, Ordering::Relaxed);
            let ring = Arc::new(Ring::new(id));
            rec.rings.lock().unwrap().push(ring.clone());
            ring
        });
        let head = ring.head.load(Ordering::Relaxed);
        let slot = &ring.slots[(head as usize) & (RING - 1)];
        slot.a.store(a, Ordering::Relaxed);
        slot.b.store(b, Ordering::Relaxed);
        slot.word.store(word, Ordering::Relaxed);
        ring.head.store(head + 1, Ordering::Release);
    });
}

/// Decode every ring's retained events, merged and time-sorted.
pub fn events() -> Vec<FlightEvent> {
    let rec = recorder();
    let rings: Vec<Arc<Ring>> = rec.rings.lock().unwrap().clone();
    let mut out = Vec::new();
    for ring in rings {
        let head = ring.head.load(Ordering::Acquire);
        let n = head.min(RING as u64);
        for i in (head - n)..head {
            let slot = &ring.slots[(i as usize) & (RING - 1)];
            let word = slot.word.load(Ordering::Relaxed);
            let Some(kind) = EventKind::from_u8((word >> 56) as u8) else {
                continue;
            };
            out.push(FlightEvent {
                at_ns: word & ((1 << 56) - 1),
                kind,
                a: slot.a.load(Ordering::Relaxed),
                b: slot.b.load(Ordering::Relaxed),
                thread: ring.thread,
            });
        }
    }
    out.sort_by_key(|e| e.at_ns);
    out
}

/// Render the merged rings as a human-readable dump.
pub fn dump() -> String {
    use std::fmt::Write;
    let evs = events();
    let mut s = String::new();
    let _ = writeln!(
        s,
        "=== flight recorder: last {} events ({} threads) ===",
        evs.len(),
        recorder().rings.lock().unwrap().len()
    );
    for e in &evs {
        let _ = writeln!(
            s,
            "  [{:>12} ns] t{:<2} {:<16} a={} b={}",
            e.at_ns,
            e.thread,
            e.kind.as_str(),
            e.a,
            e.b
        );
    }
    let _ = writeln!(s, "=== end flight recorder dump ===");
    s
}

/// Record a violation: renders the dump, stores it for
/// [`last_dump`], writes it to stderr, and returns it.
pub fn note_violation(context: &str) -> String {
    let mut text = format!("flight recorder violation: {context}\n");
    text.push_str(&dump());
    *recorder().last_dump.lock().unwrap() = Some(text.clone());
    eprintln!("{text}");
    text
}

/// The most recent violation dump, if any (used by tests to assert the
/// ring actually surfaced).
pub fn last_dump() -> Option<String> {
    recorder().last_dump.lock().unwrap().clone()
}

/// Assert an exactly-once / conservation invariant. On failure the
/// flight recorder dumps the last events before panicking, so the
/// panic message is preceded by the black box.
#[track_caller]
pub fn guard(condition: bool, context: &str) {
    if !condition {
        note_violation(context);
        panic!("invariant violated: {context} (flight recorder dumped above)");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test, not several: the recorder is process-global state and
    // parallel test threads toggling enable/disable would race.
    #[test]
    fn recorder_gates_records_and_bounds_retention() {
        disable();
        record(EventKind::Marker, 1, 2);
        assert!(!events().iter().any(|e| e.kind == EventKind::Marker));
        enable();
        for i in 0..(RING as u64 + 50) {
            record(EventKind::QueueHighWater, i, 0);
        }
        record(EventKind::Marker, 7, 8);
        let evs = events();
        assert!(evs.iter().any(|e| e.kind == EventKind::Marker && e.a == 7));
        let hw: Vec<_> = evs
            .iter()
            .filter(|e| e.kind == EventKind::QueueHighWater)
            .collect();
        assert!(hw.len() <= RING, "ring should bound retention");
        assert!(hw.iter().any(|e| e.a == RING as u64 + 49));
        let text = dump();
        assert!(text.contains("queue_highwater"));
        disable();
    }
}
