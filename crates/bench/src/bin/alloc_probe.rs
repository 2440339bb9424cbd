//! Heap traffic of one simulated day: calls to the allocator and bytes
//! asked of it while `run_day` runs, for the two days the repo benchmark
//! times (seed 7 of each model) — the coverage-only week-model day and
//! the Table II fib day under the paper's 10 QPS load.
//!
//! ```bash
//! cargo run --release -p hpcwhisk_bench --bin alloc_probe
//! ```
//!
//! The counts are a function of `(trace, config, seed)` and of the
//! standard library's growth policy, not of the host (seven of eight
//! runs read them to the call, one read one allocation more). README
//! "Where a simulated day goes" keeps the last recorded ones. The counting allocator lives in this binary
//! only; no library is built with it.

use hpcwhisk_core::{run_day, DayConfig};
use simcore::SimDuration;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use workload::IdleModel;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static REALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting calls and the bytes they ask for (a
/// `realloc` counts its whole new size).
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are statistics
// and publish no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(layout.size() as u64, Relaxed);
        // SAFETY: the caller's `layout` is passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(new_size as u64, Relaxed);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn counters() -> [u64; 3] {
    [
        ALLOCS.load(Relaxed),
        REALLOCS.load(Relaxed),
        BYTES.load(Relaxed),
    ]
}

fn probe(name: &str, model: IdleModel, with_load: bool) {
    let trace = model.generate(SimDuration::from_hours(24), 7);
    let mut cfg = DayConfig::fib_paper(7);
    if !with_load {
        cfg.load = None;
    }
    let before = counters();
    let report = run_day(&trace, cfg);
    let after = counters();
    let [allocs, reallocs, bytes] = [0, 1, 2].map(|i| after[i] - before[i]);
    println!(
        "{name}: {} events, {allocs} allocs + {reallocs} reallocs, {:.1} MB asked for",
        report.events_dispatched,
        bytes as f64 / 1e6,
    );
}

fn main() {
    probe(
        "week day (coverage only)",
        IdleModel::prometheus_week(),
        false,
    );
    probe("fib day (10 QPS load)", IdleModel::fib_day(), true);
}
