//! The benchmark's contract as data: workloads, end-to-end metrics with
//! their regression bounds, per-layer metrics. `BENCHMARK.json` is
//! `benchmark --manifest` verbatim, so the file and the binary cannot
//! name different metrics.

use crate::json::{num, quote};

/// Seconds one run measures when `--seconds` is not given; also
/// `run_seconds` in the manifest.
pub const RUN_SECONDS: u64 = 20;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "gw_open_noop",
        why: "open loop, Poisson 100k req/s of no-ops on one static invoker: only the plane (admission, route, ring, wake, completion stack, collector) lies between due and done; pool, controller, body do nothing",
    },
    Workload {
        name: "gw_saturate_noop",
        why: "closed loop, 1,024 no-ops in flight in bursts of 64 on 8 invokers: the same layers batched and never parked, so a batching win that costs wake latency shows as a split from gw_open_noop",
    },
    Workload {
        name: "gw_churn_sleep",
        why: "open loop, Poisson 1,200 req/s of 2 ms sleeps while 3 of 6 leases are granted, drained and revoked: the paper's scenario; controller, lease and pool decide it, the 16 us plane is invisible",
    },
    Workload {
        name: "des_fib_load",
        why: "4 simulated fib days, 2,239 nodes, the paper's 10 QPS load, each run 4-5 times, best kept: whisk, mq and simcore dispatch dominate, and the run that regenerates Table II is the run that is timed",
    },
    Workload {
        name: "des_week_sched",
        why: "8 coverage-only simulated days of the week model, each run 4-5 times, best kept: cluster passes, Timeline and pilot managers do all the work and whisk none, so FaaS-model changes predict no change",
    },
];

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// What a client or an operator sees. Every workload reports every one
/// of these; README.md says what each means on each workload, and why
/// the bounds are what they are: each is about three times the
/// run-to-run spread of the metric's noisiest workload on the 2-core
/// shared box this was sized on (the same single-threaded simulated day
/// reads 1.0–1.7 × its undisturbed time there, in stretches of seconds).
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_ops_s",
        unit: "ops/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "served_pct",
        unit: "%",
        better: Better::Higher,
        bound: 0.10,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.20,
    },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer { name, unit, better }
}

use Better::{Higher, Lower};

/// Per-layer metrics, named `<module>.<what>`. A workload reports 0 for
/// a layer it does not exercise (README.md has the table of which
/// workload fills which). Plain event counts carry the direction in
/// which the end-to-end metric they feed improves.
pub const PER_LAYER: &[Layer] = &[
    layer("gateway.submit_ns_p50", "ns", Lower),
    layer("gateway.submit_ns_p99", "ns", Lower),
    layer("gateway.burst_submit_ns_per_op", "ns", Lower),
    layer("gateway.queue_wait_us_p50", "us", Lower),
    layer("gateway.queue_wait_us_p99", "us", Lower),
    layer("gateway.service_us_p50", "us", Lower),
    layer("gateway.collect_lag_us_p50", "us", Lower),
    layer("gateway.collect_lag_us_p99", "us", Lower),
    layer("gateway.collect_batch_mean", "count", Higher),
    layer("gateway.latency_p99_us", "us", Lower),
    layer("gateway.p50_us_r25k", "us", Lower),
    layer("gateway.p50_us_r400k", "us", Lower),
    layer("gateway.fastlane_moves", "count", Lower),
    layer("gateway.contention_per_kop", "1/kop", Lower),
    layer("admission.delayed_share", "%", Lower),
    layer("admission.shed_delay_budget", "count", Lower),
    layer("admission.shed_queue_full", "count", Lower),
    layer("admission.shed_no_invoker", "count", Lower),
    layer("admission.shed_action_saturated", "count", Lower),
    layer("pool.cold_share", "%", Lower),
    layer("pool.evictions", "count", Lower),
    layer("controller.grants", "count", Higher),
    layer("controller.revokes", "count", Lower),
    layer("controller.deadline_drains", "count", Higher),
    layer("controller.surprise_revokes", "count", Lower),
    layer("controller.regrants_after_drain", "count", Lower),
    layer("lease.invoker_seconds", "s", Higher),
    layer("lease.min_live", "count", Higher),
    layer("ring.produce_pop_ns", "ns", Lower),
    layer("route.pick_ns", "ns", Lower),
    layer("telemetry.record_ns", "ns", Lower),
    layer("telemetry.snapshot_us", "us", Lower),
    layer("proc.cpu_us_per_op", "us", Lower),
    layer("proc.vol_ctx_switches_per_kop", "1/kop", Lower),
    layer("proc.invol_ctx_switches_per_kop", "1/kop", Lower),
    layer("gen.lag_us_p50", "us", Lower),
    layer("gen.lag_us_p99", "us", Lower),
    layer("gen.late_share", "%", Lower),
    layer("trace.overhead_pct", "%", Lower),
    layer("core.day_wall_ms_p50", "ms", Lower),
    layer("core.day_wall_ms_q1", "ms", Lower),
    layer("core.day_wall_ms_q3", "ms", Lower),
    layer("core.fidelity_err_pp", "pp", Lower),
    layer("core.offline_simulate_ms", "ms", Lower),
    layer("whisk.wall_share", "%", Lower),
    layer("whisk.requests_per_day", "count", Higher),
    layer("whisk.accepted_share", "%", Higher),
    layer("whisk.success_share", "%", Higher),
    layer("whisk.cold_share", "%", Lower),
    layer("whisk.refired", "count", Lower),
    layer("cluster.passes_per_day", "count", Lower),
    layer("cluster.quick_skipped_share", "%", Higher),
    layer("cluster.placements_per_day", "count", Higher),
    layer("cluster.wheel_reprojected_per_day", "count", Lower),
    layer("cluster.us_per_pass", "us", Lower),
    layer("cluster.pilots_started_per_day", "count", Higher),
    layer("cluster.pilots_preempted_per_day", "count", Lower),
    layer("cluster.coverage_pct", "%", Higher),
    layer("cluster.prime_delay_max_s", "s", Lower),
    layer("simcore.ns_per_event", "ns", Lower),
    layer("workload.trace_gen_ms", "ms", Lower),
];

/// (name, unit, direction) of every metric a run in this mode reports:
/// the per-layer table for a traced run, the end-to-end table otherwise.
pub fn table(traced: bool) -> Vec<(&'static str, &'static str, &'static str)> {
    if traced {
        PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit, m.better.as_str()))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, m.better.as_str()))
            .collect()
    }
}

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// `BENCHMARK.json`, from the tables above.
pub fn manifest() -> String {
    let command = [
        "cargo",
        "run",
        "--quiet",
        "--release",
        "--offline",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    let mut s = String::from("{\n  \"command\": [");
    s.push_str(&command.map(quote).join(", "));
    s.push_str("],\n  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let rows = |rows: Vec<String>| format!("[\n    {}\n  ]", rows.join(",\n    "));
    s.push_str("  \"workloads\": ");
    s.push_str(&rows(
        WORKLOADS
            .iter()
            .map(|w| format!("{{\"name\": {}, \"why\": {}}}", quote(w.name), quote(w.why)))
            .collect(),
    ));
    s.push_str(",\n  \"end_to_end\": ");
    s.push_str(&rows(
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                    quote(m.name),
                    quote(m.unit),
                    quote(m.better.as_str()),
                    num(m.bound).expect("bounds are finite constants"),
                )
            })
            .collect(),
    ));
    s.push_str(",\n  \"per_layer\": ");
    s.push_str(&rows(
        PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "{{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                    quote(m.name),
                    quote(m.unit),
                    quote(m.better.as_str()),
                )
            })
            .collect(),
    ));
    s.push_str("\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    /// The limits the driver refuses a manifest over.
    #[test]
    fn manifest_is_strict_json_within_the_contract_limits() {
        let m = parse(&manifest()).expect("manifest parses");
        for key in [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer",
        ] {
            assert!(m.get(key).is_some(), "missing {key}");
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        let mut names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        for n in &names {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        for u in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(
                u.len() <= 16
                    && u.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
    }
}
