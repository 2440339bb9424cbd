//! The DES-plane workloads: sequential single-threaded simulated days
//! through `hpcwhisk_core::run_day`, timed in host wall-clock, each day
//! run several times with the best time kept, the simulated statistics
//! of day 0 read from the same execution and every repeat of a day
//! checked against that day's first run.

use crate::trace::Span;
use cluster::AvailabilityTrace;
use hpcwhisk_core::{lengths, run_day, DayConfig, DayReport};
use simcore::{SimDuration, SimRng};
use std::time::Instant;
use workload::IdleModel;

/// The paper's Table II row the fib day is judged against: Slurm-level
/// used %, accepted %, success-of-accepted %.
const TABLE_II: [f64; 3] = [89.97, 95.29, 95.19];
/// Fewest times each day is run, however short `--seconds` is.
const MIN_REPEATS: usize = 2;

pub struct DesCfg {
    pub model: IdleModel,
    /// Run the paper's 10 QPS client load (false: coverage only).
    pub with_load: bool,
    /// Seeds the stream of seeds the run's days are drawn from.
    pub seed: u64,
    /// Distinct days in a run.
    pub days: usize,
    /// The idle surface the run's days are chosen to be close to: the
    /// median of `model` over 400 seeds.
    pub idle_node_hours: f64,
}

/// Days drawn from the seed for each day the run keeps.
///
/// A day's host cost follows the idle surface of its trace (best-of-3
/// wall against idle node-hours, correlation 0.93 over 48 week seeds
/// and 0.96 over 24 fib seeds), and the models draw that surface with a
/// CV of 13 % (week) and 18 % (fib). A run can time only a handful of
/// days, so days taken as they come make its mean a property of the
/// seed (10 % between seeds) rather than of the program. Drawing four
/// times as many and keeping the quarter closest to the model's median
/// surface (within about 4–6 % of it) leaves 3–5 % per day, at the same
/// set-up work for every seed.
const DRAWN_PER_DAY: usize = 4;

/// Node-hours of availability in `trace`.
fn idle_node_hours(trace: &AvailabilityTrace) -> f64 {
    trace
        .per_node
        .iter()
        .flatten()
        .map(|(from, to)| (*to - *from).as_secs_f64())
        .sum::<f64>()
        / 3600.0
}

impl DesCfg {
    /// The generated inputs of a run: of `DRAWN_PER_DAY * days` days of
    /// the model, seeded from a stream that `seed` starts, the `days`
    /// whose idle surface is closest to [`DesCfg::idle_node_hours`], in
    /// the order drawn; each with the experiment configuration of the
    /// same seed.
    pub fn inputs(&self) -> Vec<(AvailabilityTrace, DayConfig)> {
        let mut seeds = SimRng::seed_from_u64(self.seed ^ 0xde5_da15);
        let mut drawn: Vec<(usize, f64, u64, AvailabilityTrace)> = (0..DRAWN_PER_DAY * self.days)
            .map(|i| {
                let seed = seeds.next_u64();
                let trace = self.model.generate(SimDuration::from_hours(24), seed);
                let off = (idle_node_hours(&trace) - self.idle_node_hours).abs();
                (i, off, seed, trace)
            })
            .collect();
        drawn.sort_by(|a, b| a.1.total_cmp(&b.1));
        drawn.truncate(self.days);
        drawn.sort_by_key(|d| d.0);
        drawn
            .into_iter()
            .map(|(_, _, seed, trace)| {
                let mut cfg = DayConfig::fib_paper(seed);
                if !self.with_load {
                    cfg.load = None;
                }
                (trace, cfg)
            })
            .collect()
    }
}

/// The simulated statistics of one day, for the repeatability check and
/// for diffing a change against its parent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Digest(pub Vec<(&'static str, u64)>);

/// The statistics that repeat exactly even with the client load on.
/// With load, `whisk::system` re-routes a draining invoker's running
/// activations in `HashSet` iteration order, which differs from one
/// set instance to the next; the perturbation reaches every other
/// counter (measured: successes move by ≤ 0.02 %, counts in the
/// hundreds by a few percent). Coverage-only days never take that path
/// and repeat exactly in every field.
const EXACT_UNDER_LOAD: &[&str] = &[
    "hpc_started",
    "hpc_completed",
    "backfill_passes",
    "reservations_made",
    "submitted",
    "poll_samples",
];

impl Digest {
    pub fn of(rep: &DayReport) -> Digest {
        let c = &rep.cluster_counters;
        let w = &rep.whisk_counters;
        Digest(vec![
            ("hpc_started", c.hpc_started),
            ("hpc_completed", c.hpc_completed),
            ("pilots_started", c.pilots_started),
            ("pilots_preempted", c.pilots_preempted),
            ("pilots_timed_out", c.pilots_timed_out),
            ("pilots_node_failed", c.pilots_node_failed),
            ("quick_passes", c.quick_passes),
            ("quick_passes_skipped", c.quick_passes_skipped),
            ("backfill_passes", c.backfill_passes),
            ("reservations_made", c.reservations_made),
            ("wheel_nodes_reprojected", c.wheel_nodes_reprojected),
            ("pass_placements", c.pass_placements),
            ("submitted", w.submitted),
            ("rejected_503", w.rejected_503),
            ("success", w.success),
            ("failed", w.failed),
            ("timeout", w.timeout),
            ("refired", w.refired),
            ("moved_to_fastlane", w.moved_to_fastlane),
            ("warm_starts", w.warm_starts),
            ("cold_starts", w.cold_starts),
            ("drains_clean", w.drains_clean),
            ("hard_deaths", w.hard_deaths),
            ("poll_samples", rep.samples.len() as u64),
            ("latency_cdf_size", rep.latency_success_secs.len() as u64),
        ])
    }

    /// FNV-1a over the values, for a one-word comparison in logs.
    pub fn hash(&self) -> u64 {
        self.0.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, (_, v)| {
            v.to_le_bytes()
                .iter()
                .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
        })
    }

    /// The fields in which `other` does not repeat `self`: any
    /// difference on a coverage-only day; under load, any difference in
    /// an [`EXACT_UNDER_LOAD`] field and, in any other, more than the
    /// largest of 5 %, 64 counts and 0.2 % of the day's requests (a
    /// re-routed activation moves a request from one outcome to
    /// another: 503s were seen to differ by 332 of 5,862, which is
    /// 5.7 % of themselves and 0.04 % of the 864,000 submitted).
    pub fn differs_from(&self, other: &Digest, with_load: bool) -> Vec<String> {
        let requests = self.get("submitted") as u64;
        self.0
            .iter()
            .zip(&other.0)
            .filter(|((k, a), (_, b))| {
                let slack = if with_load && !EXACT_UNDER_LOAD.contains(k) {
                    (*a.max(b) / 20).max(64).max(requests / 500)
                } else {
                    0
                };
                a.abs_diff(*b) > slack
            })
            .map(|((k, a), (_, b))| format!("{k}: {a} then {b}"))
            .collect()
    }

    pub fn render(&self) -> String {
        let fields: Vec<String> = self.0.iter().map(|(k, v)| format!("{k}={v}")).collect();
        format!("{:016x} [{}]", self.hash(), fields.join(" "))
    }

    fn get(&self, key: &str) -> f64 {
        self.0
            .iter()
            .find(|(k, _)| *k == key)
            .map_or(0.0, |(_, v)| *v as f64)
    }
}

/// What the operator reads off day 0.
pub struct DayZero {
    pub digest: Digest,
    pub used_pct: f64,
    pub accepted_pct: f64,
    /// Successes over *accepted* requests (Table II's column).
    pub success_pct: f64,
    /// Successes over *submitted* requests (what a client sees).
    pub served_pct: f64,
    pub prime_delay_max_s: f64,
    pub fidelity_err_pp: f64,
}

impl DayZero {
    fn of(rep: &DayReport, with_load: bool) -> DayZero {
        let digest = Digest::of(rep);
        let used_pct = rep.slurm_level().used_share * 100.0;
        let accepted_pct = rep.acceptance_rate() * 100.0;
        let success_pct = rep.accepted_outcome_shares().0 * 100.0;
        let submitted = digest.get("submitted");
        let measured = [used_pct, accepted_pct, success_pct];
        DayZero {
            used_pct,
            accepted_pct,
            success_pct,
            served_pct: if with_load {
                100.0 * digest.get("success") / submitted.max(1.0)
            } else {
                used_pct
            },
            prime_delay_max_s: rep.cluster_counters.demand_delay_secs.max().unwrap_or(0.0),
            fidelity_err_pp: if with_load {
                measured
                    .iter()
                    .zip(TABLE_II)
                    .map(|(m, p)| (m - p).abs())
                    .sum::<f64>()
                    / 3.0
            } else {
                0.0
            },
            digest,
        }
    }

    pub fn passes(&self) -> f64 {
        self.digest.get("quick_passes") + self.digest.get("backfill_passes")
    }

    pub fn count(&self, key: &str) -> f64 {
        self.digest.get(key)
    }
}

pub struct DesOut {
    /// Day-runs made, repeats included.
    pub runs: u64,
    /// Day-runs whose simulated statistics did not repeat the first run
    /// of the same day (see [`Digest::differs_from`]), in words.
    pub unrepeated: Vec<String>,
    /// How many day-runs those are.
    pub unrepeated_runs: u64,
    pub day0: DayZero,
    /// Day 0's digest on its second run.
    pub rerun: Digest,
    /// Best host wall-clock of each distinct day over its repeats.
    pub day_best_ms: Vec<f64>,
    /// Fewest repeats any day got.
    pub min_repeats: usize,
    /// Host wall-clock per scheduling pass, one value per distinct day.
    pub us_per_pass: Vec<f64>,
    /// Traced runs only.
    pub trace_gen_ms: Vec<f64>,
    pub offline_simulate_ms: f64,
    pub coverage_only_wall_ms: f64,
    pub spans: Vec<Span>,
}

/// Run the days of `inputs` round-robin — day 0, 1, …, K-1, day 0
/// again, … — for `seconds`, every day at least [`MIN_REPEATS`] times,
/// and keep each day's *best* wall-clock.
///
/// Why the best of repeats spread over the run: on a shared host the
/// same single-threaded day reads anywhere from 1.0x to 1.7x its
/// undisturbed time, in stretches of several seconds (measured: one
/// week-model day run 40 times in a row, 380 ms to 660 ms, on-CPU time
/// equal to wall time throughout, so it is the core that is slower and
/// not the thread that is waiting). A median over the run follows those
/// stretches; the minimum over repeats that are a whole round apart
/// does not, as long as one of them meets an undisturbed stretch.
///
/// `inputs` are generated by the caller as part of set-up; `epoch` is
/// the zero of span times.
pub fn run(
    cfg: &DesCfg,
    inputs: Vec<(AvailabilityTrace, DayConfig)>,
    seconds: f64,
    traced: bool,
    epoch: Instant,
) -> DesOut {
    let ns = |t: Instant| t.saturating_duration_since(epoch).as_nanos() as u64;
    let mut spans = Vec::new();
    let mut span = |req: u64, name, a: Instant, b: Instant, parent| {
        if traced {
            spans.push(Span {
                req,
                name,
                start_ns: ns(a),
                end_ns: ns(b),
                parent,
            });
        }
    };
    let passes = |rep: &DayReport| {
        (rep.cluster_counters.quick_passes + rep.cluster_counters.backfill_passes).max(1) as f64
    };

    let k = inputs.len();
    let mut best_ms = vec![f64::INFINITY; k];
    let mut repeats = vec![0usize; k];
    let mut first: Vec<Option<(Digest, f64)>> = vec![None; k];
    let mut day0 = None;
    let mut day0_report = None;
    let mut rerun = None;
    let mut unrepeated = Vec::new();
    let mut unrepeated_runs = 0;
    let mut runs = 0u64;

    let t_run = Instant::now();
    'rounds: for round in 0.. {
        for (d, (trace, day_cfg)) in inputs.iter().enumerate() {
            if round >= MIN_REPEATS && t_run.elapsed().as_secs_f64() >= seconds {
                break 'rounds;
            }
            let a = Instant::now();
            let rep = run_day(trace, day_cfg.clone());
            let b = Instant::now();
            span(runs, "day", a, b, None);
            span(runs, "run_day", a, b, Some("day"));
            runs += 1;
            repeats[d] += 1;
            best_ms[d] = best_ms[d].min((b - a).as_secs_f64() * 1e3);
            let digest = Digest::of(&rep);
            match &first[d] {
                None => {
                    if d == 0 {
                        // The day whose simulated statistics are reported.
                        day0 = Some(DayZero::of(&rep, cfg.with_load));
                    }
                    first[d] = Some((digest, passes(&rep)));
                }
                Some((was, _)) => {
                    let fields = was.differs_from(&digest, cfg.with_load);
                    unrepeated_runs += !fields.is_empty() as u64;
                    unrepeated.extend(
                        fields
                            .into_iter()
                            .map(|f| format!("day {d} repeat {round}: {f}")),
                    );
                    if d == 0 && round == 1 {
                        rerun = Some(digest);
                        day0_report = Some(rep);
                    }
                }
            }
        }
    }

    let day0 = day0.expect("at least one day");
    let mut out = DesOut {
        runs,
        unrepeated,
        unrepeated_runs,
        rerun: rerun.unwrap_or_else(|| day0.digest.clone()),
        day0,
        us_per_pass: best_ms
            .iter()
            .zip(&first)
            .map(|(ms, f)| ms * 1e3 / f.as_ref().expect("every day ran").1)
            .collect(),
        day_best_ms: best_ms,
        min_repeats: repeats.iter().copied().min().unwrap_or(0),
        trace_gen_ms: Vec::new(),
        offline_simulate_ms: 0.0,
        coverage_only_wall_ms: 0.0,
        spans: Vec::new(),
    };

    if traced {
        // The layers under `run_day` that can be called on their own,
        // each call an operation of its own after the day-runs.
        let mut req = runs..;
        let mut next_req = || req.next().expect("unbounded");
        for (_, day_cfg) in &inputs {
            let a = Instant::now();
            std::hint::black_box(
                cfg.model
                    .generate(SimDuration::from_hours(24), day_cfg.seed),
            );
            let b = Instant::now();
            span(next_req(), "trace_gen", a, b, None);
            out.trace_gen_ms.push((b - a).as_secs_f64() * 1e3);
        }
        if let Some(rep) = day0_report {
            let a = Instant::now();
            std::hint::black_box(rep.simulation(lengths::A1.to_vec()));
            let b = Instant::now();
            span(next_req(), "offline_simulate", a, b, None);
            out.offline_simulate_ms = (b - a).as_secs_f64() * 1e3;
        }
        if cfg.with_load {
            // Day 0 without the client load: what is left is the
            // scheduler side, the difference is the FaaS model. Best of
            // three, against day 0's best.
            let (trace0, cfg0) = &inputs[0];
            let mut bare = cfg0.clone();
            bare.load = None;
            let mut best = f64::INFINITY;
            for _ in 0..3 {
                let req = next_req();
                let a = Instant::now();
                std::hint::black_box(run_day(trace0, bare.clone()));
                let b = Instant::now();
                span(req, "day", a, b, None);
                span(req, "run_day_coverage_only", a, b, Some("day"));
                best = best.min((b - a).as_secs_f64() * 1e3);
            }
            out.coverage_only_wall_ms = best;
        }
    }
    out.spans = spans;
    out
}
