//! FaaS request workloads.
//!
//! * [`ConstantRateLoadGen`] — the paper's responsiveness workload
//!   (§V-C): a constant 10 calls/second spread uniformly over 100
//!   identical sleep functions with distinct names, 864,000 requests
//!   over 24 h, generated open-loop (Gatling style).
//! * [`PoissonLoadGen`] — memoryless arrivals at a fixed mean rate, the
//!   canonical open-loop FaaS client model; used by the live gateway's
//!   load harness.
//! * [`DiurnalLoadGen`] — a non-homogeneous Poisson process whose rate
//!   follows a day/night cosine profile (thinning sampler), modelling
//!   the interactive-traffic swing the paper's production platform
//!   would see.
//! * [`AzureDurationModel`] — a duration mix shaped like the Azure
//!   Functions characterization the paper cites (§I: 50% of functions
//!   complete in < 3 s, 90% in < 1 min), for the workload examples.

use simcore::dist::{LogNormal, Sample};
use simcore::time::round_u64;
use simcore::{SimDuration, SimRng, SimTime};

/// One generated request arrival: a timestamp and the index of the
/// function it targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// When the request enters the system.
    pub at: SimTime,
    /// Which of the workload's functions it invokes.
    pub function: usize,
}

/// Open-loop constant-rate request generator.
#[derive(Debug, Clone)]
pub struct ConstantRateLoadGen {
    /// Requests per second.
    pub qps: f64,
    /// Number of distinct functions to spread requests over.
    pub n_functions: usize,
}

impl ConstantRateLoadGen {
    /// The paper's configuration: 10 QPS over 100 functions.
    pub fn paper() -> Self {
        ConstantRateLoadGen {
            qps: 10.0,
            n_functions: 100,
        }
    }

    /// The function index of the next request (uniform random but
    /// deterministic per seed).
    pub fn function_for(&self, rng: &mut SimRng) -> usize {
        rng.index(self.n_functions)
    }

    /// Timestamp of the `i`-th request: `i·1000/qps` ms, rounded.
    pub fn time_of(&self, i: u64) -> SimTime {
        SimTime::from_millis(round_u64(i as f64 * 1_000.0 / self.qps))
    }
}

/// Open-loop Poisson request generator: exponential inter-arrival gaps
/// at a fixed mean rate, functions chosen uniformly.
#[derive(Debug, Clone)]
pub struct PoissonLoadGen {
    /// Mean requests per second.
    pub qps: f64,
    /// Number of distinct functions to spread requests over.
    pub n_functions: usize,
}

impl PoissonLoadGen {
    /// A generator at `qps` mean requests/second over `n_functions`.
    pub fn new(qps: f64, n_functions: usize) -> Self {
        assert!(qps > 0.0 && n_functions >= 1);
        PoissonLoadGen { qps, n_functions }
    }

    /// The full arrival stream over `horizon`, sorted by time and
    /// deterministic per seed.
    pub fn arrivals(&self, horizon: SimDuration, seed: u64) -> Vec<Arrival> {
        let mut rng = SimRng::seed_from_u64(seed ^ 0x0faa_5000);
        let mut out = Vec::with_capacity((horizon.as_secs_f64() * self.qps * 1.1) as usize + 8);
        let mut t = 0.0f64;
        let end = horizon.as_secs_f64();
        loop {
            // Exponential gap via inverse CDF on a (0,1) uniform.
            t += -rng.f64_open().ln() / self.qps;
            if t >= end {
                return out;
            }
            out.push(Arrival {
                at: SimTime::from_secs_f64(t),
                function: rng.index(self.n_functions),
            });
        }
    }
}

/// Non-homogeneous Poisson arrivals with a diurnal (cosine) rate
/// profile: `rate(t) = trough + (peak - trough) * (1 - cos(2πt/period)) / 2`,
/// so the stream starts at the trough and peaks half a period in.
/// Sampled by Lewis–Shedler thinning against the peak rate.
#[derive(Debug, Clone)]
pub struct DiurnalLoadGen {
    /// Requests per second at the quietest point of the cycle.
    pub trough_qps: f64,
    /// Requests per second at the busiest point of the cycle.
    pub peak_qps: f64,
    /// Length of one day/night cycle.
    pub period: SimDuration,
    /// Number of distinct functions to spread requests over.
    pub n_functions: usize,
}

impl DiurnalLoadGen {
    /// A generator cycling between `trough_qps` and `peak_qps` over
    /// `period`.
    pub fn new(trough_qps: f64, peak_qps: f64, period: SimDuration, n_functions: usize) -> Self {
        assert!(trough_qps >= 0.0 && peak_qps >= trough_qps && peak_qps > 0.0);
        assert!(!period.is_zero() && n_functions >= 1);
        DiurnalLoadGen {
            trough_qps,
            peak_qps,
            period,
            n_functions,
        }
    }

    /// Instantaneous rate at `t` seconds into the stream.
    pub fn rate_at(&self, t_secs: f64) -> f64 {
        let phase = 2.0 * std::f64::consts::PI * t_secs / self.period.as_secs_f64();
        self.trough_qps + (self.peak_qps - self.trough_qps) * (1.0 - phase.cos()) / 2.0
    }

    /// The full arrival stream over `horizon`, sorted by time and
    /// deterministic per seed.
    pub fn arrivals(&self, horizon: SimDuration, seed: u64) -> Vec<Arrival> {
        let mut rng = SimRng::seed_from_u64(seed ^ 0x0faa_d100);
        let expected = horizon.as_secs_f64() * (self.trough_qps + self.peak_qps) / 2.0;
        let mut out = Vec::with_capacity(expected as usize + 8);
        let mut t = 0.0f64;
        let end = horizon.as_secs_f64();
        loop {
            t += -rng.f64_open().ln() / self.peak_qps;
            if t >= end {
                return out;
            }
            // Thinning: keep the candidate with probability rate(t)/peak.
            if rng.chance(self.rate_at(t) / self.peak_qps) {
                out.push(Arrival {
                    at: SimTime::from_secs_f64(t),
                    function: rng.index(self.n_functions),
                });
            }
        }
    }
}

/// Azure-like function-duration mix.
#[derive(Debug, Clone)]
pub struct AzureDurationModel {
    dist: LogNormal,
    bounds_secs: (f64, f64),
}

impl Default for AzureDurationModel {
    fn default() -> Self {
        // Median 3 s; P(d < 60 s) = 90%  →  sigma = ln(20)/1.2816.
        AzureDurationModel {
            dist: LogNormal::from_median_and_quantile(3.0, 0.90, 60.0),
            bounds_secs: (0.01, 540.0),
        }
    }
}

impl AzureDurationModel {
    /// Sample one function duration.
    pub fn sample(&self, rng: &mut SimRng) -> SimDuration {
        let s = self
            .dist
            .sample(rng)
            .clamp(self.bounds_secs.0, self.bounds_secs.1);
        SimDuration::from_secs_f64(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_loadgen_produces_864k_requests_per_day() {
        let g = ConstantRateLoadGen::paper();
        // 100 ms apart, so request 864,000 is the first past the day.
        assert_eq!(g.time_of(864_000), SimTime::from_hours(24));
        let gap = SimDuration::from_millis(100);
        for i in (0..864_000).step_by(997) {
            assert_eq!(g.time_of(i + 1).since(g.time_of(i)), gap);
        }
    }

    #[test]
    fn request_times_are_evenly_spaced() {
        let g = ConstantRateLoadGen::paper();
        assert_eq!(g.time_of(0), SimTime::ZERO);
        assert_eq!(g.time_of(10), SimTime::from_secs(1));
        assert_eq!(g.time_of(35), SimTime::from_millis(3_500));
        // A rate that does not divide a second: rounded half up.
        let g = ConstantRateLoadGen {
            qps: 3.0,
            n_functions: 1,
        };
        let ms: Vec<u64> = (0..4).map(|i| g.time_of(i).as_millis()).collect();
        assert_eq!(ms, [0, 333, 667, 1_000]);
    }

    #[test]
    fn function_choice_covers_all_functions() {
        let g = ConstantRateLoadGen::paper();
        let mut rng = SimRng::seed_from_u64(1);
        let mut seen = vec![false; g.n_functions];
        for _ in 0..5_000 {
            seen[g.function_for(&mut rng)] = true;
        }
        assert!(seen.iter().all(|s| *s), "all 100 functions exercised");
    }

    #[test]
    fn poisson_rate_and_determinism() {
        let g = PoissonLoadGen::new(200.0, 16);
        let a = g.arrivals(SimDuration::from_secs(60), 7);
        let b = g.arrivals(SimDuration::from_secs(60), 7);
        assert_eq!(a, b, "same seed, same stream");
        // 12,000 expected; Poisson sd ~110 → ±5% is > 5 sigma.
        let n = a.len() as f64;
        assert!((11_400.0..=12_600.0).contains(&n), "n = {n}");
        for w in a.windows(2) {
            assert!(w[0].at <= w[1].at);
        }
        assert!(a.iter().all(|r| r.function < 16));
        // Exponential gaps are memoryless: cv of gaps ≈ 1.
        let gaps: Vec<f64> = a
            .windows(2)
            .map(|w| w[1].at.since(w[0].at).as_secs_f64())
            .collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / gaps.len() as f64;
        let cv = var.sqrt() / mean;
        assert!((0.9..=1.1).contains(&cv), "cv = {cv}");
    }

    #[test]
    fn diurnal_peaks_mid_period_and_matches_mean_rate() {
        let period = SimDuration::from_secs(600);
        let g = DiurnalLoadGen::new(20.0, 220.0, period, 8);
        let a = g.arrivals(period, 11);
        // Mean rate is (trough+peak)/2 = 120 qps over 600 s = 72,000.
        let n = a.len() as f64;
        assert!((68_000.0..=76_000.0).contains(&n), "n = {n}");
        // The middle third of the cycle (around the peak) must carry far
        // more traffic than the first sixth + last sixth (the trough).
        let sec = |r: &Arrival| r.at.as_secs_f64();
        let peak_third = a
            .iter()
            .filter(|r| (200.0..400.0).contains(&sec(r)))
            .count();
        let trough_third = a
            .iter()
            .filter(|r| sec(r) < 100.0 || sec(r) >= 500.0)
            .count();
        assert!(
            peak_third as f64 > 3.0 * trough_third as f64,
            "peak {peak_third} vs trough {trough_third}"
        );
        assert_eq!(a, g.arrivals(period, 11), "deterministic per seed");
    }

    #[test]
    fn diurnal_rate_profile_endpoints() {
        let g = DiurnalLoadGen::new(10.0, 100.0, SimDuration::from_hours(24), 4);
        assert!((g.rate_at(0.0) - 10.0).abs() < 1e-9);
        assert!((g.rate_at(12.0 * 3600.0) - 100.0).abs() < 1e-9);
        assert!((g.rate_at(24.0 * 3600.0) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn azure_durations_match_cited_marginals() {
        let m = AzureDurationModel::default();
        let mut rng = SimRng::seed_from_u64(2);
        let mut d: Vec<f64> = (0..30_000)
            .map(|_| m.sample(&mut rng).as_secs_f64())
            .collect();
        d.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let med = d[d.len() / 2];
        assert!((2.2..=3.8).contains(&med), "median = {med} s");
        let p90 = d[d.len() * 9 / 10];
        assert!((40.0..=80.0).contains(&p90), "p90 = {p90} s");
    }
}
