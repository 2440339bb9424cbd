//! Coverage accounting: the three perspectives of §IV-A.
//!
//! * **Slurm-level** — from 10-second poll samples: how much of the
//!   baseline availability (idle ∪ pilot nodes) was actually covered by
//!   pilot jobs, and the worker-count distribution;
//! * **Simulation** — the clairvoyant upper bound ([`crate::offline`])
//!   run on the availability trace the poller built as it took those
//!   samples;
//! * **OpenWhisk-level** — from the controller's worker-state series:
//!   warming / healthy / irresponsive counts, no-invoker periods, and
//!   per-invoker ready lifetimes.

use cluster::PollSample;
use metrics::{Cdf, StepSeries};
use simcore::{SimDuration, SimTime};

/// The Slurm-level rows of Tables II/III.
#[derive(Debug, Clone)]
pub struct SlurmLevel {
    /// Average number of available (idle ∪ pilot) nodes per sample.
    pub avg_available: f64,
    /// Median available nodes.
    pub median_available: f64,
    /// Share of available node-time covered by pilots ("used").
    pub used_share: f64,
    /// Complement of `used_share`.
    pub unused_share: f64,
    /// Pilot-count quantiles over samples (25/50/75th).
    pub pilot_p25: f64,
    /// Median pilot count.
    pub pilot_p50: f64,
    /// 75th percentile pilot count.
    pub pilot_p75: f64,
    /// Mean pilot count.
    pub pilot_avg: f64,
    /// Fraction of samples with zero available nodes.
    pub zero_available_frac: f64,
    /// Number of samples.
    pub n_samples: usize,
}

/// Compute the Slurm-level perspective from poll samples, treating the
/// samples as equally spaced (the paper's assumption, §IV-A).
pub fn slurm_level(samples: &[PollSample]) -> SlurmLevel {
    assert!(samples.len() >= 2, "need samples");
    let mut avail = Cdf::new();
    let mut pilots = Cdf::new();
    let mut used_sum = 0u64;
    let mut avail_sum = 0u64;
    let mut zero = 0usize;
    for s in samples {
        let a = s.n_idle() + s.n_pilot();
        let p = s.n_pilot();
        avail.add(a as f64);
        pilots.add(p as f64);
        used_sum += p as u64;
        avail_sum += a as u64;
        if a == 0 {
            zero += 1;
        }
    }
    let used_share = if avail_sum > 0 {
        used_sum as f64 / avail_sum as f64
    } else {
        0.0
    };
    SlurmLevel {
        avg_available: avail.mean(),
        median_available: avail.median(),
        used_share,
        unused_share: 1.0 - used_share,
        pilot_p25: pilots.quantile(0.25),
        pilot_p50: pilots.quantile(0.5),
        pilot_p75: pilots.quantile(0.75),
        pilot_avg: pilots.mean(),
        zero_available_frac: zero as f64 / samples.len() as f64,
        n_samples: samples.len(),
    }
}

/// The OpenWhisk-level rows of Tables II/III.
#[derive(Debug, Clone)]
pub struct OwLevel {
    /// Warming workers: (p25, p50, p75, avg).
    pub warmup: (f64, f64, f64, f64),
    /// Healthy workers: (p25, p50, p75, avg).
    pub healthy: (f64, f64, f64, f64),
    /// Irresponsive workers: (p25, p50, p75, avg).
    pub irresp: (f64, f64, f64, f64),
    /// Total time with zero healthy invokers.
    pub no_invoker_total: SimDuration,
    /// Longest contiguous zero-invoker period.
    pub no_invoker_longest: SimDuration,
    /// Per-invoker ready lifetime (minutes): (p50, p75, avg); None if no
    /// invoker ever served.
    pub lifetime_mins: Option<(f64, f64, f64)>,
}

/// Compute the OpenWhisk-level perspective over `[from, to)`.
pub fn ow_level(
    healthy: &StepSeries,
    irresp: &StepSeries,
    warming: &StepSeries,
    lifetimes_mins: &mut Cdf,
    from: SimTime,
    to: SimTime,
) -> OwLevel {
    let q = |s: &StepSeries| {
        let qs = s.time_quantiles(from, to, &[0.25, 0.5, 0.75]);
        (qs[0], qs[1], qs[2], s.time_avg(from, to))
    };
    OwLevel {
        warmup: q(warming),
        healthy: q(healthy),
        irresp: q(irresp),
        no_invoker_total: healthy.time_where(from, to, |v| v == 0.0),
        no_invoker_longest: healthy.longest_run(from, to, |v| v == 0.0),
        lifetime_mins: (!lifetimes_mins.is_empty()).then(|| {
            (
                lifetimes_mins.quantile(0.5),
                lifetimes_mins.quantile(0.75),
                lifetimes_mins.mean(),
            )
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(ts: u64, idle_nodes: &[usize], pilot_nodes: &[usize]) -> PollSample {
        PollSample {
            t: SimTime::from_secs(ts),
            idle: idle_nodes.len() as u32,
            pilot: pilot_nodes.len() as u32,
        }
    }

    #[test]
    fn slurm_level_shares() {
        // Sample 1: 2 idle + 2 pilots; sample 2: 0 idle + 3 pilots;
        // sample 3: nothing available.
        let samples = vec![
            sample(0, &[0, 1], &[2, 3]),
            sample(10, &[], &[2, 3, 4]),
            sample(20, &[], &[]),
        ];
        let r = slurm_level(&samples);
        assert_eq!(r.n_samples, 3);
        assert!((r.avg_available - (4.0 + 3.0 + 0.0) / 3.0).abs() < 1e-9);
        assert!((r.used_share - 5.0 / 7.0).abs() < 1e-9);
        assert!((r.zero_available_frac - 1.0 / 3.0).abs() < 1e-9);
        assert_eq!(r.pilot_p50, 2.0);
    }

    #[test]
    fn ow_level_quantiles_and_outages() {
        let t0 = SimTime::ZERO;
        let end = SimTime::from_secs(100);
        let mut healthy = StepSeries::new(t0, 0.0);
        healthy.set(SimTime::from_secs(10), 4.0);
        healthy.set(SimTime::from_secs(60), 0.0);
        healthy.set(SimTime::from_secs(80), 2.0);
        let irresp = StepSeries::new(t0, 0.0);
        let warming = StepSeries::new(t0, 0.0);
        let mut lifetimes = Cdf::from_values([5.0, 10.0, 30.0]);
        let r = ow_level(&healthy, &irresp, &warming, &mut lifetimes, t0, end);
        // Zero healthy during [0,10) and [60,80): 30 s total, 20 s max.
        assert_eq!(r.no_invoker_total, SimDuration::from_secs(30));
        assert_eq!(r.no_invoker_longest, SimDuration::from_secs(20));
        // Time at each value: 0 → 30 s, 2 → 20 s, 4 → 50 s. The
        // time-weighted median sits exactly at the 2-boundary
        // (cumulative 50 s of 100 s at value 2); p75 reaches 4.
        let (_, p50, p75, avg) = r.healthy;
        assert_eq!(p50, 2.0);
        assert_eq!(p75, 4.0);
        assert!((avg - (4.0 * 50.0 + 2.0 * 20.0) / 100.0).abs() < 1e-9);
        let (l50, l75, lavg) = r.lifetime_mins.unwrap();
        assert_eq!(l50, 10.0);
        assert_eq!(l75, 30.0);
        assert!((lavg - 15.0).abs() < 1e-9);
    }

    #[test]
    fn ow_level_without_lifetimes() {
        let t0 = SimTime::ZERO;
        let s = StepSeries::new(t0, 0.0);
        let mut empty = Cdf::new();
        let r = ow_level(&s, &s, &s, &mut empty, t0, SimTime::from_secs(10));
        assert!(r.lifetime_mins.is_none());
        assert_eq!(r.no_invoker_total, SimDuration::from_secs(10));
    }
}
