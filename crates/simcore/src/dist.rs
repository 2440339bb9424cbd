//! Probability distributions for workload modelling.
//!
//! Implemented from first principles (inverse transform and Box–Muller)
//! so the workspace does not need `rand_distr`. Everything samples
//! non-negative `f64` values interpreted by callers as seconds/minutes.
//!
//! Calibration helpers construct distributions from published quantiles —
//! e.g. the paper reports *median 2 min, 75th percentile 4 min* for idle
//! period lengths, which [`LogNormal::from_median_and_quantile`] turns
//! into `(mu, sigma)` directly.

use crate::rng::SimRng;

/// Inverse standard-normal CDF (Acklam's rational approximation,
/// |relative error| < 1.15e-9). Used for quantile-based calibration.
pub fn inv_norm_cdf(p: f64) -> f64 {
    assert!(
        p > 0.0 && p < 1.0,
        "inv_norm_cdf domain: 0 < p < 1, got {p}"
    );
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    const P_HIGH: f64 = 1.0 - P_LOW;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= P_HIGH {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

/// Anything that can produce a non-negative sample.
pub trait Sample {
    /// Draw one value.
    fn sample(&self, rng: &mut SimRng) -> f64;
}

/// Log-normal: `exp(mu + sigma * Z)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    /// Location of the underlying normal.
    pub mu: f64,
    /// Scale of the underlying normal (> 0).
    pub sigma: f64,
}

impl LogNormal {
    /// Construct from `(mu, sigma)` of the underlying normal.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(sigma > 0.0, "LogNormal: sigma must be > 0");
        LogNormal { mu, sigma }
    }

    /// Calibrate from the median and one other quantile, the form in
    /// which the paper reports its workload statistics.
    ///
    /// For a log-normal, `median = exp(mu)` and
    /// `Q(p) = exp(mu + sigma * z_p)`.
    pub fn from_median_and_quantile(median: f64, p: f64, quantile: f64) -> Self {
        assert!(median > 0.0 && quantile > 0.0);
        let z = inv_norm_cdf(p);
        assert!(z.abs() > 1e-12, "quantile too close to the median");
        let mu = median.ln();
        let sigma = (quantile.ln() - mu) / z;
        assert!(sigma > 0.0, "inconsistent quantile pair");
        LogNormal { mu, sigma }
    }

    /// Theoretical mean `exp(mu + sigma^2 / 2)`.
    pub fn mean(&self) -> f64 {
        (self.mu + self.sigma * self.sigma / 2.0).exp()
    }

    /// Theoretical quantile function.
    pub fn quantile(&self, p: f64) -> f64 {
        (self.mu + self.sigma * inv_norm_cdf(p)).exp()
    }
}

impl Sample for LogNormal {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        // Box–Muller; one of the pair is discarded to keep the sampler
        // stateless.
        let u1 = rng.f64_open();
        let u2 = rng.f64();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        (self.mu + self.sigma * z).exp()
    }
}

/// Pareto (Type I) with minimum `x_min` and tail index `alpha`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pareto {
    /// Scale / minimum value (> 0).
    pub x_min: f64,
    /// Tail index (> 0); smaller = heavier tail.
    pub alpha: f64,
}

impl Pareto {
    /// Construct from scale and tail index.
    pub fn new(x_min: f64, alpha: f64) -> Self {
        assert!(x_min > 0.0 && alpha > 0.0);
        Pareto { x_min, alpha }
    }
}

impl Sample for Pareto {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        self.x_min / rng.f64_open().powf(1.0 / self.alpha)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draw_sorted<D: Sample>(d: &D, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut v: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v
    }

    fn quantile(sorted: &[f64], p: f64) -> f64 {
        sorted[((sorted.len() as f64 - 1.0) * p) as usize]
    }

    #[test]
    fn inv_norm_cdf_known_values() {
        assert!((inv_norm_cdf(0.5)).abs() < 1e-9);
        assert!((inv_norm_cdf(0.975) - 1.959964).abs() < 1e-4);
        assert!((inv_norm_cdf(0.025) + 1.959964).abs() < 1e-4);
        assert!((inv_norm_cdf(0.841344746) - 1.0).abs() < 1e-6);
        // Tail regions (the rational approximation switches branches).
        assert!((inv_norm_cdf(0.001) + 3.090232).abs() < 1e-4);
        assert!((inv_norm_cdf(0.999) - 3.090232).abs() < 1e-4);
    }

    #[test]
    fn lognormal_quantile_calibration() {
        // The paper's idle-period marginals: median 2 (min), p75 = 4.
        let d = LogNormal::from_median_and_quantile(2.0, 0.75, 4.0);
        assert!((d.quantile(0.5) - 2.0).abs() < 1e-9);
        assert!((d.quantile(0.75) - 4.0).abs() < 1e-6);
        let s = draw_sorted(&d, 80_000, 2);
        assert!(
            (quantile(&s, 0.5) - 2.0).abs() < 0.1,
            "med={}",
            quantile(&s, 0.5)
        );
        assert!((quantile(&s, 0.75) - 4.0).abs() < 0.2);
        let mean = s.iter().sum::<f64>() / s.len() as f64;
        assert!((mean - d.mean()).abs() < 0.2 * d.mean());
    }

    #[test]
    fn pareto_min_and_tail() {
        let d = Pareto::new(2.0, 1.5);
        let s = draw_sorted(&d, 50_000, 4);
        assert!(s[0] >= 2.0);
        // Median = x_min * 2^{1/alpha}.
        let expect = 2.0 * 2f64.powf(1.0 / 1.5);
        assert!((quantile(&s, 0.5) - expect).abs() < 0.1 * expect);
        // The tail should be heavy: p99 well above the median.
        assert!(quantile(&s, 0.99) > 4.0 * expect);
    }
}
