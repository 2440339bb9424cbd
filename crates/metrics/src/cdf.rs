//! Empirical cumulative distribution functions.

/// An empirical distribution over `f64` observations.
///
/// Quantiles use the nearest-rank method on the sorted sample, which is
/// what the paper's percentile tables (25-50-75p columns) imply for
/// integer-valued observables like "number of ready workers".
#[derive(Debug, Clone, Default)]
pub struct Cdf {
    sorted: Vec<f64>,
    dirty: bool,
}

impl Cdf {
    /// An empty distribution.
    pub fn new() -> Self {
        Cdf::default()
    }

    /// Build from raw observations.
    pub fn from_values(values: impl IntoIterator<Item = f64>) -> Self {
        let mut c = Cdf::new();
        for v in values {
            c.add(v);
        }
        c
    }

    /// Record one observation. NaNs are rejected with a panic: they would
    /// poison every downstream quantile silently.
    pub fn add(&mut self, v: f64) {
        assert!(!v.is_nan(), "Cdf: NaN observation");
        self.sorted.push(v);
        self.dirty = true;
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True iff no observations were recorded.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if self.dirty {
            self.sorted
                .sort_unstable_by(|a, b| a.partial_cmp(b).expect("NaN rejected at add()"));
            self.dirty = false;
        }
    }

    /// Nearest-rank quantile; `p` in `[0, 1]`. `NaN` on an empty
    /// distribution: an empty sample has no quantiles, and `NaN`
    /// propagates visibly through downstream summaries instead of
    /// aborting a report half-written (observations themselves can
    /// never be `NaN` — [`Cdf::add`] rejects them — so a `NaN` result
    /// unambiguously means "no data").
    pub fn quantile(&mut self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "p out of range: {p}");
        if self.sorted.is_empty() {
            return f64::NAN;
        }
        self.ensure_sorted();
        let n = self.sorted.len();
        let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
        self.sorted[rank - 1]
    }

    /// Median (`quantile(0.5)`).
    pub fn median(&mut self) -> f64 {
        self.quantile(0.5)
    }

    /// Arithmetic mean. Panics on an empty distribution.
    pub fn mean(&self) -> f64 {
        assert!(!self.sorted.is_empty(), "mean of empty Cdf");
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }

    /// Smallest observation.
    pub fn min(&mut self) -> f64 {
        self.ensure_sorted();
        self.sorted[0]
    }

    /// Largest observation.
    pub fn max(&mut self) -> f64 {
        self.ensure_sorted();
        *self.sorted.last().expect("max of empty Cdf")
    }

    /// Fraction of observations `<= x` (the CDF evaluated at `x`).
    pub fn fraction_leq(&mut self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let idx = self.sorted.partition_point(|v| *v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// Fraction of observations strictly greater than `x`.
    pub fn fraction_gt(&mut self, x: f64) -> f64 {
        1.0 - self.fraction_leq(x)
    }

    /// Evenly spaced `(x, F(x))` points for plotting/export, at the
    /// sample's own support (one point per observation, deduplicated).
    pub fn curve(&mut self) -> Vec<(f64, f64)> {
        self.ensure_sorted();
        let n = self.sorted.len();
        let mut pts: Vec<(f64, f64)> = Vec::new();
        for (i, v) in self.sorted.iter().enumerate() {
            let f = (i + 1) as f64 / n as f64;
            match pts.last_mut() {
                Some(last) if last.0 == *v => last.1 = f,
                _ => pts.push((*v, f)),
            }
        }
        pts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn quantiles_on_known_sample() {
        let mut c = Cdf::from_values([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]);
        assert_eq!(c.quantile(0.0), 1.0);
        assert_eq!(c.quantile(0.25), 3.0);
        assert_eq!(c.median(), 5.0);
        assert_eq!(c.quantile(0.75), 8.0);
        assert_eq!(c.quantile(1.0), 10.0);
        assert!((c.mean() - 5.5).abs() < 1e-12);
    }

    #[test]
    fn fraction_leq_matches_paper_reading() {
        // Fig 1a reading: "20% of time there were at most 2 idle nodes".
        let mut c = Cdf::from_values([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]);
        assert!((c.fraction_leq(2.0) - 0.3).abs() < 1e-12);
        assert!((c.fraction_gt(8.9) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn curve_is_monotone_and_deduplicated() {
        let mut c = Cdf::from_values([1.0, 1.0, 2.0, 2.0, 2.0, 5.0]);
        let pts = c.curve();
        assert_eq!(pts.len(), 3);
        assert_eq!(pts[0], (1.0, 2.0 / 6.0));
        assert_eq!(pts[1], (2.0, 5.0 / 6.0));
        assert_eq!(pts[2], (5.0, 1.0));
    }

    #[test]
    fn interleaved_add_and_query() {
        let mut c = Cdf::new();
        c.add(5.0);
        assert_eq!(c.median(), 5.0);
        c.add(1.0);
        c.add(9.0);
        assert_eq!(c.median(), 5.0);
        assert_eq!(c.min(), 1.0);
        assert_eq!(c.max(), 9.0);
    }

    #[test]
    #[should_panic]
    fn nan_rejected() {
        Cdf::new().add(f64::NAN);
    }

    #[test]
    fn empty_quantile_is_nan() {
        assert!(Cdf::new().quantile(0.5).is_nan());
        assert!(Cdf::new().median().is_nan());
        // One observation flips it back to a real number.
        let mut c = Cdf::new();
        c.add(3.0);
        assert_eq!(c.quantile(0.99), 3.0);
    }

    #[test]
    #[should_panic]
    fn out_of_range_p_still_panics_on_empty() {
        Cdf::new().quantile(1.5);
    }

    proptest! {
        #[test]
        fn prop_quantile_monotone(mut values in proptest::collection::vec(-1e6f64..1e6, 1..300),
                                  p1 in 0.0f64..1.0, p2 in 0.0f64..1.0) {
            let mut c = Cdf::from_values(values.drain(..));
            let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
            prop_assert!(c.quantile(lo) <= c.quantile(hi));
        }

        #[test]
        fn prop_quantile_within_range(values in proptest::collection::vec(-1e6f64..1e6, 1..300),
                                      p in 0.0f64..1.0) {
            let mut c = Cdf::from_values(values.iter().copied());
            let q = c.quantile(p);
            prop_assert!(q >= c.min() && q <= c.max());
        }

        #[test]
        fn prop_fraction_leq_monotone(values in proptest::collection::vec(-100f64..100.0, 1..200),
                                      x1 in -100f64..100.0, x2 in -100f64..100.0) {
            let mut c = Cdf::from_values(values.iter().copied());
            let (lo, hi) = if x1 <= x2 { (x1, x2) } else { (x2, x1) };
            prop_assert!(c.fraction_leq(lo) <= c.fraction_leq(hi));
        }
    }
}
