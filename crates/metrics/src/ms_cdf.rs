//! Exact distributions over whole-millisecond spans, kept as counts.

use simcore::SimDuration;

/// An exact empirical distribution over [`SimDuration`] observations,
/// stored as one count per millisecond instead of one `f64` per
/// observation.
///
/// Simulated spans are whole milliseconds, so the counts lose nothing:
/// every query returns, bit for bit, what a [`crate::Cdf`] fed the same
/// spans as `as_secs_f64()` seconds returns (nearest-rank quantiles,
/// `NaN` when empty, the same `curve`). Memory is one `u32` per
/// millisecond up to the largest span seen — ≤ 61k bins (244 KB) for a
/// day's response times, which the 60 s controller deadline bounds —
/// however many requests the day answered.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MsCdf {
    /// `counts[ms]`: observations of exactly `ms` milliseconds.
    counts: Vec<u32>,
    total: u64,
}

/// Seconds of a bin, computed as [`SimDuration::as_secs_f64`] does.
fn secs(ms: usize) -> f64 {
    SimDuration::from_millis(ms as u64).as_secs_f64()
}

impl MsCdf {
    /// An empty distribution.
    pub fn new() -> Self {
        MsCdf::default()
    }

    /// Record one observation.
    pub fn add(&mut self, d: SimDuration) {
        let ms = d.as_millis() as usize;
        if ms >= self.counts.len() {
            self.counts.resize(ms + 1, 0);
        }
        let c = &mut self.counts[ms];
        *c = c.checked_add(1).expect("MsCdf: u32 count overflow");
        self.total += 1;
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.total as usize
    }

    /// True iff no observations were recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Nearest-rank quantile in seconds; `p` in `[0, 1]`. `NaN` on an
    /// empty distribution, as [`crate::Cdf::quantile`].
    pub fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "p out of range: {p}");
        if self.total == 0 {
            return f64::NAN;
        }
        let n = self.len();
        let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
        let mut seen = 0usize;
        for (ms, &c) in self.counts.iter().enumerate() {
            seen += c as usize;
            if seen >= rank {
                return secs(ms);
            }
        }
        unreachable!("counts sum to total")
    }

    /// Median (`quantile(0.5)`), in seconds.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// `(seconds, F(seconds))` at every observed value, ascending — the
    /// points of [`crate::Cdf::curve`].
    pub fn curve(&self) -> Vec<(f64, f64)> {
        let n = self.len() as f64;
        let mut seen = 0usize;
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(ms, &c)| {
                seen += c as usize;
                (secs(ms), seen as f64 / n)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Cdf;
    use proptest::prelude::*;

    fn both(ms: &[u64]) -> (Cdf, MsCdf) {
        let mut m = MsCdf::new();
        for &v in ms {
            m.add(SimDuration::from_millis(v));
        }
        let c = Cdf::from_values(
            ms.iter()
                .map(|&v| SimDuration::from_millis(v).as_secs_f64()),
        );
        (c, m)
    }

    #[test]
    fn empty_is_nan_like_cdf() {
        let (mut c, m) = both(&[]);
        assert!(m.is_empty() && c.is_empty());
        assert_eq!(m.len(), 0);
        assert!(m.median().is_nan() && c.median().is_nan());
        assert!(m.quantile(1.0).is_nan());
        assert!(m.curve().is_empty() && c.curve().is_empty());
    }

    #[test]
    fn known_sample() {
        let (_, m) = both(&[865, 0, 865, 1_200, 60_500]);
        assert_eq!(m.len(), 5);
        assert_eq!(m.quantile(0.0), 0.0);
        assert_eq!(m.median(), 0.865);
        assert_eq!(m.quantile(1.0), 60.5);
        assert_eq!(
            m.curve(),
            vec![(0.0, 0.2), (0.865, 0.6), (1.2, 0.8), (60.5, 1.0)]
        );
    }

    proptest! {
        /// The counts answer every query bit for bit as the sorted
        /// sample of `Cdf` does: duplicates and 0 ms come from the
        /// narrow base range, the optional outlier sits far above it.
        #[test]
        fn prop_matches_cdf_bit_for_bit(
            base in proptest::collection::vec(0u64..40, 0..200),
            step in 1u64..50,
            outlier in prop_oneof![Just(None), (50_000u64..120_000).prop_map(Some)],
            p in 0.0f64..1.0,
        ) {
            let mut ms: Vec<u64> = base.iter().map(|v| v * step).collect();
            ms.extend(outlier);
            let (mut c, m) = both(&ms);
            prop_assert_eq!(m.len(), c.len());
            prop_assert_eq!(m.is_empty(), c.is_empty());
            if ms.is_empty() {
                prop_assert!(m.median().is_nan() && c.median().is_nan());
            }
            prop_assert_eq!(m.median().to_bits(), c.median().to_bits());
            for q in [0.0, 0.25, 0.5, 0.99, 1.0, p] {
                prop_assert_eq!(m.quantile(q).to_bits(), c.quantile(q).to_bits(), "p = {}", q);
            }
            let bits = |pts: Vec<(f64, f64)>| -> Vec<(u64, u64)> {
                pts.into_iter().map(|(x, f)| (x.to_bits(), f.to_bits())).collect()
            };
            prop_assert_eq!(bits(m.curve()), bits(c.curve()));
        }
    }
}
