//! Piecewise-constant time series with time-weighted statistics.

use simcore::{SimDuration, SimTime};

/// A right-continuous step function of time.
///
/// Record changes with [`StepSeries::set`]; every statistic is weighted
/// by how *long* a value was held, not how often it was sampled. This is
/// the correct interpretation for observables like "number of idle
/// nodes" or "number of healthy invokers": a worker that is ready for 30
/// minutes counts 30× more than one ready for a minute.
#[derive(Debug, Clone)]
pub struct StepSeries {
    /// `(change_time, new_value)`, strictly increasing in time.
    points: Vec<(SimTime, f64)>,
    start: SimTime,
}

impl StepSeries {
    /// A series starting at `start` with value `initial`.
    pub fn new(start: SimTime, initial: f64) -> Self {
        StepSeries {
            points: vec![(start, initial)],
            start,
        }
    }

    /// Record that the value changes to `v` at time `t`. Updates must
    /// arrive in non-decreasing time order; a same-time update overwrites
    /// the previous one.
    pub fn set(&mut self, t: SimTime, v: f64) {
        let (last_t, last_v) = *self.points.last().expect("non-empty by construction");
        assert!(t >= last_t, "StepSeries updates must be time-ordered");
        if last_v == v {
            return;
        }
        if t == last_t {
            self.points.last_mut().unwrap().1 = v;
            // Collapse if the overwrite makes us equal to the prior step.
            if self.points.len() >= 2 && self.points[self.points.len() - 2].1 == v {
                self.points.pop();
            }
        } else {
            self.points.push((t, v));
        }
    }

    /// Add `delta` to the current value at time `t` (convenience for
    /// counters like "idle nodes").
    pub fn add(&mut self, t: SimTime, delta: f64) {
        let v = self.value_at_end() + delta;
        self.set(t, v);
    }

    /// The value after the last recorded change.
    pub fn value_at_end(&self) -> f64 {
        self.points.last().unwrap().1
    }

    /// The value held at instant `t` (`t >= start`).
    pub fn value_at(&self, t: SimTime) -> f64 {
        let idx = self.points.partition_point(|(pt, _)| *pt <= t);
        assert!(idx > 0, "query before series start");
        self.points[idx - 1].1
    }

    /// Series start time.
    pub fn start(&self) -> SimTime {
        self.start
    }

    /// Integral of the step function over `[from, to)`, in value ×
    /// seconds.
    pub fn integral_secs(&self, from: SimTime, to: SimTime) -> f64 {
        assert!(from >= self.start && to >= from, "bad integration window");
        let mut total = 0.0;
        for w in self.iter_segments(from, to) {
            total += w.value * w.len.as_secs_f64();
        }
        total
    }

    /// Time-weighted mean over `[from, to)`.
    pub fn time_avg(&self, from: SimTime, to: SimTime) -> f64 {
        let span = (to - from).as_secs_f64();
        assert!(span > 0.0, "empty averaging window");
        self.integral_secs(from, to) / span
    }

    /// Time-weighted quantiles over `[from, to)`, one per entry of `ps`:
    /// for each `p`, the smallest value `v` such that the series is
    /// `<= v` for at least fraction `p` of the window. One pass: the
    /// segment list is collected and sorted once. `ps` must be sorted
    /// ascending.
    pub fn time_quantiles(&self, from: SimTime, to: SimTime, ps: &[f64]) -> Vec<f64> {
        assert!(ps.windows(2).all(|w| w[0] <= w[1]), "ps must be ascending");
        assert!(ps.iter().all(|p| (0.0..=1.0).contains(p)));
        let mut segs: Vec<(f64, f64)> = self
            .iter_segments(from, to)
            .map(|s| (s.value, s.len.as_secs_f64()))
            .collect();
        assert!(!segs.is_empty(), "empty quantile window");
        segs.sort_unstable_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let total: f64 = segs.iter().map(|(_, w)| *w).sum();
        let mut out = Vec::with_capacity(ps.len());
        let mut acc = 0.0;
        let mut iter = segs.iter();
        let mut cur: Option<&(f64, f64)> = None;
        for p in ps {
            let target = p * total;
            loop {
                if acc >= target {
                    if let Some((v, _)) = cur {
                        out.push(*v);
                        break;
                    }
                }
                match iter.next() {
                    Some(seg) => {
                        acc += seg.1;
                        cur = Some(seg);
                        if acc >= target {
                            out.push(seg.0);
                            break;
                        }
                    }
                    None => {
                        out.push(segs.last().unwrap().0);
                        break;
                    }
                }
            }
        }
        out
    }

    /// Total time within `[from, to)` during which `pred(value)` holds.
    pub fn time_where(
        &self,
        from: SimTime,
        to: SimTime,
        pred: impl Fn(f64) -> bool,
    ) -> SimDuration {
        let mut total = SimDuration::ZERO;
        for s in self.iter_segments(from, to) {
            if pred(s.value) {
                total += s.len;
            }
        }
        total
    }

    /// Fraction of `[from, to)` during which `pred(value)` holds.
    pub fn fraction_where(&self, from: SimTime, to: SimTime, pred: impl Fn(f64) -> bool) -> f64 {
        let span = (to - from).as_secs_f64();
        assert!(span > 0.0);
        self.time_where(from, to, pred).as_secs_f64() / span
    }

    /// The longest contiguous period within `[from, to)` where
    /// `pred(value)` holds.
    pub fn longest_run(
        &self,
        from: SimTime,
        to: SimTime,
        pred: impl Fn(f64) -> bool,
    ) -> SimDuration {
        let mut best = SimDuration::ZERO;
        let mut run = SimDuration::ZERO;
        for s in self.iter_segments(from, to) {
            if pred(s.value) {
                run += s.len;
                best = best.max(run);
            } else {
                run = SimDuration::ZERO;
            }
        }
        best
    }

    /// Sample the series at a fixed cadence (for plotting / export).
    pub fn sample_every(
        &self,
        from: SimTime,
        to: SimTime,
        every: SimDuration,
    ) -> Vec<(SimTime, f64)> {
        assert!(!every.is_zero());
        let mut out = Vec::new();
        let mut t = from;
        while t < to {
            out.push((t, self.value_at(t)));
            t += every;
        }
        out
    }

    /// Raw change points (for tests and exporters).
    pub fn change_points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    fn iter_segments(&self, from: SimTime, to: SimTime) -> impl Iterator<Item = Segment> + '_ {
        let start_idx = self.points.partition_point(|(t, _)| *t <= from).max(1) - 1;
        let points = &self.points[start_idx..];
        points.iter().enumerate().filter_map(move |(i, (t, v))| {
            let seg_start = (*t).max(from);
            let seg_end = points.get(i + 1).map(|(nt, _)| (*nt).min(to)).unwrap_or(to);
            if seg_end <= seg_start {
                None
            } else {
                Some(Segment {
                    value: *v,
                    len: seg_end - seg_start,
                })
            }
        })
    }
}

struct Segment {
    value: f64,
    len: SimDuration,
}

/// Fixed one-minute bins for event counts, as used by the per-minute
/// success/failure plots (Figs. 5b and 6b).
#[derive(Debug, Clone)]
pub struct MinuteBins {
    start: SimTime,
    bins: Vec<u64>,
}

impl MinuteBins {
    /// Bins covering `[start, start + minutes)`.
    pub fn new(start: SimTime, minutes: usize) -> Self {
        MinuteBins {
            start,
            bins: vec![0; minutes],
        }
    }

    /// Record one event at time `t`; events outside the window are
    /// counted into the nearest edge bin.
    pub fn record(&mut self, t: SimTime) {
        if self.bins.is_empty() {
            return;
        }
        let idx = (t.since(self.start).as_millis() / 60_000) as usize;
        let idx = idx.min(self.bins.len() - 1);
        self.bins[idx] += 1;
    }

    /// Per-minute counts.
    pub fn counts(&self) -> &[u64] {
        &self.bins
    }

    /// Sum over all bins.
    pub fn total(&self) -> u64 {
        self.bins.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn integral_and_avg() {
        let mut s = StepSeries::new(t(0), 0.0);
        s.set(t(10), 5.0);
        s.set(t(20), 1.0);
        // [0,10): 0, [10,20): 5, [20,30): 1 → integral = 0 + 50 + 10.
        assert!((s.integral_secs(t(0), t(30)) - 60.0).abs() < 1e-9);
        assert!((s.time_avg(t(0), t(30)) - 2.0).abs() < 1e-9);
        // Partial windows.
        assert!((s.integral_secs(t(5), t(15)) - (5.0 * 0.0 + 5.0 * 5.0)).abs() < 1e-9);
    }

    #[test]
    fn value_at_lookup() {
        let mut s = StepSeries::new(t(0), 1.0);
        s.set(t(10), 2.0);
        assert_eq!(s.value_at(t(0)), 1.0);
        assert_eq!(s.value_at(t(9)), 1.0);
        assert_eq!(s.value_at(t(10)), 2.0);
        assert_eq!(s.value_at(t(100)), 2.0);
    }

    #[test]
    fn time_quantile_weights_by_duration() {
        let mut s = StepSeries::new(t(0), 0.0);
        s.set(t(90), 10.0); // 90 s at 0, 10 s at 10.
        assert_eq!(
            s.time_quantiles(t(0), t(100), &[0.5, 0.89, 0.95]),
            [0.0, 0.0, 10.0]
        );
    }

    #[test]
    fn fraction_where_and_longest_run() {
        let mut s = StepSeries::new(t(0), 0.0);
        s.set(t(10), 3.0);
        s.set(t(30), 0.0);
        s.set(t(40), 4.0);
        s.set(t(45), 0.0);
        // Nonzero during [10,30) and [40,45) of [0,60): 25/60.
        assert!((s.fraction_where(t(0), t(60), |v| v > 0.0) - 25.0 / 60.0).abs() < 1e-9);
        assert_eq!(
            s.longest_run(t(0), t(60), |v| v > 0.0),
            SimDuration::from_secs(20)
        );
        assert_eq!(
            s.longest_run(t(0), t(60), |v| v == 0.0),
            SimDuration::from_secs(15)
        );
    }

    #[test]
    fn add_accumulates() {
        let mut s = StepSeries::new(t(0), 0.0);
        s.add(t(1), 2.0);
        s.add(t(2), 3.0);
        s.add(t(3), -1.0);
        assert_eq!(s.value_at_end(), 4.0);
    }

    #[test]
    fn same_time_overwrite_collapses() {
        let mut s = StepSeries::new(t(0), 1.0);
        s.set(t(5), 2.0);
        s.set(t(5), 1.0); // back to 1 — the step should vanish
        assert_eq!(s.change_points().len(), 1);
        assert_eq!(s.value_at(t(7)), 1.0);
    }

    #[test]
    fn no_op_set_is_ignored() {
        let mut s = StepSeries::new(t(0), 1.0);
        s.set(t(5), 1.0);
        assert_eq!(s.change_points().len(), 1);
    }

    #[test]
    fn sample_every_grid() {
        let mut s = StepSeries::new(t(0), 0.0);
        s.set(t(15), 7.0);
        let pts = s.sample_every(t(0), t(40), SimDuration::from_secs(10));
        assert_eq!(
            pts,
            vec![(t(0), 0.0), (t(10), 0.0), (t(20), 7.0), (t(30), 7.0)]
        );
    }

    #[test]
    fn minute_bins() {
        let mut b = MinuteBins::new(t(0), 3);
        b.record(SimTime::from_secs(10));
        b.record(SimTime::from_secs(59));
        b.record(SimTime::from_secs(60));
        b.record(SimTime::from_secs(500)); // clamps into last bin
        assert_eq!(b.counts(), &[2, 1, 1]);
        assert_eq!(b.total(), 4);
    }

    proptest! {
        /// Integral is additive over adjacent windows.
        #[test]
        fn prop_integral_additive(changes in proptest::collection::vec((1u64..1_000, 0f64..50.0), 1..40),
                                  split in 1u64..999) {
            let mut s = StepSeries::new(t(0), 0.0);
            let mut sorted = changes.clone();
            sorted.sort_by_key(|(ts, _)| *ts);
            for (ts, v) in sorted {
                s.set(SimTime::from_secs(ts), v);
            }
            let a = s.integral_secs(t(0), t(split));
            let b = s.integral_secs(t(split), t(1_000));
            let whole = s.integral_secs(t(0), t(1_000));
            prop_assert!((a + b - whole).abs() < 1e-6);
        }

        /// The time-weighted average lies between min and max of values.
        #[test]
        fn prop_avg_bounded(changes in proptest::collection::vec((1u64..500, -10f64..10.0), 1..30)) {
            let mut s = StepSeries::new(t(0), 0.0);
            let mut sorted = changes.clone();
            sorted.sort_by_key(|(ts, _)| *ts);
            let mut lo = 0f64;
            let mut hi = 0f64;
            for (ts, v) in sorted {
                s.set(SimTime::from_secs(ts), v);
                lo = lo.min(v);
                hi = hi.max(v);
            }
            let avg = s.time_avg(t(0), t(500));
            prop_assert!(avg >= lo - 1e-9 && avg <= hi + 1e-9);
        }

        /// Time-weighted quantiles are monotone in p.
        #[test]
        fn prop_time_quantile_monotone(changes in proptest::collection::vec((1u64..500, 0f64..20.0), 1..30),
                                       p1 in 0.0f64..1.0, p2 in 0.0f64..1.0) {
            let mut s = StepSeries::new(t(0), 0.0);
            let mut sorted = changes.clone();
            sorted.sort_by_key(|(ts, _)| *ts);
            for (ts, v) in sorted {
                s.set(SimTime::from_secs(ts), v);
            }
            let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
            let q = s.time_quantiles(t(0), t(500), &[lo, hi]);
            prop_assert!(q[0] <= q[1]);
        }

        /// The one-pass quantiles equal a brute force that, for each `p`
        /// alone, sorts the series' `(value, seconds)` segments by value
        /// and accumulates their durations until `p` of the window is
        /// covered. Whole-second segments keep every sum exact.
        #[test]
        fn prop_time_quantiles_match_sort_and_accumulate(
            segs in proptest::collection::vec((1u64..50, 0u8..20), 1..30),
            percents in proptest::collection::vec(0u32..101, 1..8),
        ) {
            let mut s = StepSeries::new(t(0), segs[0].1 as f64);
            let mut at = 0;
            for &(secs, v) in &segs {
                s.set(t(at), v as f64);
                at += secs;
            }
            let mut sorted: Vec<(f64, f64)> =
                segs.iter().map(|&(secs, v)| (v as f64, secs as f64)).collect();
            sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
            let total: f64 = sorted.iter().map(|(_, w)| w).sum();
            let brute = |p: f64| {
                let mut acc = 0.0;
                for &(v, w) in &sorted {
                    acc += w;
                    if acc >= p * total {
                        return v;
                    }
                }
                sorted.last().unwrap().0
            };
            let mut ps: Vec<f64> = percents.iter().map(|&k| k as f64 / 100.0).collect();
            ps.sort_by(f64::total_cmp);
            let want: Vec<f64> = ps.iter().map(|&p| brute(p)).collect();
            prop_assert_eq!(s.time_quantiles(t(0), t(at), &ps), want);
        }
    }
}
