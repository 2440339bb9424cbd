//! Node-availability traces.
//!
//! An [`AvailabilityTrace`] is the canonical "when was each node
//! available" structure shared by three producers/consumers:
//!
//! * the workload generator emits synthetic traces calibrated to the
//!   paper's Fig. 1 statistics;
//! * the poller builds a measured trace as it samples
//!   ([`crate::ClusterSim::into_parts`] hands it over): a node's interval
//!   opens and closes on the sample that sees it change, exactly as the
//!   paper reconstructs its Slurm-level perspective from 10-second logs
//!   under the equal-spacing assumption (§IV-A, §V-B);
//! * the clairvoyant offline simulator (Table I and the "Simulation"
//!   rows of Tables II/III) fills a trace's intervals with pilot jobs.

use metrics::{Cdf, StepSeries};
use simcore::{SimDuration, SimTime};

/// Per-node availability intervals over a fixed horizon.
#[derive(Debug, Clone, PartialEq)]
pub struct AvailabilityTrace {
    /// Horizon start.
    pub start: SimTime,
    /// Horizon end.
    pub end: SimTime,
    /// For each node: sorted, non-overlapping `[from, to)` intervals of
    /// availability.
    pub per_node: Vec<Vec<(SimTime, SimTime)>>,
}

impl AvailabilityTrace {
    /// Build from explicit intervals, validating ordering and bounds.
    pub fn from_intervals(
        start: SimTime,
        end: SimTime,
        per_node: Vec<Vec<(SimTime, SimTime)>>,
    ) -> Self {
        assert!(end > start, "empty horizon");
        for (n, iv) in per_node.iter().enumerate() {
            let mut prev_end = start;
            for (a, b) in iv {
                assert!(a < b, "node {n}: empty/inverted interval");
                assert!(*a >= prev_end, "node {n}: overlapping/unsorted intervals");
                assert!(*b <= end, "node {n}: interval past horizon");
                prev_end = *b;
            }
        }
        AvailabilityTrace {
            start,
            end,
            per_node,
        }
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.per_node.len()
    }

    /// Horizon length.
    pub fn horizon(&self) -> SimDuration {
        self.end - self.start
    }

    /// Total available node-time.
    pub fn total_available(&self) -> SimDuration {
        let ms: u64 = self
            .per_node
            .iter()
            .flatten()
            .map(|(a, b)| (*b - *a).as_millis())
            .sum();
        SimDuration::from_millis(ms)
    }

    /// Number of availability intervals across all nodes.
    pub fn n_intervals(&self) -> usize {
        self.per_node.iter().map(|v| v.len()).sum()
    }

    /// Distribution of interval lengths in minutes (Fig. 1b).
    pub fn interval_length_mins(&self) -> Cdf {
        Cdf::from_values(
            self.per_node
                .iter()
                .flatten()
                .map(|(a, b)| (*b - *a).as_mins_f64()),
        )
    }

    /// Step series of the number of simultaneously available nodes
    /// (Fig. 1a/1c).
    pub fn count_series(&self) -> StepSeries {
        let mut events: Vec<(SimTime, f64)> = Vec::with_capacity(self.n_intervals() * 2);
        for iv in &self.per_node {
            for (a, b) in iv {
                events.push((*a, 1.0));
                events.push((*b, -1.0));
            }
        }
        events.sort_by_key(|(t, _)| *t);
        let mut s = StepSeries::new(self.start, 0.0);
        let mut count = 0.0;
        let mut i = 0;
        while i < events.len() {
            let t = events[i].0;
            while i < events.len() && events[i].0 == t {
                count += events[i].1;
                i += 1;
            }
            s.set(t, count);
        }
        s
    }
}

/// Builds the joined (idle ∪ pilot, §V-B) [`AvailabilityTrace`] while
/// the poller samples: a node is available from the sample that first
/// sees it available until the next sample that does not (the paper's
/// equal-spacing assumption). Each sample costs one XOR per 64 nodes
/// plus the bits that changed since the previous one.
#[derive(Debug, Clone)]
pub(crate) struct PollIntervals {
    /// `idle | pilot` at the previous sample.
    prev: Vec<u64>,
    /// The sample instant each node's open interval began; read only
    /// while the node's `prev` bit is set.
    open: Vec<SimTime>,
    per_node: Vec<Vec<(SimTime, SimTime)>>,
    /// Instants of the first and of the latest sample.
    span: Option<(SimTime, SimTime)>,
}

impl PollIntervals {
    pub(crate) fn new(n_nodes: usize) -> Self {
        PollIntervals {
            prev: vec![0; n_nodes.div_ceil(64)],
            open: vec![SimTime::ZERO; n_nodes],
            per_node: vec![Vec::new(); n_nodes],
            span: None,
        }
    }

    /// Record the sample taken at `t` (not before the previous one):
    /// bit `n` of `idle` / `pilot` set iff node `n` is idle / runs a
    /// pilot.
    pub(crate) fn sample(&mut self, t: SimTime, idle: &[u64], pilot: &[u64]) {
        self.span = Some((self.span.map_or(t, |(first, _)| first), t));
        let words = self.prev.iter_mut().zip(idle.iter().zip(pilot));
        for (w, (prev, (idle, pilot))) in words.enumerate() {
            let cur = idle | pilot;
            let mut diff = cur ^ *prev;
            *prev = cur;
            while diff != 0 {
                let bit = diff.trailing_zeros() as usize;
                diff &= diff - 1;
                let n = w * 64 + bit;
                if cur >> bit & 1 == 1 {
                    self.open[n] = t;
                } else if t > self.open[n] {
                    self.per_node[n].push((self.open[n], t));
                }
            }
        }
    }

    /// Close every interval still open at the latest sample — which
    /// therefore counts as unavailable, there being no later sample to
    /// space it against — and hand the trace over. Panics unless two
    /// samples at different instants were recorded.
    pub(crate) fn finish(mut self) -> AvailabilityTrace {
        let (start, end) = self.span.expect("no poll sample was taken");
        for (w, &prev) in self.prev.iter().enumerate() {
            let mut still = prev;
            while still != 0 {
                let n = w * 64 + still.trailing_zeros() as usize;
                still &= still - 1;
                if end > self.open[n] {
                    self.per_node[n].push((self.open[n], end));
                }
            }
        }
        AvailabilityTrace::from_intervals(start, end, self.per_node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use simcore::SimRng;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn from_intervals_validates() {
        let tr = AvailabilityTrace::from_intervals(
            t(0),
            t(100),
            vec![vec![(t(0), t(10)), (t(20), t(30))], vec![]],
        );
        assert_eq!(tr.n_nodes(), 2);
        assert_eq!(tr.n_intervals(), 2);
        assert_eq!(tr.total_available(), SimDuration::from_secs(20));
    }

    #[test]
    #[should_panic]
    fn overlap_rejected() {
        AvailabilityTrace::from_intervals(t(0), t(100), vec![vec![(t(0), t(10)), (t(5), t(30))]]);
    }

    #[test]
    #[should_panic]
    fn past_horizon_rejected() {
        AvailabilityTrace::from_intervals(t(0), t(100), vec![vec![(t(90), t(101))]]);
    }

    #[test]
    fn count_series_counts() {
        let tr = AvailabilityTrace::from_intervals(
            t(0),
            t(100),
            vec![vec![(t(0), t(50))], vec![(t(25), t(75))]],
        );
        let s = tr.count_series();
        assert_eq!(s.value_at(t(10)), 1.0);
        assert_eq!(s.value_at(t(30)), 2.0);
        assert_eq!(s.value_at(t(60)), 1.0);
        assert_eq!(s.value_at(t(80)), 0.0);
        assert!((s.time_avg(t(0), t(100)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn interval_length_distribution() {
        let tr = AvailabilityTrace::from_intervals(
            t(0),
            SimTime::from_mins(100),
            vec![vec![
                (SimTime::from_mins(0), SimTime::from_mins(2)),
                (SimTime::from_mins(10), SimTime::from_mins(14)),
            ]],
        );
        let cdf = tr.interval_length_mins();
        assert_eq!(cdf.len(), 2);
        assert!((cdf.mean() - 3.0).abs() < 1e-9);
    }

    /// A poll sample as the two bitsets the poller used to store — the
    /// input of the retained scan below.
    struct BitSample {
        t: SimTime,
        idle: Vec<u64>,
        pilot: Vec<u64>,
    }

    impl BitSample {
        fn is_available(&self, n: usize) -> bool {
            (self.idle[n / 64] | self.pilot[n / 64]) & (1 << (n % 64)) != 0
        }
    }

    /// The reconstruction [`PollIntervals`] replaced, retained as its
    /// oracle: probe every node in every stored sample; a node is
    /// available from an available sample until the next sample where
    /// it is not.
    fn from_poll_samples(samples: &[BitSample], n_nodes: usize) -> AvailabilityTrace {
        assert!(samples.len() >= 2, "need at least two samples");
        let start = samples[0].t;
        let end = samples[samples.len() - 1].t;
        let mut per_node: Vec<Vec<(SimTime, SimTime)>> = vec![Vec::new(); n_nodes];
        for (n, node_gaps) in per_node.iter_mut().enumerate() {
            let mut open: Option<SimTime> = None;
            for (i, s) in samples.iter().enumerate() {
                let is_last = i == samples.len() - 1;
                match (s.is_available(n) && !is_last, open) {
                    (true, None) => open = Some(s.t),
                    (false, Some(from)) => {
                        if s.t > from {
                            node_gaps.push((from, s.t));
                        }
                        open = None;
                    }
                    _ => {}
                }
            }
        }
        AvailabilityTrace::from_intervals(start, end, per_node)
    }

    fn built(samples: &[BitSample], n_nodes: usize) -> AvailabilityTrace {
        let mut b = PollIntervals::new(n_nodes);
        for s in samples {
            b.sample(s.t, &s.idle, &s.pilot);
        }
        b.finish()
    }

    fn sample(ts: u64, idle_nodes: &[usize], pilot_nodes: &[usize]) -> BitSample {
        let mut idle = vec![0u64; 1];
        let mut pilot = vec![0u64; 1];
        for n in idle_nodes {
            idle[0] |= 1 << n;
        }
        for n in pilot_nodes {
            pilot[0] |= 1 << n;
        }
        BitSample {
            t: t(ts),
            idle,
            pilot,
        }
    }

    #[test]
    fn poll_reconstruction_joins_idle_and_pilot() {
        // Node 0: idle at 0/10, pilot at 20, gone at 30.
        // Node 1: never available.
        let samples = vec![
            sample(0, &[0], &[]),
            sample(10, &[0], &[]),
            sample(20, &[], &[0]),
            sample(30, &[], &[]),
            sample(40, &[], &[]),
        ];
        let joined = built(&samples, 2);
        assert_eq!(joined.per_node[0], vec![(t(0), t(30))]);
        assert!(joined.per_node[1].is_empty());
        assert_eq!((joined.start, joined.end), (t(0), t(40)));
    }

    #[test]
    fn poll_reconstruction_open_interval_clipped_at_end() {
        let samples = vec![
            sample(0, &[], &[]),
            sample(10, &[0], &[]),
            sample(20, &[0], &[]),
        ];
        let tr = built(&samples, 1);
        // Available at the final sample: interval closes at the horizon.
        assert_eq!(tr.per_node[0], vec![(t(10), t(20))]);
    }

    #[test]
    fn poll_reconstruction_edges_match_the_scan() {
        // Per node, its availability at samples 0, 10, 20, 30 s and the
        // intervals that makes.
        type Pattern = ([bool; 4], &'static [(u64, u64)]);
        let patterns: [Pattern; 5] = [
            ([false, false, false, true], &[]), // only at the last sample
            ([true, false, false, true], &[(0, 10)]), // first and last
            ([true, true, true, true], &[(0, 30)]), // throughout
            ([true, false, true, false], &[(0, 10), (20, 30)]), // flips every sample
            ([false, false, false, false], &[]), // never
        ];
        let samples: Vec<BitSample> = (0..4)
            .map(|i| {
                let on: Vec<usize> = (0..5).filter(|n| patterns[*n].0[i]).collect();
                // Odd nodes show as pilots, even ones as idle.
                let (pilot, idle): (Vec<usize>, Vec<usize>) = on.iter().partition(|n| *n % 2 == 1);
                sample(10 * i as u64, &idle, &pilot)
            })
            .collect();
        let tr = built(&samples, 5);
        for (n, (_, want)) in patterns.iter().enumerate() {
            let want: Vec<_> = want.iter().map(|(a, b)| (t(*a), t(*b))).collect();
            assert_eq!(tr.per_node[n], want, "node {n}");
        }
        assert_eq!(tr, from_poll_samples(&samples, 5));
    }

    proptest! {
        /// The interval builder against the retained scan, field for
        /// field, over random sample sequences: node counts around the
        /// word boundary, flip probabilities from "never changes" to
        /// "flips every sample", and the poller's jittered gaps mixed
        /// with arbitrary (also zero-length) ones.
        #[test]
        fn prop_built_trace_equals_the_scan(
            n_nodes in prop_oneof![Just(1usize), Just(63), Just(64), Just(65), Just(130)],
            n_samples in 2usize..201,
            flip in prop_oneof![Just(0.0), Just(0.02), Just(0.3), Just(0.97), Just(1.0)],
            initially in prop_oneof![Just(0.0), Just(0.5), Just(1.0)],
            seed in any::<u64>(),
        ) {
            let mut rng = SimRng::seed_from_u64(seed);
            let words = n_nodes.div_ceil(64);
            let mut avail: Vec<bool> = (0..n_nodes).map(|_| rng.chance(initially)).collect();
            let mut now = SimTime::from_millis(rng.range_u64(0, 100_000));
            let mut samples = Vec::with_capacity(n_samples);
            for i in 0..n_samples {
                let (mut idle, mut pilot) = (vec![0u64; words], vec![0u64; words]);
                for (n, a) in avail.iter_mut().enumerate() {
                    if i > 0 && rng.chance(flip) {
                        *a = !*a;
                    }
                    if *a {
                        // An available node changes hands freely.
                        let set = if rng.chance(0.5) { &mut idle } else { &mut pilot };
                        set[n / 64] |= 1 << (n % 64);
                    }
                }
                samples.push(BitSample { t: now, idle, pilot });
                // The first gap is never empty, so neither is the horizon.
                let lo = if i == 0 { 1 } else { 0 };
                now += SimDuration::from_millis(match rng.range_u64(0, 4) {
                    0 => 10_000,
                    1 => rng.range_u64(11_000, 13_001),
                    2 => rng.range_u64(14_000, 20_001),
                    _ => rng.range_u64(lo, 3),
                });
            }
            let tr = built(&samples, n_nodes);
            let scan = from_poll_samples(&samples, n_nodes);
            prop_assert_eq!(tr.start, scan.start);
            prop_assert_eq!(tr.end, scan.end);
            prop_assert_eq!(&tr.per_node, &scan.per_node);
        }
    }
}
