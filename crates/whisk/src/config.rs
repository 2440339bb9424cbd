//! FaaS platform configuration and the latency model.

use simcore::{SimDuration, SimRng};

/// Whether the HPC-Whisk dynamic-worker extensions are active.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DynamicsMode {
    /// The paper's system: SIGTERM-driven drain, fast-lane re-routing,
    /// recovery of a silently-dead invoker's queue once its death is
    /// noticed.
    HpcWhisk,
    /// Stock OpenWhisk behaviour: a departing worker's queued requests
    /// are never re-routed and simply time out (§II: "any unexpected
    /// event ... may result in no answers to some of the calls").
    Baseline,
}

/// Tunables of the simulated OpenWhisk deployment.
///
/// Latency constants are calibrated so a warm 10 ms sleep function has a
/// client-observed median response around the paper's 865 ms (§V-C);
/// every one gets ±15% multiplicative jitter at sampling time.
#[derive(Debug, Clone)]
pub struct WhiskConfig {
    /// HPC-Whisk extensions on/off.
    pub mode: DynamicsMode,
    /// Client ↔ controller round trip (Gatling ran off-cluster).
    pub client_rtt: SimDuration,
    /// Controller request handling overhead.
    pub ctrl_overhead: SimDuration,
    /// Kafka produce → visible-to-consumer delay.
    pub kafka_delay: SimDuration,
    /// Invoker topic poll period.
    pub poll_interval: SimDuration,
    /// Container dispatch overhead per invocation (Singularity exec).
    pub dispatch: SimDuration,
    /// Cold start: creating + booting a function container (§II: usually
    /// less than 500 ms).
    pub cold_start: SimDuration,
    /// Result propagation back to the controller.
    pub result_path: SimDuration,
    /// Container slots per invoker (max concurrently running container
    /// processes — the limit the paper's failure window hit, §V-C).
    pub container_slots: usize,
    /// Max concurrent container *creations*; exceeding it fails the
    /// activation ("failed during execution").
    pub cold_concurrency: usize,
    /// Invoker-side buffer of pulled-but-unstarted requests.
    pub buffer_max: usize,
    /// Controller-side activation deadline; unanswered activations are
    /// reported as timeouts.
    pub deadline: SimDuration,
    /// How long until the controller notices a silently-dead invoker
    /// (missed health pings).
    pub health_timeout: SimDuration,
    /// Time a draining invoker needs to flush its buffer and
    /// de-register ("a few seconds", §III-C).
    pub drain_flush: SimDuration,
    /// Cadence of the controller's timeout scan.
    pub timeout_scan_every: SimDuration,
}

impl Default for WhiskConfig {
    fn default() -> Self {
        WhiskConfig {
            mode: DynamicsMode::HpcWhisk,
            client_rtt: SimDuration::from_millis(280),
            ctrl_overhead: SimDuration::from_millis(40),
            kafka_delay: SimDuration::from_millis(25),
            poll_interval: SimDuration::from_millis(200),
            dispatch: SimDuration::from_millis(340),
            cold_start: SimDuration::from_millis(450),
            result_path: SimDuration::from_millis(90),
            container_slots: 16,
            cold_concurrency: 4,
            buffer_max: 128,
            deadline: SimDuration::from_secs(60),
            health_timeout: SimDuration::from_secs(10),
            drain_flush: SimDuration::from_millis(1_500),
            timeout_scan_every: SimDuration::from_secs(1),
        }
    }
}

impl WhiskConfig {
    /// Sample a latency constant with ±15% multiplicative jitter: `base ×
    /// rng.range_f64(0.85, 1.15)`, rounded to the millisecond, as
    /// [`jitter_at`] of the 53 bits that draw consumes.
    pub fn jitter(&self, base: SimDuration, rng: &mut SimRng) -> SimDuration {
        jitter_at(base, rng.next_u64() >> 11)
    }

    /// One table per jittered constant.
    pub(crate) fn latencies(&self) -> Latencies {
        Latencies {
            client_rtt: Jitter::new(self.client_rtt),
            ctrl_overhead: Jitter::new(self.ctrl_overhead),
            kafka_delay: Jitter::new(self.kafka_delay),
            poll_interval: Jitter::new(self.poll_interval),
            dispatch: Jitter::new(self.dispatch),
            cold_start: Jitter::new(self.cold_start),
            result_path: Jitter::new(self.result_path),
            drain_flush: Jitter::new(self.drain_flush),
        }
    }
}

/// The 53 uniform bits of one draw (`next_u64() >> 11`, what
/// `range_f64` consumes) span `[0, U53)`.
const U53: u64 = 1 << 53;

/// `base` jittered by the uniform `u53 · 2⁻⁵³` of `[0, 1)`: the one
/// definition of a latency draw, and the expression
/// [`WhiskConfig::jitter`] evaluated in `f64`. Non-decreasing in `u53`
/// (every step, and the rounding, is monotone), so for a fixed `base` a
/// step function that [`Jitter`] tabulates.
pub fn jitter_at(base: SimDuration, u53: u64) -> SimDuration {
    let u = u53 as f64 * (1.0 / U53 as f64);
    let f = 0.85 + (1.15 - 0.85) * u;
    SimDuration::from_secs_f64(base.as_secs_f64() * f)
}

/// [`jitter_at`] of one `base`, tabulated, so a draw is one RNG step,
/// one load and one compare, without a branch, and equals the float
/// path's bit for bit.
///
/// The value steps up one millisecond at a time, ≈ 0.3 × base times
/// over `[0, 2⁵³)`, at near-even spacing (the map is affine). The top
/// bits of `u53` pick a bucket, and there are enough buckets that each
/// holds at most one step: a bucket keeps the steps below it and the
/// one inside it. So a table grows with its base: 16 bytes a bucket,
/// 0.3–0.6 buckets a millisecond (8 KB for the 1.5 s `drain_flush`).
#[derive(Debug, Clone)]
pub struct Jitter {
    /// `jitter_at(base, 0)`, in ms.
    low: u64,
    /// `u53 >> shift` is the bucket.
    shift: u32,
    /// Per bucket: the steps below it, and the least `u53` inside it
    /// whose value is one more (`u64::MAX`: none).
    buckets: Box<[(u64, u64)]>,
}

impl Jitter {
    /// The table of `base`. Each step (the least `u53` of a value) is
    /// found from the affine map's inverse, then bracketed and bisected
    /// on [`jitter_at`] itself: a few evaluations per millisecond of
    /// spread.
    pub fn new(base: SimDuration) -> Self {
        let at = |u| jitter_at(base, u).as_millis();
        let low = at(0);
        let base_ms = base.as_millis() as f64;
        let steps: Vec<u64> = (low + 1..=at(U53 - 1))
            .map(|v| {
                let below = |u| at(u) < v;
                // Half-up rounding reaches `v` at `base · f = v − ½`.
                let guess = ((v as f64 - 0.5) / base_ms - 0.85) / 0.3 * U53 as f64;
                let guess = (guess.max(0.0) as u64).min(U53 - 1);
                // Widen to `below(lo)`, `!below(hi)`; both exist, since
                // `at(0) < v <= at(U53 − 1)`.
                let (mut lo, mut hi) = (guess, guess);
                let mut reach = 8;
                if below(guess) {
                    while below(hi) {
                        lo = hi;
                        hi = (hi + reach).min(U53 - 1);
                        reach *= 2;
                    }
                } else {
                    while !below(lo) {
                        hi = lo;
                        lo = lo.saturating_sub(reach);
                        reach *= 2;
                    }
                }
                while hi - lo > 1 {
                    let mid = lo + (hi - lo) / 2;
                    if below(mid) {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                }
                hi
            })
            .collect();
        // One bucket per step or more; halve them until no bucket
        // holds two.
        let mut shift = 53 - (steps.len() + 1).next_power_of_two().trailing_zeros();
        while steps.windows(2).any(|w| w[0] >> shift == w[1] >> shift) {
            shift = shift.checked_sub(1).expect("one step per millisecond");
        }
        let mut n = 0;
        let buckets = (0..1u64 << (53 - shift))
            .map(|k| {
                let below = n as u64;
                match steps.get(n) {
                    Some(&t) if t >> shift == k => {
                        n += 1;
                        (below, t)
                    }
                    _ => (below, u64::MAX),
                }
            })
            .collect();
        Jitter {
            low,
            shift,
            buckets,
        }
    }

    /// `jitter_at(base, u53)`, for `u53 < 2⁵³`.
    #[inline]
    fn at(&self, u53: u64) -> SimDuration {
        let (below, step) = self.buckets[(u53 >> self.shift) as usize];
        SimDuration::from_millis(self.low + below + (u53 >= step) as u64)
    }

    /// A jittered draw of `base` from `rng`: [`WhiskConfig::jitter`].
    #[inline]
    pub fn draw(&self, rng: &mut SimRng) -> SimDuration {
        self.at(rng.next_u64() >> 11)
    }
}

/// One [`Jitter`] per jittered field of a [`WhiskConfig`], derived from
/// it when the platform is built.
#[derive(Debug, Clone)]
pub(crate) struct Latencies {
    pub client_rtt: Jitter,
    pub ctrl_overhead: Jitter,
    pub kafka_delay: Jitter,
    pub poll_interval: Jitter,
    pub dispatch: Jitter,
    pub cold_start: Jitter,
    pub result_path: Jitter,
    pub drain_flush: Jitter,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn default_sums_to_target_median() {
        // Warm path: ctrl + kafka + E[poll wait] + dispatch + exec +
        // result + client rtt ≈ 0.88 s — the paper's 865 ms ballpark.
        let c = WhiskConfig::default();
        let warm_ms = c.ctrl_overhead.as_millis()
            + c.kafka_delay.as_millis()
            + c.poll_interval.as_millis() / 2
            + c.dispatch.as_millis()
            + 10
            + c.result_path.as_millis()
            + c.client_rtt.as_millis();
        assert!(
            (800..=1000).contains(&warm_ms),
            "warm path sums to {warm_ms} ms"
        );
    }

    /// `jitter` is still the draw written as `range_f64`, on the same
    /// stream.
    #[test]
    fn jitter_is_the_range_f64_draw() {
        let c = WhiskConfig::default();
        let (mut a, mut b) = (SimRng::seed_from_u64(3), SimRng::seed_from_u64(3));
        for ms in [0, 1, 7, 100, 340, 1_500, 60_000] {
            let base = SimDuration::from_millis(ms);
            for _ in 0..2_000 {
                let f = b.range_f64(0.85, 1.15);
                let float = SimDuration::from_secs_f64(base.as_secs_f64() * f);
                assert_eq!(c.jitter(base, &mut a), float, "{base}");
            }
        }
    }

    /// The least `u53` whose float-path value reaches `jitter_at(base,
    /// u)`: a plain bisection over `[0, u]`, independent of the table.
    fn step_of(base: SimDuration, u: u64) -> u64 {
        let v = jitter_at(base, u);
        let (mut lo, mut hi) = (0, u);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if jitter_at(base, mid) < v {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        hi
    }

    /// `base`'s table against the float path at every step and one
    /// `u53` below it (the value goes up by exactly one ms there, on
    /// both paths), at the ends, and in as many steps as the float path
    /// spans.
    fn table_steps_where_the_float_path_does(base: SimDuration) -> Jitter {
        let j = Jitter::new(base);
        let steps = j.buckets.iter().map(|b| b.1).filter(|&t| t != u64::MAX);
        let steps: Vec<u64> = steps.collect();
        let (low, high) = (jitter_at(base, 0), jitter_at(base, U53 - 1));
        assert_eq!(steps.len() as u64, (high - low).as_millis(), "{base}");
        assert_eq!((j.at(0), j.at(U53 - 1)), (low, high), "{base}");
        let ms = SimDuration::from_millis(1);
        for (i, &t) in steps.iter().enumerate() {
            let v = low + ms * (i as u64 + 1);
            assert_eq!((jitter_at(base, t - 1), jitter_at(base, t)), (v - ms, v));
            assert_eq!((j.at(t - 1), j.at(t)), (v - ms, v), "{base} at {t}");
        }
        j
    }

    #[test]
    fn each_default_table_steps_where_the_float_path_does() {
        let c = WhiskConfig::default();
        for base in [
            c.client_rtt,
            c.ctrl_overhead,
            c.kafka_delay,
            c.poll_interval,
            c.dispatch,
            c.cold_start,
            c.result_path,
            c.drain_flush,
        ] {
            table_steps_where_the_float_path_does(base);
        }
    }

    /// `jitter_at` never steps down: 20,000 sorted draws per base.
    #[test]
    fn jitter_at_is_monotone() {
        let mut rng = SimRng::seed_from_u64(11);
        for ms in [1, 7, 25, 200, 340, 1_500, 10_000] {
            let base = SimDuration::from_millis(ms);
            let mut us: Vec<u64> = (0..20_000).map(|_| rng.next_u64() >> 11).collect();
            us.extend([0, 1, U53 - 2, U53 - 1]);
            us.sort_unstable();
            let values: Vec<SimDuration> = us.iter().map(|&u| jitter_at(base, u)).collect();
            assert!(values.windows(2).all(|w| w[0] <= w[1]), "{base}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Any base's table steps where the float path does, and a
        /// draw is the float draw at random `u53`s, at the step each
        /// one's value starts on (found without the table) and at the
        /// `u53`s beside it.
        #[test]
        fn a_table_draw_is_the_float_draw(
            base_ms in 0..300_001u64,
            us in collection::vec(0..U53, 8..17),
        ) {
            let base = SimDuration::from_millis(base_ms);
            let j = table_steps_where_the_float_path_does(base);
            for u in us {
                let t = step_of(base, u);
                for x in [u, t.saturating_sub(1), t, (t + 1).min(U53 - 1)] {
                    prop_assert_eq!(j.at(x), jitter_at(base, x), "{} at {}", base, x);
                }
            }
        }
    }

    #[test]
    fn jitter_stays_within_bounds() {
        let c = WhiskConfig::default();
        let mut rng = SimRng::seed_from_u64(1);
        for _ in 0..1000 {
            let d = c.jitter(SimDuration::from_millis(100), &mut rng);
            assert!(d.as_millis() >= 84 && d.as_millis() <= 116, "{d}");
        }
    }
}
