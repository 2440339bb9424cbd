//! Algorithm 1 (§III-E): the client-side wrapper that off-loads FaaS
//! calls to a commercial cloud for a cool-off period after the HPC-Whisk
//! controller answers 503 (no worker available anywhere on the cluster).

use simcore::dist::{LogNormal, Sample};
use simcore::{SimDuration, SimRng, SimTime};

/// The Algorithm 1 state machine: the cool-off window alone. Where its
/// calls went is the client's tally (`DayReport::client`), as
/// [`Outcome::Offloaded`](metrics::Outcome::Offloaded).
#[derive(Debug, Clone)]
pub struct FallbackWrapper {
    last_503: Option<SimTime>,
    cooloff: SimDuration,
}

impl FallbackWrapper {
    /// A wrapper that offloads for `cooloff` after each 503 (the paper
    /// uses 60 s).
    pub fn with_cooloff(cooloff: SimDuration) -> Self {
        FallbackWrapper {
            last_503: None,
            cooloff,
        }
    }

    /// Record a 503 from the cluster and open the cool-off window;
    /// Algorithm 1 retries the same call commercially at once.
    pub fn on_503(&mut self, now: SimTime) {
        self.last_503 = Some(now);
    }

    /// Algorithm 1's `if` guard: a call made at `now` goes to the
    /// commercial cloud, not the cluster.
    pub fn cooling(&self, now: SimTime) -> bool {
        self.last_503.is_some_and(|t| now.since(t) <= self.cooloff)
    }
}

/// Latency model of the commercial fallback, for end-to-end accounting.
/// Always succeeds; response times follow the short-function behaviour
/// the paper cites from SeBS on AWS Lambda (~0.8 s for a 10 ms
/// function).
#[derive(Debug, Clone)]
pub struct CommercialBackend {
    latency_secs: LogNormal,
}

impl Default for CommercialBackend {
    fn default() -> Self {
        CommercialBackend {
            latency_secs: LogNormal::from_median_and_quantile(0.8, 0.95, 1.6),
        }
    }
}

impl CommercialBackend {
    /// Sample one response latency.
    pub fn latency(&self, rng: &mut SimRng) -> SimDuration {
        SimDuration::from_secs_f64(self.latency_secs.sample(rng).clamp(0.2, 10.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn routes_local_until_first_503() {
        let w = FallbackWrapper::with_cooloff(SimDuration::from_secs(60));
        assert!(!w.cooling(secs(0)) && !w.cooling(secs(1)));
    }

    #[test]
    fn offloads_for_sixty_seconds_after_503() {
        let mut w = FallbackWrapper::with_cooloff(SimDuration::from_secs(60));
        assert!(!w.cooling(secs(10)));
        // The call got a 503: retried commercially, and the cool-off
        // window sends everything commercial, up to exactly 60 s.
        w.on_503(secs(10));
        assert!(w.cooling(secs(11)) && w.cooling(secs(70)));
        // After the window: back to the cluster.
        assert!(!w.cooling(secs(71)));
    }

    #[test]
    fn repeated_503_extends_the_window() {
        let mut w = FallbackWrapper::with_cooloff(SimDuration::from_secs(60));
        w.on_503(secs(0));
        assert!(w.cooling(secs(55)));
        w.on_503(secs(58));
        // Window now runs until 58 + 60 = 118 s inclusive.
        assert!(w.cooling(secs(100)) && w.cooling(secs(118)));
        assert!(!w.cooling(secs(119)));
    }

    #[test]
    fn custom_cooloff() {
        let mut w = FallbackWrapper::with_cooloff(SimDuration::from_secs(5));
        w.on_503(secs(0));
        assert!(w.cooling(secs(5)) && !w.cooling(secs(6)));
    }

    #[test]
    fn commercial_latency_plausible() {
        let b = CommercialBackend::default();
        let mut rng = SimRng::seed_from_u64(1);
        let mut lat: Vec<f64> = (0..5_000)
            .map(|_| b.latency(&mut rng).as_secs_f64())
            .collect();
        lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let med = lat[lat.len() / 2];
        assert!((0.6..=1.0).contains(&med), "median = {med}");
        assert!(lat[0] >= 0.2 && *lat.last().unwrap() <= 10.0);
    }
}
