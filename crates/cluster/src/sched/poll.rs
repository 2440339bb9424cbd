//! The node-state poller (§IV-A). It owns the poll's two invariants: a
//! sample is the maintained idle and pilot counts, which equal the
//! popcounts of the maintained bitsets (a debug build checks both
//! against a scan of the node table at every poll); and the availability
//! trace the run hands over is built from exactly the bitsets each poll
//! read, so it equals a scan of the samples.

use super::ClusterSim;
use crate::events::PollSample;
use simcore::{SimDuration, SimTime};

impl ClusterSim {
    /// A poll XORs the two maintained sets against the previous poll's
    /// and opens or closes the availability intervals of the nodes that
    /// changed; the sample itself is the two maintained counts.
    pub(super) fn take_poll_sample(&mut self, t: SimTime) -> PollSample {
        #[cfg(debug_assertions)]
        self.check_poll_bits();
        self.poll_intervals
            .sample(t, &self.idle_bits, &self.pilot_bits);
        PollSample {
            t,
            idle: self.n_idle as u32,
            pilot: self.n_pilot as u32,
        }
    }

    /// Poll cadence with the jitter the paper measured (§IV-A): 76.43%
    /// exactly 10 s, 23.26% in 11–13 s, 0.31% in 14–20 s.
    pub(super) fn sample_poll_gap(&mut self) -> SimDuration {
        let u = self.poll_rng.f64();
        if u < 0.7643 {
            SimDuration::from_secs(10)
        } else if u < 0.7643 + 0.2326 {
            SimDuration::from_millis(self.poll_rng.range_u64(11_000, 13_001))
        } else {
            SimDuration::from_millis(self.poll_rng.range_u64(14_000, 20_001))
        }
    }
}
