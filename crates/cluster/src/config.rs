//! Scheduler configuration, mirroring the Slurm parameters the paper
//! relies on (§III-D): priority tiers, `PreemptMode=CANCEL` with a 3-min
//! grace period, a 2-minute backfill slot and a 120-minute backfill
//! window.

use simcore::SimDuration;

/// Tunable parameters of the cluster scheduler.
#[derive(Debug, Clone)]
pub struct SlurmConfig {
    /// Backfill slot resolution. The paper: "the backfill scheduler
    /// operates on 2-minute slots".
    pub bf_resolution: SimDuration,
    /// Backfill look-ahead window. The paper: "120 minutes, which is
    /// backfill's window".
    pub bf_window: SimDuration,
    /// Cadence of full backfill passes (Slurm `bf_interval`).
    pub bf_interval: SimDuration,
    /// Maximum number of pending jobs examined per backfill pass
    /// (Slurm `bf_max_job_test`).
    pub bf_max_job_test: usize,
    /// Maximum number of future-start reservations created per pass
    /// (EASY-style; Slurm `bf_max_job_start` flavour).
    pub bf_max_reservations: usize,
    /// Cadence of quick scheduling passes (Slurm's event-driven builtin
    /// scheduler, rate-limited).
    pub sched_interval: SimDuration,
    /// Minimum spacing between event-triggered quick passes
    /// (Slurm `sched_min_interval`).
    pub sched_min_interval: SimDuration,
    /// Number of pending jobs examined by a quick pass
    /// (Slurm `default_queue_depth`).
    pub sched_queue_depth: usize,
    /// SIGTERM→SIGKILL grace for *preempted* jobs (Slurm partition
    /// `GraceTime`). The paper: 3 minutes.
    pub grace_time: SimDuration,
    /// SIGTERM→SIGKILL grace at *time-limit* expiry (Slurm `KillWait`).
    pub kill_wait: SimDuration,
    /// Extension budget for variable-length (`--time-min`) jobs, in
    /// timeline slots per backfill pass. Slurm's var-length extension is
    /// expensive ("the scheduler may not be able to process the queue
    /// before the environment changes" — §V-B2); once a pass has spent
    /// this budget, remaining var jobs are granted only their minimum
    /// time.
    pub var_extension_budget_slots: u32,
    /// Whether quick passes may start pilot jobs at all (backfill-only
    /// placement when false). A quick pass grants a var-length pilot
    /// only its minimum time: extension is a backfill-pass computation.
    pub quick_pass_places_pilots: bool,
    /// Simulated cost of examining one pending job in a backfill pass;
    /// the pass finishes at `start + per_job_cost * examined`, delaying
    /// the next pass. Models the paper's observation that Slurm took up
    /// to 20 s to answer queries under load.
    pub bf_per_job_cost: SimDuration,
    /// Additional per-slot cost of computing a var-length extension.
    pub bf_var_slot_cost: SimDuration,
}

impl Default for SlurmConfig {
    fn default() -> Self {
        SlurmConfig {
            bf_resolution: SimDuration::from_mins(2),
            bf_window: SimDuration::from_mins(120),
            bf_interval: SimDuration::from_secs(30),
            bf_max_job_test: 100,
            bf_max_reservations: 10,
            sched_interval: SimDuration::from_secs(5),
            sched_min_interval: SimDuration::from_secs(2),
            sched_queue_depth: 100,
            grace_time: SimDuration::from_mins(3),
            kill_wait: SimDuration::from_secs(30),
            var_extension_budget_slots: 120,
            quick_pass_places_pilots: true,
            bf_per_job_cost: SimDuration::from_millis(40),
            bf_var_slot_cost: SimDuration::from_millis(15),
        }
    }
}

impl SlurmConfig {
    /// Number of slots in the backfill window.
    pub fn n_slots(&self) -> u32 {
        let n = self.bf_window.as_millis() / self.bf_resolution.as_millis();
        assert!(
            (1..=63).contains(&n),
            "window/resolution must give 1..=63 slots"
        );
        n as u32
    }

    /// Convert a duration into a slot count, rounding *up* (a job needs
    /// every slot it touches).
    pub fn slots_ceil(&self, d: SimDuration) -> u32 {
        let r = self.bf_resolution.as_millis();
        (d.as_millis().div_ceil(r)) as u32
    }

    /// Convert a slot count back into a duration.
    pub fn slots_to_duration(&self, slots: u32) -> SimDuration {
        SimDuration::from_millis(self.bf_resolution.as_millis() * slots as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_geometry() {
        let c = SlurmConfig::default();
        assert_eq!(c.n_slots(), 60);
        assert_eq!(c.bf_resolution, SimDuration::from_mins(2));
        assert_eq!(c.grace_time, SimDuration::from_mins(3));
    }

    #[test]
    fn slot_rounding() {
        let c = SlurmConfig::default();
        assert_eq!(c.slots_ceil(SimDuration::from_mins(2)), 1);
        assert_eq!(c.slots_ceil(SimDuration::from_mins(3)), 2);
        assert_eq!(c.slots_ceil(SimDuration::from_millis(1)), 1);
        assert_eq!(c.slots_ceil(SimDuration::ZERO), 0);
        assert_eq!(c.slots_to_duration(45), SimDuration::from_mins(90));
    }

    #[test]
    #[should_panic]
    fn oversized_window_rejected() {
        let c = SlurmConfig {
            bf_window: SimDuration::from_mins(2 * 64),
            ..SlurmConfig::default()
        };
        c.n_slots();
    }
}
