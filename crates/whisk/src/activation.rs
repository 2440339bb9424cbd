//! Activation (invocation) records.

use crate::ids::{FunctionId, InvokerId};
use metrics::Outcome;
use simcore::SimTime;

/// The controller's record of one activation.
#[derive(Debug, Clone)]
pub struct ActivationRecord {
    /// The function being invoked.
    pub function: FunctionId,
    /// Client submission time.
    pub submitted: SimTime,
    /// Timeout deadline.
    pub deadline: SimTime,
    /// [`Outcome::InFlight`] until answered — [`Outcome::Completed`],
    /// [`Outcome::Failed`] or [`Outcome::TimedOut`]; late results are
    /// ignored.
    pub state: Outcome,
    /// Which invoker's topic currently holds / executed it.
    pub assigned: Option<InvokerId>,
    /// Delivery attempts (> 1 after fast-lane re-routing).
    pub attempts: u32,
}

impl ActivationRecord {
    /// True iff the client is still waiting.
    pub fn in_flight(&self) -> bool {
        self.state == Outcome::InFlight
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_flight_transitions() {
        let mut r = ActivationRecord {
            function: FunctionId(0),
            submitted: SimTime::ZERO,
            deadline: SimTime::from_secs(60),
            state: Outcome::InFlight,
            assigned: None,
            attempts: 1,
        };
        assert!(r.in_flight());
        r.state = Outcome::Completed;
        assert!(!r.in_flight());
    }
}
