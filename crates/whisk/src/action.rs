//! Function (action) specifications.

use simcore::SimDuration;

/// What executing the function costs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExecModel {
    /// Sleeps for the given duration (the paper's responsiveness
    /// experiment uses 10 ms sleep functions, §V-C). Occupies a
    /// container slot but no meaningful CPU.
    Sleep(SimDuration),
    /// Compute-bound work measured in seconds on a reference node
    /// (the SeBS kernels, §V-D).
    Busy {
        /// Seconds of single-core work on the reference platform.
        reference_secs: f64,
    },
}

impl ExecModel {
    /// Service time on the reference node.
    pub fn service_time(&self) -> SimDuration {
        match self {
            ExecModel::Sleep(d) => *d,
            ExecModel::Busy { reference_secs } => SimDuration::from_secs_f64(*reference_secs),
        }
    }
}

/// A deployed function.
#[derive(Debug, Clone)]
pub struct FunctionSpec {
    /// Human-readable name (hash routing uses the id, not the name).
    pub name: String,
    /// Execution cost model.
    pub exec: ExecModel,
    /// Whether HPC-Whisk may interrupt a running execution during drain
    /// and re-route it through the fast lane (§III-C: clients opt out
    /// when a function non-atomically mutates external state).
    pub interruptible: bool,
}

impl FunctionSpec {
    /// A sleep function, as used by the responsiveness experiment.
    pub fn sleep(name: &str, d: SimDuration) -> Self {
        FunctionSpec {
            name: name.to_string(),
            exec: ExecModel::Sleep(d),
            interruptible: true,
        }
    }

    /// A compute-bound function.
    pub fn busy(name: &str, reference_secs: f64) -> Self {
        FunctionSpec {
            name: name.to_string(),
            exec: ExecModel::Busy { reference_secs },
            interruptible: true,
        }
    }

    /// Mark the function non-interruptible.
    pub fn non_interruptible(mut self) -> Self {
        self.interruptible = false;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sleep_service_time_ignores_platform() {
        let e = ExecModel::Sleep(SimDuration::from_millis(10));
        assert_eq!(e.service_time(), SimDuration::from_millis(10));
    }

    #[test]
    fn busy_service_time_scales() {
        let busy = |reference_secs| ExecModel::Busy { reference_secs }.service_time();
        assert_eq!(busy(2.0), SimDuration::from_secs(2));
        assert_eq!(busy(2.3), SimDuration::from_millis(2_300));
    }

    #[test]
    fn builders() {
        let f = FunctionSpec::sleep("s", SimDuration::from_millis(10));
        assert!(f.interruptible);
        let g = FunctionSpec::busy("b", 1.0).non_interruptible();
        assert!(!g.interruptible);
    }
}
