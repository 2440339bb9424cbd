//! What can happen to a request, defined once for both planes: the
//! ledger of Tables II and III (§V-B, §V-C). A request is accepted,
//! shed with a reason (a 503 is [`Shed::NoInvoker`]) or, by a client
//! running Algorithm 1 (§III-E), offloaded to a commercial cloud; an
//! accepted one completes, fails, times out, or is still in flight when
//! the run ends.
//! [`Tally`] counts each [`Outcome`], and the rules every plane's books
//! obey live beside it: [`requests`], [`leases`] and [`missing`].

use crate::MinuteBins;
use simcore::SimTime;
use std::ops::{Index, IndexMut};
use telemetry::{Collected, Snapshot};

/// Why a request was refused at admission. The discriminants are the
/// flight recorder's shed codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Shed {
    /// No healthy invoker is routable (503).
    NoInvoker = 0,
    /// The chosen invoker's queue is at the admission bound (429).
    QueueFull = 1,
    /// The action is at its gateway-wide in-flight cap (429).
    ActionSaturated = 2,
    /// The token-bucket shaper's delay budget is exhausted: admitting
    /// would charge more virtual delay than the policy allows (429).
    /// Only occurs under an active token-bucket policy.
    DelayBudget = 3,
}

impl Shed {
    /// Every reason, in discriminant order.
    pub const ALL: [Shed; 4] = [
        Shed::NoInvoker,
        Shed::QueueFull,
        Shed::ActionSaturated,
        Shed::DelayBudget,
    ];
}

/// One entry of a request's ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// Admitted; ends in exactly one of the last four outcomes.
    Accepted,
    /// Admitted with a nonzero shaper delay (a subset of `Accepted`).
    Delayed,
    /// Refused at admission.
    Shed(Shed),
    /// Sent to the commercial cloud by Algorithm 1: during a cool-off,
    /// or as the retry of a 503. Always answered.
    Offloaded,
    /// Executed and answered.
    Completed,
    /// Failed during execution (container creation refused).
    Failed,
    /// Never answered before the controller deadline.
    TimedOut,
    /// Still running when the run ended.
    InFlight,
}

impl Outcome {
    /// Every outcome, in exposition order.
    pub const ALL: [Outcome; 11] = [
        Outcome::Accepted,
        Outcome::Delayed,
        Outcome::Shed(Shed::NoInvoker),
        Outcome::Shed(Shed::QueueFull),
        Outcome::Shed(Shed::ActionSaturated),
        Outcome::Shed(Shed::DelayBudget),
        Outcome::Completed,
        Outcome::Failed,
        Outcome::TimedOut,
        Outcome::InFlight,
        Outcome::Offloaded,
    ];

    /// The `outcome` label of the outcome's series.
    pub const fn label(self) -> &'static str {
        match self {
            Outcome::Accepted => "accepted",
            Outcome::Delayed => "delayed",
            Outcome::Shed(Shed::NoInvoker) => "shed_no_invoker",
            Outcome::Shed(Shed::QueueFull) => "shed_queue_full",
            Outcome::Shed(Shed::ActionSaturated) => "shed_action_saturated",
            Outcome::Shed(Shed::DelayBudget) => "shed_delay_budget",
            Outcome::Completed => "completed",
            Outcome::Failed => "failed",
            Outcome::TimedOut => "timed_out",
            Outcome::InFlight => "in_flight",
            Outcome::Offloaded => "offloaded",
        }
    }

    /// The outcome a label names; `None` for one that names none (the
    /// gateway's `cold` series, a subset of `completed`).
    pub fn from_label(label: &str) -> Option<Outcome> {
        Outcome::ALL.into_iter().find(|o| o.label() == label)
    }

    /// Position in [`Outcome::ALL`].
    const fn index(self) -> usize {
        match self {
            Outcome::Accepted => 0,
            Outcome::Delayed => 1,
            Outcome::Shed(s) => 2 + s as usize,
            Outcome::Completed => 6,
            Outcome::Failed => 7,
            Outcome::TimedOut => 8,
            Outcome::InFlight => 9,
            Outcome::Offloaded => 10,
        }
    }
}

/// A count per [`Outcome`]; index it with one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub accepted: u64,
    pub delayed: u64,
    /// Indexed by [`Shed`].
    pub shed: [u64; 4],
    pub completed: u64,
    pub failed: u64,
    pub timed_out: u64,
    pub in_flight: u64,
    pub offloaded: u64,
}

impl Index<Outcome> for Tally {
    type Output = u64;

    fn index(&self, o: Outcome) -> &u64 {
        match o {
            Outcome::Accepted => &self.accepted,
            Outcome::Delayed => &self.delayed,
            Outcome::Shed(s) => &self.shed[s as usize],
            Outcome::Completed => &self.completed,
            Outcome::Failed => &self.failed,
            Outcome::TimedOut => &self.timed_out,
            Outcome::InFlight => &self.in_flight,
            Outcome::Offloaded => &self.offloaded,
        }
    }
}

impl IndexMut<Outcome> for Tally {
    fn index_mut(&mut self, o: Outcome) -> &mut u64 {
        match o {
            Outcome::Accepted => &mut self.accepted,
            Outcome::Delayed => &mut self.delayed,
            Outcome::Shed(s) => &mut self.shed[s as usize],
            Outcome::Completed => &mut self.completed,
            Outcome::Failed => &mut self.failed,
            Outcome::TimedOut => &mut self.timed_out,
            Outcome::InFlight => &mut self.in_flight,
            Outcome::Offloaded => &mut self.offloaded,
        }
    }
}

impl Tally {
    /// Sheds across all reasons.
    pub fn shed_total(&self) -> u64 {
        self.shed.iter().sum()
    }

    /// Every arrival the tally accounts for: `accepted + Σ shed +
    /// offloaded`.
    pub fn arrivals(&self) -> u64 {
        self.accepted + self.shed_total() + self.offloaded
    }

    /// Accepted requests no answer has closed yet: in flight while a
    /// plane runs, lost if it stopped with requests stranded.
    /// Saturating, since a reader of live atomics can see an answer
    /// before its admission is counted.
    pub fn outstanding(&self) -> u64 {
        let answered = self.completed + self.failed + self.timed_out;
        self.accepted.saturating_sub(answered)
    }

    /// Fold `other`'s counts in.
    pub fn absorb(&mut self, other: &Tally) {
        for o in Outcome::ALL {
            self[o] += other[o];
        }
    }

    /// The counts added since `earlier`, an older tally of the same
    /// ledger (saturating per outcome).
    pub fn since(&self, earlier: &Tally) -> Tally {
        let mut d = Tally::default();
        for o in Outcome::ALL {
            d[o] = self[o].saturating_sub(earlier[o]);
        }
        d
    }

    /// `family`'s counter series whose labels include `filter`, summed
    /// by their `outcome` label (one naming no outcome is skipped);
    /// `None` when the scrape lacks the family. The one reader of a
    /// requests family.
    pub fn from_scrape(snap: &Snapshot, family: &str, filter: &[(&str, &str)]) -> Option<Tally> {
        let fam = snap.families.iter().find(|f| f.name == family)?;
        let mut t = Tally::default();
        for s in &fam.series {
            let has = |(k, v): &(&str, &str)| s.labels.iter().any(|(sk, sv)| sk == k && sv == v);
            let outcome = s.labels.iter().find(|(k, _)| k == "outcome");
            let outcome = outcome.and_then(|(_, l)| Outcome::from_label(l));
            if let (Some(o), Collected::Counter(v), true) =
                (outcome, &s.value, filter.iter().all(has))
            {
                t[o] += v;
            }
        }
        Some(t)
    }
}

/// Per-minute counts of each outcome over one window, by the minute the
/// request was submitted: the responsiveness panels of Figs. 5b/6b.
#[derive(Debug, Clone)]
pub struct OutcomeBins(Vec<MinuteBins>);

impl OutcomeBins {
    /// Bins covering `[start, start + minutes)` for every outcome.
    pub fn new(start: SimTime, minutes: usize) -> Self {
        OutcomeBins(Outcome::ALL.map(|_| MinuteBins::new(start, minutes)).into())
    }

    /// Count one request with outcome `o`, submitted at `t`.
    #[inline]
    pub fn record(&mut self, o: Outcome, t: SimTime) {
        self.0[o.index()].record(t);
    }
}

impl Index<Outcome> for OutcomeBins {
    type Output = MinuteBins;

    fn index(&self, o: Outcome) -> &MinuteBins {
        &self.0[o.index()]
    }
}

/// One rule a plane's books break.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// A family the books need is not in the scrape.
    Missing(String),
    /// `completed + failed + timed_out + in_flight` (`accounted`) `≠
    /// accepted`.
    Unfinished { accepted: u64, accounted: u64 },
    /// `accepted + shed + offloaded ≠ offered`.
    Unoffered {
        offered: u64,
        accepted: u64,
        shed: u64,
        offloaded: u64,
    },
    /// `grants − revokes ≠ live` over the named grants family.
    Leases {
        grants_family: String,
        grants: u64,
        revokes: u64,
        live: i64,
    },
    /// `cold_start ≠ lru_evict + keepalive_evict + drain_retired` (the
    /// gateway's container rule).
    Containers { cold_start: u64, retired: u64 },
}

/// The request rule over `t`, for a run offered `offered` arrivals:
/// `completed + failed + timed_out + in_flight == accepted`, and
/// `accepted + Σ shed + offloaded == offered`. Empty when both hold.
pub fn requests(t: &Tally, offered: u64) -> Vec<Violation> {
    let (accepted, shed, offloaded) = (t.accepted, t.shed_total(), t.offloaded);
    let accounted = t.completed + t.failed + t.timed_out + t.in_flight;
    let mut found = Vec::new();
    if accounted != accepted {
        found.push(Violation::Unfinished {
            accepted,
            accounted,
        });
    }
    if t.arrivals() != offered {
        found.push(Violation::Unoffered {
            offered,
            accepted,
            shed,
            offloaded,
        });
    }
    found
}

/// The lease rule, `grants − revokes == live`, over one plane's three
/// unlabelled families: two counters and a gauge.
pub fn leases(snap: &Snapshot, grants: &str, revokes: &str, live: &str) -> Result<(), Violation> {
    let missing = |f: &str| Violation::Missing(f.to_string());
    let g = snap.counter(grants, &[]).ok_or_else(|| missing(grants))?;
    let r = snap.counter(revokes, &[]).ok_or_else(|| missing(revokes))?;
    let l = snap.gauge(live, &[]).ok_or_else(|| missing(live))?;
    if g as i128 - r as i128 == l as i128 {
        return Ok(());
    }
    Err(Violation::Leases {
        grants_family: grants.to_string(),
        grants: g,
        revokes: r,
        live: l,
    })
}

/// A [`Violation::Missing`] for each of `families` not in `snap`.
pub fn missing(snap: &Snapshot, families: &[&str]) -> Vec<Violation> {
    let present = |f: &&&str| snap.families.iter().any(|s| s.name == **f);
    let absent = families.iter().filter(|f| !present(f));
    absent.map(|f| Violation::Missing(f.to_string())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shed_codes_and_labels_are_pinned() {
        assert_eq!(Shed::ALL.map(|s| s as u64), [0, 1, 2, 3]);
        for (i, o) in Outcome::ALL.into_iter().enumerate() {
            assert_eq!((o.index(), Outcome::from_label(o.label())), (i, Some(o)));
        }
        assert_eq!(Outcome::from_label("cold"), None);
    }
}
