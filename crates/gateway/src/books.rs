//! The gateway's books, checked: the identities one scrape must satisfy
//! once [`Gateway::shutdown`] has run. By then every invoker is joined,
//! so every pool is retired and published and nothing is in flight, and
//! the scrape alone answers each rule:
//!
//! - `gateway_requests_total`, read as a [`Tally`]: the request rule
//!   both planes share ([`outcome::requests`]) — every arrival the caller
//!   offered was admitted or shed with a reason, and none twice; every
//!   admission completed (the live plane neither fails nor times a
//!   request out, and nothing is in flight after shutdown);
//! - `grants − revokes == live` over the lease families
//!   ([`outcome::leases`], which the pilot plane calls with its own
//!   names);
//! - `gateway_pool_events_total`: `cold_start == lru_evict +
//!   keepalive_evict + drain_retired` — each container started left
//!   through exactly one retirement path.
//!
//! A family of [`FAMILIES`] the scrape lacks is a [`Violation`], never a
//! skipped rule.

use crate::Gateway;
use metrics::outcome::{self, Violation};
use metrics::Tally;
use telemetry::Snapshot;

/// The families every gateway scrape carries.
pub const FAMILIES: [&str; 8] = [
    REQUESTS,
    "gateway_latency_ns",
    GRANTS,
    REVOKES,
    LIVE,
    POOL,
    "gateway_queue_highwater",
    "gateway_submit_contention_total",
];

const REQUESTS: &str = "gateway_requests_total";
const GRANTS: &str = "gateway_lease_grants_total";
const REVOKES: &str = "gateway_lease_revokes_total";
const LIVE: &str = "gateway_leases_live";
const POOL: &str = "gateway_pool_events_total";

/// Check every rule of the module doc on `snap`, a scrape taken after
/// [`Gateway::shutdown`], for a run that offered `offered` arrivals.
pub fn check(snap: &Snapshot, offered: u64) -> Result<(), Vec<Violation>> {
    let mut found = outcome::missing(snap, &FAMILIES);
    if let Some(t) = Tally::from_scrape(snap, REQUESTS, &[]) {
        found.extend(outcome::requests(&t, offered));
    }
    // A missing lease family is already in `found`.
    let lease = outcome::leases(snap, GRANTS, REVOKES, LIVE).err();
    found.extend(lease.filter(|v| !matches!(v, Violation::Missing(_))));
    let pool = |event| snap.counter(POOL, &[("event", event)]).unwrap_or(0);
    let cold_start = pool("cold_start");
    let retired = pool("lru_evict") + pool("keepalive_evict") + pool("drain_retired");
    if cold_start != retired {
        found.push(Violation::Containers {
            cold_start,
            retired,
        });
    }
    found.is_empty().then_some(()).ok_or(found)
}

/// Shut `gw` down and take the scrape its books are read from.
pub fn closing_scrape(gw: &Gateway) -> Snapshot {
    gw.shutdown();
    gw.telem.registry().snapshot()
}

/// Shut `gw` down and check its books for `offered` arrivals; the
/// closing scrape when they balance.
pub fn close(gw: &Gateway, offered: u64) -> Result<Snapshot, Vec<Violation>> {
    let snap = closing_scrape(gw);
    check(&snap, offered).map(|()| snap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telem::{self, GatewayTelemetry};
    use metrics::{Outcome, Shed};
    use outcome::leases;
    use std::collections::BTreeSet;
    use telemetry::{labels, one_series, Collected, MetricKind, SeriesSnapshot};
    use Violation::*;

    /// The plane's own families over two actions (the second idle),
    /// balanced for 100 offered arrivals, then `plant` applied.
    fn scrape(plant: impl FnOnce(&GatewayTelemetry)) -> Snapshot {
        let t = GatewayTelemetry::new(vec!["a".into(), "b".into()]);
        let zero = || one_series(Collected::Counter(0));
        let contention = "gateway_submit_contention_total";
        (t.registry()).register(contention, "", MetricKind::Counter, Box::new(zero));
        t.accepted.add(0, 90);
        t.delayed.add(0, 30);
        t.shed[Shed::QueueFull as usize].add(0, 6);
        t.shed[Shed::NoInvoker as usize].add(0, 3);
        t.shed[Shed::DelayBudget as usize].add(0, 1);
        t.new_slot().completed.add_owned(0, 90);
        t.lease_grants.add(5);
        t.lease_revokes.add(5);
        t.pool_events.add(telem::POOL_COLD_START, 4);
        t.pool_events.add(telem::POOL_LRU_EVICT, 1);
        t.pool_events.add(telem::POOL_KEEPALIVE_EVICT, 1);
        t.pool_events.add(telem::POOL_DRAIN_RETIRED, 2);
        plant(&t);
        t.registry().snapshot()
    }

    #[test]
    fn balanced_books_pass() {
        assert_eq!(check(&scrape(|_| {}), 100), Ok(()));
        assert_eq!(check(&des_scrape([2, 1, 3]), 106), Ok(()));
    }

    /// [`scrape`] with six more admissions, ended as only a DES day
    /// ends them: `failed`, `timed_out` and `in_flight` series of
    /// `ends` (`[2, 1, 3]` balances it for 106 offered).
    fn des_scrape(ends: [u64; 3]) -> Snapshot {
        let mut snap = scrape(|t| t.accepted.add(0, 6));
        let fam = snap.families.iter_mut().find(|f| f.name == REQUESTS);
        let series = &mut fam.expect("requests family").series;
        let outcomes = [Outcome::Failed, Outcome::TimedOut, Outcome::InFlight];
        for (o, n) in outcomes.into_iter().zip(ends) {
            let labels = labels(&[("action", "a"), ("outcome", o.label())]);
            let value = Collected::Counter(n);
            series.push(SeriesSnapshot {
                labels,
                value,
                delta: 0.0,
            });
        }
        snap
    }

    #[test]
    fn accepted_past_completed_fires_alone() {
        // The gateway's shape; then, DES-shaped, a failure counted
        // twice, one in flight too many and a request no outcome names.
        let cases = [
            (scrape(|t| t.accepted.inc(0)), 101, 91, 90),
            (des_scrape([3, 1, 3]), 106, 96, 97),
            (des_scrape([2, 1, 4]), 106, 96, 97),
            (des_scrape([2, 1, 2]), 106, 96, 95),
        ];
        for (snap, offered, accepted, accounted) in cases {
            let unfinished = Unfinished {
                accepted,
                accounted,
            };
            assert_eq!(check(&snap, offered), Err(vec![unfinished]));
        }
    }

    #[test]
    fn request_outcome_labels_are_the_historical_list() {
        let snap = scrape(|_| {});
        let fam = snap.families.iter().find(|f| f.name == REQUESTS);
        let labels = fam
            .expect("requests family")
            .series
            .iter()
            .flat_map(|s| &s.labels);
        let got: BTreeSet<&str> = labels
            .filter(|(k, _)| k == "outcome")
            .map(|(_, v)| v.as_str())
            .collect();
        let want = BTreeSet::from([
            "accepted",
            "delayed",
            "shed_queue_full",
            "shed_action_saturated",
            "shed_no_invoker",
            "shed_delay_budget",
            "completed",
            "cold",
        ]);
        assert_eq!(got, want);
    }

    #[test]
    fn offered_off_balance_fires_alone() {
        let shapes = [(scrape(|_| {}), 100), (des_scrape([2, 1, 3]), 106)];
        for (snap, balanced) in shapes {
            for offered in [balanced - 1, balanced + 1] {
                let (accepted, shed) = (balanced - 10, 10);
                let unoffered = Unoffered {
                    offered,
                    accepted,
                    shed,
                };
                assert_eq!(check(&snap, offered), Err(vec![unoffered]));
            }
        }
    }

    #[test]
    fn each_lease_identity_off_by_one_fires_alone() {
        let plants: [fn(&GatewayTelemetry); 4] = [
            |t| t.lease_grants.inc(),
            |t| t.lease_revokes.inc(),
            |t| t.leases_live.add(1),
            |t| t.leases_live.sub(1),
        ];
        for plant in plants {
            let v = check(&scrape(plant), 100).unwrap_err();
            let [Leases { grants_family, .. }] = &v[..] else {
                panic!("{v:?}");
            };
            assert_eq!(grants_family, GRANTS);
        }
        // The same rule over another plane's names.
        let snap = scrape(|t| t.lease_grants.inc());
        let other = leases(&snap, GRANTS, REVOKES, "gateway_queue_highwater");
        assert!(matches!(other, Err(Leases { live: 0, .. })), "{other:?}");
        let absent = leases(&snap, GRANTS, REVOKES, "absent");
        assert_eq!(absent, Err(Missing("absent".into())));
    }

    #[test]
    fn cold_start_without_retirement_fires_alone() {
        let snap = scrape(|t| t.pool_events.inc(telem::POOL_COLD_START));
        let containers = Containers {
            cold_start: 5,
            retired: 4,
        };
        assert_eq!(check(&snap, 100), Err(vec![containers]));
    }

    #[test]
    fn each_missing_family_is_a_violation() {
        for family in FAMILIES {
            let mut snap = scrape(|_| {});
            snap.families.retain(|f| f.name != family);
            let v = check(&snap, 100);
            assert_eq!(v, Err(vec![Missing(family.to_string())]), "{family}");
        }
    }
}
