//! The gateway's books, checked: the identities one scrape must satisfy
//! once [`Gateway::shutdown`] has run. By then every invoker is joined,
//! so every pool is retired and published and nothing is in flight, and
//! the scrape alone answers each rule:
//!
//! - `gateway_requests_total`: `completed == accepted` — every admitted
//!   request ran exactly once (`delayed` is a subset of `accepted`);
//! - `accepted + Σ shed_* == offered` — every arrival the caller offered
//!   was admitted or shed with a reason, and none twice;
//! - `grants − revokes == live` over the lease families ([`leases`],
//!   which the pilot plane calls with its own names);
//! - `gateway_pool_events_total`: `cold_start == lru_evict +
//!   keepalive_evict + drain_retired` — each container started left
//!   through exactly one retirement path.
//!
//! A family of [`FAMILIES`] the scrape lacks is a [`Violation`], never a
//! skipped rule.

use crate::Gateway;
use telemetry::{Collected, Snapshot};

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

/// One rule the books break.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// A family the books need is not in the scrape.
    Missing(String),
    /// `completed ≠ accepted`.
    Unfinished { accepted: u64, completed: u64 },
    /// `accepted + shed ≠ offered`.
    Unoffered {
        offered: u64,
        accepted: u64,
        shed: u64,
    },
    /// `grants − revokes ≠ live` over the named grants family.
    Leases {
        grants_family: String,
        grants: u64,
        revokes: u64,
        live: i64,
    },
    /// `cold_start ≠ lru_evict + keepalive_evict + drain_retired`.
    Containers { cold_start: u64, retired: u64 },
}

/// Check every rule of the module doc on `snap`, a scrape taken after
/// [`Gateway::shutdown`], for a run that offered `offered` arrivals.
pub fn check(snap: &Snapshot, offered: u64) -> Result<(), Vec<Violation>> {
    let mut found = missing(snap, &FAMILIES);
    if let Some([accepted, completed, shed]) = requests(snap) {
        if completed != accepted {
            found.push(Violation::Unfinished {
                accepted,
                completed,
            });
        }
        if accepted + shed != offered {
            found.push(Violation::Unoffered {
                offered,
                accepted,
                shed,
            });
        }
    }
    // A missing lease family is already in `found`.
    let lease = leases(snap, GRANTS, REVOKES, LIVE).err();
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

/// `[accepted, completed, Σ shed_*]` over every action.
fn requests(snap: &Snapshot) -> Option<[u64; 3]> {
    let fam = snap.families.iter().find(|f| f.name == REQUESTS)?;
    let mut sums = [0u64; 3];
    for s in &fam.series {
        let outcome = s.labels.iter().find(|(k, _)| k == "outcome");
        let i = match outcome.map(|(_, o)| o.as_str()) {
            Some("accepted") => 0,
            Some("completed") => 1,
            Some(o) if o.starts_with("shed_") => 2,
            _ => continue,
        };
        if let Collected::Counter(v) = s.value {
            sums[i] += v;
        }
    }
    Some(sums)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telem::{self, GatewayTelemetry};
    use telemetry::{one_series, MetricKind};
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
        t.shed_queue_full.add(0, 6);
        t.shed_no_invoker.add(0, 3);
        t.shed_delay_budget.add(0, 1);
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
    }

    #[test]
    fn accepted_past_completed_fires_alone() {
        let v = check(&scrape(|t| t.accepted.inc(0)), 101);
        let unfinished = Unfinished {
            accepted: 91,
            completed: 90,
        };
        assert_eq!(v, Err(vec![unfinished]));
    }

    #[test]
    fn offered_off_balance_fires_alone() {
        for offered in [99, 101] {
            let (accepted, shed) = (90, 10);
            let unoffered = Unoffered {
                offered,
                accepted,
                shed,
            };
            assert_eq!(check(&scrape(|_| {}), offered), Err(vec![unoffered]));
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
