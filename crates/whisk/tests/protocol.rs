//! Protocol-level tests of the FaaS platform: the invocation data path,
//! 503 behaviour, the drain/fast-lane handoff (no request lost), the
//! baseline-OpenWhisk ablation (requests lost), silent-death recovery,
//! timeouts, container-pool saturation failures, and the parked poll
//! loop (no lost wake-up, one poll outstanding, polls on the chain; the
//! timeout scan armed only for the grid ticks a deadline waits for),
//! and what is left of an activation once that scan has retired its
//! record (late completions, drains and fast-lane messages).

use hpcwhisk_whisk::{
    ActivationId, DynamicsMode, FunctionId, FunctionSpec, InvokerId, InvokerState, PollChain,
    WhiskConfig, WhiskEvent, WhiskNote, WhiskSys,
};
use metrics::{Outcome, Shed};
use proptest::prelude::*;
use simcore::{Engine, Outbox, SimDuration, SimRng, SimTime};
use std::collections::BTreeMap;

struct Harness {
    sys: WhiskSys,
    engine: Engine<WhiskEvent>,
    notes: Vec<(SimTime, WhiskNote)>,
}

impl Harness {
    fn new(cfg: WhiskConfig) -> Self {
        Self::bootstrapped_at(cfg, SimTime::ZERO)
    }

    fn bootstrapped_at(cfg: WhiskConfig, t0: SimTime) -> Self {
        let mut sys = WhiskSys::new(cfg, 7);
        let mut engine = Engine::new();
        let mut out = Outbox::new(t0);
        sys.bootstrap(t0, &mut out);
        for (t, e) in out.drain() {
            engine.schedule(t, e);
        }
        Harness {
            sys,
            engine,
            notes: Vec::new(),
        }
    }

    fn run_until(&mut self, horizon: SimTime) {
        let sys = &mut self.sys;
        let notes = &mut self.notes;
        self.engine.run_until(
            horizon,
            &mut |now: SimTime, ev: WhiskEvent, out: &mut Outbox<WhiskEvent>| {
                let mut local = Vec::new();
                sys.handle(now, ev, out, &mut local);
                notes.extend(local.into_iter().map(|n| (now, n)));
            },
        );
    }

    fn apply<R>(
        &mut self,
        t: SimTime,
        f: impl FnOnce(&mut WhiskSys, SimTime, &mut Outbox<WhiskEvent>, &mut Vec<WhiskNote>) -> R,
    ) -> R {
        self.run_until(t);
        let mut out = Outbox::new(t);
        let mut local = Vec::new();
        let r = f(&mut self.sys, t, &mut out, &mut local);
        self.notes.extend(local.into_iter().map(|n| (t, n)));
        for (at, e) in out.drain() {
            self.engine.schedule(at, e);
        }
        r
    }

    fn invoke_at(&mut self, t: SimTime, f: FunctionId) -> Result<ActivationId, Shed> {
        self.apply(t, |sys, now, out, _| sys.invoke(now, f, out))
    }

    fn start_invoker_at(&mut self, t: SimTime, key: u64) -> InvokerId {
        self.apply(t, |sys, now, out, notes| {
            sys.start_invoker(now, key, out, notes)
        })
    }

    fn outcomes(&self) -> Vec<(Outcome, SimTime, SimTime)> {
        self.notes
            .iter()
            .filter_map(|(_, n)| match n {
                WhiskNote::ActivationDone {
                    outcome,
                    submitted,
                    answered,
                    ..
                } => Some((*outcome, *submitted, *answered)),
                _ => None,
            })
            .collect()
    }
}

fn secs(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

#[test]
fn rejects_503_with_no_invokers() {
    let mut h = Harness::new(WhiskConfig::default());
    let f = h
        .sys
        .register_function(FunctionSpec::sleep("f", SimDuration::from_millis(10)));
    let r = h.invoke_at(secs(1), f);
    assert_eq!(r, Err(Shed::NoInvoker));
    assert_eq!(h.sys.counters().rejected_503, 1);
    assert_eq!(h.sys.in_flight(), 0);
}

#[test]
fn warm_invocation_completes_with_calibrated_latency() {
    let mut h = Harness::new(WhiskConfig::default());
    let f = h
        .sys
        .register_function(FunctionSpec::sleep("f", SimDuration::from_millis(10)));
    h.start_invoker_at(secs(0), 1);
    // First call cold-starts; repeat calls should be warm.
    for i in 0..20 {
        let r = h.invoke_at(secs(2 + i), f);
        assert!(r.is_ok());
    }
    h.run_until(secs(60));
    let outs = h.outcomes();
    assert_eq!(outs.len(), 20);
    assert!(outs.iter().all(|(o, _, _)| *o == Outcome::Completed));
    assert_eq!(h.sys.counters().cold_starts, 1);
    assert_eq!(h.sys.counters().warm_starts, 19);
    // Warm latency lands in the paper's ~0.8-1.0 s ballpark.
    let mut lat: Vec<f64> = outs
        .iter()
        .skip(1)
        .map(|(_, s, a)| a.since(*s).as_secs_f64())
        .collect();
    lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = lat[lat.len() / 2];
    assert!(
        (0.6..=1.2).contains(&median),
        "median warm latency {median}s"
    );
}

#[test]
fn drain_reroutes_everything_no_request_lost() {
    // One invoker receives a burst, gets SIGTERM mid-burst, a second
    // invoker picks everything up from the fast lane: zero timeouts.
    let mut h = Harness::new(WhiskConfig::default());
    let f = h
        .sys
        .register_function(FunctionSpec::sleep("f", SimDuration::from_millis(10)));
    h.start_invoker_at(secs(0), 1);
    for i in 0..40 {
        let _ = h.invoke_at(secs(2) + SimDuration::from_millis(i * 20), f);
    }
    // SIGTERM arrives while much of the burst is still queued.
    h.apply(
        secs(2) + SimDuration::from_millis(450),
        |sys, now, out, notes| sys.sigterm_invoker(now, InvokerId(1), out, notes),
    );
    h.start_invoker_at(secs(3), 2);
    h.run_until(secs(120));
    let outs = h.outcomes();
    assert_eq!(outs.len(), 40, "every request answered");
    let succ = outs
        .iter()
        .filter(|(o, _, _)| *o == Outcome::Completed)
        .count();
    assert_eq!(succ, 40, "no request lost during drain");
    assert_eq!(h.sys.counters().timeout, 0);
    assert!(h.sys.counters().moved_to_fastlane + h.sys.counters().refired > 0);
    assert_eq!(h.sys.counters().drains_clean, 1);
    // The drained invoker de-registered cleanly.
    assert!(h.notes.iter().any(|(_, n)| matches!(
        n,
        WhiskNote::InvokerGone { inv, clean: true } if *inv == InvokerId(1)
    )));
}

#[test]
fn baseline_mode_loses_silently_dead_invokers_queue() {
    let cfg = WhiskConfig {
        mode: DynamicsMode::Baseline,
        ..WhiskConfig::default()
    };
    let mut h = Harness::new(cfg);
    let fns: Vec<FunctionId> = (0..20)
        .map(|i| {
            h.sys.register_function(FunctionSpec::sleep(
                &format!("f{i}"),
                SimDuration::from_millis(10),
            ))
        })
        .collect();
    h.start_invoker_at(secs(0), 1);
    h.start_invoker_at(secs(0), 2);
    h.run_until(secs(5));
    // Kill invoker 1 silently, then send a burst: requests hashed to it
    // keep landing in its topic until the death is noticed.
    h.apply(secs(5), |sys, now, out, notes| {
        sys.kill_invoker(now, InvokerId(1), out, notes)
    });
    for i in 0..30u64 {
        let _ = h.invoke_at(
            secs(6) + SimDuration::from_millis(i * 100),
            fns[(i % 20) as usize],
        );
    }
    h.run_until(secs(120));
    let outs = h.outcomes();
    assert_eq!(outs.len(), 30);
    let timeouts = outs
        .iter()
        .filter(|(o, _, _)| *o == Outcome::TimedOut)
        .count();
    let succ = outs
        .iter()
        .filter(|(o, _, _)| *o == Outcome::Completed)
        .count();
    // Exactly the requests routed to the dead invoker time out.
    assert!(timeouts > 0, "baseline must lose the dead invoker's queue");
    assert_eq!(timeouts + succ, 30);
    assert_eq!(h.sys.counters().dropped_after_death as usize, timeouts);
}

#[test]
fn hpcwhisk_mode_recovers_silently_dead_invokers_queue() {
    let mut h = Harness::new(WhiskConfig::default());
    let fns: Vec<FunctionId> = (0..20)
        .map(|i| {
            h.sys.register_function(FunctionSpec::sleep(
                &format!("f{i}"),
                SimDuration::from_millis(10),
            ))
        })
        .collect();
    h.start_invoker_at(secs(0), 1);
    h.start_invoker_at(secs(0), 2);
    h.run_until(secs(5));
    h.apply(secs(5), |sys, now, out, notes| {
        sys.kill_invoker(now, InvokerId(1), out, notes)
    });
    for i in 0..30u64 {
        let _ = h.invoke_at(
            secs(6) + SimDuration::from_millis(i * 100),
            fns[(i % 20) as usize],
        );
    }
    h.run_until(secs(120));
    let outs = h.outcomes();
    assert_eq!(outs.len(), 30);
    let succ = outs
        .iter()
        .filter(|(o, _, _)| *o == Outcome::Completed)
        .count();
    // Requests that were still unpulled in the dead invoker's topic get
    // recovered to the fast lane once the death is noticed (only those
    // pulled into the dead invoker's buffer could be lost; none here,
    // since it was killed before the burst).
    assert_eq!(succ, 30, "HPC-Whisk recovers the orphaned queue");
    assert!(h.sys.counters().recovered_after_death > 0);
    assert_eq!(h.sys.counters().hard_deaths, 1);
}

#[test]
fn requests_during_zero_workers_wait_in_fast_lane_or_reject() {
    let mut h = Harness::new(WhiskConfig::default());
    let f = h
        .sys
        .register_function(FunctionSpec::sleep("f", SimDuration::from_millis(10)));
    // No invokers yet: rejected.
    assert_eq!(h.invoke_at(secs(1), f), Err(Shed::NoInvoker));
    // Invoker appears; accepted request during its life but enqueued to
    // it right as it drains → lands in fast lane → next invoker serves.
    h.start_invoker_at(secs(2), 1);
    let r = h.invoke_at(secs(3), f);
    assert!(r.is_ok());
    h.apply(
        secs(3) + SimDuration::from_millis(1),
        |sys, now, out, notes| sys.sigterm_invoker(now, InvokerId(1), out, notes),
    );
    h.run_until(secs(10));
    // Not answered yet (no invoker), should be waiting in fast lane.
    assert_eq!(h.outcomes().len(), 0);
    assert!(h.sys.fast_lane_depth() > 0);
    h.start_invoker_at(secs(12), 2);
    h.run_until(secs(60));
    let outs = h.outcomes();
    assert_eq!(outs.len(), 1);
    assert_eq!(outs[0].0, Outcome::Completed);
}

#[test]
fn unanswered_requests_time_out_at_deadline() {
    let cfg = WhiskConfig {
        deadline: SimDuration::from_secs(10),
        ..WhiskConfig::default()
    };
    let mut h = Harness::new(cfg);
    let f = h
        .sys
        .register_function(FunctionSpec::sleep("f", SimDuration::from_millis(10)));
    h.start_invoker_at(secs(0), 1);
    let r = h.invoke_at(secs(1), f);
    let Ok(_act) = r else { panic!() };
    // Invoker dies silently right away; no other invoker ever comes.
    h.apply(
        secs(1) + SimDuration::from_millis(10),
        |sys, now, out, notes| sys.kill_invoker(now, InvokerId(1), out, notes),
    );
    h.run_until(secs(30));
    let outs = h.outcomes();
    assert_eq!(outs.len(), 1);
    assert_eq!(outs[0].0, Outcome::TimedOut);
    // Timeout declared near the 10 s deadline (within scan cadence).
    let answered = outs[0].2;
    assert!(
        answered >= secs(11) && answered <= secs(13),
        "at {answered}"
    );
    assert_eq!(h.sys.counters().timeout, 1);
}

#[test]
fn cold_start_saturation_fails_activations() {
    // A single invoker with tiny cold concurrency and many distinct
    // functions: container churn must produce Failed outcomes — the
    // paper's "upper limit of concurrently running container processes"
    // failure mode (§V-C).
    let cfg = WhiskConfig {
        container_slots: 4,
        cold_concurrency: 1,
        buffer_max: 32,
        ..WhiskConfig::default()
    };
    let mut h = Harness::new(cfg);
    let fns: Vec<FunctionId> = (0..50)
        .map(|i| {
            h.sys.register_function(FunctionSpec::sleep(
                &format!("f{i}"),
                SimDuration::from_millis(10),
            ))
        })
        .collect();
    h.start_invoker_at(secs(0), 1);
    for i in 0..200u64 {
        let f = fns[(i % 50) as usize];
        let _ = h.invoke_at(secs(1) + SimDuration::from_millis(i * 25), f);
    }
    h.run_until(secs(180));
    let outs = h.outcomes();
    assert_eq!(outs.len(), 200, "every request eventually answered");
    let failed = outs
        .iter()
        .filter(|(o, _, _)| *o == Outcome::Failed)
        .count();
    let succ = outs
        .iter()
        .filter(|(o, _, _)| *o == Outcome::Completed)
        .count();
    let timeout = outs
        .iter()
        .filter(|(o, _, _)| *o == Outcome::TimedOut)
        .count();
    assert!(failed > 0, "saturated cold starts must fail some requests");
    assert!(succ > 0, "the node keeps serving through the churn");
    assert!(failed < 200, "not everything fails");
    assert_eq!(succ + failed + timeout, 200);
}

#[test]
fn routing_sticks_to_home_invoker_for_warm_affinity() {
    let mut h = Harness::new(WhiskConfig::default());
    let f = h
        .sys
        .register_function(FunctionSpec::sleep("f", SimDuration::from_millis(10)));
    for k in 1..=4 {
        h.start_invoker_at(secs(0), k);
    }
    for i in 0..30 {
        let _ = h.invoke_at(secs(2 + i), f);
    }
    h.run_until(secs(60));
    // One cold start total: every call of the same function landed on
    // the same (home) invoker.
    assert_eq!(h.sys.counters().cold_starts, 1);
    assert_eq!(h.sys.counters().warm_starts, 29);
}

#[test]
fn healthy_series_tracks_lifecycle() {
    let mut h = Harness::new(WhiskConfig::default());
    h.start_invoker_at(secs(0), 1);
    h.start_invoker_at(secs(10), 2);
    h.apply(secs(20), |sys, now, out, notes| {
        sys.sigterm_invoker(now, InvokerId(1), out, notes)
    });
    h.run_until(secs(40));
    let s = h.sys.series();
    assert_eq!(s.healthy.value_at(secs(5)), 1.0);
    assert_eq!(s.healthy.value_at(secs(15)), 2.0);
    assert_eq!(s.healthy.value_at(secs(25)), 1.0);
    // Draining counted as irresponsive until de-registration.
    assert_eq!(s.irresp.value_at(secs(20)), 1.0);
    assert_eq!(s.irresp.value_at(secs(30)), 0.0);
    assert_eq!(h.sys.n_healthy(), 1);
}

#[test]
fn interruptible_execution_rerouted_on_drain() {
    // A long-running interruptible function is aborted at SIGTERM and
    // re-executed elsewhere; attempts > 1 in the final note.
    let mut h = Harness::new(WhiskConfig::default());
    let f = h
        .sys
        .register_function(FunctionSpec::sleep("slow", SimDuration::from_secs(20)));
    h.start_invoker_at(secs(0), 1);
    let r = h.invoke_at(secs(1), f);
    assert!(r.is_ok());
    // Let it start executing, then SIGTERM.
    h.apply(secs(3), |sys, now, out, notes| {
        sys.sigterm_invoker(now, InvokerId(1), out, notes)
    });
    h.start_invoker_at(secs(4), 2);
    h.run_until(secs(90));
    let done: Vec<_> = h
        .notes
        .iter()
        .filter_map(|(_, n)| match n {
            WhiskNote::ActivationDone {
                outcome, attempts, ..
            } => Some((*outcome, *attempts)),
            _ => None,
        })
        .collect();
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].0, Outcome::Completed);
    assert!(done[0].1 >= 2, "re-routed execution has attempts >= 2");
}

#[test]
fn non_interruptible_execution_completes_during_drain() {
    let mut h = Harness::new(WhiskConfig::default());
    let f = h.sys.register_function(
        FunctionSpec::sleep("careful", SimDuration::from_millis(500)).non_interruptible(),
    );
    h.start_invoker_at(secs(0), 1);
    let _ = h.invoke_at(secs(1), f);
    // SIGTERM while executing; the run must be allowed to finish
    // (drain_flush 1.5 s > remaining exec time).
    h.apply(secs(2), |sys, now, out, notes| {
        sys.sigterm_invoker(now, InvokerId(1), out, notes)
    });
    h.run_until(secs(30));
    let outs = h.outcomes();
    assert_eq!(outs.len(), 1);
    assert_eq!(outs[0].0, Outcome::Completed);
    assert_eq!(h.sys.counters().refired, 0);
}

// ---------------------------------------------------------------------
// Retired records
// ---------------------------------------------------------------------

/// A 70 s (interruptible) sleep under the 60 s deadline, accepted at 1 s
/// on invoker 1 and timed out while executing: `(harness, function)`.
fn overlong_execution() -> (Harness, FunctionId) {
    let mut h = Harness::new(WhiskConfig::default());
    let f = h
        .sys
        .register_function(FunctionSpec::sleep("slow", SimDuration::from_secs(70)));
    h.start_invoker_at(secs(0), 1);
    let Ok(act) = h.invoke_at(secs(1), f) else {
        panic!("a healthy invoker is registered")
    };
    // Still executing when the scan at 61 s answers for it and retires
    // the record.
    h.run_until(secs(62));
    assert_eq!(h.outcomes().len(), 1);
    assert_eq!(h.outcomes()[0].0, Outcome::TimedOut);
    assert!(h.sys.record(act).is_none(), "retired by the scan");
    (h, f)
}

#[test]
fn late_exec_done_of_a_retired_activation_keeps_its_container_warm_and_answers_nothing() {
    let (mut h, f) = overlong_execution();
    // ExecDone at ~72 s: nothing left to answer, but the container it
    // frees is one of *this* function — which only the invoker's own
    // books still know.
    h.run_until(secs(80));
    assert_eq!(h.outcomes().len(), 1, "a late result answers nothing");
    assert_eq!(h.sys.counters().success, 0);
    assert_eq!(h.sys.counters().cold_starts, 1);
    let _ = h.invoke_at(secs(80), f);
    h.run_until(secs(85));
    assert_eq!(h.sys.counters().cold_starts, 1, "no second container");
    assert_eq!(
        h.sys.counters().warm_starts,
        1,
        "the released one is reused"
    );
}

#[test]
fn sigterm_over_a_retired_interruptible_execution_refires_nothing() {
    let (mut h, _) = overlong_execution();
    // The drain aborts the execution (the unit test next to
    // `sigterm_invoker` sees the slot freed), with no client left to
    // re-route it for.
    h.apply(secs(62), |sys, now, out, notes| {
        sys.sigterm_invoker(now, InvokerId(1), out, notes)
    });
    assert_eq!(h.sys.counters().refired, 0);
    assert_eq!(h.sys.fast_lane_depth(), 0);
    // The invoker de-registers on schedule; the ExecDone at ~72 s finds
    // nobody.
    h.run_until(secs(120));
    assert_eq!(h.outcomes().len(), 1, "the timeout stays the only answer");
    assert_eq!(h.sys.counters().drains_clean, 1);
    assert_eq!(h.sys.invoker_status(InvokerId(1)), None);
    assert_eq!(h.engine.pending(), 0);
}

#[test]
fn fast_lane_message_of_a_retired_activation_is_fetched_and_dropped() {
    let mut h = Harness::new(WhiskConfig::default());
    let f = h
        .sys
        .register_function(FunctionSpec::sleep("f", SimDuration::from_millis(10)));
    h.start_invoker_at(secs(0), 1);
    let Ok(act) = h.invoke_at(secs(1), f) else {
        panic!("a healthy invoker is registered")
    };
    // Drained before the message is visible: it lands in the fast lane
    // and nobody is left to fetch it.
    h.apply(
        secs(1) + SimDuration::from_millis(1),
        |sys, now, out, notes| sys.sigterm_invoker(now, InvokerId(1), out, notes),
    );
    h.run_until(secs(70));
    assert_eq!(h.outcomes().len(), 1);
    assert_eq!(h.outcomes()[0].0, Outcome::TimedOut);
    assert!(h.sys.record(act).is_none());
    assert_eq!(
        h.sys.fast_lane_depth(),
        1,
        "the message outlives its record"
    );
    // The next invoker's first poll takes it off the lane and drops it:
    // no container, no second answer, and the loop parks on an empty
    // buffer.
    h.start_invoker_at(secs(70), 2);
    h.run_until(secs(80));
    assert_eq!(h.sys.fast_lane_depth(), 0);
    assert_eq!(h.outcomes().len(), 1);
    assert_eq!(
        h.sys.counters().cold_starts + h.sys.counters().warm_starts,
        0
    );
    assert_eq!(h.sys.counters().polls_parked, 2, "one per invoker");
    assert_eq!(h.engine.pending(), 0);
    // Routing pressure went back to zero with the drop: the next request
    // is served at once.
    let _ = h.invoke_at(secs(80), f);
    h.run_until(secs(90));
    assert_eq!(h.outcomes().len(), 2);
    assert_eq!(h.outcomes()[1].0, Outcome::Completed);
}

// ---------------------------------------------------------------------
// Parked poll loops
// ---------------------------------------------------------------------

/// The function (of `fns`) whose next invocation the controller routes
/// to `inv`, found by invoking until one lands there.
fn invoke_routed_to(h: &mut Harness, t: SimTime, fns: &[FunctionId], inv: InvokerId) {
    for &f in fns {
        if let Ok(act) = h.invoke_at(t, f) {
            if h.sys.record(act).and_then(|r| r.assigned) == Some(inv) {
                return;
            }
        }
    }
    panic!("no function routes to {inv}");
}

fn twenty_fns(h: &mut Harness) -> Vec<FunctionId> {
    (0..20)
        .map(|i| {
            h.sys.register_function(FunctionSpec::sleep(
                &format!("f{i}"),
                SimDuration::from_millis(10),
            ))
        })
        .collect()
}

#[test]
fn idle_invokers_park_after_one_poll_and_a_produce_wakes_only_its_target() {
    let mut h = Harness::new(WhiskConfig::default());
    let f = h
        .sys
        .register_function(FunctionSpec::sleep("f", SimDuration::from_millis(10)));
    h.start_invoker_at(secs(0), 1);
    h.start_invoker_at(secs(0), 2);
    h.run_until(secs(3_600));
    // An idle hour costs one poll per invoker and no scan at all.
    assert_eq!(h.sys.counters().polls, 2);
    assert_eq!(h.sys.counters().polls_parked, 2);
    assert_eq!(h.sys.counters().timeout_scans, 0);
    assert_eq!(h.engine.steps(), 2);

    let r = h.invoke_at(secs(3_600), f);
    assert!(r.is_ok());
    h.run_until(secs(3_700));
    let outs = h.outcomes();
    assert_eq!(outs.len(), 1);
    assert_eq!(outs[0].0, Outcome::Completed);
    // Picked up within one poll interval of becoming visible, as by a
    // loop that never stopped: ctrl + kafka ≤ 75 ms, tick gap ≤ 230 ms.
    let rtt = outs[0].2.since(outs[0].1).as_millis();
    assert!(rtt < 75 + 230 + 450 + 400 + 10 + 110 + 330, "rtt {rtt} ms");
    // The other invoker slept through it: one wake-up poll for the home
    // invoker, which found the message, started it and parked again.
    assert_eq!(h.sys.counters().polls, 3);
    assert_eq!(h.sys.counters().polls_parked, 3);
}

#[test]
fn produce_to_a_parked_corpse_wakes_nothing_and_the_health_timeout_recovers_it() {
    let mut h = Harness::new(WhiskConfig::default());
    let fns = twenty_fns(&mut h);
    h.start_invoker_at(secs(0), 1);
    h.start_invoker_at(secs(0), 2);
    h.run_until(secs(5));
    assert_eq!(h.sys.counters().polls_parked, 2);
    h.apply(secs(5), |sys, now, out, notes| {
        sys.kill_invoker(now, InvokerId(1), out, notes)
    });
    invoke_routed_to(&mut h, secs(6), &fns, InvokerId(1));
    let accepted = h.sys.counters().submitted - h.sys.counters().rejected_503;
    // Delivered to the corpse's topic; its loop stays dead. (Requests
    // that went to invoker 2 on the way woke invoker 2 alone.)
    h.run_until(secs(14));
    let polls_before_notice = h.sys.counters().polls;
    assert!(matches!(
        h.sys.invoker_status(InvokerId(1)),
        Some((InvokerState::DeadUnnoticed, 1))
    ));
    assert_eq!(h.outcomes().len() as u64, accepted - 1);
    // Death noticed at 15 s: the orphan moves to the fast lane, which
    // wakes the parked survivor.
    h.run_until(secs(30));
    assert_eq!(h.sys.invoker_status(InvokerId(1)), None);
    assert_eq!(h.sys.counters().recovered_after_death, 1);
    assert_eq!(h.sys.counters().polls, polls_before_notice + 1);
    let outs = h.outcomes();
    assert_eq!(outs.len() as u64, accepted);
    assert!(outs.iter().all(|(o, _, _)| *o == Outcome::Completed));
}

#[test]
fn baseline_mode_parks_too_ignores_sigterm_and_times_the_orphan_out() {
    let cfg = WhiskConfig {
        mode: DynamicsMode::Baseline,
        ..WhiskConfig::default()
    };
    let mut h = Harness::new(cfg);
    let fns = twenty_fns(&mut h);
    h.start_invoker_at(secs(0), 1);
    h.start_invoker_at(secs(0), 2);
    h.run_until(secs(5));
    assert_eq!(h.sys.counters().polls_parked, 2);
    // Stock OpenWhisk ignores SIGTERM: the parked invoker stays healthy
    // and a later produce still wakes it.
    h.apply(secs(5), |sys, now, out, notes| {
        sys.sigterm_invoker(now, InvokerId(2), out, notes)
    });
    invoke_routed_to(&mut h, secs(6), &fns, InvokerId(2));
    h.run_until(secs(10));
    let served = h.outcomes();
    assert!(!served.is_empty());
    assert!(served.iter().all(|(o, _, _)| *o == Outcome::Completed));
    // A corpse's topic is dropped at the health timeout, nothing is
    // woken for it, and the lazily armed scan declares the timeout.
    h.apply(secs(10), |sys, now, out, notes| {
        sys.kill_invoker(now, InvokerId(1), out, notes)
    });
    invoke_routed_to(&mut h, secs(11), &fns, InvokerId(1));
    h.run_until(secs(120));
    assert_eq!(h.sys.counters().dropped_after_death, 1);
    let outs = h.outcomes();
    let accepted = h.sys.counters().submitted - h.sys.counters().rejected_503;
    assert_eq!(outs.len() as u64, accepted);
    let timeouts = outs
        .iter()
        .filter(|(o, _, _)| *o == Outcome::TimedOut)
        .count();
    assert_eq!(timeouts, 1);
}

#[test]
fn lazy_timeout_scan_answers_on_the_grid_instant_an_always_armed_scan_would() {
    // Grid anchored off the second: scans at 0.35 s + k * 1 s.
    let t0 = SimTime::from_millis(350);
    let mut h = Harness::bootstrapped_at(WhiskConfig::default(), t0);
    let f = h
        .sys
        .register_function(FunctionSpec::sleep("f", SimDuration::from_millis(10)));
    h.start_invoker_at(secs(1), 1);
    h.run_until(secs(2));
    h.apply(secs(2), |sys, now, out, notes| {
        sys.kill_invoker(now, InvokerId(1), out, notes)
    });
    // Accepted by the corpse (Baseline-like loss: nobody else to recover
    // to), deadlines 62.1 s, 62.3 s and 63.0 s.
    for ms in [2_100, 2_300, 3_000] {
        let r = h.invoke_at(SimTime::from_millis(ms), f);
        assert!(r.is_ok());
    }
    h.run_until(secs(200));
    let declared: Vec<SimTime> = h
        .notes
        .iter()
        .filter_map(|(at, n)| match n {
            WhiskNote::ActivationDone {
                outcome: Outcome::TimedOut,
                ..
            } => Some(*at),
            _ => None,
        })
        .collect();
    // First grid tick at or after each deadline.
    assert_eq!(
        declared,
        vec![
            SimTime::from_millis(62_350),
            SimTime::from_millis(62_350),
            SimTime::from_millis(63_350)
        ]
    );
    // Two ticks had a deadline waiting; the other ~198 were never run.
    assert_eq!(h.sys.counters().timeout_scans, 2);
}

/// One step of the park/wake audit, applied after advancing the clock.
#[derive(Debug, Clone)]
enum ParkOp {
    Invoke { f: usize },
    Start,
    Sigterm { pick: usize },
    Kill { pick: usize },
    Wait,
}

fn park_op_strategy() -> impl Strategy<Value = (u64, ParkOp)> {
    let dt = prop_oneof![0u64..40, 40u64..700, 1_000u64..14_000];
    let op = prop_oneof![
        (0usize..6).prop_map(|f| ParkOp::Invoke { f }),
        (0usize..6).prop_map(|f| ParkOp::Invoke { f }),
        (0usize..6).prop_map(|f| ParkOp::Invoke { f }),
        Just(ParkOp::Start),
        (0usize..8).prop_map(|pick| ParkOp::Sigterm { pick }),
        (0usize..8).prop_map(|pick| ParkOp::Kill { pick }),
        Just(ParkOp::Wait),
    ];
    (dt, op)
}

const AUDIT_SEED: u64 = 7; // the seed `Harness` gives `WhiskSys`

/// The audit's own books: what it saw scheduled and dispatched, and each
/// invoker's tick chain rebuilt from `(seed, key, start)` alone, through
/// the float path ([`WhiskConfig::jitter`]) and not the platform's
/// tables: the next tick and the chain's stream.
struct ParkAudit {
    cfg: WhiskConfig,
    outstanding: BTreeMap<InvokerId, i64>,
    chains: BTreeMap<InvokerId, (SimTime, SimRng)>,
    /// Every accepted activation with its deadline, in id order.
    deadlines: Vec<(ActivationId, SimTime)>,
    /// Instant of the latest timeout scan dispatched.
    scanned: SimTime,
}

impl ParkAudit {
    fn scheduled(&mut self, ev: &WhiskEvent) {
        if let WhiskEvent::InvokerPoll(id) = ev {
            *self.outstanding.entry(*id).or_default() += 1;
        }
    }

    /// Register the next invoker and rebuild its chain independently.
    fn start(
        &mut self,
        sys: &mut WhiskSys,
        t: SimTime,
        keys: &mut Vec<u64>,
        out: &mut Outbox<WhiskEvent>,
        notes: &mut Vec<WhiskNote>,
    ) {
        let key = keys.len() as u64 + 1;
        keys.push(key);
        sys.start_invoker(t, key, out, notes);
        let mut rng = PollChain::stream(AUDIT_SEED, key);
        let first = t + self.cfg.jitter(self.cfg.poll_interval, &mut rng);
        self.chains.insert(InvokerId(key), (first, rng));
    }

    /// (c): an executing poll sits on its invoker's chain.
    fn dispatching(&mut self, now: SimTime, ev: &WhiskEvent) {
        if let WhiskEvent::InvokerPoll(id) = ev {
            *self.outstanding.get_mut(id).expect("poll never scheduled") -= 1;
            let (next, rng) = self.chains.get_mut(id).expect("poll for unknown invoker");
            while *next < now {
                *next += self.cfg.jitter(self.cfg.poll_interval, rng);
            }
            assert_eq!(*next, now, "{id} polled at {now}, off its chain");
        }
        if let WhiskEvent::TimeoutScan = ev {
            self.scanned = now;
        }
    }

    /// (a) and (b), after every step; and (d): the controller holds the
    /// record of exactly the activations whose deadline no scan has
    /// passed — ids in a row, so nothing before, between or after.
    fn check(&self, sys: &WhiskSys, now: SimTime) {
        for (id, n) in &self.outstanding {
            assert!((0..=1).contains(n), "{id}: {n} polls outstanding at {now}");
            let Some((InvokerState::Healthy, depth)) = sys.invoker_status(*id) else {
                continue;
            };
            if *n == 0 {
                assert_eq!(depth, 0, "{id} sleeps on its own topic at {now}");
                assert_eq!(
                    sys.fast_lane_depth(),
                    0,
                    "{id} sleeps on the fast lane at {now}"
                );
            }
        }
        for (k, (act, deadline)) in self.deadlines.iter().enumerate() {
            assert_eq!(*act, ActivationId(k as u64), "ids are handed out in a row");
            let live = sys.record(*act).is_some();
            assert_eq!(
                live,
                *deadline > self.scanned,
                "{act} (deadline {deadline}) live = {live} at {now}, last scan {}",
                self.scanned
            );
        }
        let next = ActivationId(self.deadlines.len() as u64);
        assert!(sys.record(next).is_none(), "{next} was never accepted");
    }
}

/// The audit under `cfg`, over six functions that alternately sleep
/// `exec_ms[0]` and `exec_ms[1]`.
fn run_park_audit(cfg: WhiskConfig, exec_ms: [u64; 2], steps: Vec<(u64, ParkOp)>) {
    let mut h = Harness::new(cfg.clone());
    let fns: Vec<FunctionId> = (0..6)
        .map(|i| {
            h.sys.register_function(FunctionSpec::sleep(
                &format!("f{i}"),
                SimDuration::from_millis(exec_ms[i % 2]),
            ))
        })
        .collect();
    let mut audit = ParkAudit {
        cfg,
        outstanding: BTreeMap::new(),
        chains: BTreeMap::new(),
        deadlines: Vec::new(),
        scanned: SimTime::ZERO,
    };
    let mut keys: Vec<u64> = Vec::new();
    let mut accepted = 0usize;
    let mut t = SimTime::ZERO;

    // Dispatch everything before `until`, auditing around each event.
    fn drain_to(h: &mut Harness, audit: &mut ParkAudit, until: SimTime) {
        let Harness { sys, engine, notes } = h;
        engine.run_until(
            until,
            &mut |now: SimTime, ev: WhiskEvent, out: &mut Outbox<WhiskEvent>| {
                audit.dispatching(now, &ev);
                let mut staged = Outbox::new(now);
                let mut local = Vec::new();
                sys.handle(now, ev, &mut staged, &mut local);
                notes.extend(local.into_iter().map(|n| (now, n)));
                for (at, e) in staged.drain() {
                    audit.scheduled(&e);
                    out.at(at, e);
                }
                audit.check(sys, now);
            },
        );
    }

    for (dt_ms, op) in steps {
        t += SimDuration::from_millis(dt_ms);
        drain_to(&mut h, &mut audit, t);
        let mut out = Outbox::new(t);
        let mut local = Vec::new();
        match op {
            ParkOp::Invoke { f } => {
                let r = h.sys.invoke(t, fns[f], &mut out);
                if let Ok(act) = r {
                    accepted += 1;
                    audit.deadlines.push((act, t + audit.cfg.deadline));
                }
            }
            ParkOp::Start => audit.start(&mut h.sys, t, &mut keys, &mut out, &mut local),
            ParkOp::Sigterm { pick } if !keys.is_empty() => {
                let id = InvokerId(keys[pick % keys.len()]);
                h.sys.sigterm_invoker(t, id, &mut out, &mut local);
            }
            ParkOp::Kill { pick } if !keys.is_empty() => {
                let id = InvokerId(keys[pick % keys.len()]);
                h.sys.kill_invoker(t, id, &mut out, &mut local);
            }
            _ => {}
        }
        h.notes.extend(local.into_iter().map(|n| (t, n)));
        for (at, e) in out.drain() {
            audit.scheduled(&e);
            h.engine.schedule(at, e);
        }
        audit.check(&h.sys, t);
    }

    // A last invoker drains whatever waits in the fast lane; everything
    // accepted is answered (served, failed or timed out — never lost).
    t += SimDuration::from_secs(1);
    drain_to(&mut h, &mut audit, t);
    let mut out = Outbox::new(t);
    audit.start(&mut h.sys, t, &mut keys, &mut out, &mut Vec::new());
    for (at, e) in out.drain() {
        audit.scheduled(&e);
        h.engine.schedule(at, e);
    }
    drain_to(&mut h, &mut audit, t + SimDuration::from_secs(180));
    assert_eq!(h.outcomes().len(), accepted, "an accepted request was lost");
    let answered: std::collections::BTreeSet<ActivationId> = h
        .notes
        .iter()
        .filter_map(|(_, n)| match n {
            WhiskNote::ActivationDone { act, .. } => Some(*act),
            _ => None,
        })
        .collect();
    assert_eq!(answered.len(), accepted, "an activation was answered twice");
    assert_eq!(h.sys.fast_lane_depth(), 0);
    // Quiescence: every loop is parked, no scan armed — nothing queued.
    assert_eq!(h.engine.pending(), 0, "events left with no work to do");
}

/// Execution times (ms) long enough that drains catch running
/// executions, and far below the 60 s deadline.
const DRAINS_CATCH_EXECUTIONS: [u64; 2] = [100, 800];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random interleavings of client and lifecycle calls with event
    /// dispatch: no lost wake-up, at most one poll outstanding per
    /// invoker, every poll on its invoker's recomputed chain, and the
    /// live record window exactly the ids with a pending deadline.
    #[test]
    fn prop_parked_loops_never_sleep_on_work(
        steps in proptest::collection::vec(park_op_strategy(), 1..120),
    ) {
        run_park_audit(WhiskConfig::default(), DRAINS_CATCH_EXECUTIONS, steps);
    }

    /// The same under stock-OpenWhisk dynamics (SIGTERM ignored, a
    /// noticed corpse's topic dropped instead of recovered).
    #[test]
    fn prop_parked_loops_never_sleep_on_work_baseline(
        steps in proptest::collection::vec(park_op_strategy(), 1..120),
    ) {
        let cfg = WhiskConfig {
            mode: DynamicsMode::Baseline,
            ..WhiskConfig::default()
        };
        run_park_audit(cfg, DRAINS_CATCH_EXECUTIONS, steps);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The same audit with a 3 s deadline under executions of 0.4 s and
    /// 6 s: records are retired while their activation still waits in a
    /// topic, the fast lane or a buffer, boots a container or executes,
    /// so late `ColdStartDone`s and `ExecDone`s, drains over retired
    /// executions and fetches of retired messages all happen — and
    /// every accepted request is still answered exactly once, with the
    /// live window exactly the ids with a pending deadline.
    #[test]
    fn prop_retired_records_answer_once_and_leave_nothing_behind(
        steps in proptest::collection::vec(park_op_strategy(), 1..120),
    ) {
        let cfg = WhiskConfig {
            deadline: SimDuration::from_secs(3),
            ..WhiskConfig::default()
        };
        run_park_audit(cfg, [400, 6_000], steps);
    }
}
