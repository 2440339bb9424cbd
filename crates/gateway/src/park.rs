//! The gateway's one **waiter-counted park/wake**. An invoker parks on
//! its empty ring and a collector on the completion gate; a producer
//! publishes, then calls [`Park::wake`], which touches the mutex and
//! condvar only while someone is parked (so a busy plane pays one
//! fence and one load per publish) and counts each wake it delivers.
//!
//! **Spin, then park.** A wait on a *hot* `Park` first polls `ready()`
//! for up to `SPIN` (50 µs, capped by the caller's timeout) and returns
//! as soon as it holds. Only then does it register and park. The spin
//! only reads: it takes no lock and leaves `waiters` at zero, so a
//! publish that lands inside it costs its waker one fence and one load,
//! and no wake is counted. A futex wake mostly lands on an idle core
//! and costs microseconds per hand-off (invoker, then collector); while
//! work keeps arriving, a poll catches the publish instead. Between polls
//! the spinner calls `yield_now`, not `spin_loop`, so it gives its core
//! to any runnable thread there, the producer it waits on included.
//!
//! **The hot rule.** After the registered park, the `Park` is hot iff
//! `ready()` holds. A wait that ended with work spins on the next time;
//! a wait that timed out turns the spin off. So an idle consumer (an
//! invoker parking out its 500 µs timeout) spins at most once per
//! request, and an idle gateway does not spin. A new `Park` is cold.
//!
//! **No wake is lost** (a Dekker pairing of two fences). The proof is
//! the registered park's alone: the spin before it only reads. The
//! waker: publish (a store `P`), SeqCst fence `Fw`, load `waiters`. The
//! parker: lock, increment `waiters`, SeqCst fence `Fp`, `ready()`
//! (which loads `P`), wait. The fences are totally ordered. If `Fw`
//! comes first, `ready()` runs after `Fp` and sees `P`: no wait. If
//! `Fp` comes first, the waker sees the increment, made under the
//! lock, and so gets the lock only once the parker has released it,
//! which it does by entering the condvar wait in the same step; the
//! notify then finds it enqueued. Each step
//! carries the proof, and `tests::no_wake_is_lost` fails without any
//! one of them (without the fence in a release build only): `ready()`
//! before the increment misses a publish between the two; without the
//! empty critical section the notify can fire between `ready()` and
//! the wait; without the fence the waker's store can still sit in its
//! store buffer when it reads `waiters == 0`.
//!
//! The notify runs **after** the unlock: notified under the lock, the
//! parker wakes only to block on the mutex the waker still holds.

use std::sync::atomic::{fence, AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use telemetry::Counter;

/// How long a wait on a hot [`Park`] polls before it registers.
const SPIN: Duration = Duration::from_micros(50);

/// A waiter-counted park/wake (see the module doc for the protocol).
pub(crate) struct Park {
    waiters: AtomicUsize,
    /// Whether a wait spins before it registers (the hot rule). A hint
    /// that publishes nothing, so every access is relaxed.
    hot: AtomicBool,
    lock: Mutex<()>,
    cv: Condvar,
    /// Wakes that found a waiter.
    wakes: Arc<Counter>,
}

impl Park {
    pub(crate) fn new(wakes: Arc<Counter>) -> Self {
        Park {
            waiters: AtomicUsize::new(0),
            hot: AtomicBool::new(false),
            lock: Mutex::new(()),
            cv: Condvar::new(),
            wakes,
        }
    }

    /// Wake every parker; call after publishing what `ready` reads.
    #[inline]
    pub(crate) fn wake(&self) {
        fence(Ordering::SeqCst);
        if self.waiters.load(Ordering::Relaxed) > 0 {
            drop(self.lock.lock().unwrap_or_else(|e| e.into_inner()));
            self.cv.notify_all();
            self.wakes.inc();
        }
    }

    /// Wait until `ready()` holds, a [`wake`](Self::wake) or `timeout`:
    /// spin while hot, then park registered. The caller loops on its
    /// own condition.
    pub(crate) fn park_unless(&self, mut timeout: Duration, ready: impl Fn() -> bool) {
        if self.hot.load(Ordering::Relaxed) {
            let start = Instant::now();
            if spin(start, timeout.min(SPIN), &ready) {
                return;
            }
            timeout = timeout.saturating_sub(start.elapsed());
        }
        if !timeout.is_zero() {
            self.park_registered(timeout, &ready);
        }
        self.hot.store(ready(), Ordering::Relaxed);
    }

    /// Park until a [`wake`](Self::wake) or `timeout`, unless `ready()`
    /// holds once registered.
    fn park_registered(&self, timeout: Duration, ready: &impl Fn() -> bool) {
        let guard = self.lock.lock().unwrap_or_else(|e| e.into_inner());
        self.waiters.fetch_add(1, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        if !ready() {
            drop(self.cv.wait_timeout(guard, timeout));
        }
        self.waiters.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Poll `ready()` until it holds (true) or `limit` has passed since
/// `start` (false), yielding the core between polls.
fn spin(start: Instant, limit: Duration, ready: &impl Fn() -> bool) -> bool {
    loop {
        if ready() {
            return true;
        }
        if start.elapsed() >= limit {
            return false;
        }
        std::thread::yield_now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::sync::atomic::{AtomicBool, AtomicU64};
    use std::time::Instant;

    /// A wait that runs this long lost its wake: every round's publish
    /// comes within microseconds of its park.
    const LOST: Duration = Duration::from_secs(10);
    const ROUNDS: u64 = 20_000;

    /// The registered park's model test (the spin before it only reads,
    /// so it drives [`Park::park_registered`] directly): `waiters`
    /// threads wait out `ROUNDS` rounds that each of
    /// `wakers` threads publishes (a plain store of the round number,
    /// then a wake). A round starts when every waiter has finished the
    /// last one. Wakers spin a round-dependent count before publishing
    /// and `ready` spins after its loads, so the publish lands at every
    /// offset from the park, inside each window the protocol closes
    /// too. Returns whether a round lost its wake; the first loss ends
    /// every thread.
    fn lost_a_wake(waiters: u64, wakers: usize) -> bool {
        let park = Park::new(Arc::new(Counter::new()));
        let published: Vec<AtomicU64> = (0..wakers).map(|_| AtomicU64::new(0)).collect();
        let done = AtomicU64::new(0);
        let lost = AtomicBool::new(false);
        let spin = |n: u64| (0..n).for_each(|_| std::hint::spin_loop());
        let ready = |r: u64| {
            lost.load(Ordering::Relaxed) || published.iter().all(|p| p.load(Ordering::Acquire) >= r)
        };
        std::thread::scope(|s| {
            for w in 0..wakers {
                let (park, published, done, lost) = (&park, &published, &done, &lost);
                s.spawn(move || {
                    for r in 1..=ROUNDS {
                        while done.load(Ordering::Acquire) < (r - 1) * waiters {
                            if lost.load(Ordering::Relaxed) {
                                return;
                            }
                            std::hint::spin_loop();
                        }
                        let jitter = (r * 37 + w as u64 * 11) % 400;
                        spin(jitter * jitter / 400);
                        published[w].store(r, Ordering::Release);
                        park.wake();
                    }
                });
            }
            for i in 0..waiters {
                let (park, done, lost) = (&park, &done, &lost);
                s.spawn(move || {
                    for r in 1..=ROUNDS {
                        let start = Instant::now();
                        while !ready(r) {
                            park.park_registered(LOST, &|| {
                                let ok = ready(r);
                                spin((r * 13 + i * 5) % 200);
                                ok
                            });
                            if start.elapsed() >= LOST {
                                lost.store(true, Ordering::Relaxed);
                                park.wake();
                            }
                        }
                        if lost.load(Ordering::Relaxed) {
                            return;
                        }
                        done.fetch_add(1, Ordering::Release);
                    }
                });
            }
        });
        assert_eq!(park.waiters.load(Ordering::Relaxed), 0);
        lost.into_inner()
    }

    #[test]
    fn a_wake_is_counted_only_when_it_finds_a_waiter() {
        let park = Park::new(Arc::new(Counter::new()));
        park.wake();
        assert_eq!(park.wakes.get(), 0, "nobody parked: nothing to count");
        let flag = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                while !flag.load(Ordering::Acquire) {
                    park.park_unless(LOST, || flag.load(Ordering::Acquire));
                }
            });
            while park.waiters.load(Ordering::Relaxed) == 0 {
                std::thread::yield_now();
            }
            flag.store(true, Ordering::Release);
            park.wake();
        });
        assert_eq!(park.wakes.get(), 1);
    }

    /// Run one wait that is ready at its first poll; returns whether
    /// that poll found the waiter registered (false: it spun).
    fn first_poll_registered(park: &Park) -> bool {
        let registered = Cell::new(None);
        park.park_unless(LOST, || {
            if registered.get().is_none() {
                registered.set(Some(park.waiters.load(Ordering::Relaxed) > 0));
            }
            true
        });
        registered.get().expect("polled at least once")
    }

    #[test]
    fn spinning_follows_how_the_last_wait_ended() {
        let park = Park::new(Arc::new(Counter::new()));
        assert!(first_poll_registered(&park), "a new park is cold");
        assert!(!first_poll_registered(&park), "ended ready: spins");
        assert!(!first_poll_registered(&park), "spun to ready: spins on");
        park.park_unless(Duration::from_millis(1), || false);
        assert!(!park.hot.load(Ordering::Relaxed));
        assert!(first_poll_registered(&park), "timed out: registers at once");
        assert_eq!(park.wakes.get(), 0);
    }

    #[test]
    fn a_publish_inside_the_spin_needs_no_wake() {
        let park = Park::new(Arc::new(Counter::new()));
        park.hot.store(true, Ordering::Relaxed);
        let (polls, most_waiters) = (Cell::new(0), Cell::new(0));
        park.park_unless(LOST, || {
            most_waiters.set(most_waiters.get().max(park.waiters.load(Ordering::Relaxed)));
            polls.set(polls.get() + 1);
            // The third poll finds the publish a producer made (and
            // woke for) since the second.
            let published = polls.get() == 3;
            if published {
                park.wake();
            }
            published
        });
        assert_eq!(polls.get(), 3, "returned at the poll that saw it");
        assert_eq!(most_waiters.get(), 0, "never registered");
        assert_eq!(park.wakes.get(), 0, "no wake paid or counted");
        assert!(park.hot.load(Ordering::Relaxed));
    }

    #[test]
    fn no_wake_is_lost() {
        for (waiters, wakers) in [(1, 1), (2, 1), (1, 2), (2, 2)] {
            assert!(
                !lost_a_wake(waiters, wakers),
                "{waiters} waiter(s) against {wakers} waker(s): a round waited out its timeout"
            );
        }
    }
}
