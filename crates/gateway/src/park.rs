//! The gateway's one **waiter-counted park/wake**. An invoker parks on
//! its empty ring and a collector on the completion gate; a producer
//! publishes, then calls [`Park::wake`], which touches the mutex and
//! condvar only while someone is parked (so a busy plane pays one
//! fence and one load per publish) and counts each wake it delivers.
//!
//! **No wake is lost** (a Dekker pairing of two fences). The waker:
//! publish (a store `P`), SeqCst fence `Fw`, load `waiters`. The parker:
//! lock, increment `waiters`, SeqCst fence `Fp`, `ready()` (which loads
//! `P`), wait. The fences are totally ordered. If `Fw` comes first, `ready()` runs after `Fp` and
//! sees `P`: no wait. If `Fp` comes first, the waker sees the
//! increment, made under the lock, and so gets the lock only once the
//! parker has released it, which it does by entering the condvar wait
//! in the same step; the notify then finds it enqueued. Each step
//! carries the proof, and `tests::no_wake_is_lost` fails without any
//! one of them (without the fence in a release build only): `ready()`
//! before the increment misses a publish between the two; without the
//! empty critical section the notify can fire between `ready()` and
//! the wait; without the fence the waker's store can still sit in its
//! store buffer when it reads `waiters == 0`.
//!
//! The notify runs **after** the unlock: notified under the lock, the
//! parker wakes only to block on the mutex the waker still holds.

use std::sync::atomic::{fence, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;
use telemetry::Counter;

/// A waiter-counted park/wake (see the module doc for the protocol).
pub(crate) struct Park {
    waiters: AtomicUsize,
    lock: Mutex<()>,
    cv: Condvar,
    /// Wakes that found a waiter.
    wakes: Arc<Counter>,
}

impl Park {
    pub(crate) fn new(wakes: Arc<Counter>) -> Self {
        Park {
            waiters: AtomicUsize::new(0),
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

    /// Park until a [`wake`](Self::wake) or `timeout`, unless `ready()`
    /// holds once registered. The caller loops on its own condition.
    pub(crate) fn park_unless(&self, timeout: Duration, ready: impl Fn() -> bool) {
        let guard = self.lock.lock().unwrap_or_else(|e| e.into_inner());
        self.waiters.fetch_add(1, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        if !ready() {
            drop(self.cv.wait_timeout(guard, timeout));
        }
        self.waiters.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU64};
    use std::time::Instant;

    /// A wait that runs this long lost its wake: every round's publish
    /// comes within microseconds of its park.
    const LOST: Duration = Duration::from_secs(10);
    const ROUNDS: u64 = 20_000;

    /// `waiters` threads wait out `ROUNDS` rounds that each of
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
                            park.park_unless(LOST, || {
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
