//! Virtual time for the simulation: [`SimTime`] (an instant) and
//! [`SimDuration`] (a span), both with millisecond resolution.
//!
//! Millisecond resolution is sufficient for every phenomenon in the paper
//! (container cold starts ~500 ms, invoker poll intervals ~100 ms,
//! scheduler passes ~seconds, pilot jobs ~minutes) while `u64`
//! milliseconds comfortably spans centuries of simulated time.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant of virtual time, in milliseconds since the simulation epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of virtual time, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The far future; used as a sentinel for "never".
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw milliseconds since epoch.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms)
    }
    /// Construct from whole seconds since epoch.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000)
    }
    /// Construct from whole minutes since epoch.
    pub const fn from_mins(m: u64) -> Self {
        SimTime(m * 60_000)
    }
    /// Construct from whole hours since epoch.
    pub const fn from_hours(h: u64) -> Self {
        SimTime(h * 3_600_000)
    }
    /// Construct from fractional seconds since epoch, rounding to the
    /// nearest millisecond; negative inputs clamp to the epoch.
    pub fn from_secs_f64(s: f64) -> Self {
        SimTime((s * 1_000.0).round().max(0.0) as u64)
    }

    /// Milliseconds since the epoch.
    pub const fn as_millis(self) -> u64 {
        self.0
    }
    /// Seconds since the epoch (fractional).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }
    /// Minutes since the epoch (fractional).
    pub fn as_mins_f64(self) -> f64 {
        self.0 as f64 / 60_000.0
    }
    /// Hours since the epoch (fractional).
    pub fn as_hours_f64(self) -> f64 {
        self.0 as f64 / 3_600_000.0
    }

    /// Span from an earlier instant to `self`; saturates at zero if
    /// `earlier` is actually later.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Saturating addition of a duration (stays at [`SimTime::MAX`]).
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// Zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// Largest representable span; used as a sentinel for "unbounded".
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Construct from raw milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms)
    }
    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000)
    }
    /// Construct from whole minutes.
    pub const fn from_mins(m: u64) -> Self {
        SimDuration(m * 60_000)
    }
    /// Construct from whole hours.
    pub const fn from_hours(h: u64) -> Self {
        SimDuration(h * 3_600_000)
    }
    /// Construct from fractional seconds, rounding to the nearest
    /// millisecond; negative inputs clamp to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        if s <= 0.0 || !s.is_finite() {
            return SimDuration::ZERO;
        }
        // `round()` without the libm call a baseline x86-64 build makes
        // of it (every jittered latency comes through here): truncate,
        // then add the half. `x - t` is exact below 2⁵², and zero from
        // there on, where every `f64` is whole (`as u64` saturates).
        let x = s * 1_000.0;
        let t = x as u64;
        SimDuration(t.saturating_add((x - t as f64 >= 0.5) as u64))
    }
    /// Construct from fractional minutes (see [`Self::from_secs_f64`]).
    pub fn from_mins_f64(m: f64) -> Self {
        Self::from_secs_f64(m * 60.0)
    }

    /// Raw milliseconds.
    pub const fn as_millis(self) -> u64 {
        self.0
    }
    /// Fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }
    /// Fractional minutes.
    pub fn as_mins_f64(self) -> f64 {
        self.0 as f64 / 60_000.0
    }
    /// Whole minutes, truncating.
    pub const fn as_mins(self) -> u64 {
        self.0 / 60_000
    }
    /// True iff the span is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// The smaller of two spans.
    pub fn min(self, other: SimDuration) -> SimDuration {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
    /// The larger of two spans.
    pub fn max(self, other: SimDuration) -> SimDuration {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0 + d.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        self.0 += d.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(d.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, other: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0 + other.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, other: SimDuration) {
        self.0 += other.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, other: SimDuration) {
        self.0 = self.0.saturating_sub(other.0);
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, k: u64) -> SimDuration {
        SimDuration(self.0 * k)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, k: u64) -> SimDuration {
        SimDuration(self.0 / k)
    }
}

impl fmt::Display for SimTime {
    /// Renders as `HH:MM:SS.mmm` of simulated wall time.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ms = self.0 % 1_000;
        let s = (self.0 / 1_000) % 60;
        let m = (self.0 / 60_000) % 60;
        let h = self.0 / 3_600_000;
        write!(f, "{h:02}:{m:02}:{s:02}.{ms:03}")
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 3_600_000 {
            write!(f, "{:.2}h", self.as_secs_f64() / 3600.0)
        } else if self.0 >= 60_000 {
            write!(f, "{:.2}min", self.as_mins_f64())
        } else {
            write!(f, "{:.3}s", self.as_secs_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrips() {
        assert_eq!(SimTime::from_secs(2).as_millis(), 2_000);
        assert_eq!(SimTime::from_mins(3).as_millis(), 180_000);
        assert_eq!(SimTime::from_hours(1).as_millis(), 3_600_000);
        assert_eq!(SimDuration::from_mins(90).as_mins(), 90);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(10) + SimDuration::from_secs(5);
        assert_eq!(t, SimTime::from_secs(15));
        assert_eq!(t - SimTime::from_secs(5), SimDuration::from_secs(10));
        // Saturating behaviour.
        assert_eq!(
            SimTime::from_secs(1) - SimTime::from_secs(5),
            SimDuration::ZERO
        );
        assert_eq!(
            SimDuration::from_secs(1).saturating_sub(SimDuration::from_secs(2)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn fractional_accessors() {
        let d = SimDuration::from_millis(90_000);
        assert!((d.as_mins_f64() - 1.5).abs() < 1e-12);
        assert!((d.as_secs_f64() - 90.0).abs() < 1e-12);
        let t = SimTime::from_mins(90);
        assert!((t.as_hours_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn from_secs_f64_clamps_and_rounds() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(0.0015).as_millis(), 2);
    }

    /// Rounding half away from zero, as `f64::round` does, over the
    /// inputs where a hand-rolled one goes wrong.
    #[test]
    fn from_secs_f64_rounds_as_libm_round() {
        fn reference(s: f64) -> u64 {
            if s <= 0.0 || !s.is_finite() {
                return 0;
            }
            (s * 1_000.0).round() as u64
        }
        let p52 = (1u64 << 52) as f64;
        let mut inputs = vec![
            0.0,
            -0.0,
            0.0005,
            0.0015,
            0.0025,
            0.49999999999999994,
            f64::from_bits(0.0005f64.to_bits() - 1),
            0.5,
            1.0,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 8.0, // subnormal
            5e-324,
            -1.0,
            -0.0005,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            1e17,
            1.9e16,
            u64::MAX as f64 / 1_000.0,
            u64::MAX as f64,
        ];
        // Products on both sides of 2⁵² (where halves stop existing) and
        // 2⁵³, and the exact halves and their neighbours below them.
        for ms in [
            p52 - 1.0,
            p52 - 0.5,
            p52,
            p52 + 1.0,
            2.0 * p52 - 1.0,
            2.0 * p52 + 2.0,
        ] {
            inputs.push(ms / 1_000.0);
        }
        for k in 0..2_000u64 {
            let half = k as f64 + 0.5;
            for ms in [
                half,
                f64::from_bits(half.to_bits() - 1),
                f64::from_bits(half.to_bits() + 1),
            ] {
                inputs.push(ms / 1_000.0);
            }
        }
        let mut rng = crate::SimRng::seed_from_u64(52);
        for _ in 0..20_000 {
            inputs.push(rng.range_f64(0.0, 400.0));
            inputs.push(f64::from_bits(rng.next_u64() >> 1)); // any non-negative pattern
        }
        for s in inputs {
            assert_eq!(
                SimDuration::from_secs_f64(s).as_millis(),
                reference(s),
                "{s:e}"
            );
        }
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimTime::from_millis(3_661_001).to_string(), "01:01:01.001");
        assert_eq!(SimDuration::from_secs(30).to_string(), "30.000s");
        assert_eq!(SimDuration::from_mins(5).to_string(), "5.00min");
    }

    #[test]
    fn since_and_saturating_add() {
        let a = SimTime::from_secs(4);
        let b = SimTime::from_secs(9);
        assert_eq!(b.since(a), SimDuration::from_secs(5));
        assert_eq!(a.since(b), SimDuration::ZERO);
        assert_eq!(
            SimTime::MAX.saturating_add(SimDuration::from_secs(1)),
            SimTime::MAX
        );
    }

    #[test]
    fn min_max() {
        let a = SimDuration::from_secs(1);
        let b = SimDuration::from_secs(2);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
    }
}
