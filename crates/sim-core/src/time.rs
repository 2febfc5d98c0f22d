//! Simulation time: integer nanoseconds since simulation start.
//!
//! The paper's mechanism lives at very different scales — CPU operations are
//! tens of microseconds, pacing idle times are hundreds of microseconds to
//! tens of milliseconds (Table 2 spans 0.88 ms to 31.1 ms), RTTs are
//! milliseconds, and iPerf runs are minutes. Nanosecond integer resolution
//! covers all of them without rounding surprises: a `u64` of nanoseconds
//! holds ~584 years of simulated time.

use serde::Serialize;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the simulation clock, in nanoseconds since simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
pub struct SimTime(u64);

/// A span of simulation time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The greatest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Raw nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds since simulation start (truncating). Telemetry
    /// rows are stamped in microseconds: every sampling interval in use is
    /// ≥ 1 µs, and integer stamps keep flight-data output byte-stable.
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Seconds since simulation start, as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Time elapsed since `earlier`, saturating at zero if `earlier` is later.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The greatest representable duration; used as an "infinite" sentinel
    /// (e.g. an RTT filter that has not yet seen a sample).
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Construct from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Construct from fractional seconds. Panics on negative or non-finite
    /// input — durations in the simulator are always forward.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(
            s.is_finite() && s >= 0.0,
            "duration must be finite and non-negative, got {s}"
        );
        SimDuration((s * 1e9).round() as u64)
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds (truncating).
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Whole milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Fractional seconds (for reporting and rate arithmetic).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Fractional milliseconds (for reporting: Table 2 prints idle time in ms).
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// True if this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// Multiply by an integer scale (e.g. a pacing stride), saturating.
    pub fn saturating_mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(k))
    }

    /// Scale by a float factor (e.g. a congestion-control gain), rounding to
    /// the nearest nanosecond. Panics on negative or non-finite factors.
    pub fn mul_f64(self, k: f64) -> SimDuration {
        assert!(
            k.is_finite() && k >= 0.0,
            "scale must be finite and non-negative, got {k}"
        );
        SimDuration((self.0 as f64 * k).round() as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// Panics if `rhs` is later than `self`; use [`SimTime::saturating_since`]
    /// when the ordering is not guaranteed.
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime subtraction underflow: rhs is later than self"),
        )
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimDuration subtraction underflow"),
        )
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Div<SimDuration> for SimDuration {
    type Output = f64;
    /// Dimensionless ratio of two durations.
    fn div(self, rhs: SimDuration) -> f64 {
        self.0 as f64 / rhs.0 as f64
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", format_ns(self.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_ns(self.0))
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_ns(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_ns(self.0))
    }
}

fn format_ns(ns: u64) -> String {
    if ns == u64::MAX {
        "inf".to_string()
    } else if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(2), SimTime::from_nanos(2_000_000_000));
        assert_eq!(SimTime::from_millis(5), SimTime::from_micros(5_000));
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_millis(1_000));
        assert_eq!(SimDuration::from_micros(3), SimDuration::from_nanos(3_000));
    }

    #[test]
    fn time_plus_duration_round_trips() {
        let t = SimTime::from_millis(10);
        let d = SimDuration::from_micros(250);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d) - d, t);
    }

    #[test]
    fn saturating_since_clamps_to_zero() {
        let early = SimTime::from_millis(1);
        let late = SimTime::from_millis(2);
        assert_eq!(late.saturating_since(early), SimDuration::from_millis(1));
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn strict_subtraction_panics_on_inversion() {
        let _ = SimTime::from_millis(1) - SimTime::from_millis(2);
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_micros(880); // Table 2 row 1x: 0.88 ms idle
        assert_eq!(d.saturating_mul(5), SimDuration::from_micros(4_400));
        assert_eq!(d * 2, SimDuration::from_micros(1_760));
        assert_eq!(d / 2, SimDuration::from_micros(440));
        assert!((d.mul_f64(2.5).as_nanos() as i64 - 2_200_000).abs() <= 1);
    }

    #[test]
    fn duration_ratio() {
        let a = SimDuration::from_millis(3);
        let b = SimDuration::from_millis(2);
        assert!((a / b - 1.5).abs() < 1e-12);
    }

    #[test]
    fn float_second_round_trip() {
        let d = SimDuration::from_secs_f64(0.00322); // Table 2 row 5x idle
        assert_eq!(d.as_millis(), 3);
        assert!((d.as_millis_f64() - 3.22).abs() < 1e-9);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(SimDuration::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimDuration::from_micros(880).to_string(), "880.000us");
        assert_eq!(SimDuration::from_millis(31).to_string(), "31.000ms");
        assert_eq!(SimDuration::from_secs(300).to_string(), "300.000s");
        assert_eq!(SimDuration::MAX.to_string(), "inf");
    }

    #[test]
    fn max_sentinel_saturates() {
        assert_eq!(SimTime::MAX + SimDuration::from_secs(1), SimTime::MAX);
        assert_eq!(
            SimDuration::MAX + SimDuration::from_secs(1),
            SimDuration::MAX
        );
        assert_eq!(SimDuration::MAX.saturating_mul(3), SimDuration::MAX);
    }

    proptest! {
        #[test]
        fn prop_add_then_subtract_identity(base in 0u64..1u64 << 40, delta in 0u64..1u64 << 40) {
            let t = SimTime::from_nanos(base);
            let d = SimDuration::from_nanos(delta);
            prop_assert_eq!((t + d) - t, d);
        }

        #[test]
        fn prop_saturating_since_never_negative(a in any::<u64>(), b in any::<u64>()) {
            let (ta, tb) = (SimTime::from_nanos(a), SimTime::from_nanos(b));
            // Whichever order we ask in, the result is a valid (non-panicking) duration,
            // and at least one direction is zero.
            let ab = ta.saturating_since(tb);
            let ba = tb.saturating_since(ta);
            prop_assert!(ab == SimDuration::ZERO || ba == SimDuration::ZERO);
        }

        #[test]
        fn prop_duration_ordering_consistent_with_nanos(a in any::<u64>(), b in any::<u64>()) {
            prop_assert_eq!(
                SimDuration::from_nanos(a).cmp(&SimDuration::from_nanos(b)),
                a.cmp(&b)
            );
        }
    }
}
