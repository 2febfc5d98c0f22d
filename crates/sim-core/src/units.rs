//! The bandwidth unit, and the byte↔time conversions at the heart of
//! packet pacing.
//!
//! The paper's Eq. (1) — `idleTime = socketBufferLength / pacingRate` — is
//! computed thousands of times per simulated second, so these conversions
//! are integer-exact where possible: [`Bandwidth::time_to_send`] computes
//! `ceil(bytes * 8e9 / bits_per_sec)` nanoseconds in 128-bit arithmetic.

use crate::time::SimDuration;
use serde::Serialize;
use std::fmt;

/// A data rate in bits per second.
///
/// ```
/// use sim_core::units::Bandwidth;
///
/// let line = Bandwidth::from_gbps(1);
/// // A full wire frame takes 12.112 µs at line rate:
/// assert_eq!(line.time_to_send(1514).as_nanos(), 12_112);
/// // BBR-style gains:
/// assert_eq!(line.mul_f64(1.25), Bandwidth::from_mbps(1250));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
pub struct Bandwidth(u64);

impl Bandwidth {
    /// Zero rate: used as "no rate yet" in filters before the first sample.
    pub const ZERO: Bandwidth = Bandwidth(0);

    /// Construct from bits per second.
    pub const fn from_bps(bps: u64) -> Self {
        Bandwidth(bps)
    }

    /// Construct from megabits per second (10^6 bits).
    pub const fn from_mbps(mbps: u64) -> Self {
        Bandwidth(mbps * 1_000_000)
    }

    /// Construct from gigabits per second (10^9 bits).
    pub const fn from_gbps(gbps: u64) -> Self {
        Bandwidth(gbps * 1_000_000_000)
    }

    /// The rate that delivers `bytes` over `interval` (rounded down).
    /// Returns `ZERO` for a zero interval.
    pub fn from_bytes_over(bytes: u64, interval: SimDuration) -> Self {
        if interval.is_zero() {
            return Bandwidth::ZERO;
        }
        let bits = (bytes as u128) * 8 * 1_000_000_000;
        Bandwidth((bits / interval.as_nanos() as u128) as u64)
    }

    /// Bits per second.
    pub const fn as_bps(self) -> u64 {
        self.0
    }

    /// Megabits per second, fractional (reporting).
    pub fn as_mbps_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// True if the rate is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Wire time to serialize `bytes` at this rate, rounded *up* to the next
    /// nanosecond (pacing must never release early).
    ///
    /// # Panics
    /// Panics on a zero rate: asking how long an infinitely slow link takes
    /// is a logic error; guard with [`Bandwidth::is_zero`] first.
    pub fn time_to_send(self, bytes: u64) -> SimDuration {
        assert!(self.0 > 0, "time_to_send on zero bandwidth");
        let bits_ns = (bytes as u128) * 8 * 1_000_000_000;
        let ns = bits_ns.div_ceil(self.0 as u128);
        SimDuration::from_nanos(ns.min(u64::MAX as u128) as u64)
    }

    /// Bytes deliverable in `interval` at this rate (truncating).
    pub fn bytes_in(self, interval: SimDuration) -> u64 {
        let bits = (self.0 as u128) * (interval.as_nanos() as u128) / 1_000_000_000;
        ((bits / 8).min(u64::MAX as u128)) as u64
    }

    /// Scale by a float gain (BBR's pacing gains are 2.885, 1.25, 0.75, …).
    /// Panics on negative or non-finite gains.
    pub fn mul_f64(self, gain: f64) -> Bandwidth {
        assert!(
            gain.is_finite() && gain >= 0.0,
            "bandwidth gain must be finite and >= 0, got {gain}"
        );
        let scaled = self.0 as f64 * gain;
        Bandwidth(if scaled >= u64::MAX as f64 {
            u64::MAX
        } else {
            scaled as u64
        })
    }

    /// Integer division (e.g. fair share per connection).
    // Deliberately not `Div::div`: the divisor is a plain count, not a
    // `Bandwidth`, and the zero-divisor clamp below is part of the API.
    #[allow(clippy::should_implement_trait)]
    pub fn div(self, k: u64) -> Bandwidth {
        Bandwidth(self.0 / k.max(1))
    }

    /// Saturating addition.
    pub fn saturating_add(self, rhs: Bandwidth) -> Bandwidth {
        Bandwidth(self.0.saturating_add(rhs.0))
    }
}

impl fmt::Debug for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}Gbps", self.0 as f64 / 1e9)
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}Mbps", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}Kbps", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}bps", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bandwidth_constructors_agree() {
        assert_eq!(Bandwidth::from_gbps(1), Bandwidth::from_mbps(1_000));
        assert_eq!(Bandwidth::from_mbps(1), Bandwidth::from_bps(1_000_000));
    }

    #[test]
    fn time_to_send_exact_cases() {
        // 1514-byte wire frame at 1 Gbps = 12,112 ns.
        let gig = Bandwidth::from_gbps(1);
        assert_eq!(gig.time_to_send(1514), SimDuration::from_nanos(12_112));
        // 15,000-byte skb at 140 Mbps (paper's §5.1.2 rate).
        let d = Bandwidth::from_mbps(140).time_to_send(15_000);
        assert_eq!(
            d.as_nanos(),
            (15_000u128 * 8 * 1_000_000_000).div_ceil(140_000_000) as u64
        );
    }

    #[test]
    fn time_to_send_rounds_up() {
        // 1 byte at 3 bps: 8/3 s = 2.666..s, must round up.
        let d = Bandwidth::from_bps(3).time_to_send(1);
        assert_eq!(d.as_nanos(), 2_666_666_667);
    }

    #[test]
    #[should_panic(expected = "zero bandwidth")]
    fn time_to_send_zero_rate_panics() {
        Bandwidth::ZERO.time_to_send(1);
    }

    #[test]
    fn paper_eq1_idle_time() {
        // Table 2 row 1x: 32.1 Kb skb, expected idle 0.88 ms implies a
        // per-connection pacing rate of ~36.5 Mbps.
        let skb_bits = 32_100u64;
        let rate = Bandwidth::from_bps(skb_bits * 1000 / 880 * 1000); // bits / 0.88ms
        let idle = rate.time_to_send(skb_bits / 8);
        assert!((idle.as_millis_f64() - 0.88).abs() < 0.01, "idle {idle}");
    }

    #[test]
    fn bytes_in_inverts_time_to_send_approximately() {
        let bw = Bandwidth::from_mbps(16); // paper's theoretical per-conn need
        let bytes = 10_000;
        let t = bw.time_to_send(bytes);
        let back = bw.bytes_in(t);
        assert!((back as i64 - bytes as i64).abs() <= 1, "{back} vs {bytes}");
    }

    #[test]
    fn from_bytes_over_computes_goodput() {
        // 325 Mbps over 5 s = 203,125,000 bytes.
        let bw = Bandwidth::from_bytes_over(203_125_000, SimDuration::from_secs(5));
        assert_eq!(bw, Bandwidth::from_mbps(325));
    }

    #[test]
    fn from_bytes_over_zero_interval_is_zero() {
        assert_eq!(
            Bandwidth::from_bytes_over(100, SimDuration::ZERO),
            Bandwidth::ZERO
        );
    }

    #[test]
    fn gain_scaling() {
        let bw = Bandwidth::from_mbps(100);
        assert_eq!(bw.mul_f64(1.25), Bandwidth::from_mbps(125));
        assert_eq!(bw.mul_f64(0.75), Bandwidth::from_mbps(75));
        assert_eq!(bw.mul_f64(0.0), Bandwidth::ZERO);
    }

    #[test]
    fn division_for_fair_share() {
        // 1 Gbps / 20 connections = 50 Mbps each.
        assert_eq!(Bandwidth::from_gbps(1).div(20), Bandwidth::from_mbps(50));
        // Division by zero clamps to 1 rather than panicking (harness safety).
        assert_eq!(Bandwidth::from_mbps(10).div(0), Bandwidth::from_mbps(10));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Bandwidth::from_gbps(1).to_string(), "1.000Gbps");
        assert_eq!(Bandwidth::from_mbps(140).to_string(), "140.000Mbps");
        assert_eq!(Bandwidth::from_bps(12).to_string(), "12bps");
    }

    proptest! {
        #[test]
        fn prop_time_to_send_monotone_in_bytes(
            rate_mbps in 1u64..10_000,
            a in 0u64..10_000_000,
            b in 0u64..10_000_000,
        ) {
            let bw = Bandwidth::from_mbps(rate_mbps);
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(bw.time_to_send(lo) <= bw.time_to_send(hi));
        }

        #[test]
        fn prop_time_to_send_antitone_in_rate(
            r1 in 1u64..10_000,
            r2 in 1u64..10_000,
            bytes in 1u64..10_000_000,
        ) {
            let (lo, hi) = if r1 <= r2 { (r1, r2) } else { (r2, r1) };
            prop_assert!(
                Bandwidth::from_mbps(hi).time_to_send(bytes)
                    <= Bandwidth::from_mbps(lo).time_to_send(bytes)
            );
        }

        #[test]
        fn prop_rate_roundtrip(bytes in 1u64..100_000_000, ms in 1u64..100_000) {
            let interval = SimDuration::from_millis(ms);
            let bw = Bandwidth::from_bytes_over(bytes, interval);
            // Converting back loses at most rounding error.
            let back = bw.bytes_in(interval);
            prop_assert!(back <= bytes);
            prop_assert!(bytes - back <= bytes / 1000 + 8);
        }
    }
}
