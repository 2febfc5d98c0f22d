//! RTT estimation and retransmission-timeout computation (RFC 6298, with
//! Linux's constants).
//!
//! `SRTT ← 7/8·SRTT + 1/8·R`, `RTTVAR ← 3/4·RTTVAR + 1/4·|SRTT − R|`,
//! `RTO = SRTT + 4·RTTVAR`, clamped to Linux's `[200 ms, 120 s]`.
//! Karn's rule (never sample retransmitted segments) is enforced by the
//! caller: the scoreboard only offers samples from un-retransmitted
//! segments.

use sim_core::time::SimDuration;

/// Linux `TCP_RTO_MIN`.
pub(crate) const RTO_MIN: SimDuration = SimDuration::from_millis(200);
/// Linux `TCP_RTO_MAX`.
pub(crate) const RTO_MAX: SimDuration = SimDuration::from_secs(120);
/// RTO before any RTT sample (Linux `TCP_TIMEOUT_INIT`): 1 s.
pub(crate) const RTO_INIT: SimDuration = SimDuration::from_secs(1);

/// RFC 6298 smoothed-RTT estimator.
#[derive(Debug, Clone)]
pub(crate) struct RttEstimator {
    srtt: Option<SimDuration>,
    rttvar: SimDuration,
    latest: Option<SimDuration>,
}

impl RttEstimator {
    /// A fresh estimator with no samples.
    pub(crate) fn new() -> Self {
        RttEstimator {
            srtt: None,
            rttvar: SimDuration::ZERO,
            latest: None,
        }
    }

    /// Record one RTT sample.
    pub(crate) fn sample(&mut self, r: SimDuration) {
        if r.is_zero() {
            return; // degenerate measurement, ignore
        }
        self.latest = Some(r);
        match self.srtt {
            None => {
                self.srtt = Some(r);
                self.rttvar = r / 2;
            }
            Some(srtt) => {
                let delta = if srtt > r { srtt - r } else { r - srtt };
                self.rttvar = (self.rttvar * 3 + delta) / 4;
                self.srtt = Some((srtt * 7 + r) / 8);
            }
        }
    }

    /// Smoothed RTT (`None` before the first sample).
    pub(crate) fn srtt(&self) -> Option<SimDuration> {
        self.srtt
    }

    /// Most recent raw sample.
    pub(crate) fn latest(&self) -> Option<SimDuration> {
        self.latest
    }

    /// Current retransmission timeout.
    pub(crate) fn rto(&self) -> SimDuration {
        match self.srtt {
            None => RTO_INIT,
            Some(srtt) => {
                let raw = srtt + self.rttvar * 4;
                raw.max(RTO_MIN).min(RTO_MAX)
            }
        }
    }
}

impl Default for RttEstimator {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn first_sample_seeds_estimator() {
        let mut e = RttEstimator::new();
        assert_eq!(e.srtt(), None);
        assert_eq!(e.rto(), RTO_INIT);
        e.sample(SimDuration::from_millis(10));
        assert_eq!(e.srtt(), Some(SimDuration::from_millis(10)));
        // RTO = 10 + 4·5 = 30 ms → clamped to 200 ms.
        assert_eq!(e.rto(), RTO_MIN);
    }

    #[test]
    fn srtt_converges_to_stable_rtt() {
        let mut e = RttEstimator::new();
        for _ in 0..100 {
            e.sample(SimDuration::from_millis(20));
        }
        let srtt = e.srtt().unwrap();
        assert_eq!(srtt.as_millis(), 20);
        assert!(e.rttvar.as_millis() < 1);
    }

    #[test]
    fn variance_grows_with_jitter() {
        // Base RTT large enough that RTO_MIN's clamp doesn't mask the
        // variance term.
        let mut steady = RttEstimator::new();
        let mut jittery = RttEstimator::new();
        for i in 0..100 {
            steady.sample(SimDuration::from_millis(300));
            jittery.sample(SimDuration::from_millis(if i % 2 == 0 { 200 } else { 400 }));
        }
        assert!(jittery.rto() > steady.rto());
    }

    #[test]
    fn rto_clamped_to_bounds() {
        let mut e = RttEstimator::new();
        e.sample(SimDuration::from_micros(100)); // LAN-fast
        assert_eq!(e.rto(), RTO_MIN);
        let mut slow = RttEstimator::new();
        slow.sample(SimDuration::from_secs(300)); // absurd
        assert_eq!(slow.rto(), RTO_MAX);
    }

    #[test]
    fn latest_is_the_most_recent_sample() {
        let mut e = RttEstimator::new();
        e.sample(SimDuration::from_millis(30));
        e.sample(SimDuration::from_millis(10));
        e.sample(SimDuration::from_millis(50));
        assert_eq!(e.latest(), Some(SimDuration::from_millis(50)));
    }

    #[test]
    fn zero_samples_ignored() {
        let mut e = RttEstimator::new();
        e.sample(SimDuration::ZERO);
        assert_eq!(e.srtt(), None);
    }

    proptest! {
        /// SRTT stays within the observed sample envelope.
        #[test]
        fn prop_srtt_within_envelope(samples in proptest::collection::vec(1u64..1_000_000u64, 1..100)) {
            let mut e = RttEstimator::new();
            for &us in &samples {
                e.sample(SimDuration::from_micros(us));
            }
            let lo = *samples.iter().min().unwrap();
            let hi = *samples.iter().max().unwrap();
            let srtt = e.srtt().unwrap().as_micros();
            prop_assert!(srtt >= lo.saturating_sub(1) && srtt <= hi + 1, "srtt {srtt} outside [{lo},{hi}]");
        }

        /// RTO is always within its clamp bounds and ≥ SRTT (when clamped up).
        #[test]
        fn prop_rto_bounds(samples in proptest::collection::vec(1u64..10_000_000u64, 1..50)) {
            let mut e = RttEstimator::new();
            for &us in &samples {
                e.sample(SimDuration::from_micros(us));
            }
            let rto = e.rto();
            prop_assert!(rto >= RTO_MIN && rto <= RTO_MAX);
        }
    }
}
