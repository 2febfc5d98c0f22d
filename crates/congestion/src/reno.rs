//! Classic Reno AIMD — the simplest baseline in the framework.
//!
//! Not part of the paper's measurement matrix (Android ships Cubic), but a
//! loss-based reference point for the fairness and ablation benches, and a
//! sanity anchor for the framework's tests: anything Cubic does, Reno must
//! do more conservatively.

use crate::{AckSample, CongestionControl, LossEvent, INIT_CWND, MIN_CWND};
use sim_core::time::SimTime;
use sim_core::units::Bandwidth;

/// Reno: slow start + congestion avoidance (1 packet per RTT) + halving.
#[derive(Debug, Clone)]
pub struct Reno {
    cwnd: f64,
    ssthresh: u64,
    in_recovery: bool,
}

impl Reno {
    /// A fresh Reno instance at the initial window.
    pub(crate) fn new() -> Self {
        Reno {
            cwnd: INIT_CWND as f64,
            ssthresh: u64::MAX,
            in_recovery: false,
        }
    }
}

impl Default for Reno {
    fn default() -> Self {
        Self::new()
    }
}

impl CongestionControl for Reno {
    fn name(&self) -> &'static str {
        "reno"
    }

    fn phase(&self) -> &'static str {
        if self.in_recovery {
            "recovery"
        } else if (self.cwnd as u64) < self.ssthresh {
            "slow_start"
        } else {
            "avoidance"
        }
    }

    fn on_ack(&mut self, sample: &AckSample) {
        if self.in_recovery {
            return; // window frozen during fast recovery
        }
        if (self.cwnd as u64) < self.ssthresh {
            // Slow start: one packet per acked packet.
            self.cwnd += sample.acked as f64;
        } else {
            // Congestion avoidance: one packet per window per RTT.
            self.cwnd += sample.acked as f64 / self.cwnd;
        }
    }

    fn on_loss_event(&mut self, _event: &LossEvent) {
        if self.in_recovery {
            return; // one reduction per recovery episode
        }
        self.in_recovery = true;
        self.ssthresh = ((self.cwnd / 2.0) as u64).max(MIN_CWND);
        self.cwnd = self.ssthresh as f64;
    }

    fn on_recovery_exit(&mut self, _now: SimTime) {
        self.in_recovery = false;
    }

    fn on_rto(&mut self, _now: SimTime, _inflight: u64) {
        self.ssthresh = ((self.cwnd / 2.0) as u64).max(MIN_CWND);
        self.cwnd = 1.0;
        self.in_recovery = false;
    }

    fn cwnd(&self) -> u64 {
        (self.cwnd as u64).max(1)
    }

    fn wants_pacing(&self) -> bool {
        false
    }

    fn pacing_rate(&self) -> Option<Bandwidth> {
        None
    }

    fn model_cost_cycles(&self) -> u64 {
        400
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::sample;

    #[test]
    fn starts_at_initial_window() {
        assert_eq!(Reno::new().cwnd(), INIT_CWND);
    }

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut r = Reno::new();
        // Acking a full window in slow start doubles it.
        let w0 = r.cwnd();
        r.on_ack(&sample(10, 10, 100, w0, w0, 0));
        assert_eq!(r.cwnd(), 2 * w0);
    }

    #[test]
    fn congestion_avoidance_adds_one_per_rtt() {
        let mut r = Reno::new();
        r.on_loss_event(&LossEvent {
            now: SimTime::from_millis(1),
            inflight: 10,
            lost: 1,
        });
        r.on_recovery_exit(SimTime::from_millis(2));
        let w = r.cwnd();
        // Ack one full window's worth of packets: +1 packet total.
        r.on_ack(&sample(10, 10, 100, w, w, 0));
        assert_eq!(r.cwnd(), w + 1);
    }

    #[test]
    fn loss_halves_window_once_per_episode() {
        let mut r = Reno::new();
        // Grow a bit first.
        for i in 0..5 {
            let w = r.cwnd();
            r.on_ack(&sample(i, 10, 100, w, w, 0));
        }
        let before = r.cwnd();
        r.on_loss_event(&LossEvent {
            now: SimTime::from_millis(50),
            inflight: before,
            lost: 1,
        });
        assert_eq!(r.cwnd(), (before / 2).max(MIN_CWND));
        let after_first = r.cwnd();
        // A second loss within the same recovery must not halve again.
        r.on_loss_event(&LossEvent {
            now: SimTime::from_millis(51),
            inflight: before,
            lost: 1,
        });
        assert_eq!(r.cwnd(), after_first);
    }

    #[test]
    fn window_frozen_during_recovery() {
        let mut r = Reno::new();
        r.on_loss_event(&LossEvent {
            now: SimTime::from_millis(1),
            inflight: 10,
            lost: 1,
        });
        let w = r.cwnd();
        r.on_ack(&sample(2, 10, 100, 20, 5, 5));
        assert_eq!(r.cwnd(), w);
    }

    #[test]
    fn rto_collapses_to_one() {
        let mut r = Reno::new();
        r.on_rto(SimTime::from_millis(100), 10);
        assert_eq!(r.cwnd(), 1);
        assert_eq!(r.ssthresh, (INIT_CWND / 2).max(MIN_CWND));
    }

    #[test]
    fn never_paces() {
        let r = Reno::new();
        assert!(!r.wants_pacing());
        assert_eq!(r.pacing_rate(), None);
    }
}
