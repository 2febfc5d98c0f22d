//! Background cross-traffic: a Poisson packet process sharing the
//! bottleneck.
//!
//! The paper's testbed is a dedicated LAN ("the mobile phone is the only
//! device connected to the router"), but §7.1.3 raises the question of how
//! the pacing stride behaves when the network is *not* private. The
//! competition ablation injects open-loop cross-traffic at a configured
//! average rate and re-runs the stride comparison against a loaded
//! bottleneck.

use serde::Serialize;
use sim_core::rng::SimRng;
use sim_core::time::{SimDuration, SimTime};
use sim_core::units::Bandwidth;

/// Configuration of a Poisson cross-traffic source.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct CrossTrafficConfig {
    /// Average offered rate.
    pub rate: Bandwidth,
    /// Wire bytes per cross packet (default: full frames).
    pub pkt_bytes: u64,
}

impl CrossTrafficConfig {
    /// Full-size frames at the given rate.
    pub fn at(rate: Bandwidth) -> Self {
        CrossTrafficConfig {
            rate,
            pkt_bytes: 1514,
        }
    }
}

/// A Poisson arrival process generating cross packets.
#[derive(Debug, Clone)]
pub struct CrossTraffic {
    config: CrossTrafficConfig,
    rng: SimRng,
    next: SimTime,
}

impl CrossTraffic {
    /// A source starting at t = 0, drawing inter-arrivals from `rng`.
    pub fn new(config: CrossTrafficConfig, rng: SimRng) -> Self {
        assert!(
            !config.rate.is_zero(),
            "cross-traffic rate must be positive"
        );
        assert!(config.pkt_bytes > 0, "cross packets must have size");
        let mut s = CrossTraffic {
            config,
            rng,
            next: SimTime::ZERO,
        };
        s.next = s.draw_next(SimTime::ZERO);
        s
    }

    /// Packet size on the wire.
    pub fn pkt_bytes(&self) -> u64 {
        self.config.pkt_bytes
    }

    /// The next arrival instant (peek).
    pub fn next_arrival(&self) -> SimTime {
        self.next
    }

    fn draw_next(&mut self, from: SimTime) -> SimTime {
        // Exponential inter-arrival with mean pkt_bytes/rate.
        let mean_s = self.config.pkt_bytes as f64 * 8.0 / self.config.rate.as_bps() as f64;
        from + SimDuration::from_secs_f64(self.rng.exponential(mean_s))
    }

    /// Consume the pending arrival and schedule the next one. Callers pop
    /// arrivals while `next_arrival() <= now`.
    pub fn pop(&mut self) -> SimTime {
        let at = self.next;
        self.next = self.draw_next(at);
        at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_rate_matches_configuration() {
        let cfg = CrossTrafficConfig::at(Bandwidth::from_mbps(100));
        let mut src = CrossTraffic::new(cfg, SimRng::new(3));
        let horizon = SimTime::from_secs(10);
        let mut count = 0u64;
        while src.next_arrival() <= horizon {
            src.pop();
            count += 1;
        }
        let achieved = Bandwidth::from_bytes_over(count * 1514, SimDuration::from_secs(10));
        let err = (achieved.as_bps() as f64 - 100e6).abs() / 100e6;
        assert!(err < 0.05, "achieved {achieved} vs 100 Mbps");
    }

    #[test]
    fn arrivals_are_strictly_increasing() {
        let cfg = CrossTrafficConfig::at(Bandwidth::from_mbps(500));
        let mut src = CrossTraffic::new(cfg, SimRng::new(7));
        let mut last = SimTime::ZERO;
        for _ in 0..10_000 {
            let at = src.pop();
            assert!(at >= last);
            last = at;
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = CrossTrafficConfig::at(Bandwidth::from_mbps(50));
        let mut a = CrossTraffic::new(cfg, SimRng::new(11));
        let mut b = CrossTraffic::new(cfg, SimRng::new(11));
        for _ in 0..1_000 {
            assert_eq!(a.pop(), b.pop());
        }
    }

    #[test]
    fn interarrival_variance_is_poisson_like() {
        // Exponential inter-arrivals: coefficient of variation ≈ 1.
        let cfg = CrossTrafficConfig::at(Bandwidth::from_mbps(100));
        let mut src = CrossTraffic::new(cfg, SimRng::new(5));
        let mut last = SimTime::ZERO;
        let mut gaps = Vec::new();
        for _ in 0..20_000 {
            let at = src.pop();
            gaps.push((at - last).as_nanos() as f64);
            last = at;
        }
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        let cv = var.sqrt() / mean;
        assert!((cv - 1.0).abs() < 0.05, "CV {cv} should be ~1 for Poisson");
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_rejected() {
        CrossTraffic::new(CrossTrafficConfig::at(Bandwidth::ZERO), SimRng::new(1));
    }
}
