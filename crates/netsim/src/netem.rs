//! `tc netem`-style impairments.
//!
//! The paper's testbed sets network conditions on the OpenWRT router with
//! Linux traffic control (§3.2: "Our network setup also allows network
//! conditions to be set on the OpenWRT router using Linux traffic control
//! (tc)"). This module reproduces the knobs the paper uses or implies:
//! i.i.d. packet loss, added delay with jitter, a rate limiter, and simple
//! reordering. Impairments are evaluated *before* the bottleneck queue,
//! matching a qdisc stacked in front of the device.

use serde::Serialize;
use sim_core::rng::SimRng;
use sim_core::time::{SimDuration, SimTime};
use sim_core::units::Bandwidth;

/// Configuration mirroring `tc qdisc add ... netem ...`.
#[derive(Debug, Clone, PartialEq, Default, Serialize)]
pub struct NetemConfig {
    /// i.i.d. drop probability (`loss p%`).
    pub loss: f64,
    /// Fixed extra one-way delay (`delay T`).
    pub delay: SimDuration,
    /// Uniform jitter amplitude: actual extra delay is
    /// `delay ± U(0, jitter)` clamped at zero (`delay T J`).
    pub jitter: SimDuration,
    /// Optional token-bucket rate limit (`rate R`): packets are additionally
    /// delayed so the long-run rate through the netem stage is ≤ R.
    pub rate_limit: Option<Bandwidth>,
    /// Probability a packet is held back by `reorder_gap` (crude `reorder`).
    pub reorder: f64,
    /// Extra delay applied to reordered packets.
    pub reorder_gap: SimDuration,
}

impl NetemConfig {
    /// No impairment (the paper's default: "results are presented without
    /// any network conditions being set by tc, unless otherwise specified").
    pub fn none() -> Self {
        Self::default()
    }

    /// Pure loss.
    pub fn with_loss(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "loss probability out of range");
        self.loss = p;
        self
    }

    /// Fixed delay with optional jitter.
    pub fn with_delay(mut self, delay: SimDuration, jitter: SimDuration) -> Self {
        self.delay = delay;
        self.jitter = jitter;
        self
    }

    /// True if this config does nothing.
    pub fn is_noop(&self) -> bool {
        self.loss == 0.0
            && self.delay.is_zero()
            && self.jitter.is_zero()
            && self.rate_limit.is_none()
            && self.reorder == 0.0
    }
}

/// Verdict for one packet offered to the netem stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetemVerdict {
    /// Forward the packet to the next stage no earlier than `release`.
    Pass {
        /// Earliest time the next stage may see the packet.
        release: SimTime,
    },
    /// netem dropped the packet.
    Drop,
}

/// Stateful netem instance (owns its RNG stream and rate-limiter clock).
pub struct Netem {
    config: NetemConfig,
    rng: SimRng,
    /// Virtual finish time of the rate limiter.
    rate_busy_until: SimTime,
    drops: u64,
    passed: u64,
}

impl Netem {
    /// Build a netem stage with its own RNG stream.
    pub fn new(config: NetemConfig, rng: SimRng) -> Self {
        Netem {
            config,
            rng,
            rate_busy_until: SimTime::ZERO,
            drops: 0,
            passed: 0,
        }
    }

    /// Offer a packet of `wire_bytes` at `now`.
    pub fn process(&mut self, now: SimTime, wire_bytes: u64) -> NetemVerdict {
        if self.config.loss > 0.0 && self.rng.chance(self.config.loss) {
            self.drops += 1;
            return NetemVerdict::Drop;
        }
        let mut release = now + self.config.delay;
        if !self.config.jitter.is_zero() {
            let j = self.rng.below(self.config.jitter.as_nanos() + 1);
            release += SimDuration::from_nanos(j);
        }
        if self.config.reorder > 0.0 && self.rng.chance(self.config.reorder) {
            release += self.config.reorder_gap;
        }
        if let Some(rate) = self.config.rate_limit {
            let start = if self.rate_busy_until > release {
                self.rate_busy_until
            } else {
                release
            };
            let done = start + rate.time_to_send(wire_bytes);
            self.rate_busy_until = done;
            release = done;
        }
        self.passed += 1;
        NetemVerdict::Pass { release }
    }

    /// Packets dropped by this stage.
    pub fn drops(&self) -> u64 {
        self.drops
    }

    /// Packets passed by this stage.
    pub fn passed(&self) -> u64 {
        self.passed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rate_limited(rate: Bandwidth) -> NetemConfig {
        NetemConfig {
            rate_limit: Some(rate),
            ..NetemConfig::none()
        }
    }

    #[test]
    fn noop_config_passes_immediately() {
        let mut n = Netem::new(NetemConfig::none(), SimRng::new(1));
        let t = SimTime::from_millis(3);
        match n.process(t, 1514) {
            NetemVerdict::Pass { release } => assert_eq!(release, t),
            NetemVerdict::Drop => panic!("noop must pass"),
        }
        assert!(NetemConfig::none().is_noop());
    }

    #[test]
    fn fixed_delay_shifts_release() {
        let cfg = NetemConfig::none().with_delay(SimDuration::from_millis(10), SimDuration::ZERO);
        let mut n = Netem::new(cfg, SimRng::new(1));
        match n.process(SimTime::ZERO, 100) {
            NetemVerdict::Pass { release } => assert_eq!(release, SimTime::from_millis(10)),
            NetemVerdict::Drop => panic!(),
        }
    }

    #[test]
    fn jitter_bounded_and_deterministic() {
        let cfg = NetemConfig::none()
            .with_delay(SimDuration::from_millis(5), SimDuration::from_millis(2));
        let mut a = Netem::new(cfg.clone(), SimRng::new(9));
        let mut b = Netem::new(cfg, SimRng::new(9));
        for i in 0..200 {
            let t = SimTime::from_millis(i);
            let (ra, rb) = (a.process(t, 100), b.process(t, 100));
            assert_eq!(ra, rb);
            if let NetemVerdict::Pass { release } = ra {
                let extra = release - t;
                assert!(extra >= SimDuration::from_millis(5));
                assert!(extra <= SimDuration::from_millis(7));
            }
        }
    }

    #[test]
    fn loss_rate_statistically_correct() {
        let cfg = NetemConfig::none().with_loss(0.15); // smoltcp's suggested starting value
        let mut n = Netem::new(cfg, SimRng::new(4));
        let total = 20_000;
        for i in 0..total {
            n.process(SimTime::from_micros(i), 1514);
        }
        let rate = n.drops() as f64 / total as f64;
        assert!((rate - 0.15).abs() < 0.01, "observed loss {rate}");
        assert_eq!(n.drops() + n.passed(), total);
    }

    #[test]
    fn rate_limit_spaces_packets() {
        // 8 Mbps limit, 1000-byte packets → 1 ms per packet.
        let cfg = rate_limited(Bandwidth::from_mbps(8));
        let mut n = Netem::new(cfg, SimRng::new(1));
        let mut releases = Vec::new();
        for _ in 0..5 {
            if let NetemVerdict::Pass { release } = n.process(SimTime::ZERO, 1000) {
                releases.push(release);
            }
        }
        for w in releases.windows(2) {
            assert_eq!(w[1] - w[0], SimDuration::from_millis(1));
        }
    }

    #[test]
    fn rate_limit_idle_period_does_not_accumulate_burst() {
        let cfg = rate_limited(Bandwidth::from_mbps(8));
        let mut n = Netem::new(cfg, SimRng::new(1));
        n.process(SimTime::ZERO, 1000);
        // Long idle, then a packet: passes with only its own serialisation.
        let late = SimTime::from_secs(1);
        match n.process(late, 1000) {
            NetemVerdict::Pass { release } => {
                assert_eq!(release, late + SimDuration::from_millis(1));
            }
            NetemVerdict::Drop => panic!(),
        }
    }

    #[test]
    fn reorder_adds_gap_to_some_packets() {
        let cfg = NetemConfig {
            reorder: 0.5,
            reorder_gap: SimDuration::from_millis(3),
            ..NetemConfig::none()
        };
        let mut n = Netem::new(cfg, SimRng::new(2));
        let mut delayed = 0;
        let total = 1000;
        for i in 0..total {
            if let NetemVerdict::Pass { release } = n.process(SimTime::from_millis(i), 100) {
                if release > SimTime::from_millis(i) {
                    delayed += 1;
                }
            }
        }
        assert!(
            (400..600).contains(&delayed),
            "roughly half delayed, got {delayed}"
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn invalid_loss_rejected() {
        NetemConfig::none().with_loss(1.5);
    }

    proptest! {
        /// Release times never precede the offer time.
        #[test]
        fn prop_release_never_in_past(
            seed in any::<u64>(),
            loss in 0.0f64..0.5,
            delay_us in 0u64..10_000,
            jitter_us in 0u64..5_000,
        ) {
            let cfg = NetemConfig::none()
                .with_loss(loss)
                .with_delay(SimDuration::from_micros(delay_us), SimDuration::from_micros(jitter_us));
            let mut n = Netem::new(cfg, SimRng::new(seed));
            for i in 0..100u64 {
                let t = SimTime::from_micros(i * 37);
                if let NetemVerdict::Pass { release } = n.process(t, 1000) {
                    prop_assert!(release >= t + SimDuration::from_micros(delay_us));
                }
            }
        }

        /// The rate limiter's long-run throughput never exceeds the limit.
        #[test]
        fn prop_rate_limit_enforced(mbps in 1u64..100, npkts in 10u64..200) {
            let rate = Bandwidth::from_mbps(mbps);
            let cfg = rate_limited(rate);
            let mut n = Netem::new(cfg, SimRng::new(7));
            let size = 1514u64;
            let mut last_release = SimTime::ZERO;
            for _ in 0..npkts {
                if let NetemVerdict::Pass { release } = n.process(SimTime::ZERO, size) {
                    last_release = release;
                }
            }
            // npkts × size bytes in `last_release` time ⇒ rate ≤ limit.
            let achieved = Bandwidth::from_bytes_over(npkts * size, last_release - SimTime::ZERO);
            prop_assert!(achieved.as_bps() <= rate.as_bps() + rate.as_bps() / 100);
        }
    }
}
