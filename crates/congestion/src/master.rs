//! The paper's "master BBR kernel module" (§5).
//!
//! > "we create a master BBR kernel module that allows us to control each
//! > of these three aspects. Our module lets us disable computation
//! > performed by the BBR model, set a custom cwnd value, enable/disable
//! > packet pacing, and set specific packet pacing rates."
//!
//! [`Master`] wraps any [`CongestionControl`] and applies exactly those
//! four knobs. The §5 experiments are all instances:
//!
//! * §5.1.1 — `fixed_cwnd: Some(70)`, `disable_model: true` over BBR;
//! * §5.1.2 — `fixed_pacing_rate: Some(…)` swept from 16 to 140 Mbps;
//! * §5.2.1 / Fig. 4–5 — `force_pacing: Some(false)` over BBR;
//! * §5.2.2 / Fig. 6 — `force_pacing: Some(true)` (+ optional fixed rate)
//!   over Cubic, which otherwise never paces.

use crate::{AckSample, CongestionControl, Controller, LossEvent};
use serde::Serialize;
use sim_core::time::SimTime;
use sim_core::units::Bandwidth;

/// The master module's knobs. `Default` is a transparent pass-through.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize)]
pub struct MasterConfig {
    /// Pin the congestion window to this many packets.
    pub fixed_cwnd: Option<u64>,
    /// Pin the pacing rate (implies pacing on unless `force_pacing` says
    /// otherwise).
    pub fixed_pacing_rate: Option<u64>, // bps; Option<Bandwidth> is not Copy-friendly in serde
    /// Override the pacing decision: `Some(true)` forces pacing even for
    /// Cubic, `Some(false)` disables it even for BBR.
    pub force_pacing: Option<bool>,
    /// Disable the inner algorithm's model computation entirely: no state
    /// updates and zero per-ACK model cost (§5.1.1: "BBR does not run its
    /// main code logic").
    pub disable_model: bool,
}

impl MasterConfig {
    /// Transparent pass-through.
    pub fn passthrough() -> Self {
        Self::default()
    }

    /// §5.1.1: fixed cwnd with the model disabled.
    pub fn fixed_cwnd_no_model(cwnd: u64) -> Self {
        MasterConfig {
            fixed_cwnd: Some(cwnd),
            disable_model: true,
            ..Default::default()
        }
    }

    /// §5.1.2: fixed per-connection pacing rate.
    pub fn fixed_rate(rate: Bandwidth) -> Self {
        MasterConfig {
            fixed_pacing_rate: Some(rate.as_bps()),
            ..Default::default()
        }
    }

    /// §5.2.1: pacing disabled (cwnd-only control).
    pub fn pacing_off() -> Self {
        MasterConfig {
            force_pacing: Some(false),
            ..Default::default()
        }
    }

    /// §5.2.2: pacing force-enabled (for Cubic).
    pub fn pacing_on() -> Self {
        MasterConfig {
            force_pacing: Some(true),
            ..Default::default()
        }
    }

    /// §5.2.2 variant with a fixed rate (Fig. 6's 20/140 Mbps bars).
    pub fn pacing_on_at(rate: Bandwidth) -> Self {
        MasterConfig {
            force_pacing: Some(true),
            fixed_pacing_rate: Some(rate.as_bps()),
            ..Default::default()
        }
    }
}

/// A [`Controller`] wrapped with [`MasterConfig`] overrides.
pub struct Master {
    inner: Controller,
    config: MasterConfig,
}

impl Master {
    /// Wrap `inner` with the given knobs.
    pub fn new(inner: Controller, config: MasterConfig) -> Self {
        Master { inner, config }
    }

    /// The active knob configuration.
    pub fn config(&self) -> &MasterConfig {
        &self.config
    }
}

impl CongestionControl for Master {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn phase(&self) -> &'static str {
        self.inner.phase()
    }

    fn on_ack(&mut self, sample: &AckSample) {
        if !self.config.disable_model {
            self.inner.on_ack(sample);
        }
    }

    fn on_loss_event(&mut self, event: &LossEvent) {
        if !self.config.disable_model {
            self.inner.on_loss_event(event);
        }
    }

    fn on_recovery_exit(&mut self, now: SimTime) {
        if !self.config.disable_model {
            self.inner.on_recovery_exit(now);
        }
    }

    fn on_rto(&mut self, now: SimTime, inflight: u64) {
        if !self.config.disable_model {
            self.inner.on_rto(now, inflight);
        }
    }

    fn cwnd(&self) -> u64 {
        self.config.fixed_cwnd.unwrap_or_else(|| self.inner.cwnd())
    }

    fn wants_pacing(&self) -> bool {
        self.config
            .force_pacing
            .unwrap_or_else(|| self.config.fixed_pacing_rate.is_some() || self.inner.wants_pacing())
    }

    fn pacing_rate(&self) -> Option<Bandwidth> {
        if !self.wants_pacing() {
            return None;
        }
        if let Some(bps) = self.config.fixed_pacing_rate {
            return Some(Bandwidth::from_bps(bps));
        }
        self.inner.pacing_rate()
    }

    fn model_cost_cycles(&self) -> u64 {
        if self.config.disable_model {
            0
        } else {
            self.inner.model_cost_cycles()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::sample;
    use crate::CcKind;

    #[test]
    fn passthrough_is_transparent() {
        let mut m = Master::new(CcKind::Bbr.build(1448), MasterConfig::passthrough());
        let mut plain = CcKind::Bbr.build(1448);
        for i in 0..20 {
            let s = sample(i * 10, 10, 100, (i + 1) * 10, 10, 0);
            m.on_ack(&s);
            plain.on_ack(&s);
        }
        assert_eq!(m.cwnd(), plain.cwnd());
        assert_eq!(m.pacing_rate(), plain.pacing_rate());
        assert_eq!(m.model_cost_cycles(), plain.model_cost_cycles());
        assert_eq!(m.name(), "bbr");
    }

    #[test]
    fn fixed_cwnd_pins_window() {
        // §5.1: "We fix a cwnd value of 70 packets, similar to Cubic's
        // average cwnd for similar iPerf experiments".
        let mut m = Master::new(
            CcKind::Bbr.build(1448),
            MasterConfig::fixed_cwnd_no_model(70),
        );
        assert_eq!(m.cwnd(), 70);
        for i in 0..50 {
            m.on_ack(&sample(i * 10, 10, 100, (i + 1) * 100, 100, 0));
        }
        assert_eq!(m.cwnd(), 70, "cwnd immovable with the knob set");
    }

    #[test]
    fn disable_model_zeroes_cost_and_freezes_inner() {
        let mut m = Master::new(
            CcKind::Bbr.build(1448),
            MasterConfig {
                disable_model: true,
                ..Default::default()
            },
        );
        assert_eq!(m.model_cost_cycles(), 0, "§5.1.1: no compute when disabled");
        for i in 0..50 {
            m.on_ack(&sample(i * 10, 10, 100, (i + 1) * 100, 100, 0));
        }
        // The inner model never ran: no rate, initial window, still STARTUP.
        assert_eq!(m.pacing_rate(), None);
        assert_eq!(m.cwnd(), crate::INIT_CWND);
        assert_eq!(m.phase(), "startup");
    }

    #[test]
    fn fixed_rate_overrides_bbr_rate() {
        let rate = Bandwidth::from_mbps(140); // §5.1.2's parity point
        let mut m = Master::new(CcKind::Bbr.build(1448), MasterConfig::fixed_rate(rate));
        m.on_ack(&sample(10, 10, 100, 10, 10, 0));
        assert!(m.wants_pacing());
        assert_eq!(m.pacing_rate(), Some(rate));
    }

    #[test]
    fn pacing_off_silences_bbr_pacing() {
        let mut m = Master::new(CcKind::Bbr.build(1448), MasterConfig::pacing_off());
        m.on_ack(&sample(10, 10, 100, 10, 10, 0));
        assert!(!m.wants_pacing(), "Fig. 4: BBR with pacing disabled");
        assert_eq!(m.pacing_rate(), None);
        // The model still runs: cwnd control remains BBR's.
        assert!(m.cwnd() > crate::INIT_CWND);
    }

    #[test]
    fn pacing_on_gives_cubic_internal_pacing() {
        let m = Master::new(CcKind::Cubic.build(1448), MasterConfig::pacing_on());
        assert!(m.wants_pacing(), "Fig. 6: Cubic with pacing enabled");
        // Cubic computes no rate; the stack will fall back to
        // mss·cwnd/srtt per §5.2.2.
        assert_eq!(m.pacing_rate(), None);
    }

    #[test]
    fn pacing_on_at_rate_pins_cubic_rate() {
        let rate = Bandwidth::from_mbps(20);
        let m = Master::new(CcKind::Cubic.build(1448), MasterConfig::pacing_on_at(rate));
        assert!(m.wants_pacing());
        assert_eq!(m.pacing_rate(), Some(rate));
    }

    #[test]
    fn fixed_rate_alone_implies_pacing() {
        let m = Master::new(
            CcKind::Cubic.build(1448),
            MasterConfig::fixed_rate(Bandwidth::from_mbps(20)),
        );
        assert!(
            m.wants_pacing(),
            "setting a rate without force_pacing still paces"
        );
    }

    #[test]
    fn knobs_can_be_lifted_mid_run() {
        // The §5.1.2 rate sweep re-creates connections per rate, but the
        // wrapper also behaves sanely if knobs change semantics: a fixed
        // rate must win over the inner rate even after the inner model has
        // converged.
        let mut m = Master::new(CcKind::Bbr.build(1448), MasterConfig::passthrough());
        for i in 1..40 {
            m.on_ack(&sample(i * 10, 10, 300, i * 50, 50, 0));
        }
        let inner_rate = m.pacing_rate().expect("bbr sets a rate");
        let pinned = Master::new(
            CcKind::Bbr.build(1448),
            MasterConfig::fixed_rate(Bandwidth::from_mbps(20)),
        );
        assert_eq!(pinned.pacing_rate(), Some(Bandwidth::from_mbps(20)));
        assert_ne!(inner_rate, Bandwidth::from_mbps(20));
    }

    #[test]
    fn disable_model_also_silences_loss_and_rto_paths() {
        use crate::LossEvent;
        use sim_core::time::SimTime;
        // No fixed cwnd, so the inner Cubic's window shows through: a
        // forwarded loss would report "recovery", a forwarded RTO cwnd 1.
        let mut m = Master::new(
            CcKind::Cubic.build(1448),
            MasterConfig {
                disable_model: true,
                ..Default::default()
            },
        );
        m.on_loss_event(&LossEvent {
            now: SimTime::from_millis(1),
            inflight: 50,
            lost: 10,
        });
        assert_eq!(m.phase(), "slow_start", "inner never entered recovery");
        m.on_rto(SimTime::from_millis(2), 50);
        m.on_recovery_exit(SimTime::from_millis(3));
        assert_eq!(m.cwnd(), crate::INIT_CWND, "inner never saw the RTO");
        assert_eq!(m.phase(), "slow_start");
    }
}
