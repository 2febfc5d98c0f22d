//! The media profiles of the paper's testbed (§3.2, Appendix A.1).
//!
//! * **Ethernet LAN** — phone → USB-Ethernet → Linksys 1900ACS (OpenWRT 21)
//!   → server. "We verify that this setup is able to achieve close to the
//!   1 Gbps line rate." A reliable, fixed-rate medium.
//! * **WiFi LAN** — the phone is the only station, ~1 m from the AP.
//!   "Results may have increased variability due to WiFi artifacts": the
//!   effective rate wanders inside an 802.11ac-at-1-metre envelope.
//! * **LTE** — T-Mobile uplink: "bandwidth-limited (less than 20 Mbps of
//!   goodput)", long RTT, deep (bufferbloated) eNodeB queue. Figure 9's
//!   point is that this medium never stresses the phone's CPU.
//!
//! The shallow-buffer variant of §5.2.3 ("a 10-packet shallow buffer that
//! is especially congestion-susceptible") is a builder on any profile.

use crate::link::{LinkConfig, VariableRate};
use crate::netem::NetemConfig;
use serde::Serialize;
use sim_core::time::SimDuration;
use sim_core::units::Bandwidth;

/// The three media the paper evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum MediaProfile {
    /// Ethernet LAN at 1 Gbps line rate (§3.2).
    Ethernet,
    /// WiFi LAN, single station at ~1 m (§3.2).
    Wifi,
    /// T-Mobile LTE uplink (Appendix A.1).
    Lte,
    /// Forward-looking 5G mmWave uplink: §4 cites up to 200 Mbps uplink
    /// (Narayanan et al. \[28\]) and predicts that "future 5G networks with
    /// higher bandwidths are likely to see similar BBR performance as our
    /// WiFi and Ethernet experiments" — i.e. fast enough to re-expose the
    /// pacing bottleneck that LTE hides.
    FiveG,
}

impl std::fmt::Display for MediaProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MediaProfile::Ethernet => write!(f, "Ethernet"),
            MediaProfile::Wifi => write!(f, "WiFi"),
            MediaProfile::Lte => write!(f, "LTE"),
            MediaProfile::FiveG => write!(f, "5G mmWave"),
        }
    }
}

/// Full configuration of the phone→server path and the ACK return path.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PathConfig {
    /// Human-readable name for reports.
    pub label: String,
    /// Uplink (data direction): the bottleneck.
    pub forward: LinkConfig,
    /// Optional rate variability on the uplink (WiFi).
    pub forward_var: Option<VariableRate>,
    /// Downlink (ACK direction).
    pub reverse: LinkConfig,
    /// tc-netem impairments on the uplink.
    pub forward_netem: NetemConfig,
    /// tc-netem impairments on the downlink.
    pub reverse_netem: NetemConfig,
}

impl MediaProfile {
    /// Build the default path configuration for this medium.
    pub fn path_config(self) -> PathConfig {
        match self {
            MediaProfile::Ethernet => PathConfig {
                label: "Ethernet LAN (1 Gbps)".into(),
                // Propagation folds in the USB-to-Ethernet adapter and
                // server-stack latency of the paper's testbed (§3.2): its
                // best-case loaded RTT is ~1.1 ms (Table 2), far above raw
                // cable delay.
                forward: LinkConfig::new(
                    Bandwidth::from_gbps(1),
                    SimDuration::from_micros(350),
                    600,
                ),
                forward_var: None,
                reverse: LinkConfig::new(
                    Bandwidth::from_gbps(1),
                    SimDuration::from_micros(350),
                    600,
                ),
                forward_netem: NetemConfig::none(),
                reverse_netem: NetemConfig::none(),
            },
            MediaProfile::Wifi => PathConfig {
                label: "WiFi LAN (802.11ac, 1 m)".into(),
                forward: LinkConfig::new(
                    Bandwidth::from_mbps(650),
                    SimDuration::from_micros(400),
                    400,
                ),
                forward_var: Some(VariableRate {
                    min: Bandwidth::from_mbps(400),
                    max: Bandwidth::from_mbps(900),
                    period: SimDuration::from_millis(50),
                }),
                reverse: LinkConfig::new(
                    Bandwidth::from_mbps(650),
                    SimDuration::from_micros(400),
                    400,
                ),
                forward_netem: NetemConfig::none()
                    .with_delay(SimDuration::ZERO, SimDuration::from_micros(300)),
                reverse_netem: NetemConfig::none()
                    .with_delay(SimDuration::ZERO, SimDuration::from_micros(300)),
            },
            MediaProfile::Lte => PathConfig {
                label: "LTE uplink (T-Mobile)".into(),
                forward: LinkConfig::new(
                    Bandwidth::from_mbps(18),
                    SimDuration::from_millis(25),
                    300, // bufferbloated eNodeB uplink queue
                ),
                forward_var: Some(VariableRate {
                    min: Bandwidth::from_mbps(12),
                    max: Bandwidth::from_mbps(20),
                    period: SimDuration::from_millis(200),
                }),
                reverse: LinkConfig::new(
                    Bandwidth::from_mbps(60),
                    SimDuration::from_millis(25),
                    300,
                ),
                forward_netem: NetemConfig::none()
                    .with_delay(SimDuration::ZERO, SimDuration::from_millis(2)),
                reverse_netem: NetemConfig::none()
                    .with_delay(SimDuration::ZERO, SimDuration::from_millis(1)),
            },
            MediaProfile::FiveG => PathConfig {
                label: "5G mmWave uplink (forward-looking)".into(),
                forward: LinkConfig::new(
                    Bandwidth::from_mbps(200),
                    SimDuration::from_millis(8),
                    500,
                ),
                // mmWave is notoriously variable (beam/blockage dynamics).
                forward_var: Some(VariableRate {
                    min: Bandwidth::from_mbps(120),
                    max: Bandwidth::from_mbps(220),
                    period: SimDuration::from_millis(100),
                }),
                reverse: LinkConfig::new(
                    Bandwidth::from_mbps(400),
                    SimDuration::from_millis(8),
                    500,
                ),
                forward_netem: NetemConfig::none()
                    .with_delay(SimDuration::ZERO, SimDuration::from_millis(1)),
                reverse_netem: NetemConfig::none()
                    .with_delay(SimDuration::ZERO, SimDuration::from_micros(500)),
            },
        }
    }
}

impl PathConfig {
    /// Override the uplink queue depth — the §5.2.3 shallow buffer is
    /// `MediaProfile::Ethernet.path_config().with_queue_packets(10)`.
    pub fn with_queue_packets(mut self, packets: usize) -> Self {
        self.forward.queue_packets = packets;
        self
    }

    /// Stack extra netem impairments on the uplink.
    pub fn with_forward_netem(mut self, netem: NetemConfig) -> Self {
        self.forward_netem = netem;
        self
    }

    /// True if a path with this config draws from the run's seed: a
    /// variable-rate uplink, or a netem stage in either direction with
    /// loss, jitter or reordering. A path that draws nothing runs the same
    /// at every seed.
    pub fn draws_randomness(&self) -> bool {
        self.forward_var.is_some()
            || self.forward_netem.draws_randomness()
            || self.reverse_netem.draws_randomness()
    }

    /// Base (unloaded) round-trip time: both propagation delays plus fixed
    /// netem delays, excluding serialisation and queueing.
    pub fn base_rtt(&self) -> SimDuration {
        self.forward.propagation
            + self.reverse.propagation
            + self.forward_netem.delay
            + self.reverse_netem.delay
    }

    /// The uplink's nominal rate (mean rate for variable links).
    pub fn bottleneck_rate(&self) -> Bandwidth {
        self.forward.rate
    }

    /// The uplink's hard ceiling: the top of the variable-rate envelope,
    /// or the nominal rate for fixed links. No run can deliver faster than
    /// this — the physical-conservation bound the goodput oracle checks
    /// (where [`PathConfig::bottleneck_rate`] is only the nominal centre).
    pub fn max_forward_rate(&self) -> Bandwidth {
        match &self.forward_var {
            Some(var) => var.max.max(self.forward.rate),
            None => self.forward.rate,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ethernet_is_line_rate_gigabit() {
        let p = MediaProfile::Ethernet.path_config();
        assert_eq!(p.bottleneck_rate(), Bandwidth::from_gbps(1));
        assert!(p.forward_var.is_none(), "Ethernet rate is stable");
        assert!(
            p.forward_netem.is_noop(),
            "paper's default: no tc conditions"
        );
        // LAN-scale base RTT, well under a millisecond.
        assert!(p.base_rtt() < SimDuration::from_millis(1));
    }

    #[test]
    fn wifi_is_variable() {
        let p = MediaProfile::Wifi.path_config();
        let var = p.forward_var.as_ref().expect("WiFi must vary");
        assert!(var.min < var.max);
        assert!(var.min >= Bandwidth::from_mbps(100), "1-metre 11ac is fast");
        assert!(var.max <= Bandwidth::from_gbps(1));
    }

    #[test]
    fn lte_is_bandwidth_limited_not_cpu_limited() {
        let p = MediaProfile::Lte.path_config();
        // Appendix A.1: "less than 20 Mbps of goodput".
        assert!(p.bottleneck_rate() <= Bandwidth::from_mbps(20));
        // Long RTT: tens of milliseconds.
        assert!(p.base_rtt() >= SimDuration::from_millis(40));
    }

    #[test]
    fn fiveg_is_fast_enough_to_expose_pacing() {
        // §4's premise: 5G uplink capacity (~200 Mbps) exceeds what a
        // Low-End phone can pace, unlike LTE's ~18 Mbps.
        let p = MediaProfile::FiveG.path_config();
        assert!(p.bottleneck_rate() >= Bandwidth::from_mbps(150));
        assert!(p.bottleneck_rate() > MediaProfile::Lte.path_config().bottleneck_rate());
        assert!(
            p.base_rtt() >= SimDuration::from_millis(10),
            "cellular-scale RTT"
        );
        assert!(p.forward_var.is_some(), "mmWave varies");
    }

    #[test]
    fn shallow_buffer_builder() {
        let p = MediaProfile::Ethernet.path_config().with_queue_packets(10);
        assert_eq!(p.forward.queue_packets, 10);
        // Reverse path untouched.
        assert_eq!(p.reverse.queue_packets, 600);
    }

    #[test]
    fn netem_stacking_builder() {
        let p = MediaProfile::Ethernet
            .path_config()
            .with_forward_netem(NetemConfig::none().with_loss(0.01));
        assert_eq!(p.forward_netem.loss, 0.01);
    }

    #[test]
    fn forward_rate_envelope_brackets_nominal() {
        for media in [
            MediaProfile::Ethernet,
            MediaProfile::Wifi,
            MediaProfile::Lte,
            MediaProfile::FiveG,
        ] {
            let p = media.path_config();
            assert!(p.bottleneck_rate() <= p.max_forward_rate());
        }
        // Fixed links collapse the envelope to the nominal rate.
        let eth = MediaProfile::Ethernet.path_config();
        assert_eq!(eth.max_forward_rate(), eth.bottleneck_rate());
        // Variable links expose the true ceiling.
        let wifi = MediaProfile::Wifi.path_config();
        assert_eq!(wifi.max_forward_rate(), Bandwidth::from_mbps(900));
    }

    #[test]
    fn media_display_names() {
        assert_eq!(MediaProfile::Ethernet.to_string(), "Ethernet");
        assert_eq!(MediaProfile::Wifi.to_string(), "WiFi");
        assert_eq!(MediaProfile::Lte.to_string(), "LTE");
    }
}
