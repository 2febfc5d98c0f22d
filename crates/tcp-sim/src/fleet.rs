//! Fleet mode: N heterogeneous devices competing through one shared
//! bottleneck — the structural step from "one phone against its own path"
//! to "an edge PoP's worth of uploaders".
//!
//! The paper measures a single phone, but its real question — what
//! fraction of a user population lands in the pacing-penalty regime — is a
//! fleet-level one (the Dropbox BBRv2 evaluation makes CC rollout calls at
//! PoP scale). A [`FleetConfig`] describes that population: each
//! [`DeviceSpec`] picks a Table 1 CPU tier, a congestion control, an
//! access medium, and a connection count, and every device's uplink
//! traffic then funnels through one shared [`LinkConfig`] bottleneck with
//! a selectable queue discipline ([`netsim::Qdisc`]).
//!
//! **Arbitration model.** Each device keeps its own private access path
//! (its medium's forward/reverse links and netem stages, its own CPU). A
//! data packet that clears the device's access link is offered to the
//! shared link stamped with its access-link arrival time; the shared
//! queue serialises admissions in simulation event order (deterministic —
//! same-timestamp ties follow the timer wheel's stable run order), so a
//! fleet run is reproducible bit-for-bit at any worker count. ACKs return
//! over each device's private reverse path: the download direction of a
//! PoP uplink is never the bottleneck.
//!
//! **Degenerate fleets.** `shared: None` runs the same multi-device
//! plumbing with no shared hop at all. A 1-device fleet in this mode is
//! the differential anchor: it must reduce *byte-identically* to the
//! plain single-device simulation (`tests/fleet_differential.rs`). A
//! shared hop can never be byte-neutral — serialisation takes ≥ 1 ns per
//! packet by construction — which is why the degenerate mode exists.

use crate::mutants::{self, Mutant};
use congestion::CcKind;
use cpu_model::CpuConfig;
use netsim::media::MediaProfile;
use netsim::{LinkConfig, Qdisc};
use serde::Serialize;
use sim_core::time::SimDuration;
use sim_core::units::Bandwidth;

/// One device in the fleet: a CPU tier, an algorithm, an access medium,
/// and how many parallel upload connections it runs.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DeviceSpec {
    /// Table 1 CPU configuration for this device's modelled core.
    pub cpu: CpuConfig,
    /// Congestion control on all of this device's connections.
    pub cc: CcKind,
    /// Access medium: the device's private path to the shared bottleneck.
    pub media: MediaProfile,
    /// Parallel upload connections (≥ 1).
    pub connections: usize,
    /// Extra one-way propagation added to this device's forward access
    /// link — the RTT-unfairness axis of the FAIRNESS experiment.
    /// Serialized only when non-zero so pre-existing fleet cache keys keep
    /// their exact bytes.
    #[serde(skip_serializing_if = "duration_is_zero")]
    pub extra_rtt: SimDuration,
}

/// Serde skip predicate (`is_zero` takes `self` by value).
fn duration_is_zero(d: &SimDuration) -> bool {
    d.is_zero()
}

impl DeviceSpec {
    /// A single-connection device.
    pub fn new(cpu: CpuConfig, cc: CcKind, media: MediaProfile) -> Self {
        DeviceSpec {
            cpu,
            cc,
            media,
            connections: 1,
            extra_rtt: SimDuration::ZERO,
        }
    }

    /// Set the connection count.
    pub fn with_connections(mut self, connections: usize) -> Self {
        self.connections = connections;
        self
    }

    /// Add one-way propagation to this device's forward access link (the
    /// RTT-unfairness knob).
    pub fn with_extra_rtt(mut self, extra: SimDuration) -> Self {
        self.extra_rtt = extra;
        self
    }
}

/// The canonical heterogeneous population [`FleetConfig::mixed`] cycles
/// through: CPU tiers weighted toward the low/mid market (where the
/// paper's pacing penalty lives), the paper's CC matrix, and a WiFi-heavy
/// media mix. Kept small and public so experiments, benches and the
/// fuzzer all agree on what "a mixed fleet" means.
pub const TIER_MIX: [(CpuConfig, CcKind, MediaProfile); 6] = [
    (CpuConfig::LowEnd, CcKind::Bbr, MediaProfile::Wifi),
    (CpuConfig::MidEnd, CcKind::Cubic, MediaProfile::Wifi),
    (CpuConfig::LowEnd, CcKind::Cubic, MediaProfile::Ethernet),
    (CpuConfig::HighEnd, CcKind::Bbr, MediaProfile::Ethernet),
    (CpuConfig::MidEnd, CcKind::Bbr2, MediaProfile::Wifi),
    (CpuConfig::LowEnd, CcKind::Bbr, MediaProfile::Lte),
];

/// A fleet: the device population plus the shared bottleneck they share.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FleetConfig {
    /// The device population, in a fixed order (device index is the
    /// determinism anchor: RNG streams and result rows follow it).
    pub devices: Vec<DeviceSpec>,
    /// The common bottleneck all device uplinks feed. `None` runs the
    /// fleet plumbing with no shared hop (the differential-test mode).
    pub shared: Option<LinkConfig>,
}

impl FleetConfig {
    /// A fleet of `n` identical devices, no shared link.
    pub fn uniform(n: usize, spec: DeviceSpec) -> Self {
        FleetConfig {
            devices: vec![spec; n],
            shared: None,
        }
    }

    /// The canonical mixed fleet: `n` devices assigned round-robin from
    /// [`TIER_MIX`], no shared link yet (add one with
    /// [`FleetConfig::with_shared`]).
    pub fn mixed(n: usize) -> Self {
        let devices = (0..n)
            .map(|i| {
                let (cpu, cc, media) = TIER_MIX[i % TIER_MIX.len()];
                DeviceSpec::new(cpu, cc, media)
            })
            .collect();
        FleetConfig {
            devices,
            shared: None,
        }
    }

    /// Attach a shared bottleneck.
    pub fn with_shared(mut self, shared: LinkConfig) -> Self {
        self.shared = Some(shared);
        self
    }

    /// The standard PoP-uplink shared bottleneck: `rate` with a 500 µs
    /// propagation hop and a deep 2048-packet buffer, under the given
    /// queue discipline.
    pub fn pop_uplink(rate: Bandwidth, qdisc: Qdisc) -> LinkConfig {
        LinkConfig::new(rate, SimDuration::from_micros(500), 2048).with_qdisc(qdisc)
    }

    /// Total connections across the population (what
    /// [`crate::SimConfig::connections`] must equal in fleet mode).
    pub fn total_connections(&self) -> usize {
        self.devices.iter().map(|d| d.connections).sum()
    }
}

/// Fleet-level metrics, reported in [`crate::SimResult::fleet`] when the
/// run carried a [`FleetConfig`].
///
/// CPU statistics in a fleet run aggregate across device CPUs: cycle and
/// operation counts sum, while `busy_time` reports the *busiest* device
/// (so "busy ≤ wall clock" stays a per-core invariant the oracles can
/// check).
#[derive(Debug, Clone, Serialize)]
pub struct FleetResult {
    /// Device count.
    pub devices: u64,
    /// Sum of per-device goodput over the measurement window, Mbps.
    pub aggregate_goodput_mbps: f64,
    /// Jain's fairness index over per-device goodput (all devices).
    pub jain_devices: f64,
    /// Per-CC-group breakdown, in [`CcKind::ALL`] order whatever order the
    /// devices were listed in; within a group, devices keep fleet order.
    pub cc_groups: Vec<CcGroupStat>,
    /// Per-CPU-tier goodput distribution, in [`CpuConfig::ALL`] order.
    pub tiers: Vec<TierStat>,
    /// Modelled fraction of devices in the pacing-penalty regime: the
    /// device paces (BBR/BBR2 with pacing not forced off) *and* its CPU
    /// ran ≥ 90 % busy — the population-level answer to the paper's
    /// question.
    pub pacing_penalty_fraction: f64,
    /// Device 0's fraction of the fleet's aggregate goodput (0 when the
    /// fleet delivered nothing). In the two-device FAIRNESS duels device 0
    /// is the BBR-variant contender, so this is the per-flow share the
    /// scorecard checks directly.
    pub dev0_share: f64,
    /// Packets admitted by the shared bottleneck (0 with `shared: None`).
    pub shared_pkts: u64,
    /// Packets dropped at the shared bottleneck's queue.
    pub shared_drops: u64,
    /// Payload bytes delivered end-to-end across the fleet, whole run —
    /// the conservation oracle's left-hand side.
    pub delivered_bytes: u64,
}

/// One congestion-control cohort's share of the bottleneck.
#[derive(Debug, Clone, Serialize)]
pub struct CcGroupStat {
    /// Algorithm display name (`congestion::CcKind`).
    pub cc: String,
    /// Devices running it.
    pub devices: u64,
    /// Cohort goodput sum, Mbps.
    pub goodput_mbps: f64,
    /// Jain's index *within* the cohort (per-device goodputs).
    pub jain: f64,
}

/// One CPU tier's goodput distribution across its devices.
#[derive(Debug, Clone, Serialize)]
pub struct TierStat {
    /// Tier display name (`cpu_model::CpuConfig`).
    pub tier: String,
    /// Devices in the tier.
    pub devices: u64,
    /// 10th-percentile per-device goodput, Mbps.
    pub goodput_p10_mbps: f64,
    /// Median per-device goodput, Mbps.
    pub goodput_p50_mbps: f64,
    /// 90th-percentile per-device goodput, Mbps.
    pub goodput_p90_mbps: f64,
}

/// Everything `StackSim::finish` needs per device to assemble a
/// [`FleetResult`]: built inside the engine, consumed by
/// `FleetResult::compute`.
#[derive(Debug, Clone)]
pub struct DeviceOutcome {
    /// Goodput over the measurement window, Mbps.
    pub goodput_mbps: f64,
    /// The device still wanted pacing at the end of the run (reflects
    /// master-module overrides, not just the algorithm default).
    pub wants_pacing: bool,
    /// Fraction of the run the device's CPU was busy.
    pub busy_fraction: f64,
}

/// CPU-saturation threshold for the pacing-penalty regime.
const PENALTY_BUSY_FRACTION: f64 = 0.9;

impl FleetResult {
    /// Assemble fleet metrics from per-device outcomes (index-aligned with
    /// `fleet.devices`) and the shared link's admission tallies.
    pub(crate) fn compute(
        fleet: &FleetConfig,
        outcomes: &[DeviceOutcome],
        shared_pkts: u64,
        shared_drops: u64,
        delivered_bytes: u64,
    ) -> FleetResult {
        assert_eq!(
            fleet.devices.len(),
            outcomes.len(),
            "one outcome per device"
        );
        let device_rates: Vec<f64> = outcomes.iter().map(|o| o.goodput_mbps).collect();
        let aggregate_goodput_mbps: f64 = device_rates.iter().sum();

        let cc_groups = CcKind::ALL
            .iter()
            .filter_map(|&cc| {
                let rates: Vec<f64> = fleet
                    .devices
                    .iter()
                    .zip(outcomes)
                    .filter(|(spec, _)| spec.cc == cc)
                    .map(|(_, o)| o.goodput_mbps)
                    .collect();
                (!rates.is_empty()).then(|| CcGroupStat {
                    cc: cc.to_string(),
                    devices: rates.len() as u64,
                    goodput_mbps: rates.iter().sum(),
                    jain: sim_core::metrics::jain(&rates),
                })
            })
            .collect();

        let tiers = CpuConfig::ALL
            .iter()
            .filter_map(|&tier| {
                let mut hist = sim_core::metrics::Histogram::new();
                let mut n = 0u64;
                for (spec, o) in fleet.devices.iter().zip(outcomes) {
                    if spec.cpu == tier {
                        hist.record(o.goodput_mbps);
                        n += 1;
                    }
                }
                (n > 0).then(|| TierStat {
                    tier: tier.to_string(),
                    devices: n,
                    goodput_p10_mbps: hist.quantile(0.10).unwrap_or(0.0),
                    goodput_p50_mbps: hist.quantile(0.50).unwrap_or(0.0),
                    goodput_p90_mbps: hist.quantile(0.90).unwrap_or(0.0),
                })
            })
            .collect();

        let penalised = outcomes
            .iter()
            .filter(|o| o.wants_pacing && o.busy_fraction >= PENALTY_BUSY_FRACTION)
            .count();

        let mut jain_devices = sim_core::metrics::jain(&device_rates);
        if mutants::is(Mutant::FleetJainMiscount) && device_rates.len() > 1 {
            // The off-by-one divides by n−1 instead of n; undo one factor.
            let n = device_rates.len() as f64;
            jain_devices *= n / (n - 1.0);
        }

        let dev0_share = if aggregate_goodput_mbps > 0.0 {
            device_rates.first().copied().unwrap_or(0.0) / aggregate_goodput_mbps
        } else {
            0.0
        };

        FleetResult {
            devices: fleet.devices.len() as u64,
            aggregate_goodput_mbps,
            jain_devices,
            cc_groups,
            tiers,
            pacing_penalty_fraction: penalised as f64 / fleet.devices.len().max(1) as f64,
            dev0_share,
            shared_pkts,
            shared_drops,
            delivered_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(goodput: f64) -> DeviceOutcome {
        DeviceOutcome {
            goodput_mbps: goodput,
            wants_pacing: false,
            busy_fraction: 0.1,
        }
    }

    #[test]
    fn mixed_cycles_the_tier_mix() {
        let fleet = FleetConfig::mixed(13);
        assert_eq!(fleet.devices.len(), 13);
        assert_eq!(fleet.total_connections(), 13);
        assert_eq!(fleet.devices[0], fleet.devices[TIER_MIX.len()].clone());
        // Every tier-mix entry appears at least twice in 13 devices.
        for &(cpu, cc, media) in &TIER_MIX {
            let n = fleet
                .devices
                .iter()
                .filter(|d| d.cpu == cpu && d.cc == cc && d.media == media)
                .count();
            assert!(n >= 2, "{cpu:?}/{cc:?}/{media:?} appears {n} times");
        }
    }

    #[test]
    fn pop_uplink_applies_qdisc() {
        let fifo = FleetConfig::pop_uplink(Bandwidth::from_gbps(2), Qdisc::Fifo);
        let codel = FleetConfig::pop_uplink(Bandwidth::from_gbps(2), Qdisc::Codel);
        assert_eq!(fifo.qdisc(), Qdisc::Fifo);
        assert_eq!(codel.qdisc(), Qdisc::Codel);
        assert_eq!(fifo.rate, Bandwidth::from_gbps(2));
    }

    #[test]
    fn compute_groups_and_tiers() {
        let fleet = FleetConfig {
            devices: vec![
                DeviceSpec::new(CpuConfig::LowEnd, CcKind::Bbr, MediaProfile::Wifi),
                DeviceSpec::new(CpuConfig::LowEnd, CcKind::Bbr, MediaProfile::Wifi),
                DeviceSpec::new(CpuConfig::HighEnd, CcKind::Cubic, MediaProfile::Ethernet),
                DeviceSpec::new(CpuConfig::HighEnd, CcKind::Reno, MediaProfile::Ethernet),
            ],
            shared: None,
        };
        let outcomes = vec![outcome(10.0), outcome(10.0), outcome(20.0), outcome(10.0)];
        let fr = FleetResult::compute(&fleet, &outcomes, 100, 5, 1_000_000);
        assert_eq!(fr.devices, 4);
        assert!((fr.aggregate_goodput_mbps - 50.0).abs() < 1e-9);
        // Groups in CcKind::ALL order, not insertion order: the Reno device
        // is listed last but its group comes first.
        let groups: Vec<&str> = fr.cc_groups.iter().map(|g| g.cc.as_str()).collect();
        assert_eq!(groups, ["Reno", "Cubic", "BBR"]);
        assert_eq!(fr.cc_groups[2].devices, 2);
        assert_eq!(fr.cc_groups[2].jain, 1.0, "equal shares within cohort");
        // Tiers: Low-End then High-End, per CpuConfig::ALL order.
        assert_eq!(fr.tiers.len(), 2);
        assert_eq!(fr.tiers[0].tier, "Low-End");
        assert_eq!(fr.tiers[0].devices, 2);
        assert_eq!(fr.shared_drops, 5);
        assert_eq!(fr.delivered_bytes, 1_000_000);
        assert!((fr.dev0_share - 0.2).abs() < 1e-12, "10 of 50 Mbps");
    }

    #[test]
    fn dev0_share_handles_an_idle_fleet() {
        let fleet = FleetConfig::uniform(
            2,
            DeviceSpec::new(CpuConfig::LowEnd, CcKind::Bbr, MediaProfile::Wifi),
        );
        let fr = FleetResult::compute(&fleet, &[outcome(0.0), outcome(0.0)], 0, 0, 0);
        assert_eq!(fr.dev0_share, 0.0);
    }

    #[test]
    fn extra_rtt_is_skipped_from_serialization_when_zero() {
        let key = |spec: &DeviceSpec| serde_json::to_value(spec).unwrap();
        let spec = DeviceSpec::new(CpuConfig::LowEnd, CcKind::Bbr, MediaProfile::Wifi);
        assert!(
            key(&spec).get("extra_rtt").is_none(),
            "zero extra_rtt must keep legacy fleet cache keys byte-stable"
        );
        let shifted = spec.with_extra_rtt(SimDuration::from_millis(40));
        assert!(key(&shifted).get("extra_rtt").is_some());
    }

    #[test]
    fn pacing_penalty_counts_saturated_pacers_only() {
        let fleet = FleetConfig::uniform(
            4,
            DeviceSpec::new(CpuConfig::LowEnd, CcKind::Bbr, MediaProfile::Wifi),
        );
        let outcomes = vec![
            DeviceOutcome {
                goodput_mbps: 1.0,
                wants_pacing: true,
                busy_fraction: 0.99,
            },
            DeviceOutcome {
                goodput_mbps: 1.0,
                wants_pacing: true,
                busy_fraction: 0.2, // paces but has CPU headroom
            },
            DeviceOutcome {
                goodput_mbps: 1.0,
                wants_pacing: false,
                busy_fraction: 0.99, // saturated but not pacing
            },
            DeviceOutcome {
                goodput_mbps: 1.0,
                wants_pacing: true,
                busy_fraction: 0.95,
            },
        ];
        let fr = FleetResult::compute(&fleet, &outcomes, 0, 0, 0);
        assert!((fr.pacing_penalty_fraction - 0.5).abs() < 1e-12);
    }
}
