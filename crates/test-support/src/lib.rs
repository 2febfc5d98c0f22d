//! Shared test scaffolding for the workspace.
//!
//! The property tests (`tests/system_invariants.rs`) and the `simcheck`
//! scenario fuzzer (bench crate) draw configurations from the same
//! supported space: every congestion controller × every Table 1 CPU
//! configuration × every media profile. This crate is the single source
//! of that space, in two forms:
//!
//! * plain `ALL_*` arrays, for seeded-RNG drawing (simcheck indexes them
//!   with its own deterministic `sim_core`-style PRNG);
//! * `arb_*` proptest strategies built on those arrays, for `proptest!`
//!   blocks.
//!
//! Keeping both forms here means adding a controller or a medium updates
//! the fuzzer and the property tests in one place.

#![warn(missing_docs)]

use congestion::CcKind;
use cpu_model::CpuConfig;
use netsim::media::MediaProfile;
use netsim::Qdisc;
use proptest::prelude::*;
use sim_core::units::Bandwidth;
use tcp_sim::fleet::DeviceSpec;
use tcp_sim::FleetConfig;

/// The canonical heterogeneous device population, re-exported so fleet
/// tests and fuzzers draw tiers from the same table the simulator ships.
pub use tcp_sim::fleet::TIER_MIX;

/// Every congestion controller the simulator supports — a re-export of
/// [`CcKind::ALL`], the single source of truth for the CC axis.
pub const ALL_CC: [CcKind; 5] = CcKind::ALL;

/// Every Table 1 CPU configuration — a re-export of [`CpuConfig::ALL`].
pub const ALL_CPU: [CpuConfig; 4] = CpuConfig::ALL;

/// Every media profile (§3.2 plus the forward-looking 5G envelope).
pub const ALL_MEDIA: [MediaProfile; 4] = [
    MediaProfile::Ethernet,
    MediaProfile::Wifi,
    MediaProfile::Lte,
    MediaProfile::FiveG,
];

/// Uniform choice over [`ALL_CC`].
pub fn arb_cc() -> impl Strategy<Value = CcKind> {
    prop_oneof![
        Just(CcKind::Reno),
        Just(CcKind::Cubic),
        Just(CcKind::Bbr),
        Just(CcKind::Bbr2),
        Just(CcKind::Bbr3),
    ]
}

/// Uniform choice over [`ALL_CPU`].
pub fn arb_cpu() -> impl Strategy<Value = CpuConfig> {
    prop_oneof![
        Just(CpuConfig::LowEnd),
        Just(CpuConfig::MidEnd),
        Just(CpuConfig::HighEnd),
        Just(CpuConfig::Default),
    ]
}

/// Uniform choice over [`ALL_MEDIA`].
pub fn arb_media() -> impl Strategy<Value = MediaProfile> {
    prop_oneof![
        Just(MediaProfile::Ethernet),
        Just(MediaProfile::Wifi),
        Just(MediaProfile::Lte),
        Just(MediaProfile::FiveG),
    ]
}

/// One random fleet device: any supported CPU tier × controller × medium,
/// carrying 1–3 upload connections.
pub(crate) fn arb_device_spec() -> impl Strategy<Value = DeviceSpec> {
    (arb_cpu(), arb_cc(), arb_media(), 1usize..=3)
        .prop_map(|(cpu, cc, media, conns)| DeviceSpec::new(cpu, cc, media).with_connections(conns))
}

/// A random fleet: 1–8 independently drawn devices, optionally contending
/// through a shared PoP uplink (FIFO, CoDel, or FQ-CoDel) provisioned at
/// a random per-device rate. Every value this emits passes
/// `SimConfigBuilder::fleet` validation by construction.
pub fn arb_fleet() -> impl Strategy<Value = FleetConfig> {
    let devices = proptest::collection::vec(arb_device_spec(), 1..=8);
    let shared = prop_oneof![
        Just(None).boxed(),
        (
            5u64..=50,
            prop_oneof![Just(Qdisc::Fifo), Just(Qdisc::Codel), Just(Qdisc::FqCodel)]
        )
            .prop_map(Some)
            .boxed(),
    ];
    (devices, shared).prop_map(|(devices, shared)| {
        let fleet = FleetConfig {
            devices,
            shared: None,
        };
        match shared {
            Some((mbps_per_device, qdisc)) => {
                let rate = Bandwidth::from_mbps(mbps_per_device * fleet.devices.len() as u64);
                fleet.with_shared(FleetConfig::pop_uplink(rate, qdisc))
            }
            None => fleet,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::test_runner::TestRng;

    #[test]
    fn arrays_cover_the_space_without_duplicates() {
        for (i, a) in ALL_CC.iter().enumerate() {
            assert_eq!(ALL_CC.iter().filter(|b| *b == a).count(), 1, "dup at {i}");
        }
        for (i, a) in ALL_CPU.iter().enumerate() {
            assert_eq!(ALL_CPU.iter().filter(|b| *b == a).count(), 1, "dup at {i}");
        }
        for (i, a) in ALL_MEDIA.iter().enumerate() {
            assert_eq!(
                ALL_MEDIA.iter().filter(|b| *b == a).count(),
                1,
                "dup at {i}"
            );
        }
    }

    #[test]
    fn strategies_only_emit_known_values() {
        let mut rng = TestRng::for_test("test-support::strategies");
        for _ in 0..64 {
            assert!(ALL_CC.contains(&arb_cc().generate(&mut rng)));
            assert!(ALL_CPU.contains(&arb_cpu().generate(&mut rng)));
            assert!(ALL_MEDIA.contains(&arb_media().generate(&mut rng)));
        }
    }

    #[test]
    fn tier_mix_stays_inside_the_supported_space() {
        for (cpu, cc, media) in TIER_MIX {
            assert!(ALL_CPU.contains(&cpu));
            assert!(ALL_CC.contains(&cc));
            assert!(ALL_MEDIA.contains(&media));
        }
    }

    #[test]
    fn fleet_strategy_emits_valid_configs() {
        let mut rng = TestRng::for_test("test-support::fleet");
        for _ in 0..64 {
            let fleet = arb_fleet().generate(&mut rng);
            assert!(!fleet.devices.is_empty(), "a fleet has at least one device");
            assert!(fleet.total_connections() >= fleet.devices.len());
            for spec in &fleet.devices {
                assert!((1..=3).contains(&spec.connections));
                assert!(ALL_CPU.contains(&spec.cpu));
                assert!(ALL_CC.contains(&spec.cc));
                assert!(ALL_MEDIA.contains(&spec.media));
            }
            if let Some(shared) = &fleet.shared {
                assert!(!shared.rate.is_zero(), "shared uplink rate is positive");
                assert!(shared.queue_packets > 0, "shared queue holds packets");
            }
        }
    }
}
