//! The sweep cache's keys are the compact JSON of each cell's whole
//! `SimConfig`: the key's digest names the cache file and seeds the cell's
//! RNG split. A serialiser change that moves one byte of one key turns
//! every cache cold and re-labels the cell's randomness, so these tests
//! pin the bytes.
//!
//! 1. **Golden keys.** Every cell the registry plans (the scorecard and
//!    the ablations, at the quick and the full preset) is folded into one
//!    FNV-64. The constants were recorded with the `Value`-tree serialiser
//!    that preceded the streaming writer; they must never change unless
//!    the cache format changes on purpose.
//! 2. **Round trip.** For arbitrary configs, compact output parses and
//!    re-renders to the same bytes, and pretty output equals the pretty
//!    re-render of the parsed compact output.
//! 3. **A qdisc is always in the key**, whichever one a link carries.

use mobile_bbr::cpu_model::DeviceProfile;
use mobile_bbr::experiments::{ExperimentId, Params};
use mobile_bbr::netsim::{LinkConfig, Qdisc};
use mobile_bbr::sim_core::sweep::{fnv64, SweepCell};
use mobile_bbr::sim_core::time::SimDuration;
use mobile_bbr::sim_core::units::Bandwidth;
use mobile_bbr::tcp_sim::SimConfig;
use proptest::prelude::*;
use test_support::{arb_cc, arb_cpu, arb_fleet, arb_media};

/// The golden fold, per preset: cells planned and FNV-64 of their keys.
const QUICK_CELLS: usize = 412;
const QUICK_FNV: u64 = 0x3c47_b268_922e_8550;
const FULL_CELLS: usize = 1021;
const FULL_FNV: u64 = 0xf122_04c3_898e_109f;

/// (cells, FNV-64 of every key in plan order, newline-separated) for one
/// preset.
fn planned_keys(params: &Params) -> (usize, u64) {
    let mut all = Vec::new();
    let mut cells = 0;
    let ids = ExperimentId::ALL.into_iter().chain(ExperimentId::ABLATIONS);
    for spec in ids.flat_map(|id| id.plan(params)) {
        for cell in spec.cells() {
            all.extend_from_slice(&cell.key_bytes());
            all.push(b'\n');
            cells += 1;
        }
    }
    (cells, fnv64(&all))
}

#[test]
fn planned_cache_keys_match_the_golden_fold() {
    assert_eq!(planned_keys(&Params::quick()), (QUICK_CELLS, QUICK_FNV));
    assert_eq!(planned_keys(&Params::full()), (FULL_CELLS, FULL_FNV));
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn config_json_round_trips_byte_for_byte(
        cc in arb_cc(),
        cpu in arb_cpu(),
        media in arb_media(),
        fleet in prop_oneof![Just(None).boxed(), arb_fleet().prop_map(Some).boxed()],
        conns in 1usize..6,
        seed in 1u64..1_000_000,
    ) {
        let mut builder = SimConfig::builder(DeviceProfile::pixel4(), cpu, cc, conns)
            .media(media)
            .seed(seed);
        if let Some(fleet) = fleet {
            builder = builder.fleet(fleet);
        }
        let cfg = builder.build().expect("strategy configs are valid");

        let compact = serde_json::to_string(&cfg).unwrap();
        let parsed = serde_json::from_str(&compact).expect("compact output parses");
        prop_assert_eq!(&serde_json::to_string(&parsed).unwrap(), &compact);
        prop_assert_eq!(
            serde_json::to_string_pretty(&cfg).unwrap(),
            serde_json::to_string_pretty(&parsed).unwrap()
        );
    }
}

#[test]
fn with_qdisc_round_trips_and_is_always_in_the_serialised_key() {
    let base = LinkConfig::new(Bandwidth::from_mbps(100), SimDuration::ZERO, 100);
    assert_eq!(base.qdisc(), Qdisc::Fifo);
    for (qdisc, name) in [
        (Qdisc::Fifo, "Fifo"),
        (Qdisc::Codel, "Codel"),
        (Qdisc::FqCodel, "FqCodel"),
    ] {
        // Applied on top of an AQM link, so Fifo must also clear it.
        let cfg = base.clone().with_qdisc(Qdisc::FqCodel).with_qdisc(qdisc);
        assert_eq!(cfg.qdisc(), qdisc);
        assert_eq!(cfg.codel.is_some(), qdisc != Qdisc::Fifo);
        let key = serde_json::to_value(&cfg).unwrap();
        assert_eq!(key.get("qdisc").and_then(|v| v.as_str()), Some(name));
    }
}
