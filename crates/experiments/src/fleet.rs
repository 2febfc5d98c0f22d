//! FLEET — the PoP-scale extension: a heterogeneous device population
//! competing through one shared bottleneck.
//!
//! The paper instruments a single phone, but the decision its data feeds —
//! "is BBR safe to roll out to *this user base*?" — is made at PoP scale
//! (the Dropbox BBRv2 evaluation in PAPERS.md). This experiment runs the
//! canonical mixed fleet ([`tcp_sim::fleet::TIER_MIX`] round-robin, one
//! upload connection per device) through the standard PoP uplink under
//! FIFO and CoDel queue disciplines, plus a homogeneous Low-End/BBR/WiFi
//! fleet as the fairness anchor, and reads off the fleet-level metrics the
//! tentpole surfaces in [`tcp_sim::fleet::FleetResult`]: aggregate
//! goodput, Jain's index across devices, the pacing-penalty fraction, and
//! shared-queue drops.
//!
//! Fleet size comes from [`Params::fleet_devices`]: 504 heterogeneous
//! devices at the full preset (the PoP regime), scaled down for smoke and
//! quick runs. The shared uplink is provisioned at [`SHARE_MBPS`] per
//! device, well under the population's summed access capacity, so the
//! bottleneck is genuinely shared.

use crate::checks::ShapeCheck;
use crate::params::Params;
use crate::table::{Cell, ResultTable};
use crate::Experiment;
use congestion::CcKind;
use cpu_model::CpuConfig;
use iperf::{RunReport, RunSpec};
use netsim::media::MediaProfile;
use netsim::Qdisc;
use sim_core::units::Bandwidth;
use tcp_sim::fleet::DeviceSpec;
use tcp_sim::FleetConfig;

/// Shared-uplink provisioning per device, Mbps. Far below the WiFi and
/// Ethernet access rates, slightly above LTE's ~18 Mbps envelope: every
/// non-LTE device is bottlenecked by the shared hop, which is the regime
/// a fairness experiment needs.
pub(crate) const SHARE_MBPS: u64 = 20;

/// Fleet size at which near-equal sharing becomes a statistical-
/// multiplexing guarantee. A dozen BBR flows through one deep FIFO are
/// measurably unfair (Jain ~0.3–0.5: each probe can hold a real share of
/// the aggregate queue); by hundreds of devices no single flow's probing
/// moves the queue and the index climbs above 0.9. The homogeneous-
/// fairness check only claims the property at or above this size — the
/// full preset's 504 devices exercise it, the scaled-down smoke/quick
/// fleets do not.
const MULTIPLEXING_FLOOR: usize = 100;

/// The shared PoP uplink for an `n`-device fleet.
fn shared_uplink(n: usize, qdisc: Qdisc) -> netsim::LinkConfig {
    FleetConfig::pop_uplink(Bandwidth::from_mbps(SHARE_MBPS * n as u64), qdisc)
}

/// The FLEET experiment: mixed/FIFO, mixed/CoDel, uniform/FIFO.
pub(crate) fn plan(params: &Params) -> Vec<RunSpec> {
    let n = params.fleet_devices;
    vec![
        RunSpec::new(
            format!("Mixed fleet, FIFO ({n} devices)"),
            params.fleet(FleetConfig::mixed(n).with_shared(shared_uplink(n, Qdisc::Fifo))),
            params.seeds,
        ),
        RunSpec::new(
            format!("Mixed fleet, CoDel ({n} devices)"),
            params.fleet(FleetConfig::mixed(n).with_shared(shared_uplink(n, Qdisc::Codel))),
            params.seeds,
        ),
        RunSpec::new(
            format!("Uniform Low-End BBR/WiFi, FIFO ({n} devices)"),
            params.fleet(
                FleetConfig::uniform(
                    n,
                    DeviceSpec::new(CpuConfig::LowEnd, CcKind::Bbr, MediaProfile::Wifi),
                )
                .with_shared(shared_uplink(n, Qdisc::Fifo)),
            ),
            params.seeds,
        ),
    ]
}

pub(crate) fn check(params: &Params, reports: &[RunReport]) -> Experiment {
    let n = params.fleet_devices;
    let mut table = ResultTable::new(vec![
        "Fleet",
        "Aggregate goodput (Mbps)",
        "Jain (devices)",
        "Penalty fraction",
        "Mean RTT (ms)",
        "Shared drops",
    ]);
    for rep in reports {
        table.push_row(vec![
            rep.label.clone().into(),
            rep.goodput_mbps.into(),
            Cell::Prec(rep.fleet_jain, 3),
            Cell::Prec(rep.fleet_penalty_fraction, 3),
            Cell::Prec(rep.mean_rtt_ms, 2),
            Cell::Prec(rep.fleet_shared_drops, 0),
        ]);
    }

    let shared_mbps = (SHARE_MBPS * n as u64) as f64;
    let worst_overrun = reports
        .iter()
        .map(|r| r.goodput_mbps / shared_mbps)
        .fold(0.0f64, f64::max);
    let fifo = &reports[0];
    let codel = &reports[1];
    let uniform = &reports[2];
    let min_jain = 1.0 / n as f64;
    let checks = vec![
        ShapeCheck::predicate(
            "fleet never outruns the shared bottleneck",
            "aggregate goodput is capped by the shared-uplink capacity",
            format!(
                "worst row delivers {:.1}% of the {shared_mbps:.0} Mbps uplink",
                worst_overrun * 100.0
            ),
            worst_overrun <= 1.05,
        ),
        ShapeCheck::predicate(
            "homogeneous fleet shares near-equally at PoP scale",
            "with enough identical devices, statistical multiplexing converges them to equal rates",
            if n >= MULTIPLEXING_FLOOR {
                format!(
                    "uniform fleet Jain {:.3} at {n} devices",
                    uniform.fleet_jain
                )
            } else {
                format!(
                    "uniform fleet Jain {:.3} at {n} devices — below the {MULTIPLEXING_FLOOR}-device \
                     multiplexing regime, where the property is not claimed",
                    uniform.fleet_jain
                )
            },
            n < MULTIPLEXING_FLOOR || uniform.fleet_jain >= 0.9,
        ),
        ShapeCheck::predicate(
            "mixed fleet stays inside Jain bounds",
            "Jain's index lies in [1/n, 1] for any rate vector",
            format!(
                "FIFO {:.3}, CoDel {:.3} (floor {min_jain:.4})",
                fifo.fleet_jain, codel.fleet_jain
            ),
            [fifo, codel]
                .iter()
                .all(|r| r.fleet_jain >= min_jain - 1e-9 && r.fleet_jain <= 1.0 + 1e-9),
        ),
        ShapeCheck::predicate(
            "CoDel keeps the standing queue short",
            "AQM bounds sojourn time where FIFO lets the deep buffer fill",
            format!(
                "mean RTT {:.2} ms under CoDel vs {:.2} ms under FIFO",
                codel.mean_rtt_ms, fifo.mean_rtt_ms
            ),
            codel.mean_rtt_ms < fifo.mean_rtt_ms,
        ),
        ShapeCheck::predicate(
            "penalty regime is a strict subset of the mixed fleet",
            "High-End devices never land in the pacing-penalty regime",
            format!(
                "mixed-fleet penalty fraction {:.3}",
                fifo.fleet_penalty_fraction
            ),
            fifo.fleet_penalty_fraction < 1.0,
        ),
    ];

    Experiment {
        id: "FLEET".into(),
        title: format!(
            "Shared-bottleneck fleet: {n} devices through one {SHARE_MBPS} Mbps/device PoP uplink"
        ),
        table,
        checks,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn smoke_runs() {
        let exp = crate::tests::smoke(crate::ExperimentId::Fleet);
        assert_eq!(exp.table.rows.len(), 3);
        assert_eq!(exp.checks.len(), 5);
        // The capacity cap and the Jain bounds are scale-free physics, and
        // the homogeneous-fairness check is vacuous below the multiplexing
        // floor, so all three must hold even at smoke parameters; the
        // checks that need steady state (CoDel vs FIFO RTT) get their
        // verdict from the full preset.
        assert!(exp.checks[0].pass, "{}", exp.checks[0].render());
        assert!(exp.checks[1].pass, "{}", exp.checks[1].render());
        assert!(exp.checks[2].pass, "{}", exp.checks[2].render());
    }
}
