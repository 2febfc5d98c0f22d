//! §7.1.3 probe (the paper's future work): does the pacing stride hurt TCP
//! fairness — and how do BBR variants share a bottleneck with Cubic?
//!
//! "Since previous studies have shown that packet pacing improves fairness,
//! pacing strides may increase the unfairness of BBR. … We need further
//! studies to explore both fairness and congestion when using pacing
//! strides." This experiment is that further study, in simulation, in two
//! parts:
//!
//! 1. **Stride rows** — Jain's index across 20 concurrent BBR flows under
//!    stride 1/5/10, with pacing disabled as the anti-baseline, on the
//!    High-End configuration (so the CPU doesn't confound the sharing
//!    behaviour).
//! 2. **Duel rows** — two-device fleets through one shared PoP uplink:
//!    a BBR-variant contender (device 0) against a Cubic incumbent
//!    (device 1) under FIFO, CoDel, and FQ-CoDel queue disciplines, plus
//!    same-CC RTT-unfairness duels where device 0 carries
//!    [`DUEL_EXTRA_RTT_MS`] of extra propagation. The scorecard reads the
//!    fleet-level Jain index and device 0's goodput share
//!    ([`iperf::RunReport::fleet_dev0_share`]) straight off the reports.

use crate::checks::ShapeCheck;
use crate::params::{Params, CONNS};
use crate::table::{Cell, ResultTable};
use crate::Experiment;
use congestion::master::MasterConfig;
use congestion::CcKind;
use cpu_model::CpuConfig;
use iperf::{RunReport, RunSpec};
use netsim::media::MediaProfile;
use netsim::Qdisc;
use sim_core::time::SimDuration;
use sim_core::units::Bandwidth;
use tcp_sim::fleet::DeviceSpec;
use tcp_sim::FleetConfig;

/// Strides probed.
const STRIDES: [u64; 3] = [1, 5, 10];
/// Rows before the duels: the stride rows, BBR unpaced, Cubic unpaced and
/// Cubic paced.
const DUEL_BASE: usize = STRIDES.len() + 3;
/// Shared-uplink provisioning per contender in the two-device duels, Mbps.
/// Well below the Ethernet access rate, so the shared hop is the
/// bottleneck both contenders fight over.
const DUEL_SHARE_MBPS: u64 = 20;
/// Extra one-way propagation handed to device 0 in the RTT-unfairness
/// duels.
const DUEL_EXTRA_RTT_MS: u64 = 50;

/// A duel contender: High-End host (CPU out of the picture), Ethernet
/// access (access never the bottleneck), one upload connection.
fn contender(cc: CcKind) -> DeviceSpec {
    DeviceSpec::new(CpuConfig::HighEnd, cc, MediaProfile::Ethernet)
}

/// A two-device duel through a shared PoP uplink under `qdisc`.
fn duel(dev0: DeviceSpec, dev1: DeviceSpec, qdisc: Qdisc) -> FleetConfig {
    FleetConfig {
        devices: vec![dev0, dev1],
        shared: None,
    }
    .with_shared(FleetConfig::pop_uplink(
        Bandwidth::from_mbps(2 * DUEL_SHARE_MBPS),
        qdisc,
    ))
}

/// The fairness probe: [`DUEL_BASE`] single-device rows, then seven duels.
pub(crate) fn plan(params: &Params) -> Vec<RunSpec> {
    let mut specs: Vec<RunSpec> = STRIDES
        .iter()
        .map(|&s| {
            RunSpec::new(
                format!("BBR stride {s}x"),
                params.pixel4_stride(CpuConfig::HighEnd, CcKind::Bbr, CONNS, s),
                params.seeds,
            )
        })
        .collect();
    specs.push(RunSpec::new(
        "BBR unpaced",
        params.pixel4_with(
            CpuConfig::HighEnd,
            CcKind::Bbr,
            CONNS,
            MasterConfig::pacing_off(),
        ),
        params.seeds,
    ));
    // The literature's claim (Aggarwal'00/Wei'06, cited in §5.2.3) is about
    // pacing vs not pacing the *same loss-based* algorithm: Cubic rows.
    specs.push(RunSpec::new(
        "Cubic unpaced (default)",
        params.pixel4(CpuConfig::HighEnd, CcKind::Cubic, CONNS),
        params.seeds,
    ));
    specs.push(RunSpec::new(
        "Cubic paced (internal rate)",
        params.pixel4_with(
            CpuConfig::HighEnd,
            CcKind::Cubic,
            CONNS,
            MasterConfig::pacing_on(),
        ),
        params.seeds,
    ));
    debug_assert_eq!(specs.len(), DUEL_BASE);
    // BBR-variant vs Cubic across the qdisc matrix, then same-CC duels
    // where device 0 carries extra RTT.
    for (cc, qdisc) in [
        (CcKind::Bbr, Qdisc::Fifo),
        (CcKind::Bbr, Qdisc::Codel),
        (CcKind::Bbr, Qdisc::FqCodel),
        (CcKind::Bbr3, Qdisc::Fifo),
        (CcKind::Bbr3, Qdisc::FqCodel),
    ] {
        specs.push(RunSpec::new(
            format!("{cc} vs Cubic duel, {qdisc}"),
            params.fleet(duel(contender(cc), contender(CcKind::Cubic), qdisc)),
            params.seeds,
        ));
    }
    let extra = SimDuration::from_millis(DUEL_EXTRA_RTT_MS);
    for cc in [CcKind::Bbr, CcKind::Cubic] {
        specs.push(RunSpec::new(
            format!("{cc} +{DUEL_EXTRA_RTT_MS}ms vs {cc} duel, FIFO"),
            params.fleet(duel(
                contender(cc).with_extra_rtt(extra),
                contender(cc),
                Qdisc::Fifo,
            )),
            params.seeds,
        ));
    }
    specs
}

pub(crate) fn check(_params: &Params, reports: &[RunReport]) -> Experiment {
    let mut table = ResultTable::new(vec![
        "Setup",
        "Goodput (Mbps)",
        "Jain index",
        "Dev0 share",
        "Mean RTT (ms)",
    ]);
    for (i, rep) in reports.iter().enumerate() {
        let is_duel = i >= DUEL_BASE;
        table.push_row(vec![
            rep.label.clone().into(),
            rep.goodput_mbps.into(),
            Cell::Prec(
                if is_duel {
                    rep.fleet_jain
                } else {
                    rep.fairness
                },
                3,
            ),
            if is_duel {
                Cell::Prec(rep.fleet_dev0_share, 3)
            } else {
                Cell::Empty
            },
            Cell::Prec(rep.mean_rtt_ms, 2),
        ]);
    }

    let stride1 = reports[0].fairness;
    let stride10 = reports[2].fairness;
    let cubic_unpaced = reports[DUEL_BASE - 2].fairness;
    let cubic_paced = reports[DUEL_BASE - 1].fairness;
    let duels = &reports[DUEL_BASE..];
    let [bbr_fifo, bbr_codel, bbr_fq, bbr3_fifo, bbr3_fq, rtt_bbr, rtt_cubic] = duels else {
        unreachable!("seven duel rows by construction");
    };
    let worst_jain = duels.iter().map(|r| r.fleet_jain).fold(1.0f64, f64::min);
    let checks = vec![
        ShapeCheck::predicate(
            "pacing Cubic improves its fairness",
            "packet pacing improves fairness (Aggarwal'00, Wei'06)",
            format!("Cubic paced {cubic_paced:.2} vs unpaced {cubic_unpaced:.2}"),
            cubic_paced > cubic_unpaced,
        ),
        ShapeCheck::predicate(
            "striding costs at most modest BBR fairness",
            "pacing strides may increase the unfairness of BBR (open question)",
            format!("stride10 {stride10:.2} vs stride1 {stride1:.2}"),
            stride10 > 0.5 * stride1,
        ),
        ShapeCheck::predicate(
            "duels stay inside two-flow Jain bounds",
            "Jain's index lies in [1/2, 1] for any two-device rate vector",
            format!("worst duel Jain {worst_jain:.3}"),
            duels
                .iter()
                .all(|r| r.fleet_jain >= 0.5 - 1e-9 && r.fleet_jain <= 1.0 + 1e-9),
        ),
        ShapeCheck::predicate(
            "Cubic outgrabs BBR in the deep FIFO duel",
            "against a deep buffer, the loss-based incumbent fills the queue and \
             model-based BBR yields (Hock'17 regime)",
            format!("BBR share {:.3} under FIFO", bbr_fifo.fleet_dev0_share),
            bbr_fifo.fleet_dev0_share < 0.5,
        ),
        ShapeCheck::predicate(
            "FQ-CoDel evens the BBR/Cubic duel",
            "per-flow scheduling enforces the fair share that FIFO leaves to the CC war",
            format!(
                "|share-1/2| {:.3} under FQ-CoDel vs {:.3} under FIFO",
                (bbr_fq.fleet_dev0_share - 0.5).abs(),
                (bbr_fifo.fleet_dev0_share - 0.5).abs()
            ),
            (bbr_fq.fleet_dev0_share - 0.5).abs() < (bbr_fifo.fleet_dev0_share - 0.5).abs(),
        ),
        ShapeCheck::predicate(
            "BBR shrugs off extra RTT where Cubic pays",
            "BBR's share is far less RTT-sensitive than loss-based Cubic's \
             (rate-based model vs once-per-RTT window growth)",
            format!(
                "long-RTT share: BBR {:.3} vs Cubic {:.3}",
                rtt_bbr.fleet_dev0_share, rtt_cubic.fleet_dev0_share
            ),
            rtt_bbr.fleet_dev0_share > rtt_cubic.fleet_dev0_share,
        ),
        ShapeCheck::predicate(
            "BBRv3 is no worse a Cubic neighbour than BBRv1",
            "v3's bounded inflight and loss response temper v1's duel behaviour",
            format!(
                "|share-1/2|: v3 {:.3} vs v1 {:.3} under FIFO (CoDel v1 {:.3}, FQ v3 {:.3})",
                (bbr3_fifo.fleet_dev0_share - 0.5).abs(),
                (bbr_fifo.fleet_dev0_share - 0.5).abs(),
                (bbr_codel.fleet_dev0_share - 0.5).abs(),
                (bbr3_fq.fleet_dev0_share - 0.5).abs()
            ),
            (bbr3_fifo.fleet_dev0_share - 0.5).abs()
                <= (bbr_fifo.fleet_dev0_share - 0.5).abs() + 0.05,
        ),
    ];

    Experiment {
        id: "FAIRNESS".into(),
        title: format!(
            "Pacing-stride fairness probe + CC/qdisc duel matrix \
             ({CONNS} flows; duels at {DUEL_SHARE_MBPS} Mbps/contender)"
        ),
        table,
        checks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_runs() {
        let exp = crate::tests::smoke(crate::ExperimentId::Fairness);
        assert_eq!(exp.table.rows.len(), STRIDES.len() + 3 + 7);
        assert_eq!(exp.checks.len(), 7);
        // The two-flow Jain bound is scale-free physics and must hold even
        // at smoke parameters; the direction checks (who wins the duel,
        // RTT sensitivity) need steady state and get their verdict from
        // the quick/full presets.
        assert!(exp.checks[2].pass, "{}", exp.checks[2].render());
    }
}
