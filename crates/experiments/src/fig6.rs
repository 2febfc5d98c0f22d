//! Figure 6: is it BBR, or TCP packet pacing? — Cubic with pacing enabled.
//!
//! "Recall that pacing is disabled in Cubic by default. If enabled, Cubic
//! uses TCP's internal pacing rate of (mss × cwnd / rtt)." With the Low-End
//! configuration and 20 connections:
//!
//! * pacing on (internal rate): goodput drops considerably;
//! * a 20 Mbps/conn fixed rate "should reach a maximum of 400 Mbps … it
//!   only achieves 147 Mbps";
//! * at 140 Mbps/conn, "Cubic goodput is similar to unpaced Cubic" —
//!   so "TCP Pacing is not a BBR-specific problem on mobiles".

use crate::checks::ShapeCheck;
use crate::params::{Params, CONNS};
use crate::table::{Cell, ResultTable};
use crate::Experiment;
use congestion::master::MasterConfig;
use congestion::CcKind;
use cpu_model::CpuConfig;
use iperf::{RunReport, RunSpec};
use sim_core::units::Bandwidth;

/// The Figure 6 comparison: unpaced, internally paced, 20 and 140
/// Mbps/conn.
pub(crate) fn plan(params: &Params) -> Vec<RunSpec> {
    let setups: Vec<(&str, MasterConfig)> = vec![
        ("Cubic, no pacing (default)", MasterConfig::passthrough()),
        ("Cubic, pacing on (mss·cwnd/rtt)", MasterConfig::pacing_on()),
        (
            "Cubic, paced at 20 Mbps/conn",
            MasterConfig::pacing_on_at(Bandwidth::from_mbps(20)),
        ),
        (
            "Cubic, paced at 140 Mbps/conn",
            MasterConfig::pacing_on_at(Bandwidth::from_mbps(140)),
        ),
    ];
    setups
        .iter()
        .map(|(label, master)| {
            RunSpec::new(
                *label,
                params.pixel4_with(CpuConfig::LowEnd, CcKind::Cubic, CONNS, *master),
                params.seeds,
            )
        })
        .collect()
}

pub(crate) fn check(_params: &Params, reports: &[RunReport]) -> Experiment {
    let unpaced = reports[0].goodput_mbps;
    let mut table = ResultTable::new(vec!["Setup", "Goodput (Mbps)", "vs unpaced"]);
    for rep in reports {
        table.push_row(vec![
            rep.label.clone().into(),
            rep.goodput_mbps.into(),
            Cell::Prec(rep.goodput_mbps / unpaced, 2),
        ]);
    }

    let paced_internal = reports[1].goodput_mbps;
    let paced20 = reports[2].goodput_mbps;
    let paced140 = reports[3].goodput_mbps;
    let checks = vec![
        ShapeCheck::ratio_in(
            "enabling pacing hurts Cubic too",
            "when pacing is enabled, Cubic goodput also drops considerably",
            paced_internal / unpaced,
            0.20,
            0.90,
        ),
        ShapeCheck::ratio_in(
            "20 Mbps/conn pacing falls far short of its 400 Mbps potential",
            "achieves only 147 Mbps of a 400 Mbps maximum (vs ~310 unpaced)",
            paced20 / unpaced,
            0.15,
            0.75,
        ),
        ShapeCheck::ratio_in(
            "140 Mbps/conn pacing ≈ unpaced Cubic",
            "similar to unpaced Cubic performance",
            paced140 / unpaced,
            0.85,
            1.10,
        ),
    ];

    Experiment {
        id: "FIG6".into(),
        title: "Cubic with pacing enabled (Low-End, 20 conns): TCP pacing is not BBR-specific"
            .into(),
        table,
        checks,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn smoke_runs() {
        let exp = crate::tests::smoke(crate::ExperimentId::Fig6);
        assert_eq!(exp.table.rows.len(), 4);
        assert_eq!(exp.checks.len(), 3);
    }
}
