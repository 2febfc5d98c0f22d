//! §4.2: BBR2 performance — Cubic vs BBR vs BBR2 over the WiFi LAN on the
//! Pixel 6 Low-End configuration with 20 connections.
//!
//! "From Cubic to BBR and BBR2, there is a 23 % and 20 % drop in goodput,
//! respectively." (The paper runs this over WiFi because its BBR2 kernel
//! for the Pixel 6 lacked Ethernet support.)

use crate::checks::ShapeCheck;
use crate::params::{Params, CONNS};
use crate::table::{Cell, ResultTable};
use crate::Experiment;
use congestion::CcKind;
use cpu_model::CpuConfig;
use iperf::{RunReport, RunSpec};
use netsim::media::MediaProfile;

/// The algorithms compared, in plan order (Cubic is the reference).
const ALGOS: [CcKind; 3] = [CcKind::Cubic, CcKind::Bbr, CcKind::Bbr2];

/// The §4.2 comparison.
pub(crate) fn plan(params: &Params) -> Vec<RunSpec> {
    ALGOS
        .iter()
        .map(|&cc| {
            RunSpec::new(
                format!("{cc}, Pixel 6 Low-End WiFi, {CONNS} conns"),
                params.pixel6(CpuConfig::LowEnd, cc, CONNS, MediaProfile::Wifi),
                params.seeds,
            )
        })
        .collect()
}

pub(crate) fn check(_params: &Params, reports: &[RunReport]) -> Experiment {
    let mut table = ResultTable::new(vec![
        "Algorithm",
        "Goodput (Mbps)",
        "vs Cubic",
        "Mean RTT (ms)",
    ]);
    let cubic = reports[0].goodput_mbps;
    for (cc, rep) in ALGOS.iter().zip(reports) {
        table.push_row(vec![
            cc.to_string().into(),
            rep.goodput_mbps.into(),
            Cell::Prec(rep.goodput_mbps / cubic, 2),
            Cell::Prec(rep.mean_rtt_ms, 2),
        ]);
    }

    let bbr_ratio = reports[1].goodput_mbps / cubic;
    let bbr2_ratio = reports[2].goodput_mbps / cubic;
    let checks = vec![
        ShapeCheck::ratio_in(
            "BBR below Cubic on WiFi Low-End",
            "−23 % from Cubic to BBR",
            bbr_ratio,
            0.40,
            0.95,
        ),
        ShapeCheck::ratio_in(
            "BBR2 below Cubic on WiFi Low-End",
            "−20 % from Cubic to BBR2",
            bbr2_ratio,
            0.40,
            0.97,
        ),
        ShapeCheck::predicate(
            "BBR2 shows similar trends to BBR",
            "similar results and trends whereby Cubic still performs better",
            format!("BBR {bbr_ratio:.2}×, BBR2 {bbr2_ratio:.2}× Cubic"),
            (bbr_ratio - bbr2_ratio).abs() < 0.35,
        ),
    ];

    Experiment {
        id: "BBR2-WIFI".into(),
        title: "Cubic vs BBR vs BBR2 (Pixel 6 Low-End, WiFi, 20 conns) — §4.2".into(),
        table,
        checks,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn smoke_runs() {
        let exp = crate::tests::smoke(crate::ExperimentId::Bbr2Wifi);
        assert_eq!(exp.table.rows.len(), 3);
        assert!(exp.table.num_at(0, 1).unwrap() > 0.0);
    }
}
