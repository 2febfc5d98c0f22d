//! Figure 2: average BBR and Cubic goodput for Low-End, Mid-End, Default,
//! and High-End CPU configurations on the Pixel 4 over Ethernet, across
//! 1–20 parallel connections.
//!
//! Paper findings encoded as shape checks:
//! * both algorithms reach near line rate on High-End ("Capable of Ideal
//!   Goodput": ≥ 915 Mbps of the 1 Gbps line);
//! * BBR's goodput collapses with more connections on constrained configs
//!   (Low-End: −58 % from 1 → 20 conns) while Cubic degrades mildly (−15 %);
//! * BBR ≤ Cubic throughout Low-End/Default (−11 % at 1 conn, −55 % at 20).

use crate::checks::ShapeCheck;
use crate::params::{Params, CONN_SWEEP};
use crate::table::{Cell, ResultTable};
use crate::Experiment;
use congestion::CcKind;
use cpu_model::CpuConfig;
use iperf::{RunReport, RunSpec};
use std::collections::HashMap;

/// The figure's points in plan order: config-major, then connections,
/// then Cubic before BBR.
fn grid() -> impl Iterator<Item = (CpuConfig, usize, CcKind)> {
    CpuConfig::ALL.into_iter().flat_map(|config| {
        CONN_SWEEP
            .into_iter()
            .flat_map(move |conns| [CcKind::Cubic, CcKind::Bbr].map(move |cc| (config, conns, cc)))
    })
}

/// The Figure 2 sweep.
pub(crate) fn plan(params: &Params) -> Vec<RunSpec> {
    grid()
        .map(|(config, conns, cc)| {
            RunSpec::new(
                format!("{cc}, {config}, {conns} conns"),
                params.pixel4(config, cc, conns),
                params.seeds,
            )
        })
        .collect()
}

pub(crate) fn check(_params: &Params, reports: &[RunReport]) -> Experiment {
    let goodput: HashMap<(CpuConfig, usize, CcKind), f64> = grid()
        .zip(reports)
        .map(|(k, r)| (k, r.goodput_mbps))
        .collect();

    let mut table = ResultTable::new(vec![
        "Config",
        "Conns",
        "Cubic (Mbps)",
        "BBR (Mbps)",
        "BBR/Cubic",
    ]);
    for config in CpuConfig::ALL {
        for &conns in &CONN_SWEEP {
            let cubic = goodput[&(config, conns, CcKind::Cubic)];
            let bbr = goodput[&(config, conns, CcKind::Bbr)];
            table.push_row(vec![
                config.to_string().into(),
                Cell::Int(conns as u64),
                cubic.into(),
                bbr.into(),
                Cell::Prec(bbr / cubic, 2),
            ]);
        }
    }

    let g = |cfg, conns, cc| goodput[&(cfg, conns, cc)];
    let checks = vec![
        ShapeCheck::predicate(
            "High-End reaches near line rate",
            "both ≥ 915 Mbps at 1 Gbps line (Fig. 2d)",
            format!(
                "Cubic {:.0}, BBR {:.0}",
                g(CpuConfig::HighEnd, 1, CcKind::Cubic),
                g(CpuConfig::HighEnd, 1, CcKind::Bbr)
            ),
            g(CpuConfig::HighEnd, 1, CcKind::Cubic) > 850.0
                && g(CpuConfig::HighEnd, 1, CcKind::Bbr) > 850.0,
        ),
        ShapeCheck::ratio_in(
            "Low-End BBR drops sharply from 1 to 20 conns",
            "−58 % (325 → 138 Mbps)",
            g(CpuConfig::LowEnd, 20, CcKind::Bbr) / g(CpuConfig::LowEnd, 1, CcKind::Bbr),
            0.20,
            0.70,
        ),
        ShapeCheck::ratio_in(
            "Low-End Cubic degrades mildly from 1 to 20 conns",
            "−15 % (364 → 310 Mbps)",
            g(CpuConfig::LowEnd, 20, CcKind::Cubic) / g(CpuConfig::LowEnd, 1, CcKind::Cubic),
            0.70,
            1.05,
        ),
        ShapeCheck::ratio_in(
            "Low-End @20 conns: BBR well below Cubic",
            "BBR = 45 % of Cubic (138 vs 310 Mbps)",
            g(CpuConfig::LowEnd, 20, CcKind::Bbr) / g(CpuConfig::LowEnd, 20, CcKind::Cubic),
            0.25,
            0.70,
        ),
        ShapeCheck::ratio_in(
            "Low-End @1 conn: BBR below Cubic",
            "−11 % (325 vs 364 Mbps)",
            g(CpuConfig::LowEnd, 1, CcKind::Bbr) / g(CpuConfig::LowEnd, 1, CcKind::Cubic),
            0.70,
            0.98,
        ),
        ShapeCheck::ratio_in(
            "Default @20 conns: BBR below Cubic",
            "−37 %",
            g(CpuConfig::Default, 20, CcKind::Bbr) / g(CpuConfig::Default, 20, CcKind::Cubic),
            0.40,
            0.90,
        ),
        ShapeCheck::predicate(
            "Mid-End: BBR below Cubic at 10 and 20 conns",
            "similar drops for 10 and 20 connections",
            format!(
                "@10: {:.0} vs {:.0}; @20: {:.0} vs {:.0}",
                g(CpuConfig::MidEnd, 10, CcKind::Bbr),
                g(CpuConfig::MidEnd, 10, CcKind::Cubic),
                g(CpuConfig::MidEnd, 20, CcKind::Bbr),
                g(CpuConfig::MidEnd, 20, CcKind::Cubic)
            ),
            g(CpuConfig::MidEnd, 10, CcKind::Bbr) < g(CpuConfig::MidEnd, 10, CcKind::Cubic)
                && g(CpuConfig::MidEnd, 20, CcKind::Bbr) < g(CpuConfig::MidEnd, 20, CcKind::Cubic),
        ),
    ];

    Experiment {
        id: "FIG2".into(),
        title: "BBR vs Cubic goodput across device configurations (Pixel 4, Ethernet)".into(),
        table,
        checks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_runs_and_produces_full_table() {
        let exp = crate::tests::smoke(crate::ExperimentId::Fig2);
        assert_eq!(
            exp.table.rows.len(),
            CpuConfig::ALL.len() * CONN_SWEEP.len()
        );
        assert_eq!(exp.checks.len(), 7);
        // Every goodput cell is a positive number.
        for r in 0..exp.table.rows.len() {
            assert!(exp.table.num_at(r, 2).unwrap() > 0.0);
            assert!(exp.table.num_at(r, 3).unwrap() > 0.0);
        }
    }
}
