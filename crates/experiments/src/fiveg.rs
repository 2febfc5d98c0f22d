//! Forward-looking 5G experiment (extension of §4 / Appendix A.1).
//!
//! The paper's LTE appendix shows BBR ≈ Cubic because the radio link
//! (< 20 Mbps) never stresses the phone's CPU — and then predicts:
//! "recent work on mmWave 5G suggests that cellular uplinks can reach up
//! to 200 Mbps which will provide sufficient network capacity. In this
//! case, the capacity limitation and the pacing problems will become
//! significant, similar to the WiFi and Ethernet case."
//!
//! This experiment tests that prediction on the simulated 5G profile: on
//! the Low-End configuration the pacing bottleneck should reappear (BBR
//! falls below Cubic with many connections), unlike on LTE.

use crate::checks::ShapeCheck;
use crate::params::Params;
use crate::table::{Cell, ResultTable};
use crate::Experiment;
use congestion::CcKind;
use cpu_model::CpuConfig;
use iperf::{RunReport, RunSpec};
use netsim::media::MediaProfile;

/// Connection counts probed (the CPU pressure grows with the count).
const CONNS: [usize; 3] = [1, 10, 20];

/// The 5G prediction experiment: per connection count, Cubic then BBR.
pub(crate) fn plan(params: &Params) -> Vec<RunSpec> {
    let mut specs = Vec::new();
    for &conns in &CONNS {
        for cc in [CcKind::Cubic, CcKind::Bbr] {
            let mut cfg = params.pixel6(CpuConfig::LowEnd, cc, conns, MediaProfile::FiveG);
            // Cellular-scale RTTs converge slower than LAN; stretch as fig9.
            cfg.duration = params.duration * 3;
            cfg.warmup = (params.warmup * 3).max(sim_core::time::SimDuration::from_secs(2));
            specs.push(RunSpec::new(
                format!("{cc}, 5G, {conns} conns"),
                cfg,
                params.seeds,
            ));
        }
    }
    specs
}

pub(crate) fn check(_params: &Params, reports: &[RunReport]) -> Experiment {
    let mut table = ResultTable::new(vec!["Conns", "Cubic (Mbps)", "BBR (Mbps)", "BBR/Cubic"]);
    let mut ratios = Vec::new();
    for (i, &conns) in CONNS.iter().enumerate() {
        let cubic = reports[i * 2].goodput_mbps;
        let bbr = reports[i * 2 + 1].goodput_mbps;
        ratios.push(bbr / cubic);
        table.push_row(vec![
            Cell::Int(conns as u64),
            cubic.into(),
            bbr.into(),
            Cell::Prec(bbr / cubic, 2),
        ]);
    }

    let checks = vec![
        ShapeCheck::predicate(
            "5G re-exposes the pacing bottleneck at high connection counts",
            "\"the capacity limitation and the pacing problems will become significant\"",
            format!("BBR/Cubic @20 conns = {:.2}", ratios[2]),
            ratios[2] < 0.92,
        ),
        ShapeCheck::predicate(
            "the gap grows with connections (as on Ethernet/WiFi)",
            "similar to the WiFi and Ethernet case",
            format!(
                "ratios {:?}",
                ratios
                    .iter()
                    .map(|r| (r * 100.0) as i64)
                    .collect::<Vec<_>>()
            ),
            ratios[2] < ratios[0],
        ),
    ];

    Experiment {
        id: "5G".into(),
        title: "Forward-looking 5G mmWave uplink: the LTE escape hatch closes (§4 prediction)"
            .into(),
        table,
        checks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_runs() {
        let exp = crate::tests::smoke(crate::ExperimentId::FiveG);
        assert_eq!(exp.table.rows.len(), CONNS.len());
        assert_eq!(exp.checks.len(), 2);
    }
}
