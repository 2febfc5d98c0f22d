//! Figure 3: average BBR and Cubic goodput on the **Pixel 6** under the
//! Low-End configuration (LITTLE cores pinned at 300 MHz).
//!
//! "BBR goodput on Pixel 6 under Low-End configuration is similar to that
//! on Pixel 4 … BBR's goodput is comparably 45 % less than Cubic" at 20
//! connections, with the gap growing in the number of connections.

use crate::checks::ShapeCheck;
use crate::params::{Params, CONN_SWEEP};
use crate::table::{Cell, ResultTable};
use crate::Experiment;
use congestion::CcKind;
use cpu_model::CpuConfig;
use iperf::{RunReport, RunSpec};
use netsim::media::MediaProfile;

/// The Figure 3 sweep: per connection count, Cubic then BBR.
pub(crate) fn plan(params: &Params) -> Vec<RunSpec> {
    let mut specs = Vec::new();
    for &conns in &CONN_SWEEP {
        for cc in [CcKind::Cubic, CcKind::Bbr] {
            specs.push(RunSpec::new(
                format!("{cc}, Pixel 6 Low-End, {conns} conns"),
                params.pixel6(CpuConfig::LowEnd, cc, conns, MediaProfile::Ethernet),
                params.seeds,
            ));
        }
    }
    specs
}

pub(crate) fn check(_params: &Params, reports: &[RunReport]) -> Experiment {
    let mut table = ResultTable::new(vec!["Conns", "Cubic (Mbps)", "BBR (Mbps)", "BBR/Cubic"]);
    let mut ratios = Vec::new();
    for (i, &conns) in CONN_SWEEP.iter().enumerate() {
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
        ShapeCheck::ratio_in(
            "Pixel 6 Low-End @20 conns: BBR well below Cubic",
            "BBR is 45 % less than Cubic",
            *ratios.last().expect("sweep non-empty"),
            0.25,
            0.75,
        ),
        ShapeCheck::predicate(
            "Gap grows with connection count",
            "performance gap increases as connections increase",
            format!(
                "BBR/Cubic: {:?}",
                ratios
                    .iter()
                    .map(|r| (r * 100.0) as i64)
                    .collect::<Vec<_>>()
            ),
            ratios.last().unwrap() < ratios.first().unwrap(),
        ),
    ];

    Experiment {
        id: "FIG3".into(),
        title: "Pixel 6 Low-End goodput vs connections (Ethernet)".into(),
        table,
        checks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_runs() {
        let exp = crate::tests::smoke(crate::ExperimentId::Fig3);
        assert_eq!(exp.table.rows.len(), CONN_SWEEP.len());
        assert_eq!(exp.checks.len(), 2);
    }
}
