//! Figure 4: the effect of pacing on BBR — goodput with and without packet
//! pacing under Low-End, Mid-End and Default configurations, 20 connections.
//!
//! "BBR's goodput under the Low-End configuration increases 2.7× when
//! pacing is disabled. Similar trends are present in Mid-End and Default
//! configurations, where goodput increases by 67 % and 91 %."

use crate::checks::ShapeCheck;
use crate::params::{Params, CONNS, CONSTRAINED};
use crate::table::{Cell, ResultTable};
use crate::Experiment;
use congestion::master::MasterConfig;
use congestion::CcKind;
use iperf::{RunReport, RunSpec};

/// The paced/unpaced comparison: per configuration, BBR paced then BBR
/// unpaced. Figure 7 and the HTML report read the same runs.
pub(crate) fn plan(params: &Params) -> Vec<RunSpec> {
    let mut specs = Vec::new();
    for config in CONSTRAINED {
        specs.push(RunSpec::new(
            format!("BBR paced, {config}"),
            params.pixel4(config, CcKind::Bbr, CONNS),
            params.seeds,
        ));
        specs.push(RunSpec::new(
            format!("BBR unpaced, {config}"),
            params.pixel4_with(config, CcKind::Bbr, CONNS, MasterConfig::pacing_off()),
            params.seeds,
        ));
    }
    specs
}

pub(crate) fn check(_params: &Params, reports: &[RunReport]) -> Experiment {
    let mut table = ResultTable::new(vec![
        "Config",
        "Paced (Mbps)",
        "Unpaced (Mbps)",
        "Unpaced/Paced",
    ]);
    let mut gains = Vec::new();
    for (i, config) in CONSTRAINED.iter().enumerate() {
        let paced = reports[i * 2].goodput_mbps;
        let unpaced = reports[i * 2 + 1].goodput_mbps;
        gains.push((config, unpaced / paced));
        table.push_row(vec![
            config.to_string().into(),
            paced.into(),
            unpaced.into(),
            Cell::Prec(unpaced / paced, 2),
        ]);
    }

    let checks = vec![
        ShapeCheck::ratio_in(
            "Low-End: disabling pacing multiplies goodput",
            "2.7× increase",
            gains[0].1,
            1.5,
            4.5,
        ),
        ShapeCheck::ratio_in(
            "Mid-End: disabling pacing helps substantially",
            "+67 %",
            gains[1].1,
            1.15,
            3.0,
        ),
        ShapeCheck::ratio_in(
            "Default: disabling pacing helps substantially",
            "+91 %",
            gains[2].1,
            1.15,
            3.5,
        ),
    ];

    Experiment {
        id: "FIG4".into(),
        title: "Effect of pacing on BBR goodput (20 conns)".into(),
        table,
        checks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_runs() {
        let exp = crate::tests::smoke(crate::ExperimentId::Fig4);
        assert_eq!(exp.table.rows.len(), CONSTRAINED.len());
        assert_eq!(exp.checks.len(), 3);
    }
}
