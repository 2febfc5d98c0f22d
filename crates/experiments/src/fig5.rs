//! Figure 5: the effect of pacing across connection counts on the Low-End
//! configuration.
//!
//! "Even for 1 and 5 connections, BBR's goodput increases by 14 % and 19 %
//! when pacing is disabled … the performance gap gets worse as the number
//! of connections increases."

use crate::checks::ShapeCheck;
use crate::params::{Params, CONN_SWEEP};
use crate::table::{Cell, ResultTable};
use crate::Experiment;
use congestion::master::MasterConfig;
use congestion::CcKind;
use cpu_model::CpuConfig;
use iperf::{RunReport, RunSpec};

/// The Figure 5 sweep: per connection count, BBR paced then unpaced.
pub(crate) fn plan(params: &Params) -> Vec<RunSpec> {
    let mut specs = Vec::new();
    for &conns in &CONN_SWEEP {
        specs.push(RunSpec::new(
            format!("BBR paced, {conns} conns"),
            params.pixel4(CpuConfig::LowEnd, CcKind::Bbr, conns),
            params.seeds,
        ));
        specs.push(RunSpec::new(
            format!("BBR unpaced, {conns} conns"),
            params.pixel4_with(
                CpuConfig::LowEnd,
                CcKind::Bbr,
                conns,
                MasterConfig::pacing_off(),
            ),
            params.seeds,
        ));
    }
    specs
}

pub(crate) fn check(_params: &Params, reports: &[RunReport]) -> Experiment {
    let mut table = ResultTable::new(vec![
        "Conns",
        "Paced (Mbps)",
        "Unpaced (Mbps)",
        "Unpaced/Paced",
    ]);
    let mut gains = Vec::new();
    for (i, &conns) in CONN_SWEEP.iter().enumerate() {
        let paced = reports[i * 2].goodput_mbps;
        let unpaced = reports[i * 2 + 1].goodput_mbps;
        gains.push(unpaced / paced);
        table.push_row(vec![
            Cell::Int(conns as u64),
            paced.into(),
            unpaced.into(),
            Cell::Prec(unpaced / paced, 2),
        ]);
    }

    let checks = vec![
        ShapeCheck::ratio_in(
            "1 conn: unpacing already helps",
            "+14 %",
            gains[0],
            1.00,
            1.8,
        ),
        ShapeCheck::ratio_in("5 conns: unpacing helps", "+19 %", gains[1], 1.02, 2.2),
        ShapeCheck::predicate(
            "pacing penalty grows with connections",
            "the performance gap gets worse as the number of connections increases",
            format!(
                "gains: {:?} %",
                gains
                    .iter()
                    .map(|g| ((g - 1.0) * 100.0) as i64)
                    .collect::<Vec<_>>()
            ),
            gains.last().unwrap() > gains.first().unwrap(),
        ),
    ];

    Experiment {
        id: "FIG5".into(),
        title: "Effect of pacing vs number of connections (Low-End)".into(),
        table,
        checks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_runs() {
        let exp = crate::tests::smoke(crate::ExperimentId::Fig5);
        assert_eq!(exp.table.rows.len(), CONN_SWEEP.len());
    }
}
