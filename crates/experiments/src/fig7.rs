//! Figure 7: the benefit of pacing — RTT with and without packet pacing
//! (Low-End, Mid-End, Default; 20 connections).
//!
//! "RTT increases sharply for Low-End, Mid-End, and Default configurations
//! when disabling BBR's packet pacing behavior. For all configurations,
//! RTT more than doubles when packets are not paced, hinting at network
//! congestion."
//!
//! The figure has no plan of its own: these are Figure 4's paced and
//! unpaced runs ([`crate::fig4::plan`]), read for RTT instead of goodput.

use crate::checks::ShapeCheck;
use crate::params::{Params, CONSTRAINED};
use crate::table::{Cell, ResultTable};
use crate::Experiment;
use iperf::RunReport;

pub(crate) fn check(_params: &Params, reports: &[RunReport]) -> Experiment {
    let mut table = ResultTable::new(vec![
        "Config",
        "Paced RTT (ms)",
        "Unpaced RTT (ms)",
        "Unpaced/Paced",
        "Paced p95 (ms)",
        "Unpaced p95 (ms)",
    ]);
    let mut checks = Vec::new();
    for (i, config) in CONSTRAINED.iter().enumerate() {
        let paced = &reports[i * 2];
        let unpaced = &reports[i * 2 + 1];
        let ratio = unpaced.mean_rtt_ms / paced.mean_rtt_ms;
        table.push_row(vec![
            config.to_string().into(),
            Cell::Prec(paced.mean_rtt_ms, 2),
            Cell::Prec(unpaced.mean_rtt_ms, 2),
            Cell::Prec(ratio, 2),
            Cell::Prec(paced.p95_rtt_ms, 2),
            Cell::Prec(unpaced.p95_rtt_ms, 2),
        ]);
        checks.push(ShapeCheck::ratio_in(
            format!("{config}: RTT rises sharply without pacing"),
            "RTT more than doubles when packets are not paced",
            ratio,
            1.6,
            200.0,
        ));
    }

    Experiment {
        id: "FIG7".into(),
        title: "RTT of BBR with and without pacing (20 conns)".into(),
        table,
        checks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_runs() {
        let exp = crate::tests::smoke(crate::ExperimentId::Fig7);
        assert_eq!(exp.table.rows.len(), CONSTRAINED.len());
        assert_eq!(exp.checks.len(), CONSTRAINED.len());
    }
}
