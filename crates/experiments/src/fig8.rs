//! Figure 8: goodput under 1×–50× pacing strides for the Low-End, Mid-End
//! and Default configurations (20 connections).
//!
//! "Increasing the pacing stride significantly improves performance of BBR
//! across all configurations compared to default BBR … a pacing stride of
//! 5× provides the best goodput for Mid-End and Default configurations and
//! 10× provides the best goodput for the Low-End configuration." And the
//! best stride is an *interior* optimum: beyond it the socket buffer
//! saturates and goodput falls again (Table 2).

use crate::checks::ShapeCheck;
use crate::params::{Params, CONNS, CONSTRAINED, STRIDE_SWEEP};
use crate::table::{Cell, ResultTable};
use crate::Experiment;
use congestion::CcKind;
use cpu_model::CpuConfig;
use iperf::{RunReport, RunSpec};

/// One configuration's fixed-stride sweep, strides ascending. Table 2
/// (Default), MEM (Low-End, one seed) and AUTO-STRIDE read the same runs.
pub(crate) fn stride_sweep(params: &Params, config: CpuConfig, seeds: u64) -> Vec<RunSpec> {
    let spec = |&stride| {
        RunSpec::new(
            format!("BBR stride {stride}x, {config}"),
            params.pixel4_stride(config, CcKind::Bbr, CONNS, stride),
            seeds,
        )
    };
    STRIDE_SWEEP.iter().map(spec).collect()
}

/// The Figure 8 stride sweep: config-major, strides ascending.
pub(crate) fn plan(params: &Params) -> Vec<RunSpec> {
    let sweep = |config| stride_sweep(params, config, params.seeds);
    CONSTRAINED.into_iter().flat_map(sweep).collect()
}

pub(crate) fn check(_params: &Params, reports: &[RunReport]) -> Experiment {
    let mut headers: Vec<String> = vec!["Config".into()];
    headers.extend(STRIDE_SWEEP.iter().map(|s| format!("{s}x (Mbps)")));
    headers.push("best stride".into());
    let mut table = ResultTable::new(headers);

    let mut checks = Vec::new();
    for (ci, config) in CONSTRAINED.iter().enumerate() {
        let row_reports = &reports[ci * STRIDE_SWEEP.len()..(ci + 1) * STRIDE_SWEEP.len()];
        let goodputs: Vec<f64> = row_reports.iter().map(|r| r.goodput_mbps).collect();
        let (best_idx, best) = goodputs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .expect("non-empty");
        let mut row: Vec<Cell> = vec![config.to_string().into()];
        row.extend(goodputs.iter().map(|&g| Cell::Num(g)));
        row.push(format!("{}x", STRIDE_SWEEP[best_idx]).into());
        table.push_row(row);

        let gain_floor = 1.2;
        checks.push(ShapeCheck::ratio_in(
            format!("{config}: the best stride beats default pacing"),
            "Low-End 138→240 (+74 %), Default ~400→700+ (+65 %)",
            best / goodputs[0],
            gain_floor,
            6.0,
        ));
        checks.push(ShapeCheck::predicate(
            format!("{config}: the optimum is interior (not 1x, not 50x)"),
            "best stride is 5x (Mid/Default) or 10x (Low-End)",
            format!("best {}x of {:?}", STRIDE_SWEEP[best_idx], STRIDE_SWEEP),
            best_idx > 0 && best_idx < STRIDE_SWEEP.len() - 1,
        ));
        checks.push(ShapeCheck::predicate(
            format!("{config}: goodput declines past the optimum"),
            "the socket buffer saturates, limiting throughput (Table 2)",
            format!(
                "{:.0} at best vs {:.0} at 50x",
                best,
                goodputs.last().unwrap()
            ),
            *goodputs.last().unwrap() < best * 0.95,
        ));
    }

    Experiment {
        id: "FIG8".into(),
        title: "Goodput under 1x-50x pacing strides (20 conns)".into(),
        table,
        checks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_runs() {
        let exp = crate::tests::smoke(crate::ExperimentId::Fig8);
        assert_eq!(exp.table.rows.len(), CONSTRAINED.len());
        assert_eq!(exp.checks.len(), CONSTRAINED.len() * 3);
    }
}
