//! §7.1.1: does the pacing stride increase memory usage?
//!
//! "The pacing strides approach may increase memory usage as packets have
//! to wait longer before they are sent. To explore this we run experiments
//! with the Low-End configuration and 20 connections and measure RAM usage
//! on the mobile. We find that memory is unaffected when using pacing
//! strides."
//!
//! The simulator's memory proxy is the per-connection peak of
//! retransmission-scoreboard bytes plus device-path backlog — the state
//! that actually scales with how long data waits. The socket-buffer cap
//! bounds each pacing period's data, so the stride should leave the peak
//! essentially unchanged, as the paper found.

use crate::checks::ShapeCheck;
use crate::params::{Params, STRIDE_SWEEP};
use crate::table::{Cell, ResultTable};
use crate::Experiment;
use cpu_model::CpuConfig;
use iperf::{RunReport, RunSpec};

/// The memory-usage probe: Fig. 8's Low-End row (the paper's §7.1.1
/// setup) at a single seed — peak memory is a maximum, not a mean, and
/// the workload is deterministic.
pub(crate) fn plan(params: &Params) -> Vec<RunSpec> {
    crate::fig8::stride_sweep(params, CpuConfig::LowEnd, 1)
}

pub(crate) fn check(_params: &Params, reports: &[RunReport]) -> Experiment {
    let mut table = ResultTable::new(vec!["Pacing Stride", "Peak memory (KB)", "Goodput (Mbps)"]);
    let mut peaks = Vec::new();
    for (&stride, report) in STRIDE_SWEEP.iter().zip(reports) {
        let res = &report.seeds[0];
        peaks.push(res.peak_mem_bytes as f64 / 1e3);
        table.push_row(vec![
            format!("{stride}x").into(),
            Cell::Prec(res.peak_mem_bytes as f64 / 1e3, 0),
            res.goodput_mbps.into(),
        ]);
    }

    let base = peaks[0];
    let max = peaks.iter().cloned().fold(0.0f64, f64::max);
    let checks = vec![ShapeCheck::predicate(
        "memory is unaffected by pacing strides",
        "\"We find that memory is unaffected when using pacing strides.\"",
        format!(
            "peak {:.0} KB at 1x vs max {:.0} KB across strides",
            base, max
        ),
        max <= base * 1.5 + 100.0,
    )];

    Experiment {
        id: "MEM".into(),
        title: "Pacing-stride memory usage (§7.1.1, Low-End, 20 conns)".into(),
        table,
        checks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CONNS;
    use crate::ExperimentId;
    use congestion::CcKind;
    use tcp_sim::StackSim;

    #[test]
    fn smoke_runs() {
        let exp = crate::tests::smoke(crate::ExperimentId::Memory);
        assert_eq!(exp.table.rows.len(), STRIDE_SWEEP.len());
        assert!(
            exp.table.num_at(0, 1).unwrap() > 0.0,
            "memory proxy is populated"
        );
    }

    /// The sweep-engine port changes no table byte: every row equals what a
    /// direct simulation of that stride's config reports.
    #[test]
    fn table_matches_direct_simulation() {
        let params = Params::smoke();
        let exp = ExperimentId::Memory
            .run(&params)
            .expect("experiment completes");
        let mut direct =
            ResultTable::new(vec!["Pacing Stride", "Peak memory (KB)", "Goodput (Mbps)"]);
        for &stride in &STRIDE_SWEEP {
            let cfg = params.pixel4_stride(CpuConfig::LowEnd, CcKind::Bbr, CONNS, stride);
            let res = StackSim::new(cfg).run();
            direct.push_row(vec![
                format!("{stride}x").into(),
                Cell::Prec(res.peak_mem_bytes as f64 / 1e3, 0),
                res.goodput_mbps().into(),
            ]);
        }
        assert_eq!(exp.table.render_text(), direct.render_text());
        assert_eq!(
            serde_json::to_string(&exp.table).unwrap(),
            serde_json::to_string(&direct).unwrap()
        );
    }
}
