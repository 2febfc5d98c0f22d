//! Figure 9 / Appendix A.1: cellular (LTE) experiments.
//!
//! "There is no significant difference in performance between BBR and
//! Cubic in this setting. This is because the cellular uplink experiments
//! are bandwidth-limited (less than 20 Mbps of goodput) and do not reach
//! sufficient levels to hit a pacing bottleneck on the mobile devices."

use crate::checks::ShapeCheck;
use crate::params::{Params, CONN_SWEEP};
use crate::table::{Cell, ResultTable};
use crate::Experiment;
use congestion::CcKind;
use cpu_model::CpuConfig;
use iperf::{RunReport, RunSpec};
use netsim::media::MediaProfile;

/// The LTE comparison (Pixel 6 Low-End, as in the appendix): per
/// connection count, Cubic then BBR.
///
/// LTE needs a longer window than the LAN experiments: with ~50 ms base
/// RTT plus up to 200 ms of bufferbloat, loss-based convergence takes
/// seconds (the paper ran 5 minutes). LTE simulation is very cheap
/// (≤ 20 Mbps of events), so the window is stretched 6× here.
pub(crate) fn plan(params: &Params) -> Vec<RunSpec> {
    let mut specs = Vec::new();
    for &conns in &CONN_SWEEP {
        for cc in [CcKind::Cubic, CcKind::Bbr] {
            let mut cfg = params.pixel6(CpuConfig::LowEnd, cc, conns, MediaProfile::Lte);
            cfg.duration = params.duration * 6;
            cfg.warmup = (params.warmup * 6).max(sim_core::time::SimDuration::from_secs(4));
            specs.push(RunSpec::new(
                format!("{cc}, LTE, {conns} conns"),
                cfg,
                params.seeds,
            ));
        }
    }
    specs
}

pub(crate) fn check(_params: &Params, reports: &[RunReport]) -> Experiment {
    let mut table = ResultTable::new(vec!["Conns", "Cubic (Mbps)", "BBR (Mbps)", "BBR/Cubic"]);
    let mut all_close = true;
    let mut all_capped = true;
    let mut summary = Vec::new();
    for (i, &conns) in CONN_SWEEP.iter().enumerate() {
        let cubic = reports[i * 2].goodput_mbps;
        let bbr = reports[i * 2 + 1].goodput_mbps;
        let ratio = bbr / cubic;
        all_close &= (0.8..=1.25).contains(&ratio);
        all_capped &= cubic < 22.0 && bbr < 22.0;
        summary.push(format!("@{conns}: {bbr:.1}/{cubic:.1}"));
        table.push_row(vec![
            Cell::Int(conns as u64),
            cubic.into(),
            bbr.into(),
            Cell::Prec(ratio, 2),
        ]);
    }

    let checks = vec![
        ShapeCheck::predicate(
            "BBR ≈ Cubic on LTE at every connection count",
            "no significant difference in performance between BBR and Cubic",
            summary.join(", "),
            all_close,
        ),
        ShapeCheck::predicate(
            "LTE is bandwidth-limited, not CPU-limited",
            "less than 20 Mbps of goodput",
            "all goodputs under ~20 Mbps".to_string(),
            all_capped,
        ),
    ];

    Experiment {
        id: "FIG9".into(),
        title: "LTE uplink: bandwidth-limited, so BBR ≈ Cubic (Appendix A.1)".into(),
        table,
        checks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_runs() {
        let exp = crate::tests::smoke(crate::ExperimentId::Fig9);
        assert_eq!(exp.table.rows.len(), CONN_SWEEP.len());
        assert_eq!(exp.checks.len(), 2);
    }
}
