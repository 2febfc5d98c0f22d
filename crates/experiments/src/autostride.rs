//! §7.1.2 implemented: online search for the optimal pacing stride.
//!
//! "Choosing an optimal pacing stride in terms of bandwidth will depend on
//! the mobile configuration, number of connections, network workload, and
//! system load. We leave further exploration of the optimal pacing stride
//! to future work."
//!
//! The future work: a per-connection hill-climbing controller
//! ([`tcp_sim::PacingConfig::auto`]) that doubles or halves the stride
//! every 250 ms according to whether delivered goodput improved. This
//! experiment compares the controller against the fixed-stride sweep on
//! all three constrained configurations: it should land within a modest
//! factor of the best fixed stride *without knowing the configuration*.

use crate::checks::ShapeCheck;
use crate::params::{Params, CONNS, CONSTRAINED, STRIDE_SWEEP};
use crate::table::{Cell, ResultTable};
use crate::Experiment;
use congestion::CcKind;
use cpu_model::CpuConfig;
use iperf::{RunReport, RunSpec};
use tcp_sim::PacingConfig;

/// The auto-stride comparison: per configuration, the fixed-stride sweep
/// (Fig. 8's cells) then the controller's run.
pub(crate) fn plan(params: &Params) -> Vec<RunSpec> {
    let mut specs = Vec::new();
    for config in CONSTRAINED {
        specs.extend(crate::fig8::stride_sweep(params, config, params.seeds));
        let mut cfg = params.pixel4(config, CcKind::Bbr, CONNS);
        cfg.pacing = PacingConfig::auto();
        // Give the controller time to climb, settle, and evaluate (each
        // move costs epochs of cooldown before it is committed), and
        // exclude the climb itself from the measurement window.
        cfg.duration = params.duration * 4;
        cfg.warmup = cfg.duration / 2;
        specs.push(RunSpec::new(format!("auto, {config}"), cfg, params.seeds));
    }
    specs
}

pub(crate) fn check(_params: &Params, reports: &[RunReport]) -> Experiment {
    let per_config = STRIDE_SWEEP.len() + 1;
    let mut table = ResultTable::new(vec![
        "Config",
        "Best fixed (Mbps)",
        "Best stride",
        "Auto (Mbps)",
        "Auto/Best",
        "Stock 1x (Mbps)",
        "Auto Jain",
    ]);
    let mut checks = Vec::new();
    for (ci, config) in CONSTRAINED.iter().enumerate() {
        let block = &reports[ci * per_config..(ci + 1) * per_config];
        let fixed = &block[..STRIDE_SWEEP.len()];
        let auto = &block[STRIDE_SWEEP.len()];
        let (best_idx, best) = fixed
            .iter()
            .enumerate()
            .map(|(i, r)| (i, r.goodput_mbps))
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
            .expect("non-empty");
        let stock = fixed[0].goodput_mbps;
        table.push_row(vec![
            config.to_string().into(),
            best.into(),
            format!("{}x", STRIDE_SWEEP[best_idx]).into(),
            auto.goodput_mbps.into(),
            Cell::Prec(auto.goodput_mbps / best, 2),
            stock.into(),
            Cell::Prec(auto.fairness, 2),
        ]);
        checks.push(ShapeCheck::ratio_in(
            format!("{config}: auto-stride lands near the best fixed stride"),
            "an online controller needs no per-configuration tuning (§7.1.2)",
            auto.goodput_mbps / best,
            0.60,
            1.15,
        ));
        // The honest finding: the controller captures a large share of the
        // win where the headroom is large (Low-End: +74 % available), and
        // costs at most ~10 % where stride-1 is already near-optimal —
        // the transitions themselves redistribute bandwidth unevenly
        // across flows for a while (the §7.1.3 fairness caveat in action),
        // which is part of why "further studies" were warranted.
        let (floor, claim): (f64, &str) = if *config == CpuConfig::LowEnd {
            (1.08, "captures a large share of Low-End's stride win")
        } else {
            (
                0.88,
                "costs at most ~10% where 1x is near-optimal (adaptation churn)",
            )
        };
        checks.push(ShapeCheck::predicate(
            format!("{config}: auto-stride vs stock pacing"),
            claim,
            format!("auto {:.0} vs stock {:.0} Mbps", auto.goodput_mbps, stock),
            auto.goodput_mbps > stock * floor,
        ));
    }

    Experiment {
        id: "AUTO-STRIDE".into(),
        title: "Online stride adaptation vs the fixed-stride sweep (§7.1.2 future work)".into(),
        table,
        checks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_runs() {
        let exp = crate::tests::smoke(crate::ExperimentId::AutoStride);
        assert_eq!(exp.table.rows.len(), CONSTRAINED.len());
        assert_eq!(exp.checks.len(), CONSTRAINED.len() * 2);
    }
}
