//! Cycle-attribution profile: *why* Figures 4/5 look the way they do.
//!
//! The paper attributes BBR's goodput collapse on weak cores to the cost
//! of its pacing machinery — "BBR is generally more CPU intensive than
//! Cubic" and disabling pacing recovers most of the loss (§5). This
//! experiment uses the simulated-CPU profiler's steady-state attribution
//! counters to show the mechanism directly: on Low-End with 20
//! connections, pacing-timer work dominates BBR's modelled cycles, while
//! Cubic (which never arms the pacing timer) spends essentially nothing
//! there.

use crate::checks::ShapeCheck;
use crate::params::{Params, CONNS};
use crate::table::{Cell, ResultTable};
use crate::Experiment;
use congestion::master::MasterConfig;
use congestion::CcKind;
use cpu_model::CpuConfig;
use iperf::{RunReport, RunSpec};

/// The configuration under the microscope (the paper's worst case).
const CONFIG: CpuConfig = CpuConfig::LowEnd;

/// Mean steady-state cycle breakdown across a report's seeds, as
/// `(total, timers, acks, cc, data, other)` in cycles.
fn mean_cycles(report: &RunReport) -> (f64, f64, f64, f64, f64, f64) {
    let n = report.seeds.len() as f64;
    let mut sums = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
    for s in &report.seeds {
        sums.0 += s.cycles_total as f64;
        sums.1 += s.cycles_timers as f64;
        sums.2 += s.cycles_acks as f64;
        sums.3 += s.cycles_cc as f64;
        sums.4 += s.cycles_data as f64;
        sums.5 += s.cycles_other as f64;
    }
    (
        sums.0 / n,
        sums.1 / n,
        sums.2 / n,
        sums.3 / n,
        sums.4 / n,
        sums.5 / n,
    )
}

/// The cycle-attribution profile: BBR paced, BBR unpaced, Cubic — all
/// three already on the scorecard (Fig. 4, §5.1).
pub(crate) fn plan(params: &Params) -> Vec<RunSpec> {
    vec![
        RunSpec::new(
            "BBR paced",
            params.pixel4(CONFIG, CcKind::Bbr, CONNS),
            params.seeds,
        ),
        RunSpec::new(
            "BBR pacing off",
            params.pixel4_with(CONFIG, CcKind::Bbr, CONNS, MasterConfig::pacing_off()),
            params.seeds,
        ),
        RunSpec::new(
            "Cubic",
            params.pixel4(CONFIG, CcKind::Cubic, CONNS),
            params.seeds,
        ),
    ]
}

pub(crate) fn check(_params: &Params, reports: &[RunReport]) -> Experiment {
    let mut table = ResultTable::new(vec![
        "Variant",
        "Goodput (Mbps)",
        "Steady Mcycles",
        "Timers %",
        "ACKs %",
        "CC model %",
        "Data %",
        "Other %",
    ]);
    // Per-variant (timers_share, total_cycles, cc_cycles).
    let mut shares = Vec::new();
    for report in reports {
        let (total, timers, acks, cc, data, other) = mean_cycles(report);
        let pct = |part: f64| {
            if total > 0.0 {
                100.0 * part / total
            } else {
                0.0
            }
        };
        shares.push((pct(timers) / 100.0, total, cc));
        table.push_row(vec![
            report.label.clone().into(),
            report.goodput_mbps.into(),
            Cell::Prec(total / 1e6, 1),
            Cell::Prec(pct(timers), 1),
            Cell::Prec(pct(acks), 1),
            Cell::Prec(pct(cc), 1),
            Cell::Prec(pct(data), 1),
            Cell::Prec(pct(other), 1),
        ]);
    }
    let (bbr_timer_share, bbr_total, bbr_cc) = shares[0];
    let (unpaced_timer_share, _, _) = shares[1];
    let (cubic_timer_share, cubic_total, cubic_cc) = shares[2];

    let checks = vec![
        ShapeCheck::ratio_in(
            "BBR paced: pacing-timer work is a major cycle sink",
            "pacing is the root cause of BBR's CPU cost (§5)",
            bbr_timer_share,
            0.10,
            0.95,
        ),
        ShapeCheck::ratio_in(
            "Cubic: pacing-timer work is negligible",
            "Cubic does not pace, so timer cycles ≈ 0",
            cubic_timer_share,
            0.0,
            0.02,
        ),
        ShapeCheck::predicate(
            "BBR paced spends a far larger cycle share on timers than Cubic",
            "pacing-timer share: BBR ≫ Cubic",
            format!(
                "BBR {:.1} % vs Cubic {:.2} %",
                100.0 * bbr_timer_share,
                100.0 * cubic_timer_share
            ),
            bbr_timer_share >= 5.0 * cubic_timer_share.max(1e-9) && bbr_timer_share > 0.05,
        ),
        ShapeCheck::predicate(
            "Disabling pacing slashes BBR's timer share",
            "Fig. 4: no pacing ⇒ the timer cost disappears",
            format!(
                "paced {:.1} % vs unpaced {:.1} %",
                100.0 * bbr_timer_share,
                100.0 * unpaced_timer_share
            ),
            unpaced_timer_share < 0.5 * bbr_timer_share,
        ),
        ShapeCheck::predicate(
            "BBR's model update costs more cycles than Cubic's",
            "\"BBR is generally more CPU intensive than Cubic\" (§5)",
            format!(
                "cc-model Mcycles: BBR {:.1} (of {:.0}) vs Cubic {:.1} (of {:.0})",
                bbr_cc / 1e6,
                bbr_total / 1e6,
                cubic_cc / 1e6,
                cubic_total / 1e6
            ),
            bbr_cc > cubic_cc,
        ),
    ];

    Experiment {
        id: "PROFILE".into(),
        title: "Steady-state CPU cycle attribution (Low-End, 20 conns)".into(),
        table,
        checks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_runs() {
        let exp = crate::tests::smoke(crate::ExperimentId::Profile);
        assert_eq!(exp.table.rows.len(), 3);
        assert_eq!(exp.checks.len(), 5);
        // The attribution counters themselves must be populated even in a
        // smoke run — a zero total would mean the profiler wiring broke.
        for row in &exp.table.rows {
            match &row[2] {
                Cell::Prec(mcycles, _) => assert!(*mcycles > 0.0, "steady cycles recorded"),
                other => panic!("unexpected cell {other:?}"),
            }
        }
    }
}
