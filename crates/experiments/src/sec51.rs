//! §5.1: isolating BBR's cwnd and pacing rates with the master module.
//!
//! Setting: Low-End configuration, 20 connections ("the performance gap is
//! most pronounced in this setting"), cwnd pinned to 70 packets ("similar
//! to Cubic's average cwnd for similar iPerf experiments").
//!
//! * §5.1.1 — with BBR's model computation disabled and a Cubic-like cwnd,
//!   goodput is *still* suboptimal: the model's CPU cost is not the cause.
//! * §5.1.2 — sweeping a fixed per-connection pacing rate: only at
//!   ~140 Mbps per connection (effectively unpaced — far above the
//!   ~16 Mbps theoretically needed for 315 Mbps aggregate) does BBR reach
//!   Cubic's goodput.

use crate::checks::ShapeCheck;
use crate::params::{Params, CONNS};
use crate::table::{Cell, ResultTable};
use crate::Experiment;
use congestion::master::MasterConfig;
use congestion::CcKind;
use cpu_model::CpuConfig;
use iperf::{RunReport, RunSpec};
use sim_core::units::Bandwidth;

/// The paper's pinned cwnd.
const FIXED_CWND: u64 = 70;
/// Per-connection fixed pacing rates swept (Mbps); 16 is the paper's
/// "theoretically needed", 140 its parity point.
const RATE_SWEEP_MBPS: [u64; 5] = [16, 40, 80, 110, 140];

/// The §5.1 knob experiments: Cubic reference, stock BBR, §5.1.1's
/// model-off run, then §5.1.2's rate sweep.
pub(crate) fn plan(params: &Params) -> Vec<RunSpec> {
    let mut specs = vec![
        RunSpec::new(
            "Cubic (reference)",
            params.pixel4(CpuConfig::LowEnd, CcKind::Cubic, CONNS),
            params.seeds,
        ),
        RunSpec::new(
            "BBR (stock)",
            params.pixel4(CpuConfig::LowEnd, CcKind::Bbr, CONNS),
            params.seeds,
        ),
        RunSpec::new(
            "BBR, cwnd=70, model disabled (§5.1.1)",
            params.pixel4_with(
                CpuConfig::LowEnd,
                CcKind::Bbr,
                CONNS,
                MasterConfig::fixed_cwnd_no_model(FIXED_CWND),
            ),
            params.seeds,
        ),
    ];
    for mbps in RATE_SWEEP_MBPS {
        let master = MasterConfig {
            fixed_cwnd: Some(FIXED_CWND),
            fixed_pacing_rate: Some(Bandwidth::from_mbps(mbps).as_bps()),
            force_pacing: Some(true),
            disable_model: true,
        };
        specs.push(RunSpec::new(
            format!("BBR, cwnd=70, fixed rate {mbps} Mbps/conn (§5.1.2)"),
            params.pixel4_with(CpuConfig::LowEnd, CcKind::Bbr, CONNS, master),
            params.seeds,
        ));
    }
    specs
}

pub(crate) fn check(_params: &Params, reports: &[RunReport]) -> Experiment {
    let cubic = reports[0].goodput_mbps;
    let mut table = ResultTable::new(vec!["Setup", "Goodput (Mbps)", "vs Cubic"]);
    for rep in reports {
        table.push_row(vec![
            rep.label.clone().into(),
            rep.goodput_mbps.into(),
            Cell::Prec(rep.goodput_mbps / cubic, 2),
        ]);
    }

    let no_model = reports[2].goodput_mbps;
    let rate16 = reports[3].goodput_mbps;
    let rate140 = reports[reports.len() - 1].goodput_mbps;
    let checks = vec![
        ShapeCheck::ratio_in(
            "§5.1.1: Cubic-like cwnd with model disabled is still suboptimal",
            "setting Cubic-like cwnd values still results in suboptimal performance",
            no_model / cubic,
            0.20,
            0.85,
        ),
        ShapeCheck::ratio_in(
            "§5.1.2: the theoretical 16 Mbps/conn rate is far from Cubic",
            "16 Mbps/conn is theoretically enough for 315 Mbps but falls far short",
            rate16 / cubic,
            0.10,
            0.85,
        ),
        ShapeCheck::ratio_in(
            "§5.1.2: only ~140 Mbps/conn reaches Cubic parity",
            "at 140 Mbps per connection BBR reaches the goodput of Cubic",
            rate140 / cubic,
            0.85,
            1.15,
        ),
        ShapeCheck::predicate(
            "goodput increases with the fixed pacing rate",
            "progressively increasing the pacing rate increases goodput",
            format!(
                "{:?} Mbps",
                reports[3..]
                    .iter()
                    .map(|r| r.goodput_mbps as i64)
                    .collect::<Vec<_>>()
            ),
            reports[3..]
                .windows(2)
                .all(|w| w[1].goodput_mbps >= w[0].goodput_mbps * 0.95),
        ),
    ];

    Experiment {
        id: "SEC5.1".into(),
        title: "Master-module knobs: fixed cwnd, disabled model, fixed pacing rates (Low-End, 20 conns)"
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
        let exp = crate::tests::smoke(crate::ExperimentId::Sec51);
        assert_eq!(exp.table.rows.len(), 3 + RATE_SWEEP_MBPS.len());
        assert_eq!(exp.checks.len(), 4);
    }
}
