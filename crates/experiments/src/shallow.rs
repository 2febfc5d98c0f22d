//! §5.2.3's shallow-buffer experiment: a 10-packet router buffer that is
//! "especially congestion-susceptible".
//!
//! "While goodput increases when disabling BBR's pacing, average
//! retransmissions increase dramatically from 37 to 13,500 packets when
//! disabling BBR's pacing, and RTTs increase similarly to Figure 7."

use crate::checks::ShapeCheck;
use crate::params::{Params, CONNS};
use crate::table::{Cell, ResultTable};
use crate::Experiment;
use congestion::master::MasterConfig;
use congestion::CcKind;
use cpu_model::CpuConfig;
use iperf::{RunReport, RunSpec};
use netsim::media::MediaProfile;

/// The shallow queue depth, packets.
const SHALLOW_QUEUE: usize = 10;

/// The shallow-buffer comparison: BBR paced, then unpaced.
pub(crate) fn plan(params: &Params) -> Vec<RunSpec> {
    let shallow_path = MediaProfile::Ethernet
        .path_config()
        .with_queue_packets(SHALLOW_QUEUE);
    let mut paced_cfg = params.pixel4(CpuConfig::LowEnd, CcKind::Bbr, CONNS);
    paced_cfg.path = shallow_path.clone();
    let mut unpaced_cfg = params.pixel4_with(
        CpuConfig::LowEnd,
        CcKind::Bbr,
        CONNS,
        MasterConfig::pacing_off(),
    );
    unpaced_cfg.path = shallow_path;

    vec![
        RunSpec::new("BBR paced, 10-pkt buffer", paced_cfg, params.seeds),
        RunSpec::new("BBR unpaced, 10-pkt buffer", unpaced_cfg, params.seeds),
    ]
}

pub(crate) fn check(_params: &Params, reports: &[RunReport]) -> Experiment {
    let (paced, unpaced) = (&reports[0], &reports[1]);

    let mut table = ResultTable::new(vec![
        "Setup",
        "Goodput (Mbps)",
        "Retransmissions",
        "Mean RTT (ms)",
    ]);
    for rep in reports {
        table.push_row(vec![
            rep.label.clone().into(),
            rep.goodput_mbps.into(),
            Cell::Prec(rep.mean_retx, 0),
            Cell::Prec(rep.mean_rtt_ms, 2),
        ]);
    }

    let checks = vec![
        ShapeCheck::predicate(
            "unpacing explodes retransmissions in a shallow buffer",
            "37 → ~13,500 retransmitted packets",
            format!("{:.0} → {:.0}", paced.mean_retx, unpaced.mean_retx),
            unpaced.mean_retx > 10.0 * paced.mean_retx.max(1.0),
        ),
        ShapeCheck::predicate(
            "goodput still increases without pacing",
            "goodput increases when disabling BBR's pacing",
            format!(
                "{:.0} vs {:.0} Mbps",
                unpaced.goodput_mbps, paced.goodput_mbps
            ),
            unpaced.goodput_mbps > paced.goodput_mbps,
        ),
        ShapeCheck::predicate(
            "pacing keeps retransmissions rare",
            "37 packets over a 5-minute run (i.e. a negligible loss rate)",
            format!("{:.0} retransmissions paced", paced.mean_retx),
            paced.mean_retx < unpaced.mean_retx * 0.1,
        ),
    ];

    Experiment {
        id: "SHALLOW".into(),
        title: "10-packet shallow buffer: pacing prevents congestion losses (§5.2.3)".into(),
        table,
        checks,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn smoke_runs() {
        let exp = crate::tests::smoke(crate::ExperimentId::Shallow);
        assert_eq!(exp.table.rows.len(), 2);
        assert_eq!(exp.checks.len(), 3);
    }
}
