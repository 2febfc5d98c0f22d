//! Ablation studies on the reproduction's design choices (DESIGN.md §7):
//! six registry rows that report a table and assert no shape — the paper
//! asks these questions (§7.1) without answering them, so there is no
//! claim to check against.
//!
//! 1. **Timer cost** — §7.1.4 asks whether fine-grained *hardware* pacing
//!    would obviate the stride: scale the hrtimer arm/fire costs from 0×
//!    (free hardware pacing) to 4× and measure what a 10× stride still buys.
//! 2. **Socket-buffer cap** — Table 2's throughput plateau is set by the
//!    per-send buffer cap; sweeping it moves the optimal stride.
//! 3. **Governor** — the Default configuration's character comes from
//!    schedutil's reaction to bursty paced load; compare it against the
//!    same silicon pinned at its extremes. (The plan is Fig. 2's
//!    20-connection column, so next to FIG2 it simulates nothing.)
//! 4. **AQM** — CoDel against droptail, paced and unpaced.
//! 5. **Competition** — §7.1.3: the stride under Poisson cross-traffic.
//! 6. **ACK frequency** — a GRO server against a classic per-2-MSS one.

use crate::params::{Params, CONNS};
use crate::table::{Cell, ResultTable};
use crate::Experiment;
use congestion::master::MasterConfig;
use congestion::CcKind;
use cpu_model::{CostModel, CpuConfig};
use iperf::{RunReport, RunSpec};
use netsim::crosstraffic::CrossTrafficConfig;
use netsim::media::MediaProfile;
use netsim::Qdisc;
use sim_core::units::Bandwidth;
use tcp_sim::PacingConfig;

/// A study's result: a table under its question, nothing asserted.
fn study(id: &str, title: &str, table: ResultTable) -> Experiment {
    Experiment {
        id: id.into(),
        title: title.into(),
        table,
        checks: Vec::new(),
    }
}

const TIMER_FACTORS: [f64; 5] = [0.0, 0.5, 1.0, 2.0, 4.0];

/// Per timer-cost factor: Low-End BBR at stride 1, then at stride 10.
pub(crate) fn timer_plan(p: &Params) -> Vec<RunSpec> {
    let mut specs = Vec::new();
    for factor in TIMER_FACTORS {
        let mut base = p.pixel4(CpuConfig::LowEnd, CcKind::Bbr, CONNS);
        base.cost = CostModel::mobile_default().with_timer_cost_factor(factor);
        let mut strided = base.clone();
        strided.pacing = PacingConfig::with_stride(10);
        specs.push(RunSpec::new(format!("1x @{factor}"), base, p.seeds));
        specs.push(RunSpec::new(format!("10x @{factor}"), strided, p.seeds));
    }
    specs
}

pub(crate) fn timer_check(_p: &Params, reports: &[RunReport]) -> Experiment {
    let mut table = ResultTable::new(vec![
        "Timer cost factor",
        "BBR 1x (Mbps)",
        "BBR 10x (Mbps)",
        "stride gain",
    ]);
    for (factor, pair) in TIMER_FACTORS.iter().zip(reports.chunks(2)) {
        let (r1, r10) = (&pair[0], &pair[1]);
        table.push_row(vec![
            format!("{factor:.1}x").into(),
            r1.goodput_mbps.into(),
            r10.goodput_mbps.into(),
            Cell::Prec(r10.goodput_mbps / r1.goodput_mbps, 2),
        ]);
    }
    study(
        "ABL-TIMER",
        "Pacing-timer cost vs the value of striding (§7.1.4: would hardware \
         pacing make the stride unnecessary?)",
        table,
    )
}

const CAPS_KB: [u64; 4] = [8, 15, 30, 64];
const CAP_STRIDES: [u64; 4] = [1, 5, 10, 20];

/// Cap-major, then stride: Low-End BBR with the per-send cap overridden.
pub(crate) fn cap_plan(p: &Params) -> Vec<RunSpec> {
    let mut specs = Vec::new();
    for cap_kb in CAPS_KB {
        for stride in CAP_STRIDES {
            let mut cfg = p.pixel4(CpuConfig::LowEnd, CcKind::Bbr, CONNS);
            cfg.pacing = PacingConfig {
                stride,
                skb_cap_bytes: cap_kb * 1000,
                ..PacingConfig::default()
            };
            specs.push(RunSpec::new(
                format!("cap {cap_kb}KB stride {stride}"),
                cfg,
                p.seeds,
            ));
        }
    }
    specs
}

pub(crate) fn cap_check(_p: &Params, reports: &[RunReport]) -> Experiment {
    let mut table = ResultTable::new(vec![
        "Cap (KB)",
        "1x (Mbps)",
        "5x (Mbps)",
        "10x (Mbps)",
        "20x (Mbps)",
    ]);
    for (cap_kb, per_stride) in CAPS_KB.iter().zip(reports.chunks(CAP_STRIDES.len())) {
        let mut row: Vec<Cell> = vec![format!("{cap_kb}").into()];
        row.extend(per_stride.iter().map(|rep| Cell::from(rep.goodput_mbps)));
        table.push_row(row);
    }
    study(
        "ABL-CAP",
        "Socket-buffer cap vs strided throughput (Table 2's plateau: the cap \
         bounds one pacing period's data)",
        table,
    )
}

/// Per CPU configuration: Cubic, then BBR.
pub(crate) fn governor_plan(p: &Params) -> Vec<RunSpec> {
    let mut specs = Vec::new();
    for cpu in CpuConfig::ALL {
        for cc in [CcKind::Cubic, CcKind::Bbr] {
            specs.push(RunSpec::new(
                format!("{cc} {cpu}"),
                p.pixel4(cpu, cc, CONNS),
                p.seeds,
            ));
        }
    }
    specs
}

pub(crate) fn governor_check(_p: &Params, reports: &[RunReport]) -> Experiment {
    let mut table = ResultTable::new(vec![
        "CPU policy",
        "Cubic (Mbps)",
        "BBR (Mbps)",
        "BBR/Cubic",
        "BBR mean freq (MHz)",
    ]);
    for (cpu, pair) in CpuConfig::ALL.iter().zip(reports.chunks(2)) {
        let (cubic, bbr) = (&pair[0], &pair[1]);
        let freq =
            bbr.seeds.iter().map(|s| s.mean_freq_hz).sum::<f64>() / bbr.seeds.len() as f64 / 1e6;
        table.push_row(vec![
            cpu.to_string().into(),
            cubic.goodput_mbps.into(),
            bbr.goodput_mbps.into(),
            Cell::Prec(bbr.goodput_mbps / cubic.goodput_mbps, 2),
            Cell::Prec(freq, 0),
        ]);
    }
    study(
        "ABL-GOVERNOR",
        "Dynamic governor vs pinned frequencies (why the Default \
         configuration sits well below High-End)",
        table,
    )
}

/// High-End BBR: paced and unpaced on droptail, then on CoDel.
pub(crate) fn aqm_plan(p: &Params) -> Vec<RunSpec> {
    let mut specs = Vec::new();
    for (label, unpaced, codel) in [
        ("BBR paced, droptail", false, false),
        ("BBR unpaced, droptail", true, false),
        ("BBR paced, CoDel", false, true),
        ("BBR unpaced, CoDel", true, true),
    ] {
        let mut cfg = p.pixel4(CpuConfig::HighEnd, CcKind::Bbr, CONNS);
        if unpaced {
            cfg.master = MasterConfig::pacing_off();
        }
        if codel {
            let mut path = MediaProfile::Ethernet.path_config();
            path.forward = path.forward.with_qdisc(Qdisc::Codel);
            cfg.path = path;
        }
        specs.push(RunSpec::new(label, cfg, p.seeds));
    }
    specs
}

pub(crate) fn aqm_check(_p: &Params, reports: &[RunReport]) -> Experiment {
    let mut table = ResultTable::new(vec![
        "Setup",
        "Goodput (Mbps)",
        "Mean RTT (ms)",
        "Retransmits",
    ]);
    for rep in reports {
        table.push_row(vec![
            rep.label.clone().into(),
            rep.goodput_mbps.into(),
            Cell::Prec(rep.mean_rtt_ms, 2),
            Cell::Prec(rep.mean_retx, 0),
        ]);
    }
    study(
        "ABL-AQM",
        "CoDel AQM vs the droptail story (on CPU-limited configs the RTT \
         penalty is device-side and no router AQM can touch it; on High-End \
         the router queue is the bloat, and CoDel clips it — delay traded \
         for loss)",
        table,
    )
}

/// Mid-End BBR per stride: alone, then against 400 Mbps of cross-traffic.
pub(crate) fn competition_plan(p: &Params) -> Vec<RunSpec> {
    let mut specs = Vec::new();
    for (label, stride) in [("stride 1x", 1u64), ("stride 10x", 10)] {
        for loaded in [false, true] {
            let mut cfg = p.pixel4(CpuConfig::MidEnd, CcKind::Bbr, CONNS);
            cfg.pacing = PacingConfig::with_stride(stride);
            if loaded {
                cfg.cross_traffic = Some(CrossTrafficConfig::at(Bandwidth::from_mbps(400)));
            }
            specs.push(RunSpec::new(
                format!("{label}{}", if loaded { " + 400 Mbps cross" } else { "" }),
                cfg,
                p.seeds,
            ));
        }
    }
    specs
}

pub(crate) fn competition_check(_p: &Params, reports: &[RunReport]) -> Experiment {
    let mut table = ResultTable::new(vec![
        "Setup",
        "Goodput (Mbps)",
        "Mean RTT (ms)",
        "Retransmits",
        "Jain",
    ]);
    for rep in reports {
        table.push_row(vec![
            rep.label.clone().into(),
            rep.goodput_mbps.into(),
            Cell::Prec(rep.mean_rtt_ms, 2),
            Cell::Prec(rep.mean_retx, 0),
            Cell::Prec(rep.fairness, 2),
        ]);
    }
    study(
        "ABL-COMPETITION",
        "Pacing stride under competing cross-traffic (§7.1.3: does the \
         stride's coarser bursting hurt when the bottleneck is shared? \
         400 Mbps Poisson load on the 1 Gbps link; Mid-End so both CPU and \
         link pressure are in play)",
        table,
    )
}

const ACK_SERVERS: [(&str, Option<u64>); 2] = [
    ("GRO server (1 ACK/buffer)", None),
    ("classic server (1 ACK/2 MSS)", Some(2)),
];

/// Per server kind: Low-End Cubic, then BBR.
pub(crate) fn acks_plan(p: &Params) -> Vec<RunSpec> {
    let mut specs = Vec::new();
    for (label, per_segs) in ACK_SERVERS {
        for cc in [CcKind::Cubic, CcKind::Bbr] {
            let mut cfg = p.pixel4(CpuConfig::LowEnd, cc, CONNS);
            cfg.ack_per_segs = per_segs;
            specs.push(RunSpec::new(format!("{label} {cc}"), cfg, p.seeds));
        }
    }
    specs
}

pub(crate) fn acks_check(_p: &Params, reports: &[RunReport]) -> Experiment {
    let mut table = ResultTable::new(vec!["Setup", "Cubic (Mbps)", "BBR (Mbps)", "BBR/Cubic"]);
    for ((label, _), pair) in ACK_SERVERS.iter().zip(reports.chunks(2)) {
        let (cubic, bbr) = (pair[0].goodput_mbps, pair[1].goodput_mbps);
        table.push_row(vec![
            (*label).into(),
            cubic.into(),
            bbr.into(),
            Cell::Prec(bbr / cubic, 2),
        ]);
    }
    study(
        "ABL-ACKS",
        "Server ACK frequency, GRO vs classic per-2-MSS (the phone pays ~9k \
         cycles per ACK; a non-coalescing server multiplies that load and \
         squeezes both algorithms)",
        table,
    )
}
