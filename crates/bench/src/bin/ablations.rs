//! Ablation studies on the reproduction's design choices (DESIGN.md §6).
//!
//! 1. **Timer-cost sweep** — the paper's §7.1.4 asks whether fine-grained
//!    *hardware* pacing would obviate the stride. We scale the hrtimer
//!    arm/fire costs from 0× (free hardware pacing) to 4× and measure how
//!    much goodput a 10× stride still buys on the Low-End configuration.
//! 2. **Socket-buffer-cap sweep** — Table 2's throughput plateau is set by
//!    the per-send buffer cap; sweeping it moves the optimal stride.
//! 3. **Governor comparison** — the Default configuration's character
//!    comes from schedutil's reaction to bursty paced load; compare the
//!    dynamic governor against pinning the same silicon at its extremes.

use congestion::CcKind;
use cpu_model::{CostModel, CpuConfig};
use experiments::params::Params;
use experiments::table::{Cell, ResultTable};
use iperf::{RunReport, RunSpec};
use tcp_sim::PacingConfig;

/// One study: its name, the specs it reads, and how it prints itself from
/// their reports (same order). `main` runs every selected study's specs
/// through one sweep (`sim_core::sweep`, with this binary's worker count,
/// run cache and progress flags) and renders each as its last cell finishes.
type Study = (&'static str, fn(&Params) -> Vec<RunSpec>, fn(&[RunReport]));

const STUDIES: [Study; 6] = [
    ("timer", timer_cost_specs, timer_cost_sweep),
    ("cap", buffer_cap_specs, buffer_cap_sweep),
    ("governor", governor_specs, governor_comparison),
    ("aqm", aqm_specs, aqm_comparison),
    ("competition", competition_specs, competition),
    ("acks", ack_frequency_specs, ack_frequency),
];

const TIMER_FACTORS: [f64; 5] = [0.0, 0.5, 1.0, 2.0, 4.0];

fn timer_cost_specs(p: &Params) -> Vec<RunSpec> {
    let mut specs = Vec::new();
    for factor in TIMER_FACTORS {
        let mut base = p.pixel4(CpuConfig::LowEnd, CcKind::Bbr, 20);
        base.cost = CostModel::mobile_default().with_timer_cost_factor(factor);
        let mut strided = base.clone();
        strided.pacing = PacingConfig::with_stride(10);
        specs.push(RunSpec::new(format!("1x @{factor}"), base, p.seeds));
        specs.push(RunSpec::new(format!("10x @{factor}"), strided, p.seeds));
    }
    specs
}

fn timer_cost_sweep(reports: &[RunReport]) {
    println!("== ABLATION 1: pacing-timer cost vs the value of striding ==");
    println!("   (paper §7.1.4: would hardware pacing make the stride unnecessary?)\n");
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
    println!("{}", table.render_text());
}

const CAPS_KB: [u64; 4] = [8, 15, 30, 64];
const CAP_STRIDES: [u64; 4] = [1, 5, 10, 20];

fn buffer_cap_specs(p: &Params) -> Vec<RunSpec> {
    let mut specs = Vec::new();
    for cap_kb in CAPS_KB {
        for stride in CAP_STRIDES {
            let mut cfg = p.pixel4(CpuConfig::LowEnd, CcKind::Bbr, 20);
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

fn buffer_cap_sweep(reports: &[RunReport]) {
    println!("== ABLATION 2: socket-buffer cap vs strided throughput ==");
    println!("   (Table 2's plateau: the cap bounds one pacing period's data)\n");
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
    println!("{}", table.render_text());
}

fn governor_specs(p: &Params) -> Vec<RunSpec> {
    let mut specs = Vec::new();
    for cpu in CpuConfig::ALL {
        for (name, cc) in [("cubic", CcKind::Cubic), ("bbr", CcKind::Bbr)] {
            specs.push(RunSpec::new(
                format!("{name} {cpu}"),
                p.pixel4(cpu, cc, 20),
                p.seeds,
            ));
        }
    }
    specs
}

fn governor_comparison(reports: &[RunReport]) {
    println!("== ABLATION 3: dynamic governor vs pinned frequencies ==");
    println!("   (why the Default configuration sits well below High-End)\n");
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
    println!("{}", table.render_text());
}

fn aqm_specs(p: &Params) -> Vec<RunSpec> {
    use congestion::master::MasterConfig;
    use netsim::media::MediaProfile;
    use netsim::Qdisc;

    let mut specs = Vec::new();
    for (label, unpaced, codel) in [
        ("BBR paced, droptail", false, false),
        ("BBR unpaced, droptail", true, false),
        ("BBR paced, CoDel", false, true),
        ("BBR unpaced, CoDel", true, true),
    ] {
        let mut cfg = p.pixel4(CpuConfig::HighEnd, CcKind::Bbr, 20);
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

fn aqm_comparison(reports: &[RunReport]) {
    println!("== ABLATION 4: fq_codel-style AQM vs the droptail story ==");
    println!("   (on CPU-limited configs the RTT penalty is device-side and no");
    println!("    router AQM can touch it; on High-End the router queue is the");
    println!("    bloat, and CoDel clips it — delay traded for loss)\n");
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
    println!("{}", table.render_text());
}

fn competition_specs(p: &Params) -> Vec<RunSpec> {
    use netsim::crosstraffic::CrossTrafficConfig;
    use sim_core::units::Bandwidth;

    let mut specs = Vec::new();
    for (label, stride) in [("stride 1x", 1u64), ("stride 10x", 10)] {
        for loaded in [false, true] {
            let mut cfg = p.pixel4(CpuConfig::MidEnd, CcKind::Bbr, 20);
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

fn competition(reports: &[RunReport]) {
    println!("== ABLATION 5: pacing stride under competing cross-traffic ==");
    println!("   (§7.1.3: does the stride's coarser bursting hurt when the");
    println!("    bottleneck is shared? 400 Mbps Poisson load on the 1 Gbps");
    println!("    link; Mid-End so both CPU and link pressure are in play)\n");
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
    println!("{}", table.render_text());
}

const ACK_SERVERS: [(&str, Option<u64>); 2] = [
    ("GRO server (1 ACK/buffer)", None),
    ("classic server (1 ACK/2 MSS)", Some(2)),
];

fn ack_frequency_specs(p: &Params) -> Vec<RunSpec> {
    let mut specs = Vec::new();
    for (label, per_segs) in ACK_SERVERS {
        for cc in [CcKind::Cubic, CcKind::Bbr] {
            let mut cfg = p.pixel4(CpuConfig::LowEnd, cc, 20);
            cfg.ack_per_segs = per_segs;
            specs.push(RunSpec::new(format!("{label} {cc}"), cfg, p.seeds));
        }
    }
    specs
}

fn ack_frequency(reports: &[RunReport]) {
    println!("== ABLATION 6: server ACK frequency (GRO vs classic per-2-MSS) ==");
    println!("   (the phone pays ~9k cycles per ACK; a non-coalescing server");
    println!("    multiplies that load and squeezes both algorithms)\n");
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
    println!("{}", table.render_text());
}

fn main() {
    mobile_bbr_bench::cancel::install_sigint_handler();
    let mut p = Params::full();
    p.seeds = 3;
    let mut which = "all".to_string();
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let sweep = mobile_bbr_bench::sweep_flags(&mut argv, false).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    sweep.apply(&mut p);
    for arg in argv {
        if arg.starts_with("--") {
            eprintln!("error: unknown flag '{arg}'");
            eprintln!("usage: ablations [all|timer|cap|governor|aqm|competition|acks] [--jobs N] [--no-cache] [--cache-dir PATH] [--progress]");
            std::process::exit(2);
        }
        if arg != "all" && !STUDIES.iter().any(|(name, ..)| *name == arg) {
            eprintln!(
                "error: unknown ablation '{arg}'; known: all, {}",
                STUDIES.map(|(name, ..)| name).join(", ")
            );
            std::process::exit(2);
        }
        which = arg;
    }
    let t0 = std::time::Instant::now();
    let selected: Vec<&Study> = STUDIES
        .iter()
        .filter(|(name, ..)| which == "all" || which == *name)
        .collect();
    let specs: Vec<Vec<RunSpec>> = selected.iter().map(|(_, specs, _)| specs(&p)).collect();
    // Errors (cancellation, cache I/O) leave through the one exit edge.
    if let Err(e) = iperf::run_specs_sweep(&specs, &p.sweep_options(), |i, reports| {
        let (_, _, render) = selected[i];
        render(&reports)
    }) {
        eprintln!("error: {e}");
        std::process::exit(e.exit_code());
    }
    println!("(ablations done in {:.1?})", t0.elapsed());
}
