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

fn params() -> Params {
    let mut p = Params::full();
    p.seeds = 3;
    p
}

/// Run one spec on the sweep engine with this binary's parameters
/// (worker count, run cache, progress) — see `sim_core::sweep`.
/// Errors (cancellation, checkpoint I/O) bubble to `main`'s exit edge.
fn run(p: &Params, spec: RunSpec) -> Result<RunReport, sim_core::Error> {
    Ok(
        iperf::run_specs_sweep(std::slice::from_ref(&spec), &p.sweep_options())?
            .pop()
            .expect("one spec in, one report out"),
    )
}

fn timer_cost_sweep(p: &Params) -> Result<(), sim_core::Error> {
    println!("== ABLATION 1: pacing-timer cost vs the value of striding ==");
    println!("   (paper §7.1.4: would hardware pacing make the stride unnecessary?)\n");
    let mut table = ResultTable::new(vec![
        "Timer cost factor",
        "BBR 1x (Mbps)",
        "BBR 10x (Mbps)",
        "stride gain",
    ]);
    for factor in [0.0, 0.5, 1.0, 2.0, 4.0] {
        let mut base = p.pixel4(CpuConfig::LowEnd, CcKind::Bbr, 20);
        base.cost = CostModel::mobile_default().with_timer_cost_factor(factor);
        let mut strided = base.clone();
        strided.pacing = PacingConfig::with_stride(10);
        let r1 = run(p, RunSpec::new(format!("1x @{factor}"), base, p.seeds))?;
        let r10 = run(p, RunSpec::new(format!("10x @{factor}"), strided, p.seeds))?;
        table.push_row(vec![
            format!("{factor:.1}x").into(),
            r1.goodput_mbps.into(),
            r10.goodput_mbps.into(),
            Cell::Prec(r10.goodput_mbps / r1.goodput_mbps, 2),
        ]);
    }
    println!("{}", table.render_text());
    Ok(())
}

fn buffer_cap_sweep(p: &Params) -> Result<(), sim_core::Error> {
    println!("== ABLATION 2: socket-buffer cap vs strided throughput ==");
    println!("   (Table 2's plateau: the cap bounds one pacing period's data)\n");
    let mut table = ResultTable::new(vec![
        "Cap (KB)",
        "1x (Mbps)",
        "5x (Mbps)",
        "10x (Mbps)",
        "20x (Mbps)",
    ]);
    for cap_kb in [8u64, 15, 30, 64] {
        let mut row: Vec<Cell> = vec![format!("{cap_kb}").into()];
        for stride in [1u64, 5, 10, 20] {
            let mut cfg = p.pixel4(CpuConfig::LowEnd, CcKind::Bbr, 20);
            cfg.pacing = PacingConfig {
                stride,
                skb_cap_bytes: cap_kb * 1000,
                ..PacingConfig::default()
            };
            let rep = run(
                p,
                RunSpec::new(format!("cap {cap_kb}KB stride {stride}"), cfg, p.seeds),
            )?;
            row.push(rep.goodput_mbps.into());
        }
        table.push_row(row);
    }
    println!("{}", table.render_text());
    Ok(())
}

fn governor_comparison(p: &Params) -> Result<(), sim_core::Error> {
    println!("== ABLATION 3: dynamic governor vs pinned frequencies ==");
    println!("   (why the Default configuration sits well below High-End)\n");
    let mut table = ResultTable::new(vec![
        "CPU policy",
        "Cubic (Mbps)",
        "BBR (Mbps)",
        "BBR/Cubic",
        "BBR mean freq (MHz)",
    ]);
    for cpu in CpuConfig::ALL {
        let cubic = run(
            p,
            RunSpec::new(
                format!("cubic {cpu}"),
                p.pixel4(cpu, CcKind::Cubic, 20),
                p.seeds,
            ),
        )?;
        let bbr_spec = RunSpec::new(
            format!("bbr {cpu}"),
            p.pixel4(cpu, CcKind::Bbr, 20),
            p.seeds,
        );
        let bbr = run(p, bbr_spec)?;
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
    Ok(())
}

fn aqm_comparison(p: &Params) -> Result<(), sim_core::Error> {
    use congestion::master::MasterConfig;
    use netsim::media::MediaProfile;
    use netsim::Qdisc;

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
        let rep = run(p, RunSpec::new(label, cfg, p.seeds))?;
        table.push_row(vec![
            label.into(),
            rep.goodput_mbps.into(),
            Cell::Prec(rep.mean_rtt_ms, 2),
            Cell::Prec(rep.mean_retx, 0),
        ]);
    }
    println!("{}", table.render_text());
    Ok(())
}

fn competition(p: &Params) -> Result<(), sim_core::Error> {
    use netsim::crosstraffic::CrossTrafficConfig;
    use sim_core::units::Bandwidth;
    use tcp_sim::PacingConfig;

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
    for (label, stride) in [("stride 1x", 1u64), ("stride 10x", 10)] {
        for loaded in [false, true] {
            let mut cfg = p.pixel4(CpuConfig::MidEnd, CcKind::Bbr, 20);
            cfg.pacing = PacingConfig::with_stride(stride);
            if loaded {
                cfg.cross_traffic = Some(CrossTrafficConfig::at(Bandwidth::from_mbps(400)));
            }
            let rep = run(
                p,
                RunSpec::new(
                    format!("{label}{}", if loaded { " + 400 Mbps cross" } else { "" }),
                    cfg,
                    p.seeds,
                ),
            )?;
            table.push_row(vec![
                rep.label.clone().into(),
                rep.goodput_mbps.into(),
                Cell::Prec(rep.mean_rtt_ms, 2),
                Cell::Prec(rep.mean_retx, 0),
                Cell::Prec(rep.fairness, 2),
            ]);
        }
    }
    println!("{}", table.render_text());
    Ok(())
}

fn ack_frequency(p: &Params) -> Result<(), sim_core::Error> {
    println!("== ABLATION 6: server ACK frequency (GRO vs classic per-2-MSS) ==");
    println!("   (the phone pays ~9k cycles per ACK; a non-coalescing server");
    println!("    multiplies that load and squeezes both algorithms)\n");
    let mut table = ResultTable::new(vec!["Setup", "Cubic (Mbps)", "BBR (Mbps)", "BBR/Cubic"]);
    for (label, per_segs) in [
        ("GRO server (1 ACK/buffer)", None),
        ("classic server (1 ACK/2 MSS)", Some(2u64)),
    ] {
        let mut row: Vec<Cell> = vec![label.into()];
        let mut rates = Vec::new();
        for cc in [CcKind::Cubic, CcKind::Bbr] {
            let mut cfg = p.pixel4(CpuConfig::LowEnd, cc, 20);
            cfg.ack_per_segs = per_segs;
            let rep = run(p, RunSpec::new(format!("{label} {cc}"), cfg, p.seeds))?;
            rates.push(rep.goodput_mbps);
            row.push(rep.goodput_mbps.into());
        }
        row.push(Cell::Prec(rates[1] / rates[0], 2));
        table.push_row(row);
    }
    println!("{}", table.render_text());
    Ok(())
}

fn main() {
    mobile_bbr_bench::cancel::install_sigint_handler();
    let mut p = params();
    let mut which = "all".to_string();
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let sweep = mobile_bbr_bench::sweep_flags(&mut argv, false).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    if let Some(n) = sweep.jobs {
        p.threads = n;
    }
    if let Some(dir) = sweep.cache_dir {
        p.cache_dir = Some(dir);
    }
    if sweep.no_cache {
        p.cache_dir = None;
    }
    p.progress = sweep.progress;
    for arg in argv {
        if arg.starts_with("--") {
            eprintln!("error: unknown flag '{arg}'");
            eprintln!("usage: ablations [all|timer|cap|governor|aqm|competition|acks] [--jobs N] [--no-cache] [--cache-dir PATH] [--progress]");
            std::process::exit(2);
        }
        const KNOWN: [&str; 7] = [
            "all",
            "timer",
            "cap",
            "governor",
            "aqm",
            "competition",
            "acks",
        ];
        if !KNOWN.contains(&arg.as_str()) {
            eprintln!(
                "error: unknown ablation '{arg}'; known: {}",
                KNOWN.join(", ")
            );
            std::process::exit(2);
        }
        which = arg;
    }
    let t0 = std::time::Instant::now();
    if let Err(e) = run_studies(&p, &which) {
        eprintln!("error: {e}");
        std::process::exit(e.exit_code());
    }
    println!("(ablations done in {:.1?})", t0.elapsed());
}

fn run_studies(p: &Params, which: &str) -> Result<(), sim_core::Error> {
    if which == "all" || which == "timer" {
        timer_cost_sweep(p)?;
    }
    if which == "all" || which == "cap" {
        buffer_cap_sweep(p)?;
    }
    if which == "all" || which == "governor" {
        governor_comparison(p)?;
    }
    if which == "all" || which == "aqm" {
        aqm_comparison(p)?;
    }
    if which == "all" || which == "competition" {
        competition(p)?;
    }
    if which == "all" || which == "acks" {
        ack_frequency(p)?;
    }
    Ok(())
}
