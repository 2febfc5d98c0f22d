//! Integration tests of the public API surface: the pieces a downstream
//! user composes — device profiles, media, master-module knobs, experiment
//! runners — behave as documented when wired together.

use mobile_bbr::congestion::master::{Master, MasterConfig};
use mobile_bbr::congestion::{AckSample, CcKind, CongestionControl};
use mobile_bbr::cpu_model::{CostModel, CpuConfig, DeviceProfile};
use mobile_bbr::experiments::{ExperimentId, Params};
use mobile_bbr::iperf::{run_averaged, RunSpec};
use mobile_bbr::netsim::media::MediaProfile;
use mobile_bbr::sim_core::time::{SimDuration, SimTime};
use mobile_bbr::sim_core::units::Bandwidth;
use mobile_bbr::tcp_sim::{PacingConfig, SimConfig, StackSim};

#[test]
fn table1_configurations_scale_goodput_monotonically() {
    // More CPU never hurts: Low ≤ Mid ≤ High for both algorithms.
    for cc in [CcKind::Cubic, CcKind::Bbr] {
        let g = |cpu| {
            let cfg = SimConfig::builder(DeviceProfile::pixel4(), cpu, cc, 4)
                .duration(SimDuration::from_millis(2_000))
                .warmup(SimDuration::from_millis(500))
                .build()
                .expect("valid config");
            StackSim::new(cfg).run().goodput_mbps()
        };
        let low = g(CpuConfig::LowEnd);
        let mid = g(CpuConfig::MidEnd);
        let high = g(CpuConfig::HighEnd);
        assert!(low < mid, "{cc}: Low {low:.0} < Mid {mid:.0}");
        assert!(mid <= high * 1.02, "{cc}: Mid {mid:.0} ≤ High {high:.0}");
    }
}

#[test]
fn all_media_profiles_run_all_algorithms() {
    for media in [
        MediaProfile::Ethernet,
        MediaProfile::Wifi,
        MediaProfile::Lte,
    ] {
        for cc in [CcKind::Cubic, CcKind::Bbr, CcKind::Bbr2, CcKind::Reno] {
            let cfg = SimConfig::builder(DeviceProfile::pixel6(), CpuConfig::MidEnd, cc, 2)
                .media(media)
                .duration(SimDuration::from_millis(1_500))
                .warmup(SimDuration::from_millis(500))
                .build()
                .expect("valid config");
            let res = StackSim::new(cfg).run();
            assert!(
                res.goodput_mbps() > 0.5,
                "{cc} on {media} produced no goodput"
            );
        }
    }
}

#[test]
fn master_module_knobs_compose() {
    // Fixed cwnd + fixed rate + model off, all at once (§5.1's setup).
    let master = MasterConfig {
        fixed_cwnd: Some(70),
        fixed_pacing_rate: Some(Bandwidth::from_mbps(40).as_bps()),
        force_pacing: Some(true),
        disable_model: true,
    };
    let mut m = Master::new(CcKind::Bbr.build(1448), master);
    assert_eq!(m.cwnd(), 70);
    assert_eq!(m.pacing_rate(), Some(Bandwidth::from_mbps(40)));
    assert_eq!(m.model_cost_cycles(), 0);
    // Feeding acks changes nothing: eight packet-timed rounds at a flat
    // 500 Mbps take a running BBR out of STARTUP, but not the frozen one.
    let mut plain = CcKind::Bbr.build(1448);
    for i in 0..8 {
        let ack = AckSample {
            now: SimTime::from_millis(10 * (i + 1)),
            rtt: SimDuration::from_millis(1),
            delivery_rate: Bandwidth::from_mbps(500),
            delivered: 100 * (i + 1),
            prior_delivered: 100 * i,
            acked: 100,
            lost: 0,
            inflight: 0,
            app_limited: false,
            in_recovery: false,
        };
        m.on_ack(&ack);
        plain.on_ack(&ack);
    }
    assert_ne!(plain.phase(), "startup", "the script ends STARTUP");
    assert_eq!(m.cwnd(), 70);
    assert_eq!(m.phase(), "startup");
}

#[test]
fn custom_cost_model_changes_outcomes() {
    // Free timers (the §7.1.4 hardware-pacing hypothetical) must help
    // paced BBR on a slow core.
    let stock = SimConfig::builder(DeviceProfile::pixel4(), CpuConfig::LowEnd, CcKind::Bbr, 20)
        .duration(SimDuration::from_millis(2_500))
        .warmup(SimDuration::from_millis(600))
        .build()
        .expect("valid config");
    let mut free = stock.clone();
    free.cost = CostModel::mobile_default().with_free_timers();
    let stock_g = StackSim::new(stock).run().goodput_mbps();
    let free_g = StackSim::new(free).run().goodput_mbps();
    assert!(
        free_g > stock_g * 1.05,
        "free hardware pacing should help: {free_g:.0} vs {stock_g:.0}"
    );
}

#[test]
fn stride_config_flows_through_runner() {
    let cfg = SimConfig::builder(DeviceProfile::pixel4(), CpuConfig::LowEnd, CcKind::Bbr, 10)
        .duration(SimDuration::from_millis(1_500))
        .warmup(SimDuration::from_millis(500))
        .pacing(PacingConfig::with_stride(10))
        .build()
        .expect("valid config");
    let rep = run_averaged(&RunSpec::new("stride10", cfg, 2));
    assert_eq!(rep.seeds.len(), 2);
    assert!(rep.goodput_mbps > 0.0);
    assert!(rep.mean_idle_ms > 0.0, "paced run reports idle time");
}

#[test]
fn experiment_ids_run_from_the_umbrella_crate() {
    // Smoke-run one cheap experiment through the full public pipeline.
    let exp = ExperimentId::Bbr2Wifi
        .run(&Params::smoke())
        .expect("experiment completes");
    assert_eq!(exp.table.rows.len(), 3);
    let md = exp.render_markdown();
    assert!(md.contains("BBR2"));
    let json = serde_json::to_string(&exp).expect("serializes");
    assert!(json.contains("checks"));
}

#[test]
fn fixed_rate_pacing_is_precise_end_to_end() {
    // Closed-form check: 4 flows pinned at 50 Mbps each through an idle
    // gigabit path on an unconstrained CPU must deliver ~200 Mbps — the
    // EDT pacer is exact, so the only slack is warmup/rounding.
    let cfg = SimConfig::builder(DeviceProfile::pixel4(), CpuConfig::HighEnd, CcKind::Bbr, 4)
        .duration(SimDuration::from_secs(3))
        .warmup(SimDuration::from_secs(1))
        .master(MasterConfig {
            fixed_cwnd: Some(500),
            fixed_pacing_rate: Some(Bandwidth::from_mbps(50).as_bps()),
            force_pacing: Some(true),
            disable_model: true,
        })
        .build()
        .expect("valid config");
    let res = StackSim::new(cfg).run();
    let got = res.goodput_mbps();
    assert!(
        (got - 200.0).abs() < 12.0,
        "4 × 50 Mbps pinned pacing should deliver ~200 Mbps, got {got:.1}"
    );
    assert!(res.total_retx == 0, "paced well below line rate: no loss");
}

#[test]
fn seeds_vary_results_but_not_structure() {
    let mk = |seed| {
        let cfg = SimConfig::builder(DeviceProfile::pixel4(), CpuConfig::MidEnd, CcKind::Bbr, 3)
            .duration(SimDuration::from_millis(1_500))
            .warmup(SimDuration::from_millis(500))
            .seed(seed)
            .media(MediaProfile::Wifi) // seed-sensitive medium
            .build()
            .expect("valid config");
        StackSim::new(cfg).run()
    };
    let a = mk(1);
    let b = mk(2);
    assert_eq!(a.per_conn.len(), b.per_conn.len());
    assert_ne!(
        a.total_goodput, b.total_goodput,
        "different seeds should differ on a variable medium"
    );
}

#[test]
fn api_snapshot_is_current() {
    // The public-API tripwire: a stray `pub` (or a deleted one) must fail
    // `cargo test`, not only the CI job that runs the script.
    let out = std::process::Command::new("bash")
        .args(["tools/api_snapshot.sh", "--check"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("run tools/api_snapshot.sh");
    assert!(
        out.status.success(),
        "tools/api_snapshot.sh --check failed; regenerate API_SURFACE.txt with \
         tools/api_snapshot.sh if the change is intended:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
