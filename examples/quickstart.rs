//! Quickstart: one simulated iPerf3 run — BBR uploading from a Pixel 4
//! pinned to the Low-End (576 MHz) configuration over gigabit Ethernet —
//! and the same run with Cubic, reproducing the paper's headline contrast.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use mobile_bbr::congestion::CcKind;
use mobile_bbr::cpu_model::{CpuConfig, DeviceProfile};
use mobile_bbr::sim_core::time::SimDuration;
use mobile_bbr::tcp_sim::{SimConfig, StackSim};

fn main() {
    println!("Are Mobiles Ready for BBR? — quickstart\n");
    println!("Pixel 4, Low-End CPU (576 MHz LITTLE), 20 parallel uploads, 1 Gbps Ethernet:\n");

    for cc in [CcKind::Cubic, CcKind::Bbr] {
        let cfg = SimConfig::builder(DeviceProfile::pixel4(), CpuConfig::LowEnd, cc, 20)
            .duration(SimDuration::from_secs(6))
            .warmup(SimDuration::from_secs(1))
            .build()
            .expect("valid config");
        let res = StackSim::new(cfg).run();
        println!(
            "  {cc:<6} goodput {:>6.1} Mbps   mean RTT {:>5.2} ms   retransmits {:>5}   pacing timer fires {:>7}",
            res.goodput_mbps(),
            res.mean_rtt_ms,
            res.total_retx,
            res.counters.get("timer_fires"),
        );
    }

    println!();
    println!("The gap is the paper's finding: BBR's per-send pacing timers eat the");
    println!("slow core's cycle budget. Try `repro --exp fig8 --quick` for the fix.");
}
