//! # mobile-bbr
//!
//! Umbrella crate for the reproduction of *"Are Mobiles Ready for BBR?"*
//! (Vargas, Gunapati, Gandhi, Balasubramanian — ACM IMC 2022).
//!
//! The paper measures TCP uplink goodput from Android phones under BBR,
//! BBR2, and Cubic across CPU configurations, identifies TCP-internal packet
//! pacing as the bottleneck on CPU-constrained devices, and proposes a
//! *pacing stride* that paces less often with more data per period.
//!
//! This workspace reproduces the whole study in a deterministic
//! discrete-event simulation:
//!
//! * [`sim_core`] — event queue, simulated time, deterministic RNG, metrics;
//! * [`cpu_model`] — cycle-accounting mobile CPU with BIG.LITTLE clusters
//!   and frequency governors (Table 1's device configurations);
//! * [`netsim`] — links, droptail/CoDel/FQ-CoDel buffers (the per-link
//!   [`Qdisc`](netsim::Qdisc) axis), netem-style impairments, and the
//!   Ethernet/WiFi/LTE media profiles of §3.2 and Appendix A.1;
//! * [`congestion`] — the congestion-control framework with Cubic (+HyStart),
//!   Reno, BBRv1, BBRv2, BBRv3, and the paper's "master module" knobs (§5);
//! * [`tcp_sim`] — the TCP sender/receiver state machine, TCP-internal
//!   pacing (Eq. 1), and the pacing stride (Eq. 2);
//! * [`iperf`] — the iPerf3-like bulk-upload workload and reports;
//! * [`experiments`] — one runner per paper figure/table.
//!
//! Start with `examples/quickstart.rs`, or run the full reproduction:
//!
//! ```bash
//! cargo run --release -p mobile-bbr-bench --bin repro -- --exp all
//! ```
//!
//! This umbrella crate simply re-exports the member crates so examples and
//! integration tests can use a single dependency, plus a [`prelude`] with
//! the ~10 types almost every program needs and the workspace-wide
//! [`Error`] type.

#![warn(missing_docs)]

pub use congestion;
pub use cpu_model;
pub use experiments;
pub use iperf;
pub use netsim;
pub use sim_core;
pub use tcp_sim;

/// The workspace-wide error type (`sim_core::Error`): configuration
/// validation, checkpoint/cache I/O, trace decoding, cancellation. Map to
/// a process exit code with [`Error::exit_code`](sim_core::error::Error::exit_code).
pub use sim_core::error::{Error, Result};

/// The types almost every program against this workspace touches.
///
/// ```
/// use mobile_bbr::prelude::*;
///
/// let cfg = SimConfig::builder(DeviceProfile::pixel4(), CpuConfig::LowEnd, CcKind::Bbr, 2)
///     .duration(SimDuration::from_millis(500))
///     .warmup(SimDuration::from_millis(200))
///     .build()
///     .expect("valid config");
/// assert!(StackSim::new(cfg).run().goodput_mbps() > 0.0);
/// ```
pub mod prelude {
    pub use congestion::CcKind;
    pub use cpu_model::{CpuConfig, DeviceProfile};
    pub use experiments::{ExperimentId, Params};
    pub use netsim::media::MediaProfile;
    pub use netsim::Qdisc;
    pub use sim_core::error::{Error, Result};
    pub use sim_core::sweep::{run_sweep_streaming, SweepOptions};
    pub use sim_core::time::SimDuration;
    pub use tcp_sim::{SimConfig, SimConfigBuilder, SimResult, StackSim};
}
