//! Shared experiment parameters and the standard configuration builders.

use congestion::master::MasterConfig;
use congestion::CcKind;
use cpu_model::{CpuConfig, DeviceProfile};
use netsim::media::MediaProfile;
use serde::Serialize;
use sim_core::time::SimDuration;
use tcp_sim::{FleetConfig, PacingConfig, SimConfig, SimConfigBuilder};

/// The connection counts the paper sweeps.
pub const CONN_SWEEP: [usize; 4] = [1, 5, 10, 20];

/// The pacing strides the paper sweeps (§6.2).
pub(crate) const STRIDE_SWEEP: [u64; 6] = [1, 2, 5, 10, 20, 50];

/// The paper's heaviest load, where every gap it reports is widest, and
/// the setting of every single-point experiment: 20 connections.
pub(crate) const CONNS: usize = 20;

/// The CPU-constrained configurations the pacing figures compare (Fig. 4,
/// 7 and 8, the auto-stride probe).
pub(crate) const CONSTRAINED: [CpuConfig; 3] =
    [CpuConfig::LowEnd, CpuConfig::MidEnd, CpuConfig::Default];

/// Global knobs for an experiment run.
#[derive(Debug, Clone, Serialize)]
pub struct Params {
    /// Seeds per data point (the paper averaged "at least 10 experiment
    /// runs", §3.2). Only a config that draws randomness (the rate
    /// variation of WiFi, LTE and 5G, netem loss, jitter or reorder, cross
    /// traffic) differs by seed, and runs once per seed. Any other config,
    /// such as a clean Ethernet cell, runs once, and its seeds are copies
    /// of that run.
    pub seeds: u64,
    /// Simulated duration per run (the paper's 5 minutes of iPerf3 scaled
    /// to a steady-state window).
    pub duration: SimDuration,
    /// Warmup excluded from measurement.
    pub warmup: SimDuration,
    /// Worker threads for sweep parallelism.
    pub threads: usize,
    /// Run-cache directory for the sweep engine; `None` (every preset)
    /// disables caching. Keyed on cell content, so presets can safely
    /// share one directory; the front ends name it after the model's
    /// source fingerprint, so another build's entries are never read.
    pub cache_dir: Option<std::path::PathBuf>,
    /// Print per-cell progress/timing lines to stderr as sweeps run.
    pub progress: bool,
    /// Bound on buffered-but-unreleased sweep outputs (0 = auto:
    /// `max(4 * jobs, 16)`); memory stays flat in grid size.
    pub max_inflight: usize,
    /// Deterministic cancellation test hook: interrupt the sweep once this
    /// many cells have been released (exercises interrupt and resume
    /// without signal timing).
    pub cancel_after: Option<u64>,
    /// Devices per fleet in the FLEET experiment and the report's fleet
    /// panel. A multiple of [`tcp_sim::fleet::TIER_MIX`]'s length keeps the
    /// mixed population perfectly balanced across tiers.
    pub fleet_devices: usize,
}

impl Params {
    /// Minimal preset for unit tests (1 seed, ~1 simulated second): checks
    /// that experiments run end-to-end, not that every shape lands.
    pub fn smoke() -> Self {
        Params {
            seeds: 1,
            duration: SimDuration::from_millis(1_300),
            warmup: SimDuration::from_millis(400),
            threads: available_threads(),
            cache_dir: None,
            progress: false,
            max_inflight: 0,
            cancel_after: None,
            fleet_devices: 12,
        }
    }

    /// Fast preset for tests.
    pub fn quick() -> Self {
        Params {
            seeds: 2,
            duration: SimDuration::from_millis(2_500),
            warmup: SimDuration::from_millis(700),
            threads: available_threads(),
            cache_dir: None,
            progress: false,
            max_inflight: 0,
            cancel_after: None,
            fleet_devices: 36,
        }
    }

    /// The preset behind EXPERIMENTS.md and the `repro` binary.
    pub fn full() -> Self {
        Params {
            seeds: 5,
            duration: SimDuration::from_secs(8),
            warmup: SimDuration::from_secs(1),
            threads: available_threads(),
            cache_dir: None,
            progress: false,
            max_inflight: 0,
            cancel_after: None,
            fleet_devices: 504,
        }
    }

    /// Sweep-engine options equivalent to these parameters.
    pub(crate) fn sweep_options(&self) -> sim_core::sweep::SweepOptions {
        sim_core::sweep::SweepOptions {
            jobs: self.threads.max(1),
            cache_dir: self.cache_dir.clone(),
            root_seed: 1,
            progress: self.progress,
            max_inflight: self.max_inflight,
            cancel_after: self.cancel_after,
        }
    }

    /// Start a builder carrying this preset's duration/warmup.
    fn builder(
        &self,
        device: DeviceProfile,
        cpu: CpuConfig,
        cc: CcKind,
        conns: usize,
    ) -> SimConfigBuilder {
        SimConfig::builder(device, cpu, cc, conns)
            .duration(self.duration)
            .warmup(self.warmup)
    }

    /// Build the standard simulation config for a data point.
    pub(crate) fn config(
        &self,
        device: DeviceProfile,
        cpu: CpuConfig,
        cc: CcKind,
        conns: usize,
    ) -> SimConfig {
        self.builder(device, cpu, cc, conns)
            .build()
            .expect("experiment presets are valid by construction")
    }

    /// Standard Pixel 4 / Ethernet config (most of the paper).
    pub fn pixel4(&self, cpu: CpuConfig, cc: CcKind, conns: usize) -> SimConfig {
        self.config(DeviceProfile::pixel4(), cpu, cc, conns)
    }

    /// Pixel 4 with master-module knobs applied.
    pub(crate) fn pixel4_with(
        &self,
        cpu: CpuConfig,
        cc: CcKind,
        conns: usize,
        master: MasterConfig,
    ) -> SimConfig {
        self.builder(DeviceProfile::pixel4(), cpu, cc, conns)
            .master(master)
            .build()
            .expect("experiment presets are valid by construction")
    }

    /// Pixel 4 with a pacing stride.
    pub(crate) fn pixel4_stride(
        &self,
        cpu: CpuConfig,
        cc: CcKind,
        conns: usize,
        stride: u64,
    ) -> SimConfig {
        self.builder(DeviceProfile::pixel4(), cpu, cc, conns)
            .pacing(PacingConfig::with_stride(stride))
            .build()
            .expect("experiment strides are valid by construction")
    }

    /// A fleet run on the Pixel 4 host profile: per-device CPU tiers,
    /// algorithms and media come from the fleet's
    /// [`tcp_sim::fleet::DeviceSpec`]s, so the builder's base arguments
    /// only name the host profile and seed the non-fleet defaults.
    pub(crate) fn fleet(&self, fleet: FleetConfig) -> SimConfig {
        self.builder(
            DeviceProfile::pixel4(),
            CpuConfig::HighEnd,
            CcKind::Bbr,
            fleet.total_connections(),
        )
        .fleet(fleet)
        .build()
        .expect("experiment fleet presets are valid by construction")
    }

    /// Pixel 6 config on a given medium.
    pub(crate) fn pixel6(
        &self,
        cpu: CpuConfig,
        cc: CcKind,
        conns: usize,
        media: MediaProfile,
    ) -> SimConfig {
        self.builder(DeviceProfile::pixel6(), cpu, cc, conns)
            .media(media)
            .build()
            .expect("experiment presets are valid by construction")
    }
}

fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_sane() {
        let q = Params::quick();
        let f = Params::full();
        assert!(q.duration < f.duration);
        assert!(q.seeds <= f.seeds);
        assert!(q.warmup < q.duration);
        assert!(f.warmup < f.duration);
        assert!(q.threads >= 1);
    }

    #[test]
    fn config_builders_apply_knobs() {
        let p = Params::quick();
        let cfg = p.pixel4_stride(CpuConfig::LowEnd, CcKind::Bbr, 20, 10);
        assert_eq!(cfg.pacing.stride, 10);
        assert_eq!(cfg.connections, 20);
        assert_eq!(cfg.duration, p.duration);

        let cfg = p.pixel4_with(
            CpuConfig::LowEnd,
            CcKind::Bbr,
            20,
            MasterConfig::pacing_off(),
        );
        assert_eq!(cfg.master, MasterConfig::pacing_off());

        let cfg = p.pixel6(CpuConfig::LowEnd, CcKind::Bbr2, 20, MediaProfile::Wifi);
        assert!(cfg.path.forward_var.is_some(), "WiFi path applied");
    }

    #[test]
    fn sweeps_match_paper() {
        assert_eq!(CONN_SWEEP, [1, 5, 10, 20]);
        assert_eq!(STRIDE_SWEEP, [1, 2, 5, 10, 20, 50]);
    }
}
