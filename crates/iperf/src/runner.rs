//! Seeded repetition runner.

use crate::report::RunReport;
use sim_core::sweep::SweepCell;
use sim_core::SimRng;
use tcp_sim::SimConfig;

/// A labelled experiment: one simulation configuration repeated over seeds.
#[derive(Clone)]
pub struct RunSpec {
    /// Display label (appears in reports and tables).
    pub label: String,
    /// Base simulation configuration; the seed field is overridden per run.
    pub config: SimConfig,
    /// Seeds to repeat over (paper: "averaged over at least 10 runs").
    pub seeds: Vec<u64>,
}

impl RunSpec {
    /// A spec over seeds `1..=n`.
    pub fn new(label: impl Into<String>, config: SimConfig, n_seeds: u64) -> Self {
        assert!(n_seeds >= 1, "need at least one seed");
        RunSpec {
            label: label.into(),
            config,
            seeds: (1..=n_seeds).collect(),
        }
    }
}

/// Run a spec's cells sequentially, outside the sweep engine, and
/// aggregate. (A cell seeds itself from its config; the RNG is unused.)
pub fn run_averaged(spec: &RunSpec) -> RunReport {
    let seeds = spec.cells().map(|cell| cell.run(SimRng::new(0))).collect();
    RunReport::aggregate(spec.label.clone(), seeds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use congestion::CcKind;
    use cpu_model::{CpuConfig, DeviceProfile};
    use sim_core::time::SimDuration;

    fn tiny_config() -> SimConfig {
        SimConfig::builder(
            DeviceProfile::pixel4(),
            CpuConfig::HighEnd,
            CcKind::Cubic,
            2,
        )
        .duration(SimDuration::from_millis(800))
        .warmup(SimDuration::from_millis(300))
        .build()
        .expect("tiny test config is valid")
    }

    #[test]
    fn seeds_are_reflected_in_results() {
        let spec = RunSpec::new("seeds", tiny_config(), 3);
        let rep = run_averaged(&spec);
        let seeds: Vec<u64> = rep.seeds.iter().map(|s| s.seed).collect();
        assert_eq!(seeds, vec![1, 2, 3]);
    }

    #[test]
    fn repeated_runs_are_reproducible() {
        let spec = RunSpec::new("repro", tiny_config(), 2);
        let a = run_averaged(&spec);
        let b = run_averaged(&spec);
        assert_eq!(a.goodput_mbps, b.goodput_mbps);
        assert_eq!(a.mean_rtt_ms, b.mean_rtt_ms);
    }

    #[test]
    #[should_panic(expected = "at least one seed")]
    fn zero_seeds_rejected() {
        RunSpec::new("none", tiny_config(), 0);
    }
}
