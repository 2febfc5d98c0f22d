//! Sweep-engine integration: one cell per (configuration, seed).
//!
//! This is the bridge between [`RunSpec`]'s seed lists and
//! [`sim_core::sweep`]'s generic engine. Each seed of each spec becomes one
//! [`SeedCell`]; the engine fans cells across workers, serves repeats from
//! the content-addressed run cache, and returns outputs in submission
//! order, which [`run_specs_sweep`] folds back into per-spec
//! [`RunReport`]s.
//!
//! The cache key is the canonical JSON of the **entire** [`SimConfig`]
//! (with the cell's seed already applied), so any config change — device,
//! path, pacing stride, duration, seed — yields a different key.
//! Configurations that write a pcap are never cached: a hit would skip
//! the capture. (Instruments are not configuration — they are passed to
//! `StackSim::run_observed` — so they never reach a key.)

use crate::report::{RunReport, SeedResult};
use crate::runner::RunSpec;
use sim_core::error::Error;
use sim_core::sweep::{run_sweep_streaming, SweepCell, SweepOptions};
use sim_core::SimRng;
use std::sync::Arc;
use tcp_sim::{SimConfig, StackSim};

/// Encoded [`SeedResult`] size: 24 little-endian 8-byte words.
const CODEC_BYTES: usize = 24 * 8;

/// One (configuration, seed) simulation in a sweep.
pub struct SeedCell {
    /// The owning spec's display label.
    pub label: String,
    /// Full configuration with the cell's seed already applied. Shared so
    /// handing it to [`StackSim`] does not deep-copy the config per cell.
    pub config: Arc<SimConfig>,
}

impl SweepCell for SeedCell {
    type Output = SeedResult;

    fn label(&self) -> String {
        format!("{} [seed {}]", self.label, self.config.seed)
    }

    fn key_bytes(&self) -> Vec<u8> {
        serde_json::to_string(&self.config)
            .expect("SimConfig serializes infallibly")
            .into_bytes()
    }

    /// The simulation derives all randomness from `config.seed`, so the
    /// engine-provided split RNG is deliberately unused — the cell is a
    /// pure function of its key either way, which is what the determinism
    /// contract needs.
    fn run(&self, _rng: SimRng) -> SeedResult {
        let res = StackSim::from_arc(self.config.clone()).run();
        SeedResult::from_sim(self.config.seed, &res)
    }

    fn encode(output: &SeedResult) -> Option<Vec<u8>> {
        // Bumping the width invalidates cache entries written by older
        // binaries: `decode` rejects them by length and the engine
        // recomputes — a safe, silent migration.
        let mut buf = Vec::with_capacity(CODEC_BYTES);
        buf.extend_from_slice(&output.seed.to_le_bytes());
        buf.extend_from_slice(&output.goodput_mbps.to_le_bytes());
        buf.extend_from_slice(&output.mean_rtt_ms.to_le_bytes());
        buf.extend_from_slice(&output.p95_rtt_ms.to_le_bytes());
        buf.extend_from_slice(&output.retx.to_le_bytes());
        buf.extend_from_slice(&output.fairness.to_le_bytes());
        buf.extend_from_slice(&output.mean_skb_bytes.to_le_bytes());
        buf.extend_from_slice(&output.mean_idle_ms.to_le_bytes());
        buf.extend_from_slice(&output.mean_freq_hz.to_le_bytes());
        buf.extend_from_slice(&output.timer_fires.to_le_bytes());
        buf.extend_from_slice(&output.pool_misses.to_le_bytes());
        buf.extend_from_slice(&output.pool_misses_steady.to_le_bytes());
        buf.extend_from_slice(&output.cycles_total.to_le_bytes());
        buf.extend_from_slice(&output.cycles_timers.to_le_bytes());
        buf.extend_from_slice(&output.cycles_acks.to_le_bytes());
        buf.extend_from_slice(&output.cycles_cc.to_le_bytes());
        buf.extend_from_slice(&output.cycles_data.to_le_bytes());
        buf.extend_from_slice(&output.cycles_other.to_le_bytes());
        buf.extend_from_slice(&output.fleet_devices.to_le_bytes());
        buf.extend_from_slice(&output.fleet_jain.to_le_bytes());
        buf.extend_from_slice(&output.fleet_penalty_fraction.to_le_bytes());
        buf.extend_from_slice(&output.fleet_shared_drops.to_le_bytes());
        buf.extend_from_slice(&output.fleet_dev0_share.to_le_bytes());
        buf.extend_from_slice(&output.peak_mem_bytes.to_le_bytes());
        debug_assert_eq!(buf.len(), CODEC_BYTES);
        Some(buf)
    }

    fn decode(bytes: &[u8]) -> Option<SeedResult> {
        if bytes.len() != CODEC_BYTES {
            return None;
        }
        let u = |i: usize| u64::from_le_bytes(bytes[i * 8..(i + 1) * 8].try_into().unwrap());
        let f = |i: usize| f64::from_le_bytes(bytes[i * 8..(i + 1) * 8].try_into().unwrap());
        Some(SeedResult {
            seed: u(0),
            goodput_mbps: f(1),
            mean_rtt_ms: f(2),
            p95_rtt_ms: f(3),
            retx: u(4),
            fairness: f(5),
            mean_skb_bytes: f(6),
            mean_idle_ms: f(7),
            mean_freq_hz: f(8),
            timer_fires: u(9),
            pool_misses: u(10),
            pool_misses_steady: u(11),
            cycles_total: u(12),
            cycles_timers: u(13),
            cycles_acks: u(14),
            cycles_cc: u(15),
            cycles_data: u(16),
            cycles_other: u(17),
            fleet_devices: u(18),
            fleet_jain: f(19),
            fleet_penalty_fraction: f(20),
            fleet_shared_drops: u(21),
            fleet_dev0_share: f(22),
            peak_mem_bytes: u(23),
        })
    }

    /// Side-effectful runs are never cached: a pcap hit would skip the
    /// capture.
    fn cacheable(&self) -> bool {
        self.config.pcap.is_none()
    }
}

/// Run every seed of every spec through the sweep engine, aggregating into
/// one [`RunReport`] per spec (same order as `specs`) **as results
/// stream out**: a spec's report is folded the moment its last seed is
/// released, so peak memory holds one spec's seed list plus the engine's
/// bounded in-flight window — never the whole grid.
///
/// Errors propagate from the engine: [`Error::Interrupted`] on
/// cancellation (the checkpoint, if any, has already been finalized) and
/// I/O errors from an unwritable checkpoint file.
pub fn run_specs_sweep(specs: &[RunSpec], opts: &SweepOptions) -> Result<Vec<RunReport>, Error> {
    let mut cells = Vec::new();
    for spec in specs {
        for &seed in &spec.seeds {
            let mut config = spec.config.clone();
            config.seed = seed;
            cells.push(SeedCell {
                label: spec.label.clone(),
                config: Arc::new(config),
            });
        }
    }
    let mut reports: Vec<RunReport> = Vec::with_capacity(specs.len());
    let mut pending: Vec<SeedResult> = Vec::new();
    let (mut misses, mut steady) = (0u64, 0u64);
    // Outputs arrive in submission order, so cell i belongs to the spec at
    // reports.len(): fold seeds until the current spec's list is full,
    // then aggregate and move on (skipping any zero-seed specs).
    let drain = |pending: &mut Vec<SeedResult>, reports: &mut Vec<RunReport>| {
        while reports.len() < specs.len() && pending.len() == specs[reports.len()].seeds.len() {
            let seeds = std::mem::take(pending);
            reports.push(RunReport::aggregate(
                specs[reports.len()].label.clone(),
                seeds,
            ));
        }
    };
    drain(&mut pending, &mut reports);
    run_sweep_streaming(&cells, opts, |_idx, out, _cell| {
        misses += out.pool_misses;
        steady += out.pool_misses_steady;
        pending.push(out);
        drain(&mut pending, &mut reports);
    })?;
    debug_assert_eq!(reports.len(), specs.len(), "every spec aggregated");
    // Roll per-seed pool-miss counts into the engine's global run metrics
    // so `repro`'s final summary can report hot-path allocator health.
    sim_core::sweep::note_pool_misses(misses, steady);
    Ok(reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_averaged;
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

    fn temp_cache(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("iperf-sweep-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn sweep_matches_serial_runner() {
        let spec = RunSpec::new("sweep-agree", tiny_config(), 3);
        let baseline = run_averaged(&spec);
        for jobs in [1, 3] {
            let opts = SweepOptions {
                jobs,
                ..SweepOptions::default()
            };
            let swept = run_specs_sweep(std::slice::from_ref(&spec), &opts)
                .expect("uncancelled sweep completes");
            assert_eq!(swept.len(), 1);
            assert_eq!(swept[0].goodput_mbps, baseline.goodput_mbps, "jobs={jobs}");
            assert_eq!(swept[0].mean_rtt_ms, baseline.mean_rtt_ms, "jobs={jobs}");
            assert_eq!(swept[0].mean_retx, baseline.mean_retx, "jobs={jobs}");
        }
    }

    #[test]
    fn seed_result_codec_round_trips_exactly() {
        let original = SeedResult {
            seed: 42,
            goodput_mbps: 123.456789,
            mean_rtt_ms: 3.25,
            p95_rtt_ms: 7.125,
            retx: 17,
            fairness: 0.987654321,
            mean_skb_bytes: 52_431.5,
            mean_idle_ms: 0.015625,
            mean_freq_hz: 5.76e8,
            timer_fires: 123_456,
            pool_misses: 7,
            pool_misses_steady: 1,
            cycles_total: 9_876_543_210,
            cycles_timers: 4_000_000_000,
            cycles_acks: 2_000_000_000,
            cycles_cc: 1_500_000_000,
            cycles_data: 2_000_000_000,
            cycles_other: 376_543_210,
            fleet_devices: 512,
            fleet_jain: 0.8125,
            fleet_penalty_fraction: 0.375,
            fleet_shared_drops: 4242,
            fleet_dev0_share: 0.6875,
            peak_mem_bytes: 3_141_592,
        };
        let bytes = SeedCell::encode(&original).unwrap();
        assert_eq!(bytes.len(), 192);
        let decoded = SeedCell::decode(&bytes).unwrap();
        assert_eq!(decoded.seed, original.seed);
        assert_eq!(
            decoded.goodput_mbps.to_bits(),
            original.goodput_mbps.to_bits()
        );
        assert_eq!(decoded.fairness.to_bits(), original.fairness.to_bits());
        assert_eq!(decoded.timer_fires, original.timer_fires);
        assert_eq!(decoded.pool_misses, original.pool_misses);
        assert_eq!(decoded.pool_misses_steady, original.pool_misses_steady);
        assert_eq!(decoded.cycles_total, original.cycles_total);
        assert_eq!(decoded.cycles_other, original.cycles_other);
        assert_eq!(decoded.fleet_devices, original.fleet_devices);
        assert_eq!(decoded.fleet_jain.to_bits(), original.fleet_jain.to_bits());
        assert_eq!(decoded.fleet_shared_drops, original.fleet_shared_drops);
        assert_eq!(
            decoded.fleet_dev0_share.to_bits(),
            original.fleet_dev0_share.to_bits()
        );
        assert_eq!(decoded.peak_mem_bytes, original.peak_mem_bytes);
        assert!(
            SeedCell::decode(&bytes[..191]).is_none(),
            "short buffer rejected"
        );
        assert!(
            SeedCell::decode(&bytes[..184]).is_none(),
            "pre-extension cache entries rejected (engine recomputes)"
        );
    }

    #[test]
    fn cached_rerun_is_identical() {
        let dir = temp_cache("identical");
        let spec = RunSpec::new("cached", tiny_config(), 2);
        let opts = SweepOptions {
            cache_dir: Some(dir.clone()),
            ..SweepOptions::default()
        };
        let cold = run_specs_sweep(std::slice::from_ref(&spec), &opts).expect("completes");
        let warm = run_specs_sweep(std::slice::from_ref(&spec), &opts).expect("completes");
        assert_eq!(cold[0].goodput_mbps, warm[0].goodput_mbps);
        assert_eq!(cold[0].goodput_std, warm[0].goodput_std);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pcap_configs_are_uncacheable() {
        let mut cfg = tiny_config();
        cfg.pcap = Some(std::path::PathBuf::from("/tmp/unused.pcap"));
        let cell = SeedCell {
            label: "pcap".into(),
            config: Arc::new(cfg),
        };
        assert!(!cell.cacheable());
        let cell = SeedCell {
            label: "plain".into(),
            config: Arc::new(tiny_config()),
        };
        assert!(cell.cacheable());
    }

    #[test]
    fn distinct_configs_have_distinct_keys() {
        let a = SeedCell {
            label: "a".into(),
            config: Arc::new(tiny_config()),
        };
        let mut cfg = tiny_config();
        cfg.seed = 2;
        let b = SeedCell {
            label: "a".into(),
            config: Arc::new(cfg),
        };
        assert_ne!(a.key_bytes(), b.key_bytes(), "seed must be part of the key");
        let mut cfg = tiny_config();
        cfg.pacing.stride += 1;
        let c = SeedCell {
            label: "a".into(),
            config: Arc::new(cfg),
        };
        assert_ne!(
            a.key_bytes(),
            c.key_bytes(),
            "stride must be part of the key"
        );
    }
}
