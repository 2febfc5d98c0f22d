//! Sweep-engine integration: one cell per (configuration, seed).
//!
//! This is the bridge between [`RunSpec`]'s seed lists and
//! [`sim_core::sweep`]'s generic engine. Each seed of each spec becomes one
//! [`SeedCell`], submitted once however often it is named; the engine fans
//! cells across workers, serves what it can from the content-addressed run
//! cache, and returns outputs in submission order, which
//! [`run_specs_sweep`] folds back into per-spec [`RunReport`]s.
//!
//! The cache key is the canonical JSON of the **entire** [`SimConfig`]
//! (with the cell's seed already applied), so any config change — device,
//! path, pacing stride, duration, seed — yields a different key. Every
//! cell is cacheable: instruments with side effects (trace, telemetry,
//! pcap capture) are not configuration — they are passed to
//! `StackSim::run_observed` — so they never reach a cell or its key.

use crate::report::{RunReport, SeedResult};
use crate::runner::RunSpec;
use sim_core::error::Error;
use sim_core::sweep::{run_sweep_streaming, SweepCell, SweepOptions};
use sim_core::SimRng;
use std::collections::HashMap;
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
}

impl RunSpec {
    /// This spec's sweep cells, one per seed in seed order: the cells
    /// [`run_specs_sweep`] submits, and so the keys its results live under.
    pub fn cells(&self) -> impl Iterator<Item = SeedCell> + '_ {
        self.seeds.iter().map(|&seed| {
            let mut config = self.config.clone();
            config.seed = seed;
            SeedCell {
                label: self.label.clone(),
                config: Arc::new(config),
            }
        })
    }
}

/// A [`SeedCell`] with the key digest repeats were resolved on, so the
/// engine does not serialise and hash the key a second time.
struct KeyedCell {
    cell: SeedCell,
    digest: [u8; 16],
}

impl SweepCell for KeyedCell {
    type Output = SeedResult;

    fn label(&self) -> String {
        self.cell.label()
    }

    fn key_bytes(&self) -> Vec<u8> {
        self.cell.key_bytes()
    }

    fn key_digest(&self) -> [u8; 16] {
        self.digest
    }

    fn run(&self, rng: SimRng) -> SeedResult {
        self.cell.run(rng)
    }

    fn encode(output: &SeedResult) -> Option<Vec<u8>> {
        SeedCell::encode(output)
    }

    fn decode(bytes: &[u8]) -> Option<SeedResult> {
        SeedCell::decode(bytes)
    }
}

/// Run groups of specs — each an experiment's plan — through **one**
/// sweep, handing each group its [`RunReport`]s (one per spec, in spec
/// order) as `done(group index, reports)` the moment the
/// last cell the group needs is released. Groups complete in input order.
///
/// A (configuration, seed) pair whose key an earlier seed, spec or group
/// of this call already submitted is a **repeat**: it is not submitted
/// again and takes the first occurrence's output (so `--progress` shows
/// the first occurrence's label), and its spec's report is the same bytes
/// either way. The distinct outputs (192 bytes each) are held until the
/// call returns — a later spec may repeat any of them; everything else is
/// the engine's bounded in-flight window.
///
/// Errors propagate from the engine: [`Error::Interrupted`] (checkpoint
/// already finalized; counts are distinct cells over the whole call) and
/// checkpoint I/O errors.
pub fn run_specs_sweep(
    groups: &[Vec<RunSpec>],
    opts: &SweepOptions,
    mut done: impl FnMut(usize, Vec<RunReport>),
) -> Result<(), Error> {
    let mut cells: Vec<KeyedCell> = Vec::new();
    let mut first: HashMap<[u8; 16], usize> = HashMap::new();
    // Per (spec, seed) in submission order: the cell that computes it.
    let mut slots: Vec<usize> = Vec::new();
    for cell in groups.iter().flatten().flat_map(RunSpec::cells) {
        let digest = cell.key_digest();
        slots.push(*first.entry(digest).or_insert_with(|| {
            cells.push(KeyedCell { cell, digest });
            cells.len() - 1
        }));
    }

    let mut outputs: Vec<SeedResult> = Vec::with_capacity(cells.len());
    let (mut group, mut spec, mut slot) = (0, 0, 0);
    let mut reports: Vec<RunReport> = Vec::new();
    // Outputs arrive in `cells` order and a repeat points backwards, so
    // walking specs up to the first with an unreleased cell hands every
    // group over as early as possible.
    let mut drain = |outputs: &[SeedResult]| {
        while let Some(specs) = groups.get(group) {
            let Some(next) = specs.get(spec) else {
                done(group, std::mem::take(&mut reports));
                (group, spec) = (group + 1, 0);
                continue;
            };
            let mine = &slots[slot..slot + next.seeds.len()];
            if mine.iter().any(|&cell| cell >= outputs.len()) {
                break;
            }
            let seeds = mine.iter().map(|&cell| outputs[cell].clone()).collect();
            reports.push(RunReport::aggregate(next.label.clone(), seeds));
            (spec, slot) = (spec + 1, slot + next.seeds.len());
        }
    };
    drain(&outputs);
    let (mut misses, mut steady) = (0u64, 0u64);
    run_sweep_streaming(&cells, opts, |_idx, out, _cell| {
        misses += out.pool_misses;
        steady += out.pool_misses_steady;
        outputs.push(out);
        drain(&outputs);
    })?;
    // Roll per-seed pool-miss counts into the engine's global run metrics
    // so `repro`'s final summary can report hot-path allocator health.
    sim_core::sweep::note_pool_misses(misses, steady);
    Ok(())
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

    /// One spec through the sweep engine, as a single group.
    fn sweep_one(spec: &RunSpec, opts: &SweepOptions) -> RunReport {
        let mut report = None;
        run_specs_sweep(&[vec![spec.clone()]], opts, |_, reports| {
            report = reports.into_iter().next();
        })
        .expect("uncancelled sweep completes");
        report.expect("one spec in, one report out")
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
            let swept = sweep_one(&spec, &opts);
            assert_eq!(swept.goodput_mbps, baseline.goodput_mbps, "jobs={jobs}");
            assert_eq!(swept.mean_rtt_ms, baseline.mean_rtt_ms, "jobs={jobs}");
            assert_eq!(swept.mean_retx, baseline.mean_retx, "jobs={jobs}");
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
        let cold = sweep_one(&spec, &opts);
        let warm = sweep_one(&spec, &opts);
        assert_eq!(cold.goodput_mbps, warm.goodput_mbps);
        assert_eq!(cold.goodput_std, warm.goodput_std);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A (config, seed) pair submitted twice in one call is simulated once:
    /// the repeat — under another label, in a later group, with a shorter
    /// seed list — gets the first occurrence's bytes, and groups are handed
    /// over in order, each the moment its last cell is out.
    #[test]
    fn repeats_are_simulated_once_and_groups_complete_in_order() {
        let mut other = tiny_config();
        other.connections = 3;
        let groups = [
            vec![RunSpec::new("first", tiny_config(), 2)],
            vec![],
            vec![
                RunSpec::new("again", tiny_config(), 1),
                RunSpec::new("other", other, 1),
                RunSpec::new("again, both seeds", tiny_config(), 2),
            ],
        ];
        // Five (config, seed) pairs submitted, three distinct: a sweep
        // stopped before its first cell reports how many it was handed.
        let stopped = SweepOptions {
            cancel_after: Some(0),
            ..SweepOptions::default()
        };
        match run_specs_sweep(&groups, &stopped, |_, _| {}) {
            Err(Error::Interrupted { total, .. }) => assert_eq!(total, 3),
            other => panic!("expected Interrupted, got {other:?}"),
        }
        for jobs in [1, 3] {
            let opts = SweepOptions {
                jobs,
                ..SweepOptions::default()
            };
            let mut order = Vec::new();
            let mut all = Vec::new();
            run_specs_sweep(&groups, &opts, |group, reports| {
                order.push((group, reports.len()));
                all.extend(reports);
            })
            .expect("uncancelled sweep completes");
            assert_eq!(order, [(0, 1), (1, 0), (2, 3)], "jobs={jobs}");
            let labels: Vec<&str> = all.iter().map(|r| r.label.as_str()).collect();
            assert_eq!(labels, ["first", "again", "other", "again, both seeds"]);
            let json = |seeds: &[SeedResult]| serde_json::to_string(seeds).unwrap();
            assert_eq!(json(&all[0].seeds), json(&all[3].seeds), "jobs={jobs}");
            assert_eq!(json(&all[0].seeds[..1]), json(&all[1].seeds), "jobs={jobs}");
            assert_eq!(
                all[0].goodput_mbps,
                run_averaged(&groups[0][0]).goodput_mbps
            );
        }
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
