//! Sweep-engine integration: one cell per distinct cell key.
//!
//! This is the bridge between [`RunSpec`]'s seed lists and
//! [`sim_core::sweep`]'s generic engine. Each seed of each spec becomes one
//! [`SeedCell`], and each distinct key is submitted once however often it
//! is named; the engine fans cells across workers, serves what it can from
//! the content-addressed run cache, and returns outputs in submission
//! order, which [`run_specs_sweep`] folds back into per-spec
//! [`RunReport`]s.
//!
//! The cache key is the canonical JSON of the **entire** [`SimConfig`],
//! so any config change — device, path, pacing stride, duration — yields
//! a different key. The seed is in the key only if the config
//! [draws randomness](SimConfig::draws_randomness): a seed-invariant
//! config is keyed with seed 0, so all its seeds are one cell, simulated
//! once and cached once, and each seed's result is a copy stamped with
//! that seed. Every cell is cacheable: instruments (trace, telemetry) are
//! not configuration — they are passed to `StackSim::run_observed` — so
//! they never reach a cell or its key.

use crate::report::{RunReport, SeedResult};
use crate::runner::RunSpec;
use sim_core::error::Error;
use sim_core::sweep::{run_sweep_streaming, CacheState, SweepCell, SweepOptions};
use sim_core::SimRng;
use std::collections::{BTreeSet, HashMap};
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

    /// The config's compact JSON, with the seed zeroed when the config
    /// draws no randomness: every seed of such a config names one cell.
    fn key_bytes(&self) -> Vec<u8> {
        let json = if self.config.draws_randomness() {
            serde_json::to_string(&self.config)
        } else {
            serde_json::to_string(&SimConfig {
                seed: 0,
                ..(*self.config).clone()
            })
        };
        json.expect("SimConfig serializes infallibly").into_bytes()
    }

    /// The simulation derives all randomness from `config.seed`, so the
    /// engine-provided split RNG is deliberately unused — the cell is a
    /// pure function of its key either way, which is what the determinism
    /// contract needs. A config keyed without its seed must draw nothing,
    /// or its copies would not be what the other seeds compute.
    fn run(&self, _rng: SimRng) -> SeedResult {
        let res = StackSim::from_arc(self.config.clone()).run();
        debug_assert!(
            self.config.draws_randomness() || res.counters.get("rng_draws") == 0,
            "{}: a config keyed without its seed drew {} random numbers",
            self.label(),
            res.counters.get("rng_draws"),
        );
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
/// engine does not serialise and hash the key a second time, and the
/// seeds its output serves.
struct KeyedCell {
    cell: SeedCell,
    digest: [u8; 16],
    /// Every seed this cell answers for.
    seeds: BTreeSet<u64>,
}

impl SweepCell for KeyedCell {
    type Output = SeedResult;

    /// The spec's label and the seeds the cell serves: `[seed 3]`, or
    /// `[seeds 1-5]` for a seed-invariant cell, so `--progress` shows
    /// which seeds were never simulated.
    fn label(&self) -> String {
        match self.seeds.len() {
            1 => self.cell.label(),
            _ => format!("{} [seeds {}]", self.cell.label, seed_ranges(&self.seeds)),
        }
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

/// `seeds` as comma-separated runs: `1-3,5`.
fn seed_ranges(seeds: &BTreeSet<u64>) -> String {
    let mut runs: Vec<(u64, u64)> = Vec::new();
    for &seed in seeds {
        match runs.last_mut() {
            Some((_, hi)) if *hi + 1 == seed => *hi = seed,
            _ => runs.push((seed, seed)),
        }
    }
    let run = |&(lo, hi): &(u64, u64)| {
        if lo == hi {
            lo.to_string()
        } else {
            format!("{lo}-{hi}")
        }
    };
    runs.iter().map(run).collect::<Vec<_>>().join(",")
}

/// Run groups of specs — each an experiment's plan — through **one**
/// sweep, handing each group its [`RunReport`]s (one per spec, in spec
/// order) as `done(group index, reports)` the moment the
/// last cell the group needs is released. Groups complete in input order.
///
/// A (configuration, seed) pair whose key an earlier seed, spec or group
/// of this call already submitted is a **repeat**: it is not submitted
/// again and takes the first occurrence's output (so `--progress` shows
/// the first occurrence's label). That includes every seed after the
/// first of a config that draws no randomness, whose key has no seed.
/// Each released [`SeedResult`] carries the seed its spec asked for,
/// whichever seed computed it or filled the cache, so a spec's report is
/// the same bytes either way. The distinct outputs (192 bytes each) are
/// held until the call returns — a later spec may repeat any of them;
/// everything else is the engine's bounded in-flight window.
///
/// Errors propagate from the engine: [`Error::Interrupted`], whose counts
/// are distinct cells over the whole call.
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
        let seed = cell.config.seed;
        let idx = *first.entry(digest).or_insert_with(|| {
            cells.push(KeyedCell {
                cell,
                digest,
                seeds: BTreeSet::new(),
            });
            cells.len() - 1
        });
        cells[idx].seeds.insert(seed);
        slots.push(idx);
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
            let seeds = mine
                .iter()
                .zip(&next.seeds)
                .map(|(&cell, &seed)| SeedResult {
                    seed,
                    ..outputs[cell].clone()
                })
                .collect();
            reports.push(RunReport::aggregate(next.label.clone(), seeds));
            (spec, slot) = (spec + 1, slot + next.seeds.len());
        }
    };
    drain(&outputs);
    let (mut misses, mut steady) = (0u64, 0u64);
    run_sweep_streaming(&cells, opts, |_idx, out, report| {
        // A cache hit ran no simulation in this process: its pool misses
        // happened in the run that filled the cache.
        if report.state != CacheState::Hit {
            misses += out.pool_misses;
            steady += out.pool_misses_steady;
        }
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

    /// `tiny_config` with 1 % uplink netem loss: a config that draws from
    /// its seed, so each seed is its own cell.
    fn lossy_config() -> SimConfig {
        let mut cfg = tiny_config();
        cfg.path.forward_netem.loss = 0.01;
        assert!(cfg.draws_randomness() && !tiny_config().draws_randomness());
        cfg
    }

    fn json<T: serde::Serialize + ?Sized>(value: &T) -> String {
        serde_json::to_string(value).unwrap()
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

    /// Whole reports, byte for byte, for a seed-invariant config (its
    /// three seeds one simulation) and for one that draws (three).
    #[test]
    fn sweep_matches_serial_runner() {
        for config in [tiny_config(), lossy_config()] {
            let spec = RunSpec::new("sweep-agree", config, 3);
            let baseline = json(&run_averaged(&spec));
            for jobs in [1, 3] {
                let opts = SweepOptions {
                    jobs,
                    ..SweepOptions::default()
                };
                assert_eq!(json(&sweep_one(&spec, &opts)), baseline, "jobs={jobs}");
            }
        }
    }

    /// A cache filled at seeds `[1, 2]` answers a rerun at `[1, 2, 3]`:
    /// the seed-invariant spec simulates nothing, the lossy spec only seed
    /// 3, and every released result carries the seed its spec asked for —
    /// the same bytes as simulating each seed.
    #[test]
    fn copies_and_cache_hits_carry_the_requested_seed() {
        let specs = |n| {
            vec![
                RunSpec::new("invariant", tiny_config(), n),
                RunSpec::new("lossy", lossy_config(), n),
            ]
        };
        let sweep = |specs: Vec<RunSpec>, dir: &std::path::Path| {
            let opts = SweepOptions {
                cache_dir: Some(dir.to_path_buf()),
                ..SweepOptions::default()
            };
            let mut out = Vec::new();
            run_specs_sweep(&[specs], &opts, |_, reports| out = reports)
                .expect("uncancelled sweep completes");
            out
        };
        let seed_words =
            |report: &RunReport| -> Vec<u64> { report.seeds.iter().map(|s| s.seed).collect() };

        // A real fill: the rerun's reports are what simulating every seed
        // gives.
        let dir = temp_cache("copies");
        sweep(specs(2), &dir);
        for (report, spec) in sweep(specs(3), &dir).iter().zip(specs(3)) {
            assert_eq!(seed_words(report), [1, 2, 3], "{}", spec.label);
            assert_eq!(json(report), json(&run_averaged(&spec)), "{}", spec.label);
        }
        let _ = std::fs::remove_dir_all(&dir);

        // A marked fill under the same keys, stored with seed 0 and a
        // goodput no run reads: whatever the rerun releases marked came
        // from the cache, and the rest was simulated.
        let dir = temp_cache("marked");
        let marked: Vec<Marked> = specs(2)
            .iter()
            .flat_map(RunSpec::cells)
            .map(Marked)
            .collect();
        let opts = SweepOptions {
            cache_dir: Some(dir.clone()),
            ..SweepOptions::default()
        };
        let mut filled = 0;
        run_sweep_streaming(&marked, &opts, |_, _, _| filled += 1).unwrap();
        assert_eq!(filled, 4, "two specs × two seeds submitted raw");
        let reports = sweep(specs(3), &dir);
        let from_cache = |report: &RunReport| -> Vec<bool> {
            report
                .seeds
                .iter()
                .map(|s| s.goodput_mbps == MARK)
                .collect()
        };
        assert_eq!(from_cache(&reports[0]), [true, true, true], "invariant");
        assert_eq!(from_cache(&reports[1]), [true, true, false], "lossy");
        for report in &reports {
            assert_eq!(seed_words(report), [1, 2, 3], "{}", report.label);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Goodput of a [`Marked`] cell's output.
    const MARK: f64 = -1.0;

    /// A cell under a [`SeedCell`]'s key whose output is marked rather
    /// than simulated.
    struct Marked(SeedCell);

    impl SweepCell for Marked {
        type Output = SeedResult;

        fn label(&self) -> String {
            self.0.label()
        }

        fn key_bytes(&self) -> Vec<u8> {
            self.0.key_bytes()
        }

        fn run(&self, _rng: SimRng) -> SeedResult {
            let mut bytes = vec![0; CODEC_BYTES];
            bytes[8..16].copy_from_slice(&MARK.to_le_bytes());
            SeedCell::decode(&bytes).expect("a full-width buffer decodes")
        }

        fn encode(output: &SeedResult) -> Option<Vec<u8>> {
            SeedCell::encode(output)
        }

        fn decode(bytes: &[u8]) -> Option<SeedResult> {
            SeedCell::decode(bytes)
        }
    }

    #[test]
    fn seed_ranges_name_runs() {
        let ranges = |seeds: &[u64]| seed_ranges(&seeds.iter().copied().collect());
        assert_eq!(ranges(&[3]), "3");
        assert_eq!(ranges(&[2, 1, 3, 4, 5]), "1-5");
        assert_eq!(ranges(&[5, 1, 2, 3, 7, 8]), "1-3,5,7-8");
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

    /// A cell key submitted twice in one call is simulated once: the
    /// repeat — under another label, in a later group, with a shorter
    /// seed list — gets the first occurrence's bytes, and groups are handed
    /// over in order, each the moment its last cell is out. A config that
    /// draws is one key per seed; one that draws nothing is one key.
    #[test]
    fn repeats_are_simulated_once_and_groups_complete_in_order() {
        let mut other = tiny_config();
        other.connections = 3;
        let groups = [
            vec![RunSpec::new("first", lossy_config(), 2)],
            vec![],
            vec![
                RunSpec::new("again", lossy_config(), 1),
                RunSpec::new("other", other, 2),
                RunSpec::new("again, both seeds", lossy_config(), 2),
            ],
        ];
        // Seven (config, seed) pairs submitted: the lossy config's two
        // seeds and the seed-invariant config's one key make three cells,
        // and a sweep stopped before its first cell reports how many it
        // was handed.
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
            assert_eq!(json(&all[0].seeds), json(&all[3].seeds), "jobs={jobs}");
            assert_eq!(json(&all[0].seeds[..1]), json(&all[1].seeds), "jobs={jobs}");
            assert_eq!(json(&all[0]), json(&run_averaged(&groups[0][0])));
            assert_eq!(json(&all[2]), json(&run_averaged(&groups[2][1])));
        }
    }

    #[test]
    fn distinct_configs_have_distinct_keys() {
        let key = |cfg: SimConfig, seed| {
            SeedCell {
                label: "a".into(),
                config: Arc::new(SimConfig { seed, ..cfg }),
            }
            .key_bytes()
        };
        assert_eq!(
            key(tiny_config(), 1),
            key(tiny_config(), 2),
            "a config that draws nothing is keyed without its seed"
        );
        assert_ne!(
            key(lossy_config(), 1),
            key(lossy_config(), 2),
            "a config that draws is keyed with its seed"
        );
        let mut cfg = tiny_config();
        cfg.pacing.stride += 1;
        assert_ne!(
            key(tiny_config(), 1),
            key(cfg, 1),
            "stride must be part of the key"
        );
        assert_ne!(key(tiny_config(), 1), key(lossy_config(), 1));
    }
}
