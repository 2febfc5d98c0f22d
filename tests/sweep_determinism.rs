//! End-to-end guarantees of the sweep engine (`sim_core::sweep`):
//!
//! 1. **Parallel == serial == one at a time, byte for byte.** The full
//!    experiment scorecard, run as one sweep and rendered to JSON with
//!    `--jobs 1`, equals the same render with many workers — the engine's
//!    headline determinism contract — and equals the 19 experiments run
//!    one by one, where no cell is shared between them.
//! 2. **The run cache is transparent.** A warm rerun serves every cell
//!    from cache (100% hits), returns identical results, and is far
//!    cheaper than the cold run.

use experiments::{Experiment, ExperimentId, Params};
use iperf::{RunSpec, SeedCell, SeedResult};
use sim_core::sweep::{run_sweep_streaming, CacheState, SweepOptions};

/// Smoke-sized parameters with an explicit worker count and no cache.
fn smoke_with_jobs(jobs: usize) -> Params {
    let mut p = Params::smoke();
    p.threads = jobs;
    p.cache_dir = None;
    p.progress = false;
    p
}

/// The whole scorecard as `repro --exp all` runs it: one sweep.
fn run_all(params: &Params) -> Vec<Experiment> {
    let mut done = Vec::new();
    experiments::run_all(&ExperimentId::ALL, params, |exp| done.push(exp))
        .expect("uncancelled run completes");
    done
}

/// The exact bytes `repro --json` writes.
fn to_json(experiments: &[Experiment]) -> String {
    serde_json::to_string_pretty(experiments).unwrap()
}

#[test]
fn parallel_sweep_json_is_byte_identical_to_serial() {
    let one_by_one: Vec<Experiment> = ExperimentId::ALL
        .iter()
        .map(|id| {
            id.run(&smoke_with_jobs(1))
                .expect("uncancelled experiment completes")
        })
        .collect();
    let serial = run_all(&smoke_with_jobs(1));
    let parallel = run_all(&smoke_with_jobs(8));
    assert_eq!(
        to_json(&serial),
        to_json(&parallel),
        "jobs=8 must reproduce jobs=1 byte for byte"
    );
    assert_eq!(
        to_json(&serial),
        to_json(&one_by_one),
        "sharing cells across experiments must not move a byte"
    );
}

#[test]
fn warm_cache_rerun_is_complete_and_identical() {
    let cache = std::env::temp_dir().join(format!("mobile-bbr-warm-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache);

    // A representative slice of the scorecard's cells: two CPU configs,
    // three seeds each, built exactly as the experiments build them.
    let params = Params::smoke();
    let specs = [
        RunSpec::new(
            "warm-low",
            params.pixel4(cpu_model::CpuConfig::LowEnd, congestion::CcKind::Bbr, 4),
            3,
        ),
        RunSpec::new(
            "warm-high",
            params.pixel4(cpu_model::CpuConfig::HighEnd, congestion::CcKind::Cubic, 4),
            3,
        ),
    ];
    let cells: Vec<SeedCell> = specs.iter().flat_map(RunSpec::cells).collect();

    let opts = SweepOptions {
        jobs: 2,
        cache_dir: Some(cache.clone()),
        ..SweepOptions::default()
    };
    // One sweep: its outputs, how many came from the cache, its wall time.
    let sweep = || {
        let mut outputs: Vec<SeedResult> = Vec::new();
        let mut cache_hits = 0;
        let summary = run_sweep_streaming(&cells, &opts, |_idx, output, report| {
            outputs.push(output);
            cache_hits += usize::from(report.state == CacheState::Hit);
        })
        .expect("uncancelled sweep completes");
        (outputs, cache_hits, summary.elapsed)
    };
    let (cold, cold_hits, cold_elapsed) = sweep();
    assert_eq!(cold_hits, 0, "first run computes everything");

    let (warm, warm_hits, warm_elapsed) = sweep();
    assert_eq!(warm_hits, cells.len(), "warm rerun must be 100% cache hits");
    for (c, w) in cold.iter().zip(&warm) {
        assert_eq!(c.seed, w.seed);
        assert_eq!(c.goodput_mbps.to_bits(), w.goodput_mbps.to_bits());
        assert_eq!(c.mean_rtt_ms.to_bits(), w.mean_rtt_ms.to_bits());
        assert_eq!(c.retx, w.retx);
        assert_eq!(c.timer_fires, w.timer_fires);
    }
    // The full-binary warm/cold ratio is far below 10%; in-process we only
    // assert the conservative half to keep the test robust on loaded CI.
    assert!(
        warm_elapsed < cold_elapsed / 2,
        "warm rerun should be much cheaper: cold {cold_elapsed:?}, warm {warm_elapsed:?}"
    );

    let _ = std::fs::remove_dir_all(&cache);
}
