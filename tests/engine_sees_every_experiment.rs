//! The sweep engine is the only way an experiment runs a simulation: every
//! `ExperimentId` shows up in the engine's totals, a rerun against the
//! same cache simulates nothing, and a run of several experiments submits
//! each distinct cell key exactly once — with no cache at all. A config
//! that draws no randomness is one key for all its seeds.
//!
//! This is deliberately the only test in its binary: `sweep::totals()` is
//! process-global, so a sibling test sweeping concurrently would leak into
//! the deltas asserted here.

use experiments::{ExperimentId, Params};
use iperf::RunSpec;
use sim_core::sweep::{totals, SweepCell, SweepTotals};
use std::collections::HashSet;

/// Run `ids` as one sweep and return their JSON plus the engine totals
/// the run moved.
fn run_counted(ids: &[ExperimentId], params: &Params) -> (String, SweepTotals) {
    let before = totals();
    let mut done = Vec::new();
    experiments::run_all(ids, params, |exp| done.push(exp)).expect("uncancelled run completes");
    let after = totals();
    let moved = SweepTotals {
        cells: after.cells - before.cells,
        cache_hits: after.cache_hits - before.cache_hits,
        cache_misses: after.cache_misses - before.cache_misses,
        cache_corrupt: after.cache_corrupt - before.cache_corrupt,
        uncacheable: after.uncacheable - before.uncacheable,
        ..SweepTotals::default()
    };
    (serde_json::to_string(&done).unwrap(), moved)
}

/// Distinct cell keys in the concatenated plans of `ids`: what one run of
/// them has to simulate.
fn distinct_cells(ids: &[ExperimentId], params: &Params) -> u64 {
    let specs: Vec<RunSpec> = ids.iter().flat_map(|id| id.plan(params)).collect();
    let keys: HashSet<Vec<u8>> = specs
        .iter()
        .flat_map(RunSpec::cells)
        .map(|cell| cell.key_bytes())
        .collect();
    keys.len() as u64
}

#[test]
fn every_experiment_is_swept_and_fully_cached_on_rerun() {
    let cache = std::env::temp_dir().join(format!("mobile-bbr-engine-sees-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache);
    let mut params = Params::smoke();
    params.cache_dir = Some(cache.clone());

    for id in ExperimentId::ALL {
        let name = id.cli_name();
        let (first_json, first) = run_counted(&[id], &params);
        assert!(
            first.cells > 0,
            "{name}: simulations must run inside the sweep engine"
        );

        let (second_json, second) = run_counted(&[id], &params);
        assert_eq!(second.cells, first.cells, "{name}: same grid on rerun");
        assert_eq!(
            (
                second.cache_hits,
                second.cache_misses,
                second.cache_corrupt,
                second.uncacheable
            ),
            (second.cells, 0, 0, 0),
            "{name}: a warm rerun is served entirely from the cache"
        );
        assert_eq!(first_json, second_json, "{name}: cached == computed");
    }
    let _ = std::fs::remove_dir_all(&cache);

    // Repeats are resolved before submission, not by the cache: Fig. 7
    // reads Fig. 4's runs, so the pair costs one figure's cells, and its
    // Ethernet configs draw no randomness, so each is one cell whatever
    // the seed count.
    let mut params = Params::smoke();
    params.seeds = 2;
    assert!(params.cache_dir.is_none());
    let pair = [ExperimentId::Fig4, ExperimentId::Fig7];
    let (_, moved) = run_counted(&pair, &params);
    assert_eq!(moved.cells, 6, "3 configs × paced/unpaced, seeds shared");
    assert_eq!(moved.uncacheable, moved.cells, "no cache was involved");
    assert_eq!(distinct_cells(&pair, &params), moved.cells);

    // And over the whole scorecard: exactly the distinct keys of the plans.
    let params = Params::smoke();
    let submitted: usize = ExperimentId::ALL
        .iter()
        .flat_map(|id| id.plan(&params))
        .map(|spec| spec.seeds.len())
        .sum();
    let (_, moved) = run_counted(&ExperimentId::ALL, &params);
    assert_eq!(moved.cells, distinct_cells(&ExperimentId::ALL, &params));
    assert!(
        (moved.cells as usize) < submitted,
        "the plans share cells: {} distinct of {submitted}",
        moved.cells
    );
}
