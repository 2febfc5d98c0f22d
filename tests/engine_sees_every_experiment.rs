//! The sweep engine is the only way an experiment runs a simulation: every
//! `ExperimentId` shows up in the engine's totals, and a rerun against the
//! same cache simulates nothing.
//!
//! This is deliberately the only test in its binary: `sweep::totals()` is
//! process-global, so a sibling test sweeping concurrently would leak into
//! the deltas asserted here.

use experiments::{ExperimentId, Params};
use sim_core::sweep::{totals, SweepTotals};

/// Run one experiment and return its JSON plus the engine totals it moved.
fn run_counted(id: ExperimentId, params: &Params) -> (String, SweepTotals) {
    let before = totals();
    let exp = id.run(params).expect("uncancelled experiment completes");
    let after = totals();
    let moved = SweepTotals {
        cells: after.cells - before.cells,
        cache_hits: after.cache_hits - before.cache_hits,
        cache_misses: after.cache_misses - before.cache_misses,
        cache_corrupt: after.cache_corrupt - before.cache_corrupt,
        uncacheable: after.uncacheable - before.uncacheable,
        ..SweepTotals::default()
    };
    (serde_json::to_string(&exp).unwrap(), moved)
}

#[test]
fn every_experiment_is_swept_and_fully_cached_on_rerun() {
    let cache = std::env::temp_dir().join(format!("mobile-bbr-engine-sees-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache);
    let mut params = Params::smoke();
    params.cache_dir = Some(cache.clone());

    for id in ExperimentId::ALL {
        let name = id.cli_name();
        let (first_json, first) = run_counted(id, &params);
        assert!(
            first.cells > 0,
            "{name}: simulations must run inside the sweep engine"
        );

        let (second_json, second) = run_counted(id, &params);
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
}
