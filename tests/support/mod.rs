//! Helpers shared by the end-to-end resume tests (`checkpoint_resume.rs`
//! and `fleet_determinism.rs`). Cargo builds no test target from this
//! subdirectory; each test file pulls it in with `mod support;`.

use mobile_bbr::prelude::*;
use mobile_bbr::sim_core;

/// Smoke parameters with an explicit worker count and two seeds, so the
/// FLEET and BBR2 grids (3 points × 2 seeds = 6 cells) have a mid-grid to
/// interrupt.
pub fn base_params(jobs: usize) -> Params {
    let mut p = Params::smoke();
    p.seeds = 2;
    p.threads = jobs;
    p.cache_dir = None;
    p.progress = false;
    p
}

pub fn scorecard_json(exp: &mobile_bbr::experiments::Experiment) -> String {
    serde_json::to_string_pretty(&[exp]).expect("experiment serializes")
}

/// Interrupt the `id` sweep mid-grid at `jobs` workers, rerun it against
/// the same cache directory, and require the scorecard bytes of an
/// uninterrupted run, with every cell the interrupted leg released served
/// from the cache.
pub fn assert_resume_is_byte_identical(id: ExperimentId, jobs: usize) {
    let dir = std::env::temp_dir().join(format!(
        "mobile-bbr-resume-{}-{}-{jobs}",
        std::process::id(),
        id.cli_name()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let want = scorecard_json(&id.run(&base_params(jobs)).expect("baseline completes"));
    let mut cached = base_params(jobs);
    cached.cache_dir = Some(dir.clone());

    // Phase 1: interrupt mid-grid. max_inflight 2 keeps the claim
    // window from swallowing the whole 6-cell grid before the
    // cancel-after hook can latch.
    let mut interrupted = cached.clone();
    interrupted.max_inflight = 2;
    interrupted.cancel_after = Some(2);
    let completed = match id.run(&interrupted) {
        Err(Error::Interrupted { completed, total }) => {
            assert!(
                completed >= 2,
                "{id:?} jobs={jobs}: at least 2 cells finished"
            );
            assert!(
                completed < total,
                "{id:?} jobs={jobs}: interrupt landed mid-grid"
            );
            completed
        }
        other => panic!("{id:?} jobs={jobs}: expected Interrupted, got {other:?}"),
    };

    // Phase 2: rerun against the same cache.
    let before = sim_core::sweep::totals().cache_hits;
    let exp = id.run(&cached).expect("resumed run completes");
    let hits = sim_core::sweep::totals().cache_hits - before;
    assert!(
        hits >= completed,
        "{id:?} jobs={jobs}: the cache served {hits} cells, the interrupted run finished {completed}"
    );
    assert_eq!(
        scorecard_json(&exp),
        want,
        "{id:?} jobs={jobs}: resumed scorecard must be byte-identical to the uninterrupted run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
