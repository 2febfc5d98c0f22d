//! End-to-end checkpoint/resume determinism through the full experiment
//! pipeline: interrupt a sweep mid-grid, resume it from the checkpoint
//! file, and require the final scorecard JSON to be byte-identical to an
//! uninterrupted run — at `--jobs 1` and at `--jobs 4`.
//!
//! This is the workspace-level counterpart of `sim_core::sweep`'s unit
//! tests: it exercises the same engine through `experiments` → `iperf` →
//! `run_sweep_streaming`, exactly the path `repro --checkpoint --resume`
//! takes (minus the process boundary, which `tools/verify.sh resume`
//! covers with the real binary).

use mobile_bbr::prelude::*;
use mobile_bbr::sim_core;

/// Smoke parameters with a known seed count so the interrupt point lands
/// mid-grid (3 specs × 2 seeds = 6 cells).
fn base_params(jobs: usize) -> Params {
    let mut p = Params::smoke();
    p.seeds = 2;
    p.threads = jobs;
    p.cache_dir = None;
    p.progress = false;
    p
}

fn scorecard_json(exp: &mobile_bbr::experiments::Experiment) -> String {
    serde_json::to_string_pretty(&[exp]).expect("experiment serializes")
}

#[test]
fn interrupted_then_resumed_run_is_byte_identical() {
    let dir = std::env::temp_dir().join(format!("mobile-bbr-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");

    for jobs in [1usize, 4] {
        // Uninterrupted baseline: no checkpoint involved at all.
        let baseline = ExperimentId::Bbr2Wifi
            .run(&base_params(jobs))
            .expect("baseline completes");
        let want = scorecard_json(&baseline);

        let ckpt = dir.join(format!("bbr2wifi-jobs{jobs}.ck"));

        // Phase 1: interrupt mid-grid. max_inflight 2 keeps the claim
        // window from swallowing the whole 6-cell grid before the
        // cancel-after hook can latch.
        let mut interrupted = base_params(jobs);
        interrupted.checkpoint = Some(ckpt.clone());
        interrupted.max_inflight = 2;
        interrupted.cancel_after = Some(2);
        let err = ExperimentId::Bbr2Wifi
            .run(&interrupted)
            .expect_err("cancel_after must interrupt the sweep");
        match err {
            Error::Interrupted { completed, total } => {
                assert!(completed >= 2, "jobs={jobs}: at least 2 cells finished");
                assert!(completed < total, "jobs={jobs}: interrupt landed mid-grid");
            }
            other => panic!("jobs={jobs}: expected Interrupted, got {other}"),
        }
        assert!(ckpt.exists(), "interrupt finalizes the checkpoint file");

        // Phase 2: resume from the checkpoint, run to completion.
        let before = sim_core::sweep::totals().checkpoint_hits;
        let mut resumed = base_params(jobs);
        resumed.checkpoint = Some(ckpt.clone());
        let exp = ExperimentId::Bbr2Wifi
            .run(&resumed)
            .expect("resumed run completes");
        let hits = sim_core::sweep::totals().checkpoint_hits - before;
        assert!(
            hits >= 2,
            "jobs={jobs}: resume must serve the interrupted run's cells from the checkpoint, got {hits}"
        );
        assert_eq!(
            scorecard_json(&exp),
            want,
            "jobs={jobs}: resumed scorecard must be byte-identical to the uninterrupted run"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// A corrupted checkpoint file degrades to recomputation — same bytes
/// out, never a panic or an error.
#[test]
fn corrupted_checkpoint_still_yields_identical_results() {
    let dir = std::env::temp_dir().join(format!("mobile-bbr-ckpt-corrupt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");

    let baseline = ExperimentId::Bbr2Wifi
        .run(&base_params(2))
        .expect("baseline completes");
    let want = scorecard_json(&baseline);

    // Record a full checkpoint.
    let ckpt = dir.join("full.ck");
    let mut with_ckpt = base_params(2);
    with_ckpt.checkpoint = Some(ckpt.clone());
    ExperimentId::Bbr2Wifi
        .run(&with_ckpt)
        .expect("recording run completes");

    // Flip a byte in the middle of the record region and truncate the
    // tail; the tolerant loader keeps the valid prefix and the engine
    // recomputes the rest.
    let mut bytes = std::fs::read(&ckpt).expect("checkpoint readable");
    assert!(bytes.len() > 40, "checkpoint has records to corrupt");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    bytes.truncate(bytes.len() - 3);
    std::fs::write(&ckpt, &bytes).expect("rewrite corrupted checkpoint");

    let exp = ExperimentId::Bbr2Wifi
        .run(&with_ckpt)
        .expect("corrupted checkpoint must degrade to recomputation, not fail");
    assert_eq!(scorecard_json(&exp), want, "recomputed results identical");

    let _ = std::fs::remove_dir_all(&dir);
}
