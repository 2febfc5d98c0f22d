//! End-to-end interrupt/resume determinism for the BBR2 Wi-Fi experiment:
//! interrupt a sweep mid-grid, rerun it against the same run cache, and
//! require the final scorecard JSON to be byte-identical to an
//! uninterrupted run — at `--jobs 1` (the serial engine) and at `--jobs 4`.
//!
//! It exercises the engine through `experiments` → `iperf` →
//! `run_sweep_streaming`, the path `repro --cache-dir` takes on a rerun
//! (minus the process boundary, which `tools/verify.sh resume` covers with
//! the real binary). `fleet_determinism.rs` runs the same check on FLEET.

mod support;

use mobile_bbr::prelude::*;

#[test]
fn interrupted_then_resumed_run_is_byte_identical() {
    for jobs in [1, 4] {
        support::assert_resume_is_byte_identical(ExperimentId::Bbr2Wifi, jobs);
    }
}
