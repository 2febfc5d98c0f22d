//! FLEET experiment determinism: the fleet scorecard must be byte-for-byte
//! reproducible across worker counts, and an interrupted sweep must resume
//! through the run cache to exactly the bytes of an uninterrupted run.
//!
//! Fleet cells are the heaviest the sweep engine schedules (hundreds of
//! connections per cell at the full preset), which makes them the most
//! likely place for a worker-count-dependent interleaving or a stale
//! cache entry to sneak into the output. Both tests run the real
//! experiment pipeline end to end — the same path `repro --exp fleet`
//! takes, minus the process boundary that `tools/verify.sh resume`
//! covers with the real binaries.

mod support;

use mobile_bbr::prelude::*;
use support::{base_params, scorecard_json};

#[test]
fn fleet_scorecard_is_byte_identical_across_worker_counts() {
    let serial = ExperimentId::Fleet
        .run(&base_params(1))
        .expect("serial FLEET run completes");
    let parallel = ExperimentId::Fleet
        .run(&base_params(4))
        .expect("parallel FLEET run completes");
    assert_eq!(
        scorecard_json(&serial),
        scorecard_json(&parallel),
        "FLEET output must not depend on the worker count"
    );
}

/// Interrupt a FLEET sweep mid-grid, rerun it against the same cache
/// directory, and require the scorecard bytes of an uninterrupted run.
/// `checkpoint_resume.rs` runs the same check on BBR2 at one and four
/// workers.
#[test]
fn interrupted_fleet_sweep_resumes_byte_identically() {
    support::assert_resume_is_byte_identical(ExperimentId::Fleet, 4);
}
