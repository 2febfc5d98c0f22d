//! Integration tests for the `simcheck` fuzzer: corpus health, CLI
//! behaviour, and the determinism contract (`--jobs N` output is
//! bit-identical to `--jobs 1`).

use mobile_bbr_bench::simcheck::{check_scenario, Scenario};
use std::path::PathBuf;
use std::process::Command;

fn corpus_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/simcheck_corpus.txt")
}

fn simcheck_bin() -> &'static str {
    env!("CARGO_BIN_EXE_simcheck")
}

#[test]
fn checked_in_corpus_parses_and_passes() {
    let corpus = sim_core::check::Corpus::load(corpus_path()).unwrap();
    assert!(
        !corpus.entries.is_empty(),
        "the checked-in corpus must seed at least one scenario"
    );
    for line in &corpus.entries {
        let scenario =
            Scenario::parse(line).unwrap_or_else(|e| panic!("corpus entry '{line}': {e}"));
        assert_eq!(
            scenario.spec_string(),
            *line,
            "corpus entries must be canonical specs (round-trip exactly)"
        );
        let violations = check_scenario(&scenario);
        assert!(
            violations.is_empty(),
            "corpus entry '{line}': {violations:?}"
        );
    }
}

#[test]
fn fuzz_output_is_bit_identical_across_jobs() {
    let run = |jobs: &str| {
        Command::new(simcheck_bin())
            .args([
                "--budget",
                "25",
                "--seed",
                "3",
                "--jobs",
                jobs,
                "--corpus",
                "/nonexistent/empty-corpus.txt",
                "--no-corpus-append",
            ])
            .output()
            .expect("simcheck runs")
    };
    let serial = run("1");
    let parallel = run("4");
    assert!(
        serial.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&serial.stderr)
    );
    assert_eq!(serial.status.code(), parallel.status.code());
    assert_eq!(
        serial.stdout, parallel.stdout,
        "stdout must be bit-identical for any --jobs value"
    );
}

#[test]
fn scenario_replay_cli_round_trip() {
    let out = Command::new(simcheck_bin())
        .args([
            "--scenario",
            "cc=bbr2,cpu=high,media=eth,conns=2,dur=500,warmup=200,seed=9",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("PASS "));
}

#[test]
fn bad_spec_and_bad_flags_exit_two() {
    let bad_spec = Command::new(simcheck_bin())
        .args(["--scenario", "cc=quic"])
        .output()
        .unwrap();
    assert_eq!(bad_spec.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&bad_spec.stderr).contains("unknown cc"));

    let bad_flag = Command::new(simcheck_bin())
        .args(["--frobnicate"])
        .output()
        .unwrap();
    assert_eq!(bad_flag.status.code(), Some(2));

    let bad_jobs = Command::new(simcheck_bin())
        .args(["--jobs", "0"])
        .output()
        .unwrap();
    assert_eq!(bad_jobs.status.code(), Some(2));
}

/// Without the `simcheck-mutants` feature, `--mutant-check` must refuse
/// loudly instead of vacuously passing.
#[cfg(not(feature = "simcheck-mutants"))]
#[test]
fn mutant_check_requires_the_feature() {
    let out = Command::new(simcheck_bin())
        .args(["--mutant-check", "--budget", "5"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("simcheck-mutants"));
}

/// With the feature on, every intentional mutation must be caught and
/// reported with a shrunk repro command (`tools/verify.sh mutants`).
#[cfg(feature = "simcheck-mutants")]
#[test]
fn every_mutant_is_caught_with_a_shrunk_repro() {
    let all = tcp_sim::mutants::ALL;
    let out = Command::new(simcheck_bin())
        .args(["--mutant-check", "--budget", "120", "--seed", "1"])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    assert!(
        out.status.success(),
        "mutant escaped:\n{stdout}\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let n = all.len();
    assert!(
        stdout.contains(&format!("mutant-check: {n}/{n} mutations caught")),
        "{stdout}"
    );
    for mutant in all {
        assert!(stdout.contains(&format!("CAUGHT {mutant} ")), "{stdout}");
    }
    assert_eq!(
        stdout.matches("repro: simcheck --scenario").count(),
        n,
        "every catch must come with a repro command:\n{stdout}"
    );
}
