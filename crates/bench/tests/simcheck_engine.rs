//! Integration tests for the `simcheck` fuzzer: corpus health, CLI
//! behaviour, the determinism contract (`--jobs N` output is
//! bit-identical to `--jobs 1`), and the run cache behind `--cache-dir`.

use mobile_bbr_bench::simcheck::{check_scenario, Corpus, Scenario};
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
    let corpus = Corpus::load(corpus_path()).unwrap();
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

/// `--scenario` is a one-entry corpus of the fuzz sweep, so the sweep
/// flags reach it: a cache serves the rerun, and `--cancel-after 0`
/// interrupts before the one cell.
#[test]
fn scenario_replay_runs_through_the_sweep() {
    let dir = std::env::temp_dir().join(format!("simcheck-single-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = "cc=bbr2,cpu=high,media=eth,conns=2,dur=500,warmup=200,seed=9";
    let run = |extra: &[&str]| {
        Command::new(simcheck_bin())
            .args(["--scenario", spec, "--progress"])
            .args(["--cache-dir", dir.to_str().unwrap()])
            .args(extra)
            .output()
            .expect("simcheck runs")
    };
    let interrupted = run(&["--cancel-after", "0"]);
    assert_eq!(interrupted.status.code(), Some(130));
    assert!(interrupted.stdout.is_empty());
    let (cold, warm) = (run(&[]), run(&["--jobs", "2"]));
    let _ = std::fs::remove_dir_all(&dir);
    let warm_err = String::from_utf8_lossy(&warm.stderr);
    assert!(String::from_utf8_lossy(&cold.stderr).contains("cache 0 hits / 1 misses"));
    assert!(warm_err.contains("cache 1 hits / 0 misses"), "{warm_err}");
    assert_eq!(cold.stdout, warm.stdout);
    assert!(String::from_utf8_lossy(&warm.stdout).starts_with("PASS "));
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

/// The corpus runs through the same sweep as the draws: a failing entry is
/// reported as written, unshrunk, and identically at any `--jobs`.
#[test]
fn a_failing_corpus_entry_is_reported_alike_at_any_job_count() {
    let dir = std::env::temp_dir().join(format!("simcheck-failing-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("corpus.txt");
    let entries = Corpus::load(corpus_path()).unwrap().entries;
    // 5 ms of netem jitter inverts cpu-monotone: a known model defect.
    let failing = "cc=bbr,jitter=5000".to_string();
    let corpus = [&entries[..2], &[failing], &entries[2..4]].concat();
    std::fs::write(&path, corpus.join("\n") + "\n").unwrap();
    let run = |jobs: &str| {
        Command::new(simcheck_bin())
            .args(["--budget", "4", "--seed", "2", "--jobs", jobs])
            .args(["--corpus", path.to_str().unwrap(), "--no-corpus-append"])
            .output()
            .expect("simcheck runs")
    };
    let (serial, parallel) = (run("1"), run("4"));
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(serial.status.code(), Some(1));
    assert_eq!(parallel.status.code(), Some(1));
    assert_eq!(
        serial.stdout, parallel.stdout,
        "--jobs must not move a byte"
    );
    let stdout = String::from_utf8(serial.stdout).unwrap();
    assert!(
        stdout.starts_with("FAIL corpus cc=bbr,jitter=5000\n  [cpu-monotone] High-End goodput "),
        "{stdout}"
    );
    assert!(!stdout.contains("repro:"), "corpus entries are not shrunk");
    assert!(
        stdout.ends_with("simcheck: 5 corpus + 4 random scenarios, 1 violation(s), seed 2\n"),
        "{stdout}"
    );
}

/// A campaign rerun with the same `--cache-dir` is served from it whole
/// and prints the same bytes.
#[test]
fn a_cached_campaign_reruns_from_the_cache() {
    let dir = std::env::temp_dir().join(format!("simcheck-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let run = || {
        let out = Command::new(simcheck_bin())
            .args(["--budget", "8", "--seed", "5", "--jobs", "2", "--progress"])
            .args([
                "--corpus",
                "/nonexistent/empty-corpus.txt",
                "--no-corpus-append",
            ])
            .args(["--cache-dir", dir.to_str().unwrap()])
            .output()
            .expect("simcheck runs");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(out.status.success(), "stderr: {stderr}");
        (out.stdout, stderr)
    };
    let (cold, cold_err) = run();
    let (warm, warm_err) = run();
    assert!(cold_err.contains("cache 0 hits / 8 misses"), "{cold_err}");
    assert!(warm_err.contains("cache 8 hits / 0 misses"), "{warm_err}");
    assert_eq!(cold, warm, "a warm campaign prints the cold one's bytes");
    assert!(
        warm_err.contains(&format!("cache: {}/", dir.display())),
        "{warm_err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
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

/// Without the feature a spec cannot name a mutant: it would replay
/// clean and pass.
#[cfg(not(feature = "simcheck-mutants"))]
#[test]
fn a_mutant_spec_requires_the_feature() {
    let line = &Corpus::load(corpus_path()).unwrap().entries[0];
    let out = Command::new(simcheck_bin())
        .args(["--scenario", &format!("{line},mutant=skip-retx-count")])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    assert!(String::from_utf8_lossy(&out.stderr).contains("simcheck-mutants"));
}

/// With the feature on, every intentional mutation must be caught and
/// reported with a shrunk repro command that fails again when replayed
/// (`tools/verify.sh mutants`).
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
    let lines: Vec<&str> = stdout.lines().collect();
    let mut replays = 0;
    for pair in lines.windows(2) {
        let [caught, repro] = pair else {
            unreachable!()
        };
        let (Some(oracles), Some(spec)) = (
            caught
                .strip_prefix("CAUGHT ")
                .and_then(|rest| rest.split_once(" by ["))
                .and_then(|(_, rest)| rest.strip_suffix(']')),
            repro
                .strip_prefix("  repro: simcheck --scenario '")
                .and_then(|rest| rest.strip_suffix('\'')),
        ) else {
            continue;
        };
        let replay = Command::new(simcheck_bin())
            .args(["--scenario", spec])
            .output()
            .unwrap();
        let replayed = String::from_utf8_lossy(&replay.stdout);
        assert_eq!(
            replay.status.code(),
            Some(1),
            "{spec} must fail:\n{replayed}"
        );
        assert!(
            oracles
                .split(", ")
                .any(|o| replayed.contains(&format!("  [{o}] "))),
            "{spec} fails none of [{oracles}]:\n{replayed}"
        );
        replays += 1;
    }
    assert_eq!(replays, n, "every repro replayed:\n{stdout}");
}
