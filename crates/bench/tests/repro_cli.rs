//! Command-line tests for the `repro` binary: a knob must override the
//! preset whichever side of `--quick`/`--smoke` it is written on, a
//! hostile value is a usage error and never a panic, naming an experiment
//! twice selects it once, `--exp ablations` is a selection like
//! `--exp all` — same sweep, same sharing — and `--observe` is the one
//! observe mode.

use std::process::Command;

/// Run `repro --exp fig9 <flags> --progress --json <tmp>`, returning the
/// JSON artifact and stderr (which carries the sweep totals line).
fn fig9(tag: &str, flags: &[&str]) -> (String, String) {
    let dir = std::env::temp_dir().join(format!("repro-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let json = dir.join(format!("{tag}.json"));
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--exp", "fig9"])
        .args(flags)
        .args(["--progress", "--json", json.to_str().unwrap()])
        .output()
        .expect("repro binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(out.status.success(), "stderr: {stderr}");
    (std::fs::read_to_string(&json).unwrap(), stderr)
}

#[test]
fn seeds_overrides_the_preset_on_either_side_of_it() {
    let (before, before_err) = fig9("seeds-first", &["--seeds", "2", "--smoke"]);
    let (after, after_err) = fig9("seeds-last", &["--smoke", "--seeds", "2"]);
    assert_eq!(before, after, "flag order must not change the scorecard");
    // fig9 is a 4-conns × 2-CC grid: 8 cells per seed.
    for stderr in [before_err, after_err] {
        assert!(
            stderr.contains("sweep totals: 16 cells"),
            "two seeds expected; stderr: {stderr}"
        );
    }
}

#[test]
fn zero_seeds_is_a_usage_error_not_a_panic() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--exp", "fig9", "--smoke", "--seeds", "0", "--no-cache"])
        .output()
        .expect("repro binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("--seeds must be at least 1"), "{stderr}");
    assert!(stderr.contains("usage: repro"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn a_repeated_exp_is_run_and_scored_once() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--exp", "fig9", "--exp", "fig9", "--smoke", "--no-cache"])
        .output()
        .expect("repro binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.matches("== FIG9").count(), 1, "{stdout}");
    assert!(stdout.contains("scorecard: 2/2"), "{stdout}");
}

#[test]
fn ablations_selects_the_six_studies_in_registry_order() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([
            "--exp",
            "acks",
            "--exp",
            "ablations",
            "--smoke",
            "--no-cache",
        ])
        .output()
        .expect("repro binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    let sections: Vec<&str> = stdout
        .lines()
        .filter_map(|line| line.strip_prefix("== ")?.split(' ').next())
        .collect();
    // First mention wins: `acks` leads, the group adds the other five.
    let want =
        ["ACKS", "TIMER", "CAP", "GOVERNOR", "AQM", "COMPETITION"].map(|s| format!("ABL-{s}"));
    assert_eq!(sections, want, "{stdout}");
    assert!(stdout.contains("scorecard: 0/0"), "studies assert no shape");
}

/// Distinct cells `repro <selection> --smoke` hands the engine, read off a
/// sweep stopped before its first cell (`Interrupted`'s total).
fn distinct_cells(selection: &[&str]) -> u64 {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(selection)
        .args(["--smoke", "--no-cache", "--cancel-after", "0"])
        .output()
        .expect("repro binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(130), "stderr: {stderr}");
    let total = stderr
        .split("interrupted after 0/")
        .nth(1)
        .and_then(|rest| rest.split(' ').next())
        .and_then(|n| n.parse().ok());
    total.unwrap_or_else(|| panic!("no cell count in: {stderr}"))
}

#[test]
fn studies_share_cells_with_the_scorecard_in_one_sweep() {
    let scorecard = distinct_cells(&["--exp", "all"]);
    let studies = distinct_cells(&["--exp", "ablations"]);
    let both = distinct_cells(&["--exp", "all", "--exp", "ablations"]);
    // `governor` is Fig. 2's 20-connection column; `timer`, `cap` and
    // `competition` each repeat Fig. 8 points.
    assert!(
        both < scorecard + studies,
        "{both} cells for both against {scorecard} + {studies}"
    );
    assert!(both > scorecard, "the studies add cells of their own");
}

#[test]
fn observe_writes_five_files_and_prints_three_tables() {
    let dir = std::env::temp_dir().join(format!("repro-cli-observe-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--observe", dir.to_str().unwrap(), "--smoke"])
        .output()
        .expect("repro binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    files.sort();
    assert_eq!(
        files,
        [
            "flight.jsonl",
            "flows.csv",
            "queue.csv",
            "report.html",
            "trace.json"
        ]
    );
    // The census, the cycle ranking, the per-connection table.
    assert!(stdout.contains(" dropped, "), "{stdout}");
    assert!(stdout.contains("  cpu_span\n"), "{stdout}");
    assert!(stdout.contains("Mcycles total):\n"), "{stdout}");
    assert!(stdout.contains("%  timers\n"), "{stdout}");
    assert!(stdout.contains(" conn   tx segs"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn side_modes_refuse_flags_they_would_ignore() {
    // `--observe` returns before any experiment runs; a flag that asks
    // for an artifact or a checkpoint would be dropped silently.
    let dir = std::env::temp_dir().join(format!("repro-cli-modes-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let at = |name: &str| dir.join(name).to_str().unwrap().to_string();
    for (flags, named) in [
        (
            vec!["--json", &at("j"), "--exp", "fig9"],
            vec!["--exp", "--json"],
        ),
        (vec!["--csv", &at("c")], vec!["--csv"]),
        (
            vec!["--markdown", &at("m"), "--checkpoint", &at("k")],
            vec!["--markdown", "--checkpoint"],
        ),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["--smoke", "--observe", &at("o")])
            .args(&flags)
            .output()
            .expect("repro binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flags:?}: stderr: {stderr}");
        for flag in named {
            assert!(
                stderr.contains(flag),
                "{flags:?} must name {flag}: {stderr}"
            );
        }
        assert!(
            std::fs::read_dir(&dir).unwrap().next().is_none(),
            "{flags:?}: a refused invocation writes nothing"
        );
    }
}

#[test]
fn the_old_observe_flags_are_unknown() {
    for (flag, value) in [
        ("--trace", "t.jsonl"),
        ("--trace-format", "chrome"),
        ("--report", "out"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["--smoke", flag, value])
            .output()
            .expect("repro binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag}: stderr: {stderr}");
        assert!(
            stderr.contains(&format!("unknown flag '{flag}'")),
            "{stderr}"
        );
    }
}
