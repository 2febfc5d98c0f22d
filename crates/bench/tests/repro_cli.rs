//! Command-line tests for the `repro` binary: a knob must override the
//! preset whichever side of `--quick`/`--smoke` it is written on, a
//! hostile value is a usage error and never a panic, naming an experiment
//! twice selects it once, `--exp ablations` is a selection like
//! `--exp all` — same sweep, same sharing — `--observe` is the one
//! observe mode, and the run cache lives under the model's fingerprint.

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
fn observe_writes_three_files_and_prints_three_tables() {
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
    assert_eq!(files, ["flight.jsonl", "report.html", "trace.json"]);
    // The census, the cycle ranking, the per-connection table.
    assert!(stdout.contains(" dropped, "), "{stdout}");
    assert!(stdout.contains("  cpu_span\n"), "{stdout}");
    assert!(stdout.contains("Mcycles total):\n"), "{stdout}");
    assert!(stdout.contains("%  timers\n"), "{stdout}");
    assert!(stdout.contains(" conn      skbs     skb B"), "{stdout}");
    assert!(!stdout.contains("wheel_"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn side_modes_refuse_flags_they_would_ignore() {
    // `--observe` returns before any experiment runs; a flag that asks
    // for an artifact would be dropped silently.
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
            vec!["--markdown", &at("m"), "--csv", &at("c")],
            vec!["--markdown", "--csv"],
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

/// The cache directory holds one subdirectory per model fingerprint:
/// `--progress` names it, and a second run is served from it whole.
#[test]
fn the_cache_lives_under_the_printed_fingerprint() {
    let dir = std::env::temp_dir().join(format!("repro-cli-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let flags = ["--smoke", "--cache-dir", dir.to_str().unwrap()];
    let (cold, cold_err) = fig9("cache-cold", &flags);
    let (warm, warm_err) = fig9("cache-warm", &flags);
    assert_eq!(cold, warm, "a warm run reports the cold run's bytes");
    assert!(warm_err.contains("cache 8 hits / 0 misses"), "{warm_err}");
    // Pool misses count the simulations this process ran: some cold, none warm.
    assert!(!cold_err.contains("pool misses 0 total"), "{cold_err}");
    assert!(cold_err.contains("pool misses "), "{cold_err}");
    assert!(
        warm_err.contains("pool misses 0 total / 0 steady"),
        "{warm_err}"
    );

    let entries: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap())
        .collect();
    assert_eq!(entries.len(), 1, "one fingerprint, one subdirectory");
    let name = entries[0].file_name().into_string().unwrap();
    assert_eq!(name.len(), 16, "{name}");
    assert!(name.bytes().all(|b| b.is_ascii_hexdigit()), "{name}");
    let printed = format!("cache: {}\n", dir.join(&name).display());
    for stderr in [cold_err, warm_err] {
        assert_eq!(stderr.matches(&printed).count(), 1, "{stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A reader that stops after the first progress line, as in
/// `repro … 2>&1 >/dev/null | head -2`, must neither hang the parallel
/// sweep nor fail it: progress written to a closed stderr is dropped.
#[test]
fn progress_to_a_closed_stderr_neither_hangs_nor_fails() {
    use std::io::BufRead;
    use std::time::{Duration, Instant};
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--exp", "fig5", "--smoke", "--seeds", "3", "--no-cache"])
        .args(["--jobs", "2", "--progress"])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("repro binary runs");
    let mut first = String::new();
    std::io::BufReader::new(child.stderr.take().unwrap())
        .read_line(&mut first)
        .unwrap();
    assert!(first.contains("[1/"), "{first}");
    // The reader is gone: every later stderr write fails with EPIPE.
    let deadline = Instant::now() + Duration::from_secs(20);
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break status;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            panic!("repro still running 20 s after its stderr closed");
        }
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(status.success(), "{status}");
}
