//! Flag-order tests for the `repro` binary: a knob must override the
//! preset whichever side of `--quick`/`--smoke` it is written on.

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
