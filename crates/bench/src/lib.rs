//! # mobile-bbr-bench
//!
//! The command-line front ends of the reproduction. Two binaries (host
//! time is measured by the standalone `benchmark/` package, not here):
//!
//! * **`repro`** — the one sweep front end. `--exp all` regenerates every
//!   figure and table of the paper
//!   (`cargo run --release -p mobile-bbr-bench --bin repro -- --exp all`):
//!   each experiment's measurement table and its shape-check scorecard,
//!   with Markdown/JSON/CSV artifacts for EXPERIMENTS.md. `--exp ablations`
//!   runs the six design-choice studies DESIGN.md §7 calls out (timer cost,
//!   socket-buffer cap, governor, AQM, competition, ACK frequency) the
//!   same way, one `--exp <name>` each. `--observe DIR` is its one observe
//!   mode: the canonical run's Chrome trace, flight data and HTML report,
//!   plus its event census, exact cycle ranking and per-connection table.
//! * **`simcheck`** — the deterministic scenario fuzzer: draws whole
//!   configurations, runs them through [`simcheck`]'s invariant-oracle
//!   library, shrinks failures to one-line repros, and (with the
//!   `simcheck-mutants` feature) proves each intentional mutation in
//!   `tcp_sim::mutants` is caught.

#![warn(missing_docs)]

pub mod cancel;
pub mod simcheck;

use experiments::Experiment;
use std::path::{Path, PathBuf};

/// 16 hex digits that `build.rs` hashes from the source of every crate a
/// sweep cell runs and the enabled features: the run cache's subdirectory.
const MODEL_FINGERPRINT: &str = env!("MODEL_FINGERPRINT");

/// The sweep-engine flags `repro` and `simcheck` share, as parsed by
/// [`sweep_flags`].
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct SweepFlags {
    /// `--jobs N` (at least 1).
    pub jobs: Option<usize>,
    /// `--progress`.
    pub progress: bool,
    /// `--no-cache`.
    pub no_cache: bool,
    /// `--cache-dir PATH`.
    pub cache_dir: Option<PathBuf>,
    /// `--max-inflight N` (0 = auto).
    pub max_inflight: usize,
    /// `--cancel-after N`.
    pub cancel_after: Option<u64>,
}

impl SweepFlags {
    /// The run cache these flags select: none under `--no-cache`, else
    /// `<--cache-dir or default>/<model fingerprint>/`. Cells that another
    /// build of the model wrote sit in another subdirectory and are never
    /// read; old subdirectories are safe to delete.
    pub fn resolve_cache(&self, default: Option<&Path>) -> Option<PathBuf> {
        let base = self.cache_dir.as_deref().or(default)?;
        (!self.no_cache).then(|| base.join(MODEL_FINGERPRINT))
    }
}

/// Move the sweep-engine flags (and their values) out of `argv`, leaving
/// what the calling binary must recognise itself.
pub fn sweep_flags(argv: &mut Vec<String>) -> Result<SweepFlags, String> {
    fn number<T: std::str::FromStr>(flag: &str, value: Option<String>) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        value
            .ok_or_else(|| format!("{flag} needs a value"))?
            .parse()
            .map_err(|e| format!("bad {flag}: {e}"))
    }
    let path = |flag: &str, value: Option<String>| {
        value
            .map(PathBuf::from)
            .ok_or_else(|| format!("{flag} needs a path"))
    };

    let mut flags = SweepFlags::default();
    let mut rest = Vec::with_capacity(argv.len());
    let mut args = std::mem::take(argv).into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--jobs" => {
                let n: usize = number(&arg, args.next())?;
                if n == 0 {
                    return Err("--jobs must be at least 1".into());
                }
                flags.jobs = Some(n);
            }
            "--progress" => flags.progress = true,
            "--no-cache" => flags.no_cache = true,
            "--cache-dir" => flags.cache_dir = Some(path(&arg, args.next())?),
            "--max-inflight" => flags.max_inflight = number(&arg, args.next())?,
            "--cancel-after" => flags.cancel_after = Some(number(&arg, args.next())?),
            _ => rest.push(arg),
        }
    }
    *argv = rest;
    Ok(flags)
}

/// What to tell the user after an interrupted sweep. Every cell it
/// finished is in the run cache, when there is one, so the same command
/// resumes where it stopped.
pub fn interrupt_hint(cache: Option<&Path>) -> String {
    match cache {
        Some(dir) => format!(
            "hint: rerun the same command to resume; finished cells are cached in {}",
            dir.display()
        ),
        None => "hint: rerun with `--cache-dir PATH` to make an interrupted run resumable".into(),
    }
}

/// Serialize experiments to a JSON document (for machine consumption).
pub fn to_json(experiments: &[Experiment]) -> String {
    serde_json::to_string_pretty(experiments).expect("experiments serialize")
}

#[cfg(test)]
mod tests {
    use super::*;
    use experiments::{ExperimentId, Params};

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn sweep_flags_are_taken_and_the_rest_left_in_order() {
        let mut args = argv(&[
            "--exp",
            "fig2",
            "--jobs",
            "4",
            "--quick",
            "--cache-dir",
            "d",
            "--json",
            "o",
        ]);
        let flags = sweep_flags(&mut args).expect("valid flags");
        assert_eq!(args, argv(&["--exp", "fig2", "--quick", "--json", "o"]));
        let want = SweepFlags {
            jobs: Some(4),
            cache_dir: Some("d".into()),
            ..SweepFlags::default()
        };
        assert_eq!(flags, want);

        let err = |args: &[&str]| sweep_flags(&mut argv(args)).unwrap_err();
        assert_eq!(err(&["--jobs"]), "--jobs needs a value");
        assert_eq!(err(&["--jobs", "0"]), "--jobs must be at least 1");
        assert!(err(&["--jobs", "x"]).starts_with("bad --jobs:"));
        assert_eq!(err(&["--cache-dir"]), "--cache-dir needs a path");
    }

    #[test]
    fn the_cache_is_the_chosen_directory_under_the_fingerprint() {
        let fingerprint = Path::new(MODEL_FINGERPRINT);
        assert_eq!(MODEL_FINGERPRINT.len(), 16);
        assert!(MODEL_FINGERPRINT.bytes().all(|b| b.is_ascii_hexdigit()));
        let default = Some(Path::new("t"));
        let flags = |args: &[&str]| sweep_flags(&mut argv(args)).expect("valid flags");
        assert_eq!(flags(&[]).resolve_cache(None), None);
        assert_eq!(
            flags(&[]).resolve_cache(default),
            Some(Path::new("t").join(fingerprint))
        );
        let explicit = flags(&["--cache-dir", "d"]);
        assert_eq!(
            explicit.resolve_cache(default),
            Some(Path::new("d").join(fingerprint))
        );
        assert_eq!(flags(&["--no-cache"]).resolve_cache(default), None);
        assert_eq!(
            flags(&["--cache-dir", "d", "--no-cache"]).resolve_cache(default),
            None
        );
    }

    #[test]
    fn render_pipeline_works() {
        let exp = ExperimentId::Fig9
            .run(&Params::smoke())
            .expect("fig9 completes");
        assert!(exp.render_text().contains("FIG9"));
        assert!(exp.render_markdown().contains("### FIG9"));
        let json = to_json(&[exp]);
        assert!(json.contains("\"id\""));
    }
}
