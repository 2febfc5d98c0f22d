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

use experiments::{Experiment, Params};
use std::path::PathBuf;

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
    /// `--checkpoint PATH`.
    pub checkpoint: Option<PathBuf>,
    /// `--resume` (only ever set together with `checkpoint`).
    pub resume: bool,
    /// `--max-inflight N` (0 = auto).
    pub max_inflight: usize,
    /// `--cancel-after N`.
    pub cancel_after: Option<u64>,
}

impl SweepFlags {
    /// Lay the flags over a preset: a flag that was given overrides it.
    pub fn apply(self, params: &mut Params) {
        params.threads = self.jobs.unwrap_or(params.threads);
        if let Some(dir) = self.cache_dir {
            params.cache_dir = Some(dir);
        }
        if self.no_cache {
            params.cache_dir = None;
        }
        params.progress = self.progress;
        params.checkpoint = self.checkpoint;
        params.max_inflight = self.max_inflight;
        params.cancel_after = self.cancel_after;
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
            "--checkpoint" => flags.checkpoint = Some(path(&arg, args.next())?),
            "--resume" => flags.resume = true,
            "--max-inflight" => flags.max_inflight = number(&arg, args.next())?,
            "--cancel-after" => flags.cancel_after = Some(number(&arg, args.next())?),
            _ => rest.push(arg),
        }
    }
    if flags.resume && flags.checkpoint.is_none() {
        return Err("--resume requires --checkpoint PATH".into());
    }
    *argv = rest;
    Ok(flags)
}

/// Serialize experiments to a JSON document (for machine consumption).
pub fn to_json(experiments: &[Experiment]) -> String {
    serde_json::to_string_pretty(experiments).expect("experiments serialize")
}

#[cfg(test)]
mod tests {
    use super::*;
    use experiments::ExperimentId;

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
            "--checkpoint",
            "ck",
            "--resume",
            "--json",
            "o",
        ]);
        let flags = sweep_flags(&mut args).expect("valid flags");
        assert_eq!(args, argv(&["--exp", "fig2", "--quick", "--json", "o"]));
        let want = SweepFlags {
            jobs: Some(4),
            checkpoint: Some("ck".into()),
            resume: true,
            ..SweepFlags::default()
        };
        assert_eq!(flags, want);

        let err = |args: &[&str]| sweep_flags(&mut argv(args)).unwrap_err();
        assert_eq!(err(&["--jobs"]), "--jobs needs a value");
        assert_eq!(err(&["--jobs", "0"]), "--jobs must be at least 1");
        assert!(err(&["--jobs", "x"]).starts_with("bad --jobs:"));
        assert_eq!(err(&["--cache-dir"]), "--cache-dir needs a path");
        assert_eq!(err(&["--resume"]), "--resume requires --checkpoint PATH");
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
