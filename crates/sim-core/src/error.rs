//! The workspace-wide error type.
//!
//! Every fallible public operation in the reproduction — config
//! validation, sweep checkpoint/cache I/O, interrupted sweeps, CLI
//! parsing — reports a variant of one [`Error`] enum instead of an ad-hoc
//! `String`. Library code returns [`Result`]; the binaries
//! convert to a process exit code in exactly one place, at the edge of
//! `main`, via [`Error::exit_code`].

use std::path::PathBuf;

/// Workspace-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;

/// Everything that can go wrong across the reproduction's public API.
#[derive(Debug)]
pub enum Error {
    /// A configuration failed validation (see `SimConfig::builder`).
    InvalidConfig {
        /// The offending field ("connections", "warmup", "pacing.stride"…).
        field: &'static str,
        /// Why the value was rejected, with the value included.
        reason: String,
    },
    /// An I/O operation failed (result files, traces, corpus, …).
    Io {
        /// What was being attempted ("write results.json", …).
        context: String,
        /// The underlying OS error.
        source: std::io::Error,
    },
    /// A sweep checkpoint could not be created, read, or appended.
    ///
    /// Note that a *corrupt* checkpoint is not an error: the loader keeps
    /// the valid prefix and the engine recomputes the rest (the same
    /// tolerance contract as the run cache). This variant is for hard
    /// failures like an unwritable path.
    Checkpoint {
        /// The checkpoint file involved.
        path: PathBuf,
        /// What went wrong.
        reason: String,
    },
    /// A sweep was cancelled (Ctrl-C, or the `cancel_after` test hook) before completing.
    ///
    /// In-flight cells were drained and the checkpoint (when configured)
    /// records every completed cell, so re-running with the same
    /// checkpoint resumes exactly where the sweep stopped.
    Interrupted {
        /// Cells fully completed and released before the stop.
        completed: u64,
        /// Cells the sweep was asked to run.
        total: u64,
    },
    /// A command-line invocation was malformed (usage error).
    Cli(String),
}

impl Error {
    /// Shorthand for [`Error::InvalidConfig`].
    pub fn invalid_config(field: &'static str, reason: impl Into<String>) -> Self {
        Error::InvalidConfig {
            field,
            reason: reason.into(),
        }
    }

    /// Shorthand for [`Error::Io`] with a human context string.
    pub fn io(context: impl Into<String>, source: std::io::Error) -> Self {
        Error::Io {
            context: context.into(),
            source,
        }
    }

    /// The process exit code a binary should use for this error.
    ///
    /// Usage errors (bad flags, invalid configs) exit 2; an interrupted
    /// sweep exits 130 (the shell convention for SIGINT, `128 + 2`);
    /// everything else exits 1. Binaries call this at the edge of `main`
    /// only — library code never calls `exit`.
    pub fn exit_code(&self) -> i32 {
        match self {
            Error::Cli(_) | Error::InvalidConfig { .. } => 2,
            Error::Interrupted { .. } => 130,
            Error::Io { .. } | Error::Checkpoint { .. } => 1,
        }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::InvalidConfig { field, reason } => {
                write!(f, "invalid config: {field}: {reason}")
            }
            Error::Io { context, source } => write!(f, "{context}: {source}"),
            Error::Checkpoint { path, reason } => {
                write!(f, "checkpoint {}: {reason}", path.display())
            }
            Error::Interrupted { completed, total } => {
                write!(
                    f,
                    "interrupted after {completed}/{total} cells (checkpointed work will be \
                     reused on resume)"
                )
            }
            Error::Cli(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_follow_the_edge_convention() {
        assert_eq!(Error::Cli("bad flag".into()).exit_code(), 2);
        assert_eq!(Error::invalid_config("connections", "zero").exit_code(), 2);
        assert_eq!(
            Error::Interrupted {
                completed: 2,
                total: 10
            }
            .exit_code(),
            130
        );
        assert_eq!(Error::io("x", std::io::Error::other("y")).exit_code(), 1);
    }

    #[test]
    fn display_includes_the_field_and_reason() {
        let e = Error::invalid_config("warmup", "warmup 5s >= duration 2s");
        let s = e.to_string();
        assert!(s.contains("warmup"), "{s}");
        assert!(s.contains("duration"), "{s}");
        let s = Error::Interrupted {
            completed: 7,
            total: 100,
        }
        .to_string();
        assert!(s.contains("7/100"), "{s}");
    }
}
