//! # iperf
//!
//! The measurement harness of the reproduction: an iPerf3-like bulk-upload
//! workload runner over [`tcp_sim::StackSim`].
//!
//! The paper's §3.2 protocol: "Every iPerf3 result that we present is
//! averaged over at least 10 experiment runs where iPerf3 sends data for
//! 5 minutes." Simulated time is cheap but not free; the equivalent here is
//! a list of seeds over a shorter steady-state window (slow start excluded
//! via the warmup cutoff), aggregated into a [`report::RunReport`] with
//! mean ± standard deviation. Determinism means a report is exactly
//! reproducible from its seed list. Only a config with a random source
//! varies by seed; one without is simulated once and its seeds are copies
//! (see [`sweep`]).

#![warn(missing_docs)]

pub mod report;
pub mod runner;
pub mod sweep;

pub use report::{RunReport, SeedResult};
pub use runner::{run_averaged, RunSpec};
pub use sweep::{run_specs_sweep, SeedCell};
