//! # sim-core
//!
//! The deterministic discrete-event simulation (DES) engine underneath the
//! `mobile-bbr` reproduction of *"Are Mobiles Ready for BBR?"* (IMC 2022).
//!
//! Everything in the reproduction — the mobile CPU model, the network links,
//! the TCP stack, the pacing timers — advances on a single logical clock
//! ([`SimTime`], nanosecond resolution) driven by an [`event::EventQueue`].
//! Determinism is a hard requirement: the paper's findings are statements
//! about *relative* performance across configurations, so every experiment
//! must be exactly reproducible from its seed. To that end:
//!
//! * time is integer nanoseconds (no floating-point clock drift);
//! * the event queue breaks ties by insertion sequence number, so two events
//!   scheduled for the same instant always pop in schedule order;
//! * randomness comes from [`rng::SimRng`], a splittable xoshiro256** PRNG
//!   with a documented, platform-independent bit stream.
//!
//! The companion modules provide the shared vocabulary of the workspace:
//! [`units`] (bandwidth and the byte↔time conversions every
//! pacing computation needs) and [`metrics`] (counters, time series, and
//! streaming summary statistics used by the iperf-style reports).
//!
//! Batch execution lives in [`sweep`]: a parallel, deterministic sweep
//! engine with a content-addressed run cache, used by the `repro` and
//! `simcheck` binaries to fan experiment cells and fuzz scenarios across
//! worker threads while staying bit-identical to a serial run. (The
//! fuzzer's oracles, shrinker and corpus live with it in the bench crate,
//! which can see the full simulator API.)
//!
//! Observability lives in [`trace`] (`sim-trace`) and [`telemetry`]:
//! `trace` is a flight recorder for *events* — ring buffers fed by
//! tracepoints in the hot paths, merged into a deterministic
//! [`trace::TraceLog`] and exported as Chrome/Perfetto trace events —
//! while `telemetry` is a strip chart for *state*, sampling per-flow
//! cwnd/rate/RTT and bottleneck queue depth at a fixed sim-time interval
//! for the `repro --observe` flight-data pipeline. Both cost one
//! branch per tracepoint until a buffer is attached at runtime, and neither
//! perturbs simulation results when enabled.

#![warn(missing_docs)]

pub mod checkpoint;
pub mod error;
pub mod event;
pub mod metrics;
pub mod rng;
pub mod sweep;
pub mod telemetry;
pub mod time;
pub mod trace;
pub mod units;

pub use error::{Error, Result};
pub use event::{EventQueue, ScheduledEvent, TimerToken};
pub use rng::SimRng;
pub use sweep::{run_sweep_streaming, CellReport, SweepCell, SweepOptions, SweepSummary};
pub use telemetry::{FlowSample, QueueSample, TelemetryLog, TelemetrySink};
pub use time::{SimDuration, SimTime};
pub use trace::{TraceBuffer, TraceKind, TraceLog, TraceRecord, TraceSink};
pub use units::Bandwidth;
