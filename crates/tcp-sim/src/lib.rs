//! # tcp-sim
//!
//! A userspace, segment-granularity TCP stack plus the discrete-event
//! simulation that runs it on a modelled mobile phone — the core substrate
//! of the *"Are Mobiles Ready for BBR?"* (IMC 2022) reproduction.
//!
//! The stack mirrors the structure of the Linux sender the paper measures:
//!
//! * [`seq`] — sequence-number types (monotonic bookkeeping + 32-bit wire
//!   arithmetic);
//! * [`rtt`] — RFC 6298 SRTT/RTO estimation with Linux clamps;
//! * [`rate`] — delivery-rate sampling after `tcp_rate.c` (BBR's input);
//! * [`pacing`] — TCP-internal pacing: Eq. (1) `idle = len/rate`, the
//!   paper's Eq. (2) stride, and `tcp_tso_autosize` buffer sizing;
//! * [`sender`] — the scoreboard: SACK processing, RACK + dup-threshold
//!   loss detection, retransmission planning, Karn-compliant RTT samples;
//! * [`receiver`] — the server side: reorder tracking, cumulative + SACK
//!   acknowledgement generation, GRO-style coalescing urgency;
//! * [`wire`] — Ethernet/IPv4/TCP wire codecs (checksums, SACK options)
//!   backing the pcap export;
//! * `pool` (crate-private) — free-list buffer pools, slot stores and the
//!   two fixed-block segment slabs keeping the per-segment hot path
//!   allocation-free;
//! * [`arena`] — the struct-of-arrays flow-state arena: all per-connection
//!   state in dense parallel arrays indexed by [`arena::FlowId`];
//! * [`fleet`] — fleet mode: heterogeneous multi-device populations whose
//!   uplinks compete through one shared bottleneck, plus the fleet-level
//!   metrics (per-tier distributions, per-CC fairness, pacing-penalty
//!   fraction) the population question needs;
//! * [`mutants`] — intentional single-line behaviour mutations (feature
//!   `simcheck-mutants`) that the simcheck fuzzer's oracles must catch;
//! * [`config`] — [`SimConfig`] and its validating builder;
//! * [`sim`] — the event loop that binds the stack to the
//!   [`cpu_model::Cpu`] (every operation costs cycles and serialises) and
//!   to [`netsim`]'s bottleneck path, and reports goodput/RTT/retransmit
//!   statistics per run. One private sub-module per layer the benchmark
//!   prices: `sim` itself is dispatch (construction, the event loop,
//!   per-event routing); `sim::host` is a device (CPU + path) and the
//!   phone-side stack on it (transmit path, RTO, ACK processing,
//!   auto-stride); `sim::path` is the hop walk with every drop tally;
//!   `sim::peer` is the server's receive side and ACK emission;
//!   `sim::results` assembles [`SimResult`]; `sim::observe` is the
//!   instrument surface ([`Instruments`] in, [`Observed`] out).
//!
//! Granularity: one simulated packet = one MSS (1448 bytes of payload).
//! Socket buffers (skbs) are runs of whole packets, so Table 2's buffer
//! lengths are quantised to MSS multiples — documented in DESIGN.md.

#![warn(missing_docs)]

pub mod arena;
pub mod config;
pub mod fleet;
pub mod mutants;
pub mod pacing;
mod pool;
pub mod rate;
pub mod receiver;
pub mod rtt;
pub mod sender;
pub mod seq;
pub mod sim;
pub mod wire;

pub use arena::{FlowArena, FlowId};
pub use config::{SimConfig, SimConfigBuilder};
pub use fleet::{DeviceSpec, FleetConfig, FleetResult};
pub use pacing::{Pacer, PacingConfig};
pub use sim::{ConnStats, Instruments, Observed, SimResult, StackSim};
