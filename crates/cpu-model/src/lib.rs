//! # cpu-model
//!
//! A cycle-accounting model of a mobile phone CPU, standing in for the
//! Pixel 4 / Pixel 6 silicon of *"Are Mobiles Ready for BBR?"* (IMC 2022).
//!
//! The paper's central observation is that TCP's internal packet pacing is
//! *computationally* expensive: every paced socket-buffer send arms an
//! hrtimer whose expiration reschedules the socket, and on a 576 MHz LITTLE
//! core those per-send overheads eat the cycle budget that would otherwise
//! move bytes. Reproducing that requires a CPU model in which:
//!
//! * every networking-stack operation has a **cycle cost** ([`CostModel`]);
//! * operations **serialise** on the core that runs the network softirq
//!   ([`Cpu::execute_tagged`] returns the *completion time* of each operation,
//!   queueing behind whatever the core is already doing);
//! * the core's **frequency** is set by a configuration: fixed (the paper's
//!   userspace-governor Low/Mid/High configurations) or dynamic (the
//!   schedutil-style Default governor), over a BIG.LITTLE topology.
//!
//! [`configs`] reproduces Table 1 of the paper: Low-End (576 MHz Pixel 4 /
//! 300 MHz Pixel 6, LITTLE cores), Mid-End (1.2 GHz, LITTLE), High-End
//! (2.8 GHz, BIG), and Default (dynamic scaling).
//!
//! ## Modelling scope
//!
//! The model is deliberately one core deep: Linux processes a socket's
//! transmit path and softirq work on a single CPU at a time (and Android
//! routes network IRQs to the LITTLE cluster for energy), so the relevant
//! resource is "cycles per second available to the stack", not core count.
//! Cache effects, thermal throttling, and scheduler preemption are folded
//! into the calibrated cycle costs.
//!
//! For traced runs, [`profile`] buckets executed cycles per utilization
//! window and per cost category — the simulated analogue of the paper's
//! Fig. 4/5 `perf` profiles.

#![warn(missing_docs)]

pub mod configs;
pub mod cost;
pub mod cpu;
pub mod governor;
pub mod profile;

pub use configs::{CpuConfig, DeviceKind, DeviceProfile};
pub use cost::CostModel;
pub use cpu::{Cpu, CpuStats};
pub use governor::{ClusterKind, CoreCluster, CpuTopology, GovernorPolicy};
pub use profile::{CpuProfile, CpuProfiler, ProfileRow};
