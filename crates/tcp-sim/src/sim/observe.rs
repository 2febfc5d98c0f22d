//! The instrument surface: which observers ride along with a run
//! ([`Instruments`]), what they hand back ([`Observed`]), and the sampling
//! and trace-merge code behind them.
//!
//! The standing rule: turning an instrument on changes no result byte.
//! Tracing and pcap capture only record; telemetry is polled by the
//! dispatch loop against batch timestamps and never scheduled on the
//! wheel, so it cannot perturb event ordering or counters.

use super::path::bottleneck;
use super::results::SimResult;
use super::StackSim;
use congestion::CongestionControl;
use netsim::MSS;
use sim_core::telemetry::{FlowSample, QueueSample, TelemetryLog, TelemetrySink};
use sim_core::time::{SimDuration, SimTime};
use sim_core::trace::TraceLog;
use std::path::PathBuf;

/// The instruments to attach to one run ([`StackSim::run_observed`]).
/// The default attaches none.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Instruments {
    /// Flight-recorder tracing: the stack, the timer wheel and each CPU
    /// model get a [`sim_core::trace::DEFAULT_CAPACITY`]-record ring, and
    /// each CPU model runs a windowed cycle profiler
    /// ([`cpu_model::profile::DEFAULT_WINDOW`]).
    pub trace: bool,
    /// Flight-data telemetry: snapshot per-flow cwnd, inflight, pacing
    /// rate, srtt, delivery rate and CC phase plus the bottleneck queue at
    /// this sim-time interval (see [`sim_core::telemetry`]). The interval
    /// must be non-zero — a zero one would sample forever, and
    /// `run_observed` panics on it.
    pub telemetry: Option<SimDuration>,
    /// Packet capture: every simulated wire packet is written to this file
    /// as a synthesized Ethernet/IPv4/TCP frame (classic pcap; open it in
    /// Wireshark). Payload bytes are zero-filled — only headers carry
    /// simulation state. `run_observed` panics if the file cannot be
    /// created.
    pub pcap: Option<PathBuf>,
}

/// What an observed run returns: the result — byte-identical to
/// [`StackSim::run`]'s — and the log of each attached instrument.
pub struct Observed {
    /// The run's report.
    pub result: SimResult,
    /// The merged trace log (events from the timer wheel, the CPU models
    /// and the stack, plus the windowed cycle-profile counter series);
    /// `Some` exactly when [`Instruments::trace`] was set.
    pub trace: Option<TraceLog>,
    /// The flight data; `Some` exactly when [`Instruments::telemetry`]
    /// carried an interval.
    pub telemetry: Option<TelemetryLog>,
}

/// The telemetry sink plus what windowing the delivery-rate column needs.
pub(super) struct FlightSampler {
    pub(super) sink: TelemetrySink,
    interval: SimDuration,
    /// Per-flow cumulative delivered packets as of the previous sample.
    /// Empty while telemetry is off.
    prev_delivered: Vec<u64>,
}

impl FlightSampler {
    pub(super) const fn disabled() -> Self {
        FlightSampler {
            sink: TelemetrySink::disabled(),
            interval: SimDuration::ZERO,
            prev_delivered: Vec::new(),
        }
    }
}

impl StackSim {
    /// Attach the requested instruments (before the first event runs).
    pub(super) fn attach(&mut self, instruments: &Instruments) {
        if instruments.trace {
            let capacity = sim_core::trace::DEFAULT_CAPACITY;
            self.trace.enable(capacity);
            self.queue.set_tracer(capacity);
            for device in &mut self.devices {
                device.cpu.set_tracer(capacity);
                device
                    .cpu
                    .enable_profiler(cpu_model::profile::DEFAULT_WINDOW);
            }
        }
        if let Some(interval) = instruments.telemetry {
            let mut sink = TelemetrySink::disabled();
            sink.enable(interval, sim_core::telemetry::DEFAULT_MAX_SAMPLES);
            self.sampler = FlightSampler {
                sink,
                interval,
                prev_delivered: vec![0; self.arena.len()],
            };
        }
        if let Some(path) = &instruments.pcap {
            let file = std::fs::File::create(path).expect("create pcap file");
            self.pcap = Some(
                netsim::pcap::PcapWriter::new(std::io::BufWriter::new(file))
                    .expect("write pcap header"),
            );
        }
    }

    /// Snapshot every started flow and the bottleneck queue, stamped with
    /// the nominal instant `at`. Read-only with respect to simulation
    /// state (the `occupancy` call only prunes already-departed packets,
    /// which `send` would prune anyway).
    fn sample_telemetry(&mut self, at: SimTime) {
        let sampler = &mut self.sampler;
        for c in 0..self.arena.len() {
            if !self.arena.hot[c].started {
                continue;
            }
            let cc = &self.arena.cc[c];
            let delivered = self.arena.rate[c].delivered();
            let prev = std::mem::replace(&mut sampler.prev_delivered[c], delivered);
            let delta_pkts = delivered.saturating_sub(prev);
            sampler.sink.flow(FlowSample {
                at,
                conn: c as u32,
                cwnd: cc.cwnd().min(u32::MAX as u64) as u32,
                inflight: self.arena.board[c].packets_in_flight().min(u32::MAX as u64) as u32,
                pacing_rate_bps: cc.pacing_rate().map(|r| r.as_bps()).unwrap_or(0),
                srtt_us: self.arena.rtt[c].srtt().map(|d| d.as_micros()).unwrap_or(0),
                delivery_rate_bps: ((delta_pkts * MSS * 8) as f64 / sampler.interval.as_secs_f64())
                    as u64,
                phase: cc.phase(),
            });
        }
        let link = bottleneck(&mut self.shared_link, &mut self.devices);
        let depth = link.occupancy(at);
        sampler.sink.queue(QueueSample {
            at,
            depth_pkts: depth.min(u32::MAX as usize) as u32,
            dropped: link.stats().dropped,
        });
    }

    /// Emit any telemetry samples whose nominal instant is `<= upto`. The
    /// state observed is exactly the state at each nominal instant: no
    /// event fired between the previous batch and `upto`.
    #[inline]
    pub(super) fn pump_telemetry(&mut self, upto: SimTime) {
        while let Some(due) = self.sampler.sink.next_due() {
            if due > upto {
                break;
            }
            self.sample_telemetry(due);
            self.sampler.sink.advance();
        }
    }

    /// Drain the per-domain rings into one chronologically merged log.
    /// Buffer order (wheel, CPU, stack) is fixed — it is the deterministic
    /// tie-break for records carrying the same timestamp.
    pub(super) fn collect_trace(&mut self) -> TraceLog {
        let mut buffers = Vec::new();
        buffers.extend(self.queue.take_tracer());
        for device in &mut self.devices {
            buffers.extend(device.cpu.take_tracer());
        }
        buffers.extend(self.trace.take());
        let mut log = TraceLog::merge(buffers);
        for device in &mut self.devices {
            if let Some(profile) = device.cpu.take_profile() {
                log.counters.extend(profile.to_series());
            }
        }
        log
    }
}
