//! The end-to-end simulation: N TCP connections uploading from a modelled
//! phone, through a bottleneck path, to an ideal server — the paper's
//! Figure 1 testbed as a discrete-event program.
//!
//! The event flow mirrors the Linux transmit path the paper instruments:
//!
//! 1. **Send** — the socket is processed (by the ACK clock, a device
//!    completion, or a **PacingTimer** expiration, which costs
//!    [`cpu_model::CostModel::timer_fire`] cycles). A socket buffer is
//!    sized by TSO autosizing, charged to the CPU, split into wire packets,
//!    and offered to the netem stage + the bottleneck queue. If pacing is
//!    on, Eq. (1)×stride idle time is computed and the next send is
//!    scheduled as a timer event (arming charged
//!    [`cpu_model::CostModel::timer_arm`]).
//! 2. **SkbArrival** — the (GRO-aggregated) buffer reaches the server;
//!    the receiver classifies it and either ACKs immediately (holes) or
//!    within the coalescing window.
//! 3. **AckArrival** — the ACK returns over the reverse path; the phone
//!    charges ACK processing plus the CC's model cost, updates the
//!    scoreboard, feeds the congestion controller, re-arms the RTO, and
//!    tries to send again.
//!
//! Every CPU charge serialises on [`cpu_model::Cpu`], which is the entire
//! mechanism behind the paper's findings: on a 576 MHz core with twenty
//! paced flows the timer-fire + small-buffer costs exceed the cycle budget
//! and goodput collapses, while the same workload at 2.8 GHz runs at line
//! rate.
//!
//! This module is dispatch — [`StackSim`], its construction, the event
//! loop and per-event routing; the crate docs map the `host`, `path`,
//! `peer`, `results` and `observe` sub-modules beside it.

mod host;
mod observe;
mod path;
mod peer;
mod results;

pub use crate::config::SimConfig;
pub use observe::{Instruments, Observed};
pub use results::{ConnStats, SimResult};

use crate::arena::FlowArena;
use crate::pool::{SlotStore, VecPool};
use crate::receiver::AckInfo;
use crate::sender::SendPlan;
use crate::seq::PktSeq;
use congestion::master::Master;
use cpu_model::Cpu;
use host::{Device, StrideController, ADAPT_EPOCH};
use netsim::link::BottleneckLink;
use netsim::MSS;
use observe::FlightSampler;
use path::Path;
use results::{HotCounters, MeasureBaseline};
use sim_core::event::EventQueue;
use sim_core::rng::SimRng;
use sim_core::time::{SimDuration, SimTime};
use sim_core::trace::TraceSink;
use std::sync::Arc;

/// Events are deliberately small: a timer-wheel cell moves every time a
/// slot cascades, so fat payloads (multi-run lists, SACK vectors) ride in
/// [`SlotStore`]s as `u32` ids and only the id crosses the wheel. A
/// one-run skb needs no payload at all: its range fits in the event, as
/// the kernel keeps `seq/end_seq` in the skb's control block.
enum Event {
    Start(u32),
    /// A pacing timer expired.
    PacingTimer(u32),
    /// A socket buffer cleared the CPU/device path (TSQ completion).
    DeviceDone {
        conn: u32,
        bytes: u64,
    },
    /// §7.1.2 auto-stride controller epoch (host-global, like the sysctl
    /// the paper's kernel patch would expose).
    AdaptStride,
    /// A background cross-traffic packet reaches the bottleneck.
    CrossArrival,
    /// Periodic timeline sample (iPerf3-style per-interval reporting).
    StatsSample,
    /// An skb whose accepted packets form one run, `lo..lo + pkts`.
    SkbArrival {
        conn: u32,
        lo: PktSeq,
        pkts: u32,
    },
    /// An skb whose accepted packets form several runs (a drop inside the
    /// skb, or a retransmission plan that spans holes).
    SkbRunsArrival {
        conn: u32,
        /// Run-list slot id ([`StackSim::run_slots`]).
        runs: u32,
    },
    EmitAck {
        conn: u32,
    },
    AckArrival {
        conn: u32,
        cum: PktSeq,
        /// SACK-vector slot id ([`StackSim::sack_slots`]).
        sacks: u32,
    },
    RtoFire(u32),
    /// Frequency-governor epoch for one device's CPU (one tick stream per
    /// dynamic-governor device in the fleet).
    GovernorTick {
        dev: u32,
    },
    MeasureStart,
}

// A wheel cell moves its event on every cascade, so the event stays three
// words: the widest variants hold a `PktSeq` and two `u32`s.
const _: () = assert!(std::mem::size_of::<Event>() == 24);

/// The simulation engine.
///
/// Per-connection state lives in a [`FlowArena`] — dense parallel arrays
/// indexed by connection id (see `crate::arena` for the layout contract).
///
/// ```
/// use congestion::CcKind;
/// use cpu_model::{CpuConfig, DeviceProfile};
/// use sim_core::time::SimDuration;
/// use tcp_sim::{SimConfig, StackSim};
///
/// let cfg = SimConfig::builder(DeviceProfile::pixel4(), CpuConfig::LowEnd, CcKind::Bbr, 2)
///     .duration(SimDuration::from_millis(400))
///     .warmup(SimDuration::from_millis(150))
///     .build()
///     .expect("valid config");
/// let result = StackSim::new(cfg).run();
/// assert!(result.goodput_mbps() > 0.0);
/// ```
pub struct StackSim {
    cfg: Arc<SimConfig>,
    queue: EventQueue<Event>,
    /// The device table, indexed by device id.
    devices: Vec<Device>,
    /// Connection id → device id; all-zeros without a fleet, so the
    /// indexing compiles to the historical single-device behaviour
    /// bit-for-bit.
    device_of: Vec<u32>,
    /// The fleet's common bottleneck; every device's accepted uplink
    /// packet is offered here at its access-link arrival instant.
    shared_link: Option<BottleneckLink>,
    arena: FlowArena,
    tallies: HotCounters,
    end: SimTime,
    cross: Option<netsim::crosstraffic::CrossTraffic>,
    timeline: Vec<(SimTime, u64)>,
    // Hot-path buffer recycling: multi-run lists ride `SkbRunsArrival`,
    // SACK vectors ride `AckArrival` — as slot ids, with the buffers
    // parked in the slot stores — and one scratch plan serves every
    // `try_send`. Together with the slab-backed event queue this keeps the
    // send/ack path off the allocator once the pools are warm.
    run_pool: VecPool<(PktSeq, PktSeq)>,
    sack_pool: VecPool<(PktSeq, PktSeq)>,
    run_slots: SlotStore<(PktSeq, PktSeq)>,
    sack_slots: SlotStore<(PktSeq, PktSeq)>,
    plan_scratch: SendPlan,
    /// Scratch buffer for coalesced same-timestamp ACK runs: the dispatch
    /// loop collects consecutive `AckArrival`s for one connection here and
    /// drains it in a single stack pass.
    ack_batch: Vec<AckInfo>,
    stride: StrideController,
    // sim-trace: the stack's own tracepoint sink (the CPU models carry
    // their own; `collect_trace` merges them).
    trace: TraceSink,
    sampler: FlightSampler,
    baseline: MeasureBaseline,
    /// Set at `MeasureStart`, the same instant for every flow: RTT samples
    /// are recorded only from then on.
    measuring: bool,
}

impl StackSim {
    /// Build a simulation from its configuration.
    pub fn new(cfg: SimConfig) -> Self {
        Self::from_arc(Arc::new(cfg))
    }

    /// Build a simulation from a shared configuration without copying it.
    ///
    /// Sweep drivers hold one config per cell; sharing it into the
    /// simulator avoids a deep `SimConfig` clone (frequency ladders, netem
    /// tables, …) per seed.
    pub fn from_arc(cfg: Arc<SimConfig>) -> Self {
        assert!(cfg.connections >= 1, "need at least one connection");
        assert!(cfg.warmup < cfg.duration, "warmup must precede the end");
        let rng = SimRng::new(cfg.seed);

        // Device table: one row per `DeviceSpec` in fleet mode, one row
        // synthesized from the top-level config otherwise.
        let n_devices = cfg.fleet.as_ref().map_or(1, |f| f.devices.len());
        let mut devices = Vec::with_capacity(n_devices);
        let mut device_of = Vec::with_capacity(cfg.connections);
        for d in 0..n_devices {
            let (cpu_config, path, conns) = match &cfg.fleet {
                Some(fleet) => {
                    let spec = &fleet.devices[d];
                    let mut path = spec.media.path_config();
                    // RTT-unfairness axis: extra propagation on the
                    // device's private forward link.
                    path.forward.propagation += spec.extra_rtt;
                    (spec.cpu, path, spec.connections)
                }
                None => (cfg.cpu_config, cfg.path.clone(), cfg.connections),
            };
            devices.push(Device {
                cpu: Cpu::new(cfg.device.topology.clone(), cfg.device.policy(cpu_config)),
                path: Path::new(path, &rng, d as u64),
            });
            device_of.extend(std::iter::repeat_n(d as u32, conns));
        }
        assert_eq!(
            device_of.len(),
            cfg.connections,
            "fleet device connections must sum to cfg.connections"
        );

        let arena = FlowArena::new(cfg.connections, MSS, cfg.pacing, |i| {
            let kind = match &cfg.fleet {
                Some(fleet) => fleet.devices[device_of[i] as usize].cc,
                None => cfg.cc,
            };
            Master::new(kind.build_for_flow(MSS, i), cfg.master)
        });

        StackSim {
            end: SimTime::ZERO + cfg.duration,
            devices,
            device_of,
            shared_link: cfg
                .fleet
                .as_ref()
                .and_then(|f| f.shared.clone())
                .map(BottleneckLink::new),
            queue: EventQueue::new(),
            arena,
            tallies: HotCounters::default(),
            stride: StrideController::new(),
            trace: TraceSink::disabled(),
            sampler: FlightSampler::disabled(),
            baseline: MeasureBaseline::default(),
            measuring: false,
            timeline: Vec::new(),
            run_pool: VecPool::new(),
            ack_batch: Vec::new(),
            sack_pool: VecPool::new(),
            run_slots: SlotStore::new(),
            sack_slots: SlotStore::new(),
            plan_scratch: SendPlan::default(),
            cross: cfg
                .cross_traffic
                .map(|c| netsim::crosstraffic::CrossTraffic::new(c, rng.split(4))),
            cfg,
        }
    }

    /// Run to completion and report.
    pub fn run(self) -> SimResult {
        self.run_observed(Instruments::default()).result
    }

    /// Run to completion with `instruments` attached, returning the result
    /// and each instrument's log. Instruments only observe: the
    /// [`SimResult`] is byte-identical to [`StackSim::run`]'s whichever
    /// are on.
    pub fn run_observed(mut self, instruments: Instruments) -> Observed {
        self.attach(&instruments);
        self.run_to_end();
        let trace = instruments.trace.then(|| self.collect_trace());
        let telemetry = self.sampler.sink.take();
        Observed {
            result: self.finish(),
            trace,
            telemetry,
        }
    }

    fn run_to_end(&mut self) {
        for c in 0..self.arena.len() {
            let at = SimTime::ZERO + self.cfg.start_stagger * c as u64;
            self.queue.schedule_at(at, Event::Start(c as u32));
        }
        self.queue
            .schedule_at(SimTime::ZERO + self.cfg.warmup, Event::MeasureStart);
        for (d, device) in self.devices.iter().enumerate() {
            if device.cpu.is_dynamic() {
                self.queue.schedule_at(
                    SimTime::ZERO + SimDuration::from_millis(10),
                    Event::GovernorTick { dev: d as u32 },
                );
            }
        }
        if let Some(cross) = &self.cross {
            self.queue
                .schedule_at(cross.next_arrival(), Event::CrossArrival);
        }
        if let Some(interval) = self.cfg.sample_interval {
            self.queue
                .schedule_at(SimTime::ZERO + interval, Event::StatsSample);
        }

        // Batched dispatch: pop whole same-timestamp runs off the wheel
        // (one occupancy scan per run instead of per event), and coalesce
        // consecutive ACK arrivals for one connection into a single stack
        // pass. The run's head is delivered by the pop itself (singleton
        // runs — the common shape — never touch the staging buffer); tail
        // events stay staged and cancellable, so a handler cancelling a
        // same-timestamp timer (delayed-ACK vs. data arrival) behaves
        // exactly as under one-at-a-time `pop`.
        while let Some(first) = self.queue.pop_run_first() {
            let at = first.at;
            if at > self.end {
                break;
            }
            if self.sampler.sink.is_enabled() {
                // Sample every nominal instant up to (and including) this
                // batch's timestamp *before* its events run: the state seen
                // is the state at those instants, since nothing fired in
                // between.
                self.pump_telemetry(at);
            }
            self.dispatch(at, first.event);
            while let Some(ev) = self.queue.run_next() {
                self.dispatch(at, ev.event);
            }
        }
        if self.sampler.sink.is_enabled() {
            // Fill the tail: instants between the last dispatched batch and
            // the end of the run (including a possibly event-free tail).
            let end = self.end;
            self.pump_telemetry(end);
        }
    }

    /// Dispatch one event of the current same-timestamp run, coalescing a
    /// streak of consecutive same-connection [`Event::AckArrival`]s (staged
    /// behind it in the run) into a single stack pass.
    ///
    /// Semantically identical to dispatching each `AckArrival` separately:
    /// every ACK still pays its own CPU charges (the simcheck accounting
    /// identities see the same per-ACK costs), drives the CC callbacks in
    /// order, and is followed by its own send attempt — only the event-loop
    /// overhead (wheel re-scan, dispatch, scratch hand-off) is paid once per
    /// run instead of once per ACK.
    #[inline]
    fn dispatch(&mut self, at: SimTime, ev: Event) {
        match ev {
            Event::AckArrival { conn, cum, sacks } => {
                let mut batch = std::mem::take(&mut self.ack_batch);
                batch.push(AckInfo {
                    cum,
                    sacks: self.sack_slots.unstash(sacks),
                });
                // `AckArrival`s are never cancelled, so consuming the
                // run's consecutive same-connection ACKs up front is
                // observationally identical to dispatching them one
                // at a time (nothing can fire between them).
                while matches!(
                    self.queue.run_peek(),
                    Some(Event::AckArrival { conn: c2, .. }) if *c2 == conn
                ) {
                    match self.queue.run_next().map(|e| e.event) {
                        Some(Event::AckArrival { cum, sacks, .. }) => batch.push(AckInfo {
                            cum,
                            sacks: self.sack_slots.unstash(sacks),
                        }),
                        _ => unreachable!("run_peek promised an AckArrival"),
                    }
                }
                for ack in batch.drain(..) {
                    self.on_ack_arrival(conn as usize, at, ack);
                }
                self.ack_batch = batch;
            }
            event => self.handle(at, event),
        }
    }

    fn handle(&mut self, now: SimTime, ev: Event) {
        match ev {
            Event::Start(c) => {
                let c = c as usize;
                self.arena.hot[c].started = true;
                if self.cfg.pacing.auto_stride && self.arena.paces(c) && !self.stride.armed {
                    self.stride.armed = true;
                    self.queue
                        .schedule_at(now + ADAPT_EPOCH, Event::AdaptStride);
                }
                self.try_send(c, now, false);
            }
            Event::PacingTimer(conn) => {
                let conn = conn as usize;
                self.arena.hot[conn].pacing_timer_armed = false;
                self.try_send(conn, now, true);
            }
            Event::DeviceDone { conn, bytes } => {
                let conn = conn as usize;
                let hot = &mut self.arena.hot[conn];
                hot.device_chunks = hot.device_chunks.saturating_sub(1);
                hot.device_bytes = hot.device_bytes.saturating_sub(bytes);
                self.try_send(conn, now, false);
            }
            Event::AdaptStride => self.adapt_stride(now),
            Event::StatsSample => {
                let delivered: u64 = self.arena.rate.iter().map(|r| r.delivered()).sum();
                self.timeline.push((now, delivered));
                if let Some(interval) = self.cfg.sample_interval {
                    self.queue.schedule_at(now + interval, Event::StatsSample);
                }
            }
            Event::CrossArrival => self.on_cross_arrival(now),
            Event::SkbArrival { conn, lo, pkts } => {
                let hi = lo.advance(u64::from(pkts));
                self.on_skb_arrival(conn as usize, now, &[(lo, hi)]);
            }
            Event::SkbRunsArrival { conn, runs } => {
                let runs = self.run_slots.unstash(runs);
                self.on_skb_arrival(conn as usize, now, &runs);
                self.run_pool.put(runs);
            }
            Event::EmitAck { conn } => {
                let conn = conn as usize;
                self.arena.hot[conn].ack_timer = None;
                self.emit_ack(conn, now);
            }
            Event::AckArrival { .. } => unreachable!("dispatch coalesces ACK arrivals"),
            Event::RtoFire(conn) => self.on_rto(conn as usize, now),
            Event::GovernorTick { dev } => {
                if let Some(next) = self.devices[dev as usize].cpu.governor_tick(now) {
                    self.queue.schedule_at(next, Event::GovernorTick { dev });
                }
            }
            Event::MeasureStart => self.start_measuring(),
        }
    }
}

#[cfg(test)]
mod tests;
