//! The end-to-end simulation: N TCP connections uploading from a modelled
//! phone, through a bottleneck path, to an ideal server — the paper's
//! Figure 1 testbed as a discrete-event program.
//!
//! The event flow mirrors the Linux transmit path the paper instruments:
//!
//! 1. **SendReady** — the socket is processed (by the ACK clock, or by a
//!    pacing-timer expiration, which costs [`CostModel::timer_fire`]
//!    cycles). A socket buffer is sized by TSO autosizing, charged to the
//!    CPU, split into wire packets, and offered to the netem stage + the
//!    bottleneck queue. If pacing is on, Eq. (1)×stride idle time is
//!    computed and the next SendReady is scheduled as a *timer* event
//!    (arming charged [`CostModel::timer_arm`]).
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

use crate::arena::{CcCache, FlowArena, FlowHot};
use crate::fleet::{DeviceOutcome, FleetConfig, FleetResult};
use crate::mutants::{self, Mutant};
use crate::pacing::{Pacer, PacingConfig, GSO_MAX_BYTES};
use crate::pool::{SlotStore, VecPool};
use crate::receiver::{AckInfo, AckUrgency};
use crate::rtt::RttEstimator;
use crate::sender::SendPlan;
use crate::seq::PktSeq;
use congestion::master::{Master, MasterConfig};
use congestion::{bbr::HIGH_GAIN, AckSample, CcKind, CongestionControl, LossEvent};
use cpu_model::{CostModel, Cpu, CpuConfig, CpuStats, DeviceProfile};
use netsim::link::{BottleneckLink, SendOutcome};
use netsim::media::PathConfig;
use netsim::netem::{Netem, NetemVerdict};
use netsim::{wire_bytes, MSS};
use serde::Serialize;
use sim_core::event::EventQueue;
use sim_core::metrics::{Counters, Histogram, Summary};
use sim_core::rng::SimRng;
use sim_core::telemetry::{FlowSample, QueueSample, TelemetryLog, TelemetrySink};
use sim_core::time::{SimDuration, SimTime};
use sim_core::trace::{TraceKind, TraceLog, TraceSink};
use sim_core::units::Bandwidth;
use std::collections::BTreeMap;

/// Auto-stride controller epoch (§7.1.2 extension).
const ADAPT_EPOCH: SimDuration = SimDuration::from_millis(300);

/// Full configuration of one simulation run.
///
/// Derives `Serialize` so the sweep engine can build a canonical,
/// content-addressed cache key from the whole configuration (see
/// `sim_core::sweep`).
#[derive(Debug, Clone, Serialize)]
pub struct SimConfig {
    /// The phone being modelled.
    pub device: DeviceProfile,
    /// Which Table 1 CPU configuration to apply.
    pub cpu_config: CpuConfig,
    /// Stack operation costs.
    pub cost: CostModel,
    /// The network path (medium, queue depth, impairments).
    pub path: PathConfig,
    /// Congestion-control algorithm.
    pub cc: CcKind,
    /// Master-module knobs (§5), default pass-through.
    pub master: MasterConfig,
    /// Pacing configuration (stride, buffer cap).
    pub pacing: PacingConfig,
    /// Number of parallel connections (the paper sweeps 1–20).
    pub connections: usize,
    /// Total simulated duration.
    pub duration: SimDuration,
    /// Goodput measurement starts here (slow-start warmup excluded), as in
    /// steady-state iPerf reporting.
    pub warmup: SimDuration,
    /// RNG seed (netem draws, WiFi variation).
    pub seed: u64,
    /// Stagger between connection starts.
    pub start_stagger: SimDuration,
    /// Server-side ACK coalescing window (GRO).
    pub ack_coalesce: SimDuration,
    /// Optional pcap capture of every simulated wire packet (synthesized
    /// Ethernet/IPv4/TCP frames; open the result in Wireshark). Payload
    /// bytes are zero-filled — only headers carry simulation state.
    pub pcap: Option<std::path::PathBuf>,
    /// Optional Poisson cross-traffic sharing the uplink bottleneck
    /// (competition ablations; the paper's testbed itself is private).
    pub cross_traffic: Option<netsim::crosstraffic::CrossTrafficConfig>,
    /// Interval for the goodput timeline (iPerf3's per-interval lines);
    /// `None` disables timeline collection.
    pub sample_interval: Option<SimDuration>,
    /// Flight-data telemetry sampling interval; `None` (the default)
    /// disables sampling. When set, the run snapshots per-flow cwnd,
    /// inflight, pacing rate, srtt, delivery rate, and CC phase plus the
    /// bottleneck queue at this sim-time interval
    /// (see [`sim_core::telemetry`]); retrieve the log with
    /// [`StackSim::run_with_telemetry`]. Sampling observes state without
    /// scheduling events, so the [`SimResult`] is byte-identical with it on
    /// or off — but, like `pcap`, a telemetry-carrying config is a
    /// side-effectful run and is never sweep-cached.
    pub telemetry: Option<SimDuration>,
    /// ACK generation granularity: `None` models a GRO-coalescing server
    /// (one ACK per aggregated buffer — modern reality); `Some(n)` acks
    /// every `n` segments (classic delayed-ACK behaviour), multiplying the
    /// phone's per-ACK CPU load — the ack-frequency ablation's knob.
    pub ack_per_segs: Option<u64>,
    /// Fleet mode (`None` = the classic single-device testbed). When set,
    /// each [`crate::fleet::DeviceSpec`] brings its own CPU tier, CC, and
    /// access path; `connections` must equal the fleet's total and the
    /// top-level `cpu_config`/`cc`/`path` serve only as the non-fleet
    /// defaults. Skipped in serialization when absent so every existing
    /// single-device sweep-cache key keeps its exact bytes.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub fleet: Option<FleetConfig>,
}

/// Per-connection results.
#[derive(Debug, Clone, Serialize)]
pub struct ConnStats {
    /// Packets delivered during the measurement window.
    pub delivered_pkts: u64,
    /// Goodput over the measurement window.
    pub goodput: Bandwidth,
    /// Retransmitted packets (whole run).
    pub retx_pkts: u64,
    /// Mean of TCP's RTT samples (measurement window).
    pub rtt_mean_ms: f64,
    /// 95th-percentile RTT.
    pub rtt_p95_ms: f64,
    /// Socket buffers sent (whole run).
    pub skbs_sent: u64,
    /// Mean socket-buffer length, bytes (Table 2's "Skbuff Len").
    pub mean_skb_bytes: f64,
    /// Mean pacing idle time, ms (Table 2's "Idle Time"); 0 if unpaced.
    pub mean_idle_ms: f64,
    /// Final smoothed RTT, ms.
    pub srtt_ms: f64,
}

/// Aggregate results of one run.
#[derive(Debug, Clone, Serialize)]
pub struct SimResult {
    /// Sum of per-connection goodputs over the measurement window.
    pub total_goodput: Bandwidth,
    /// Mean RTT across all samples in the window.
    pub mean_rtt_ms: f64,
    /// 95th-percentile RTT across connections (mean of per-conn p95s).
    pub p95_rtt_ms: f64,
    /// Total retransmissions (whole run) — §5.2.3's metric.
    pub total_retx: u64,
    /// Per-connection detail.
    pub per_conn: Vec<ConnStats>,
    /// CPU statistics.
    pub cpu: CpuStats,
    /// Mean skb length across connections, bytes.
    pub mean_skb_bytes: f64,
    /// Mean pacing idle across connections, ms.
    pub mean_idle_ms: f64,
    /// Event counters (timer fires, drops, …).
    pub counters: Counters,
    /// Jain fairness index of per-connection goodput.
    pub fairness: f64,
    /// Peak memory-footprint proxy summed over connections, bytes
    /// (scoreboard + device backlog; §7.1.1's RAM question).
    pub peak_mem_bytes: u64,
    /// Per-interval goodput timeline `(seconds, Mbps)` — iPerf3's
    /// per-interval lines (empty if sampling was disabled).
    pub timeline: Vec<(f64, f64)>,
    /// Fleet-level metrics (`Some` exactly when the run carried a
    /// [`SimConfig::fleet`]); skipped in serialization when absent so
    /// single-device scorecards keep their exact bytes.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub fleet: Option<FleetResult>,
}

impl SimResult {
    /// Goodput in Mbps, the unit every figure uses.
    pub fn goodput_mbps(&self) -> f64 {
        self.total_goodput.as_mbps_f64()
    }
}

/// Events are deliberately small: a timer-wheel cell moves every time a
/// slot cascades, so fat payloads (run lists, SACK vectors) ride in
/// [`SlotStore`]s as `u32` ids and only the id crosses the wheel.
enum Event {
    Start(u32),
    SendReady {
        conn: u32,
        from_timer: bool,
    },
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
    SkbArrival {
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
    RtoFire {
        conn: u32,
        epoch: u64,
    },
    /// Frequency-governor epoch for one device's CPU (one tick stream per
    /// dynamic-governor device in the fleet).
    GovernorTick {
        dev: u32,
    },
    MeasureStart,
}

/// Hot-path event tallies, kept as plain fields and folded into the
/// [`Counters`] map once at the end of the run: a B-tree lookup per
/// packet was a measurable slice of the per-event budget at 1000 flows.
///
/// Flushing preserves the exact key-existence semantics of the previous
/// per-event `inc`/`add` calls: a key appears in the final map iff the
/// corresponding call would have happened at least once.
#[derive(Default)]
struct HotCounters {
    timer_fires: u64,
    timer_arms: u64,
    retx_pkts: u64,
    skbs_sent: u64,
    pkts_sent: u64,
    netem_drops: u64,
    queue_drops: u64,
    acks_emitted: u64,
    sack_incoherent: u64,
    ack_drops: u64,
    acks_processed: u64,
    recovery_entries: u64,
    recovery_exits: u64,
    rto_fires: u64,
    rto_marked_lost: u64,
    cross_pkts: u64,
    cross_drops: u64,
    stride_adaptations: u64,
    stride_reverts: u64,
    shared_pkts: u64,
    shared_drops: u64,
    aqm_drops: u64,
}

impl HotCounters {
    fn flush(&self, counters: &mut Counters) {
        let mut put = |name: &'static str, v: u64| {
            if v > 0 {
                counters.add(name, v);
            }
        };
        put("timer_fires", self.timer_fires);
        put("timer_arms", self.timer_arms);
        put("retx_pkts", self.retx_pkts);
        put("skbs_sent", self.skbs_sent);
        put("pkts_sent", self.pkts_sent);
        put("netem_drops", self.netem_drops);
        put("queue_drops", self.queue_drops);
        put("acks_emitted", self.acks_emitted);
        put("sack_incoherent", self.sack_incoherent);
        put("ack_drops", self.ack_drops);
        put("acks_processed", self.acks_processed);
        put("recovery_entries", self.recovery_entries);
        put("recovery_exits", self.recovery_exits);
        put("rto_fires", self.rto_fires);
        put("cross_pkts", self.cross_pkts);
        put("cross_drops", self.cross_drops);
        put("stride_adaptations", self.stride_adaptations);
        put("stride_reverts", self.stride_reverts);
        put("shared_pkts", self.shared_pkts);
        put("shared_drops", self.shared_drops);
        put("aqm_drops", self.aqm_drops);
        // `rto_marked_lost` was `add`ed once per RTO fire, possibly with
        // zero — so its key exists exactly when any RTO fired.
        if self.rto_fires > 0 {
            counters.add("rto_marked_lost", self.rto_marked_lost);
        }
    }
}

/// The effective pacing rate for a connection: the CC's rate, else
/// TCP's internal fallback `1.2 × mss·cwnd/srtt` (§5.2.2), else the
/// pre-RTT bootstrap (`init_cwnd/1 ms`, as the kernel does).
fn effective_pacing_rate(cache: &CcCache, rtt: &RttEstimator, pacer: &Pacer) -> Bandwidth {
    if let Some(rate) = cache.pacing_rate {
        return rate;
    }
    if let Some(srtt) = rtt.srtt() {
        let fb = pacer.fallback_rate(cache.cwnd, srtt);
        if !fb.is_zero() {
            return fb;
        }
    }
    Bandwidth::from_bytes_over(cache.cwnd * MSS, SimDuration::from_millis(1)).mul_f64(HIGH_GAIN)
}

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
    cfg: std::sync::Arc<SimConfig>,
    queue: EventQueue<Event>,
    // Per-device state, indexed by device id (one entry each in the
    // classic single-device mode, one per `DeviceSpec` in fleet mode).
    // `device_of` maps connection id → device id; it is all-zeros without
    // a fleet, so the indexing compiles to the historical single-device
    // behaviour bit-for-bit.
    cpus: Vec<Cpu>,
    fwd_netems: Vec<Netem>,
    fwd_links: Vec<BottleneckLink>,
    rev_netems: Vec<Netem>,
    rev_links: Vec<BottleneckLink>,
    device_of: Vec<u32>,
    /// The fleet's common bottleneck; every device's accepted uplink
    /// packet is offered here at its access-link arrival instant.
    shared_link: Option<BottleneckLink>,
    arena: FlowArena,
    tallies: HotCounters,
    end: SimTime,
    pcap: Option<netsim::pcap::PcapWriter<std::io::BufWriter<std::fs::File>>>,
    cross: Option<netsim::crosstraffic::CrossTraffic>,
    timeline: Vec<(SimTime, u64)>,
    // Hot-path buffer recycling: run lists ride `SkbArrival`, SACK vectors
    // ride `AckArrival` — as slot ids, with the buffers parked in the slot
    // stores — and one scratch plan serves every `try_send`. Together with
    // the slab-backed event queue this keeps the steady-state send/ack
    // path off the allocator entirely.
    run_pool: VecPool<(PktSeq, PktSeq)>,
    sack_pool: VecPool<(PktSeq, PktSeq)>,
    run_slots: SlotStore<(PktSeq, PktSeq)>,
    sack_slots: SlotStore<(PktSeq, PktSeq)>,
    plan_scratch: SendPlan,
    /// Scratch buffer for coalesced same-timestamp ACK runs: the dispatch
    /// loop collects consecutive `AckArrival`s for one connection here and
    /// [`StackSim::on_ack_run`] drains it in a single stack pass.
    ack_batch: Vec<AckInfo>,
    // §7.1.2 host-global auto-stride controller.
    adapt_epochs: u32,
    adapt_prev_busy: SimDuration,
    adapt_prev_delivered: u64,
    adapt_cooldown: u32,
    adapt_hold: u32,
    adapt_pending_eval: bool,
    adapt_pre_change_rate: f64,
    adapt_pre_change_stride: u64,
    adapt_ceiling: u64,
    adapt_floor: u64,
    adapt_armed: bool,
    // sim-trace: the stack's own tracepoint sink (the timer wheel and the
    // CPU model carry their own; `collect_trace` merges all three).
    trace: TraceSink,
    // Flight-data telemetry: fixed-interval state sampling, polled by the
    // dispatch loop (never scheduled on the wheel, so enabling it cannot
    // perturb event ordering or counters).
    telemetry: TelemetrySink,
    // Per-flow cumulative delivered packets as of the previous telemetry
    // sample, for the windowed delivery-rate column. Empty when telemetry
    // is off.
    telemetry_prev_delivered: Vec<u64>,
    // MeasureStart snapshots for steady-state attribution: cycle and
    // pool-miss totals as of the end of warmup, so `finish` can report
    // measurement-window deltas.
    measure_cycles: BTreeMap<&'static str, u64>,
    measure_cycles_total: u64,
    measure_run_misses: u64,
    measure_sack_misses: u64,
    measure_slab_misses: u64,
}

impl StackSim {
    /// Build a simulation from its configuration.
    pub fn new(cfg: SimConfig) -> Self {
        Self::from_arc(std::sync::Arc::new(cfg))
    }

    /// Build a simulation from a shared configuration without copying it.
    ///
    /// Sweep drivers hold one config per cell; sharing it into the
    /// simulator avoids a deep `SimConfig` clone (frequency ladders, netem
    /// tables, …) per seed.
    pub fn from_arc(cfg: std::sync::Arc<SimConfig>) -> Self {
        assert!(cfg.connections >= 1, "need at least one connection");
        assert!(cfg.warmup < cfg.duration, "warmup must precede the end");
        let rng = SimRng::new(cfg.seed);

        // Device table: one row per `DeviceSpec` in fleet mode, one row
        // synthesized from the top-level config otherwise. RNG streams are
        // per-device at `split(1 + 4d)`/`(2 + 4d)`/`(3 + 4d)` — device 0
        // draws from exactly the historical splits 1/2/3, and no device
        // ever collides with cross-traffic's `split(4)` (4d+{1,2,3} is
        // never ≡ 0 mod 4).
        let n_devices = cfg.fleet.as_ref().map_or(1, |f| f.devices.len());
        let mut cpus = Vec::with_capacity(n_devices);
        let mut fwd_netems = Vec::with_capacity(n_devices);
        let mut fwd_links = Vec::with_capacity(n_devices);
        let mut rev_netems = Vec::with_capacity(n_devices);
        let mut rev_links = Vec::with_capacity(n_devices);
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
            let d64 = d as u64;
            fwd_links.push(match &path.forward_var {
                Some(var) => BottleneckLink::with_variable_rate(
                    path.forward.clone(),
                    var.clone(),
                    rng.split(1 + 4 * d64),
                ),
                None => BottleneckLink::new(path.forward.clone()),
            });
            fwd_netems.push(Netem::new(
                path.forward_netem.clone(),
                rng.split(2 + 4 * d64),
            ));
            rev_netems.push(Netem::new(
                path.reverse_netem.clone(),
                rng.split(3 + 4 * d64),
            ));
            rev_links.push(BottleneckLink::new(path.reverse.clone()));
            cpus.push(Cpu::new(
                cfg.device.topology.clone(),
                cfg.device.policy(cpu_config),
            ));
            device_of.extend(std::iter::repeat_n(d as u32, conns));
        }
        assert_eq!(
            device_of.len(),
            cfg.connections,
            "fleet device connections must sum to cfg.connections"
        );
        let shared_link = cfg
            .fleet
            .as_ref()
            .and_then(|f| f.shared.clone())
            .map(BottleneckLink::new);

        let arena = FlowArena::new(cfg.connections, MSS, cfg.pacing, |i| {
            let kind = match &cfg.fleet {
                Some(fleet) => fleet.devices[device_of[i] as usize].cc,
                None => cfg.cc,
            };
            Master::new(kind.build_for_flow(MSS, i), cfg.master)
        });

        let mut telemetry = TelemetrySink::disabled();
        let mut telemetry_prev_delivered = Vec::new();
        if let Some(interval) = cfg.telemetry {
            telemetry.enable(interval, sim_core::telemetry::DEFAULT_MAX_SAMPLES);
            telemetry_prev_delivered = vec![0u64; cfg.connections];
        }

        StackSim {
            end: SimTime::ZERO + cfg.duration,
            fwd_netems,
            rev_netems,
            fwd_links,
            rev_links,
            device_of,
            shared_link,
            queue: EventQueue::new(),
            cpus,
            arena,
            tallies: HotCounters::default(),
            adapt_epochs: 0,
            adapt_prev_busy: SimDuration::ZERO,
            adapt_prev_delivered: 0,
            adapt_cooldown: 0,
            adapt_hold: 0,
            adapt_pending_eval: false,
            adapt_pre_change_rate: 0.0,
            adapt_pre_change_stride: 1,
            adapt_ceiling: 64,
            adapt_floor: 1,
            adapt_armed: false,
            trace: TraceSink::disabled(),
            telemetry,
            telemetry_prev_delivered,
            measure_cycles: BTreeMap::new(),
            measure_cycles_total: 0,
            measure_run_misses: 0,
            measure_sack_misses: 0,
            measure_slab_misses: 0,
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
            pcap: cfg.pcap.as_ref().map(|path| {
                let file = std::fs::File::create(path).expect("create pcap file");
                netsim::pcap::PcapWriter::new(std::io::BufWriter::new(file))
                    .expect("write pcap header")
            }),
            cfg,
        }
    }

    /// Turn on flight-recorder tracing: the stack, the timer wheel and the
    /// CPU model each get a fixed-capacity ring of `capacity` records, and
    /// the CPU model starts a windowed cycle profiler
    /// ([`cpu_model::profile::DEFAULT_WINDOW`]).
    ///
    /// Tracing never changes simulation behaviour — a traced run produces a
    /// bit-identical [`SimResult`] to an untraced one.
    pub fn enable_tracing(&mut self, capacity: usize) {
        self.trace.enable(capacity);
        self.queue.set_tracer(capacity);
        for cpu in &mut self.cpus {
            cpu.set_tracer(capacity);
            cpu.enable_profiler(cpu_model::profile::DEFAULT_WINDOW);
        }
    }

    /// Run to completion and report.
    pub fn run(mut self) -> SimResult {
        self.run_to_end();
        self.finish()
    }

    /// Run to completion with tracing enabled, returning both the result
    /// and the merged trace log (events from the timer wheel, the CPU
    /// model and the stack, plus the windowed cycle-profile counter
    /// series).
    ///
    /// Enables tracing at [`sim_core::trace::DEFAULT_CAPACITY`] unless
    /// [`StackSim::enable_tracing`] was already called with a custom
    /// capacity.
    pub fn run_traced(mut self) -> (SimResult, TraceLog) {
        if !self.trace.is_enabled() {
            self.enable_tracing(sim_core::trace::DEFAULT_CAPACITY);
        }
        self.run_to_end();
        let log = self.collect_trace();
        (self.finish(), log)
    }

    /// Run to completion, returning the result and the flight-data
    /// telemetry collected along the way.
    ///
    /// Sampling is configured by [`SimConfig::telemetry`]; the log is empty
    /// (`None`) when the config carries no interval. The [`SimResult`] is
    /// byte-identical to [`StackSim::run`]'s — sampling only observes.
    pub fn run_with_telemetry(mut self) -> (SimResult, Option<TelemetryLog>) {
        self.run_to_end();
        let log = self.telemetry.take();
        (self.finish(), log)
    }

    /// Snapshot every started flow and the bottleneck queue, stamped with
    /// the nominal instant `at`. Read-only with respect to simulation
    /// state (the `occupancy` call only prunes already-departed packets,
    /// which `send` would prune anyway).
    fn sample_telemetry(&mut self, at: SimTime) {
        for c in 0..self.arena.len() {
            if !self.arena.hot[c].started {
                continue;
            }
            let cache = &self.arena.cc_cache[c];
            let delivered = self.arena.rate[c].delivered();
            let prev = std::mem::replace(&mut self.telemetry_prev_delivered[c], delivered);
            let delta_pkts = delivered.saturating_sub(prev);
            let delivery_rate_bps = match self.cfg.telemetry {
                Some(interval) if !interval.is_zero() => {
                    (delta_pkts * MSS * 8) as f64 / interval.as_secs_f64()
                }
                _ => 0.0,
            } as u64;
            self.telemetry.flow(FlowSample {
                at,
                conn: c as u32,
                cwnd: cache.cwnd.min(u32::MAX as u64) as u32,
                inflight: self.arena.board[c].packets_in_flight().min(u32::MAX as u64) as u32,
                pacing_rate_bps: cache.pacing_rate.map(|r| r.as_bps()).unwrap_or(0),
                srtt_us: self.arena.rtt[c].srtt().map(|d| d.as_micros()).unwrap_or(0),
                delivery_rate_bps,
                phase: self.arena.cc[c].phase(),
            });
        }
        // Queue telemetry watches the binding constraint: the shared
        // bottleneck in fleet mode, device 0's uplink otherwise.
        let link = match self.shared_link.as_mut() {
            Some(shared) => shared,
            None => &mut self.fwd_links[0],
        };
        let depth = link.occupancy(at);
        self.telemetry.queue(QueueSample {
            at,
            depth_pkts: depth.min(u32::MAX as usize) as u32,
            dropped: link.stats().dropped,
        });
    }

    /// Emit any telemetry samples whose nominal instant is `<= upto`. The
    /// state observed is exactly the state at each nominal instant: no
    /// event fired between the previous batch and `upto`.
    #[inline]
    fn pump_telemetry(&mut self, upto: SimTime) {
        while let Some(due) = self.telemetry.next_due() {
            if due > upto {
                break;
            }
            self.sample_telemetry(due);
            self.telemetry.advance();
        }
    }

    /// Drain the per-domain rings into one chronologically merged log.
    /// Buffer order (wheel, CPU, stack) is fixed — it is the deterministic
    /// tie-break for records carrying the same timestamp.
    fn collect_trace(&mut self) -> TraceLog {
        let mut buffers = Vec::new();
        if let Some(b) = self.queue.take_tracer() {
            buffers.push(b);
        }
        for cpu in &mut self.cpus {
            if let Some(b) = cpu.take_tracer() {
                buffers.push(b);
            }
        }
        if let Some(b) = self.trace.take() {
            buffers.push(b);
        }
        let mut log = TraceLog::merge(buffers);
        for cpu in &mut self.cpus {
            if let Some(profile) = cpu.take_profile() {
                log.counters.extend(profile.to_series());
            }
        }
        log
    }

    fn run_to_end(&mut self) {
        for c in 0..self.arena.len() {
            let at = SimTime::ZERO + self.cfg.start_stagger * c as u64;
            self.queue.schedule_at(at, Event::Start(c as u32));
        }
        self.queue
            .schedule_at(SimTime::ZERO + self.cfg.warmup, Event::MeasureStart);
        for d in 0..self.cpus.len() {
            if self.cpus[d].is_dynamic() {
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
            if self.telemetry.is_enabled() {
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
        if self.telemetry.is_enabled() {
            // Fill the tail: instants between the last dispatched batch and
            // the end of the run (including a possibly event-free tail).
            let end = self.end;
            self.pump_telemetry(end);
        }
    }

    /// Dispatch one event of the current same-timestamp run, coalescing a
    /// streak of consecutive same-connection [`Event::AckArrival`]s (staged
    /// behind it in the run) into a single [`StackSim::on_ack_run`] pass.
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
                self.on_ack_run(conn as usize, at, &mut batch);
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
                if self.cfg.pacing.auto_stride
                    && self.arena.cc_cache[c].wants_pacing
                    && !self.adapt_armed
                {
                    self.adapt_armed = true;
                    self.queue
                        .schedule_at(now + ADAPT_EPOCH, Event::AdaptStride);
                }
                self.try_send(c, now, false);
            }
            Event::SendReady { conn, from_timer } => {
                let conn = conn as usize;
                if from_timer {
                    self.arena.hot[conn].pacing_timer_armed = false;
                } else {
                    self.arena.hot[conn].send_scheduled = false;
                }
                self.try_send(conn, now, from_timer);
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
            Event::CrossArrival => {
                let cross = self.cross.as_mut().expect("cross event without source");
                let bytes = cross.pkt_bytes();
                cross.pop();
                // Open-loop: offered straight to the bottleneck queue (the
                // shared link in fleet mode — cross traffic competes where
                // the fleet competes); drops are the queue's business.
                let link = match self.shared_link.as_mut() {
                    Some(shared) => shared,
                    None => &mut self.fwd_links[0],
                };
                // Cross traffic is one aggregate flow; u64::MAX keeps its
                // FQ-CoDel bucket clear of any connection's (conn ids are
                // dense from 0).
                match link.send_flow(now, bytes, u64::MAX) {
                    SendOutcome::Dropped { aqm } => {
                        self.tallies.cross_drops += 1;
                        if aqm && !mutants::is(Mutant::AqmDropMiscount) {
                            self.tallies.aqm_drops += 1;
                        }
                    }
                    SendOutcome::Accepted { .. } => {
                        self.tallies.cross_pkts += 1;
                    }
                }
                let next = self.cross.as_ref().expect("still present").next_arrival();
                self.queue.schedule_at(next.max(now), Event::CrossArrival);
            }
            Event::SkbArrival { conn, runs } => {
                let runs = self.run_slots.unstash(runs);
                self.on_skb_arrival(conn as usize, now, runs)
            }
            Event::EmitAck { conn } => {
                let conn = conn as usize;
                self.arena.hot[conn].ack_timer = None;
                self.emit_ack(conn, now);
            }
            Event::AckArrival { conn, cum, sacks } => {
                let ack = AckInfo {
                    cum,
                    sacks: self.sack_slots.unstash(sacks),
                };
                self.on_ack_arrival(conn as usize, now, ack)
            }
            Event::RtoFire { conn, epoch } => self.on_rto(conn as usize, now, epoch),
            Event::GovernorTick { dev } => {
                if let Some(next) = self.cpus[dev as usize].governor_tick(now) {
                    self.queue.schedule_at(next, Event::GovernorTick { dev });
                }
            }
            Event::MeasureStart => {
                for i in 0..self.arena.len() {
                    self.arena.cold[i].delivered_at_measure = self.arena.rate[i].delivered();
                    self.arena.hot[i].measuring = true;
                    self.arena.cold[i].rtt_summary = Summary::new();
                    self.arena.cold[i].rtt_hist = Histogram::new();
                }
                // Steady-state attribution baseline: everything charged or
                // missed after this point is measurement-window work
                // (summed over all device CPUs in fleet mode).
                self.measure_cycles = Self::cycles_by_category_all(&self.cpus);
                self.measure_cycles_total = self.cpus.iter().map(Cpu::total_cycles).sum();
                self.measure_run_misses = self.run_pool.misses();
                self.measure_sack_misses = self.sack_pool.misses();
                self.measure_slab_misses = self.arena.store.misses();
            }
        }
    }

    fn try_send(&mut self, c: usize, now: SimTime, from_timer: bool) {
        let dev = self.device_of[c] as usize;
        // Timer expiration costs CPU whether or not data flows (§6.1: the
        // callbacks "continually reschedule connections to be processed").
        let mut pre_cycles = 0u64;
        if from_timer {
            // Mutant M1: the fire is counted but its cycles are never
            // charged — the exact cost the paper's finding rests on.
            // Breaks `cycles[timers] == fires·c_fire + arms·c_arm`.
            if !mutants::is(Mutant::SkipTimerFireCharge) {
                pre_cycles += self.cfg.cost.timer_fire;
            }
            self.tallies.timer_fires += 1;
            self.trace
                .record(now, TraceKind::PacingFire, c as u32, 0, 0);
        }

        if !self.arena.hot[c].started {
            return;
        }
        // TSQ: at most 2 buffers per socket in the device path; the
        // DeviceDone completion re-enters this function.
        if self.arena.hot[c].device_chunks >= 2 {
            if pre_cycles > 0 {
                self.cpus[dev].execute_tagged(now, pre_cycles, "timers");
            }
            return;
        }
        let pacing = self.arena.cc_cache[c].wants_pacing;
        let rate = effective_pacing_rate(
            &self.arena.cc_cache[c],
            &self.arena.rtt[c],
            &self.arena.pacer[c],
        );

        // Between pacing periods the gate must be open before anything
        // can happen; the new period itself is only *opened* (EDT clock
        // advanced, budget granted) once we know a send will occur, so a
        // cwnd-blocked wakeup never wastes a period.
        //
        // Eligibility is computed branchlessly (bitwise `&` over pure
        // predicates, no short-circuit jumps): this gate runs once per ACK
        // and once per timer fire, and its three inputs are near-free loads,
        // so one well-predicted test beats three data-dependent branches.
        let gate_closed =
            pacing & (self.arena.hot[c].burst_remaining == 0) & !self.arena.pacer[c].can_send(now);
        if gate_closed {
            if pre_cycles > 0 {
                self.cpus[dev].execute_tagged(now, pre_cycles, "timers");
            }
            if !self.arena.hot[c].pacing_timer_armed {
                self.arena.hot[c].pacing_timer_armed = true;
                let at = self.arena.pacer[c].next_release().max(now);
                self.trace
                    .record(now, TraceKind::TimerArm, c as u32, at.as_nanos(), 0);
                self.queue.schedule_at(
                    at,
                    Event::SendReady {
                        conn: c as u32,
                        from_timer: true,
                    },
                );
            }
            return;
        }

        // One autosized chunk per invocation; a strided burst continues via
        // a chained event so concurrent flows contend for the CPU between
        // chunks (as softirq round-robins sockets on a real phone).
        let max_pkts = if pacing {
            let budget = if self.arena.hot[c].burst_remaining > 0 {
                self.arena.hot[c].burst_remaining
            } else {
                self.arena.pacer[c].burst_segs(rate)
            };
            self.arena.pacer[c].autosize_segs(rate).min(budget)
        } else {
            (GSO_MAX_BYTES / MSS).max(1)
        };
        let cwnd = self.arena.cc_cache[c].cwnd;
        // One scratch plan serves every send: take it out of `self` (so the
        // arena borrows stay disjoint) and put it back on every exit.
        let mut plan = std::mem::take(&mut self.plan_scratch);
        if !self.arena.board[c].plan_send_into(cwnd, max_pkts, &mut plan) {
            // cwnd-limited (or nothing to retransmit): the ACK clock will
            // wake us. Spurious timer fires still cost cycles.
            self.plan_scratch = plan;
            if pre_cycles > 0 {
                self.cpus[dev].execute_tagged(now, pre_cycles, "timers");
            }
            return;
        }

        if pacing && self.arena.hot[c].burst_remaining == 0 {
            // Open the new pacing period: grant the stride x autosize
            // budget ("more data per pacing period", Sec. 6.2). The EDT
            // gate advances per actual chunk sent, below; if the socket-
            // buffer cap cut the budget, the idle residue is charged now
            // (Eq. 2's full idle applies even to a capped period).
            self.arena.hot[c].burst_remaining = self.arena.pacer[c].burst_segs(rate);
            self.arena.pacer[c].charge_cap_deficit(now, rate);
            pre_cycles += self.cfg.cost.timer_arm;
            self.tallies.timer_arms += 1;
            // Table 2 statistics: finalise the previous period's buffer.
            let cold = &mut self.arena.cold[c];
            if cold.cur_period_bytes > 0 {
                cold.period_bytes_sum += cold.cur_period_bytes;
                cold.period_count += 1;
                cold.cur_period_bytes = 0;
            }
        }

        let pkts = plan.packets();
        let bytes = pkts * MSS;
        // Mutant M3: retransmissions silently missing from the counter,
        // which then diverges from the scoreboard's own `total_retx`.
        if plan.is_retx && !mutants::is(Mutant::SkipRetxCount) {
            self.tallies.retx_pkts += pkts;
        }
        // A send released after the pacer's gate drained the whole flight:
        // the delivery-rate sample bridging that gap measures our own
        // (possibly strided) pacer, not the path.
        let pacing_limited =
            pacing & (self.arena.pacer[c].stride() > 1) & (self.arena.board[c].packets_out() == 0);

        // Charge the CPU by category so reports can show where the cycles
        // went (the whole chunk still serialises as one back-to-back span).
        if pre_cycles > 0 {
            self.cpus[dev].execute_tagged(now, pre_cycles, "timers");
        }
        if plan.is_retx {
            self.cpus[dev].execute_tagged(now, self.cfg.cost.retransmit_fixed, "retransmit");
        }
        self.cpus[dev].execute_tagged(now, self.cfg.cost.skb_xmit_fixed, "skb-fixed");
        let done = self.cpus[dev].execute_tagged(now, self.cfg.cost.per_byte * bytes, "bytes");

        // TCP stamps the segment when it is *built* (`tcp_transmit_skb`),
        // before the copy/checksum/driver work completes: a backlogged CPU
        // therefore inflates the RTT TCP measures, which is exactly the
        // Table 2 effect (3.7 ms at 1x falling to ~1.1 ms at good strides).
        self.arena.board[c].on_sent(
            &mut self.arena.store,
            &mut self.arena.rate[c],
            &plan,
            now,
            pacing_limited,
        );
        {
            let cold = &mut self.arena.cold[c];
            cold.skb_bytes_sum += bytes;
            cold.skb_count += 1;
            cold.cur_period_bytes += bytes;
        }
        if pacing {
            // Advance the EDT gate by the bytes actually sent (Eq. 1 x
            // Eq. 2): a cwnd-clipped chunk charges only its own length.
            self.arena.pacer[c].on_send(now, bytes, rate);
            self.arena.hot[c].burst_remaining =
                self.arena.hot[c].burst_remaining.saturating_sub(pkts);
        }
        self.tallies.skbs_sent += 1;
        self.tallies.pkts_sent += pkts;
        let tx_kind = if plan.is_retx {
            TraceKind::SegRetx
        } else {
            TraceKind::SegTx
        };
        self.trace.record(now, tx_kind, c as u32, pkts, bytes);

        // Wire transmission: the CPU prepares the whole buffer (charged
        // above), then the NIC/adapter bursts its packets at line rate —
        // which is exactly what floods a shallow droptail queue (§5.2.3).
        // Each MSS packet passes netem and the bottleneck individually.
        // GRO at the server aggregates the chunk into one delivery event
        // at its last packet's arrival.
        let mut accepted_runs = self.run_pool.take();
        let mut last_arrival = SimTime::ZERO;
        let mut accepted_pkts = 0u64;
        for &(lo, hi) in &plan.runs {
            for seq in lo.0..hi.0 {
                let wire = wire_bytes(MSS);
                let release = match self.fwd_netems[dev].process(done, wire) {
                    NetemVerdict::Drop => {
                        self.tallies.netem_drops += 1;
                        continue;
                    }
                    NetemVerdict::Pass { release } => release,
                };
                match self.fwd_links[dev].send_flow(release, wire, c as u64) {
                    SendOutcome::Dropped { aqm } => {
                        self.tallies.queue_drops += 1;
                        // Mutant M7: the stack-side AQM tally "forgets"
                        // CoDel/FQ-CoDel drops; the aqm-accounting oracle
                        // compares against LinkStats::aqm_drops ground
                        // truth and must notice.
                        if aqm && !mutants::is(Mutant::AqmDropMiscount) {
                            self.tallies.aqm_drops += 1;
                        }
                    }
                    SendOutcome::Accepted { arrival, .. } => {
                        // Fleet mode: the access-link egress feeds the
                        // shared bottleneck, admission stamped at the
                        // access arrival instant. A shared-queue drop
                        // loses the packet exactly like an access drop.
                        let arrival = match self.shared_link.as_mut() {
                            Some(shared) => {
                                // Mutant M5: every 64th packet teleports
                                // past the shared bottleneck — no
                                // serialisation, no queueing, no drop
                                // accounting. Fleet throughput can then
                                // exceed the shared capacity, which the
                                // fleet-conservation oracle must flag.
                                if mutants::is(Mutant::FleetSharedBypass)
                                    && mutants::bypass_this_shared_pkt()
                                {
                                    arrival
                                } else {
                                    match shared.send_flow(arrival, wire, c as u64) {
                                        SendOutcome::Dropped { aqm } => {
                                            self.tallies.shared_drops += 1;
                                            if aqm && !mutants::is(Mutant::AqmDropMiscount) {
                                                self.tallies.aqm_drops += 1;
                                            }
                                            continue;
                                        }
                                        SendOutcome::Accepted { arrival, .. } => {
                                            self.tallies.shared_pkts += 1;
                                            arrival
                                        }
                                    }
                                }
                            }
                            None => arrival,
                        };
                        last_arrival = last_arrival.max(arrival);
                        accepted_pkts += 1;
                        match accepted_runs.last_mut() {
                            Some((_, h)) if h.0 == seq => *h = PktSeq(seq + 1),
                            _ => accepted_runs.push((PktSeq(seq), PktSeq(seq + 1))),
                        }
                        if let Some(pcap) = self.pcap.as_mut() {
                            Self::capture_data(pcap, c, done, PktSeq(seq));
                        }
                    }
                }
            }
        }
        if accepted_runs.is_empty() {
            self.run_pool.put(accepted_runs);
        } else {
            let runs = self.run_slots.stash(accepted_runs);
            self.queue.schedule_at(
                last_arrival,
                Event::SkbArrival {
                    conn: c as u32,
                    runs,
                },
            );
        }
        self.plan_scratch = plan;

        self.arena.hot[c].accepted_pkts += accepted_pkts;
        // Arm/refresh the RTO.
        if !self.arena.hot[c].rto_armed {
            Self::arm_rto(
                &mut self.queue,
                &mut self.arena.hot[c],
                &self.arena.rtt[c],
                c,
                done,
            );
        }

        // The buffer occupies the device path until `done`; its completion
        // (TSQ) drives burst continuation and unpaced window draining.
        self.arena.hot[c].device_chunks += 1;
        self.arena.hot[c].device_bytes += bytes;
        self.queue.schedule_at(
            done,
            Event::DeviceDone {
                conn: c as u32,
                bytes,
            },
        );
        // §7.1.1 memory proxy: retransmission scoreboard + device backlog.
        let mem = self.arena.board[c].packets_out() * MSS + self.arena.hot[c].device_bytes;
        let hot = &mut self.arena.hot[c];
        hot.mem_peak_bytes = hot.mem_peak_bytes.max(mem);

        if pacing && hot.burst_remaining == 0 && !hot.pacing_timer_armed {
            hot.pacing_timer_armed = true;
            // Mutant M4: every 64th arm is silently lost — the flow
            // believes a timer is pending but none ever fires (the
            // lost-wakeup bug class; only the ACK clock can revive it).
            if mutants::is(Mutant::DropPacingArm) && mutants::drop_this_arm() {
                return;
            }
            let at = self.arena.pacer[c].next_release().max(done);
            self.trace
                .record(now, TraceKind::TimerArm, c as u32, at.as_nanos(), 0);
            self.queue.schedule_at(
                at,
                Event::SendReady {
                    conn: c as u32,
                    from_timer: true,
                },
            );
        }
    }

    fn arm_rto(
        queue: &mut EventQueue<Event>,
        hot: &mut FlowHot,
        rtt: &RttEstimator,
        c: usize,
        now: SimTime,
    ) {
        hot.rto_epoch += 1;
        hot.rto_armed = true;
        if let Some(tok) = hot.rto_timer.take() {
            queue.cancel(tok);
        }
        let backoff = 1u64 << hot.rto_backoff.min(6);
        let rto = rtt.rto() * backoff;
        let tok = queue.schedule_at(
            now + rto,
            Event::RtoFire {
                conn: c as u32,
                epoch: hot.rto_epoch,
            },
        );
        hot.rto_timer = Some(tok);
    }

    fn on_skb_arrival(&mut self, c: usize, now: SimTime, runs: Vec<(PktSeq, PktSeq)>) {
        // Non-GRO mode: the server acks every `n` in-order segments, as a
        // classic stack would — each ACK costs the phone CPU.
        if let Some(n) = self.cfg.ack_per_segs {
            let mut pending = 0u64;
            {
                let receiver = &mut self.arena.receiver[c];
                for &(lo, hi) in &runs {
                    let mut seg = lo;
                    while seg < hi {
                        let end = PktSeq((seg.0 + n).min(hi.0));
                        receiver.on_data(seg, end);
                        pending += 1;
                        seg = end;
                    }
                }
            }
            self.run_pool.put(runs);
            for _ in 0..pending {
                self.emit_ack(c, now);
            }
            return;
        }

        let mut urgency = AckUrgency::Coalesce;
        {
            let receiver = &mut self.arena.receiver[c];
            for &(lo, hi) in &runs {
                if receiver.on_data(lo, hi) == AckUrgency::Immediate {
                    urgency = AckUrgency::Immediate;
                }
            }
        }
        self.run_pool.put(runs);
        match urgency {
            AckUrgency::Immediate => {
                if let Some(tok) = self.arena.hot[c].ack_timer.take() {
                    self.queue.cancel(tok);
                }
                self.emit_ack(c, now);
            }
            AckUrgency::Coalesce => {
                if self.arena.hot[c].ack_timer.is_none() {
                    let tok = self.queue.schedule_at(
                        now + self.cfg.ack_coalesce,
                        Event::EmitAck { conn: c as u32 },
                    );
                    self.arena.hot[c].ack_timer = Some(tok);
                }
            }
        }
    }

    fn emit_ack(&mut self, c: usize, now: SimTime) {
        let dev = self.device_of[c] as usize;
        let mut ack = AckInfo {
            cum: PktSeq(0),
            sacks: self.sack_pool.take(),
        };
        self.arena.receiver[c].build_ack_into(&mut ack);
        // SACK coherence check on every emitted ACK: blocks must sit
        // strictly above the cumulative point, be non-empty, and be
        // strictly increasing and disjoint (adjacent blocks would mean the
        // receiver failed to merge runs). Violations are counted, not
        // panicked on — the `sack-coherence` oracle turns them into
        // first-class fuzz failures with a shrunk repro.
        let mut prev_hi = ack.cum;
        for &(lo, hi) in &ack.sacks {
            if lo <= prev_hi || hi <= lo {
                self.tallies.sack_incoherent += 1;
            }
            prev_hi = hi;
        }
        self.tallies.acks_emitted += 1;
        // Reverse path: netem + link (the server's NIC is never the
        // bottleneck, but serialisation and propagation still apply).
        // ACKs ride each device's private reverse path — the download
        // direction never traverses the fleet's shared uplink bottleneck.
        let wire = wire_bytes(0);
        let release = match self.rev_netems[dev].process(now, wire) {
            NetemVerdict::Drop => {
                self.tallies.ack_drops += 1;
                self.sack_pool.put(ack.sacks);
                return; // lost ACK; a later one supersedes it
            }
            NetemVerdict::Pass { release } => release,
        };
        match self.rev_links[dev].send_flow(release, wire, c as u64) {
            SendOutcome::Dropped { aqm } => {
                self.tallies.ack_drops += 1;
                if aqm && !mutants::is(Mutant::AqmDropMiscount) {
                    self.tallies.aqm_drops += 1;
                }
                self.sack_pool.put(ack.sacks);
            }
            SendOutcome::Accepted { arrival, .. } => {
                if let Some(pcap) = self.pcap.as_mut() {
                    Self::capture_ack(pcap, c, now, &ack);
                }
                let sacks = self.sack_slots.stash(ack.sacks);
                self.queue.schedule_at(
                    arrival,
                    Event::AckArrival {
                        conn: c as u32,
                        cum: ack.cum,
                        sacks,
                    },
                );
            }
        }
    }

    /// Process a coalesced run of same-timestamp ACKs for one connection in
    /// one stack pass over the pooled batch.
    ///
    /// Semantically identical to dispatching each `AckArrival` separately:
    /// every ACK still pays its own CPU charges (the simcheck accounting
    /// identities see the same per-ACK costs), drives the CC callbacks in
    /// order, and is followed by its own send attempt — only the event-loop
    /// overhead (wheel re-scan, dispatch, scratch hand-off) is paid once per
    /// run instead of once per ACK.
    fn on_ack_run(&mut self, c: usize, now: SimTime, batch: &mut Vec<AckInfo>) {
        for ack in batch.drain(..) {
            self.on_ack_arrival(c, now, ack);
        }
    }

    fn on_ack_arrival(&mut self, c: usize, now: SimTime, ack: AckInfo) {
        let dev = self.device_of[c] as usize;
        // Phone-side ACK processing cost: generic path + the CC's model.
        self.cpus[dev].execute_tagged(now, self.cfg.cost.ack_process, "acks");
        let done =
            self.cpus[dev].execute_tagged(now, self.arena.cc_cache[c].model_cost, "cc-model");
        self.tallies.acks_processed += 1;

        let outcome = self.arena.board[c].on_ack(
            &mut self.arena.store,
            &mut self.arena.rtt[c],
            &mut self.arena.rate[c],
            &ack,
            done,
        );
        if self.trace.is_enabled() {
            let rtt_ns = outcome.rtt_sample.map(SimDuration::as_nanos).unwrap_or(0);
            self.trace.record(
                done,
                TraceKind::AckRx,
                c as u32,
                outcome.newly_delivered * MSS,
                rtt_ns,
            );
        }

        if let Some(rtt) = outcome.rtt_sample {
            if self.arena.hot[c].measuring {
                let cold = &mut self.arena.cold[c];
                cold.rtt_summary.record(rtt.as_millis_f64());
                cold.rtt_hist.record(rtt.as_millis_f64());
            }
        }

        // The CC's cached outputs are refreshed once after all of this
        // ACK's mutations (loss event, ack sample, recovery exit).
        let mut cc_touched = false;

        if outcome.recovery_entered {
            self.arena.cc[c].on_loss_event(&LossEvent {
                now: done,
                inflight: self.arena.board[c].packets_in_flight(),
                lost: outcome.newly_lost,
            });
            cc_touched = true;
            self.tallies.recovery_entries += 1;
        }

        if outcome.newly_delivered > 0 {
            let sample = AckSample {
                now: done,
                rtt: outcome
                    .rtt_sample
                    .or(self.arena.rtt[c].latest())
                    .unwrap_or(SimDuration::ZERO),
                delivery_rate: outcome
                    .rate_sample
                    .map(|r| r.rate)
                    .unwrap_or(Bandwidth::ZERO),
                delivered: self.arena.rate[c].delivered(),
                prior_delivered: outcome.prior_delivered,
                acked: outcome.newly_delivered,
                lost: outcome.newly_lost,
                inflight: self.arena.board[c].packets_in_flight(),
                app_limited: outcome.app_limited || outcome.pacing_limited,
                in_recovery: self.arena.board[c].in_recovery(),
            };
            self.arena.cc[c].on_ack(&sample);
            cc_touched = true;
            self.arena.hot[c].rto_backoff = 0;
        }

        if outcome.recovery_exited {
            self.arena.cc[c].on_recovery_exit(done);
            cc_touched = true;
            self.tallies.recovery_exits += 1;
        }

        if cc_touched {
            self.arena.refresh_cc(c);
        }

        // Flight-recorder view of the CC's outputs: record transitions
        // only, so a converged model costs nothing but the comparisons.
        if self.trace.is_enabled() {
            let cwnd = self.arena.cc_cache[c].cwnd;
            if cwnd != self.arena.cold[c].last_cwnd {
                self.arena.cold[c].last_cwnd = cwnd;
                self.trace
                    .record(done, TraceKind::CwndUpdate, c as u32, cwnd, 0);
            }
            let rate = self.arena.cc_cache[c]
                .pacing_rate
                .map(|r| r.as_bps())
                .unwrap_or(0);
            if rate != self.arena.cold[c].last_rate_bps {
                self.arena.cold[c].last_rate_bps = rate;
                self.trace
                    .record(done, TraceKind::PacingRate, c as u32, rate, 0);
            }
            let phase = self.arena.cc[c].phase();
            if phase != self.arena.cold[c].last_phase {
                let from = self.trace.intern(self.arena.cold[c].last_phase);
                let to = self.trace.intern(phase);
                self.arena.cold[c].last_phase = phase;
                self.trace
                    .record(done, TraceKind::CcPhase, c as u32, from, to);
            }
        }

        // Re-arm (or disarm) the RTO from this ACK.
        if self.arena.board[c].has_outstanding() {
            Self::arm_rto(
                &mut self.queue,
                &mut self.arena.hot[c],
                &self.arena.rtt[c],
                c,
                done,
            );
        } else {
            let hot = &mut self.arena.hot[c];
            hot.rto_epoch += 1; // invalidate pending fire
            hot.rto_armed = false;
            if let Some(tok) = hot.rto_timer.take() {
                self.queue.cancel(tok);
            }
        }

        self.sack_pool.put(ack.sacks);
        self.try_send(c, done, false);
    }

    fn on_rto(&mut self, c: usize, now: SimTime, epoch: u64) {
        {
            let has_outstanding = self.arena.board[c].has_outstanding();
            let hot = &mut self.arena.hot[c];
            if epoch == hot.rto_epoch {
                // This fire consumed the pending timer.
                hot.rto_timer = None;
            }
            if epoch != hot.rto_epoch || !has_outstanding {
                if epoch == hot.rto_epoch {
                    hot.rto_armed = false;
                }
                return;
            }
        }
        let done = self.cpus[self.device_of[c] as usize].execute_tagged(
            now,
            self.cfg.cost.rto_process,
            "rto",
        );
        self.tallies.rto_fires += 1;
        let marked = self.arena.board[c].on_rto(&mut self.arena.store);
        self.tallies.rto_marked_lost += marked;
        let inflight = self.arena.board[c].packets_in_flight();
        self.arena.cc[c].on_rto(done, inflight);
        self.arena.refresh_cc(c);
        self.arena.hot[c].rto_backoff += 1;
        self.trace.record(
            done,
            TraceKind::RtoFire,
            c as u32,
            u64::from(self.arena.hot[c].rto_backoff),
            0,
        );
        Self::arm_rto(
            &mut self.queue,
            &mut self.arena.hot[c],
            &self.arena.rtt[c],
            c,
            done,
        );
        self.try_send(c, done, false);
    }

    /// §7.1.2 extension: host-global stride adaptation (the stride is a
    /// host-wide knob, as the paper's kernel patch would expose via
    /// sysctl). The controller combines two signals:
    ///
    /// * **direction** comes from the mechanism: while the CPU is
    ///   saturated, coarser pacing amortises timer overhead (the rising
    ///   side of Fig. 8); with CPU slack, finer pacing is free goodput and
    ///   lower RTT (the falling side);
    /// * **commitment** comes from outcomes: after each move and a
    ///   settling cooldown (BBR's model needs ~a second to grow into new
    ///   headroom), the move is kept only if delivered goodput did not
    ///   regress — otherwise it is reverted and the controller holds,
    ///   which parks it at the Fig. 8 optimum instead of limit-cycling
    ///   around it.
    fn adapt_stride(&mut self, now: SimTime) {
        self.adapt_epochs += 1;
        // Epoch-level utilisation: trailing-window snapshots are far too
        // noisy under bursty pacing. Host-global by design — the builder
        // rejects auto-stride in fleet mode, so device 0 is the host.
        let busy = self.cpus[0].busy_time();
        let util = (busy.saturating_sub(self.adapt_prev_busy)) / ADAPT_EPOCH;
        self.adapt_prev_busy = busy;
        let delivered: u64 = self.arena.rate.iter().map(|r| r.delivered()).sum();
        let epoch_rate = (delivered - self.adapt_prev_delivered) as f64;
        self.adapt_prev_delivered = delivered;

        if self.adapt_epochs <= 3 {
            self.queue
                .schedule_at(now + ADAPT_EPOCH, Event::AdaptStride);
            return;
        }
        if self.adapt_cooldown > 0 {
            self.adapt_cooldown -= 1;
            self.queue
                .schedule_at(now + ADAPT_EPOCH, Event::AdaptStride);
            return;
        }

        let cur = self.arena.pacer[0].stride();
        if self.adapt_pending_eval {
            self.adapt_pending_eval = false;
            // An up-move was justified by CPU saturation, so it must *pay*
            // in delivered goodput to be kept; a down-move was justified by
            // idle headroom and merely must not regress.
            let keep_floor = if cur > self.adapt_pre_change_stride {
                1.02
            } else {
                0.97
            };
            if epoch_rate < self.adapt_pre_change_rate * keep_floor {
                // The move hurt: revert, and permanently fence off that
                // direction past the reverted-from point — a one-shot
                // search that parks at the optimum instead of limit-
                // cycling around it.
                if cur > self.adapt_pre_change_stride {
                    self.adapt_ceiling = self.adapt_pre_change_stride;
                } else {
                    self.adapt_floor = self.adapt_pre_change_stride;
                }
                self.set_all_strides(self.adapt_pre_change_stride);
                self.trace.record(
                    now,
                    TraceKind::StrideAdapt,
                    0,
                    cur,
                    self.adapt_pre_change_stride,
                );
                self.adapt_hold = 12;
                self.tallies.stride_reverts += 1;
                self.adapt_cooldown = 2;
                self.queue
                    .schedule_at(now + ADAPT_EPOCH, Event::AdaptStride);
                return;
            }
            // Committed: fall through and consider the next move.
        }
        if self.adapt_hold > 0 {
            self.adapt_hold -= 1;
            self.queue
                .schedule_at(now + ADAPT_EPOCH, Event::AdaptStride);
            return;
        }

        let next = if util > 0.92 {
            (cur * 2).min(self.adapt_ceiling)
        } else if util < 0.70 {
            (cur / 2).max(self.adapt_floor)
        } else {
            cur
        };
        if next != cur {
            self.set_all_strides(next);
            self.adapt_pre_change_rate = epoch_rate;
            self.adapt_pre_change_stride = cur;
            self.adapt_pending_eval = true;
            self.adapt_cooldown = 3;
            self.tallies.stride_adaptations += 1;
            self.trace.record(now, TraceKind::StrideAdapt, 0, cur, next);
        }
        self.queue
            .schedule_at(now + ADAPT_EPOCH, Event::AdaptStride);
    }

    /// Synthesize and record a data packet (phone -> server).
    fn capture_data(
        pcap: &mut netsim::pcap::PcapWriter<std::io::BufWriter<std::fs::File>>,
        conn: usize,
        at: SimTime,
        seq: PktSeq,
    ) {
        use crate::wire::{build_frame, Ipv4Addr, MacAddr, TcpFlags, TcpHeader};
        let header = TcpHeader {
            src_port: 50_000 + conn as u16,
            dst_port: 5_201, // iperf3
            seq: PktSeq(seq.0 * MSS).to_wire(),
            ack: crate::seq::WireSeq(0),
            flags: TcpFlags {
                ack: true,
                psh: true,
                ..Default::default()
            },
            window: 65_535,
            sacks: vec![],
        };
        let payload = vec![0u8; MSS as usize];
        let frame = build_frame(
            MacAddr::host(2),
            MacAddr::host(1),
            Ipv4Addr::lan(2),
            Ipv4Addr::lan(1),
            &header,
            &payload,
        );
        pcap.write_frame(at, &frame).expect("pcap write");
    }

    /// Synthesize and record an ACK (server -> phone).
    fn capture_ack(
        pcap: &mut netsim::pcap::PcapWriter<std::io::BufWriter<std::fs::File>>,
        conn: usize,
        at: SimTime,
        ack: &AckInfo,
    ) {
        use crate::wire::{build_frame, Ipv4Addr, MacAddr, TcpFlags, TcpHeader};
        let header = TcpHeader {
            src_port: 5_201,
            dst_port: 50_000 + conn as u16,
            seq: crate::seq::WireSeq(0),
            ack: PktSeq(ack.cum.0 * MSS).to_wire(),
            flags: TcpFlags {
                ack: true,
                ..Default::default()
            },
            window: 65_535,
            sacks: ack
                .sacks
                .iter()
                .take(3)
                .map(|&(lo, hi)| (PktSeq(lo.0 * MSS).to_wire(), PktSeq(hi.0 * MSS).to_wire()))
                .collect(),
        };
        let frame = build_frame(
            MacAddr::host(1),
            MacAddr::host(2),
            Ipv4Addr::lan(1),
            Ipv4Addr::lan(2),
            &header,
            &[],
        );
        pcap.write_frame(at, &frame).expect("pcap write");
    }

    fn set_all_strides(&mut self, stride: u64) {
        for pacer in &mut self.arena.pacer {
            pacer.set_stride(stride);
        }
    }

    /// Key-wise sum of every device CPU's per-category cycle counters
    /// (identical to the single CPU's map when there is only one device).
    fn cycles_by_category_all(cpus: &[Cpu]) -> BTreeMap<&'static str, u64> {
        let mut all = BTreeMap::new();
        for cpu in cpus {
            for (k, v) in cpu.cycles_by_category() {
                *all.entry(k).or_insert(0) += v;
            }
        }
        all
    }

    /// Fleet aggregate of per-device CPU statistics: cycle/op counts and
    /// queue delay sum across devices, `busy_time` reports the busiest
    /// device (keeping "busy ≤ wall clock" a per-core invariant), and the
    /// mean frequency is cycle-weighted.
    fn aggregate_cpu_stats(cpus: &[Cpu], end: SimTime) -> CpuStats {
        let stats: Vec<CpuStats> = cpus.iter().map(|c| c.stats(end)).collect();
        let total_cycles = stats.iter().map(|s| s.total_cycles).sum::<u64>();
        let mean_freq_hz = if total_cycles == 0 {
            stats.iter().map(|s| s.mean_freq_hz).sum::<f64>() / stats.len().max(1) as f64
        } else {
            stats
                .iter()
                .map(|s| s.mean_freq_hz * s.total_cycles as f64)
                .sum::<f64>()
                / total_cycles as f64
        };
        let mut cycles_by_category = BTreeMap::new();
        for s in &stats {
            for (&k, &v) in &s.cycles_by_category {
                *cycles_by_category.entry(k).or_insert(0) += v;
            }
        }
        CpuStats {
            total_cycles,
            busy_time: stats
                .iter()
                .map(|s| s.busy_time)
                .max()
                .unwrap_or(SimDuration::ZERO),
            ops: stats.iter().map(|s| s.ops).sum(),
            queued_ops: stats.iter().map(|s| s.queued_ops).sum(),
            queue_delay: stats
                .iter()
                .fold(SimDuration::ZERO, |acc, s| acc + s.queue_delay),
            freq_changes: stats.iter().map(|s| s.freq_changes).sum(),
            migrations: stats.iter().map(|s| s.migrations).sum(),
            mean_freq_hz,
            cycles_by_category,
        }
    }

    fn finish(self) -> SimResult {
        let window = self.cfg.duration - self.cfg.warmup;
        let mut per_conn = Vec::with_capacity(self.arena.len());
        let mut total_goodput = Bandwidth::ZERO;
        let mut rtt_all = Summary::new();
        let mut p95_sum = 0.0;
        let mut p95_n = 0u32;
        let mut total_retx = 0;
        let mut skb_sum = 0u64;
        let mut skb_cnt = 0u64;
        let mut idle_ms_sum = 0.0;
        let mut idle_n = 0u32;
        let mut peak_mem = 0u64;
        let mut rx_received = 0u64;
        let mut rx_duplicates = 0u64;
        let mut rx_accepted = 0u64;
        let mut seq_regressions = 0u64;
        let mut snd_nxt_total = 0u64;

        for i in 0..self.arena.len() {
            let board = &self.arena.board[i];
            let hot = &self.arena.hot[i];
            let cold = &self.arena.cold[i];
            let receiver = &self.arena.receiver[i];
            let pacer = &self.arena.pacer[i];
            peak_mem += hot.mem_peak_bytes;
            rx_received += receiver.total_received();
            rx_duplicates += receiver.duplicates();
            rx_accepted += hot.accepted_pkts;
            snd_nxt_total += board.snd_nxt().0;
            // Terminal sequence sanity: the unacknowledged edge never
            // overtakes the send edge, and the receiver never claims data
            // the sender has not produced.
            if board.snd_una() > board.snd_nxt() {
                seq_regressions += 1;
            }
            if receiver.rcv_nxt() > board.snd_nxt() {
                seq_regressions += 1;
            }
            let delivered = self.arena.rate[i].delivered() - cold.delivered_at_measure;
            let goodput = Bandwidth::from_bytes_over(delivered * MSS, window);
            total_goodput = total_goodput.saturating_add(goodput);
            total_retx += board.total_retx();
            rtt_all.merge(&cold.rtt_summary);
            let p95 = cold.rtt_hist.quantile(0.95).unwrap_or(0.0);
            if cold.rtt_hist.count() > 0 {
                p95_sum += p95;
                p95_n += 1;
            }
            // Table 2 semantics: buffer length and idle time are per pacing
            // *period* (one timer fire releases one period's buffer).
            let (mean_skb, mean_idle_ms) = if cold.period_count > 0 {
                (
                    cold.period_bytes_sum as f64 / cold.period_count as f64,
                    pacer.total_idle().as_millis_f64() / cold.period_count as f64,
                )
            } else if cold.skb_count > 0 {
                (cold.skb_bytes_sum as f64 / cold.skb_count as f64, 0.0)
            } else {
                (0.0, 0.0)
            };
            skb_sum += cold.period_bytes_sum.max(cold.skb_bytes_sum);
            skb_cnt += cold.period_count.max(if cold.period_count == 0 {
                cold.skb_count
            } else {
                0
            });
            if pacer.paced_sends() > 0 {
                idle_ms_sum += mean_idle_ms;
                idle_n += 1;
            }
            per_conn.push(ConnStats {
                delivered_pkts: delivered,
                goodput,
                retx_pkts: board.total_retx(),
                rtt_mean_ms: cold.rtt_summary.mean(),
                rtt_p95_ms: p95,
                skbs_sent: cold.skb_count,
                mean_skb_bytes: mean_skb,
                mean_idle_ms,
                srtt_ms: self.arena.rtt[i]
                    .srtt()
                    .map(|s| s.as_millis_f64())
                    .unwrap_or(0.0),
            });
        }

        // Fold the hot-path tallies into the counter map, then the
        // end-of-run accounting counters below. With one device the stats
        // come straight from its CPU (byte-identical to pre-fleet output);
        // fleets aggregate across device CPUs.
        let cpu_stats = if self.cpus.len() == 1 {
            self.cpus[0].stats(self.end)
        } else {
            Self::aggregate_cpu_stats(&self.cpus, self.end)
        };
        let mut counters = Counters::new();
        self.tallies.flush(&mut counters);

        // Link-side AQM ground truth: every CoDel/FQ-CoDel drop the links
        // themselves recorded. The stack-side `aqm_drops` tally above must
        // agree exactly (the aqm-accounting oracle); keeping both sides
        // independently counted is what makes the check non-vacuous.
        let link_aqm_drops: u64 = self
            .fwd_links
            .iter()
            .chain(self.rev_links.iter())
            .chain(self.shared_link.iter())
            .map(|l| l.stats().aqm_drops)
            .sum();
        if link_aqm_drops > 0 {
            counters.add("link_aqm_drops", link_aqm_drops);
        }

        // Pool health: in steady state misses stay at the cold-start count
        // (bounded by events in flight), making regressions visible in
        // counter dumps without touching the serialized scorecard. The
        // `_steady` variants count only measurement-window misses, which a
        // healthy run keeps at exactly zero. Categories are reported
        // separately — segment-run lists, SACK vectors, and the shared
        // scoreboard slab have independent populations and failure modes.
        counters.add("pool_run_misses", self.run_pool.misses());
        counters.add("pool_sack_misses", self.sack_pool.misses());
        counters.add(
            "pool_run_misses_steady",
            self.run_pool.misses() - self.measure_run_misses,
        );
        counters.add(
            "pool_sack_misses_steady",
            self.sack_pool.misses() - self.measure_sack_misses,
        );
        // Independent take/reuse tallies so `misses == takes − reuses` is a
        // genuine cross-check, not a derived quantity.
        counters.add("pool_run_takes", self.run_pool.takes());
        counters.add("pool_run_reuses", self.run_pool.reuses());
        counters.add("pool_sack_takes", self.sack_pool.takes());
        counters.add("pool_sack_reuses", self.sack_pool.reuses());
        // The scoreboard-slab category (shared segment chunks).
        let (slab_takes, slab_reuses, slab_misses) = self.arena.store_stats();
        counters.add("pool_slab_takes", slab_takes);
        counters.add("pool_slab_reuses", slab_reuses);
        counters.add("pool_slab_misses", slab_misses);
        counters.add(
            "pool_slab_misses_steady",
            slab_misses - self.measure_slab_misses,
        );

        // Timer-wheel conservation: every scheduled token is eventually
        // popped, cancelled, or still pending — nothing duplicated, nothing
        // lost (the wheel-conservation oracle).
        counters.add("wheel_scheduled", self.queue.scheduled());
        counters.add("wheel_popped", self.queue.popped());
        counters.add("wheel_cancelled", self.queue.cancelled());
        counters.add("wheel_pending", self.queue.len() as u64);

        // Receive-side conservation and terminal sequence sanity (see the
        // per-conn loop above).
        counters.add("rx_pkts_received", rx_received);
        counters.add("rx_duplicates", rx_duplicates);
        counters.add("rx_pkts_accepted", rx_accepted);
        counters.add("seq_regressions", seq_regressions);
        counters.add("snd_nxt_total", snd_nxt_total);

        // Steady-state cycle attribution (Fig. 4/5's breakdown): cycles
        // charged after MeasureStart, split into the categories the paper
        // discusses. `other` absorbs retransmit/RTO and anything new.
        let steady = |cat: &str| -> u64 {
            let total = cpu_stats.cycles_by_category.get(cat).copied().unwrap_or(0);
            total.saturating_sub(self.measure_cycles.get(cat).copied().unwrap_or(0))
        };
        let steady_total = cpu_stats
            .total_cycles
            .saturating_sub(self.measure_cycles_total);
        let steady_timers = steady("timers");
        let steady_acks = steady("acks");
        let steady_cc = steady("cc-model");
        let steady_data = steady("bytes") + steady("skb-fixed");
        counters.add("cycles_steady_total", steady_total);
        counters.add("cycles_steady_timers", steady_timers);
        counters.add("cycles_steady_acks", steady_acks);
        counters.add("cycles_steady_cc_model", steady_cc);
        counters.add("cycles_steady_data", steady_data);
        counters.add(
            "cycles_steady_other",
            steady_total.saturating_sub(steady_timers + steady_acks + steady_cc + steady_data),
        );

        // Jain fairness over per-connection goodput.
        let rates: Vec<f64> = per_conn.iter().map(|c| c.goodput.as_bps() as f64).collect();
        let fairness = sim_core::metrics::jain(&rates);

        // Fleet metrics: connections were assigned to devices contiguously
        // in `from_arc`, so a running cursor over `per_conn` recovers each
        // device's share. Delivered bytes cover the whole run (not just the
        // measurement window) because the conservation oracle compares them
        // against capacity × full duration.
        let fleet = self.cfg.fleet.as_ref().map(|fleet| {
            let mut outcomes = Vec::with_capacity(fleet.devices.len());
            let mut delivered_bytes = 0u64;
            let mut conn = 0usize;
            for (d, spec) in fleet.devices.iter().enumerate() {
                let mut goodput = Bandwidth::ZERO;
                let mut wants_pacing = false;
                for _ in 0..spec.connections {
                    goodput = goodput.saturating_add(per_conn[conn].goodput);
                    wants_pacing |= self.arena.cc_cache[conn].wants_pacing;
                    delivered_bytes += self.arena.rate[conn].delivered() * MSS;
                    conn += 1;
                }
                outcomes.push(DeviceOutcome {
                    goodput_mbps: goodput.as_mbps_f64(),
                    wants_pacing,
                    busy_fraction: self.cpus[d].busy_time() / self.cfg.duration,
                });
            }
            FleetResult::compute(
                fleet,
                &outcomes,
                self.tallies.shared_pkts,
                self.tallies.shared_drops,
                delivered_bytes,
            )
        });

        SimResult {
            total_goodput,
            mean_rtt_ms: rtt_all.mean(),
            p95_rtt_ms: if p95_n == 0 {
                0.0
            } else {
                p95_sum / p95_n as f64
            },
            total_retx,
            cpu: cpu_stats,
            mean_skb_bytes: if skb_cnt == 0 {
                0.0
            } else {
                skb_sum as f64 / skb_cnt as f64
            },
            mean_idle_ms: if idle_n == 0 {
                0.0
            } else {
                idle_ms_sum / idle_n as f64
            },
            counters,
            per_conn,
            fairness,
            fleet,
            peak_mem_bytes: peak_mem,
            timeline: {
                let mut out = Vec::new();
                for w in self.timeline.windows(2) {
                    let (t0, d0) = w[0];
                    let (t1, d1) = w[1];
                    let rate = Bandwidth::from_bytes_over((d1 - d0) * MSS, t1 - t0);
                    out.push((t1.as_secs_f64(), rate.as_mbps_f64()));
                }
                out
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpu_model::configs::DeviceProfile;
    use netsim::media::MediaProfile;

    fn quick(cc: CcKind, cpu: CpuConfig, conns: usize) -> SimConfig {
        SimConfig::builder(DeviceProfile::pixel4(), cpu, cc, conns)
            .duration(SimDuration::from_secs(3))
            .warmup(SimDuration::from_millis(500))
            .build()
            .expect("valid config")
    }

    #[test]
    fn telemetry_sampling_does_not_change_results() {
        // The determinism contract for flight-data telemetry: sampling only
        // observes, so a sampled run's SimResult is byte-identical to an
        // unsampled one (serialize both to canonical JSON and compare).
        let plain = StackSim::new(quick(CcKind::Bbr, CpuConfig::LowEnd, 3)).run();
        let mut cfg = quick(CcKind::Bbr, CpuConfig::LowEnd, 3);
        cfg.telemetry = Some(SimDuration::from_millis(10));
        let (sampled, log) = StackSim::new(cfg).run_with_telemetry();
        assert_eq!(
            serde_json::to_string(&plain).unwrap(),
            serde_json::to_string(&sampled).unwrap(),
            "telemetry sampling must not perturb any result byte"
        );
        let log = log.expect("cfg.telemetry attaches the sink");
        assert!(!log.flows.is_empty(), "flow samples collected");
        assert!(!log.queues.is_empty(), "queue samples collected");
        assert_eq!(log.dropped_rows, 0);
        // Rows are time-major and, within an instant, connection-minor.
        for w in log.flows.windows(2) {
            assert!(
                w[0].at < w[1].at || (w[0].at == w[1].at && w[0].conn < w[1].conn),
                "flow rows out of order: {:?} then {:?}",
                (w[0].at, w[0].conn),
                (w[1].at, w[1].conn),
            );
        }
        // One queue row per sampled instant, covering the whole run.
        for w in log.queues.windows(2) {
            assert_eq!(
                w[1].at.saturating_since(w[0].at),
                SimDuration::from_millis(10)
            );
        }
        // Phase strings come from the live CC objects.
        assert!(log.flows.iter().all(|f| !f.phase.is_empty()));
    }

    #[test]
    fn telemetry_log_is_deterministic_across_runs() {
        let run = || {
            let mut cfg = quick(CcKind::Bbr, CpuConfig::LowEnd, 2);
            cfg.telemetry = Some(SimDuration::from_millis(20));
            let (_, log) = StackSim::new(cfg).run_with_telemetry();
            let mut out = Vec::new();
            sim_core::telemetry::write_jsonl(&log.expect("sink attached"), &mut out).unwrap();
            out
        };
        assert_eq!(run(), run(), "flight data must be byte-identical");
    }

    #[test]
    fn mixed_fleet_competes_through_the_shared_bottleneck() {
        use crate::fleet::FleetConfig;
        use netsim::Qdisc;

        let rate = Bandwidth::from_mbps(150);
        let fleet = FleetConfig::mixed(6).with_shared(FleetConfig::pop_uplink(rate, Qdisc::Codel));
        let cfg = SimConfig::builder(
            DeviceProfile::pixel4(),
            CpuConfig::MidEnd,
            CcKind::Cubic,
            1, // overwritten by .fleet()
        )
        .fleet(fleet)
        .duration(SimDuration::from_secs(3))
        .warmup(SimDuration::from_millis(500))
        .build()
        .expect("valid fleet config");
        let res = StackSim::new(cfg.clone()).run();
        let f = res.fleet.as_ref().expect("fleet runs report fleet metrics");
        assert_eq!(f.devices, 6);
        assert!(f.shared_pkts > 0, "traffic crossed the shared hop");
        assert!(f.aggregate_goodput_mbps > 0.0);
        assert!(
            f.aggregate_goodput_mbps <= rate.as_mbps_f64() * 1.05,
            "fleet goodput {} cannot exceed the shared bottleneck {}",
            f.aggregate_goodput_mbps,
            rate.as_mbps_f64()
        );
        assert!((1.0 / f.devices as f64..=1.0 + 1e-12).contains(&f.jain_devices));
        assert!(!f.cc_groups.is_empty() && !f.tiers.is_empty());
        // Conservation over the whole run: the shared link cannot carry
        // more payload than capacity × duration.
        let cap_bytes = (rate.as_bps() as f64 / 8.0) * cfg.duration.as_secs_f64();
        assert!(
            (f.delivered_bytes as f64) <= cap_bytes,
            "delivered {} > capacity {}",
            f.delivered_bytes,
            cap_bytes
        );
        // Determinism: the same fleet config reproduces byte-identically.
        let again = StackSim::new(cfg).run();
        assert_eq!(
            serde_json::to_string(&res).unwrap(),
            serde_json::to_string(&again).unwrap()
        );
    }

    #[test]
    fn non_fleet_results_omit_the_fleet_field() {
        let res = StackSim::new(quick(CcKind::Cubic, CpuConfig::HighEnd, 1)).run();
        assert!(res.fleet.is_none());
        let json = serde_json::to_string(&res).unwrap();
        assert!(
            !json.contains("\"fleet\""),
            "serialized non-fleet results must not grow a fleet key"
        );
    }

    #[test]
    fn cubic_high_end_reaches_near_line_rate() {
        let res = StackSim::new(quick(CcKind::Cubic, CpuConfig::HighEnd, 1)).run();
        let mbps = res.goodput_mbps();
        assert!(
            mbps > 850.0,
            "High-End Cubic should near 1 Gbps line rate, got {mbps:.0}"
        );
    }

    #[test]
    fn bbr_high_end_reaches_near_line_rate() {
        let res = StackSim::new(quick(CcKind::Bbr, CpuConfig::HighEnd, 1)).run();
        let mbps = res.goodput_mbps();
        assert!(
            mbps > 800.0,
            "High-End BBR should near line rate, got {mbps:.0}"
        );
    }

    #[test]
    fn low_end_cubic_is_cpu_limited() {
        let res = StackSim::new(quick(CcKind::Cubic, CpuConfig::LowEnd, 1)).run();
        let mbps = res.goodput_mbps();
        assert!(
            (250.0..500.0).contains(&mbps),
            "Low-End Cubic should be CPU-limited near the paper's 364 Mbps, got {mbps:.0}"
        );
    }

    #[test]
    fn low_end_bbr_below_cubic() {
        let cubic = StackSim::new(quick(CcKind::Cubic, CpuConfig::LowEnd, 1)).run();
        let bbr = StackSim::new(quick(CcKind::Bbr, CpuConfig::LowEnd, 1)).run();
        assert!(
            bbr.goodput_mbps() < cubic.goodput_mbps(),
            "Fig 2a: BBR ({:.0}) below Cubic ({:.0}) at Low-End",
            bbr.goodput_mbps(),
            cubic.goodput_mbps()
        );
    }

    #[test]
    fn bbr_degrades_with_connections_on_low_end() {
        let one = StackSim::new(quick(CcKind::Bbr, CpuConfig::LowEnd, 1)).run();
        let twenty = StackSim::new(quick(CcKind::Bbr, CpuConfig::LowEnd, 20)).run();
        assert!(
            twenty.goodput_mbps() < 0.75 * one.goodput_mbps(),
            "Fig 2a: BBR@20 ({:.0}) should drop well below BBR@1 ({:.0})",
            twenty.goodput_mbps(),
            one.goodput_mbps()
        );
    }

    #[test]
    fn disabling_pacing_recovers_bbr_low_end() {
        let mut paced = quick(CcKind::Bbr, CpuConfig::LowEnd, 20);
        paced.duration = SimDuration::from_secs(3);
        let mut unpaced = paced.clone();
        unpaced.master = MasterConfig::pacing_off();
        let paced = StackSim::new(paced).run();
        let unpaced = StackSim::new(unpaced).run();
        assert!(
            unpaced.goodput_mbps() > 1.5 * paced.goodput_mbps(),
            "Fig 4: unpaced BBR ({:.0}) ≫ paced ({:.0}) on Low-End/20conns",
            unpaced.goodput_mbps(),
            paced.goodput_mbps()
        );
    }

    #[test]
    fn unpaced_bbr_has_higher_rtt() {
        let paced = quick(CcKind::Bbr, CpuConfig::LowEnd, 20);
        let mut unpaced = paced.clone();
        unpaced.master = MasterConfig::pacing_off();
        let paced = StackSim::new(paced).run();
        let unpaced = StackSim::new(unpaced).run();
        assert!(
            unpaced.mean_rtt_ms > 1.5 * paced.mean_rtt_ms,
            "Fig 7: unpaced RTT ({:.2}ms) should far exceed paced ({:.2}ms)",
            unpaced.mean_rtt_ms,
            paced.mean_rtt_ms
        );
    }

    #[test]
    fn shallow_buffer_explodes_retx_when_unpaced() {
        let mut paced = quick(CcKind::Bbr, CpuConfig::LowEnd, 20);
        paced.path = MediaProfile::Ethernet.path_config().with_queue_packets(10);
        let mut unpaced = paced.clone();
        unpaced.master = MasterConfig::pacing_off();
        let paced = StackSim::new(paced).run();
        let unpaced = StackSim::new(unpaced).run();
        assert!(
            unpaced.total_retx > 10 * paced.total_retx.max(1),
            "§5.2.3: unpaced retx ({}) ≫ paced ({})",
            unpaced.total_retx,
            paced.total_retx
        );
    }

    #[test]
    fn stride_improves_low_end_bbr() {
        let stride1 = quick(CcKind::Bbr, CpuConfig::LowEnd, 20);
        let mut stride10 = stride1.clone();
        stride10.pacing = PacingConfig::with_stride(10);
        let r1 = StackSim::new(stride1).run();
        let r10 = StackSim::new(stride10).run();
        assert!(
            r10.goodput_mbps() > 1.3 * r1.goodput_mbps(),
            "Fig 8: stride 10 ({:.0}) should beat stride 1 ({:.0}) on Low-End",
            r10.goodput_mbps(),
            r1.goodput_mbps()
        );
    }

    #[test]
    fn determinism_same_seed_same_result() {
        let a = StackSim::new(quick(CcKind::Bbr, CpuConfig::LowEnd, 5)).run();
        let b = StackSim::new(quick(CcKind::Bbr, CpuConfig::LowEnd, 5)).run();
        assert_eq!(a.total_goodput, b.total_goodput);
        assert_eq!(a.total_retx, b.total_retx);
        assert_eq!(a.counters.get("skbs_sent"), b.counters.get("skbs_sent"));
    }

    #[test]
    fn lte_is_bandwidth_limited_bbr_matches_cubic() {
        let mut cfg = quick(CcKind::Bbr, CpuConfig::LowEnd, 4);
        cfg.path = MediaProfile::Lte.path_config();
        let bbr = StackSim::new(cfg).run();
        let mut cfg2 = quick(CcKind::Cubic, CpuConfig::LowEnd, 4);
        cfg2.path = MediaProfile::Lte.path_config();
        let cubic = StackSim::new(cfg2).run();
        let ratio = bbr.goodput_mbps() / cubic.goodput_mbps();
        assert!(
            (0.8..1.25).contains(&ratio),
            "Fig 9: on LTE BBR ({:.1}) ≈ Cubic ({:.1})",
            bbr.goodput_mbps(),
            cubic.goodput_mbps()
        );
    }

    #[test]
    fn pacing_improves_cubic_fairness() {
        // Sec 5.2.3 cites Aggarwal'00 / Wei'06: "packet pacing improves ...
        // TCP fairness". Unpaced Cubic through a droptail queue shows
        // capture effects; the same Cubic with TCP-internal pacing spreads
        // arrivals and shares better. (BBRv1's own same-path fairness is
        // poor on sub-10 s horizons — the stale-min_rtt cwnd lock — both
        // here and in the literature, so Cubic carries this claim.)
        let mut unpaced_cfg = quick(CcKind::Cubic, CpuConfig::HighEnd, 10);
        unpaced_cfg.duration = SimDuration::from_secs(8);
        let mut paced_cfg = unpaced_cfg.clone();
        paced_cfg.master = MasterConfig::pacing_on();
        let unpaced = StackSim::new(unpaced_cfg).run();
        let paced = StackSim::new(paced_cfg).run();
        assert!(
            paced.fairness > unpaced.fairness,
            "paced Cubic ({:.2}) should out-share unpaced Cubic ({:.2})",
            paced.fairness,
            unpaced.fairness
        );
        assert!(
            paced.fairness > 0.6,
            "paced Cubic Jain index {} too unfair",
            paced.fairness
        );
    }

    #[test]
    fn random_loss_recovers_and_still_delivers() {
        // 0.5% netem loss on the uplink: recovery machinery must keep the
        // pipe productive and every loss must be repaired eventually.
        let mut cfg = quick(CcKind::Cubic, CpuConfig::HighEnd, 2);
        cfg.duration = SimDuration::from_secs(2);
        cfg.path = MediaProfile::Ethernet
            .path_config()
            .with_forward_netem(netsim::netem::NetemConfig::none().with_loss(0.005));
        let res = StackSim::new(cfg).run();
        assert!(res.total_retx > 0, "losses must occur");
        assert!(
            res.goodput_mbps() > 100.0,
            "loss recovery keeps the pipe productive: {:.0}",
            res.goodput_mbps()
        );
        assert!(
            res.counters.get("rto_fires") < 50,
            "fast recovery, not RTO storms"
        );
    }

    #[test]
    fn cross_traffic_consumes_capacity() {
        let mut clean = quick(CcKind::Cubic, CpuConfig::HighEnd, 4);
        clean.duration = SimDuration::from_secs(2);
        let mut loaded = clean.clone();
        loaded.cross_traffic = Some(netsim::crosstraffic::CrossTrafficConfig::at(
            Bandwidth::from_mbps(600),
        ));
        let clean = StackSim::new(clean).run();
        let loaded = StackSim::new(loaded).run();
        assert!(
            loaded.counters.get("cross_pkts") > 0,
            "cross source must inject"
        );
        assert!(
            loaded.goodput_mbps() < 0.75 * clean.goodput_mbps(),
            "600 Mbps of cross traffic must take a real bite: {:.0} vs {:.0}",
            loaded.goodput_mbps(),
            clean.goodput_mbps()
        );
    }

    #[test]
    fn pcap_capture_is_readable_and_complete() {
        let path = std::env::temp_dir().join("tcp_sim_test_capture.pcap");
        let mut cfg = quick(CcKind::Bbr, CpuConfig::HighEnd, 1);
        cfg.duration = SimDuration::from_millis(120);
        cfg.warmup = SimDuration::from_millis(40);
        cfg.pcap = Some(path.clone());
        let res = StackSim::new(cfg).run();
        let bytes = std::fs::read(&path).expect("pcap exists");
        let (linktype, records) = netsim::pcap::read_pcap(&bytes[..]).expect("valid pcap");
        std::fs::remove_file(&path).ok();
        assert_eq!(linktype, netsim::pcap::LINKTYPE_EN10MB);
        // Data packets + ACKs are all captured.
        let sent = res.counters.get("pkts_sent")
            - res.counters.get("queue_drops")
            - res.counters.get("netem_drops");
        let acks = res.counters.get("acks_emitted") - res.counters.get("ack_drops");
        assert_eq!(
            records.len() as u64,
            sent + acks,
            "every wire packet captured"
        );
        // Every frame decodes with valid checksums.
        for rec in &records {
            let (src, dst, tcp) = crate::wire::parse_frame(&rec.frame).expect("frame ok");
            crate::wire::TcpHeader::decode(src, dst, tcp).expect("tcp ok");
        }
    }

    #[test]
    fn cycle_breakdown_shows_the_pacing_tax() {
        // The paper's claim, visible in the accounting: paced BBR spends a
        // substantial share of its cycles on timer traffic; unpaced BBR
        // spends none.
        let paced = StackSim::new(quick(CcKind::Bbr, CpuConfig::LowEnd, 20)).run();
        let mut unpaced_cfg = quick(CcKind::Bbr, CpuConfig::LowEnd, 20);
        unpaced_cfg.master = MasterConfig::pacing_off();
        let unpaced = StackSim::new(unpaced_cfg).run();

        let share = |stats: &cpu_model::CpuStats, cat: &str| {
            *stats.cycles_by_category.get(cat).unwrap_or(&0) as f64
                / stats.total_cycles.max(1) as f64
        };
        assert!(
            share(&paced.cpu, "timers") > 0.05,
            "paced timers share {:.3} should be substantial",
            share(&paced.cpu, "timers")
        );
        assert_eq!(
            share(&unpaced.cpu, "timers"),
            0.0,
            "no pacing timers when unpaced"
        );
        // Categories partition the total.
        assert_eq!(
            paced.cpu.cycles_by_category.values().sum::<u64>(),
            paced.cpu.total_cycles
        );
    }

    #[test]
    fn steady_state_never_misses_the_buffer_pools() {
        // The run/SACK pools warm up during slow start; once measurement
        // begins every take() must be served from the pool — a steady-state
        // miss means the hot path hit the allocator.
        let res = StackSim::new(quick(CcKind::Bbr, CpuConfig::LowEnd, 5)).run();
        assert_eq!(
            res.counters.get("pool_run_misses_steady"),
            0,
            "run-list pool missed during the measurement window"
        );
        assert_eq!(
            res.counters.get("pool_sack_misses_steady"),
            0,
            "SACK pool missed during the measurement window"
        );
        // And the steady-cycle partition must add up.
        let parts = res.counters.get("cycles_steady_timers")
            + res.counters.get("cycles_steady_acks")
            + res.counters.get("cycles_steady_cc_model")
            + res.counters.get("cycles_steady_data")
            + res.counters.get("cycles_steady_other");
        assert_eq!(parts, res.counters.get("cycles_steady_total"));
        assert!(res.counters.get("cycles_steady_total") > 0);
    }

    #[test]
    fn accounting_identities_hold_in_results() {
        // The identities simcheck's oracles rely on, checked once here on a
        // representative run: pool misses equal takes minus reuses, the
        // timer wheel conserves tokens, receive-side conservation holds,
        // and no terminal sequence regression occurred.
        let res = StackSim::new(quick(CcKind::Bbr, CpuConfig::MidEnd, 3)).run();
        let g = |name| res.counters.get(name);
        assert!(g("pool_run_takes") > 0, "run pool must see traffic");
        assert_eq!(
            g("pool_run_misses"),
            g("pool_run_takes") - g("pool_run_reuses")
        );
        assert_eq!(
            g("pool_sack_misses"),
            g("pool_sack_takes") - g("pool_sack_reuses")
        );
        assert!(g("pool_slab_takes") > 0, "slab must see traffic");
        assert_eq!(
            g("pool_slab_misses"),
            g("pool_slab_takes") - g("pool_slab_reuses")
        );
        assert_eq!(
            g("wheel_scheduled"),
            g("wheel_popped") + g("wheel_cancelled") + g("wheel_pending"),
            "timer wheel must conserve tokens"
        );
        assert!(
            g("rx_pkts_received") + g("rx_duplicates") <= g("rx_pkts_accepted"),
            "receiver cannot see more packets than survived the wire"
        );
        assert_eq!(g("seq_regressions"), 0);
        assert_eq!(g("sack_incoherent"), 0);
    }

    #[test]
    fn traced_run_is_bit_identical_to_untraced() {
        // The flight recorder must be an observer: same config, same seed,
        // tracing on vs off, identical results — alone, and with the
        // telemetry sink live in the same run (both instruments at once).
        let plain = StackSim::new(quick(CcKind::Bbr, CpuConfig::LowEnd, 3)).run();
        for telemetry in [None, Some(SimDuration::from_millis(10))] {
            let mut cfg = quick(CcKind::Bbr, CpuConfig::LowEnd, 3);
            cfg.telemetry = telemetry;
            let (traced, log) = StackSim::new(cfg).run_traced();
            assert_eq!(
                serde_json::to_string(&plain).unwrap(),
                serde_json::to_string(&traced).unwrap(),
                "tracing (telemetry {telemetry:?}) must not perturb any result byte"
            );
            // The log itself is well-formed: time-ordered, with the windowed
            // CPU profile appended as counter series, and paced BBR has left
            // pacing-timer, CC, CPU and wheel tracepoints behind.
            use sim_core::trace::TraceKind;
            assert!(log.events.windows(2).all(|w| w[0].at <= w[1].at));
            assert!(log.counters.iter().any(|s| s.name.starts_with("cycles.")));
            assert!(log.events.iter().any(|e| e.kind == TraceKind::PacingFire));
            assert!(log.events.iter().any(|e| e.kind == TraceKind::CwndUpdate));
            assert!(log.events.iter().any(|e| e.kind == TraceKind::CpuSpan));
            assert!(log.events.iter().any(|e| e.kind == TraceKind::WheelPop));
        }
    }

    #[test]
    fn counters_track_pacing_activity() {
        let res = StackSim::new(quick(CcKind::Bbr, CpuConfig::MidEnd, 2)).run();
        assert!(
            res.counters.get("timer_fires") > 0,
            "paced BBR must fire timers"
        );
        assert!(res.counters.get("skbs_sent") > 0);
        let cubic = StackSim::new(quick(CcKind::Cubic, CpuConfig::MidEnd, 2)).run();
        assert_eq!(
            cubic.counters.get("timer_arms"),
            0,
            "unpaced Cubic arms no pacing timers"
        );
    }
}
