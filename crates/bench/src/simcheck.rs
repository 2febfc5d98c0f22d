//! The `simcheck` deterministic scenario fuzzer: oracle library, scenario
//! space, shrinking, corpus regression, and the mutant sensitivity harness.
//!
//! The generic machinery (oracle evaluation, bisection + greedy shrinking,
//! the persisted corpus) lives in `sim_core::check`; this module supplies
//! the *concrete* pieces that need the full simulator API:
//!
//! * [`Scenario`] — a point in the supported configuration space (CC ×
//!   CPU config × media × 1–1024 connections (log-biased) × pacing stride × shallow
//!   buffers × netem impairments × cross-traffic × ACK cadence × uplink
//!   qdisc (FIFO/CoDel/FQ-CoDel) × the fleet
//!   axis: device count, uniform-vs-mixed tier/CC population, shared
//!   bottleneck rate and qdisc), with a
//!   deterministic `Scenario::draw` from a [`SimRng`] and a compact
//!   `key=value` spec codec so every failure is a one-line repro;
//! * `oracles` — the invariant library: physical conservation, protocol
//!   sanity, counter identities, paper-derived metamorphic relations
//!   (Eq. 2 / Table 2 stride envelope, CPU-frequency monotonicity, Fig. 7 pacing
//!   RTT inflation), and the fleet oracles (shared-bottleneck
//!   conservation, Jain-index bounds + permutation invariance);
//! * [`fuzz`] — the batch driver, built on `sim_core::sweep::run_sweep_streaming`
//!   so results are bit-identical for any `--jobs` value;
//! * `shrink_scenario` — bisection over the numeric axes plus greedy
//!   strategy-level simplification (drop impairments, collapse media to
//!   Ethernet) while the original oracle still fails;
//! * [`mutant_check`] — activates each intentional `tcp_sim::mutants`
//!   mutation in turn and requires at least one oracle to catch it.

use congestion::master::MasterConfig;
use congestion::CcKind;
use cpu_model::{CostModel, CpuConfig, DeviceProfile};
use netsim::media::MediaProfile;
use netsim::Qdisc;
use sim_core::check::{evaluate, shrink, shrink_u64, NamedOracle, Violation};
use sim_core::rng::SimRng;
use sim_core::sweep::{run_sweep_streaming, SweepCell, SweepOptions};
use sim_core::time::SimDuration;
use sim_core::units::Bandwidth;
use tcp_sim::fleet::DeviceSpec;
use tcp_sim::mutants::{self, Mutant};
use tcp_sim::{FleetConfig, PacingConfig, SimConfig, SimResult, StackSim};
use test_support::{ALL_CC, ALL_CPU, ALL_MEDIA};

/// One point in the supported configuration space.
///
/// All fields are integers (loss is parts-per-million) so the spec string
/// round-trips exactly — a shrunk repro re-runs bit-identically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scenario {
    /// Congestion controller.
    pub cc: CcKind,
    /// Table 1 CPU configuration.
    pub cpu: CpuConfig,
    /// Media profile (§3.2 + 5G).
    pub media: MediaProfile,
    /// Parallel connections, 1–1024: the paper sweeps 1–20; the upper
    /// decades exercise the flow-state arena at fleet scale.
    pub conns: u64,
    /// Pacing stride (Eq. 2).
    pub stride: u64,
    /// Force pacing off via the master module (§5).
    pub pacing_off: bool,
    /// Shallow-buffer override of the uplink queue (§5.2.3), packets.
    pub queue: Option<u64>,
    /// Uplink netem loss, parts per million.
    pub loss_ppm: u32,
    /// Extra uplink netem jitter, microseconds.
    pub jitter_us: u64,
    /// Poisson cross-traffic at the bottleneck, Mbps (0 = none).
    pub cross_mbps: u64,
    /// Classic delayed-ACK cadence (`None` = GRO-coalescing server).
    pub ack_per_segs: Option<u64>,
    /// Simulated duration, milliseconds.
    pub dur_ms: u64,
    /// Warmup before the measurement window, milliseconds.
    pub warmup_ms: u64,
    /// Simulation seed (netem draws, WiFi variation).
    pub seed: u64,
    /// Fleet device count; 0 disables fleet mode (the default, so every
    /// pre-fleet corpus line parses unchanged). When > 0, `conns` is
    /// normalised to one connection per device.
    pub fleet: u64,
    /// Fleet population: 0 = uniform (every device uses this scenario's
    /// cc/cpu/media), 1 = the canonical mixed tier/CC/media population.
    pub fmix: u64,
    /// Shared-bottleneck rate in Mbps; 0 = no shared hop (the degenerate
    /// fleet the differential tests pin down).
    pub fshared: u64,
    /// Queue discipline at the shared bottleneck.
    pub fqdisc: Qdisc,
    /// Queue discipline at the single-device uplink bottleneck (ignored
    /// by fleet runs, whose access links come from the device specs).
    pub qdisc: Qdisc,
}

fn cc_name(cc: CcKind) -> &'static str {
    match cc {
        CcKind::Cubic => "cubic",
        CcKind::Bbr => "bbr",
        CcKind::Bbr2 => "bbr2",
        CcKind::Bbr3 => "bbr3",
        CcKind::Reno => "reno",
    }
}

fn qdisc_name(q: Qdisc) -> &'static str {
    match q {
        Qdisc::Fifo => "fifo",
        Qdisc::Codel => "codel",
        Qdisc::FqCodel => "fqcodel",
    }
}

fn parse_qdisc(key: &str, v: &str) -> Result<Qdisc, String> {
    match v {
        "fifo" => Ok(Qdisc::Fifo),
        "codel" => Ok(Qdisc::Codel),
        "fqcodel" => Ok(Qdisc::FqCodel),
        other => Err(format!("{key}: expected fifo/codel/fqcodel, got {other:?}")),
    }
}

fn cpu_name(cpu: CpuConfig) -> &'static str {
    match cpu {
        CpuConfig::LowEnd => "low",
        CpuConfig::MidEnd => "mid",
        CpuConfig::HighEnd => "high",
        CpuConfig::Default => "default",
    }
}

fn media_name(media: MediaProfile) -> &'static str {
    match media {
        MediaProfile::Ethernet => "eth",
        MediaProfile::Wifi => "wifi",
        MediaProfile::Lte => "lte",
        MediaProfile::FiveG => "5g",
    }
}

impl Scenario {
    /// Draw a scenario uniformly-ish from the supported space. Impairment
    /// axes are biased toward "absent" so the common case stays the clean
    /// path and the metamorphic oracles (which need clean runs) fire often.
    pub(crate) fn draw(rng: &mut SimRng) -> Scenario {
        let dur_ms = rng.range_inclusive(400, 900);
        let mut s = Scenario {
            cc: ALL_CC[rng.below(ALL_CC.len() as u64) as usize],
            cpu: ALL_CPU[rng.below(ALL_CPU.len() as u64) as usize],
            media: ALL_MEDIA[rng.below(ALL_MEDIA.len() as u64) as usize],
            conns: {
                // Log-biased over 1–1024: a uniform octave, then a value
                // within it. Small counts (the paper's 1–20 sweep regime)
                // stay common while fleet-scale counts that stress the
                // flow-state arena turn up every few draws.
                let hi = 1u64 << rng.range_inclusive(0, 10);
                rng.range_inclusive((hi / 2).max(1), hi)
            },
            stride: [1, 1, 2, 4, 8, 16, 32][rng.below(7) as usize],
            pacing_off: rng.chance(0.25),
            queue: if rng.chance(0.25) {
                Some(rng.range_inclusive(5, 60))
            } else {
                None
            },
            loss_ppm: if rng.chance(0.3) {
                rng.range_inclusive(100, 10_000) as u32
            } else {
                0
            },
            jitter_us: if rng.chance(0.3) {
                rng.range_inclusive(50, 2_000)
            } else {
                0
            },
            cross_mbps: if rng.chance(0.2) {
                rng.range_inclusive(10, 400)
            } else {
                0
            },
            ack_per_segs: if rng.chance(0.2) {
                Some(rng.range_inclusive(1, 8))
            } else {
                None
            },
            dur_ms,
            warmup_ms: rng.range_inclusive(150, 300),
            seed: rng.range_inclusive(1, 999_999),
            fleet: 0,
            fmix: 0,
            fshared: 0,
            fqdisc: Qdisc::Fifo,
            qdisc: if rng.chance(0.3) {
                // AQM on the uplink bottleneck: both CoDel and FQ-CoDel
                // turn up every few draws.
                [Qdisc::Codel, Qdisc::FqCodel][rng.below(2) as usize]
            } else {
                Qdisc::Fifo
            },
        };
        // Fleet axis on ~1 draw in 5: single-device scenarios stay the bulk
        // of the stream while shared-bottleneck arbitration, heterogeneous
        // populations and all three qdiscs turn up every few draws.
        if rng.chance(0.2) {
            s.fleet = rng.range_inclusive(2, 12);
            s.fmix = u64::from(rng.chance(0.5));
            if rng.chance(0.7) {
                s.fshared = rng.range_inclusive(20, 300);
            }
            if rng.chance(0.5) {
                s.fqdisc = [Qdisc::Codel, Qdisc::FqCodel][rng.below(2) as usize];
            }
            s.conns = s.fleet;
        }
        s
    }

    /// Compact one-line spec: comma-separated `key=value` pairs, the exact
    /// input `simcheck --scenario` accepts and the corpus stores.
    pub fn spec_string(&self) -> String {
        let mut spec = format!(
            "cc={},cpu={},media={},conns={},stride={},pacing={},queue={},loss={},jitter={},cross={},acks={},dur={},warmup={},seed={}",
            cc_name(self.cc),
            cpu_name(self.cpu),
            media_name(self.media),
            self.conns,
            self.stride,
            if self.pacing_off { "off" } else { "on" },
            self.queue.map(|q| q.to_string()).unwrap_or_else(|| "-".into()),
            self.loss_ppm,
            self.jitter_us,
            self.cross_mbps,
            self.ack_per_segs.map(|a| a.to_string()).unwrap_or_else(|| "-".into()),
            self.dur_ms,
            self.warmup_ms,
            self.seed,
        );
        // Conditional keys appear only when their axis is active, so older
        // specs (and the corpus they live in) stay byte-identical: qdisc
        // only when the uplink runs AQM, fleet keys only in fleet mode.
        if self.qdisc != Qdisc::Fifo {
            spec.push_str(&format!(",qdisc={}", qdisc_name(self.qdisc)));
        }
        if self.fleet > 0 {
            spec.push_str(&format!(
                ",fleet={},fmix={},fshared={},fqdisc={}",
                self.fleet,
                self.fmix,
                self.fshared,
                qdisc_name(self.fqdisc),
            ));
        }
        spec
    }

    /// Parse a [`Scenario::spec_string`] back. Unknown keys, malformed
    /// values and an inconsistent warmup are errors, never panics; numeric
    /// values out of range are clamped into it, so every parsed scenario
    /// configures and runs in bounded time.
    pub fn parse(spec: &str) -> Result<Scenario, String> {
        let mut s = Scenario {
            cc: CcKind::Bbr,
            cpu: CpuConfig::LowEnd,
            media: MediaProfile::Ethernet,
            conns: 1,
            stride: 1,
            pacing_off: false,
            queue: None,
            loss_ppm: 0,
            jitter_us: 0,
            cross_mbps: 0,
            ack_per_segs: None,
            dur_ms: 600,
            warmup_ms: 200,
            seed: 1,
            fleet: 0,
            fmix: 0,
            fshared: 0,
            fqdisc: Qdisc::Fifo,
            qdisc: Qdisc::Fifo,
        };
        fn int(key: &str, v: &str) -> Result<u64, String> {
            v.parse::<u64>()
                .map_err(|_| format!("{key}: bad integer {v:?}"))
        }
        fn opt_int(key: &str, v: &str) -> Result<Option<u64>, String> {
            if v == "-" {
                Ok(None)
            } else {
                int(key, v).map(Some)
            }
        }
        for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, v) = part
                .trim()
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got {part:?}"))?;
            match key {
                "cc" => {
                    s.cc = *ALL_CC
                        .iter()
                        .find(|c| cc_name(**c) == v)
                        .ok_or_else(|| format!("unknown cc {v:?}"))?
                }
                "cpu" => {
                    s.cpu = *ALL_CPU
                        .iter()
                        .find(|c| cpu_name(**c) == v)
                        .ok_or_else(|| format!("unknown cpu {v:?}"))?
                }
                "media" => {
                    s.media = *ALL_MEDIA
                        .iter()
                        .find(|m| media_name(**m) == v)
                        .ok_or_else(|| format!("unknown media {v:?}"))?
                }
                "conns" => s.conns = int(key, v)?.clamp(1, 1024),
                "stride" => s.stride = int(key, v)?.clamp(1, 1_024),
                "pacing" => {
                    s.pacing_off = match v {
                        "on" => false,
                        "off" => true,
                        other => return Err(format!("pacing: expected on/off, got {other:?}")),
                    }
                }
                "queue" => s.queue = opt_int(key, v)?.map(|q| q.max(1)),
                "loss" => s.loss_ppm = int(key, v)?.min(1_000_000) as u32,
                // A quarter of conn-progress's shortest window, so netem
                // jitter never passes for a stall.
                "jitter" => s.jitter_us = int(key, v)?.min(75_000),
                "cross" => s.cross_mbps = int(key, v)?.min(100_000),
                "acks" => s.ack_per_segs = opt_int(key, v)?.map(|a| a.max(1)),
                "dur" => s.dur_ms = int(key, v)?.clamp(50, 300_000),
                "warmup" => s.warmup_ms = int(key, v)?,
                "seed" => s.seed = int(key, v)?,
                "fleet" => s.fleet = int(key, v)?.min(64),
                "fmix" => s.fmix = int(key, v)?.min(1),
                "fshared" => s.fshared = int(key, v)?.min(10_000),
                "fqdisc" => s.fqdisc = parse_qdisc(key, v)?,
                "qdisc" => s.qdisc = parse_qdisc(key, v)?,
                other => return Err(format!("unknown key {other:?}")),
            }
        }
        if s.warmup_ms >= s.dur_ms {
            return Err(format!(
                "warmup {} must be shorter than dur {}",
                s.warmup_ms, s.dur_ms
            ));
        }
        if s.fleet > 0 {
            // One connection per device keeps `conns` and the fleet axis
            // coherent without a second degree of freedom in the spec.
            s.conns = s.fleet;
        }
        Ok(s)
    }

    /// Materialise the full simulator configuration.
    pub(crate) fn to_config(&self) -> SimConfig {
        let mut path = self.media.path_config();
        if let Some(q) = self.queue {
            path = path.with_queue_packets(q as usize);
        }
        if self.loss_ppm > 0 {
            path.forward_netem = path
                .forward_netem
                .clone()
                .with_loss(f64::from(self.loss_ppm) / 1e6);
        }
        if self.jitter_us > 0 {
            path.forward_netem.jitter += SimDuration::from_micros(self.jitter_us);
        }
        let mut builder = SimConfig::builder(
            DeviceProfile::pixel4(),
            self.cpu,
            self.cc,
            self.conns as usize,
        )
        .path(path)
        .qdisc(self.qdisc)
        .pacing(PacingConfig::with_stride(self.stride))
        .ack_per_segs(self.ack_per_segs)
        .duration(SimDuration::from_millis(self.dur_ms))
        .warmup(SimDuration::from_millis(self.warmup_ms))
        .sample_interval(None)
        .seed(self.seed);
        if self.pacing_off {
            builder = builder.master(MasterConfig::pacing_off());
        }
        if self.cross_mbps > 0 {
            builder = builder.cross_traffic(netsim::crosstraffic::CrossTrafficConfig::at(
                Bandwidth::from_mbps(self.cross_mbps),
            ));
        }
        if let Some(fc) = self.fleet_config() {
            builder = builder.fleet(fc);
        }
        // Parsing, drawing, and shrinking all maintain warmup < dur,
        // stride >= 1, conns >= 1, queue >= 1, so a Scenario is always a
        // valid configuration.
        builder
            .build()
            .expect("scenario invariants guarantee a valid config")
    }

    /// The fleet this scenario runs, if the axis is active — the single
    /// source of truth shared by `to_config` and the fleet oracles.
    fn fleet_config(&self) -> Option<FleetConfig> {
        if self.fleet == 0 {
            return None;
        }
        let mut fc = if self.fmix == 1 {
            FleetConfig::mixed(self.fleet as usize)
        } else {
            FleetConfig::uniform(
                self.fleet as usize,
                DeviceSpec::new(self.cpu, self.cc, self.media),
            )
        };
        if self.fshared > 0 {
            fc = fc.with_shared(FleetConfig::pop_uplink(
                Bandwidth::from_mbps(self.fshared),
                self.fqdisc,
            ));
        }
        Some(fc)
    }

    /// No impairments: loss, cross traffic, shallow buffers, and AQM
    /// absent (CoDel's deliberate drops move the metamorphic relations
    /// off the terrain the paper establishes them on).
    fn clean(&self) -> bool {
        self.loss_ppm == 0
            && self.cross_mbps == 0
            && self.queue.is_none()
            && self.qdisc == Qdisc::Fifo
    }

    /// A controller that actually paces (BBR family with pacing enabled).
    /// The canonical mixed fleet always contains BBR-family devices, so a
    /// mixed-fleet run paces whenever the master module doesn't forbid it.
    fn paced_bbr(&self) -> bool {
        if self.fleet > 0 && self.fmix == 1 {
            return !self.pacing_off;
        }
        matches!(self.cc, CcKind::Bbr | CcKind::Bbr2 | CcKind::Bbr3) && !self.pacing_off
    }

    /// Length of the measurement window in milliseconds.
    fn window_ms(&self) -> u64 {
        self.dur_ms.saturating_sub(self.warmup_ms)
    }
}

/// Everything the oracles get to look at: the scenario, its result, and
/// the companion runs the metamorphic relations need (present only when
/// the scenario is eligible for that relation — see `run_scenario`).
pub struct ScenarioRun {
    /// The drawn scenario.
    pub scenario: Scenario,
    /// Result of the scenario itself.
    pub result: SimResult,
    /// Bit-identical re-run (determinism spot-check subset).
    pub rerun: Option<SimResult>,
    /// Same scenario at stride 1 (Eq. 2 / Table 2 stride envelope).
    pub stride_one: Option<SimResult>,
    /// Same scenario on the High-End CPU (frequency monotonicity).
    pub cpu_high: Option<SimResult>,
    /// Same scenario with pacing forced off (Fig. 7 RTT inflation).
    pub unpaced: Option<SimResult>,
}

/// Run a scenario plus whichever companion runs its oracles are eligible
/// for. Eligibility guards keep the metamorphic relations on the terrain
/// where the paper makes them: clean paths, Ethernet where the claim is
/// Ethernet-specific, long-enough measurement windows.
pub(crate) fn run_scenario(s: &Scenario) -> ScenarioRun {
    let result = StackSim::new(s.to_config()).run();
    let rerun = if s.seed.is_multiple_of(5) {
        Some(StackSim::new(s.to_config()).run())
    } else {
        None
    };
    // Eq. 2 stride envelope: stride stretches idle time, so goodput is
    // bounded by stride 1 above and by the 1/stride law (Table 2's
    // post-plateau regime) below.
    let stride_one = if s.fleet == 0
        && s.stride > 1
        && s.paced_bbr()
        && s.clean()
        && s.media == MediaProfile::Ethernet
        && s.cpu == CpuConfig::HighEnd
        && s.ack_per_segs.is_none()
    {
        let mut alt = s.clone();
        alt.stride = 1;
        Some(StackSim::new(alt.to_config()).run())
    } else {
        None
    };
    // Goodput is monotone non-decreasing in CPU frequency (the paper's
    // whole mechanism: more cycles, never less goodput) — checked on
    // clean paths from the Low-End config.
    // Fleet runs take their CPUs/strides/pacing from the device specs, so
    // the single-device metamorphic companions don't apply there.
    let cpu_high =
        if s.fleet == 0 && s.cpu == CpuConfig::LowEnd && s.clean() && s.window_ms() >= 300 {
            let mut alt = s.clone();
            alt.cpu = CpuConfig::HighEnd;
            Some(StackSim::new(alt.to_config()).run())
        } else {
            None
        };
    // Fig. 7: disabling pacing never meaningfully lowers RTT (it inflates
    // it — unpaced bursts queue at the bottleneck). Only in the paper's
    // few-flows regime: with hundreds of flows the bottleneck queue is
    // congestion-limited either way and the relation can invert. And only
    // for BBR v1, the variant Fig. 7 measures: v2/v3's inflight_hi loss
    // response clamps the unpaced flood as soon as its bursts overflow
    // the buffer, which can leave the unpaced queue *shallower* than the
    // paced one.
    let unpaced = if s.fleet == 0
        && s.cc == CcKind::Bbr
        && !s.pacing_off
        && s.clean()
        && s.media == MediaProfile::Ethernet
        && (2..=64).contains(&s.conns)
        && s.window_ms() >= 300
    {
        let mut alt = s.clone();
        alt.pacing_off = true;
        Some(StackSim::new(alt.to_config()).run())
    } else {
        None
    };
    ScenarioRun {
        scenario: s.clone(),
        result,
        rerun,
        stride_one,
        cpu_high,
        unpaced,
    }
}

fn delivered_window(res: &SimResult) -> u64 {
    res.per_conn.iter().map(|c| c.delivered_pkts).sum()
}

/// The invariant-oracle library (see module docs for the taxonomy).
pub(crate) fn oracles() -> Vec<NamedOracle<ScenarioRun>> {
    fn o(
        name: &'static str,
        check: fn(&ScenarioRun) -> Result<(), String>,
    ) -> NamedOracle<ScenarioRun> {
        NamedOracle { name, check }
    }
    vec![
        o("goodput-line-rate", |r| {
            // Physical conservation: goodput cannot exceed the uplink's
            // hard rate ceiling (envelope top for variable media). A fleet
            // is bounded by its devices' summed access ceilings, tightened
            // by the shared bottleneck when one exists.
            let ceiling = match r.scenario.fleet_config() {
                Some(fc) => {
                    let access: f64 = fc
                        .devices
                        .iter()
                        .map(|d| d.media.path_config().max_forward_rate().as_mbps_f64())
                        .sum();
                    match &fc.shared {
                        Some(link) => access.min(link.rate.as_mbps_f64()),
                        None => access,
                    }
                }
                None => r
                    .scenario
                    .media
                    .path_config()
                    .max_forward_rate()
                    .as_mbps_f64(),
            };
            let bound = ceiling * 1.1 + 1.0;
            if r.result.goodput_mbps() <= bound {
                Ok(())
            } else {
                Err(format!(
                    "goodput {:.1} Mbps exceeds line-rate bound {bound:.1}",
                    r.result.goodput_mbps(),
                ))
            }
        }),
        o("conservation-delivered", |r| {
            let sent = r.result.counters.get("pkts_sent");
            let delivered = delivered_window(&r.result);
            if delivered <= sent {
                Ok(())
            } else {
                Err(format!("delivered {delivered} > sent {sent}"))
            }
        }),
        o("rtt-floor", |r| {
            // RTT can never undershoot the propagation + fixed-netem floor.
            if r.result.mean_rtt_ms <= 0.0 {
                return Ok(());
            }
            // Mixed fleets span media: only the *shortest* device path
            // bounds the population mean from below.
            let base = match r.scenario.fleet_config() {
                Some(fc) => fc
                    .devices
                    .iter()
                    .map(|d| d.media.path_config().base_rtt().as_millis_f64())
                    .fold(f64::INFINITY, f64::min),
                None => r.scenario.media.path_config().base_rtt().as_millis_f64(),
            };
            if r.result.mean_rtt_ms >= base * 0.9 {
                Ok(())
            } else {
                Err(format!(
                    "mean RTT {:.3} ms below base path RTT {:.3} ms",
                    r.result.mean_rtt_ms, base
                ))
            }
        }),
        o("cpu-busy-bound", |r| {
            // Booked busy time can exceed the run length by the terminal
            // backlog: a saturated CPU books work ahead of the clock, and
            // TSQ caps that backlog at ~2 socket buffers per flow, so the
            // allowance scales with the connection count (up to ~3 ms of
            // booked Low-End work per flow was observed; 4 ms/flow keeps
            // headroom while still catching systematic double-charging).
            let grace = 150 + 4 * r.scenario.conns;
            let limit = SimDuration::from_millis(r.scenario.dur_ms + grace);
            if r.result.cpu.busy_time <= limit {
                Ok(())
            } else {
                Err(format!(
                    "CPU busy {:?} exceeds run length {} ms (+{} ms grace)",
                    r.result.cpu.busy_time, r.scenario.dur_ms, grace
                ))
            }
        }),
        o("cycles-partition", |r| {
            let sum: u64 = r.result.cpu.cycles_by_category.values().sum();
            if sum != r.result.cpu.total_cycles {
                return Err(format!(
                    "categories sum {} != total {}",
                    sum, r.result.cpu.total_cycles
                ));
            }
            let g = |n| r.result.counters.get(n);
            let parts = g("cycles_steady_timers")
                + g("cycles_steady_acks")
                + g("cycles_steady_cc_model")
                + g("cycles_steady_data")
                + g("cycles_steady_other");
            if parts == g("cycles_steady_total") {
                Ok(())
            } else {
                Err(format!(
                    "steady parts {} != steady total {}",
                    parts,
                    g("cycles_steady_total")
                ))
            }
        }),
        o("timer-accounting", |r| {
            let fires = r.result.counters.get("timer_fires");
            let arms = r.result.counters.get("timer_arms");
            if !r.scenario.paced_bbr() && (fires != 0 || arms != 0) {
                return Err(format!(
                    "unpaced run armed/fired pacing timers (arms {arms}, fires {fires})"
                ));
            }
            if fires > arms + r.scenario.conns {
                return Err(format!(
                    "fires {} > arms {} + conns {}",
                    fires, arms, r.scenario.conns
                ));
            }
            Ok(())
        }),
        o("timer-cycles-consistent", |r| {
            // Exact identity: every timer fire and period-open arm charges
            // its CostModel cycles into the "timers" category, and nothing
            // else does. Catches Mutant::SkipTimerFireCharge.
            let cost = CostModel::mobile_default();
            let fires = r.result.counters.get("timer_fires");
            let arms = r.result.counters.get("timer_arms");
            let want = fires * cost.timer_fire + arms * cost.timer_arm;
            let got = r
                .result
                .cpu
                .cycles_by_category
                .get("timers")
                .copied()
                .unwrap_or(0);
            if got == want {
                Ok(())
            } else {
                Err(format!(
                    "cycles[timers] {got} != fires {fires}x{} + arms {arms}x{} = {want}",
                    cost.timer_fire, cost.timer_arm
                ))
            }
        }),
        o("retx-accounting", |r| {
            // The event loop's retx counter must agree with the
            // scoreboard's own total. Catches Mutant::SkipRetxCount.
            let counted = r.result.counters.get("retx_pkts");
            if r.result.total_retx == counted {
                Ok(())
            } else {
                Err(format!(
                    "scoreboard retx {} != counted retx {}",
                    r.result.total_retx, counted
                ))
            }
        }),
        o("seq-sanity", |r| {
            let n = r.result.counters.get("seq_regressions");
            if n == 0 {
                Ok(())
            } else {
                Err(format!("{n} terminal sequence regressions"))
            }
        }),
        o("sack-coherence", |r| {
            let n = r.result.counters.get("sack_incoherent");
            if n == 0 {
                Ok(())
            } else {
                Err(format!("{n} incoherent SACK blocks emitted"))
            }
        }),
        o("rx-conservation", |r| {
            // The receiver cannot see more packets than survived the wire
            // (arrivals scheduled past the horizon are never delivered, so
            // this is <=, not ==). Catches Mutant::SackClaimExtra.
            let g = |n| r.result.counters.get(n);
            let seen = g("rx_pkts_received") + g("rx_duplicates");
            if seen <= g("rx_pkts_accepted") {
                Ok(())
            } else {
                Err(format!(
                    "receiver saw {seen} pkts but only {} survived the wire",
                    g("rx_pkts_accepted")
                ))
            }
        }),
        o("rx-duplicates-bounded", |r| {
            // Every duplicate reception requires a retransmission (the
            // path never duplicates packets).
            let dups = r.result.counters.get("rx_duplicates");
            if dups <= r.result.total_retx {
                Ok(())
            } else {
                Err(format!(
                    "{dups} duplicate receptions but only {} retransmissions",
                    r.result.total_retx
                ))
            }
        }),
        o("wheel-conservation", |r| {
            let g = |n| r.result.counters.get(n);
            let out = g("wheel_popped") + g("wheel_cancelled") + g("wheel_pending");
            if g("wheel_scheduled") == out {
                Ok(())
            } else {
                Err(format!(
                    "wheel scheduled {} != popped+cancelled+pending {}",
                    g("wheel_scheduled"),
                    out
                ))
            }
        }),
        o("fairness-valid", |r| {
            if (0.0..=1.0 + 1e-9).contains(&r.result.fairness) {
                Ok(())
            } else {
                Err(format!("Jain index {} outside [0,1]", r.result.fairness))
            }
        }),
        o("pool-identity", |r| {
            let g = |n| r.result.counters.get(n);
            for (miss, take, reuse) in [
                ("pool_run_misses", "pool_run_takes", "pool_run_reuses"),
                ("pool_sack_misses", "pool_sack_takes", "pool_sack_reuses"),
                ("pool_slab_misses", "pool_slab_takes", "pool_slab_reuses"),
                ("pool_stamp_misses", "pool_stamp_takes", "pool_stamp_reuses"),
            ] {
                if g(miss) != g(take) - g(reuse) {
                    return Err(format!(
                        "{miss} {} != {take} {} - {reuse} {}",
                        g(miss),
                        g(take),
                        g(reuse)
                    ));
                }
            }
            Ok(())
        }),
        o("conn-progress", |r| {
            // On a clean path with a real measurement window, every
            // paced-BBR connection keeps moving — a silent stall is the
            // lost-wakeup signature. Catches Mutant::DropPacingArm. Gated
            // to the regime where progress is actually guaranteed: each
            // connection's fair share of the medium inside the window must
            // cover a comfortable packet budget. On slow media (LTE at
            // ~18 Mbps) a large flock can legitimately starve one member
            // for a whole short window — 38 flows there leave under a
            // dozen fair-share packets each, well inside startup jitter.
            let s = &r.scenario;
            if !(s.paced_bbr() && s.clean() && s.conns <= 64 && s.window_ms() >= 300) {
                return Ok(());
            }
            let window = SimDuration::from_millis(s.window_ms());
            let fair_share_pkts =
                s.media.path_config().forward.rate.bytes_in(window) / (s.conns * 1500);
            if fair_share_pkts < 64 {
                return Ok(());
            }
            // A contended shared bottleneck can legitimately starve one
            // cohort inside a short window; progress is only guaranteed on
            // private paths (including degenerate shared-less fleets).
            if s.fleet > 0 && s.fshared > 0 {
                return Ok(());
            }
            for (i, conn) in r.result.per_conn.iter().enumerate() {
                if conn.delivered_pkts == 0 {
                    return Err(format!(
                        "conn {i} delivered nothing in a {} ms clean window",
                        s.window_ms()
                    ));
                }
            }
            Ok(())
        }),
        o("stride-envelope", |r| {
            // Eq. 2 + Table 2: a longer stride can never *create* goodput
            // (it only stretches idle time), and in the worst case — the
            // socket-buffer cap binding immediately — throughput falls as
            // 1/stride, never faster.
            let Some(base) = &r.stride_one else {
                return Ok(());
            };
            let (g_s, g_1) = (r.result.goodput_mbps(), base.goodput_mbps());
            let stride = r.scenario.stride as f64;
            if g_s > 1.15 * g_1 + 5.0 {
                return Err(format!(
                    "stride {} goodput {g_s:.1} exceeds stride-1 goodput {g_1:.1}",
                    r.scenario.stride
                ));
            }
            if g_s < 0.4 * g_1 / stride - 5.0 {
                return Err(format!(
                    "stride {} goodput {g_s:.1} below the 1/stride law ({g_1:.1}/{stride})",
                    r.scenario.stride
                ));
            }
            Ok(())
        }),
        o("cpu-monotone", |r| {
            let Some(high) = &r.cpu_high else {
                return Ok(());
            };
            let (g_low, g_high) = (r.result.goodput_mbps(), high.goodput_mbps());
            if g_high >= 0.9 * g_low - 1.0 {
                Ok(())
            } else {
                Err(format!(
                    "High-End goodput {g_high:.1} below Low-End {g_low:.1}"
                ))
            }
        }),
        o("pacing-rtt-inflation", |r| {
            // Fig. 7: removing pacing floods the bottleneck queue — the
            // unpaced RTT must not come out meaningfully below the paced.
            let Some(unpaced) = &r.unpaced else {
                return Ok(());
            };
            if r.result.mean_rtt_ms <= 0.0 || unpaced.mean_rtt_ms <= 0.0 {
                return Ok(());
            }
            if unpaced.mean_rtt_ms >= 0.95 * r.result.mean_rtt_ms {
                Ok(())
            } else {
                Err(format!(
                    "unpaced RTT {:.3} ms below paced {:.3} ms",
                    unpaced.mean_rtt_ms, r.result.mean_rtt_ms
                ))
            }
        }),
        o("fleet-conservation", |r| {
            // Shared-bottleneck conservation, two clauses. (a) Exact
            // admission accounting: every data packet leaving an access
            // link is offered to the shared hop, so
            //   pkts_sent == netem_drops + queue_drops
            //             + shared_drops + shared_pkts
            // — any hole here (Mutant::FleetSharedBypass) means packets
            // teleported past the arbiter. (b) Capacity: payload delivered
            // across the fleet cannot exceed capacity x run length.
            let s = &r.scenario;
            let Some(f) = &r.result.fleet else {
                return if s.fleet > 0 {
                    Err("fleet scenario reported no fleet metrics".into())
                } else {
                    Ok(())
                };
            };
            if s.fshared == 0 {
                return Ok(()); // degenerate fleet: no shared hop to conserve
            }
            let g = |n| r.result.counters.get(n);
            let offered = g("shared_pkts") + g("shared_drops");
            let accounted = g("netem_drops") + g("queue_drops") + offered;
            if g("pkts_sent") != accounted {
                return Err(format!(
                    "pkts_sent {} != drops+shared admissions {} — {} packets \
                     bypassed the shared bottleneck",
                    g("pkts_sent"),
                    accounted,
                    g("pkts_sent").saturating_sub(accounted)
                ));
            }
            let cap_bytes = s.fshared as f64 * 1e6 / 8.0 * (s.dur_ms as f64 / 1e3);
            if f.delivered_bytes as f64 <= cap_bytes {
                Ok(())
            } else {
                Err(format!(
                    "fleet delivered {} bytes but the shared link carries at most {:.0}",
                    f.delivered_bytes, cap_bytes
                ))
            }
        }),
        o("fleet-jain-bounds", |r| {
            // Jain's index lives in [1/n, 1] and is permutation-invariant.
            // Scenario fleets run one connection per device, so per-device
            // rates can be recomputed straight from per_conn — catching a
            // reported index that drifts from the definition
            // (Mutant::FleetJainMiscount) and any order dependence.
            let Some(f) = &r.result.fleet else {
                return Ok(());
            };
            let eps = 1e-9;
            let n = f.devices as f64;
            if !(1.0 / n - eps..=1.0 + eps).contains(&f.jain_devices) {
                return Err(format!(
                    "device Jain {} outside [{:.4}, 1]",
                    f.jain_devices,
                    1.0 / n
                ));
            }
            for grp in &f.cc_groups {
                let m = grp.devices as f64;
                if !(1.0 / m - eps..=1.0 + eps).contains(&grp.jain) {
                    return Err(format!(
                        "{} cohort Jain {} outside [{:.4}, 1]",
                        grp.cc,
                        grp.jain,
                        1.0 / m
                    ));
                }
            }
            if r.result.per_conn.len() == f.devices as usize {
                let rates: Vec<f64> = r
                    .result
                    .per_conn
                    .iter()
                    .map(|c| c.goodput.as_mbps_f64())
                    .collect();
                let recomputed = sim_core::metrics::jain(&rates);
                let permuted: Vec<f64> = rates.iter().rev().copied().collect();
                let jain_rev = sim_core::metrics::jain(&permuted);
                if (recomputed - f.jain_devices).abs() > 1e-6 {
                    return Err(format!(
                        "reported device Jain {} != recomputed {recomputed}",
                        f.jain_devices
                    ));
                }
                if (recomputed - jain_rev).abs() > 1e-6 {
                    return Err(format!(
                        "Jain not permutation-invariant: {recomputed} vs reversed {jain_rev}"
                    ));
                }
            }
            Ok(())
        }),
        o("aqm-accounting", |r| {
            // Per-qdisc drop attribution: the stack-side `aqm_drops` tally
            // and the links' own `LinkStats::aqm_drops` are counted
            // independently at every drop site and must agree exactly
            // (both keys are absent on FIFO-only paths). Catches
            // Mutant::AqmDropMiscount.
            let stack = r.result.counters.get("aqm_drops");
            let links = r.result.counters.get("link_aqm_drops");
            if stack == links {
                Ok(())
            } else {
                Err(format!(
                    "stack counted {stack} AQM drops but the links recorded {links}"
                ))
            }
        }),
        o("paced-cc-arms-timers", |r| {
            // A paced controller that moves real traffic must arm pacing
            // timers: zero arms with nonzero sends means the controller's
            // pacing request was lost between the CC and the stack — the
            // "new variant missed a dispatch site" hole
            // Mutant::Bbr3PacingDisarm drills into the CC output cache.
            if !r.scenario.paced_bbr() {
                return Ok(());
            }
            let sent = r.result.counters.get("pkts_sent");
            let arms = r.result.counters.get("timer_arms");
            if sent > 100 && arms == 0 {
                Err(format!(
                    "paced run sent {sent} pkts without arming a single pacing timer"
                ))
            } else {
                Ok(())
            }
        }),
        o("determinism-rerun", |r| {
            let Some(again) = &r.rerun else {
                return Ok(());
            };
            let a = &r.result;
            if a.total_goodput != again.total_goodput
                || a.total_retx != again.total_retx
                || a.counters.get("pkts_sent") != again.counters.get("pkts_sent")
                || a.cpu.total_cycles != again.cpu.total_cycles
            {
                Err(format!(
                    "rerun diverged: goodput {:.3}/{:.3}, retx {}/{}",
                    a.goodput_mbps(),
                    again.goodput_mbps(),
                    a.total_retx,
                    again.total_retx
                ))
            } else {
                Ok(())
            }
        }),
    ]
}

/// Run a scenario through every oracle.
pub fn check_scenario(s: &Scenario) -> Vec<Violation> {
    evaluate(&oracles(), &run_scenario(s))
}

/// Does re-checking `s` still fail one of the `original` oracle names?
fn still_fails(s: &Scenario, original: &[String]) -> bool {
    check_scenario(s)
        .iter()
        .any(|v| original.iter().any(|name| name == v.oracle))
}

/// Shrink a failing scenario: bisect the numeric axes (connections,
/// stride, duration), then greedily drop impairments and collapse the
/// media to Ethernet — keeping each move only while one of the original
/// oracles still fails. Deterministic, bounded work.
pub(crate) fn shrink_scenario(failing: &Scenario, violations: &[Violation]) -> Scenario {
    let names: Vec<String> = violations.iter().map(|v| v.oracle.to_string()).collect();
    let mut s = failing.clone();

    if s.conns > 1 {
        let probe = s.clone();
        let names_ref = &names;
        s.conns = shrink_u64(1, s.conns, move |c| {
            let mut t = probe.clone();
            t.conns = c;
            still_fails(&t, names_ref)
        });
    }
    if s.stride > 1 {
        let probe = s.clone();
        let names_ref = &names;
        s.stride = shrink_u64(1, s.stride, move |st| {
            let mut t = probe.clone();
            t.stride = st;
            still_fails(&t, names_ref)
        });
    }
    if s.dur_ms > 400 {
        let probe = s.clone();
        let names_ref = &names;
        s.dur_ms = shrink_u64(400, s.dur_ms, move |d| {
            let mut t = probe.clone();
            t.dur_ms = d;
            t.warmup_ms = t.warmup_ms.min(d.saturating_sub(100));
            still_fails(&t, names_ref)
        });
        s.warmup_ms = s.warmup_ms.min(s.dur_ms.saturating_sub(100));
    }

    // Strategy-level simplification: each candidate removes one source of
    // complexity; `shrink` adopts any candidate that still fails.
    let candidates = |cur: &Scenario| -> Vec<Scenario> {
        let mut out = Vec::new();
        let mut push = |f: &dyn Fn(&mut Scenario)| {
            let mut t = cur.clone();
            f(&mut t);
            if t != *cur {
                out.push(t);
            }
        };
        push(&|t| t.loss_ppm = 0);
        push(&|t| t.jitter_us = 0);
        push(&|t| t.cross_mbps = 0);
        push(&|t| t.queue = None);
        push(&|t| t.ack_per_segs = None);
        push(&|t| t.media = MediaProfile::Ethernet);
        push(&|t| t.pacing_off = false);
        push(&|t| t.qdisc = Qdisc::Fifo);
        out
    };
    shrink(s, candidates, |t| still_fails(t, &names), 24)
}

/// One failure found by [`fuzz`], with its shrunk repro.
pub struct FailureReport {
    /// Index of the scenario in the fuzz stream.
    pub index: u64,
    /// The scenario as drawn.
    pub scenario: Scenario,
    /// Its shrunk equivalent (fails at least one of the same oracles).
    pub shrunk: Scenario,
    /// The violations the original scenario produced.
    pub violations: Vec<Violation>,
    /// Where the shrunk run's trace was written, if a dir was given.
    pub trace_path: Option<std::path::PathBuf>,
}

/// Outcome of one fuzz batch.
pub struct FuzzOutcome {
    /// Scenarios executed.
    pub scenarios: u64,
    /// Failures, in scenario-index order (deterministic for any `jobs`).
    pub failures: Vec<FailureReport>,
}

/// One fuzz unit: index `i` of a batch rooted at `root_seed`. The cell's
/// RNG is engine-split from its key, so the drawn scenario depends only on
/// `(root_seed, i)` — never on jobs or scheduling.
struct FuzzCell {
    root_seed: u64,
    index: u64,
}

impl SweepCell for FuzzCell {
    type Output = (Scenario, Vec<Violation>);

    fn label(&self) -> String {
        format!("simcheck[{}]", self.index)
    }

    fn key_bytes(&self) -> Vec<u8> {
        format!("simcheck:{}:{}", self.root_seed, self.index).into_bytes()
    }

    fn run(&self, mut rng: SimRng) -> Self::Output {
        let s = Scenario::draw(&mut rng);
        let violations = check_scenario(&s);
        (s, violations)
    }

    /// Codec for the *campaign checkpoint* (never the cross-run cache —
    /// see [`Self::cacheable`]): the scenario's canonical spec string plus
    /// each violation as (oracle, detail), all length-prefixed.
    fn encode(output: &Self::Output) -> Option<Vec<u8>> {
        let (scenario, violations) = output;
        let mut buf = Vec::new();
        let put = |buf: &mut Vec<u8>, bytes: &[u8]| {
            buf.extend_from_slice(&(u32::try_from(bytes.len()).ok()?).to_le_bytes());
            buf.extend_from_slice(bytes);
            Some(())
        };
        put(&mut buf, scenario.spec_string().as_bytes())?;
        put(
            &mut buf,
            &(u32::try_from(violations.len()).ok()?).to_le_bytes(),
        )?;
        for v in violations {
            put(&mut buf, v.oracle.as_bytes())?;
            put(&mut buf, v.detail.as_bytes())?;
        }
        Some(buf)
    }

    fn decode(bytes: &[u8]) -> Option<Self::Output> {
        let mut rest = bytes;
        let mut next = || -> Option<&[u8]> {
            let len = u32::from_le_bytes(rest.get(..4)?.try_into().ok()?) as usize;
            let field = rest.get(4..4 + len)?;
            rest = &rest[4 + len..];
            Some(field)
        };
        let scenario = Scenario::parse(std::str::from_utf8(next()?).ok()?).ok()?;
        let count = u32::from_le_bytes(next()?.try_into().ok()?) as usize;
        let known = oracles();
        let mut violations = Vec::with_capacity(count.min(64));
        for _ in 0..count {
            let name = std::str::from_utf8(next()?).ok()?;
            // Oracle names are `&'static str`: map back through the
            // current oracle library; an unknown name (renamed oracle
            // since the checkpoint was written) rejects the record and
            // the engine recomputes.
            let oracle = known.iter().find(|o| o.name == name)?.name;
            let detail = std::str::from_utf8(next()?).ok()?.to_string();
            violations.push(Violation { oracle, detail });
        }
        if !rest.is_empty() {
            return None;
        }
        Some((scenario, violations))
    }

    /// Never cross-run cached: oracle results must reflect the *current*
    /// build (mutant state is process-global and not part of the key).
    /// Campaign checkpoints still record verdicts: a resume runs the same
    /// binary on the same batch.
    fn cacheable(&self) -> bool {
        false
    }
}

/// Knobs for one [`fuzz`] campaign.
#[derive(Debug, Clone, Default)]
pub struct FuzzOptions {
    /// Random scenarios to draw and check.
    pub budget: u64,
    /// Root seed of the scenario stream.
    pub seed: u64,
    /// Worker threads (0 is treated as 1); any value is bit-identical.
    pub jobs: usize,
    /// Where shrunk failures' flight-recorder traces go, one
    /// `simcheck-<key>.json` Chrome trace per failure for Perfetto
    /// (`None` skips trace capture).
    pub failure_dir: Option<std::path::PathBuf>,
    /// Per-scenario progress lines on stderr.
    pub progress: bool,
    /// Campaign checkpoint: verdicts recorded here resume an interrupted
    /// batch (same binary, same seed/budget) without recomputation.
    pub checkpoint: Option<std::path::PathBuf>,
    /// Bound on buffered-but-unreleased scenario verdicts (0 = auto).
    pub max_inflight: usize,
    /// Deterministic test hook: interrupt after this many released cells.
    pub cancel_after: Option<u64>,
}

/// Run `budget` scenarios drawn from `seed` across `jobs` workers.
///
/// Output is bit-identical for any `jobs` value (the sweep engine's
/// determinism contract). Failing scenarios are shrunk **as their
/// verdicts stream out** of the engine — the batch never materializes in
/// memory — and, when `failure_dir` is given, each shrunk repro is
/// re-executed with the flight recorder on and its trace saved in Chrome
/// trace-event JSON (load it in Perfetto or `chrome://tracing`).
///
/// Errors: [`sim_core::Error::Interrupted`] on Ctrl-C / cancellation
/// (the checkpoint, if configured, is already finalized), I/O failures
/// while writing traces or the checkpoint.
pub fn fuzz(options: &FuzzOptions) -> Result<FuzzOutcome, sim_core::Error> {
    let cells: Vec<FuzzCell> = (0..options.budget)
        .map(|index| FuzzCell {
            root_seed: options.seed,
            index,
        })
        .collect();
    let opts = SweepOptions {
        jobs: options.jobs.max(1),
        cache_dir: None,
        root_seed: options.seed,
        progress: options.progress,
        checkpoint: options.checkpoint.clone(),
        max_inflight: options.max_inflight,
        cancel_after: options.cancel_after,
    };

    let mut failures: Vec<FailureReport> = Vec::new();
    let mut io_err: Option<sim_core::Error> = None;
    let summary = run_sweep_streaming(&cells, &opts, |index, (scenario, violations), _rep| {
        if violations.is_empty() || io_err.is_some() {
            return;
        }
        let shrunk = shrink_scenario(&scenario, &violations);
        let trace_path = match &options.failure_dir {
            Some(dir) => {
                let write = || -> std::io::Result<std::path::PathBuf> {
                    std::fs::create_dir_all(dir)?;
                    let key = sim_core::sweep::fnv64(shrunk.spec_string().as_bytes());
                    let path = dir.join(format!("simcheck-{key:016x}.json"));
                    let log = StackSim::new(shrunk.to_config())
                        .run_observed(tcp_sim::Instruments {
                            trace: true,
                            ..tcp_sim::Instruments::default()
                        })
                        .trace
                        .expect("tracing was requested");
                    let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
                    sim_core::trace::write_chrome(&log, &mut file)?;
                    std::io::Write::flush(&mut file)?;
                    Ok(path)
                };
                match write() {
                    Ok(path) => Some(path),
                    Err(e) => {
                        io_err = Some(sim_core::Error::io(
                            format!("write failure trace under {}", dir.display()),
                            e,
                        ));
                        None
                    }
                }
            }
            None => None,
        };
        failures.push(FailureReport {
            index: index as u64,
            scenario,
            shrunk,
            violations,
            trace_path,
        });
    })?;
    if let Some(e) = io_err {
        return Err(e);
    }
    Ok(FuzzOutcome {
        scenarios: summary.completed as u64,
        failures,
    })
}

/// Result of probing one intentional mutation.
pub struct MutantReport {
    /// The mutation probed.
    pub mutant: Mutant,
    /// Scenarios executed before it was caught (or the whole budget).
    pub tried: u64,
    /// The catching scenario, shrunk, with the oracles that flagged it;
    /// `None` means the mutant escaped the budget.
    pub caught: Option<(Scenario, Vec<Violation>)>,
}

/// Bias a drawn scenario toward the terrain where `mutant`'s bug class
/// can express at all (a retransmit-accounting bug needs retransmissions;
/// a pacing bug needs pacing). The oracles themselves are untouched —
/// this only focuses the compute budget.
fn bias_for(mutant: Mutant, mut s: Scenario) -> Scenario {
    match mutant {
        Mutant::SkipTimerFireCharge | Mutant::DropPacingArm => {
            if !matches!(s.cc, CcKind::Bbr | CcKind::Bbr2) {
                s.cc = CcKind::Bbr;
            }
            s.pacing_off = false;
            if mutant == Mutant::DropPacingArm {
                // conn-progress eligibility: clean path, real window,
                // few-flows regime.
                s.loss_ppm = 0;
                s.cross_mbps = 0;
                s.queue = None;
                s.conns = s.conns.min(20);
                s.dur_ms = s.dur_ms.max(700);
                s.warmup_ms = s.warmup_ms.min(250);
            }
        }
        Mutant::SkipRetxCount => {
            // Guarantee retransmissions: shallow buffer or real loss.
            if s.queue.is_none() && s.loss_ppm < 1_000 {
                s.loss_ppm = 5_000;
            }
        }
        Mutant::SackClaimExtra => {}
        Mutant::FleetSharedBypass => {
            // The bypass only exists where a shared bottleneck does; the
            // admission identity then catches a single teleported packet.
            if s.fleet < 2 {
                s.fleet = 4;
            }
            if s.fshared == 0 {
                s.fshared = 50;
            }
            s.conns = s.fleet;
        }
        Mutant::FleetJainMiscount => {
            // The n/(n-1) drift needs a population to miscount.
            if s.fleet < 2 {
                s.fleet = 4;
            }
            s.fshared = 0; // keep runs cheap: compute() runs regardless
            s.conns = s.fleet;
        }
        Mutant::AqmDropMiscount => {
            // The tally can only drift where AQM drops happen: a
            // queue-filling controller against a CoDel'd uplink with
            // enough flows and time for the standing queue to cross the
            // target and the control law to start shedding.
            s.fleet = 0;
            if s.qdisc == Qdisc::Fifo {
                s.qdisc = Qdisc::Codel;
            }
            if s.cc == CcKind::Reno {
                s.cc = CcKind::Cubic;
            }
            s.queue = None;
            s.conns = s.conns.clamp(4, 32);
            s.dur_ms = s.dur_ms.max(800);
            s.warmup_ms = s.warmup_ms.min(250);
        }
        Mutant::Bbr3PacingDisarm => {
            // The disarm only bites BBRv3 flows with pacing on and enough
            // traffic for the paced-cc-arms-timers threshold.
            s.cc = CcKind::Bbr3;
            s.fleet = 0;
            s.pacing_off = false;
            s.conns = s.conns.clamp(1, 20);
            s.dur_ms = s.dur_ms.max(700);
            s.warmup_ms = s.warmup_ms.min(250);
        }
    }
    s
}

/// Activate each intentional mutation in turn and fuzz (serially — mutant
/// state is process-global) until an oracle catches it or `budget`
/// scenarios pass. Requires a build with the `simcheck-mutants` feature.
pub fn mutant_check(budget: u64, seed: u64) -> Result<Vec<MutantReport>, String> {
    if !mutants::enabled() {
        return Err(
            "this build was compiled without the `simcheck-mutants` feature; \
             re-run with `--features simcheck-mutants`"
                .into(),
        );
    }
    let mut reports = Vec::new();
    for mutant in mutants::ALL {
        let mut rng = SimRng::new(seed).split(mutant as u64);
        let mut caught = None;
        let mut tried = 0;
        while tried < budget {
            let s = bias_for(mutant, Scenario::draw(&mut rng));
            tried += 1;
            // Re-activating resets the mutant's internal trigger state so
            // each scenario (and each shrink probe below) is reproducible.
            mutants::set_active(Some(mutant));
            let violations = check_scenario(&s);
            if !violations.is_empty() {
                mutants::set_active(Some(mutant));
                let shrunk = shrink_scenario(&s, &violations);
                mutants::set_active(Some(mutant));
                let shrunk_violations = check_scenario(&shrunk);
                let final_violations = if shrunk_violations.is_empty() {
                    violations
                } else {
                    shrunk_violations
                };
                caught = Some((shrunk, final_violations));
                break;
            }
        }
        mutants::set_active(None);
        reports.push(MutantReport {
            mutant,
            tried,
            caught,
        });
    }
    mutants::set_active(None);
    Ok(reports)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trips_exactly() {
        let mut rng = SimRng::new(7);
        for _ in 0..200 {
            let s = Scenario::draw(&mut rng);
            let spec = s.spec_string();
            let back = Scenario::parse(&spec).expect("round trip parses");
            assert_eq!(s, back, "spec {spec}");
        }
    }

    #[test]
    fn parse_rejects_garbage_without_panicking() {
        assert!(Scenario::parse("cc=quic").is_err());
        assert!(Scenario::parse("nonsense").is_err());
        assert!(Scenario::parse("volume=11").is_err());
        assert!(Scenario::parse("dur=500,warmup=500").is_err());
        assert!(Scenario::parse("conns=abc").is_err());
        // Partial specs fill defaults.
        let s = Scenario::parse("cc=cubic,conns=3").expect("partial spec ok");
        assert_eq!(s.cc, CcKind::Cubic);
        assert_eq!(s.conns, 3);
    }

    /// Numeric keys of a spec, each a candidate for a hostile value.
    const NUMERIC_KEYS: [&str; 13] = [
        "conns", "stride", "queue", "loss", "jitter", "cross", "acks", "dur", "warmup", "seed",
        "fleet", "fmix", "fshared",
    ];

    /// An arbitrary `u64`, biased toward the extremes where unchecked
    /// arithmetic overflows.
    fn hostile_u64(rng: &mut SimRng) -> u64 {
        match rng.below(4) {
            0 => u64::MAX - rng.below(3),
            1 => 1u64 << rng.below(64),
            2 => rng.below(1_000_000),
            _ => rng.next(),
        }
    }

    #[test]
    fn parse_never_panics_on_arbitrary_bytes() {
        // Raw bytes mixed with spec fragments, so inputs reach every key's
        // value parser as well as the splitter.
        let fragments: Vec<String> = NUMERIC_KEYS
            .iter()
            .map(|k| format!("{k}="))
            .chain(
                [
                    "cc=bbr2",
                    "pacing=",
                    "qdisc=",
                    ",",
                    "=",
                    "-",
                    "18446744073709551616",
                ]
                .map(String::from),
            )
            .collect();
        let mut rng = SimRng::new(11);
        for _ in 0..2_000 {
            let mut bytes = Vec::new();
            for _ in 0..rng.below(24) {
                if rng.chance(0.5) {
                    bytes.push(rng.below(256) as u8);
                } else {
                    bytes.extend(fragments[rng.below(fragments.len() as u64) as usize].bytes());
                }
            }
            let spec = String::from_utf8_lossy(&bytes);
            let _ = Scenario::parse(&spec);
        }
    }

    #[test]
    fn out_of_range_numbers_parse_to_valid_configs() {
        // A drawn spec with one numeric key set to an arbitrary u64: when
        // it parses, the clamped scenario's own spec parses again and it
        // configures without overflowing.
        let mut rng = SimRng::new(12);
        for _ in 0..1_000 {
            let key = NUMERIC_KEYS[rng.below(NUMERIC_KEYS.len() as u64) as usize];
            let value = hostile_u64(&mut rng);
            let drawn = Scenario::draw(&mut rng).spec_string();
            let spec = drawn
                .split(',')
                .filter(|part| !part.starts_with(&format!("{key}=")))
                .chain([format!("{key}={value}").as_str()])
                .collect::<Vec<_>>()
                .join(",");
            let Ok(s) = Scenario::parse(&spec) else {
                continue;
            };
            assert!(Scenario::parse(&s.spec_string()).is_ok(), "{spec}");
            let configured = std::panic::catch_unwind(|| s.to_config());
            assert!(configured.is_ok(), "to_config panicked on {spec}");
        }
    }

    #[test]
    fn draw_is_deterministic_and_in_range() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        let mut small = 0usize;
        let mut large = 0usize;
        for _ in 0..50 {
            let (sa, sb) = (Scenario::draw(&mut a), Scenario::draw(&mut b));
            assert_eq!(sa, sb);
            assert!((1..=1024).contains(&sa.conns));
            small += usize::from(sa.conns <= 20);
            large += usize::from(sa.conns > 128);
            assert!(sa.warmup_ms < sa.dur_ms);
            assert!(sa.loss_ppm <= 10_000);
        }
        // The log bias must keep both regimes in play: the paper's small
        // sweeps and the fleet-scale counts that stress the flow arena.
        assert!(small >= 10, "only {small}/50 draws in the paper regime");
        assert!(large >= 5, "only {large}/50 draws at fleet scale");
    }

    #[test]
    fn clean_scenario_passes_all_oracles() {
        let s =
            Scenario::parse("cc=bbr,cpu=high,media=eth,conns=2,dur=500,warmup=200,seed=3").unwrap();
        let violations = check_scenario(&s);
        assert!(
            violations.is_empty(),
            "clean scenario violated: {violations:?}"
        );
    }
}
