//! [`SimConfig`] and its validated construction: the builder-first public
//! API.
//!
//! `SimConfig`'s fields are public, but the only constructor is
//! [`SimConfig::builder`] → [`SimConfigBuilder::build`], which rejects
//! configurations the simulator would silently mis-run — most notably
//! `warmup >= duration`, which reports a zero-length measurement window
//! as 0 Mbps. Validation returns the workspace-wide
//! [`sim_core::error::Error::InvalidConfig`] naming the offending field.

use crate::fleet::FleetConfig;
use crate::pacing::PacingConfig;
use congestion::master::MasterConfig;
use congestion::CcKind;
use cpu_model::{CostModel, CpuConfig, DeviceProfile};
use netsim::crosstraffic::CrossTrafficConfig;
use netsim::link::LinkConfig;
use netsim::media::{MediaProfile, PathConfig};
use netsim::Qdisc;
use serde::Serialize;
use sim_core::error::{Error, Result};
use sim_core::time::SimDuration;

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
    /// Optional Poisson cross-traffic sharing the uplink bottleneck
    /// (competition ablations; the paper's testbed itself is private).
    pub cross_traffic: Option<netsim::crosstraffic::CrossTrafficConfig>,
    /// Interval for the goodput timeline (iPerf3's per-interval lines);
    /// `None` disables timeline collection.
    pub sample_interval: Option<SimDuration>,
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

/// Builder for [`SimConfig`] with validation at [`build`](Self::build).
///
/// Starts from a baseline (Ethernet path, 6 s duration after 1 s warmup,
/// seed 1), then applies setters in call order; nothing is checked until
/// `build()`, so setters can be applied in any order (e.g. `duration`
/// after `warmup`).
///
/// ```
/// use tcp_sim::sim::SimConfig;
/// use congestion::CcKind;
/// use cpu_model::{CpuConfig, DeviceProfile};
///
/// let cfg = SimConfig::builder(DeviceProfile::pixel4(), CpuConfig::HighEnd, CcKind::Bbr, 4)
///     .stride(6)
///     .seed(7)
///     .build()
///     .expect("valid config");
/// assert_eq!(cfg.connections, 4);
/// ```
#[derive(Clone)]
pub struct SimConfigBuilder {
    cfg: SimConfig,
}

impl SimConfig {
    /// Start building a configuration: the given CC on the given device
    /// config, Ethernet path, 6 simulated seconds after 1 s of warmup.
    pub fn builder(
        device: DeviceProfile,
        cpu_config: CpuConfig,
        cc: CcKind,
        connections: usize,
    ) -> SimConfigBuilder {
        let cfg = SimConfig {
            path: MediaProfile::Ethernet.path_config(),
            device,
            cpu_config,
            cost: CostModel::mobile_default(),
            cc,
            master: MasterConfig::passthrough(),
            pacing: PacingConfig::default(),
            connections,
            duration: SimDuration::from_secs(6),
            warmup: SimDuration::from_secs(1),
            seed: 1,
            start_stagger: SimDuration::from_millis(3),
            ack_coalesce: SimDuration::from_micros(50),
            cross_traffic: None,
            sample_interval: Some(SimDuration::from_millis(500)),
            ack_per_segs: None,
            fleet: None,
        };
        SimConfigBuilder { cfg }
    }

    /// True iff a run of this config draws from its seed: cross traffic is
    /// configured, or a path in use [draws](PathConfig::draws_randomness)
    /// (each device's media path in fleet mode, `path` otherwise). When
    /// false, every seed gives the same [`crate::SimResult`] byte for byte,
    /// so a sweep computes one seed and serves the others as copies.
    pub fn draws_randomness(&self) -> bool {
        self.cross_traffic.is_some()
            || match &self.fleet {
                Some(fleet) => fleet
                    .devices
                    .iter()
                    .any(|d| d.media.path_config().draws_randomness()),
                None => self.path.draws_randomness(),
            }
    }
}

impl SimConfigBuilder {
    /// Replace the network path with a medium's default configuration.
    pub fn media(mut self, media: MediaProfile) -> Self {
        self.cfg.path = media.path_config();
        self
    }

    /// Replace the network path wholesale (custom links/impairments).
    pub fn path(mut self, path: PathConfig) -> Self {
        self.cfg.path = path;
        self
    }

    /// Set the bottleneck (forward-link) queue discipline with its default
    /// AQM parameters — the per-link qdisc axis. Applies to whatever path
    /// the builder currently holds, so call it after
    /// [`media`](Self::media)/[`path`](Self::path). For non-default AQM
    /// parameters set [`LinkConfig::with_codel_config`] on the path
    /// directly.
    pub fn qdisc(mut self, qdisc: Qdisc) -> Self {
        self.cfg.path.forward = self.cfg.path.forward.clone().with_qdisc(qdisc);
        self
    }

    /// Replace the master-module (§5) knobs.
    pub fn master(mut self, master: MasterConfig) -> Self {
        self.cfg.master = master;
        self
    }

    /// Replace the whole pacing configuration.
    pub fn pacing(mut self, pacing: PacingConfig) -> Self {
        self.cfg.pacing = pacing;
        self
    }

    /// Set the pacing stride (Eq. 2); 1 is stock kernel behaviour.
    pub fn stride(mut self, stride: u64) -> Self {
        self.cfg.pacing.stride = stride;
        self
    }

    /// Set the number of parallel connections. Test builds only: it is the
    /// one way to override the total that [`Self::fleet`] sets.
    #[cfg(test)]
    pub(crate) fn connections(mut self, connections: usize) -> Self {
        self.cfg.connections = connections;
        self
    }

    /// Set the total simulated duration.
    pub fn duration(mut self, duration: SimDuration) -> Self {
        self.cfg.duration = duration;
        self
    }

    /// Set the warmup excluded from goodput measurement.
    pub fn warmup(mut self, warmup: SimDuration) -> Self {
        self.cfg.warmup = warmup;
        self
    }

    /// Set the RNG seed (netem draws, WiFi variation).
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Set the stagger between connection starts.
    pub fn start_stagger(mut self, stagger: SimDuration) -> Self {
        self.cfg.start_stagger = stagger;
        self
    }

    /// Add Poisson cross-traffic sharing the uplink bottleneck.
    pub fn cross_traffic(mut self, config: CrossTrafficConfig) -> Self {
        self.cfg.cross_traffic = Some(config);
        self
    }

    /// Set the goodput timeline interval (`None` disables the timeline).
    pub fn sample_interval(mut self, interval: Option<SimDuration>) -> Self {
        self.cfg.sample_interval = interval;
        self
    }

    /// Set the ACK cadence: `None` = GRO-coalescing server, `Some(n)` =
    /// ACK every `n` segments.
    pub fn ack_per_segs(mut self, cadence: Option<u64>) -> Self {
        self.cfg.ack_per_segs = cadence;
        self
    }

    /// Run a multi-device fleet (see [`crate::fleet`]). The builder sets
    /// `connections` to the fleet's total, so the top-level connection
    /// count never disagrees with the population; per-device CPU/CC/media
    /// come from the fleet specs and the top-level `cpu_config`/`cc`/
    /// `path` apply only to non-fleet runs.
    pub fn fleet(mut self, fleet: FleetConfig) -> Self {
        self.cfg.connections = fleet.total_connections();
        self.cfg.fleet = Some(fleet);
        self
    }

    /// Validate and produce the configuration.
    ///
    /// Rejects (as [`Error::InvalidConfig`], naming the field):
    /// zero connections; a zero duration; `warmup >= duration` (the
    /// measurement window would be empty and goodput would read 0 Mbps);
    /// a zero pacing stride or socket-buffer cap; a non-positive or
    /// non-finite pacing fallback gain; zero-capacity or zero-queue path
    /// links; degenerate CoDel parameters (zero target, or an interval
    /// not exceeding the target) on any AQM link including the fleet's
    /// shared bottleneck; FQ-CoDel on the ACK-only reverse path; a zero
    /// ACK cadence; and a zero timeline interval.
    pub fn build(self) -> Result<SimConfig> {
        let cfg = self.cfg;
        if cfg.connections == 0 {
            return Err(Error::invalid_config(
                "connections",
                "at least one connection is required",
            ));
        }
        if cfg.duration.is_zero() {
            return Err(Error::invalid_config(
                "duration",
                "simulated duration must be positive",
            ));
        }
        if cfg.warmup >= cfg.duration {
            return Err(Error::invalid_config(
                "warmup",
                format!(
                    "warmup {:?} >= duration {:?} leaves an empty measurement window",
                    cfg.warmup, cfg.duration
                ),
            ));
        }
        if cfg.pacing.stride == 0 {
            return Err(Error::invalid_config(
                "pacing.stride",
                "stride 0 would divide the pacing rate by zero; use 1 for stock behaviour",
            ));
        }
        if cfg.pacing.skb_cap_bytes == 0 {
            return Err(Error::invalid_config(
                "pacing.skb_cap_bytes",
                "a zero socket-buffer cap cannot carry any payload",
            ));
        }
        if !(cfg.pacing.fallback_gain.is_finite() && cfg.pacing.fallback_gain > 0.0) {
            return Err(Error::invalid_config(
                "pacing.fallback_gain",
                format!(
                    "fallback gain must be finite and positive, got {}",
                    cfg.pacing.fallback_gain
                ),
            ));
        }
        for (field, link) in [
            ("path.forward", &cfg.path.forward),
            ("path.reverse", &cfg.path.reverse),
        ] {
            if link.rate.is_zero() {
                return Err(Error::InvalidConfig {
                    field,
                    reason: "link rate must be positive".into(),
                });
            }
            if link.queue_packets == 0 {
                return Err(Error::InvalidConfig {
                    field,
                    reason: "queue must hold at least one packet".into(),
                });
            }
            check_aqm(field, link)?;
        }
        // The reverse path carries only ACKs: one tiny sub-flow per
        // connection, no bulk queue to schedule. FQ-CoDel's fair-share
        // sojourn model is meaningless there (and `Codel` already covers
        // AQM-on-ACKs), so the combination is rejected rather than
        // silently mis-modelled.
        if cfg.path.reverse.qdisc() == Qdisc::FqCodel {
            return Err(Error::invalid_config(
                "path.reverse",
                "FQ-CoDel flow scheduling is not modelled on the ACK-only reverse path; \
                 use Fifo or Codel",
            ));
        }
        if cfg.ack_per_segs == Some(0) {
            return Err(Error::invalid_config(
                "ack_per_segs",
                "an ACK every 0 segments would never acknowledge anything; use None for GRO",
            ));
        }
        if matches!(cfg.sample_interval, Some(iv) if iv.is_zero()) {
            return Err(Error::invalid_config(
                "sample_interval",
                "a zero timeline interval would loop forever; use None to disable",
            ));
        }
        if let Some(fleet) = &cfg.fleet {
            if fleet.devices.is_empty() {
                return Err(Error::invalid_config(
                    "fleet.devices",
                    "a fleet needs at least one device",
                ));
            }
            if let Some(idx) = fleet.devices.iter().position(|d| d.connections == 0) {
                return Err(Error::invalid_config(
                    "fleet.devices",
                    format!("device {idx} has zero connections"),
                ));
            }
            if cfg.connections != fleet.total_connections() {
                return Err(Error::invalid_config(
                    "connections",
                    format!(
                        "connections {} != fleet total {} (use .fleet() last or leave \
                         connections to the builder)",
                        cfg.connections,
                        fleet.total_connections()
                    ),
                ));
            }
            if let Some(shared) = &fleet.shared {
                if shared.rate.is_zero() {
                    return Err(Error::invalid_config(
                        "fleet.shared",
                        "shared link rate must be positive",
                    ));
                }
                if shared.queue_packets == 0 {
                    return Err(Error::invalid_config(
                        "fleet.shared",
                        "shared queue must hold at least one packet",
                    ));
                }
                check_aqm("fleet.shared", shared)?;
            }
            if cfg.pacing.auto_stride {
                return Err(Error::invalid_config(
                    "pacing.auto_stride",
                    "the online stride controller adapts one host CPU and cannot \
                     steer a heterogeneous fleet; set per-run strides instead",
                ));
            }
        }
        Ok(cfg)
    }
}

/// Validate a link's AQM configuration. `codel.is_some() ⇔ qdisc != Fifo`
/// (the [`LinkConfig`] invariant; only a hand-edited config can break it,
/// and would silently run a different discipline than it names). When
/// parameters are present: CoDel's control law divides by `interval` and
/// compares sojourn against `target`, so a zero target or an interval not
/// exceeding the target would drop every packet (or panic in
/// `Codel::new`) instead of managing the queue.
fn check_aqm(field: &'static str, link: &LinkConfig) -> Result<()> {
    if link.codel.is_some() != (link.qdisc != Qdisc::Fifo) {
        let verb = if link.codel.is_some() {
            "takes no"
        } else {
            "needs"
        };
        return Err(Error::InvalidConfig {
            field,
            reason: format!("qdisc {} {verb} AQM parameters (`codel`)", link.qdisc),
        });
    }
    if let Some(codel) = &link.codel {
        if codel.target.is_zero() {
            return Err(Error::InvalidConfig {
                field,
                reason: "CoDel target must be positive".into(),
            });
        }
        if codel.interval <= codel.target {
            return Err(Error::InvalidConfig {
                field,
                reason: format!(
                    "CoDel interval {:?} must exceed target {:?}",
                    codel.interval, codel.target
                ),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> SimConfigBuilder {
        SimConfig::builder(DeviceProfile::pixel4(), CpuConfig::HighEnd, CcKind::Bbr, 2)
    }

    fn field_of(err: Error) -> &'static str {
        match err {
            Error::InvalidConfig { field, .. } => field,
            other => panic!("expected InvalidConfig, got {other}"),
        }
    }

    #[test]
    fn baseline_builds() {
        let cfg = base().build().expect("baseline must be valid");
        assert_eq!(cfg.connections, 2);
        assert!(cfg.warmup < cfg.duration);
    }

    #[test]
    fn rejects_zero_connections() {
        assert_eq!(
            field_of(base().connections(0).build().unwrap_err()),
            "connections"
        );
    }

    #[test]
    fn rejects_empty_measurement_window() {
        // The regression the builder exists for: an unvalidated config with
        // warmup >= duration reports 0 Mbps from the empty window.
        let err = base()
            .duration(SimDuration::from_secs(2))
            .warmup(SimDuration::from_secs(5))
            .build()
            .unwrap_err();
        assert_eq!(field_of(err), "warmup");
        let err = base()
            .duration(SimDuration::from_secs(2))
            .warmup(SimDuration::from_secs(2))
            .build()
            .unwrap_err();
        assert_eq!(field_of(err), "warmup");
        assert!(base()
            .duration(SimDuration::from_secs(2))
            .warmup(SimDuration::from_millis(1999))
            .build()
            .is_ok());
    }

    #[test]
    fn rejects_zero_duration() {
        let err = base()
            .duration(SimDuration::from_secs(0))
            .warmup(SimDuration::from_secs(0))
            .build()
            .unwrap_err();
        assert_eq!(field_of(err), "duration");
    }

    #[test]
    fn rejects_degenerate_pacing() {
        assert_eq!(
            field_of(base().stride(0).build().unwrap_err()),
            "pacing.stride"
        );
        let mut pacing = PacingConfig {
            skb_cap_bytes: 0,
            ..PacingConfig::default()
        };
        assert_eq!(
            field_of(base().pacing(pacing).build().unwrap_err()),
            "pacing.skb_cap_bytes"
        );
        pacing.skb_cap_bytes = 15_000;
        pacing.fallback_gain = 0.0;
        assert_eq!(
            field_of(base().pacing(pacing).build().unwrap_err()),
            "pacing.fallback_gain"
        );
        pacing.fallback_gain = f64::NAN;
        assert_eq!(
            field_of(base().pacing(pacing).build().unwrap_err()),
            "pacing.fallback_gain"
        );
    }

    #[test]
    fn rejects_zero_capacity_paths() {
        let mut path = MediaProfile::Ethernet.path_config();
        path.forward.rate = sim_core::units::Bandwidth::from_bps(0);
        assert_eq!(
            field_of(base().path(path).build().unwrap_err()),
            "path.forward"
        );
        let mut path = MediaProfile::Ethernet.path_config();
        path.reverse.queue_packets = 0;
        assert_eq!(
            field_of(base().path(path).build().unwrap_err()),
            "path.reverse"
        );
    }

    #[test]
    fn rejects_zero_ack_cadence_and_zero_interval() {
        assert_eq!(
            field_of(base().ack_per_segs(Some(0)).build().unwrap_err()),
            "ack_per_segs"
        );
        assert_eq!(
            field_of(
                base()
                    .sample_interval(Some(SimDuration::from_secs(0)))
                    .build()
                    .unwrap_err()
            ),
            "sample_interval"
        );
        assert!(base()
            .ack_per_segs(None)
            .sample_interval(None)
            .build()
            .is_ok());
    }

    #[test]
    fn fleet_sets_connections_and_validates() {
        use crate::fleet::{DeviceSpec, FleetConfig};
        use netsim::Qdisc;

        let spec =
            DeviceSpec::new(CpuConfig::MidEnd, CcKind::Bbr, MediaProfile::Wifi).with_connections(3);
        let cfg = base()
            .fleet(FleetConfig::uniform(4, spec.clone()))
            .build()
            .expect("valid fleet");
        assert_eq!(cfg.connections, 12, "builder adopts the fleet total");

        // Overriding connections after .fleet() must be caught.
        let err = base()
            .fleet(FleetConfig::uniform(4, spec.clone()))
            .connections(5)
            .build()
            .unwrap_err();
        assert_eq!(field_of(err), "connections");

        // Degenerate populations.
        let err = base()
            .fleet(FleetConfig {
                devices: vec![],
                shared: None,
            })
            .connections(1)
            .build()
            .unwrap_err();
        assert_eq!(field_of(err), "fleet.devices");
        let err = base()
            .fleet(FleetConfig::uniform(2, spec.clone().with_connections(0)))
            .connections(1)
            .build()
            .unwrap_err();
        assert_eq!(field_of(err), "fleet.devices");

        // Broken shared links.
        let mut shared =
            FleetConfig::pop_uplink(sim_core::units::Bandwidth::from_mbps(100), Qdisc::Fifo);
        shared.rate = sim_core::units::Bandwidth::from_bps(0);
        let err = base()
            .fleet(FleetConfig::uniform(2, spec.clone()).with_shared(shared))
            .build()
            .unwrap_err();
        assert_eq!(field_of(err), "fleet.shared");

        // The stride controller is host-global; fleets must reject it.
        let err = base()
            .fleet(FleetConfig::uniform(2, spec))
            .pacing(PacingConfig::auto())
            .build()
            .unwrap_err();
        assert_eq!(field_of(err), "pacing.auto_stride");
    }

    #[test]
    fn qdisc_setter_applies_to_the_forward_link() {
        for q in [Qdisc::Fifo, Qdisc::Codel, Qdisc::FqCodel] {
            let cfg = base().qdisc(q).build().expect("valid qdisc config");
            assert_eq!(cfg.path.forward.qdisc(), q);
            assert_eq!(cfg.path.reverse.qdisc(), Qdisc::Fifo, "reverse untouched");
        }
        // The setter composes with a media swap (order matters: last path
        // replacement wins, qdisc applies to what the builder holds).
        let cfg = base()
            .media(MediaProfile::Lte)
            .qdisc(Qdisc::FqCodel)
            .build()
            .expect("media + qdisc");
        assert_eq!(cfg.path.forward.qdisc(), Qdisc::FqCodel);
    }

    #[test]
    fn rejects_fq_codel_on_the_reverse_path() {
        let mut path = MediaProfile::Ethernet.path_config();
        path.reverse = path.reverse.with_qdisc(Qdisc::FqCodel);
        assert_eq!(
            field_of(base().path(path).build().unwrap_err()),
            "path.reverse"
        );
        // Plain CoDel on the reverse path stays allowed.
        let mut path = MediaProfile::Ethernet.path_config();
        path.reverse = path.reverse.with_qdisc(Qdisc::Codel);
        assert!(base().path(path).build().is_ok());
    }

    #[test]
    fn rejects_a_qdisc_that_disagrees_with_its_aqm_parameters() {
        // Reachable only by editing fields (or JSON) by hand.
        let mut path = MediaProfile::Ethernet.path_config();
        path.forward.codel = Some(Default::default());
        assert_eq!(
            field_of(base().path(path).build().unwrap_err()),
            "path.forward"
        );
        let mut path = MediaProfile::Ethernet.path_config();
        path.reverse.qdisc = Qdisc::Codel;
        assert_eq!(
            field_of(base().path(path).build().unwrap_err()),
            "path.reverse"
        );
    }

    #[test]
    fn rejects_degenerate_codel_parameters() {
        use netsim::codel::CodelConfig;

        let zero_target = CodelConfig {
            target: SimDuration::from_millis(0),
            interval: SimDuration::from_millis(100),
        };
        let mut path = MediaProfile::Ethernet.path_config();
        path.forward = path.forward.with_codel_config(zero_target);
        assert_eq!(
            field_of(base().path(path).build().unwrap_err()),
            "path.forward"
        );

        let inverted = CodelConfig {
            target: SimDuration::from_millis(100),
            interval: SimDuration::from_millis(5),
        };
        let mut path = MediaProfile::Ethernet.path_config();
        path.reverse = path.reverse.with_codel_config(inverted);
        assert_eq!(
            field_of(base().path(path).build().unwrap_err()),
            "path.reverse"
        );
    }

    #[test]
    fn rejects_degenerate_codel_on_the_fleet_shared_link() {
        use crate::fleet::{DeviceSpec, FleetConfig};
        use netsim::codel::CodelConfig;

        let spec = DeviceSpec::new(CpuConfig::MidEnd, CcKind::Bbr, MediaProfile::Wifi);
        let shared =
            FleetConfig::pop_uplink(sim_core::units::Bandwidth::from_mbps(100), Qdisc::FqCodel)
                .with_codel_config(CodelConfig {
                    target: SimDuration::from_millis(10),
                    interval: SimDuration::from_millis(10),
                });
        let err = base()
            .fleet(FleetConfig::uniform(2, spec).with_shared(shared))
            .build()
            .unwrap_err();
        assert_eq!(field_of(err), "fleet.shared");
    }

    /// Each consumer of the seed, switched on alone in an Ethernet config,
    /// makes the predicate true and the run draw; with none on, the
    /// predicate is false and the run draws nothing. Deterministic
    /// impairments (netem delay, its rate limiter) are not consumers.
    #[test]
    fn draws_randomness_flips_with_each_consumer() {
        use crate::fleet::{DeviceSpec, FleetConfig};
        use crate::StackSim;
        use netsim::crosstraffic::CrossTrafficConfig;
        use netsim::VariableRate;
        use sim_core::units::Bandwidth;

        let short = || {
            base()
                .duration(SimDuration::from_millis(300))
                .warmup(SimDuration::from_millis(100))
        };
        let plain = short().build().unwrap();
        let draws = |cfg: &SimConfig| StackSim::new(cfg.clone()).run().counters.get("rng_draws");
        let with_path = |edit: &dyn Fn(&mut PathConfig)| {
            let mut cfg = plain.clone();
            edit(&mut cfg.path);
            cfg
        };
        let ms = SimDuration::from_millis;
        let eth = DeviceSpec::new(CpuConfig::HighEnd, CcKind::Bbr, MediaProfile::Ethernet);
        let wifi = DeviceSpec::new(CpuConfig::HighEnd, CcKind::Bbr, MediaProfile::Wifi);
        let fleet = |devices| {
            short()
                .fleet(FleetConfig {
                    devices,
                    shared: None,
                })
                .build()
                .unwrap()
        };

        let invariant = [
            ("Ethernet", plain.clone()),
            ("netem delay", with_path(&|p| p.forward_netem.delay = ms(2))),
            (
                "netem rate limit",
                with_path(&|p| p.reverse_netem.rate_limit = Some(Bandwidth::from_mbps(50))),
            ),
            ("Ethernet fleet", fleet(vec![eth.clone(), eth.clone()])),
        ];
        for (what, cfg) in &invariant {
            assert!(!cfg.draws_randomness(), "{what}");
            assert_eq!(draws(cfg), 0, "{what}");
        }

        let random = [
            (
                "forward_var",
                with_path(&|p| {
                    p.forward_var = Some(VariableRate {
                        min: Bandwidth::from_mbps(100),
                        max: Bandwidth::from_mbps(900),
                        period: ms(5),
                    })
                }),
            ),
            ("forward loss", with_path(&|p| p.forward_netem.loss = 0.01)),
            ("reverse loss", with_path(&|p| p.reverse_netem.loss = 0.01)),
            (
                "forward jitter",
                with_path(&|p| p.forward_netem.jitter = ms(1)),
            ),
            (
                "reverse jitter",
                with_path(&|p| p.reverse_netem.jitter = ms(1)),
            ),
            (
                "forward reorder",
                with_path(&|p| p.forward_netem.reorder = 0.1),
            ),
            (
                "reverse reorder",
                with_path(&|p| p.reverse_netem.reorder = 0.1),
            ),
            (
                "cross traffic",
                short()
                    .cross_traffic(CrossTrafficConfig::at(Bandwidth::from_mbps(100)))
                    .build()
                    .unwrap(),
            ),
            ("one WiFi device", fleet(vec![eth.clone(), eth, wifi])),
        ];
        for (what, cfg) in &random {
            assert!(cfg.draws_randomness(), "{what}");
            assert!(draws(cfg) > 0, "{what}");
        }
    }

    #[test]
    fn setters_compose_in_any_order() {
        let cfg = base()
            .warmup(SimDuration::from_secs(3)) // > default duration? no: 6 s
            .duration(SimDuration::from_secs(10))
            .media(MediaProfile::Wifi)
            .seed(42)
            .build()
            .expect("ordering must not matter before build()");
        assert_eq!(cfg.seed, 42);
        assert_eq!(cfg.duration, SimDuration::from_secs(10));
    }
}
