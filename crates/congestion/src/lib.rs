//! # congestion
//!
//! The congestion-control framework of the *"Are Mobiles Ready for BBR?"*
//! reproduction, mirroring the shape of Linux's `tcp_congestion_ops`.
//!
//! A [`CongestionControl`] consumes per-ACK [`AckSample`]s (which carry the
//! delivery-rate sample Linux's `tcp_rate.c` would compute) and exposes the
//! two outputs the paper's §5 manipulates:
//!
//! * a congestion window ([`CongestionControl::cwnd`], packets), and
//! * a pacing decision ([`CongestionControl::wants_pacing`] +
//!   [`CongestionControl::pacing_rate`]).
//!
//! Five algorithms are provided:
//!
//! * [`reno::Reno`] — classic AIMD, as the simplest baseline;
//! * [`cubic::Cubic`] — RFC 8312 Cubic with HyStart, Android's default
//!   ("the Cubic congestion control for Android is the same as the Cubic
//!   implementation in the corresponding Linux kernel", §3). Cubic does
//!   **not** pace by default;
//! * [`bbr::Bbr`] — BBR v1 after Linux's `tcp_bbr.c`: STARTUP/DRAIN/
//!   PROBE_BW/PROBE_RTT, a 10-round windowed-max bandwidth filter, a 10 s
//!   min-RTT filter, and pacing at `gain × btl_bw`;
//! * [`bbr2::Bbr2`] — the BBRv2 family, one state machine with two tunings.
//!   `bbr2::Bbr2::new` is BBR v2 per the IETF-104/105/106 iccrg decks the
//!   paper cites: loss-bounded `inflight_hi` and the DOWN/CRUISE/REFILL/UP
//!   probing cycle. `bbr2::Bbr2::v3` is BBR v3 per the IETF-117/119
//!   updates: shallower DOWN probe, round-bounded cruise, and a per-episode
//!   loss response anchored at measured inflight (the module's delta table
//!   lists every difference). v3 is not in the paper's matrix (see
//!   [`CcKind::PAPER`]); it serves the AQM/fairness follow-up experiments.
//!
//! The BBR variants run one model, a private `Model` in `bbr.rs`: the
//! bandwidth and min-RTT filters, packet-timed rounds, full-pipe
//! detection, the BDP target, the pacing rate and cwnd growth. v1 adds its
//! gain cycle, 10 s min-RTT window and 4-packet PROBE_RTT; the v2 family
//! adds loss accounting, the `inflight_hi` bounds, its probe schedule, a
//! 5 s window and a `BDP/2` PROBE_RTT.
//!
//! [`CcKind::build`] returns a [`Controller`], an enum over the four state
//! machines that implements the trait by a `match`. [`master::Master`]
//! wraps one with the paper's §5 "master BBR kernel module" knobs: disable
//! the model computation, fix the cwnd, fix the pacing rate, or force
//! pacing on/off.
//!
//! Each algorithm also reports [`CongestionControl::model_cost_cycles`] —
//! the CPU cost of its per-ACK computation — so the CPU model can charge
//! BBR's heavier model ("BBR recomputes a large part of its model … on
//! every acknowledged packet", §5) and the master module can zero it out
//! for the §5.1.1 experiment.

#![warn(missing_docs)]

pub mod bbr;
pub mod bbr2;
pub mod cubic;
pub mod master;
pub mod minmax;
pub mod reno;

use serde::Serialize;
use sim_core::time::{SimDuration, SimTime};
use sim_core::units::Bandwidth;

/// Default initial congestion window (Linux `TCP_INIT_CWND`), packets.
pub const INIT_CWND: u64 = 10;

/// Floor for any congestion window, packets.
pub const MIN_CWND: u64 = 4;

/// One ACK's worth of information, as Linux's rate sampler would deliver it.
#[derive(Debug, Clone, Copy)]
pub struct AckSample {
    /// Arrival time of the ACK at the sender.
    pub now: SimTime,
    /// RTT sample carried by this ACK (send → ack of the newest acked pkt).
    pub rtt: SimDuration,
    /// Delivery-rate sample: delivered bytes over the sampling interval
    /// (`tcp_rate.c` semantics: `max(send interval, ack interval)`).
    pub delivery_rate: Bandwidth,
    /// Total packets delivered on this connection up to and including this
    /// ACK (the `delivered` count).
    pub delivered: u64,
    /// `delivered` as of when the just-acked packet was *sent* — BBR uses
    /// this for packet-timed round trips.
    pub prior_delivered: u64,
    /// Packets newly acknowledged (cumulative + selective) by this ACK.
    pub acked: u64,
    /// Packets newly marked lost while processing this ACK.
    pub lost: u64,
    /// Packets left in flight after processing this ACK.
    pub inflight: u64,
    /// True if the rate sample was taken while application-limited
    /// (sender had no data to send — rare in the paper's bulk uploads).
    pub app_limited: bool,
    /// True if the connection is currently in fast-recovery.
    pub in_recovery: bool,
}

/// A loss notification (entry into fast recovery).
#[derive(Debug, Clone, Copy)]
pub struct LossEvent {
    /// When recovery was entered.
    pub now: SimTime,
    /// Packets in flight at the time.
    pub inflight: u64,
    /// Packets declared lost so far in this event.
    pub lost: u64,
}

/// The interface every congestion-control algorithm implements.
pub trait CongestionControl: Send {
    /// Algorithm name, e.g. `"bbr"` (matches Linux module naming).
    fn name(&self) -> &'static str;

    /// Process one acknowledgement.
    fn on_ack(&mut self, sample: &AckSample);

    /// A loss event was detected (dup-ACK / RACK fast recovery entry).
    fn on_loss_event(&mut self, event: &LossEvent);

    /// Fast recovery completed (all lost data repaired).
    fn on_recovery_exit(&mut self, now: SimTime);

    /// A retransmission timeout fired.
    fn on_rto(&mut self, now: SimTime, inflight: u64);

    /// Current congestion window, in packets.
    fn cwnd(&self) -> u64;

    /// Whether this algorithm asks the stack to pace ("BBR and BBR2 enable
    /// TCP packet pacing", §5; Cubic "does not use packet pacing by
    /// default").
    fn wants_pacing(&self) -> bool;

    /// The pacing rate this algorithm sets, if it computes one. Algorithms
    /// that want pacing but return `None` get TCP's internal fallback rate
    /// (`mss × cwnd / srtt`, §5.2.2) from the stack.
    fn pacing_rate(&self) -> Option<Bandwidth>;

    /// CPU cycles this algorithm's model update costs per processed ACK
    /// (charged by the CPU model on top of generic ACK processing).
    fn model_cost_cycles(&self) -> u64;

    /// Current state-machine phase as a stable identifier, for sim-trace
    /// phase-transition records: BBR reports `"startup"`/`"drain"`/
    /// `"probe_bw"`/`"probe_rtt"` (v2 adds the ProbeBW sub-phases),
    /// loss-based algorithms report `"slow_start"`/`"avoidance"`/
    /// `"recovery"`. The default is `""` (no state machine to report).
    fn phase(&self) -> &'static str {
        ""
    }
}

/// Which congestion control to instantiate — the experiment matrix axis.
///
/// ```
/// use congestion::{CcKind, CongestionControl};
///
/// let bbr = CcKind::Bbr.build(1448);
/// assert!(bbr.wants_pacing());
/// let cubic = CcKind::Cubic.build(1448);
/// assert!(!cubic.wants_pacing()); // Android's default doesn't pace
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum CcKind {
    /// Classic Reno AIMD.
    Reno,
    /// Cubic (Android default).
    Cubic,
    /// BBR v1.
    Bbr,
    /// BBR v2.
    Bbr2,
    /// BBR v3.
    Bbr3,
}

impl CcKind {
    /// All algorithms the paper measures. Reno is excluded (our extra
    /// baseline, not part of the paper's matrix) and so is BBRv3 (it
    /// post-dates the paper; the fairness/AQM follow-up experiments use it
    /// via [`CcKind::ALL`]).
    pub const PAPER: [CcKind; 3] = [CcKind::Cubic, CcKind::Bbr, CcKind::Bbr2];

    /// Every implemented algorithm — the single source of truth for code
    /// that enumerates the CC axis (re-exported as `test_support::ALL_CC`).
    pub const ALL: [CcKind; 5] = [
        CcKind::Reno,
        CcKind::Cubic,
        CcKind::Bbr,
        CcKind::Bbr2,
        CcKind::Bbr3,
    ];

    /// Instantiate the algorithm with `mss`-byte segments, un-staggered.
    pub fn build(self, mss: u64) -> Controller {
        self.controller(mss, None)
    }

    /// Instantiate the algorithm for the `flow`-th connection of a host:
    /// the BBR variants stagger their probe schedules by flow index (the
    /// deterministic analogue of the kernel's randomised phase/wait) so
    /// parallel connections do not probe in lockstep.
    pub fn build_for_flow(self, mss: u64, flow: usize) -> Controller {
        self.controller(mss, Some(flow))
    }

    /// The only `CcKind → controller` mapping.
    fn controller(self, mss: u64, flow: Option<usize>) -> Controller {
        match self {
            CcKind::Reno => Controller::Reno(reno::Reno::new()),
            CcKind::Cubic => Controller::Cubic(cubic::Cubic::new()),
            CcKind::Bbr => {
                let bbr = bbr::Bbr::new(mss);
                Controller::Bbr(match flow {
                    Some(i) => bbr.with_cycle_offset(i),
                    None => bbr,
                })
            }
            // Probe offset 0 is the un-staggered schedule.
            CcKind::Bbr2 => {
                Controller::Bbr2(bbr2::Bbr2::new(mss).with_probe_offset(flow.unwrap_or(0)))
            }
            CcKind::Bbr3 => {
                Controller::Bbr2(bbr2::Bbr2::v3(mss).with_probe_offset(flow.unwrap_or(0)))
            }
        }
    }
}

/// One congestion controller, as [`CcKind::build`] returns it: an enum over
/// the closed set of algorithms, so every per-ACK call the stack makes is
/// a `match` the compiler can inline rather than a virtual call. BBRv3 is
/// the [`Controller::Bbr2`] variant with the v3 tuning.
pub enum Controller {
    /// Classic Reno AIMD.
    Reno(reno::Reno),
    /// Cubic with HyStart.
    Cubic(cubic::Cubic),
    /// BBR v1.
    Bbr(bbr::Bbr),
    /// The BBRv2 family (v2 or v3 tuning).
    Bbr2(bbr2::Bbr2),
}

/// Forward one [`CongestionControl`] call to whichever algorithm `$self`
/// holds.
macro_rules! dispatch {
    ($self:ident, $cc:ident => $call:expr) => {
        match $self {
            Controller::Reno($cc) => $call,
            Controller::Cubic($cc) => $call,
            Controller::Bbr($cc) => $call,
            Controller::Bbr2($cc) => $call,
        }
    };
}

impl CongestionControl for Controller {
    fn name(&self) -> &'static str {
        dispatch!(self, cc => cc.name())
    }

    fn on_ack(&mut self, sample: &AckSample) {
        dispatch!(self, cc => cc.on_ack(sample))
    }

    fn on_loss_event(&mut self, event: &LossEvent) {
        dispatch!(self, cc => cc.on_loss_event(event))
    }

    fn on_recovery_exit(&mut self, now: SimTime) {
        dispatch!(self, cc => cc.on_recovery_exit(now))
    }

    fn on_rto(&mut self, now: SimTime, inflight: u64) {
        dispatch!(self, cc => cc.on_rto(now, inflight))
    }

    fn cwnd(&self) -> u64 {
        dispatch!(self, cc => cc.cwnd())
    }

    fn wants_pacing(&self) -> bool {
        dispatch!(self, cc => cc.wants_pacing())
    }

    fn pacing_rate(&self) -> Option<Bandwidth> {
        dispatch!(self, cc => cc.pacing_rate())
    }

    fn model_cost_cycles(&self) -> u64 {
        dispatch!(self, cc => cc.model_cost_cycles())
    }

    fn phase(&self) -> &'static str {
        dispatch!(self, cc => cc.phase())
    }
}

impl std::fmt::Display for CcKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CcKind::Reno => write!(f, "Reno"),
            CcKind::Cubic => write!(f, "Cubic"),
            CcKind::Bbr => write!(f, "BBR"),
            CcKind::Bbr2 => write!(f, "BBR2"),
            CcKind::Bbr3 => write!(f, "BBR3"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Helper shared by the per-algorithm test modules.
    pub(crate) fn sample(
        now_ms: u64,
        rtt_ms: u64,
        rate_mbps: u64,
        delivered: u64,
        acked: u64,
        inflight: u64,
    ) -> AckSample {
        AckSample {
            now: SimTime::from_millis(now_ms),
            rtt: SimDuration::from_millis(rtt_ms),
            delivery_rate: Bandwidth::from_mbps(rate_mbps),
            delivered,
            prior_delivered: delivered.saturating_sub(acked + inflight),
            acked,
            lost: 0,
            inflight,
            app_limited: false,
            in_recovery: false,
        }
    }

    #[test]
    fn all_kinds_build() {
        for kind in CcKind::ALL {
            let cc = kind.build(1448);
            assert!(cc.cwnd() >= MIN_CWND);
            assert!(!cc.name().is_empty());
        }
    }

    #[test]
    fn every_kind_builds_the_controller_it_names() {
        let names: Vec<&str> = CcKind::ALL.iter().map(|k| k.build(1448).name()).collect();
        assert_eq!(names, ["reno", "cubic", "bbr", "bbr2", "bbr3"]);
    }

    #[test]
    fn paper_matrix_is_a_strict_subset_of_all() {
        for kind in CcKind::PAPER {
            assert!(CcKind::ALL.contains(&kind));
        }
        assert!(!CcKind::PAPER.contains(&CcKind::Reno));
        assert!(!CcKind::PAPER.contains(&CcKind::Bbr3));
    }

    #[test]
    fn pacing_defaults_match_paper_section5() {
        // "BBR and BBR2 enable TCP packet pacing… Cubic… does not use
        // packet pacing by default."
        assert!(CcKind::Bbr.build(1448).wants_pacing());
        assert!(CcKind::Bbr2.build(1448).wants_pacing());
        assert!(CcKind::Bbr3.build(1448).wants_pacing());
        assert!(!CcKind::Cubic.build(1448).wants_pacing());
        assert!(!CcKind::Reno.build(1448).wants_pacing());
    }

    #[test]
    fn bbr_model_is_costlier_than_cubic() {
        // §5: "BBR recomputes a large part of its model … on every
        // acknowledged packet" vs Cubic's "simple AIMD logic".
        let bbr = CcKind::Bbr.build(1448);
        let cubic = CcKind::Cubic.build(1448);
        let reno = CcKind::Reno.build(1448);
        assert!(bbr.model_cost_cycles() > 3 * cubic.model_cost_cycles());
        assert!(cubic.model_cost_cycles() >= reno.model_cost_cycles());
    }

    #[test]
    fn display_names() {
        assert_eq!(CcKind::Bbr.to_string(), "BBR");
        assert_eq!(CcKind::Cubic.to_string(), "Cubic");
        assert_eq!(CcKind::Bbr2.to_string(), "BBR2");
        assert_eq!(CcKind::Bbr3.to_string(), "BBR3");
        assert_eq!(CcKind::Reno.to_string(), "Reno");
    }
}
