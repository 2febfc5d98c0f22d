//! A bottleneck link: droptail queue → fixed-rate transmitter → propagation.
//!
//! This is the OpenWRT router port of the paper's testbed. The analytic
//! model: packets are served FIFO at the link rate, so packet *i*'s
//! departure is `max(enqueue_time, depart_{i-1}) + wire_bytes/rate` and its
//! arrival adds the propagation delay. A packet is dropped iff, at enqueue
//! time, the number of packets not yet fully serialised is at least the
//! queue capacity (droptail in packets, like the default `pfifo` qdisc the
//! shallow-buffer experiment of §5.2.3 shrinks to 10 packets).
//!
//! WiFi's rate variability ([`VariableRate`]) re-samples the service rate on
//! a fixed period from a deterministic RNG stream — enough to reproduce the
//! "increased variability due to WiFi artifacts" the paper notes in §3.2.

use crate::codel::{Codel, CodelConfig};
use crate::fq_codel::FqCodel;
use serde::Serialize;
use sim_core::rng::SimRng;
use sim_core::time::{SimDuration, SimTime};
use sim_core::units::Bandwidth;
use std::collections::VecDeque;

/// Outcome of offering a packet to a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOutcome {
    /// Packet accepted; it will arrive at the far end at `arrival`.
    Accepted {
        /// When the last bit leaves the transmitter.
        departs: SimTime,
        /// When the packet arrives at the far end (departs + propagation).
        arrival: SimTime,
    },
    /// Packet dropped.
    Dropped {
        /// `true` when the AQM (CoDel / FQ-CoDel) took the packet, `false`
        /// for a droptail overflow — the distinction the per-qdisc drop
        /// accounting (and its simcheck oracle) rests on.
        aqm: bool,
    },
}

/// Static configuration of a link.
///
/// The queue discipline is a first-class axis ([`LinkConfig::qdisc`]):
/// every path link — not just the fleet's shared uplink — can run FIFO,
/// CoDel, or FQ-CoDel. `qdisc` selects the discipline and `codel` stores
/// the AQM parameters; the invariant is `codel.is_some() ⇔ qdisc != Fifo`.
/// The constructors here keep it, and `SimConfig`'s builder rejects a
/// config (e.g. hand-edited JSON) that breaks it.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LinkConfig {
    /// Serialisation rate.
    pub rate: Bandwidth,
    /// One-way propagation delay.
    pub propagation: SimDuration,
    /// Droptail queue capacity in packets (slots not yet fully serialised).
    pub queue_packets: usize,
    /// AQM parameters (`Some` for CoDel and FQ-CoDel, `None` for FIFO);
    /// set through [`LinkConfig::with_qdisc`] or
    /// [`LinkConfig::with_codel_config`].
    pub codel: Option<CodelConfig>,
    /// Queue-discipline selector.
    pub qdisc: Qdisc,
}

impl LinkConfig {
    /// A link with the given rate, delay and queue depth (FIFO droptail).
    pub fn new(rate: Bandwidth, propagation: SimDuration, queue_packets: usize) -> Self {
        assert!(!rate.is_zero(), "link rate must be positive");
        assert!(queue_packets >= 1, "queue must hold at least one packet");
        LinkConfig {
            rate,
            propagation,
            queue_packets,
            codel: None,
            qdisc: Qdisc::Fifo,
        }
    }

    /// Run CoDel with explicit (non-default) parameters. The common path is
    /// [`LinkConfig::with_qdisc`], which applies the RFC 8289 defaults.
    pub fn with_codel_config(mut self, codel: CodelConfig) -> Self {
        self.codel = Some(codel);
        self.qdisc = Qdisc::Codel;
        self
    }

    /// Apply a named queue discipline with its default AQM parameters, so
    /// every caller (experiments, simcheck, benches) gets the same AQM
    /// configuration.
    pub fn with_qdisc(mut self, qdisc: Qdisc) -> Self {
        self.codel = match qdisc {
            Qdisc::Fifo => None,
            Qdisc::Codel | Qdisc::FqCodel => Some(CodelConfig::default()),
        };
        self.qdisc = qdisc;
        self
    }

    /// Which queue discipline this link runs.
    pub fn qdisc(&self) -> Qdisc {
        self.qdisc
    }
}

/// Queue-discipline selector: plain droptail FIFO, CoDel, or flow-queued
/// CoDel with the RFC 8289 defaults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Qdisc {
    /// Droptail FIFO (the default on every path link).
    Fifo,
    /// CoDel AQM ([`CodelConfig::default`] parameters).
    Codel,
    /// FQ-CoDel: per-flow CoDel buckets with DRR-approximate fair sharing
    /// (see [`crate::fq_codel`]), Android/OpenWRT's default qdisc.
    FqCodel,
}

impl std::fmt::Display for Qdisc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Qdisc::Fifo => write!(f, "FIFO"),
            Qdisc::Codel => write!(f, "CoDel"),
            Qdisc::FqCodel => write!(f, "FQ-CoDel"),
        }
    }
}

/// Optional time-varying rate (WiFi): the effective rate is re-sampled
/// every `period` uniformly in `[min, max]`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct VariableRate {
    /// Lower bound of the sampled rate.
    pub min: Bandwidth,
    /// Upper bound of the sampled rate.
    pub max: Bandwidth,
    /// Re-sampling period (coherence time of the channel).
    pub period: SimDuration,
}

/// Counters a link accumulates over a run.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct LinkStats {
    /// Packets accepted.
    pub accepted: u64,
    /// Packets dropped, droptail and AQM combined.
    pub dropped: u64,
    /// Packets dropped by the AQM specifically (subset of `dropped`) —
    /// the link-side ground truth the `aqm-accounting` oracle compares
    /// against the stack's own tally.
    pub aqm_drops: u64,
    /// Bytes accepted (wire bytes).
    pub bytes: u64,
}

/// A droptail FIFO queue feeding a (possibly time-varying) transmitter.
pub struct BottleneckLink {
    config: LinkConfig,
    codel: Option<Codel>,
    fq: Option<FqCodel>,
    variable: Option<(VariableRate, SimRng)>,
    current_rate: Bandwidth,
    next_resample: SimTime,
    /// Departure times of packets still occupying the queue/transmitter.
    in_flight: VecDeque<SimTime>,
    last_depart: SimTime,
    stats: LinkStats,
    /// Serialisation-time memo: `(rate_bps, wire_bytes) -> time_to_send`.
    /// Almost every packet on a link is the same size (MSS + headers, or a
    /// bare ACK), so this absorbs the 128-bit division in
    /// [`Bandwidth::time_to_send`] on the per-packet path. The entry holds
    /// the exact `div_ceil` result — hits are bit-identical to recomputing.
    ser_memo: (u64, u64, SimDuration),
}

impl BottleneckLink {
    /// A fixed-rate link.
    pub fn new(config: LinkConfig) -> Self {
        let rate = config.rate;
        let (codel, fq) = match config.qdisc() {
            Qdisc::Fifo => (None, None),
            Qdisc::Codel => (config.codel.map(Codel::new), None),
            Qdisc::FqCodel => (None, Some(FqCodel::new(config.codel.unwrap_or_default()))),
        };
        BottleneckLink {
            codel,
            fq,
            config,
            variable: None,
            current_rate: rate,
            next_resample: SimTime::MAX,
            in_flight: VecDeque::new(),
            last_depart: SimTime::ZERO,
            stats: LinkStats::default(),
            ser_memo: (0, 0, SimDuration::ZERO),
        }
    }

    /// A link whose rate varies per [`VariableRate`], drawing from `rng`.
    pub fn with_variable_rate(config: LinkConfig, var: VariableRate, rng: SimRng) -> Self {
        assert!(var.min <= var.max, "variable rate bounds inverted");
        assert!(!var.min.is_zero(), "variable rate must stay positive");
        let mut link = Self::new(config);
        link.next_resample = SimTime::ZERO;
        link.variable = Some((var, rng));
        link
    }

    /// Run statistics so far.
    pub fn stats(&self) -> LinkStats {
        self.stats
    }

    /// Random numbers the rate variation has drawn so far (0 for a
    /// fixed-rate link).
    pub fn draws(&self) -> u64 {
        self.variable.as_ref().map_or(0, |(_, rng)| rng.draws())
    }

    fn maybe_resample(&mut self, now: SimTime) {
        let Some((var, rng)) = self.variable.as_mut() else {
            return;
        };
        while now >= self.next_resample {
            let span = var.max.as_bps() - var.min.as_bps();
            let draw = if span == 0 { 0 } else { rng.below(span + 1) };
            self.current_rate = Bandwidth::from_bps(var.min.as_bps() + draw);
            self.next_resample += var.period;
        }
    }

    /// Packets not yet fully serialised at `now` (queue + in service).
    pub fn occupancy(&mut self, now: SimTime) -> usize {
        while let Some(&front) = self.in_flight.front() {
            if front <= now {
                self.in_flight.pop_front();
            } else {
                break;
            }
        }
        self.in_flight.len()
    }

    /// Offer one wire packet of `wire_bytes` to the link at `now` on
    /// behalf of `flow`. The flow id selects the FQ-CoDel bucket; FIFO and
    /// plain CoDel links ignore it, so any flow id gives the pre-FQ
    /// behaviour on those links.
    pub fn send_flow(&mut self, now: SimTime, wire_bytes: u64, flow: u64) -> SendOutcome {
        self.maybe_resample(now);
        if self.occupancy(now) >= self.config.queue_packets {
            self.stats.dropped += 1;
            return SendOutcome::Dropped { aqm: false };
        }
        let start = if self.last_depart > now {
            self.last_depart
        } else {
            now
        };
        // CoDel evaluates the packet's prospective sojourn (known exactly
        // under FIFO service) at enqueue time.
        if let Some(codel) = self.codel.as_mut() {
            let sojourn = start.saturating_since(now);
            if codel.should_drop(now, sojourn) {
                self.stats.dropped += 1;
                self.stats.aqm_drops += 1;
                return SendOutcome::Dropped { aqm: true };
            }
        }
        // FQ-CoDel evaluates the flow's *fair-share* sojourn estimate
        // against its own bucket's CoDel instance (sparse flows see an
        // empty bucket and sail through).
        if let Some(fq) = self.fq.as_mut() {
            if fq.should_drop(now, flow, start.saturating_since(now), self.current_rate) {
                self.stats.dropped += 1;
                self.stats.aqm_drops += 1;
                return SendOutcome::Dropped { aqm: true };
            }
        }
        let rate_bps = self.current_rate.as_bps();
        let ser = if self.ser_memo.0 == rate_bps && self.ser_memo.1 == wire_bytes {
            self.ser_memo.2
        } else {
            let ser = self.current_rate.time_to_send(wire_bytes);
            self.ser_memo = (rate_bps, wire_bytes, ser);
            ser
        };
        let departs = start + ser;
        self.last_depart = departs;
        self.in_flight.push_back(departs);
        if let Some(fq) = self.fq.as_mut() {
            fq.on_enqueue(now, self.current_rate, flow, wire_bytes);
        }
        self.stats.accepted += 1;
        self.stats.bytes += wire_bytes;
        SendOutcome::Accepted {
            departs,
            arrival: departs + self.config.propagation,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `(departs, arrival)` of a packet the link must accept.
    fn accepted(out: SendOutcome) -> (SimTime, SimTime) {
        match out {
            SendOutcome::Accepted { departs, arrival } => (departs, arrival),
            SendOutcome::Dropped { .. } => panic!("packet dropped"),
        }
    }

    fn gig_link(queue: usize) -> BottleneckLink {
        BottleneckLink::new(LinkConfig::new(
            Bandwidth::from_gbps(1),
            SimDuration::from_micros(200),
            queue,
        ))
    }

    #[test]
    fn idle_link_serialises_then_propagates() {
        let mut link = gig_link(100);
        let out = link.send_flow(SimTime::ZERO, 1514, 0);
        match out {
            SendOutcome::Accepted { departs, arrival } => {
                assert_eq!(departs, SimTime::from_nanos(12_112)); // 1514B @ 1Gbps
                assert_eq!(arrival, departs + SimDuration::from_micros(200));
            }
            SendOutcome::Dropped { .. } => panic!("idle link must accept"),
        }
    }

    #[test]
    fn back_to_back_packets_queue_behind_each_other() {
        let mut link = gig_link(100);
        let (_, first) = accepted(link.send_flow(SimTime::ZERO, 1514, 0));
        let (_, second) = accepted(link.send_flow(SimTime::ZERO, 1514, 0));
        assert_eq!(second - first, SimDuration::from_nanos(12_112));
    }

    #[test]
    fn spaced_packets_do_not_queue() {
        let mut link = gig_link(100);
        link.send_flow(SimTime::ZERO, 1514, 0);
        // Offer the next packet well after the first has departed.
        let t = SimTime::from_micros(100);
        let (_, arrival) = accepted(link.send_flow(t, 1514, 0));
        assert_eq!(
            arrival,
            t + SimDuration::from_nanos(12_112) + SimDuration::from_micros(200)
        );
    }

    #[test]
    fn droptail_fires_at_capacity() {
        let mut link = gig_link(10); // the paper's shallow buffer
        let mut dropped = 0;
        for _ in 0..44 {
            // A 64 KB unpaced burst: 44 MSS packets at one instant.
            if link.send_flow(SimTime::ZERO, 1514, 0) == (SendOutcome::Dropped { aqm: false }) {
                dropped += 1;
            }
        }
        assert_eq!(
            dropped, 34,
            "10-packet buffer admits 10 of a 44-packet burst"
        );
        assert_eq!(link.stats().dropped, 34);
        assert_eq!(link.stats().accepted, 10);
    }

    #[test]
    fn queue_drains_over_time() {
        let mut link = gig_link(10);
        for _ in 0..10 {
            accepted(link.send_flow(SimTime::ZERO, 1514, 0));
        }
        assert_eq!(
            link.send_flow(SimTime::ZERO, 1514, 0),
            SendOutcome::Dropped { aqm: false }
        );
        // After 5 serialisation times, 5 slots have freed.
        let later = SimTime::from_nanos(12_112 * 5);
        assert_eq!(link.occupancy(later), 5);
        accepted(link.send_flow(later, 1514, 0));
    }

    #[test]
    fn paced_traffic_sees_empty_queue() {
        // Pacing at below line rate keeps occupancy at ≤1 — the benefit the
        // paper's Figure 7 quantifies via RTT.
        let mut link = gig_link(600);
        let gap = SimDuration::from_micros(20); // 1514B @ ~605 Mbps
        let mut now = SimTime::ZERO;
        for _ in 0..1000 {
            let (departs, _) = accepted(link.send_flow(now, 1514, 0));
            assert!(departs - now <= SimDuration::from_micros(13));
            now += gap;
        }
    }

    #[test]
    fn queue_delay_grows_with_burst() {
        let mut link = gig_link(600);
        let mut last_depart = SimTime::ZERO;
        for _ in 0..100 {
            (last_depart, _) = accepted(link.send_flow(SimTime::ZERO, 1514, 0));
        }
        // 100 packets at 12.112 µs each ≈ 1.21 ms of queue.
        let qd = last_depart - SimTime::ZERO;
        assert_eq!(qd, SimDuration::from_nanos(12_112 * 100));
    }

    #[test]
    fn flow_id_is_ignored_off_fq_codel() {
        // FIFO and plain CoDel serve one queue: the flow id that
        // `send_flow` carries must not change a single outcome. ~120% of a
        // 100 Mbps link for 2 s, so both droptail and the AQM fire.
        for qdisc in [Qdisc::Fifo, Qdisc::Codel] {
            let cfg = LinkConfig::new(
                Bandwidth::from_mbps(100),
                SimDuration::from_micros(200),
                200,
            )
            .with_qdisc(qdisc);
            let (mut one, mut many) = (BottleneckLink::new(cfg.clone()), BottleneckLink::new(cfg));
            let mut now = SimTime::ZERO;
            for i in 0..20_000u64 {
                let a = one.send_flow(now, 1514, 0);
                assert_eq!(a, many.send_flow(now, 1514, i % 7), "{qdisc:?} packet {i}");
                now += SimDuration::from_micros(100);
            }
            assert!(one.stats().dropped > 0, "{qdisc:?}: overload must drop");
        }
    }

    #[test]
    fn variable_rate_stays_in_bounds_and_is_deterministic() {
        let cfg = LinkConfig::new(Bandwidth::from_mbps(600), SimDuration::from_millis(1), 300);
        let var = VariableRate {
            min: Bandwidth::from_mbps(400),
            max: Bandwidth::from_mbps(900),
            period: SimDuration::from_millis(100),
        };
        let mut a = BottleneckLink::with_variable_rate(cfg.clone(), var.clone(), SimRng::new(1));
        let mut b = BottleneckLink::with_variable_rate(cfg, var, SimRng::new(1));
        for i in 0..50 {
            let t = SimTime::from_millis(i * 40);
            let oa = a.send_flow(t, 1514, 0);
            let ob = b.send_flow(t, 1514, 0);
            assert_eq!(oa, ob, "same seed must give identical outcomes");
            let r = a.current_rate;
            assert!(
                r >= Bandwidth::from_mbps(400) && r <= Bandwidth::from_mbps(900),
                "rate {r}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_rejected() {
        LinkConfig::new(Bandwidth::ZERO, SimDuration::ZERO, 10);
    }

    #[test]
    #[should_panic(expected = "at least one packet")]
    fn zero_queue_rejected() {
        LinkConfig::new(Bandwidth::from_mbps(1), SimDuration::ZERO, 0);
    }

    proptest! {
        /// FIFO invariant: arrivals are non-decreasing in send order.
        #[test]
        fn prop_arrivals_are_fifo(
            sizes in proptest::collection::vec(66u64..1514, 1..100),
            gaps in proptest::collection::vec(0u64..50_000, 1..100),
        ) {
            let mut link = gig_link(1000);
            let mut now = SimTime::ZERO;
            let mut last_arrival = SimTime::ZERO;
            for (size, gap) in sizes.iter().zip(gaps.iter().cycle()) {
                now += SimDuration::from_nanos(*gap);
                if let SendOutcome::Accepted { arrival, .. } = link.send_flow(now, *size, 0) {
                    prop_assert!(arrival >= last_arrival);
                    last_arrival = arrival;
                }
            }
        }

        /// Occupancy never exceeds capacity.
        #[test]
        fn prop_occupancy_bounded(cap in 1usize..50, n in 1usize..300) {
            let mut link = BottleneckLink::new(LinkConfig::new(
                Bandwidth::from_mbps(100),
                SimDuration::from_micros(100),
                cap,
            ));
            for i in 0..n {
                let t = SimTime::from_micros(i as u64 * 10);
                link.send_flow(t, 1514, 0);
                prop_assert!(link.occupancy(t) <= cap);
            }
        }

        /// Work conservation: total service time equals Σ bytes/rate when
        /// the link never idles (all packets offered at t=0).
        #[test]
        fn prop_work_conserving(sizes in proptest::collection::vec(100u64..1514, 1..50)) {
            let rate = Bandwidth::from_mbps(100);
            let mut link = BottleneckLink::new(LinkConfig::new(rate, SimDuration::ZERO, 1000));
            let mut expected = SimTime::ZERO;
            let mut last = SimTime::ZERO;
            for &s in &sizes {
                if let SendOutcome::Accepted { departs, .. } = link.send_flow(SimTime::ZERO, s, 0) {
                    last = departs;
                }
                expected += rate.time_to_send(s);
            }
            prop_assert_eq!(last, expected);
        }
    }
}
