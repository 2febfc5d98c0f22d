//! The packet's path: *the* hop walk and *the* drop accounting.
//!
//! Data packets walk netem → the device's access link → (fleet mode) the
//! shared hop; ACKs walk the device's private reverse netem → reverse link;
//! cross traffic is offered straight to the bottleneck. All three go
//! through [`offer`], the single place a queue drop is tallied and the
//! single place the stack-side `aqm_drops` count — which FAIRNESS,
//! `loss_recovery` and the `aqm-accounting` oracle rest on — is kept.

use super::host::Device;
use super::results::HotCounters;
use super::{Event, StackSim};
use crate::mutants::{
    self,
    Mutant::{AqmDropMiscount as M7, FleetSharedBypass as M5},
};
use netsim::link::{BottleneckLink, SendOutcome};
use netsim::media::PathConfig;
use netsim::netem::{Netem, NetemVerdict};
use netsim::{wire_bytes, MSS};
use sim_core::rng::SimRng;
use sim_core::time::SimTime;

/// Offer one packet to one hop: the arrival instant at the far end, or
/// `None` with the drop tallied — to the hop's own counter, and to
/// `aqm_drops` when the AQM (not droptail) took it.
///
/// Mutant M7: the stack-side AQM tally "forgets" CoDel/FQ-CoDel drops; the
/// aqm-accounting oracle compares against `LinkStats::aqm_drops` ground
/// truth and must notice.
#[inline]
fn offer(
    link: &mut BottleneckLink,
    at: SimTime,
    wire: u64,
    flow: u64,
    hop_drops: &mut u64,
    aqm_drops: &mut u64,
) -> Option<SimTime> {
    match link.send_flow(at, wire, flow) {
        SendOutcome::Accepted { arrival, .. } => Some(arrival),
        SendOutcome::Dropped { aqm } => {
            *hop_drops += 1;
            if aqm && !mutants::is(M7) {
                *aqm_drops += 1;
            }
            None
        }
    }
}

/// One device's private media path: the uplink's netem stage and access
/// link, and the ACK return's netem stage and link.
pub(super) struct Path {
    fwd_netem: Netem,
    pub(super) fwd_link: BottleneckLink,
    rev_netem: Netem,
    pub(super) rev_link: BottleneckLink,
}

impl Path {
    /// Build device `d`'s path. RNG streams are per-device at
    /// `split(1 + 4d)`/`(2 + 4d)`/`(3 + 4d)` — device 0 draws from exactly
    /// the historical splits 1/2/3, and no device ever collides with
    /// cross-traffic's `split(4)` (4d+{1,2,3} is never ≡ 0 mod 4).
    pub(super) fn new(config: PathConfig, rng: &SimRng, d: u64) -> Self {
        let fwd_link = match config.forward_var {
            Some(var) => {
                BottleneckLink::with_variable_rate(config.forward, var, rng.split(1 + 4 * d))
            }
            None => BottleneckLink::new(config.forward),
        };
        Path {
            fwd_link,
            fwd_netem: Netem::new(config.forward_netem, rng.split(2 + 4 * d)),
            rev_netem: Netem::new(config.reverse_netem, rng.split(3 + 4 * d)),
            rev_link: BottleneckLink::new(config.reverse),
        }
    }

    /// Random numbers this path's streams have drawn: the uplink's rate
    /// variation and both netem stages.
    pub(super) fn rng_draws(&self) -> u64 {
        self.fwd_link.draws() + self.fwd_netem.draws() + self.rev_netem.draws()
    }

    /// Walk one MSS data packet, released by the device at `at`, to the
    /// server. In fleet mode the access-link egress feeds the `shared`
    /// bottleneck, admission stamped at the access arrival instant; a
    /// shared-queue drop loses the packet exactly like an access drop.
    #[inline]
    pub(super) fn forward(
        &mut self,
        shared: Option<&mut BottleneckLink>,
        tallies: &mut HotCounters,
        at: SimTime,
        flow: u64,
    ) -> Option<SimTime> {
        let wire = wire_bytes(MSS);
        let NetemVerdict::Pass { release } = self.fwd_netem.process(at, wire) else {
            tallies.netem_drops += 1;
            return None;
        };
        let arrival = offer(
            &mut self.fwd_link,
            release,
            wire,
            flow,
            &mut tallies.queue_drops,
            &mut tallies.aqm_drops,
        )?;
        let Some(shared) = shared else {
            return Some(arrival);
        };
        // Mutant M5: every 64th packet teleports past the shared
        // bottleneck — no serialisation, no queueing, no drop accounting.
        // Fleet throughput can then exceed the shared capacity, which the
        // fleet-conservation oracle must flag.
        if mutants::is(M5) && mutants::bypass_this_shared_pkt() {
            return Some(arrival);
        }
        let arrival = offer(
            shared,
            arrival,
            wire,
            flow,
            &mut tallies.shared_drops,
            &mut tallies.aqm_drops,
        )?;
        tallies.shared_pkts += 1;
        Some(arrival)
    }

    /// Walk one pure ACK, emitted by the server at `at`, back to the
    /// device (the server's NIC is never the bottleneck, but serialisation
    /// and propagation still apply). ACKs ride each device's private
    /// reverse path — the download direction never traverses the fleet's
    /// shared uplink bottleneck.
    pub(super) fn reverse(
        &mut self,
        tallies: &mut HotCounters,
        at: SimTime,
        flow: u64,
    ) -> Option<SimTime> {
        let wire = wire_bytes(0);
        let NetemVerdict::Pass { release } = self.rev_netem.process(at, wire) else {
            tallies.ack_drops += 1;
            return None;
        };
        offer(
            &mut self.rev_link,
            release,
            wire,
            flow,
            &mut tallies.ack_drops,
            &mut tallies.aqm_drops,
        )
    }
}

/// The binding constraint: the shared bottleneck in fleet mode, device 0's
/// uplink otherwise. Cross traffic competes here and queue telemetry
/// watches it.
pub(super) fn bottleneck<'a>(
    shared: &'a mut Option<BottleneckLink>,
    devices: &'a mut [Device],
) -> &'a mut BottleneckLink {
    match shared {
        Some(shared) => shared,
        None => &mut devices[0].path.fwd_link,
    }
}

/// Offer one background cross-traffic packet to the bottleneck. Open-loop:
/// drops are the queue's business. Cross traffic is one aggregate flow;
/// `u64::MAX` keeps its FQ-CoDel bucket clear of any connection's (conn ids
/// are dense from 0).
fn offer_cross(link: &mut BottleneckLink, tallies: &mut HotCounters, now: SimTime, bytes: u64) {
    let accepted = offer(
        link,
        now,
        bytes,
        u64::MAX,
        &mut tallies.cross_drops,
        &mut tallies.aqm_drops,
    );
    if accepted.is_some() {
        tallies.cross_pkts += 1;
    }
}

impl StackSim {
    /// A background cross-traffic packet reaches the bottleneck.
    pub(super) fn on_cross_arrival(&mut self, now: SimTime) {
        let cross = self.cross.as_mut().expect("cross event without source");
        let bytes = cross.pkt_bytes();
        cross.pop();
        let next = cross.next_arrival();
        let link = bottleneck(&mut self.shared_link, &mut self.devices);
        offer_cross(link, &mut self.tallies, now, bytes);
        self.queue.schedule_at(next.max(now), Event::CrossArrival);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::link::{LinkConfig, Qdisc};
    use netsim::netem::NetemConfig;
    use sim_core::time::SimDuration;
    use sim_core::units::Bandwidth;

    /// A 1 Mbps hop (12 ms per MSS packet) behind a 20-packet queue: a
    /// packet per millisecond overruns it, so droptail overflows under
    /// every qdisc and an AQM also drops on its own account.
    fn choke(qdisc: Qdisc) -> LinkConfig {
        LinkConfig::new(Bandwidth::from_mbps(1), SimDuration::from_millis(1), 20).with_qdisc(qdisc)
    }

    fn wide() -> LinkConfig {
        LinkConfig::new(
            Bandwidth::from_gbps(10),
            SimDuration::from_millis(1),
            10_000,
        )
    }

    #[derive(Debug, Clone, Copy)]
    enum Hop {
        Access,
        Shared,
        Reverse,
        Cross,
    }

    /// Push a second of one-packet-per-millisecond traffic through a path
    /// whose only narrow hop is `hop`, running `qdisc`. Returns the stack's
    /// tallies, that hop's own drop counter, and the hop's link statistics.
    fn flood(hop: Hop, qdisc: Qdisc) -> (HotCounters, u64, netsim::link::LinkStats) {
        let at = |hop_is: bool| if hop_is { choke(qdisc) } else { wide() };
        let mut path = Path::new(
            PathConfig {
                label: "test".into(),
                forward: at(matches!(hop, Hop::Access)),
                forward_var: None,
                reverse: at(matches!(hop, Hop::Reverse)),
                forward_netem: NetemConfig::none(),
                reverse_netem: NetemConfig::none(),
            },
            &SimRng::new(1),
            0,
        );
        let mut shared = BottleneckLink::new(at(matches!(hop, Hop::Shared | Hop::Cross)));
        let mut tallies = HotCounters::default();
        for ms in 0..1_000 {
            let now = SimTime::from_millis(ms);
            match hop {
                Hop::Access | Hop::Shared => {
                    path.forward(Some(&mut shared), &mut tallies, now, 0);
                }
                Hop::Reverse => {
                    // A bare ACK serialises in half a millisecond here, so
                    // it takes a burst per tick to overrun the hop.
                    for _ in 0..24 {
                        path.reverse(&mut tallies, now, 0);
                    }
                }
                Hop::Cross => offer_cross(&mut shared, &mut tallies, now, wire_bytes(MSS)),
            }
        }
        let links = [&path.fwd_link, &path.rev_link, &shared];
        let aqm_everywhere: u64 = links.iter().map(|l| l.stats().aqm_drops).sum();
        let (own, stats) = match hop {
            Hop::Access => (tallies.queue_drops, path.fwd_link.stats()),
            Hop::Shared => (tallies.shared_drops, shared.stats()),
            Hop::Reverse => (tallies.ack_drops, path.rev_link.stats()),
            Hop::Cross => (tallies.cross_drops, shared.stats()),
        };
        assert_eq!(
            aqm_everywhere, stats.aqm_drops,
            "{hop:?}/{qdisc}: only the narrow hop may drop"
        );
        (tallies, own, stats)
    }

    const HOPS: [Hop; 4] = [Hop::Access, Hop::Shared, Hop::Reverse, Hop::Cross];
    const QDISCS: [Qdisc; 3] = [Qdisc::Fifo, Qdisc::Codel, Qdisc::FqCodel];

    #[test]
    fn stack_side_drop_tallies_match_the_links_at_every_hop() {
        for hop in HOPS {
            for qdisc in QDISCS {
                let (tallies, own, link) = flood(hop, qdisc);
                assert!(
                    link.dropped > 0,
                    "{hop:?}/{qdisc}: the flood must force drops"
                );
                assert_eq!(own, link.dropped, "{hop:?}/{qdisc}: hop drop counter");
                assert_eq!(
                    tallies.aqm_drops, link.aqm_drops,
                    "{hop:?}/{qdisc}: the aqm-accounting identity, per hop"
                );
                assert_eq!(
                    link.aqm_drops > 0,
                    qdisc != Qdisc::Fifo,
                    "{hop:?}/{qdisc}: AQM drops happen exactly under an AQM"
                );
                let drops = [
                    tallies.netem_drops,
                    tallies.queue_drops,
                    tallies.shared_drops,
                    tallies.ack_drops,
                    tallies.cross_drops,
                ];
                assert_eq!(
                    drops.iter().sum::<u64>(),
                    own,
                    "{hop:?}/{qdisc}: no other hop's counter moved"
                );
            }
        }
    }

    /// Under mutant M7 the stack-side tally loses exactly the forced AQM
    /// drops — the divergence the aqm-accounting oracle exists to catch —
    /// at every hop, while the per-hop drop counters stay right.
    #[cfg(feature = "simcheck-mutants")]
    #[test]
    fn m7_loses_exactly_the_forced_aqm_drops_at_every_hop() {
        let runs: Vec<_> = mutants::with(Some(M7), || {
            HOPS.into_iter()
                .flat_map(|hop| QDISCS.map(|qdisc| (hop, qdisc, flood(hop, qdisc))))
                .collect()
        });
        for (hop, qdisc, (tallies, own, link)) in runs {
            assert_eq!(own, link.dropped, "{hop:?}/{qdisc}: hop drop counter");
            assert_eq!(
                tallies.aqm_drops, 0,
                "{hop:?}/{qdisc}: link saw {} AQM drops, all of them forgotten",
                link.aqm_drops
            );
        }
    }
}
