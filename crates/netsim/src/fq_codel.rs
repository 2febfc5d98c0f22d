//! FQ-CoDel: per-flow CoDel buckets with DRR-approximate fair sharing
//! (RFC 8290) — the default qdisc on Android and OpenWRT, and the AQM the
//! related BBRv3/WiFi measurement studies evaluate BBR variants under.
//!
//! The bottleneck link stays analytic (global FIFO service, departures
//! computed at enqueue — see [`crate::link`]), so flow queueing is modelled
//! where it matters for the drop decision rather than in the service order:
//!
//! * each flow hashes to one of `NUM_BUCKETS` buckets, each owning its
//!   own [`Codel`] controller and a *virtual DRR backlog*: accepted bytes
//!   accumulate in the flow's bucket and drain at the bucket's deficit
//!   round-robin share of the link rate (`rate / active_buckets`), exactly
//!   as a real fq_codel scheduler would serve them — independently of
//!   where the packets sit in the link's physical FIFO;
//! * a packet's sojourn estimate rescales the link's exact FIFO sojourn by
//!   the bucket's share of the virtual backlog: `fifo_sojourn × own ×
//!   active / total`. A lone flow owns the whole backlog (ratio 1), so
//!   one-flow FQ-CoDel is drop-for-drop identical to plain CoDel; a sparse
//!   flow's bucket drains at fair share far faster than it refills, so its
//!   backlog — and hence its sojourn — stays ~0 and it is never dropped;
//!   an over-filled bucket waits proportionally longer than FIFO;
//! * the bucket's CoDel judges that estimate, so a bulk flow standing in
//!   its own queue gets clipped while a sparse flow sails through —
//!   FQ-CoDel's signature isolation property.
//!
//! The droptail packet cap of the host link still applies globally before
//! the AQM (the physical queue is shared); the AQM's `× active` sojourn
//! inflation makes it bite well before droptail under closed-loop traffic.

use crate::codel::{Codel, CodelConfig};
use sim_core::time::{SimDuration, SimTime};
use sim_core::units::Bandwidth;

/// Number of flow buckets (the Linux default is 1024; 64 keeps the state
/// small while making same-bucket collisions unlikely at the simulator's
/// connection counts).
pub(crate) const NUM_BUCKETS: usize = 64;

struct Bucket {
    codel: Codel,
    backlog_bytes: u64,
}

/// The FQ-CoDel controller: per-bucket CoDel + virtual DRR backlog.
pub struct FqCodel {
    buckets: Vec<Bucket>,
    /// Buckets with a non-zero backlog.
    active: usize,
    /// Total virtual backlog bytes across all buckets.
    total_backlog: u64,
    /// When the virtual DRR server last ran.
    last_drain: SimTime,
    /// Sub-share bytes left over by integer division in the last drain.
    carry: u64,
}

impl FqCodel {
    /// A controller whose buckets all run CoDel with `config` parameters.
    pub(crate) fn new(config: CodelConfig) -> Self {
        FqCodel {
            buckets: (0..NUM_BUCKETS)
                .map(|_| Bucket {
                    codel: Codel::new(config),
                    backlog_bytes: 0,
                })
                .collect(),
            active: 0,
            total_backlog: 0,
            last_drain: SimTime::ZERO,
            carry: 0,
        }
    }

    /// Deterministic flow → bucket hash (Fibonacci multiplicative hashing;
    /// connection ids are small consecutive integers, which this spreads
    /// uniformly over the buckets).
    fn bucket_of(flow: u64) -> usize {
        (flow.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58) as usize % NUM_BUCKETS
    }

    /// Run the virtual DRR server up to `now`: the bytes the link served
    /// since the last call are split evenly over the active buckets, with
    /// shares unused by buckets that empty redistributed to the rest (DRR
    /// work conservation). `rate` is the link's current rate; for
    /// variable-rate links the instantaneous rate stands in for the whole
    /// elapsed window, an approximation on the channel's coherence scale.
    fn drain(&mut self, now: SimTime, rate: Bandwidth) {
        let elapsed = now.saturating_since(self.last_drain);
        self.last_drain = now;
        if self.active == 0 {
            // An idle scheduler banks nothing (the link head-of-line is
            // other traffic or silence either way).
            self.carry = 0;
            return;
        }
        let mut budget = self.carry + rate.bytes_in(elapsed);
        while budget > 0 && self.active > 0 {
            let share = budget / self.active as u64;
            if share == 0 {
                break;
            }
            for b in &mut self.buckets {
                if b.backlog_bytes == 0 {
                    continue;
                }
                let take = share.min(b.backlog_bytes);
                b.backlog_bytes -= take;
                self.total_backlog -= take;
                budget -= take;
                if b.backlog_bytes == 0 {
                    self.active -= 1;
                }
            }
        }
        // Whatever the integer division left over waits for the next round.
        self.carry = if self.active == 0 { 0 } else { budget };
    }

    /// Should the packet `flow` offers at `now` be dropped? `fifo_sojourn`
    /// is the link's exact queueing delay at the offer instant and `rate`
    /// its current service rate; the flow's DRR fair-share estimate
    /// rescales the FIFO sojourn by `own × active / total`.
    pub(crate) fn should_drop(
        &mut self,
        now: SimTime,
        flow: u64,
        fifo_sojourn: SimDuration,
        rate: Bandwidth,
    ) -> bool {
        self.drain(now, rate);
        let bucket = Self::bucket_of(flow);
        let own = self.buckets[bucket].backlog_bytes;
        let sojourn = if own == 0 || self.total_backlog == 0 {
            SimDuration::ZERO
        } else {
            let est = fifo_sojourn.as_nanos() as u128 * own as u128 * self.active.max(1) as u128
                / self.total_backlog as u128;
            SimDuration::from_nanos(est.min(u64::MAX as u128) as u64)
        };
        self.buckets[bucket].codel.should_drop(now, sojourn)
    }

    /// Record an accepted packet: `wire_bytes` lands in `flow`'s bucket.
    pub(crate) fn on_enqueue(&mut self, now: SimTime, rate: Bandwidth, flow: u64, wire_bytes: u64) {
        self.drain(now, rate);
        let b = &mut self.buckets[Self::bucket_of(flow)];
        if b.backlog_bytes == 0 {
            self.active += 1;
        }
        b.backlog_bytes += wire_bytes;
        self.total_backlog += wire_bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::{BottleneckLink, LinkConfig, Qdisc, SendOutcome};

    fn link(qdisc: Qdisc, queue: usize) -> BottleneckLink {
        BottleneckLink::new(
            LinkConfig::new(
                Bandwidth::from_mbps(100),
                SimDuration::from_micros(200),
                queue,
            )
            .with_qdisc(qdisc),
        )
    }

    #[test]
    fn distinct_flows_spread_over_buckets() {
        let hits: std::collections::BTreeSet<usize> = (0..20u64).map(FqCodel::bucket_of).collect();
        assert!(
            hits.len() >= 18,
            "20 consecutive flow ids should land in (nearly) distinct buckets, got {}",
            hits.len()
        );
    }

    #[test]
    fn single_flow_matches_plain_codel_drop_for_drop() {
        // One flow: the fair-share sojourn estimate equals the FIFO
        // sojourn, so FQ-CoDel must make the same drop decisions as CoDel.
        let mut fq = link(Qdisc::FqCodel, 1000);
        let mut plain = link(Qdisc::Codel, 1000);
        let mut now = SimTime::ZERO;
        for i in 0..5_000u64 {
            // Offer ~20% above capacity so a standing queue forms.
            let a = fq.send_flow(now, 1514, 7);
            let b = plain.send_flow(now, 1514, 0);
            assert_eq!(
                matches!(a, SendOutcome::Dropped { .. }),
                matches!(b, SendOutcome::Dropped { .. }),
                "packet {i}: FQ (single flow) diverged from plain CoDel"
            );
            now += SimDuration::from_micros(100);
        }
        assert_eq!(fq.stats().aqm_drops, plain.stats().aqm_drops);
        assert!(fq.stats().aqm_drops > 0, "overload must trigger the AQM");
    }

    #[test]
    fn sparse_flow_is_isolated_from_a_bulk_flow() {
        // A bulk flow bloats its own bucket; a sparse flow sending one
        // packet every 10 ms must never be AQM-dropped (FQ's whole point),
        // while the same sparse flow through plain CoDel shares the bulk
        // flow's fate. Deep droptail so the AQM is the binding constraint.
        let mut fq = link(Qdisc::FqCodel, 1_000_000);
        let mut plain = link(Qdisc::Codel, 1_000_000);
        let mut sparse_fq_drops = 0u64;
        let mut sparse_plain_drops = 0u64;
        let mut now = SimTime::ZERO;
        for i in 0..200_000u64 {
            // The sparse packet goes first at its instants — otherwise the
            // bulk packet at the same timestamp eats every scheduled CoDel
            // drop and hides plain CoDel's indiscriminate behaviour.
            if i % 100 == 0 {
                if let SendOutcome::Dropped { .. } = fq.send_flow(now, 200, 2) {
                    sparse_fq_drops += 1;
                }
                if let SendOutcome::Dropped { .. } = plain.send_flow(now, 200, 0) {
                    sparse_plain_drops += 1;
                }
            }
            // Bulk flow at ~120% of capacity, for 20 s.
            fq.send_flow(now, 1514, 1);
            plain.send_flow(now, 1514, 0);
            now += SimDuration::from_micros(100);
        }
        assert_eq!(sparse_fq_drops, 0, "FQ-CoDel must isolate the sparse flow");
        assert!(
            sparse_plain_drops > 0,
            "plain CoDel punishes the sparse flow alongside the bulk flow"
        );
        assert!(
            fq.stats().aqm_drops > 0,
            "the bulk flow itself must still be clipped"
        );
    }

    #[test]
    fn bulk_flow_queue_is_clipped() {
        // Under sustained overload FQ-CoDel sheds load where FIFO just
        // queues: by the end of a long run the AQM'd queue must sit far
        // below the FIFO one (which grows to its droptail cap).
        let mut fq = link(Qdisc::FqCodel, 100_000);
        let mut fifo = link(Qdisc::Fifo, 100_000);
        let mut now = SimTime::ZERO;
        // Each link's queueing delay at `now` runs to its last departure.
        let (mut fq_last, mut fifo_last) = (SimTime::ZERO, SimTime::ZERO);
        for _ in 0..600_000u64 {
            // ~120% of capacity for 60 s.
            if let SendOutcome::Accepted { departs, .. } = fq.send_flow(now, 1514, 1) {
                fq_last = departs;
            }
            if let SendOutcome::Accepted { departs, .. } = fifo.send_flow(now, 1514, 0) {
                fifo_last = departs;
            }
            now += SimDuration::from_micros(100);
        }
        let fq_delay = fq_last.saturating_since(now);
        let fifo_delay = fifo_last.saturating_since(now);
        assert!(
            fq_delay < fifo_delay / 4,
            "FQ-CoDel queue delay {fq_delay} should be far below FIFO's {fifo_delay}"
        );
    }
}
