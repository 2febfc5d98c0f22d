//! The server-side receiver: reorder tracking and SACK-bearing ACKs.
//!
//! The iPerf server of the paper's Figure 1 runs on a desktop whose CPU is
//! never the bottleneck, so the receiver here is pure protocol logic: track
//! which packet sequence numbers have arrived, maintain `rcv_nxt`, and emit
//! cumulative ACKs with up to three SACK ranges.
//!
//! ACK cadence is GRO-shaped: modern receivers coalesce a back-to-back
//! burst into one super-segment and ACK it once. The simulator's event loop
//! implements the coalescing window; this module classifies each arrival as
//! [`AckUrgency::Immediate`] (out-of-order data or a hole being filled —
//! TCP acks those at once to trigger fast retransmit) or
//! [`AckUrgency::Coalesce`] (in-order bulk that can share a delayed ACK).

use crate::seq::PktSeq;

/// How urgently an arrival must be acknowledged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckUrgency {
    /// Out-of-order or hole-filling: ACK immediately (dup-ACK semantics).
    Immediate,
    /// In-order data: may share a coalesced ACK.
    Coalesce,
}

/// The acknowledgement content a receiver emits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AckInfo {
    /// Cumulative ACK: everything below this sequence has arrived.
    pub cum: PktSeq,
    /// Up to three SACK ranges `[lo, hi)` above `cum`, lowest first.
    pub sacks: Vec<(PktSeq, PktSeq)>,
}

/// Per-connection receiver state.
///
/// Out-of-order data is tracked as maximal runs rather than individual
/// sequence numbers: a window-sized hole used to make every ACK emission
/// walk one set entry per buffered packet (quadratic over a loss episode);
/// with runs, [`Receiver::build_ack_into`] is O(1) and the per-packet
/// bookkeeping is O(log holes).
#[derive(Debug, Clone)]
pub struct Receiver {
    rcv_nxt: u64,
    /// Maximal disjoint runs `[lo, hi)` of sequences received above
    /// `rcv_nxt`, sorted ascending and never adjacent (touching runs are
    /// merged on insert). Exactly the connection's SACK blocks.
    ooo: Vec<(u64, u64)>,
    total_received: u64,
    duplicates: u64,
}

impl Receiver {
    /// A fresh receiver expecting sequence 0.
    pub fn new() -> Self {
        Receiver {
            rcv_nxt: 0,
            ooo: Vec::new(),
            total_received: 0,
            duplicates: 0,
        }
    }

    /// Whether `seq` sits inside one of the buffered out-of-order runs.
    fn ooo_contains(&self, seq: u64) -> bool {
        // First run whose end lies beyond `seq`; it contains `seq` iff it
        // also starts at or below it.
        let i = self.ooo.partition_point(|&(_, hi)| hi <= seq);
        self.ooo.get(i).is_some_and(|&(lo, _)| lo <= seq)
    }

    /// Insert `seq` (known absent and above `rcv_nxt`), merging runs.
    fn ooo_insert(&mut self, seq: u64) {
        // First run whose end reaches `seq`: the only append candidate;
        // the run after it is the only prepend candidate.
        let i = self.ooo.partition_point(|&(_, hi)| hi < seq);
        match self.ooo.get(i).copied() {
            Some((_, hi)) if hi == seq => {
                self.ooo[i].1 = seq + 1;
                // Appending may have closed the gap to the next run.
                if let Some(&(nlo, nhi)) = self.ooo.get(i + 1) {
                    if nlo == seq + 1 {
                        self.ooo[i].1 = nhi;
                        self.ooo.remove(i + 1);
                    }
                }
            }
            Some((lo, _)) if lo == seq + 1 => self.ooo[i].0 = seq,
            _ => self.ooo.insert(i, (seq, seq + 1)),
        }
    }

    /// Next expected sequence (everything below has been delivered to the
    /// application — iPerf's byte counter).
    pub(crate) fn rcv_nxt(&self) -> PktSeq {
        PktSeq(self.rcv_nxt)
    }

    /// Packets accepted (in-order or buffered), excluding duplicates.
    pub(crate) fn total_received(&self) -> u64 {
        self.total_received
    }

    /// Duplicate packets seen (spurious retransmissions).
    pub(crate) fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// Process an arriving run of packets `[lo, hi)`; returns how urgently
    /// to acknowledge.
    pub fn on_data(&mut self, lo: PktSeq, hi: PktSeq) -> AckUrgency {
        assert!(lo < hi, "empty packet run");
        // Mutant M2: claim one packet beyond the run — a SACK/merge
        // off-by-one. The sender clamps incoming ACKs to `snd_nxt`, so
        // this cannot crash the scoreboard; it must instead be caught by
        // the rx-conservation oracle (accepted > survived the wire).
        let hi = if crate::mutants::is(crate::mutants::Mutant::SackClaimExtra) {
            PktSeq(hi.0 + 1)
        } else {
            hi
        };
        let mut urgency = AckUrgency::Coalesce;
        let arrived_above = !self.ooo.is_empty();
        for seq in lo.0..hi.0 {
            if seq < self.rcv_nxt || self.ooo_contains(seq) {
                self.duplicates += 1;
                // Duplicate data earns an immediate (dup) ACK too.
                urgency = AckUrgency::Immediate;
                continue;
            }
            self.total_received += 1;
            if seq == self.rcv_nxt {
                self.rcv_nxt += 1;
                // Drain any buffered continuation: runs are maximal, so at
                // most the first run continues from `rcv_nxt`.
                if let Some(&(rlo, rhi)) = self.ooo.first() {
                    if rlo == self.rcv_nxt {
                        self.rcv_nxt = rhi;
                        self.ooo.remove(0);
                    }
                }
                if arrived_above {
                    // We just filled (part of) a hole: tell the sender now.
                    urgency = AckUrgency::Immediate;
                }
            } else {
                self.ooo_insert(seq);
                urgency = AckUrgency::Immediate;
            }
        }
        urgency
    }

    /// Build the current acknowledgement (cumulative + up to 3 SACKs) into
    /// a caller-owned `AckInfo`, reusing its `sacks` capacity. The
    /// simulator pools the SACK vectors so steady-state ACK emission never
    /// touches the heap.
    pub fn build_ack_into(&self, ack: &mut AckInfo) {
        ack.cum = PktSeq(self.rcv_nxt);
        ack.sacks.clear();
        // The buffered runs *are* the SACK blocks: report the lowest three.
        for &(lo, hi) in self.ooo.iter().take(3) {
            ack.sacks.push((PktSeq(lo), PktSeq(hi)));
        }
    }

    /// [`Self::build_ack_into`] a fresh `AckInfo`. Test builds only.
    #[cfg(test)]
    pub(crate) fn build_ack(&self) -> AckInfo {
        let mut ack = AckInfo {
            cum: PktSeq(0),
            sacks: Vec::new(),
        };
        self.build_ack_into(&mut ack);
        ack
    }
}

impl Default for Receiver {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn in_order_stream_advances_cumulative() {
        let mut r = Receiver::new();
        assert_eq!(r.on_data(PktSeq(0), PktSeq(10)), AckUrgency::Coalesce);
        let ack = r.build_ack();
        assert_eq!(ack.cum, PktSeq(10));
        assert!(ack.sacks.is_empty());
        assert_eq!(r.total_received(), 10);
    }

    #[test]
    fn gap_triggers_immediate_ack_with_sack() {
        let mut r = Receiver::new();
        r.on_data(PktSeq(0), PktSeq(5));
        // Packets 5..7 lost; 7..10 arrive.
        assert_eq!(r.on_data(PktSeq(7), PktSeq(10)), AckUrgency::Immediate);
        let ack = r.build_ack();
        assert_eq!(ack.cum, PktSeq(5));
        assert_eq!(ack.sacks, vec![(PktSeq(7), PktSeq(10))]);
    }

    #[test]
    fn hole_fill_advances_past_buffered_data() {
        let mut r = Receiver::new();
        r.on_data(PktSeq(0), PktSeq(5));
        r.on_data(PktSeq(7), PktSeq(10));
        // The retransmission of 5..7 fills the hole.
        assert_eq!(r.on_data(PktSeq(5), PktSeq(7)), AckUrgency::Immediate);
        let ack = r.build_ack();
        assert_eq!(ack.cum, PktSeq(10));
        assert!(ack.sacks.is_empty());
    }

    #[test]
    fn multiple_holes_multiple_sacks() {
        let mut r = Receiver::new();
        r.on_data(PktSeq(0), PktSeq(2));
        r.on_data(PktSeq(4), PktSeq(6));
        r.on_data(PktSeq(8), PktSeq(10));
        r.on_data(PktSeq(12), PktSeq(14));
        let ack = r.build_ack();
        assert_eq!(ack.cum, PktSeq(2));
        assert_eq!(
            ack.sacks,
            vec![
                (PktSeq(4), PktSeq(6)),
                (PktSeq(8), PktSeq(10)),
                (PktSeq(12), PktSeq(14)),
            ]
        );
    }

    #[test]
    fn sack_ranges_capped_at_three() {
        let mut r = Receiver::new();
        for i in 0..5u64 {
            let lo = 2 + i * 4;
            r.on_data(PktSeq(lo), PktSeq(lo + 2));
        }
        let ack = r.build_ack();
        assert_eq!(ack.sacks.len(), 3, "TCP option space limits SACK blocks");
    }

    #[test]
    fn duplicates_counted_and_acked_immediately() {
        let mut r = Receiver::new();
        r.on_data(PktSeq(0), PktSeq(5));
        assert_eq!(r.on_data(PktSeq(2), PktSeq(4)), AckUrgency::Immediate);
        assert_eq!(r.duplicates(), 2);
        assert_eq!(r.total_received(), 5, "duplicates don't count as goodput");
    }

    #[test]
    #[should_panic(expected = "empty packet run")]
    fn empty_run_rejected() {
        Receiver::new().on_data(PktSeq(3), PktSeq(3));
    }

    proptest! {
        /// Delivering a permutation of 0..n in arbitrary chunk order always
        /// converges to cum = n with no SACKs outstanding.
        #[test]
        fn prop_any_arrival_order_converges(order in proptest::sample::subsequence((0u64..60).collect::<Vec<_>>(), 60)) {
            // `order` is 0..60 in order; shuffle deterministically by
            // splitting odd/even then reversing.
            let mut shuffled: Vec<u64> = order.iter().copied().filter(|x| x % 3 == 0).collect();
            shuffled.extend(order.iter().copied().filter(|x| x % 3 == 1).rev());
            shuffled.extend(order.iter().copied().filter(|x| x % 3 == 2));
            let mut r = Receiver::new();
            for s in &shuffled {
                r.on_data(PktSeq(*s), PktSeq(*s + 1));
            }
            let ack = r.build_ack();
            prop_assert_eq!(ack.cum, PktSeq(60));
            prop_assert!(ack.sacks.is_empty());
            prop_assert_eq!(r.total_received(), 60);
        }

        /// rcv_nxt never decreases and never overtakes received data.
        #[test]
        fn prop_rcv_nxt_monotone(chunks in proptest::collection::vec((0u64..100, 1u64..5), 1..50)) {
            let mut r = Receiver::new();
            let mut last = PktSeq(0);
            for (lo, len) in chunks {
                r.on_data(PktSeq(lo), PktSeq(lo + len));
                let now = r.rcv_nxt();
                prop_assert!(now >= last);
                last = now;
            }
        }
    }
}
