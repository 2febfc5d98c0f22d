//! The peer: the ideal server's receive side and its ACK emission.

use super::path::capture_ack;
use super::{Event, StackSim};
use crate::receiver::{AckInfo, AckUrgency};
use crate::seq::PktSeq;
use sim_core::time::SimTime;

impl StackSim {
    /// A (GRO-aggregated) socket buffer reaches the server: classify its
    /// runs and ACK immediately (holes) or within the coalescing window.
    pub(super) fn on_skb_arrival(&mut self, c: usize, now: SimTime, runs: Vec<(PktSeq, PktSeq)>) {
        // Non-GRO mode: the server acks every `n` in-order segments, as a
        // classic stack would — each ACK costs the phone CPU.
        if let Some(n) = self.cfg.ack_per_segs {
            let mut pending = 0u64;
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
            self.run_pool.put(runs);
            for _ in 0..pending {
                self.emit_ack(c, now);
            }
            return;
        }

        let mut urgency = AckUrgency::Coalesce;
        let receiver = &mut self.arena.receiver[c];
        for &(lo, hi) in &runs {
            if receiver.on_data(lo, hi) == AckUrgency::Immediate {
                urgency = AckUrgency::Immediate;
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

    /// Build the connection's current ACK and send it down the device's
    /// reverse path. A lost ACK is simply gone; a later one supersedes it.
    pub(super) fn emit_ack(&mut self, c: usize, now: SimTime) {
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
        let path = &mut self.devices[self.device_of[c] as usize].path;
        let Some(arrival) = path.reverse(&mut self.tallies, now, c as u64) else {
            self.sack_pool.put(ack.sacks);
            return;
        };
        if let Some(pcap) = self.pcap.as_mut() {
            capture_ack(pcap, c, now, &ack);
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
