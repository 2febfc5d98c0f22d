//! Cycle costs of networking-stack operations.
//!
//! These constants are the calibration layer between our simulator and the
//! paper's physical Pixel phones. Absolute values were chosen so that the
//! *equilibria* of the paper's Figure 2 emerge (see `DESIGN.md` §4 for the
//! arithmetic): at 576 MHz, unpaced Cubic lands near 364 Mbps with one
//! connection and paced BBR near 325 Mbps; at 2.8 GHz both clear 915 Mbps.
//!
//! The decomposition follows the Linux transmit path:
//!
//! * **per-byte** — data touching: copy from userspace, checksum on the
//!   USB-Ethernet adapter path (no hardware offload on the paper's dongle);
//! * **per-skb fixed** — `tcp_transmit_skb` + qdisc + driver ring setup,
//!   paid once per socket buffer regardless of its size (this is why TSO
//!   autosizing matters: small paced skbs pay it far more often per byte);
//! * **ACK processing** — `tcp_ack` bookkeeping and rate sampling;
//! * **timer arm / fire** — hrtimer programming and the expiration softirq
//!   that reschedules the socket; the paper's §6.1 identifies the fire path
//!   ("timer expiration reschedules a callback to process the socket and
//!   send the next socket buffer") as the pacing overhead;
//! * **CC model cost** is *not* here: each congestion-control algorithm
//!   reports its own per-ACK cost, which lets the paper's §5.1.1 experiment
//!   (disable BBR's model computation) zero it out independently.

use serde::Serialize;

/// Cycle costs for each operation the TCP stack charges to the CPU.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct CostModel {
    /// Cycles per payload byte transmitted (copy + checksum + cache traffic).
    pub per_byte: u64,
    /// Fixed cycles per socket buffer handed to the device, independent of
    /// its size (`tcp_transmit_skb`, qdisc enqueue/dequeue, driver xmit).
    pub skb_xmit_fixed: u64,
    /// Cycles to process one incoming ACK (socket lookup, `tcp_ack`,
    /// delivery-rate sampling), excluding the CC module's own cost.
    pub ack_process: u64,
    /// Cycles to arm (program) the pacing hrtimer after a paced send.
    pub timer_arm: u64,
    /// Cycles for a pacing-timer expiration: hrtimer interrupt, tasklet /
    /// TSQ handler, socket re-scheduling. The paper's pacing overhead.
    pub timer_fire: u64,
    /// Cycles for an RTO expiration and retransmission-queue scan.
    pub rto_process: u64,
    /// Cycles charged when a retransmission is queued (scoreboard update,
    /// skb requeue) on top of the normal transmit cost.
    pub retransmit_fixed: u64,
    /// Cycles per connection per `connect()` handshake (negligible for the
    /// paper's 5-minute flows but kept for completeness).
    pub conn_setup: u64,
}

impl CostModel {
    /// Calibrated default used by all experiments (see module docs).
    pub const fn mobile_default() -> Self {
        CostModel {
            per_byte: 12,
            skb_xmit_fixed: 18_000,
            ack_process: 5_500,
            timer_arm: 3_500,
            timer_fire: 9_000,
            rto_process: 12_000,
            retransmit_fixed: 6_000,
            conn_setup: 50_000,
        }
    }

    /// A cost model with free pacing timers: models the "fine-grained
    /// hardware pacing" alternative the BBR authors suggest (§7.1.4) — the
    /// NIC paces, the CPU never sees a timer.
    pub fn with_free_timers(mut self) -> Self {
        self.timer_arm = 0;
        self.timer_fire = 0;
        self
    }

    /// Scale the timer costs by `factor` (ablation: how cheap must timers
    /// become before the pacing stride stops mattering?).
    pub fn with_timer_cost_factor(mut self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "factor must be finite and >= 0"
        );
        self.timer_arm = (self.timer_arm as f64 * factor) as u64;
        self.timer_fire = (self.timer_fire as f64 * factor) as u64;
        self
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::mobile_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_timers_zeroes_only_timer_costs() {
        let c = CostModel::mobile_default().with_free_timers();
        assert_eq!(c.timer_arm, 0);
        assert_eq!(c.timer_fire, 0);
        assert_eq!(c.per_byte, CostModel::mobile_default().per_byte);
        assert_eq!(c.skb_xmit_fixed, CostModel::mobile_default().skb_xmit_fixed);
    }

    #[test]
    fn timer_cost_factor_scales() {
        let base = CostModel::mobile_default();
        let half = base.clone().with_timer_cost_factor(0.5);
        assert_eq!(half.timer_fire, base.timer_fire / 2);
        assert_eq!(half.timer_arm, base.timer_arm / 2);
        let double = base.clone().with_timer_cost_factor(2.0);
        assert_eq!(double.timer_fire, base.timer_fire * 2);
    }

    #[test]
    fn calibration_sanity_low_end_cubic() {
        // DESIGN.md §4: with 64 KiB TSO chunks and one ACK per chunk, the
        // 576 MHz Low-End budget should admit roughly 360-380 Mbps for
        // unpaced Cubic (the paper reports 364 Mbps at one connection).
        let c = CostModel::mobile_default();
        let chunk = 65_536u64;
        let cubic_ack_cost = 700; // congestion::Cubic::model_cost mirrors this
        let cycles_per_chunk =
            c.skb_xmit_fixed + c.per_byte * chunk + c.ack_process + cubic_ack_cost;
        let chunks_per_sec = 576_000_000.0 / cycles_per_chunk as f64;
        let mbps = chunks_per_sec * chunk as f64 * 8.0 / 1e6;
        assert!(
            (330.0..420.0).contains(&mbps),
            "calibration drifted: {mbps:.0} Mbps"
        );
    }

    #[test]
    fn calibration_sanity_high_end_line_rate() {
        // At 2.8 GHz even the paced path must clear 1 Gbps: 15 KB skbs with
        // a timer arm+fire each.
        let c = CostModel::mobile_default();
        let skb = 15_000u64;
        let bbr_ack_cost = 3_800;
        let per_skb = c.skb_xmit_fixed
            + c.per_byte * skb
            + c.timer_arm
            + c.timer_fire
            + c.ack_process
            + bbr_ack_cost;
        let skbs_per_sec = 2_800_000_000.0 / per_skb as f64;
        let mbps = skbs_per_sec * skb as f64 * 8.0 / 1e6;
        assert!(
            mbps > 1_000.0,
            "high-end paced path can't reach line rate: {mbps:.0} Mbps"
        );
    }

    #[test]
    fn calibration_sanity_small_skbs_cost_more_per_byte() {
        // With 2-MSS skbs (what TSO autosizing produces at low per-flow
        // pacing rates), the effective cycles-per-byte must be well above
        // the cap-sized-skb case — this asymmetry is the whole mechanism of
        // the paper's Figure 2 (BBR degrades as per-flow rates shrink).
        let c = CostModel::mobile_default();
        let fixed = c.skb_xmit_fixed + c.timer_arm + c.timer_fire;
        let small_skb = 2 * 1448u64;
        let cap_skb = 15_000u64;
        let cpb_small = c.per_byte as f64 + fixed as f64 / small_skb as f64;
        let cpb_cap = c.per_byte as f64 + fixed as f64 / cap_skb as f64;
        let ratio = cpb_small / cpb_cap;
        assert!(
            ratio > 1.5,
            "small-skb per-byte cost should be ≥1.5× cap-skb, got {ratio:.2}"
        );
    }
}
