//! Delivery-rate estimation, after Linux's `net/ipv4/tcp_rate.c`
//! (Cheng & Cardwell's "Delivery Rate Estimation" draft).
//!
//! BBR's bandwidth model is only as good as its rate samples. The kernel
//! stamps every transmitted skb with the connection's `delivered` count and
//! two timestamps, and on ACK forms a sample over
//! `interval = max(send_interval, ack_interval)` — using only the send
//! interval would over-estimate on ack-compressed paths (GRO batching on
//! the server compresses acks heavily in our topology, so this detail is
//! load-bearing here).

use serde::Serialize;
use sim_core::time::{SimDuration, SimTime};
use sim_core::units::Bandwidth;

/// The delivery-rate stamp of one send batch, recorded at transmission
/// time. The kernel keeps one per skb (`TCP_SKB_CB(skb)->tx`); the
/// scoreboard keeps one per send plan in a per-flow ring, so the stamp is
/// packed to 32 bytes: three times and one word holding `delivered` beside
/// the `pacing_limited` bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TxStamp {
    /// Time the most recent delivery had occurred as of transmission.
    pub delivered_time: SimTime,
    /// Transmission time of the first packet of the current flight
    /// (`tp->first_tx_mstamp`).
    pub first_tx_time: SimTime,
    /// This batch's own transmission time.
    pub tx_time: SimTime,
    /// [`TxStamp::delivered`] in the low 63 bits,
    /// [`TxStamp::pacing_limited`] in the top one.
    word: u64,
}

const _: () = assert!(std::mem::size_of::<TxStamp>() == 32);

impl TxStamp {
    /// Largest `delivered` count a stamp can hold.
    pub(crate) const DELIVERED_MAX: u64 = (1 << 63) - 1;

    /// A stamp; panics if `delivered` exceeds [`TxStamp::DELIVERED_MAX`].
    pub(crate) fn new(
        delivered: u64,
        delivered_time: SimTime,
        first_tx_time: SimTime,
        tx_time: SimTime,
        pacing_limited: bool,
    ) -> Self {
        assert!(
            delivered <= Self::DELIVERED_MAX,
            "delivered count {delivered} collides with the stamp's flag bit"
        );
        TxStamp {
            delivered_time,
            first_tx_time,
            tx_time,
            word: delivered | (u64::from(pacing_limited) << 63),
        }
    }

    /// Connection `delivered` count when this batch was sent.
    #[inline]
    pub(crate) fn delivered(&self) -> u64 {
        self.word & Self::DELIVERED_MAX
    }

    /// Whether the flight preceding this send had been drained by the
    /// *pacer's own idle gate* (a strided pacer sleeps far longer than the
    /// RTT). Samples over such gaps measure the pacer, not the path, and
    /// must not deflate a bandwidth model — the same argument as
    /// app-limited filtering. Stock kernels don't flag this (stride = 1
    /// rarely drains a flight); the paper's stride makes it load-bearing.
    #[inline]
    pub(crate) fn pacing_limited(&self) -> bool {
        self.word >> 63 != 0
    }
}

/// One delivery-rate sample produced on ACK.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateSample {
    /// The measured rate (payload bytes per second).
    pub rate: Bandwidth,
    /// Packets delivered over the sampling interval.
    pub delivered_pkts: u64,
    /// The sampling interval (`max(send, ack)` intervals).
    pub interval: SimDuration,
    /// True if the sample is tainted by the pacer's own idle gate.
    pub pacing_limited: bool,
}

/// Connection-level delivery accounting.
#[derive(Debug, Clone, Serialize)]
pub struct RateSampler {
    mss: u64,
    /// Total packets delivered (cumulatively + selectively acked).
    delivered: u64,
    /// Time of the most recent delivery.
    delivered_time: SimTime,
    /// Transmission time of the first packet of the in-progress flight.
    first_tx_time: SimTime,
}

impl RateSampler {
    /// A fresh sampler for `mss`-byte packets.
    pub fn new(mss: u64) -> Self {
        assert!(mss > 0, "mss must be positive");
        RateSampler {
            mss,
            delivered: 0,
            delivered_time: SimTime::ZERO,
            first_tx_time: SimTime::ZERO,
        }
    }

    /// Total packets delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Stamp a send batch at transmission time. `is_flight_start` marks
    /// the first batch sent after the connection was idle/fully acked,
    /// which restarts the send-interval clock; `pacing_limited` taints the
    /// stamp when that idle was created by the pacer's own gate. The
    /// workload is an infinite bulk source, so no stamp is app-limited.
    pub(crate) fn on_send(
        &mut self,
        now: SimTime,
        is_flight_start: bool,
        pacing_limited: bool,
    ) -> TxStamp {
        if is_flight_start {
            self.first_tx_time = now;
            if self.delivered_time == SimTime::ZERO {
                self.delivered_time = now;
            }
        }
        TxStamp::new(
            self.delivered,
            self.delivered_time,
            self.first_tx_time,
            now,
            pacing_limited,
        )
    }

    /// Account `newly_delivered` packets acked at `now`, and produce a rate
    /// sample using the stamp of the most recently sent acked segment.
    pub(crate) fn on_ack(
        &mut self,
        now: SimTime,
        newly_delivered: u64,
        stamp: &TxStamp,
    ) -> Option<RateSample> {
        if newly_delivered == 0 {
            return None;
        }
        self.delivered += newly_delivered;
        self.delivered_time = now;
        // Advance the send-interval origin to the acked segment's tx time,
        // so the next sample's send interval starts there.
        self.first_tx_time = stamp.tx_time;

        let delivered_pkts = self.delivered - stamp.delivered();
        let send_interval = stamp.tx_time.saturating_since(stamp.first_tx_time);
        let ack_interval = now.saturating_since(stamp.delivered_time);
        let interval = send_interval.max(ack_interval);
        if interval.is_zero() {
            return None; // degenerate (single packet, zero time): no sample
        }
        Some(RateSample {
            rate: Bandwidth::from_bytes_over(delivered_pkts * self.mss, interval),
            delivered_pkts,
            interval,
            pacing_limited: stamp.pacing_limited(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_pipe_measures_true_rate() {
        // An 11.58 Mbps stream (one 1448 B packet per ms, 20 ms RTT) in
        // steady state: after the first round has delivered, stamps carry
        // live delivery context and the samples converge on the true rate.
        // (First-flight samples legitimately under-estimate — the kernel's
        // do too — so we measure on the second round.)
        let mut s = RateSampler::new(1448);
        // Round 1: prime the sampler.
        let warm: Vec<_> = (0..10u64)
            .map(|i| s.on_send(SimTime::from_millis(i), i == 0, false))
            .collect();
        for (i, stamp) in warm.iter().enumerate() {
            s.on_ack(SimTime::from_millis(i as u64 + 20), 1, stamp);
        }
        // Round 2: steady state — send i at t=30+i, ack at t=50+i.
        let mut last_rate = None;
        for i in 0..10u64 {
            let stamp = s.on_send(SimTime::from_millis(30 + i), false, false);
            if let Some(rs) = s.on_ack(SimTime::from_millis(50 + i), 1, &stamp) {
                last_rate = Some(rs.rate);
            }
        }
        let rate = last_rate.expect("samples produced");
        let expected = Bandwidth::from_bytes_over(1448, SimDuration::from_millis(1));
        let err =
            (rate.as_bps() as f64 - expected.as_bps() as f64).abs() / expected.as_bps() as f64;
        assert!(err < 0.10, "rate {rate} vs expected {expected}");
    }

    #[test]
    fn ack_compression_does_not_inflate_rate() {
        // Send 10 packets over 9 ms, but all acks arrive in the same
        // microsecond burst: ack_interval ≈ 0 for later samples, so the
        // send interval must dominate and the rate must not explode.
        let mut s = RateSampler::new(1448);
        let mut stamps = Vec::new();
        for i in 0..10u64 {
            stamps.push(s.on_send(SimTime::from_millis(i), i == 0, false));
        }
        let burst = SimTime::from_millis(30);
        let mut max_rate = Bandwidth::ZERO;
        for stamp in &stamps {
            if let Some(rs) = s.on_ack(burst, 1, stamp) {
                max_rate = max_rate.max(rs.rate);
            }
        }
        // True send rate is 1448 B/ms ≈ 11.6 Mbps; allow 2× for the first
        // sample's short interval but nothing like the ∞ a naive
        // ack-interval-only estimator would produce.
        assert!(
            max_rate.as_bps() < 2 * 11_584_000,
            "ack compression inflated rate to {max_rate}"
        );
    }

    #[test]
    fn batched_ack_counts_all_delivered() {
        let mut s = RateSampler::new(1448);
        let stamp0 = s.on_send(SimTime::ZERO, true, false);
        for i in 1..5u64 {
            s.on_send(SimTime::from_micros(i * 100), false, false);
        }
        let _ = stamp0;
        // One ACK covers all 5 packets; stamp of the newest.
        let newest = TxStamp::new(
            0,
            SimTime::ZERO,
            SimTime::ZERO,
            SimTime::from_micros(400),
            false,
        );
        let rs = s.on_ack(SimTime::from_millis(10), 5, &newest).unwrap();
        assert_eq!(rs.delivered_pkts, 5);
        assert_eq!(s.delivered(), 5);
        // Interval = max(400 µs, 10 ms) = 10 ms → rate = 5·1448B/10ms.
        assert_eq!(rs.interval, SimDuration::from_millis(10));
    }

    #[test]
    fn zero_delivery_yields_no_sample() {
        let mut s = RateSampler::new(1448);
        let stamp = s.on_send(SimTime::ZERO, true, false);
        assert!(s.on_ack(SimTime::from_millis(1), 0, &stamp).is_none());
        assert_eq!(s.delivered(), 0);
    }

    #[test]
    fn rate_reflects_slower_of_send_and_ack_clocks() {
        // Paced sending at 1 pkt/ms but a 10 Mbps bottleneck delivering
        // acks at 1448B/1.16ms: the *ack* interval governs near steady
        // state. Construct one sample with send interval 1 ms and ack
        // interval 2 ms; the rate must use 2 ms.
        let mut s = RateSampler::new(1448);
        let stamp = TxStamp::new(
            0,
            SimTime::ZERO,
            SimTime::from_millis(10),
            SimTime::from_millis(11), // send interval 1 ms
            false,
        );
        let rs = s.on_ack(SimTime::from_millis(2), 1, &stamp).unwrap();
        assert_eq!(rs.interval, SimDuration::from_millis(2));
        assert_eq!(
            rs.rate,
            Bandwidth::from_bytes_over(1448, SimDuration::from_millis(2))
        );
    }
}
