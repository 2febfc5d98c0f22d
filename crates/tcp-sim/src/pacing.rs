//! TCP-internal packet pacing (§6.1) and the pacing stride (§6.2).
//!
//! Linux's internal pacer limits transmission of *socket buffers*: after a
//! buffer of `socketBufferLength` bytes is sent at `pacingRate`, the socket
//! idles for
//!
//! ```text
//! idleTime = socketBufferLength / pacingRate            (Eq. 1)
//! ```
//!
//! implemented as an hrtimer whose "expiration reschedules a callback to
//! process the socket and send the next socket buffer". The paper's fix
//! scales that idle time by a *pacing stride*:
//!
//! ```text
//! idleTime = idleTime × pacingStride                    (Eq. 2)
//! ```
//!
//! so the stack paces `stride×` less often. Because ACKs keep clocking data
//! into the socket during the longer idle, the next buffer is
//! correspondingly larger — until the socket-buffer cap binds (Table 2's
//! plateau at ~121 Kb), after which throughput falls as `1/stride`.
//!
//! This module also implements `tcp_tso_autosize`: a paced socket sizes
//! each buffer to about 1 ms of the pacing rate (at least 2 segments, at
//! most the buffer cap), which is why low per-flow pacing rates degenerate
//! into tiny 2-MSS sends with huge per-send overhead — the mechanism behind
//! Figure 2's collapse with many connections.

use serde::Serialize;
use sim_core::time::{SimDuration, SimTime};
use sim_core::units::Bandwidth;

/// Target time-per-buffer for TSO autosizing (Linux sizes GSO chunks to
/// ~1 ms of pacing rate).
pub(crate) const AUTOSIZE_PERIOD: SimDuration = SimDuration::from_millis(1);
/// Minimum paced buffer, in segments (`tcp_min_tso_segs`).
pub(crate) const MIN_TSO_SEGS: u64 = 2;
/// Largest unpaced GSO burst, bytes (64 KiB, `GSO_MAX_SIZE`).
pub(crate) const GSO_MAX_BYTES: u64 = 65_536;

/// Static pacing configuration for a connection.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct PacingConfig {
    /// The paper's pacing stride (Eq. 2); 1 is stock kernel behaviour.
    pub stride: u64,
    /// §7.1.2 extension: adapt the stride online per connection (hill
    /// climbing on delivered goodput). When set, `stride` is the starting
    /// point and the controller explores `[1, 64]`.
    pub auto_stride: bool,
    /// Socket-buffer cap on a single paced send, bytes. Default ≈ 15 KB,
    /// which reproduces Table 2's ~121 Kb skb plateau.
    pub skb_cap_bytes: u64,
    /// Fallback-rate multiplier when the CC sets no rate: Linux paces at
    /// `factor × mss·cwnd/srtt` (×2 in slow start, ×1.2 in avoidance; we
    /// use the congestion-avoidance value, §5.2.2's formula).
    pub fallback_gain: f64,
}

impl Default for PacingConfig {
    fn default() -> Self {
        PacingConfig {
            stride: 1,
            auto_stride: false,
            skb_cap_bytes: 15_000,
            fallback_gain: 1.2,
        }
    }
}

impl PacingConfig {
    /// Stock pacing with the given stride (the Fig. 8 sweep).
    pub fn with_stride(stride: u64) -> Self {
        assert!(stride >= 1, "stride must be at least 1");
        PacingConfig {
            stride,
            ..Default::default()
        }
    }

    /// §7.1.2 extension: the adaptive stride controller, starting at 1x.
    pub fn auto() -> Self {
        PacingConfig {
            auto_stride: true,
            ..Default::default()
        }
    }
}

/// Per-connection pacing state.
#[derive(Debug, Clone)]
pub struct Pacer {
    config: PacingConfig,
    mss: u64,
    /// Earliest instant the next buffer may be released.
    next_release: SimTime,
    /// Statistics for Table 2: buffer lengths and idle times.
    total_idle: SimDuration,
    paced_sends: u64,
    /// `(rate_bps, autosize_segs)` memo: in steady state the CC's pacing
    /// rate changes rarely relative to sends, and autosizing does 128-bit
    /// arithmetic per call. Exact-result cache; `Cell` because the sizing
    /// queries are `&self`.
    auto_memo: std::cell::Cell<(u64, u64)>,
    /// `(rate_bps, bytes, idle)` memo for the Eq. (1) gate advance — the
    /// per-send `len/rate` division hits the same (rate, chunk size) pair
    /// almost every time.
    idle_memo: (u64, u64, SimDuration),
}

impl Pacer {
    /// A pacer for `mss`-byte segments.
    pub fn new(config: PacingConfig, mss: u64) -> Self {
        assert!(mss > 0, "mss must be positive");
        assert!(config.stride >= 1, "stride must be at least 1");
        assert!(
            config.skb_cap_bytes >= 2 * mss,
            "buffer cap must admit 2 segments"
        );
        Pacer {
            config,
            mss,
            next_release: SimTime::ZERO,
            total_idle: SimDuration::ZERO,
            paced_sends: 0,
            auto_memo: std::cell::Cell::new((u64::MAX, 0)),
            idle_memo: (u64::MAX, 0, SimDuration::ZERO),
        }
    }

    /// Current stride (mutable under the §7.1.2 auto-stride controller).
    pub(crate) fn stride(&self) -> u64 {
        self.config.stride
    }

    /// Set the stride (auto-stride controller). Clamped to `[1, 64]`.
    pub(crate) fn set_stride(&mut self, stride: u64) {
        self.config.stride = stride.clamp(1, 64);
    }

    /// Can a paced buffer be released at `now`?
    pub fn can_send(&self, now: SimTime) -> bool {
        now >= self.next_release
    }

    /// The earliest release instant for the next buffer.
    pub fn next_release(&self) -> SimTime {
        self.next_release
    }

    /// TSO autosize: the paced buffer size, in whole segments, for the
    /// given pacing rate — `clamp(rate × 1 ms, 2 segs, cap)`.
    pub fn autosize_segs(&self, rate: Bandwidth) -> u64 {
        if rate.is_zero() {
            return MIN_TSO_SEGS;
        }
        let (memo_bps, memo_segs) = self.auto_memo.get();
        if memo_bps == rate.as_bps() {
            return memo_segs;
        }
        let bytes_per_period = rate.bytes_in(AUTOSIZE_PERIOD);
        let segs = bytes_per_period / self.mss;
        let segs = segs.clamp(MIN_TSO_SEGS, self.cap_segs());
        self.auto_memo.set((rate.as_bps(), segs));
        segs
    }

    /// The buffer cap in whole segments.
    pub(crate) fn cap_segs(&self) -> u64 {
        (self.config.skb_cap_bytes / self.mss).max(MIN_TSO_SEGS)
    }

    /// The whole pacing-period budget, in segments: with a stride of `s`,
    /// one timer fire releases up to `s` autosized chunks' worth of
    /// accumulated data ("paces less frequently but sends more data per
    /// pacing period", §6.2), bounded by the socket-buffer cap — the
    /// mechanism behind Table 2's skb-length growth and plateau.
    pub fn burst_segs(&self, rate: Bandwidth) -> u64 {
        (self.autosize_segs(rate) * self.config.stride).min(self.cap_segs())
    }

    /// The Eq. (1) × Eq. (2) stride decomposition: a pacing period's total
    /// idle is `autosize × stride / rate`. The enlarged burst *absorbs*
    /// that idle as long as it fits under the socket-buffer cap (data flows
    /// at the full pacing rate, just in coarser quanta); once the cap
    /// binds, the residue is charged as a cap deficit and throughput falls
    /// as `cap/(autosize × stride)` — Table 2's plateau-then-decline.
    ///
    /// This returns the deficit to charge when a period opens (zero until
    /// the cap binds).
    pub(crate) fn cap_deficit_segs(&self, rate: Bandwidth) -> u64 {
        (self.autosize_segs(rate) * self.config.stride).saturating_sub(self.burst_segs(rate))
    }

    /// Charge the capped period's idle residue at period open (see
    /// `Pacer::cap_deficit_segs`).
    pub fn charge_cap_deficit(&mut self, now: SimTime, rate: Bandwidth) {
        let deficit = self.cap_deficit_segs(rate);
        if deficit > 0 {
            self.advance(now, deficit * self.mss, rate);
        }
    }

    /// Record a paced transmission of `bytes` at `rate`, advancing the
    /// release gate with **EDT semantics** (Linux `tcp_wstamp_ns =
    /// max(wstamp, now) + len/rate`):
    ///
    /// * the gate advances from the *schedule*, not from when the CPU
    ///   finished the send — stack processing overlaps the idle gap, and a
    ///   slow CPU shows up as timers firing late, not as a longer schedule;
    /// * the gate charges the bytes *actually* sent, so a cwnd-clipped
    ///   short send never burns a full period's budget;
    /// * the stride enters through the period's burst budget and the cap
    ///   deficit, not here (charging it per send too would double-count).
    ///
    /// Returns the idle duration added.
    pub fn on_send(&mut self, now: SimTime, bytes: u64, rate: Bandwidth) -> SimDuration {
        let idle = self.advance(now, bytes, rate);
        self.paced_sends += 1;
        idle
    }

    fn advance(&mut self, now: SimTime, bytes: u64, rate: Bandwidth) -> SimDuration {
        assert!(!rate.is_zero(), "paced send requires a positive rate");
        let idle = if self.idle_memo.0 == rate.as_bps() && self.idle_memo.1 == bytes {
            self.idle_memo.2
        } else {
            let idle = rate.time_to_send(bytes);
            self.idle_memo = (rate.as_bps(), bytes, idle);
            idle
        };
        let base = self.next_release.max(now);
        self.next_release = base + idle;
        self.total_idle += idle;
        idle
    }

    /// Total idle time armed over the connection's lifetime (Table 2's
    /// per-period idle is `total_idle / periods`).
    pub(crate) fn total_idle(&self) -> SimDuration {
        self.total_idle
    }

    /// The fallback pacing rate when the CC supplies none (§5.2.2):
    /// `fallback_gain × mss × cwnd / srtt`.
    pub(crate) fn fallback_rate(&self, cwnd_pkts: u64, srtt: SimDuration) -> Bandwidth {
        if srtt.is_zero() {
            return Bandwidth::ZERO;
        }
        Bandwidth::from_bytes_over(cwnd_pkts * self.mss, srtt).mul_f64(self.config.fallback_gain)
    }

    /// Number of paced sends so far.
    pub(crate) fn paced_sends(&self) -> u64 {
        self.paced_sends
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const MSS: u64 = 1448;

    #[test]
    fn eq1_idle_time() {
        // Eq. (1): the idle after a paced send is the time the autosized
        // chunk takes at the pacing rate — at ~36.5 Mbps the chunk is 3
        // segments and the idle just under a millisecond (Table 2 row 1×
        // reports 0.88 ms on the physical phone).
        let mut p = Pacer::new(PacingConfig::default(), MSS);
        let rate = Bandwidth::from_bps(36_477_272);
        let chunk = p.autosize_segs(rate) * MSS;
        let idle = p.on_send(SimTime::ZERO, chunk, rate);
        assert_eq!(idle, rate.time_to_send(chunk));
        assert!((0.7..1.1).contains(&idle.as_millis_f64()), "idle {idle}");
    }

    #[test]
    fn eq2_period_idle_scales_linearly_with_stride() {
        // Eq. (1) x Eq. (2): a whole pacing period's idle is
        // `autosize x stride / rate`, decomposed into the enlarged burst's
        // own serialisation plus the cap deficit. The decomposition must
        // reconstruct the linear law exactly, capped or not.
        let rate = Bandwidth::from_mbps(36); // autosize = 3 segs
        let mut period_idles = Vec::new();
        for stride in [1u64, 2, 5, 10, 20, 50] {
            let mut p = Pacer::new(PacingConfig::with_stride(stride), MSS);
            let t0 = SimTime::from_millis(5);
            p.charge_cap_deficit(t0, rate);
            let burst = p.burst_segs(rate);
            p.on_send(t0, burst * MSS, rate);
            period_idles.push((stride, p.next_release() - t0));
        }
        let chunk = 3 * MSS;
        for &(stride, idle) in &period_idles {
            let want = rate.time_to_send(chunk).saturating_mul(stride);
            let diff = idle.as_nanos().abs_diff(want.as_nanos());
            assert!(
                diff <= stride + 1,
                "stride {stride}: period idle {idle} vs {want} (integer-ceil rounding only)"
            );
        }
    }

    #[test]
    fn burst_grows_with_stride_until_cap() {
        // Table 2's skb-length column: ∝ stride, then plateaus at the
        // socket-buffer cap.
        let rate = Bandwidth::from_mbps(36); // chunk = 3 segs
        let bursts: Vec<u64> = [1u64, 2, 5, 10, 20, 50]
            .iter()
            .map(|&s| Pacer::new(PacingConfig::with_stride(s), MSS).burst_segs(rate))
            .collect();
        assert_eq!(
            bursts,
            vec![3, 6, 10, 10, 10, 10],
            "growth then plateau at cap"
        );
    }

    #[test]
    fn gate_blocks_until_release() {
        let mut p = Pacer::new(PacingConfig::default(), MSS);
        assert!(p.can_send(SimTime::ZERO), "fresh pacer is open");
        let start = SimTime::from_millis(10);
        let rate = Bandwidth::from_mbps(80);
        let idle = p.on_send(start, 10_000, rate);
        assert!(!p.can_send(start));
        assert!(!p.can_send(start + idle - SimDuration::from_nanos(1)));
        assert!(p.can_send(start + idle));
        assert_eq!(p.next_release(), start + idle);
    }

    #[test]
    fn edt_schedule_advances_from_schedule_not_completion() {
        // Linux `tcp_wstamp_ns = max(wstamp, now) + len/rate`: if the next
        // send happens exactly at the release instant, the following
        // release is one idle later — no drift from processing delays.
        let mut p = Pacer::new(PacingConfig::default(), MSS);
        let rate = Bandwidth::from_mbps(80);
        let idle = p.on_send(SimTime::ZERO, 10_000, rate);
        let first_release = p.next_release();
        // Second send happens *at* the release time (timer fired on time).
        p.on_send(first_release, 10_000, rate);
        assert_eq!(p.next_release(), first_release + idle);
        // A late send (CPU was busy) pushes from the late time instead.
        let late = p.next_release() + SimDuration::from_millis(3);
        p.on_send(late, 10_000, rate);
        assert_eq!(p.next_release(), late + idle);
    }

    #[test]
    fn autosize_tracks_rate() {
        let p = Pacer::new(PacingConfig::default(), MSS);
        // 36 Mbps → 4.5 KB/ms → 3 segments.
        assert_eq!(p.autosize_segs(Bandwidth::from_mbps(36)), 3);
        // 1 Mbps → 125 B/ms → floor of 2 segments.
        assert_eq!(p.autosize_segs(Bandwidth::from_mbps(1)), MIN_TSO_SEGS);
        // 1 Gbps → 125 KB/ms → cap (15,000/1448 = 10 segments).
        assert_eq!(p.autosize_segs(Bandwidth::from_gbps(1)), 10);
        assert_eq!(p.cap_segs(), 10);
        // Zero rate (no estimate yet): the floor.
        assert_eq!(p.autosize_segs(Bandwidth::ZERO), MIN_TSO_SEGS);
    }

    #[test]
    fn small_rates_mean_tiny_buffers_mean_many_timers() {
        // The Fig. 2 mechanism in one assertion: splitting a rate across
        // 20 connections multiplies the per-byte timer count.
        let p = Pacer::new(PacingConfig::default(), MSS);
        let total = Bandwidth::from_mbps(320);
        let one_flow_segs = p.autosize_segs(total);
        let per_flow_segs = p.autosize_segs(total.div(20));
        // Timer fires per byte ∝ 1/buffer-size.
        let fires_1 = 1.0 / one_flow_segs as f64;
        let fires_20 = 20.0 / (20.0 * per_flow_segs as f64);
        assert!(
            fires_20 > 3.0 * fires_1,
            "per-byte timer cost should balloon: {fires_20:.4} vs {fires_1:.4}"
        );
    }

    #[test]
    fn fallback_rate_is_cwnd_over_srtt() {
        // §5.2.2: "Cubic uses TCP's internal pacing rate of mss·cwnd/rtt".
        let p = Pacer::new(PacingConfig::default(), MSS);
        let rate = p.fallback_rate(70, SimDuration::from_millis(10));
        let expect =
            Bandwidth::from_bytes_over(70 * MSS, SimDuration::from_millis(10)).mul_f64(1.2);
        assert_eq!(rate, expect);
        assert_eq!(p.fallback_rate(70, SimDuration::ZERO), Bandwidth::ZERO);
    }

    #[test]
    fn idle_statistics_accumulate() {
        let mut p = Pacer::new(PacingConfig::with_stride(5), MSS);
        let rate = Bandwidth::from_mbps(40);
        let first = p.on_send(SimTime::ZERO, 5_000, rate);
        let second = p.on_send(p.next_release(), 5_000, rate);
        assert_eq!(p.paced_sends(), 2);
        assert_eq!(second, first);
    }

    #[test]
    #[should_panic(expected = "positive rate")]
    fn zero_rate_send_panics() {
        Pacer::new(PacingConfig::default(), MSS).on_send(SimTime::ZERO, 1_000, Bandwidth::ZERO);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_stride_rejected() {
        PacingConfig::with_stride(0);
    }

    proptest! {
        /// Average paced rate over a long run equals rate/stride once the
        /// buffer cap binds, and equals the configured rate otherwise —
        /// i.e. pacing never releases early.
        #[test]
        fn prop_long_run_rate_bounded(
            stride in 1u64..50,
            rate_mbps in 5u64..200,
            sends in 10u64..100,
        ) {
            let mut p = Pacer::new(PacingConfig::with_stride(stride), MSS);
            let rate = Bandwidth::from_mbps(rate_mbps);
            let burst = p.burst_segs(rate) * MSS;
            let mut now = SimTime::ZERO;
            let mut sent = 0u64;
            for _ in 0..sends {
                p.on_send(now, burst, rate);
                sent += burst;
                now = p.next_release();
            }
            let achieved = Bandwidth::from_bytes_over(sent, now - SimTime::ZERO);
            // Pacing is an upper gate: never exceed the configured rate
            // (the cap can only slow the burst down, never speed it up).
            let ceiling = rate.as_bps() + rate.as_bps() / 50;
            prop_assert!(achieved.as_bps() <= ceiling,
                "achieved {achieved} exceeds rate {rate}");
        }

        /// The release gate is monotone: successive sends only push it
        /// forward, even when invoked at stale (earlier) times.
        #[test]
        fn prop_release_monotone(jitters in proptest::collection::vec(0u64..2_000_000, 1..50)) {
            let mut p = Pacer::new(PacingConfig::default(), MSS);
            let rate = Bandwidth::from_mbps(50);
            let mut last_release = SimTime::ZERO;
            for j in jitters {
                let now = SimTime::from_nanos(j);
                p.on_send(now, 5_000, rate);
                prop_assert!(p.next_release() >= last_release);
                last_release = p.next_release();
            }
        }
    }
}
