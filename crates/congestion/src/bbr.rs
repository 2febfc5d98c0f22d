//! BBR v1, after Linux's `tcp_bbr.c` (Cardwell et al., 2016), and the
//! model the whole BBR family runs.
//!
//! BBR estimates the path's bottleneck bandwidth (windowed max of delivery
//! rate over the last 10 packet-timed round trips) and propagation delay
//! (windowed min RTT), and drives both a pacing rate (`pacing_gain ×
//! btl_bw`) and a cwnd (`cwnd_gain × BDP`). §2 of the paper summarises
//! exactly this structure.
//!
//! That model is one private `Model`: both filters, packet-timed rounds,
//! full-pipe detection, the BDP target, the pacing rate and cwnd growth.
//! [`Bbr`] and the v2 family's [`crate::bbr2::Bbr2`] each hold one and add
//! only a state machine. v1's matches the kernel module:
//!
//! * **STARTUP** — 2/ln 2 ≈ 2.885 gain until bandwidth stops growing
//!   (three rounds with < 25 % growth);
//! * **DRAIN** — inverse gain until inflight ≤ BDP;
//! * **PROBE_BW** — the eight-phase gain cycle `[1.25, 0.75, 1 × 6]`, one
//!   phase per min-RTT;
//! * **PROBE_RTT** — when the min-RTT is 10 s old, cwnd clamped to 4
//!   packets for 200 ms and one round to re-measure the propagation delay.
//!
//! Loss handling is v1's: losses do not feed the model; recovery applies
//! one round of packet conservation and then restores the prior cwnd —
//! the behaviour whose fairness problems motivated BBR2.

use crate::minmax::MaxFilter;
use crate::{AckSample, CongestionControl, LossEvent, INIT_CWND, MIN_CWND};
use sim_core::time::{SimDuration, SimTime};
use sim_core::units::Bandwidth;

/// STARTUP/DRAIN gain: 2/ln(2).
pub const HIGH_GAIN: f64 = 2.885;
/// DRAIN pacing gain.
const DRAIN_GAIN: f64 = 1.0 / HIGH_GAIN;
/// cwnd gain outside STARTUP.
const CWND_GAIN: f64 = 2.0;
/// The PROBE_BW pacing-gain cycle.
const PACING_GAIN_CYCLE: [f64; 8] = [1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
/// Bandwidth filter window, in packet-timed rounds.
const BW_WINDOW_ROUNDS: u64 = 10;
/// Min-RTT filter window.
const MIN_RTT_WINDOW: SimDuration = SimDuration::from_secs(10);
/// PROBE_RTT dwell time, the whole family's.
pub const PROBE_RTT_DURATION: SimDuration = SimDuration::from_millis(200);
/// PROBE_RTT cwnd clamp, packets.
const PROBE_RTT_CWND: u64 = 4;
/// STARTUP exits when bw grows less than this factor…
const FULL_BW_THRESH: f64 = 1.25;
/// …for this many consecutive rounds.
const FULL_BW_CNT: u32 = 3;

/// The BBR model, shared by v1 and the v2 family: the bandwidth and
/// min-RTT estimates and the pacing rate and cwnd they drive. The state
/// machines choose the gains, the min-RTT window and when a round counts
/// toward full-pipe detection.
pub(crate) struct Model {
    mss: u64,
    bw_filter: MaxFilter, // bps keyed by round count
    pub(crate) round_count: u64,
    next_rtt_delivered: u64,
    pub(crate) round_start: bool,
    min_rtt: SimDuration,
    min_rtt_stamp: SimTime,
    full_bw: u64,
    full_bw_cnt: u32,
    pub(crate) full_bw_reached: bool,
    pacing_rate: Bandwidth,
    pub(crate) cwnd: u64,
    prior_cwnd: u64,
    packet_conservation: bool,
    in_recovery: bool,
    /// `(bw_bps, min_rtt_ns, gain bits) -> target_cwnd` memo. The model's
    /// inputs change once per round at most while the target is recomputed
    /// on every ACK; entries hold the exact integer result of the same
    /// 128-bit + float computation, so hits are bit-identical to a recompute.
    target_memo: (u64, u64, u64, u64),
    /// `(bw_bps, gain bits) -> paced rate bps` memo for the steady-state
    /// branch of `set_pacing_rate` (same exactness argument).
    pace_memo: (u64, u64, u64),
}

impl Model {
    pub(crate) fn new(mss: u64) -> Self {
        assert!(mss > 0, "mss must be positive");
        Model {
            mss,
            bw_filter: MaxFilter::new(BW_WINDOW_ROUNDS),
            round_count: 0,
            next_rtt_delivered: 0,
            round_start: false,
            min_rtt: SimDuration::MAX,
            min_rtt_stamp: SimTime::ZERO,
            full_bw: 0,
            full_bw_cnt: 0,
            full_bw_reached: false,
            pacing_rate: Bandwidth::ZERO,
            cwnd: INIT_CWND,
            prior_cwnd: 0,
            packet_conservation: false,
            in_recovery: false,
            target_memo: (u64::MAX, 0, 0, 0),
            pace_memo: (u64::MAX, 0, 0),
        }
    }

    /// Current windowed-max bandwidth estimate.
    pub(crate) fn bw(&self) -> Bandwidth {
        Bandwidth::from_bps(self.bw_filter.get())
    }

    /// BDP in packets under `gain`, or the initial window before the model
    /// has both a bandwidth and an RTT sample.
    ///
    /// As in `bbr_target_cwnd`, a slack of 3 × TSO-goal segments is added
    /// on top of the BDP: without it, ack/segment quantization at small
    /// BDPs caps inflight below the pacing rate and the flow wedges below
    /// its fair share.
    pub(crate) fn target_cwnd(&mut self, gain: f64) -> u64 {
        if self.min_rtt == SimDuration::MAX || self.bw().is_zero() {
            return INIT_CWND;
        }
        let key = (
            self.bw_filter.get(),
            self.min_rtt.as_nanos(),
            gain.to_bits(),
        );
        if (self.target_memo.0, self.target_memo.1, self.target_memo.2) == key {
            return self.target_memo.3;
        }
        let bdp_bytes = self.bw().bytes_in(self.min_rtt);
        let packets = (bdp_bytes as f64 * gain / self.mss as f64).ceil() as u64;
        let target = (packets + 6).max(MIN_CWND);
        self.target_memo = (key.0, key.1, key.2, target);
        target
    }

    /// Packet-timed rounds: a round ends when a packet sent after the last
    /// round's end is acked, which also ends a recovery's conservation.
    pub(crate) fn update_round(&mut self, sample: &AckSample) {
        if sample.prior_delivered >= self.next_rtt_delivered {
            self.next_rtt_delivered = sample.delivered;
            self.round_count += 1;
            self.round_start = true;
            self.packet_conservation = false;
        } else {
            self.round_start = false;
        }
    }

    pub(crate) fn update_bw(&mut self, sample: &AckSample) {
        // App-limited samples only count if they beat the current max
        // (they prove at least that much capacity exists).
        if !sample.app_limited || sample.delivery_rate.as_bps() >= self.bw_filter.get() {
            self.bw_filter
                .update(self.round_count, sample.delivery_rate.as_bps());
        }
    }

    /// One round of full-pipe detection; true once the bandwidth has grown
    /// less than 25 % for three rounds in a row.
    pub(crate) fn full_bw_round(&mut self) -> bool {
        let thresh = (self.full_bw as f64 * FULL_BW_THRESH) as u64;
        if self.bw_filter.get() >= thresh {
            self.full_bw = self.bw_filter.get();
            self.full_bw_cnt = 0;
        } else {
            self.full_bw_cnt += 1;
        }
        self.full_bw_cnt >= FULL_BW_CNT
    }

    /// Kernel `bbr_update_min_rtt`: the expiry decision is taken *once*,
    /// before the filter refresh, and returned to drive the caller's
    /// PROBE_RTT entry (refreshing first would mask the expiry forever).
    pub(crate) fn update_min_rtt(&mut self, sample: &AckSample, window: SimDuration) -> bool {
        let expired = sample.now.saturating_since(self.min_rtt_stamp) > window;
        if !sample.rtt.is_zero() && (sample.rtt <= self.min_rtt || expired) {
            self.min_rtt = sample.rtt;
            self.min_rtt_stamp = sample.now;
        }
        expired
    }

    pub(crate) fn set_pacing_rate(&mut self, sample: &AckSample, gain: f64) {
        let rate = if self.bw().is_zero() {
            // Before the first bandwidth sample: pace from cwnd/RTT (kernel
            // `bbr_init_pacing_rate_from_rtt`).
            let rtt = if sample.rtt.is_zero() {
                SimDuration::from_millis(1)
            } else {
                sample.rtt
            };
            Bandwidth::from_bytes_over(self.cwnd * self.mss, rtt).mul_f64(gain)
        } else {
            let key = (self.bw_filter.get(), gain.to_bits());
            if (self.pace_memo.0, self.pace_memo.1) == key {
                Bandwidth::from_bps(self.pace_memo.2)
            } else {
                let rate = self.bw().mul_f64(gain);
                self.pace_memo = (key.0, key.1, rate.as_bps());
                rate
            }
        };
        // Never decrease the rate before the pipe is known full (kernel
        // keeps startup's rate floor until `full_bw_reached`).
        if self.full_bw_reached || rate > self.pacing_rate {
            self.pacing_rate = rate;
        }
    }

    /// Grow cwnd toward `target` (the caller's BDP target, already capped
    /// by any bound its state machine keeps).
    pub(crate) fn grow_cwnd(&mut self, sample: &AckSample, target: u64) {
        if self.packet_conservation {
            // First round of recovery: hold inflight constant.
            self.cwnd = self.cwnd.max(sample.inflight + sample.acked);
        } else if self.full_bw_reached {
            self.cwnd = (self.cwnd + sample.acked).min(target);
        } else if self.cwnd < target || sample.delivered < INIT_CWND {
            self.cwnd += sample.acked;
        }
        self.cwnd = self.cwnd.max(MIN_CWND);
    }

    pub(crate) fn in_recovery(&self) -> bool {
        self.in_recovery
    }

    /// Save the cwnd for a later restore, keeping a larger one already saved.
    pub(crate) fn save_cwnd(&mut self) {
        self.prior_cwnd = self.prior_cwnd.max(self.cwnd);
    }

    fn restore_cwnd(&mut self) {
        self.cwnd = self.cwnd.max(self.prior_cwnd);
    }

    /// Enter fast recovery: packet conservation for the rest of this
    /// round, from `inflight + 1`. Callers save the cwnd first.
    pub(crate) fn enter_recovery(&mut self, inflight: u64) {
        self.in_recovery = true;
        self.packet_conservation = true;
        self.cwnd = (inflight + 1).max(MIN_CWND);
    }

    /// Leave fast recovery and restore the saved cwnd; false if the model
    /// was not in recovery.
    pub(crate) fn exit_recovery(&mut self) -> bool {
        if !self.in_recovery {
            return false;
        }
        self.in_recovery = false;
        self.packet_conservation = false;
        self.restore_cwnd();
        true
    }

    /// Retransmission timeout. Callers save the cwnd first.
    pub(crate) fn rto(&mut self) {
        self.cwnd = MIN_CWND;
        self.packet_conservation = false;
    }

    /// End PROBE_RTT: the min-RTT is fresh as of `now`; restore the cwnd.
    pub(crate) fn probe_rtt_done(&mut self, now: SimTime) {
        self.min_rtt_stamp = now;
        self.restore_cwnd();
    }

    pub(crate) fn pacing_rate(&self) -> Option<Bandwidth> {
        (!self.pacing_rate.is_zero()).then_some(self.pacing_rate)
    }
}

/// The BBR state machine's mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Exponential bandwidth probing.
    Startup,
    /// Draining the startup queue.
    Drain,
    /// Steady-state bandwidth probing.
    ProbeBw,
    /// Propagation-delay re-measurement.
    ProbeRtt,
}

/// BBR v1.
pub struct Bbr {
    m: Model,
    mode: Mode,
    // --- probe_bw ---
    cycle_idx: usize,
    cycle_stamp: SimTime,
    // --- probe_rtt ---
    probe_rtt_done_stamp: Option<SimTime>,
    probe_rtt_round_done: bool,
}

impl Bbr {
    /// A fresh BBR instance for `mss`-byte segments.
    pub(crate) fn new(mss: u64) -> Self {
        Bbr {
            m: Model::new(mss),
            mode: Mode::Startup,
            cycle_idx: 0,
            cycle_stamp: SimTime::ZERO,
            probe_rtt_done_stamp: None,
            probe_rtt_round_done: false,
        }
    }

    /// Stagger the PROBE_BW gain cycle's starting phase (the kernel
    /// randomises it so concurrent flows don't probe in lock-step; the
    /// iperf runner passes the flow index).
    pub(crate) fn with_cycle_offset(mut self, offset: usize) -> Self {
        self.cycle_idx = 2 + offset % (PACING_GAIN_CYCLE.len() - 2);
        self
    }

    fn pacing_gain(&self) -> f64 {
        match self.mode {
            Mode::Startup => HIGH_GAIN,
            Mode::Drain => DRAIN_GAIN,
            Mode::ProbeBw => PACING_GAIN_CYCLE[self.cycle_idx],
            Mode::ProbeRtt => 1.0,
        }
    }

    fn cwnd_gain(&self) -> f64 {
        match self.mode {
            Mode::Startup | Mode::Drain => HIGH_GAIN,
            Mode::ProbeBw => CWND_GAIN,
            Mode::ProbeRtt => 1.0,
        }
    }

    fn check_full_bw_reached(&mut self, sample: &AckSample) {
        if self.m.full_bw_reached || !self.m.round_start || sample.app_limited {
            return;
        }
        self.m.full_bw_reached = self.m.full_bw_round();
    }

    fn check_drain(&mut self, sample: &AckSample) {
        if self.mode == Mode::Startup && self.m.full_bw_reached {
            self.mode = Mode::Drain;
        }
        if self.mode == Mode::Drain && sample.inflight <= self.m.target_cwnd(1.0) {
            self.enter_probe_bw(sample.now);
        }
    }

    fn enter_probe_bw(&mut self, now: SimTime) {
        self.mode = Mode::ProbeBw;
        self.cycle_stamp = now;
        // Kernel picks a random phase excluding 0.75; we keep whatever
        // `with_cycle_offset` established, skipping the DOWN phase.
        if self.cycle_idx == 1 {
            self.cycle_idx = 2;
        }
    }

    fn update_cycle_phase(&mut self, sample: &AckSample) {
        if self.mode != Mode::ProbeBw {
            return;
        }
        let gain = PACING_GAIN_CYCLE[self.cycle_idx];
        let min_rtt = if self.m.min_rtt == SimDuration::MAX {
            SimDuration::from_millis(10)
        } else {
            self.m.min_rtt
        };
        let elapsed = sample.now.saturating_since(self.cycle_stamp) > min_rtt;
        let advance = if gain > 1.0 {
            // Keep probing until we've actually filled the pipe (or lost).
            elapsed && (sample.lost > 0 || sample.inflight >= self.m.target_cwnd(gain))
        } else if gain < 1.0 {
            // Leave the drain phase early once the queue is gone.
            elapsed || sample.inflight <= self.m.target_cwnd(1.0)
        } else {
            elapsed
        };
        if advance {
            self.cycle_idx = (self.cycle_idx + 1) % PACING_GAIN_CYCLE.len();
            self.cycle_stamp = sample.now;
        }
    }

    fn check_probe_rtt(&mut self, sample: &AckSample, expired: bool) {
        if self.mode != Mode::ProbeRtt && expired {
            self.mode = Mode::ProbeRtt;
            self.save_cwnd();
            self.probe_rtt_done_stamp = None;
        }
        if self.mode == Mode::ProbeRtt {
            self.handle_probe_rtt(sample);
        }
    }

    fn handle_probe_rtt(&mut self, sample: &AckSample) {
        match self.probe_rtt_done_stamp {
            None => {
                if sample.inflight <= PROBE_RTT_CWND {
                    self.probe_rtt_done_stamp = Some(sample.now + PROBE_RTT_DURATION);
                    self.probe_rtt_round_done = false;
                    self.m.next_rtt_delivered = sample.delivered;
                }
            }
            Some(done) => {
                if self.m.round_start {
                    self.probe_rtt_round_done = true;
                }
                if self.probe_rtt_round_done && sample.now > done {
                    self.m.probe_rtt_done(sample.now);
                    self.mode = if self.m.full_bw_reached {
                        self.enter_probe_bw(sample.now);
                        Mode::ProbeBw
                    } else {
                        Mode::Startup
                    };
                }
            }
        }
    }

    fn save_cwnd(&mut self) {
        if !self.m.in_recovery && self.mode != Mode::ProbeRtt {
            self.m.prior_cwnd = self.m.cwnd;
        } else {
            self.m.save_cwnd();
        }
    }

    fn set_cwnd(&mut self, sample: &AckSample) {
        let target = self.m.target_cwnd(self.cwnd_gain());
        self.m.grow_cwnd(sample, target);
        if self.mode == Mode::ProbeRtt {
            self.m.cwnd = self.m.cwnd.min(PROBE_RTT_CWND);
        }
    }
}

impl CongestionControl for Bbr {
    fn name(&self) -> &'static str {
        "bbr"
    }

    fn phase(&self) -> &'static str {
        match self.mode {
            Mode::Startup => "startup",
            Mode::Drain => "drain",
            Mode::ProbeBw => "probe_bw",
            Mode::ProbeRtt => "probe_rtt",
        }
    }

    fn on_ack(&mut self, sample: &AckSample) {
        self.m.update_round(sample);
        self.m.update_bw(sample);
        self.check_full_bw_reached(sample);
        self.check_drain(sample);
        self.update_cycle_phase(sample);
        let expired = self.m.update_min_rtt(sample, MIN_RTT_WINDOW);
        self.check_probe_rtt(sample, expired);
        self.m.set_pacing_rate(sample, self.pacing_gain());
        self.set_cwnd(sample);
    }

    fn on_loss_event(&mut self, event: &LossEvent) {
        if !self.m.in_recovery {
            self.save_cwnd();
            // `update_round` ends the conservation at the next round start
            // (kernel behaviour).
            self.m.enter_recovery(event.inflight);
        }
    }

    fn on_recovery_exit(&mut self, _now: SimTime) {
        self.m.exit_recovery();
    }

    fn on_rto(&mut self, _now: SimTime, _inflight: u64) {
        self.save_cwnd();
        self.m.rto();
    }

    fn cwnd(&self) -> u64 {
        self.m.cwnd
    }

    fn wants_pacing(&self) -> bool {
        true
    }

    fn pacing_rate(&self) -> Option<Bandwidth> {
        self.m.pacing_rate()
    }

    fn model_cost_cycles(&self) -> u64 {
        3_800
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AckSample;

    /// Drive BBR against an ideal fixed-capacity pipe: `bw_mbps` capacity,
    /// `rtt_ms` propagation, acking one cwnd per RTT. Returns the instance.
    fn drive_ideal_pipe(
        bbr: &mut Bbr,
        bw_mbps: u64,
        rtt_ms: u64,
        rounds: u64,
        start_ms: u64,
    ) -> u64 {
        let mut delivered = 0u64;
        let mut now_ms = start_ms;
        for _ in 0..rounds {
            let w = bbr.cwnd();
            let prior = delivered;
            delivered += w;
            // The pipe delivers at most its capacity; delivery rate is
            // min(send rate, capacity). Send rate ≈ cwnd/rtt.
            let offered = Bandwidth::from_bytes_over(w * 1448, SimDuration::from_millis(rtt_ms));
            let rate = offered.as_bps().min(Bandwidth::from_mbps(bw_mbps).as_bps());
            // Queue builds if offered > capacity → RTT inflates.
            let rtt_actual = if offered.as_bps() > rate {
                rtt_ms + (rtt_ms * (offered.as_bps() - rate)) / rate.max(1)
            } else {
                rtt_ms
            };
            bbr.on_ack(&AckSample {
                now: SimTime::from_millis(now_ms),
                rtt: SimDuration::from_millis(rtt_actual),
                delivery_rate: Bandwidth::from_bps(rate),
                delivered,
                prior_delivered: prior,
                acked: w,
                lost: 0,
                inflight: 0,
                app_limited: false,
                in_recovery: false,
            });
            now_ms += rtt_actual.max(1);
        }
        now_ms
    }

    #[test]
    fn starts_in_startup_with_high_gain() {
        let bbr = Bbr::new(1448);
        assert_eq!(bbr.mode, Mode::Startup);
        assert!((bbr.pacing_gain() - HIGH_GAIN).abs() < 1e-9);
        assert_eq!(bbr.cwnd(), INIT_CWND);
    }

    #[test]
    fn startup_exits_when_bw_plateaus() {
        let mut bbr = Bbr::new(1448);
        drive_ideal_pipe(&mut bbr, 100, 20, 25, 0);
        assert_ne!(bbr.mode, Mode::Startup, "should have left startup");
        assert!(bbr.m.full_bw_reached);
    }

    #[test]
    fn converges_to_pipe_bandwidth() {
        let mut bbr = Bbr::new(1448);
        drive_ideal_pipe(&mut bbr, 100, 20, 40, 0);
        let est = bbr.m.bw().as_mbps_f64();
        assert!(
            (80.0..130.0).contains(&est),
            "bw estimate {est} Mbps, want ~100"
        );
    }

    #[test]
    fn min_rtt_tracks_propagation_delay() {
        let mut bbr = Bbr::new(1448);
        drive_ideal_pipe(&mut bbr, 100, 20, 40, 0);
        assert_eq!(bbr.m.min_rtt, SimDuration::from_millis(20));
    }

    #[test]
    fn probe_bw_cwnd_is_about_two_bdp() {
        let mut bbr = Bbr::new(1448);
        drive_ideal_pipe(&mut bbr, 100, 20, 60, 0);
        assert_eq!(bbr.mode, Mode::ProbeBw);
        // BDP = 100 Mbps × 20 ms = 250 KB ≈ 172 packets; cwnd_gain 2 → ~345.
        let bdp_packets = 100_000_000u64 / 8 * 20 / 1000 / 1448;
        let cwnd = bbr.cwnd();
        assert!(
            cwnd >= bdp_packets && cwnd <= 3 * bdp_packets,
            "cwnd {cwnd} vs bdp {bdp_packets}"
        );
    }

    #[test]
    fn pacing_rate_tracks_gain_cycle() {
        let mut bbr = Bbr::new(1448);
        drive_ideal_pipe(&mut bbr, 100, 20, 60, 0);
        assert_eq!(bbr.mode, Mode::ProbeBw);
        let bw = bbr.m.bw();
        let rate = bbr.pacing_rate().unwrap();
        let gain = rate.as_bps() as f64 / bw.as_bps() as f64;
        assert!(
            (0.7..=1.3).contains(&gain),
            "pacing gain {gain} outside cycle range"
        );
    }

    #[test]
    fn probe_rtt_entered_after_min_rtt_window() {
        let mut bbr = Bbr::new(1448);
        // Converge, then run past the 10 s window with a *higher* RTT so
        // the min never refreshes.
        drive_ideal_pipe(&mut bbr, 100, 20, 40, 0);
        let mut saw_probe_rtt = false;
        let mut delivered = 100_000u64;
        for i in 0..600 {
            let now = SimTime::from_millis(1_000 + i * 25);
            let prior = delivered;
            delivered += bbr.cwnd().max(1);
            bbr.on_ack(&AckSample {
                now,
                rtt: SimDuration::from_millis(25),
                delivery_rate: Bandwidth::from_mbps(100),
                delivered,
                prior_delivered: prior,
                acked: bbr.cwnd().max(1),
                lost: 0,
                inflight: 2, // low inflight so PROBE_RTT can begin its dwell
                app_limited: false,
                in_recovery: false,
            });
            if bbr.mode == Mode::ProbeRtt {
                saw_probe_rtt = true;
                assert!(bbr.cwnd() <= PROBE_RTT_CWND, "cwnd must clamp in PROBE_RTT");
            }
        }
        assert!(saw_probe_rtt, "should enter PROBE_RTT after 10 s");
        assert_ne!(bbr.mode, Mode::ProbeRtt, "and leave it after 200 ms");
    }

    #[test]
    fn loss_event_conserves_then_restores() {
        let mut bbr = Bbr::new(1448);
        drive_ideal_pipe(&mut bbr, 100, 20, 60, 0);
        let before = bbr.cwnd();
        bbr.on_loss_event(&LossEvent {
            now: SimTime::from_secs(3),
            inflight: before / 2,
            lost: 3,
        });
        assert!(
            bbr.cwnd() <= before / 2 + 1,
            "conservation cuts to inflight+1"
        );
        bbr.on_recovery_exit(SimTime::from_secs(4));
        assert_eq!(bbr.cwnd(), before, "prior cwnd restored after recovery");
    }

    #[test]
    fn loss_does_not_change_bandwidth_model() {
        // v1's defining behaviour: the bw estimate ignores loss.
        let mut bbr = Bbr::new(1448);
        drive_ideal_pipe(&mut bbr, 100, 20, 60, 0);
        let bw_before = bbr.m.bw();
        bbr.on_loss_event(&LossEvent {
            now: SimTime::from_secs(3),
            inflight: 100,
            lost: 50,
        });
        assert_eq!(bbr.m.bw(), bw_before);
    }

    #[test]
    fn rto_floors_cwnd() {
        let mut bbr = Bbr::new(1448);
        drive_ideal_pipe(&mut bbr, 100, 20, 60, 0);
        bbr.on_rto(SimTime::from_secs(3), 10);
        assert_eq!(bbr.cwnd(), MIN_CWND);
    }

    #[test]
    fn app_limited_samples_cannot_deflate_model() {
        let mut bbr = Bbr::new(1448);
        drive_ideal_pipe(&mut bbr, 100, 20, 40, 0);
        let bw_before = bbr.m.bw();
        // A slow app-limited sample must be ignored…
        let mut s = AckSample {
            now: SimTime::from_secs(2),
            rtt: SimDuration::from_millis(20),
            delivery_rate: Bandwidth::from_mbps(1),
            delivered: 200_000,
            prior_delivered: 199_000,
            acked: 10,
            lost: 0,
            inflight: 10,
            app_limited: true,
            in_recovery: false,
        };
        bbr.on_ack(&s);
        assert!(bbr.m.bw() >= bw_before);
        // …but a *fast* app-limited sample still counts.
        s.delivery_rate = Bandwidth::from_mbps(500);
        s.delivered += 10;
        s.prior_delivered += 10;
        bbr.on_ack(&s);
        assert_eq!(bbr.m.bw(), Bandwidth::from_mbps(500));
    }

    #[test]
    fn gain_cycle_visits_probe_and_drain_phases() {
        let mut bbr = Bbr::new(1448);
        let end = drive_ideal_pipe(&mut bbr, 100, 20, 60, 0);
        assert_eq!(bbr.mode, Mode::ProbeBw);
        // Walk several cycles; record distinct gains.
        let mut gains = std::collections::BTreeSet::new();
        let mut delivered = 1_000_000u64;
        for i in 0..64 {
            let prior = delivered;
            delivered += 100;
            let inflight = bbr.m.target_cwnd(1.3); // enough to satisfy the 1.25 phase
            bbr.on_ack(&AckSample {
                now: SimTime::from_millis(end + i * 21),
                rtt: SimDuration::from_millis(20),
                delivery_rate: Bandwidth::from_mbps(100),
                delivered,
                prior_delivered: prior,
                acked: 100,
                lost: 0,
                inflight,
                app_limited: false,
                in_recovery: false,
            });
            gains.insert((bbr.pacing_gain() * 100.0) as u64);
        }
        assert!(
            gains.contains(&125),
            "must visit the 1.25 probe phase: {gains:?}"
        );
        assert!(
            gains.contains(&75),
            "must visit the 0.75 drain phase: {gains:?}"
        );
        assert!(gains.contains(&100), "must cruise at 1.0: {gains:?}");
    }

    #[test]
    fn cycle_offset_staggers_flows() {
        let a = Bbr::new(1448).with_cycle_offset(0);
        let b = Bbr::new(1448).with_cycle_offset(3);
        assert_ne!(a.cycle_idx, b.cycle_idx);
        // Offsets never start a flow in the 0.75 drain phase.
        for k in 0..16 {
            let c = Bbr::new(1448).with_cycle_offset(k);
            assert_ne!(c.cycle_idx, 1);
        }
    }

    /// Drives a fixed script through any controller and records
    /// `(cwnd, pacing_rate, phase)` after every step; `visit` sees the
    /// controller after every step too.
    struct Script<'a, C: ?Sized, F> {
        cc: &'a mut C,
        visit: F,
        now_ms: u64,
        delivered: u64,
        trace: Vec<u8>,
    }

    impl<C: CongestionControl + ?Sized, F: FnMut(&C)> Script<'_, C, F> {
        fn record(&mut self) {
            self.trace.extend(self.cc.cwnd().to_le_bytes());
            let pace = self.cc.pacing_rate().map_or(0, |r| r.as_bps());
            self.trace.extend(pace.to_le_bytes());
            self.trace.extend(self.cc.phase().as_bytes());
            self.trace.push(0);
            (self.visit)(self.cc);
        }

        /// A loss, recovery or RTO callback at the current time.
        fn step(&mut self, f: impl FnOnce(&mut C, SimTime)) {
            f(self.cc, SimTime::from_millis(self.now_ms));
            self.record();
        }

        /// One ACK of `acked` packets, `gap_ms` after the last, whose newest
        /// packet was sent when `prior` packets had been delivered; the
        /// pipe carries 100 Mbps.
        fn ack(
            &mut self,
            gap_ms: u64,
            rtt_ms: u64,
            acked: u64,
            prior: u64,
            lost: u64,
            inflight: u64,
        ) {
            self.delivered += acked;
            self.now_ms += gap_ms;
            let offered =
                Bandwidth::from_bytes_over(self.cc.cwnd() * 1448, SimDuration::from_millis(rtt_ms));
            let rate = offered.as_bps().min(Bandwidth::from_mbps(100).as_bps());
            self.cc.on_ack(&AckSample {
                now: SimTime::from_millis(self.now_ms),
                rtt: SimDuration::from_millis(rtt_ms),
                delivery_rate: Bandwidth::from_bps(rate.max(1_000_000)),
                delivered: self.delivered,
                prior_delivered: prior,
                acked,
                lost,
                inflight,
                app_limited: false,
                in_recovery: false,
            });
            self.record();
        }

        /// `n` rounds, each a full window acked at once, `pct` % of the
        /// window still in flight.
        fn rounds(&mut self, n: u64, gap_ms: u64, rtt_ms: u64, pct: u64) {
            for _ in 0..n {
                let w = self.cc.cwnd();
                self.ack(gap_ms, rtt_ms, w, self.delivered, 0, w * pct / 100);
            }
        }
    }

    /// FNV digest of a script that walks v1's whole machine.
    fn golden_digest<C: CongestionControl + ?Sized>(cc: &mut C, visit: impl FnMut(&C)) -> u64 {
        let mut s = Script {
            cc,
            visit,
            now_ms: 0,
            delivered: 0,
            trace: Vec::new(),
        };
        // STARTUP until the bandwidth plateaus, with a standing queue that
        // holds DRAIN for a few rounds; then drain it.
        s.rounds(14, 20, 20, 90);
        s.rounds(4, 20, 20, 20);
        // PROBE_BW: one phase per min-RTT plus a millisecond, inflight high
        // enough to end the 1.25 probe, so the cycle wraps several times.
        s.rounds(40, 21, 20, 75);
        // Half-RTT ACKs with a loss each and the queue gone: loss ends the
        // 1.25 probe, and the 0.75 phase ends before its min-RTT is up.
        for _ in 0..24 {
            let w = s.cc.cwnd();
            s.ack(11, 20, w, s.delivered, 1, w * 2 / 5);
        }
        // Loss episode: the conservation cut, two ACKs for packets sent
        // before the round began (conservation holds), a lossy round that
        // ends it, and the recovery exit.
        let inflight = s.cc.cwnd() / 2;
        s.step(|cc, now| {
            cc.on_loss_event(&LossEvent {
                now,
                inflight,
                lost: 3,
            })
        });
        let old = s.delivered - 1;
        s.ack(1, 22, 2, old, 1, inflight + 5);
        s.ack(1, 22, 3, old, 1, inflight + 9);
        let w = s.cc.cwnd();
        s.ack(21, 20, w, s.delivered, 1, w * 3 / 4);
        s.step(|cc, now| cc.on_recovery_exit(now));
        s.rounds(6, 21, 20, 75);
        // > 10 s without a new min-RTT: PROBE_RTT, entered with too much in
        // flight to start the dwell. The dwell starts mid-round and re-arms
        // the round, so ACKs for packets sent before it cannot end it: the
        // exit waits for 200 ms and one full round.
        s.now_ms += 10_500;
        s.rounds(1, 25, 25, 50);
        let mark = s.delivered;
        s.ack(1, 25, 2, mark - 1, 0, 2);
        for _ in 0..12 {
            s.ack(25, 25, 1, mark, 0, 2);
        }
        s.rounds(4, 25, 25, 0);
        // RTO, then regrowth.
        s.step(|cc, now| cc.on_rto(now, 50));
        s.rounds(40, 26, 25, 75);
        sim_core::sweep::fnv64(&s.trace)
    }

    #[test]
    fn golden_trajectory_matches_the_two_model_parent() {
        // Recorded at commit bc25214, where v1 and the v2 family each
        // carried their own copy of the model, through `CcKind::build` and
        // `CcKind::build_for_flow`: the un-staggered cycle and three
        // offsets (flows 0, 3 and 5 start PROBE_BW at phases 2, 5 and 7).
        let golden: [(Option<usize>, u64); 4] = [
            (None, 0x0270_1c7e_4df1_37e9),
            (Some(0), 0x68f3_88f3_84a5_33a6),
            (Some(3), 0x15ce_cd1b_2829_9315),
            (Some(5), 0x0d35_6391_b042_0ed1),
        ];
        for (flow, want) in golden {
            let build = || match flow {
                Some(k) => crate::CcKind::Bbr.build_for_flow(1448, k),
                None => crate::CcKind::Bbr.build(1448),
            };
            // The script, run on the concrete controller, visits every mode
            // and every PROBE_BW phase.
            let mut bbr = Bbr::new(1448);
            if let Some(k) = flow {
                bbr = bbr.with_cycle_offset(k);
            }
            let mut modes = std::collections::BTreeSet::new();
            let mut phases = std::collections::BTreeSet::new();
            let concrete = golden_digest(&mut bbr, |b| {
                modes.insert(b.phase());
                if b.mode == Mode::ProbeBw {
                    phases.insert(b.cycle_idx);
                }
            });
            assert_eq!(modes.len(), 4, "flow {flow:?}: {modes:?}");
            assert_eq!(phases.len(), 8, "flow {flow:?}: {phases:?}");

            let digest = golden_digest(&mut build(), |_| {});
            assert_eq!(digest, concrete, "flow {flow:?}: built and concrete agree");
            assert_eq!(digest, want, "flow {flow:?}: {digest:#018x}");
        }
    }

    #[test]
    fn initial_pacing_rate_derived_from_first_rtt() {
        let mut bbr = Bbr::new(1448);
        assert_eq!(bbr.pacing_rate(), None, "no rate before any sample");
        bbr.on_ack(&AckSample {
            now: SimTime::from_millis(20),
            rtt: SimDuration::from_millis(20),
            delivery_rate: Bandwidth::from_mbps(5),
            delivered: 10,
            prior_delivered: 0,
            acked: 10,
            lost: 0,
            inflight: 0,
            app_limited: false,
            in_recovery: false,
        });
        let rate = bbr.pacing_rate().expect("rate set after first ack");
        assert!(
            rate >= Bandwidth::from_mbps(5),
            "at least the measured bw, got {rate}"
        );
    }
}
