//! The BBRv2 family: one state machine, two tunings.
//!
//! v2 (the IETF-104/105/106 iccrg presentations the paper cites, [12–14],
//! and the `tcp_bbr2` alpha the authors backported to the Pixel 6 kernel,
//! §3.1) runs v1's model (windowed-max bandwidth, windowed-min RTT, pacing
//! at `gain × bw`: the model `bbr.rs` holds for the whole family) and adds
//! **loss as a bounding signal**:
//!
//! * `inflight_hi` — an upper bound on inflight learned when a probe
//!   experiences a loss rate above `LOSS_THRESH` (2 %);
//! * cruising keeps `HEADROOM` (15 %) below `inflight_hi` to leave space
//!   for other flows;
//! * the PROBE_BW cycle becomes DOWN → CRUISE → REFILL → UP, probing for
//!   more bandwidth only every couple of seconds rather than every eight
//!   min-RTTs;
//! * STARTUP also exits on persistent high loss (not only on bandwidth
//!   plateau);
//! * PROBE_RTT visits every 5 s and clamps to `BDP/2` rather than 4
//!   packets.
//!
//! v3 (the IETF-117/119 iccrg updates; Google's upstreamed successor) is
//! the same skeleton, retuned where measurement found v2 mis-tuned. It is
//! not part of the paper's matrix (see [`crate::CcKind::PAPER`]); it
//! serves the follow-up question of the AQM/WiFi studies: does v3 fix v2's
//! rough edges against Cubic and under FQ-CoDel? Every difference between
//! the two is a field of the private `Tuning` table:
//!
//! | delta | v2 (`Bbr2::new`) | v3 (`Bbr2::v3`) | why v3 changed it (iccrg 117/119) |
//! |---|---|---|---|
//! | PROBE_DOWN pacing gain | 0.75 | 0.9 | v2 drained far more than one round's queue, giving away throughput every cycle |
//! | ProbeBW cwnd gain | 2.0 | 2.25 | lets an UP probe actually fill the ceiling it raises |
//! | CRUISE round cap | none (wall clock only) | 62 rounds (`bbr_bw_probe_max_rounds`) | short-RTT flows re-probe on a Reno/Cubic-comparable timescale instead of camping on a stale share |
//! | loss response | β-cut of the ceiling on every loss event | once per recovery episode, `hi ← min(hi, max(measured, β·hi))` | per-event cuts compounded within one episode and undershot the real ceiling |
//! | ProbeBW phase names | `probe_down`, … | `probe_bw_down`, … | how flight-data samples tell the variants apart |
//! | `name()` / model cost | `"bbr2"` / 4500 cycles | `"bbr3"` / 4800 cycles | episode tracking and the round-cap check on top of v2's model |
//!
//! Faithfulness note (recorded in DESIGN.md): the full `tcp_bbr2.c` also
//! maintains short-term `bw_lo`/`inflight_lo` bounds that relax each round;
//! we fold that into a single multiplicative `BETA` cut of `inflight_hi`
//! on loss rounds, which preserves the throughput/fairness behaviour the
//! paper's §4.2 measures while keeping the module reviewable.

use crate::bbr::{Model, PROBE_RTT_DURATION};
use crate::{AckSample, CongestionControl, LossEvent, MIN_CWND};
use sim_core::time::{SimDuration, SimTime};
use sim_core::units::Bandwidth;

/// STARTUP pacing gain (the family uses 2.77 rather than v1's 2.885).
const STARTUP_GAIN: f64 = 2.77;
/// Loss rate that bounds a probe (2 %).
const LOSS_THRESH: f64 = 0.02;
/// Multiplicative cut applied to `inflight_hi` on a loss-bounded round.
const BETA: f64 = 0.7;
/// Fraction of `inflight_hi` used while cruising.
const HEADROOM: f64 = 0.85;
/// Min-RTT window (the family probes RTT more often than v1).
const MIN_RTT_WINDOW: SimDuration = SimDuration::from_secs(5);
/// Time between bandwidth probes while cruising.
const BW_PROBE_WAIT_BASE: SimDuration = SimDuration::from_secs(2);
/// STARTUP: rounds of ≥ LOSS_THRESH loss that force an exit.
const STARTUP_LOSS_ROUNDS: u32 = 3;
/// Cap on the UP phase, in rounds.
const PROBE_UP_ROUNDS: u64 = 4;

/// What a loss event does to the `inflight_hi` ceiling.
enum LossResponse {
    /// β-cut on every loss event (seeded at measured inflight).
    PerEvent,
    /// One adjustment per recovery episode, anchored at the inflight
    /// measured at the loss and floored at β × ceiling.
    PerEpisode,
}

/// Everything that distinguishes the family's members (module docs).
struct Tuning {
    name: &'static str,
    probe_down_gain: f64,
    probe_bw_cwnd_gain: f64,
    /// CRUISE also ends after this many rounds, not only on wall clock.
    cruise_max_rounds: Option<u64>,
    loss_response: LossResponse,
    /// `phase()` names of DOWN, CRUISE, REFILL, UP.
    probe_phases: [&'static str; 4],
    model_cost_cycles: u64,
}

const V2: Tuning = Tuning {
    name: "bbr2",
    probe_down_gain: 0.75,
    probe_bw_cwnd_gain: 2.0,
    cruise_max_rounds: None,
    loss_response: LossResponse::PerEvent,
    probe_phases: ["probe_down", "probe_cruise", "probe_refill", "probe_up"],
    model_cost_cycles: 4_500,
};

const V3: Tuning = Tuning {
    name: "bbr3",
    probe_down_gain: 0.9,
    probe_bw_cwnd_gain: 2.25,
    cruise_max_rounds: Some(62),
    loss_response: LossResponse::PerEpisode,
    probe_phases: [
        "probe_bw_down",
        "probe_bw_cruise",
        "probe_bw_refill",
        "probe_bw_up",
    ],
    model_cost_cycles: 4_800,
};

/// State machine modes of the BBRv2 family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Exponential search.
    Startup,
    /// Queue drain after startup.
    Drain,
    /// Pull inflight below the estimated BDP/ceiling.
    ProbeDown,
    /// Steady cruising with headroom.
    ProbeCruise,
    /// Refill the pipe at 1.0 gain before probing up.
    ProbeRefill,
    /// Probe for more bandwidth at 1.25 gain.
    ProbeUp,
    /// Re-measure propagation delay.
    ProbeRtt,
}

/// A BBRv2-family controller: v2 from `Bbr2::new`, v3 from `Bbr2::v3`.
pub struct Bbr2 {
    tuning: &'static Tuning,
    m: Model,
    mode: Mode,
    startup_loss_rounds: u32,
    // Loss bounds.
    inflight_hi: u64,
    /// Has the ceiling already been adjusted in this recovery episode?
    loss_in_episode: bool,
    // Per-round loss accounting.
    round_lost: u64,
    round_delivered: u64,
    // Probe scheduling.
    phase_stamp: SimTime,
    probe_wait: SimDuration,
    probe_up_rounds: u64,
    /// Round count at CRUISE entry (for the round-bounded cruise exit).
    cruise_round_mark: u64,
    // Probe RTT.
    probe_rtt_done_stamp: Option<SimTime>,
}

impl Bbr2 {
    /// A fresh BBR v2 instance for `mss`-byte segments.
    pub(crate) fn new(mss: u64) -> Self {
        Self::with_tuning(&V2, mss)
    }

    /// A fresh BBR v3 instance for `mss`-byte segments.
    pub(crate) fn v3(mss: u64) -> Self {
        Self::with_tuning(&V3, mss)
    }

    fn with_tuning(tuning: &'static Tuning, mss: u64) -> Self {
        Bbr2 {
            tuning,
            m: Model::new(mss),
            mode: Mode::Startup,
            startup_loss_rounds: 0,
            inflight_hi: u64::MAX,
            loss_in_episode: false,
            round_lost: 0,
            round_delivered: 0,
            phase_stamp: SimTime::ZERO,
            probe_wait: BW_PROBE_WAIT_BASE,
            probe_up_rounds: 0,
            cruise_round_mark: 0,
            probe_rtt_done_stamp: None,
        }
    }

    /// Stagger the probe schedule across flows (deterministic analogue of
    /// the kernel's randomised 2–3 s wait).
    pub(crate) fn with_probe_offset(mut self, offset: usize) -> Self {
        let jitter_ms = (offset as u64 % 16) * 64; // 0..1024 ms
        self.probe_wait = BW_PROBE_WAIT_BASE + SimDuration::from_millis(jitter_ms);
        self
    }

    fn pacing_gain(&self) -> f64 {
        match self.mode {
            Mode::Startup => STARTUP_GAIN,
            Mode::Drain => 1.0 / STARTUP_GAIN,
            Mode::ProbeDown => self.tuning.probe_down_gain,
            Mode::ProbeCruise | Mode::ProbeRefill => 1.0,
            Mode::ProbeUp => 1.25,
            Mode::ProbeRtt => 1.0,
        }
    }

    fn cwnd_gain(&self) -> f64 {
        match self.mode {
            Mode::Startup | Mode::Drain => 2.0,
            Mode::ProbeRtt => 0.5,
            _ => self.tuning.probe_bw_cwnd_gain,
        }
    }

    /// Loss rate of the just-completed round, evaluated at round start.
    fn round_loss_rate(&self) -> f64 {
        let total = self.round_lost + self.round_delivered;
        if total == 0 {
            0.0
        } else {
            self.round_lost as f64 / total as f64
        }
    }

    fn reset_round_loss(&mut self) {
        self.round_lost = 0;
        self.round_delivered = 0;
    }

    fn check_startup_done(&mut self, sample: &AckSample) {
        if self.m.full_bw_reached
            || self.mode != Mode::Startup
            || !self.m.round_start
            || sample.app_limited
        {
            return;
        }
        // Bandwidth-plateau exit, as v1.
        let plateau = self.m.full_bw_round();
        // Family addition over v1: persistent-loss exit.
        if self.round_loss_rate() >= LOSS_THRESH {
            self.startup_loss_rounds += 1;
        } else {
            self.startup_loss_rounds = 0;
        }
        if plateau || self.startup_loss_rounds >= STARTUP_LOSS_ROUNDS {
            self.m.full_bw_reached = true;
            if self.startup_loss_rounds >= STARTUP_LOSS_ROUNDS {
                // Loss-bounded exit also seeds the inflight ceiling.
                self.inflight_hi = self.inflight_hi.min(sample.inflight.max(MIN_CWND));
            }
        }
    }

    fn advance_state(&mut self, sample: &AckSample) {
        let now = sample.now;
        match self.mode {
            Mode::Startup => {
                if self.m.full_bw_reached {
                    self.mode = Mode::Drain;
                    self.phase_stamp = now;
                }
            }
            Mode::Drain => {
                if sample.inflight <= self.m.target_cwnd(1.0) {
                    self.enter_phase(Mode::ProbeDown, now);
                }
            }
            Mode::ProbeDown => {
                let target = self.cruise_cap();
                if sample.inflight <= target {
                    self.enter_phase(Mode::ProbeCruise, now);
                    self.cruise_round_mark = self.m.round_count;
                }
            }
            Mode::ProbeCruise => {
                let round_capped = self
                    .tuning
                    .cruise_max_rounds
                    .is_some_and(|cap| self.m.round_count >= self.cruise_round_mark + cap);
                if now.saturating_since(self.phase_stamp) >= self.probe_wait || round_capped {
                    self.enter_phase(Mode::ProbeRefill, now);
                    self.probe_up_rounds = self.m.round_count;
                }
            }
            Mode::ProbeRefill => {
                if self.m.round_start && self.m.round_count > self.probe_up_rounds {
                    self.enter_phase(Mode::ProbeUp, now);
                    self.probe_up_rounds = self.m.round_count;
                    // A new probe may raise the ceiling: allow growth.
                    self.reset_round_loss();
                }
            }
            Mode::ProbeUp => {
                if self.m.round_start {
                    if self.round_loss_rate() >= LOSS_THRESH {
                        // Loss bounded the probe: learn the ceiling and back off.
                        self.inflight_hi = sample.inflight.max(MIN_CWND);
                        self.enter_phase(Mode::ProbeDown, now);
                    } else if self.m.round_count >= self.probe_up_rounds + PROBE_UP_ROUNDS {
                        // Probe long enough without loss: raise the ceiling.
                        if self.inflight_hi != u64::MAX {
                            self.inflight_hi = ((self.inflight_hi as f64) * 1.25).ceil() as u64;
                        }
                        self.enter_phase(Mode::ProbeDown, now);
                    }
                }
            }
            Mode::ProbeRtt => { /* handled in check_probe_rtt */ }
        }
    }

    fn enter_phase(&mut self, mode: Mode, now: SimTime) {
        self.mode = mode;
        self.phase_stamp = now;
        if mode == Mode::ProbeDown || mode == Mode::ProbeUp {
            self.reset_round_loss();
        }
    }

    /// The inflight cap while cruising: 15 % headroom below the ceiling.
    fn cruise_cap(&mut self) -> u64 {
        if self.inflight_hi == u64::MAX {
            self.m.target_cwnd(1.0)
        } else {
            (((self.inflight_hi as f64) * HEADROOM) as u64).max(MIN_CWND)
        }
    }

    fn check_probe_rtt(&mut self, sample: &AckSample, expired: bool) {
        if self.mode != Mode::ProbeRtt && expired {
            self.m.save_cwnd();
            self.mode = Mode::ProbeRtt;
            self.probe_rtt_done_stamp = None;
        }
        if self.mode == Mode::ProbeRtt {
            let clamp = self.m.target_cwnd(0.5);
            match self.probe_rtt_done_stamp {
                None => {
                    if sample.inflight <= clamp {
                        self.probe_rtt_done_stamp = Some(sample.now + PROBE_RTT_DURATION);
                    }
                }
                Some(done) => {
                    if sample.now > done {
                        self.m.probe_rtt_done(sample.now);
                        self.enter_phase(Mode::ProbeDown, sample.now);
                    }
                }
            }
        }
    }

    fn set_cwnd(&mut self, sample: &AckSample) {
        let mut target = self.m.target_cwnd(self.cwnd_gain());
        // Loss-learned ceiling applies everywhere except the UP probe
        // itself (which is how the ceiling gets re-tested).
        if self.inflight_hi != u64::MAX || self.mode == Mode::ProbeRtt {
            let cap = match self.mode {
                Mode::ProbeUp | Mode::ProbeRefill => self.inflight_hi,
                Mode::ProbeRtt => self.m.target_cwnd(0.5),
                _ => self.cruise_cap(),
            };
            target = target.min(cap);
        }
        self.m.grow_cwnd(sample, target);
        if self.mode == Mode::ProbeRtt {
            self.m.cwnd = self.m.cwnd.min(self.m.target_cwnd(0.5));
        }
    }
}

impl CongestionControl for Bbr2 {
    fn name(&self) -> &'static str {
        self.tuning.name
    }

    fn phase(&self) -> &'static str {
        match self.mode {
            Mode::Startup => "startup",
            Mode::Drain => "drain",
            Mode::ProbeDown => self.tuning.probe_phases[0],
            Mode::ProbeCruise => self.tuning.probe_phases[1],
            Mode::ProbeRefill => self.tuning.probe_phases[2],
            Mode::ProbeUp => self.tuning.probe_phases[3],
            Mode::ProbeRtt => "probe_rtt",
        }
    }

    fn on_ack(&mut self, sample: &AckSample) {
        self.round_lost += sample.lost;
        self.round_delivered += sample.acked;
        self.m.update_round(sample);
        self.m.update_bw(sample);
        self.check_startup_done(sample);
        self.advance_state(sample);
        let expired = self.m.update_min_rtt(sample, MIN_RTT_WINDOW);
        self.check_probe_rtt(sample, expired);
        self.m.set_pacing_rate(sample, self.pacing_gain());
        self.set_cwnd(sample);
        if self.m.round_start {
            self.reset_round_loss();
        }
    }

    fn on_loss_event(&mut self, event: &LossEvent) {
        if !self.m.in_recovery() {
            self.m.save_cwnd();
            self.loss_in_episode = false;
            self.m.enter_recovery(event.inflight);
        }
        // The family reacts to loss structurally: adjust the ceiling.
        let measured = event.inflight.max(MIN_CWND);
        match self.tuning.loss_response {
            LossResponse::PerEvent => {
                if self.inflight_hi != u64::MAX {
                    self.inflight_hi = (((self.inflight_hi as f64) * BETA) as u64).max(MIN_CWND);
                } else if self.m.full_bw_reached {
                    // First loss after startup seeds the ceiling.
                    self.inflight_hi = measured;
                }
            }
            LossResponse::PerEpisode => {
                if !self.loss_in_episode && self.m.full_bw_reached {
                    self.inflight_hi = if self.inflight_hi == u64::MAX {
                        measured
                    } else {
                        self.inflight_hi
                            .min(measured.max(((self.inflight_hi as f64) * BETA) as u64))
                            .max(MIN_CWND)
                    };
                    self.loss_in_episode = true;
                }
            }
        }
    }

    fn on_recovery_exit(&mut self, _now: SimTime) {
        if self.m.exit_recovery() {
            self.loss_in_episode = false;
            self.m.cwnd = self.m.cwnd.min(self.inflight_hi);
        }
    }

    fn on_rto(&mut self, _now: SimTime, _inflight: u64) {
        self.m.save_cwnd();
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
        self.tuning.model_cost_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AckSample;
    use std::collections::BTreeSet;

    /// One instance of each table row, v2 first.
    fn rows() -> [Bbr2; 2] {
        [Bbr2::new(1448), Bbr2::v3(1448)]
    }

    #[allow(clippy::too_many_arguments)]
    fn pipe_sample(
        now_ms: u64,
        rtt_ms: u64,
        rate_mbps: u64,
        delivered: u64,
        prior: u64,
        acked: u64,
        lost: u64,
        inflight: u64,
    ) -> AckSample {
        AckSample {
            now: SimTime::from_millis(now_ms),
            rtt: SimDuration::from_millis(rtt_ms),
            delivery_rate: Bandwidth::from_mbps(rate_mbps),
            delivered,
            prior_delivered: prior,
            acked,
            lost,
            inflight,
            app_limited: false,
            in_recovery: false,
        }
    }

    fn drive(b: &mut Bbr2, bw_mbps: u64, rtt_ms: u64, rounds: u64, start_ms: u64) {
        let mut delivered = 0u64;
        let mut now = start_ms;
        for _ in 0..rounds {
            let w = b.cwnd();
            let prior = delivered;
            delivered += w;
            let offered = Bandwidth::from_bytes_over(w * 1448, SimDuration::from_millis(rtt_ms));
            let rate = offered.as_bps().min(Bandwidth::from_mbps(bw_mbps).as_bps()) / 1_000_000;
            b.on_ack(&pipe_sample(
                now,
                rtt_ms,
                rate.max(1),
                delivered,
                prior,
                w,
                0,
                0,
            ));
            now += rtt_ms;
        }
    }

    /// Up to `steps` lossless full-window ACKs at 100 Mbps, one per
    /// `rtt_ms` from `start_ms`, leaving `cwnd / inflight_div` in flight;
    /// stops early once `stop` says so.
    fn ack_windows(
        b: &mut Bbr2,
        start_ms: u64,
        rtt_ms: u64,
        steps: u64,
        inflight_div: u64,
        mut stop: impl FnMut(&Bbr2) -> bool,
    ) {
        let mut delivered = 1_000_000u64;
        for i in 0..steps {
            let w = b.cwnd();
            let prior = delivered;
            delivered += w;
            let left = w / inflight_div;
            b.on_ack(&pipe_sample(
                start_ms + i * rtt_ms,
                rtt_ms,
                100,
                delivered,
                prior,
                w,
                0,
                left,
            ));
            if stop(b) {
                return;
            }
        }
    }

    fn lose(b: &mut Bbr2, now_ms: u64, inflight: u64, lost: u64) {
        b.on_loss_event(&LossEvent {
            now: SimTime::from_millis(now_ms),
            inflight,
            lost,
        });
    }

    #[test]
    fn startup_exits_on_plateau() {
        for mut b in rows() {
            assert_eq!(b.mode, Mode::Startup);
            drive(&mut b, 100, 20, 30, 0);
            assert_ne!(b.mode, Mode::Startup, "{}", b.name());
            assert!(b.m.full_bw_reached);
        }
    }

    #[test]
    fn converges_to_pipe_bandwidth() {
        for mut b in rows() {
            drive(&mut b, 100, 20, 40, 0);
            let est = b.m.bw().as_mbps_f64();
            assert!(
                (70.0..140.0).contains(&est),
                "{}: estimate {est} Mbps",
                b.name()
            );
        }
    }

    #[test]
    fn startup_exits_on_persistent_loss() {
        let mut b = Bbr2::new(1448);
        let mut delivered = 0u64;
        // Every round suffers 5% loss; bandwidth keeps *growing* so the
        // plateau exit never fires — only the loss exit can.
        for i in 0..12 {
            let w = b.cwnd();
            let prior = delivered;
            delivered += w;
            let lost = (w / 20).max(1);
            b.on_ack(&pipe_sample(
                i * 20,
                20,
                10 + i * 10,
                delivered,
                prior,
                w,
                lost,
                w,
            ));
            if b.m.full_bw_reached {
                break;
            }
        }
        assert!(b.m.full_bw_reached, "persistent loss must end startup");
        assert_ne!(b.inflight_hi, u64::MAX, "loss exit seeds the ceiling");
    }

    #[test]
    fn loss_event_seeds_and_cuts_ceiling() {
        let mut b = Bbr2::new(1448);
        drive(&mut b, 100, 20, 40, 0);
        assert_eq!(b.inflight_hi, u64::MAX);
        lose(&mut b, 2_000, 200, 5);
        assert_eq!(b.inflight_hi, 200);
        b.on_recovery_exit(SimTime::from_secs(2));
        lose(&mut b, 3_000, 180, 5);
        assert_eq!(b.inflight_hi, 140, "second loss cuts by beta=0.7");
    }

    #[test]
    fn loss_response_anchors_at_measured_inflight() {
        // The defining v3 change: two separate recovery episodes with
        // losses at inflight 200 then 180 leave the ceiling at 180 — v2's
        // per-event β-cut compounds it down to 140 (the test above).
        let mut b = Bbr2::v3(1448);
        drive(&mut b, 100, 20, 40, 0);
        assert_eq!(b.inflight_hi, u64::MAX);
        lose(&mut b, 2_000, 200, 5);
        assert_eq!(b.inflight_hi, 200, "first episode seeds at measured");
        b.on_recovery_exit(SimTime::from_secs(2));
        lose(&mut b, 3_000, 180, 5);
        assert_eq!(
            b.inflight_hi, 180,
            "second episode anchors at measured inflight, not β-compounded"
        );
    }

    #[test]
    fn loss_response_is_once_per_episode_and_beta_bounded() {
        let mut b = Bbr2::v3(1448);
        drive(&mut b, 100, 20, 40, 0);
        lose(&mut b, 2_000, 200, 5);
        // More losses within the same episode must not move the ceiling.
        lose(&mut b, 2_010, 100, 5);
        assert_eq!(b.inflight_hi, 200, "one adjustment per episode");
        b.on_recovery_exit(SimTime::from_millis(2_020));
        // A collapse to tiny inflight in the next episode is floored at
        // β × hi, not taken at face value.
        lose(&mut b, 3_000, 10, 5);
        assert_eq!(b.inflight_hi, 140, "cut floored at β=0.7 per episode");
    }

    #[test]
    fn cruise_keeps_headroom_below_ceiling() {
        for mut b in rows() {
            drive(&mut b, 100, 20, 40, 0);
            lose(&mut b, 2_000, 200, 5);
            b.on_recovery_exit(SimTime::from_secs(2));
            assert_eq!(b.cruise_cap(), 170, "85% of 200");
            // Continue cruising: cwnd must respect the cap.
            drive(&mut b, 100, 20, 20, 3_000);
            if matches!(b.mode, Mode::ProbeCruise | Mode::ProbeDown) {
                assert!(b.cwnd() <= 170, "cwnd {} must respect cruise cap", b.cwnd());
            }
        }
    }

    #[test]
    fn probe_cycle_reaches_up_phase_and_raises_ceiling() {
        for mut b in rows() {
            drive(&mut b, 100, 20, 40, 0);
            lose(&mut b, 2_000, 200, 2);
            b.on_recovery_exit(SimTime::from_secs(2));
            let hi_before = b.inflight_hi;
            // Run long enough (> probe_wait) with no loss for a full
            // DOWN→CRUISE→REFILL→UP→DOWN cycle.
            let mut saw_up = false;
            ack_windows(&mut b, 2_100, 20, 400, 2, |b| {
                saw_up |= b.mode == Mode::ProbeUp;
                false
            });
            assert!(saw_up, "should have probed up within 8 s of cruising");
            assert!(
                b.inflight_hi > hi_before,
                "lossless UP probe should raise the ceiling: {:?} vs {hi_before}",
                b.inflight_hi
            );
        }
    }

    #[test]
    fn v3_phase_names_are_reported() {
        let mut b = Bbr2::v3(1448);
        assert_eq!(b.phase(), "startup");
        drive(&mut b, 100, 20, 40, 0);
        let mut seen = BTreeSet::new();
        ack_windows(&mut b, 1_000, 20, 400, 2, |b| {
            seen.insert(b.phase());
            false
        });
        for phase in V3.probe_phases {
            assert!(
                phase.starts_with("probe_bw_") && seen.contains(phase),
                "ProbeBW cycle must visit {phase}: {seen:?}"
            );
        }
    }

    #[test]
    fn cruise_ends_after_round_cap_even_when_wall_clock_is_short() {
        // 1 ms RTT: 62 rounds elapse in 62 ms, far below the 2 s
        // wall-clock probe wait — only the v3 round cap can end CRUISE.
        let cap = V3.cruise_max_rounds.unwrap();
        let mut b = Bbr2::v3(1448);
        drive(&mut b, 100, 1, 40, 0);
        lose(&mut b, 50, 200, 2);
        b.on_recovery_exit(SimTime::from_millis(51));
        let mut saw_refill = false;
        let mut streak = 0u64;
        let mut longest_cruise = 0u64;
        ack_windows(&mut b, 60, 1, 200, 2, |b| {
            streak = if b.mode == Mode::ProbeCruise {
                streak + 1
            } else {
                0
            };
            longest_cruise = longest_cruise.max(streak);
            saw_refill |= b.mode == Mode::ProbeRefill;
            false
        });
        assert!(
            saw_refill,
            "round-capped cruise must hand over to REFILL within 200 ms"
        );
        assert!(
            longest_cruise <= cap + 2,
            "one cruise held for {longest_cruise} rounds, cap is {cap}"
        );
    }

    #[test]
    fn probe_down_is_shallower_than_v2() {
        // Walk each row into ProbeBW and measure its DOWN pacing gain.
        let [v2, v3] = rows().map(|mut b| {
            drive(&mut b, 100, 20, 40, 0);
            ack_windows(&mut b, 1_000, 20, 400, 1, |b| b.mode == Mode::ProbeDown);
            assert_eq!(b.mode, Mode::ProbeDown, "must reach the DOWN probe");
            let bw = b.m.bw().as_bps() as f64;
            b.pacing_rate().unwrap().as_bps() as f64 / bw
        });
        assert!((v2 - 0.75).abs() < 0.02, "v2 DOWN gain {v2:.3}");
        assert!((v3 - 0.9).abs() < 0.02, "v3 DOWN gain {v3:.3}");
        assert!(v3 > v2, "v3 drains less than v2: {v3:.3} vs {v2:.3}");
    }

    #[test]
    fn probe_rtt_visits_every_five_seconds() {
        for mut b in rows() {
            drive(&mut b, 100, 20, 40, 0);
            let mut saw = false;
            ack_windows(&mut b, 1_000, 25, 400, 2, |b| {
                saw |= b.mode == Mode::ProbeRtt;
                false
            });
            assert!(
                saw,
                "min-RTT window is 5 s; a 10 s run must visit PROBE_RTT"
            );
        }
    }

    #[test]
    fn cruise_cap_without_ceiling_falls_back_to_bdp() {
        let mut b = Bbr2::new(1448);
        drive(&mut b, 100, 20, 40, 0);
        assert_eq!(b.inflight_hi, u64::MAX);
        // With no loss-learned ceiling, cruising is bounded by the BDP
        // estimate, not by a stale constant.
        assert!(b.cruise_cap() >= MIN_CWND);
        assert!(b.cruise_cap() <= b.m.target_cwnd(1.0));
    }

    #[test]
    fn ceiling_never_falls_below_min_cwnd() {
        for mut b in rows() {
            drive(&mut b, 100, 20, 40, 0);
            for i in 0..50 {
                lose(&mut b, 3_000 + i, 1, 2);
                b.on_recovery_exit(SimTime::from_millis(3_001 + i));
            }
            assert!(
                b.inflight_hi >= MIN_CWND,
                "{}: ceiling cuts floor at MIN_CWND",
                b.name()
            );
            assert!(b.cwnd() >= MIN_CWND);
        }
    }

    #[test]
    fn each_version_paces_and_costs_more_than_its_predecessor() {
        let [v2, v3] = rows();
        assert!(v2.wants_pacing() && v3.wants_pacing());
        assert!(v2.model_cost_cycles() > crate::bbr::Bbr::new(1448).model_cost_cycles());
        assert!(v3.model_cost_cycles() > v2.model_cost_cycles());
    }

    #[test]
    fn rto_floors_cwnd() {
        for mut b in rows() {
            drive(&mut b, 100, 20, 40, 0);
            b.on_rto(SimTime::from_secs(2), 50);
            assert_eq!(b.cwnd(), MIN_CWND);
        }
    }

    /// Drives a fixed script and records `(cwnd, pacing_rate, phase)` after
    /// every step.
    struct Script {
        b: Bbr2,
        now_ms: u64,
        delivered: u64,
        trace: Vec<u8>,
        phases: BTreeSet<&'static str>,
    }

    impl Script {
        fn record(&mut self) {
            self.trace.extend(self.b.cwnd().to_le_bytes());
            let pace = self.b.pacing_rate().map_or(0, |r| r.as_bps());
            self.trace.extend(pace.to_le_bytes());
            self.trace.extend(self.b.phase().as_bytes());
            self.trace.push(0);
            self.phases.insert(self.b.phase());
        }

        /// One round: a full window acked `rtt_ms` after the last on a
        /// 100 Mbps pipe, half of the next window already in flight.
        fn round(&mut self, rtt_ms: u64, lost: u64) {
            let w = self.b.cwnd();
            let prior = self.delivered;
            self.delivered += w;
            self.now_ms += rtt_ms;
            let offered = Bandwidth::from_bytes_over(w * 1448, SimDuration::from_millis(rtt_ms));
            let rate = offered.as_bps().min(Bandwidth::from_mbps(100).as_bps());
            let mut ack = pipe_sample(
                self.now_ms,
                rtt_ms,
                1,
                self.delivered,
                prior,
                w,
                lost,
                w / 2,
            );
            ack.delivery_rate = Bandwidth::from_bps(rate.max(1_000_000));
            self.b.on_ack(&ack);
            self.record();
        }

        fn rounds(&mut self, n: u64, rtt_ms: u64) {
            for _ in 0..n {
                self.round(rtt_ms, 0);
            }
        }

        fn lose(&mut self, inflight: u64) {
            lose(&mut self.b, self.now_ms, inflight, 5);
            self.record();
        }

        fn recovery_exit(&mut self) {
            self.b.on_recovery_exit(SimTime::from_millis(self.now_ms));
            self.record();
        }
    }

    /// FNV digest of a script that walks the whole machine, and the phases
    /// it visited.
    fn golden_digest(b: Bbr2) -> (u64, BTreeSet<&'static str>) {
        let mut s = Script {
            b,
            now_ms: 0,
            delivered: 0,
            trace: Vec::new(),
            phases: BTreeSet::new(),
        };
        // Startup → plateau → drain → ProbeBW.
        s.rounds(40, 20);
        // Episode 1: two loss events inside one recovery episode.
        s.lose(200);
        s.round(20, 3);
        s.lose(150);
        s.round(20, 0);
        s.recovery_exit();
        s.rounds(5, 20);
        // Episode 2: a lower measured inflight.
        s.lose(180);
        s.round(20, 1);
        s.recovery_exit();
        // Wall-clock probe cycles whose UP phase is bounded by loss.
        for _ in 0..150 {
            let lost = if s.b.mode == Mode::ProbeUp {
                (s.b.cwnd() / 10).max(1)
            } else {
                0
            };
            s.round(20, lost);
        }
        // ≥ 70 short-RTT rounds: only a round cap can end this cruise.
        s.rounds(90, 1);
        // > 5 s of silence expires the min-RTT window: PROBE_RTT and back.
        s.now_ms += 6_000;
        s.rounds(8, 100);
        // RTO, then regrowth through a lossless (ceiling-raising) UP probe.
        s.b.on_rto(SimTime::from_millis(s.now_ms), 50);
        s.record();
        s.rounds(120, 20);
        (sim_core::sweep::fnv64(&s.trace), s.phases)
    }

    #[test]
    fn golden_trajectories_match_the_two_file_parent() {
        // Recorded at commit 9cfd416 (PR 12) from that commit's separate
        // `bbr2::Bbr2` and `bbr3::Bbr3`, through `CcKind::build`, before
        // `bbr3.rs` was deleted. Any drift in a row, or any leak of one
        // row's tuning into the other, moves a digest.
        for (b, golden) in rows()
            .into_iter()
            .zip([0x2586_d38b_8141_278b_u64, 0x6054_136f_927e_bfea])
        {
            let name = b.name();
            let (digest, phases) = golden_digest(b);
            assert_eq!(phases.len(), 7, "{name}: script must visit every mode");
            assert_eq!(digest, golden, "{name}: {digest:#018x}");
        }
    }
}
