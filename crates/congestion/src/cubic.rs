//! Cubic congestion control (RFC 8312) with HyStart, after Linux's
//! `tcp_cubic.c` — Android's default algorithm.
//!
//! §3 of the paper: "We find that the Cubic congestion control for Android
//! is the same as the Cubic implementation in the corresponding Linux
//! kernel." The pieces that matter to the reproduction:
//!
//! * **no pacing by default** — Cubic rides the ACK clock, which is exactly
//!   why it dodges the per-send timer overhead BBR pays (§5.2.2);
//! * the cubic window growth `W(t) = C(t−K)³ + W_max` with β = 0.7 and
//!   C = 0.4, plus the TCP-friendly region;
//! * **HyStart** delay-based slow-start exit, which keeps Cubic's startup
//!   from overshooting the 1 Gbps testbed queue;
//! * fast convergence (release buffer share to newer flows).
//!
//! The implementation uses floating-point windows rather than the kernel's
//! fixed-point `cnt/cwnd_cnt` scheme; the trajectories agree to well under
//! one segment per RTT, and floats keep the property tests readable.

use crate::{AckSample, CongestionControl, LossEvent, INIT_CWND, MIN_CWND};
use sim_core::time::{SimDuration, SimTime};
use sim_core::units::Bandwidth;

/// RFC 8312 multiplicative decrease factor.
const BETA: f64 = 0.7;
/// RFC 8312 cubic scaling constant (window in packets, time in seconds).
const C: f64 = 0.4;
/// Reno's additive increase in the TCP-friendly region (RFC 8312 §4.2),
/// packets per RTT.
const RENO_SLOPE: f64 = 3.0 * (1.0 - BETA) / (1.0 + BETA);

/// HyStart: minimum delay-increase threshold.
const HYSTART_DELAY_MIN: SimDuration = SimDuration::from_millis(4);
/// HyStart: maximum delay-increase threshold.
const HYSTART_DELAY_MAX: SimDuration = SimDuration::from_millis(16);
/// HyStart: RTT samples per round used for the current-round minimum.
const HYSTART_MIN_SAMPLES: u32 = 8;
/// HyStart only arms above this window (Linux `hystart_low_window`).
const HYSTART_LOW_WINDOW: u64 = 16;

/// Cubic with HyStart.
#[derive(Debug, Clone)]
pub struct Cubic {
    cwnd: f64,
    ssthresh: u64,
    in_recovery: bool,
    // Cubic epoch state.
    epoch_start: Option<SimTime>,
    w_max: f64,
    k: f64, // seconds
    // TCP-friendly region estimate.
    w_est: f64,
    ack_cnt: f64,
    // Connection-lifetime minimum RTT (HyStart baseline).
    delay_min: SimDuration,
    // HyStart per-round state.
    hystart_found: bool,
    round_start_delivered: u64,
    curr_round_min_rtt: SimDuration,
    rtt_sample_cnt: u32,
}

impl Cubic {
    /// A fresh Cubic instance.
    pub(crate) fn new() -> Self {
        Cubic {
            cwnd: INIT_CWND as f64,
            ssthresh: u64::MAX,
            in_recovery: false,
            epoch_start: None,
            w_max: 0.0,
            k: 0.0,
            w_est: 0.0,
            ack_cnt: 0.0,
            delay_min: SimDuration::MAX,
            hystart_found: false,
            round_start_delivered: 0,
            curr_round_min_rtt: SimDuration::MAX,
            rtt_sample_cnt: 0,
        }
    }

    fn in_slow_start(&self) -> bool {
        (self.cwnd as u64) < self.ssthresh
    }

    /// HyStart's delay threshold: clamp(delay_min / 8, 4 ms, 16 ms).
    fn hystart_delay_thresh(&self) -> SimDuration {
        let eighth = self.delay_min / 8;
        eighth.max(HYSTART_DELAY_MIN).min(HYSTART_DELAY_MAX)
    }

    fn hystart_update(&mut self, sample: &AckSample) {
        if self.hystart_found || (self.cwnd as u64) < HYSTART_LOW_WINDOW {
            return;
        }
        // Round boundary: the first packet of this round has been delivered.
        if sample.prior_delivered >= self.round_start_delivered {
            self.round_start_delivered = sample.delivered;
            self.curr_round_min_rtt = SimDuration::MAX;
            self.rtt_sample_cnt = 0;
        }
        if self.rtt_sample_cnt < HYSTART_MIN_SAMPLES {
            self.curr_round_min_rtt = self.curr_round_min_rtt.min(sample.rtt);
            self.rtt_sample_cnt += 1;
            if self.rtt_sample_cnt == HYSTART_MIN_SAMPLES
                && self.delay_min != SimDuration::MAX
                && self.curr_round_min_rtt >= self.delay_min + self.hystart_delay_thresh()
            {
                // Queue is building: leave slow start at the current window.
                self.hystart_found = true;
                self.ssthresh = self.cwnd as u64;
            }
        }
    }

    /// RFC 8312 window update; returns the per-ack additive increment.
    fn cubic_increment(&mut self, now: SimTime, acked: u64) -> f64 {
        let epoch = *self.epoch_start.get_or_insert_with(|| {
            // New epoch: position the cubic origin.
            if self.w_max <= self.cwnd {
                self.k = 0.0;
                self.w_max = self.cwnd;
            } else {
                self.k = ((self.w_max - self.cwnd) / C).cbrt();
            }
            self.ack_cnt = 0.0;
            self.w_est = self.cwnd;
            now
        });

        // Time since epoch, biased by delay_min as in the kernel (predicts
        // the window one RTT ahead so growth is not systematically late).
        let mut t = now.saturating_since(epoch).as_secs_f64();
        if self.delay_min != SimDuration::MAX {
            t += self.delay_min.as_secs_f64();
        }
        let w_cubic = C * (t - self.k).powi(3) + self.w_max;

        // TCP-friendly region (RFC 8312 §4.2): emulate Reno's growth.
        self.ack_cnt += acked as f64;
        while self.ack_cnt >= self.w_est / RENO_SLOPE && self.ack_cnt >= 1.0 {
            // Approximate: W_est += RENO_SLOPE per W_est acks.
            self.ack_cnt -= self.w_est / RENO_SLOPE;
            self.w_est += 1.0;
        }

        let target = w_cubic.max(self.w_est);
        if target > self.cwnd {
            // Close the gap over roughly one RTT's worth of acks.
            (target - self.cwnd) * acked as f64 / self.cwnd
        } else {
            // Flat region: token growth (kernel: 1 packet per 100 acks).
            acked as f64 * 0.01
        }
    }
}

impl Default for Cubic {
    fn default() -> Self {
        Self::new()
    }
}

impl CongestionControl for Cubic {
    fn name(&self) -> &'static str {
        "cubic"
    }

    fn phase(&self) -> &'static str {
        if self.in_recovery {
            "recovery"
        } else if self.in_slow_start() {
            "slow_start"
        } else {
            "avoidance"
        }
    }

    fn on_ack(&mut self, sample: &AckSample) {
        if !sample.rtt.is_zero() {
            self.delay_min = self.delay_min.min(sample.rtt);
        }
        if self.in_recovery {
            return;
        }
        if self.in_slow_start() {
            self.hystart_update(sample);
            if self.in_slow_start() {
                self.cwnd += sample.acked as f64;
                return;
            }
        }
        let inc = self.cubic_increment(sample.now, sample.acked);
        self.cwnd += inc;
    }

    fn on_loss_event(&mut self, _event: &LossEvent) {
        if self.in_recovery {
            return;
        }
        self.in_recovery = true;
        self.epoch_start = None;
        // Fast convergence: if we are reducing from below the previous
        // W_max, shrink W_max further to release share.
        if self.cwnd < self.w_max {
            self.w_max = self.cwnd * (2.0 - BETA) / 2.0;
        } else {
            self.w_max = self.cwnd;
        }
        self.ssthresh = ((self.cwnd * BETA) as u64).max(MIN_CWND);
        self.cwnd = self.ssthresh as f64;
    }

    fn on_recovery_exit(&mut self, _now: SimTime) {
        self.in_recovery = false;
    }

    fn on_rto(&mut self, _now: SimTime, _inflight: u64) {
        self.epoch_start = None;
        self.w_max = self.cwnd;
        self.ssthresh = ((self.cwnd * BETA) as u64).max(MIN_CWND);
        self.cwnd = 1.0;
        self.in_recovery = false;
        // Reset HyStart so the post-RTO slow start can exit again.
        self.hystart_found = false;
    }

    fn cwnd(&self) -> u64 {
        (self.cwnd as u64).max(1)
    }

    fn wants_pacing(&self) -> bool {
        false // The pacing-enabled Cubic of Fig. 6 is built via `Master`.
    }

    fn pacing_rate(&self) -> Option<Bandwidth> {
        None
    }

    fn model_cost_cycles(&self) -> u64 {
        700
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::sample;
    use crate::AckSample;

    fn drive_acks(c: &mut Cubic, start_ms: u64, n: u64, rtt_ms: u64) -> u64 {
        // Ack one window per RTT, n RTTs.
        let mut delivered = 0u64;
        for i in 0..n {
            let w = c.cwnd();
            delivered += w;
            c.on_ack(&AckSample {
                prior_delivered: delivered.saturating_sub(w),
                ..sample(start_ms + i * rtt_ms, rtt_ms, 500, delivered, w, 0)
            });
        }
        c.cwnd()
    }

    #[test]
    fn slow_start_doubles() {
        let mut c = Cubic::new();
        let w0 = c.cwnd();
        c.on_ack(&sample(10, 10, 100, w0, w0, 0));
        assert_eq!(c.cwnd(), 2 * w0);
    }

    #[test]
    fn loss_reduces_by_beta() {
        let mut c = Cubic::new();
        drive_acks(&mut c, 0, 4, 10);
        let before = c.cwnd();
        c.on_loss_event(&LossEvent {
            now: SimTime::from_millis(100),
            inflight: before,
            lost: 1,
        });
        let after = c.cwnd();
        assert_eq!(after, ((before as f64 * BETA) as u64).max(MIN_CWND));
        assert!(after < before);
    }

    #[test]
    fn one_reduction_per_recovery_episode() {
        let mut c = Cubic::new();
        drive_acks(&mut c, 0, 5, 10);
        c.on_loss_event(&LossEvent {
            now: SimTime::from_millis(100),
            inflight: 100,
            lost: 1,
        });
        let w = c.cwnd();
        c.on_loss_event(&LossEvent {
            now: SimTime::from_millis(101),
            inflight: 100,
            lost: 3,
        });
        assert_eq!(c.cwnd(), w);
    }

    #[test]
    fn cubic_growth_is_concave_then_convex() {
        // After a loss, growth should first decelerate towards W_max then
        // accelerate past it — the defining cubic shape. With W_max ≈ 160,
        // K = ((W_max − 0.7·W_max)/0.4)^⅓ ≈ 4.9 s, so sample 16 s of
        // 100 ms RTTs to see both sides of the inflection.
        let mut c = Cubic::new();
        drive_acks(&mut c, 0, 4, 10); // grow to 160
        let peak = c.cwnd();
        c.on_loss_event(&LossEvent {
            now: SimTime::from_millis(100),
            inflight: peak,
            lost: 1,
        });
        c.on_recovery_exit(SimTime::from_millis(110));

        // Sample the window every RTT for a while.
        let mut windows = Vec::new();
        let mut delivered = 10_000u64;
        for i in 0..160 {
            let w = c.cwnd();
            delivered += w;
            c.on_ack(&AckSample {
                prior_delivered: delivered - w,
                ..sample(120 + i * 100, 100, 500, delivered, w, 0)
            });
            windows.push(c.cwnd());
        }
        // Recovers towards the old peak...
        assert!(
            *windows.last().unwrap() > peak,
            "should eventually exceed W_max"
        );
        // ...and the early growth rate shrinks before it grows again
        // (concave → convex inflection near W_max).
        let early_growth = windows[5].saturating_sub(windows[0]);
        let late_growth = windows
            .last()
            .unwrap()
            .saturating_sub(windows[windows.len() - 6]);
        assert!(
            late_growth > early_growth,
            "convex tail {late_growth} vs concave head {early_growth}"
        );
    }

    #[test]
    fn hystart_exits_slow_start_on_delay_increase() {
        let mut c = Cubic::new();
        // Establish a baseline RTT of 10 ms.
        let mut delivered = 0u64;
        for i in 0..2 {
            let w = c.cwnd();
            delivered += w;
            c.on_ack(&AckSample {
                prior_delivered: delivered - w,
                ..sample(i * 10, 10, 500, delivered, w, 0)
            });
        }
        assert!(c.in_slow_start());
        // Now RTT jumps to 25 ms (queue building). HyStart needs 8 RTT
        // samples within one packet-timed round; emulate a 30-packet pipe
        // (round boundary every 30 acks) so a clean all-25 ms round occurs.
        for i in 0..90 {
            delivered += 1;
            c.on_ack(&AckSample {
                prior_delivered: delivered.saturating_sub(30),
                ..sample(100 + i, 25, 500, delivered, 1, 30)
            });
            if !c.in_slow_start() {
                break;
            }
        }
        assert!(!c.in_slow_start(), "HyStart should have exited slow start");
        // And the exit was HyStart, not loss: cwnd == ssthresh.
        assert_eq!(c.cwnd(), c.ssthresh);
    }

    #[test]
    fn hystart_does_not_fire_below_low_window() {
        let mut c = Cubic::new();
        // cwnd = 10 < 16: even a big delay jump must not exit slow start.
        let mut delivered = 0;
        for i in 0..10 {
            delivered += 1;
            c.on_ack(&AckSample {
                prior_delivered: delivered - 1,
                ..sample(i, if i == 0 { 10 } else { 50 }, 100, delivered, 1, 5)
            });
        }
        assert!(c.in_slow_start());
    }

    #[test]
    fn rto_resets_to_one_and_rearms_hystart() {
        let mut c = Cubic::new();
        drive_acks(&mut c, 0, 5, 10);
        c.on_rto(SimTime::from_millis(200), 50);
        assert_eq!(c.cwnd(), 1);
        assert!(c.in_slow_start());
        assert!(!c.hystart_found);
    }

    #[test]
    fn fast_convergence_shrinks_wmax_on_consecutive_losses() {
        let mut c = Cubic::new();
        drive_acks(&mut c, 0, 6, 10);
        c.on_loss_event(&LossEvent {
            now: SimTime::from_millis(100),
            inflight: 100,
            lost: 1,
        });
        c.on_recovery_exit(SimTime::from_millis(110));
        let w_max_1 = c.w_max;
        // Lose again before regaining the previous W_max.
        c.on_loss_event(&LossEvent {
            now: SimTime::from_millis(120),
            inflight: 50,
            lost: 1,
        });
        assert!(c.w_max < w_max_1, "fast convergence must shrink W_max");
    }

    #[test]
    fn no_pacing_and_modest_model_cost() {
        let c = Cubic::new();
        assert!(!c.wants_pacing());
        assert_eq!(c.pacing_rate(), None);
        assert!(c.model_cost_cycles() < 1_000);
    }
}
