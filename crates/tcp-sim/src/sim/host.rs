//! The host: one modelled phone — its CPU and its media path — and the
//! send side of the stack that runs on it: the transmit path, RTO arming,
//! ACK processing, and the §7.1.2 auto-stride controller.

use super::path::{capture_data, Path};
use super::{Event, StackSim};
use crate::arena::FlowHot;
use crate::mutants::{self, Mutant};
use crate::pacing::{Pacer, GSO_MAX_BYTES};
use crate::receiver::AckInfo;
use crate::rtt::RttEstimator;
use crate::seq::PktSeq;
use congestion::master::Master;
use congestion::{bbr::HIGH_GAIN, AckSample, CongestionControl, LossEvent};
use cpu_model::Cpu;
use netsim::MSS;
use sim_core::event::EventQueue;
use sim_core::time::{SimDuration, SimTime};
use sim_core::trace::TraceKind;
use sim_core::units::Bandwidth;

/// Auto-stride controller epoch (§7.1.2 extension).
pub(super) const ADAPT_EPOCH: SimDuration = SimDuration::from_millis(300);

/// One device: the CPU every stack operation serialises on, and the
/// private media path its packets and ACKs walk. One entry in the classic
/// single-device mode, one per `DeviceSpec` in fleet mode;
/// `StackSim::device_of` maps connection id → device id and is all-zeros
/// without a fleet.
pub(super) struct Device {
    pub(super) cpu: Cpu,
    pub(super) path: Path,
}

/// The effective pacing rate for a connection: the CC's rate, else
/// TCP's internal fallback `1.2 × mss·cwnd/srtt` (§5.2.2), else the
/// pre-RTT bootstrap (`init_cwnd/1 ms`, as the kernel does).
fn effective_pacing_rate(cc: &Master, rtt: &RttEstimator, pacer: &Pacer) -> Bandwidth {
    if let Some(rate) = cc.pacing_rate() {
        return rate;
    }
    let cwnd = cc.cwnd();
    if let Some(srtt) = rtt.srtt() {
        let fb = pacer.fallback_rate(cwnd, srtt);
        if !fb.is_zero() {
            return fb;
        }
    }
    Bandwidth::from_bytes_over(cwnd * MSS, SimDuration::from_millis(1)).mul_f64(HIGH_GAIN)
}

/// §7.1.2 extension: the host-global auto-stride controller (the stride
/// is a host-wide knob, as the paper's kernel patch would expose via
/// sysctl). It combines two signals:
///
/// * **direction** comes from the mechanism: while the CPU is
///   saturated, coarser pacing amortises timer overhead (the rising
///   side of Fig. 8); with CPU slack, finer pacing is free goodput and
///   lower RTT (the falling side);
/// * **commitment** comes from outcomes: after each move and a
///   settling cooldown (BBR's model needs ~a second to grow into new
///   headroom), the move is kept only if delivered goodput did not
///   regress — otherwise it is reverted and the controller holds,
///   which parks it at the Fig. 8 optimum instead of limit-cycling
///   around it.
pub(super) struct StrideController {
    /// Whether the epoch event stream has been started.
    pub(super) armed: bool,
    /// Moves made in the direction CPU utilisation pointed, and moves taken
    /// back because they hurt delivered goodput (both reported as counters).
    pub(super) adaptations: u64,
    pub(super) reverts: u64,
    epochs: u32,
    prev_busy: SimDuration,
    prev_delivered: u64,
    cooldown: u32,
    hold: u32,
    pending_eval: bool,
    pre_change_rate: f64,
    pre_change_stride: u64,
    ceiling: u64,
    floor: u64,
}

impl StrideController {
    pub(super) const fn new() -> Self {
        StrideController {
            armed: false,
            adaptations: 0,
            reverts: 0,
            epochs: 0,
            prev_busy: SimDuration::ZERO,
            prev_delivered: 0,
            cooldown: 0,
            hold: 0,
            pending_eval: false,
            pre_change_rate: 0.0,
            pre_change_stride: 1,
            ceiling: 64,
            floor: 1,
        }
    }

    /// Turn the host's cumulative CPU busy time and delivered-packet count
    /// into this epoch's `(util, delivered_delta)`. Epoch-level
    /// utilisation: trailing-window snapshots are far too noisy under
    /// bursty pacing.
    fn deltas(&mut self, busy: SimDuration, delivered: u64) -> (f64, f64) {
        let util = busy.saturating_sub(self.prev_busy) / ADAPT_EPOCH;
        self.prev_busy = busy;
        let delivered_delta = (delivered - self.prev_delivered) as f64;
        self.prev_delivered = delivered;
        (util, delivered_delta)
    }

    /// One controller epoch: given the epoch's CPU utilisation, its
    /// delivered-packet count and the stride in force, return the stride to
    /// move to, if any. Touches nothing but the controller's own state.
    pub(super) fn epoch(&mut self, util: f64, delivered_delta: f64, cur: u64) -> Option<u64> {
        self.epochs += 1;
        if self.epochs <= 3 {
            return None;
        }
        if self.cooldown > 0 {
            self.cooldown -= 1;
            return None;
        }
        if self.pending_eval {
            self.pending_eval = false;
            // An up-move was justified by CPU saturation, so it must *pay*
            // in delivered goodput to be kept; a down-move was justified by
            // idle headroom and merely must not regress.
            let went_up = cur > self.pre_change_stride;
            let keep_floor = if went_up { 1.02 } else { 0.97 };
            if delivered_delta < self.pre_change_rate * keep_floor {
                // The move hurt: revert, and permanently fence off that
                // direction past the reverted-from point — a one-shot
                // search that parks at the optimum instead of limit-
                // cycling around it.
                if went_up {
                    self.ceiling = self.pre_change_stride;
                } else {
                    self.floor = self.pre_change_stride;
                }
                self.hold = 12;
                self.cooldown = 2;
                self.reverts += 1;
                return Some(self.pre_change_stride);
            }
            // Committed: fall through and consider the next move.
        }
        if self.hold > 0 {
            self.hold -= 1;
            return None;
        }
        let next = if util > 0.92 {
            (cur * 2).min(self.ceiling)
        } else if util < 0.70 {
            (cur / 2).max(self.floor)
        } else {
            cur
        };
        if next == cur {
            return None;
        }
        self.pre_change_rate = delivered_delta;
        self.pre_change_stride = cur;
        self.pending_eval = true;
        self.cooldown = 3;
        self.adaptations += 1;
        Some(next)
    }
}

impl StackSim {
    pub(super) fn try_send(&mut self, c: usize, now: SimTime, from_timer: bool) {
        let dev = self.device_of[c] as usize;
        // Timer expiration costs CPU whether or not data flows (§6.1: the
        // callbacks "continually reschedule connections to be processed").
        let mut pre_cycles = 0u64;
        if from_timer {
            // Mutant M1: the fire is counted but its cycles are never
            // charged — the exact cost the paper's finding rests on.
            // Breaks `cycles[timers] == fires·c_fire + arms·c_arm`.
            if !mutants::is(Mutant::SkipTimerFireCharge) {
                pre_cycles += self.cfg.cost.timer_fire;
            }
            self.tallies.timer_fires += 1;
            self.trace
                .record(now, TraceKind::PacingFire, c as u32, 0, 0);
        }

        if !self.arena.hot[c].started {
            return;
        }
        // TSQ: at most 2 buffers per socket in the device path; the
        // DeviceDone completion re-enters this function.
        if self.arena.hot[c].device_chunks >= 2 {
            if pre_cycles > 0 {
                self.devices[dev]
                    .cpu
                    .execute_tagged(now, pre_cycles, "timers");
            }
            return;
        }
        let pacing = self.arena.paces(c);
        let rate =
            effective_pacing_rate(&self.arena.cc[c], &self.arena.rtt[c], &self.arena.pacer[c]);

        // Between pacing periods the gate must be open before anything
        // can happen; the new period itself is only *opened* (EDT clock
        // advanced, budget granted) once we know a send will occur, so a
        // cwnd-blocked wakeup never wastes a period.
        //
        // Eligibility is computed branchlessly (bitwise `&` over pure
        // predicates, no short-circuit jumps): this gate runs once per ACK
        // and once per timer fire, and its three inputs are near-free loads,
        // so one well-predicted test beats three data-dependent branches.
        let gate_closed =
            pacing & (self.arena.hot[c].burst_remaining == 0) & !self.arena.pacer[c].can_send(now);
        if gate_closed {
            if pre_cycles > 0 {
                self.devices[dev]
                    .cpu
                    .execute_tagged(now, pre_cycles, "timers");
            }
            if !self.arena.hot[c].pacing_timer_armed {
                self.arena.hot[c].pacing_timer_armed = true;
                let at = self.arena.pacer[c].next_release().max(now);
                self.trace
                    .record(now, TraceKind::TimerArm, c as u32, at.as_nanos(), 0);
                self.queue.schedule_at(at, Event::PacingTimer(c as u32));
            }
            return;
        }

        // One autosized chunk per invocation; a strided burst continues via
        // a chained event so concurrent flows contend for the CPU between
        // chunks (as softirq round-robins sockets on a real phone).
        let max_pkts = if pacing {
            let budget = if self.arena.hot[c].burst_remaining > 0 {
                self.arena.hot[c].burst_remaining
            } else {
                self.arena.pacer[c].burst_segs(rate)
            };
            self.arena.pacer[c].autosize_segs(rate).min(budget)
        } else {
            (GSO_MAX_BYTES / MSS).max(1)
        };
        let cwnd = self.arena.cc[c].cwnd();
        // One scratch plan serves every send: take it out of `self` (so the
        // arena borrows stay disjoint) and put it back on every exit.
        let mut plan = std::mem::take(&mut self.plan_scratch);
        if !self.arena.board[c].plan_send_into(cwnd, max_pkts, &mut plan) {
            // cwnd-limited (or nothing to retransmit): the ACK clock will
            // wake us. Spurious timer fires still cost cycles.
            self.plan_scratch = plan;
            if pre_cycles > 0 {
                self.devices[dev]
                    .cpu
                    .execute_tagged(now, pre_cycles, "timers");
            }
            return;
        }

        if pacing && self.arena.hot[c].burst_remaining == 0 {
            // Open the new pacing period: grant the stride x autosize
            // budget ("more data per pacing period", Sec. 6.2). The EDT
            // gate advances per actual chunk sent, below; if the socket-
            // buffer cap cut the budget, the idle residue is charged now
            // (Eq. 2's full idle applies even to a capped period).
            self.arena.hot[c].burst_remaining = self.arena.pacer[c].burst_segs(rate);
            self.arena.pacer[c].charge_cap_deficit(now, rate);
            pre_cycles += self.cfg.cost.timer_arm;
            self.tallies.timer_arms += 1;
            // Table 2 statistics: finalise the previous period's buffer.
            let cold = &mut self.arena.cold[c];
            if cold.cur_period_bytes > 0 {
                cold.period_bytes_sum += cold.cur_period_bytes;
                cold.period_count += 1;
                cold.cur_period_bytes = 0;
            }
        }

        let pkts = plan.packets();
        let bytes = pkts * MSS;
        // Mutant M3: retransmissions silently missing from the counter,
        // which then diverges from the scoreboard's own `total_retx`.
        if plan.is_retx && !mutants::is(Mutant::SkipRetxCount) {
            self.tallies.retx_pkts += pkts;
        }
        // A send released after the pacer's gate drained the whole flight:
        // the delivery-rate sample bridging that gap measures our own
        // (possibly strided) pacer, not the path.
        let pacing_limited =
            pacing & (self.arena.pacer[c].stride() > 1) & (self.arena.board[c].packets_out() == 0);

        // Charge the CPU by category so reports can show where the cycles
        // went (the whole chunk still serialises as one back-to-back span).
        if pre_cycles > 0 {
            self.devices[dev]
                .cpu
                .execute_tagged(now, pre_cycles, "timers");
        }
        if plan.is_retx {
            self.devices[dev]
                .cpu
                .execute_tagged(now, self.cfg.cost.retransmit_fixed, "retransmit");
        }
        self.devices[dev]
            .cpu
            .execute_tagged(now, self.cfg.cost.skb_xmit_fixed, "skb-fixed");
        let done =
            self.devices[dev]
                .cpu
                .execute_tagged(now, self.cfg.cost.per_byte * bytes, "bytes");

        // TCP stamps the segment when it is *built* (`tcp_transmit_skb`),
        // before the copy/checksum/driver work completes: a backlogged CPU
        // therefore inflates the RTT TCP measures, which is exactly the
        // Table 2 effect (3.7 ms at 1x falling to ~1.1 ms at good strides).
        self.arena.board[c].on_sent(
            &mut self.arena.store,
            &mut self.arena.rate[c],
            &plan,
            now,
            pacing_limited,
        );
        {
            let cold = &mut self.arena.cold[c];
            cold.skb_bytes_sum += bytes;
            cold.skb_count += 1;
            cold.cur_period_bytes += bytes;
        }
        if pacing {
            // Advance the EDT gate by the bytes actually sent (Eq. 1 x
            // Eq. 2): a cwnd-clipped chunk charges only its own length.
            self.arena.pacer[c].on_send(now, bytes, rate);
            self.arena.hot[c].burst_remaining =
                self.arena.hot[c].burst_remaining.saturating_sub(pkts);
        }
        self.tallies.skbs_sent += 1;
        self.tallies.pkts_sent += pkts;
        let tx_kind = if plan.is_retx {
            TraceKind::SegRetx
        } else {
            TraceKind::SegTx
        };
        self.trace.record(now, tx_kind, c as u32, pkts, bytes);

        // Wire transmission: the CPU prepares the whole buffer (charged
        // above), then the NIC/adapter bursts its packets at line rate —
        // which is exactly what floods a shallow droptail queue (§5.2.3).
        // Each MSS packet walks the path individually. GRO at the server
        // aggregates the chunk into one delivery event at its last
        // packet's arrival.
        let mut accepted_runs = self.run_pool.take();
        let mut last_arrival = SimTime::ZERO;
        let mut accepted_pkts = 0u64;
        let path = &mut self.devices[dev].path;
        for &(lo, hi) in &plan.runs {
            for seq in lo.0..hi.0 {
                let shared = self.shared_link.as_mut();
                let Some(arrival) = path.forward(shared, &mut self.tallies, done, c as u64) else {
                    continue;
                };
                last_arrival = last_arrival.max(arrival);
                accepted_pkts += 1;
                match accepted_runs.last_mut() {
                    Some((_, h)) if h.0 == seq => *h = PktSeq(seq + 1),
                    _ => accepted_runs.push((PktSeq(seq), PktSeq(seq + 1))),
                }
                if let Some(pcap) = self.pcap.as_mut() {
                    capture_data(pcap, c, done, PktSeq(seq));
                }
            }
        }
        if accepted_runs.is_empty() {
            self.run_pool.put(accepted_runs);
        } else {
            let runs = self.run_slots.stash(accepted_runs);
            self.queue.schedule_at(
                last_arrival,
                Event::SkbArrival {
                    conn: c as u32,
                    runs,
                },
            );
        }
        self.plan_scratch = plan;

        self.arena.hot[c].accepted_pkts += accepted_pkts;
        // Arm/refresh the RTO.
        if self.arena.hot[c].rto_timer.is_none() {
            Self::arm_rto(
                &mut self.queue,
                &mut self.arena.hot[c],
                &self.arena.rtt[c],
                c,
                done,
            );
        }

        // The buffer occupies the device path until `done`; its completion
        // (TSQ) drives burst continuation and unpaced window draining.
        self.arena.hot[c].device_chunks += 1;
        self.arena.hot[c].device_bytes += bytes;
        self.queue.schedule_at(
            done,
            Event::DeviceDone {
                conn: c as u32,
                bytes,
            },
        );
        // §7.1.1 memory proxy: retransmission scoreboard + device backlog.
        let mem = self.arena.board[c].packets_out() * MSS + self.arena.hot[c].device_bytes;
        let hot = &mut self.arena.hot[c];
        hot.mem_peak_bytes = hot.mem_peak_bytes.max(mem);

        if pacing && hot.burst_remaining == 0 && !hot.pacing_timer_armed {
            hot.pacing_timer_armed = true;
            // Mutant M4: every 64th arm is silently lost — the flow
            // believes a timer is pending but none ever fires (the
            // lost-wakeup bug class; only the ACK clock can revive it).
            if mutants::is(Mutant::DropPacingArm) && mutants::drop_this_arm() {
                return;
            }
            let at = self.arena.pacer[c].next_release().max(done);
            self.trace
                .record(now, TraceKind::TimerArm, c as u32, at.as_nanos(), 0);
            self.queue.schedule_at(at, Event::PacingTimer(c as u32));
        }
    }

    fn arm_rto(
        queue: &mut EventQueue<Event>,
        hot: &mut FlowHot,
        rtt: &RttEstimator,
        c: usize,
        now: SimTime,
    ) {
        if let Some(tok) = hot.rto_timer.take() {
            queue.cancel(tok);
        }
        let backoff = 1u64 << hot.rto_backoff.min(6);
        let rto = rtt.rto() * backoff;
        hot.rto_timer = Some(queue.schedule_at(now + rto, Event::RtoFire(c as u32)));
    }

    /// Process one ACK: charge the CPU, update the scoreboard, feed the
    /// congestion controller, re-arm the RTO, and try to send again.
    pub(super) fn on_ack_arrival(&mut self, c: usize, now: SimTime, ack: AckInfo) {
        let dev = self.device_of[c] as usize;
        // Phone-side ACK processing cost: generic path + the CC's model.
        self.devices[dev]
            .cpu
            .execute_tagged(now, self.cfg.cost.ack_process, "acks");
        let done = self.devices[dev].cpu.execute_tagged(
            now,
            self.arena.cc[c].model_cost_cycles(),
            "cc-model",
        );
        self.tallies.acks_processed += 1;

        let outcome = self.arena.board[c].on_ack(
            &mut self.arena.store,
            &mut self.arena.rtt[c],
            &mut self.arena.rate[c],
            &ack,
            done,
        );
        if self.trace.is_enabled() {
            let rtt_ns = outcome.rtt_sample.map(SimDuration::as_nanos).unwrap_or(0);
            self.trace.record(
                done,
                TraceKind::AckRx,
                c as u32,
                outcome.newly_delivered * MSS,
                rtt_ns,
            );
        }

        if let Some(rtt) = outcome.rtt_sample {
            if self.measuring {
                let cold = &mut self.arena.cold[c];
                cold.rtt_summary.record(rtt.as_millis_f64());
                cold.rtt_hist.record(rtt.as_millis_f64());
            }
        }

        if outcome.recovery_entered {
            self.arena.cc[c].on_loss_event(&LossEvent {
                now: done,
                inflight: self.arena.board[c].packets_in_flight(),
                lost: outcome.newly_lost,
            });
            self.tallies.recovery_entries += 1;
        }

        if outcome.newly_delivered > 0 {
            let sample = AckSample {
                now: done,
                rtt: outcome
                    .rtt_sample
                    .or(self.arena.rtt[c].latest())
                    .unwrap_or(SimDuration::ZERO),
                delivery_rate: outcome
                    .rate_sample
                    .map(|r| r.rate)
                    .unwrap_or(Bandwidth::ZERO),
                delivered: self.arena.rate[c].delivered(),
                prior_delivered: outcome.prior_delivered,
                acked: outcome.newly_delivered,
                lost: outcome.newly_lost,
                inflight: self.arena.board[c].packets_in_flight(),
                app_limited: outcome.pacing_limited,
                in_recovery: self.arena.board[c].in_recovery(),
            };
            self.arena.cc[c].on_ack(&sample);
            self.arena.hot[c].rto_backoff = 0;
        }

        if outcome.recovery_exited {
            self.arena.cc[c].on_recovery_exit(done);
            self.tallies.recovery_exits += 1;
        }

        // Flight-recorder view of the CC's outputs: record transitions
        // only, so a converged model costs nothing but the comparisons.
        if self.trace.is_enabled() {
            let cwnd = self.arena.cc[c].cwnd();
            if cwnd != self.arena.cold[c].last_cwnd {
                self.arena.cold[c].last_cwnd = cwnd;
                self.trace
                    .record(done, TraceKind::CwndUpdate, c as u32, cwnd, 0);
            }
            let rate = self.arena.cc[c]
                .pacing_rate()
                .map(|r| r.as_bps())
                .unwrap_or(0);
            if rate != self.arena.cold[c].last_rate_bps {
                self.arena.cold[c].last_rate_bps = rate;
                self.trace
                    .record(done, TraceKind::PacingRate, c as u32, rate, 0);
            }
            let phase = self.arena.cc[c].phase();
            if phase != self.arena.cold[c].last_phase {
                let from = self.trace.intern(self.arena.cold[c].last_phase);
                let to = self.trace.intern(phase);
                self.arena.cold[c].last_phase = phase;
                self.trace
                    .record(done, TraceKind::CcPhase, c as u32, from, to);
            }
        }

        // Re-arm (or disarm) the RTO from this ACK.
        if self.arena.board[c].has_outstanding() {
            Self::arm_rto(
                &mut self.queue,
                &mut self.arena.hot[c],
                &self.arena.rtt[c],
                c,
                done,
            );
        } else if let Some(tok) = self.arena.hot[c].rto_timer.take() {
            self.queue.cancel(tok);
        }

        self.sack_pool.put(ack.sacks);
        self.try_send(c, done, false);
    }

    pub(super) fn on_rto(&mut self, c: usize, now: SimTime) {
        // Every re-arm and disarm cancels the pending fire, so the one that
        // popped is always the flow's pending timer.
        let fired = self.arena.hot[c].rto_timer.take();
        debug_assert!(fired.is_some(), "stale RtoFire for connection {c}");
        if !self.arena.board[c].has_outstanding() {
            return;
        }
        let cpu = &mut self.devices[self.device_of[c] as usize].cpu;
        let done = cpu.execute_tagged(now, self.cfg.cost.rto_process, "rto");
        self.tallies.rto_fires += 1;
        let marked = self.arena.board[c].on_rto(&mut self.arena.store);
        self.tallies.rto_marked_lost += marked;
        let inflight = self.arena.board[c].packets_in_flight();
        self.arena.cc[c].on_rto(done, inflight);
        self.arena.hot[c].rto_backoff += 1;
        self.trace.record(
            done,
            TraceKind::RtoFire,
            c as u32,
            u64::from(self.arena.hot[c].rto_backoff),
            0,
        );
        Self::arm_rto(
            &mut self.queue,
            &mut self.arena.hot[c],
            &self.arena.rtt[c],
            c,
            done,
        );
        self.try_send(c, done, false);
    }

    /// `AdaptStride`: step the controller, apply its move to every pacer,
    /// and schedule the next epoch. Host-global by design — the builder
    /// rejects auto-stride in fleet mode, so device 0 is the host.
    pub(super) fn adapt_stride(&mut self, now: SimTime) {
        let busy = self.devices[0].cpu.busy_time();
        let delivered: u64 = self.arena.rate.iter().map(|r| r.delivered()).sum();
        let (util, delivered_delta) = self.stride.deltas(busy, delivered);
        let cur = self.arena.pacer[0].stride();
        if let Some(to) = self.stride.epoch(util, delivered_delta, cur) {
            for pacer in &mut self.arena.pacer {
                pacer.set_stride(to);
            }
            self.trace.record(now, TraceKind::StrideAdapt, 0, cur, to);
        }
        self.queue
            .schedule_at(now + ADAPT_EPOCH, Event::AdaptStride);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A controller past its three warm-up epochs, which never move.
    fn warmed_up() -> StrideController {
        let mut c = StrideController::new();
        for _ in 0..3 {
            assert_eq!(c.epoch(1.0, 100.0, 1), None);
        }
        c
    }

    #[test]
    fn saturated_cpu_doubles_and_a_regress_reverts_and_fences_the_ceiling() {
        let mut c = warmed_up();
        assert_eq!(c.epoch(0.95, 100.0, 1), Some(2));
        // Three settling epochs, then the verdict: an up-move must pay 2 %
        // in delivered goodput, and 101 against 100 does not.
        for _ in 0..3 {
            assert_eq!(c.epoch(0.95, 101.0, 2), None);
        }
        assert_eq!(c.epoch(0.95, 101.0, 2), Some(1));
        assert_eq!((c.adaptations, c.reverts), (1, 1));
        // Two cooldown epochs and a twelve-epoch hold follow a revert…
        for _ in 0..14 {
            assert_eq!(c.epoch(0.95, 100.0, 1), None);
        }
        // …and the reverted-from direction stays fenced: still saturated,
        // but 1 is now the ceiling.
        for _ in 0..5 {
            assert_eq!(c.epoch(0.95, 100.0, 1), None);
        }
    }

    #[test]
    fn an_up_move_that_pays_is_kept_and_followed_by_the_next() {
        let mut c = warmed_up();
        assert_eq!(c.epoch(0.95, 100.0, 1), Some(2));
        for _ in 0..3 {
            assert_eq!(c.epoch(0.95, 110.0, 2), None);
        }
        // 110 ≥ 1.02 × 100: committed, and still saturated, so on to 4.
        assert_eq!(c.epoch(0.95, 110.0, 2), Some(4));
    }

    #[test]
    fn idle_cpu_halves_to_the_floor() {
        let mut c = warmed_up();
        assert_eq!(c.epoch(0.50, 100.0, 4), Some(2));
        for _ in 0..3 {
            assert_eq!(c.epoch(0.50, 100.0, 2), None);
        }
        // A down-move merely must not regress (≥ 0.97×): kept, next halving.
        assert_eq!(c.epoch(0.50, 98.0, 2), Some(1));
        for _ in 0..3 {
            assert_eq!(c.epoch(0.50, 98.0, 1), None);
        }
        // Stride 1 is the floor: idle or not, nowhere left to go.
        for _ in 0..5 {
            assert_eq!(c.epoch(0.50, 98.0, 1), None);
        }
        // In the band between the thresholds nothing moves either.
        assert_eq!(warmed_up().epoch(0.80, 100.0, 4), None);
    }
}
