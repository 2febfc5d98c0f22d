//! Replay kernels: for each leaf layer, a loop that drives the layer's
//! public functions with the op mix a workload's own counters report, and
//! yields host nanoseconds per op.
//!
//! Kernels run cache-hot and alone, so `ns_per_op × ops` is a *lower
//! bound* on what the layer costs inside the simulator's event loop; the
//! remainder (dispatch, glue, cache misses) is `sim.residual_share`.

use crate::stats::median;
use congestion::master::{Master, MasterConfig};
use congestion::{AckSample, CcKind, CongestionControl, LossEvent};
use cpu_model::{CostModel, Cpu, CpuConfig, DeviceProfile};
use netsim::netem::{Netem, NetemConfig};
use netsim::{wire_bytes, BottleneckLink, LinkConfig, Qdisc, MSS};
use sim_core::event::EventQueue;
use sim_core::metrics::Histogram;
use sim_core::time::{SimDuration, SimTime};
use sim_core::units::Bandwidth;
use sim_core::SimRng;
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;
use tcp_sim::receiver::{AckInfo, Receiver};
use tcp_sim::sender::SendPlan;
use tcp_sim::seq::PktSeq;
use tcp_sim::{FlowArena, FlowId, Pacer, PacingConfig};

/// Queue disciplines in the order per-qdisc arrays use.
pub const QDISCS: [Qdisc; 3] = [Qdisc::Fifo, Qdisc::Codel, Qdisc::FqCodel];

/// What the kernels need to know about a workload, summed over its
/// census cells' `SimResult.counters` and configs.
#[derive(Debug, Clone, PartialEq)]
pub struct OpMix {
    /// `wheel_scheduled`.
    pub wheel_scheduled: u64,
    /// `wheel_cancelled`.
    pub wheel_cancelled: u64,
    /// `wheel_popped`.
    pub wheel_popped: u64,
    /// Largest `wheel_pending` of any cell: the wheel's timer population.
    pub wheel_pending: u64,
    /// `acks_processed`.
    pub acks: u64,
    /// `recovery_entries`.
    pub recoveries: u64,
    /// Most connections any one cell ran.
    pub flows: usize,
    /// CPU configuration of the cell that processed the most ACKs.
    pub cpu_config: CpuConfig,
}

/// Timed repetitions per kernel; the median is reported.
const REPS: usize = 5;
/// Ops per repetition: enough that one repetition outlasts timer
/// granularity and scheduler blips (≈5–40 ms each).
const OPS: u64 = 200_000;

/// Median ns/op over [`REPS`] runs of `kernel`, which returns the
/// elapsed nanoseconds and the ops it performed.
fn ns_per_op(mut kernel: impl FnMut() -> (u64, u64)) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let (ns, ops) = kernel();
            ns as f64 / ops.max(1) as f64
        })
        .collect();
    median(&samples)
}

fn elapsed_ns(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// `sim-core::event`: pop, schedule and cancel in the workload's ratio, at
/// the workload's timer population. Cancels re-arm long RTO-like timers;
/// the other schedules are short (ACK coalescing, device completion,
/// packet arrival).
fn event_kernel(mix: &OpMix, rng: &mut SimRng) -> (u64, u64) {
    let pops = mix.wheel_popped.max(1) as f64;
    let sched_per_pop = (mix.wheel_scheduled as f64 / pops).max(1.0);
    let cancel_per_pop = mix.wheel_cancelled as f64 / pops;
    let population = mix.wheel_pending.clamp(64, 1 << 16);
    let short = |rng: &mut SimRng| SimDuration::from_nanos(1_000 + rng.below(2_000_000));
    let long = |rng: &mut SimRng| SimDuration::from_nanos(200_000_000 + rng.below(50_000_000));

    let mut q: EventQueue<u32> = EventQueue::new();
    let mut rtos = VecDeque::new();
    for _ in 0..mix.flows.max(1) {
        rtos.push_back(q.schedule_after(long(rng), 1));
    }
    for _ in 0..population {
        q.schedule_after(short(rng), 0);
    }
    let (mut sched_due, mut cancel_due) = (0.0f64, 0.0f64);
    let mut ops = 0u64;
    let t0 = Instant::now();
    while ops < OPS {
        if let Some(ev) = q.pop() {
            black_box(ev.event);
            ops += 1;
        }
        sched_due += sched_per_pop;
        cancel_due += cancel_per_pop;
        while cancel_due >= 1.0 {
            cancel_due -= 1.0;
            sched_due -= 1.0;
            if let Some(tok) = rtos.pop_front() {
                ops += u64::from(q.cancel(tok));
            }
            rtos.push_back(q.schedule_after(long(rng), 1));
            ops += 1;
        }
        while sched_due >= 1.0 {
            sched_due -= 1.0;
            q.schedule_after(short(rng), 0);
            ops += 1;
        }
    }
    (elapsed_ns(t0), ops)
}

/// `cpu-model`: the tagged charges one ACK and one send make, on the
/// workload's dominant CPU configuration (governor ticks included when
/// that configuration is dynamic).
fn cpu_kernel(mix: &OpMix) -> (u64, u64) {
    let profile = DeviceProfile::pixel4();
    let cost = CostModel::mobile_default();
    let mut cpu = Cpu::new(profile.topology.clone(), profile.policy(mix.cpu_config));
    let charges = [
        (cost.ack_process, "acks"),
        (cost.timer_fire, "timers"),
        (cost.skb_xmit_fixed, "skb-fixed"),
        (cost.per_byte * 10 * MSS, "bytes"),
    ];
    let mut now = SimTime::ZERO;
    let mut next_tick = cpu.governor_tick(now);
    let t0 = Instant::now();
    for i in 0..OPS {
        now += SimDuration::from_micros(20);
        if next_tick.is_some_and(|due| now >= due) {
            next_tick = cpu.governor_tick(now);
        }
        let (cycles, tag) = charges[(i % 4) as usize];
        black_box(cpu.execute_tagged(now, cycles, tag));
    }
    (elapsed_ns(t0), OPS)
}

/// `netsim::link` under one qdisc: GSO-sized bursts from 20 flows offered
/// 2% above line rate, so the queue fills and the drop path runs too.
fn link_kernel(qdisc: Qdisc) -> (u64, u64) {
    const BURST: u64 = 44;
    let rate = Bandwidth::from_gbps(1);
    let config = LinkConfig::new(rate, SimDuration::from_micros(350), 600).with_qdisc(qdisc);
    let mut link = BottleneckLink::new(config);
    let wire = wire_bytes(MSS);
    let gap = rate.time_to_send(BURST * wire).mul_f64(1.0 / 1.02);
    let mut now = SimTime::ZERO;
    let t0 = Instant::now();
    for burst in 0..OPS / BURST {
        now += gap;
        for _ in 0..BURST {
            black_box(link.send_flow(now, wire, burst % 20));
        }
    }
    (elapsed_ns(t0), OPS / BURST * BURST)
}

/// `netsim::netem` with 1% loss and jitter (a no-op netem is a few
/// arithmetic instructions and is not worth a kernel).
fn netem_kernel(rng: &SimRng) -> (u64, u64) {
    let config = NetemConfig::none()
        .with_loss(0.01)
        .with_delay(SimDuration::from_millis(1), SimDuration::from_micros(200));
    let mut netem = Netem::new(config, rng.split(1));
    let wire = wire_bytes(MSS);
    let mut now = SimTime::ZERO;
    let t0 = Instant::now();
    for _ in 0..OPS {
        now += SimDuration::from_micros(12);
        black_box(netem.process(now, wire));
    }
    (elapsed_ns(t0), OPS)
}

/// `congestion`: one controller behind the master module, fed a steady
/// ACK stream with the workload's recovery frequency, followed each time
/// by the four getter calls the stack's CC-output snapshot makes.
fn cc_kernel(kind: CcKind, mix: &OpMix, rng: &mut SimRng) -> (u64, u64) {
    let mut cc = Master::new(kind.build(MSS), MasterConfig::passthrough());
    // ACKs between fast-recovery entries; never below a window's worth.
    let loss_every = match mix.recoveries {
        0 => u64::MAX,
        n => (mix.acks / n).max(50),
    };
    let mut now = SimTime::ZERO;
    let mut delivered = 0u64;
    let mut recovering = 0u32;
    let t0 = Instant::now();
    for i in 0..OPS {
        now += SimDuration::from_micros(100);
        let jitter = rng.next();
        let acked = 2 + jitter % 9;
        delivered += acked;
        let inflight = cc.cwnd().min(256);
        if i % loss_every == loss_every - 1 {
            cc.on_loss_event(&LossEvent {
                now,
                inflight,
                lost: 3,
            });
            recovering = 8;
        }
        cc.on_ack(&AckSample {
            now,
            rtt: SimDuration::from_micros(1_000 + (jitter >> 8) % 500),
            delivery_rate: Bandwidth::from_mbps(400 + (jitter >> 20) % 200),
            delivered,
            prior_delivered: delivered.saturating_sub(inflight),
            acked,
            lost: 0,
            inflight,
            app_limited: false,
            in_recovery: recovering > 0,
        });
        if recovering > 0 {
            recovering -= 1;
            if recovering == 0 {
                cc.on_recovery_exit(now);
            }
        }
        black_box((
            cc.cwnd(),
            cc.pacing_rate(),
            cc.model_cost_cycles(),
            cc.wants_pacing(),
        ));
    }
    (elapsed_ns(t0), OPS)
}

/// Host time and op counts of one sender↔receiver loopback run.
#[derive(Default)]
struct Loopback {
    send_ns: u64,
    sends: u64,
    rx_ns: u64,
    rx_pkts: u64,
    clean_ns: u64,
    clean_acks: u64,
    sack_ns: u64,
    sack_acks: u64,
}

/// `tcp-sim::arena` + `receiver`: every flow sends one buffer per round
/// into its receiver, which acknowledges it; `loss` drops packets on the
/// way so SACK blocks, RACK marking and retransmit planning run. Each
/// phase is timed as one block over all flows; ACKs are split into those
/// that carry SACK blocks or land in recovery and those that do not.
// Every loop walks several parallel per-flow arrays by flow index.
#[allow(clippy::needless_range_loop)]
fn loopback(flows: usize, loss: f64, rng: &mut SimRng) -> Loopback {
    const CWND: u64 = 64;
    const SKB_PKTS: u64 = 16;
    /// Rounds a flow may sit blocked before its RTO is fired for it.
    const RTO_ROUNDS: u32 = 3;
    let flows = flows.clamp(1, 1024);
    let rounds = (OPS as usize / flows).max(20);
    let mut arena = FlowArena::new(flows, MSS, PacingConfig::default(), |_| {
        Master::new(CcKind::Cubic.build(MSS), MasterConfig::passthrough())
    });
    let mut rx: Vec<Receiver> = (0..flows).map(|_| Receiver::new()).collect();
    let mut plans: Vec<SendPlan> = (0..flows).map(|_| SendPlan::default()).collect();
    let mut arrived: Vec<Vec<(PktSeq, PktSeq)>> = vec![Vec::new(); flows];
    let mut acks: Vec<AckInfo> = (0..flows)
        .map(|_| AckInfo {
            cum: PktSeq::ZERO,
            sacks: Vec::new(),
        })
        .collect();
    let mut blocked = vec![0u32; flows];
    let (mut clean, mut sack) = (Vec::new(), Vec::new());
    let mut out = Loopback::default();
    let mut now = SimTime::ZERO;
    for _ in 0..rounds {
        now += SimDuration::from_millis(1);

        let t0 = Instant::now();
        for f in 0..flows {
            let id = FlowId(f as u32);
            if arena.plan_send_into(id, CWND, SKB_PKTS, &mut plans[f]) {
                arena.on_sent(id, &plans[f], now, false);
                out.sends += 1;
            }
        }
        out.send_ns += elapsed_ns(t0);

        // The wire (untimed): drop packets, coalesce survivors into runs.
        for f in 0..flows {
            arrived[f].clear();
            if plans[f].runs.is_empty() {
                blocked[f] += 1;
                if blocked[f] >= RTO_ROUNDS && arena.scoreboard(FlowId(f as u32)).has_outstanding()
                {
                    arena.on_rto(FlowId(f as u32));
                    blocked[f] = 0;
                }
                continue;
            }
            blocked[f] = 0;
            for &(lo, hi) in &plans[f].runs {
                for seq in lo.0..hi.0 {
                    if loss > 0.0 && rng.chance(loss) {
                        continue;
                    }
                    match arrived[f].last_mut() {
                        Some((_, h)) if h.0 == seq => *h = PktSeq(seq + 1),
                        _ => arrived[f].push((PktSeq(seq), PktSeq(seq + 1))),
                    }
                }
            }
        }

        let t0 = Instant::now();
        for f in 0..flows {
            for &(lo, hi) in &arrived[f] {
                black_box(rx[f].on_data(lo, hi));
                out.rx_pkts += hi.since(lo);
            }
            rx[f].build_ack_into(&mut acks[f]);
        }
        out.rx_ns += elapsed_ns(t0);

        clean.clear();
        sack.clear();
        for f in 0..flows {
            if arrived[f].is_empty() {
                continue;
            }
            let recovering = arena.scoreboard(FlowId(f as u32)).in_recovery();
            if recovering || !acks[f].sacks.is_empty() {
                sack.push(f);
            } else {
                clean.push(f);
            }
        }
        let ack_at = now + SimDuration::from_micros(500);
        let mut ack_all = |list: &[usize]| {
            let t0 = Instant::now();
            for &f in list {
                black_box(arena.on_ack(FlowId(f as u32), &acks[f], ack_at));
            }
            (elapsed_ns(t0), list.len() as u64)
        };
        let (ns, n) = ack_all(&clean);
        out.clean_ns += ns;
        out.clean_acks += n;
        let (ns, n) = ack_all(&sack);
        out.sack_ns += ns;
        out.sack_acks += n;
    }
    out
}

/// `tcp-sim::pacing`: the gate check, budget arithmetic and EDT advance
/// one paced send makes, over the workload's flow count.
fn pacing_kernel(flows: usize) -> (u64, u64) {
    let flows = flows.clamp(1, 1024);
    let rounds = (OPS as usize / flows).max(20);
    let mut pacers: Vec<Pacer> = (0..flows)
        .map(|_| Pacer::new(PacingConfig::default(), MSS))
        .collect();
    let rate = Bandwidth::from_mbps(50);
    let mut now = SimTime::ZERO;
    let mut sends = 0u64;
    let t0 = Instant::now();
    for _ in 0..rounds {
        // Longer than one buffer's idle at `rate`, so every gate is open.
        now += SimDuration::from_millis(5);
        for p in &mut pacers {
            if p.can_send(now) {
                let segs = p.autosize_segs(rate).min(p.burst_segs(rate));
                p.charge_cap_deficit(now, rate);
                black_box(p.on_send(now, segs * MSS, rate));
                black_box(p.next_release());
                sends += 1;
            }
        }
    }
    (elapsed_ns(t0), sends)
}

/// `sim-core::metrics`: one RTT-like sample into a log-bucketed histogram.
fn hist_record_kernel(rng: &mut SimRng) -> (u64, u64) {
    let mut h = Histogram::new();
    let t0 = Instant::now();
    for _ in 0..OPS {
        h.record(0.5 + (rng.next() % 5_000) as f64 / 100.0);
    }
    black_box(h.count());
    (elapsed_ns(t0), OPS)
}

/// `sim-core::metrics`: merging one connection's histogram into another.
fn hist_merge_kernel(rng: &mut SimRng) -> (u64, u64) {
    const MERGES: u64 = 2_000;
    let mut filled = || {
        let mut h = Histogram::new();
        for _ in 0..5_000 {
            h.record(0.5 + (rng.next() % 5_000) as f64 / 100.0);
        }
        h
    };
    let (mut into, from) = (filled(), filled());
    let t0 = Instant::now();
    for _ in 0..MERGES {
        into.merge(black_box(&from));
    }
    black_box(into.count());
    (elapsed_ns(t0), MERGES)
}

/// Host cost per op of every leaf layer, in nanoseconds unless named.
#[derive(Debug, Clone, PartialEq)]
pub struct Costs {
    /// Wheel schedule/cancel/pop.
    pub event: f64,
    /// `Cpu::execute_tagged`.
    pub cpu: f64,
    /// `BottleneckLink::send_flow`, in [`QDISCS`] order.
    pub link: [f64; 3],
    /// Lossy `Netem::process`.
    pub netem: f64,
    /// CC `on_ack` + output snapshot, in [`CcKind::ALL`] order.
    pub cc: [f64; 5],
    /// Arena plan + record of one send.
    pub arena_send: f64,
    /// Arena `on_ack`, no SACK blocks, not in recovery.
    pub arena_ack_clean: f64,
    /// Arena `on_ack` carrying SACK blocks or in recovery.
    pub arena_ack_sack: f64,
    /// Pacer work of one paced send.
    pub pacing_send: f64,
    /// Receiver work per arriving packet (ACK assembly included).
    pub receiver_pkt: f64,
    /// `Histogram::record`.
    pub hist_record: f64,
    /// `Histogram::merge`, microseconds.
    pub hist_merge_us: f64,
}

/// Run every kernel. `seed` feeds the kernels' own random draws.
pub fn run_all(mix: &OpMix, seed: u64) -> Costs {
    let mut rng = SimRng::new(seed).split(2);
    let per = |ns: u64, ops: u64| ns as f64 / ops.max(1) as f64;
    let mut clean = (Vec::new(), Vec::new(), Vec::new());
    let mut lossy = Vec::new();
    for _ in 0..REPS {
        let l = loopback(mix.flows, 0.0, &mut rng);
        clean.0.push(per(l.send_ns, l.sends));
        clean.1.push(per(l.rx_ns, l.rx_pkts));
        clean.2.push(per(l.clean_ns, l.clean_acks));
        let l = loopback(mix.flows, 0.02, &mut rng);
        lossy.push(per(l.sack_ns, l.sack_acks));
    }
    Costs {
        event: ns_per_op(|| event_kernel(mix, &mut rng)),
        cpu: ns_per_op(|| cpu_kernel(mix)),
        link: QDISCS.map(|q| ns_per_op(|| link_kernel(q))),
        netem: ns_per_op(|| netem_kernel(&rng)),
        cc: CcKind::ALL.map(|k| ns_per_op(|| cc_kernel(k, mix, &mut rng))),
        arena_send: median(&clean.0),
        receiver_pkt: median(&clean.1),
        arena_ack_clean: median(&clean.2),
        arena_ack_sack: median(&lossy),
        pacing_send: ns_per_op(|| pacing_kernel(mix.flows)),
        hist_record: ns_per_op(|| hist_record_kernel(&mut rng)),
        hist_merge_us: ns_per_op(|| hist_merge_kernel(&mut rng)) / 1e3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mix() -> OpMix {
        OpMix {
            wheel_scheduled: 1_200,
            wheel_cancelled: 150,
            wheel_popped: 1_000,
            wheel_pending: 50,
            acks: 400,
            recoveries: 4,
            flows: 20,
            cpu_config: CpuConfig::Default,
        }
    }

    #[test]
    fn event_kernel_follows_the_op_mix() {
        let m = mix();
        let mut rng = SimRng::new(1);
        let (_, ops) = event_kernel(&m, &mut rng);
        assert!(ops >= OPS, "ran the requested work");
        // An empty mix (a workload that simulated nothing) still runs.
        let idle = OpMix {
            wheel_scheduled: 0,
            wheel_cancelled: 0,
            wheel_popped: 0,
            wheel_pending: 0,
            acks: 0,
            recoveries: 0,
            flows: 0,
            ..m
        };
        assert!(event_kernel(&idle, &mut rng).1 >= OPS);
    }

    #[test]
    fn loopback_exercises_both_ack_paths() {
        let mut rng = SimRng::new(2);
        let l = loopback(20, 0.0, &mut rng);
        assert!(l.sends > 0 && l.rx_pkts > 0 && l.clean_acks > 0);
        assert_eq!(l.sack_acks, 0, "no loss, no SACK-bearing ACKs");
        let l = loopback(20, 0.02, &mut rng);
        assert!(l.sack_acks > 0, "loss produces SACK-bearing ACKs");
        assert!(l.clean_acks > 0, "most ACKs are still clean");
    }

    #[test]
    fn every_kernel_yields_a_positive_cost() {
        let c = run_all(&mix(), 3);
        let all = [
            c.event,
            c.cpu,
            c.netem,
            c.arena_send,
            c.arena_ack_clean,
            c.arena_ack_sack,
            c.pacing_send,
            c.receiver_pkt,
            c.hist_record,
            c.hist_merge_us,
        ];
        for v in all.into_iter().chain(c.link).chain(c.cc) {
            assert!(v.is_finite() && v > 0.0, "{c:?}");
        }
    }
}
