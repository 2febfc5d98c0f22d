//! Differential property test: a [`FlowArena`] (struct-of-arrays state,
//! scoreboard windows carved from ONE shared segment slab) must behave
//! exactly like a set of independent boxed flows (each owning a private
//! slab) under arbitrary interleavings of plan/send/ack/RTO operations
//! across 1–64 flows.
//!
//! This is the executable form of the arena's isolation invariant: flow
//! `a`'s operations never read or write flow `b`'s state, even though all
//! scoreboard windows recycle chunks through the same [`SegStore`]. Both
//! sides run the same `Scoreboard` code — what the test pins down is the
//! *layout routing*: the shared-slab carving, the parallel-array borrows,
//! and chunk recycling across flows cannot change a single observable.

use congestion::master::{Master, MasterConfig};
use congestion::CcKind;
use proptest::prelude::*;
use sim_core::time::{SimDuration, SimTime};
use tcp_sim::rate::RateSampler;
use tcp_sim::receiver::AckInfo;
use tcp_sim::rtt::RttEstimator;
use tcp_sim::sender::{AckOutcome, Scoreboard, SegStore, SendPlan};
use tcp_sim::seq::PktSeq;
use tcp_sim::{FlowArena, FlowId, PacingConfig};

const MSS: u64 = 1448;

/// The private-slab reference: one flow's four pieces, each owned
/// outright instead of carved from the arena's shared arrays.
struct BoxedFlow {
    board: Scoreboard,
    store: SegStore,
    rtt: RttEstimator,
    rate: RateSampler,
}

impl BoxedFlow {
    fn new() -> Self {
        BoxedFlow {
            board: Scoreboard::new(MSS),
            store: SegStore::new(),
            rtt: RttEstimator::new(),
            rate: RateSampler::new(MSS),
        }
    }

    fn plan_send(&self, cwnd: u64, max_pkts: u64) -> Option<SendPlan> {
        let mut plan = SendPlan::default();
        self.board
            .plan_send_into(cwnd, max_pkts, &mut plan)
            .then_some(plan)
    }

    fn on_sent(&mut self, plan: &SendPlan, now: SimTime) {
        self.board
            .on_sent(&mut self.store, &mut self.rate, plan, now, false)
    }

    fn on_ack(&mut self, ack: &AckInfo, now: SimTime) -> AckOutcome {
        self.board
            .on_ack(&mut self.store, &mut self.rtt, &mut self.rate, ack, now)
    }
}

/// One step of the generated workload, always addressed to one flow.
#[derive(Debug, Clone)]
enum Op {
    /// Plan up to `max_pkts` under `cwnd`, then record it sent.
    Send {
        flow: usize,
        cwnd: u64,
        max_pkts: u64,
    },
    /// Cumulatively ack `frac`/256 of the outstanding window.
    AckCum { flow: usize, frac: u8 },
    /// Duplicate ack (no cumulative progress) SACKing a slice of the
    /// outstanding window — drives loss marking and fast recovery.
    AckSack { flow: usize, lo_frac: u8, len: u64 },
    /// Retransmission timeout: everything outstanding presumed lost.
    Rto { flow: usize },
    /// Advance the shared clock.
    Tick { nanos: u64 },
}

fn op_strategy(flows: usize) -> impl Strategy<Value = Op> {
    let f = 0..flows;
    prop_oneof![
        // Sends dominate so windows actually build up; small cwnds keep
        // some flows app-limited while others stay cwnd-limited.
        4 => (f.clone(), 1u64..64, 1u64..16)
            .prop_map(|(flow, cwnd, max_pkts)| Op::Send { flow, cwnd, max_pkts }).boxed(),
        3 => (f.clone(), any::<u8>()).prop_map(|(flow, frac)| Op::AckCum { flow, frac }).boxed(),
        2 => (f.clone(), any::<u8>(), 1u64..8)
            .prop_map(|(flow, lo_frac, len)| Op::AckSack { flow, lo_frac, len }).boxed(),
        1 => f.prop_map(|flow| Op::Rto { flow }).boxed(),
        2 => (1u64..5_000_000).prop_map(|nanos| Op::Tick { nanos }).boxed(),
    ]
}

/// Scale `frac`/256 into `[lo, hi]` (inclusive ends).
fn lerp(lo: u64, hi: u64, frac: u8) -> u64 {
    lo + (hi - lo) * u64::from(frac) / 255
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arena and boxed senders observe identical streams under any
    /// interleaving: same plans, same `AckOutcome`s, same scoreboard
    /// observables after every step, same slab-survival after churn.
    #[test]
    fn arena_matches_boxed_senders(
        flows in 1usize..=64,
        ops in proptest::collection::vec(op_strategy(64), 1..300),
    ) {
        let mut arena = FlowArena::new(flows, MSS, PacingConfig::default(), |_| {
            Master::new(CcKind::Bbr.build(MSS), MasterConfig::passthrough())
        });
        let mut boxed: Vec<BoxedFlow> = (0..flows).map(|_| BoxedFlow::new()).collect();
        let mut now = SimTime::ZERO;

        for op in &ops {
            match *op {
                Op::Send { flow, cwnd, max_pkts } => {
                    let flow = flow % flows;
                    let f = FlowId(flow as u32);
                    let a = {
                        let mut plan = Default::default();
                        arena
                            .plan_send_into(f, cwnd, max_pkts, &mut plan)
                            .then_some(plan)
                    };
                    let b = boxed[flow].plan_send(cwnd, max_pkts);
                    prop_assert_eq!(&a, &b, "plan diverged on flow {}", flow);
                    if let Some(plan) = a {
                        arena.on_sent(f, &plan, now, false);
                        boxed[flow].on_sent(&plan, now);
                    }
                }
                Op::AckCum { flow, frac } => {
                    let flow = flow % flows;
                    let f = FlowId(flow as u32);
                    let board = arena.scoreboard(f);
                    let (una, nxt) = (board.snd_una().0, board.snd_nxt().0);
                    let ack = AckInfo {
                        cum: PktSeq(lerp(una, nxt, frac)),
                        sacks: vec![],
                    };
                    let a = arena.on_ack(f, &ack, now);
                    let b = boxed[flow].on_ack(&ack, now);
                    prop_assert_eq!(
                        format!("{a:?}"),
                        format!("{b:?}"),
                        "cum-ack outcome diverged on flow {}", flow
                    );
                }
                Op::AckSack { flow, lo_frac, len } => {
                    let flow = flow % flows;
                    let f = FlowId(flow as u32);
                    let board = arena.scoreboard(f);
                    let (una, nxt) = (board.snd_una().0, board.snd_nxt().0);
                    if nxt - una < 2 {
                        continue; // nothing sackable above the cum point
                    }
                    let lo = lerp(una + 1, nxt - 1, lo_frac);
                    let hi = (lo + len).min(nxt);
                    let ack = AckInfo {
                        cum: PktSeq(una),
                        sacks: vec![(PktSeq(lo), PktSeq(hi))],
                    };
                    let a = arena.on_ack(f, &ack, now);
                    let b = boxed[flow].on_ack(&ack, now);
                    prop_assert_eq!(
                        format!("{a:?}"),
                        format!("{b:?}"),
                        "sack outcome diverged on flow {}", flow
                    );
                }
                Op::Rto { flow } => {
                    let flow = flow % flows;
                    let a = arena.on_rto(FlowId(flow as u32));
                    let b = { let s = &mut boxed[flow]; s.board.on_rto(&mut s.store) };
                    prop_assert_eq!(a, b, "rto lost-count diverged on flow {}", flow);
                }
                Op::Tick { nanos } => {
                    now += SimDuration::from_nanos(nanos);
                }
            }
            // Every flow's observables must agree after every step — not
            // just the flow that was touched: cross-flow contamination
            // through the shared slab is exactly the bug class this test
            // exists to catch.
            for (i, s) in boxed.iter().enumerate() {
                let f = FlowId(i as u32);
                let (board, b) = (arena.scoreboard(f), &s.board);
                prop_assert_eq!(board.snd_una(), b.snd_una(), "snd_una flow {}", i);
                prop_assert_eq!(board.snd_nxt(), b.snd_nxt(), "snd_nxt flow {}", i);
                prop_assert_eq!(board.packets_out(), b.packets_out(), "packets_out flow {}", i);
                prop_assert_eq!(
                    board.packets_in_flight(),
                    b.packets_in_flight(),
                    "in_flight flow {}", i
                );
                prop_assert_eq!(board.in_recovery(), b.in_recovery(), "recovery flow {}", i);
                prop_assert_eq!(board.total_retx(), b.total_retx(), "retx flow {}", i);
                prop_assert_eq!(
                    arena.delivered_pkts(f),
                    s.rate.delivered(),
                    "delivered flow {}", i
                );
                prop_assert_eq!(arena.srtt(f), s.rtt.srtt(), "srtt flow {}", i);
            }
        }

        // Drain: cumulatively ack everything everywhere, then the arena's
        // shared slab and each private slab must both see every window
        // emptied (and the identity `misses == takes - reuses` must hold
        // on the shared store).
        for (i, sender) in boxed.iter_mut().enumerate() {
            let f = FlowId(i as u32);
            let nxt = arena.scoreboard(f).snd_nxt();
            let ack = AckInfo { cum: nxt, sacks: vec![] };
            let a = arena.on_ack(f, &ack, now);
            let b = sender.on_ack(&ack, now);
            prop_assert_eq!(format!("{a:?}"), format!("{b:?}"), "drain ack flow {}", i);
            prop_assert_eq!(arena.scoreboard(f).packets_out(), 0);
            prop_assert_eq!(sender.board.packets_out(), 0);
        }
        let (takes, reuses, misses) = arena.store_stats();
        prop_assert_eq!(misses, takes - reuses, "slab pool identity");
    }
}
