//! Struct-of-arrays flow-state arena: every per-connection field the hot
//! path touches, stored in dense parallel arrays indexed by [`FlowId`].
//!
//! # Layout
//!
//! ```text
//!                    FlowArena (owned by StackSim)
//!   FlowId(i) ──┬─> board:    Vec<Scoreboard>   seq/SACK/loss state
//!               ├─> rtt:      Vec<RttEstimator> RFC 6298 estimator (POD)
//!               ├─> rate:     Vec<RateSampler>  delivery-rate windows (POD)
//!               ├─> pacer:    Vec<Pacer>        EDT clock + stride state
//!               ├─> receiver: Vec<Receiver>     server-side reassembly
//!               ├─> cc:       Vec<Master>       CC enum, read in place
//!               ├─> hot:      Vec<FlowHot>      control flags + device path
//!               └─> cold:     Vec<FlowCold>     measurement-only statistics
//!                        │
//!   SegStore (shared)  <─┘ every board's segment window and stamp ring
//!                          are carved from two chunked slabs (chunk
//!                          handles, not pointers)
//! ```
//!
//! The arrays above are per flow; the segment slab is per *in-flight
//! packet* and at fleet scale is most of the heap, which is why its record
//! — the scoreboard's private `SegState`, see [`crate::sender`] — is
//! packed to 8 bytes, with the rate stamp kept once per send batch in the
//! stamp slab.
//!
//! # `FlowId` invariants
//!
//! * Flow ids are dense: `FlowId(i)` for `i < len()` indexes every array,
//!   and all arrays have identical length for the lifetime of the arena.
//! * Ids are assigned at construction and never move — an id observed in
//!   an event is valid for the whole run (there is no flow removal).
//! * Each id's state is independent: arena ops on `FlowId(a)` never read
//!   or write arrays at `b != a` (the shared `SegStore` recycles chunk
//!   storage across flows, but a chunk belongs to exactly one flow's
//!   window at a time).
//!
//! # Why determinism is layout-independent
//!
//! The arena changes *where* per-flow state lives, not *what* the state
//! is or *when* it is updated: every handler reads and writes exactly the
//! fields the boxed `Conn` struct held, in the same program order, and no
//! simulation quantity (time, RNG draw, cycle charge) depends on memory
//! addresses. Byte-identical `repro --exp all` output across the refactor
//! — and the arena-vs-boxed differential test — are the enforcement
//! mechanisms, not an aspiration.

use crate::mutants::{self, Mutant};
use crate::pacing::{Pacer, PacingConfig};
use crate::rate::RateSampler;
use crate::receiver::{AckInfo, Receiver};
use crate::rtt::RttEstimator;
use crate::sender::{AckOutcome, Scoreboard, SegStore, SendPlan};
use congestion::master::Master;
use congestion::CongestionControl;
use sim_core::event::TimerToken;
use sim_core::metrics::{Histogram, Summary};
use sim_core::time::SimTime;

#[cfg(test)]
mod differential;

/// Dense index of one flow in a [`FlowArena`]. Ids are assigned at
/// construction (`0..len`), never move, and index every parallel array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(pub u32);

impl FlowId {
    /// The array index this id denotes.
    #[inline]
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// Hot per-flow control state: the scalars every send/ack/timer handler
/// reads or writes. Grouped in one small record so a handler touches one
/// cache line here instead of a dozen scattered ones.
#[derive(Debug, Clone)]
pub(crate) struct FlowHot {
    /// Segments still permitted in the current pacing period (a strided
    /// period releases several autosized chunks, sent as chained events so
    /// concurrent flows contend for the CPU between chunks).
    pub burst_remaining: u64,
    /// Bytes currently in the CPU/device path (memory accounting).
    pub device_bytes: u64,
    /// Packets that survived netem + the bottleneck queue and were handed
    /// to the receiver's arrival event. The rx-conservation oracle checks
    /// `receiver.total_received() + receiver.duplicates() <=` this (strict
    /// equality can't hold: arrivals scheduled past the end of the run are
    /// never delivered).
    pub accepted_pkts: u64,
    /// Peak memory footprint proxy: scoreboard + device backlog bytes
    /// (§7.1.1's RAM question).
    pub mem_peak_bytes: u64,
    pub ack_timer: Option<TimerToken>,
    /// The pending `RtoFire`'s token; `Some` exactly while the RTO is
    /// armed. Every re-arm and every disarm cancels the previous fire
    /// (O(1) unlink), so the only `RtoFire` that can pop is this one.
    pub rto_timer: Option<TimerToken>,
    /// Socket buffers currently in the CPU/device path. TCP Small Queues
    /// (TSQ) caps this at 2: without it, a lossless CPU-limited run lets
    /// cwnd stuff unbounded data into the device backlog and measured RTT
    /// grows without bound.
    pub device_chunks: u32,
    pub rto_backoff: u32,
    pub started: bool,
    pub pacing_timer_armed: bool,
}

impl FlowHot {
    fn new() -> Self {
        FlowHot {
            burst_remaining: 0,
            device_bytes: 0,
            accepted_pkts: 0,
            mem_peak_bytes: 0,
            ack_timer: None,
            rto_timer: None,
            device_chunks: 0,
            rto_backoff: 0,
            started: false,
            pacing_timer_armed: false,
        }
    }
}

/// Cold per-flow state: measurement-window statistics and trace caches
/// that no steady-state decision reads. Kept in a side table so they
/// never share a cache line with [`FlowHot`].
#[derive(Debug, Clone)]
pub(crate) struct FlowCold {
    pub delivered_at_measure: u64,
    pub rtt_summary: Summary,
    /// RTT samples bucketed for percentile queries (Fig. 7's p95): fixed
    /// bucket boundaries make the p95 independent of sample order and
    /// exact under merge, which the scorecard's determinism contract
    /// requires.
    pub rtt_hist: Histogram,
    pub skb_bytes_sum: u64,
    pub skb_count: u64,
    /// Bytes sent in the current pacing period; finalized into
    /// `period_bytes_sum` when the next period opens (Table 2's per-period
    /// "Skbuff Len" statistic).
    pub cur_period_bytes: u64,
    pub period_bytes_sum: u64,
    pub period_count: u64,
    // sim-trace change detection: only transitions are recorded, so the
    // last-seen CC outputs are cached here (checked only when tracing).
    pub last_cwnd: u64,
    pub last_rate_bps: u64,
    pub last_phase: &'static str,
}

impl FlowCold {
    fn new() -> Self {
        FlowCold {
            delivered_at_measure: 0,
            rtt_summary: Summary::new(),
            rtt_hist: Histogram::new(),
            skb_bytes_sum: 0,
            skb_count: 0,
            cur_period_bytes: 0,
            period_bytes_sum: 0,
            period_count: 0,
            last_cwnd: 0,
            last_rate_bps: 0,
            last_phase: "",
        }
    }
}

/// Struct-of-arrays storage for every flow's TCP state, owned by the
/// simulator. See the module docs for the layout diagram and invariants.
///
/// The TCP operations ([`FlowArena::plan_send_into`],
/// [`FlowArena::on_sent`], [`FlowArena::on_ack`], [`FlowArena::on_rto`])
/// are [`Scoreboard`] calls — the arena only routes the borrows into its
/// arrays — which is what the arena-vs-boxed differential test
/// (`arena/differential.rs`, same code over private slabs) leans on.
pub struct FlowArena {
    /// Shared slabs every scoreboard window and stamp ring are carved from.
    pub(crate) store: SegStore,
    pub(crate) board: Vec<Scoreboard>,
    pub(crate) rtt: Vec<RttEstimator>,
    pub(crate) rate: Vec<RateSampler>,
    pub(crate) pacer: Vec<Pacer>,
    pub(crate) receiver: Vec<Receiver>,
    pub(crate) cc: Vec<Master>,
    pub(crate) hot: Vec<FlowHot>,
    pub(crate) cold: Vec<FlowCold>,
}

impl FlowArena {
    /// Build an arena of `count` flows for `mss`-byte packets, with one
    /// congestion controller per flow from `make_cc`.
    pub fn new(
        count: usize,
        mss: u64,
        pacing: PacingConfig,
        make_cc: impl FnMut(usize) -> Master,
    ) -> Self {
        FlowArena {
            store: SegStore::new(),
            board: (0..count).map(|_| Scoreboard::new()).collect(),
            rtt: (0..count).map(|_| RttEstimator::new()).collect(),
            rate: (0..count).map(|_| RateSampler::new(mss)).collect(),
            pacer: (0..count).map(|_| Pacer::new(pacing, mss)).collect(),
            receiver: (0..count).map(|_| Receiver::new()).collect(),
            cc: (0..count).map(make_cc).collect(),
            hot: (0..count).map(|_| FlowHot::new()).collect(),
            cold: (0..count).map(|_| FlowCold::new()).collect(),
        }
    }

    /// Number of flows (every parallel array's length).
    pub(crate) fn len(&self) -> usize {
        self.board.len()
    }

    /// Whether flow `i` paces: the one place the stack reads its
    /// controller's pacing decision. Mutant M8
    /// ([`Mutant::Bbr3PacingDisarm`]) models a "new CC variant missed a
    /// dispatch site" bug here: BBRv3 flows report no pacing even though
    /// the controller asks for it.
    #[inline]
    pub(crate) fn paces(&self, i: usize) -> bool {
        let cc = &self.cc[i];
        cc.wants_pacing() && !(mutants::is(Mutant::Bbr3PacingDisarm) && cc.name() == "bbr3")
    }

    /// Plan the next transmission for one flow; see
    /// `Scoreboard::plan_send_into`.
    pub fn plan_send_into(&self, f: FlowId, cwnd: u64, max_pkts: u64, plan: &mut SendPlan) -> bool {
        self.board[f.index()].plan_send_into(cwnd, max_pkts, plan)
    }

    /// Record a transmitted plan for one flow; see `Scoreboard::on_sent`.
    pub fn on_sent(&mut self, f: FlowId, plan: &SendPlan, now: SimTime, pacing_limited: bool) {
        let i = f.index();
        self.board[i].on_sent(
            &mut self.store,
            &mut self.rate[i],
            plan,
            now,
            pacing_limited,
        )
    }

    /// Process an acknowledgement for one flow; see `Scoreboard::on_ack`.
    pub fn on_ack(&mut self, f: FlowId, ack: &AckInfo, now: SimTime) -> AckOutcome {
        let i = f.index();
        self.board[i].on_ack(
            &mut self.store,
            &mut self.rtt[i],
            &mut self.rate[i],
            ack,
            now,
        )
    }

    /// RTO expiry for one flow; see `Scoreboard::on_rto`.
    pub fn on_rto(&mut self, f: FlowId) -> u64 {
        let i = f.index();
        self.board[i].on_rto(&mut self.store)
    }

    /// The flow's scoreboard (sequence/SACK/loss state).
    pub fn scoreboard(&self, f: FlowId) -> &Scoreboard {
        &self.board[f.index()]
    }

    /// Cumulative delivered packets for one flow (goodput numerator). Test
    /// builds only, as is [`Self::srtt`]: the differential test's observables.
    #[cfg(test)]
    pub(crate) fn delivered_pkts(&self, f: FlowId) -> u64 {
        self.rate[f.index()].delivered()
    }

    /// The flow's smoothed RTT, if any samples have arrived.
    #[cfg(test)]
    pub(crate) fn srtt(&self, f: FlowId) -> Option<sim_core::time::SimDuration> {
        self.rtt[f.index()].srtt()
    }

    /// Scoreboard-slab pool counters `(takes, reuses, misses)`.
    pub(crate) fn store_stats(&self) -> (u64, u64, u64) {
        (self.store.takes(), self.store.reuses(), self.store.misses())
    }
}
