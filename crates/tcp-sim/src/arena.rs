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
//!               ├─> cc:       Vec<Master>       boxed CC (cold: virtual calls)
//!               ├─> cc_cache: Vec<CcCache>      cwnd/rate/cost snapshot (hot)
//!               ├─> hot:      Vec<FlowHot>      control flags + device path
//!               └─> cold:     Vec<FlowCold>     measurement-only statistics
//!                        │
//!   SegStore (shared)  <─┘ every board's segment window is carved from
//!                          one chunked slab (chunk handles, not pointers)
//! ```
//!
//! The arrays above are per flow; the slab is per *in-flight packet* and
//! at fleet scale is most of the heap, which is why its record — the
//! scoreboard's private `SegState`, see [`crate::sender`] — is packed to
//! 40 bytes.
//!
//! # `FlowId` invariants
//!
//! * Flow ids are dense: `FlowId(i)` for `i < len()` indexes every array,
//!   and all arrays have identical length for the lifetime of the arena.
//! * Ids are assigned at construction and never move — an id observed in
//!   an event is valid for the whole run (there is no flow removal).
//! * Each id's state is independent: arena ops on `FlowId(a)` never read
//!   or write arrays at `b != a` (the shared [`SegStore`] recycles chunk
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
use sim_core::time::{SimDuration, SimTime};
use sim_core::units::Bandwidth;

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
    pub rto_epoch: u64,
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
    /// The pending `RtoFire`'s token. Re-arming cancels the previous fire
    /// eagerly (O(1) unlink) instead of letting a stale cell ride the wheel
    /// until its epoch check discards it: with per-ACK re-arming and an RTO
    /// close to the run length, lazy invalidation kept thousands of dead
    /// cells in the wheel at high connection counts, and every one of them
    /// cost cascade and pop work. Stale fires never charged CPU, so eager
    /// cancellation leaves simulation output bit-identical.
    pub rto_timer: Option<TimerToken>,
    /// Socket buffers currently in the CPU/device path. TCP Small Queues
    /// (TSQ) caps this at 2: without it, a lossless CPU-limited run lets
    /// cwnd stuff unbounded data into the device backlog and measured RTT
    /// grows without bound.
    pub device_chunks: u32,
    pub rto_backoff: u32,
    pub started: bool,
    pub pacing_timer_armed: bool,
    pub rto_armed: bool,
    pub measuring: bool,
}

impl FlowHot {
    fn new() -> Self {
        FlowHot {
            burst_remaining: 0,
            device_bytes: 0,
            rto_epoch: 0,
            accepted_pkts: 0,
            mem_peak_bytes: 0,
            ack_timer: None,
            rto_timer: None,
            device_chunks: 0,
            rto_backoff: 0,
            started: false,
            pacing_timer_armed: false,
            rto_armed: false,
            measuring: false,
        }
    }
}

/// Cached congestion-controller outputs. The CC's getters are pure reads
/// of its internal model, but they sit behind a `Box<dyn>` virtual call —
/// so the arena snapshots them after every CC mutation (`on_ack`,
/// `on_loss_event`, `on_recovery_exit`, `on_rto`) and the hot path reads
/// the snapshot. Staleness is impossible by construction: every mutation
/// site is followed by [`FlowArena::refresh_cc`], and the byte-identity
/// gate would catch a missed one.
#[derive(Debug, Clone)]
pub(crate) struct CcCache {
    pub cwnd: u64,
    pub pacing_rate: Option<Bandwidth>,
    pub model_cost: u64,
    pub wants_pacing: bool,
}

/// Snapshot one controller's outputs into the hot cache. Mutant M8
/// ([`Mutant::Bbr3PacingDisarm`]) models a "new CC variant missed a
/// dispatch site" bug here: the cache reports `wants_pacing == false`
/// for BBRv3 flows even though the controller asks for pacing.
fn snapshot_cc(m: &Master) -> CcCache {
    let disarmed = mutants::is(Mutant::Bbr3PacingDisarm) && m.name() == "bbr3";
    CcCache {
        cwnd: m.cwnd(),
        pacing_rate: m.pacing_rate(),
        model_cost: m.model_cost_cycles(),
        wants_pacing: m.wants_pacing() && !disarmed,
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
/// (`tests/arena_differential.rs`, same code over private slabs) leans on.
pub struct FlowArena {
    /// Shared segment slab every scoreboard window is carved from.
    pub(crate) store: SegStore,
    pub(crate) board: Vec<Scoreboard>,
    pub(crate) rtt: Vec<RttEstimator>,
    pub(crate) rate: Vec<RateSampler>,
    pub(crate) pacer: Vec<Pacer>,
    pub(crate) receiver: Vec<Receiver>,
    pub(crate) cc: Vec<Master>,
    pub(crate) cc_cache: Vec<CcCache>,
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
        mut make_cc: impl FnMut(usize) -> Master,
    ) -> Self {
        let cc: Vec<Master> = (0..count).map(&mut make_cc).collect();
        let cc_cache = cc.iter().map(snapshot_cc).collect();
        FlowArena {
            store: SegStore::new(),
            board: (0..count).map(|_| Scoreboard::new(mss)).collect(),
            rtt: (0..count).map(|_| RttEstimator::new()).collect(),
            rate: (0..count).map(|_| RateSampler::new(mss)).collect(),
            pacer: (0..count).map(|_| Pacer::new(pacing, mss)).collect(),
            receiver: (0..count).map(|_| Receiver::new()).collect(),
            cc,
            cc_cache,
            hot: (0..count).map(|_| FlowHot::new()).collect(),
            cold: (0..count).map(|_| FlowCold::new()).collect(),
        }
    }

    /// Number of flows (every parallel array's length).
    pub(crate) fn len(&self) -> usize {
        self.board.len()
    }

    /// Whether the arena holds no flows.
    pub fn is_empty(&self) -> bool {
        self.board.is_empty()
    }

    /// Re-snapshot the CC output cache for flow `i`. Must be called after
    /// every CC mutation; see [`CcCache`].
    #[inline]
    pub(crate) fn refresh_cc(&mut self, i: usize) {
        self.cc_cache[i] = snapshot_cc(&self.cc[i]);
    }

    /// Plan the next transmission for one flow; see
    /// [`Scoreboard::plan_send_into`].
    pub fn plan_send_into(&self, f: FlowId, cwnd: u64, max_pkts: u64, plan: &mut SendPlan) -> bool {
        self.board[f.index()].plan_send_into(cwnd, max_pkts, plan)
    }

    /// Record a transmitted plan for one flow; see [`Scoreboard::on_sent`].
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

    /// Process an acknowledgement for one flow; see [`Scoreboard::on_ack`].
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

    /// RTO expiry for one flow; see [`Scoreboard::on_rto`].
    pub fn on_rto(&mut self, f: FlowId) -> u64 {
        let i = f.index();
        self.board[i].on_rto(&mut self.store)
    }

    /// The flow's scoreboard (sequence/SACK/loss state).
    pub fn scoreboard(&self, f: FlowId) -> &Scoreboard {
        &self.board[f.index()]
    }

    /// Cumulative delivered packets for one flow (goodput numerator).
    pub fn delivered_pkts(&self, f: FlowId) -> u64 {
        self.rate[f.index()].delivered()
    }

    /// The flow's smoothed RTT, if any samples have arrived.
    pub fn srtt(&self, f: FlowId) -> Option<SimDuration> {
        self.rtt[f.index()].srtt()
    }

    /// Scoreboard-slab pool counters `(takes, reuses, misses)`.
    pub fn store_stats(&self) -> (u64, u64, u64) {
        (self.store.takes(), self.store.reuses(), self.store.misses())
    }
}
