//! The sender-side scoreboard: outstanding segments, SACK processing,
//! RACK/dup-threshold loss detection, retransmission queueing, and the
//! per-ACK bookkeeping that feeds the congestion controller.
//!
//! Structure follows the Linux retransmission machinery at packet
//! granularity: a segment is *outstanding* from first transmission until
//! cumulatively or selectively acknowledged; it may additionally be marked
//! `lost` (scheduling a retransmission) and `retransmitted`. The standard
//! accounting identity
//!
//! ```text
//! inflight = packets_out − sacked_out − lost_out + retrans_out
//! ```
//!
//! is maintained as an invariant and checked by property tests.
//!
//! Loss detection combines the classic dup-SACK threshold (3 packets SACKed
//! above a hole) with a RACK-style time threshold (a hole is lost if a
//! packet sent `reo_wnd` later has already been delivered).
//!
//! The scoreboard state is split so the flow arena can keep each part in
//! its own dense array:
//!
//! * [`Scoreboard`] holds the sequence/SACK/loss state for **one** flow and
//!   borrows whatever it doesn't own per call — segment records from a
//!   shared [`SegStore`], RTT samples into a caller-owned
//!   [`RttEstimator`], delivery samples into a caller-owned
//!   [`RateSampler`]. This is what the [`FlowArena`](crate::arena) stores
//!   one-per-flow in a dense array.
//! * [`SegStore`] holds the two shared chunked slabs (the crate-private
//!   `pool::SegSlab`) every flow's scoreboard is carved from.
//!   The "scoreboard-slab" pool category has one record per in-flight
//!   packet, which makes it most of a large simulation's heap, so the
//!   record is a private 8-byte `SegState`: two stamp ids and three flag
//!   bits. The "stamp-ring" category has one 32-byte [`TxStamp`] per send
//!   batch, as the kernel keeps one per skb. Slab bytes =
//!   `pool_slab_misses` × `SEG_CHUNK` × 8 + `pool_stamp_misses` ×
//!   `SEG_CHUNK` × 32, each rounded up to whole 32-chunk blocks.
//!
//! The unit tests below and the arena differential test
//! (`tests/arena_differential.rs`) each bundle the four pieces — scoreboard,
//! private store, RTT estimator, rate sampler — into a single flow locally.

use crate::pool::{SegSlab, SlabDeque};
use crate::rate::{RateSampler, TxStamp};
use crate::receiver::AckInfo;
use crate::rtt::RttEstimator;
use crate::seq::PktSeq;
use sim_core::time::{SimDuration, SimTime};

/// Classic fast-retransmit duplicate threshold.
pub const DUP_THRESH: u64 = 3;

/// One outstanding segment, packed to 8 bytes: this record is most of a
/// large simulation's heap (one per in-flight packet, [`SEG_CHUNK`] to a
/// slab chunk), so it stores only what nothing else already determines.
///
/// * The sequence number is `snd_una + window index` and is not stored.
/// * Every packet of a send batch shares one [`TxStamp`], kept once in the
///   flow's stamp ring (see [`Scoreboard`]); the record holds two ids into
///   it. `orig` names the first send's stamp, so the first transmission
///   time is `ring[orig].tx_time` ([`RateSampler::on_send`] stamps
///   `tx_time = now`). `cur` names the most recent (re)transmission's.
/// * A retransmission always appends a fresh stamp, so "retransmitted at
///   least once" is `cur != orig`.
/// * The time of the most recent (re)transmission is `ring[cur].tx_time`,
///   or `ring[orig].tx_time` once [`Scoreboard::on_rto`] rewinds it: the
///   [`REWOUND`](Self::REWOUND) bit — see [`SegState::last_tx_id`].
/// * The three flag bits sit above the 29-bit `cur` id
///   ([`Scoreboard::push_stamp`] asserts every id fits).
///
/// The plain per-packet layout survives as the test-only
/// `reference::RefSeg`, and a property test holds the two together.
///
/// [`SEG_CHUNK`]: crate::pool::SEG_CHUNK
#[derive(Debug, Clone, Copy, Default)]
struct SegState {
    /// Stamp id of the first transmission.
    orig: u32,
    /// Stamp id of the most recent (re)transmission in the low 29 bits,
    /// the flags above it.
    cur: u32,
}

const _: () = assert!(std::mem::size_of::<SegState>() == 8);

impl SegState {
    const ID_MASK: u32 = (1 << 29) - 1;
    const SACKED: u32 = 1 << 29;
    const LOST: u32 = 1 << 30;
    /// The most recent transmission time was rewound to the first send's
    /// by an RTO (so the retransmission may be re-sent); cleared by the
    /// next retransmission.
    const REWOUND: u32 = 1 << 31;

    /// A segment first transmitted under stamp `id`.
    fn first_send(id: u32) -> Self {
        SegState { orig: id, cur: id }
    }

    #[inline]
    fn has(&self, flag: u32) -> bool {
        self.cur & flag != 0
    }

    #[inline]
    fn set(&mut self, flag: u32, on: bool) {
        if on {
            self.cur |= flag;
        } else {
            self.cur &= !flag;
        }
    }

    #[inline]
    fn sacked(&self) -> bool {
        self.has(Self::SACKED)
    }

    #[inline]
    fn lost(&self) -> bool {
        self.has(Self::LOST)
    }

    /// The most recent (re)transmission's stamp id.
    #[inline]
    fn cur_id(&self) -> u32 {
        self.cur & Self::ID_MASK
    }

    #[inline]
    fn retransmitted(&self) -> bool {
        self.cur_id() != self.orig
    }

    /// The id of the stamp whose `tx_time` is the most recent
    /// (re)transmission time.
    #[inline]
    fn last_tx_id(&self) -> u32 {
        if self.has(Self::REWOUND) {
            self.orig
        } else {
            self.cur_id()
        }
    }

    /// Record a retransmission under stamp `id` (whose `tx_time` becomes
    /// the most recent transmission time).
    #[inline]
    fn retransmit(&mut self, id: u32) {
        self.cur = (self.cur & (Self::SACKED | Self::LOST)) | id;
    }

    /// RTO: rewind the most recent transmission time to the first send's.
    #[inline]
    fn rewind(&mut self) {
        self.cur |= Self::REWOUND;
    }
}

/// The segments an ACK delivers, reduced to the most recently transmitted
/// one (the first seen wins a tie).
struct Newest {
    /// That segment and its last transmission time.
    best: Option<(SimTime, SegState)>,
    /// The stamp id the last examined segment's transmission time came
    /// from. A delivered run from one batch shares it, so the run costs
    /// one ring read, not one per segment.
    seen: u32,
}

impl Newest {
    fn new() -> Self {
        Newest {
            best: None,
            seen: u32::MAX, // above every id `push_stamp` hands out
        }
    }

    /// Keep `seg` if it is the most recently transmitted so far.
    /// `tx_time` reads a stamp id's transmission time from the ring.
    #[inline]
    fn track(&mut self, seg: SegState, tx_time: impl FnOnce(u32) -> SimTime) {
        let src = seg.last_tx_id();
        if src == self.seen {
            return; // same transmission time as the last one examined
        }
        self.seen = src;
        let last_tx = tx_time(src);
        match self.best {
            Some((t, _)) if t >= last_tx => {}
            _ => self.best = Some((last_tx, seg)),
        }
    }
}

/// The transmission time stamped on id `id` in the ring `ring`, whose front
/// stamp has id `base`. A free function, so a closure walking the segment
/// window can read the ring while it updates the scoreboard's counters.
#[inline]
fn ring_tx_time(ring: &SlabDeque, base: u32, stamps: &SegSlab<TxStamp>, id: u32) -> SimTime {
    ring.get(stamps, (id - base) as usize).tx_time
}

/// A run of outstanding segments that are neither SACKed nor lost, all
/// transmitted in the same socket-buffer batch (so they share one
/// `last_tx` — the property that lets RACK evaluate the whole run at
/// once).
#[derive(Debug, Clone, Copy)]
struct HoleRun {
    lo: u64,
    hi: u64,
    last_tx: SimTime,
}

/// What one ACK did to the connection — the input for the CC callbacks.
#[derive(Debug, Clone, Default)]
pub struct AckOutcome {
    /// Newly delivered packets (cumulative + newly SACKed).
    pub newly_delivered: u64,
    /// Packets newly marked lost during this ACK's processing.
    pub newly_lost: u64,
    /// RTT sample from the newest never-retransmitted delivered segment.
    pub rtt_sample: Option<SimDuration>,
    /// Delivery-rate sample.
    pub rate_sample: Option<crate::rate::RateSample>,
    /// The connection's `delivered` count when the newest acked segment was
    /// sent (BBR's round-trip accounting input).
    pub prior_delivered: u64,
    /// Whether the newest acked segment was sent right after a
    /// pacer-created idle (strided pacing) — treated like app-limited by
    /// the bandwidth model.
    pub pacing_limited: bool,
    /// This ACK caused entry into fast recovery.
    pub recovery_entered: bool,
    /// This ACK completed fast recovery.
    pub recovery_exited: bool,
    /// Duplicate ACK (no forward progress at all).
    pub is_duplicate: bool,
}

/// A transmission plan: which packets to put in the next socket buffer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SendPlan {
    /// Packet runs `[lo, hi)` to transmit (retransmissions may be
    /// discontiguous; new data is one run).
    pub runs: Vec<(PktSeq, PktSeq)>,
    /// True if this plan retransmits previously lost data.
    pub is_retx: bool,
}

impl SendPlan {
    /// Total packets in the plan.
    pub(crate) fn packets(&self) -> u64 {
        self.runs.iter().map(|(lo, hi)| hi.since(*lo)).sum()
    }
}

/// The shared scoreboard store: one chunked slab that every flow's
/// segment records are carved from (the "scoreboard-slab" pool category),
/// and one that every flow's stamp ring is carved from (the "stamp-ring"
/// category).
///
/// A [`Scoreboard`] holds only chunk-handle windows (`pool::SlabDeque`) into
/// this store, so a thousand mostly-idle flows share a few warm chunks
/// instead of each keeping cold private ring buffers.
pub struct SegStore {
    slab: SegSlab<SegState>,
    stamps: SegSlab<TxStamp>,
}

impl SegStore {
    /// An empty store.
    pub fn new() -> Self {
        SegStore {
            slab: SegSlab::new(),
            stamps: SegSlab::new(),
        }
    }

    /// Stamp-ring counters `(takes, reuses, misses)`; the three methods
    /// below are the segment slab's.
    pub(crate) fn stamp_stats(&self) -> (u64, u64, u64) {
        (
            self.stamps.takes(),
            self.stamps.reuses(),
            self.stamps.misses(),
        )
    }

    /// Chunk allocations that had to grow the backing storage (cold).
    pub(crate) fn misses(&self) -> u64 {
        self.slab.misses()
    }

    /// Total chunk allocations.
    pub(crate) fn takes(&self) -> u64 {
        self.slab.takes()
    }

    /// Chunk allocations served from the free list (warm).
    pub(crate) fn reuses(&self) -> u64 {
        self.slab.reuses()
    }
}

impl Default for SegStore {
    fn default() -> Self {
        Self::new()
    }
}

/// Total sequences covered by a sorted run list.
fn runs_len(runs: &[(u64, u64)]) -> u64 {
    runs.iter().map(|&(lo, hi)| hi - lo).sum()
}

/// Insert `[lo, hi)` into sorted disjoint `runs`, merging overlaps and
/// adjacency.
fn runs_insert(runs: &mut Vec<(u64, u64)>, lo: u64, hi: u64) {
    if lo >= hi {
        return;
    }
    let i = runs.partition_point(|&(_, rhi)| rhi < lo);
    let (mut nlo, mut nhi) = (lo, hi);
    let mut j = i;
    while j < runs.len() && runs[j].0 <= nhi {
        nlo = nlo.min(runs[j].0);
        nhi = nhi.max(runs[j].1);
        j += 1;
    }
    runs.splice(i..j, std::iter::once((nlo, nhi)));
}

/// Remove `[lo, hi)` from sorted disjoint `runs`, splitting as needed.
fn runs_subtract(runs: &mut Vec<(u64, u64)>, lo: u64, hi: u64) {
    if lo >= hi {
        return;
    }
    let i = runs.partition_point(|&(_, rhi)| rhi <= lo);
    let mut j = i;
    let mut head = None;
    let mut tail = None;
    while j < runs.len() && runs[j].0 < hi {
        let (rlo, rhi) = runs[j];
        if rlo < lo {
            head = Some((rlo, lo));
        }
        if rhi > hi {
            tail = Some((hi, rhi));
        }
        j += 1;
    }
    runs.splice(i..j, head.into_iter().chain(tail));
}

/// Drop everything below `una` from sorted disjoint `runs`.
fn runs_trim_below(runs: &mut Vec<(u64, u64)>, una: u64) {
    let k = runs.partition_point(|&(_, rhi)| rhi <= una);
    runs.drain(..k);
    if let Some(first) = runs.first_mut() {
        if first.0 < una {
            first.0 = una;
        }
    }
}

/// [`runs_subtract`] for hole runs (clipped pieces keep their `last_tx`).
fn holes_subtract(runs: &mut Vec<HoleRun>, lo: u64, hi: u64) {
    if lo >= hi {
        return;
    }
    let i = runs.partition_point(|r| r.hi <= lo);
    let mut j = i;
    let mut head = None;
    let mut tail = None;
    while j < runs.len() && runs[j].lo < hi {
        let r = runs[j];
        if r.lo < lo {
            head = Some(HoleRun { hi: lo, ..r });
        }
        if r.hi > hi {
            tail = Some(HoleRun { lo: hi, ..r });
        }
        j += 1;
    }
    runs.splice(i..j, head.into_iter().chain(tail));
}

/// [`runs_trim_below`] for hole runs.
fn holes_trim_below(runs: &mut Vec<HoleRun>, una: u64) {
    let k = runs.partition_point(|r| r.hi <= una);
    runs.drain(..k);
    if let Some(first) = runs.first_mut() {
        if first.lo < una {
            first.lo = una;
        }
    }
}

/// Per-flow sequence/SACK/loss state. Owns no segment storage and no
/// estimators: segment records and stamps live in a shared [`SegStore`]
/// and the RTT/rate state is borrowed per call, so the flow arena can keep
/// each in its own dense array.
///
/// Stamps are a ring with no reference counts. Stamp ids count up from
/// `stamp_base`, the id of the ring's front. Fresh data takes ids in
/// sequence order, and a segment's current id is never below its
/// first-send id, so no live segment references a stamp older than the
/// front segment's first send: each cumulative ACK pops exactly those,
/// and an empty window empties the ring (and restarts the ids at 0).
pub struct Scoreboard {
    mss: u64,
    snd_una: PktSeq,
    snd_nxt: PktSeq,
    /// Window of outstanding segments, as chunk handles into a [`SegStore`].
    segs: SlabDeque,
    /// The stamp ring: one [`TxStamp`] per send batch, as chunk handles
    /// into a [`SegStore`].
    stamps: SlabDeque,
    /// Id of the ring's front stamp.
    stamp_base: u32,
    sacked_out: u64,
    lost_out: u64,
    retrans_out: u64,
    /// Fast-recovery high-water mark: recovery ends when snd_una passes it.
    recovery_point: Option<PktSeq>,
    /// Total retransmitted packets over the connection (paper's §5.2.3
    /// shallow-buffer metric).
    total_retx: u64,
    /// Highest delivered (acked/sacked) send time, for RACK.
    rack_delivered_tx: SimTime,
    /// Run index over the scoreboard: merged runs of sequences currently
    /// marked `sacked`. Lets ACK processing skip already-SACKed spans of a
    /// reported range (the per-segment flags stay the ground truth).
    sacked_runs: Vec<(u64, u64)>,
    /// Run index: outstanding segments that are neither SACKed nor lost,
    /// grouped by transmission batch ([`HoleRun`]). Loss detection walks
    /// these runs instead of every segment.
    hole_runs: Vec<HoleRun>,
    /// Run index: segments marked lost and not yet retransmitted — the
    /// retransmission queue [`Scoreboard::plan_send_into`] consumes.
    retx_runs: Vec<(u64, u64)>,
}

impl Scoreboard {
    /// A fresh scoreboard for `mss`-byte packets.
    pub fn new(mss: u64) -> Self {
        Scoreboard {
            mss,
            snd_una: PktSeq::ZERO,
            snd_nxt: PktSeq::ZERO,
            segs: SlabDeque::new(),
            stamps: SlabDeque::new(),
            stamp_base: 0,
            sacked_out: 0,
            lost_out: 0,
            retrans_out: 0,
            recovery_point: None,
            total_retx: 0,
            rack_delivered_tx: SimTime::ZERO,
            sacked_runs: Vec::new(),
            hole_runs: Vec::new(),
            retx_runs: Vec::new(),
        }
    }

    /// Segment size in bytes.
    pub fn mss(&self) -> u64 {
        self.mss
    }

    /// Oldest unacknowledged sequence.
    pub fn snd_una(&self) -> PktSeq {
        self.snd_una
    }

    /// Next fresh sequence.
    pub fn snd_nxt(&self) -> PktSeq {
        self.snd_nxt
    }

    /// Packets currently outstanding (sent, not cumulatively acked).
    pub fn packets_out(&self) -> u64 {
        self.snd_nxt.since(self.snd_una)
    }

    /// The standard inflight estimate.
    pub fn packets_in_flight(&self) -> u64 {
        (self.packets_out() + self.retrans_out).saturating_sub(self.sacked_out + self.lost_out)
    }

    /// Whether any data is outstanding (drives the RTO timer).
    pub fn has_outstanding(&self) -> bool {
        !self.segs.is_empty()
    }

    /// Whether fast recovery is in progress.
    pub fn in_recovery(&self) -> bool {
        self.recovery_point.is_some()
    }

    /// Lifetime retransmission count.
    pub fn total_retx(&self) -> u64 {
        self.total_retx
    }

    /// Allocation-free transmission planning: fill a caller-owned plan
    /// (reusing its `runs` capacity) with retransmissions first, then new
    /// data, respecting `cwnd` and at most `max_pkts` in this buffer.
    /// Returns whether anything can be sent. The simulator's hot loop
    /// keeps one scratch plan per stack so steady-state sends never touch
    /// the heap.
    pub fn plan_send_into(&self, cwnd: u64, max_pkts: u64, plan: &mut SendPlan) -> bool {
        plan.runs.clear();
        plan.is_retx = false;
        if max_pkts == 0 {
            return false;
        }
        let inflight = self.packets_in_flight();
        if inflight >= cwnd {
            return false;
        }
        let budget = (cwnd - inflight).min(max_pkts);

        // Retransmissions first: `retx_runs` indexes exactly the segments
        // that are lost and not yet retransmitted (`lost && last_tx ==
        // sent_at`), already merged into maximal in-order runs — the same
        // plan a full scoreboard scan used to produce, without the
        // O(window) walk.
        if !self.retx_runs.is_empty() {
            let mut count = 0u64;
            for &(lo, hi) in &self.retx_runs {
                if count == budget {
                    break;
                }
                let take = (hi - lo).min(budget - count);
                plan.runs.push((PktSeq(lo), PktSeq(lo + take)));
                count += take;
            }
            plan.is_retx = true;
            return true;
        }

        // New data: a contiguous run from snd_nxt (infinite bulk source).
        plan.runs.push((self.snd_nxt, self.snd_nxt.advance(budget)));
        true
    }

    /// Record that a plan was transmitted at `now`. `pacing_limited` marks
    /// sends released after a pacer-created idle drained the flight.
    pub fn on_sent(
        &mut self,
        store: &mut SegStore,
        rate: &mut RateSampler,
        plan: &SendPlan,
        now: SimTime,
        pacing_limited: bool,
    ) {
        if plan.runs.is_empty() {
            return; // nothing sent: the flight clock must not restart
        }
        if plan.is_retx {
            // Re-stamp, as the kernel does on retransmission: a rate sample
            // taken against the original stamp would span the whole loss
            // episode and poison the bandwidth filter. Every packet of the
            // plan leaves in one batch and shares one stamp.
            let id = self.push_stamp(store, rate.on_send(now, false, pacing_limited));
            for &(lo, hi) in &plan.runs {
                // The run leaves the retransmission queue; the per-segment
                // loop below re-inserts the (degenerate) case where the
                // retransmission shares the original send's timestamp and
                // the segment therefore stays eligible.
                runs_subtract(&mut self.retx_runs, lo.0, hi.0);
                let first =
                    lo.0.checked_sub(self.snd_una.0)
                        .expect("retransmitting unknown segment") as usize;
                let n = hi.0 - lo.0;
                let last = first + n as usize;
                assert!(last <= self.segs.len(), "retransmitting unknown segment");
                let (ring, base) = (&self.stamps, self.stamp_base);
                let mut seq = lo.0;
                self.segs.for_each_mut(&mut store.slab, first, last, |seg| {
                    assert!(seg.lost(), "retransmitting a segment not marked lost");
                    seg.retransmit(id);
                    if ring_tx_time(ring, base, &store.stamps, seg.orig) == now {
                        runs_insert(&mut self.retx_runs, seq, seq + 1);
                    }
                    seq += 1;
                });
                self.retrans_out += n;
                self.total_retx += n;
            }
            return;
        }
        // One stamp per batch: the flight-start update happens before the
        // stamp is built, so every packet of the plan carries the same one.
        let flight_start = self.segs.is_empty();
        let seg = SegState::first_send(
            self.push_stamp(store, rate.on_send(now, flight_start, pacing_limited)),
        );
        for &(lo, hi) in &plan.runs {
            assert_eq!(lo, self.snd_nxt, "new data must start at snd_nxt");
            self.segs
                .push_back_n(&mut store.slab, seg, (hi.0 - lo.0) as usize);
            // Fresh data is a hole-run candidate: one batch, one `last_tx`.
            match self.hole_runs.last_mut() {
                Some(r) if r.hi == lo.0 && r.last_tx == now => r.hi = hi.0,
                _ => self.hole_runs.push(HoleRun {
                    lo: lo.0,
                    hi: hi.0,
                    last_tx: now,
                }),
            }
            self.snd_nxt = hi;
        }
    }

    /// Append `stamp` to the ring and return its id.
    fn push_stamp(&mut self, store: &mut SegStore, stamp: TxStamp) -> u32 {
        let id = self.stamp_base as usize + self.stamps.len();
        assert!(
            id <= SegState::ID_MASK as usize,
            "stamp id {id} collides with the segment flag bits"
        );
        self.stamps.push_back(&mut store.stamps, stamp);
        id as u32
    }

    /// The stamp with id `id`.
    #[inline]
    fn stamp<'a>(&self, stamps: &'a SegSlab<TxStamp>, id: u32) -> &'a TxStamp {
        self.stamps.get(stamps, (id - self.stamp_base) as usize)
    }

    /// The transmission time stamped on id `id`.
    #[inline]
    fn tx_time(&self, stamps: &SegSlab<TxStamp>, id: u32) -> SimTime {
        ring_tx_time(&self.stamps, self.stamp_base, stamps, id)
    }

    /// Pop every stamp older than the front segment's first send: no live
    /// segment can reference one.
    fn reclaim_stamps(&mut self, store: &mut SegStore) {
        let keep = if self.segs.is_empty() {
            self.stamp_base + self.stamps.len() as u32
        } else {
            self.segs.get(&store.slab, 0).orig
        };
        self.stamps
            .drop_front(&mut store.stamps, (keep - self.stamp_base) as usize);
        self.stamp_base = if self.stamps.is_empty() { 0 } else { keep };
    }

    /// RACK reorder window: a quarter of the smoothed RTT (floor 1 ms).
    fn reo_wnd(rtt: &RttEstimator) -> SimDuration {
        rtt.srtt()
            .map(|s| s / 4)
            .unwrap_or(SimDuration::from_millis(1))
            .max(SimDuration::from_millis(1))
    }

    /// Process an acknowledgement at `now`, sampling into the flow's RTT
    /// estimator and rate sampler.
    pub fn on_ack(
        &mut self,
        store: &mut SegStore,
        rtt: &mut RttEstimator,
        rate: &mut RateSampler,
        ack: &AckInfo,
        now: SimTime,
    ) -> AckOutcome {
        let mut out = AckOutcome::default();
        let mut newest = Newest::new();

        // --- Cumulative part: drop segments below ack.cum. ---
        let cum = ack.cum.min(self.snd_nxt); // ignore acks beyond sent data
        let advanced = self.snd_una < cum;
        if advanced {
            // Read the per-segment flags in place, then retire the whole
            // prefix with one head bump: a cumulative ACK covers a burst of
            // segments, and popping them one at a time would move each
            // record out of the slab just to drop it.
            debug_assert!(
                cum.0 - self.snd_una.0 <= self.segs.len() as u64,
                "scoreboard shorter than window"
            );
            let n = (cum.0 - self.snd_una.0) as usize;
            for &seg in self.segs.iter(&store.slab, 0, n) {
                if seg.sacked() {
                    self.sacked_out -= 1;
                } else {
                    out.newly_delivered += 1;
                }
                if seg.lost() {
                    self.lost_out -= 1;
                    if seg.retransmitted() {
                        self.retrans_out = self.retrans_out.saturating_sub(1);
                    }
                }
                newest.track(seg, |id| self.tx_time(&store.stamps, id));
            }
            // The ring keeps the dropped segments' stamps until the
            // samples below have read the newest one.
            self.segs.drop_front(&mut store.slab, n);
            self.snd_una = cum;
        }
        if advanced {
            runs_trim_below(&mut self.sacked_runs, self.snd_una.0);
            runs_trim_below(&mut self.retx_runs, self.snd_una.0);
            holes_trim_below(&mut self.hole_runs, self.snd_una.0);
        }

        // --- Selective part. ---
        // Everything inside `sacked_runs` was marked on an earlier ACK and
        // would no-op, so only the gaps of each reported range are visited
        // — O(newly SACKed) instead of O(range) per ACK.
        for &(lo, hi) in &ack.sacks {
            let lo = lo.max(self.snd_una).0;
            let hi = hi.0.min(self.snd_nxt.0);
            if lo >= hi {
                continue;
            }
            let mut cursor = lo;
            let mut ri = self.sacked_runs.partition_point(|&(_, rhi)| rhi <= cursor);
            while cursor < hi {
                // The gap before the next already-SACKed run (or the tail).
                let (gap_hi, next_cursor) = match self.sacked_runs.get(ri) {
                    Some(&(rlo, rhi)) if rlo < hi => (rlo.clamp(cursor, hi), rhi.max(cursor)),
                    _ => (hi, hi),
                };
                ri += 1;
                // `lo..hi` lies inside the window, so the gap does too.
                let first = (cursor - self.snd_una.0) as usize;
                let last = first + (gap_hi - cursor) as usize;
                let (ring, base) = (&self.stamps, self.stamp_base);
                self.segs.for_each_mut(&mut store.slab, first, last, |seg| {
                    if seg.sacked() {
                        return;
                    }
                    seg.set(SegState::SACKED, true);
                    self.sacked_out += 1;
                    out.newly_delivered += 1;
                    if seg.lost() {
                        // A "lost" segment arrived after all (or its
                        // retransmission did).
                        seg.set(SegState::LOST, false);
                        self.lost_out -= 1;
                        if seg.retransmitted() {
                            self.retrans_out = self.retrans_out.saturating_sub(1);
                        }
                    }
                    newest.track(*seg, |id| ring_tx_time(ring, base, &store.stamps, id));
                });
                if gap_hi > cursor {
                    // Newly SACKed sequences leave the hole and retx indexes.
                    holes_subtract(&mut self.hole_runs, cursor, gap_hi);
                    runs_subtract(&mut self.retx_runs, cursor, gap_hi);
                }
                cursor = next_cursor;
            }
            runs_insert(&mut self.sacked_runs, lo, hi);
        }

        out.is_duplicate = out.newly_delivered == 0;

        // --- RTT + rate samples from the newest delivered segment. ---
        if let Some((last_tx, seg)) = newest.best {
            if !seg.retransmitted() {
                // Karn's rule: never sample retransmitted segments.
                let sample = now.saturating_since(last_tx);
                rtt.sample(sample);
                out.rtt_sample = Some(sample);
            }
            self.rack_delivered_tx = self.rack_delivered_tx.max(last_tx);
            let stamp = self.stamp(&store.stamps, seg.cur_id());
            out.prior_delivered = stamp.delivered();
            out.pacing_limited = stamp.pacing_limited();
            out.rate_sample = rate.on_ack(now, out.newly_delivered, stamp);
        }
        if advanced {
            self.reclaim_stamps(store);
        }

        // --- Loss detection (dup threshold + RACK time threshold). ---
        out.newly_lost = self.detect_losses(store, rtt);

        // --- Recovery state. ---
        match self.recovery_point {
            None => {
                if out.newly_lost > 0 {
                    self.recovery_point = Some(self.snd_nxt);
                    out.recovery_entered = true;
                }
            }
            Some(point) => {
                if self.snd_una >= point && self.lost_out == 0 {
                    self.recovery_point = None;
                    out.recovery_exited = true;
                } else if out.newly_lost > 0 {
                    // Fresh losses within recovery extend it implicitly.
                }
            }
        }

        self.assert_invariants(store);
        out
    }

    /// Scan for holes that the evidence now declares lost.
    ///
    /// Walks the hole-run index instead of every segment: a hole run is
    /// contiguous (no SACKed segment inside) and shares one `last_tx`, so
    /// both the dup-threshold and the RACK rule decide the whole run at
    /// once — one pass over O(runs), not O(window).
    fn detect_losses(&mut self, store: &mut SegStore, rtt: &RttEstimator) -> u64 {
        // Highest sacked seq and count of sacked segments above each hole.
        if self.sacked_out == 0 {
            return 0;
        }
        let reo = Self::reo_wnd(rtt);
        let rack_tx = self.rack_delivered_tx;
        // Count sacked segments from the tail (walking the SACKed-run
        // index in tandem) so each hole run knows how many deliveries
        // happened above it.
        let mut sacked_above = 0u64;
        let mut newly_lost = 0u64;
        let mut si = self.sacked_runs.len();
        let mut any_marked = false;
        for h in (0..self.hole_runs.len()).rev() {
            let run = self.hole_runs[h];
            while si > 0 && self.sacked_runs[si - 1].0 >= run.hi {
                sacked_above += self.sacked_runs[si - 1].1 - self.sacked_runs[si - 1].0;
                si -= 1;
            }
            let dup_rule = sacked_above >= DUP_THRESH;
            let rack_rule = sacked_above > 0 && rack_tx > run.last_tx + reo;
            if dup_rule || rack_rule {
                let first = (run.lo - self.snd_una.0) as usize;
                let len = run.hi - run.lo;
                self.segs
                    .for_each_mut(&mut store.slab, first, first + len as usize, |seg| {
                        debug_assert!(!seg.sacked() && !seg.lost(), "hole index out of sync");
                        seg.set(SegState::LOST, true);
                    });
                self.lost_out += len;
                newly_lost += len;
                // Freshly marked holes were never retransmitted, so they
                // join the retransmission queue wholesale.
                runs_insert(&mut self.retx_runs, run.lo, run.hi);
                self.hole_runs[h].hi = self.hole_runs[h].lo; // tombstone
                any_marked = true;
            }
        }
        if any_marked {
            self.hole_runs.retain(|r| r.hi > r.lo);
        }
        newly_lost
    }

    /// RTO expiry: everything outstanding and unsacked is presumed lost
    /// (`tcp_enter_loss`); retransmission state resets.
    pub fn on_rto(&mut self, store: &mut SegStore) -> u64 {
        let mut marked = 0;
        self.segs
            .for_each_mut(&mut store.slab, 0, self.segs.len(), |seg| {
                if seg.retransmitted() && seg.lost() {
                    self.retrans_out = self.retrans_out.saturating_sub(1);
                }
                if !seg.sacked() && !seg.lost() {
                    seg.set(SegState::LOST, true);
                    self.lost_out += 1;
                    marked += 1;
                }
                // Allow the retransmission to be re-sent.
                seg.rewind();
            });
        // Rebuild the run indexes: no holes remain, and every unSACKed
        // outstanding segment is now lost and eligible for retransmission
        // (the complement of the SACKed runs over the window).
        self.hole_runs.clear();
        self.retx_runs.clear();
        let mut cursor = self.snd_una.0;
        for &(slo, shi) in &self.sacked_runs {
            if cursor < slo {
                self.retx_runs.push((cursor, slo));
            }
            cursor = shi;
        }
        if cursor < self.snd_nxt.0 {
            self.retx_runs.push((cursor, self.snd_nxt.0));
        }
        self.recovery_point = None;
        self.assert_invariants(store);
        marked
    }

    #[inline]
    fn assert_invariants(&self, _store: &SegStore) {
        debug_assert_eq!(self.packets_out() as usize, self.segs.len());
        debug_assert!(self.sacked_out + self.lost_out <= self.packets_out() + self.retrans_out);
        // Run indexes partition the window: every outstanding segment is
        // exactly one of SACKed, lost, or a hole.
        debug_assert_eq!(runs_len(&self.sacked_runs), self.sacked_out);
        debug_assert_eq!(
            self.hole_runs.iter().map(|r| r.hi - r.lo).sum::<u64>(),
            self.packets_out() - self.sacked_out - self.lost_out,
        );
        debug_assert!(runs_len(&self.retx_runs) <= self.lost_out);
        debug_assert_eq!(self.stamps.is_empty(), self.segs.is_empty());
        #[cfg(test)]
        self.check_run_indexes(_store);
    }

    /// Full reconciliation of the run indexes against the per-segment
    /// flags — the ground truth. Test builds only: O(window) per ACK.
    #[cfg(test)]
    fn check_run_indexes(&self, store: &SegStore) {
        let mut sacked = Vec::new();
        let mut holes: Vec<HoleRun> = Vec::new();
        let mut retx = Vec::new();
        for i in 0..self.segs.len() {
            let seg = self.segs.get(&store.slab, i);
            let s = self.snd_una.0 + i as u64;
            let last_tx = self.tx_time(&store.stamps, seg.last_tx_id());
            if seg.sacked() {
                runs_insert(&mut sacked, s, s + 1);
            } else if !seg.lost() {
                match holes.last_mut() {
                    Some(r) if r.hi == s && r.last_tx == last_tx => r.hi = s + 1,
                    _ => holes.push(HoleRun {
                        lo: s,
                        hi: s + 1,
                        last_tx,
                    }),
                }
            }
            if seg.lost() && last_tx == self.tx_time(&store.stamps, seg.orig) {
                runs_insert(&mut retx, s, s + 1);
            }
        }
        self.check_stamp_ring(store);
        assert_eq!(self.sacked_runs, sacked, "sacked_runs out of sync");
        assert_eq!(self.retx_runs, retx, "retx_runs out of sync");
        let want: Vec<(u64, u64, SimTime)> =
            holes.iter().map(|r| (r.lo, r.hi, r.last_tx)).collect();
        let got: Vec<(u64, u64, SimTime)> = self
            .hole_runs
            .iter()
            .map(|r| (r.lo, r.hi, r.last_tx))
            .collect();
        assert_eq!(got, want, "hole_runs out of sync");
    }

    /// The stamp ring holds nothing older than the front segment's first
    /// send, is empty exactly when the window is, and covers every id a
    /// segment holds. Test builds only: O(window).
    #[cfg(test)]
    fn check_stamp_ring(&self, store: &SegStore) {
        if self.segs.is_empty() {
            assert!(self.stamps.is_empty(), "ring outlived the window");
            assert_eq!(self.stamp_base, 0, "ids restart with the ring");
            return;
        }
        let front = self.segs.get(&store.slab, 0);
        assert_eq!(self.stamp_base, front.orig, "ring holds a stale stamp");
        let end = self.stamp_base as usize + self.stamps.len();
        for i in 0..self.segs.len() {
            let seg = self.segs.get(&store.slab, i);
            assert!(
                seg.orig <= seg.cur_id(),
                "current stamp older than the first"
            );
            assert!((seg.cur_id() as usize) < end, "id past the ring's end");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::receiver::Receiver;

    /// One flow with private storage: the four pieces the arena keeps in
    /// parallel arrays, bundled so a test reads like a sender.
    struct Flow {
        board: Scoreboard,
        store: SegStore,
        rtt: RttEstimator,
        rate: RateSampler,
    }

    impl std::ops::Deref for Flow {
        type Target = Scoreboard;
        fn deref(&self) -> &Scoreboard {
            &self.board
        }
    }

    impl Flow {
        fn new(mss: u64) -> Self {
            Flow {
                board: Scoreboard::new(mss),
                store: SegStore::new(),
                rtt: RttEstimator::new(),
                rate: RateSampler::new(mss),
            }
        }

        fn plan_send(&self, cwnd: u64, max_pkts: u64) -> Option<SendPlan> {
            let mut plan = SendPlan::default();
            self.plan_send_into(cwnd, max_pkts, &mut plan)
                .then_some(plan)
        }

        fn on_sent(&mut self, plan: &SendPlan, now: SimTime, pacing_limited: bool) {
            self.board
                .on_sent(&mut self.store, &mut self.rate, plan, now, pacing_limited)
        }

        fn on_ack(&mut self, ack: &AckInfo, now: SimTime) -> AckOutcome {
            self.board
                .on_ack(&mut self.store, &mut self.rtt, &mut self.rate, ack, now)
        }

        fn on_rto(&mut self) -> u64 {
            self.board.on_rto(&mut self.store)
        }
    }

    fn send_n(s: &mut Flow, n: u64, at: SimTime) -> SendPlan {
        let plan = s.plan_send(u64::MAX, n).expect("plan");
        assert!(!plan.is_retx);
        s.on_sent(&plan, at, false);
        plan
    }

    fn cum_ack(cum: u64) -> AckInfo {
        AckInfo {
            cum: PktSeq(cum),
            sacks: vec![],
        }
    }

    fn sack(cum: u64, ranges: &[(u64, u64)]) -> AckInfo {
        AckInfo {
            cum: PktSeq(cum),
            sacks: ranges
                .iter()
                .map(|&(a, b)| (PktSeq(a), PktSeq(b)))
                .collect(),
        }
    }

    #[test]
    fn clean_ack_advances_and_samples_rtt() {
        let mut s = Flow::new(1448);
        send_n(&mut s, 10, SimTime::from_millis(0));
        assert_eq!(s.packets_in_flight(), 10);
        let out = s.on_ack(&cum_ack(10), SimTime::from_millis(20));
        assert_eq!(out.newly_delivered, 10);
        assert_eq!(s.packets_in_flight(), 0);
        assert_eq!(out.rtt_sample, Some(SimDuration::from_millis(20)));
        assert!(out.rate_sample.is_some());
        assert!(!out.is_duplicate);
        assert_eq!(s.snd_una(), PktSeq(10));
    }

    #[test]
    fn plan_respects_cwnd_and_buffer_limit() {
        let mut s = Flow::new(1448);
        let plan = s.plan_send(10, 4).unwrap();
        assert_eq!(plan.packets(), 4, "buffer limit binds");
        s.on_sent(&plan, SimTime::ZERO, false);
        let plan2 = s.plan_send(10, 100).unwrap();
        assert_eq!(plan2.packets(), 6, "cwnd limit binds");
        s.on_sent(&plan2, SimTime::ZERO, false);
        assert!(s.plan_send(10, 100).is_none(), "window full");
    }

    #[test]
    fn dup_threshold_marks_hole_lost() {
        let mut s = Flow::new(1448);
        send_n(&mut s, 10, SimTime::from_millis(0));
        // Packet 0 lost; 1..4 sacked (3 above the hole).
        let out = s.on_ack(&sack(0, &[(1, 4)]), SimTime::from_millis(20));
        assert_eq!(out.newly_delivered, 3);
        assert_eq!(out.newly_lost, 1, "3 SACKed above ⇒ hole lost");
        assert!(out.recovery_entered);
        assert!(s.in_recovery());
    }

    #[test]
    fn below_threshold_waits() {
        let mut s = Flow::new(1448);
        send_n(&mut s, 10, SimTime::from_millis(0));
        let out = s.on_ack(&sack(0, &[(1, 3)]), SimTime::from_millis(1));
        assert_eq!(out.newly_lost, 0, "only 2 SACKed above: not yet");
        assert!(!s.in_recovery());
    }

    #[test]
    fn rack_time_rule_catches_tail_loss() {
        let mut s = Flow::new(1448);
        // Establish srtt = 20 ms.
        send_n(&mut s, 1, SimTime::from_millis(0));
        s.on_ack(&cum_ack(1), SimTime::from_millis(20));
        // Send pkt 1 at t=30, pkt 2 at t=60 (well beyond reo_wnd = 5 ms).
        let p = s.plan_send(u64::MAX, 1).unwrap();
        s.on_sent(&p, SimTime::from_millis(30), false);
        let p = s.plan_send(u64::MAX, 1).unwrap();
        s.on_sent(&p, SimTime::from_millis(60), false);
        // Pkt 2 is sacked; pkt 1 (sent 30 ms earlier) must be RACK-lost
        // even though only one packet is above the hole.
        let out = s.on_ack(&sack(1, &[(2, 3)]), SimTime::from_millis(80));
        assert_eq!(out.newly_lost, 1, "RACK time rule");
    }

    #[test]
    fn retransmission_flow() {
        let mut s = Flow::new(1448);
        send_n(&mut s, 10, SimTime::from_millis(0));
        s.on_ack(&sack(0, &[(1, 5)]), SimTime::from_millis(20));
        assert_eq!(s.total_retx(), 0);
        // The retransmission plan covers exactly the lost head.
        let plan = s.plan_send(100, 10).unwrap();
        assert!(plan.is_retx);
        assert_eq!(plan.runs, vec![(PktSeq(0), PktSeq(1))]);
        s.on_sent(&plan, SimTime::from_millis(21), false);
        assert_eq!(s.total_retx(), 1);
        // Don't retransmit the same hole twice.
        let plan2 = s.plan_send(100, 10).unwrap();
        assert!(
            !plan2.is_retx,
            "hole already retransmitted; next is new data"
        );
        // The retransmission is delivered; recovery persists until snd_una
        // passes the recovery point (snd_nxt at entry = 10)…
        let out = s.on_ack(&cum_ack(5), SimTime::from_millis(40));
        assert!(
            !out.recovery_exited,
            "recovery holds until the high-water mark"
        );
        assert!(s.in_recovery());
        // …and completes when the whole pre-loss window is acked.
        let out = s.on_ack(&cum_ack(10), SimTime::from_millis(50));
        assert!(out.recovery_exited);
        assert!(!s.in_recovery());
    }

    #[test]
    fn karn_rule_skips_retransmitted_rtt() {
        let mut s = Flow::new(1448);
        send_n(&mut s, 5, SimTime::from_millis(0));
        s.on_ack(&sack(0, &[(1, 5)]), SimTime::from_millis(10));
        let plan = s.plan_send(100, 10).unwrap();
        s.on_sent(&plan, SimTime::from_millis(12), false);
        // Cum-ack of the retransmitted head: newest delivered is the
        // retransmitted packet 0 ⇒ no RTT sample.
        let out = s.on_ack(&cum_ack(5), SimTime::from_millis(30));
        assert!(
            out.rtt_sample.is_none(),
            "Karn: retransmitted segment not sampled"
        );
        assert_eq!(out.newly_delivered, 1);
    }

    #[test]
    fn duplicate_ack_flagged() {
        let mut s = Flow::new(1448);
        send_n(&mut s, 5, SimTime::ZERO);
        s.on_ack(&cum_ack(2), SimTime::from_millis(10));
        let out = s.on_ack(&cum_ack(2), SimTime::from_millis(11));
        assert!(out.is_duplicate);
        assert_eq!(out.newly_delivered, 0);
    }

    #[test]
    fn rto_marks_all_unsacked_lost() {
        let mut s = Flow::new(1448);
        send_n(&mut s, 10, SimTime::ZERO);
        s.on_ack(&sack(0, &[(4, 6)]), SimTime::from_millis(10));
        let marked = s.on_rto();
        assert_eq!(marked, 8, "10 outstanding − 2 sacked");
        assert_eq!(s.packets_in_flight(), 0, "everything unsacked is lost");
        // All lost packets become retransmittable.
        let plan = s.plan_send(100, 100).unwrap();
        assert!(plan.is_retx);
        assert_eq!(plan.packets(), 8);
    }

    #[test]
    fn inflight_identity_holds_through_scenario() {
        let mut s = Flow::new(1448);
        send_n(&mut s, 20, SimTime::ZERO);
        let check = |s: &Flow| {
            assert_eq!(
                s.packets_in_flight(),
                (s.packets_out() + s.board.retrans_out) - s.board.sacked_out - s.board.lost_out
            );
        };
        check(&s);
        s.on_ack(&sack(3, &[(6, 12)]), SimTime::from_millis(15));
        check(&s);
        let plan = s.plan_send(100, 100).unwrap();
        s.on_sent(&plan, SimTime::from_millis(16), false);
        check(&s);
        s.on_ack(&cum_ack(12), SimTime::from_millis(30));
        check(&s);
    }

    #[test]
    fn ack_beyond_sent_data_is_clamped() {
        let mut s = Flow::new(1448);
        send_n(&mut s, 5, SimTime::ZERO);
        // A (corrupt/stale) cumulative ack beyond snd_nxt must clamp, not
        // panic or corrupt the scoreboard.
        let out = s.on_ack(&cum_ack(1_000), SimTime::from_millis(10));
        assert_eq!(out.newly_delivered, 5);
        assert_eq!(s.snd_una(), PktSeq(5));
        assert_eq!(s.packets_out(), 0);
    }

    #[test]
    fn sack_below_snd_una_is_ignored() {
        let mut s = Flow::new(1448);
        send_n(&mut s, 10, SimTime::ZERO);
        s.on_ack(&cum_ack(6), SimTime::from_millis(10));
        // Stale SACK entirely below the cumulative point.
        let out = s.on_ack(&sack(6, &[(2, 5)]), SimTime::from_millis(11));
        assert_eq!(out.newly_delivered, 0);
        assert!(out.is_duplicate);
        assert_eq!(s.packets_in_flight(), 4);
    }

    #[test]
    fn duplicate_sack_of_same_range_counts_once() {
        let mut s = Flow::new(1448);
        send_n(&mut s, 10, SimTime::ZERO);
        let first = s.on_ack(&sack(0, &[(4, 6)]), SimTime::from_millis(10));
        assert_eq!(first.newly_delivered, 2);
        let second = s.on_ack(&sack(0, &[(4, 6)]), SimTime::from_millis(11));
        assert_eq!(second.newly_delivered, 0, "re-announced SACK adds nothing");
    }

    #[test]
    fn plan_send_zero_budget_is_none() {
        let s = Flow::new(1448);
        assert!(s.plan_send(10, 0).is_none());
        assert!(s.plan_send(0, 10).is_none());
    }

    #[test]
    fn rto_with_everything_sacked_marks_nothing() {
        let mut s = Flow::new(1448);
        send_n(&mut s, 4, SimTime::ZERO);
        s.on_ack(&sack(0, &[(0, 4)]), SimTime::from_millis(5));
        // Hole at nothing: everything above una is sacked (pure reorder);
        // RTO marks only unsacked segments.
        assert_eq!(s.on_rto(), 0);
    }

    #[test]
    fn recovery_spans_multiple_loss_waves() {
        let mut s = Flow::new(1448);
        send_n(&mut s, 20, SimTime::ZERO);
        // Wave 1: 0..2 lost.
        let out = s.on_ack(&sack(0, &[(2, 6)]), SimTime::from_millis(10));
        assert!(out.recovery_entered);
        // Wave 2 within the same recovery: more losses detected.
        let out = s.on_ack(&sack(0, &[(2, 6), (9, 13)]), SimTime::from_millis(12));
        assert!(!out.recovery_entered, "still the same episode");
        assert!(out.newly_lost > 0, "new holes marked");
        assert!(s.in_recovery());
    }

    #[test]
    fn retransmit_of_discontiguous_holes_in_one_plan() {
        let mut s = Flow::new(1448);
        send_n(&mut s, 12, SimTime::ZERO);
        s.on_ack(
            &sack(0, &[(1, 4), (5, 9), (10, 12)]),
            SimTime::from_millis(10),
        );
        let plan = s.plan_send(100, 10).expect("retransmissions pending");
        assert!(plan.is_retx);
        // Holes 0 and 4 have ≥3 SACKed packets above them; hole 9 has only
        // two (10, 11), so the dup-threshold correctly leaves it pending —
        // TCP stays conservative until more evidence arrives.
        assert_eq!(
            plan.runs,
            vec![(PktSeq(0), PktSeq(1)), (PktSeq(4), PktSeq(5))]
        );
        // More SACKs above hole 9 tip it over the threshold.
        let mut s2 = Flow::new(1448);
        send_n(&mut s2, 14, SimTime::ZERO);
        s2.on_ack(
            &sack(0, &[(1, 4), (5, 9), (10, 14)]),
            SimTime::from_millis(10),
        );
        let plan2 = s2.plan_send(100, 10).expect("retransmissions pending");
        assert_eq!(
            plan2.runs,
            vec![
                (PktSeq(0), PktSeq(1)),
                (PktSeq(4), PktSeq(5)),
                (PktSeq(9), PktSeq(10))
            ]
        );
    }

    #[test]
    fn sender_receiver_integration_with_loss() {
        // End-to-end: 20 packets, 5..8 dropped, retransmitted, converges.
        let mut s = Flow::new(1448);
        let mut r = Receiver::new();
        let plan = send_n(&mut s, 20, SimTime::ZERO);
        let (lo, hi) = plan.runs[0];
        // Deliver all but 5..8.
        r.on_data(lo, PktSeq(5));
        r.on_data(PktSeq(8), hi);
        let out = s.on_ack(&r.build_ack(), SimTime::from_millis(20));
        assert_eq!(out.newly_delivered, 17);
        assert_eq!(out.newly_lost, 3);
        // Retransmit the hole.
        let retx = s.plan_send(1000, 100).unwrap();
        assert!(retx.is_retx);
        assert_eq!(retx.runs, vec![(PktSeq(5), PktSeq(8))]);
        s.on_sent(&retx, SimTime::from_millis(21), false);
        for &(a, b) in &retx.runs {
            r.on_data(a, b);
        }
        let out = s.on_ack(&r.build_ack(), SimTime::from_millis(40));
        assert_eq!(out.newly_delivered, 3);
        assert!(out.recovery_exited);
        assert_eq!(s.packets_out(), 0);
        assert_eq!(s.rate.delivered(), 20);
        assert_eq!(r.total_received(), 20);
    }

    /// The plain 64-byte segment record that [`SegState`] and the stamp
    /// ring were packed from, kept as their reference semantics: every
    /// field its own word, the batch's stamp copied into every packet,
    /// nothing derived.
    mod reference {
        use super::*;

        #[derive(Debug, Clone)]
        pub(super) struct RefSeg {
            pub seq: PktSeq,
            pub sent_at: SimTime,
            pub stamp: TxStamp,
            pub sacked: bool,
            pub lost: bool,
            pub retx_count: u32,
            /// Time of the most recent (re)transmission.
            pub last_tx: SimTime,
        }

        const _: () = assert!(std::mem::size_of::<RefSeg>() == 64);

        impl RefSeg {
            pub fn first_send(seq: PktSeq, now: SimTime, stamp: &TxStamp) -> Self {
                RefSeg {
                    seq,
                    sent_at: now,
                    stamp: *stamp,
                    sacked: false,
                    lost: false,
                    retx_count: 0,
                    last_tx: now,
                }
            }

            pub fn retransmit(&mut self, now: SimTime, stamp: &TxStamp) {
                self.last_tx = now;
                self.stamp = *stamp;
                self.retx_count += 1;
            }

            pub fn rewind(&mut self) {
                self.last_tx = self.sent_at;
            }
        }
    }

    use reference::RefSeg;

    /// What one window segment reads back as: first send time, last
    /// transmission time, stamp, SACKed, lost, retransmitted.
    type SegView = (SimTime, SimTime, TxStamp, bool, bool, bool);

    impl RefSeg {
        fn view(&self) -> SegView {
            let Self {
                sent_at,
                last_tx,
                stamp,
                sacked,
                lost,
                ..
            } = *self;
            (sent_at, last_tx, stamp, sacked, lost, self.retx_count > 0)
        }
    }

    impl Flow {
        /// Window segment `i` as its record and the stamp ring resolve it.
        fn seg_view(&self, i: usize) -> SegView {
            let (b, stamps) = (&self.board, &self.store.stamps);
            let seg = b.segs.get(&self.store.slab, i);
            (
                b.tx_time(stamps, seg.orig),
                b.tx_time(stamps, seg.last_tx_id()),
                *b.stamp(stamps, seg.cur_id()),
                seg.sacked(),
                seg.lost(),
                seg.retransmitted(),
            )
        }
    }

    /// The reference sender: a window of [`RefSeg`]s, each stamped in full,
    /// beside its own rate sampler.
    struct RefFlow {
        una: u64,
        segs: std::collections::VecDeque<RefSeg>,
        rate: RateSampler,
    }

    /// What the reference expects of an [`AckOutcome`]: newly delivered,
    /// RTT sample, prior delivered, pacing-limited, rate sample.
    type AckView = (
        u64,
        Option<SimDuration>,
        u64,
        bool,
        Option<crate::rate::RateSample>,
    );

    impl RefFlow {
        fn on_sent(&mut self, plan: &SendPlan, now: SimTime, pacing_limited: bool) {
            let flight_start = !plan.is_retx && self.segs.is_empty();
            let stamp = self.rate.on_send(now, flight_start, pacing_limited);
            for &(lo, hi) in &plan.runs {
                for seq in lo.0..hi.0 {
                    if plan.is_retx {
                        self.segs[(seq - self.una) as usize].retransmit(now, &stamp);
                    } else {
                        self.segs
                            .push_back(RefSeg::first_send(PktSeq(seq), now, &stamp));
                    }
                }
            }
        }

        /// The most recently transmitted delivered segment, the first seen
        /// winning a tie: its last transmission time, stamp, and whether it
        /// was retransmitted.
        fn track(newest: &mut Option<(SimTime, TxStamp, bool)>, seg: &RefSeg) {
            match newest {
                Some((t, _, _)) if *t >= seg.last_tx => {}
                _ => *newest = Some((seg.last_tx, seg.stamp, seg.retx_count > 0)),
            }
        }

        fn on_ack(&mut self, ack: &AckInfo, now: SimTime) -> AckView {
            let mut newest = None;
            let mut delivered = 0;
            let nxt = self.una + self.segs.len() as u64;
            while self.una < ack.cum.0.min(nxt) {
                let seg = self.segs.pop_front().expect("window");
                delivered += u64::from(!seg.sacked);
                Self::track(&mut newest, &seg);
                self.una += 1;
            }
            for &(lo, hi) in &ack.sacks {
                for seq in lo.0.max(self.una)..hi.0.min(nxt) {
                    let seg = &mut self.segs[(seq - self.una) as usize];
                    if !seg.sacked {
                        seg.sacked = true;
                        seg.lost = false;
                        delivered += 1;
                        Self::track(&mut newest, seg);
                    }
                }
            }
            match newest {
                None => (delivered, None, 0, false, None),
                Some((last_tx, stamp, retx)) => (
                    delivered,
                    (!retx).then(|| now.saturating_since(last_tx)),
                    stamp.delivered(),
                    stamp.pacing_limited(),
                    self.rate.on_ack(now, delivered, &stamp),
                ),
            }
        }

        fn on_rto(&mut self) -> u64 {
            let mut marked = 0;
            for seg in &mut self.segs {
                if !seg.sacked && !seg.lost {
                    seg.lost = true;
                    marked += 1;
                }
                seg.rewind();
            }
            marked
        }
    }

    /// One step of a sender's life, `dt` nanoseconds after the last.
    #[derive(Debug, Clone)]
    enum BoardOp {
        /// Plan and send up to `max_pkts`: retransmissions first, so a
        /// small budget retransmits part of a batch.
        Send {
            dt: u64,
            max_pkts: u64,
            pacing_limited: bool,
        },
        /// Cumulatively ack `cum`/255 of the window, optionally SACKing
        /// `len` packets from `lo`/255 of the way above the new `snd_una`.
        Ack {
            dt: u64,
            cum: u8,
            sack: Option<(u8, u64)>,
        },
        Rto,
    }

    fn board_op_strategy() -> impl proptest::strategy::Strategy<Value = BoardOp> {
        use proptest::prelude::*;
        // `dt` is often zero: two batches in the same nanosecond are the
        // tie `track_newest` must break as the reference does, and a
        // retransmission in its first send's instant is the degenerate
        // case `on_sent` re-queues.
        let dt = || prop_oneof![Just(0u64).boxed(), (1u64..5_000_000).boxed()];
        let frac = || prop_oneof![Just(0u8).boxed(), any::<u8>().boxed()];
        let sack = prop_oneof![
            Just(None).boxed(),
            (any::<u8>(), 1u64..12).prop_map(Some).boxed(),
        ];
        prop_oneof![
            4 => (dt(), 1u64..20, any::<bool>())
                .prop_map(|(dt, max_pkts, pacing_limited)| BoardOp::Send {
                    dt,
                    max_pkts,
                    pacing_limited,
                })
                .boxed(),
            4 => (dt(), frac(), sack)
                .prop_map(|(dt, cum, sack)| BoardOp::Ack { dt, cum, sack })
                .boxed(),
            1 => Just(BoardOp::Rto).boxed(),
        ]
    }

    /// Scale `frac`/255 into `[lo, hi]`.
    fn lerp(lo: u64, hi: u64, frac: u8) -> u64 {
        lo + (hi - lo) * u64::from(frac) / 255
    }

    proptest::proptest! {
        /// The packed records and the stamp ring read back exactly what
        /// the plain per-packet records hold, after every step of any run
        /// of sends, partial retransmissions, SACKs, RTO rewinds and
        /// cumulative ACKs; every ACK's samples come from the stamp the
        /// reference picks; and the ring never outlives what it serves.
        #[test]
        fn packed_segment_matches_reference(
            ops in proptest::collection::vec(board_op_strategy(), 1..120),
        ) {
            use proptest::prelude::*;
            let mut flow = Flow::new(1448);
            let mut plain = RefFlow {
                una: 0,
                segs: Default::default(),
                rate: RateSampler::new(1448),
            };
            let mut now = SimTime::ZERO;
            for op in &ops {
                match *op {
                    BoardOp::Send { dt, max_pkts, pacing_limited } => {
                        now += SimDuration::from_nanos(dt);
                        let plan = flow.plan_send(u64::MAX, max_pkts).expect("unbounded cwnd");
                        flow.on_sent(&plan, now, pacing_limited);
                        plain.on_sent(&plan, now, pacing_limited);
                    }
                    BoardOp::Ack { dt, cum, sack } => {
                        now += SimDuration::from_nanos(dt);
                        let (una, nxt) = (flow.snd_una().0, flow.snd_nxt().0);
                        let cum = lerp(una, nxt, cum);
                        let sacks = sack
                            .map(|(lo, len)| {
                                let lo = lerp(cum, nxt, lo);
                                (PktSeq(lo), PktSeq((lo + len).min(nxt)))
                            })
                            .into_iter()
                            .collect();
                        let ack = AckInfo { cum: PktSeq(cum), sacks };
                        let out = flow.on_ack(&ack, now);
                        let want = plain.on_ack(&ack, now);
                        let got = (
                            out.newly_delivered,
                            out.rtt_sample,
                            out.prior_delivered,
                            out.pacing_limited,
                            out.rate_sample,
                        );
                        prop_assert_eq!(got, want, "outcome of {:?}", op);
                        // Loss detection is the scoreboard's own (its run
                        // indexes are reconciled with the flags on every
                        // ACK); the reference takes its new marks, on holes
                        // only.
                        for (i, seg) in plain.segs.iter_mut().enumerate() {
                            if !seg.sacked && !seg.lost && flow.seg_view(i).4 {
                                seg.lost = true;
                            }
                        }
                    }
                    BoardOp::Rto => {
                        prop_assert_eq!(flow.on_rto(), plain.on_rto());
                    }
                }
                prop_assert_eq!(flow.packets_out(), plain.segs.len() as u64);
                for (i, seg) in plain.segs.iter().enumerate() {
                    prop_assert_eq!(flow.seg_view(i), seg.view(), "seq {} after {:?}", seg.seq.0, op);
                }
                flow.board.check_stamp_ring(&flow.store);
            }
            prop_assert_eq!(flow.rate.delivered(), plain.rate.delivered());
        }
    }

    #[test]
    fn stamp_ring_is_reclaimed_with_the_window() {
        let t = SimTime::from_millis;
        let ring = |s: &Flow| (s.board.stamp_base, s.board.stamps.len());
        let mut s = Flow::new(1448);
        // Three batches of four: one stamp each.
        for ms in 0..3 {
            send_n(&mut s, 4, t(ms));
        }
        assert_eq!(ring(&s), (0, 3));
        // Acking into the second batch frees only the first one's stamp.
        s.on_ack(&cum_ack(6), t(20));
        assert_eq!(ring(&s), (1, 2));
        // Holes 6 and 7 are lost; retransmitting only 6 (part of the
        // second batch) adds one stamp.
        s.on_ack(&sack(6, &[(8, 12)]), t(21));
        let plan = s.plan_send(100, 1).expect("retransmission");
        assert_eq!(plan.runs, vec![(PktSeq(6), PktSeq(7))]);
        s.on_sent(&plan, t(22), false);
        assert_eq!(ring(&s), (1, 3));
        // Segment 7 is still the second batch's first send: nothing to pop.
        s.on_ack(&sack(7, &[(8, 12)]), t(30));
        assert_eq!(ring(&s), (1, 3));
        // An empty window empties the ring and restarts the ids.
        s.on_ack(&cum_ack(12), t(40));
        assert_eq!(ring(&s), (0, 0));
        send_n(&mut s, 2, t(41));
        assert_eq!(ring(&s), (0, 1));
        let stamps = &s.store.stamps;
        assert!(stamps.reuses() > 0, "the drained ring's chunk is reused");
        assert_eq!(stamps.misses(), stamps.takes() - stamps.reuses());
    }

    #[test]
    fn largest_delivered_count_round_trips_beside_every_flag() {
        let t = SimTime::from_millis;
        let max = TxStamp::DELIVERED_MAX;
        for pacing_limited in [false, true] {
            let stamp = TxStamp::new(max, t(1), t(2), t(3), pacing_limited);
            assert_eq!(stamp.delivered(), max);
            assert_eq!(stamp.pacing_limited(), pacing_limited);
            assert_eq!(
                (stamp.delivered_time, stamp.first_tx_time, stamp.tx_time),
                (t(1), t(2), t(3))
            );
        }
        // The record: the largest stamp ids beside every flag.
        let max = SegState::ID_MASK;
        let mut seg = SegState::first_send(max - 1);
        seg.set(SegState::SACKED, true);
        seg.set(SegState::LOST, true);
        seg.retransmit(max);
        seg.rewind();
        assert_eq!(
            (seg.orig, seg.cur_id(), seg.last_tx_id()),
            (max - 1, max, max - 1)
        );
        assert!(seg.sacked() && seg.lost() && seg.retransmitted());
        // A retransmission clears the rewind and nothing else.
        seg.retransmit(max);
        assert_eq!(seg.last_tx_id(), max);
        assert!(seg.sacked() && seg.lost() && seg.retransmitted());
    }

    #[test]
    #[should_panic(expected = "collides with the stamp's flag bit")]
    fn delivered_count_reaching_the_flag_bits_panics() {
        let zero = SimTime::ZERO;
        TxStamp::new(TxStamp::DELIVERED_MAX + 1, zero, zero, zero, false);
    }

    #[test]
    #[should_panic(expected = "collides with the segment flag bits")]
    fn stamp_id_reaching_the_flag_bits_panics() {
        let mut s = Flow::new(1448);
        s.board.stamp_base = SegState::ID_MASK; // one id left
        send_n(&mut s, 1, SimTime::ZERO);
        send_n(&mut s, 1, SimTime::from_millis(1));
    }

    #[test]
    fn scoreboard_slab_chunks_recycle_across_flows() {
        // Two scoreboards sharing one store: when one flow's window
        // drains, its chunks serve the other flow's growth.
        let mut store = SegStore::new();
        let mut rate_a = RateSampler::new(1448);
        let mut rate_b = RateSampler::new(1448);
        let mut rtt = RttEstimator::new();
        let mut a = Scoreboard::new(1448);
        let mut b = Scoreboard::new(1448);
        let mut plan = SendPlan::default();
        // Flow A sends a multi-chunk window, then fully drains it.
        assert!(a.plan_send_into(u64::MAX, 200, &mut plan));
        a.on_sent(&mut store, &mut rate_a, &plan, SimTime::ZERO, false);
        let cold = store.misses();
        assert!(cold >= 3, "200 packets must span several chunks");
        a.on_ack(
            &mut store,
            &mut rtt,
            &mut rate_a,
            &cum_ack(200),
            SimTime::from_millis(20),
        );
        // Flow B's window now reuses A's chunks: no new cold growth.
        assert!(b.plan_send_into(u64::MAX, 200, &mut plan));
        b.on_sent(
            &mut store,
            &mut rate_b,
            &plan,
            SimTime::from_millis(30),
            false,
        );
        assert_eq!(store.misses(), cold, "B must be served from A's chunks");
        assert!(store.reuses() > 0);
        assert_eq!(store.misses(), store.takes() - store.reuses());
    }
}
