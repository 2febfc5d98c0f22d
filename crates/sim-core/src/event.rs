//! The discrete-event queue.
//!
//! [`EventQueue<E>`] is a priority queue of `(SimTime, E)` pairs with three
//! properties the reproduction depends on:
//!
//! 1. **Determinism.** Events at equal timestamps pop in the order they were
//!    scheduled (FIFO tie-break). The wheel preserves this structurally:
//!    every per-slot list is appended in schedule order, and cascades walk
//!    head→tail, so arrival order within a timestamp is never disturbed.
//! 2. **Cancellation.** TCP re-arms its RTO on every ACK and its pacing timer
//!    on every send; both need cheap cancellation. Scheduling returns a
//!    [`TimerToken`]; cancelling unlinks the cell in O(1).
//! 3. **Monotonic clock.** The queue tracks `now` and rejects scheduling in
//!    the past, which turns subtle causality bugs into loud panics.
//!
//! # Implementation: hierarchical timer wheel over a slab
//!
//! The queue is a kernel-style hierarchical timer wheel: `LEVELS` (6) levels of
//! 64 slots each, covering `SimTime` nanoseconds. An event at absolute time
//! `at` lives at the level of the highest bit in which `at` differs from the
//! wheel's `elapsed` cursor (6 bits per level), in the slot given by `at`'s
//! bit-field at that level. Level 0 slots therefore hold events whose firing
//! time is *exactly known* (one slot per nanosecond within the current 64 ns
//! block); higher levels hold coarser blocks that are **cascaded** — re-placed
//! one level down — when the cursor enters their block. Events beyond the
//! wheel horizon (2^36 ns ≈ 68.7 s past `elapsed`; reachable, since RTO
//! backoff goes to 120 s) sit in an unsorted overflow list that is only
//! consulted when the wheel itself is empty.
//!
//! Event payloads live in a **slab** of cells linked into intrusive doubly
//! linked per-slot lists. Freed cells are recycled through an intrusive free
//! list, so steady-state schedule/cancel/pop does **zero heap allocation**.
//! [`TimerToken`]s are generation-tagged slab indices: freeing a cell bumps
//! its generation, so a stale token held across a fire or cancel can never
//! act on the cell's next occupant.
//!
//! `schedule_at` and `cancel` are O(1); `pop` is O(1) amortised (cascades
//! touch each event at most `LEVELS` times over its lifetime). There is no
//! hashing and no per-event allocation anywhere on the hot path.
//!
//! ## Why pop order is identical to the old binary heap's
//!
//! The previous implementation popped by `(at, seq)` where `seq` was a global
//! schedule counter. The wheel reproduces that order exactly:
//!
//! * Same-time events always share a slot (their bits are identical), and
//!   every insertion — direct or via cascade — appends at the tail. A cell's
//!   placement is always a pure function of `(at, elapsed)`, and the cursor
//!   enters a time block only after cascading that block's slot, so an
//!   earlier-scheduled event has always already been moved into whichever
//!   list a later same-time event lands in. List order therefore equals
//!   schedule order.
//! * Across different times, lower levels fire before higher levels and
//!   lower slots before higher slots, which is exactly ascending `at`.
//! * Overflow events differ from every wheel event above bit 35, so they are
//!   strictly later than everything in the wheel; the overflow list is only
//!   drained (earliest block first, in schedule order) once the wheel is
//!   empty.
//!
//! This contract is enforced by a differential property test
//! (`event/differential.rs`) against the retained heap implementation in
//! `event/reference.rs`; both are test builds only.
//!
//! # Batched dispatch: same-timestamp runs
//!
//! Discrete-event simulators spend their lives in the pop loop, and the
//! common case is a *run*: several events sharing one timestamp (a burst of
//! packet arrivals, coincident pacing timers). [`EventQueue::pop_run_first`]
//! pops an entire run in one call — one occupancy scan, one slot detach —
//! instead of re-walking the wheel per event. It delivers the run's head
//! and *stages* the rest: [`EventQueue::run_next`] hands the staged events
//! out one at a time, and until a staged event is handed out it can still
//! be cancelled (a handler early in the run may cancel a timer that shares
//! its timestamp; the cancel must win). [`EventQueue::pop`] is the same
//! stream one event at a time — `run_next`, else `pop_run_first` — so there
//! is one wheel walk.
//!
//! Run order is schedule order by construction: a level-0 slot is one exact
//! nanosecond, its list is appended in schedule order, and `pop_run_first`
//! walks the list head→tail. The clock advances to the run's timestamp when
//! the run is popped, so if every staged tail event is then cancelled the
//! clock still reads the run's timestamp — which is still monotone and
//! still at most the next pending event's time. The differential proptest
//! extends over batched dispatch (including mid-run cancellation) to prove
//! run order equals the heap's `(at, seq)` order.
//!
//! The event payload `E` is chosen by the layer that owns the simulation
//! (the TCP stack simulator defines an event enum covering timer fires,
//! packet arrivals, and CPU completions).

use crate::time::{SimDuration, SimTime};

#[cfg(test)]
mod differential;
#[cfg(test)]
mod reference;

/// Bits per wheel level (64 slots).
const LEVEL_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << LEVEL_BITS;
/// Number of wheel levels. Six levels give a 2^36 ns ≈ 68.7 s horizon, which
/// keeps RTO-scale timers (seconds) in the wheel; only backed-off RTOs
/// (up to 120 s) reach the overflow list.
const LEVELS: usize = 6;
/// Total bits covered by the wheel; times differing from `elapsed` at or
/// above this bit go to the overflow list.
const WHEEL_BITS: u32 = LEVEL_BITS * LEVELS as u32;
/// Null link / "no cell" sentinel for slab indices.
const NIL: u32 = u32::MAX;
/// An empty slot: head and tail both [`NIL`] in one packed word.
const NIL_PAIR: u64 = (NIL as u64) << 32 | NIL as u64;

/// Head (first-popped end) of a packed head/tail slot word.
#[inline(always)]
fn pair_head(s: u64) -> u32 {
    s as u32
}

/// Tail (append end) of a packed head/tail slot word.
#[inline(always)]
fn pair_tail(s: u64) -> u32 {
    (s >> 32) as u32
}

/// Handle to a scheduled event, used for cancellation.
///
/// A token is a generation-tagged slab index: it stays valid until its event
/// fires or is cancelled, after which the cell's generation is bumped and the
/// token goes permanently stale (cancelling it returns `false`, even if the
/// cell has been recycled for a new event).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TimerToken(u64);

impl TimerToken {
    fn new(gen: u32, idx: u32) -> Self {
        TimerToken(((gen as u64) << 32) | idx as u64)
    }

    fn idx(self) -> u32 {
        (self.0 & 0xFFFF_FFFF) as u32
    }

    fn gen(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// An event popped from the queue: when it fires and its payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduledEvent<E> {
    /// The instant the event fires; the queue's clock has advanced to this.
    pub at: SimTime,
    /// Token under which the event was scheduled.
    pub token: TimerToken,
    /// Caller-defined payload.
    pub event: E,
}

/// Where a slab cell currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Loc {
    /// On the free list (no pending event; `next` threads the free list).
    Free,
    /// On the far-future overflow list.
    Overflow,
    /// In wheel list `level`/`slot`.
    Wheel { level: u8, slot: u8 },
    /// Popped as part of a run by [`EventQueue::pop_run_first`] but not yet
    /// handed out by [`EventQueue::run_next`]: off every list, still cancellable.
    Staged,
}

struct Cell<E> {
    at: SimTime,
    gen: u32,
    prev: u32,
    next: u32,
    loc: Loc,
    event: Option<E>,
}

/// Deterministic discrete-event priority queue (hierarchical timer wheel).
///
/// ```
/// use sim_core::event::EventQueue;
/// use sim_core::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.schedule_at(SimTime::from_millis(2), "later");
/// let tok = q.schedule_at(SimTime::from_millis(1), "sooner");
/// q.cancel(tok);
/// let ev = q.pop().unwrap();
/// assert_eq!(ev.event, "later");
/// assert_eq!(q.now(), SimTime::from_millis(2));
/// ```
pub struct EventQueue<E> {
    /// Slab of event cells; indices are stable, cells are recycled.
    cells: Vec<Cell<E>>,
    /// Head of the intrusive free list (threaded through `Cell::next`).
    free_head: u32,
    /// Per-slot list head/tail pairs (head in the low half, tail in the
    /// high half — one load/store per list edit), indexed
    /// `level * SLOTS + slot`. Appends are O(1) via the tail.
    slots: [u64; LEVELS * SLOTS],
    /// Per-level occupancy bitmask: bit `s` set iff slot `s` is non-empty.
    occ: [u64; LEVELS],
    /// Level occupancy: bit `l` set iff `occ[l] != 0`. Lets `pop` find the
    /// lowest non-empty level with one `trailing_zeros` instead of a scan.
    level_occ: u8,
    /// Far-future overflow list (insertion order == schedule order).
    ovf_head: u32,
    ovf_tail: u32,
    /// Wheel cursor in nanos. Equal to `now` between calls; `pop` advances it
    /// through cascade block starts internally.
    elapsed: u64,
    now: SimTime,
    /// The current staged run: `(idx, gen)` of cells popped by
    /// [`Self::pop_run_first`] but not yet dispatched by [`Self::run_next`]. A
    /// staged cell that is cancelled gets its generation bumped, so its
    /// entry here goes stale and `run_next` skips it.
    run: Vec<(u32, u32)>,
    /// Next undispatched entry in `run`.
    run_cursor: usize,
    /// Timestamp shared by every event in the current staged run.
    run_at: SimTime,
    len: usize,
    popped: u64,
    scheduled: u64,
    cancelled: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue with the clock at t = 0.
    pub fn new() -> Self {
        EventQueue {
            cells: Vec::new(),
            free_head: NIL,
            slots: [NIL_PAIR; LEVELS * SLOTS],
            occ: [0; LEVELS],
            level_occ: 0,
            ovf_head: NIL,
            ovf_tail: NIL,
            elapsed: 0,
            now: SimTime::ZERO,
            run: Vec::new(),
            run_cursor: 0,
            run_at: SimTime::ZERO,
            len: 0,
            popped: 0,
            scheduled: 0,
            cancelled: 0,
        }
    }

    /// Current simulation time: the timestamp of the last popped event
    /// (t = 0 before the first pop).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of events ever popped (for engine statistics).
    pub fn popped(&self) -> u64 {
        self.popped
    }

    /// Total number of events ever scheduled. Together with
    /// [`Self::popped`], [`Self::cancelled`] and [`Self::len`] this gives
    /// the wheel's conservation law — `scheduled == popped + cancelled +
    /// len` at every instant — which the simcheck oracles assert after
    /// every fuzzed run (a broken slab/token path would break it).
    pub fn scheduled(&self) -> u64 {
        self.scheduled
    }

    /// Total number of events ever cancelled (successful [`Self::cancel`]
    /// calls; stale-token calls do not count).
    pub fn cancelled(&self) -> u64 {
        self.cancelled
    }

    /// Schedule `event` to fire at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is before the current clock: an event scheduled in the
    /// past is a causality bug in the caller, never a recoverable condition.
    pub fn schedule_at(&mut self, at: SimTime, event: E) -> TimerToken {
        assert!(
            at >= self.now,
            "attempted to schedule an event in the past: at={at:?} < now={:?}",
            self.now
        );
        let idx = self.alloc(at, event);
        self.place(idx, at.as_nanos());
        self.len += 1;
        self.scheduled += 1;
        TimerToken::new(self.cells[idx as usize].gen, idx)
    }

    /// Schedule `event` to fire `delay` after the current clock.
    pub fn schedule_after(&mut self, delay: SimDuration, event: E) -> TimerToken {
        self.schedule_at(self.now + delay, event)
    }

    /// Cancel a previously scheduled event. Returns `true` if the event was
    /// still pending (i.e. this call actually cancelled something).
    ///
    /// Cancellation is eager and O(1): the cell is unlinked from its slot
    /// list and recycled immediately. A token whose event already fired or
    /// was cancelled is stale (the generation no longer matches) and returns
    /// `false`, even if the cell now hosts a different event.
    pub fn cancel(&mut self, token: TimerToken) -> bool {
        let idx = token.idx();
        match self.cells.get(idx as usize) {
            // A generation match alone proves the event is pending: `release`
            // bumps the generation, and a freed cell's current generation is
            // only ever issued in a token after the cell is re-allocated.
            Some(c) if c.gen == token.gen() => {
                debug_assert!(c.loc != Loc::Free, "gen matched a free cell");
                self.unlink(idx);
                self.release(idx);
                self.len -= 1;
                self.cancelled += 1;
                true
            }
            _ => false,
        }
    }

    /// Pop the next event, advancing the clock to its timestamp.
    /// Returns `None` when the queue is empty.
    ///
    /// One event of the batched stream: whatever is still staged from the
    /// current run is delivered first, then the next run is popped with
    /// [`Self::pop_run_first`] — so `pop` and the batched API walk the
    /// wheel with the same code and observe the same single stream. A
    /// run's tail waits staged between calls: still cancellable, and
    /// delivered before anything scheduled later at the same timestamp.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        self.run_next().or_else(|| self.pop_run_first())
    }

    /// Pop the entire earliest same-timestamp run in one call, advancing the
    /// clock to its timestamp: deliver the run's first event directly and
    /// *stage* the remainder for [`Self::run_next`] / [`Self::run_peek`].
    /// Returns `None` when the queue is empty.
    ///
    /// Until a staged event is handed out it remains cancellable — a
    /// handler dispatched early in the run may [`Self::cancel`] a later
    /// event of the same run and the cancel wins, exactly as under
    /// one-at-a-time [`Self::pop`]. Events scheduled *at* the run's
    /// timestamp while it drains fire after the staged events, matching
    /// `pop`'s FIFO tie-break.
    ///
    /// Run order is `pop` order: a level-0 slot holds exactly one
    /// nanosecond's events in schedule order, so one slot detach yields the
    /// whole run without re-walking the wheel per event. The head is handed
    /// out eagerly because nothing can cancel it first (no handler runs
    /// before it); singleton runs (the dominant shape: one timer alone in
    /// its slot) never touch the staging buffer at all.
    ///
    /// # Panics
    /// In debug builds, panics if the previous run has undispatched live
    /// events — drain with [`Self::run_next`] (or [`Self::pop`]) first.
    pub fn pop_run_first(&mut self) -> Option<ScheduledEvent<E>> {
        debug_assert!(
            !self.run_pending(),
            "pop_run_first called with an undispatched staged run"
        );
        self.run.clear();
        self.run_cursor = 0;
        if self.len == 0 {
            return None;
        }
        loop {
            let level = self.level_occ.trailing_zeros() as usize;
            if level == 0 {
                // One level-0 slot == one nanosecond == one run: deliver the
                // list head, stage the tail (schedule order).
                let slot = self.occ[0].trailing_zeros() as usize;
                debug_assert!(slot as u64 >= (self.elapsed & (SLOTS as u64 - 1)));
                let head = pair_head(self.slots[slot]);
                let at = self.cells[head as usize].at;
                let mut idx = self.cells[head as usize].next;
                while idx != NIL {
                    let c = &mut self.cells[idx as usize];
                    debug_assert_eq!(c.at, at, "level-0 slot mixes timestamps");
                    c.loc = Loc::Staged;
                    self.run.push((idx, c.gen));
                    idx = c.next;
                }
                self.slots[slot] = NIL_PAIR;
                self.occ[0] &= !(1u64 << slot);
                if self.occ[0] == 0 {
                    self.level_occ &= !1;
                }
                debug_assert!(at >= self.now, "event queue time went backwards");
                self.now = at;
                self.elapsed = at.as_nanos();
                self.run_at = at;
                return Some(self.deliver(head));
            } else if level < LEVELS {
                let slot = self.occ[level].trailing_zeros() as usize;
                let li = level * SLOTS + slot;
                // Sparse fast path: a single-occupant slot at the lowest
                // non-empty level *is* the global minimum (same-time events
                // always share a slot, later slots/levels/overflow are
                // strictly later) and a run of one, so it is delivered
                // without staging anything. The cursor stays put — every
                // other event's placement remains valid — which makes the
                // dominant simulator pattern (a handful of timers, each
                // alone in its slot) cascade-free. Both links are NIL by
                // construction, so the unlink is one store and a bit clear.
                let pair = self.slots[li];
                if pair_head(pair) == pair_tail(pair) {
                    let idx = pair_head(pair);
                    self.slots[li] = NIL_PAIR;
                    self.occ[level] &= !(1u64 << slot);
                    if self.occ[level] == 0 {
                        self.level_occ &= !(1u8 << level);
                    }
                    let at = self.cells[idx as usize].at;
                    debug_assert!(at >= self.now, "event queue time went backwards");
                    self.now = at;
                    self.run_at = at;
                    return Some(self.deliver(idx));
                }
                self.cascade(level, slot, pair);
            } else {
                self.pull_overflow();
            }
        }
    }

    /// Hand the pending cell `idx` — already off every list — to the caller:
    /// recycle the cell and account the pop.
    #[inline(always)]
    fn deliver(&mut self, idx: u32) -> ScheduledEvent<E> {
        let gen = self.cells[idx as usize].gen;
        let (at, event) = self.release(idx);
        self.len -= 1;
        self.popped += 1;
        ScheduledEvent {
            at,
            token: TimerToken::new(gen, idx),
            event: event.expect("pending cell holds a payload"),
        }
    }

    /// Dispatch the next live event of the staged run popped by
    /// [`Self::pop_run_first`]. Returns `None` once the run is exhausted (staged
    /// events cancelled in the meantime are skipped, not delivered).
    pub fn run_next(&mut self) -> Option<ScheduledEvent<E>> {
        while self.run_cursor < self.run.len() {
            let (idx, gen) = self.run[self.run_cursor];
            self.run_cursor += 1;
            let c = &self.cells[idx as usize];
            if c.gen != gen {
                // Cancelled while staged: `release` bumped the generation,
                // leaving this entry stale.
                continue;
            }
            debug_assert!(c.loc == Loc::Staged, "live staged entry not staged");
            debug_assert_eq!(c.at, self.run_at, "staged run mixes timestamps");
            return Some(self.deliver(idx));
        }
        None
    }

    /// Preview the event [`Self::run_next`] would dispatch next, without
    /// consuming it. `None` once the current run is exhausted.
    ///
    /// This is what lets a dispatch loop coalesce consecutive same-kind
    /// events (e.g. a burst of ACK arrivals for one connection) into a
    /// single batched handler pass: peek, test, then `run_next` to commit.
    pub fn run_peek(&self) -> Option<&E> {
        self.run[self.run_cursor..]
            .iter()
            .find(|&&(idx, gen)| self.cells[idx as usize].gen == gen)
            .map(|&(idx, _)| {
                self.cells[idx as usize]
                    .event
                    .as_ref()
                    .expect("staged cell holds a payload")
            })
    }

    /// True if the current staged run still holds undispatched live events.
    fn run_pending(&self) -> bool {
        self.run[self.run_cursor..]
            .iter()
            .any(|&(idx, gen)| self.cells[idx as usize].gen == gen)
    }

    /// Cascade wheel slot `level`/`slot` (content `pair`, multi-occupant)
    /// one or more levels down, advancing the cursor to the earliest
    /// timestamp in the block.
    ///
    /// The cursor jumps to the *earliest timestamp in the block*, not the
    /// block start: every other pending event lives in a strictly later
    /// block (higher slot at this level, or a higher level, or overflow),
    /// so `elapsed = min_at` keeps the cursor ≤ every pending event while
    /// letting a sparse block's earliest event re-place directly into level
    /// 0 instead of cascading once per intermediate level. This is what
    /// makes the single-timer rearm pattern (one flow re-arming its pacing
    /// timer) one cascade per pop rather than `level`. Re-placement walks
    /// head→tail so schedule order is preserved.
    ///
    /// Inlined into `pop_run_first`: the cascade is on the pop hot
    /// path whenever timers live above level 0 (every pacing/RTO re-arm
    /// pattern).
    #[inline]
    fn cascade(&mut self, level: usize, slot: usize, pair: u64) {
        let li = level * SLOTS + slot;
        debug_assert_eq!(self.slots[li], pair);
        let mut min_at = u64::MAX;
        let mut idx = pair_head(pair);
        while idx != NIL {
            let c = &self.cells[idx as usize];
            min_at = min_at.min(c.at.as_nanos());
            idx = c.next;
        }
        debug_assert!(min_at >= self.elapsed);
        self.elapsed = min_at;
        let mut idx = pair_head(pair);
        self.slots[li] = NIL_PAIR;
        self.occ[level] &= !(1u64 << slot);
        if self.occ[level] == 0 {
            self.level_occ &= !(1u8 << level);
        }
        while idx != NIL {
            let c = &self.cells[idx as usize];
            let (next, at) = (c.next, c.at.as_nanos());
            self.place(idx, at);
            idx = next;
        }
    }

    /// Wheel empty but events pending: everything lives in overflow. Jump
    /// the cursor to the earliest overflow timestamp (the minimum bounds
    /// all pending events) and pull that event's wheel-horizon block into
    /// the wheel, preserving schedule order (the overflow list is appended
    /// in schedule order).
    #[inline]
    fn pull_overflow(&mut self) {
        debug_assert!(self.ovf_head != NIL);
        let mut min_at = u64::MAX;
        let mut idx = self.ovf_head;
        while idx != NIL {
            let c = &self.cells[idx as usize];
            min_at = min_at.min(c.at.as_nanos());
            idx = c.next;
        }
        debug_assert!(min_at > self.elapsed);
        self.elapsed = min_at;
        let mut idx = self.ovf_head;
        while idx != NIL {
            let c = &self.cells[idx as usize];
            let (next, at) = (c.next, c.at.as_nanos());
            if at >> WHEEL_BITS == min_at >> WHEEL_BITS {
                self.unlink(idx);
                self.place(idx, at);
            }
            idx = next;
        }
    }

    /// Peek at the firing time of the next pending event without popping.
    ///
    /// Pure: does not mutate the queue (cancellation is eager, so there are
    /// no tombstones to drain). O(1) when the next event is in the current
    /// level-0 block; otherwise a short scan of one slot list (or of the
    /// overflow list when nothing is within the wheel horizon). Test builds
    /// only: the simulator never peeks, the heap differential compares it.
    #[cfg(test)]
    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        // Undispatched staged events fire first, at the run's timestamp.
        if self.run_pending() {
            return Some(self.run_at);
        }
        if self.len == 0 {
            return None;
        }
        if self.occ[0] != 0 {
            // Level-0 slot index *is* the time's low bits: exact, O(1).
            let slot = self.occ[0].trailing_zeros() as u64;
            return Some(SimTime::from_nanos(
                (self.elapsed & !(SLOTS as u64 - 1)) | slot,
            ));
        }
        for level in 1..LEVELS {
            if self.occ[level] != 0 {
                let slot = self.occ[level].trailing_zeros() as usize;
                return self.list_min(pair_head(self.slots[level * SLOTS + slot]));
            }
        }
        self.list_min(self.ovf_head)
    }

    /// Earliest `at` on the list starting at `head` (None if empty).
    #[cfg(test)]
    fn list_min(&self, head: u32) -> Option<SimTime> {
        let mut best: Option<SimTime> = None;
        let mut idx = head;
        while idx != NIL {
            let c = &self.cells[idx as usize];
            if best.is_none_or(|b| c.at < b) {
                best = Some(c.at);
            }
            idx = c.next;
        }
        best
    }

    /// Take a cell off the free list (or grow the slab) and fill it.
    /// `prev`/`next` are left stale: [`Self::place`] always overwrites both.
    fn alloc(&mut self, at: SimTime, event: E) -> u32 {
        if self.free_head != NIL {
            let idx = self.free_head;
            let cell = &mut self.cells[idx as usize];
            debug_assert!(cell.loc == Loc::Free && cell.event.is_none());
            self.free_head = cell.next;
            cell.at = at;
            cell.event = Some(event);
            idx
        } else {
            let idx = self.cells.len();
            assert!(idx < NIL as usize, "event slab full");
            self.cells.push(Cell {
                at,
                gen: 0,
                prev: NIL,
                next: NIL,
                loc: Loc::Free,
                event: Some(event),
            });
            idx as u32
        }
    }

    /// Recycle an (already unlinked) cell: bump the generation so any
    /// outstanding token goes stale, take the payload, push on the free list.
    fn release(&mut self, idx: u32) -> (SimTime, Option<E>) {
        let free_head = self.free_head;
        let cell = &mut self.cells[idx as usize];
        let event = cell.event.take();
        cell.gen = cell.gen.wrapping_add(1);
        cell.loc = Loc::Free;
        cell.next = free_head; // the free list threads `next` only

        self.free_head = idx;
        (cell.at, event)
    }

    /// Link `idx` into the list its firing time (`at`, in nanos — passed by
    /// the caller, which always has it in hand) belongs to, relative to the
    /// current cursor. Always appends at the tail (FIFO within a slot).
    fn place(&mut self, idx: u32, at: u64) {
        debug_assert!(at == self.cells[idx as usize].at.as_nanos());
        debug_assert!(at >= self.elapsed);
        let x = at ^ self.elapsed;
        if x >> WHEEL_BITS != 0 {
            let tail = self.ovf_tail;
            let cell = &mut self.cells[idx as usize];
            cell.loc = Loc::Overflow;
            cell.prev = tail;
            cell.next = NIL;
            if tail == NIL {
                self.ovf_head = idx;
            } else {
                self.cells[tail as usize].next = idx;
            }
            self.ovf_tail = idx;
        } else {
            // Level of the highest differing bit; `x | 1` maps x == 0
            // (schedule exactly at `now`) to level 0.
            let h = 63 - (x | 1).leading_zeros();
            let level = (h / LEVEL_BITS) as usize;
            let slot = ((at >> (LEVEL_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
            let li = level * SLOTS + slot;
            let pair = self.slots[li];
            let tail = pair_tail(pair);
            let cell = &mut self.cells[idx as usize];
            cell.loc = Loc::Wheel {
                level: level as u8,
                slot: slot as u8,
            };
            cell.prev = tail;
            cell.next = NIL;
            if tail == NIL {
                self.slots[li] = (idx as u64) << 32 | idx as u64;
            } else {
                self.cells[tail as usize].next = idx;
                self.slots[li] = (pair & 0xFFFF_FFFF) | (idx as u64) << 32;
            }
            self.occ[level] |= 1u64 << slot;
            self.level_occ |= 1u8 << level;
        }
    }

    /// Unlink `idx` from whichever list it is on (O(1) via `Loc`).
    fn unlink(&mut self, idx: u32) {
        let (prev, next, loc) = {
            let c = &self.cells[idx as usize];
            (c.prev, c.next, c.loc)
        };
        match loc {
            Loc::Overflow => {
                if prev == NIL {
                    self.ovf_head = next;
                } else {
                    self.cells[prev as usize].next = next;
                }
                if next == NIL {
                    self.ovf_tail = prev;
                } else {
                    self.cells[next as usize].prev = prev;
                }
            }
            Loc::Wheel { level, slot } => {
                let li = level as usize * SLOTS + slot as usize;
                let mut pair = self.slots[li];
                if prev == NIL {
                    pair = (pair & !0xFFFF_FFFF) | next as u64;
                } else {
                    self.cells[prev as usize].next = next;
                }
                if next == NIL {
                    pair = (pair & 0xFFFF_FFFF) | (prev as u64) << 32;
                } else {
                    self.cells[next as usize].prev = prev;
                }
                self.slots[li] = pair;
                if pair_head(pair) == NIL {
                    self.occ[level as usize] &= !(1u64 << slot);
                    if self.occ[level as usize] == 0 {
                        self.level_occ &= !(1u8 << level);
                    }
                }
            }
            // A staged cell is on no list: its run entry goes stale when the
            // caller releases the cell (generation bump), so there is
            // nothing to unlink.
            Loc::Staged => {}
            Loc::Free => unreachable!("unlink of a free cell"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(3), "c");
        q.schedule_at(SimTime::from_millis(1), "a");
        q.schedule_at(SimTime::from_millis(2), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..100 {
            q.schedule_at(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_to_popped_event() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_millis(7));
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(10), ());
        q.pop();
        q.schedule_at(SimTime::from_millis(5), ());
    }

    #[test]
    fn cancel_skips_event() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(SimTime::from_millis(1), "a");
        q.schedule_at(SimTime::from_millis(2), "b");
        assert!(q.cancel(a));
        assert_eq!(q.pop().unwrap().event, "b");
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancel_is_idempotent_and_reports_liveness() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(SimTime::from_millis(1), ());
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "second cancel must report already-cancelled");
        assert!(q.pop().is_none());
        assert!(!q.cancel(a), "cancel after pop must report not-pending");
    }

    #[test]
    fn cancel_after_fire_returns_false() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(SimTime::from_millis(1), ());
        assert_eq!(q.pop().unwrap().token, a);
        assert!(!q.cancel(a));
    }

    #[test]
    fn len_accounts_for_cancellations() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(SimTime::from_millis(1), ());
        q.schedule_at(SimTime::from_millis(2), ());
        assert_eq!(q.len(), 2);
        q.cancel(a);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn peek_time_skips_cancelled_head() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(SimTime::from_millis(1), ());
        q.schedule_at(SimTime::from_millis(9), ());
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(9)));
    }

    #[test]
    fn peek_time_is_pure_and_matches_pop() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(3), ());
        q.schedule_at(SimTime::from_millis(40), ());
        q.schedule_at(SimTime::from_secs(200), ());
        while !q.is_empty() {
            let peeked = q.peek_time();
            assert_eq!(peeked, q.peek_time(), "peek must not mutate");
            assert_eq!(peeked, Some(q.pop().unwrap().at));
        }
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn schedule_after_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(10), "first");
        q.pop();
        q.schedule_after(SimDuration::from_millis(5), "second");
        let e = q.pop().unwrap();
        assert_eq!(e.at, SimTime::from_millis(15));
    }

    #[test]
    fn popped_counter_counts_only_delivered() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(SimTime::from_millis(1), ());
        q.schedule_at(SimTime::from_millis(2), ());
        q.cancel(a);
        while q.pop().is_some() {}
        assert_eq!(q.popped(), 1);
    }

    #[test]
    fn conservation_scheduled_equals_popped_cancelled_pending() {
        let mut q = EventQueue::new();
        let mut tokens = Vec::new();
        for i in 0..20u64 {
            tokens.push(q.schedule_at(SimTime::from_nanos(10 + i), i));
        }
        for tok in tokens.iter().step_by(3) {
            q.cancel(*tok);
        }
        // Stale cancels must not count.
        for tok in tokens.iter().step_by(3) {
            assert!(!q.cancel(*tok));
        }
        for _ in 0..5 {
            q.pop();
        }
        assert_eq!(
            q.scheduled(),
            q.popped() + q.cancelled() + q.len() as u64,
            "wheel conservation: scheduled == popped + cancelled + pending"
        );
        assert_eq!(q.scheduled(), 20);
        assert_eq!(q.cancelled(), 7);
        assert_eq!(q.popped(), 5);
    }

    #[test]
    fn far_future_events_take_the_overflow_path() {
        let mut q = EventQueue::new();
        // Past the 2^36 ns wheel horizon: these must land in overflow...
        q.schedule_at(SimTime::from_secs(120), "rto-max");
        q.schedule_at(SimTime::from_secs(90), "late");
        // ...while a near event stays in the wheel.
        q.schedule_at(SimTime::from_millis(1), "soon");
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| (e.at, e.event))).collect();
        assert_eq!(
            order,
            vec![
                (SimTime::from_millis(1), "soon"),
                (SimTime::from_secs(90), "late"),
                (SimTime::from_secs(120), "rto-max"),
            ]
        );
    }

    #[test]
    fn overflow_preserves_fifo_within_a_timestamp() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(100);
        for i in 0..50 {
            q.schedule_at(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn stale_token_does_not_cancel_recycled_cells_occupant() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(SimTime::from_millis(1), "a");
        assert!(q.cancel(a));
        // The freed cell is recycled for "b"; the stale token must not
        // touch it.
        let b = q.schedule_at(SimTime::from_millis(2), "b");
        assert!(!q.cancel(a), "stale token must be inert");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().event, "b");
        assert!(!q.cancel(b), "b already fired");
    }

    #[test]
    fn slab_recycles_cells_in_steady_state() {
        let mut q = EventQueue::new();
        let mut tok = q.schedule_at(SimTime::from_nanos(10), 0u64);
        for i in 1..10_000u64 {
            q.cancel(tok);
            q.schedule_at(SimTime::from_nanos(10 + i), i);
            let e = q.pop().unwrap();
            tok = q.schedule_at(e.at + SimDuration::from_nanos(7), i);
        }
        assert!(
            q.cells.len() <= 4,
            "steady-state churn must recycle cells, slab grew to {}",
            q.cells.len()
        );
    }

    #[test]
    fn pop_run_batches_equal_timestamps() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..5 {
            q.schedule_at(t, i);
        }
        q.schedule_at(t + SimDuration::from_nanos(1), 100);
        let head = q.pop_run_first().unwrap();
        assert_eq!((head.at, head.event), (t, 0));
        assert_eq!(q.now(), t);
        let run: Vec<_> = std::iter::from_fn(|| q.run_next().map(|e| e.event)).collect();
        assert_eq!(run, vec![1, 2, 3, 4], "run is FIFO within the timestamp");
        let next = q.pop_run_first().unwrap();
        assert_eq!((next.at, next.event), (t + SimDuration::from_nanos(1), 100));
        assert!(q.run_next().is_none());
        assert!(q.pop_run_first().is_none());
    }

    /// A workload mixing runs, singleton higher-level slots, and overflow,
    /// scheduled identically into two queues.
    fn mixed_schedule() -> (EventQueue<usize>, EventQueue<usize>) {
        let times = [
            3u64,
            3,
            3,
            64,
            65,
            65,
            40_000_000,
            40_000_000,
            200_000_000_000,
            200_000_000_000,
        ];
        let mut a = EventQueue::new();
        let mut b = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            a.schedule_at(SimTime::from_nanos(t), i);
            b.schedule_at(SimTime::from_nanos(t), i);
        }
        (a, b)
    }

    #[test]
    fn pop_run_matches_pop_stream() {
        // The batched stream must equal the one-at-a-time stream, and every
        // event of a run must carry the run's timestamp.
        let (mut a, mut b) = mixed_schedule();
        let mut from_pop = Vec::new();
        while let Some(e) = a.pop() {
            from_pop.push((e.at, e.event));
        }
        let mut from_runs = Vec::new();
        while let Some(first) = b.pop_run_first() {
            let at = first.at;
            assert_eq!(b.now(), at);
            from_runs.push((first.at, first.event));
            while let Some(e) = b.run_next() {
                assert_eq!(e.at, at);
                from_runs.push((e.at, e.event));
            }
        }
        assert_eq!(from_pop, from_runs);
        assert_eq!(a.popped(), b.popped());
    }

    #[test]
    fn pop_run_first_matches_pop_stream() {
        // Mixing the two APIs mid-run observes the same single stream:
        // `pop` drains what `pop_run_first` staged before walking the wheel.
        let (mut a, mut b) = mixed_schedule();
        let mut from_pop = Vec::new();
        while let Some(e) = a.pop() {
            from_pop.push((e.at, e.event));
        }
        let mut mixed = Vec::new();
        while let Some(first) = b.pop_run_first() {
            mixed.push((first.at, first.event));
            if let Some(e) = b.pop() {
                mixed.push((e.at, e.event));
            }
            while let Some(e) = b.run_next() {
                mixed.push((e.at, e.event));
            }
        }
        assert_eq!(from_pop, mixed);

        // Tail events stay cancellable after the head is delivered.
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(1);
        q.schedule_at(t, "head");
        let victim = q.schedule_at(t, "victim");
        q.schedule_at(t, "tail");
        assert_eq!(q.pop_run_first().unwrap().event, "head");
        assert!(q.cancel(victim), "staged tail must still be cancellable");
        assert_eq!(q.run_next().unwrap().event, "tail");
        assert!(q.run_next().is_none());
        assert!(q.pop_run_first().is_none());
    }

    #[test]
    fn staged_events_remain_cancellable_mid_run() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(1);
        q.schedule_at(t, "first");
        let victim = q.schedule_at(t, "victim");
        q.schedule_at(t, "last");
        assert_eq!(q.pop_run_first().unwrap().event, "first");
        // A handler early in the run cancels a later same-timestamp event:
        // the cancel must win, exactly as under one-at-a-time pop.
        assert!(q.cancel(victim), "staged event must still be cancellable");
        assert!(!q.cancel(victim), "second cancel is stale");
        assert_eq!(q.run_next().unwrap().event, "last");
        assert!(q.run_next().is_none());
        assert_eq!(q.popped(), 2);
        assert_eq!(q.cancelled(), 1);
        assert_eq!(
            q.scheduled(),
            q.popped() + q.cancelled() + q.len() as u64,
            "conservation must hold across staged cancellation"
        );
    }

    #[test]
    fn run_peek_previews_without_consuming() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(2);
        q.schedule_at(t, 7u32);
        let victim = q.schedule_at(t, 8u32);
        q.schedule_at(t, 9u32);
        q.schedule_at(t, 10u32);
        assert_eq!(q.pop_run_first().unwrap().event, 7);
        assert_eq!(q.run_peek(), Some(&8));
        assert_eq!(q.run_peek(), Some(&8), "peek must not consume");
        q.cancel(victim);
        assert_eq!(q.run_peek(), Some(&9), "peek must skip cancelled events");
        assert_eq!(q.run_next().unwrap().event, 9);
        assert_eq!(q.run_next().unwrap().event, 10);
        assert_eq!(q.run_peek(), None);
    }

    #[test]
    fn pop_drains_staged_run_first() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(3);
        q.schedule_at(t, 1);
        q.schedule_at(t, 2);
        q.schedule_at(t + SimDuration::from_millis(1), 3);
        assert_eq!(q.pop_run_first().unwrap().event, 1);
        // Mixing APIs: pop() must deliver the rest of the staged run before
        // touching the wheel.
        assert_eq!(q.pop().unwrap().event, 2);
        assert_eq!(q.pop().unwrap().event, 3);
        assert!(q.pop().is_none());
    }

    #[test]
    fn len_and_peek_account_for_staged_events() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(4);
        q.schedule_at(t, ());
        q.schedule_at(t, ());
        q.schedule_at(t, ());
        assert!(q.pop_run_first().is_some());
        assert_eq!(q.len(), 2, "staged events are still pending");
        assert_eq!(q.peek_time(), Some(t), "peek must see the staged run");
        q.run_next();
        assert_eq!(q.len(), 1);
        q.run_next();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn schedule_at_run_timestamp_fires_after_staged_events() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(6);
        q.schedule_at(t, "a");
        q.schedule_at(t, "b");
        assert_eq!(q.pop_run_first().unwrap().event, "a");
        // A handler schedules a new event at the run's own timestamp: it
        // must fire after the staged remainder (pop's FIFO tie-break).
        q.schedule_at(t, "c");
        assert_eq!(q.run_next().unwrap().event, "b");
        assert!(q.run_next().is_none(), "new event is not part of the run");
        let c = q.pop_run_first().unwrap();
        assert_eq!((c.at, c.event), (t, "c"));
    }

    #[test]
    fn fully_cancelled_run_leaves_clock_at_run_time() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(8);
        q.schedule_at(t, ());
        let a = q.schedule_at(t, ());
        q.schedule_at(SimTime::from_millis(9), ());
        assert!(q.pop_run_first().is_some());
        assert!(q.cancel(a));
        assert!(q.run_next().is_none());
        // Documented contract: the clock advanced when the run was popped.
        assert_eq!(q.now(), t);
        assert_eq!(q.pop_run_first().unwrap().at, SimTime::from_millis(9));
    }

    proptest! {
        /// Popping any schedule yields a non-decreasing time sequence.
        #[test]
        fn prop_pop_order_is_monotone(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
            let mut q = EventQueue::new();
            for &t in &times {
                q.schedule_at(SimTime::from_nanos(t), t);
            }
            let mut last = 0u64;
            while let Some(e) = q.pop() {
                prop_assert!(e.at.as_nanos() >= last);
                last = e.at.as_nanos();
            }
        }

        /// Cancelling a random subset delivers exactly the complement.
        #[test]
        fn prop_cancellation_delivers_complement(
            times in proptest::collection::vec(0u64..1_000_000, 1..100),
            cancel_mask in proptest::collection::vec(any::<bool>(), 100),
        ) {
            let mut q = EventQueue::new();
            let tokens: Vec<_> = times
                .iter()
                .enumerate()
                .map(|(i, &t)| (i, q.schedule_at(SimTime::from_nanos(t), i)))
                .collect();
            let mut expected: Vec<usize> = Vec::new();
            for (i, tok) in &tokens {
                if cancel_mask[*i % cancel_mask.len()] {
                    q.cancel(*tok);
                } else {
                    expected.push(*i);
                }
            }
            let mut got: Vec<usize> = Vec::new();
            while let Some(e) = q.pop() {
                got.push(e.event);
            }
            got.sort_unstable();
            expected.sort_unstable();
            prop_assert_eq!(got, expected);
        }
    }
}
