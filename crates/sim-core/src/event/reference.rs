//! The original binary-heap event queue, retained as a determinism oracle.
//!
//! [`ReferenceQueue`] is the pre-timer-wheel implementation of the event
//! core: a `BinaryHeap` ordered by `(at, seq)` plus two `HashSet<u64>`s for
//! lazy cancellation. It is kept, in test builds only, as the **reference
//! semantics** for the wheel in [`super`]: the differential
//! property test (`event/differential.rs`) drives both queues with
//! identical random schedule/cancel workloads and asserts byte-identical
//! event streams.
//!
//! Behavioural contract (shared with the wheel): FIFO within a timestamp,
//! monotone clock, panic on scheduling in the past, `cancel` reports whether
//! the event was still pending. The only intentional deviation from the
//! original code is that `peek_time` is pure (`&self`, O(n) scan) instead of
//! draining cancelled entries off the heap top, matching the wheel's pure
//! signature.
//!
//! Token values are *not* part of the shared contract: this queue hands out
//! sequence numbers, the wheel hands out generation-tagged slab indices.
//! Tokens are opaque handles either way.

use super::{ScheduledEvent, TimerToken};
use crate::time::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

struct HeapEntry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for HeapEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for HeapEntry<E> {}
impl<E> PartialOrd for HeapEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for HeapEntry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Earliest time first; FIFO within a timestamp.
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Heap + hash-set event queue (the wheel's reference semantics).
///
/// Same API surface as [`super::EventQueue`]; see the module docs for why it
/// is kept around.
pub struct ReferenceQueue<E> {
    heap: BinaryHeap<Reverse<HeapEntry<E>>>,
    now: SimTime,
    next_seq: u64,
    /// Lazily cancelled sequence numbers: entries stay in the heap and are
    /// skipped at pop time.
    cancelled: HashSet<u64>,
    /// Sequence numbers currently in the heap and not cancelled.
    live: HashSet<u64>,
    popped: u64,
}

impl<E> Default for ReferenceQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> ReferenceQueue<E> {
    /// An empty queue with the clock at t = 0.
    pub fn new() -> Self {
        ReferenceQueue {
            heap: BinaryHeap::new(),
            now: SimTime::ZERO,
            next_seq: 0,
            cancelled: HashSet::new(),
            live: HashSet::new(),
            popped: 0,
        }
    }

    /// Current simulation time: the timestamp of the last popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.heap.len() - self.cancelled.len()
    }

    /// Total number of events ever popped.
    pub fn popped(&self) -> u64 {
        self.popped
    }

    /// Schedule `event` to fire at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is before the current clock.
    pub fn schedule_at(&mut self, at: SimTime, event: E) -> TimerToken {
        assert!(
            at >= self.now,
            "attempted to schedule an event in the past: at={at:?} < now={:?}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(HeapEntry { at, seq, event }));
        self.live.insert(seq);
        TimerToken(seq)
    }

    /// Schedule `event` to fire `delay` after the current clock.
    pub fn schedule_after(&mut self, delay: SimDuration, event: E) -> TimerToken {
        self.schedule_at(self.now + delay, event)
    }

    /// Cancel a previously scheduled event. Returns `true` if the event was
    /// still pending. Cancellation is lazy: the entry stays in the heap and
    /// is skipped when it reaches the top.
    pub fn cancel(&mut self, token: TimerToken) -> bool {
        if self.live.remove(&token.0) {
            self.cancelled.insert(token.0);
            true
        } else {
            false
        }
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        while let Some(Reverse(entry)) = self.heap.pop() {
            if self.cancelled.remove(&entry.seq) {
                continue; // Lazily discard cancelled events.
            }
            self.live.remove(&entry.seq);
            debug_assert!(entry.at >= self.now, "event queue time went backwards");
            self.now = entry.at;
            self.popped += 1;
            return Some(ScheduledEvent {
                at: entry.at,
                token: TimerToken(entry.seq),
                event: entry.event,
            });
        }
        None
    }

    /// Peek at the firing time of the next pending event without popping.
    ///
    /// Pure but O(n): scans past lazily-cancelled entries. Fine for a test
    /// oracle; the wheel does this in O(1)/short-scan.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap
            .iter()
            .filter(|Reverse(e)| !self.cancelled.contains(&e.seq))
            .map(|Reverse(e)| e.at)
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_matches_original_semantics() {
        let mut q = ReferenceQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..10 {
            q.schedule_at(t, i);
        }
        let a = q.schedule_at(SimTime::from_millis(1), 99);
        assert!(q.cancel(a));
        assert!(!q.cancel(a));
        assert_eq!(q.len(), 10);
        assert_eq!(q.peek_time(), Some(t));
        assert_eq!(q.peek_time(), Some(t), "peek is pure");
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
        assert_eq!(q.popped(), 10);
    }
}
