//! Small free-list pools and slabs for the simulator's hot-path buffers.
//!
//! The event loop moves two kinds of owned buffers through the event queue
//! on every data round-trip: a run-list `Vec<(PktSeq, PktSeq)>` riding the
//! `SkbArrival` event, and an `AckInfo` SACK vector riding `AckArrival`.
//! Allocating them per event would put `malloc` on the per-segment path —
//! exactly what the timer-wheel refactor removed from the timer side.
//! [`VecPool`] recycles them instead: a buffer is taken when the event is
//! built and returned (cleared, capacity kept) when the event is consumed,
//! so steady state runs entirely on warm capacity.
//!
//! Three more structures serve the flow arena:
//!
//! * [`SlotStore`] parks an owned buffer under a `u32` id so events can
//!   carry the id instead of the buffer — a timer-wheel cell then moves a
//!   handful of words instead of a whole `Vec` header, which matters when
//!   thousands of flows keep tens of thousands of cells in flight;
//! * [`SegSlab`] is one shared chunked slab that every flow's segment
//!   scoreboard (or stamp ring) is carved from, replacing a per-flow
//!   growable ring with chunk handles into a single allocation (the
//!   "scoreboard-slab" and "stamp-ring" pool categories);
//! * [`SlabDeque`] is the per-flow window view over a [`SegSlab`]: a
//!   chunk-id list plus head/length, supporting O(1) push-back, drop-front
//!   and random indexing — the three operations a TCP scoreboard needs.
//!
//! Every pool keeps `takes`, `reuses`, and `misses` as independent
//! counters so the per-category identity `misses == takes − reuses` is a
//! genuine cross-check (a simcheck oracle), not a tautology. The pools
//! deliberately never shrink; populations are bounded by events in flight
//! and the peak aggregate window.

/// A free list of `Vec<T>` buffers that keeps capacity across uses.
///
/// `misses` is not derived from the other two counters — all three are
/// maintained independently so the identity `misses == takes − reuses`
/// is a genuine cross-check (a simcheck oracle), not a tautology.
pub struct VecPool<T> {
    free: Vec<Vec<T>>,
    takes: u64,
    reuses: u64,
    misses: u64,
}

impl<T> VecPool<T> {
    /// An empty pool.
    pub(crate) fn new() -> Self {
        VecPool {
            free: Vec::new(),
            takes: 0,
            reuses: 0,
            misses: 0,
        }
    }

    /// Take a cleared buffer, reusing capacity when one is free.
    pub(crate) fn take(&mut self) -> Vec<T> {
        self.takes += 1;
        match self.free.pop() {
            Some(v) => {
                self.reuses += 1;
                v
            }
            None => {
                self.misses += 1;
                Vec::new()
            }
        }
    }

    /// Return a buffer to the pool; contents are dropped, capacity kept.
    pub(crate) fn put(&mut self, mut v: Vec<T>) {
        v.clear();
        self.free.push(v);
    }

    /// Number of `take` calls that had to build a fresh buffer. In steady
    /// state this stops growing: every event's buffer comes back via
    /// [`VecPool::put`] before the next one is needed.
    pub(crate) fn misses(&self) -> u64 {
        self.misses
    }

    /// Total `take` calls (hits + misses).
    pub(crate) fn takes(&self) -> u64 {
        self.takes
    }

    /// `take` calls satisfied from the free list (warm capacity reused).
    pub(crate) fn reuses(&self) -> u64 {
        self.reuses
    }
}

impl<T> Default for VecPool<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// Parks owned buffers under dense `u32` ids so events can ride the timer
/// wheel as a handful of words.
///
/// `SlotStore::stash` moves a full buffer into a free slot and returns
/// its id; `SlotStore::unstash` moves it back out and recycles the slot.
/// The store holds only *in-flight* buffers (stashed, not yet unstashed) —
/// capacity recycling of the buffers themselves stays the [`VecPool`]'s
/// job, so the two compose: take from the pool, fill, stash; unstash,
/// drain, put back.
pub struct SlotStore<T> {
    slots: Vec<Vec<T>>,
    free: Vec<u32>,
}

impl<T> SlotStore<T> {
    /// An empty store.
    pub(crate) fn new() -> Self {
        SlotStore {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Park `v` and return its slot id.
    pub(crate) fn stash(&mut self, v: Vec<T>) -> u32 {
        match self.free.pop() {
            Some(id) => {
                self.slots[id as usize] = v;
                id
            }
            None => {
                let id = u32::try_from(self.slots.len()).expect("slot ids fit u32");
                self.slots.push(v);
                id
            }
        }
    }

    /// Take the buffer parked under `id` back out, freeing the slot.
    pub(crate) fn unstash(&mut self, id: u32) -> Vec<T> {
        let v = std::mem::take(&mut self.slots[id as usize]);
        self.free.push(id);
        v
    }
}

impl<T> Default for SlotStore<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// Records per [`SegSlab`] chunk. 64 keeps a chunk under one page for
/// scoreboard-sized records (512 bytes of the 8-byte segment record, 2 KiB
/// of the 32-byte rate stamp) and makes the index arithmetic a shift/mask.
pub const SEG_CHUNK: usize = 64;

/// One shared chunked slab that every flow's segment scoreboard (or stamp
/// ring) is carved from.
///
/// Storage is a single `Vec<T>` grown a chunk at a time; freed chunks go
/// on a free list and are handed back to whichever flow's window grows
/// next. Compared with a growable per-flow ring this (a) shares one
/// allocation across every flow, (b) caps growth-copy churn at one shared
/// `Vec`, and (c) lets a thousand mostly-idle flows occupy a few warm
/// chunks instead of a thousand cold ones.
pub struct SegSlab<T> {
    store: Vec<T>,
    free: Vec<u32>,
    takes: u64,
    reuses: u64,
    misses: u64,
}

impl<T: Default> SegSlab<T> {
    /// An empty slab.
    pub(crate) fn new() -> Self {
        SegSlab {
            store: Vec::new(),
            free: Vec::new(),
            takes: 0,
            reuses: 0,
            misses: 0,
        }
    }

    /// Allocate a chunk, preferring the free list.
    pub(crate) fn alloc_chunk(&mut self) -> u32 {
        self.takes += 1;
        match self.free.pop() {
            Some(id) => {
                self.reuses += 1;
                id
            }
            None => {
                self.misses += 1;
                let id = u32::try_from(self.store.len() / SEG_CHUNK).expect("chunk ids fit u32");
                self.store.extend((0..SEG_CHUNK).map(|_| T::default()));
                id
            }
        }
    }

    /// Return a chunk to the free list. Contents are left in place (they
    /// are overwritten before the next reader sees them).
    pub(crate) fn free_chunk(&mut self, id: u32) {
        self.free.push(id);
    }

    /// The record at `off` within chunk `id`.
    #[inline]
    pub(crate) fn get(&self, id: u32, off: usize) -> &T {
        debug_assert!(off < SEG_CHUNK);
        &self.store[id as usize * SEG_CHUNK + off]
    }

    /// Mutable access to the record at `off` within chunk `id`.
    #[inline]
    pub(crate) fn get_mut(&mut self, id: u32, off: usize) -> &mut T {
        debug_assert!(off < SEG_CHUNK);
        &mut self.store[id as usize * SEG_CHUNK + off]
    }

    /// Chunk allocations that had to grow the backing store.
    pub(crate) fn misses(&self) -> u64 {
        self.misses
    }

    /// Total chunk allocations (hits + misses).
    pub(crate) fn takes(&self) -> u64 {
        self.takes
    }

    /// Chunk allocations served from the free list.
    pub(crate) fn reuses(&self) -> u64 {
        self.reuses
    }
}

impl<T: Default> Default for SegSlab<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// A per-flow double-ended window over a shared [`SegSlab`]: an ordered
/// chunk-id list plus a head offset and length.
///
/// Supports exactly what a TCP scoreboard needs — `push_back` as new
/// segments are sent, `drop_front` as the cumulative ACK advances, and O(1)
/// indexing by `seq − snd_una` — while the segment records themselves
/// live in the slab.
#[derive(Debug, Clone, Default)]
pub struct SlabDeque {
    chunks: Vec<u32>,
    head: usize,
    len: usize,
}

impl SlabDeque {
    /// An empty window.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Number of records in the window.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Whether the window is empty.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append a record at the back, allocating a chunk when the tail
    /// crosses a chunk boundary.
    pub(crate) fn push_back<T: Default>(&mut self, slab: &mut SegSlab<T>, v: T) {
        let tail = self.head + self.len;
        if tail == self.chunks.len() * SEG_CHUNK {
            self.chunks.push(slab.alloc_chunk());
        }
        let (c, off) = (tail / SEG_CHUNK, tail % SEG_CHUNK);
        *slab.get_mut(self.chunks[c], off) = v;
        self.len += 1;
    }

    /// Drop the front `n` records without reading them, freeing whole
    /// chunks as the head crosses their boundaries.
    ///
    /// Dropped slots keep their stale contents: every slot is overwritten
    /// by [`Self::push_back`] before it re-enters the window, so no reader
    /// can observe them. This is what makes a cumulative-ACK advance O(n)
    /// cheap reads + one head bump instead of n `mem::take` round trips.
    pub(crate) fn drop_front<T: Default>(&mut self, slab: &mut SegSlab<T>, n: usize) {
        debug_assert!(n <= self.len);
        self.head += n;
        self.len -= n;
        while self.head >= SEG_CHUNK {
            slab.free_chunk(self.chunks.remove(0));
            self.head -= SEG_CHUNK;
        }
        if self.len == 0 && self.head != 0 {
            // Window drained mid-chunk: rewind so a long-idle flow holds
            // at most one warm chunk.
            self.head = 0;
            if let Some(id) = self.chunks.pop() {
                slab.free_chunk(id);
            }
        }
    }

    /// The record at window index `i` (0 = front).
    #[inline]
    pub(crate) fn get<'a, T: Default>(&self, slab: &'a SegSlab<T>, i: usize) -> &'a T {
        debug_assert!(i < self.len);
        let pos = self.head + i;
        slab.get(self.chunks[pos / SEG_CHUNK], pos % SEG_CHUNK)
    }

    /// Mutable access to the record at window index `i`.
    #[inline]
    pub(crate) fn get_mut<'a, T: Default>(&self, slab: &'a mut SegSlab<T>, i: usize) -> &'a mut T {
        debug_assert!(i < self.len);
        let pos = self.head + i;
        slab.get_mut(self.chunks[pos / SEG_CHUNK], pos % SEG_CHUNK)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_reuses_returned_capacity() {
        let mut pool: VecPool<u64> = VecPool::new();
        let mut a = pool.take();
        assert_eq!(pool.misses(), 1);
        a.extend(0..100);
        let cap = a.capacity();
        pool.put(a);
        let b = pool.take();
        assert_eq!(pool.misses(), 1, "second take must be a pool hit");
        assert!(b.is_empty(), "pooled buffers come back cleared");
        assert_eq!(b.capacity(), cap, "capacity survives the round trip");
    }

    #[test]
    fn misses_count_only_cold_takes() {
        let mut pool: VecPool<u8> = VecPool::new();
        let (a, b) = (pool.take(), pool.take());
        assert_eq!(pool.misses(), 2);
        pool.put(a);
        pool.put(b);
        let _ = (pool.take(), pool.take());
        assert_eq!(pool.misses(), 2);
    }

    /// The accounting identity `misses == takes − reuses` under scripted
    /// churn: hold a varying number of buffers out of the pool so every
    /// combination of cold take, warm take, and deferred return occurs.
    #[test]
    fn churn_preserves_miss_identity() {
        let mut pool: VecPool<u32> = VecPool::new();
        let mut held: Vec<Vec<u32>> = Vec::new();
        for round in 0..50u32 {
            // Grow the outstanding set on even rounds, shrink on odd.
            let want = if round % 2 == 0 {
                (round % 7) as usize + 1
            } else {
                (round % 3) as usize
            };
            while held.len() < want {
                held.push(pool.take());
            }
            while held.len() > want {
                pool.put(held.pop().unwrap());
            }
            assert_eq!(
                pool.misses(),
                pool.takes() - pool.reuses(),
                "identity broken at round {round}"
            );
        }
        for v in held.drain(..) {
            pool.put(v);
        }
        assert_eq!(pool.misses(), pool.takes() - pool.reuses());
        // The peak outstanding population bounds cold takes.
        assert!(pool.misses() <= 7, "cold takes exceed peak population");
        assert!(pool.reuses() > 0, "churn never hit warm capacity");
    }

    #[test]
    fn slot_store_round_trips_and_recycles_ids() {
        let mut store: SlotStore<u64> = SlotStore::new();
        let a = store.stash(vec![1, 2, 3]);
        let b = store.stash(vec![4]);
        assert_ne!(a, b);
        assert_eq!(store.unstash(a), vec![1, 2, 3]);
        // Freed slot id is reused before a new one is minted.
        let c = store.stash(vec![5, 6]);
        assert_eq!(c, a, "freed slot must be recycled");
        assert_eq!(store.unstash(b), vec![4]);
        assert_eq!(store.unstash(c), vec![5, 6]);
    }

    #[test]
    fn slab_deque_fifo_and_indexing() {
        let mut slab: SegSlab<u64> = SegSlab::new();
        let mut dq = SlabDeque::new();
        // Span several chunks.
        for i in 0..(3 * SEG_CHUNK as u64 + 7) {
            dq.push_back(&mut slab, i);
        }
        assert_eq!(dq.len(), 3 * SEG_CHUNK + 7);
        for i in 0..dq.len() {
            assert_eq!(*dq.get(&slab, i), i as u64);
        }
        // Retire the window one record at a time: the front is always the
        // oldest survivor, across every chunk boundary.
        for want in 0..(3 * SEG_CHUNK as u64 + 7) {
            assert_eq!(*dq.get(&slab, 0), want);
            dq.drop_front(&mut slab, 1);
        }
        assert!(dq.is_empty());
        dq.drop_front(&mut slab, 0);
        assert!(dq.is_empty());
    }

    #[test]
    fn slab_chunks_are_shared_across_windows() {
        let mut slab: SegSlab<u32> = SegSlab::new();
        let mut a = SlabDeque::new();
        for i in 0..SEG_CHUNK as u32 {
            a.push_back(&mut slab, i);
        }
        let cold_misses = slab.misses();
        // Drain A fully: its chunk goes back to the free list…
        a.drop_front(&mut slab, SEG_CHUNK);
        assert!(a.is_empty());
        // …and B's first chunk comes from there, not fresh growth.
        let mut b = SlabDeque::new();
        b.push_back(&mut slab, 99);
        assert_eq!(slab.misses(), cold_misses, "chunk must be reused");
        assert!(slab.reuses() > 0);
        assert_eq!(*b.get(&slab, 0), 99);
        assert_eq!(slab.misses(), slab.takes() - slab.reuses());
    }

    #[test]
    fn slab_deque_interleaved_push_pop_keeps_order() {
        let mut slab: SegSlab<u64> = SegSlab::new();
        let mut dq = SlabDeque::new();
        let mut next_in = 0u64;
        let mut next_out = 0u64;
        // Sliding-window pattern: grow by 3, shrink by 2, repeatedly.
        for _ in 0..200 {
            for _ in 0..3 {
                dq.push_back(&mut slab, next_in);
                next_in += 1;
            }
            assert_eq!(*dq.get(&slab, 0), next_out);
            assert_eq!(*dq.get(&slab, 1), next_out + 1);
            dq.drop_front(&mut slab, 2);
            next_out += 2;
            // Random-access view stays consistent with FIFO order.
            assert_eq!(*dq.get(&slab, 0), next_out);
            assert_eq!(*dq.get(&slab, dq.len() - 1), next_in - 1);
        }
        assert_eq!(slab.misses(), slab.takes() - slab.reuses());
    }
}
