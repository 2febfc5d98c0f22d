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
//!   growable ring with chunk handles into fixed-size blocks that are
//!   never moved (the "scoreboard-slab" and "stamp-ring" pool
//!   categories);
//! * [`SlabDeque`] is the per-flow window view over a [`SegSlab`]: a
//!   chunk-id list plus head/length, supporting O(1) push-back, drop-front
//!   and random indexing — the three operations a TCP scoreboard needs —
//!   plus walks over a range that look each chunk up once.
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
pub(crate) struct VecPool<T> {
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

/// Parks owned buffers under dense `u32` ids so events can ride the timer
/// wheel as a handful of words.
///
/// `SlotStore::stash` moves a full buffer into a free slot and returns
/// its id; `SlotStore::unstash` moves it back out and recycles the slot.
/// The store holds only *in-flight* buffers (stashed, not yet unstashed) —
/// capacity recycling of the buffers themselves stays the [`VecPool`]'s
/// job, so the two compose: take from the pool, fill, stash; unstash,
/// drain, put back.
pub(crate) struct SlotStore<T> {
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

/// Records per [`SegSlab`] chunk. 64 keeps a chunk under one page for
/// scoreboard-sized records (512 bytes of the 8-byte segment record, 2 KiB
/// of the 32-byte rate stamp) and makes the index arithmetic a shift/mask.
pub(crate) const SEG_CHUNK: usize = 64;

/// Chunks per [`SegSlab`] block: 16 KiB of segment records, 64 KiB of
/// stamps per allocation.
const BLOCK_CHUNKS: usize = 32;

/// One slab chunk: [`SEG_CHUNK`] records.
type Chunk<T> = [T; SEG_CHUNK];

/// One shared chunked slab that every flow's segment scoreboard (or stamp
/// ring) is carved from.
///
/// Storage is a table of fixed-size blocks of [`BLOCK_CHUNKS`] chunks
/// each. A block is allocated whole, at its final size, when the first of
/// its chunks is issued, and is never grown or moved; only the table of
/// block pointers (8 bytes a block) doubles. So the slab never makes one
/// large allocation and never copies a record: its heap is the chunks it
/// has issued plus at most one part-used block, whatever the allocator's
/// state. A single growing buffer would instead ask for its whole size at
/// each doubling, which an allocator may serve with a copying `realloc`
/// that holds the old and new buffers at once. A block rather than a box
/// per chunk keeps the allocator's per-allocation header off thousands
/// of small chunks. Chunk `id` is chunk `id % BLOCK_CHUNKS` of block
/// `id / BLOCK_CHUNKS`, so handles stay chunk ids.
///
/// Freed chunks go on a LIFO free list and are handed back to whichever
/// flow's window grows next. Compared with a growable per-flow ring this
/// shares a few warm chunks across every flow, so a thousand mostly-idle
/// flows do not each keep a cold private buffer.
pub(crate) struct SegSlab<T> {
    blocks: Vec<Box<[Chunk<T>; BLOCK_CHUNKS]>>,
    /// Chunk ids issued so far; the next fresh id.
    issued: u32,
    free: Vec<u32>,
    takes: u64,
    reuses: u64,
    misses: u64,
}

impl<T: Default> SegSlab<T> {
    /// An empty slab.
    pub(crate) fn new() -> Self {
        SegSlab {
            blocks: Vec::new(),
            issued: 0,
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
                let id = self.issued;
                if (id as usize).is_multiple_of(BLOCK_CHUNKS) {
                    self.blocks.push(Self::block());
                }
                self.issued = id.checked_add(1).expect("chunk ids fit u32");
                id
            }
        }
    }

    /// A fresh block of default records, allocated at its final size.
    fn block() -> Box<[Chunk<T>; BLOCK_CHUNKS]> {
        let chunks: Box<[Chunk<T>]> = (0..BLOCK_CHUNKS)
            .map(|_| std::array::from_fn(|_| T::default()))
            .collect();
        match chunks.try_into() {
            Ok(block) => block,
            Err(_) => unreachable!("a block is exactly BLOCK_CHUNKS chunks"),
        }
    }

    /// Return a chunk to the free list. Contents are left in place (they
    /// are overwritten before the next reader sees them).
    pub(crate) fn free_chunk(&mut self, id: u32) {
        self.free.push(id);
    }

    /// The records of chunk `id`.
    #[inline]
    pub(crate) fn chunk(&self, id: u32) -> &Chunk<T> {
        let id = id as usize;
        &self.blocks[id / BLOCK_CHUNKS][id % BLOCK_CHUNKS]
    }

    /// Mutable access to the records of chunk `id`.
    #[inline]
    pub(crate) fn chunk_mut(&mut self, id: u32) -> &mut Chunk<T> {
        let id = id as usize;
        &mut self.blocks[id / BLOCK_CHUNKS][id % BLOCK_CHUNKS]
    }

    /// Chunk allocations that had to issue a fresh chunk id.
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

/// A per-flow double-ended window over a shared [`SegSlab`]: an ordered
/// chunk-id list plus a head offset and length.
///
/// Supports exactly what a TCP scoreboard needs — `push_back` as new
/// segments are sent, `drop_front` as the cumulative ACK advances, and O(1)
/// indexing by `seq − snd_una` — while the segment records themselves
/// live in the slab.
///
/// `head` counts from `chunks[0]`, and the chunks wholly before it are
/// already back in the slab: `drop_front` frees each chunk as the head
/// crosses it and drops the dead prefix of `chunks` only once it is at
/// least half the list, so retiring a chunk is O(1) amortised and indexing
/// stays one lookup.
#[derive(Debug, Clone, Default)]
pub(crate) struct SlabDeque {
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

    /// Append a record at the back.
    pub(crate) fn push_back<T: Default + Copy>(&mut self, slab: &mut SegSlab<T>, v: T) {
        self.push_back_n(slab, v, 1);
    }

    /// Append `n` copies of `v` at the back, allocating a chunk each time
    /// the tail crosses a chunk boundary: one chunk lookup per chunk
    /// filled.
    pub(crate) fn push_back_n<T: Default + Copy>(
        &mut self,
        slab: &mut SegSlab<T>,
        v: T,
        mut n: usize,
    ) {
        while n > 0 {
            let tail = self.head + self.len;
            if tail == self.chunks.len() * SEG_CHUNK {
                self.chunks.push(slab.alloc_chunk());
            }
            let off = tail % SEG_CHUNK;
            let k = n.min(SEG_CHUNK - off);
            slab.chunk_mut(self.chunks[tail / SEG_CHUNK])[off..off + k].fill(v);
            self.len += k;
            n -= k;
        }
    }

    /// Drop the front `n` records without reading them, freeing whole
    /// chunks as the head crosses their boundaries.
    ///
    /// Dropped slots keep their stale contents: every slot is overwritten
    /// by [`Self::push_back_n`] before it re-enters the window, so no reader
    /// can observe them. This is what makes a cumulative-ACK advance O(n)
    /// cheap reads + one head bump instead of n `mem::take` round trips.
    pub(crate) fn drop_front<T: Default>(&mut self, slab: &mut SegSlab<T>, n: usize) {
        debug_assert!(n <= self.len);
        let dead = self.head / SEG_CHUNK;
        self.head += n;
        self.len -= n;
        if self.len == 0 {
            // Window drained: free the rest, in order, and rewind, so a
            // long-idle flow holds no chunk.
            for &id in &self.chunks[dead..] {
                slab.free_chunk(id);
            }
            self.chunks.clear();
            self.head = 0;
            return;
        }
        let now_dead = self.head / SEG_CHUNK;
        for &id in &self.chunks[dead..now_dead] {
            slab.free_chunk(id);
        }
        if 2 * now_dead >= self.chunks.len() {
            self.chunks.drain(..now_dead);
            self.head -= now_dead * SEG_CHUNK;
        }
    }

    /// The record at window index `i` (0 = front).
    #[inline]
    pub(crate) fn get<'a, T: Default>(&self, slab: &'a SegSlab<T>, i: usize) -> &'a T {
        debug_assert!(i < self.len);
        let pos = self.head + i;
        &slab.chunk(self.chunks[pos / SEG_CHUNK])[pos % SEG_CHUNK]
    }

    /// Call `f` on the records at window indexes `lo..hi`, in order, one
    /// chunk lookup per chunk spanned.
    #[inline]
    pub(crate) fn for_each_mut<T: Default>(
        &self,
        slab: &mut SegSlab<T>,
        lo: usize,
        hi: usize,
        mut f: impl FnMut(&mut T),
    ) {
        debug_assert!(lo <= hi && hi <= self.len);
        let (mut pos, end) = (self.head + lo, self.head + hi);
        while pos < end {
            let off = pos % SEG_CHUNK;
            let k = (end - pos).min(SEG_CHUNK - off);
            let chunk = slab.chunk_mut(self.chunks[pos / SEG_CHUNK]);
            chunk[off..off + k].iter_mut().for_each(&mut f);
            pos += k;
        }
    }

    /// The records at window indexes `lo..hi`, in order, one chunk lookup
    /// per chunk spanned.
    #[inline]
    pub(crate) fn iter<'a, T: Default>(
        &'a self,
        slab: &'a SegSlab<T>,
        lo: usize,
        hi: usize,
    ) -> impl Iterator<Item = &'a T> + 'a {
        debug_assert!(lo <= hi && hi <= self.len);
        let (lo, hi) = (self.head + lo, self.head + hi);
        (lo / SEG_CHUNK..hi.div_ceil(SEG_CHUNK)).flat_map(move |c| {
            let base = c * SEG_CHUNK;
            let (a, b) = (lo.max(base) - base, hi.min(base + SEG_CHUNK) - base);
            slab.chunk(self.chunks[c])[a..b].iter()
        })
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

    /// Chunk ids run 0, 1, 2, … across block boundaries, each chunk is its
    /// own storage, and a freed id is reissued before a new block opens.
    #[test]
    fn slab_ids_and_records_across_block_boundaries() {
        let mut slab: SegSlab<u64> = SegSlab::new();
        let b = BLOCK_CHUNKS as u32;
        for want in 0..2 * b {
            assert_eq!(slab.alloc_chunk(), want);
        }
        assert_eq!(slab.blocks.len(), 2);
        slab.free_chunk(b + 1);
        assert_eq!(slab.alloc_chunk(), b + 1, "freed id comes back first");
        assert_eq!(slab.blocks.len(), 2, "no block opened for a reused id");
        for want in 2 * b..2 * b + 4 {
            assert_eq!(slab.alloc_chunk(), want);
        }
        assert_eq!(slab.blocks.len(), 3);

        // Every offset of a chunk in the second block round-trips, and its
        // neighbours (one across the block boundary) stay untouched.
        let id = b + 1;
        for off in 0..SEG_CHUNK {
            slab.chunk_mut(id)[off] = 1000 + off as u64;
        }
        for off in 0..SEG_CHUNK {
            assert_eq!(slab.chunk(id)[off], 1000 + off as u64);
        }
        for other in [b - 1, b, b + 2, 2 * b] {
            assert!(slab.chunk(other).iter().all(|&v| v == 0), "chunk {other}");
        }
        assert_eq!(slab.takes(), u64::from(2 * b + 5));
        assert_eq!(slab.reuses(), 1);
        assert_eq!(slab.misses(), slab.takes() - slab.reuses());
    }

    /// A window spanning three blocks: bulk appends, chunk-wise iteration
    /// and indexing agree, and `drop_front` frees chunks front to back
    /// whatever the step, so the free list's order is the chunk order.
    #[test]
    fn slab_deque_across_blocks_frees_front_to_back() {
        let mut slab: SegSlab<u64> = SegSlab::new();
        let mut dq = SlabDeque::new();
        let n = (2 * BLOCK_CHUNKS + 3) * SEG_CHUNK + 5;
        dq.push_back(&mut slab, 0);
        let mut next = 1;
        for k in [SEG_CHUNK - 2, 1, 3 * SEG_CHUNK + 7, n] {
            let k = k.min(n - next);
            dq.push_back_n(&mut slab, 0, k);
            let mut i = next as u64;
            dq.for_each_mut(&mut slab, next, next + k, |v| {
                *v = i;
                i += 1;
            });
            next += k;
        }
        assert_eq!(dq.len(), n);
        assert_eq!(slab.misses() as usize, n.div_ceil(SEG_CHUNK));
        assert!(dq.iter(&slab, 0, n).copied().eq(0..n as u64));
        assert!(dq.iter(&slab, 63, 130).copied().eq(63..130));

        let ids = dq.chunks.clone();
        let mut front = 0;
        // The 40-chunk step passes half the list: the dead prefix is dropped.
        for step in [
            1,
            SEG_CHUNK - 1,
            5 * SEG_CHUNK,
            37,
            2 * SEG_CHUNK + 1,
            40 * SEG_CHUNK,
            3,
            SEG_CHUNK,
        ] {
            dq.drop_front(&mut slab, step);
            front += step;
            assert_eq!(slab.free, ids[..front / SEG_CHUNK]);
            assert_eq!(*dq.get(&slab, 0), front as u64);
            assert!(dq
                .iter(&slab, 0, 3)
                .copied()
                .eq(front as u64..front as u64 + 3));
        }
        assert!(dq.chunks.len() < ids.len(), "the dead prefix was dropped");
        dq.drop_front(&mut slab, n - front);
        assert!(dq.is_empty());
        assert_eq!(slab.free, ids, "drained window frees every chunk in order");
    }
}
