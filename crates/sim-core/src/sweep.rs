//! Parallel deterministic sweep engine.
//!
//! A *sweep* is a batch of independent simulation cells (one config × seed
//! combination each) fanned out across a pool of worker threads. The engine
//! guarantees three properties:
//!
//! # Determinism contract
//!
//! Parallel output is **bit-identical** to serial output, for any worker
//! count. This holds because:
//!
//! 1. every cell draws randomness from its own [`SimRng`], derived as
//!    `SimRng::new(root_seed).split(fnv64(cell.key_bytes()))` — a pure
//!    function of the sweep's root seed and the cell's identity, never of
//!    scheduling order or worker id (the workspace's own cells ignore it:
//!    each carries its seed in its key);
//! 2. cells are pure functions of `(key_bytes, rng)` — they share no
//!    mutable state;
//! 3. outputs are collected into a slot vector indexed by the cell's input
//!    position, so the returned `Vec` is in submission order regardless of
//!    completion order.
//!
//! Under this contract a sweep at `jobs=N` and at `jobs=1` releases
//! identical results, which the workspace asserts end to end in
//! `tests/sweep_determinism.rs`.
//!
//! # Cache-key scheme
//!
//! With [`SweepOptions::cache_dir`] set, finished cells are persisted in a
//! content-addressed run cache. The key is the cell's *content*, not its
//! label or position: `key_bytes()` must be a canonical serialization of
//! everything that influences the result (full config **and** seed — the
//! caller includes the sweep's root seed in the bytes when it participates).
//! The cache file name is 32 hex digits from two independent FNV-1a hashes
//! of `key_bytes` (one plain, one with a tweaked offset basis), so
//! accidental collisions require simultaneously colliding both streams.
//! Both streams come from one pass over the key, made once per cell; the
//! first stream is also the RNG split label. Entries are written
//! atomically (temp file + rename, no fsync — see below) in a checksummed
//! envelope:
//!
//! ```text
//! magic "SWPC" | version u32 LE | payload_len u64 LE | fnv64(payload) LE | payload
//! ```
//!
//! A reader that finds a missing, truncated, mis-versioned, or
//! checksum-mismatched entry silently recomputes the cell and rewrites the
//! entry; a cache can never poison a sweep. That validation is also why
//! entries are not fsynced: the worst a crash can leave is an empty or
//! tail-less file, which reads as corruption and costs one recompute.
//! The key names the cell, not the code that runs it: a caller that
//! reuses a directory across builds puts a fingerprint of that code in
//! the directory's path, so another build's entries are never read.
//!
//! # Streaming, bounded memory, cancellation (engine v2)
//!
//! [`run_sweep_streaming`] is the entry point: instead of
//! collecting every output into a `Vec`, it *releases* outputs to a
//! consumer callback in **submission order** as they complete, holding at
//! most [`SweepOptions::max_inflight`] finished-but-unreleased outputs at
//! any instant. Workers may only claim cell `i` once
//! `i < released + max_inflight`, so claims form a contiguous in-flight
//! range `[released, next_claim)` and peak memory is flat in grid size —
//! a 100k-cell sweep costs the same resident memory as a 100-cell one.
//! Because release order is submission order, a consumer aggregating
//! incrementally sees byte-identical input at any `--jobs N`, preserving
//! the determinism contract above.
//!
//! Cancellation is cooperative: the process-global flag
//! ([`request_global_cancel`], wired to Ctrl-C by the binaries) or the
//! deterministic test hook [`SweepOptions::cancel_after`] stops the sweep
//! at the next claim point. In-flight cells are **drained** (computed,
//! cached, and released) and the engine returns [`Error::Interrupted`],
//! never a panic. Every computed cell is already in the run cache, so a
//! rerun against the same directory serves them and computes only the
//! remainder; because release order is submission order, its output is
//! byte-identical to an uninterrupted run.
//!
//! A cell that panics stops the sweep at its index: the cells before it
//! are released, and the panic is re-raised on the calling thread.
//!
//! # Progress and timing
//!
//! Each finished cell is handed to the consumer with a [`CellReport`]
//! (label, wall time, cache disposition); with
//! [`SweepOptions::progress`] set, a `[k/n] label — time` line is also
//! printed to stderr as cells complete (completion order, for liveness).

use crate::error::Error;
use crate::rng::SimRng;
use std::io::{Read, Write};
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// FNV-1a offset basis (the standard one).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Magic bytes opening every cache entry.
const CACHE_MAGIC: &[u8; 4] = b"SWPC";
/// Cache envelope version; bump when the payload codec changes.
const CACHE_VERSION: u32 = 1;

/// FNV-1a hash of `bytes`, starting from `basis`.
fn fnv64_from(basis: u64, bytes: &[u8]) -> u64 {
    let mut h = basis;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a hash of `bytes` with the standard offset basis.
///
/// This is the hash the engine uses to derive per-cell RNG labels; it is
/// exposed so callers can reproduce a cell's RNG stream out of band.
pub fn fnv64(bytes: &[u8]) -> u64 {
    fnv64_from(FNV_OFFSET, bytes)
}

/// The 16-byte content digest of a cell key: two independent FNV-1a
/// streams, big-endian, computed in one pass over the key. Its hex form is
/// the cache file name; the raw bytes key checkpoint records; the first
/// stream is [`fnv64`] of the key, the cell's RNG split label.
fn key_digest(key: &[u8]) -> [u8; 16] {
    let mut a = FNV_OFFSET;
    // Second stream: tweaked offset basis, so a collision must hold in two
    // unrelated hash states at once.
    let mut b = FNV_OFFSET ^ 0x5bd1_e995_9d1b_54a5;
    for &byte in key {
        a = (a ^ byte as u64).wrapping_mul(FNV_PRIME);
        b = (b ^ byte as u64).wrapping_mul(FNV_PRIME);
    }
    let mut digest = [0u8; 16];
    digest[..8].copy_from_slice(&a.to_be_bytes());
    digest[8..].copy_from_slice(&b.to_be_bytes());
    digest
}

/// Process-global cancellation flag, set by the binaries' Ctrl-C handler.
///
/// A signal handler may only do async-signal-safe work; a relaxed atomic
/// store qualifies, which is why this lives here as a plain flag rather
/// than a channel. Every sweep (streaming or collecting) observes it.
static GLOBAL_CANCEL: AtomicBool = AtomicBool::new(false);

/// Request cancellation of every running and future sweep in this process.
/// Async-signal-safe; binaries call this from their SIGINT handler.
pub fn request_global_cancel() {
    GLOBAL_CANCEL.store(true, Ordering::SeqCst);
}

/// Whether [`request_global_cancel`] has been called (and not reset).
pub fn global_cancel_requested() -> bool {
    GLOBAL_CANCEL.load(Ordering::SeqCst)
}

/// Clear the process-global cancellation flag (tests / REPL-style drivers).
pub fn reset_global_cancel() {
    GLOBAL_CANCEL.store(false, Ordering::SeqCst);
}

/// One unit of work in a sweep.
///
/// Implementations must be pure: the output may depend only on
/// [`key_bytes`](Self::key_bytes) and the provided [`SimRng`]. See the
/// [module docs](self) for the determinism contract this buys.
pub trait SweepCell: Sync {
    /// Result of running one cell.
    type Output: Send;

    /// Human-readable name used in progress lines (not part of the key).
    fn label(&self) -> String;

    /// Canonical serialization of everything that influences the output.
    ///
    /// Doubles as the cache key and the RNG split label, so it must be
    /// stable across runs and distinct across semantically distinct cells.
    fn key_bytes(&self) -> Vec<u8>;

    /// The 16-byte content digest of [`key_bytes`](Self::key_bytes): cache
    /// file name and (first half) RNG split label.
    /// Asked for once per cell; a cell that already hashed its key — to
    /// resolve repeats before submitting — overrides this to hand it in.
    fn key_digest(&self) -> [u8; 16] {
        key_digest(&self.key_bytes())
    }

    /// Run the cell with its derived RNG.
    fn run(&self, rng: SimRng) -> Self::Output;

    /// Serialize an output for the run cache.
    ///
    /// Return `None` to skip caching this output (the sweep still returns
    /// it). `decode(encode(x))` must reproduce `x` exactly.
    fn encode(output: &Self::Output) -> Option<Vec<u8>>;

    /// Deserialize a cached output; `None` rejects the entry (recompute).
    fn decode(bytes: &[u8]) -> Option<Self::Output>;

    /// Whether this cell may be served from / written to the run cache.
    ///
    /// A cell whose output depends on state outside the key must return
    /// `false`, or a cache hit would hide that state. Instruments that
    /// write files are passed to the simulation, not carried by a cell.
    fn cacheable(&self) -> bool {
        true
    }
}

/// Knobs controlling how [`run_sweep_streaming`] executes a batch of cells.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Worker thread count; `1` runs serially on the calling thread.
    pub jobs: usize,
    /// Run-cache directory; `None` disables caching entirely.
    pub cache_dir: Option<PathBuf>,
    /// Seed from which every cell's RNG is split (see module docs).
    pub root_seed: u64,
    /// Print a per-cell completion line to stderr.
    pub progress: bool,
    /// Maximum finished-but-unreleased outputs held at once (the engine's
    /// memory bound). `0` selects the default, `max(4 × jobs, 16)`.
    pub max_inflight: usize,
    /// Deterministic test hook: behave as if cancelled once this many
    /// cells have been released.
    pub cancel_after: Option<u64>,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            jobs: 1,
            cache_dir: None,
            root_seed: 1,
            progress: false,
            max_inflight: 0,
            cancel_after: None,
        }
    }
}

impl SweepOptions {
    /// Serial, cache-less, quiet options with the given root seed.
    pub fn serial(root_seed: u64) -> Self {
        SweepOptions {
            root_seed,
            ..SweepOptions::default()
        }
    }

    /// The in-flight window [`run_sweep_streaming`] will actually use:
    /// [`max_inflight`](Self::max_inflight), or `max(4 × jobs, 16)` when
    /// unset, never below the worker count (a smaller window would idle
    /// workers for no memory benefit).
    pub(crate) fn effective_inflight(&self) -> usize {
        let jobs = self.jobs.max(1);
        if self.max_inflight == 0 {
            (4 * jobs).max(16)
        } else {
            self.max_inflight.max(jobs)
        }
    }

    /// Whether cancellation has been requested for this sweep, given the
    /// number of cells already released (for [`cancel_after`](Self::cancel_after)).
    fn cancel_requested(&self, released: u64) -> bool {
        global_cancel_requested() || self.cancel_after.is_some_and(|n| released >= n)
    }
}

/// How the run cache served (or failed to serve) one cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheState {
    /// A valid entry decoded; the simulation was skipped.
    Hit,
    /// No entry existed; the cell was computed and back-filled.
    MissCold,
    /// An entry existed but was invalid (bad envelope, failed checksum, or
    /// an undecodable payload from an older codec); it was discarded,
    /// recomputed, and rewritten.
    MissCorrupt,
    /// The cell opted out of caching, or no cache directory was configured.
    Uncacheable,
}

/// Timing record for one finished cell.
#[derive(Debug, Clone)]
pub struct CellReport {
    /// The cell's [`SweepCell::label`].
    pub label: String,
    /// Wall-clock time spent obtaining the output (compute or cache read).
    pub elapsed: Duration,
    /// How the run cache served the cell.
    pub state: CacheState,
}

/// Process-wide run metrics, accumulated across every sweep (and fed by
/// the simulation layer via [`note_pool_misses`]). Drivers print these at
/// the end of a session via [`totals`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepTotals {
    /// Cells executed or served from cache.
    pub cells: u64,
    /// Cells served from a valid cache entry.
    pub cache_hits: u64,
    /// Cells computed because no entry existed.
    pub cache_misses: u64,
    /// Cells recomputed because an entry existed but was invalid.
    pub cache_corrupt: u64,
    /// Cells that bypassed the cache entirely.
    pub uncacheable: u64,
    /// Summed per-cell wall-clock time, nanoseconds (across workers, so it
    /// exceeds elapsed real time under parallelism).
    pub cell_wall_nanos: u64,
    /// Hot-path buffer-pool misses reported by the simulation layer.
    pub pool_misses: u64,
    /// Pool misses inside measurement windows: zero once the pools are
    /// warm, except where a lossy cell's first multi-run skbs come late.
    pub pool_misses_steady: u64,
}

impl SweepTotals {
    /// Per-worker throughput over the whole session: cells divided by
    /// summed per-cell wall time. `None` until any wall time accrues.
    pub(crate) fn cells_per_sec(&self) -> Option<f64> {
        (self.cell_wall_nanos > 0).then(|| self.cells as f64 / (self.cell_wall_nanos as f64 / 1e9))
    }

    /// The one-line cache/pool summary `repro --progress` prints.
    pub fn summary_line(&self) -> String {
        format!(
            "sweep totals: {} cells in {:.1}s{} — cache {} hits / {} misses / {} corrupt-recomputed / {} uncacheable; pool misses {} total / {} steady",
            self.cells,
            self.cell_wall_nanos as f64 / 1e9,
            self.cells_per_sec()
                .map(|r| format!(" ({r:.1} cells/s per worker)"))
                .unwrap_or_default(),
            self.cache_hits,
            self.cache_misses,
            self.cache_corrupt,
            self.uncacheable,
            self.pool_misses,
            self.pool_misses_steady,
        )
    }
}

static TOTAL_CELLS: AtomicU64 = AtomicU64::new(0);
static TOTAL_HITS: AtomicU64 = AtomicU64::new(0);
static TOTAL_MISSES: AtomicU64 = AtomicU64::new(0);
static TOTAL_CORRUPT: AtomicU64 = AtomicU64::new(0);
static TOTAL_UNCACHEABLE: AtomicU64 = AtomicU64::new(0);
static TOTAL_WALL_NANOS: AtomicU64 = AtomicU64::new(0);
static TOTAL_POOL_MISSES: AtomicU64 = AtomicU64::new(0);
static TOTAL_POOL_MISSES_STEADY: AtomicU64 = AtomicU64::new(0);

/// Snapshot the process-wide run metrics.
pub fn totals() -> SweepTotals {
    SweepTotals {
        cells: TOTAL_CELLS.load(Ordering::Relaxed),
        cache_hits: TOTAL_HITS.load(Ordering::Relaxed),
        cache_misses: TOTAL_MISSES.load(Ordering::Relaxed),
        cache_corrupt: TOTAL_CORRUPT.load(Ordering::Relaxed),
        uncacheable: TOTAL_UNCACHEABLE.load(Ordering::Relaxed),
        cell_wall_nanos: TOTAL_WALL_NANOS.load(Ordering::Relaxed),
        pool_misses: TOTAL_POOL_MISSES.load(Ordering::Relaxed),
        pool_misses_steady: TOTAL_POOL_MISSES_STEADY.load(Ordering::Relaxed),
    }
}

/// Fold simulation-layer pool-miss counts into the run metrics (called by
/// the iperf sweep bridge after aggregating each batch's seed results).
pub fn note_pool_misses(total: u64, steady: u64) {
    TOTAL_POOL_MISSES.fetch_add(total, Ordering::Relaxed);
    TOTAL_POOL_MISSES_STEADY.fetch_add(steady, Ordering::Relaxed);
}

/// Cache file path for a cell's [`key_digest`]: its 32 hex digits.
fn cache_path(dir: &Path, digest: &[u8; 16]) -> PathBuf {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut name = String::with_capacity(36);
    for byte in digest {
        name.push(HEX[(byte >> 4) as usize] as char);
        name.push(HEX[(byte & 0xf) as usize] as char);
    }
    name.push_str(".bin");
    dir.join(name)
}

/// What a cache probe found, distinguishing "never computed" from "entry
/// present but unusable" — the session summary reports them separately.
enum CacheProbe {
    /// No entry on disk.
    Absent,
    /// An entry exists but its envelope or checksum is invalid.
    Corrupt,
    /// A validated payload.
    Valid(Vec<u8>),
}

/// Read and validate a cache entry.
fn cache_read(path: &Path) -> CacheProbe {
    let Ok(mut file) = std::fs::File::open(path) else {
        return CacheProbe::Absent;
    };
    match read_envelope(&mut file) {
        Some(payload) => CacheProbe::Valid(payload),
        None => CacheProbe::Corrupt,
    }
}

/// Validate the `SWPC` envelope and return its payload; `None` on defect.
fn read_envelope(file: &mut std::fs::File) -> Option<Vec<u8>> {
    let mut header = [0u8; 4 + 4 + 8 + 8];
    file.read_exact(&mut header).ok()?;
    if &header[0..4] != CACHE_MAGIC {
        return None;
    }
    if u32::from_le_bytes(header[4..8].try_into().unwrap()) != CACHE_VERSION {
        return None;
    }
    let len = u64::from_le_bytes(header[8..16].try_into().unwrap());
    let checksum = u64::from_le_bytes(header[16..24].try_into().unwrap());
    // Reject absurd lengths before allocating (a corrupt header could
    // otherwise ask for an exabyte).
    if len > 1 << 32 {
        return None;
    }
    let mut payload = vec![0u8; len as usize];
    file.read_exact(&mut payload).ok()?;
    let mut trailing = [0u8; 1];
    if file.read(&mut trailing).ok()? != 0 {
        return None; // longer than the header claims
    }
    if fnv64(&payload) != checksum {
        return None;
    }
    Some(payload)
}

/// Atomically persist a cache entry (temp file + rename) into the
/// directory [`run_sweep_streaming`] created when the sweep started.
///
/// Deliberately no `sync_all`: the rename keeps concurrent readers from
/// ever seeing a partial file, and a crash that leaves an empty or
/// tail-less file behind is caught by [`read_envelope`]'s length and
/// checksum validation — the cell is recomputed and the entry rewritten.
/// Durability would buy nothing a recompute does not, at ~1 ms per cell.
fn cache_write(path: &Path, payload: &[u8]) {
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    let ok = (|| {
        let mut f = std::fs::File::create(&tmp).ok()?;
        f.write_all(CACHE_MAGIC).ok()?;
        f.write_all(&CACHE_VERSION.to_le_bytes()).ok()?;
        f.write_all(&(payload.len() as u64).to_le_bytes()).ok()?;
        f.write_all(&fnv64(payload).to_le_bytes()).ok()?;
        f.write_all(payload).ok()
    })()
    .is_some();
    // The cache is best-effort; a failed write never fails the sweep.
    if !ok || std::fs::rename(&tmp, path).is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
}

/// Obtain one cell's output: cache probe, else compute (back-filling the
/// cache).
fn run_cell<C: SweepCell>(cell: &C, opts: &SweepOptions) -> (C::Output, CacheState) {
    // The key is hashed once: the digest names the cache file, and its
    // first stream seeds the RNG on a miss.
    let digest = cell.key_digest();
    let cache_file = match (&opts.cache_dir, cell.cacheable()) {
        (Some(dir), true) => Some(cache_path(dir, &digest)),
        _ => None,
    };
    let mut state = if cache_file.is_some() {
        CacheState::MissCold
    } else {
        CacheState::Uncacheable
    };
    if let Some(path) = &cache_file {
        match cache_read(path) {
            CacheProbe::Valid(payload) => match C::decode(&payload) {
                Some(output) => return (output, CacheState::Hit),
                // Valid envelope, stale codec: treat like corruption.
                None => state = CacheState::MissCorrupt,
            },
            CacheProbe::Corrupt => state = CacheState::MissCorrupt,
            CacheProbe::Absent => {}
        }
    }
    let label = u64::from_be_bytes(digest[..8].try_into().expect("8 of 16 bytes"));
    let output = cell.run(SimRng::new(opts.root_seed).split(label));
    if let Some(path) = &cache_file {
        if let Some(payload) = C::encode(&output) {
            cache_write(path, &payload);
        }
    }
    (output, state)
}

/// Outcome accounting for one [`run_sweep_streaming`] call.
#[derive(Debug, Clone)]
pub struct SweepSummary {
    /// Cells the sweep was asked to run.
    pub total: usize,
    /// Cells released to the consumer (equals `total` on success).
    pub completed: usize,
    /// Total wall-clock time of the sweep.
    pub elapsed: Duration,
}

/// Throughput/ETA suffix for the `--progress` per-cell line: observed
/// completion rate since the sweep started (all workers combined, cache
/// hits included) and the projected time to finish the remaining cells
/// at that rate. Empty until a rate is measurable.
fn progress_rate_eta(completed: usize, total: usize, elapsed: Duration) -> String {
    let secs = elapsed.as_secs_f64();
    if completed == 0 || secs <= 0.0 {
        return String::new();
    }
    let rate = completed as f64 / secs;
    let eta = (total.saturating_sub(completed)) as f64 / rate;
    format!(" | {rate:.1} cells/s, ETA {eta:.1}s")
}

/// Compute one cell and account for it (process totals + progress line).
fn compute_cell<C: SweepCell>(
    idx: usize,
    cells: &[C],
    opts: &SweepOptions,
    done: &AtomicUsize,
    total: usize,
    started: Instant,
) -> (C::Output, CellReport) {
    let cell = &cells[idx];
    let cell_started = Instant::now();
    let (output, state) = run_cell(cell, opts);
    let report = CellReport {
        label: cell.label(),
        elapsed: cell_started.elapsed(),
        state,
    };
    TOTAL_CELLS.fetch_add(1, Ordering::Relaxed);
    match state {
        CacheState::Hit => &TOTAL_HITS,
        CacheState::MissCold => &TOTAL_MISSES,
        CacheState::MissCorrupt => &TOTAL_CORRUPT,
        CacheState::Uncacheable => &TOTAL_UNCACHEABLE,
    }
    .fetch_add(1, Ordering::Relaxed);
    TOTAL_WALL_NANOS.fetch_add(report.elapsed.as_nanos() as u64, Ordering::Relaxed);
    if opts.progress {
        let k = done.fetch_add(1, Ordering::Relaxed) + 1;
        // Interactive progress belongs on stderr (stdout carries results).
        // A closed stderr must not fail the cell, so the error is dropped.
        let _ = writeln!(
            std::io::stderr(),
            "  [{k}/{total}] {} — {:.1?}{}{}",
            report.label,
            report.elapsed,
            match state {
                CacheState::Hit => " (cached)",
                CacheState::MissCorrupt => " (corrupt entry recomputed)",
                _ => "",
            },
            progress_rate_eta(k, total, started.elapsed()),
        );
    }
    (output, report)
}

/// Run every cell, releasing outputs to `consume` in **submission order**
/// as they complete (streaming engine v2 — see the module docs).
///
/// `consume(idx, output, report)` is called exactly once per cell, on the
/// calling thread, with `idx` strictly increasing from 0 — so incremental
/// aggregation sees byte-identical input at any worker count. At most
/// `SweepOptions::effective_inflight` finished outputs exist at once.
///
/// Returns [`Error::Interrupted`] if cancellation stopped the sweep, after
/// draining (and caching) the in-flight cells.
///
/// ```
/// use sim_core::rng::SimRng;
/// use sim_core::sweep::{run_sweep_streaming, SweepCell, SweepOptions};
///
/// struct Square(u64);
///
/// impl SweepCell for Square {
///     type Output = u64;
///     fn label(&self) -> String {
///         format!("square({})", self.0)
///     }
///     fn key_bytes(&self) -> Vec<u8> {
///         self.0.to_le_bytes().to_vec()
///     }
///     fn run(&self, _rng: SimRng) -> u64 {
///         self.0 * self.0
///     }
///     fn encode(out: &u64) -> Option<Vec<u8>> {
///         Some(out.to_le_bytes().to_vec())
///     }
///     fn decode(bytes: &[u8]) -> Option<u64> {
///         Some(u64::from_le_bytes(bytes.try_into().ok()?))
///     }
/// }
///
/// let cells: Vec<Square> = (0..8).map(Square).collect();
/// let mut outputs = Vec::new();
/// let opts = SweepOptions { jobs: 4, ..SweepOptions::serial(1) };
/// let summary = run_sweep_streaming(&cells, &opts, |idx, out, _report| {
///     outputs.push((idx, out)); // idx strictly increasing at any job count
/// })
/// .expect("sweep completes");
/// assert_eq!(summary.completed, 8);
/// assert_eq!(outputs, (0..8).map(|i| (i as usize, i * i)).collect::<Vec<_>>());
/// ```
pub fn run_sweep_streaming<C: SweepCell>(
    cells: &[C],
    opts: &SweepOptions,
    mut consume: impl FnMut(usize, C::Output, CellReport),
) -> Result<SweepSummary, Error> {
    let started = Instant::now();
    let total = cells.len();
    let jobs = opts.jobs.max(1).min(total.max(1));
    let window = opts.effective_inflight();
    let done = AtomicUsize::new(0);

    if let Some(dir) = &opts.cache_dir {
        // Once per sweep, not per entry; if it fails every write fails
        // too, and the cache is best-effort.
        let _ = std::fs::create_dir_all(dir);
    }

    let mut completed = 0usize;
    let mut interrupted = false;

    if jobs <= 1 {
        for idx in 0..total {
            if opts.cancel_requested(completed as u64) {
                interrupted = true;
                break;
            }
            let (output, report) = compute_cell(idx, cells, opts, &done, total, started);
            consume(idx, output, report);
            completed += 1;
        }
    } else {
        /// Claim/release cursors. Claims are gated by
        /// `next_claim < released + window`, so the in-flight range
        /// `[released, next_claim)` is contiguous and never wider than the
        /// window; on cancellation `stop_at` latches to `next_claim` and
        /// the in-flight range drains through the consumer.
        struct EngineState {
            next_claim: usize,
            released: usize,
            stop_at: usize,
        }
        let state = Mutex::new(EngineState {
            next_claim: 0,
            released: 0,
            stop_at: total,
        });
        // Workers wait on `work_cv` (window full), the consumer on
        // `done_cv` (next in-order slot not filled yet).
        let work_cv = Condvar::new();
        let done_cv = Condvar::new();
        #[allow(clippy::type_complexity)]
        let slots: Vec<Mutex<Option<(C::Output, CellReport)>>> =
            (0..window).map(|_| Mutex::new(None)).collect();

        std::thread::scope(|scope| {
            for _ in 0..jobs {
                scope.spawn(|| loop {
                    let idx = {
                        let mut st = state.lock().unwrap();
                        loop {
                            if opts.cancel_requested(st.released as u64)
                                && st.stop_at > st.next_claim
                            {
                                st.stop_at = st.next_claim;
                                work_cv.notify_all();
                                done_cv.notify_all();
                            }
                            if st.next_claim >= st.stop_at {
                                return;
                            }
                            if st.next_claim < st.released + window {
                                break;
                            }
                            st = work_cv.wait(st).unwrap();
                        }
                        let idx = st.next_claim;
                        st.next_claim += 1;
                        idx
                    };
                    let pair = match std::panic::catch_unwind(AssertUnwindSafe(|| {
                        compute_cell(idx, cells, opts, &done, total, started)
                    })) {
                        Ok(pair) => pair,
                        Err(panic) => {
                            // Slot `idx` will never fill: stop the sweep at
                            // it and wake everyone, so the consumer returns
                            // and `thread::scope` re-raises the panic.
                            let mut st = state.lock().unwrap();
                            st.stop_at = st.stop_at.min(idx);
                            work_cv.notify_all();
                            done_cv.notify_all();
                            drop(st);
                            std::panic::resume_unwind(panic);
                        }
                    };
                    *slots[idx % window].lock().unwrap() = Some(pair);
                    // Notify under the state lock so the consumer cannot
                    // check the slot and sleep between our fill and notify.
                    let _guard = state.lock().unwrap();
                    done_cv.notify_all();
                });
            }

            // Consumer: the calling thread releases outputs in order.
            loop {
                let next = {
                    let mut st = state.lock().unwrap();
                    loop {
                        if st.released >= st.stop_at {
                            interrupted = st.stop_at < total;
                            break None;
                        }
                        let filled = slots[st.released % window].lock().unwrap().take();
                        if let Some(pair) = filled {
                            let idx = st.released;
                            st.released += 1;
                            work_cv.notify_all();
                            break Some((idx, pair));
                        }
                        st = done_cv.wait(st).unwrap();
                    }
                };
                let Some((idx, (output, report))) = next else {
                    break;
                };
                consume(idx, output, report);
                completed += 1;
            }
        });
    }

    if interrupted {
        return Err(Error::Interrupted {
            completed: completed as u64,
            total: total as u64,
        });
    }
    Ok(SweepSummary {
        total,
        completed,
        elapsed: started.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toy cell: output = (first RNG draw, sum of key bytes).
    struct Toy {
        id: u64,
    }

    impl SweepCell for Toy {
        type Output = (u64, u64);

        fn label(&self) -> String {
            format!("toy-{}", self.id)
        }

        fn key_bytes(&self) -> Vec<u8> {
            format!("toy:{}", self.id).into_bytes()
        }

        fn run(&self, mut rng: SimRng) -> Self::Output {
            let key_sum: u64 = self.key_bytes().iter().map(|&b| b as u64).sum();
            (rng.next(), key_sum)
        }

        fn encode(output: &Self::Output) -> Option<Vec<u8>> {
            let mut buf = Vec::with_capacity(16);
            buf.extend_from_slice(&output.0.to_le_bytes());
            buf.extend_from_slice(&output.1.to_le_bytes());
            Some(buf)
        }

        fn decode(bytes: &[u8]) -> Option<Self::Output> {
            if bytes.len() != 16 {
                return None;
            }
            Some((
                u64::from_le_bytes(bytes[0..8].try_into().ok()?),
                u64::from_le_bytes(bytes[8..16].try_into().ok()?),
            ))
        }
    }

    /// Toy cell that opts out of caching and counts its executions.
    struct SideEffect<'a> {
        runs: &'a AtomicUsize,
    }

    impl SweepCell for SideEffect<'_> {
        type Output = u64;

        fn label(&self) -> String {
            "side-effect".into()
        }

        fn key_bytes(&self) -> Vec<u8> {
            b"side-effect".to_vec()
        }

        fn run(&self, mut rng: SimRng) -> u64 {
            self.runs.fetch_add(1, Ordering::Relaxed);
            rng.next()
        }

        fn encode(output: &u64) -> Option<Vec<u8>> {
            Some(output.to_le_bytes().to_vec())
        }

        fn decode(bytes: &[u8]) -> Option<u64> {
            Some(u64::from_le_bytes(bytes.try_into().ok()?))
        }

        fn cacheable(&self) -> bool {
            false
        }
    }

    /// Toy cell whose run panics at one index.
    struct Panicky {
        id: u64,
        bad: u64,
    }

    impl SweepCell for Panicky {
        type Output = u64;

        fn label(&self) -> String {
            format!("panicky-{}", self.id)
        }

        fn key_bytes(&self) -> Vec<u8> {
            format!("panicky:{}", self.id).into_bytes()
        }

        fn run(&self, _rng: SimRng) -> u64 {
            assert_ne!(self.id, self.bad, "this cell panics on purpose");
            self.id
        }

        fn encode(output: &u64) -> Option<Vec<u8>> {
            Some(output.to_le_bytes().to_vec())
        }

        fn decode(bytes: &[u8]) -> Option<u64> {
            Some(u64::from_le_bytes(bytes.try_into().ok()?))
        }
    }

    /// What a whole sweep released, in submission order.
    struct Collected<O> {
        outputs: Vec<O>,
        cells: Vec<CellReport>,
    }

    impl<O> Collected<O> {
        fn cache_hits(&self) -> usize {
            let hit = |c: &&CellReport| c.state == CacheState::Hit;
            self.cells.iter().filter(hit).count()
        }
    }

    fn run_sweep<C: SweepCell>(cells: &[C], opts: &SweepOptions) -> Collected<C::Output> {
        let mut all = Collected {
            outputs: Vec::new(),
            cells: Vec::new(),
        };
        run_sweep_streaming(cells, opts, |_idx, output, report| {
            all.outputs.push(output);
            all.cells.push(report);
        })
        .expect("uncancelled sweep completes");
        all
    }

    fn toy_cells(n: u64) -> Vec<Toy> {
        (0..n).map(|id| Toy { id }).collect()
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "sweep-test-{}-{}-{tag}",
            std::process::id(),
            fnv64(tag.as_bytes())
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// The one-pass digest must stay the two documented streams: its first
    /// half is the public [`fnv64`] (the RNG split label callers can
    /// reproduce out of band), and both halves name existing cache files.
    #[test]
    fn key_digest_is_the_two_fnv_streams() {
        for key in [&b""[..], b"k", b"toy:17", &[0xff; 300]] {
            let digest = key_digest(key);
            assert_eq!(digest[..8], fnv64(key).to_be_bytes());
            assert_eq!(
                digest[8..],
                fnv64_from(FNV_OFFSET ^ 0x5bd1_e995_9d1b_54a5, key).to_be_bytes()
            );
        }
        let digest = key_digest(b"toy:17");
        let hex: String = digest.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            cache_path(Path::new("d"), &digest),
            Path::new("d").join(hex + ".bin")
        );
    }

    #[test]
    fn parallel_matches_serial_bit_for_bit() {
        let cells = toy_cells(40);
        let serial = run_sweep(&cells, &SweepOptions::serial(7));
        for jobs in [2, 4, 8] {
            let opts = SweepOptions {
                jobs,
                ..SweepOptions::serial(7)
            };
            let parallel = run_sweep(&cells, &opts);
            assert_eq!(serial.outputs, parallel.outputs, "jobs={jobs} diverged");
        }
    }

    /// A worker whose cell panics must not leave the consumer waiting for
    /// a slot that never fills: the sweep releases the cells before it and
    /// re-raises the panic on the calling thread.
    #[test]
    fn a_panicking_cell_fails_a_parallel_sweep_instead_of_hanging() {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let cells: Vec<Panicky> = (0..16).map(|id| Panicky { id, bad: 3 }).collect();
            let opts = SweepOptions {
                jobs: 2,
                ..SweepOptions::serial(1)
            };
            let mut released = Vec::new();
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                run_sweep_streaming(&cells, &opts, |idx, _, _| released.push(idx))
            }));
            let _ = tx.send((outcome.is_err(), released));
        });
        let (panicked, released) = rx
            .recv_timeout(Duration::from_secs(20))
            .expect("the sweep returns instead of hanging");
        assert!(panicked, "the cell's panic reaches the caller");
        assert_eq!(
            released,
            [0, 1, 2],
            "cells before the panic release in order"
        );
    }

    #[test]
    fn root_seed_changes_outputs() {
        let cells = toy_cells(4);
        let a = run_sweep(&cells, &SweepOptions::serial(1));
        let b = run_sweep(&cells, &SweepOptions::serial(2));
        assert_ne!(a.outputs, b.outputs);
    }

    #[test]
    fn rng_is_independent_of_cell_order() {
        let forward = toy_cells(6);
        let mut reversed = toy_cells(6);
        reversed.reverse();
        let a = run_sweep(&forward, &SweepOptions::serial(3));
        let mut b = run_sweep(&reversed, &SweepOptions::serial(3));
        b.outputs.reverse();
        assert_eq!(a.outputs, b.outputs);
    }

    #[test]
    fn cache_round_trip_hits_on_second_run() {
        let dir = temp_dir("round-trip");
        let cells = toy_cells(5);
        let opts = SweepOptions {
            cache_dir: Some(dir.clone()),
            ..SweepOptions::serial(11)
        };
        let cold = run_sweep(&cells, &opts);
        assert_eq!(cold.cache_hits(), 0);
        let warm = run_sweep(&cells, &opts);
        assert_eq!(warm.cache_hits(), 5);
        assert_eq!(cold.outputs, warm.outputs);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_ignores_entries_from_other_keys() {
        let dir = temp_dir("other-keys");
        let opts = SweepOptions {
            cache_dir: Some(dir.clone()),
            ..SweepOptions::serial(11)
        };
        run_sweep(&toy_cells(3), &opts);
        // Different root seed: same key bytes, so the cache would collide if
        // the seed weren't part of the caller's key. The engine hashes only
        // key_bytes, so callers must fold the seed in; Toy does not, which
        // makes this a deliberate demonstration of a *hit*.
        let other = run_sweep(
            &toy_cells(3),
            &SweepOptions {
                root_seed: 99,
                ..opts
            },
        );
        assert_eq!(other.cache_hits(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entry_is_discarded_and_recomputed() {
        let dir = temp_dir("corrupt");
        let cells = toy_cells(1);
        let opts = SweepOptions {
            cache_dir: Some(dir.clone()),
            ..SweepOptions::serial(5)
        };
        let cold = run_sweep(&cells, &opts);

        let entry = cache_path(&dir, &key_digest(&cells[0].key_bytes()));
        assert!(entry.exists(), "cache entry should exist after cold run");

        // Flip a payload byte: checksum mismatch.
        let mut bytes = std::fs::read(&entry).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&entry, &bytes).unwrap();
        let after_corrupt = run_sweep(&cells, &opts);
        assert_eq!(after_corrupt.cache_hits(), 0, "corrupt entry must miss");
        assert_eq!(
            after_corrupt.cells[0].state,
            CacheState::MissCorrupt,
            "a bad entry is reported as corruption, not a cold miss"
        );
        assert_eq!(after_corrupt.outputs, cold.outputs);

        // The recompute rewrote a valid entry.
        assert_eq!(run_sweep(&cells, &opts).cache_hits(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Entries are written without an fsync, so a crash can leave an empty
    /// or tail-less file under the final name. Every such shape must read
    /// as corruption, be recomputed, and be rewritten whole.
    #[test]
    fn truncated_entry_is_discarded_and_recomputed() {
        let dir = temp_dir("truncated");
        let cells = toy_cells(1);
        let opts = SweepOptions {
            cache_dir: Some(dir.clone()),
            ..SweepOptions::serial(5)
        };
        let cold = run_sweep(&cells, &opts);

        let entry = cache_path(&dir, &key_digest(&cells[0].key_bytes()));
        let bytes = std::fs::read(&entry).unwrap();
        for cut in [0, 3, 10, 24, bytes.len() - 1] {
            std::fs::write(&entry, &bytes[..cut]).unwrap();
            let rerun = run_sweep(&cells, &opts);
            assert_eq!(
                rerun.cells[0].state,
                CacheState::MissCorrupt,
                "truncated at {cut} must read as corruption"
            );
            assert_eq!(rerun.outputs, cold.outputs);
            assert_eq!(
                std::fs::read(&entry).unwrap(),
                bytes,
                "truncated at {cut}: the recompute rewrites the whole entry"
            );
        }
        assert_eq!(run_sweep(&cells, &opts).cache_hits(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversized_and_misversioned_entries_are_discarded() {
        let dir = temp_dir("envelope");
        let cells = toy_cells(1);
        let opts = SweepOptions {
            cache_dir: Some(dir.clone()),
            ..SweepOptions::serial(5)
        };
        run_sweep(&cells, &opts);
        let entry = cache_path(&dir, &key_digest(&cells[0].key_bytes()));
        let good = std::fs::read(&entry).unwrap();

        // Trailing garbage beyond the declared payload length.
        let mut long = good.clone();
        long.push(0xaa);
        std::fs::write(&entry, &long).unwrap();
        assert_eq!(run_sweep(&cells, &opts).cache_hits(), 0);

        // Wrong version.
        let mut wrong_version = good.clone();
        wrong_version[4] ^= 0x01;
        std::fs::write(&entry, &wrong_version).unwrap();
        assert_eq!(run_sweep(&cells, &opts).cache_hits(), 0);

        // Wrong magic.
        let mut wrong_magic = good;
        wrong_magic[0] = b'X';
        std::fs::write(&entry, &wrong_magic).unwrap();
        assert_eq!(run_sweep(&cells, &opts).cache_hits(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn uncacheable_cells_bypass_the_cache() {
        let dir = temp_dir("uncacheable");
        let runs = AtomicUsize::new(0);
        let cells = [SideEffect { runs: &runs }];
        let opts = SweepOptions {
            cache_dir: Some(dir.clone()),
            ..SweepOptions::serial(5)
        };
        let a = run_sweep(&cells, &opts);
        let b = run_sweep(&cells, &opts);
        assert_eq!(runs.load(Ordering::Relaxed), 2, "both runs must execute");
        assert_eq!(a.cache_hits() + b.cache_hits(), 0);
        assert_eq!(a.outputs, b.outputs, "still deterministic");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cell_states_distinguish_cold_hit_and_uncacheable() {
        let dir = temp_dir("states");
        let cells = toy_cells(2);
        let opts = SweepOptions {
            cache_dir: Some(dir.clone()),
            ..SweepOptions::serial(21)
        };
        let cold = run_sweep(&cells, &opts);
        assert!(cold.cells.iter().all(|c| c.state == CacheState::MissCold));
        let warm = run_sweep(&cells, &opts);
        assert!(warm.cells.iter().all(|c| c.state == CacheState::Hit));
        // No cache dir: everything is uncacheable by definition.
        let uncached = run_sweep(&cells, &SweepOptions::serial(21));
        assert!(uncached
            .cells
            .iter()
            .all(|c| c.state == CacheState::Uncacheable));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn totals_accumulate_cells_and_pool_misses() {
        // Totals are process-global and other tests run concurrently, so
        // assert only on deltas this test caused (monotone non-negative).
        let before = totals();
        let cells = toy_cells(3);
        run_sweep(&cells, &SweepOptions::serial(33));
        note_pool_misses(5, 1);
        let after = totals();
        assert!(after.cells >= before.cells + 3);
        assert!(after.uncacheable >= before.uncacheable + 3);
        assert!(after.pool_misses >= before.pool_misses + 5);
        assert!(after.pool_misses_steady > before.pool_misses_steady);
        let line = after.summary_line();
        assert!(line.contains("cells"), "{line}");
        assert!(line.contains("corrupt-recomputed"), "{line}");
        assert!(line.contains("pool misses"), "{line}");
        assert!(line.contains("cells/s per worker"), "{line}");
    }

    #[test]
    fn progress_rate_eta_projects_remaining_time() {
        // No completions or no elapsed time: nothing to project yet.
        assert_eq!(progress_rate_eta(0, 10, Duration::from_secs(1)), "");
        assert_eq!(progress_rate_eta(3, 10, Duration::ZERO), "");
        // 5 cells in 5s → 1.0 cells/s, 5 remaining → 5s to go.
        assert_eq!(
            progress_rate_eta(5, 10, Duration::from_secs(5)),
            " | 1.0 cells/s, ETA 5.0s"
        );
        // Finished sweep: rate still reported, ETA collapses to zero.
        assert_eq!(
            progress_rate_eta(10, 10, Duration::from_secs(2)),
            " | 5.0 cells/s, ETA 0.0s"
        );
    }

    #[test]
    fn streaming_releases_in_submission_order_at_any_job_count() {
        let cells = toy_cells(32);
        let collected = run_sweep(&cells, &SweepOptions::serial(9));
        for jobs in [2, 5, 8] {
            let opts = SweepOptions {
                jobs,
                max_inflight: 4,
                ..SweepOptions::serial(9)
            };
            let mut seen = Vec::new();
            let mut indices = Vec::new();
            let summary = run_sweep_streaming(&cells, &opts, |idx, out, _report| {
                indices.push(idx);
                seen.push(out);
            })
            .unwrap();
            assert_eq!(summary.completed, 32);
            assert_eq!(summary.total, 32);
            assert_eq!(indices, (0..32).collect::<Vec<_>>(), "jobs={jobs}");
            assert_eq!(seen, collected.outputs, "jobs={jobs} diverged");
        }
    }

    #[test]
    fn streaming_bounds_unreleased_outputs_by_the_window() {
        /// Cell that counts computed-but-not-yet-consumed outputs.
        struct Gauge<'a> {
            id: u64,
            computed: &'a AtomicUsize,
        }
        impl SweepCell for Gauge<'_> {
            type Output = u64;
            fn label(&self) -> String {
                format!("gauge-{}", self.id)
            }
            fn key_bytes(&self) -> Vec<u8> {
                format!("gauge:{}", self.id).into_bytes()
            }
            fn run(&self, mut rng: SimRng) -> u64 {
                self.computed.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(Duration::from_micros(200));
                rng.next()
            }
            fn encode(_: &u64) -> Option<Vec<u8>> {
                None
            }
            fn decode(_: &[u8]) -> Option<u64> {
                None
            }
            fn cacheable(&self) -> bool {
                false
            }
        }

        let computed = AtomicUsize::new(0);
        let cells: Vec<Gauge> = (0..64)
            .map(|id| Gauge {
                id,
                computed: &computed,
            })
            .collect();
        let window = 4;
        let opts = SweepOptions {
            jobs: 4,
            max_inflight: window,
            ..SweepOptions::serial(2)
        };
        let mut consumed = 0usize;
        let mut max_unreleased = 0usize;
        run_sweep_streaming(&cells, &opts, |_idx, _out, _report| {
            consumed += 1;
            let unreleased = computed.load(Ordering::SeqCst) - consumed;
            max_unreleased = max_unreleased.max(unreleased);
        })
        .unwrap();
        // Claims are gated by `next_claim < released + window`; at the
        // moment the callback runs, one extra release is already counted,
        // so the strict bound is the window itself.
        assert!(
            max_unreleased <= window,
            "unreleased outputs peaked at {max_unreleased}, window is {window}"
        );
        assert_eq!(consumed, 64);
    }

    #[test]
    fn cancel_token_stops_the_sweep_and_reports_interrupted() {
        let cells = toy_cells(20);
        let opts = SweepOptions {
            jobs: 3,
            cancel_after: Some(0),
            ..SweepOptions::serial(4)
        };
        let mut consumed = 0usize;
        let err = run_sweep_streaming(&cells, &opts, |_i, _o, _r| consumed += 1).unwrap_err();
        match err {
            Error::Interrupted { completed, total } => {
                assert_eq!(total, 20);
                assert_eq!(completed, consumed as u64);
                // Cancelled before any claim: nothing should have run,
                // though a racing worker may legitimately drain a cell.
                assert!(completed < 20);
            }
            other => panic!("expected Interrupted, got {other}"),
        }
    }

    #[test]
    fn cancel_after_interrupts_then_cache_resumes_byte_identically() {
        for jobs in [1usize, 4] {
            let dir = temp_dir(&format!("resume-{jobs}"));
            let cells = toy_cells(12);
            let uninterrupted = run_sweep(&cells, &SweepOptions::serial(6));

            // A tight window so claims cannot outrun the cancel check (at
            // the default window a 12-cell grid is claimed in one gulp).
            let cached = SweepOptions {
                jobs,
                cache_dir: Some(dir.clone()),
                ..SweepOptions::serial(6)
            };
            let opts = SweepOptions {
                max_inflight: 2,
                cancel_after: Some(5),
                ..cached.clone()
            };
            let err = run_sweep_streaming(&cells, &opts, |_i, _o, _r| {}).unwrap_err();
            let Error::Interrupted { completed, total } = err else {
                panic!("expected Interrupted, got {err}");
            };
            assert_eq!(total, 12);
            assert!(completed >= 5, "drained at least the cancel_after cells");
            assert!(completed < 12, "jobs={jobs}: must actually interrupt");

            // Rerun against the same directory, no cancellation.
            let resumed = run_sweep(&cells, &cached);
            assert!(
                resumed.cache_hits() >= completed as usize,
                "jobs={jobs}: {} hits, expected the {completed} interrupted-run cells",
                resumed.cache_hits()
            );
            assert_eq!(
                resumed.outputs, uninterrupted.outputs,
                "jobs={jobs}: resumed output diverged"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn report_accounts_every_cell_in_submission_order() {
        let cells = toy_cells(7);
        let report = run_sweep(
            &cells,
            &SweepOptions {
                jobs: 3,
                ..SweepOptions::serial(1)
            },
        );
        assert_eq!(report.outputs.len(), 7);
        assert_eq!(report.cells.len(), 7);
        for (i, cell) in report.cells.iter().enumerate() {
            assert_eq!(cell.label, format!("toy-{i}"));
        }
    }
}
