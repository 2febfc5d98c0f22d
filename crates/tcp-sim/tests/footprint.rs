//! Heap-footprint gates for packet-heavy simulations.
//!
//! Most of a large simulation's memory is per-in-flight-packet state: the
//! scoreboard's segment records, `SEG_CHUNK` to a slab chunk, one slab
//! shared by every flow, and beside it one rate stamp per send batch in
//! each flow's stamp ring, carved from a second shared slab. Each slab
//! grows by fixed blocks of 32 chunks that are never reallocated. These
//! tests pin the total down with a counting global allocator — peak *live
//! requested bytes*, not RSS, so the number depends on the code and the
//! toolchain's growth policies, never on the host, the system allocator or
//! what else the machine is doing.
//!
//! Measured on the two runs below (2 simulated seconds each):
//!
//! | per-packet state                                 | 100-device fleet | shallow FIFO     |
//! |--------------------------------------------------|------------------|------------------|
//! | 72-byte plain record                             | 10 408 336 bytes |                  |
//! | 40-byte packed record, stamp in every packet     |  6 208 360 bytes | 10 570 088 bytes |
//! | 8-byte record, one 32-byte stamp per batch       |  3 069 416 bytes |  6 384 968 bytes |
//! | the same, slabs grown by fixed blocks            |  2 497 272 bytes |  4 617 032 bytes |
//! | the same with a 16-byte record (probe only)      |  3 365 624 bytes |  5 796 680 bytes |
//!
//! Until the fixed blocks, each slab was one `Vec` that doubled, so its
//! capacity slack (up to half the slab) was live heap too; now the slack
//! is at most one part-used block per slab.
//!
//! [`PEAK_LIVE_BOUND`] and [`SMALL_BATCH_BOUND`] sit between the last two
//! rows, so eight more bytes on the record trips either: growing the
//! record back, or adding a comparable per-packet or per-flow cost
//! anywhere in the stack, fails here before it shows up as `peak_rss_mb`
//! in the benchmark. The shallow FIFO is Reno over a 10-packet buffer,
//! where a send batch averages about one and a half packets: the regime
//! where a 32-byte stamp per batch saves the least.
//!
//! The shallow-FIFO run also bounds the largest single request at one
//! stamp-slab block ([`LARGEST_REQUEST_BOUND`]). A slab that goes back to
//! growing one buffer asks for it whole: 4 194 304 bytes in this run, and
//! 16 777 216 over the benchmark's 5 s `loss_recovery` window. glibc may
//! serve such a request by a copying `realloc` in the brk heap, with the
//! old and new buffers resident at once. That cost is RSS, not live heap,
//! so only this bound catches it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use congestion::CcKind;
use cpu_model::{CpuConfig, DeviceProfile};
use netsim::{MediaProfile, Qdisc};
use sim_core::time::SimDuration;
use sim_core::units::Bandwidth;
use tcp_sim::{FleetConfig, SimConfig, SimResult, StackSim};

/// Peak live heap bytes the fleet run may reach; see the module table.
const PEAK_LIVE_BOUND: i64 = 2_800_000;

/// Peak live heap bytes the shallow-FIFO run may reach; see the module
/// table.
const SMALL_BATCH_BOUND: i64 = 5_200_000;

/// The largest single request the shallow-FIFO run may make: one block of
/// the stamp slab (32 chunks of 64 32-byte stamps); see the module docs.
const LARGEST_REQUEST_BOUND: usize = 65_536;

/// `System` allocator wrapper that tracks live and peak requested bytes —
/// but only for the thread that opted in via [`COUNTING`] (the test
/// harness's own threads allocate too, at times the test doesn't control).
struct LiveBytesAlloc;

thread_local! {
    // Const-initialised `Cell`s: no lazy init, no destructor, so touching
    // them inside the allocator never allocates and `try_with` stays safe
    // during thread teardown.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// Bytes allocated minus bytes freed since counting began. Signed:
    /// the measured phase may free memory allocated before it.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
    /// The largest single request (allocation or reallocation target).
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn account(delta: i64, request: usize) {
    if !COUNTING.try_with(Cell::get).unwrap_or(false) {
        return;
    }
    LARGEST.with(|l| l.set(l.get().max(request)));
    let live = LIVE.with(|l| {
        l.set(l.get() + delta);
        l.get()
    });
    PEAK.with(|p| p.set(p.get().max(live)));
}

unsafe impl GlobalAlloc for LiveBytesAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        account(layout.size() as i64, layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        account(-(layout.size() as i64), 0);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        account(new_size as i64 - layout.size() as i64, new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: LiveBytesAlloc = LiveBytesAlloc;

/// The benchmark's `fleet_pop` workload at a tenth of its population and a
/// fifth of its duration: a mixed fleet through a shared CoDel PoP uplink
/// provisioned at 20 Mbps per device.
fn fleet_config() -> SimConfig {
    const DEVICES: usize = 100;
    let fleet = FleetConfig::mixed(DEVICES).with_shared(FleetConfig::pop_uplink(
        Bandwidth::from_mbps(20 * DEVICES as u64),
        Qdisc::Codel,
    ));
    SimConfig::builder(DeviceProfile::pixel4(), CpuConfig::HighEnd, CcKind::Bbr, 1)
        .fleet(fleet)
        .start_stagger(SimDuration::from_micros(100))
        .sample_interval(None)
        .duration(SimDuration::from_millis(2_000))
        .warmup(SimDuration::from_millis(500))
        .seed(1)
        .build()
        .expect("valid fleet config")
}

/// The benchmark's `loss_recovery` Reno shallow-FIFO cell, shortened: 20
/// connections into a 10-packet droptail buffer, where a send batch
/// averages about one and a half packets.
fn shallow_fifo_config() -> SimConfig {
    let path = MediaProfile::Ethernet.path_config().with_queue_packets(10);
    SimConfig::builder(
        DeviceProfile::pixel4(),
        CpuConfig::HighEnd,
        CcKind::Reno,
        20,
    )
    .path(path)
    .qdisc(Qdisc::Fifo)
    .sample_interval(None)
    .duration(SimDuration::from_millis(2_000))
    .warmup(SimDuration::from_millis(500))
    .seed(1)
    .build()
    .expect("valid shallow-FIFO config")
}

/// What the counting allocator saw over one simulation.
struct Footprint {
    /// Peak live requested bytes.
    peak: i64,
    /// The largest single request, in bytes.
    largest: usize,
}

/// Run `cfg` with the counting allocator on.
fn measure(cfg: SimConfig) -> (Footprint, SimResult) {
    COUNTING.with(|c| c.set(true));
    let result = StackSim::new(cfg).run();
    COUNTING.with(|c| c.set(false));
    let seen = Footprint {
        peak: PEAK.with(Cell::get),
        largest: LARGEST.with(Cell::get),
    };
    (seen, result)
}

#[test]
fn fleet_peak_live_heap_stays_under_bound() {
    let (Footprint { peak, .. }, result) = measure(fleet_config());
    assert!(
        result.fleet.is_some(),
        "the run must have gone through the fleet path"
    );
    println!("fleet peak live heap: {peak} bytes");
    assert!(
        peak < PEAK_LIVE_BOUND,
        "peak live heap {peak} B reached the {PEAK_LIVE_BOUND} B bound: \
         per-packet or per-flow state grew (see the module docs)"
    );
}

#[test]
fn small_batch_peak_live_heap_stays_under_bound() {
    let (Footprint { peak, largest }, result) = measure(shallow_fifo_config());
    assert!(result.total_retx > 0, "the shallow buffer must drop");
    println!("shallow-FIFO peak live heap: {peak} bytes");
    println!("shallow-FIFO largest request: {largest} bytes");
    assert!(
        peak <= SMALL_BATCH_BOUND,
        "peak live heap {peak} B exceeded the {SMALL_BATCH_BOUND} B bound: \
         per-packet or per-flow state grew (see the module docs)"
    );
    assert!(
        largest <= LARGEST_REQUEST_BOUND,
        "one {largest} B request exceeds the {LARGEST_REQUEST_BOUND} B bound: \
         a slab grows one buffer again (see the module docs)"
    );
}
