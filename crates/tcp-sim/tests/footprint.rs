//! Heap-footprint gates for packet-heavy simulations.
//!
//! Most of a large simulation's memory is per-in-flight-packet state: the
//! scoreboard's segment records, `SEG_CHUNK` to a slab chunk, one slab
//! shared by every flow, and beside it one rate stamp per send batch in
//! each flow's stamp ring, carved from a second shared slab. These tests
//! pin the total down with a counting global allocator — peak *live
//! requested bytes*, not RSS, so the number depends on the code and the
//! toolchain's growth policies, never on the host, the system allocator or
//! what else the machine is doing.
//!
//! Measured on the 100-device fleet below (2 simulated seconds):
//!
//! | per-packet state                              | peak live heap   |
//! |-----------------------------------------------|------------------|
//! | 72-byte plain record                          | 10 408 336 bytes |
//! | 40-byte packed record, stamp in every packet  |  6 208 360 bytes |
//! | 8-byte record, one 32-byte stamp per batch    |  3 069 416 bytes |
//!
//! [`PEAK_LIVE_BOUND`] sits between the last two, close enough to the
//! stamp-ring value that eight more bytes on the record (+1 MiB: the
//! slab's backing `Vec` doubles, to capacity for 131 072 records) trips
//! it: growing the record back, or adding a comparable per-packet or
//! per-flow cost anywhere in the stack, fails here before it shows up as
//! `peak_rss_mb` in the benchmark.
//!
//! A stamp costs 32 bytes once per batch, so the ring saves the most where
//! batches are long. The second case is the regime where it could lose:
//! Reno over a 10-packet FIFO, where a batch averages about one and a half
//! packets. It measured 10 570 088 bytes with the 40-byte record and
//! 6 384 968 with the ring; [`SMALL_BATCH_BOUND`] holds it at the
//! 40-byte record's value.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use congestion::CcKind;
use cpu_model::{CpuConfig, DeviceProfile};
use netsim::{MediaProfile, Qdisc};
use sim_core::time::SimDuration;
use sim_core::units::Bandwidth;
use tcp_sim::{FleetConfig, SimConfig, SimResult, StackSim};

/// Peak live heap bytes the fleet run may reach; see the module table.
const PEAK_LIVE_BOUND: i64 = 4_000_000;

/// Peak live heap bytes the shallow-FIFO run may reach; see the module
/// table.
const SMALL_BATCH_BOUND: i64 = 10_570_088;

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
}

fn account(delta: i64) {
    if !COUNTING.try_with(Cell::get).unwrap_or(false) {
        return;
    }
    let live = LIVE.with(|l| {
        l.set(l.get() + delta);
        l.get()
    });
    PEAK.with(|p| p.set(p.get().max(live)));
}

unsafe impl GlobalAlloc for LiveBytesAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        account(layout.size() as i64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        account(-(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        account(new_size as i64 - layout.size() as i64);
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

/// Run `cfg` with the counting allocator on and return its peak live heap.
fn peak_live_heap(cfg: SimConfig) -> (i64, SimResult) {
    COUNTING.with(|c| c.set(true));
    let result = StackSim::new(cfg).run();
    COUNTING.with(|c| c.set(false));
    (PEAK.with(Cell::get), result)
}

#[test]
fn fleet_peak_live_heap_stays_under_bound() {
    let (peak, result) = peak_live_heap(fleet_config());
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
    let (peak, result) = peak_live_heap(shallow_fifo_config());
    assert!(result.total_retx > 0, "the shallow buffer must drop");
    println!("shallow-FIFO peak live heap: {peak} bytes");
    assert!(
        peak <= SMALL_BATCH_BOUND,
        "peak live heap {peak} B exceeded the {SMALL_BATCH_BOUND} B bound: \
         one stamp per batch costs more than it saves (see the module docs)"
    );
}
