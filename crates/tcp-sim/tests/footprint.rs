//! Heap-footprint gate for a fleet simulation.
//!
//! Most of a large simulation's memory is per-in-flight-packet state: the
//! scoreboard's segment records, `SEG_CHUNK` to a slab chunk, one slab
//! shared by every flow. This test pins the total down with a counting
//! global allocator — peak *live requested bytes*, not RSS, so the number
//! depends on the code and the toolchain's growth policies, never on the
//! host, the system allocator or what else the machine is doing.
//!
//! Measured on the 100-device fleet below (2 simulated seconds):
//!
//! | segment record            | peak live heap   |
//! |---------------------------|------------------|
//! | 72 bytes (parent, PR 21)  | 10 408 336 bytes |
//! | 40 bytes (packed, PR 23)  |  6 214 032 bytes |
//!
//! The difference is exactly 4 MiB: the slab's backing `Vec` doubles, so
//! both runs end with capacity for 131 072 records and differ by 32 bytes
//! on each. [`PEAK_LIVE_BOUND`] sits between the two, close enough to the
//! packed value that eight more bytes on the record (+1 MiB) trips it:
//! growing the record back, or adding a comparable per-packet or per-flow
//! cost anywhere in the stack, fails here before it shows up as
//! `peak_rss_mb` in the benchmark.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use congestion::CcKind;
use cpu_model::{CpuConfig, DeviceProfile};
use netsim::Qdisc;
use sim_core::time::SimDuration;
use sim_core::units::Bandwidth;
use tcp_sim::{FleetConfig, SimConfig, StackSim};

/// Peak live heap bytes the fleet run may reach; see the module table.
const PEAK_LIVE_BOUND: i64 = 7_000_000;

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

#[test]
fn fleet_peak_live_heap_stays_under_bound() {
    let cfg = fleet_config();

    COUNTING.with(|c| c.set(true));
    let result = StackSim::new(cfg).run();
    COUNTING.with(|c| c.set(false));
    let peak = PEAK.with(Cell::get);

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
