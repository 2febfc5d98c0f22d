//! The cycle-accounting CPU itself.
//!
//! [`Cpu::execute_tagged`] is the simulator's contract with the networking stack:
//! "run `cycles` of work, starting no earlier than `ready`", returning the
//! *completion time*. Work serialises — a request issued while the core is
//! busy queues behind it — which is what turns per-send pacing overhead into
//! the goodput collapse of the paper: at 576 MHz with twenty paced flows,
//! timer fires arrive faster than the core retires them, every send slips,
//! and the delivered rate falls far below the configured pacing rate.
//!
//! Under the Default configuration the frequency is re-evaluated every
//! governor period from trailing utilisation (see [`crate::governor`]).

use crate::governor::{CpuTopology, GovernorPolicy, SchedutilState};
use crate::profile::{CpuProfile, CpuProfiler};
use serde::Serialize;
use sim_core::metrics::UtilWindow;
use sim_core::time::{SimDuration, SimTime};
use sim_core::trace::{TraceBuffer, TraceKind, TraceSink};
use std::collections::BTreeMap;

/// Aggregate statistics about a CPU over a run.
#[derive(Debug, Clone, Default, Serialize)]
pub struct CpuStats {
    /// Total cycles executed.
    pub total_cycles: u64,
    /// Total busy time.
    pub busy_time: SimDuration,
    /// Time-weighted average frequency observed (Hz).
    pub mean_freq_hz: f64,
    /// Cycles by operation category ("bytes", "timers", "acks", …): the
    /// breakdown that makes the paper's mechanism visible — on a paced
    /// Low-End run a large share goes to "timers".
    pub cycles_by_category: BTreeMap<&'static str, u64>,
}

/// Size of the cycles→duration memo (power of two; direct-mapped on the
/// cycle count's low bits).
const DUR_CACHE_SLOTS: usize = 16;

/// A single modelled core (the one running the phone's network softirq),
/// with either a pinned or a governed frequency.
pub struct Cpu {
    topology: std::sync::Arc<CpuTopology>,
    freq_hz: u64,
    /// The schedutil state and the trailing busy window it reads. Pinned
    /// cores have neither: they never tick, so nothing would read (or
    /// drain) a window recorded for them.
    governor: Option<(SchedutilState, UtilWindow)>,
    busy_until: SimTime,
    // Statistics.
    total_cycles: u64,
    busy_time: SimDuration,
    // freq integral for mean frequency reporting.
    freq_weighted_ns: f64,
    last_freq_change: SimTime,
    /// Per-category cycle tallies as a linear vec: the category set is a
    /// handful of static strings, and this accounting runs on every charge
    /// — a B-tree lookup per packet was a measurable slice of the event
    /// budget at 1000 flows. [`Cpu::stats`] sorts it into a `BTreeMap`.
    cat_cycles: Vec<(&'static str, u64)>,
    /// Memo for [`Cpu::cycles_to_duration`]: `(cycles, duration_ns)` pairs
    /// valid at the current frequency. The charge mix is a few constants
    /// (per-ACK, timer fire/arm, fixed skb cost) plus a handful of
    /// autosized byte totals, so a tiny direct-mapped cache absorbs almost
    /// every 128-bit division. Entries hold the exact `div_ceil` result —
    /// hits are bit-identical to recomputation.
    dur_cache: [(u64, u64); DUR_CACHE_SLOTS],
    // sim-trace: span recording and the windowed Fig. 4/5 profiler. Both are
    // inert (one branch each per execute) unless enabled for a traced run.
    tracer: TraceSink,
    profiler: Option<CpuProfiler>,
}

impl Cpu {
    /// Build a CPU from a (shared) topology and governor policy.
    pub fn new(topology: std::sync::Arc<CpuTopology>, policy: GovernorPolicy) -> Self {
        let (freq_hz, governor) = match policy {
            GovernorPolicy::Fixed { freq_hz, .. } => {
                assert!(freq_hz > 0, "pinned frequency must be positive");
                (freq_hz, None)
            }
            GovernorPolicy::Schedutil(params) => {
                let state = SchedutilState::new(params, &topology);
                let window = UtilWindow::new(state.update_period() * 2);
                (state.freq_hz(), Some((state, window)))
            }
        };
        Cpu {
            topology,
            freq_hz,
            governor,
            busy_until: SimTime::ZERO,
            total_cycles: 0,
            busy_time: SimDuration::ZERO,
            freq_weighted_ns: 0.0,
            last_freq_change: SimTime::ZERO,
            cat_cycles: Vec::new(),
            dur_cache: [(0, 0); DUR_CACHE_SLOTS],
            tracer: TraceSink::disabled(),
            profiler: None,
        }
    }

    /// Attach a sim-trace ring buffer; every subsequent executed span
    /// records a [`TraceKind::CpuSpan`] (category, start→end, cycles).
    pub fn set_tracer(&mut self, capacity: usize) {
        self.tracer.enable(capacity);
    }

    /// Detach and return the span trace buffer (None if tracing was never
    /// enabled).
    pub fn take_tracer(&mut self) -> Option<TraceBuffer> {
        self.tracer.take()
    }

    /// Start bucketing executed cycles into `window`-sized profile windows
    /// (see [`crate::profile`]).
    pub fn enable_profiler(&mut self, window: SimDuration) {
        self.profiler = Some(CpuProfiler::new(window));
    }

    /// Finish and return the windowed profile (None if never enabled).
    pub fn take_profile(&mut self) -> Option<CpuProfile> {
        self.profiler.take().map(CpuProfiler::finish)
    }

    /// Whether this CPU runs a dynamic governor.
    pub fn is_dynamic(&self) -> bool {
        self.governor.is_some()
    }

    /// Execute `cycles` of work that becomes runnable at `ready`, charging
    /// them to `category` in the cycle breakdown.
    ///
    /// Returns the completion time: `max(ready, busy_until) + cycles/freq`.
    /// A zero-cycle request completes at `max(ready, busy_until)` without
    /// occupying the core.
    pub fn execute_tagged(
        &mut self,
        ready: SimTime,
        cycles: u64,
        category: &'static str,
    ) -> SimTime {
        let start = if self.busy_until > ready {
            self.busy_until
        } else {
            ready
        };
        if cycles == 0 {
            return start;
        }
        let dur = self.cycles_to_duration_cached(cycles);
        let end = start + dur;
        self.busy_until = end;
        if let Some((_, util)) = self.governor.as_mut() {
            util.record_busy(start, end, ready);
        }
        self.total_cycles += cycles;
        // Address-compare first: category tags are `&'static str` literals,
        // so after LTO the same tag is the same pointer and the scan is a
        // handful of integer compares. The content-compare pass only runs
        // when a tag was duplicated across compilation units (then both
        // passes agree on which entry to bump, so totals stay exact).
        let cat_ptr = category.as_ptr();
        if let Some((_, v)) = self
            .cat_cycles
            .iter_mut()
            .find(|(k, _)| k.as_ptr() == cat_ptr)
        {
            *v += cycles;
        } else if let Some((_, v)) = self.cat_cycles.iter_mut().find(|(k, _)| *k == category) {
            *v += cycles;
        } else {
            self.cat_cycles.push((category, cycles));
        }
        self.busy_time += dur;
        if self.tracer.is_enabled() {
            let cat = self.tracer.intern(category);
            self.tracer.record(
                start,
                TraceKind::CpuSpan,
                cat as u32,
                end.as_nanos(),
                cycles,
            );
        }
        if let Some(p) = self.profiler.as_mut() {
            p.record(start, category, cycles);
        }
        end
    }

    /// Duration of `cycles` at `freq_hz`, rounded up to the next nanosecond.
    fn cycles_to_duration(cycles: u64, freq_hz: u64) -> SimDuration {
        let ns = ((cycles as u128) * 1_000_000_000).div_ceil(freq_hz as u128);
        SimDuration::from_nanos(ns.min(u64::MAX as u128) as u64)
    }

    /// [`Cpu::cycles_to_duration`] through the direct-mapped memo. A hit
    /// returns the stored exact result; a miss computes and overwrites the
    /// slot. Frequency changes flush the cache (see [`Cpu::governor_tick`]).
    #[inline]
    fn cycles_to_duration_cached(&mut self, cycles: u64) -> SimDuration {
        let slot = (cycles as usize) & (DUR_CACHE_SLOTS - 1);
        let (key, ns) = self.dur_cache[slot];
        if key == cycles {
            return SimDuration::from_nanos(ns);
        }
        let dur = Self::cycles_to_duration(cycles, self.freq_hz);
        self.dur_cache[slot] = (cycles, dur.as_nanos());
        dur
    }

    /// Cumulative busy time (for long-horizon utilisation measurements).
    pub fn busy_time(&self) -> SimDuration {
        self.busy_time
    }

    /// Total cycles executed so far (live view; [`Cpu::stats`] snapshots it).
    pub fn total_cycles(&self) -> u64 {
        self.total_cycles
    }

    /// Live per-category cycle breakdown. The simulator snapshots this at
    /// the start of the measurement period so steady-state attribution can
    /// exclude warmup. Built on demand — the live tally is a linear vec.
    pub fn cycles_by_category(&self) -> BTreeMap<&'static str, u64> {
        self.cat_cycles.iter().copied().collect()
    }

    /// Governor tick: re-evaluate frequency from trailing utilisation.
    /// No-op for Fixed policies. Returns the next tick's due time, or `None`
    /// if the policy is fixed (no ticks needed).
    pub fn governor_tick(&mut self, now: SimTime) -> Option<SimTime> {
        let (governor, util) = self.governor.as_mut()?;
        let util = util.utilization(now);
        let old_freq = self.freq_hz;
        let new_freq = governor.update(util, &self.topology);
        if new_freq != old_freq {
            self.freq_weighted_ns +=
                old_freq as f64 * now.saturating_since(self.last_freq_change).as_nanos() as f64;
            self.last_freq_change = now;
            self.freq_hz = new_freq;
            self.dur_cache = [(0, 0); DUR_CACHE_SLOTS];
        }
        Some(now + governor.update_period())
    }

    /// Snapshot statistics at `end_time` (the run's end).
    pub fn stats(&self, end_time: SimTime) -> CpuStats {
        let freq_integral = self.freq_weighted_ns
            + self.freq_hz as f64
                * end_time.saturating_since(self.last_freq_change).as_nanos() as f64;
        let mean_freq = if end_time.as_nanos() == 0 {
            self.freq_hz as f64
        } else {
            freq_integral / end_time.as_nanos() as f64
        };
        CpuStats {
            cycles_by_category: self.cycles_by_category(),
            total_cycles: self.total_cycles,
            busy_time: self.busy_time,
            mean_freq_hz: mean_freq,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs::DeviceProfile;
    use crate::governor::{ClusterKind, SchedutilParams};
    use proptest::prelude::*;

    fn fixed_cpu(freq_hz: u64) -> Cpu {
        let p = DeviceProfile::pixel4();
        Cpu::new(
            p.topology,
            GovernorPolicy::Fixed {
                freq_hz,
                cluster: ClusterKind::Little,
            },
        )
    }

    #[test]
    fn execute_idle_runs_immediately() {
        let mut cpu = fixed_cpu(1_000_000_000); // 1 GHz: 1 cycle = 1 ns
        let done = cpu.execute_tagged(SimTime::from_micros(5), 1_000, "other");
        assert_eq!(
            done,
            SimTime::from_micros(5) + SimDuration::from_nanos(1_000)
        );
    }

    #[test]
    fn execute_serialises_behind_busy_core() {
        let mut cpu = fixed_cpu(1_000_000_000);
        let first = cpu.execute_tagged(SimTime::ZERO, 10_000, "other"); // busy until 10 µs
        assert_eq!(first, SimTime::from_micros(10));
        // Second request ready at 2 µs must wait for the first: its 5 µs
        // of work starts at 10 µs, after 8 µs of queueing.
        let second = cpu.execute_tagged(SimTime::from_micros(2), 5_000, "other");
        assert_eq!(second, SimTime::from_micros(15));
        assert_eq!(cpu.busy_until, second);
    }

    #[test]
    fn zero_cycles_completes_at_start_without_occupying() {
        let mut cpu = fixed_cpu(1_000_000_000);
        cpu.execute_tagged(SimTime::ZERO, 1_000, "other");
        let t = cpu.execute_tagged(SimTime::ZERO, 0, "other");
        assert_eq!(t, SimTime::from_micros(1));
        assert_eq!(
            cpu.busy_until,
            SimTime::from_micros(1),
            "zero work must not extend busy"
        );
    }

    #[test]
    fn duration_scales_inversely_with_frequency() {
        let mut slow = fixed_cpu(576_000_000);
        let mut fast = fixed_cpu(2_800_000_000);
        let cycles = 18_000; // one skb_xmit_fixed
        let t_slow = slow
            .execute_tagged(SimTime::ZERO, cycles, "other")
            .as_nanos();
        let t_fast = fast
            .execute_tagged(SimTime::ZERO, cycles, "other")
            .as_nanos();
        let ratio = t_slow as f64 / t_fast as f64;
        assert!((ratio - 2_800.0 / 576.0).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn cycles_to_duration_rounds_up() {
        // 1 cycle at 3 Hz = 333,333,333.3 ns → 333,333,334.
        let mut cpu = fixed_cpu(3);
        let done = cpu.execute_tagged(SimTime::ZERO, 1, "other");
        assert_eq!(done.as_nanos(), 333_333_334);
    }

    #[test]
    fn fixed_policy_has_no_governor_ticks() {
        let mut cpu = fixed_cpu(576_000_000);
        assert_eq!(cpu.governor_tick(SimTime::from_millis(10)), None);
        assert!(!cpu.is_dynamic());
    }

    #[test]
    fn dynamic_policy_ramps_under_load() {
        let p = DeviceProfile::pixel4();
        let mut cpu = Cpu::new(
            p.topology.clone(),
            GovernorPolicy::Schedutil(SchedutilParams::default()),
        );
        assert!(cpu.is_dynamic());
        let start_freq = cpu.freq_hz;
        assert_eq!(start_freq, p.topology.little.min_freq());
        // Saturate the core and tick the governor repeatedly, counting the
        // ticks that moved the frequency.
        let mut now = SimTime::ZERO;
        let mut freq_changes = 0;
        for _ in 0..40 {
            // Work sized to keep the core busy through the whole period.
            let cycles = cpu.freq_hz / 50; // 20 ms of work
            cpu.execute_tagged(now, cycles, "other");
            let before = cpu.freq_hz;
            now = cpu
                .governor_tick(now + SimDuration::from_millis(10))
                .unwrap();
            freq_changes += u32::from(cpu.freq_hz != before);
        }
        assert!(cpu.freq_hz > start_freq, "governor should have ramped up");
        assert!(freq_changes > 0);
        let stats = cpu.stats(now);
        assert!(stats.mean_freq_hz > start_freq as f64);
        assert!(stats.mean_freq_hz < p.topology.big.max_freq() as f64);
    }

    #[test]
    fn dynamic_policy_idles_down() {
        let p = DeviceProfile::pixel4();
        let mut cpu = Cpu::new(
            p.topology.clone(),
            GovernorPolicy::Schedutil(SchedutilParams::default()),
        );
        // Ramp up…
        let mut now = SimTime::ZERO;
        for _ in 0..40 {
            let cycles = cpu.freq_hz / 50;
            cpu.execute_tagged(now, cycles, "other");
            now = cpu
                .governor_tick(now + SimDuration::from_millis(10))
                .unwrap();
        }
        let peak = cpu.freq_hz;
        // …then go idle.
        for _ in 0..40 {
            now = cpu
                .governor_tick(now + SimDuration::from_millis(10))
                .unwrap();
        }
        assert!(cpu.freq_hz < peak, "governor should have ramped down");
        assert_eq!(cpu.freq_hz, p.topology.little.min_freq());
    }

    #[test]
    fn stats_account_everything() {
        let mut cpu = fixed_cpu(1_000_000_000);
        cpu.execute_tagged(SimTime::ZERO, 1_000, "other");
        cpu.execute_tagged(SimTime::ZERO, 2_000, "other");
        let stats = cpu.stats(SimTime::from_millis(1));
        assert_eq!(stats.total_cycles, 3_000);
        assert_eq!(stats.busy_time, SimDuration::from_nanos(3_000));
        assert_eq!(stats.mean_freq_hz, 1e9);
    }

    #[test]
    fn category_breakdown_accumulates() {
        let mut cpu = fixed_cpu(1_000_000_000);
        cpu.execute_tagged(SimTime::ZERO, 100, "timers");
        cpu.execute_tagged(SimTime::ZERO, 200, "bytes");
        cpu.execute_tagged(SimTime::ZERO, 300, "timers");
        let stats = cpu.stats(cpu.busy_until);
        assert_eq!(stats.cycles_by_category.get("timers"), Some(&400));
        assert_eq!(stats.cycles_by_category.get("bytes"), Some(&200));
        assert_eq!(stats.total_cycles, 600);
        assert_eq!(
            stats.cycles_by_category.values().sum::<u64>(),
            stats.total_cycles,
            "categories partition the total"
        );
    }

    proptest! {
        /// Completion times are monotone in request order for same-ready work.
        #[test]
        fn prop_completions_monotone(cycle_list in proptest::collection::vec(1u64..100_000, 1..50)) {
            let mut cpu = fixed_cpu(576_000_000);
            let mut last = SimTime::ZERO;
            for cycles in cycle_list {
                let done = cpu.execute_tagged(SimTime::ZERO, cycles, "other");
                prop_assert!(done >= last);
                last = done;
            }
        }

        /// Busy time equals the sum of individual durations when work never
        /// overlaps (single queue ⇒ total busy = Σ cycles/freq ± rounding).
        #[test]
        fn prop_busy_time_additive(cycle_list in proptest::collection::vec(1u64..100_000, 1..50)) {
            let freq = 1_000_000_000u64;
            let mut cpu = fixed_cpu(freq);
            let mut expected_ns = 0u64;
            for &cycles in &cycle_list {
                cpu.execute_tagged(SimTime::ZERO, cycles, "other");
                expected_ns += cycles; // 1 GHz: 1 cycle = 1 ns exactly
            }
            let stats = cpu.stats(cpu.busy_until);
            prop_assert_eq!(stats.busy_time.as_nanos(), expected_ns);
        }
    }
}
