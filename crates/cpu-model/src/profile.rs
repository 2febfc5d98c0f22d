//! Windowed simulated-CPU profiler: the Fig. 4/5 instrument.
//!
//! The paper's Fig. 4/5 are `perf`-style profiles attributing CPU cycles to
//! kernel components — and showing that on a low-end core the pacing-timer
//! machinery, not the data path, dominates under BBR. The simulator already
//! tags every modelled operation with a cost category ([`crate::CostModel`]);
//! this module buckets those cycles **per utilization window** so a traced
//! run can show *when* each component ate the core, not just the end-of-run
//! totals.
//!
//! Attribution rule: a span's cycles are charged to the window containing
//! the span's *start*. Spans are short (tens of microseconds) relative to
//! the default window (100 ms), so the error from not splitting a span
//! across a window boundary is negligible, and the hot path stays a single
//! map update.

use sim_core::time::{SimDuration, SimTime};
use sim_core::trace::CounterSeries;
use std::collections::BTreeMap;

/// Default profile window. 100 ms is fine enough to see governor ramps and
/// BBR phase changes, coarse enough that a multi-second run stays small.
pub const DEFAULT_WINDOW: SimDuration = SimDuration::from_millis(100);

/// Accumulates per-window, per-category cycle counts during a run.
///
/// Owned by [`crate::Cpu`] and fed from `execute_tagged`; the ordered map
/// keys make the finished profile deterministic without a sort.
#[derive(Debug)]
pub struct CpuProfiler {
    window: SimDuration,
    cells: BTreeMap<(u64, &'static str), u64>,
}

impl CpuProfiler {
    /// A profiler bucketing cycles into windows of `window` length.
    ///
    /// # Panics
    /// Panics on a zero window (the window index would divide by zero).
    pub(crate) fn new(window: SimDuration) -> Self {
        assert!(!window.is_zero(), "profile window must be positive");
        CpuProfiler {
            window,
            cells: BTreeMap::new(),
        }
    }

    /// Charge `cycles` of `category` work starting at `start`.
    #[inline]
    pub(crate) fn record(&mut self, start: SimTime, category: &'static str, cycles: u64) {
        let idx = start.as_nanos() / self.window.as_nanos();
        *self.cells.entry((idx, category)).or_insert(0) += cycles;
    }

    /// Finish the run and emit the profile (rows in window, then category
    /// order).
    pub(crate) fn finish(self) -> CpuProfile {
        let window = self.window;
        let rows = self
            .cells
            .into_iter()
            .map(|((idx, category), cycles)| ProfileRow {
                window_start: SimTime::from_nanos(idx * window.as_nanos()),
                category,
                cycles,
            })
            .collect();
        CpuProfile { window, rows }
    }
}

/// One `(window, category)` bucket of a finished [`CpuProfile`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfileRow {
    /// Start of the window this bucket covers.
    pub window_start: SimTime,
    /// Cost-model category ("timers", "acks", "bytes", …).
    pub category: &'static str,
    /// Cycles charged to this category in this window.
    pub cycles: u64,
}

/// A finished windowed cycle-attribution profile.
#[derive(Debug, Clone, Default)]
pub struct CpuProfile {
    /// Window length the run was bucketed by.
    pub window: SimDuration,
    /// Buckets in ascending (window, category) order.
    pub rows: Vec<ProfileRow>,
}

impl CpuProfile {
    /// Convert to trace counter series (one `cycles.<category>` series per
    /// category, one point per window), for embedding in a
    /// [`sim_core::trace::TraceLog`].
    pub fn to_series(&self) -> Vec<CounterSeries> {
        let mut by_cat: BTreeMap<&'static str, Vec<(SimTime, u64)>> = BTreeMap::new();
        for row in &self.rows {
            by_cat
                .entry(row.category)
                .or_default()
                .push((row.window_start, row.cycles));
        }
        by_cat
            .into_iter()
            .map(|(cat, points)| CounterSeries {
                name: format!("cycles.{cat}"),
                points,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_by_window_of_span_start() {
        let mut p = CpuProfiler::new(SimDuration::from_millis(10));
        p.record(SimTime::from_millis(1), "timers", 100);
        p.record(SimTime::from_millis(9), "timers", 50); // same window
        p.record(SimTime::from_millis(12), "timers", 7); // next window
        p.record(SimTime::from_millis(12), "acks", 3);
        let profile = p.finish();
        assert_eq!(
            profile.rows,
            vec![
                ProfileRow {
                    window_start: SimTime::ZERO,
                    category: "timers",
                    cycles: 150
                },
                ProfileRow {
                    window_start: SimTime::from_millis(10),
                    category: "acks",
                    cycles: 3
                },
                ProfileRow {
                    window_start: SimTime::from_millis(10),
                    category: "timers",
                    cycles: 7
                },
            ]
        );
    }

    #[test]
    fn totals_sum_across_windows() {
        let mut p = CpuProfiler::new(SimDuration::from_millis(10));
        p.record(SimTime::from_millis(1), "timers", 100);
        p.record(SimTime::from_millis(25), "timers", 11);
        p.record(SimTime::from_millis(25), "bytes", 4);
        let totals: Vec<(String, u64)> = p
            .finish()
            .to_series()
            .into_iter()
            .map(|s| (s.name, s.points.iter().map(|&(_, c)| c).sum()))
            .collect();
        assert_eq!(
            totals,
            [("cycles.bytes".into(), 4), ("cycles.timers".into(), 111)]
        );
    }

    #[test]
    fn series_group_points_per_category_in_time_order() {
        let mut p = CpuProfiler::new(SimDuration::from_millis(10));
        p.record(SimTime::from_millis(25), "timers", 11);
        p.record(SimTime::from_millis(1), "timers", 100);
        let series = p.finish().to_series();
        assert_eq!(series.len(), 1);
        assert_eq!(series[0].name, "cycles.timers");
        assert_eq!(
            series[0].points,
            vec![(SimTime::ZERO, 100), (SimTime::from_millis(20), 11),]
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_window_is_rejected() {
        let _ = CpuProfiler::new(SimDuration::ZERO);
    }
}
