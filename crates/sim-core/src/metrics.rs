//! Measurement plumbing: counters, streaming summaries, histograms, time
//! series, and utilization windows.
//!
//! Every number the paper reports is a statistic over a run — average
//! goodput, mean RTT, retransmission counts, p95s over repeats — so the
//! simulator records into these structures rather than ad-hoc fields.
//!
//! # The percentile structure
//!
//! [`Histogram`] is the only structure that answers quantile queries. It
//! buckets samples on *fixed, global* log-spaced boundaries: every sample
//! lands in a bucket determined only by its value, so the result is
//! independent of arrival order, merging two histograms is exact (bucket
//! counts add), and a quantile computed from a merged histogram is
//! bit-identical to one computed from a single histogram fed the union of
//! the streams. Scorecard checks (the Fig. 7 RTT p95) depend on that.

use crate::time::{SimDuration, SimTime};
use serde::Serialize;

/// Streaming summary statistics (Welford's algorithm for mean/variance plus
/// exact min/max). Holds no samples, so it is safe for per-packet series.
#[derive(Debug, Clone, Default, Serialize)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// An empty summary.
    pub fn new() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations. Test builds only.
    #[cfg(test)]
    pub(crate) fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population standard deviation (0 if fewer than 2 samples).
    pub fn std_dev(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / self.count as f64).sqrt()
        }
    }

    /// Minimum (`None` if empty). Test builds only.
    #[cfg(test)]
    pub(crate) fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Maximum (`None` if empty). Test builds only.
    #[cfg(test)]
    pub(crate) fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merge another summary into this one (parallel Welford combine).
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Sub-bucket resolution for [`Histogram`]: each power-of-two range (octave)
/// is split into `2^HIST_SUB_BITS` log-spaced buckets, giving a relative
/// bucket width of `2^(1/64) − 1 ≈ 1.1%`.
const HIST_SUB_BITS: u32 = 6;
/// Right-shift applied to an `f64` bit pattern to obtain its bucket index:
/// drops the mantissa bits below the top `HIST_SUB_BITS`, keeping the
/// exponent plus the leading mantissa bits.
const HIST_INDEX_SHIFT: u32 = 52 - HIST_SUB_BITS;

/// A deterministic, mergeable log-bucketed histogram for percentile queries.
///
/// Bucket boundaries are *fixed globally* (not adapted to the data): a
/// positive finite sample maps to the bucket holding its IEEE-754 exponent
/// and top `HIST_SUB_BITS` mantissa bits, so boundaries are exact powers of
/// `2^(1/64)` times a power of two and every bucket spans ≈1.1% of its
/// value. Consequences:
///
/// - **Order-independent**: the histogram built from a stream depends only
///   on the multiset of values, never their order.
/// - **Exact merge**: [`Histogram::merge`] adds bucket counts; a merged
///   histogram is identical to one fed the concatenated streams, so
///   quantiles are bit-identical either way.
/// - **Bounded error**: a quantile is interpolated inside its bucket and is
///   within ±1.1% (one bucket width) of the exact sample quantile, and
///   always clamped to the observed `[min, max]`.
///
/// Non-positive samples collapse into a single underflow bucket spanning
/// `[min(0, observed min), 0]`; NaN samples are ignored. Memory is sparse:
/// only touched buckets are stored (a `BTreeMap`, so iteration order — and
/// thus serialization — is deterministic).
#[derive(Debug, Clone, Default, Serialize)]
pub struct Histogram {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    /// Samples ≤ 0 (log buckets cover only positive values).
    zero_count: u64,
    /// Sparse bucket counts keyed by index (`bits >> HIST_INDEX_SHIFT`).
    buckets: std::collections::BTreeMap<u32, u64>,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            zero_count: 0,
            buckets: std::collections::BTreeMap::new(),
        }
    }

    /// Bucket index for a positive finite `x`.
    #[inline]
    fn bucket_index(x: f64) -> u32 {
        (x.to_bits() >> HIST_INDEX_SHIFT) as u32
    }

    /// Inclusive lower edge of bucket `idx`.
    #[inline]
    fn bucket_low(idx: u32) -> f64 {
        f64::from_bits((idx as u64) << HIST_INDEX_SHIFT)
    }

    /// Exclusive upper edge of bucket `idx`.
    #[inline]
    fn bucket_high(idx: u32) -> f64 {
        f64::from_bits(((idx as u64) + 1) << HIST_INDEX_SHIFT)
    }

    /// Record one observation. NaN is ignored.
    pub fn record(&mut self, x: f64) {
        if x.is_nan() {
            return;
        }
        self.count += 1;
        self.sum += x;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        if x <= 0.0 {
            self.zero_count += 1;
        } else {
            *self.buckets.entry(Self::bucket_index(x)).or_insert(0) += 1;
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0 if empty). Unlike the bucket counts, the sum is a
    /// floating-point accumulation, so the mean of a merged histogram can
    /// differ from the sequential mean in the last ulps. Test builds only.
    #[cfg(test)]
    pub(crate) fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Minimum observation (`None` if empty). Test builds only.
    #[cfg(test)]
    pub(crate) fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Maximum observation (`None` if empty). Test builds only.
    #[cfg(test)]
    pub(crate) fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merge another histogram into this one. Exact: bucket counts add, so
    /// the result is indistinguishable (for quantile queries) from a single
    /// histogram fed both streams.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.zero_count += other.zero_count;
        for (&idx, &c) in &other.buckets {
            *self.buckets.entry(idx).or_insert(0) += c;
        }
    }

    /// The `q`-quantile (0 ≤ q ≤ 1), linearly interpolated inside the
    /// containing bucket and clamped to the observed `[min, max]`. Returns
    /// `None` if empty.
    ///
    /// The target rank is `q · (count − 1)`: `q = 0` names the minimum and
    /// `q = 1` the maximum.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = q * (self.count - 1) as f64;
        let mut cum = 0u64;
        // Underflow bucket first: it spans [min(0, min), 0].
        if self.zero_count > 0 {
            if target < self.zero_count as f64 {
                let lo = self.min.min(0.0);
                let frac = (target - cum as f64) / self.zero_count as f64;
                return Some((lo + (0.0 - lo) * frac).clamp(self.min, self.max));
            }
            cum = self.zero_count;
        }
        for (&idx, &c) in &self.buckets {
            if target < (cum + c) as f64 {
                let lo = Self::bucket_low(idx);
                let hi = Self::bucket_high(idx);
                let frac = (target - cum as f64) / c as f64;
                return Some((lo + (hi - lo) * frac).clamp(self.min, self.max));
            }
            cum += c;
        }
        // target == count − 1 exactly (q = 1): the maximum.
        Some(self.max)
    }
}

/// Sliding-window utilization tracker: how busy was a resource over the
/// trailing window? The dynamic CPU governor consumes this.
#[derive(Debug, Clone)]
pub struct UtilWindow {
    window: SimDuration,
    /// Busy intervals (start, end), pruned as they age out.
    intervals: std::collections::VecDeque<(SimTime, SimTime)>,
}

impl UtilWindow {
    /// A tracker over a trailing `window`.
    pub fn new(window: SimDuration) -> Self {
        assert!(!window.is_zero(), "utilization window must be non-zero");
        UtilWindow {
            window,
            intervals: std::collections::VecDeque::new(),
        }
    }

    /// Record that the resource was busy on `[start, end)`. `now` is the
    /// current simulation time at the recording site — a lower bound on
    /// every future `utilization(now)`
    /// query. The interval itself may extend past `now`: a backlogged CPU
    /// books work ahead of the clock (`busy_until` in the future), which is
    /// exactly why aging must key off `now` and not the interval's `end` —
    /// an interval can be older than `end - window` yet still overlap the
    /// window of a query issued before `end`.
    pub fn record_busy(&mut self, start: SimTime, end: SimTime, now: SimTime) {
        if end <= start {
            return;
        }
        // Merge with the previous interval if contiguous (common case:
        // back-to-back CPU operations).
        if let Some(&mut (_, ref mut last_end)) = self.intervals.back_mut() {
            if start <= *last_end {
                if end > *last_end {
                    *last_end = end;
                }
                return;
            }
        }
        self.intervals.push_back((start, end));
        // Age out intervals that can never matter again: every future
        // `utilization(q)` has `q >= now`, so anything ending at or before
        // `now - window` is invisible from here on (the same rule
        // `utilization` itself prunes by). Pruning here (not just in
        // `utilization`) keeps the deque bounded even when nobody polls.
        let horizon = now - self.window; // SimTime subtraction saturates
        while let Some(&(_, e)) = self.intervals.front() {
            if e <= horizon {
                self.intervals.pop_front();
            } else {
                break;
            }
        }
    }

    /// Fraction of the trailing window that was busy, evaluated at `now`.
    pub fn utilization(&mut self, now: SimTime) -> f64 {
        let window_start = now - self.window;
        while let Some(&(_, end)) = self.intervals.front() {
            if end <= window_start {
                self.intervals.pop_front();
            } else {
                break;
            }
        }
        let mut busy = SimDuration::ZERO;
        for &(start, end) in &self.intervals {
            let s = start.max(window_start);
            let e = end.min(now);
            if e > s {
                busy += e - s;
            }
        }
        let span = now.saturating_since(window_start);
        if span.is_zero() {
            0.0
        } else {
            (busy / span).min(1.0)
        }
    }
}

/// A labelled monotonic counter set, used for per-run event tallies
/// (retransmissions, timer fires, skbs sent, …).
///
/// Keys are `&'static str` (counter names are compile-time constants), which
/// keeps the hot-path `inc` allocation-free; serialization emits owned keys.
#[derive(Debug, Clone, Default, Serialize)]
pub struct Counters {
    map: std::collections::BTreeMap<&'static str, u64>,
}

impl Counters {
    /// Empty counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `n` to counter `name`.
    pub fn add(&mut self, name: &'static str, n: u64) {
        *self.map.entry(name).or_insert(0) += n;
    }

    /// Read counter `name` (0 if never touched).
    pub fn get(&self, name: &str) -> u64 {
        self.map.get(name).copied().unwrap_or(0)
    }

    /// Iterate over all counters in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.map.iter().map(|(&k, &v)| (k, v))
    }
}

/// Jain's fairness index over a set of non-negative rates:
/// `(Σxᵢ)² / (n · Σxᵢ²)`.
///
/// The index lives in `[1/n, 1]`: it is `1.0` when every participant gets
/// an equal share and `1/n` when one participant takes everything. The
/// degenerate all-zero set (no traffic at all) is defined as perfectly
/// fair, matching the run-scorecard convention.
///
/// Summation is plain left-to-right in input order — callers that need
/// bit-identical results across runs must present rates in a deterministic
/// order (per-conn results already are).
pub fn jain(rates: &[f64]) -> f64 {
    let sum: f64 = rates.iter().sum();
    let sumsq: f64 = rates.iter().map(|r| r * r).sum();
    if sumsq == 0.0 {
        1.0
    } else {
        sum * sum / (rates.len() as f64 * sumsq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn jain_equal_shares_is_one() {
        assert_eq!(jain(&[5.0; 7]), 1.0);
        assert_eq!(jain(&[1.0]), 1.0);
        // All-zero (idle fleet) is defined as fair.
        assert_eq!(jain(&[0.0, 0.0, 0.0]), 1.0);
    }

    #[test]
    fn jain_lower_bound_is_one_over_n() {
        // One hog, n-1 starved flows: the textbook worst case.
        for n in [2usize, 10, 64, 1000] {
            let mut rates = vec![0.0; n];
            rates[0] = 123.0;
            let idx = jain(&rates);
            assert!((idx - 1.0 / n as f64).abs() < 1e-12, "n={n} idx={idx}");
        }
    }

    #[test]
    fn jain_bounds_and_merge_order_independence() {
        // The index must land in [1/n, 1] for any non-negative input and
        // (up to fp tolerance) not care how the rates are ordered —
        // grouping/merging device shares in a different order must not
        // change the verdict.
        let rates = [3.0, 0.5, 9.25, 9.25, 0.0, 120.0, 7.5];
        let idx = jain(&rates);
        assert!(idx >= 1.0 / rates.len() as f64 - 1e-12);
        assert!(idx <= 1.0 + 1e-12);
        let mut rev = rates;
        rev.reverse();
        assert!((jain(&rev) - idx).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn jain_in_bounds_for_any_rates(xs in proptest::collection::vec(0.0f64..1e9, 1..64)) {
            let idx = jain(&xs);
            prop_assert!(idx >= 1.0 / xs.len() as f64 - 1e-9);
            prop_assert!(idx <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn summary_basic_moments() {
        let mut s = Summary::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn summary_empty_is_sane() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn summary_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = Summary::new();
        for &x in &xs {
            whole.record(x);
        }
        let mut left = Summary::new();
        let mut right = Summary::new();
        for &x in &xs[..37] {
            left.record(x);
        }
        for &x in &xs[37..] {
            right.record(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.std_dev() - whole.std_dev()).abs() < 1e-9);
    }

    #[test]
    fn summary_merge_with_empty_is_identity() {
        let mut s = Summary::new();
        s.record(3.0);
        let before = s.clone();
        s.merge(&Summary::new());
        assert_eq!(s.count(), before.count());
        assert_eq!(s.mean(), before.mean());
    }

    #[test]
    fn utilwindow_full_busy_is_one() {
        let mut u = UtilWindow::new(SimDuration::from_millis(100));
        u.record_busy(
            SimTime::from_millis(0),
            SimTime::from_millis(200),
            SimTime::from_millis(0),
        );
        let util = u.utilization(SimTime::from_millis(200));
        assert!((util - 1.0).abs() < 1e-9, "util {util}");
    }

    #[test]
    fn utilwindow_half_busy_is_half() {
        let mut u = UtilWindow::new(SimDuration::from_millis(100));
        // Busy 150..200 within window 100..200.
        u.record_busy(
            SimTime::from_millis(150),
            SimTime::from_millis(200),
            SimTime::from_millis(150),
        );
        let util = u.utilization(SimTime::from_millis(200));
        assert!((util - 0.5).abs() < 1e-9, "util {util}");
    }

    #[test]
    fn utilwindow_prunes_old_intervals() {
        let mut u = UtilWindow::new(SimDuration::from_millis(10));
        u.record_busy(
            SimTime::from_millis(0),
            SimTime::from_millis(5),
            SimTime::from_millis(0),
        );
        let util = u.utilization(SimTime::from_millis(100));
        assert_eq!(util, 0.0);
    }

    #[test]
    fn utilwindow_merges_contiguous_busy() {
        let mut u = UtilWindow::new(SimDuration::from_millis(100));
        u.record_busy(
            SimTime::from_millis(10),
            SimTime::from_millis(20),
            SimTime::from_millis(10),
        );
        u.record_busy(
            SimTime::from_millis(20),
            SimTime::from_millis(30),
            SimTime::from_millis(20),
        );
        let util = u.utilization(SimTime::from_millis(100));
        assert!((util - 0.2).abs() < 1e-9, "util {util}");
    }

    #[test]
    fn histogram_bucket_boundaries_bracket_samples() {
        // Every positive sample must fall inside its bucket's [low, high)
        // range, and the bucket must be narrow (≈1.1% relative width).
        for &x in &[1e-6, 0.37, 1.0, 1.5, 42.0, 999.9, 1e9] {
            let idx = Histogram::bucket_index(x);
            let lo = Histogram::bucket_low(idx);
            let hi = Histogram::bucket_high(idx);
            assert!(lo <= x && x < hi, "{x} not in [{lo}, {hi})");
            assert!((hi - lo) / lo < 0.02, "bucket too wide at {x}");
        }
    }

    #[test]
    fn histogram_quantiles_are_accurate() {
        let mut h = Histogram::new();
        for i in 1..=10_000 {
            h.record(i as f64);
        }
        assert_eq!(h.count(), 10_000);
        assert_eq!(h.min(), Some(1.0));
        assert_eq!(h.max(), Some(10_000.0));
        for (q, expect) in [(0.5, 5_000.0), (0.95, 9_500.0), (0.999, 9_990.0)] {
            let got = h.quantile(q).unwrap();
            let rel = (got - expect).abs() / expect;
            assert!(rel < 0.012, "q{q}: got {got}, expect {expect}");
        }
        assert_eq!(h.quantile(0.0), Some(1.0));
        assert_eq!(h.quantile(1.0), Some(10_000.0));
    }

    #[test]
    fn histogram_is_order_independent() {
        let mut asc = Histogram::new();
        let mut desc = Histogram::new();
        for i in 0..5_000 {
            asc.record(1.0 + i as f64);
            desc.record(1.0 + (4_999 - i) as f64);
        }
        for q in [0.1, 0.5, 0.9, 0.95, 0.999] {
            assert_eq!(asc.quantile(q), desc.quantile(q), "q = {q}");
        }
    }

    #[test]
    fn histogram_merge_is_exact() {
        let xs: Vec<f64> = (0..3_000).map(|i| 0.5 + (i as f64) * 1.37).collect();
        let mut whole = Histogram::new();
        for &x in &xs {
            whole.record(x);
        }
        let mut left = Histogram::new();
        let mut right = Histogram::new();
        for &x in &xs[..1_000] {
            left.record(x);
        }
        for &x in &xs[1_000..] {
            right.record(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert_eq!(left.min(), whole.min());
        assert_eq!(left.max(), whole.max());
        for q in [0.0, 0.25, 0.5, 0.95, 0.999, 1.0] {
            // Bit-identical, not just close: counts are integers and the
            // interpolation sees identical inputs either way.
            assert_eq!(left.quantile(q), whole.quantile(q), "q = {q}");
        }
    }

    #[test]
    fn histogram_empty_and_zero_handling() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.mean(), 0.0);

        let mut z = Histogram::new();
        z.record(0.0);
        z.record(0.0);
        z.record(f64::NAN); // ignored
        assert_eq!(z.count(), 2);
        assert_eq!(z.quantile(0.5), Some(0.0));

        let mut mixed = Histogram::new();
        mixed.record(-2.0);
        mixed.record(10.0);
        assert_eq!(mixed.quantile(0.0), Some(-2.0));
        assert_eq!(mixed.quantile(1.0), Some(10.0));
    }

    #[test]
    fn histogram_serialization_is_deterministic_and_well_formed() {
        let mut h = Histogram::new();
        for i in 1..200 {
            h.record(i as f64 * 0.73);
        }
        let json = serde_json::to_string(&h).unwrap();
        // Two renders of the same state are byte-identical (BTreeMap bucket
        // order is deterministic), and the output parses back as JSON with
        // the expected scalar fields intact.
        assert_eq!(json, serde_json::to_string(&h).unwrap());
        let v = serde_json::from_str(&json).expect("valid JSON");
        assert_eq!(v.get("count").and_then(|c| c.as_u64()), Some(199));
        let buckets = v.get("buckets").expect("buckets field");
        let n: u64 = match buckets {
            serde_json::Value::Object(fields) => fields
                .iter()
                .map(|(_, c)| c.as_u64().expect("bucket count"))
                .sum(),
            other => panic!("buckets not an object: {other:?}"),
        };
        assert_eq!(n, 199);
    }

    #[test]
    fn utilwindow_busy_interval_extending_past_now_counts_only_up_to_now() {
        // A backlogged CPU books work ahead of the clock: the interval end
        // may exceed `now`. Utilization must clamp the overlap at `now`.
        let mut u = UtilWindow::new(SimDuration::from_millis(100));
        u.record_busy(
            SimTime::from_millis(100),
            SimTime::from_millis(300), // 200ms booked ahead
            SimTime::from_millis(100),
        );
        // At now=150, window is 50..150; busy overlap is 100..150 = 50ms.
        let util = u.utilization(SimTime::from_millis(150));
        assert!((util - 0.5).abs() < 1e-9, "util {util}");
        // The same interval still counts in a later query window: at
        // now=250 the window is 150..250, fully inside 100..300.
        let util = u.utilization(SimTime::from_millis(250));
        assert!((util - 1.0).abs() < 1e-9, "util {util}");
    }

    #[test]
    fn utilwindow_wraps_around_time_zero() {
        // Early in a run `now < window`: window_start saturates at 0 and
        // the denominator is `now`, not the full window, so a fully-busy
        // young run reads 1.0 rather than now/window.
        let mut u = UtilWindow::new(SimDuration::from_millis(100));
        u.record_busy(
            SimTime::from_millis(0),
            SimTime::from_millis(30),
            SimTime::from_millis(0),
        );
        let util = u.utilization(SimTime::from_millis(30));
        assert!((util - 1.0).abs() < 1e-9, "util {util}");
        // And an idle tail dilutes against the saturated span (0..60).
        let util = u.utilization(SimTime::from_millis(60));
        assert!((util - 0.5).abs() < 1e-9, "util {util}");
        // At now == 0 the span is zero: defined as 0.0, no division blowup.
        let mut v = UtilWindow::new(SimDuration::from_millis(100));
        assert_eq!(v.utilization(SimTime::ZERO), 0.0);
    }

    proptest! {
        #[test]
        fn prop_histogram_quantile_within_min_max(
            xs in proptest::collection::vec(0.001f64..1e6, 1..300),
            q in 0.0f64..=1.0,
        ) {
            let mut h = Histogram::new();
            for &x in &xs {
                h.record(x);
            }
            let v = h.quantile(q).unwrap();
            prop_assert!(v >= h.min().unwrap() && v <= h.max().unwrap());
        }

        #[test]
        fn prop_histogram_merge_matches_whole(
            xs in proptest::collection::vec(0.001f64..1e6, 2..200),
            split in 1usize..100,
        ) {
            let split = split % (xs.len() - 1) + 1;
            let mut whole = Histogram::new();
            for &x in &xs {
                whole.record(x);
            }
            let mut a = Histogram::new();
            let mut b = Histogram::new();
            for &x in &xs[..split] {
                a.record(x);
            }
            for &x in &xs[split..] {
                b.record(x);
            }
            a.merge(&b);
            prop_assert_eq!(a.quantile(0.5), whole.quantile(0.5));
            prop_assert_eq!(a.quantile(0.95), whole.quantile(0.95));
        }
    }

    #[test]
    fn counters_accumulate() {
        let mut c = Counters::new();
        c.add("retx", 1);
        c.add("retx", 4);
        c.add("timer_fires", 1);
        assert_eq!(c.get("retx"), 5);
        assert_eq!(c.get("timer_fires"), 1);
        assert_eq!(c.get("missing"), 0);
        let all: Vec<_> = c.iter().collect();
        assert_eq!(all, vec![("retx", 5), ("timer_fires", 1)]);
    }

    proptest! {
        #[test]
        fn prop_summary_mean_within_bounds(xs in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
            let mut s = Summary::new();
            for &x in &xs {
                s.record(x);
            }
            let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(s.mean() >= lo - 1e-9 && s.mean() <= hi + 1e-9);
            prop_assert_eq!(s.min().unwrap(), lo);
            prop_assert_eq!(s.max().unwrap(), hi);
        }

        #[test]
        fn prop_utilization_in_unit_interval(
            intervals in proptest::collection::vec((0u64..1000, 0u64..100), 0..50),
        ) {
            let mut u = UtilWindow::new(SimDuration::from_millis(500));
            let mut cursor = 0u64;
            for (gap, len) in intervals {
                let start = cursor + gap;
                let end = start + len;
                u.record_busy(SimTime::from_millis(start), SimTime::from_millis(end), SimTime::from_millis(start));
                cursor = end;
            }
            let util = u.utilization(SimTime::from_millis(cursor + 1));
            prop_assert!((0.0..=1.0).contains(&util));
        }
    }
}
