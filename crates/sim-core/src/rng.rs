//! Deterministic, splittable randomness for the simulator.
//!
//! [`SimRng`] is xoshiro256** seeded through SplitMix64, implemented here so
//! the bit stream is pinned by this crate (the `rand` crate documents that
//! `StdRng` may change algorithms between versions, which would silently
//! change every experiment). It implements [`rand::RngCore`], so the whole
//! `rand` distribution toolbox works on top of it.
//!
//! Experiments need *independent* streams — one per flow for jitter, one for
//! the loss process, one for WiFi rate variation — that are all derived from
//! a single user-facing seed. [`SimRng::split`] derives a child stream from
//! a parent plus a label, so adding a consumer never perturbs the draws seen
//! by existing consumers (the classic "seed aliasing" trap in simulators).

use rand::RngCore;

/// SplitMix64 step: the standard seeding/stream-derivation mixer.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xoshiro256** with SplitMix64 seeding and labelled stream splitting.
///
/// ```
/// use sim_core::rng::SimRng;
///
/// let parent = SimRng::new(42);
/// // Children are independent and order-insensitive:
/// let mut loss = parent.split(1);
/// let mut jitter = parent.split(2);
/// assert_ne!(loss.next(), jitter.next());
/// // Same seed, same stream — experiments replay exactly.
/// assert_eq!(SimRng::new(42).next(), SimRng::new(42).next());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Create a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        // xoshiro256** requires a non-zero state; SplitMix64 of any seed
        // produces one with overwhelming probability, but guarantee it.
        if s == [0, 0, 0, 0] {
            SimRng { s: [1, 2, 3, 4] }
        } else {
            SimRng { s }
        }
    }

    /// Derive an independent child stream identified by `label`.
    ///
    /// The child is a pure function of the parent's *original seed material*
    /// plus the label — it does not consume parent state, so the order in
    /// which children are split off is irrelevant.
    pub fn split(&self, label: u64) -> SimRng {
        let mut sm =
            self.s[0] ^ self.s[1].rotate_left(17) ^ label.wrapping_mul(0xA24B_AED4_963E_E407);
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        if s == [0, 0, 0, 0] {
            SimRng { s: [1, 2, 3, 4] }
        } else {
            SimRng { s }
        }
    }

    /// Next raw 64-bit output (xoshiro256** scrambler).
    // Not `Iterator::next`: this never ends and returns `u64`, not
    // `Option<u64>`; renaming would churn every call site for no gain.
    #[allow(clippy::should_implement_trait)]
    #[inline]
    pub fn next(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform float in `[0, 1)`, 53-bit precision.
    #[inline]
    pub(crate) fn uniform(&mut self) -> f64 {
        (self.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)` via Lemire's multiply-shift rejection.
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        // Unbiased: reject the low zone.
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let x = self.next();
            let m = (x as u128) * (bound as u128);
            if (m as u64) >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform integer in `[lo, hi]` inclusive. Panics if `lo > hi`.
    pub fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "range_inclusive: lo {lo} > hi {hi}");
        if lo == hi {
            return lo;
        }
        lo + self.below(hi - lo + 1)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.uniform() < p
        }
    }

    /// Sample an exponential with the given mean (for Poisson processes such
    /// as cross-traffic arrivals). Mean 0 returns 0.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        if mean <= 0.0 {
            return 0.0;
        }
        // Inverse CDF; `1 - uniform()` avoids ln(0).
        -mean * (1.0 - self.uniform()).ln()
    }
}

impl RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        (self.next() >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        self.next()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::SimRng;
    use proptest::prelude::*;
    use rand::RngCore;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next(), b.next());
        }
    }

    #[test]
    fn different_seeds_different_streams() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next() == b.next()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn split_is_order_independent() {
        let parent = SimRng::new(7);
        let mut c1 = parent.split(10);
        let mut c2 = parent.split(20);
        // Re-split in the other order; streams must be identical.
        let mut c2b = parent.split(20);
        let mut c1b = parent.split(10);
        for _ in 0..100 {
            assert_eq!(c1.next(), c1b.next());
            assert_eq!(c2.next(), c2b.next());
        }
    }

    #[test]
    fn split_streams_are_distinct() {
        let parent = SimRng::new(7);
        let mut a = parent.split(0);
        let mut b = parent.split(1);
        let collisions = (0..256).filter(|_| a.next() == b.next()).count();
        assert_eq!(collisions, 0);
    }

    #[test]
    fn split_does_not_consume_parent_state() {
        let parent = SimRng::new(9);
        let before = parent.clone();
        let _ = parent.split(3);
        assert_eq!(parent, before);
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut rng = SimRng::new(3);
        for _ in 0..10_000 {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn uniform_mean_near_half() {
        let mut rng = SimRng::new(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.uniform()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} too far from 0.5");
    }

    #[test]
    fn below_respects_bound_and_covers_range() {
        let mut rng = SimRng::new(5);
        let mut seen = [false; 10];
        for _ in 0..10_000 {
            let x = rng.below(10);
            assert!(x < 10);
            seen[x as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    #[should_panic(expected = "below(0)")]
    fn below_zero_panics() {
        SimRng::new(0).below(0);
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::new(8);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-0.5));
        assert!(rng.chance(1.5));
    }

    #[test]
    fn chance_frequency_tracks_p() {
        let mut rng = SimRng::new(13);
        let n = 100_000;
        let hits = (0..n).filter(|_| rng.chance(0.02)).count();
        let freq = hits as f64 / n as f64;
        assert!((freq - 0.02).abs() < 0.005, "loss-rate draw off: {freq}");
    }

    #[test]
    fn exponential_mean_matches() {
        let mut rng = SimRng::new(17);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.exponential(4.0)).sum::<f64>() / n as f64;
        assert!((mean - 4.0).abs() < 0.1, "exponential mean {mean}");
    }

    #[test]
    fn fill_bytes_handles_odd_lengths() {
        let mut rng = SimRng::new(23);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn pinned_bit_stream_regression() {
        // Guards against accidental algorithm changes: these values are the
        // first outputs of xoshiro256** under SplitMix64(12345) seeding.
        let mut rng = SimRng::new(12345);
        let first: Vec<u64> = (0..4).map(|_| rng.next()).collect();
        let mut again = SimRng::new(12345);
        let second: Vec<u64> = (0..4).map(|_| again.next()).collect();
        assert_eq!(first, second);
        // Frozen reference values: any change here silently re-randomises
        // every experiment in the workspace.
        assert_eq!(
            first,
            vec![
                0xbe6a36374160d49b,
                0x214aaa0637a688c6,
                0xf69d16de9954d388,
                0xc60048c4e96e033
            ]
        );
    }

    proptest! {
        #[test]
        fn prop_below_always_in_range(seed in any::<u64>(), bound in 1u64..1_000_000) {
            let mut rng = SimRng::new(seed);
            for _ in 0..50 {
                prop_assert!(rng.below(bound) < bound);
            }
        }

        #[test]
        fn prop_range_inclusive_in_range(seed in any::<u64>(), lo in 0u64..1000, span in 0u64..1000) {
            let mut rng = SimRng::new(seed);
            let hi = lo + span;
            for _ in 0..20 {
                let x = rng.range_inclusive(lo, hi);
                prop_assert!(x >= lo && x <= hi);
            }
        }
    }
}
