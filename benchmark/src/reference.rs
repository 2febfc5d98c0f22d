//! The host-speed reference: a frozen miniature discrete-event loop the
//! benchmark runs before and after everything it times, so that host-time
//! metrics can be corrected for the phase the shared host is in.
//!
//! The loop is the simulator's own shape in small — pop the earliest event
//! from a binary heap, update two random 64-byte flow records in an 8 MiB
//! table, push the follow-up — and measured here it slows with the host as
//! the workloads do (README, "Why"). It touches none of the repo's crates:
//! a change to the simulator cannot move it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Flow records in the table (64 B each: 8 MiB, past the L2).
const FLOWS: usize = 1 << 17;
/// Events pending in the heap at any time.
const PENDING: u32 = 1 << 14;
/// Events one tick processes.
const EVENTS_PER_TICK: usize = 1_000_000;
/// A tick on a quiet host of the pipeline's class.
pub const NOMINAL_TICK_S: f64 = 0.105;
/// How much of the host's slowdown, as the ticks show it, a timing is
/// corrected for, as an exponent: the measured elasticity of pass time to
/// tick time (README, "Why"). 0 would report times as timed, 1 would
/// report them relative to the reference.
const ELASTICITY: f64 = 0.75;

/// The reference loop and the ticks it has timed.
pub struct Reference {
    table: Vec<[u64; 8]>,
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    rng: u64,
    ticks: Vec<f64>,
    /// When the last tick ended.
    last_end: Instant,
}

/// What [`Reference::time`] measured.
pub struct Timed {
    /// Seconds as timed on this host.
    pub host_s: f64,
    /// The same, corrected towards the nominal host.
    pub corrected_s: f64,
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

impl Reference {
    pub fn new() -> Self {
        let mut rng = 0x9E37_79B9_7F4A_7C15;
        let heap = (0..PENDING)
            .map(|id| Reverse((xorshift(&mut rng) % 1_000_000, id)))
            .collect();
        Reference {
            table: (0..FLOWS as u64).map(|i| [i; 8]).collect(),
            heap,
            rng,
            ticks: Vec::new(),
            last_end: Instant::now(),
        }
    }

    /// Time `work` between two ticks. Back-to-back calls share the tick
    /// between them.
    pub fn time<T>(&mut self, work: impl FnOnce() -> T) -> (T, Timed) {
        let before = match self.ticks.last() {
            Some(&tick) if self.last_end.elapsed().as_secs_f64() < 1e-3 => tick,
            _ => self.tick(),
        };
        let t0 = Instant::now();
        let out = work();
        let host_s = t0.elapsed().as_secs_f64();
        let after = self.tick();
        let corrected_s = corrected(host_s, before, after);
        (
            out,
            Timed {
                host_s,
                corrected_s,
            },
        )
    }

    /// Run one tick; returns the seconds it took.
    fn tick(&mut self) -> f64 {
        let t0 = Instant::now();
        for _ in 0..EVENTS_PER_TICK {
            let Reverse((now, id)) = self.heap.pop().expect("every pop is pushed back");
            let r = xorshift(&mut self.rng);
            let flow = &mut self.table[(id as usize).wrapping_mul(2_654_435_761) % FLOWS];
            flow[0] = flow[0].wrapping_add(r);
            flow[(r & 7) as usize] ^= now;
            let peer = &mut self.table[(r >> 20) as usize % FLOWS];
            peer[1] = peer[1].wrapping_add(1);
            // One event in sixteen is a far timer, the rest near ones.
            let delay = if r & 15 == 0 {
                50_000
            } else {
                1_000 + (r >> 40) % 4_000
            };
            self.heap.push(Reverse((now + delay, id)));
        }
        black_box(&self.table);
        self.last_end = Instant::now();
        let secs = self.last_end.duration_since(t0).as_secs_f64();
        self.ticks.push(secs);
        secs
    }

    /// Every tick timed so far.
    pub fn ticks(&self) -> &[f64] {
        &self.ticks
    }

    /// Fold of the table: what the events so far computed.
    #[cfg(test)]
    fn checksum(&self) -> u64 {
        self.table
            .iter()
            .flatten()
            .fold(0, |acc, &x| acc.rotate_left(1) ^ x)
    }
}

/// `host_s` seconds timed between two ticks, corrected towards the nominal
/// host by the mean of the two.
fn corrected(host_s: f64, tick_before_s: f64, tick_after_s: f64) -> f64 {
    let slowdown = (tick_before_s + tick_after_s) / 2.0 / NOMINAL_TICK_S;
    host_s / slowdown.powf(ELASTICITY)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_reference_does_the_same_work() {
        let (mut a, mut b) = (Reference::new(), Reference::new());
        a.time(|| ());
        b.time(|| ());
        assert_eq!(a.checksum(), b.checksum());
        assert_eq!(a.heap.len(), PENDING as usize);
        assert_eq!(a.ticks().len(), 2);
        assert_ne!(a.checksum(), Reference::new().checksum());
    }

    #[test]
    fn back_to_back_timings_share_a_tick() {
        let mut r = Reference::new();
        r.time(|| ());
        r.time(|| ());
        assert_eq!(r.ticks().len(), 3);
        std::thread::sleep(std::time::Duration::from_millis(5));
        r.time(|| ());
        assert_eq!(r.ticks().len(), 5);
    }

    #[test]
    fn a_slow_host_is_corrected_by_the_elasticity() {
        let n = NOMINAL_TICK_S;
        assert_eq!(corrected(3.0, n, n), 3.0);
        // Ticks sixteen times as slow: 16^0.75 = 8.
        assert_eq!(corrected(4.0, 16.0 * n, 16.0 * n), 0.5);
        // A host that slows down during the pass: the mean of the two ticks.
        assert_eq!(corrected(4.0, n, 31.0 * n), 0.5);
    }
}
