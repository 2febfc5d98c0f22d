//! CoDel active queue management (RFC 8289).
//!
//! The paper's bufferbloat observations — unpaced senders inflating RTT
//! through a droptail queue (Fig. 7), device-side backlog on slow CPUs —
//! are exactly the problem CoDel was designed for, and `fq_codel` is the
//! default qdisc on much of Android/OpenWRT today. The ablation suite uses
//! this to ask how the paper's story changes under an AQM: unpaced bursts
//! get their queue clipped (RTT controlled, loss instead of delay), while
//! paced traffic sails through untouched.
//!
//! Implementation note: the bottleneck link is analytic (departure times
//! are computed at enqueue), so the CoDel control law is evaluated at
//! enqueue time against the packet's *prospective sojourn* — equivalent to
//! the dequeue-time law for FIFO service, since sojourn is known exactly.

use serde::Serialize;
use sim_core::time::{SimDuration, SimTime};

/// CoDel parameters (RFC 8289 defaults).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct CodelConfig {
    /// Acceptable standing-queue delay (default 5 ms).
    pub target: SimDuration,
    /// Sliding window in which sojourn must exceed `target` before the
    /// first drop (default 100 ms — an RTT-scale interval).
    pub interval: SimDuration,
}

impl Default for CodelConfig {
    fn default() -> Self {
        CodelConfig {
            target: SimDuration::from_millis(5),
            interval: SimDuration::from_millis(100),
        }
    }
}

/// The CoDel controller state machine.
///
/// ```
/// use netsim::codel::{Codel, CodelConfig};
/// use sim_core::time::{SimDuration, SimTime};
///
/// let mut codel = Codel::new(CodelConfig::default());
/// // Low sojourn: never drops.
/// assert!(!codel.should_drop(SimTime::from_millis(1), SimDuration::from_millis(2)));
/// ```
#[derive(Debug, Clone)]
pub struct Codel {
    config: CodelConfig,
    /// Time at which sojourn first went above target (0 = not above).
    first_above: Option<SimTime>,
    /// In the dropping state?
    dropping: bool,
    /// Next scheduled drop while in the dropping state.
    drop_next: SimTime,
    /// Drops in the current dropping episode (control-law divisor); kept
    /// across episodes for the RFC's faster re-entry.
    count: u32,
    drops: u64,
}

impl Codel {
    /// A controller with the given parameters.
    pub fn new(config: CodelConfig) -> Self {
        assert!(!config.target.is_zero(), "target must be positive");
        assert!(
            config.interval > config.target,
            "interval must exceed target"
        );
        Codel {
            config,
            first_above: None,
            dropping: false,
            drop_next: SimTime::ZERO,
            count: 0,
            drops: 0,
        }
    }

    /// Total drops so far.
    pub fn drops(&self) -> u64 {
        self.drops
    }

    /// RFC 8289 control law: the next drop comes `interval / √count` after
    /// the previous one.
    fn control_law(&self, from: SimTime) -> SimTime {
        let div = (self.count.max(1) as f64).sqrt();
        from + SimDuration::from_nanos((self.config.interval.as_nanos() as f64 / div) as u64)
    }

    /// Offer a packet observed at `now` with queueing `sojourn`; returns
    /// `true` if CoDel drops it.
    pub fn should_drop(&mut self, now: SimTime, sojourn: SimDuration) -> bool {
        // Track whether we are persistently above target.
        let above = sojourn > self.config.target;
        let ok_to_drop = if !above {
            self.first_above = None;
            false
        } else {
            match self.first_above {
                None => {
                    self.first_above = Some(now + self.config.interval);
                    false
                }
                Some(due) => now >= due,
            }
        };

        if self.dropping {
            if !ok_to_drop {
                // Sojourn came back down: leave the dropping state.
                self.dropping = false;
                return false;
            }
            if now >= self.drop_next {
                self.count += 1;
                self.drops += 1;
                self.drop_next = self.control_law(self.drop_next);
                return true;
            }
            false
        } else if ok_to_drop {
            // Enter the dropping state. RFC 8289: if we were dropping
            // recently, resume at a higher count for a faster ramp.
            self.dropping = true;
            self.count = if self.count > 2 && now < self.drop_next + self.config.interval {
                self.count - 2
            } else {
                1
            };
            self.drops += 1;
            self.drop_next = self.control_law(now);
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codel() -> Codel {
        Codel::new(CodelConfig::default())
    }

    #[test]
    fn low_delay_traffic_never_dropped() {
        let mut c = codel();
        for i in 0..10_000u64 {
            let now = SimTime::from_micros(i * 100);
            assert!(!c.should_drop(now, SimDuration::from_millis(2)));
        }
        assert_eq!(c.drops(), 0);
    }

    #[test]
    fn transient_spike_tolerated() {
        let mut c = codel();
        // 50 ms of above-target sojourn — shorter than the 100 ms interval.
        for i in 0..50u64 {
            let now = SimTime::from_millis(i);
            assert!(!c.should_drop(now, SimDuration::from_millis(20)));
        }
        // Back below target: still nothing dropped.
        assert!(!c.should_drop(SimTime::from_millis(51), SimDuration::from_millis(1)));
        assert_eq!(c.drops(), 0);
    }

    #[test]
    fn persistent_bloat_starts_dropping_after_interval() {
        let mut c = codel();
        let mut first_drop = None;
        for i in 0..300u64 {
            let now = SimTime::from_millis(i);
            if c.should_drop(now, SimDuration::from_millis(30)) && first_drop.is_none() {
                first_drop = Some(i);
            }
        }
        let at = first_drop.expect("persistent bloat must trigger drops");
        assert!(
            (100..=110).contains(&at),
            "first drop near the 100 ms interval, got {at}"
        );
        assert!(c.drops() > 1, "dropping continues under persistent bloat");
    }

    #[test]
    fn drop_rate_accelerates_with_persistence() {
        let mut c = codel();
        let mut drop_times = Vec::new();
        for i in 0..5_000u64 {
            let now = SimTime::from_micros(i * 500); // 2.5 s total
            if c.should_drop(now, SimDuration::from_millis(50)) {
                drop_times.push(now);
            }
        }
        assert!(drop_times.len() >= 8, "sustained bloat: many drops");
        // Control law: inter-drop gaps shrink as 1/√count.
        let early_gap = drop_times[1] - drop_times[0];
        let late = drop_times.len() - 1;
        let late_gap = drop_times[late] - drop_times[late - 1];
        assert!(
            late_gap < early_gap,
            "gaps must shrink: early {early_gap}, late {late_gap}"
        );
    }

    #[test]
    fn recovery_exits_dropping_state() {
        let mut c = codel();
        for i in 0..200u64 {
            c.should_drop(SimTime::from_millis(i), SimDuration::from_millis(30));
        }
        assert!(c.drops() > 0);
        let before = c.drops();
        // Queue drains: no more drops even over a long horizon.
        for i in 200..1_000u64 {
            assert!(!c.should_drop(SimTime::from_millis(i), SimDuration::from_millis(1)));
        }
        assert_eq!(c.drops(), before);
    }

    #[test]
    fn reentry_ramps_faster() {
        let mut c = codel();
        // First episode.
        for i in 0..400u64 {
            c.should_drop(SimTime::from_millis(i), SimDuration::from_millis(30));
        }
        let first_episode = c.drops();
        assert!(first_episode >= 3);
        // Brief recovery…
        for i in 400..420u64 {
            c.should_drop(SimTime::from_millis(i), SimDuration::from_millis(1));
        }
        // …then bloat again: the second episode must reach its second drop
        // faster than 100 ms (count resumed > 1).
        let mut drops_in_second = Vec::new();
        for i in 420..620u64 {
            if c.should_drop(SimTime::from_millis(i), SimDuration::from_millis(30)) {
                drops_in_second.push(i);
            }
        }
        assert!(drops_in_second.len() >= 2);
        let gap = drops_in_second[1] - drops_in_second[0];
        assert!(
            gap < 100,
            "re-entry control law must be faster, gap {gap} ms"
        );
    }

    #[test]
    #[should_panic(expected = "interval must exceed target")]
    fn invalid_config_rejected() {
        Codel::new(CodelConfig {
            target: SimDuration::from_millis(100),
            interval: SimDuration::from_millis(5),
        });
    }
}
