//! Intentional behaviour mutations for oracle-sensitivity testing.
//!
//! A fuzzer whose oracles never fire proves nothing: the oracles might be
//! vacuous. This module provides eight single-line behaviour mutations at
//! hot spots of the stack — each a realistic bug class — that the
//! `simcheck --mutant-check` harness activates one at a time and requires
//! at least one oracle to catch.
//!
//! The mutations are compiled only under the `simcheck-mutants` cargo
//! feature. Without it, `is` is a `const false` and every call site
//! folds away — a production build cannot activate a mutant even by
//! accident. With the feature on, exactly one mutant (or none) is active
//! process-wide at a time via [`set_active`].
//!
//! | Mutant | Site | Bug class | Caught by |
//! |---|---|---|---|
//! | `SkipTimerFireCharge` | `StackSim::try_send` | CPU cost not charged | `timer-cycles-consistent` |
//! | `SackClaimExtra` | `Receiver::on_data` | off-by-one claims a phantom packet | `rx-conservation` |
//! | `SkipRetxCount` | `StackSim::try_send` | retransmit accounting drift | `retx-accounting` |
//! | `DropPacingArm` | `StackSim::try_send` | lost timer arm wedges a flow | `conn-progress` |
//! | `FleetSharedBypass` | `StackSim::try_send` | shared bottleneck not enforced | `fleet-conservation` |
//! | `FleetJainMiscount` | `FleetResult::compute` | fairness divisor off-by-one | `fleet-jain-bounds` |
//! | `AqmDropMiscount` | drop tallies in `StackSim` | per-qdisc drop attribution drift | `aqm-accounting` |
//! | `Bbr3PacingDisarm` | `FlowArena::paces` | new CC variant loses pacing | `paced-cc-arms-timers` |

#[cfg(feature = "simcheck-mutants")]
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

/// The built-in single-line behaviour mutations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Mutant {
    /// `try_send` forgets to charge [`cpu_model::CostModel::timer_fire`]
    /// when a pacing timer expires (the cycles the paper's whole finding
    /// rests on). Breaks the exact identity
    /// `cycles[timers] == fires·cost.timer_fire + arms·cost.timer_arm`.
    SkipTimerFireCharge = 1,
    /// The receiver claims one packet beyond every arriving run
    /// (`on_data(lo, hi)` behaves as `on_data(lo, hi+1)`) — a classic
    /// SACK/merge off-by-one. Breaks receive-side conservation: packets
    /// accepted at the receiver exceed packets that survived the wire.
    SackClaimExtra = 2,
    /// Retransmitted packets are not added to the `retx_pkts` counter,
    /// so the counter diverges from the scoreboard's own retransmission
    /// total.
    SkipRetxCount = 3,
    /// Every 64th pacing-timer arm is silently dropped: the flow believes
    /// a timer is pending (`pacing_timer_armed` stays set) but none ever
    /// fires, wedging the connection — the lost-wakeup bug class.
    DropPacingArm = 4,
    /// Every 64th packet admitted by a device's access link skips the
    /// shared fleet bottleneck and arrives as if the common hop were free
    /// — an arbitration-enforcement hole. The fleet delivers more than the
    /// shared capacity permits, breaking shared-bottleneck conservation.
    FleetSharedBypass = 5,
    /// `FleetResult::compute` divides Jain's index by `n − 1` instead of
    /// `n` — a fairness-accounting off-by-one. Equal shares then score
    /// `n/(n−1) > 1`, violating the index's `[1/n, 1]` bounds.
    FleetJainMiscount = 6,
    /// The stack-side AQM drop tally skips CoDel/FQ-CoDel drops, so the
    /// `aqm_drops` counter diverges from the links' own
    /// `LinkStats::aqm_drops` ground truth — the attribution-drift bug
    /// class the per-qdisc drop accounting was added to rule out.
    AqmDropMiscount = 7,
    /// The stack's pacing decision reports no pacing for BBRv3 flows — a
    /// "new variant missed a dispatch site" bug. A paced-CC run
    /// then never arms pacing timers, which `paced-cc-arms-timers`
    /// detects.
    Bbr3PacingDisarm = 8,
}

/// Every built-in mutant, in id order (the `--mutant-check` iteration).
pub const ALL: [Mutant; 8] = [
    Mutant::SkipTimerFireCharge,
    Mutant::SackClaimExtra,
    Mutant::SkipRetxCount,
    Mutant::DropPacingArm,
    Mutant::FleetSharedBypass,
    Mutant::FleetJainMiscount,
    Mutant::AqmDropMiscount,
    Mutant::Bbr3PacingDisarm,
];

impl Mutant {
    /// Stable CLI name.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Mutant::SkipTimerFireCharge => "skip-timer-fire-charge",
            Mutant::SackClaimExtra => "sack-claim-extra",
            Mutant::SkipRetxCount => "skip-retx-count",
            Mutant::DropPacingArm => "drop-pacing-arm",
            Mutant::FleetSharedBypass => "fleet-shared-bypass",
            Mutant::FleetJainMiscount => "fleet-jain-miscount",
            Mutant::AqmDropMiscount => "aqm-drop-miscount",
            Mutant::Bbr3PacingDisarm => "bbr3-pacing-disarm",
        }
    }
}

impl std::fmt::Display for Mutant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Whether this build can activate mutants at all (`simcheck-mutants` on).
pub const fn enabled() -> bool {
    cfg!(feature = "simcheck-mutants")
}

#[cfg(feature = "simcheck-mutants")]
static ACTIVE: AtomicU8 = AtomicU8::new(0);
#[cfg(feature = "simcheck-mutants")]
static ARM_TICK: AtomicU64 = AtomicU64::new(0);
#[cfg(feature = "simcheck-mutants")]
static SHARED_TICK: AtomicU64 = AtomicU64::new(0);

/// Activate `mutant` (or deactivate all with `None`) process-wide.
///
/// Returns `false` (and does nothing) when the `simcheck-mutants` feature
/// is compiled out. Activation is global, so callers must not run
/// mutant batches concurrently with clean batches.
pub fn set_active(mutant: Option<Mutant>) -> bool {
    #[cfg(feature = "simcheck-mutants")]
    {
        ACTIVE.store(mutant.map(|m| m as u8).unwrap_or(0), Ordering::SeqCst);
        ARM_TICK.store(0, Ordering::SeqCst);
        SHARED_TICK.store(0, Ordering::SeqCst);
        true
    }
    #[cfg(not(feature = "simcheck-mutants"))]
    {
        let _ = mutant;
        false
    }
}

/// The active mutant, if any; always `None` without the feature.
pub fn active() -> Option<Mutant> {
    ALL.into_iter().find(|&m| is(m))
}

/// Is `mutant` active? `const false` without the feature, so call sites
/// compile to nothing in ordinary builds.
#[inline(always)]
pub(crate) fn is(mutant: Mutant) -> bool {
    #[cfg(feature = "simcheck-mutants")]
    {
        ACTIVE.load(Ordering::Relaxed) == mutant as u8
    }
    #[cfg(not(feature = "simcheck-mutants"))]
    {
        let _ = mutant;
        false
    }
}

/// [`Mutant::DropPacingArm`]'s trigger: true on every 64th pacing-timer
/// arm since activation (so the run makes progress before wedging —
/// a realistic intermittent lost-wakeup, not an instant stall).
#[cfg(feature = "simcheck-mutants")]
pub(crate) fn drop_this_arm() -> bool {
    ARM_TICK.fetch_add(1, Ordering::Relaxed) % 64 == 63
}

/// Feature-off stub of [`drop_this_arm`]; never taken because [`is`]
/// is false, but keeps call sites cfg-free.
#[cfg(not(feature = "simcheck-mutants"))]
pub(crate) fn drop_this_arm() -> bool {
    false
}

/// [`Mutant::FleetSharedBypass`]'s trigger: true on every 64th packet
/// offered to the shared fleet bottleneck since activation, so the
/// overshoot is intermittent (a realistic enforcement hole, not a
/// wholesale removal of the link).
#[cfg(feature = "simcheck-mutants")]
pub(crate) fn bypass_this_shared_pkt() -> bool {
    SHARED_TICK.fetch_add(1, Ordering::Relaxed) % 64 == 63
}

/// Feature-off stub of [`bypass_this_shared_pkt`]; never taken because
/// [`is`] is false, but keeps call sites cfg-free.
#[cfg(not(feature = "simcheck-mutants"))]
pub(crate) fn bypass_this_shared_pkt() -> bool {
    false
}

/// Serialises the tests that flip (or assert on) the process-wide mutant.
#[cfg(all(test, feature = "simcheck-mutants"))]
pub(crate) static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        // Distinct names: each one the CLI prints names one mutant.
        let names: std::collections::BTreeSet<_> = ALL.iter().map(|m| m.name()).collect();
        assert_eq!(names.len(), ALL.len());
    }

    #[test]
    fn inactive_by_default() {
        #[cfg(feature = "simcheck-mutants")]
        let _serial = TEST_LOCK.lock().unwrap();
        for m in ALL {
            assert!(!is(m));
        }
    }

    #[cfg(feature = "simcheck-mutants")]
    #[test]
    fn activation_is_exclusive() {
        let _serial = TEST_LOCK.lock().unwrap();
        set_active(Some(Mutant::SkipRetxCount));
        assert!(is(Mutant::SkipRetxCount));
        assert!(!is(Mutant::SackClaimExtra));
        set_active(None);
        assert!(!is(Mutant::SkipRetxCount));
    }
}
