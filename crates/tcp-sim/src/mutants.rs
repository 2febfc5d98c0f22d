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
//! accident. With the feature on, [`with`] activates one mutant (or none)
//! for the duration of a closure on the calling thread only, so workers
//! checking different mutants side by side never see each other's.
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

/// Every built-in mutant, in id order (the `--mutant-check` order).
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

/// The stable CLI name, the value of a simcheck spec's `mutant=` key.
impl std::fmt::Display for Mutant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Mutant::SkipTimerFireCharge => "skip-timer-fire-charge",
            Mutant::SackClaimExtra => "sack-claim-extra",
            Mutant::SkipRetxCount => "skip-retx-count",
            Mutant::DropPacingArm => "drop-pacing-arm",
            Mutant::FleetSharedBypass => "fleet-shared-bypass",
            Mutant::FleetJainMiscount => "fleet-jain-miscount",
            Mutant::AqmDropMiscount => "aqm-drop-miscount",
            Mutant::Bbr3PacingDisarm => "bbr3-pacing-disarm",
        })
    }
}

/// Whether this build can activate mutants at all (`simcheck-mutants` on).
pub const fn enabled() -> bool {
    cfg!(feature = "simcheck-mutants")
}

/// The calling thread's mutant and its two trigger counters.
#[derive(Clone, Copy)]
struct State {
    active: Option<Mutant>,
    arm_tick: u64,
    shared_tick: u64,
}

thread_local! {
    static STATE: std::cell::Cell<State> = const {
        std::cell::Cell::new(State { active: None, arm_tick: 0, shared_tick: 0 })
    };
}

/// Run `f` with `mutant` active (or none) on this thread, its trigger
/// counters starting from zero, so the same closure behaves the same
/// every time. The outer activation and counters come back on return,
/// and on unwind too. Without the `simcheck-mutants` feature the
/// activation is inert: no mutation site can see it.
pub fn with<R>(mutant: Option<Mutant>, f: impl FnOnce() -> R) -> R {
    struct Restore(State);
    impl Drop for Restore {
        fn drop(&mut self) {
            STATE.set(self.0);
        }
    }
    let _restore = Restore(STATE.replace(State {
        active: mutant,
        arm_tick: 0,
        shared_tick: 0,
    }));
    f()
}

/// Is `mutant` active? `const false` without the feature, so call sites
/// compile to nothing in ordinary builds.
#[inline(always)]
pub(crate) fn is(mutant: Mutant) -> bool {
    cfg!(feature = "simcheck-mutants") && STATE.get().active == Some(mutant)
}

/// [`Mutant::DropPacingArm`]'s trigger: true on every 64th pacing-timer
/// arm since activation (so the run makes progress before wedging —
/// a realistic intermittent lost-wakeup, not an instant stall).
pub(crate) fn drop_this_arm() -> bool {
    let mut state = STATE.get();
    state.arm_tick += 1;
    STATE.set(state);
    state.arm_tick.is_multiple_of(64)
}

/// [`Mutant::FleetSharedBypass`]'s trigger: true on every 64th packet
/// offered to the shared fleet bottleneck since activation, so the
/// overshoot is intermittent (a realistic enforcement hole, not a
/// wholesale removal of the link).
pub(crate) fn bypass_this_shared_pkt() -> bool {
    let mut state = STATE.get();
    state.shared_tick += 1;
    STATE.set(state);
    state.shared_tick.is_multiple_of(64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        // Distinct names: each one the CLI prints names one mutant.
        let names: std::collections::BTreeSet<_> = ALL.iter().map(|m| m.to_string()).collect();
        assert_eq!(names.len(), ALL.len());
    }

    #[test]
    fn inactive_by_default() {
        for m in ALL {
            assert!(!is(m));
        }
    }

    #[cfg(feature = "simcheck-mutants")]
    #[test]
    fn activation_is_scoped_to_the_thread() {
        let sees = |m: Mutant| ALL.into_iter().filter(|&o| is(o)).eq([m]);
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for m in [Mutant::SkipRetxCount, Mutant::SackClaimExtra] {
                let barrier = &barrier;
                scope.spawn(move || {
                    with(Some(m), || {
                        // Both scopes are open at once here.
                        barrier.wait();
                        assert!(sees(m), "{m} thread sees another mutant");
                        barrier.wait();
                    })
                });
            }
        });
        with(Some(Mutant::DropPacingArm), || {
            let outer: Vec<bool> = (0..3).map(|_| drop_this_arm()).collect();
            with(None, || {
                assert!(ALL.into_iter().all(|m| !is(m)));
                // Fresh counters: the 64th arm inside fires, not the 61st.
                assert!((1..64).all(|_| !drop_this_arm()) && drop_this_arm());
            });
            assert!(sees(Mutant::DropPacingArm), "the outer scope is back");
            assert_eq!(outer, [false; 3]);
            // The outer counter resumes at 3: 60 more calls, then the 64th.
            assert!((4..64).all(|_| !drop_this_arm()) && drop_this_arm());
        });
        assert!(ALL.into_iter().all(|m| !is(m)));
        let unwound = std::panic::catch_unwind(|| with(Some(Mutant::SkipRetxCount), || panic!()));
        assert!(unwound.is_err());
        assert!(ALL.into_iter().all(|m| !is(m)), "a panic restores too");
    }
}
