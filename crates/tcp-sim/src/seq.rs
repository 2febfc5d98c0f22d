//! TCP sequence-number arithmetic.
//!
//! The simulator's bookkeeping uses monotonically increasing `u64` packet
//! sequence numbers ([`PktSeq`]) — the stack never wraps in a simulated
//! run, and unwrappable numbers make the scoreboard's invariants directly
//! checkable. [`WireSeq`] is the 32-bit on-the-wire representation with
//! RFC 793 modular comparison; the conversion between the two is exercised
//! by property tests because wrap bugs are the classic TCP implementation
//! error.

use serde::Serialize;
use std::fmt;

/// A packet-granularity sequence number (monotonic, never wraps).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
pub struct PktSeq(pub u64);

impl PktSeq {
    /// The first sequence number.
    pub const ZERO: PktSeq = PktSeq(0);

    /// The following sequence number.
    pub fn next(self) -> PktSeq {
        PktSeq(self.0 + 1)
    }

    /// Advance by `n` packets.
    pub(crate) fn advance(self, n: u64) -> PktSeq {
        PktSeq(self.0 + n)
    }

    /// Distance from `earlier` (panics if `earlier` is ahead).
    pub fn since(self, earlier: PktSeq) -> u64 {
        self.0
            .checked_sub(earlier.0)
            .expect("PktSeq distance underflow")
    }

    /// The 32-bit wire representation (byte-granularity wrap emulated at
    /// packet granularity).
    pub(crate) fn to_wire(self) -> WireSeq {
        WireSeq(self.0 as u32)
    }
}

impl fmt::Display for PktSeq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// A 32-bit wire sequence number with modular (RFC 793 / RFC 1982-style)
/// ordering: `a < b` iff `(b - a) mod 2³²` is in `(0, 2³¹)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize)]
pub struct WireSeq(pub u32);

impl WireSeq {
    /// Modular "before": true iff this precedes `other` in sequence space.
    pub fn before(self, other: WireSeq) -> bool {
        let diff = other.0.wrapping_sub(self.0);
        diff != 0 && diff < 0x8000_0000
    }

    /// Advance by `n`, wrapping.
    pub fn advance(self, n: u32) -> WireSeq {
        WireSeq(self.0.wrapping_add(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pktseq_ordering_is_plain() {
        assert!(PktSeq(1) < PktSeq(2));
        assert_eq!(PktSeq(5).since(PktSeq(3)), 2);
        assert_eq!(PktSeq(3).advance(4), PktSeq(7));
        assert_eq!(PktSeq::ZERO.next(), PktSeq(1));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn pktseq_backwards_distance_panics() {
        PktSeq(1).since(PktSeq(2));
    }

    #[test]
    fn wireseq_simple_ordering() {
        assert!(WireSeq(1).before(WireSeq(2)));
        assert!(!WireSeq(2).before(WireSeq(1)));
        assert!(!WireSeq(7).before(WireSeq(7)));
    }

    #[test]
    fn wireseq_wraparound_ordering() {
        // Near the wrap point: 0xFFFF_FFFF precedes 0 and 5.
        assert!(WireSeq(0xFFFF_FFFF).before(WireSeq(0)));
        assert!(WireSeq(0xFFFF_FFFF).before(WireSeq(5)));
        assert_eq!(WireSeq(0xFFFF_FFFE).advance(5), WireSeq(3));
    }

    #[test]
    fn wireseq_half_window_is_ambiguous_boundary() {
        // Exactly 2³¹ apart: by convention, not "before".
        assert!(!WireSeq(0).before(WireSeq(0x8000_0000)));
        assert!(WireSeq(0).before(WireSeq(0x7FFF_FFFF)));
    }

    #[test]
    fn pkt_to_wire_truncates() {
        assert_eq!(PktSeq(0x1_0000_0005).to_wire(), WireSeq(5));
    }

    proptest! {
        /// `before` is a strict weak order on nearby numbers.
        #[test]
        fn prop_wireseq_antisymmetric(a in any::<u32>(), delta in 1u32..0x7FFF_FFFF) {
            let x = WireSeq(a);
            let y = x.advance(delta);
            prop_assert!(x.before(y));
            prop_assert!(!y.before(x));
        }

        /// Advancing then measuring the modular distance round-trips for
        /// in-window deltas.
        #[test]
        fn prop_wireseq_distance_roundtrip(a in any::<u32>(), delta in 0u32..0x7FFF_FFFF) {
            prop_assert_eq!(WireSeq(a).advance(delta).0.wrapping_sub(a), delta);
        }

        /// PktSeq → WireSeq preserves modular ordering within half-window.
        #[test]
        fn prop_pkt_wire_order_consistent(a in any::<u64>(), delta in 1u64..0x7FFF_FFFF) {
            let p = PktSeq(a);
            let q = p.advance(delta);
            prop_assert!(p.to_wire().before(q.to_wire()));
        }
    }
}
