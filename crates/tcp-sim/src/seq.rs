//! TCP sequence-number arithmetic.
//!
//! The simulator's bookkeeping uses monotonically increasing `u64` packet
//! sequence numbers ([`PktSeq`]) — the stack never wraps in a simulated
//! run, and unwrappable numbers make the scoreboard's invariants directly
//! checkable.

use serde::Serialize;
use std::fmt;

/// A packet-granularity sequence number (monotonic, never wraps).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
pub struct PktSeq(pub u64);

impl PktSeq {
    /// The first sequence number.
    pub const ZERO: PktSeq = PktSeq(0);

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
}

impl fmt::Display for PktSeq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pktseq_ordering_is_plain() {
        assert!(PktSeq(1) < PktSeq(2));
        assert_eq!(PktSeq(5).since(PktSeq(3)), 2);
        assert_eq!(PktSeq(3).advance(4), PktSeq(7));
        assert_eq!(PktSeq::ZERO.advance(1), PktSeq(1));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn pktseq_backwards_distance_panics() {
        PktSeq(1).since(PktSeq(2));
    }
}
