//! # netsim
//!
//! The network substrate of the *"Are Mobiles Ready for BBR?"* reproduction:
//! the testbed of the paper's Figure 1 — phone → OpenWRT router → iPerf
//! server — as deterministic, passive components.
//!
//! The components are *passive*: they compute departure/arrival times and
//! drop verdicts analytically, and the caller (the TCP stack simulator)
//! schedules delivery events on its own event queue. A FIFO droptail queue
//! in front of a fixed-rate server admits an exact analytic treatment
//! (`depart = max(now, last_depart) + bytes/rate`), so no internal events
//! are needed and the packet path costs O(1) amortised per packet.
//!
//! * [`link`] — [`link::BottleneckLink`]: droptail queue + serialising
//!   transmitter + propagation delay; occupancy queries for RTT analysis;
//!   optional time-varying rate (WiFi).
//! * [`netem`] — `tc netem`-style impairments: i.i.d. loss, extra
//!   delay/jitter, a rate limiter (the paper shapes with `tc` on the
//!   router), and simple reordering.
//! * [`codel`] — CoDel AQM (RFC 8289), the building block for AQM links.
//! * [`fq_codel`] — FQ-CoDel (RFC 8290): per-flow CoDel buckets with a
//!   DRR fair-share sojourn model, the Android/OpenWRT default qdisc.
//! * [`crosstraffic`] — Poisson background load for competition ablations.
//! * [`media`] — the three media of the paper: Ethernet LAN (1 Gbps line
//!   rate, §3.2), WiFi LAN (variable rate, §3.2), and T-Mobile LTE
//!   (bandwidth-limited ≤ 20 Mbps, Appendix A.1), plus the 10-packet
//!   shallow-buffer variant of §5.2.3.

#![warn(missing_docs)]

pub mod codel;
pub mod crosstraffic;
pub mod fq_codel;
pub mod link;
pub mod media;
pub mod netem;

pub use codel::{Codel, CodelConfig};
pub use fq_codel::FqCodel;
pub use link::{BottleneckLink, LinkConfig, Qdisc, SendOutcome, VariableRate};
pub use media::{MediaProfile, PathConfig};
pub use netem::{Netem, NetemConfig, NetemVerdict};

/// Ethernet wire overhead per packet: 14 (Ethernet) + 20 (IP) + 32
/// (TCP + timestamps) header bytes; preamble/IFG folded into link rates.
pub(crate) const WIRE_HEADER_BYTES: u64 = 66;

/// Maximum TCP payload per wire packet (1500 MTU − 52 IP/TCP headers).
pub const MSS: u64 = 1448;

/// Convert a TCP payload size to on-the-wire bytes, accounting for
/// per-packet headers at MSS granularity.
pub fn wire_bytes(payload: u64) -> u64 {
    if payload == 0 {
        return WIRE_HEADER_BYTES; // pure ACK
    }
    let packets = payload.div_ceil(MSS);
    payload + packets * WIRE_HEADER_BYTES
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_bytes_adds_headers_per_packet() {
        assert_eq!(wire_bytes(0), 66);
        assert_eq!(wire_bytes(1448), 1448 + 66);
        assert_eq!(wire_bytes(1449), 1449 + 2 * 66);
        assert_eq!(wire_bytes(2 * 1448), 2 * 1448 + 2 * 66);
    }

    #[test]
    fn mss_matches_standard_mtu() {
        assert_eq!(MSS + 52, 1500);
    }
}
