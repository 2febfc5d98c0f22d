//! Classic-format pcap writing (and reading, for tests).
//!
//! Every smoltcp example ships a `--pcap` flag and this reproduction does
//! the same: `tcp_sim::SimConfig::pcap` dumps each simulated wire packet
//! as a synthesized Ethernet/IPv4/TCP frame, so a run can be opened in
//! Wireshark and the pacing cadence inspected visually.
//!
//! The format is the classic libpcap one: a 24-byte global header (magic
//! `0xa1b2c3d4`, microsecond timestamps, LINKTYPE_ETHERNET) followed by
//! 16-byte per-record headers.

use sim_core::time::SimTime;
use std::io::{self, Read, Write};

/// LINKTYPE_ETHERNET.
pub const LINKTYPE_EN10MB: u32 = 1;

/// A pcap stream writer over any `io::Write`.
pub struct PcapWriter<W: Write> {
    out: W,
}

impl<W: Write> PcapWriter<W> {
    /// Write the global header and return the writer.
    pub fn new(mut out: W) -> io::Result<Self> {
        out.write_all(&0xa1b2_c3d4u32.to_le_bytes())?; // magic (µs)
        out.write_all(&2u16.to_le_bytes())?; // version major
        out.write_all(&4u16.to_le_bytes())?; // version minor
        out.write_all(&0i32.to_le_bytes())?; // thiszone
        out.write_all(&0u32.to_le_bytes())?; // sigfigs
        out.write_all(&65_535u32.to_le_bytes())?; // snaplen
        out.write_all(&LINKTYPE_EN10MB.to_le_bytes())?;
        Ok(PcapWriter { out })
    }

    /// Append one frame captured at simulated time `at`.
    pub fn write_frame(&mut self, at: SimTime, frame: &[u8]) -> io::Result<()> {
        let us = at.as_nanos() / 1_000;
        let (sec, usec) = ((us / 1_000_000) as u32, (us % 1_000_000) as u32);
        self.out.write_all(&sec.to_le_bytes())?;
        self.out.write_all(&usec.to_le_bytes())?;
        self.out.write_all(&(frame.len() as u32).to_le_bytes())?;
        self.out.write_all(&(frame.len() as u32).to_le_bytes())?;
        self.out.write_all(frame)
    }
}

/// One record read back from a pcap stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PcapRecord {
    /// Capture timestamp.
    pub at: SimTime,
    /// The frame bytes.
    pub frame: Vec<u8>,
}

/// Read an entire classic pcap stream (test utility / trace analysis).
pub fn read_pcap<R: Read>(mut input: R) -> io::Result<(u32, Vec<PcapRecord>)> {
    let mut global = [0u8; 24];
    input.read_exact(&mut global)?;
    let magic = u32::from_le_bytes(global[0..4].try_into().expect("4 bytes"));
    if magic != 0xa1b2_c3d4 {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "bad pcap magic"));
    }
    let linktype = u32::from_le_bytes(global[20..24].try_into().expect("4 bytes"));
    let mut records = Vec::new();
    loop {
        let mut rec = [0u8; 16];
        match input.read_exact(&mut rec) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => break,
            Err(e) => return Err(e),
        }
        let sec = u32::from_le_bytes(rec[0..4].try_into().expect("4 bytes")) as u64;
        let usec = u32::from_le_bytes(rec[4..8].try_into().expect("4 bytes")) as u64;
        let caplen = u32::from_le_bytes(rec[8..12].try_into().expect("4 bytes")) as usize;
        let mut frame = vec![0u8; caplen];
        input.read_exact(&mut frame)?;
        records.push(PcapRecord {
            at: SimTime::from_nanos(sec * 1_000_000_000 + usec * 1_000),
            frame,
        });
    }
    Ok((linktype, records))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_empty_capture() {
        let mut buf = Vec::new();
        PcapWriter::new(&mut buf).unwrap();
        assert_eq!(buf.len(), 24);
        let (linktype, records) = read_pcap(&buf[..]).unwrap();
        assert_eq!(linktype, LINKTYPE_EN10MB);
        assert!(records.is_empty());
    }

    #[test]
    fn roundtrip_frames_with_timestamps() {
        let mut buf = Vec::new();
        let mut w = PcapWriter::new(&mut buf).unwrap();
        w.write_frame(SimTime::from_micros(1_500), &[1, 2, 3])
            .unwrap();
        w.write_frame(SimTime::from_secs(2), &[0xAA; 60]).unwrap();
        let (_, records) = read_pcap(&buf[..]).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].frame, vec![1, 2, 3]);
        assert_eq!(records[0].at, SimTime::from_micros(1_500));
        assert_eq!(records[1].at, SimTime::from_secs(2));
        assert_eq!(records[1].frame.len(), 60);
    }

    #[test]
    fn bad_magic_rejected() {
        let garbage = [0u8; 24];
        assert!(read_pcap(&garbage[..]).is_err());
    }

    #[test]
    fn microsecond_truncation_is_consistent() {
        // Sub-microsecond sim times truncate to the µs grid — the pcap
        // format's resolution, not a data bug.
        let mut buf = Vec::new();
        PcapWriter::new(&mut buf)
            .unwrap()
            .write_frame(SimTime::from_nanos(1_999), &[9])
            .unwrap();
        let (_, records) = read_pcap(&buf[..]).unwrap();
        assert_eq!(records[0].at, SimTime::from_micros(1));
    }
}
