//! Capture a short simulated run as a pcap file and verify it reads back —
//! open `bbr_run.pcap` in Wireshark to see the pacing cadence: BBR's evenly
//! spaced autosized buffers vs Cubic's 64 KB ACK-clocked bursts.
//!
//! ```bash
//! cargo run --release --example pcap_dump
//! wireshark bbr_run.pcap   # if you have it
//! ```

use mobile_bbr::congestion::CcKind;
use mobile_bbr::cpu_model::{CpuConfig, DeviceProfile};
use mobile_bbr::netsim::pcap::read_pcap;
use mobile_bbr::sim_core::time::SimDuration;
use mobile_bbr::tcp_sim::wire::{parse_frame, TcpHeader};
use mobile_bbr::tcp_sim::{Instruments, SimConfig, StackSim};

fn main() {
    let path = std::env::temp_dir().join("bbr_run.pcap");
    let cfg = SimConfig::builder(DeviceProfile::pixel4(), CpuConfig::LowEnd, CcKind::Bbr, 2)
        .duration(SimDuration::from_millis(300))
        .warmup(SimDuration::from_millis(100))
        .build()
        .expect("valid config");
    let res = StackSim::new(cfg)
        .run_observed(Instruments {
            pcap: Some(path.clone()),
            ..Instruments::default()
        })
        .result;
    println!(
        "simulated 300 ms of 2-connection BBR upload: {:.1} Mbps",
        res.goodput_mbps()
    );

    let bytes = std::fs::read(&path).expect("pcap written");
    let (linktype, records) = read_pcap(&bytes[..]).expect("valid pcap");
    println!(
        "captured {} frames (linktype {linktype}) at {}",
        records.len(),
        path.display()
    );

    // Decode the first few frames to prove the wire format is sound.
    let mut data = 0u32;
    let mut acks = 0u32;
    for rec in &records {
        let (src, dst, tcp) = parse_frame(&rec.frame).expect("well-formed frame");
        let (header, payload) = TcpHeader::decode(src, dst, tcp).expect("checksums verify");
        if payload.is_empty() {
            acks += 1;
        } else {
            data += 1;
        }
        if data + acks <= 5 {
            println!(
                "  {} {}:{} -> {}:{} seq={} ack={} len={}",
                rec.at,
                src.0[3],
                header.src_port,
                dst.0[3],
                header.dst_port,
                header.seq.0,
                header.ack.0,
                payload.len()
            );
        }
    }
    println!("… {data} data packets, {acks} ACKs, all checksums valid.");
}
