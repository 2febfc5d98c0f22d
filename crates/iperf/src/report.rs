//! Aggregated measurement reports.

use serde::Serialize;
use sim_core::metrics::Summary;
use tcp_sim::SimResult;

/// One seed's headline numbers.
#[derive(Debug, Clone, Serialize)]
pub struct SeedResult {
    /// The seed this run was asked for. A config that draws no randomness
    /// runs the same at every seed, and each seed's result is a copy of
    /// one run stamped with its own seed.
    pub seed: u64,
    /// Aggregate goodput, Mbps.
    pub goodput_mbps: f64,
    /// Mean TCP RTT, ms.
    pub mean_rtt_ms: f64,
    /// 95th-percentile RTT, ms.
    pub p95_rtt_ms: f64,
    /// Total retransmitted packets.
    pub retx: u64,
    /// Jain fairness across connections.
    pub fairness: f64,
    /// Mean socket-buffer (pacing-period) length, bytes.
    pub mean_skb_bytes: f64,
    /// Mean pacing idle per period, ms.
    pub mean_idle_ms: f64,
    /// Time-average CPU frequency, Hz.
    pub mean_freq_hz: f64,
    /// Pacing-timer fires over the run.
    pub timer_fires: u64,
    /// Hot-path buffer-pool misses over the whole run (cold-start fills).
    pub pool_misses: u64,
    /// Pool misses during the measurement window only — a healthy run
    /// keeps this at zero (the steady-state no-allocation invariant).
    pub pool_misses_steady: u64,
    /// Modelled CPU cycles charged during the measurement window.
    pub cycles_total: u64,
    /// Measurement-window cycles spent on pacing-timer traffic.
    pub cycles_timers: u64,
    /// Measurement-window cycles spent on generic ACK processing.
    pub cycles_acks: u64,
    /// Measurement-window cycles spent in the CC's model update.
    pub cycles_cc: u64,
    /// Measurement-window cycles spent building/copying data (per-byte +
    /// fixed skb transmit work).
    pub cycles_data: u64,
    /// Remaining measurement-window cycles (retransmit, RTO, misc).
    pub cycles_other: u64,
    /// Devices in the fleet (0 for non-fleet runs; every `fleet_*` field
    /// below is then 0 too).
    pub fleet_devices: u64,
    /// Jain's fairness index over per-device goodput.
    pub fleet_jain: f64,
    /// Fraction of devices in the pacing-penalty regime.
    pub fleet_penalty_fraction: f64,
    /// Packets dropped at the shared bottleneck's queue.
    pub fleet_shared_drops: u64,
    /// Device 0's fraction of aggregate fleet goodput (0.0 for non-fleet
    /// runs). In the FAIRNESS experiment's two-device duels device 0 is
    /// the BBR-variant contender, so this is its bandwidth share.
    pub fleet_dev0_share: f64,
    /// Peak memory-footprint proxy summed over connections, bytes
    /// (scoreboard + device backlog; §7.1.1's RAM question). Carried for
    /// the MEM experiment through the run cache's binary codec only: it is
    /// kept out of the JSON form so serialized reports, and every digest
    /// taken over them, keep the bytes they had before the field existed.
    #[serde(skip_serializing)]
    pub peak_mem_bytes: u64,
}

impl SeedResult {
    /// Extract the headline numbers from a raw simulation result.
    pub fn from_sim(seed: u64, res: &SimResult) -> Self {
        SeedResult {
            seed,
            goodput_mbps: res.goodput_mbps(),
            mean_rtt_ms: res.mean_rtt_ms,
            p95_rtt_ms: res.p95_rtt_ms,
            retx: res.total_retx,
            fairness: res.fairness,
            mean_skb_bytes: res.mean_skb_bytes,
            mean_idle_ms: res.mean_idle_ms,
            mean_freq_hz: res.cpu.mean_freq_hz,
            timer_fires: res.counters.get("timer_fires"),
            pool_misses: res.counters.get("pool_run_misses") + res.counters.get("pool_sack_misses"),
            pool_misses_steady: res.counters.get("pool_run_misses_steady")
                + res.counters.get("pool_sack_misses_steady"),
            cycles_total: res.counters.get("cycles_steady_total"),
            cycles_timers: res.counters.get("cycles_steady_timers"),
            cycles_acks: res.counters.get("cycles_steady_acks"),
            cycles_cc: res.counters.get("cycles_steady_cc_model"),
            cycles_data: res.counters.get("cycles_steady_data"),
            cycles_other: res.counters.get("cycles_steady_other"),
            fleet_devices: res.fleet.as_ref().map_or(0, |f| f.devices),
            fleet_jain: res.fleet.as_ref().map_or(0.0, |f| f.jain_devices),
            fleet_penalty_fraction: res
                .fleet
                .as_ref()
                .map_or(0.0, |f| f.pacing_penalty_fraction),
            fleet_shared_drops: res.fleet.as_ref().map_or(0, |f| f.shared_drops),
            fleet_dev0_share: res.fleet.as_ref().map_or(0.0, |f| f.dev0_share),
            peak_mem_bytes: res.peak_mem_bytes,
        }
    }
}

/// A multi-seed aggregate — the unit every figure's data point is made of.
#[derive(Debug, Clone, Serialize)]
pub struct RunReport {
    /// Human-readable label ("BBR, Low-End, 20 conns").
    pub label: String,
    /// Per-seed results.
    pub seeds: Vec<SeedResult>,
    /// Mean goodput across seeds, Mbps.
    pub goodput_mbps: f64,
    /// Standard deviation of goodput across seeds.
    pub goodput_std: f64,
    /// Mean RTT across seeds, ms.
    pub mean_rtt_ms: f64,
    /// Mean p95 RTT across seeds, ms.
    pub p95_rtt_ms: f64,
    /// Mean retransmissions across seeds.
    pub mean_retx: f64,
    /// Mean Jain fairness.
    pub fairness: f64,
    /// Mean socket-buffer length, bytes.
    pub mean_skb_bytes: f64,
    /// Mean pacing idle, ms.
    pub mean_idle_ms: f64,
    /// Mean per-device Jain index across seeds (0.0 for non-fleet specs).
    pub fleet_jain: f64,
    /// Mean pacing-penalty fraction across seeds (0.0 for non-fleet specs).
    pub fleet_penalty_fraction: f64,
    /// Mean shared-bottleneck drops across seeds (0.0 for non-fleet specs).
    pub fleet_shared_drops: f64,
    /// Mean device-0 goodput share across seeds (0.0 for non-fleet specs).
    pub fleet_dev0_share: f64,
}

impl RunReport {
    /// Aggregate seed results under a label.
    pub fn aggregate(label: impl Into<String>, seeds: Vec<SeedResult>) -> Self {
        assert!(!seeds.is_empty(), "a report needs at least one run");
        let mut goodput = Summary::new();
        let mut rtt = Summary::new();
        let mut p95 = Summary::new();
        let mut retx = Summary::new();
        let mut fair = Summary::new();
        let mut skb = Summary::new();
        let mut idle = Summary::new();
        let mut fleet_jain = Summary::new();
        let mut fleet_penalty = Summary::new();
        let mut fleet_drops = Summary::new();
        let mut fleet_dev0 = Summary::new();
        for s in &seeds {
            goodput.record(s.goodput_mbps);
            rtt.record(s.mean_rtt_ms);
            p95.record(s.p95_rtt_ms);
            retx.record(s.retx as f64);
            fair.record(s.fairness);
            skb.record(s.mean_skb_bytes);
            idle.record(s.mean_idle_ms);
            fleet_jain.record(s.fleet_jain);
            fleet_penalty.record(s.fleet_penalty_fraction);
            fleet_drops.record(s.fleet_shared_drops as f64);
            fleet_dev0.record(s.fleet_dev0_share);
        }
        RunReport {
            label: label.into(),
            goodput_mbps: goodput.mean(),
            goodput_std: goodput.std_dev(),
            mean_rtt_ms: rtt.mean(),
            p95_rtt_ms: p95.mean(),
            mean_retx: retx.mean(),
            fairness: fair.mean(),
            mean_skb_bytes: skb.mean(),
            mean_idle_ms: idle.mean(),
            fleet_jain: fleet_jain.mean(),
            fleet_penalty_fraction: fleet_penalty.mean(),
            fleet_shared_drops: fleet_drops.mean(),
            fleet_dev0_share: fleet_dev0.mean(),
            seeds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seed_result(seed: u64, goodput: f64, rtt: f64, retx: u64) -> SeedResult {
        SeedResult {
            seed,
            goodput_mbps: goodput,
            mean_rtt_ms: rtt,
            p95_rtt_ms: rtt * 1.5,
            retx,
            fairness: 0.9,
            mean_skb_bytes: 4000.0,
            mean_idle_ms: 0.9,
            mean_freq_hz: 576e6,
            timer_fires: 1000,
            pool_misses: 4,
            pool_misses_steady: 0,
            cycles_total: 1_000_000,
            cycles_timers: 300_000,
            cycles_acks: 200_000,
            cycles_cc: 150_000,
            cycles_data: 250_000,
            cycles_other: 100_000,
            fleet_devices: 0,
            fleet_jain: 0.0,
            fleet_penalty_fraction: 0.0,
            fleet_shared_drops: 0,
            fleet_dev0_share: 0.0,
            peak_mem_bytes: 0,
        }
    }

    #[test]
    fn json_form_omits_peak_mem_bytes() {
        let mut seed = seed_result(1, 100.0, 1.0, 0);
        seed.peak_mem_bytes = 123_456_789;
        let json = serde_json::to_string(&seed).unwrap();
        assert!(json.contains("\"fleet_dev0_share\""), "{json}");
        assert!(!json.contains("peak_mem_bytes"), "{json}");
        assert!(!json.contains("123456789"), "{json}");
    }

    #[test]
    fn aggregate_means_and_std() {
        let r = RunReport::aggregate(
            "test",
            vec![
                seed_result(1, 300.0, 2.0, 10),
                seed_result(2, 320.0, 3.0, 20),
                seed_result(3, 340.0, 4.0, 30),
            ],
        );
        assert!((r.goodput_mbps - 320.0).abs() < 1e-9);
        assert!((r.mean_rtt_ms - 3.0).abs() < 1e-9);
        assert!((r.mean_retx - 20.0).abs() < 1e-9);
        assert!(r.goodput_std > 0.0);
        assert_eq!(r.seeds.len(), 3);
    }

    #[test]
    fn single_seed_has_zero_std() {
        let r = RunReport::aggregate("one", vec![seed_result(1, 100.0, 1.0, 0)]);
        assert_eq!(r.goodput_std, 0.0);
        assert_eq!(r.goodput_mbps, 100.0);
    }

    #[test]
    #[should_panic(expected = "at least one run")]
    fn empty_report_rejected() {
        RunReport::aggregate("none", vec![]);
    }
}
