//! Result assembly: what a run reports, and everything that only runs to
//! produce it — the hot-path tallies' fold into [`Counters`], the
//! measurement-window baselines, and the end-of-run aggregation.

use super::host::Device;
use super::StackSim;
use crate::fleet::{DeviceOutcome, FleetResult};
use cpu_model::CpuStats;
use netsim::MSS;
use serde::Serialize;
use sim_core::metrics::{Counters, Summary};
use sim_core::time::{SimDuration, SimTime};
use sim_core::units::Bandwidth;
use std::collections::BTreeMap;

/// Per-connection results.
#[derive(Debug, Clone, Serialize)]
pub struct ConnStats {
    /// Packets delivered during the measurement window.
    pub delivered_pkts: u64,
    /// Goodput over the measurement window.
    pub goodput: Bandwidth,
    /// Retransmitted packets (whole run).
    pub retx_pkts: u64,
    /// 95th-percentile RTT.
    pub rtt_p95_ms: f64,
    /// Socket buffers sent (whole run).
    pub skbs_sent: u64,
    /// Mean socket-buffer length, bytes (Table 2's "Skbuff Len").
    pub mean_skb_bytes: f64,
    /// Mean pacing idle time, ms (Table 2's "Idle Time"); 0 if unpaced.
    pub mean_idle_ms: f64,
}

/// Aggregate results of one run.
#[derive(Debug, Clone, Serialize)]
pub struct SimResult {
    /// Sum of per-connection goodputs over the measurement window.
    pub total_goodput: Bandwidth,
    /// Mean RTT across all samples in the window.
    pub mean_rtt_ms: f64,
    /// 95th-percentile RTT across connections (mean of per-conn p95s).
    pub p95_rtt_ms: f64,
    /// Total retransmissions (whole run) — §5.2.3's metric.
    pub total_retx: u64,
    /// Per-connection detail.
    pub per_conn: Vec<ConnStats>,
    /// CPU statistics.
    pub cpu: CpuStats,
    /// Mean skb length across connections, bytes.
    pub mean_skb_bytes: f64,
    /// Mean pacing idle across connections, ms.
    pub mean_idle_ms: f64,
    /// Event counters (timer fires, drops, …).
    pub counters: Counters,
    /// Jain fairness index of per-connection goodput.
    pub fairness: f64,
    /// Peak memory-footprint proxy summed over connections, bytes
    /// (scoreboard + device backlog; §7.1.1's RAM question).
    pub peak_mem_bytes: u64,
    /// Per-interval goodput timeline `(seconds, Mbps)` — iPerf3's
    /// per-interval lines (empty if sampling was disabled).
    pub timeline: Vec<(f64, f64)>,
    /// Fleet-level metrics (`Some` exactly when the run carried a
    /// [`crate::SimConfig::fleet`]); skipped in serialization when absent so
    /// single-device scorecards keep their exact bytes.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub fleet: Option<FleetResult>,
}

impl SimResult {
    /// Goodput in Mbps, the unit every figure uses.
    pub fn goodput_mbps(&self) -> f64 {
        self.total_goodput.as_mbps_f64()
    }
}

/// Hot-path event tallies, kept as plain fields and folded into the
/// [`Counters`] map once at the end of the run: a B-tree lookup per
/// packet was a measurable slice of the per-event budget at 1000 flows.
///
/// Flushing preserves the exact key-existence semantics of the previous
/// per-event `inc`/`add` calls: a key appears in the final map iff the
/// corresponding call would have happened at least once.
#[derive(Default)]
pub(super) struct HotCounters {
    pub(super) timer_fires: u64,
    pub(super) timer_arms: u64,
    pub(super) retx_pkts: u64,
    pub(super) skbs_sent: u64,
    pub(super) pkts_sent: u64,
    pub(super) netem_drops: u64,
    pub(super) queue_drops: u64,
    pub(super) acks_emitted: u64,
    pub(super) sack_incoherent: u64,
    pub(super) ack_drops: u64,
    pub(super) acks_processed: u64,
    pub(super) recovery_entries: u64,
    pub(super) recovery_exits: u64,
    pub(super) rto_fires: u64,
    pub(super) rto_marked_lost: u64,
    pub(super) cross_pkts: u64,
    pub(super) cross_drops: u64,
    pub(super) shared_pkts: u64,
    pub(super) shared_drops: u64,
    pub(super) aqm_drops: u64,
}

impl HotCounters {
    fn flush(&self, counters: &mut Counters) {
        let mut put = |name: &'static str, v: u64| {
            if v > 0 {
                counters.add(name, v);
            }
        };
        put("timer_fires", self.timer_fires);
        put("timer_arms", self.timer_arms);
        put("retx_pkts", self.retx_pkts);
        put("skbs_sent", self.skbs_sent);
        put("pkts_sent", self.pkts_sent);
        put("netem_drops", self.netem_drops);
        put("queue_drops", self.queue_drops);
        put("acks_emitted", self.acks_emitted);
        put("sack_incoherent", self.sack_incoherent);
        put("ack_drops", self.ack_drops);
        put("acks_processed", self.acks_processed);
        put("recovery_entries", self.recovery_entries);
        put("recovery_exits", self.recovery_exits);
        put("rto_fires", self.rto_fires);
        put("cross_pkts", self.cross_pkts);
        put("cross_drops", self.cross_drops);
        put("shared_pkts", self.shared_pkts);
        put("shared_drops", self.shared_drops);
        put("aqm_drops", self.aqm_drops);
        // `rto_marked_lost` was `add`ed once per RTO fire, possibly with
        // zero — so its key exists exactly when any RTO fired.
        if self.rto_fires > 0 {
            counters.add("rto_marked_lost", self.rto_marked_lost);
        }
    }
}

/// MeasureStart snapshots for steady-state attribution: cycle and
/// pool-miss totals as of the end of warmup, so `finish` can report
/// measurement-window deltas.
#[derive(Default)]
pub(super) struct MeasureBaseline {
    cycles: BTreeMap<&'static str, u64>,
    cycles_total: u64,
    run_misses: u64,
    sack_misses: u64,
    slab_misses: u64,
}

impl MeasureBaseline {
    /// Snapshot the totals as of `MeasureStart`: everything charged or
    /// missed after this point is measurement-window work (summed over all
    /// device CPUs in fleet mode).
    pub(super) fn take(sim: &StackSim) -> Self {
        let mut cycles = BTreeMap::new();
        for device in &sim.devices {
            for (k, v) in device.cpu.cycles_by_category() {
                *cycles.entry(k).or_insert(0) += v;
            }
        }
        MeasureBaseline {
            cycles,
            cycles_total: sim.devices.iter().map(|d| d.cpu.total_cycles()).sum(),
            run_misses: sim.run_pool.misses(),
            sack_misses: sim.sack_pool.misses(),
            slab_misses: sim.arena.store.misses(),
        }
    }
}

/// Fleet aggregate of per-device CPU statistics: cycle counts sum across
/// devices, `busy_time` reports the busiest device (keeping "busy ≤ wall
/// clock" a per-core invariant), and the mean frequency is cycle-weighted.
fn aggregate_cpu_stats(devices: &[Device], end: SimTime) -> CpuStats {
    let stats: Vec<CpuStats> = devices.iter().map(|d| d.cpu.stats(end)).collect();
    let total_cycles = stats.iter().map(|s| s.total_cycles).sum::<u64>();
    let mean_freq_hz = if total_cycles == 0 {
        stats.iter().map(|s| s.mean_freq_hz).sum::<f64>() / stats.len().max(1) as f64
    } else {
        stats
            .iter()
            .map(|s| s.mean_freq_hz * s.total_cycles as f64)
            .sum::<f64>()
            / total_cycles as f64
    };
    let mut cycles_by_category = BTreeMap::new();
    for s in &stats {
        for (&k, &v) in &s.cycles_by_category {
            *cycles_by_category.entry(k).or_insert(0) += v;
        }
    }
    CpuStats {
        total_cycles,
        busy_time: stats
            .iter()
            .map(|s| s.busy_time)
            .max()
            .unwrap_or(SimDuration::ZERO),
        mean_freq_hz,
        cycles_by_category,
    }
}

impl StackSim {
    /// `MeasureStart`: open every flow's measurement window and record the
    /// steady-state attribution baseline.
    pub(super) fn start_measuring(&mut self) {
        for (cold, rate) in self.arena.cold.iter_mut().zip(&self.arena.rate) {
            cold.delivered_at_measure = rate.delivered();
        }
        self.measuring = true;
        self.baseline = MeasureBaseline::take(self);
    }

    /// Assemble the run's report.
    pub(super) fn finish(self) -> SimResult {
        let window = self.cfg.duration - self.cfg.warmup;
        let mut per_conn = Vec::with_capacity(self.arena.len());
        let mut total_goodput = Bandwidth::ZERO;
        let mut rtt_all = Summary::new();
        let mut p95_sum = 0.0;
        let mut p95_n = 0u32;
        let mut total_retx = 0;
        let mut skb_sum = 0u64;
        let mut skb_cnt = 0u64;
        let mut idle_ms_sum = 0.0;
        let mut idle_n = 0u32;
        let mut peak_mem = 0u64;

        for i in 0..self.arena.len() {
            let board = &self.arena.board[i];
            let cold = &self.arena.cold[i];
            let pacer = &self.arena.pacer[i];
            peak_mem += self.arena.hot[i].mem_peak_bytes;
            let delivered = self.arena.rate[i].delivered() - cold.delivered_at_measure;
            let goodput = Bandwidth::from_bytes_over(delivered * MSS, window);
            total_goodput = total_goodput.saturating_add(goodput);
            total_retx += board.total_retx();
            rtt_all.merge(&cold.rtt_summary);
            let p95 = cold.rtt_hist.quantile(0.95).unwrap_or(0.0);
            if cold.rtt_hist.count() > 0 {
                p95_sum += p95;
                p95_n += 1;
            }
            // Table 2 semantics: buffer length and idle time are per pacing
            // *period* (one timer fire releases one period's buffer).
            let (mean_skb, mean_idle_ms) = if cold.period_count > 0 {
                (
                    cold.period_bytes_sum as f64 / cold.period_count as f64,
                    pacer.total_idle().as_millis_f64() / cold.period_count as f64,
                )
            } else if cold.skb_count > 0 {
                (cold.skb_bytes_sum as f64 / cold.skb_count as f64, 0.0)
            } else {
                (0.0, 0.0)
            };
            skb_sum += cold.period_bytes_sum.max(cold.skb_bytes_sum);
            skb_cnt += cold.period_count.max(if cold.period_count == 0 {
                cold.skb_count
            } else {
                0
            });
            if pacer.paced_sends() > 0 {
                idle_ms_sum += mean_idle_ms;
                idle_n += 1;
            }
            per_conn.push(ConnStats {
                delivered_pkts: delivered,
                goodput,
                retx_pkts: board.total_retx(),
                rtt_p95_ms: p95,
                skbs_sent: cold.skb_count,
                mean_skb_bytes: mean_skb,
                mean_idle_ms,
            });
        }

        // With one device the stats come straight from its CPU
        // (byte-identical to pre-fleet output); fleets aggregate across
        // device CPUs.
        let cpu_stats = match &self.devices[..] {
            [only] => only.cpu.stats(self.end),
            devices => aggregate_cpu_stats(devices, self.end),
        };
        let counters = self.end_of_run_counters(&cpu_stats);

        // Jain fairness over per-connection goodput.
        let rates: Vec<f64> = per_conn.iter().map(|c| c.goodput.as_bps() as f64).collect();
        let fairness = sim_core::metrics::jain(&rates);
        let fleet = self.fleet_result(&per_conn);
        let ratio = |sum: f64, n: f64| if n == 0.0 { 0.0 } else { sum / n };

        SimResult {
            total_goodput,
            mean_rtt_ms: rtt_all.mean(),
            p95_rtt_ms: ratio(p95_sum, p95_n as f64),
            total_retx,
            cpu: cpu_stats,
            mean_skb_bytes: ratio(skb_sum as f64, skb_cnt as f64),
            mean_idle_ms: ratio(idle_ms_sum, idle_n as f64),
            counters,
            per_conn,
            fairness,
            fleet,
            peak_mem_bytes: peak_mem,
            timeline: self
                .timeline
                .windows(2)
                .map(|w| {
                    let ((t0, d0), (t1, d1)) = (w[0], w[1]);
                    let rate = Bandwidth::from_bytes_over((d1 - d0) * MSS, t1 - t0);
                    (t1.as_secs_f64(), rate.as_mbps_f64())
                })
                .collect(),
        }
    }

    /// The hot-path tallies folded into the counter map, plus the
    /// end-of-run accounting counters the simcheck oracles read.
    fn end_of_run_counters(&self, cpu_stats: &CpuStats) -> Counters {
        let mut counters = Counters::new();
        self.tallies.flush(&mut counters);
        for (name, moves) in [
            ("stride_adaptations", self.stride.adaptations),
            ("stride_reverts", self.stride.reverts),
        ] {
            if moves > 0 {
                counters.add(name, moves);
            }
        }

        // Link-side AQM ground truth: every CoDel/FQ-CoDel drop the links
        // themselves recorded. The stack-side `aqm_drops` tally above must
        // agree exactly (the aqm-accounting oracle); keeping both sides
        // independently counted is what makes the check non-vacuous.
        let link_aqm_drops: u64 = self
            .devices
            .iter()
            .flat_map(|d| [&d.path.fwd_link, &d.path.rev_link])
            .chain(self.shared_link.iter())
            .map(|l| l.stats().aqm_drops)
            .sum();
        if link_aqm_drops > 0 {
            counters.add("link_aqm_drops", link_aqm_drops);
        }

        // Every draw from a stream of `SimRng::new(cfg.seed)`: a config
        // that `SimConfig::draws_randomness` calls seed-invariant must read
        // 0 here, which the sweep asserts on every cell it computes.
        let rng_draws: u64 = self
            .devices
            .iter()
            .map(|d| d.path.rng_draws())
            .chain(self.cross.iter().map(|c| c.draws()))
            .sum();
        if rng_draws > 0 {
            counters.add("rng_draws", rng_draws);
        }

        // Pool health: in steady state misses stay at the cold-start count
        // (bounded by events in flight), making regressions visible in
        // counter dumps without touching the serialized scorecard. The
        // `_steady` variants count only measurement-window misses, which a
        // healthy run keeps at zero; only multi-run skbs take a run list,
        // though, so a lossy run can still be warming that pool. Categories
        // are reported separately — segment-run lists, SACK vectors, and
        // the shared scoreboard slab have independent populations and
        // failure modes.
        let base = &self.baseline;
        counters.add("pool_run_misses", self.run_pool.misses());
        counters.add("pool_sack_misses", self.sack_pool.misses());
        counters.add(
            "pool_run_misses_steady",
            self.run_pool.misses() - base.run_misses,
        );
        counters.add(
            "pool_sack_misses_steady",
            self.sack_pool.misses() - base.sack_misses,
        );
        // Independent take/reuse tallies so `misses == takes − reuses` is a
        // genuine cross-check, not a derived quantity.
        counters.add("pool_run_takes", self.run_pool.takes());
        counters.add("pool_run_reuses", self.run_pool.reuses());
        counters.add("pool_sack_takes", self.sack_pool.takes());
        counters.add("pool_sack_reuses", self.sack_pool.reuses());
        // The scoreboard-slab category (shared segment chunks).
        let (slab_takes, slab_reuses, slab_misses) = self.arena.store_stats();
        counters.add("pool_slab_takes", slab_takes);
        counters.add("pool_slab_reuses", slab_reuses);
        counters.add("pool_slab_misses", slab_misses);
        counters.add("pool_slab_misses_steady", slab_misses - base.slab_misses);
        // The stamp-ring category (one stamp per send batch).
        let (stamp_takes, stamp_reuses, stamp_misses) = self.arena.store.stamp_stats();
        counters.add("pool_stamp_takes", stamp_takes);
        counters.add("pool_stamp_reuses", stamp_reuses);
        counters.add("pool_stamp_misses", stamp_misses);

        // Timer-wheel conservation: every scheduled token is eventually
        // popped, cancelled, or still pending — nothing duplicated, nothing
        // lost (the wheel-conservation oracle).
        counters.add("wheel_scheduled", self.queue.scheduled());
        counters.add("wheel_popped", self.queue.popped());
        counters.add("wheel_cancelled", self.queue.cancelled());
        counters.add("wheel_pending", self.queue.len() as u64);

        // Receive-side conservation and terminal sequence sanity: the
        // unacknowledged edge never overtakes the send edge, and the
        // receiver never claims data the sender has not produced.
        let mut seq_regressions = 0u64;
        for i in 0..self.arena.len() {
            let board = &self.arena.board[i];
            let receiver = &self.arena.receiver[i];
            counters.add("rx_pkts_received", receiver.total_received());
            counters.add("rx_duplicates", receiver.duplicates());
            counters.add("rx_pkts_accepted", self.arena.hot[i].accepted_pkts);
            counters.add("snd_nxt_total", board.snd_nxt().0);
            seq_regressions += u64::from(board.snd_una() > board.snd_nxt());
            seq_regressions += u64::from(receiver.rcv_nxt() > board.snd_nxt());
        }
        counters.add("seq_regressions", seq_regressions);

        // Steady-state cycle attribution (Fig. 4/5's breakdown): cycles
        // charged after MeasureStart, split into the categories the paper
        // discusses. `other` absorbs retransmit/RTO and anything new.
        let steady = |cat: &str| -> u64 {
            let total = cpu_stats.cycles_by_category.get(cat).copied().unwrap_or(0);
            total.saturating_sub(base.cycles.get(cat).copied().unwrap_or(0))
        };
        let steady_total = cpu_stats.total_cycles.saturating_sub(base.cycles_total);
        let steady_timers = steady("timers");
        let steady_acks = steady("acks");
        let steady_cc = steady("cc-model");
        let steady_data = steady("bytes") + steady("skb-fixed");
        counters.add("cycles_steady_total", steady_total);
        counters.add("cycles_steady_timers", steady_timers);
        counters.add("cycles_steady_acks", steady_acks);
        counters.add("cycles_steady_cc_model", steady_cc);
        counters.add("cycles_steady_data", steady_data);
        counters.add(
            "cycles_steady_other",
            steady_total.saturating_sub(steady_timers + steady_acks + steady_cc + steady_data),
        );
        counters
    }

    /// Fleet metrics: connections were assigned to devices contiguously in
    /// `from_arc`, so a running cursor over `per_conn` recovers each
    /// device's share. Delivered bytes cover the whole run (not just the
    /// measurement window) because the conservation oracle compares them
    /// against capacity × full duration.
    fn fleet_result(&self, per_conn: &[ConnStats]) -> Option<FleetResult> {
        let fleet = self.cfg.fleet.as_ref()?;
        let mut outcomes = Vec::with_capacity(fleet.devices.len());
        let mut delivered_bytes = 0u64;
        let mut conn = 0usize;
        for (spec, device) in fleet.devices.iter().zip(&self.devices) {
            let mut goodput = Bandwidth::ZERO;
            let mut wants_pacing = false;
            for _ in 0..spec.connections {
                goodput = goodput.saturating_add(per_conn[conn].goodput);
                wants_pacing |= self.arena.paces(conn);
                delivered_bytes += self.arena.rate[conn].delivered() * MSS;
                conn += 1;
            }
            outcomes.push(DeviceOutcome {
                goodput_mbps: goodput.as_mbps_f64(),
                wants_pacing,
                busy_fraction: device.cpu.busy_time() / self.cfg.duration,
            });
        }
        Some(FleetResult::compute(
            fleet,
            &outcomes,
            self.tallies.shared_pkts,
            self.tallies.shared_drops,
            delivered_bytes,
        ))
    }
}
