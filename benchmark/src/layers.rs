//! The per-layer budget of a traced run, measured from outside:
//!
//! * **Spans** around the benchmark's own calls into each layer, taken on
//!   a *census* — the workload's own simulations where it owns them, the
//!   Fig. 2 grid where the experiments crate hides them — swept cold,
//!   warm and at two workers through `run_sweep_streaming`.
//! * **Kernels** ([`crate::kernels`]) priced per op and multiplied by the
//!   census's exact op counters: `est_share = ns_per_op × ops ÷ run time`.
//!
//! Kernels run cache-hot, so every `est_share` is a lower bound;
//! `sim.residual_share = 1 − Σ est_share` holds the dispatch loop, glue
//! and cache-miss penalty no outside-in method can attribute.

use crate::kernels::{Costs, OpMix, QDISCS};
use crate::spans::{self, Span, Total, Tracer};
use crate::stats;
use crate::workloads::Cell;
use crate::Metric;
use congestion::CcKind;
use cpu_model::CpuConfig;
use iperf::{RunReport, SeedCell, SeedResult};
use netsim::Qdisc;
use sim_core::checkpoint::CheckpointStore;
use sim_core::metrics::Counters;
use sim_core::sweep::{
    fnv64, run_sweep_streaming, CacheState, SweepCell, SweepOptions, SweepTotals,
};
use sim_core::SimRng;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;
use tcp_sim::SimConfig;

/// A census cell as the sweep engine sees it: `iperf::SeedCell`'s label,
/// cache key and codec (so keys and entries are the real ones), with the
/// run re-implemented because `SeedCell::run` discards the counters.
struct CensusCell<'a> {
    cell: &'a Cell,
    seed_cell: SeedCell,
    tracer: &'a Tracer,
    counters: Mutex<Option<Counters>>,
}

impl SweepCell for CensusCell<'_> {
    type Output = SeedResult;

    fn label(&self) -> String {
        self.seed_cell.label()
    }

    fn key_bytes(&self) -> Vec<u8> {
        self.seed_cell.key_bytes()
    }

    fn run(&self, _rng: SimRng) -> SeedResult {
        let sim = self.cell.simulate(self.tracer);
        *self.counters.lock().expect("no panic holds this lock") = Some(sim.counters);
        sim.seed
    }

    fn encode(output: &SeedResult) -> Option<Vec<u8>> {
        SeedCell::encode(output)
    }

    fn decode(bytes: &[u8]) -> Option<SeedResult> {
        SeedCell::decode(bytes)
    }

    fn cacheable(&self) -> bool {
        self.seed_cell.cacheable()
    }
}

/// One sweep over the census.
struct Swept {
    total_ns: u64,
    /// Per-cell wall time as the engine reports it (cache work included).
    cell_ns: Vec<u64>,
    hits: usize,
    outputs: Vec<SeedResult>,
    /// Counters of the cells that were computed (not served from cache).
    counters: Vec<Option<Counters>>,
    /// Span indices this sweep covers.
    range: std::ops::Range<usize>,
}

fn sweep(cells: &[Cell], opts: &SweepOptions, tracer: &Tracer) -> Result<Swept, String> {
    let census: Vec<CensusCell> = cells
        .iter()
        .map(|cell| CensusCell {
            cell,
            seed_cell: SeedCell {
                label: cell.label.clone(),
                config: cell.config.clone(),
            },
            tracer,
            counters: Mutex::new(None),
        })
        .collect();
    let mut cell_ns = Vec::with_capacity(cells.len());
    let mut outputs = Vec::with_capacity(cells.len());
    let mut hits = 0;
    let from = tracer.mark();
    let t0 = Instant::now();
    tracer
        .span("sweep.run", || {
            run_sweep_streaming(&census, opts, |idx, out, report| {
                cell_ns.push(report.elapsed.as_nanos() as u64);
                hits += usize::from(report.state == CacheState::Hit);
                std::hint::black_box(tracer.span("iperf.aggregate", || {
                    RunReport::aggregate(cells[idx].label.clone(), vec![out.clone()])
                }));
                outputs.push(out);
            })
        })
        .map_err(|e| format!("census sweep: {e}"))?;
    Ok(Swept {
        total_ns: t0.elapsed().as_nanos() as u64,
        cell_ns,
        hits,
        outputs,
        counters: census
            .into_iter()
            .map(|c| c.counters.into_inner().expect("no panic holds this lock"))
            .collect(),
        range: from..tracer.mark(),
    })
}

/// Checkpoint cost: append every census output, sync, reopen, take each.
fn checkpoint_ns(
    path: &Path,
    cells: &[Cell],
    outputs: &[SeedResult],
    tracer: &Tracer,
) -> Result<u64, String> {
    let _ = std::fs::remove_file(path);
    let records: Vec<([u8; 16], Vec<u8>)> = cells
        .iter()
        .zip(outputs)
        .map(|(cell, out)| {
            let key = serde_json::to_string(&*cell.config).expect("SimConfig serializes");
            let mut digest = [0u8; 16];
            digest[..8].copy_from_slice(&fnv64(key.as_bytes()).to_be_bytes());
            digest[8..].copy_from_slice(&fnv64(cell.label.as_bytes()).to_be_bytes());
            (digest, SeedCell::encode(out).expect("seed results encode"))
        })
        .collect();
    let t0 = Instant::now();
    let outcome = (|| {
        tracer.span("checkpoint.append", || {
            let mut store = CheckpointStore::open(path, 1)?;
            for (digest, payload) in &records {
                store.append(digest, payload)?;
            }
            store.finalize()
        })?;
        tracer.span("checkpoint.take", || {
            let mut store = CheckpointStore::open(path, 1)?;
            for (digest, payload) in &records {
                if store.take(digest).as_ref() != Some(payload) {
                    return Err(sim_core::Error::Checkpoint {
                        path: path.to_path_buf(),
                        reason: "a record did not read back".into(),
                    });
                }
            }
            Ok(())
        })
    })();
    let ns = t0.elapsed().as_nanos() as u64;
    let _ = std::fs::remove_file(path);
    outcome.map(|()| ns).map_err(|e| format!("checkpoint: {e}"))
}

/// Everything the census measured.
#[derive(Default)]
pub struct Census {
    /// `(config, counters)` of every census cell.
    pub cells: Vec<(std::sync::Arc<SimConfig>, Counters)>,
    /// `SimConfigBuilder::build` spans (set-up and census generation).
    pub config: Total,
    /// `StackSim::new` spans of the cold sweep.
    pub sim_new: Total,
    /// `StackSim::run` spans of the cold sweep.
    pub sim_run: Total,
    /// `SeedResult::from_sim` spans of the cold sweep.
    pub from_sim: Total,
    /// `RunReport::aggregate` spans of the cold sweep.
    pub aggregate: Total,
    /// Self time of the cold `run_sweep_streaming` span.
    pub cold_self_ns: u64,
    /// Cold sweep, whole.
    pub cold_total_ns: u64,
    /// Per-cell engine-reported wall time, cold (compute + cache write).
    pub cold_cell_ns: Vec<u64>,
    /// Per-cell engine-reported wall time, warm (cache read).
    pub warm_cell_ns: Vec<u64>,
    /// Cells the warm sweep served from the cache.
    pub warm_hits: usize,
    /// The same cells, no cache, two workers.
    pub jobs2_total_ns: u64,
    /// Checkpoint append + take of every cell.
    pub checkpoint_ns: u64,
}

impl Census {
    /// A counter summed over every census cell.
    fn sum(&self, name: &str) -> u64 {
        self.cells.iter().map(|(_, c)| c.get(name)).sum()
    }
}

/// Sweep the census cold (filling a run cache), warm, and at two workers,
/// then price the checkpoint store. `scratch` is a directory of the
/// benchmark's own that this function creates and removes.
pub fn take_census(cells: &[Cell], scratch: &Path, tracer: &Tracer) -> Result<Census, String> {
    let _ = std::fs::remove_dir_all(scratch);
    std::fs::create_dir_all(scratch).map_err(|e| format!("create {}: {e}", scratch.display()))?;
    let cached = SweepOptions {
        cache_dir: Some(scratch.join("cache")),
        ..SweepOptions::serial(1)
    };
    let outcome = (|| {
        let cold = sweep(cells, &cached, tracer)?;
        let warm = sweep(cells, &cached, tracer)?;
        let two = SweepOptions {
            jobs: 2,
            ..SweepOptions::serial(1)
        };
        let jobs2 = sweep(cells, &two, &Tracer::disabled())?;
        let checkpoint_ns =
            checkpoint_ns(&scratch.join("census.ckpt"), cells, &cold.outputs, tracer)?;
        let all = tracer.spans();
        let counted = cells
            .iter()
            .zip(cold.counters)
            .map(|(cell, c)| c.map(|c| (cell.config.clone(), c)))
            .collect::<Option<Vec<_>>>()
            .ok_or("a cold census cell was served from a cache that should be empty")?;
        Ok(Census {
            cells: counted,
            config: spans::total(&all, 0..all.len(), "sim.config"),
            sim_new: spans::total(&all, cold.range.clone(), "sim.new"),
            sim_run: spans::total(&all, cold.range.clone(), "sim.run"),
            from_sim: spans::total(&all, cold.range.clone(), "iperf.from_sim"),
            aggregate: spans::total(&all, cold.range.clone(), "iperf.aggregate"),
            cold_self_ns: spans::total(&all, cold.range.clone(), "sweep.run").self_ns,
            cold_total_ns: cold.total_ns,
            cold_cell_ns: cold.cell_ns,
            warm_cell_ns: warm.cell_ns,
            warm_hits: warm.hits,
            jobs2_total_ns: jobs2.total_ns,
            checkpoint_ns,
        })
    })();
    let _ = std::fs::remove_dir_all(scratch);
    outcome
}

/// What the spans of one traced pass of the real workload show.
#[derive(Default)]
pub struct PassTrace {
    /// `ExperimentId::run` spans.
    pub exp_run: Total,
    /// Longest single `ExperimentId::run`, ns.
    pub exp_run_max_ns: u64,
    /// `render_text` / scorecard tally spans.
    pub render: Total,
    /// What the sweep engine's process-wide totals gained over the pass.
    pub engine: SweepTotals,
}

impl PassTrace {
    /// Summarise the spans in `range` and the engine totals gained
    /// between `before` and `after`.
    pub fn new(
        all: &[Span],
        range: std::ops::Range<usize>,
        before: SweepTotals,
        after: SweepTotals,
    ) -> Self {
        PassTrace {
            exp_run: spans::total(all, range.clone(), "experiments.run"),
            exp_run_max_ns: range
                .clone()
                .filter(|&i| all[i].name == "experiments.run")
                .map(|i| all[i].dur_ns())
                .max()
                .unwrap_or(0),
            render: spans::total(all, range, "experiments.render"),
            engine: SweepTotals {
                cells: after.cells - before.cells,
                cache_hits: after.cache_hits - before.cache_hits,
                cell_wall_nanos: after.cell_wall_nanos - before.cell_wall_nanos,
                ..SweepTotals::default()
            },
        }
    }
}

/// The op mix the kernels replay, summed over the census.
pub fn op_mix(census: &Census) -> OpMix {
    let busiest = census
        .cells
        .iter()
        .max_by_key(|(_, c)| c.get("acks_processed"));
    OpMix {
        wheel_scheduled: census.sum("wheel_scheduled"),
        wheel_cancelled: census.sum("wheel_cancelled"),
        wheel_popped: census.sum("wheel_popped"),
        wheel_pending: census
            .cells
            .iter()
            .map(|(_, c)| c.get("wheel_pending"))
            .max()
            .unwrap_or(0),
        acks: census.sum("acks_processed"),
        recoveries: census.sum("recovery_entries"),
        flows: census
            .cells
            .iter()
            .map(|(cfg, _)| cfg.connections)
            .max()
            .unwrap_or(0),
        cpu_config: busiest.map_or(CpuConfig::HighEnd, |(cfg, _)| match &cfg.fleet {
            Some(fleet) => fleet.devices[0].cpu,
            None => cfg.cpu_config,
        }),
    }
}

/// Fraction of a cell's ACKs each controller processed: the configured
/// one, or for a fleet the device population's shares.
fn cc_weights(cfg: &SimConfig) -> [f64; 5] {
    let slot = |cc: CcKind| {
        CcKind::ALL
            .iter()
            .position(|&k| k == cc)
            .expect("ALL lists every kind")
    };
    let mut w = [0.0; 5];
    match &cfg.fleet {
        None => w[slot(cfg.cc)] = 1.0,
        Some(fleet) => {
            let total = fleet.total_connections().max(1) as f64;
            for d in &fleet.devices {
                w[slot(d.cc)] += d.connections as f64 / total;
            }
        }
    }
    w
}

fn qdisc_slot(q: Qdisc) -> usize {
    QDISCS
        .iter()
        .position(|&k| k == q)
        .expect("QDISCS lists every qdisc")
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every per-layer metric `BENCHMARK.json` declares, in its order.
pub fn assemble(
    census: &Census,
    costs: &Costs,
    pass: &PassTrace,
    trace_overhead_share: f64,
) -> Vec<Metric> {
    // The census stands for the traced pass's simulations, so its counts
    // are scaled by the share of the pass's sweep cells that were actually
    // computed: 1 for `scorecard`, 0 for `sweep_warm` (all cache hits — the
    // pass simulated nothing), and 1 where the pass ran no sweep at all.
    let computed = 1.0 - ratio(pass.engine.cache_hits as f64, pass.engine.cells as f64);
    let count = |c: &Counters, name: &str| c.get(name) as f64 * computed;
    let sum = |name: &str| census.sum(name) as f64 * computed;
    let run_ns = census.sim_run.total_ns as f64 * computed;
    let n_cells = census.cells.len() as f64;
    let share = |ns: f64| ratio(ns, run_ns);

    // sim-core::event
    let (sched, cancelled, popped) = (
        sum("wheel_scheduled"),
        sum("wheel_cancelled"),
        sum("wheel_popped"),
    );
    let event_ops = sched + cancelled + popped;
    let event_share = share(event_ops * costs.event);

    // cpu-model: an ACK charges twice (generic + CC model), a send twice
    // (fixed + per byte), a pacing-timer fire once.
    let (acks, skbs, pkts) = (sum("acks_processed"), sum("skbs_sent"), sum("pkts_sent"));
    let cpu_execs = 2.0 * acks + 2.0 * skbs + sum("timer_fires");
    let cpu_share = share(cpu_execs * costs.cpu);

    // netsim: data packets cross the access link under its qdisc (and
    // netem when configured), then a fleet's shared hop; ACKs cross the
    // FIFO reverse link.
    let (mut link_ns, mut cc_ns) = (0.0, 0.0);
    for (cfg, c) in &census.cells {
        let sent = count(c, "pkts_sent");
        let access = match &cfg.fleet {
            Some(_) => Qdisc::Fifo,
            None => cfg.path.forward.qdisc(),
        };
        link_ns += sent * costs.link[qdisc_slot(access)];
        if !cfg.path.forward_netem.is_noop() {
            link_ns += sent * costs.netem;
        }
        if let Some(shared) = cfg.fleet.as_ref().and_then(|f| f.shared.as_ref()) {
            let offered = count(c, "shared_pkts") + count(c, "shared_drops");
            link_ns += offered * costs.link[qdisc_slot(shared.qdisc())];
        }
        link_ns += count(c, "acks_emitted") * costs.link[qdisc_slot(Qdisc::Fifo)];
        let per_ack: f64 = cc_weights(cfg)
            .iter()
            .zip(costs.cc)
            .map(|(w, c)| w * c)
            .sum();
        cc_ns += count(c, "acks_processed") * per_ack;
    }
    let acks_emitted = sum("acks_emitted");
    let link_pkts = pkts + sum("shared_pkts") + acks_emitted;
    let fwd_drops = sum("queue_drops") + sum("netem_drops") + sum("shared_drops");
    let link_drops = fwd_drops + sum("ack_drops");

    // tcp-sim::arena: every dropped packet earns at least one
    // SACK-bearing ACK and every retransmission one that repairs a hole.
    let retx = sum("retx_pkts");
    let sack_acks = (fwd_drops + retx).min(acks);
    let arena_ns = skbs * costs.arena_send
        + (acks - sack_acks) * costs.arena_ack_clean
        + sack_acks * costs.arena_ack_sack;

    let shares = [
        event_share,
        cpu_share,
        share(link_ns),
        share(cc_ns),
        share(arena_ns),
    ];
    let residual = 1.0 - shares.iter().sum::<f64>();

    // sim-core::sweep, from the census sweeps.
    let ms = |ns: &[u64]| ns.iter().map(|&n| n as f64 / 1e6).collect::<Vec<f64>>();
    let cold_ms = ms(&census.cold_cell_ns);
    let (p50, tail) = if cold_ms.is_empty() {
        (0.0, 0.0)
    } else {
        let tail = stats::supported_tail(cold_ms.len());
        (
            stats::percentile(&cold_ms, 500),
            stats::percentile(&cold_ms, tail),
        )
    };
    let cold_cells_ns: u64 = census.cold_cell_ns.iter().sum();
    // Inside the engine's per-cell clock but outside the cell's own work:
    // key serialization, cache lookup, encode, write.
    let computed_ns = census.sim_new.total_ns + census.sim_run.total_ns + census.from_sim.total_ns;
    let write_ns = cold_cells_ns.saturating_sub(computed_ns);
    let engine_ns = census.cold_self_ns.saturating_sub(write_ns);
    let warm_ns: u64 = census.warm_cell_ns.iter().sum();

    // experiments: time inside `ExperimentId::run` that is not a sweep
    // cell (spec building, aggregation, shape checks), plus rendering.
    let exp_ns = pass
        .exp_run
        .total_ns
        .saturating_sub(pass.engine.cell_wall_nanos)
        + pass.render.total_ns;

    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("event.ops", event_ops, "count"),
        m("event.ns_per_op", costs.event, "ns"),
        m("event.cancel_ratio", ratio(cancelled, sched), "ratio"),
        m("event.est_share", shares[0], "ratio"),
        m("cpu.execs", cpu_execs, "count"),
        m("cpu.ns_per_exec", costs.cpu, "ns"),
        m("cpu.est_share", shares[1], "ratio"),
        m("link.pkts", link_pkts, "count"),
        m("link.ns_per_pkt.fifo", costs.link[0], "ns"),
        m("link.ns_per_pkt.codel", costs.link[1], "ns"),
        m("link.ns_per_pkt.fq_codel", costs.link[2], "ns"),
        m("netem.ns_per_pkt", costs.netem, "ns"),
        m(
            "link.drop_ratio",
            ratio(link_drops, pkts + acks_emitted),
            "ratio",
        ),
        m("link.est_share", shares[2], "ratio"),
        m(
            "cc.calls",
            acks + sum("recovery_entries") + sum("recovery_exits") + sum("rto_fires"),
            "count",
        ),
        m("cc.ns_per_ack.reno", costs.cc[0], "ns"),
        m("cc.ns_per_ack.cubic", costs.cc[1], "ns"),
        m("cc.ns_per_ack.bbr", costs.cc[2], "ns"),
        m("cc.ns_per_ack.bbr2", costs.cc[3], "ns"),
        m("cc.ns_per_ack.bbr3", costs.cc[4], "ns"),
        m("cc.est_share", shares[3], "ratio"),
        m("arena.ns_per_send", costs.arena_send, "ns"),
        m("arena.ns_per_ack.clean", costs.arena_ack_clean, "ns"),
        m("arena.ns_per_ack.sack", costs.arena_ack_sack, "ns"),
        m(
            "arena.slab_miss_ratio",
            ratio(sum("pool_slab_misses"), sum("pool_slab_takes")),
            "ratio",
        ),
        m("arena.retx_pkts", retx, "count"),
        m("arena.est_share", shares[4], "ratio"),
        m("pacing.ns_per_send", costs.pacing_send, "ns"),
        m("pacing.timer_arms", sum("timer_arms"), "count"),
        m("pacing.timer_fires", sum("timer_fires"), "count"),
        m(
            "pacing.fires_per_skb",
            ratio(sum("timer_fires"), skbs),
            "ratio",
        ),
        m("receiver.ns_per_pkt", costs.receiver_pkt, "ns"),
        m("receiver.acks_emitted", acks_emitted, "count"),
        m(
            "sim.config_us",
            ratio(
                census.config.total_ns as f64 / 1e3,
                census.config.count as f64,
            ),
            "us",
        ),
        m(
            "sim.new_us",
            ratio(census.sim_new.total_ns as f64 / 1e3, n_cells),
            "us",
        ),
        m("sim.run_ms", run_ns / 1e6, "ms"),
        m("sim.events", popped, "count"),
        m("sim.ns_per_event", ratio(run_ns, popped), "ns"),
        m("sim.residual_share", residual, "ratio"),
        m(
            "iperf.report_us_per_cell",
            ratio(
                (census.from_sim.total_ns + census.aggregate.total_ns) as f64 / 1e3,
                n_cells,
            ),
            "us",
        ),
        m("sweep.cells", pass.engine.cells as f64, "count"),
        m(
            "sweep.self_us_per_cell",
            ratio(engine_ns as f64 / 1e3, n_cells),
            "us",
        ),
        m(
            "sweep.cache_read_us_per_cell",
            ratio(warm_ns as f64 / 1e3, census.warm_hits as f64),
            "us",
        ),
        m(
            "sweep.cache_write_us_per_cell",
            ratio(write_ns as f64 / 1e3, n_cells),
            "us",
        ),
        m(
            "sweep.cache_hit_ratio",
            ratio(pass.engine.cache_hits as f64, pass.engine.cells as f64),
            "ratio",
        ),
        m(
            "sweep.checkpoint_us_per_cell",
            ratio(census.checkpoint_ns as f64 / 1e3, n_cells),
            "us",
        ),
        m("sweep.cell_ms_p50", p50, "ms"),
        m("sweep.cell_ms_p98", tail, "ms"),
        m(
            "sweep.jobs2_speedup",
            ratio(census.cold_total_ns as f64, census.jobs2_total_ns as f64),
            "ratio",
        ),
        m("metrics.hist_record_ns", costs.hist_record, "ns"),
        m("metrics.hist_merge_us", costs.hist_merge_us, "us"),
        m("experiments.checks_render_ms", exp_ns as f64 / 1e6, "ms"),
        m(
            "experiments.exp_ms_max",
            pass.exp_run_max_ns as f64 / 1e6,
            "ms",
        ),
        m("trace.overhead_share", trace_overhead_share, "ratio"),
    ]
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::workloads::{generate, Inputs, Workload};

    pub(crate) fn costs() -> Costs {
        Costs {
            event: 40.0,
            cpu: 12.0,
            link: [20.0, 35.0, 60.0],
            netem: 9.0,
            cc: [15.0, 25.0, 90.0, 120.0, 125.0],
            arena_send: 70.0,
            arena_ack_clean: 110.0,
            arena_ack_sack: 400.0,
            pacing_send: 18.0,
            receiver_pkt: 6.0,
            hist_record: 11.0,
            hist_merge_us: 3.0,
        }
    }

    fn smoke_cells(w: Workload) -> Vec<Cell> {
        match generate(w, 1, None, true, &Tracer::disabled()).expect("inputs generate") {
            Inputs::Cells(cells) => cells,
            Inputs::Experiments { .. } => panic!("{} owns no cells", w.name()),
        }
    }

    #[test]
    fn shares_and_residual_sum_to_one_on_a_real_census() {
        let cells: Vec<Cell> = smoke_cells(Workload::LossRecovery)
            .into_iter()
            .take(3)
            .collect();
        let scratch = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-census-{}", std::process::id()));
        let tracer = Tracer::enabled();
        let census = take_census(&cells, &scratch, &tracer).expect("census completes");
        assert!(
            !scratch.exists(),
            "the census removes its scratch directory"
        );
        assert_eq!(census.cells.len(), 3);
        assert_eq!(census.cold_cell_ns.len(), 3);
        assert_eq!(census.warm_hits, 3, "the second sweep is served from cache");
        assert_eq!(census.sim_run.count, 3, "only the cold sweep simulates");
        assert!(census.checkpoint_ns > 0 && census.jobs2_total_ns > 0);

        let metrics = assemble(&census, &costs(), &PassTrace::default(), 0.0);
        let get = |name: &str| {
            metrics
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("{name} is emitted"))
                .value
        };
        let shares: f64 = metrics
            .iter()
            .filter(|m| m.name.ends_with(".est_share"))
            .map(|m| m.value)
            .sum();
        assert!((shares + get("sim.residual_share") - 1.0).abs() < 1e-12);
        assert!(shares > 0.0, "the loss grid exercises every priced layer");
        assert_eq!(
            get("sim.events"),
            census.sum("wheel_popped") as f64,
            "counts are exact"
        );
        assert!(get("arena.retx_pkts") > 0.0 && get("link.drop_ratio") > 0.0);

        // A pass served entirely from the cache simulated nothing.
        let warm = PassTrace {
            engine: SweepTotals {
                cells: 9,
                cache_hits: 9,
                ..SweepTotals::default()
            },
            ..PassTrace::default()
        };
        let idle = assemble(&census, &costs(), &warm, 0.0);
        let value = |name: &str| idle.iter().find(|m| m.name == name).expect("emitted").value;
        assert_eq!(value("sim.events"), 0.0);
        assert_eq!(value("event.est_share"), 0.0);
        assert_eq!(value("sweep.cache_hit_ratio"), 1.0);
        assert!(
            value("sweep.cache_read_us_per_cell") > 0.0,
            "unit costs stay"
        );
    }

    #[test]
    fn an_empty_census_reports_zeros_and_full_residual() {
        let metrics = assemble(&Census::default(), &costs(), &PassTrace::default(), 0.0);
        for m in &metrics {
            assert!(m.value.is_finite(), "{} is finite", m.name);
        }
        let residual = metrics
            .iter()
            .find(|m| m.name == "sim.residual_share")
            .expect("emitted");
        assert_eq!(residual.value, 1.0);
    }

    #[test]
    fn fleet_acks_are_priced_by_population_share() {
        let cells = smoke_cells(Workload::FleetPop);
        let w = cc_weights(&cells[0].config);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // TIER_MIX: 3 BBR, 2 Cubic, 1 BBR2 of every 6 devices; no Reno/BBR3.
        assert_eq!(w[0], 0.0);
        assert!(w[2] > w[1] && w[1] > w[3] && w[3] > 0.0);
        assert_eq!(w[4], 0.0);
    }
}
