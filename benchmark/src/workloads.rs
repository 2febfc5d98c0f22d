//! The five workloads: what one pass of each is, how its inputs derive
//! from `--seed`, and the correctness checks every pass carries.
//!
//! Each workload is a closed loop of one client running a fixed amount of
//! simulated work on one thread; only host time varies between passes.
//!
//! # What `--seed` varies, and what it must not
//!
//! Every simulation's own RNG seed is a constant. Re-seeding the
//! simulations from `--seed` was measured and rejected: the simulated
//! work is chaotic in the seed (`fleet_pop` took 1.27 s to 6.38 s of host
//! time and 44 to 102 MiB across four seeds), so every metric would
//! measure the seed, not the code. `--seed` instead permutes the order in
//! which a workload's units run — experiments in `scorecard` and
//! `sweep_warm`, grid cells in `loss_recovery` — which varies allocator
//! and cache history but not the work, and seeds the replay kernels' own
//! draws. The single-simulation workloads are the same for every seed.

use crate::spans::Tracer;
use congestion::master::MasterConfig;
use congestion::CcKind;
use cpu_model::{CpuConfig, DeviceProfile};
use experiments::{Experiment, ExperimentId, Params, Scorecard};
use iperf::{RunReport, SeedResult};
use netsim::media::MediaProfile;
use netsim::netem::NetemConfig;
use netsim::Qdisc;
use sim_core::metrics::Counters;
use sim_core::sweep::fnv64;
use sim_core::time::SimDuration;
use sim_core::units::Bandwidth;
use sim_core::SimRng;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use tcp_sim::{FleetConfig, SimConfig, SimResult, StackSim};

/// A benchmark workload. Names are stable: later issues cite them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// All 19 experiments at the quick preset, no cache: `repro --exp all`.
    Scorecard,
    /// One 1000-device mixed fleet through a shared CoDel PoP uplink.
    FleetPop,
    /// One device, 1000 BBR connections on Ethernet.
    DenseFlows,
    /// Loss/AQM grid over all five congestion controllers.
    LossRecovery,
    /// Back-to-back scorecards against a warm run cache.
    SweepWarm,
}

/// Scorecards per `sweep_warm` pass (≈1 s of cache reads, checks, render).
pub const WARM_ROUNDS: usize = 20;
/// Devices in the `fleet_pop` fleet and connections in `dense_flows`.
pub const POPULATION: usize = 1000;
/// Shared-uplink provisioning per fleet device, as in the FLEET experiment.
const FLEET_SHARE_MBPS: u64 = 20;
/// Simulated milliseconds of `fleet_pop` (≈2.6 M events).
const FLEET_MILLIS: u64 = 10_000;
/// Simulated milliseconds of `dense_flows`.
const DENSE_MILLIS: u64 = 40_000;
/// Simulated milliseconds per `loss_recovery` cell.
const LOSS_MILLIS: u64 = 5_000;
/// `--smoke` divides simulated durations and warm rounds by this: it
/// gates correctness, not speed, and has to fit a CI step.
const SMOKE_DIVISOR: u64 = 8;
/// Connections per `loss_recovery` cell (the paper's worst case).
const LOSS_CONNS: usize = 20;
/// The §5.2.3 shallow droptail buffer, packets.
const SHALLOW_QUEUE: usize = 10;

impl Workload {
    /// Every workload, in the order `run.sh` interleaves them.
    pub const ALL: [Workload; 5] = [
        Workload::Scorecard,
        Workload::FleetPop,
        Workload::DenseFlows,
        Workload::LossRecovery,
        Workload::SweepWarm,
    ];

    /// The name `BENCHMARK.json` declares.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Scorecard => "scorecard",
            Workload::FleetPop => "fleet_pop",
            Workload::DenseFlows => "dense_flows",
            Workload::LossRecovery => "loss_recovery",
            Workload::SweepWarm => "sweep_warm",
        }
    }

    /// Parse a declared name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether passes read the run cache (and so need a cache directory).
    pub fn uses_cache(self) -> bool {
        self == Workload::SweepWarm
    }
}

/// One benchmark-owned simulation.
#[derive(Clone)]
pub struct Cell {
    /// Display label.
    pub label: String,
    /// The generated configuration.
    pub config: Arc<SimConfig>,
}

/// What one [`Cell`] produced.
pub struct Simulated {
    /// Headline numbers, as the iperf layer extracts them.
    pub seed: SeedResult,
    /// The run's exact work counters.
    pub counters: Counters,
    /// Violated invariants (empty on a healthy run).
    pub violations: Vec<String>,
}

/// Invariants checked on every single-simulation result.
const INVARIANTS_PER_CELL: u64 = 2;

impl Cell {
    /// Run the simulation with spans at each layer boundary.
    pub fn simulate(&self, tracer: &Tracer) -> Simulated {
        let sim = tracer.span("sim.new", || StackSim::from_arc(self.config.clone()));
        let res = tracer.span("sim.run", || sim.run());
        let violations = invariant_violations(&self.label, &self.config, &res);
        let seed = tracer.span("iperf.from_sim", || {
            SeedResult::from_sim(self.config.seed, &res)
        });
        Simulated {
            seed,
            counters: res.counters,
            violations,
        }
    }
}

/// The fastest the configured path can carry payload.
fn goodput_ceiling(cfg: &SimConfig) -> Bandwidth {
    match &cfg.fleet {
        None => cfg.path.max_forward_rate(),
        Some(fleet) => match &fleet.shared {
            Some(shared) => shared.rate,
            None => fleet
                .devices
                .iter()
                .map(|d| d.media.path_config().max_forward_rate())
                .fold(Bandwidth::ZERO, Bandwidth::saturating_add),
        },
    }
}

fn invariant_violations(label: &str, cfg: &SimConfig, res: &SimResult) -> Vec<String> {
    let c = &res.counters;
    let mut out = Vec::new();
    let (sched, popped, cancelled, pending) = (
        c.get("wheel_scheduled"),
        c.get("wheel_popped"),
        c.get("wheel_cancelled"),
        c.get("wheel_pending"),
    );
    if sched != popped + cancelled + pending {
        out.push(format!(
            "{label}: wheel conservation broken: scheduled {sched} != popped {popped} + cancelled {cancelled} + pending {pending}"
        ));
    }
    let ceiling = goodput_ceiling(cfg);
    if res.total_goodput > ceiling {
        out.push(format!(
            "{label}: goodput {:.1} Mbps exceeds the bottleneck's {:.1} Mbps",
            res.goodput_mbps(),
            ceiling.as_mbps_f64()
        ));
    }
    out
}

/// The generated inputs of one workload.
pub enum Inputs {
    /// `rounds` scorecards: every experiment once per round, in `order`.
    Experiments {
        /// Seed-shuffled experiment order.
        order: Vec<ExperimentId>,
        /// Quick preset, one sweep worker.
        params: Params,
        /// Scorecards per pass.
        rounds: usize,
    },
    /// Benchmark-owned simulations, run one after another.
    Cells(Vec<Cell>),
}

/// RNG seed of the single-simulation workloads: the one `perf`'s fleet
/// and many-flows cells use.
const SIM_SEED: u64 = 11;

/// A fixed `SimConfig` seed for the loss-grid cell called `label`.
fn cell_seed(label: &str) -> u64 {
    SimRng::new(SIM_SEED).split(fnv64(label.as_bytes())).next()
}

/// Fisher–Yates shuffle driven by the workload seed.
fn shuffle<T>(items: &mut [T], seed: u64, tag: &str) {
    let mut rng = SimRng::new(seed).split(fnv64(tag.as_bytes()));
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

fn built(
    tracer: &Tracer,
    label: impl Into<String>,
    builder: tcp_sim::SimConfigBuilder,
) -> Result<Cell, String> {
    let label = label.into();
    let config = tracer
        .span("sim.config", || builder.build())
        .map_err(|e| format!("{label}: {e}"))?;
    Ok(Cell {
        label,
        config: Arc::new(config),
    })
}

fn experiments_inputs(seed: u64, rounds: usize, cache_dir: Option<&Path>) -> Inputs {
    let mut order = ExperimentId::ALL.to_vec();
    shuffle(&mut order, seed, "experiment-order");
    let mut params = Params::quick();
    params.threads = 1;
    params.cache_dir = cache_dir.map(Path::to_path_buf);
    Inputs::Experiments {
        order,
        params,
        rounds,
    }
}

/// Duration and warm-up (a quarter of it) for an owned simulation.
fn window(
    builder: tcp_sim::SimConfigBuilder,
    millis: u64,
    smoke: bool,
) -> tcp_sim::SimConfigBuilder {
    let millis = if smoke {
        millis / SMOKE_DIVISOR
    } else {
        millis
    };
    builder
        .duration(SimDuration::from_millis(millis))
        .warmup(SimDuration::from_millis(millis / 4))
}

fn fleet_pop_cells(smoke: bool, tracer: &Tracer) -> Result<Vec<Cell>, String> {
    let fleet = FleetConfig::mixed(POPULATION).with_shared(FleetConfig::pop_uplink(
        Bandwidth::from_mbps(FLEET_SHARE_MBPS * POPULATION as u64),
        Qdisc::Codel,
    ));
    let builder = SimConfig::builder(DeviceProfile::pixel4(), CpuConfig::HighEnd, CcKind::Bbr, 1)
        .fleet(fleet)
        // The default 3 ms stagger would start the last device 3 s in.
        .start_stagger(SimDuration::from_micros(100))
        .sample_interval(None)
        .seed(SIM_SEED);
    let builder = window(builder, FLEET_MILLIS, smoke);
    Ok(vec![built(
        tracer,
        "mixed fleet, 1000 devices, CoDel PoP",
        builder,
    )?])
}

fn dense_flows_cells(smoke: bool, tracer: &Tracer) -> Result<Vec<Cell>, String> {
    let builder = SimConfig::builder(
        DeviceProfile::pixel4(),
        CpuConfig::HighEnd,
        CcKind::Bbr,
        POPULATION,
    )
    .media(MediaProfile::Ethernet)
    .start_stagger(SimDuration::from_micros(100))
    .sample_interval(None)
    .seed(SIM_SEED);
    let builder = window(builder, DENSE_MILLIS, smoke);
    Ok(vec![built(tracer, "BBR, High-End, 1000 conns", builder)?])
}

fn loss_recovery_cells(seed: u64, smoke: bool, tracer: &Tracer) -> Result<Vec<Cell>, String> {
    let ethernet = || MediaProfile::Ethernet.path_config();
    let shallow = || ethernet().with_queue_packets(SHALLOW_QUEUE);
    let paths = [
        ("shallow FIFO", shallow(), Qdisc::Fifo),
        (
            "netem 1% loss",
            ethernet().with_forward_netem(NetemConfig::none().with_loss(0.01)),
            Qdisc::Fifo,
        ),
        ("WiFi CoDel", MediaProfile::Wifi.path_config(), Qdisc::Codel),
        (
            "WiFi FQ-CoDel",
            MediaProfile::Wifi.path_config(),
            Qdisc::FqCodel,
        ),
    ];
    let base = |cpu, cc| {
        let builder = SimConfig::builder(DeviceProfile::pixel4(), cpu, cc, LOSS_CONNS);
        window(builder, LOSS_MILLIS, smoke).sample_interval(None)
    };
    let mut cells = Vec::new();
    for (name, path, qdisc) in paths {
        for cc in CcKind::ALL {
            let label = format!("{cc}, {name}");
            let builder = base(CpuConfig::HighEnd, cc)
                .path(path.clone())
                .qdisc(qdisc)
                .seed(cell_seed(&label));
            cells.push(built(tracer, label, builder)?);
        }
    }
    // §5.2.3: unpaced BBR floods the shallow buffer (tens of thousands of
    // retransmissions) — the heaviest RACK/RTO/retransmit-planning cell.
    let label = "BBR unpaced, Low-End, shallow FIFO";
    let builder = base(CpuConfig::LowEnd, CcKind::Bbr)
        .path(shallow())
        .master(MasterConfig::pacing_off())
        .seed(cell_seed(label));
    cells.push(built(tracer, label, builder)?);
    shuffle(&mut cells, seed, "loss-grid-order");
    Ok(cells)
}

/// Generate a workload's inputs from the seed. `cache_dir` is where a
/// cache-reading workload keeps its run cache; others ignore it. `smoke`
/// shrinks the simulated work (see [`SMOKE_DIVISOR`]).
pub fn generate(
    workload: Workload,
    seed: u64,
    cache_dir: Option<&Path>,
    smoke: bool,
    tracer: &Tracer,
) -> Result<Inputs, String> {
    Ok(match workload {
        Workload::Scorecard => experiments_inputs(seed, 1, None),
        Workload::SweepWarm => {
            let dir = cache_dir.ok_or("sweep_warm needs a cache directory")?;
            let rounds = if smoke { 2 } else { WARM_ROUNDS };
            experiments_inputs(seed, rounds, Some(dir))
        }
        Workload::FleetPop => Inputs::Cells(fleet_pop_cells(smoke, tracer)?),
        Workload::DenseFlows => Inputs::Cells(dense_flows_cells(smoke, tracer)?),
        Workload::LossRecovery => Inputs::Cells(loss_recovery_cells(seed, smoke, tracer)?),
    })
}

/// The simulations a traced run sweeps and counts to budget the layers:
/// the workload's own cells, or — where the experiments crate builds and
/// runs its configurations out of the benchmark's sight — the Fig. 2 grid
/// at the same preset (both controllers × every CPU tier × {1, 5, 10, 20}
/// connections, seed 1), the scorecard's largest experiment.
pub fn census(inputs: &Inputs, tracer: &Tracer) -> Vec<Cell> {
    match inputs {
        Inputs::Cells(cells) => cells.clone(),
        Inputs::Experiments { params, .. } => {
            let mut cells = Vec::new();
            for cpu in CpuConfig::ALL {
                for conns in experiments::params::CONN_SWEEP {
                    for cc in [CcKind::Cubic, CcKind::Bbr] {
                        let config = tracer.span("sim.config", || params.pixel4(cpu, cc, conns));
                        cells.push(Cell {
                            label: format!("{cc}, {cpu}, {conns} conns"),
                            config: Arc::new(config),
                        });
                    }
                }
            }
            cells
        }
    }
}

/// The outcome of one pass.
#[derive(Default)]
pub struct PassOutput {
    /// FNV-64 of the serialized results.
    pub digest: u64,
    /// Correctness checks this pass attempted (shape checks, invariants).
    pub attempted: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// Exact work counters of every owned cell, in run order.
    pub counters: Vec<Counters>,
}

fn run_experiments(
    order: &[ExperimentId],
    params: &Params,
    rounds: usize,
    tracer: &Tracer,
) -> Result<PassOutput, String> {
    let mut out = PassOutput::default();
    let mut serialized = String::new();
    for _ in 0..rounds {
        // Results land in paper order whatever order they ran in, so the
        // digest does not depend on the seed's shuffle.
        let mut done: Vec<Option<Experiment>> = vec![None; ExperimentId::ALL.len()];
        for &id in order {
            let exp = tracer
                .span("experiments.run", || id.run(params))
                .map_err(|e| format!("{}: {e}", id.cli_name()))?;
            black_box(tracer.span("experiments.render", || exp.render_text()));
            let slot = ExperimentId::ALL
                .iter()
                .position(|&x| x == id)
                .expect("ALL lists every id");
            done[slot] = Some(exp);
        }
        let done: Vec<Experiment> = done.into_iter().flatten().collect();
        let card = tracer.span("experiments.render", || {
            let card = Scorecard::tally(&done);
            black_box(card.banner());
            card
        });
        out.attempted += card.total as u64;
        out.failures.extend(
            card.misses
                .iter()
                .map(|(id, name)| format!("shape check missed: {id}: {name}")),
        );
        serialized
            .push_str(&serde_json::to_string(&done).expect("experiments serialize infallibly"));
    }
    out.digest = fnv64(serialized.as_bytes());
    Ok(out)
}

fn run_cells(cells: &[Cell], tracer: &Tracer) -> PassOutput {
    let mut out = PassOutput::default();
    let mut reports = Vec::with_capacity(cells.len());
    for cell in cells {
        let sim = cell.simulate(tracer);
        out.attempted += INVARIANTS_PER_CELL;
        out.failures.extend(sim.violations);
        out.counters.push(sim.counters);
        reports.push(tracer.span("iperf.aggregate", || {
            RunReport::aggregate(cell.label.clone(), vec![sim.seed])
        }));
    }
    // Sorted, so the digest does not depend on the seed's grid order.
    reports.sort_by(|a: &RunReport, b| a.label.cmp(&b.label));
    let serialized = serde_json::to_string(&reports).expect("reports serialize infallibly");
    out.digest = fnv64(serialized.as_bytes());
    out
}

/// Run one pass: the workload's whole fixed amount of work.
pub fn run_pass(inputs: &Inputs, tracer: &Tracer) -> Result<PassOutput, String> {
    match inputs {
        Inputs::Experiments {
            order,
            params,
            rounds,
        } => run_experiments(order, params, *rounds, tracer),
        Inputs::Cells(cells) => Ok(run_cells(cells, tracer)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A canonical description of generated inputs: equal descriptions mean
    /// the simulator is handed identical work.
    fn describe(inputs: &Inputs) -> String {
        match inputs {
            Inputs::Experiments {
                order,
                params,
                rounds,
            } => {
                let names: Vec<&str> = order.iter().map(|id| id.cli_name()).collect();
                let params = serde_json::to_string(params).expect("Params serializes infallibly");
                format!("{rounds} x [{}] {params}", names.join(","))
            }
            Inputs::Cells(cells) => cells
                .iter()
                .map(|c| {
                    let cfg =
                        serde_json::to_string(&*c.config).expect("SimConfig serializes infallibly");
                    format!("{}: {cfg}\n", c.label)
                })
                .collect(),
        }
    }

    fn described(w: Workload, seed: u64) -> String {
        let dir = Path::new("unused-cache-dir");
        describe(
            &generate(w, seed, Some(dir), false, &Tracer::disabled()).expect("inputs generate"),
        )
    }

    #[test]
    fn same_seed_same_inputs_and_another_seed_reorders_only() {
        for w in Workload::ALL {
            assert_eq!(described(w, 7), described(w, 7), "{}", w.name());
            let sorted = |seed| {
                let text = described(w, seed);
                let mut lines: Vec<&str> = text.lines().collect();
                lines.sort_unstable();
                lines.join("\n")
            };
            match w {
                // One simulation each: nothing for a seed to reorder.
                Workload::FleetPop | Workload::DenseFlows => {
                    assert_eq!(described(w, 7), described(w, 8), "{}", w.name())
                }
                Workload::LossRecovery => {
                    assert_ne!(described(w, 7), described(w, 8), "order differs");
                    assert_eq!(sorted(7), sorted(8), "the cells themselves do not");
                }
                Workload::Scorecard | Workload::SweepWarm => {
                    assert_ne!(described(w, 7), described(w, 8), "{}", w.name())
                }
            }
        }
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn loss_grid_covers_every_path_and_controller() {
        let Inputs::Cells(cells) =
            generate(Workload::LossRecovery, 1, None, true, &Tracer::disabled())
                .expect("generates")
        else {
            panic!("loss_recovery owns its cells");
        };
        assert_eq!(cells.len(), 4 * CcKind::ALL.len() + 1);
        for cc in CcKind::ALL {
            assert_eq!(
                cells
                    .iter()
                    .filter(|c| c.config.cc == cc && c.config.cpu_config == CpuConfig::HighEnd)
                    .count(),
                4,
                "{cc}"
            );
        }
        let fq = cells
            .iter()
            .filter(|c| c.config.path.forward.qdisc() == Qdisc::FqCodel)
            .count();
        assert_eq!(fq, CcKind::ALL.len());
    }

    #[test]
    fn invariants_flag_a_broken_result() {
        let Inputs::Cells(mut cells) =
            generate(Workload::LossRecovery, 1, None, true, &Tracer::disabled())
                .expect("generates")
        else {
            panic!("loss_recovery owns its cells");
        };
        // Shorten one cell so the test stays fast.
        let mut cfg = (*cells.remove(0).config).clone();
        cfg.duration = SimDuration::from_millis(300);
        cfg.warmup = SimDuration::from_millis(100);
        let mut res = StackSim::new(cfg.clone()).run();
        assert!(invariant_violations("ok", &cfg, &res).is_empty());
        res.counters.add("wheel_popped", 1);
        res.total_goodput = Bandwidth::from_gbps(100);
        assert_eq!(invariant_violations("bad", &cfg, &res).len(), 2);
    }
}
