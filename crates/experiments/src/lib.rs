//! # experiments
//!
//! The public face of the *"Are Mobiles Ready for BBR?"* reproduction: one
//! module per figure/table in the paper's evaluation. The paper runs one
//! measurement campaign and reads many figures off it, and so does this
//! crate — every experiment is two pure functions and a registry row:
//!
//! * `plan(&Params) -> Vec<RunSpec>` builds the labelled
//!   [`tcp_sim::SimConfig`]s (× seeds) the artifact needs;
//! * `check(&Params, &[RunReport]) -> Experiment` turns that plan's
//!   reports, in plan order, into a labelled [`table::ResultTable`] plus
//!   automatic [`checks::ShapeCheck`]s that compare the measured *shape*
//!   (who wins, by roughly what factor, where optima fall) against the
//!   paper's claims.
//!
//! [`run_all`] is the only thing that joins them: it concatenates the
//! selected experiments' plans, runs **one** streaming sweep
//! ([`iperf::run_specs_sweep`], which simulates a (config, seed) pair that
//! several plans name — the Low-End 20-connection BBR run is the baseline
//! of half the evaluation — once), and hands each experiment its reports
//! the moment its last cell is released. A `check` only ever sees reports,
//! so an experiment *cannot* run a simulation; the one module here that
//! builds a simulator itself is [`report`], for the two instrumented runs
//! whose logs a report cannot carry.
//!
//! [`ExperimentId`] lists the experiments: one variant per paper artifact,
//! with the module of the same name holding its two halves
//! ([`ExperimentId::ALL`], the scorecard), then the six design-choice
//! studies of the `ablations` module ([`ExperimentId::ABLATIONS`]), which
//! report a table and check no shape.
//!
//! ```no_run
//! use experiments::{params::Params, ExperimentId};
//!
//! let params = Params::quick();
//! let exp = ExperimentId::Fig2.run(&params).expect("experiment completes");
//! println!("{}", exp.render_text());
//! ```

#![warn(missing_docs)]

mod ablations;
mod autostride;
mod bbr2_wifi;
pub mod checks;
mod devices;
mod fairness;
mod fig2;
mod fig3;
mod fig4;
mod fig5;
mod fig6;
mod fig7;
mod fig8;
mod fig9;
mod fiveg;
mod fleet;
mod memory;
pub mod params;
mod profile;
pub mod report;
mod sec51;
mod shallow;
pub mod summary;
pub mod table;
mod table2;

use iperf::{RunReport, RunSpec};
use serde::Serialize;

pub use checks::ShapeCheck;
pub use params::Params;
pub use summary::Scorecard;
pub use table::ResultTable;

/// A completed experiment: a table of measurements plus shape checks.
#[derive(Debug, Clone, Serialize)]
pub struct Experiment {
    /// Which paper artifact this reproduces.
    pub id: String,
    /// Human title.
    pub title: String,
    /// The measurements.
    pub table: ResultTable,
    /// Automatic comparisons with the paper's claims.
    pub checks: Vec<ShapeCheck>,
}

impl Experiment {
    /// Render the experiment as display text (table + check list).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} — {} ==\n\n", self.id, self.title));
        out.push_str(&self.table.render_text());
        out.push('\n');
        for c in &self.checks {
            out.push_str(&format!("{}\n", c.render()));
        }
        out
    }

    /// Render as Markdown (for EXPERIMENTS.md).
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("### {} — {}\n\n", self.id, self.title));
        out.push_str(&self.table.render_markdown());
        out.push('\n');
        for c in &self.checks {
            out.push_str(&format!("- {}\n", c.render()));
        }
        out.push('\n');
        out
    }

    /// True if every shape check passed.
    pub fn all_pass(&self) -> bool {
        self.checks.iter().all(|c| c.pass)
    }
}

/// Every experiment in the reproduction, runnable by id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum ExperimentId {
    /// Fig. 2 (a–d).
    Fig2,
    /// Fig. 3.
    Fig3,
    /// §4.2 BBR2 on WiFi.
    Bbr2Wifi,
    /// §5.1.1 + §5.1.2.
    Sec51,
    /// Fig. 4.
    Fig4,
    /// Fig. 5.
    Fig5,
    /// Fig. 6.
    Fig6,
    /// Fig. 7.
    Fig7,
    /// §5.2.3 shallow buffer.
    Shallow,
    /// Fig. 8.
    Fig8,
    /// Table 2.
    Table2,
    /// Fig. 9 (Appendix A.1).
    Fig9,
    /// §7.1.3 fairness probe (extension).
    Fairness,
    /// PoP-scale fleet through one shared bottleneck (extension).
    Fleet,
    /// Forward-looking 5G prediction (extension of §4/A.1).
    FiveG,
    /// §7.1.1 memory-usage probe.
    Memory,
    /// §7.1.2 online stride adaptation (future work, implemented).
    AutoStride,
    /// §7.2 budget-device survey.
    Devices,
    /// §5 root cause — steady-state cycle attribution via the simulated-CPU
    /// profiler (pacing-timer work dominates BBR, not Cubic).
    Profile,
    /// Ablation: pacing-timer cost vs the value of striding (§7.1.4).
    AblTimer,
    /// Ablation: socket-buffer cap vs strided throughput.
    AblCap,
    /// Ablation: dynamic governor vs pinned frequencies.
    AblGovernor,
    /// Ablation: CoDel vs droptail, paced and unpaced.
    AblAqm,
    /// Ablation: pacing stride under competing cross-traffic (§7.1.3).
    AblCompetition,
    /// Ablation: server ACK frequency.
    AblAcks,
}

/// One experiment: its id, its `repro --exp` name, and its two halves.
#[derive(Clone, Copy)]
struct Row {
    id: ExperimentId,
    cli_name: &'static str,
    plan: fn(&Params) -> Vec<RunSpec>,
    check: fn(&Params, &[RunReport]) -> Experiment,
}

/// Every experiment: the scorecard in paper order (paper artifacts first,
/// then the future-work extensions), then the ablation studies.
#[rustfmt::skip]
const REGISTRY: [Row; 25] = [
    Row { id: ExperimentId::Fig2, cli_name: "fig2", plan: fig2::plan, check: fig2::check },
    Row { id: ExperimentId::Fig3, cli_name: "fig3", plan: fig3::plan, check: fig3::check },
    Row { id: ExperimentId::Bbr2Wifi, cli_name: "bbr2", plan: bbr2_wifi::plan, check: bbr2_wifi::check },
    Row { id: ExperimentId::Sec51, cli_name: "sec51", plan: sec51::plan, check: sec51::check },
    Row { id: ExperimentId::Fig4, cli_name: "fig4", plan: fig4::plan, check: fig4::check },
    Row { id: ExperimentId::Fig5, cli_name: "fig5", plan: fig5::plan, check: fig5::check },
    Row { id: ExperimentId::Fig6, cli_name: "fig6", plan: fig6::plan, check: fig6::check },
    // Fig. 7 reads RTT off the very runs Fig. 4 reads goodput off.
    Row { id: ExperimentId::Fig7, cli_name: "fig7", plan: fig4::plan, check: fig7::check },
    Row { id: ExperimentId::Shallow, cli_name: "shallow", plan: shallow::plan, check: shallow::check },
    Row { id: ExperimentId::Fig8, cli_name: "fig8", plan: fig8::plan, check: fig8::check },
    Row { id: ExperimentId::Table2, cli_name: "table2", plan: table2::plan, check: table2::check },
    Row { id: ExperimentId::Fig9, cli_name: "fig9", plan: fig9::plan, check: fig9::check },
    Row { id: ExperimentId::Fairness, cli_name: "fairness", plan: fairness::plan, check: fairness::check },
    Row { id: ExperimentId::Fleet, cli_name: "fleet", plan: fleet::plan, check: fleet::check },
    Row { id: ExperimentId::FiveG, cli_name: "5g", plan: fiveg::plan, check: fiveg::check },
    Row { id: ExperimentId::Memory, cli_name: "memory", plan: memory::plan, check: memory::check },
    Row { id: ExperimentId::AutoStride, cli_name: "autostride", plan: autostride::plan, check: autostride::check },
    Row { id: ExperimentId::Devices, cli_name: "devices", plan: devices::plan, check: devices::check },
    Row { id: ExperimentId::Profile, cli_name: "profile", plan: profile::plan, check: profile::check },
    Row { id: ExperimentId::AblTimer, cli_name: "timer", plan: ablations::timer_plan, check: ablations::timer_check },
    Row { id: ExperimentId::AblCap, cli_name: "cap", plan: ablations::cap_plan, check: ablations::cap_check },
    Row { id: ExperimentId::AblGovernor, cli_name: "governor", plan: ablations::governor_plan, check: ablations::governor_check },
    Row { id: ExperimentId::AblAqm, cli_name: "aqm", plan: ablations::aqm_plan, check: ablations::aqm_check },
    Row { id: ExperimentId::AblCompetition, cli_name: "competition", plan: ablations::competition_plan, check: ablations::competition_check },
    Row { id: ExperimentId::AblAcks, cli_name: "acks", plan: ablations::acks_plan, check: ablations::acks_check },
];

/// The ids of the `N` registry rows from row `start` on.
const fn ids<const N: usize>(start: usize) -> [ExperimentId; N] {
    let mut ids = [ExperimentId::Fig2; N];
    let mut i = 0;
    while i < N {
        ids[i] = REGISTRY[start + i].id;
        i += 1;
    }
    ids
}

impl ExperimentId {
    /// The scorecard — every paper artifact and extension, in paper order:
    /// what `repro --exp all` selects.
    pub const ALL: [ExperimentId; 19] = ids(0);

    /// The ablation studies (tables only, no shape checks): what
    /// `repro --exp ablations` selects.
    pub const ABLATIONS: [ExperimentId; 6] = ids(Self::ALL.len());

    fn row(self) -> Row {
        REGISTRY
            .into_iter()
            .find(|row| row.id == self)
            .expect("every id has a registry row")
    }

    /// The CLI name used by the `repro` binary (`--exp <name>`).
    pub fn cli_name(self) -> &'static str {
        self.row().cli_name
    }

    /// Parse a CLI name.
    pub fn from_cli_name(name: &str) -> Option<Self> {
        let row = REGISTRY.into_iter().find(|row| row.cli_name == name)?;
        Some(row.id)
    }

    /// The simulations this experiment reads, in the order its check reads
    /// them. Pure — the same `params` give the same cell keys — so it is
    /// the map from a scorecard number to the cells that produced it.
    pub fn plan(self, params: &Params) -> Vec<RunSpec> {
        (self.row().plan)(params)
    }

    /// Run this experiment alone: [`run_all`] over one id.
    ///
    /// Errors propagate from the sweep engine: [`sim_core::error::Error::Interrupted`]
    /// when a cancellation request (Ctrl-C) stopped the sweep mid-grid, or
    /// an I/O error from an unwritable checkpoint file.
    pub fn run(self, params: &Params) -> Result<Experiment, sim_core::error::Error> {
        let mut done = None;
        run_all(&[self], params, |exp| done = Some(exp))?;
        Ok(done.expect("one id in, one experiment out"))
    }
}

/// Run `ids` as one sweep: concatenate their plans, submit each distinct
/// (config, seed) cell once — fanned over `params.threads` workers, served
/// from the run cache when `params.cache_dir` is set — and `emit` each
/// experiment, in `ids` order, the moment its last cell is released.
///
/// On error (see [`ExperimentId::run`]) the experiments already emitted
/// stand; `Interrupted`'s counts cover the whole run.
pub fn run_all(
    ids: &[ExperimentId],
    params: &Params,
    mut emit: impl FnMut(Experiment),
) -> Result<(), sim_core::error::Error> {
    let plans: Vec<Vec<RunSpec>> = ids.iter().map(|id| id.plan(params)).collect();
    iperf::run_specs_sweep(&plans, &params.sweep_options(), |i, reports| {
        emit((ids[i].row().check)(params, &reports))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `id` at the smoke preset, for the experiment modules' unit tests.
    pub(crate) fn smoke(id: ExperimentId) -> Experiment {
        id.run(&Params::smoke()).expect("experiment completes")
    }

    #[test]
    fn cli_names_round_trip() {
        for row in REGISTRY {
            assert_eq!(row.id.cli_name(), row.cli_name);
            assert_eq!(ExperimentId::from_cli_name(row.cli_name), Some(row.id));
        }
        assert_eq!(ExperimentId::from_cli_name("nope"), None);
        // The group names `repro --exp` takes must not shadow a row.
        assert_eq!(ExperimentId::from_cli_name("all"), None);
        assert_eq!(ExperimentId::from_cli_name("ablations"), None);
    }

    /// Every registry row is two pure halves: planning twice names the same
    /// cells, and `check` over that plan's reports — here from the serial
    /// runner, no sweep engine involved — is the experiment `run` returns.
    #[test]
    fn every_row_plans_purely_and_checks_what_run_returns() {
        use sim_core::sweep::SweepCell;
        let params = Params::smoke();
        let cells = |plan: &[RunSpec]| -> Vec<(String, Vec<u8>)> {
            let cells = plan.iter().flat_map(RunSpec::cells);
            cells.map(|cell| (cell.label(), cell.key_bytes())).collect()
        };
        for row in REGISTRY {
            let name = row.cli_name;
            let plan = (row.plan)(&params);
            assert!(!plan.is_empty(), "{name}: an experiment reads something");
            assert_eq!(cells(&plan), cells(&(row.plan)(&params)), "{name}");
            let reports: Vec<RunReport> = plan.iter().map(iperf::run_averaged).collect();
            let checked = (row.check)(&params, &reports);
            let ran = row.id.run(&params).expect("uncancelled run completes");
            assert_eq!(
                serde_json::to_string(&checked).unwrap(),
                serde_json::to_string(&ran).unwrap(),
                "{name}"
            );
        }
    }

    #[test]
    fn all_covers_every_paper_artifact() {
        // Figures 2–9 and Table 2, plus §4.2, §5.1, §5.2.3, the §7
        // future-work extensions (fairness, fleet, 5G, memory,
        // auto-stride, devices), and the cycle-attribution profile:
        // 19 experiments. The ablation studies are the rest of the registry.
        assert_eq!(ExperimentId::ALL.len(), 19);
        let listed = ExperimentId::ALL.len() + ExperimentId::ABLATIONS.len();
        assert_eq!(listed, REGISTRY.len());
    }
}
