//! # mobile-bbr-bench
//!
//! The command-line front ends of the reproduction. Four binaries (host
//! time is measured by the standalone `benchmark/` package, not here):
//!
//! * **`repro`** — regenerates every figure and table of the paper:
//!   `cargo run --release -p mobile-bbr-bench --bin repro -- --exp all`.
//!   Prints each experiment's measurement table and its shape-check
//!   scorecard, and can emit Markdown/JSON for EXPERIMENTS.md.
//! * **`ablations`** — the design-choice studies DESIGN.md calls out:
//!   timer-cost sweep (how cheap must hrtimers get before the stride stops
//!   mattering — the §7.1.4 hardware-pacing question), socket-buffer-cap
//!   sweep (Table 2's plateau position), and governor comparison.
//! * **`trace`** — the flight-recorder inspector: validates a recorded
//!   JSONL trace and summarises it (`inspect`, `top`, `flows`).
//! * **`simcheck`** — the deterministic scenario fuzzer: draws whole
//!   configurations, runs them through [`simcheck`]'s invariant-oracle
//!   library, shrinks failures to one-line repros, and (with the
//!   `simcheck-mutants` feature) proves each intentional mutation in
//!   `tcp_sim::mutants` is caught.

#![warn(missing_docs)]

pub mod cancel;
pub mod simcheck;

use experiments::{Experiment, ExperimentId, Params};

/// Run one experiment and return it with (text, markdown) renderings.
pub fn run_and_render(
    id: ExperimentId,
    params: &Params,
) -> Result<(Experiment, String, String), sim_core::Error> {
    let exp = id.run(params)?;
    let text = exp.render_text();
    let md = exp.render_markdown();
    Ok((exp, text, md))
}

/// Serialize experiments to a JSON document (for machine consumption).
pub fn to_json(experiments: &[Experiment]) -> String {
    serde_json::to_string_pretty(experiments).expect("experiments serialize")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_pipeline_works() {
        let (exp, text, md) =
            run_and_render(ExperimentId::Fig9, &Params::smoke()).expect("fig9 completes");
        assert!(text.contains("FIG9"));
        assert!(md.contains("### FIG9"));
        let json = to_json(&[exp]);
        assert!(json.contains("\"id\""));
    }
}
