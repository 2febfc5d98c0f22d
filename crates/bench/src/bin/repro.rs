//! Regenerate the paper's figures and tables.
//!
//! ```bash
//! repro --exp all                 # every experiment, full parameters
//! repro --exp fig2 --quick       # one experiment, fast parameters
//! repro --exp all --jobs 8       # sweep cells across 8 workers
//! repro --exp all --no-cache     # force recomputation of every cell
//! repro --exp all --markdown out.md --json out.json
//! repro --exp ablations          # the six design-choice studies
//! repro --exp timer --seeds 3    # one of them
//! ```
//!
//! The selected experiments execute as **one** sweep on the
//! `sim_core::sweep` engine (`experiments::run_all`): a (config, seed)
//! cell is simulated once however many experiments read it, and each
//! experiment prints the moment its last cell is out. `--jobs N` fans the
//! cells across N workers with bit-identical output to `--jobs 1`, and
//! finished cells are cached content-addressed under `target/sweep-cache`
//! (disable with `--no-cache`, relocate with `--cache-dir`). `--progress`
//! prints a per-cell completion line (one `[k/n]` counter and ETA for the
//! run) with its wall time and cache status, plus a final one-line
//! cache/pool-health summary.
//!
//! Long runs are interruptible and resumable: `--checkpoint PATH` appends
//! every finished cell to PATH as a checksummed record, Ctrl-C drains the
//! in-flight cells, finalizes the checkpoint,
//! and exits 130; rerunning with `--checkpoint PATH --resume` replays the
//! recorded cells and produces a byte-identical scorecard. Without
//! `--resume` an existing checkpoint is discarded and the run starts
//! fresh. `--max-inflight N` bounds buffered-but-unreleased cells (memory
//! stays flat in grid size); `--cancel-after N` is a deterministic
//! test hook that interrupts after N released cells, counted over the run.
//!
//! `--observe DIR` switches to observe mode: instead of running
//! experiments, it simulates the canonical Low-End / 20-connection BBR run
//! once with tracing and telemetry on, plus the Fig. 2 / Fig. 7 grids and
//! the canonical fleet, and writes under DIR the Chrome trace
//! (`trace.json`, load it in Perfetto or `chrome://tracing`), the flight
//! data (`flight.jsonl`, `flows.csv`, `queue.csv`) and one self-contained
//! `report.html` (inline SVG, no JavaScript, no network). It prints the
//! trace's per-kind census, the exact per-category cycle ranking and a
//! per-connection table. Output is byte-identical at any `--jobs N`:
//!
//! ```bash
//! cargo run --release -p mobile-bbr-bench --bin repro -- \
//!     --observe out/observe --quick --jobs 4
//! ```

use experiments::{Experiment, ExperimentId, Params};

struct Args {
    exps: Vec<ExperimentId>,
    params: Params,
    resume: bool,
    markdown: Option<String>,
    json: Option<String>,
    csv: Option<String>,
    observe: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut exps = Vec::new();
    let mut params = Params::full();
    let mut markdown = None;
    let mut json = None;
    let mut csv = None;
    let mut seeds: Option<u64> = None;
    let mut observe: Option<String> = None;
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let sweep = mobile_bbr_bench::sweep_flags(&mut argv)?;
    let mut args = argv.into_iter();
    while let Some(arg) = args.next() {
        let mut value = |what: &str| args.next().ok_or_else(|| format!("{arg} needs {what}"));
        match arg.as_str() {
            "--exp" => match value("a value")?.as_str() {
                "all" => exps.extend(ExperimentId::ALL),
                "ablations" => exps.extend(ExperimentId::ABLATIONS),
                name => exps.push(ExperimentId::from_cli_name(name).ok_or_else(|| {
                    format!(
                        "unknown experiment '{name}'; known: all, {}, ablations, {}",
                        ExperimentId::ALL.map(|e| e.cli_name()).join(", "),
                        ExperimentId::ABLATIONS.map(|e| e.cli_name()).join(", ")
                    )
                })?),
            },
            "--quick" => params = Params::quick(),
            "--smoke" => params = Params::smoke(),
            "--seeds" => {
                let n = value("a value")?;
                seeds = Some(n.parse().map_err(|e| format!("bad --seeds: {e}"))?);
                if seeds == Some(0) {
                    return Err("--seeds must be at least 1".into());
                }
            }
            "--markdown" => markdown = Some(value("a path")?),
            "--json" => json = Some(value("a path")?),
            "--csv" => csv = Some(value("a path")?),
            "--observe" => observe = Some(value("a directory")?),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }

    // `--observe` is a mode of its own: it runs no experiments and writes
    // no scorecard, so a flag that asks for either would be silently
    // dropped. Refuse it by name instead.
    if observe.is_some() {
        let mut ignored = Vec::new();
        for (flag, given) in [
            ("--exp", !exps.is_empty()),
            ("--json", json.is_some()),
            ("--markdown", markdown.is_some()),
            ("--csv", csv.is_some()),
            ("--checkpoint", sweep.checkpoint.is_some()),
        ] {
            if given {
                ignored.push(flag);
            }
        }
        if !ignored.is_empty() {
            return Err(format!(
                "--observe is a mode of its own and would ignore {}",
                ignored.join(", ")
            ));
        }
    }

    if exps.is_empty() {
        exps.extend(ExperimentId::ALL);
    }
    // The selection is a set, in first-mention order.
    let mut seen = std::collections::HashSet::new();
    exps.retain(|id| seen.insert(*id));
    // Knobs land after preset selection so they override it.
    if let Some(n) = seeds {
        params.seeds = n;
    }
    let resume = sweep.resume;
    sweep.apply(&mut params);
    Ok(Args {
        exps,
        params,
        resume,
        markdown,
        json,
        csv,
        observe,
    })
}

/// Observe mode: the canonical run's trace, flight data and report under
/// `dir`, and its summary tables on stdout.
fn observe(params: &Params, dir: &str) -> Result<(), sim_core::Error> {
    let obs = experiments::report::generate(params, std::path::Path::new(dir))?;
    println!("{}", obs.summary);
    for path in obs.files() {
        println!("wrote {}", path.display());
    }
    println!(
        "open {} in a browser (fully offline: inline SVG, no scripts); load {} in Perfetto or chrome://tracing",
        obs.html.display(),
        obs.trace_json.display()
    );
    Ok(())
}

fn main() {
    mobile_bbr_bench::cancel::install_sigint_handler();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            let e = sim_core::Error::Cli(e);
            eprintln!("error: {e}");
            eprintln!("usage: repro [--exp <name|all|ablations>]... [--quick|--smoke] [--seeds N] [--jobs N] [--no-cache] [--cache-dir PATH] [--progress] [--checkpoint PATH [--resume]] [--max-inflight N] [--cancel-after N] [--markdown PATH] [--json PATH] [--csv PATH] [--observe DIR]");
            std::process::exit(e.exit_code());
        }
    };

    if let Some(dir) = &args.observe {
        if let Err(e) = observe(&args.params, dir) {
            eprintln!("error: {e}");
            std::process::exit(e.exit_code());
        }
        return;
    }

    // A fresh (non-`--resume`) run must not replay a stale checkpoint.
    if let Some(path) = &args.params.checkpoint {
        if !args.resume && path.exists() {
            if let Err(e) = std::fs::remove_file(path) {
                let e =
                    sim_core::Error::io(format!("discard stale checkpoint {}", path.display()), e);
                eprintln!("error: {e}");
                std::process::exit(e.exit_code());
            }
        }
    }

    match run_experiments(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("error: {e}");
            if matches!(e, sim_core::Error::Interrupted { .. }) {
                if let Some(path) = &args.params.checkpoint {
                    eprintln!(
                        "checkpoint finalized at {}; rerun with `--checkpoint {} --resume` to continue where this run stopped",
                        path.display(),
                        path.display()
                    );
                } else {
                    eprintln!("hint: rerun with `--checkpoint PATH` to make long runs resumable");
                }
            }
            std::process::exit(e.exit_code());
        }
    }
}

/// Run the selected experiments and emit reports. Returns whether every
/// shape check passed; all failures (cancellation, checkpoint/output
/// I/O) flow to `main`'s single exit-code edge as `sim_core::Error`.
fn run_experiments(args: &Args) -> Result<bool, sim_core::Error> {
    let mut done: Vec<Experiment> = Vec::new();
    let t0 = std::time::Instant::now();
    experiments::run_all(&args.exps, &args.params, |exp| {
        println!("{}\n", exp.render_text());
        done.push(exp);
    })?;

    let card = experiments::Scorecard::tally(&done);
    println!("{} ({:.1?} total)", card.banner(), t0.elapsed());
    if args.params.progress {
        eprintln!("{}", sim_core::sweep::totals().summary_line());
    }

    if let Some(path) = &args.markdown {
        let md = experiments::summary::render_markdown(&done);
        std::fs::write(path, &md).map_err(|e| sim_core::Error::io(format!("write {path}"), e))?;
        println!("wrote {path}");
    }
    if let Some(path) = &args.csv {
        // Flatten every experiment's table into one tidy CSV: one row per
        // table row, prefixed by the experiment id and its column name.
        let mut out = String::from("experiment,row,column,value\n");
        for exp in &done {
            for ri in 0..exp.table.rows.len() {
                for (ci, header) in exp.table.headers.iter().enumerate() {
                    if let Some(v) = exp.table.num_at(ri, ci) {
                        out.push_str(&format!(
                            "{},{},{},{v}\n",
                            exp.id,
                            ri,
                            header.replace(',', ";")
                        ));
                    }
                }
            }
        }
        std::fs::write(path, out).map_err(|e| sim_core::Error::io(format!("write {path}"), e))?;
        println!("wrote {path}");
    }
    if let Some(path) = &args.json {
        std::fs::write(path, mobile_bbr_bench::to_json(&done))
            .map_err(|e| sim_core::Error::io(format!("write {path}"), e))?;
        println!("wrote {path}");
    }
    Ok(card.all_pass())
}
