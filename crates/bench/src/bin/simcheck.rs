//! Deterministic scenario fuzzer for the whole simulator.
//!
//! ```bash
//! simcheck                                  # corpus regression + 200 random scenarios
//! simcheck --budget 500 --seed 1 --jobs 4   # bigger batch, bit-identical to --jobs 1
//! simcheck --scenario 'cc=bbr,conns=3'      # replay one spec through every oracle
//! simcheck --mutant-check --budget 120      # prove each intentional mutation is caught
//! ```
//!
//! Every failure is shrunk to a minimal spec, printed as a one-line repro
//! (`simcheck --scenario '<spec>'`), appended to the checked-in corpus at
//! `tests/simcheck_corpus.txt`, and its flight-recorder trace is written
//! under `--failure-dir` as a Chrome trace (`simcheck-<key>.json`, load it
//! in Perfetto).
//!
//! Long campaigns are interruptible and resumable: `--checkpoint PATH`
//! records every scenario verdict (atomic tmp+rename envelope), Ctrl-C
//! drains in-flight scenarios, finalizes the checkpoint, and exits 130;
//! rerunning with `--checkpoint PATH --resume` replays recorded verdicts
//! and produces byte-identical output. Without `--resume`, an existing
//! checkpoint file is discarded and the campaign starts fresh.
//!
//! Exit codes: 0 all invariants hold; 1 at least one violation (or an
//! escaped mutant); 2 usage error; 130 interrupted (Ctrl-C).

use mobile_bbr_bench::simcheck::{check_scenario, fuzz, mutant_check, FuzzOptions, Scenario};
use mobile_bbr_bench::SweepFlags;
use sim_core::check::Corpus;
use std::path::PathBuf;

struct Args {
    budget: u64,
    seed: u64,
    corpus: PathBuf,
    failure_dir: PathBuf,
    scenario: Option<String>,
    mutant_check: bool,
    no_corpus_append: bool,
    sweep: SweepFlags,
}

fn parse_args() -> Result<Args, String> {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        budget: 200,
        seed: 1,
        corpus: PathBuf::from("tests/simcheck_corpus.txt"),
        failure_dir: PathBuf::from("target/simcheck-failures"),
        scenario: None,
        mutant_check: false,
        no_corpus_append: false,
        sweep: mobile_bbr_bench::sweep_flags(&mut argv)?,
    };
    let mut rest = argv.into_iter();
    while let Some(arg) = rest.next() {
        let mut value = |what: &str| rest.next().ok_or_else(|| format!("{arg} needs {what}"));
        match arg.as_str() {
            "--budget" => {
                let n = value("a value")?;
                args.budget = n.parse().map_err(|e| format!("bad --budget: {e}"))?;
            }
            "--seed" => {
                let n = value("a value")?;
                args.seed = n.parse().map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--corpus" => args.corpus = PathBuf::from(value("a path")?),
            "--failure-dir" => args.failure_dir = PathBuf::from(value("a path")?),
            "--scenario" => args.scenario = Some(value("a spec")?),
            "--mutant-check" => args.mutant_check = true,
            "--no-corpus-append" => args.no_corpus_append = true,
            "--help" | "-h" => {
                print_usage();
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument '{other}' (see --help)")),
        }
    }
    Ok(args)
}

fn print_usage() {
    println!(
        "simcheck: deterministic scenario fuzzer with invariant oracles\n\
         \n\
         USAGE: simcheck [OPTIONS]\n\
         \n\
         OPTIONS:\n\
           --budget N           random scenarios to run (default 200)\n\
           --seed N             root seed for the scenario stream (default 1)\n\
           --jobs N             worker threads; output is bit-identical for any N (default 1)\n\
           --corpus PATH        seed corpus to replay first (default tests/simcheck_corpus.txt)\n\
           --failure-dir PATH   where failure traces go, as Chrome trace JSON for Perfetto\n\
                                (default target/simcheck-failures)\n\
           --scenario SPEC      replay one 'k=v,...' spec instead of fuzzing\n\
           --mutant-check       verify each tcp_sim::mutants mutation is caught\n\
                                (needs a --features simcheck-mutants build)\n\
           --no-corpus-append   report failures without persisting them to the corpus\n\
           --checkpoint PATH    record scenario verdicts for interrupt/resume\n\
           --resume             resume from an existing --checkpoint file\n\
           --max-inflight N     bound buffered-but-unreleased verdicts (0 = auto)\n\
           --cancel-after N     deterministic test hook: interrupt after N cells\n\
           --progress           per-scenario progress on stderr"
    );
}

fn fail(msg: &str) -> ! {
    eprintln!("simcheck: {msg}");
    std::process::exit(2);
}

/// Replay one spec through every oracle; print verdict.
fn run_single(spec: &str) -> i32 {
    let scenario = match Scenario::parse(spec) {
        Ok(s) => s,
        Err(e) => fail(&format!("bad --scenario: {e}")),
    };
    let violations = check_scenario(&scenario);
    if violations.is_empty() {
        println!("PASS {}", scenario.spec_string());
        0
    } else {
        println!("FAIL {}", scenario.spec_string());
        for v in &violations {
            println!("  {v}");
        }
        1
    }
}

/// Verify every intentional mutation is caught by at least one oracle.
fn run_mutant_check(args: &Args) -> i32 {
    let reports = match mutant_check(args.budget, args.seed) {
        Ok(r) => r,
        Err(e) => fail(&e),
    };
    let mut escaped = 0;
    for r in &reports {
        match &r.caught {
            Some((shrunk, violations)) => {
                println!(
                    "CAUGHT {} after {} scenario(s) by [{}]",
                    r.mutant,
                    r.tried,
                    violations
                        .iter()
                        .map(|v| v.oracle)
                        .collect::<Vec<_>>()
                        .join(", ")
                );
                println!("  repro: simcheck --scenario '{}'", shrunk.spec_string());
            }
            None => {
                escaped += 1;
                println!("ESCAPED {} survived {} scenario(s)", r.mutant, r.tried);
            }
        }
    }
    println!(
        "mutant-check: {}/{} mutations caught",
        reports.len() - escaped,
        reports.len()
    );
    if escaped == 0 {
        0
    } else {
        1
    }
}

/// Corpus regression + random fuzzing.
fn run_fuzz(args: &Args) -> i32 {
    let mut corpus = match Corpus::load(&args.corpus) {
        Ok(c) => c,
        Err(e) => fail(&format!(
            "cannot read corpus {}: {e}",
            args.corpus.display()
        )),
    };

    // Phase 1: replay every corpus entry (permanent regression tests).
    let mut violations_total = 0u64;
    for line in corpus.entries.clone() {
        let scenario = match Scenario::parse(&line) {
            Ok(s) => s,
            Err(e) => fail(&format!("corpus entry '{line}': {e}")),
        };
        let violations = check_scenario(&scenario);
        if !violations.is_empty() {
            violations_total += violations.len() as u64;
            println!("FAIL corpus {line}");
            for v in &violations {
                println!("  {v}");
            }
        }
    }
    if args.sweep.progress {
        eprintln!("corpus: {} entr(ies) replayed", corpus.entries.len());
    }

    // Phase 2: the random budget, fanned across --jobs workers.
    let outcome = match fuzz(&FuzzOptions {
        budget: args.budget,
        seed: args.seed,
        jobs: args.sweep.jobs.unwrap_or(1),
        failure_dir: Some(args.failure_dir.clone()),
        progress: args.sweep.progress,
        checkpoint: args.sweep.checkpoint.clone(),
        max_inflight: args.sweep.max_inflight,
        cancel_after: args.sweep.cancel_after,
    }) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("simcheck: {e}");
            if matches!(e, sim_core::Error::Interrupted { .. }) {
                if let Some(path) = &args.sweep.checkpoint {
                    eprintln!(
                        "checkpoint finalized at {}; rerun with `--checkpoint {} --resume` to continue",
                        path.display(),
                        path.display()
                    );
                } else {
                    eprintln!("hint: rerun with `--checkpoint PATH` to make campaigns resumable");
                }
            }
            std::process::exit(e.exit_code());
        }
    };
    for f in &outcome.failures {
        violations_total += f.violations.len() as u64;
        println!("FAIL scenario #{}: {}", f.index, f.scenario.spec_string());
        for v in &f.violations {
            println!("  {v}");
        }
        println!("  repro: simcheck --scenario '{}'", f.shrunk.spec_string());
        if let Some(path) = &f.trace_path {
            println!("  trace: {}", path.display());
        }
        if !args.no_corpus_append {
            match corpus.append(&f.shrunk.spec_string()) {
                Ok(true) => println!("  corpus: added to {}", args.corpus.display()),
                Ok(false) => {}
                Err(e) => eprintln!("simcheck: corpus append failed: {e}"),
            }
        }
    }
    // NB: stdout must stay bit-identical for any --jobs value, so the
    // worker count is reported on stderr only (with --progress).
    if args.sweep.progress {
        eprintln!("jobs: {}", args.sweep.jobs.unwrap_or(1));
    }
    println!(
        "simcheck: {} corpus + {} random scenarios, {} violation(s), seed {}",
        corpus.entries.len(),
        outcome.scenarios,
        violations_total,
        args.seed
    );
    if violations_total == 0 {
        0
    } else {
        1
    }
}

fn main() {
    mobile_bbr_bench::cancel::install_sigint_handler();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => fail(&e),
    };
    // A fresh (non-`--resume`) campaign must not replay a stale checkpoint.
    if let Some(path) = &args.sweep.checkpoint {
        if !args.sweep.resume && path.exists() {
            if let Err(e) = std::fs::remove_file(path) {
                fail(&format!(
                    "cannot discard stale checkpoint {}: {e}",
                    path.display()
                ));
            }
        }
    }
    let code = if let Some(spec) = &args.scenario {
        run_single(spec)
    } else if args.mutant_check {
        run_mutant_check(&args)
    } else {
        run_fuzz(&args)
    };
    std::process::exit(code);
}
