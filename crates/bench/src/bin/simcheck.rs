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
//! Every mode checks scenarios as cells of the one fuzz sweep, keyed by
//! their specs (a `--mutant-check` spec names its mutant, so its printed
//! repro replays it), so `--jobs`, the cache and cancellation cover all
//! three. Without `--cache-dir PATH` nothing is cached; with it, every
//! verdict is kept under `PATH/<fingerprint>/` (a hash of the model's
//! source and features) and a rerun is served from it. That also makes
//! long campaigns resumable: Ctrl-C drains in-flight scenarios and exits
//! 130, and rerunning the same command prints byte-identical output.
//!
//! Exit codes: 0 all invariants hold; 1 at least one violation (or an
//! escaped mutant); 2 usage error; 130 interrupted (Ctrl-C).

use mobile_bbr_bench::simcheck::{fuzz, mutant_check, Corpus, FuzzOptions, Scenario};
use mobile_bbr_bench::SweepFlags;
use sim_core::sweep::SweepOptions;
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
           --scenario SPEC      replay one 'k=v,...' spec instead of fuzzing (a\n\
                                'mutant=NAME' key needs a simcheck-mutants build)\n\
           --mutant-check       verify each tcp_sim::mutants mutation is caught\n\
                                (needs a --features simcheck-mutants build)\n\
           --no-corpus-append   report failures without persisting them to the corpus\n\
           --cache-dir PATH     keep verdicts under PATH/<model fingerprint>; a rerun\n\
                                (or an interrupted campaign's rerun) is served from it\n\
           --no-cache           run without a cache (the default)\n\
           --max-inflight N     bound buffered-but-unreleased verdicts (0 = auto)\n\
           --cancel-after N     deterministic test hook: interrupt after N cells\n\
           --progress           per-scenario progress on stderr"
    );
}

fn fail(msg: &str) -> ! {
    eprintln!("simcheck: {msg}");
    std::process::exit(2);
}

/// Run `f` on the sweep the flags select (printing its cache directory
/// under `--progress`); on an error, report it, with the resume hint if
/// the sweep was interrupted, and exit with its code.
fn in_sweep<T>(args: &Args, f: impl FnOnce(SweepOptions) -> Result<T, sim_core::Error>) -> T {
    let cache_dir = args.sweep.resolve_cache(None);
    if let (true, Some(dir)) = (args.sweep.progress, &cache_dir) {
        eprintln!("cache: {}", dir.display());
    }
    f(SweepOptions {
        jobs: args.sweep.jobs.unwrap_or(1),
        cache_dir: cache_dir.clone(),
        progress: args.sweep.progress,
        max_inflight: args.sweep.max_inflight,
        cancel_after: args.sweep.cancel_after,
        ..SweepOptions::default()
    })
    .unwrap_or_else(|e| {
        eprintln!("simcheck: {e}");
        if matches!(e, sim_core::Error::Interrupted { .. }) {
            eprintln!("{}", mobile_bbr_bench::interrupt_hint(cache_dir.as_deref()));
        }
        std::process::exit(e.exit_code())
    })
}

/// Replay one spec through every oracle, as a one-entry corpus; print
/// the verdict.
fn run_single(args: &Args, spec: &str) -> i32 {
    let scenario = Scenario::parse(spec).unwrap_or_else(|e| fail(&format!("bad --scenario: {e}")));
    let corpus = vec![scenario.clone()];
    let failures = in_sweep(args, |sweep| {
        fuzz(&FuzzOptions {
            corpus,
            sweep,
            ..FuzzOptions::default()
        })
    })
    .corpus_failures;
    let verdict = if failures.is_empty() { "PASS" } else { "FAIL" };
    println!("{verdict} {}", scenario.spec_string());
    for v in failures.iter().flat_map(|(_, violations)| violations) {
        println!("  {v}");
    }
    i32::from(!failures.is_empty())
}

/// Verify every intentional mutation is caught by at least one oracle.
fn run_mutant_check(args: &Args) -> i32 {
    let reports = in_sweep(args, |sweep| mutant_check(args.budget, args.seed, &sweep));
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
    i32::from(escaped > 0)
}

/// Corpus regression + random fuzzing, as one sweep.
fn run_fuzz(args: &Args) -> i32 {
    let mut corpus = match Corpus::load(&args.corpus) {
        Ok(c) => c,
        Err(e) => fail(&format!(
            "cannot read corpus {}: {e}",
            args.corpus.display()
        )),
    };
    let entries: Vec<Scenario> = corpus
        .entries
        .iter()
        .map(|line| {
            Scenario::parse(line).unwrap_or_else(|e| fail(&format!("corpus entry '{line}': {e}")))
        })
        .collect();

    let outcome = in_sweep(args, |sweep| {
        fuzz(&FuzzOptions {
            budget: args.budget,
            seed: args.seed,
            corpus: entries,
            failure_dir: Some(args.failure_dir.clone()),
            sweep,
        })
    });
    let mut violations_total = 0u64;
    // Corpus entries are printed as written: each is already a repro.
    for (i, violations) in &outcome.corpus_failures {
        violations_total += violations.len() as u64;
        println!("FAIL corpus {}", corpus.entries[*i]);
        for v in violations {
            println!("  {v}");
        }
    }
    if args.sweep.progress {
        eprintln!("corpus: {} entr(ies) replayed", corpus.entries.len());
    }
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
        args.budget,
        violations_total,
        args.seed
    );
    i32::from(violations_total > 0)
}

fn main() {
    mobile_bbr_bench::cancel::install_sigint_handler();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => fail(&e),
    };
    let code = if let Some(spec) = &args.scenario {
        run_single(&args, spec)
    } else if args.mutant_check {
        run_mutant_check(&args)
    } else {
        run_fuzz(&args)
    };
    if args.sweep.progress {
        eprintln!("{}", sim_core::sweep::totals().summary_line());
    }
    std::process::exit(code);
}
