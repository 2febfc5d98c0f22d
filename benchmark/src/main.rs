//! The repo benchmark. See `README.md` for the protocol and
//! `../BENCHMARK.json` for the declared workloads and metrics.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1   one workload (the driver's contract)
//! benchmark --all [--seed N] [--reps N] [--smoke]            every workload, interleaved
//! benchmark --one-pass W --seed N [--cache-dir DIR]          peak-RSS child: one pass, prints VmHWM
//! ```

mod kernels;
mod layers;
mod reference;
mod spans;
mod stats;
mod workloads;

use reference::Reference;
use serde::Value;
use spans::Tracer;
use std::path::{Path, PathBuf};
use std::time::Instant;
use workloads::{Inputs, Workload};

/// Fewest timed passes a run makes.
const MIN_REPS: usize = 7;
/// Set-ups an untraced run times (`--smoke` and traced runs set up once).
const SETUPS: usize = 2;
/// Timed passes of `--all` when `--reps` is not given.
const DEFAULT_REPS: usize = 9;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    /// Measure for at least this long (and at least [`MIN_REPS`] passes)…
    seconds: f64,
    /// …unless an exact pass count is given.
    reps: Option<usize>,
    trace: bool,
    untraced: bool,
    smoke: bool,
    one_pass: bool,
    cache_dir: Option<PathBuf>,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: 0.0,
        reps: None,
        trace: false,
        untraced: true,
        smoke: false,
        one_pass: false,
        cache_dir: None,
        out: PathBuf::from("benchmark/out"),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: usize| -> Result<&String, String> {
        argv.get(i + 1)
            .ok_or_else(|| format!("{} needs a value", argv[i]))
    };
    let workload = |name: &str| {
        Workload::from_name(name).ok_or_else(|| {
            let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            format!("unknown workload '{name}'; known: {}", known.join(", "))
        })
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--workload" => a.workloads = vec![workload(value(i)?)?],
            "--one-pass" => {
                a.workloads = vec![workload(value(i)?)?];
                a.one_pass = true;
            }
            "--all" => {
                a.workloads = Workload::ALL.to_vec();
                a.trace = true;
                a.reps.get_or_insert(DEFAULT_REPS);
                i += 1;
                continue;
            }
            "--smoke" => {
                a.smoke = true;
                a.trace = false;
                a.reps = Some(1);
                i += 1;
                continue;
            }
            "--seed" => a.seed = value(i)?.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => {
                a.seconds = value(i)?
                    .parse()
                    .map_err(|e| format!("bad --seconds: {e}"))?
            }
            "--reps" => a.reps = Some(value(i)?.parse().map_err(|e| format!("bad --reps: {e}"))?),
            "--trace" => match value(i)?.as_str() {
                // The contract's two modes: end-to-end metrics only, or
                // per-layer metrics only.
                "0" => (a.trace, a.untraced) = (false, true),
                "1" => (a.trace, a.untraced) = (true, false),
                other => return Err(format!("--trace takes 0 or 1, got '{other}'")),
            },
            "--cache-dir" => a.cache_dir = Some(PathBuf::from(value(i)?)),
            "--out" => a.out = PathBuf::from(value(i)?),
            other => return Err(format!("unknown flag '{other}'")),
        }
        i += 2;
    }
    if a.workloads.is_empty() {
        return Err("give --workload NAME or --all".into());
    }
    if a.reps == Some(0) {
        return Err("--reps must be at least 1".into());
    }
    Ok(a)
}

/// Peak resident set size of this process (`VmHWM`), KiB.
fn vm_hwm_kib() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

/// `--one-pass`: run exactly one pass and report this process's peak RSS,
/// so the parent's own high-water mark never contaminates a workload.
fn one_pass(args: &Args) -> Result<(), String> {
    let w = args.workloads[0];
    let inputs = workloads::generate(
        w,
        args.seed,
        args.cache_dir.as_deref(),
        args.smoke,
        &Tracer::disabled(),
    )?;
    let out = workloads::run_pass(&inputs, &Tracer::disabled())?;
    println!("{} {}", vm_hwm_kib()?, out.digest);
    Ok(())
}

/// One workload's state across set-up, timed passes and reporting.
struct Bench {
    workload: Workload,
    inputs: Inputs,
    cache_dir: Option<PathBuf>,
    /// Digest of the warm-up pass; every later pass must reproduce it.
    digest: u64,
    /// Seconds of each set-up, corrected for the host's speed.
    setups: Vec<f64>,
    /// Seconds of each timed pass, as timed and corrected.
    host_walls: Vec<f64>,
    walls: Vec<f64>,
    attempted: u64,
    failures: Vec<String>,
}

impl Bench {
    /// One set-up from scratch: generate the inputs and run the warm-up pass
    /// (for a cache-reading workload, the pass that fills the cold cache).
    fn set_up_once(
        w: Workload,
        args: &Args,
        cache_dir: Option<&Path>,
        tracer: &Tracer,
        reference: &mut Reference,
    ) -> Result<(Inputs, workloads::PassOutput, f64), String> {
        let (made, timed) = reference.time(|| {
            if let Some(dir) = cache_dir {
                // A stale directory would make the "cold" fill warm.
                let _ = std::fs::remove_dir_all(dir);
            }
            let inputs = workloads::generate(w, args.seed, cache_dir, args.smoke, tracer)?;
            let warm = workloads::run_pass(&inputs, tracer)?;
            Ok::<_, String>((inputs, warm))
        });
        let (inputs, warm) = made?;
        Ok((inputs, warm, timed.corrected_s))
    }

    /// Set up `times` over, from scratch each time.
    fn set_up(
        w: Workload,
        args: &Args,
        tracer: &Tracer,
        times: usize,
        reference: &mut Reference,
    ) -> Result<Bench, String> {
        let cache_dir = w
            .uses_cache()
            .then(|| args.out.join(format!("cache-{}", std::process::id())));
        let (inputs, warm, setup_s) =
            Self::set_up_once(w, args, cache_dir.as_deref(), tracer, reference)?;
        let mut bench = Bench {
            workload: w,
            inputs,
            cache_dir,
            digest: warm.digest,
            setups: vec![setup_s],
            host_walls: Vec::new(),
            walls: Vec::new(),
            attempted: warm.attempted,
            failures: warm.failures,
        };
        for _ in 1..times {
            let (inputs, warm, setup_s) =
                Self::set_up_once(w, args, bench.cache_dir.as_deref(), tracer, reference)?;
            bench.inputs = inputs;
            bench.setups.push(setup_s);
            bench.absorb("set-up pass", warm);
        }
        Ok(bench)
    }

    /// Fold one pass's checks in, plus the digest-repeats check.
    fn absorb(&mut self, what: &str, out: workloads::PassOutput) {
        self.attempted += out.attempted + 1;
        self.failures.extend(out.failures);
        if out.digest != self.digest {
            self.failures.push(format!(
                "{what}: result digest {:016x} differs from the warm-up pass's {:016x}",
                out.digest, self.digest
            ));
        }
    }

    fn timed_pass(&mut self, tracer: &Tracer) -> Result<f64, String> {
        let t0 = Instant::now();
        let out = workloads::run_pass(&self.inputs, tracer)?;
        let wall = t0.elapsed().as_secs_f64();
        self.absorb("timed pass", out);
        Ok(wall)
    }

    /// The scorecard at two sweep workers must digest as at one.
    fn check_two_workers(&mut self) -> Result<(), String> {
        let Inputs::Experiments {
            order,
            params,
            rounds,
        } = &self.inputs
        else {
            return Ok(());
        };
        if params.cache_dir.is_some() {
            return Ok(());
        }
        let mut params = params.clone();
        params.threads = 2;
        let two = Inputs::Experiments {
            order: order.clone(),
            params,
            rounds: *rounds,
        };
        let out = workloads::run_pass(&two, &Tracer::disabled())?;
        self.absorb("2-worker pass", out);
        Ok(())
    }

    /// Peak RSS, MiB, of a child process that runs exactly one pass.
    fn peak_rss_mb(&mut self, args: &Args) -> Result<f64, String> {
        let exe = std::env::current_exe().map_err(|e| format!("locate own binary: {e}"))?;
        // Peak RSS depends on allocation history, so the probe always runs
        // one fixed order: the number then tracks the code, not the shuffle
        // (the scorecard's peak moved 13.2–15.0 MiB across seeded orders).
        let mut cmd = std::process::Command::new(exe);
        cmd.args(["--one-pass", self.workload.name(), "--seed", "0"]);
        if args.smoke {
            cmd.arg("--smoke");
        }
        if let Some(dir) = &self.cache_dir {
            cmd.arg("--cache-dir").arg(dir);
        }
        let out = cmd.output().map_err(|e| format!("spawn RSS child: {e}"))?;
        if !out.status.success() {
            return Err(format!(
                "RSS child failed: {}",
                String::from_utf8_lossy(&out.stderr).trim()
            ));
        }
        let text = String::from_utf8_lossy(&out.stdout);
        let mut words = text.split_whitespace();
        let kib: u64 = words
            .next()
            .and_then(|w| w.parse().ok())
            .ok_or("RSS child printed no VmHWM")?;
        let digest: u64 = words
            .next()
            .and_then(|w| w.parse().ok())
            .ok_or("RSS child printed no digest")?;
        self.absorb(
            "RSS child",
            workloads::PassOutput {
                digest,
                ..Default::default()
            },
        );
        Ok(kib as f64 / 1024.0)
    }
}

impl Drop for Bench {
    /// The run cache is scratch: remove it however the run ends.
    fn drop(&mut self) {
        if let Some(dir) = &self.cache_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// A named measurement.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The contract's result object for one workload.
fn result_json(bench: &Bench, metrics: &[Metric]) -> Value {
    let failed = bench.failures.len() as u64;
    Value::Object(vec![
        ("correct".into(), Value::Bool(failed == 0)),
        ("attempted".into(), Value::UInt(bench.attempted.max(1))),
        ("failed".into(), Value::UInt(failed)),
        (
            "metrics".into(),
            Value::Object(
                metrics
                    .iter()
                    .map(|m| {
                        (
                            m.name.to_string(),
                            Value::Object(vec![
                                ("value".into(), Value::Float(m.value)),
                                ("unit".into(), Value::Str(m.unit.into())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

fn print_metrics(bench: &Bench, title: &str, metrics: &[Metric]) {
    println!(
        "== {} — {title} (result_digest {:016x}) ==",
        bench.workload.name(),
        bench.digest
    );
    for m in metrics {
        println!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

/// Untraced measurement of `benches`: timed passes interleaved round-robin
/// across workloads, so a slow host phase spreads over all of them, each
/// between two reference ticks.
fn measure(benches: &mut [Bench], args: &Args, reference: &mut Reference) -> Result<(), String> {
    let off = Tracer::disabled();
    let t0 = Instant::now();
    let mut rep = 0;
    loop {
        let done = match args.reps {
            Some(n) => rep >= n,
            None => rep >= MIN_REPS && t0.elapsed().as_secs_f64() >= args.seconds,
        };
        if done {
            return Ok(());
        }
        for b in benches.iter_mut() {
            let (pass, timed) = reference.time(|| b.timed_pass(&off));
            pass?;
            b.host_walls.push(timed.host_s);
            b.walls.push(timed.corrected_s);
        }
        rep += 1;
    }
}

/// The end-to-end metrics `BENCHMARK.json` declares, in its order.
const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    // `fail_share` would read 0 on every healthy run, which the contract
    // forbids for an end-to-end metric; its complement carries the same
    // information and never reads 0.
    ("pass_share", "ratio"),
];

fn end_to_end(bench: &mut Bench, args: &Args) -> Result<Vec<Metric>, String> {
    if args.smoke {
        bench.check_two_workers()?;
    }
    // `--smoke` gates correctness only and skips the RSS child.
    let peak_rss_mb = if args.smoke {
        None
    } else {
        Some(bench.peak_rss_mb(args)?)
    };
    let fail_share = bench.failures.len() as f64 / bench.attempted.max(1) as f64;
    let values = [
        Some(stats::median(&bench.walls)),
        Some(stats::median(&bench.setups)),
        peak_rss_mb,
        Some(1.0 - fail_share),
    ];
    let (q1, q3) = stats::quartiles(&bench.walls);
    println!(
        "  wall_s over {} passes: q1 {q1:.4} s, q3 {q3:.4} s; as timed on this host: median {:.4} s; fail_share {fail_share:.6}",
        bench.walls.len(),
        stats::median(&bench.host_walls),
    );
    println!("  passes as timed: {:.4?}", bench.host_walls);
    println!("  passes corrected: {:.4?}", bench.walls);
    println!("  set-ups corrected: {:.4?}", bench.setups);
    Ok(END_TO_END
        .into_iter()
        .zip(values)
        .filter_map(|((name, unit), value)| {
            Some(Metric {
                name,
                value: value?,
                unit,
            })
        })
        .collect())
}

/// Untraced/traced pass pairs a traced run times to price the tracing.
const OVERHEAD_ROUNDS: usize = 2;

/// The per-layer metrics of one workload, set up with `tracer` recording.
fn per_layer(bench: &mut Bench, args: &Args, tracer: &Tracer) -> Result<Vec<Metric>, String> {
    let off = Tracer::disabled();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..OVERHEAD_ROUNDS {
        plain.push(bench.timed_pass(&off)?);
        let from = tracer.mark();
        let before = sim_core::sweep::totals();
        traced.push(bench.timed_pass(tracer)?);
        last = Some((from..tracer.mark(), before, sim_core::sweep::totals()));
    }
    bench.check_two_workers()?;
    let (range, before, after) = last.expect("at least one round ran");
    let cells = workloads::census(&bench.inputs, tracer);
    let scratch = args.out.join(format!("census-{}", std::process::id()));
    let census = layers::take_census(&cells, &scratch, tracer)?;
    let costs = kernels::run_all(&layers::op_mix(&census), args.seed);
    let pass = layers::PassTrace::new(&tracer.spans(), range, before, after);
    let overhead = traced.iter().sum::<f64>() / plain.iter().sum::<f64>() - 1.0;
    println!(
        "  census: {} cells; sweep.cell_ms_p98 holds p{} (the highest percentile with >= 10 cells beyond it); {} hardware threads",
        census.cells.len(),
        stats::supported_tail(census.cells.len()) as f64 / 10.0,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    Ok(layers::assemble(&census, &costs, &pass, overhead))
}

/// Print one workload's metrics and failures; returns its result object.
fn report(bench: &Bench, title: &str, metrics: &[Metric]) -> Value {
    print_metrics(bench, title, metrics);
    for f in &bench.failures {
        eprintln!("FAIL [{}] {f}", bench.workload.name());
    }
    result_json(bench, metrics)
}

fn run(args: &Args) -> Result<bool, String> {
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("create {}: {e}", args.out.display()))?;
    let mut ok = true;
    let mut lines = Vec::new();
    if args.untraced {
        let off = Tracer::disabled();
        let setups = if args.smoke { 1 } else { SETUPS };
        let mut reference = Reference::new();
        let mut benches = Vec::new();
        for &w in &args.workloads {
            benches.push(Bench::set_up(w, args, &off, setups, &mut reference)?);
        }
        measure(&mut benches, args, &mut reference)?;
        let ticks = reference.ticks();
        println!(
            "host speed: {} reference ticks, median {:.1} ms (nominal {:.1} ms)",
            ticks.len(),
            stats::median(ticks) * 1e3,
            reference::NOMINAL_TICK_S * 1e3,
        );
        println!("  ticks: {ticks:.4?}");
        for mut b in benches {
            let metrics = end_to_end(&mut b, args)?;
            lines.push(report(&b, "end to end", &metrics));
            ok &= b.failures.is_empty();
        }
    }
    if args.trace {
        let mut trace = Vec::new();
        for &w in &args.workloads {
            let tracer = Tracer::enabled();
            let mut b = Bench::set_up(w, args, &tracer, 1, &mut Reference::new())?;
            let metrics = per_layer(&mut b, args, &tracer)?;
            lines.push(report(&b, "per layer", &metrics));
            ok &= b.failures.is_empty();
            if let Value::Array(spans) = spans::to_json(w.name(), &tracer.spans()) {
                trace.extend(spans);
            }
        }
        write_json(&args.out.join("trace.json"), &Value::Array(trace))?;
    }
    // The contract reads the last line of stdout; with several workloads
    // each gets its own line, in workload order.
    for line in &lines {
        println!("{}", serde_json::to_string(line).expect("values render"));
    }
    write_json(&args.out.join("results.json"), &Value::Array(lines))?;
    Ok(ok)
}

fn write_json(path: &Path, value: &Value) -> Result<(), String> {
    let text = serde_json::to_string_pretty(value).expect("values render");
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: benchmark --workload NAME --seed N --seconds S --trace 0|1 | --all [--seed N] [--reps N] [--smoke]");
            std::process::exit(2);
        }
    };
    let outcome = if args.one_pass {
        one_pass(&args).map(|()| true)
    } else {
        run(&args)
    };
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn repo_file(name: &str) -> String {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join(name);
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
    }

    /// `(name, unit)` of every entry of one of `BENCHMARK.json`'s lists.
    fn declared(doc: &Value, list: &str) -> Vec<(String, String)> {
        let Some(Value::Array(items)) = doc.get(list) else {
            panic!("BENCHMARK.json has no `{list}` list");
        };
        let text = |item: &Value, key: &str| {
            item.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .unwrap_or_default()
        };
        items
            .iter()
            .map(|item| (text(item, "name"), text(item, "unit")))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_what_is_emitted() {
        let doc =
            serde_json::from_str(&repo_file("BENCHMARK.json")).expect("BENCHMARK.json parses");
        let names = |pairs: &[(String, String)]| -> Vec<String> {
            pairs.iter().map(|(name, _)| name.clone()).collect()
        };

        let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().into()).collect();
        assert_eq!(names(&declared(&doc, "workloads")), workloads);

        let end_to_end: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(name, unit)| (name.into(), unit.into()))
            .collect();
        assert_eq!(declared(&doc, "end_to_end"), end_to_end);

        let per_layer: Vec<(String, String)> = layers::assemble(
            &layers::Census::default(),
            &layers::tests::costs(),
            &layers::PassTrace::default(),
            0.0,
        )
        .iter()
        .map(|m| (m.name.into(), m.unit.into()))
        .collect();
        assert_eq!(declared(&doc, "per_layer"), per_layer);

        // The contract's name rule; a name is used once across all lists.
        let all = [workloads, names(&end_to_end), names(&per_layer)].concat();
        for name in &all {
            assert!(
                name.len() <= 64
                    && name.starts_with(|c: char| c.is_ascii_alphanumeric())
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "bad name {name:?}"
            );
        }
        let unique: std::collections::BTreeSet<&String> = all.iter().collect();
        assert_eq!(unique.len(), all.len(), "a name is declared twice");
    }

    /// The `key = value` lines of a manifest's `[profile.release]` table.
    fn release_profile(manifest: &str) -> BTreeMap<String, String> {
        manifest
            .lines()
            .skip_while(|l| l.trim() != "[profile.release]")
            .skip(1)
            .take_while(|l| !l.trim_start().starts_with('['))
            .filter_map(|l| l.split('#').next()?.split_once('='))
            .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
            .collect()
    }

    #[test]
    fn release_profile_equals_the_root_manifests() {
        let root = release_profile(&repo_file("Cargo.toml"));
        let own = release_profile(&repo_file("benchmark/Cargo.toml"));
        for key in ["lto", "codegen-units", "debug"] {
            assert!(root.contains_key(key), "root manifest sets {key}");
        }
        assert_eq!(own, root, "the benchmark must measure `repro`'s codegen");
    }
}
