//! End-to-end guarantees of the `sim-trace` flight recorder:
//!
//! 1. **Tracing is invisible to results.** The scorecard numbers a traced
//!    run produces serialize to exactly the bytes of an untraced run —
//!    recording must observe the simulation, never perturb it.
//! 2. **Traced runs parallelize deterministically.** Running traced cells
//!    across 4 worker threads yields the same per-cell results *and* the
//!    same trace bytes as running them serially.
//! 3. **Trace exports are byte-stable.** Recording the same configuration
//!    twice yields identical records and identical Chrome JSON.

use congestion::CcKind;
use cpu_model::CpuConfig;
use experiments::Params;
use sim_core::trace::{write_chrome, TraceLog};
use tcp_sim::{Instruments, SimConfig, SimResult, StackSim};

/// The smoke-sized cells the tests trace: both CC families, mixed CPU
/// configs and connection counts.
fn cells() -> Vec<SimConfig> {
    let p = Params::smoke();
    let mut cells = Vec::new();
    for (cpu, cc, conns, seed) in [
        (CpuConfig::LowEnd, CcKind::Bbr, 4, 1),
        (CpuConfig::LowEnd, CcKind::Bbr, 4, 2),
        (CpuConfig::HighEnd, CcKind::Cubic, 2, 1),
        (CpuConfig::MidEnd, CcKind::Bbr2, 3, 7),
    ] {
        let mut cfg = p.pixel4(cpu, cc, conns);
        cfg.seed = seed;
        cells.push(cfg);
    }
    cells
}

/// The scorecard-relevant numbers of one run, as `repro --json` bytes.
fn result_json(cfg: SimConfig, traced: bool) -> String {
    let seed = cfg.seed;
    let res = if traced {
        run_with_trace(cfg).0
    } else {
        StackSim::new(cfg).run()
    };
    serde_json::to_string(&iperf::SeedResult::from_sim(seed, &res)).unwrap()
}

fn run_with_trace(cfg: SimConfig) -> (SimResult, TraceLog) {
    let observed = StackSim::new(cfg).run_observed(Instruments {
        trace: true,
        ..Instruments::default()
    });
    (
        observed.result,
        observed.trace.expect("tracing was requested"),
    )
}

fn chrome_bytes(log: &TraceLog) -> Vec<u8> {
    let mut buf = Vec::new();
    write_chrome(log, &mut buf).unwrap();
    buf
}

#[test]
fn traced_results_are_byte_identical_to_untraced() {
    for cfg in cells() {
        let plain = result_json(cfg.clone(), false);
        let traced = result_json(cfg.clone(), true);
        assert_eq!(
            plain, traced,
            "tracing must not perturb results (cc {:?}, seed {})",
            cfg.cc, cfg.seed
        );
    }
}

#[test]
fn traced_runs_are_identical_across_worker_counts() {
    let traced_cell = |cfg: SimConfig| -> (String, Vec<u8>) {
        let seed = cfg.seed;
        let (res, log) = run_with_trace(cfg);
        let json = serde_json::to_string(&iperf::SeedResult::from_sim(seed, &res)).unwrap();
        (json, chrome_bytes(&log))
    };

    let serial: Vec<(String, Vec<u8>)> = cells().into_iter().map(traced_cell).collect();

    // Fan the same cells over 4 threads, one chunk per thread, preserving
    // submission order in the collected output — the sweep engine's shape.
    let cfgs = cells();
    let chunk = cfgs.len().div_ceil(4);
    let parallel: Vec<(String, Vec<u8>)> = std::thread::scope(|s| {
        let handles: Vec<_> = cfgs
            .chunks(chunk)
            .map(|chunk| {
                let chunk = chunk.to_vec();
                s.spawn(move || chunk.into_iter().map(traced_cell).collect::<Vec<_>>())
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });

    assert_eq!(serial.len(), parallel.len());
    for (i, ((sj, st), (pj, pt))) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(sj, pj, "cell {i}: results differ across worker counts");
        assert_eq!(st, pt, "cell {i}: trace bytes differ across worker counts");
    }
}

#[test]
fn trace_exports_are_byte_stable_across_runs() {
    let cfg = &cells()[0];
    let (_, log_a) = run_with_trace(cfg.clone());
    let (_, log_b) = run_with_trace(cfg.clone());
    assert!(!log_a.events.is_empty(), "smoke run must produce events");
    // Every record, the raw wheel operations the export omits included.
    assert_eq!(log_a.events, log_b.events, "records unstable");

    let bytes = chrome_bytes(&log_a);
    assert_eq!(bytes, chrome_bytes(&log_b), "Chrome export unstable");
    // The export must be one parseable JSON document (Perfetto loads it).
    let text = String::from_utf8(bytes).unwrap();
    assert!(
        serde_json::from_str(&text).is_ok(),
        "Chrome export not JSON"
    );
}
