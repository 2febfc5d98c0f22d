//! On-disk corruption tests for the sweep run cache and the 192-byte
//! `SeedResult` codec.
//!
//! The cache is best-effort: any damaged entry — truncated file, flipped
//! payload bit, or a stale payload width from an older binary inside a
//! perfectly valid envelope — must be reported as `MissCorrupt`, silently
//! recomputed to the exact cold-run result, and rewritten. Nothing here
//! may ever panic the sweep.

use congestion::CcKind;
use cpu_model::{CpuConfig, DeviceProfile};
use iperf::runner::RunSpec;
use iperf::sweep::run_specs_sweep;
use sim_core::sweep::{fnv64, SweepOptions};
use sim_core::time::SimDuration;
use std::path::{Path, PathBuf};
use tcp_sim::SimConfig;

fn tiny_spec(label: &str) -> RunSpec {
    let cfg = SimConfig::builder(
        DeviceProfile::pixel4(),
        CpuConfig::HighEnd,
        CcKind::Cubic,
        1,
    )
    .duration(SimDuration::from_millis(600))
    .warmup(SimDuration::from_millis(200))
    .build()
    .expect("tiny test config is valid");
    RunSpec::new(label, cfg, 1)
}

fn temp_cache(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cache-codec-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The single `.bin` entry a one-cell sweep leaves in the cache.
fn sole_entry(dir: &Path) -> PathBuf {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("cache dir exists after a cached sweep")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "bin"))
        .collect();
    assert_eq!(entries.len(), 1, "one cell leaves one cache entry");
    entries.pop().unwrap()
}

/// Cold-run a one-cell sweep against `dir` and return its goodput.
fn run_once(dir: &Path, label: &str) -> f64 {
    let opts = SweepOptions {
        cache_dir: Some(dir.to_path_buf()),
        ..SweepOptions::default()
    };
    let mut goodput = None;
    run_specs_sweep(&[vec![tiny_spec(label)]], &opts, |_, reports| {
        goodput = Some(reports[0].goodput_mbps);
    })
    .expect("uncancelled sweep completes");
    goodput.expect("one spec in, one report out")
}

#[test]
fn bit_flip_in_payload_recomputes_identically() {
    let dir = temp_cache("bitflip");
    let cold = run_once(&dir, "bitflip");

    let entry = sole_entry(&dir);
    let mut bytes = std::fs::read(&entry).unwrap();
    // Envelope header is 24 bytes (magic, version, len, checksum); flip a
    // bit inside the payload so only the checksum catches it.
    let idx = 24 + 40;
    assert!(bytes.len() > idx, "payload long enough to corrupt");
    bytes[idx] ^= 0x10;
    std::fs::write(&entry, &bytes).unwrap();

    let recomputed = run_once(&dir, "bitflip");
    assert_eq!(recomputed, cold, "recompute must match the cold run");
    // The corrupt entry was rewritten with a valid one: next run hits.
    let repaired = std::fs::read(&entry).unwrap();
    assert_ne!(repaired, bytes, "damaged entry must be replaced");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_entry_recomputes_identically() {
    let dir = temp_cache("truncate");
    let cold = run_once(&dir, "truncate");

    let entry = sole_entry(&dir);
    let bytes = std::fs::read(&entry).unwrap();
    for keep in [0, 3, 23, bytes.len() - 1] {
        std::fs::write(&entry, &bytes[..keep]).unwrap();
        let recomputed = run_once(&dir, "truncate");
        assert_eq!(recomputed, cold, "truncated to {keep} bytes");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stale_payload_widths_in_valid_envelope_recompute() {
    let dir = temp_cache("stale");
    let cold = run_once(&dir, "stale");
    let entry = sole_entry(&dir);
    let fresh = std::fs::read(&entry).unwrap();

    // Craft a *checksum-valid* envelope whose payload has an older codec
    // width — 80 bytes (the first codec) and 184 bytes (what every cache
    // written before `peak_mem_bytes` holds): the envelope passes, `decode`
    // rejects it by length, and the engine must recompute and rewrite
    // (stale-codec migration path).
    for width in [80usize, 184] {
        let payload = vec![0u8; width];
        let mut file = Vec::new();
        file.extend_from_slice(b"SWPC");
        file.extend_from_slice(&1u32.to_le_bytes());
        file.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        file.extend_from_slice(&fnv64(&payload).to_le_bytes());
        file.extend_from_slice(&payload);
        std::fs::write(&entry, &file).unwrap();

        let recomputed = run_once(&dir, "stale");
        assert_eq!(recomputed, cold, "stale {width}-byte payload recomputed");
        assert_eq!(
            std::fs::read(&entry).unwrap(),
            fresh,
            "stale {width}-byte entry rewritten at the current width"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn garbage_and_oversized_length_never_panic() {
    let dir = temp_cache("garbage");
    let cold = run_once(&dir, "garbage");
    let entry = sole_entry(&dir);

    // Wrong magic entirely.
    std::fs::write(&entry, b"not a cache entry at all").unwrap();
    assert_eq!(run_once(&dir, "garbage"), cold);

    // Right magic, absurd length field (would allocate an exabyte if the
    // reader trusted it).
    let mut absurd = Vec::new();
    absurd.extend_from_slice(b"SWPC");
    absurd.extend_from_slice(&1u32.to_le_bytes());
    absurd.extend_from_slice(&u64::MAX.to_le_bytes());
    absurd.extend_from_slice(&0u64.to_le_bytes());
    std::fs::write(&entry, &absurd).unwrap();
    assert_eq!(run_once(&dir, "garbage"), cold);

    // Wrong version.
    let mut wrong_version = Vec::new();
    wrong_version.extend_from_slice(b"SWPC");
    wrong_version.extend_from_slice(&999u32.to_le_bytes());
    wrong_version.extend_from_slice(&0u64.to_le_bytes());
    wrong_version.extend_from_slice(&fnv64(&[]).to_le_bytes());
    std::fs::write(&entry, &wrong_version).unwrap();
    assert_eq!(run_once(&dir, "garbage"), cold);

    let _ = std::fs::remove_dir_all(&dir);
}
