//! Sets `MODEL_FINGERPRINT`: 16 hex digits of an FNV-1a hash over the
//! source of every crate a sweep cell runs, plus this crate's enabled
//! features. The front ends keep the run cache under
//! `<cache dir>/<fingerprint>/`, so a build whose model differs in any
//! byte never reads another build's cells.
//!
//! `crates/experiments/src` is left out on purpose. Its code runs only
//! before the cache, when plans become cell keys (a changed config is a
//! changed key), and after it, when checks read the reports. Hashing it
//! would make every edit to one experiment recompute all of them.

use std::path::{Path, PathBuf};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Feed `bytes` into the hash, length first, so no two inputs share a stream.
fn feed(hash: &mut u64, bytes: &[u8]) {
    for &b in (bytes.len() as u64).to_le_bytes().iter().chain(bytes) {
        *hash = (*hash ^ b as u64).wrapping_mul(FNV_PRIME);
    }
}

/// Every file under `dir`, recursively.
fn files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("source directory readable") {
        let path = entry.expect("directory entry readable").path();
        if path.is_dir() {
            files(&path, out);
        } else {
            out.push(path);
        }
    }
}

fn main() {
    let manifest = std::env::var_os("CARGO_MANIFEST_DIR").expect("set by cargo");
    let crates = Path::new(&manifest).join("..");
    let mut sources = Vec::new();
    for entry in std::fs::read_dir(&crates).expect("crates/ readable") {
        let entry = entry.expect("directory entry readable");
        let src = entry.path().join("src");
        if entry.file_name() != "experiments" && src.is_dir() {
            println!("cargo:rerun-if-changed={}", src.display());
            files(&src, &mut sources);
        }
    }
    // Hash paths relative to crates/, `/`-separated, in sorted order: the
    // fingerprint depends on content only, not on where the checkout is.
    let mut named: Vec<(String, PathBuf)> = sources
        .into_iter()
        .map(|path| {
            let rel = path.strip_prefix(&crates).expect("under crates/");
            let name: Vec<_> = rel.iter().map(|c| c.to_string_lossy()).collect();
            (name.join("/"), path)
        })
        .collect();
    named.sort();
    let mut hash = FNV_OFFSET;
    for (name, path) in &named {
        feed(&mut hash, name.as_bytes());
        let content = std::fs::read(path).expect("source file readable");
        feed(&mut hash, &content);
    }
    let mut features: Vec<String> = std::env::vars()
        .map(|(key, _)| key)
        .filter(|key| key.starts_with("CARGO_FEATURE_"))
        .collect();
    features.sort();
    for feature in &features {
        feed(&mut hash, feature.as_bytes());
    }
    println!("cargo:rustc-env=MODEL_FINGERPRINT={hash:016x}");
}
