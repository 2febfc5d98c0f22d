//! Generic scenario-checking framework: invariant oracles, shrinking, and
//! a persisted failure corpus.
//!
//! This module is the engine-side half of `simcheck`, the deterministic
//! scenario fuzzer (the concrete scenario space and the ~12 oracle
//! implementations live in the bench crate, which can see the full
//! simulator API; `sim-core` deliberately cannot). The split mirrors the
//! sweep engine: `sim-core` owns the reusable machinery with a hard
//! determinism contract, the caller owns the domain knowledge.
//!
//! # Oracles
//!
//! An oracle is a named predicate over the outcome of one scenario run
//! ([`NamedOracle`], a name plus a fn pointer). Oracles
//! return `Ok(())` or a human-readable description of the violation;
//! [`evaluate`] runs a whole library over one context and collects every
//! [`Violation`]. Oracles must be pure — they may re-run simulations (the
//! metamorphic relations do) but must not mutate shared state, or the
//! fuzzer's parallel batches would lose bit-identical output.
//!
//! # Shrinking
//!
//! When a scenario fails, the fuzzer minimises it before reporting:
//!
//! * [`shrink_u64`] binary-searches the smallest value in `[lo, hi]` that
//!   still fails, for scalar knobs (connection count, stride, duration)
//!   whose failure is typically monotone;
//! * [`shrink`] runs greedy strategy-level simplification: a candidate
//!   function proposes simpler variants (drop the impairment, collapse
//!   the media to Ethernet, …) and the first still-failing candidate is
//!   adopted, until no candidate fails or the step budget is exhausted.
//!
//! Both helpers re-check candidates through a caller-supplied predicate,
//! so the shrinker never needs to know what "fails" means.
//!
//! # Corpus
//!
//! [`Corpus`] is a line-oriented seed file (one scenario spec per line,
//! `#` comments) checked into the repository. Every shrunk failure is
//! appended, so a bug found once by the fuzzer is replayed forever after
//! as a regression test.

use std::io::Write;
use std::path::{Path, PathBuf};

/// One invariant violated by one scenario run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Name of the oracle that fired.
    pub oracle: &'static str,
    /// Human-readable description of what went wrong (values included).
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.oracle, self.detail)
    }
}

/// A named predicate over one scenario outcome: a name plus a pure check
/// function.
pub struct NamedOracle<Ctx> {
    /// Stable oracle name (used in reports, corpus lines, and CI grep).
    pub name: &'static str,
    /// `Ok(())` if the invariant holds, else a description of the breach.
    pub check: fn(&Ctx) -> Result<(), String>,
}

/// Run every oracle over `ctx` and collect the violations (empty = clean).
pub fn evaluate<Ctx>(oracles: &[NamedOracle<Ctx>], ctx: &Ctx) -> Vec<Violation> {
    oracles
        .iter()
        .filter_map(|o| match (o.check)(ctx) {
            Ok(()) => None,
            Err(detail) => Some(Violation {
                oracle: o.name,
                detail,
            }),
        })
        .collect()
}

/// Smallest `v` in `[lo, hi]` for which `fails(v)` holds, assuming
/// `fails(hi)` and monotonicity (if `fails(v)` then `fails(w)` for all
/// `w ≥ v`). Classic bisection; when the failure is *not* monotone the
/// result is still some failing value ≤ `hi`, just not necessarily the
/// global minimum — fine for a shrinker.
///
/// ```
/// let min = sim_core::check::shrink_u64(1, 20, |v| v >= 7);
/// assert_eq!(min, 7);
/// ```
pub fn shrink_u64(lo: u64, hi: u64, mut fails: impl FnMut(u64) -> bool) -> u64 {
    debug_assert!(lo <= hi);
    let (mut lo, mut hi) = (lo, hi);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if fails(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    hi
}

/// Greedy structural shrinking: repeatedly adopt the first candidate
/// simplification that still fails.
///
/// `candidates(&s)` proposes simpler variants of `s` (ordered most-
/// aggressive first); `still_fails` re-checks one. The loop ends when no
/// candidate fails or after `max_steps` adoptions (a hard bound — each
/// step may cost a simulation per candidate).
pub fn shrink<S: Clone>(
    start: S,
    candidates: impl Fn(&S) -> Vec<S>,
    mut still_fails: impl FnMut(&S) -> bool,
    max_steps: usize,
) -> S {
    let mut cur = start;
    for _ in 0..max_steps {
        let mut adopted = false;
        for cand in candidates(&cur) {
            if still_fails(&cand) {
                cur = cand;
                adopted = true;
                break;
            }
        }
        if !adopted {
            break;
        }
    }
    cur
}

/// A line-oriented scenario-seed corpus (one spec per line, `#` comments).
///
/// The fuzzer replays every entry before spending its random budget, so
/// once a failure lands here it is a permanent regression test.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// Where the corpus lives on disk.
    pub path: PathBuf,
    /// The non-comment, non-empty lines, in file order.
    pub entries: Vec<String>,
}

impl Corpus {
    /// Load a corpus; a missing file is an empty corpus, not an error.
    pub fn load(path: impl AsRef<Path>) -> std::io::Result<Corpus> {
        let path = path.as_ref().to_path_buf();
        let entries = match std::fs::read_to_string(&path) {
            Ok(text) => text
                .lines()
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .map(String::from)
                .collect(),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        Ok(Corpus { path, entries })
    }

    /// Append `line` to the corpus file (and memory), unless an identical
    /// entry already exists. Returns whether the line was new.
    pub fn append(&mut self, line: &str) -> std::io::Result<bool> {
        let line = line.trim();
        if self.entries.iter().any(|e| e == line) {
            return Ok(false);
        }
        if let Some(dir) = self.path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        writeln!(file, "{line}")?;
        self.entries.push(line.to_string());
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluate_collects_only_failures() {
        let oracles = [
            NamedOracle::<u64> {
                name: "even",
                check: |&x| {
                    if x % 2 == 0 {
                        Ok(())
                    } else {
                        Err(format!("{x} is odd"))
                    }
                },
            },
            NamedOracle::<u64> {
                name: "small",
                check: |&x| {
                    if x < 100 {
                        Ok(())
                    } else {
                        Err(format!("{x} too large"))
                    }
                },
            },
        ];
        assert!(evaluate(&oracles, &4).is_empty());
        let v = evaluate(&oracles, &101);
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].oracle, "even");
        assert!(v[0].to_string().contains("101 is odd"));
        assert_eq!(v[1].oracle, "small");
    }

    #[test]
    fn shrink_u64_finds_monotone_threshold() {
        assert_eq!(shrink_u64(1, 1000, |v| v >= 137), 137);
        assert_eq!(shrink_u64(5, 5, |_| true), 5);
        assert_eq!(
            shrink_u64(1, 64, |_| true),
            1,
            "always-failing shrinks to lo"
        );
    }

    #[test]
    fn shrink_u64_counts_logarithmic_probes() {
        let mut probes = 0u32;
        shrink_u64(1, 1_000_000, |v| {
            probes += 1;
            v >= 999_999
        });
        assert!(
            probes <= 21,
            "binary search must stay O(log n), used {probes}"
        );
    }

    #[test]
    fn greedy_shrink_reaches_fixpoint() {
        // State: (a, b). Failure iff a >= 3. Candidates halve each field.
        let shrunk = shrink(
            (64u64, 64u64),
            |&(a, b)| vec![(a / 2, b), (a, b / 2)],
            |&(a, _)| a >= 3,
            100,
        );
        // a shrinks to the smallest failing value; b shrinks freely to 0.
        assert_eq!(shrunk, (4, 0));
    }

    #[test]
    fn greedy_shrink_respects_step_budget() {
        let shrunk = shrink((1024u64, 0u64), |&(a, _)| vec![(a / 2, 0)], |_| true, 3);
        assert_eq!(shrunk.0, 128, "3 adoptions of halving from 1024");
    }

    #[test]
    fn corpus_round_trips_and_dedups() {
        let dir = std::env::temp_dir().join(format!("simcheck-corpus-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("corpus.txt");

        let mut corpus = Corpus::load(&path).expect("missing file is empty corpus");
        assert!(corpus.entries.is_empty());
        assert!(corpus.append("cc=bbr,conns=3").unwrap());
        assert!(!corpus.append("cc=bbr,conns=3").unwrap(), "dedup");
        assert!(corpus.append("cc=cubic,conns=1").unwrap());

        let reloaded = Corpus::load(&path).unwrap();
        assert_eq!(reloaded.entries, vec!["cc=bbr,conns=3", "cc=cubic,conns=1"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corpus_skips_comments_and_blanks() {
        let dir = std::env::temp_dir().join(format!("simcheck-corpus2-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corpus.txt");
        std::fs::write(&path, "# header\n\n  spec-a  \n# trailing\nspec-b\n").unwrap();
        let corpus = Corpus::load(&path).unwrap();
        assert_eq!(corpus.entries, vec!["spec-a", "spec-b"]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
