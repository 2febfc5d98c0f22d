//! Shape checks: automated comparisons between measured results and the
//! paper's qualitative claims.
//!
//! Per DESIGN.md, absolute throughputs are not expected to match a physical
//! Pixel 4 — the cycle costs are calibrated constants — but every *relative*
//! claim should hold: who wins, by roughly what factor, where crossovers
//! and optima fall. Each experiment emits these checks, and EXPERIMENTS.md
//! records them as the reproduction's scorecard.

use serde::Serialize;

/// One comparison with the paper.
#[derive(Debug, Clone, Serialize)]
pub struct ShapeCheck {
    /// Short name ("BBR@20 ≪ Cubic@20 on Low-End").
    pub name: String,
    /// What the paper reports.
    pub expected: String,
    /// What we measured.
    pub observed: String,
    /// Whether the shape holds.
    pub pass: bool,
}

impl ShapeCheck {
    /// A check on a ratio lying inside `[lo, hi]`.
    pub(crate) fn ratio_in(
        name: impl Into<String>,
        expected: impl Into<String>,
        ratio: f64,
        lo: f64,
        hi: f64,
    ) -> Self {
        ShapeCheck {
            name: name.into(),
            expected: expected.into(),
            observed: format!("ratio {ratio:.2} (accepted band {lo:.2}–{hi:.2})"),
            pass: ratio >= lo && ratio <= hi,
        }
    }

    /// A boolean predicate with a free-form observation.
    pub(crate) fn predicate(
        name: impl Into<String>,
        expected: impl Into<String>,
        observed: impl Into<String>,
        pass: bool,
    ) -> Self {
        ShapeCheck {
            name: name.into(),
            expected: expected.into(),
            observed: observed.into(),
            pass,
        }
    }

    /// Render as a one-line scorecard entry.
    pub(crate) fn render(&self) -> String {
        format!(
            "[{}] {} — paper: {}; measured: {}",
            if self.pass { "PASS" } else { "MISS" },
            self.name,
            self.expected,
            self.observed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_in_band() {
        let c = ShapeCheck::ratio_in("r", "x", 0.42, 0.3, 0.6);
        assert!(c.pass);
        assert!(c.render().starts_with("[PASS]"));
        let c = ShapeCheck::ratio_in("r", "x", 0.9, 0.3, 0.6);
        assert!(!c.pass);
        assert!(c.render().starts_with("[MISS]"));
    }

    #[test]
    fn predicate_passthrough() {
        assert!(ShapeCheck::predicate("p", "e", "o", true).pass);
        assert!(!ShapeCheck::predicate("p", "e", "o", false).pass);
    }
}
