//! `repro --observe DIR`: the one instrumented look at a run — a Chrome
//! trace, flight data, a self-contained HTML report, and three summary
//! tables.
//!
//! The pipeline runs three things and renders them into three files under
//! `DIR`:
//!
//! 1. The canonical worst case — Low-End, 20 BBR connections — once, with
//!    tracing and telemetry sampling (every 10 ms of sim time) both on. Its
//!    trace becomes `trace.json` (Chrome trace-event format, for
//!    Perfetto); its strip chart becomes `flight.jsonl`
//!    (sim-telemetry/v1) and feeds the per-flow timeline panels.
//! 2. The Fig. 2 goodput grid (every CPU config × connection count ×
//!    CUBIC/BBR) and the Fig. 7 pacing comparison (paced vs unpaced p95
//!    RTT): those two experiments' own plans, run as one sweep.
//! 3. The canonical mixed fleet, inline like run 1: a sweep cell's
//!    `SeedResult` cannot carry a telemetry log or a per-device table.
//!
//! `report.html` is ONE file with inline SVG: no JavaScript, no external
//! fetches, no wall-clock timestamps. Opening it offline shows exactly
//! what the run produced, and regenerating it from the same tree is
//! byte-identical at any `--jobs N` — chart geometry uses fixed-precision
//! decimal formatting and the sweep engine already guarantees
//! order-independent results.
//!
//! The summary tables are read from memory, never from a file, and each
//! fact from its exact source: the per-kind census from the [`TraceLog`],
//! the cycle ranking from the CPU model's tally
//! ([`cpu_model::CpuStats::cycles_by_category`]), the per-connection
//! counts from [`SimResult::per_conn`] and each flow's final cwnd, pacing
//! rate and CC phase from its last telemetry row. The trace rings are
//! flight recorders that keep only the newest records, so anything summed
//! over them undercounts a run long enough to wrap them; only the census
//! reads them.

use crate::params::{Params, CONN_SWEEP};
use crate::{fig2, fig4};
use congestion::CcKind;
use cpu_model::CpuConfig;
use iperf::RunReport;
use netsim::Qdisc;
use sim_core::telemetry::{self, TelemetryLog};
use sim_core::trace::TraceLog;
use sim_core::units::Bandwidth;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use tcp_sim::fleet::FleetResult;
use tcp_sim::{FleetConfig, Instruments, SimResult, StackSim};

/// Cap on polyline points per series. Longer series are thinned by a
/// deterministic stride so full-preset reports stay a few hundred KB.
const MAX_POINTS: usize = 512;

/// What [`generate`] wrote, in write order, and what it printed.
#[derive(Debug, Clone)]
pub struct Observation {
    /// `sim-telemetry/v1` JSONL flight data (header + flow/queue rows).
    pub flight_jsonl: PathBuf,
    /// The canonical run's trace in Chrome trace-event JSON (Perfetto).
    pub trace_json: PathBuf,
    /// The self-contained HTML report.
    pub html: PathBuf,
    /// The canonical run's three summary tables: the trace's per-kind
    /// census, the exact per-category cycle ranking, and per-connection
    /// activity.
    pub summary: String,
}

impl Observation {
    /// All three file paths, in write order.
    pub fn files(&self) -> [&Path; 3] {
        [&self.flight_jsonl, &self.trace_json, &self.html]
    }
}

/// Observe the canonical run and generate the full report under `dir`
/// (created if missing).
///
/// Deterministic: the same tree and `params` produce byte-identical
/// files regardless of `params.threads` or cache state. The canonical
/// run executes inline (single simulation, no sweep); the figure grids
/// are one sweep, like every experiment run.
pub fn generate(params: &Params, dir: &Path) -> Result<Observation, sim_core::Error> {
    std::fs::create_dir_all(dir)
        .map_err(|e| sim_core::Error::io(format!("create {}", dir.display()), e))?;

    // Canonical run: Low-End, 20 BBR connections, trace and telemetry on.
    let cfg = params.pixel4(CpuConfig::LowEnd, CcKind::Bbr, 20);
    let observed = StackSim::new(cfg).run_observed(Instruments {
        trace: true,
        telemetry: true,
    });
    let result = observed.result;
    let trace = observed.trace.expect("tracing was requested");
    let log = observed.telemetry.expect("telemetry was requested");

    let obs = Observation {
        flight_jsonl: dir.join("flight.jsonl"),
        trace_json: dir.join("trace.json"),
        html: dir.join("report.html"),
        summary: summarize(&result, &trace, &log),
    };
    write_file(&obs.flight_jsonl, |w| telemetry::write_jsonl(&log, w))?;
    write_file(&obs.trace_json, |w| {
        sim_core::trace::write_chrome(&trace, w)
    })?;
    // The trace is tens of MB at the full preset; free it before the grids.
    drop(trace);

    // Figure grids: the two experiments' plans through one sweep
    // (parallel, cached, ordered; Fig. 7's paced cells are Fig. 2's).
    let mut grids = [Vec::new(), Vec::new()];
    iperf::run_specs_sweep(
        &[fig2::plan(params), fig4::plan(params)],
        &params.sweep_options(),
        |i, reports| grids[i] = reports,
    )?;
    let [fig2, fig7] = grids;

    // Canonical fleet run: the mixed population through a CoDel PoP
    // uplink, inline like the telemetry run (one simulation, thread-count
    // independent by construction).
    let fleet_cfg = params.fleet(FleetConfig::mixed(params.fleet_devices).with_shared(
        FleetConfig::pop_uplink(
            Bandwidth::from_mbps(crate::fleet::SHARE_MBPS * params.fleet_devices as u64),
            Qdisc::Codel,
        ),
    ));
    let fleet = StackSim::new(fleet_cfg)
        .run()
        .fleet
        .expect("fleet config yields fleet metrics");

    let html = render_html(params, result.goodput_mbps(), &log, &fig2, &fig7, &fleet);
    std::fs::write(&obs.html, html)
        .map_err(|e| sim_core::Error::io(format!("write {}", obs.html.display()), e))?;
    Ok(obs)
}

/// The three tables of [`Observation::summary`].
///
/// The census counts what the trace rings kept, and says so when they
/// dropped records; the cycle table is the CPU model's exact tally, and
/// the per-connection table reads [`SimResult::per_conn`] and each flow's
/// last row in `flight`, whatever the rings kept.
fn summarize(result: &SimResult, log: &TraceLog, flight: &TelemetryLog) -> String {
    let mut out = String::new();

    let span_s = log.events.last().map_or(0, |r| r.at.as_nanos()) as f64 / 1e9;
    let _ = writeln!(
        out,
        "trace: {} events kept, {} dropped, {} counter series, span {span_s:.3} s",
        log.events.len(),
        log.dropped,
        log.counters.len(),
    );
    let mut census: BTreeMap<&str, u64> = BTreeMap::new();
    for rec in &log.events {
        *census.entry(rec.kind.name()).or_default() += 1;
    }
    let mut census: Vec<(&str, u64)> = census.into_iter().collect();
    census.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    for (kind, n) in census {
        let _ = writeln!(out, "  {n:>10}  {kind}");
    }

    let total = result.cpu.total_cycles;
    let _ = writeln!(
        out,
        "\nmodelled CPU by category ({:.1} Mcycles total):",
        total as f64 / 1e6
    );
    let mut ranked: Vec<(&str, u64)> = result
        .cpu
        .cycles_by_category
        .iter()
        .map(|(&cat, &c)| (cat, c))
        .collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    for (cat, c) in ranked {
        let _ = writeln!(
            out,
            "  {:>10.1} Mcycles  {:>5.1} %  {cat}",
            c as f64 / 1e6,
            100.0 * c as f64 / total.max(1) as f64
        );
    }

    let _ = writeln!(
        out,
        "\n{:>5} {:>9} {:>9} {:>8} {:>7} {:>9} {:>8} {:>7} {:>10} {:>12}",
        "conn",
        "skbs",
        "skb B",
        "idle ms",
        "retx",
        "goodput",
        "p95 ms",
        "cwnd",
        "pace Mbps",
        "phase"
    );
    for (conn, c) in result.per_conn.iter().enumerate() {
        let _ = write!(
            out,
            "{conn:>5} {:>9} {:>9.0} {:>8.3} {:>7} {:>9.2} {:>8.1}",
            c.skbs_sent,
            c.mean_skb_bytes,
            c.mean_idle_ms,
            c.retx_pkts,
            c.goodput.as_mbps_f64(),
            c.rtt_p95_ms,
        );
        // Rows are time-major: the flow's last row is its final state.
        let last = (flight.flows.iter().rev()).find(|f| f.conn as usize == conn);
        let _ = match last {
            Some(f) => writeln!(
                out,
                " {:>7} {:>10.1} {:>12}",
                f.cwnd,
                f.pacing_rate_bps as f64 / 1e6,
                f.phase
            ),
            None => writeln!(out, " {:>7} {:>10} {:>12}", "-", "-", "-"),
        };
    }
    if log.dropped > 0 {
        let _ = writeln!(
            out,
            "note: the trace rings dropped {} records, so the census covers only \
             the recorded tail of the run; the cycle and per-connection tables \
             are exact",
            log.dropped
        );
    }
    out
}

fn write_file(
    path: &Path,
    f: impl FnOnce(&mut std::io::BufWriter<std::fs::File>) -> std::io::Result<()>,
) -> Result<(), sim_core::Error> {
    let ctx = || format!("write {}", path.display());
    let file = std::fs::File::create(path).map_err(|e| sim_core::Error::io(ctx(), e))?;
    let mut w = std::io::BufWriter::new(file);
    f(&mut w).map_err(|e| sim_core::Error::io(ctx(), e))?;
    use std::io::Write as _;
    w.flush().map_err(|e| sim_core::Error::io(ctx(), e))
}

// ---------------------------------------------------------------------
// SVG chart helpers. Hand-rolled on purpose: no chart dependency, no
// JavaScript, and every coordinate goes through fixed-precision decimal
// formatting so output bytes are stable across platforms and reruns.
// ---------------------------------------------------------------------

/// Ten-color qualitative palette (Tableau10); series cycle through it.
const PALETTE: [&str; 10] = [
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b", "#e377c2", "#7f7f7f",
    "#bcbd22", "#17becf",
];

const CHART_W: f64 = 640.0;
const CHART_H: f64 = 300.0;
const MARGIN_L: f64 = 62.0;
const MARGIN_R: f64 = 14.0;
const MARGIN_T: f64 = 26.0;
const MARGIN_B: f64 = 42.0;

/// One polyline with a legend label.
struct Series {
    label: String,
    points: Vec<(f64, f64)>,
}

/// Axis-tick / tooltip number: up to two decimals, trailing zeros
/// stripped (`12`, `3.5`, `0.25`) — short AND deterministic.
fn fmt_num(v: f64) -> String {
    let s = format!("{v:.2}");
    let s = s.trim_end_matches('0').trim_end_matches('.');
    if s.is_empty() || s == "-0" {
        "0".to_string()
    } else {
        s.to_string()
    }
}

/// SVG coordinate: two decimals, enough for a 640-px canvas.
fn fmt_px(v: f64) -> String {
    format!("{v:.2}")
}

fn escape_html(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

/// Thin `points` to at most [`MAX_POINTS`] with a fixed stride, always
/// keeping the final point so the series ends where the run ended.
fn thin(points: &[(f64, f64)]) -> Vec<(f64, f64)> {
    if points.len() <= MAX_POINTS {
        return points.to_vec();
    }
    let stride = points.len().div_ceil(MAX_POINTS);
    let mut out: Vec<(f64, f64)> = points.iter().copied().step_by(stride).collect();
    if let (Some(&last), Some(&kept)) = (points.last(), out.last()) {
        if kept != last {
            out.push(last);
        }
    }
    out
}

const PLOT_W: f64 = CHART_W - MARGIN_L - MARGIN_R;
const PLOT_H: f64 = CHART_H - MARGIN_T - MARGIN_B;

/// Pixel row of `y` on an axis that runs from zero — every plotted
/// quantity (goodput, cwnd, RTT, queue depth) is non-negative and zero is
/// the natural floor — up to `ymax`.
fn sy(y: f64, ymax: f64) -> f64 {
    MARGIN_T + PLOT_H - y / ymax * PLOT_H
}

/// The frame every chart shares, around its `marks`: `<svg>` open, title,
/// five-division y grid with tick labels (`x_tick(i)` rides after the
/// `i`-th gridline), axes, axis labels, then the marks and one legend
/// swatch per `legend` label, top-right inside the plot.
fn chart_frame(
    title: &str,
    x_label: Option<&str>,
    y_label: &str,
    ymax: f64,
    x_tick: impl Fn(u32) -> String,
    marks: &str,
    legend: &[&str],
) -> String {
    let mut svg = String::new();
    let _ = write!(
        svg,
        "<svg viewBox=\"0 0 {CHART_W} {CHART_H}\" width=\"{CHART_W}\" height=\"{CHART_H}\" \
         xmlns=\"http://www.w3.org/2000/svg\" role=\"img\" aria-label=\"{}\">",
        escape_html(title)
    );
    let _ = write!(
        svg,
        "<text x=\"{}\" y=\"16\" class=\"title\">{}</text>",
        fmt_px(CHART_W / 2.0),
        escape_html(title)
    );
    for i in 0..=5u32 {
        let fy = ymax * f64::from(i) / 5.0;
        let py = sy(fy, ymax);
        let _ = write!(
            svg,
            "<line x1=\"{}\" y1=\"{}\" x2=\"{}\" y2=\"{}\" class=\"grid\"/>\
             <text x=\"{}\" y=\"{}\" class=\"ytick\">{}</text>",
            fmt_px(MARGIN_L),
            fmt_px(py),
            fmt_px(CHART_W - MARGIN_R),
            fmt_px(py),
            fmt_px(MARGIN_L - 6.0),
            fmt_px(py + 4.0),
            fmt_num(fy)
        );
        svg.push_str(&x_tick(i));
    }
    let _ = write!(
        svg,
        "<line x1=\"{l}\" y1=\"{t}\" x2=\"{l}\" y2=\"{b}\" class=\"axis\"/>\
         <line x1=\"{l}\" y1=\"{b}\" x2=\"{r}\" y2=\"{b}\" class=\"axis\"/>",
        l = fmt_px(MARGIN_L),
        t = fmt_px(MARGIN_T),
        b = fmt_px(CHART_H - MARGIN_B),
        r = fmt_px(CHART_W - MARGIN_R),
    );
    if let Some(x_label) = x_label {
        let _ = write!(
            svg,
            "<text x=\"{}\" y=\"{}\" class=\"xlabel\">{}</text>",
            fmt_px(MARGIN_L + PLOT_W / 2.0),
            fmt_px(CHART_H - 6.0),
            escape_html(x_label)
        );
    }
    let _ = write!(
        svg,
        "<text x=\"14\" y=\"{m}\" class=\"ylabel\" transform=\"rotate(-90 14 {m})\">{y}</text>",
        m = fmt_px(MARGIN_T + PLOT_H / 2.0),
        y = escape_html(y_label),
    );
    svg.push_str(marks);
    for (i, label) in legend.iter().enumerate() {
        let color = PALETTE[i % PALETTE.len()];
        let y = MARGIN_T + 12.0 + 14.0 * i as f64;
        let _ = write!(
            svg,
            "<rect x=\"{}\" y=\"{}\" width=\"10\" height=\"10\" fill=\"{color}\"/>\
             <text x=\"{}\" y=\"{}\" class=\"legend\">{}</text>",
            fmt_px(CHART_W - MARGIN_R - 130.0),
            fmt_px(y - 9.0),
            fmt_px(CHART_W - MARGIN_R - 116.0),
            fmt_px(y),
            escape_html(label)
        );
    }
    svg.push_str("</svg>");
    svg
}

/// Render a line chart: shared axes, one polyline per series, legend
/// when there is more than one series and at most ten.
fn line_chart(title: &str, x_label: &str, y_label: &str, series: &[Series]) -> String {
    let mut xmin = f64::INFINITY;
    let mut xmax = f64::NEG_INFINITY;
    let mut ymax = f64::NEG_INFINITY;
    for s in series {
        for &(x, y) in &s.points {
            xmin = xmin.min(x);
            xmax = xmax.max(x);
            ymax = ymax.max(y);
        }
    }
    if !xmin.is_finite() {
        xmin = 0.0;
        xmax = 1.0;
        ymax = 1.0;
    }
    if xmax <= xmin {
        xmax = xmin + 1.0;
    }
    if ymax <= 0.0 {
        ymax = 1.0;
    }
    let sx = |x: f64| MARGIN_L + (x - xmin) / (xmax - xmin) * PLOT_W;

    let x_tick = |i: u32| {
        let fx = xmin + (xmax - xmin) * f64::from(i) / 5.0;
        format!(
            "<text x=\"{}\" y=\"{}\" class=\"xtick\">{}</text>",
            fmt_px(sx(fx)),
            fmt_px(CHART_H - MARGIN_B + 16.0),
            fmt_num(fx)
        )
    };
    let mut marks = String::new();
    for (i, s) in series.iter().enumerate() {
        let color = PALETTE[i % PALETTE.len()];
        let pts: String = thin(&s.points)
            .iter()
            .map(|&(x, y)| format!("{},{}", fmt_px(sx(x)), fmt_px(sy(y, ymax))))
            .collect::<Vec<_>>()
            .join(" ");
        let _ = write!(
            marks,
            "<polyline points=\"{pts}\" fill=\"none\" stroke=\"{color}\" stroke-width=\"1.5\"/>"
        );
    }
    let mut legend: Vec<&str> = Vec::new();
    if series.len() > 1 && series.len() <= PALETTE.len() {
        legend.extend(series.iter().map(|s| s.label.as_str()));
    }
    chart_frame(title, Some(x_label), y_label, ymax, x_tick, &marks, &legend)
}

/// Render a grouped bar chart: one group per label, `bars` values per
/// group with a shared legend.
fn bar_chart(title: &str, y_label: &str, groups: &[(String, Vec<f64>)], bars: &[&str]) -> String {
    let mut ymax = f64::NEG_INFINITY;
    for (_, vs) in groups {
        for &v in vs {
            ymax = ymax.max(v);
        }
    }
    if !ymax.is_finite() || ymax <= 0.0 {
        ymax = 1.0;
    }

    let n_groups = groups.len().max(1) as f64;
    let group_w = PLOT_W / n_groups;
    let n_bars = bars.len().max(1) as f64;
    let bar_w = (group_w * 0.7) / n_bars;
    let mut marks = String::new();
    for (gi, (label, vs)) in groups.iter().enumerate() {
        let gx = MARGIN_L + group_w * gi as f64 + group_w * 0.15;
        for (bi, &v) in vs.iter().enumerate() {
            let color = PALETTE[bi % PALETTE.len()];
            let x = gx + bar_w * bi as f64;
            let top = sy(v.max(0.0), ymax);
            let _ = write!(
                marks,
                "<rect x=\"{}\" y=\"{}\" width=\"{}\" height=\"{}\" fill=\"{color}\"/>\
                 <text x=\"{}\" y=\"{}\" class=\"barval\">{}</text>",
                fmt_px(x),
                fmt_px(top),
                fmt_px(bar_w - 2.0),
                fmt_px(CHART_H - MARGIN_B - top),
                fmt_px(x + (bar_w - 2.0) / 2.0),
                fmt_px(top - 4.0),
                fmt_num(v)
            );
        }
        let _ = write!(
            marks,
            "<text x=\"{}\" y=\"{}\" class=\"xtick\">{}</text>",
            fmt_px(gx + group_w * 0.35),
            fmt_px(CHART_H - MARGIN_B + 16.0),
            escape_html(label)
        );
    }
    chart_frame(title, None, y_label, ymax, |_| String::new(), &marks, bars)
}

// ---------------------------------------------------------------------
// Page assembly.
// ---------------------------------------------------------------------

const STYLE: &str = "body{font:14px/1.45 system-ui,sans-serif;max-width:700px;margin:2em auto;\
padding:0 1em;color:#222}h1{font-size:1.5em}h2{font-size:1.15em;margin-top:2em;\
border-bottom:1px solid #ddd;padding-bottom:.2em}svg{display:block;margin:1em 0}\
.title{font-size:13px;font-weight:600;text-anchor:middle}.grid{stroke:#eee}\
.axis{stroke:#444}.ytick{font-size:10px;text-anchor:end;fill:#555}\
.xtick{font-size:10px;text-anchor:middle;fill:#555}.legend{font-size:10px;fill:#333}\
.xlabel,.ylabel{font-size:11px;text-anchor:middle;fill:#333}\
.barval{font-size:9px;text-anchor:middle;fill:#333}\
p.meta{color:#666;font-size:13px}code{background:#f4f4f4;padding:0 .2em}";

/// Per-flow timeline panels from the telemetry log: one series per
/// connection, sharing the palette (conn i → color i mod 10).
fn flow_panels(log: &TelemetryLog) -> String {
    let n_conns = log.flows.iter().map(|f| f.conn + 1).max().unwrap_or(0) as usize;
    let mut cwnd: Vec<Series> = Vec::new();
    let mut srtt: Vec<Series> = Vec::new();
    let mut delivery: Vec<Series> = Vec::new();
    for c in 0..n_conns {
        cwnd.push(Series {
            label: format!("conn {c}"),
            points: Vec::new(),
        });
        srtt.push(Series {
            label: format!("conn {c}"),
            points: Vec::new(),
        });
        delivery.push(Series {
            label: format!("conn {c}"),
            points: Vec::new(),
        });
    }
    for f in &log.flows {
        let t = f.at.as_micros() as f64 / 1e6;
        let c = f.conn as usize;
        cwnd[c].points.push((t, f64::from(f.cwnd)));
        if f.srtt_us > 0 {
            srtt[c].points.push((t, f.srtt_us as f64 / 1e3));
        }
        delivery[c]
            .points
            .push((t, f.delivery_rate_bps as f64 / 1e6));
    }
    let queue: Vec<Series> = vec![Series {
        label: "queue".into(),
        points: log
            .queues
            .iter()
            .map(|q| (q.at.as_micros() as f64 / 1e6, f64::from(q.depth_pkts)))
            .collect(),
    }];
    let drops = log.queues.last().map(|q| q.dropped).unwrap_or(0);
    let mut out = String::new();
    out.push_str(&line_chart(
        "Congestion window per connection",
        "time (s)",
        "cwnd (packets)",
        &cwnd,
    ));
    out.push_str(&line_chart(
        "Smoothed RTT per connection",
        "time (s)",
        "srtt (ms)",
        &srtt,
    ));
    out.push_str(&line_chart(
        "Delivery rate per connection",
        "time (s)",
        "delivery rate (Mbps)",
        &delivery,
    ));
    out.push_str(&line_chart(
        &format!("Bottleneck queue depth ({drops} drops total)"),
        "time (s)",
        "queue depth (packets)",
        &queue,
    ));
    out
}

/// Fig. 2 panel: goodput vs connection count, one chart per CC, one
/// series per CPU config. `reports` must come from [`fig2::plan`]
/// (config-major, then connections, then Cubic before BBR).
fn fig2_panel(reports: &[RunReport]) -> String {
    let mut out = String::new();
    for (k, cc) in ["CUBIC", "BBR"].iter().enumerate() {
        let mut series = Vec::new();
        for (ci, config) in CpuConfig::ALL.iter().enumerate() {
            let mut points = Vec::new();
            for (ni, &conns) in CONN_SWEEP.iter().enumerate() {
                let idx = ci * CONN_SWEEP.len() * 2 + ni * 2 + k;
                points.push((conns as f64, reports[idx].goodput_mbps));
            }
            series.push(Series {
                label: config.to_string(),
                points,
            });
        }
        out.push_str(&line_chart(
            &format!("{cc} goodput vs connection count (Fig. 2)"),
            "connections",
            "goodput (Mbps)",
            &series,
        ));
    }
    out
}

/// Fig. 7 panel: paced vs unpaced p95 RTT per config, 20 connections.
/// `reports` must come from [`fig4::plan`] (per config, paced then unpaced).
fn fig7_panel(reports: &[RunReport]) -> String {
    let groups: Vec<(String, Vec<f64>)> = crate::params::CONSTRAINED
        .iter()
        .enumerate()
        .map(|(i, config)| {
            (
                config.to_string(),
                vec![reports[i * 2].p95_rtt_ms, reports[i * 2 + 1].p95_rtt_ms],
            )
        })
        .collect();
    bar_chart(
        "p95 RTT with and without pacing, BBR, 20 conns (Fig. 7)",
        "p95 RTT (ms)",
        &groups,
        &["paced", "unpaced"],
    )
}

/// Fleet panel: per-tier goodput distribution (p10/p50/p90 across each
/// tier's devices) from the canonical mixed-fleet run.
fn fleet_panel(fleet: &FleetResult) -> String {
    let groups: Vec<(String, Vec<f64>)> = fleet
        .tiers
        .iter()
        .map(|t| {
            (
                t.tier.clone(),
                vec![t.goodput_p10_mbps, t.goodput_p50_mbps, t.goodput_p90_mbps],
            )
        })
        .collect();
    bar_chart(
        &format!(
            "Per-device goodput by CPU tier ({} devices, CoDel uplink)",
            fleet.devices
        ),
        "goodput (Mbps)",
        &groups,
        &["p10", "p50", "p90"],
    )
}

fn render_html(
    params: &Params,
    goodput_mbps: f64,
    log: &TelemetryLog,
    fig2: &[RunReport],
    fig7: &[RunReport],
    fleet: &FleetResult,
) -> String {
    let mut html = String::new();
    html.push_str("<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">");
    html.push_str("<title>mobile-bbr run report</title>");
    let _ = write!(html, "<style>{STYLE}</style></head><body>");
    html.push_str("<h1>mobile-bbr run report</h1>");
    let _ = write!(
        html,
        "<p class=\"meta\">Self-contained report (inline SVG, no scripts, no network). \
         Parameters: {} seed(s) per point, {} s simulated per run, {} s warmup. \
         Canonical telemetry run: Low-End, 20 BBR connections, {} ms sample interval, \
         {:.1} Mbps aggregate goodput, {} flow rows, {} queue rows.</p>",
        params.seeds,
        fmt_num(params.duration.as_secs_f64()),
        fmt_num(params.warmup.as_secs_f64()),
        log.interval.as_micros() / 1_000,
        goodput_mbps,
        log.flows.len(),
        log.queues.len(),
    );

    html.push_str("<h2>Goodput vs connection count</h2>");
    html.push_str(
        "<p>The paper's Figure 2: aggregate goodput as connections scale, per CPU \
         configuration. BBR holds goodput under CPU pressure where CUBIC collapses.</p>",
    );
    html.push_str(&fig2_panel(fig2));

    html.push_str("<h2>The benefit of pacing</h2>");
    html.push_str(
        "<p>The paper's Figure 7: tail RTT with BBR's pacing on vs off. Without \
         pacing, line-rate bursts fill the bottleneck queue and p95 RTT inflates.</p>",
    );
    html.push_str(&fig7_panel(fig7));

    html.push_str("<h2>Fleet mode</h2>");
    let _ = write!(
        html,
        "<p>The canonical mixed fleet (PoP-scale extension): {} heterogeneous \
         devices competing through one CoDel-managed shared uplink. Aggregate \
         goodput {} Mbps, Jain's index across devices {}, pacing-penalty \
         fraction {}, {} shared-queue drops.</p>",
        fleet.devices,
        fmt_num(fleet.aggregate_goodput_mbps),
        fmt_num(fleet.jain_devices),
        fmt_num(fleet.pacing_penalty_fraction),
        fleet.shared_drops,
    );
    html.push_str(&fleet_panel(fleet));

    html.push_str("<h2>Per-flow timelines (canonical run)</h2>");
    html.push_str(
        "<p>Strip charts from the telemetry sampler on the canonical Low-End 20-connection \
         BBR run. Raw rows are in <code>flight.jsonl</code> (schema \
         <code>sim-telemetry/v1</code>) next to this file.</p>",
    );
    html.push_str(&flow_panels(log));

    html.push_str("</body></html>\n");
    html
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::time::SimDuration;
    use sim_core::trace::TraceKind;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("report-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn fmt_num_is_short_and_stable() {
        assert_eq!(fmt_num(12.0), "12");
        assert_eq!(fmt_num(3.5), "3.5");
        assert_eq!(fmt_num(0.254), "0.25");
        assert_eq!(fmt_num(0.0), "0");
        assert_eq!(fmt_num(-0.001), "0");
        assert_eq!(fmt_num(-1.5), "-1.5");
    }

    #[test]
    fn thinning_keeps_endpoints_and_bounds_length() {
        let pts: Vec<(f64, f64)> = (0..2000).map(|i| (i as f64, i as f64)).collect();
        let t = thin(&pts);
        assert!(t.len() <= MAX_POINTS + 1);
        assert_eq!(t.first(), pts.first());
        assert_eq!(t.last(), pts.last());
        let short = vec![(0.0, 1.0), (1.0, 2.0)];
        assert_eq!(thin(&short), short);
    }

    #[test]
    fn line_chart_handles_empty_series() {
        let svg = line_chart("empty", "x", "y", &[]);
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>"));
    }

    /// A run long enough to wrap the CPU ring: the census says the log
    /// dropped records, while the cycle table stays the CPU model's exact
    /// tally — not the lower sum over the `cpu_span`s that survived, which
    /// a reader of the ring would print — and each per-connection row is
    /// that flow's `ConnStats` and last telemetry row.
    #[test]
    fn cycle_table_is_exact_when_the_cpu_ring_wraps() {
        let mut p = Params::smoke();
        p.duration = SimDuration::from_secs(3);
        let cfg = p.pixel4(CpuConfig::HighEnd, CcKind::Bbr, 20);
        let observed = StackSim::new(cfg).run_observed(Instruments {
            trace: true,
            telemetry: true,
        });
        let (result, log) = (observed.result, observed.trace.expect("traced"));
        let flight = observed.telemetry.expect("sampled");
        let spans: Vec<u64> = (log.events.iter())
            .filter(|r| r.kind == TraceKind::CpuSpan)
            .map(|r| r.b)
            .collect();
        assert!(log.dropped > 0);
        assert_eq!(
            spans.len(),
            sim_core::trace::DEFAULT_CAPACITY,
            "CPU ring wrapped"
        );

        let summary = summarize(&result, &log, &flight);
        let total = result.cpu.total_cycles;
        let header = |cycles: u64| format!("({:.1} Mcycles total)", cycles as f64 / 1e6);
        assert!(summary.contains(&header(total)), "{summary}");
        let rows = &result.cpu.cycles_by_category;
        assert_eq!(summary.matches(" Mcycles  ").count(), rows.len());
        for (cat, &c) in rows {
            let row = format!(
                "  {:>10.1} Mcycles  {:>5.1} %  {cat}\n",
                c as f64 / 1e6,
                100.0 * c as f64 / total as f64
            );
            assert!(summary.contains(&row), "missing {row:?} in {summary}");
        }
        let surviving: u64 = spans.iter().sum();
        assert!(surviving < total, "{surviving} >= {total}");
        assert!(!summary.contains(&header(surviving)), "ring sum printed");
        assert!(summary.contains(&format!("the trace rings dropped {} records", log.dropped)));

        let table: Vec<Vec<&str>> = (summary.lines())
            .skip_while(|l| !l.trim_start().starts_with("conn "))
            .skip(1)
            .take_while(|l| !l.starts_with("note:"))
            .map(|l| l.split_whitespace().collect())
            .collect();
        assert_eq!(table.len(), result.per_conn.len(), "{summary}");
        for (conn, (row, stats)) in table.iter().zip(&result.per_conn).enumerate() {
            let last = (flight.flows.iter().rev())
                .find(|f| f.conn as usize == conn)
                .expect("every flow was sampled");
            assert_eq!(row[0], conn.to_string());
            assert_eq!(row[1], stats.skbs_sent.to_string(), "skbs, conn {conn}");
            assert_eq!(row[4], stats.retx_pkts.to_string(), "retx, conn {conn}");
            assert_eq!(row[7], last.cwnd.to_string(), "cwnd, conn {conn}");
            assert_eq!(row[9], last.phase, "phase, conn {conn}");
        }
        assert!(
            table.iter().any(|row| row[4] != "0"),
            "some flow retransmitted"
        );
    }

    #[test]
    fn report_is_self_contained_and_deterministic_across_jobs() {
        let mut p1 = Params::smoke();
        p1.threads = 1;
        let d1 = temp_dir("jobs1");
        let f1 = generate(&p1, &d1).expect("report generates");

        let mut p4 = Params::smoke();
        p4.threads = 4;
        let d4 = temp_dir("jobs4");
        let f4 = generate(&p4, &d4).expect("report generates");

        for (a, b) in f1.files().iter().zip(f4.files().iter()) {
            let ba = std::fs::read(a).expect("read artifact");
            let bb = std::fs::read(b).expect("read artifact");
            assert_eq!(
                ba,
                bb,
                "{} differs between --jobs 1 and --jobs 4",
                a.display()
            );
        }

        let html = std::fs::read_to_string(&f1.html).expect("read html");
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.trim_end().ends_with("</html>"));
        assert_eq!(html.matches("<svg").count(), html.matches("</svg>").count());
        assert!(
            html.matches("<svg").count() >= 8,
            "fig2 (2) + fig7 (1) + fleet (1) + timelines (4)"
        );
        assert!(
            !html.contains("<script"),
            "report must not contain JavaScript"
        );
        assert!(
            !html.contains("http://") || !html.contains("href="),
            "no external links"
        );
        assert!(!html.contains("https://"), "no external fetches");

        let flight = std::fs::read_to_string(&f1.flight_jsonl).expect("read flight data");
        let header = flight.lines().next().expect("flight data has a header");
        assert!(header.contains("\"schema\":\"sim-telemetry/v1\""));

        let trace = std::fs::read_to_string(&f1.trace_json).expect("read trace");
        serde_json::from_str(&trace).expect("trace.json is one JSON document");
        assert!(trace.contains("\"ph\":\"X\""), "cpu spans present");
        assert!(
            trace.contains("\"name\":\"cycles."),
            "cycle counter series present"
        );
        assert_eq!(f1.summary, f4.summary);
        assert!(f1.summary.contains("modelled CPU by category"));

        let _ = std::fs::remove_dir_all(&d1);
        let _ = std::fs::remove_dir_all(&d4);
    }
}
