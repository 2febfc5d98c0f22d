//! Flight-data telemetry: fixed-interval sim-time sampling of per-flow and
//! queue state.
//!
//! Where [`crate::trace`] is a flight recorder for *events* (every timer
//! fire, every state transition, bounded ring), telemetry is a strip chart
//! for *state*: at a fixed simulated-time interval the simulator snapshots
//! each flow's cwnd, inflight, pacing rate, srtt, delivery rate, and CC
//! phase, plus the bottleneck queue depth and cumulative drops. The samples
//! feed the `repro --observe` pipeline (per-flow timelines, Fig. 2/Fig. 7
//! style panels) and export as JSONL or CSV flight data.
//!
//! # Design constraints
//!
//! * **One branch when disabled.** All sampling goes through
//!   [`TelemetrySink`]; with no buffer attached (the default at runtime),
//!   the per-batch check is a single branch on a `None`.
//! * **Observation only.** The sink never schedules events: the simulation
//!   loop polls [`TelemetrySink::next_due`] against timestamps it was going
//!   to process anyway, so enabling sampling perturbs no event ordering, no
//!   RNG stream, and no counter — results are byte-identical with sampling
//!   on or off.
//! * **Deterministic.** Samples are stamped with the *nominal* sample
//!   instant (a multiple of the interval), not the wall of whichever event
//!   triggered the poll, and rows are recorded in a fixed order (flows by
//!   connection id, then the queue row). Export is therefore a pure
//!   function of the run.
//!
//! # Sampling model
//!
//! The event loop asks `next_due()` before dispatching each batch of events
//! at time `t`. While the due instant is `<= t`, the simulator snapshots
//! state — which is exactly the state at the nominal instant, because no
//! event fired between the previous batch and `t` — then calls
//! [`TelemetrySink::advance`]. Long idle gaps thus produce one sample per
//! elapsed interval, each reflecting the (unchanged) state during the gap.

use crate::time::{SimDuration, SimTime};
use crate::trace::escape_json;
use std::io::{self, Write};

/// One per-flow state snapshot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowSample {
    /// Nominal sample instant.
    pub at: SimTime,
    /// Connection id.
    pub conn: u32,
    /// Congestion window, packets.
    pub cwnd: u32,
    /// Packets in flight.
    pub inflight: u32,
    /// Pacing rate in bits/sec (0 when the CC does not pace).
    pub pacing_rate_bps: u64,
    /// Smoothed RTT in microseconds (0 before the first measurement).
    pub srtt_us: u64,
    /// Delivery rate in bits/sec (0 before the first measurement).
    pub delivery_rate_bps: u64,
    /// Congestion-control phase name (e.g. `"ProbeBW"`, `"cubic"`).
    pub phase: &'static str,
}

/// One bottleneck-queue snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueSample {
    /// Nominal sample instant.
    pub at: SimTime,
    /// Packets queued at the bottleneck.
    pub depth_pkts: u32,
    /// Cumulative droptail drops since the run started.
    pub dropped: u64,
}

/// Default cap on stored samples (flow + queue rows combined). At the
/// default 10 ms interval with 20 flows this is ≈ 4 minutes of sim time.
pub const DEFAULT_MAX_SAMPLES: usize = 1 << 20;

/// The collected samples of one run, ready for export.
#[derive(Debug, Clone)]
pub struct TelemetryLog {
    /// Sample interval the run used.
    pub interval: SimDuration,
    /// Per-flow rows in record order (time-major, connection-minor).
    pub flows: Vec<FlowSample>,
    /// Queue rows in record order (one per sample instant).
    pub queues: Vec<QueueSample>,
    /// Rows discarded after the sample cap was hit.
    pub dropped_rows: u64,
}

/// Storage behind an enabled [`TelemetrySink`].
#[derive(Debug)]
pub struct TelemetryBuffer {
    interval: SimDuration,
    next_due: SimTime,
    max_samples: usize,
    flows: Vec<FlowSample>,
    queues: Vec<QueueSample>,
    dropped_rows: u64,
}

impl TelemetryBuffer {
    fn new(interval: SimDuration, max_samples: usize) -> Self {
        TelemetryBuffer {
            interval,
            next_due: SimTime::ZERO,
            max_samples,
            flows: Vec::new(),
            queues: Vec::new(),
            dropped_rows: 0,
        }
    }

    fn len(&self) -> usize {
        self.flows.len() + self.queues.len()
    }

    fn into_log(self) -> TelemetryLog {
        TelemetryLog {
            interval: self.interval,
            flows: self.flows,
            queues: self.queues,
            dropped_rows: self.dropped_rows,
        }
    }
}

/// Sampling hook owned by the simulation. See the module docs for the
/// cost contract; this mirrors [`crate::trace::TraceSink`].
#[derive(Debug, Default)]
pub struct TelemetrySink {
    buf: Option<Box<TelemetryBuffer>>,
}

impl TelemetrySink {
    /// A sink that records nothing. This is a `const fn` so simulations can
    /// embed a disabled sink with zero initialization cost.
    pub const fn disabled() -> Self {
        TelemetrySink { buf: None }
    }

    /// Attach a buffer sampling every `interval`, keeping at most
    /// `max_samples` rows.
    pub fn enable(&mut self, interval: SimDuration, max_samples: usize) {
        assert!(!interval.is_zero(), "telemetry interval must be non-zero");
        self.buf = Some(Box::new(TelemetryBuffer::new(interval, max_samples)));
    }

    /// Whether samples are currently being collected.
    #[inline(always)]
    pub fn is_enabled(&self) -> bool {
        self.buf.is_some()
    }

    /// The next nominal sample instant, or `None` when disabled. The event
    /// loop polls this against each batch timestamp; a due instant means
    /// "snapshot state now, stamped with this instant".
    #[inline(always)]
    pub fn next_due(&self) -> Option<SimTime> {
        self.buf.as_ref().map(|b| b.next_due)
    }

    /// Advance past the current due instant after sampling it.
    #[inline]
    pub fn advance(&mut self) {
        if let Some(b) = self.buf.as_mut() {
            b.next_due += b.interval;
        }
    }

    /// Record one per-flow snapshot.
    #[inline]
    pub fn flow(&mut self, sample: FlowSample) {
        if let Some(b) = self.buf.as_mut() {
            if b.len() < b.max_samples {
                b.flows.push(sample);
            } else {
                b.dropped_rows += 1;
            }
        }
    }

    /// Record one queue snapshot.
    #[inline]
    pub fn queue(&mut self, sample: QueueSample) {
        if let Some(b) = self.buf.as_mut() {
            if b.len() < b.max_samples {
                b.queues.push(sample);
            } else {
                b.dropped_rows += 1;
            }
        }
    }

    /// Detach and return the collected samples, leaving the sink disabled.
    /// `None` if the sink was never enabled.
    pub fn take(&mut self) -> Option<TelemetryLog> {
        self.buf.take().map(|b| b.into_log())
    }
}

/// Write the log as JSONL flight data (`sim-telemetry/v1`).
///
/// Line 1 is a header object; each subsequent line is either a flow row
/// (`"kind":"flow"`) or a queue row (`"kind":"queue"`). Rows are merged by
/// timestamp with flow rows (in connection order) before the queue row at
/// the same instant — the order they were recorded in, so the merge is a
/// deterministic two-pointer walk.
pub fn write_jsonl<W: Write>(log: &TelemetryLog, w: &mut W) -> io::Result<()> {
    let mut line = String::new();
    line.push_str(&format!(
        "{{\"schema\":\"sim-telemetry/v1\",\"interval_us\":{},\"flow_rows\":{},\"queue_rows\":{},\"dropped_rows\":{}}}\n",
        log.interval.as_micros(),
        log.flows.len(),
        log.queues.len(),
        log.dropped_rows,
    ));
    w.write_all(line.as_bytes())?;

    let mut qi = 0usize;
    let write_queue = |w: &mut W, q: &QueueSample| -> io::Result<()> {
        let mut line = String::new();
        line.push_str(&format!(
            "{{\"kind\":\"queue\",\"t_us\":{},\"depth_pkts\":{},\"drops\":{}}}\n",
            q.at.as_micros(),
            q.depth_pkts,
            q.dropped,
        ));
        w.write_all(line.as_bytes())
    };
    for f in &log.flows {
        // Queue rows strictly before this flow row's instant come first;
        // the queue row *at* the same instant was recorded after the flows.
        while qi < log.queues.len() && log.queues[qi].at < f.at {
            write_queue(w, &log.queues[qi])?;
            qi += 1;
        }
        line.clear();
        line.push_str(&format!(
            "{{\"kind\":\"flow\",\"t_us\":{},\"conn\":{},\"cwnd\":{},\"inflight\":{},\"pacing_bps\":{},\"srtt_us\":{},\"delivery_bps\":{},\"phase\":\"",
            f.at.as_micros(),
            f.conn,
            f.cwnd,
            f.inflight,
            f.pacing_rate_bps,
            f.srtt_us,
            f.delivery_rate_bps,
        ));
        escape_json(f.phase, &mut line);
        line.push_str("\"}\n");
        w.write_all(line.as_bytes())?;
    }
    while qi < log.queues.len() {
        write_queue(w, &log.queues[qi])?;
        qi += 1;
    }
    Ok(())
}

/// Write the per-flow rows as CSV (header + one row per sample).
pub fn write_flows_csv<W: Write>(log: &TelemetryLog, w: &mut W) -> io::Result<()> {
    w.write_all(b"t_us,conn,cwnd,inflight,pacing_bps,srtt_us,delivery_bps,phase\n")?;
    for f in &log.flows {
        let row = format!(
            "{},{},{},{},{},{},{},{}\n",
            f.at.as_micros(),
            f.conn,
            f.cwnd,
            f.inflight,
            f.pacing_rate_bps,
            f.srtt_us,
            f.delivery_rate_bps,
            f.phase,
        );
        w.write_all(row.as_bytes())?;
    }
    Ok(())
}

/// Write the queue rows as CSV (header + one row per sample instant).
pub fn write_queue_csv<W: Write>(log: &TelemetryLog, w: &mut W) -> io::Result<()> {
    w.write_all(b"t_us,depth_pkts,drops\n")?;
    for q in &log.queues {
        let row = format!("{},{},{}\n", q.at.as_micros(), q.depth_pkts, q.dropped);
        w.write_all(row.as_bytes())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_log() -> TelemetryLog {
        let mut sink = TelemetrySink::disabled();
        assert!(!sink.is_enabled());
        assert_eq!(sink.next_due(), None);
        sink.enable(SimDuration::from_millis(10), DEFAULT_MAX_SAMPLES);
        assert!(sink.is_enabled());
        assert_eq!(sink.next_due(), Some(SimTime::ZERO));
        for tick in 0..3u64 {
            let at = SimTime::from_millis(tick * 10);
            assert_eq!(sink.next_due(), Some(at));
            for conn in 0..2u32 {
                sink.flow(FlowSample {
                    at,
                    conn,
                    cwnd: 10 + tick as u32,
                    inflight: 5,
                    pacing_rate_bps: 1_000_000,
                    srtt_us: 40_000,
                    delivery_rate_bps: 900_000,
                    phase: "ProbeBW",
                });
            }
            sink.queue(QueueSample {
                at,
                depth_pkts: tick as u32,
                dropped: 0,
            });
            sink.advance();
        }
        sink.take().expect("enabled sink yields a log")
    }

    #[test]
    fn sink_collects_in_record_order() {
        let log = sample_log();
        assert_eq!(log.flows.len(), 6);
        assert_eq!(log.queues.len(), 3);
        assert_eq!(log.dropped_rows, 0);
        assert_eq!(log.flows[0].conn, 0);
        assert_eq!(log.flows[1].conn, 1);
        assert_eq!(log.flows[2].at, SimTime::from_millis(10));
    }

    #[test]
    fn disabled_sink_is_inert() {
        let mut sink = TelemetrySink::disabled();
        sink.flow(FlowSample {
            at: SimTime::ZERO,
            conn: 0,
            cwnd: 0,
            inflight: 0,
            pacing_rate_bps: 0,
            srtt_us: 0,
            delivery_rate_bps: 0,
            phase: "x",
        });
        assert!(sink.take().is_none());
    }

    #[test]
    fn sample_cap_counts_dropped_rows() {
        let mut sink = TelemetrySink::disabled();
        sink.enable(SimDuration::from_millis(1), 2);
        for i in 0..5u32 {
            sink.queue(QueueSample {
                at: SimTime::from_millis(i as u64),
                depth_pkts: i,
                dropped: 0,
            });
        }
        let log = sink.take().unwrap();
        assert_eq!(log.queues.len(), 2);
        assert_eq!(log.dropped_rows, 3);
    }

    #[test]
    #[should_panic(expected = "interval must be non-zero")]
    fn zero_interval_panics() {
        TelemetrySink::disabled().enable(SimDuration::ZERO, 8);
    }

    #[test]
    fn jsonl_is_deterministic_and_parseable() {
        let log = sample_log();
        let mut a = Vec::new();
        let mut b = Vec::new();
        write_jsonl(&log, &mut a).unwrap();
        write_jsonl(&log, &mut b).unwrap();
        assert_eq!(a, b, "two renders must be byte-identical");
        let text = String::from_utf8(a).unwrap();
        let mut lines = text.lines();
        let header = serde_json::from_str(lines.next().unwrap()).unwrap();
        assert_eq!(
            header.get("schema").and_then(|s| s.as_str()),
            Some("sim-telemetry/v1")
        );
        let mut flows = 0;
        let mut queues = 0;
        for l in lines {
            let v = serde_json::from_str(l).expect("valid JSON line");
            match v.get("kind").and_then(|k| k.as_str()) {
                Some("flow") => flows += 1,
                Some("queue") => queues += 1,
                other => panic!("unexpected kind {other:?}"),
            }
        }
        assert_eq!(flows, 6);
        assert_eq!(queues, 3);
    }

    #[test]
    fn jsonl_interleaves_queue_rows_after_flows_at_same_instant() {
        let log = sample_log();
        let mut out = Vec::new();
        write_jsonl(&log, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let kinds: Vec<&str> = text
            .lines()
            .skip(1)
            .map(|l| if l.contains("\"queue\"") { "q" } else { "f" })
            .collect();
        assert_eq!(kinds, ["f", "f", "q", "f", "f", "q", "f", "f", "q"]);
    }

    #[test]
    fn csv_headers_and_rows() {
        let log = sample_log();
        let mut out = Vec::new();
        write_flows_csv(&log, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("t_us,conn,cwnd,"));
        assert_eq!(text.lines().count(), 7);
        let mut out = Vec::new();
        write_queue_csv(&log, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("t_us,depth_pkts,drops\n"));
        assert_eq!(text.lines().count(), 4);
    }
}
