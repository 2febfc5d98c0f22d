//! `sim-trace`: flight-recorder tracing for the simulation engine.
//!
//! The paper's evidence is observability — Fig. 4/5 are CPU profiles
//! attributing cycles to pacing-timer fires, and §5 is diagnosed by watching
//! per-flow pacing/cwnd dynamics. This module is the substrate for showing
//! that *mechanism* rather than only asserting end-of-run aggregates:
//! tracepoints in the hot paths record into fixed-capacity ring buffers that
//! are merged into a [`TraceLog`] and exported as Chrome/Perfetto
//! trace-event JSON.
//!
//! # Design constraints
//!
//! * **One branch when disabled.** All tracepoints go through
//!   [`TraceSink`]; with no buffer attached (the default at runtime), each
//!   tracepoint is a single branch on a `None`.
//! * **Deterministic.** Timestamps are [`SimTime`] — never wall clock — and
//!   each simulation owns its buffers, so a trace is a pure function of the
//!   simulated run and bit-identical across `--jobs N` worker placements.
//! * **No allocation in steady state.** [`TraceBuffer`] pre-allocates its
//!   full capacity up front and overwrites the oldest records when full
//!   (flight-recorder semantics), counting what it dropped.
//!
//! # Record model
//!
//! A [`TraceRecord`] is 32 bytes: a timestamp, a [`TraceKind`], and three
//! small integer operands (`conn`, `a`, `b`) whose meaning is per-kind (see
//! [`TraceKind`]). Kinds that carry strings (CPU span categories, CC phase
//! names) intern `&'static str`s into a per-buffer table and store the index;
//! [`TraceLog::merge`] rebuilds a unified table when buffers are combined.
//!
//! # Export
//!
//! [`write_chrome`] writes Chrome trace-event JSON, loadable in Perfetto /
//! `chrome://tracing`. CPU spans become complete (`ph:"X"`) events,
//! cwnd/pacing-rate updates and counter series become counter (`ph:"C"`)
//! tracks, per-connection events become instants on one track per
//! connection. Summaries of a run read the in-memory [`TraceLog`], never
//! the exported file.

use crate::time::SimTime;
use std::io::{self, Write};

/// Default ring capacity per trace buffer (records). At 32 bytes per record
/// this is 8 MiB per domain — enough for several seconds of a 20-connection
/// run before the flight recorder starts overwriting.
pub const DEFAULT_CAPACITY: usize = 1 << 18;

/// What a [`TraceRecord`] describes, and how to read its operands.
///
/// Operand meaning per kind (`-` = unused, zero):
///
/// | kind           | `conn`        | `a`                 | `b`          |
/// |----------------|---------------|---------------------|--------------|
/// | `PacingFire`   | connection    | -                   | -            |
/// | `TimerArm`     | connection    | deadline (ns)       | -            |
/// | `SegTx`        | connection    | packets             | bytes        |
/// | `SegRetx`      | connection    | packets             | bytes        |
/// | `AckRx`        | connection    | newly-acked bytes   | RTT (ns)     |
/// | `CwndUpdate`   | connection    | cwnd (bytes)        | -            |
/// | `PacingRate`   | connection    | rate (bits/sec)     | -            |
/// | `CcPhase`      | connection    | from (string id)    | to (string id)|
/// | `StrideAdapt`  | -             | old stride          | new stride   |
/// | `RtoFire`      | connection    | backoff exponent    | -            |
/// | `CpuSpan`      | category (string id) | span end (ns) | cycles      |
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum TraceKind {
    /// A pacing timer fired and released a send.
    PacingFire,
    /// A pacing timer was armed.
    TimerArm,
    /// Segments were transmitted (first transmission).
    SegTx,
    /// Segments were retransmitted.
    SegRetx,
    /// An ACK arrived and was processed.
    AckRx,
    /// The congestion window changed.
    CwndUpdate,
    /// The CC pacing rate changed.
    PacingRate,
    /// The congestion controller changed phase (e.g. Startup → Drain).
    CcPhase,
    /// The TSQ autosizing governor changed the pacing stride.
    StrideAdapt,
    /// A retransmission timeout fired.
    RtoFire,
    /// The modelled CPU executed a span of work.
    CpuSpan,
}

impl TraceKind {
    /// Stable snake_case name (Chrome instant names, event census).
    pub const fn name(self) -> &'static str {
        match self {
            TraceKind::PacingFire => "pacing_fire",
            TraceKind::TimerArm => "timer_arm",
            TraceKind::SegTx => "seg_tx",
            TraceKind::SegRetx => "seg_retx",
            TraceKind::AckRx => "ack_rx",
            TraceKind::CwndUpdate => "cwnd_update",
            TraceKind::PacingRate => "pacing_rate",
            TraceKind::CcPhase => "cc_phase",
            TraceKind::StrideAdapt => "stride_adapt",
            TraceKind::RtoFire => "rto_fire",
            TraceKind::CpuSpan => "cpu_span",
        }
    }

    /// Which operands hold string-table indices: `(conn, a, b)`.
    pub(crate) const fn interned_operands(self) -> (bool, bool, bool) {
        match self {
            TraceKind::CcPhase => (false, true, true),
            TraceKind::CpuSpan => (true, false, false),
            _ => (false, false, false),
        }
    }
}

/// One trace event. 32 bytes; operand meaning is defined by [`TraceKind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Simulated time the event happened.
    pub at: SimTime,
    /// What happened.
    pub kind: TraceKind,
    /// Connection id, or a string-table index for [`TraceKind::CpuSpan`].
    pub conn: u32,
    /// First operand (see [`TraceKind`]).
    pub a: u64,
    /// Second operand (see [`TraceKind`]).
    pub b: u64,
}

/// A fixed-capacity flight-recorder ring of [`TraceRecord`]s.
///
/// Capacity is allocated once at construction; when full, the oldest record
/// is overwritten and `dropped` is incremented. "Oldest" means first
/// pushed, not earliest `at`: the stack stamps some records at
/// CPU-completion times, which run ahead of the event clock, so a buffer
/// need not be in time order. [`TraceLog::merge`] stable-sorts by `at`.
#[derive(Debug)]
pub struct TraceBuffer {
    records: Vec<TraceRecord>,
    cap: usize,
    /// Write cursor when full: index of the oldest (next overwritten) record.
    head: usize,
    dropped: u64,
    strings: Vec<&'static str>,
}

impl TraceBuffer {
    /// A ring holding at most `capacity` records (at least 1).
    pub(crate) fn new(capacity: usize) -> Self {
        let cap = capacity.max(1);
        TraceBuffer {
            records: Vec::with_capacity(cap),
            cap,
            head: 0,
            dropped: 0,
            strings: Vec::new(),
        }
    }

    /// Append a record, overwriting the oldest if the ring is full.
    #[inline]
    pub(crate) fn push(&mut self, rec: TraceRecord) {
        if self.records.len() < self.cap {
            self.records.push(rec);
        } else {
            self.records[self.head] = rec;
            self.head += 1;
            if self.head == self.cap {
                self.head = 0;
            }
            self.dropped += 1;
        }
    }

    /// Intern a static string, returning its stable index in this buffer.
    ///
    /// Linear search: tracepoints intern a handful of distinct strings (CPU
    /// cost categories, CC phase names), so this is a short scan of a tiny
    /// vector — no hashing on the hot path.
    #[inline]
    pub(crate) fn intern(&mut self, s: &'static str) -> u64 {
        if let Some(i) = self
            .strings
            .iter()
            .position(|&x| std::ptr::eq(x, s) || x == s)
        {
            return i as u64;
        }
        self.strings.push(s);
        (self.strings.len() - 1) as u64
    }

    /// Consume the ring, returning records oldest-first.
    fn into_ordered(self) -> (Vec<TraceRecord>, Vec<&'static str>, u64) {
        let mut records = self.records;
        if self.dropped > 0 {
            records.rotate_left(self.head);
        }
        (records, self.strings, self.dropped)
    }
}

/// A tracepoint target that may or may not be recording.
///
/// Instrumented structs own a `TraceSink` and call [`TraceSink::record`]
/// unconditionally at each tracepoint: recording costs one branch until a
/// buffer is attached with [`TraceSink::enable`].
#[derive(Debug, Default)]
pub struct TraceSink {
    buf: Option<Box<TraceBuffer>>,
}

impl TraceSink {
    /// A sink that records nothing (the default for every simulation).
    pub const fn disabled() -> Self {
        TraceSink { buf: None }
    }

    /// Attach a fresh ring of `capacity` records.
    pub fn enable(&mut self, capacity: usize) {
        self.buf = Some(Box::new(TraceBuffer::new(capacity)));
    }

    /// True if a buffer is attached and records are being kept. Guard a
    /// tracepoint's argument preparation behind this.
    #[inline(always)]
    pub fn is_enabled(&self) -> bool {
        self.buf.is_some()
    }

    /// Record one event (dropped silently when not enabled).
    #[inline(always)]
    pub fn record(&mut self, at: SimTime, kind: TraceKind, conn: u32, a: u64, b: u64) {
        if let Some(buf) = self.buf.as_mut() {
            buf.push(TraceRecord {
                at,
                kind,
                conn,
                a,
                b,
            });
        }
    }

    /// Intern a string into the attached buffer (0 when not enabled).
    #[inline(always)]
    pub fn intern(&mut self, s: &'static str) -> u64 {
        match self.buf.as_mut() {
            Some(buf) => buf.intern(s),
            None => 0,
        }
    }

    /// Detach and return the buffer, leaving the sink disabled.
    pub fn take(&mut self) -> Option<TraceBuffer> {
        self.buf.take().map(|b| *b)
    }
}

/// A named time series of sampled values (e.g. per-window CPU cycles),
/// carried alongside point events in a [`TraceLog`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSeries {
    /// Series name, e.g. `cycles.timers`.
    pub name: String,
    /// `(window start, value)` points in ascending time order.
    pub points: Vec<(SimTime, u64)>,
}

/// A complete, merged trace of one simulated run.
#[derive(Debug, Default)]
pub struct TraceLog {
    /// All records in ascending `(at, domain, intra-domain order)` order.
    pub events: Vec<TraceRecord>,
    /// Unified string table; records index into it (see
    /// `TraceKind::interned_operands`).
    pub strings: Vec<&'static str>,
    /// Total records overwritten across all source rings.
    pub dropped: u64,
    /// Auxiliary counter series (e.g. the windowed CPU profile).
    pub counters: Vec<CounterSeries>,
}

impl TraceLog {
    /// Merge per-domain buffers into one time-ordered log.
    ///
    /// Buffers need not be internally time-ordered: the TCP stack stamps
    /// some records at CPU-completion times, which run ahead of the event
    /// clock, so a later handler can record an earlier timestamp. The
    /// merge stable-sorts by `at`; ties break by the position of the
    /// buffer in `buffers` (pass them in a fixed order — the simulator
    /// uses CPU, then stack) and then by insertion order within a
    /// buffer, so the merged order is fully deterministic.
    pub fn merge(buffers: Vec<TraceBuffer>) -> TraceLog {
        let mut strings: Vec<&'static str> = Vec::new();
        let mut intern = |s: &'static str| -> u64 {
            if let Some(i) = strings.iter().position(|&x| x == s) {
                return i as u64;
            }
            strings.push(s);
            (strings.len() - 1) as u64
        };
        let mut dropped = 0u64;
        let mut events: Vec<TraceRecord> = Vec::new();
        for buf in buffers {
            let (mut records, local, d) = buf.into_ordered();
            dropped += d;
            // Remap this buffer's string ids into the unified table.
            let map: Vec<u64> = local.iter().map(|&s| intern(s)).collect();
            for rec in &mut records {
                let (c, a, b) = rec.kind.interned_operands();
                if c {
                    rec.conn = map.get(rec.conn as usize).copied().unwrap_or(0) as u32;
                }
                if a {
                    rec.a = map.get(rec.a as usize).copied().unwrap_or(0);
                }
                if b {
                    rec.b = map.get(rec.b as usize).copied().unwrap_or(0);
                }
            }
            events.extend(records);
        }
        // Concatenation order is (buffer position, insertion order); a
        // stable sort by time alone preserves exactly that order for ties.
        events.sort_by_key(|rec| rec.at);
        TraceLog {
            events,
            strings,
            dropped,
            counters: Vec::new(),
        }
    }

    /// Resolve an interned string id (empty string if out of range).
    pub(crate) fn string(&self, id: u64) -> &'static str {
        self.strings.get(id as usize).copied().unwrap_or("")
    }
}

/// Escape a string for embedding in a JSON string literal — the one
/// escaper behind the trace and telemetry writers.
///
/// Exported strings are static identifiers (category, phase and series
/// names), but the writers escape defensively so the output is always
/// valid JSON.
pub(crate) fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Write a [`TraceLog`] in Chrome trace-event JSON, loadable in Perfetto or
/// `chrome://tracing`.
///
/// Mapping: CPU spans → complete (`ph:"X"`) events on a dedicated "cpu"
/// track, named by cost category; cwnd / pacing-rate updates and counter
/// series → counter (`ph:"C"`) tracks; stride changes → instants on the
/// "cpu" track; per-connection point events → instants on one track per
/// connection. Timestamps are microseconds (`ts`/`dur` may be fractional).
pub fn write_chrome<W: Write>(log: &TraceLog, w: &mut W) -> io::Result<()> {
    const TID_CPU: u32 = 0;
    const TID_CONN_BASE: u32 = 1;
    w.write_all(b"{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")?;
    let mut first = true;
    let emit = |w: &mut W, line: &str, first: &mut bool| -> io::Result<()> {
        if !*first {
            w.write_all(b",\n")?;
        }
        *first = false;
        w.write_all(line.as_bytes())
    };
    // Track name metadata.
    let mut max_conn = 0u32;
    for rec in &log.events {
        let (ic, _, _) = rec.kind.interned_operands();
        if !ic && rec.kind != TraceKind::StrideAdapt {
            max_conn = max_conn.max(rec.conn);
        }
    }
    let meta = |w: &mut W, tid: u32, name: &str, first: &mut bool| -> io::Result<()> {
        let mut l = String::new();
        l.push_str("{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":");
        l.push_str(&tid.to_string());
        l.push_str(",\"args\":{\"name\":\"");
        escape_json(name, &mut l);
        l.push_str("\"}}");
        emit(w, &l, first)
    };
    meta(w, TID_CPU, "cpu", &mut first)?;
    for c in 0..=max_conn {
        meta(w, TID_CONN_BASE + c, &format!("conn {c}"), &mut first)?;
    }

    let ts = |t: SimTime| -> String {
        let ns = t.as_nanos();
        if ns.is_multiple_of(1000) {
            (ns / 1000).to_string()
        } else {
            format!("{}.{:03}", ns / 1000, ns % 1000)
        }
    };
    let mut line = String::with_capacity(160);
    for rec in &log.events {
        line.clear();
        match rec.kind {
            TraceKind::CpuSpan => {
                // conn = category string id, a = end ns, b = cycles.
                let dur_ns = rec.a.saturating_sub(rec.at.as_nanos());
                line.push_str("{\"ph\":\"X\",\"name\":\"");
                escape_json(log.string(rec.conn as u64), &mut line);
                line.push_str("\",\"cat\":\"cpu\",\"pid\":1,\"tid\":0,\"ts\":");
                line.push_str(&ts(rec.at));
                line.push_str(",\"dur\":");
                line.push_str(&ts(SimTime::from_nanos(dur_ns)));
                line.push_str(",\"args\":{\"cycles\":");
                line.push_str(&rec.b.to_string());
                line.push_str("}}");
            }
            TraceKind::CwndUpdate | TraceKind::PacingRate => {
                let (metric, unit) = if rec.kind == TraceKind::CwndUpdate {
                    ("cwnd", "bytes")
                } else {
                    ("pacing_rate", "bps")
                };
                line.push_str("{\"ph\":\"C\",\"name\":\"");
                line.push_str(metric);
                line.push_str("/conn");
                line.push_str(&rec.conn.to_string());
                line.push_str("\",\"pid\":1,\"tid\":0,\"ts\":");
                line.push_str(&ts(rec.at));
                line.push_str(",\"args\":{\"");
                line.push_str(unit);
                line.push_str("\":");
                line.push_str(&rec.a.to_string());
                line.push_str("}}");
            }
            TraceKind::StrideAdapt => {
                line.push_str("{\"ph\":\"i\",\"s\":\"t\",\"name\":\"stride ");
                line.push_str(&rec.a.to_string());
                line.push_str("->");
                line.push_str(&rec.b.to_string());
                line.push_str("\",\"pid\":1,\"tid\":0,\"ts\":");
                line.push_str(&ts(rec.at));
                line.push('}');
            }
            TraceKind::CcPhase => {
                line.push_str("{\"ph\":\"i\",\"s\":\"t\",\"name\":\"");
                escape_json(log.string(rec.a), &mut line);
                line.push_str("->");
                escape_json(log.string(rec.b), &mut line);
                line.push_str("\",\"pid\":1,\"tid\":");
                line.push_str(&(TID_CONN_BASE + rec.conn).to_string());
                line.push_str(",\"ts\":");
                line.push_str(&ts(rec.at));
                line.push('}');
            }
            _ => {
                line.push_str("{\"ph\":\"i\",\"s\":\"t\",\"name\":\"");
                line.push_str(rec.kind.name());
                line.push_str("\",\"pid\":1,\"tid\":");
                line.push_str(&(TID_CONN_BASE + rec.conn).to_string());
                line.push_str(",\"ts\":");
                line.push_str(&ts(rec.at));
                line.push('}');
            }
        }
        emit(w, &line, &mut first)?;
    }
    for series in &log.counters {
        for &(at, v) in &series.points {
            line.clear();
            line.push_str("{\"ph\":\"C\",\"name\":\"");
            escape_json(&series.name, &mut line);
            line.push_str("\",\"pid\":1,\"tid\":0,\"ts\":");
            line.push_str(&ts(at));
            line.push_str(",\"args\":{\"v\":");
            line.push_str(&v.to_string());
            line.push_str("}}");
            emit(w, &line, &mut first)?;
        }
    }
    w.write_all(b"\n]}\n")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(t: u64, kind: TraceKind, conn: u32, a: u64, b: u64) -> TraceRecord {
        TraceRecord {
            at: SimTime::from_nanos(t),
            kind,
            conn,
            a,
            b,
        }
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let mut buf = TraceBuffer::new(3);
        for t in 0..5u64 {
            buf.push(rec(t, TraceKind::PacingFire, 0, 0, 0));
        }
        assert_eq!(buf.dropped, 2);
        let (records, _, dropped) = buf.into_ordered();
        assert_eq!(dropped, 2);
        let times: Vec<u64> = records.iter().map(|r| r.at.as_nanos()).collect();
        assert_eq!(times, vec![2, 3, 4], "oldest records evicted first");
    }

    #[test]
    fn intern_is_stable_and_deduplicates() {
        let mut buf = TraceBuffer::new(4);
        let a = buf.intern("timers");
        let b = buf.intern("acks");
        assert_eq!(buf.intern("timers"), a);
        assert_eq!(buf.intern("acks"), b);
        assert_ne!(a, b);
        assert_eq!(buf.strings, ["timers", "acks"]);
    }

    #[test]
    fn merge_orders_by_time_with_domain_tiebreak() {
        let mut cpu = TraceBuffer::new(8);
        cpu.push(rec(10, TraceKind::CpuSpan, 0, 15, 1));
        cpu.push(rec(30, TraceKind::CpuSpan, 0, 35, 2));
        let mut stack = TraceBuffer::new(8);
        // Stamped at a CPU completion, ahead of the next record's time.
        stack.push(rec(20, TraceKind::SegTx, 1, 2, 3000));
        stack.push(rec(10, TraceKind::PacingFire, 1, 0, 0));
        let log = TraceLog::merge(vec![cpu, stack]);
        let kinds: Vec<TraceKind> = log.events.iter().map(|r| r.kind).collect();
        assert_eq!(
            kinds,
            vec![
                TraceKind::CpuSpan,    // t=10, domain 0 wins the tie
                TraceKind::PacingFire, // t=10, domain 1
                TraceKind::SegTx,      // t=20
                TraceKind::CpuSpan,    // t=30
            ]
        );
    }

    #[test]
    fn merge_remaps_string_ids_into_unified_table() {
        let mut cpu = TraceBuffer::new(8);
        let t = cpu.intern("timers");
        cpu.push(rec(5, TraceKind::CpuSpan, t as u32, 9, 100));
        let mut stack = TraceBuffer::new(8);
        let from = stack.intern("startup");
        let to = stack.intern("drain");
        stack.push(rec(5, TraceKind::CcPhase, 0, from, to));
        let log = TraceLog::merge(vec![cpu, stack]);
        let span = log.events[0];
        assert_eq!(log.string(span.conn as u64), "timers");
        let phase = log.events[1];
        assert_eq!(log.string(phase.a), "startup");
        assert_eq!(log.string(phase.b), "drain");
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let mut sink = TraceSink::disabled();
        assert!(!sink.is_enabled());
        sink.record(SimTime::from_nanos(1), TraceKind::SegTx, 0, 1, 2);
        assert!(sink.take().is_none());
    }

    #[test]
    fn enabled_sink_round_trips_records() {
        let mut sink = TraceSink::disabled();
        sink.enable(16);
        assert!(sink.is_enabled());
        let cat = sink.intern("timers");
        sink.record(
            SimTime::from_nanos(7),
            TraceKind::CpuSpan,
            cat as u32,
            9,
            42,
        );
        let buf = sink.take().expect("buffer attached");
        assert!(!sink.is_enabled(), "take() detaches");
        assert_eq!(buf.records.len(), 1);
        assert_eq!(buf.strings, ["timers"]);
    }

    #[test]
    fn chrome_export_is_valid_json_with_cpu_spans() {
        let mut cpu = TraceBuffer::new(8);
        let cat = cpu.intern("acks");
        cpu.push(rec(700, TraceKind::CpuSpan, cat as u32, 1700, 5500));
        let mut stack = TraceBuffer::new(8);
        stack.push(rec(800, TraceKind::SegTx, 0, 2, 3000));
        let log = TraceLog::merge(vec![cpu, stack]);
        let mut out = Vec::new();
        write_chrome(&log, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        serde_json::from_str(&text).expect("valid JSON document");
        assert!(
            text.contains("\"ph\":\"X\",\"name\":\"acks\""),
            "cpu span present"
        );
        assert!(text.contains("\"dur\":1,"), "span lasts 1 us");
    }

    #[test]
    fn merge_of_empty_buffers_is_empty() {
        let log = TraceLog::merge(vec![TraceBuffer::new(4), TraceBuffer::new(4)]);
        assert!(log.events.is_empty());
        assert!(log.strings.is_empty());
        assert_eq!(log.dropped, 0);
    }
}
