//! Host-time spans recorded by the benchmark around its own calls into
//! each layer (outside-in tracing: nothing inside the simulator is
//! instrumented). Spans stay in memory and are written once, at exit.

use serde::Value;
use std::sync::Mutex;
use std::time::Instant;

/// One closed interval of host time.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-boundary name, e.g. `"sim.run"`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
}

impl Span {
    /// Length of the span.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    /// Indices of the currently open spans, innermost last.
    open: Vec<usize>,
}

/// Span recorder. A disabled tracer runs the closure and records nothing,
/// so traced and untraced passes share one code path.
///
/// Parent links assume one thread records at a time; sweeps with more
/// than one worker are given a disabled tracer.
pub struct Tracer {
    epoch: Instant,
    inner: Option<Mutex<Inner>>,
}

impl Tracer {
    /// A tracer that records.
    pub fn enabled() -> Self {
        Tracer {
            epoch: Instant::now(),
            inner: Some(Mutex::new(Inner::default())),
        }
    }

    /// A tracer that records nothing.
    pub fn disabled() -> Self {
        Tracer {
            epoch: Instant::now(),
            inner: None,
        }
    }

    fn lock(inner: &Mutex<Inner>) -> std::sync::MutexGuard<'_, Inner> {
        inner.lock().expect("a span closure panicked mid-record")
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let Some(inner) = &self.inner else {
            return f();
        };
        let idx = {
            let mut g = Self::lock(inner);
            let idx = g.spans.len();
            let parent = g.open.last().copied();
            g.spans.push(Span {
                name,
                start_ns: self.epoch.elapsed().as_nanos() as u64,
                end_ns: 0,
                parent,
            });
            g.open.push(idx);
            idx
        };
        let out = f();
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let mut g = Self::lock(inner);
        g.spans[idx].end_ns = end_ns;
        g.open.pop();
        out
    }

    /// How many spans have been opened so far: the index the next span
    /// will get, for slicing [`Tracer::spans`] by phase.
    pub fn mark(&self) -> usize {
        self.inner.as_ref().map_or(0, |m| Self::lock(m).spans.len())
    }

    /// Everything recorded so far (empty when disabled).
    pub fn spans(&self) -> Vec<Span> {
        self.inner
            .as_ref()
            .map(|m| Self::lock(m).spans.clone())
            .unwrap_or_default()
    }
}

/// Per-span self time: the span's duration minus the part of it its
/// direct children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Count, total and self time of every span called `name`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Total {
    /// How many spans carried the name.
    pub count: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed self times.
    pub self_ns: u64,
}

/// Aggregate the spans called `name` whose index lies in `range`.
pub fn total(spans: &[Span], range: std::ops::Range<usize>, name: &str) -> Total {
    let own = self_times(spans);
    let mut t = Total::default();
    for i in range {
        let s = &spans[i];
        if s.name == name {
            t.count += 1;
            t.total_ns += s.dur_ns();
            t.self_ns += own[i];
        }
    }
    t
}

/// The trace file: one object per span, tagged with the workload.
pub fn to_json(workload: &str, spans: &[Span]) -> Value {
    let own = self_times(spans);
    Value::Array(
        spans
            .iter()
            .zip(own)
            .enumerate()
            .map(|(id, (s, self_ns))| {
                Value::Object(vec![
                    ("id".into(), Value::UInt(id as u64)),
                    ("workload".into(), Value::Str(workload.into())),
                    ("name".into(), Value::Str(s.name.into())),
                    ("start_ns".into(), Value::UInt(s.start_ns)),
                    ("end_ns".into(), Value::UInt(s.end_ns)),
                    ("self_ns".into(), Value::UInt(self_ns)),
                    (
                        "parent".into(),
                        s.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
                    ),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // root 0..100 { a 10..40 { b 15..25 }, a 50..90 }
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 15, 25, Some(1)),
            span("a", 50, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
        // Self times partition the root: nothing is counted twice.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
        assert_eq!(
            total(&spans, 0..4, "a"),
            Total {
                count: 2,
                total_ns: 70,
                self_ns: 60
            }
        );
        assert_eq!(
            total(&spans, 2..4, "a").count,
            1,
            "the range bounds the sum"
        );
    }

    #[test]
    fn recorder_links_parents_and_disabled_records_nothing() {
        let t = Tracer::enabled();
        let v = t.span("outer", || t.span("inner", || 7));
        assert_eq!(v, 7);
        let spans = t.spans();
        assert_eq!((spans.len(), t.mark()), (2, 2));
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let off = Tracer::disabled();
        assert_eq!(off.span("x", || 3), 3);
        assert!(off.spans().is_empty());
    }
}
