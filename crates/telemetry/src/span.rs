//! Span tracing behind a bounded flight-recorder ring buffer.
//!
//! A [`Span`] is a named interval with nanosecond timestamps derived from
//! schedule-relative queue stamps or arrival offsets, never read off a
//! clock. The [`SpanRecorder`] keeps the most recent [`SPAN_CAPACITY`] spans
//! in a ring — overflow evicts the oldest span and increments a drop counter,
//! never blocks and never grows.
//!
//! **Determinism contract:** every span's content is a pure function of the
//! workload (timestamps come from deterministic `QueueStamp`s / arrival
//! offsets, never the racy shared clock), and
//! [`SpanRecorder::export_chrome_trace`] sorts spans by full content before
//! writing, so two runs of the same workload dump byte-identical traces at
//! any worker count — as long as the ring never overflowed (check
//! [`SpanRecorder::dropped`]; CI byte-compares two dumps to enforce this).

use std::collections::VecDeque;
use std::io::{self, Write};

use crate::contention::ObservedMutex;
use crate::export::escape_json;
use crate::registry::TelemetryRegistry;

/// Ring capacity: comfortably above the span count of the CI fleet
/// workloads (a few thousand) while bounding a runaway recorder to ~10 MB.
pub const SPAN_CAPACITY: usize = 65_536;

/// One traced interval. `track` maps to the chrome://tracing thread id.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Span {
    /// Start timestamp, nanoseconds since the run epoch.
    pub start_ns: u64,
    /// Track (rendered as the tid): the index of the scenario the span
    /// belongs to.
    pub track: u64,
    /// Span name, e.g. `serve` or `queue_wait`.
    pub name: String,
    /// Category, e.g. `driver`, `queue`, `fleet`.
    pub category: String,
    /// Duration in nanoseconds (0 renders as an instant event).
    pub dur_ns: u64,
    /// Extra `key=value` arguments, shown in the trace viewer.
    pub args: Vec<(String, String)>,
}

impl Span {
    /// Convenience constructor without args.
    pub fn new(name: &str, category: &str, track: u64, start_ns: u64, dur_ns: u64) -> Self {
        Self {
            start_ns,
            track,
            name: name.to_string(),
            category: category.to_string(),
            dur_ns,
            args: Vec::new(),
        }
    }

    /// Attach a `key=value` argument.
    pub fn with_arg(mut self, key: &str, value: &str) -> Self {
        self.args.push((key.to_string(), value.to_string()));
        self
    }
}

struct Ring {
    spans: VecDeque<Span>,
    dropped: u64,
}

/// Bounded flight recorder of at most [`SPAN_CAPACITY`] [`Span`]s (oldest
/// evicted first). Shareable across workers (interior mutex,
/// contention-observed under the `span_ring` site); recording is O(1) and
/// never blocks on I/O.
pub struct SpanRecorder {
    ring: ObservedMutex<Ring>,
}

impl Default for SpanRecorder {
    fn default() -> Self {
        Self { ring: ObservedMutex::new("span_ring", Ring { spans: VecDeque::new(), dropped: 0 }) }
    }
}

impl SpanRecorder {
    /// Observe the ring lock's contention in `registry` (the `span_ring`
    /// site) and keep `spans_dropped_total` published there — ring overflow
    /// shows up in the JSON/Prometheus exports, not only via
    /// [`SpanRecorder::dropped`]. Call before the run; the drop counter is
    /// refreshed by [`SpanRecorder::publish_stats`].
    pub fn attach_contention(&self, registry: &TelemetryRegistry) {
        self.ring.attach(registry);
        registry.counter("spans_dropped_total", &[]);
    }

    /// Publish the drop counter's current value into `registry` as the
    /// monotonic `spans_dropped_total`. Idempotent: re-publishing only adds
    /// the delta since the last publish.
    pub fn publish_stats(&self, registry: &TelemetryRegistry) {
        let counter = registry.counter("spans_dropped_total", &[]);
        let dropped = self.dropped();
        let published = counter.get();
        if dropped > published {
            counter.add(dropped - published);
        }
    }

    /// Record one span, evicting the oldest if the ring is full.
    pub fn record(&self, span: Span) {
        let mut ring = self.ring.lock();
        if ring.spans.len() == SPAN_CAPACITY {
            ring.spans.pop_front();
            ring.dropped += 1;
        }
        ring.spans.push_back(span);
    }

    /// Number of spans currently held.
    pub fn len(&self) -> usize {
        self.ring.lock().spans.len()
    }

    /// True when no spans are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Spans evicted because the ring was full. Non-zero breaks the
    /// byte-identity contract (the surviving window depends on timing).
    pub fn dropped(&self) -> u64 {
        self.ring.lock().dropped
    }

    /// Drop all held spans and reset the drop counter.
    pub fn clear(&self) {
        let mut ring = self.ring.lock();
        ring.spans.clear();
        ring.dropped = 0;
    }

    /// Current spans, sorted by full content (the export order).
    pub fn sorted_spans(&self) -> Vec<Span> {
        let ring = self.ring.lock();
        let mut spans: Vec<Span> = ring.spans.iter().cloned().collect();
        spans.sort();
        spans
    }

    /// Write the chrome://tracing JSON array (load via `chrome://tracing` or
    /// Perfetto). Spans are sorted by content and timestamps rendered as
    /// exact decimal microseconds, so the bytes are a pure function of the
    /// recorded span multiset — insertion order never shows through.
    pub fn export_chrome_trace<W: Write>(&self, mut out: W) -> io::Result<()> {
        let spans = self.sorted_spans();
        writeln!(out, "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")?;
        for (i, span) in spans.iter().enumerate() {
            let comma = if i + 1 < spans.len() { "," } else { "" };
            let ph = if span.dur_ns == 0 { "i" } else { "X" };
            write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{}\",\"pid\":1,\"tid\":{},\"ts\":{}",
                escape_json(&span.name),
                escape_json(&span.category),
                ph,
                span.track,
                micros(span.start_ns),
            )?;
            if span.dur_ns > 0 {
                write!(out, ",\"dur\":{}", micros(span.dur_ns))?;
            }
            if !span.args.is_empty() {
                write!(out, ",\"args\":{{")?;
                for (j, (k, v)) in span.args.iter().enumerate() {
                    let comma = if j + 1 < span.args.len() { "," } else { "" };
                    write!(out, "\"{}\":\"{}\"{}", escape_json(k), escape_json(v), comma)?;
                }
                write!(out, "}}")?;
            }
            writeln!(out, "}}{comma}")?;
        }
        writeln!(out, "]}}")?;
        Ok(())
    }
}

impl std::fmt::Debug for SpanRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanRecorder")
            .field("len", &self.len())
            .field("capacity", &SPAN_CAPACITY)
            .field("dropped", &self.dropped())
            .finish()
    }
}

/// Exact decimal microseconds from nanoseconds (`1234567` → `1234.567`),
/// avoiding float formatting so the bytes are platform-independent.
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let rec = SpanRecorder::default();
        for i in 0..SPAN_CAPACITY as u64 + 2 {
            rec.record(Span::new("s", "t", 0, i, 1));
        }
        assert_eq!(rec.len(), SPAN_CAPACITY);
        assert_eq!(rec.dropped(), 2);
        let starts: Vec<u64> = rec.sorted_spans().into_iter().map(|s| s.start_ns).collect();
        assert_eq!(starts[..2], [2, 3], "the two oldest spans are evicted");
        assert_eq!(starts.last(), Some(&(SPAN_CAPACITY as u64 + 1)));
    }

    #[test]
    fn export_is_insertion_order_independent() {
        let forward = SpanRecorder::default();
        let backward = SpanRecorder::default();
        let spans: Vec<Span> = (0..10u64)
            .map(|i| Span::new("serve", "driver", i % 3, i * 100, 50).with_arg("user", "7"))
            .collect();
        for s in &spans {
            forward.record(s.clone());
        }
        for s in spans.iter().rev() {
            backward.record(s.clone());
        }
        let mut a = Vec::new();
        let mut b = Vec::new();
        forward.export_chrome_trace(&mut a).expect("export");
        backward.export_chrome_trace(&mut b).expect("export");
        assert_eq!(a, b, "export bytes must not depend on insertion order");
    }

    #[test]
    fn micros_renders_exact_decimals() {
        assert_eq!(micros(0), "0.000");
        assert_eq!(micros(1), "0.001");
        assert_eq!(micros(1_234_567), "1234.567");
    }

    #[test]
    fn instant_events_have_no_duration_field() {
        let rec = SpanRecorder::default();
        rec.record(Span::new("arrival", "queue", 4, 500, 0));
        let mut out = Vec::new();
        rec.export_chrome_trace(&mut out).expect("export");
        let text = String::from_utf8(out).expect("utf8");
        assert!(text.contains("\"ph\":\"i\""));
        assert!(!text.contains("\"dur\""));
    }
}
