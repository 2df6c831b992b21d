//! Per-request tracing spans, a black-box flight recorder, and text
//! exporters (Prometheus exposition, Chrome trace-event JSON).
//!
//! [`crate::telemetry`] answers *how much* — aggregate counters and
//! histograms. This module answers *why this request*: a bounded
//! [`SpanCollector`] records hierarchical spans with causal parent ids
//! (`serve.request` → `serve.admission`/`serve.queue_wait` →
//! `serve.batch` → `anneal.{strict,adaptive}` →
//! `guard.retry` → `serve.fallback`), and a fixed-capacity
//! [`FlightRecorder`] keeps the most recent structured events
//! (brownout edges, worker panics, watchdog fires, SLO fallbacks) for
//! post-mortem dumps.
//!
//! Both follow the telemetry contract established in the metrics layer:
//!
//! - **Disabled is one branch.** The [noop](SpanCollector::noop)
//!   collector carries no storage; every recording method returns after
//!   a single `Option` check — no allocation, no lock, no clock read.
//! - **Record only after dynamics finish.** Spans are written once a
//!   run (or batch, or request) completes; nothing is recorded inside
//!   integrator loops, and recording never touches machine state or RNG
//!   streams, so traced runs are bit-identical to untraced ones (locked
//!   in by the determinism suite).
//!
//! "Lock-free" here means the *claim* is: a recording thread claims its
//! ring slot with one atomic `fetch_add` and then owns that slot
//! exclusively until the ring wraps all the way around, so the per-slot
//! mutex guarding the write is uncontended by construction — it exists
//! only to keep the collector safe (and `unsafe`-free) if a snapshot
//! races a wrap-around overwrite.
//!
//! The exporters render standard tooling formats without any JSON
//! dependency: [`prometheus_text`] emits the Prometheus text exposition
//! of a [`MetricsSnapshot`], and [`chrome_trace_json`] emits Chrome
//! trace-event JSON (the `traceEvents` array form) that loads directly
//! in Perfetto / `chrome://tracing`.

use crate::telemetry::MetricsSnapshot;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Version of the exported span/flight schema; bumped only when the
/// JSON shapes below change incompatibly.
pub const TRACE_SCHEMA_VERSION: u32 = 1;

/// Default span ring capacity of [`SpanCollector::enabled`].
const DEFAULT_SPAN_CAPACITY: usize = 4096;

/// One key/value annotation on a span (numeric by design: span args
/// carry step counts, simulated times, and queue depths, never text).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanArg {
    /// Annotation name, e.g. `steps`.
    pub key: String,
    /// Annotation value.
    pub value: f64,
}

/// One completed span. Field names are a stable serde interface
/// (locked in by `tests/serialization.rs`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// Request-scoped correlation id shared by every span of one trace.
    pub trace_id: u64,
    /// Unique id of this span (ids are never 0; 0 means "none").
    pub span_id: u64,
    /// Causal parent span id, 0 for a root span.
    pub parent_id: u64,
    /// Span name, e.g. `anneal.strict` or `serve.queue_wait`.
    pub name: String,
    /// Start offset in ns from the collector's epoch (its creation).
    pub start_ns: u64,
    /// Wall-clock duration in ns.
    pub duration_ns: u64,
    /// Numeric annotations.
    pub args: Vec<SpanArg>,
}

/// Backing storage of an enabled collector.
#[derive(Debug)]
struct CollectorInner {
    /// All `start_ns` offsets are relative to this creation instant.
    epoch: Instant,
    /// Next span id; starts at 1 so 0 can mean "no span".
    next_id: AtomicU64,
    /// Total slots ever claimed; `cursor % capacity` is the ring slot.
    cursor: AtomicUsize,
    /// The bounded ring. See the module docs for why the per-slot mutex
    /// is uncontended by construction.
    slots: Vec<Mutex<Option<SpanRecord>>>,
    /// Spans overwritten by ring wrap-around (oldest-first eviction).
    dropped: AtomicU64,
}

/// A lock-free, bounded collector of completed spans.
///
/// Cloning is cheap (an `Arc` bump at most); every clone of an enabled
/// collector records into the same shared ring. The default handle is
/// the [noop](SpanCollector::noop) collector. When the ring is full the
/// *oldest* spans are overwritten (flight-recorder semantics) and
/// [`dropped`](SpanCollector::dropped) counts the evictions.
#[derive(Debug, Clone, Default)]
pub struct SpanCollector {
    inner: Option<Arc<CollectorInner>>,
}

impl SpanCollector {
    /// The disabled collector: every method is a single branch.
    pub fn noop() -> Self {
        SpanCollector { inner: None }
    }

    /// A fresh enabled collector with the default ring capacity.
    pub fn enabled() -> Self {
        Self::with_capacity(DEFAULT_SPAN_CAPACITY)
    }

    /// A fresh enabled collector keeping at most `capacity` spans
    /// (clamped to at least 1).
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        SpanCollector {
            inner: Some(Arc::new(CollectorInner {
                epoch: Instant::now(),
                next_id: AtomicU64::new(1),
                cursor: AtomicUsize::new(0),
                slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
                dropped: AtomicU64::new(0),
            })),
        }
    }

    /// Whether this collector records anywhere.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Reads the clock iff enabled — the noop collector never touches
    /// it. Pass the result to [`record`](Self::record) once the timed
    /// work finishes.
    pub fn now(&self) -> Option<Instant> {
        self.inner.is_some().then(Instant::now)
    }

    /// Reserves a span id without recording anything (0 when noop).
    /// Lets a parent hand its id to children *before* the parent span
    /// itself is recorded — e.g. a `serve.batch` span is recorded after
    /// the anneal spans that nest under it.
    pub fn reserve(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.next_id.fetch_add(1, Ordering::Relaxed),
            None => 0,
        }
    }

    /// Records a completed span under a pre-[reserved](Self::reserve)
    /// id. `start` of `None` (from a noop [`now`](Self::now)) is a
    /// no-op, so callers thread `Option<Instant>` straight through.
    /// Returns the span id (0 when nothing was recorded).
    #[allow(clippy::too_many_arguments)]
    pub fn record_with_id(
        &self,
        span_id: u64,
        trace_id: u64,
        parent_id: u64,
        name: &str,
        start: Option<Instant>,
        args: &[(&str, f64)],
    ) -> u64 {
        let Some(inner) = &self.inner else {
            return 0;
        };
        let Some(start) = start else {
            return 0;
        };
        if span_id == 0 {
            return 0;
        }
        let start_ns = start.saturating_duration_since(inner.epoch).as_nanos() as u64;
        let duration_ns = start.elapsed().as_nanos() as u64;
        let record = SpanRecord {
            trace_id,
            span_id,
            parent_id,
            name: name.to_owned(),
            start_ns,
            duration_ns,
            args: args
                .iter()
                .map(|&(key, value)| SpanArg {
                    key: key.to_owned(),
                    value,
                })
                .collect(),
        };
        let claim = inner.cursor.fetch_add(1, Ordering::Relaxed);
        if claim >= inner.slots.len() {
            inner.dropped.fetch_add(1, Ordering::Relaxed);
        }
        let slot = claim % inner.slots.len();
        *inner.slots[slot].lock().unwrap_or_else(|e| e.into_inner()) = Some(record);
        span_id
    }

    /// Records a completed span under a fresh id and returns it
    /// (0 when noop or `start` is `None`).
    pub fn record(
        &self,
        trace_id: u64,
        parent_id: u64,
        name: &str,
        start: Option<Instant>,
        args: &[(&str, f64)],
    ) -> u64 {
        if self.inner.is_none() || start.is_none() {
            return 0;
        }
        self.record_with_id(self.reserve(), trace_id, parent_id, name, start, args)
    }

    /// Spans evicted by ring wrap-around since creation. A dropped
    /// parent may be absent from a snapshot while its children survive;
    /// children keep the stale parent id rather than re-parenting.
    pub fn dropped(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.dropped.load(Ordering::Relaxed),
            None => 0,
        }
    }

    /// Copies out every retained span, sorted by span id (creation
    /// order). The noop collector yields an empty vec.
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let mut spans: Vec<SpanRecord> = inner
            .slots
            .iter()
            .filter_map(|slot| slot.lock().unwrap_or_else(|e| e.into_inner()).clone())
            .collect();
        spans.sort_by_key(|s| s.span_id);
        spans
    }
}

/// A collector handle bound to one trace and one causal parent — the
/// unit threaded through machines and the guard so deep layers record
/// correctly-parented spans without any signature churn.
///
/// The default scope is the noop scope: machines constructed without
/// [`set_tracing`](crate::RealValuedDspu::set_tracing) pay one branch
/// per run and record nothing.
#[derive(Debug, Clone, Default)]
pub struct TraceScope {
    collector: SpanCollector,
    trace_id: u64,
    parent_id: u64,
}

impl TraceScope {
    /// The disabled scope (records nothing).
    pub fn noop() -> Self {
        TraceScope::default()
    }

    /// A scope recording into `collector` under `trace_id`, parenting
    /// new spans to `parent_id` (0 = root).
    pub fn new(collector: SpanCollector, trace_id: u64, parent_id: u64) -> Self {
        TraceScope {
            collector,
            trace_id,
            parent_id,
        }
    }

    /// Whether spans recorded through this scope go anywhere.
    pub fn is_enabled(&self) -> bool {
        self.collector.is_enabled()
    }

    /// The underlying collector.
    pub fn collector(&self) -> &SpanCollector {
        &self.collector
    }

    /// The trace id every span of this scope carries.
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// The parent id new spans are recorded under.
    pub fn parent_id(&self) -> u64 {
        self.parent_id
    }

    /// Reads the clock iff enabled (see [`SpanCollector::now`]).
    pub fn start(&self) -> Option<Instant> {
        self.collector.now()
    }

    /// Records a completed span in this scope; returns its id (0 when
    /// disabled).
    pub fn record(&self, name: &str, start: Option<Instant>, args: &[(&str, f64)]) -> u64 {
        self.collector
            .record(self.trace_id, self.parent_id, name, start, args)
    }

    /// A scope for children of span `parent_id` within the same trace.
    pub fn child_of(&self, parent_id: u64) -> TraceScope {
        TraceScope {
            collector: self.collector.clone(),
            trace_id: self.trace_id,
            parent_id,
        }
    }
}

/// One structured flight-recorder event. Field names are a stable serde
/// interface (locked in by `tests/serialization.rs`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlightEvent {
    /// Monotonic sequence number (gaps mean evicted events).
    pub seq: u64,
    /// Offset in ns from the recorder's epoch (its creation).
    pub at_ns: u64,
    /// Event kind, e.g. `worker.panic` (frozen constants live beside
    /// the emitters).
    pub kind: String,
    /// Human-readable detail, e.g. the orphaned request count.
    pub detail: String,
    /// Correlated trace id, 0 when the event spans no single request.
    pub trace_id: u64,
}

/// A serde-stable dump of the flight recorder: the last
/// [`capacity`](FlightDump::capacity) events, oldest first.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlightDump {
    /// Dump schema version ([`TRACE_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Ring capacity of the recorder that produced the dump.
    pub capacity: usize,
    /// Events evicted before this dump was taken.
    pub dropped: u64,
    /// Retained events, oldest first (`seq` strictly increasing).
    pub events: Vec<FlightEvent>,
}

/// Mutable state of a flight recorder (one short lock per event —
/// events are rare by design: panics, watchdog fires, brownout edges).
#[derive(Debug, Default)]
struct FlightState {
    events: VecDeque<FlightEvent>,
    next_seq: u64,
    dropped: u64,
}

/// A fixed-capacity black-box recorder of recent structured events.
///
/// Unlike [`SpanCollector`] this is always on — the events it keeps
/// (panics, cancellations, brownout transitions) are exactly the ones
/// wanted *after* a crash, when nobody thought to enable tracing
/// beforehand. It stays off every hot path: recording happens only on
/// failure edges, never per request.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    capacity: usize,
    state: Arc<(Instant, Mutex<FlightState>)>,
}

impl FlightRecorder {
    /// A recorder keeping the last `capacity` events (at least 1).
    pub fn with_capacity(capacity: usize) -> Self {
        FlightRecorder {
            capacity: capacity.max(1),
            state: Arc::new((Instant::now(), Mutex::new(FlightState::default()))),
        }
    }

    /// Appends an event, evicting the oldest past capacity.
    pub fn record(&self, kind: &str, detail: String, trace_id: u64) {
        let at_ns = self.state.0.elapsed().as_nanos() as u64;
        let mut state = self.state.1.lock().unwrap_or_else(|e| e.into_inner());
        let seq = state.next_seq;
        state.next_seq += 1;
        if state.events.len() == self.capacity {
            state.events.pop_front();
            state.dropped += 1;
        }
        state.events.push_back(FlightEvent {
            seq,
            at_ns,
            kind: kind.to_owned(),
            detail,
            trace_id,
        });
    }

    /// Events recorded since creation (including evicted ones).
    pub fn recorded(&self) -> u64 {
        self.state.1.lock().unwrap_or_else(|e| e.into_inner()).next_seq
    }

    /// Freezes the ring into a serde-stable dump, oldest event first.
    pub fn dump(&self) -> FlightDump {
        let state = self.state.1.lock().unwrap_or_else(|e| e.into_inner());
        FlightDump {
            schema_version: TRACE_SCHEMA_VERSION,
            capacity: self.capacity,
            dropped: state.dropped,
            events: state.events.iter().cloned().collect(),
        }
    }
}

/// Renders a [`MetricsSnapshot`] in the Prometheus text exposition
/// format (version 0.0.4).
///
/// Instrument names are prefixed `dsgl_` with dots mapped to
/// underscores (`anneal.sim_time_ns` → `dsgl_anneal_sim_time_ns`).
/// Counters and gauges emit one sample each; histograms emit the
/// standard cumulative `_bucket{le="..."}` series (occupied buckets
/// plus `+Inf`), `_sum`, and `_count`. Output is deterministic for a
/// given snapshot — snapshots are sorted by name — which is what the
/// golden-file test relies on.
pub fn prometheus_text(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for i in &snapshot.instruments {
        let name = format!("dsgl_{}", i.name.replace('.', "_"));
        match i.kind.as_str() {
            "counter" => {
                out.push_str(&format!("# TYPE {name} counter\n"));
                out.push_str(&format!("{name} {}\n", i.count));
            }
            "histogram" => {
                out.push_str(&format!("# TYPE {name} histogram\n"));
                let mut cumulative = 0u64;
                for bucket in &i.buckets {
                    cumulative += bucket.count;
                    out.push_str(&format!(
                        "{name}_bucket{{le=\"{}\"}} {cumulative}\n",
                        bucket.le
                    ));
                }
                out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", i.count));
                out.push_str(&format!("{name}_sum {}\n", i.sum));
                out.push_str(&format!("{name}_count {}\n", i.count));
            }
            // Gauges, and any future kind, export last-value samples.
            _ => {
                out.push_str(&format!("# TYPE {name} gauge\n"));
                out.push_str(&format!("{name} {}\n", i.last));
            }
        }
    }
    out
}

/// Escapes a string for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Formats an `f64` as a JSON number (JSON has no NaN/Infinity; those
/// degrade to 0, which no exported field should ever carry anyway).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// Renders spans as Chrome trace-event JSON (the object form with a
/// `traceEvents` array), loadable in Perfetto and `chrome://tracing`.
///
/// Each span becomes one complete event (`"ph":"X"`): `ts`/`dur` are
/// the span's start offset and duration in microseconds, `tid` is the
/// trace id (so one request's spans share a track), and `args` carries
/// the span/parent ids plus every numeric annotation. Written by hand
/// so the ising crate needs no JSON dependency; `tests/serialization.rs`
/// parses it back with a real JSON parser to pin validity.
pub fn chrome_trace_json(spans: &[SpanRecord]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, span) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"dsgl\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
             \"pid\":1,\"tid\":{},\"args\":{{\"span_id\":{},\"parent_id\":{}",
            json_escape(&span.name),
            json_number(span.start_ns as f64 / 1000.0),
            json_number(span.duration_ns as f64 / 1000.0),
            span.trace_id,
            span.span_id,
            span.parent_id,
        ));
        for arg in &span.args {
            out.push_str(&format!(
                ",\"{}\":{}",
                json_escape(&arg.key),
                json_number(arg.value)
            ));
        }
        out.push_str("}}");
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_collector_records_nothing() {
        let collector = SpanCollector::noop();
        assert!(!collector.is_enabled());
        assert_eq!(collector.now(), None);
        assert_eq!(collector.reserve(), 0);
        assert_eq!(collector.record(1, 0, "x", None, &[]), 0);
        assert!(collector.snapshot().is_empty());
        assert_eq!(collector.dropped(), 0);
        let scope = TraceScope::noop();
        assert!(!scope.is_enabled());
        assert_eq!(scope.start(), None);
        assert_eq!(scope.record("x", None, &[]), 0);
    }

    #[test]
    fn spans_record_hierarchy_in_creation_order() {
        let collector = SpanCollector::enabled();
        let root = collector.reserve();
        let t0 = collector.now();
        let child = collector.record(7, root, "anneal.strict", t0, &[("steps", 42.0)]);
        assert!(child > root);
        collector.record_with_id(root, 7, 0, "serve.request", t0, &[]);
        let spans = collector.snapshot();
        assert_eq!(spans.len(), 2);
        // Sorted by span id: the pre-reserved root sorts first even
        // though it was recorded last.
        assert_eq!(spans[0].span_id, root);
        assert_eq!(spans[0].name, "serve.request");
        assert_eq!(spans[0].parent_id, 0);
        assert_eq!(spans[1].parent_id, root);
        assert_eq!(spans[1].trace_id, 7);
        assert_eq!(spans[1].args, vec![SpanArg { key: "steps".into(), value: 42.0 }]);
    }

    #[test]
    fn ring_keeps_newest_spans_and_counts_evictions() {
        let collector = SpanCollector::with_capacity(3);
        for i in 0..5u64 {
            let t = collector.now();
            collector.record(i, 0, "s", t, &[]);
        }
        assert_eq!(collector.dropped(), 2);
        let spans = collector.snapshot();
        assert_eq!(spans.len(), 3);
        // The two oldest were overwritten.
        let traces: Vec<u64> = spans.iter().map(|s| s.trace_id).collect();
        assert_eq!(traces, vec![2, 3, 4]);
    }

    #[test]
    fn clones_share_one_ring_across_threads() {
        let collector = SpanCollector::with_capacity(1024);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let worker = collector.clone();
                scope.spawn(move || {
                    for _ in 0..100 {
                        let start = worker.now();
                        worker.record(t, 0, "t.span", start, &[]);
                    }
                });
            }
        });
        let spans = collector.snapshot();
        assert_eq!(spans.len(), 400);
        assert_eq!(collector.dropped(), 0);
        // Ids are unique.
        let mut ids: Vec<u64> = spans.iter().map(|s| s.span_id).collect();
        ids.dedup();
        assert_eq!(ids.len(), 400);
    }

    #[test]
    fn trace_scope_threads_trace_and_parent_ids() {
        let collector = SpanCollector::enabled();
        let scope = TraceScope::new(collector.clone(), 9, 0);
        let start = scope.start();
        let outer = scope.record("outer", start, &[]);
        let inner_scope = scope.child_of(outer);
        assert_eq!(inner_scope.trace_id(), 9);
        assert_eq!(inner_scope.parent_id(), outer);
        let start = inner_scope.start();
        inner_scope.record("inner", start, &[("depth", 1.0)]);
        let spans = collector.snapshot();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent_id, outer);
        assert_eq!(spans[1].trace_id, 9);
    }

    #[test]
    fn flight_recorder_rotates_and_dumps_oldest_first() {
        let recorder = FlightRecorder::with_capacity(2);
        recorder.record("worker.panic", "batch of 3".into(), 11);
        recorder.record("watchdog.cancel", "slot 0".into(), 12);
        recorder.record("brownout.transition", "0 -> 1".into(), 0);
        assert_eq!(recorder.recorded(), 3);
        let dump = recorder.dump();
        assert_eq!(dump.schema_version, TRACE_SCHEMA_VERSION);
        assert_eq!(dump.capacity, 2);
        assert_eq!(dump.dropped, 1);
        assert_eq!(dump.events.len(), 2);
        assert_eq!(dump.events[0].kind, "watchdog.cancel");
        assert_eq!(dump.events[1].kind, "brownout.transition");
        assert!(dump.events[0].seq < dump.events[1].seq);
        assert!(dump.events[0].at_ns <= dump.events[1].at_ns);
    }

    #[test]
    fn prometheus_exposition_covers_every_kind() {
        let sink = crate::telemetry::TelemetrySink::enabled();
        sink.counter_add("serve.requests", 5);
        sink.gauge_set("serve.queue_depth", 3.0);
        sink.record("anneal.steps", 120.0);
        sink.record("anneal.steps", 450.0);
        let text = prometheus_text(&sink.snapshot());
        assert!(text.contains("# TYPE dsgl_serve_requests counter\n"));
        assert!(text.contains("dsgl_serve_requests 5\n"));
        assert!(text.contains("# TYPE dsgl_serve_queue_depth gauge\n"));
        assert!(text.contains("dsgl_serve_queue_depth 3\n"));
        assert!(text.contains("# TYPE dsgl_anneal_steps histogram\n"));
        assert!(text.contains("dsgl_anneal_steps_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("dsgl_anneal_steps_sum 570\n"));
        assert!(text.contains("dsgl_anneal_steps_count 2\n"));
        // Bucket series is cumulative: the last finite bucket carries
        // the full count.
        let last_finite = text
            .lines()
            .rfind(|l| l.contains("_bucket{le=\"") && !l.contains("+Inf"))
            .unwrap();
        assert!(last_finite.ends_with(" 2"));
        // Every non-comment line is `name[{labels}] value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            assert_eq!(line.split_whitespace().count(), 2, "bad line: {line}");
        }
    }

    #[test]
    fn chrome_trace_json_has_complete_events() {
        let collector = SpanCollector::enabled();
        let t = collector.now();
        let root = collector.record(3, 0, "serve.request", t, &[]);
        collector.record(3, root, "anneal.strict", t, &[("steps", 12.0)]);
        let json = chrome_trace_json(&collector.snapshot());
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"name\":\"serve.request\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"tid\":3"));
        assert!(json.contains("\"steps\":12"));
        assert_eq!(json.matches("{\"name\":").count(), 2);
        // Balanced braces/brackets (the serialization suite parses it
        // with a real JSON parser; this is the in-crate sanity check).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn json_escaping_and_nonfinite_numbers_stay_valid() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        assert_eq!(json_number(f64::NAN), "0");
        assert_eq!(json_number(f64::INFINITY), "0");
        assert_eq!(json_number(2.5), "2.5");
    }

    #[test]
    fn empty_span_list_is_still_a_valid_document() {
        assert_eq!(
            chrome_trace_json(&[]),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}"
        );
    }
}
