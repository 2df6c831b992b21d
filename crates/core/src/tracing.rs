//! Per-request tracing, re-exported at the core layer.
//!
//! The span and flight-recorder primitives live in
//! [`dsgl_ising::tracing`] — the lowest crate whose runs are traced —
//! and this module re-exports them so every consumer of `dsgl-core`
//! reaches the whole tracing surface through one path. See the source
//! module for the design notes (zero-cost noop collector, record-only-
//! after-dynamics contract, bounded ring semantics, exporter formats).
//!
//! # Span catalogue
//!
//! | span | parent | recorded by |
//! |---|---|---|
//! | `serve.request` | — (root) | `dsgl-serve` at reply time |
//! | `serve.admission` | `serve.request` | `dsgl-serve` on admit |
//! | `serve.queue_wait` | `serve.request` | `dsgl-serve` on `pop_batch` |
//! | `serve.batch` | primary `serve.request` | `dsgl-serve` per batch |
//! | `serve.coalesce` | rider `serve.request` | `dsgl-serve` per duplicate |
//! | `serve.fallback` | `serve.request` | `dsgl-serve` on SLO/watchdog fallback |
//! | `anneal.strict` / `anneal.adaptive` | `serve.batch` (or caller scope) | [`RealValuedDspu`](dsgl_ising::RealValuedDspu) per run |
//! | `guard.retry` | `serve.batch` (or caller scope) | [`GuardedAnneal`](crate::GuardedAnneal) per rejected attempt |
//! | `hw.coanneal` | caller scope | `MappedMachine` per co-anneal run |

pub use dsgl_ising::tracing::{
    chrome_trace_json, prometheus_text, FlightDump, FlightEvent, FlightRecorder, SpanArg,
    SpanCollector, SpanRecord, TraceScope, TRACE_SCHEMA_VERSION,
};
