//! `dsgl-serve`: a long-lived, concurrent forecast service over trained
//! DS-GL models.
//!
//! The paper's pipeline — train once, anneal per window — is exactly
//! the shape a serving layer wants: the model is immutable shared
//! state, every request is an independent anneal, and batches of
//! requests amortise dispatch. This crate turns the one-shot facade
//! into that layer:
//!
//! - **Admission** ([`queue::BoundedQueue`]): requests enter a bounded
//!   queue; a full queue sheds load *now* ([`ServeError::Overloaded`])
//!   instead of growing a backlog whose deadline nobody can meet.
//! - **Coalescing** (worker loop in [`ForecastService`]): workers pull
//!   up to [`ServeConfig::coalesce`] requests per pop (lingering
//!   briefly for stragglers), collapse duplicate `(window, seed)`
//!   pairs into a single anneal, and run the distinct windows through
//!   one seeded guarded batch call with a per-worker pooled
//!   [`dsgl_ising::Workspace`] — steady-state serving allocates
//!   nothing per request (the PR 5 take/adopt migration).
//! - **SLO degradation**: with a [`ServeConfig::deadline`], requests
//!   that sat queued past it are answered instantly with the sanitised
//!   persistence fallback (finite, degraded, honest in its
//!   [`HealthReport`](dsgl_core::HealthReport)) rather than annealed
//!   even later — the serving twin of the guard's strict-fallback rung
//!   from PR 3.
//! - **Health** ([`ForecastService::health`]): the `serve.*` instrument
//!   family ([`instruments`]) lands in the same
//!   [`MetricsSnapshot`](dsgl_core::MetricsSnapshot) schema dashboards
//!   already parse, and [`ForecastService::stats`] digests it into
//!   p50/p99 latency, coalesce width, and degradation counts.
//! - **Supervision** (PR 8): worker bodies run under `catch_unwind` —
//!   a panic quarantines the worker's pooled workspace, re-enqueues its
//!   un-replied requests exactly once each (then
//!   [`ServeError::WorkerCrashed`] past the
//!   [`ServeConfig::crash_retries`] budget) and respawns a fresh
//!   worker. A [`ServeConfig::watchdog`] deadline arms a supervisor
//!   heartbeat that cancels hung anneals cooperatively (integrator-step
//!   granularity via [`dsgl_core::CancelToken`]), routing the cancelled
//!   requests back through re-delivery and, budget exhausted, the
//!   persistence fallback. A [`config::BrownoutPolicy`] adds graduated
//!   admission: Normal → Brownout (coalesce-only, shorter deadline) →
//!   Shed, driven by a health score with hysteresis. The
//!   [`chaos::ChaosConfig`] knobs inject worker panics and hung windows
//!   for the chaos campaign that proves all of the above.
//! - **Tracing & the black box** (PR 9): spawn via
//!   [`ForecastService::spawn_traced`] with a
//!   [`SpanCollector`](dsgl_core::SpanCollector) and every request
//!   records a causal span tree — `serve.request` →
//!   `serve.admission`/`serve.queue_wait` → `serve.batch` →
//!   `anneal.{strict,adaptive}`/`guard.retry`, plus
//!   `serve.coalesce` and `serve.fallback` markers — exportable as
//!   Perfetto-loadable Chrome trace JSON
//!   ([`ForecastService::chrome_trace`]). Independently, an always-on
//!   [`FlightRecorder`](dsgl_core::FlightRecorder) keeps the last
//!   [`ServeConfig::flight_capacity`] failure-edge events
//!   ([`flight_events`]) for [`ForecastService::flight_dump`], frozen
//!   automatically at each worker panic
//!   ([`ForecastService::last_crash_dump`]). The metrics snapshot
//!   exports as Prometheus text via [`ForecastService::prometheus`].
//!   All of it obeys the telemetry contract: spans are recorded only
//!   after dynamics finish, and the noop collector is one branch —
//!   tracing on vs off is bit-identical.
//!
//! # The determinism contract
//!
//! A response's bits are a pure function of (model, window, seed,
//! guard policy, fault model). Each window anneals under
//! `StdRng::seed_from_u64(window_seed(seed, 0))` — exactly how a
//! serial one-request-at-a-time run would anneal it — so queue order,
//! batch grouping, linger, worker count, and duplicate collapsing are
//! all bit-invisible. `tests/determinism.rs` pins this across coalesce
//! widths {1, 4, 8} × worker counts {1, 2, 8}.
//!
//! # Example
//!
//! ```
//! use dsgl_serve::{ForecastService, ServeConfig};
//! use dsgl_core::{DsGlModel, GuardedAnneal, TelemetrySink, VariableLayout};
//! use dsgl_ising::AnnealConfig;
//!
//! # fn main() -> Result<(), dsgl_serve::ServeError> {
//! let layout = VariableLayout::new(1, 4, 1);
//! let mut model = DsGlModel::new(layout);
//! model.init_persistence(0.6);
//! let mut service = ForecastService::spawn(
//!     model,
//!     GuardedAnneal::new(AnnealConfig::default()),
//!     TelemetrySink::enabled(),
//!     ServeConfig::default(),
//! )?;
//! let response = service.forecast(vec![0.25; 4], 7)?;
//! assert_eq!(response.prediction.len(), 4);
//! assert!(response.prediction.iter().all(|v| v.is_finite()));
//! // Same window, same seed → bit-identical answer, served or not.
//! let again = service.forecast(vec![0.25; 4], 7)?;
//! assert_eq!(response.prediction, again.prediction);
//! service.shutdown();
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod chaos;
pub mod config;
pub mod queue;
pub mod service;
pub mod supervisor;

pub use chaos::ChaosConfig;
pub use config::{BrownoutPolicy, ServeConfig};
pub use service::{ForecastResponse, ForecastService, ServeError, ServiceStats, Ticket};

/// The `serve.*` instrument family recorded into the service's
/// [`TelemetrySink`](dsgl_core::TelemetrySink). Names are a frozen
/// interface (`tests/serialization.rs`), like every other family in
/// the snapshot schema.
pub mod instruments {
    /// Counter: requests admitted past the queue door.
    pub const REQUESTS: &str = "serve.requests";
    /// Counter: requests shed by admission control (queue full).
    pub const REJECTED: &str = "serve.rejected";
    /// Counter: batches executed by workers.
    pub const BATCHES: &str = "serve.batches";
    /// Gauge: backlog depth observed at the latest push/pop.
    pub const QUEUE_DEPTH: &str = "serve.queue_depth";
    /// Histogram: requests per executed batch.
    pub const COALESCE_WIDTH: &str = "serve.coalesce_width";
    /// Counter: requests answered from a coalesced duplicate's anneal.
    pub const COALESCED_HITS: &str = "serve.coalesced_hits";
    /// Histogram: admission-to-reply wall latency, ns.
    pub const LATENCY_NS: &str = "serve.latency_ns";
    /// Counter: responses marked degraded (guard or SLO fallback).
    pub const DEGRADATIONS: &str = "serve.degradations";
    /// Counter: responses served as the SLO persistence fallback.
    pub const SLO_FALLBACKS: &str = "serve.slo_fallbacks";
    /// Gauge: worker threads serving.
    pub const WORKERS: &str = "serve.workers";
    /// Counter: worker panics caught by the supervision boundary.
    pub const WORKER_PANICS: &str = "serve.worker_panics";
    /// Counter: replacement workers spawned after a panic.
    pub const WORKER_RESPAWNS: &str = "serve.worker_respawns";
    /// Counter: orphaned requests re-enqueued for exactly-once
    /// re-delivery (after a panic or a watchdog cancellation).
    pub const REQUEUES: &str = "serve.requeues";
    /// Counter: requests failed with `WorkerCrashed` after exhausting
    /// the crash-retry budget.
    pub const CRASH_FAILURES: &str = "serve.crash_failures";
    /// Counter: hung batches cancelled by the watchdog.
    pub const WATCHDOG_CANCELS: &str = "serve.watchdog_cancels";
    /// Counter: cancelled requests served the persistence fallback
    /// after exhausting the re-delivery budget.
    pub const WATCHDOG_FALLBACKS: &str = "serve.watchdog_fallbacks";
    /// Gauge: current brownout tier (0 normal, 1 brownout, 2 shed).
    pub const BROWNOUT_TIER: &str = "serve.brownout_tier";
    /// Counter: brownout tier transitions.
    pub const BROWNOUT_TRANSITIONS: &str = "serve.brownout_transitions";
    /// Counter: requests admitted by brownout's coalesce-only gate.
    pub const BROWNOUT_ADMITTED: &str = "serve.brownout_admitted";
    /// Counter: requests shed by the brownout or shed tiers.
    pub const BROWNOUT_REJECTED: &str = "serve.brownout_rejected";
}

/// Frozen event-kind strings of the service's black-box
/// [`FlightRecorder`](dsgl_core::FlightRecorder) (dumped by
/// [`ForecastService::flight_dump`]). Like the instrument names, these
/// are a stable interface: dashboards and post-mortem tooling match on
/// them, so they only ever grow.
pub mod flight_events {
    /// A worker panic was caught at the supervision boundary; the
    /// detail carries the slot and orphaned-request count, the trace id
    /// points at the batch's first request (0 when untraced).
    pub const WORKER_PANIC: &str = "worker.panic";
    /// A request failed typed
    /// ([`ServeError::WorkerCrashed`](crate::ServeError::WorkerCrashed)) after
    /// exhausting the crash-retry budget.
    pub const CRASH_FAILURE: &str = "crash.failure";
    /// The watchdog fired a hung batch's cancel token.
    pub const WATCHDOG_CANCEL: &str = "watchdog.cancel";
    /// A cancelled request exhausted re-delivery and was served the
    /// persistence fallback.
    pub const WATCHDOG_FALLBACK: &str = "watchdog.fallback";
    /// The brownout tier changed; the detail carries the edge and the
    /// health score that drove it.
    pub const BROWNOUT_TRANSITION: &str = "brownout.transition";
    /// A request queued past its SLO deadline was served the
    /// persistence fallback.
    pub const SLO_FALLBACK: &str = "slo.fallback";
}
