//! The long-lived forecast service: worker pool, coalescing, SLO triage,
//! and the supervision layer (panic isolation, hung-anneal watchdog,
//! graduated brownout admission).

use dsgl_core::guard::{infer_batch_guarded, RetryPolicy};
use dsgl_core::tracing::{chrome_trace_json, prometheus_text};
use dsgl_core::{
    CancelToken, CoreError, DsGlModel, FlightDump, FlightRecorder, GuardedAnneal, HealthReport,
    MetricsSnapshot, RunCtx, SpanCollector, SpanRecord, TelemetrySink, TraceScope,
};
use dsgl_data::Sample;
use dsgl_ising::Workspace;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::queue::{BoundedQueue, PushError};
use crate::{flight_events, instruments};
use crate::supervisor::{self, HealthInputs, WorkerSlot, TIER_BROWNOUT, TIER_NORMAL, TIER_SHED};
use crate::ServeConfig;

/// Errors surfaced by the serving layer.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServeError {
    /// Admission refused the request — the queue was full, or brownout
    /// tiering shed it. Nothing was enqueued; back off for about
    /// `retry_after` and resubmit.
    Overloaded {
        /// The configured queue capacity.
        capacity: usize,
        /// Backlog depth observed at rejection time.
        depth: usize,
        /// Suggested client backoff before retrying, estimated from the
        /// backlog and a moving average of batch service time.
        retry_after: Duration,
    },
    /// The submitted history window has the wrong length for the
    /// service's model layout.
    ShapeMismatch {
        /// `W·N·F` history values the model expects.
        expected: usize,
        /// What the request supplied.
        actual: usize,
    },
    /// The service is shutting down and no longer admits requests.
    ShuttingDown,
    /// The worker serving this request disappeared without replying
    /// (it panicked or the service was torn down mid-flight).
    WorkerLost,
    /// The request was orphaned by worker panics more times than the
    /// configured [`crash_retries`](ServeConfig::crash_retries) budget;
    /// the service gave up re-delivering it.
    WorkerCrashed {
        /// Re-deliveries consumed before giving up.
        retries: u32,
    },
    /// A configuration knob the service cannot run with.
    InvalidConfig {
        /// Human-readable reason.
        reason: String,
    },
    /// The batched inference call itself failed; every request in the
    /// batch receives the same underlying error.
    Inference(CoreError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Overloaded {
                capacity,
                depth,
                retry_after,
            } => {
                write!(
                    f,
                    "admission refused ({depth}/{capacity} queued, retry after {retry_after:?})"
                )
            }
            ServeError::ShapeMismatch { expected, actual } => {
                write!(f, "history window has length {actual}, expected {expected}")
            }
            ServeError::ShuttingDown => write!(f, "service is shutting down"),
            ServeError::WorkerLost => write!(f, "worker exited without replying"),
            ServeError::WorkerCrashed { retries } => {
                write!(f, "workers crashed on this request {} times", retries + 1)
            }
            ServeError::InvalidConfig { reason } => write!(f, "invalid serve config: {reason}"),
            ServeError::Inference(e) => write!(f, "batched inference failed: {e}"),
        }
    }
}

impl Error for ServeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServeError::Inference(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for ServeError {
    fn from(e: CoreError) -> Self {
        ServeError::Inference(e)
    }
}

/// One answered forecast request.
#[derive(Debug, Clone, PartialEq)]
pub struct ForecastResponse {
    /// The predicted target block (always finite).
    pub prediction: Vec<f64>,
    /// What the guarded anneal (or the SLO fallback) did to produce it.
    pub health: HealthReport,
    /// Whether this response is the sanitised persistence fallback
    /// served because the request sat queued past its SLO deadline.
    pub slo_degraded: bool,
    /// How many requests shared the batch this one was served in.
    pub batch_width: usize,
    /// Wall-clock admission-to-reply latency in nanoseconds.
    /// Observability metadata only — never part of the determinism
    /// contract.
    pub latency_ns: u64,
}

/// A pending reply handle returned by
/// [`ForecastService::submit`]; redeem it with [`wait`](Ticket::wait).
#[derive(Debug)]
pub struct Ticket {
    rx: mpsc::Receiver<Result<ForecastResponse, ServeError>>,
}

impl Ticket {
    /// Blocks until the service answers this request.
    ///
    /// # Errors
    ///
    /// Whatever the worker reported, or [`ServeError::WorkerLost`] if it
    /// died without replying.
    pub fn wait(self) -> Result<ForecastResponse, ServeError> {
        self.rx.recv().map_err(|_| ServeError::WorkerLost)?
    }
}

struct Request {
    window: Vec<f64>,
    seed: u64,
    admitted: Instant,
    /// Crash/cancel re-deliveries consumed so far.
    retries: u32,
    /// This request's trace id, doubling as its reserved root
    /// `serve.request` span id (0 when the service traces nowhere).
    trace_id: u64,
    /// FNV-1a of `(seed, window bits)` for brownout coalesce-admission
    /// bookkeeping. A collision can only mis-admit or mis-shed — the
    /// exact-bits coalescing key in `serve_group` is what decides who
    /// shares an anneal, so bits are never at risk.
    key: u64,
    reply: mpsc::Sender<Result<ForecastResponse, ServeError>>,
}

fn fnv_word(mut hash: u64, word: u64) -> u64 {
    for byte in word.to_le_bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

fn request_key(seed: u64, window: &[f64]) -> u64 {
    let mut hash = fnv_word(0xcbf2_9ce4_8422_2325, seed);
    for v in window {
        hash = fnv_word(hash, v.to_bits());
    }
    hash
}

struct Shared {
    model: DsGlModel,
    guard: GuardedAnneal,
    sink: TelemetrySink,
    queue: BoundedQueue<Request>,
    config: ServeConfig,
    /// Set once by shutdown: workers stop respawning/requeueing, the
    /// supervisor stops escalating.
    stopping: AtomicBool,
    /// Set by shutdown after every worker joined: the supervisor's exit
    /// signal (it must outlive the workers — a batch hung at shutdown
    /// still needs its watchdog).
    workers_done: AtomicBool,
    /// Live worker JoinHandles. A panicking worker registers its
    /// replacement here *before* its own thread exits, so shutdown's
    /// drain loop can never miss one.
    handles: Mutex<Vec<JoinHandle<()>>>,
    /// One watchdog slot per worker index; replacements reuse theirs.
    slots: Vec<WorkerSlot>,
    /// Current brownout tier (written by the supervisor, read at
    /// admission and batch planning).
    tier: AtomicU8,
    /// Worker panics observed (brownout score input).
    crashes: AtomicU64,
    /// Guard retries across served windows (brownout score input,
    /// deliberately independent of the possibly-noop telemetry sink).
    guard_retries: AtomicU64,
    /// Windows served (brownout score input).
    guard_runs: AtomicU64,
    /// EWMA of batch wall time in ns (retry-after hint).
    batch_ewma_ns: AtomicU64,
    /// Multiset of FNV keys currently waiting in the queue; maintained
    /// only when brownout is configured (coalesce-only admission needs
    /// to know whether a twin is still queued).
    queued_keys: Option<Mutex<HashMap<u64, u32>>>,
    /// Remaining chaos panic injections.
    panics_armed: AtomicU32,
    /// Remaining chaos hang injections.
    hangs_armed: AtomicU32,
    /// Span collector: noop unless the service was spawned via
    /// [`ForecastService::spawn_traced`], in which case every request
    /// gets a `serve.request` span tree down to the anneal phases.
    spans: SpanCollector,
    /// Always-on black-box recorder of failure-edge events (worker
    /// panics, watchdog fires, brownout edges, SLO fallbacks).
    flight: FlightRecorder,
    /// Flight dump frozen at the moment of the most recent worker
    /// panic, so the evidence survives later ring rotation.
    last_crash_dump: Mutex<Option<FlightDump>>,
}

impl Shared {
    fn stopping(&self) -> bool {
        self.stopping.load(Ordering::Acquire)
    }

    fn note_queued_key(&self, key: u64) {
        if let Some(keys) = &self.queued_keys {
            let mut keys = keys.lock().unwrap_or_else(|e| e.into_inner());
            *keys.entry(key).or_insert(0) += 1;
        }
    }

    fn drop_queued_key(&self, key: u64) {
        if let Some(keys) = &self.queued_keys {
            let mut keys = keys.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(count) = keys.get_mut(&key) {
                if *count <= 1 {
                    keys.remove(&key);
                } else {
                    *count -= 1;
                }
            }
        }
    }

    fn key_is_queued(&self, key: u64) -> bool {
        match &self.queued_keys {
            Some(keys) => keys
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .contains_key(&key),
            None => false,
        }
    }
}

/// A long-lived pool of trained forecasters behind a bounded queue.
///
/// Workers pull admitted requests in batches of up to
/// [`coalesce`](ServeConfig::coalesce), collapse duplicate
/// `(window, seed)` pairs into a single anneal, and run the rest
/// through the seeded guarded batch kernel with a per-worker pooled
/// [`Workspace`] (the PR 5 take/adopt migration, so steady-state
/// serving allocates nothing per request).
///
/// **Supervision** (PR 8): worker bodies run under `catch_unwind`; a
/// panic quarantines the worker's pooled workspace, re-enqueues its
/// un-replied requests exactly once each (up to
/// [`crash_retries`](ServeConfig::crash_retries), then
/// [`ServeError::WorkerCrashed`]), and respawns a fresh worker. With a
/// [`watchdog`](ServeConfig::watchdog), a supervisor thread cancels
/// anneals stuck past the deadline via a cooperative
/// [`CancelToken`]; cancelled requests are re-enqueued, then served the
/// persistence fallback. With a [`brownout`](ServeConfig::brownout)
/// policy, admission degrades Normal → Brownout (coalesce-only, shorter
/// deadline) → Shed on a health score with hysteresis.
///
/// **Determinism contract** (pinned by `tests/determinism.rs`): a
/// request's forecast is a pure function of the model, window, seed,
/// guard policy, and fault model. Queue order, batch grouping, linger,
/// worker count, duplicate collapsing, panic re-delivery, and admission
/// tiering can never change the bits — each window anneals under an RNG
/// derived only from its own seed, exactly as a serial one-by-one run
/// would, and a token that never fires is bit-invisible.
pub struct ForecastService {
    shared: Arc<Shared>,
    supervisor: Option<JoinHandle<()>>,
}

impl ForecastService {
    /// Spawns the worker pool (plus the supervisor heartbeat when a
    /// watchdog or brownout policy is configured) and starts serving.
    ///
    /// The `telemetry` sink receives the `serve.*` instrument family
    /// (plus `guard.*`/`anneal.*` from the kernels underneath); pass
    /// [`TelemetrySink::noop`] to serve unobserved at zero cost —
    /// supervision reads its own atomics, never the sink.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] for zero workers/coalesce/capacity,
    /// malformed brownout bands, or hang chaos without a watchdog.
    pub fn spawn(
        model: DsGlModel,
        guard: GuardedAnneal,
        telemetry: TelemetrySink,
        config: ServeConfig,
    ) -> Result<ForecastService, ServeError> {
        Self::spawn_traced(model, guard, telemetry, SpanCollector::noop(), config)
    }

    /// [`spawn`](Self::spawn) with a [`SpanCollector`]: every admitted
    /// request records a `serve.request` span tree — `serve.admission`
    /// and `serve.queue_wait` under the root, a `serve.batch` span per
    /// executed batch, the `anneal.{strict,adaptive,lockstep}` phase and
    /// `guard.retry` spans from the kernels underneath, plus
    /// `serve.coalesce` / `serve.fallback` markers. Read the tree back
    /// with [`trace_spans`](Self::trace_spans) or export it via
    /// [`chrome_trace`](Self::chrome_trace).
    ///
    /// Pass [`SpanCollector::noop`] (what [`spawn`](Self::spawn) does)
    /// to trace nothing: the disabled collector is a single branch on
    /// every path and provably bit-invisible (the determinism suite runs
    /// collector-enabled vs noop and compares bits).
    ///
    /// # Errors
    ///
    /// See [`spawn`](Self::spawn).
    pub fn spawn_traced(
        model: DsGlModel,
        guard: GuardedAnneal,
        telemetry: TelemetrySink,
        spans: SpanCollector,
        config: ServeConfig,
    ) -> Result<ForecastService, ServeError> {
        config.validate()?;
        config
            .faults
            .validate(model.layout().total())
            .map_err(|e| ServeError::InvalidConfig {
                reason: format!("fault model: {e}"),
            })?;
        telemetry.gauge_set(instruments::WORKERS, config.workers as f64);
        let shared = Arc::new(Shared {
            model,
            guard,
            sink: telemetry,
            queue: BoundedQueue::new(config.queue_capacity),
            stopping: AtomicBool::new(false),
            workers_done: AtomicBool::new(false),
            handles: Mutex::new(Vec::with_capacity(config.workers)),
            slots: (0..config.workers).map(|_| WorkerSlot::new()).collect(),
            tier: AtomicU8::new(TIER_NORMAL),
            crashes: AtomicU64::new(0),
            guard_retries: AtomicU64::new(0),
            guard_runs: AtomicU64::new(0),
            batch_ewma_ns: AtomicU64::new(0),
            queued_keys: config.brownout.as_ref().map(|_| Mutex::new(HashMap::new())),
            panics_armed: AtomicU32::new(config.chaos.armed_panics()),
            hangs_armed: AtomicU32::new(config.chaos.armed_hangs()),
            spans,
            flight: FlightRecorder::with_capacity(config.flight_capacity),
            last_crash_dump: Mutex::new(None),
            config,
        });
        for slot in 0..shared.config.workers {
            spawn_worker(&shared, slot);
        }
        let supervised =
            shared.config.watchdog.is_some() || shared.config.brownout.is_some();
        let supervisor = supervised.then(|| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || supervisor_loop(&shared))
        });
        Ok(ForecastService { shared, supervisor })
    }

    /// Enqueues a forecast request: `window` is the `W·N·F` history
    /// block (frames oldest→newest, node-major) and `seed` determines
    /// the anneal's randomness. Equal `(window, seed)` requests are
    /// coalesced into one anneal and receive identical responses.
    ///
    /// # Errors
    ///
    /// [`ServeError::ShapeMismatch`] for a wrong-length window,
    /// [`ServeError::Overloaded`] when the admission queue is full or
    /// brownout tiering sheds the request (carrying the observed depth
    /// and a retry-after hint),
    /// [`ServeError::ShuttingDown`] after [`shutdown`](Self::shutdown).
    pub fn submit(&self, window: Vec<f64>, seed: u64) -> Result<Ticket, ServeError> {
        let shared = &self.shared;
        let expected = shared.model.layout().history_len();
        if window.len() != expected {
            return Err(ServeError::ShapeMismatch {
                expected,
                actual: window.len(),
            });
        }
        let admission_start = shared.spans.now();
        let key = request_key(seed, &window);
        if shared.config.brownout.is_some() {
            match shared.tier.load(Ordering::Acquire) {
                TIER_SHED => {
                    shared.sink.counter_add(instruments::BROWNOUT_REJECTED, 1);
                    shared.sink.counter_add(instruments::REJECTED, 1);
                    return Err(self.overloaded());
                }
                TIER_BROWNOUT => {
                    // Coalesce-only admission: a request whose twin is
                    // still queued rides the twin's anneal for free;
                    // anything needing new anneal capacity is shed.
                    if shared.key_is_queued(key) {
                        shared.sink.counter_add(instruments::BROWNOUT_ADMITTED, 1);
                    } else {
                        shared.sink.counter_add(instruments::BROWNOUT_REJECTED, 1);
                        shared.sink.counter_add(instruments::REJECTED, 1);
                        return Err(self.overloaded());
                    }
                }
                _ => {}
            }
        }
        let (tx, rx) = mpsc::channel();
        // The trace id doubles as the root `serve.request` span id,
        // reserved now so every child span recorded before reply time
        // already knows its parent (0 under a noop collector).
        let trace_id = shared.spans.reserve();
        let request = Request {
            window,
            seed,
            admitted: Instant::now(),
            retries: 0,
            trace_id,
            key,
            reply: tx,
        };
        match shared.queue.try_push(request) {
            Ok(depth) => {
                shared.note_queued_key(key);
                shared.sink.counter_add(instruments::REQUESTS, 1);
                shared
                    .sink
                    .gauge_set(instruments::QUEUE_DEPTH, depth as f64);
                shared.spans.record(
                    trace_id,
                    trace_id,
                    "serve.admission",
                    admission_start,
                    &[("queue_depth", depth as f64)],
                );
                Ok(Ticket { rx })
            }
            Err(PushError::Full(_)) => {
                shared.sink.counter_add(instruments::REJECTED, 1);
                // Sample the depth at the rejection edge too: brownout
                // post-mortems need the gauge at every decision point.
                shared
                    .sink
                    .gauge_set(instruments::QUEUE_DEPTH, shared.queue.len() as f64);
                Err(self.overloaded())
            }
            Err(PushError::Closed(_)) => Err(ServeError::ShuttingDown),
        }
    }

    /// The [`ServeError::Overloaded`] for right now: observed depth plus
    /// a retry-after hint of "one linger + the backlog's worth of
    /// average batch times".
    fn overloaded(&self) -> ServeError {
        let shared = &self.shared;
        let depth = shared.queue.len();
        // Before any batch completes the EWMA is empty; suggest a
        // modest floor rather than "retry immediately".
        let ewma = shared
            .batch_ewma_ns
            .load(Ordering::Relaxed)
            .max(1_000_000);
        let batches_ahead = depth.div_ceil(shared.config.coalesce).max(1) as u64;
        let retry_after = shared.config.linger
            + Duration::from_nanos(ewma.saturating_mul(batches_ahead));
        ServeError::Overloaded {
            capacity: shared.queue.capacity(),
            depth,
            retry_after,
        }
    }

    /// Submits and waits: the blocking one-call path.
    ///
    /// # Errors
    ///
    /// See [`submit`](Self::submit) and [`Ticket::wait`].
    pub fn forecast(&self, window: Vec<f64>, seed: u64) -> Result<ForecastResponse, ServeError> {
        self.submit(window, seed)?.wait()
    }

    /// The health endpoint: a point-in-time [`MetricsSnapshot`] of every
    /// instrument recorded so far (`serve.*`, `guard.*`, `anneal.*`).
    /// Empty when the service was spawned with a noop sink.
    pub fn health(&self) -> MetricsSnapshot {
        self.shared.sink.snapshot()
    }

    /// Service-level statistics digested from [`health`](Self::health).
    pub fn stats(&self) -> ServiceStats {
        ServiceStats::from_snapshot(&self.health())
    }

    /// Current brownout tier: 0 normal, 1 brownout, 2 shed. Always 0
    /// without a [`brownout`](ServeConfig::brownout) policy.
    pub fn brownout_tier(&self) -> u8 {
        self.shared.tier.load(Ordering::Acquire)
    }

    /// The Prometheus text exposition of [`health`](Self::health) —
    /// what an HTTP `/metrics` endpoint would body out verbatim.
    pub fn prometheus(&self) -> String {
        prometheus_text(&self.health())
    }

    /// The black-box flight recorder's current contents: the last
    /// [`ServeConfig::flight_capacity`] failure-edge events (worker
    /// panics, watchdog fires, brownout edges, SLO fallbacks), oldest
    /// first. Always available — the recorder runs even when tracing
    /// and telemetry are off.
    pub fn flight_dump(&self) -> FlightDump {
        self.shared.flight.dump()
    }

    /// The flight dump frozen at the most recent worker panic (the
    /// black-box evidence, immune to later ring rotation), or `None`
    /// if no worker has ever panicked.
    pub fn last_crash_dump(&self) -> Option<FlightDump> {
        self.shared
            .last_crash_dump
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Every span the collector retains, in creation order. Empty
    /// unless the service was spawned via
    /// [`spawn_traced`](Self::spawn_traced).
    pub fn trace_spans(&self) -> Vec<SpanRecord> {
        self.shared.spans.snapshot()
    }

    /// Chrome trace-event JSON of [`trace_spans`](Self::trace_spans),
    /// loadable directly in Perfetto or `chrome://tracing`.
    pub fn chrome_trace(&self) -> String {
        chrome_trace_json(&self.trace_spans())
    }

    /// Stops admitting requests, drains what was already queued, joins
    /// the workers, then the supervisor. Idempotent — a second call is a
    /// no-op — and panic-safe: a worker that crashed (its replacement
    /// took over) never leaves a handle this loop could hang on, and the
    /// supervisor outlives the workers so a batch hung *at* shutdown
    /// still gets watchdog-cancelled rather than wedging the join.
    /// Also runs on drop. Subsequent [`submit`](Self::submit) calls fail
    /// with [`ServeError::ShuttingDown`].
    pub fn shutdown(&mut self) {
        self.shared.stopping.store(true, Ordering::Release);
        self.shared.queue.close();
        // Workers first: drain the handle list until it stays empty.
        // A panicking worker registers its replacement before exiting,
        // so joining a handle happens-after any handle it spawned was
        // registered — the loop cannot terminate early.
        loop {
            let handle = self
                .shared
                .handles
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .pop();
            match handle {
                Some(handle) => {
                    let _ = handle.join();
                }
                None => break,
            }
        }
        // Only now may the supervisor stop ticking.
        self.shared.workers_done.store(true, Ordering::Release);
        if let Some(supervisor) = self.supervisor.take() {
            let _ = supervisor.join();
        }
    }
}

impl Drop for ForecastService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl fmt::Debug for ForecastService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ForecastService")
            .field("workers", &self.shared.config.workers)
            .field("coalesce", &self.shared.config.coalesce)
            .field("queue_capacity", &self.shared.config.queue_capacity)
            .field("queue_depth", &self.shared.queue.len())
            .field("brownout_tier", &self.shared.tier.load(Ordering::Relaxed))
            .finish()
    }
}

/// Spawns a worker thread on `slot` and registers its handle. Called at
/// service start and by the panic handler (replacement workers reuse
/// the crashed worker's slot).
fn spawn_worker(shared: &Arc<Shared>, slot: usize) {
    let cloned = Arc::clone(shared);
    let handle = std::thread::spawn(move || worker_loop(&cloned, slot));
    shared
        .handles
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push(handle);
}

/// One worker: pop a batch, publish it to the watchdog slot, serve it
/// under `catch_unwind`, and on a panic hand everything to the
/// supervision path (quarantine + re-delivery + respawn).
fn worker_loop(shared: &Arc<Shared>, slot: usize) {
    // The PR 5 pooled workspace lives across every batch this worker
    // ever serves: buffers carry capacity between anneals, never values.
    let mut pool: Option<Workspace> = None;
    while let Some((batch, depth)) = shared
        .queue
        .pop_batch(shared.config.coalesce, shared.config.linger)
    {
        for request in &batch {
            shared.drop_queued_key(request.key);
        }
        shared.sink.counter_add(instruments::BATCHES, 1);
        shared
            .sink
            .record(instruments::COALESCE_WIDTH, batch.len() as f64);
        shared
            .sink
            .gauge_set(instruments::QUEUE_DEPTH, depth as f64);
        // Queue-wait spans (admission → this pop) plus the batch span,
        // reserved *before* serving so the anneal spans recorded inside
        // the kernels can parent to it. The batch span rides the first
        // request's trace.
        if shared.spans.is_enabled() {
            for request in &batch {
                shared.spans.record(
                    request.trace_id,
                    request.trace_id,
                    "serve.queue_wait",
                    Some(request.admitted),
                    &[("batch", batch.len() as f64)],
                );
            }
        }
        let batch_span = shared.spans.reserve();
        let batch_start = shared.spans.now();
        let batch_trace = batch.first().map_or(0, |r| r.trace_id);
        let batch_width = batch.len();
        let started = Instant::now();
        // One fresh token per batch, only when a watchdog can fire it;
        // without a watchdog the whole supervision path is `None`s.
        let token = shared.config.watchdog.map(|_| CancelToken::new());
        if let Some(token) = &token {
            shared.slots[slot].begin(token.clone());
        }
        // The tray owns the batch across the unwind boundary: requests
        // leave it only at reply time, so whatever a panic interrupts
        // is still in the tray for exactly-once re-delivery.
        let tray = Mutex::new(batch.into_iter().map(Some).collect::<Vec<_>>());
        let mut ctx = RunCtx {
            sink: &shared.sink,
            cancel: token.as_ref(),
            faults: &shared.config.faults,
            warm: shared.config.warm_start,
            pool: pool.take(),
            ..RunCtx::default()
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            serve_batch(shared, &tray, &mut ctx, batch_span);
        }));
        pool = ctx.pool;
        shared.slots[slot].clear();
        match outcome {
            Ok(()) => {
                let elapsed = started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
                note_batch_time(shared, elapsed);
                shared.spans.record_with_id(
                    batch_span,
                    batch_trace,
                    batch_trace,
                    "serve.batch",
                    batch_start,
                    &[("width", batch_width as f64)],
                );
            }
            Err(_) => {
                // The workspace's mid-panic state is garbage; it dies
                // with this thread (the replacement pools a fresh one).
                drop(pool);
                handle_worker_panic(shared, slot, tray);
                return;
            }
        }
    }
}

/// EWMA (α = 1/8) of batch wall time, feeding the retry-after hint.
fn note_batch_time(shared: &Shared, elapsed_ns: u64) {
    let prev = shared.batch_ewma_ns.load(Ordering::Relaxed);
    let next = if prev == 0 {
        elapsed_ns
    } else {
        prev - prev / 8 + elapsed_ns / 8
    };
    shared.batch_ewma_ns.store(next, Ordering::Relaxed);
}

/// The worker panic path: account the crash, re-enqueue every
/// un-replied request exactly once each (budget permitting), and spawn
/// a replacement on the same slot.
fn handle_worker_panic(shared: &Arc<Shared>, slot: usize, tray: Mutex<Vec<Option<Request>>>) {
    shared.crashes.fetch_add(1, Ordering::Relaxed);
    shared.sink.counter_add(instruments::WORKER_PANICS, 1);
    let leftovers: Vec<Request> = tray
        .into_inner()
        .unwrap_or_else(|e| e.into_inner())
        .into_iter()
        .flatten()
        .collect();
    shared.flight.record(
        flight_events::WORKER_PANIC,
        format!("worker {slot}: {} orphaned request(s)", leftovers.len()),
        leftovers.first().map_or(0, |r| r.trace_id),
    );
    let stopping = shared.stopping();
    for mut request in leftovers {
        if !stopping && request.retries < shared.config.crash_retries {
            request.retries += 1;
            shared.sink.counter_add(instruments::REQUEUES, 1);
            shared.note_queued_key(request.key);
            // Capacity-ignoring front re-insert: an admitted request is
            // never shed, and it keeps its FIFO seniority.
            let depth = shared.queue.requeue(request);
            shared
                .sink
                .gauge_set(instruments::QUEUE_DEPTH, depth as f64);
        } else {
            shared.sink.counter_add(instruments::CRASH_FAILURES, 1);
            shared.flight.record(
                flight_events::CRASH_FAILURE,
                format!("seed {} failed after {} re-deliveries", request.seed, request.retries),
                request.trace_id,
            );
            let retries = request.retries;
            let _ = request
                .reply
                .send(Err(ServeError::WorkerCrashed { retries }));
        }
    }
    // Freeze the black box *after* the per-request events above, so the
    // crash dump carries the whole failure edge.
    *shared
        .last_crash_dump
        .lock()
        .unwrap_or_else(|e| e.into_inner()) = Some(shared.flight.dump());
    // Re-enqueue strictly before respawn: the replacement drains the
    // queue until it is closed *and* empty, so items present at its
    // spawn are guaranteed served even mid-shutdown. (Respawn-first
    // could let the replacement observe closed+empty and exit between
    // its spawn and our requeue, stranding the re-delivered requests.)
    if !stopping {
        shared.sink.counter_add(instruments::WORKER_RESPAWNS, 1);
        spawn_worker(shared, slot);
    }
}

/// Serves one popped batch from its tray: SLO triage, chaos injection,
/// group planning (normal vs chaos-hung seeds), then one guarded kernel
/// call per group with per-request fan-out.
fn serve_batch(
    shared: &Arc<Shared>,
    tray: &Mutex<Vec<Option<Request>>>,
    ctx: &mut RunCtx<'_>,
    batch_span: u64,
) {
    let lock_tray = || tray.lock().unwrap_or_else(|e| e.into_inner());
    let width = lock_tray().iter().flatten().count();
    // Brownout shortens the effective SLO deadline: queued work past the
    // browned-out deadline takes the instant fallback, freeing anneal
    // capacity for what the tighter admission still lets in.
    let tier = shared.tier.load(Ordering::Acquire);
    let deadline = match &shared.config.brownout {
        Some(policy) if tier >= TIER_BROWNOUT => Some(
            shared
                .config
                .deadline
                .map_or(policy.deadline, |d| d.min(policy.deadline)),
        ),
        _ => shared.config.deadline,
    };
    if let Some(deadline) = deadline {
        let expired: Vec<usize> = lock_tray()
            .iter()
            .enumerate()
            .filter_map(|(i, r)| {
                r.as_ref()
                    .filter(|r| r.admitted.elapsed() >= deadline)
                    .map(|_| i)
            })
            .collect();
        for idx in expired {
            let Some(request) = lock_tray()[idx].take() else {
                continue;
            };
            let (prediction, mut health) = persistence_fallback(&shared.model, &request.window);
            health.trace_id = request.trace_id;
            shared.sink.counter_add(instruments::SLO_FALLBACKS, 1);
            shared.sink.counter_add(instruments::DEGRADATIONS, 1);
            shared.flight.record(
                flight_events::SLO_FALLBACK,
                format!("seed {} queued past its deadline", request.seed),
                request.trace_id,
            );
            shared.spans.record(
                request.trace_id,
                request.trace_id,
                "serve.fallback",
                shared.spans.is_enabled().then_some(request.admitted),
                &[("slo", 1.0)],
            );
            respond(shared, request, prediction, health, true, width);
        }
    }
    // Chaos: a batch containing the panic seed dies here — after
    // planning, before any live reply — while the injection budget
    // lasts. Everything still in the tray gets re-delivered.
    if let Some(seed) = shared.config.chaos.panic_on_seed {
        let armed = lock_tray().iter().flatten().any(|r| r.seed == seed)
            && disarm_one(&shared.panics_armed);
        if armed {
            panic!("chaos: injected worker panic");
        }
    }
    // Group planning: chaos-hung seeds split off so innocents in the
    // same batch finish (normal group runs first) before the hung group
    // starts burning watchdog time.
    let (normal, hung) = {
        let guard = lock_tray();
        let hang_seed = shared.config.chaos.hang_on_seed;
        let inject = hang_seed
            .is_some_and(|s| guard.iter().flatten().any(|r| r.seed == s))
            && disarm_one(&shared.hangs_armed);
        let mut normal = Vec::new();
        let mut hung = Vec::new();
        for (i, r) in guard.iter().enumerate() {
            if let Some(r) = r {
                if inject && Some(r.seed) == hang_seed {
                    hung.push(i);
                } else {
                    normal.push(i);
                }
            }
        }
        (normal, hung)
    };
    if !normal.is_empty() {
        serve_group(shared, tray, &normal, &shared.guard, ctx, width, batch_span);
    }
    if !hung.is_empty() {
        let chaos_guard = chaos_hang_guard(&shared.guard);
        serve_group(shared, tray, &hung, &chaos_guard, ctx, width, batch_span);
    }
}

/// Decrements an injection budget if any remains; `true` means this
/// call claimed an injection.
fn disarm_one(budget: &AtomicU32) -> bool {
    budget
        .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| n.checked_sub(1))
        .is_ok()
}

/// The chaos "infinite-stiffness window": an un-satisfiable guard
/// (zero tolerance, effectively unbounded budget, no retries) that
/// genuinely wedges the integrator until the watchdog's token fires —
/// the honest way to exercise integrator-granularity cancellation.
fn chaos_hang_guard(base: &GuardedAnneal) -> GuardedAnneal {
    let mut guard = *base;
    guard.anneal.tolerance = 0.0;
    guard.anneal.max_time_ns = 1e18;
    guard.policy = RetryPolicy {
        max_retries: 0,
        backoff: 1.0,
    };
    guard
}

/// Serves one group of tray indices: coalesce duplicates, run the
/// supervised guarded kernel once under the worker's `ctx`, fan results
/// out. Cancelled windows (watchdog fired mid-group) are re-enqueued or
/// served the persistence fallback instead of their (meaningless)
/// partial states.
fn serve_group(
    shared: &Arc<Shared>,
    tray: &Mutex<Vec<Option<Request>>>,
    indices: &[usize],
    guard: &GuardedAnneal,
    ctx: &mut RunCtx<'_>,
    width: usize,
    batch_span: u64,
) {
    let target_len = shared.model.layout().target_len();
    // Coalesce duplicates: identical (seed, window bits) anneal once.
    // f64 bit patterns make the key exact — if the bits match, the
    // anneal provably matches, so fan-out is lossless. Planning reads
    // through the tray (requests stay in it until reply time).
    // The first request mapped to a slot is that window's *primary*:
    // the anneal's spans ride the primary's trace, and riders point at
    // it from their `serve.coalesce` span and shared `HealthReport`.
    let (samples, seeds, assignment, primaries) = {
        let tray = tray.lock().unwrap_or_else(|e| e.into_inner());
        let mut index_of: HashMap<(u64, Vec<u64>), usize> = HashMap::new();
        let mut samples: Vec<Sample> = Vec::with_capacity(indices.len());
        let mut seeds: Vec<u64> = Vec::with_capacity(indices.len());
        let mut assignment: Vec<usize> = Vec::with_capacity(indices.len());
        let mut primaries: Vec<u64> = Vec::with_capacity(indices.len());
        for &i in indices {
            let request = tray[i].as_ref().expect("planned request left the tray");
            let key = (
                request.seed,
                request.window.iter().map(|v| v.to_bits()).collect(),
            );
            let slot = *index_of.entry(key).or_insert_with(|| {
                samples.push(Sample {
                    history: request.window.clone(),
                    target: vec![0.0; target_len],
                });
                seeds.push(request.seed);
                primaries.push(request.trace_id);
                samples.len() - 1
            });
            assignment.push(slot);
        }
        (samples, seeds, assignment, primaries)
    };
    let hits = (indices.len() - samples.len()) as u64;
    if hits > 0 {
        shared.sink.counter_add(instruments::COALESCED_HITS, hits);
    }
    // One scope per distinct window: anneal/guard spans record into the
    // primary's trace, parented under this batch's span. Empty when the
    // collector is noop — the kernels then skip tracing in one branch.
    let scopes: Vec<TraceScope> = if shared.spans.is_enabled() {
        primaries
            .iter()
            .map(|&t| TraceScope::new(shared.spans.clone(), t, batch_span))
            .collect()
    } else {
        Vec::new()
    };
    let mut traced = RunCtx {
        scopes: &scopes,
        pool: ctx.pool.take(),
        ..*ctx
    };
    let results = infer_batch_guarded(&shared.model, &samples, guard, &seeds, &mut traced);
    ctx.pool = traced.pool;
    match results {
        Ok(results) => {
            // Brownout score inputs — dedicated atomics, not the sink,
            // so tiering works identically under a noop sink.
            if shared.config.brownout.is_some() {
                let retries: u64 = results.iter().map(|(_, _, h)| h.retries as u64).sum();
                shared
                    .guard_runs
                    .fetch_add(results.len() as u64, Ordering::Relaxed);
                shared.guard_retries.fetch_add(retries, Ordering::Relaxed);
            }
            for (&i, &slot) in indices.iter().zip(&assignment) {
                let Some(request) = tray.lock().unwrap_or_else(|e| e.into_inner())[i].take()
                else {
                    continue;
                };
                let (prediction, _, health) = &results[slot];
                if health.cancelled {
                    resolve_cancelled(shared, request, width);
                    continue;
                }
                // A rider marks that it coasted on the primary's anneal;
                // its health (cloned below) carries the primary's trace
                // id, which is the pointer a post-mortem follows.
                if request.trace_id != primaries[slot] {
                    shared.spans.record(
                        request.trace_id,
                        request.trace_id,
                        "serve.coalesce",
                        shared.spans.is_enabled().then_some(request.admitted),
                        &[("primary_trace", primaries[slot] as f64)],
                    );
                }
                // Count before replying: a caller that snapshots the
                // instruments right after its response must already see
                // its own degradation reflected.
                if health.degraded {
                    shared.sink.counter_add(instruments::DEGRADATIONS, 1);
                }
                respond(
                    shared,
                    request,
                    prediction.clone(),
                    health.clone(),
                    false,
                    width,
                );
            }
        }
        Err(e) => {
            for &i in indices {
                let Some(request) = tray.lock().unwrap_or_else(|e| e.into_inner())[i].take()
                else {
                    continue;
                };
                let _ = request.reply.send(Err(ServeError::Inference(e.clone())));
            }
        }
    }
}

/// Policy for a watchdog-cancelled request: re-enqueue while the budget
/// lasts (a fresh batch gets a fresh token, so innocents re-run
/// bit-identically), then serve the persistence fallback — the PR 6
/// degradation path, flagged `cancelled` so the client knows why.
fn resolve_cancelled(shared: &Arc<Shared>, mut request: Request, width: usize) {
    if !shared.stopping() && request.retries < shared.config.crash_retries {
        request.retries += 1;
        shared.sink.counter_add(instruments::REQUEUES, 1);
        shared.note_queued_key(request.key);
        let depth = shared.queue.requeue(request);
        shared
            .sink
            .gauge_set(instruments::QUEUE_DEPTH, depth as f64);
    } else {
        let (prediction, mut health) = persistence_fallback(&shared.model, &request.window);
        health.cancelled = true;
        health.trace_id = request.trace_id;
        shared.sink.counter_add(instruments::WATCHDOG_FALLBACKS, 1);
        shared.sink.counter_add(instruments::DEGRADATIONS, 1);
        shared.flight.record(
            flight_events::WATCHDOG_FALLBACK,
            format!("seed {} out of re-deliveries after cancellation", request.seed),
            request.trace_id,
        );
        shared.spans.record(
            request.trace_id,
            request.trace_id,
            "serve.fallback",
            shared.spans.is_enabled().then_some(request.admitted),
            &[("cancelled", 1.0)],
        );
        respond(shared, request, prediction, health, false, width);
    }
}

fn respond(
    shared: &Shared,
    request: Request,
    prediction: Vec<f64>,
    health: HealthReport,
    slo_degraded: bool,
    batch_width: usize,
) {
    let latency_ns = request.admitted.elapsed().as_nanos() as u64;
    shared
        .sink
        .record(instruments::LATENCY_NS, latency_ns as f64);
    // The root span closes here, under the id reserved at submit, so
    // every child recorded along the way already points at it.
    shared.spans.record_with_id(
        request.trace_id,
        request.trace_id,
        0,
        "serve.request",
        shared.spans.is_enabled().then_some(request.admitted),
        &[
            ("batch_width", batch_width as f64),
            ("slo_degraded", f64::from(u8::from(slo_degraded))),
            ("retries", f64::from(request.retries)),
        ],
    );
    // A dropped Ticket just means the caller stopped waiting.
    let _ = request.reply.send(Ok(ForecastResponse {
        prediction,
        health,
        slo_degraded,
        batch_width,
        latency_ns,
    }));
}

/// The supervisor heartbeat: fire the watchdog on overdue batches and
/// re-score the brownout tier. Runs until shutdown has joined every
/// worker — it must outlive them, because a batch hung at shutdown
/// still needs its cancellation.
fn supervisor_loop(shared: &Shared) {
    let watchdog = shared.config.watchdog;
    let brownout = shared.config.brownout.clone();
    let mut tick = Duration::from_millis(50);
    if let Some(deadline) = watchdog {
        tick = tick.min((deadline / 4).max(Duration::from_millis(1)));
    }
    if let Some(policy) = &brownout {
        tick = tick.min(policy.tick);
    }
    let (mut prev_runs, mut prev_retries, mut prev_crashes) = (0u64, 0u64, 0u64);
    while !shared.workers_done.load(Ordering::Acquire) {
        std::thread::sleep(tick);
        if let Some(deadline) = watchdog {
            for (i, slot) in shared.slots.iter().enumerate() {
                if slot.cancel_if_overdue(deadline) {
                    shared.sink.counter_add(instruments::WATCHDOG_CANCELS, 1);
                    shared.flight.record(
                        flight_events::WATCHDOG_CANCEL,
                        format!("worker {i} overdue past {deadline:?}"),
                        0,
                    );
                }
            }
        }
        if let Some(policy) = &brownout {
            if shared.stopping() {
                continue; // admission is closed anyway; stop re-scoring
            }
            let runs = shared.guard_runs.load(Ordering::Relaxed);
            let retries = shared.guard_retries.load(Ordering::Relaxed);
            let crashes = shared.crashes.load(Ordering::Relaxed);
            let inputs = HealthInputs {
                queue_fill: shared.queue.len() as f64 / shared.queue.capacity().max(1) as f64,
                retries: retries.saturating_sub(prev_retries),
                runs: runs.saturating_sub(prev_runs),
                crashes: crashes.saturating_sub(prev_crashes),
            };
            (prev_runs, prev_retries, prev_crashes) = (runs, retries, crashes);
            let score = supervisor::health_score(&inputs, policy);
            let current = shared.tier.load(Ordering::Acquire);
            let next = supervisor::next_tier(score, current, policy);
            if next != current {
                shared.tier.store(next, Ordering::Release);
                shared
                    .sink
                    .counter_add(instruments::BROWNOUT_TRANSITIONS, 1);
                shared.flight.record(
                    flight_events::BROWNOUT_TRANSITION,
                    format!("tier {current} -> {next} (score {score:.3})"),
                    0,
                );
            }
            shared
                .sink
                .gauge_set(instruments::BROWNOUT_TIER, f64::from(next));
        }
    }
}

/// The SLO fallback: tile the newest history frame across the horizon
/// (persistence forecast), sanitising non-finite inputs to 0.0. Instant,
/// allocation-light, always finite — the serving twin of the guard's
/// strict-fallback rung.
fn persistence_fallback(model: &DsGlModel, window: &[f64]) -> (Vec<f64>, HealthReport) {
    let layout = model.layout();
    let frame = layout.frame_len();
    let last = &window[window.len() - frame..];
    let mut health = HealthReport {
        degraded: true,
        ..HealthReport::default()
    };
    let mut prediction = Vec::with_capacity(layout.target_len());
    for _ in 0..layout.horizon() {
        for &v in last {
            if v.is_finite() {
                prediction.push(v);
            } else {
                prediction.push(0.0);
                health.sanitized_nodes += 1;
            }
        }
    }
    (prediction, health)
}

/// Digested service statistics, derived from the `serve.*` instruments
/// of a [`MetricsSnapshot`]. Serde field names are part of the frozen
/// snapshot interface (`tests/serialization.rs`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceStats {
    /// Requests admitted.
    pub requests: u64,
    /// Requests shed at the door by admission control.
    pub rejected: u64,
    /// Batches executed.
    pub batches: u64,
    /// Requests answered from a coalesced duplicate's anneal.
    pub coalesced_hits: u64,
    /// Responses marked degraded (guard fallback or SLO fallback).
    pub degradations: u64,
    /// Responses served as the SLO persistence fallback.
    pub slo_fallbacks: u64,
    /// Mean requests per executed batch.
    pub mean_coalesce_width: f64,
    /// Median admission-to-reply latency (bucket estimate), ns.
    pub p50_latency_ns: f64,
    /// 99th-percentile admission-to-reply latency (bucket estimate), ns.
    pub p99_latency_ns: f64,
    /// Worker threads serving.
    pub workers: u64,
}

impl ServiceStats {
    /// Digests a snapshot's `serve.*` instruments (zeros when absent,
    /// e.g. from a noop sink).
    pub fn from_snapshot(snapshot: &MetricsSnapshot) -> ServiceStats {
        let latency = snapshot.get(instruments::LATENCY_NS);
        ServiceStats {
            requests: snapshot.counter(instruments::REQUESTS),
            rejected: snapshot.counter(instruments::REJECTED),
            batches: snapshot.counter(instruments::BATCHES),
            coalesced_hits: snapshot.counter(instruments::COALESCED_HITS),
            degradations: snapshot.counter(instruments::DEGRADATIONS),
            slo_fallbacks: snapshot.counter(instruments::SLO_FALLBACKS),
            mean_coalesce_width: snapshot
                .get(instruments::COALESCE_WIDTH)
                .map_or(0.0, |i| i.mean()),
            p50_latency_ns: latency.map_or(0.0, |i| i.quantile(0.5)),
            p99_latency_ns: latency.map_or(0.0, |i| i.quantile(0.99)),
            workers: snapshot
                .get(instruments::WORKERS)
                .map_or(0, |i| i.last as u64),
        }
    }
}
