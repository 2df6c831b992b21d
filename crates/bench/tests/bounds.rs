//! Workload-scale bounds on the fault guard, telemetry, dense kernels,
//! serving, supervision and multigrid layers, at seed 7 on the quick
//! `covid` pipeline (or, for the kernels and multigrid, the fixed
//! shapes and graph named at each test).
//!
//! Two kinds of test live here:
//!
//! - **Deterministic bounds** (bits, counters, ledgers, RMSE, steps).
//!   Tier-1 runs them in debug, except those marked
//!   `cfg_attr(debug_assertions, ignore)`: they take more than ~10 s
//!   there, or need release-speed anneals, and run in release only.
//! - **Wall-clock bounds**, `#[ignore = "wall-clock bound; release CI
//!   job"]`.
//!
//! The release CI job runs both kinds, one test at a time so that no
//! timed run or 50 ms watchdog shares the CPU with another test. It
//! leaves out the hand-run full multigrid sweep:
//!
//! ```text
//! cargo test --release -p dsgl-bench --test bounds -- --include-ignored \
//!     --skip multigrid_full_sweep --test-threads=1
//! ```

use dsgl_bench::fault::{run_campaign, FaultCampaignConfig};
use dsgl_bench::pipeline::{self, Scale, H_MAGNITUDE, LAMBDA_GRID};
use dsgl_core::guard::{infer_batch_guarded, infer_batch_guarded_seeded_instrumented};
use dsgl_core::inference::batch_seeds;
use dsgl_core::ridge::{fit_ridge_instrumented, fit_ridge_validated_instrumented};
use dsgl_core::{
    DsGlModel, FlightDump, GuardedAnneal, MetricsSnapshot, PatternKind, RunCtx, SpanCollector,
    TelemetrySink, TraceScope,
};
use dsgl_data::Sample;
use dsgl_graph::generators::planted_partition;
use dsgl_hw::MappedMachine;
use dsgl_ising::fault::FaultModel;
use dsgl_ising::{
    build_hierarchy, warm_start_with, AnnealConfig, EngineMode, MultigridHierarchy,
    MultigridOptions, RealValuedDspu, SparseCoupling,
};
use dsgl_nn::kernels;
use dsgl_serve::{
    flight_events, instruments, BrownoutPolicy, ChaosConfig, ForecastService, ServeConfig,
    ServeError,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

const SEED: u64 = 7;
const DATASET: &str = "covid";

/// A snapshot must parse back under the frozen schema.
fn assert_roundtrips(snapshot: &MetricsSnapshot) {
    let json = serde_json::to_string(snapshot).expect("serialise snapshot");
    let parsed: MetricsSnapshot = serde_json::from_str(&json).expect("snapshot round-trip");
    assert_eq!(&parsed, snapshot);
}

/// The serial one-by-one reference for every distinct `(window, seed)`
/// key of a request stream: the bits each served response must match.
fn serial_reference(
    model: &DsGlModel,
    guard: &GuardedAnneal,
    windows: &[Vec<f64>],
    keys: impl IntoIterator<Item = (usize, u64)>,
) -> HashMap<(usize, u64), Vec<f64>> {
    let target_len = model.layout().target_len();
    let mut reference = HashMap::new();
    for (w, seed) in keys {
        reference.entry((w, seed)).or_insert_with(|| {
            let sample = Sample {
                history: windows[w].clone(),
                target: vec![0.0; target_len],
            };
            infer_batch_guarded_seeded_instrumented(
                model,
                std::slice::from_ref(&sample),
                guard,
                &[seed],
                &FaultModel::none(),
                &TelemetrySink::noop(),
            )
            .expect("serial reference")
            .remove(0)
            .0
        });
    }
    reference
}

/// Trains the quick-scale forecaster the serving tests drive and
/// returns it with its test windows' histories.
fn quick_forecaster() -> (DsGlModel, Vec<Vec<f64>>) {
    let scale = Scale::quick();
    let p = pipeline::prepare(DATASET, &scale, SEED);
    let (model, _) = pipeline::train_dense(&p, &scale, SEED);
    let windows: Vec<Vec<f64>> = p.test.iter().map(|s| s.history.clone()).collect();
    assert!(!windows.is_empty(), "dataset produced no test windows");
    (model, windows)
}

// ---------------------------------------------------------------- faults

/// Guarded RMSE at every swept fault rate of the smoke campaign stays
/// under `max(clean · SMOKE_RMSE_FACTOR, SMOKE_RMSE_FLOOR)`.
#[test]
fn fault_smoke_campaign_stays_under_rmse_bound() {
    let report = run_campaign(&FaultCampaignConfig::smoke(SEED));
    let bound = report.smoke_bound();
    assert!(
        report.worst_rmse() <= bound,
        "smoke bound violated: worst rmse {} > bound {bound}",
        report.worst_rmse()
    );
}

// ------------------------------------------------------------- telemetry

/// Relative wall-time bound of the enabled sink and of the traced pass.
const TELEMETRY_OVERHEAD_BOUND: f64 = 0.05;
/// Absolute slack absorbing scheduler/timer noise on short runs.
const TELEMETRY_OVERHEAD_SLACK_S: f64 = 0.10;
/// Windows co-annealed on the simulated mesh per pipeline pass.
const MAPPED_WINDOWS: usize = 4;

/// One train → guarded forecast → mapped co-anneal pass under `sink`
/// and `scope`. Returns the guarded-forecast RMSE, whose bits must not
/// depend on either.
fn run_pipeline(sink: &TelemetrySink, scope: &TraceScope) -> f64 {
    let scale = Scale::quick();
    let p = pipeline::prepare(DATASET, &scale, SEED);

    // Validated ridge fit, as in `pipeline::train_dense`, on the
    // instrumented entry points.
    let mut model = DsGlModel::new(p.layout);
    model.h_mut().iter_mut().for_each(|h| *h = -H_MAGNITUDE);
    let rho = pipeline::lag1_autocorrelation(&p.train, p.layout.frame_len()).clamp(0.0, 0.99);
    model.init_diffusion_prior(&p.dataset.graph, 0.78 * rho, 0.20 * rho);
    let (head, val) = pipeline::head_val_split(&p.train);
    let lambda = fit_ridge_validated_instrumented(&mut model, head, val, &LAMBDA_GRID, sink)
        .expect("validated ridge fit");
    fit_ridge_instrumented(&mut model, &p.train, lambda, sink).expect("final ridge fit");

    let guard = GuardedAnneal::new(AnnealConfig::default());
    let seeds = batch_seeds(SEED, p.test.len());
    let scopes = vec![scope.clone(); p.test.len()];
    let mut ctx = RunCtx {
        sink,
        scopes: &scopes,
        ..RunCtx::default()
    };
    let results =
        infer_batch_guarded(&model, &p.test, &guard, &seeds, &mut ctx).expect("guarded batch");
    let mut sse = 0.0;
    let mut count = 0usize;
    for ((pred, _, _), sample) in results.iter().zip(&p.test) {
        for (p, t) in pred.iter().zip(&sample.target) {
            sse += (p - t) * (p - t);
            count += 1;
        }
    }

    let d = pipeline::decompose_model(&model, &p, &scale, 0.2, PatternKind::DMesh, SEED);
    let hw = pipeline::hw_config(&p, &scale);
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x7e1e);
    let mut machine = MappedMachine::new(&d, hw.lanes).expect("mapping");
    machine.set_telemetry(sink.clone());
    machine.set_tracing(scope.clone());
    for sample in p.test.iter().take(MAPPED_WINDOWS) {
        machine.load_sample(sample, &mut rng).expect("load sample");
        let report = machine.run(&hw, &mut rng);
        assert!(report.anneal.sim_time_ns > 0.0);
    }
    (sse / count.max(1) as f64).sqrt()
}

/// The noop, enabled-sink and traced (sink plus span collector) passes,
/// each timed.
struct TelemetryPasses {
    wall_s: [f64; 3],
    rmse: [f64; 3],
    /// Snapshot of the enabled-sink pass.
    snapshot: MetricsSnapshot,
    trace_spans: usize,
}

fn telemetry_passes() -> TelemetryPasses {
    let noop = TraceScope::noop();
    let t0 = Instant::now();
    let rmse_noop = run_pipeline(&TelemetrySink::noop(), &noop);
    let wall_noop = t0.elapsed().as_secs_f64();

    let sink = TelemetrySink::enabled();
    let t1 = Instant::now();
    let rmse_enabled = run_pipeline(&sink, &noop);
    let wall_enabled = t1.elapsed().as_secs_f64();

    let spans = SpanCollector::enabled();
    let root = spans.reserve();
    let scope = TraceScope::new(spans.clone(), root, 0);
    let traced_start = spans.now();
    let t2 = Instant::now();
    let rmse_traced = run_pipeline(&TelemetrySink::enabled(), &scope);
    let wall_traced = t2.elapsed().as_secs_f64();
    spans.record_with_id(root, root, 0, "bench.pipeline", traced_start, &[]);

    TelemetryPasses {
        wall_s: [wall_noop, wall_enabled, wall_traced],
        rmse: [rmse_noop, rmse_enabled, rmse_traced],
        snapshot: sink.snapshot(),
        trace_spans: spans.snapshot().len(),
    }
}

/// The sink and the span collector change no pipeline bit, the traced
/// pass records spans, and all four instrument families record activity.
#[test]
fn telemetry_pipeline_records_every_family_without_changing_bits() {
    let passes = telemetry_passes();
    let [noop, enabled, traced] = passes.rmse.map(f64::to_bits);
    assert_eq!(noop, enabled, "telemetry sink changed pipeline bits");
    assert_eq!(noop, traced, "span collector changed pipeline bits");
    assert!(
        passes.trace_spans > 1,
        "the traced pass must record anneal spans, got {}",
        passes.trace_spans
    );
    for (family, probe) in [
        ("anneal", "anneal.runs"),
        ("guard", "guard.runs"),
        ("train", "train.ridge_fits"),
        ("hw", "hw.coanneal_runs"),
    ] {
        assert!(
            passes.snapshot.families().iter().any(|f| f == family),
            "family {family} missing from snapshot"
        );
        assert!(
            passes.snapshot.counter(probe) > 0,
            "core instrument {probe} recorded no activity"
        );
    }
    assert_roundtrips(&passes.snapshot);
}

/// After one warm-up pass, the enabled and the traced pass each stay
/// within `noop × 1.05 + 0.10 s`.
#[test]
#[ignore = "wall-clock bound; release CI job"]
fn telemetry_and_tracing_overhead_within_bound() {
    run_pipeline(&TelemetrySink::noop(), &TraceScope::noop());
    let [noop, enabled, traced] = telemetry_passes().wall_s;
    let bound = noop * (1.0 + TELEMETRY_OVERHEAD_BOUND) + TELEMETRY_OVERHEAD_SLACK_S;
    assert!(
        enabled <= bound,
        "overhead bound violated: enabled {enabled:.3}s > bound {bound:.3}s (noop {noop:.3}s)"
    );
    assert!(
        traced <= bound,
        "tracing bound violated: traced {traced:.3}s > bound {bound:.3}s (noop {noop:.3}s)"
    );
}

// ----------------------------------------------------------------- gemm

/// Aggregate naive wall over aggregate scalar-blocked wall on the large
/// shape class.
const LARGE_CLASS_SPEEDUP_FLOOR: f64 = 2.0;
/// Aggregate scalar-blocked wall over aggregate SIMD wall on the large
/// shape class, checked only when the SIMD path is live.
const SIMD_SPEEDUP_FLOOR: f64 = 1.5;
/// FNV-1a over the concatenated per-entry output checksums of the seed-7
/// profile. Build-invariant by the kernels' bit-exactness contract: the
/// scalar (`--no-default-features --features parallel`) and SIMD builds
/// must both reproduce it.
const GEMM_OUTPUT_CHECKSUM: &str = "8f6c0b915762fcbe";

/// One kernel at one shape: naive, blocked with SIMD off, blocked with
/// SIMD on.
struct KernelEntry {
    class: &'static str,
    naive_s: f64,
    blocked_s: f64,
    simd_s: f64,
    /// Blocked and SIMD outputs bit-identical to the naive one.
    bit_identical: bool,
    /// FNV-1a over the blocked output bits.
    checksum: String,
}

/// Deterministic xorshift fill with ~12 % exact zeros so the naive
/// zero-skip path is active, as in real couplings.
fn fill(len: usize, seed: u64) -> Vec<f64> {
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if x.is_multiple_of(8) {
                0.0
            } else {
                (x % 2000) as f64 / 1000.0 - 1.0
            }
        })
        .collect()
}

/// FNV-1a (64-bit) over a byte stream.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, byte| {
        (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Times `reps` calls of `f` (each into a re-zeroed `out`) after one
/// untimed warm-up call, returning (wall seconds, final output).
fn time_reps(reps: usize, out_len: usize, mut f: impl FnMut(&mut [f64])) -> (f64, Vec<f64>) {
    let mut out = vec![0.0; out_len];
    f(&mut out);
    let t0 = Instant::now();
    for _ in 0..reps {
        out.iter_mut().for_each(|v| *v = 0.0);
        f(&mut out);
    }
    (t0.elapsed().as_secs_f64(), out)
}

/// Profiles one kernel in one process: naive, blocked with SIMD off,
/// blocked with SIMD on. Leaves the SIMD toggle on.
fn profile_kernel(
    class: &'static str,
    reps: usize,
    out_len: usize,
    mut naive: impl FnMut(&mut [f64]),
    mut blocked: impl FnMut(&mut [f64]),
) -> KernelEntry {
    let (naive_s, naive_out) = time_reps(reps, out_len, &mut naive);
    kernels::set_simd_enabled(false);
    let (blocked_s, blocked_out) = time_reps(reps, out_len, &mut blocked);
    kernels::set_simd_enabled(true);
    let (simd_s, simd_out) = time_reps(reps, out_len, &mut blocked);
    KernelEntry {
        class,
        naive_s,
        blocked_s,
        simd_s,
        bit_identical: bits_eq(&naive_out, &blocked_out) && bits_eq(&naive_out, &simd_out),
        checksum: format!(
            "{:016x}",
            fnv1a(blocked_out.iter().flat_map(|v| v.to_bits().to_le_bytes()))
        ),
    }
}

/// GEMM, AᵀB, SYRK, A·Bᵀ and mat-vec at one `m × k × n` shape.
fn profile_class(
    class: &'static str,
    (m, k, n): (usize, usize, usize),
    reps: usize,
) -> [KernelEntry; 5] {
    let a = fill(m * k, SEED);
    let b = fill(k * n, SEED.rotate_left(17) ^ 0x9E37_79B9);
    let bt = fill(n * k, SEED.rotate_left(29) ^ 0x7F4A_7C15);
    let xv = fill(k, SEED.rotate_left(41) ^ 0x55AA);
    let b2 = fill(m * n, SEED.rotate_left(5) ^ 0x1B2C_3D4E);
    [
        profile_kernel(
            class,
            reps,
            m * n,
            |o| kernels::naive_gemm_into(&a, m, k, &b, n, o),
            |o| kernels::gemm_into(&a, m, k, &b, n, o),
        ),
        profile_kernel(
            class,
            reps,
            k * n,
            |o| kernels::naive_gemm_t_into(&a, m, k, &b2, n, o),
            |o| kernels::gemm_t_into(&a, m, k, &b2, n, o),
        ),
        profile_kernel(
            class,
            reps,
            k * k,
            |o| kernels::naive_gemm_t_into(&a, m, k, &a, k, o),
            |o| kernels::syrk_t_into(&a, m, k, o),
        ),
        profile_kernel(
            class,
            reps,
            m * n,
            |o| kernels::naive_gemm_nt_into(&a, m, k, &bt, n, o),
            |o| kernels::gemm_nt_into(&a, m, k, &bt, n, o),
        ),
        profile_kernel(
            class,
            reps * 32,
            m,
            |o| kernels::naive_matvec_into(&a, k, &xv, o),
            |o| kernels::matvec_rows_into(&a, k, &xv, o),
        ),
    ]
}

/// Small sits below the blocked-dispatch threshold; medium and large
/// engage the panel-packed paths, large with a 4.5 MiB packed operand,
/// past any L2. `timed == false` runs each kernel once.
fn kernel_profile(timed: bool) -> Vec<KernelEntry> {
    let reps = |r: usize| if timed { r } else { 0 };
    [
        profile_class("small", (24, 32, 24), reps(50)),
        profile_class("medium", (160, 192, 160), reps(8)),
        profile_class("large", (320, 768, 768), reps(3)),
    ]
    .into_iter()
    .flatten()
    .collect()
}

/// Blocked and SIMD kernels reproduce the naive bits at every profiled
/// shape, and the output checksum matches the pinned constant.
#[test]
#[cfg_attr(debug_assertions, ignore = "over 10 s in debug; runs in release")]
fn kernel_output_checksum_is_pinned() {
    let entries = kernel_profile(false);
    assert!(
        entries.iter().all(|e| e.bit_identical),
        "blocked/SIMD kernel diverged from naive reference bits"
    );
    let stream: String = entries.iter().map(|e| e.checksum.as_str()).collect();
    assert_eq!(format!("{:016x}", fnv1a(stream.bytes())), GEMM_OUTPUT_CHECKSUM);
}

/// The large shape class is ≥ 2× faster blocked than naive and, when
/// the SIMD path is live, ≥ 1.5× faster with SIMD than scalar-blocked.
#[test]
#[ignore = "wall-clock bound; release CI job"]
fn gemm_large_class_speedup_floors() {
    let (naive, blocked, simd) = kernel_profile(true)
        .iter()
        .filter(|e| e.class == "large")
        .fold((0.0, 0.0, 0.0), |(n, b, s), e| {
            (n + e.naive_s, b + e.blocked_s, s + e.simd_s)
        });
    let speedup = naive / blocked;
    assert!(
        speedup >= LARGE_CLASS_SPEEDUP_FLOOR,
        "large-shape GEMM class speedup {speedup:.2}x below the \
         {LARGE_CLASS_SPEEDUP_FLOOR:.1}x acceptance floor"
    );
    if kernels::simd_active() {
        let simd_speedup = blocked / simd;
        assert!(
            simd_speedup >= SIMD_SPEEDUP_FLOOR,
            "large-shape SIMD speedup {simd_speedup:.2}x below the \
             {SIMD_SPEEDUP_FLOOR:.1}x acceptance floor"
        );
    }
}

// ---------------------------------------------------------------- serve

/// Coalesce width 8 must reach at least this multiple of the width-1
/// throughput under the hot-head load.
const SERVE_SPEEDUP_BOUND: f64 = 2.0;
/// Fraction of traffic hitting the current hot key, per mille.
const HOT_PER_MILLE: u64 = 800;
/// The hot key rotates every this many requests.
const ROTATION: usize = 50;
const SERVE_CLIENTS: usize = 8;
const SERVE_REQUESTS: usize = 240;

/// Request `i` → (window index, seed). Hot requests share the rotation
/// period's key; cold requests get a unique seed and never coalesce.
fn hot_head_request(i: usize, n_windows: usize) -> (usize, u64) {
    let h = (i as u64).wrapping_mul(2_654_435_761) % 1000;
    if h < HOT_PER_MILLE {
        let key = i / ROTATION;
        (key % n_windows, 100_000 + key as u64)
    } else {
        (i % n_windows, 1_000_000 + i as u64)
    }
}

/// One closed-loop run at `coalesce`, every response checked against
/// `reference`. Returns the throughput and the run's snapshot.
fn serve_width(
    model: &DsGlModel,
    windows: &[Vec<f64>],
    coalesce: usize,
    reference: &HashMap<(usize, u64), Vec<f64>>,
) -> (f64, MetricsSnapshot) {
    let sink = TelemetrySink::enabled();
    let service = ForecastService::spawn(
        model.clone(),
        GuardedAnneal::new(AnnealConfig::default()),
        sink.clone(),
        ServeConfig::default()
            .workers(1)
            .coalesce(coalesce)
            .queue_capacity(SERVE_CLIENTS * 4)
            .linger(Duration::from_micros(500)),
    )
    .expect("spawn service");
    let next = AtomicUsize::new(0);
    let t0 = Instant::now();
    let answered: usize = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SERVE_CLIENTS)
            .map(|_| {
                let (service, next) = (&service, &next);
                scope.spawn(move || {
                    let mut answered = 0usize;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= SERVE_REQUESTS {
                            break answered;
                        }
                        let (w, seed) = hot_head_request(i, windows.len());
                        let response = loop {
                            match service.forecast(windows[w].clone(), seed) {
                                Ok(response) => break response,
                                Err(ServeError::Overloaded { .. }) => std::thread::yield_now(),
                                Err(e) => panic!("request {i}: {e}"),
                            }
                        };
                        assert_eq!(
                            &response.prediction,
                            &reference[&(w, seed)],
                            "request {i} (window {w}, seed {seed}) diverged from the \
                             serial reference at coalesce={coalesce}"
                        );
                        answered += 1;
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    let wall = t0.elapsed().as_secs_f64();
    assert_eq!(answered, SERVE_REQUESTS);
    (SERVE_REQUESTS as f64 / wall, sink.snapshot())
}

/// Under the closed-loop hot-head load, coalesce width 8 delivers at
/// least twice the width-1 throughput.
#[test]
#[ignore = "wall-clock bound; release CI job"]
fn serve_coalescing_doubles_throughput() {
    let (model, windows) = quick_forecaster();
    let guard = GuardedAnneal::new(AnnealConfig::default());
    let keys = (0..SERVE_REQUESTS).map(|i| hot_head_request(i, windows.len()));
    let reference = serial_reference(&model, &guard, &windows, keys);
    let (w1, _) = serve_width(&model, &windows, 1, &reference);
    serve_width(&model, &windows, 4, &reference);
    let (w8, snapshot) = serve_width(&model, &windows, 8, &reference);
    let speedup = w8 / w1;
    assert!(
        speedup >= SERVE_SPEEDUP_BOUND,
        "coalescing speedup {speedup:.2}x below the {SERVE_SPEEDUP_BOUND:.1}x bound"
    );
    assert_roundtrips(&snapshot);
}

// ---------------------------------------------------------------- chaos

/// Quiet supervision may cost at most this fraction of wall time.
const CHAOS_OVERHEAD_BOUND: f64 = 0.05;
/// Fault-phase p99 may degrade to at most this multiple of the quiet
/// supervised p99, plus the structural watchdog term where applicable.
const P99_FACTOR: f64 = 20.0;
const CHAOS_CLIENTS: usize = 6;
/// Paired baseline/supervised reps of the overhead measurement.
const CHAOS_REPS: usize = 3;
const CHAOS_REQUESTS: usize = 120;
/// Requests burst into the 4-deep queue of the load-spike phase.
const SPIKE_REQUESTS: usize = 60;
/// Seed the chaos faults target.
const VICTIM_SEED: u64 = 424_242;
/// Quick-scale batches anneal in single-digit milliseconds in release,
/// so this deadline only ever catches the injected hangs.
const WATCHDOG: Duration = Duration::from_millis(50);
/// Re-delivery budget; chaos budgets stay strictly under it so every
/// victim recovers to a real, bit-identical anneal.
const CRASH_RETRIES: u32 = 3;

/// The trained forecaster, the campaign stream (every 10th request is
/// the victim, the rest distinct cold keys) and its serial reference.
struct Chaos {
    model: DsGlModel,
    windows: Vec<Vec<f64>>,
    stream: Vec<(usize, u64)>,
    reference: HashMap<(usize, u64), Vec<f64>>,
}

struct PhaseOutcome {
    latencies: Vec<u64>,
    span_count: usize,
    flight: FlightDump,
    snapshot: MetricsSnapshot,
    wall_s: f64,
}

/// The counters a phase is checked on.
struct Ledger {
    p99_latency_us: f64,
    worker_panics: u64,
    worker_respawns: u64,
    requeues: u64,
    watchdog_cancels: u64,
    watchdog_fallbacks: u64,
    rejected: u64,
    trace_spans: usize,
}

fn baseline_config() -> ServeConfig {
    ServeConfig::default()
        .workers(2)
        .coalesce(4)
        .queue_capacity(CHAOS_CLIENTS * 4)
        .linger(Duration::from_micros(500))
}

/// Supervision armed, generous enough that only injected faults trip it.
fn supervised_config() -> ServeConfig {
    baseline_config()
        .watchdog(WATCHDOG)
        .crash_retries(CRASH_RETRIES)
}

impl Chaos {
    fn new() -> Self {
        let (model, windows) = quick_forecaster();
        let stream: Vec<(usize, u64)> = (0..CHAOS_REQUESTS)
            .map(|i| {
                if i % 10 == 3 {
                    (0, VICTIM_SEED)
                } else {
                    (i % windows.len(), 5_000 + i as u64)
                }
            })
            .collect();
        let guard = GuardedAnneal::new(AnnealConfig::default());
        let reference = serial_reference(&model, &guard, &windows, stream.iter().copied());
        Chaos {
            model,
            windows,
            stream,
            reference,
        }
    }

    fn spawn(&self, config: ServeConfig, traced: bool, sink: &TelemetrySink) -> ForecastService {
        let spans = if traced {
            SpanCollector::enabled()
        } else {
            SpanCollector::noop()
        };
        let guard = GuardedAnneal::new(AnnealConfig::default());
        ForecastService::spawn_traced(self.model.clone(), guard, sink.clone(), spans, config)
            .expect("spawn service")
    }

    fn check(&self, (w, seed): (usize, u64), prediction: &[f64]) {
        assert_eq!(
            prediction,
            &self.reference[&(w, seed)][..],
            "(window {w}, seed {seed}) diverged from the serial reference"
        );
    }

    /// Drives the stream through a service in a closed client loop,
    /// checking every response as it arrives.
    fn run_phase(&self, config: ServeConfig, traced: bool) -> PhaseOutcome {
        let sink = TelemetrySink::enabled();
        let service = self.spawn(config, traced, &sink);
        let next = AtomicUsize::new(0);
        let t0 = Instant::now();
        let latencies: Vec<u64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CHAOS_CLIENTS)
                .map(|_| {
                    let (service, next) = (&service, &next);
                    scope.spawn(move || {
                        let mut local = Vec::new();
                        while let Some(&key) =
                            self.stream.get(next.fetch_add(1, Ordering::Relaxed))
                        {
                            let response = loop {
                                match service.forecast(self.windows[key.0].clone(), key.1) {
                                    Ok(response) => break response,
                                    Err(ServeError::Overloaded { .. }) => {
                                        std::thread::yield_now()
                                    }
                                    Err(e) => panic!("{key:?}: {e}"),
                                }
                            };
                            self.check(key, &response.prediction);
                            local.push(response.latency_ns);
                        }
                        local
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
        });
        let wall_s = t0.elapsed().as_secs_f64();
        assert_eq!(latencies.len(), self.stream.len(), "one response per request");
        PhaseOutcome {
            latencies,
            span_count: service.trace_spans().len(),
            flight: service.flight_dump(),
            snapshot: sink.snapshot(),
            wall_s,
        }
    }

    /// One thread bursts the spike stream into a 4-deep queue (retrying
    /// sheds), then waits every ticket.
    fn run_spike(&self) -> PhaseOutcome {
        let sink = TelemetrySink::enabled();
        let service = self.spawn(supervised_config().queue_capacity(4), true, &sink);
        let spike = &self.stream[..SPIKE_REQUESTS];
        let t0 = Instant::now();
        let tickets: Vec<_> = spike
            .iter()
            .map(|&(w, seed)| loop {
                match service.submit(self.windows[w].clone(), seed) {
                    Ok(ticket) => break ticket,
                    Err(ServeError::Overloaded { .. }) => std::thread::yield_now(),
                    Err(e) => panic!("spike submit: {e}"),
                }
            })
            .collect();
        let latencies: Vec<u64> = spike
            .iter()
            .zip(tickets)
            .map(|(&key, ticket)| {
                let response = ticket.wait().expect("admitted spike request answers");
                self.check(key, &response.prediction);
                response.latency_ns
            })
            .collect();
        let wall_s = t0.elapsed().as_secs_f64();
        assert_eq!(latencies.len(), spike.len());
        PhaseOutcome {
            latencies,
            span_count: service.trace_spans().len(),
            flight: service.flight_dump(),
            snapshot: sink.snapshot(),
            wall_s,
        }
    }
}

/// Checks the exactly-once ledger of one phase: every request answered
/// once, one latency observation per admitted request, none failed out
/// of the retry budget, every response bit-identical (checked as it
/// arrived), and, when given, p99 under `p99_bound_us`.
fn ledger(
    name: &str,
    requests: usize,
    outcome: &PhaseOutcome,
    p99_bound_us: Option<f64>,
) -> Ledger {
    let mut sorted = outcome.latencies.clone();
    sorted.sort_unstable();
    let p99_index = ((0.99 * sorted.len() as f64) as usize).min(sorted.len() - 1);
    let snap = &outcome.snapshot;
    let admitted = snap.counter(instruments::REQUESTS);
    let observations = snap.get(instruments::LATENCY_NS).map_or(0, |i| i.count);
    assert_eq!(sorted.len(), requests, "{name}: lost or extra responses");
    assert_eq!(
        observations, admitted,
        "{name}: service sent {observations} responses for {admitted} admitted requests"
    );
    assert_eq!(
        snap.counter(instruments::CRASH_FAILURES),
        0,
        "{name}: requests failed out of retry budget"
    );
    let ledger = Ledger {
        p99_latency_us: sorted[p99_index] as f64 / 1e3,
        worker_panics: snap.counter(instruments::WORKER_PANICS),
        worker_respawns: snap.counter(instruments::WORKER_RESPAWNS),
        requeues: snap.counter(instruments::REQUEUES),
        watchdog_cancels: snap.counter(instruments::WATCHDOG_CANCELS),
        watchdog_fallbacks: snap.counter(instruments::WATCHDOG_FALLBACKS),
        rejected: snap.counter(instruments::REJECTED),
        trace_spans: outcome.span_count,
    };
    if let Some(bound) = p99_bound_us {
        assert!(
            ledger.p99_latency_us <= bound,
            "{name}: p99 {:.0} µs exceeds the degradation bound {bound:.0} µs",
            ledger.p99_latency_us
        );
    }
    ledger
}

fn flight_count(outcome: &PhaseOutcome, kind: &str) -> usize {
    outcome.flight.events.iter().filter(|e| e.kind == kind).count()
}

/// The full supervision stack, brownout included, with no fault armed.
fn quiet_config() -> ServeConfig {
    supervised_config().brownout(BrownoutPolicy::default())
}

fn panic_config() -> ServeConfig {
    supervised_config().chaos(ChaosConfig::none().panic_on_seed(VICTIM_SEED, 2))
}

fn hang_config() -> ServeConfig {
    supervised_config().chaos(ChaosConfig::none().hang_on_seed(VICTIM_SEED, 2))
}

/// Baseline, supervised-quiet, worker-panic, hung-anneal and load-spike
/// phases each keep the exactly-once ledger, and each fault leaves its
/// counters and flight events.
#[test]
// In debug, honest batches outlast the 50 ms watchdog and fall back.
#[cfg_attr(debug_assertions, ignore = "needs release-speed anneals")]
fn chaos_phases_keep_the_exactly_once_ledger() {
    let chaos = Chaos::new();
    let total = CHAOS_REQUESTS;

    let base = ledger("baseline", total, &chaos.run_phase(baseline_config(), false), None);
    assert_eq!(base.trace_spans, 0, "the baseline runs untraced");

    let quiet = ledger("supervised-quiet", total, &chaos.run_phase(quiet_config(), true), None);
    assert_eq!(quiet.worker_panics, 0);
    assert_eq!(quiet.watchdog_cancels, 0);
    assert_eq!(quiet.requeues, 0);
    assert!(
        quiet.trace_spans >= total,
        "expected >= {total} spans from the traced quiet phase, got {}",
        quiet.trace_spans
    );

    let panic_outcome = chaos.run_phase(panic_config(), true);
    let panics = ledger("worker-panics", total, &panic_outcome, None);
    assert_eq!(panics.worker_panics, 2, "both panic budgets must fire");
    assert_eq!(panics.worker_respawns, 2);
    assert!(panics.requeues >= 1, "orphans must be re-delivered");
    assert_eq!(
        flight_count(&panic_outcome, flight_events::WORKER_PANIC),
        2,
        "each injected panic must leave a flight event"
    );

    let hang_outcome = chaos.run_phase(hang_config(), true);
    let hangs = ledger("hung-anneals", total, &hang_outcome, None);
    assert!(hangs.watchdog_cancels >= 1, "the watchdog must fire");
    assert!(hangs.requeues >= 1, "cancelled windows must be re-delivered");
    assert!(
        flight_count(&hang_outcome, flight_events::WATCHDOG_CANCEL) >= 1,
        "the watchdog fire must leave a flight event"
    );
    assert_eq!(
        hangs.watchdog_fallbacks, 0,
        "budgeted chaos must recover to real anneals, not fallbacks"
    );
    assert_roundtrips(&hang_outcome.snapshot);

    let spike = ledger("load-spike", SPIKE_REQUESTS, &chaos.run_spike(), None);
    assert!(
        spike.rejected >= 1,
        "a {SPIKE_REQUESTS}-request burst into a 4-deep queue must shed"
    );
}

/// Quiet supervision costs at most 5 % wall time (minimum over paired
/// baseline/supervised reps), and the fault phases' p99 stays within
/// 20× the quiet p99 plus the watchdog term.
#[test]
#[ignore = "wall-clock bound; release CI job"]
fn chaos_quiet_overhead_and_fault_p99_bounds() {
    let chaos = Chaos::new();
    let total = CHAOS_REQUESTS;
    // Each rep runs baseline and supervised back to back, so the pair
    // shares the machine's load state; the minimum paired ratio filters
    // a noise spike in one pair but not a systematic supervision cost.
    let mut overhead = f64::INFINITY;
    let mut quiet_best: Option<PhaseOutcome> = None;
    for _ in 0..CHAOS_REPS {
        let base = chaos.run_phase(baseline_config(), false);
        let quiet = chaos.run_phase(quiet_config(), true);
        overhead = overhead.min(quiet.wall_s / base.wall_s - 1.0);
        if quiet_best.as_ref().is_none_or(|b| quiet.wall_s < b.wall_s) {
            quiet_best = Some(quiet);
        }
    }
    assert!(
        overhead <= CHAOS_OVERHEAD_BOUND,
        "quiet supervision costs {:.1}% wall time, over the {:.0}% bound",
        overhead * 100.0,
        CHAOS_OVERHEAD_BOUND * 100.0
    );
    let quiet = quiet_best.expect("reps ran");
    let quiet_p99 = ledger("supervised-quiet", total, &quiet, None).p99_latency_us;

    let panic_bound = P99_FACTOR * quiet_p99 + 150_000.0;
    ledger("worker-panics", total, &chaos.run_phase(panic_config(), true), Some(panic_bound));
    // A victim can be cancelled twice before it recovers.
    let hang_bound = P99_FACTOR * quiet_p99 + 3.0 * WATCHDOG.as_micros() as f64 + 150_000.0;
    ledger("hung-anneals", total, &chaos.run_phase(hang_config(), true), Some(hang_bound));
}

// ------------------------------------------------------------- multigrid

/// Forecast windows per graph; clamp observations drift between them.
const MG_WINDOWS: usize = 3;
/// One node in `CLAMP_EVERY` is a clamped observation.
const CLAMP_EVERY: usize = 50;
/// Multigrid must save at least this fraction of the cold strategy's
/// fine integrator steps on the 4k-node graph.
const STEP_SAVINGS_FLOOR: f64 = 0.30;
/// Multigrid wall time must be at least this factor below cold and
/// chained at 100k+ nodes.
const WALL_SPEEDUP_BOUND: f64 = 2.0;
/// Multigrid RMSE may exceed cold RMSE by at most this relative margin.
const RMSE_PARITY: f64 = 0.01;
/// `hᵢ = -(margin + Σⱼ|Jᵢⱼ|)`: a small margin makes the inter-community
/// modes slow, the regime where warm starts matter.
const DIAGONAL_MARGIN: f64 = 0.05;

/// SplitMix64 finaliser → uniform in `[0, 1)`.
fn hash01(mut x: u64) -> f64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// Clamp value for a node in `block` at window `w`: a block-correlated
/// base level plus a small per-window drift, well inside the rails.
fn clamp_value(block: usize, window: usize) -> f64 {
    let base = hash01(block as u64 + 1) - 0.5;
    let drift = (hash01((block as u64) << 20 | (window as u64 + 1)) - 0.5) * 0.5;
    (0.5 * base + drift).clamp(-0.8, 0.8)
}

/// A planted-partition sparse machine with 2 % of its nodes clamped.
struct Problem {
    machine: RealValuedDspu,
    /// Clamped node → its community block.
    clamped: Vec<(usize, usize)>,
    free: Vec<usize>,
    /// Adjacency over the full node set, for Jacobi.
    adjacency: Vec<Vec<(u32, f64)>>,
    h: Vec<f64>,
}

fn build_problem(n: usize) -> Problem {
    let communities = (n / 256).max(4);
    let mut rng = StdRng::seed_from_u64(SEED ^ n as u64);
    let graph = planted_partition(n, communities, 8, 2, &mut rng);
    let block_len = n.div_ceil(communities);
    let mut adjacency: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
    let mut row_sum = vec![0.0f64; n];
    let entries: Vec<(u32, u32, f64)> = graph
        .edges()
        .iter()
        .map(|&(u, v, w)| {
            // Weaker inter-community links: cross-block information
            // flows slowly, the regime a coarse-grid solve pays off in.
            let w = if u / block_len == v / block_len { w } else { w * 0.2 };
            adjacency[u].push((v as u32, w));
            adjacency[v].push((u as u32, w));
            row_sum[u] += w.abs();
            row_sum[v] += w.abs();
            (u as u32, v as u32, w)
        })
        .collect();
    let h: Vec<f64> = row_sum.iter().map(|s| -(DIAGONAL_MARGIN + s)).collect();
    let coupling = SparseCoupling::from_entries(n, &entries).expect("valid entries");
    let mut machine = RealValuedDspu::from_sparse(coupling, h.clone()).expect("valid machine");
    let (clamped, free): (Vec<usize>, Vec<usize>) = (0..n).partition(|i| i % CLAMP_EVERY == 0);
    let clamped: Vec<(usize, usize)> = clamped.into_iter().map(|i| (i, i / block_len)).collect();
    for &(i, b) in &clamped {
        machine.clamp(i, clamp_value(b, 0)).expect("in range");
    }
    Problem {
        machine,
        clamped,
        free,
        adjacency,
        h,
    }
}

/// Damped Jacobi iteration to the fixed point of the free subsystem at
/// window `w`; diagonal dominance makes it a contraction.
fn fixed_point(p: &Problem, window: usize) -> Vec<f64> {
    let mut state = vec![0.0f64; p.adjacency.len()];
    for &(i, b) in &p.clamped {
        state[i] = clamp_value(b, window);
    }
    let mut next = state.clone();
    for _ in 0..2_000 {
        let mut max_delta = 0.0f64;
        for &i in &p.free {
            let mut dot = 0.0;
            for &(j, w) in &p.adjacency[i] {
                dot += w * state[j as usize];
            }
            let v = dot / (-p.h[i]);
            max_delta = max_delta.max((v - state[i]).abs());
            next[i] = v;
        }
        for &i in &p.free {
            state[i] = next[i];
        }
        if max_delta < 1e-12 {
            break;
        }
    }
    state
}

#[derive(Clone, Copy, PartialEq)]
enum Strategy {
    Cold,
    Chained,
    Multigrid,
}

struct StrategyRun {
    wall_s: f64,
    fine_steps: usize,
    rmse: f64,
    converged_windows: usize,
    /// Final free-state bits of every window.
    bits: Vec<u64>,
}

/// Solves every window with `strategy`, timing only the solver work:
/// clamp updates, warm starts and the anneal.
fn run_strategy(p: &Problem, strategy: Strategy, truths: &[Vec<f64>]) -> StrategyRun {
    let cfg = AnnealConfig {
        mode: EngineMode::adaptive(),
        max_time_ns: 25_000.0,
        tolerance: 1e-5,
        ..AnnealConfig::default()
    };
    let opts = MultigridOptions {
        levels: 3,
        coarse_tol: 1e-6,
    };
    let mut machine = p.machine.clone();
    let mut hierarchy: Option<MultigridHierarchy> = None;
    let (mut wall_s, mut fine_steps, mut converged, mut sq_sum) = (0.0, 0, 0, 0.0);
    let mut bits = Vec::new();
    for (w, truth) in truths.iter().enumerate() {
        let t0 = Instant::now();
        for &(i, b) in &p.clamped {
            machine.clamp(i, clamp_value(b, w)).expect("in range");
        }
        // Chained keeps the previous window's settled free state.
        if strategy != Strategy::Chained || w == 0 {
            let mut rng = StdRng::seed_from_u64(SEED ^ (w as u64) << 32);
            machine.randomize_free(&mut rng);
        }
        if strategy == Strategy::Multigrid {
            // The partition depends only on topology and clamp mask, so
            // the first window builds the hierarchy for all of them.
            if hierarchy.is_none() {
                hierarchy = build_hierarchy(&machine, &opts);
            }
            if let Some(h) = &hierarchy {
                warm_start_with(&mut machine, h, &opts, &cfg);
            }
        }
        let mut rng = StdRng::seed_from_u64(SEED ^ 0xf1fe ^ (w as u64) << 32);
        let report = machine.run(&cfg, &mut rng);
        wall_s += t0.elapsed().as_secs_f64();
        fine_steps += report.steps;
        converged += usize::from(report.converged);
        let sq: f64 = p.free.iter().map(|&i| (machine.state()[i] - truth[i]).powi(2)).sum();
        let rmse = (sq / p.free.len() as f64).sqrt();
        sq_sum += rmse * rmse;
        bits.extend(p.free.iter().map(|&i| machine.state()[i].to_bits()));
    }
    StrategyRun {
        wall_s,
        fine_steps,
        rmse: (sq_sum / truths.len() as f64).sqrt(),
        converged_windows: converged,
        bits,
    }
}

/// Builds the `n`-node problem and its per-window fixed points.
fn problem_with_truths(n: usize) -> (Problem, Vec<Vec<f64>>) {
    let p = build_problem(n);
    let truths = (0..MG_WINDOWS).map(|w| fixed_point(&p, w)).collect();
    (p, truths)
}

/// Multigrid RMSE stays within parity of cold, and every multigrid
/// window converges.
fn assert_mg_parity(n: usize, cold: &StrategyRun, mg: &StrategyRun) {
    assert!(
        mg.rmse <= cold.rmse * (1.0 + RMSE_PARITY) + 1e-12,
        "n={n}: multigrid rmse {:.3e} exceeds cold {:.3e} beyond parity",
        mg.rmse,
        cold.rmse
    );
    assert_eq!(mg.converged_windows, MG_WINDOWS, "n={n}: multigrid windows must converge");
}

/// On the 4k-node graph, multigrid reruns are bit-identical, keep RMSE
/// parity with cold, converge, and save ≥ 30 % of cold's fine steps.
#[test]
#[cfg_attr(debug_assertions, ignore = "over 10 s in debug; runs in release")]
fn multigrid_reruns_bitwise_and_saves_fine_steps() {
    let n = 4_000;
    let (p, truths) = problem_with_truths(n);
    let cold = run_strategy(&p, Strategy::Cold, &truths);
    let mg = run_strategy(&p, Strategy::Multigrid, &truths);
    let again = run_strategy(&p, Strategy::Multigrid, &truths);
    assert_eq!(mg.bits, again.bits, "multigrid reruns must be bit-identical at n={n}");
    assert_mg_parity(n, &cold, &mg);
    let savings = 1.0 - mg.fine_steps as f64 / cold.fine_steps as f64;
    assert!(
        savings >= STEP_SAVINGS_FLOOR,
        "step savings {savings:.2} below the {STEP_SAVINGS_FLOOR:.2} floor"
    );
}

/// The full 10k → 200k sweep: RMSE parity and convergence at every
/// size, and ≥ 2× wall against both cold and chained starts at 100k+
/// nodes. Takes 3–4 min and ~450 MiB on a 2-core x86-64 box; CI skips
/// it. Run it by hand in release:
///
/// ```text
/// cargo test --release -p dsgl-bench --test bounds multigrid_full_sweep -- --ignored
/// ```
#[test]
#[ignore = "full 10k-200k sweep; run by hand in release"]
fn multigrid_full_sweep_halves_wall_time_at_100k_nodes() {
    for n in [10_000, 25_000, 50_000, 100_000, 200_000] {
        let (p, truths) = problem_with_truths(n);
        let cold = run_strategy(&p, Strategy::Cold, &truths);
        let chained = run_strategy(&p, Strategy::Chained, &truths);
        let mg = run_strategy(&p, Strategy::Multigrid, &truths);
        assert_mg_parity(n, &cold, &mg);
        if n >= 100_000 {
            for (against, base) in [("cold", &cold), ("chained", &chained)] {
                let speedup = base.wall_s / mg.wall_s;
                assert!(
                    speedup >= WALL_SPEEDUP_BOUND,
                    "n={n}: wall speedup vs {against} {speedup:.2}x below the \
                     {WALL_SPEEDUP_BOUND:.1}x bound"
                );
            }
        }
    }
}
