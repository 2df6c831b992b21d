//! Telemetry profile: full pipeline run with the metrics sink enabled.
//!
//! ```text
//! telemetry_profile [--smoke] [--seed N] [--out DIR] [--dataset NAME]
//! ```
//!
//! Runs train → decompose/map → guarded forecast three times — with
//! the noop [`TelemetrySink`], with an enabled sink, and (PR 9) with an
//! enabled sink *plus* an enabled [`SpanCollector`] — and writes
//! `BENCH_telemetry.json` under the output directory (default
//! `results/`) with the wall times, the overhead fractions, and the
//! full [`MetricsSnapshot`] of the instrumented run.
//!
//! `--smoke` runs the CI-sized workload and additionally asserts the
//! acceptance conditions: the snapshot contains the `anneal`, `guard`,
//! `train`, and `hw` instrument families at non-zero counts, and both
//! the enabled-sink and the traced wall times stay within the
//! documented bound (`OVERHEAD_BOUND`, plus a small absolute floor for
//! timer noise on seconds-scale runs).

use dsgl_bench::pipeline::{self, Scale, H_MAGNITUDE, LAMBDA_GRID};
use dsgl_core::guard::{infer_batch_guarded, GuardedAnneal};
use dsgl_core::inference::batch_seeds;
use dsgl_core::ridge::{fit_ridge_instrumented, fit_ridge_validated_instrumented};
use dsgl_core::{
    DsGlModel, MetricsSnapshot, PatternKind, RunCtx, SpanCollector, TelemetrySink, TraceScope,
};
use dsgl_hw::MappedMachine;
use dsgl_ising::AnnealConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Documented relative overhead bound of the enabled sink (README
/// "Observability": ≤ 5 % end-to-end wall time).
const OVERHEAD_BOUND: f64 = 0.05;
/// Absolute slack absorbing scheduler/timer noise on short smoke runs.
const OVERHEAD_SLACK_S: f64 = 0.10;

#[derive(Serialize)]
struct TelemetryBenchReport {
    command: String,
    dataset: String,
    seed: u64,
    smoke: bool,
    /// Guarded forecast windows evaluated per run.
    windows: usize,
    /// Mapped (hardware-simulated) windows evaluated per run.
    mapped_windows: usize,
    /// Pooled RMSE of the guarded forecast (identical for all runs —
    /// neither the sink nor the span collector may change a bit).
    rmse: f64,
    wall_noop_s: f64,
    wall_enabled_s: f64,
    /// Enabled sink *and* enabled span collector.
    wall_traced_s: f64,
    /// `wall_enabled / wall_noop - 1`.
    overhead_fraction: f64,
    /// `wall_traced / wall_noop - 1`: metrics plus tracing, together.
    tracing_overhead_fraction: f64,
    /// Spans recorded by the traced pass.
    trace_spans: usize,
    snapshot: MetricsSnapshot,
}

/// One full pipeline pass under `sink`. Returns the guarded-forecast
/// RMSE so the work cannot be optimised away and bit-identity between
/// the noop and enabled runs can be asserted.
fn run_pipeline(
    dataset: &str,
    scale: &Scale,
    seed: u64,
    mapped_cap: usize,
    sink: &TelemetrySink,
    scope: &TraceScope,
) -> f64 {
    let p = pipeline::prepare(dataset, scale, seed);

    // Train: validated ridge fit, as in `pipeline::train_dense`, but on
    // the instrumented entry points.
    let mut model = DsGlModel::new(p.layout);
    model.h_mut().iter_mut().for_each(|h| *h = -H_MAGNITUDE);
    let rho = pipeline::lag1_autocorrelation(&p.train, p.layout.frame_len()).clamp(0.0, 0.99);
    model.init_diffusion_prior(&p.dataset.graph, 0.78 * rho, 0.20 * rho);
    let (head, val) = pipeline::head_val_split(&p.train);
    let lambda = fit_ridge_validated_instrumented(&mut model, head, val, &LAMBDA_GRID, sink)
        .expect("validated ridge fit");
    fit_ridge_instrumented(&mut model, &p.train, lambda, sink).expect("final ridge fit");

    // Guarded forecast over the held-out windows.
    let guard = GuardedAnneal::new(AnnealConfig::default());
    let seeds = batch_seeds(seed, p.test.len());
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
    let rmse = (sse / count.max(1) as f64).sqrt();

    // Map onto the simulated mesh and co-anneal a few windows.
    let d = pipeline::decompose_model(&model, &p, scale, 0.2, PatternKind::DMesh, seed);
    let hw = pipeline::hw_config(&p, scale);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7e1e);
    // One machine serves every window: programming the mesh consumes no
    // RNG draws, and the machine-owned run buffers (and workspace) are
    // reused across samples, so the timed loop stays allocation-free
    // after the first window without changing a single result bit.
    let mut machine = MappedMachine::new(&d, hw.lanes).expect("mapping");
    machine.set_telemetry(sink.clone());
    machine.set_tracing(scope.clone());
    for sample in p.test.iter().take(mapped_cap) {
        machine.load_sample(sample, &mut rng).expect("load sample");
        let report = machine.run(&hw, &mut rng);
        assert!(report.anneal.sim_time_ns > 0.0);
    }
    rmse
}

/// Asserts the acceptance condition on the instrumented snapshot: all
/// four instrument families present at non-zero counts.
fn assert_families(snapshot: &MetricsSnapshot) {
    for (family, probe) in [
        ("anneal", "anneal.runs"),
        ("guard", "guard.runs"),
        ("train", "train.ridge_fits"),
        ("hw", "hw.coanneal_runs"),
    ] {
        assert!(
            snapshot.families().iter().any(|f| f == family),
            "family {family} missing from snapshot"
        );
        assert!(
            snapshot.counter(probe) > 0,
            "core instrument {probe} recorded no activity"
        );
    }
}

fn write_report(report: &TelemetryBenchReport, out: &Path) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(out)?;
    let path = out.join("BENCH_telemetry.json");
    let json = serde_json::to_string_pretty(report).expect("serialise telemetry report");
    std::fs::write(&path, json + "\n")?;
    Ok(path)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut seed = 7u64;
    let mut out = PathBuf::from("results");
    let mut dataset = "covid".to_string();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => smoke = true,
            "--seed" => {
                i += 1;
                seed = args[i].parse().expect("--seed takes an integer");
            }
            "--out" => {
                i += 1;
                out = PathBuf::from(&args[i]);
            }
            "--dataset" => {
                i += 1;
                dataset = args[i].clone();
            }
            other => {
                eprintln!("unknown flag {other}");
                eprintln!(
                    "usage: telemetry_profile [--smoke] [--seed N] [--out DIR] [--dataset NAME]"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let scale = if smoke { Scale::quick() } else { Scale::full() };
    let mapped_cap = if smoke { 4 } else { 10 };
    let started = Instant::now();

    // Warm-up pass (page cache, allocator, thread pool), then timed
    // noop, enabled, and traced passes over the identical workload.
    let noop_scope = TraceScope::noop();
    run_pipeline(&dataset, &scale, seed, mapped_cap, &TelemetrySink::noop(), &noop_scope);
    let t0 = Instant::now();
    let rmse_noop =
        run_pipeline(&dataset, &scale, seed, mapped_cap, &TelemetrySink::noop(), &noop_scope);
    let wall_noop = t0.elapsed().as_secs_f64();
    let sink = TelemetrySink::enabled();
    let t1 = Instant::now();
    let rmse_enabled = run_pipeline(&dataset, &scale, seed, mapped_cap, &sink, &noop_scope);
    let wall_enabled = t1.elapsed().as_secs_f64();
    assert_eq!(
        rmse_noop.to_bits(),
        rmse_enabled.to_bits(),
        "telemetry sink changed pipeline bits"
    );
    // Third pass: metrics *and* per-window spans, against a fresh sink
    // so the reported snapshot stays that of the enabled pass.
    let spans = SpanCollector::enabled();
    let root = spans.reserve();
    let scope = TraceScope::new(spans.clone(), root, 0);
    let traced_start = spans.now();
    let t2 = Instant::now();
    let rmse_traced = run_pipeline(
        &dataset,
        &scale,
        seed,
        mapped_cap,
        &TelemetrySink::enabled(),
        &scope,
    );
    let wall_traced = t2.elapsed().as_secs_f64();
    spans.record_with_id(root, root, 0, "bench.pipeline", traced_start, &[]);
    assert_eq!(
        rmse_noop.to_bits(),
        rmse_traced.to_bits(),
        "span collector changed pipeline bits"
    );
    let trace_spans = spans.snapshot().len();
    assert!(
        trace_spans > 1,
        "the traced pass must record anneal spans, got {trace_spans}"
    );

    let snapshot = sink.snapshot();
    assert_families(&snapshot);
    let overhead = wall_enabled / wall_noop - 1.0;
    let tracing_overhead = wall_traced / wall_noop - 1.0;
    let report = TelemetryBenchReport {
        command: format!("telemetry_profile --seed {seed}{}", if smoke { " --smoke" } else { "" }),
        dataset,
        seed,
        smoke,
        windows: snapshot.counter("guard.runs") as usize,
        mapped_windows: mapped_cap,
        rmse: rmse_enabled,
        wall_noop_s: wall_noop,
        wall_enabled_s: wall_enabled,
        wall_traced_s: wall_traced,
        overhead_fraction: overhead,
        tracing_overhead_fraction: tracing_overhead,
        trace_spans,
        snapshot,
    };
    let path = write_report(&report, &out).expect("write BENCH_telemetry.json");
    println!("{}", report.snapshot.summary_table());
    eprintln!(
        "[telemetry profile: rmse {:.4}, noop {:.2}s, enabled {:.2}s ({:+.2}%), traced {:.2}s \
         ({:+.2}%, {} spans), report at {}]",
        report.rmse,
        wall_noop,
        wall_enabled,
        overhead * 100.0,
        wall_traced,
        tracing_overhead * 100.0,
        trace_spans,
        path.display()
    );
    if smoke {
        let bound = wall_noop * (1.0 + OVERHEAD_BOUND) + OVERHEAD_SLACK_S;
        assert!(
            wall_enabled <= bound,
            "smoke overhead bound violated: enabled {wall_enabled:.3}s > bound {bound:.3}s \
             (noop {wall_noop:.3}s)"
        );
        assert!(
            wall_traced <= bound,
            "smoke tracing bound violated: traced {wall_traced:.3}s > bound {bound:.3}s \
             (noop {wall_noop:.3}s)"
        );
        // The report must parse back under the frozen schema.
        let parsed: MetricsSnapshot = serde_json::from_str(
            &serde_json::to_string(&report.snapshot).expect("re-serialise snapshot"),
        )
        .expect("snapshot round-trip");
        assert_eq!(parsed, report.snapshot);
        eprintln!("[smoke ok: overhead bound {bound:.3}s, schema round-trip verified]");
    }
    eprintln!("[done in {:.1}s]", started.elapsed().as_secs_f64());
}
