//! Micro-kernels underlying every experiment: mat-vec, DSPU steps,
//! Louvain, Cholesky, ridge fits.
//!
//! Besides the criterion benches, `cargo bench --bench kernels` writes a
//! machine-readable snapshot to `results/BENCH_kernels.json`:
//! per-kernel ns/op, a batch-forecast comparison of the strict
//! fixed-schedule integrator against the event-driven engine (cold and
//! warm-started) with steps-to-converge and active-set occupancy, and a
//! lockstep-vs-serial comparison of the W-window batched integrator
//! (per-window mat-vecs fused into one N×W GEMM per stage) against the
//! per-window serial loop — bit-identical by construction, timed under
//! sequential threading so the number isolates the GEMM-fusion win. Set
//! `DSGL_BENCH_JSON_ONLY=1` to emit just the snapshot and skip criterion.

use criterion::{criterion_group, BenchmarkId, Criterion};
use dsgl_core::inference::WarmStart;
use dsgl_core::ridge::fit_ridge;
use dsgl_core::{inference, DsGlModel, RunCtx, Threading, VariableLayout};
use dsgl_data::{covid, WindowConfig};
use dsgl_graph::{generators, Louvain};
use dsgl_ising::{
    AnnealConfig, Coupling, EngineMode, NoiseModel, RealValuedDspu, SparseCoupling, TiledCoupling,
};
use dsgl_nn::linalg::{cholesky, cholesky_solve};
use dsgl_nn::Matrix;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;

fn random_coupling(n: usize, density: f64, seed: u64) -> Coupling {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut j = Coupling::zeros(n);
    for i in 0..n {
        for k in (i + 1)..n {
            if rng.random::<f64>() < density {
                j.set(i, k, rng.random::<f64>() - 0.5);
            }
        }
    }
    j
}

/// Couplings confined to contiguous blocks of `block` nodes — the shape
/// the PE-tiled kernel is built for.
fn blocked_coupling(n: usize, block: usize, density: f64, seed: u64) -> Coupling {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut j = Coupling::zeros(n);
    for i in 0..n {
        for k in (i + 1)..n {
            if i / block == k / block && rng.random::<f64>() < density {
                j.set(i, k, rng.random::<f64>() - 0.5);
            }
        }
    }
    j
}

fn bench_kernels(c: &mut Criterion) {
    let n = 256;
    let dense = random_coupling(n, 0.15, 1);
    let sparse = SparseCoupling::from_dense(&dense);
    let state: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() * 0.5).collect();
    let mut out = vec![0.0; n];

    c.bench_function("dense_matvec_256", |b| {
        b.iter(|| dense.matvec(black_box(&state), black_box(&mut out)))
    });
    c.bench_function("sparse_matvec_256_d15", |b| {
        b.iter(|| sparse.matvec(black_box(&state), black_box(&mut out)))
    });

    let mut dspu = RealValuedDspu::new(dense.clone(), vec![-2.0; n]).unwrap();
    let mut rng = StdRng::seed_from_u64(2);
    dspu.randomize_free(&mut rng);
    c.bench_function("dspu_step_256", |b| {
        b.iter(|| dspu.step(2.0, &NoiseModel::none(), &mut rng))
    });

    let graph = generators::stochastic_block_model(&[40, 40, 40], 0.3, 0.01, &mut rng);
    c.bench_function("louvain_120", |b| {
        b.iter(|| {
            let mut r = StdRng::seed_from_u64(3);
            black_box(Louvain::new().run(&graph, &mut r))
        })
    });

    // SPD solve kernel at the harness's dense-fit size class.
    let m = 128;
    let mut g = Matrix::zeros(m, m);
    for i in 0..m {
        for j in 0..m {
            let v = ((i * 31 + j * 17) % 23) as f64 / 23.0 - 0.5;
            g.set(i, j, v);
        }
    }
    let spd = {
        let mut a = g.t_matmul(&g);
        for i in 0..m {
            a.set(i, i, a.get(i, i) + 1.0);
        }
        a
    };
    let rhs: Vec<f64> = (0..m).map(|i| (i as f64 * 0.11).cos()).collect();
    c.bench_function("cholesky_factor_128", |b| {
        b.iter(|| black_box(cholesky(black_box(&spd)).unwrap()))
    });
    let factor = cholesky(&spd).unwrap();
    c.bench_function("cholesky_solve_128", |b| {
        b.iter(|| black_box(cholesky_solve(black_box(&factor), black_box(&rhs))))
    });

    // End-to-end ridge fit on a small windowed dataset.
    let ds = covid::generate(1).truncate(20, 120);
    let (train, _, _) = ds.split_windows(&WindowConfig::one_step(3), 0.8, 0.0);
    let layout = VariableLayout::new(3, 20, 1);
    c.bench_function("ridge_fit_20n_w3", |b| {
        b.iter(|| {
            let mut model = DsGlModel::new(layout);
            fit_ridge(&mut model, black_box(&train), 1.0).unwrap();
            black_box(model)
        })
    });
}

/// Serial-vs-parallel sweep of the threaded kernels. Thread count 1 is
/// the serial baseline (the `parallel` feature's dispatch at one thread
/// takes the sequential path); higher counts show the scaling of the
/// same bit-identical computation. Override the `Auto` policy with
/// `RAYON_NUM_THREADS` when comparing machines.
fn bench_parallel_scaling(c: &mut Criterion) {
    let threads: Vec<usize> = [1usize, 2, 4, 8]
        .into_iter()
        .filter(|&t| t == 1 || t <= 2 * std::thread::available_parallelism().map_or(1, |p| p.get()))
        .collect();

    // Dense mat-vec large enough to clear the work threshold (n² ≥ 2²⁰).
    let n = 2048;
    let dense = random_coupling(n, 0.10, 7);
    let sparse = SparseCoupling::from_dense(&dense);
    let state: Vec<f64> = (0..n).map(|i| (i as f64 * 0.13).cos() * 0.4).collect();
    let mut out = vec![0.0; n];
    let mut group = c.benchmark_group("dense_matvec_2048_threads");
    for &t in &threads {
        group.bench_with_input(BenchmarkId::from_parameter(t), &t, |b, &t| {
            Threading::Fixed(t)
                .install(|| b.iter(|| dense.matvec(black_box(&state), black_box(&mut out))));
        });
    }
    group.finish();
    let mut group = c.benchmark_group("sparse_matvec_2048_d10_threads");
    for &t in &threads {
        group.bench_with_input(BenchmarkId::from_parameter(t), &t, |b, &t| {
            Threading::Fixed(t)
                .install(|| b.iter(|| sparse.matvec(black_box(&state), black_box(&mut out))));
        });
    }
    group.finish();

    // Training: ridge fit (per-target-column solves) on a wider window.
    let nodes = 40;
    let ds = covid::generate(2).truncate(nodes, 160);
    let wc = WindowConfig::one_step(4);
    let (train, _, test) = ds.split_windows(&wc, 0.7, 0.0);
    let layout = VariableLayout::new(4, nodes, 1);
    let mut group = c.benchmark_group("ridge_fit_40n_w4_threads");
    for &t in &threads {
        group.bench_with_input(BenchmarkId::from_parameter(t), &t, |b, &t| {
            Threading::Fixed(t).install(|| {
                b.iter(|| {
                    let mut model = DsGlModel::new(layout);
                    fit_ridge(&mut model, black_box(&train), 1.0).unwrap();
                    black_box(model)
                })
            });
        });
    }
    group.finish();

    // Batch annealing: many windows annealed concurrently.
    let mut model = DsGlModel::new(layout);
    model.init_persistence(0.9);
    fit_ridge(&mut model, &train, 1.0).unwrap();
    let windows = &test[..test.len().min(32)];
    let cfg = dsgl_ising::AnnealConfig::default();
    let mut group = c.benchmark_group("infer_batch_32w_threads");
    for &t in &threads {
        group.bench_with_input(BenchmarkId::from_parameter(t), &t, |b, &t| {
            Threading::Fixed(t).install(|| {
                b.iter(|| {
                    let mut ctx = RunCtx::default();
                    black_box(inference::infer_batch(&model, windows, &cfg, 42, &mut ctx).unwrap())
                })
            });
        });
    }
    group.finish();
}

// ---------------------------------------------------------------------------
// Machine-readable snapshot: results/BENCH_kernels.json.
// ---------------------------------------------------------------------------

#[derive(Serialize)]
struct KernelEntry {
    name: String,
    ns_per_op: f64,
}

/// One engine/warm-start combination over the batch-forecast workload.
#[derive(Serialize)]
struct EngineRun {
    wall_ns: f64,
    /// Mean integrator steps to converge per window.
    mean_steps: f64,
    /// Mean steps taken on the event-driven sparse path (0 for strict).
    mean_sparse_steps: f64,
    /// Mean active-set occupancy per step (1.0 for strict).
    mean_active_fraction: f64,
    rmse: f64,
}

#[derive(Serialize)]
struct BatchForecast {
    windows: usize,
    nodes: usize,
    strict_cold: EngineRun,
    adaptive_cold: EngineRun,
    adaptive_warm: EngineRun,
    /// strict mean steps / adaptive-warm mean steps.
    step_reduction_vs_strict: f64,
    /// Per-node integrations: strict steps / (warm steps × occupancy).
    node_update_reduction_vs_strict: f64,
    wall_time_reduction_vs_strict: f64,
    /// Largest prediction disagreement, rail units.
    max_abs_delta_vs_strict: f64,
}

/// Lockstep batched annealing vs the per-window serial loop on the same
/// strict workload — same seeds, same bits, different wall clock.
#[derive(Serialize)]
struct LockstepComparison {
    windows: usize,
    /// System variables per window machine ((W+1)·N·F).
    variables: usize,
    /// Wall ns for per-window serial strict inference (lockstep off).
    serial_wall_ns: f64,
    /// Wall ns for the same batch through the lockstep fused-GEMM path.
    lockstep_wall_ns: f64,
    /// serial over lockstep — above 1.0 means the fused GEMM wins.
    wall_reduction: f64,
    /// Windows that actually rode the lockstep batch (telemetry probe),
    /// proving the fast path engaged rather than silently declining.
    lockstep_windows: u64,
    /// Lockstep predictions and reports bit-identical to serial.
    bit_identical: bool,
}

#[derive(Serialize)]
struct BenchSnapshot {
    command: String,
    /// Whether the SIMD micro-kernels were live for this snapshot.
    simd: bool,
    kernels: Vec<KernelEntry>,
    batch_forecast: BatchForecast,
    lockstep: LockstepComparison,
}

/// Mean wall-clock ns per call of `f` over `iters` calls (plus warm-up).
fn time_ns(iters: u32, mut f: impl FnMut()) -> f64 {
    for _ in 0..iters.div_ceil(10) {
        f();
    }
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    t0.elapsed().as_nanos() as f64 / f64::from(iters)
}

fn kernel_entries() -> Vec<KernelEntry> {
    let n = 256;
    let dense = random_coupling(n, 0.15, 1);
    let sparse = SparseCoupling::from_dense(&dense);
    let state: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() * 0.5).collect();
    let mut out = vec![0.0; n];
    let mut entries = vec![
        KernelEntry {
            name: "dense_matvec_256".into(),
            ns_per_op: time_ns(2000, || dense.matvec(black_box(&state), black_box(&mut out))),
        },
        KernelEntry {
            name: "csr_matvec_256_d15".into(),
            ns_per_op: time_ns(2000, || sparse.matvec(black_box(&state), black_box(&mut out))),
        },
    ];

    // PE-tiled vs CSR on the block-local couplings the tiles are built
    // for (8 PEs × 32 nodes).
    let block = 32;
    let blocked = blocked_coupling(n, block, 0.6, 5);
    let blocked_csr = SparseCoupling::from_dense(&blocked);
    let block_of: Vec<usize> = (0..n).map(|i| i / block).collect();
    let tiled = TiledCoupling::from_dense_partition(&blocked, &block_of);
    let mut gather = Vec::new();
    entries.push(KernelEntry {
        name: "csr_matvec_256_blocked".into(),
        ns_per_op: time_ns(2000, || {
            blocked_csr.matvec(black_box(&state), black_box(&mut out))
        }),
    });
    entries.push(KernelEntry {
        name: "tiled_matvec_256_8x32".into(),
        ns_per_op: time_ns(2000, || {
            tiled.matvec_with_scratch(black_box(&state), black_box(&mut out), &mut gather)
        }),
    });

    let mut dspu = RealValuedDspu::new(dense, vec![-2.0; n]).unwrap();
    let mut rng = StdRng::seed_from_u64(2);
    dspu.randomize_free(&mut rng);
    entries.push(KernelEntry {
        name: "dspu_step_256".into(),
        ns_per_op: time_ns(2000, || {
            dspu.step(2.0, &NoiseModel::none(), &mut rng);
        }),
    });
    entries
}

fn forecast_run(
    model: &DsGlModel,
    windows: &[dsgl_data::Sample],
    cfg: &AnnealConfig,
    warm: WarmStart,
) -> (EngineRun, Vec<Vec<f64>>) {
    let run = || {
        let mut ctx = RunCtx {
            warm,
            ..RunCtx::default()
        };
        inference::infer_batch(model, windows, cfg, 42, &mut ctx).unwrap()
    };
    let _ = run();
    let t0 = Instant::now();
    let results = run();
    let wall_ns = t0.elapsed().as_nanos() as f64;
    let n = results.len() as f64;
    let (mut steps, mut sparse_steps, mut frac) = (0.0, 0.0, 0.0);
    let (mut se, mut cnt) = (0.0, 0usize);
    for ((pred, report), sample) in results.iter().zip(windows) {
        steps += report.steps as f64;
        sparse_steps += report.sparse_steps as f64;
        frac += report.mean_active_fraction;
        for (p, t) in pred.iter().zip(&sample.target) {
            se += (p - t) * (p - t);
            cnt += 1;
        }
    }
    let preds = results.into_iter().map(|(p, _)| p).collect();
    (
        EngineRun {
            wall_ns,
            mean_steps: steps / n,
            mean_sparse_steps: sparse_steps / n,
            mean_active_fraction: frac / n,
            rmse: (se / cnt as f64).sqrt(),
        },
        preds,
    )
}

/// The shared snapshot workload — same shape as `infer_batch_32w_threads`
/// above: 32 covid windows through a ridge-fitted 40-node model.
fn bench_workload() -> (DsGlModel, Vec<dsgl_data::Sample>) {
    let nodes = 40;
    let ds = covid::generate(2).truncate(nodes, 160);
    let (train, _, test) = ds.split_windows(&WindowConfig::one_step(4), 0.7, 0.0);
    let layout = VariableLayout::new(4, nodes, 1);
    let mut model = DsGlModel::new(layout);
    model.init_persistence(0.9);
    fit_ridge(&mut model, &train, 1.0).unwrap();
    let windows = test[..test.len().min(32)].to_vec();
    (model, windows)
}

fn batch_forecast_snapshot(model: &DsGlModel, windows: &[dsgl_data::Sample]) -> BatchForecast {
    let nodes = model.layout().nodes();

    // Forecast error (~2e-3 RMSE) is model-dominated, so a 1e-4 rail/ns
    // rate tolerance is ample for this workload; both engines get it.
    let strict_cfg = AnnealConfig {
        tolerance: 1e-5,
        ..AnnealConfig::default()
    };
    // Let the sparse path engage as soon as any node settles; the dense
    // fallback only covers the fully-active opening transient.
    let adaptive_cfg = AnnealConfig {
        mode: EngineMode::Adaptive {
            config: dsgl_ising::AdaptiveConfig {
                dense_fraction: 0.95,
                ..dsgl_ising::AdaptiveConfig::default()
            },
        },
        ..strict_cfg
    };
    let (strict_cold, strict_preds) = forecast_run(model, windows, &strict_cfg, WarmStart::Cold);
    let (adaptive_cold, _) = forecast_run(model, windows, &adaptive_cfg, WarmStart::Cold);
    let (adaptive_warm, warm_preds) = forecast_run(
        model,
        windows,
        &adaptive_cfg,
        WarmStart::Chained { chunk: 16 },
    );

    let max_abs_delta = strict_preds
        .iter()
        .flatten()
        .zip(warm_preds.iter().flatten())
        .map(|(s, w)| (s - w).abs())
        .fold(0.0f64, f64::max);
    BatchForecast {
        windows: windows.len(),
        nodes,
        step_reduction_vs_strict: strict_cold.mean_steps / adaptive_warm.mean_steps,
        node_update_reduction_vs_strict: strict_cold.mean_steps
            / (adaptive_warm.mean_steps * adaptive_warm.mean_active_fraction),
        wall_time_reduction_vs_strict: strict_cold.wall_ns / adaptive_warm.wall_ns,
        max_abs_delta_vs_strict: max_abs_delta,
        strict_cold,
        adaptive_cold,
        adaptive_warm,
    }
}

/// Times the strict batch twice — lockstep off, then on — under
/// sequential threading so the ratio isolates the GEMM-fusion win from
/// thread scaling, and verifies bitwise agreement of every prediction
/// and report. Leaves the lockstep toggle at its default (on).
fn lockstep_snapshot(model: &DsGlModel, windows: &[dsgl_data::Sample]) -> LockstepComparison {
    let cfg = AnnealConfig {
        tolerance: 1e-5,
        ..AnnealConfig::default()
    };
    let run = |lockstep: bool| {
        dsgl_core::set_lockstep_enabled(lockstep);
        Threading::Sequential.install(|| {
            let _ = inference::infer_batch(model, windows, &cfg, 42, &mut RunCtx::default()).unwrap();
            let t0 = Instant::now();
            let out = inference::infer_batch(model, windows, &cfg, 42, &mut RunCtx::default()).unwrap();
            (t0.elapsed().as_nanos() as f64, out)
        })
    };
    let (serial_wall_ns, serial) = run(false);
    let (lockstep_wall_ns, lockstep) = run(true);
    let bit_identical = serial.len() == lockstep.len()
        && serial.iter().zip(&lockstep).all(|((p, r), (q, s))| {
            r == s && p.len() == q.len() && p.iter().zip(q).all(|(a, b)| a.to_bits() == b.to_bits())
        });
    // Untimed instrumented pass proving the fused path actually engaged
    // on this workload instead of silently declining to the serial loop.
    let probe = dsgl_core::TelemetrySink::enabled();
    let mut ctx = RunCtx {
        sink: &probe,
        ..RunCtx::default()
    };
    let _ = inference::infer_batch(model, windows, &cfg, 42, &mut ctx).unwrap();
    let lockstep_windows = probe.snapshot().counter("anneal.lockstep_windows");
    dsgl_core::set_lockstep_enabled(true);
    LockstepComparison {
        windows: windows.len(),
        variables: model.layout().total(),
        serial_wall_ns,
        lockstep_wall_ns,
        wall_reduction: serial_wall_ns / lockstep_wall_ns,
        lockstep_windows,
        bit_identical,
    }
}

fn emit_snapshot() {
    let (model, windows) = bench_workload();
    let snapshot = BenchSnapshot {
        command: "cargo bench --bench kernels".into(),
        simd: dsgl_nn::kernels::simd_active(),
        kernels: kernel_entries(),
        batch_forecast: batch_forecast_snapshot(&model, &windows),
        lockstep: lockstep_snapshot(&model, &windows),
    };
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/BENCH_kernels.json");
    let json = serde_json::to_string_pretty(&snapshot).expect("serialise bench snapshot");
    std::fs::write(path, json + "\n").expect("write BENCH_kernels.json");
    println!("wrote {path}");
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_kernels, bench_parallel_scaling
}

fn main() {
    let json_only = std::env::var_os("DSGL_BENCH_JSON_ONLY").is_some();
    // `cargo bench` invokes harness-less benches with `--bench`; plain
    // `cargo test` runs them bare. Emit the snapshot only on real bench
    // runs so the test suite stays side-effect free.
    if json_only || std::env::args().any(|a| a == "--bench") {
        emit_snapshot();
    }
    if !json_only {
        benches();
    }
}
