//! Micro-kernels underlying every experiment: mat-vec, DSPU steps,
//! Louvain, Cholesky, ridge fits.
//!
//! Besides the criterion benches, `cargo bench --bench kernels` writes a
//! machine-readable snapshot to `results/BENCH_kernels.json`:
//! per-kernel ns/op, a cold batch-forecast comparison of the strict
//! fixed-schedule integrator against the event-driven engine with
//! steps-to-converge and active-set occupancy. Set
//! `DSGL_BENCH_JSON_ONLY=1` to emit just the snapshot and skip criterion.

use criterion::{criterion_group, BenchmarkId, Criterion};
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
}

#[derive(Serialize)]
struct BenchSnapshot {
    command: String,
    /// Whether the SIMD micro-kernels were live for this snapshot.
    simd: bool,
    kernels: Vec<KernelEntry>,
    batch_forecast: BatchForecast,
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

fn forecast_run(model: &DsGlModel, windows: &[dsgl_data::Sample], cfg: &AnnealConfig) -> EngineRun {
    let run = || inference::infer_batch(model, windows, cfg, 42, &mut RunCtx::default()).unwrap();
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
    EngineRun {
        wall_ns,
        mean_steps: steps / n,
        mean_sparse_steps: sparse_steps / n,
        mean_active_fraction: frac / n,
        rmse: (se / cnt as f64).sqrt(),
    }
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
    BatchForecast {
        windows: windows.len(),
        nodes: model.layout().nodes(),
        strict_cold: forecast_run(model, windows, &strict_cfg),
        adaptive_cold: forecast_run(model, windows, &adaptive_cfg),
    }
}

fn emit_snapshot() {
    let (model, windows) = bench_workload();
    let snapshot = BenchSnapshot {
        command: "cargo bench --bench kernels".into(),
        simd: dsgl_nn::kernels::simd_active(),
        kernels: kernel_entries(),
        batch_forecast: batch_forecast_snapshot(&model, &windows),
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
