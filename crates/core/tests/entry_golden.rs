//! Golden bits of every inference entry point.
//!
//! Each case fingerprints one call on a small fixed model with FNV-1a
//! over the prediction bits, `AnnealReport::steps` and the
//! `HealthReport` (via its `Debug` rendering, which prints every f64 in
//! shortest round-trip form). The constants were captured from the
//! separate per-option entry points that preceded `RunCtx`, so any
//! refactor of the inference plumbing must reproduce them exactly.

use dsgl_core::guard::{self, GuardedAnneal, HealthReport, RetryPolicy};
use dsgl_core::inference::{self, batch_seeds, WarmStart};
use dsgl_core::{DsGlModel, RunCtx, TelemetrySink, VariableLayout};
use dsgl_data::Sample;
use dsgl_ising::fault::{FaultModel, StuckNode};
use dsgl_ising::{AnnealConfig, AnnealReport, EngineMode, NoiseModel};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// FNV-1a, 64-bit, folded into `hash`.
fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash = (*hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
}

/// Checksum of windows: prediction bits and step count, plus the
/// rendered `HealthReport` where there is one.
fn checksum<'a>(
    windows: impl IntoIterator<Item = (&'a [f64], &'a AnnealReport, Option<&'a HealthReport>)>,
) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for (pred, report, health) in windows {
        for v in pred {
            fnv(&mut hash, &v.to_bits().to_le_bytes());
        }
        fnv(&mut hash, &(report.steps as u64).to_le_bytes());
        if let Some(h) = health {
            fnv(&mut hash, format!("{h:?}").as_bytes());
        }
    }
    hash
}

fn plain(results: &[(Vec<f64>, AnnealReport)]) -> u64 {
    checksum(results.iter().map(|(p, r)| (&p[..], r, None)))
}

fn guarded(results: &[(Vec<f64>, AnnealReport, HealthReport)]) -> u64 {
    checksum(results.iter().map(|(p, r, h)| (&p[..], r, Some(h))))
}

/// 2 history frames × 6 nodes with dense random couplings and
/// diagonally dominant `h`: every coupling stored, small enough to
/// anneal in milliseconds.
fn dense_model() -> (DsGlModel, Vec<Sample>) {
    let n = 6;
    let layout = VariableLayout::new(2, n, 1);
    let mut model = DsGlModel::new(layout);
    let total = layout.total();
    let mut rng = StdRng::seed_from_u64(0x601D);
    {
        let j = model.coupling_mut();
        for a in 0..total {
            for b in (a + 1)..total {
                j.set(a, b, 0.3 * (rng.random::<f64>() - 0.5));
            }
        }
    }
    let row_sums: Vec<f64> = (0..total)
        .map(|v| model.coupling().row_abs_sum(v))
        .collect();
    for (v, sum) in row_sums.into_iter().enumerate() {
        model.h_mut()[v] = -(0.5 + sum);
    }
    let windows = (0..12)
        .map(|_| Sample {
            history: (0..2 * n)
                .map(|_| rng.random::<f64>() * 0.8 - 0.4)
                .collect(),
            target: vec![0.0; n],
        })
        .collect();
    (model, windows)
}

/// 48 free targets in three coupled blocks, so the Louvain coarsener
/// finds communities and the multigrid warm start really applies.
fn community_model() -> (DsGlModel, Vec<Sample>) {
    let n = 48;
    let layout = VariableLayout::new(1, n, 1);
    let mut model = DsGlModel::new(layout);
    let mut rng = StdRng::seed_from_u64(0xC0DE);
    {
        let j = model.coupling_mut();
        for b in 0..3 {
            let (lo, hi) = (b * 16, (b + 1) * 16);
            for a in lo..hi {
                for c in (a + 1)..hi {
                    if rng.random::<f64>() < 0.4 {
                        j.set(n + a, n + c, 0.2 + 0.2 * rng.random::<f64>());
                    }
                }
            }
        }
        for b in 0..2 {
            j.set(n + (b + 1) * 16 - 1, n + (b + 1) * 16, 0.05);
        }
        for i in 0..n {
            j.set(i, n + i, 0.6);
        }
    }
    let row_sums: Vec<f64> = (0..2 * n)
        .map(|v| model.coupling().row_abs_sum(v))
        .collect();
    for (v, sum) in row_sums.into_iter().enumerate() {
        model.h_mut()[v] = -(1.0 + sum);
    }
    let windows = (0..6)
        .map(|_| Sample {
            history: (0..n).map(|_| rng.random::<f64>() * 0.8 - 0.4).collect(),
            target: vec![0.0; n],
        })
        .collect();
    (model, windows)
}

/// Strict but noisy: every window draws annealing noise from its own
/// RNG stream.
fn noisy() -> AnnealConfig {
    AnnealConfig {
        noise: NoiseModel::relative(0.05),
        ..AnnealConfig::default()
    }
}

fn stuck_first_target(model: &DsGlModel, value: f64) -> FaultModel {
    FaultModel {
        stuck_nodes: vec![StuckNode {
            idx: model.layout().history_len(),
            value,
        }],
        ..FaultModel::none()
    }
}

fn seeds(n: usize) -> Vec<u64> {
    (0..n as u64).map(|i| 0x5EED ^ (i * 7919)).collect()
}

fn check(name: &str, got: u64, want: u64) {
    assert_eq!(
        got, want,
        "{name}: checksum {got:#018x}, golden {want:#018x}"
    );
}

#[test]
fn dense_plain() {
    let (model, windows) = dense_model();
    let mut rng = StdRng::seed_from_u64(3);
    let (p, r) = inference::infer_dense(
        &model,
        &windows[0],
        &noisy(),
        &mut rng,
        &mut RunCtx::default(),
    )
    .unwrap();
    check("dense_plain", plain(&[(p, r)]), 0xda00_cae4_8880_a2c2);
}

/// Two target entries clamped to their true values, the rest annealed
/// under noise; captured from the imputation entry point while it still
/// built its own machine outside the shared window solver.
#[test]
fn dense_imputation() {
    let (model, windows) = dense_model();
    let sample = Sample {
        target: (0..6).map(|i| 0.1 * i as f64 - 0.25).collect(),
        ..windows[2].clone()
    };
    let mut rng = StdRng::seed_from_u64(16);
    let (p, r) = inference::infer_dense_imputation(
        &model,
        &sample,
        &[1, 4],
        &noisy(),
        &mut rng,
        &mut RunCtx::default(),
    )
    .unwrap();
    assert_eq!((p[1], p[4]), (sample.target[1], sample.target[4]));
    check("dense_imputation", plain(&[(p, r)]), 0x5ffe_1f8c_6f09_95f0);
}

#[test]
fn dense_guarded_stuck_node() {
    let (model, windows) = dense_model();
    let guard = GuardedAnneal::new(AnnealConfig::default());
    let faults = stuck_first_target(&model, f64::NAN);
    let mut rng = StdRng::seed_from_u64(4);
    let mut ctx = RunCtx {
        faults: &faults,
        ..RunCtx::default()
    };
    let out = guard::infer_dense_guarded(&model, &windows[1], &guard, &mut rng, &mut ctx).unwrap();
    assert!(
        !out.2.attempts.is_empty(),
        "the NaN stuck node must trip the guard"
    );
    check(
        "dense_guarded_stuck_node",
        guarded(&[out]),
        0xa49b_6d99_e47d_1ee8,
    );
}

#[test]
fn batch_cold() {
    let (model, windows) = dense_model();
    let out =
        inference::infer_batch(&model, &windows, &noisy(), 11, &mut RunCtx::default()).unwrap();
    check("batch_cold", plain(&out), 0x0e1c_8342_52ee_94d1);
}

/// The event-driven engine over a cold batch, captured before the
/// chained warm start (this engine's only golden until then) was
/// removed.
#[test]
fn batch_adaptive_cold() {
    let (model, windows) = dense_model();
    let cfg = AnnealConfig {
        mode: EngineMode::adaptive(),
        ..AnnealConfig::default()
    };
    let out = inference::infer_batch(&model, &windows, &cfg, 12, &mut RunCtx::default()).unwrap();
    check("batch_adaptive_cold", plain(&out), 0x3b3a_0021_132d_90d0);
}

#[test]
fn batch_multigrid() {
    let (model, windows) = community_model();
    let mut ctx = RunCtx {
        warm: WarmStart::Multigrid {
            levels: 2,
            coarse_tol: 1e-3,
        },
        ..RunCtx::default()
    };
    let out =
        inference::infer_batch(&model, &windows, &AnnealConfig::default(), 13, &mut ctx).unwrap();
    check("batch_multigrid", plain(&out), 0x71eb_e63d_2bf1_84f6);
}

/// A strict noiseless dense batch of 12 windows (two chunks). The name
/// and constant date from the fused lockstep integrator, which was
/// bit-identical to the per-window path that now produces them.
#[test]
fn batch_lockstep() {
    let (model, windows) = dense_model();
    let cfg = AnnealConfig::default();
    let out = inference::infer_batch(&model, &windows, &cfg, 14, &mut RunCtx::default()).unwrap();
    check("batch_lockstep", plain(&out), 0x8797_c16b_3dab_f769);
}

#[test]
fn guarded_batch_master_seeded() {
    let (model, windows) = dense_model();
    let guard = GuardedAnneal::new(AnnealConfig::default());
    let seeds = batch_seeds(15, windows.len());
    let out = guard::infer_batch_guarded(&model, &windows, &guard, &seeds, &mut RunCtx::default())
        .unwrap();
    check(
        "guarded_batch_master_seeded",
        guarded(&out),
        0x6c9b_fae5_83ef_b774,
    );
}

/// A guarded seeded batch of exactly 8 strict noiseless dense windows.
/// The name and constant date from the fused lockstep integrator, which
/// was bit-identical to the per-window path that now produces them.
#[test]
fn seeded_guarded_lockstep() {
    let (model, windows) = dense_model();
    let guard = GuardedAnneal::new(AnnealConfig::default());
    let out = guard::infer_batch_guarded_seeded_instrumented(
        &model,
        &windows[..8],
        &guard,
        &seeds(8),
        &FaultModel::none(),
        &TelemetrySink::noop(),
    )
    .unwrap();
    check(
        "seeded_guarded_lockstep",
        guarded(&out),
        0x48a0_1dc4_391d_b5ed,
    );
}

#[test]
fn seeded_guarded_faulted() {
    let (model, windows) = dense_model();
    let guard = GuardedAnneal::new(AnnealConfig::default()).with_policy(RetryPolicy {
        max_retries: 1,
        backoff: 1.0,
    });
    let faults = FaultModel {
        coupler_drift: 0.02,
        ..stuck_first_target(&model, f64::NAN)
    };
    let out = guard::infer_batch_guarded_seeded_instrumented(
        &model,
        &windows,
        &guard,
        &seeds(windows.len()),
        &faults,
        &TelemetrySink::noop(),
    )
    .unwrap();
    assert!(out.iter().all(|(_, _, h)| !h.healthy()));
    check(
        "seeded_guarded_faulted",
        guarded(&out),
        0x66a4_2261_82de_fa50,
    );
}
