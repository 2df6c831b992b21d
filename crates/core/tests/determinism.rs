//! Parallel/serial equivalence harness.
//!
//! Every threaded kernel in the workspace promises *bit-identical*
//! results across thread counts: the `Threading` policy may only change
//! wall-clock time, never a single bit of any fitted parameter or
//! prediction. These tests lock that contract in by fingerprinting the
//! f64 bit patterns produced under `Sequential`, one worker, and many
//! workers. CI runs them both with the `parallel` feature (default) and
//! with `--no-default-features`, which pins the serial build to the
//! same bits.

use dsgl_core::guard::GuardedAnneal;
use dsgl_core::inference::batch_seeds;
use dsgl_core::inference::WarmStart;
use dsgl_core::ridge::{fit_ridge, refit_ridge_masked};
use dsgl_core::{
    guard, inference, DsGlModel, RunCtx, TelemetrySink, Threading, TrainConfig, Trainer,
    VariableLayout,
};
use dsgl_data::Sample;
use dsgl_ising::{AnnealConfig, Coupling, EngineMode};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const POLICIES: [Threading; 3] = [
    Threading::Sequential,
    Threading::Fixed(1),
    Threading::Fixed(8),
];

/// Windows with `frames` history frames of `n_nodes` values; the target
/// frame is a fixed linear function of the last history frame.
fn linear_samples(frames: usize, n_nodes: usize, count: usize, seed: u64) -> Vec<Sample> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let hist: Vec<f64> = (0..frames * n_nodes)
                .map(|_| rng.random::<f64>() * 0.8)
                .collect();
            let last = &hist[(frames - 1) * n_nodes..];
            let target: Vec<f64> = last
                .iter()
                .enumerate()
                .map(|(i, &h)| 0.55 * h + 0.2 * last[(i + 1) % n_nodes])
                .collect();
            Sample {
                history: hist,
                target,
            }
        })
        .collect()
}

/// Exact bit patterns of `J` and `h`.
fn fingerprint(model: &DsGlModel) -> (Vec<u64>, Vec<u64>) {
    (
        model
            .coupling()
            .as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect(),
        model.h().iter().map(|v| v.to_bits()).collect(),
    )
}

#[test]
fn sgd_training_is_bit_identical_across_policies() {
    let samples = linear_samples(2, 6, 48, 1);
    let layout = VariableLayout::new(2, 6, 1);
    let cfg = TrainConfig {
        epochs: 8,
        ..TrainConfig::default()
    };
    let fit_under = |policy: Threading| {
        let mut model = DsGlModel::new(layout);
        let mut rng = StdRng::seed_from_u64(7);
        policy
            .install(|| Trainer::new(cfg).fit(&mut model, &samples, &mut rng))
            .unwrap();
        fingerprint(&model)
    };
    let reference = fit_under(POLICIES[0]);
    for policy in &POLICIES[1..] {
        assert_eq!(
            fit_under(*policy),
            reference,
            "training diverged under {policy:?}"
        );
    }
}

#[test]
fn ridge_fit_and_masked_refit_are_bit_identical_across_policies() {
    let samples = linear_samples(2, 8, 60, 2);
    let layout = VariableLayout::new(2, 8, 1);
    let fit_under = |policy: Threading| {
        let mut model = DsGlModel::new(layout);
        policy.install(|| {
            fit_ridge(&mut model, &samples, 1e-4).unwrap();
            model.coupling_mut().prune_to_density(0.2);
            refit_ridge_masked(&mut model, &samples, 1e-4).unwrap();
        });
        fingerprint(&model)
    };
    let reference = fit_under(POLICIES[0]);
    for policy in &POLICIES[1..] {
        assert_eq!(
            fit_under(*policy),
            reference,
            "ridge pipeline diverged under {policy:?}"
        );
    }
}

#[test]
fn batch_inference_is_bit_identical_across_policies() {
    // 50 nodes × 2 history frames: big enough that the parallel path
    // actually engages (work threshold) under Fixed(8).
    let samples = linear_samples(2, 50, 40, 3);
    let layout = VariableLayout::new(2, 50, 1);
    let mut model = DsGlModel::new(layout);
    fit_ridge(&mut model, &samples[..30], 1e-3).unwrap();
    let windows = &samples[30..];
    let cfg = AnnealConfig::default();
    let infer_under = |policy: Threading| -> Vec<u64> {
        policy
            .install(|| inference::infer_batch(&model, windows, &cfg, 99, &mut RunCtx::default()))
            .unwrap()
            .into_iter()
            .flat_map(|(pred, _)| pred.into_iter().map(|v| v.to_bits()))
            .collect()
    };
    let reference = infer_under(POLICIES[0]);
    for policy in &POLICIES[1..] {
        assert_eq!(
            infer_under(*policy),
            reference,
            "batch inference diverged under {policy:?}"
        );
    }
}

#[test]
fn warm_adaptive_batch_is_bit_identical_across_policies() {
    // The event-driven engine: its data-dependent active set must not
    // let the threading policy change a single output bit either.
    let samples = linear_samples(2, 50, 40, 5);
    let layout = VariableLayout::new(2, 50, 1);
    let mut model = DsGlModel::new(layout);
    fit_ridge(&mut model, &samples[..30], 1e-3).unwrap();
    let windows = &samples[30..];
    let cfg = AnnealConfig {
        mode: EngineMode::adaptive(),
        ..AnnealConfig::default()
    };
    let infer_under = |policy: Threading| -> Vec<u64> {
        policy
            .install(|| inference::infer_batch(&model, windows, &cfg, 31, &mut RunCtx::default()))
            .unwrap()
            .into_iter()
            .flat_map(|(pred, _)| pred.into_iter().map(|v| v.to_bits()))
            .collect()
    };
    let reference = infer_under(POLICIES[0]);
    for policy in &POLICIES[1..] {
        assert_eq!(
            infer_under(*policy),
            reference,
            "warm adaptive batch diverged under {policy:?}"
        );
    }
}

#[test]
fn guarded_batch_matches_unguarded_across_policies() {
    // Fault-free guarded inference must be a zero-cost wrapper: every
    // prediction bit-identical to the unguarded strict batch, under
    // every threading policy, with every window's health clean.
    let samples = linear_samples(2, 50, 40, 7);
    let layout = VariableLayout::new(2, 50, 1);
    let mut model = DsGlModel::new(layout);
    fit_ridge(&mut model, &samples[..30], 1e-3).unwrap();
    let windows = &samples[30..];
    let cfg = AnnealConfig::default();
    let guard = GuardedAnneal::new(cfg);
    let unguarded: Vec<u64> =
        inference::infer_batch(&model, windows, &cfg, 17, &mut RunCtx::default())
            .unwrap()
            .into_iter()
            .flat_map(|(pred, _)| pred.into_iter().map(|v| v.to_bits()))
            .collect();
    for policy in POLICIES {
        let seeds = batch_seeds(17, windows.len());
        let guarded = policy
            .install(|| {
                guard::infer_batch_guarded(&model, windows, &guard, &seeds, &mut RunCtx::default())
            })
            .unwrap();
        for (_, _, health) in &guarded {
            assert!(health.healthy(), "guard fired on healthy hardware: {health:?}");
            assert_eq!(health.retries, 0);
        }
        let bits: Vec<u64> = guarded
            .into_iter()
            .flat_map(|(pred, _, _)| pred.into_iter().map(|v| v.to_bits()))
            .collect();
        assert_eq!(
            bits, unguarded,
            "guarded batch diverged from strict under {policy:?}"
        );
    }
}

#[test]
fn large_matvec_is_bit_identical_across_policies() {
    // n = 1536 clears the 2²⁰-flop work threshold, so Fixed(8) really
    // splits rows across threads; row accumulation order is unchanged.
    let n = 1536;
    let mut rng = StdRng::seed_from_u64(4);
    let mut j = Coupling::zeros(n);
    for i in 0..n {
        for k in (i + 1)..(i + 9).min(n) {
            j.set(i, k, rng.random::<f64>() - 0.5);
        }
    }
    let s: Vec<f64> = (0..n).map(|i| ((i * 37) % 101) as f64 / 101.0 - 0.5).collect();
    let run_under = |policy: Threading| -> Vec<u64> {
        let mut out = vec![0.0; n];
        policy.install(|| j.matvec(&s, &mut out));
        out.iter().map(|v| v.to_bits()).collect()
    };
    let reference = run_under(POLICIES[0]);
    for policy in &POLICIES[1..] {
        assert_eq!(
            run_under(*policy),
            reference,
            "matvec diverged under {policy:?}"
        );
    }
}

#[test]
fn telemetry_sink_never_changes_inference_bits() {
    // An enabled telemetry sink records after the dynamics finish and
    // draws nothing from the RNG, so instrumented inference must emit
    // the same bits as the plain (noop-sink) path — under every
    // threading policy, for both the guarded and unguarded batch.
    let samples = linear_samples(2, 50, 40, 11);
    let layout = VariableLayout::new(2, 50, 1);
    let mut model = DsGlModel::new(layout);
    fit_ridge(&mut model, &samples[..30], 1e-3).unwrap();
    let windows = &samples[30..];
    let cfg = AnnealConfig::default();
    let guard = GuardedAnneal::new(cfg);

    let plain: Vec<u64> = inference::infer_batch(&model, windows, &cfg, 23, &mut RunCtx::default())
        .unwrap()
        .into_iter()
        .flat_map(|(pred, _)| pred.into_iter().map(|v| v.to_bits()))
        .collect();
    for policy in POLICIES {
        let sink = TelemetrySink::enabled();
        let mut ctx = RunCtx {
            sink: &sink,
            ..RunCtx::default()
        };
        let instrumented: Vec<u64> = policy
            .install(|| inference::infer_batch(&model, windows, &cfg, 23, &mut ctx))
            .unwrap()
            .into_iter()
            .flat_map(|(pred, _)| pred.into_iter().map(|v| v.to_bits()))
            .collect();
        assert_eq!(
            instrumented, plain,
            "enabled sink changed inference bits under {policy:?}"
        );
        let snapshot = sink.snapshot();
        assert_eq!(snapshot.counter("anneal.runs"), windows.len() as u64);

        let sink = TelemetrySink::enabled();
        let seeds = batch_seeds(23, windows.len());
        let mut ctx = RunCtx {
            sink: &sink,
            ..RunCtx::default()
        };
        let guarded: Vec<u64> = policy
            .install(|| guard::infer_batch_guarded(&model, windows, &guard, &seeds, &mut ctx))
            .unwrap()
            .into_iter()
            .flat_map(|(pred, _, _)| pred.into_iter().map(|v| v.to_bits()))
            .collect();
        assert_eq!(
            guarded, plain,
            "enabled sink changed guarded bits under {policy:?}"
        );
        let snapshot = sink.snapshot();
        assert_eq!(snapshot.counter("guard.runs"), windows.len() as u64);
        assert_eq!(snapshot.counter("guard.retries"), 0);
    }
}

/// 48 free targets in three blocks of 16 with strong intra-block
/// couplings, weak bridges, and a persistence coupling into the clamped
/// history frame — enough structure that the Louvain coarsener engages
/// rather than falling back to a cold start.
fn community_model(seed: u64) -> (DsGlModel, Vec<Sample>) {
    let n = 48;
    let layout = VariableLayout::new(1, n, 1);
    let mut model = DsGlModel::new(layout);
    let mut rng = StdRng::seed_from_u64(seed);
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
    let row_sums: Vec<f64> = (0..2 * n).map(|v| model.coupling().row_abs_sum(v)).collect();
    for (v, sum) in row_sums.into_iter().enumerate() {
        model.h_mut()[v] = -(1.0 + sum);
    }
    let windows: Vec<Sample> = (0..8)
        .map(|_| Sample {
            history: (0..n).map(|_| rng.random::<f64>() * 0.8 - 0.4).collect(),
            target: vec![0.0; n],
        })
        .collect();
    (model, windows)
}

#[test]
fn multigrid_batch_is_bit_identical_across_policies() {
    // The multigrid warm start promises the same contract as every
    // other kernel: coarsening, coarse solves, and prolongation are
    // all deterministic, so the threading policy may not change a bit.
    let (model, windows) = community_model(41);
    let cfg = AnnealConfig::default();
    let warm = WarmStart::Multigrid {
        levels: 2,
        coarse_tol: 1e-3,
    };
    let infer_under = |policy: Threading| -> Vec<u64> {
        let mut ctx = RunCtx {
            warm,
            ..RunCtx::default()
        };
        policy
            .install(|| inference::infer_batch(&model, &windows, &cfg, 47, &mut ctx))
            .unwrap()
            .into_iter()
            .flat_map(|(pred, _)| pred.into_iter().map(|v| v.to_bits()))
            .collect()
    };
    let reference = infer_under(POLICIES[0]);
    for policy in &POLICIES[1..] {
        assert_eq!(
            infer_under(*policy),
            reference,
            "multigrid batch diverged under {policy:?}"
        );
    }
    // Reruns under the same policy reproduce the reference exactly.
    assert_eq!(infer_under(POLICIES[0]), reference);
}

#[test]
fn guarded_multigrid_matches_unguarded_across_policies() {
    // Fault-free guarded inference with the multigrid warm start stays
    // a zero-cost wrapper under every threading policy.
    let (model, windows) = community_model(43);
    let cfg = AnnealConfig::default();
    let guard = GuardedAnneal::new(cfg);
    let warm = WarmStart::Multigrid {
        levels: 1,
        coarse_tol: 1e-3,
    };
    let warm_ctx = || RunCtx {
        warm,
        ..RunCtx::default()
    };
    let plain: Vec<u64> = inference::infer_batch(&model, &windows, &cfg, 53, &mut warm_ctx())
        .unwrap()
        .into_iter()
        .flat_map(|(pred, _)| pred.into_iter().map(|v| v.to_bits()))
        .collect();
    for policy in POLICIES {
        let seeds = batch_seeds(53, windows.len());
        let guarded = policy
            .install(|| {
                guard::infer_batch_guarded(&model, &windows, &guard, &seeds, &mut warm_ctx())
            })
            .unwrap();
        for (_, _, health) in &guarded {
            assert!(health.healthy(), "guard fired on healthy hardware: {health:?}");
            assert_eq!(health.retries, 0);
        }
        let bits: Vec<u64> = guarded
            .into_iter()
            .flat_map(|(pred, _, _)| pred.into_iter().map(|v| v.to_bits()))
            .collect();
        assert_eq!(
            bits, plain,
            "guarded multigrid diverged from unguarded under {policy:?}"
        );
    }
}
