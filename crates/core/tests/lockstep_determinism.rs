//! Determinism battery for the performance toggles: SIMD micro-kernels
//! × lockstep batched annealing × threading policy must never change a
//! single forecast bit.
//!
//! The reference is the most conservative configuration — scalar
//! kernels, per-window serial integration, one thread — and every other
//! combination must reproduce its predictions, annealing reports, and
//! health reports exactly. The battery runs as a single test function
//! because the SIMD and lockstep switches are process-global.

use dsgl_core::guard::infer_batch_guarded_seeded_instrumented;
use dsgl_core::{
    inference, set_lockstep_enabled, DsGlModel, GuardedAnneal, RunCtx, TelemetrySink, Threading,
    TrainConfig, Trainer, VariableLayout,
};
use dsgl_data::{covid, Sample, WindowConfig};
use dsgl_ising::fault::FaultModel;
use dsgl_ising::AnnealConfig;
use rand::SeedableRng;

/// A realistically dense model (regression training couples every
/// target variable to all others), so the lockstep density gate passes
/// and the battery exercises the fused-GEMM path for real.
fn trained_model_and_windows() -> (DsGlModel, Vec<Sample>) {
    let ds = covid::generate(1);
    let wc = WindowConfig::one_step(2);
    let (train, _, test) = ds.split_windows(&wc, 0.25, 0.0);
    let layout = VariableLayout::new(2, ds.node_count(), ds.feature_count());
    let mut model = DsGlModel::new(layout);
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let cfg = TrainConfig {
        epochs: 2,
        ..TrainConfig::default()
    };
    Trainer::new(cfg)
        .fit(&mut model, &train[..24.min(train.len())], &mut rng)
        .unwrap();
    (model, test[..12.min(test.len())].to_vec())
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn forecasts_identical_across_simd_lockstep_threading() {
    let (model, windows) = trained_model_and_windows();
    assert!(windows.len() >= 4, "need a real batch");
    let config = AnnealConfig::default();
    let guard = GuardedAnneal::new(config);
    let seeds: Vec<u64> = (0..windows.len() as u64).map(|i| 0xC0FFEE ^ (i * 977)).collect();
    let sink = TelemetrySink::noop();

    // Reference: scalar kernels, serial per-window integration, one
    // thread — the configuration every release before the SIMD/lockstep
    // work shipped with.
    dsgl_nn::kernels::set_simd_enabled(false);
    set_lockstep_enabled(false);
    let reference = Threading::Sequential
        .install(|| inference::infer_batch(&model, &windows, &config, 99, &mut RunCtx::default()))
        .unwrap();
    let guarded_reference = Threading::Sequential
        .install(|| {
            infer_batch_guarded_seeded_instrumented(
                &model,
                &windows,
                &guard,
                &seeds,
                &FaultModel::none(),
                &sink,
            )
        })
        .unwrap();

    for simd in [false, true] {
        for lockstep in [false, true] {
            for threading in [Threading::Sequential, Threading::Fixed(8)] {
                dsgl_nn::kernels::set_simd_enabled(simd);
                set_lockstep_enabled(lockstep);
                let what = format!("simd={simd} lockstep={lockstep} threading={threading:?}");

                let got = threading
                    .install(|| {
                        inference::infer_batch(
                            &model,
                            &windows,
                            &config,
                            99,
                            &mut RunCtx::default(),
                        )
                    })
                    .unwrap();
                assert_eq!(got.len(), reference.len());
                for (w, ((p, r), (rp, rr))) in got.iter().zip(&reference).enumerate() {
                    assert_eq!(bits(p), bits(rp), "{what}: window {w} prediction bits");
                    assert_eq!(r, rr, "{what}: window {w} anneal report");
                }

                let guarded = threading
                    .install(|| {
                        infer_batch_guarded_seeded_instrumented(
                            &model,
                            &windows,
                            &guard,
                            &seeds,
                            &FaultModel::none(),
                            &sink,
                        )
                    })
                    .unwrap();
                for (w, ((p, r, h), (rp, rr, rh))) in
                    guarded.iter().zip(&guarded_reference).enumerate()
                {
                    assert_eq!(bits(p), bits(rp), "{what}: guarded window {w} bits");
                    assert_eq!(r, rr, "{what}: guarded window {w} report");
                    assert_eq!(h, rh, "{what}: guarded window {w} health");
                }
            }
        }
    }

    // Back to defaults, and prove the fast path actually engages on
    // this model rather than silently declining everywhere.
    dsgl_nn::kernels::set_simd_enabled(true);
    set_lockstep_enabled(true);
    let probe = TelemetrySink::enabled();
    let mut ctx = RunCtx {
        sink: &probe,
        ..RunCtx::default()
    };
    let _ = inference::infer_batch(&model, &windows, &config, 99, &mut ctx).unwrap();
    let snap = probe.snapshot();
    assert!(
        snap.counter("anneal.lockstep_batches") >= 1,
        "lockstep must engage on a dense trained model"
    );
    assert_eq!(
        snap.counter("anneal.lockstep_windows"),
        windows.len() as u64,
        "every window should ride the lockstep batch"
    );

    let probe = TelemetrySink::enabled();
    let _ = infer_batch_guarded_seeded_instrumented(
        &model,
        &windows,
        &guard,
        &seeds,
        &FaultModel::none(),
        &probe,
    )
    .unwrap();
    let snap = probe.snapshot();
    assert!(
        snap.counter("anneal.lockstep_batches") >= 1,
        "guarded lockstep must engage too"
    );
    assert_eq!(snap.counter("guard.runs"), windows.len() as u64);
}
