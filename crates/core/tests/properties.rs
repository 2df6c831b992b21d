//! Property tests over the parallel training pipeline: whatever data the
//! trainer sees, the machine it produces must stay physical (symmetric
//! zero-diagonal `J`, strictly negative `h`) and its annealed state must
//! agree with the analytic fixed point of the programmed dynamics.

use dsgl_core::ridge::fit_ridge;
use dsgl_core::{
    inference, DsGlModel, GuardedAnneal, Threading, TrainConfig, Trainer, VariableLayout,
};
use dsgl_data::Sample;
use dsgl_ising::{AnnealConfig, EngineMode};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn random_samples(n_nodes: usize, count: usize, seed: u64, gain: f64) -> Vec<Sample> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let hist: Vec<f64> = (0..n_nodes).map(|_| rng.random::<f64>() * 0.8).collect();
            let target: Vec<f64> = hist
                .iter()
                .enumerate()
                .map(|(i, &h)| gain * h + 0.15 * hist[(i + 1) % n_nodes])
                .collect();
            Sample {
                history: hist,
                target,
            }
        })
        .collect()
}

/// `J` symmetric with a zero diagonal, `h` strictly negative.
fn assert_physical(model: &DsGlModel) -> Result<(), TestCaseError> {
    let n = model.layout().total();
    let j = model.coupling().as_slice();
    for i in 0..n {
        prop_assert_eq!(j[i * n + i], 0.0, "diagonal at {}", i);
        for k in (i + 1)..n {
            prop_assert_eq!(j[i * n + k], j[k * n + i], "asymmetry at ({}, {})", i, k);
        }
    }
    for (i, &h) in model.h().iter().enumerate() {
        prop_assert!(h < 0.0, "h[{}] = {} not strictly negative", i, h);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn trained_model_stays_physical(
        n_nodes in 3usize..7,
        seed in 0u64..1000,
        gain in 0.3f64..0.7,
    ) {
        let samples = random_samples(n_nodes, 40, seed, gain);
        let layout = VariableLayout::new(1, n_nodes, 1);
        let mut model = DsGlModel::new(layout);
        let cfg = TrainConfig { epochs: 10, ..TrainConfig::default() };
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        Trainer::new(cfg).fit(&mut model, &samples, &mut rng).unwrap();
        assert_physical(&model)?;
    }

    #[test]
    fn ridge_fitted_model_stays_physical(
        n_nodes in 3usize..8,
        seed in 0u64..1000,
    ) {
        let samples = random_samples(n_nodes, 50, seed, 0.55);
        let layout = VariableLayout::new(1, n_nodes, 1);
        let mut model = DsGlModel::new(layout);
        fit_ridge(&mut model, &samples, 1e-4).unwrap();
        assert_physical(&model)?;
    }

    #[test]
    fn annealing_reaches_the_analytic_fixed_point(
        n_nodes in 3usize..6,
        seed in 0u64..1000,
    ) {
        let samples = random_samples(n_nodes, 50, seed, 0.5);
        let layout = VariableLayout::new(1, n_nodes, 1);
        let mut model = DsGlModel::new(layout);
        fit_ridge(&mut model, &samples[..40], 1e-6).unwrap();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        for sample in &samples[40..43] {
            let mut dspu = inference::machine_for_sample(&model, sample, &mut rng).unwrap();
            let analytic = dspu.analytic_fixed_point(400);
            let report = dspu.run(&AnnealConfig::default(), &mut rng);
            prop_assert!(report.converged, "annealing did not converge");
            for v in layout.target_range() {
                let (a, s) = (analytic[v], dspu.state()[v]);
                prop_assert!(
                    (a - s).abs() < 1e-2,
                    "node {}: analytic {} vs annealed {}", v, a, s
                );
            }
        }
    }

    #[test]
    fn event_driven_annealing_matches_full_integrator(
        n_nodes in 3usize..7,
        seed in 0u64..1000,
    ) {
        // Both engines run at a tight tolerance so their residual
        // distance from the shared fixed point is far inside the 1e-6
        // rail-unit agreement the predictions must show.
        let samples = random_samples(n_nodes, 50, seed, 0.5);
        let layout = VariableLayout::new(1, n_nodes, 1);
        let mut model = DsGlModel::new(layout);
        fit_ridge(&mut model, &samples[..40], 1e-6).unwrap();
        let tight = |mode| AnnealConfig {
            tolerance: 1e-9,
            max_time_ns: 20_000.0,
            mode,
            ..AnnealConfig::default()
        };
        for sample in &samples[40..43] {
            // Identical machine construction (same RNG stream) for both
            // engines: only the integration schedule differs.
            let mut strict_rng = StdRng::seed_from_u64(seed ^ 0xF00D);
            let mut strict = inference::machine_for_sample(&model, sample, &mut strict_rng).unwrap();
            let mut adaptive = strict.clone();
            let rs = strict.run(&tight(EngineMode::Strict), &mut strict_rng);
            let ra = adaptive.run(&tight(EngineMode::adaptive()), &mut strict_rng);
            prop_assert!(rs.converged && ra.converged, "an engine failed to converge");
            for v in layout.target_range() {
                let (s, a) = (strict.state()[v], adaptive.state()[v]);
                prop_assert!(
                    (s - a).abs() < 1e-6,
                    "node {}: strict {} vs event-driven {}", v, s, a
                );
            }
        }
    }

    #[test]
    fn guarded_anneal_is_transparent_on_healthy_hardware(
        n_nodes in 3usize..7,
        seed in 0u64..1000,
        threads in 1usize..5,
    ) {
        // On fault-free hardware the guard must be invisible: zero
        // retries, a clean health report, a bit-identical final state,
        // and the exact same RNG consumption as the unguarded strict
        // run — under any thread count.
        let samples = random_samples(n_nodes, 50, seed, 0.5);
        let layout = VariableLayout::new(1, n_nodes, 1);
        let mut model = DsGlModel::new(layout);
        fit_ridge(&mut model, &samples[..40], 1e-6).unwrap();
        let cfg = AnnealConfig::default();
        for sample in &samples[40..43] {
            let mut plain_rng = StdRng::seed_from_u64(seed ^ 0x6A4D);
            let mut plain = inference::machine_for_sample(&model, sample, &mut plain_rng).unwrap();
            let plain_report = plain.run(&cfg, &mut plain_rng);

            let guard = GuardedAnneal::new(cfg);
            let mut guard_rng = StdRng::seed_from_u64(seed ^ 0x6A4D);
            let mut guarded = inference::machine_for_sample(&model, sample, &mut guard_rng).unwrap();
            let (report, health) = Threading::Fixed(threads)
                .install(|| guard.run(&mut guarded, &mut guard_rng));

            prop_assert!(health.healthy(), "guard fired on healthy run: {:?}", health);
            prop_assert_eq!(health.retries, 0);
            prop_assert_eq!(report.converged, plain_report.converged);
            prop_assert_eq!(report.steps, plain_report.steps);
            let plain_bits: Vec<u64> = plain.state().iter().map(|v| v.to_bits()).collect();
            let guard_bits: Vec<u64> = guarded.state().iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(guard_bits, plain_bits, "guarded state diverged");
            // Same RNG consumption: the next draw from each stream agrees.
            prop_assert_eq!(
                plain_rng.random::<u64>(),
                guard_rng.random::<u64>(),
                "guard consumed RNG on a healthy run"
            );
        }
    }
}
