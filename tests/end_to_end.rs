//! End-to-end integration tests spanning the whole workspace: data
//! generation → training → decomposition → mapped co-annealing.

use dsgl::core::inference::{evaluate, infer_fixed_point};
use dsgl::core::ridge::{fit_ridge_validated, refit_ridge_masked};
use dsgl::core::{decompose, DecomposeConfig, DsGlModel, PatternKind, VariableLayout};
use dsgl::data::{covid, WindowConfig};
use dsgl::hw::coanneal::{evaluate_mapped, infer_mapped};
use dsgl::hw::HwConfig;
use dsgl::ising::AnnealConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

const LAMBDAS: [f64; 4] = [0.1, 1.0, 10.0, 100.0];

struct Fixture {
    dense: DsGlModel,
    train: Vec<dsgl::data::Sample>,
    test: Vec<dsgl::data::Sample>,
    graph: dsgl::graph::CsrGraph,
}

fn fixture(seed: u64) -> Fixture {
    let dataset = covid::generate(seed).truncate(30, 250);
    let wc = WindowConfig::one_step(3);
    let (train, val, test) = dataset.split_windows(&wc, 0.6, 0.15);
    let layout = VariableLayout::new(3, dataset.node_count(), 1);
    let mut dense = DsGlModel::new(layout);
    dense.h_mut().iter_mut().for_each(|h| *h = -2.0);
    dense.init_diffusion_prior(&dataset.graph, 0.72, 0.22);
    fit_ridge_validated(&mut dense, &train, &val, &LAMBDAS).expect("ridge fit");
    Fixture {
        dense,
        train,
        test,
        graph: dataset.graph,
    }
}

/// Beats the persistence forecast and approaches the dataset's noise
/// floor — the core claim that the dynamical system *learns*.
#[test]
fn dense_annealing_beats_persistence() {
    let f = fixture(42);
    let n = f.graph.node_count();
    let mut rng = StdRng::seed_from_u64(0);
    let report = evaluate(&f.dense, &f.test[..15], &AnnealConfig::default(), &mut rng).unwrap();
    assert!(report.converged_fraction > 0.9, "convergence {report:?}");

    let mut sse = 0.0;
    let mut count = 0;
    for s in &f.test[..15] {
        let last = &s.history[s.history.len() - n..];
        for (p, t) in last.iter().zip(&s.target) {
            sse += (p - t) * (p - t);
            count += 1;
        }
    }
    let persistence = (sse / count as f64).sqrt();
    assert!(
        report.rmse < persistence,
        "annealed {} should beat persistence {persistence}",
        report.rmse
    );
}

/// The analog machine's equilibrium equals the algebraic fixed point.
#[test]
fn annealing_agrees_with_fixed_point() {
    let f = fixture(43);
    let mut rng = StdRng::seed_from_u64(1);
    for s in &f.test[..3] {
        let mut ctx = dsgl::core::RunCtx::default();
        let cfg = AnnealConfig::default();
        let (annealed, report) =
            dsgl::core::inference::infer_dense(&f.dense, s, &cfg, &mut rng, &mut ctx).unwrap();
        assert!(report.converged);
        let fp = infer_fixed_point(&f.dense, s, &[], 300).unwrap();
        let diff = dsgl::core::metrics::rmse(&annealed, &fp);
        assert!(diff < 1e-3, "annealed vs fixed point rmse {diff}");
    }
}

/// The full decomposition pipeline: the mapped machine must reproduce
/// the decomposed model's accuracy, and the decomposed model must stay
/// within a modest factor of the dense one.
#[test]
fn decomposed_and_mapped_accuracy() {
    let f = fixture(44);
    let total = f.dense.layout().total();
    let cfg = DecomposeConfig {
        density: 0.2,
        pattern: PatternKind::DMesh,
        wormhole_budget: 4,
        pe_capacity: total.div_ceil(4) + 3,
        grid: (2, 2),
        finetune: None,
    };
    let mut rng = StdRng::seed_from_u64(2);
    let mut d = decompose(&f.dense, &f.train, &cfg, &mut rng).unwrap();
    refit_ridge_masked(&mut d.model, &f.train, 10.0).unwrap();

    let mut rng = StdRng::seed_from_u64(3);
    let dense_eval = evaluate(&f.dense, &f.test[..10], &AnnealConfig::default(), &mut rng).unwrap();
    let hw = HwConfig {
        lanes: 4,
        ..HwConfig::default()
    };
    let mapped_eval = evaluate_mapped(&d, &f.test[..10], &hw, &mut rng).unwrap();
    assert!(
        mapped_eval.rmse < dense_eval.rmse * 3.0 + 1e-3,
        "mapped {} vs dense {}",
        mapped_eval.rmse,
        dense_eval.rmse
    );
    // Every surviving coupling honours the pattern or a wormhole.
    for (i, j, _) in d.model.coupling().nonzeros() {
        let (pa, pb) = (d.var_to_pe[i], d.var_to_pe[j]);
        assert!(
            dsgl::core::patterns::pe_allowed(d.pattern, d.grid, pa, pb)
                || d.wormholes.contains(&(pa.min(pb), pa.max(pb))),
            "coupling {i}-{j} crosses forbidden PEs"
        );
    }
}

/// Mapped inference is deterministic given a seed.
#[test]
fn mapped_inference_deterministic() {
    let f = fixture(45);
    let total = f.dense.layout().total();
    let cfg = DecomposeConfig {
        density: 0.15,
        pattern: PatternKind::Mesh,
        wormhole_budget: 2,
        pe_capacity: total.div_ceil(4) + 3,
        grid: (2, 2),
        finetune: None,
    };
    let mut rng = StdRng::seed_from_u64(5);
    let d = decompose(&f.dense, &f.train, &cfg, &mut rng).unwrap();
    let hw = HwConfig::default();
    let run = |seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        infer_mapped(&d, &f.test[0], &hw, &mut rng).unwrap().0
    };
    assert_eq!(run(9), run(9));
}

/// Tighter lane budgets may slow inference but never change what the
/// machine converges to by more than the multiplexing tolerance.
#[test]
fn lane_starvation_degrades_gracefully() {
    let f = fixture(46);
    let total = f.dense.layout().total();
    let cfg = DecomposeConfig {
        density: 0.2,
        pattern: PatternKind::DMesh,
        wormhole_budget: 4,
        pe_capacity: total.div_ceil(4) + 3,
        grid: (2, 2),
        finetune: None,
    };
    let mut rng = StdRng::seed_from_u64(6);
    let mut d = decompose(&f.dense, &f.train, &cfg, &mut rng).unwrap();
    refit_ridge_masked(&mut d.model, &f.train, 10.0).unwrap();
    let eval = |lanes: usize| {
        let hw = HwConfig {
            lanes,
            ..HwConfig::default()
        }
        .with_budget(4_000.0);
        let mut rng = StdRng::seed_from_u64(7);
        evaluate_mapped(&d, &f.test[..8], &hw, &mut rng).unwrap().rmse
    };
    let plenty = eval(64);
    let starved = eval(2);
    assert!(
        starved < plenty * 3.0 + 5e-3,
        "starved {starved} vs plenty {plenty}"
    );
}

/// Multi-feature datasets (F > 1) run the whole chain: windowing,
/// ridge fit, decomposition, and mapped co-annealing.
#[test]
fn multi_feature_end_to_end() {
    let dataset = dsgl::data::housing::generate(50).truncate(10, 150);
    assert!(dataset.feature_count() > 1);
    let wc = WindowConfig::one_step(3);
    let (train, val, test) = dataset.split_windows(&wc, 0.6, 0.15);
    let layout = VariableLayout::new(3, dataset.node_count(), dataset.feature_count());
    let mut dense = DsGlModel::new(layout);
    dense.h_mut().iter_mut().for_each(|h| *h = -2.0);
    dense.init_diffusion_prior(&dataset.graph, 0.7, 0.2);
    fit_ridge_validated(&mut dense, &train, &val, &LAMBDAS).unwrap();

    let total = layout.total();
    let cfg = DecomposeConfig {
        density: 0.25,
        pattern: PatternKind::DMesh,
        wormhole_budget: 4,
        pe_capacity: total.div_ceil(4) + 4,
        grid: (2, 2),
        finetune: None,
    };
    let mut rng = StdRng::seed_from_u64(8);
    let mut d = decompose(&dense, &train, &cfg, &mut rng).unwrap();
    refit_ridge_masked(&mut d.model, &train, 10.0).unwrap();
    let hw = HwConfig::default();
    let eval = evaluate_mapped(&d, &test[..8], &hw, &mut rng).unwrap();
    assert!(eval.rmse.is_finite() && eval.rmse < 0.2, "rmse {}", eval.rmse);
    // The mapping is legal on the physical mesh.
    let report = dsgl::hw::validate_mapping(&d, 30);
    assert!(report.is_legal(), "{:?}", report.violations);
}
