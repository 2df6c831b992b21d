//! Closed-form ridge fitting of DS-GL models.
//!
//! The teacher-forced training objective (paper Eq. 10) is *linear* in
//! the couplings: each target variable is regressed on the others with
//! weights `wᵥⱼ = Jᵥⱼ / (-hᵥ)`. Gradient descent (see
//! [`crate::Trainer`]) is the paper-faithful route, but the exact
//! minimiser is available in closed form via the ridge-regularised
//! normal equations — one Gram matrix shared across all target rows,
//! one Cholesky factorisation, one triangular solve per row. This is
//! both far faster and statistically stronger, and its masked variant
//! is the natural fine-tuner after decomposition: re-solving the
//! least-squares problem restricted to the surviving couplings is the
//! *optimal* re-calibration the paper's fine-tuning step approximates.
//!
//! Couplings between two target variables are not fitted (each target is
//! predicted from the observed history block), which keeps `J` exactly
//! symmetric, makes every target row trivially contractive, and matches
//! how the baselines consume the same windows.

use crate::error::CoreError;
use crate::model::DsGlModel;
use crate::telemetry::TelemetrySink;
use crate::windows::full_state;
use dsgl_data::Sample;
use dsgl_nn::linalg::{cholesky, cholesky_solve, ridge_solve};
use dsgl_nn::Matrix;

/// Cholesky factor of `G + λI`, escalating `λ` by 10× until the
/// factorisation succeeds (mirrors [`ridge_solve`]'s policy).
///
/// # Errors
///
/// Returns [`CoreError::FactorisationFailed`] when seven escalations
/// still leave the matrix unfactorisable (degenerate or non-finite
/// training data).
fn factor_with_escalation(
    gram: &Matrix,
    lambda: f64,
    sink: &TelemetrySink,
) -> Result<Matrix, CoreError> {
    let n = gram.rows();
    let mut lam = lambda.max(1e-12);
    for attempt in 0..7u64 {
        let mut a = gram.clone();
        for i in 0..n {
            a.set(i, i, a.get(i, i) + lam);
        }
        if let Some(l) = cholesky(&a) {
            if attempt > 0 {
                sink.counter_add("train.ridge_escalations", attempt);
            }
            return Ok(l);
        }
        lam *= 10.0;
    }
    sink.counter_add("train.ridge_escalations", 7);
    Err(CoreError::FactorisationFailed { lambda: lam / 10.0 })
}

/// Fits `model`'s couplings by closed-form ridge regression of each
/// target variable on the history block, regularised *toward the
/// model's current weights*: the penalty is `λ·‖w - w₀‖²` with
/// `w₀ᵥⱼ = Jᵥⱼ/(-hᵥ)` taken from the incoming model. With a
/// persistence-initialised model this shrinks the underdetermined
/// directions toward the persistence predictor instead of toward zero,
/// which is a far better prior for temporal data.
///
/// Existing couplings are overwritten; target–target couplings are
/// zeroed. `h` is left untouched (the fitted weights are scaled by
/// `|hᵥ|` so the machine's fixed point reproduces the regression).
///
/// # Errors
///
/// Returns [`CoreError::EmptyTrainingSet`], a shape mismatch, or
/// [`CoreError::FactorisationFailed`] when the Gram matrix cannot be
/// factorised even with escalated regularisation (e.g. non-finite
/// sample values).
pub fn fit_ridge(
    model: &mut DsGlModel,
    samples: &[Sample],
    lambda: f64,
) -> Result<(), CoreError> {
    fit_ridge_instrumented(model, samples, lambda, &TelemetrySink::noop())
}

/// [`fit_ridge`] with a [`TelemetrySink`]: records `train.ridge_fits`,
/// `train.ridge_solves` (one per target row), `train.ridge_escalations`
/// (λ escalations needed to factorise), and the wall-clock
/// `train.phase.ridge_ns` span. The sink never influences the solve, so
/// fitted weights are bit-identical with or without it.
///
/// # Errors
///
/// Same as [`fit_ridge`].
pub fn fit_ridge_instrumented(
    model: &mut DsGlModel,
    samples: &[Sample],
    lambda: f64,
    sink: &TelemetrySink,
) -> Result<(), CoreError> {
    if samples.is_empty() {
        return Err(CoreError::EmptyTrainingSet);
    }
    let _span = sink.time_phase("train.phase.ridge_ns");
    let layout = model.layout();
    let hist = layout.history_len();
    let n_samples = samples.len();

    // Design matrix X: samples × history variables.
    let mut x = Matrix::zeros(n_samples, hist);
    let mut targets = Matrix::zeros(n_samples, layout.target_len());
    for (r, s) in samples.iter().enumerate() {
        let state = full_state(&layout, s)?;
        x.row_mut(r).copy_from_slice(&state[..hist]);
        targets.row_mut(r).copy_from_slice(&state[hist..]);
    }
    // Shared Gram matrix, factorised once and reused for every target
    // row: the whole fit is one Cholesky plus one triangular solve per
    // row. The SYRK path computes only the upper triangle and mirrors
    // it — half the multiplies of the general product, bit-identical
    // values (products commute, so (i,j) and (j,i) accumulate the same
    // bits).
    let gram = x.gram_t();
    sink.counter_add("train.gram_syrk", 1);
    let xty = x.t_matmul(&targets); // hist × frame_len
    let factor = factor_with_escalation(&gram, lambda, sink)?;

    // Per-target rows are independent: each reads only its own row of
    // the incoming model and the shared factorisation, so the solves
    // run in parallel (bit-identical to the serial order) and only the
    // writes below touch the model.
    let solved: Vec<(usize, Vec<f64>)> = {
        let model_ref: &DsGlModel = model;
        let targets_idx: Vec<usize> = layout.target_range().collect();
        dsgl_ising::par::map_indexed(targets_idx.len(), hist * hist, |t_idx| {
            let v = targets_idx[t_idx];
            let q = -model_ref.h()[v];
            let b: Vec<f64> = (0..hist)
                .map(|j| xty.get(j, t_idx) + lambda * model_ref.coupling().get(v, j) / q)
                .collect();
            let w = cholesky_solve(&factor, &b)
                .iter()
                .map(|&wj| wj * q)
                .collect();
            (v, w)
        })
    };
    for (v, w) in solved {
        for (j, &wj) in w.iter().enumerate() {
            model.coupling_mut().set(v, j, wj);
        }
        // No target-target couplings in the ridge fit.
        for u in layout.target_range() {
            if u != v {
                model.coupling_mut().set(v, u, 0.0);
            }
        }
    }
    sink.counter_add("train.ridge_fits", 1);
    sink.counter_add("train.ridge_solves", layout.target_len() as u64);
    Ok(())
}

/// Re-fits only the *currently nonzero* history couplings of each target
/// row (closed-form masked ridge, regularised toward the current
/// weights): the optimal re-calibration after pruning/masking removed
/// couplings. Target–target couplings present in
/// the support are refitted too, treating the teacher-forced ground
/// truth of the other targets as additional regressors; the symmetric
/// entry is shared (fitted from the lower-indexed row).
///
/// # Errors
///
/// Returns [`CoreError::EmptyTrainingSet`] or a shape mismatch.
pub fn refit_ridge_masked(
    model: &mut DsGlModel,
    samples: &[Sample],
    lambda: f64,
) -> Result<(), CoreError> {
    refit_ridge_masked_instrumented(model, samples, lambda, &TelemetrySink::noop())
}

/// [`refit_ridge_masked`] with a [`TelemetrySink`] (see
/// [`fit_ridge_instrumented`]).
///
/// # Errors
///
/// Same as [`refit_ridge_masked`].
pub fn refit_ridge_masked_instrumented(
    model: &mut DsGlModel,
    samples: &[Sample],
    lambda: f64,
    sink: &TelemetrySink,
) -> Result<(), CoreError> {
    if samples.is_empty() {
        return Err(CoreError::EmptyTrainingSet);
    }
    let _span = sink.time_phase("train.phase.ridge_ns");
    let layout = model.layout();
    let total = layout.total();
    let n_samples = samples.len();

    // Full teacher-forced design matrix: samples × all variables.
    let mut x = Matrix::zeros(n_samples, total);
    for (r, s) in samples.iter().enumerate() {
        let state = full_state(&layout, s)?;
        x.row_mut(r).copy_from_slice(&state);
    }
    let gram = x.gram_t(); // total × total, symmetric half-cost product
    sink.counter_add("train.gram_syrk", 1);

    let target_start = layout.history_len();
    // Each row's support (`j < target_start || j > v`) never includes a
    // slot another row writes, so the per-row solves read a consistent
    // snapshot of the model and run in parallel; only the writes below
    // mutate it.
    let solved: Vec<(usize, Vec<usize>, Vec<f64>)> = {
        let model_ref: &DsGlModel = model;
        let targets_idx: Vec<usize> = layout.target_range().collect();
        dsgl_ising::par::map_indexed(targets_idx.len(), total * total, |t_idx| {
            let v = targets_idx[t_idx];
            // Support: currently coupled variables. Target–target pairs
            // are owned by the lower-indexed row to preserve symmetry.
            let support: Vec<usize> = (0..total)
                .filter(|&j| j != v && model_ref.coupling().get(v, j) != 0.0)
                .filter(|&j| j < target_start || j > v)
                .collect();
            if support.is_empty() {
                return (v, support, Vec::new());
            }
            let k = support.len();
            let mut g = Matrix::zeros(k, k);
            for (a, &ja) in support.iter().enumerate() {
                for (b, &jb) in support.iter().enumerate() {
                    g.set(a, b, gram.get(ja, jb));
                }
            }
            let q = -model_ref.h()[v];
            let b: Vec<f64> = support
                .iter()
                .map(|&j| gram.get(j, v) + lambda * model_ref.coupling().get(v, j) / q)
                .collect();
            let w = ridge_solve(&g, &b, lambda)
                .iter()
                .map(|&wj| wj * q)
                .collect();
            (v, support, w)
        })
    };
    for (v, support, w) in solved {
        for (&j, &wj) in support.iter().zip(&w) {
            model.coupling_mut().set(v, j, wj);
        }
    }
    sink.counter_add("train.ridge_fits", 1);
    sink.counter_add("train.ridge_solves", layout.target_len() as u64);
    Ok(())
}

/// Programs the target block as a *Gaussian graphical model* of the
/// stage-1 residuals: estimates the residual covariance, inverts it to
/// the precision matrix `Θ`, and sets
///
/// ```text
/// J[v][u]    = -s·Θ[v][u]          (target-target couplings)
/// h[v]       = -s·Θ[v][v]          (self-reactions; Θ is PD so h < 0)
/// J[v][hist] =  s·(Θ·W_h)[v]       (history rows re-combined)
/// ```
///
/// With this programming the machine's energy is exactly the Gaussian
/// negative log-density of the residual field, so its equilibrium is the
/// exact conditional mean for *any* observation pattern: clamping no
/// targets reproduces stage-1 forecasting unchanged, while clamping a
/// subset (imputation — the paper's core GL definition) lets observed
/// outputs correct their correlated unobserved peers through the
/// coupling network. Real data has common shocks, so this joint
/// relaxation is exactly the advantage a physical dynamical system has
/// over per-node predictors.
///
/// `shrinkage` in `[0, 1)` mixes the sample covariance toward its
/// diagonal before inversion (estimation stability); `scale` sets the
/// overall conductance `s` so that the mean `|h|` equals it (keeping the
/// machine's time constants in the same regime as stage 1).
///
/// Call once, directly after [`fit_ridge`]; gate on a validation set
/// with [`crate::inference::infer_fixed_point`].
///
/// # Errors
///
/// Returns [`CoreError::EmptyTrainingSet`] or a shape mismatch, and
/// [`CoreError::InvalidConfig`] for parameters out of range.
pub fn fit_gaussian_couplings(
    model: &mut DsGlModel,
    samples: &[Sample],
    shrinkage: f64,
    scale: f64,
) -> Result<(), CoreError> {
    if samples.is_empty() {
        return Err(CoreError::EmptyTrainingSet);
    }
    if !(0.0..1.0).contains(&shrinkage)
        || scale.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater)
    {
        return Err(CoreError::InvalidConfig {
            reason: format!("shrinkage {shrinkage} or scale {scale} out of range"),
        });
    }
    let layout = model.layout();
    let t_len = layout.target_len();
    let hist = layout.history_len();
    let n_samples = samples.len();

    // Stage-1 residual matrix R: samples x targets.
    let mut r = Matrix::zeros(n_samples, t_len);
    for (row, s) in samples.iter().enumerate() {
        let state = full_state(&layout, s)?;
        for (t_idx, v) in layout.target_range().enumerate() {
            r.set(row, t_idx, state[v] - model.regress_one(&state, v));
        }
    }
    // Shrunk covariance (symmetric half-cost Gram product).
    let mut sigma = r.gram_t().scale(1.0 / n_samples as f64);
    for i in 0..t_len {
        for j in 0..t_len {
            if i != j {
                sigma.set(i, j, sigma.get(i, j) * (1.0 - shrinkage));
            }
        }
        sigma.set(i, i, sigma.get(i, i).max(1e-10));
    }
    // Precision matrix via Cholesky: Θ column-by-column.
    let factor = factor_with_escalation(&sigma, 1e-10, &TelemetrySink::noop())?;
    let mut theta = Matrix::zeros(t_len, t_len);
    let mut e = vec![0.0; t_len];
    for col in 0..t_len {
        e[col] = 1.0;
        let x = cholesky_solve(&factor, &e);
        e[col] = 0.0;
        for (row, &xv) in x.iter().enumerate() {
            theta.set(row, col, xv);
        }
    }
    // Symmetrise numerical error away.
    for i in 0..t_len {
        for j in (i + 1)..t_len {
            let avg = (theta.get(i, j) + theta.get(j, i)) / 2.0;
            theta.set(i, j, avg);
            theta.set(j, i, avg);
        }
    }
    let mean_diag: f64 =
        (0..t_len).map(|i| theta.get(i, i)).sum::<f64>() / t_len as f64;
    let s_conductance = scale / mean_diag.max(1e-12);

    // Snapshot stage-1 regression weights before rewriting anything.
    let w_hist: Vec<Vec<f64>> = layout
        .target_range()
        .map(|v| {
            let q = -model.h()[v];
            (0..hist).map(|j| model.coupling().get(v, j) / q).collect()
        })
        .collect();

    let target_start = hist;
    for v_idx in 0..t_len {
        let v = target_start + v_idx;
        model.h_mut()[v] = -s_conductance * theta.get(v_idx, v_idx);
        // History row: s·Σ_u Θ[v][u]·W_h[u].
        let mut row = vec![0.0; hist];
        for (u_idx, wh) in w_hist.iter().enumerate().take(t_len) {
            let th = theta.get(v_idx, u_idx);
            if th != 0.0 {
                for (rj, &hj) in row.iter_mut().zip(wh) {
                    *rj += th * hj;
                }
            }
        }
        for (j, &wj) in row.iter().enumerate() {
            model.coupling_mut().set(v, j, wj * s_conductance);
        }
        for u_idx in (v_idx + 1)..t_len {
            let u = target_start + u_idx;
            model
                .coupling_mut()
                .set(v, u, -s_conductance * theta.get(v_idx, u_idx));
        }
    }
    Ok(())
}

/// Picks the ridge `λ` from `candidates` that minimises teacher-forced
/// RMSE on `val` after fitting on `train`, then leaves the model fitted
/// with the winner. Returns the chosen `λ`.
///
/// # Errors
///
/// Returns [`CoreError::EmptyTrainingSet`] if either set (or the
/// candidate list) is empty.
pub fn fit_ridge_validated(
    model: &mut DsGlModel,
    train: &[Sample],
    val: &[Sample],
    candidates: &[f64],
) -> Result<f64, CoreError> {
    fit_ridge_validated_instrumented(model, train, val, candidates, &TelemetrySink::noop())
}

/// [`fit_ridge_validated`] with a [`TelemetrySink`]: every candidate fit
/// records its `train.ridge_*` instruments (see
/// [`fit_ridge_instrumented`]), so the counts reflect the full λ sweep.
///
/// # Errors
///
/// Same as [`fit_ridge_validated`].
pub fn fit_ridge_validated_instrumented(
    model: &mut DsGlModel,
    train: &[Sample],
    val: &[Sample],
    candidates: &[f64],
    sink: &TelemetrySink,
) -> Result<f64, CoreError> {
    if candidates.is_empty() {
        return Err(CoreError::EmptyTrainingSet);
    }
    let mut best: Option<(f64, f64, DsGlModel)> = None;
    for &lambda in candidates {
        let mut m = model.clone();
        fit_ridge_instrumented(&mut m, train, lambda, sink)?;
        let rmse = crate::trainer::Trainer::regression_rmse(&m, val)?;
        if best.as_ref().is_none_or(|(r, _, _)| rmse < *r) {
            best = Some((rmse, lambda, m));
        }
    }
    let (_, lambda, m) = best.expect("non-empty candidates");
    *model = m;
    Ok(lambda)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::VariableLayout;
    use crate::trainer::Trainer;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn linear_samples(n_nodes: usize, count: usize, seed: u64) -> Vec<Sample> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|_| {
                let hist: Vec<f64> = (0..n_nodes).map(|_| rng.random::<f64>() * 0.8).collect();
                let target: Vec<f64> = hist
                    .iter()
                    .enumerate()
                    .map(|(i, &h)| 0.6 * h + 0.25 * hist[(i + 1) % n_nodes])
                    .collect();
                Sample {
                    history: hist,
                    target,
                }
            })
            .collect()
    }

    #[test]
    fn ridge_recovers_exact_linear_rule() {
        let samples = linear_samples(5, 60, 1);
        let layout = VariableLayout::new(1, 5, 1);
        let mut model = DsGlModel::new(layout);
        fit_ridge(&mut model, &samples, 1e-8).unwrap();
        let rmse = Trainer::regression_rmse(&model, &samples).unwrap();
        assert!(rmse < 1e-6, "ridge should fit exactly: {rmse}");
        // Recovered weights: J[target_i][hist_i] = 0.6·|h| with h = -1.
        let v = layout.index(1, 0, 0);
        let j_self = model.coupling().get(v, layout.index(0, 0, 0));
        assert!((j_self - 0.6).abs() < 1e-6, "J {j_self}");
        let j_next = model.coupling().get(v, layout.index(0, 1, 0));
        assert!((j_next - 0.25).abs() < 1e-6, "J {j_next}");
    }

    #[test]
    fn ridge_beats_sgd_on_the_same_data() {
        let samples = linear_samples(6, 50, 2);
        let layout = VariableLayout::new(1, 6, 1);
        let mut sgd = DsGlModel::new(layout);
        let cfg = crate::TrainConfig {
            epochs: 30,
            lr: 0.05,
            lr_decay: 0.95,
            ..crate::TrainConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(3);
        Trainer::new(cfg).fit(&mut sgd, &samples, &mut rng).unwrap();
        let mut ridge = DsGlModel::new(layout);
        fit_ridge(&mut ridge, &samples, 1e-8).unwrap();
        let sgd_rmse = Trainer::regression_rmse(&sgd, &samples).unwrap();
        let ridge_rmse = Trainer::regression_rmse(&ridge, &samples).unwrap();
        assert!(
            ridge_rmse <= sgd_rmse + 1e-12,
            "ridge {ridge_rmse} vs sgd {sgd_rmse}"
        );
    }

    #[test]
    fn masked_refit_improves_pruned_model() {
        let samples = linear_samples(6, 60, 4);
        let layout = VariableLayout::new(1, 6, 1);
        let mut model = DsGlModel::new(layout);
        fit_ridge(&mut model, &samples, 1e-8).unwrap();
        // Prune hard, breaking calibration.
        model.coupling_mut().prune_to_density(0.10);
        let pruned = Trainer::regression_rmse(&model, &samples).unwrap();
        refit_ridge_masked(&mut model, &samples, 1e-8).unwrap();
        let refit = Trainer::regression_rmse(&model, &samples).unwrap();
        assert!(refit <= pruned + 1e-12, "refit {refit} vs pruned {pruned}");
    }

    #[test]
    fn validated_lambda_picked() {
        let samples = linear_samples(5, 60, 5);
        let layout = VariableLayout::new(1, 5, 1);
        let mut model = DsGlModel::new(layout);
        let lambda = fit_ridge_validated(
            &mut model,
            &samples[..40],
            &samples[40..],
            &[1e-6, 1e-2, 10.0],
        )
        .unwrap();
        // Clean linear data: the smallest λ must win.
        assert_eq!(lambda, 1e-6);
        let rmse = Trainer::regression_rmse(&model, &samples[40..]).unwrap();
        assert!(rmse < 1e-4, "rmse {rmse}");
    }

    #[test]
    fn empty_inputs_rejected() {
        let layout = VariableLayout::new(1, 3, 1);
        let mut model = DsGlModel::new(layout);
        assert!(matches!(
            fit_ridge(&mut model, &[], 1e-3),
            Err(CoreError::EmptyTrainingSet)
        ));
        assert!(matches!(
            refit_ridge_masked(&mut model, &[], 1e-3),
            Err(CoreError::EmptyTrainingSet)
        ));
    }

    #[test]
    fn non_finite_samples_yield_error_not_panic() {
        // A NaN in the design matrix poisons the Gram matrix: every
        // escalation of λ still fails to factorise, and the fit must
        // report the failure instead of panicking.
        let mut samples = linear_samples(4, 20, 9);
        samples[3].history[1] = f64::NAN;
        let layout = VariableLayout::new(1, 4, 1);
        let mut model = DsGlModel::new(layout);
        match fit_ridge(&mut model, &samples, 1e-6) {
            Err(CoreError::FactorisationFailed { lambda }) => {
                assert!(lambda > 1e-6, "escalated λ reported: {lambda}")
            }
            other => panic!("expected FactorisationFailed, got {other:?}"),
        }
    }

    #[test]
    fn no_target_target_couplings_after_fit() {
        let samples = linear_samples(4, 30, 6);
        let layout = VariableLayout::new(1, 4, 1);
        let mut model = DsGlModel::new(layout);
        // Seed a target-target coupling that the fit must clear.
        let t0 = layout.index(1, 0, 0);
        let t1 = layout.index(1, 1, 0);
        model.coupling_mut().set(t0, t1, 5.0);
        fit_ridge(&mut model, &samples, 1e-6).unwrap();
        assert_eq!(model.coupling().get(t0, t1), 0.0);
    }
}

#[cfg(test)]
mod residual_tests {
    use super::*;
    use crate::inference::infer_fixed_point;
    use crate::model::VariableLayout;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// Samples with a *common shock*: target_i = 0.6·h_i + shock, where
    /// the shock is shared across nodes. Joint inference can subtract
    /// the shock using the other targets; per-node inference cannot.
    fn common_shock_samples(n: usize, count: usize, seed: u64) -> Vec<Sample> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|_| {
                let hist: Vec<f64> = (0..n).map(|_| rng.random::<f64>() * 0.8).collect();
                let shock = (rng.random::<f64>() - 0.5) * 0.2;
                let target: Vec<f64> = hist.iter().map(|&h| 0.6 * h + shock).collect();
                Sample {
                    history: hist,
                    target,
                }
            })
            .collect()
    }

    #[test]
    fn gaussian_couplings_keep_h_negative_and_scaled() {
        let samples = common_shock_samples(8, 80, 1);
        let layout = VariableLayout::new(1, 8, 1);
        let mut model = DsGlModel::new(layout);
        fit_ridge(&mut model, &samples, 1.0).unwrap();
        fit_gaussian_couplings(&mut model, &samples, 0.3, 2.0).unwrap();
        let targets: Vec<usize> = layout.target_range().collect();
        let mean_h: f64 =
            targets.iter().map(|&v| -model.h()[v]).sum::<f64>() / targets.len() as f64;
        assert!((mean_h - 2.0).abs() < 1e-9, "mean |h| {mean_h}");
        for &v in &targets {
            assert!(model.h()[v] < 0.0);
        }
        // Symmetry is structural (Coupling), but verify a sample pair.
        let (a, b) = (targets[0], targets[3]);
        assert_eq!(model.coupling().get(a, b), model.coupling().get(b, a));
    }

    #[test]
    fn gaussian_programming_preserves_forecasting_exactly() {
        // With no targets observed the conditional mean equals stage 1.
        let samples = common_shock_samples(8, 90, 5);
        let layout = VariableLayout::new(1, 8, 1);
        let mut stage1 = DsGlModel::new(layout);
        fit_ridge(&mut stage1, &samples, 1.0).unwrap();
        let mut stage2 = stage1.clone();
        fit_gaussian_couplings(&mut stage2, &samples, 0.3, 2.0).unwrap();
        for s in &samples[..5] {
            let p1 = infer_fixed_point(&stage1, s, &[], 400).unwrap();
            let p2 = infer_fixed_point(&stage2, s, &[], 400).unwrap();
            let diff = crate::metrics::rmse(&p1, &p2);
            assert!(diff < 1e-6, "forecasting fixed points diverged: {diff}");
        }
    }

    #[test]
    fn joint_imputation_cancels_common_shocks() {
        // Half the target frame is observed: the observed residuals
        // reveal the common shock, and the residual couplings transmit
        // it to the unobserved nodes - per-node inference cannot.
        let n = 10;
        let train = common_shock_samples(n, 120, 2);
        let test = common_shock_samples(n, 30, 3);
        let layout = VariableLayout::new(1, n, 1);
        let mut stage1 = DsGlModel::new(layout);
        fit_ridge(&mut stage1, &train, 1.0).unwrap();
        let mut stage2 = stage1.clone();
        fit_gaussian_couplings(&mut stage2, &train, 0.3, 2.0).unwrap();

        let observed: Vec<usize> = (0..n / 2).collect();
        let hidden: Vec<usize> = (n / 2..n).collect();
        let rmse = |model: &DsGlModel| {
            let mut sse = 0.0;
            let mut count = 0;
            for s in &test {
                let pred = crate::inference::infer_fixed_point(model, s, &observed, 200).unwrap();
                for &i in &hidden {
                    sse += (pred[i] - s.target[i]) * (pred[i] - s.target[i]);
                    count += 1;
                }
            }
            (sse / count as f64).sqrt()
        };
        let r1 = rmse(&stage1);
        let r2 = rmse(&stage2);
        assert!(
            r2 < r1 * 0.9,
            "imputation should exploit observed outputs: stage1 {r1}, stage2 {r2}"
        );
    }

    #[test]
    fn gaussian_stage_validates_inputs() {
        let layout = VariableLayout::new(1, 4, 1);
        let mut model = DsGlModel::new(layout);
        assert!(matches!(
            fit_gaussian_couplings(&mut model, &[], 0.3, 2.0),
            Err(CoreError::EmptyTrainingSet)
        ));
        let samples = common_shock_samples(4, 10, 4);
        assert!(matches!(
            fit_gaussian_couplings(&mut model, &samples, 1.5, 2.0),
            Err(CoreError::InvalidConfig { .. })
        ));
        assert!(matches!(
            fit_gaussian_couplings(&mut model, &samples, 0.3, 0.0),
            Err(CoreError::InvalidConfig { .. })
        ));
    }
}

#[cfg(test)]
mod horizon_tests {
    use super::*;
    use crate::inference::infer_fixed_point;
    use crate::model::VariableLayout;
    use crate::trainer::Trainer;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// Two-step dynamics: x_{t+1} = 0.8·x_t, x_{t+2} = 0.64·x_t.
    fn two_step_samples(n: usize, count: usize, seed: u64) -> Vec<Sample> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|_| {
                let hist: Vec<f64> = (0..n).map(|_| rng.random::<f64>() * 0.9).collect();
                let step1: Vec<f64> = hist.iter().map(|&h| 0.8 * h).collect();
                let step2: Vec<f64> = hist.iter().map(|&h| 0.64 * h).collect();
                let mut target = step1;
                target.extend(step2);
                Sample {
                    history: hist,
                    target,
                }
            })
            .collect()
    }

    #[test]
    fn multi_horizon_layout_shapes() {
        let l = VariableLayout::with_horizon(3, 4, 2, 2);
        assert_eq!(l.horizon(), 2);
        assert_eq!(l.total(), (3 + 2) * 8);
        assert_eq!(l.target_len(), 16);
        assert_eq!(l.target_range(), 24..40);
        assert_eq!(l.index(4, 3, 1), 39);
    }

    #[test]
    fn ridge_fits_two_step_horizon() {
        let n = 5;
        let samples = two_step_samples(n, 50, 1);
        let layout = VariableLayout::with_horizon(1, n, 1, 2);
        let mut model = DsGlModel::new(layout);
        fit_ridge(&mut model, &samples, 1e-8).unwrap();
        let rmse = Trainer::regression_rmse(&model, &samples).unwrap();
        assert!(rmse < 1e-6, "two-step fit rmse {rmse}");
        // Both horizon frames recovered through joint annealing.
        let pred = infer_fixed_point(&model, &samples[0], &[], 100).unwrap();
        for i in 0..n {
            assert!((pred[i] - samples[0].target[i]).abs() < 1e-6);
            assert!((pred[n + i] - samples[0].target[n + i]).abs() < 1e-6);
        }
        // The step-2 self weight is 0.64 (direct from history).
        let v2 = layout.index(2, 0, 0);
        assert!((model.coupling().get(v2, 0) - 0.64).abs() < 1e-6);
    }

    #[test]
    fn persistence_prior_covers_all_horizon_frames() {
        let layout = VariableLayout::with_horizon(2, 3, 1, 3);
        let mut model = DsGlModel::new(layout);
        model.init_persistence(0.9);
        let last = layout.index(1, 0, 0);
        for h in 0..3 {
            let t = layout.index(2 + h, 0, 0);
            assert_eq!(model.coupling().get(t, last), 0.9, "frame {h}");
        }
    }
}
