//! Training DS-GL models (paper Sec. III.B).
//!
//! Training constructs a dynamical system whose lowest-energy states
//! coincide with the data distribution: for every training window the
//! ground-truth target must be the fixed point of the machine. The
//! regression formula `σᵥ = Σⱼ Jᵥⱼσⱼ / (-hᵥ)` (paper Eq. 10) is exactly
//! the hardware stability criterion (Eq. 5), so minimising its
//! teacher-forced MSE by gradient descent aligns the machine's
//! equilibria with the data.
//!
//! Two mechanisms keep the learned system physical:
//!
//! - `h` stays strictly negative, preserving the convexity of the
//!   Hamiltonian (the paper forces `h` negative during training). By
//!   default `h` is *frozen* at its initial value: the regression is
//!   invariant under jointly rescaling row `v` of `J` and `hᵥ`, so
//!   training both is a degenerate parameterisation in which they chase
//!   each other;
//! - contraction: for every target variable, `Σ_{j∈target} |Jᵥⱼ|` should
//!   not exceed `margin · |hᵥ|`, which makes the free-block fixed-point
//!   iteration a contraction so natural annealing converges instead of
//!   oscillating — the software analogue of keeping the resistor ring
//!   dominant over the coupling currents. A soft penalty steers training
//!   toward the bound and a one-time symmetric projection enforces it at
//!   the end (a hard per-step projection would ratchet `|h|` upward and
//!   destabilise training).

use crate::error::CoreError;
use crate::model::DsGlModel;
use crate::telemetry::TelemetrySink;
use crate::windows::full_state;
use dsgl_data::Sample;
use dsgl_nn::Adam;
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Number of passes over the training windows.
    pub epochs: usize,
    /// Adam learning rate (initial).
    pub lr: f64,
    /// Per-epoch multiplicative learning-rate decay. Constant-rate Adam
    /// limit-cycles once the residual gradient is small (the step size
    /// stays ~lr regardless of gradient magnitude), so decay is required
    /// for convergence on this underdetermined regression.
    pub lr_decay: f64,
    /// Windows per gradient step.
    pub batch_size: usize,
    /// Lower bound on `|h|` (projection `h ≤ -h_min`).
    pub h_min: f64,
    /// Contraction margin in `(0, 1)`: target rows keep
    /// `Σ_{j∈target}|J| ≤ margin·|h|`.
    pub contraction_margin: f64,
    /// Weight of the soft contraction penalty
    /// `λ·Σᵥ relu(Σ_{j∈target}|Jᵥⱼ| - margin·|hᵥ|)²` added to the loss.
    /// The penalty steers training toward contractive solutions; a final
    /// one-time projection then guarantees the bound. (A hard per-step
    /// projection would ratchet `|h|` upward and destabilise training.)
    pub contraction_penalty: f64,
    /// L1 shrinkage on couplings (0 disables), applied per step.
    pub l1: f64,
    /// Decoupled L2 weight decay on couplings (0 disables): after each
    /// Adam step, `J ← J·(1 - lr·l2)`. Shrinks the many weakly-determined
    /// couplings of the underdetermined regression toward zero, trading a
    /// little bias for a large variance reduction.
    pub l2: f64,
    /// Shuffle window order each epoch.
    pub shuffle: bool,
    /// Keep `h` fixed during training (default). The regression
    /// `σᵥ = Σⱼ Jᵥⱼσⱼ / (-hᵥ)` is invariant under a joint rescaling of
    /// row `v` of `J` and `hᵥ`, so training both is a redundant
    /// parameterisation in which the two chase each other and gradient
    /// descent never settles; freezing `h` removes the degeneracy while
    /// losing no expressivity.
    pub freeze_h: bool,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 30,
            lr: 0.01,
            lr_decay: 0.90,
            batch_size: 32,
            h_min: 0.5,
            contraction_margin: 0.95,
            contraction_penalty: 0.05,
            l1: 0.0,
            l2: 0.0,
            shuffle: true,
            freeze_h: true,
        }
    }
}

/// Per-epoch record of a training run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainReport {
    /// Mean squared regression error per epoch.
    pub epoch_losses: Vec<f64>,
}

impl TrainReport {
    /// The final epoch's loss.
    ///
    /// # Panics
    ///
    /// Panics if the report is empty.
    pub fn final_loss(&self) -> f64 {
        *self.epoch_losses.last().expect("non-empty report")
    }
}

/// Trains [`DsGlModel`]s by teacher-forced regression.
#[derive(Debug, Clone)]
pub struct Trainer {
    config: TrainConfig,
    telemetry: TelemetrySink,
}

impl Trainer {
    /// Creates a trainer with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics on non-positive `lr`, `epochs`, `batch_size`, `h_min`, or a
    /// margin outside `(0, 1)`.
    pub fn new(config: TrainConfig) -> Self {
        assert!(config.lr > 0.0, "learning rate must be positive");
        assert!(config.epochs > 0, "need at least one epoch");
        assert!(config.batch_size > 0, "batch size must be positive");
        assert!(config.h_min > 0.0, "h_min must be positive");
        assert!(
            config.contraction_margin > 0.0 && config.contraction_margin < 1.0,
            "contraction margin must lie in (0, 1)"
        );
        Trainer {
            config,
            telemetry: TelemetrySink::noop(),
        }
    }

    /// Attaches a [`TelemetrySink`]: fits record the `train.*`
    /// instrument family (SGD fits, epochs, per-epoch losses, final
    /// loss, and a wall-clock fit span). The sink never touches the RNG
    /// or the optimiser, so fitted models are bit-identical with or
    /// without it.
    #[must_use]
    pub fn with_telemetry(mut self, sink: TelemetrySink) -> Self {
        self.telemetry = sink;
        self
    }

    /// The configuration in use.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// The attached telemetry sink (noop unless
    /// [`with_telemetry`](Self::with_telemetry) was called).
    pub fn telemetry(&self) -> &TelemetrySink {
        &self.telemetry
    }

    /// Fits `model` on `samples` with all couplings trainable.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::EmptyTrainingSet`] or a shape mismatch.
    pub fn fit<R: Rng + ?Sized>(
        &self,
        model: &mut DsGlModel,
        samples: &[Sample],
        rng: &mut R,
    ) -> Result<TrainReport, CoreError> {
        self.fit_masked(model, samples, None, rng)
    }

    /// Fits `model` under an optional structural mask: entry `i·n + j`
    /// being `false` pins coupling `(i, j)` to zero (used by the
    /// decomposition fine-tune, paper Sec. IV.B(3)).
    ///
    /// Gradient accumulation is multi-threaded under the `parallel`
    /// feature (one task per target row); the reduction order is fixed,
    /// so the fitted model is bit-identical for every
    /// [`crate::Threading`] policy and for the serial build.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::EmptyTrainingSet`], a shape mismatch, or
    /// [`CoreError::InvalidConfig`] for a wrong-sized mask.
    pub fn fit_masked<R: Rng + ?Sized>(
        &self,
        model: &mut DsGlModel,
        samples: &[Sample],
        mask: Option<&[bool]>,
        rng: &mut R,
    ) -> Result<TrainReport, CoreError> {
        if samples.is_empty() {
            return Err(CoreError::EmptyTrainingSet);
        }
        let _fit_span = self.telemetry.time_phase("train.phase.fit_ns");
        let layout = model.layout();
        let n = layout.total();
        if let Some(m) = mask {
            if m.len() != n * n {
                return Err(CoreError::InvalidConfig {
                    reason: format!("mask has length {}, expected {}", m.len(), n * n),
                });
            }
            // Zero any couplings outside the mask before training.
            model.coupling_mut().apply_mask(m);
        }
        // Pre-assemble ground-truth states once.
        let states: Vec<Vec<f64>> = samples
            .iter()
            .map(|s| full_state(&layout, s))
            .collect::<Result<_, _>>()?;

        let target: Vec<usize> = layout.target_range().collect();
        let tri_len = n * (n - 1) / 2;
        let mut adam = Adam::new(self.config.lr);
        let mut order: Vec<usize> = (0..states.len()).collect();
        let mut epoch_losses = Vec::with_capacity(self.config.epochs);

        // Flat gradient buffers reused across batches.
        let mut grad_tri = vec![0.0; tri_len];
        let mut grad_h = vec![0.0; n];

        for epoch in 0..self.config.epochs {
            adam.set_learning_rate(
                (self.config.lr * self.config.lr_decay.powi(epoch as i32)).max(1e-6),
            );
            if self.config.shuffle {
                order.shuffle(rng);
            }
            let mut epoch_sse = 0.0;
            let mut epoch_count = 0usize;
            for batch in order.chunks(self.config.batch_size) {
                grad_tri.iter_mut().for_each(|g| *g = 0.0);
                grad_h.iter_mut().for_each(|g| *g = 0.0);
                // Per-target gradient partials only read the model, so
                // they are computed in parallel (each accumulating over
                // the batch in sample order) and reduced serially in
                // target order below. Both orders are independent of
                // the thread count, so the step is bit-identical across
                // Threading policies and the serial build.
                let parts: Vec<(Vec<f64>, f64, f64)> = {
                    let model_ref: &DsGlModel = model;
                    dsgl_ising::par::map_indexed(target.len(), batch.len() * n, |ti| {
                        let v = target[ti];
                        let q = -model_ref.h()[v];
                        let row = model_ref.coupling().row(v);
                        let mut g_row = vec![0.0; n];
                        let mut g_h = 0.0;
                        let mut sse = 0.0;
                        for &si in batch {
                            let state = &states[si];
                            let mut dot = 0.0;
                            for (j, &s) in state.iter().enumerate() {
                                dot += row[j] * s;
                            }
                            let pred = dot / q;
                            let err = pred - state[v];
                            sse += err * err;
                            let coeff = 2.0 * err / q;
                            for (j, &s) in state.iter().enumerate() {
                                if j != v {
                                    g_row[j] += coeff * s;
                                }
                            }
                            g_h += 2.0 * err * pred / q;
                        }
                        (g_row, g_h, sse)
                    })
                };
                for (ti, (g_row, g_h, sse)) in parts.into_iter().enumerate() {
                    let v = target[ti];
                    for (j, g) in g_row.into_iter().enumerate() {
                        if j != v {
                            grad_tri[tri_index(n, v, j)] += g;
                        }
                    }
                    grad_h[v] += g_h;
                    epoch_sse += sse;
                    epoch_count += batch.len();
                }
                // Soft contraction penalty (per batch, so its scale
                // tracks the data-loss gradient scale).
                if self.config.contraction_penalty > 0.0 {
                    let lambda = self.config.contraction_penalty * batch.len() as f64;
                    let m = self.config.contraction_margin;
                    for &v in &target {
                        let row = model.coupling().row(v);
                        let s: f64 = target.iter().map(|&j| row[j].abs()).sum();
                        let slack = s - m * (-model.h()[v]);
                        if slack > 0.0 {
                            let d = 2.0 * lambda * slack;
                            for &j in &target {
                                if j != v && row[j] != 0.0 {
                                    grad_tri[tri_index(n, v, j)] += d * row[j].signum();
                                }
                            }
                            grad_h[v] += d * m;
                        }
                    }
                }
                self.apply_step(model, &mut adam, &grad_tri, &grad_h, mask, &target);
            }
            epoch_losses.push(epoch_sse / epoch_count.max(1) as f64);
        }
        self.project_contraction(model, &target);
        if self.telemetry.is_enabled() {
            self.telemetry.counter_add("train.sgd_fits", 1);
            self.telemetry
                .counter_add("train.epochs", epoch_losses.len() as u64);
            for &loss in &epoch_losses {
                self.telemetry.record("train.epoch_loss", loss);
            }
            if let Some(&last) = epoch_losses.last() {
                self.telemetry.gauge_set("train.final_loss", last);
            }
        }
        Ok(TrainReport { epoch_losses })
    }

    /// One optimiser step: Adam on the packed upper triangle of `J` and
    /// on `h`, then mask, L1, negativity, and contraction projections.
    fn apply_step(
        &self,
        model: &mut DsGlModel,
        adam: &mut Adam,
        grad_tri: &[f64],
        grad_h: &[f64],
        mask: Option<&[bool]>,
        target: &[usize],
    ) {
        let n = model.layout().total();
        // Pack current parameters.
        let mut tri = vec![0.0; grad_tri.len()];
        {
            let c = model.coupling();
            let mut k = 0;
            for i in 0..n {
                for j in (i + 1)..n {
                    tri[k] = c.get(i, j);
                    k += 1;
                }
            }
        }
        adam.update(0, &mut tri, grad_tri);
        if self.config.l2 > 0.0 {
            let factor = (1.0 - adam.learning_rate() * self.config.l2).max(0.0);
            for v in tri.iter_mut() {
                *v *= factor;
            }
        }
        if self.config.l1 > 0.0 {
            let shrink = self.config.l1 * self.config.lr;
            for v in tri.iter_mut() {
                *v = v.signum() * (v.abs() - shrink).max(0.0);
            }
        }
        // Unpack with mask enforcement.
        {
            let c = model.coupling_mut();
            let mut k = 0;
            for i in 0..n {
                for j in (i + 1)..n {
                    let allowed = mask.is_none_or(|m| m[i * n + j] && m[j * n + i]);
                    c.set(i, j, if allowed { tri[k] } else { 0.0 });
                    k += 1;
                }
            }
        }
        if !self.config.freeze_h {
            let h = model.h_mut();
            adam.update(1, h, grad_h);
            for hv in h.iter_mut() {
                *hv = hv.min(-self.config.h_min);
            }
        }
        let _ = target;
    }

    /// One-time symmetric projection enforcing the contraction bound
    /// after training: violating target rows have their target-block
    /// couplings scaled down (pairwise by the stricter of the two rows'
    /// factors, preserving symmetry). History couplings are untouched, so
    /// the observed-input drive keeps its calibration.
    fn project_contraction(&self, model: &mut DsGlModel, target: &[usize]) {
        let m = self.config.contraction_margin;
        // A couple of sweeps: pairwise min-scaling can leave tiny
        // residual violations after the first pass.
        for _ in 0..3 {
            let scales: Vec<(usize, f64)> = target
                .iter()
                .map(|&v| {
                    let row = model.coupling().row(v);
                    let s: f64 = target.iter().map(|&j| row[j].abs()).sum();
                    let bound = m * (-model.h()[v]);
                    (v, if s > bound && s > 0.0 { bound / s } else { 1.0 })
                })
                .collect();
            if scales.iter().all(|&(_, a)| a >= 1.0) {
                break;
            }
            let alpha: std::collections::HashMap<usize, f64> = scales.into_iter().collect();
            for vi in 0..target.len() {
                for vj in (vi + 1)..target.len() {
                    let (u, v) = (target[vi], target[vj]);
                    let w = model.coupling().get(u, v);
                    if w != 0.0 {
                        let a = alpha[&u].min(alpha[&v]);
                        if a < 1.0 {
                            model.coupling_mut().set(u, v, w * a);
                        }
                    }
                }
            }
        }
    }

    /// Teacher-forced regression RMSE over a sample set — a fast proxy
    /// for annealed-inference accuracy used for validation.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::EmptyTrainingSet`] or a shape mismatch.
    pub fn regression_rmse(model: &DsGlModel, samples: &[Sample]) -> Result<f64, CoreError> {
        if samples.is_empty() {
            return Err(CoreError::EmptyTrainingSet);
        }
        let layout = model.layout();
        let mut sse = 0.0;
        let mut count = 0usize;
        for s in samples {
            let state = full_state(&layout, s)?;
            for v in layout.target_range() {
                let err = model.regress_one(&state, v) - state[v];
                sse += err * err;
                count += 1;
            }
        }
        Ok((sse / count as f64).sqrt())
    }
}

/// Index of `(i, j)` (`i != j`) in the packed upper triangle of an
/// `n x n` symmetric matrix.
fn tri_index(n: usize, i: usize, j: usize) -> usize {
    let (a, b) = if i < j { (i, j) } else { (j, i) };
    a * n - a * (a + 1) / 2 + (b - a - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::VariableLayout;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// Builds samples from a known linear rule: target = 0.6·last + 0.3·mean(others).
    fn linear_samples(n_nodes: usize, count: usize, seed: u64) -> Vec<Sample> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|_| {
                let hist: Vec<f64> = (0..n_nodes).map(|_| rng.random::<f64>() * 0.8).collect();
                let mean = hist.iter().sum::<f64>() / n_nodes as f64;
                let target: Vec<f64> = hist.iter().map(|&h| 0.6 * h + 0.3 * mean).collect();
                Sample {
                    history: hist,
                    target,
                }
            })
            .collect()
    }

    #[test]
    fn tri_index_bijective() {
        let n = 5;
        let mut seen = std::collections::HashSet::new();
        for i in 0..n {
            for j in (i + 1)..n {
                let k = tri_index(n, i, j);
                assert_eq!(k, tri_index(n, j, i), "symmetric");
                assert!(k < n * (n - 1) / 2);
                assert!(seen.insert(k), "collision at ({i},{j})");
            }
        }
        assert_eq!(seen.len(), 10);
    }

    #[test]
    fn loss_decreases_and_fits_linear_rule() {
        let samples = linear_samples(4, 60, 1);
        let layout = VariableLayout::new(1, 4, 1);
        let mut model = DsGlModel::new(layout);
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = TrainConfig {
            epochs: 60,
            lr: 0.05,
            lr_decay: 0.98,
            ..TrainConfig::default()
        };
        let report = Trainer::new(cfg).fit(&mut model, &samples, &mut rng).unwrap();
        let first = report.epoch_losses[0];
        let last = report.final_loss();
        assert!(last < first / 10.0, "loss {first} -> {last}");
        let rmse = Trainer::regression_rmse(&model, &samples).unwrap();
        assert!(rmse < 0.05, "regression rmse {rmse}");
    }

    #[test]
    fn h_stays_negative_and_contractive() {
        let samples = linear_samples(3, 30, 3);
        let layout = VariableLayout::new(1, 3, 1);
        let mut model = DsGlModel::new(layout);
        let mut rng = StdRng::seed_from_u64(4);
        let cfg = TrainConfig {
            epochs: 20,
            ..TrainConfig::default()
        };
        Trainer::new(cfg).fit(&mut model, &samples, &mut rng).unwrap();
        for &h in model.h() {
            assert!(h <= -cfg.h_min, "h = {h}");
        }
        // Contraction over the target block.
        let target: Vec<usize> = layout.target_range().collect();
        for &v in &target {
            let row = model.coupling().row(v);
            let s: f64 = target.iter().map(|&j| row[j].abs()).sum();
            assert!(
                s <= cfg.contraction_margin * (-model.h()[v]) + 1e-9,
                "row {v}: sum {s} vs h {}",
                model.h()[v]
            );
        }
    }

    #[test]
    fn masked_training_respects_mask() {
        let samples = linear_samples(3, 30, 5);
        let layout = VariableLayout::new(1, 3, 1); // 6 vars
        let n = layout.total();
        let mut model = DsGlModel::new(layout);
        // Forbid every coupling involving variable 0.
        let mut mask = vec![true; n * n];
        for j in 0..n {
            mask[j] = false;
            mask[j * n] = false;
        }
        let mut rng = StdRng::seed_from_u64(6);
        let cfg = TrainConfig {
            epochs: 10,
            ..TrainConfig::default()
        };
        Trainer::new(cfg)
            .fit_masked(&mut model, &samples, Some(&mask), &mut rng)
            .unwrap();
        for j in 1..n {
            assert_eq!(model.coupling().get(0, j), 0.0, "mask violated at (0,{j})");
        }
        assert!(model.nnz() > 0, "everything else should train");
    }

    #[test]
    fn empty_training_set_rejected() {
        let mut model = DsGlModel::new(VariableLayout::new(1, 2, 1));
        let mut rng = StdRng::seed_from_u64(0);
        assert!(matches!(
            Trainer::new(TrainConfig::default()).fit(&mut model, &[], &mut rng),
            Err(CoreError::EmptyTrainingSet)
        ));
    }

    #[test]
    fn bad_mask_rejected() {
        let mut model = DsGlModel::new(VariableLayout::new(1, 2, 1));
        let samples = linear_samples(2, 4, 0);
        let mut rng = StdRng::seed_from_u64(0);
        let err = Trainer::new(TrainConfig::default())
            .fit_masked(&mut model, &samples, Some(&[true; 3]), &mut rng)
            .unwrap_err();
        assert!(matches!(err, CoreError::InvalidConfig { .. }));
    }

    #[test]
    fn l1_sparsifies() {
        let samples = linear_samples(4, 40, 7);
        let layout = VariableLayout::new(1, 4, 1);
        let run = |l1: f64| {
            let mut model = DsGlModel::new(layout);
            let mut rng = StdRng::seed_from_u64(8);
            let cfg = TrainConfig {
                epochs: 25,
                l1,
                ..TrainConfig::default()
            };
            Trainer::new(cfg).fit(&mut model, &samples, &mut rng).unwrap();
            model.nnz()
        };
        assert!(run(5.0) < run(0.0), "L1 should remove couplings");
    }

    #[test]
    fn unfrozen_h_stays_negative() {
        // The paper-faithful mode trains h too; the h <= -h_min clamp
        // must hold throughout.
        let samples = linear_samples(4, 40, 11);
        let layout = VariableLayout::new(1, 4, 1);
        let mut model = DsGlModel::new(layout);
        let cfg = TrainConfig {
            epochs: 15,
            lr: 0.05,
            lr_decay: 0.98,
            freeze_h: false,
            ..TrainConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(12);
        let report = Trainer::new(cfg).fit(&mut model, &samples, &mut rng).unwrap();
        for &h in model.h() {
            assert!(h <= -cfg.h_min + 1e-12, "h = {h}");
        }
        assert!(report.final_loss() < report.epoch_losses[0]);
    }

    #[test]
    fn final_projection_enforces_contraction() {
        // Train free, then verify the one-time projection left every
        // target row within the margin.
        let samples = linear_samples(5, 40, 13);
        let layout = VariableLayout::new(1, 5, 1);
        let mut model = DsGlModel::new(layout);
        let cfg = TrainConfig {
            epochs: 20,
            lr: 0.08,
            lr_decay: 0.97,
            contraction_penalty: 0.0, // force the projection to do the work
            ..TrainConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(14);
        Trainer::new(cfg).fit(&mut model, &samples, &mut rng).unwrap();
        let target: Vec<usize> = layout.target_range().collect();
        for &v in &target {
            let row = model.coupling().row(v);
            let s: f64 = target.iter().filter(|&&u| u != v).map(|&u| row[u].abs()).sum();
            assert!(
                s <= cfg.contraction_margin * (-model.h()[v]) + 1e-6,
                "row {v}: {s} vs bound {}",
                cfg.contraction_margin * (-model.h()[v])
            );
        }
    }

    #[test]
    #[should_panic(expected = "contraction margin")]
    fn bad_margin_panics() {
        Trainer::new(TrainConfig {
            contraction_margin: 1.5,
            ..TrainConfig::default()
        });
    }
}
