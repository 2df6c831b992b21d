//! High-level facade: train, forecast, impute, deploy, and serve a
//! DS-GL system without orchestrating the individual crates.
//!
//! The builder idioms from the guarded-inference and telemetry PRs are
//! the recommended defaults: attach an enabled
//! [`TelemetrySink`](dsgl_core::TelemetrySink) so training and every
//! inference record into one registry, and set a
//! [`RetryPolicy`](dsgl_core::RetryPolicy) so the health-reporting
//! paths say how hard the guard may fight a bad anneal. Neither knob
//! can change forecast bits.
//!
//! ```
//! use dsgl::core::{RetryPolicy, TelemetrySink};
//! use dsgl::facade::Forecaster;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), dsgl::core::CoreError> {
//! let dataset = dsgl::data::covid::generate(7).truncate(16, 160);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let forecaster = Forecaster::builder()
//!     .history(3)
//!     .guard(RetryPolicy { max_retries: 3, backoff: 2.0 })
//!     .telemetry(TelemetrySink::enabled())
//!     .fit(&dataset, &mut rng)?;
//! let window = dataset.series.frame(0).to_vec(); // toy: any W frames
//! # let mut window = Vec::new();
//! # for t in 0..3 { window.extend_from_slice(dataset.series.frame(t)); }
//! let (forecast, health) = forecaster.forecast_with_health(&window, &mut rng)?;
//! assert_eq!(forecast.len(), dataset.node_count());
//! assert!(health.healthy());
//! // Everything recorded so far: train.*, anneal.*, guard.*.
//! let snapshot = forecaster.telemetry_snapshot();
//! assert!(snapshot.counter("guard.runs") >= 1);
//! # Ok(())
//! # }
//! ```
//!
//! For long-lived serving — a pool of workers coalescing concurrent
//! requests over the trained model — hand the forecaster to
//! [`Forecaster::serve`]:
//!
//! ```
//! use dsgl::core::TelemetrySink;
//! use dsgl::facade::Forecaster;
//! use dsgl::serve::ServeConfig;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let dataset = dsgl::data::covid::generate(7).truncate(16, 160);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let forecaster = Forecaster::builder()
//!     .history(3)
//!     .telemetry(TelemetrySink::enabled())
//!     .fit(&dataset, &mut rng)?;
//! let mut service = forecaster.serve(ServeConfig::default().workers(2))?;
//! let mut window = Vec::new();
//! for t in 0..3 { window.extend_from_slice(dataset.series.frame(t)); }
//! let response = service.forecast(window, 7)?;
//! assert_eq!(response.prediction.len(), dataset.node_count());
//! service.shutdown();
//! # Ok(())
//! # }
//! ```

use dsgl_core::guard::{infer_batch_guarded, infer_dense_guarded};
use dsgl_core::inference::{
    batch_seeds, infer_batch, infer_dense, infer_dense_imputation, RunCtx, WarmStart,
};
use dsgl_core::ridge::{
    fit_gaussian_couplings, fit_ridge_instrumented, fit_ridge_validated_instrumented,
};
use dsgl_core::{
    decompose, CoreError, DecomposeConfig, DecomposedModel, DsGlModel, GuardedAnneal,
    HealthReport, MetricsSnapshot, PatternKind, RetryPolicy, TelemetrySink, VariableLayout,
};
use dsgl_data::{Dataset, Sample, WindowConfig};
use dsgl_hw::coanneal::MappedMachine;
use dsgl_hw::{HwConfig, HwFaultModel};
use dsgl_ising::AnnealConfig;
use rand::Rng;

/// Configures and fits a [`Forecaster`].
#[derive(Debug, Clone)]
pub struct ForecasterBuilder {
    history: usize,
    horizon: usize,
    h_magnitude: f64,
    lambda_grid: Vec<f64>,
    gaussian_outputs: bool,
    anneal: AnnealConfig,
    warm_start: WarmStart,
    retry: RetryPolicy,
    telemetry: TelemetrySink,
}

impl ForecasterBuilder {
    /// Number of observed history frames `W` (default 4).
    pub fn history(mut self, w: usize) -> Self {
        self.history = w;
        self
    }

    /// Number of jointly predicted future frames `H` (default 1).
    pub fn horizon(mut self, h: usize) -> Self {
        self.horizon = h;
        self
    }

    /// Ridge-λ candidates validated on a held-out tail.
    pub fn lambda_grid(mut self, grid: Vec<f64>) -> Self {
        self.lambda_grid = grid;
        self
    }

    /// Also program the residual Gaussian graphical model over the
    /// outputs (recommended when [`Forecaster::impute`] will be used).
    pub fn gaussian_outputs(mut self, on: bool) -> Self {
        self.gaussian_outputs = on;
        self
    }

    /// The annealing configuration used at inference.
    pub fn anneal(mut self, config: AnnealConfig) -> Self {
        self.anneal = config;
        self
    }

    /// How every inference through the fitted [`Forecaster`] seeds each
    /// window's free block (default [`WarmStart::Cold`], the bit-exact
    /// historical behaviour). The policy is a pure function of one
    /// window, so forecasts, batches and imputations all honour it.
    pub fn warm_start(mut self, warm: WarmStart) -> Self {
        self.warm_start = warm;
        self
    }

    /// Convenience for
    /// [`warm_start`](ForecasterBuilder::warm_start)`(WarmStart::Multigrid {..})`:
    /// every window anneals from a Louvain-coarsened coarse solve
    /// prolonged onto the fine machine (see [`dsgl_ising::multigrid`]).
    /// Windows stay independent — the multigrid policy composes with
    /// batching, guarding and serving without changing a bit — and
    /// large community-structured graphs converge in a fraction of the
    /// cold-start steps. `levels` caps the coarsening depth (`0` acts
    /// as `1`); `coarse_tol` is the coarse-solve tolerance, typically
    /// much looser than the fine one (e.g. `1e-3`).
    pub fn multigrid(self, levels: usize, coarse_tol: f64) -> Self {
        self.warm_start(WarmStart::Multigrid { levels, coarse_tol })
    }

    /// Retry policy for the guarded inference paths
    /// ([`Forecaster::forecast_with_health`] and
    /// [`Forecaster::forecast_batch_with_health`]); the default allows
    /// three retries with a 2× budget backoff. The unguarded paths are
    /// unaffected.
    pub fn guard(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Attaches a [`TelemetrySink`]: training records the `train.*`
    /// instrument family and every subsequent inference through the
    /// fitted [`Forecaster`] records `anneal.*` / `guard.*` (and `hw.*`
    /// after [`Forecaster::deploy`]). The default noop sink costs
    /// nothing; an enabled sink never touches the RNG or the dynamics,
    /// so results are bit-identical either way. Read the aggregate with
    /// [`Forecaster::telemetry_snapshot`].
    pub fn telemetry(mut self, sink: TelemetrySink) -> Self {
        self.telemetry = sink;
        self
    }

    /// Windows the dataset, fits the dynamical system (persistence +
    /// graph-diffusion prior, validated closed-form ridge), and returns
    /// a ready [`Forecaster`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] variants for empty/degenerate data.
    pub fn fit<R: Rng + ?Sized>(
        self,
        dataset: &Dataset,
        rng: &mut R,
    ) -> Result<Forecaster, CoreError> {
        let _ = rng; // reserved for stochastic trainers
        let wc = WindowConfig {
            history: self.history,
            horizon: self.horizon,
        };
        let (train, val, _) = dataset.split_windows(&wc, 0.85, 0.15);
        if train.is_empty() || val.is_empty() {
            return Err(CoreError::EmptyTrainingSet);
        }
        let layout = VariableLayout::with_horizon(
            self.history,
            dataset.node_count(),
            dataset.feature_count(),
            self.horizon,
        );
        let mut model = DsGlModel::new(layout);
        model.h_mut().iter_mut().for_each(|h| *h = -self.h_magnitude);
        model.init_diffusion_prior(&dataset.graph, 0.7, 0.2);
        let lambda = fit_ridge_validated_instrumented(
            &mut model,
            &train,
            &val,
            &self.lambda_grid,
            &self.telemetry,
        )?;
        // Final fit on everything that was windowed.
        let mut all = train;
        all.extend(val);
        fit_ridge_instrumented(&mut model, &all, lambda, &self.telemetry)?;
        let joint = if self.gaussian_outputs {
            let mut j = model.clone();
            fit_gaussian_couplings(&mut j, &all, 0.5, self.h_magnitude)?;
            Some(j)
        } else {
            None
        };
        Ok(Forecaster {
            model,
            joint,
            anneal: self.anneal,
            warm_start: self.warm_start,
            guard: GuardedAnneal::new(self.anneal).with_policy(self.retry),
            telemetry: self.telemetry,
        })
    }
}

/// A trained DS-GL system with a one-call inference API.
///
/// Holds the per-node forecaster and, when
/// [`gaussian_outputs`](ForecasterBuilder::gaussian_outputs) was set, a
/// second Gaussian-programmed model whose output couplings power
/// [`impute`](Self::impute). Forecasting and deployment use the
/// forecaster model (output couplings are provably inert for pure
/// forecasting and do not survive decomposition well — see DESIGN.md).
#[derive(Debug, Clone)]
pub struct Forecaster {
    model: DsGlModel,
    joint: Option<DsGlModel>,
    anneal: AnnealConfig,
    warm_start: WarmStart,
    guard: GuardedAnneal,
    telemetry: TelemetrySink,
}

impl Forecaster {
    /// Starts configuring a forecaster.
    pub fn builder() -> ForecasterBuilder {
        ForecasterBuilder {
            history: 4,
            horizon: 1,
            h_magnitude: 2.0,
            lambda_grid: vec![0.1, 1.0, 10.0, 100.0],
            gaussian_outputs: false,
            anneal: AnnealConfig::default(),
            warm_start: WarmStart::Cold,
            retry: RetryPolicy::default(),
            telemetry: TelemetrySink::noop(),
        }
    }

    /// The underlying model (for decomposition, serialisation, …).
    pub fn model(&self) -> &DsGlModel {
        &self.model
    }

    /// The telemetry sink every inference records into (noop unless
    /// [`ForecasterBuilder::telemetry`] attached an enabled one).
    pub fn telemetry(&self) -> &TelemetrySink {
        &self.telemetry
    }

    /// A point-in-time snapshot of every instrument recorded so far
    /// (training, forecasting, guarded inference; empty for a noop
    /// sink). Serialise it with serde or render
    /// [`MetricsSnapshot::summary_table`].
    pub fn telemetry_snapshot(&self) -> MetricsSnapshot {
        self.telemetry.snapshot()
    }

    /// A run context reporting into this forecaster's telemetry sink and
    /// starting every window under the builder's warm start.
    fn ctx(&self) -> RunCtx<'_> {
        RunCtx {
            sink: &self.telemetry,
            warm: self.warm_start,
            ..RunCtx::default()
        }
    }

    /// Forecasts the next `horizon` frames from `W·N·F` history values
    /// (frames oldest→newest, node-major) by natural annealing.
    ///
    /// # Errors
    ///
    /// Returns a shape mismatch if `history` has the wrong length.
    pub fn forecast<R: Rng + ?Sized>(
        &self,
        history: &[f64],
        rng: &mut R,
    ) -> Result<Vec<f64>, CoreError> {
        let sample = Sample {
            history: history.to_vec(),
            target: vec![0.0; self.model.layout().target_len()],
        };
        let (pred, _) = infer_dense(&self.model, &sample, &self.anneal, rng, &mut self.ctx())?;
        Ok(pred)
    }

    /// [`forecast`](Self::forecast) under the guarded annealing path:
    /// bad runs (non-finite state, rail saturation, non-convergence)
    /// are retried with escalating mitigation per the builder's
    /// [`guard`](ForecasterBuilder::guard) policy, and the returned
    /// [`HealthReport`] says what happened. The prediction is always
    /// finite; on a healthy run it is bit-identical to
    /// [`forecast`](Self::forecast).
    ///
    /// # Errors
    ///
    /// Returns a shape mismatch if `history` has the wrong length.
    pub fn forecast_with_health<R: Rng + ?Sized>(
        &self,
        history: &[f64],
        rng: &mut R,
    ) -> Result<(Vec<f64>, HealthReport), CoreError> {
        let sample = Sample {
            history: history.to_vec(),
            target: vec![0.0; self.model.layout().target_len()],
        };
        let (pred, _, health) =
            infer_dense_guarded(&self.model, &sample, &self.guard, rng, &mut self.ctx())?;
        Ok((pred, health))
    }

    /// Forecasts many history windows at once, annealing them in
    /// parallel when the `parallel` feature is enabled.
    ///
    /// Each window gets its own RNG seeded deterministically from
    /// `master_seed` and its index, so the output is reproducible and
    /// bit-identical across thread counts (see
    /// [`dsgl_core::inference::infer_batch`]). Predictions are returned
    /// in window order.
    ///
    /// # Errors
    ///
    /// Returns an error for an empty batch or the first window with a
    /// wrong history length.
    pub fn forecast_batch(
        &self,
        windows: &[Vec<f64>],
        master_seed: u64,
    ) -> Result<Vec<Vec<f64>>, CoreError> {
        let target_len = self.model.layout().target_len();
        let samples: Vec<Sample> = windows
            .iter()
            .map(|history| Sample {
                history: history.clone(),
                target: vec![0.0; target_len],
            })
            .collect();
        let results = infer_batch(
            &self.model,
            &samples,
            &self.anneal,
            master_seed,
            &mut self.ctx(),
        )?;
        Ok(results.into_iter().map(|(pred, _)| pred).collect())
    }

    /// [`forecast_batch`](Self::forecast_batch) under the guarded
    /// annealing path: every window gets its own guard with the
    /// builder's retry policy and reports its health alongside the
    /// prediction. Windows whose guard never fires are bit-identical to
    /// the unguarded cold-start batch under every threading policy.
    /// A [`WarmStart::Multigrid`] policy carries over: each window
    /// warm-starts independently before its guard runs.
    ///
    /// # Errors
    ///
    /// Returns an error for an empty batch or a window with a wrong
    /// history length.
    pub fn forecast_batch_with_health(
        &self,
        windows: &[Vec<f64>],
        master_seed: u64,
    ) -> Result<Vec<(Vec<f64>, HealthReport)>, CoreError> {
        let target_len = self.model.layout().target_len();
        let samples: Vec<Sample> = windows
            .iter()
            .map(|history| Sample {
                history: history.clone(),
                target: vec![0.0; target_len],
            })
            .collect();
        let seeds = batch_seeds(master_seed, samples.len());
        let results =
            infer_batch_guarded(&self.model, &samples, &self.guard, &seeds, &mut self.ctx())?;
        Ok(results
            .into_iter()
            .map(|(pred, _, health)| (pred, health))
            .collect())
    }

    /// Imputes the unknown entries of a partially observed target frame:
    /// `observed` lists `(target_index, value)` pairs; everything else
    /// anneals. Returns the full target block.
    ///
    /// # Errors
    ///
    /// Returns shape mismatches and out-of-range indices.
    pub fn impute<R: Rng + ?Sized>(
        &self,
        history: &[f64],
        observed: &[(usize, f64)],
        rng: &mut R,
    ) -> Result<Vec<f64>, CoreError> {
        let mut target = vec![0.0; self.model.layout().target_len()];
        for &(idx, value) in observed {
            if idx >= target.len() {
                return Err(CoreError::SampleShapeMismatch {
                    what: "observed target index",
                    expected: target.len(),
                    actual: idx,
                });
            }
            target[idx] = value;
        }
        let sample = Sample {
            history: history.to_vec(),
            target,
        };
        let indices: Vec<usize> = observed.iter().map(|&(i, _)| i).collect();
        let machine = self.joint.as_ref().unwrap_or(&self.model);
        let (pred, _) = infer_dense_imputation(
            machine,
            &sample,
            &indices,
            &self.anneal,
            rng,
            &mut self.ctx(),
        )?;
        Ok(pred)
    }

    /// Spawns a long-lived [`ForecastService`](dsgl_serve::ForecastService)
    /// over this forecaster's model: a pool of workers pulling
    /// concurrent requests off a bounded queue, coalescing compatible
    /// windows into single batched anneals with pooled workspaces, and
    /// answering with the same bits a serial one-by-one run would
    /// produce. The service inherits this forecaster's guard policy and
    /// telemetry sink, so `serve.*` instruments land in the registry
    /// [`telemetry_snapshot`](Self::telemetry_snapshot) reads.
    ///
    /// # Errors
    ///
    /// Returns [`dsgl_serve::ServeError::InvalidConfig`] for an
    /// unrunnable configuration.
    pub fn serve(
        &self,
        config: dsgl_serve::ServeConfig,
    ) -> Result<dsgl_serve::ForecastService, dsgl_serve::ServeError> {
        dsgl_serve::ForecastService::spawn(
            self.model.clone(),
            self.guard,
            self.telemetry.clone(),
            config,
        )
    }

    /// Decomposes the system onto a PE mesh and returns a
    /// [`MappedForecaster`] running on the simulated hardware.
    ///
    /// # Errors
    ///
    /// Returns decomposition errors (e.g. a grid too small).
    pub fn deploy<R: Rng + ?Sized>(
        &self,
        grid: (usize, usize),
        pattern: PatternKind,
        density: f64,
        finetune_samples: &[Sample],
        rng: &mut R,
    ) -> Result<MappedForecaster, CoreError> {
        let total = self.model.layout().total();
        let pes = grid.0 * grid.1;
        let cfg = DecomposeConfig {
            density,
            pattern,
            wormhole_budget: 4,
            pe_capacity: total.div_ceil(pes) + 2,
            grid,
            finetune: None, // closed-form masked refit below instead
        };
        let mut decomposed = decompose(&self.model, finetune_samples, &cfg, rng)?;
        if !finetune_samples.is_empty() {
            dsgl_core::ridge::refit_ridge_masked(&mut decomposed.model, finetune_samples, 10.0)?;
        }
        // Historical per-index target means: the fallback values a
        // faulted deployment degrades to (0 V when no samples exist).
        let target_len = self.model.layout().target_len();
        let mut fallback = vec![0.0; target_len];
        if !finetune_samples.is_empty() {
            for s in finetune_samples {
                for (acc, &t) in fallback.iter_mut().zip(&s.target) {
                    *acc += t;
                }
            }
            let inv = 1.0 / finetune_samples.len() as f64;
            fallback.iter_mut().for_each(|v| *v *= inv);
        }
        Ok(MappedForecaster {
            decomposed,
            hw: HwConfig::default(),
            faults: HwFaultModel::none(),
            fallback,
            telemetry: self.telemetry.clone(),
        })
    }
}

/// A forecaster deployed onto the simulated Scalable DSPU mesh.
#[derive(Debug, Clone)]
pub struct MappedForecaster {
    decomposed: DecomposedModel,
    hw: HwConfig,
    faults: HwFaultModel,
    fallback: Vec<f64>,
    /// Inherited from the [`Forecaster`] at deploy time: mapped runs
    /// record the `hw.*` instrument family into the same registry.
    telemetry: TelemetrySink,
}

impl MappedForecaster {
    /// The decomposed model (placement, wormholes, stats).
    pub fn decomposed(&self) -> &DecomposedModel {
        &self.decomposed
    }

    /// Overrides the hardware configuration (lanes, sync interval, …).
    pub fn with_hw(mut self, hw: HwConfig) -> Self {
        self.hw = hw;
        self
    }

    /// Declares dead PEs and CU lanes on the deployed mesh. Subsequent
    /// [`forecast_with_health`](Self::forecast_with_health) calls run
    /// around the defects: couplings through dead lanes are severed,
    /// and predictions read off dead PEs are degraded to the historical
    /// target means captured at [`Forecaster::deploy`].
    pub fn with_faults(mut self, faults: HwFaultModel) -> Self {
        self.faults = faults;
        self
    }

    /// Replaces the telemetry sink inherited from the [`Forecaster`].
    pub fn with_telemetry(mut self, sink: TelemetrySink) -> Self {
        self.telemetry = sink;
        self
    }

    /// The telemetry sink mapped runs record into.
    pub fn telemetry(&self) -> &TelemetrySink {
        &self.telemetry
    }

    /// Forecasts by co-annealing on the mesh; also returns the inference
    /// latency in nanoseconds of simulated analog time.
    ///
    /// # Errors
    ///
    /// Returns shape mismatches.
    pub fn forecast<R: Rng + ?Sized>(
        &self,
        history: &[f64],
        rng: &mut R,
    ) -> Result<(Vec<f64>, f64), CoreError> {
        let sample = Sample {
            history: history.to_vec(),
            target: vec![0.0; self.decomposed.model.layout().target_len()],
        };
        let mut machine = MappedMachine::new(&self.decomposed, self.hw.lanes)?;
        machine.set_telemetry(self.telemetry.clone());
        machine.load_sample(&sample, rng)?;
        let report = machine.run(&self.hw, rng);
        Ok((machine.prediction(), report.anneal.sim_time_ns))
    }

    /// Forecasts on the (possibly faulted) mesh with a health account.
    /// Target entries whose variable sits on a dead PE are re-clamped
    /// to the historical-mean fallback captured at deploy time, as are
    /// any non-finite readouts; each patch is counted in the
    /// [`HealthReport`] and marks the result degraded. A defect-free
    /// mesh returns the same bits as [`forecast`](Self::forecast) with
    /// a clean report.
    ///
    /// # Errors
    ///
    /// Returns shape mismatches and invalid fault declarations (a dead
    /// PE outside the grid).
    pub fn forecast_with_health<R: Rng + ?Sized>(
        &self,
        history: &[f64],
        rng: &mut R,
    ) -> Result<(Vec<f64>, f64, HealthReport), CoreError> {
        let sample = Sample {
            history: history.to_vec(),
            target: vec![0.0; self.decomposed.model.layout().target_len()],
        };
        let mut machine = MappedMachine::with_faults(&self.decomposed, self.hw.lanes, &self.faults)?;
        machine.set_telemetry(self.telemetry.clone());
        machine.load_sample(&sample, rng)?;
        let report = machine.run(&self.hw, rng);
        let mut pred = machine.prediction();
        let mut health = HealthReport {
            anneal_steps: report.anneal.steps,
            anneal_sim_time_ns: report.anneal.sim_time_ns,
            ..HealthReport::default()
        };
        for idx in machine.faulted_target_indices() {
            pred[idx] = self.fallback[idx];
            health.fault_clamped += 1;
        }
        for (p, &fb) in pred.iter_mut().zip(&self.fallback) {
            if !p.is_finite() {
                *p = fb;
                health.sanitized_nodes += 1;
            }
        }
        health.degraded = health.fault_clamped > 0 || health.sanitized_nodes > 0;
        if self.telemetry.is_enabled() {
            self.telemetry.counter_add("guard.runs", 1);
            self.telemetry.counter_add("guard.attempts", 1);
            if health.degraded {
                self.telemetry.counter_add("guard.degraded_runs", 1);
            }
            self.telemetry
                .counter_add("guard.fault_clamped", health.fault_clamped as u64);
            self.telemetry
                .counter_add("guard.sanitized_nodes", health.sanitized_nodes as u64);
        }
        Ok((pred, report.anneal.sim_time_ns, health))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn history_of(dataset: &Dataset, start: usize, w: usize) -> Vec<f64> {
        let mut h = Vec::new();
        for t in start..start + w {
            h.extend_from_slice(dataset.series.frame(t));
        }
        h
    }

    #[test]
    fn fit_forecast_roundtrip() {
        let dataset = dsgl_data::covid::generate(9).truncate(16, 160);
        let mut rng = StdRng::seed_from_u64(0);
        let f = Forecaster::builder()
            .history(3)
            .fit(&dataset, &mut rng)
            .unwrap();
        let t0 = 100;
        let hist = history_of(&dataset, t0, 3);
        let pred = f.forecast(&hist, &mut rng).unwrap();
        let truth = dataset.series.frame(t0 + 3);
        let rmse = dsgl_core::metrics::rmse(&pred, truth);
        assert!(rmse < 0.05, "facade forecast rmse {rmse}");
    }

    #[test]
    fn batch_forecast_matches_truth_and_is_reproducible() {
        let dataset = dsgl_data::covid::generate(9).truncate(16, 160);
        let mut rng = StdRng::seed_from_u64(0);
        let f = Forecaster::builder()
            .history(3)
            .fit(&dataset, &mut rng)
            .unwrap();
        let windows: Vec<Vec<f64>> = (100..108).map(|t| history_of(&dataset, t, 3)).collect();
        let preds = f.forecast_batch(&windows, 7).unwrap();
        assert_eq!(preds.len(), windows.len());
        for (k, pred) in preds.iter().enumerate() {
            let truth = dataset.series.frame(100 + k + 3);
            let rmse = dsgl_core::metrics::rmse(pred, truth);
            assert!(rmse < 0.05, "window {k} rmse {rmse}");
        }
        // Same master seed → bit-identical reruns.
        let again = f.forecast_batch(&windows, 7).unwrap();
        assert_eq!(preds, again);
        assert!(f.forecast_batch(&[], 7).is_err(), "empty batch rejected");
    }

    #[test]
    fn warm_adaptive_batch_forecast_close_to_cold_strict() {
        let dataset = dsgl_data::covid::generate(9).truncate(16, 160);
        let mut rng = StdRng::seed_from_u64(0);
        let cold = Forecaster::builder()
            .history(3)
            .fit(&dataset, &mut rng)
            .unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let fast = Forecaster::builder()
            .history(3)
            .anneal(AnnealConfig::adaptive())
            .multigrid(1, 1e-3)
            .fit(&dataset, &mut rng)
            .unwrap();
        let windows: Vec<Vec<f64>> = (100..108).map(|t| history_of(&dataset, t, 3)).collect();
        let baseline = cold.forecast_batch(&windows, 7).unwrap();
        let preds = fast.forecast_batch(&windows, 7).unwrap();
        for (b, p) in baseline.iter().zip(&preds) {
            let diff = dsgl_core::metrics::rmse(b, p);
            assert!(diff < 1e-3, "fast path diverged from baseline: {diff}");
        }
        // Still deterministic for a fixed policy.
        assert_eq!(preds, fast.forecast_batch(&windows, 7).unwrap());
    }

    #[test]
    fn imputation_echoes_observations() {
        let dataset = dsgl_data::stock::generate(9).truncate(12, 150);
        let mut rng = StdRng::seed_from_u64(1);
        let f = Forecaster::builder()
            .history(3)
            .gaussian_outputs(true)
            .telemetry(TelemetrySink::enabled())
            .fit(&dataset, &mut rng)
            .unwrap();
        let hist = history_of(&dataset, 80, 3);
        let truth = dataset.series.frame(83);
        let observed: Vec<(usize, f64)> = (0..6).map(|i| (i, truth[i])).collect();
        let pred = f.impute(&hist, &observed, &mut rng).unwrap();
        for &(i, v) in &observed {
            assert!((pred[i] - v).abs() < 1e-12, "observation {i} not echoed");
        }
        assert!(pred.len() == dataset.node_count());
        // Imputation reports into the forecaster's sink like every
        // other inference.
        assert_eq!(f.telemetry_snapshot().counter("anneal.runs"), 1);
    }

    #[test]
    fn deploy_and_forecast_on_mesh() {
        let dataset = dsgl_data::covid::generate(10).truncate(12, 160);
        let wc = WindowConfig::one_step(3);
        let (train, _, _) = dataset.split_windows(&wc, 0.8, 0.0);
        let mut rng = StdRng::seed_from_u64(2);
        let f = Forecaster::builder()
            .history(3)
            .fit(&dataset, &mut rng)
            .unwrap();
        let mapped = f
            .deploy((2, 2), PatternKind::DMesh, 0.3, &train, &mut rng)
            .unwrap();
        let hist = history_of(&dataset, 100, 3);
        let (pred, latency) = mapped.forecast(&hist, &mut rng).unwrap();
        assert_eq!(pred.len(), dataset.node_count());
        assert!(latency > 0.0);
        // Mapping is legal.
        let report = dsgl_hw::validate_mapping(mapped.decomposed(), 30);
        assert!(report.is_legal());
    }

    #[test]
    fn horizon_forecaster() {
        let dataset = dsgl_data::covid::generate(11).truncate(10, 150);
        let mut rng = StdRng::seed_from_u64(3);
        let f = Forecaster::builder()
            .history(3)
            .horizon(2)
            .fit(&dataset, &mut rng)
            .unwrap();
        let hist = history_of(&dataset, 90, 3);
        let pred = f.forecast(&hist, &mut rng).unwrap();
        assert_eq!(pred.len(), 2 * dataset.node_count());
    }

    #[test]
    fn guarded_forecast_matches_unguarded_on_healthy_hardware() {
        let dataset = dsgl_data::covid::generate(9).truncate(16, 160);
        let mut rng = StdRng::seed_from_u64(0);
        let f = Forecaster::builder()
            .history(3)
            .fit(&dataset, &mut rng)
            .unwrap();
        let hist = history_of(&dataset, 100, 3);
        let mut rng_a = StdRng::seed_from_u64(21);
        let plain = f.forecast(&hist, &mut rng_a).unwrap();
        let mut rng_b = StdRng::seed_from_u64(21);
        let (guarded, health) = f.forecast_with_health(&hist, &mut rng_b).unwrap();
        assert!(health.healthy(), "health: {health:?}");
        assert_eq!(plain, guarded, "guard must be invisible when healthy");
        // Batch variant: same bits as the cold unguarded batch, every
        // window clean.
        let windows: Vec<Vec<f64>> = (100..104).map(|t| history_of(&dataset, t, 3)).collect();
        let plain_batch = f.forecast_batch(&windows, 7).unwrap();
        let guarded_batch = f.forecast_batch_with_health(&windows, 7).unwrap();
        for ((p, (g, h)), k) in plain_batch.iter().zip(&guarded_batch).zip(0..) {
            assert!(h.healthy(), "window {k}: {h:?}");
            assert_eq!(p, g, "window {k} diverged");
        }
    }

    #[test]
    fn guard_policy_is_configurable_and_retries_a_starved_budget() {
        let dataset = dsgl_data::covid::generate(9).truncate(12, 140);
        let mut rng = StdRng::seed_from_u64(5);
        let f = Forecaster::builder()
            .history(3)
            .anneal(AnnealConfig::with_budget(20.0)) // far too small
            .guard(dsgl_core::RetryPolicy {
                max_retries: 5,
                backoff: 4.0,
            })
            .fit(&dataset, &mut rng)
            .unwrap();
        let hist = history_of(&dataset, 90, 3);
        let (pred, health) = f.forecast_with_health(&hist, &mut rng).unwrap();
        assert!(pred.iter().all(|p| p.is_finite()));
        assert!(health.retries >= 1, "starved budget must trigger retries");
        assert!(!health.degraded, "backoff should rescue the run: {health:?}");
    }

    #[test]
    fn faulted_mesh_degrades_to_historical_means() {
        let dataset = dsgl_data::covid::generate(10).truncate(12, 160);
        let wc = WindowConfig::one_step(3);
        let (train, _, _) = dataset.split_windows(&wc, 0.8, 0.0);
        let mut rng = StdRng::seed_from_u64(2);
        let f = Forecaster::builder()
            .history(3)
            .fit(&dataset, &mut rng)
            .unwrap();
        let mapped = f
            .deploy((2, 2), PatternKind::DMesh, 0.3, &train, &mut rng)
            .unwrap();
        let hist = history_of(&dataset, 100, 3);
        // Clean mesh: health path returns the same bits as forecast.
        let mut rng_a = StdRng::seed_from_u64(33);
        let (clean, _) = mapped.forecast(&hist, &mut rng_a).unwrap();
        let mut rng_b = StdRng::seed_from_u64(33);
        let (pred, latency, health) = mapped.forecast_with_health(&hist, &mut rng_b).unwrap();
        assert!(health.healthy(), "clean mesh must report healthy");
        assert_eq!(clean, pred);
        assert!(latency > 0.0);
        // Kill PE 0: its target outputs fall back to historical means,
        // the report says so, and the output stays finite.
        let faulted = mapped.clone().with_faults(HwFaultModel {
            dead_pes: vec![0],
            dead_cu_lanes: vec![],
        });
        let mut rng_c = StdRng::seed_from_u64(33);
        let (dpred, _, dhealth) = faulted.forecast_with_health(&hist, &mut rng_c).unwrap();
        assert!(dhealth.degraded, "dead PE must degrade the forecast");
        assert!(dhealth.fault_clamped > 0, "health: {dhealth:?}");
        assert!(!dhealth.healthy());
        assert!(dpred.iter().all(|p| p.is_finite()));
        // Degradation is still a usable forecast, not garbage.
        let truth = dataset.series.frame(103);
        let rmse = dsgl_core::metrics::rmse(&dpred, truth);
        assert!(rmse < 0.5, "degraded forecast unusable: rmse {rmse}");
        // A fault outside the grid is rejected, not silently ignored.
        let bad = mapped.clone().with_faults(HwFaultModel {
            dead_pes: vec![99],
            dead_cu_lanes: vec![],
        });
        assert!(bad.forecast_with_health(&hist, &mut rng_c).is_err());
    }

    #[test]
    fn served_forecasts_match_the_serial_facade_reference() {
        let dataset = dsgl_data::covid::generate(9).truncate(16, 160);
        let mut rng = StdRng::seed_from_u64(0);
        let f = Forecaster::builder()
            .history(3)
            .telemetry(dsgl_core::TelemetrySink::enabled())
            .fit(&dataset, &mut rng)
            .unwrap();
        let windows: Vec<Vec<f64>> = (100..106).map(|t| history_of(&dataset, t, 3)).collect();
        let seeds: Vec<u64> = (0..windows.len() as u64).map(|i| 50 + i).collect();
        // Serial reference: each request alone through the facade's
        // guarded batch under its own master seed.
        let reference: Vec<(Vec<f64>, HealthReport)> = windows
            .iter()
            .zip(&seeds)
            .map(|(w, &seed)| {
                f.forecast_batch_with_health(std::slice::from_ref(w), seed)
                    .unwrap()
                    .remove(0)
            })
            .collect();
        let mut service = f
            .serve(dsgl_serve::ServeConfig::default().workers(2).coalesce(4))
            .unwrap();
        let tickets: Vec<_> = windows
            .iter()
            .zip(&seeds)
            .map(|(w, &seed)| service.submit(w.clone(), seed).unwrap())
            .collect();
        for (i, ticket) in tickets.into_iter().enumerate() {
            let response = ticket.wait().unwrap();
            assert_eq!(response.prediction, reference[i].0, "window {i}");
            assert_eq!(response.health, reference[i].1, "window {i}");
        }
        service.shutdown();
        // The service records into the forecaster's registry.
        let snapshot = f.telemetry_snapshot();
        assert!(snapshot.families().contains(&"serve".to_owned()));
        assert_eq!(
            snapshot.counter(dsgl_serve::instruments::REQUESTS),
            windows.len() as u64
        );
    }

    #[test]
    fn wrong_history_length_rejected() {
        let dataset = dsgl_data::covid::generate(12).truncate(8, 120);
        let mut rng = StdRng::seed_from_u64(4);
        let f = Forecaster::builder()
            .history(3)
            .fit(&dataset, &mut rng)
            .unwrap();
        assert!(f.forecast(&[0.0; 5], &mut rng).is_err());
    }
}
