//! GL inference as natural annealing (paper Sec. III.C).

use crate::error::CoreError;
use crate::metrics::pooled_rmse;
use crate::model::DsGlModel;
use crate::telemetry::TelemetrySink;
use crate::tracing::TraceScope;
use crate::windows::observed_state;
use dsgl_data::Sample;
use dsgl_ising::fault::FaultModel;
use dsgl_ising::{
    AnnealConfig, AnnealReport, CancelToken, MultigridHierarchy, MultigridOptions, RealValuedDspu,
    Workspace,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::sync::Mutex;

static NOOP_SINK: TelemetrySink = TelemetrySink::noop();

static NO_FAULTS: FaultModel = FaultModel {
    stuck_nodes: Vec::new(),
    dead_couplers: Vec::new(),
    coupler_drift: 0.0,
};

/// Everything an inference call carries besides the model, its inputs,
/// the anneal config and the RNG: where the run reports, whether it can
/// be cancelled, what hardware it runs on, how it starts, and which
/// scratch buffers it reuses.
///
/// `RunCtx::default()` is the plain call — noop telemetry, untraced, no
/// cancel token, defect-free hardware, cold start, no pooled workspace.
/// Every field is bit-invisible except `faults` and `warm`: sinks and
/// scopes record only after the dynamics finish, an unfired token never
/// stops a run, and pooled buffers carry capacity, never values.
///
/// ```
/// use dsgl_core::{inference, DsGlModel, RunCtx, TelemetrySink, VariableLayout};
/// use dsgl_data::Sample;
/// use dsgl_ising::AnnealConfig;
///
/// let mut model = DsGlModel::new(VariableLayout::new(1, 3, 1));
/// model.init_persistence(0.9);
/// let windows = vec![Sample { history: vec![0.2; 3], target: vec![0.0; 3] }; 4];
/// let cfg = AnnealConfig::default();
/// let plain = inference::infer_batch(&model, &windows, &cfg, 7, &mut RunCtx::default()).unwrap();
/// let sink = TelemetrySink::enabled();
/// let mut ctx = RunCtx { sink: &sink, ..RunCtx::default() };
/// let instrumented = inference::infer_batch(&model, &windows, &cfg, 7, &mut ctx).unwrap();
/// assert_eq!(plain, instrumented);
/// assert_eq!(sink.snapshot().counter("anneal.runs"), 4);
/// ```
#[derive(Debug)]
pub struct RunCtx<'a> {
    /// Sink every machine records its `anneal.*` (and, guarded,
    /// `guard.*`) instruments into.
    pub sink: &'a TelemetrySink,
    /// One trace scope per window, aligned with the batch (a
    /// single-window call takes at most one). Empty = untraced.
    pub scopes: &'a [TraceScope],
    /// Supervisor token attached to every machine: firing it stops each
    /// anneal at its next integration step.
    pub cancel: Option<&'a CancelToken>,
    /// Persistent hardware defects injected into every machine before
    /// it anneals. A defect-free model draws nothing from the RNG.
    pub faults: &'a FaultModel,
    /// How each window's free block starts (see [`WarmStart`]).
    pub warm: WarmStart,
    /// Scratch workspace handed from machine to machine. It survives
    /// the call, so a long-lived caller pays the stage-buffer
    /// allocations once.
    pub pool: Option<Workspace>,
}

impl Default for RunCtx<'_> {
    fn default() -> Self {
        RunCtx {
            sink: &NOOP_SINK,
            scopes: &[],
            cancel: None,
            faults: &NO_FAULTS,
            warm: WarmStart::Cold,
            pool: None,
        }
    }
}

impl RunCtx<'_> {
    /// Prepares a freshly built machine for window `window`: attaches
    /// the sink, the window's trace scope and the cancel token, and
    /// hands it the pooled workspace.
    pub fn attach(&mut self, dspu: &mut RealValuedDspu, window: usize) {
        dspu.set_telemetry(self.sink.clone());
        if let Some(scope) = self.scopes.get(window) {
            dspu.set_tracing(scope.clone());
        }
        if let Some(token) = self.cancel {
            dspu.set_cancel(token.clone());
        }
        if let Some(ws) = self.pool.take() {
            dspu.adopt_workspace(ws);
        }
    }

    /// Rejects a scope list that is neither empty nor one per window.
    pub(crate) fn check_scopes(&self, windows: usize) -> Result<(), CoreError> {
        if self.scopes.is_empty() || self.scopes.len() == windows {
            return Ok(());
        }
        Err(CoreError::SampleShapeMismatch {
            what: "per-window trace scope list",
            expected: windows,
            actual: self.scopes.len(),
        })
    }
}

/// Builds a [`RealValuedDspu`] programmed with the model's parameters,
/// history variables clamped to the sample's observations and target
/// variables randomised.
///
/// # Errors
///
/// Returns shape mismatches and invalid-parameter errors.
pub fn machine_for_sample<R: Rng + ?Sized>(
    model: &DsGlModel,
    sample: &Sample,
    rng: &mut R,
) -> Result<RealValuedDspu, CoreError> {
    let layout = model.layout();
    let state = observed_state(&layout, sample)?;
    let mut dspu = RealValuedDspu::new(model.coupling().clone(), model.h().to_vec())?;
    for (v, &obs) in state.iter().enumerate().take(layout.history_len()) {
        dspu.clamp(v, obs.clamp(-dspu.rail(), dspu.rail()))?;
    }
    dspu.randomize_free(rng);
    Ok(dspu)
}

/// Runs one annealed inference on the full (dense or decomposed) model:
/// clamp history, anneal, read the target block. `ctx` supplies the
/// telemetry, trace scope, cancel token, faults, warm start and pool;
/// [`WarmStart::Chained`] has no single-window meaning and runs cold.
///
/// Returns the predicted target frame and the annealing report (whose
/// `sim_time_ns` is the inference latency).
///
/// # Errors
///
/// Returns shape mismatches, invalid-parameter and fault-model errors,
/// and a [`CoreError::SampleShapeMismatch`] when `ctx` carries more than
/// one trace scope.
pub fn infer_dense<R: Rng + ?Sized>(
    model: &DsGlModel,
    sample: &Sample,
    config: &AnnealConfig,
    rng: &mut R,
    ctx: &mut RunCtx<'_>,
) -> Result<(Vec<f64>, AnnealReport), CoreError> {
    ctx.check_scopes(1)?;
    let (pred, report, ()) = solve_window(model, sample, config, ctx, 0, None, rng)?;
    Ok((pred, report))
}

/// Fixed-point inference without simulating the analog dynamics: damped
/// iteration of the regression formula over the target block. Fast
/// surrogate used by parameter sweeps; agrees with annealed inference
/// when the contraction projection held during training.
///
/// # Errors
///
/// Returns shape mismatches.
pub fn infer_fixed_point(
    model: &DsGlModel,
    sample: &Sample,
    iterations: usize,
) -> Result<Vec<f64>, CoreError> {
    let layout = model.layout();
    let mut state = observed_state(&layout, sample)?;
    let target: Vec<usize> = layout.target_range().collect();
    for _ in 0..iterations {
        for &v in &target {
            let row = model.coupling().row(v);
            let mut dot = 0.0;
            for (j, &s) in state.iter().enumerate() {
                dot += row[j] * s;
            }
            state[v] = dot / (-model.h()[v]);
        }
    }
    Ok(state[layout.target_range()].to_vec())
}

/// Runs one annealed *imputation* inference: besides the history block,
/// the listed target-frame entries (indices into the target frame) are
/// also clamped to their ground-truth values, and only the remaining
/// unknown targets anneal. This is the paper's core definition of graph
/// learning — "acquisition of unknown graph node features using observed
/// node features" — and the regime where coupling the outputs lets
/// observed nodes inform unobserved ones through the machine's joint
/// relaxation.
///
/// Returns the full predicted target frame (observed entries echo their
/// clamped values) and the annealing report.
///
/// # Errors
///
/// Returns shape mismatches, invalid parameters, and out-of-range
/// observed indices.
pub fn infer_dense_imputation<R: Rng + ?Sized>(
    model: &DsGlModel,
    sample: &Sample,
    observed_targets: &[usize],
    config: &AnnealConfig,
    rng: &mut R,
) -> Result<(Vec<f64>, AnnealReport), CoreError> {
    let layout = model.layout();
    let mut dspu = machine_for_sample(model, sample, rng)?;
    for &t_idx in observed_targets {
        if t_idx >= layout.target_len() {
            return Err(CoreError::SampleShapeMismatch {
                what: "observed target index",
                expected: layout.target_len(),
                actual: t_idx,
            });
        }
        let v = layout.history_len() + t_idx;
        let value = sample.target[t_idx].clamp(-dspu.rail(), dspu.rail());
        dspu.clamp(v, value)?;
    }
    let report = dspu.run(config, rng);
    Ok((dspu.state()[layout.target_range()].to_vec(), report))
}

/// Fixed-point imputation (see [`infer_dense_imputation`]): damped
/// iteration with the observed target entries held at their true values.
///
/// # Errors
///
/// Returns shape mismatches and out-of-range observed indices.
pub fn infer_fixed_point_imputation(
    model: &DsGlModel,
    sample: &Sample,
    observed_targets: &[usize],
    iterations: usize,
) -> Result<Vec<f64>, CoreError> {
    let layout = model.layout();
    let mut state = observed_state(&layout, sample)?;
    let mut held = vec![false; layout.target_len()];
    for &t_idx in observed_targets {
        if t_idx >= layout.target_len() {
            return Err(CoreError::SampleShapeMismatch {
                what: "observed target index",
                expected: layout.target_len(),
                actual: t_idx,
            });
        }
        state[layout.history_len() + t_idx] = sample.target[t_idx];
        held[t_idx] = true;
    }
    let target: Vec<usize> = layout.target_range().collect();
    for _ in 0..iterations {
        for (t_idx, &v) in target.iter().enumerate() {
            if held[t_idx] {
                continue;
            }
            let row = model.coupling().row(v);
            let mut dot = 0.0;
            for (j, &s) in state.iter().enumerate() {
                dot += row[j] * s;
            }
            state[v] = dot / (-model.h()[v]);
        }
    }
    Ok(state[layout.target_range()].to_vec())
}

/// Derives the RNG seed for window `index` of a batch from the batch's
/// master seed (splitmix64 finaliser). Pure in `(master, index)`, so the
/// assignment of windows to threads can never change a window's noise.
pub(crate) fn window_seed(master: u64, index: u64) -> u64 {
    let mut z = master.wrapping_add(GOLDEN_GAMMA.wrapping_mul(index.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// splitmix64's increment, φ·2⁶⁴.
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// Per-window seeds equivalent to one master seed: seed `i` is
/// `master + φ·i`, and since `window_seed(master + φ·i, 0) ==
/// window_seed(master, i)`, a seeded batch fed these seeds anneals every
/// window exactly as a batch under `master` would. This is how
/// master-seeded callers reach [`crate::guard::infer_batch_guarded`].
pub fn batch_seeds(master: u64, n: usize) -> Vec<u64> {
    (0..n as u64)
        .map(|i| master.wrapping_add(GOLDEN_GAMMA.wrapping_mul(i)))
        .collect()
}

/// The RNG of a window whose per-window seed is `seed`.
fn window_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(window_seed(seed, 0))
}

/// Windows per workspace-pooling chunk on the per-window path: small
/// enough that batches keep saturating the thread pool, large enough to
/// amortise the first window's workspace warm-up across the rest.
const POOL_CHUNK: usize = 8;

/// One window's outcome: prediction, annealing report, and what the
/// finisher adds (nothing, or the guard's [`HealthReport`](crate::HealthReport)).
pub(crate) type Window<X> = (Vec<f64>, AnnealReport, X);

/// How a prepared machine finishes — the one point where guarded and
/// unguarded inference differ. A plain [`AnnealConfig`] runs once; a
/// [`GuardedAnneal`](crate::GuardedAnneal) runs its retry ladder and
/// reports health.
pub(crate) trait Finish: Sync {
    /// What a window reports beyond its prediction and anneal report.
    type Extra: Send;

    /// The first attempt's anneal configuration.
    fn config(&self) -> &AnnealConfig;

    /// Anneals a prepared machine.
    fn run<R: Rng + ?Sized>(
        &self,
        dspu: &mut RealValuedDspu,
        rng: &mut R,
    ) -> (AnnealReport, Self::Extra);
}

impl Finish for AnnealConfig {
    type Extra = ();

    fn config(&self) -> &AnnealConfig {
        self
    }

    fn run<R: Rng + ?Sized>(&self, dspu: &mut RealValuedDspu, rng: &mut R) -> (AnnealReport, ()) {
        (dspu.run(self, rng), ())
    }
}

/// One window end to end: build the machine, attach `ctx`, apply its
/// multigrid warm start (from the batch-shared `hierarchy`, or a
/// one-shot build without one), inject its faults, finish, and read the
/// target block. The warm start runs before fault injection, so a
/// guard's retry ladder restores the warmed state and stuck nodes
/// override warm values exactly as they override cold ones.
pub(crate) fn solve_window<F: Finish, R: Rng + ?Sized>(
    model: &DsGlModel,
    sample: &Sample,
    fin: &F,
    ctx: &mut RunCtx<'_>,
    window: usize,
    hierarchy: Option<&MultigridHierarchy>,
    rng: &mut R,
) -> Result<Window<F::Extra>, CoreError> {
    let config = fin.config();
    let mut dspu = machine_for_sample(model, sample, rng)?;
    ctx.attach(&mut dspu, window);
    let warmed = match ctx.warm {
        WarmStart::Multigrid { levels, coarse_tol } => {
            let opts = MultigridOptions { levels, coarse_tol };
            match hierarchy {
                Some(h) => dsgl_ising::warm_start_with(&mut dspu, h, &opts, config),
                None => dsgl_ising::multigrid_warm_start(&mut dspu, &opts, config),
            }
            .is_some()
        }
        _ => false,
    };
    dspu.inject_faults(ctx.faults, rng)?;
    let (report, extra) = fin.run(&mut dspu, rng);
    if warmed {
        record_fine_steps_saved(ctx.sink, config, &report);
    }
    let pred = dspu.state()[model.layout().target_range()].to_vec();
    ctx.pool = Some(dspu.take_workspace());
    Ok((pred, report, extra))
}

/// Validates a batch's shape against its per-window seeds and `ctx`.
fn check_batch(samples: &[Sample], seeds: &[u64], ctx: &RunCtx<'_>) -> Result<(), CoreError> {
    if samples.is_empty() {
        return Err(CoreError::EmptyTrainingSet);
    }
    if seeds.len() != samples.len() {
        return Err(CoreError::SampleShapeMismatch {
            what: "per-window seed list",
            expected: samples.len(),
            actual: seeds.len(),
        });
    }
    ctx.check_scopes(samples.len())
}

/// The batch runner behind [`infer_batch`] and
/// [`crate::guard::infer_batch_guarded`]. Window `i` anneals under the
/// RNG `window_seed(seeds[i], 0)` and is a pure function of
/// `(model, sample, fin, ctx.faults, ctx.warm, seeds[i])`, so neither
/// the chunking nor the thread count can change a bit. Multigrid
/// batches build the Louvain hierarchy once and share it.
pub(crate) fn drive_batch<F: Finish>(
    model: &DsGlModel,
    samples: &[Sample],
    fin: &F,
    seeds: &[u64],
    ctx: &mut RunCtx<'_>,
) -> Result<Vec<Window<F::Extra>>, CoreError> {
    check_batch(samples, seeds, ctx)?;
    let hierarchy = batch_hierarchy(model, samples, ctx.warm, seeds[0]);
    let out = for_chunks(ctx, model, samples.len(), POOL_CHUNK, |range, ctx| {
        range
            .map(|i| {
                let mut rng = window_rng(seeds[i]);
                solve_window(model, &samples[i], fin, ctx, i, hierarchy.as_ref(), &mut rng)
            })
            .collect()
    });
    out.into_iter().collect()
}

/// Runs `chunk_fn` over consecutive chunks of `n` windows. A batch of
/// one chunk runs on the calling thread with the caller's pool; larger
/// batches spread across the thread pool, chunk 0 adopting the caller's
/// pool and the others warming up their own. Inside a chunk the
/// workspace migrates machine to machine, so only its first window pays
/// the stage-buffer allocations.
fn for_chunks<T: Send>(
    ctx: &mut RunCtx<'_>,
    model: &DsGlModel,
    n: usize,
    chunk: usize,
    chunk_fn: impl Fn(Range<usize>, &mut RunCtx<'_>) -> Vec<T> + Sync,
) -> Vec<T> {
    if n <= chunk {
        return chunk_fn(0..n, ctx);
    }
    let total = model.layout().total();
    // Rough per-window flop count: one matvec per integration step.
    let work_per_chunk = chunk * total * total * 64;
    let first = Mutex::new(ctx.pool.take());
    let shared = &*ctx;
    let chunks = crate::threading::par_map(n.div_ceil(chunk), work_per_chunk, |c| {
        let lo = c * chunk;
        let range = lo..(lo + chunk).min(n);
        if c > 0 {
            return chunk_fn(range, &mut RunCtx { pool: None, ..*shared });
        }
        let pool = first.lock().unwrap_or_else(|e| e.into_inner()).take();
        let mut local = RunCtx { pool, ..*shared };
        let out = chunk_fn(range, &mut local);
        *first.lock().unwrap_or_else(|e| e.into_inner()) = local.pool;
        out
    });
    ctx.pool = first.into_inner().unwrap_or_else(|e| e.into_inner());
    chunks.into_iter().flatten().collect()
}

/// Builds the batch-shared multigrid hierarchy under
/// [`WarmStart::Multigrid`]: the Louvain hierarchy depends only on the
/// coupling topology and the clamp mask, identical across a batch's
/// windows, so a throwaway probe machine for the first sample supplies
/// it. `None` for every other policy or when the probe cannot be built;
/// windows then fall back to the one-shot warm start, which fails (and
/// cold-starts) exactly where the probe did.
fn batch_hierarchy(
    model: &DsGlModel,
    samples: &[Sample],
    warm: WarmStart,
    first_seed: u64,
) -> Option<MultigridHierarchy> {
    let WarmStart::Multigrid { levels, coarse_tol } = warm else {
        return None;
    };
    let probe = machine_for_sample(model, samples.first()?, &mut window_rng(first_seed)).ok()?;
    dsgl_ising::build_hierarchy(&probe, &MultigridOptions { levels, coarse_tol })
}

/// Anneals many test windows, one machine per window.
///
/// Window `i` gets its own [`StdRng`] seeded from
/// `(master_seed, i)` via a splitmix64 mix, so the draws that randomise
/// the free block and inject annealing noise are a pure function of the
/// window's position in `samples` — never of which thread ran it or how
/// many threads exist. The returned predictions and reports are
/// therefore **bit-identical** across every [`crate::Threading`] policy,
/// across repeated calls, and between the `parallel` and
/// `--no-default-features` builds. (For the same reason the results
/// intentionally differ from threading a single shared RNG through
/// sequential [`infer_dense`] calls.)
///
/// `ctx.warm` picks the start: [`WarmStart::Cold`] windows are
/// independent, [`WarmStart::Chained`] seeds each window from its
/// predecessor's equilibrium, [`WarmStart::Multigrid`] warm-starts each
/// window from a coarsened replica. Wrap the call in
/// [`crate::Threading::install`] to pin the thread count.
///
/// Returns one `(predicted target frame, anneal report)` per sample, in
/// sample order.
///
/// # Example
///
/// ```
/// use dsgl_core::{inference, DsGlModel, RunCtx, VariableLayout, Threading};
/// use dsgl_data::Sample;
/// use dsgl_ising::AnnealConfig;
///
/// let layout = VariableLayout::new(1, 3, 1);
/// let mut model = DsGlModel::new(layout);
/// model.init_persistence(0.9);
/// let windows: Vec<Sample> = (0..4)
///     .map(|i| Sample {
///         history: vec![0.1 * i as f64; 3],
///         target: vec![0.0; 3],
///     })
///     .collect();
/// let cfg = AnnealConfig::default();
/// let run = || inference::infer_batch(&model, &windows, &cfg, 7, &mut RunCtx::default());
/// let par = run().unwrap();
/// let ser = Threading::Sequential.install(run).unwrap();
/// assert_eq!(par.len(), 4);
/// for (p, s) in par.iter().zip(&ser) {
///     assert_eq!(p.0, s.0); // bit-identical predictions
/// }
/// ```
///
/// # Errors
///
/// Returns [`CoreError::EmptyTrainingSet`] for an empty batch, a
/// [`CoreError::SampleShapeMismatch`] when `ctx.scopes` is neither
/// empty nor one per window, or the first per-window shape/parameter
/// error in sample order.
pub fn infer_batch(
    model: &DsGlModel,
    samples: &[Sample],
    config: &AnnealConfig,
    master_seed: u64,
    ctx: &mut RunCtx<'_>,
) -> Result<Vec<(Vec<f64>, AnnealReport)>, CoreError> {
    let seeds = batch_seeds(master_seed, samples.len());
    if let WarmStart::Chained { chunk } = ctx.warm {
        return infer_chained(model, samples, config, &seeds, chunk, ctx);
    }
    let out = drive_batch(model, samples, config, &seeds, ctx)?;
    Ok(out
        .into_iter()
        .map(|(pred, report, ())| (pred, report))
        .collect())
}

/// The [`WarmStart::Chained`] batch: chunks of `chunk` windows (`0` =
/// one chunk) run in parallel, and inside a chunk each window's free
/// block starts from the previous window's equilibrium. The per-window
/// RNG is consumed exactly as on the cold path, so only the starting
/// point differs and results depend on `chunk`, never on the thread
/// count.
fn infer_chained(
    model: &DsGlModel,
    samples: &[Sample],
    config: &AnnealConfig,
    seeds: &[u64],
    chunk: usize,
    ctx: &mut RunCtx<'_>,
) -> Result<Vec<(Vec<f64>, AnnealReport)>, CoreError> {
    check_batch(samples, seeds, ctx)?;
    let chunk = if chunk == 0 { samples.len() } else { chunk };
    let target = model.layout().target_range();
    let out = for_chunks(ctx, model, samples.len(), chunk, |range, ctx| {
        let mut prev: Option<Vec<f64>> = None;
        range
            .map(|i| {
                let mut rng = window_rng(seeds[i]);
                let result =
                    machine_for_sample(model, &samples[i], &mut rng).and_then(|mut dspu| {
                        ctx.attach(&mut dspu, i);
                        if let Some(prev) = &prev {
                            let mut state = dspu.state().to_vec();
                            state[target.clone()].copy_from_slice(prev);
                            dspu.set_state(&state)?;
                        }
                        dspu.inject_faults(ctx.faults, &mut rng)?;
                        let report = dspu.run(config, &mut rng);
                        ctx.pool = Some(dspu.take_workspace());
                        Ok((dspu.state()[target.clone()].to_vec(), report))
                    });
                prev = result.as_ref().ok().map(|(pred, _)| pred.clone());
                result
            })
            .collect()
    });
    out.into_iter().collect()
}

/// How a batch of windows seeds the free block of each machine.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum WarmStart {
    /// Every window anneals from a seeded random initialisation.
    /// Windows are fully independent (and maximally parallel); this is
    /// the bit-exact historical behaviour.
    #[default]
    Cold,
    /// Windows are grouped into fixed-size chunks; within a chunk each
    /// window's free block starts from the *previous* window's
    /// equilibrium. Consecutive temporal windows are highly
    /// autocorrelated, so the machine starts near its fixed point and
    /// the integrator takes far fewer steps — especially with the
    /// event-driven [`dsgl_ising::EngineMode::Adaptive`] engine, whose
    /// active set is nearly empty from the first step. Chunks are
    /// processed in parallel and chained sequentially inside, so the
    /// results depend only on `(samples, config, master_seed, chunk)`,
    /// never on the thread count. Unguarded batches only: single
    /// windows and guarded batches run cold, since chaining would let
    /// one window's degraded equilibrium seed the next.
    Chained {
        /// Windows per chain (the first of each chunk starts cold).
        /// `0` is treated as one chunk spanning the whole batch.
        chunk: usize,
    },
    /// Every window anneals from a multigrid warm start: a
    /// Louvain-coarsened replica of the machine (one node per community
    /// of the free subgraph) is annealed cheaply and its equilibrium
    /// prolonged onto the fine free block before the fine anneal (see
    /// [`dsgl_ising::multigrid`]). Windows stay fully independent —
    /// unlike [`WarmStart::Chained`] there is no cross-window coupling,
    /// so this policy composes with request coalescing and batch
    /// regrouping without changing a bit. The warm start is a pure
    /// function of the machine; when coarsening is not applicable
    /// (small or structureless free subgraph) a window silently falls
    /// back to the cold start. Windows whose warm start applies record
    /// [`dsgl_ising::multigrid::instruments::FINE_STEPS_SAVED`].
    Multigrid {
        /// Maximum coarse levels to build (`0` is treated as `1`).
        levels: usize,
        /// Coarse-solve convergence tolerance, rail fractions per ns
        /// (typically much looser than the fine tolerance).
        coarse_tol: f64,
    },
}

/// Reports how many fine-level integration steps a warm start saved
/// against the annealing budget (`max_time_ns / dt_ns`).
fn record_fine_steps_saved(sink: &TelemetrySink, config: &AnnealConfig, report: &AnnealReport) {
    if !sink.is_enabled() || config.dt_ns <= 0.0 {
        return;
    }
    let budget_steps = (config.max_time_ns / config.dt_ns) as usize;
    sink.counter_add(
        dsgl_ising::multigrid::instruments::FINE_STEPS_SAVED,
        budget_steps.saturating_sub(report.steps) as u64,
    );
}

/// Evaluates annealed inference over a test set using [`infer_batch`]
/// (the `ctx` is passed through): the parallel, deterministically-seeded
/// counterpart of [`evaluate`]. The report is reduced in sample order,
/// so it inherits `infer_batch`'s bit-identical-across-thread-counts
/// guarantee.
///
/// # Errors
///
/// Returns [`CoreError::EmptyTrainingSet`] for an empty test set, or any
/// per-sample inference error.
pub fn evaluate_batch(
    model: &DsGlModel,
    samples: &[Sample],
    config: &AnnealConfig,
    master_seed: u64,
    ctx: &mut RunCtx<'_>,
) -> Result<EvalReport, CoreError> {
    let results = infer_batch(model, samples, config, master_seed, ctx)?;
    Ok(reduce_eval(samples, &results))
}

/// Reduces per-window predictions and reports to an [`EvalReport`] in
/// sample order.
fn reduce_eval(samples: &[Sample], results: &[(Vec<f64>, AnnealReport)]) -> EvalReport {
    let mut per_sample = Vec::with_capacity(samples.len());
    let mut latency_sum = 0.0;
    let mut converged = 0usize;
    for (s, (pred, report)) in samples.iter().zip(results) {
        per_sample.push((crate::metrics::rmse(pred, &s.target), pred.len()));
        latency_sum += report.sim_time_ns;
        converged += report.converged as usize;
    }
    EvalReport {
        rmse: pooled_rmse(&per_sample),
        mean_latency_ns: latency_sum / samples.len() as f64,
        samples: samples.len(),
        converged_fraction: converged as f64 / samples.len() as f64,
    }
}

/// Result of evaluating a model over a test set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvalReport {
    /// Pooled RMSE over all samples and target variables.
    pub rmse: f64,
    /// Mean annealing latency per inference, ns.
    pub mean_latency_ns: f64,
    /// Number of samples evaluated.
    pub samples: usize,
    /// Fraction of inferences that converged within budget.
    pub converged_fraction: f64,
}

/// Evaluates annealed inference over a test set.
///
/// # Errors
///
/// Returns [`CoreError::EmptyTrainingSet`] for an empty test set, or any
/// per-sample inference error.
pub fn evaluate<R: Rng + ?Sized>(
    model: &DsGlModel,
    samples: &[Sample],
    config: &AnnealConfig,
    rng: &mut R,
) -> Result<EvalReport, CoreError> {
    if samples.is_empty() {
        return Err(CoreError::EmptyTrainingSet);
    }
    let mut ctx = RunCtx::default();
    let results = samples
        .iter()
        .map(|s| infer_dense(model, s, config, rng, &mut ctx))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(reduce_eval(samples, &results))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::model::VariableLayout;
    use crate::trainer::{TrainConfig, Trainer};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn warm_batch(
        model: &DsGlModel,
        samples: &[Sample],
        cfg: &AnnealConfig,
        seed: u64,
        warm: WarmStart,
    ) -> Result<Vec<(Vec<f64>, AnnealReport)>, CoreError> {
        infer_batch(model, samples, cfg, seed, &mut RunCtx { warm, ..RunCtx::default() })
    }

    #[test]
    fn batch_seeds_reproduce_master_seeded_windows() {
        for master in [0, 1, 42, u64::MAX - 3, 0x9E37_79B9_7F4A_7C15] {
            for (i, seed) in batch_seeds(master, 40).into_iter().enumerate() {
                assert_eq!(window_seed(seed, 0), window_seed(master, i as u64));
            }
        }
    }

    fn trained_model(seed: u64) -> (DsGlModel, Vec<Sample>) {
        // target_i = 0.5 * history_i + 0.2 * history_{(i+1)%n}
        let n = 3;
        let mut rng = StdRng::seed_from_u64(seed);
        let samples: Vec<Sample> = (0..50)
            .map(|_| {
                let hist: Vec<f64> = (0..n).map(|_| rng.random::<f64>() * 0.8).collect();
                let target: Vec<f64> = (0..n)
                    .map(|i| 0.5 * hist[i] + 0.2 * hist[(i + 1) % n])
                    .collect();
                Sample {
                    history: hist,
                    target,
                }
            })
            .collect();
        let layout = VariableLayout::new(1, n, 1);
        let mut model = DsGlModel::new(layout);
        let cfg = TrainConfig {
            epochs: 80,
            lr: 0.05,
            lr_decay: 0.98,
            ..TrainConfig::default()
        };
        Trainer::new(cfg)
            .fit(&mut model, &samples, &mut rng)
            .unwrap();
        (model, samples)
    }

    #[test]
    fn annealed_inference_matches_truth() {
        let (model, samples) = trained_model(1);
        let mut rng = StdRng::seed_from_u64(9);
        let cfg = AnnealConfig::default();
        let (pred, report) =
            infer_dense(&model, &samples[0], &cfg, &mut rng, &mut RunCtx::default()).unwrap();
        assert!(report.converged);
        let rmse = crate::metrics::rmse(&pred, &samples[0].target);
        assert!(rmse < 0.03, "annealed rmse {rmse}");
    }

    #[test]
    fn fixed_point_agrees_with_annealing() {
        let (model, samples) = trained_model(2);
        let mut rng = StdRng::seed_from_u64(10);
        let cfg = AnnealConfig::default();
        let (annealed, _) =
            infer_dense(&model, &samples[1], &cfg, &mut rng, &mut RunCtx::default()).unwrap();
        let fp = infer_fixed_point(&model, &samples[1], 200).unwrap();
        for (a, f) in annealed.iter().zip(&fp) {
            assert!((a - f).abs() < 5e-3, "annealed {a} vs fixed point {f}");
        }
    }

    #[test]
    fn evaluation_report() {
        let (model, samples) = trained_model(3);
        let mut rng = StdRng::seed_from_u64(11);
        let report = evaluate(&model, &samples[..10], &AnnealConfig::default(), &mut rng).unwrap();
        assert_eq!(report.samples, 10);
        assert!(report.rmse < 0.05, "rmse {}", report.rmse);
        assert!(report.mean_latency_ns > 0.0);
        assert!(report.converged_fraction > 0.9);
    }

    #[test]
    fn empty_eval_rejected() {
        let (model, _) = trained_model(4);
        let mut rng = StdRng::seed_from_u64(0);
        assert!(matches!(
            evaluate(&model, &[], &AnnealConfig::default(), &mut rng),
            Err(CoreError::EmptyTrainingSet)
        ));
    }

    #[test]
    fn batch_inference_matches_truth_and_is_reproducible() {
        let (model, samples) = trained_model(6);
        let cfg = AnnealConfig::default();
        let a = infer_batch(&model, &samples[..8], &cfg, 42, &mut RunCtx::default()).unwrap();
        let b = infer_batch(&model, &samples[..8], &cfg, 42, &mut RunCtx::default()).unwrap();
        assert_eq!(a.len(), 8);
        for ((pa, ra), (pb, _)) in a.iter().zip(&b) {
            assert_eq!(pa, pb, "same master seed must reproduce bits");
            assert!(ra.converged);
        }
        for ((pred, _), s) in a.iter().zip(&samples[..8]) {
            let rmse = crate::metrics::rmse(pred, &s.target);
            assert!(rmse < 0.05, "batch rmse {rmse}");
        }
        // A different master seed draws different annealing noise.
        let c = infer_batch(&model, &samples[..8], &cfg, 43, &mut RunCtx::default()).unwrap();
        assert!(a.iter().zip(&c).any(|((pa, _), (pc, _))| pa != pc));
    }

    #[test]
    fn batch_evaluation_report() {
        let (model, samples) = trained_model(7);
        let (cfg, eval) = (AnnealConfig::default(), &samples[..10]);
        let report = evaluate_batch(&model, eval, &cfg, 1, &mut RunCtx::default()).unwrap();
        assert_eq!(report.samples, 10);
        assert!(report.rmse < 0.05, "rmse {}", report.rmse);
        assert!(report.converged_fraction > 0.9);
        let again = evaluate_batch(&model, eval, &cfg, 1, &mut RunCtx::default()).unwrap();
        assert_eq!(report, again, "evaluation must be deterministic");
    }

    #[test]
    fn empty_batch_rejected() {
        let (model, _) = trained_model(8);
        assert!(matches!(
            infer_batch(&model, &[], &AnnealConfig::default(), 0, &mut RunCtx::default()),
            Err(CoreError::EmptyTrainingSet)
        ));
    }

    #[test]
    fn warm_batch_matches_cold_within_tolerance_and_saves_steps() {
        let (model, samples) = trained_model(9);
        let cfg = AnnealConfig::default();
        let cold = warm_batch(&model, &samples[..12], &cfg, 3, WarmStart::Cold).unwrap();
        let warm =
            warm_batch(&model, &samples[..12], &cfg, 3, WarmStart::Chained { chunk: 6 }).unwrap();
        let cold_steps: usize = cold.iter().map(|(_, r)| r.steps).sum();
        let warm_steps: usize = warm.iter().map(|(_, r)| r.steps).sum();
        for ((pc, _), (pw, rw)) in cold.iter().zip(&warm) {
            assert!(rw.converged);
            let diff = crate::metrics::rmse(pc, pw);
            assert!(diff < 1e-3, "warm vs cold prediction diff {diff}");
        }
        assert!(
            warm_steps < cold_steps,
            "warm start should save steps: {warm_steps} vs {cold_steps}"
        );
        // First window of each chunk starts cold, so it matches exactly.
        assert_eq!(cold[0].0, warm[0].0);
        assert_eq!(cold[6].0, warm[6].0);
    }

    #[test]
    fn warm_batch_deterministic_across_thread_counts() {
        let (model, samples) = trained_model(10);
        let cfg = AnnealConfig::default();
        let warm = WarmStart::Chained { chunk: 4 };
        let par = warm_batch(&model, &samples[..10], &cfg, 5, warm).unwrap();
        let ser = crate::Threading::Sequential
            .install(|| warm_batch(&model, &samples[..10], &cfg, 5, warm))
            .unwrap();
        for ((pp, rp), (ps, rs)) in par.iter().zip(&ser) {
            assert_eq!(pp, ps, "warm batch must be thread-count independent");
            assert_eq!(rp.steps, rs.steps);
        }
    }

    #[test]
    fn warm_chunk_zero_means_one_chain() {
        let (model, samples) = trained_model(11);
        let (cfg, six) = (AnnealConfig::default(), &samples[..6]);
        let chain = |chunk| warm_batch(&model, six, &cfg, 2, WarmStart::Chained { chunk });
        let (a, b) = (chain(0).unwrap(), chain(6).unwrap());
        for ((pa, _), (pb, _)) in a.iter().zip(&b) {
            assert_eq!(pa, pb);
        }
    }

    #[test]
    fn warm_evaluate_close_to_cold() {
        let (model, samples) = trained_model(12);
        let cfg = AnnealConfig::default();
        let cold = evaluate_batch(&model, &samples[..10], &cfg, 4, &mut RunCtx::default()).unwrap();
        let mut ctx = RunCtx {
            warm: WarmStart::Chained { chunk: 5 },
            ..RunCtx::default()
        };
        let warm = evaluate_batch(&model, &samples[..10], &cfg, 4, &mut ctx).unwrap();
        assert_eq!(warm.samples, 10);
        assert!((warm.rmse - cold.rmse).abs() < 1e-3);
        assert!(warm.converged_fraction > 0.9);
    }

    /// Hand-built community model: 48 free targets in three blocks of
    /// 16 with strong intra-block couplings, weak bridges, and a
    /// persistence coupling to the clamped history frame. Trained
    /// models on tiny layouts never give the coarsener anything to
    /// grab, so the multigrid tests construct the structure directly.
    pub(crate) fn community_model(seed: u64) -> (DsGlModel, Vec<Sample>) {
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
        let samples: Vec<Sample> = (0..8)
            .map(|_| {
                let hist: Vec<f64> = (0..n).map(|_| rng.random::<f64>() * 0.8 - 0.4).collect();
                let target = vec![0.0; n];
                Sample {
                    history: hist,
                    target,
                }
            })
            .collect();
        (model, samples)
    }

    #[test]
    fn multigrid_batch_matches_cold_and_saves_steps() {
        let (model, samples) = community_model(20);
        let cfg = AnnealConfig::default();
        let cold = warm_batch(&model, &samples, &cfg, 6, WarmStart::Cold).unwrap();
        let mg = warm_batch(
            &model,
            &samples,
            &cfg,
            6,
            WarmStart::Multigrid {
                levels: 1,
                coarse_tol: 1e-3,
            },
        )
        .unwrap();
        let cold_steps: usize = cold.iter().map(|(_, r)| r.steps).sum();
        let mg_steps: usize = mg.iter().map(|(_, r)| r.steps).sum();
        for ((pc, _), (pm, rm)) in cold.iter().zip(&mg) {
            assert!(rm.converged);
            let diff = crate::metrics::rmse(pc, pm);
            assert!(diff < 5e-3, "multigrid vs cold prediction diff {diff}");
        }
        assert!(
            mg_steps < cold_steps,
            "multigrid warm start should save fine steps: {mg_steps} vs {cold_steps}"
        );
    }

    #[test]
    fn multigrid_batch_is_bit_deterministic() {
        let (model, samples) = community_model(21);
        let cfg = AnnealConfig::default();
        let warm = WarmStart::Multigrid {
            levels: 2,
            coarse_tol: 1e-3,
        };
        let a = warm_batch(&model, &samples, &cfg, 9, warm).unwrap();
        let b = warm_batch(&model, &samples, &cfg, 9, warm).unwrap();
        let ser = crate::Threading::Sequential
            .install(|| warm_batch(&model, &samples, &cfg, 9, warm))
            .unwrap();
        for (((pa, ra), (pb, _)), (ps, rs)) in a.iter().zip(&b).zip(&ser) {
            assert_eq!(pa, pb, "multigrid rerun must reproduce bits");
            assert_eq!(pa, ps, "multigrid must be thread-count independent");
            assert_eq!(ra.steps, rs.steps);
        }
    }

    #[test]
    fn multigrid_on_tiny_model_falls_back_to_cold_bits() {
        // n = 3 free nodes is far below the coarsening floor, so the
        // warm start must silently decline and leave every bit of the
        // cold path untouched.
        let (model, samples) = trained_model(22);
        let cfg = AnnealConfig::default();
        let cold = warm_batch(&model, &samples[..6], &cfg, 13, WarmStart::Cold).unwrap();
        let mg = warm_batch(
            &model,
            &samples[..6],
            &cfg,
            13,
            WarmStart::Multigrid {
                levels: 1,
                coarse_tol: 1e-3,
            },
        )
        .unwrap();
        for ((pc, rc), (pm, rm)) in cold.iter().zip(&mg) {
            assert_eq!(pc, pm, "fallback must be bit-identical to cold");
            assert_eq!(rc.steps, rm.steps);
        }
    }

    #[test]
    fn multigrid_batch_records_mg_instruments() {
        let (model, samples) = community_model(23);
        let cfg = AnnealConfig::default();
        let sink = TelemetrySink::enabled();
        let mut ctx = RunCtx {
            sink: &sink,
            warm: WarmStart::Multigrid {
                levels: 1,
                coarse_tol: 1e-3,
            },
            ..RunCtx::default()
        };
        let mg = infer_batch(&model, &samples, &cfg, 6, &mut ctx).unwrap();
        assert_eq!(mg.len(), samples.len());
        let snap = sink.snapshot();
        let levels = snap
            .get(dsgl_ising::multigrid::instruments::LEVELS)
            .expect("mg.levels recorded");
        assert_eq!(levels.count as usize, samples.len());
        assert!(levels.sum > 0.0, "at least one level per window");
        assert!(
            snap.counter(dsgl_ising::multigrid::instruments::COARSE_STEPS) > 0,
            "coarse solves should run"
        );
        assert!(
            snap.counter(dsgl_ising::multigrid::instruments::PROLONGATIONS) > 0,
            "prolongations should run"
        );
        assert!(
            snap.counter(dsgl_ising::multigrid::instruments::FINE_STEPS_SAVED) > 0,
            "warm fine solves should come in under budget"
        );
        // The instrumented path reports the same bits as the plain one.
        let plain = warm_batch(
            &model,
            &samples,
            &cfg,
            6,
            WarmStart::Multigrid {
                levels: 1,
                coarse_tol: 1e-3,
            },
        )
        .unwrap();
        for ((pi, _), (pp, _)) in mg.iter().zip(&plain) {
            assert_eq!(pi, pp, "telemetry must not change inference bits");
        }
    }

    #[test]
    fn latency_reflects_budget() {
        let (model, samples) = trained_model(5);
        let mut rng = StdRng::seed_from_u64(12);
        let mut cfg = AnnealConfig::with_budget(5.0);
        cfg.tolerance = 0.0; // never converge early
        let (_, report) =
            infer_dense(&model, &samples[0], &cfg, &mut rng, &mut RunCtx::default()).unwrap();
        assert!((report.sim_time_ns - 5.0).abs() < cfg.dt_ns + 1e-9);
    }
}
