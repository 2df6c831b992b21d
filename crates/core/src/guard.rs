//! Guarded annealing: detect bad runs, retry with escalating
//! mitigation, degrade gracefully instead of crashing.
//!
//! A production inference service cannot assume every annealing run is
//! healthy: injected hardware faults (see `dsgl_ising::fault`), an
//! integrator timestep past the Euler stability limit, or a starved
//! time budget all yield runs whose output is NaN, railed garbage, or
//! simply unconverged. [`GuardedAnneal`] wraps a run with three checks —
//! non-finite state, rail saturation of the free block, non-convergence
//! at budget — and on failure retries from the (sanitised) initial
//! state with an escalating mitigation ladder:
//!
//! 1. **halve `dt`** — fixes Euler instability, the most common cause;
//! 2. **strict fallback** — drops the event-driven adaptive engine for
//!    the bit-exact fixed-schedule integrator (or halves `dt` again if
//!    the run was already strict);
//! 3. **re-randomised restart** — redraws the free block, escaping a
//!    pathological initialisation.
//!
//! Each retry also stretches the time budget by the policy's backoff
//! factor. Every attempt is recorded in a [`HealthReport`]; when the
//! retry budget is exhausted the final state is sanitised (non-finite →
//! 0 V) and the report is marked **degraded** — callers always receive
//! finite output plus an honest account of how it was produced.
//!
//! The guard is free on healthy runs: a first attempt that passes all
//! checks consumes the RNG exactly like an unguarded run, so fault-free
//! guarded inference is bit-identical to today's strict results (locked
//! in by `tests/determinism.rs` and `tests/properties.rs`).

use crate::error::CoreError;
use crate::inference::{Finish, RunCtx};
use crate::model::DsGlModel;
use crate::telemetry::TelemetrySink;
use dsgl_data::Sample;
use dsgl_ising::fault::FaultModel;
use dsgl_ising::{AnnealConfig, AnnealReport, EngineMode, RealValuedDspu};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Bounds on the retry loop.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Maximum retries after the first attempt (0 = fail fast).
    pub max_retries: usize,
    /// Time-budget multiplier applied on each retry (≥ 1 stretches the
    /// annealing budget so a slow-but-sound run can finish).
    pub backoff: f64,
}

impl Default for RetryPolicy {
    /// Three retries — one per mitigation rung — with a 2× budget
    /// stretch per retry.
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            backoff: 2.0,
        }
    }
}

/// Why an attempt was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FailureCause {
    /// The state contains NaN or ±∞ (fault injection, or an integrator
    /// blow-up past the rails' reach).
    NonFiniteState,
    /// The run missed the budget with most of the free block pinned at
    /// the rails — the signature of Euler instability, where voltages
    /// oscillate rail-to-rail instead of settling.
    RailSaturation,
    /// The run missed the budget without saturating: the dynamics are
    /// sound but too slow for the allotted time.
    NonConvergence,
    /// A supervisor fired the machine's
    /// [`CancelToken`](dsgl_ising::CancelToken) mid-run (watchdog on a
    /// hung anneal). The guard gives up immediately — tokens latch, so
    /// a retry would be cancelled on its first step too — and returns a
    /// sanitised, degraded result for the caller to replace (requeue or
    /// fallback).
    Cancelled,
}

/// What the guard changed before the next attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Mitigation {
    /// Halved the integrator timestep.
    HalveDt,
    /// Fell back from the adaptive engine to the strict integrator.
    StrictFallback,
    /// Re-randomised the free block (consumes extra RNG draws).
    Rerandomize,
}

/// One rejected attempt, as recorded in a [`HealthReport`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Attempt {
    /// Why the attempt was rejected.
    pub cause: FailureCause,
    /// The mitigation applied before the next attempt (`None` when the
    /// retry budget was already exhausted).
    pub mitigation: Option<Mitigation>,
    /// Timestep the rejected attempt ran at, ns.
    pub dt_ns: f64,
    /// Time budget the rejected attempt ran under, ns.
    pub budget_ns: f64,
}

/// Health account of one guarded annealing run.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct HealthReport {
    /// Every rejected attempt, in order. Empty = clean first attempt.
    pub attempts: Vec<Attempt>,
    /// Retries consumed (`attempts.len()` capped by the policy).
    pub retries: usize,
    /// `true` when the returned state was produced by degradation — the
    /// retry budget ran out and non-finite values were forced to 0 V,
    /// or (at the facade level) faulted hardware outputs were re-clamped
    /// to fallback values — rather than by a healthy annealing run.
    pub degraded: bool,
    /// Non-finite state entries replaced across restarts and the final
    /// sanitisation pass.
    pub sanitized_nodes: usize,
    /// Output entries re-clamped to fallback values because their
    /// hardware resource is faulted (filled in by the mapped facade).
    pub fault_clamped: usize,
    /// Integration steps of the accepted (or final, when degraded)
    /// annealing attempt — the per-window cost metric.
    #[serde(default)]
    pub anneal_steps: usize,
    /// Simulated time of the accepted (or final) attempt in ns — the
    /// per-window latency metric.
    #[serde(default)]
    pub anneal_sim_time_ns: f64,
    /// `true` when the run was stopped by a supervisor's
    /// [`CancelToken`](dsgl_ising::CancelToken) rather than finishing
    /// on its own. Always paired with `degraded`: the returned state is
    /// whatever the integrator had reached, sanitised. Serving layers
    /// use this to tell "replace me" (requeue/fallback) apart from an
    /// ordinary degraded-but-final answer.
    #[serde(default)]
    pub cancelled: bool,
    /// Trace id of the [`TraceScope`](crate::tracing::TraceScope)
    /// attached to the machine that produced this run, 0 when tracing
    /// was off. Correlates a served response's health account with its
    /// span tree in the collector (the serving layer stamps the
    /// *primary* request's trace id on coalesced riders, since their
    /// answer came from that request's anneal).
    #[serde(default)]
    pub trace_id: u64,
}

impl HealthReport {
    /// Whether the run was clean: first attempt accepted, nothing
    /// degraded or patched.
    pub fn healthy(&self) -> bool {
        self.attempts.is_empty() && !self.degraded && self.fault_clamped == 0
    }
}

/// An [`AnnealConfig`] wrapped with health checks and a retry ladder.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GuardedAnneal {
    /// The annealing configuration of the first attempt.
    pub anneal: AnnealConfig,
    /// Retry bounds and budget backoff.
    pub policy: RetryPolicy,
    /// Fraction of free nodes pinned at the rails above which a failed
    /// run is diagnosed as [`FailureCause::RailSaturation`] rather than
    /// plain non-convergence.
    pub saturation_limit: f64,
    /// Maximum instantaneous equilibrium residual (rail fractions per
    /// ns, see [`RealValuedDspu::max_free_rate`]) accepted from a run
    /// that *reports* convergence. The in-run rate check compares states
    /// a whole check window apart, so an even-period rail-to-rail
    /// oscillation — the signature of Euler instability — can alias to
    /// a zero rate and report converged; the residual is large at every
    /// point of such a cycle and exposes it. Legitimately railed
    /// equilibria pass: outward drive held by a rail counts as zero
    /// residual.
    pub residual_limit: f64,
}

impl GuardedAnneal {
    /// Guards `anneal` with the default policy, a 0.9 saturation limit,
    /// and a 1e-3 rail/ns residual limit (three orders of magnitude
    /// above the default convergence tolerance, but far below the
    /// residual of a rail-to-rail limit cycle).
    pub fn new(anneal: AnnealConfig) -> Self {
        GuardedAnneal {
            anneal,
            policy: RetryPolicy::default(),
            saturation_limit: 0.9,
            residual_limit: 1e-3,
        }
    }

    /// Replaces the retry policy.
    pub fn with_policy(mut self, policy: RetryPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Diagnoses the machine state after a run, `None` = healthy.
    /// (`&mut` only because the residual probe reuses the machine's
    /// pooled mat-vec buffer; observable state is untouched.)
    fn diagnose(&self, dspu: &mut RealValuedDspu, report: &AnnealReport) -> Option<FailureCause> {
        if dspu.state().iter().any(|v| !v.is_finite()) {
            return Some(FailureCause::NonFiniteState);
        }
        if report.converged && dspu.max_free_rate() <= self.residual_limit {
            return None;
        }
        let rail = dspu.rail();
        let (mut free, mut railed) = (0usize, 0usize);
        for (v, &is_free) in dspu.state().iter().zip(dspu.free_mask()) {
            if is_free {
                free += 1;
                if v.abs() >= rail {
                    railed += 1;
                }
            }
        }
        if free > 0 && railed as f64 / free as f64 > self.saturation_limit {
            Some(FailureCause::RailSaturation)
        } else {
            Some(FailureCause::NonConvergence)
        }
    }

    /// Runs guarded annealing on a prepared machine (inputs clamped,
    /// free block initialised, faults injected if any).
    ///
    /// A healthy first attempt consumes `rng` exactly like
    /// `dspu.run(&self.anneal, rng)` — the guard adds no draws — so
    /// fault-free guarded results are bit-identical to unguarded ones.
    /// On failure the machine is restored to its (sanitised) starting
    /// state and re-run under the next mitigation; after the last
    /// allowed retry fails, the final state is sanitised in place and
    /// the report comes back `degraded`. The returned state is always
    /// finite.
    pub fn run<R: Rng + ?Sized>(
        &self,
        dspu: &mut RealValuedDspu,
        rng: &mut R,
    ) -> (AnnealReport, HealthReport) {
        let mut initial = dspu.state().to_vec();
        for v in &mut initial {
            if !v.is_finite() {
                *v = 0.0; // last-known-good for a garbage readout
            }
        }
        let mut config = self.anneal;
        let mut health = HealthReport {
            trace_id: dspu.tracing().trace_id(),
            ..HealthReport::default()
        };
        loop {
            let attempt_start = dspu.tracing().start();
            let report = dspu.run(&config, rng);
            if dspu.cancel_requested() {
                // Tokens latch, so retrying under a fired token would
                // just burn attempts at zero steps each: give up now,
                // honestly flagged. The caller owns replacement policy.
                health.attempts.push(Attempt {
                    cause: FailureCause::Cancelled,
                    mitigation: None,
                    dt_ns: config.dt_ns,
                    budget_ns: config.max_time_ns,
                });
                health.cancelled = true;
                health.degraded = true;
                health.sanitized_nodes += dspu.sanitize(0.0);
                health.anneal_steps = report.steps;
                health.anneal_sim_time_ns = report.sim_time_ns;
                record_guard_metrics(dspu.telemetry(), &health);
                record_retry_span(dspu, attempt_start, &health);
                return (report, health);
            }
            let Some(cause) = self.diagnose(dspu, &report) else {
                health.anneal_steps = report.steps;
                health.anneal_sim_time_ns = report.sim_time_ns;
                record_guard_metrics(dspu.telemetry(), &health);
                return (report, health);
            };
            let out_of_retries = health.retries >= self.policy.max_retries;
            let mitigation = if out_of_retries {
                None
            } else {
                Some(match health.retries {
                    0 => Mitigation::HalveDt,
                    1 if matches!(config.mode, EngineMode::Adaptive { .. }) => {
                        Mitigation::StrictFallback
                    }
                    1 => Mitigation::HalveDt,
                    _ => Mitigation::Rerandomize,
                })
            };
            health.attempts.push(Attempt {
                cause,
                mitigation,
                dt_ns: config.dt_ns,
                budget_ns: config.max_time_ns,
            });
            record_retry_span(dspu, attempt_start, &health);
            let Some(mitigation) = mitigation else {
                health.degraded = true;
                health.sanitized_nodes += dspu.sanitize(0.0);
                health.anneal_steps = report.steps;
                health.anneal_sim_time_ns = report.sim_time_ns;
                record_guard_metrics(dspu.telemetry(), &health);
                return (report, health);
            };
            health.retries += 1;
            health.sanitized_nodes += dspu
                .state()
                .iter()
                .filter(|v| !v.is_finite())
                .count();
            // Restore the sanitised starting state; the free mask is
            // untouched by runs, so clamped and stuck nodes stay put.
            dspu.set_state(&initial)
                .expect("sanitised initial state is finite");
            match mitigation {
                Mitigation::HalveDt => config.dt_ns *= 0.5,
                Mitigation::StrictFallback => config.mode = EngineMode::Strict,
                Mitigation::Rerandomize => dspu.randomize_free(rng),
            }
            config.max_time_ns *= self.policy.backoff.max(1.0);
        }
    }
}

/// Records the `guard.*` instrument family for one completed guarded
/// run. Free when the sink is disabled (single branch, no allocation).
fn record_guard_metrics(sink: &TelemetrySink, health: &HealthReport) {
    if !sink.is_enabled() {
        return;
    }
    sink.counter_add("guard.runs", 1);
    sink.counter_add("guard.attempts", health.retries as u64 + 1);
    sink.counter_add("guard.retries", health.retries as u64);
    for attempt in &health.attempts {
        let name = match attempt.mitigation {
            Some(Mitigation::HalveDt) => "guard.retries.halve_dt",
            Some(Mitigation::StrictFallback) => "guard.retries.strict_fallback",
            Some(Mitigation::Rerandomize) => "guard.retries.rerandomize",
            None => continue,
        };
        sink.counter_add(name, 1);
    }
    if health.degraded {
        sink.counter_add("guard.degraded_runs", 1);
    }
    if health.cancelled {
        sink.counter_add("guard.cancelled_runs", 1);
    }
    sink.counter_add("guard.sanitized_nodes", health.sanitized_nodes as u64);
}

/// Records one `guard.retry` span for the latest rejected attempt in
/// `health`, into the machine's tracing scope. Called only after the
/// attempt's dynamics finished; a noop scope makes this a single branch
/// (the `start` is already `None`).
fn record_retry_span(
    dspu: &RealValuedDspu,
    start: Option<std::time::Instant>,
    health: &HealthReport,
) {
    let Some(attempt) = health.attempts.last() else {
        return;
    };
    dspu.tracing().record(
        "guard.retry",
        start,
        &[
            ("attempt", health.attempts.len() as f64),
            ("cause", cause_code(attempt.cause)),
            ("dt_ns", attempt.dt_ns),
            ("budget_ns", attempt.budget_ns),
        ],
    );
}

/// Stable numeric code of a [`FailureCause`] for span args (span args
/// are numeric by design).
fn cause_code(cause: FailureCause) -> f64 {
    match cause {
        FailureCause::NonFiniteState => 1.0,
        FailureCause::RailSaturation => 2.0,
        FailureCause::NonConvergence => 3.0,
        FailureCause::Cancelled => 4.0,
    }
}

impl Finish for GuardedAnneal {
    type Extra = HealthReport;

    fn config(&self) -> &AnnealConfig {
        &self.anneal
    }

    fn run<R: Rng + ?Sized>(
        &self,
        dspu: &mut RealValuedDspu,
        rng: &mut R,
    ) -> (AnnealReport, HealthReport) {
        GuardedAnneal::run(self, dspu, rng)
    }
}

/// Guarded counterpart of [`crate::inference::infer_dense`]: clamp
/// history, apply `ctx`, anneal under the guard, read the target block.
/// The prediction is always finite; consult the [`HealthReport`] for
/// how it was obtained. A healthy first attempt consumes `rng` exactly
/// like the unguarded call, so fault-free results are bit-identical.
///
/// # Errors
///
/// Returns shape mismatches, invalid parameters, fault-model validation
/// errors, and a [`CoreError::SampleShapeMismatch`] when `ctx` carries
/// more than one trace scope.
pub fn infer_dense_guarded<R: Rng + ?Sized>(
    model: &DsGlModel,
    sample: &Sample,
    guard: &GuardedAnneal,
    rng: &mut R,
    ctx: &mut RunCtx<'_>,
) -> Result<(Vec<f64>, AnnealReport, HealthReport), CoreError> {
    ctx.check_scopes(1)?;
    crate::inference::solve_window(model, sample, guard, ctx, 0, None, rng)
}

/// Guarded counterpart of [`crate::inference::infer_batch`] with one
/// seed per window — the serving-layer entry point behind `dsgl-serve`'s
/// request coalescing.
///
/// Window `i` anneals under the RNG `window_seed(seeds[i], 0)` with
/// `ctx`'s faults and warm start applied, so it is a pure function of
/// `(model, sample, guard, ctx.faults, ctx.warm, seeds[i])`: grouping
/// requests into one call can never change an output bit relative to
/// running them one at a time, under any [`crate::Threading`] policy.
/// Master-seeded callers pass [`batch_seeds`](crate::inference::batch_seeds)`(master, n)`,
/// which reproduces the unguarded batch under `master` bit for bit
/// wherever the guard never fires. [`WarmStart::Chained`](crate::WarmStart::Chained)
/// runs cold.
///
/// Batches of up to eight windows run on the calling thread with the
/// caller's pool; larger batches split across the thread pool in fixed
/// chunks. `ctx`'s cancel token reaches every machine, so one token
/// cancels the whole batch: windows stopped mid-anneal come back
/// `cancelled` and `degraded`, windows that finished first keep their
/// results.
///
/// # Errors
///
/// Returns [`CoreError::EmptyTrainingSet`] for an empty batch, a
/// [`CoreError::SampleShapeMismatch`] when `seeds` (or a non-empty
/// `ctx.scopes`) disagrees with `samples` in length, or the first
/// per-window shape/parameter error in sample order.
pub fn infer_batch_guarded(
    model: &DsGlModel,
    samples: &[Sample],
    guard: &GuardedAnneal,
    seeds: &[u64],
    ctx: &mut RunCtx<'_>,
) -> Result<Vec<(Vec<f64>, AnnealReport, HealthReport)>, CoreError> {
    crate::inference::drive_batch(model, samples, guard, seeds, ctx)
}

/// [`infer_batch_guarded`] with a fault model and a telemetry sink and
/// an otherwise default [`RunCtx`].
///
/// # Errors
///
/// See [`infer_batch_guarded`].
pub fn infer_batch_guarded_seeded_instrumented(
    model: &DsGlModel,
    samples: &[Sample],
    guard: &GuardedAnneal,
    seeds: &[u64],
    faults: &FaultModel,
    sink: &TelemetrySink,
) -> Result<Vec<(Vec<f64>, AnnealReport, HealthReport)>, CoreError> {
    infer_batch_guarded(
        model,
        samples,
        guard,
        seeds,
        &mut RunCtx {
            sink,
            faults,
            ..RunCtx::default()
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inference::{batch_seeds, infer_batch, infer_dense, machine_for_sample, WarmStart};
    use crate::model::VariableLayout;
    use dsgl_ising::fault::StuckNode;
    use dsgl_ising::Coupling;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn linear_model(n: usize) -> (DsGlModel, Sample) {
        let layout = VariableLayout::new(1, n, 1);
        let mut model = DsGlModel::new(layout);
        model.init_persistence(0.6);
        let sample = Sample {
            history: (0..n).map(|i| 0.1 + 0.05 * i as f64).collect(),
            target: vec![0.0; n],
        };
        (model, sample)
    }

    /// A hand-built machine whose Euler dynamics are unstable at the
    /// given `dt` but stable at `dt/2`: two free nodes coupled at 1.5
    /// with `h = -2`, `C = 100` ⇒ stiffest eigenvalue 3.5/100, Euler
    /// stability bound `dt < 2·100/3.5 ≈ 57 ns`.
    fn stiff_machine(seed: u64) -> RealValuedDspu {
        let mut j = Coupling::zeros(3);
        j.set(0, 1, 1.0);
        j.set(1, 2, 1.5);
        let mut d = RealValuedDspu::new(j, vec![-2.0; 3]).unwrap();
        d.clamp(0, 0.8).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        d.randomize_free(&mut rng);
        d
    }

    #[test]
    fn healthy_run_is_bit_identical_to_unguarded() {
        let (model, sample) = linear_model(4);
        let guard = GuardedAnneal::new(AnnealConfig::default());
        let guarded = {
            let mut rng = StdRng::seed_from_u64(7);
            let (pred, report, health) =
                infer_dense_guarded(&model, &sample, &guard, &mut rng, &mut RunCtx::default())
                    .unwrap();
            assert!(health.healthy(), "health: {health:?}");
            // Identical RNG consumption: the next draw matches too.
            (pred, report, rng.random::<f64>())
        };
        let unguarded = {
            let mut rng = StdRng::seed_from_u64(7);
            let cfg = AnnealConfig::default();
            let (pred, report) =
                infer_dense(&model, &sample, &cfg, &mut rng, &mut RunCtx::default()).unwrap();
            (pred, report, rng.random::<f64>())
        };
        assert_eq!(guarded.0, unguarded.0, "predictions must match bitwise");
        assert_eq!(guarded.1, unguarded.1, "reports must match");
        assert_eq!(guarded.2, unguarded.2, "RNG stream must stay in sync");
    }

    #[test]
    fn recovers_from_injected_nan() {
        // Fault scenario 1: a stuck-at-NaN node contaminates the run;
        // the guard sanitises and retries to a finite answer.
        let (model, sample) = linear_model(4);
        let guard = GuardedAnneal::new(AnnealConfig::default());
        let faults = FaultModel {
            stuck_nodes: vec![StuckNode {
                idx: model.layout().history_len(), // first target node
                value: f64::NAN,
            }],
            ..FaultModel::none()
        };
        let mut rng = StdRng::seed_from_u64(3);
        let mut ctx = RunCtx {
            faults: &faults,
            ..RunCtx::default()
        };
        let (pred, _, health) =
            infer_dense_guarded(&model, &sample, &guard, &mut rng, &mut ctx).unwrap();
        assert!(pred.iter().all(|p| p.is_finite()), "prediction: {pred:?}");
        assert!(!health.attempts.is_empty(), "guard must have fired");
        assert_eq!(health.attempts[0].cause, FailureCause::NonFiniteState);
        assert!(health.sanitized_nodes > 0);
    }

    #[test]
    fn recovers_from_euler_instability_by_halving_dt() {
        // Fault scenario 2: dt past the stability bound rails the free
        // block; one HalveDt retry brings it under the bound.
        let mut d = stiff_machine(5);
        let config = AnnealConfig {
            dt_ns: 80.0,
            max_time_ns: 4_000.0,
            ..AnnealConfig::default()
        };
        // Unguarded, dt=80 falls into a period-2 rail-to-rail limit
        // cycle. Worse, the 10-step check window aliases the even-period
        // oscillation to a zero rate, so the run *claims* convergence —
        // the instantaneous residual is what exposes the lie.
        let mut probe = d.clone();
        let mut rng = StdRng::seed_from_u64(6);
        let unguarded = probe.run(&config, &mut rng);
        assert!(
            !unguarded.converged || probe.max_free_rate() > 1e-3,
            "dt=80 must be unstable here: residual {}",
            probe.max_free_rate()
        );
        // Guarded, it recovers.
        let guard = GuardedAnneal::new(config);
        let mut rng = StdRng::seed_from_u64(6);
        let (report, health) = guard.run(&mut d, &mut rng);
        assert!(report.converged, "guard must recover: {health:?}");
        assert!(!health.degraded);
        assert!(health.retries >= 1);
        assert_eq!(
            health.attempts[0].mitigation,
            Some(Mitigation::HalveDt)
        );
        // Fixed point: σ1 = (1.0·0.8 + 1.5·σ2)/2, σ2 = 1.5·σ1/2.
        let s1 = 0.4 / (1.0 - 1.5 * 1.5 / 4.0);
        assert!((d.state()[1] - s1).abs() < 1e-2, "σ1 = {}", d.state()[1]);
    }

    #[test]
    fn degrades_gracefully_when_retries_exhausted() {
        // Fault scenario 3: a permanently-stuck NaN that re-contaminates
        // every retry. The guard must exhaust its budget, sanitise, and
        // return finite output flagged degraded.
        let mut j = Coupling::zeros(3);
        j.set(0, 1, 0.5);
        j.set(1, 2, 0.5);
        let mut d = RealValuedDspu::new(j, vec![-1.5; 3]).unwrap();
        d.clamp(0, 0.6).unwrap();
        let faults = FaultModel {
            stuck_nodes: vec![StuckNode {
                idx: 2,
                value: f64::NAN,
            }],
            ..FaultModel::none()
        };
        let mut rng = StdRng::seed_from_u64(8);
        d.randomize_free(&mut rng);
        d.inject_faults(&faults, &mut rng).unwrap();
        // The restart state sanitises node 2 to 0.0, but the stuck node
        // is not free, so it stays 0.0 after restore — retries then
        // actually succeed. To force exhaustion, forbid retries.
        let guard = GuardedAnneal::new(AnnealConfig::default()).with_policy(RetryPolicy {
            max_retries: 0,
            backoff: 1.0,
        });
        let (report, health) = guard.run(&mut d, &mut rng);
        assert!(health.degraded, "health: {health:?}");
        assert_eq!(health.retries, 0);
        assert_eq!(health.attempts.len(), 1);
        assert_eq!(health.attempts[0].mitigation, None);
        assert!(d.state().iter().all(|v| v.is_finite()), "output sanitised");
        assert!(health.sanitized_nodes > 0);
        let _ = report;
    }

    #[test]
    fn slow_run_diagnosed_as_nonconvergence_and_backoff_extends_budget() {
        let (model, sample) = linear_model(4);
        let mut rng = StdRng::seed_from_u64(9);
        let mut d = machine_for_sample(&model, &sample, &mut rng).unwrap();
        // A budget far too small to converge, backoff 4× per retry.
        let guard = GuardedAnneal::new(AnnealConfig::with_budget(20.0)).with_policy(RetryPolicy {
            max_retries: 4,
            backoff: 4.0,
        });
        let (report, health) = guard.run(&mut d, &mut rng);
        assert!(report.converged, "backoff should rescue it: {health:?}");
        assert!(!health.degraded);
        assert!(health
            .attempts
            .iter()
            .all(|a| a.cause == FailureCause::NonConvergence));
        // Budgets grow monotonically across attempts.
        for w in health.attempts.windows(2) {
            assert!(w[1].budget_ns > w[0].budget_ns);
        }
    }

    #[test]
    fn adaptive_guard_falls_back_to_strict() {
        // Retry rung 2 on an adaptive config must switch to Strict.
        let mut d = stiff_machine(11);
        let config = AnnealConfig {
            dt_ns: 80.0,
            max_time_ns: 150.0, // also starved, so HalveDt alone fails
            mode: dsgl_ising::EngineMode::adaptive(),
            ..AnnealConfig::default()
        };
        let guard = GuardedAnneal::new(config);
        let mut rng = StdRng::seed_from_u64(12);
        let (_, health) = guard.run(&mut d, &mut rng);
        if health.retries >= 2 {
            assert_eq!(
                health.attempts[1].mitigation,
                Some(Mitigation::StrictFallback)
            );
        }
        assert!(d.state().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn unfired_cancel_token_is_bit_invisible() {
        let (model, sample) = linear_model(4);
        let guard = GuardedAnneal::new(AnnealConfig::default());
        let plain = {
            let mut rng = StdRng::seed_from_u64(21);
            infer_dense_guarded(&model, &sample, &guard, &mut rng, &mut RunCtx::default()).unwrap()
        };
        let supervised = {
            let mut rng = StdRng::seed_from_u64(21);
            let token = dsgl_ising::CancelToken::new();
            let mut ctx = RunCtx {
                cancel: Some(&token),
                ..RunCtx::default()
            };
            infer_dense_guarded(&model, &sample, &guard, &mut rng, &mut ctx).unwrap()
        };
        assert_eq!(plain.0, supervised.0, "prediction bits must match");
        assert_eq!(plain.1, supervised.1);
        assert_eq!(plain.2, supervised.2);
        assert!(plain.2.healthy());
    }

    #[test]
    fn fired_token_yields_cancelled_degraded_health_without_retries() {
        let (model, sample) = linear_model(4);
        let guard = GuardedAnneal::new(AnnealConfig::default());
        let token = dsgl_ising::CancelToken::new();
        token.cancel(); // pre-fired: the run stops at its first step
        let mut rng = StdRng::seed_from_u64(22);
        let mut ctx = RunCtx {
            cancel: Some(&token),
            ..RunCtx::default()
        };
        let (pred, report, health) =
            infer_dense_guarded(&model, &sample, &guard, &mut rng, &mut ctx).unwrap();
        assert!(health.cancelled, "health: {health:?}");
        assert!(health.degraded);
        assert!(!health.healthy());
        assert_eq!(health.retries, 0, "guard must not burn retries on a latched token");
        assert_eq!(health.attempts.len(), 1);
        assert_eq!(health.attempts[0].cause, FailureCause::Cancelled);
        assert_eq!(health.attempts[0].mitigation, None);
        assert!(!report.converged);
        assert_eq!(report.steps, 0, "latched token stops before the first step");
        assert!(pred.iter().all(|v| v.is_finite()), "output stays sanitised");
    }

    #[test]
    fn supervised_batch_with_unfired_token_matches_plain_batch() {
        let layout = VariableLayout::new(1, 4, 1);
        let mut model = DsGlModel::new(layout);
        model.init_persistence(0.65);
        let windows: Vec<Sample> = (0..6)
            .map(|i| Sample {
                history: vec![0.03 * i as f64; 4],
                target: vec![0.0; 4],
            })
            .collect();
        let seeds: Vec<u64> = (0..6).map(|i| 500 + 11 * i as u64).collect();
        let guard = GuardedAnneal::new(AnnealConfig::default());
        let plain =
            infer_batch_guarded(&model, &windows, &guard, &seeds, &mut RunCtx::default()).unwrap();
        let token = dsgl_ising::CancelToken::new();
        let mut ctx = RunCtx {
            cancel: Some(&token),
            ..RunCtx::default()
        };
        let supervised = infer_batch_guarded(&model, &windows, &guard, &seeds, &mut ctx).unwrap();
        for (k, ((pa, ra, ha), (pb, rb, hb))) in plain.iter().zip(&supervised).enumerate() {
            assert_eq!(pa, pb, "window {k} diverged under an unfired token");
            assert_eq!(ra, rb);
            assert_eq!(ha, hb);
        }
        // A pre-fired token marks every window cancelled.
        let fired = dsgl_ising::CancelToken::new();
        fired.cancel();
        let mut ctx = RunCtx {
            cancel: Some(&fired),
            ..RunCtx::default()
        };
        let cancelled = infer_batch_guarded(&model, &windows, &guard, &seeds, &mut ctx).unwrap();
        for (k, (_, _, h)) in cancelled.iter().enumerate() {
            assert!(h.cancelled, "window {k} must be cancelled: {h:?}");
        }
    }

    #[test]
    fn seeded_batch_is_bit_identical_to_single_window_batches() {
        let layout = VariableLayout::new(1, 4, 1);
        let mut model = DsGlModel::new(layout);
        model.init_persistence(0.65);
        let windows: Vec<Sample> = (0..12)
            .map(|i| Sample {
                history: vec![0.04 * i as f64; 4],
                target: vec![0.0; 4],
            })
            .collect();
        let seeds: Vec<u64> = (0..12).map(|i| 1000 + 37 * i as u64).collect();
        let guard = GuardedAnneal::new(AnnealConfig::default());
        let sink = TelemetrySink::noop();
        let coalesced = infer_batch_guarded_seeded_instrumented(
            &model,
            &windows,
            &guard,
            &seeds,
            &FaultModel::none(),
            &sink,
        )
        .unwrap();
        // The serial reference: each request executed alone, as a
        // single-window guarded batch under its own seed.
        for (k, ((pred, report, health), seed)) in coalesced.iter().zip(&seeds).enumerate() {
            let alone = infer_batch_guarded(
                &model,
                &windows[k..=k],
                &guard,
                &[*seed],
                &mut RunCtx::default(),
            )
            .unwrap();
            assert_eq!(pred, &alone[0].0, "window {k} diverged from serial run");
            assert_eq!(report, &alone[0].1);
            assert_eq!(health, &alone[0].2);
        }
        // A persistent caller pool never changes bits either.
        let mut ctx = RunCtx::default();
        let pooled = infer_batch_guarded(&model, &windows, &guard, &seeds, &mut ctx).unwrap();
        assert!(ctx.pool.is_some(), "pool must survive the call");
        for ((a, _, _), (b, _, _)) in coalesced.iter().zip(&pooled) {
            assert_eq!(a, b);
        }
        // Shape errors: seed list must match the batch.
        assert!(matches!(
            infer_batch_guarded_seeded_instrumented(
                &model,
                &windows,
                &guard,
                &seeds[..3],
                &FaultModel::none(),
                &sink,
            ),
            Err(CoreError::SampleShapeMismatch { .. })
        ));
        assert!(matches!(
            infer_batch_guarded_seeded_instrumented(
                &model,
                &[],
                &guard,
                &[],
                &FaultModel::none(),
                &sink,
            ),
            Err(CoreError::EmptyTrainingSet)
        ));
    }

    #[test]
    fn seeded_batch_injects_faults_per_window_deterministically() {
        let layout = VariableLayout::new(1, 4, 1);
        let mut model = DsGlModel::new(layout);
        model.init_persistence(0.6);
        let windows: Vec<Sample> = (0..4)
            .map(|i| Sample {
                history: vec![0.1 + 0.02 * i as f64; 4],
                target: vec![0.0; 4],
            })
            .collect();
        let seeds: Vec<u64> = (0..4).map(|i| 77 + i as u64).collect();
        let faults = FaultModel {
            stuck_nodes: vec![StuckNode {
                idx: model.layout().history_len(),
                value: f64::NAN,
            }],
            coupler_drift: 0.02,
            ..FaultModel::none()
        };
        let guard = GuardedAnneal::new(AnnealConfig::default()).with_policy(RetryPolicy {
            max_retries: 1,
            backoff: 1.0,
        });
        let sink = TelemetrySink::noop();
        let a = infer_batch_guarded_seeded_instrumented(
            &model, &windows, &guard, &seeds, &faults, &sink,
        )
        .unwrap();
        let b = infer_batch_guarded_seeded_instrumented(
            &model, &windows, &guard, &seeds, &faults, &sink,
        )
        .unwrap();
        for (k, ((pa, _, ha), (pb, _, hb))) in a.iter().zip(&b).enumerate() {
            assert!(pa.iter().all(|v| v.is_finite()), "window {k} not sanitised");
            assert_eq!(pa, pb, "faulted window {k} must be seed-deterministic");
            assert_eq!(ha, hb);
            assert!(!ha.healthy(), "NaN stuck node must show up in health");
        }
    }

    #[test]
    fn batch_guarded_matches_unguarded_batch() {
        let layout = VariableLayout::new(1, 3, 1);
        let mut model = DsGlModel::new(layout);
        model.init_persistence(0.7);
        let windows: Vec<Sample> = (0..6)
            .map(|i| Sample {
                history: vec![0.05 * i as f64; 3],
                target: vec![0.0; 3],
            })
            .collect();
        let guard = GuardedAnneal::new(AnnealConfig::default());
        let guarded = infer_batch_guarded(
            &model,
            &windows,
            &guard,
            &batch_seeds(13, 6),
            &mut RunCtx::default(),
        )
        .unwrap();
        let plain = infer_batch(
            &model,
            &windows,
            &AnnealConfig::default(),
            13,
            &mut RunCtx::default(),
        )
        .unwrap();
        assert_eq!(guarded.len(), plain.len());
        for ((gp, gr, gh), (pp, pr)) in guarded.iter().zip(&plain) {
            assert!(gh.healthy());
            assert_eq!(gp, pp, "fault-free guarded batch must match bitwise");
            assert_eq!(gr, pr);
        }
        assert!(matches!(
            infer_batch_guarded(&model, &[], &guard, &[], &mut RunCtx::default()),
            Err(CoreError::EmptyTrainingSet)
        ));
    }

    /// The inference tests' 48-node community model, cut to six windows.
    fn community_setup(seed: u64) -> (DsGlModel, Vec<Sample>) {
        let (model, mut windows) = crate::inference::tests::community_model(seed);
        windows.truncate(6);
        (model, windows)
    }

    #[test]
    fn guarded_multigrid_batch_matches_unguarded_multigrid() {
        // Fault-free guarded inference with a multigrid warm start must
        // stay a zero-cost wrapper: every prediction bit-identical to
        // the unguarded multigrid batch, with clean health.
        let (model, windows) = community_setup(31);
        let cfg = AnnealConfig::default();
        let guard = GuardedAnneal::new(cfg);
        let warm = || RunCtx {
            warm: WarmStart::Multigrid {
                levels: 1,
                coarse_tol: 1e-3,
            },
            ..RunCtx::default()
        };
        let seeds = batch_seeds(13, windows.len());
        let guarded = infer_batch_guarded(&model, &windows, &guard, &seeds, &mut warm()).unwrap();
        let plain = infer_batch(&model, &windows, &cfg, 13, &mut warm()).unwrap();
        assert_eq!(guarded.len(), plain.len());
        for ((gp, _, gh), (pp, _)) in guarded.iter().zip(&plain) {
            assert!(gh.healthy(), "guard fired on healthy hardware: {gh:?}");
            assert_eq!(gh.retries, 0);
            assert_eq!(gp, pp, "guarded multigrid batch must match bitwise");
        }
        // Reruns reproduce bits, including under sequential threading.
        let again = crate::Threading::Sequential
            .install(|| infer_batch_guarded(&model, &windows, &guard, &seeds, &mut warm()))
            .unwrap();
        for ((gp, _, _), (ap, _, _)) in guarded.iter().zip(&again) {
            assert_eq!(gp, ap, "guarded multigrid must be thread-count independent");
        }
    }

    #[test]
    fn guarded_chained_warm_start_is_treated_as_cold() {
        // Chained warm starts couple windows, which the guarded batch
        // cannot honour per-window; it must silently run cold rather
        // than produce order-dependent bits.
        let (model, windows) = community_setup(32);
        let cfg = AnnealConfig::default();
        let guard = GuardedAnneal::new(cfg);
        let seeds = batch_seeds(17, windows.len());
        let mut ctx = RunCtx {
            warm: WarmStart::Chained { chunk: 3 },
            ..RunCtx::default()
        };
        let chained = infer_batch_guarded(&model, &windows, &guard, &seeds, &mut ctx).unwrap();
        let cold =
            infer_batch_guarded(&model, &windows, &guard, &seeds, &mut RunCtx::default()).unwrap();
        for ((cp, _, _), (kp, _, _)) in chained.iter().zip(&cold) {
            assert_eq!(cp, kp, "chained must degrade to cold in the guarded batch");
        }
    }
}
