//! The Real-Valued DSPU: a dynamical system whose natural annealing
//! settles on real-valued solutions (paper Sec. III).

use crate::anneal::{AnnealConfig, AnnealReport, Integrator};
use crate::coupling::Coupling;
use crate::error::IsingError;
use crate::hamiltonian::rv_energy_from_matvec;
use crate::integrate::Nodes;
use crate::noise::NoiseModel;
use crate::sparse::SparseCoupling;
use crate::trace::Trace;
use crate::workspace::Workspace;
use rand::Rng;

/// A simulated Real-Valued Dynamical-System Processing Unit.
///
/// Every node is a capacitor voltage `σᵢ ∈ [-rail, +rail]`; couplings are
/// programmable resistors and each node carries a circulative resistor
/// ring of conductance `|hᵢ|` (the quadratic self-reaction). The machine
/// integrates
///
/// ```text
/// C · dσᵢ/dt = Σⱼ Jᵢⱼ σⱼ + hᵢ σᵢ        (hᵢ < 0)
/// ```
///
/// so the Hamiltonian `H_RV = -½σᵀJσ - ½Σhᵢσᵢ²` decreases monotonically
/// (Lyapunov) and free voltages stabilise at `σᵢ = -Σⱼ Jᵢⱼσⱼ / hᵢ`.
/// Observed graph nodes are *clamped* — the node-control unit holds their
/// capacitors at the observed voltage — and the rest anneal freely.
///
/// # Example
///
/// ```
/// use dsgl_ising::{Coupling, RealValuedDspu, AnnealConfig};
/// use rand::SeedableRng;
///
/// let mut j = Coupling::zeros(2);
/// j.set(0, 1, 0.5);
/// let mut dspu = RealValuedDspu::new(j, vec![-1.0, -1.0]).unwrap();
/// dspu.clamp(0, 0.6).unwrap();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let report = dspu.run(&AnnealConfig::default(), &mut rng);
/// assert!(report.converged);
/// // Fixed point: σ1 = -J01·σ0/h1 = 0.5·0.6 = 0.3.
/// assert!((dspu.state()[1] - 0.3).abs() < 1e-3);
/// ```
#[derive(Debug, Clone)]
pub struct RealValuedDspu {
    pub(crate) coupling: SparseCoupling,
    pub(crate) nodes: Nodes,
    pub(crate) telemetry: crate::telemetry::TelemetrySink,
    pub(crate) tracing: crate::tracing::TraceScope,
    pub(crate) cancel: Option<crate::cancel::CancelToken>,
}

impl RealValuedDspu {
    /// Builds a machine from a coupling matrix and self-reaction vector.
    ///
    /// # Errors
    ///
    /// Returns [`IsingError::DimensionMismatch`] when `h.len() != n`,
    /// [`IsingError::NonNegativeSelfReaction`] when any `hᵢ >= 0`, and
    /// [`IsingError::NonFinite`] for non-finite `h`.
    pub fn new(coupling: Coupling, h: Vec<f64>) -> Result<Self, IsingError> {
        Self::from_sparse(SparseCoupling::from_dense(&coupling), h)
    }

    /// Builds a machine directly from a sparse coupling — the
    /// constructor for large decomposed systems (100k+ nodes) where a
    /// dense [`Coupling`] would not fit in memory. Pair with
    /// [`SparseCoupling::from_entries`].
    ///
    /// # Errors
    ///
    /// Same contract as [`RealValuedDspu::new`]:
    /// [`IsingError::DimensionMismatch`] when `h.len() != coupling.n()`,
    /// [`IsingError::NonNegativeSelfReaction`] when any `hᵢ >= 0`, and
    /// [`IsingError::NonFinite`] for non-finite `h`.
    pub fn from_sparse(coupling: SparseCoupling, h: Vec<f64>) -> Result<Self, IsingError> {
        let n = coupling.n();
        if h.len() != n {
            return Err(IsingError::DimensionMismatch {
                what: "h",
                expected: n,
                actual: h.len(),
            });
        }
        if h.iter().any(|v| !v.is_finite()) {
            return Err(IsingError::NonFinite { what: "h" });
        }
        if let Some((node, &value)) = h.iter().enumerate().find(|(_, &v)| v >= 0.0) {
            return Err(IsingError::NonNegativeSelfReaction { node, value });
        }
        Ok(RealValuedDspu {
            coupling,
            nodes: Nodes::new(h),
            telemetry: crate::telemetry::TelemetrySink::noop(),
            tracing: crate::tracing::TraceScope::noop(),
            cancel: None,
        })
    }

    /// Attaches a telemetry sink: every subsequent annealing run reports
    /// its `anneal.*` instruments (steps, simulated time, residual,
    /// active-set occupancy, rail saturations) into it. The default
    /// [noop sink](crate::telemetry::TelemetrySink::noop) costs nothing
    /// and recording never perturbs machine state or RNG streams.
    pub fn set_telemetry(&mut self, sink: crate::telemetry::TelemetrySink) {
        self.telemetry = sink;
    }

    /// The attached telemetry sink (noop unless
    /// [`set_telemetry`](Self::set_telemetry) was called).
    pub fn telemetry(&self) -> &crate::telemetry::TelemetrySink {
        &self.telemetry
    }

    /// Attaches a tracing scope: every subsequent annealing run records
    /// one `anneal.{strict,adaptive}` span into the scope's
    /// [`SpanCollector`](crate::tracing::SpanCollector), carrying the
    /// step count and simulated time as args. Spans are recorded only
    /// after the dynamics finish, per the telemetry contract, so traced
    /// runs stay bit-identical; the default
    /// [noop scope](crate::tracing::TraceScope::noop) costs one branch.
    pub fn set_tracing(&mut self, scope: crate::tracing::TraceScope) {
        self.tracing = scope;
    }

    /// The attached tracing scope (noop unless
    /// [`set_tracing`](Self::set_tracing) was called).
    pub fn tracing(&self) -> &crate::tracing::TraceScope {
        &self.tracing
    }

    /// Attaches a cooperative cancellation token: every subsequent
    /// annealing run polls it once per integration step and stops early
    /// — with an unconverged report — once it fires. A token that never
    /// fires is bit-invisible (no state reads, no RNG draws, no
    /// allocation); without a token the check is a single `Option`
    /// branch.
    pub fn set_cancel(&mut self, token: crate::cancel::CancelToken) {
        self.cancel = Some(token);
    }

    /// Whether an attached [`CancelToken`](crate::cancel::CancelToken)
    /// has fired. `false` when no token is attached. Tokens latch, so
    /// after a cancelled run this keeps returning `true` — callers
    /// (e.g. `GuardedAnneal`) use it to tell a cancellation apart from
    /// an ordinary non-convergence.
    pub fn cancel_requested(&self) -> bool {
        self.cancel.as_ref().is_some_and(|t| t.is_cancelled())
    }

    /// Node capacitance in ns·Ω (the RC time constant at unit `|h|`).
    pub fn capacitance(&self) -> f64 {
        self.nodes.capacitance
    }

    /// Overrides the node capacitance.
    ///
    /// # Errors
    ///
    /// Returns [`IsingError::InvalidParameter`] unless `c` is finite and
    /// positive.
    pub fn set_capacitance(&mut self, c: f64) -> Result<(), IsingError> {
        self.nodes.set_capacitance(c)
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.nodes.h.len()
    }

    /// Voltage rail magnitude (default 1.0).
    pub fn rail(&self) -> f64 {
        self.nodes.rail
    }

    /// Sets the voltage rail magnitude.
    ///
    /// # Errors
    ///
    /// Returns [`IsingError::InvalidParameter`] unless `rail` is finite
    /// and positive.
    pub fn set_rail(&mut self, rail: f64) -> Result<(), IsingError> {
        if !rail.is_finite() || rail <= 0.0 {
            return Err(IsingError::InvalidParameter {
                what: "rail",
                value: rail,
            });
        }
        self.nodes.rail = rail;
        Ok(())
    }

    /// Clamps node `i` to `value` (an observed input).
    ///
    /// # Errors
    ///
    /// Returns [`IsingError::NodeOutOfRange`] or
    /// [`IsingError::ClampOutOfRails`].
    pub fn clamp(&mut self, i: usize, value: f64) -> Result<(), IsingError> {
        self.nodes.clamp(i, value)
    }

    /// Releases node `i` back to free evolution.
    ///
    /// # Errors
    ///
    /// Returns [`IsingError::NodeOutOfRange`] for bad indices.
    pub fn release(&mut self, i: usize) -> Result<(), IsingError> {
        if i >= self.n() {
            return Err(IsingError::NodeOutOfRange {
                node: i,
                len: self.n(),
            });
        }
        self.nodes.free[i] = true;
        Ok(())
    }

    /// Releases all nodes.
    pub fn release_all(&mut self) {
        self.nodes.free.fill(true);
    }

    /// Current node voltages.
    pub fn state(&self) -> &[f64] {
        &self.nodes.state
    }

    /// Which nodes are free (not clamped).
    pub fn free_mask(&self) -> &[bool] {
        &self.nodes.free
    }

    /// Overwrites the full state (clamped and free alike).
    ///
    /// # Errors
    ///
    /// Returns [`IsingError::DimensionMismatch`] on length mismatch and
    /// [`IsingError::NonFinite`] for non-finite values.
    pub fn set_state(&mut self, state: &[f64]) -> Result<(), IsingError> {
        if state.len() != self.n() {
            return Err(IsingError::DimensionMismatch {
                what: "state",
                expected: self.n(),
                actual: state.len(),
            });
        }
        if state.iter().any(|v| !v.is_finite()) {
            return Err(IsingError::NonFinite { what: "state" });
        }
        self.nodes.state.copy_from_slice(state);
        Ok(())
    }

    /// Initialises free nodes uniformly in `[-rail/10, rail/10]`
    /// (the random initialisation of unknown nodes, paper Sec. III.C).
    pub fn randomize_free<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        self.nodes.randomize_free(rng);
    }

    /// Injects persistent hardware defects described by a
    /// [`crate::fault::FaultModel`]: dead couplers are removed from the
    /// fabric, coupler drift freezes a multiplicative offset onto every
    /// surviving weight (drawn from `rng`), and stuck nodes are pinned —
    /// removed from the free set with their voltage forced to the stuck
    /// level, *even when that level is non-finite*, so garbage readouts
    /// propagate exactly as they would on silicon.
    ///
    /// Call after clamping inputs and before annealing. The event-driven
    /// engine needs no special handling: stuck nodes are not free, so the
    /// active set never integrates them.
    ///
    /// # Errors
    ///
    /// Returns the validation error of
    /// [`crate::fault::FaultModel::validate`] and leaves the machine
    /// untouched.
    pub fn inject_faults<R: Rng + ?Sized>(
        &mut self,
        faults: &crate::fault::FaultModel,
        rng: &mut R,
    ) -> Result<(), IsingError> {
        faults.validate(self.n())?;
        if faults.is_none() {
            return Ok(());
        }
        if !faults.dead_couplers.is_empty() || faults.coupler_drift > 0.0 {
            let mut dense = self.coupling.to_dense();
            faults.apply_to_coupling(&mut dense, rng);
            self.coupling = SparseCoupling::from_dense(&dense);
        }
        for s in &faults.stuck_nodes {
            // Deliberately bypasses `clamp` validation: a stuck level may
            // sit outside the rails or be NaN.
            self.nodes.free[s.idx] = false;
            self.nodes.state[s.idx] = s.value;
        }
        Ok(())
    }

    /// Replaces every non-finite state entry with `fallback`, returning
    /// how many entries were replaced. The recovery primitive used by
    /// guarded annealing after NaN contamination.
    pub fn sanitize(&mut self, fallback: f64) -> usize {
        let mut replaced = 0;
        for v in &mut self.nodes.state {
            if !v.is_finite() {
                *v = fallback;
                replaced += 1;
            }
        }
        replaced
    }

    /// Instantaneous maximum free-node rate `|dσ/dt|` at the current
    /// state, in rail fractions per ns — the residual of the equilibrium
    /// condition `σᵢ = -Σⱼ Jᵢⱼσⱼ / hᵢ`. Nodes pinned at a rail with
    /// outward drive are stationary (the clamp holds them) and excluded.
    ///
    /// Unlike the in-run convergence check, which compares states a full
    /// check window apart and can be aliased by an even-period
    /// oscillation, this is a point-in-time measurement: it is large at
    /// any point of a limit cycle. One mat-vec; consumes no RNG.
    ///
    /// Takes `&mut self` only to reuse the machine's pooled current
    /// buffer; observable state is untouched.
    pub fn max_free_rate(&mut self) -> f64 {
        let n = self.nodes.h.len();
        self.nodes.workspace.ensure_step(n);
        let ws = &mut self.nodes.workspace;
        self.coupling.matvec(&self.nodes.state, &mut ws.js);
        let mut rate = 0.0f64;
        for (i, &jsi) in ws.js.iter().enumerate() {
            if !self.nodes.free[i] {
                continue;
            }
            let dv = (jsi + self.nodes.h[i] * self.nodes.state[i]) / self.nodes.capacitance;
            let pinned = (self.nodes.state[i] >= self.nodes.rail && dv > 0.0)
                || (self.nodes.state[i] <= -self.nodes.rail && dv < 0.0);
            if !pinned {
                rate = rate.max(dv.abs());
            }
        }
        rate
    }

    /// Current Hamiltonian `H_RV`.
    ///
    /// Takes `&mut self` only to reuse the machine's pooled current
    /// buffer; observable state is untouched.
    pub fn energy(&mut self) -> f64 {
        let n = self.nodes.h.len();
        self.nodes.workspace.ensure_step(n);
        let ws = &mut self.nodes.workspace;
        self.coupling.matvec(&self.nodes.state, &mut ws.js);
        rv_energy_from_matvec(&ws.js, &self.nodes.h, &self.nodes.state)
    }

    /// Detaches the machine's scratch [`Workspace`], leaving an empty
    /// pool behind. Batch drivers hand the detached workspace to the
    /// next machine via [`adopt_workspace`](Self::adopt_workspace) so
    /// consecutive windows share warmed-up buffers instead of paying
    /// the first-use allocations again. Buffers carry capacity, never
    /// values, so migration cannot change any result.
    pub fn take_workspace(&mut self) -> Workspace {
        std::mem::take(&mut self.nodes.workspace)
    }

    /// Installs a scratch [`Workspace`] (typically detached from a
    /// previous machine with [`take_workspace`](Self::take_workspace)),
    /// replacing the current pool.
    pub fn adopt_workspace(&mut self, ws: Workspace) {
        self.nodes.workspace = ws;
    }

    /// The machine's scratch [`Workspace`] — exposes the buffer-reuse
    /// counters that prove the annealing hot path stopped allocating.
    pub fn workspace(&self) -> &Workspace {
        &self.nodes.workspace
    }

    /// Advances the machine one Euler step of `dt_ns`, returning the
    /// maximum free-node rate `|dσ/dt|` observed.
    ///
    /// The dominant cost, the coupling mat-vec, runs multi-threaded
    /// under the `parallel` feature (bit-identically to the serial
    /// build). The per-node integration stays serial so that noise
    /// draws consume the RNG in node order, keeping noisy runs
    /// reproducible for a given seed at any thread count.
    ///
    /// # Panics
    ///
    /// Panics if `dt_ns <= 0`.
    pub fn step<R: Rng + ?Sized>(
        &mut self,
        dt_ns: f64,
        noise: &NoiseModel,
        rng: &mut R,
    ) -> f64 {
        let currents = &mut Self::csr(&self.coupling);
        self.nodes
            .step(Integrator::Euler, 0.0, dt_ns, noise, rng, currents)
    }

    /// Advances one classical RK4 step of `dt_ns` on the noiseless
    /// dynamics, then injects noise Euler–Maruyama style. Four mat-vecs
    /// per step, but follows the analog trajectory far more accurately
    /// than Euler at the same `dt`.
    ///
    /// All four mat-vecs run multi-threaded under the `parallel`
    /// feature; noise injection stays serial in node order (see
    /// [`RealValuedDspu::step`]).
    ///
    /// # Panics
    ///
    /// Panics if `dt_ns <= 0`.
    pub fn step_rk4<R: Rng + ?Sized>(
        &mut self,
        dt_ns: f64,
        noise: &NoiseModel,
        rng: &mut R,
    ) -> f64 {
        let currents = &mut Self::csr(&self.coupling);
        self.nodes
            .step(Integrator::Rk4, 0.0, dt_ns, noise, rng, currents)
    }

    /// The CSR mat-vec as the integrator's current source.
    fn csr(coupling: &SparseCoupling) -> impl FnMut(f64, &[f64], &mut [f64]) + '_ {
        move |_, s, js| coupling.matvec(s, js)
    }

    /// Runs natural annealing until convergence or the time budget.
    pub fn run<R: Rng + ?Sized>(&mut self, config: &AnnealConfig, rng: &mut R) -> AnnealReport {
        self.run_inner(config, rng, None)
    }

    /// Runs natural annealing while recording a [`Trace`] with the given
    /// sampling stride.
    pub fn run_traced<R: Rng + ?Sized>(
        &mut self,
        config: &AnnealConfig,
        stride_ns: f64,
        rng: &mut R,
    ) -> (AnnealReport, Trace) {
        let mut trace = Trace::new(stride_ns);
        let report = self.run_inner(config, rng, Some(&mut trace));
        (report, trace)
    }

    fn run_inner<R: Rng + ?Sized>(
        &mut self,
        config: &AnnealConfig,
        rng: &mut R,
        trace: Option<&mut Trace>,
    ) -> AnnealReport {
        let span_start = self.tracing.start();
        // The event-driven engine handles noiseless Euler runs; noise
        // keeps every node active (nothing to skip) and RK4's staged
        // mat-vecs defeat incremental current maintenance, so both fall
        // back to the strict fixed-schedule path below.
        if let crate::engine::EngineMode::Adaptive { config: acfg } = config.mode {
            if config.noise.is_none() && config.integrator == Integrator::Euler {
                let report = crate::engine::run_adaptive(self, config, &acfg, trace);
                self.record_anneal_metrics(&report);
                self.record_anneal_span("anneal.adaptive", span_start, &report);
                return report;
            }
        }
        let (currents, cancel) = (Self::csr(&self.coupling), self.cancel.as_ref());
        let mut report = self.nodes.run(config, 0.0, cancel, trace, rng, currents);
        report.energy = self.energy();
        self.record_anneal_metrics(&report);
        self.record_anneal_span("anneal.strict", span_start, &report);
        report
    }

    /// Records one `anneal.*` phase span into the attached tracing
    /// scope. Called only after the dynamics finish (the telemetry
    /// contract); with a noop scope `start` is `None` and this is a
    /// single branch.
    fn record_anneal_span(
        &self,
        name: &str,
        start: Option<std::time::Instant>,
        report: &AnnealReport,
    ) {
        self.tracing.record(
            name,
            start,
            &[
                ("steps", report.steps as f64),
                ("sim_time_ns", report.sim_time_ns),
                ("converged", f64::from(u8::from(report.converged))),
            ],
        );
    }

    /// Reports one finished annealing run to the attached telemetry
    /// sink. Every value is run-level (simulated time, not wall time);
    /// the rail-saturation scan only runs when the sink is enabled, so
    /// the noop path stays a single branch. The workspace-reuse tally is
    /// drained either way so a later enabled run never reports stale
    /// counts.
    fn record_anneal_metrics(&mut self, report: &AnnealReport) {
        let reuses = self.nodes.workspace.drain_unreported();
        let sink = &self.telemetry;
        if !sink.is_enabled() {
            return;
        }
        sink.counter_add("anneal.workspace_reuses", reuses);
        sink.counter_add("anneal.runs", 1);
        if report.converged {
            sink.counter_add("anneal.converged", 1);
        }
        sink.record("anneal.steps", report.steps as f64);
        sink.record("anneal.sim_time_ns", report.sim_time_ns);
        if report.final_rate.is_finite() {
            sink.record("anneal.final_rate", report.final_rate);
        }
        sink.record("anneal.sparse_steps", report.sparse_steps as f64);
        sink.record("anneal.active_fraction", report.mean_active_fraction);
        let railed = self
            .nodes
            .state
            .iter()
            .zip(&self.nodes.free)
            .filter(|(v, &free)| free && v.abs() >= self.nodes.rail)
            .count();
        sink.record("anneal.rail_saturated_nodes", railed as f64);
    }

    /// The analytic fixed point the free nodes should reach, obtained by
    /// damped fixed-point iteration of `σ_F = D⁻¹(J σ)` with clamped
    /// nodes held. Useful as ground truth in tests.
    pub fn analytic_fixed_point(&self, iterations: usize) -> Vec<f64> {
        let n = self.n();
        let mut s = self.nodes.state.clone();
        let mut js = vec![0.0; n];
        for _ in 0..iterations {
            self.coupling.matvec(&s, &mut js);
            for i in 0..n {
                if self.nodes.free[i] {
                    let target =
                        (-js[i] / self.nodes.h[i]).clamp(-self.nodes.rail, self.nodes.rail);
                    s[i] = 0.5 * s[i] + 0.5 * target;
                }
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hamiltonian::rv_energy;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn chain3() -> RealValuedDspu {
        let mut j = Coupling::zeros(3);
        j.set(0, 1, 0.5);
        j.set(1, 2, 0.5);
        RealValuedDspu::new(j, vec![-1.5; 3]).unwrap()
    }

    #[test]
    fn construction_validates() {
        let j = Coupling::zeros(2);
        assert!(matches!(
            RealValuedDspu::new(j.clone(), vec![-1.0]),
            Err(IsingError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            RealValuedDspu::new(j.clone(), vec![-1.0, 0.0]),
            Err(IsingError::NonNegativeSelfReaction { node: 1, .. })
        ));
        assert!(matches!(
            RealValuedDspu::new(j, vec![-1.0, f64::NAN]),
            Err(IsingError::NonFinite { .. })
        ));
    }

    #[test]
    fn clamp_validation() {
        let mut d = chain3();
        assert!(matches!(
            d.clamp(7, 0.0),
            Err(IsingError::NodeOutOfRange { .. })
        ));
        assert!(matches!(
            d.clamp(0, 2.0),
            Err(IsingError::ClampOutOfRails { .. })
        ));
        d.clamp(0, 0.5).unwrap();
        assert!(!d.free_mask()[0]);
        d.release(0).unwrap();
        assert!(d.free_mask()[0]);
    }

    #[test]
    fn setter_validation_returns_errors() {
        let mut d = chain3();
        for bad in [0.0, -3.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                d.set_capacitance(bad),
                Err(IsingError::InvalidParameter {
                    what: "capacitance",
                    ..
                })
            ));
            assert!(matches!(
                d.set_rail(bad),
                Err(IsingError::InvalidParameter { what: "rail", .. })
            ));
        }
        // Failed setters leave the machine untouched.
        assert_eq!(d.capacitance(), crate::RC_NS);
        assert_eq!(d.rail(), 1.0);
        d.set_capacitance(50.0).unwrap();
        d.set_rail(2.0).unwrap();
        assert_eq!(d.capacitance(), 50.0);
        assert_eq!(d.rail(), 2.0);
    }

    #[test]
    fn converges_to_fixed_point() {
        let mut d = chain3();
        d.clamp(0, 0.9).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        d.randomize_free(&mut rng);
        let report = d.run(&AnnealConfig::default(), &mut rng);
        assert!(report.converged, "did not converge: {report:?}");
        // Solve by substitution: σ1 = (J01 σ0 + J12 σ2)/1.5, σ2 = J12 σ1 / 1.5
        // => σ1 = (0.45 + 0.5 σ2)/1.5, σ2 = σ1/3 => σ1 = 0.45/1.5 / (1 - 0.5/(3*1.5))
        let s1 = 0.3 / (1.0 - 0.5 / 4.5);
        let s2 = s1 / 3.0;
        assert!((d.state()[1] - s1).abs() < 1e-3, "σ1 = {}", d.state()[1]);
        assert!((d.state()[2] - s2).abs() < 1e-3, "σ2 = {}", d.state()[2]);
        // Matches the analytic helper too.
        let fp = d.analytic_fixed_point(200);
        assert!((d.state()[1] - fp[1]).abs() < 1e-3);
    }

    #[test]
    fn fully_clamped_machine_is_inert() {
        // Every node clamped: no free variables remain, annealing must
        // converge immediately and leave every value exactly in place.
        let mut d = chain3();
        d.clamp(0, 0.3).unwrap();
        d.clamp(1, -0.2).unwrap();
        d.clamp(2, 0.8).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        d.randomize_free(&mut rng); // no-op: nothing is free
        let report = d.run(&AnnealConfig::default(), &mut rng);
        assert!(report.converged);
        assert_eq!(d.state(), &[0.3, -0.2, 0.8]);
        // The analytic fixed point of a fully-clamped machine is its
        // clamped state.
        assert_eq!(d.analytic_fixed_point(50), vec![0.3, -0.2, 0.8]);
    }

    #[test]
    fn energy_decreases_without_noise() {
        let mut d = chain3();
        d.clamp(0, 0.7).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        d.randomize_free(&mut rng);
        let mut last = f64::INFINITY;
        for _ in 0..50 {
            d.step(0.05, &NoiseModel::none(), &mut rng);
            let e = d.energy();
            assert!(e <= last + 1e-9, "energy rose: {e} > {last}");
            last = e;
        }
    }

    #[test]
    fn values_stay_within_rails() {
        // Strong couplings but rails must bound everything.
        let mut j = Coupling::zeros(2);
        j.set(0, 1, 10.0);
        let mut d = RealValuedDspu::new(j, vec![-1.0, -1.0]).unwrap();
        d.clamp(0, 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        d.run(&AnnealConfig::with_budget(100.0), &mut rng);
        assert!(d.state()[1] <= 1.0 && d.state()[1] >= -1.0);
        assert_eq!(d.state()[1], 1.0, "saturates at the rail");
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut d = chain3();
            d.clamp(0, 0.4).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            d.randomize_free(&mut rng);
            d.run(&AnnealConfig::default(), &mut rng);
            d.state().to_vec()
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    fn noise_perturbs_but_stays_close() {
        let mut d = chain3();
        d.clamp(0, 0.9).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        d.randomize_free(&mut rng);
        let mut cfg = AnnealConfig::with_budget(200.0);
        cfg.noise = NoiseModel::relative(0.05);
        d.run(&cfg, &mut rng);
        let s1 = 0.3 / (1.0 - 0.5 / 4.5);
        assert!((d.state()[1] - s1).abs() < 0.15, "noisy σ1 = {}", d.state()[1]);
    }

    #[test]
    fn energy_method_matches_free_function() {
        let mut j = Coupling::zeros(3);
        j.set(0, 1, 0.3);
        j.set(1, 2, -0.2);
        let h = vec![-1.0, -2.0, -1.5];
        let mut d = RealValuedDspu::new(j.clone(), h.clone()).unwrap();
        d.set_state(&[0.1, -0.4, 0.6]).unwrap();
        assert!((d.energy() - rv_energy(&j, &h, &[0.1, -0.4, 0.6])).abs() < 1e-12);
    }

    #[test]
    fn traced_run_records() {
        let mut d = chain3();
        d.clamp(0, 0.5).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = AnnealConfig {
            dt_ns: 0.5,
            max_time_ns: 10.0,
            ..AnnealConfig::default()
        };
        let (report, trace) = d.run_traced(&cfg, 1.0, &mut rng);
        assert!(trace.len() >= 10, "trace too short: {}", trace.len());
        assert!(report.sim_time_ns <= 10.0 + 1e-9);
        // Clamped node constant throughout.
        for (_, v) in trace.series(0) {
            assert_eq!(v, 0.5);
        }
    }
}

#[cfg(test)]
mod rk4_tests {
    use super::*;
    use crate::anneal::Integrator;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn chain3() -> RealValuedDspu {
        let mut j = Coupling::zeros(3);
        j.set(0, 1, 0.5);
        j.set(1, 2, 0.5);
        RealValuedDspu::new(j, vec![-1.5; 3]).unwrap()
    }

    #[test]
    fn rk4_reaches_same_fixed_point_as_euler() {
        let run = |integrator: Integrator| {
            let mut d = chain3();
            d.clamp(0, 0.9).unwrap();
            let mut rng = StdRng::seed_from_u64(3);
            d.randomize_free(&mut rng);
            let cfg = AnnealConfig {
                integrator,
                ..AnnealConfig::default()
            };
            let report = d.run(&cfg, &mut rng);
            assert!(report.converged, "{integrator:?} did not converge");
            d.state().to_vec()
        };
        let euler = run(Integrator::Euler);
        let rk4 = run(Integrator::Rk4);
        for (a, b) in euler.iter().zip(&rk4) {
            assert!((a - b).abs() < 1e-4, "euler {a} vs rk4 {b}");
        }
    }

    #[test]
    fn rk4_stable_at_larger_dt() {
        // A stiff instance where Euler at dt = 60 diverges (rate grows)
        // but RK4 still lands on the fixed point.
        let mut j = Coupling::zeros(2);
        j.set(0, 1, 1.2);
        let make = || {
            let mut d = RealValuedDspu::new(j.clone(), vec![-3.0, -3.0]).unwrap();
            d.clamp(0, 0.6).unwrap();
            d.set_state(&[0.6, 0.0]).unwrap();
            d
        };
        let target = 1.2 * 0.6 / 3.0;
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = AnnealConfig {
            dt_ns: 60.0,
            integrator: Integrator::Rk4,
            max_time_ns: 3_000.0,
            ..AnnealConfig::default()
        };
        let mut d = make();
        d.run(&cfg, &mut rng);
        assert!(
            (d.state()[1] - target).abs() < 1e-3,
            "rk4 fixed point {} vs {target}",
            d.state()[1]
        );
    }

    #[test]
    fn rk4_more_accurate_mid_trajectory() {
        // Against the analytic solution of a single free node driven by
        // a clamped neighbour: σ(t) = target·(1 - exp(-|h| t / C)).
        let mut j = Coupling::zeros(2);
        j.set(0, 1, 1.0);
        let target = 0.8 / 2.0;
        let run = |integrator: Integrator, steps: usize, dt: f64| {
            let mut d = RealValuedDspu::new(j.clone(), vec![-2.0, -2.0]).unwrap();
            d.clamp(0, 0.8).unwrap();
            d.set_state(&[0.8, 0.0]).unwrap();
            let mut rng = StdRng::seed_from_u64(0);
            for _ in 0..steps {
                match integrator {
                    Integrator::Euler => d.step(dt, &NoiseModel::none(), &mut rng),
                    Integrator::Rk4 => d.step_rk4(dt, &NoiseModel::none(), &mut rng),
                };
            }
            d.state()[1]
        };
        let t = 40.0;
        let exact = target * (1.0 - (-2.0 * t / crate::RC_NS).exp());
        let euler_err = (run(Integrator::Euler, 2, 20.0) - exact).abs();
        let rk4_err = (run(Integrator::Rk4, 2, 20.0) - exact).abs();
        assert!(
            rk4_err < euler_err / 10.0,
            "rk4 err {rk4_err} vs euler err {euler_err}"
        );
    }
}
