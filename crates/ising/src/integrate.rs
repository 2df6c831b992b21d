//! The one integrator of the node dynamics `C·dσᵢ/dt = Iᵢ + hᵢσᵢ`.
//!
//! Machines with DSPU capacitors differ only in how they assemble the
//! coupling currents `Iᵢ`: the dense [`crate::RealValuedDspu`] runs one
//! CSR mat-vec, the PE-mesh machine of `dsgl-hw` sums intra-PE tiles,
//! live spatial links and sample-and-hold slices. Each passes its
//! assembly as a closure `(t, σ, I)` to its [`Nodes`]; everything
//! downstream of the currents lives here once.

use crate::anneal::{AnnealConfig, AnnealReport, Integrator};
use crate::cancel::CancelToken;
use crate::convergence::max_rate;
use crate::error::IsingError;
use crate::noise::{gaussian, NoiseModel};
use crate::trace::Trace;
use crate::workspace::Workspace;
use rand::{Rng, RngExt};

/// A machine's node bank: the capacitor voltages the integrator
/// advances, the per-node constants it reads, and its scratch pool.
#[derive(Debug, Clone)]
pub struct Nodes {
    /// Node voltages.
    pub state: Vec<f64>,
    /// Self-feedback conductances: `hᵢ < 0` for the DSPU's resistor
    /// ring, the positive latch gain for BRIM's bistable nodes.
    pub(crate) h: Vec<f64>,
    /// `true` for free nodes; clamped nodes keep their voltage.
    pub free: Vec<bool>,
    /// Voltage rail magnitude.
    pub rail: f64,
    /// Node capacitance in ns·Ω.
    pub(crate) capacitance: f64,
    /// Pooled scratch buffers, so warm runs allocate nothing.
    pub(crate) workspace: Workspace,
}

impl Nodes {
    /// A bank of `h.len()` free nodes at 0 V, with a unit rail and the
    /// default [`crate::RC_NS`] capacitance.
    pub fn new(h: Vec<f64>) -> Self {
        let n = h.len();
        Nodes {
            state: vec![0.0; n],
            h,
            free: vec![true; n],
            rail: 1.0,
            capacitance: crate::RC_NS,
            workspace: Workspace::new(),
        }
    }

    /// Clamps node `i` to `value` (an observed input).
    ///
    /// # Errors
    ///
    /// Returns [`IsingError::NodeOutOfRange`] or
    /// [`IsingError::ClampOutOfRails`].
    pub(crate) fn clamp(&mut self, i: usize, value: f64) -> Result<(), IsingError> {
        let len = self.state.len();
        if i >= len {
            return Err(IsingError::NodeOutOfRange { node: i, len });
        }
        if !value.is_finite() || value.abs() > self.rail {
            return Err(IsingError::ClampOutOfRails {
                node: i,
                value,
                rail: self.rail,
            });
        }
        self.free[i] = false;
        self.state[i] = value;
        Ok(())
    }

    /// Initialises free nodes uniformly in `[-rail/10, rail/10]`, drawing
    /// from `rng` in node order.
    pub fn randomize_free<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        for (v, &free) in self.state.iter_mut().zip(&self.free) {
            if free {
                *v = (rng.random::<f64>() - 0.5) * 0.2 * self.rail;
            }
        }
    }

    /// Overrides the node capacitance.
    ///
    /// # Errors
    ///
    /// Returns [`IsingError::InvalidParameter`] unless `c` is finite and
    /// positive.
    pub(crate) fn set_capacitance(&mut self, c: f64) -> Result<(), IsingError> {
        if !c.is_finite() || c <= 0.0 {
            return Err(IsingError::InvalidParameter {
                what: "capacitance",
                value: c,
            });
        }
        self.capacitance = c;
        Ok(())
    }

    /// One forward-Euler update of every free node from the currents in
    /// `workspace.js`, returning the largest `|dσ/dt|`. Noise draws
    /// consume `rng` serially in node order, so noisy runs reproduce for
    /// a given seed at any thread count.
    #[inline]
    fn euler<R: Rng + ?Sized>(&mut self, dt_ns: f64, noise: &NoiseModel, rng: &mut R) -> f64 {
        let mut rate = 0.0f64;
        for (i, &jsi) in self.workspace.js.iter().enumerate() {
            if !self.free[i] {
                continue;
            }
            let mut current = jsi;
            if noise.coupler_std > 0.0 {
                current *= 1.0 + noise.coupler_std * gaussian(rng);
            }
            let dv = (current + self.h[i] * self.state[i]) / self.capacitance;
            rate = rate.max(dv.abs());
            let mut next = self.state[i] + dv * dt_ns;
            if noise.node_std > 0.0 {
                // White current noise scaled so the RC-filtered voltage
                // fluctuates with stationary std = node_std·rail.
                let sigma = noise.node_std
                    * self.rail
                    * (2.0 * self.h[i].abs() * dt_ns / self.capacitance).sqrt();
                next += sigma * gaussian(rng);
            }
            self.state[i] = next.clamp(-self.rail, self.rail);
        }
        rate
    }

    /// One `integrator` step of `dt_ns` at simulated time `t` with
    /// currents from `currents`, returning the largest `|dσ/dt|`. RK4
    /// integrates the noiseless dynamics over four current assemblies,
    /// then injects noise Euler–Maruyama style.
    ///
    /// # Panics
    ///
    /// Panics if `dt_ns <= 0`.
    pub(crate) fn step<R, F>(
        &mut self,
        integrator: Integrator,
        t: f64,
        dt_ns: f64,
        noise: &NoiseModel,
        rng: &mut R,
        currents: &mut F,
    ) -> f64
    where
        R: Rng + ?Sized,
        F: FnMut(f64, &[f64], &mut [f64]),
    {
        assert!(dt_ns > 0.0, "dt must be positive");
        let n = self.state.len();
        if integrator == Integrator::Euler {
            self.workspace.ensure_step(n);
            currents(t, &self.state, &mut self.workspace.js);
            return self.euler(dt_ns, noise, rng);
        }
        self.workspace.ensure_rk4(n);
        let (h, free, rail, cap) = (&self.h, &self.free, self.rail, self.capacitance);
        let mut deriv = |s: &[f64], out: &mut [f64]| {
            currents(t, s, out);
            for i in 0..n {
                out[i] = if free[i] {
                    (out[i] + h[i] * s[i]) / cap
                } else {
                    0.0
                };
            }
        };
        let ws = &mut self.workspace;
        deriv(&self.state, &mut ws.k1);
        for i in 0..n {
            ws.stage[i] = self.state[i] + 0.5 * dt_ns * ws.k1[i];
        }
        deriv(&ws.stage, &mut ws.k2);
        for i in 0..n {
            ws.stage[i] = self.state[i] + 0.5 * dt_ns * ws.k2[i];
        }
        deriv(&ws.stage, &mut ws.k3);
        for i in 0..n {
            ws.stage[i] = self.state[i] + dt_ns * ws.k3[i];
        }
        deriv(&ws.stage, &mut ws.k4);
        let mut rate = 0.0f64;
        for i in 0..n {
            if !free[i] {
                continue;
            }
            let dv = (ws.k1[i] + 2.0 * ws.k2[i] + 2.0 * ws.k3[i] + ws.k4[i]) / 6.0;
            rate = rate.max(dv.abs());
            let mut next = self.state[i] + dv * dt_ns;
            if noise.node_std > 0.0 {
                let sigma = noise.node_std * rail * (2.0 * h[i].abs() * dt_ns / cap).sqrt();
                next += sigma * gaussian(rng);
            }
            if noise.coupler_std > 0.0 {
                next += noise.coupler_std * dv.abs() * dt_ns * gaussian(rng);
            }
            self.state[i] = next.clamp(-rail, rail);
        }
        rate
    }

    /// Integrates on the fixed schedule of `config` until the free-node
    /// rate, measured every `check_every` steps, falls below tolerance
    /// or the budget runs out, then reads out: each free node latches
    /// its time-average over a window of at least `min_readout_ns` (the
    /// ripple period of the machine's currents, 0 when they do not
    /// ripple), widened under noise to eight RC constants of the
    /// slowest node. A zero window reads the instantaneous voltages. A
    /// fired `cancel` stops the run at the next step and skips the
    /// readout. The report's `energy` is 0.
    pub fn run<R, F>(
        &mut self,
        config: &AnnealConfig,
        min_readout_ns: f64,
        cancel: Option<&CancelToken>,
        mut trace: Option<&mut Trace>,
        rng: &mut R,
        mut currents: F,
    ) -> AnnealReport
    where
        R: Rng + ?Sized,
        F: FnMut(f64, &[f64], &mut [f64]),
    {
        let cancelled = || cancel.is_some_and(CancelToken::is_cancelled);
        let dt = config.dt_ns;
        let mut t = 0.0;
        let mut steps = 0usize;
        let mut converged = false;
        let mut rate = f64::INFINITY;
        // Convergence snapshot from the pool: detached because `step`
        // below needs the workspace, restored before returning.
        let mut prev = std::mem::take(&mut self.workspace.prev);
        let reused = Workspace::ensure_f64(&mut prev, self.state.len());
        self.workspace.note(reused);
        prev.copy_from_slice(&self.state);
        if let Some(tr) = trace.as_deref_mut() {
            tr.record(0.0, &self.state);
        }
        while t < config.max_time_ns {
            if cancelled() {
                break;
            }
            self.step(config.integrator, t, dt, &config.noise, rng, &mut currents);
            t += dt;
            steps += 1;
            if let Some(tr) = trace.as_deref_mut() {
                tr.record(t, &self.state);
            }
            if steps.is_multiple_of(config.check_every) {
                rate = max_rate(
                    &prev,
                    &self.state,
                    &self.free,
                    dt * config.check_every as f64,
                );
                prev.copy_from_slice(&self.state);
                if rate < config.tolerance {
                    converged = true;
                    break;
                }
            }
        }
        self.workspace.prev = prev;
        // Integrating readout: the node-control unit latches each output
        // as a time-average, which filters ripple and voltage jitter out
        // of the reading (paper Fig. 13's "natural good tolerance of
        // physical dynamical systems").
        let mut window_ns = min_readout_ns;
        if !config.noise.is_none() {
            let min_h = self
                .h
                .iter()
                .fold(f64::INFINITY, |m, h| m.min(h.abs()))
                .max(1e-9);
            window_ns = window_ns.max(8.0 * self.capacitance / min_h);
        }
        if window_ns > 0.0 && !cancelled() {
            let avg_steps = ((window_ns / dt).ceil() as usize).max(1);
            let mut acc = std::mem::take(&mut self.workspace.acc);
            let reused = Workspace::ensure_f64(&mut acc, self.state.len());
            self.workspace.note(reused);
            for _ in 0..avg_steps {
                self.step(config.integrator, t, dt, &config.noise, rng, &mut currents);
                t += dt;
                steps += 1;
                if let Some(tr) = trace.as_deref_mut() {
                    tr.record(t, &self.state);
                }
                for (a, &s) in acc.iter_mut().zip(&self.state) {
                    *a += s;
                }
            }
            let inv = 1.0 / avg_steps as f64;
            for (i, &a) in acc.iter().enumerate() {
                if self.free[i] {
                    self.state[i] = a * inv;
                }
            }
            self.workspace.acc = acc;
        }
        AnnealReport {
            converged,
            steps,
            sim_time_ns: t,
            final_rate: rate,
            energy: 0.0,
            sparse_steps: 0,
            mean_active_fraction: 1.0,
        }
    }
}
