//! Event-driven adaptive annealing: active-set integration of the
//! Real-Valued DSPU.
//!
//! The analog machine reaches equilibrium quickly precisely because
//! settled nodes stop contributing: a capacitor whose net current is
//! zero costs nothing. The fixed-schedule simulator, by contrast, pays
//! the full coupling mat-vec for every node at every step until a
//! *global* convergence check fires. This module removes that wasted
//! work.
//!
//! The engine tracks, per free node, the effective rate
//! `|Δσᵢ|/dt` the next Euler step would produce, and keeps an **active
//! set** of nodes whose rate is at or above the convergence tolerance.
//! Only active nodes are integrated; the coupling currents
//! `jsᵢ = Σⱼ Jᵢⱼσⱼ` are maintained *incrementally* — when node `i`
//! moves by `Δ`, only its CSR row is walked to update the neighbours'
//! currents, and any neighbour whose rate climbs back above tolerance
//! re-enters the active set. Annealing exits the moment the active set
//! drains (validated against a fresh full mat-vec), so convergence is
//! detected per-step rather than at `check_every` granularity.
//!
//! Two guard rails keep the fast path equilibrium-equivalent to the
//! full integrator:
//!
//! - while the active fraction is above
//!   [`AdaptiveConfig::dense_fraction`], the engine takes plain
//!   full-matvec steps (dense early-phase dynamics pay no event
//!   bookkeeping overhead, and the trajectory matches the strict
//!   integrator's Jacobi updates);
//! - every [`AdaptiveConfig::refresh_every`] sparse steps the
//!   incremental currents are recomputed from scratch and the active
//!   set rebuilt over all free nodes, bounding floating-point drift.
//!
//! The engine is selected with [`EngineMode::Adaptive`] on
//! [`AnnealConfig::mode`](crate::AnnealConfig); the default
//! [`EngineMode::Strict`] preserves the fixed-schedule integrator
//! bit-for-bit. Noisy runs and RK4 integration always take the strict
//! path (noise keeps every node active, so there is nothing to skip).

use crate::anneal::{AnnealConfig, AnnealReport};
use crate::dspu::RealValuedDspu;
use crate::trace::Trace;
use serde::{Deserialize, Serialize};

/// Tuning of the event-driven integration path.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveConfig {
    /// Active-set fraction (of free nodes) above which the engine takes
    /// full-matvec steps instead of event-driven sparse steps. `0.0`
    /// forces sparse stepping always; `1.0` disables it.
    pub dense_fraction: f64,
    /// Sparse steps between full recomputations of the incremental
    /// coupling currents (and a full active-set rescan). Bounds the
    /// floating-point drift of the incremental updates.
    pub refresh_every: usize,
}

impl Default for AdaptiveConfig {
    /// Sparse stepping below 50 % active occupancy, refresh every 64
    /// sparse steps.
    fn default() -> Self {
        AdaptiveConfig {
            dense_fraction: 0.5,
            refresh_every: 64,
        }
    }
}

/// Which integration engine an annealing run uses.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum EngineMode {
    /// The fixed-schedule integrator: every node steps every `dt`,
    /// convergence is checked every `check_every` steps. Bit-exact with
    /// the pre-engine behaviour.
    #[default]
    Strict,
    /// Event-driven active-set integration (noiseless Euler only; other
    /// configurations silently fall back to [`EngineMode::Strict`]).
    /// Equilibrium-equivalent to strict within the run's tolerance.
    Adaptive {
        /// Tuning of the event-driven path.
        config: AdaptiveConfig,
    },
}

impl EngineMode {
    /// The adaptive engine with default tuning.
    pub fn adaptive() -> Self {
        EngineMode::Adaptive {
            config: AdaptiveConfig::default(),
        }
    }
}

/// The effective per-step rate of node `i`: `|clamp(σ + dv·dt) - σ|/dt`.
/// Matches [`crate::convergence::max_rate`]'s view that a node pinned at
/// the rail has stopped moving.
#[inline]
fn eff_rate(js: &[f64], state: &[f64], h: &[f64], i: usize, cap: f64, dt: f64, rail: f64) -> f64 {
    let dv = (js[i] + h[i] * state[i]) / cap;
    let next = (state[i] + dv * dt).clamp(-rail, rail);
    (next - state[i]).abs() / dt
}

/// Runs the event-driven engine on a machine. Called from
/// [`RealValuedDspu::run`] when [`AnnealConfig::mode`] selects
/// [`EngineMode::Adaptive`] and the configuration is noiseless Euler.
pub(crate) fn run_adaptive(
    dspu: &mut RealValuedDspu,
    config: &AnnealConfig,
    acfg: &AdaptiveConfig,
    mut trace: Option<&mut Trace>,
) -> AnnealReport {
    let dt = config.dt_ns;
    assert!(dt > 0.0, "dt must be positive");
    let tol = config.tolerance;
    let cap = dspu.nodes.capacitance;
    let rail = dspu.nodes.rail;
    let n = dspu.n();

    if let Some(tr) = trace.as_deref_mut() {
        tr.record(0.0, &dspu.nodes.state);
    }

    // The engine's five scratch vectors all come from the machine's
    // pooled workspace (detached for the run, restored at the end), so
    // repeat runs on a warm machine allocate nothing.
    let mut ws = std::mem::take(&mut dspu.nodes.workspace);
    let js_reused = crate::workspace::Workspace::ensure_f64(&mut ws.js, n);
    ws.note(js_reused);
    ws.note(ws.marked.capacity() >= n);

    // Split borrows: the loop mutates `state` and reads the rest. The
    // cancel token is cloned out first (an `Option<Arc>` clone) so the
    // loop can poll it without touching the borrowed machine.
    let cancel = dspu.cancel.clone();
    let coupling = &dspu.coupling;
    let h = &dspu.nodes.h;
    let free = &dspu.nodes.free;
    let state = &mut dspu.nodes.state;
    let crate::workspace::Workspace {
        js,
        queue,
        marked,
        moved,
        candidates,
        ..
    } = &mut ws;
    marked.clear();
    marked.resize(n, false);
    moved.clear();
    candidates.clear();

    coupling.matvec(state, js);
    let free_count = free.iter().filter(|&&f| f).count();

    let rescan = |js: &[f64], state: &[f64], queue: &mut Vec<u32>| {
        queue.clear();
        for (i, &is_free) in free.iter().enumerate() {
            if is_free && eff_rate(js, state, h, i, cap, dt, rail) >= tol {
                queue.push(i as u32);
            }
        }
    };
    rescan(js, state, queue);

    let mut t = 0.0;
    let mut steps = 0usize;
    let mut sparse_steps = 0usize;
    let mut frac_sum = 0.0;
    let mut since_refresh = 0usize;
    let mut converged = false;
    let mut drain_validations = 0u64;
    let mut active_peak = queue.len();

    loop {
        if cancel.as_ref().is_some_and(|c| c.is_cancelled()) {
            break;
        }
        if queue.is_empty() {
            // Validate the drained set against fresh currents before
            // declaring convergence (incremental updates carry drift).
            drain_validations += 1;
            coupling.matvec(state, js);
            since_refresh = 0;
            rescan(js, state, queue);
            if queue.is_empty() {
                converged = true;
                break;
            }
        }
        active_peak = active_peak.max(queue.len());
        if t >= config.max_time_ns {
            break;
        }
        let frac = queue.len() as f64 / free_count.max(1) as f64;
        frac_sum += frac;
        if frac > acfg.dense_fraction {
            // Dense phase: a plain Jacobi full step from the current
            // currents — identical work profile to the strict path.
            for i in 0..n {
                if !free[i] {
                    continue;
                }
                let dv = (js[i] + h[i] * state[i]) / cap;
                state[i] = (state[i] + dv * dt).clamp(-rail, rail);
            }
            coupling.matvec(state, js);
            since_refresh = 0;
            rescan(js, state, queue);
        } else {
            // Sparse phase: integrate only the active set, propagate
            // each move through the CSR rows, and re-examine exactly
            // the nodes whose currents changed.
            sparse_steps += 1;
            since_refresh += 1;
            moved.clear();
            for &iu in queue.iter() {
                let i = iu as usize;
                let dv = (js[i] + h[i] * state[i]) / cap;
                let next = (state[i] + dv * dt).clamp(-rail, rail);
                let delta = next - state[i];
                if delta != 0.0 {
                    moved.push((iu, delta, next));
                }
            }
            for &(iu, _, next) in moved.iter() {
                state[iu as usize] = next;
            }
            candidates.clear();
            for &iu in queue.iter() {
                let i = iu as usize;
                if !marked[i] {
                    marked[i] = true;
                    candidates.push(iu);
                }
            }
            for &(iu, delta, _) in moved.iter() {
                for (j, w) in coupling.row(iu as usize) {
                    js[j] += w * delta;
                    if free[j] && !marked[j] {
                        marked[j] = true;
                        candidates.push(j as u32);
                    }
                }
            }
            if since_refresh >= acfg.refresh_every.max(1) {
                coupling.matvec(state, js);
                since_refresh = 0;
                for &ju in candidates.iter() {
                    marked[ju as usize] = false;
                }
                rescan(js, state, queue);
            } else {
                queue.clear();
                for &ju in candidates.iter() {
                    let j = ju as usize;
                    marked[j] = false;
                    if eff_rate(js, state, h, j, cap, dt, rail) >= tol {
                        queue.push(ju);
                    }
                }
            }
        }
        t += dt;
        steps += 1;
        if let Some(tr) = trace.as_deref_mut() {
            tr.record(t, state);
        }
    }

    // Final rate from fresh currents (the convergence path left `js`
    // fresh; the budget-exhausted path may not have).
    if !converged {
        coupling.matvec(state, js);
    }
    let final_rate = (0..n)
        .filter(|&i| free[i])
        .map(|i| eff_rate(js, state, h, i, cap, dt, rail))
        .fold(0.0, f64::max);

    dspu.nodes.workspace = ws;
    if dspu.telemetry.is_enabled() {
        dspu.telemetry
            .counter_add("anneal.drain_validations", drain_validations);
        dspu.telemetry
            .record("anneal.active_set_peak", active_peak as f64);
    }
    AnnealReport {
        converged,
        steps,
        sim_time_ns: t,
        final_rate,
        energy: dspu.energy(),
        sparse_steps,
        mean_active_fraction: if steps > 0 { frac_sum / steps as f64 } else { 0.0 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convergence::max_abs_diff;
    use crate::coupling::Coupling;
    use crate::noise::NoiseModel;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn random_machine(n: usize, density: f64, seed: u64) -> RealValuedDspu {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut j = Coupling::zeros(n);
        for i in 0..n {
            for k in (i + 1)..n {
                if rng.random::<f64>() < density {
                    j.set(i, k, (rng.random::<f64>() - 0.5) * 0.6);
                }
            }
        }
        let h: Vec<f64> = (0..n).map(|_| -1.5 - rng.random::<f64>()).collect();
        let mut d = RealValuedDspu::new(j, h).unwrap();
        for i in 0..n / 2 {
            d.clamp(i, (rng.random::<f64>() - 0.5) * 1.2).unwrap();
        }
        d.randomize_free(&mut rng);
        d
    }

    fn adaptive_config() -> AnnealConfig {
        AnnealConfig {
            mode: EngineMode::adaptive(),
            ..AnnealConfig::default()
        }
    }

    #[test]
    fn adaptive_matches_strict_equilibrium() {
        for seed in 0..5 {
            let mut strict = random_machine(24, 0.3, seed);
            let mut adaptive = strict.clone();
            let mut rng = StdRng::seed_from_u64(99);
            let rs = strict.run(&AnnealConfig::default(), &mut rng);
            let ra = adaptive.run(&adaptive_config(), &mut rng);
            assert!(rs.converged && ra.converged, "seed {seed}: {rs:?} {ra:?}");
            let diff = max_abs_diff(strict.state(), adaptive.state());
            assert!(diff < 1e-3, "seed {seed}: equilibria diverged by {diff}");
            assert!(ra.sparse_steps > 0, "sparse path never engaged");
            assert!(
                ra.mean_active_fraction < 1.0,
                "active set never shrank: {}",
                ra.mean_active_fraction
            );
        }
    }

    #[test]
    fn adaptive_tight_tolerance_matches_within_1e6() {
        let tight = |mode| AnnealConfig {
            tolerance: 1e-9,
            max_time_ns: 20_000.0,
            mode,
            ..AnnealConfig::default()
        };
        for seed in 0..3 {
            let mut strict = random_machine(16, 0.4, seed);
            let mut adaptive = strict.clone();
            let mut rng = StdRng::seed_from_u64(7);
            let rs = strict.run(&tight(EngineMode::Strict), &mut rng);
            let ra = adaptive.run(&tight(EngineMode::adaptive()), &mut rng);
            assert!(rs.converged && ra.converged);
            let diff = max_abs_diff(strict.state(), adaptive.state());
            assert!(diff < 1e-6, "seed {seed}: {diff}");
        }
    }

    #[test]
    fn adaptive_converges_immediately_from_equilibrium() {
        let mut d = random_machine(20, 0.3, 3);
        let mut rng = StdRng::seed_from_u64(1);
        d.run(&adaptive_config(), &mut rng);
        // Re-running from the reached equilibrium drains instantly.
        let report = d.run(&adaptive_config(), &mut rng);
        assert!(report.converged);
        assert!(
            report.steps <= 2,
            "warm re-run should be nearly free: {} steps",
            report.steps
        );
    }

    #[test]
    fn adaptive_respects_budget() {
        let mut d = random_machine(16, 0.4, 4);
        let cfg = AnnealConfig {
            tolerance: 0.0, // unreachable: every free node always active
            max_time_ns: 10.0,
            mode: EngineMode::adaptive(),
            ..AnnealConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(5);
        let report = d.run(&cfg, &mut rng);
        assert!(!report.converged);
        assert!(report.sim_time_ns <= 10.0 + 1e-9);
    }

    #[test]
    fn noise_falls_back_to_strict() {
        let mut d = random_machine(12, 0.3, 6);
        let mut cfg = adaptive_config();
        cfg.noise = NoiseModel::relative(0.02);
        let mut rng = StdRng::seed_from_u64(2);
        let report = d.run(&cfg, &mut rng);
        // Strict path reports full occupancy and no sparse steps.
        assert_eq!(report.sparse_steps, 0);
        assert_eq!(report.mean_active_fraction, 1.0);
    }

    #[test]
    fn strict_mode_bit_identical_to_legacy_default() {
        // EngineMode::Strict is the default: running with an explicit
        // Strict mode must reproduce the default config bit-for-bit.
        let run = |cfg: AnnealConfig| {
            let mut d = random_machine(10, 0.4, 8);
            let mut rng = StdRng::seed_from_u64(3);
            d.run(&cfg, &mut rng);
            d.state().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        };
        assert_eq!(
            run(AnnealConfig::default()),
            run(AnnealConfig {
                mode: EngineMode::Strict,
                ..AnnealConfig::default()
            })
        );
    }

    #[test]
    fn fully_clamped_machine_converges_instantly() {
        let mut j = Coupling::zeros(3);
        j.set(0, 1, 0.5);
        let mut d = RealValuedDspu::new(j, vec![-1.0; 3]).unwrap();
        for i in 0..3 {
            d.clamp(i, 0.1 * i as f64).unwrap();
        }
        let mut rng = StdRng::seed_from_u64(0);
        let report = d.run(&adaptive_config(), &mut rng);
        assert!(report.converged);
        assert_eq!(report.steps, 0);
        assert_eq!(d.state(), &[0.0, 0.1, 0.2]);
    }

    #[test]
    fn traced_adaptive_records_every_step() {
        let mut d = random_machine(12, 0.4, 9);
        let cfg = AnnealConfig {
            dt_ns: 1.0,
            mode: EngineMode::adaptive(),
            ..AnnealConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(4);
        let (report, trace) = d.run_traced(&cfg, 1.0, &mut rng);
        assert!(report.converged);
        assert!(trace.len() >= report.steps.min(2));
    }
}
