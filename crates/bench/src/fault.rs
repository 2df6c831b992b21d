//! Fault-injection campaign: RMSE degradation under persistent defects.
//!
//! The paper's Fig. 13 sweeps *transient* Gaussian noise; this module
//! extends the robustness story to *hard* faults — stuck nodes, dead
//! couplers, frozen conductance drift (see `dsgl_ising::fault`) and
//! mesh-level dead PEs / dead CU lanes (see `dsgl_hw::fault`). For each
//! fault class a rate is swept; at every point a population of
//! defective machines (one per test window, sampled deterministically
//! from the seed) runs guarded inference, and the campaign records the
//! test RMSE together with how hard the guard had to work (retries,
//! degraded windows). `tests/bounds.rs` holds the smoke campaign to
//! [`FaultCampaignReport::smoke_bound`].

use crate::pipeline::{decompose_model, hw_config, prepare, train_dense, Prepared, Scale};
use dsgl_core::guard::infer_dense_guarded;
use dsgl_core::{DsGlModel, GuardedAnneal, PatternKind, RunCtx};
use dsgl_hw::coanneal::MappedMachine;
use dsgl_hw::{HwConfig, HwFaultModel};
use dsgl_ising::fault::FaultModel;
use dsgl_ising::AnnealConfig;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Smoke-mode acceptance bound: at every swept fault rate the guarded
/// RMSE must stay below `clean_rmse · FACTOR` or the absolute floor,
/// whichever is larger. The floor covers datasets whose clean RMSE is
/// tiny (a 25× multiple of 0.003 would be stricter than the fault-free
/// noise floor); the factor covers everything else. Calibrated against
/// the quick-scale covid campaign at seed 7, whose worst point
/// (stuck_node at a 10% rate) reaches ≈0.31 — a ~1.6× margin under the
/// floor. The campaign is a pure function of its seed, so a breach
/// means the guard stopped containing faults, not statistical bad luck.
pub const SMOKE_RMSE_FACTOR: f64 = 25.0;
/// Absolute component of the smoke bound, in rail units.
pub const SMOKE_RMSE_FLOOR: f64 = 0.5;

/// One swept point of one fault class.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPoint {
    /// The swept knob: a per-node/per-coupling fault probability, a
    /// drift σ, or a fraction of dead mesh resources, per class.
    pub rate: f64,
    /// Guarded test RMSE over all evaluated windows.
    pub rmse: f64,
    /// Total guard retries across windows.
    pub retries: usize,
    /// Windows whose result was degraded (sanitised output or
    /// fallback-clamped faulted readouts).
    pub degraded: usize,
}

/// The sweep of one fault class.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultClassReport {
    /// Fault class name (`stuck_node`, `dead_coupler`, `coupler_drift`,
    /// `dead_pe`, `dead_cu_lane`).
    pub class: String,
    /// Points in sweep order (first point is always the clean rate 0).
    pub points: Vec<FaultPoint>,
}

/// The full campaign result.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultCampaignReport {
    /// Fault-free guarded RMSE (the degradation baseline).
    pub clean_rmse: f64,
    /// One sweep per fault class.
    pub classes: Vec<FaultClassReport>,
}

impl FaultCampaignReport {
    /// Largest RMSE across every class and point.
    pub fn worst_rmse(&self) -> f64 {
        self.classes
            .iter()
            .flat_map(|c| c.points.iter())
            .map(|p| p.rmse)
            .fold(self.clean_rmse, f64::max)
    }

    /// The smoke bound for this campaign's clean baseline.
    pub fn smoke_bound(&self) -> f64 {
        (self.clean_rmse * SMOKE_RMSE_FACTOR).max(SMOKE_RMSE_FLOOR)
    }
}

/// Campaign sizing. The campaign trains on the `covid` dataset.
#[derive(Debug, Clone)]
pub struct FaultCampaignConfig {
    /// Experiment scale (train size, test cap, PE grid).
    pub scale: Scale,
    /// Master seed; the whole campaign is a pure function of it.
    pub seed: u64,
    /// Per-node stuck / per-coupling dead probabilities swept.
    pub rates: Vec<f64>,
    /// Frozen conductance-drift σ values swept.
    pub drifts: Vec<f64>,
    /// Fraction of stuck nodes that read back NaN instead of a level.
    pub nan_fraction: f64,
}

impl FaultCampaignConfig {
    /// Smoke sizing: quick scale with 6 test windows, every fault class
    /// at a few rates.
    pub fn smoke(seed: u64) -> Self {
        let mut scale = Scale::quick();
        scale.test_cap = 6;
        FaultCampaignConfig {
            scale,
            seed,
            rates: vec![0.0, 0.05, 0.10],
            drifts: vec![0.0, 0.10],
            nan_fraction: 0.25,
        }
    }
}

/// Evaluates one dense fault-class point: each test window runs on its
/// own defective machine sampled by `make_faults` from a per-window
/// seeded RNG, under guarded annealing.
fn dense_point(
    model: &DsGlModel,
    p: &Prepared,
    guard: &GuardedAnneal,
    rate: f64,
    seed: u64,
    make_faults: impl Fn(&DsGlModel, f64, &mut StdRng) -> FaultModel,
) -> FaultPoint {
    let mut sse = 0.0;
    let mut count = 0usize;
    let mut retries = 0usize;
    let mut degraded = 0usize;
    // One scratch workspace migrates across every window of the point,
    // so only the first pays the stage-buffer allocations (buffers carry
    // capacity, never values — RMSE bits are unchanged).
    let mut pool = None;
    for (i, sample) in p.test.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(seed ^ (0xFA01 + i as u64).wrapping_mul(0x9E37_79B9));
        let faults = make_faults(model, rate, &mut rng);
        let mut ctx = RunCtx {
            faults: &faults,
            pool: pool.take(),
            ..RunCtx::default()
        };
        let (pred, _, health) = infer_dense_guarded(model, sample, guard, &mut rng, &mut ctx)
            .expect("guarded faulted inference");
        pool = ctx.pool;
        assert!(
            pred.iter().all(|v| v.is_finite()),
            "guarded prediction must be finite"
        );
        retries += health.retries;
        degraded += usize::from(health.degraded);
        for (pv, tv) in pred.iter().zip(&sample.target) {
            sse += (pv - tv) * (pv - tv);
            count += 1;
        }
    }
    FaultPoint {
        rate,
        rmse: (sse / count.max(1) as f64).sqrt(),
        retries,
        degraded,
    }
}

/// Evaluates one mesh fault-class point: a [`MappedMachine`] programmed
/// around the declared-dead resources runs every test window; target
/// entries on dead PEs (and any non-finite readout) are degraded to the
/// historical target mean, mirroring the facade's fallback path.
fn mapped_point(
    d: &dsgl_core::DecomposedModel,
    p: &Prepared,
    hw: &HwConfig,
    faults: &HwFaultModel,
    fallback: &[f64],
    rate: f64,
    seed: u64,
) -> FaultPoint {
    let mut machine =
        MappedMachine::with_faults(d, hw.lanes, faults).expect("mapped fault machine");
    let faulted_targets = machine.faulted_target_indices();
    let mut sse = 0.0;
    let mut count = 0usize;
    let mut degraded = 0usize;
    let mut rng = StdRng::seed_from_u64(seed ^ 0xFA02);
    for sample in &p.test {
        machine.load_sample(sample, &mut rng).expect("load sample");
        machine.run(hw, &mut rng);
        let mut pred = machine.prediction();
        let mut patched = 0usize;
        for &idx in &faulted_targets {
            pred[idx] = fallback[idx];
            patched += 1;
        }
        for (v, &fb) in pred.iter_mut().zip(fallback) {
            if !v.is_finite() {
                *v = fb;
                patched += 1;
            }
        }
        degraded += usize::from(patched > 0);
        for (pv, tv) in pred.iter().zip(&sample.target) {
            sse += (pv - tv) * (pv - tv);
            count += 1;
        }
    }
    FaultPoint {
        rate,
        rmse: (sse / count.max(1) as f64).sqrt(),
        retries: 0,
        degraded,
    }
}

/// Per-index mean of the training targets — the fallback a dead PE's
/// outputs degrade to.
fn historical_means(p: &Prepared) -> Vec<f64> {
    let target_len = p.layout.target_len();
    let mut means = vec![0.0; target_len];
    if p.train.is_empty() {
        return means;
    }
    for s in &p.train {
        for (m, &t) in means.iter_mut().zip(&s.target) {
            *m += t;
        }
    }
    let inv = 1.0 / p.train.len() as f64;
    means.iter_mut().for_each(|m| *m *= inv);
    means
}

/// Runs the full campaign: trains the model once, then sweeps every
/// fault class. Deterministic in the config.
pub fn run_campaign(cfg: &FaultCampaignConfig) -> FaultCampaignReport {
    let p = prepare("covid", &cfg.scale, cfg.seed);
    let (model, _) = train_dense(&p, &cfg.scale, cfg.seed);
    let guard = GuardedAnneal::new(AnnealConfig::default());
    let nan_fraction = cfg.nan_fraction;

    let clean = dense_point(&model, &p, &guard, 0.0, cfg.seed, |_, _, _| FaultModel::none());

    let stuck = FaultClassReport {
        class: "stuck_node".into(),
        points: cfg
            .rates
            .iter()
            .map(|&r| {
                dense_point(&model, &p, &guard, r, cfg.seed, |m, rate, rng| {
                    FaultModel::sampled(m.coupling(), rate, 0.0, 0.0, nan_fraction, rng)
                })
            })
            .collect(),
    };
    let dead = FaultClassReport {
        class: "dead_coupler".into(),
        points: cfg
            .rates
            .iter()
            .map(|&r| {
                dense_point(&model, &p, &guard, r, cfg.seed, |m, rate, rng| {
                    FaultModel::sampled(m.coupling(), 0.0, rate, 0.0, 0.0, rng)
                })
            })
            .collect(),
    };
    let drift = FaultClassReport {
        class: "coupler_drift".into(),
        points: cfg
            .drifts
            .iter()
            .map(|&sigma| {
                dense_point(&model, &p, &guard, sigma, cfg.seed, |m, s, rng| {
                    FaultModel::sampled(m.coupling(), 0.0, 0.0, s, 0.0, rng)
                })
            })
            .collect(),
    };

    // Mesh-level classes on the decomposed machine.
    let d = decompose_model(&model, &p, &cfg.scale, 0.15, PatternKind::DMesh, cfg.seed);
    let hw = hw_config(&p, &cfg.scale);
    let fallback = historical_means(&p);
    let pes = cfg.scale.pe_grid.0 * cfg.scale.pe_grid.1;
    let mut pe_rng = StdRng::seed_from_u64(cfg.seed ^ 0xDEAD);
    let dead_pe = FaultClassReport {
        class: "dead_pe".into(),
        points: [0.0, 1.0 / pes as f64, 2.0 / pes as f64]
            .iter()
            .map(|&frac| {
                let n_dead = (frac * pes as f64).round() as usize;
                let mut dead_pes = Vec::new();
                while dead_pes.len() < n_dead {
                    let pe = pe_rng.random_range(0..pes);
                    if !dead_pes.contains(&pe) {
                        dead_pes.push(pe);
                    }
                }
                let faults = HwFaultModel {
                    dead_pes,
                    dead_cu_lanes: vec![],
                };
                mapped_point(&d, &p, &hw, &faults, &fallback, frac, cfg.seed)
            })
            .collect(),
    };
    // CU lanes: sever a growing subset of the PE-pair links actually in
    // use (adjacent grid pairs in row-major order).
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    let (rows, cols) = cfg.scale.pe_grid;
    for r in 0..rows {
        for c in 0..cols {
            let pe = r * cols + c;
            if c + 1 < cols {
                pairs.push((pe, pe + 1));
            }
            if r + 1 < rows {
                pairs.push((pe, pe + cols));
            }
        }
    }
    let dead_lane = FaultClassReport {
        class: "dead_cu_lane".into(),
        points: [0.0, 0.25, 0.5]
            .iter()
            .map(|&frac| {
                let n_dead = (frac * pairs.len() as f64).round() as usize;
                let faults = HwFaultModel {
                    dead_pes: vec![],
                    dead_cu_lanes: pairs[..n_dead].to_vec(),
                };
                mapped_point(&d, &p, &hw, &faults, &fallback, frac, cfg.seed)
            })
            .collect(),
    };

    FaultCampaignReport {
        clean_rmse: clean.rmse,
        classes: vec![stuck, dead, drift, dead_pe, dead_lane],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_campaign_is_deterministic_and_bounded() {
        let cfg = {
            let mut c = FaultCampaignConfig::smoke(7);
            // Keep the unit test fast: tiny model, one fault rate.
            c.scale.nodes = 10;
            c.scale.steps = 80;
            c.scale.test_cap = 3;
            c.rates = vec![0.0, 0.10];
            c.drifts = vec![0.10];
            c
        };
        let a = run_campaign(&cfg);
        let b = run_campaign(&cfg);
        assert_eq!(a, b, "campaign must be a pure function of its config");
        assert_eq!(a.classes.len(), 5);
        assert!(a.clean_rmse.is_finite() && a.clean_rmse > 0.0);
        for class in &a.classes {
            for point in &class.points {
                assert!(
                    point.rmse.is_finite(),
                    "{}@{}: non-finite rmse",
                    class.class,
                    point.rate
                );
            }
        }
        // Faulted classes at nonzero rate must show *some* degradation
        // signal — either a worse RMSE or guard/fallback activity.
        let stuck = &a.classes[0];
        let worst = stuck.points.last().unwrap();
        assert!(
            worst.rmse >= a.clean_rmse || worst.degraded > 0 || worst.retries > 0,
            "a 10% stuck-node rate must leave a trace: {worst:?}"
        );
        assert!(a.worst_rmse() <= a.smoke_bound(), "bound: {}", a.smoke_bound());
    }
}
