//! The baseline binary BRIM machine (Afoakwa et al., HPCA'21).
//!
//! BRIM nodes have *no* regulating resistor: incoming coupling current
//! charges the nano-capacitor until it saturates at a rail, so free nodes
//! polarise to ±1 — the behaviour paper Fig. 4 contrasts with the DSPU.
//! A small bistable latch gain models the positive feedback that makes
//! the node genuinely two-state, and a random-flip schedule provides the
//! annealing control used for combinatorial problems such as max-cut.

use crate::anneal::{AnnealConfig, AnnealReport, FlipSchedule, Integrator};
use crate::coupling::Coupling;
use crate::error::IsingError;
use crate::hamiltonian::ising_energy;
use crate::integrate::Nodes;
use crate::noise::NoiseModel;
use crate::sparse::SparseCoupling;
use crate::trace::Trace;
use rand::{Rng, RngExt};

/// A simulated BRIM: bistable resistively-coupled Ising machine.
///
/// # Example
///
/// ```
/// use dsgl_ising::{Coupling, Brim, AnnealConfig, FlipSchedule};
/// use rand::SeedableRng;
///
/// // Antiferromagnetic pair: ground states are (+1, -1) / (-1, +1).
/// let mut j = Coupling::zeros(2);
/// j.set(0, 1, -1.0);
/// let mut brim = Brim::new(j, vec![0.0, 0.0]).unwrap();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(4);
/// brim.randomize(&mut rng);
/// brim.anneal(&AnnealConfig::with_budget(200.0), &FlipSchedule::default(), &mut rng);
/// let s = brim.spins();
/// assert_eq!(s[0] * s[1], -1);
/// ```
#[derive(Debug, Clone)]
pub struct Brim {
    coupling: SparseCoupling,
    dense: Coupling,
    h: Vec<f64>,
    /// Node bank whose self-feedback is the latch gain `λ = 0.5`.
    nodes: Nodes,
}

impl Brim {
    /// Builds a BRIM from a coupling matrix and external-field vector.
    ///
    /// # Errors
    ///
    /// Returns [`IsingError::DimensionMismatch`] when `h.len() != n` and
    /// [`IsingError::NonFinite`] for non-finite `h`.
    pub fn new(coupling: Coupling, h: Vec<f64>) -> Result<Self, IsingError> {
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
        Ok(Brim {
            coupling: SparseCoupling::from_dense(&coupling),
            dense: coupling,
            h,
            nodes: Nodes::new(vec![0.5; n]),
        })
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.h.len()
    }

    /// Overrides the node capacitance (default [`crate::RC_NS`]).
    ///
    /// # Errors
    ///
    /// Returns [`IsingError::InvalidParameter`] unless `c` is finite and
    /// positive.
    pub fn set_capacitance(&mut self, c: f64) -> Result<(), IsingError> {
        self.nodes.set_capacitance(c)
    }

    /// Current node voltages.
    pub fn state(&self) -> &[f64] {
        &self.nodes.state
    }

    /// Binary spin readout: the sign of each voltage (`+1` for zero).
    pub fn spins(&self) -> Vec<i8> {
        self.nodes
            .state
            .iter()
            .map(|&v| if v < 0.0 { -1 } else { 1 })
            .collect()
    }

    /// Clamps node `i` to a rail-bounded value (an input node).
    ///
    /// # Errors
    ///
    /// Same contract as [`crate::RealValuedDspu::clamp`].
    pub fn clamp(&mut self, i: usize, value: f64) -> Result<(), IsingError> {
        self.nodes.clamp(i, value)
    }

    /// Initialises free nodes uniformly in `[-rail/10, rail/10]`.
    pub fn randomize<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        self.nodes.randomize_free(rng);
    }

    /// Current Ising energy of the (binarised) spins.
    pub fn energy(&self) -> f64 {
        let spins: Vec<f64> = self.spins().iter().map(|&s| s as f64).collect();
        ising_energy(&self.dense, &self.h, &spins)
    }

    /// Advances one Euler step: `C·dσᵢ/dt = ΣⱼJᵢⱼσⱼ + hᵢ + λσᵢ`.
    ///
    /// The positive latch gain `λ` destabilises the origin, so free nodes
    /// polarise towards a rail (contrast with the DSPU's negative `h`).
    ///
    /// # Panics
    ///
    /// Panics if `dt_ns <= 0`.
    pub fn step<R: Rng + ?Sized>(&mut self, dt_ns: f64, noise: &NoiseModel, rng: &mut R) {
        let (coupling, h) = (&self.coupling, &self.h);
        let mut currents = |_, s: &[f64], js: &mut [f64]| {
            coupling.matvec(s, js);
            for (j, &b) in js.iter_mut().zip(h) {
                *j += b;
            }
        };
        self.nodes
            .step(Integrator::Euler, 0.0, dt_ns, noise, rng, &mut currents);
    }

    /// Runs annealing: continuous dynamics plus scheduled random flips
    /// (the node-control unit flipping binary values at runtime).
    pub fn anneal<R: Rng + ?Sized>(
        &mut self,
        config: &AnnealConfig,
        flips: &FlipSchedule,
        rng: &mut R,
    ) -> AnnealReport {
        self.anneal_inner(config, flips, rng, None)
    }

    /// Like [`anneal`](Self::anneal) but records a voltage [`Trace`].
    pub fn anneal_traced<R: Rng + ?Sized>(
        &mut self,
        config: &AnnealConfig,
        flips: &FlipSchedule,
        stride_ns: f64,
        rng: &mut R,
    ) -> (AnnealReport, Trace) {
        let mut trace = Trace::new(stride_ns);
        let report = self.anneal_inner(config, flips, rng, Some(&mut trace));
        (report, trace)
    }

    fn anneal_inner<R: Rng + ?Sized>(
        &mut self,
        config: &AnnealConfig,
        flips: &FlipSchedule,
        rng: &mut R,
        mut trace: Option<&mut Trace>,
    ) -> AnnealReport {
        let mut t = 0.0;
        let mut steps = 0;
        let mut best_energy = self.energy();
        let mut best_state = self.nodes.state.clone();
        if let Some(tr) = trace.as_deref_mut() {
            tr.record(0.0, &self.nodes.state);
        }
        while t < config.max_time_ns {
            let p = flips.probability(t, config.dt_ns);
            if p > 0.0 {
                for i in 0..self.n() {
                    if self.nodes.free[i] && rng.random::<f64>() < p {
                        self.nodes.state[i] = -self.nodes.state[i];
                    }
                }
            }
            self.step(config.dt_ns, &config.noise, rng);
            t += config.dt_ns;
            steps += 1;
            if let Some(tr) = trace.as_deref_mut() {
                tr.record(t, &self.nodes.state);
            }
            if steps % config.check_every == 0 {
                let e = self.energy();
                if e < best_energy {
                    best_energy = e;
                    best_state.copy_from_slice(&self.nodes.state);
                }
            }
        }
        // Keep the best configuration visited (standard annealing readout).
        if self.energy() > best_energy {
            self.nodes.state.copy_from_slice(&best_state);
        }
        AnnealReport {
            converged: true,
            steps,
            sim_time_ns: t,
            final_rate: 0.0,
            energy: self.energy(),
            sparse_steps: 0,
            mean_active_fraction: 1.0,
        }
    }

    /// Cut value of the current spin configuration for a max-cut instance
    /// programmed as `Jᵢⱼ = -wᵢⱼ`: the total weight of edges whose
    /// endpoints disagree.
    pub fn cut_value(&self) -> f64 {
        let spins = self.spins();
        let mut cut = 0.0;
        for i in 0..self.n() {
            for (j, w) in self.coupling.row(i) {
                if j > i && spins[i] != spins[j] {
                    cut += -w; // J = -w  =>  w = -J
                }
            }
        }
        cut
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn construction_validates() {
        let j = Coupling::zeros(2);
        assert!(Brim::new(j.clone(), vec![0.0]).is_err());
        assert!(Brim::new(j, vec![0.0, f64::INFINITY]).is_err());
    }

    #[test]
    fn capacitance_setter_validates() {
        let mut b = Brim::new(Coupling::zeros(2), vec![0.0; 2]).unwrap();
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                b.set_capacitance(bad),
                Err(IsingError::InvalidParameter { .. })
            ));
        }
        b.set_capacitance(25.0).unwrap();
    }

    #[test]
    fn free_nodes_polarise() {
        // Ferromagnetic chain driven by a clamped node: every free node
        // should saturate at a rail, not an interior value.
        let mut j = Coupling::zeros(4);
        j.set(0, 1, 1.0);
        j.set(1, 2, 1.0);
        j.set(2, 3, 1.0);
        let mut brim = Brim::new(j, vec![0.0; 4]).unwrap();
        brim.clamp(0, 0.4).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        brim.randomize(&mut rng);
        brim.anneal(
            &AnnealConfig::with_budget(3_000.0),
            &FlipSchedule::none(),
            &mut rng,
        );
        for i in 1..4 {
            assert!(
                brim.state()[i].abs() > 0.99,
                "node {i} did not polarise: {}",
                brim.state()[i]
            );
        }
    }

    #[test]
    fn maxcut_triangle() {
        // Unit triangle: best cut = 2. Program J = -w.
        let mut j = Coupling::zeros(3);
        j.set(0, 1, -1.0);
        j.set(1, 2, -1.0);
        j.set(0, 2, -1.0);
        let mut brim = Brim::new(j, vec![0.0; 3]).unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        brim.randomize(&mut rng);
        brim.anneal(
            &AnnealConfig::with_budget(5_000.0),
            &FlipSchedule::default(),
            &mut rng,
        );
        assert_eq!(brim.cut_value(), 2.0);
    }

    #[test]
    fn maxcut_bipartite_optimal() {
        // K_{3,3} has max cut 9 (all 9 edges cross).
        let mut j = Coupling::zeros(6);
        for a in 0..3 {
            for b in 3..6 {
                j.set(a, b, -1.0);
            }
        }
        let mut brim = Brim::new(j, vec![0.0; 6]).unwrap();
        let mut rng = StdRng::seed_from_u64(21);
        brim.randomize(&mut rng);
        brim.anneal(
            &AnnealConfig::with_budget(5_000.0),
            &FlipSchedule::default(),
            &mut rng,
        );
        assert_eq!(brim.cut_value(), 9.0);
    }

    #[test]
    fn spins_sign_readout() {
        let j = Coupling::zeros(3);
        let mut brim = Brim::new(j, vec![0.0; 3]).unwrap();
        brim.clamp(0, -0.5).unwrap();
        brim.clamp(1, 0.5).unwrap();
        assert_eq!(brim.spins(), vec![-1, 1, 1]);
    }

    #[test]
    fn traced_anneal_records_polarisation() {
        let mut j = Coupling::zeros(2);
        j.set(0, 1, 1.0);
        let mut brim = Brim::new(j, vec![0.0; 2]).unwrap();
        brim.clamp(0, 0.5).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        brim.randomize(&mut rng);
        let (report, trace) = brim.anneal_traced(
            &AnnealConfig::with_budget(2_000.0),
            &FlipSchedule::none(),
            100.0,
            &mut rng,
        );
        assert!(trace.len() >= 10, "trace too short: {}", trace.len());
        assert!(report.sim_time_ns >= 2_000.0 - 1.0);
        // The free node's trajectory is monotone toward the +1 rail.
        let series = trace.series(1);
        assert!(series.last().unwrap().1 > 0.99, "did not polarise");
        for win in series.windows(2) {
            assert!(win[1].1 >= win[0].1 - 1e-9, "trajectory not monotone");
        }
    }

    #[test]
    fn capacitance_override_speeds_polarisation() {
        let make = |c: f64| {
            let mut j = Coupling::zeros(2);
            j.set(0, 1, 1.0);
            let mut b = Brim::new(j, vec![0.0; 2]).unwrap();
            b.set_capacitance(c).unwrap();
            b.clamp(0, 0.5).unwrap();
            let mut rng = StdRng::seed_from_u64(5);
            b.randomize(&mut rng);
            b.anneal(
                &AnnealConfig::with_budget(300.0),
                &FlipSchedule::none(),
                &mut rng,
            );
            b.state()[1]
        };
        let fast = make(10.0); // RC = 10 ns
        let slow = make(400.0);
        assert!(fast > slow, "smaller C should polarise faster: {fast} vs {slow}");
    }

    #[test]
    fn deterministic() {
        let run = |seed| {
            let mut j = Coupling::zeros(4);
            j.set(0, 1, -1.0);
            j.set(2, 3, -1.0);
            let mut brim = Brim::new(j, vec![0.0; 4]).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            brim.randomize(&mut rng);
            brim.anneal(
                &AnnealConfig::with_budget(1_000.0),
                &FlipSchedule::default(),
                &mut rng,
            );
            brim.spins()
        };
        assert_eq!(run(3), run(3));
    }
}
