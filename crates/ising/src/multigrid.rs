//! Multigrid warm starts: Louvain-coarsened coarse solves prolonged
//! back onto the fine machine (the multi-resolution annealing layer).
//!
//! Natural annealing of a [`RealValuedDspu`] spends most of its steps
//! moving *long-wavelength* error: the mean voltage of a strongly-coupled
//! community drifts toward equilibrium at the pace of its slowest
//! inter-community interaction. A coarse machine — one node per
//! community — moves exactly that component at a fraction of the cost,
//! because it has orders of magnitude fewer nodes. This module builds
//! that coarse machine, anneals it, and injects the result back into the
//! fine machine as a warm start, so the expensive fine anneal only has
//! to correct the *intra-community* residual.
//!
//! # Construction
//!
//! Only the free subgraph participates. With `A, B` ranging over
//! communities of the free nodes:
//!
//! - coarse coupling `J̃_AB = Σ_{i∈A, j∈B} J_ij` (signed block sum);
//! - coarse self-reaction `h̃_A = Σ_{i∈A} h_i + 2·Σ_{i<j∈A} J_ij`
//!   (intra-community couplings fold into the quadratic self-term,
//!   since a piecewise-constant state has `σᵢ = σⱼ` inside `A`);
//! - the drive from clamped fine nodes, `B_A = Σ_{i∈A, j clamped}
//!   J_ij·σⱼ`, is carried by one extra *bias node* clamped at `+rail`
//!   and coupled to `A` with weight `B_A / rail`.
//!
//! On piecewise-constant states the fine and coarse Hamiltonians then
//! agree exactly, up to a state-independent constant (the clamped-clamped
//! and clamped-self terms the coarse machine does not model) — the
//! property test below checks energy *differences* to machine precision.
//! If any `h̃_A` fails the negativity invariant the coarsening is
//! rejected and the caller falls back to a cold start.
//!
//! # Determinism contract
//!
//! The warm start is a pure function of the machine (couplings, `h`,
//! clamps, state): Louvain runs from a fixed internal seed, the coarse
//! init restricts the already-randomized fine state (zero extra RNG
//! draws), and coarse anneals are noiseless. Fixed seed in, identical
//! warm start out — across reruns, thread counts, and SIMD builds.

use crate::anneal::{AnnealConfig, Integrator};
use crate::dspu::RealValuedDspu;
use crate::engine::EngineMode;
use crate::noise::NoiseModel;
use crate::sparse::SparseCoupling;
use crate::workspace::Workspace;
use dsgl_graph::{Coarsening, CsrGraph, Louvain};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// Metric names of the `mg.*` instrument family reported by multigrid
/// warm starts. Names are frozen (dashboards key on them).
pub mod instruments {
    /// Distribution: coarse levels actually built per warm start.
    pub const LEVELS: &str = "mg.levels";
    /// Counter: integration steps spent on coarse machines.
    pub const COARSE_STEPS: &str = "mg.coarse_steps";
    /// Counter: prolongations (coarse→fine state injections).
    pub const PROLONGATIONS: &str = "mg.prolongations";
    /// Counter: fine-level steps saved versus the annealing budget
    /// (recorded by the inference driver after the fine run).
    pub const FINE_STEPS_SAVED: &str = "mg.fine_steps_saved";
}

/// Fixed internal Louvain seed: the warm start must be a pure function
/// of the machine, never of caller RNG state, so request coalescing and
/// batch grouping stay bit-invisible.
const COARSEN_SEED: u64 = 0x6473_676c_2d6d_6721;

/// Below this many free nodes a coarse solve cannot pay for itself;
/// the warm start degrades to a no-op (`None` → cold start).
const MIN_COARSEN_FREE: usize = 16;

/// A coarsening must shrink the free set by at least 10% to be worth a
/// level (Louvain occasionally returns near-singleton partitions on
/// structureless graphs).
const MAX_KEEP_NUM: usize = 9;
/// Denominator of the shrink requirement (`coarse·10 ≤ fine·9`).
const MAX_KEEP_DEN: usize = 10;

/// Sweep/level caps for the internal Louvain runs: the partition only
/// seeds a warm start, so a near-modular partition found quickly beats
/// a converged one found slowly (Louvain wall time counts against the
/// multigrid speedup).
const MG_LOUVAIN_SWEEPS: usize = 8;
const MG_LOUVAIN_LEVELS: usize = 3;

/// Tuning knobs of a multigrid warm start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultigridOptions {
    /// Maximum number of coarse levels to build (each level coarsens
    /// the previous one; building stops early when a level stops
    /// shrinking). `0` is treated as `1`.
    pub levels: usize,
    /// Convergence tolerance for the coarse solves, in rail fractions
    /// per ns. Typically much looser than the fine tolerance: the fine
    /// anneal polishes whatever the coarse solve leaves.
    pub coarse_tol: f64,
}

impl Default for MultigridOptions {
    /// One coarse level, coarse tolerance `1e-3`.
    fn default() -> Self {
        MultigridOptions {
            levels: 1,
            coarse_tol: 1e-3,
        }
    }
}

/// What a multigrid warm start actually did.
#[derive(Debug, Clone, PartialEq)]
pub struct MultigridReport {
    /// Coarse levels built and solved.
    pub levels: usize,
    /// Total integration steps across all coarse solves.
    pub coarse_steps: usize,
    /// Prolongations performed (one per level, coarsest last).
    pub prolongations: usize,
    /// Free-node count of each coarse level, finest first (excludes
    /// each level's clamped bias node).
    pub coarse_nodes: Vec<usize>,
}

/// One level of the multigrid hierarchy: a coarse machine plus the
/// operators tying it to its parent.
struct Level {
    machine: RealValuedDspu,
    /// Parent free-node position → coarse block.
    assignment: Vec<usize>,
    /// Parent node ids of the free nodes, ascending.
    parent_free: Vec<usize>,
}

/// The window-invariant part of one coarse level: which parent free
/// node belongs to which block. Discovering this (Louvain) dominates
/// the cost of a warm start; everything else — coupling aggregation,
/// drive folding, state restriction — is a cheap linear pass.
struct LevelPartition {
    /// Parent free-node position → coarse block.
    assignment: Vec<usize>,
    /// Parent node ids of the free nodes, ascending.
    parent_free: Vec<usize>,
    /// Coarse block count (excluding the bias node).
    coarse: usize,
}

/// A reusable multigrid partition hierarchy.
///
/// The Louvain partitions depend only on the machine's coupling
/// *topology* and clamp mask, not on clamp values or state — so when
/// many machines share one graph (batch windows over one model, or
/// consecutive forecast windows), the hierarchy can be built once with
/// [`build_hierarchy`] and applied per machine with [`warm_start_with`],
/// skipping the dominant Louvain cost on all but the first call.
///
/// Applying a hierarchy to a machine with a *different* coupling
/// pattern or clamp mask is rejected (`None` → cold start) rather than
/// silently producing a bad warm start.
pub struct MultigridHierarchy {
    levels: Vec<LevelPartition>,
}

impl MultigridHierarchy {
    /// Number of coarse levels in the hierarchy.
    pub fn depth(&self) -> usize {
        self.levels.len()
    }
}

/// Free subgraph of a machine: `(free node ids (ascending), half-open
/// free-free coupling entries as positions into the free list,
/// per-free-node clamped drive)`.
type FreeSubgraph = (Vec<usize>, Vec<(u32, u32, f64)>, Vec<f64>);

/// Collects the free subgraph of `parent`: free node ids, ascending,
/// the half-open free-free coupling entries (positions into the free
/// list), and the per-free-node clamped drive `b_i = Σ_{j clamped}
/// J_ij σ_j`.
fn free_subgraph(parent: &RealValuedDspu) -> FreeSubgraph {
    let n = parent.n();
    let parent_free: Vec<usize> = (0..n).filter(|&i| parent.nodes.free[i]).collect();
    let nf = parent_free.len();
    let mut free_idx = vec![usize::MAX; n];
    for (fi, &i) in parent_free.iter().enumerate() {
        free_idx[i] = fi;
    }
    let mut ff_entries: Vec<(u32, u32, f64)> = Vec::new();
    let mut drive = vec![0.0f64; nf];
    for (fi, &i) in parent_free.iter().enumerate() {
        for (j, w) in parent.coupling.row(i) {
            if parent.nodes.free[j] {
                if j > i {
                    ff_entries.push((fi as u32, free_idx[j] as u32, w));
                }
            } else {
                drive[fi] += w * parent.nodes.state[j];
            }
        }
    }
    (parent_free, ff_entries, drive)
}

/// Discovers one level's partition on `parent`'s free subgraph, or
/// `None` when coarsening is not applicable (too few free nodes or no
/// useful shrink).
fn partition_of(parent: &RealValuedDspu, seed: u64) -> Option<LevelPartition> {
    let (parent_free, ff_entries, _) = free_subgraph(parent);
    let nf = parent_free.len();
    if nf < MIN_COARSEN_FREE {
        return None;
    }
    // Louvain clusters on coupling magnitude (sign encodes correlation
    // direction, magnitude encodes interaction strength).
    let abs_edges: Vec<(usize, usize, f64)> = ff_entries
        .iter()
        .filter(|&&(_, _, w)| w != 0.0)
        .map(|&(a, b, w)| (a as usize, b as usize, w.abs()))
        .collect();
    let graph = CsrGraph::from_edges(nf, &abs_edges).ok()?;
    let louvain = Louvain::new()
        .max_sweeps(MG_LOUVAIN_SWEEPS)
        .max_levels(MG_LOUVAIN_LEVELS);
    let mut rng = StdRng::seed_from_u64(seed);
    let communities = louvain.run(&graph, &mut rng);
    let coarsening = Coarsening::from_communities(&communities);
    let nc = coarsening.coarse_count();
    if nc == 0 || coarsening.is_trivial() || nc * MAX_KEEP_DEN > nf * MAX_KEEP_NUM {
        return None;
    }
    Some(LevelPartition {
        assignment: coarsening.assignment().to_vec(),
        parent_free,
        coarse: nc,
    })
}

/// Assembles the coarse machine of one level from its cached partition:
/// aggregates couplings and self-reactions, folds the clamped drive
/// into the bias node, and restricts the parent's state as the coarse
/// init. `None` when the partition does not match `parent`'s topology
/// or an aggregated self-reaction loses its negativity invariant.
fn assemble_level(parent: &RealValuedDspu, part: &LevelPartition) -> Option<Level> {
    let (parent_free, ff_entries, drive) = free_subgraph(parent);
    if parent_free != part.parent_free {
        return None;
    }
    let nf = parent_free.len();
    let nc = part.coarse;
    let assign = &part.assignment;
    if assign.len() != nf || assign.iter().any(|&c| c >= nc) {
        return None;
    }
    // Signed block aggregation of the free-free couplings.
    let mut intra = vec![0.0f64; nc];
    let mut inter: BTreeMap<(usize, usize), f64> = BTreeMap::new();
    for &(a, b, w) in &ff_entries {
        let (ca, cb) = (assign[a as usize], assign[b as usize]);
        if ca == cb {
            intra[ca] += w;
        } else {
            let key = if ca < cb { (ca, cb) } else { (cb, ca) };
            *inter.entry(key).or_insert(0.0) += w;
        }
    }
    // h̃_A = Σ h_i + 2·intra_A; the machine invariant h < 0 must
    // survive aggregation or the coarse system has no Lyapunov bound.
    let mut h_c = vec![0.0f64; nc + 1];
    for (fi, &i) in parent_free.iter().enumerate() {
        h_c[assign[fi]] += parent.nodes.h[i];
    }
    for (hc, &ia) in h_c.iter_mut().zip(&intra) {
        *hc += 2.0 * ia;
        if *hc >= 0.0 {
            return None;
        }
    }
    h_c[nc] = -1.0; // bias node: clamped, value irrelevant but must be < 0
    let rail = parent.nodes.rail;
    let mut block_drive = vec![0.0f64; nc];
    for (fi, &d) in drive.iter().enumerate() {
        block_drive[assign[fi]] += d;
    }
    let mut entries: Vec<(u32, u32, f64)> = inter
        .into_iter()
        .map(|((a, b), w)| (a as u32, b as u32, w))
        .collect();
    for (c, &bd) in block_drive.iter().enumerate() {
        if bd != 0.0 {
            // Bias node clamped at +rail × weight B_A/rail injects
            // exactly the aggregated clamped drive B_A into block A.
            entries.push((c as u32, nc as u32, bd / rail));
        }
    }
    let coupling = SparseCoupling::from_entries(nc + 1, &entries).ok()?;
    let mut machine = RealValuedDspu::from_sparse(coupling, h_c).ok()?;
    machine.set_rail(rail).ok()?;
    // Aggregated |h̃| grows with block size; stretch the coarse RC
    // constant to keep the Euler step dt·|h̃|/C inside the parent's
    // stability margin. Pure time reparametrisation — the fixed point
    // σ = -J̃σ/h̃ is untouched.
    let h_fine_max = parent_free
        .iter()
        .map(|&i| parent.nodes.h[i].abs())
        .fold(0.0f64, f64::max);
    let h_coarse_max = machine.nodes.h[..nc]
        .iter()
        .map(|v| v.abs())
        .fold(0.0f64, f64::max);
    let cap_scale = if h_fine_max > 0.0 {
        (h_coarse_max / h_fine_max).max(1.0)
    } else {
        1.0
    };
    machine
        .set_capacitance(parent.nodes.capacitance * cap_scale)
        .ok()?;
    machine.clamp(nc, rail).ok()?;
    // Coarse init restricts the parent's (already randomized) free
    // state — the warm start consumes zero RNG draws of its own.
    let mut sums = vec![0.0f64; nc];
    let mut counts = vec![0usize; nc];
    for (fi, &i) in parent_free.iter().enumerate() {
        sums[assign[fi]] += parent.nodes.state[i];
        counts[assign[fi]] += 1;
    }
    let mut init = vec![0.0f64; nc + 1];
    for ((v, s), &c) in init.iter_mut().zip(&sums).zip(&counts) {
        if c == 0 {
            return None;
        }
        *v = (s / c as f64).clamp(-rail, rail);
    }
    init[nc] = rail;
    machine.set_state(&init).ok()?;
    if let Some(token) = &parent.cancel {
        machine.set_cancel(token.clone());
    }
    Some(Level {
        machine,
        assignment: assign.clone(),
        parent_free,
    })
}

/// Writes the coarse block values of `level` onto its parent's free
/// nodes (piecewise-constant prolongation), clamped to the parent's
/// rails. Returns `false` if the prolonged state was rejected.
fn prolong_into(level: &Level, coarse_state: &[f64], parent: &mut RealValuedDspu) -> bool {
    let rail = parent.nodes.rail;
    let mut state = parent.nodes.state.clone();
    for (fi, &i) in level.parent_free.iter().enumerate() {
        state[i] = coarse_state[level.assignment[fi]].clamp(-rail, rail);
    }
    parent.set_state(&state).is_ok()
}

/// Builds the reusable partition hierarchy for `dspu`: up to
/// `opts.levels` Louvain coarsenings of the free subgraph, each level
/// partitioning the previous one's coarse machine.
///
/// The result depends only on the coupling topology and clamp mask, so
/// it can be shared across machines over the same graph (batch windows,
/// coalesced requests) via [`warm_start_with`] — amortising the Louvain
/// cost, which dominates a one-shot [`multigrid_warm_start`]. `None`
/// when no level can be built (the caller should cold-start).
pub fn build_hierarchy(
    dspu: &RealValuedDspu,
    opts: &MultigridOptions,
) -> Option<MultigridHierarchy> {
    if dspu.cancel_requested() {
        return None;
    }
    let max_levels = opts.levels.max(1);
    let mut partitions: Vec<LevelPartition> = Vec::new();
    // Levels below the first need their parent's *machine* to partition
    // against, so assemble transiently while building.
    let mut machines: Vec<RealValuedDspu> = Vec::new();
    for level in 0..max_levels {
        let parent: &RealValuedDspu = match machines.last() {
            Some(m) => m,
            None => dspu,
        };
        let Some(part) = partition_of(parent, COARSEN_SEED.wrapping_add(level as u64)) else {
            break;
        };
        let Some(built) = assemble_level(parent, &part) else {
            break;
        };
        partitions.push(part);
        machines.push(built.machine);
    }
    if partitions.is_empty() {
        return None;
    }
    Some(MultigridHierarchy { levels: partitions })
}

/// Multigrid warm start: builds up to `opts.levels` coarse machines,
/// anneals them coarsest-first (cascadic V-cycle), and prolongs the
/// result onto `dspu`'s free nodes. The fine machine is modified **only
/// on success**: any fallback or cancellation returns `None` with
/// `dspu`'s state untouched, so callers degrade to a cold start with
/// bit-identical legacy behaviour.
///
/// Coarse solves run the noiseless adaptive engine with
/// `opts.coarse_tol`, inheriting `base`'s timestep; each level's time
/// budget stretches with its capacitance rescaling so the same number
/// of RC constants fit. `mg.levels`, `mg.coarse_steps` and
/// `mg.prolongations` are recorded into `dspu`'s telemetry sink
/// ([`instruments`]); an attached [`crate::cancel::CancelToken`] is
/// polled by every coarse solve.
///
/// Equivalent to [`build_hierarchy`] followed by [`warm_start_with`];
/// callers annealing many machines over one graph should use that pair
/// to pay the Louvain cost once.
pub fn multigrid_warm_start(
    dspu: &mut RealValuedDspu,
    opts: &MultigridOptions,
    base: &AnnealConfig,
) -> Option<MultigridReport> {
    let hierarchy = build_hierarchy(dspu, opts)?;
    warm_start_with(dspu, &hierarchy, opts, base)
}

/// Applies a prebuilt [`MultigridHierarchy`] to `dspu` as a warm start:
/// re-aggregates each level's couplings and clamped drive from the
/// machine's *current* values, anneals coarsest-first, and prolongs
/// down. Semantics otherwise match [`multigrid_warm_start`]: the fine
/// machine is modified only on success, and `None` (topology mismatch,
/// invariant violation, cancellation) means the caller cold-starts.
pub fn warm_start_with(
    dspu: &mut RealValuedDspu,
    hierarchy: &MultigridHierarchy,
    opts: &MultigridOptions,
    base: &AnnealConfig,
) -> Option<MultigridReport> {
    if !opts.coarse_tol.is_finite() || opts.coarse_tol <= 0.0 {
        return None;
    }
    if dspu.cancel_requested() {
        return None;
    }
    let mut chain: Vec<Level> = Vec::new();
    for part in &hierarchy.levels {
        let parent: &RealValuedDspu = match chain.last() {
            Some(l) => &l.machine,
            None => dspu,
        };
        match assemble_level(parent, part) {
            Some(l) => chain.push(l),
            None => return None,
        }
    }
    if chain.is_empty() {
        return None;
    }
    let base_budget = base.max_time_ns;
    // Noiseless adaptive Euler: dispatches to the event-driven engine,
    // consumes zero RNG draws, and drains the active set quickly at the
    // loose coarse tolerance.
    let mut coarse_cfg = *base;
    coarse_cfg.tolerance = opts.coarse_tol;
    coarse_cfg.noise = NoiseModel::none();
    coarse_cfg.integrator = Integrator::Euler;
    coarse_cfg.mode = EngineMode::adaptive();
    // Never drawn from (coarse solves are noiseless); `run` just needs
    // an RNG by signature.
    let mut rng = StdRng::seed_from_u64(COARSEN_SEED);
    let mut coarse_steps = 0usize;
    let mut prolongations = 0usize;
    let mut pool = Workspace::new();
    let fine_capacitance = dspu.nodes.capacitance;
    for l in (0..chain.len()).rev() {
        {
            let m = &mut chain[l].machine;
            coarse_cfg.max_time_ns =
                base_budget * (m.nodes.capacitance / fine_capacitance).max(1.0);
            m.adopt_workspace(pool);
            let report = m.run(&coarse_cfg, &mut rng);
            coarse_steps += report.steps;
            pool = m.take_workspace();
            if m.cancel_requested() {
                return None;
            }
        }
        let coarse_state = chain[l].machine.nodes.state.clone();
        let ok = if l == 0 {
            prolong_into(&chain[l], &coarse_state, dspu)
        } else {
            let (head, tail) = chain.split_at_mut(l);
            prolong_into(&tail[0], &coarse_state, &mut head[l - 1].machine)
        };
        if !ok {
            return None;
        }
        prolongations += 1;
    }
    let levels = chain.len();
    let sink = dspu.telemetry();
    if sink.is_enabled() {
        sink.record(instruments::LEVELS, levels as f64);
        sink.counter_add(instruments::COARSE_STEPS, coarse_steps as u64);
        sink.counter_add(instruments::PROLONGATIONS, prolongations as u64);
    }
    Some(MultigridReport {
        levels,
        coarse_steps,
        prolongations,
        coarse_nodes: chain
            .iter()
            .map(|l| l.machine.n().saturating_sub(1))
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cancel::CancelToken;
    use crate::coupling::Coupling;
    use proptest::prelude::*;

    /// A machine with `blocks` planted communities of `per` nodes:
    /// strong intra-block couplings, weak cross-block couplings, the
    /// first `clamped` nodes clamped to alternating ±0.5.
    fn community_machine(blocks: usize, per: usize, clamped: usize) -> RealValuedDspu {
        let n = blocks * per;
        let mut j = Coupling::zeros(n);
        let mut x = 0x1234_5678_9abc_def0u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % 1000) as f64 / 1000.0
        };
        for b in 0..blocks {
            let lo = b * per;
            for i in lo..lo + per {
                for k in (i + 1)..lo + per {
                    if next() < 0.7 {
                        j.set(i, k, 0.5 + 0.5 * next());
                    }
                }
            }
            if b + 1 < blocks {
                // sparse weak bridges to the next block
                j.set(lo, lo + per, 0.05);
                j.set(lo + 1, lo + per + 1, -0.05);
            }
        }
        let h: Vec<f64> = (0..n).map(|i| -(1.0 + j.row_abs_sum(i))).collect();
        let mut m = RealValuedDspu::new(j, h).unwrap();
        for i in 0..clamped {
            m.clamp(i, if i % 2 == 0 { 0.5 } else { -0.5 }).unwrap();
        }
        m
    }

    /// One-shot level build: the partition-then-assemble pair the
    /// public drivers compose.
    fn coarsen_machine(parent: &RealValuedDspu, seed: u64) -> Option<Level> {
        let part = partition_of(parent, seed)?;
        assemble_level(parent, &part)
    }

    fn fine_state_for(level: &Level, parent: &RealValuedDspu, block_vals: &[f64]) -> Vec<f64> {
        let mut s = parent.state().to_vec();
        for (fi, &i) in level.parent_free.iter().enumerate() {
            s[i] = block_vals[level.assignment[fi]];
        }
        s
    }

    #[test]
    fn coarse_energy_differences_match_fine_on_piecewise_constant_states() {
        let mut fine = community_machine(4, 8, 6);
        let mut rng = StdRng::seed_from_u64(3);
        fine.randomize_free(&mut rng);
        let level = coarsen_machine(&fine, 1).expect("coarsenable");
        let nc = level.machine.n() - 1;
        assert!(nc >= 2);
        let vals_a: Vec<f64> = (0..nc).map(|c| 0.3 - 0.11 * c as f64).collect();
        let vals_b: Vec<f64> = (0..nc).map(|c| -0.2 + 0.07 * c as f64).collect();
        // Fine energies of the two piecewise-constant states.
        let sa = fine_state_for(&level, &fine, &vals_a);
        let sb = fine_state_for(&level, &fine, &vals_b);
        fine.set_state(&sa).unwrap();
        let ea_fine = fine.energy();
        fine.set_state(&sb).unwrap();
        let eb_fine = fine.energy();
        // Coarse energies of the matching coarse states.
        let mut coarse = level.machine.clone();
        let mut ca: Vec<f64> = vals_a.clone();
        ca.push(coarse.rail());
        let mut cb: Vec<f64> = vals_b.clone();
        cb.push(coarse.rail());
        coarse.set_state(&ca).unwrap();
        let ea_coarse = coarse.energy();
        coarse.set_state(&cb).unwrap();
        let eb_coarse = coarse.energy();
        // The offsets differ (clamped-clamped terms) but the
        // differences must agree to machine precision.
        let d_fine = ea_fine - eb_fine;
        let d_coarse = ea_coarse - eb_coarse;
        assert!(
            (d_fine - d_coarse).abs() <= 1e-9 * d_fine.abs().max(1.0),
            "fine ΔH {d_fine} vs coarse ΔH {d_coarse}"
        );
    }

    #[test]
    fn warm_start_reduces_fine_steps_at_same_answer() {
        let config = AnnealConfig {
            mode: EngineMode::adaptive(),
            ..AnnealConfig::default()
        };
        let opts = MultigridOptions::default();
        let mut cold = community_machine(4, 10, 8);
        let mut rng = StdRng::seed_from_u64(11);
        cold.randomize_free(&mut rng);
        let mut warm = cold.clone();
        let cold_report = cold.run(&config, &mut StdRng::seed_from_u64(0));
        let mg = multigrid_warm_start(&mut warm, &opts, &config).expect("applies");
        assert_eq!(mg.levels, 1);
        assert!(mg.prolongations == 1);
        assert!(mg.coarse_steps > 0);
        assert!(!mg.coarse_nodes.is_empty());
        let warm_report = warm.run(&config, &mut StdRng::seed_from_u64(0));
        assert!(cold_report.converged && warm_report.converged);
        assert!(
            warm_report.steps < cold_report.steps,
            "warm {} vs cold {} steps",
            warm_report.steps,
            cold_report.steps
        );
        // Same unique fixed point (the system is diagonally dominant).
        for (a, b) in cold.state().iter().zip(warm.state()) {
            assert!((a - b).abs() < 5e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn warm_start_is_bit_deterministic_across_reruns() {
        let config = AnnealConfig::adaptive();
        let opts = MultigridOptions {
            levels: 2,
            coarse_tol: 1e-3,
        };
        let make = || {
            let mut m = community_machine(4, 10, 8);
            m.randomize_free(&mut StdRng::seed_from_u64(5));
            m
        };
        let mut a = make();
        let mut b = make();
        let ra = multigrid_warm_start(&mut a, &opts, &config).expect("applies");
        let rb = multigrid_warm_start(&mut b, &opts, &config).expect("applies");
        assert_eq!(ra, rb);
        let bits_a: Vec<u64> = a.state().iter().map(|v| v.to_bits()).collect();
        let bits_b: Vec<u64> = b.state().iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits_a, bits_b);
    }

    #[test]
    fn cached_hierarchy_matches_one_shot_bitwise() {
        let config = AnnealConfig::adaptive();
        let opts = MultigridOptions {
            levels: 2,
            coarse_tol: 1e-3,
        };
        let make = |seed: u64| {
            let mut m = community_machine(4, 10, 8);
            m.randomize_free(&mut StdRng::seed_from_u64(seed));
            m
        };
        let mut one_shot = make(5);
        let hier = build_hierarchy(&one_shot, &opts).expect("coarsenable");
        assert!(hier.depth() >= 1);
        let mut cached = one_shot.clone();
        let ra = multigrid_warm_start(&mut one_shot, &opts, &config).expect("applies");
        let rb = warm_start_with(&mut cached, &hier, &opts, &config).expect("applies");
        assert_eq!(ra, rb);
        let bits = |m: &RealValuedDspu| -> Vec<u64> {
            m.state().iter().map(|v| v.to_bits()).collect()
        };
        assert_eq!(bits(&one_shot), bits(&cached));
        // The hierarchy depends only on topology and the clamp mask, so
        // it stays valid when clamp values and free states change.
        let mut next_one_shot = make(9);
        for i in 0..8 {
            next_one_shot
                .clamp(i, if i % 2 == 0 { -0.3 } else { 0.7 })
                .unwrap();
        }
        let mut next_cached = next_one_shot.clone();
        let rc = multigrid_warm_start(&mut next_one_shot, &opts, &config).expect("applies");
        let rd = warm_start_with(&mut next_cached, &hier, &opts, &config).expect("applies");
        assert_eq!(rc, rd);
        assert_eq!(bits(&next_one_shot), bits(&next_cached));
        // A machine with a different clamp mask invalidates the cache.
        let mut other = community_machine(4, 10, 9);
        other.randomize_free(&mut StdRng::seed_from_u64(5));
        assert!(warm_start_with(&mut other, &hier, &opts, &config).is_none());
    }

    #[test]
    fn cancelled_machine_is_left_untouched() {
        let mut m = community_machine(3, 8, 4);
        m.randomize_free(&mut StdRng::seed_from_u64(2));
        let token = CancelToken::new();
        token.cancel();
        m.set_cancel(token);
        let before = m.state().to_vec();
        let result = multigrid_warm_start(
            &mut m,
            &MultigridOptions::default(),
            &AnnealConfig::default(),
        );
        assert!(result.is_none());
        assert_eq!(before, m.state());
    }

    #[test]
    fn degenerate_machines_fall_back_to_cold() {
        let config = AnnealConfig::default();
        let opts = MultigridOptions::default();
        // Too few free nodes.
        let mut tiny = RealValuedDspu::new(Coupling::zeros(4), vec![-1.0; 4]).unwrap();
        assert!(multigrid_warm_start(&mut tiny, &opts, &config).is_none());
        // No couplings at all: Louvain yields singletons (trivial).
        let mut loose = RealValuedDspu::new(Coupling::zeros(32), vec![-1.0; 32]).unwrap();
        assert!(multigrid_warm_start(&mut loose, &opts, &config).is_none());
        // Invalid tolerance.
        let mut m = community_machine(4, 10, 8);
        let bad = MultigridOptions {
            levels: 1,
            coarse_tol: 0.0,
        };
        assert!(multigrid_warm_start(&mut m, &bad, &config).is_none());
    }

    #[test]
    fn positive_aggregated_self_reaction_is_rejected() {
        // Strong ferromagnetic intra-couplings with barely-negative h:
        // h̃ = Σh + 2·intra goes non-negative, so coarsening must bail.
        let n = 24;
        let mut j = Coupling::zeros(n);
        for i in 0..n - 1 {
            j.set(i, i + 1, 1.0);
        }
        let h = vec![-0.5; n];
        let mut m = RealValuedDspu::new(j, h).unwrap();
        m.randomize_free(&mut StdRng::seed_from_u64(1));
        assert!(multigrid_warm_start(
            &mut m,
            &MultigridOptions::default(),
            &AnnealConfig::default()
        )
        .is_none());
    }

    #[test]
    fn telemetry_reports_mg_counters() {
        let sink = crate::telemetry::TelemetrySink::enabled();
        let mut m = community_machine(4, 10, 8);
        m.randomize_free(&mut StdRng::seed_from_u64(7));
        m.set_telemetry(sink.clone());
        let report = multigrid_warm_start(
            &mut m,
            &MultigridOptions::default(),
            &AnnealConfig::adaptive(),
        )
        .expect("applies");
        let snap = sink.snapshot();
        assert_eq!(snap.counter(instruments::COARSE_STEPS), report.coarse_steps as u64);
        assert_eq!(snap.counter(instruments::PROLONGATIONS), 1);
        let levels = snap.get(instruments::LEVELS).expect("recorded");
        assert_eq!(levels.count, 1);
        assert_eq!(levels.sum, report.levels as f64);
    }

    proptest! {
        /// The coarse Hamiltonian equals the block-aggregated fine
        /// Hamiltonian on piecewise-constant states, up to the fixed
        /// clamped-state offset: energy differences agree.
        #[test]
        fn energy_difference_identity(
            weights in proptest::collection::vec(-1.0f64..1.0, 40),
            va in proptest::collection::vec(-0.9f64..0.9, 8),
            vb in proptest::collection::vec(-0.9f64..0.9, 8),
        ) {
            let n = 20;
            let mut j = Coupling::zeros(n);
            // Fixed sparse pattern, random weights: ring + long chords.
            let mut wi = 0usize;
            for i in 0..n {
                j.set(i, (i + 1) % n, weights[wi]);
                wi += 1;
            }
            for i in 0..n / 2 {
                j.set(i, i + n / 2, weights[wi]);
                wi += 1;
            }
            let h: Vec<f64> = (0..n).map(|i| -(1.0 + j.row_abs_sum(i))).collect();
            let mut fine = RealValuedDspu::new(j, h).unwrap();
            for i in 0..3 {
                fine.clamp(i, 0.4 - 0.3 * i as f64).unwrap();
            }
            fine.randomize_free(&mut StdRng::seed_from_u64(9));
            if let Some(level) = coarsen_machine(&fine, 2) {
                let nc = level.machine.n() - 1;
                let vals_a: Vec<f64> = (0..nc).map(|c| va[c % va.len()]).collect();
                let vals_b: Vec<f64> = (0..nc).map(|c| vb[c % vb.len()]).collect();
                let sa = fine_state_for(&level, &fine, &vals_a);
                let sb = fine_state_for(&level, &fine, &vals_b);
                fine.set_state(&sa).unwrap();
                let ea = fine.energy();
                fine.set_state(&sb).unwrap();
                let eb = fine.energy();
                let mut coarse = level.machine.clone();
                let mut ca = vals_a.clone();
                ca.push(coarse.rail());
                let mut cb = vals_b.clone();
                cb.push(coarse.rail());
                coarse.set_state(&ca).unwrap();
                let fa = coarse.energy();
                coarse.set_state(&cb).unwrap();
                let fb = coarse.energy();
                let d_fine = ea - eb;
                let d_coarse = fa - fb;
                prop_assert!(
                    (d_fine - d_coarse).abs() <= 1e-9 * d_fine.abs().max(1.0),
                    "fine ΔH {} vs coarse ΔH {}", d_fine, d_coarse
                );
            }
        }
    }
}
