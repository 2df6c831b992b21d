//! `graph_100k`: the scalable regime. A planted-partition sparse
//! `RealValuedDspu` of [`NODES`] nodes with one node in [`CLAMP_EVERY`]
//! clamped to a block-correlated observation that drifts from one
//! forecast window to the next. Each window updates the clamps, warm
//! starts from the reused `build_hierarchy` partition hierarchy with
//! `warm_start_with`, and anneals with the engine `AnnealConfig::default()`
//! selects.
//!
//! Correctness: every window's free nodes must match an independent
//! solve of `(diag(h) + J_ff)·σ_f = −J_fc·σ_c` (Jacobi-preconditioned
//! conjugate gradients in this file) within `2·C·tol/m`, where `tol` is
//! the anneal's convergence tolerance on `|dσ/dt|`, `C` the node
//! capacitance and `m` the diagonal-dominance margin that bounds
//! `‖(diag(h) + J_ff)⁻¹‖∞ ≤ 1/m`.

use crate::serve::mix;
use crate::stats::{mean, median, peak_rss_mb, quantile, ratio};
use crate::{Args, Outcome};
use dsgl_core::{SpanCollector, TraceScope};
use dsgl_graph::generators::planted_partition;
use dsgl_ising::{
    build_hierarchy, warm_start_with, AnnealConfig, MultigridHierarchy, MultigridOptions,
    RealValuedDspu, SparseCoupling,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Graph size.
pub const NODES: usize = 100_000;
/// One node in this many is a clamped observation (2%).
const CLAMP_EVERY: usize = 50;
/// Nodes per planted community.
const COMMUNITY_SIZE: usize = 256;
/// `hᵢ = −(margin + Σⱼ|Jᵢⱼ|)`: a small margin leaves slow
/// inter-community modes, the regime a coarse-grid warm start is for.
const DIAGONAL_MARGIN: f64 = 0.05;
/// Multigrid hierarchy depth and coarse tolerance.
const MG: MultigridOptions = MultigridOptions {
    levels: 3,
    coarse_tol: 1e-6,
};
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Windows solved at least, however short the run.
const MIN_WINDOWS: usize = 3;
/// Seed of the graph topology. The workload seed picks the
/// observations (clamp values and their drift) and the initial states,
/// so every run solves the same graph under different data.
const GRAPH_SEED: u64 = 7;

/// Uniform in `[0, 1)` from a hash.
fn unit(x: u64) -> f64 {
    (mix(x) >> 11) as f64 / (1u64 << 53) as f64
}

/// The built machine and its multigrid hierarchy.
struct Problem {
    machine: RealValuedDspu,
    /// Coupling pairs, each counted once.
    couplings: usize,
    /// Clamped node → its community.
    clamped: Vec<(usize, usize)>,
    hierarchy: MultigridHierarchy,
    build_s: f64,
    hierarchy_s: f64,
}

fn clamp_value(seed: u64, block: usize, window: usize) -> f64 {
    let base = unit(seed ^ ((block as u64) << 8)) - 0.5;
    let drift = (unit(seed ^ ((block as u64) << 24) ^ (window as u64 + 1)) - 0.5) * 0.5;
    (0.5 * base + drift).clamp(-0.8, 0.8)
}

/// Length of one planted community's node range.
fn block_len() -> usize {
    NODES.div_ceil(NODES / COMMUNITY_SIZE)
}

/// The topology, from [`GRAPH_SEED`] alone: coupling entries `(i, j, w)`,
/// each pair once, and the self-reactions `h`. The reference calls it
/// again rather than keep a copy beside the machine.
fn couplings() -> (Vec<(u32, u32, f64)>, Vec<f64>) {
    let block_len = block_len();
    let mut rng = StdRng::seed_from_u64(mix(GRAPH_SEED));
    let graph = planted_partition(NODES, NODES / COMMUNITY_SIZE, 8, 2, &mut rng);
    let mut row_sum = vec![0.0f64; NODES];
    let entries = graph
        .edges()
        .iter()
        .map(|&(u, v, w)| {
            // Inter-community links are weak: information crosses
            // communities through many faint couplings.
            let w = if u / block_len == v / block_len {
                w
            } else {
                w * 0.2
            };
            row_sum[u] += w.abs();
            row_sum[v] += w.abs();
            (u as u32, v as u32, w)
        })
        .collect();
    let h = row_sum.iter().map(|s| -(DIAGONAL_MARGIN + s)).collect();
    (entries, h)
}

fn build(seed: u64) -> Problem {
    let t0 = Instant::now();
    let (entries, h) = couplings();
    let coupling =
        SparseCoupling::from_entries(NODES, &entries).expect("generated entries are valid");
    let mut machine = RealValuedDspu::from_sparse(coupling, h).expect("h < 0 everywhere");
    let block_len = block_len();
    let clamped: Vec<(usize, usize)> = (0..NODES)
        .step_by(CLAMP_EVERY)
        .map(|i| (i, i / block_len))
        .collect();
    for &(i, b) in &clamped {
        machine
            .clamp(i, clamp_value(seed, b, 0))
            .expect("node in range");
    }
    let build_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let hierarchy = build_hierarchy(&machine, &MG).expect("planted partitions coarsen");
    let hierarchy_s = t1.elapsed().as_secs_f64();
    Problem {
        machine,
        couplings: entries.len(),
        clamped,
        hierarchy,
        build_s,
        hierarchy_s,
    }
}

/// The free-node linear system `A·x = b` with `A = −diag(h_f) − J_ff`
/// (symmetric positive definite by diagonal dominance) and
/// `b = J_fc·σ_c`, in CSR over free positions.
struct Reference {
    free: Vec<usize>,
    offsets: Vec<usize>,
    cols: Vec<u32>,
    vals: Vec<f64>,
    diag: Vec<f64>,
    /// Clamped neighbours per free position: `(node, weight)`.
    drive: Vec<Vec<(u32, f64)>>,
    /// Previous window's solution: the next solve's starting point.
    warm: Vec<f64>,
}

impl Reference {
    fn new() -> Self {
        let (entries, h) = couplings();
        // Node id → free position, `u32::MAX` when clamped.
        let mut position = vec![u32::MAX; NODES];
        let free: Vec<usize> = (0..NODES).filter(|i| i % CLAMP_EVERY != 0).collect();
        for (k, &i) in free.iter().enumerate() {
            position[i] = k as u32;
        }
        let nf = free.len();
        let mut rows: Vec<Vec<(u32, f64)>> = vec![Vec::new(); nf];
        let mut drive: Vec<Vec<(u32, f64)>> = vec![Vec::new(); nf];
        for &(i, j, w) in &entries {
            let (pi, pj) = (position[i as usize], position[j as usize]);
            match (pi != u32::MAX, pj != u32::MAX) {
                (true, true) => {
                    rows[pi as usize].push((pj, -w));
                    rows[pj as usize].push((pi, -w));
                }
                (true, false) => drive[pi as usize].push((j, w)),
                (false, true) => drive[pj as usize].push((i, w)),
                (false, false) => {}
            }
        }
        let mut offsets = Vec::with_capacity(nf + 1);
        let mut cols = Vec::new();
        let mut vals = Vec::new();
        offsets.push(0);
        for row in &mut rows {
            row.sort_unstable_by_key(|e| e.0);
            for &(c, v) in row.iter() {
                cols.push(c);
                vals.push(v);
            }
            offsets.push(cols.len());
        }
        let diag = free.iter().map(|&i| -h[i]).collect();
        Reference {
            free,
            offsets,
            cols,
            vals,
            diag,
            drive,
            warm: vec![0.0; nf],
        }
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        for (r, out) in y.iter_mut().enumerate() {
            let mut acc = self.diag[r] * x[r];
            for k in self.offsets[r]..self.offsets[r + 1] {
                acc += self.vals[k] * x[self.cols[k] as usize];
            }
            *out = acc;
        }
    }

    /// Solves the fixed point for `clamps` by preconditioned conjugate
    /// gradients to a relative residual of 1e-12.
    fn solve(&mut self, clamps: &[f64]) -> Vec<f64> {
        let b: Vec<f64> = self
            .drive
            .iter()
            .map(|d| d.iter().map(|&(j, w)| w * clamps[j as usize]).sum())
            .collect();
        let nf = b.len();
        let mut x = self.warm.clone();
        let mut ax = vec![0.0; nf];
        self.apply(&x, &mut ax);
        let mut r: Vec<f64> = b.iter().zip(&ax).map(|(b, a)| b - a).collect();
        let mut z: Vec<f64> = r.iter().zip(&self.diag).map(|(r, d)| r / d).collect();
        let mut dir = z.clone();
        let mut rz: f64 = r.iter().zip(&z).map(|(a, b)| a * b).sum();
        let b_norm = b.iter().map(|v| v * v).sum::<f64>().sqrt().max(1e-300);
        let mut q = vec![0.0; nf];
        for _ in 0..10_000 {
            let r_norm = r.iter().map(|v| v * v).sum::<f64>().sqrt();
            if r_norm <= 1e-12 * b_norm {
                break;
            }
            self.apply(&dir, &mut q);
            let alpha = rz / dir.iter().zip(&q).map(|(a, b)| a * b).sum::<f64>();
            for k in 0..nf {
                x[k] += alpha * dir[k];
                r[k] -= alpha * q[k];
                z[k] = r[k] / self.diag[k];
            }
            let rz_next: f64 = r.iter().zip(&z).map(|(a, b)| a * b).sum();
            let beta = rz_next / rz;
            rz = rz_next;
            for k in 0..nf {
                dir[k] = z[k] + beta * dir[k];
            }
        }
        self.warm.clone_from(&x);
        x
    }
}

/// One solved window.
struct Window {
    solve_s: f64,
    warm_start_s: f64,
    fine_s: f64,
    coarse_steps: usize,
    steps: usize,
    sparse_steps: usize,
    active_fraction: f64,
    sim_time_ns: f64,
    converged: bool,
    warm_started: bool,
    traced: bool,
}

/// Updates the clamps for window `w`, warm starts and anneals.
fn solve_window(p: &mut Problem, cfg: &AnnealConfig, seed: u64, w: usize, traced: bool) -> Window {
    let t0 = Instant::now();
    for &(i, b) in &p.clamped {
        p.machine
            .clamp(i, clamp_value(seed, b, w))
            .expect("node in range");
    }
    let mut rng = StdRng::seed_from_u64(mix(seed ^ 0xf1fe ^ ((w as u64) << 32)));
    p.machine.randomize_free(&mut rng);
    let t1 = Instant::now();
    let report = warm_start_with(&mut p.machine, &p.hierarchy, &MG, cfg);
    let warm_start_s = t1.elapsed().as_secs_f64();
    let t2 = Instant::now();
    let anneal = p.machine.run(cfg, &mut rng);
    let fine_s = t2.elapsed().as_secs_f64();
    Window {
        solve_s: t0.elapsed().as_secs_f64(),
        warm_start_s,
        fine_s,
        coarse_steps: report.as_ref().map_or(0, |r| r.coarse_steps),
        steps: anneal.steps,
        sparse_steps: anneal.sparse_steps,
        active_fraction: anneal.mean_active_fraction,
        sim_time_ns: anneal.sim_time_ns,
        converged: anneal.converged,
        warm_started: report.is_some(),
        traced,
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut builds = Vec::new();
    let mut setup_s = Vec::new();
    let mut problem = None;
    for _ in 0..SETUP_REPS {
        drop(problem.take());
        let t0 = Instant::now();
        let p = build(args.seed);
        setup_s.push(t0.elapsed().as_secs_f64());
        builds.push((p.build_s, p.hierarchy_s));
        problem = Some(p);
    }
    let mut p = problem.expect("at least one set-up");
    out.metric("setup_s", median(&setup_s));
    out.metric(
        "graph.build_s",
        median(&builds.iter().map(|b| b.0).collect::<Vec<_>>()),
    );
    out.metric(
        "multigrid.hierarchy_s",
        median(&builds.iter().map(|b| b.1).collect::<Vec<_>>()),
    );
    out.note("setup_s.reps", setup_s);
    out.note("nodes", NODES);
    out.note("couplings", p.couplings);
    out.note("clamped", p.clamped.len());
    out.note("multigrid.depth", p.hierarchy.depth());

    let mut reference: Option<Reference> = None;
    let cfg = AnnealConfig::default();
    out.note("engine", format!("{:?}", cfg.mode));
    let bound = 2.0 * p.machine.capacitance() * cfg.tolerance / DIAGONAL_MARGIN;
    out.note("fixed_point_bound", bound);

    let collector = SpanCollector::with_capacity(1 << 16);
    let budget = args.seconds.as_secs_f64();
    let mut windows: Vec<Window> = Vec::new();
    let mut sq = 0.0;
    let mut count = 0usize;
    // Per window, the largest free-node distance to the fixed point.
    let mut worst: Vec<f64> = Vec::new();
    let mut measured = 0.0;
    while measured < budget || windows.len() < MIN_WINDOWS {
        let w = windows.len();
        // A traced run solves its second half traced, for the overhead.
        let traced = args.trace && measured >= budget / 2.0 && w >= 1;
        if traced && !p.machine.tracing().is_enabled() {
            p.machine
                .set_tracing(TraceScope::new(collector.clone(), 1, 0));
        }
        let window = solve_window(&mut p, &cfg, args.seed, w, traced);
        measured += window.solve_s;
        // Reference check, outside the timed region. Peak memory is read
        // once the set-ups and a first window have run, before the
        // reference system adds its own.
        let reference = reference.get_or_insert_with(|| {
            out.metric("peak_rss_mb", peak_rss_mb());
            let t_ref = Instant::now();
            let reference = Reference::new();
            eprintln!(
                "[graph] reference system assembled in {:.2}s",
                t_ref.elapsed().as_secs_f64()
            );
            reference
        });
        let mut clamps = vec![0.0; NODES];
        for &(i, b) in &p.clamped {
            clamps[i] = clamp_value(args.seed, b, w);
        }
        let truth = reference.solve(&clamps);
        let state = p.machine.state();
        let mut window_worst = 0.0f64;
        for (k, &i) in reference.free.iter().enumerate() {
            let e = state[i] - truth[k];
            sq += e * e;
            window_worst = window_worst.max(e.abs());
        }
        count += reference.free.len();
        worst.push(window_worst);
        if window_worst > bound {
            out.problem(format!(
                "window {w}: free node off the fixed point by {window_worst:.3e} > {bound:.3e}"
            ));
        }
        if !window.warm_started {
            out.problem(format!(
                "window {w}: the multigrid warm start fell back to cold"
            ));
        }
        eprintln!(
            "[graph] window {w}: {:.3}s ({} steps, converged {}, max error {window_worst:.2e})",
            window.solve_s, window.steps, window.converged
        );
        windows.push(window);
    }

    let untraced: Vec<&Window> = windows.iter().filter(|w| !w.traced).collect();
    let solve: Vec<f64> = untraced.iter().map(|w| w.solve_s).collect();
    let failed = windows.iter().filter(|w| !w.converged).count();
    out.attempted = windows.len() as u64;
    out.failed = failed as u64;
    // A run holds about fifteen windows, too few for a p95 with ten
    // samples beyond it, so the tail figure is the p90: the second
    // slowest window of fifteen.
    out.metric("p50_ms", median(&solve) * 1e3);
    out.metric("tail_ms", quantile(&solve, 0.9) * 1e3);
    out.metric(
        "throughput_per_s",
        untraced.len() as f64 / solve.iter().sum::<f64>(),
    );
    out.metric(
        "success_rate",
        1.0 - ratio(failed as f64, windows.len() as f64),
    );
    out.metric("output_error", median(&worst));
    out.note("p95_ms", quantile(&solve, 0.95) * 1e3);
    out.note("free_node_rmse", (sq / count as f64).sqrt());
    out.note(
        "sim_latency_ns",
        mean(&windows.iter().map(|w| w.sim_time_ns).collect::<Vec<_>>()),
    );
    out.note("solve_s", median(&solve));
    out.note("windows", windows.len());
    out.note("error_rate", ratio(failed as f64, windows.len() as f64));
    out.note(
        "max_fixed_point_error",
        worst.iter().copied().fold(0.0, f64::max),
    );

    let fine: Vec<f64> = windows.iter().map(|w| w.fine_s).collect();
    let steps: f64 = mean(&windows.iter().map(|w| w.steps as f64).collect::<Vec<_>>());
    out.metric(
        "multigrid.warm_start_s",
        median(&windows.iter().map(|w| w.warm_start_s).collect::<Vec<_>>()),
    );
    out.metric(
        "multigrid.coarse_steps",
        mean(
            &windows
                .iter()
                .map(|w| w.coarse_steps as f64)
                .collect::<Vec<_>>(),
        ),
    );
    out.metric("anneal.fine_s", median(&fine));
    out.metric("anneal.fine_steps", steps);
    out.metric(
        "anneal.sparse_steps",
        mean(
            &windows
                .iter()
                .map(|w| w.sparse_steps as f64)
                .collect::<Vec<_>>(),
        ),
    );
    out.metric(
        "anneal.active_fraction",
        mean(
            &windows
                .iter()
                .map(|w| w.active_fraction)
                .collect::<Vec<_>>(),
        ),
    );
    // Computed CSR traffic per full step: values and column indices of
    // both triangles, row offsets, the gathered state and the output.
    let nnz = 2.0 * p.couplings as f64;
    let bytes_per_step = nnz * 12.0 + NODES as f64 * (8.0 + 8.0 + 8.0);
    let total_fine: f64 = fine.iter().sum();
    let total_steps: f64 = windows.iter().map(|w| w.steps as f64).sum();
    out.metric(
        "sparse.gbytes_per_s_computed",
        bytes_per_step * total_steps / total_fine / 1e9,
    );
    if args.trace {
        let traced: Vec<f64> = windows
            .iter()
            .filter(|w| w.traced)
            .map(|w| w.solve_s)
            .collect();
        out.metric(
            "bench.trace_overhead",
            median(&traced) / median(&solve) - 1.0,
        );
        out.metric("bench.dropped_spans", collector.dropped() as f64);
        out.note("spans", collector.snapshot().len());
        if collector.dropped() > 0 {
            out.problem(format!(
                "the traced run dropped {} spans",
                collector.dropped()
            ));
        }
    }
    out
}
