//! The shared experiment pipeline: dataset preparation, dense training,
//! decomposition, mapped evaluation, and baseline training.

use dsgl_baselines::{
    common::graph_to_adjacency, evaluate_gnn, train_gnn, DdgcrnModel, GnnTrainConfig, GwnModel,
    MtgnnModel, StGnn,
};
use dsgl_core::inference::EvalReport;
use dsgl_core::{
    decompose, DecomposeConfig, DecomposedModel, DsGlModel, PatternKind, TrainConfig, TrainReport,
    Trainer, VariableLayout,
};
use dsgl_data::{Dataset, Sample, WindowConfig};
use dsgl_hw::coanneal::evaluate_mapped;
use dsgl_hw::HwConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Paper hardware constants: the full-size machine has `K = 500` nodes
/// per PE and `L = 30` lanes per portal. Scaled experiments keep the
/// same `L/K` ratio.
pub const PAPER_K: usize = 500;
/// Paper lane count.
pub const PAPER_L: usize = 30;

/// Experiment sizing. `full()` is what the shipped results use;
/// `quick()` is a minutes-scale smoke configuration (also used by the
/// Criterion benches and integration tests).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Node cap applied to single-feature datasets.
    pub nodes: usize,
    /// Node cap applied to multi-feature datasets (they have F·nodes
    /// variables per frame).
    pub multi_nodes: usize,
    /// Timestep cap.
    pub steps: usize,
    /// History window `W`.
    pub history: usize,
    /// Dense-training epochs.
    pub dense_epochs: usize,
    /// Fine-tuning epochs inside decomposition.
    pub finetune_epochs: usize,
    /// Baseline GNN training epochs.
    pub gnn_epochs: usize,
    /// Maximum test windows evaluated per point.
    pub test_cap: usize,
    /// Maximum training windows used for fine-tuning.
    pub finetune_cap: usize,
    /// PE grid of the scaled machine.
    pub pe_grid: (usize, usize),
}

impl Scale {
    /// The configuration the shipped EXPERIMENTS.md numbers use.
    pub fn full() -> Self {
        Scale {
            nodes: 80,
            multi_nodes: 32,
            steps: 360,
            history: 4,
            dense_epochs: 30,
            finetune_epochs: 15,
            gnn_epochs: 25,
            test_cap: 40,
            finetune_cap: 160,
            pe_grid: (4, 4),
        }
    }

    /// A minutes-scale smoke configuration.
    pub fn quick() -> Self {
        Scale {
            nodes: 24,
            multi_nodes: 10,
            steps: 140,
            history: 3,
            dense_epochs: 12,
            finetune_epochs: 5,
            gnn_epochs: 8,
            test_cap: 10,
            finetune_cap: 50,
            pe_grid: (2, 2),
        }
    }
}

/// A dataset windowed and split for one experiment.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// The (truncated) dataset.
    pub dataset: Dataset,
    /// Variable layout of the DS-GL system for it.
    pub layout: VariableLayout,
    /// Training windows.
    pub train: Vec<Sample>,
    /// Held-out test windows (capped at `Scale::test_cap`).
    pub test: Vec<Sample>,
}

/// Loads and prepares a dataset by name. Handles both the seven
/// single-feature names (see [`dsgl_data::SINGLE_FEATURE_DATASETS`])
/// and the multi-feature `"ca_housing"` / `"climate"`.
///
/// # Panics
///
/// Panics for unknown dataset names.
pub fn prepare(name: &str, scale: &Scale, seed: u64) -> Prepared {
    prepare_with_horizon(name, scale, 1, seed)
}

/// Like [`prepare`] but windowing `horizon` future frames per sample
/// (multi-step forecasting).
///
/// # Panics
///
/// Panics for unknown dataset names or a zero horizon.
pub fn prepare_with_horizon(name: &str, scale: &Scale, horizon: usize, seed: u64) -> Prepared {
    let (dataset, cap) = match name {
        "ca_housing" => (dsgl_data::housing::generate(seed), scale.multi_nodes),
        "climate" => (dsgl_data::climate::generate(seed), scale.multi_nodes),
        other => (
            dsgl_data::by_name(other, seed)
                .unwrap_or_else(|| panic!("unknown dataset {other}")),
            scale.nodes,
        ),
    };
    let dataset = dataset.truncate(cap, scale.steps);
    let layout = VariableLayout::with_horizon(
        scale.history,
        dataset.node_count(),
        dataset.feature_count(),
        horizon,
    );
    let wc = WindowConfig {
        history: scale.history,
        horizon,
    };
    let (train, _val, mut test) = dataset.split_windows(&wc, 0.7, 0.1);
    test.truncate(scale.test_cap);
    Prepared {
        dataset,
        layout,
        train,
        test,
    }
}

/// Self-reaction magnitude used by the experiments: `h = -2` gives the
/// nodes a 50 ns time constant (RC / |h|), which lands dense inference
/// latency in the paper's 0.15–1.1 µs regime.
pub const H_MAGNITUDE: f64 = 2.0;

/// Ridge-λ candidates swept by validation (absolute, spanning the
/// useful decades for ~250-window Gram matrices).
pub const LAMBDA_GRID: [f64; 6] = [0.1, 1.0, 3.0, 10.0, 30.0, 100.0];

/// Splits training windows into a fitting head and a validation tail
/// (chronological).
pub fn head_val_split(train: &[Sample]) -> (&[Sample], &[Sample]) {
    let n = train.len();
    let n_val = (n / 5).max(1).min(n.saturating_sub(1));
    (&train[..n - n_val], &train[n - n_val..])
}

/// Trains the dense DS-GL model for a prepared dataset by closed-form
/// ridge regression, with `λ` chosen on a held-out validation tail and
/// the final fit done on the full training set.
///
/// The returned report carries the warm-start and final regression MSE
/// (the `Trainer` SGD path remains available in `dsgl-core` as the
/// paper-faithful backprop route; the harness uses the exact solver).
pub fn train_dense(p: &Prepared, scale: &Scale, seed: u64) -> (DsGlModel, TrainReport) {
    let _ = (scale, seed); // sizing is determined by the prepared data
    let mut model = DsGlModel::new(p.layout);
    model.h_mut().iter_mut().for_each(|h| *h = -H_MAGNITUDE);
    // Prior: persistence plus diffusion over the dataset's spatial graph
    // (the same graph the GNN baselines receive as input). The split
    // between self- and neighbour-weight is data-driven: the lag-1
    // autocorrelation of the training series estimates how persistent
    // the process actually is (0.72/0.22 would be badly biased for
    // fast-mixing data like weather).
    let rho = lag1_autocorrelation(&p.train, p.layout.frame_len()).clamp(0.0, 0.99);
    model.init_diffusion_prior(&p.dataset.graph, 0.78 * rho, 0.20 * rho);
    let before = Trainer::regression_rmse(&model, &p.train).expect("warm-start rmse");
    let (head, val) = head_val_split(&p.train);
    let lambda = dsgl_core::ridge::fit_ridge_validated(&mut model, head, val, &LAMBDA_GRID)
        .expect("ridge fit");
    // Refit on the full training set with the selected λ.
    dsgl_core::ridge::fit_ridge(&mut model, &p.train, lambda).expect("final ridge fit");

    let after = Trainer::regression_rmse(&model, &p.train).expect("final rmse");
    (
        model,
        TrainReport {
            epoch_losses: vec![before * before, after * after],
        },
    )
}

/// Trains a dense model for the *imputation* task (paper Sec. II.C's
/// core GL definition: acquire unknown node features from observed
/// ones): the stage-1 forecaster plus residual target–target couplings,
/// kept when they improve imputation RMSE (half the frame observed) on
/// the validation tail. Figs. 11–12 use this task — it is the regime
/// where inter-PE co-annealing genuinely transports information between
/// outputs, so synchronisation and annealing budget matter.
pub fn train_dense_imputation(p: &Prepared, scale: &Scale, seed: u64) -> DsGlModel {
    let (mut model, _) = train_dense(p, scale, seed);
    let (head, val) = head_val_split(&p.train);
    if head.is_empty() || val.is_empty() {
        return model;
    }
    let frame_len = p.layout.frame_len();
    let observed: Vec<usize> = (0..frame_len).step_by(2).collect();
    let base = imputation_fp_rmse(&model, val, &observed);
    let mut best: Option<(f64, DsGlModel)> = None;
    for shrinkage in [0.2, 0.5, 0.8] {
        let mut candidate = model.clone();
        dsgl_core::ridge::fit_gaussian_couplings(&mut candidate, head, shrinkage, H_MAGNITUDE)
            .expect("gaussian couplings");
        let v = imputation_fp_rmse(&candidate, val, &observed);
        if best.as_ref().is_none_or(|(bv, _)| v < *bv) {
            best = Some((v, candidate));
        }
    }
    if let Some((v, candidate)) = best {
        if v < base {
            model = candidate;
        }
    }
    model
}

/// Pooled RMSE of fixed-point *imputation* over the unobserved half of
/// the target frame.
pub fn imputation_fp_rmse(model: &DsGlModel, samples: &[Sample], observed: &[usize]) -> f64 {
    let frame_len = model.layout().frame_len();
    let observed_set: std::collections::HashSet<usize> = observed.iter().copied().collect();
    let mut sse = 0.0;
    let mut count = 0usize;
    for s in samples {
        let pred = dsgl_core::inference::infer_fixed_point(model, s, observed, 150)
            .expect("fixed-point imputation");
        for (i, (&p, &t)) in pred.iter().zip(&s.target).enumerate().take(frame_len) {
            if !observed_set.contains(&i) {
                sse += (p - t) * (p - t);
                count += 1;
            }
        }
    }
    (sse / count.max(1) as f64).sqrt()
}

/// Pooled RMSE of *joint* fixed-point inference over a sample set (the
/// right metric once target-target couplings exist: outputs are solved
/// simultaneously, not teacher-forced).
pub fn fixed_point_rmse(model: &DsGlModel, samples: &[Sample]) -> f64 {
    let mut sse = 0.0;
    let mut count = 0usize;
    for s in samples {
        let pred = dsgl_core::inference::infer_fixed_point(model, s, &[], 150)
            .expect("fixed-point inference");
        for (p, t) in pred.iter().zip(&s.target) {
            sse += (p - t) * (p - t);
            count += 1;
        }
    }
    (sse / count.max(1) as f64).sqrt()
}

/// Lag-1 autocorrelation of the (centred) training series, estimated
/// from each window's last two history frames.
pub fn lag1_autocorrelation(train: &[Sample], frame_len: usize) -> f64 {
    let mut mean = 0.0;
    let mut count = 0usize;
    for s in train {
        for &v in &s.history[s.history.len() - 2 * frame_len..] {
            mean += v;
            count += 1;
        }
    }
    if count == 0 {
        return 0.9;
    }
    mean /= count as f64;
    let mut num = 0.0;
    let mut den = 0.0;
    for s in train {
        let tail = &s.history[s.history.len() - 2 * frame_len..];
        let (prev, cur) = tail.split_at(frame_len);
        for (p, c) in prev.iter().zip(cur) {
            num += (p - mean) * (c - mean);
            den += (p - mean) * (p - mean);
        }
    }
    if den <= 0.0 {
        0.9
    } else {
        num / den
    }
}

/// Per-PE capacity for a layout on the scaled grid (5 % slack so the
/// partitioner has room to redistribute).
pub fn pe_capacity(layout: &VariableLayout, grid: (usize, usize)) -> usize {
    let pes = grid.0 * grid.1;
    (layout.total().div_ceil(pes) * 21) / 20 + 1
}

/// Lanes per portal, scaled from the paper's `L/K = 30/500` ratio.
pub fn scaled_lanes(pe_capacity: usize) -> usize {
    ((pe_capacity * PAPER_L) / PAPER_K).max(2)
}

/// Decomposition config for a prepared dataset at one `(density,
/// pattern)` sweep point.
pub fn decompose_config(
    p: &Prepared,
    scale: &Scale,
    density: f64,
    pattern: PatternKind,
) -> DecomposeConfig {
    DecomposeConfig {
        density,
        pattern,
        wormhole_budget: 4,
        pe_capacity: pe_capacity(&p.layout, scale.pe_grid),
        grid: scale.pe_grid,
        finetune: Some(TrainConfig {
            epochs: scale.finetune_epochs,
            lr: 0.02,
            ..TrainConfig::default()
        }),
    }
}

/// Runs the decomposition pipeline on a trained dense model, with a
/// validated fine-tune: the pruned-and-masked model is fine-tuned under
/// its pinned sparsity pattern, and the tuned parameters are kept only
/// if they improve the regression RMSE on a held-out validation slice
/// (fine-tuning must restore accuracy, never destroy it).
pub fn decompose_model(
    dense: &DsGlModel,
    p: &Prepared,
    scale: &Scale,
    density: f64,
    pattern: PatternKind,
    seed: u64,
) -> DecomposedModel {
    let mut cfg = decompose_config(p, scale, density, pattern);
    let ft = cfg.finetune.take().expect("decompose_config sets finetune");
    let mut rng = StdRng::seed_from_u64(seed ^ 0xdec0);
    let mut raw = decompose(dense, &[], &cfg, &mut rng).expect("decomposition");
    validated_finetune(&mut raw, p, scale, &ft, seed);
    raw
}

/// Fine-tunes a decomposed model by closed-form masked ridge refit over
/// its pinned sparsity pattern (the optimal re-calibration of the
/// surviving couplings), with `λ` chosen on a held-out validation tail.
/// The refit is kept only if it improves the given validation metric.
fn validated_finetune_by(
    raw: &mut DecomposedModel,
    p: &Prepared,
    metric: &dyn Fn(&DsGlModel, &[Sample]) -> f64,
) {
    let (head, val) = head_val_split(&p.train);
    if head.is_empty() || val.is_empty() {
        return;
    }
    let raw_val = metric(&raw.model, val);
    let mut best: Option<(f64, DsGlModel)> = None;
    for &lambda in &LAMBDA_GRID {
        let mut tuned = raw.model.clone();
        dsgl_core::ridge::refit_ridge_masked(&mut tuned, head, lambda).expect("masked refit");
        let v = metric(&tuned, val);
        if best.as_ref().is_none_or(|(bv, _)| v < *bv) {
            best = Some((v, tuned));
        }
    }
    if let Some((v, tuned)) = best {
        if v < raw_val {
            raw.model = tuned;
        }
    }
}

fn validated_finetune(
    raw: &mut DecomposedModel,
    p: &Prepared,
    _scale: &Scale,
    _ft: &TrainConfig,
    _seed: u64,
) {
    validated_finetune_by(raw, p, &|m, val| {
        Trainer::regression_rmse(m, val).expect("val rmse")
    });
}

/// Decomposes a stage-2 (Gaussian-programmed) model for the imputation
/// task: the pruned/masked support is re-calibrated by masked
/// pseudo-likelihood refit — consistent for a Gaussian graphical model
/// whose `h` is precision-proportional — gated on imputation RMSE over
/// the validation tail.
pub fn decompose_model_imputation(
    dense: &DsGlModel,
    p: &Prepared,
    scale: &Scale,
    density: f64,
    pattern: PatternKind,
    seed: u64,
) -> DecomposedModel {
    let mut cfg = decompose_config(p, scale, density, pattern);
    cfg.finetune = None;
    let mut rng = StdRng::seed_from_u64(seed ^ 0xdec0);
    let mut raw = decompose(dense, &[], &cfg, &mut rng).expect("decomposition");
    let frame_len = p.layout.frame_len();
    let observed: Vec<usize> = (0..frame_len).step_by(2).collect();
    validated_finetune_by(&mut raw, p, &|m, val| imputation_fp_rmse(m, val, &observed));
    raw
}

/// Trims a decomposed model until every PE-pair link's boundary demand
/// fits the portal lanes: per link, whole node-groups (weakest by total
/// coupling magnitude) lose their cross-PE couplings until at most
/// `lanes` distinct nodes export on each side. The result needs no
/// temporal multiplexing.
pub fn trim_to_lanes(d: &mut DecomposedModel, lanes: usize) {
    use std::collections::{BTreeMap, HashMap};
    // Cross-PE couplings keyed by (pe_a, pe_b) link.
    type LinkCouplings = BTreeMap<(usize, usize), Vec<(usize, usize, f64)>>;
    let mut by_link: LinkCouplings = BTreeMap::new();
    for (i, j, w) in d.model.coupling().nonzeros() {
        let (pa, pb) = (d.var_to_pe[i], d.var_to_pe[j]);
        if pa != pb {
            by_link
                .entry((pa.min(pb), pa.max(pb)))
                .or_default()
                .push((i, j, w));
        }
    }
    for ((pa, _pb), couplings) in by_link {
        // Trim each side independently until its exporter count fits.
        for side in 0..2 {
            let export_node = |&(i, j, _): &(usize, usize, f64)| {
                let i_on_a = d.var_to_pe[i] == pa;
                match (side, i_on_a) {
                    (0, true) | (1, false) => i,
                    _ => j,
                }
            };
            let mut weight_by_node: HashMap<usize, f64> = HashMap::new();
            for c in &couplings {
                *weight_by_node.entry(export_node(c)).or_insert(0.0) += c.2.abs();
            }
            if weight_by_node.len() <= lanes {
                continue;
            }
            let mut ranked: Vec<(usize, f64)> = weight_by_node.into_iter().collect();
            ranked.sort_by(|a, b| {
                b.1.partial_cmp(&a.1).expect("finite weights").then(a.0.cmp(&b.0))
            });
            let dropped: std::collections::HashSet<usize> =
                ranked[lanes..].iter().map(|&(n, _)| n).collect();
            for c in &couplings {
                if dropped.contains(&export_node(c)) {
                    d.model.coupling_mut().set(c.0, c.1, 0.0);
                }
            }
        }
    }
}

/// Builds the DS-GL-Spatial variant (paper: temporal co-annealing
/// disabled, trading accuracy for the lowest latency): decompose, trim
/// every link's boundary demand into the portal capacity (mesh-adjacent
/// PE pairs share *two* CUs, so a link carries up to `2L` exporters per
/// side), and refit the survivors. The decomposition density is chosen
/// on the validation tail — concentrated low-density models survive
/// trimming better on some datasets, spread-out ones on others.
pub fn decompose_spatial(
    dense: &DsGlModel,
    p: &Prepared,
    scale: &Scale,
    start_density: f64,
    seed: u64,
) -> DecomposedModel {
    let lanes = 2 * scaled_lanes(pe_capacity(&p.layout, scale.pe_grid));
    let (_, val) = head_val_split(&p.train);
    let mut best: Option<(f64, DecomposedModel)> = None;
    for density in [start_density, start_density * 0.5, start_density * 0.25] {
        let mut cfg = decompose_config(p, scale, density, PatternKind::DMesh);
        let ft = cfg.finetune.take().expect("decompose_config sets finetune");
        let mut rng = StdRng::seed_from_u64(seed ^ 0xdec0);
        let mut d = decompose(dense, &[], &cfg, &mut rng).expect("decomposition");
        trim_to_lanes(&mut d, lanes);
        validated_finetune(&mut d, p, scale, &ft, seed);
        let v = Trainer::regression_rmse(&d.model, val).expect("val rmse");
        if best.as_ref().is_none_or(|(bv, _)| v < *bv) {
            best = Some((v, d));
        }
    }
    best.expect("at least one density evaluated").1
}

/// The hardware configuration for a scaled machine.
pub fn hw_config(p: &Prepared, scale: &Scale) -> HwConfig {
    HwConfig {
        lanes: scaled_lanes(pe_capacity(&p.layout, scale.pe_grid)),
        ..HwConfig::default()
    }
}

/// Evaluates a decomposed model on the prepared test set.
pub fn eval_mapped(
    d: &DecomposedModel,
    p: &Prepared,
    hw: &HwConfig,
    seed: u64,
) -> EvalReport {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xe7a1);
    evaluate_mapped(d, &p.test, hw, &mut rng).expect("mapped evaluation")
}

/// Which baseline to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaselineKind {
    /// Graph WaveNet analogue.
    Gwn,
    /// MTGNN analogue.
    Mtgnn,
    /// DDGCRN analogue.
    Ddgcrn,
}

impl BaselineKind {
    /// All three baselines in the paper's order.
    pub const ALL: [BaselineKind; 3] =
        [BaselineKind::Gwn, BaselineKind::Mtgnn, BaselineKind::Ddgcrn];
}

/// Result of training and evaluating one baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineResult {
    /// Model name.
    pub name: &'static str,
    /// Test RMSE.
    pub rmse: f64,
    /// Exact FLOPs of one inference.
    pub flops: u64,
    /// Trainable parameters.
    pub params: usize,
}

/// Trains a baseline on the prepared dataset and evaluates it.
pub fn run_baseline(
    kind: BaselineKind,
    p: &Prepared,
    scale: &Scale,
    seed: u64,
) -> BaselineResult {
    let n = p.dataset.node_count();
    let f = p.dataset.feature_count();
    let w = scale.history;
    let hidden = 16;
    let cfg = GnnTrainConfig {
        epochs: scale.gnn_epochs,
        ..GnnTrainConfig::for_dims(w, n, f)
    };
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6111);
    let adj = graph_to_adjacency(&p.dataset.graph);
    match kind {
        BaselineKind::Gwn => {
            let mut m = GwnModel::new(&adj, w, f, hidden, &mut rng);
            train_gnn(&mut m, &p.train, &cfg, &mut rng);
            finish(&m, &p.test, &cfg)
        }
        BaselineKind::Mtgnn => {
            let mut m = MtgnnModel::new(n, w, f, hidden, &mut rng);
            train_gnn(&mut m, &p.train, &cfg, &mut rng);
            finish(&m, &p.test, &cfg)
        }
        BaselineKind::Ddgcrn => {
            let mut m = DdgcrnModel::new(&adj, w, f, hidden, &mut rng);
            train_gnn(&mut m, &p.train, &cfg, &mut rng);
            finish(&m, &p.test, &cfg)
        }
    }
}

fn finish<M: StGnn>(model: &M, test: &[Sample], cfg: &GnnTrainConfig) -> BaselineResult {
    BaselineResult {
        name: model.name(),
        rmse: evaluate_gnn(model, test, cfg),
        flops: model.inference_flops(),
        params: model.parameter_count(),
    }
}

/// FLOPs of one inference of a baseline instantiated at *paper scale*:
/// the node counts of the original (untruncated) datasets and the
/// hyper-parameters of the released GNN implementations (12-step
/// windows, hidden width 64). Accuracy experiments run at our scaled
/// size, but Table III's latency methodology — FLOPs over platform
/// peak throughput — only reproduces the paper's numbers at the
/// original model sizes; this function provides them analytically
/// (FLOPs depend only on architecture, not on training).
pub fn paper_scale_flops(kind: BaselineKind, app: &str) -> u64 {
    // Approximate node counts of the paper's real datasets.
    let (n, f) = match app {
        "covid" => (3_100, 1),   // US counties
        "air" => (3_300, 1),     // CNEMC reanalysis stations
        "traffic" => (2_750, 1), // Japan traffic sensors
        "stock" => (3_800, 1),   // NASDAQ tickers
        "ca_housing" => (1_200, 8),
        "climate" => (1_100, 12),
        other => panic!("unknown application {other}"),
    };
    let (w, hidden) = (12, 64);
    let mut rng = StdRng::seed_from_u64(0);
    let adj = dsgl_nn::Matrix::zeros(n, n);
    match kind {
        BaselineKind::Gwn => GwnModel::new(&adj, w, f, hidden, &mut rng).inference_flops(),
        BaselineKind::Mtgnn => MtgnnModel::new(n, w, f, hidden, &mut rng).inference_flops(),
        BaselineKind::Ddgcrn => DdgcrnModel::new(&adj, w, f, hidden, &mut rng).inference_flops(),
    }
}

/// FLOPs of an untrained baseline (FLOPs are architecture-only), used
/// by the platform table without paying for training.
pub fn baseline_flops(kind: BaselineKind, p: &Prepared, scale: &Scale) -> u64 {
    let n = p.dataset.node_count();
    let f = p.dataset.feature_count();
    let w = scale.history;
    let hidden = 16;
    let mut rng = StdRng::seed_from_u64(0);
    let adj = graph_to_adjacency(&p.dataset.graph);
    match kind {
        BaselineKind::Gwn => GwnModel::new(&adj, w, f, hidden, &mut rng).inference_flops(),
        BaselineKind::Mtgnn => MtgnnModel::new(n, w, f, hidden, &mut rng).inference_flops(),
        BaselineKind::Ddgcrn => DdgcrnModel::new(&adj, w, f, hidden, &mut rng).inference_flops(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepare_shapes() {
        let scale = Scale::quick();
        let p = prepare("covid", &scale, 1);
        assert_eq!(p.dataset.node_count(), scale.nodes);
        assert_eq!(p.layout.history(), scale.history);
        assert!(!p.train.is_empty());
        assert!(p.test.len() <= scale.test_cap && !p.test.is_empty());
    }

    #[test]
    fn multi_feature_prepare() {
        let scale = Scale::quick();
        let p = prepare("ca_housing", &scale, 1);
        assert_eq!(p.dataset.node_count(), scale.multi_nodes);
        assert_eq!(p.dataset.feature_count(), dsgl_data::housing::FEATURES);
    }

    #[test]
    #[should_panic(expected = "unknown dataset")]
    fn unknown_dataset_panics() {
        prepare("nope", &Scale::quick(), 0);
    }

    #[test]
    fn capacity_and_lanes_scale() {
        let layout = VariableLayout::new(4, 80, 1); // 400 vars
        let k = pe_capacity(&layout, (4, 4));
        assert!(k * 16 >= 400);
        assert!(k < 40);
        assert_eq!(scaled_lanes(500), 30, "paper scale recovers L = 30");
        assert!(scaled_lanes(k) >= 2);
    }

    #[test]
    fn trim_to_lanes_bounds_boundary_demand() {
        let scale = Scale::quick();
        let p = prepare("no2", &scale, 3);
        let (dense, _) = train_dense(&p, &scale, 3);
        let mut d = decompose_model(&dense, &p, &scale, 0.3, PatternKind::DMesh, 3);
        trim_to_lanes(&mut d, 2);
        let report = dsgl_hw::validate::validate_mapping(&d, 2);
        assert!(report.is_legal());
        for link in &report.links {
            assert!(
                link.boundary.0 <= 2 && link.boundary.1 <= 2,
                "link {:?} demand {:?}",
                link.pes,
                link.boundary
            );
            assert_eq!(link.slices, 1, "trimmed links must not slice");
        }
    }

    #[test]
    fn spatial_variant_never_slices() {
        let scale = Scale::quick();
        let p = prepare("covid", &scale, 4);
        let (dense, _) = train_dense(&p, &scale, 4);
        let d = decompose_spatial(&dense, &p, &scale, 0.15, 4);
        let lanes = 2 * scaled_lanes(pe_capacity(&p.layout, scale.pe_grid));
        let machine = dsgl_hw::MappedMachine::new(&d, lanes).unwrap();
        assert_eq!(machine.max_slices(), 1);
    }

    #[test]
    fn paper_scale_flops_in_papers_decade() {
        // GWN/covid at Stratix-10 peak must land near the paper's
        // 1141 µs row (±50 %).
        let flops = paper_scale_flops(BaselineKind::Gwn, "covid");
        let latency_us = flops as f64 / 2.7e12 * 1e6;
        assert!(
            (500.0..2000.0).contains(&latency_us),
            "latency {latency_us} µs"
        );
    }

    #[test]
    #[should_panic(expected = "unknown application")]
    fn paper_scale_flops_unknown_app() {
        paper_scale_flops(BaselineKind::Gwn, "nope");
    }

    #[test]
    fn imputation_training_never_worse_on_val() {
        let scale = Scale::quick();
        let p = prepare("stock", &scale, 5);
        let (stage1, _) = train_dense(&p, &scale, 5);
        let stage2 = train_dense_imputation(&p, &scale, 5);
        let (_, val) = head_val_split(&p.train);
        let observed: Vec<usize> = (0..p.layout.frame_len()).step_by(2).collect();
        let r1 = imputation_fp_rmse(&stage1, val, &observed);
        let r2 = imputation_fp_rmse(&stage2, val, &observed);
        assert!(r2 <= r1 + 1e-12, "gated stage 2 must not hurt: {r1} -> {r2}");
    }

    #[test]
    fn quick_end_to_end() {
        let scale = Scale::quick();
        let p = prepare("covid", &scale, 2);
        let (dense, report) = train_dense(&p, &scale, 2);
        assert!(
            report.final_loss() < report.epoch_losses[0],
            "training should reduce loss"
        );
        let d = decompose_model(&dense, &p, &scale, 0.2, PatternKind::DMesh, 2);
        let hw = hw_config(&p, &scale);
        let eval = eval_mapped(&d, &p, &hw, 2);
        assert!(eval.rmse.is_finite() && eval.rmse < 0.5, "rmse {}", eval.rmse);
        assert!(eval.mean_latency_ns > 0.0);
    }
}
