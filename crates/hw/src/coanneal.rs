//! Co-annealing simulation of a decomposed model on the PE/CU mesh
//! (paper Sec. IV.D).
//!
//! Three physical effects distinguish the mapped machine from an ideal
//! dense DSPU, and all three are modelled here:
//!
//! 1. **Synchronisation staleness**: time-multiplexed mappings see
//!    remote node voltages as snapshots refreshed every
//!    `sync_interval_ns` (Fig. 12's knob). Links annealing purely
//!    spatially are continuous analog paths and always see live values —
//!    the paper needs no synchronisation within a single mapping;
//! 2. **Temporal multiplexing**: links whose boundary demand exceeds the
//!    `L` portal lanes rotate through coupling slices (switch-in-turn).
//!    A coupling's remote value is *sampled and held* while its slice is
//!    active and the held value keeps driving the coupler between
//!    activations (the In-CU Weight Buffer plus hold capacitors), so the
//!    machine performs a Jacobi-style iteration with values whose
//!    staleness is the rotation period — converging to the same fixed
//!    point as the dense machine, just more slowly. This is why higher
//!    density (more slices) needs a longer annealing budget (Fig. 11);
//! 3. **Wormholes**: long-range couplings ride CU super-connections and
//!    behave like ordinary cross-PE couplings once routed.
//!
//! All three live in the mesh's current assembly. The node dynamics are
//! the dense DSPU's: [`MappedMachine::run`] hands its assembly to
//! [`Nodes::run`], the one integrator both machines share (Euler
//! update, noise, rail clamp, convergence test and readout).

use crate::config::HwConfig;
use crate::fault::HwFaultModel;
use crate::schedule::{active_slice, schedule_link, CrossCoupling, LinkSchedule};
use dsgl_core::inference::EvalReport;
use dsgl_core::metrics::{pooled_rmse, rmse};
use dsgl_core::{CoreError, DecomposedModel, TelemetrySink, TraceScope};
use dsgl_data::Sample;
use dsgl_ising::anneal::Integrator;
use dsgl_ising::{AnnealConfig, AnnealReport, Coupling, Nodes, TiledCoupling};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Outcome of one mapped inference.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoAnnealReport {
    /// The underlying annealing run (latency = `anneal.sim_time_ns`).
    pub anneal: AnnealReport,
    /// Active PE-pair links.
    pub links: usize,
    /// Links that needed temporal multiplexing.
    pub temporal_links: usize,
    /// Largest slice count on any link.
    pub max_slices: usize,
    /// Wormhole super-connections in use.
    pub wormholes: usize,
}

/// A decomposed model loaded onto the simulated mesh hardware.
#[derive(Debug, Clone)]
pub struct MappedMachine {
    n: usize,
    /// Intra-PE couplings as dense per-PE tiles: `assemble` runs
    /// cache-resident tile kernels instead of CSR index chasing.
    intra: TiledCoupling,
    /// Scratch for the tiled mat-vec's gathered state.
    tile_gather: Vec<f64>,
    links: Vec<LinkSchedule>,
    /// Couplings of all purely spatial (single-slice) links, flattened
    /// into one contiguous list — these act on live voltages with no
    /// sample-and-hold state, so one hot loop covers them all.
    spatial: Vec<CrossCoupling>,
    /// Sample-and-hold values per sliced link: for each coupling of each
    /// slice, the held remote values `(held_of_b_for_a, held_of_a_for_b)`.
    held: Vec<Vec<Vec<(f64, f64)>>>,
    /// The node bank the shared integrator advances.
    nodes: Nodes,
    snapshot: Vec<f64>,
    target_range: std::ops::Range<usize>,
    history_len: usize,
    wormholes: usize,
    /// Per-node mask: `true` for variables placed on a declared-dead PE.
    /// Such nodes are pinned to ground on every load and never anneal.
    faulted: Vec<bool>,
    /// Cross-PE couplings severed by dead CU lanes at programming time.
    severed_couplings: usize,
    /// Variables placed per PE (index = PE id), for occupancy telemetry.
    pe_occupancy: Vec<usize>,
    /// Portal lanes per PE pair the machine was built with.
    lanes: usize,
    /// Metrics sink; noop unless [`set_telemetry`](Self::set_telemetry)
    /// attached an enabled one.
    telemetry: TelemetrySink,
    /// Span scope; noop unless [`set_tracing`](Self::set_tracing)
    /// attached an enabled one.
    tracing: TraceScope,
}

impl MappedMachine {
    /// Programs the mesh with a decomposed model.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if `lanes == 0`.
    pub fn new(decomposed: &DecomposedModel, lanes: usize) -> Result<Self, CoreError> {
        Self::with_faults(decomposed, lanes, &HwFaultModel::none())
    }

    /// Programs the mesh around declared-dead resources: cross-PE
    /// couplings through dead CU lanes are severed, and every variable
    /// placed on a dead PE is pinned to ground on each sample load (it
    /// neither anneals nor drives its couplers with anything but 0 V).
    /// Run [`crate::validate::validate_mapping_with_faults`] first to
    /// audit how much of the mapping the defects take out.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if `lanes == 0` or a
    /// declared defect references a PE outside the grid.
    pub fn with_faults(
        decomposed: &DecomposedModel,
        lanes: usize,
        faults: &HwFaultModel,
    ) -> Result<Self, CoreError> {
        if lanes == 0 {
            return Err(CoreError::InvalidConfig {
                reason: "hardware must have at least one lane per portal".into(),
            });
        }
        let pe_count = decomposed.grid.0 * decomposed.grid.1;
        if let Some(max_pe) = faults.max_pe() {
            if max_pe >= pe_count {
                return Err(CoreError::InvalidConfig {
                    reason: format!(
                        "fault model references PE {max_pe}, grid has {pe_count} PEs"
                    ),
                });
            }
        }
        let model = &decomposed.model;
        let n = model.layout().total();
        let mut intra = Coupling::zeros(n);
        let mut cross: BTreeMap<(usize, usize), Vec<CrossCoupling>> = BTreeMap::new();
        let mut severed = 0usize;
        for (i, j, w) in model.coupling().nonzeros() {
            let (pa, pb) = (decomposed.var_to_pe[i], decomposed.var_to_pe[j]);
            if pa == pb {
                intra.set(i, j, w);
            } else {
                if faults.lane_dead(pa, pb) {
                    severed += 1;
                    continue;
                }
                let key = (pa.min(pb), pa.max(pb));
                let (va, vb) = if pa < pb { (i, j) } else { (j, i) };
                cross.entry(key).or_default().push(CrossCoupling {
                    var_a: va,
                    var_b: vb,
                    weight: w,
                });
            }
        }
        let faulted: Vec<bool> = decomposed
            .var_to_pe
            .iter()
            .map(|&pe| faults.pe_dead(pe))
            .collect();
        let mut pe_occupancy = vec![0usize; pe_count];
        for &pe in &decomposed.var_to_pe {
            pe_occupancy[pe] += 1;
        }
        let links: Vec<LinkSchedule> = cross
            .into_iter()
            .map(|((a, b), cs)| schedule_link(a, b, &cs, lanes))
            .collect();
        let held = links
            .iter()
            .map(|l| {
                l.slices
                    .iter()
                    .map(|s| vec![(0.0, 0.0); s.len()])
                    .collect()
            })
            .collect();
        let spatial: Vec<CrossCoupling> = links
            .iter()
            .filter_map(LinkSchedule::spatial)
            .flatten()
            .copied()
            .collect();
        let layout = model.layout();
        Ok(MappedMachine {
            n,
            intra: TiledCoupling::from_dense_partition(&intra, &decomposed.var_to_pe),
            tile_gather: Vec::new(),
            links,
            spatial,
            held,
            nodes: Nodes::new(model.h().to_vec()),
            snapshot: vec![0.0; n],
            target_range: layout.target_range(),
            history_len: layout.history_len(),
            wormholes: decomposed.wormholes.len(),
            faulted,
            severed_couplings: severed,
            pe_occupancy,
            lanes,
            telemetry: TelemetrySink::noop(),
            tracing: TraceScope::noop(),
        })
    }

    /// Attaches a [`TelemetrySink`] and records the static mapping shape
    /// (`hw.mappings`, `hw.pes`, `hw.lanes`, `hw.links`,
    /// `hw.temporal_links`, `hw.max_slices`, `hw.wormholes`,
    /// `hw.pe_occupancy`, `hw.cu_lane_demand`) once. Subsequent
    /// [`run`](Self::run)s record the `hw.coanneal_runs`,
    /// `hw.slice_switches`, and `hw.sync_refreshes` counters. The sink
    /// never touches the RNG or the dynamics, so co-annealed results are
    /// bit-identical with or without it.
    pub fn set_telemetry(&mut self, sink: TelemetrySink) {
        self.telemetry = sink;
        self.record_mapping_metrics();
    }

    /// The attached telemetry sink (noop by default).
    pub fn telemetry(&self) -> &TelemetrySink {
        &self.telemetry
    }

    /// Attaches a [`TraceScope`]. Each subsequent [`run`](Self::run)
    /// records one `hw.coanneal` span (steps, sim time, convergence)
    /// into the scope's collector, parented to the scope's current
    /// parent span. Follows the telemetry contract: the span is built
    /// only after the dynamics finish, a noop scope costs one branch
    /// and reads no clock, so co-annealed results are bit-identical
    /// with or without tracing.
    pub fn set_tracing(&mut self, scope: TraceScope) {
        self.tracing = scope;
    }

    /// The attached trace scope (noop by default).
    pub fn tracing(&self) -> &TraceScope {
        &self.tracing
    }

    /// Gauges and histograms describing the programmed mapping.
    fn record_mapping_metrics(&self) {
        let sink = &self.telemetry;
        if !sink.is_enabled() {
            return;
        }
        sink.counter_add("hw.mappings", 1);
        sink.gauge_set("hw.pes", self.pe_occupancy.len() as f64);
        sink.gauge_set("hw.lanes", self.lanes as f64);
        sink.gauge_set("hw.links", self.link_count() as f64);
        sink.gauge_set("hw.temporal_links", self.temporal_link_count() as f64);
        sink.gauge_set("hw.max_slices", self.max_slices() as f64);
        sink.gauge_set("hw.wormholes", self.wormholes as f64);
        for &occ in &self.pe_occupancy {
            sink.record("hw.pe_occupancy", occ as f64);
        }
        // Per-link CU lane demand: the heavier side's boundary export
        // count — compared against the built lane budget `L`, this is
        // the slice pressure of the mapping.
        for link in &self.links {
            let (a, b) = link.boundary;
            sink.record("hw.cu_lane_demand", a.max(b) as f64);
        }
    }

    /// Variables placed on declared-dead PEs (pinned to ground).
    pub fn faulted_nodes(&self) -> Vec<usize> {
        self.faulted
            .iter()
            .enumerate()
            .filter_map(|(i, &f)| f.then_some(i))
            .collect()
    }

    /// Target-frame indices whose variable sits on a dead PE — the
    /// entries a caller should degrade to a fallback value after
    /// [`MappedMachine::prediction`].
    pub fn faulted_target_indices(&self) -> Vec<usize> {
        self.target_range
            .clone()
            .enumerate()
            .filter_map(|(frame_idx, v)| self.faulted[v].then_some(frame_idx))
            .collect()
    }

    /// Cross-PE couplings severed by dead CU lanes when programming.
    pub fn severed_couplings(&self) -> usize {
        self.severed_couplings
    }

    /// Whether any declared defect affects this machine.
    pub fn has_faults(&self) -> bool {
        self.severed_couplings > 0 || self.faulted.iter().any(|&f| f)
    }

    /// Pins every faulted node to ground: a dead PE's outputs read 0 V
    /// and must not be treated as free variables.
    fn pin_faulted(&mut self) {
        for (v, &dead) in self.faulted.iter().enumerate() {
            if dead {
                self.nodes.state[v] = 0.0;
                self.nodes.free[v] = false;
            }
        }
    }

    /// Number of PE-pair links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Links requiring temporal multiplexing at the built lane count.
    pub fn temporal_link_count(&self) -> usize {
        self.links.iter().filter(|l| l.is_temporal()).count()
    }

    /// Largest slice count across links (1 = pure spatial).
    pub fn max_slices(&self) -> usize {
        self.links.iter().map(LinkSchedule::slice_count).max().unwrap_or(1)
    }

    /// Current node voltages.
    pub fn state(&self) -> &[f64] {
        &self.nodes.state
    }

    /// Loads a sample: history variables clamped, target variables
    /// randomised near zero.
    pub fn load_sample<R: Rng + ?Sized>(&mut self, sample: &Sample, rng: &mut R) -> Result<(), CoreError> {
        self.load(sample, &[], rng)
    }

    /// Loads a sample in imputation mode: history variables *and* the
    /// listed target-frame entries are clamped to their true values;
    /// only the remaining targets anneal (paper: acquiring unknown node
    /// features from observed ones).
    ///
    /// # Errors
    ///
    /// Returns shape mismatches and out-of-range observed indices.
    pub fn load_sample_imputation<R: Rng + ?Sized>(
        &mut self,
        sample: &Sample,
        observed_targets: &[usize],
        rng: &mut R,
    ) -> Result<(), CoreError> {
        self.load(sample, observed_targets, rng)
    }

    /// The one loader: clamps history and the observed targets,
    /// randomises the rest of the target block, pins faulted nodes,
    /// and primes the sync snapshot and every sample-and-hold buffer
    /// from the loaded state.
    fn load<R: Rng + ?Sized>(
        &mut self,
        sample: &Sample,
        observed_targets: &[usize],
        rng: &mut R,
    ) -> Result<(), CoreError> {
        if sample.history.len() != self.history_len
            || sample.target.len() != self.target_range.len()
        {
            return Err(CoreError::SampleShapeMismatch {
                what: "sample",
                expected: self.n,
                actual: sample.history.len() + sample.target.len(),
            });
        }
        for (v, &obs) in sample.history.iter().enumerate() {
            self.nodes.state[v] = obs.clamp(-self.nodes.rail, self.nodes.rail);
            self.nodes.free[v] = false;
        }
        self.nodes.free[self.target_range.clone()].fill(true);
        self.nodes.randomize_free(rng);
        let frame_len = self.target_range.len();
        for &t_idx in observed_targets {
            if t_idx >= frame_len {
                return Err(CoreError::SampleShapeMismatch {
                    what: "observed target index",
                    expected: frame_len,
                    actual: t_idx,
                });
            }
            let v = self.history_len + t_idx;
            self.nodes.state[v] = sample.target[t_idx].clamp(-self.nodes.rail, self.nodes.rail);
            self.nodes.free[v] = false;
        }
        self.pin_faulted();
        self.snapshot.copy_from_slice(&self.nodes.state);
        for (li, link) in self.links.iter().enumerate() {
            for (slice, helds) in link.slices.iter().zip(self.held[li].iter_mut()) {
                for (c, h) in slice.iter().zip(helds.iter_mut()) {
                    h.0 = self.snapshot[c.var_b];
                    h.1 = self.snapshot[c.var_a];
                }
            }
        }
        Ok(())
    }

    /// One step's coupling currents at simulated time `t`. Kept out of
    /// line: inlined into the shared integrator loop, this assembly ran
    /// ~5 % slower per window on the `covid` mesh.
    #[inline(never)]
    fn assemble(
        &mut self,
        t: f64,
        last_sync: &mut f64,
        config: &HwConfig,
        state: &[f64],
        currents: &mut [f64],
    ) {
        // Inter-tile synchronisation: refresh remote views.
        if t - *last_sync >= config.sync_interval_ns {
            self.snapshot.copy_from_slice(state);
            *last_sync = t;
        }
        // Intra-PE couplings act on live voltages: dense per-PE tile
        // kernels over gathered state.
        self.intra
            .matvec_with_scratch(state, currents, &mut self.tile_gather);
        // Cross-PE couplings: spatially co-annealed links (one slice)
        // are continuous analog paths through the CU crossbar and act on
        // live voltages — the paper needs no synchronisation within a
        // mapping; all of them are flattened into one contiguous list.
        for c in &self.spatial {
            currents[c.var_a] += c.weight * state[c.var_b];
            currents[c.var_b] += c.weight * state[c.var_a];
        }
        // Time-multiplexed links sample-and-hold: the active slice
        // refreshes its held remote values (from the synchronised
        // snapshot), and every coupling keeps driving with its held
        // value between activations.
        for (li, link) in self.links.iter().enumerate() {
            let s = link.slice_count();
            if s == 1 {
                continue; // handled by the flattened spatial list
            }
            let active = active_slice(s, config.slice_dwell_ns, t);
            for (c, h) in link.slices[active]
                .iter()
                .zip(self.held[li][active].iter_mut())
            {
                h.0 = self.snapshot[c.var_b];
                h.1 = self.snapshot[c.var_a];
            }
            for (slice, helds) in link.slices.iter().zip(&self.held[li]) {
                for (c, h) in slice.iter().zip(helds) {
                    currents[c.var_a] += c.weight * h.0;
                    currents[c.var_b] += c.weight * h.1;
                }
            }
        }
    }

    /// Runs co-annealing under `config`, returning the report.
    ///
    /// The mesh always integrates strict forward Euler:
    /// `config.anneal.integrator` and `config.anneal.mode` are ignored.
    /// Only the current assembly is the mesh's own; the integration,
    /// convergence test and readout are [`Nodes::run`]'s. When slices
    /// rotate (or noise is injected) the voltages ripple around the
    /// fixed point, so the readout integrates over at least one full
    /// rotation period: this is how analog machines average
    /// duty-cycled couplings out of the output.
    pub fn run<R: Rng + ?Sized>(&mut self, config: &HwConfig, rng: &mut R) -> CoAnnealReport {
        let span_start = self.tracing.start();
        let anneal = AnnealConfig {
            integrator: Integrator::Euler,
            ..config.anneal
        };
        let slices = self.max_slices();
        let min_readout_ns = if slices > 1 || !anneal.noise.is_none() {
            (slices as f64 * config.slice_dwell_ns).max(4.0 * anneal.dt_ns)
        } else {
            0.0
        };
        self.snapshot.copy_from_slice(&self.nodes.state);
        // The node bank is lent to the integrator for the run so that the
        // current assembly can borrow the rest of the machine.
        let mut nodes = std::mem::replace(&mut self.nodes, Nodes::new(Vec::new()));
        let mut last_sync = 0.0;
        let currents = |t, state: &[f64], out: &mut [f64]| {
            self.assemble(t, &mut last_sync, config, state, out)
        };
        let anneal_report = nodes.run(&anneal, min_readout_ns, None, None, rng, currents);
        self.nodes = nodes;
        let t = anneal_report.sim_time_ns;
        if self.telemetry.is_enabled() {
            self.telemetry.counter_add("hw.coanneal_runs", 1);
            // Both counters are derived arithmetically from simulated
            // time, so the hot loop stays untouched: snapshot refreshes
            // happen once per sync interval, and every temporal link
            // advances its active slice once per dwell period.
            if config.sync_interval_ns > 0.0 {
                self.telemetry.counter_add(
                    "hw.sync_refreshes",
                    (t / config.sync_interval_ns).floor().max(0.0) as u64,
                );
            }
            if slices > 1 && config.slice_dwell_ns > 0.0 {
                self.telemetry.counter_add(
                    "hw.slice_switches",
                    (t / config.slice_dwell_ns).floor().max(0.0) as u64
                        * self.temporal_link_count() as u64,
                );
            }
        }
        self.tracing.record(
            "hw.coanneal",
            span_start,
            &[
                ("steps", anneal_report.steps as f64),
                ("sim_time_ns", t),
                ("converged", f64::from(u8::from(anneal_report.converged))),
            ],
        );
        CoAnnealReport {
            anneal: anneal_report,
            links: self.link_count(),
            temporal_links: self.temporal_link_count(),
            max_slices: slices,
            wormholes: self.wormholes,
        }
    }

    /// The target-block prediction after a run: the free targets hold
    /// the integrated readout when one was latched, the instantaneous
    /// voltages otherwise.
    pub fn prediction(&self) -> Vec<f64> {
        self.nodes.state[self.target_range.clone()].to_vec()
    }
}

/// One mapped inference: program, load, co-anneal, read out.
///
/// # Errors
///
/// Returns configuration and shape errors from machine construction.
pub fn infer_mapped<R: Rng + ?Sized>(
    decomposed: &DecomposedModel,
    sample: &Sample,
    config: &HwConfig,
    rng: &mut R,
) -> Result<(Vec<f64>, CoAnnealReport), CoreError> {
    let mut machine = MappedMachine::new(decomposed, config.lanes)?;
    machine.load_sample(sample, rng)?;
    let report = machine.run(config, rng);
    Ok((machine.prediction(), report))
}

/// Evaluates mapped inference over a test set (machine built once,
/// reloaded per sample).
///
/// # Errors
///
/// Returns [`CoreError::EmptyTrainingSet`] for an empty test set.
pub fn evaluate_mapped<R: Rng + ?Sized>(
    decomposed: &DecomposedModel,
    samples: &[Sample],
    config: &HwConfig,
    rng: &mut R,
) -> Result<EvalReport, CoreError> {
    if samples.is_empty() {
        return Err(CoreError::EmptyTrainingSet);
    }
    let mut machine = MappedMachine::new(decomposed, config.lanes)?;
    let mut per_sample = Vec::with_capacity(samples.len());
    let mut latency = 0.0;
    let mut converged = 0usize;
    for s in samples {
        machine.load_sample(s, rng)?;
        let report = machine.run(config, rng);
        let pred = machine.prediction();
        per_sample.push((rmse(&pred, &s.target), pred.len()));
        latency += report.anneal.sim_time_ns;
        converged += report.anneal.converged as usize;
    }
    Ok(EvalReport {
        rmse: pooled_rmse(&per_sample),
        mean_latency_ns: latency / samples.len() as f64,
        samples: samples.len(),
        converged_fraction: converged as f64 / samples.len() as f64,
    })
}

/// Evaluates mapped *imputation*: for each sample a seeded random
/// `observe_fraction` of the target frame is clamped to ground truth and
/// the rest is annealed; RMSE is pooled over the unobserved entries
/// only.
///
/// # Errors
///
/// Returns [`CoreError::EmptyTrainingSet`] for an empty test set and
/// [`CoreError::InvalidConfig`] for a fraction outside `[0, 1)`.
pub fn evaluate_mapped_imputation<R: Rng + ?Sized>(
    decomposed: &DecomposedModel,
    samples: &[Sample],
    observe_fraction: f64,
    config: &HwConfig,
    rng: &mut R,
) -> Result<EvalReport, CoreError> {
    if samples.is_empty() {
        return Err(CoreError::EmptyTrainingSet);
    }
    if !(0.0..1.0).contains(&observe_fraction) {
        return Err(CoreError::InvalidConfig {
            reason: format!("observe fraction {observe_fraction} outside [0, 1)"),
        });
    }
    let mut machine = MappedMachine::new(decomposed, config.lanes)?;
    let frame_len = decomposed.model.layout().frame_len();
    let observe_count = ((frame_len as f64) * observe_fraction).round() as usize;
    let mut per_sample = Vec::with_capacity(samples.len());
    let mut latency = 0.0;
    let mut converged = 0usize;
    for s in samples {
        // Seeded pseudo-random observed subset (shuffle of indices).
        let mut idx: Vec<usize> = (0..frame_len).collect();
        use rand::seq::SliceRandom;
        idx.shuffle(rng);
        let observed = &idx[..observe_count];
        machine.load_sample_imputation(s, observed, rng)?;
        let report = machine.run(config, rng);
        let pred = machine.prediction();
        let hidden: Vec<usize> = idx[observe_count..].to_vec();
        if hidden.is_empty() {
            continue;
        }
        let p: Vec<f64> = hidden.iter().map(|&i| pred[i]).collect();
        let t: Vec<f64> = hidden.iter().map(|&i| s.target[i]).collect();
        per_sample.push((rmse(&p, &t), p.len()));
        latency += report.anneal.sim_time_ns;
        converged += report.anneal.converged as usize;
    }
    Ok(EvalReport {
        rmse: pooled_rmse(&per_sample),
        mean_latency_ns: latency / samples.len() as f64,
        samples: samples.len(),
        converged_fraction: converged as f64 / samples.len() as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsgl_core::inference::infer_fixed_point;
    use dsgl_core::{decompose, DecomposeConfig, DsGlModel, PatternKind, TrainConfig, Trainer, VariableLayout};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn trained_decomposed(
        nodes: usize,
        density: f64,
        seed: u64,
    ) -> (DecomposedModel, Vec<Sample>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let samples: Vec<Sample> = (0..40)
            .map(|_| {
                let hist: Vec<f64> = (0..nodes).map(|_| rng.random::<f64>() * 0.8).collect();
                let target: Vec<f64> = (0..nodes)
                    .map(|i| 0.55 * hist[i] + 0.25 * hist[(i + 1) % nodes])
                    .collect();
                Sample { history: hist, target }
            })
            .collect();
        let layout = VariableLayout::new(1, nodes, 1);
        let mut model = DsGlModel::new(layout);
        Trainer::new(TrainConfig {
            epochs: 50,
            lr: 0.05,
            lr_decay: 0.98,
            ..TrainConfig::default()
        })
        .fit(&mut model, &samples, &mut rng)
        .unwrap();
        let cfg = DecomposeConfig {
            density,
            pattern: PatternKind::DMesh,
            wormhole_budget: 2,
            pe_capacity: nodes.div_ceil(2),
            grid: (2, 2),
            finetune: Some(TrainConfig {
                epochs: 15,
                lr: 0.05,
                lr_decay: 0.98,
                ..TrainConfig::default()
            }),
        };
        let d = decompose(&model, &samples, &cfg, &mut rng).unwrap();
        (d, samples)
    }

    #[test]
    fn mapped_inference_close_to_fixed_point() {
        let (d, samples) = trained_decomposed(8, 0.6, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let hw = HwConfig::default().with_sync_interval(10.0);
        let (pred, report) = infer_mapped(&d, &samples[0], &hw, &mut rng).unwrap();
        assert!(report.anneal.converged, "did not converge: {report:?}");
        let fp = infer_fixed_point(&d.model, &samples[0], &[], 300).unwrap();
        let diff = rmse(&pred, &fp);
        assert!(diff < 0.02, "mapped vs fixed point rmse {diff}");
    }

    #[test]
    fn temporal_multiplexing_engages_with_few_lanes() {
        let (d, samples) = trained_decomposed(8, 0.6, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let spacious = MappedMachine::new(&d, 30).unwrap();
        assert_eq!(spacious.max_slices(), 1, "30 lanes should be plenty");
        let tight = MappedMachine::new(&d, 1).unwrap();
        if tight.link_count() > 0 {
            // With one lane, any link exporting >1 node must slice.
            let boundary: usize = d
                .cross_pe_couplings()
                .len();
            if boundary > 1 {
                assert!(tight.max_slices() >= 1);
            }
        }
        // A sliced machine still anneals to a sensible answer.
        let hw = HwConfig {
            lanes: 1,
            slice_dwell_ns: 20.0,
            ..HwConfig::default()
        };
        let (pred, report) = infer_mapped(&d, &samples[0], &hw, &mut rng).unwrap();
        assert_eq!(pred.len(), samples[0].target.len());
        assert!(report.max_slices >= 1);
        let err = rmse(&pred, &samples[0].target);
        assert!(err < 0.3, "sliced inference way off: {err}");
    }

    #[test]
    fn stale_sync_hurts_accuracy() {
        let (d, samples) = trained_decomposed(8, 0.6, 5);
        if d.cross_pe_couplings().is_empty() {
            return; // placement happened to be fully local; nothing to test
        }
        let eval = |sync: f64, seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let hw = HwConfig::default().with_sync_interval(sync).with_budget(4_000.0);
            evaluate_mapped(&d, &samples[..10], &hw, &mut rng).unwrap().rmse
        };
        let fresh = eval(10.0, 7);
        let stale = eval(4_000.0, 7);
        assert!(
            stale >= fresh - 1e-6,
            "staleness should not help: fresh {fresh}, stale {stale}"
        );
    }

    #[test]
    fn evaluate_mapped_reports() {
        let (d, samples) = trained_decomposed(8, 0.6, 8);
        let mut rng = StdRng::seed_from_u64(9);
        let hw = HwConfig::default();
        let report = evaluate_mapped(&d, &samples[..5], &hw, &mut rng).unwrap();
        assert_eq!(report.samples, 5);
        assert!(report.rmse < 0.2, "rmse {}", report.rmse);
        assert!(report.mean_latency_ns > 0.0);
    }

    #[test]
    fn zero_lanes_rejected() {
        let (d, _) = trained_decomposed(8, 0.6, 10);
        assert!(matches!(
            MappedMachine::new(&d, 0),
            Err(CoreError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn imputation_clamps_observed_targets() {
        let (d, samples) = trained_decomposed(8, 0.6, 12);
        let mut machine = MappedMachine::new(&d, 30).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let observed = [0usize, 2, 4];
        machine
            .load_sample_imputation(&samples[0], &observed, &mut rng)
            .unwrap();
        let hw = HwConfig::default();
        machine.run(&hw, &mut rng);
        let pred = machine.prediction();
        for &i in &observed {
            assert!(
                (pred[i] - samples[0].target[i]).abs() < 1e-12,
                "observed target {i} must stay clamped"
            );
        }
        // Out-of-range observed index rejected.
        assert!(machine
            .load_sample_imputation(&samples[0], &[999], &mut rng)
            .is_err());
    }

    #[test]
    fn evaluate_mapped_imputation_reports() {
        let (d, samples) = trained_decomposed(8, 0.6, 13);
        let mut rng = StdRng::seed_from_u64(6);
        let hw = HwConfig::default();
        let report =
            evaluate_mapped_imputation(&d, &samples[..6], 0.5, &hw, &mut rng).unwrap();
        assert_eq!(report.samples, 6);
        assert!(report.rmse.is_finite() && report.rmse < 0.5);
        // Bad fraction rejected.
        assert!(evaluate_mapped_imputation(&d, &samples[..2], 1.5, &hw, &mut rng).is_err());
        assert!(evaluate_mapped_imputation(&d, &[], 0.5, &hw, &mut rng).is_err());
    }

    #[test]
    fn dead_pe_pins_its_variables_to_ground() {
        let (d, samples) = trained_decomposed(8, 0.6, 20);
        let pe = (0..d.pe_count()).find(|&p| !d.vars_on(p).is_empty()).unwrap();
        let faults = HwFaultModel {
            dead_pes: vec![pe],
            dead_cu_lanes: vec![],
        };
        let mut machine = MappedMachine::with_faults(&d, 30, &faults).unwrap();
        assert!(machine.has_faults());
        assert_eq!(machine.faulted_nodes(), d.vars_on(pe));
        let mut rng = StdRng::seed_from_u64(21);
        machine.load_sample(&samples[0], &mut rng).unwrap();
        machine.run(&HwConfig::default(), &mut rng);
        for &v in &machine.faulted_nodes() {
            assert_eq!(machine.state()[v], 0.0, "dead node {v} must read ground");
        }
        // The surviving fabric still produces finite output.
        assert!(machine.prediction().iter().all(|p| p.is_finite()));
        // Frame indices line up with the faulted target variables.
        for idx in machine.faulted_target_indices() {
            assert!(machine.faulted_nodes().contains(&(d.model.layout().history_len() + idx)));
        }
    }

    #[test]
    fn dead_cu_lane_severs_cross_couplings() {
        let (d, samples) = trained_decomposed(8, 0.6, 22);
        let healthy = MappedMachine::new(&d, 30).unwrap();
        let Some(first) = d.cross_pe_couplings().first().copied() else {
            return; // fully local placement; nothing to sever
        };
        let (pa, pb) = (d.var_to_pe[first.0], d.var_to_pe[first.1]);
        let faults = HwFaultModel {
            dead_pes: vec![],
            dead_cu_lanes: vec![(pa, pb)],
        };
        let mut machine = MappedMachine::with_faults(&d, 30, &faults).unwrap();
        assert!(machine.severed_couplings() > 0);
        assert!(machine.link_count() < healthy.link_count() || machine.severed_couplings() > 0);
        // Still anneals to finite output without the severed couplings.
        let mut rng = StdRng::seed_from_u64(23);
        machine.load_sample(&samples[0], &mut rng).unwrap();
        machine.run(&HwConfig::default(), &mut rng);
        assert!(machine.prediction().iter().all(|p| p.is_finite()));
    }

    #[test]
    fn fault_model_outside_grid_rejected() {
        let (d, _) = trained_decomposed(8, 0.6, 24);
        let faults = HwFaultModel {
            dead_pes: vec![99],
            dead_cu_lanes: vec![],
        };
        assert!(matches!(
            MappedMachine::with_faults(&d, 30, &faults),
            Err(CoreError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn no_faults_is_bit_identical_to_new() {
        let (d, samples) = trained_decomposed(8, 0.6, 25);
        let run = |mut machine: MappedMachine, hw: &HwConfig| {
            let mut rng = StdRng::seed_from_u64(26);
            machine.load_sample(&samples[0], &mut rng).unwrap();
            let report = machine.run(hw, &mut rng);
            let bits = machine
                .prediction()
                .iter()
                .map(|p| p.to_bits())
                .collect::<Vec<_>>();
            (bits, report)
        };
        let plain = run(MappedMachine::new(&d, 30).unwrap(), &HwConfig::default());
        let faultless = run(
            MappedMachine::with_faults(&d, 30, &HwFaultModel::none()).unwrap(),
            &HwConfig::default(),
        );
        assert_eq!(plain, faultless);
        // The mesh always integrates strict Euler: an RK4 or adaptive
        // annealing configuration is ignored and gives the same bits.
        let rk4 = AnnealConfig {
            integrator: Integrator::Rk4,
            ..AnnealConfig::default()
        };
        for anneal in [rk4, AnnealConfig::adaptive()] {
            let hw = HwConfig {
                anneal,
                ..HwConfig::default()
            };
            assert_eq!(run(MappedMachine::new(&d, 30).unwrap(), &hw), plain);
        }
    }

    #[test]
    fn bad_sample_shape_rejected() {
        let (d, _) = trained_decomposed(8, 0.6, 11);
        let mut machine = MappedMachine::new(&d, 30).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let bad = Sample {
            history: vec![0.0; 3],
            target: vec![0.0; 8],
        };
        assert!(machine.load_sample(&bad, &mut rng).is_err());
    }
}
