//! Dynamical-system substrate for DS-GL: the Ising model, the BRIM
//! bistable Ising machine, and the Real-Valued DSPU.
//!
//! This crate is the software embodiment of the analog hardware the paper
//! builds on. It provides:
//!
//! - [`Coupling`]: the symmetric coupling matrix `J` (the programmable
//!   resistor network), dense and sparse forms, pruning and masking;
//! - [`hamiltonian`]: the classic Ising energy and the paper's modified
//!   real-valued Hamiltonian `H_RV` with its quadratic self-reaction term;
//! - [`Brim`]: a simulator of the baseline binary BRIM machine
//!   (Afoakwa et al., HPCA'21) whose free nodes polarise to ±1;
//! - [`RealValuedDspu`]: the upgraded machine of paper Sec. III whose
//!   circulative resistor ring (negative `h`, quadratic energy) lets node
//!   voltages stabilise at real values — natural annealing solves
//!   `σᵢ = -Σⱼ Jᵢⱼσⱼ / hᵢ` for the free nodes;
//! - [`Nodes`]: the one integrator of those node dynamics, shared by the
//!   DSPU and the PE-mesh machine, which differ only in how they
//!   assemble coupling currents — see [`integrate`];
//! - [`NoiseModel`]: per-step Gaussian disturbance of nodes and couplers
//!   for the robustness study (paper Fig. 13);
//! - [`Trace`]: voltage-vs-time recording (paper Fig. 4);
//! - [`TelemetrySink`]: run-level metrics (steps, simulated time,
//!   residuals, active-set occupancy) reported by every annealing run
//!   into a thread-safe registry — see [`telemetry`];
//! - [`SpanCollector`]: per-request hierarchical tracing spans plus a
//!   [`FlightRecorder`] black box and Prometheus / Chrome-trace
//!   exporters — see [`tracing`].
//!
//! Simulated time is explicit: the integrator advances in nanosecond
//! timesteps, so "annealing latency" in the evaluation is simply the
//! simulated time to convergence.
//!
//! # Example
//!
//! ```
//! use dsgl_ising::{Coupling, RealValuedDspu, AnnealConfig};
//! use rand::SeedableRng;
//!
//! let mut j = Coupling::zeros(3);
//! j.set(0, 1, 0.4);
//! j.set(1, 2, -0.3);
//! let h = vec![-1.0; 3];
//! let mut dspu = RealValuedDspu::new(j, h).unwrap();
//! dspu.clamp(0, 0.8).unwrap();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! dspu.randomize_free(&mut rng);
//! let report = dspu.run(&AnnealConfig::default(), &mut rng);
//! assert!(report.converged);
//! assert!(dspu.state()[1].abs() < 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod anneal;
pub mod brim;
pub mod cancel;
pub mod convergence;
pub mod coupling;
pub mod dspu;
pub mod engine;
pub mod error;
pub mod fault;
pub mod hamiltonian;
pub mod integrate;
pub mod multigrid;
pub mod noise;
#[doc(hidden)]
pub mod par;
pub mod sparse;
pub mod telemetry;
pub mod trace;
pub mod tracing;
pub mod workspace;

/// Default node time constant in nanoseconds: the product of a node's
/// nano-scale capacitor and its resistor ring is ≈ 100 ns, which makes a
/// 2000-node machine anneal in a few hundred ns to ~1 µs — the latency
/// regime BRIM and DS-GL report.
pub const RC_NS: f64 = 100.0;

pub use anneal::{AnnealConfig, AnnealReport, FlipSchedule};
pub use brim::Brim;
pub use cancel::CancelToken;
pub use coupling::Coupling;
pub use dspu::RealValuedDspu;
pub use engine::{AdaptiveConfig, EngineMode};
pub use error::IsingError;
pub use integrate::Nodes;
pub use fault::{FaultModel, StuckNode};
pub use multigrid::{
    build_hierarchy, multigrid_warm_start, warm_start_with, MultigridHierarchy, MultigridOptions,
    MultigridReport,
};
pub use noise::NoiseModel;
pub use sparse::{SparseCoupling, TiledCoupling};
pub use telemetry::{MetricsRegistry, MetricsSnapshot, TelemetrySink};
pub use trace::Trace;
pub use tracing::{
    chrome_trace_json, prometheus_text, FlightDump, FlightEvent, FlightRecorder, SpanArg,
    SpanCollector, SpanRecord, TraceScope, TRACE_SCHEMA_VERSION,
};
pub use workspace::Workspace;
