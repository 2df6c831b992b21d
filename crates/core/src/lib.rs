//! DS-GL: nature-powered graph learning on real-valued dynamical systems.
//!
//! This crate is the paper's primary contribution. It turns a
//! spatio-temporal graph-learning problem into the natural-annealing
//! process of a parameterised dynamical system:
//!
//! 1. **Variable layout** ([`VariableLayout`]): a window of `W` history
//!    frames plus the one-step-ahead target frame becomes one system
//!    state of `(W+1)·N·F` coupled variables.
//! 2. **Training** ([`Trainer`]): the coupling matrix `J` (symmetric,
//!    zero diagonal) and self-reactions `h` (strictly negative) are
//!    learned by regressing every target variable from all others via the
//!    fixed-point formula `σᵢ = -Σⱼ Jᵢⱼσⱼ / hᵢ` (paper Eq. 10), with a
//!    contraction projection that keeps annealing convergent.
//! 3. **Inference** ([`inference`]): observed history variables are
//!    clamped, the machine anneals, and the equilibrium of the target
//!    block is the prediction (paper Sec. III.C).
//! 4. **Decomposition** ([`decompose`]): prune to a target density,
//!    extract communities (Louvain), redistribute onto a PE grid, mask to
//!    an interconnect pattern (Chain / Mesh / DMesh + Wormholes), and
//!    fine-tune under the mask (paper Sec. IV.B, Fig. 5).
//!
//! # Example: train and infer on a toy series
//!
//! ```
//! use dsgl_core::{DsGlModel, RunCtx, Trainer, TrainConfig, VariableLayout, inference};
//! use dsgl_data::{covid, WindowConfig};
//! use dsgl_ising::AnnealConfig;
//! use rand::SeedableRng;
//!
//! let ds = covid::generate(1);
//! let wc = WindowConfig::one_step(2);
//! let (train, _, test) = ds.split_windows(&wc, 0.2, 0.0);
//! let layout = VariableLayout::new(2, ds.node_count(), ds.feature_count());
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let mut model = DsGlModel::new(layout);
//! let cfg = TrainConfig { epochs: 2, ..TrainConfig::default() };
//! Trainer::new(cfg).fit(&mut model, &train[..20.min(train.len())], &mut rng).unwrap();
//! let (pred, report) = inference::infer_dense(
//!     &model, &test[0], &AnnealConfig::default(), &mut rng, &mut RunCtx::default()).unwrap();
//! assert_eq!(pred.len(), ds.node_count());
//! assert!(report.sim_time_ns > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod error;
pub mod guard;
pub mod inference;
pub mod metrics;
pub mod model;
pub mod patterns;
pub mod ridge;
pub mod sparsify;
pub mod telemetry;
pub mod threading;
pub mod tracing;
pub mod trainer;
pub mod windows;

pub use dsgl_ising::CancelToken;
pub use error::CoreError;
pub use guard::{GuardedAnneal, HealthReport, RetryPolicy};
pub use inference::{RunCtx, WarmStart};
pub use model::{DsGlModel, VariableLayout};
pub use patterns::PatternKind;
pub use sparsify::{decompose, DecomposeConfig, DecomposedModel};
pub use telemetry::{MetricsSnapshot, TelemetrySink};
pub use threading::Threading;
pub use tracing::{FlightDump, FlightRecorder, SpanCollector, SpanRecord, TraceScope};
pub use trainer::{TrainConfig, TrainReport, Trainer};
