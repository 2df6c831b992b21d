//! Experiment harness for the DS-GL reproduction.
//!
//! [`pipeline`] holds the shared train → decompose → map → evaluate
//! machinery every table and figure uses; [`report`] holds text-table
//! and CSV output helpers; [`fault`] sweeps hard-fault rates under
//! guarded inference. The `experiments` binary (see
//! `src/bin/experiments.rs`) regenerates each table and figure of the
//! paper; the Criterion benches in `benches/` time the underlying
//! kernels and run scaled-down versions of every experiment; and
//! `tests/bounds.rs` holds the fault, telemetry, kernel, serving,
//! supervision and multigrid layers to their workload-scale bounds.

#![forbid(unsafe_code)]
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![warn(missing_docs)]

pub mod fault;
pub mod pipeline;
pub mod report;
