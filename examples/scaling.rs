//! Multigrid warm starts on a community-structured model.
//!
//! Builds a DS-GL model whose target variables form planted communities
//! (strong intra-block couplings, weak bridges between blocks), then
//! anneals a batch of forecast windows under two [`WarmStart`] policies:
//!
//! * **cold** — each window starts from a seeded random state;
//! * **multigrid** — each window starts from the prolonged equilibrium
//!   of a Louvain-coarsened replica (one coarse node per community),
//!   with the hierarchy built once per batch and shared across windows.
//!
//! Both policies predict the same equilibria (the system is diagonally
//! dominant, so the fixed point is unique); the difference is how many
//! fine integrator steps it takes to get there. The run finishes by
//! printing the `mg.*` telemetry family the multigrid path records.
//!
//! ```sh
//! cargo run --release --example scaling
//! ```

use dsgl::core::inference::infer_batch;
use dsgl::core::{DsGlModel, RunCtx, TelemetrySink, VariableLayout, WarmStart};
use dsgl::data::Sample;
use dsgl::ising::multigrid::instruments;
use dsgl::ising::AnnealConfig;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::time::Instant;

const BLOCKS: usize = 6;
const BLOCK: usize = 32;
const WINDOWS: usize = 12;

/// A one-step forecasting model over `BLOCKS * BLOCK` regions whose
/// target block carries planted community structure: dense positive
/// couplings inside each block, one weak bridge between consecutive
/// blocks, and a persistence coupling from each region's history node.
fn community_model(seed: u64) -> (DsGlModel, Vec<Sample>) {
    let n = BLOCKS * BLOCK;
    let mut model = DsGlModel::new(VariableLayout::new(1, n, 1));
    let mut rng = StdRng::seed_from_u64(seed);
    {
        let j = model.coupling_mut();
        for b in 0..BLOCKS {
            let (lo, hi) = (b * BLOCK, (b + 1) * BLOCK);
            for a in lo..hi {
                for c in (a + 1)..hi {
                    if rng.random::<f64>() < 0.3 {
                        j.set(n + a, n + c, 0.2 + 0.2 * rng.random::<f64>());
                    }
                }
            }
            if b + 1 < BLOCKS {
                j.set(n + hi - 1, n + hi, 0.05);
            }
        }
        for i in 0..n {
            j.set(i, n + i, 0.3);
        }
    }
    // Diagonal dominance: a unique fixed point every policy agrees on.
    let row_sums: Vec<f64> = (0..2 * n).map(|v| model.coupling().row_abs_sum(v)).collect();
    for (v, sum) in row_sums.into_iter().enumerate() {
        model.h_mut()[v] = -(0.1 + sum);
    }
    let samples = (0..WINDOWS)
        .map(|_| Sample {
            history: (0..n).map(|_| rng.random::<f64>() * 0.8 - 0.4).collect(),
            target: vec![0.0; n],
        })
        .collect();
    (model, samples)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (model, samples) = community_model(42);
    // The event-driven adaptive engine only charges for nodes still
    // moving — exactly what a good warm start empties out.
    let cfg = AnnealConfig::adaptive();
    println!(
        "{} regions ({} blocks of {}), {} forecast windows",
        BLOCKS * BLOCK,
        BLOCKS,
        BLOCK,
        WINDOWS
    );

    let t0 = Instant::now();
    let cold = infer_batch(&model, &samples, &cfg, 7, &mut RunCtx::default())?;
    let cold_wall = t0.elapsed();
    let cold_steps: usize = cold.iter().map(|(_, r)| r.steps).sum();
    println!(
        "cold     : {cold_steps:>6} fine steps, {:.1} ms",
        cold_wall.as_secs_f64() * 1e3
    );

    let sink = TelemetrySink::enabled();
    let t0 = Instant::now();
    let mut ctx = RunCtx {
        sink: &sink,
        warm: WarmStart::Multigrid {
            levels: 2,
            coarse_tol: 1e-3,
        },
        ..RunCtx::default()
    };
    let mg = infer_batch(&model, &samples, &cfg, 7, &mut ctx)?;
    let mg_wall = t0.elapsed();
    let mg_steps: usize = mg.iter().map(|(_, r)| r.steps).sum();
    println!(
        "multigrid: {mg_steps:>6} fine steps, {:.1} ms",
        mg_wall.as_secs_f64() * 1e3
    );

    // Same equilibria, fewer steps.
    let max_diff = cold
        .iter()
        .zip(&mg)
        .flat_map(|((a, _), (b, _))| a.iter().zip(b).map(|(x, y)| (x - y).abs()))
        .fold(0.0f64, f64::max);
    println!("max prediction difference: {max_diff:.2e}");
    assert!(max_diff < 5e-3, "policies must agree on the fixed point");
    assert!(mg_steps < cold_steps, "multigrid must save fine steps");

    // The mg.* family records what the warm starts did.
    let snap = sink.snapshot();
    let levels = snap.get(instruments::LEVELS).expect("mg.levels recorded");
    println!("mg.levels          : {} warm starts, {} levels total", levels.count, levels.sum);
    println!("mg.coarse_steps    : {}", snap.counter(instruments::COARSE_STEPS));
    println!("mg.prolongations   : {}", snap.counter(instruments::PROLONGATIONS));
    println!("mg.fine_steps_saved: {}", snap.counter(instruments::FINE_STEPS_SAVED));
    Ok(())
}
