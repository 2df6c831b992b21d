//! The paper's opening motivation: power-grid monitoring on a
//! dynamical-system processor.
//!
//! A 96-bus transmission grid reports load measurements; the machine
//! (a) forecasts the next interval for every bus and (b) fills in buses
//! whose telemetry dropped out, both by natural annealing — the grid is
//! itself a dynamical system, analysed here *by* a dynamical system.
//!
//! ```sh
//! cargo run --release --example powergrid
//! ```

use dsgl::core::{PatternKind, RetryPolicy, TelemetrySink};
use dsgl::facade::Forecaster;
use dsgl::data::{powergrid, WindowConfig};
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dataset = powergrid::generate(7);
    let n = dataset.node_count();
    println!(
        "transmission grid: {} buses, {} lines, {} intervals of load telemetry",
        n,
        dataset.graph.edge_count(),
        dataset.time_steps()
    );

    // Production idiom: an enabled telemetry sink (training and every
    // inference record into one registry) and an explicit guard policy
    // for the health-reporting paths. Neither changes forecast bits.
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let forecaster = Forecaster::builder()
        .history(4)
        .gaussian_outputs(true) // telemetry dropout = imputation
        .guard(RetryPolicy {
            max_retries: 3,
            backoff: 2.0,
        })
        .telemetry(TelemetrySink::enabled())
        .fit(&dataset, &mut rng)?;

    // (a) Forecast the next interval from the last four, with a health
    // report saying how the anneal went.
    let t0 = dataset.time_steps() - 5;
    let mut window = Vec::new();
    for t in t0..t0 + 4 {
        window.extend_from_slice(dataset.series.frame(t));
    }
    let truth = dataset.series.frame(t0 + 4);
    let (forecast, health) = forecaster.forecast_with_health(&window, &mut rng)?;
    let rmse = dsgl::core::metrics::rmse(&forecast, truth);
    println!(
        "next-interval load forecast RMSE: {rmse:.4} ({})",
        if health.healthy() {
            "healthy anneal"
        } else {
            "guard intervened"
        }
    );

    // (b) A third of the buses lose telemetry; infer them from the rest.
    let observed: Vec<(usize, f64)> = (0..n)
        .filter(|i| i % 3 != 0)
        .map(|i| (i, truth[i]))
        .collect();
    let imputed = forecaster.impute(&window, &observed, &mut rng)?;
    let hidden: Vec<usize> = (0..n).filter(|i| i % 3 == 0).collect();
    let p: Vec<f64> = hidden.iter().map(|&i| imputed[i]).collect();
    let t: Vec<f64> = hidden.iter().map(|&i| truth[i]).collect();
    let imput_rmse = dsgl::core::metrics::rmse(&p, &t);
    println!(
        "imputing {} dropped buses from {} live ones: RMSE {imput_rmse:.4}",
        hidden.len(),
        observed.len()
    );

    // (c) Deploy onto the 4x4 PE mesh and forecast on hardware.
    let (train, _, _) = dataset.split_windows(&WindowConfig::one_step(4), 0.8, 0.0);
    let mapped = forecaster.deploy((4, 4), PatternKind::DMesh, 0.15, &train, &mut rng)?;
    let (hw_forecast, latency_ns) = mapped.forecast(&window, &mut rng)?;
    let hw_rmse = dsgl::core::metrics::rmse(&hw_forecast, truth);
    println!(
        "mapped onto a 4x4 PE mesh: RMSE {hw_rmse:.4} in {:.2} µs of analog time",
        latency_ns / 1000.0
    );
    assert!(imput_rmse < rmse * 1.2, "imputation should use the live buses");

    // (d) Nightly backtest idiom: many windows in one call, each on its
    // own machine, spread across the thread pool in chunks.
    let backtest: Vec<Vec<f64>> = (t0 - 12..t0)
        .map(|s| {
            let mut w = Vec::new();
            for t in s..s + 4 {
                w.extend_from_slice(dataset.series.frame(t));
            }
            w
        })
        .collect();
    let batch = forecaster.forecast_batch(&backtest, 42)?;
    println!("backtested {} windows in one call", batch.len());

    // (e) Everything above recorded into the attached sink.
    println!("\n{}", forecaster.telemetry_snapshot().summary_table());
    Ok(())
}
