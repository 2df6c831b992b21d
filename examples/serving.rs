//! Serving DS-GL forecasts to concurrent clients.
//!
//! Trains one forecaster on the epidemic dataset, then stands up a
//! [`dsgl::serve::ForecastService`]: a bounded admission queue, workers
//! coalescing compatible requests into single batched anneals (with
//! duplicate `(window, seed)` requests collapsed to one anneal), and a
//! health endpoint in the shared telemetry snapshot schema. Four client
//! threads hammer the service; every response is then checked
//! bit-identical against the serial one-by-one reference — the
//! service's headline contract.
//!
//! ```sh
//! cargo run --release --example serving
//! ```

use dsgl::core::TelemetrySink;
use dsgl::facade::Forecaster;
use dsgl::serve::ServeConfig;
use rand::SeedableRng;
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dataset = dsgl::data::covid::generate(3).truncate(20, 200);
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let forecaster = Forecaster::builder()
        .history(3)
        .telemetry(TelemetrySink::enabled())
        .fit(&dataset, &mut rng)?;
    println!(
        "trained on {} regions x {} days; serving with 2 workers, coalesce width 8",
        dataset.node_count(),
        dataset.time_steps()
    );

    // The request stream: sliding windows over the recent past, with a
    // hot head — dashboards asking for "the latest forecast" all submit
    // the same (window, seed) pair, which the service anneals once.
    let windows: Vec<Vec<f64>> = (150..170)
        .map(|t0| {
            let mut w = Vec::new();
            for t in t0..t0 + 3 {
                w.extend_from_slice(dataset.series.frame(t));
            }
            w
        })
        .collect();
    let request_of = |i: usize| {
        let hot = i.is_multiple_of(2); // half the traffic hits the newest window
        let k = if hot { windows.len() - 1 } else { i % windows.len() };
        (windows[k].clone(), if hot { 999 } else { 1000 + k as u64 })
    };

    let mut service = forecaster.serve(
        ServeConfig::default()
            .workers(2)
            .coalesce(8)
            .queue_capacity(64)
            .linger(Duration::from_micros(500)),
    )?;
    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 25;
    let mut responses: Vec<Option<dsgl::serve::ForecastResponse>> =
        vec![None; CLIENTS * PER_CLIENT];
    std::thread::scope(|scope| {
        let service = &service;
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    (0..PER_CLIENT)
                        .map(|j| {
                            let i = c * PER_CLIENT + j;
                            let (window, seed) = request_of(i);
                            (i, service.forecast(window, seed).expect("served"))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            for (i, response) in handle.join().unwrap() {
                responses[i] = Some(response);
            }
        }
    });
    service.shutdown();

    // Verify the headline contract: bits match the serial reference.
    for (i, served) in responses.iter().enumerate() {
        let (window, seed) = request_of(i);
        let serial = forecaster
            .forecast_batch_with_health(std::slice::from_ref(&window), seed)?
            .remove(0);
        let served = served.as_ref().unwrap();
        assert_eq!(served.prediction, serial.0, "request {i} diverged");
    }
    println!("all {} concurrent responses bit-identical to the serial reference", responses.len());

    let stats = service.stats();
    println!(
        "served {} requests in {} batches (mean width {:.2}, {} coalesced hits), \
         p50 latency {:.0} µs, p99 {:.0} µs",
        stats.requests,
        stats.batches,
        stats.mean_coalesce_width,
        stats.coalesced_hits,
        stats.p50_latency_ns / 1000.0,
        stats.p99_latency_ns / 1000.0,
    );
    assert!(stats.coalesced_hits > 0, "hot traffic must coalesce");

    // The service records into the forecaster's sink: admission and
    // batching under `serve.*`, each window's anneal under `anneal.*`.
    use dsgl::serve::instruments;
    let snap = forecaster.telemetry_snapshot();
    println!(
        "sink counters: {}={} {}={} {}={} {}={}",
        instruments::REQUESTS,
        snap.counter(instruments::REQUESTS),
        instruments::BATCHES,
        snap.counter(instruments::BATCHES),
        instruments::COALESCED_HITS,
        snap.counter(instruments::COALESCED_HITS),
        instruments::REJECTED,
        snap.counter(instruments::REJECTED),
    );
    Ok(())
}
