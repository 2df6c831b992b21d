//! The headline contract: a coalesced, concurrent, pooled service
//! returns bit-identical forecasts to the same requests executed
//! serially one-by-one — across coalesce widths {1, 4, 8} and worker
//! counts {1, 2, 8}, with submissions racing in from several threads.
//! An enabled span collector must not perturb a single bit of any of
//! it (the PR 9 extension of the PR 4 telemetry contract).

use dsgl_core::guard::infer_batch_guarded;
use dsgl_core::{
    DsGlModel, GuardedAnneal, HealthReport, RunCtx, SpanCollector, TelemetrySink, VariableLayout,
};
use dsgl_data::Sample;
use dsgl_ising::AnnealConfig;
use dsgl_serve::{ForecastService, ServeConfig};
use std::time::Duration;

const NODES: usize = 6;
const HISTORY: usize = 2;

fn model() -> DsGlModel {
    let mut model = DsGlModel::new(VariableLayout::new(HISTORY, NODES, 1));
    model.init_persistence(0.65);
    model
}

fn guard() -> GuardedAnneal {
    GuardedAnneal::new(AnnealConfig::default())
}

/// Request `i`'s history window: deterministic, all distinct.
fn window(i: usize) -> Vec<f64> {
    (0..HISTORY * NODES)
        .map(|k| 0.05 + 0.013 * i as f64 + 0.002 * k as f64)
        .collect()
}

/// Request `i`'s seed. Requests 3k and 3k+1 share a seed *and* a window
/// (see [`requests`]) so every run also exercises duplicate collapsing.
fn requests(n: usize) -> Vec<(Vec<f64>, u64)> {
    (0..n)
        .map(|i| {
            let canonical = if i % 3 == 1 { i - 1 } else { i };
            (window(canonical), 40_000 + canonical as u64)
        })
        .collect()
}

/// The serial reference: each request executed alone through the PR 3
/// guarded batch entry under its own master seed — the semantics the
/// service must be a bit-transparent wrapper around.
fn serial_reference(reqs: &[(Vec<f64>, u64)]) -> Vec<(Vec<f64>, HealthReport)> {
    let model = model();
    let guard = guard();
    let target_len = model.layout().target_len();
    reqs.iter()
        .map(|(window, seed)| {
            let sample = Sample {
                history: window.clone(),
                target: vec![0.0; target_len],
            };
            let mut out = infer_batch_guarded(
                &model,
                std::slice::from_ref(&sample),
                &guard,
                &[*seed],
                &mut RunCtx::default(),
            )
            .unwrap();
            let (pred, _, health) = out.remove(0);
            (pred, health)
        })
        .collect()
}

/// Runs every request through a service and returns responses in
/// request order, submissions racing from `submit_threads` threads.
fn serve_all(
    config: ServeConfig,
    reqs: &[(Vec<f64>, u64)],
    submit_threads: usize,
) -> Vec<(Vec<f64>, HealthReport)> {
    let service = ForecastService::spawn(model(), guard(), TelemetrySink::enabled(), config)
        .expect("spawn service");
    let chunk = reqs.len().div_ceil(submit_threads);
    let mut results: Vec<Option<(Vec<f64>, HealthReport)>> = vec![None; reqs.len()];
    std::thread::scope(|scope| {
        let service = &service;
        let handles: Vec<_> = reqs
            .chunks(chunk)
            .enumerate()
            .map(|(t, chunk_reqs)| {
                scope.spawn(move || {
                    chunk_reqs
                        .iter()
                        .enumerate()
                        .map(|(j, (window, seed))| {
                            let response = service
                                .forecast(window.clone(), *seed)
                                .expect("request must be served");
                            assert!(!response.slo_degraded, "no deadline configured");
                            assert!(response.batch_width >= 1);
                            (t * chunk + j, (response.prediction, response.health))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            for (i, result) in handle.join().unwrap() {
                results[i] = Some(result);
            }
        }
    });
    results.into_iter().map(|r| r.unwrap()).collect()
}

#[test]
fn coalesced_concurrent_service_is_bit_identical_to_serial_reference() {
    let reqs = requests(24);
    let reference = serial_reference(&reqs);
    for coalesce in [1usize, 4, 8] {
        for workers in [1usize, 2, 8] {
            let config = ServeConfig::default()
                .workers(workers)
                .coalesce(coalesce)
                .queue_capacity(64)
                .linger(Duration::from_micros(500));
            let served = serve_all(config, &reqs, 4);
            for (i, ((sp, sh), (rp, rh))) in served.iter().zip(&reference).enumerate() {
                assert_eq!(
                    sp, rp,
                    "request {i} bits diverged at coalesce={coalesce} workers={workers}"
                );
                assert_eq!(
                    sh, rh,
                    "request {i} health diverged at coalesce={coalesce} workers={workers}"
                );
            }
        }
    }
}

#[test]
fn duplicate_requests_coalesce_into_one_anneal_with_identical_bits() {
    let reqs = requests(8);
    let reference = serial_reference(&reqs);
    // One worker, wide batches, a linger long enough that every rapid
    // submission below lands in the same batch: the duplicates (3k vs
    // 3k+1) must be answered from a single anneal.
    let sink = TelemetrySink::enabled();
    let service = ForecastService::spawn(
        model(),
        guard(),
        sink.clone(),
        ServeConfig::default()
            .workers(1)
            .coalesce(8)
            .queue_capacity(16)
            .linger(Duration::from_millis(200)),
    )
    .expect("spawn service");
    let tickets: Vec<_> = reqs
        .iter()
        .map(|(window, seed)| service.submit(window.clone(), *seed).unwrap())
        .collect();
    for (i, ticket) in tickets.into_iter().enumerate() {
        let response = ticket.wait().unwrap();
        assert_eq!(response.prediction, reference[i].0, "request {i}");
        assert_eq!(response.health, reference[i].1, "request {i}");
    }
    let stats = dsgl_serve::ServiceStats::from_snapshot(&sink.snapshot());
    assert_eq!(stats.requests, 8);
    assert!(
        stats.coalesced_hits >= 1,
        "duplicate (window, seed) pairs must share an anneal: {stats:?}"
    );
    assert!(stats.batches >= 1);
}

#[test]
fn tracing_enabled_service_is_bit_identical_to_noop_tracing() {
    let reqs = requests(16);
    let reference = serial_reference(&reqs);
    let mut service = ForecastService::spawn_traced(
        model(),
        guard(),
        TelemetrySink::enabled(),
        SpanCollector::enabled(),
        ServeConfig::default()
            .workers(2)
            .coalesce(4)
            .queue_capacity(32)
            .linger(Duration::from_micros(500)),
    )
    .expect("spawn traced service");
    for (i, (window, seed)) in reqs.iter().enumerate() {
        let response = service.forecast(window.clone(), *seed).unwrap();
        assert_eq!(
            response.prediction, reference[i].0,
            "request {i} bits diverged under an enabled span collector"
        );
        // Health is identical except for the trace id the traced path
        // stamps in; zeroing it must recover the reference exactly.
        assert!(response.health.trace_id > 0, "served health carries its trace");
        let mut health = response.health.clone();
        health.trace_id = 0;
        assert_eq!(health, reference[i].1, "request {i}");
    }
    // Join the workers first: the batch span is recorded after the
    // responses fan out, so a live snapshot could miss the last one.
    service.shutdown();
    // The span tree is real: roots, batches, and kernel anneal spans
    // with causal parents.
    let spans = service.trace_spans();
    let roots = spans.iter().filter(|s| s.name == "serve.request").count();
    assert_eq!(roots, 16, "one root span per request");
    assert!(spans.iter().any(|s| s.name == "serve.admission"));
    assert!(spans.iter().any(|s| s.name == "serve.batch"));
    assert!(
        spans.iter().any(|s| s.name.starts_with("anneal.")),
        "kernel anneal spans must land in the service's collector"
    );
    for span in &spans {
        if span.name.starts_with("anneal.") {
            let parent_is_batch = spans
                .iter()
                .any(|p| p.span_id == span.parent_id && p.name == "serve.batch");
            assert!(parent_is_batch, "anneal spans parent to their batch: {span:?}");
        }
    }
    // The Chrome trace export is well-formed enough to contain every
    // span as a complete ("ph":"X") event.
    let json = service.chrome_trace();
    assert!(json.starts_with('{') && json.ends_with('}'));
    assert_eq!(json.matches("\"ph\":\"X\"").count(), spans.len());
}

#[test]
fn rerunning_the_service_reproduces_its_own_bits() {
    let reqs = requests(12);
    let config = || {
        ServeConfig::default()
            .workers(2)
            .coalesce(4)
            .queue_capacity(32)
    };
    let first = serve_all(config(), &reqs, 3);
    let second = serve_all(config(), &reqs, 3);
    assert_eq!(first, second);
}
