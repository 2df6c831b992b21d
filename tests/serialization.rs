//! Serde round-trips of every persistable artefact: a trained model, a
//! decomposed model (placement + wormholes + stats), datasets, and
//! hardware reports survive JSON serialisation bit-exactly.

use dsgl::core::ridge::fit_ridge;
use dsgl::core::{decompose, DecomposeConfig, DsGlModel, PatternKind, VariableLayout};
use dsgl::data::{covid, WindowConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn trained_model_roundtrips() {
    let dataset = covid::generate(3).truncate(12, 120);
    let (train, _, _) = dataset.split_windows(&WindowConfig::one_step(2), 0.8, 0.0);
    let layout = VariableLayout::new(2, 12, 1);
    let mut model = DsGlModel::new(layout);
    fit_ridge(&mut model, &train, 1.0).unwrap();

    let json = serde_json::to_string(&model).unwrap();
    let back: DsGlModel = serde_json::from_str(&json).unwrap();
    assert_eq!(model, back);
    // And it still predicts identically.
    let p1 = dsgl::core::inference::infer_fixed_point(&model, &train[0], &[], 100).unwrap();
    let p2 = dsgl::core::inference::infer_fixed_point(&back, &train[0], &[], 100).unwrap();
    assert_eq!(p1, p2);
}

#[test]
fn decomposed_model_roundtrips() {
    let dataset = covid::generate(4).truncate(12, 120);
    let (train, _, _) = dataset.split_windows(&WindowConfig::one_step(2), 0.8, 0.0);
    let layout = VariableLayout::new(2, 12, 1);
    let mut model = DsGlModel::new(layout);
    fit_ridge(&mut model, &train, 1.0).unwrap();
    let cfg = DecomposeConfig {
        density: 0.3,
        pattern: PatternKind::Mesh,
        wormhole_budget: 2,
        pe_capacity: layout.total().div_ceil(4) + 2,
        grid: (2, 2),
        finetune: None,
    };
    let mut rng = StdRng::seed_from_u64(1);
    let d = decompose(&model, &train, &cfg, &mut rng).unwrap();
    let json = serde_json::to_string(&d).unwrap();
    let back: dsgl::core::DecomposedModel = serde_json::from_str(&json).unwrap();
    assert_eq!(d, back);
}

#[test]
fn dataset_roundtrips() {
    let dataset = covid::generate(5).truncate(8, 60);
    let json = serde_json::to_string(&dataset).unwrap();
    let back: dsgl::data::Dataset = serde_json::from_str(&json).unwrap();
    assert_eq!(dataset, back);
}

#[test]
fn configs_roundtrip() {
    let anneal = dsgl::ising::AnnealConfig::default();
    let json = serde_json::to_string(&anneal).unwrap();
    let back: dsgl::ising::AnnealConfig = serde_json::from_str(&json).unwrap();
    assert_eq!(anneal, back);

    let hw = dsgl::hw::HwConfig::default();
    let json = serde_json::to_string(&hw).unwrap();
    let back: dsgl::hw::HwConfig = serde_json::from_str(&json).unwrap();
    assert_eq!(hw, back);
}

/// Keys of a vendored [`serde::Value`] map, in serialized order.
fn map_keys(value: &serde::Value) -> Vec<&str> {
    value
        .as_map()
        .expect("expected a JSON object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

#[test]
fn trace_roundtrips_with_capacity_bound() {
    use serde::Deserialize as _;

    let mut trace = dsgl::ising::Trace::with_capacity_bound(1.0, 3);
    for i in 0..5 {
        trace.record(i as f64, &[i as f64, -(i as f64)]);
    }
    // Ring-buffer semantics: only the newest 3 samples survive.
    assert_eq!(trace.len(), 3);
    assert_eq!(trace.times(), &[2.0, 3.0, 4.0]);

    let json = serde_json::to_string(&trace).unwrap();
    let back: dsgl::ising::Trace = serde_json::from_str(&json).unwrap();
    assert_eq!(trace, back);
    assert_eq!(back.capacity_bound(), Some(3));

    // A trace serialized before the bound existed (no `capacity_bound`
    // key) must still deserialize, as unbounded.
    let unbounded = serde::Serialize::to_value(&dsgl::ising::Trace::new(0.5));
    let serde::Value::Map(mut entries) = unbounded else {
        panic!("trace serializes as an object");
    };
    entries.retain(|(k, _)| k != "capacity_bound");
    let legacy = dsgl::ising::Trace::from_value(&serde::Value::Map(entries)).unwrap();
    assert_eq!(legacy.capacity_bound(), None);
}

#[test]
fn health_report_roundtrips() {
    use dsgl::core::guard::{Attempt, FailureCause, Mitigation};
    use serde::Deserialize as _;
    use serde::Serialize as _;

    let health = dsgl::core::HealthReport {
        attempts: vec![Attempt {
            cause: FailureCause::NonFiniteState,
            mitigation: Some(Mitigation::HalveDt),
            dt_ns: 0.25,
            budget_ns: 100.0,
        }],
        retries: 1,
        degraded: false,
        sanitized_nodes: 2,
        fault_clamped: 0,
        anneal_steps: 321,
        anneal_sim_time_ns: 80.25,
        cancelled: false,
        trace_id: 42,
    };
    let json = serde_json::to_string(&health).unwrap();
    let back: dsgl::core::HealthReport = serde_json::from_str(&json).unwrap();
    assert_eq!(health, back);

    // Field-name stability: downstream consumers key on these names.
    assert_eq!(
        map_keys(&health.to_value()),
        [
            "attempts",
            "retries",
            "degraded",
            "sanitized_nodes",
            "fault_clamped",
            "anneal_steps",
            "anneal_sim_time_ns",
            "cancelled",
            "trace_id"
        ]
    );

    // Reports serialized before the telemetry/cancellation/tracing
    // fields existed must still deserialize (the new fields default to
    // zero/false).
    let serde::Value::Map(mut entries) = health.to_value() else {
        panic!("health report serializes as an object");
    };
    entries.retain(|(k, _)| {
        k != "anneal_steps" && k != "anneal_sim_time_ns" && k != "cancelled" && k != "trace_id"
    });
    let legacy =
        dsgl::core::HealthReport::from_value(&serde::Value::Map(entries)).unwrap();
    assert_eq!(legacy.anneal_steps, 0);
    assert_eq!(legacy.anneal_sim_time_ns, 0.0);
    assert!(!legacy.cancelled);
    assert_eq!(legacy.trace_id, 0);
    assert_eq!(legacy.retries, health.retries);
}

#[test]
fn serve_instruments_and_stats_schema_is_frozen() {
    use serde::Serialize as _;

    // The serve.* instrument names are a frozen interface, like every
    // family in the snapshot schema: dashboards key on them.
    assert_eq!(dsgl::serve::instruments::REQUESTS, "serve.requests");
    assert_eq!(dsgl::serve::instruments::REJECTED, "serve.rejected");
    assert_eq!(dsgl::serve::instruments::BATCHES, "serve.batches");
    assert_eq!(dsgl::serve::instruments::QUEUE_DEPTH, "serve.queue_depth");
    assert_eq!(
        dsgl::serve::instruments::COALESCE_WIDTH,
        "serve.coalesce_width"
    );
    assert_eq!(
        dsgl::serve::instruments::COALESCED_HITS,
        "serve.coalesced_hits"
    );
    assert_eq!(dsgl::serve::instruments::LATENCY_NS, "serve.latency_ns");
    assert_eq!(dsgl::serve::instruments::DEGRADATIONS, "serve.degradations");
    assert_eq!(
        dsgl::serve::instruments::SLO_FALLBACKS,
        "serve.slo_fallbacks"
    );
    assert_eq!(dsgl::serve::instruments::WORKERS, "serve.workers");
    assert_eq!(
        dsgl::serve::instruments::WORKER_PANICS,
        "serve.worker_panics"
    );
    assert_eq!(
        dsgl::serve::instruments::WORKER_RESPAWNS,
        "serve.worker_respawns"
    );
    assert_eq!(dsgl::serve::instruments::REQUEUES, "serve.requeues");
    assert_eq!(
        dsgl::serve::instruments::CRASH_FAILURES,
        "serve.crash_failures"
    );
    assert_eq!(
        dsgl::serve::instruments::WATCHDOG_CANCELS,
        "serve.watchdog_cancels"
    );
    assert_eq!(
        dsgl::serve::instruments::WATCHDOG_FALLBACKS,
        "serve.watchdog_fallbacks"
    );
    assert_eq!(
        dsgl::serve::instruments::BROWNOUT_TIER,
        "serve.brownout_tier"
    );
    assert_eq!(
        dsgl::serve::instruments::BROWNOUT_TRANSITIONS,
        "serve.brownout_transitions"
    );
    assert_eq!(
        dsgl::serve::instruments::BROWNOUT_ADMITTED,
        "serve.brownout_admitted"
    );
    assert_eq!(
        dsgl::serve::instruments::BROWNOUT_REJECTED,
        "serve.brownout_rejected"
    );

    // A served run exports serve.* through the ordinary schema-v1
    // snapshot — same top-level shape, instruments sorted by name.
    let sink = dsgl::core::TelemetrySink::enabled();
    sink.counter_add(dsgl::serve::instruments::REQUESTS, 6);
    sink.counter_add(dsgl::serve::instruments::BATCHES, 2);
    sink.gauge_set(dsgl::serve::instruments::WORKERS, 2.0);
    sink.record(dsgl::serve::instruments::COALESCE_WIDTH, 3.0);
    sink.record(dsgl::serve::instruments::LATENCY_NS, 1500.0);
    let snapshot = sink.snapshot();
    assert!(snapshot.families().contains(&"serve".to_owned()));
    let json = serde_json::to_string(&snapshot).unwrap();
    let back: dsgl::core::MetricsSnapshot = serde_json::from_str(&json).unwrap();
    assert_eq!(snapshot, back);
    assert_eq!(map_keys(&snapshot.to_value()), ["schema_version", "instruments"]);

    // ServiceStats: the digested health endpoint, field names frozen.
    let stats = dsgl::serve::ServiceStats::from_snapshot(&snapshot);
    assert_eq!(stats.requests, 6);
    assert_eq!(stats.batches, 2);
    assert_eq!(stats.workers, 2);
    assert_eq!(stats.mean_coalesce_width, 3.0);
    assert!(stats.p50_latency_ns > 0.0);
    assert_eq!(
        map_keys(&stats.to_value()),
        [
            "requests",
            "rejected",
            "batches",
            "coalesced_hits",
            "degradations",
            "slo_fallbacks",
            "mean_coalesce_width",
            "p50_latency_ns",
            "p99_latency_ns",
            "workers"
        ]
    );
    let json = serde_json::to_string(&stats).unwrap();
    let back: dsgl::serve::ServiceStats = serde_json::from_str(&json).unwrap();
    assert_eq!(stats, back);
}

#[test]
fn warm_start_policy_and_mg_instruments_schema_is_frozen() {
    use dsgl::core::inference::WarmStart;

    // The mg.* instrument names are a frozen interface, like serve.*:
    // dashboards and the scaling bench key on them.
    assert_eq!(dsgl::ising::multigrid::instruments::LEVELS, "mg.levels");
    assert_eq!(
        dsgl::ising::multigrid::instruments::COARSE_STEPS,
        "mg.coarse_steps"
    );
    assert_eq!(
        dsgl::ising::multigrid::instruments::PROLONGATIONS,
        "mg.prolongations"
    );
    assert_eq!(
        dsgl::ising::multigrid::instruments::FINE_STEPS_SAVED,
        "mg.fine_steps_saved"
    );

    // Every warm-start policy round-trips through JSON.
    for warm in [
        WarmStart::Cold,
        WarmStart::Multigrid {
            levels: 2,
            coarse_tol: 1e-3,
        },
    ] {
        let json = serde_json::to_string(&warm).unwrap();
        let back: WarmStart = serde_json::from_str(&json).unwrap();
        assert_eq!(warm, back);
    }
    // Both variants' encodings are pinned, so saved configs keep loading.
    assert_eq!(serde_json::to_string(&WarmStart::Cold).unwrap(), "\"Cold\"");
    let mg: WarmStart =
        serde_json::from_str(r#"{"Multigrid":{"levels":3,"coarse_tol":0.001}}"#).unwrap();
    assert_eq!(
        mg,
        WarmStart::Multigrid {
            levels: 3,
            coarse_tol: 1e-3
        }
    );

    // An mg-instrumented run exports through the ordinary schema-v1
    // snapshot, grouped under its own family.
    let sink = dsgl::core::TelemetrySink::enabled();
    sink.record(dsgl::ising::multigrid::instruments::LEVELS, 2.0);
    sink.counter_add(dsgl::ising::multigrid::instruments::COARSE_STEPS, 120);
    sink.counter_add(dsgl::ising::multigrid::instruments::PROLONGATIONS, 1);
    let snapshot = sink.snapshot();
    assert!(snapshot.families().contains(&"mg".to_owned()));
    let json = serde_json::to_string(&snapshot).unwrap();
    let back: dsgl::core::MetricsSnapshot = serde_json::from_str(&json).unwrap();
    assert_eq!(snapshot, back);
}

#[test]
fn span_records_and_flight_dumps_schema_is_frozen() {
    use dsgl::core::tracing::{FlightDump, FlightEvent, SpanArg, SpanRecord, TRACE_SCHEMA_VERSION};
    use serde::Serialize as _;

    assert_eq!(TRACE_SCHEMA_VERSION, 1);

    let span = SpanRecord {
        trace_id: 7,
        span_id: 9,
        parent_id: 7,
        name: "anneal.strict".to_owned(),
        start_ns: 1_500,
        duration_ns: 250,
        args: vec![SpanArg {
            key: "steps".to_owned(),
            value: 400.0,
        }],
    };
    let json = serde_json::to_string(&span).unwrap();
    let back: SpanRecord = serde_json::from_str(&json).unwrap();
    assert_eq!(span, back);
    // Field-name stability: the flight-recorder dump and any span sink
    // (Chrome trace args aside) key on these names.
    assert_eq!(
        map_keys(&span.to_value()),
        ["trace_id", "span_id", "parent_id", "name", "start_ns", "duration_ns", "args"]
    );
    let value = span.to_value();
    let serde::Value::Seq(args) = value.get("args").unwrap() else {
        panic!("span args serialize as an array");
    };
    assert_eq!(map_keys(&args[0]), ["key", "value"]);

    let dump = FlightDump {
        schema_version: TRACE_SCHEMA_VERSION,
        capacity: 4,
        dropped: 1,
        events: vec![FlightEvent {
            seq: 9,
            at_ns: 77,
            kind: "worker.panic".to_owned(),
            detail: "worker 0: 2 orphaned request(s)".to_owned(),
            trace_id: 3,
        }],
    };
    let json = serde_json::to_string(&dump).unwrap();
    let back: FlightDump = serde_json::from_str(&json).unwrap();
    assert_eq!(dump, back);
    assert_eq!(
        map_keys(&dump.to_value()),
        ["schema_version", "capacity", "dropped", "events"]
    );
    let value = dump.to_value();
    let serde::Value::Seq(events) = value.get("events").unwrap() else {
        panic!("flight events serialize as an array");
    };
    assert_eq!(map_keys(&events[0]), ["seq", "at_ns", "kind", "detail", "trace_id"]);

    // The flight-event kind strings are a frozen interface too.
    assert_eq!(dsgl::serve::flight_events::WORKER_PANIC, "worker.panic");
    assert_eq!(dsgl::serve::flight_events::CRASH_FAILURE, "crash.failure");
    assert_eq!(dsgl::serve::flight_events::WATCHDOG_CANCEL, "watchdog.cancel");
    assert_eq!(
        dsgl::serve::flight_events::WATCHDOG_FALLBACK,
        "watchdog.fallback"
    );
    assert_eq!(
        dsgl::serve::flight_events::BROWNOUT_TRANSITION,
        "brownout.transition"
    );
    assert_eq!(dsgl::serve::flight_events::SLO_FALLBACK, "slo.fallback");
}

#[test]
fn chrome_trace_export_is_valid_json_in_the_trace_event_shape() {
    use dsgl::core::tracing::{chrome_trace_json, SpanArg, SpanRecord};

    let spans = vec![
        SpanRecord {
            trace_id: 1,
            span_id: 1,
            parent_id: 0,
            name: "serve.request".to_owned(),
            start_ns: 2_000,
            duration_ns: 9_500,
            args: vec![SpanArg {
                key: "batch_width".to_owned(),
                value: 2.0,
            }],
        },
        SpanRecord {
            trace_id: 1,
            span_id: 3,
            parent_id: 2,
            name: "anneal.\"strict\"\n".to_owned(), // exercises escaping
            start_ns: 2_500,
            duration_ns: 4_000,
            args: vec![],
        },
    ];
    let json = chrome_trace_json(&spans);
    // JSON numbers lose their int/float distinction in text; compare
    // numerically regardless of how the parser classified them.
    fn num(v: &serde::Value) -> f64 {
        match v {
            serde::Value::Int(i) => *i as f64,
            serde::Value::UInt(u) => *u as f64,
            serde::Value::Float(f) => *f,
            other => panic!("expected a number, found {other:?}"),
        }
    }
    // A real JSON parser accepts the hand-written export.
    let value: serde::Value = serde_json::from_str(&json).unwrap();
    assert_eq!(
        value.get("displayTimeUnit").and_then(serde::Value::as_str),
        Some("ms")
    );
    let serde::Value::Seq(events) = value.get("traceEvents").unwrap() else {
        panic!("traceEvents is an array");
    };
    assert_eq!(events.len(), spans.len());
    for (event, span) in events.iter().zip(&spans) {
        assert_eq!(event.get("name").and_then(serde::Value::as_str), Some(span.name.as_str()));
        assert_eq!(event.get("cat").and_then(serde::Value::as_str), Some("dsgl"));
        assert_eq!(event.get("ph").and_then(serde::Value::as_str), Some("X"));
        assert_eq!(num(event.get("pid").unwrap()), 1.0);
        assert_eq!(num(event.get("tid").unwrap()), span.trace_id as f64);
        // ts/dur are microseconds.
        assert_eq!(num(event.get("ts").unwrap()), span.start_ns as f64 / 1000.0);
        assert_eq!(num(event.get("dur").unwrap()), span.duration_ns as f64 / 1000.0);
        let args = event.get("args").unwrap();
        assert_eq!(num(args.get("span_id").unwrap()), span.span_id as f64);
        assert_eq!(num(args.get("parent_id").unwrap()), span.parent_id as f64);
        for arg in &span.args {
            assert_eq!(num(args.get(arg.key.as_str()).unwrap()), arg.value);
        }
    }
    // Empty input still yields a valid document.
    let empty: serde::Value = serde_json::from_str(&chrome_trace_json(&[])).unwrap();
    assert_eq!(empty.get("traceEvents"), Some(&serde::Value::Seq(vec![])));
}

#[test]
fn prometheus_exposition_matches_the_golden_file() {
    use dsgl::core::tracing::prometheus_text;

    // A deterministic snapshot covering all three instrument kinds;
    // snapshots sort by name, so the exposition is reproducible.
    let sink = dsgl::core::TelemetrySink::enabled();
    sink.counter_add("anneal.runs", 3);
    sink.counter_add("serve.requests", 6);
    sink.gauge_set("serve.queue_depth", 4.0);
    sink.record("serve.latency_ns", 1500.0);
    sink.record("serve.latency_ns", 250_000.0);
    let text = prometheus_text(&sink.snapshot());

    let golden = include_str!("golden/prometheus_exposition.txt");
    for (i, (got, want)) in text.lines().zip(golden.lines()).enumerate() {
        assert_eq!(got, want, "exposition line {} diverged from the golden file", i + 1);
    }
    assert_eq!(
        text.lines().count(),
        golden.lines().count(),
        "exposition line count diverged from the golden file"
    );
}

#[test]
fn metrics_snapshot_roundtrips() {
    use serde::Serialize as _;

    let sink = dsgl::core::TelemetrySink::enabled();
    sink.counter_add("anneal.runs", 3);
    sink.gauge_set("hw.pes", 16.0);
    sink.record("anneal.steps", 120.0);
    sink.record("anneal.steps", 480.0);

    let snapshot = sink.snapshot();
    assert_eq!(snapshot.schema_version, dsgl::ising::telemetry::SCHEMA_VERSION);
    let json = serde_json::to_string(&snapshot).unwrap();
    let back: dsgl::core::MetricsSnapshot = serde_json::from_str(&json).unwrap();
    assert_eq!(snapshot, back);
    assert_eq!(back.counter("anneal.runs"), 3);
    assert_eq!(back.families(), ["anneal", "hw"]);

    // Field-name stability of the version-1 snapshot schema: the
    // top-level object and every instrument expose exactly these keys.
    let value = snapshot.to_value();
    assert_eq!(map_keys(&value), ["schema_version", "instruments"]);
    let serde::Value::Seq(instruments) = value.get("instruments").unwrap() else {
        panic!("instruments serializes as an array");
    };
    assert_eq!(
        map_keys(&instruments[0]),
        ["name", "kind", "count", "sum", "min", "max", "last", "buckets", "overflow"]
    );
    let steps = instruments
        .iter()
        .find(|i| i.get("name").and_then(serde::Value::as_str) == Some("anneal.steps"))
        .expect("anneal.steps instrument present");
    let serde::Value::Seq(buckets) = steps.get("buckets").unwrap() else {
        panic!("buckets serializes as an array");
    };
    assert_eq!(map_keys(&buckets[0]), ["le", "count"]);
}
