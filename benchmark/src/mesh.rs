//! `mesh_coanneal`: the paper's Table II path. Train the dense `covid`
//! model at `Scale::full()` with `pipeline::train_dense`, decompose it
//! onto the 4×4 DMesh at density 0.2, program one `MappedMachine`, then
//! `load_sample` and `run` every test window on it, pass after pass
//! under a fresh seed per pass.
//!
//! Correctness: every prediction of the first pass must be bit-identical
//! to `infer_mapped` on a freshly programmed machine under the same
//! random stream (the reused machine's pooled scratch must carry
//! nothing between windows), every prediction must be finite, and RMSE
//! is computed against the held-out targets.

use crate::serve::{mix, DATA_SEED};
use crate::stats::{mean, median, peak_rss_mb, quantile, ratio};
use crate::{Args, Outcome};
use dsgl_bench::pipeline::{self, Prepared, Scale};
use dsgl_core::{DecomposedModel, PatternKind, SpanCollector, TelemetrySink, TraceScope};
use dsgl_hw::{HwConfig, MappedMachine};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Decomposition density (the paper's Table II operating point).
const DENSITY: f64 = 0.2;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 9;

struct Setup {
    prepared: Prepared,
    decomposed: DecomposedModel,
    hw: HwConfig,
    machine: MappedMachine,
    prepare_s: f64,
    fit_s: f64,
    decompose_s: f64,
    map_s: f64,
}

fn setup() -> Setup {
    let scale = Scale::full();
    let t0 = Instant::now();
    let prepared = pipeline::prepare("covid", &scale, DATA_SEED);
    let t1 = Instant::now();
    let (dense, _) = pipeline::train_dense(&prepared, &scale, DATA_SEED);
    let t2 = Instant::now();
    let decomposed = pipeline::decompose_model(
        &dense,
        &prepared,
        &scale,
        DENSITY,
        PatternKind::DMesh,
        DATA_SEED,
    );
    let t3 = Instant::now();
    let hw = pipeline::hw_config(&prepared, &scale);
    let machine = MappedMachine::new(&decomposed, hw.lanes).expect("lanes > 0");
    let t4 = Instant::now();
    Setup {
        prepared,
        decomposed,
        hw,
        machine,
        prepare_s: (t1 - t0).as_secs_f64(),
        fit_s: (t2 - t1).as_secs_f64(),
        decompose_s: (t3 - t2).as_secs_f64(),
        map_s: (t4 - t3).as_secs_f64(),
    }
}

/// One co-annealed window.
struct Window {
    load_ms: f64,
    run_ms: f64,
    steps: usize,
    sim_time_ns: f64,
    converged: bool,
    traced: bool,
}

fn window_rng(seed: u64, pass: usize, w: usize) -> StdRng {
    StdRng::seed_from_u64(mix(seed ^ ((pass as u64) << 20) ^ w as u64))
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut built = None;
    let mut setup_s = Vec::new();
    let mut stages: [Vec<f64>; 4] = Default::default();
    for _ in 0..SETUP_REPS {
        drop(built.take());
        let t0 = Instant::now();
        let s = setup();
        setup_s.push(t0.elapsed().as_secs_f64());
        for (stage, value) in stages
            .iter_mut()
            .zip([s.prepare_s, s.fit_s, s.decompose_s, s.map_s])
        {
            stage.push(value);
        }
        built = Some(s);
    }
    let mut s = built.expect("at least one set-up");
    out.metric("setup_s", median(&setup_s));
    out.note("setup_s.reps", setup_s);
    out.metric("data.prepare_s", median(&stages[0]));
    out.metric("ridge.fit_s", median(&stages[1]));
    out.metric("sparsify.decompose_s", median(&stages[2]));
    out.metric("hw.map_s", median(&stages[3]));
    out.note("links", s.machine.link_count());
    out.note("temporal_links", s.machine.temporal_link_count());
    out.note("max_slices", s.machine.max_slices());
    out.note("test_windows", s.prepared.test.len());

    let test = &s.prepared.test;
    let sink = TelemetrySink::enabled();
    let collector = SpanCollector::with_capacity(1 << 18);
    let budget = args.seconds.as_secs_f64();
    let mut windows: Vec<Window> = Vec::new();
    let mut first_pass: Vec<Vec<f64>> = Vec::new();
    let mut measured = 0.0;
    let mut pass = 0;
    while measured < budget || pass == 0 {
        // A traced run co-anneals its second half traced, for the
        // overhead.
        let traced = args.trace && measured >= budget / 2.0 && pass >= 1;
        if traced && !s.machine.tracing().is_enabled() {
            s.machine.set_telemetry(sink.clone());
            s.machine
                .set_tracing(TraceScope::new(collector.clone(), 1, 0));
        }
        for (w, sample) in test.iter().enumerate() {
            let mut rng = window_rng(args.seed, pass, w);
            let t0 = Instant::now();
            s.machine
                .load_sample(sample, &mut rng)
                .expect("test windows match the layout");
            let t1 = Instant::now();
            let report = s.machine.run(&s.hw, &mut rng);
            let t2 = Instant::now();
            let prediction = s.machine.prediction();
            if prediction.iter().any(|v| !v.is_finite()) {
                out.problem(format!("pass {pass} window {w}: non-finite prediction"));
            }
            if pass == 0 {
                first_pass.push(prediction);
            }
            let window = Window {
                load_ms: (t1 - t0).as_secs_f64() * 1e3,
                run_ms: (t2 - t1).as_secs_f64() * 1e3,
                steps: report.anneal.steps,
                sim_time_ns: report.anneal.sim_time_ns,
                converged: report.anneal.converged,
                traced,
            };
            measured += (window.load_ms + window.run_ms) / 1e3;
            windows.push(window);
        }
        pass += 1;
    }
    // Peak memory of the co-anneal run, before the fresh reference
    // machines add their own.
    out.metric("peak_rss_mb", peak_rss_mb());

    // Bit-identity against freshly programmed machines, and RMSE over
    // the first pass (its random streams are a pure function of the
    // seed, unlike the number of passes a run fits in).
    let mut sq = 0.0;
    let mut count = 0usize;
    for (w, (sample, prediction)) in test.iter().zip(&first_pass).enumerate() {
        let mut rng = window_rng(args.seed, 0, w);
        match dsgl_hw::infer_mapped(&s.decomposed, sample, &s.hw, &mut rng) {
            Ok((fresh, _)) if fresh == *prediction => {}
            Ok(_) => out.problem(format!(
                "window {w}: the reused machine differs from a fresh one"
            )),
            Err(e) => out.problem(format!("window {w}: fresh mapped inference failed: {e}")),
        }
        for (p, t) in prediction.iter().zip(&sample.target) {
            sq += (p - t) * (p - t);
            count += 1;
        }
    }
    let first: Vec<&Window> = windows.iter().take(test.len()).collect();
    let untraced: Vec<&Window> = windows.iter().filter(|w| !w.traced).collect();
    let per_window: Vec<f64> = untraced.iter().map(|w| w.load_ms + w.run_ms).collect();
    // The machine's speed drifts between passes, so a run's median
    // window would flip between speed states; the mean over passes of
    // each pass's median window averages them.
    let pass_medians: Vec<f64> = per_window.chunks(test.len()).map(median).collect();
    let failed = windows.iter().filter(|w| !w.converged).count();
    out.attempted = windows.len() as u64;
    out.failed = failed as u64;
    let windows_per_s = 1e3 * per_window.len() as f64 / per_window.iter().sum::<f64>();
    out.metric("p50_ms", mean(&pass_medians));
    out.note("p50_ms.windows", median(&per_window));
    out.metric("tail_ms", quantile(&per_window, 0.95));
    out.metric("throughput_per_s", windows_per_s);
    out.metric(
        "success_rate",
        1.0 - ratio(failed as f64, windows.len() as f64),
    );
    out.metric("output_error", (sq / count.max(1) as f64).sqrt());
    out.note(
        "sim_latency_ns",
        mean(&first.iter().map(|w| w.sim_time_ns).collect::<Vec<_>>()),
    );
    out.note("windows_per_s", windows_per_s);
    out.note("windows", windows.len());
    out.note("passes", pass);
    out.note("error_rate", ratio(failed as f64, windows.len() as f64));

    out.metric(
        "hw.load_ms.p50",
        median(&windows.iter().map(|w| w.load_ms).collect::<Vec<_>>()),
    );
    out.metric(
        "hw.coanneal_ms.p50",
        median(&windows.iter().map(|w| w.run_ms).collect::<Vec<_>>()),
    );
    out.metric(
        "hw.steps_per_window",
        mean(&windows.iter().map(|w| w.steps as f64).collect::<Vec<_>>()),
    );
    if args.trace {
        let snap = sink.snapshot();
        let runs = snap.counter("hw.coanneal_runs") as f64;
        out.metric(
            "hw.slice_switches_per_window",
            ratio(snap.counter("hw.slice_switches") as f64, runs),
        );
        out.metric(
            "hw.sync_refreshes_per_window",
            ratio(snap.counter("hw.sync_refreshes") as f64, runs),
        );
        let traced: Vec<f64> = windows
            .iter()
            .filter(|w| w.traced)
            .map(|w| w.load_ms + w.run_ms)
            .collect();
        let traced_rate = 1e3 * traced.len() as f64 / traced.iter().sum::<f64>();
        out.metric("bench.trace_overhead", windows_per_s / traced_rate - 1.0);
        out.metric("bench.dropped_spans", collector.dropped() as f64);
        out.note("spans", collector.snapshot().len());
        if collector.dropped() > 0 {
            out.problem(format!(
                "the traced run dropped {} spans",
                collector.dropped()
            ));
        }
    }
    out
}
