//! `serve_unique`: independent users against
//! `dsgl_serve::ForecastService` as shipped (`ServeConfig::default()`),
//! serving the `covid` model at `Scale::full()` (80 nodes, W = 4,
//! 400 variables). Every request carries a distinct (window, seed) key,
//! so coalescing can batch requests but never collapse them.
//!
//! A run measures three phases on one service:
//!
//! - an open loop at [`LOW_RPS`] and one at [`HIGH_RPS`]: arrivals on a
//!   seeded Poisson schedule, each request timed from its scheduled send
//!   time, so a stalled service also charges the requests queued behind
//!   the stall;
//! - a saturating closed loop that keeps [`IN_FLIGHT_BATCHES`] full
//!   batches queued and counts completions per second: the service's
//!   capacity.
//!
//! Shares of `--seconds`: 20% low, 30% high, 50% saturated.
//!
//! A seeded one-in-[`CHECK_EVERY`] subset of the responses is checked
//! bit for bit against the serial `infer_batch_guarded_seeded_instrumented`
//! reference.

use crate::stats::{arg, mean, median, peak_rss_mb, quantile, ratio, SpanTree};
use crate::{Args, Outcome};
use dsgl_bench::pipeline::{self, Prepared, Scale};
use dsgl_core::guard::infer_batch_guarded_seeded_instrumented;
use dsgl_core::{DsGlModel, GuardedAnneal, SpanCollector, SpanRecord, TelemetrySink};
use dsgl_data::Sample;
use dsgl_ising::fault::FaultModel;
use dsgl_ising::AnnealConfig;
use dsgl_serve::{ForecastService, ServeConfig, ServeError, Ticket};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::VecDeque;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// The lower fixed arrival rate. Measured on a 2-core x86-64 machine at
/// the commit that defined this benchmark, `serve_unique` saturates
/// near 100 req/s, but its p50 jumps about eightfold between 15 and
/// 25 req/s, where batches start to coalesce: this rate sits below that
/// knee, where most batches hold one request.
pub const LOW_RPS: f64 = 15.0;
/// The higher fixed arrival rate: above the coalescing knee, well below
/// saturation, where batches hold about five requests. Below the knee
/// p95 flips from run to run between one-window and multi-window batch
/// costs; here it stays with the latter.
pub const HIGH_RPS: f64 = 40.0;
/// The saturating closed loop keeps this many full batches queued.
const IN_FLIGHT_BATCHES: usize = 4;
/// Bursts of the saturating closed loop per run; capacity is the best of
/// their rates. On a shared 2-core machine the burst rate sits for
/// seconds at a time in one of two levels about 1.5× apart, whatever the
/// program does, so the median burst flips between runs. The best burst
/// repeats, and a slower program lowers every burst, the best included.
const CAPACITY_BURSTS: usize = 12;
/// Shares of `--seconds` for the low-rate, high-rate and saturated
/// phases. The saturated phase gets half, so that its bursts see both
/// levels of the machine in most runs.
const SHARES: [f64; 3] = [0.2, 0.3, 0.5];
/// A generator running later than this at p95 is flagged: its latency
/// figures would measure the generator, not the service.
pub const GENERATOR_LAG_BOUND_MS: f64 = 5.0;
/// One request in this many is checked against the serial reference.
const CHECK_EVERY: u64 = 8;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Seed of the `covid` data set and the model trained on it. The
/// workload seed picks the traffic, not the model, so runs under
/// different seeds load the same service differently.
pub const DATA_SEED: u64 = 7;

/// SplitMix64: a seeded, platform-independent hash.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// One scheduled request.
#[derive(Debug, Clone, Copy)]
struct Req {
    /// Global request index (across every phase of the run).
    index: usize,
    /// Offset of its scheduled send time from the phase start.
    due: Duration,
    window: usize,
    seed: u64,
}

/// Generates distinct request keys from the workload seed.
struct Keys {
    seed: u64,
    windows: usize,
    next: usize,
}

impl Keys {
    fn next(&mut self, due: Duration) -> Req {
        let index = self.next;
        self.next += 1;
        let h = mix(self.seed ^ mix(index as u64));
        Req {
            index,
            due,
            window: (mix(h) % self.windows as u64) as usize,
            seed: mix(h ^ 0xc01d),
        }
    }

    /// A Poisson schedule at `rate` for `duration`.
    fn schedule(&mut self, rate: f64, duration: Duration, rng: &mut StdRng) -> Vec<Req> {
        let mut out = Vec::new();
        let mut t = 0.0f64;
        loop {
            t += -(1.0 - rng.random::<f64>()).ln() / rate;
            if t >= duration.as_secs_f64() {
                return out;
            }
            out.push(self.next(Duration::from_secs_f64(t)));
        }
    }
}

/// One answered request.
struct Served {
    req: Req,
    latency_ms: f64,
    prediction: Vec<f64>,
    degraded: bool,
    sim_time_ns: f64,
}

/// What one phase of load measured.
#[derive(Default)]
struct Phase {
    sent: usize,
    served: Vec<Served>,
    refused: usize,
    errors: usize,
    lag_ms: Vec<f64>,
    submit_us: Vec<f64>,
}

impl Phase {
    fn latencies(&self) -> Vec<f64> {
        self.served.iter().map(|s| s.latency_ms).collect()
    }

    /// A refused or failed request misses any limit, so it counts as an
    /// infinite latency.
    fn p95_ms(&self) -> f64 {
        let mut l = self.latencies();
        l.extend(std::iter::repeat_n(
            f64::INFINITY,
            self.refused + self.errors,
        ));
        quantile(&l, 0.95)
    }

    fn redeem(&mut self, req: Req, since: Instant, ticket: Result<Ticket, ServeError>) {
        let outcome = ticket.and_then(Ticket::wait);
        let latency_ms = since.elapsed().as_secs_f64() * 1e3;
        match outcome {
            Ok(r) => self.served.push(Served {
                req,
                latency_ms,
                degraded: r.health.degraded || r.slo_degraded,
                sim_time_ns: r.health.anneal_sim_time_ns,
                prediction: r.prediction,
            }),
            Err(ServeError::Overloaded { .. }) => self.refused += 1,
            Err(e) => {
                eprintln!("[serve] request {} failed: {e}", req.index);
                self.errors += 1;
            }
        }
    }
}

fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// One open-loop phase: a generator thread submits on schedule, a
/// collector thread redeems tickets in order (the service is FIFO).
fn open_loop(service: &ForecastService, windows: &[Vec<f64>], plan: &[Req]) -> Phase {
    let start = Instant::now() + Duration::from_millis(5);
    let (tx, rx) = mpsc::channel::<(Req, Instant, Result<Ticket, ServeError>)>();
    let mut phase = std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut phase = Phase::default();
            for (req, due, ticket) in rx {
                phase.redeem(req, due, ticket);
            }
            phase
        });
        let mut lag_ms = Vec::with_capacity(plan.len());
        let mut submit_us = Vec::with_capacity(plan.len());
        for req in plan {
            let due = start + req.due;
            sleep_until(due);
            let window = windows[req.window].clone();
            let t0 = Instant::now();
            let ticket = service.submit(window, req.seed);
            submit_us.push(t0.elapsed().as_secs_f64() * 1e6);
            lag_ms.push(t0.saturating_duration_since(due).as_secs_f64() * 1e3);
            tx.send((*req, due, ticket)).expect("collector alive");
        }
        drop(tx);
        let mut phase = collector.join().expect("collector thread panicked");
        phase.lag_ms = lag_ms;
        phase.submit_us = submit_us;
        phase
    });
    phase.sent = plan.len();
    phase
}

/// The saturating closed loop, in [`CAPACITY_BURSTS`] bursts: each
/// keeps [`IN_FLIGHT_BATCHES`] full batches queued for its share of
/// `duration`, then drains, so every burst meets the worker at a fresh
/// batch alignment. Returns the phase and each burst's rate: completions
/// after the burst's first, per second between that first and the
/// burst's last completion.
fn saturate(
    service: &ForecastService,
    windows: &[Vec<f64>],
    keys: &mut Keys,
    duration: Duration,
) -> (Phase, Vec<f64>) {
    let in_flight = IN_FLIGHT_BATCHES * ServeConfig::default().coalesce;
    let mut per_burst = Vec::new();
    let burst = duration / CAPACITY_BURSTS as u32;
    let mut phase = Phase::default();
    for _ in 0..CAPACITY_BURSTS {
        let mut completed = 0usize;
        let mut pending = VecDeque::with_capacity(in_flight);
        let start = Instant::now();
        let mut first: Option<Instant> = None;
        let mut last = start;
        loop {
            if start.elapsed() < burst && pending.len() < in_flight {
                let req = keys.next(Duration::ZERO);
                let ticket = service.submit(windows[req.window].clone(), req.seed);
                pending.push_back((req, Instant::now(), ticket));
                phase.sent += 1;
                continue;
            }
            let Some((req, sent, ticket)) = pending.pop_front() else {
                break;
            };
            phase.redeem(req, sent, ticket);
            let now = Instant::now();
            if now.duration_since(start) <= burst {
                if first.is_some() {
                    completed += 1;
                    last = now;
                } else {
                    first = Some(now);
                }
            }
        }
        let span = first.map_or(0.0, |f| last.duration_since(f).as_secs_f64());
        per_burst.push(ratio(completed as f64, span));
    }
    (phase, per_burst)
}

/// One trained service model and the windows users ask about.
struct Setup {
    prepared: Prepared,
    model: DsGlModel,
    prepare_s: f64,
    fit_s: f64,
}

fn setup() -> Setup {
    let scale = Scale::full();
    let t0 = Instant::now();
    let prepared = pipeline::prepare("covid", &scale, DATA_SEED);
    let prepare_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let (model, _) = pipeline::train_dense(&prepared, &scale, DATA_SEED);
    let fit_s = t1.elapsed().as_secs_f64();
    Setup {
        prepared,
        model,
        prepare_s,
        fit_s,
    }
}

fn spawn(s: &Setup, spans: SpanCollector) -> (ForecastService, TelemetrySink) {
    let sink = TelemetrySink::enabled();
    let service = ForecastService::spawn_traced(
        s.model.clone(),
        GuardedAnneal::new(AnnealConfig::default()),
        sink.clone(),
        spans,
        ServeConfig::default(),
    )
    .expect("the shipped ServeConfig is valid");
    (service, sink)
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut prepare_s = Vec::new();
    let mut fit_s = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPS {
        // Shut the previous repetition's service down before building anew.
        drop(built.take());
        let t0 = Instant::now();
        let s = setup();
        let spawned = spawn(&s, SpanCollector::noop());
        setup_s.push(t0.elapsed().as_secs_f64());
        prepare_s.push(s.prepare_s);
        fit_s.push(s.fit_s);
        built = Some((s, spawned));
    }
    let (s, (service, _)) = built.expect("at least one set-up");
    let windows: Vec<Vec<f64>> = s.prepared.test.iter().map(|x| x.history.clone()).collect();
    let targets: Vec<&[f64]> = s
        .prepared
        .test
        .iter()
        .map(|x| x.target.as_slice())
        .collect();
    out.metric("setup_s", median(&setup_s));
    out.metric("data.prepare_s", median(&prepare_s));
    out.metric("ridge.fit_s", median(&fit_s));
    out.note("setup_s.reps", setup_s);
    out.note("model.total_vars", s.model.layout().total());
    out.note("test_windows", windows.len());

    let mut rng = StdRng::seed_from_u64(mix(args.seed ^ 0x0a11));
    let mut keys = Keys {
        seed: mix(args.seed),
        windows: windows.len(),
        next: 0,
    };
    let total = args.seconds;
    let mut phase = |service: &ForecastService, keys: &mut Keys, rate: f64, share: f64| {
        let plan = keys.schedule(rate, total.mul_f64(share), &mut rng);
        open_loop(service, &windows, &plan)
    };
    let (low, high, extra, service) = if args.trace {
        // An untraced low phase first, for the tracing overhead.
        let untraced = phase(&service, &mut keys, LOW_RPS, 0.2);
        drop(service);
        let collector = SpanCollector::with_capacity(1 << 18);
        let (traced, sink) = spawn(&s, collector.clone());
        let low = phase(&traced, &mut keys, LOW_RPS, 0.3);
        let high = phase(&traced, &mut keys, HIGH_RPS, 0.5);
        let (traced_p50, untraced_p50) = (median(&low.latencies()), median(&untraced.latencies()));
        out.metric("bench.trace_overhead", traced_p50 / untraced_p50 - 1.0);
        out.note("p50_ms.low.untraced", untraced_p50);
        out.metric("bench.dropped_spans", collector.dropped() as f64);
        if collector.dropped() > 0 {
            out.problem(format!(
                "the traced run dropped {} spans",
                collector.dropped()
            ));
        }
        layer_metrics(
            &mut out,
            &traced,
            &sink,
            &collector.snapshot(),
            &[&low, &high],
            &s.model,
        );
        (low, high, untraced, traced)
    } else {
        let low = phase(&service, &mut keys, LOW_RPS, SHARES[0]);
        let high = phase(&service, &mut keys, HIGH_RPS, SHARES[1]);
        let (capacity, bursts) = saturate(&service, &windows, &mut keys, total.mul_f64(SHARES[2]));
        let capacity_rps = bursts.iter().copied().fold(0.0, f64::max);
        out.metric("throughput_per_s", capacity_rps);
        out.note("capacity_rps", capacity_rps);
        out.note("capacity_rps.bursts", bursts);
        out.metric("p50_ms", median(&low.latencies()));
        out.metric("tail_ms", high.p95_ms());
        (low, high, capacity, service)
    };
    let lag: Vec<f64> = [&low, &high]
        .iter()
        .flat_map(|p| p.lag_ms.iter().copied())
        .collect();
    let lag_p95 = quantile(&lag, 0.95);
    out.metric("bench.generator_lag_ms.p95", lag_p95);
    out.note("bench.generator_lag_ms.p95", lag_p95);
    out.note("generator_ok", lag_p95 <= GENERATOR_LAG_BOUND_MS);
    if lag_p95 > GENERATOR_LAG_BOUND_MS {
        eprintln!(
            "[serve] FLAG: generator lag p95 {lag_p95:.3} ms exceeds {GENERATOR_LAG_BOUND_MS} ms; \
             this run's latencies include the generator's own delay"
        );
    }
    for (tag, rate, p) in [("low", LOW_RPS, &low), ("high", HIGH_RPS, &high)] {
        out.note(&format!("p50_ms.{tag}"), median(&p.latencies()));
        out.note(&format!("p95_ms.{tag}"), p.p95_ms());
        out.note(&format!("requests.{tag}"), p.sent);
        out.note(&format!("rate_rps.{tag}"), rate);
    }

    // Accounting over the two fixed-rate phases, whose request sets are
    // a pure function of the seed.
    let fixed = [&low, &high];
    let sent: usize = fixed.iter().map(|p| p.sent).sum();
    let bad: usize = fixed
        .iter()
        .map(|p| p.refused + p.errors + p.served.iter().filter(|s| s.degraded).count())
        .sum();
    out.attempted = sent as u64;
    out.failed = bad as u64;
    out.metric("success_rate", 1.0 - ratio(bad as f64, sent as f64));
    out.note("error_rate", ratio(bad as f64, sent as f64));
    // Forecast quality: one request per test window after the timed
    // phases, so every held-out window counts once whatever the mix.
    let mut coverage = Phase::default();
    let mut sq = 0.0;
    let mut count = 0usize;
    for (window, history) in windows.iter().enumerate() {
        let req = Req {
            window,
            ..keys.next(Duration::ZERO)
        };
        let ticket = service.submit(history.clone(), req.seed);
        coverage.redeem(req, Instant::now(), ticket);
    }
    for served in &coverage.served {
        for (p, t) in served.prediction.iter().zip(targets[served.req.window]) {
            sq += (p - t) * (p - t);
            count += 1;
        }
    }
    if coverage.served.len() != windows.len() {
        out.problem(format!(
            "{} of {} coverage requests failed",
            windows.len() - coverage.served.len(),
            windows.len()
        ));
    }
    out.metric("output_error", (sq / count.max(1) as f64).sqrt());
    let sim: Vec<f64> = fixed
        .iter()
        .flat_map(|p| p.served.iter().map(|s| s.sim_time_ns))
        .collect();
    out.note("sim_latency_ns", mean(&sim));

    drop(service);
    // Peak memory of the service run, before the serial reference adds
    // its own.
    out.metric("peak_rss_mb", peak_rss_mb());
    verify(
        &mut out,
        &s,
        &windows,
        args.seed,
        &[&low, &high, &extra, &coverage],
    );
    out
}

/// Checks a seeded subset of the responses bit for bit against the
/// serial reference.
fn verify(out: &mut Outcome, s: &Setup, windows: &[Vec<f64>], seed: u64, phases: &[&Phase]) {
    let guard = GuardedAnneal::new(AnnealConfig::default());
    let sink = TelemetrySink::noop();
    let target_len = s.model.layout().target_len();
    let served: Vec<&Served> = phases.iter().flat_map(|p| p.served.iter()).collect();
    let mut checked = 0usize;
    let t0 = Instant::now();
    for r in &served {
        let (window, key) = (r.req.window, r.req.seed);
        if !mix(seed ^ key ^ window as u64).is_multiple_of(CHECK_EVERY) {
            continue;
        }
        let sample = Sample {
            history: windows[window].clone(),
            target: vec![0.0; target_len],
        };
        let reference = infer_batch_guarded_seeded_instrumented(
            &s.model,
            std::slice::from_ref(&sample),
            &guard,
            &[key],
            &FaultModel::none(),
            &sink,
        );
        match reference {
            Ok(mut expected) => {
                if r.prediction != expected.remove(0).0 {
                    out.problem(format!(
                        "request {} differs from the serial reference",
                        r.req.index
                    ));
                }
            }
            Err(e) => out.problem(format!(
                "serial reference for request {} failed: {e}",
                r.req.index
            )),
        }
        checked += 1;
    }
    out.note("verified_requests", checked);
    out.note("served_requests", served.len());
    eprintln!(
        "[serve] verified {checked} of {} responses against the serial reference in {:.1}s",
        served.len(),
        t0.elapsed().as_secs_f64()
    );
    if checked == 0 {
        out.problem("no response was checked against the serial reference".into());
    }
}

/// Per-layer metrics of the traced phases.
fn layer_metrics(
    out: &mut Outcome,
    service: &ForecastService,
    sink: &TelemetrySink,
    spans: &[SpanRecord],
    phases: &[&Phase],
    model: &DsGlModel,
) {
    let snap = sink.snapshot();
    let stats = service.stats();
    let tree = SpanTree::new(spans);
    let submit: Vec<f64> = phases
        .iter()
        .flat_map(|p| p.submit_us.iter().copied())
        .collect();
    out.metric("serve.submit_us.p50", median(&submit));
    let queue_wait: Vec<f64> = tree
        .named("serve.queue_wait")
        .map(|s| s.duration_ns as f64 / 1e6)
        .collect();
    out.metric("serve.queue_wait_ms.p50", median(&queue_wait));
    out.metric("serve.queue_wait_ms.p95", quantile(&queue_wait, 0.95));

    // Batch self time: the batch span minus the anneal and guard spans
    // under it (dedup planning, fan-out, replies).
    let is_kernel = |n: &str| n.starts_with("anneal.") || n == "guard.retry";
    let batches: Vec<&SpanRecord> = tree.named("serve.batch").collect();
    let mut batch_self = Vec::new();
    let mut anneal_ns = 0u64;
    let n = model.layout().total() as f64;
    let mut flops = 0.0;
    let mut bytes = 0.0;
    for batch in &batches {
        let kids = tree.children_of(batch, is_kernel);
        let busy = SpanTree::covered_by(batch, &kids);
        anneal_ns += busy;
        batch_self.push((batch.duration_ns - busy.min(batch.duration_ns)) as f64 / 1e6);
        // Computed kernel work: 2·n² flops per window per integrator
        // step; the coupling matrix streams once per step of a lockstep
        // group and once per step of every strict window.
        let steps: Vec<f64> = kids
            .iter()
            .filter(|k| k.name.starts_with("anneal."))
            .map(|k| arg(k, "steps"))
            .collect();
        flops += 2.0 * n * n * steps.iter().sum::<f64>();
        let lockstep: Vec<f64> = kids
            .iter()
            .filter(|k| k.name == "anneal.lockstep")
            .map(|k| arg(k, "steps"))
            .collect();
        let lockstep_max = lockstep.iter().copied().fold(0.0, f64::max);
        let strict: f64 = kids
            .iter()
            .filter(|k| k.name.starts_with("anneal.") && k.name != "anneal.lockstep")
            .map(|k| arg(k, "steps"))
            .sum();
        bytes += 8.0 * n * n * (lockstep_max + strict);
    }
    out.metric("serve.batch_self_ms.p50", median(&batch_self));

    // Request self time: the request span minus its children and the
    // batch that served it (the first batch to start after its queue
    // wait ended; the shipped service runs one worker, so batches are
    // sequential).
    let mut batch_starts: Vec<(u64, &SpanRecord)> =
        batches.iter().map(|b| (b.start_ns, *b)).collect();
    batch_starts.sort_unstable_by_key(|b| b.0);
    let mut request_self = Vec::new();
    for request in tree.named("serve.request") {
        let mut kids = tree.children_of(request, |_| true);
        if let Some(wait) = kids.iter().find(|k| k.name == "serve.queue_wait") {
            let popped = wait.start_ns + wait.duration_ns;
            let i = batch_starts.partition_point(|b| b.0 < popped);
            if let Some(&(_, batch)) = batch_starts.get(i) {
                kids.push(batch);
            }
        }
        let busy = SpanTree::covered_by(request, &kids);
        request_self.push((request.duration_ns - busy.min(request.duration_ns)) as f64 / 1e6);
    }
    out.metric("serve.request_self_ms.p50", median(&request_self));

    let runs = snap.counter("guard.runs") as f64;
    let requests = snap.counter("serve.requests") as f64;
    let sent: usize = phases.iter().map(|p| p.sent).sum();
    out.metric("serve.batch_width.mean", stats.mean_coalesce_width);
    out.metric("serve.anneals_per_request", ratio(runs, requests));
    out.metric(
        "serve.rejected_fraction",
        ratio(snap.counter("serve.rejected") as f64, sent as f64),
    );
    out.metric(
        "inference.lockstep_fraction",
        ratio(snap.counter("anneal.lockstep_windows") as f64, runs),
    );
    out.metric(
        "guard.retries_per_window",
        ratio(snap.counter("guard.retries") as f64, runs),
    );
    out.metric(
        "anneal.self_ms_per_window",
        ratio(anneal_ns as f64 / 1e6, runs),
    );
    out.metric(
        "anneal.steps_per_window",
        snap.get("anneal.steps").map_or(0.0, |i| i.mean()),
    );
    out.metric("kernels.gflops_computed", ratio(flops, anneal_ns as f64));
    out.metric("kernels.ops_per_byte_computed", ratio(flops, bytes));

    // Service-reported quantiles against the client's exact ones over
    // the same requests.
    let client: Vec<f64> = phases.iter().flat_map(|p| p.latencies()).collect();
    let (c50, c99) = (median(&client), quantile(&client, 0.99));
    let (s50, s99) = (stats.p50_latency_ns / 1e6, stats.p99_latency_ns / 1e6);
    out.metric("serve.stats_p50_rel_err", ratio((s50 - c50).abs(), c50));
    out.metric("serve.stats_p99_rel_err", ratio((s99 - c99).abs(), c99));
    out.note("serve.stats_ms", vec![s50, s99]);
    out.note("serve.client_ms", vec![c50, c99]);
    out.note("spans", spans.len());
}
