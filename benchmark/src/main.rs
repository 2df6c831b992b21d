//! The repository benchmark: one command, three workloads, every output
//! checked for correctness.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <serve_unique|graph_100k|mesh_coanneal> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Every input is generated from `--seed`.
//! An untraced run (`--trace 0`) measures the end-to-end metrics of
//! [`END_TO_END`]; a traced run (`--trace 1`) measures the per-layer
//! metrics of [`PER_LAYER`] from the service's span tree, telemetry
//! counters and timers around public calls. Human-readable progress
//! goes to stderr. Stdout carries two JSON lines: a report with the
//! result envelope and every workload-specific figure, then the result
//! object `{"correct", "attempted", "failed", "metrics"}`. Any failed
//! correctness gate prints the result with `"correct": false` and exits
//! with code 1. `benchmark/README.md` maps every metric to its layer.

mod graph;
mod mesh;
mod serve;
mod stats;

use serde::{Serialize, Value};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;

/// End-to-end metrics, reported by every workload of an untraced run.
pub const END_TO_END: [(&str, &str); 7] = [
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("success_rate", "fraction"),
    ("output_error", "1"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of a traced run. A layer a workload never enters
/// reads 0 there.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("serve.submit_us.p50", "us"),
    ("serve.queue_wait_ms.p50", "ms"),
    ("serve.queue_wait_ms.p95", "ms"),
    ("serve.batch_self_ms.p50", "ms"),
    ("serve.request_self_ms.p50", "ms"),
    ("serve.batch_width.mean", "count"),
    ("serve.anneals_per_request", "ratio"),
    ("serve.rejected_fraction", "fraction"),
    ("serve.stats_p50_rel_err", "ratio"),
    ("serve.stats_p99_rel_err", "ratio"),
    ("inference.lockstep_fraction", "fraction"),
    ("guard.retries_per_window", "ratio"),
    ("anneal.self_ms_per_window", "ms"),
    ("anneal.steps_per_window", "count"),
    ("kernels.gflops_computed", "GFLOP/s"),
    ("kernels.ops_per_byte_computed", "flop/byte"),
    ("graph.build_s", "s"),
    ("multigrid.hierarchy_s", "s"),
    ("multigrid.warm_start_s", "s"),
    ("multigrid.coarse_steps", "count"),
    ("anneal.fine_s", "s"),
    ("anneal.fine_steps", "count"),
    ("anneal.sparse_steps", "count"),
    ("anneal.active_fraction", "fraction"),
    ("sparse.gbytes_per_s_computed", "GB/s"),
    ("data.prepare_s", "s"),
    ("ridge.fit_s", "s"),
    ("sparsify.decompose_s", "s"),
    ("hw.map_s", "s"),
    ("hw.load_ms.p50", "ms"),
    ("hw.coanneal_ms.p50", "ms"),
    ("hw.steps_per_window", "count"),
    ("hw.slice_switches_per_window", "count"),
    ("hw.sync_refreshes_per_window", "count"),
    ("bench.generator_lag_ms.p95", "ms"),
    ("bench.trace_overhead", "ratio"),
    ("bench.dropped_spans", "count"),
];

/// Every workload, as `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["serve_unique", "graph_100k", "mesh_coanneal"];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Workload seed: every input is derived from it.
    pub seed: u64,
    /// Measured duration of the run.
    pub seconds: Duration,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (requests sent, windows solved).
    pub attempted: u64,
    /// Operations that failed (errors, refusals, unconverged windows).
    pub failed: u64,
    /// Gated metrics by name: the end-to-end set untraced, the
    /// per-layer set traced.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Every other figure the run measured (per-phase latencies, phase
    /// counts, workload shape), for the report line.
    pub report: Vec<(String, Value)>,
    /// Failed correctness gates, empty when every output checked out.
    pub problems: Vec<String>,
}

impl Outcome {
    /// Records a gated metric.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records an informational figure for the report line.
    pub fn note(&mut self, name: &str, value: impl Serialize) {
        self.report.push((name.to_owned(), json(&value)));
    }

    /// Records a failed correctness gate.
    pub fn problem(&mut self, what: String) {
        eprintln!("[correctness] {what}");
        self.problems.push(what);
    }
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(Duration::from_secs(10)),
        trace: trace.unwrap_or(false),
    })
}

/// The git revision of the checkout when it is a git work tree, read
/// from `.git` without spawning git.
fn git_revision() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(rev.trim().to_owned());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_owned)
}

/// FNV-1a over every source file the benchmark builds from, so runs of
/// a checkout without `.git` still identify the code they measured.
fn source_fingerprint() -> String {
    fn walk(dir: &std::path::Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else if path
                .extension()
                .is_some_and(|e| e == "rs" || e == "toml" || e == "lock")
            {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    for root in ["crates", "src", "vendor", "benchmark/src"] {
        walk(std::path::Path::new(root), &mut files);
    }
    files.extend(["Cargo.toml", "Cargo.lock", "benchmark/Cargo.toml"].map(Into::into));
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for path in &files {
        let bytes = std::fs::read(path).unwrap_or_default();
        for b in path.to_string_lossy().bytes().chain(bytes) {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

/// `value` as a JSON tree, non-finite numbers (which JSON cannot hold)
/// as `null`.
fn json<T: Serialize + ?Sized>(value: &T) -> Value {
    fn finite(v: Value) -> Value {
        match v {
            Value::Float(f) if !f.is_finite() => Value::Null,
            Value::Seq(items) => Value::Seq(items.into_iter().map(finite).collect()),
            Value::Map(fields) => {
                Value::Map(fields.into_iter().map(|(k, v)| (k, finite(v))).collect())
            }
            v => v,
        }
    }
    finite(value.to_value())
}

/// A JSON object with `fields` in order.
fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Map(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

fn envelope(args: &Args) -> Value {
    object(vec![
        (
            "command",
            json(&std::env::args().collect::<Vec<_>>().join(" ")),
        ),
        ("workload", json(&args.workload)),
        ("seed", json(&args.seed)),
        ("seconds", json(&args.seconds.as_secs_f64())),
        ("traced", json(&args.trace)),
        (
            "nproc",
            json(&std::thread::available_parallelism().map_or(1, |n| n.get())),
        ),
        ("simd_active", json(&dsgl_nn::kernels::simd_active())),
        ("parallel", json(&cfg!(feature = "parallel"))),
        ("rev", json(&git_revision())),
        ("source_fnv", json(&source_fingerprint())),
    ])
}

fn to_json(value: &Value) -> String {
    serde_json::to_string(value).expect("non-finite numbers were replaced by null")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let env = envelope(&args);
    eprintln!("[benchmark] {}", to_json(&env));
    // Each workload reads `peak_rss_mb` itself, before its correctness
    // references allocate.
    let mut outcome = match args.workload.as_str() {
        "serve_unique" => serve::run(&args),
        "graph_100k" => graph::run(&args),
        "mesh_coanneal" => mesh::run(&args),
        _ => unreachable!("workload validated by parse_args"),
    };
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for &(name, unit) in names {
        let value = match outcome.metrics.get(name) {
            Some(&v) => v,
            None if args.trace => 0.0,
            None => {
                outcome.problem(format!("end-to-end metric {name} was not measured"));
                0.0
            }
        };
        if !value.is_finite() {
            outcome.problem(format!("metric {name} is not finite: {value}"));
        }
        let value = if value.is_finite() { value } else { 0.0 };
        eprintln!("  {name:<34} {value:>16.6} {unit}");
        metrics.push((
            name,
            object(vec![("value", json(&value)), ("unit", json(unit))]),
        ));
    }
    let correct = outcome.problems.is_empty();
    let report = object(vec![
        ("envelope", env),
        ("report", Value::Map(outcome.report)),
        ("problems", json(&outcome.problems)),
    ]);
    println!("{}", to_json(&report));
    let result = object(vec![
        ("correct", json(&correct)),
        ("attempted", json(&outcome.attempted.max(1))),
        ("failed", json(&outcome.failed)),
        ("metrics", object(metrics)),
    ]);
    println!("{}", to_json(&result));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
