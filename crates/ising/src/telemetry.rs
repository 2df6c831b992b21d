//! Workspace-wide telemetry: a lightweight, thread-safe metrics
//! registry with named counters, gauges, and fixed-bucket histograms.
//!
//! The paper's whole argument rests on *dynamics you can see* —
//! convergence time, anneal steps, retry behaviour, PE/CU utilisation —
//! so every layer of the workspace reports run-level statistics through
//! a [`TelemetrySink`]:
//!
//! - **annealing** (`anneal.*`): steps, simulated time, convergence
//!   residuals, active-set occupancy, drain validations, rail
//!   saturations (recorded by [`crate::RealValuedDspu`] and the
//!   event-driven engine);
//! - **guarded inference** (`guard.*`): attempts, retries per
//!   mitigation rung, degraded windows, fault sanitisations (recorded
//!   by `dsgl-core`'s guard);
//! - **training** (`train.*`): ridge solves, λ escalations, per-phase
//!   durations (recorded by `dsgl-core`'s trainer and ridge solver);
//! - **hw mapping** (`hw.*`): PE occupancy, CU lane demand vs. `L`,
//!   wormhole count, co-anneal slice switches (recorded by `dsgl-hw`'s
//!   mapped machine).
//!
//! The sink is a cheap cloneable handle. The default [noop
//! sink](TelemetrySink::noop) carries no registry: every recording
//! method returns after one branch, no allocation, no lock, no clock
//! read — hot paths pay nothing when telemetry is off. An [enabled
//! sink](TelemetrySink::enabled) shares one [`MetricsRegistry`] across
//! every clone; recording never touches machine state or RNG streams,
//! so strict-path outputs stay bit-identical with telemetry on (locked
//! in by the determinism suite).
//!
//! Values are recorded at *run* granularity (a handful of updates per
//! annealing run, never per integration step), and durations are
//! simulated time in ns wherever the dynamics define one; wall-clock is
//! only used by the coarse [phase spans](TelemetrySink::time_phase)
//! around pipeline stages.
//!
//! A [`MetricsSnapshot`] freezes the registry into a serde-stable,
//! sorted form for JSON export (`tracing::prometheus_text` renders it
//! as Prometheus text) and renders a human-readable
//! [summary table](MetricsSnapshot::summary_table).

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Fixed histogram bucket upper bounds: a 1–2–5 log series spanning
/// `1e-9 ..= 1e12`, wide enough for convergence residuals (rail
/// fractions per ns), active-set fractions, step counts, and simulated
/// or wall nanoseconds alike. Samples above the top bound land in the
/// snapshot's `overflow` count.
pub fn bucket_bounds() -> Vec<f64> {
    let mut bounds = Vec::with_capacity(66);
    for exp in -9..=12i32 {
        for mantissa in [1.0, 2.0, 5.0] {
            bounds.push(mantissa * 10f64.powi(exp));
        }
    }
    bounds
}

/// One live instrument inside the registry.
#[derive(Debug, Clone)]
enum Slot {
    /// Monotonic event count.
    Counter(u64),
    /// Last-write-wins level with min/max/set-count tracking.
    Gauge {
        value: f64,
        min: f64,
        max: f64,
        sets: u64,
    },
    /// Fixed-bucket histogram over [`bucket_bounds`].
    Histogram {
        counts: Vec<u64>,
        overflow: u64,
        count: u64,
        sum: f64,
        min: f64,
        max: f64,
        last: f64,
    },
}

impl Slot {
    fn new_histogram() -> Slot {
        Slot::Histogram {
            counts: vec![0; bucket_bounds().len()],
            overflow: 0,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            last: 0.0,
        }
    }
}

/// Thread-safe named-instrument store shared by every clone of an
/// enabled [`TelemetrySink`].
///
/// Instruments are created on first use; the first recording determines
/// an instrument's kind, and later recordings of a different kind are
/// ignored (with a debug assertion) rather than corrupting the slot.
/// All updates take one short mutex-guarded map operation — recording
/// happens at run granularity, so contention is negligible.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    slots: Mutex<BTreeMap<String, Slot>>,
}

impl MetricsRegistry {
    fn update(&self, name: &str, make: impl FnOnce() -> Slot, apply: impl FnOnce(&mut Slot)) {
        let mut slots = self.slots.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(slot) = slots.get_mut(name) {
            apply(slot);
        } else {
            let mut slot = make();
            apply(&mut slot);
            slots.insert(name.to_owned(), slot);
        }
    }

    fn snapshot(&self) -> MetricsSnapshot {
        let slots = self.slots.lock().unwrap_or_else(|e| e.into_inner());
        let bounds = bucket_bounds();
        let instruments = slots
            .iter()
            .map(|(name, slot)| match slot {
                Slot::Counter(v) => InstrumentSnapshot {
                    name: name.clone(),
                    kind: "counter".to_owned(),
                    count: *v,
                    sum: *v as f64,
                    min: 0.0,
                    max: 0.0,
                    last: *v as f64,
                    buckets: Vec::new(),
                    overflow: 0,
                },
                Slot::Gauge {
                    value,
                    min,
                    max,
                    sets,
                } => InstrumentSnapshot {
                    name: name.clone(),
                    kind: "gauge".to_owned(),
                    count: *sets,
                    sum: *value,
                    min: if *sets > 0 { *min } else { 0.0 },
                    max: if *sets > 0 { *max } else { 0.0 },
                    last: *value,
                    buckets: Vec::new(),
                    overflow: 0,
                },
                Slot::Histogram {
                    counts,
                    overflow,
                    count,
                    sum,
                    min,
                    max,
                    last,
                } => InstrumentSnapshot {
                    name: name.clone(),
                    kind: "histogram".to_owned(),
                    count: *count,
                    sum: *sum,
                    min: if *count > 0 { *min } else { 0.0 },
                    max: if *count > 0 { *max } else { 0.0 },
                    last: *last,
                    buckets: counts
                        .iter()
                        .zip(&bounds)
                        .filter(|(&c, _)| c > 0)
                        .map(|(&c, &le)| HistogramBucket { le, count: c })
                        .collect(),
                    overflow: *overflow,
                },
            })
            .collect();
        MetricsSnapshot {
            schema_version: SCHEMA_VERSION,
            instruments,
        }
    }
}

/// Handle through which instrumented code reports metrics.
///
/// Cloning is cheap (an `Arc` bump at most); every clone of an enabled
/// sink records into the same shared [`MetricsRegistry`]. The default
/// handle is the no-op sink.
#[derive(Debug, Clone, Default)]
pub struct TelemetrySink {
    registry: Option<Arc<MetricsRegistry>>,
}

impl TelemetrySink {
    /// The disabled sink: every recording method is a single branch.
    pub const fn noop() -> Self {
        TelemetrySink { registry: None }
    }

    /// A fresh enabled sink backed by its own registry.
    pub fn enabled() -> Self {
        TelemetrySink {
            registry: Some(Arc::new(MetricsRegistry::default())),
        }
    }

    /// Whether this sink records anywhere.
    pub fn is_enabled(&self) -> bool {
        self.registry.is_some()
    }

    /// Adds `delta` to the named counter (created at zero on first use).
    pub fn counter_add(&self, name: &str, delta: u64) {
        let Some(registry) = &self.registry else {
            return;
        };
        registry.update(
            name,
            || Slot::Counter(0),
            |slot| {
                if let Slot::Counter(v) = slot {
                    *v += delta;
                } else {
                    debug_assert!(false, "instrument {name} is not a counter");
                }
            },
        );
    }

    /// Sets the named gauge to `value` (last write wins; min/max and the
    /// number of sets are tracked).
    pub fn gauge_set(&self, name: &str, value: f64) {
        let Some(registry) = &self.registry else {
            return;
        };
        registry.update(
            name,
            || Slot::Gauge {
                value: 0.0,
                min: f64::INFINITY,
                max: f64::NEG_INFINITY,
                sets: 0,
            },
            |slot| {
                if let Slot::Gauge {
                    value: v,
                    min,
                    max,
                    sets,
                } = slot
                {
                    *v = value;
                    *min = min.min(value);
                    *max = max.max(value);
                    *sets += 1;
                } else {
                    debug_assert!(false, "instrument {name} is not a gauge");
                }
            },
        );
    }

    /// Records `value` into the named fixed-bucket histogram.
    pub fn record(&self, name: &str, value: f64) {
        let Some(registry) = &self.registry else {
            return;
        };
        registry.update(name, Slot::new_histogram, |slot| {
            if let Slot::Histogram {
                counts,
                overflow,
                count,
                sum,
                min,
                max,
                last,
            } = slot
            {
                let bounds = bucket_bounds();
                match bounds.iter().position(|&le| value <= le) {
                    Some(i) => counts[i] += 1,
                    None => *overflow += 1,
                }
                *count += 1;
                *sum += value;
                *min = min.min(value);
                *max = max.max(value);
                *last = value;
            } else {
                debug_assert!(false, "instrument {name} is not a histogram");
            }
        });
    }

    /// Opens a span-style scoped timer: on drop, the elapsed wall time
    /// in ns is recorded into the named histogram. Intended for coarse
    /// pipeline phases (training, mapping, batch inference), never for
    /// per-step hot paths — those report simulated time instead. On a
    /// noop sink the span never reads the clock.
    pub fn time_phase(&self, name: &'static str) -> PhaseSpan {
        PhaseSpan {
            sink: self.clone(),
            name,
            start: self.is_enabled().then(Instant::now),
        }
    }

    /// Freezes the registry into a sorted, serialisable snapshot. The
    /// noop sink yields an empty snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        match &self.registry {
            Some(registry) => registry.snapshot(),
            None => MetricsSnapshot {
                schema_version: SCHEMA_VERSION,
                instruments: Vec::new(),
            },
        }
    }
}

/// Scoped wall-clock timer returned by [`TelemetrySink::time_phase`];
/// records its lifetime into a histogram when dropped.
#[derive(Debug)]
pub struct PhaseSpan {
    sink: TelemetrySink,
    name: &'static str,
    start: Option<Instant>,
}

impl Drop for PhaseSpan {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            self.sink.record(self.name, start.elapsed().as_nanos() as f64);
        }
    }
}

/// Version of the exported snapshot schema; bumped only when the JSON
/// shape below changes incompatibly.
pub const SCHEMA_VERSION: u32 = 1;

/// One occupied histogram bucket: `count` samples at or below `le`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramBucket {
    /// Inclusive upper bound of the bucket (from [`bucket_bounds`]).
    pub le: f64,
    /// Samples that landed in this bucket.
    pub count: u64,
}

/// The frozen state of one instrument.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InstrumentSnapshot {
    /// Dotted instrument name, e.g. `anneal.steps`; the prefix before
    /// the first dot is the instrument family.
    pub name: String,
    /// `"counter"`, `"gauge"`, or `"histogram"`.
    pub kind: String,
    /// Counter value, number of gauge sets, or histogram sample count.
    pub count: u64,
    /// Counter value, last gauge value, or histogram sample sum.
    pub sum: f64,
    /// Smallest recorded value (0 when nothing was recorded).
    pub min: f64,
    /// Largest recorded value (0 when nothing was recorded).
    pub max: f64,
    /// Most recent recorded value.
    pub last: f64,
    /// Occupied histogram buckets (empty for counters and gauges).
    pub buckets: Vec<HistogramBucket>,
    /// Histogram samples above the top bucket bound.
    pub overflow: u64,
}

impl InstrumentSnapshot {
    /// Mean recorded value (0 when nothing was recorded).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Bucket-based quantile estimate for `q` in `[0, 1]` (e.g. `0.5`
    /// for p50, `0.99` for p99).
    ///
    /// Scans the cumulative bucket counts and returns the upper bound
    /// of the first bucket whose cumulative count reaches `q · count`,
    /// clamped to the observed `max` so a coarse top bucket can't
    /// over-report. Samples past the top bound (`overflow`) resolve to
    /// `max`. For non-histogram instruments this falls back to `last`;
    /// an empty instrument reports 0.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        if self.buckets.is_empty() && self.overflow == 0 {
            // Counter or gauge: no distribution to interrogate.
            return self.last;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for bucket in &self.buckets {
            cumulative += bucket.count;
            if cumulative >= rank {
                return bucket.le.min(self.max);
            }
        }
        // Rank lands in the overflow region above the top bound.
        self.max
    }
}

/// A sorted, serde-stable export of every instrument in a registry.
///
/// The JSON field names of this type and its children are a stable
/// interface (locked in by `tests/serialization.rs`); downstream
/// dashboards may parse exported snapshots without tracking this
/// crate's internals.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Snapshot schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Every instrument, sorted by name.
    pub instruments: Vec<InstrumentSnapshot>,
}

impl MetricsSnapshot {
    /// Looks up an instrument by exact name.
    pub fn get(&self, name: &str) -> Option<&InstrumentSnapshot> {
        self.instruments.iter().find(|i| i.name == name)
    }

    /// Value of a counter, or 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.get(name).map_or(0, |i| i.count)
    }

    /// Instrument families present (name prefix before the first dot),
    /// sorted and deduplicated.
    pub fn families(&self) -> Vec<String> {
        let mut families: Vec<String> = self
            .instruments
            .iter()
            .map(|i| {
                i.name
                    .split('.')
                    .next()
                    .unwrap_or(i.name.as_str())
                    .to_owned()
            })
            .collect();
        families.sort();
        families.dedup();
        families
    }

    /// Renders the snapshot as a fixed-width human-readable table, one
    /// instrument per row.
    pub fn summary_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<34} {:<9} {:>10} {:>14} {:>14} {:>14}\n",
            "instrument", "kind", "count", "mean", "min", "max"
        ));
        for i in &self.instruments {
            let (mean, min, max) = match i.kind.as_str() {
                "counter" => (i.sum, 0.0, 0.0),
                _ => (i.mean(), i.min, i.max),
            };
            out.push_str(&format!(
                "{:<34} {:<9} {:>10} {:>14} {:>14} {:>14}\n",
                i.name,
                i.kind,
                i.count,
                format_value(mean),
                format_value(min),
                format_value(max),
            ));
        }
        out
    }
}

/// Compact numeric formatting for the summary table.
fn format_value(v: f64) -> String {
    if v == 0.0 {
        "0".to_owned()
    } else if v.abs() >= 1e6 || v.abs() < 1e-3 {
        format!("{v:.3e}")
    } else if v.fract() == 0.0 && v.abs() < 1e6 {
        format!("{v:.0}")
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_sink_records_nothing() {
        let sink = TelemetrySink::noop();
        assert!(!sink.is_enabled());
        sink.counter_add("a.b", 3);
        sink.gauge_set("a.g", 1.5);
        sink.record("a.h", 42.0);
        drop(sink.time_phase("a.phase_ns"));
        let snap = sink.snapshot();
        assert!(snap.instruments.is_empty());
        assert_eq!(snap.counter("a.b"), 0);
    }

    #[test]
    fn counters_gauges_histograms_accumulate() {
        let sink = TelemetrySink::enabled();
        sink.counter_add("anneal.runs", 2);
        sink.counter_add("anneal.runs", 1);
        sink.gauge_set("hw.lanes", 30.0);
        sink.gauge_set("hw.lanes", 12.0);
        sink.record("anneal.steps", 100.0);
        sink.record("anneal.steps", 300.0);
        sink.record("anneal.steps", 1e15); // overflow
        let snap = sink.snapshot();
        assert_eq!(snap.counter("anneal.runs"), 3);
        let lanes = snap.get("hw.lanes").unwrap();
        assert_eq!(lanes.last, 12.0);
        assert_eq!(lanes.min, 12.0);
        assert_eq!(lanes.max, 30.0);
        assert_eq!(lanes.count, 2);
        let steps = snap.get("anneal.steps").unwrap();
        assert_eq!(steps.count, 3);
        assert_eq!(steps.min, 100.0);
        assert_eq!(steps.max, 1e15);
        assert_eq!(steps.overflow, 1);
        assert_eq!(steps.buckets.iter().map(|b| b.count).sum::<u64>(), 2);
        for b in &steps.buckets {
            assert!(bucket_bounds().contains(&b.le));
        }
    }

    #[test]
    fn clones_share_one_registry() {
        let sink = TelemetrySink::enabled();
        let clone = sink.clone();
        sink.counter_add("guard.retries", 1);
        clone.counter_add("guard.retries", 4);
        assert_eq!(sink.snapshot().counter("guard.retries"), 5);
    }

    #[test]
    fn clones_share_registry_across_threads() {
        let sink = TelemetrySink::enabled();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let worker = sink.clone();
                scope.spawn(move || {
                    for _ in 0..100 {
                        worker.counter_add("t.n", 1);
                        worker.record("t.h", 7.0);
                    }
                });
            }
        });
        let snap = sink.snapshot();
        assert_eq!(snap.counter("t.n"), 400);
        assert_eq!(snap.get("t.h").unwrap().count, 400);
    }

    #[test]
    fn kind_mismatch_is_ignored_in_release() {
        // First writer wins the kind; a mismatched later op must not
        // corrupt the slot (debug builds assert instead).
        if cfg!(debug_assertions) {
            return;
        }
        let sink = TelemetrySink::enabled();
        sink.counter_add("x", 2);
        sink.record("x", 9.0);
        assert_eq!(sink.snapshot().counter("x"), 2);
    }

    #[test]
    fn phase_span_records_wall_time() {
        let sink = TelemetrySink::enabled();
        {
            let _span = sink.time_phase("train.phase.fit_ns");
            std::hint::black_box(0u64);
        }
        let snap = sink.snapshot();
        let span = snap.get("train.phase.fit_ns").unwrap();
        assert_eq!(span.count, 1);
        assert!(span.last >= 0.0);
    }

    #[test]
    fn snapshot_is_sorted_and_reports_families() {
        let sink = TelemetrySink::enabled();
        sink.counter_add("hw.wormholes", 1);
        sink.counter_add("anneal.runs", 1);
        sink.counter_add("guard.runs", 1);
        let snap = sink.snapshot();
        let names: Vec<&str> = snap.instruments.iter().map(|i| i.name.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        assert_eq!(snap.families(), vec!["anneal", "guard", "hw"]);
    }

    #[test]
    fn summary_table_lists_every_instrument() {
        let sink = TelemetrySink::enabled();
        sink.counter_add("anneal.runs", 7);
        sink.record("anneal.sim_time_ns", 420.0);
        let table = sink.snapshot().summary_table();
        assert!(table.contains("anneal.runs"));
        assert!(table.contains("anneal.sim_time_ns"));
        assert!(table.lines().count() >= 3);
    }

    #[test]
    fn quantile_estimates_track_bucket_bounds() {
        let sink = TelemetrySink::enabled();
        // 90 fast samples, 10 slow ones: p50 must sit in a low bucket,
        // p99 in a high one.
        for _ in 0..90 {
            sink.record("serve.latency_ns", 800.0);
        }
        for _ in 0..10 {
            sink.record("serve.latency_ns", 90_000.0);
        }
        let snap = sink.snapshot();
        let lat = snap.get("serve.latency_ns").unwrap();
        let p50 = lat.quantile(0.5);
        let p99 = lat.quantile(0.99);
        // 800 falls in the (500, 1000] bucket; 90_000 in (50_000, 100_000].
        assert_eq!(p50, 1000.0);
        assert_eq!(p99, 90_000.0); // le=1e5 bucket clamped to observed max
        assert!(p50 <= p99);
        // Extremes.
        assert_eq!(lat.quantile(0.0), 1000.0); // rank clamps to 1 → first bucket
        assert_eq!(lat.quantile(1.0), 90_000.0);

        // Overflow samples resolve to max.
        sink.record("serve.latency_ns", 1e15);
        let lat = sink.snapshot();
        let lat = lat.get("serve.latency_ns").unwrap();
        assert_eq!(lat.quantile(1.0), 1e15);

        // Empty and non-histogram instruments degrade gracefully.
        sink.counter_add("serve.requests", 5);
        let snap = sink.snapshot();
        assert_eq!(snap.get("serve.requests").unwrap().quantile(0.99), 5.0);
        let empty = InstrumentSnapshot {
            name: "x".into(),
            kind: "histogram".into(),
            count: 0,
            sum: 0.0,
            min: 0.0,
            max: 0.0,
            last: 0.0,
            buckets: Vec::new(),
            overflow: 0,
        };
        assert_eq!(empty.quantile(0.5), 0.0);
    }

    #[test]
    fn bucket_bounds_are_sorted_and_positive() {
        let bounds = bucket_bounds();
        assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        assert!(bounds[0] > 0.0);
        assert!(*bounds.last().unwrap() >= 1e12);
    }
}
