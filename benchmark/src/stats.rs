//! Order statistics, process counters and span folding shared by every
//! workload.

use dsgl_core::SpanRecord;
use std::collections::HashMap;

/// Exact quantile of `values` by the nearest-rank rule (sorts a copy).
/// Empty input gives 0.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median by the nearest-rank rule.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Arithmetic mean; empty input gives 0.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `numerator / denominator`, 0 when the denominator is 0.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Total length of the union of `intervals`, each clipped to `[lo, hi)`.
pub fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(cursor);
        let end = end.min(hi);
        if end > start {
            total += end - start;
            cursor = end;
        }
    }
    total
}

/// A span tree indexed for self-time queries.
pub struct SpanTree<'a> {
    spans: &'a [SpanRecord],
    children: HashMap<u64, Vec<usize>>,
}

impl<'a> SpanTree<'a> {
    /// Indexes `spans` by parent id.
    pub fn new(spans: &'a [SpanRecord]) -> Self {
        let mut children: HashMap<u64, Vec<usize>> = HashMap::new();
        for (i, span) in spans.iter().enumerate() {
            if span.parent_id != 0 {
                children.entry(span.parent_id).or_default().push(i);
            }
        }
        SpanTree { spans, children }
    }

    /// Every span named `name`.
    pub fn named(&self, name: &str) -> impl Iterator<Item = &'a SpanRecord> + '_ {
        let name = name.to_owned();
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// The direct children of `span` whose name passes `keep`.
    pub fn children_of(
        &self,
        span: &SpanRecord,
        keep: impl Fn(&str) -> bool,
    ) -> Vec<&'a SpanRecord> {
        self.children
            .get(&span.span_id)
            .map(|ids| {
                ids.iter()
                    .map(|&i| &self.spans[i])
                    .filter(|c| keep(&c.name))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Nanoseconds of `span` covered by the union of `others`.
    pub fn covered_by(span: &SpanRecord, others: &[&SpanRecord]) -> u64 {
        let mut intervals: Vec<(u64, u64)> = others
            .iter()
            .map(|o| (o.start_ns, o.start_ns + o.duration_ns))
            .collect();
        covered(
            &mut intervals,
            span.start_ns,
            span.start_ns + span.duration_ns,
        )
    }
}

/// Value of a numeric span annotation, 0 when absent.
pub fn arg(span: &SpanRecord, key: &str) -> f64 {
    span.args
        .iter()
        .find(|a| a.key == key)
        .map_or(0.0, |a| a.value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.95), 95.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn union_of_overlapping_intervals() {
        let mut v = vec![(0, 10), (5, 15), (20, 30)];
        assert_eq!(covered(&mut v, 0, 100), 25);
        assert_eq!(covered(&mut v, 8, 22), 9);
    }
}
