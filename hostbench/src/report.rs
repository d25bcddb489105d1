//! Metric names, sample statistics and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A metric name with its unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// End-to-end metrics of the untraced run: every workload reports each.
pub const END_TO_END: [MetricDef; 4] = [
    m("wall_s", "s"),
    m("setup_s", "s"),
    m("ns_per_flash_cmd", "ns"),
    m("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run. A layer the workload never
/// reaches reports 0.
pub const PER_LAYER: [MetricDef; 42] = [
    m("workloads.build_s", "s"),
    m("system.new_s", "s"),
    m("system.runs", "count"),
    m("baseline.run_s", "s"),
    m("scheduler.decisions", "count"),
    m("scheduler.ns_per_decision", "ns"),
    m("flashvisor.group_reads", "count"),
    m("flashvisor.group_writes", "count"),
    m("flashvisor.read_ns_per_group", "ns"),
    m("flashvisor.write_ns_per_group", "ns"),
    m("flashvisor.mapping_lookups", "count"),
    m("rangelock.map_ns_per_call", "ns"),
    m("rangelock.lock_denials", "count"),
    m("freespace.allocations", "count"),
    m("freespace.free_fraction_end", "fraction"),
    m("storengine.gc_passes", "count"),
    m("storengine.gc_ns_p50", "ns"),
    m("storengine.gc_ns_p99", "ns"),
    m("storengine.pages_migrated", "count"),
    m("storengine.erases", "count"),
    m("storengine.migrated_per_reclaimed", "ratio"),
    m("storengine.journal_dumps", "count"),
    m("backbone.reads", "count"),
    m("backbone.programs", "count"),
    m("backbone.erases", "count"),
    m("backbone.read_ns_per_cmd", "ns"),
    m("backbone.program_ns_per_cmd", "ns"),
    m("backbone.peak_channel_tags", "count"),
    m("sharded.windows", "count"),
    m("sharded.read_fallbacks", "count"),
    m("sharded.write_fallbacks", "count"),
    m("sharded.serial_vs_lane_ns_per_cmd", "ratio"),
    m("openloop.arrivals", "count"),
    m("openloop.admitted", "count"),
    m("openloop.queued", "count"),
    m("openloop.shed", "count"),
    m("openloop.admission_ns_per_decision", "ns"),
    m("openloop.governor_ticks", "count"),
    m("openloop.rebalance_ns_per_tick", "ns"),
    m("openloop.owners_touched", "count"),
    m("openloop.governor_s", "s"),
    m("trace.overhead_s", "s"),
];

#[cfg(test)]
/// Whether `name` is a valid metric or workload name: a letter or digit
/// first, then at most 64 letters, digits, `_`, `.` and `-` in all.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
/// Whether `unit` is a valid unit: at most 16 letters, digits, `_`, `/`,
/// `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Median of `values` (mean of the middle two for an even count); 0 for
/// none.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank `q`-quantile of `values`; 0 for none.
pub fn quantile(values: &[u64], q: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    let mut v = values.to_vec();
    v.sort_unstable();
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One printed reading: a metric with its unit and sample count.
#[derive(Debug, Clone, PartialEq)]
pub struct Reading {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
}

impl Reading {
    pub fn new(def: MetricDef, value: f64, samples: usize) -> Self {
        Reading {
            name: def.name,
            unit: def.unit,
            value,
            samples,
        }
    }

    pub fn line(&self) -> String {
        format!(
            "metric {:<36} {:>18.6} {:<8} n={}",
            self.name, self.value, self.unit, self.samples
        )
    }
}

/// The last line of the benchmark's output.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The metrics of the run's mode, in registry order.
    pub metrics: Vec<Reading>,
}

impl Outcome {
    /// Picks the metrics of `defs` from `values`, in registry order. A
    /// name missing from `values` reads 0.
    pub fn select(defs: &[MetricDef], values: &BTreeMap<&'static str, f64>) -> Vec<Reading> {
        defs.iter()
            .map(|d| Reading::new(*d, values.get(d.name).copied().unwrap_or(0.0), 1))
            .collect()
    }

    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, r) in self.metrics.iter().enumerate() {
            let value = if r.value.is_finite() { r.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                r.name, r.unit
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_and_units_are_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(d.name), "{}", d.name);
            assert!(valid_unit(d.unit), "{} unit {}", d.name, d.unit);
            assert!(seen.insert(d.name), "{} listed twice", d.name);
        }
        assert!(!valid_name("_x"));
        assert!(!valid_name("a b"));
        assert!(!valid_unit("µs"));
    }

    #[test]
    fn benchmark_manifest_lists_exactly_the_registry() {
        let manifest = include_str!("../../BENCHMARK.json");
        for d in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", d.name, d.unit);
            assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in crate::WORKLOADS {
            assert!(manifest.contains(&format!("\"name\": \"{w}\"")), "{w}");
        }
        let names = manifest.matches("\"name\":").count();
        assert_eq!(
            names,
            END_TO_END.len() + PER_LAYER.len() + crate::WORKLOADS.len()
        );
    }

    #[test]
    fn quantiles_use_the_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), 50);
        assert_eq!(quantile(&v, 0.99), 99);
        assert_eq!(quantile(&v, 1.0), 100);
        assert_eq!(quantile(&[], 0.5), 0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn the_result_line_is_one_json_object() {
        let o = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![
                Reading::new(END_TO_END[0], 1.25, 4),
                Reading::new(END_TO_END[1], 0.001, 5),
            ],
        };
        assert_eq!(
            o.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"setup_s\": {\"value\": 0.001, \"unit\": \"s\"}}}"
        );
    }
}
