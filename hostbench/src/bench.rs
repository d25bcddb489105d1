//! The measuring loop shared by every workload.
//!
//! A run builds the workload's inputs several times (`setup_s` is the
//! median), runs one reference pass whose simulated results every later
//! pass must repeat exactly, then runs timed passes until the requested
//! seconds are spent. Passes are closed loops on one thread: the next
//! simulation call starts only when the previous one returns.
//!
//! Per-pass times are pooled over the timed phase (its seconds divided by
//! its passes, or by the work they did) rather than taken as a median of
//! passes: on a shared host, pass times shift between speed regimes that
//! last seconds, and the pooled figure weighs each regime by its duration
//! where a median picks one. That halves the spread between runs.
//!
//! A traced run alternates untraced and traced passes, so the tracing
//! overhead is the difference of their mean times, and then asks the
//! workload for its per-layer metrics.

use crate::replay;
use crate::report::{median, quantile, ratio, MetricDef, Outcome, Reading, END_TO_END, PER_LAYER};

/// Timed seconds of `passes` per unit of the work `units` counts in each.
pub fn seconds_per(passes: &[(f64, Pass)], units: impl Fn(&Pass) -> u64) -> f64 {
    let seconds: f64 = passes.iter().map(|(w, _)| w).sum();
    ratio(
        seconds,
        passes.iter().map(|(_, p)| units(p)).sum::<u64>() as f64,
    )
}
use crate::trace::{self, Span, Tracer};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Per-layer values keyed by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Everything one pass produced.
#[derive(Debug, Default, Clone)]
pub struct Pass {
    /// Digest of the pass's simulated results: equal on every pass.
    pub digest: u64,
    /// One digest per operation (simulation call), in call order.
    pub op_digests: Vec<u64>,
    /// Host time of each operation, nanoseconds.
    pub op_ns: Vec<u64>,
    /// Operations that returned an error, panicked or broke a
    /// conservation law.
    pub failed: u64,
    /// Simulated backbone reads + programs + erases.
    pub flash_cmds: u64,
    /// Screens dispatched (0 where the workload runs no kernels).
    pub screens: u64,
    /// Tenants completed (open-loop campaigns only).
    pub tenants: u64,
    /// Host time of each FlashAbacus (mix, scheduler) run, nanoseconds
    /// (the heterogeneous campaign only).
    pub run_ns: Vec<u64>,
    /// Per-layer counts read from the simulation's own statistics.
    pub counts: Layers,
}

/// What a traced run hands a workload for its per-layer metrics.
pub struct TracedPass<'a> {
    pub pass: &'a Pass,
    pub spans: &'a [Span],
    /// Mean host seconds of the untraced passes of the same run.
    pub untraced_wall_s: f64,
}

pub trait Workload {
    /// Builds the inputs from `seed`; the benchmark times this as setup.
    fn setup(&mut self, seed: u64);
    /// One pass over the inputs: the timed unit.
    fn pass(&mut self, tracer: &mut Tracer) -> Pass;
    /// Workload-specific readings printed beside the common ones.
    fn readings(&self, passes: &[(f64, Pass)]) -> Vec<Reading>;
    /// Per-layer metrics from a traced pass and replays of its layers;
    /// returns lines to print beside them.
    fn layers(&mut self, traced: &TracedPass<'_>, out: &mut Layers) -> Vec<String>;
}

/// Readings printed beside the end-to-end metrics but left out of the
/// result line: `fail_rate` travels there as `failed` and `attempted`, and
/// a median over one workload's mixed operations jumps between runs of
/// different mixes.
const FAIL_RATE: MetricDef = MetricDef {
    name: "fail_rate",
    unit: "fraction",
};
const OP_US_P50: MetricDef = MetricDef {
    name: "op_us_p50",
    unit: "us",
};

/// Result of one benchmark invocation: the lines to print and the final
/// outcome.
pub struct RunResult {
    pub lines: Vec<String>,
    pub outcome: Outcome,
}

/// Runs `f`, turning a panic into `None`.
pub fn guarded<R>(f: impl FnOnce() -> R) -> Option<R> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

/// Times `setup` at least five times and for at least a quarter second,
/// and returns the median in seconds with the sample count.
fn time_setup(w: &mut dyn Workload, seed: u64) -> (f64, usize) {
    let mut samples = Vec::new();
    let started = Instant::now();
    while samples.len() < 5 || (started.elapsed().as_secs_f64() < 0.25 && samples.len() < 200) {
        let t = Instant::now();
        w.setup(seed);
        samples.push(t.elapsed().as_secs_f64());
    }
    (median(&samples), samples.len())
}

/// Operations of `pass` whose results differ from `reference`.
fn mismatches(reference: &Pass, pass: &Pass) -> u64 {
    if reference.op_digests.len() != pass.op_digests.len() {
        return pass.op_digests.len().max(1) as u64;
    }
    let ops = reference
        .op_digests
        .iter()
        .zip(&pass.op_digests)
        .filter(|(a, b)| a != b)
        .count() as u64;
    // A pass whose final state differs although every operation matched
    // still counts one failure.
    ops.max(u64::from(reference.digest != pass.digest))
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs workload `w` for `seconds` and returns its report.
pub fn run(name: &str, w: &mut dyn Workload, seed: u64, seconds: f64, traced: bool) -> RunResult {
    let mut lines = Vec::new();
    let (setup_s, setup_n) = time_setup(w, seed);

    let mut off = Tracer::new(false);
    let reference = w.pass(&mut off);
    let mut attempted = reference.op_digests.len() as u64;
    let mut failed = reference.failed;
    lines.push(format!("digest {name} {:016x}", reference.digest));
    // Read before the timed passes, whose kept samples would add the
    // benchmark's own bookkeeping.
    let peak_rss_mb = peak_rss_mb();

    let mut untraced: Vec<(f64, Pass)> = Vec::new();
    let mut traced_walls: Vec<f64> = Vec::new();
    let mut last_traced: Option<(Pass, Vec<Span>)> = None;
    let started = Instant::now();
    while untraced.is_empty() || started.elapsed().as_secs_f64() < seconds {
        let mut tracers = vec![Tracer::new(false)];
        if traced {
            tracers.push(Tracer::new(true));
        }
        for mut tracer in tracers {
            let root = tracer.enter("bench.pass");
            let t = Instant::now();
            let pass = w.pass(&mut tracer);
            let wall = t.elapsed().as_secs_f64();
            tracer.exit(root);
            attempted += pass.op_digests.len() as u64;
            failed += pass.failed + mismatches(&reference, &pass);
            if tracer.enabled() {
                traced_walls.push(wall);
                last_traced = Some((pass, tracer.spans().to_vec()));
            } else {
                untraced.push((wall, pass));
            }
        }
    }

    let walls: Vec<f64> = untraced.iter().map(|(w, _)| *w).collect();
    let listed: Vec<String> = walls.iter().map(|w| format!("{w:.4}")).collect();
    lines.push(format!("passes wall_s {}", listed.join(" ")));
    let wall_s = seconds_per(&untraced, |_| 1);
    let op_ns: Vec<u64> = untraced
        .iter()
        .flat_map(|(_, p)| p.op_ns.iter().copied())
        .collect();
    let [wall_d, setup_d, cmd_d, rss_d] = END_TO_END;
    let mut readings = vec![
        Reading::new(wall_d, wall_s, walls.len()),
        Reading::new(setup_d, setup_s, setup_n),
        Reading::new(
            cmd_d,
            seconds_per(&untraced, |p| p.flash_cmds) * 1e9,
            walls.len(),
        ),
        Reading::new(rss_d, peak_rss_mb, 1),
    ];
    let end_to_end = readings.clone();
    readings.push(Reading::new(
        OP_US_P50,
        quantile(&op_ns, 0.5) as f64 / 1e3,
        op_ns.len(),
    ));
    readings.push(Reading::new(
        FAIL_RATE,
        ratio(failed as f64, attempted as f64),
        attempted as usize,
    ));
    readings.extend(w.readings(&untraced));
    lines.extend(readings.iter().map(Reading::line));

    let metrics = if let Some((pass, spans)) = last_traced {
        let mut layers = Layers::new();
        let mut build = Tracer::new(true);
        build.span("workloads.build", || w.setup(seed));
        layers.insert(
            "workloads.build_s",
            build.spans()[0].duration_ns() as f64 / 1e9,
        );
        let traced_wall_s = traced_walls.iter().sum::<f64>() / traced_walls.len() as f64;
        layers.insert("trace.overhead_s", traced_wall_s - wall_s);
        replay::backbone_sweeps(&mut layers);
        let notes = w.layers(
            &TracedPass {
                pass: &pass,
                spans: &spans,
                untraced_wall_s: wall_s,
            },
            &mut layers,
        );
        layers.extend(pass.counts.iter().map(|(k, v)| (*k, *v)));
        lines.extend(self_time_lines(&spans));
        lines.extend(notes);
        let selected = Outcome::select(&PER_LAYER, &layers);
        lines.extend(selected.iter().map(Reading::line));
        debug_assert!(
            layers
                .keys()
                .all(|k| PER_LAYER.iter().any(|d| d.name == *k)),
            "a layer metric outside the registry: {:?}",
            layers.keys().collect::<Vec<_>>()
        );
        selected
    } else {
        end_to_end
    };
    RunResult {
        lines,
        outcome: Outcome {
            correct: failed == 0,
            attempted,
            failed,
            metrics,
        },
    }
}

/// Self time per layer of the traced pass, as a share of the pass.
fn self_time_lines(spans: &[Span]) -> Vec<String> {
    let root_ns = spans.first().map_or(0, Span::duration_ns);
    trace::self_by_layer(spans)
        .into_iter()
        .map(|(layer, ns)| {
            format!(
                "self {layer:<12} {:>12.6} s {:>6.1}%",
                ns as f64 / 1e9,
                100.0 * ratio(ns as f64, root_ns as f64)
            )
        })
        .collect()
}
