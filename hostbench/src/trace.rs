//! Host-time spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name (`layer.operation`), a start, an end and the span that
//! was open when it began. Spans live in memory until the run reports
//! them. A disabled tracer records nothing and reads no clock, so the
//! untraced run that gives the end-to-end metrics pays only a branch per
//! call.

use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::enter`]; passed back to [`Tracer::exit`].
#[must_use = "a span must be closed with Tracer::exit"]
#[derive(Debug)]
pub struct Open(Option<usize>);

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes `open`, which must be the innermost open span.
    pub fn exit(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Each span's self time: its duration minus the time its direct children
/// cover. Children of one span run one after another on one thread, so
/// their durations do not overlap.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            child_ns[p] += span.duration_ns();
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(s, c)| {
            s.duration_ns()
                .checked_sub(c)
                .expect("children lie inside their parent")
        })
        .collect()
}

/// Summed duration per span name.
pub fn total_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_insert(0) += s.duration_ns();
    }
    out
}

/// Summed self time per layer, the part of a span name before the first
/// `.`.
pub fn self_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let layer = s.name.split('.').next().unwrap_or(s.name);
        *out.entry(layer).or_insert(0) += self_ns;
    }
    out
}

/// Durations of every span called `name`, in recording order.
pub fn durations_of(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_ns)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(n: u64) -> u64 {
        (0..n).fold(0u64, |a, b| std::hint::black_box(a.wrapping_add(b)))
    }

    fn sample_trace() -> Tracer {
        let mut t = Tracer::new(true);
        let root = t.enter("bench.pass");
        for _ in 0..3 {
            let run = t.enter("system.run");
            t.span("flashvisor.read", || busy(2_000));
            busy(1_000);
            t.span("storengine.gc", || busy(700));
            t.exit(run);
        }
        t.span("workloads.build", || busy(500));
        t.exit(root);
        t
    }

    #[test]
    fn spans_nest_inside_their_parents() {
        let t = sample_trace();
        let spans = t.spans();
        assert_eq!(spans.len(), 11);
        assert_eq!(spans[0].parent, None);
        for s in &spans[1..] {
            let p = &spans[s.parent.expect("only the root has no parent")];
            assert!(
                p.start_ns <= s.start_ns && s.end_ns <= p.end_ns,
                "{s:?} in {p:?}"
            );
        }
    }

    #[test]
    fn self_times_sum_to_the_root_span() {
        let t = sample_trace();
        let spans = t.spans();
        let selfs = self_times(spans);
        assert_eq!(selfs.iter().sum::<u64>(), spans[0].duration_ns());
        let by_layer: u64 = self_by_layer(spans).values().sum();
        assert_eq!(by_layer, spans[0].duration_ns());
    }

    #[test]
    fn self_time_is_never_negative_and_at_most_the_duration() {
        let t = sample_trace();
        for (s, own) in t.spans().iter().zip(self_times(t.spans())) {
            assert!(own <= s.duration_ns());
        }
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let open = t.enter("system.run");
        t.span("flashvisor.read", || busy(10));
        t.exit(open);
        assert!(t.spans().is_empty());
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_panics() {
        let mut t = Tracer::new(true);
        let a = t.enter("a.x");
        let _b = t.enter("b.x");
        t.exit(a);
    }

    #[test]
    fn totals_group_by_name() {
        let t = sample_trace();
        assert_eq!(durations_of(t.spans(), "system.run").len(), 3);
        let totals = total_by_name(t.spans());
        assert_eq!(totals.len(), 5);
        assert!(totals["system.run"] >= totals["flashvisor.read"]);
    }
}
