//! In-memory span recorder and the order statistics the ledger reports.
//!
//! A [`Tracer`] records one span per call into a layer: name, start, end,
//! parent span and op id. Spans stay in memory until the run ends, when
//! [`Tracer::write_jsonl`] writes them out. A span's *self time* is its
//! duration minus the part of it that its child spans cover, so the self
//! times of an op's spans sum exactly to the op's duration.
//!
//! A disabled tracer records only op root spans. [`Paired`] runs every
//! traced op twice, back to back, under a disabled and an enabled tracer:
//! the same code with the same per-op clock reads, so the ratio of the two
//! is the tracer's overhead.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u32,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span recorder. Single-threaded: spans nest through an explicit
/// stack, so a span's parent is whatever span was open when it began.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, epoch: Instant::now(), spans: Vec::new(), stack: Vec::new(), op: 0 }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        id
    }

    fn close(&mut self, id: usize) {
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(id), "spans close in reverse order of opening");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs op number `op` under a root span named `op`. Recorded whether
    /// or not the tracer is enabled.
    pub fn op<T>(&mut self, op: u32, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.op = op;
        let id = self.open("op");
        let out = f(self);
        self.close(id);
        out
    }

    /// Runs `f` under a child span named `name` (a no-op wrapper when the
    /// tracer is disabled).
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.open(name);
        let out = f(self);
        self.close(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of the root (op) spans in ms, in op order.
    pub fn op_ms(&self) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| ns_to_ms(s.duration_ns()))
            .collect()
    }

    /// Self time of every span, in ns, indexed like [`Tracer::spans`].
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| s.duration_ns() - covered_ns(kids))
            .collect()
    }

    /// Per-op totals of self time by span name: `op → name → ns`.
    pub fn self_by_op(&self) -> BTreeMap<u32, BTreeMap<&'static str, u64>> {
        let mut out: BTreeMap<u32, BTreeMap<&'static str, u64>> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            *out.entry(s.op).or_default().entry(s.name).or_default() += own;
        }
        out
    }

    /// Checks that every op's self times sum exactly to its root span's
    /// duration; returns the first op where they do not.
    pub fn check_self_sums(&self) -> Result<(), String> {
        let own = self.self_ns();
        let mut sums: BTreeMap<u32, u64> = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(&own) {
            *sums.entry(s.op).or_default() += ns;
        }
        for root in self.spans.iter().filter(|s| s.parent.is_none()) {
            let sum = sums.get(&root.op).copied().unwrap_or(0);
            if sum != root.duration_ns() {
                return Err(format!(
                    "op {}: stage self times sum to {sum} ns but the op took {} ns",
                    root.op,
                    root.duration_ns()
                ));
            }
        }
        Ok(())
    }

    /// Writes every span as one JSON object per line, after `header`.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> std::io::Result<()> {
        let own = self.self_ns();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for (id, (s, self_ns)) in self.spans.iter().zip(own).enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id":{id},"name":"{}","op":{},"parent":{parent},"start_ns":{},"end_ns":{},"self_ns":{self_ns}}}"#,
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// A disabled and an enabled tracer run over the same ops, op by op. Each
/// pair runs back to back, so the ratio of their op times — the tracer's
/// overhead — is not skewed by the machine's speed drifting between two
/// long passes.
pub struct Paired {
    pub plain: Tracer,
    pub traced: Tracer,
}

impl Paired {
    pub fn new() -> Self {
        Paired { plain: Tracer::new(false), traced: Tracer::new(true) }
    }

    /// Runs op `op` untraced, then traced; `f` learns which run it is in.
    /// Returns the traced run's result.
    pub fn run<T>(&mut self, op: u32, mut f: impl FnMut(&mut Tracer, bool) -> T) -> T {
        self.plain.op(op, |t| f(t, false));
        self.traced.op(op, |t| f(t, true))
    }

    /// Median traced op time over median untraced op time.
    pub fn overhead(&self) -> f64 {
        median(&self.traced.op_ms()) / median(&self.plain.op_ms())
    }
}

/// Length of the union of `intervals` (sorted in place).
fn covered_ns(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = 0;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

pub fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// The `q`-quantile (nearest rank) of `values`; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Median over ops of the per-op self time (ms) of the stage `name`,
/// summed within each op. Ops with no such span count as 0.
pub fn stage_median_ms(per_op: &BTreeMap<u32, BTreeMap<&'static str, u64>>, name: &str) -> f64 {
    let values: Vec<f64> =
        per_op.values().map(|stages| ns_to_ms(stages.get(name).copied().unwrap_or(0))).collect();
    median(&values)
}

/// Every span's duration in ms for spans named `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(|s| ns_to_ms(s.duration_ns())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_of_overlapping_and_disjoint_intervals() {
        assert_eq!(covered_ns(&mut [(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(covered_ns(&mut [(3, 4), (0, 10)]), 10);
        assert_eq!(covered_ns(&mut []), 0);
    }

    #[test]
    fn self_times_sum_to_the_op() {
        let mut t = Tracer::new(true);
        t.op(0, |t| {
            t.span("a", |t| t.span("a.inner", |_| std::hint::black_box(1)));
            t.span("b", |_| ());
        });
        t.check_self_sums().unwrap();
        assert_eq!(t.spans().len(), 4);
        assert_eq!(t.spans()[2].parent, Some(1));
    }

    #[test]
    fn disabled_tracer_records_only_ops() {
        let mut t = Tracer::new(false);
        t.op(7, |t| t.span("a", |_| ()));
        assert_eq!(t.spans().len(), 1);
        assert_eq!(t.op_ms().len(), 1);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(quantile(&[], 0.9), 0.0);
    }
}
