//! In-memory spans recorded by the benchmark around its calls into each
//! layer, and the per-layer table built from them.
//!
//! A span is named `layer.operation` (`search.prove`, `store.load`); a
//! root span (no parent) is one unit of workload work — a kernel, a
//! request or an edit — and its name has no layer prefix. Spans of one
//! unit share a trace id. Nothing here reaches inside the program: spans
//! wrap public calls, and the driver's own `Instrument` stage events are
//! converted into `driver.*` spans after the fact.
//!
//! Self time is a span's duration minus the *union* of its children's
//! intervals (clipped to the span), because children may overlap: under
//! `jobs > 1` several property proofs run at once inside one kernel.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::Mutex;
use std::time::Instant;

use crate::stats;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within its tracer.
    pub id: u64,
    /// The span that caused this one; `None` for a root.
    pub parent: Option<u64>,
    /// Shared by every span of one kernel, request or edit.
    pub trace: u64,
    /// `layer.operation`, or a bare workload-unit name for a root.
    pub name: String,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer a span is charged to; roots belong to no layer.
    pub fn layer(&self) -> Option<&str> {
        self.name.split_once('.').map(|(layer, _)| layer)
    }
}

/// A span collector. When disabled every call is a no-op apart from the
/// wrapped work itself, so untraced runs pay nothing.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    next: std::sync::atomic::AtomicU64,
}

impl Tracer {
    /// A tracer that records only when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            next: std::sync::atomic::AtomicU64::new(1),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Nanoseconds from the epoch to `t` (0 for instants before it).
    pub fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// A fresh span id (also usable as a trace id).
    pub fn fresh_id(&self) -> u64 {
        self.next.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    }

    /// Records a finished interval and returns its id (0 when off).
    pub fn record(
        &self,
        name: &str,
        trace: u64,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.on {
            return 0;
        }
        let id = self.fresh_id();
        self.push(Span {
            id,
            parent,
            trace,
            name: name.to_owned(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        id
    }

    /// Records a span whose id was reserved earlier with [`Tracer::fresh_id`]
    /// (a parent opened before its children finish).
    pub fn push(&self, span: Span) {
        if self.on {
            self.spans.lock().expect("span log poisoned").push(span);
        }
    }

    /// Times `f` as a span named `name`.
    pub fn time<R>(&self, name: &str, trace: u64, parent: Option<u64>, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let r = f();
        self.record(name, trace, parent, start, Instant::now());
        r
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log poisoned").clone()
    }

    /// Writes every span as one JSON object per line to `path`, best
    /// effort: a failure is reported on stderr, not fatal.
    pub fn save(&self, path: &std::path::Path) {
        if let Err(e) = self.write_jsonl(path) {
            eprintln!("reflex-perfbench: writing {}: {e}", path.display());
        }
    }

    fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                r#"{{"id":{},"parent":{},"trace":{},"name":"{}","start_ns":{},"end_ns":{}}}"#,
                s.id,
                s.parent.map_or("null".to_owned(), |p| p.to_string()),
                s.trace,
                s.name,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// `dur(span) - |union of children ∩ span|`, in nanoseconds.
pub fn self_time_ns(span: &Span, children: &[&Span]) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    iv.sort_unstable();
    let mut covered = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    span.dur_ns().saturating_sub(covered)
}

/// Self time of every span, by span id.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut kids: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            kids.entry(p).or_default().push(s);
        }
    }
    spans
        .iter()
        .map(|s| {
            let children = kids.get(&s.id).map_or(&[][..], Vec::as_slice);
            (s.id, self_time_ns(s, children))
        })
        .collect()
}

/// Groups spans by the name of their trace's root span (spans of traces
/// without a root are dropped).
pub fn by_root(spans: &[Span]) -> BTreeMap<String, Vec<Span>> {
    let roots: BTreeMap<u64, &str> = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| (s.trace, s.name.as_str()))
        .collect();
    let mut out: BTreeMap<String, Vec<Span>> = BTreeMap::new();
    for s in spans {
        if let Some(root) = roots.get(&s.trace) {
            out.entry((*root).to_owned()).or_default().push(s.clone());
        }
    }
    out
}

/// Durations of every span called `name`, ms.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect()
}

/// Median duration of the spans called `name`, ms (0 if none).
pub fn p50_ms(spans: &[Span], name: &str) -> f64 {
    stats::median(&durations_ms(spans, name)).unwrap_or(0.0)
}

/// Self time of every root span, ms: the work no layer span covers.
pub fn root_self_ms(spans: &[Span]) -> Vec<f64> {
    let selfs = self_times(spans);
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| selfs[&s.id] as f64 / 1e6)
        .collect()
}

/// One row of a layer table.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRow {
    /// Layer name, or `unattributed` for root self time.
    pub layer: String,
    /// Spans charged to the layer.
    pub count: usize,
    /// Median self time of one span, ms.
    pub p50_ms: f64,
    /// Summed self time, ms.
    pub total_ms: f64,
}

/// Per-layer self-time table. Root self time (work no layer span covers)
/// becomes the `unattributed` row. Without parallel siblings the rows sum
/// to the roots' total duration; siblings that run at once each keep
/// their own self time, so layer rows then count busy time per worker
/// while the root's remainder still counts wall time once.
pub fn layer_table(spans: &[Span]) -> Vec<LayerRow> {
    let selfs = self_times(spans);
    let mut by_layer: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for s in spans {
        let key = s.layer().unwrap_or("unattributed").to_owned();
        by_layer
            .entry(key)
            .or_default()
            .push(selfs[&s.id] as f64 / 1e6);
    }
    let mut rows: Vec<LayerRow> = by_layer
        .into_iter()
        .map(|(layer, v)| LayerRow {
            count: v.len(),
            p50_ms: stats::median(&v).unwrap_or(0.0),
            total_ms: v.iter().sum(),
            layer,
        })
        .collect();
    // `unattributed` last, like a remainder row.
    rows.sort_by_key(|r| r.layer == "unattributed");
    rows
}

/// Renders a layer table with each row's share of the root total.
pub fn render_table(title: &str, rows: &[LayerRow]) -> String {
    use std::fmt::Write as _;
    let total: f64 = rows.iter().map(|r| r.total_ms).sum();
    let mut s = format!(
        "{title}\n  {:<14} {:>8} {:>11} {:>12} {:>7}\n",
        "layer", "count", "p50 ms", "self ms", "share"
    );
    for r in rows {
        let share = if total > 0.0 {
            100.0 * r.total_ms / total
        } else {
            0.0
        };
        let _ = writeln!(
            s,
            "  {:<14} {:>8} {:>11.4} {:>12.2} {:>6.1}%",
            r.layer, r.count, r.p50_ms, r.total_ms, share
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            trace: 1,
            name: name.to_owned(),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // Parent 0..100; children 10..50 and 30..70 overlap on 30..50,
        // and 90..120 sticks out past the parent's end.
        let spans = vec![
            span(1, None, "kernel", 0, 100),
            span(2, Some(1), "search.prove", 10, 50),
            span(3, Some(1), "search.prove", 30, 70),
            span(4, Some(1), "checker.check", 90, 120),
        ];
        let selfs = self_times(&spans);
        // Covered: 10..70 (60) + 90..100 (10) = 70, not 40+40+10 = 90.
        assert_eq!(selfs[&1], 30);
        assert_eq!(selfs[&2], 40);
        assert_eq!(selfs[&4], 30);
    }

    #[test]
    fn nested_and_identical_children_are_counted_once() {
        let parent = span(1, None, "request", 0, 1000);
        let a = span(2, Some(1), "x.a", 100, 400);
        let b = span(3, Some(1), "x.b", 100, 400);
        let c = span(4, Some(1), "x.c", 200, 300);
        assert_eq!(self_time_ns(&parent, &[&a, &b, &c]), 700);
        assert_eq!(self_time_ns(&parent, &[]), 1000);
    }

    #[test]
    fn layer_table_charges_roots_once_and_parallel_work_per_worker() {
        let spans = vec![
            span(1, None, "kernel", 0, 100),
            span(2, Some(1), "search.prove", 10, 50),
            span(3, Some(1), "search.prove", 30, 70),
            span(5, Some(2), "symbolic.solve", 20, 30),
        ];
        let rows = layer_table(&spans);
        let total: f64 = rows.iter().map(|r| r.total_ms).sum();
        // Root 40 (children cover 10..70) + search 30 + 40 + symbolic 10:
        // the two proofs overlap on 30..50, which both workers were busy.
        assert!((total - 120.0 / 1e6).abs() < 1e-12, "{rows:?}");
        let last = rows.last().unwrap();
        assert_eq!(last.layer, "unattributed");
        assert!((last.total_ms - 40.0 / 1e6).abs() < 1e-12);
        let search = rows.iter().find(|r| r.layer == "search").unwrap();
        assert_eq!(search.count, 2);
        // 30 (first, minus its 10 ns symbolic child) + 40.
        assert!((search.total_ms - 70.0 / 1e6).abs() < 1e-12);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.time("x.y", 1, None, || 7), 7);
        assert!(t.spans().is_empty());
    }
}
