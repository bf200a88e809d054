//! In-memory spans recorded around each call into a layer.
//!
//! A span is a name, a start and end (nanoseconds since the tracer was
//! created), the span that caused it, and the id of the operation it
//! served. Spans stay in memory while the run executes and are written
//! out once it ends. A span's *self time* is its duration minus the
//! part of its interval that its direct children cover (overlapping
//! children count once; a child poking out of its parent is clipped).

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary the span wraps, e.g. `engine.search`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Operation id (index into the run's operation sequence; batch
    /// spans carry their first operation's id).
    pub op: u64,
}

/// Span recorder. A disabled tracer records nothing, so the untraced
/// and traced runs share one code path.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    enabled: bool,
}

/// The id a disabled tracer hands out.
const NO_SPAN: SpanId = SpanId::MAX;

impl Tracer {
    /// An empty recording tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            enabled: true,
        }
    }

    /// A tracer that records nothing.
    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::new()
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, op: u64) -> SpanId {
        if !self.enabled {
            return NO_SPAN;
        }
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`.
    pub fn end(&mut self, id: SpanId) {
        if id == NO_SPAN {
            return;
        }
        let end = self.now();
        self.spans[id].end = end;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, op);
        let out = f();
        self.end(id);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as tab-separated `id name start end parent op`
    /// lines (`-` for no parent).
    ///
    /// # Errors
    ///
    /// I/O errors creating or writing `path`.
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\top")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start, s.end, s.op
            )?;
        }
        out.flush()
    }
}

/// Self time of every span, index-aligned with `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            let duration = s.end.saturating_sub(s.start);
            duration - covered(s.start, s.end, kids)
        })
        .collect()
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
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

/// Totals of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed durations, nanoseconds.
    pub total_ns: u64,
    /// Summed self times, nanoseconds.
    pub self_ns: u64,
}

/// Per-name totals over the spans `keep` selects.
pub fn totals(spans: &[Span], keep: impl Fn(&Span) -> bool) -> BTreeMap<&'static str, Totals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        if !keep(s) {
            continue;
        }
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.end.saturating_sub(s.start);
        t.self_ns += own;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn nested_children_subtract_once_per_level() {
        // root [0,100) ⊃ child [10,60) ⊃ grandchild [20,30)
        let spans = [
            span("root", 0, 100, None),
            span("child", 10, 60, Some(0)),
            span("grand", 20, 30, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn overlapping_children_count_their_union() {
        // children [10,40) and [30,70) overlap on [30,40): union is 60.
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 70, Some(0)),
            span("c", 70, 80, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 70);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = [
            span("root", 10, 50, None),
            span("early", 0, 20, Some(0)),
            span("late", 40, 90, Some(0)),
            span("inner", 15, 45, Some(0)),
        ];
        // Union of clipped children covers [10,50) entirely.
        assert_eq!(self_times(&spans)[0], 0);
    }

    #[test]
    fn totals_group_by_name() {
        let spans = [
            span("batch", 0, 100, None),
            span("op", 0, 30, Some(0)),
            span("op", 50, 60, Some(0)),
        ];
        let t = totals(&spans, |_| true);
        assert_eq!(
            t["batch"],
            Totals {
                count: 1,
                total_ns: 100,
                self_ns: 60
            }
        );
        assert_eq!(t["op"].count, 2);
        assert_eq!(t["op"].self_ns, 40);
        let batches = totals(&spans, |s| s.name == "batch");
        assert_eq!(batches.len(), 1);
    }

    #[test]
    fn tracer_records_parent_links() {
        let mut tr = Tracer::new();
        let outer = tr.begin("outer", None, 7);
        let inner = tr.span("inner", Some(outer), 7, || 3);
        tr.end(outer);
        assert_eq!(inner, 3);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::disabled();
        let outer = tr.begin("outer", None, 0);
        tr.span("inner", Some(outer), 0, || ());
        tr.end(outer);
        assert!(tr.spans().is_empty());
    }
}
