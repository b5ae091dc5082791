//! The traced run's span recorder.
//!
//! Spans are recorded by the benchmark around its calls into each layer,
//! kept in memory, and written once at the end as a Chrome trace. Every
//! span of one frame carries that frame's display index as its
//! identifier; `parent` links a span to the one that caused it.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `morton.sort`.
    pub name: &'static str,
    /// Display index of the frame the span worked on.
    pub frame: u32,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Start, in ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, in ns since the tracer's epoch (equal to start while open).
    pub end_ns: u64,
    /// Work items the call processed (points, bytes, blocks; 0 if none).
    pub items: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span store.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span starting now; close it with [`close`](Self::close).
    pub fn open(&mut self, name: &'static str, frame: u32, parent: Option<SpanId>) -> SpanId {
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            frame,
            parent,
            start_ns: now,
            end_ns: now,
            items: 0,
        });
        self.spans.len() - 1
    }

    /// Ends span `id` now.
    pub fn close(&mut self, id: SpanId) {
        let now = self.ns(Instant::now());
        if let Some(span) = self.spans.get_mut(id) {
            span.end_ns = now;
        }
    }

    /// Records a finished call that ran from `start` to `end`.
    pub fn record(
        &mut self,
        name: &'static str,
        frame: u32,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
        items: u64,
    ) -> SpanId {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            frame,
            parent,
            start_ns,
            end_ns,
            items,
        });
        self.spans.len() - 1
    }

    /// Times `f` as a child of `parent`, recording `items` work items.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        frame: u32,
        parent: Option<SpanId>,
        items: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, frame, parent, start, end, items);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Heap bytes the store holds (subtracted from heap-growth figures).
    pub fn heap_bytes(&self) -> usize {
        self.spans.capacity() * std::mem::size_of::<Span>()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children's intervals cover (overlapping children count once;
/// a child's time outside its parent is not subtracted).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(kids) = span.parent.and_then(|p| children.get_mut(p)) {
            kids.push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = span.start_ns;
            for &(s, e) in kids.iter() {
                let (s, e) = (s.max(cursor), e.min(span.end_ns));
                if e > s {
                    covered += e - s;
                    cursor = e;
                }
            }
            span.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Renders spans as a Chrome Trace Event document (`chrome://tracing`,
/// Perfetto), the format `pcc_edge::trace::to_chrome_trace` uses for
/// modeled timelines: complete (`"ph":"X"`) events with microsecond
/// timestamps, the frame index and parent in `args`.
pub fn to_chrome_trace(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, span) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = span.parent.map_or(-1, |p| p as i64);
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"measured\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"frame\":{},\"span\":{i},\"parent\":{parent},\
             \"items\":{}}}}}",
            span.name,
            span.start_ns as f64 / 1e3,
            span.dur_ns() as f64 / 1e3,
            span.frame,
            span.items,
        );
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "s",
            frame: 0,
            parent,
            start_ns,
            end_ns,
            items: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_child_intervals() {
        let spans = vec![
            span(None, 0, 100),     // 0: root
            span(Some(0), 10, 30),  // 1
            span(Some(0), 20, 50),  // 2: overlaps 1 — 10..50 counts once
            span(Some(0), 60, 70),  // 3
            span(Some(3), 62, 65),  // 4: grandchild, only 3's business
            span(Some(0), 95, 120), // 5: runs past the root's end
        ];
        let st = self_times(&spans);
        assert_eq!(st[0], 100 - 40 - 10 - 5);
        assert_eq!(st[1], 20);
        assert_eq!(st[2], 30);
        assert_eq!(st[3], 10 - 3);
        assert_eq!(st[4], 3);
        assert_eq!(st[5], 25);
    }

    #[test]
    fn a_leaf_keeps_its_whole_duration_and_self_times_sum_to_the_root() {
        let spans = vec![
            span(None, 0, 50),
            span(Some(0), 5, 15),
            span(Some(0), 15, 45),
        ];
        let st = self_times(&spans);
        assert_eq!(st.iter().sum::<u64>(), 50);
        assert_eq!(st[0], 10);
    }

    #[test]
    fn the_recorder_nests_and_renders_every_span() {
        let mut t = Tracer::new();
        let root = t.open("frame", 7, None);
        let x: u32 = t.time("morton.sort", 7, Some(root), 42, || 5);
        t.close(root);
        assert_eq!(x, 5);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(root));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let json = to_chrome_trace(spans);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"morton.sort\""));
        assert!(json.contains("\"frame\":7"));
        assert!(json.contains("\"items\":42"));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
    }
}
