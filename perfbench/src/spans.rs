//! In-memory spans around the benchmark's calls into each layer, written
//! as JSON lines when the run ends.
//!
//! Every span sits in the benchmark's own files; spans inside the
//! program are a later change and will be checked against these. The
//! root span of a request is one turn of the workload's loop and its
//! children are the calls into the program; spans flagged `replay`
//! re-run that request's inputs through one lower layer after the fact,
//! so they lie outside their parent's interval and take nothing from its
//! self time.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    /// Index of the request within its run; spans of one request share it.
    pub request: u64,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub replay: bool,
}

/// What a span is attributed to.
#[derive(Clone, Copy)]
pub struct At {
    pub parent: Option<u32>,
    pub request: u64,
    pub layer: &'static str,
    pub name: &'static str,
    pub replay: bool,
}

impl At {
    /// A root span: one turn of the workload's loop.
    pub fn root(request: u64, name: &'static str) -> Self {
        Self {
            parent: None,
            request,
            layer: "workload",
            name,
            replay: false,
        }
    }

    /// A replay of `request`'s inputs through `layer`, under span `parent`.
    pub fn replay(
        parent: Option<u32>,
        request: u64,
        layer: &'static str,
        name: &'static str,
    ) -> Self {
        Self {
            parent,
            request,
            layer,
            name,
            replay: true,
        }
    }

    /// A measurement of one layer on inputs of the ladder's own.
    pub fn probe(layer: &'static str, name: &'static str) -> Self {
        Self::replay(None, 0, layer, name)
    }
}

/// The span store of one run; shared by reference between load threads.
pub struct SpanLog {
    t0: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl SpanLog {
    pub fn new() -> Self {
        Self {
            t0: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Reserves a span id, so that children can name their parent
    /// before the parent's end is known.
    pub fn open(&self) -> u32 {
        // Relaxed: the id publishes nothing but itself.
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records span `id` over `[start, end]`.
    pub fn close(&self, id: u32, at: At, start: Instant, end: Instant) {
        let ns = |t: Instant| t.duration_since(self.t0).as_nanos() as u64;
        self.spans
            .lock()
            .expect("no span writer panics while holding the lock")
            .push(Span {
                id,
                parent: at.parent,
                request: at.request,
                layer: at.layer,
                name: at.name,
                start_ns: ns(start),
                end_ns: ns(end),
                replay: at.replay,
            });
    }

    /// Runs `work` inside a new span; returns its result, duration and id.
    pub fn timed<R>(&self, at: At, work: impl FnOnce() -> R) -> (R, Duration, u32) {
        let id = self.open();
        let start = Instant::now();
        let result = work();
        let end = Instant::now();
        self.close(id, at, start, end);
        (result, end - start, id)
    }

    pub fn snapshot(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("no span writer panics while holding the lock")
            .clone()
    }

    /// One Chrome-trace complete event per line — the event fields
    /// `hero_gpu_sim::trace` emits for the model (`name`, `ph`, `pid`,
    /// `tid`, `ts`, `dur`, `args`) — with the span's own fields in `args`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut layers: Vec<&str> = Vec::new();
        for s in self.snapshot() {
            let tid = match layers.iter().position(|l| *l == s.layer) {
                Some(i) => i,
                None => {
                    layers.push(s.layer);
                    layers.len() - 1
                }
            };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{parent},\"request\":{},\"layer\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"replay\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.id,
                s.request,
                s.layer,
                s.start_ns,
                s.end_ns,
                s.replay,
            )?;
        }
        out.flush()
    }
}

/// Self time of span `id`: its duration minus the part of its interval
/// that its children cover (overlapping children count once; a child
/// reaching outside the parent counts only for the part inside).
pub fn self_time_ns(spans: &[Span], id: u32) -> u64 {
    let Some(span) = spans.iter().find(|s| s.id == id) else {
        return 0;
    };
    let mut covered: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns.max(span.start_ns), s.end_ns.min(span.end_ns)))
        .filter(|(start, end)| start < end)
        .collect();
    covered.sort_unstable();
    let mut total = 0;
    let mut reach = span.start_ns;
    for (start, end) in covered {
        if end > reach {
            total += end - start.max(reach);
            reach = end;
        }
    }
    (span.end_ns - span.start_ns) - total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 0,
            layer: "workload",
            name: "call",
            start_ns,
            end_ns,
            replay: false,
        }
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let spans = [
            span(1, None, 100, 200),
            span(2, Some(1), 110, 150),
            span(3, Some(1), 140, 170), // overlaps span 2 by 10
            span(4, Some(1), 120, 130), // inside span 2
            span(5, Some(2), 111, 149), // a grandchild takes nothing from span 1
        ];
        assert_eq!(self_time_ns(&spans, 1), 100 - 60);
        assert_eq!(self_time_ns(&spans, 2), 40 - 38);
        assert_eq!(self_time_ns(&spans, 4), 10);
    }

    #[test]
    fn children_outside_the_parent_cover_nothing() {
        let spans = [
            span(1, None, 100, 200),
            span(2, Some(1), 50, 120),  // starts before the parent
            span(3, Some(1), 190, 300), // ends after it
            span(4, Some(1), 400, 900), // a replay, after the fact
        ];
        assert_eq!(self_time_ns(&spans, 1), 100 - 20 - 10);
        assert_eq!(self_time_ns(&spans, 9), 0);
    }

    #[test]
    fn timed_records_a_span() {
        let log = SpanLog::new();
        let parent = log.open();
        let start = Instant::now();
        let (value, _, child) = log.timed(
            At {
                parent: Some(parent),
                ..At::root(3, "inner")
            },
            || 7,
        );
        log.close(parent, At::root(3, "outer"), start, Instant::now());
        assert_eq!(value, 7);
        let spans = log.snapshot();
        assert_eq!(spans.len(), 2);
        assert!(spans
            .iter()
            .any(|s| s.id == child && s.parent == Some(parent)));
        assert!(self_time_ns(&spans, parent) <= spans[1].end_ns - spans[1].start_ns);
    }
}
