//! Spans recorded from outside the library, around each call into a
//! layer.
//!
//! A span has a name, a detail (a model slug, say), start and end in
//! nanoseconds since the run started, the index of its parent span and a
//! request id. Setup, fit, evaluation and ingest spans are all kept;
//! serving keeps every request's durations as samples and the full spans
//! of one request in [`SPAN_EVERY`].

use crate::json::quote;
use crate::stats::Histogram;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Serving requests whose spans are kept: request ids divisible by this.
pub const SPAN_EVERY: u64 = 64;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer entry point, e.g. `stage1` or `data.generate`.
    pub name: &'static str,
    /// Free-form qualifier (a model slug, say), possibly empty.
    pub detail: String,
    /// Start, ns since the run's origin.
    pub start_ns: u64,
    /// End, ns since the run's origin.
    pub end_ns: u64,
    /// Index of the enclosing span in the same list.
    pub parent: Option<usize>,
    /// Request id (serving) or 0.
    pub req: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Nanoseconds from `origin` to `t`.
pub fn since(origin: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(origin).as_nanos() as u64
}

/// Span list for one thread of setup, fit, evaluation or ingest work.
/// A disabled tracer records nothing, so the plain path runs the same
/// code with only a branch per span.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    /// Recorded spans, in start order.
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer timing from `origin`; `enabled == false` records nothing.
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Self { enabled, origin, spans: Vec::new(), open: Vec::new() }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The run's time origin.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        detail: &str,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = since(self.origin, Instant::now());
        self.spans.push(Span {
            name,
            detail: detail.to_owned(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            req: 0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = since(self.origin, Instant::now());
        out
    }

    /// Durations in ms of every span named `name`, in start order.
    pub fn ms(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.ns() as f64 / 1e6).collect()
    }

    /// Adds spans recorded elsewhere (a worker thread), re-basing their
    /// parent indices onto this list.
    pub fn absorb(&mut self, spans: Vec<Span>) {
        let base = self.spans.len();
        self.spans.extend(spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// Durations of every traced serving request, in ns.
#[derive(Debug, Default)]
pub struct Recorder {
    /// Whole request.
    pub request: Histogram,
    /// `TopKCache::lookup`.
    pub lookup: Histogram,
    /// `TopKCache::insert` (misses only).
    pub insert: Histogram,
    /// `candidates_for` (misses only).
    pub stage1: Histogram,
    /// `rank_candidates` (misses only).
    pub stage2: Histogram,
    /// Request minus its children.
    pub self_ns: Histogram,
    /// Cache hits.
    pub hits: u64,
    /// Spans of the sampled requests.
    pub spans: Vec<Span>,
}

/// Writes `spans` as JSON lines to `path`.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"name\":{},\"detail\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}}}",
            quote(s.name),
            quote(&s.detail),
            s.start_ns,
            s.end_ns,
            s.parent.map_or_else(|| "null".to_owned(), |p| p.to_string()),
            s.req
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true, Instant::now());
        t.span("outer", "", |t| {
            t.span("inner", "a", |_| ());
            t.span("inner", "b", |_| ());
        });
        assert_eq!(t.spans.len(), 3);
        assert_eq!(t.spans[0].parent, None);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[2].parent, Some(0));
        assert!(t.spans[0].end_ns >= t.spans[2].end_ns);
        assert_eq!(t.ms("inner").len(), 2);
        let mut off = Tracer::new(false, Instant::now());
        assert_eq!(off.span("outer", "", |_| 5), 5);
        assert!(off.spans.is_empty());
    }
}
