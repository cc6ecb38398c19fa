//! In-memory span recording around calls into the library's layers.
//!
//! Spans are recorded by the benchmark's own code at each layer
//! boundary it calls (the library itself carries no instrumentation).
//! Each span has a name (`layer.operation`), a start and an end on one
//! monotonic clock, the index of the span that caused it, and the id
//! of the request it belongs to. Spans stay in memory until the run
//! ends, when [`Tracer::write_jsonl`] writes them out.
//!
//! A disabled tracer records nothing, but [`Tracer::time`] still
//! returns the call's duration, so the untraced path pays only the two
//! clock reads it needs for latency anyway.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Index of a recorded span; [`NO_SPAN`] for "no parent".
pub type SpanId = u32;

/// The parent of a root span.
pub const NO_SPAN: SpanId = u32::MAX;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// `layer.operation`; the layer is the part before the first dot.
    pub name: &'static str,
    /// The request (or setup step) the span belongs to.
    pub request: u64,
    /// The causing span, or [`NO_SPAN`].
    pub parent: SpanId,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// The span's wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer: the name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// The span recorder shared by the benchmark's client thread and, for
/// transport spans, the library's fan-out threads.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    /// Request id and parent span for spans opened on threads the
    /// benchmark does not control (the transport is called from the
    /// federated fan-out). Set by the client thread before each call.
    context: AtomicU64,
}

impl Tracer {
    /// A tracer that records spans iff `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            context: AtomicU64::new(pack(0, NO_SPAN)),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id ([`NO_SPAN`] when disabled).
    pub fn open(&self, name: &'static str, request: u64, parent: SpanId) -> SpanId {
        if !self.enabled {
            return NO_SPAN;
        }
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span buffer lock");
        spans.push(Span {
            name,
            request,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        (spans.len() - 1) as SpanId
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&self, id: SpanId) {
        if id == NO_SPAN {
            return;
        }
        let end_ns = self.now_ns();
        self.spans.lock().expect("span buffer lock")[id as usize].end_ns = end_ns;
    }

    /// Runs `f` inside a span and returns its result with its duration.
    pub fn time<T>(
        &self,
        name: &'static str,
        request: u64,
        parent: SpanId,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let id = self.open(name, request, parent);
        let start = Instant::now();
        let out = f();
        let took = start.elapsed();
        self.close(id);
        (out, took)
    }

    /// Sets the request and parent for spans opened on other threads.
    pub fn set_context(&self, request: u64, parent: SpanId) {
        self.context.store(pack(request, parent), Ordering::Relaxed);
    }

    /// The context set by [`Tracer::set_context`].
    pub fn context(&self) -> (u64, SpanId) {
        let v = self.context.load(Ordering::Relaxed);
        (v >> 32, v as u32)
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer lock").clone()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in spans.iter().enumerate() {
            let parent = if s.parent == NO_SPAN {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.request, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

fn pack(request: u64, parent: SpanId) -> u64 {
    (request << 32) | u64::from(parent)
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (children may overlap when they ran on
/// several threads, so the covered part is the union of their
/// intervals).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != NO_SPAN {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let Some(kids) = children.get_mut(&(i as SpanId)) else {
                return s.duration_ns();
            };
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: SpanId, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            request: 1,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("request", NO_SPAN, 0, 100),
            span("a.x", 0, 10, 40),
            // Overlaps the first child: counted once.
            span("a.y", 0, 30, 50),
            span("b.z", 1, 15, 20),
        ];
        assert_eq!(self_times_ns(&spans), vec![60, 25, 20, 5]);
        assert_eq!(spans[3].layer(), "b");
    }

    #[test]
    fn context_round_trips() {
        let t = Tracer::new(true);
        t.set_context(7, 3);
        assert_eq!(t.context(), (7, 3));
        let (v, _) = t.time("a.b", 7, NO_SPAN, || 5);
        assert_eq!(v, 5);
        assert_eq!(t.spans().len(), 1);
        let off = Tracer::new(false);
        assert_eq!(off.open("a.b", 1, NO_SPAN), NO_SPAN);
        assert!(off.spans().is_empty());
    }
}
