//! Request tracing: span identity, per-thread recording, collection
//! and export.
//!
//! A [`Tracer`] mints `TraceId`/`SpanId` pairs (plain `u64`s, unique
//! per tracer) and records finished [`SpanRecord`]s into a lock-free
//! per-thread [ring](crate::ring) so the request hot path never takes
//! a lock to trace. A collector pass ([`Tracer::drain`]) moves the
//! rings' contents into a bounded in-memory store, from which
//! [`Tracer::export`] produces a [`TraceExport`] for rendering.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use serde_json::{json, Value};

use crate::ring::SpanRing;

/// Spans retained in the collector store before the oldest are
/// discarded.
const STORE_CAPACITY: usize = 65_536;

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process-wide tracing epoch (the first call to
/// any obs clock function). All span timestamps share this clock, so
/// spans recorded on different threads are directly comparable.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Trace identity carried across tiers inside task envelopes.
///
/// `trace` names the end-to-end request tree; `span` is the sender's
/// span, which the receiving tier uses as the parent of its own span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceContext {
    /// Identifier of the whole request tree.
    pub trace: u64,
    /// Span id of the sender, i.e. the parent for the next tier.
    pub span: u64,
}

/// A finished span as stored by the collector.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Trace this span belongs to (0 = untraced event).
    pub trace: u64,
    /// Unique id of this span within its tracer.
    pub span: u64,
    /// Parent span id (0 = root).
    pub parent: u64,
    /// Static span name, e.g. `"request"`, `"invocation"`, `"inference"`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer epoch.
    pub end_ns: u64,
    /// Free-form attributes (`servable`, `replica`, `cache_hit`, ...).
    pub attrs: Vec<(&'static str, String)>,
}

impl SpanRecord {
    /// Wall-clock duration covered by the span.
    pub fn duration(&self) -> Duration {
        Duration::from_nanos(self.end_ns.saturating_sub(self.start_ns))
    }

    /// Look up an attribute by key.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.as_str())
    }

    /// JSON form used by trace exports.
    pub fn to_json(&self) -> Value {
        let attrs: Vec<Value> = self
            .attrs
            .iter()
            .map(|(k, v)| json!([(*k).to_string(), v.clone()]))
            .collect();
        json!({
            "trace": self.trace,
            "span": self.span,
            "parent": self.parent,
            "name": self.name.to_string(),
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "attrs": Value::Array(attrs),
        })
    }
}

/// An open span. Created by [`Tracer::start_root`] /
/// [`Tracer::start_child`], finished (and recorded) by
/// [`Tracer::finish`]. The handle is plain data and may be moved
/// across threads; the finishing thread's ring receives the record.
#[derive(Debug)]
pub struct SpanHandle {
    trace: u64,
    span: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
    attrs: Vec<(&'static str, String)>,
}

impl SpanHandle {
    /// The context to propagate to the next tier: child spans started
    /// from this context become children of this span.
    pub fn ctx(&self) -> TraceContext {
        TraceContext {
            trace: self.trace,
            span: self.span,
        }
    }

    /// Trace id of this span.
    pub fn trace(&self) -> u64 {
        self.trace
    }

    /// Attach an attribute.
    pub fn attr(&mut self, key: &'static str, value: impl Into<String>) {
        self.attrs.push((key, value.into()));
    }
}

struct TracerInner {
    /// Distinguishes tracers inside the per-thread ring map.
    id: u64,
    enabled: AtomicBool,
    next_id: AtomicU64,
    /// Every ring ever handed to a thread; drains iterate this. The
    /// lock also serialises consumers, upholding the rings' SPSC
    /// contract.
    rings: Mutex<Vec<Arc<SpanRing>>>,
    store: Mutex<VecDeque<SpanRecord>>,
    store_dropped: AtomicU64,
}

/// (tracer id, liveness probe, ring) triple for one tracer this thread
/// has recorded into.
type LocalRing = (u64, Weak<TracerInner>, Arc<SpanRing>);

thread_local! {
    /// One [`LocalRing`] per tracer this thread has recorded into.
    /// Dead tracers are pruned on the next ring allocation.
    static LOCAL_RINGS: RefCell<Vec<LocalRing>> = const { RefCell::new(Vec::new()) };
}

/// Handle to a span collector. Cheap to clone; clones share state.
///
/// Each [`crate::Obs`] owns one tracer — there is deliberately no
/// process-global tracer, so tests running several hubs in one process
/// do not interleave spans.
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// Create an enabled tracer with an empty store.
    pub fn new() -> Self {
        static TRACER_IDS: AtomicU64 = AtomicU64::new(1);
        Tracer {
            inner: Arc::new(TracerInner {
                id: TRACER_IDS.fetch_add(1, Ordering::Relaxed),
                enabled: AtomicBool::new(true),
                next_id: AtomicU64::new(1),
                rings: Mutex::new(Vec::new()),
                store: Mutex::new(VecDeque::new()),
                store_dropped: AtomicU64::new(0),
            }),
        }
    }

    /// Globally enable or disable span recording. Ids are still minted
    /// while disabled (callers may rely on them), but nothing is
    /// recorded.
    pub fn set_enabled(&self, enabled: bool) {
        self.inner.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether span recording is on.
    pub fn enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    fn mint(&self) -> u64 {
        self.inner.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Start a new root span under a fresh trace id.
    pub fn start_root(&self, name: &'static str) -> SpanHandle {
        let trace = self.mint();
        let span = self.mint();
        SpanHandle {
            trace,
            span,
            parent: 0,
            name,
            start_ns: now_ns(),
            attrs: Vec::new(),
        }
    }

    /// Start a span as a child of a propagated context.
    pub fn start_child(&self, parent: TraceContext, name: &'static str) -> SpanHandle {
        SpanHandle {
            trace: parent.trace,
            span: self.mint(),
            parent: parent.span,
            name,
            start_ns: now_ns(),
            attrs: Vec::new(),
        }
    }

    /// Close a span at the current instant and record it. Returns the
    /// span's context so callers can keep parenting after the span is
    /// gone.
    pub fn finish(&self, span: SpanHandle) -> TraceContext {
        let ctx = TraceContext {
            trace: span.trace,
            span: span.span,
        };
        self.push(SpanRecord {
            trace: span.trace,
            span: span.span,
            parent: span.parent,
            name: span.name,
            start_ns: span.start_ns,
            end_ns: now_ns(),
            attrs: span.attrs,
        });
        ctx
    }

    /// Record an instantaneous event, optionally attached to a trace.
    pub fn event(
        &self,
        parent: Option<TraceContext>,
        name: &'static str,
        attrs: Vec<(&'static str, String)>,
    ) {
        if !self.enabled() {
            return;
        }
        let at = now_ns();
        let (trace, parent_span) = match parent {
            Some(p) => (p.trace, p.span),
            None => (0, 0),
        };
        self.push(SpanRecord {
            trace,
            span: self.mint(),
            parent: parent_span,
            name,
            start_ns: at,
            end_ns: at,
            attrs,
        });
    }

    /// Record a span whose start/end were measured by the caller
    /// (e.g. end-anchored inference spans reconstructed from reported
    /// durations). `span` id 0 is replaced with a fresh id.
    pub fn record(&self, mut record: SpanRecord) {
        if record.span == 0 {
            record.span = self.mint();
        }
        self.push(record);
    }

    fn push(&self, record: SpanRecord) {
        if !self.enabled() {
            return;
        }
        LOCAL_RINGS.with(|cell| {
            let mut rings = cell.borrow_mut();
            if let Some((_, _, ring)) = rings.iter().find(|(id, _, _)| *id == self.inner.id) {
                ring.push(record);
                return;
            }
            // First span from this thread for this tracer: register a
            // fresh ring, dropping map entries for dead tracers.
            rings.retain(|(_, probe, _)| probe.strong_count() > 0);
            let ring = Arc::new(SpanRing::new());
            self.inner.rings.lock().push(Arc::clone(&ring));
            ring.push(record);
            rings.push((self.inner.id, Arc::downgrade(&self.inner), ring));
        });
    }

    /// Collector pass: move spans from every thread's ring into the
    /// bounded store. Rings whose owning thread has exited are drained
    /// one last time and released.
    pub fn drain(&self) {
        let mut drained = Vec::new();
        {
            let mut rings = self.inner.rings.lock();
            for ring in rings.iter() {
                ring.drain_into(&mut drained);
            }
            // A ring only referenced by the registry belongs to a dead
            // thread; it was just drained, so let it go.
            rings.retain(|ring| Arc::strong_count(ring) > 1);
        }
        if drained.is_empty() {
            return;
        }
        drained.sort_by_key(|r| r.start_ns);
        let mut store = self.inner.store.lock();
        for record in drained {
            if store.len() == STORE_CAPACITY {
                store.pop_front();
                self.inner.store_dropped.fetch_add(1, Ordering::Relaxed);
            }
            store.push_back(record);
        }
    }

    /// Spans lost to ring overflow or store eviction so far.
    pub fn dropped(&self) -> u64 {
        let rings: u64 = self.inner.rings.lock().iter().map(|r| r.dropped()).sum();
        rings + self.inner.store_dropped.load(Ordering::Relaxed)
    }

    /// Drain and export collected spans, optionally restricted to one
    /// trace id. Spans are ordered by start time.
    pub fn export(&self, trace: Option<u64>) -> TraceExport {
        self.drain();
        let store = self.inner.store.lock();
        let spans = store
            .iter()
            .filter(|s| trace.is_none_or(|t| s.trace == t))
            .cloned()
            .collect();
        TraceExport { spans }
    }

    /// Discard every collected span (does not reset id minting).
    pub fn clear(&self) {
        self.drain();
        self.inner.store.lock().clear();
    }
}

/// A set of collected spans ready for rendering.
#[derive(Debug, Clone)]
pub struct TraceExport {
    /// Spans ordered by start time.
    pub spans: Vec<SpanRecord>,
}

impl TraceExport {
    /// Distinct trace ids present, in first-seen order (untraced
    /// events under id 0 are skipped).
    pub fn trace_ids(&self) -> Vec<u64> {
        let mut ids = Vec::new();
        for span in &self.spans {
            if span.trace != 0 && !ids.contains(&span.trace) {
                ids.push(span.trace);
            }
        }
        ids
    }

    /// Spans with the given name.
    pub fn named(&self, name: &str) -> Vec<&SpanRecord> {
        self.spans.iter().filter(|s| s.name == name).collect()
    }

    /// Direct children of the given span id.
    pub fn children_of(&self, span: u64) -> Vec<&SpanRecord> {
        self.spans.iter().filter(|s| s.parent == span).collect()
    }

    /// JSON dump: `{"spans": [...]}`.
    pub fn to_json(&self) -> Value {
        let spans: Vec<Value> = self.spans.iter().map(SpanRecord::to_json).collect();
        json!({ "spans": Value::Array(spans) })
    }

    /// Indented per-trace tree view for terminals.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for trace in self.trace_ids() {
            out.push_str(&format!("trace {trace:#x}\n"));
            let roots: Vec<&SpanRecord> = self
                .spans
                .iter()
                .filter(|s| s.trace == trace && self.parent_missing(s))
                .collect();
            for root in roots {
                self.render_span(root, 1, &mut out);
            }
        }
        if out.is_empty() {
            out.push_str("no spans collected\n");
        }
        out
    }

    fn parent_missing(&self, span: &SpanRecord) -> bool {
        span.parent == 0 || !self.spans.iter().any(|s| s.span == span.parent)
    }

    fn render_span(&self, span: &SpanRecord, depth: usize, out: &mut String) {
        let indent = "  ".repeat(depth);
        let micros = span.duration().as_nanos() as f64 / 1_000.0;
        let attrs = span
            .attrs
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ");
        out.push_str(&format!(
            "{indent}{name} {micros:.1}us{sep}{attrs}\n",
            name = span.name,
            sep = if attrs.is_empty() { "" } else { "  " },
        ));
        for child in self.children_of(span.span) {
            self.render_span(child, depth + 1, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finished_spans_show_up_in_export_with_parent_links() {
        let tracer = Tracer::new();
        let mut root = tracer.start_root("request");
        root.attr("servable", "a/b");
        let ctx = root.ctx();
        let child = tracer.start_child(ctx, "invocation");
        tracer.finish(child);
        tracer.finish(root);

        let export = tracer.export(Some(ctx.trace));
        assert_eq!(export.spans.len(), 2);
        let request = &export.named("request")[0];
        let invocation = &export.named("invocation")[0];
        assert_eq!(request.parent, 0);
        assert_eq!(invocation.parent, request.span);
        assert_eq!(invocation.trace, request.trace);
        assert_eq!(request.attr("servable"), Some("a/b"));
        assert!(request.end_ns >= invocation.end_ns);
    }

    #[test]
    fn export_filters_by_trace_id() {
        let tracer = Tracer::new();
        let a = tracer.start_root("a");
        let a_trace = a.trace();
        let b = tracer.start_root("b");
        tracer.finish(a);
        tracer.finish(b);
        let export = tracer.export(Some(a_trace));
        assert_eq!(export.spans.len(), 1);
        assert_eq!(export.spans[0].name, "a");
        assert_eq!(tracer.export(None).spans.len(), 2);
    }

    #[test]
    fn disabled_tracer_records_nothing_but_still_mints_ids() {
        let tracer = Tracer::new();
        tracer.set_enabled(false);
        let span = tracer.start_root("request");
        assert!(span.trace() > 0);
        tracer.finish(span);
        tracer.event(None, "evt", Vec::new());
        assert!(tracer.export(None).spans.is_empty());
    }

    #[test]
    fn spans_recorded_on_worker_threads_are_collected() {
        let tracer = Tracer::new();
        let root = tracer.start_root("request");
        let ctx = root.ctx();
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let tracer = tracer.clone();
                std::thread::spawn(move || {
                    let mut span = tracer.start_child(ctx, "inference");
                    span.attr("replica", i.to_string());
                    tracer.finish(span);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        tracer.finish(root);
        let export = tracer.export(Some(ctx.trace));
        assert_eq!(export.named("inference").len(), 4);
        assert!(export
            .named("inference")
            .iter()
            .all(|s| s.parent == ctx.span));
    }

    #[test]
    fn two_tracers_do_not_share_spans() {
        let a = Tracer::new();
        let b = Tracer::new();
        a.finish(a.start_root("only-a"));
        b.finish(b.start_root("only-b"));
        assert_eq!(a.export(None).spans.len(), 1);
        assert_eq!(a.export(None).spans[0].name, "only-a");
        assert_eq!(b.export(None).spans.len(), 1);
        assert_eq!(b.export(None).spans[0].name, "only-b");
    }

    #[test]
    fn render_text_shows_nested_spans() {
        let tracer = Tracer::new();
        let root = tracer.start_root("request");
        let child = tracer.start_child(root.ctx(), "invocation");
        tracer.finish(child);
        let trace = tracer.finish(root).trace;
        let text = tracer.export(Some(trace)).render_text();
        assert!(text.contains("request"));
        assert!(text.contains("\n    invocation"));
    }

    #[test]
    fn trace_context_roundtrips_through_json() {
        let ctx = TraceContext { trace: 7, span: 9 };
        let text = serde_json::to_string(&ctx).unwrap();
        let back: TraceContext = serde_json::from_str(&text).unwrap();
        assert_eq!(back, ctx);
    }
}
