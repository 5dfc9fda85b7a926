//! Request tracing: span identity, per-thread recording, collection
//! and export.
//!
//! A [`Tracer`] mints `TraceId`/`SpanId` pairs (plain `u64`s, unique
//! per tracer) and records finished spans into a lock-free per-thread
//! [ring](crate::ring) so the request hot path never takes a lock to
//! trace. A span's attributes are typed [`AttrValue`]s held inline in
//! the span, so recording one allocates nothing. A collector pass
//! ([`Tracer::drain`]) moves the rings' contents into a bounded
//! in-memory store, formatting each span into a [`SpanRecord`] of
//! strings on the way; [`Tracer::export`] produces a [`TraceExport`]
//! of those for rendering.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
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

/// A span attribute's value, kept typed from the moment it is attached
/// until the collector formats the span for export: attaching one
/// allocates nothing unless the value is an [`AttrValue::Owned`]
/// string, and a span dropped on ring overflow is never formatted.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// A string known at compile time (`"async"`, `"parsl"`).
    Static(&'static str),
    /// A string shared with its owner: a servable id as the repository
    /// holds it.
    Shared(Arc<str>),
    /// A string built for this span, for rare paths such as errors.
    Owned(String),
    /// An integer (a count, an index, nanoseconds), exported in
    /// decimal.
    U64(u64),
    /// A flag, exported as `true` or `false`.
    Bool(bool),
}

impl AttrValue {
    /// The value as exported.
    fn into_string(self) -> String {
        match self {
            AttrValue::Owned(s) => s,
            other => other.to_string(),
        }
    }
}

impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrValue::Static(s) => f.write_str(s),
            AttrValue::Shared(s) => f.write_str(s),
            AttrValue::Owned(s) => f.write_str(s),
            AttrValue::U64(n) => write!(f, "{n}"),
            AttrValue::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<&'static str> for AttrValue {
    fn from(s: &'static str) -> Self {
        AttrValue::Static(s)
    }
}

impl From<Arc<str>> for AttrValue {
    fn from(s: Arc<str>) -> Self {
        AttrValue::Shared(s)
    }
}

impl From<String> for AttrValue {
    fn from(s: String) -> Self {
        AttrValue::Owned(s)
    }
}

impl From<u64> for AttrValue {
    fn from(n: u64) -> Self {
        AttrValue::U64(n)
    }
}

impl From<usize> for AttrValue {
    fn from(n: usize) -> Self {
        AttrValue::U64(n as u64)
    }
}

impl From<u32> for AttrValue {
    fn from(n: u32) -> Self {
        AttrValue::U64(n.into())
    }
}

impl From<bool> for AttrValue {
    fn from(b: bool) -> Self {
        AttrValue::Bool(b)
    }
}

/// Attributes a span holds without allocating: as many as the largest
/// span a successful request records (a replica's `inference`). Every
/// slot is in every ring slot, so one more costs each ring 10 KB; only
/// a failed invocation's `error` and `failed_step` go past them.
const INLINE_ATTRS: usize = 6;

/// A span's attributes in the order they were attached: the first
/// [`INLINE_ATTRS`] inline, any further ones on the heap.
#[derive(Debug, Default)]
pub(crate) struct Attrs {
    inline: [Option<(&'static str, AttrValue)>; INLINE_ATTRS],
    spill: Vec<(&'static str, AttrValue)>,
}

impl Attrs {
    pub(crate) fn push(&mut self, key: &'static str, value: AttrValue) {
        match self.inline.iter_mut().find(|slot| slot.is_none()) {
            Some(slot) => *slot = Some((key, value)),
            None => self.spill.push((key, value)),
        }
    }

    /// The attributes formatted for export, in order.
    fn format(self) -> Vec<(&'static str, String)> {
        let attrs = self.inline.into_iter().flatten().chain(self.spill);
        attrs
            .map(|(key, value)| (key, value.into_string()))
            .collect()
    }
}

/// A finished span as recorded on the request path, its attributes
/// still typed; the collector formats it into a [`SpanRecord`].
#[derive(Debug)]
pub(crate) struct RawSpan {
    pub(crate) trace: u64,
    pub(crate) span: u64,
    pub(crate) parent: u64,
    pub(crate) name: &'static str,
    pub(crate) start_ns: u64,
    pub(crate) end_ns: u64,
    pub(crate) attrs: Attrs,
}

impl RawSpan {
    pub(crate) fn format(self) -> SpanRecord {
        SpanRecord {
            trace: self.trace,
            span: self.span,
            parent: self.parent,
            name: self.name,
            start_ns: self.start_ns,
            end_ns: self.end_ns,
            attrs: self.attrs.format(),
        }
    }
}

/// A finished span as stored by the collector, its attributes
/// formatted.
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
    /// The span, `end_ns` unset until it finishes.
    raw: RawSpan,
}

impl SpanHandle {
    /// The context to propagate to the next tier: child spans started
    /// from this context become children of this span.
    pub fn ctx(&self) -> TraceContext {
        TraceContext {
            trace: self.raw.trace,
            span: self.raw.span,
        }
    }

    /// Trace id of this span.
    pub fn trace(&self) -> u64 {
        self.raw.trace
    }

    /// Attach an attribute. It is held typed in the span and formatted
    /// only when the span is exported.
    pub fn attr(&mut self, key: &'static str, value: impl Into<AttrValue>) {
        self.raw.attrs.push(key, value.into());
    }
}

struct TracerInner {
    /// Distinguishes tracers inside the per-thread ring map.
    id: u64,
    enabled: AtomicBool,
    next_id: AtomicU64,
    /// The ring of every live thread that has recorded, plus those of
    /// threads that exited since the last registration or drain; drains
    /// iterate this. The lock also serialises consumers, upholding the
    /// rings' SPSC contract.
    rings: Mutex<Vec<Arc<SpanRing>>>,
    store: Mutex<VecDeque<SpanRecord>>,
    /// Spans lost to store eviction, plus the overflow of rings already
    /// released. Released rings add theirs under the `rings` lock.
    dropped: AtomicU64,
}

impl TracerInner {
    /// Drain the rings whose thread has exited into `out`, formatted,
    /// and release them, moving their overflow counts into `dropped`.
    fn release_exited(&self, rings: &mut Vec<Arc<SpanRing>>, out: &mut Vec<SpanRecord>) {
        let mut i = 0;
        while i < rings.len() {
            if Arc::strong_count(&rings[i]) > 1 {
                i += 1;
                continue;
            }
            // The registry holds the only reference: the owning thread
            // dropped its own on exit, and no new one can be taken
            // while `rings` is locked. `into_inner` synchronises with
            // that drop, so every span the thread pushed is visible.
            if let Some(ring) = Arc::into_inner(rings.swap_remove(i)) {
                ring.drain(|raw| out.push(raw.format()));
                self.dropped.fetch_add(ring.dropped(), Ordering::Relaxed);
            }
        }
    }

    /// Move drained spans into the bounded store, oldest first.
    fn store(&self, mut drained: Vec<SpanRecord>) {
        if drained.is_empty() {
            return;
        }
        drained.sort_by_key(|r| r.start_ns);
        let mut store = self.store.lock();
        for record in drained {
            if store.len() == STORE_CAPACITY {
                store.pop_front();
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
            store.push_back(record);
        }
    }
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
                dropped: AtomicU64::new(0),
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

    fn open(&self, trace: u64, parent: u64, name: &'static str, start_ns: u64) -> SpanHandle {
        SpanHandle {
            raw: RawSpan {
                trace,
                span: self.mint(),
                parent,
                name,
                start_ns,
                end_ns: 0,
                attrs: Attrs::default(),
            },
        }
    }

    /// Start a new root span under a fresh trace id.
    pub fn start_root(&self, name: &'static str) -> SpanHandle {
        let trace = self.mint();
        self.open(trace, 0, name, now_ns())
    }

    /// Start a span as a child of a propagated context.
    pub fn start_child(&self, parent: TraceContext, name: &'static str) -> SpanHandle {
        self.start_child_at(parent, name, now_ns())
    }

    /// [`Self::start_child`] for a span whose start the caller measured
    /// ([`now_ns`] clock): a replica's inference, stamped before the
    /// servable ran.
    pub fn start_child_at(
        &self,
        parent: TraceContext,
        name: &'static str,
        start_ns: u64,
    ) -> SpanHandle {
        self.open(parent.trace, parent.span, name, start_ns)
    }

    /// Close a span at the current instant and record it. Returns the
    /// span's context so callers can keep parenting after the span is
    /// gone.
    pub fn finish(&self, span: SpanHandle) -> TraceContext {
        self.finish_at(span, now_ns())
    }

    /// [`Self::finish`] at an end the caller measured ([`now_ns`]
    /// clock).
    pub fn finish_at(&self, span: SpanHandle, end_ns: u64) -> TraceContext {
        let ctx = span.ctx();
        self.push(RawSpan { end_ns, ..span.raw });
        ctx
    }

    /// Record an instantaneous event, optionally attached to a trace.
    pub fn event(
        &self,
        parent: Option<TraceContext>,
        name: &'static str,
        attrs: impl IntoIterator<Item = (&'static str, AttrValue)>,
    ) {
        if !self.enabled() {
            return;
        }
        let at = now_ns();
        let (trace, parent) = parent.map_or((0, 0), |p| (p.trace, p.span));
        let mut event = self.open(trace, parent, name, at);
        for (key, value) in attrs {
            event.attr(key, value);
        }
        self.finish_at(event, at);
    }

    fn push(&self, record: RawSpan) {
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
            // fresh ring, dropping map entries for dead tracers. The
            // registration releases the rings of threads that exited,
            // so short-lived threads do not pile up rings.
            rings.retain(|(_, probe, _)| probe.strong_count() > 0);
            let mut released = Vec::new();
            let ring = {
                let mut registry = self.inner.rings.lock();
                self.inner.release_exited(&mut registry, &mut released);
                // Allocated once the exited rings are freed, so it can
                // take the memory one of them held.
                let ring = Arc::new(SpanRing::new());
                registry.push(Arc::clone(&ring));
                ring
            };
            self.inner.store(released);
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
            self.inner.release_exited(&mut rings, &mut drained);
            for ring in rings.iter() {
                ring.drain(|raw| drained.push(raw.format()));
            }
        }
        self.inner.store(drained);
    }

    /// Spans lost to ring overflow or store eviction so far; never
    /// decreases.
    pub fn dropped(&self) -> u64 {
        let rings = self.inner.rings.lock();
        let live: u64 = rings.iter().map(|r| r.dropped()).sum();
        live + self.inner.dropped.load(Ordering::Relaxed)
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
    use crate::ring::RING_CAPACITY;

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
        tracer.event(None, "evt", []);
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

    fn on_a_thread_that_exits(tracer: &Tracer, spans: usize) {
        let tracer = tracer.clone();
        std::thread::spawn(move || {
            for _ in 0..spans {
                tracer.finish(tracer.start_root("short-lived"));
            }
        })
        .join()
        .unwrap();
    }

    #[test]
    fn an_exited_threads_ring_is_released_by_the_next_registration() {
        let tracer = Tracer::new();
        on_a_thread_that_exits(&tracer, 3);
        assert_eq!(tracer.inner.rings.lock().len(), 1);
        // The next thread's first span drains the exited thread's ring
        // into the store and lets it go: one ring, the new thread's.
        on_a_thread_that_exits(&tracer, 1);
        assert_eq!(tracer.inner.rings.lock().len(), 1);
        assert_eq!(tracer.inner.store.lock().len(), 3);
        assert_eq!(tracer.export(None).spans.len(), 4);
        assert!(tracer.inner.rings.lock().is_empty());
    }

    #[test]
    fn a_released_rings_overflow_still_counts_as_dropped() {
        let tracer = Tracer::new();
        let overflow = 5;
        on_a_thread_that_exits(&tracer, RING_CAPACITY + overflow);
        assert_eq!(tracer.dropped(), overflow as u64);
        tracer.drain();
        assert_eq!(tracer.dropped(), overflow as u64);
        assert_eq!(tracer.export(None).spans.len(), RING_CAPACITY);
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
    fn typed_attributes_export_as_the_strings_they_format_to() {
        let tracer = Tracer::new();
        let mut span = tracer.start_root("request");
        let id: Arc<str> = Arc::from("dlhub/noop");
        span.attr("servable", Arc::clone(&id));
        span.attr("batch_size", 32usize);
        span.attr("cache_hit", false);
        span.attr("mode", "async");
        span.attr("error", String::from("boom"));
        // Past the inline capacity, in order all the same.
        for extra in 0..INLINE_ATTRS as u64 {
            span.attr("extra", extra);
        }
        let trace = tracer.finish(span).trace;
        let export = tracer.export(Some(trace));
        let record = &export.spans[0];
        let owned = |k: &'static str, v: &str| (k, v.to_string());
        assert_eq!(
            record.attrs[..5],
            [
                owned("servable", "dlhub/noop"),
                owned("batch_size", "32"),
                owned("cache_hit", "false"),
                owned("mode", "async"),
                owned("error", "boom"),
            ]
        );
        assert_eq!(record.attrs.len(), 5 + INLINE_ATTRS);
        let last = (INLINE_ATTRS - 1).to_string();
        assert_eq!(record.attrs.last(), Some(&owned("extra", &last)));
        assert_eq!(record.attr("batch_size"), Some("32"));
        assert_eq!(record.to_json()["attrs"][2], json!(["cache_hit", "false"]));
    }

    #[test]
    fn spans_timed_by_the_caller_keep_their_stamps() {
        let tracer = Tracer::new();
        let root = tracer.start_root("invocation");
        let span = tracer.start_child_at(root.ctx(), "inference", 10);
        tracer.finish_at(span, 25);
        tracer.finish(root);
        let export = tracer.export(None);
        let inference = export.named("inference")[0];
        assert_eq!((inference.start_ns, inference.end_ns), (10, 25));
        assert_eq!(inference.parent, export.named("invocation")[0].span);
    }

    #[test]
    fn trace_context_roundtrips_through_json() {
        let ctx = TraceContext { trace: 7, span: 9 };
        let text = serde_json::to_string(&ctx).unwrap();
        let back: TraceContext = serde_json::from_str(&text).unwrap();
        assert_eq!(back, ctx);
    }
}
