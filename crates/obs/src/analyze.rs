//! Critical-path analysis over collected traces: reconstruct a
//! request's span tree and decompose its wall time into named stages.
//!
//! The paper's evaluation (§V) asks *where latency comes from* as a
//! request crosses Management Service → broker → Task Manager →
//! executor replica. This module answers that per trace: every
//! nanosecond of a request's duration is attributed to exactly one
//! [`Stage`], so the stage vector always sums to the recorded total —
//! the attribution is computed by interval subtraction (child-covered
//! time is classified by the child, residuals by the enclosing tier),
//! never by adding up independently measured numbers that may drift.
//!
//! Stage semantics:
//! * [`Stage::MemoLookup`] — time under `memo_lookup` spans;
//! * [`Stage::BrokerWait`] — attempt time not covered by any
//!   invocation: serialization, broker enqueue, queue wait, transport
//!   and reply transport (the invocation span's `queue_wait_ns`
//!   attribute, stamped from the broker's lease accounting, reports
//!   the in-queue share);
//! * [`Stage::TmDispatch`] — invocation time before the work is
//!   handed to a replica, a pipeline's hops from one step to the next,
//!   plus reply collection;
//! * [`Stage::ReplicaWait`] — hand-off to inference start, measured
//!   from each replica job's `queued_ns` stamp;
//! * [`Stage::Execute`] — time covered by `inference` spans;
//! * [`Stage::BatchWait`] — time a flushed input sat in the batcher
//!   (from the `batch_flush` span's `batch_wait_ns` attribute);
//! * [`Stage::Management`] — everything the Management Service did not
//!   delegate: preflight, memo keying, retry backoff, async pool wait.
//!
//! A pipeline is one frame — the `pipeline` root, its `attempt`s and
//! the Task Manager's one `invocation` — holding one `inference` span
//! per step, tagged `servable` and `step`; it decomposes like any other
//! frame, and its per-step rows are read from those inference spans.

use serde_json::{json, Value};

use crate::trace::{SpanRecord, TraceExport};

/// A named latency stage in the serving critical path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// Management Service overhead (preflight, keying, backoff,
    /// async-pool wait).
    Management,
    /// Memo-cache lookup.
    MemoLookup,
    /// Broker enqueue, queue wait and transport.
    BrokerWait,
    /// Task Manager dispatch and reply collection.
    TmDispatch,
    /// Waiting in a replica's job queue.
    ReplicaWait,
    /// Servable inference execution.
    Execute,
    /// Waiting for a batch to fill before flushing.
    BatchWait,
}

impl Stage {
    /// Every stage, in critical-path order.
    pub const ALL: [Stage; 7] = [
        Stage::Management,
        Stage::MemoLookup,
        Stage::BrokerWait,
        Stage::TmDispatch,
        Stage::ReplicaWait,
        Stage::Execute,
        Stage::BatchWait,
    ];

    /// Stable snake_case name used in JSON and CLI output.
    pub fn name(&self) -> &'static str {
        match self {
            Stage::Management => "management",
            Stage::MemoLookup => "memo_lookup",
            Stage::BrokerWait => "broker_wait",
            Stage::TmDispatch => "tm_dispatch",
            Stage::ReplicaWait => "replica_wait",
            Stage::Execute => "execute",
            Stage::BatchWait => "batch_wait",
        }
    }
}

/// Nanoseconds attributed to each stage. Always sums to the total the
/// breakdown was computed for.
pub type StageNs = Vec<(Stage, u64)>;

fn zeroed() -> StageNs {
    Stage::ALL.iter().map(|s| (*s, 0)).collect()
}

fn add(stages: &mut StageNs, stage: Stage, ns: u64) {
    for (s, v) in stages.iter_mut() {
        if *s == stage {
            *v += ns;
            return;
        }
    }
}

/// Merge possibly-overlapping `[start, end)` intervals and return the
/// total covered length.
fn union_len(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.retain(|(s, e)| e > s);
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = 0u64;
    for (s, e) in intervals {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
        cursor = cursor.max(e);
    }
    covered
}

fn clamp(span: &SpanRecord, lo: u64, hi: u64) -> (u64, u64) {
    (span.start_ns.clamp(lo, hi), span.end_ns.clamp(lo, hi))
}

fn attr_u64(span: &SpanRecord, key: &str) -> Option<u64> {
    span.attr(key).and_then(|v| v.parse().ok())
}

/// Stage decomposition of one request frame (a `request`, `pipeline`
/// or `batch_flush` root), or of one pipeline step.
#[derive(Debug, Clone)]
pub struct RequestBreakdown {
    /// Trace the request belongs to.
    pub trace: u64,
    /// Span id of the request.
    pub span: u64,
    /// Servable the request targeted (empty when unattributed).
    pub servable: String,
    /// Total wall time attributed, nanoseconds. Equals the span's
    /// duration plus any `batch_wait_ns`.
    pub total_ns: u64,
    /// Per-stage attribution; sums exactly to `total_ns`.
    pub stages: StageNs,
    /// Delivery attempts observed.
    pub attempts: usize,
    /// Whether the request was answered from the memo cache.
    pub cache_hit: bool,
    /// Whether the request ended in an error.
    pub error: bool,
}

/// Full analysis of one trace.
#[derive(Debug, Clone)]
pub struct TraceAnalysis {
    /// The analyzed trace id.
    pub trace: u64,
    /// Root kind: `"request"`, `"pipeline"` or `"batch_flush"`.
    pub kind: &'static str,
    /// What the root served: a servable id, or the pipeline's name.
    pub servable: String,
    /// Total wall time of the root (plus a flush's batch wait),
    /// nanoseconds.
    pub total_ns: u64,
    /// The root's own breakdown, or for a pipeline one row per step
    /// that ran, read from its `inference` spans (none for a memo hit).
    pub requests: Vec<RequestBreakdown>,
    /// Aggregate per-stage attribution; sums exactly to `total_ns`.
    pub stages: StageNs,
    /// False when any span references a parent missing from the trace
    /// — pair with the snapshot's `spans_dropped` before trusting the
    /// attribution of an incomplete trace.
    pub complete: bool,
}

/// Split `[lo, hi)` into `(tm_dispatch, replica_wait, execute)`
/// nanoseconds summing exactly to its length: time under one of the
/// `inferences` is execute; time between a job's `queued_ns` stamp and
/// its start that no inference covers is replica wait (hand-off to
/// pickup); the rest — routing, job construction, a chain's hop from one
/// step to the next, reply collection — is dispatch.
fn split_interval(lo: u64, hi: u64, inferences: &[&SpanRecord]) -> (u64, u64, u64) {
    let running: Vec<(u64, u64)> = inferences.iter().map(|s| clamp(s, lo, hi)).collect();
    let execute = union_len(running.clone());
    let queued = inferences.iter().filter_map(|s| {
        let queued = attr_u64(s, "queued_ns")?;
        Some((queued.clamp(lo, hi), s.start_ns.clamp(lo, hi)))
    });
    let replica_wait = union_len(running.into_iter().chain(queued).collect()) - execute;
    (hi - lo - execute - replica_wait, replica_wait, execute)
}

/// The `inference` children of the span `parent`.
fn inferences_under<'a>(spans: &[&'a SpanRecord], parent: u64) -> Vec<&'a SpanRecord> {
    spans
        .iter()
        .filter(|s| s.parent == parent && s.name == "inference")
        .copied()
        .collect()
}

/// Decompose the span `inv` (an `invocation`) into
/// `(tm_dispatch, replica_wait, execute)` nanoseconds summing exactly
/// to its duration.
fn decompose_invocation(spans: &[&SpanRecord], inv: &SpanRecord) -> (u64, u64, u64) {
    let end = inv.end_ns.max(inv.start_ns);
    split_interval(inv.start_ns, end, &inferences_under(spans, inv.span))
}

/// One row per step of a pipeline, read from the `inference` spans of
/// the invocation that answered (the last one to end without an error,
/// else the last; its `failed_step` attr marks the row that failed).
/// Step *k* spans from step *k* − 1's last inference end (the
/// invocation's start, for the first step) to its own, and partitions
/// exactly into dispatch — the hop from the step before, at the Task
/// Manager — replica wait and execute.
fn step_rows(spans: &[&SpanRecord], root: &SpanRecord, attempts: usize) -> Vec<RequestBreakdown> {
    let invocations = spans
        .iter()
        .filter(|s| s.parent == root.span && s.name == "invocation");
    let Some(inv) = invocations.max_by_key(|s| (s.attr("error").is_none(), s.end_ns)) else {
        return Vec::new();
    };
    let step_of = |s: &SpanRecord| attr_u64(s, "step").unwrap_or(0);
    let mut inferences = inferences_under(spans, inv.span);
    inferences.sort_by_key(|s| (step_of(s), s.start_ns));
    let failed_step = attr_u64(inv, "failed_step");
    let mut rows = Vec::new();
    let mut from = inv.start_ns;
    for step in inferences.chunk_by(|a, b| step_of(a) == step_of(b)) {
        let to = step
            .iter()
            .map(|s| s.end_ns)
            .max()
            .unwrap_or(from)
            .max(from);
        let (tm, rw, ex) = split_interval(from, to, step);
        let mut stages = zeroed();
        add(&mut stages, Stage::TmDispatch, tm);
        add(&mut stages, Stage::ReplicaWait, rw);
        add(&mut stages, Stage::Execute, ex);
        rows.push(RequestBreakdown {
            trace: root.trace,
            span: step[0].span,
            servable: step[0].attr("servable").unwrap_or_default().to_string(),
            total_ns: to - from,
            stages,
            attempts,
            cache_hit: false,
            error: failed_step == Some(step_of(step[0])),
        });
        from = to;
    }
    rows
}

/// Decompose one request frame into stages.
fn decompose_request(spans: &[&SpanRecord], req: &SpanRecord) -> RequestBreakdown {
    let (lo, hi) = (req.start_ns, req.end_ns);
    let total_span = hi.saturating_sub(lo);
    let mut stages = zeroed();

    let children: Vec<&&SpanRecord> = spans.iter().filter(|s| s.parent == req.span).collect();

    let batch_wait = attr_u64(req, "batch_wait_ns").unwrap_or(0);
    add(&mut stages, Stage::BatchWait, batch_wait);

    let mut memo = 0u64;
    for lookup in children.iter().filter(|s| s.name == "memo_lookup") {
        let (s, e) = clamp(lookup, lo, hi);
        memo += e - s;
    }
    add(&mut stages, Stage::MemoLookup, memo);

    let attempts: Vec<&&SpanRecord> = children
        .iter()
        .filter(|s| s.name == "attempt")
        .copied()
        .collect();
    let invocations: Vec<&&SpanRecord> = children
        .iter()
        .filter(|s| s.name == "invocation")
        .copied()
        .collect();

    let mut delegated = 0u64;
    for attempt in &attempts {
        let (a_start, a_end) = clamp(attempt, lo, hi);
        let a_dur = a_end - a_start;
        delegated += a_dur;
        let overlapping: Vec<&&SpanRecord> = invocations
            .iter()
            .filter(|i| i.start_ns < a_end && i.end_ns > a_start)
            .copied()
            .collect();
        let covered = union_len(
            overlapping
                .iter()
                .map(|i| clamp(i, a_start, a_end))
                .collect(),
        );
        add(&mut stages, Stage::BrokerWait, a_dur - covered);
        for inv in overlapping {
            let (tm, rw, ex) = decompose_invocation(spans, inv);
            let inv_dur = inv.end_ns.saturating_sub(inv.start_ns);
            let (c_start, c_end) = clamp(inv, a_start, a_end);
            let clipped = c_end - c_start;
            // An invocation clipped by the attempt boundary (e.g. a
            // redelivered task still running when the retry fired) is
            // scaled proportionally so the partition stays exact.
            let (tm, rw, ex) = if clipped == inv_dur || inv_dur == 0 {
                (tm, rw, ex)
            } else {
                let scaled_ex = ex * clipped / inv_dur;
                let scaled_rw = rw * clipped / inv_dur;
                (clipped - scaled_ex - scaled_rw, scaled_rw, scaled_ex)
            };
            add(&mut stages, Stage::TmDispatch, tm);
            add(&mut stages, Stage::ReplicaWait, rw);
            add(&mut stages, Stage::Execute, ex);
        }
    }

    let management = total_span.saturating_sub(memo + delegated);
    add(&mut stages, Stage::Management, management);

    RequestBreakdown {
        trace: req.trace,
        span: req.span,
        servable: req.attr("servable").unwrap_or_default().to_string(),
        total_ns: total_span + batch_wait,
        stages,
        attempts: attempts.len(),
        cache_hit: req.attr("cache_hit") == Some("true"),
        error: req.attr("error").is_some(),
    }
}

/// Analyze one trace in an export: find the root (`pipeline` >
/// `request` > `batch_flush`), the frame every entry point opens,
/// decompose it into stage attributions that sum exactly to its wall
/// time, and for a pipeline read one row per step from the inference
/// spans its one invocation holds. `None` when the trace has no spans
/// or no recognizable root.
pub fn analyze(export: &TraceExport, trace: u64) -> Option<TraceAnalysis> {
    let spans: Vec<&SpanRecord> = export.spans.iter().filter(|s| s.trace == trace).collect();
    if spans.is_empty() {
        return None;
    }
    let present = |id: u64| spans.iter().any(|s| s.span == id);
    let complete = spans.iter().all(|s| s.parent == 0 || present(s.parent));
    let roots: Vec<&&SpanRecord> = spans
        .iter()
        .filter(|s| s.parent == 0 || !present(s.parent))
        .collect();
    let root = ["pipeline", "request", "batch_flush"]
        .iter()
        .find_map(|name| roots.iter().find(|s| s.name == *name))?;
    let kind = match root.name {
        "pipeline" => "pipeline",
        "batch_flush" => "batch_flush",
        _ => "request",
    };
    let frame = decompose_request(&spans, root);
    let requests = match kind {
        "pipeline" => step_rows(&spans, root, frame.attempts),
        _ => vec![frame.clone()],
    };
    Some(TraceAnalysis {
        trace,
        kind,
        servable: frame.servable,
        total_ns: frame.total_ns,
        requests,
        stages: frame.stages,
        complete,
    })
}

/// Analyze every trace present in an export, skipping traces without a
/// recognizable root (bare events, orphan spans).
pub fn analyze_all(export: &TraceExport) -> Vec<TraceAnalysis> {
    export
        .trace_ids()
        .into_iter()
        .filter_map(|t| analyze(export, t))
        .collect()
}

/// Sum stage attributions across analyses (for fleet-wide CLI views).
pub fn aggregate_stages(analyses: &[TraceAnalysis]) -> StageNs {
    let mut total = zeroed();
    for analysis in analyses {
        for (stage, ns) in &analysis.stages {
            add(&mut total, *stage, *ns);
        }
    }
    total
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Render a stage vector as an indented table with percentages of
/// `total_ns`; zero stages are skipped.
pub fn render_stages(stages: &StageNs, total_ns: u64, out: &mut String) {
    for (stage, ns) in stages {
        if *ns == 0 {
            continue;
        }
        let pct = if total_ns > 0 {
            *ns as f64 * 100.0 / total_ns as f64
        } else {
            0.0
        };
        out.push_str(&format!(
            "  {:<12} {:>10.3}ms  {pct:>5.1}%\n",
            stage.name(),
            ms(*ns)
        ));
    }
}

impl RequestBreakdown {
    /// JSON form used by `dlhub analyze --json`.
    pub fn to_json(&self) -> Value {
        let stages: Vec<Value> = self
            .stages
            .iter()
            .map(|(s, ns)| json!({ "stage": s.name(), "ns": ns }))
            .collect();
        json!({
            "span": self.span,
            "servable": self.servable,
            "total_ns": self.total_ns,
            "stages": Value::Array(stages),
            "attempts": self.attempts,
            "cache_hit": self.cache_hit,
            "error": self.error,
        })
    }
}

impl TraceAnalysis {
    /// JSON form used by `dlhub analyze --json`.
    pub fn to_json(&self) -> Value {
        let stages: Vec<Value> = self
            .stages
            .iter()
            .map(|(s, ns)| json!({ "stage": s.name(), "ns": ns }))
            .collect();
        let requests: Vec<Value> = self.requests.iter().map(|r| r.to_json()).collect();
        json!({
            "trace": self.trace,
            "kind": self.kind,
            "servable": self.servable,
            "total_ns": self.total_ns,
            "stages": Value::Array(stages),
            "requests": Value::Array(requests),
            "complete": self.complete,
        })
    }

    /// Terminal rendering for `dlhub analyze`.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "trace {:#x}  {} {}  total {:.3}ms{}\n",
            self.trace,
            self.kind,
            self.servable,
            ms(self.total_ns),
            if self.complete { "" } else { "  [incomplete]" },
        ));
        render_stages(&self.stages, self.total_ns, &mut out);
        if self.kind == "pipeline" {
            for req in &self.requests {
                out.push_str(&format!(
                    "  step {}  total {:.3}ms  attempts {}{}{}\n",
                    req.servable,
                    ms(req.total_ns),
                    req.attempts,
                    if req.cache_hit { "  cached" } else { "" },
                    if req.error { "  ERROR" } else { "" },
                ));
            }
        }
        out
    }

    /// The sum of the stage vector — always equals
    /// [`total_ns`](TraceAnalysis::total_ns); exposed so tests and
    /// callers can assert the invariant cheaply.
    pub fn stage_sum(&self) -> u64 {
        self.stages.iter().map(|(_, ns)| ns).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Tracer;

    fn span(
        trace: u64,
        span: u64,
        parent: u64,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        attrs: Vec<(&'static str, String)>,
    ) -> SpanRecord {
        SpanRecord {
            trace,
            span,
            parent,
            name,
            start_ns,
            end_ns,
            attrs,
        }
    }

    fn stage(analysis: &TraceAnalysis, s: Stage) -> u64 {
        analysis
            .stages
            .iter()
            .find(|(st, _)| *st == s)
            .map(|(_, ns)| *ns)
            .unwrap()
    }

    #[test]
    fn synthetic_request_partitions_exactly() {
        // request 0..1000; memo 10..30; attempt 50..950;
        // invocation 100..900; inference 300..800 queued at 150.
        let export = TraceExport {
            spans: vec![
                span(
                    1,
                    10,
                    0,
                    "request",
                    0,
                    1000,
                    vec![("servable", "a/b".into())],
                ),
                span(1, 11, 10, "memo_lookup", 10, 30, vec![]),
                span(1, 12, 10, "attempt", 50, 950, vec![]),
                span(1, 13, 10, "invocation", 100, 900, vec![]),
                span(
                    1,
                    14,
                    13,
                    "inference",
                    300,
                    800,
                    vec![("queued_ns", "150".into())],
                ),
            ],
        };
        let a = analyze(&export, 1).unwrap();
        assert_eq!(a.kind, "request");
        assert_eq!(a.total_ns, 1000);
        assert_eq!(a.stage_sum(), 1000);
        assert!(a.complete);
        assert_eq!(stage(&a, Stage::MemoLookup), 20);
        // attempt 900ns, invocation covers 800 → broker 100.
        assert_eq!(stage(&a, Stage::BrokerWait), 100);
        assert_eq!(stage(&a, Stage::Execute), 500);
        // queued at 150, inference at 300 → 150 replica wait.
        assert_eq!(stage(&a, Stage::ReplicaWait), 150);
        // invocation 800 − 500 execute − 150 wait = 150 dispatch.
        assert_eq!(stage(&a, Stage::TmDispatch), 150);
        // request 1000 − memo 20 − attempt 900 = 80 management.
        assert_eq!(stage(&a, Stage::Management), 80);
    }

    #[test]
    fn cache_hit_is_memo_plus_management() {
        let export = TraceExport {
            spans: vec![
                span(
                    2,
                    20,
                    0,
                    "request",
                    0,
                    100,
                    vec![("servable", "a/b".into()), ("cache_hit", "true".into())],
                ),
                span(2, 21, 20, "memo_lookup", 5, 45, vec![]),
            ],
        };
        let a = analyze(&export, 2).unwrap();
        assert_eq!(a.stage_sum(), 100);
        assert_eq!(stage(&a, Stage::MemoLookup), 40);
        assert_eq!(stage(&a, Stage::Management), 60);
        assert!(a.requests[0].cache_hit);
    }

    #[test]
    fn pipeline_aggregates_steps_and_glue() {
        // pipeline 0..1000; attempt 50..950; one invocation 100..900
        // holding three steps, each queued 50ns before it runs.
        let step = |span, step: u64, servable: &str, start: u64, end| {
            let attrs = vec![
                ("servable", servable.to_string()),
                ("step", step.to_string()),
                ("queued_ns", (start - 50).to_string()),
            ];
            self::span(3, span, 32, "inference", start, end, attrs)
        };
        let export = TraceExport {
            spans: vec![
                span(
                    3,
                    30,
                    0,
                    "pipeline",
                    0,
                    1000,
                    vec![("servable", "enthalpy".into())],
                ),
                span(3, 31, 30, "attempt", 50, 950, vec![]),
                span(3, 32, 30, "invocation", 100, 900, vec![]),
                step(33, 0, "p/one", 200, 300),
                step(35, 2, "p/three", 700, 850),
                step(34, 1, "p/two", 450, 600),
            ],
        };
        let a = analyze(&export, 3).unwrap();
        assert_eq!(a.kind, "pipeline");
        assert_eq!(a.servable, "enthalpy");
        assert_eq!(a.total_ns, 1000);
        assert_eq!(a.stage_sum(), 1000);
        assert_eq!(stage(&a, Stage::Management), 100);
        assert_eq!(stage(&a, Stage::BrokerWait), 100);
        assert_eq!(stage(&a, Stage::Execute), 400);
        assert_eq!(stage(&a, Stage::ReplicaWait), 150);
        // Decode, the two hops between steps and the reply.
        assert_eq!(stage(&a, Stage::TmDispatch), 250);
        // One row per step, in step order, each an exact partition from
        // the step before's end to its own.
        let rows: Vec<(&str, u64)> = a
            .requests
            .iter()
            .map(|r| (r.servable.as_str(), r.total_ns))
            .collect();
        assert_eq!(rows, [("p/one", 200), ("p/two", 300), ("p/three", 250)]);
        for row in &a.requests {
            assert_eq!(
                row.stages.iter().map(|(_, ns)| ns).sum::<u64>(),
                row.total_ns
            );
        }
        let two = &a.requests[1];
        let two_stage = |s| two.stages.iter().find(|(k, _)| *k == s).unwrap().1;
        assert_eq!(two_stage(Stage::TmDispatch), 100);
        assert_eq!(two_stage(Stage::ReplicaWait), 50);
        assert_eq!(two_stage(Stage::Execute), 150);
        assert!(a.render_text().contains("step p/two"));
    }

    #[test]
    fn batch_flush_accounts_the_batcher_wait() {
        let export = TraceExport {
            spans: vec![
                span(
                    4,
                    40,
                    0,
                    "batch_flush",
                    1000,
                    1600,
                    vec![("servable", "a/b".into()), ("batch_wait_ns", "400".into())],
                ),
                span(4, 41, 40, "attempt", 1100, 1500, vec![]),
            ],
        };
        let a = analyze(&export, 4).unwrap();
        assert_eq!(a.kind, "batch_flush");
        assert_eq!(a.total_ns, 1000); // 600 span + 400 wait
        assert_eq!(a.stage_sum(), 1000);
        assert_eq!(stage(&a, Stage::BatchWait), 400);
        assert_eq!(stage(&a, Stage::BrokerWait), 400);
        assert_eq!(stage(&a, Stage::Management), 200);
    }

    #[test]
    fn incomplete_traces_are_flagged() {
        let export = TraceExport {
            spans: vec![
                span(5, 50, 0, "request", 0, 100, vec![]),
                span(5, 51, 999, "inference", 10, 90, vec![]), // orphan
            ],
        };
        let a = analyze(&export, 5).unwrap();
        assert!(!a.complete);
        assert!(a.render_text().contains("[incomplete]"));
        assert_eq!(a.stage_sum(), a.total_ns);
    }

    #[test]
    fn unrecognized_traces_yield_none() {
        let tracer = Tracer::new();
        tracer.event(None, "slo_alert", []);
        let export = tracer.export(None);
        assert!(analyze(&export, 12345).is_none());
        assert!(analyze_all(&export).is_empty());
    }

    #[test]
    fn aggregate_sums_across_traces() {
        let export = TraceExport {
            spans: vec![
                span(6, 60, 0, "request", 0, 100, vec![]),
                span(7, 70, 0, "request", 0, 300, vec![]),
            ],
        };
        let analyses = analyze_all(&export);
        assert_eq!(analyses.len(), 2);
        let total = aggregate_stages(&analyses);
        assert_eq!(total.iter().map(|(_, ns)| ns).sum::<u64>(), 400);
    }
}
