//! Alert-triggered flight recorder.
//!
//! A burn-rate alert firing at 3 a.m. is only useful if it arrives
//! with evidence. The flight recorder keeps a bounded ring of recent
//! diagnostic bundles: when an SLO transitions to firing
//! ([`FlightRecorder::slo_firing`], called by the winner of the
//! tracker's CAS transition) or a task reaches a terminal
//! `TaskStatus::Failed` ([`FlightRecorder::task_failed`]), it
//! atomically freezes everything the observability layer knows at that
//! instant — the profiler's collapsed-stack slice, the ranked
//! contention table, the most recent exemplar span trees, and the
//! metrics delta since the previous freeze — into a [`Bundle`]
//! retrievable later via `dlhub bundle`.
//!
//! # Cost discipline
//!
//! Like the profiler, the handle wraps an `Arc<OnceLock<..>>`: a
//! disabled recorder's trigger hooks are one atomic load and a branch,
//! and no ring, baseline snapshot or source handles exist anywhere.
//! Enabled, the *triggers* are still the only cost — nothing is
//! recorded continuously; the freeze itself runs on the (already slow,
//! already failing) alerting path.
//!
//! # Freeze semantics
//!
//! One mutex serialises freezes: each bundle's `metrics_delta` is
//! computed against the baseline left by the previous freeze (the
//! first freeze uses the enable-time baseline), so consecutive bundle
//! deltas partition the deployment's metric history. The bundle ring
//! holds the `capacity` most recent bundles; a bounded event ring
//! remembers the trigger line of every freeze, including bundles that
//! have since rotated out.

use std::collections::hash_map::DefaultHasher;
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;
use serde_json::{json, Value};

use crate::contention::{render_contention, ContentionRegistry, ContentionSnapshot};
use crate::metrics::{MetricsSnapshot, Registry};
use crate::profile::{ProfileReport, ProfilerHandle};
use crate::trace::{now_ns, TraceExport, Tracer};

/// Trigger lines remembered after their bundles rotate out.
const EVENT_RING: usize = 256;

/// Most recent traces embedded in a bundle.
const BUNDLE_TRACES: usize = 8;

/// Everything a freeze snapshots. Handles are cheap clones sharing the
/// deployment's state.
#[derive(Clone)]
pub struct RecorderSources {
    /// Span store for exemplar trace trees.
    pub tracer: Tracer,
    /// Metrics registry for the per-bundle delta.
    pub metrics: Registry,
    /// Contention sites for the ranked wait table.
    pub contention: ContentionRegistry,
    /// Profiler for the collapsed-stack slice.
    pub profiler: ProfilerHandle,
}

/// Why a bundle was frozen.
#[derive(Debug, Clone, PartialEq)]
pub enum BundleTrigger {
    /// An SLO transitioned to firing.
    SloFiring {
        /// Servable whose objective fired.
        servable: String,
        /// `"latency"` or `"availability"`.
        objective: String,
        /// Fast-window burn rate at the transition.
        burn_fast: f64,
        /// Slow-window burn rate at the transition.
        burn_slow: f64,
    },
    /// A task reached terminal `Failed`.
    TaskFailed {
        /// Task id.
        task: String,
        /// Servable the task targeted.
        servable: String,
        /// Attempts consumed before giving up.
        attempts: u32,
        /// Final attempt's error.
        last_error: String,
    },
    /// The admission controller crossed its shed-storm threshold: load
    /// shedding went from incidental to sustained inside one window.
    ShedStorm {
        /// Requests shed within the storm window.
        shed: u64,
        /// Storm window length in milliseconds.
        window_ms: u64,
    },
}

impl BundleTrigger {
    /// Short kind tag (`slo_firing` / `task_failed` / `shed_storm`).
    pub fn kind(&self) -> &'static str {
        match self {
            BundleTrigger::SloFiring { .. } => "slo_firing",
            BundleTrigger::TaskFailed { .. } => "task_failed",
            BundleTrigger::ShedStorm { .. } => "shed_storm",
        }
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        match self {
            BundleTrigger::SloFiring {
                servable,
                objective,
                burn_fast,
                burn_slow,
            } => format!(
                "slo {servable} {objective} firing (burn fast {burn_fast:.2} / slow {burn_slow:.2})"
            ),
            BundleTrigger::TaskFailed {
                task,
                servable,
                attempts,
                last_error,
            } => format!("task {task} ({servable}) failed after {attempts} attempts: {last_error}"),
            BundleTrigger::ShedStorm { shed, window_ms } => {
                format!("admission shed storm: {shed} requests shed in {window_ms} ms")
            }
        }
    }

    /// The trigger's deterministic identity: every field that is a
    /// pure function of the workload and fault schedule. Burn rates,
    /// task ids and timestamps are timing-dependent and excluded, so
    /// two seeded chaos runs that fail the same way produce bundles
    /// with equal keys (see [`Bundle::fingerprint`]).
    pub fn deterministic_key(&self) -> String {
        match self {
            BundleTrigger::SloFiring {
                servable,
                objective,
                ..
            } => format!("slo_firing:{servable}:{objective}"),
            BundleTrigger::TaskFailed {
                servable,
                attempts,
                last_error,
                ..
            } => format!("task_failed:{servable}:{attempts}:{last_error}"),
            // Shed counts under a seeded sim are workload-determined;
            // the window is config. Both belong to the identity.
            BundleTrigger::ShedStorm { shed, window_ms } => {
                format!("shed_storm:{shed}:{window_ms}")
            }
        }
    }
}

/// One frozen diagnostic bundle.
#[derive(Debug, Clone)]
pub struct Bundle {
    /// Monotonic bundle id (1-based, per recorder).
    pub id: u64,
    /// Freeze time (ns since the process trace epoch).
    pub at_ns: u64,
    /// What froze it.
    pub trigger: BundleTrigger,
    /// Profiler slice at freeze time (`None` when profiling is off).
    pub profile: Option<ProfileReport>,
    /// Contention table at freeze time, ranked by total wait.
    pub contention: Vec<ContentionSnapshot>,
    /// Ids of the embedded recent traces, most recent first.
    pub trace_ids: Vec<u64>,
    /// Rendered span trees of those traces.
    pub traces: String,
    /// Metric activity since the previous freeze (or since enable).
    pub metrics_delta: MetricsSnapshot,
}

impl Bundle {
    /// Hash of the trigger's deterministic identity — equal across
    /// seeded reruns that fail identically.
    pub fn fingerprint(&self) -> u64 {
        let mut hasher = DefaultHasher::new();
        self.trigger.deterministic_key().hash(&mut hasher);
        hasher.finish()
    }

    /// JSON form for `dlhub bundle --json`.
    pub fn to_json(&self) -> Value {
        json!({
            "id": self.id,
            "at_ns": self.at_ns,
            "kind": self.trigger.kind(),
            "trigger": self.trigger.summary(),
            "fingerprint": format!("{:#018x}", self.fingerprint()),
            "profile": self.profile.as_ref().map(|p| p.to_json()),
            "contention": self.contention.iter().map(|c| c.to_json()).collect::<Vec<_>>(),
            "trace_ids": self.trace_ids.iter().map(|t| format!("{t:#x}")).collect::<Vec<_>>(),
            "metrics_delta": self.metrics_delta.to_json(),
        })
    }

    /// Terminal rendering for `dlhub bundle <id>`.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "bundle {}  [{}]  fingerprint {:#018x}\n  {}\n",
            self.id,
            self.trigger.kind(),
            self.fingerprint(),
            self.trigger.summary()
        ));
        out.push_str("\n== contention (ranked) ==\n");
        out.push_str(&render_contention(&self.contention));
        out.push_str("\n== profile (collapsed stacks) ==\n");
        match &self.profile {
            Some(report) => {
                out.push_str(&format!(
                    "{} samples @ {} Hz\n",
                    report.total_samples, report.hz
                ));
                out.push_str(&report.render_collapsed());
            }
            None => out.push_str("(profiler disabled)\n"),
        }
        out.push_str("\n== metrics delta since previous freeze ==\n");
        out.push_str(&self.metrics_delta.render_dashboard());
        out.push_str("\n== recent traces ==\n");
        out.push_str(&self.traces);
        out
    }
}

/// One remembered trigger line.
#[derive(Debug, Clone)]
pub struct RecorderEvent {
    /// Freeze time (ns since the process trace epoch).
    pub at_ns: u64,
    /// Bundle the trigger froze.
    pub bundle_id: u64,
    /// Trigger kind tag.
    pub kind: &'static str,
    /// Trigger summary line.
    pub summary: String,
}

struct RecorderInner {
    sources: RecorderSources,
    capacity: usize,
    seq: AtomicU64,
    /// One lock covers ring + baseline: freezes serialise, so bundle
    /// deltas partition metric history exactly.
    frozen: Mutex<FrozenState>,
    events: Mutex<VecDeque<RecorderEvent>>,
}

struct FrozenState {
    bundles: VecDeque<Arc<Bundle>>,
    baseline: MetricsSnapshot,
}

impl RecorderInner {
    fn freeze(&self, trigger: BundleTrigger) -> Arc<Bundle> {
        let at_ns = now_ns();
        let id = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        let profile = self.sources.profiler.report();
        let contention = self.sources.contention.snapshot();
        let export = self.sources.tracer.export(None);
        let mut latest: Vec<(u64, u64)> = Vec::new(); // (trace, max end_ns)
        for span in &export.spans {
            if span.trace == 0 {
                continue;
            }
            match latest.iter_mut().find(|(t, _)| *t == span.trace) {
                Some((_, end)) => *end = (*end).max(span.end_ns),
                None => latest.push((span.trace, span.end_ns)),
            }
        }
        latest.sort_by_key(|&(_, end)| std::cmp::Reverse(end));
        latest.truncate(BUNDLE_TRACES);
        let trace_ids: Vec<u64> = latest.iter().map(|(t, _)| *t).collect();
        let traces = TraceExport {
            spans: export
                .spans
                .iter()
                .filter(|s| trace_ids.contains(&s.trace))
                .cloned()
                .collect(),
        }
        .render_text();

        let mut frozen = self.frozen.lock();
        let current = self.sources.metrics.snapshot();
        let metrics_delta = current.delta_since(&frozen.baseline);
        frozen.baseline = current;
        let bundle = Arc::new(Bundle {
            id,
            at_ns,
            trigger,
            profile,
            contention,
            trace_ids,
            traces,
            metrics_delta,
        });
        frozen.bundles.push_back(Arc::clone(&bundle));
        while frozen.bundles.len() > self.capacity {
            frozen.bundles.pop_front();
        }
        drop(frozen);
        let mut events = self.events.lock();
        events.push_back(RecorderEvent {
            at_ns,
            bundle_id: bundle.id,
            kind: bundle.trigger.kind(),
            summary: bundle.trigger.summary(),
        });
        while events.len() > EVENT_RING {
            events.pop_front();
        }
        bundle
    }
}

/// Cloneable handle to one deployment's flight recorder. Disabled by
/// default (and statically near-free when disabled);
/// [`enable`](FlightRecorder::enable) flips every clone at once.
#[derive(Clone, Default)]
pub struct FlightRecorder {
    shared: Arc<OnceLock<Arc<RecorderInner>>>,
}

impl FlightRecorder {
    /// A disabled handle (same as `default()`).
    pub fn disabled() -> Self {
        FlightRecorder::default()
    }

    /// Arm the recorder: keep up to `capacity` bundles and snapshot
    /// `sources` on every trigger. The enable-time metrics snapshot
    /// becomes the first bundle's delta baseline. First enable wins;
    /// returns whether this call did the enabling.
    pub fn enable(&self, capacity: usize, sources: RecorderSources) -> bool {
        let mut created = false;
        self.shared.get_or_init(|| {
            created = true;
            let baseline = sources.metrics.snapshot();
            Arc::new(RecorderInner {
                sources,
                capacity: capacity.max(1),
                seq: AtomicU64::new(0),
                frozen: Mutex::new(FrozenState {
                    bundles: VecDeque::new(),
                    baseline,
                }),
                events: Mutex::new(VecDeque::new()),
            })
        });
        created
    }

    /// Whether any clone of this handle has been armed.
    pub fn enabled(&self) -> bool {
        self.shared.get().is_some()
    }

    /// Trigger: an SLO transitioned to firing (called by the CAS
    /// winner in `SloTracker::evaluate`). No-op when disabled.
    pub fn slo_firing(&self, servable: &str, objective: &str, burn_fast: f64, burn_slow: f64) {
        if let Some(inner) = self.shared.get() {
            inner.freeze(BundleTrigger::SloFiring {
                servable: servable.to_string(),
                objective: objective.to_string(),
                burn_fast,
                burn_slow,
            });
        }
    }

    /// Trigger: a task reached terminal `Failed`. No-op when disabled.
    pub fn task_failed(&self, task: &str, servable: &str, attempts: u32, last_error: &str) {
        if let Some(inner) = self.shared.get() {
            inner.freeze(BundleTrigger::TaskFailed {
                task: task.to_string(),
                servable: servable.to_string(),
                attempts,
                last_error: last_error.to_string(),
            });
        }
    }

    /// Trigger: the admission controller shed `shed` requests inside
    /// one `window_ms` storm window. No-op when disabled.
    pub fn shed_storm(&self, shed: u64, window_ms: u64) {
        if let Some(inner) = self.shared.get() {
            inner.freeze(BundleTrigger::ShedStorm { shed, window_ms });
        }
    }

    /// Retained bundles, oldest first. Empty when disabled.
    pub fn bundles(&self) -> Vec<Arc<Bundle>> {
        match self.shared.get() {
            Some(inner) => inner.frozen.lock().bundles.iter().cloned().collect(),
            None => Vec::new(),
        }
    }

    /// Look up a retained bundle by id.
    pub fn bundle(&self, id: u64) -> Option<Arc<Bundle>> {
        self.shared.get().and_then(|inner| {
            inner
                .frozen
                .lock()
                .bundles
                .iter()
                .find(|b| b.id == id)
                .cloned()
        })
    }

    /// The most recent bundle, if any.
    pub fn latest(&self) -> Option<Arc<Bundle>> {
        self.shared
            .get()
            .and_then(|inner| inner.frozen.lock().bundles.back().cloned())
    }

    /// Trigger lines remembered (bounded), oldest first — survives
    /// bundle rotation.
    pub fn events(&self) -> Vec<RecorderEvent> {
        match self.shared.get() {
            Some(inner) => inner.events.lock().iter().cloned().collect(),
            None => Vec::new(),
        }
    }

    /// Total freezes since enablement.
    pub fn frozen_total(&self) -> u64 {
        self.shared
            .get()
            .map(|inner| inner.seq.load(Ordering::Relaxed))
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn sources() -> RecorderSources {
        RecorderSources {
            tracer: Tracer::new(),
            metrics: Registry::new(),
            contention: ContentionRegistry::new(),
            profiler: ProfilerHandle::disabled(),
        }
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let recorder = FlightRecorder::disabled();
        recorder.slo_firing("dlhub/echo", "latency", 10.0, 8.0);
        recorder.task_failed("task-1", "dlhub/echo", 4, "boom");
        assert!(!recorder.enabled());
        assert!(recorder.bundles().is_empty());
        assert!(recorder.events().is_empty());
        assert_eq!(recorder.frozen_total(), 0);
    }

    #[test]
    fn freeze_captures_delta_contention_and_traces() {
        let src = sources();
        src.metrics.counter("requests_total").add(5);
        let recorder = FlightRecorder::disabled();
        recorder.enable(4, src.clone());
        // Activity after enable: only this lands in the first delta.
        src.metrics.counter("requests_total").add(3);
        src.contention
            .site("memo.shard_lock")
            .record(Duration::from_micros(50));
        let span = src.tracer.start_root("request");
        src.tracer.finish(span);

        recorder.slo_firing("dlhub/echo", "latency", 12.0, 6.5);
        let bundle = recorder.latest().expect("bundle frozen");
        assert_eq!(bundle.id, 1);
        assert_eq!(bundle.trigger.kind(), "slo_firing");
        let delta = bundle
            .metrics_delta
            .counters
            .iter()
            .find(|(n, _)| n == "requests_total")
            .map(|(_, v)| *v);
        assert_eq!(delta, Some(3), "delta must start at the enable baseline");
        assert_eq!(bundle.contention.len(), 1);
        assert_eq!(bundle.contention[0].wait.count, 1);
        assert_eq!(bundle.trace_ids.len(), 1);
        assert!(bundle.traces.contains("request"), "{}", bundle.traces);
        assert!(bundle.profile.is_none());
        let text = bundle.render_text();
        assert!(text.contains("slo dlhub/echo latency firing"), "{text}");
        assert!(text.contains("memo.shard_lock"), "{text}");

        // The next freeze's delta starts where this one ended.
        src.metrics.counter("requests_total").add(2);
        recorder.task_failed("task-9", "dlhub/echo", 4, "exploded");
        let second = recorder.latest().unwrap();
        assert_eq!(second.id, 2);
        let delta2 = second
            .metrics_delta
            .counters
            .iter()
            .find(|(n, _)| n == "requests_total")
            .map(|(_, v)| *v);
        assert_eq!(delta2, Some(2));
        assert_eq!(recorder.bundles().len(), 2);
        assert_eq!(recorder.frozen_total(), 2);
    }

    #[test]
    fn ring_is_bounded_but_events_remember() {
        let recorder = FlightRecorder::disabled();
        recorder.enable(2, sources());
        for i in 0..5 {
            recorder.task_failed(&format!("task-{i}"), "dlhub/x", 1, "err");
        }
        let bundles = recorder.bundles();
        assert_eq!(bundles.len(), 2);
        assert_eq!(bundles[0].id, 4);
        assert_eq!(bundles[1].id, 5);
        assert!(recorder.bundle(1).is_none());
        assert!(recorder.bundle(5).is_some());
        assert_eq!(recorder.events().len(), 5);
        assert_eq!(recorder.frozen_total(), 5);
    }

    #[test]
    fn fingerprints_are_deterministic_across_runs_and_ignore_timing() {
        let make = |burn: f64| {
            let recorder = FlightRecorder::disabled();
            recorder.enable(2, sources());
            recorder.slo_firing("dlhub/inception", "latency", burn, burn / 2.0);
            recorder.latest().unwrap().fingerprint()
        };
        // Same failure, different timing-dependent burn rates.
        assert_eq!(make(10.0), make(97.3));
        let other = {
            let recorder = FlightRecorder::disabled();
            recorder.enable(2, sources());
            recorder.slo_firing("dlhub/inception", "availability", 10.0, 5.0);
            recorder.latest().unwrap().fingerprint()
        };
        assert_ne!(make(10.0), other);
    }

    #[test]
    fn shed_storm_freezes_a_bundle() {
        let recorder = FlightRecorder::disabled();
        recorder.shed_storm(100, 1_000); // disabled: inert
        recorder.enable(2, sources());
        recorder.shed_storm(42, 1_000);
        let bundle = recorder.latest().expect("bundle frozen");
        assert_eq!(bundle.trigger.kind(), "shed_storm");
        assert!(bundle.trigger.summary().contains("42 requests shed"));
        assert_eq!(bundle.trigger.deterministic_key(), "shed_storm:42:1000");
    }

    #[test]
    fn bundle_json_is_well_formed() {
        let recorder = FlightRecorder::disabled();
        recorder.enable(2, sources());
        recorder.task_failed("t", "dlhub/echo", 4, "synthetic");
        let j = serde_json::to_string(&recorder.latest().unwrap().to_json()).unwrap();
        assert!(j.contains("\"kind\":\"task_failed\""), "{j}");
        assert!(j.contains("\"fingerprint\""), "{j}");
        assert!(j.contains("\"metrics_delta\""), "{j}");
    }
}
