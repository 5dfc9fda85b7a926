//! dlhub-obs: in-tree observability for the DLHub serving stack.
//!
//! The paper's evaluation (§V-A) rests on three nested measurement
//! points — `inference` at the servable, `invocation` at the Task
//! Manager, and `request` at the Management Service. This crate makes
//! those first-class at runtime:
//!
//! * [`trace`] — `TraceId`/`SpanId` propagation across tiers, spans
//!   recorded into lock-free per-thread rings and drained by a
//!   collector;
//! * [`metrics`] — named counters/gauges and log2-bucket latency
//!   histograms over relaxed atomics, with per-servable series;
//! * exposition — [`MetricsSnapshot`] renders Prometheus text, a CLI
//!   dashboard, and JSON for bench artifacts; [`TraceExport`] renders
//!   JSON dumps and terminal span trees.
//!
//! There is deliberately no process-global state: every deployment
//! (a `ManagementService` plus its Task Managers) shares one [`Obs`]
//! handle, so parallel tests in one process never interleave. Whoever
//! assembles the deployment builds the handle — choosing its
//! [`Telemetry`] mode then — and passes it to each tier's constructor;
//! nothing is attached or enabled afterwards.

#![warn(missing_docs)]

mod ring;

pub mod analyze;
pub mod collect;
pub mod metrics;
pub mod openloop;
pub mod slo;
pub mod trace;
pub mod tsdb;

pub use analyze::{
    aggregate_stages, analyze, analyze_all, render_stages, RequestBreakdown, Stage, StageNs,
    TraceAnalysis,
};
pub use collect::{Telemetry, TelemetryHandle};
pub use metrics::{
    bucket_bound, bucket_index, escape_label, BucketSnapshot, Counter, DispatchSums, Gauge,
    Histogram, HistogramSnapshot, HistogramSummary, MetricsSnapshot, Registry, ServableCost,
    ServableSeries, ServableSnapshot,
};
pub use openloop::{OpenLoopRecorder, OpenLoopReport, OpenLoopSample, SampleSummary};
pub use slo::{SloRegistry, SloSnapshot, SloSpec, SloTracker};
pub use trace::{now_ns, SpanHandle, SpanRecord, TraceContext, TraceExport, Tracer};
pub use tsdb::{
    default_tiers, servable_series, slo_series, ControlSignals, GaugeWindow, SeriesKind,
    SeriesStore, TierSpec,
};

use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;

/// One deployment's observability handle: a tracer plus a metrics
/// registry. Cheap to clone; clones share state, so the Management
/// Service, Task Managers, executors, cache and broker of one
/// deployment all record into the same place.
#[derive(Clone, Default)]
pub struct Obs {
    /// Span collector for end-to-end request tracing.
    pub tracer: Tracer,
    /// Counter/gauge/histogram registry.
    pub metrics: Registry,
    /// Per-servable SLO burn-rate trackers.
    pub slo: SloRegistry,
    /// Ring-buffered time-series history over this handle's metrics
    /// and SLOs, fed as the [`Telemetry`] mode given to
    /// [`with_telemetry`](Obs::with_telemetry) says.
    pub telemetry: TelemetryHandle,
    /// Baseline for [`delta`](Obs::delta): the snapshot the previous
    /// call returned against (empty before the first).
    delta_baseline: Arc<Mutex<MetricsSnapshot>>,
}

impl Obs {
    /// Fresh handle with empty tracer and registry and telemetry
    /// [`Off`](Telemetry::Off).
    pub fn new() -> Self {
        Obs::default()
    }

    /// Fresh handle whose time-series store is fed as `mode` says:
    /// sampled by a collector thread, or stepped by the caller through
    /// [`TelemetryHandle::sample_now`].
    pub fn with_telemetry(mode: Telemetry) -> Self {
        let metrics = Registry::new();
        let slo = SloRegistry::default();
        Obs {
            telemetry: TelemetryHandle::start(mode, metrics.clone(), slo.clone()),
            metrics,
            slo,
            ..Obs::default()
        }
    }

    /// Install an SLO for a servable, wiring its alert transitions into
    /// this handle's tracer and registry (`slo_alerts_fired_total`,
    /// `slo_alerts_active`).
    pub fn register_slo(&self, spec: SloSpec) {
        self.slo.register(
            spec,
            self.tracer.clone(),
            self.metrics.counter_with_help(
                "slo_alerts_fired_total",
                "SLO alert firing transitions since startup",
            ),
            self.metrics
                .gauge_with_help("slo_alerts_active", "SLO alerts currently firing"),
        );
    }

    /// Record one request outcome against the servable's SLO, if one
    /// is registered. A miss is a single read-locked map lookup.
    pub fn observe_slo(&self, servable: &str, latency: Duration, ok: bool) {
        self.slo.observe(servable, latency, ok);
    }

    /// Full snapshot: the metrics registry plus cross-cutting obs
    /// state — spans dropped by the tracer (ring overflow / store
    /// eviction) and every SLO tracker's burn rates and alert state.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.metrics.snapshot();
        snap.spans_dropped = self.tracer.dropped();
        snap.slos = self.slo.snapshot();
        snap
    }

    /// Reconstruct one trace's span tree and decompose its wall time
    /// into named serving stages (management overhead, broker wait,
    /// dispatch, replica queue-wait, execute, …). `None` when the trace
    /// id is unknown or its spans were evicted.
    pub fn analyze(&self, trace: u64) -> Option<TraceAnalysis> {
        analyze(&self.tracer.export(Some(trace)), trace)
    }

    /// Everything that changed since the previous call (or since this
    /// handle was created, on the first call): counters and histogram
    /// mass as differences; gauges as signed deltas.
    /// Consecutive calls exactly partition the metric history, so an
    /// operator can watch `dlhub stats --delta` like `iostat`.
    pub fn delta(&self) -> MetricsSnapshot {
        let current = self.snapshot();
        let mut baseline = self.delta_baseline.lock();
        let delta = current.delta_since(&baseline);
        *baseline = current;
        delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_tracer_and_registry() {
        let obs = Obs::new();
        let clone = obs.clone();
        clone.metrics.counter("x").inc();
        assert_eq!(obs.metrics.counter("x").get(), 1);
        let span = clone.tracer.start_root("request");
        clone.tracer.finish(span);
        assert_eq!(obs.tracer.export(None).spans.len(), 1);
    }

    #[test]
    fn obs_snapshot_carries_slos_and_dropped_spans() {
        let obs = Obs::new();
        obs.register_slo(
            SloSpec::new("dlhub/echo", Duration::from_millis(1))
                .latency_objective(0.9)
                .windows(Duration::from_millis(200), Duration::from_secs(2)),
        );
        for _ in 0..20 {
            obs.observe_slo("dlhub/echo", Duration::from_millis(50), true);
        }
        obs.observe_slo("dlhub/not-registered", Duration::from_secs(1), false);
        let snap = obs.snapshot();
        assert_eq!(snap.slos.len(), 1);
        assert!(snap.slos[0].firing, "{:?}", snap.slos[0]);
        assert_eq!(obs.metrics.counter("slo_alerts_fired_total").get(), 1);
        assert_eq!(obs.metrics.gauge("slo_alerts_active").get(), 1);
        assert_eq!(obs.tracer.export(None).named("slo_alert").len(), 1);
        assert_eq!(snap.spans_dropped, 0);
    }

    /// `dlhub stats`, `dlhub top` and the `workloads` artifact read
    /// this document; its top-level keys are their input.
    #[test]
    fn snapshot_json_keeps_its_top_level_keys() {
        let doc = Obs::new().snapshot().to_json();
        let keys: Vec<&str> = doc
            .as_object()
            .expect("snapshot renders an object")
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(
            keys,
            [
                "counters",
                "gauges",
                "histograms",
                "servables",
                "slos",
                "spans_dropped"
            ]
        );
    }

    #[test]
    fn ring_overflow_is_counted_in_the_snapshot() {
        let obs = Obs::new();
        // A single thread's SPSC ring holds 256 spans between drains;
        // recording more without draining must overflow and be counted.
        for _ in 0..400 {
            obs.tracer.finish(obs.tracer.start_root("request"));
        }
        let snap = obs.snapshot();
        assert!(
            snap.spans_dropped >= 144,
            "expected overflow, got {}",
            snap.spans_dropped
        );
        let prom = snap.render_prometheus();
        assert!(prom.contains("dlhub_spans_dropped_total"), "{prom}");
    }
}
