//! Per-servable service-level objectives with multi-window burn-rate
//! alerting.
//!
//! Each servable can declare a latency objective ("99% of requests
//! under 250ms") and an availability objective ("99.9% of requests
//! succeed"). Observations land in a ring of fixed time slices; burn
//! rate — the fraction of the error budget consumed per unit time,
//! `bad_fraction / (1 - objective)` — is evaluated over a *fast* and a
//! *slow* window, and an alert fires only when **both** exceed the
//! burn threshold (the multi-window multi-burn-rate discipline: the
//! slow window keeps one bad blip from paging, the fast window clears
//! the alert quickly once the bleeding stops). Alert transitions are
//! emitted as zero-duration obs events named `slo_alert` and counted
//! in the shared metrics registry.
//!
//! The record path is lock-free: one slice-epoch CAS plus a handful of
//! relaxed atomics per observation, so SLO tracking can stay enabled
//! on the serving hot path.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use dlhub_sync::atomic::{AtomicBool, AtomicU64, Ordering};
use dlhub_sync::time::now_ns;
use dlhub_sync::RwLock;
use serde_json::{json, Value};

use crate::metrics::{Counter, Gauge};
use crate::trace::Tracer;

/// Time slices in a tracker's ring. The slow window is divided evenly
/// across them; the fast window reads a prefix.
const SLICES: usize = 16;

/// Declarative objective for one servable, carried in
/// `ServingConfig::slos`.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    /// Servable id the objective applies to (e.g. `dlhub/inception`).
    pub servable: String,
    /// A request slower than this is "bad" for the latency objective.
    pub latency_threshold: Duration,
    /// Target fraction of requests under the threshold (e.g. `0.99`).
    pub latency_objective: f64,
    /// Target fraction of requests that succeed (e.g. `0.999`).
    pub availability_objective: f64,
    /// Short window: clears fast once the burn stops.
    pub fast_window: Duration,
    /// Long window: keeps one blip from firing. Also sets the ring's
    /// total span.
    pub slow_window: Duration,
    /// Burn rate (budget consumed per unit time) above which, in both
    /// windows at once, the alert fires.
    pub burn_threshold: f64,
}

impl SloSpec {
    /// An objective with production-shaped defaults: p99 latency under
    /// `threshold`, 99.9% availability, 5m/1h windows, burn 2.0.
    pub fn new(servable: impl Into<String>, threshold: Duration) -> Self {
        SloSpec {
            servable: servable.into(),
            latency_threshold: threshold,
            latency_objective: 0.99,
            availability_objective: 0.999,
            fast_window: Duration::from_secs(300),
            slow_window: Duration::from_secs(3600),
            burn_threshold: 2.0,
        }
    }

    /// Override both evaluation windows (tests shrink these so alerts
    /// fire within a test budget).
    pub fn windows(mut self, fast: Duration, slow: Duration) -> Self {
        self.fast_window = fast;
        self.slow_window = slow.max(fast);
        self
    }

    /// Override the latency objective fraction.
    pub fn latency_objective(mut self, objective: f64) -> Self {
        self.latency_objective = objective.clamp(0.0, 0.999_999);
        self
    }

    /// Override the availability objective fraction.
    pub fn availability_objective(mut self, objective: f64) -> Self {
        self.availability_objective = objective.clamp(0.0, 0.999_999);
        self
    }

    /// Override the burn-rate threshold.
    pub fn burn_threshold(mut self, threshold: f64) -> Self {
        self.burn_threshold = threshold.max(0.0);
        self
    }
}

/// One time slice of observations. `epoch` is the absolute slice
/// index the counters belong to; a writer landing in a recycled slot
/// CASes the epoch forward and zeroes the counters first.
#[derive(Default)]
struct Slice {
    epoch: AtomicU64,
    total: AtomicU64,
    lat_bad: AtomicU64,
    err: AtomicU64,
}

/// Live burn-rate tracker for one servable.
pub struct SloTracker {
    spec: SloSpec,
    slice_ns: u64,
    slices: [Slice; SLICES],
    firing: AtomicBool,
    alerts_fired: Counter,
    tracer: Tracer,
    fired_total: Arc<Counter>,
    active: Arc<Gauge>,
}

/// Burn rates over the two windows for one objective.
#[derive(Debug, Clone, Copy, Default)]
struct Burn {
    fast: f64,
    slow: f64,
    observed: u64,
}

impl SloTracker {
    fn new(spec: SloSpec, tracer: Tracer, fired_total: Arc<Counter>, active: Arc<Gauge>) -> Self {
        let slice_ns = (spec.slow_window.as_nanos() as u64 / SLICES as u64).max(1);
        SloTracker {
            spec,
            slice_ns,
            slices: std::array::from_fn(|_| Slice::default()),
            firing: AtomicBool::new(false),
            alerts_fired: Counter::new(),
            tracer,
            fired_total,
            active,
        }
    }

    /// Record one request outcome and re-evaluate the alert state.
    pub fn observe(&self, latency: Duration, ok: bool) {
        self.observe_at(latency, ok, now_ns());
    }

    /// [`Self::observe`] for an outcome the caller stamped at `at`
    /// ([`now_ns`] clock).
    pub fn observe_at(&self, latency: Duration, ok: bool, at: u64) {
        let epoch = at / self.slice_ns;
        let slice = &self.slices[epoch as usize % SLICES];
        // First writer into a recycled slot resets it for the new
        // epoch; losers of the race see the updated epoch and record
        // normally. A slightly torn reset only miscounts one slice.
        let seen = slice.epoch.load(Ordering::Acquire);
        if seen != epoch
            && slice
                .epoch
                .compare_exchange(seen, epoch, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
        {
            slice.total.store(0, Ordering::Relaxed);
            slice.lat_bad.store(0, Ordering::Relaxed);
            slice.err.store(0, Ordering::Relaxed);
        }
        slice.total.fetch_add(1, Ordering::Relaxed);
        if latency > self.spec.latency_threshold {
            slice.lat_bad.fetch_add(1, Ordering::Relaxed);
        }
        if !ok {
            slice.err.fetch_add(1, Ordering::Relaxed);
        }
        self.evaluate(at);
    }

    /// Sum `(total, bad)` over slices whose epoch falls within the
    /// last `window_slices` epochs ending at `now_epoch`.
    fn window(
        &self,
        now_epoch: u64,
        window_slices: u64,
        bad: impl Fn(&Slice) -> u64,
    ) -> (u64, u64) {
        let oldest = now_epoch.saturating_sub(window_slices.saturating_sub(1));
        let mut total = 0;
        let mut bad_sum = 0;
        for slice in &self.slices {
            let epoch = slice.epoch.load(Ordering::Acquire);
            if epoch >= oldest && epoch <= now_epoch {
                total += slice.total.load(Ordering::Relaxed);
                bad_sum += bad(slice);
            }
        }
        (total, bad_sum)
    }

    fn burn(&self, at: u64, objective: f64, bad: impl Fn(&Slice) -> u64 + Copy) -> Burn {
        let now_epoch = at / self.slice_ns;
        let fast_slices = (self.spec.fast_window.as_nanos() as u64)
            .div_ceil(self.slice_ns)
            .clamp(1, SLICES as u64);
        let budget = (1.0 - objective).max(f64::EPSILON);
        let rate = |(total, bad_sum): (u64, u64)| {
            if total == 0 {
                0.0
            } else {
                (bad_sum as f64 / total as f64) / budget
            }
        };
        let slow = self.window(now_epoch, SLICES as u64, bad);
        Burn {
            fast: rate(self.window(now_epoch, fast_slices, bad)),
            slow: rate(slow),
            observed: slow.0,
        }
    }

    fn evaluate(&self, at: u64) {
        let latency = self.burn(at, self.spec.latency_objective, |s| {
            s.lat_bad.load(Ordering::Relaxed)
        });
        let avail = self.burn(at, self.spec.availability_objective, |s| {
            s.err.load(Ordering::Relaxed)
        });
        let over =
            |b: Burn| b.fast >= self.spec.burn_threshold && b.slow >= self.spec.burn_threshold;
        let should_fire = over(latency) || over(avail);
        let was = self.firing.load(Ordering::Acquire);
        if should_fire == was {
            return;
        }
        // One thread wins the transition and emits the event.
        if self
            .firing
            .compare_exchange(was, should_fire, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return;
        }
        if should_fire {
            self.alerts_fired.inc();
            self.fired_total.inc();
            self.active.add(1);
        } else {
            self.active.add(-1);
        }
        let objective = if over(latency) {
            "latency"
        } else {
            "availability"
        };
        let burn_fast = latency.fast.max(avail.fast);
        let burn_slow = latency.slow.max(avail.slow);
        self.tracer.event(
            None,
            "slo_alert",
            [
                ("servable", self.spec.servable.clone().into()),
                (
                    "state",
                    if should_fire { "firing" } else { "resolved" }.into(),
                ),
                ("objective", objective.into()),
                ("burn_fast", format!("{burn_fast:.3}").into()),
                ("burn_slow", format!("{burn_slow:.3}").into()),
            ],
        );
    }

    /// Frozen view of the tracker, re-evaluating alert state first so
    /// a snapshot taken after traffic stops still reflects it.
    pub fn snapshot(&self) -> SloSnapshot {
        let at = now_ns();
        self.evaluate(at);
        let latency = self.burn(at, self.spec.latency_objective, |s| {
            s.lat_bad.load(Ordering::Relaxed)
        });
        let avail = self.burn(at, self.spec.availability_objective, |s| {
            s.err.load(Ordering::Relaxed)
        });
        SloSnapshot {
            servable: self.spec.servable.clone(),
            latency_threshold_ns: self.spec.latency_threshold.as_nanos() as u64,
            latency_objective: self.spec.latency_objective,
            availability_objective: self.spec.availability_objective,
            burn_threshold: self.spec.burn_threshold,
            latency_burn_fast: latency.fast,
            latency_burn_slow: latency.slow,
            availability_burn_fast: avail.fast,
            availability_burn_slow: avail.slow,
            observed: latency.observed,
            firing: self.firing.load(Ordering::Acquire),
            alerts_fired: self.alerts_fired.get(),
        }
    }
}

/// Frozen view of one servable's SLO state.
#[derive(Debug, Clone, Default)]
pub struct SloSnapshot {
    /// Servable under objective.
    pub servable: String,
    /// Latency threshold, nanoseconds.
    pub latency_threshold_ns: u64,
    /// Latency objective fraction.
    pub latency_objective: f64,
    /// Availability objective fraction.
    pub availability_objective: f64,
    /// Burn threshold both windows must exceed to fire.
    pub burn_threshold: f64,
    /// Latency burn rate over the fast window.
    pub latency_burn_fast: f64,
    /// Latency burn rate over the slow window.
    pub latency_burn_slow: f64,
    /// Availability burn rate over the fast window.
    pub availability_burn_fast: f64,
    /// Availability burn rate over the slow window.
    pub availability_burn_slow: f64,
    /// Requests observed inside the slow window.
    pub observed: u64,
    /// Whether the alert is currently firing.
    pub firing: bool,
    /// Alert activations since registration.
    pub alerts_fired: u64,
}

impl SloSnapshot {
    /// Fast-window burn of whichever objective burns faster: what the
    /// control pass compares against its thresholds.
    pub fn burn_fast(&self) -> f64 {
        self.latency_burn_fast.max(self.availability_burn_fast)
    }

    /// JSON form embedded in snapshot exports.
    pub fn to_json(&self) -> Value {
        json!({
            "servable": self.servable,
            "latency_threshold_ns": self.latency_threshold_ns,
            "latency_objective": self.latency_objective,
            "availability_objective": self.availability_objective,
            "burn_threshold": self.burn_threshold,
            "latency_burn_fast": self.latency_burn_fast,
            "latency_burn_slow": self.latency_burn_slow,
            "availability_burn_fast": self.availability_burn_fast,
            "availability_burn_slow": self.availability_burn_slow,
            "observed": self.observed,
            "firing": self.firing,
            "alerts_fired": self.alerts_fired,
        })
    }

    /// Terminal rendering for `dlhub slo`.
    pub fn render_text(&self) -> String {
        format!(
            "slo {}\n  latency      < {:.3}ms for {:.2}% — burn fast {:.2} / slow {:.2}\n  availability {:.3}% — burn fast {:.2} / slow {:.2}\n  state {}  alerts fired {}  observed {}\n",
            self.servable,
            self.latency_threshold_ns as f64 / 1e6,
            self.latency_objective * 100.0,
            self.latency_burn_fast,
            self.latency_burn_slow,
            self.availability_objective * 100.0,
            self.availability_burn_fast,
            self.availability_burn_slow,
            if self.firing { "FIRING" } else { "ok" },
            self.alerts_fired,
            self.observed,
        )
    }
}

/// One servable's place in an [`SloRegistry`]: the tracker registered
/// for it, reached without a lookup by name. A handle made before the
/// objective is registered sees it: [`SloRegistry::register`] installs
/// into the handle the name already has. So a request path may take
/// the handle at its first request and keep it.
#[derive(Default)]
pub struct SloHandle {
    /// Set once a tracker is installed: all a servable without an
    /// objective pays is this load.
    installed: AtomicBool,
    tracker: RwLock<Option<Arc<SloTracker>>>,
}

impl SloHandle {
    /// The tracker registered for this servable, if any.
    pub fn tracker(&self) -> Option<Arc<SloTracker>> {
        if !self.installed.load(Ordering::Acquire) {
            return None;
        }
        self.tracker.read().clone()
    }

    /// Record one request outcome, ended at `at_ns` ([`now_ns`] clock),
    /// against the servable's objective, if one is registered.
    pub fn observe_at(&self, latency: Duration, ok: bool, at_ns: u64) {
        if !self.installed.load(Ordering::Acquire) {
            return;
        }
        if let Some(tracker) = &*self.tracker.read() {
            tracker.observe_at(latency, ok, at_ns);
        }
    }

    fn install(&self, tracker: Arc<SloTracker>) {
        *self.tracker.write() = Some(tracker);
        self.installed.store(true, Ordering::Release);
    }
}

/// Registry of SLO trackers keyed by servable. Cheap to clone; clones
/// share state. Each name has one [`SloHandle`], made when its
/// objective is registered or a request path first asks for it; a
/// handle without a tracker is not in [`Self::snapshot`].
#[derive(Clone, Default)]
pub struct SloRegistry {
    inner: Arc<RwLock<BTreeMap<String, Arc<SloHandle>>>>,
}

impl SloRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        SloRegistry::default()
    }

    /// Install (or replace) the tracker for `spec.servable`, wiring
    /// alert transitions into `tracer` and the shared counter/gauge.
    pub fn register(
        &self,
        spec: SloSpec,
        tracer: Tracer,
        fired_total: Arc<Counter>,
        active: Arc<Gauge>,
    ) -> Arc<SloTracker> {
        let handle = self.handle(&spec.servable);
        let tracker = Arc::new(SloTracker::new(spec, tracer, fired_total, active));
        handle.install(Arc::clone(&tracker));
        tracker
    }

    /// The servable's handle, made on first use.
    pub fn handle(&self, servable: &str) -> Arc<SloHandle> {
        if let Some(handle) = self.inner.read().get(servable) {
            return Arc::clone(handle);
        }
        let mut handles = self.inner.write();
        Arc::clone(handles.entry(servable.to_string()).or_default())
    }

    /// Look up a tracker.
    pub fn get(&self, servable: &str) -> Option<Arc<SloTracker>> {
        self.inner.read().get(servable)?.tracker()
    }

    /// Snapshot every registered tracker, servable-sorted.
    pub fn snapshot(&self) -> Vec<SloSnapshot> {
        let handles = self.inner.read();
        handles
            .values()
            .filter_map(|handle| handle.tracker())
            .map(|tracker| tracker.snapshot())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracker(spec: SloSpec) -> (SloTracker, Tracer) {
        let tracer = Tracer::new();
        let t = SloTracker::new(
            spec,
            tracer.clone(),
            Arc::new(Counter::new()),
            Arc::new(Gauge::new()),
        );
        (t, tracer)
    }

    fn tight_spec() -> SloSpec {
        SloSpec::new("dlhub/echo", Duration::from_millis(1))
            .latency_objective(0.9)
            .windows(Duration::from_millis(200), Duration::from_secs(2))
            .burn_threshold(2.0)
    }

    #[test]
    fn clean_traffic_never_fires() {
        let (t, tracer) = tracker(tight_spec());
        for _ in 0..200 {
            t.observe(Duration::from_micros(50), true);
        }
        let snap = t.snapshot();
        assert!(!snap.firing, "{snap:?}");
        assert_eq!(snap.alerts_fired, 0);
        assert_eq!(snap.observed, 200);
        assert!(snap.latency_burn_slow < 0.01);
        assert!(tracer.export(None).named("slo_alert").is_empty());
    }

    #[test]
    fn sustained_slow_traffic_fires_once() {
        let (t, tracer) = tracker(tight_spec());
        // Every request breaches the 1ms threshold: bad fraction 1.0,
        // budget 0.1 → burn 10 in both windows.
        for _ in 0..50 {
            t.observe(Duration::from_millis(30), true);
        }
        let snap = t.snapshot();
        assert!(snap.firing, "{snap:?}");
        assert_eq!(snap.alerts_fired, 1);
        assert!(snap.latency_burn_fast >= 2.0);
        let events = tracer.export(None);
        let alerts = events.named("slo_alert");
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].attr("state"), Some("firing"));
        assert_eq!(alerts[0].attr("objective"), Some("latency"));
        assert_eq!(alerts[0].attr("servable"), Some("dlhub/echo"));
        // Re-evaluating while still burning does not re-fire.
        t.observe(Duration::from_millis(30), true);
        assert_eq!(t.snapshot().alerts_fired, 1);
    }

    #[test]
    fn error_traffic_fires_the_availability_objective() {
        let spec = SloSpec::new("dlhub/echo", Duration::from_secs(10))
            .availability_objective(0.9)
            .windows(Duration::from_millis(200), Duration::from_secs(2));
        let (t, tracer) = tracker(spec);
        for _ in 0..50 {
            t.observe(Duration::from_micros(10), false);
        }
        assert!(t.snapshot().firing);
        let export = tracer.export(None);
        assert_eq!(
            export.named("slo_alert")[0].attr("objective"),
            Some("availability")
        );
    }

    #[test]
    fn registry_observe_is_a_noop_without_an_objective() {
        let reg = SloRegistry::new();
        let unknown = reg.handle("dlhub/unknown");
        unknown.observe_at(Duration::from_secs(5), false, now_ns());
        assert!(reg.snapshot().is_empty());
        // Taken before the objective is registered, as a request path
        // takes it at its first request.
        let echo = reg.handle("dlhub/echo");
        let tracer = Tracer::new();
        reg.register(
            tight_spec(),
            tracer,
            Arc::new(Counter::new()),
            Arc::new(Gauge::new()),
        );
        echo.observe_at(Duration::from_micros(10), true, now_ns());
        let snaps = reg.snapshot();
        assert_eq!(snaps.len(), 1);
        assert_eq!(snaps[0].observed, 1);
        assert!(!snaps[0].render_text().is_empty());
        assert!(snaps[0].to_json().get("burn_threshold").is_some());
    }
}
