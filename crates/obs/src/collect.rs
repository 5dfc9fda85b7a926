//! The telemetry collector: a sampler feeding the time-series store
//! from the live metric registry.
//!
//! How the store is fed is a [`Telemetry`] mode chosen when the
//! deployment's [`crate::Obs`] is built, and fixed from then on.
//! [`Telemetry::Off`] (what [`crate::Obs::new`] gives) keeps no store:
//! every query on the handle answers `None`. Under
//! [`Telemetry::Sampled`] a `dlhub-telemetry` thread wakes every
//! interval, walks every registered counter, gauge, histogram,
//! per-servable series, and SLO tracker, and writes one cumulative
//! snapshot per instrument into the store (see [`crate::tsdb`] for the
//! slot protocol). The thread holds only a [`std::sync::Weak`] to the
//! collector, so it exits on its own once the deployment drops its
//! `Obs` handles.
//!
//! Under [`Telemetry::Stepped`] no thread is spawned and the embedder
//! drives sampling passes through [`TelemetryHandle::sample_now`] on a
//! clock of its choosing — the sim harness uses this with its virtual
//! clock, which is what makes seeded runs export bit-identical series.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use parking_lot::Mutex;

use crate::metrics::Registry;
use crate::slo::SloRegistry;
use crate::tsdb::{default_tiers, servable_series, slo_series, ControlSignals, SeriesStore};

/// How a deployment's time-series store is fed. Chosen once, by
/// whoever builds the [`crate::Obs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Telemetry {
    /// No store and no sampler: every query answers `None`.
    #[default]
    Off,
    /// A `dlhub-telemetry` thread samples every registered instrument
    /// at this interval, which is also the finest ring resolution.
    Sampled(Duration),
    /// No thread: the embedder drives passes through
    /// [`TelemetryHandle::sample_now`] on its own (possibly virtual)
    /// clock. The duration is the finest ring resolution.
    Stepped(Duration),
}

struct TelemetryInner {
    interval: Duration,
    /// Owns the store; handed out by reference, so a reader on the
    /// request path clones nothing.
    signals: ControlSignals,
    metrics: Registry,
    slo: SloRegistry,
    /// Serializes sampling passes: the store's slot protocol assumes a
    /// single writer, and a manual `sample_now` may race the thread.
    pass: Mutex<()>,
    passes: AtomicU64,
}

impl TelemetryInner {
    /// One sampling pass at virtual time `at_ns`. Returns the number
    /// of series written.
    fn sample(&self, at_ns: u64) -> usize {
        let _guard = self.pass.lock();
        let store = self.signals.store();
        let mut written = 0usize;
        for (name, counter) in self.metrics.counter_entries() {
            store.record_counter(&name, at_ns, counter.get());
            written += 1;
        }
        for (name, gauge) in self.metrics.gauge_entries() {
            store.record_gauge(&name, at_ns, gauge.get() as f64);
            written += 1;
        }
        for (name, histogram) in self.metrics.histogram_entries() {
            store.record_histogram(&name, at_ns, &histogram.snapshot());
            written += 1;
        }
        for (servable, series) in self.metrics.servable_entries() {
            store.record_counter(
                &servable_series(&servable, "requests"),
                at_ns,
                series.requests.get(),
            );
            store.record_counter(
                &servable_series(&servable, "cache_hits"),
                at_ns,
                series.cache_hits.get(),
            );
            store.record_counter(
                &servable_series(&servable, "errors"),
                at_ns,
                series.errors.get(),
            );
            store.record_histogram(
                &servable_series(&servable, "request_latency_ns"),
                at_ns,
                &series.request_latency.snapshot(),
            );
            written += 4;
            // The running-minimum floor rides in a counter slot too:
            // it is only ever read back with `latest`, never as a rate.
            if let Some(cost) = series.dispatch.cost() {
                for (field, value) in [
                    ("dispatches", cost.dispatches),
                    ("dispatched_items", cost.items),
                    ("inference_ns", cost.inference_ns),
                    ("overhead_ns", cost.overhead_ns),
                    ("overhead_floor_ns", cost.overhead_floor_ns),
                ] {
                    store.record_counter(&servable_series(&servable, field), at_ns, value);
                }
                written += 5;
            }
        }
        for snap in self.slo.snapshot() {
            let fast = snap.latency_burn_fast.max(snap.availability_burn_fast);
            let slow = snap.latency_burn_slow.max(snap.availability_burn_slow);
            store.record_gauge(&slo_series(&snap.servable, "burn_fast"), at_ns, fast);
            store.record_gauge(&slo_series(&snap.servable, "burn_slow"), at_ns, slow);
            store.record_gauge(
                &slo_series(&snap.servable, "firing"),
                at_ns,
                if snap.firing { 1.0 } else { 0.0 },
            );
            written += 3;
        }
        store.note_pass(at_ns);
        self.passes.fetch_add(1, Ordering::Relaxed);
        written
    }
}

fn wall_now_ns() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos().min(u64::MAX as u128) as u64)
        .unwrap_or(0)
}

/// Deployment-scoped handle to the telemetry collector. Cloning shares
/// the same collector; what it holds was decided by the [`Telemetry`]
/// mode its [`crate::Obs`] was built with.
#[derive(Clone, Default)]
pub struct TelemetryHandle {
    inner: Option<Arc<TelemetryInner>>,
}

impl TelemetryHandle {
    /// The collector `mode` asks for over `metrics` and `slo`, with the
    /// [`default_tiers`] ladder over the mode's duration.
    pub(crate) fn start(mode: Telemetry, metrics: Registry, slo: SloRegistry) -> Self {
        let (interval, base_step) = match mode {
            Telemetry::Off => return TelemetryHandle::default(),
            Telemetry::Sampled(interval) => (interval, interval),
            Telemetry::Stepped(base_step) => (Duration::ZERO, base_step),
        };
        let store = Arc::new(SeriesStore::with_tiers(default_tiers(base_step)));
        let inner = Arc::new(TelemetryInner {
            interval,
            signals: ControlSignals::new(store),
            metrics,
            slo,
            pass: Mutex::new(()),
            passes: AtomicU64::new(0),
        });
        if !interval.is_zero() {
            let weak: Weak<TelemetryInner> = Arc::downgrade(&inner);
            std::thread::Builder::new()
                .name("dlhub-telemetry".into())
                .spawn(move || loop {
                    std::thread::sleep(interval);
                    match weak.upgrade() {
                        Some(inner) => {
                            inner.sample(wall_now_ns());
                        }
                        None => break,
                    }
                })
                .expect("spawn telemetry sampler");
        }
        TelemetryHandle { inner: Some(inner) }
    }

    /// The sampler thread's interval; zero when stepped or off.
    pub fn interval(&self) -> Duration {
        self.inner.as_ref().map_or(Duration::ZERO, |i| i.interval)
    }

    /// The store's base sampling step; `None` when off.
    pub fn base_step(&self) -> Option<Duration> {
        self.store().map(|store| store.base_step())
    }

    /// Run one sampling pass now at virtual time `at_ns`. Returns the
    /// number of series written, or `None` when off.
    pub fn sample_now(&self, at_ns: u64) -> Option<usize> {
        self.inner.as_ref().map(|i| i.sample(at_ns))
    }

    /// The backing store; `None` when off.
    pub fn store(&self) -> Option<&Arc<SeriesStore>> {
        self.signals().map(ControlSignals::store)
    }

    /// Windowed control-plane view; `None` when off.
    pub fn signals(&self) -> Option<&ControlSignals> {
        self.inner.as_ref().map(|i| &i.signals)
    }

    /// Sampling passes completed; 0 when off.
    pub fn samples_taken(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.passes.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stepped(metrics: &Registry) -> TelemetryHandle {
        TelemetryHandle::start(
            Telemetry::Stepped(Duration::from_secs(1)),
            metrics.clone(),
            SloRegistry::default(),
        )
    }

    #[test]
    fn disabled_handle_is_inert() {
        let handle =
            TelemetryHandle::start(Telemetry::Off, Registry::new(), SloRegistry::default());
        assert!(handle.store().is_none());
        assert!(handle.signals().is_none());
        assert!(handle.sample_now(0).is_none());
        assert_eq!(handle.samples_taken(), 0);
        assert_eq!(handle.interval(), Duration::ZERO);
    }

    #[test]
    fn manual_sampling_records_every_instrument_kind() {
        let metrics = Registry::new();
        metrics.counter("hits_total").add(7);
        metrics.gauge("depth").set(3);
        metrics.histogram("wait_ns").record(1024);
        let echo = metrics.series("dlhub/echo");
        echo.requests.add(5);
        let handle = stepped(&metrics);
        let written = handle.sample_now(1_000_000_000).unwrap();
        assert_eq!(written, 7);
        // The cost sums join the sample once a dispatch was answered.
        assert_eq!(handle.signals().unwrap().cost("dlhub/echo"), None);
        echo.dispatch
            .record(2, Duration::from_millis(8), Duration::from_millis(9));
        metrics.counter("hits_total").add(3);
        assert_eq!(handle.sample_now(2_000_000_000), Some(12));
        assert_eq!(
            handle.signals().unwrap().cost("dlhub/echo"),
            echo.dispatch.cost()
        );
        let store = handle.store().unwrap();
        let rate = store.rate("hits_total", Duration::from_secs(2)).unwrap();
        assert!((rate - 3.0).abs() < 1e-9, "{rate}");
        assert_eq!(handle.samples_taken(), 2);
        assert_eq!(handle.interval(), Duration::ZERO);
        assert_eq!(handle.base_step(), Some(Duration::from_secs(1)));
    }

    #[test]
    fn clones_share_one_collector() {
        let handle = stepped(&Registry::new());
        let clone = handle.clone();
        handle.sample_now(1_000_000_000);
        assert_eq!(clone.samples_taken(), 1);
        assert!(Arc::ptr_eq(handle.store().unwrap(), clone.store().unwrap()));
    }

    #[test]
    fn background_sampler_collects_on_its_own() {
        let metrics = Registry::new();
        metrics.counter("ticks_total").add(1);
        let handle = TelemetryHandle::start(
            Telemetry::Sampled(Duration::from_millis(5)),
            metrics,
            SloRegistry::default(),
        );
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while handle.samples_taken() < 3 {
            assert!(
                std::time::Instant::now() < deadline,
                "sampler thread never ran"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        let store = handle.store().unwrap();
        assert!(store.series_names().iter().any(|n| n == "ticks_total"));
    }
}
