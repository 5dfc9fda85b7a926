//! The telemetry collector: a background sampler feeding the
//! time-series store from the live metric registry.
//!
//! The handle starts disabled and statically near-free — one relaxed
//! pointer load on any query path — and [`TelemetryHandle::enable`]
//! arms it for the life of a deployment. With a non-zero interval a
//! `dlhub-telemetry` thread wakes every interval, walks every
//! registered counter, gauge, histogram, per-servable series, and SLO
//! tracker, and writes one cumulative snapshot per instrument into
//! the store (see [`crate::tsdb`] for the slot protocol). The thread
//! holds only a [`std::sync::Weak`] to the collector, so it exits on
//! its own once the deployment drops its `Obs` handles.
//!
//! With a zero interval ([`TelemetryHandle::enable_manual`]) no
//! thread is spawned and the embedder drives sampling passes through
//! [`TelemetryHandle::sample_now`] on a clock of its choosing — the
//! sim harness uses this with its virtual clock, which is what makes
//! seeded runs export bit-identical series.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use parking_lot::Mutex;

use crate::metrics::Registry;
use crate::slo::SloRegistry;
use crate::tsdb::ControlSignals;
use crate::tsdb::{default_tiers, servable_series, slo_series, SeriesStore, TierSpec};

/// The instrument surfaces one sampling pass reads.
#[derive(Clone)]
pub struct TelemetrySources {
    /// Metric registry whose instruments are sampled.
    pub metrics: Registry,
    /// SLO registry whose burn rates are sampled.
    pub slo: SloRegistry,
}

struct TelemetryInner {
    interval: Duration,
    store: Arc<SeriesStore>,
    sources: TelemetrySources,
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
        let mut written = 0usize;
        for (name, counter) in self.sources.metrics.counter_entries() {
            self.store.record_counter(&name, at_ns, counter.get());
            written += 1;
        }
        for (name, gauge) in self.sources.metrics.gauge_entries() {
            self.store.record_gauge(&name, at_ns, gauge.get() as f64);
            written += 1;
        }
        for (name, histogram) in self.sources.metrics.histogram_entries() {
            self.store
                .record_histogram(&name, at_ns, &histogram.snapshot());
            written += 1;
        }
        for (servable, series) in self.sources.metrics.servable_entries() {
            self.store.record_counter(
                &servable_series(&servable, "requests"),
                at_ns,
                series.requests.get(),
            );
            self.store.record_counter(
                &servable_series(&servable, "cache_hits"),
                at_ns,
                series.cache_hits.get(),
            );
            self.store.record_counter(
                &servable_series(&servable, "errors"),
                at_ns,
                series.errors.get(),
            );
            self.store.record_histogram(
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
                    self.store
                        .record_counter(&servable_series(&servable, field), at_ns, value);
                }
                written += 5;
            }
        }
        for snap in self.sources.slo.snapshot() {
            let fast = snap.latency_burn_fast.max(snap.availability_burn_fast);
            let slow = snap.latency_burn_slow.max(snap.availability_burn_slow);
            self.store
                .record_gauge(&slo_series(&snap.servable, "burn_fast"), at_ns, fast);
            self.store
                .record_gauge(&slo_series(&snap.servable, "burn_slow"), at_ns, slow);
            self.store.record_gauge(
                &slo_series(&snap.servable, "firing"),
                at_ns,
                if snap.firing { 1.0 } else { 0.0 },
            );
            written += 3;
        }
        self.store.note_pass(at_ns);
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

/// Deployment-scoped handle to the telemetry collector. Cloning
/// shares the same collector; disabled until [`enable`] is called.
///
/// [`enable`]: TelemetryHandle::enable
#[derive(Clone, Default)]
pub struct TelemetryHandle {
    shared: Arc<OnceLock<Arc<TelemetryInner>>>,
}

impl TelemetryHandle {
    /// A handle that is disabled and stays disabled unless enabled.
    pub fn disabled() -> Self {
        TelemetryHandle::default()
    }

    /// Whether a collector is armed behind this handle.
    pub fn enabled(&self) -> bool {
        self.shared.get().is_some()
    }

    /// Arm the collector with an explicit tier ladder. A non-zero
    /// `interval` spawns the `dlhub-telemetry` sampler thread; zero
    /// means the embedder drives passes via [`sample_now`]. Returns
    /// `true` if this call armed the collector (first enable wins;
    /// later calls are no-ops sharing the existing collector).
    ///
    /// [`sample_now`]: TelemetryHandle::sample_now
    pub fn enable_with_tiers(
        &self,
        interval: Duration,
        tiers: Vec<TierSpec>,
        sources: TelemetrySources,
    ) -> bool {
        let mut created = false;
        let inner = self.shared.get_or_init(|| {
            created = true;
            Arc::new(TelemetryInner {
                interval,
                store: Arc::new(SeriesStore::with_tiers(tiers)),
                sources,
                pass: Mutex::new(()),
                passes: AtomicU64::new(0),
            })
        });
        if created && !interval.is_zero() {
            let weak: Weak<TelemetryInner> = Arc::downgrade(inner);
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
        created
    }

    /// Arm the collector with the [`default_tiers`] ladder over the
    /// sampling interval (1 s base when `interval` is zero).
    pub fn enable(&self, interval: Duration, sources: TelemetrySources) -> bool {
        let base = if interval.is_zero() {
            Duration::from_secs(1)
        } else {
            interval
        };
        self.enable_with_tiers(interval, default_tiers(base), sources)
    }

    /// Arm the collector without a sampler thread: the embedder calls
    /// [`sample_now`] on its own (possibly virtual) clock. `base_step`
    /// sets the finest tier resolution.
    ///
    /// [`sample_now`]: TelemetryHandle::sample_now
    pub fn enable_manual(&self, base_step: Duration, sources: TelemetrySources) -> bool {
        self.enable_with_tiers(Duration::ZERO, default_tiers(base_step), sources)
    }

    /// The sampler thread's interval; zero when manual or disabled.
    pub fn interval(&self) -> Duration {
        self.shared
            .get()
            .map(|i| i.interval)
            .unwrap_or(Duration::ZERO)
    }

    /// The store's base sampling step; `None` when disabled.
    pub fn base_step(&self) -> Option<Duration> {
        self.shared.get().map(|i| i.store.base_step())
    }

    /// Run one sampling pass now at virtual time `at_ns`. Returns the
    /// number of series written, or `None` when disabled.
    pub fn sample_now(&self, at_ns: u64) -> Option<usize> {
        self.shared.get().map(|i| i.sample(at_ns))
    }

    /// The backing store; `None` when disabled.
    pub fn store(&self) -> Option<Arc<SeriesStore>> {
        self.shared.get().map(|i| Arc::clone(&i.store))
    }

    /// Windowed control-plane view; `None` when disabled.
    pub fn signals(&self) -> Option<ControlSignals> {
        self.store().map(ControlSignals::new)
    }

    /// Sampling passes completed; 0 when disabled.
    pub fn samples_taken(&self) -> u64 {
        self.shared
            .get()
            .map(|i| i.passes.load(Ordering::Relaxed))
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sources() -> TelemetrySources {
        TelemetrySources {
            metrics: Registry::new(),
            slo: SloRegistry::default(),
        }
    }

    #[test]
    fn disabled_handle_is_inert() {
        let handle = TelemetryHandle::disabled();
        assert!(!handle.enabled());
        assert!(handle.store().is_none());
        assert!(handle.signals().is_none());
        assert!(handle.sample_now(0).is_none());
        assert_eq!(handle.samples_taken(), 0);
        assert_eq!(handle.interval(), Duration::ZERO);
    }

    #[test]
    fn manual_sampling_records_every_instrument_kind() {
        let src = sources();
        src.metrics.counter("hits_total").add(7);
        src.metrics.gauge("depth").set(3);
        src.metrics.histogram("wait_ns").record(1024);
        let echo = src.metrics.series("dlhub/echo");
        echo.requests.add(5);
        let handle = TelemetryHandle::disabled();
        assert!(handle.enable_manual(Duration::from_secs(1), src.clone()));
        let written = handle.sample_now(1_000_000_000).unwrap();
        assert_eq!(written, 7);
        // The cost sums join the sample once a dispatch was answered.
        assert_eq!(handle.signals().unwrap().cost("dlhub/echo"), None);
        echo.dispatch
            .record(2, Duration::from_millis(8), Duration::from_millis(9));
        src.metrics.counter("hits_total").add(3);
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
    fn first_enable_wins_and_clones_share() {
        let handle = TelemetryHandle::disabled();
        let clone = handle.clone();
        assert!(handle.enable_manual(Duration::from_secs(1), sources()));
        assert!(!clone.enable_manual(Duration::from_secs(5), sources()));
        assert!(clone.enabled());
        assert_eq!(clone.base_step(), Some(Duration::from_secs(1)));
    }

    #[test]
    fn background_sampler_collects_on_its_own() {
        let src = sources();
        src.metrics.counter("ticks_total").add(1);
        let handle = TelemetryHandle::disabled();
        assert!(handle.enable(Duration::from_millis(5), src.clone()));
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
