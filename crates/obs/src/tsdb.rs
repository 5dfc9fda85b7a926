//! Ring-buffered time-series storage for telemetry samples.
//!
//! [`SeriesStore`] keeps a short multi-resolution history for every
//! sampled instrument. Each series owns one fixed-capacity ring per
//! resolution tier (default: 120 slots at the base sampling step, 180
//! at 10×, 240 at 60× — with a 1 s base that is two minutes of
//! fine-grained points backed by four hours of coarse history). A
//! sampling pass writes the *cumulative* instrument state into the
//! current step's slot of every tier, so downsampling is nothing more
//! than coarser quantisation: a 60×-step slot is overwritten 60 times
//! and ends up holding the cumulative value at its tier boundary.
//! That keeps counter deltas rate-correct across any `[from, to]`
//! pair (no averaging artifacts) and keeps log2 histograms mergeable
//! by bucket-wise subtraction — a windowed p99 is computed from real
//! bucket counts, not from re-aggregated quantiles.
//!
//! # Memory ordering
//!
//! There is exactly one writer — the collector, serialized by
//! [`crate::collect`]'s pass lock — and any number of readers. Each
//! slot is a seqlock over plain atomics: the writer bumps `seq` to an
//! odd value with a relaxed store, publishes the payload with relaxed
//! stores behind a `Release` fence, then re-publishes `seq` even with a
//! `Release` store. Readers `Acquire`-load `seq`, skip odd values,
//! copy the payload with relaxed loads, issue an `Acquire` fence and
//! re-read `seq`: any concurrent write changes `seq`, so a torn read
//! can never validate. Neither side ever blocks the other.

use std::collections::BTreeMap;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::RwLock;
use serde_json::{json, Value};

use crate::metrics::{HistogramSnapshot, ServableCost, HISTOGRAM_BUCKETS};

/// One resolution tier: one sample slot per `step`, `capacity` slots
/// before the ring wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierSpec {
    /// Slot width.
    pub step: Duration,
    /// Ring capacity in slots.
    pub capacity: usize,
}

impl TierSpec {
    /// Wall-clock span the tier covers before wrapping.
    pub fn coverage(&self) -> Duration {
        self.step * self.capacity as u32
    }
}

/// Default tier ladder over a base sampling step: 120 slots at the
/// base resolution, 180 at 10×, 240 at 60×.
pub fn default_tiers(base_step: Duration) -> Vec<TierSpec> {
    vec![
        TierSpec {
            step: base_step,
            capacity: 120,
        },
        TierSpec {
            step: base_step * 10,
            capacity: 180,
        },
        TierSpec {
            step: base_step * 60,
            capacity: 240,
        },
    ]
}

/// What a series measures; fixes the slot payload interpretation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeriesKind {
    /// Monotonic cumulative count, queried as reset-corrected deltas.
    Counter,
    /// Instantaneous level; slots aggregate last/min/max/sum/n.
    Gauge,
    /// Log2 histogram; slots hold cumulative count/sum/buckets.
    Histogram,
}

impl SeriesKind {
    fn as_str(&self) -> &'static str {
        match self {
            SeriesKind::Counter => "counter",
            SeriesKind::Gauge => "gauge",
            SeriesKind::Histogram => "histogram",
        }
    }
}

/// One seqlock-protected sample slot. Payload meaning depends on the
/// series kind:
///
/// * counter — `a` = cumulative value at the latest sample in the step;
/// * gauge — `a` last, `b` min, `c` max, `d` sum (all f64 bits),
///   `e` = samples aggregated into the step;
/// * histogram — `a` cumulative count, `b` cumulative sum, `buckets`
///   cumulative per-bucket counts.
struct Slot {
    seq: AtomicU64,
    /// Absolute step index + 1; 0 = never written.
    step: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
    c: AtomicU64,
    d: AtomicU64,
    e: AtomicU64,
    buckets: Box<[AtomicU64]>,
}

/// A stable copy of one slot's payload.
#[derive(Debug, Clone)]
struct SlotData {
    step: u64,
    a: u64,
    b: u64,
    c: u64,
    d: u64,
    e: u64,
    buckets: Vec<u64>,
}

/// Reader retries before giving up on a stable read of one slot.
const READ_RETRIES: usize = 8;

impl Slot {
    fn new(bucketed: bool) -> Self {
        let buckets: Box<[AtomicU64]> = if bucketed {
            (0..HISTOGRAM_BUCKETS).map(|_| AtomicU64::new(0)).collect()
        } else {
            Box::default()
        };
        Slot {
            seq: AtomicU64::new(0),
            step: AtomicU64::new(0),
            a: AtomicU64::new(0),
            b: AtomicU64::new(0),
            c: AtomicU64::new(0),
            d: AtomicU64::new(0),
            e: AtomicU64::new(0),
            buckets,
        }
    }

    /// Writer side (collector only): publish `step`'s payload inside
    /// the seqlock write bracket. `fill` receives whether the slot was
    /// recycled for a new step (true) or updated in place (false).
    fn write(&self, step: u64, fill: impl FnOnce(&Slot, bool)) {
        let seq = self.seq.load(Ordering::Relaxed);
        self.seq.store(seq.wrapping_add(1), Ordering::Relaxed);
        fence(Ordering::Release);
        let fresh = self.step.load(Ordering::Relaxed) != step.wrapping_add(1);
        if fresh {
            self.step.store(step.wrapping_add(1), Ordering::Relaxed);
        }
        fill(self, fresh);
        self.seq.store(seq.wrapping_add(2), Ordering::Release);
    }

    /// Reader side: a validated copy, or `None` when the slot is empty
    /// or the writer kept it unstable for [`READ_RETRIES`] attempts.
    fn read(&self) -> Option<SlotData> {
        for _ in 0..READ_RETRIES {
            let before = self.seq.load(Ordering::Acquire);
            if before & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let step = self.step.load(Ordering::Relaxed);
            let data = SlotData {
                step: step.wrapping_sub(1),
                a: self.a.load(Ordering::Relaxed),
                b: self.b.load(Ordering::Relaxed),
                c: self.c.load(Ordering::Relaxed),
                d: self.d.load(Ordering::Relaxed),
                e: self.e.load(Ordering::Relaxed),
                buckets: self
                    .buckets
                    .iter()
                    .map(|b| b.load(Ordering::Relaxed))
                    .collect(),
            };
            fence(Ordering::Acquire);
            if self.seq.load(Ordering::Relaxed) == before {
                return (step != 0).then_some(data);
            }
        }
        None
    }
}

/// One tier's ring of slots. Slot index is `step % capacity`, so a
/// re-sample within the same step updates in place and a wrap recycles
/// the oldest slot.
struct TierRing {
    step_ns: u64,
    slots: Vec<Slot>,
}

impl TierRing {
    fn new(spec: TierSpec, bucketed: bool) -> Self {
        let step_ns = (spec.step.as_nanos().min(u64::MAX as u128) as u64).max(1);
        TierRing {
            step_ns,
            slots: (0..spec.capacity.max(1))
                .map(|_| Slot::new(bucketed))
                .collect(),
        }
    }

    fn slot_for(&self, at_ns: u64) -> (&Slot, u64) {
        let step = at_ns / self.step_ns;
        let idx = (step % self.slots.len() as u64) as usize;
        (&self.slots[idx], step)
    }

    fn record_counter(&self, at_ns: u64, value: u64) {
        let (slot, step) = self.slot_for(at_ns);
        slot.write(step, |s, _fresh| {
            s.a.store(value, Ordering::Relaxed);
        });
    }

    fn record_gauge(&self, at_ns: u64, value: f64) {
        let (slot, step) = self.slot_for(at_ns);
        slot.write(step, |s, fresh| {
            let bits = value.to_bits();
            if fresh {
                s.a.store(bits, Ordering::Relaxed);
                s.b.store(bits, Ordering::Relaxed);
                s.c.store(bits, Ordering::Relaxed);
                s.d.store(bits, Ordering::Relaxed);
                s.e.store(1, Ordering::Relaxed);
            } else {
                s.a.store(bits, Ordering::Relaxed);
                let min = f64::from_bits(s.b.load(Ordering::Relaxed)).min(value);
                s.b.store(min.to_bits(), Ordering::Relaxed);
                let max = f64::from_bits(s.c.load(Ordering::Relaxed)).max(value);
                s.c.store(max.to_bits(), Ordering::Relaxed);
                let sum = f64::from_bits(s.d.load(Ordering::Relaxed)) + value;
                s.d.store(sum.to_bits(), Ordering::Relaxed);
                s.e.store(s.e.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
            }
        });
    }

    fn record_histogram(&self, at_ns: u64, cumulative: &HistogramSnapshot) {
        let (slot, step) = self.slot_for(at_ns);
        slot.write(step, |s, _fresh| {
            s.a.store(cumulative.count, Ordering::Relaxed);
            s.b.store(cumulative.sum, Ordering::Relaxed);
            for (dst, &src) in s.buckets.iter().zip(&cumulative.buckets) {
                dst.store(src, Ordering::Relaxed);
            }
        });
    }

    /// Every written slot, ascending by step.
    fn read_all(&self) -> Vec<SlotData> {
        let mut out: Vec<SlotData> = self.slots.iter().filter_map(Slot::read).collect();
        out.sort_by_key(|d| d.step);
        out
    }
}

/// One stored series: kind plus one ring per tier.
struct SeriesData {
    kind: SeriesKind,
    tiers: Vec<TierRing>,
}

impl SeriesData {
    fn new(kind: SeriesKind, specs: &[TierSpec]) -> Self {
        let bucketed = matches!(kind, SeriesKind::Histogram);
        SeriesData {
            kind,
            tiers: specs.iter().map(|&s| TierRing::new(s, bucketed)).collect(),
        }
    }
}

/// Min/max/avg/last of a gauge series over a query window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaugeWindow {
    /// Most recent sampled value in the window.
    pub last: f64,
    /// Minimum sampled value.
    pub min: f64,
    /// Maximum sampled value.
    pub max: f64,
    /// Sample-weighted mean.
    pub avg: f64,
    /// Samples aggregated into the window.
    pub samples: u64,
}

/// Series name under which the collector samples one per-servable
/// field (`requests`, `cache_hits`, `errors`, `request_latency_ns`, and
/// the five [`ServableCost`] sums).
pub fn servable_series(servable: &str, field: &str) -> String {
    format!("servable.{servable}.{field}")
}

/// Series name under which the collector samples one per-servable SLO
/// field (`burn_fast`, `burn_slow`, `firing`).
pub fn slo_series(servable: &str, field: &str) -> String {
    format!("slo.{servable}.{field}")
}

/// The store: every sampled series with its multi-resolution history,
/// plus the query API the CLI dashboard and control loops read.
///
/// Writers (the collector) must be externally serialized; readers are
/// lock-free against the writer (series creation takes a short write
/// lock on the name map only).
pub struct SeriesStore {
    tiers: Vec<TierSpec>,
    series: RwLock<BTreeMap<String, Arc<SeriesData>>>,
    /// Virtual "now" for queries: the timestamp of the latest sampling
    /// pass, so windowed reads are anchored to data, not wall clock —
    /// which also makes sim-clock queries deterministic.
    last_sample_ns: AtomicU64,
    samples_taken: AtomicU64,
}

impl SeriesStore {
    /// Store with the [`default_tiers`] ladder over `base_step`.
    pub fn new(base_step: Duration) -> Self {
        SeriesStore::with_tiers(default_tiers(base_step))
    }

    /// Store with an explicit tier ladder. Tiers must be ordered
    /// finest-first; the first tier's step is the base sampling step.
    pub fn with_tiers(tiers: Vec<TierSpec>) -> Self {
        assert!(!tiers.is_empty(), "at least one tier");
        assert!(
            tiers.windows(2).all(|w| w[0].step <= w[1].step),
            "tiers must be ordered finest-first"
        );
        SeriesStore {
            tiers,
            series: RwLock::new(BTreeMap::new()),
            last_sample_ns: AtomicU64::new(0),
            samples_taken: AtomicU64::new(0),
        }
    }

    /// The finest tier's step (the collector's sampling interval).
    pub fn base_step(&self) -> Duration {
        self.tiers[0].step
    }

    /// The configured tier ladder.
    pub fn tiers(&self) -> &[TierSpec] {
        &self.tiers
    }

    /// Timestamp of the latest sampling pass (query anchor).
    pub fn last_sample_ns(&self) -> u64 {
        self.last_sample_ns.load(Ordering::Relaxed)
    }

    /// Sampling passes recorded so far.
    pub fn samples_taken(&self) -> u64 {
        self.samples_taken.load(Ordering::Relaxed)
    }

    /// Name-sorted series names.
    pub fn series_names(&self) -> Vec<String> {
        self.series.read().keys().cloned().collect()
    }

    /// A series' kind, `None` if never sampled.
    pub fn kind(&self, name: &str) -> Option<SeriesKind> {
        self.series.read().get(name).map(|s| s.kind)
    }

    fn series_for(&self, name: &str, kind: SeriesKind) -> Arc<SeriesData> {
        if let Some(found) = self.series.read().get(name) {
            return Arc::clone(found);
        }
        let mut map = self.series.write();
        Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(SeriesData::new(kind, &self.tiers))),
        )
    }

    /// Writer side: sample a counter's cumulative value into every
    /// tier's current slot.
    pub fn record_counter(&self, name: &str, at_ns: u64, value: u64) {
        let series = self.series_for(name, SeriesKind::Counter);
        for tier in &series.tiers {
            tier.record_counter(at_ns, value);
        }
    }

    /// Writer side: sample a gauge level; coarser tiers aggregate
    /// last/min/max/sum/n across the base samples inside their step.
    pub fn record_gauge(&self, name: &str, at_ns: u64, value: f64) {
        let series = self.series_for(name, SeriesKind::Gauge);
        for tier in &series.tiers {
            tier.record_gauge(at_ns, value);
        }
    }

    /// Writer side: sample a histogram's cumulative state (exemplars
    /// are not stored).
    pub fn record_histogram(&self, name: &str, at_ns: u64, cumulative: &HistogramSnapshot) {
        let series = self.series_for(name, SeriesKind::Histogram);
        for tier in &series.tiers {
            tier.record_histogram(at_ns, cumulative);
        }
    }

    /// Writer side: close one sampling pass at `at_ns`, advancing the
    /// query anchor.
    pub fn note_pass(&self, at_ns: u64) {
        self.last_sample_ns.store(at_ns, Ordering::Relaxed);
        self.samples_taken.fetch_add(1, Ordering::Relaxed);
    }

    /// Index of the finest tier whose coverage spans `window`; the
    /// coarsest tier when none does.
    fn tier_for(&self, window: Duration) -> usize {
        let w = window.as_nanos();
        self.tiers
            .iter()
            .position(|t| t.coverage().as_nanos() >= w)
            .unwrap_or(self.tiers.len() - 1)
    }

    /// Window slots (ascending) plus the latest slot *before* the
    /// window — the delta baseline for cumulative kinds.
    #[allow(clippy::type_complexity)]
    fn window_slots(
        &self,
        name: &str,
        window: Duration,
    ) -> Option<(SeriesKind, u64, Vec<SlotData>, Option<SlotData>)> {
        let series = {
            let map = self.series.read();
            Arc::clone(map.get(name)?)
        };
        let ring = &series.tiers[self.tier_for(window)];
        let now = self.last_sample_ns();
        let to_step = now / ring.step_ns;
        let from_step =
            now.saturating_sub(window.as_nanos().min(u64::MAX as u128) as u64) / ring.step_ns;
        let all = ring.read_all();
        let baseline = all.iter().rev().find(|d| d.step < from_step).cloned();
        let in_window: Vec<SlotData> = all
            .into_iter()
            .filter(|d| d.step >= from_step && d.step <= to_step)
            .collect();
        Some((series.kind, ring.step_ns, in_window, baseline))
    }

    /// Per-second rate of a counter (or histogram sample count) over
    /// the trailing `window`, as the sum of reset-corrected
    /// consecutive deltas: a cumulative drop (e.g. a restarted
    /// process) contributes the post-reset value instead of a negative
    /// delta. `None` for gauges or with fewer than two samples.
    pub fn rate(&self, name: &str, window: Duration) -> Option<f64> {
        let (kind, step_ns, slots, baseline) = self.window_slots(name, window)?;
        if matches!(kind, SeriesKind::Gauge) {
            return None;
        }
        let points: Vec<(u64, u64)> = baseline
            .iter()
            .chain(slots.iter())
            .map(|d| (d.step * step_ns, d.a))
            .collect();
        if points.len() < 2 {
            return None;
        }
        let total: u64 = points
            .windows(2)
            .map(|w| reset_corrected_delta(w[0].1, w[1].1))
            .sum();
        let span_ns = points.last().unwrap().0 - points[0].0;
        (span_ns > 0).then(|| total as f64 * 1e9 / span_ns as f64)
    }

    /// The newest sampled cumulative value of a counter (or histogram
    /// sample count), however long ago the series last moved — idle
    /// time does not age it out of a window. `None` if never sampled.
    pub fn latest(&self, name: &str) -> Option<u64> {
        let series = Arc::clone(self.series.read().get(name)?);
        let newest = series.tiers[0].slots.iter().filter_map(Slot::read);
        newest.max_by_key(|d| d.step).map(|d| d.a)
    }

    /// Min/max/avg/last of a gauge over the trailing `window`. `None`
    /// for non-gauges or when the window holds no samples.
    pub fn gauge_window(&self, name: &str, window: Duration) -> Option<GaugeWindow> {
        let (kind, _step_ns, slots, _baseline) = self.window_slots(name, window)?;
        if !matches!(kind, SeriesKind::Gauge) || slots.is_empty() {
            return None;
        }
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut sum = 0.0f64;
        let mut samples = 0u64;
        for d in &slots {
            min = min.min(f64::from_bits(d.b));
            max = max.max(f64::from_bits(d.c));
            sum += f64::from_bits(d.d);
            samples += d.e;
        }
        Some(GaugeWindow {
            last: f64::from_bits(slots.last().unwrap().a),
            min,
            max,
            avg: sum / samples.max(1) as f64,
            samples,
        })
    }

    /// Histogram activity inside the trailing `window`: the window's
    /// last cumulative slot [`since`](HistogramSnapshot::since) the
    /// latest slot before it. `None` for non-histograms or when the
    /// window holds no slots.
    pub fn histogram_window(&self, name: &str, window: Duration) -> Option<HistogramSnapshot> {
        let (kind, _step_ns, slots, baseline) = self.window_slots(name, window)?;
        if !matches!(kind, SeriesKind::Histogram) {
            return None;
        }
        let cumulative = |d: &SlotData| {
            let buckets = std::array::from_fn(|i| d.buckets[i]);
            HistogramSnapshot::from_buckets(d.b, buckets, Vec::new())
        };
        let baseline = baseline.as_ref().map(cumulative).unwrap_or_default();
        Some(cumulative(slots.last()?).since(&baseline))
    }

    /// Per-step plotted points `(slot start ns, value)` over the
    /// trailing `window`: per-second deltas for counters and histogram
    /// counts, in-step averages for gauges. This is the sparkline feed.
    pub fn points(&self, name: &str, window: Duration) -> Vec<(u64, f64)> {
        let Some((kind, step_ns, slots, baseline)) = self.window_slots(name, window) else {
            return Vec::new();
        };
        match kind {
            SeriesKind::Gauge => slots
                .iter()
                .map(|d| (d.step * step_ns, f64::from_bits(d.d) / d.e.max(1) as f64))
                .collect(),
            SeriesKind::Counter | SeriesKind::Histogram => {
                let seq: Vec<&SlotData> = baseline.iter().chain(slots.iter()).collect();
                seq.windows(2)
                    .map(|w| {
                        let span_ns = (w[1].step - w[0].step) * step_ns;
                        let delta = reset_corrected_delta(w[0].a, w[1].a);
                        (
                            w[1].step * step_ns,
                            delta as f64 * 1e9 / span_ns.max(1) as f64,
                        )
                    })
                    .collect()
            }
        }
    }

    /// Least-squares slope of the per-step series over `window`, in
    /// value units per second — positive means the signal is growing.
    /// `None` with fewer than two points or zero time spread.
    pub fn trend(&self, name: &str, window: Duration) -> Option<f64> {
        let points = self.points(name, window);
        if points.len() < 2 {
            return None;
        }
        let t0 = points[0].0;
        let n = points.len() as f64;
        let (mut sx, mut sy, mut sxx, mut sxy) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        for (t, y) in &points {
            let x = (t - t0) as f64 / 1e9;
            sx += x;
            sy += y;
            sxx += x * x;
            sxy += x * y;
        }
        let var = n * sxx - sx * sx;
        (var > 0.0).then(|| (n * sxy - sx * sy) / var)
    }

    /// Deterministic JSON export of the whole store: series in name
    /// order, slots in ascending step order, every number derived from
    /// sampled state — two runs that record identical samples at
    /// identical virtual times serialize to identical bytes. Embedded
    /// in `BENCH_*.json` artifacts as the run's time axis.
    pub fn to_json(&self) -> Value {
        self.to_json_capped(usize::MAX)
    }

    /// [`Self::to_json`] with at most `max_points` (newest) points per
    /// tier; each truncated tier reports how many older points were
    /// dropped. Benches embed this form so committed `BENCH_*.json`
    /// artifacts carry a reviewable summary of the run's time axis
    /// instead of tens of thousands of raw ring slots.
    pub fn to_json_capped(&self, max_points: usize) -> Value {
        let series: Vec<Value> = self
            .series
            .read()
            .iter()
            .map(|(name, data)| {
                let tiers: Vec<Value> = data
                    .tiers
                    .iter()
                    .map(|ring| {
                        let all = ring.read_all();
                        let dropped = all.len().saturating_sub(max_points);
                        let points: Vec<Value> = all
                            .iter()
                            .skip(dropped)
                            .map(|d| {
                                let t_ns = d.step * ring.step_ns;
                                match data.kind {
                                    SeriesKind::Counter => json!({ "t_ns": t_ns, "v": d.a }),
                                    SeriesKind::Gauge => json!({
                                        "t_ns": t_ns,
                                        "last": f64::from_bits(d.a),
                                        "min": f64::from_bits(d.b),
                                        "max": f64::from_bits(d.c),
                                        "sum": f64::from_bits(d.d),
                                        "n": d.e,
                                    }),
                                    SeriesKind::Histogram => json!({
                                        "t_ns": t_ns,
                                        "count": d.a,
                                        "sum": d.b,
                                        "buckets": d
                                            .buckets
                                            .iter()
                                            .enumerate()
                                            .filter(|(_, &n)| n > 0)
                                            .map(|(i, &n)| json!([i, n]))
                                            .collect::<Vec<Value>>(),
                                    }),
                                }
                            })
                            .collect();
                        json!({
                            "step_ns": ring.step_ns,
                            "points": points,
                            "points_dropped": dropped,
                        })
                    })
                    .collect();
                json!({ "name": name, "kind": data.kind.as_str(), "tiers": tiers })
            })
            .collect();
        json!({
            "base_step_ns": self.tiers[0].step.as_nanos().min(u64::MAX as u128) as u64,
            "tiers": self
                .tiers
                .iter()
                .map(|t| json!({
                    "step_ns": t.step.as_nanos().min(u64::MAX as u128) as u64,
                    "capacity": t.capacity,
                }))
                .collect::<Vec<Value>>(),
            "samples_taken": self.samples_taken(),
            "last_sample_ns": self.last_sample_ns(),
            "series": series,
        })
    }
}

/// Delta between consecutive cumulative samples with counter-reset
/// handling: a drop means the source restarted, so the post-reset
/// value *is* the activity since.
fn reset_corrected_delta(prev: u64, cur: u64) -> u64 {
    if cur >= prev {
        cur - prev
    } else {
        cur
    }
}

/// Read-only windowed control-plane view over a [`SeriesStore`]:
/// the signals an autoscaler or admission controller consumes, named
/// after what they mean rather than how they are stored.
#[derive(Clone)]
pub struct ControlSignals {
    store: Arc<SeriesStore>,
}

impl ControlSignals {
    /// Wrap a store.
    pub fn new(store: Arc<SeriesStore>) -> Self {
        ControlSignals { store }
    }

    /// The underlying store (escape hatch for ad-hoc queries).
    pub fn store(&self) -> &Arc<SeriesStore> {
        &self.store
    }

    /// Every servable the collector has sampled, id-sorted.
    pub fn servables(&self) -> Vec<String> {
        let mut ids: Vec<String> = self
            .store
            .series_names()
            .iter()
            .filter_map(|name| name.strip_prefix("servable.")?.strip_suffix(".requests"))
            .map(str::to_string)
            .collect();
        ids.sort();
        ids
    }

    /// Requests per second answered for `servable` over `window`.
    pub fn arrival_rate(&self, servable: &str, window: Duration) -> Option<f64> {
        self.store
            .rate(&servable_series(servable, "requests"), window)
    }

    /// What dispatching `servable` has cost, from the newest sample of
    /// its cumulative sums — so a pool parked through an idle window
    /// still has an estimate when traffic returns. `None` until a
    /// dispatch has been sampled.
    pub fn cost(&self, servable: &str) -> Option<ServableCost> {
        let latest = |field| self.store.latest(&servable_series(servable, field));
        Some(ServableCost {
            dispatches: latest("dispatches")?,
            items: latest("dispatched_items")?,
            inference_ns: latest("inference_ns")?,
            overhead_ns: latest("overhead_ns")?,
            overhead_floor_ns: latest("overhead_floor_ns")?,
        })
    }

    /// Errors per second for `servable` over `window`.
    pub fn error_rate(&self, servable: &str, window: Duration) -> Option<f64> {
        self.store
            .rate(&servable_series(servable, "errors"), window)
    }

    /// Request latency merged over `window` for `servable`.
    pub fn request_latency(&self, servable: &str, window: Duration) -> Option<HistogramSnapshot> {
        self.store
            .histogram_window(&servable_series(servable, "request_latency_ns"), window)
    }

    /// Broker queue wait merged over `window` (ns).
    pub fn queue_wait(&self, window: Duration) -> Option<HistogramSnapshot> {
        self.store.histogram_window("broker_queue_wait_ns", window)
    }

    /// Wait in front of the replica pools merged over `window` (ns):
    /// where backlog forms once consumers dispatch without waiting.
    pub fn replica_queue_wait(&self, window: Duration) -> Option<HistogramSnapshot> {
        self.store.histogram_window("replica_queue_wait_ns", window)
    }

    /// Async injector queue depth over `window`.
    pub fn queue_depth(&self, window: Duration) -> Option<GaugeWindow> {
        self.store.gauge_window("async_queue_depth", window)
    }

    /// Fast-window SLO burn rate (max of the latency and availability
    /// objectives) for `servable` over `window`.
    pub fn burn_rate(&self, servable: &str, window: Duration) -> Option<GaugeWindow> {
        self.store
            .gauge_window(&slo_series(servable, "burn_fast"), window)
    }

    /// Per-step burn-rate history (sparkline feed).
    pub fn burn_history(&self, servable: &str, window: Duration) -> Vec<(u64, f64)> {
        self.store
            .points(&slo_series(servable, "burn_fast"), window)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Histogram;

    fn tiny_tiers() -> Vec<TierSpec> {
        vec![
            TierSpec {
                step: Duration::from_secs(1),
                capacity: 4,
            },
            TierSpec {
                step: Duration::from_secs(10),
                capacity: 6,
            },
        ]
    }

    const S: u64 = 1_000_000_000;

    #[test]
    fn counter_rate_over_window() {
        let store = SeriesStore::with_tiers(tiny_tiers());
        for step in 0..4u64 {
            store.record_counter("reqs", step * S, step * 100);
            store.note_pass(step * S);
        }
        // 100 per second over 3 seconds of deltas.
        let rate = store.rate("reqs", Duration::from_secs(4)).unwrap();
        assert!((rate - 100.0).abs() < 1e-9, "{rate}");
        // Gauge queries on a counter series refuse.
        assert!(store.gauge_window("reqs", Duration::from_secs(4)).is_none());
    }

    #[test]
    fn latest_reads_the_newest_sample_whatever_its_age() {
        let store = SeriesStore::with_tiers(tiny_tiers());
        assert_eq!(store.latest("reqs"), None);
        for step in 0..10u64 {
            store.record_counter("reqs", step * S, step * 10);
            store.note_pass(step * S);
        }
        // Later passes that do not touch the series age it out of
        // every rate window, but not out of `latest`.
        store.note_pass(500 * S);
        assert_eq!(store.rate("reqs", Duration::from_secs(4)), None);
        assert_eq!(store.latest("reqs"), Some(90));
    }

    #[test]
    fn ring_wraparound_keeps_only_the_newest_capacity_steps() {
        let store = SeriesStore::with_tiers(tiny_tiers());
        for step in 0..10u64 {
            store.record_counter("reqs", step * S, step * 10);
            store.note_pass(step * S);
        }
        // Fine tier holds 4 slots: steps 6..=9 survive.
        let points = store.points("reqs", Duration::from_secs(4));
        assert_eq!(points.len(), 3, "{points:?}");
        assert_eq!(points[0].0, 7 * S);
        assert_eq!(points.last().unwrap().0, 9 * S);
        // The coarse tier still has the full history in one slot.
        let rate = store.rate("reqs", Duration::from_secs(60));
        assert!(rate.is_none(), "single coarse slot cannot rate: {rate:?}");
    }

    #[test]
    fn tier_boundary_selects_coarser_ring() {
        let store = SeriesStore::with_tiers(tiny_tiers());
        // 35 seconds of samples: fine tier (4s coverage) wraps, coarse
        // tier (60s coverage) retains everything.
        for step in 0..35u64 {
            store.record_counter("reqs", step * S, step * 10);
            store.note_pass(step * S);
        }
        let fine = store.rate("reqs", Duration::from_secs(3)).unwrap();
        let coarse = store.rate("reqs", Duration::from_secs(30)).unwrap();
        assert!((fine - 10.0).abs() < 1e-9, "{fine}");
        // Coarse endpoints quantize to 10 s boundaries: cumulative 90
        // (latest sample inside step 0) to 340 over 30 s.
        assert!((coarse - 250.0 / 30.0).abs() < 1e-9, "{coarse}");
        // Coarse points land on 10s boundaries.
        let pts = store.points("reqs", Duration::from_secs(30));
        assert!(pts.iter().all(|(t, _)| t % (10 * S) == 0), "{pts:?}");
    }

    #[test]
    fn counter_reset_contributes_post_reset_value() {
        let store = SeriesStore::with_tiers(tiny_tiers());
        let values = [100u64, 200, 30, 60];
        for (step, &v) in values.iter().enumerate() {
            store.record_counter("reqs", step as u64 * S, v);
            store.note_pass(step as u64 * S);
        }
        // Deltas: 100, then reset→30, then 30 over 3 seconds.
        let rate = store.rate("reqs", Duration::from_secs(4)).unwrap();
        let expected = (100.0 + 30.0 + 30.0) / 3.0;
        assert!((rate - expected).abs() < 1e-9, "{rate} vs {expected}");
    }

    #[test]
    fn gauge_windows_aggregate_min_max_avg_across_tiers() {
        let store = SeriesStore::with_tiers(tiny_tiers());
        // 30 base samples: values 0,1,2,...,29.
        for step in 0..30u64 {
            store.record_gauge("depth", step * S, step as f64);
            store.note_pass(step * S);
        }
        // Window [26 s, 29 s] spans four inclusive base slots.
        let fine = store.gauge_window("depth", Duration::from_secs(3)).unwrap();
        assert_eq!(fine.last, 29.0);
        assert_eq!(fine.min, 26.0);
        assert_eq!(fine.max, 29.0);
        // The coarse tier aggregated 10 base samples per slot.
        let coarse = store
            .gauge_window("depth", Duration::from_secs(30))
            .unwrap();
        assert_eq!(coarse.last, 29.0);
        assert_eq!(coarse.min, 0.0);
        assert_eq!(coarse.max, 29.0);
        assert_eq!(coarse.samples, 30);
        assert!((coarse.avg - 14.5).abs() < 1e-9, "{}", coarse.avg);
    }

    #[test]
    fn histogram_windows_merge_by_bucket_subtraction() {
        let store = SeriesStore::with_tiers(tiny_tiers());
        let live = Histogram::new();
        // Step 0: 10 samples of value 100; steps 1-3: add 5 samples of
        // value 1000 each step.
        let record = |store: &SeriesStore, step: u64, v: u64, n: u64| {
            for _ in 0..n {
                live.record(v);
            }
            store.record_histogram("lat", step * S, &live.snapshot());
            store.note_pass(step * S);
        };
        record(&store, 0, 100, 10);
        record(&store, 1, 1000, 5);
        record(&store, 2, 1000, 5);
        record(&store, 3, 1000, 5);
        // A 2 s window from now=3 s covers steps 1..=3 and subtracts
        // step 0's cumulative baseline.
        let w = store
            .histogram_window("lat", Duration::from_secs(2))
            .unwrap();
        assert_eq!(w.count, 15);
        assert_eq!(w.sum, 15_000);
        // All windowed samples are 1000: the interpolated p50 must
        // land inside 1000's log2 bucket (not pinned to its bound).
        let p50 = w.quantile(0.5).unwrap();
        assert_eq!(
            crate::metrics::bucket_index(p50),
            crate::metrics::bucket_index(1000),
            "{p50}"
        );
        assert_eq!(w.mean(), Some(1000));
        // Full-history window has no baseline: everything counts.
        let all = store
            .histogram_window("lat", Duration::from_secs(60))
            .unwrap();
        assert_eq!(all.count, 25);
    }

    #[test]
    fn trend_slope_tracks_growth_and_decay() {
        let store = SeriesStore::with_tiers(tiny_tiers());
        for step in 0..4u64 {
            store.record_gauge("up", step * S, step as f64 * 2.0);
            store.record_gauge("down", step * S, 100.0 - step as f64 * 3.0);
            store.record_gauge("flat", step * S, 5.0);
            store.note_pass(step * S);
        }
        let up = store.trend("up", Duration::from_secs(4)).unwrap();
        let down = store.trend("down", Duration::from_secs(4)).unwrap();
        let flat = store.trend("flat", Duration::from_secs(4)).unwrap();
        assert!((up - 2.0).abs() < 1e-9, "{up}");
        assert!((down + 3.0).abs() < 1e-9, "{down}");
        assert!(flat.abs() < 1e-9, "{flat}");
    }

    #[test]
    fn export_is_deterministic_and_ordered() {
        let build = || {
            let store = SeriesStore::with_tiers(tiny_tiers());
            let hist = Histogram::new();
            for step in 0..6u64 {
                store.record_counter("b.counter", step * S, step * 7);
                store.record_gauge("a.gauge", step * S, step as f64 / 3.0);
                store.record_histogram("c.hist", step * S, &hist.snapshot());
                hist.record(31);
                store.note_pass(step * S);
            }
            serde_json::to_string(&store.to_json()).unwrap()
        };
        let a = build();
        let b = build();
        assert_eq!(a, b);
        let doc: Value = serde_json::from_str(&a).unwrap();
        let names: Vec<&str> = doc["series"]
            .as_array()
            .unwrap()
            .iter()
            .map(|s| s["name"].as_str().unwrap())
            .collect();
        assert_eq!(names, vec!["a.gauge", "b.counter", "c.hist"]);
        assert_eq!(doc["samples_taken"], 6);
        assert_eq!(doc["base_step_ns"], S);
    }

    #[test]
    fn concurrent_readers_never_see_torn_slots() {
        let store = Arc::new(SeriesStore::with_tiers(vec![TierSpec {
            step: Duration::from_millis(1),
            capacity: 8,
        }]));
        // Writer publishes matched (a == value) counters; readers must
        // only ever observe fully-published slots.
        let writer = {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                for i in 0..50_000u64 {
                    store.record_counter("x", i * 1_000_000, i);
                    store.note_pass(i * 1_000_000);
                }
            })
        };
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let store = Arc::clone(&store);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        let _ = store.rate("x", Duration::from_millis(8));
                        let _ = store.points("x", Duration::from_millis(8));
                    }
                })
            })
            .collect();
        writer.join().unwrap();
        for r in readers {
            r.join().unwrap();
        }
        assert!(store.samples_taken() == 50_000);
    }

    #[test]
    fn control_signals_read_the_conventional_names() {
        let store = Arc::new(SeriesStore::with_tiers(tiny_tiers()));
        let wait = Histogram::new();
        (0..4).for_each(|_| wait.record(1 << 20));
        for step in 0..4u64 {
            store.record_counter(
                &servable_series("dlhub/echo", "requests"),
                step * S,
                step * 50,
            );
            store.record_counter(&servable_series("dlhub/echo", "errors"), step * S, 0);
            store.record_gauge("async_queue_depth", step * S, 2.0);
            store.record_gauge(&slo_series("dlhub/echo", "burn_fast"), step * S, 0.25);
            store.record_histogram("broker_queue_wait_ns", step * S, &wait.snapshot());
            store.note_pass(step * S);
        }
        let signals = ControlSignals::new(Arc::clone(&store));
        let w = Duration::from_secs(4);
        assert!((signals.arrival_rate("dlhub/echo", w).unwrap() - 50.0).abs() < 1e-9);
        assert_eq!(signals.error_rate("dlhub/echo", w), Some(0.0));
        assert_eq!(signals.queue_depth(w).unwrap().last, 2.0);
        assert!((signals.burn_rate("dlhub/echo", w).unwrap().avg - 0.25).abs() < 1e-9);
        let wait = signals.queue_wait(w).unwrap();
        assert_eq!(wait.count, 4);
        assert!(wait.quantile(0.99).unwrap() >= 1 << 20);
        assert!(!signals.burn_history("dlhub/echo", w).is_empty());
        assert_eq!(signals.servables(), vec!["dlhub/echo"]);
        // No dispatch sums were sampled: no cost, not a zero one.
        assert_eq!(signals.cost("dlhub/echo"), None);
    }
}
