//! Metrics registry: named counters, gauges and log-scale histograms,
//! plus per-servable series covering the paper's three measurement
//! points (inference / invocation / request, §V-A).
//!
//! Everything on the record path is a relaxed atomic — matching the
//! contention discipline of the serving hot path — and snapshots are
//! taken by reading the atomics without stopping writers, so a
//! snapshot is a consistent-enough view, not a linearisable one.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::RwLock;
use serde_json::{json, Value};

/// Monotonic event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Zeroed counter.
    pub fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Instantaneous signed level (queue depth, pool occupancy).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Zeroed gauge.
    pub fn new() -> Self {
        Gauge(AtomicI64::new(0))
    }

    /// Overwrite the level.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Shift the level by `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of log2 buckets. Bucket `i` holds values whose bit length is
/// `i` (i.e. `2^(i-1) <= v < 2^i`), bucket 0 holds zero, and the last
/// bucket absorbs everything above `2^62`.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// Recent trace ids retained per bucket ([exemplars]). Slots rotate
/// with the bucket's own counter, so a bucket remembers its last few
/// contributing traces without any extra synchronisation.
///
/// [exemplars]: Histogram::record_with_exemplar
pub const EXEMPLAR_SLOTS: usize = 4;

/// Index of the log2 bucket that `v` lands in: `v`'s bit length,
/// clamped to the last bucket.
pub fn bucket_index(v: u64) -> usize {
    ((u64::BITS - v.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
}

/// Inclusive upper bound of a bucket.
pub fn bucket_bound(idx: usize) -> u64 {
    if idx == 0 {
        0
    } else if idx >= HISTOGRAM_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << idx) - 1
    }
}

/// Rank-interpolated quantile estimate inside log2 bucket `idx`: the
/// value at rank `rank` (1-based) of the bucket's `n` samples,
/// assuming they spread uniformly across the bucket's value range.
/// Answering with the bucket's *upper bound* instead overestimates the
/// tail by up to 2x. The interpolated value always stays inside the
/// bucket, so it maps back to `idx` under [`bucket_index`].
fn bucket_quantile_value(idx: usize, rank: u64, n: u64) -> u64 {
    if idx == 0 {
        return 0;
    }
    let hi = bucket_bound(idx);
    if idx >= HISTOGRAM_BUCKETS - 1 {
        // The overflow bucket has no finite width to interpolate over.
        return hi;
    }
    let lo = bucket_bound(idx - 1) + 1;
    let frac = (rank.min(n)) as f64 / n as f64;
    lo + ((hi - lo) as f64 * frac) as u64
}

/// Fixed-bucket log-scale histogram over `u64` samples (nanoseconds
/// for latencies, raw counts for sizes): the live, always-on side of
/// the only bucketed histogram in the workspace. Recording is three
/// relaxed `fetch_add`s; everything that *reads* a distribution —
/// quantiles, summaries, interval deltas, the Prometheus `le` view —
/// works on a [`HistogramSnapshot`].
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    exemplars: [[AtomicU64; EXEMPLAR_SLOTS]; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            exemplars: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Record one sample.
    pub fn record(&self, value: u64) {
        self.record_with_exemplar(value, 0);
    }

    /// Record one sample and remember `trace` (when nonzero) as an
    /// exemplar for the sample's bucket. The bucket's pre-increment
    /// count picks the slot, so concurrent writers rotate through the
    /// [`EXEMPLAR_SLOTS`] slots instead of fighting over one.
    pub fn record_with_exemplar(&self, value: u64, trace: u64) {
        let idx = bucket_index(value);
        let seen = self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        if trace != 0 {
            self.exemplars[idx][seen as usize % EXEMPLAR_SLOTS].store(trace, Ordering::Relaxed);
        }
    }

    /// Record a duration in nanoseconds.
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Record a duration in nanoseconds with a trace exemplar.
    pub fn record_duration_with_exemplar(&self, d: Duration, trace: u64) {
        self.record_with_exemplar(d.as_nanos().min(u64::MAX as u128) as u64, trace);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Plain-data copy of the buckets, the sum and the retained
    /// exemplars, taken without stopping writers.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: [u64; HISTOGRAM_BUCKETS] =
            std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed));
        let mut exemplars = Vec::new();
        for (idx, slots) in self.exemplars.iter().enumerate() {
            if buckets[idx] > 0 {
                let traces = slots.iter().map(|slot| slot.load(Ordering::Relaxed));
                exemplars.extend(traces.filter(|&t| t != 0).map(|t| (idx, t)));
            }
        }
        HistogramSnapshot::from_buckets(self.sum(), buckets, exemplars)
    }
}

/// Plain-data copy of a [`Histogram`] — or of the activity between two
/// of them ([`Self::since`]; a telemetry window is the same thing).
/// This is the one place that knows how a bucketed distribution is
/// ranked, summarised, subtracted and laid out as `le` buckets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Samples held: the sum of `buckets`.
    pub count: u64,
    /// Sum of the samples.
    pub sum: u64,
    /// Per-bucket sample counts ([`bucket_index`] layout).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Retained trace ids as `(bucket index, trace)` pairs, bucket
    /// ascending: up to [`EXEMPLAR_SLOTS`] per non-empty bucket.
    pub exemplars: Vec<(usize, u64)>,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot::from_buckets(0, [0; HISTOGRAM_BUCKETS], Vec::new())
    }
}

impl HistogramSnapshot {
    /// `count` is the sum of the bucket counts copied, never a total
    /// read separately, so every rank up to `count` lies in a bucket.
    pub(crate) fn from_buckets(
        sum: u64,
        buckets: [u64; HISTOGRAM_BUCKETS],
        exemplars: Vec<(usize, u64)>,
    ) -> Self {
        HistogramSnapshot {
            count: buckets.iter().sum(),
            sum,
            buckets,
            exemplars,
        }
    }

    /// Estimated quantile (`0.0 ..= 1.0`): the `ceil(q·count)`-th
    /// sample, rank-interpolated within the bucket that holds it, so
    /// the estimate is off by at most the in-bucket spread rather than
    /// a full power of two. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        self.buckets.iter().enumerate().find_map(|(idx, &n)| {
            seen += n;
            (n > 0 && seen >= target).then(|| bucket_quantile_value(idx, target - (seen - n), n))
        })
    }

    /// Mean sample; `None` when empty.
    pub fn mean(&self) -> Option<u64> {
        self.sum.checked_div(self.count)
    }

    /// Scalar digest, `None` when empty.
    pub fn summary(&self) -> Option<HistogramSummary> {
        Some(HistogramSummary {
            count: self.count,
            sum: self.sum,
            mean: self.mean()?,
            p50: self.quantile(0.50)?,
            p95: self.quantile(0.95)?,
            p99: self.quantile(0.99)?,
        })
    }

    /// The samples recorded after `baseline` was taken: bucket-wise
    /// saturating subtraction (a baseline that somehow ran ahead
    /// yields zero, not a wrap), with exemplars kept for the buckets
    /// that still have mass.
    pub fn since(&self, baseline: &HistogramSnapshot) -> HistogramSnapshot {
        let buckets: [u64; HISTOGRAM_BUCKETS] =
            std::array::from_fn(|i| self.buckets[i].saturating_sub(baseline.buckets[i]));
        let mut exemplars = self.exemplars.clone();
        exemplars.retain(|&(idx, _)| buckets[idx] > 0);
        HistogramSnapshot::from_buckets(self.sum.saturating_sub(baseline.sum), buckets, exemplars)
    }

    /// The `le` view: the non-empty buckets in ascending order of their
    /// inclusive upper bounds, each with its exemplars. The JSON export
    /// prints them as they are; [`MetricsSnapshot::render_prometheus`]
    /// accumulates the counts into cumulative `le` lines.
    pub fn le_buckets(&self) -> Vec<BucketSnapshot> {
        let nonempty = self.buckets.iter().enumerate().filter(|(_, &n)| n > 0);
        nonempty
            .map(|(idx, &count)| BucketSnapshot {
                bound: bucket_bound(idx),
                count,
                exemplars: self
                    .exemplars
                    .iter()
                    .filter(|e| e.0 == idx)
                    .map(|e| e.1)
                    .collect(),
            })
            .collect()
    }
}

/// One non-empty histogram bucket with the traces that recently
/// landed in it. Units match the recorded samples (nanoseconds for
/// latency histograms).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BucketSnapshot {
    /// Inclusive upper bound of the bucket.
    pub bound: u64,
    /// Samples recorded into the bucket.
    pub count: u64,
    /// Up to [`EXEMPLAR_SLOTS`] recent trace ids from this bucket.
    pub exemplars: Vec<u64>,
}

impl BucketSnapshot {
    /// JSON form used in snapshot exports.
    pub fn to_json(&self) -> Value {
        json!({
            "le_ns": self.bound,
            "count": self.count,
            "exemplars": self.exemplars,
        })
    }
}

/// Scalar digest of a histogram. Units match the recorded samples
/// (nanoseconds for latency histograms).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Arithmetic mean.
    pub mean: u64,
    /// Estimated median.
    pub p50: u64,
    /// Estimated 95th percentile.
    pub p95: u64,
    /// Estimated 99th percentile.
    pub p99: u64,
}

impl HistogramSummary {
    /// JSON form embedded in bench artifacts and CLI output.
    pub fn to_json(&self) -> Value {
        json!({
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
        })
    }
}

/// Pre-resolved metric family for one servable: one registry lookup
/// per request, then plain atomic traffic.
#[derive(Debug, Default)]
pub struct ServableSeries {
    /// Requests answered (hits, misses and failures alike).
    pub requests: Counter,
    /// Requests answered from the memo cache.
    pub cache_hits: Counter,
    /// Requests that returned an error.
    pub errors: Counter,
    /// End-to-end request latency (Management Service), nanoseconds.
    pub request_latency: Histogram,
    /// Task Manager invocation latency, nanoseconds.
    pub invocation_latency: Histogram,
    /// Servable inference latency, nanoseconds.
    pub inference_latency: Histogram,
    /// Batch flush sizes routed to this servable.
    pub batch_sizes: Histogram,
    /// What dispatching this servable has cost so far.
    pub dispatch: DispatchSums,
}

/// What dispatching one servable has cost so far: the servable profile
/// the paper proposes as the input to adaptive batching (§V-B3) and
/// that the replica control loop sizes pools from (Fig 7). Cumulative
/// sums, read live from [`DispatchSums::cost`] or from the telemetry
/// store's latest sample ([`crate::ControlSignals::cost`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServableCost {
    /// Dispatches a Task Manager answered.
    pub dispatches: u64,
    /// Items those dispatches carried (a batch counts every input).
    pub items: u64,
    /// Inference time summed over every item, nanoseconds.
    pub inference_ns: u64,
    /// Per-dispatch overhead (invocation − inference: dispatch,
    /// transfer, **and queueing** under load) summed, nanoseconds.
    pub overhead_ns: u64,
    /// Smallest per-dispatch overhead seen: the uncontended dispatch
    /// floor. Under concurrency the mean overhead is inflated by queue
    /// wait — which is *demand*, not cost — so capacity decisions (the
    /// Fig 7 knee) must use the floor.
    pub overhead_floor_ns: u64,
}

impl ServableCost {
    /// Mean single-item inference time.
    pub fn inference(&self) -> Duration {
        Duration::from_nanos(self.inference_ns / self.items.max(1))
    }

    /// Mean per-dispatch overhead.
    pub fn overhead(&self) -> Duration {
        Duration::from_nanos(self.overhead_ns / self.dispatches.max(1))
    }

    /// The uncontended dispatch floor.
    pub fn overhead_floor(&self) -> Duration {
        Duration::from_nanos(self.overhead_floor_ns)
    }
}

/// The live side of [`ServableCost`]: four relaxed adds and one
/// `fetch_min` per answered dispatch.
#[derive(Debug)]
pub struct DispatchSums {
    dispatches: Counter,
    items: Counter,
    inference_ns: Counter,
    overhead_ns: Counter,
    overhead_floor_ns: AtomicU64,
}

impl Default for DispatchSums {
    fn default() -> Self {
        DispatchSums {
            dispatches: Counter::new(),
            items: Counter::new(),
            inference_ns: Counter::new(),
            overhead_ns: Counter::new(),
            overhead_floor_ns: AtomicU64::new(u64::MAX),
        }
    }
}

impl DispatchSums {
    /// Fold in one answered dispatch that carried `items` inputs.
    pub fn record(&self, items: usize, inference_total: Duration, invocation: Duration) {
        let overhead = invocation.saturating_sub(inference_total).as_nanos() as u64;
        self.items.add(items.max(1) as u64);
        self.inference_ns.add(inference_total.as_nanos() as u64);
        self.overhead_ns.add(overhead);
        self.overhead_floor_ns
            .fetch_min(overhead, Ordering::Relaxed);
        self.dispatches.inc();
    }

    /// The sums so far; `None` before the first dispatch.
    pub fn cost(&self) -> Option<ServableCost> {
        let dispatches = self.dispatches.get();
        (dispatches > 0).then(|| ServableCost {
            dispatches,
            items: self.items.get(),
            inference_ns: self.inference_ns.get(),
            overhead_ns: self.overhead_ns.get(),
            overhead_floor_ns: self.overhead_floor_ns.load(Ordering::Relaxed),
        })
    }
}

#[derive(Default)]
struct RegistryInner {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
    series: RwLock<BTreeMap<String, Arc<ServableSeries>>>,
    /// One-line descriptions keyed by metric name, surfaced as
    /// `# HELP` lines in the Prometheus exposition.
    help: RwLock<BTreeMap<String, String>>,
}

/// Named metrics registry. Cheap to clone; clones share state.
///
/// Lookups are read-locked (uncontended after warm-up since callers
/// cache the returned `Arc`s); creation takes the write lock once per
/// name.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<RegistryInner>,
}

fn get_or_insert<T: Default>(map: &RwLock<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    if let Some(found) = map.read().get(name) {
        return Arc::clone(found);
    }
    let mut map = map.write();
    Arc::clone(map.entry(name.to_string()).or_default())
}

impl Registry {
    /// Fresh, empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Get or create a counter.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        get_or_insert(&self.inner.counters, name)
    }

    /// Get or create a gauge.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        get_or_insert(&self.inner.gauges, name)
    }

    /// Get or create a named histogram.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        get_or_insert(&self.inner.histograms, name)
    }

    /// Get or create the per-servable series.
    pub fn series(&self, servable: &str) -> Arc<ServableSeries> {
        get_or_insert(&self.inner.series, servable)
    }

    /// Attach a one-line description to a metric name (emitted as a
    /// `# HELP` line in the Prometheus exposition). The first
    /// description for a name wins, so registration sites may call
    /// this idempotently.
    pub fn describe(&self, name: &str, help: &str) {
        if self.inner.help.read().contains_key(name) {
            return;
        }
        self.inner
            .help
            .write()
            .entry(name.to_string())
            .or_insert_with(|| help.to_string());
    }

    /// [`counter`](Self::counter) plus a [`describe`](Self::describe).
    pub fn counter_with_help(&self, name: &str, help: &str) -> Arc<Counter> {
        self.describe(name, help);
        self.counter(name)
    }

    /// [`gauge`](Self::gauge) plus a [`describe`](Self::describe).
    pub fn gauge_with_help(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.describe(name, help);
        self.gauge(name)
    }

    /// [`histogram`](Self::histogram) plus a
    /// [`describe`](Self::describe).
    pub fn histogram_with_help(&self, name: &str, help: &str) -> Arc<Histogram> {
        self.describe(name, help);
        self.histogram(name)
    }

    /// Live counter instruments, name-sorted (telemetry collector
    /// hook: the collector reads the atomics directly rather than
    /// paying for a full snapshot per sampling pass).
    pub fn counter_entries(&self) -> Vec<(String, Arc<Counter>)> {
        self.inner
            .counters
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), Arc::clone(v)))
            .collect()
    }

    /// Live gauge instruments, name-sorted.
    pub fn gauge_entries(&self) -> Vec<(String, Arc<Gauge>)> {
        self.inner
            .gauges
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), Arc::clone(v)))
            .collect()
    }

    /// Live named histograms, name-sorted.
    pub fn histogram_entries(&self) -> Vec<(String, Arc<Histogram>)> {
        self.inner
            .histograms
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), Arc::clone(v)))
            .collect()
    }

    /// Live per-servable series, name-sorted.
    pub fn servable_entries(&self) -> Vec<(String, Arc<ServableSeries>)> {
        self.inner
            .series
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), Arc::clone(v)))
            .collect()
    }

    /// Point-in-time snapshot of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .inner
            .counters
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let gauges = self
            .inner
            .gauges
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let histograms = self
            .inner
            .histograms
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .filter(|(_, h)| h.count > 0)
            .collect();
        let servables = self
            .inner
            .series
            .read()
            .iter()
            .map(|(k, v)| {
                (
                    k.clone(),
                    ServableSnapshot {
                        requests: v.requests.get(),
                        cache_hits: v.cache_hits.get(),
                        errors: v.errors.get(),
                        request_latency: v.request_latency.snapshot(),
                        invocation_latency: v.invocation_latency.snapshot(),
                        inference_latency: v.inference_latency.snapshot(),
                        batch_sizes: v.batch_sizes.snapshot(),
                    },
                )
            })
            .collect();
        let help = self
            .inner
            .help
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
            servables,
            help,
            spans_dropped: 0,
            slos: Vec::new(),
        }
    }

    /// Snapshot the registry and subtract `baseline`, yielding the
    /// activity *between* the two points — the primitive behind
    /// `dlhub stats --delta`. See [`MetricsSnapshot::delta_since`] for
    /// the exact semantics.
    pub fn snapshot_since(&self, baseline: &MetricsSnapshot) -> MetricsSnapshot {
        self.snapshot().delta_since(baseline)
    }
}

/// Frozen view of one servable's series.
#[derive(Debug, Clone, Default)]
pub struct ServableSnapshot {
    /// Total requests answered.
    pub requests: u64,
    /// Requests served from the memo cache.
    pub cache_hits: u64,
    /// Requests that errored.
    pub errors: u64,
    /// Request latency (ns); its exemplars link a tail bucket to
    /// concrete slow traces.
    pub request_latency: HistogramSnapshot,
    /// Invocation latency (ns).
    pub invocation_latency: HistogramSnapshot,
    /// Inference latency (ns).
    pub inference_latency: HistogramSnapshot,
    /// Batch flush sizes.
    pub batch_sizes: HistogramSnapshot,
}

/// Frozen view of the whole registry, ready for rendering.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Name-sorted counters.
    pub counters: Vec<(String, u64)>,
    /// Name-sorted gauges.
    pub gauges: Vec<(String, i64)>,
    /// Name-sorted named histograms with at least one sample.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// Name-sorted per-servable series.
    pub servables: Vec<(String, ServableSnapshot)>,
    /// Name-sorted metric descriptions registered via
    /// [`Registry::describe`], rendered as `# HELP` lines.
    pub help: Vec<(String, String)>,
    /// Spans lost to ring overflow or store eviction (filled by
    /// [`crate::Obs::snapshot`]; a bare [`Registry::snapshot`] reports
    /// zero). Nonzero means trace analytics may see incomplete trees.
    pub spans_dropped: u64,
    /// Per-servable SLO state (filled by [`crate::Obs::snapshot`]).
    pub slos: Vec<crate::slo::SloSnapshot>,
}

/// Escape a label value for the Prometheus text exposition format:
/// backslashes, double quotes and newlines must be escaped, everything
/// else passes through. Servable names are user-controlled, so every
/// interpolation into `{label="..."}` goes through here.
pub fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Escape a `# HELP` text for the Prometheus exposition format:
/// backslashes and newlines must be escaped so every help line stays a
/// single physical line.
fn escape_help(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn latency_line(label: &str, latency: &HistogramSnapshot) -> String {
    match latency.summary() {
        Some(s) => format!(
            "  {label:<11} p50 {:>9.3}ms  p95 {:>9.3}ms  p99 {:>9.3}ms  mean {:>9.3}ms  n={}\n",
            ms(s.p50),
            ms(s.p95),
            ms(s.p99),
            ms(s.mean),
            s.count
        ),
        None => format!("  {label:<11} (no samples)\n"),
    }
}

/// The one Prometheus `le` exposition: `h`'s non-empty buckets as
/// cumulative counts under `metric{<label>,le="<bound in seconds>"}`,
/// each with its newest exemplar in OpenMetrics form, so a tail bucket
/// links straight to a recent trace that landed in it.
fn render_le_buckets(out: &mut String, metric: &str, label: &str, h: &HistogramSnapshot) {
    let mut cumulative = 0u64;
    for bucket in h.le_buckets() {
        cumulative += bucket.count;
        let le = if bucket.bound == u64::MAX {
            "+Inf".to_string()
        } else {
            format!("{:.9}", secs(bucket.bound))
        };
        let exemplar = match bucket.exemplars.last() {
            Some(trace) => format!(" # {{trace_id=\"{trace:#x}\"}} {:.9}", secs(bucket.bound)),
            None => String::new(),
        };
        out.push_str(&format!(
            "{metric}{{{label},le=\"{le}\"}} {cumulative}{exemplar}\n"
        ));
    }
}

impl MetricsSnapshot {
    /// True when nothing at all has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.servables.is_empty()
    }

    /// The activity between `baseline` (taken earlier) and `self`:
    /// counters, servable traffic and dropped spans become differences,
    /// every histogram becomes [`HistogramSnapshot::since`] its
    /// baseline — so the quantiles are
    /// the interval's, not the lifetime's — and gauges become level
    /// changes (possibly negative). Monotonic fields saturate at zero
    /// if the baseline somehow ran ahead. SLO state is point-in-time
    /// and is carried over unchanged.
    pub fn delta_since(&self, baseline: &MetricsSnapshot) -> MetricsSnapshot {
        fn base<'a, T>(pairs: &'a [(String, T)], name: &str, absent: &'a T) -> &'a T {
            let found = pairs.iter().find(|(n, _)| n == name);
            found.map_or(absent, |(_, v)| v)
        }
        let no_samples = HistogramSnapshot::default();
        let no_traffic = ServableSnapshot::default();
        let counters = self
            .counters
            .iter()
            .map(|(n, v)| {
                (
                    n.clone(),
                    v.saturating_sub(*base(&baseline.counters, n, &0)),
                )
            })
            .collect();
        let gauges = self
            .gauges
            .iter()
            .map(|(n, v)| (n.clone(), v - base(&baseline.gauges, n, &0)))
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(n, h)| {
                (
                    n.clone(),
                    h.since(base(&baseline.histograms, n, &no_samples)),
                )
            })
            .filter(|(_, h)| h.count > 0)
            .collect();
        let servables = self
            .servables
            .iter()
            .map(|(name, s)| {
                let b = base(&baseline.servables, name, &no_traffic);
                let snapshot = ServableSnapshot {
                    requests: s.requests.saturating_sub(b.requests),
                    cache_hits: s.cache_hits.saturating_sub(b.cache_hits),
                    errors: s.errors.saturating_sub(b.errors),
                    request_latency: s.request_latency.since(&b.request_latency),
                    invocation_latency: s.invocation_latency.since(&b.invocation_latency),
                    inference_latency: s.inference_latency.since(&b.inference_latency),
                    batch_sizes: s.batch_sizes.since(&b.batch_sizes),
                };
                (name.clone(), snapshot)
            })
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
            servables,
            help: self.help.clone(),
            spans_dropped: self.spans_dropped.saturating_sub(baseline.spans_dropped),
            slos: self.slos.clone(),
        }
    }

    /// JSON form (latencies in nanoseconds) embedded in `BENCH_*.json`
    /// artifacts.
    pub fn to_json(&self) -> Value {
        let opt = |h: &HistogramSnapshot| h.summary().map_or(Value::Null, |s| s.to_json());
        let counters: Vec<Value> = self
            .counters
            .iter()
            .map(|(k, v)| json!({ "name": k.clone(), "value": *v }))
            .collect();
        let gauges: Vec<Value> = self
            .gauges
            .iter()
            .map(|(k, v)| json!({ "name": k.clone(), "value": *v }))
            .collect();
        let histograms: Vec<Value> = self
            .histograms
            .iter()
            .map(|(k, h)| json!({ "name": k.clone(), "summary": opt(h) }))
            .collect();
        let servables: Vec<Value> = self
            .servables
            .iter()
            .map(|(k, s)| {
                json!({
                    "servable": k.clone(),
                    "requests": s.requests,
                    "cache_hits": s.cache_hits,
                    "errors": s.errors,
                    "request_latency_ns": opt(&s.request_latency),
                    "request_latency_buckets": s
                        .request_latency
                        .le_buckets()
                        .iter()
                        .map(BucketSnapshot::to_json)
                        .collect::<Vec<Value>>(),
                    "invocation_latency_ns": opt(&s.invocation_latency),
                    "inference_latency_ns": opt(&s.inference_latency),
                    "batch_sizes": opt(&s.batch_sizes),
                })
            })
            .collect();
        let slos: Vec<Value> = self.slos.iter().map(|s| s.to_json()).collect();
        json!({
            "counters": Value::Array(counters),
            "gauges": Value::Array(gauges),
            "histograms": Value::Array(histograms),
            "servables": Value::Array(servables),
            "spans_dropped": self.spans_dropped,
            "slos": Value::Array(slos),
        })
    }

    /// Prometheus text exposition (latencies as seconds, summary
    /// quantiles rather than raw buckets). Metric names carrying a
    /// registered description get a `# HELP` line before their
    /// `# TYPE`.
    pub fn render_prometheus(&self) -> String {
        let help_for = |name: &str| -> Option<&str> {
            self.help
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, h)| h.as_str())
        };
        let mut out = String::new();
        for (name, value) in &self.counters {
            if let Some(help) = help_for(name) {
                out.push_str(&format!("# HELP dlhub_{name} {}\n", escape_help(help)));
            }
            out.push_str(&format!("# TYPE dlhub_{name} counter\n"));
            out.push_str(&format!("dlhub_{name} {value}\n"));
        }
        for (name, value) in &self.gauges {
            if let Some(help) = help_for(name) {
                out.push_str(&format!("# HELP dlhub_{name} {}\n", escape_help(help)));
            }
            out.push_str(&format!("# TYPE dlhub_{name} gauge\n"));
            out.push_str(&format!("dlhub_{name} {value}\n"));
        }
        for (name, h) in &self.histograms {
            let Some(s) = h.summary() else { continue };
            if let Some(help) = help_for(name) {
                out.push_str(&format!("# HELP dlhub_{name} {}\n", escape_help(help)));
            }
            out.push_str(&format!("# TYPE dlhub_{name} summary\n"));
            for (q, v) in [(0.5, s.p50), (0.95, s.p95), (0.99, s.p99)] {
                out.push_str(&format!("dlhub_{name}{{quantile=\"{q}\"}} {v}\n"));
            }
            out.push_str(&format!("dlhub_{name}_sum {}\n", s.sum));
            out.push_str(&format!("dlhub_{name}_count {}\n", s.count));
        }
        out.push_str(
            "# HELP dlhub_spans_dropped_total Spans lost to ring overflow or store eviction.\n",
        );
        out.push_str("# TYPE dlhub_spans_dropped_total counter\n");
        out.push_str(&format!(
            "dlhub_spans_dropped_total {}\n",
            self.spans_dropped
        ));
        if !self.servables.is_empty() {
            out.push_str(
                "# HELP dlhub_servable_requests_total Requests answered per servable (hits, misses and failures alike).\n\
                 # TYPE dlhub_servable_requests_total counter\n\
                 # HELP dlhub_servable_cache_hits_total Requests answered from the memo cache.\n\
                 # TYPE dlhub_servable_cache_hits_total counter\n\
                 # HELP dlhub_servable_errors_total Requests that returned an error.\n\
                 # TYPE dlhub_servable_errors_total counter\n",
            );
        }
        for (servable, s) in &self.servables {
            let servable = escape_label(servable);
            let label = format!("{{servable=\"{servable}\"}}");
            out.push_str(&format!(
                "dlhub_servable_requests_total{label} {}\n",
                s.requests
            ));
            out.push_str(&format!(
                "dlhub_servable_cache_hits_total{label} {}\n",
                s.cache_hits
            ));
            out.push_str(&format!(
                "dlhub_servable_errors_total{label} {}\n",
                s.errors
            ));
            for (stage, latency) in [
                ("request", &s.request_latency),
                ("invocation", &s.invocation_latency),
                ("inference", &s.inference_latency),
            ] {
                if let Some(sum) = latency.summary() {
                    for (q, v) in [(0.5, sum.p50), (0.95, sum.p95), (0.99, sum.p99)] {
                        out.push_str(&format!(
                            "dlhub_servable_{stage}_latency_seconds{{servable=\"{servable}\",quantile=\"{q}\"}} {:.9}\n",
                            secs(v)
                        ));
                    }
                    out.push_str(&format!(
                        "dlhub_servable_{stage}_latency_seconds_sum{label} {:.9}\n",
                        secs(sum.sum)
                    ));
                    out.push_str(&format!(
                        "dlhub_servable_{stage}_latency_seconds_count{label} {}\n",
                        sum.count
                    ));
                }
            }
            render_le_buckets(
                &mut out,
                "dlhub_servable_request_latency_seconds_bucket",
                &format!("servable=\"{servable}\""),
                &s.request_latency,
            );
            if let Some(batch) = s.batch_sizes.summary() {
                out.push_str(&format!(
                    "dlhub_servable_batch_size{{servable=\"{servable}\",quantile=\"0.5\"}} {}\n",
                    batch.p50
                ));
                out.push_str(&format!(
                    "dlhub_servable_batch_size_count{label} {}\n",
                    batch.count
                ));
            }
        }
        if !self.slos.is_empty() {
            out.push_str(
                "# HELP dlhub_slo_burn_rate Error-budget burn rate per objective and window.\n\
                 # TYPE dlhub_slo_burn_rate gauge\n\
                 # HELP dlhub_slo_firing Whether the multi-window SLO alert is firing.\n\
                 # TYPE dlhub_slo_firing gauge\n",
            );
        }
        for slo in &self.slos {
            let servable = escape_label(&slo.servable);
            for (objective, fast, slow) in [
                ("latency", slo.latency_burn_fast, slo.latency_burn_slow),
                (
                    "availability",
                    slo.availability_burn_fast,
                    slo.availability_burn_slow,
                ),
            ] {
                for (window, burn) in [("fast", fast), ("slow", slow)] {
                    out.push_str(&format!(
                        "dlhub_slo_burn_rate{{servable=\"{servable}\",objective=\"{objective}\",window=\"{window}\"}} {burn:.6}\n",
                    ));
                }
            }
            out.push_str(&format!(
                "dlhub_slo_firing{{servable=\"{servable}\"}} {}\n",
                u64::from(slo.firing)
            ));
            out.push_str(&format!(
                "dlhub_slo_alerts_fired_total{{servable=\"{servable}\"}} {}\n",
                slo.alerts_fired
            ));
        }
        out
    }

    /// Human-oriented per-servable dashboard for the CLI.
    pub fn render_dashboard(&self) -> String {
        let mut out = String::new();
        for (servable, s) in &self.servables {
            let hit_pct = if s.requests > 0 {
                s.cache_hits as f64 * 100.0 / s.requests as f64
            } else {
                0.0
            };
            out.push_str(&format!("servable {servable}\n"));
            out.push_str(&format!(
                "  requests {}   cache-hits {} ({hit_pct:.1}%)   errors {}\n",
                s.requests, s.cache_hits, s.errors
            ));
            out.push_str(&latency_line("request", &s.request_latency));
            out.push_str(&latency_line("invocation", &s.invocation_latency));
            out.push_str(&latency_line("inference", &s.inference_latency));
            if let Some(batch) = s.batch_sizes.summary() {
                out.push_str(&format!(
                    "  batch-size  p50 {}  p95 {}  flushes {}\n",
                    batch.p50, batch.p95, batch.count
                ));
            }
        }
        if !self.counters.is_empty() || !self.gauges.is_empty() {
            out.push_str("totals\n");
            for (name, value) in &self.counters {
                out.push_str(&format!("  {name} {value}\n"));
            }
            for (name, value) in &self.gauges {
                out.push_str(&format!("  {name} {value}\n"));
            }
        }
        for (name, s) in &self.histograms {
            let Some(s) = s.summary() else { continue };
            out.push_str(&format!(
                "histogram {name}  p50 {}  p95 {}  p99 {}  n={}\n",
                s.p50, s.p95, s.p99, s.count
            ));
        }
        if self.spans_dropped > 0 {
            out.push_str(&format!(
                "spans dropped {} (trace analytics may be incomplete)\n",
                self.spans_dropped
            ));
        }
        if !self.slos.is_empty() {
            out.push_str(&self.render_slos());
        }
        if out.is_empty() {
            out.push_str("no metrics recorded\n");
        }
        out
    }

    /// Per-servable SLO table for the CLI (`dlhub slo`).
    pub fn render_slos(&self) -> String {
        if self.slos.is_empty() {
            return "no SLOs configured\n".to_string();
        }
        let mut out = String::new();
        for slo in &self.slos {
            out.push_str(&slo.render_text());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_sums_fold_batches_into_per_item_costs() {
        let sums = DispatchSums::default();
        assert_eq!(sums.cost(), None);
        // 10 items, 100 ms total inference => 10 ms an item.
        sums.record(10, Duration::from_millis(100), Duration::from_millis(104));
        let cost = sums.cost().unwrap();
        assert_eq!((cost.dispatches, cost.items), (1, 10));
        assert_eq!(cost.inference(), Duration::from_millis(10));
        assert_eq!(cost.overhead(), Duration::from_millis(4));
        assert_eq!(cost.overhead_floor(), Duration::from_millis(4));
        // A contended single-item dispatch (86 ms of queue wait) moves
        // the mean overhead, not the floor.
        sums.record(1, Duration::from_millis(10), Duration::from_millis(100));
        let cost = sums.cost().unwrap();
        assert_eq!((cost.dispatches, cost.items), (2, 11));
        assert_eq!(cost.inference(), Duration::from_millis(10));
        assert_eq!(cost.overhead(), Duration::from_millis(47));
        assert_eq!(cost.overhead_floor(), Duration::from_millis(4));
        // An empty reply still counts as one item, and an invocation
        // shorter than its inference clamps to zero overhead.
        sums.record(0, Duration::from_millis(1), Duration::ZERO);
        let cost = sums.cost().unwrap();
        assert_eq!(cost.items, 12);
        assert_eq!(cost.overhead_floor(), Duration::ZERO);
    }

    #[test]
    fn bucket_index_and_bounds_bracket_values() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        for v in [0u64, 1, 2, 3, 17, 1024, 1 << 40, u64::MAX] {
            assert!(v <= bucket_bound(bucket_index(v)));
        }
    }

    #[test]
    fn histogram_quantiles_are_log2_accurate() {
        let h = Histogram::new();
        assert!(h.snapshot().summary().is_none());
        assert!(h.snapshot().quantile(0.5).is_none());
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot().summary().unwrap();
        assert_eq!(s.count, 1000);
        assert_eq!(s.sum, 500_500);
        assert_eq!(s.mean, 500);
        // The true p50 is 500; rank interpolation inside the 256..511
        // bucket lands within a few counts of it (the old
        // bucket-bound answer was pinned to 511).
        assert!(s.p50 >= 495 && s.p50 <= 505, "p50={}", s.p50);
        // p99's bucket (512..1023) is only filled up to 1000, so the
        // uniform-spread assumption overshoots slightly — but stays
        // inside the bucket instead of pinning to 1023.
        assert!(s.p99 >= 990 && s.p99 < 1024, "p99={}", s.p99);
    }

    #[test]
    fn interpolated_quantiles_track_an_exact_sort_oracle() {
        // Uniform one-sample-per-value fills every bucket uniformly,
        // which is exactly the interpolation model: the estimate must
        // track the sorted-rank oracle closely at every quantile, not
        // just land in the right power-of-two bucket.
        let h = Histogram::new();
        let mut values: Vec<u64> = (0..4096u64).map(|i| (i * 2_654_435_761) % 60_000).collect();
        for &v in &values {
            h.record(v);
        }
        values.sort_unstable();
        for q in [0.5, 0.9, 0.99, 0.999] {
            let rank = ((q * values.len() as f64).ceil() as usize).max(1) - 1;
            let exact = values[rank];
            let got = h.snapshot().quantile(q).unwrap();
            // Same bucket as the oracle, and within the in-bucket
            // uniform-spread error (far tighter than the 2x the old
            // bucket-bound estimate allowed).
            assert_eq!(bucket_index(got), bucket_index(exact), "q={q}");
            let err = (got as f64 - exact as f64).abs() / exact.max(1) as f64;
            assert!(err < 0.35, "q={q} exact={exact} got={got}");
        }
    }

    #[test]
    fn registry_reuses_instruments_by_name() {
        let reg = Registry::new();
        reg.counter("broker_send_total").add(3);
        reg.counter("broker_send_total").add(4);
        assert_eq!(reg.counter("broker_send_total").get(), 7);
        reg.gauge("queue_depth").set(5);
        reg.gauge("queue_depth").add(-2);
        assert_eq!(reg.gauge("queue_depth").get(), 3);
        let series = reg.series("a/b");
        series.requests.inc();
        assert_eq!(reg.series("a/b").requests.get(), 1);
    }

    #[test]
    fn snapshot_renders_everywhere_without_panicking() {
        let reg = Registry::new();
        reg.counter("broker_send_total").add(2);
        reg.gauge("async_pool_active").set(1);
        reg.histogram("queue_wait_ns").record(1500);
        let series = reg.series("dlhub/echo");
        series.requests.add(10);
        series.cache_hits.add(9);
        series
            .request_latency
            .record_duration(Duration::from_micros(120));
        series.batch_sizes.record(4);

        let snap = reg.snapshot();
        assert!(!snap.is_empty());
        let prom = snap.render_prometheus();
        assert!(prom.contains("dlhub_broker_send_total 2"));
        assert!(prom.contains("dlhub_servable_requests_total{servable=\"dlhub/echo\"} 10"));
        assert!(prom.contains("dlhub_servable_request_latency_seconds"));
        let dash = snap.render_dashboard();
        assert!(dash.contains("servable dlhub/echo"));
        assert!(dash.contains("cache-hits 9 (90.0%)"));
        let j = serde_json::to_string(&snap.to_json()).unwrap();
        assert!(j.contains("\"servable\":\"dlhub/echo\""));
        assert!(j.contains("\"invocation_latency_ns\":null"));
    }

    #[test]
    fn empty_snapshot_reports_empty() {
        let snap = Registry::new().snapshot();
        assert!(snap.is_empty());
        assert_eq!(snap.render_dashboard(), "no metrics recorded\n");
    }

    #[test]
    fn label_values_are_escaped_in_prometheus_output() {
        assert_eq!(escape_label("dlhub/echo"), "dlhub/echo");
        assert_eq!(escape_label("a\"b"), "a\\\"b");
        assert_eq!(escape_label("a\\b"), "a\\\\b");
        assert_eq!(escape_label("a\nb"), "a\\nb");
        let reg = Registry::new();
        reg.series("evil\"name\\with\nnewline").requests.inc();
        let prom = reg.snapshot().render_prometheus();
        assert!(
            prom.contains("{servable=\"evil\\\"name\\\\with\\nnewline\"} 1"),
            "{prom}"
        );
        // Every emitted line is a single physical line: the raw
        // newline never leaks into the exposition.
        assert!(prom
            .lines()
            .all(|l| l.contains("evil") || !l.contains("newline")));
    }

    #[test]
    fn exemplars_rotate_per_bucket_and_surface_everywhere() {
        let h = Histogram::new();
        // Five samples into one bucket with traces 1..=5: the oldest
        // rotates out, the rest stay (slot = pre-increment count mod 4).
        for trace in 1..=5u64 {
            h.record_with_exemplar(100, trace);
        }
        h.record_with_exemplar(1 << 40, 99); // tail bucket
        h.record(7); // no exemplar
        let buckets = h.snapshot().le_buckets();
        let b100 = buckets.iter().find(|b| b.count == 5).unwrap();
        assert_eq!(b100.exemplars.len(), 4);
        assert!(b100.exemplars.contains(&5));
        assert!(!b100.exemplars.contains(&1));
        let tail = buckets.iter().find(|b| b.exemplars == vec![99]).unwrap();
        assert_eq!(tail.count, 1);
        let b7 = buckets
            .iter()
            .find(|b| b.count == 1 && b.exemplars.is_empty());
        assert!(b7.is_some(), "{buckets:?}");

        let reg = Registry::new();
        reg.series("dlhub/echo")
            .request_latency
            .record_with_exemplar(1000, 0x2a);
        let snap = reg.snapshot();
        let (_, s) = &snap.servables[0];
        assert_eq!(s.request_latency.le_buckets()[0].exemplars, vec![0x2a]);
        let prom = snap.render_prometheus();
        assert!(
            prom.contains(
                "_bucket{servable=\"dlhub/echo\",le=\"0.000001023\"} 1 # {trace_id=\"0x2a\"}"
            ),
            "{prom}"
        );
        assert!(prom.contains("dlhub_spans_dropped_total 0"), "{prom}");
        let j = serde_json::to_string(&snap.to_json()).unwrap();
        assert!(j.contains("\"request_latency_buckets\""), "{j}");
        assert!(j.contains("\"exemplars\":[42]"), "{j}");
        assert!(j.contains("\"spans_dropped\":0"), "{j}");
    }

    #[test]
    fn snapshot_since_yields_only_the_activity_between_points() {
        let reg = Registry::new();
        reg.counter("requests_total").add(10);
        reg.gauge("depth").set(4);
        let series = reg.series("dlhub/echo");
        series.requests.add(10);
        series.cache_hits.add(5);
        series.request_latency.record(1_000);
        (0..1_000).for_each(|_| series.invocation_latency.record(1_000));
        let baseline = reg.snapshot();

        reg.counter("requests_total").add(7);
        reg.counter("born_after_baseline").add(3);
        reg.gauge("depth").set(1);
        series.requests.add(2);
        series.request_latency.record(2_000);
        series.request_latency.record(2_000);
        (0..10).for_each(|_| series.invocation_latency.record(1_000_000));

        let delta = reg.snapshot_since(&baseline);
        let counter = |name: &str| {
            delta
                .counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
        };
        assert_eq!(counter("requests_total"), Some(7));
        assert_eq!(counter("born_after_baseline"), Some(3));
        assert_eq!(delta.gauges, vec![("depth".to_string(), -3)]);
        let (_, s) = &delta.servables[0];
        assert_eq!(s.requests, 2);
        assert_eq!(s.cache_hits, 0);
        let lat = s.request_latency.summary().unwrap();
        assert_eq!(lat.count, 2);
        assert_eq!(lat.sum, 4_000);
        assert_eq!(lat.mean, 2_000);
        // Bucket deltas drop the baseline-only bucket entirely.
        let buckets = s.request_latency.le_buckets();
        assert_eq!(buckets.len(), 1);
        assert_eq!(buckets[0].count, 2);
        // The quantiles are the interval's: 1,000 fast samples before
        // the baseline do not drag the delta's median off the 10 slow
        // ones after it.
        let p50 = s.invocation_latency.summary().unwrap().p50;
        assert_eq!(bucket_index(p50), bucket_index(1_000_000), "{p50}");

        // A delta against the current state is all zeros.
        let now = reg.snapshot();
        let none = reg.snapshot_since(&now);
        assert!(none.counters.iter().all(|(_, v)| *v == 0));
        assert!(none.histograms.is_empty());
        assert_eq!(none.servables[0].1.request_latency.summary(), None);
    }

    #[test]
    fn help_lines_render_before_type_lines() {
        let reg = Registry::new();
        reg.counter_with_help("broker_send_total", "Messages accepted by the broker.")
            .add(2);
        reg.gauge_with_help("async_queue_depth", "Jobs waiting in the injector queue.")
            .set(3);
        reg.histogram_with_help("broker_queue_wait_ns", "Queue wait per message, ns.")
            .record(10);
        // First description wins; later ones are ignored.
        reg.describe("broker_send_total", "a different story");
        reg.describe("weird_help", "text with \\ and\nnewline");
        reg.counter("weird_help").inc();
        let prom = reg.snapshot().render_prometheus();
        let send_help = prom
            .lines()
            .position(|l| l == "# HELP dlhub_broker_send_total Messages accepted by the broker.");
        let send_type = prom
            .lines()
            .position(|l| l == "# TYPE dlhub_broker_send_total counter");
        assert!(send_help.is_some(), "{prom}");
        assert!(send_help < send_type, "{prom}");
        assert!(
            prom.contains("# HELP dlhub_async_queue_depth Jobs waiting in the injector queue."),
            "{prom}"
        );
        assert!(
            prom.contains("# HELP dlhub_broker_queue_wait_ns Queue wait per message, ns."),
            "{prom}"
        );
        assert!(!prom.contains("a different story"), "{prom}");
        // Help text is escaped onto one physical line.
        assert!(prom.contains("text with \\\\ and\\nnewline"), "{prom}");
        // Undescribed metrics still render without a HELP line.
        reg.counter("bare").inc();
        let prom = reg.snapshot().render_prometheus();
        assert!(prom.contains("# TYPE dlhub_bare counter"), "{prom}");
        assert!(!prom.contains("# HELP dlhub_bare"), "{prom}");
    }

    #[test]
    fn entries_expose_live_instruments() {
        let reg = Registry::new();
        reg.counter("c").add(7);
        reg.gauge("g").set(-2);
        reg.histogram("h").record(5);
        reg.series("s/v").requests.inc();
        let counters = reg.counter_entries();
        assert_eq!(counters.len(), 1);
        assert_eq!(counters[0].0, "c");
        assert_eq!(counters[0].1.get(), 7);
        assert_eq!(reg.gauge_entries()[0].1.get(), -2);
        let (name, h) = &reg.histogram_entries()[0];
        assert_eq!(name, "h");
        let snap = h.snapshot();
        assert_eq!(snap.count, 1);
        assert_eq!(snap.buckets[bucket_index(5)], 1);
        assert_eq!(reg.servable_entries()[0].1.requests.get(), 1);
    }

    #[test]
    fn concurrent_recording_is_lossless() {
        let reg = Registry::new();
        let series = reg.series("hot");
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let series = Arc::clone(&series);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        series.requests.inc();
                        series.request_latency.record(i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(series.requests.get(), 80_000);
        assert_eq!(series.request_latency.count(), 80_000);
    }
}
