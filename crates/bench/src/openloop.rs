//! Coordinated-omission-correct open-loop latency recording.
//!
//! A closed-loop client measures latency from the moment it *sent* a
//! request — but it only sends after the previous reply arrives, so
//! every stall in the service quietly pauses the load and deletes the
//! samples that would have shown the stall. That is coordinated
//! omission. An open-loop harness fixes it by deciding *when each
//! request should start* up front, from a seeded arrival schedule,
//! and measuring every request from that intended start: a request
//! that sat in the generator's backlog because the service was slow
//! carries its backlog wait in its recorded latency.
//!
//! [`OpenLoopRecorder`] stamps each request with three wall-clock
//! offsets — intended start (from the schedule), actual start (when a
//! client thread picked it up) and completion — and keeps every raw
//! sample, so its report reads two side-by-side distributions at exact
//! sorted ranks: the **corrected** series measures
//! `completed - intended`, the **uncorrected** series measures
//! `completed - started` (what a closed-loop bench would have
//! reported). The gap between their tails *is* the coordinated
//! omission the closed-loop number hides.

use dlhub_sync::Mutex;

use serde_json::{json, Value};

/// One recorded request: schedule stamp, pickup stamp, completion
/// stamp (all nanosecond offsets from the harness epoch) and the
/// request's trace id for stage attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenLoopSample {
    /// When the arrival schedule said this request starts.
    pub intended_ns: u64,
    /// When a client thread actually dequeued and sent it.
    pub started_ns: u64,
    /// When the reply arrived.
    pub completed_ns: u64,
    /// Trace id of the request's span tree (0 when untraced).
    pub trace: u64,
}

impl OpenLoopSample {
    /// Latency measured from the *intended* start: service time plus
    /// any backlog the request accumulated behind a slow service.
    pub fn corrected_ns(&self) -> u64 {
        self.completed_ns.saturating_sub(self.intended_ns)
    }

    /// Latency a closed-loop client would have reported: measured
    /// from the actual send, blind to backlog.
    pub fn uncorrected_ns(&self) -> u64 {
        self.completed_ns.saturating_sub(self.started_ns)
    }

    /// Time the request waited in the generator's backlog before a
    /// client thread picked it up.
    pub fn backlog_ns(&self) -> u64 {
        self.started_ns.saturating_sub(self.intended_ns)
    }
}

/// Thread-safe recorder for one open-loop run: the raw per-request
/// samples, which serve both the report's exact quantiles and
/// trace-level tail attribution.
#[derive(Default)]
pub struct OpenLoopRecorder {
    samples: Mutex<Vec<OpenLoopSample>>,
}

impl OpenLoopRecorder {
    /// Empty recorder.
    pub fn new() -> Self {
        OpenLoopRecorder::default()
    }

    /// Record one completed request. Since `intended_ns <=
    /// started_ns` by construction (a request cannot be sent before
    /// its schedule slot), the corrected latency is always >= the
    /// uncorrected one.
    pub fn record(&self, sample: OpenLoopSample) {
        self.samples.lock().push(sample);
    }

    /// Requests recorded so far.
    pub fn count(&self) -> u64 {
        self.samples.lock().len() as u64
    }

    /// Copy of every recorded sample, in record order.
    pub fn samples(&self) -> Vec<OpenLoopSample> {
        self.samples.lock().clone()
    }

    /// The `n` slowest samples by corrected latency, slowest first —
    /// the requests whose traces explain where the p999 comes from.
    pub fn slowest(&self, n: usize) -> Vec<OpenLoopSample> {
        let mut all = self.samples();
        all.sort_by_key(|s| std::cmp::Reverse(s.corrected_ns()));
        all.truncate(n);
        all
    }

    /// Side-by-side report; `None` until something was recorded.
    pub fn report(&self) -> Option<OpenLoopReport> {
        let samples = self.samples();
        let summarize = |latency: fn(&OpenLoopSample) -> u64| {
            SampleSummary::of(samples.iter().map(latency).collect())
        };
        Some(OpenLoopReport {
            corrected: summarize(OpenLoopSample::corrected_ns)?,
            uncorrected: summarize(OpenLoopSample::uncorrected_ns)?,
            backlog: summarize(OpenLoopSample::backlog_ns)?,
        })
    }
}

/// Exact digest of a set of raw samples: every quantile is the
/// `ceil(q·n)`-th smallest value, read from one sort — no bucketing, so
/// no quantile error. Units are whatever was recorded (nanoseconds for
/// latencies).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleSummary {
    /// Samples recorded.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Integer mean.
    pub mean: u64,
    /// Smallest sample.
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
    /// 99.99th percentile.
    pub p9999: u64,
}

impl SampleSummary {
    /// Sort `values` and read the ranks; `None` when empty.
    pub fn of(mut values: Vec<u64>) -> Option<Self> {
        values.sort_unstable();
        let (&min, &max) = (values.first()?, values.last()?);
        let n = values.len();
        let rank = |q: f64| values[((q * n as f64).ceil() as usize).clamp(1, n) - 1];
        let sum: u64 = values.iter().sum();
        Some(SampleSummary {
            count: n as u64,
            sum,
            mean: sum / n as u64,
            min,
            max,
            p50: rank(0.50),
            p90: rank(0.90),
            p99: rank(0.99),
            p999: rank(0.999),
            p9999: rank(0.9999),
        })
    }

    /// JSON form used in bench artifacts.
    pub fn to_json(&self) -> Value {
        json!({
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.p50,
            "p90": self.p90,
            "p99": self.p99,
            "p999": self.p999,
            "p9999": self.p9999,
        })
    }
}

/// Corrected vs uncorrected tails for one open-loop run. The
/// `gap_*` accessors quantify the coordinated omission a closed-loop
/// bench of the same run would have hidden.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenLoopReport {
    /// Latency from intended start (includes generator backlog).
    pub corrected: SampleSummary,
    /// Latency from actual send (what closed-loop would report).
    pub uncorrected: SampleSummary,
    /// Generator backlog wait on its own.
    pub backlog: SampleSummary,
}

impl OpenLoopReport {
    /// Coordinated-omission gap at the 99th percentile, nanoseconds.
    pub fn gap_p99_ns(&self) -> u64 {
        self.corrected.p99.saturating_sub(self.uncorrected.p99)
    }

    /// Coordinated-omission gap at the 99.9th percentile.
    pub fn gap_p999_ns(&self) -> u64 {
        self.corrected.p999.saturating_sub(self.uncorrected.p999)
    }

    /// JSON form used in `BENCH_workloads.json`.
    pub fn to_json(&self) -> Value {
        json!({
            "corrected": self.corrected.to_json(),
            "uncorrected": self.uncorrected.to_json(),
            "backlog": self.backlog.to_json(),
            "gap_p99_ns": self.gap_p99_ns(),
            "gap_p999_ns": self.gap_p999_ns(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrected_latency_includes_backlog() {
        let rec = OpenLoopRecorder::new();
        // Scheduled at 0, picked up 5 ms late, served in 1 ms.
        rec.record(OpenLoopSample {
            intended_ns: 0,
            started_ns: 5_000_000,
            completed_ns: 6_000_000,
            trace: 7,
        });
        let report = rec.report().unwrap();
        assert_eq!(report.corrected.p50, 6_000_000);
        assert_eq!(report.uncorrected.p50, 1_000_000);
        assert_eq!(report.backlog.p50, 5_000_000);
        assert_eq!(report.gap_p99_ns(), 5_000_000);
    }

    #[test]
    fn slowest_ranks_by_corrected_latency() {
        let rec = OpenLoopRecorder::new();
        for (i, backlog) in [0u64, 30_000_000, 2_000_000].iter().enumerate() {
            rec.record(OpenLoopSample {
                intended_ns: 0,
                started_ns: *backlog,
                completed_ns: backlog + 1_000_000,
                trace: i as u64 + 1,
            });
        }
        let top = rec.slowest(2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].trace, 2, "largest backlog first");
        assert_eq!(top[1].trace, 3);
    }
}
