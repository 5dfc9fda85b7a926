//! The control pass: one reading of the registry the request path
//! already writes, differenced against the passes before it.
//!
//! The `Reconciler` and admission pressure need four signals — arrival
//! rate, dispatch cost, SLO burn and queue-wait p99 — and every one of
//! them is a difference of cumulative state or a live read:
//!
//! * arrival rate: a `ServableSeries::requests` count against the same
//!   count at an earlier pass, over the time between the two;
//! * cost: `ServableSeries::dispatch` read live;
//! * burn: the SLO tracker's own fast window, read live;
//! * queue wait: the broker's and the replica pools' wait histograms
//!   `since` an earlier pass.
//!
//! So a pass records only what it will difference later — each
//! servable's request count and the two wait histograms — into a
//! [`PassHistory`] kept back to the newest pass older than the longest
//! signal window, and never longer than [`HISTORY_CAPACITY`] passes.
//! [`ManagementService::reconcile_at`] runs one pass: it stores the
//! admission verdict in the `AdmissionController` (so `admit` reads one
//! atomic) and hands the reconciler a [`PassSignals`] view.

use super::ManagementService;
use crate::admission::AdmissionConfig;
use crate::autoscale::{ControlDecision, ScalingSignals};
use crate::pipeline::Pipeline;
use dlhub_obs::{HistogramSnapshot, Obs, ServableCost, ServableSeries};
use dlhub_sync::time::now_ns;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

/// Passes a history holds at most: with a pass every second, two
/// minutes.
pub(crate) const HISTORY_CAPACITY: usize = 120;

/// What one pass read, as later passes difference it.
struct Pass {
    at_ns: u64,
    /// Each servable's cumulative `requests`, id-sorted.
    requests: Vec<(String, u64)>,
    broker_queue_wait: HistogramSnapshot,
    replica_queue_wait: HistogramSnapshot,
}

impl Pass {
    fn requests(&self, servable: &str) -> Option<u64> {
        let idx = self
            .requests
            .binary_search_by(|(id, _)| id.as_str().cmp(servable))
            .ok()?;
        Some(self.requests[idx].1)
    }
}

/// The control passes a Management Service has run, newest last.
pub(crate) struct PassHistory {
    passes: VecDeque<Pass>,
    /// The longest signal window any reader asks for.
    keep_ns: u64,
}

fn nanos(d: Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}

impl PassHistory {
    /// An empty history that keeps passes back to the newest one older
    /// than `keep` before the latest.
    pub(crate) fn new(keep: Duration) -> Self {
        PassHistory {
            passes: VecDeque::new(),
            keep_ns: nanos(keep),
        }
    }

    /// Run one pass at `at_ns` over `obs`'s registry: record it, drop
    /// what no window reaches any more, and return the signals it
    /// reads. `pipelines` are the pipelines registered now.
    pub(crate) fn pass<'a>(
        &'a mut self,
        at_ns: u64,
        obs: &'a Obs,
        pipelines: Vec<Arc<Pipeline>>,
    ) -> PassSignals<'a> {
        let series = obs.metrics.servable_entries();
        self.passes.push_back(Pass {
            at_ns,
            requests: series
                .iter()
                .map(|(id, s)| (id.clone(), s.requests.get()))
                .collect(),
            broker_queue_wait: obs.metrics.histogram("broker_queue_wait_ns").snapshot(),
            replica_queue_wait: obs.metrics.histogram("replica_queue_wait_ns").snapshot(),
        });
        let cutoff = at_ns.saturating_sub(self.keep_ns);
        while self.passes.len() > HISTORY_CAPACITY
            || self.passes.get(1).is_some_and(|next| next.at_ns < cutoff)
        {
            self.passes.pop_front();
        }
        PassSignals {
            history: self,
            series,
            obs,
            pipelines,
        }
    }

    /// The pass a window ending at the newest pass is measured from:
    /// the newest pass older than `window`, else the oldest held.
    fn baseline(&self, window: Duration) -> Option<&Pass> {
        let cutoff = self.passes.back()?.at_ns.saturating_sub(nanos(window));
        let mut older = self.passes.iter().rev().skip(1);
        older.find(|p| p.at_ns < cutoff).or(self.passes.front())
    }

    /// Requests per second answered for `servable` over `window`: the
    /// count difference against the baseline pass, times 1e9, over the
    /// span in ns. Only passes that saw the servable count. `None` with
    /// fewer than two of them, or when they share a timestamp.
    fn arrival_rate(&self, servable: &str, window: Duration) -> Option<f64> {
        let mut seen = self
            .passes
            .iter()
            .rev()
            .filter_map(|p| Some((p.at_ns, p.requests(servable)?)));
        let (now_ns, now) = seen.next()?;
        let cutoff = now_ns.saturating_sub(nanos(window));
        let mut base = None;
        for (at_ns, count) in seen {
            base = Some((at_ns, count));
            if at_ns < cutoff {
                break;
            }
        }
        let (base_ns, base) = base?;
        let span_ns = now_ns.saturating_sub(base_ns);
        (span_ns > 0).then(|| now.saturating_sub(base) as f64 * 1e9 / span_ns as f64)
    }

    /// p99 wait over `window`, in the broker or in front of the replica
    /// pools, whichever is larger; `None` when neither saw a sample.
    fn queue_wait_p99(&self, window: Duration) -> Option<u64> {
        let (now, base) = (self.passes.back()?, self.baseline(window)?);
        let broker = now.broker_queue_wait.since(&base.broker_queue_wait);
        let replica = now.replica_queue_wait.since(&base.replica_queue_wait);
        broker.quantile(0.99).max(replica.quantile(0.99))
    }
}

/// What one control pass reads, as the `Reconciler` sees it. A
/// pipeline's frame is keyed by its name, so on their own the counts
/// would show pipeline traffic as load on a "servable" the executor
/// has no pool for, and none on the steps that ran it — a pipeline-only
/// load would idle-park every step's pool. Here a pipeline's arrivals
/// arrive at each of its steps, once per time the step appears, and
/// its name is never a pool to size.
pub(crate) struct PassSignals<'a> {
    history: &'a PassHistory,
    /// The registry's series as this pass read them, id-sorted.
    series: Vec<(String, Arc<ServableSeries>)>,
    obs: &'a Obs,
    pipelines: Vec<Arc<Pipeline>>,
}

impl PassSignals<'_> {
    /// Whether admission should count the service as contended: the
    /// queue-wait p99 over `config.signal_window`, or any servable's
    /// fast SLO burn, over its configured maximum.
    pub(crate) fn pressured(&self, config: &AdmissionConfig) -> bool {
        let queue_hot = self
            .history
            .queue_wait_p99(config.signal_window)
            .is_some_and(|p99| p99 > nanos(config.queue_wait_p99_max));
        let slos = self.obs.slo.snapshot();
        queue_hot || slos.iter().any(|s| s.burn_fast() > config.burn_rate_max)
    }
}

impl ScalingSignals for PassSignals<'_> {
    fn servables(&self) -> Vec<String> {
        let ids = self.series.iter().map(|(id, _)| id);
        ids.filter(|id| self.pipelines.iter().all(|p| p.name != **id))
            .cloned()
            .collect()
    }

    fn arrival_rate(&self, servable: &str, window: Duration) -> Option<f64> {
        let runs_in = self.pipelines.iter().flat_map(|p| {
            let runs = p.steps.iter().filter(|step| *step == servable);
            runs.map(|_| p.name.as_str())
        });
        runs_in
            .map(|pipeline| self.history.arrival_rate(pipeline, window))
            .fold(
                self.history.arrival_rate(servable, window),
                |sum, rate| match (sum, rate) {
                    (Some(a), Some(b)) => Some(a + b),
                    (a, b) => a.or(b),
                },
            )
    }

    fn burn_rate(&self, servable: &str, _window: Duration) -> Option<f64> {
        let tracker = self.obs.slo.get(servable)?;
        Some(tracker.snapshot().burn_fast())
    }

    fn cost(&self, servable: &str) -> Option<ServableCost> {
        let idx = self
            .series
            .binary_search_by(|(id, _)| id.as_str().cmp(servable))
            .ok()?;
        self.series[idx].1.dispatch.cost()
    }
}

impl ManagementService {
    /// One control pass at (virtual) time `now_ns`: record the
    /// registry's counts, store the admission verdict
    /// ([`crate::admission::AdmissionController::pressured`]) and run
    /// the reconciler over the pass's signals. Returns the decisions
    /// applied; empty while autoscaling is off. A no-op while neither
    /// admission nor autoscaling is configured.
    pub fn reconcile_at(&self, now_ns: u64) -> Vec<ControlDecision> {
        if self.admission.is_none() && self.reconciler.is_none() {
            return Vec::new();
        }
        // A snapshot: a pass that resizes pools must not hold the
        // registry a `run_pipeline` reads.
        let pipelines = self
            .pipelines
            .read()
            .values()
            .map(|registered| Arc::clone(&registered.pipeline))
            .collect();
        let mut history = self.control.lock();
        let signals = history.pass(now_ns, &self.obs, pipelines);
        if let Some(admission) = &self.admission {
            admission.set_pressured(signals.pressured(admission.config()));
        }
        match &self.reconciler {
            Some(reconciler) => reconciler.reconcile_at(now_ns, &signals),
            None => Vec::new(),
        }
    }

    /// One control pass on the obs clock, for embedders that want an
    /// immediate pass between background ticks (or without any).
    pub fn reconcile_now(&self) -> Vec<ControlDecision> {
        self.reconcile_at(now_ns())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEC: u64 = 1_000_000_000;

    #[test]
    fn pass_history_rates_are_bounded_and_never_negative() {
        let obs = Obs::new();
        let series = obs.metrics.series("u/m");
        let mut history = PassHistory::new(Duration::from_secs(10));
        let rate = |h: &PassHistory| h.arrival_rate("u/m", Duration::from_secs(10));
        // Fewer than two passes: no data, not zero.
        assert_eq!(rate(&history), None);
        series.requests.add(5);
        history.pass(SEC, &obs, Vec::new());
        assert_eq!(rate(&history), None);
        // 30 requests over the 2 s since the first pass.
        series.requests.add(30);
        history.pass(3 * SEC, &obs, Vec::new());
        assert_eq!(rate(&history), Some(15.0));
        // A second pass at the same instant spans no time.
        let mut same = PassHistory::new(Duration::from_secs(10));
        same.pass(SEC, &obs, Vec::new());
        same.pass(SEC, &obs, Vec::new());
        assert_eq!(rate(&same), None);
        // Passes out of order never make a negative rate.
        history.pass(2 * SEC, &obs, Vec::new());
        assert!(rate(&history).is_none_or(|r| r >= 0.0));
        // Many passes inside the window: capped, and the rate is over
        // what is held, 1 request per 10 ms.
        let mut dense = PassHistory::new(Duration::from_secs(3600));
        for step in 0..1_000u64 {
            series.requests.inc();
            dense.pass(step * SEC / 100, &obs, Vec::new());
        }
        assert_eq!(dense.passes.len(), HISTORY_CAPACITY);
        assert_eq!(rate(&dense), Some(100.0));
    }

    #[test]
    fn pass_history_keeps_back_to_the_newest_pass_older_than_the_window() {
        let obs = Obs::new();
        let mut history = PassHistory::new(Duration::from_secs(3));
        for s in 1..=10u64 {
            history.pass(s * SEC, &obs, Vec::new());
        }
        // 10 s − 3 s: the 6 s pass is the newest older than 7 s.
        let held: Vec<u64> = history.passes.iter().map(|p| p.at_ns / SEC).collect();
        assert_eq!(held, [6, 7, 8, 9, 10]);
        let baseline = history.baseline(Duration::from_secs(3)).unwrap();
        assert_eq!(baseline.at_ns, 6 * SEC);
    }
}
