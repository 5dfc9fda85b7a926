//! Request batching (§V-B3).
//!
//! "DLHub support for batch queries is designed to improve overall
//! throughput by amortizing system overheads over many requests." The
//! [`Batcher`] coalesces concurrently submitted single requests into
//! one dispatched task, flushing when either `max_batch` items are
//! pending or the oldest item has waited `max_delay`.
//!
//! ```
//! use dlhub_core::batch::{BatchSizing, Batcher};
//! use dlhub_core::value::Value;
//! use std::sync::Arc;
//! use std::time::Duration;
//!
//! // Dispatch just echoes the coalesced inputs.
//! let batcher = Batcher::new(
//!     BatchSizing::Fixed(8),
//!     Duration::from_millis(2),
//!     Arc::new(|inputs, _waited| Ok(inputs)),
//! );
//! assert_eq!(batcher.submit(Value::Int(7)).unwrap(), Value::Int(7));
//! ```

use crate::error::DlhubError;
use crate::value::Value;
use dlhub_obs::{ServableCost, ServableSeries};
use dlhub_sync::atomic::{AtomicBool, Ordering};
use dlhub_sync::channel;
use dlhub_sync::thread;
use dlhub_sync::time::Instant;
use dlhub_sync::{Condvar, Mutex};
use std::sync::Arc;
use std::time::Duration;

/// Callback that dispatches one coalesced batch and returns outputs in
/// input order. The second argument is how long the batch's oldest item
/// waited for the flush.
pub type BatchDispatch =
    Arc<dyn Fn(Vec<Value>, Duration) -> Result<Vec<Value>, DlhubError> + Send + Sync>;

/// How the flush threshold is chosen.
///
/// `Adaptive` implements the paper's proposed extension (§V-B3): "use
/// such servable profiles to design adaptive batching algorithms" —
/// the threshold is recomputed from the servable's observed
/// inference/overhead profile so cheap servables batch aggressively
/// while expensive ones flush early to keep latency down.
#[derive(Clone)]
pub enum BatchSizing {
    /// Always flush at `n` pending items.
    Fixed(usize),
    /// Derive the threshold from the servable's live dispatch cost.
    Adaptive {
        /// The servable's series, whose dispatch sums are the profile.
        series: Arc<ServableSeries>,
        /// Acceptable overhead share of per-item cost (e.g. 0.1 =
        /// overhead may be 10% of a batch item's total cost).
        target_overhead_fraction: f64,
        /// Hard upper bound on the batch size.
        cap: usize,
    },
}

impl BatchSizing {
    fn current_max(&self) -> usize {
        match self {
            BatchSizing::Fixed(n) => (*n).max(1),
            BatchSizing::Adaptive {
                series,
                target_overhead_fraction,
                cap,
            } => series
                .dispatch
                .cost()
                .map(|c| suggested_batch(&c, *target_overhead_fraction, *cap))
                // No dispatch yet: start conservatively at 1 so the
                // first flush seeds the cost quickly.
                .unwrap_or(1),
        }
    }
}

/// The batch size at which per-item overhead drops below
/// `target_overhead_fraction` of per-item total cost:
/// overhead / (batch · inference + overhead) ≤ f. Saturates at `max`
/// and never returns 0.
pub fn suggested_batch(cost: &ServableCost, target_overhead_fraction: f64, max: usize) -> usize {
    let overhead = cost.overhead().as_secs_f64();
    let inference = cost.inference().as_secs_f64();
    if overhead <= 0.0 {
        return 1;
    }
    if inference <= 0.0 {
        // Pure-overhead servables (noop-like): batch as much as
        // allowed, every extra item is free.
        return max.max(1);
    }
    let f = target_overhead_fraction.clamp(1e-3, 0.999);
    // Solve overhead / (n·inference + overhead) = f for n.
    let n = overhead * (1.0 - f) / (f * inference);
    (n.ceil() as usize).clamp(1, max.max(1))
}

struct Pending {
    input: Value,
    reply: channel::Sender<Result<Value, DlhubError>>,
}

struct State {
    pending: Vec<Pending>,
    oldest: Option<Instant>,
}

/// Coalesces concurrent requests into batches.
pub struct Batcher {
    state: Arc<Mutex<State>>,
    wakeup: Arc<Condvar>,
    shutdown: Arc<AtomicBool>,
    flusher: Option<thread::JoinHandle<()>>,
    sizing: BatchSizing,
}

impl Batcher {
    /// Create a batcher flushing at `sizing`'s threshold (fixed or
    /// profile-adaptive) or after `max_delay` of waiting, dispatching
    /// through `dispatch`.
    pub fn new(sizing: BatchSizing, max_delay: Duration, dispatch: BatchDispatch) -> Self {
        let state = Arc::new(Mutex::new(State {
            pending: Vec::new(),
            oldest: None,
        }));
        let wakeup = Arc::new(Condvar::new());
        let shutdown = Arc::new(AtomicBool::new(false));
        let flusher = {
            let state = Arc::clone(&state);
            let wakeup = Arc::clone(&wakeup);
            let shutdown = Arc::clone(&shutdown);
            let sizing = sizing.clone();
            thread::Builder::new()
                .name("dlhub-batcher".into())
                .spawn(move || loop {
                    let (batch, waited): (Vec<Pending>, Duration) = {
                        let mut st = state.lock();
                        loop {
                            if shutdown.load(Ordering::Relaxed) && st.pending.is_empty() {
                                return;
                            }
                            let due = match st.oldest {
                                Some(t) => {
                                    st.pending.len() >= sizing.current_max()
                                        || t.elapsed() >= max_delay
                                        || shutdown.load(Ordering::Relaxed)
                                }
                                None => false,
                            };
                            if due {
                                let waited =
                                    st.oldest.map(|t| t.elapsed()).unwrap_or(Duration::ZERO);
                                st.oldest = None;
                                break (std::mem::take(&mut st.pending), waited);
                            }
                            match st.oldest {
                                Some(t) => {
                                    let deadline = t + max_delay;
                                    wakeup.wait_until(&mut st, deadline);
                                }
                                None => {
                                    wakeup.wait_for(&mut st, Duration::from_millis(50));
                                }
                            }
                        }
                    };
                    let (inputs, replies): (Vec<_>, Vec<_>) =
                        batch.into_iter().map(|p| (p.input, p.reply)).unzip();
                    match (dispatch)(inputs, waited) {
                        Ok(outputs) if outputs.len() == replies.len() => {
                            for (reply, out) in replies.into_iter().zip(outputs) {
                                let _ = reply.send(Ok(out));
                            }
                        }
                        Ok(_) => {
                            for reply in replies {
                                let _ = reply.send(Err(DlhubError::Transport(
                                    "batch output count mismatch".into(),
                                )));
                            }
                        }
                        Err(e) => {
                            for reply in replies {
                                let _ = reply.send(Err(e.clone()));
                            }
                        }
                    }
                })
                .expect("spawn batcher flusher")
        };
        Batcher {
            state,
            wakeup,
            shutdown,
            flusher: Some(flusher),
            sizing,
        }
    }

    /// Submit one input; blocks until its batch is dispatched and the
    /// matching output arrives.
    pub fn submit(&self, input: Value) -> Result<Value, DlhubError> {
        let (tx, rx) = channel::bounded(1);
        {
            let mut st = self.state.lock();
            if self.shutdown.load(Ordering::Relaxed) {
                return Err(DlhubError::Transport("batcher shut down".into()));
            }
            st.pending.push(Pending { input, reply: tx });
            // The first item starts the `max_delay` clock, and an idle
            // flusher sleeps without a deadline: wake it to re-arm.
            let first = st.oldest.is_none();
            if first {
                st.oldest = Some(Instant::now());
            }
            if first || st.pending.len() >= self.sizing.current_max() {
                self.wakeup.notify_all();
            }
        }
        rx.recv()
            .map_err(|_| DlhubError::Transport("batcher dropped request".into()))?
    }

    /// Items currently waiting for a flush.
    pub fn pending(&self) -> usize {
        self.state.lock().pending.len()
    }
}

impl Drop for Batcher {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        self.wakeup.notify_all();
        if let Some(h) = self.flusher.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// Dispatch that records batch sizes and echoes inputs.
    fn counting_dispatch(batches: Arc<Mutex<Vec<usize>>>) -> BatchDispatch {
        Arc::new(move |inputs: Vec<Value>, _| {
            batches.lock().push(inputs.len());
            Ok(inputs)
        })
    }

    #[test]
    fn single_request_flushes_after_delay() {
        let batches = Arc::new(Mutex::new(Vec::new()));
        let b = Batcher::new(
            BatchSizing::Fixed(100),
            Duration::from_millis(10),
            counting_dispatch(batches.clone()),
        );
        // Let the flusher go idle first: the lone item must still be
        // flushed on its own deadline, not on the idle tick (50 ms).
        std::thread::sleep(Duration::from_millis(5));
        let start = Instant::now();
        let out = b.submit(Value::Int(7)).unwrap();
        assert_eq!(out, Value::Int(7));
        assert!(start.elapsed() >= Duration::from_millis(9));
        assert!(start.elapsed() < Duration::from_millis(35));
        assert_eq!(*batches.lock(), vec![1]);
    }

    #[test]
    fn concurrent_requests_coalesce() {
        let batches = Arc::new(Mutex::new(Vec::new()));
        let b = Arc::new(Batcher::new(
            BatchSizing::Fixed(100),
            Duration::from_millis(30),
            counting_dispatch(batches.clone()),
        ));
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let b = Arc::clone(&b);
                std::thread::spawn(move || b.submit(Value::Int(i)).unwrap())
            })
            .collect();
        let outs: Vec<Value> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // Every caller got its own value back.
        let mut got: Vec<i64> = outs
            .iter()
            .map(|v| match v {
                Value::Int(i) => *i,
                _ => panic!("unexpected"),
            })
            .collect();
        got.sort_unstable();
        assert_eq!(got, (0..8).collect::<Vec<_>>());
        // Fewer dispatches than requests (coalescing happened).
        let total_batches = batches.lock().len();
        assert!(total_batches < 8, "no coalescing: {total_batches} batches");
    }

    #[test]
    fn max_batch_triggers_early_flush() {
        let batches = Arc::new(Mutex::new(Vec::new()));
        let b = Arc::new(Batcher::new(
            BatchSizing::Fixed(4),
            Duration::from_secs(10), // far longer than the test
            counting_dispatch(batches.clone()),
        ));
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let b = Arc::clone(&b);
                std::thread::spawn(move || b.submit(Value::Int(i)).unwrap())
            })
            .collect();
        let start = Instant::now();
        for h in handles {
            h.join().unwrap();
        }
        // Flush happened at max_batch, not after the 10s delay.
        assert!(start.elapsed() < Duration::from_secs(5));
        assert_eq!(*batches.lock(), vec![4]);
    }

    #[test]
    fn dispatch_errors_propagate_to_all_callers() {
        let b = Arc::new(Batcher::new(
            BatchSizing::Fixed(2),
            Duration::from_millis(5),
            Arc::new(|_, _| Err(DlhubError::Timeout)),
        ));
        let h = {
            let b = Arc::clone(&b);
            std::thread::spawn(move || b.submit(Value::Null))
        };
        let r1 = b.submit(Value::Null);
        let r2 = h.join().unwrap();
        assert_eq!(r1.unwrap_err(), DlhubError::Timeout);
        assert_eq!(r2.unwrap_err(), DlhubError::Timeout);
    }

    #[test]
    fn output_count_mismatch_is_an_error() {
        let b = Batcher::new(
            BatchSizing::Fixed(1),
            Duration::from_millis(5),
            Arc::new(|_, _| Ok(vec![])),
        );
        assert!(matches!(
            b.submit(Value::Null).unwrap_err(),
            DlhubError::Transport(_)
        ));
    }

    /// A cost of ten single-item dispatches.
    fn cost(inference_ms: f64, overhead_ms: f64) -> ServableCost {
        let overhead_ns = (overhead_ms * 1e6) as u64;
        ServableCost {
            dispatches: 10,
            items: 10,
            inference_ns: (inference_ms * 1e7) as u64,
            overhead_ns: overhead_ns * 10,
            overhead_floor_ns: overhead_ns,
        }
    }

    #[test]
    fn suggested_batch_grows_with_overhead_ratio() {
        // Cheap compute, big overhead: wants big batches. Expensive
        // compute: a batch of 1 already keeps overhead under 10%.
        assert_eq!(suggested_batch(&cost(0.01, 3.0), 0.1, 10_000), 2700);
        assert_eq!(suggested_batch(&cost(40.0, 3.0), 0.1, 10_000), 1);
        // Free compute batches to the cap, free dispatch not at all,
        // and the cap always wins.
        assert_eq!(suggested_batch(&cost(0.0, 3.0), 0.1, 64), 64);
        assert_eq!(suggested_batch(&cost(5.0, 0.0), 0.1, 64), 1);
        assert_eq!(suggested_batch(&cost(0.001, 100.0), 0.1, 16), 16);
    }

    fn adaptive(series: &Arc<ServableSeries>, cap: usize) -> BatchSizing {
        BatchSizing::Adaptive {
            series: Arc::clone(series),
            target_overhead_fraction: 0.1,
            cap,
        }
    }

    #[test]
    fn adaptive_sizing_starts_at_one_then_grows() {
        let series = Arc::new(ServableSeries::default());
        let sizing = adaptive(&series, 64);
        // No dispatch yet: conservative threshold of 1.
        assert_eq!(sizing.current_max(), 1);
        // Cheap servable with heavy overhead: wants the cap.
        series
            .dispatch
            .record(1, Duration::from_micros(5), Duration::from_millis(3));
        assert_eq!(sizing.current_max(), 64);
    }

    #[test]
    fn adaptive_sizing_keeps_expensive_servables_small() {
        let series = Arc::new(ServableSeries::default());
        series
            .dispatch
            .record(1, Duration::from_millis(40), Duration::from_millis(43));
        // overhead 3ms, inference 40ms: a single item already keeps
        // overhead under ~7%, so the threshold stays 1.
        assert_eq!(adaptive(&series, 64).current_max(), 1);
    }

    #[test]
    fn adaptive_batcher_coalesces_after_cost_seeds() {
        let series = Arc::new(ServableSeries::default());
        let batches = Arc::new(Mutex::new(Vec::new()));
        let dispatch: BatchDispatch = {
            let series = Arc::clone(&series);
            let batches = Arc::clone(&batches);
            Arc::new(move |inputs: Vec<Value>, _| {
                batches.lock().push(inputs.len());
                // Simulate a cheap servable behind a 2ms dispatch and
                // feed the observation back into the series, exactly
                // like the Management Service does.
                series.dispatch.record(
                    inputs.len(),
                    Duration::from_micros(inputs.len() as u64),
                    Duration::from_millis(2),
                );
                Ok(inputs)
            })
        };
        let b = Arc::new(Batcher::new(
            adaptive(&series, 100),
            Duration::from_millis(15),
            dispatch,
        ));
        // Seed the cost with one request…
        b.submit(Value::Int(0)).unwrap();
        // …then a concurrent burst must coalesce under the grown
        // threshold.
        let handles: Vec<_> = (1..9)
            .map(|i| {
                let b = Arc::clone(&b);
                std::thread::spawn(move || b.submit(Value::Int(i)).unwrap())
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let sizes = batches.lock().clone();
        assert_eq!(sizes.iter().sum::<usize>(), 9);
        assert!(
            sizes.len() < 9,
            "burst should coalesce once the cost is known: {sizes:?}"
        );
    }

    #[test]
    fn wait_sink_reports_the_oldest_items_wait() {
        let seen = Arc::new(Mutex::new(Duration::ZERO));
        let sink = Arc::clone(&seen);
        let b = Batcher::new(
            BatchSizing::Fixed(100),
            Duration::from_millis(10),
            Arc::new(move |inputs, waited| {
                *sink.lock() = waited;
                Ok(inputs)
            }),
        );
        b.submit(Value::Int(1)).unwrap();
        // The lone item sat the full max_delay before flushing.
        let waited = *seen.lock();
        assert!(waited >= Duration::from_millis(9), "waited {waited:?}");
    }

    #[test]
    fn drop_flushes_outstanding_work() {
        static DISPATCHED: AtomicUsize = AtomicUsize::new(0);
        let b = Arc::new(Batcher::new(
            BatchSizing::Fixed(100),
            Duration::from_secs(10),
            Arc::new(|inputs: Vec<Value>, _| {
                DISPATCHED.fetch_add(inputs.len(), Ordering::SeqCst);
                Ok(inputs)
            }),
        ));
        let b2 = Arc::clone(&b);
        let h = std::thread::spawn(move || b2.submit(Value::Int(1)));
        // Give the submit a moment to enqueue, then drop the batcher:
        // the flusher must dispatch the pending item on shutdown
        // rather than strand the caller.
        std::thread::sleep(Duration::from_millis(30));
        drop(b);
        assert_eq!(h.join().unwrap().unwrap(), Value::Int(1));
        assert_eq!(DISPATCHED.load(Ordering::SeqCst), 1);
    }
}
