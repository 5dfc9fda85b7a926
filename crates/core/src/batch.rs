//! Request batching (§V-B3).
//!
//! "DLHub support for batch queries is designed to improve overall
//! throughput by amortizing system overheads over many requests." The
//! [`Batcher`] coalesces concurrently submitted single requests into
//! one dispatched task, flushing when either `max_batch` items are
//! pending or the oldest item has waited `max_delay`. The submitters
//! run the batches on their own threads, as a group commit does: the
//! batcher has no thread of its own.
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
use dlhub_sync::time::Instant;
use dlhub_sync::{Mutex, Slot, SlotError};
use std::panic::{catch_unwind, AssertUnwindSafe};
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
    reply: Reply,
}

/// Where a submitter waits for its output. Dropped unanswered (its
/// flush panicked), it closes the slot, so the submitter hears
/// "batcher dropped request" instead of waiting forever.
struct Reply(Option<Arc<Slot<Result<Value, DlhubError>>>>);

impl Reply {
    fn send(mut self, result: Result<Value, DlhubError>) {
        if let Some(slot) = self.0.take() {
            slot.fill(result);
        }
    }
}

impl Drop for Reply {
    fn drop(&mut self) {
        if let Some(slot) = self.0.take() {
            slot.close();
        }
    }
}

struct State {
    pending: Vec<Pending>,
    /// When the open batch's first item arrived; `None` while no batch
    /// is open.
    oldest: Option<Instant>,
    /// Batches taken so far. The open batch is number `taken`, so its
    /// leader can tell whether someone else took it.
    taken: u64,
}

impl State {
    /// Take the open batch, with how long its oldest item waited.
    fn take(&mut self) -> (Vec<Pending>, Duration) {
        let waited = self.oldest.take().map_or(Duration::ZERO, |t| t.elapsed());
        self.taken += 1;
        (std::mem::take(&mut self.pending), waited)
    }
}

/// Coalesces concurrent requests into batches, run by the submitters
/// themselves: the batcher has no thread. The submitter whose item
/// brings a batch to the threshold takes it and runs it. Otherwise the
/// batch's first submitter, its leader, takes whatever is pending once
/// `max_delay` has passed, unless the batch was taken already. Several
/// batches of one servable can be in flight at once.
pub struct Batcher {
    state: Mutex<State>,
    sizing: BatchSizing,
    max_delay: Duration,
    dispatch: BatchDispatch,
}

impl Batcher {
    /// Create a batcher flushing at `sizing`'s threshold (fixed or
    /// profile-adaptive) or after `max_delay` of waiting, dispatching
    /// through `dispatch`.
    pub fn new(sizing: BatchSizing, max_delay: Duration, dispatch: BatchDispatch) -> Self {
        Batcher {
            state: Mutex::new(State {
                pending: Vec::new(),
                oldest: None,
                taken: 0,
            }),
            sizing,
            max_delay,
            dispatch,
        }
    }

    /// Submit one input; blocks until its batch is dispatched and the
    /// matching output arrives. The batch may run on this thread.
    pub fn submit(&self, input: Value) -> Result<Value, DlhubError> {
        let reply = Arc::new(Slot::new());
        let (mut batch, lead) = {
            let mut st = self.state.lock();
            st.pending.push(Pending {
                input,
                reply: Reply(Some(Arc::clone(&reply))),
            });
            // The first item opens the batch and starts its clock.
            let opened = st.oldest.is_none().then(Instant::now);
            st.oldest = st.oldest.or(opened);
            if st.pending.len() >= self.sizing.current_max() {
                (Some(st.take()), None)
            } else {
                (None, opened.map(|t| (st.taken, t + self.max_delay)))
            }
        };
        if let Some((number, due)) = lead {
            // A timed-out take leaves the slot fillable: if a filler
            // took the batch, its answer still lands there.
            match reply.take(Some(due)) {
                Err(SlotError::TimedOut) => {
                    let mut st = self.state.lock();
                    batch = (st.taken == number).then(|| st.take());
                }
                answer => return answered(answer),
            }
        }
        if let Some((batch, waited)) = batch {
            self.flush(batch, waited);
        }
        answered(reply.take(None))
    }

    /// Dispatch `batch` on this thread and answer its submitters. A
    /// dispatch that panics is caught here and drops the replies
    /// unanswered, so each submitter, this one too, hears "batcher
    /// dropped request" and the batcher serves the next batch.
    fn flush(&self, batch: Vec<Pending>, waited: Duration) {
        let (inputs, replies): (Vec<_>, Vec<_>) =
            batch.into_iter().map(|p| (p.input, p.reply)).unzip();
        let _ = catch_unwind(AssertUnwindSafe(|| match (self.dispatch)(inputs, waited) {
            Ok(outputs) if outputs.len() == replies.len() => {
                for (reply, out) in replies.into_iter().zip(outputs) {
                    reply.send(Ok(out));
                }
            }
            Ok(_) => {
                for reply in replies {
                    reply.send(Err(DlhubError::Transport(
                        "batch output count mismatch".into(),
                    )));
                }
            }
            Err(e) => {
                for reply in replies {
                    reply.send(Err(e.clone()));
                }
            }
        }));
    }
}

/// A submitter's answer, as its reply slot gave it.
fn answered(answer: Result<Result<Value, DlhubError>, SlotError>) -> Result<Value, DlhubError> {
    answer.map_err(|_| DlhubError::Transport("batcher dropped request".into()))?
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::atomic::{AtomicUsize, Ordering};

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
        // A batcher that sat idle first still flushes the lone item on
        // its own deadline.
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
    fn a_flush_that_panics_answers_each_of_its_submitters() {
        let b = Arc::new(Batcher::new(
            BatchSizing::Fixed(2),
            Duration::from_secs(10), // only the second item flushes
            Arc::new(|_, _| panic!("dispatch panicked")),
        ));
        let h = {
            let b = Arc::clone(&b);
            std::thread::spawn(move || b.submit(Value::Int(1)))
        };
        let dropped = Err(DlhubError::Transport("batcher dropped request".into()));
        assert_eq!(b.submit(Value::Int(2)), dropped);
        assert_eq!(h.join().unwrap(), dropped);
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
        // Give the submit a moment to enqueue, then drop this handle on
        // the batcher: the submitter holds its own, so nothing is torn
        // down under it, and it flushes its lone item itself at its
        // 10 s `max_delay` rather than being stranded.
        std::thread::sleep(Duration::from_millis(30));
        drop(b);
        assert_eq!(h.join().unwrap().unwrap(), Value::Int(1));
        assert_eq!(DISPATCHED.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn a_submit_after_a_panicking_flush_is_answered() {
        let b = Arc::new(Batcher::new(
            BatchSizing::Fixed(1),
            Duration::from_millis(5),
            Arc::new(|inputs: Vec<Value>, _| match inputs[0] {
                Value::Int(0) => panic!("dispatch panicked"),
                _ => Ok(inputs),
            }),
        ));
        let dropped = Err(DlhubError::Transport("batcher dropped request".into()));
        assert_eq!(b.submit(Value::Int(0)), dropped);
        // The next submit runs on a thread of its own, so a batcher the
        // panic left unable to flush fails this test instead of hanging.
        let answer = Arc::new(Slot::new());
        let submitter = {
            let (b, answer) = (Arc::clone(&b), Arc::clone(&answer));
            std::thread::spawn(move || answer.fill(b.submit(Value::Int(1))))
        };
        let deadline = Instant::now() + Duration::from_secs(5);
        assert_eq!(answer.take(Some(deadline)), Ok(Ok(Value::Int(1))));
        submitter.join().unwrap();
    }

    #[test]
    fn two_batches_of_one_batcher_are_in_flight_at_once() {
        // Each dispatch waits, for at most two seconds, to see a second
        // dispatch start beside it.
        let running = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let dispatch: BatchDispatch = {
            let (running, peak) = (Arc::clone(&running), Arc::clone(&peak));
            Arc::new(move |inputs: Vec<Value>, _| {
                running.fetch_add(1, Ordering::SeqCst);
                let until = Instant::now() + Duration::from_secs(2);
                while running.load(Ordering::SeqCst) < 2 && Instant::now() < until {
                    std::thread::sleep(Duration::from_millis(1));
                }
                peak.fetch_max(running.load(Ordering::SeqCst), Ordering::SeqCst);
                running.fetch_sub(1, Ordering::SeqCst);
                Ok(inputs)
            })
        };
        let b = Arc::new(Batcher::new(
            BatchSizing::Fixed(2),
            Duration::from_secs(10), // only full batches flush
            dispatch,
        ));
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let b = Arc::clone(&b);
                std::thread::spawn(move || b.submit(Value::Int(i)).unwrap())
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(peak.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn leader_timeouts_race_fillers_without_losing_or_repeating_an_item() {
        // Short delays put a leader's timed-out take beside fillers that
        // bring the same batch to its threshold, and a dispatch that
        // takes about as long lets a leader time out while a filler
        // still runs its batch.
        const THREADS: usize = 6;
        const SUBMITS: usize = 150;
        let mut rng = StdRng::seed_from_u64(44);
        for round in 0..8 {
            let threshold = rng.gen_range(1..=5usize);
            let max_delay = Duration::from_micros(rng.gen_range(0..=1_000u64));
            let work = Duration::from_micros(rng.gen_range(0..=1_000u64));
            let case = format!("round {round}: Fixed({threshold}), {max_delay:?}, {work:?}");
            let batches = Arc::new(Mutex::new(Vec::new()));
            let dispatch: BatchDispatch = {
                let batches = Arc::clone(&batches);
                Arc::new(move |inputs: Vec<Value>, _| {
                    let runner = std::thread::current().id();
                    batches.lock().push((runner, inputs.clone()));
                    std::thread::sleep(work);
                    Ok(inputs)
                })
            };
            let b = Arc::new(Batcher::new(
                BatchSizing::Fixed(threshold),
                max_delay,
                dispatch,
            ));
            let submitters: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (b, case) = (Arc::clone(&b), case.clone());
                    std::thread::spawn(move || {
                        for i in 0..SUBMITS {
                            let own = Value::Int((t * SUBMITS + i) as i64);
                            assert_eq!(b.submit(own.clone()), Ok(own), "{case}");
                        }
                        std::thread::current().id()
                    })
                })
                .collect();
            let owners: Vec<_> = submitters.into_iter().map(|h| h.join().unwrap()).collect();
            let batches = batches.lock();
            let sizes: Vec<usize> = batches.iter().map(|(_, inputs)| inputs.len()).collect();
            assert_eq!(sizes.iter().sum::<usize>(), THREADS * SUBMITS, "{case}");
            assert!(sizes.iter().all(|&n| n <= threshold), "{case}: {sizes:?}");
            let mut seen: Vec<i64> = batches
                .iter()
                .flat_map(|(_, inputs)| inputs)
                .map(|v| match v {
                    Value::Int(i) => *i,
                    other => panic!("{case}: unexpected {other}"),
                })
                .collect();
            seen.sort_unstable();
            assert_eq!(
                seen,
                (0..(THREADS * SUBMITS) as i64).collect::<Vec<_>>(),
                "{case}"
            );
            // Every batch ran on the thread of one of its own submitters.
            for (runner, inputs) in batches.iter() {
                let t = owners.iter().position(|o| o == runner);
                let own =
                    |v: &Value| matches!(v, Value::Int(i) if Some(*i as usize / SUBMITS) == t);
                assert!(inputs.iter().any(own), "{case}: {runner:?} ran {inputs:?}");
            }
        }
    }
}
