//! The request path: the frame every entry point opens and closes,
//! what happens before it (authorization, validation) and inside it
//! (admission, dispatch with retries), and the synchronous entry
//! points built directly on it.

use super::{ManagementService, RunOptions, RunResult};
use crate::admission::AdmissionPermit;
use crate::error::DlhubError;
use crate::memo::MemoKey;
use crate::metrics::Timings;
use crate::repository::{RESOURCE_SERVER, SERVE_SCOPE};
use crate::task::{next_task_seq, task_frame, TaskId, TaskReply};
use crate::value::Value;
use bytes::Bytes;
use dlhub_auth::{IdentityId, Token};
use dlhub_obs::{Ledger, SpanHandle, TraceContext};
use dlhub_sync::atomic::Ordering;
use dlhub_sync::thread;
use dlhub_sync::time::{ns_at, Instant};
use std::cell::Cell;
use std::sync::Arc;
use std::time::Duration;

/// One open request at the Management Service: what it serves and
/// records into, its span, the admission permit and the clock it is
/// timed against. Opaque outside this file:
/// [`ManagementService::open_frame`] is the only constructor and
/// [`ManagementService::close_frame`] the only consumer, so what a
/// request records is decided in those two functions and every entry
/// point keeps only what is its own — the span it mints, with its own
/// attrs, and what it does in between.
pub(super) struct RequestFrame {
    /// The ledger of the servable id as the repository holds it, or of
    /// the pipeline's name as registered: the name the frame's spans
    /// carry, shared rather than copied, and the series and SLO handle
    /// it records into, with no lookup by name.
    ledger: Arc<Ledger>,
    span: SpanHandle,
    /// The request's arrival: its root span's start, and what its
    /// `timings.request` is measured from.
    started: Instant,
    /// What the frame's deadline and first attempt are timed from: its
    /// arrival, or, for an async run, when a pool worker took it up
    /// ([`RequestFrame::resume`]).
    dispatch_base: Instant,
    /// The clock read at the request's latest reply or memo lookup: what
    /// the frame closes at, so closing reads no clock of its own. Unset
    /// until then.
    replied: Cell<Option<Instant>>,
    /// Inputs carried: what `requests` advanced by at open, and what
    /// `errors` advances by if the frame fails.
    items: u64,
    /// The inflight slot, held until the frame closes. `None` while
    /// admission is off or the submitters hold the permits.
    _permit: Option<AdmissionPermit>,
}

impl RequestFrame {
    /// What the frame serves: a servable id, or a pipeline's name.
    pub(super) fn servable(&self) -> &Arc<str> {
        &self.ledger.name
    }

    /// The frame's trace id: what a caller looks its span tree up by.
    pub(super) fn trace(&self) -> u64 {
        self.span.trace()
    }

    /// Start the frame's dispatch clock now: an async run's frame opens
    /// at submission, but its deadline and its first attempt run from
    /// when a pool worker takes it up.
    pub(super) fn resume(&mut self) {
        self.dispatch_base = Instant::now();
    }

    /// Where the frame's children hang: its memo lookup, its attempts
    /// and, carried in the task, the Task Manager's invocation. `None`
    /// when the trace is not recorded.
    pub(super) fn ctx(&self) -> Option<TraceContext> {
        self.span.ctx()
    }
}

impl ManagementService {
    /// Authorize the serve scope, returning the caller's tenant key
    /// (smallest linked identity — see [`dlhub_auth::TokenInfo::tenant`])
    /// for admission accounting. The request's one look at its token,
    /// whose expiry is judged at `arrived`, the request's arrival stamp.
    pub(super) fn authorize_serve(
        &self,
        token: &Token,
        arrived: Instant,
    ) -> Result<IdentityId, DlhubError> {
        self.repo
            .auth()
            .authorize_tenant(token, RESOURCE_SERVER, SERVE_SCOPE, arrived)
            .map_err(DlhubError::from)
    }

    /// Validate the caller and input, returning the caller's tenant
    /// key and the servable's ledger, named by its id as the repository
    /// holds it. Every entry point calls this before it touches
    /// anything keyed by `id` — the id is the caller's string until the
    /// repository resolves it — and a refusal is counted once, on
    /// `requests_rejected_total`. The token's expiry is judged at
    /// `arrived`.
    pub(super) fn preflight(
        &self,
        token: &Token,
        id: &str,
        inputs: &[Value],
        arrived: Instant,
    ) -> Result<(IdentityId, Arc<Ledger>), DlhubError> {
        self.refused(self.authorize_serve(token, arrived).and_then(|tenant| {
            let ledger = self.check_inputs(token, id, inputs)?;
            Ok((tenant, ledger))
        }))
    }

    /// Count `checked` on `requests_rejected_total` if it is a refusal.
    pub(super) fn refused<T>(&self, checked: Result<T, DlhubError>) -> Result<T, DlhubError> {
        if checked.is_err() {
            self.obs.metrics.counter("requests_rejected_total").inc();
        }
        checked
    }

    /// Resolve `id` as the caller and check `inputs` against its
    /// declared input type; returns the servable's ledger.
    pub(super) fn check_inputs(
        &self,
        token: &Token,
        id: &str,
        inputs: &[Value],
    ) -> Result<Arc<Ledger>, DlhubError> {
        self.repo.ledger_as(Some(token), id, |metadata| {
            if inputs.iter().all(|i| metadata.input_type.matches(i)) {
                Ok(())
            } else {
                Err(DlhubError::InvalidInput {
                    servable: id.to_string(),
                    expected: metadata.input_type.descriptor(),
                })
            }
        })
    }

    /// Pass `tenant`'s request through the admission controller (a
    /// no-op `Ok(None)` while admission is disabled). The permit holds
    /// the inflight slot and must live for the request's duration.
    /// Contention pressure is the verdict the last control pass stored
    /// (see `serving/control.rs`): one atomic load here.
    pub(super) fn admit(&self, tenant: IdentityId) -> Result<Option<AdmissionPermit>, DlhubError> {
        let Some(controller) = &self.admission else {
            return Ok(None);
        };
        controller.admit(tenant, controller.pressured()).map(Some)
    }

    /// Open a request frame for `ledger`'s name on `span` — the one
    /// place a request starts being accounted. Called after
    /// [`Self::preflight`], so the ledger is a resolved servable's (or a
    /// registered pipeline's).
    /// `batch` is the input count for the two batch entry points
    /// (`None`: a single input); `tenant` is who to admit (`None`: the
    /// callers already hold the permits).
    ///
    /// Shed *before* any queueing or dispatch: a rejected request
    /// costs the caller one typed error and a back-off, not a deadline
    /// spent deep in the stack. A shed is a failed request like any
    /// other, so it closes the frame it was refused.
    pub(super) fn open_frame(
        &self,
        ledger: Arc<Ledger>,
        mut span: SpanHandle,
        started: Instant,
        batch: Option<usize>,
        tenant: Option<IdentityId>,
    ) -> Result<RequestFrame, DlhubError> {
        span.attr("servable", &ledger.name);
        let series = &ledger.series;
        let items = batch.unwrap_or(1) as u64;
        series.requests.add(items);
        if batch.is_some() {
            span.attr("batch_size", items);
            series.batch_sizes.record(items);
        }
        let frame = RequestFrame {
            ledger,
            span,
            started,
            dispatch_base: started,
            replied: Cell::new(None),
            items,
            _permit: None,
        };
        match tenant.map_or(Ok(None), |tenant| self.admit(tenant)) {
            Ok(_permit) => Ok(RequestFrame { _permit, ..frame }),
            Err(shed) => self.close_frame(frame, Err(shed)).map(|(frame, _)| frame),
        }
    }

    /// Close `frame` with its outcome — the one place a request's
    /// latencies, errors and SLO observation are recorded — and hand
    /// the outcome back with `timings.request` stamped, so every entry
    /// point measures to the same instant: the frame's last reply or
    /// memo lookup, or now if it had neither. The permit is released
    /// after everything is recorded.
    pub(super) fn close_frame<T>(
        &self,
        frame: RequestFrame,
        outcome: Result<(T, Timings), DlhubError>,
    ) -> Result<(T, Timings), DlhubError> {
        let RequestFrame {
            ledger,
            mut span,
            started,
            replied,
            items,
            _permit,
            ..
        } = frame;
        let ended = replied.get().unwrap_or_else(Instant::now);
        let request = ended.saturating_duration_since(started);
        let outcome = outcome.map(|(value, timings)| (value, Timings { request, ..timings }));
        let series = &ledger.series;
        match &outcome {
            Ok((_, timings)) => {
                span.attr("cache_hit", timings.cache_hit);
                // An exemplar names a trace that can be looked up.
                let latency = &series.request_latency;
                match span.is_recorded() {
                    true => latency.record_duration_with_exemplar(request, span.trace()),
                    false => latency.record_duration(request),
                }
                series
                    .invocation_latency
                    .record_duration(timings.invocation);
                if timings.cache_hit {
                    series.cache_hits.inc();
                } else {
                    series.inference_latency.record_duration(timings.inference);
                }
            }
            Err(e) => {
                series.errors.add(items);
                span.attr_with("error", || e.to_string());
            }
        }
        let ended_ns = ns_at(ended);
        ledger.slo.observe_at(request, outcome.is_ok(), ended_ns);
        self.obs.tracer.finish_at(span, ended_ns);
        outcome
    }

    /// Dispatch `inputs` to a Task Manager as one task for the frame's
    /// servable and await its answer ([`Self::dispatch_remote`]),
    /// folding what it cost into the servable's series (adaptive
    /// batching and the replica control loop size from it). The task is
    /// encoded from the borrowed inputs and the reply read in place.
    /// Returns the outputs with `inference` summed over them and
    /// `request` left for [`Self::close_frame`] to stamp.
    pub(super) fn execute_remote(
        &self,
        frame: &RequestFrame,
        inputs: &[Value],
        deadline: Option<Duration>,
    ) -> Result<(Vec<Value>, Timings), DlhubError> {
        let servable = &**frame.servable();
        let task_id = TaskId::Seq(next_task_seq());
        let task = task_frame(task_id, servable, frame.ctx(), inputs);
        self.dispatch_remote(frame, task, deadline, |reply| {
            let reply = TaskReply::decode(&reply).map_err(DlhubError::Transport)?;
            let inference = Duration::from_nanos(reply.inference_nanos().sum());
            let invocation = Duration::from_nanos(reply.invocation_nanos);
            let outputs = reply.outcome.map_err(|message| DlhubError::Execution {
                servable: servable.to_string(),
                message: message.to_string(),
            })?;
            frame
                .ledger
                .series
                .dispatch
                .record(outputs.len(), inference, invocation);
            let timings = Timings {
                inference,
                invocation,
                ..Timings::default()
            };
            Ok((outputs, timings))
        })
    }

    /// Post `task`, the frame's one serialized task, to a Task Manager
    /// and `answer` its reply, retrying transient failures with
    /// exponential backoff until the retry budget or the request
    /// deadline runs out. The frame's span context rides inside the
    /// task so the Task Manager can parent its invocation span under
    /// it; each attempt additionally gets its own `attempt` child span.
    ///
    /// An attempt reads the clock at its reply, and at its start only
    /// if it is a retry: the first starts at the frame's dispatch base,
    /// which is also what the request deadline runs from. The
    /// reply's reading ends the attempt and, unless a later attempt
    /// replaces it, the frame.
    ///
    /// Every attempt re-sends the *same* task — a pipeline's whole
    /// chain — with the same `task_id`: the broker is at-least-once, so
    /// a timed-out attempt may still execute, and a duplicated
    /// execution must be attributable to one logical task.
    pub(super) fn dispatch_remote<T>(
        &self,
        frame: &RequestFrame,
        task: Bytes,
        deadline: Option<Duration>,
        answer: impl Fn(Bytes) -> Result<T, DlhubError>,
    ) -> Result<T, DlhubError> {
        let deadline = frame.dispatch_base + deadline.unwrap_or(self.config.request_deadline);
        let ctx = frame.ctx();
        let mut attempt_started = frame.dispatch_base;
        let mut attempts = 0u32;
        let mut backoff = self.config.retry_backoff;
        loop {
            attempts += 1;
            let tracer = &self.obs.tracer;
            let mut attempt_span = tracer.start_child_at(ctx, "attempt", ns_at(attempt_started));
            attempt_span.attr("servable", frame.servable());
            attempt_span.attr("attempt", attempts);
            let remaining = deadline.saturating_duration_since(attempt_started);
            let (error, ended) = if remaining.is_zero() {
                // Out of budget before this attempt even dispatched.
                (DlhubError::Timeout, attempt_started)
            } else {
                let until = attempt_started + self.config.request_timeout.min(remaining);
                let reply = self.rpc.call_until(task.clone(), until);
                let outcome = reply.map_err(DlhubError::from).and_then(&answer);
                let ended = Instant::now();
                frame.replied.set(Some(ended));
                match outcome {
                    Ok(parts) => {
                        tracer.finish_at(attempt_span, ns_at(ended));
                        return Ok(parts);
                    }
                    Err(e) => (e, ended),
                }
            };
            attempt_span.attr_with("error", || error.to_string());
            tracer.finish_at(attempt_span, ns_at(ended));
            let retryable = match &error {
                DlhubError::Timeout | DlhubError::Transport(_) => true,
                DlhubError::Execution { .. } => self.config.retry_execution_errors,
                _ => false,
            };
            if !retryable {
                return Err(error);
            }
            if attempts > self.config.max_retries || ended >= deadline {
                self.obs.metrics.counter("request_exhausted_total").inc();
                return Err(DlhubError::Exhausted {
                    servable: frame.servable().to_string(),
                    attempts,
                    last_error: error.to_string(),
                });
            }
            self.obs.metrics.counter("request_retries_total").inc();
            let pause = backoff.min(deadline.saturating_duration_since(ended));
            if !pause.is_zero() {
                thread::sleep(pause);
            }
            backoff = backoff.saturating_mul(2);
            attempt_started = Instant::now();
        }
    }

    /// [`Self::execute_remote`] for a single input.
    pub(super) fn execute_one(
        &self,
        frame: &RequestFrame,
        input: &Value,
        deadline: Option<Duration>,
    ) -> Result<(Value, Timings), DlhubError> {
        let inputs = std::slice::from_ref(input);
        let (mut outputs, timings) = self.execute_remote(frame, inputs, deadline)?;
        let value = outputs
            .pop()
            .ok_or_else(|| DlhubError::Transport("task manager returned no output".into()))?;
        Ok((value, timings))
    }

    /// Synchronous inference with default options.
    pub fn run(&self, token: &Token, id: &str, input: Value) -> Result<RunResult, DlhubError> {
        self.run_with_options(token, id, input, &RunOptions::default())
    }

    /// Synchronous inference: one frame under a `request` root around
    /// the memo lookup and the dispatch.
    pub fn run_with_options(
        &self,
        token: &Token,
        id: &str,
        input: Value,
        options: &RunOptions,
    ) -> Result<RunResult, DlhubError> {
        let started = Instant::now();
        let (tenant, ledger) = self.preflight(token, id, std::slice::from_ref(&input), started)?;
        let span = self.obs.tracer.start_root_at("request", ns_at(started));
        let frame = self.open_frame(ledger, span, started, None, Some(tenant))?;
        let trace = frame.trace();
        let outcome = self.run_measured(&frame, input, options);
        self.close_frame(frame, outcome)
            .map(|(value, timings)| RunResult {
                value,
                timings,
                trace,
            })
    }

    /// Consult the memo cache and dispatch to a Task Manager.
    fn run_measured(
        &self,
        frame: &RequestFrame,
        input: Value,
        options: &RunOptions,
    ) -> Result<(Value, Timings), DlhubError> {
        let memoize = options
            .memoize
            .unwrap_or_else(|| self.memo_enabled.load(Ordering::Relaxed));
        // The key hashes the whole input; only memoized requests pay.
        // The generation is read before the lookup: a republish from
        // here on invalidates what this request is about to compute.
        let memo = memoize.then(|| {
            let key = MemoKey::for_servable(frame.servable(), &input);
            (self.memo.generation(), key)
        });
        if let Some(hit) = memo.as_ref().and_then(|(_, key)| self.memo_hit(frame, key)) {
            return Ok(hit);
        }
        let (value, timings) = self.execute_one(frame, &input, options.deadline)?;
        if let Some((generation, key)) = memo {
            self.memo.put_since(generation, key, value.clone());
        }
        Ok((value, timings))
    }

    /// Look `key` up under a `memo_lookup` span of `frame`. A hit never
    /// reaches a Task Manager: its invocation collapses to the lookup
    /// (§V-B5), and the clock read that ends the lookup ends the frame.
    pub(super) fn memo_hit(&self, frame: &RequestFrame, key: &MemoKey) -> Option<(Value, Timings)> {
        let lookup_started = Instant::now();
        let cached = self.memo.get(key);
        let looked_up = Instant::now();
        if cached.is_some() {
            frame.replied.set(Some(looked_up));
        }
        let tracer = &self.obs.tracer;
        let mut lookup_span =
            tracer.start_child_at(frame.ctx(), "memo_lookup", ns_at(lookup_started));
        lookup_span.attr("servable", frame.servable());
        lookup_span.attr("hit", cached.is_some());
        tracer.finish_at(lookup_span, ns_at(looked_up));
        let timings = Timings {
            invocation: looked_up.saturating_duration_since(lookup_started),
            cache_hit: true,
            ..Timings::default()
        };
        cached.map(|value| (value, timings))
    }

    /// Explicit batch execution: all inputs travel in one task,
    /// amortizing dispatch overheads (§V-B3). Returns outputs in input
    /// order plus the batch timings (inference = sum over items).
    pub fn run_batch(
        &self,
        token: &Token,
        id: &str,
        inputs: Vec<Value>,
    ) -> Result<(Vec<Value>, Timings), DlhubError> {
        let started = Instant::now();
        let (tenant, ledger) = self.preflight(token, id, &inputs, started)?;
        if inputs.is_empty() {
            return Ok((Vec::new(), Timings::default()));
        }
        // One frame, one permit: the batch travels as one task.
        let span = self.obs.tracer.start_root_at("request", ns_at(started));
        let batch = Some(inputs.len());
        let frame = self.open_frame(ledger, span, started, batch, Some(tenant))?;
        let outcome = self.execute_remote(&frame, &inputs, None);
        self.close_frame(frame, outcome)
    }
}
