//! The request path: the frame every entry point opens and closes,
//! what happens before it (authorization, validation) and inside it
//! (admission, dispatch with retries), and the synchronous entry
//! points built directly on it.

use super::{ManagementService, RunOptions, RunResult};
use crate::admission::AdmissionPermit;
use crate::error::DlhubError;
use crate::memo::MemoKey;
use crate::metrics::Timings;
use crate::repository::SERVE_SCOPE;
use crate::task::{next_task_id, TaskRequest, TaskResponse};
use crate::value::Value;
use dlhub_auth::{IdentityId, Scope, Token};
use dlhub_obs::{ServableSeries, SpanHandle, TraceContext};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One open request at the Management Service: its span, the
/// servable's series, the admission permit and the clock it is timed
/// against. Opaque outside this file: [`ManagementService::open_frame`]
/// is the only constructor and [`ManagementService::close_frame`] the
/// only consumer, so what a request records is decided in those two
/// functions and every entry point keeps only what is its own — the
/// span it mints, with its own attrs, and what it does in between.
pub(super) struct RequestFrame {
    span: SpanHandle,
    series: Arc<ServableSeries>,
    started: Instant,
    /// Inputs carried: what `requests` advanced by at open, and what
    /// `errors` advances by if the frame fails.
    items: u64,
    /// The inflight slot, held until the frame closes. `None` while
    /// admission is off or the submitters hold the permits.
    _permit: Option<AdmissionPermit>,
}

impl ManagementService {
    /// Authorize the serve scope, returning the caller's tenant key
    /// (smallest linked identity — see [`dlhub_auth::TokenInfo::tenant`])
    /// for admission accounting.
    pub(super) fn authorize_serve(&self, token: &Token) -> Result<IdentityId, DlhubError> {
        self.repo
            .auth()
            .authorize(
                token,
                &Scope::new(crate::repository::RESOURCE_SERVER, SERVE_SCOPE),
            )
            .map(|info| info.tenant())
            .map_err(DlhubError::from)
    }

    /// Validate the caller and input, returning the caller's tenant
    /// key. Every entry point calls this before it touches anything
    /// keyed by `id` — the id is the caller's string until the
    /// repository resolves it — and a refusal is counted once, on
    /// `requests_rejected_total`.
    pub(super) fn preflight(
        &self,
        token: &Token,
        id: &str,
        inputs: &[Value],
    ) -> Result<IdentityId, DlhubError> {
        let checked = self.authorize_serve(token).and_then(|tenant| {
            let (_, metadata) = self.repo.resolve(Some(token), id)?;
            if inputs.iter().all(|i| metadata.input_type.matches(i)) {
                Ok(tenant)
            } else {
                Err(DlhubError::InvalidInput {
                    servable: id.to_string(),
                    expected: metadata.input_type.descriptor(),
                })
            }
        });
        if checked.is_err() {
            self.obs.metrics.counter("requests_rejected_total").inc();
        }
        checked
    }

    /// Pass `tenant`'s request through the admission controller (a
    /// no-op `Ok(None)` while admission is disabled). The permit holds
    /// the inflight slot and must live for the request's duration.
    /// Contention pressure is read from the telemetry signals: p99
    /// queue wait (in the broker or in front of the replica pools,
    /// whichever is larger) or the servable's fast burn rate over
    /// their configured maxima.
    pub(super) fn admit(
        &self,
        servable: &str,
        tenant: IdentityId,
    ) -> Result<Option<AdmissionPermit>, DlhubError> {
        let Some(controller) = &self.admission else {
            return Ok(None);
        };
        let cfg = controller.config();
        let pressured = self.obs.telemetry.signals().is_some_and(|signals| {
            let window = cfg.signal_window;
            let queue_hot = [
                signals.queue_wait(window),
                signals.replica_queue_wait(window),
            ]
            .into_iter()
            .filter_map(|h| h?.quantile(0.99))
            .max()
            .is_some_and(|p99| {
                p99 > cfg.queue_wait_p99_max.as_nanos().min(u64::MAX as u128) as u64
            });
            let burn_hot = signals
                .burn_rate(servable, window)
                .is_some_and(|b| b.avg > cfg.burn_rate_max);
            queue_hot || burn_hot
        });
        controller.admit(tenant, pressured).map(Some)
    }

    /// Open `id`'s request frame on `span` — the one place a request
    /// starts being accounted. Called after [`Self::preflight`], so
    /// `id` is a resolved servable. `batch` is the input count for the
    /// two batch entry points (`None`: a single input); `tenant` is
    /// who to admit (`None`: the callers already hold the permits).
    ///
    /// Shed *before* any queueing or dispatch: a rejected request
    /// costs the caller one typed error and a back-off, not a deadline
    /// spent deep in the stack. A shed is a failed request like any
    /// other, so it closes the frame it was refused.
    pub(super) fn open_frame(
        &self,
        id: &str,
        mut span: SpanHandle,
        started: Instant,
        batch: Option<usize>,
        tenant: Option<IdentityId>,
    ) -> Result<RequestFrame, DlhubError> {
        span.attr("servable", id);
        let series = self.obs.metrics.series(id);
        let items = batch.unwrap_or(1) as u64;
        series.requests.add(items);
        if batch.is_some() {
            span.attr("batch_size", items.to_string());
            series.batch_sizes.record(items);
        }
        let frame = RequestFrame {
            span,
            series,
            started,
            items,
            _permit: None,
        };
        match tenant.map_or(Ok(None), |tenant| self.admit(id, tenant)) {
            Ok(_permit) => Ok(RequestFrame { _permit, ..frame }),
            Err(shed) => self
                .close_frame(id, frame, Err(shed))
                .map(|(frame, _)| frame),
        }
    }

    /// Close `frame` with its outcome — the one place a request's
    /// latencies, errors and SLO observation are recorded — and hand
    /// the outcome back with `timings.request` stamped, so every entry
    /// point measures to the same instant. The permit is released
    /// after everything is recorded.
    pub(super) fn close_frame<T>(
        &self,
        id: &str,
        frame: RequestFrame,
        outcome: Result<(T, Timings), DlhubError>,
    ) -> Result<(T, Timings), DlhubError> {
        let RequestFrame {
            mut span,
            series,
            started,
            items,
            _permit,
        } = frame;
        let request = started.elapsed();
        let outcome = outcome.map(|(value, timings)| (value, Timings { request, ..timings }));
        match &outcome {
            Ok((_, timings)) => {
                span.attr(
                    "cache_hit",
                    if timings.cache_hit { "true" } else { "false" },
                );
                series
                    .request_latency
                    .record_duration_with_exemplar(request, span.trace());
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
                span.attr("error", e.to_string());
            }
        }
        self.obs.observe_slo(id, request, outcome.is_ok());
        self.obs.tracer.finish(span);
        outcome
    }

    /// Dispatch `inputs` to a Task Manager and await the response,
    /// retrying transient failures with exponential backoff until the
    /// retry budget or the request deadline runs out. The frame's span
    /// context rides inside the task envelope so the Task Manager can
    /// parent its invocation span under it; each attempt additionally
    /// gets its own `attempt` child span. Returns the outputs with
    /// `inference` summed over them and `request` left for
    /// [`Self::close_frame`] to stamp.
    ///
    /// Every attempt re-sends the *same* `task_id`: the broker is
    /// at-least-once, so a timed-out attempt may still execute, and a
    /// duplicated execution must be attributable to one logical task.
    pub(super) fn execute_remote(
        &self,
        id: &str,
        frame: &RequestFrame,
        inputs: Vec<Value>,
        deadline: Option<Duration>,
    ) -> Result<(Vec<Value>, Timings), DlhubError> {
        let deadline = Instant::now() + deadline.unwrap_or(self.config.request_deadline);
        let ctx = frame.span.ctx();
        let request = TaskRequest {
            task_id: next_task_id(),
            servable: id.to_string(),
            inputs,
            trace: Some(ctx),
        };
        let payload = request.to_bytes();
        let mut attempts = 0u32;
        let mut backoff = self.config.retry_backoff;
        loop {
            attempts += 1;
            let mut attempt_span = self.obs.tracer.start_child(ctx, "attempt");
            attempt_span.attr("servable", id);
            attempt_span.attr("attempt", attempts.to_string());
            let remaining = deadline.saturating_duration_since(Instant::now());
            let error = if remaining.is_zero() {
                // Out of budget before this attempt even dispatched.
                DlhubError::Timeout
            } else {
                let per_attempt = self.config.request_timeout.min(remaining);
                match self.attempt_remote(id, &frame.series, &payload, per_attempt) {
                    Ok(parts) => {
                        self.obs.tracer.finish(attempt_span);
                        return Ok(parts);
                    }
                    Err(e) => e,
                }
            };
            attempt_span.attr("error", error.to_string());
            self.obs.tracer.finish(attempt_span);
            let retryable = match &error {
                DlhubError::Timeout | DlhubError::Transport(_) => true,
                DlhubError::Execution { .. } => self.config.retry_execution_errors,
                _ => false,
            };
            if !retryable {
                return Err(error);
            }
            if attempts > self.config.max_retries || Instant::now() >= deadline {
                self.obs.metrics.counter("request_exhausted_total").inc();
                return Err(DlhubError::Exhausted {
                    servable: id.to_string(),
                    attempts,
                    last_error: error.to_string(),
                });
            }
            self.obs.metrics.counter("request_retries_total").inc();
            let pause = backoff.min(deadline.saturating_duration_since(Instant::now()));
            if !pause.is_zero() {
                std::thread::sleep(pause);
            }
            backoff = backoff.saturating_mul(2);
        }
    }

    /// One dispatch attempt: post the serialized task, await one reply,
    /// decode it, and fold its cost into the servable's series
    /// (adaptive batching and the replica control loop size from it).
    fn attempt_remote(
        &self,
        id: &str,
        series: &ServableSeries,
        payload: &bytes::Bytes,
        timeout: Duration,
    ) -> Result<(Vec<Value>, Timings), DlhubError> {
        let reply = self.rpc.call_wait(payload.clone(), timeout)?;
        let response = TaskResponse::from_bytes(&reply).map_err(DlhubError::Transport)?;
        let outputs = response.outcome.map_err(|message| DlhubError::Execution {
            servable: id.to_string(),
            message,
        })?;
        let inference = Duration::from_nanos(response.inference_nanos.iter().sum());
        let invocation = Duration::from_nanos(response.invocation_nanos);
        series.dispatch.record(outputs.len(), inference, invocation);
        let timings = Timings {
            inference,
            invocation,
            ..Timings::default()
        };
        Ok((outputs, timings))
    }

    /// [`Self::execute_remote`] for a single input.
    pub(super) fn execute_one(
        &self,
        id: &str,
        frame: &RequestFrame,
        input: Value,
        deadline: Option<Duration>,
    ) -> Result<(Value, Timings), DlhubError> {
        let (mut outputs, timings) = self.execute_remote(id, frame, vec![input], deadline)?;
        let value = outputs
            .pop()
            .ok_or_else(|| DlhubError::Transport("task manager returned no output".into()))?;
        Ok((value, timings))
    }

    /// Synchronous inference with default options.
    pub fn run(&self, token: &Token, id: &str, input: Value) -> Result<RunResult, DlhubError> {
        self.run_with_options(token, id, input, &RunOptions::default())
    }

    /// Synchronous inference.
    pub fn run_with_options(
        &self,
        token: &Token,
        id: &str,
        input: Value,
        options: &RunOptions,
    ) -> Result<RunResult, DlhubError> {
        self.run_inner(token, id, input, options, None)
    }

    /// One synchronous request: a frame under a `request` span (root,
    /// or a child of `parent` when the request is a pipeline step)
    /// around [`Self::run_measured`].
    pub(super) fn run_inner(
        &self,
        token: &Token,
        id: &str,
        input: Value,
        options: &RunOptions,
        parent: Option<TraceContext>,
    ) -> Result<RunResult, DlhubError> {
        let started = Instant::now();
        let tenant = self.preflight(token, id, std::slice::from_ref(&input))?;
        let span = match parent {
            Some(p) => self.obs.tracer.start_child(p, "request"),
            None => self.obs.tracer.start_root("request"),
        };
        let frame = self.open_frame(id, span, started, None, Some(tenant))?;
        let trace = frame.span.trace();
        let outcome = self.run_measured(id, &frame, input, options);
        self.close_frame(id, frame, outcome)
            .map(|(value, timings)| RunResult {
                value,
                timings,
                trace,
            })
    }

    /// Consult the memo cache and dispatch to a Task Manager.
    fn run_measured(
        &self,
        id: &str,
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
        let memo = memoize.then(|| (self.memo.generation(), MemoKey::new(id, &input)));
        if let Some((_, key)) = &memo {
            let lookup_started = Instant::now();
            let mut lookup_span = self.obs.tracer.start_child(frame.span.ctx(), "memo_lookup");
            lookup_span.attr("servable", id);
            let cached = self.memo.get(key);
            lookup_span.attr("hit", if cached.is_some() { "true" } else { "false" });
            self.obs.tracer.finish(lookup_span);
            if let Some(cached) = cached {
                // A hit never reaches the Task Manager: invocation
                // collapses to the cache lookup (§V-B5).
                let timings = Timings {
                    invocation: lookup_started.elapsed(),
                    cache_hit: true,
                    ..Timings::default()
                };
                return Ok((cached, timings));
            }
        }
        let (value, timings) = self.execute_one(id, frame, input, options.deadline)?;
        if let Some((generation, key)) = memo {
            self.memo.put_since(generation, key, value.clone());
        }
        Ok((value, timings))
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
        let tenant = self.preflight(token, id, &inputs)?;
        if inputs.is_empty() {
            return Ok((Vec::new(), Timings::default()));
        }
        // One frame, one permit: the batch travels as one task.
        let span = self.obs.tracer.start_root("request");
        let frame = self.open_frame(id, span, started, Some(inputs.len()), Some(tenant))?;
        let outcome = self.execute_remote(id, &frame, inputs, None);
        self.close_frame(id, frame, outcome)
    }
}
