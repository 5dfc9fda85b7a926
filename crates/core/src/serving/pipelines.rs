//! Server-side pipelines (§VI-D): one request frame, one task. The
//! Management Service resolves every step as the caller, opens one frame
//! under the `pipeline` root and sends the step list to a Task Manager as
//! one [`ChainRequest`]; the Task Manager runs step *k*'s output into
//! step *k* + 1 on each step's own replica pool and answers once, with
//! the final value and one [`StepCost`] per step. A k-step pipeline
//! costs one frame, one codec round trip, one broker hop and one
//! Management Service wake-up, plus one replica hop per step; a retry
//! re-sends the whole chain under the same `task_id`.
//!
//! **One request, k dispatches.** The frame is the pipeline's, keyed by
//! its name: `requests`, `errors`, request latency and the SLO
//! observation, one admission permit, one root span. Each step's
//! measured cost goes to its own servable's `ServableSeries::dispatch`,
//! so adaptive batching and the replica control loop see what every step
//! costs, and the control loop counts a pipeline's arrivals at each of
//! its steps (`StepLoad`, in `serving/mod.rs`). Registration keeps the
//! pipeline's own ledger and each step's series beside the step list
//! ([`Registered`]), so a run looks none of them up by name.
//!
//! **The memo rule.** The key is the pipeline's name and its input;
//! intermediates are not cached. A pipeline name has no `/` and a
//! servable id always has one, so the two never share a key (nor a
//! series). Republishing any step, or re-registering the pipeline,
//! invalidates its entries under the memo's generation guard.

use super::request::RequestFrame;
use super::ManagementService;
use crate::error::DlhubError;
use crate::memo::MemoKey;
use crate::metrics::Timings;
use crate::pipeline::{Pipeline, StepTiming};
use crate::task::{
    chain_frame, next_task_seq, ChainResponse, StepCost, StepError, StepFailure, TaskId,
};
use crate::value::Value;
use bytes::Bytes;
use dlhub_auth::Token;
use dlhub_obs::{Ledger, ServableSeries};
use dlhub_sync::atomic::Ordering;
use dlhub_sync::time::{ns_at, Instant};
use std::sync::Arc;
use std::time::Duration;

/// A registered pipeline with what its runs record into: its own
/// ledger, for the frame, and each step's series, in step order, for
/// the step's dispatch cost.
pub(super) struct Registered {
    pub(super) pipeline: Arc<Pipeline>,
    ledger: Arc<Ledger>,
    steps: Vec<Arc<ServableSeries>>,
}

impl ManagementService {
    /// Register a pipeline. Every step must be visible to the
    /// registrant; re-registering a name replaces the pipeline and drops
    /// its memoized results.
    pub fn register_pipeline(&self, token: &Token, pipeline: Pipeline) -> Result<(), DlhubError> {
        self.authorize_serve(token, Instant::now())?;
        pipeline.validate().map_err(DlhubError::Pipeline)?;
        let steps = pipeline
            .steps
            .iter()
            .map(|step| {
                let ledger = self.repo.ledger_as(Some(token), step, |_| Ok(()))?;
                Ok(Arc::clone(&ledger.series))
            })
            .collect::<Result<_, DlhubError>>()?;
        let name: Arc<str> = Arc::from(pipeline.name.as_str());
        let registered = Registered {
            pipeline: Arc::new(pipeline),
            ledger: Arc::new(self.obs.ledger(Arc::clone(&name))),
            steps,
        };
        let replaced = self
            .pipelines
            .write()
            .insert(Arc::clone(&name), Arc::new(registered));
        if replaced.is_some() {
            self.memo.invalidate_servable(&name);
        }
        Ok(())
    }

    /// The pipeline registered as `name`.
    fn registered(&self, name: &str) -> Result<Arc<Registered>, DlhubError> {
        self.pipelines
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| DlhubError::Pipeline(format!("no such pipeline: {name}")))
    }

    /// Run a registered pipeline: steps execute server-side, output of
    /// step *k* feeding step *k + 1* without returning to the client
    /// (§VI-D). Returns the final value and per-step timings.
    pub fn run_pipeline(
        &self,
        token: &Token,
        name: &str,
        input: Value,
    ) -> Result<(Value, Vec<StepTiming>), DlhubError> {
        self.run_pipeline_traced(token, name, input)
            .map(|(value, steps, _)| (value, steps))
    }

    /// [`Self::run_pipeline`], additionally returning the trace id of
    /// the pipeline's span tree: the `pipeline` root (the frame), its
    /// `attempt`s and the Task Manager's one `invocation`, and beneath
    /// that one `inference` per step tagged `servable` and `step`.
    pub fn run_pipeline_traced(
        &self,
        token: &Token,
        name: &str,
        input: Value,
    ) -> Result<(Value, Vec<StepTiming>, u64), DlhubError> {
        let started = Instant::now();
        // One authorization for the whole pipeline, then every step
        // resolves as the caller before anything is dispatched. The
        // first step's input is the caller's and is checked here; the
        // others are checked at the Task Manager, as each step produces
        // them. Any refusal is counted once.
        let checked = self.authorize_serve(token, started).and_then(|tenant| {
            let registered = self.registered(name)?;
            for (k, step) in registered.pipeline.steps.iter().enumerate() {
                let inputs = if k == 0 {
                    std::slice::from_ref(&input)
                } else {
                    &[]
                };
                self.check_inputs(token, step, inputs)?;
            }
            Ok((tenant, registered))
        });
        let (tenant, registered) = self.refused(checked)?;
        let steps = &registered.pipeline.steps;
        let mut span = self.obs.tracer.start_root_at("pipeline", ns_at(started));
        span.attr("steps", steps.len());
        let ledger = Arc::clone(&registered.ledger);
        let frame = self.open_frame(ledger, span, started, None, Some(tenant))?;
        let trace = frame.trace();
        let outcome = self.run_chain(&registered, &frame, input);
        let ((value, costs), timings) = self.close_frame(frame, outcome)?;
        Ok((value, StepTiming::split(steps, timings, &costs), trace))
    }

    /// Answer from the memo, or send the whole chain as one task.
    /// `costs` is empty on a hit.
    fn run_chain(
        &self,
        registered: &Registered,
        frame: &RequestFrame,
        input: Value,
    ) -> Result<((Value, Vec<StepCost>), Timings), DlhubError> {
        let memoize = self.memo_enabled.load(Ordering::Relaxed);
        let memo = memoize.then(|| {
            let key = MemoKey::for_servable(frame.servable(), &input);
            (self.memo.generation(), key)
        });
        if let Some((value, timings)) = memo.as_ref().and_then(|(_, key)| self.memo_hit(frame, key))
        {
            return Ok(((value, Vec::new()), timings));
        }
        let task_id = TaskId::Seq(next_task_seq());
        let inputs = std::slice::from_ref(&input);
        let steps = &registered.pipeline.steps;
        let chain = chain_frame(task_id, steps, frame.ctx(), inputs);
        let (value, costs) =
            self.dispatch_remote(frame, chain, None, |reply| chain_answer(registered, reply))?;
        if let Some((generation, key)) = memo {
            self.memo.put_since(generation, key, value.clone());
        }
        let total =
            |nanos: fn(&StepCost) -> u64| Duration::from_nanos(costs.iter().map(nanos).sum());
        let timings = Timings {
            inference: total(|c| c.inference_nanos),
            invocation: total(|c| c.invocation_nanos),
            ..Timings::default()
        };
        Ok(((value, costs), timings))
    }

    /// Registered pipelines.
    pub fn pipelines(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .pipelines
            .read()
            .keys()
            .map(|n| n.to_string())
            .collect();
        names.sort();
        names
    }
}

/// Decode a chain's one answer: the failing step's typed error, or the
/// final value with each step's cost, recorded in that step's own
/// series.
fn chain_answer(
    registered: &Registered,
    reply: Bytes,
) -> Result<(Value, Vec<StepCost>), DlhubError> {
    let steps = &registered.pipeline.steps;
    let response = ChainResponse::from_bytes(&reply).map_err(DlhubError::Transport)?;
    let malformed =
        || DlhubError::Transport(format!("malformed answer to a {}-step chain", steps.len()));
    let mut outputs = match response.outcome {
        Ok(outputs) => outputs,
        Err(StepFailure { step, error }) => {
            let servable = steps.get(step).ok_or_else(malformed)?.clone();
            return Err(match error {
                StepError::Execution(message) => DlhubError::Execution { servable, message },
                StepError::InvalidInput { expected } => {
                    DlhubError::InvalidInput { servable, expected }
                }
            });
        }
    };
    let value = outputs.pop().ok_or_else(malformed)?;
    if !outputs.is_empty() || response.steps.len() != steps.len() {
        return Err(malformed());
    }
    let nanos = Duration::from_nanos;
    for (series, cost) in registered.steps.iter().zip(&response.steps) {
        series
            .dispatch
            .record(1, nanos(cost.inference_nanos), nanos(cost.invocation_nanos));
    }
    Ok((value, response.steps))
}
