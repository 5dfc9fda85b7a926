//! The Task Manager (§IV-B).
//!
//! "Any compute resource on which DLHub is to execute tasks must be
//! preconfigured with DLHub Task Manager software. The Task Manager is
//! responsible for monitoring the DLHub task queue(s) and then
//! executing waiting tasks … routing tasks to appropriate servables.
//! When a Task Manager is first deployed it registers itself with the
//! Management Service and specifies which executors … it can launch."
//!
//! Every task is a chain (§VI-D): a [`ChainRequest`] carries a
//! pipeline's resolved step list, and a
//! [`TaskRequest`](crate::task::TaskRequest) decodes into the one-step
//! chain. A consumer decodes the task and dispatches its first
//! step; every later step is dispatched by continuation, from the
//! completion of the step before it, on the replica thread that
//! finished that step — step *k*'s outputs are step *k* + 1's inputs,
//! each step runs on its own servable's replica pool, and no thread
//! waits on a running step. The last step's completion answers the
//! requester once: a [`TaskResponse`] to a task, a [`ChainResponse`]
//! with one [`StepCost`] per step to a chain. So a k-step pipeline
//! crosses the broker once and costs one replica hop per step.

use crate::error::DlhubError;
use crate::executor::{Answered, Answers, ChainStep, Executor};
use crate::repository::{Repository, Resolved};
use crate::task::{
    chain_response_frame, decode_task, response_frame, ReplyFrame, StepCost, StepError,
    StepFailure, Steps, TaskFrame, TaskView,
};
use crate::value::Value;
use bytes::Bytes;
use dlhub_fault::{site, FaultHandle, FaultKind};
use dlhub_obs::{Counter, Obs, SpanHandle, TraceContext};
use dlhub_queue::{Broker, RequestInfo, Responder, RpcServer};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Topic on which Task Managers announce themselves.
pub const REGISTRATION_TOPIC: &str = "dlhub.tm.registration";

/// A Task Manager's self-description, sent at startup.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TmRegistration {
    /// Task Manager name (e.g. `cooley-tm-0`).
    pub name: String,
    /// Executor names it can launch.
    pub executors: Vec<String>,
}

/// A running Task Manager: a pool of consumer threads pulling tasks
/// from the broker and routing them to executors. A consumer decodes,
/// resolves and dispatches the first step, then goes straight back to
/// the queue; the thread that finishes a step (a replica, for pooled
/// executors) dispatches the next one, and the one that finishes the
/// last step answers the requester.
pub struct TaskManager {
    name: String,
    shutdown: Arc<AtomicBool>,
    threads: Vec<std::thread::JoinHandle<()>>,
    served: Arc<AtomicU64>,
}

impl TaskManager {
    /// A Task Manager on its own: [`TaskManager::start_wired`]
    /// recording into an [`Obs`] nobody else reads, with fault
    /// injection disabled.
    pub fn start(
        name: &str,
        broker: &Broker,
        task_topic: &str,
        repository: Arc<Repository>,
        executors: Vec<Arc<dyn Executor>>,
        consumers: usize,
    ) -> Self {
        Self::start_wired(
            name,
            broker,
            task_topic,
            repository,
            executors,
            consumers,
            Obs::new(),
            FaultHandle::default(),
        )
    }

    /// Start a Task Manager consuming `task_topic` inside a deployment.
    ///
    /// `executors` are tried in order; the first whose
    /// [`Executor::supports`] accepts the servable's model type gets
    /// the task (inference tasks to serving executors, everything else
    /// to the general Parsl executor, §IV-C). `consumers` is the
    /// number of concurrent queue-consumer threads (the TM is
    /// multi-threaded, §V-B); it bounds concurrent *dispatching*, not
    /// tasks in flight — those are bounded by the replica pools.
    ///
    /// The TM records one `invocation` span per task into `obs`
    /// (parented under the requester's propagated context), executors
    /// record `inference` spans beneath it tagged with their step, and
    /// `tm_tasks_total` counts handled tasks; deployments pass the same
    /// handle to the Management Service so one trace spans all tiers.
    /// The [`dlhub_fault::site::TM_CRASH`] site is consulted when a
    /// consumer takes a task and again between every two steps of a
    /// chain; when it fires, the leased task is abandoned mid-flight
    /// without acking or replying — exactly what a Task Manager process
    /// crash looks like to the rest of the system. The broker's lease
    /// expiry then redelivers the whole task to a surviving consumer.
    #[allow(clippy::too_many_arguments)]
    pub fn start_wired(
        name: &str,
        broker: &Broker,
        task_topic: &str,
        repository: Arc<Repository>,
        executors: Vec<Arc<dyn Executor>>,
        consumers: usize,
        obs: Obs,
        faults: FaultHandle,
    ) -> Self {
        assert!(!executors.is_empty(), "task manager needs an executor");
        // Register with the Management Service (§IV-B).
        broker.ensure_topic(REGISTRATION_TOPIC);
        let registration = TmRegistration {
            name: name.to_string(),
            executors: executors.iter().map(|e| e.name().to_string()).collect(),
        };
        let _ = broker.send(
            REGISTRATION_TOPIC,
            Bytes::from(serde_json::to_vec(&registration).expect("registration json")),
        );

        let shutdown = Arc::new(AtomicBool::new(false));
        let served = Arc::new(AtomicU64::new(0));
        let router = Arc::new(Router {
            repository,
            executors,
            tasks: obs
                .metrics
                .counter_with_help("tm_tasks_total", "Tasks executed by Task Managers"),
            obs,
            faults,
        });
        let threads = (0..consumers.max(1))
            .map(|i| {
                let server = RpcServer::bind(broker, task_topic);
                let router = Arc::clone(&router);
                let shutdown = Arc::clone(&shutdown);
                let served = Arc::clone(&served);
                std::thread::Builder::new()
                    .name(format!("tm-{name}-{i}"))
                    .spawn(move || {
                        while !shutdown.load(Ordering::Relaxed) {
                            // No consumer waits on a dispatched task, so
                            // each loop turn checks for hung ones.
                            for executor in &router.executors {
                                executor.reap_expired();
                            }
                            let responder = match server.accept(Duration::from_millis(50)) {
                                Ok(Some(responder)) => responder,
                                Ok(None) => continue,
                                Err(_) => break,
                            };
                            served.fetch_add(1, Ordering::Relaxed);
                            // A simulated process crash: the leased task
                            // is dropped unsettled — no ack, no reply —
                            // and comes back via lease expiry on a
                            // surviving consumer.
                            if let Some(fault) = router.faults.decide(site::TM_CRASH) {
                                // Slow/Hang crashes die mid-task, holding
                                // the lease for a while.
                                if matches!(fault.kind, FaultKind::Slow | FaultKind::Hang) {
                                    std::thread::sleep(fault.delay);
                                }
                                router.crashed();
                                drop(responder);
                                continue;
                            }
                            handle(&router, responder);
                        }
                    })
                    .expect("spawn tm consumer")
            })
            .collect();
        TaskManager {
            name: name.to_string(),
            shutdown,
            threads,
            served,
        }
    }

    /// The Task Manager's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Tasks served so far.
    pub fn served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    /// Stop consumer threads and wait for them.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for TaskManager {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// What every consumer of one Task Manager, and every chain it has in
/// flight, routes and records through.
struct Router {
    repository: Arc<Repository>,
    executors: Vec<Arc<dyn Executor>>,
    obs: Obs,
    /// `tm_tasks_total`, resolved once at start.
    tasks: Arc<Counter>,
    /// Consulted at the `task_manager.crash` site.
    faults: FaultHandle,
}

impl Router {
    /// Count one injected crash. Looked up where it fires: the counter
    /// exists in a snapshot only once a crash was injected.
    fn crashed(&self) {
        self.obs
            .metrics
            .counter_with_help(
                "tm_crashes_injected_total",
                "Task Manager crashes injected by the fault schedule",
            )
            .inc();
    }
}

/// One task between decode and reply: where its chain is, and
/// everything needed to answer the requester from whichever thread
/// finishes the last step. No Task Manager thread owns it while a step
/// is in flight — the executor does, inside the step's completion.
struct Chain {
    router: Arc<Router>,
    /// Holds the task's frame, which `task` reads in place.
    responder: Responder,
    reply: ReplyFrame,
    /// The task id, and the steps not dispatched yet.
    task: TaskFrame,
    span: Option<SpanHandle>,
    /// The task's arrival, after decode: the invocation is timed from
    /// here, and so is the first step.
    started: Instant,
    /// Index of the step in flight, and when it was handed off.
    step: usize,
    step_started: Instant,
    /// What the steps answered so far cost (chain replies only).
    costs: Vec<StepCost>,
}

impl Chain {
    /// Take the next step off the frame, resolve it and hand it
    /// `inputs`.
    fn dispatch(mut self: Box<Self>, inputs: Arc<Vec<Value>>) {
        let id = self.task.next_step(self.responder.payload());
        let step = id.map(|id| self.router.repository.resolve_entry(id));
        self.run(step, inputs);
    }

    /// Hand `inputs` to `step`, the next step as taken off the frame and
    /// resolved (`None`: no step was left); its completion continues the
    /// chain. Never waits for the step to run.
    fn run(self: Box<Self>, step: Option<Result<Resolved, DlhubError>>, inputs: Arc<Vec<Value>>) {
        let step = match step {
            Some(Ok(step)) => step,
            Some(Err(e)) => return self.reply(Err(StepError::Execution(e.to_string()))),
            None => return self.reply(Err(StepError::Execution("chain has no steps".into()))),
        };
        let metadata = &step.metadata;
        // The Management Service checked what the caller sent; what a
        // step hands the next is checked here.
        if self.step > 0
            && !inputs
                .iter()
                .all(|input| metadata.input_type.matches(input))
        {
            let expected = metadata.input_type.descriptor();
            return self.reply(Err(StepError::InvalidInput { expected }));
        }
        let router = Arc::clone(&self.router);
        let Some(executor) = router
            .executors
            .iter()
            .find(|e| e.supports(metadata.model_type))
        else {
            let message = format!("no executor supports model type {}", metadata.model_type);
            return self.reply(Err(StepError::Execution(message)));
        };
        let chain_step = ChainStep {
            index: self.step,
            trace: self.span.as_ref().map(|span| (&router.obs, span.ctx())),
        };
        // The inputs go by shared ownership: the first step's were
        // materialized once by the decoder, every later step's are the
        // step before's outputs, and replica pools fan them out by
        // refcount, never by deep clone.
        executor.dispatch(
            &step.id,
            &step.servable,
            inputs,
            chain_step,
            Box::new(move |outcome| self.answered(outcome)),
        );
    }

    /// One step answered: reply after the last, otherwise dispatch the
    /// next one from here — the thread that ran this step.
    fn answered(mut self: Box<Self>, outcome: Answered) {
        let answers = match outcome {
            Ok(answers) => answers,
            Err(message) => return self.reply(Err(StepError::Execution(message))),
        };
        if self.task.steps_left() == 0 {
            return self.reply(Ok(answers));
        }
        let now = Instant::now();
        let cost = step_cost(answers.times(), self.step_started, now);
        self.costs.push(cost);
        (self.step, self.step_started) = (self.step + 1, now);
        // A crash between two steps: the task is dropped half done,
        // unsettled, and its lease brings the whole chain back.
        if self.router.faults.decide(site::TM_CRASH).is_some() {
            return self.router.crashed();
        }
        self.dispatch(Arc::new(answers.into_values()));
    }

    /// Measure the invocation, close the span and answer the requester
    /// once, in the frame it asked for: the last step's answers, or the
    /// step in flight's failure. Every failure becomes an answer, so the
    /// requester is always answered.
    fn reply(self: Box<Self>, outcome: Result<Answers, StepError>) {
        let Chain {
            router,
            responder,
            reply,
            task,
            mut span,
            started,
            step,
            step_started,
            mut costs,
        } = *self;
        let now = Instant::now();
        if let (Some(span), Err(error)) = (span.as_mut(), &outcome) {
            span.attr("error", error.to_string());
            span.attr("failed_step", step);
        }
        if let (ReplyFrame::Chain, Ok(answers)) = (reply, &outcome) {
            costs.push(step_cost(answers.times(), step_started, now));
        }
        let bytes = encode_reply(
            reply,
            task.task_id(responder.payload()),
            outcome.map_err(|error| StepFailure { step, error }),
            &costs,
            now.duration_since(started).as_nanos() as u64,
        );
        router.tasks.inc();
        if let Some(span) = span {
            router.obs.tracer.finish(span);
        }
        responder.reply(bytes);
    }
}

/// What a step handed off at `since` and answered at `now` cost.
fn step_cost(times: impl Iterator<Item = Duration>, since: Instant, now: Instant) -> StepCost {
    StepCost {
        inference_nanos: times.map(|t| t.as_nanos() as u64).sum(),
        invocation_nanos: now.duration_since(since).as_nanos() as u64,
    }
}

/// The answer to a task in the frame its request asked for, encoded
/// straight from the answer cells. A task's reply carries per-input
/// inference times; a chain's, one cost per step (`costs`, dropped on
/// failure).
fn encode_reply(
    reply: ReplyFrame,
    task_id: &str,
    outcome: Result<Answers, StepFailure>,
    costs: &[StepCost],
    invocation_nanos: u64,
) -> Bytes {
    type NoValues<'a> = std::iter::Empty<&'a Value>;
    match (reply, &outcome) {
        (ReplyFrame::Task, Ok(answers)) => {
            let nanos = answers.times().map(|t| t.as_nanos() as u64);
            response_frame(task_id, Ok(answers.values()), nanos, invocation_nanos)
        }
        (ReplyFrame::Task, Err(failure)) => {
            let message = failure.error.to_string();
            let outcome = Err::<NoValues, _>(message.as_str());
            response_frame(task_id, outcome, std::iter::empty(), invocation_nanos)
        }
        (ReplyFrame::Chain, Ok(answers)) => {
            chain_response_frame(task_id, Ok(answers.values()), costs)
        }
        (ReplyFrame::Chain, Err(failure)) => {
            chain_response_frame(task_id, Err::<NoValues, _>(failure), &[])
        }
    }
}

/// The `invocation` span of a task carrying `inputs` inputs through
/// `steps`, under the requester's `parent`: tagged with its servable — a
/// one-step task's id as the repository holds it once `first` resolved
/// it, otherwise the ids as sent — and with the broker's account of the
/// delivery.
fn invocation_span(
    router: &Router,
    parent: TraceContext,
    steps: Steps<'_>,
    first: Option<&Resolved>,
    inputs: usize,
    info: RequestInfo,
) -> SpanHandle {
    let mut span = router.obs.tracer.start_child(parent, "invocation");
    match first {
        Some(step) if steps.len() == 1 => span.attr("servable", Arc::clone(&step.id)),
        _ => span.attr("servable", steps.collect::<Vec<_>>().join(",")),
    }
    span.attr("batch", inputs);
    // Broker-side queue accounting, so critical-path analysis can
    // report how long the task sat in the queue before this hop.
    span.attr("queue_wait_ns", info.queue_wait.as_nanos() as u64);
    span.attr("delivery_attempts", info.attempts);
    // Redelivered tasks had `enqueued_at` re-stamped by the broker, so
    // `queue_wait_ns` covers only the latest residency; flag them so
    // attribution tooling knows the earlier residencies live on the
    // prior delivery's span.
    span.attr("redelivered", info.attempts > 1);
    span
}

/// Handle one task: decode it as a chain and dispatch its first step.
/// Never panics, and never waits for a step: each step's completion
/// dispatches the next, and the last one answers. Traced requests
/// (those carrying a `TraceContext`) get one `invocation` span parented
/// under the requester's span, with the executors recording every
/// step's `inference` spans beneath it.
fn handle(router: &Arc<Router>, responder: Responder) {
    let (reply, decoded) = decode_task(responder.payload());
    let TaskView {
        steps,
        trace,
        inputs,
        places: mut task,
        ..
    } = match decoded {
        Ok(view) => view,
        Err(e) => {
            let failure = StepFailure {
                step: 0,
                error: StepError::Execution(e),
            };
            let bytes = encode_reply(reply, "unknown", Err(failure), &[], 0);
            return responder.reply(bytes);
        }
    };
    let started = Instant::now();
    let costs = match reply {
        ReplyFrame::Task => Vec::new(),
        ReplyFrame::Chain => Vec::with_capacity(steps.len()),
    };
    let first = task
        .next_step(responder.payload())
        .map(|id| router.repository.resolve_entry(id));
    let span = trace.map(|parent| {
        let resolved = first.as_ref().and_then(|step| step.as_ref().ok());
        invocation_span(
            router,
            parent,
            steps,
            resolved,
            inputs.len(),
            responder.info(),
        )
    });
    Box::new(Chain {
        router: Arc::clone(router),
        responder,
        reply,
        task,
        span,
        started,
        step: 0,
        step_started: started,
        costs,
    })
    .run(first, Arc::new(inputs));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{ParslExecutor, TfServingExecutor};
    use crate::repository::{PublishVisibility, Repository, PUBLISH_SCOPE, SERVE_SCOPE};
    use crate::servable::builtins::NoopServable;
    use crate::servable::{servable_fn, ModelType, ServableMetadata, TypeDesc};
    use crate::task::{
        next_task_id, ChainRequest, ChainResponse, TaskRequest, TaskResponse, MAX_DEPTH,
    };
    use crate::value::Value;
    use dlhub_auth::{AuthService, Scope};
    use dlhub_container::{Cluster, NodeSpec};
    use dlhub_queue::{Broker, BrokerConfig, RpcClient};
    use std::collections::BTreeMap;

    struct Fixture {
        broker: Broker,
        repo: Arc<Repository>,
        _tm: TaskManager,
        client: RpcClient,
    }

    fn fixture(executors: Vec<Arc<dyn Executor>>) -> Fixture {
        let auth = AuthService::new();
        auth.register_provider("p");
        let repo = Arc::new(Repository::new(auth.clone()));
        let user = auth.register_identity("p", "u").unwrap();
        let token = auth
            .issue_token(
                user,
                &[
                    Scope::new("dlhub", PUBLISH_SCOPE),
                    Scope::new("dlhub", SERVE_SCOPE),
                ],
            )
            .unwrap();
        repo.publish(
            &token,
            ServableMetadata::new("noop", "u@p", ModelType::PythonFunction),
            Arc::new(NoopServable),
            BTreeMap::new(),
            PublishVisibility::Public,
        )
        .unwrap();
        let mut m = ServableMetadata::new("fail", "u@p", ModelType::PythonFunction);
        m.description = "always fails".into();
        repo.publish(
            &token,
            m,
            servable_fn(|_| Err("synthetic failure".into())),
            BTreeMap::new(),
            PublishVisibility::Public,
        )
        .unwrap();
        let mut m = ServableMetadata::new("wants-null", "u@p", ModelType::PythonFunction);
        m.input_type = TypeDesc::Null;
        repo.publish(
            &token,
            m,
            Arc::new(NoopServable),
            BTreeMap::new(),
            PublishVisibility::Public,
        )
        .unwrap();
        let broker = Broker::new(BrokerConfig::default());
        let tm = TaskManager::start("test-tm", &broker, "tasks", Arc::clone(&repo), executors, 2);
        let client = RpcClient::connect(&broker, "tasks");
        Fixture {
            broker,
            repo,
            _tm: tm,
            client,
        }
    }

    fn parsl() -> Arc<dyn Executor> {
        Arc::new(ParslExecutor::new(
            Cluster::new(vec![NodeSpec::new("n0", 64_000, 65_536)]),
            2,
            &Obs::new(),
            FaultHandle::default(),
        ))
    }

    fn roundtrip(f: &Fixture, request: &TaskRequest) -> TaskResponse {
        let reply = f
            .client
            .call_wait(request.to_bytes(), Duration::from_secs(5))
            .unwrap();
        TaskResponse::from_bytes(&reply).unwrap()
    }

    #[test]
    fn serves_a_task_end_to_end() {
        let f = fixture(vec![parsl()]);
        let request = TaskRequest {
            task_id: next_task_id(),
            servable: "u/noop".into(),
            inputs: vec![Value::Null],
            trace: None,
        };
        let response = roundtrip(&f, &request);
        assert_eq!(response.task_id, request.task_id);
        assert_eq!(
            response.outcome.unwrap(),
            vec![Value::Str("hello world".into())]
        );
        assert_eq!(response.inference_nanos.len(), 1);
        assert!(response.invocation_nanos >= response.inference_nanos[0]);
    }

    #[test]
    fn unknown_servable_yields_error_response() {
        let f = fixture(vec![parsl()]);
        let request = TaskRequest {
            task_id: next_task_id(),
            servable: "ghost/model".into(),
            inputs: vec![Value::Null],
            trace: None,
        };
        let response = roundtrip(&f, &request);
        assert!(response.outcome.unwrap_err().contains("ghost/model"));
    }

    #[test]
    fn servable_failure_is_reported_not_fatal() {
        let f = fixture(vec![parsl()]);
        let request = TaskRequest {
            task_id: next_task_id(),
            servable: "u/fail".into(),
            inputs: vec![Value::Null],
            trace: None,
        };
        let response = roundtrip(&f, &request);
        assert_eq!(response.outcome.unwrap_err(), "synthetic failure");
        // The TM is still alive and serves the next task.
        let ok = roundtrip(
            &f,
            &TaskRequest {
                task_id: next_task_id(),
                servable: "u/noop".into(),
                inputs: vec![Value::Null],
                trace: None,
            },
        );
        assert!(ok.outcome.is_ok());
    }

    #[test]
    fn malformed_request_is_answered() {
        let f = fixture(vec![parsl()]);
        let reply = f
            .client
            .call_wait(
                bytes::Bytes::from_static(b"garbage"),
                Duration::from_secs(5),
            )
            .unwrap();
        let response = TaskResponse::from_bytes(&reply).unwrap();
        assert!(response.outcome.unwrap_err().contains("malformed"));
    }

    #[test]
    fn nesting_past_the_bound_is_answered_and_the_consumer_survives() {
        let f = fixture(vec![parsl()]);
        let call = |levels: usize| {
            let mut frame = TaskRequest {
                task_id: next_task_id(),
                servable: "u/noop".into(),
                inputs: vec![],
                trace: None,
            }
            .to_bytes()
            .to_vec();
            // A request frame ends with its input count.
            let count_at = frame.len() - 4;
            frame[count_at] = 1;
            frame.extend(crate::value::nested_lists(levels));
            let decoded = TaskRequest::from_bytes(&frame).map(|_| ());
            let reply = f
                .client
                .call_wait(frame.into(), Duration::from_secs(5))
                .unwrap();
            let served = TaskResponse::from_bytes(&reply).unwrap().outcome;
            (decoded, served)
        };
        for levels in [MAX_DEPTH + 1, 100_000] {
            let (decoded, served) = call(levels);
            for err in [decoded.unwrap_err(), served.unwrap_err()] {
                assert!(
                    err.starts_with("malformed task request: lists nested deeper"),
                    "{levels} levels: {err}"
                );
            }
        }
        let (decoded, served) = call(MAX_DEPTH);
        assert_eq!(decoded, Ok(()));
        assert_eq!(served.unwrap(), vec![Value::Str("hello world".into())]);
    }

    #[test]
    fn executor_routing_respects_model_type() {
        // Only a TF Serving executor: python functions have no home.
        let tfs: Arc<dyn Executor> = Arc::new(TfServingExecutor::new());
        let f = fixture(vec![tfs]);
        let response = roundtrip(
            &f,
            &TaskRequest {
                task_id: next_task_id(),
                servable: "u/noop".into(),
                inputs: vec![Value::Null],
                trace: None,
            },
        );
        assert!(response
            .outcome
            .unwrap_err()
            .contains("no executor supports"));
    }

    #[test]
    fn batch_requests_return_per_input_times() {
        let f = fixture(vec![parsl()]);
        let request = TaskRequest {
            task_id: next_task_id(),
            servable: "u/noop".into(),
            inputs: vec![Value::Null; 5],
            trace: None,
        };
        let response = roundtrip(&f, &request);
        assert_eq!(response.outcome.unwrap().len(), 5);
        assert_eq!(response.inference_nanos.len(), 5);
    }

    fn chain(f: &Fixture, steps: &[&str]) -> ChainResponse {
        let request = ChainRequest {
            task_id: next_task_id(),
            steps: steps.iter().map(|s| s.to_string()).collect(),
            inputs: vec![Value::Null],
            trace: None,
        };
        let reply = f
            .client
            .call_wait(request.to_bytes(), Duration::from_secs(5))
            .unwrap();
        let response = ChainResponse::from_bytes(&reply).unwrap();
        assert_eq!(response.task_id, request.task_id);
        response
    }

    #[test]
    fn a_chain_runs_step_into_step_and_answers_once_with_every_cost() {
        let f = fixture(vec![parsl()]);
        let response = chain(&f, &["u/noop", "u/noop", "u/noop"]);
        assert_eq!(
            response.outcome.unwrap(),
            vec![Value::Str("hello world".into())]
        );
        assert_eq!(response.steps.len(), 3);
        for cost in &response.steps {
            assert!(cost.invocation_nanos >= cost.inference_nanos, "{cost:?}");
        }
        // One task, one job per step.
        assert_eq!(f._tm.served(), 1);
    }

    #[test]
    fn a_chain_names_the_step_it_failed_at() {
        let f = fixture(vec![parsl()]);
        let failed = |steps: &[&str]| {
            let response = chain(&f, steps);
            assert!(response.steps.is_empty());
            response.outcome.unwrap_err()
        };
        assert_eq!(
            failed(&["u/noop", "u/fail", "u/noop"]),
            StepFailure {
                step: 1,
                error: StepError::Execution("synthetic failure".into()),
            }
        );
        // noop answers a string; a step that takes only null refuses it
        // at the Task Manager, as the Management Service would have.
        assert_eq!(
            failed(&["u/noop", "u/wants-null"]),
            StepFailure {
                step: 1,
                error: StepError::InvalidInput {
                    expected: TypeDesc::Null.descriptor(),
                },
            }
        );
        let missing = failed(&["u/noop", "ghost/model"]);
        assert_eq!(missing.step, 1);
        assert!(matches!(missing.error, StepError::Execution(m) if m.contains("ghost/model")));
        assert_eq!(failed(&[]).step, 0);
        // A malformed chain frame is answered in a chain's reply.
        let mut frame = ChainRequest {
            task_id: next_task_id(),
            steps: vec!["u/noop".into()],
            inputs: vec![],
            trace: None,
        }
        .to_bytes()
        .to_vec();
        frame.truncate(frame.len() - 1);
        let reply = f
            .client
            .call_wait(frame.into(), Duration::from_secs(5))
            .unwrap();
        let response = ChainResponse::from_bytes(&reply).unwrap();
        assert!(matches!(
            response.outcome,
            Err(StepFailure { step: 0, error: StepError::Execution(m) }) if m.starts_with("malformed chain request")
        ));
    }

    #[test]
    fn registration_is_announced() {
        let f = fixture(vec![parsl()]);
        let delivery = f
            .broker
            .recv_timeout(REGISTRATION_TOPIC, Duration::from_secs(1))
            .unwrap();
        let reg: TmRegistration = serde_json::from_slice(&delivery.message.payload).unwrap();
        delivery.ack();
        assert_eq!(reg.name, "test-tm");
        assert_eq!(reg.executors, vec!["parsl".to_string()]);
        // Keep repo alive for the fixture's lifetime.
        assert!(f.repo.all_ids().len() >= 3);
    }
}
