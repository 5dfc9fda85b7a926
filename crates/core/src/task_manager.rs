//! The Task Manager (§IV-B).
//!
//! "Any compute resource on which DLHub is to execute tasks must be
//! preconfigured with DLHub Task Manager software. The Task Manager is
//! responsible for monitoring the DLHub task queue(s) and then
//! executing waiting tasks … routing tasks to appropriate servables.
//! When a Task Manager is first deployed it registers itself with the
//! Management Service and specifies which executors … it can launch."

use crate::executor::{Execution, Executor};
use crate::repository::Repository;
use crate::task::{TaskRequest, TaskResponse};
use dlhub_fault::{site, FaultHandle, FaultKind};
use dlhub_obs::{Counter, Obs, SpanHandle};
use dlhub_queue::{Broker, Responder, RpcServer};
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
/// resolves and dispatches, then goes straight back to the queue; the
/// thread that finishes the task (a replica, for pooled executors)
/// answers the requester.
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
    /// The TM records `invocation` spans into `obs` (parented under the
    /// requester's propagated context), executors record `inference`
    /// spans, and `tm_tasks_total` counts handled tasks; deployments
    /// pass the same handle to the Management Service so one trace
    /// spans all tiers. When `faults` fires the
    /// [`dlhub_fault::site::TM_CRASH`] site, the consumer abandons the
    /// leased task mid-flight without acking or replying — exactly what
    /// a Task Manager process crash looks like to the rest of the
    /// system. The broker's lease expiry then redelivers the task to a
    /// surviving consumer.
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
            bytes::Bytes::from(serde_json::to_vec(&registration).expect("registration json")),
        );

        let shutdown = Arc::new(AtomicBool::new(false));
        let served = Arc::new(AtomicU64::new(0));
        let instruments = Arc::new(Instruments {
            tasks: obs
                .metrics
                .counter_with_help("tm_tasks_total", "Tasks executed by Task Managers"),
            obs,
        });
        let threads = (0..consumers.max(1))
            .map(|i| {
                let server = RpcServer::bind(broker, task_topic);
                let repository = Arc::clone(&repository);
                let executors = executors.clone();
                let instruments = Arc::clone(&instruments);
                let shutdown = Arc::clone(&shutdown);
                let served = Arc::clone(&served);
                let faults = faults.clone();
                std::thread::Builder::new()
                    .name(format!("tm-{name}-{i}"))
                    .spawn(move || {
                        while !shutdown.load(Ordering::Relaxed) {
                            // No consumer waits on a dispatched task, so
                            // each loop turn checks for hung ones.
                            for executor in &executors {
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
                            if let Some(fault) = faults.decide(site::TM_CRASH) {
                                // Slow/Hang crashes die mid-task, holding
                                // the lease for a while.
                                if matches!(fault.kind, FaultKind::Slow | FaultKind::Hang) {
                                    std::thread::sleep(fault.delay);
                                }
                                instruments.crashed();
                                drop(responder);
                                continue;
                            }
                            handle(&repository, &executors, &instruments, responder);
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

/// What every consumer of one Task Manager records into.
struct Instruments {
    obs: Obs,
    /// `tm_tasks_total`, resolved once at start.
    tasks: Arc<Counter>,
}

impl Instruments {
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

/// One task between decode and reply: everything needed to answer the
/// requester from whichever thread finishes the work. It must not own
/// an executor — the executor owns it while the task is in flight.
struct Invocation {
    instruments: Arc<Instruments>,
    responder: Responder,
    task_id: String,
    span: Option<SpanHandle>,
    started: Instant,
}

impl Invocation {
    /// Measure the invocation, build the response, close the span and
    /// reply. Every failure becomes an error response, so the requester
    /// is always answered.
    fn finish(self, outcome: Execution) {
        let invocation_nanos = self.started.elapsed().as_nanos() as u64;
        let (outcome, inference_nanos) = match outcome {
            Ok((outputs, times)) => (
                Ok(outputs),
                times.iter().map(|t| t.as_nanos() as u64).collect(),
            ),
            Err(message) => (Err(message), vec![]),
        };
        let response = TaskResponse {
            task_id: self.task_id,
            outcome,
            inference_nanos,
            invocation_nanos,
        };
        self.instruments.tasks.inc();
        if let Some(mut span) = self.span {
            if let Err(e) = &response.outcome {
                span.attr("error", e.clone());
            }
            self.instruments.obs.tracer.finish(span);
        }
        self.responder.reply(response.to_bytes());
    }
}

/// Handle one task: resolve the servable, route to an executor and
/// dispatch. Never panics, and never waits for the inference: the
/// executor calls [`Invocation::finish`] when the task is done. Traced
/// requests (those carrying a `TraceContext`) get an `invocation` span
/// parented under the requester's span, with the executor recording
/// `inference` spans beneath it.
fn handle(
    repository: &Repository,
    executors: &[Arc<dyn Executor>],
    instruments: &Arc<Instruments>,
    responder: Responder,
) {
    let request = match TaskRequest::from_bytes(responder.payload()) {
        Ok(r) => r,
        Err(e) => {
            let response = TaskResponse {
                task_id: "unknown".into(),
                outcome: Err(e),
                inference_nanos: vec![],
                invocation_nanos: 0,
            };
            return responder.reply(response.to_bytes());
        }
    };
    let mut span = request
        .trace
        .map(|p| instruments.obs.tracer.start_child(p, "invocation"));
    if let Some(s) = span.as_mut() {
        s.attr("servable", request.servable.clone());
        s.attr("batch", request.inputs.len().to_string());
        // Broker-side queue accounting, so critical-path analysis can
        // report how long the task sat in the queue before this hop.
        let info = responder.info();
        s.attr("queue_wait_ns", info.queue_wait.as_nanos().to_string());
        s.attr("delivery_attempts", info.attempts.to_string());
        // Redelivered tasks had `enqueued_at` re-stamped by the
        // broker, so `queue_wait_ns` covers only the latest
        // residency; flag them so attribution tooling knows the
        // earlier residencies live on the prior delivery's span.
        s.attr("redelivered", (info.attempts > 1).to_string());
    }
    let ctx = span.as_ref().map(|s| s.ctx());
    let invocation = Invocation {
        instruments: Arc::clone(instruments),
        responder,
        task_id: request.task_id,
        span,
        started: Instant::now(),
    };
    let (servable, metadata) = match repository.resolve_internal(&request.servable) {
        Ok(pair) => pair,
        Err(e) => return invocation.finish(Err(e.to_string())),
    };
    let Some(executor) = executors.iter().find(|e| e.supports(metadata.model_type)) else {
        return invocation.finish(Err(format!(
            "no executor supports model type {}",
            metadata.model_type
        )));
    };
    // Hand the decoded batch to the executor by shared ownership: the
    // inputs were materialized once by `TaskRequest::from_bytes` and
    // replica pools fan them out by refcount, never by deep clone.
    executor.dispatch(
        &request.servable,
        &servable,
        Arc::new(request.inputs),
        Some(&instruments.obs),
        ctx,
        Box::new(move |outcome| invocation.finish(outcome)),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{ParslExecutor, TfServingExecutor};
    use crate::repository::{PublishVisibility, Repository, PUBLISH_SCOPE, SERVE_SCOPE};
    use crate::servable::builtins::NoopServable;
    use crate::servable::{servable_fn, ModelType, ServableMetadata};
    use crate::task::{next_task_id, TaskRequest, MAX_DEPTH};
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
        assert!(f.repo.all_ids().len() >= 2);
    }
}
