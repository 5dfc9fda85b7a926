//! The Management Service (§IV-A): the user-facing interface to DLHub.
//!
//! "It enables users to publish models, query available models,
//! execute tasks (e.g., inference), construct pipelines, and monitor
//! the status of tasks. The Management Service includes advanced
//! functionality to … optimize task performance, route workloads to
//! suitable executors, batch tasks, and cache results."
//!
//! [`ManagementService::new`] is the one constructor: it takes the
//! deployment's `Obs` and fault schedule next to the [`ServingConfig`]
//! and builds the memo cache, admission controller, reconciler and
//! async pool around them. Nothing is attached afterwards — which
//! telemetry mode the `Obs` carries, and which executor the control
//! loop actuates, were decided by whoever assembled the deployment
//! (see [`crate::hub`]).
mod intake;
mod pipelines;
mod request;

use crate::admission::{AdmissionConfig, AdmissionController};
use crate::autoscale::{ControlDecision, ControlPolicy, Reconciler};
use crate::batch::Batcher;
use crate::error::DlhubError;
use crate::executor::ParslExecutor;
use crate::memo::{MemoCache, MemoStats};
use crate::metrics::Timings;
use crate::pipeline::Pipeline;
use crate::repository::{PublishReceipt, PublishVisibility, Repository};
use crate::servable::{Servable, ServableMetadata};
use crate::task::TaskTable;
use crate::task_manager::{TmRegistration, REGISTRATION_TOPIC};
use crate::value::Value;
use dlhub_auth::Token;
use dlhub_fault::FaultHandle;
use dlhub_obs::{Obs, SloSpec};
use dlhub_queue::{Broker, RpcClient};
use intake::AsyncPool;
use parking_lot::RwLock;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Management Service configuration.
#[derive(Debug, Clone)]
pub struct ServingConfig {
    /// Broker topic tasks are dispatched on.
    pub task_topic: String,
    /// How long each dispatch *attempt* waits for a Task Manager reply
    /// before the attempt is declared failed (and possibly retried).
    pub request_timeout: Duration,
    /// Total wall-clock budget for a request across all retry attempts
    /// and backoff pauses. Overridable per request via
    /// [`RunOptions::deadline`].
    pub request_deadline: Duration,
    /// Retries after the first failed attempt (total attempts is
    /// `max_retries + 1`). Only transient failures — timeouts and
    /// transport errors, plus execution errors when
    /// `retry_execution_errors` is set — consume the budget.
    pub max_retries: u32,
    /// Initial pause before the first retry; doubles per retry, capped
    /// by the remaining deadline.
    pub retry_backoff: Duration,
    /// Whether servable execution errors are retried. Off by default:
    /// a deterministic servable failure will fail again, but a chaos
    /// configuration injecting random replica faults wants retries.
    pub retry_execution_errors: bool,
    /// Memo-cache budget in bytes.
    pub memo_capacity: usize,
    /// Whether memoization starts enabled.
    pub memo_enabled: bool,
    /// Auto-batcher: max items coalesced per dispatch.
    pub batch_max: usize,
    /// Auto-batcher: max time a request waits for peers.
    pub batch_delay: Duration,
    /// Auto-batcher: derive flush thresholds from each servable's live
    /// dispatch cost instead of the fixed `batch_max` (the paper's
    /// proposed adaptive batching, §V-B3). `batch_max` remains the cap.
    pub adaptive_batching: bool,
    /// Service-level objectives registered at construction. Each spec
    /// names a servable and a latency threshold; burn rates and alert
    /// state surface in [`dlhub_obs::MetricsSnapshot`] (`slos`), the
    /// Prometheus exposition, and `slo_alert` trace events.
    pub slos: Vec<SloSpec>,
    /// Closed-loop autoscaling policy. `None` (the default) leaves the
    /// reconciler off; `Some` arms it over the executor
    /// [`ManagementService::new`] is given.
    pub autoscale: Option<ControlPolicy>,
    /// Background reconcile interval. Zero (the default) spawns no
    /// thread — the embedder drives passes manually through
    /// [`ManagementService::reconcile_at`] (the sim harness does this
    /// on its virtual clock for deterministic decision logs).
    pub autoscale_interval: Duration,
    /// Admission control. `None` (the default) admits everything;
    /// `Some` bounds inflight requests, sheds early with
    /// [`DlhubError::Overloaded`] under pressure, and schedules
    /// contended capacity by per-tenant weighted fair shares.
    pub admission: Option<AdmissionConfig>,
}

impl Default for ServingConfig {
    fn default() -> Self {
        ServingConfig {
            task_topic: "dlhub.tasks".into(),
            request_timeout: Duration::from_secs(30),
            request_deadline: Duration::from_secs(120),
            max_retries: 2,
            retry_backoff: Duration::from_millis(10),
            retry_execution_errors: false,
            memo_capacity: 64 * 1024 * 1024,
            memo_enabled: true,
            batch_max: 32,
            batch_delay: Duration::from_millis(5),
            adaptive_batching: false,
            slos: Vec::new(),
            autoscale: None,
            autoscale_interval: Duration::ZERO,
            admission: None,
        }
    }
}

/// Threads in the service-owned worker pool that runs
/// [`ManagementService::run_async`] dispatches: the bound on concurrent
/// async work.
pub const ASYNC_WORKERS: usize = 4;

/// Result of a synchronous run: the output plus the paper's nested
/// timings.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Servable output.
    pub value: Value,
    /// Measured timings.
    pub timings: Timings,
    /// Trace id of this request's span tree; feed it to
    /// [`dlhub_obs::Tracer::export`] (`service.obs().tracer`) to inspect
    /// the request's path through the tiers.
    pub trace: u64,
}

/// Per-request options.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Override the service-wide memoization switch for this request.
    pub memoize: Option<bool>,
    /// Override [`ServingConfig::request_deadline`] for this request:
    /// the total budget across every retry attempt and backoff pause.
    pub deadline: Option<Duration>,
}

/// The Management Service. Share via `Arc` (async and batched
/// execution spawn service-owned threads).
pub struct ManagementService {
    repo: Arc<Repository>,
    rpc: RpcClient,
    memo: MemoCache,
    memo_enabled: AtomicBool,
    task_table: Arc<TaskTable>,
    pipelines: RwLock<HashMap<String, Pipeline>>,
    // Read-mostly registries: steady-state requests only take the
    // shared side; the exclusive side is reserved for first-touch
    // creation and registration drains.
    batchers: RwLock<HashMap<String, Arc<Batcher>>>,
    registrations: RwLock<Vec<TmRegistration>>,
    async_pool: AsyncPool,
    broker: Broker,
    config: ServingConfig,
    /// The front door ([`ServingConfig::admission`]); `None` admits
    /// everything.
    admission: Option<Arc<AdmissionController>>,
    /// The autoscaling actuator ([`ServingConfig::autoscale`] over the
    /// executor given at construction); `None` never resizes.
    reconciler: Option<Arc<Reconciler>>,
    obs: Obs,
    /// Consulted at the batch-flush site (the memo cache holds its own
    /// clone for the lookup and insert sites).
    faults: FaultHandle,
}

impl ManagementService {
    /// Wire a Management Service to a repository and broker inside a
    /// deployment. `obs` is the deployment's one handle — the Task
    /// Managers and broker were built around the same one, so trace
    /// trees span all tiers — and `faults` its one schedule, consulted
    /// at the memo and batch-flush sites here.
    ///
    /// `scaled` is the executor the control loop actuates: with
    /// [`ServingConfig::autoscale`] set it is reconciled against the
    /// telemetry store `obs` was built with, otherwise it is ignored.
    /// With a non-zero [`ServingConfig::autoscale_interval`] a
    /// `dlhub-reconciler` thread drives passes on the wall clock,
    /// holding only a `Weak` so it exits once the service drops; with a
    /// zero interval the embedder drives [`Self::reconcile_at`] on a
    /// clock of its choosing (the sim harness uses its virtual clock,
    /// which is what makes seeded decision logs byte-identical).
    pub fn new(
        repo: Arc<Repository>,
        broker: &Broker,
        config: ServingConfig,
        scaled: Option<Arc<ParslExecutor>>,
        obs: Obs,
        faults: FaultHandle,
    ) -> Arc<Self> {
        broker.ensure_topic(&config.task_topic);
        broker.ensure_topic(REGISTRATION_TOPIC);
        // Descriptions for counters whose increment sites are rare
        // paths (refusals, the retry loop) — registered once here so
        // `# HELP` lines render without the counter existing at zero.
        obs.metrics.describe(
            "request_retries_total",
            "Request attempts retried after a transient failure",
        );
        obs.metrics.describe(
            "request_exhausted_total",
            "Requests failed after exhausting the retry budget",
        );
        obs.metrics.describe(
            "requests_rejected_total",
            "Requests refused before dispatch: bad token, unknown servable or invalid input",
        );
        for spec in &config.slos {
            obs.register_slo(spec.clone());
        }
        let admission = config
            .admission
            .clone()
            .map(|cfg| Arc::new(AdmissionController::new(cfg, &obs)));
        let reconciler = config
            .autoscale
            .clone()
            .zip(scaled)
            .map(|(policy, executor)| Arc::new(Reconciler::new(executor, policy, &obs)));
        if let (Some(reconciler), false) = (&reconciler, config.autoscale_interval.is_zero()) {
            let weak = Arc::downgrade(reconciler);
            let telemetry = obs.telemetry.clone();
            let interval = config.autoscale_interval;
            std::thread::Builder::new()
                .name("dlhub-reconciler".into())
                .spawn(move || loop {
                    std::thread::sleep(interval);
                    match weak.upgrade() {
                        Some(reconciler) => {
                            if let Some(signals) = telemetry.signals() {
                                reconciler.reconcile_at(dlhub_obs::now_ns(), signals);
                            }
                        }
                        None => break,
                    }
                })
                .expect("spawn reconciler thread");
        }
        Arc::new(ManagementService {
            rpc: RpcClient::connect(broker, &config.task_topic),
            memo: MemoCache::wired(config.memo_capacity, &obs, faults.clone()),
            memo_enabled: AtomicBool::new(config.memo_enabled),
            task_table: TaskTable::new(),
            pipelines: RwLock::new(HashMap::new()),
            batchers: RwLock::new(HashMap::new()),
            registrations: RwLock::new(Vec::new()),
            async_pool: AsyncPool::new(
                ASYNC_WORKERS,
                obs.metrics.gauge_with_help(
                    "async_queue_depth",
                    "Async dispatches waiting in the worker-pool injector queue",
                ),
                obs.metrics.gauge_with_help(
                    "async_pool_active",
                    "Worker-pool threads currently running a dispatch",
                ),
            ),
            broker: broker.clone(),
            repo,
            config,
            admission,
            reconciler,
            obs,
            faults,
        })
    }

    /// The service's observability handles (tracer + metrics registry).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The reconciler (decision log, policy), or `None` while
    /// autoscaling is off.
    pub fn reconciler(&self) -> Option<&Arc<Reconciler>> {
        self.reconciler.as_ref()
    }

    /// One manual reconcile pass at (virtual) time `now_ns`, reading
    /// the telemetry store's control signals. Returns the decisions
    /// applied; empty while autoscaling or telemetry is off.
    pub fn reconcile_at(&self, now_ns: u64) -> Vec<ControlDecision> {
        let (Some(reconciler), Some(signals)) = (&self.reconciler, self.obs.telemetry.signals())
        else {
            return Vec::new();
        };
        reconciler.reconcile_at(now_ns, signals)
    }

    /// One reconcile pass on the wall clock, for embedders that want
    /// an immediate pass between background ticks (or without any).
    pub fn reconcile_now(&self) -> Vec<ControlDecision> {
        self.reconcile_at(dlhub_obs::now_ns())
    }

    /// The admission controller, or `None` while admission control is
    /// disabled ([`ServingConfig::admission`] unset).
    pub fn admission(&self) -> Option<&Arc<AdmissionController>> {
        self.admission.as_ref()
    }

    /// The backing repository.
    pub fn repository(&self) -> &Arc<Repository> {
        &self.repo
    }

    /// Publish a model (delegates to the repository; invalidates any
    /// stale memo entries for a republished servable).
    pub fn publish(
        &self,
        token: &Token,
        metadata: ServableMetadata,
        servable: Arc<dyn Servable>,
        components: BTreeMap<String, Vec<u8>>,
        visibility: PublishVisibility,
    ) -> Result<PublishReceipt, DlhubError> {
        let receipt = self
            .repo
            .publish(token, metadata, servable, components, visibility)?;
        if receipt.version > 1 {
            self.memo.invalidate_servable(&receipt.id);
        }
        Ok(receipt)
    }

    /// Search visible models.
    pub fn search(
        &self,
        token: Option<&Token>,
        query: &dlhub_search::Query,
    ) -> Vec<dlhub_search::SearchHit> {
        self.repo.search(token, query)
    }

    /// Describe a visible model.
    pub fn describe(
        &self,
        token: Option<&Token>,
        id: &str,
    ) -> Result<(ServableMetadata, u32, String), DlhubError> {
        self.repo.describe(token, id)
    }

    /// Globally enable/disable memoization (§V-B experiments toggle
    /// this).
    pub fn set_memoization(&self, enabled: bool) {
        self.memo_enabled.store(enabled, Ordering::Relaxed);
    }

    /// Memo-cache counters.
    pub fn memo_stats(&self) -> MemoStats {
        self.memo.stats()
    }

    /// Task Managers that have registered so far (§IV-B). Drains the
    /// registration topic on each call.
    pub fn task_managers(&self) -> Vec<TmRegistration> {
        // Drain outside any lock; only extend under the write lock
        // when something actually arrived, so concurrent callers that
        // find the topic empty share the read side.
        let mut fresh = Vec::new();
        while let Ok(Some(delivery)) = self.broker.try_recv(REGISTRATION_TOPIC) {
            if let Ok(reg) = serde_json::from_slice::<TmRegistration>(&delivery.message.payload) {
                fresh.push(reg);
            }
            delivery.ack();
        }
        if !fresh.is_empty() {
            self.registrations.write().extend(fresh);
        }
        self.registrations.read().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::AdmissionConfig;
    use crate::hub::TestHub;
    use crate::servable::servable_fn;
    use crate::servable::ModelType;
    use crate::task::TaskStatus;
    use dlhub_auth::IdentityId;
    use dlhub_obs::Telemetry;
    use dlhub_search::Query;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn run_noop_returns_hello_world_with_timings() {
        let hub = TestHub::builder().build();
        let result = hub
            .service
            .run(&hub.token, "dlhub/noop", Value::Null)
            .unwrap();
        assert_eq!(result.value, Value::Str("hello world".into()));
        assert!(result.timings.request >= result.timings.invocation);
        assert!(result.timings.invocation >= result.timings.inference);
        assert!(!result.timings.cache_hit);
    }

    #[test]
    fn memoization_hits_on_repeat_input() {
        let hub = TestHub::builder().memo(true).build();
        let input = Value::Str("NaCl".into());
        let first = hub
            .service
            .run(&hub.token, "dlhub/matminer-util", input.clone())
            .unwrap();
        let second = hub
            .service
            .run(&hub.token, "dlhub/matminer-util", input)
            .unwrap();
        assert!(!first.timings.cache_hit);
        assert!(second.timings.cache_hit);
        assert_eq!(first.value, second.value);
        assert_eq!(second.timings.inference, Duration::ZERO);
        assert!(second.timings.invocation < first.timings.invocation);
        let stats = hub.service.memo_stats();
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn memoization_respects_disable() {
        let hub = TestHub::builder().memo(false).build();
        let input = Value::Str("NaCl".into());
        for _ in 0..3 {
            let r = hub
                .service
                .run(&hub.token, "dlhub/matminer-util", input.clone())
                .unwrap();
            assert!(!r.timings.cache_hit);
        }
        assert_eq!(hub.service.memo_stats().hits, 0);
        // Per-request override wins over the global switch.
        let opts = RunOptions {
            memoize: Some(true),
            ..RunOptions::default()
        };
        hub.service
            .run_with_options(&hub.token, "dlhub/matminer-util", input.clone(), &opts)
            .unwrap();
        let hit = hub
            .service
            .run_with_options(&hub.token, "dlhub/matminer-util", input, &opts)
            .unwrap();
        assert!(hit.timings.cache_hit);
    }

    #[test]
    fn input_validation_rejects_type_mismatches() {
        let hub = TestHub::builder().build();
        let err = hub
            .service
            .run(&hub.token, "dlhub/matminer-util", Value::Int(3))
            .unwrap_err();
        assert!(matches!(err, DlhubError::InvalidInput { .. }));
    }

    #[test]
    fn rejected_requests_create_no_series() {
        let hub = TestHub::builder().build();
        let pipeline = Pipeline::new("ghosts", vec!["dlhub/noop".into()]);
        hub.service.register_pipeline(&hub.token, pipeline).unwrap();
        hub.service
            .run(&hub.token, "dlhub/noop", Value::Null)
            .unwrap();
        let metrics = &hub.service.obs().metrics;
        let before = metrics.servable_entries().len();
        // Caller-chosen ids must not become permanent registry keys.
        for i in 0..1000 {
            let err = hub
                .service
                .run(&hub.token, &format!("dlhub/ghost-{i}"), Value::Null)
                .unwrap_err();
            assert!(matches!(err, DlhubError::NotFound(_)), "{err:?}");
        }
        let bad = Token("not-a-token".into());
        for id in ["dlhub/noop", "dlhub/ghost-with-bad-token"] {
            assert!(hub.service.run(&bad, id, Value::Null).is_err());
            assert!(hub.service.run_async(&bad, id, Value::Null).is_err());
            assert!(hub.service.run_batch(&bad, id, vec![Value::Null]).is_err());
            // An empty batch is still a request: it is authorized.
            assert!(hub.service.run_batch(&bad, id, vec![]).is_err());
        }
        let err = hub
            .service
            .run_batch(&hub.token, "dlhub/ghost", vec![])
            .unwrap_err();
        assert!(matches!(err, DlhubError::NotFound(_)), "{err:?}");
        assert!(hub
            .service
            .run_pipeline(&bad, "ghosts", Value::Null)
            .is_err());
        let err = hub
            .service
            .run(&hub.token, "dlhub/matminer-util", Value::Int(3))
            .unwrap_err();
        assert!(matches!(err, DlhubError::InvalidInput { .. }));
        assert_eq!(metrics.servable_entries().len(), before);
        // One counter holds every refusal (the pipeline's bad token
        // fails authorization before any step is preflighted).
        assert_eq!(metrics.counter("requests_rejected_total").get(), 1010);
        // The request that was served is accounted as before.
        assert_eq!(metrics.series("dlhub/noop").requests.get(), 1);
        assert_eq!(metrics.series("dlhub/noop").errors.get(), 0);
    }

    #[test]
    fn run_batch_preserves_order_and_amortizes() {
        let hub = TestHub::builder().build();
        let inputs: Vec<Value> = ["NaCl", "SiO2", "Fe2O3"]
            .iter()
            .map(|s| Value::Str(s.to_string()))
            .collect();
        let (outputs, timings) = hub
            .service
            .run_batch(&hub.token, "dlhub/matminer-util", inputs)
            .unwrap();
        assert_eq!(outputs.len(), 3);
        match &outputs[1] {
            Value::Json(doc) => assert_eq!(doc["formula"], "SiO2"),
            other => panic!("unexpected {other}"),
        }
        assert!(timings.request >= timings.invocation);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let hub = TestHub::builder().build();
        let (outputs, timings) = hub
            .service
            .run_batch(&hub.token, "dlhub/noop", vec![])
            .unwrap();
        assert!(outputs.is_empty());
        assert_eq!(timings.request, Duration::ZERO);
    }

    #[test]
    fn auto_batcher_coalesces_concurrent_callers() {
        static DISPATCHES: AtomicUsize = AtomicUsize::new(0);
        let hub = TestHub::builder().build();
        // A servable that counts distinct executor dispatches by
        // observing batch boundaries is hard from outside; instead we
        // count executions and verify outputs are all correct while
        // the batcher window coalesces them into few tasks.
        let counted = servable_fn(|v| {
            DISPATCHES.fetch_add(1, Ordering::Relaxed);
            Ok(v.clone())
        });
        hub.publish_simple("echo", ModelType::PythonFunction, counted);
        let service = Arc::clone(&hub.service);
        let token = hub.token.clone();
        let handles: Vec<_> = (0..10)
            .map(|i| {
                let service = Arc::clone(&service);
                let token = token.clone();
                std::thread::spawn(move || {
                    service
                        .run_batched(&token, "dlhub/echo", Value::Int(i))
                        .unwrap()
                })
            })
            .collect();
        for (i, h) in handles.into_iter().enumerate() {
            // Order of thread starts is not the order of values; just
            // check each result is an Int we sent.
            match h.join().unwrap() {
                Value::Int(v) => assert!((0..10).contains(&v), "bad echo at {i}"),
                other => panic!("unexpected {other}"),
            }
        }
        assert_eq!(DISPATCHES.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn async_run_resolves_via_task_table() {
        let hub = TestHub::builder().build();
        let handle = hub
            .service
            .run_async(&hub.token, "dlhub/noop", Value::Null)
            .unwrap();
        let status = handle.wait(Duration::from_secs(5));
        assert_eq!(
            status,
            TaskStatus::Completed(Value::Str("hello world".into()))
        );
        // The service can be polled by UUID too.
        assert_eq!(
            hub.service.task_status(&handle.id).unwrap(),
            TaskStatus::Completed(Value::Str("hello world".into()))
        );
        assert!(matches!(
            hub.service.task_status("task-bogus"),
            Err(DlhubError::UnknownTask(_))
        ));
    }

    #[test]
    fn async_failure_is_captured() {
        let hub = TestHub::builder().build();
        hub.publish_simple(
            "boom",
            ModelType::PythonFunction,
            servable_fn(|_| Err("exploded".into())),
        );
        let handle = hub
            .service
            .run_async(&hub.token, "dlhub/boom", Value::Null)
            .unwrap();
        match handle.wait(Duration::from_secs(5)) {
            TaskStatus::Failed {
                attempts,
                last_error,
            } => {
                assert!(last_error.contains("exploded"));
                // Execution errors are not retried by default.
                assert_eq!(attempts, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn pipeline_runs_server_side() {
        let hub = TestHub::builder().build();
        let pipeline = Pipeline::new(
            "formation-enthalpy",
            vec![
                "dlhub/matminer-util".into(),
                "dlhub/matminer-featurize".into(),
                "dlhub/matminer-model".into(),
            ],
        );
        hub.service.register_pipeline(&hub.token, pipeline).unwrap();
        let (value, steps) = hub
            .service
            .run_pipeline(&hub.token, "formation-enthalpy", Value::Str("SiO2".into()))
            .unwrap();
        match value {
            Value::Float(v) => assert!(v.is_finite()),
            other => panic!("expected float, got {other}"),
        }
        assert_eq!(steps.len(), 3);
        assert_eq!(steps[0].servable, "dlhub/matminer-util");
        assert_eq!(hub.service.pipelines(), vec!["formation-enthalpy"]);
    }

    #[test]
    fn pipeline_registration_validates_steps() {
        let hub = TestHub::builder().build();
        let err = hub
            .service
            .register_pipeline(&hub.token, Pipeline::new("bad", vec!["dlhub/ghost".into()]))
            .unwrap_err();
        assert!(matches!(err, DlhubError::NotFound(_)));
        let err = hub
            .service
            .run_pipeline(&hub.token, "unregistered", Value::Null)
            .unwrap_err();
        assert!(matches!(err, DlhubError::Pipeline(_)));
    }

    #[test]
    fn search_through_service() {
        let hub = TestHub::builder().build();
        let hits = hub
            .service
            .search(Some(&hub.token), &Query::free_text("inception"));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, "dlhub/inception");
    }

    #[test]
    fn task_managers_are_visible() {
        let hub = TestHub::builder().build();
        let tms = hub.service.task_managers();
        assert_eq!(tms.len(), 1);
        assert!(tms[0].executors.contains(&"parsl".to_string()));
        // Idempotent: calling again keeps the cached registration.
        assert_eq!(hub.service.task_managers().len(), 1);
    }

    #[test]
    fn dispatch_cost_accumulates_from_real_traffic() {
        let hub = TestHub::builder()
            .without_eval_servables()
            .memo(false)
            .build();
        hub.publish_simple(
            "sleepy",
            ModelType::PythonFunction,
            servable_fn(|v| {
                std::thread::sleep(Duration::from_millis(8));
                Ok(v.clone())
            }),
        );
        for i in 0..6 {
            hub.service
                .run(&hub.token, "dlhub/sleepy", Value::Int(i))
                .unwrap();
        }
        let series = hub.service.obs().metrics.series("dlhub/sleepy");
        let cost = series.dispatch.cost().unwrap();
        assert_eq!(cost.dispatches, 6);
        assert_eq!(cost.items, 6);
        assert!(
            cost.inference() >= Duration::from_millis(7),
            "inference {:?}",
            cost.inference()
        );
        // Overhead (invocation − inference) is small in-process.
        assert!(cost.overhead() < cost.inference());
        assert!(cost.overhead_floor() <= cost.overhead());
    }

    #[test]
    fn reconciler_closes_the_loop_over_live_costs() {
        let hub = TestHub::builder()
            .without_eval_servables()
            .memo(false)
            .config(ServingConfig {
                autoscale: Some(ControlPolicy::default()),
                ..ServingConfig::default()
            })
            .obs(Obs::with_telemetry(Telemetry::Stepped(
                Duration::from_secs(1),
            )))
            .build();
        hub.publish_simple(
            "heavy",
            ModelType::PythonFunction,
            servable_fn(|v| {
                std::thread::sleep(Duration::from_millis(10));
                Ok(v.clone())
            }),
        );
        // The cost comes from real dispatches; the arrivals are
        // scripted onto a virtual clock (200 req/s for two seconds).
        for i in 0..8 {
            hub.service
                .run(&hub.token, "dlhub/heavy", Value::Int(i))
                .unwrap();
        }
        let before = hub.parsl.replicas("dlhub/heavy");
        let series = hub.service.obs().metrics.series("dlhub/heavy");
        for s in 1..=3u64 {
            series.requests.add(200);
            hub.service.obs().telemetry.sample_now(s * 1_000_000_000);
        }
        let decisions = hub.service.reconcile_at(3_000_000_000);
        // 200 req/s × ≥10 ms is at least two busy replicas, and a 10 ms
        // servable behind µs-scale in-process dispatch has a knee far
        // past the budget: the decision must reflect the observed cost.
        assert_eq!(decisions.len(), 1);
        assert!(decisions[0].to >= 4 && decisions[0].to > before);
        assert_eq!(hub.parsl.replicas("dlhub/heavy"), decisions[0].to);
    }

    #[test]
    fn adaptive_batching_config_is_honored() {
        let hub = TestHub::builder()
            .without_eval_servables()
            .memo(false)
            .config(ServingConfig {
                adaptive_batching: true,
                batch_delay: Duration::from_millis(10),
                ..ServingConfig::default()
            })
            .build();
        hub.publish_simple(
            "echo",
            ModelType::PythonFunction,
            servable_fn(|v| Ok(v.clone())),
        );
        // Seed the profile, then a burst must still return correct
        // per-caller results under adaptive sizing.
        let service = Arc::clone(&hub.service);
        service
            .run_batched(&hub.token, "dlhub/echo", Value::Int(-1))
            .unwrap();
        let handles: Vec<_> = (0..12)
            .map(|i| {
                let service = Arc::clone(&service);
                let token = hub.token.clone();
                std::thread::spawn(move || {
                    service
                        .run_batched(&token, "dlhub/echo", Value::Int(i))
                        .unwrap()
                })
            })
            .collect();
        let mut got: Vec<i64> = handles
            .into_iter()
            .map(|h| match h.join().unwrap() {
                Value::Int(i) => i,
                other => panic!("unexpected {other}"),
            })
            .collect();
        got.sort_unstable();
        assert_eq!(got, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn async_burst_is_bounded_by_the_worker_pool() {
        static LIVE: AtomicUsize = AtomicUsize::new(0);
        static PEAK: AtomicUsize = AtomicUsize::new(0);
        let hub = TestHub::builder()
            .without_eval_servables()
            .memo(false)
            .replicas(8)
            .consumers(8)
            .build();
        hub.publish_simple(
            "gauge",
            ModelType::PythonFunction,
            servable_fn(|v| {
                let live = LIVE.fetch_add(1, Ordering::SeqCst) + 1;
                PEAK.fetch_max(live, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(20));
                LIVE.fetch_sub(1, Ordering::SeqCst);
                Ok(v.clone())
            }),
        );
        let handles: Vec<_> = (0..12)
            .map(|i| {
                hub.service
                    .run_async(&hub.token, "dlhub/gauge", Value::Int(i))
                    .unwrap()
            })
            .collect();
        for h in handles {
            match h.wait(Duration::from_secs(10)) {
                TaskStatus::Completed(Value::Int(_)) => {}
                other => panic!("unexpected {other:?}"),
            }
        }
        // Executors and consumers have spare capacity (8 each), so the
        // only thing limiting concurrency is the async worker pool.
        let peak = PEAK.load(Ordering::SeqCst);
        assert!(
            peak <= ASYNC_WORKERS,
            "pool leaked concurrency: peak {peak} > {ASYNC_WORKERS} workers"
        );
        assert!(peak >= 1);
    }

    #[test]
    fn memo_stats_stay_readable_during_a_run_storm() {
        let hub = TestHub::builder().memo(true).build();
        let service = Arc::clone(&hub.service);
        let token = hub.token.clone();
        let per_writer = 100i64;
        let writers: Vec<_> = (0..3)
            .map(|t| {
                let service = Arc::clone(&service);
                let token = token.clone();
                std::thread::spawn(move || {
                    for i in 0..per_writer {
                        // Distinct inputs: every request is a miss
                        // followed by a put, hammering the cache's
                        // write side.
                        let input = Value::Str(format!("Na{}Cl{}", t + 1, i + 1));
                        service.run(&token, "dlhub/matminer-util", input).unwrap();
                    }
                })
            })
            .collect();
        // Metric reads must make progress (lock-free counters) while
        // the put storm runs; totals can only grow.
        let mut last = 0u64;
        while last < 3 * per_writer as u64 {
            let s = service.memo_stats();
            let total = s.hits + s.misses;
            assert!(total >= last, "memo counters went backwards");
            last = total;
        }
        for w in writers {
            w.join().unwrap();
        }
        assert!(service.memo_stats().misses >= 3 * per_writer as u64);
    }

    #[test]
    fn forgotten_tasks_report_expired_not_unknown() {
        let hub = TestHub::builder().build();
        let handle = hub
            .service
            .run_async(&hub.token, "dlhub/noop", Value::Null)
            .unwrap();
        handle.wait(Duration::from_secs(5));
        hub.service.forget_task(&handle.id);
        assert!(matches!(
            hub.service.task_status(&handle.id),
            Err(DlhubError::ExpiredTask(_))
        ));
        assert!(matches!(
            hub.service.task_status("task-bogus"),
            Err(DlhubError::UnknownTask(_))
        ));
    }

    #[test]
    fn run_produces_a_trace_spanning_all_three_tiers() {
        let hub = TestHub::builder().memo(false).build();
        let result = hub
            .service
            .run(&hub.token, "dlhub/noop", Value::Null)
            .unwrap();
        assert!(result.trace > 0);
        let export = hub.service.obs().tracer.export(Some(result.trace));
        let request = export.named("request");
        assert_eq!(request.len(), 1);
        assert_eq!(request[0].parent, 0);
        assert_eq!(request[0].attr("servable"), Some("dlhub/noop"));
        assert_eq!(request[0].attr("cache_hit"), Some("false"));
        let invocation = export.named("invocation");
        assert_eq!(invocation.len(), 1);
        assert_eq!(invocation[0].parent, request[0].span);
        let inference = export.named("inference");
        assert_eq!(inference.len(), 1);
        assert_eq!(inference[0].parent, invocation[0].span);
        // The tiers nest: each inner span is no longer than its parent.
        assert!(inference[0].duration() <= invocation[0].duration());
        assert!(invocation[0].duration() <= request[0].duration());
    }

    #[test]
    fn cache_hits_are_traced_and_counted() {
        let hub = TestHub::builder().memo(true).build();
        let input = Value::Str("NaCl".into());
        hub.service
            .run(&hub.token, "dlhub/matminer-util", input.clone())
            .unwrap();
        let hit = hub
            .service
            .run(&hub.token, "dlhub/matminer-util", input)
            .unwrap();
        let export = hub.service.obs().tracer.export(Some(hit.trace));
        let request = export.named("request");
        assert_eq!(request.len(), 1);
        assert_eq!(request[0].attr("cache_hit"), Some("true"));
        // A hit never reaches the Task Manager: no deeper spans.
        assert!(export.named("invocation").is_empty());
        let snap = hub.service.obs().snapshot();
        let (_, series) = snap
            .servables
            .iter()
            .find(|(s, _)| s == "dlhub/matminer-util")
            .expect("series recorded");
        assert_eq!(series.requests, 2);
        assert_eq!(series.cache_hits, 1);
        // Registry counters from the attached memo cache agree with
        // the cache's own stats.
        let stats = hub.service.memo_stats();
        let counter = |name: &str| {
            snap.counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or(0)
        };
        assert_eq!(counter("memo_hits_total"), stats.hits);
        assert_eq!(counter("memo_misses_total"), stats.misses);
    }

    #[test]
    fn snapshot_renders_prometheus_with_servable_series() {
        let hub = TestHub::builder().memo(false).build();
        hub.service
            .run(&hub.token, "dlhub/noop", Value::Null)
            .unwrap();
        let prom = hub.service.obs().snapshot().render_prometheus();
        assert!(prom.contains("dlhub_servable_requests_total{servable=\"dlhub/noop\"} 1"));
        assert!(prom.contains("dlhub_servable_request_latency_seconds{servable=\"dlhub/noop\""));
        assert!(prom.contains("dlhub_broker_send_total"));
        assert!(prom.contains(
            "# HELP dlhub_broker_dropped_total Sends and replies discarded by fault injection\n"
        ));
        assert!(prom.contains("dlhub_tm_tasks_total 1"));
    }

    #[test]
    fn failed_requests_are_counted_and_annotated() {
        let hub = TestHub::builder().without_eval_servables().build();
        hub.publish_simple(
            "boom",
            ModelType::PythonFunction,
            servable_fn(|_| Err("exploded".into())),
        );
        let err = hub
            .service
            .run(&hub.token, "dlhub/boom", Value::Null)
            .unwrap_err();
        assert!(matches!(err, DlhubError::Execution { .. }));
        let snap = hub.service.obs().snapshot();
        let (_, series) = snap
            .servables
            .iter()
            .find(|(s, _)| s == "dlhub/boom")
            .expect("series recorded");
        assert_eq!(series.errors, 1);
        let export = hub.service.obs().tracer.export(None);
        let request = export.named("request");
        assert_eq!(request.len(), 1);
        assert!(request[0].attr("error").is_some());
    }

    #[test]
    fn traced_pipeline_nests_steps_under_one_root() {
        let hub = TestHub::builder().memo(false).build();
        let pipeline = Pipeline::new(
            "formation-enthalpy",
            vec![
                "dlhub/matminer-util".into(),
                "dlhub/matminer-featurize".into(),
                "dlhub/matminer-model".into(),
            ],
        );
        hub.service.register_pipeline(&hub.token, pipeline).unwrap();
        let (_, steps, trace) = hub
            .service
            .run_pipeline_traced(&hub.token, "formation-enthalpy", Value::Str("SiO2".into()))
            .unwrap();
        assert_eq!(steps.len(), 3);
        let export = hub.service.obs().tracer.export(Some(trace));
        let roots = export.named("pipeline");
        assert_eq!(roots.len(), 1);
        let requests = export.named("request");
        assert_eq!(requests.len(), 3);
        assert!(requests.iter().all(|r| r.parent == roots[0].span));
    }

    #[test]
    fn memo_lookups_are_traced_as_their_own_stage() {
        let hub = TestHub::builder().memo(true).build();
        let input = Value::Str("NaCl".into());
        let miss = hub
            .service
            .run(&hub.token, "dlhub/matminer-util", input.clone())
            .unwrap();
        let hit = hub
            .service
            .run(&hub.token, "dlhub/matminer-util", input)
            .unwrap();
        let lookups = hub.service.obs().tracer.export(Some(miss.trace));
        let lookups = lookups.named("memo_lookup");
        assert_eq!(lookups.len(), 1);
        assert_eq!(lookups[0].attr("hit"), Some("false"));
        let export = hub.service.obs().tracer.export(Some(hit.trace));
        let lookups = export.named("memo_lookup");
        assert_eq!(lookups.len(), 1);
        assert_eq!(lookups[0].attr("hit"), Some("true"));
    }

    #[test]
    fn configured_slos_surface_in_snapshot_and_prometheus() {
        let hub = TestHub::builder()
            .memo(false)
            .slo(dlhub_obs::SloSpec::new(
                "dlhub/noop",
                Duration::from_secs(5),
            ))
            .build();
        hub.service
            .run(&hub.token, "dlhub/noop", Value::Null)
            .unwrap();
        let snap = hub.service.obs().snapshot();
        assert_eq!(snap.slos.len(), 1);
        let slo = &snap.slos[0];
        assert_eq!(slo.servable, "dlhub/noop");
        assert_eq!(slo.observed, 1);
        assert!(!slo.firing);
        let prom = hub.service.obs().snapshot().render_prometheus();
        assert!(prom.contains("dlhub_slo_firing{servable=\"dlhub/noop\"} 0"));
        assert!(prom.contains("dlhub_slo_burn_rate{servable=\"dlhub/noop\""));
    }

    #[test]
    fn analyze_trace_partitions_a_real_request_exactly() {
        let hub = TestHub::builder().memo(false).build();
        let result = hub
            .service
            .run(&hub.token, "dlhub/noop", Value::Null)
            .unwrap();
        let analysis = hub.service.obs().analyze(result.trace).expect("analysis");
        assert!(analysis.complete);
        assert_eq!(analysis.kind, "request");
        assert_eq!(analysis.stage_sum(), analysis.total_ns);
        assert!(hub.service.obs().analyze(0xdead_beef).is_none());
    }

    #[test]
    fn metrics_delta_partitions_the_counter_history() {
        let hub = TestHub::builder().memo(false).build();
        hub.service
            .run(&hub.token, "dlhub/noop", Value::Null)
            .unwrap();
        let counter = |snap: &dlhub_obs::MetricsSnapshot, name: &str| {
            snap.counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or(0)
        };
        let first = hub.service.obs().delta();
        assert_eq!(counter(&first, "tm_tasks_total"), 1);
        // Nothing happened since: the next window is empty.
        let quiet = hub.service.obs().delta();
        assert_eq!(counter(&quiet, "tm_tasks_total"), 0);
        hub.service
            .run(&hub.token, "dlhub/noop", Value::Null)
            .unwrap();
        hub.service
            .run(&hub.token, "dlhub/noop", Value::Null)
            .unwrap();
        // The delta reports only the new window, not the running total.
        let next = hub.service.obs().delta();
        assert_eq!(counter(&next, "tm_tasks_total"), 2);
    }

    #[test]
    fn republish_invalidates_memo() {
        let hub = TestHub::builder().memo(true).build();
        hub.publish_simple(
            "v",
            ModelType::PythonFunction,
            servable_fn(|_| Ok(Value::Int(1))),
        );
        let r1 = hub.service.run(&hub.token, "dlhub/v", Value::Null).unwrap();
        assert_eq!(r1.value, Value::Int(1));
        hub.publish_simple(
            "v",
            ModelType::PythonFunction,
            servable_fn(|_| Ok(Value::Int(2))),
        );
        let r2 = hub.service.run(&hub.token, "dlhub/v", Value::Null).unwrap();
        assert_eq!(r2.value, Value::Int(2), "stale memo entry served");
    }

    #[test]
    fn a_request_in_flight_across_a_republish_does_not_memoize_the_old_output() {
        let hub = TestHub::builder().memo(true).build();
        let (entered_tx, entered) = std::sync::mpsc::channel();
        let (release, release_rx) = std::sync::mpsc::channel::<()>();
        let release_rx = parking_lot::Mutex::new(release_rx);
        hub.publish_simple(
            "v",
            ModelType::PythonFunction,
            servable_fn(move |_| {
                // Park inside v1 until the test has republished.
                entered_tx.send(()).ok();
                release_rx.lock().recv().ok();
                Ok(Value::Int(1))
            }),
        );
        std::thread::scope(|s| {
            let v1 = s.spawn(|| hub.service.run(&hub.token, "dlhub/v", Value::Null));
            entered.recv().unwrap();
            hub.publish_simple(
                "v",
                ModelType::PythonFunction,
                servable_fn(|_| Ok(Value::Int(2))),
            );
            release.send(()).unwrap();
            // The request that was already running v1 gets v1's answer…
            assert_eq!(v1.join().unwrap().unwrap().value, Value::Int(1));
        });
        // …but must not leave it behind the invalidation for v2's callers.
        let r2 = hub.service.run(&hub.token, "dlhub/v", Value::Null).unwrap();
        assert_eq!(r2.value, Value::Int(2), "v1's output memoized for v2");
        assert!(!r2.timings.cache_hit);
    }

    #[test]
    fn a_service_that_auto_batched_is_dropped_with_its_hub() {
        let hub = TestHub::builder().build();
        hub.service
            .run_batched(&hub.token, "dlhub/noop", Value::Null)
            .unwrap();
        let service = Arc::downgrade(&hub.service);
        drop(hub);
        // The flush closure stored in the service's own batcher map
        // must not keep the service (and its threads) alive.
        assert!(service.upgrade().is_none());
    }

    /// One way into the Management Service, as the ledger test sees it.
    struct EntryPoint {
        name: &'static str,
        /// Send one request carrying `input` and wait for its answer.
        drive: fn(&TestHub, Value) -> Result<(), DlhubError>,
        /// Name of the root span one call leaves behind.
        root: &'static str,
        /// Frames one successful call opens (a pipeline: one per step).
        frames_per_call: u64,
        /// Inputs each frame carries.
        inputs_per_frame: u64,
        /// Whether a shed call had a frame to close. The one exception
        /// is an auto-batch submitter, shed before it joins a batch.
        shed_has_frame: bool,
    }

    const LEDGER_ID: &str = "dlhub/flaky";

    fn entry_points() -> Vec<EntryPoint> {
        vec![
            EntryPoint {
                name: "run",
                drive: |hub, input| hub.service.run(&hub.token, LEDGER_ID, input).map(drop),
                root: "request",
                frames_per_call: 1,
                inputs_per_frame: 1,
                shed_has_frame: true,
            },
            EntryPoint {
                name: "run_batch",
                drive: |hub, input| {
                    let inputs = vec![Value::Int(0), input, Value::Int(0)];
                    hub.service
                        .run_batch(&hub.token, LEDGER_ID, inputs)
                        .map(drop)
                },
                root: "request",
                frames_per_call: 1,
                inputs_per_frame: 3,
                shed_has_frame: true,
            },
            EntryPoint {
                name: "run_batched",
                drive: |hub, input| {
                    hub.service
                        .run_batched(&hub.token, LEDGER_ID, input)
                        .map(drop)
                },
                root: "batch_flush",
                frames_per_call: 1,
                inputs_per_frame: 1,
                shed_has_frame: false,
            },
            EntryPoint {
                name: "run_async",
                drive: |hub, input| {
                    let handle = hub.service.run_async(&hub.token, LEDGER_ID, input)?;
                    match handle.wait(Duration::from_secs(10)) {
                        TaskStatus::Completed(_) => Ok(()),
                        TaskStatus::Failed { last_error, .. } => Err(DlhubError::Execution {
                            servable: LEDGER_ID.into(),
                            message: last_error,
                        }),
                        other => panic!("async task did not finish: {other:?}"),
                    }
                },
                root: "request",
                frames_per_call: 1,
                inputs_per_frame: 1,
                shed_has_frame: true,
            },
            EntryPoint {
                name: "run_pipeline",
                drive: |hub, input| {
                    hub.service
                        .run_pipeline(&hub.token, "two-steps", input)
                        .map(drop)
                },
                root: "pipeline",
                frames_per_call: 2,
                inputs_per_frame: 1,
                shed_has_frame: true,
            },
        ]
    }

    /// What `scripts/ci.sh` used to check on the hotpath artifact with
    /// inline Python: properties of what a request frame records, read
    /// from the exported snapshot after clean traffic only.
    fn assert_clean_run_snapshot(hub: &TestHub) {
        let doc = hub.service.obs().snapshot().to_json();
        assert!(doc.get("spans_dropped").is_some());
        let find = |list: &str| {
            doc[list]
                .as_array()
                .and_then(|l| l.iter().find(|e| e["servable"] == LEDGER_ID))
                .unwrap_or_else(|| panic!("no {LEDGER_ID} entry under {list}"))
                .clone()
        };
        let series = find("servables");
        assert!(series["requests"].as_u64() > Some(0));
        assert!(series["request_latency_ns"]["count"].as_u64() > Some(0));
        let buckets = series["request_latency_buckets"].as_array().unwrap();
        assert!(buckets.iter().any(|b| b["count"].as_u64() > Some(0)));
        assert!(buckets
            .iter()
            .any(|b| b["exemplars"].as_array().is_some_and(|e| !e.is_empty())));
        let slo = find("slos");
        assert!(slo["observed"].as_u64() > Some(0));
        assert_eq!(slo["alerts_fired"].as_u64(), Some(0));
    }

    #[test]
    fn every_entry_point_keeps_the_same_ledger() {
        const SUCCESSES: u64 = 3;
        const CAP: usize = 2;
        for entry in entry_points() {
            let name = entry.name;
            let hub = TestHub::builder()
                .without_eval_servables()
                .memo(false)
                .config(ServingConfig {
                    // Sheds at the hard cap only: fairness never engages.
                    admission: Some(AdmissionConfig {
                        max_inflight: CAP,
                        fair_share_at: 1.0,
                        ..AdmissionConfig::default()
                    }),
                    ..ServingConfig::default()
                })
                .slo(SloSpec::new(LEDGER_ID, Duration::from_secs(5)))
                .slo(SloSpec::new("dlhub/relay", Duration::from_secs(5)))
                .build();
            // `relay` only ever runs as the pipeline's second step (a
            // pipeline may not repeat a step), so the ledger below is
            // summed over both series and both SLOs.
            for servable in ["flaky", "relay"] {
                hub.publish_simple(
                    servable,
                    ModelType::PythonFunction,
                    servable_fn(|v| match v {
                        Value::Int(-1) => Err("exploded".into()),
                        v => Ok(v.clone()),
                    }),
                );
            }
            let two_steps =
                Pipeline::new("two-steps", vec![LEDGER_ID.into(), "dlhub/relay".into()]);
            hub.service
                .register_pipeline(&hub.token, two_steps)
                .unwrap();
            let obs = hub.service.obs();
            let admission = hub.service.admission().expect("admission configured");

            for i in 0..SUCCESSES {
                (entry.drive)(&hub, Value::Int(i as i64)).unwrap();
            }
            if name == "run" {
                assert_clean_run_snapshot(&hub);
            }
            // One servable failure…
            let err = (entry.drive)(&hub, Value::Int(-1)).unwrap_err();
            assert!(
                matches!(err, DlhubError::Execution { .. }),
                "{name}: {err:?}"
            );
            // …and one shed: every slot is taken when the call arrives.
            let held: Vec<_> = (0..CAP)
                .map(|_| admission.admit(IdentityId(u64::MAX), false).unwrap())
                .collect();
            let err = (entry.drive)(&hub, Value::Int(7)).unwrap_err();
            assert!(
                matches!(err, DlhubError::Overloaded { .. }),
                "{name}: {err:?}"
            );
            drop(held);

            let ok_frames = SUCCESSES * entry.frames_per_call;
            let shed_frames = u64::from(entry.shed_has_frame);
            let frames = ok_frames + 1 + shed_frames;
            // Requests and errors are counted in inputs, and every
            // request is either a success or an error.
            let snap = obs.snapshot();
            let total = |field: fn(&dlhub_obs::ServableSnapshot) -> u64| -> u64 {
                snap.servables.iter().map(|(_, s)| field(s)).sum()
            };
            let errors = (1 + shed_frames) * entry.inputs_per_frame;
            assert_eq!(total(|s| s.errors), errors, "{name}");
            assert_eq!(
                total(|s| s.requests),
                ok_frames * entry.inputs_per_frame + errors,
                "{name}"
            );
            // A frame that closes `Ok` records its latency; every frame
            // that closes, however it closes, reaches the SLO tracker.
            assert_eq!(total(|s| s.request_latency.count), ok_frames, "{name}");
            let observed: u64 = snap.slos.iter().map(|s| s.observed).sum();
            assert_eq!(observed, frames, "{name}");
            let shed = snap
                .counters
                .iter()
                .find(|(n, _)| n == "requests_shed_total");
            assert_eq!(shed.map(|(_, v)| *v), Some(1), "{name}");
            // One span per frame, one root per call that opened one…
            let export = obs.tracer.export(None);
            let frame_spans = export.named("request").len() + export.named("batch_flush").len();
            assert_eq!(frame_spans as u64, frames, "{name}");
            // (Trace 0 holds free-standing events: the SLO alert the
            // two bad observations raise.)
            let roots: Vec<_> = export
                .spans
                .iter()
                .filter(|s| s.parent == 0 && s.trace != 0)
                .collect();
            assert_eq!(roots.len() as u64, SUCCESSES + 1 + shed_frames, "{name}");
            assert!(roots.iter().all(|s| s.name == entry.root), "{name}");
            // …and every trace, failed and shed ones included, is
            // whole and partitions exactly into stages.
            for trace in export.trace_ids().into_iter().filter(|t| *t != 0) {
                let analysis = obs.analyze(trace).expect("analysis");
                assert!(analysis.complete, "{name}: trace {trace:x}");
                assert_eq!(analysis.kind, entry.root, "{name}");
                assert_eq!(analysis.stage_sum(), analysis.total_ns, "{name}");
            }
            assert_eq!(admission.inflight(), 0, "{name}");
        }
    }
}
