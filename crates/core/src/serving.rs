//! The Management Service (§IV-A): the user-facing interface to DLHub.
//!
//! "It enables users to publish models, query available models,
//! execute tasks (e.g., inference), construct pipelines, and monitor
//! the status of tasks. The Management Service includes advanced
//! functionality to … optimize task performance, route workloads to
//! suitable executors, batch tasks, and cache results."

use crate::admission::{AdmissionConfig, AdmissionController, AdmissionPermit};
use crate::autoscale::{ControlDecision, ControlPolicy, Reconciler};
use crate::batch::{BatchSizing, Batcher};
use crate::error::DlhubError;
use crate::executor::ParslExecutor;
use crate::memo::{MemoCache, MemoKey, MemoStats};
use crate::metrics::Timings;
use crate::pipeline::{Pipeline, StepTiming};
use crate::repository::{PublishReceipt, PublishVisibility, Repository, SERVE_SCOPE};
use crate::servable::{Servable, ServableMetadata};
use crate::task::{next_task_id, TaskHandle, TaskRequest, TaskResponse, TaskStatus, TaskTable};
use crate::task_manager::{TmRegistration, REGISTRATION_TOPIC};
use crate::value::Value;
use crossbeam::channel;
use dlhub_auth::{IdentityId, Scope, Token};
use dlhub_fault::{site, FaultHandle};
use dlhub_obs::{Gauge, Obs, ServableSeries, SloSpec, SpanHandle, TraceContext};
use dlhub_queue::{Broker, RpcClient};
use parking_lot::RwLock;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

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
    /// Fault-injection schedule consulted at the Management Service's
    /// sites (memo lookup/insert, batch flush). Disabled by default.
    pub faults: FaultHandle,
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
    /// Threads in the service-owned worker pool that runs
    /// [`ManagementService::run_async`] dispatches. The pool bounds
    /// concurrent async work; 0 is treated as 1.
    pub async_workers: usize,
    /// Service-level objectives registered at construction. Each spec
    /// names a servable and a latency threshold; burn rates and alert
    /// state surface in [`dlhub_obs::MetricsSnapshot`] (`slos`), the
    /// Prometheus exposition, and `slo_alert` trace events.
    pub slos: Vec<SloSpec>,
    /// Continuous-profiler sampling rate in Hz. 0 (the default) leaves
    /// the profiler disabled: hot-path frame marks stay a single
    /// relaxed atomic load and no sampler thread is spawned.
    pub profile_hz: u32,
    /// Flight-recorder bundle capacity. 0 (the default) leaves the
    /// recorder disabled; otherwise an SLO firing transition or a
    /// terminal task failure freezes a diagnostic bundle (profile
    /// slice, contention table, recent traces, metrics delta) into a
    /// ring of this many bundles.
    pub recorder_capacity: usize,
    /// Telemetry-collector sampling interval. Zero (the default)
    /// leaves the time-series store disabled; otherwise a
    /// `dlhub-telemetry` thread samples every registered metric and
    /// SLO burn rate into ring-buffered multi-resolution history
    /// (`dlhub top`, `ControlSignals`, bench time axes).
    pub telemetry_interval: Duration,
    /// Closed-loop autoscaling policy. `None` (the default) leaves the
    /// reconciler off; `Some` arms it once
    /// [`ManagementService::attach_autoscaler`] wires the executor.
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
            faults: FaultHandle::default(),
            memo_capacity: 64 * 1024 * 1024,
            memo_enabled: true,
            batch_max: 32,
            batch_delay: Duration::from_millis(5),
            adaptive_batching: false,
            async_workers: 4,
            slos: Vec::new(),
            profile_hz: 0,
            recorder_capacity: 0,
            telemetry_interval: Duration::ZERO,
            autoscale: None,
            autoscale_interval: Duration::ZERO,
            admission: None,
        }
    }
}

type Job = Box<dyn FnOnce() + Send>;

/// A fixed-size worker pool behind one unbounded channel, replacing
/// the thread-per-request dispatch of async runs. Dropping the pool
/// drops the sender; `recv` hands out every queued job before it
/// reports the disconnect, so no accepted request is dropped.
struct AsyncPool {
    jobs: Option<channel::Sender<Job>>,
    /// Jobs waiting in the channel.
    depth: Arc<Gauge>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl AsyncPool {
    /// `active` counts workers currently running a job (pool
    /// occupancy).
    fn new(workers: usize, depth: Arc<Gauge>, active: Arc<Gauge>) -> Self {
        let (jobs, queue) = channel::unbounded::<Job>();
        let workers = (0..workers.max(1))
            .map(|i| {
                let queue = queue.clone();
                let depth = Arc::clone(&depth);
                let active = Arc::clone(&active);
                std::thread::Builder::new()
                    .name(format!("dlhub-async-{i}"))
                    .spawn(move || {
                        while let Ok(job) = queue.recv() {
                            depth.add(-1);
                            active.add(1);
                            job();
                            active.add(-1);
                        }
                    })
                    .expect("spawn async pool worker")
            })
            .collect();
        AsyncPool {
            jobs: Some(jobs),
            depth,
            workers,
        }
    }

    fn submit(&self, job: Job) {
        if let Some(jobs) = &self.jobs {
            self.depth.add(1);
            // Workers outlive the sender, so the send cannot fail.
            let _ = jobs.send(job);
        }
    }
}

impl Drop for AsyncPool {
    fn drop(&mut self) {
        self.jobs = None;
        // The last Arc<ManagementService> can be dropped from inside a
        // pool job, making a worker run this destructor: it must not
        // join itself.
        let current = std::thread::current().id();
        for worker in self.workers.drain(..) {
            if worker.thread().id() != current {
                let _ = worker.join();
            }
        }
    }
}

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

/// One open request at the Management Service: its span, the
/// servable's series, the admission permit and the clock it is timed
/// against. [`ManagementService::open_frame`] is the only constructor
/// and [`ManagementService::close_frame`] the only consumer, so what a
/// request records is decided in those two functions and every entry
/// point keeps only what is its own.
struct RequestFrame {
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
    /// The autoscaling actuator, armed by [`Self::attach_autoscaler`].
    reconciler: OnceLock<Arc<Reconciler>>,
    obs: Obs,
}

impl ManagementService {
    /// Wire a Management Service to a repository and broker, with a
    /// fresh observability layer.
    pub fn new(repo: Arc<Repository>, broker: &Broker, config: ServingConfig) -> Arc<Self> {
        ManagementService::with_obs(repo, broker, config, Obs::new())
    }

    /// Wire a Management Service around an existing [`Obs`] handle, so
    /// the Task Managers and broker of the same deployment can share
    /// one tracer and one metrics registry (trace trees then span all
    /// tiers).
    pub fn with_obs(
        repo: Arc<Repository>,
        broker: &Broker,
        config: ServingConfig,
        obs: Obs,
    ) -> Arc<Self> {
        broker.ensure_topic(&config.task_topic);
        broker.ensure_topic(REGISTRATION_TOPIC);
        // Enable the observability extras before the SLO trackers and
        // RPC client are built, so the recorder sees every firing and
        // the client's contention site exists from the first dispatch.
        if config.profile_hz > 0 {
            obs.enable_profiler(config.profile_hz);
        }
        if config.recorder_capacity > 0 {
            obs.enable_recorder(config.recorder_capacity);
        }
        if !config.telemetry_interval.is_zero() {
            obs.enable_telemetry(config.telemetry_interval);
        }
        // Descriptions for counters whose increment sites are hot paths
        // (retry loop, Task Manager dispatch) — registered once here so
        // `# HELP` lines render without touching those paths.
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
        obs.metrics
            .describe("tm_tasks_total", "Tasks executed by Task Managers");
        obs.metrics.describe(
            "tm_crashes_injected_total",
            "Task Manager crashes injected by the fault schedule",
        );
        for spec in &config.slos {
            obs.register_slo(spec.clone());
        }
        let rpc = RpcClient::connect(broker, &config.task_topic);
        rpc.attach_obs(&obs);
        broker.attach_obs(&obs);
        let admission = config.admission.clone().map(|cfg| {
            Arc::new(AdmissionController::new(cfg).with_observability(
                obs.metrics.counter_with_help(
                    "requests_shed_total",
                    "Requests shed by the admission controller before dispatch",
                ),
                obs.metrics.counter_with_help(
                    "requests_admitted_total",
                    "Requests admitted past the admission controller",
                ),
                obs.recorder.clone(),
            ))
        });
        Arc::new(ManagementService {
            rpc,
            memo: MemoCache::new(config.memo_capacity)
                .attach_obs(&obs)
                .attach_faults(config.faults.clone()),
            memo_enabled: AtomicBool::new(config.memo_enabled),
            task_table: TaskTable::new(),
            pipelines: RwLock::new(HashMap::new()),
            batchers: RwLock::new(HashMap::new()),
            registrations: RwLock::new(Vec::new()),
            async_pool: AsyncPool::new(
                config.async_workers,
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
            reconciler: OnceLock::new(),
            obs,
        })
    }

    /// The service's observability handles (tracer + metrics registry).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Arm the autoscaling reconciler over `executor`'s replica pools.
    /// Returns `false` (and does nothing) while
    /// [`ServingConfig::autoscale`] is unset; first attach wins. With a
    /// non-zero [`ServingConfig::autoscale_interval`] a
    /// `dlhub-reconciler` thread drives passes on the wall clock,
    /// holding only a `Weak` so it exits once the service drops; with a
    /// zero interval the embedder drives [`Self::reconcile_at`] on a
    /// clock of its choosing (the sim harness uses its virtual clock,
    /// which is what makes seeded decision logs byte-identical).
    pub fn attach_autoscaler(&self, executor: Arc<ParslExecutor>) -> bool {
        let Some(policy) = self.config.autoscale.clone() else {
            return false;
        };
        let mut created = false;
        let reconciler = self.reconciler.get_or_init(|| {
            created = true;
            Arc::new(Reconciler::new(executor, policy).with_counter(
                self.obs.metrics.counter_with_help(
                    "autoscale_decisions_total",
                    "Scaling decisions applied by the control loop",
                ),
            ))
        });
        if created && !self.config.autoscale_interval.is_zero() {
            let weak = Arc::downgrade(reconciler);
            let telemetry = self.obs.telemetry.clone();
            let interval = self.config.autoscale_interval;
            std::thread::Builder::new()
                .name("dlhub-reconciler".into())
                .spawn(move || loop {
                    std::thread::sleep(interval);
                    match weak.upgrade() {
                        Some(reconciler) => {
                            if let Some(signals) = telemetry.signals() {
                                reconciler.reconcile_at(dlhub_obs::now_ns(), &signals);
                            }
                        }
                        None => break,
                    }
                })
                .expect("spawn reconciler thread");
        }
        created
    }

    /// The attached reconciler (decision log, policy), or `None` before
    /// [`Self::attach_autoscaler`].
    pub fn reconciler(&self) -> Option<Arc<Reconciler>> {
        self.reconciler.get().cloned()
    }

    /// One manual reconcile pass at (virtual) time `now_ns`, reading
    /// the telemetry store's control signals. Returns the decisions
    /// applied; empty while the reconciler or telemetry is unarmed.
    pub fn reconcile_at(&self, now_ns: u64) -> Vec<ControlDecision> {
        let (Some(reconciler), Some(signals)) =
            (self.reconciler.get(), self.obs.telemetry.signals())
        else {
            return Vec::new();
        };
        reconciler.reconcile_at(now_ns, &signals)
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

    /// Authorize the serve scope, returning the caller's tenant key
    /// (smallest linked identity — see [`dlhub_auth::TokenInfo::tenant`])
    /// for admission accounting.
    fn authorize_serve(&self, token: &Token) -> Result<IdentityId, DlhubError> {
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
    fn preflight(
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
    fn admit(
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
        controller
            .admit(tenant, pressured, dlhub_obs::now_ns())
            .map(Some)
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
    fn open_frame(
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
    fn close_frame<T>(
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
    fn execute_remote(
        &self,
        id: &str,
        frame: &RequestFrame,
        inputs: Vec<Value>,
        deadline: Option<Duration>,
    ) -> Result<(Vec<Value>, Timings), DlhubError> {
        let _profile = self.obs.profile.frame("serving.execute_remote");
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
        let inference = response
            .inference_nanos
            .iter()
            .map(|n| Duration::from_nanos(*n))
            .sum();
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
    fn execute_one(
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
    fn run_inner(
        &self,
        token: &Token,
        id: &str,
        input: Value,
        options: &RunOptions,
        parent: Option<TraceContext>,
    ) -> Result<RunResult, DlhubError> {
        let _profile = self.obs.profile.frame("serving.run");
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
        let key = memoize.then(|| MemoKey::new(id, &input));
        if let Some(key) = &key {
            let _profile = self.obs.profile.frame("serving.memo_lookup");
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
        if let Some(key) = key {
            self.memo.put(key, value.clone());
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

    /// Submit through the auto-batcher: the request is coalesced with
    /// concurrent requests for the same servable into one dispatch.
    pub fn run_batched(
        self: &Arc<Self>,
        token: &Token,
        id: &str,
        input: Value,
    ) -> Result<Value, DlhubError> {
        let tenant = self.preflight(token, id, std::slice::from_ref(&input))?;
        // A submitter has no frame: its request is recorded by the
        // flush that carries it, so a shed here shows only on
        // `requests_shed_total`. The permit covers the coalescing wait
        // and the flush this caller blocks on: submit() returns only
        // once its batch ran.
        let _permit = self.admit(id, tenant)?;
        self.batcher(id).submit(input)
    }

    /// `id`'s auto-batcher, created on first use.
    fn batcher(self: &Arc<Self>, id: &str) -> Arc<Batcher> {
        // Fast path: the batcher already exists, so a read lock keeps
        // concurrent submitters for different servables contention-free.
        if let Some(batcher) = self.batchers.read().get(id) {
            return Arc::clone(batcher);
        }
        // `entry` re-checks under the write lock: another caller may
        // have created it since the read unlock.
        let mut batchers = self.batchers.write();
        let batcher = batchers.entry(id.to_string()).or_insert_with(|| {
            let sizing = if self.config.adaptive_batching {
                BatchSizing::Adaptive {
                    series: self.obs.metrics.series(id),
                    target_overhead_fraction: 0.1,
                    cap: self.config.batch_max,
                }
            } else {
                BatchSizing::Fixed(self.config.batch_max)
            };
            // A `Weak`: the service owns the batcher, so a strong
            // reference here would keep both alive forever. The
            // upgrade never holds the last reference — a flush always
            // carries a submitter blocked inside `run_batched`.
            let service = Arc::downgrade(self);
            let servable = id.to_string();
            Arc::new(Batcher::new(
                sizing,
                self.config.batch_delay,
                Arc::new(move |inputs, waited| match service.upgrade() {
                    Some(service) => service.flush(&servable, inputs, waited),
                    None => Err(DlhubError::Transport("service shut down".into())),
                }),
            ))
        });
        Arc::clone(batcher)
    }

    /// One auto-batch flush = one task: a frame under its own
    /// `batch_flush` root, recorded as a [`Self::run_batch`] of the
    /// same size. `waited` is the oldest item's coalescing delay. No
    /// admission here: every submitter holds its own permit.
    fn flush(
        &self,
        id: &str,
        inputs: Vec<Value>,
        waited: Duration,
    ) -> Result<Vec<Value>, DlhubError> {
        let _profile = self.obs.profile.frame("serving.batch_flush");
        let span = self.obs.tracer.start_root("batch_flush");
        let mut frame = self.open_frame(id, span, Instant::now(), Some(inputs.len()), None)?;
        frame
            .span
            .attr("batch_wait_ns", waited.as_nanos().to_string());
        let outcome = match self.config.faults.decide(site::BATCH_FLUSH) {
            Some(fault) => Err(DlhubError::Execution {
                servable: id.to_string(),
                message: format!("injected batch-flush fault ({:?})", fault.kind),
            }),
            None => self.execute_remote(id, &frame, inputs, None),
        };
        self.close_frame(id, frame, outcome)
            .map(|(outputs, _)| outputs)
    }

    /// Asynchronous inference: returns a handle carrying the task UUID
    /// (§IV-A). Authorization and input validation happen before the
    /// handle is returned.
    pub fn run_async(
        self: &Arc<Self>,
        token: &Token,
        id: &str,
        input: Value,
    ) -> Result<TaskHandle, DlhubError> {
        let started = Instant::now();
        let tenant = self.preflight(token, id, std::slice::from_ref(&input))?;
        // The frame opens at submission: queueing time inside the async
        // pool is part of the user-visible request, and an accepted
        // handle is a promise of capacity — the permit rides in the
        // frame until the pool job closes it.
        let span = self.obs.tracer.start_root("request");
        let mut frame = self.open_frame(id, span, started, None, Some(tenant))?;
        let task_id = next_task_id();
        frame.span.attr("mode", "async");
        frame.span.attr("task_id", task_id.clone());
        self.task_table.register(&task_id);
        let handle = TaskHandle::new(task_id.clone(), Arc::clone(&self.task_table));
        let service = Arc::clone(self);
        let servable = id.to_string();
        // No thread is spawned per request: the job joins the pool's
        // channel and one of the `async_workers` threads runs it.
        self.async_pool.submit(Box::new(move || {
            let _profile = service.obs.profile.frame("serving.async_worker");
            let outcome = service.execute_one(&servable, &frame, input, None);
            let status = match service.close_frame(&servable, frame, outcome) {
                Ok((value, _)) => TaskStatus::Completed(value),
                Err(e) => {
                    // A terminal failure is exactly the moment an
                    // operator wants the recent past preserved:
                    // freeze a flight-recorder bundle (no-op while
                    // the recorder is disabled).
                    service.obs.recorder.task_failed(
                        &task_id,
                        &servable,
                        e.attempts(),
                        &e.to_string(),
                    );
                    TaskStatus::Failed {
                        attempts: e.attempts(),
                        last_error: e.to_string(),
                    }
                }
            };
            service.task_table.resolve(&task_id, status);
        }));
        Ok(handle)
    }

    /// Poll an async task by UUID. Ids whose record was dropped by
    /// [`Self::forget_task`] report [`DlhubError::ExpiredTask`], so a
    /// client can tell "poll again later is pointless" apart from a
    /// typo'd id ([`DlhubError::UnknownTask`]).
    pub fn task_status(&self, task_id: &str) -> Result<TaskStatus, DlhubError> {
        match self.task_table.status(task_id) {
            Some(status) => Ok(status),
            None if self.task_table.was_forgotten(task_id) => {
                Err(DlhubError::ExpiredTask(task_id.to_string()))
            }
            None => Err(DlhubError::UnknownTask(task_id.to_string())),
        }
    }

    /// Drop a finished task's record (housekeeping after the client
    /// retrieved the result). A bounded tombstone keeps later polls
    /// answering "expired" rather than "never existed".
    pub fn forget_task(&self, task_id: &str) {
        self.task_table.forget(task_id);
    }

    /// Register a pipeline. Every step must be visible to the
    /// registrant.
    pub fn register_pipeline(&self, token: &Token, pipeline: Pipeline) -> Result<(), DlhubError> {
        self.authorize_serve(token)?;
        pipeline.validate().map_err(DlhubError::Pipeline)?;
        for step in &pipeline.steps {
            self.repo.resolve(Some(token), step)?;
        }
        self.pipelines
            .write()
            .insert(pipeline.name.clone(), pipeline);
        Ok(())
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
    /// the pipeline's span tree: one `pipeline` root with one `request`
    /// child per step, each carrying its `invocation`/`inference`
    /// descendants from the deeper tiers.
    pub fn run_pipeline_traced(
        &self,
        token: &Token,
        name: &str,
        input: Value,
    ) -> Result<(Value, Vec<StepTiming>, u64), DlhubError> {
        self.authorize_serve(token)?;
        let pipeline = self
            .pipelines
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| DlhubError::Pipeline(format!("no such pipeline: {name}")))?;
        let mut span = self.obs.tracer.start_root("pipeline");
        span.attr("pipeline", name);
        span.attr("steps", pipeline.steps.len().to_string());
        let trace = span.trace();
        let ctx = span.ctx();
        let mut current = input;
        let mut steps = Vec::with_capacity(pipeline.steps.len());
        for step in &pipeline.steps {
            let result =
                match self.run_inner(token, step, current, &RunOptions::default(), Some(ctx)) {
                    Ok(result) => result,
                    Err(e) => {
                        span.attr("error", e.to_string());
                        self.obs.tracer.finish(span);
                        return Err(e);
                    }
                };
            steps.push(StepTiming {
                servable: step.clone(),
                timings: result.timings,
            });
            current = result.value;
        }
        self.obs.tracer.finish(span);
        Ok((current, steps, trace))
    }

    /// Registered pipelines.
    pub fn pipelines(&self) -> Vec<String> {
        let mut names: Vec<String> = self.pipelines.read().keys().cloned().collect();
        names.sort();
        names
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
            .build();
        hub.publish_simple(
            "heavy",
            ModelType::PythonFunction,
            servable_fn(|v| {
                std::thread::sleep(Duration::from_millis(10));
                Ok(v.clone())
            }),
        );
        hub.service
            .obs()
            .enable_telemetry_manual(Duration::from_secs(1));
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
        let workers = 2;
        let hub = TestHub::builder()
            .without_eval_servables()
            .memo(false)
            .replicas(8)
            .consumers(8)
            .config(ServingConfig {
                async_workers: workers,
                ..ServingConfig::default()
            })
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
            peak <= workers,
            "pool leaked concurrency: peak {peak} > {workers} workers"
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
    fn profiler_knob_samples_the_serving_path() {
        let hub = TestHub::builder()
            .memo(false)
            .config(ServingConfig {
                profile_hz: 199,
                ..ServingConfig::default()
            })
            .build();
        for i in 0..20 {
            hub.service
                .run(&hub.token, "dlhub/noop", Value::Int(i))
                .unwrap();
        }
        // The sampler collects on its own clock; give it a few periods.
        std::thread::sleep(Duration::from_millis(60));
        let report = hub
            .service
            .obs()
            .profile
            .report()
            .expect("profiler enabled");
        assert!(report.total_samples > 0, "sampler never ticked");
        // Per-thread counts must sum to the sampler's own total.
        let per_thread: u64 = report.threads.iter().map(|t| t.samples).sum();
        assert_eq!(per_thread, report.total_samples);
        // Default config never enables the profiler.
        let plain = TestHub::builder().memo(false).build();
        assert!(plain.service.obs().profile.report().is_none());
    }

    #[test]
    fn terminal_task_failure_freezes_a_flight_bundle() {
        let hub = TestHub::builder()
            .without_eval_servables()
            .memo(false)
            .config(ServingConfig {
                recorder_capacity: 4,
                ..ServingConfig::default()
            })
            .build();
        hub.publish_simple(
            "boom",
            ModelType::PythonFunction,
            servable_fn(|_| Err("exploded".into())),
        );
        let handle = hub
            .service
            .run_async(&hub.token, "dlhub/boom", Value::Null)
            .unwrap();
        assert!(matches!(
            handle.wait(Duration::from_secs(5)),
            TaskStatus::Failed { .. }
        ));
        let bundles = hub.service.obs().recorder.bundles();
        assert_eq!(bundles.len(), 1);
        let bundle = &bundles[0];
        assert_eq!(bundle.trigger.kind(), "task_failed");
        assert!(bundle.trigger.summary().contains("dlhub/boom"));
        assert!(hub.service.obs().recorder.bundle(bundle.id).is_some());
        // A successful async run does not freeze anything further.
        hub.publish_simple(
            "fine",
            ModelType::PythonFunction,
            servable_fn(|v| Ok(v.clone())),
        );
        let ok = hub
            .service
            .run_async(&hub.token, "dlhub/fine", Value::Null)
            .unwrap();
        assert!(matches!(
            ok.wait(Duration::from_secs(5)),
            TaskStatus::Completed(_)
        ));
        assert_eq!(hub.service.obs().recorder.bundles().len(), 1);
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
                .map(|_| admission.admit(IdentityId(u64::MAX), false, 0).unwrap())
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
