//! The flexible executor model (§IV-C).
//!
//! "DLHub … implements an arbitrary executor model that currently
//! supports three serving systems: TensorFlow Serving, SageMaker, and
//! a general-purpose Parsl executor." Inference tasks go to the
//! serving executor matching the model type; everything else (pre/post
//! processing functions) goes to the Parsl executor.

use crate::servable::{ModelType, Servable};
use crate::value::Value;
use crossbeam::channel;
use dlhub_container::{Cluster, Digest, PodSpec};
use dlhub_fault::{site, Fault, FaultHandle, FaultKind};
use dlhub_obs::{Counter, Gauge, Histogram, Obs, SpanRecord, TraceContext};
use parking_lot::{Condvar, Mutex, MutexGuard, RwLock};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What an executor reports for one task: outputs in input order plus
/// per-input inference durations, or the first error.
pub type Execution = Result<(Vec<Value>, Vec<Duration>), String>;

/// Completion callback of [`Executor::dispatch`].
pub type Done = Box<dyn FnOnce(Execution) + Send>;

/// Executors run batches of inputs against one servable and report
/// per-input inference times (the innermost measurement point, §V-A).
pub trait Executor: Send + Sync {
    /// Executor name for routing diagnostics.
    fn name(&self) -> &str;

    /// Whether this executor can serve the given model family.
    fn supports(&self, model_type: ModelType) -> bool;

    /// Execute all `inputs` against `servable`, returning outputs in
    /// order plus per-input inference durations.
    fn execute(
        &self,
        servable_id: &str,
        servable: &Arc<dyn Servable>,
        inputs: &[Value],
    ) -> Execution;

    /// Number of jobs started so far: one per replica a task's inputs
    /// were cut across, one per non-empty task on an inline executor.
    fn dispatched(&self) -> u64;

    /// [`Executor::execute`] plus span recording: when an observability
    /// handle and a parent context are supplied, record `inference`
    /// spans under the parent (the Task Manager's invocation span).
    ///
    /// The default implementation runs `execute` and reconstructs one
    /// end-anchored span per input from the reported durations. For
    /// the inline executors those are even shares of one `run_many`
    /// call, so the spans sum to the call's time but do not mark when
    /// each input ran. Executors with replica pools should override it
    /// to record spans on the replica threads themselves (see
    /// [`ParslExecutor`]).
    fn execute_traced(
        &self,
        servable_id: &str,
        servable: &Arc<dyn Servable>,
        inputs: &[Value],
        obs: Option<&Obs>,
        parent: Option<TraceContext>,
    ) -> Execution {
        let result = self.execute(servable_id, servable, inputs);
        if let (Some(obs), Some(parent), Ok((_, times))) = (obs, parent, &result) {
            if obs.tracer.enabled() {
                let end_ns = dlhub_obs::now_ns();
                for time in times {
                    obs.tracer.record(SpanRecord {
                        trace: parent.trace,
                        span: 0, // minted by the tracer
                        parent: parent.span,
                        name: "inference",
                        start_ns: end_ns.saturating_sub(time.as_nanos() as u64),
                        end_ns,
                        attrs: vec![
                            ("servable", servable_id.to_string()),
                            ("executor", self.name().to_string()),
                        ],
                    });
                }
            }
        }
        result
    }

    /// Completion-passing, zero-copy variant of
    /// [`Executor::execute_traced`]: start the task and return; `done`
    /// is called exactly once, on whichever thread finishes the task,
    /// so the caller never sits on a running inference. The inputs are
    /// handed over by shared ownership, so pooled executors fan them
    /// out without cloning `Value` trees. The default runs the task
    /// inline: all an executor without replica threads can do.
    fn dispatch(
        &self,
        servable_id: &str,
        servable: &Arc<dyn Servable>,
        inputs: Arc<Vec<Value>>,
        obs: Option<&Obs>,
        parent: Option<TraceContext>,
        done: Done,
    ) {
        done(self.execute_traced(servable_id, servable, &inputs, obs, parent));
    }

    /// Complete, with a timeout error, every dispatched task whose
    /// replicas have not all answered in time. Whoever dispatches
    /// without waiting calls this every loop turn; it costs one atomic
    /// load when nothing is due. Inline executors have nothing to reap.
    fn reap_expired(&self) {}

    /// Resize a servable's replica pool; returns the applied count.
    /// Inline executors (TF-Serving, SageMaker) have no pools: the
    /// default ignores the request and reports one always-on server.
    /// Pooled executors override this (see [`ParslExecutor::scale`]).
    fn scale(&self, _servable_id: &str, _replicas: usize) -> usize {
        1
    }

    /// Current replica count for a servable; inline executors always
    /// report one.
    fn replicas(&self, _servable_id: &str) -> usize {
        1
    }

    /// Replicas of the servable currently quarantined by health
    /// supervision; executors without supervision report zero.
    fn quarantined(&self, _servable_id: &str) -> usize {
        0
    }
}

/// Trace baggage of a pooled task, so the replica thread records its
/// own exact `inference` span instead of a reconstructed one.
struct JobTrace {
    tracer: dlhub_obs::Tracer,
    parent: TraceContext,
    servable_id: String,
}

/// One dispatched batch: the inputs, the answers as replicas report
/// them, and the completion callback.
struct Task {
    servable: Arc<dyn Servable>,
    /// The whole batch, shared by reference across every job; each job
    /// reads its own `inputs[items]` in place. Dispatching a batch is
    /// one refcount bump per replica, not `n` deep `Value` clones.
    inputs: Arc<Vec<Value>>,
    trace: Option<JobTrace>,
    /// Obs-clock instant after which the task counts as wedged.
    deadline_ns: u64,
    progress: Mutex<Progress>,
    /// Wakes the blocking caller of a task that has no `done`.
    finished: Condvar,
}

/// The shared countdown of one task, completed exactly once: by the
/// last replica to answer or by an expiry, whichever locks first.
struct Progress {
    answers: Vec<Option<(Result<Value, String>, Duration)>>,
    answered: usize,
    completed: bool,
    /// Who to tell; `None` when a blocking caller waits on the task
    /// itself, in which case the outcome is parked in `outcome`.
    done: Option<Done>,
    outcome: Option<Execution>,
}

impl Task {
    /// Record one job's answers, for the inputs from `first` on, each
    /// with the same inference time; the last job to answer completes
    /// the task (first error in input order, if any). Returns whether
    /// this one did.
    fn answer(
        &self,
        first: usize,
        results: impl IntoIterator<Item = Result<Value, String>>,
        inference: Duration,
    ) -> bool {
        let mut progress = self.progress.lock();
        let Progress {
            answers, answered, ..
        } = &mut *progress;
        for (slot, result) in answers[first..].iter_mut().zip(results) {
            *slot = Some((result, inference));
            *answered += 1;
        }
        progress.answered == progress.answers.len()
            && self.complete(progress, |progress| {
                let answers = std::mem::take(&mut progress.answers).into_iter().flatten();
                answers
                    .map(|(result, time)| result.map(|value| (value, time)))
                    .collect::<Result<Vec<_>, _>>()
                    .map(|pairs| pairs.into_iter().unzip())
            })
    }

    /// Complete the task with `outcome`, unless it already completed;
    /// returns whether this call did.
    fn complete(
        &self,
        mut progress: MutexGuard<'_, Progress>,
        outcome: impl FnOnce(&mut Progress) -> Execution,
    ) -> bool {
        if std::mem::replace(&mut progress.completed, true) {
            return false;
        }
        let outcome = outcome(&mut progress);
        match progress.done.take() {
            // Completions run user code (encode, reply): unlocked.
            Some(done) => {
                drop(progress);
                done(outcome);
            }
            None => {
                progress.outcome = Some(outcome);
                drop(progress);
                self.finished.notify_one();
            }
        }
        true
    }

    /// Complete the task with a fixed error.
    fn fail(&self, error: &str) {
        self.complete(self.progress.lock(), |_| Err(error.to_string()));
    }
}

/// One replica's share of a task.
struct Job {
    task: Arc<Task>,
    /// The contiguous run of `task.inputs` this replica serves; never
    /// empty.
    items: Range<usize>,
    /// Obs-clock stamp taken when the job entered the pool queue, so
    /// the replica can report its queue wait.
    queued_ns: u64,
}

/// `next_expiry` sentinel: no task outstanding.
const NO_EXPIRY: u64 = u64::MAX;

/// How often a thread blocked on a pool looks for expired tasks.
const TICK: Duration = Duration::from_millis(50);

/// Tasks in flight, by address, so [`Executor::reap_expired`] can find
/// the ones a hung replica left unanswered. As in the broker's lease
/// reaper, `next_expiry` caches the earliest deadline so the common
/// check is one load, not a scan.
struct Inflight {
    tasks: Mutex<HashMap<usize, Arc<Task>>>,
    next_expiry: AtomicU64,
}

/// Replica health thresholds: a replica accumulating
/// `quarantine_after` *consecutive* failures is quarantined — it stops
/// pulling work for `quarantine_for`, then restarts with a clean
/// record. Models pulling a crashing pod out of the load-balancer
/// rotation and rescheduling it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthPolicy {
    /// Consecutive failures before a replica is quarantined.
    pub quarantine_after: u32,
    /// How long a quarantined replica sits out before restarting.
    pub quarantine_for: Duration,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        HealthPolicy {
            quarantine_after: 3,
            quarantine_for: Duration::from_millis(250),
        }
    }
}

/// Instruments shared by every replica pool of one executor, resolved
/// once in [`ParslExecutor::new`].
struct HealthMetrics {
    quarantined: Arc<Gauge>,
    restarts: Arc<Counter>,
    /// Wall time to bring a pool from zero replicas to serving, fed by
    /// [`ParslExecutor::scale`] on every cold start.
    cold_start: Arc<Histogram>,
    /// Pickup minus `Job::queued_ns`: backlog forms in front of the
    /// replicas now that consumers dispatch without waiting.
    queue_wait: Arc<Histogram>,
}

/// Run user code with a panic trapped: one must not kill the pod — the
/// real system's container would trap the crash and report it — so the
/// unwind is caught and surfaced as an execution error.
fn guarded<T>(run: impl FnOnce() -> T) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)).map_err(|panic| {
        let msg = panic
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "unknown panic".into());
        format!("servable panicked: {msg}")
    })
}

/// [`Servable::run_many`] held to its contract of one result per
/// input: a servable that breaks it fails the whole block.
fn run_many_checked(servable: &dyn Servable, inputs: &[Value]) -> Vec<Result<Value, String>> {
    let results = servable.run_many(inputs);
    if results.len() == inputs.len() {
        return results;
    }
    let broken = format!(
        "servable returned {} results for {} inputs",
        results.len(),
        inputs.len()
    );
    vec![Err(broken); inputs.len()]
}

/// Run one input on its own, under the fault verdict drawn for it.
fn run_one(
    injected: Option<Fault>,
    servable: &dyn Servable,
    input: &Value,
) -> Result<Value, String> {
    guarded(|| match injected {
        // Slow and Hang delay the real work; the others replace it.
        Some(fault) if matches!(fault.kind, FaultKind::Slow | FaultKind::Hang) => {
            std::thread::sleep(fault.delay);
            servable.run(input)
        }
        Some(fault) if fault.kind == FaultKind::Panic => panic!("injected replica panic"),
        Some(_) => Err("injected replica fault".to_string()),
        None => servable.run(input),
    })
    .unwrap_or_else(Err)
}

/// Run one job's inputs, pushing one result per input onto `results`.
///
/// Fault verdicts are drawn once per input, in input order, as when
/// every input was a job of its own. Several inputs that draw no fault
/// are one [`Servable::run_many`] call under one panic trap, so a panic
/// in it fails them all. A single input, or a chunk in which a fault
/// fired, runs input by input.
fn run_chunk(
    faults: &FaultHandle,
    servable: &dyn Servable,
    inputs: &[Value],
    results: &mut Vec<Result<Value, String>>,
) {
    if let [input] = inputs {
        results.push(run_one(faults.decide(site::REPLICA), servable, input));
        return;
    }
    let verdicts: Vec<Option<Fault>> = inputs
        .iter()
        .map(|_| faults.decide(site::REPLICA))
        .collect();
    if verdicts.iter().any(Option::is_some) {
        let runs = verdicts.into_iter().zip(inputs);
        results.extend(runs.map(|(injected, input)| run_one(injected, servable, input)));
        return;
    }
    let block = guarded(|| run_many_checked(servable, inputs));
    results.extend(block.unwrap_or_else(|panic| vec![Err(panic); inputs.len()]));
}

struct Pool {
    sender: channel::Sender<Job>,
    workers: Vec<std::thread::JoinHandle<()>>,
    replicas: usize,
    /// Replicas of *this* pool sitting in quarantine right now. The
    /// reconciler reads it per servable so a quarantine + scale-down
    /// cannot count sick replicas as capacity; the global
    /// `replicas_quarantined` gauge still aggregates across pools.
    quarantined: Arc<AtomicUsize>,
}

impl Pool {
    fn spawn(
        servable_id: &str,
        replicas: usize,
        faults: FaultHandle,
        health: Option<HealthPolicy>,
        metrics: Arc<HealthMetrics>,
        inflight: Arc<Inflight>,
    ) -> Pool {
        // One queued job per replica: a dispatcher blocks only on a
        // saturated pool, and whatever it has not pulled yet keeps
        // waiting unleased in the task topic.
        let (sender, receiver) = channel::bounded::<Job>(replicas);
        let quarantined = Arc::new(AtomicUsize::new(0));
        let workers = (0..replicas)
            .map(|i| {
                let rx = receiver.clone();
                let faults = faults.clone();
                let metrics = Arc::clone(&metrics);
                let inflight = Arc::clone(&inflight);
                let pool_quarantined = Arc::clone(&quarantined);
                std::thread::Builder::new()
                    .name(format!("pod-{servable_id}-{i}"))
                    .spawn(move || {
                        // Each worker models one pod replica: pull the
                        // next job (IPP-style load balancing across
                        // the pool), run the servable on its inputs,
                        // answer.
                        let mut strikes = 0u32;
                        // Reused from job to job: a one-input job
                        // allocates nothing to hold its result.
                        let mut results = Vec::new();
                        while let Ok(job) = rx.recv() {
                            let Job {
                                task,
                                items,
                                queued_ns,
                            } = job;
                            let start_ns = dlhub_obs::now_ns();
                            metrics
                                .queue_wait
                                .record(start_ns.saturating_sub(queued_ns));
                            let inputs = &task.inputs[items.clone()];
                            run_chunk(&faults, &*task.servable, inputs, &mut results);
                            let end_ns = dlhub_obs::now_ns();
                            if let Some(trace) = &task.trace {
                                trace.tracer.record(SpanRecord {
                                    trace: trace.parent.trace,
                                    span: 0, // minted by the tracer
                                    parent: trace.parent.span,
                                    name: "inference",
                                    start_ns,
                                    end_ns,
                                    attrs: vec![
                                        ("servable", trace.servable_id.clone()),
                                        ("replica", i.to_string()),
                                        ("executor", "parsl".to_string()),
                                        ("queued_ns", queued_ns.to_string()),
                                        ("items", inputs.len().to_string()),
                                    ],
                                });
                            }
                            // Health state machine: healthy → suspect
                            // (strikes accumulating) → quarantined →
                            // restarted. The record is kept per input,
                            // in input order: a success wipes it, so a
                            // chunk with one bad input among good ones
                            // is no strike against the replica.
                            let quarantine = health.filter(|policy| {
                                let mut struck_out = false;
                                for result in &results {
                                    strikes = if result.is_ok() { 0 } else { strikes + 1 };
                                    if strikes >= policy.quarantine_after {
                                        (struck_out, strikes) = (true, 0);
                                    }
                                }
                                struck_out
                            });
                            // Each input reports an even share of its
                            // job's time, so a task's summed inference
                            // time is what its replicas spent on it.
                            let elapsed_ns = end_ns.saturating_sub(start_ns);
                            let inference = Duration::from_nanos(elapsed_ns / inputs.len() as u64);
                            // The last answer runs the task's completion
                            // right here, on the replica thread.
                            if task.answer(items.start, results.drain(..), inference) {
                                inflight.tasks.lock().remove(&(Arc::as_ptr(&task) as usize));
                            }
                            drop(task);
                            if let Some(policy) = quarantine {
                                pool_quarantined.fetch_add(1, Ordering::Relaxed);
                                metrics.quarantined.add(1);
                                std::thread::sleep(policy.quarantine_for);
                                pool_quarantined.fetch_sub(1, Ordering::Relaxed);
                                metrics.quarantined.add(-1);
                                metrics.restarts.inc();
                            }
                        }
                    })
                    .expect("spawn pod worker")
            })
            .collect();
        Pool {
            sender,
            workers,
            replicas,
            quarantined,
        }
    }

    fn shutdown(self) {
        drop(self.sender);
        for w in self.workers {
            let _ = w.join();
        }
    }
}

/// The general-purpose Parsl executor (§IV-C): deploys `n` pod
/// replicas per servable on the cluster, load-balances requests across
/// them, and supports *any* servable type — the property that lets
/// DLHub serve "any Python 3-compatible model or processing function".
pub struct ParslExecutor {
    cluster: Cluster,
    // Read-mostly: every dispatch reads the pool map, while writes
    // only happen on deploy/rescale. An RwLock lets concurrent
    // requests for different (or the same) servables share the map.
    pools: RwLock<HashMap<String, Pool>>,
    default_replicas: usize,
    dispatched: AtomicU64,
    faults: FaultHandle,
    health: Option<HealthPolicy>,
    /// How long a task waits for all replica answers before it is
    /// declared wedged and completed with a timeout error.
    reply_timeout: Duration,
    metrics: Arc<HealthMetrics>,
    inflight: Arc<Inflight>,
}

impl ParslExecutor {
    /// Create over a cluster with a default replica count per
    /// servable ("a number configurable in the Management Service").
    /// Replica health (`replicas_quarantined`,
    /// `replica_restarts_total`), cold starts (`cold_start_ns`) and
    /// pickup delay (`replica_queue_wait_ns`) are recorded in `obs`'s
    /// registry; every replica consults `faults` at the
    /// [`dlhub_fault::site::REPLICA`] site.
    pub fn new(cluster: Cluster, default_replicas: usize, obs: &Obs, faults: FaultHandle) -> Self {
        let metrics = &obs.metrics;
        ParslExecutor {
            cluster,
            pools: RwLock::new(HashMap::new()),
            default_replicas: default_replicas.max(1),
            dispatched: AtomicU64::new(0),
            faults,
            health: Some(HealthPolicy::default()),
            reply_timeout: Duration::from_secs(60),
            metrics: Arc::new(HealthMetrics {
                quarantined: metrics.gauge_with_help(
                    "replicas_quarantined",
                    "Replicas currently quarantined after repeated failures",
                ),
                restarts: metrics.counter_with_help(
                    "replica_restarts_total",
                    "Replica processes restarted by health supervision",
                ),
                cold_start: metrics.histogram_with_help(
                    "cold_start_ns",
                    "Wall time to bring a replica pool from zero to serving",
                ),
                queue_wait: metrics.histogram_with_help(
                    "replica_queue_wait_ns",
                    "Time jobs spent queued in front of a replica pool",
                ),
            }),
            inflight: Arc::new(Inflight {
                tasks: Mutex::new(HashMap::new()),
                next_expiry: AtomicU64::new(NO_EXPIRY),
            }),
        }
    }

    /// Replace the replica health policy (`None` disables quarantine
    /// entirely). Builder-style; call before the first dispatch.
    pub fn with_health(mut self, health: Option<HealthPolicy>) -> Self {
        self.health = health;
        self
    }

    /// Bound how long one task waits for its replica answers.
    pub fn with_reply_timeout(mut self, timeout: Duration) -> Self {
        self.reply_timeout = timeout;
        self
    }

    /// Scale a servable's replica pool, mirroring the change into the
    /// cluster's Deployment. Returns the new replica count.
    ///
    /// `replicas == 0` is scale-to-zero: the Deployment's pods are
    /// terminated and the pool is dropped. The next dispatch (or the
    /// next non-zero `scale`) recreates the pool and pays a cold start,
    /// recorded in the `cold_start_ns` histogram.
    pub fn scale(&self, servable_id: &str, replicas: usize) -> usize {
        let deployment = format!("parsl-{}", servable_id.replace('/', "-"));
        if replicas == 0 {
            let _ = self.cluster.scale(&deployment, 0);
            let retired = self.pools.write().remove(servable_id);
            // Join worker threads outside the pool-map lock: a replica
            // sleeping through quarantine (or a hung inference) would
            // otherwise block every dispatch for every servable while
            // the write guard is held.
            if let Some(pool) = retired {
                pool.shutdown();
            }
            return 0;
        }
        // Cold-start clock starts here: deployment creation is the
        // dominant cost of zero-to-serving, not thread spawn.
        let cold_started = Instant::now();
        if self.cluster.running_pods(&deployment).is_empty() {
            let _ = self.cluster.create_deployment(
                &deployment,
                PodSpec {
                    image: Digest(0, 0),
                    cpu_millis: 1000,
                    memory_mib: 2048,
                },
                replicas,
            );
        } else {
            let _ = self.cluster.scale(&deployment, replicas);
        }
        let retired;
        {
            let mut pools = self.pools.write();
            if pools
                .get(servable_id)
                .is_some_and(|p| p.replicas == replicas)
            {
                return replicas;
            }
            let cold = !pools.contains_key(servable_id);
            retired = pools.remove(servable_id);
            pools.insert(
                servable_id.to_string(),
                Pool::spawn(
                    servable_id,
                    replicas,
                    self.faults.clone(),
                    self.health,
                    Arc::clone(&self.metrics),
                    Arc::clone(&self.inflight),
                ),
            );
            if cold {
                self.metrics
                    .cold_start
                    .record(cold_started.elapsed().as_nanos().min(u64::MAX as u128) as u64);
            }
        }
        // As above: join the replaced pool's workers only after the
        // write guard is dropped.
        if let Some(pool) = retired {
            pool.shutdown();
        }
        replicas
    }

    /// Current replica count for a servable (0 if never deployed or
    /// scaled to zero).
    pub fn replicas(&self, servable_id: &str) -> usize {
        self.pools.read().get(servable_id).map_or(0, |p| p.replicas)
    }

    /// Replicas of the servable sitting in quarantine right now (0 if
    /// never deployed). The reconciler subtracts this from observed
    /// capacity so sick replicas are never scaled away as surplus.
    pub fn quarantined(&self, servable_id: &str) -> usize {
        self.pools
            .read()
            .get(servable_id)
            .map_or(0, |p| p.quarantined.load(Ordering::Relaxed))
    }

    /// The job queue of the servable's pool and the number of replicas
    /// pulling from it (one look at one pool), deployed first if
    /// absent. The reconciler's idle park can retire the pool between
    /// deploy and look: a cold start to retry, never a panic on a live
    /// thread.
    fn pool_sender(&self, servable_id: &str) -> Option<(channel::Sender<Job>, usize)> {
        for _ in 0..4 {
            if let Some(pool) = self.pools.read().get(servable_id) {
                return Some((pool.sender.clone(), pool.replicas));
            }
            self.scale(servable_id, self.default_replicas);
        }
        None
    }

    /// The one fan-out path: the inputs cut into one contiguous chunk
    /// per replica (`min(inputs, replicas)` jobs, sizes differing by at
    /// most one) onto the servable's pool, so a batch costs each
    /// replica one hand-off and reaches the servable as a block. How
    /// finely to cut is not an option: fewer jobs than replicas leave
    /// replicas idle, more only add hand-offs. Whichever thread
    /// completes the task calls `done`, or, for `None`, parks the
    /// outcome in the returned task for the caller to wait on. A
    /// dispatcher parked on a saturated pool looks for expired tasks
    /// every [`TICK`].
    fn start(
        &self,
        servable_id: &str,
        servable: &Arc<dyn Servable>,
        inputs: Arc<Vec<Value>>,
        obs: Option<&Obs>,
        parent: Option<TraceContext>,
        done: Option<Done>,
    ) -> Arc<Task> {
        let count = inputs.len();
        let started_ns = dlhub_obs::now_ns();
        let timeout_ns = self.reply_timeout.as_nanos().min(u64::MAX as u128) as u64;
        // Spans are recorded on the replica threads themselves, so each
        // carries the replica that ran it and exact start/end stamps.
        let trace = match (obs, parent) {
            (Some(obs), Some(parent)) if obs.tracer.enabled() => Some(JobTrace {
                tracer: obs.tracer.clone(),
                parent,
                servable_id: servable_id.to_string(),
            }),
            _ => None,
        };
        let task = Arc::new(Task {
            servable: Arc::clone(servable),
            inputs,
            trace,
            deadline_ns: started_ns.saturating_add(timeout_ns).min(NO_EXPIRY - 1),
            progress: Mutex::new(Progress {
                answers: (0..count).map(|_| None).collect(),
                answered: 0,
                completed: false,
                done,
                outcome: None,
            }),
            finished: Condvar::new(),
        });
        if count == 0 {
            task.complete(task.progress.lock(), |_| Ok((Vec::new(), Vec::new())));
            return task;
        }
        let Some((sender, replicas)) = self.pool_sender(servable_id) else {
            task.fail("executor pool shut down");
            return task;
        };
        let address = Arc::as_ptr(&task) as usize;
        self.inflight
            .tasks
            .lock()
            .insert(address, Arc::clone(&task));
        self.inflight
            .next_expiry
            .fetch_min(task.deadline_ns, Ordering::SeqCst);
        // Sending happens outside the `pools` read guard: a saturated
        // pool blocks this dispatcher, never a rescale of any pool.
        let jobs = count.min(replicas);
        let (share, larger) = (count / jobs, count % jobs);
        let mut next = 0;
        for number in 0..jobs {
            self.dispatched.fetch_add(1, Ordering::Relaxed);
            let queued_ns = match number {
                0 => started_ns,
                _ => dlhub_obs::now_ns(),
            };
            let items = next..next + share + usize::from(number < larger);
            next = items.end;
            let mut job = Job {
                task: Arc::clone(&task),
                items,
                queued_ns,
            };
            // A dispatcher parked on a saturated pool still looks for
            // expired tasks, and gives up once its own has expired:
            // hung replicas hold it for `reply_timeout` at most.
            while let Err(unsent) = sender.send_timeout(job, TICK) {
                job = match unsent {
                    channel::SendTimeoutError::Timeout(job) => job,
                    channel::SendTimeoutError::Disconnected(_) => {
                        self.inflight.tasks.lock().remove(&address);
                        task.fail("executor pool shut down");
                        return task;
                    }
                };
                self.reap_expired();
                if task.progress.lock().completed {
                    return task;
                }
            }
        }
        task
    }
}

impl Executor for ParslExecutor {
    fn name(&self) -> &str {
        "parsl"
    }

    fn supports(&self, _model_type: ModelType) -> bool {
        true
    }

    fn execute(
        &self,
        servable_id: &str,
        servable: &Arc<dyn Servable>,
        inputs: &[Value],
    ) -> Execution {
        self.execute_traced(servable_id, servable, inputs, None, None)
    }

    fn dispatched(&self) -> u64 {
        self.dispatched.load(Ordering::Relaxed)
    }

    /// Blocking execution: dispatch, then wait on the task until its
    /// own deadline, at which point the expiry below completes it.
    fn execute_traced(
        &self,
        servable_id: &str,
        servable: &Arc<dyn Servable>,
        inputs: &[Value],
        obs: Option<&Obs>,
        parent: Option<TraceContext>,
    ) -> Execution {
        let inputs = Arc::new(inputs.to_vec());
        let task = self.start(servable_id, servable, inputs, obs, parent, None);
        let mut progress = task.progress.lock();
        loop {
            if let Some(outcome) = progress.outcome.take() {
                return outcome;
            }
            let left = Duration::from_nanos(task.deadline_ns.saturating_sub(dlhub_obs::now_ns()));
            // Past the deadline another thread may be mid-expiry.
            let left = left.max(Duration::from_millis(1));
            if task.finished.wait_for(&mut progress, left).timed_out() {
                drop(progress);
                self.reap_expired();
                progress = task.progress.lock();
            }
        }
    }

    fn dispatch(
        &self,
        servable_id: &str,
        servable: &Arc<dyn Servable>,
        inputs: Arc<Vec<Value>>,
        obs: Option<&Obs>,
        parent: Option<TraceContext>,
        done: Done,
    ) {
        // The serving path lands here: the decoded request batch is
        // shared with every replica job as-is — no `Value` deep clones
        // anywhere between the wire and the servable — and the caller
        // is back at its queue before the first job runs.
        self.start(servable_id, servable, inputs, obs, parent, Some(done));
    }

    fn reap_expired(&self) {
        let inflight = &*self.inflight;
        let due = inflight.next_expiry.load(Ordering::SeqCst);
        if due == NO_EXPIRY || dlhub_obs::now_ns() < due {
            return;
        }
        let now = dlhub_obs::now_ns();
        let mut expired = Vec::new();
        {
            // A dispatch inserts under this lock before it `fetch_min`s
            // its deadline, so it is either seen by this scan or lands
            // after the store below.
            let mut tasks = inflight.tasks.lock();
            tasks.retain(|_, task| {
                let overdue = task.deadline_ns <= now;
                if overdue {
                    expired.push(Arc::clone(task));
                }
                !overdue
            });
            let next = tasks.values().map(|t| t.deadline_ns).min();
            inflight
                .next_expiry
                .store(next.unwrap_or(NO_EXPIRY), Ordering::SeqCst);
        }
        // A hung replica must not wedge the requester forever.
        let timeout = self.reply_timeout;
        for task in expired {
            task.complete(task.progress.lock(), |progress| {
                let total = progress.answers.len();
                let missing = total - progress.answered;
                Err(format!(
                    "executor timed out after {timeout:?} waiting for {missing} of {total} replies"
                ))
            });
        }
    }

    fn scale(&self, servable_id: &str, replicas: usize) -> usize {
        ParslExecutor::scale(self, servable_id, replicas)
    }

    fn replicas(&self, servable_id: &str) -> usize {
        ParslExecutor::replicas(self, servable_id)
    }

    fn quarantined(&self, servable_id: &str) -> usize {
        ParslExecutor::quarantined(self, servable_id)
    }
}

impl Drop for ParslExecutor {
    fn drop(&mut self) {
        for (_, pool) in self.pools.write().drain() {
            pool.shutdown();
        }
    }
}

/// How an executor without replica threads runs a task: one
/// [`Servable::run_many`] over all its inputs, each input reporting an
/// even share of the elapsed time (as a replica job does).
fn run_inline(servable: &dyn Servable, inputs: &[Value]) -> Execution {
    let start = Instant::now();
    let outputs = run_many_checked(servable, inputs)
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
    let inference = start.elapsed() / inputs.len().max(1) as u32;
    Ok((outputs, vec![inference; inputs.len()]))
}

/// TensorFlow-Serving executor: a dedicated low-overhead server that
/// only accepts TensorFlow-exportable servables (§IV-C). Inference is
/// executed inline — there is no Python hop — which models the C++
/// `tensorflow_model_server`'s minimal per-request cost.
pub struct TfServingExecutor {
    dispatched: AtomicU64,
}

impl TfServingExecutor {
    /// Create the executor.
    pub fn new() -> Self {
        TfServingExecutor {
            dispatched: AtomicU64::new(0),
        }
    }
}

impl Default for TfServingExecutor {
    fn default() -> Self {
        Self::new()
    }
}

impl Executor for TfServingExecutor {
    fn name(&self) -> &str {
        "tfserving"
    }

    fn supports(&self, model_type: ModelType) -> bool {
        matches!(model_type, ModelType::TensorFlow | ModelType::Keras)
    }

    fn execute(
        &self,
        _servable_id: &str,
        servable: &Arc<dyn Servable>,
        inputs: &[Value],
    ) -> Execution {
        self.dispatched
            .fetch_add(inputs.len().min(1) as u64, Ordering::Relaxed);
        run_inline(&**servable, inputs)
    }

    fn dispatched(&self) -> u64 {
        self.dispatched.load(Ordering::Relaxed)
    }
}

/// SageMaker executor: "a Python Flask application that exposes an
/// HTTP-based model inference interface" (§IV-C). Every request pays a
/// JSON serialize/deserialize round trip of both payloads, modelling
/// the HTTP interface the Task Manager composes requests against.
pub struct SageMakerExecutor {
    dispatched: AtomicU64,
}

impl SageMakerExecutor {
    /// Create the executor.
    pub fn new() -> Self {
        SageMakerExecutor {
            dispatched: AtomicU64::new(0),
        }
    }
}

impl Default for SageMakerExecutor {
    fn default() -> Self {
        Self::new()
    }
}

impl Executor for SageMakerExecutor {
    fn name(&self) -> &str {
        "sagemaker"
    }

    fn supports(&self, _model_type: ModelType) -> bool {
        true
    }

    fn execute(
        &self,
        _servable_id: &str,
        servable: &Arc<dyn Servable>,
        inputs: &[Value],
    ) -> Execution {
        self.dispatched
            .fetch_add(inputs.len().min(1) as u64, Ordering::Relaxed);
        let round_trip = |value: &Value| -> Result<Value, String> {
            let body = serde_json::to_vec(value).map_err(|e| e.to_string())?;
            serde_json::from_slice(&body).map_err(|e| e.to_string())
        };
        // HTTP body round trip in, …
        let decoded = inputs
            .iter()
            .map(round_trip)
            .collect::<Result<Vec<_>, _>>()?;
        let (outputs, times) = run_inline(&**servable, &decoded)?;
        // … and out.
        let outputs = outputs.iter().map(round_trip).collect::<Result<_, _>>()?;
        Ok((outputs, times))
    }

    fn dispatched(&self) -> u64 {
        self.dispatched.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::servable::builtins::NoopServable;
    use crate::servable::servable_fn;
    use dlhub_container::NodeSpec;

    fn cluster() -> Cluster {
        Cluster::new(vec![NodeSpec::new("n0", 64_000, 65_536)])
    }

    /// An executor on its own: an `Obs` nobody reads, no faults.
    fn parsl(replicas: usize) -> ParslExecutor {
        ParslExecutor::new(cluster(), replicas, &Obs::new(), FaultHandle::default())
    }

    /// Each input sleeps `i % 3` ms and is echoed.
    fn napping_echo() -> Arc<dyn Servable> {
        servable_fn(|v| match v {
            Value::Int(i) => {
                std::thread::sleep(Duration::from_millis((*i % 3) as u64));
                Ok(v.clone())
            }
            other => Err(format!("not an int: {other:?}")),
        })
    }

    #[test]
    fn parsl_executes_and_orders_outputs() {
        let ex = parsl(4);
        let inputs: Vec<Value> = (0..20).map(Value::Int).collect();
        let (outputs, times) = ex.execute("u/echo", &napping_echo(), &inputs).unwrap();
        assert_eq!(outputs, inputs);
        assert_eq!(times.len(), 20);
        // 20 inputs over 4 replicas: 4 jobs of 5, and each job's inputs
        // share its time evenly (to the nanosecond, rounded down).
        assert_eq!(ex.dispatched(), 4);
        for (job, times) in times.chunks(5).enumerate() {
            let slept: u64 = (job as u64 * 5..).take(5).map(|i| i % 3).sum();
            let reported = times.iter().sum::<Duration>() + Duration::from_nanos(5);
            assert!(
                reported >= Duration::from_millis(slept),
                "job {job}: {times:?}"
            );
            assert!(times.iter().all(|t| *t == times[0]), "job {job}: {times:?}");
        }
    }

    #[test]
    fn a_task_is_one_chunk_per_replica_whatever_its_size() {
        // Fails inputs 1000.., panics on -1, echoes the rest.
        let picky = servable_fn(|v| match v {
            Value::Int(-1) => panic!("simulated crash in user code"),
            Value::Int(i) if *i >= 1000 => Err(format!("item {i} failed")),
            other => Ok(other.clone()),
        });
        for replicas in [1usize, 2, 4] {
            let ex = parsl(replicas).with_health(None);
            for n in [0usize, 1, 2, 3, 31, 32, 33] {
                let case = format!("{n} inputs on {replicas} replicas");
                let inputs: Vec<Value> = (0..n as i64).map(Value::Int).collect();
                let before = ex.dispatched();
                let (outputs, times) = ex.execute("u/picky", &picky, &inputs).unwrap();
                assert_eq!(ex.dispatched() - before, n.min(replicas) as u64, "{case}");
                assert_eq!(outputs, inputs, "{case}");
                assert_eq!(times.len(), n, "{case}");
                if n == 0 {
                    continue;
                }
                // Two failing inputs (one, where the two positions
                // coincide): whichever job answers first, the first in
                // input order is the task's error.
                let mut failing = inputs.clone();
                failing[n - 1] = Value::Int(2000);
                failing[n / 2] = Value::Int(1000);
                assert_eq!(
                    ex.execute("u/picky", &picky, &failing).unwrap_err(),
                    "item 1000 failed",
                    "{case}"
                );
                // A panicking input fails its task, and the pool is
                // there for the next one.
                let mut crashing = inputs.clone();
                crashing[n / 2] = Value::Int(-1);
                let err = ex.execute("u/picky", &picky, &crashing).unwrap_err();
                assert!(err.contains("panicked: simulated crash"), "{case}: {err}");
                let (outputs, _) = ex.execute("u/picky", &picky, &inputs).unwrap();
                assert_eq!(outputs, inputs, "{case}");
            }
        }
    }

    #[test]
    fn a_chunk_that_draws_a_fault_runs_input_by_input() {
        use dlhub_fault::{FaultPlan, FaultSpec};
        // Counts calls into `run`; `run_many` is the default loop.
        struct Counting(AtomicUsize);
        impl Servable for Counting {
            fn run(&self, input: &Value) -> Result<Value, String> {
                self.0.fetch_add(1, Ordering::Relaxed);
                Ok(input.clone())
            }
        }
        let inputs: Vec<Value> = (0..6).map(Value::Int).collect();
        for (kind, after) in [(FaultKind::Error, 2), (FaultKind::Panic, 5)] {
            // One replica: the six inputs are one chunk, whose verdicts
            // are arrivals 0..6 at the site; one of them fires.
            let faults = FaultPlan::seeded(7)
                .inject(site::REPLICA, FaultSpec::new(kind).after(after).max(1))
                .build();
            let ex =
                ParslExecutor::new(cluster(), 1, &Obs::new(), faults.clone()).with_health(None);
            let counting = Arc::new(Counting(AtomicUsize::new(0)));
            let servable: Arc<dyn Servable> = counting.clone();
            let err = ex.execute("u/count", &servable, &inputs).unwrap_err();
            assert!(err.contains("injected replica"), "{kind:?}: {err}");
            assert_eq!(faults.arrivals(site::REPLICA), 6, "{kind:?}");
            assert_eq!(faults.injected(site::REPLICA), 1, "{kind:?}");
            // Only the faulted input was replaced; the rest ran.
            assert_eq!(counting.0.load(Ordering::Relaxed), 5, "{kind:?}");
            // The rule is spent: the next chunk is clean and whole.
            let (outputs, _) = ex.execute("u/count", &servable, &inputs).unwrap();
            assert_eq!(outputs, inputs, "{kind:?}");
            assert_eq!(faults.arrivals(site::REPLICA), 12, "{kind:?}");
        }
    }

    #[test]
    fn a_servable_that_miscounts_its_block_fails_the_block() {
        struct Short;
        impl Servable for Short {
            fn run(&self, input: &Value) -> Result<Value, String> {
                Ok(input.clone())
            }
            fn run_many(&self, inputs: &[Value]) -> Vec<Result<Value, String>> {
                inputs[1..].iter().cloned().map(Ok).collect()
            }
        }
        let short: Arc<dyn Servable> = Arc::new(Short);
        let inputs: Vec<Value> = (0..4).map(Value::Int).collect();
        let want = "servable returned 3 results for 4 inputs";
        let ex = parsl(1);
        assert_eq!(ex.execute("u/short", &short, &inputs).unwrap_err(), want);
        // A single input never reaches `run_many` on a replica.
        assert!(ex.execute("u/short", &short, &inputs[..1]).is_ok());
        let tfs = TfServingExecutor::new();
        assert_eq!(tfs.execute("u/short", &short, &inputs).unwrap_err(), want);
    }

    #[test]
    fn parsl_parallelizes_across_replicas() {
        let ex = parsl(4);
        let slow = servable_fn(|v| {
            std::thread::sleep(Duration::from_millis(25));
            Ok(v.clone())
        });
        let inputs = vec![Value::Null; 4];
        let start = Instant::now();
        ex.execute("u/slow", &slow, &inputs).unwrap();
        let elapsed = start.elapsed();
        // 4 x 25ms on 4 replicas must overlap (well under serial 100ms).
        assert!(elapsed < Duration::from_millis(80), "elapsed {elapsed:?}");
    }

    #[test]
    fn parsl_scale_changes_pool_and_cluster() {
        let ex = parsl(1);
        ex.scale("u/m", 3);
        assert_eq!(ex.replicas("u/m"), 3);
        assert_eq!(ex.cluster.running_pods("parsl-u-m").len(), 3);
        ex.scale("u/m", 1);
        assert_eq!(ex.replicas("u/m"), 1);
        assert_eq!(ex.cluster.running_pods("parsl-u-m").len(), 1);
        // Pool still works after rescale.
        let echo = servable_fn(|v| Ok(v.clone()));
        let (out, _) = ex.execute("u/m", &echo, &[Value::Int(1)]).unwrap();
        assert_eq!(out, vec![Value::Int(1)]);
    }

    #[test]
    fn parsl_scales_to_zero_and_cold_starts_back() {
        let obs = Obs::new();
        let ex = ParslExecutor::new(cluster(), 2, &obs, FaultHandle::default());
        let echo = servable_fn(|v| Ok(v.clone()));
        ex.execute("u/idle", &echo, &[Value::Int(1)]).unwrap();
        assert_eq!(ex.replicas("u/idle"), 2);
        // Park the pool: pods terminated, pool dropped.
        assert_eq!(ex.scale("u/idle", 0), 0);
        assert_eq!(ex.replicas("u/idle"), 0);
        assert!(ex.cluster.running_pods("parsl-u-idle").is_empty());
        // First request after park recreates the pool (cold start).
        let (out, _) = ex.execute("u/idle", &echo, &[Value::Int(2)]).unwrap();
        assert_eq!(out, vec![Value::Int(2)]);
        assert_eq!(ex.replicas("u/idle"), 2);
        // Both pool creations were cold starts; rescales are not.
        assert_eq!(obs.metrics.histogram("cold_start_ns").count(), 2);
        ex.scale("u/idle", 3);
        assert_eq!(obs.metrics.histogram("cold_start_ns").count(), 2);
    }

    #[test]
    fn quarantined_is_tracked_per_pool() {
        let ex = parsl(1).with_health(Some(HealthPolicy {
            quarantine_after: 1,
            quarantine_for: Duration::from_millis(200),
        }));
        let failing = servable_fn(|_| Err("kaboom".into()));
        assert_eq!(ex.quarantined("u/sick"), 0);
        let _ = ex.execute("u/sick", &failing, &[Value::Null]);
        // The single replica strikes out immediately and sits in
        // quarantine; the per-pool counter must see it, and the
        // healthy pool next door must not.
        let deadline = Instant::now() + Duration::from_secs(2);
        while ex.quarantined("u/sick") == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(ex.quarantined("u/sick"), 1);
        assert_eq!(ex.quarantined("u/healthy"), 0);
        // After the quarantine window the replica returns to duty.
        let deadline = Instant::now() + Duration::from_secs(2);
        while ex.quarantined("u/sick") > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(ex.quarantined("u/sick"), 0);
    }

    #[test]
    fn a_chunk_strikes_input_by_input_and_a_success_wipes_the_record() {
        let obs = Obs::new();
        let ex = ParslExecutor::new(cluster(), 1, &obs, FaultHandle::default()).with_health(Some(
            HealthPolicy {
                quarantine_after: 2,
                quarantine_for: Duration::from_millis(1),
            },
        ));
        let picky = servable_fn(|v| match v {
            Value::Int(i) if *i < 0 => Err(format!("item {i} failed")),
            other => Ok(other.clone()),
        });
        // One replica: each task is one chunk, and the next task is
        // only served once a quarantine the last one caused is over.
        let restarts_after = |chunks: &[&[i64]]| {
            for chunk in chunks {
                let inputs: Vec<Value> = chunk.iter().copied().map(Value::Int).collect();
                assert!(ex.execute("u/picky", &picky, &inputs).is_err());
            }
            ex.execute("u/picky", &picky, &[Value::Int(0)]).unwrap();
            obs.metrics.counter("replica_restarts_total").get()
        };
        // A bad input among good ones, chunk after chunk: never two
        // failures in a row.
        let mixed: &[i64] = &[0, -1, 2, 3];
        assert_eq!(restarts_after(&[mixed; 3]), 0);
        // Two in a row inside a chunk, and across two chunks.
        assert_eq!(restarts_after(&[&[0, -1, -2, 3]]), 1);
        assert_eq!(restarts_after(&[&[0, 1, -1], &[-2, 0]]), 2);
    }

    #[test]
    fn inline_executors_report_one_fixed_replica() {
        let tfs = TfServingExecutor::new();
        assert_eq!(Executor::scale(&tfs, "u/m", 5), 1);
        assert_eq!(Executor::replicas(&tfs, "u/m"), 1);
        assert_eq!(Executor::quarantined(&tfs, "u/m"), 0);
    }

    #[test]
    fn parsl_propagates_servable_errors() {
        let ex = parsl(2);
        let failing = servable_fn(|_| Err("kaboom".into()));
        let err = ex
            .execute("u/fail", &failing, &[Value::Null, Value::Null])
            .unwrap_err();
        assert_eq!(err, "kaboom");
    }

    #[test]
    fn panicking_servable_does_not_kill_the_pool() {
        let ex = parsl(2);
        let bomb = servable_fn(|v| {
            if matches!(v, Value::Int(13)) {
                panic!("simulated crash in user code");
            }
            Ok(v.clone())
        });
        // The panicking input yields an error, not a hang.
        let err = ex.execute("u/bomb", &bomb, &[Value::Int(13)]).unwrap_err();
        assert!(err.contains("panicked"), "{err}");
        assert!(err.contains("simulated crash"), "{err}");
        // Both replicas are still alive and serving afterwards.
        let inputs: Vec<Value> = (0..8).map(Value::Int).collect();
        let (outputs, _) = ex.execute("u/bomb", &bomb, &inputs).unwrap();
        assert_eq!(outputs, inputs);
        // A mixed batch reports the panic but the pool survives it.
        let mixed = vec![Value::Int(1), Value::Int(13), Value::Int(2)];
        assert!(ex.execute("u/bomb", &bomb, &mixed).is_err());
        let (outputs, _) = ex.execute("u/bomb", &bomb, &[Value::Int(0)]).unwrap();
        assert_eq!(outputs, vec![Value::Int(0)]);
    }

    #[test]
    fn executor_support_matrix() {
        let parsl = parsl(1);
        let tfs = TfServingExecutor::new();
        let sm = SageMakerExecutor::new();
        assert!(parsl.supports(ModelType::PythonFunction));
        assert!(parsl.supports(ModelType::TensorFlow));
        assert!(tfs.supports(ModelType::TensorFlow));
        assert!(tfs.supports(ModelType::Keras));
        assert!(!tfs.supports(ModelType::ScikitLearn));
        assert!(!tfs.supports(ModelType::PythonFunction));
        assert!(sm.supports(ModelType::ScikitLearn));
    }

    #[test]
    fn tfserving_executes_inline() {
        let tfs = TfServingExecutor::new();
        let noop: Arc<dyn Servable> = Arc::new(NoopServable);
        let (out, times) = tfs.execute("u/noop", &noop, &[Value::Null]).unwrap();
        assert_eq!(out[0], Value::Str("hello world".into()));
        assert_eq!(times.len(), 1);
        assert_eq!(tfs.dispatched(), 1);
        // A task is one call into the servable however many inputs.
        let (out, times) = tfs.execute("u/noop", &noop, &vec![Value::Null; 3]).unwrap();
        assert_eq!((out.len(), times.len()), (3, 3));
        assert_eq!(tfs.dispatched(), 2);
        assert_eq!(tfs.execute("u/noop", &noop, &[]), Ok((vec![], vec![])));
        assert_eq!(tfs.dispatched(), 2);
    }

    #[test]
    fn sagemaker_round_trips_payloads() {
        let sm = SageMakerExecutor::new();
        let echo = servable_fn(|v| Ok(v.clone()));
        let input = Value::Tensor {
            shape: vec![2],
            data: vec![0.25, -1.5],
        };
        let (out, _) = sm
            .execute("u/echo", &echo, std::slice::from_ref(&input))
            .unwrap();
        assert_eq!(out[0], input);
    }

    #[test]
    fn parsl_traced_execution_records_replica_spans() {
        let ex = parsl(2);
        let echo = servable_fn(|v| Ok(v.clone()));
        let obs = Obs::new();
        let root = obs.tracer.start_root("invocation");
        let parent = root.ctx();
        let inputs: Vec<Value> = (0..6).map(Value::Int).collect();
        let (outputs, times) = ex
            .execute_traced("u/echo", &echo, &inputs, Some(&obs), Some(parent))
            .unwrap();
        assert_eq!(outputs, inputs);
        assert_eq!(times.len(), 6);
        obs.tracer.finish(root);
        let export = obs.tracer.export(Some(parent.trace));
        // One span per job: 6 inputs on 2 replicas are 2 jobs of 3.
        let spans = export.named("inference");
        assert_eq!(spans.len(), 2);
        let items = |s: &&SpanRecord| s.attr("items").unwrap().parse::<usize>().unwrap();
        assert_eq!(spans.iter().map(items).sum::<usize>(), 6);
        assert!(spans.iter().all(|s| s.parent == parent.span));
        assert!(spans.iter().all(|s| s.attr("servable") == Some("u/echo")));
        assert!(spans.iter().all(|s| s.attr("replica").is_some()));
    }

    #[test]
    fn default_execute_traced_reconstructs_inference_spans() {
        let tfs = TfServingExecutor::new();
        let noop: Arc<dyn Servable> = Arc::new(NoopServable);
        let obs = Obs::new();
        let root = obs.tracer.start_root("invocation");
        let parent = root.ctx();
        tfs.execute_traced(
            "u/noop",
            &noop,
            &[Value::Null, Value::Null],
            Some(&obs),
            Some(parent),
        )
        .unwrap();
        obs.tracer.finish(root);
        let export = obs.tracer.export(Some(parent.trace));
        let spans = export.named("inference");
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|s| s.parent == parent.span));
        assert!(spans
            .iter()
            .all(|s| s.attr("executor") == Some("tfserving")));
    }

    #[test]
    fn inference_times_are_positive_for_real_work() {
        let ex = parsl(1);
        let busy = servable_fn(|_| {
            std::thread::sleep(Duration::from_millis(5));
            Ok(Value::Null)
        });
        let (_, times) = ex.execute("u/busy", &busy, &[Value::Null]).unwrap();
        assert!(times[0] >= Duration::from_millis(4));
    }
}
