//! The executor (§IV-C).
//!
//! "DLHub … implements an arbitrary executor model that currently
//! supports three serving systems: TensorFlow Serving, SageMaker, and
//! a general-purpose Parsl executor." Here one executor serves every
//! model type: [`ParslExecutor`], a replica pool per servable. The
//! other two systems are the real servers in `dlhub-baselines`, which
//! Fig 8 measures beside it; a second inline copy of each here would
//! be a second runtime nothing serves through.

use crate::servable::{ModelType, Servable};
use crate::value::Value;
use dlhub_fault::{site, Fault, FaultHandle, FaultKind};
use dlhub_obs::{Counter, Gauge, Histogram, Obs, TraceContext};
use dlhub_queue::shard::{Refused, ShardedRing};
use dlhub_sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use dlhub_sync::thread;
use dlhub_sync::time::{instant_at, now_ns, ns_at, Instant};
use dlhub_sync::{Mutex, MutexGuard, RwLock, Slot};
use std::cell::RefCell;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;
use std::time::Duration;

/// What an executor reports for one task: outputs in input order plus
/// per-input inference durations, or the first error.
pub type Execution = Result<(Vec<Value>, Vec<Duration>), String>;

/// A task's outputs in input order, each with the inference time its
/// replica reported: the cells the replicas answered into, handed over
/// as they are, so a Task Manager encodes its reply from them and
/// nothing rebuilds them first.
#[derive(Debug, Clone, PartialEq)]
pub struct Answers {
    cells: Vec<(Value, Duration)>,
    /// Obs-clock stamp at which the last run of the task ended.
    ended_ns: u64,
}

impl Answers {
    /// Outputs, in input order.
    pub fn values(&self) -> impl ExactSizeIterator<Item = &Value> {
        self.cells.iter().map(|(value, _)| value)
    }

    /// Inference times, in input order.
    pub fn times(&self) -> impl ExactSizeIterator<Item = Duration> + '_ {
        self.cells.iter().map(|(_, time)| *time)
    }

    /// When the task's last run ended ([`now_ns`] clock): the stamp a
    /// Task Manager ends the step, and its invocation, at, so answering
    /// reads no clock of its own.
    pub fn ended_ns(&self) -> u64 {
        self.ended_ns
    }

    /// The outputs, for the next step of a chain.
    pub fn into_values(self) -> Vec<Value> {
        self.cells.into_iter().map(|(value, _)| value).collect()
    }

    /// The [`Execution`] form: outputs and times apart.
    pub fn into_parts(self) -> (Vec<Value>, Vec<Duration>) {
        self.cells.into_iter().unzip()
    }
}

/// What [`Executor::dispatch`] completes with: the answers, or the
/// first error in input order.
pub type Answered = Result<Answers, String>;

/// Completion callback of [`Executor::dispatch`].
pub type Done = Box<dyn FnOnce(Answered) + Send>;

/// Where a task sits in its chain, where its spans go and when it was
/// dispatched: what a Task Manager tells an executor beside the task
/// itself. The default is a first step that records nothing and is
/// stamped by the executor.
#[derive(Clone, Copy, Default)]
pub struct ChainStep<'a> {
    /// The task's index in its chain (§VI-D): 0 for a task a Task
    /// Manager took off the queue, *k* ≥ 1 for step *k* of a pipeline,
    /// dispatched from step *k* − 1's completion. A later step is work
    /// the Task Manager already leased: a pooled executor queues it past
    /// the pool's bound instead of waiting for room, so a replica never
    /// waits on another servable's pool.
    pub index: usize,
    /// Record one `inference` span per job, tagged `step` = `index`, in
    /// this `Obs` under this parent (the Task Manager's `invocation`
    /// span). `None` records nothing.
    pub trace: Option<(&'a Obs, TraceContext)>,
    /// When the step was dispatched ([`now_ns`] clock): the task's
    /// receive stamp for a first step, the step before's end for a
    /// later one. The executor times the task's deadline and its jobs'
    /// queue waits from it. `None`: the executor reads the clock.
    pub at_ns: Option<u64>,
}

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
    /// were cut across.
    fn dispatched(&self) -> u64;

    /// [`Executor::execute`] as step `step` of a chain: when the step
    /// carries a trace, record `inference` spans under its parent (the
    /// Task Manager's invocation span). Blocks until the task is
    /// answered or expires: never call it from inside a run.
    fn execute_traced(
        &self,
        servable_id: &str,
        servable: &Arc<dyn Servable>,
        inputs: &[Value],
        step: ChainStep<'_>,
    ) -> Execution;

    /// Completion-passing, zero-copy variant of
    /// [`Executor::execute_traced`]: start the task and return; `done`
    /// is called exactly once, on whichever thread finishes the task,
    /// so the caller never sits on a running inference. The inputs are
    /// handed over by shared ownership, so replicas read them without
    /// cloning `Value` trees.
    fn dispatch(
        &self,
        servable_id: &str,
        servable: &Arc<dyn Servable>,
        inputs: Arc<Vec<Value>>,
        step: ChainStep<'_>,
        done: Done,
    );

    /// Complete, with a timeout error, every dispatched task whose
    /// replicas have not all answered by `now_ns` ([`now_ns`] clock, a
    /// reading the caller already holds). Whoever dispatches without
    /// waiting calls this every loop turn; it costs one atomic load when
    /// nothing is due.
    fn reap_expired(&self, now_ns: u64);
}

/// Trace baggage of a pooled task, so the replica thread records its
/// own exact `inference` span instead of a reconstructed one.
struct JobTrace {
    tracer: dlhub_obs::Tracer,
    parent: TraceContext,
    /// [`ChainStep::index`], tagged on every span.
    step: usize,
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
}

/// The shared countdown of one task, completed exactly once: by the
/// last replica to answer or by an expiry, whichever locks first.
struct Progress {
    /// One cell per input, in input order; a cell holds `Null` until its
    /// input is answered.
    answers: Vec<(Value, Duration)>,
    answered: usize,
    /// The failed input first in input order, and its error.
    first_error: Option<(usize, String)>,
    /// Who to tell: `None` once the task has completed.
    done: Option<Done>,
}

impl Task {
    /// Record one job's answers, for the inputs from `first` on, each
    /// with the same inference time, its run having ended at `ended_ns`;
    /// the last job to answer completes the task (first error in input
    /// order, if any). Returns whether this one did.
    fn answer(
        &self,
        first: usize,
        results: impl IntoIterator<Item = Result<Value, String>>,
        inference: Duration,
        ended_ns: u64,
    ) -> bool {
        let mut progress = self.progress.lock();
        let Progress {
            answers,
            answered,
            first_error,
            ..
        } = &mut *progress;
        let cells = (first..).zip(&mut answers[first..]);
        for ((at, cell), result) in cells.zip(results) {
            match result {
                Ok(value) => *cell = (value, inference),
                Err(e) if first_error.as_ref().is_none_or(|(i, _)| at < *i) => {
                    *first_error = Some((at, e));
                }
                Err(_) => {}
            }
            *answered += 1;
        }
        progress.answered == progress.answers.len()
            && self.complete(progress, |progress| match progress.first_error.take() {
                Some((_, error)) => Err(error),
                None => Ok(Answers {
                    cells: std::mem::take(&mut progress.answers),
                    ended_ns,
                }),
            })
    }

    /// Complete the task with `outcome`, unless it already completed;
    /// returns whether this call did.
    fn complete(
        &self,
        mut progress: MutexGuard<'_, Progress>,
        outcome: impl FnOnce(&mut Progress) -> Answered,
    ) -> bool {
        let Some(done) = progress.done.take() else {
            return false;
        };
        let outcome = outcome(&mut progress);
        // Completions run user code (encode, reply): unlocked.
        drop(progress);
        done(outcome);
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
    /// Obs-clock stamp taken just before the job was handed to the
    /// pool's queue: a replica parked before it measures one hand-off.
    sent_ns: u64,
    /// The fault verdict of a one-input job that could run on its
    /// dispatcher, drawn there.
    verdict: Verdict,
}

/// Whether a job's fault verdict was drawn at dispatch.
#[derive(Clone, Copy)]
enum Verdict {
    /// Whoever runs the job draws one per input.
    Undrawn,
    /// Drawn at dispatch for the job's one input: clean, and the job
    /// stays on its dispatcher, or fired, and a replica runs it.
    Drawn(Option<Fault>),
}

/// Who runs a job.
#[derive(Clone, Copy)]
enum Runner {
    /// Replica `index` of the pool, which began waiting for this job at
    /// obs-clock `idle_since_ns`.
    Replica { index: usize, idle_since_ns: u64 },
    /// The thread that dispatched it: the job never queued.
    Dispatcher,
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
    /// Wall time to bring a servable from zero replicas to serving: the
    /// pool's deployment and, on the servable's first deploy, its model
    /// build ([`Servable::load`]).
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
            thread::sleep(fault.delay);
            servable.run(input)
        }
        // `guarded` catches it: the injected panic fails this input, as
        // a servable's own panic would, never the thread running it.
        Some(fault) if fault.kind == FaultKind::Panic => panic!("injected replica panic"),
        Some(_) => Err("injected replica fault".to_string()),
        None => servable.run(input),
    })
    .unwrap_or_else(Err)
}

/// Run a job of several inputs, pushing one result per input onto
/// `results`.
///
/// Fault verdicts are drawn once per input, in input order, as when
/// every input was a job of its own. Several inputs that draw no fault
/// are one [`Servable::run_many`] call under one panic trap, so a panic
/// in it fails them all. A chunk in which a fault fired runs input by
/// input.
fn run_chunk(
    faults: &FaultHandle,
    servable: &dyn Servable,
    inputs: &[Value],
    results: &mut Vec<Result<Value, String>>,
) {
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

/// `PickupWindow::price` and `PoolState::last_run_ns` sentinel: nothing
/// measured yet, or a failed run.
const UNMEASURED: u64 = u64::MAX;

/// Pickups per bucket of a [`PickupWindow`].
const PICKUPS_PER_BUCKET: u64 = 32;

/// The cheapest recent pickup: the minimum over the last 32 to 64
/// pickups measured, kept as two buckets of [`PICKUPS_PER_BUCKET`]
/// samples. The window advances per sample, never per time: the
/// bucket filling is reset by its first sample, so an outlier ages out
/// after at most 64 later pickups, and a price without new samples
/// stands as it is rather than lapsing to [`UNMEASURED`].
struct PickupWindow {
    /// Pickups recorded so far; the `n`th lands in bucket
    /// `n / PICKUPS_PER_BUCKET % 2`.
    pickups: AtomicU64,
    /// Each bucket's minimum, [`UNMEASURED`] until its first sample.
    buckets: [AtomicU64; 2],
}

impl PickupWindow {
    fn new() -> Self {
        PickupWindow {
            pickups: AtomicU64::new(0),
            buckets: [AtomicU64::new(UNMEASURED), AtomicU64::new(UNMEASURED)],
        }
    }

    /// Add one pickup, measured at `pickup_ns`. Replicas record
    /// concurrently: a sample racing its bucket's reset may be lost,
    /// which only delays the price by one sample.
    fn record(&self, pickup_ns: u64) {
        let n = self.pickups.fetch_add(1, Ordering::Relaxed);
        let bucket = &self.buckets[(n / PICKUPS_PER_BUCKET % 2) as usize];
        match n % PICKUPS_PER_BUCKET {
            0 => bucket.store(pickup_ns, Ordering::Relaxed),
            _ => {
                bucket.fetch_min(pickup_ns, Ordering::Relaxed);
            }
        }
    }

    /// The price of one switch of a hand-off: the smaller bucket
    /// minimum, or [`UNMEASURED`] before the first pickup.
    fn price(&self) -> u64 {
        let [a, b] = &self.buckets;
        a.load(Ordering::Relaxed).min(b.load(Ordering::Relaxed))
    }
}

/// Context switches a hand-off to a parked replica costs the CPU its
/// dispatcher needs: the wake that puts the replica on it, and the park
/// that takes the replica off again once its run is over. A count, not
/// a tuned factor.
const HOP_SWITCHES: u64 = 2;

/// Whether a run that last took `last_run_ns` per input is cheaper on
/// its dispatcher than handed off, when the cheapest recent pickup is
/// `handoff_ns`: the hop is priced as [`HOP_SWITCHES`] switches of that
/// cost each, since a park is the wake's futex call and context switch
/// in reverse and its end cannot be stamped by the thread it takes off
/// the CPU. Never while either is [`UNMEASURED`].
fn cheaper_than_a_hop(last_run_ns: u64, handoff_ns: u64) -> bool {
    let unmeasured = last_run_ns == UNMEASURED || handoff_ns == UNMEASURED;
    !unmeasured && last_run_ns < handoff_ns.saturating_mul(HOP_SWITCHES)
}

/// What every pool of one executor and every dispatching thread share.
struct Shared {
    faults: FaultHandle,
    metrics: HealthMetrics,
    inflight: Inflight,
    /// The cheapest recent pickup of a job sent to a replica already
    /// parked idle: what the wake of a hand-off costs at the least, and
    /// the price of each of its [`HOP_SWITCHES`]. A minimum, so a cold
    /// start, a backlog or a busy CPU never push it up, and a replica
    /// that must be woken cannot take a job faster than a wake; over a
    /// window, so one lucky pickup does not set the price for good.
    handoff: PickupWindow,
    /// Set from the dispatch of a job a dispatcher keeps to the end of
    /// its run: while it is set, every other job goes to a replica. A
    /// servable that turns slow or hangs in a kept run so holds one
    /// dispatcher at most, however many calls for it, or for any other
    /// servable, arrive meanwhile; those wait on replicas under the
    /// reply timeout.
    keeping: AtomicBool,
}

/// What one servable's replicas and its dispatchers share.
struct PoolState {
    /// Every inference span names its servable.
    servable: Arc<str>,
    /// Replicas of *this* pool sitting in quarantine right now. The
    /// reconciler reads it per servable so a quarantine + scale-down
    /// cannot count sick replicas as capacity; the global
    /// `replicas_quarantined` gauge still aggregates across pools.
    quarantined: AtomicUsize,
    /// Per-input time of the servable's last run, in ns, or
    /// [`UNMEASURED`] before its first run and after a failed one.
    last_run_ns: AtomicU64,
}

impl Shared {
    /// Run one job and answer its task: the one body a replica runs for
    /// every job it pulls and a dispatcher runs for a job it keeps.
    /// `judge` sees the job's results, in input order, before they are
    /// answered; its verdict is returned.
    fn serve<T>(
        &self,
        pool: &PoolState,
        job: Job,
        runner: Runner,
        results: &mut Vec<Result<Value, String>>,
        judge: impl FnOnce(&[Result<Value, String>]) -> T,
    ) -> T {
        let Job {
            task,
            items,
            queued_ns,
            sent_ns,
            verdict,
        } = job;
        let inputs = &task.inputs[items.clone()];
        // A lone input runs on its own, under a verdict drawn before its
        // run is timed, as a kept job's is at dispatch.
        let lone = match (inputs, verdict) {
            ([input], Verdict::Drawn(injected)) => Some((input, injected)),
            ([input], Verdict::Undrawn) => Some((input, self.faults.decide(site::REPLICA))),
            _ => None,
        };
        let start_ns = now_ns();
        let queued_ns = match runner {
            Runner::Replica { idle_since_ns, .. } => {
                self.metrics
                    .queue_wait
                    .record(start_ns.saturating_sub(queued_ns));
                // A replica idle for less time than the pickup took may
                // not have parked yet: its pickup measures no wake.
                let pickup_ns = start_ns.saturating_sub(sent_ns);
                let idle_ns = sent_ns.checked_sub(idle_since_ns);
                if idle_ns.is_some_and(|idle_ns| idle_ns >= pickup_ns) {
                    self.handoff.record(pickup_ns);
                }
                queued_ns
            }
            Runner::Dispatcher => start_ns,
        };
        let single = match lone {
            Some((input, injected)) => Some(run_one(injected, &*task.servable, input)),
            None => {
                run_chunk(&self.faults, &*task.servable, inputs, results);
                None
            }
        };
        let end_ns = now_ns();
        if let Runner::Dispatcher = runner {
            self.keeping.store(false, Ordering::Relaxed);
        }
        if let Some(trace) = &task.trace {
            let tracer = &trace.tracer;
            let mut span = tracer.start_child_at(trace.parent, "inference", start_ns);
            span.attr("servable", &pool.servable);
            span.attr("step", trace.step);
            if let Runner::Replica { index, .. } = runner {
                span.attr("replica", index);
            }
            span.attr("executor", "parsl");
            span.attr("queued_ns", queued_ns);
            span.attr("items", inputs.len());
            tracer.finish_at(span, end_ns);
        }
        let ran = match &single {
            Some(result) => std::slice::from_ref(result),
            None => &results[..],
        };
        let verdict = judge(ran);
        // Each input reports an even share of its job's time, so a
        // task's summed inference time is what its runners spent on it.
        let elapsed_ns = end_ns.saturating_sub(start_ns);
        let per_input_ns = elapsed_ns / inputs.len() as u64;
        let pace = match ran.iter().all(Result::is_ok) {
            true => per_input_ns,
            false => UNMEASURED,
        };
        pool.last_run_ns.store(pace, Ordering::Relaxed);
        // The last answer runs the task's completion right here.
        let answers = single.into_iter().chain(results.drain(..));
        let inference = Duration::from_nanos(per_input_ns);
        if task.answer(items.start, answers, inference, end_ns) {
            let address = Arc::as_ptr(&task) as usize;
            self.inflight.tasks.lock().remove(&address);
        }
        verdict
    }
}

thread_local! {
    /// Jobs this thread keeps while it already runs one it kept: the
    /// next step of a chain, dispatched from the completion of the step
    /// before it, runs once that step's run has returned rather than
    /// inside it, so a chain of any length runs at one stack depth.
    static KEPT: RefCell<Option<Vec<Kept>>> = const { RefCell::new(None) };
}

/// A job waiting in [`KEPT`] with what it runs against.
struct Kept {
    shared: Arc<Shared>,
    pool: Arc<PoolState>,
    job: Job,
}

/// Run `job`, whose task has a completion, on this thread: now, or
/// after the kept job this thread is running, then whatever that
/// queued behind it.
fn keep(shared: &Arc<Shared>, pool: &Arc<PoolState>, job: Job) {
    let mut job = Some(job);
    KEPT.with_borrow_mut(|kept| match kept {
        Some(queue) => queue.extend(job.take().map(|job| Kept {
            shared: Arc::clone(shared),
            pool: Arc::clone(pool),
            job,
        })),
        None => *kept = Some(Vec::new()),
    });
    let Some(job) = job else { return };
    shared.serve(pool, job, Runner::Dispatcher, &mut Vec::new(), |_| ());
    while let Some(next) = KEPT.with_borrow_mut(|kept| kept.as_mut().and_then(Vec::pop)) {
        let Kept { shared, pool, job } = next;
        shared.serve(&pool, job, Runner::Dispatcher, &mut Vec::new(), |_| ());
    }
    KEPT.set(None);
}

/// A handle on a pool's queue for whoever sends to it: the queue
/// closes once the pool and every [`Lane`] taken from it have dropped
/// theirs, and the replicas exit once they have drained it.
struct Feed(Arc<ShardedRing<Job>>);

impl Drop for Feed {
    fn drop(&mut self) {
        self.0.close();
    }
}

struct Pool {
    feed: Arc<Feed>,
    workers: Vec<thread::JoinHandle<()>>,
    replicas: usize,
    state: Arc<PoolState>,
}

/// What a dispatcher takes from one look at a pool.
struct Lane {
    feed: Arc<Feed>,
    replicas: usize,
    state: Arc<PoolState>,
}

impl Pool {
    /// Start `replicas` replicas on a new queue. If the system refuses a
    /// thread, the replicas already started are stopped and the refusal
    /// is returned.
    fn spawn(
        servable_id: &str,
        replicas: usize,
        health: Option<HealthPolicy>,
        shared: &Arc<Shared>,
    ) -> Result<Pool, String> {
        // One queued job per replica (`dispatch` bounds its pushes): a
        // dispatcher blocks only on a saturated pool, and whatever it
        // has not pulled yet keeps waiting unleased in the task topic.
        let queue = Arc::new(ShardedRing::new());
        let mut pool = Pool {
            feed: Arc::new(Feed(Arc::clone(&queue))),
            workers: Vec::with_capacity(replicas),
            replicas,
            state: Arc::new(PoolState {
                servable: Arc::from(servable_id),
                quarantined: AtomicUsize::new(0),
                last_run_ns: AtomicU64::new(UNMEASURED),
            }),
        };
        for index in 0..replicas {
            let queue = Arc::clone(&queue);
            let shared = Arc::clone(shared);
            let state = Arc::clone(&pool.state);
            let spawned = thread::Builder::new()
                .name(format!("pod-{servable_id}-{index}"))
                .spawn(move || {
                    // Each worker models one pod replica: pull the
                    // next job (IPP-style load balancing across
                    // the pool), run the servable on its inputs,
                    // answer.
                    let mut strikes = 0u32;
                    // Reused from job to job: a job of several
                    // inputs holds their results here.
                    let mut results = Vec::new();
                    // Spawned, a replica may wait to be scheduled
                    // at all: its first pickup measures no hand-off.
                    let mut idle_since_ns = u64::MAX;
                    while let Some((_, job)) = queue.claim(None) {
                        let runner = Runner::Replica {
                            index,
                            idle_since_ns,
                        };
                        // Health state machine: healthy → suspect
                        // (strikes accumulating) → quarantined →
                        // restarted. The record is kept per input,
                        // in input order: a success wipes it, so a
                        // chunk with one bad input among good ones
                        // is no strike against the replica.
                        let quarantine = shared.serve(&state, job, runner, &mut results, |ran| {
                            health.filter(|policy| {
                                let mut struck_out = false;
                                for result in ran {
                                    strikes = if result.is_ok() { 0 } else { strikes + 1 };
                                    if strikes >= policy.quarantine_after {
                                        (struck_out, strikes) = (true, 0);
                                    }
                                }
                                struck_out
                            })
                        });
                        if let Some(policy) = quarantine {
                            let metrics = &shared.metrics;
                            state.quarantined.fetch_add(1, Ordering::Relaxed);
                            metrics.quarantined.add(1);
                            thread::sleep(policy.quarantine_for);
                            state.quarantined.fetch_sub(1, Ordering::Relaxed);
                            metrics.quarantined.add(-1);
                            metrics.restarts.inc();
                        }
                        idle_since_ns = now_ns();
                    }
                });
            match spawned {
                Ok(worker) => pool.workers.push(worker),
                Err(error) => {
                    pool.shutdown();
                    return Err(format!("cannot start a replica of {servable_id}: {error}"));
                }
            }
        }
        Ok(pool)
    }

    fn shutdown(self) {
        // A dispatch that took a lane before the pool was retired still
        // sends to it: the replicas serve that job, then exit once the
        // lane drops too.
        drop(self.feed);
        // A chain in flight holds its Task Manager's executors, so the
        // last reference can drop on a replica, inside the continuation
        // of the chain's last step: that replica must not join itself.
        // It exits once it returns to the queue this just closed.
        let current = thread::current().id();
        for w in self.workers {
            if w.thread().id() != current {
                let _ = w.join();
            }
        }
    }
}

/// The general-purpose Parsl executor (§IV-C): runs `n` pod replicas
/// per servable, load-balances requests across them, and supports
/// *any* servable type — the property that lets DLHub serve "any
/// Python 3-compatible model or processing function".
///
/// A one-input task whose servable's last run was shorter than a
/// hand-off to a parked replica (its wake and its park, each priced at
/// the cheapest recent pickup) runs on the thread that
/// dispatched it instead: handing it over would cost more than running
/// it. A fault drawn for it, or a failed run, sends the job, or the
/// servable's next one, to a replica. One such job runs on a dispatcher
/// at a time, executor-wide: a servable that hangs mid-run holds one
/// dispatcher, never every one.
pub struct ParslExecutor {
    // Read-mostly: every dispatch reads the pool map, while writes
    // only happen on deploy/rescale. An RwLock lets concurrent
    // requests for different (or the same) servables share the map.
    pools: RwLock<HashMap<String, Pool>>,
    default_replicas: usize,
    dispatched: AtomicU64,
    health: Option<HealthPolicy>,
    /// How long a task waits for all replica answers before it is
    /// declared wedged and completed with a timeout error.
    reply_timeout: Duration,
    shared: Arc<Shared>,
}

impl ParslExecutor {
    /// Create with a default replica count per servable ("a number
    /// configurable in the Management Service").
    /// Replica health (`replicas_quarantined`,
    /// `replica_restarts_total`), cold starts (`cold_start_ns`) and
    /// pickup delay (`replica_queue_wait_ns`) are recorded in `obs`'s
    /// registry; every job consults `faults` at the
    /// [`dlhub_fault::site::REPLICA`] site.
    pub fn new(default_replicas: usize, obs: &Obs, faults: FaultHandle) -> Self {
        let registry = &obs.metrics;
        let metrics = HealthMetrics {
            quarantined: registry.gauge_with_help(
                "replicas_quarantined",
                "Replicas currently quarantined after repeated failures",
            ),
            restarts: registry.counter_with_help(
                "replica_restarts_total",
                "Replica processes restarted by health supervision",
            ),
            cold_start: registry.histogram_with_help(
                "cold_start_ns",
                "Wall time to bring a replica pool from zero to serving, model build included",
            ),
            queue_wait: registry.histogram_with_help(
                "replica_queue_wait_ns",
                "Time jobs spent queued in front of a replica pool",
            ),
        };
        ParslExecutor {
            pools: RwLock::new(HashMap::new()),
            default_replicas: default_replicas.max(1),
            dispatched: AtomicU64::new(0),
            health: Some(HealthPolicy::default()),
            reply_timeout: Duration::from_secs(60),
            shared: Arc::new(Shared {
                faults,
                metrics,
                inflight: Inflight {
                    tasks: Mutex::new(HashMap::new()),
                    next_expiry: AtomicU64::new(NO_EXPIRY),
                },
                handoff: PickupWindow::new(),
                keeping: AtomicBool::new(false),
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

    /// Scale a servable's replica pool. Returns the new replica count,
    /// or the count still serving if the new replicas could not be
    /// started (the pool they were to replace is kept).
    ///
    /// `replicas == 0` is scale-to-zero: the pool's replicas are
    /// stopped and the pool is dropped. The next dispatch (or the
    /// next non-zero `scale`) recreates the pool and pays a cold start,
    /// recorded in the `cold_start_ns` histogram.
    pub fn scale(&self, servable_id: &str, replicas: usize) -> usize {
        if replicas == 0 {
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
        let cold_started = now_ns();
        match self.deploy(servable_id, replicas) {
            Ok(true) => {
                self.record_cold_start(cold_started);
            }
            Ok(false) => {}
            Err(_) => return self.replicas(servable_id),
        }
        replicas
    }

    /// Bring the servable's pool to `replicas` (non-zero); returns
    /// whether the pool was absent, a cold start. A pool whose replicas
    /// cannot be started leaves the one it was to replace serving.
    fn deploy(&self, servable_id: &str, replicas: usize) -> Result<bool, String> {
        let retired = {
            let mut pools = self.pools.write();
            if pools
                .get(servable_id)
                .is_some_and(|p| p.replicas == replicas)
            {
                return Ok(false);
            }
            let pool = Pool::spawn(servable_id, replicas, self.health, &self.shared)?;
            pools.insert(servable_id.to_string(), pool)
        };
        let cold = retired.is_none();
        // As above: join the replaced pool's workers only after the
        // write guard is dropped.
        if let Some(pool) = retired {
            pool.shutdown();
        }
        Ok(cold)
    }

    /// One cold start, begun at obs-clock `since_ns` and over now;
    /// returns now.
    fn record_cold_start(&self, since_ns: u64) -> u64 {
        let now_ns = now_ns();
        self.shared
            .metrics
            .cold_start
            .record(now_ns.saturating_sub(since_ns));
        now_ns
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
            .map_or(0, |p| p.state.quarantined.load(Ordering::Relaxed))
    }

    /// One look at the servable's pool, and whether this call deployed
    /// it: a cold start, for the caller to record. The reconciler's idle
    /// park can retire the pool between deploy and look: a cold start to
    /// retry, never a panic on a live thread. A pool that cannot start
    /// its replicas fails the task.
    fn pool_sender(&self, servable_id: &str) -> Result<(Lane, bool), String> {
        let mut cold = false;
        for _ in 0..4 {
            if let Some(pool) = self.pools.read().get(servable_id) {
                let lane = Lane {
                    feed: Arc::clone(&pool.feed),
                    replicas: pool.replicas,
                    state: Arc::clone(&pool.state),
                };
                return Ok((lane, cold));
            }
            cold |= self.deploy(servable_id, self.default_replicas)?;
        }
        Err("executor pool shut down".to_string())
    }

    /// Make the servable ready for a task's jobs: its pool deployed if
    /// absent and its model loaded ([`Servable::load`]: a deferred model
    /// is built here, once, before its first job leaves). Returns the
    /// pool and the obs-clock instant it was ready. A deployment or
    /// build here is one cold start, begun at `since_ns`: inside the
    /// Task Manager's invocation, never inside an inference. A build
    /// that panics fails the task, not this thread.
    fn ready(
        &self,
        servable_id: &str,
        servable: &dyn Servable,
        since_ns: u64,
    ) -> Result<(Lane, u64), String> {
        let (lane, cold) = self.pool_sender(servable_id)?;
        let built = guarded(|| servable.load())?;
        let ready_ns = match cold || built {
            true => self.record_cold_start(since_ns),
            false => since_ns,
        };
        Ok((lane, ready_ns))
    }

    /// Whether a one-input task for the servable of `pool` is cheaper
    /// run on its dispatcher than handed to a replica: the servable's
    /// last run was shorter than a hand-off's wake and park, each priced
    /// at the cheapest recent pickup ([`cheaper_than_a_hop`]). Never
    /// before both are measured, nor after a failed run. Such a task
    /// stays on its dispatcher only if no other kept job is running
    /// (`Shared::keeping`).
    fn sub_hop(&self, pool: &PoolState) -> bool {
        cheaper_than_a_hop(
            pool.last_run_ns.load(Ordering::Relaxed),
            self.shared.handoff.price(),
        )
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
        self.execute_traced(servable_id, servable, inputs, ChainStep::default())
    }

    fn dispatched(&self) -> u64 {
        self.dispatched.load(Ordering::Relaxed)
    }

    /// Blocking execution: [`Executor::dispatch`] with a completion
    /// that fills a local slot, then a wait on the slot; once the task's
    /// deadline has passed, the expiry below completes it. Never called
    /// from inside a run: a job kept there would wait for that run, and
    /// so for this wait, to end.
    fn execute_traced(
        &self,
        servable_id: &str,
        servable: &Arc<dyn Servable>,
        inputs: &[Value],
        step: ChainStep<'_>,
    ) -> Execution {
        let outcome = Arc::new(Slot::new());
        let answered = Arc::clone(&outcome);
        let inputs = Arc::new(inputs.to_vec());
        let done: Done = Box::new(move |outcome| {
            answered.fill(outcome);
        });
        self.dispatch(servable_id, servable, inputs, step, done);
        // The task was ready by the time dispatch returned, so its
        // deadline is at most one reply timeout away.
        let mut left = self.reply_timeout;
        loop {
            // Nothing closes the slot: the wait only times out.
            match outcome.take(Instant::now().checked_add(left)) {
                Ok(outcome) => return outcome.map(Answers::into_parts),
                Err(_) => self.reap_expired(now_ns()),
            }
            // Past the deadline another thread may be mid-expiry.
            left = Duration::from_millis(1);
        }
    }

    /// The one fan-out path, where the serving path lands: the decoded
    /// request batch is shared with every replica job as-is (no `Value`
    /// deep clones between the wire and the servable), cut into one
    /// contiguous chunk per replica (`min(inputs, replicas)` jobs, sizes
    /// differing by at most one) onto the servable's pool, so a batch
    /// costs each replica one hand-off and reaches the servable as a
    /// block. How finely to cut is not an option: fewer jobs than
    /// replicas leave replicas idle, more only add hand-offs. A
    /// one-input task of a sub-hop servable ([`ParslExecutor::sub_hop`])
    /// that draws no fault is not handed off at all: this thread runs
    /// it. Whichever thread completes the task calls `done`. A
    /// dispatcher parked on a saturated pool looks for expired tasks
    /// every [`TICK`]; a later chain step is never parked
    /// ([`ChainStep::index`]).
    fn dispatch(
        &self,
        servable_id: &str,
        servable: &Arc<dyn Servable>,
        inputs: Arc<Vec<Value>>,
        step: ChainStep<'_>,
        done: Done,
    ) {
        let count = inputs.len();
        let started_ns = step.at_ns.unwrap_or_else(now_ns);
        let timeout_ns = self.reply_timeout.as_nanos().min(u64::MAX as u128) as u64;
        // Spans are recorded by whoever runs a job, so each carries
        // exact start/end stamps and the replica, if any, that ran it.
        let trace = match step.trace {
            Some((obs, parent)) if obs.tracer.enabled() => Some(JobTrace {
                tracer: obs.tracer.clone(),
                parent,
                step: step.index,
            }),
            _ => None,
        };
        // Deploy before the task's clocks start: neither a pool's
        // deployment nor a model's build counts against the reply
        // timeout or as the first job's queue wait.
        let ready = match count {
            0 => Ok(None),
            _ => self.ready(servable_id, &**servable, started_ns).map(Some),
        };
        let ready_ns = match &ready {
            Ok(Some((_, ready_ns))) => *ready_ns,
            _ => started_ns,
        };
        let task = Arc::new(Task {
            servable: Arc::clone(servable),
            inputs,
            trace,
            deadline_ns: ready_ns.saturating_add(timeout_ns).min(NO_EXPIRY - 1),
            progress: Mutex::new(Progress {
                answers: vec![(Value::Null, Duration::ZERO); count],
                answered: 0,
                first_error: None,
                done: Some(done),
            }),
        });
        let Lane {
            feed,
            replicas,
            state,
        } = match ready {
            Ok(Some((lane, _))) => lane,
            Ok(None) => {
                let empty = Answers {
                    cells: Vec::new(),
                    ended_ns: started_ns,
                };
                task.complete(task.progress.lock(), |_| Ok(empty));
                return;
            }
            Err(error) => return task.fail(&error),
        };
        let inflight = &self.shared.inflight;
        let address = Arc::as_ptr(&task) as usize;
        inflight.tasks.lock().insert(address, Arc::clone(&task));
        inflight
            .next_expiry
            .fetch_min(task.deadline_ns, Ordering::SeqCst);
        // The fault verdict of a job that could stay here is drawn once
        // it holds the executor's one kept run: one that fires gives the
        // run back and sends the job to a replica, carrying it.
        let mut verdict = Verdict::Undrawn;
        let keeping = &self.shared.keeping;
        if count == 1 && self.sub_hop(&state) && !keeping.swap(true, Ordering::Relaxed) {
            let injected = self.shared.faults.decide(site::REPLICA);
            verdict = Verdict::Drawn(injected);
            if injected.is_none() {
                self.dispatched.fetch_add(1, Ordering::Relaxed);
                let job = Job {
                    task: Arc::clone(&task),
                    items: 0..1,
                    queued_ns: ready_ns,
                    sent_ns: ready_ns,
                    verdict,
                };
                // Its completion may dispatch the next step of a chain,
                // which waits its turn on this thread.
                return keep(&self.shared, &state, job);
            }
            keeping.store(false, Ordering::Relaxed);
        }
        // Sending happens outside the `pools` read guard: a saturated
        // pool blocks this dispatcher, never a rescale of any pool.
        let queue = &feed.0;
        let jobs = count.min(replicas);
        let (share, larger) = (count / jobs, count % jobs);
        let mut next = 0;
        // Every job queues from the task's ready stamp. The send is
        // stamped afresh, once per task: it prices the hop
        // (`Shared::handoff`), and the dispatcher's decode and pool
        // lookup before it are paid by a kept run too.
        let sent_ns = now_ns();
        for number in 0..jobs {
            self.dispatched.fetch_add(1, Ordering::Relaxed);
            let items = next..next + share + usize::from(number < larger);
            next = items.end;
            let mut job = Job {
                task: Arc::clone(&task),
                items,
                queued_ns: ready_ns,
                sent_ns,
                verdict,
            };
            // A later chain step is sent from the thread that finished
            // the step before it. Waiting here for room could hold a
            // replica on a pool whose replicas wait on its own (A → B
            // beside B → A), so it queues past the bound: a chain in
            // flight has one step queued or running at a time, and the
            // chains in flight are bounded by the first steps the
            // bound admitted. The lane holds the queue open until this
            // dispatch returns, so that push needs no check.
            if step.index > 0 {
                queue.force_reserve();
                queue.push_back(job);
                continue;
            }
            // A dispatcher parked on a saturated pool still looks for
            // expired tasks, and gives up once its own has expired:
            // hung replicas hold it for `reply_timeout` at most.
            let mut tick_from = instant_at(sent_ns);
            while let Err((refused, unsent)) =
                queue.push_within(job, Some(replicas), Some(tick_from + TICK))
            {
                if refused == Refused::Closed {
                    inflight.tasks.lock().remove(&address);
                    return task.fail("executor pool shut down");
                }
                job = unsent;
                tick_from = Instant::now();
                self.reap_expired(ns_at(tick_from));
                if task.progress.lock().done.is_none() {
                    return;
                }
            }
        }
    }

    fn reap_expired(&self, now: u64) {
        let inflight = &self.shared.inflight;
        let due = inflight.next_expiry.load(Ordering::SeqCst);
        if due == NO_EXPIRY || now < due {
            return;
        }
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
}

impl Drop for ParslExecutor {
    fn drop(&mut self) {
        for (_, pool) in self.pools.write().drain() {
            pool.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::servable::builtins::NoopServable;
    use crate::servable::servable_fn;
    use dlhub_obs::SpanRecord;

    /// An executor on its own: an `Obs` nobody reads, no faults.
    fn parsl(replicas: usize) -> ParslExecutor {
        ParslExecutor::new(replicas, &Obs::new(), FaultHandle::default())
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
            let ex = ParslExecutor::new(1, &Obs::new(), faults.clone()).with_health(None);
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
    fn parsl_scale_changes_the_pool() {
        let ex = parsl(1);
        ex.scale("u/m", 3);
        assert_eq!(ex.replicas("u/m"), 3);
        ex.scale("u/m", 1);
        assert_eq!(ex.replicas("u/m"), 1);
        // Pool still works after rescale.
        let echo = servable_fn(|v| Ok(v.clone()));
        let (out, _) = ex.execute("u/m", &echo, &[Value::Int(1)]).unwrap();
        assert_eq!(out, vec![Value::Int(1)]);
    }

    #[test]
    fn parsl_scales_to_zero_and_cold_starts_back() {
        let obs = Obs::new();
        let ex = ParslExecutor::new(2, &obs, FaultHandle::default());
        let echo = servable_fn(|v| Ok(v.clone()));
        ex.execute("u/idle", &echo, &[Value::Int(1)]).unwrap();
        assert_eq!(ex.replicas("u/idle"), 2);
        // Park the pool: replicas stopped, pool dropped.
        assert_eq!(ex.scale("u/idle", 0), 0);
        assert_eq!(ex.replicas("u/idle"), 0);
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
    fn a_dispatch_holding_its_pool_survives_a_scale_to_zero() {
        use crate::servable::deferred;
        use std::sync::Barrier;
        let ex = Arc::new(parsl(1));
        // The build runs between the dispatcher's look at the pool and
        // its send, so the dispatcher holds the pool while it blocks.
        let (entered, release) = (Arc::new(Barrier::new(2)), Arc::new(Barrier::new(2)));
        let model = {
            let (entered, release) = (Arc::clone(&entered), Arc::clone(&release));
            deferred(move || {
                entered.wait();
                release.wait();
                NoopServable
            })
        };
        let dispatch = {
            let ex = Arc::clone(&ex);
            std::thread::spawn(move || ex.execute("u/held", &model, &[Value::Null]))
        };
        entered.wait();
        let retire = {
            let ex = Arc::clone(&ex);
            std::thread::spawn(move || ex.scale("u/held", 0))
        };
        let deadline = Instant::now() + Duration::from_secs(5);
        while ex.replicas("u/held") != 0 {
            assert!(Instant::now() < deadline, "the pool was never retired");
            std::thread::sleep(Duration::from_millis(1));
        }
        release.wait();
        let (outputs, _) = dispatch.join().unwrap().unwrap();
        assert_eq!(outputs, vec![Value::Str("hello world".into())]);
        assert_eq!(retire.join().unwrap(), 0);
    }

    #[test]
    fn a_deferred_model_is_built_once_inside_its_first_cold_start() {
        use crate::servable::deferred;
        let obs = Obs::new();
        let ex = ParslExecutor::new(2, &obs, FaultHandle::default());
        let cold_starts = || obs.metrics.histogram("cold_start_ns").count();
        let builds = Arc::new(AtomicUsize::new(0));
        let counted = || {
            let builds = Arc::clone(&builds);
            deferred(move || {
                builds.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(20));
                NoopServable
            })
        };
        // First deploy: one cold start covering the pool and the build,
        // and none of the build in the inference.
        let model = counted();
        let (_, times) = ex.execute("u/model", &model, &[Value::Null]).unwrap();
        assert_eq!((builds.load(Ordering::SeqCst), cold_starts()), (1, 1));
        assert!(times[0] < Duration::from_millis(20), "{times:?}");
        let cold = Duration::from_nanos(obs.metrics.histogram("cold_start_ns").sum());
        assert!(cold >= Duration::from_millis(20), "{cold:?}");
        // Nor in the job's queue wait, which admission reads as backlog.
        let waited = obs.metrics.histogram("replica_queue_wait_ns").sum();
        assert!(Duration::from_nanos(waited) < Duration::from_millis(20));
        // Nor against the reply timeout: a build longer than the timeout
        // still gets its answer. The pool is deployed first, so the
        // timeout covers a parked replica's wake, not a new thread's
        // first scheduling.
        let tight = ParslExecutor::new(1, &Obs::new(), FaultHandle::default())
            .with_reply_timeout(Duration::from_millis(5));
        let slow = deferred(|| {
            std::thread::sleep(Duration::from_millis(20));
            NoopServable
        });
        tight.scale("u/tight", 1);
        tight.execute("u/tight", &slow, &[Value::Null]).unwrap();
        // Parked and back: the pool is a cold start again, the model is
        // kept.
        ex.scale("u/model", 0);
        ex.execute("u/model", &model, &[Value::Null]).unwrap();
        assert_eq!((builds.load(Ordering::SeqCst), cold_starts()), (1, 2));
        // A pool deployed ahead of traffic: the build is a cold start of
        // its own, on the first task.
        ex.scale("u/early", 2);
        assert_eq!(cold_starts(), 3);
        ex.execute("u/early", &counted(), &[Value::Null]).unwrap();
        assert_eq!((builds.load(Ordering::SeqCst), cold_starts()), (2, 4));
        // A build that panics fails its task, not the dispatching thread.
        let broken = deferred(|| -> NoopServable { panic!("no weights") });
        let err = ex.execute("u/broken", &broken, &[Value::Null]).unwrap_err();
        assert!(err.contains("panicked: no weights"), "{err}");
        ex.execute("u/model", &model, &[Value::Null]).unwrap();
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
        let ex =
            ParslExecutor::new(1, &obs, FaultHandle::default()).with_health(Some(HealthPolicy {
                quarantine_after: 2,
                quarantine_for: Duration::from_millis(1),
            }));
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
    fn parsl_traced_execution_records_replica_spans() {
        let ex = parsl(2);
        let echo = servable_fn(|v| Ok(v.clone()));
        let obs = Obs::new();
        let root = obs.tracer.start_root("invocation");
        let parent = root.ctx().expect("recorded");
        let inputs: Vec<Value> = (0..6).map(Value::Int).collect();
        let step = ChainStep {
            index: 2,
            trace: Some((&obs, parent)),
            at_ns: None,
        };
        let (outputs, times) = ex.execute_traced("u/echo", &echo, &inputs, step).unwrap();
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
        assert!(spans.iter().all(|s| s.attr("step") == Some("2")));
        assert!(spans.iter().all(|s| s.attr("replica").is_some()));
    }

    /// The name of the thread this runs on.
    fn here() -> String {
        std::thread::current().name().unwrap_or("").to_string()
    }

    /// A servable that logs the name of the thread each call runs on,
    /// then does what `behave` says.
    fn placed(
        behave: impl Fn() -> Result<(), String> + Send + Sync + 'static,
    ) -> (Arc<dyn Servable>, Arc<Mutex<Vec<String>>>) {
        let log = Arc::new(Mutex::new(Vec::new()));
        let seen = Arc::clone(&log);
        let servable = servable_fn(move |v| {
            seen.lock().push(here());
            behave().map(|()| v.clone())
        });
        (servable, log)
    }

    /// Call `servable` until a call runs on this thread, `calls` times
    /// at most; returns whether one did. Calls are a millisecond apart,
    /// as requests that arrive apart: the replica is parked when the
    /// next one is sent.
    fn warm(
        ex: &ParslExecutor,
        (id, servable): (&str, &Arc<dyn Servable>),
        log: &Mutex<Vec<String>>,
        calls: usize,
    ) -> bool {
        (0..calls).any(|_| {
            std::thread::sleep(Duration::from_millis(1));
            ex.execute(id, servable, &[Value::Null]).unwrap();
            log.lock().last() == Some(&here())
        })
    }

    #[test]
    fn a_run_stays_on_its_dispatcher_only_when_shorter_than_a_wake_and_a_park() {
        const MAX: u64 = u64::MAX;
        // (last run, cheapest pickup, kept), pickup 1.5 µs: a hop costs 3 µs.
        let table = [
            (UNMEASURED, UNMEASURED, false),
            (UNMEASURED, 1_500, false),
            (0, UNMEASURED, false),
            (1_000, UNMEASURED, false),
            (0, 1_500, true),
            // A run as long as one pickup still stays: the hop also
            // costs the replica's park.
            (1_499, 1_500, true),
            (1_500, 1_500, true),
            (2_999, 1_500, true),
            (3_000, 1_500, false),
            (3_001, 1_500, false),
            (1_000_000, 1_500, false),
            // A pickup of 0 ns prices the hop at nothing: nothing is
            // cheaper than it.
            (0, 0, false),
            // The doubling saturates rather than wrap to a small price.
            (1, MAX / 2 + 1, true),
            (MAX - 2, MAX - 1, true),
            (MAX - 1, MAX - 1, true),
            (UNMEASURED, MAX - 1, false),
        ];
        for (last_run_ns, handoff_ns, kept) in table {
            assert_eq!(
                cheaper_than_a_hop(last_run_ns, handoff_ns),
                kept,
                "last run {last_run_ns} ns, pickup {handoff_ns} ns"
            );
        }
    }

    #[test]
    fn the_hop_price_forgets_a_lucky_pickup_within_64_later_ones() {
        const N: u64 = PICKUPS_PER_BUCKET;
        // (pickups recorded in order, the price after them).
        let table: Vec<(Vec<u64>, u64)> = vec![
            // No pickup yet: unmeasured.
            (vec![], UNMEASURED),
            (vec![3_000], 3_000),
            (vec![3_000, 2_800, 3_500], 2_800),
            // A lucky 500 ns pickup first, then steady 3 µs ones: it
            // holds while its bucket is one of the two in the window...
            (
                std::iter::once(500)
                    .chain(std::iter::repeat_n(3_000, 2 * N as usize - 1))
                    .collect(),
                500,
            ),
            // ...and is gone once its bucket is refilled: the 64th
            // pickup after it.
            (
                std::iter::once(500)
                    .chain(std::iter::repeat_n(3_000, 2 * N as usize))
                    .collect(),
                3_000,
            ),
            // An outlier late in a bucket lasts one more bucket only.
            (
                std::iter::repeat_n(3_000, N as usize - 1)
                    .chain([500])
                    .chain(std::iter::repeat_n(3_000, 2 * N as usize))
                    .collect(),
                3_000,
            ),
            // Dearer pickups raise the price only as the cheap ones age.
            (
                std::iter::repeat_n(2_000, 2 * N as usize)
                    .chain(std::iter::repeat_n(4_000, N as usize))
                    .collect(),
                2_000,
            ),
            (
                std::iter::repeat_n(2_000, 2 * N as usize)
                    .chain(std::iter::repeat_n(4_000, 2 * N as usize))
                    .collect(),
                4_000,
            ),
        ];
        for (pickups, price) in table {
            let window = PickupWindow::new();
            for &pickup in &pickups {
                window.record(pickup);
            }
            assert_eq!(window.price(), price, "after {} pickups", pickups.len());
            // No further pickup, however long: the price stands.
            assert_eq!(window.price(), price);
        }
    }

    #[test]
    fn a_windowed_price_never_undercuts_the_lifetime_minimum() {
        let window = PickupWindow::new();
        let mut lifetime = UNMEASURED;
        let mut x = 0x2545_f491_4f6c_dd1d_u64;
        for _ in 0..1_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let pickup = 1_000 + x % 4_000;
            window.record(pickup);
            lifetime = lifetime.min(pickup);
            let price = window.price();
            assert!(price >= lifetime, "{price} < {lifetime}");
            // So a run kept at the windowed price is kept at the
            // lifetime one: no kept job moves to a replica.
            for run in [price, 2 * price - 1, 2 * price] {
                if cheaper_than_a_hop(run, lifetime) {
                    assert!(cheaper_than_a_hop(run, price), "{run} {price}");
                }
            }
        }
    }

    #[test]
    fn the_hop_price_at_its_edges_decides_what_stays() {
        let window = PickupWindow::new();
        // Unmeasured: nothing stays, not even a run of no time.
        assert!(!cheaper_than_a_hop(0, window.price()));
        window.record(1_500);
        assert!(cheaper_than_a_hop(2_999, window.price()));
        assert!(!cheaper_than_a_hop(3_000, window.price()));
        // A lucky 100 ns pickup lowers the price until it ages out.
        window.record(100);
        assert!(!cheaper_than_a_hop(2_999, window.price()));
        for _ in 0..2 * PICKUPS_PER_BUCKET {
            window.record(1_500);
        }
        assert!(cheaper_than_a_hop(2_999, window.price()));
        assert!(!cheaper_than_a_hop(UNMEASURED, window.price()));
    }

    #[test]
    fn a_sub_hop_servable_runs_on_a_replica_first_then_on_its_caller() {
        let obs = Obs::new();
        let ex = ParslExecutor::new(1, &obs, FaultHandle::default());
        let (quick, log) = placed(|| Ok(()));
        // Nothing is measured before the first call, so it runs on the
        // pool's replica. Once a pickup by a parked replica is measured
        // and the servable ran faster than it, calls stay here.
        assert!(
            warm(&ex, ("u/quick", &quick), &log, 10),
            "{:?}",
            *log.lock()
        );
        // With one caller, what the executor measured before a call
        // decides where it runs: a run that host noise made look slow
        // sends the next call to the replica, and only that one.
        let state = Arc::clone(&ex.pools.read()["u/quick"].state);
        for call in 0..20 {
            let sub_hop = ex.sub_hop(&state);
            ex.execute("u/quick", &quick, &[Value::Null]).unwrap();
            let ran_here = log.lock().last() == Some(&here());
            assert_eq!(ran_here, sub_hop, "call {call}: {:?}", *log.lock());
        }
        let calls = log.lock().clone();
        assert!(calls[0].starts_with("pod-u/quick-"), "{calls:?}");
        // A job kept here is still a dispatched job, but it never queued.
        assert_eq!(ex.dispatched(), calls.len() as u64);
        let waits = obs.metrics.histogram("replica_queue_wait_ns").count();
        let handed_off = calls.iter().filter(|t| **t != here()).count();
        assert_eq!(waits, handed_off as u64);
        // Its span names no replica and reads no wait.
        let root = obs.tracer.start_root("invocation");
        let parent = root.ctx().expect("recorded");
        let step = ChainStep {
            index: 0,
            trace: Some((&obs, parent)),
            at_ns: None,
        };
        let ran_here: Vec<bool> = (0..5)
            .map(|_| {
                ex.execute_traced("u/quick", &quick, &[Value::Null], step)
                    .unwrap();
                log.lock().last() == Some(&here())
            })
            .collect();
        obs.tracer.finish(root);
        let export = obs.tracer.export(Some(parent.trace));
        let spans = export.named("inference");
        assert!(ran_here.iter().any(|here| *here), "{ran_here:?}");
        for (span, here) in spans.iter().zip(ran_here) {
            assert_eq!(span.attr("replica").is_none(), here);
            if here {
                assert_eq!(span.attr("queued_ns"), Some(&*span.start_ns.to_string()));
            }
        }
    }

    #[test]
    fn a_slow_first_pickup_never_keeps_a_millisecond_servable_on_its_caller() {
        let obs = Obs::new();
        let ex = ParslExecutor::new(1, &obs, FaultHandle::default());
        let (millisecond, log) = placed(|| {
            std::thread::sleep(Duration::from_millis(1));
            Ok(())
        });
        // Stall the pool's first dispatch between its queue stamp and
        // its send by holding the table of tasks in flight: its job's
        // pickup waits over 5 ms, however fast the replica takes it.
        // The 6 ms count from the pool's deployment, which `ready` does
        // just before the stamp, not from the spawn.
        let stall = ex.shared.inflight.tasks.lock();
        std::thread::scope(|scope| {
            let first = scope.spawn(|| ex.execute("u/ms", &millisecond, &[Value::Null]));
            while ex.replicas("u/ms") == 0 {
                std::thread::yield_now();
            }
            std::thread::sleep(Duration::from_millis(6));
            drop(stall);
            first.join().unwrap().unwrap();
        });
        let waited = obs.metrics.histogram("replica_queue_wait_ns").sum();
        assert!(Duration::from_nanos(waited) >= Duration::from_millis(5));
        // That wait was no hand-off: a run of 1 ms is still no cheaper
        // than handing the job over, call after call.
        for _ in 0..10 {
            ex.execute("u/ms", &millisecond, &[Value::Null]).unwrap();
        }
        let calls = log.lock().clone();
        assert!(
            calls.iter().all(|t| t.starts_with("pod-u/ms-")),
            "{calls:?}"
        );
    }

    #[test]
    fn a_servable_that_turns_slow_runs_on_its_caller_at_most_once() {
        let slow = Arc::new(Mutex::new(Duration::ZERO));
        let turns = Arc::clone(&slow);
        let (servable, log) = placed(move || {
            std::thread::sleep(*turns.lock());
            Ok(())
        });
        let ex = parsl(1);
        assert!(
            warm(&ex, ("u/turns", &servable), &log, 10),
            "{:?}",
            *log.lock()
        );
        let warmed = log.lock().len();
        // Slower than any hand-off measured so far, or to come.
        let handoff = Duration::from_nanos(ex.shared.handoff.price());
        *slow.lock() = 2 * handoff.max(Duration::from_millis(1));
        for _ in 0..10 {
            ex.execute("u/turns", &servable, &[Value::Null]).unwrap();
        }
        let calls = log.lock().clone();
        let kept = calls[warmed..].iter().filter(|t| **t == here()).count();
        assert!(kept <= 1, "{calls:?}");
    }

    #[test]
    fn a_drawn_fault_or_a_failed_run_sends_the_job_to_a_replica() {
        use dlhub_fault::{FaultPlan, FaultSpec};
        // One call is one arrival at the replica site; the eleventh is
        // slowed, once.
        let slow = FaultSpec::new(FaultKind::Slow)
            .delay(Duration::from_millis(1))
            .after(10)
            .max(1);
        let faults = FaultPlan::seeded(7).inject(site::REPLICA, slow).build();
        let ex = ParslExecutor::new(1, &Obs::new(), faults.clone());
        let (servable, log) = placed(|| Ok(()));
        assert!(
            warm(&ex, ("u/drawn", &servable), &log, 9),
            "{:?}",
            *log.lock()
        );
        while faults.arrivals(site::REPLICA) < 10 {
            ex.execute("u/drawn", &servable, &[Value::Null]).unwrap();
        }
        assert_eq!(log.lock().last(), Some(&here()));
        // The verdict is drawn here, fires, and goes with the job.
        ex.execute("u/drawn", &servable, &[Value::Null]).unwrap();
        assert_eq!(faults.injected(site::REPLICA), 1);
        assert!(log.lock().last().unwrap().starts_with("pod-u/drawn-"));

        // A failed run here sends the next job to a replica.
        let failing = Arc::new(AtomicBool::new(false));
        let fails = Arc::clone(&failing);
        let (servable, log) = placed(move || match fails.load(Ordering::Relaxed) {
            true => Err("kaboom".to_string()),
            false => Ok(()),
        });
        let ex = parsl(1);
        // Host noise can make the run before look slow and send the
        // failing call to the replica: warm up and fail again.
        let failed_here = (0..5).any(|_| {
            assert!(
                warm(&ex, ("u/fails", &servable), &log, 9),
                "{:?}",
                *log.lock()
            );
            failing.store(true, Ordering::Relaxed);
            let err = ex
                .execute("u/fails", &servable, &[Value::Null])
                .unwrap_err();
            failing.store(false, Ordering::Relaxed);
            assert_eq!(err, "kaboom");
            log.lock().last() == Some(&here())
        });
        assert!(failed_here, "{:?}", *log.lock());
        ex.execute("u/fails", &servable, &[Value::Null]).unwrap();
        assert!(log.lock().last().unwrap().starts_with("pod-u/fails-"));
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
