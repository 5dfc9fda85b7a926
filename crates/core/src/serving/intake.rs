//! Intake that does not run on the caller's thread: the async worker
//! pool with its task table, and the auto-batcher whose flushes arrive
//! on the request path as one batch.

use super::ManagementService;
use crate::batch::{BatchSizing, Batcher};
use crate::error::DlhubError;
use crate::task::{next_task_id, TaskHandle, TaskStatus};
use crate::value::Value;
use dlhub_auth::Token;
use dlhub_fault::site;
use dlhub_obs::{Gauge, Ledger};
use dlhub_queue::shard::ShardedRing;
use dlhub_sync::thread;
use dlhub_sync::time::{ns_at, Instant};
use std::sync::Arc;
use std::time::Duration;

type Job = Box<dyn FnOnce() + Send>;

/// A fixed-size worker pool behind one unbounded queue, replacing the
/// thread-per-request dispatch of async runs. Dropping the pool closes
/// the queue; a worker claims every queued job before it sees the
/// close, so no accepted request is dropped.
pub(super) struct AsyncPool {
    jobs: Arc<ShardedRing<Job>>,
    /// Jobs waiting in the queue.
    depth: Arc<Gauge>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl AsyncPool {
    /// `active` counts workers currently running a job (pool
    /// occupancy).
    pub(super) fn new(workers: usize, depth: Arc<Gauge>, active: Arc<Gauge>) -> Self {
        let jobs = Arc::new(ShardedRing::<Job>::new());
        let workers = (0..workers.max(1))
            .map(|i| {
                let queue = Arc::clone(&jobs);
                let depth = Arc::clone(&depth);
                let active = Arc::clone(&active);
                thread::Builder::new()
                    .name(format!("dlhub-async-{i}"))
                    .spawn(move || {
                        while let Some((_, job)) = queue.claim(None) {
                            depth.add(-1);
                            active.add(1);
                            job();
                            active.add(-1);
                        }
                    })
                    // Runs once, while the service is built, never on a
                    // request: only an OS out of threads refuses, and a
                    // service without its pool could accept no async run.
                    .expect("spawn async pool worker")
            })
            .collect();
        AsyncPool {
            jobs,
            depth,
            workers,
        }
    }

    fn submit(&self, job: Job) {
        self.depth.add(1);
        self.jobs.force_reserve();
        self.jobs.push_back(job);
    }
}

impl Drop for AsyncPool {
    fn drop(&mut self) {
        self.jobs.close();
        // The last Arc<ManagementService> can be dropped from inside a
        // pool job, making a worker run this destructor: it must not
        // join itself.
        let current = thread::current().id();
        for worker in self.workers.drain(..) {
            if worker.thread().id() != current {
                let _ = worker.join();
            }
        }
    }
}

impl ManagementService {
    /// Submit through the auto-batcher: the request is coalesced with
    /// concurrent requests for the same servable into one dispatch.
    pub fn run_batched(
        self: &Arc<Self>,
        token: &Token,
        id: &str,
        input: Value,
    ) -> Result<Value, DlhubError> {
        let arrived = Instant::now();
        let (tenant, ledger) = self.preflight(token, id, std::slice::from_ref(&input), arrived)?;
        // A submitter has no frame: its request is recorded by the
        // flush that carries it, so a shed here shows only on
        // `requests_shed_total`. The permit covers the coalescing wait
        // and the flush this caller blocks on: submit() returns only
        // once its batch ran.
        let _permit = self.admit(tenant)?;
        self.batcher(&ledger).submit(input)
    }

    /// The auto-batcher of `ledger`'s servable, created on first use.
    fn batcher(self: &Arc<Self>, ledger: &Arc<Ledger>) -> Arc<Batcher> {
        // Fast path: the batcher already exists, so a read lock keeps
        // concurrent submitters for different servables contention-free.
        if let Some(batcher) = self.batchers.read().get(&*ledger.name) {
            return Arc::clone(batcher);
        }
        // `entry` re-checks under the write lock: another caller may
        // have created it since the read unlock.
        let mut batchers = self.batchers.write();
        let batcher = batchers.entry(ledger.name.to_string()).or_insert_with(|| {
            let sizing = if self.config.adaptive_batching {
                BatchSizing::Adaptive {
                    series: Arc::clone(&ledger.series),
                    target_overhead_fraction: 0.1,
                    cap: self.config.batch_max,
                }
            } else {
                BatchSizing::Fixed(self.config.batch_max)
            };
            // A `Weak`: the service owns the batcher, which owns this
            // callback, so a strong reference here would keep both
            // alive forever. The upgrade never holds the last
            // reference: a flush runs on a submitter's thread, inside
            // `run_batched`, which holds the service.
            let service = Arc::downgrade(self);
            let ledger = Arc::clone(ledger);
            Arc::new(Batcher::new(
                sizing,
                self.config.batch_delay,
                Arc::new(move |inputs, waited| match service.upgrade() {
                    Some(service) => service.flush(&ledger, inputs, waited),
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
        ledger: &Arc<Ledger>,
        inputs: Vec<Value>,
        waited: Duration,
    ) -> Result<Vec<Value>, DlhubError> {
        let started = Instant::now();
        let mut span = self.obs.tracer.start_root_at("batch_flush", ns_at(started));
        span.attr("batch_wait_ns", waited.as_nanos() as u64);
        let batch = Some(inputs.len());
        let frame = self.open_frame(Arc::clone(ledger), span, started, batch, None)?;
        let outcome = match self.faults.decide(site::BATCH_FLUSH) {
            Some(fault) => Err(DlhubError::Execution {
                servable: ledger.name.to_string(),
                message: format!("injected batch-flush fault ({:?})", fault.kind),
            }),
            None => self.execute_remote(&frame, &inputs, None),
        };
        self.close_frame(frame, outcome).map(|(outputs, _)| outputs)
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
        let (tenant, ledger) = self.preflight(token, id, std::slice::from_ref(&input), started)?;
        // The frame opens at submission: queueing time inside the async
        // pool is part of the user-visible request, and an accepted
        // handle is a promise of capacity — the permit rides in the
        // frame until the pool job closes it.
        let task_id = next_task_id();
        let mut span = self.obs.tracer.start_root_at("request", ns_at(started));
        span.attr("mode", "async");
        span.attr_with("task_id", || task_id.clone());
        let mut frame = self.open_frame(ledger, span, started, None, Some(tenant))?;
        self.task_table.register(&task_id);
        let handle = TaskHandle::new(task_id.clone(), Arc::clone(&self.task_table));
        let service = Arc::clone(self);
        // No thread is spawned per request: the job joins the pool's
        // queue and one of the [`super::ASYNC_WORKERS`] threads runs it.
        self.async_pool.submit(Box::new(move || {
            frame.resume();
            let outcome = service.execute_one(&frame, &input, None);
            let status = match service.close_frame(frame, outcome) {
                Ok((value, _)) => TaskStatus::Completed(value),
                Err(e) => TaskStatus::Failed {
                    attempts: e.attempts(),
                    last_error: e.to_string(),
                },
            };
            service.task_table.resolve(&task_id, status);
        }));
        Ok(handle)
    }

    /// Poll an async task by UUID. A finished task's result is
    /// delivered once: the poll that sees it takes it, as a
    /// [`TaskHandle`] would. Ids whose record was released — delivered,
    /// dropped by [`Self::forget_task`], or left unretrieved past the
    /// table's cap — report [`DlhubError::ExpiredTask`], so a client
    /// can tell "poll again later is pointless" apart from a typo'd id
    /// ([`DlhubError::UnknownTask`]).
    pub fn task_status(&self, task_id: &str) -> Result<TaskStatus, DlhubError> {
        self.task_table.status(task_id)
    }

    /// Release a task's record without retrieving its result, pending
    /// or finished; a pending task's result is dropped when it arrives.
    /// A bounded tombstone keeps later polls answering "expired" rather
    /// than "never existed".
    pub fn forget_task(&self, task_id: &str) {
        self.task_table.forget(task_id);
    }
}
