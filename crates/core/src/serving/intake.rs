//! Intake that does not run on the caller's thread: the async worker
//! pool with its task table, and the auto-batcher whose flushes arrive
//! on the request path as one batch.

use super::ManagementService;
use crate::batch::{BatchSizing, Batcher};
use crate::error::DlhubError;
use crate::task::{next_task_id, TaskHandle, TaskStatus};
use crate::value::Value;
use crossbeam::channel;
use dlhub_auth::Token;
use dlhub_fault::site;
use dlhub_obs::Gauge;
use std::sync::Arc;
use std::time::{Duration, Instant};

type Job = Box<dyn FnOnce() + Send>;

/// A fixed-size worker pool behind one unbounded channel, replacing
/// the thread-per-request dispatch of async runs. Dropping the pool
/// drops the sender; `recv` hands out every queued job before it
/// reports the disconnect, so no accepted request is dropped.
pub(super) struct AsyncPool {
    jobs: Option<channel::Sender<Job>>,
    /// Jobs waiting in the channel.
    depth: Arc<Gauge>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl AsyncPool {
    /// `active` counts workers currently running a job (pool
    /// occupancy).
    pub(super) fn new(workers: usize, depth: Arc<Gauge>, active: Arc<Gauge>) -> Self {
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

impl ManagementService {
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
        let mut span = self.obs.tracer.start_root("batch_flush");
        span.attr("batch_wait_ns", waited.as_nanos().to_string());
        let frame = self.open_frame(id, span, Instant::now(), Some(inputs.len()), None)?;
        let outcome = match self.faults.decide(site::BATCH_FLUSH) {
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
        let task_id = next_task_id();
        let mut span = self.obs.tracer.start_root("request");
        span.attr("mode", "async");
        span.attr("task_id", task_id.clone());
        let frame = self.open_frame(id, span, started, None, Some(tenant))?;
        self.task_table.register(&task_id);
        let handle = TaskHandle::new(task_id.clone(), Arc::clone(&self.task_table));
        let service = Arc::clone(self);
        let servable = id.to_string();
        // No thread is spawned per request: the job joins the pool's
        // channel and one of the [`super::ASYNC_WORKERS`] threads runs it.
        self.async_pool.submit(Box::new(move || {
            let outcome = service.execute_one(&servable, &frame, input, None);
            let status = match service.close_frame(&servable, frame, outcome) {
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
}
