//! HPC substrate: Singularity images and a Slurm-like batch scheduler.
//!
//! DLHub's Task Manager "can be deployed in Docker environments,
//! Kubernetes clusters, and HPC resources via Singularity" (§IV-B),
//! and the Parsl execution engine targets "cluster, cloud, and
//! supercomputer platforms" (§IV-C). Supercomputers do not run pods:
//! they run batch jobs under a scheduler. This module provides both
//! pieces:
//!
//! * [`singularity_build`] — convert a layered Docker-style [`Image`]
//!   into a flat, content-addressed SIF artifact (unprivileged
//!   runtime, which is exactly why HPC sites allow Singularity where
//!   they refuse Docker).
//! * [`BatchScheduler`] — partitions of nodes, FIFO scheduling with
//!   **conservative backfill** (a shorter job may jump the queue only
//!   if it cannot delay the reserved start of the queue head), job
//!   lifecycle on a virtual clock, `squeue`/`scancel` equivalents.

use crate::image::{Digest, Image};
use dlhub_sync::atomic::{AtomicU64, Ordering};
use dlhub_sync::Mutex;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A flattened Singularity image built from a layered Docker image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SifImage {
    /// Content digest (derived from the source image's digest).
    pub digest: Digest,
    /// Squashed size: the sum of all source layers.
    pub size: u64,
    /// Entrypoint carried over from the source image.
    pub entrypoint: String,
}

/// `singularity build image.sif docker://…` — squash the layers into
/// one read-only artifact. Deterministic: the SIF digest is a pure
/// function of the Docker image digest.
pub fn singularity_build(image: &Image) -> SifImage {
    SifImage {
        digest: image.digest.chain(b"sif"),
        size: image.size(),
        entrypoint: image.entrypoint.clone(),
    }
}

/// Batch job identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// Job lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Waiting for nodes.
    Pending,
    /// Allocated and executing.
    Running,
    /// Ran to its walltime.
    Completed,
    /// Removed by `scancel` before completion.
    Cancelled,
}

/// A batch job request (`sbatch`): node count, walltime in virtual
/// seconds, and the SIF artifact it runs.
#[derive(Debug, Clone)]
pub struct JobRequest {
    /// Job name.
    pub name: String,
    /// Nodes requested.
    pub nodes: usize,
    /// Requested walltime (virtual seconds).
    pub walltime_s: u64,
    /// Container artifact the job runs (e.g. a DLHub Task Manager).
    pub sif: Digest,
}

#[derive(Debug, Clone)]
struct Job {
    request: JobRequest,
    state: JobState,
    submitted_at: u64,
    started_at: Option<u64>,
    finished_at: Option<u64>,
}

/// One line of `squeue` output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueueEntry {
    /// Job id.
    pub id: JobId,
    /// Job name.
    pub name: String,
    /// Current state.
    pub state: JobState,
    /// Nodes requested.
    pub nodes: usize,
}

struct State {
    total_nodes: usize,
    free_nodes: usize,
    now: u64,
    jobs: BTreeMap<JobId, Job>,
}

/// Scheduler errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HpcError {
    /// More nodes requested than the partition owns.
    TooLarge {
        /// Nodes requested.
        requested: usize,
        /// Partition size.
        partition: usize,
    },
    /// Unknown job id.
    NoSuchJob(JobId),
    /// Zero nodes or zero walltime.
    InvalidRequest(String),
}

impl fmt::Display for HpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HpcError::TooLarge {
                requested,
                partition,
            } => write!(f, "job wants {requested} nodes, partition has {partition}"),
            HpcError::NoSuchJob(id) => write!(f, "no such job: {id}"),
            HpcError::InvalidRequest(m) => write!(f, "invalid job request: {m}"),
        }
    }
}

impl std::error::Error for HpcError {}

/// A single-partition Slurm-like scheduler on a virtual clock.
#[derive(Clone)]
pub struct BatchScheduler {
    state: Arc<Mutex<State>>,
}

static NEXT_JOB: AtomicU64 = AtomicU64::new(1);

impl BatchScheduler {
    /// Create a scheduler over `nodes` identical nodes.
    pub fn new(nodes: usize) -> Self {
        BatchScheduler {
            state: Arc::new(Mutex::new(State {
                total_nodes: nodes.max(1),
                free_nodes: nodes.max(1),
                now: 0,
                jobs: BTreeMap::new(),
            })),
        }
    }

    /// `sbatch`: enqueue a job; scheduling happens immediately and on
    /// every clock advance.
    pub fn submit(&self, request: JobRequest) -> Result<JobId, HpcError> {
        if request.nodes == 0 || request.walltime_s == 0 {
            return Err(HpcError::InvalidRequest(
                "nodes and walltime must be positive".into(),
            ));
        }
        let mut st = self.state.lock();
        if request.nodes > st.total_nodes {
            return Err(HpcError::TooLarge {
                requested: request.nodes,
                partition: st.total_nodes,
            });
        }
        let id = JobId(NEXT_JOB.fetch_add(1, Ordering::Relaxed));
        let now = st.now;
        st.jobs.insert(
            id,
            Job {
                request,
                state: JobState::Pending,
                submitted_at: now,
                started_at: None,
                finished_at: None,
            },
        );
        Self::schedule(&mut st);
        Ok(id)
    }

    /// `scancel`: cancel a pending or running job.
    pub fn cancel(&self, id: JobId) -> Result<(), HpcError> {
        let mut st = self.state.lock();
        let now = st.now;
        let job = st.jobs.get_mut(&id).ok_or(HpcError::NoSuchJob(id))?;
        match job.state {
            JobState::Pending => {
                job.state = JobState::Cancelled;
                job.finished_at = Some(now);
            }
            JobState::Running => {
                job.state = JobState::Cancelled;
                job.finished_at = Some(now);
                let nodes = job.request.nodes;
                st.free_nodes += nodes;
            }
            _ => {}
        }
        Self::schedule(&mut st);
        Ok(())
    }

    /// Advance the virtual clock by `seconds`: completes jobs whose
    /// walltime elapses and schedules newly fitting work.
    pub fn advance(&self, seconds: u64) {
        let mut st = self.state.lock();
        let target = st.now + seconds;
        // Step through completion instants so freed nodes are reused
        // at the right virtual time.
        loop {
            let next_completion = st
                .jobs
                .values()
                .filter(|j| j.state == JobState::Running)
                .map(|j| j.started_at.expect("running has start") + j.request.walltime_s)
                .filter(|t| *t <= target)
                .min();
            match next_completion {
                Some(t) => {
                    st.now = t;
                    let finished: Vec<JobId> = st
                        .jobs
                        .iter()
                        .filter(|(_, j)| {
                            j.state == JobState::Running
                                && j.started_at.expect("running") + j.request.walltime_s <= t
                        })
                        .map(|(id, _)| *id)
                        .collect();
                    for id in finished {
                        let job = st.jobs.get_mut(&id).expect("listed above");
                        job.state = JobState::Completed;
                        job.finished_at = Some(t);
                        let nodes = job.request.nodes;
                        st.free_nodes += nodes;
                    }
                    Self::schedule(&mut st);
                }
                None => break,
            }
        }
        st.now = target;
        Self::schedule(&mut st);
    }

    /// FIFO with conservative backfill. The queue head gets a node
    /// reservation at the earliest instant enough nodes free up; a
    /// later pending job may start now only if it fits in the free
    /// nodes *and* finishes before that reservation (or needs few
    /// enough nodes not to touch it).
    fn schedule(st: &mut State) {
        loop {
            let pending: Vec<JobId> = st
                .jobs
                .iter()
                .filter(|(_, j)| j.state == JobState::Pending)
                .map(|(id, _)| *id)
                .collect();
            let Some(&head) = pending.first() else { return };
            let head_nodes = st.jobs[&head].request.nodes;
            if head_nodes <= st.free_nodes {
                let now = st.now;
                let job = st.jobs.get_mut(&head).expect("pending job");
                job.state = JobState::Running;
                job.started_at = Some(now);
                st.free_nodes -= head_nodes;
                continue; // try the next head
            }
            // Head cannot start: compute its reservation.
            let reservation = Self::head_reservation(st, head_nodes);
            // Backfill the rest.
            let mut started_any = false;
            for id in pending.into_iter().skip(1) {
                let request = st.jobs[&id].request.clone();
                if request.nodes > st.free_nodes {
                    continue;
                }
                let finishes = st.now + request.walltime_s;
                // Conservative: backfill only if the job ends by the
                // head's reserved start (it can then never delay it).
                if finishes <= reservation {
                    let now = st.now;
                    let job = st.jobs.get_mut(&id).expect("pending job");
                    job.state = JobState::Running;
                    job.started_at = Some(now);
                    st.free_nodes -= request.nodes;
                    started_any = true;
                }
            }
            if !started_any {
                return;
            }
            // Backfilled jobs consumed nodes; the head still cannot
            // start (backfill never frees nodes), so stop.
            return;
        }
    }

    /// Earliest virtual time at which `needed` nodes will be free,
    /// assuming running jobs run to their walltime.
    fn head_reservation(st: &State, needed: usize) -> u64 {
        let mut completions: Vec<(u64, usize)> = st
            .jobs
            .values()
            .filter(|j| j.state == JobState::Running)
            .map(|j| {
                (
                    j.started_at.expect("running") + j.request.walltime_s,
                    j.request.nodes,
                )
            })
            .collect();
        completions.sort();
        let mut free = st.free_nodes;
        for (t, nodes) in completions {
            free += nodes;
            if free >= needed {
                return t;
            }
        }
        u64::MAX // cannot ever fit (prevented at submit)
    }

    /// `squeue`: jobs in submission order, terminal jobs included.
    pub fn queue(&self) -> Vec<QueueEntry> {
        self.state
            .lock()
            .jobs
            .iter()
            .map(|(id, j)| QueueEntry {
                id: *id,
                name: j.request.name.clone(),
                state: j.state,
                nodes: j.request.nodes,
            })
            .collect()
    }

    /// State of one job.
    pub fn job_state(&self, id: JobId) -> Result<JobState, HpcError> {
        self.state
            .lock()
            .jobs
            .get(&id)
            .map(|j| j.state)
            .ok_or(HpcError::NoSuchJob(id))
    }

    /// `(started_at, finished_at)` virtual timestamps of a job.
    pub fn job_times(&self, id: JobId) -> Result<(Option<u64>, Option<u64>), HpcError> {
        self.state
            .lock()
            .jobs
            .get(&id)
            .map(|j| (j.started_at, j.finished_at))
            .ok_or(HpcError::NoSuchJob(id))
    }

    /// Free nodes right now.
    pub fn free_nodes(&self) -> usize {
        self.state.lock().free_nodes
    }

    /// Current virtual time (seconds).
    pub fn now(&self) -> u64 {
        self.state.lock().now
    }

    /// Waiting time of a job so far (diagnostics); `None` once it has
    /// started.
    pub fn queue_wait(&self, id: JobId) -> Result<Option<u64>, HpcError> {
        let st = self.state.lock();
        let job = st.jobs.get(&id).ok_or(HpcError::NoSuchJob(id))?;
        Ok(match job.started_at {
            Some(_) => None,
            None => Some(st.now - job.submitted_at),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::ImageBuilder;
    use crate::recipe::Recipe;

    fn sif() -> SifImage {
        let mut recipe = Recipe::from_base("python:3.7");
        recipe.entrypoint("dlhub-task-manager");
        singularity_build(&ImageBuilder::new().build(&recipe))
    }

    fn job(name: &str, nodes: usize, walltime_s: u64) -> JobRequest {
        JobRequest {
            name: name.into(),
            nodes,
            walltime_s,
            sif: sif().digest,
        }
    }

    #[test]
    fn singularity_build_is_deterministic_and_squashed() {
        let mut recipe = Recipe::from_base("python:3.7");
        recipe.entrypoint("tm");
        let image = ImageBuilder::new().build(&recipe);
        let a = singularity_build(&image);
        let b = singularity_build(&image);
        assert_eq!(a, b);
        assert_eq!(a.size, image.size());
        assert_ne!(a.digest, image.digest);
        assert_eq!(a.entrypoint, "tm");
    }

    #[test]
    fn fifo_start_and_completion() {
        let sched = BatchScheduler::new(4);
        let a = sched.submit(job("a", 4, 100)).unwrap();
        let b = sched.submit(job("b", 4, 50)).unwrap();
        assert_eq!(sched.job_state(a).unwrap(), JobState::Running);
        assert_eq!(sched.job_state(b).unwrap(), JobState::Pending);
        sched.advance(100);
        assert_eq!(sched.job_state(a).unwrap(), JobState::Completed);
        assert_eq!(sched.job_state(b).unwrap(), JobState::Running);
        sched.advance(49);
        assert_eq!(sched.job_state(b).unwrap(), JobState::Running);
        sched.advance(1);
        assert_eq!(sched.job_state(b).unwrap(), JobState::Completed);
        // b started exactly when a finished.
        assert_eq!(sched.job_times(b).unwrap().0, Some(100));
    }

    #[test]
    fn conservative_backfill_fills_holes_without_delaying_head() {
        let sched = BatchScheduler::new(4);
        // a: 2 nodes for 100s (running). head-of-queue c wants 4 nodes
        // => reserved at t=100. b wants 2 nodes for 60s: fits in the
        // hole and ends at 60 <= 100, so it backfills.
        let a = sched.submit(job("a", 2, 100)).unwrap();
        let c = sched.submit(job("c", 4, 10)).unwrap();
        let b = sched.submit(job("b", 2, 60)).unwrap();
        assert_eq!(sched.job_state(a).unwrap(), JobState::Running);
        assert_eq!(sched.job_state(c).unwrap(), JobState::Pending);
        assert_eq!(sched.job_state(b).unwrap(), JobState::Running, "backfilled");
        // A long job must NOT backfill: d (2 nodes, 200s) would block
        // the head's reservation.
        let d = sched.submit(job("d", 2, 200)).unwrap();
        assert_eq!(sched.job_state(d).unwrap(), JobState::Pending);
        // Head starts exactly at its reservation.
        sched.advance(100);
        assert_eq!(sched.job_state(c).unwrap(), JobState::Running);
        assert_eq!(sched.job_times(c).unwrap().0, Some(100));
    }

    #[test]
    fn cancel_frees_nodes_and_unblocks_queue() {
        let sched = BatchScheduler::new(2);
        let a = sched.submit(job("a", 2, 1000)).unwrap();
        let b = sched.submit(job("b", 2, 10)).unwrap();
        assert_eq!(sched.job_state(b).unwrap(), JobState::Pending);
        sched.cancel(a).unwrap();
        assert_eq!(sched.job_state(a).unwrap(), JobState::Cancelled);
        assert_eq!(sched.job_state(b).unwrap(), JobState::Running);
        // Cancelling a pending job is also fine.
        let c = sched.submit(job("c", 2, 10)).unwrap();
        sched.cancel(c).unwrap();
        assert_eq!(sched.job_state(c).unwrap(), JobState::Cancelled);
    }

    #[test]
    fn oversized_and_invalid_jobs_rejected() {
        let sched = BatchScheduler::new(4);
        assert!(matches!(
            sched.submit(job("big", 5, 10)),
            Err(HpcError::TooLarge { .. })
        ));
        assert!(matches!(
            sched.submit(job("zero", 0, 10)),
            Err(HpcError::InvalidRequest(_))
        ));
        assert!(matches!(
            sched.submit(job("notime", 1, 0)),
            Err(HpcError::InvalidRequest(_))
        ));
        assert!(matches!(
            sched.cancel(JobId(9999)),
            Err(HpcError::NoSuchJob(_))
        ));
    }

    #[test]
    fn queue_reports_states_and_wait_times() {
        let sched = BatchScheduler::new(1);
        let a = sched.submit(job("a", 1, 50)).unwrap();
        let b = sched.submit(job("b", 1, 50)).unwrap();
        let q = sched.queue();
        assert_eq!(q.len(), 2);
        assert_eq!(q[0].state, JobState::Running);
        assert_eq!(q[1].state, JobState::Pending);
        sched.advance(30);
        assert_eq!(sched.queue_wait(b).unwrap(), Some(30));
        assert_eq!(sched.queue_wait(a).unwrap(), None);
        sched.advance(20);
        assert_eq!(sched.job_state(a).unwrap(), JobState::Completed);
    }

    #[test]
    fn node_accounting_is_exact_through_churn() {
        let sched = BatchScheduler::new(8);
        let mut ids = Vec::new();
        for i in 0..6 {
            ids.push(
                sched
                    .submit(job(&format!("j{i}"), 1 + i % 3, 10 + i as u64))
                    .unwrap(),
            );
        }
        sched.advance(5);
        sched.cancel(ids[1]).unwrap();
        sched.advance(100);
        // Everything terminal; all nodes free again.
        assert_eq!(sched.free_nodes(), 8);
        for id in ids {
            let s = sched.job_state(id).unwrap();
            assert!(matches!(s, JobState::Completed | JobState::Cancelled));
        }
    }

    #[test]
    fn task_manager_deployment_via_singularity_scenario() {
        // The §IV-B scenario: build the TM container, convert to SIF,
        // run it as a batch job on an HPC partition.
        let sif_image = sif();
        let sched = BatchScheduler::new(16);
        let tm_job = sched
            .submit(JobRequest {
                name: "dlhub-task-manager".into(),
                nodes: 2,
                walltime_s: 3600,
                sif: sif_image.digest,
            })
            .unwrap();
        assert_eq!(sched.job_state(tm_job).unwrap(), JobState::Running);
        assert_eq!(sched.free_nodes(), 14);
    }
}
