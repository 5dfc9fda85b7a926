//! Task wire protocol and the async task table.
//!
//! The Management Service "packages up the request and posts it to a
//! ZeroMQ queue"; in asynchronous mode it "returns a unique task UUID
//! that can be used subsequently to monitor the status of the task and
//! retrieve its result" (§IV-A).
//!
//! Four frames share one header and one set of codec helpers: a
//! [`TaskRequest`] for one servable and its [`TaskResponse`], and a
//! [`ChainRequest`] carrying a whole pipeline's step list (§VI-D) and
//! its [`ChainResponse`] with one [`StepCost`] per step.

use crate::error::DlhubError;
use crate::value::{self, Value};
use bytes::Bytes;
use dlhub_obs::TraceContext;
use parking_lot::{Condvar, Mutex};
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A task sent from the Management Service to a Task Manager. Batched
/// requests carry several inputs for one servable.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskRequest {
    /// Unique task id (the paper's task UUID).
    pub task_id: String,
    /// Target servable id (`owner/name`).
    pub servable: String,
    /// One or more inputs (|inputs| > 1 means a coalesced batch).
    pub inputs: Vec<Value>,
    /// Trace context propagated from the Management Service so the
    /// Task Manager can parent its invocation span. Absent on the wire
    /// for untraced requests.
    pub trace: Option<TraceContext>,
}

/// The Task Manager's reply, carrying outputs plus the timings it
/// measured locally.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskResponse {
    /// Echoed task id.
    pub task_id: String,
    /// Outputs (one per input) or the execution error.
    pub outcome: Result<Vec<Value>, String>,
    /// Per-input inference times in nanoseconds, measured at the
    /// servable.
    pub inference_nanos: Vec<u64>,
    /// Executor round-trip time in nanoseconds, measured at the TM.
    pub invocation_nanos: u64,
}

/// A pipeline sent as one task (§VI-D): the Task Manager runs `inputs`
/// through `steps` in order, each step's outputs the next step's
/// inputs, on each step's own replica pool, and answers once with a
/// [`ChainResponse`]. The Task Manager has one dispatch path: a
/// [`TaskRequest`] is the one-step chain, answered with a
/// [`TaskResponse`].
#[derive(Debug, Clone, PartialEq)]
pub struct ChainRequest {
    /// Unique task id, shared by every retry of the chain.
    pub task_id: String,
    /// Servable ids in execution order, resolved and authorized by the
    /// Management Service.
    pub steps: Vec<String>,
    /// The first step's inputs.
    pub inputs: Vec<Value>,
    /// Trace context the Task Manager parents its invocation span
    /// under.
    pub trace: Option<TraceContext>,
}

/// What one step of a chain cost, measured at the Task Manager.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepCost {
    /// Inference time summed over the step's inputs, nanoseconds.
    pub inference_nanos: u64,
    /// From the step's hand-off (the task's arrival, for the first
    /// step) to its answer, nanoseconds.
    pub invocation_nanos: u64,
}

/// Why a step stopped its chain.
#[derive(Debug, Clone, PartialEq)]
pub enum StepError {
    /// The step's input does not match its declared type (checked at
    /// the Task Manager for every step after the first).
    InvalidInput {
        /// What the step expected.
        expected: String,
    },
    /// The step could not be routed, or its servable failed.
    Execution(String),
}

impl std::fmt::Display for StepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StepError::InvalidInput { expected } => write!(f, "invalid input: expected {expected}"),
            StepError::Execution(message) => f.write_str(message),
        }
    }
}

/// The step a chain failed at, and why.
#[derive(Debug, Clone, PartialEq)]
pub struct StepFailure {
    /// Index of the failing step.
    pub step: usize,
    /// What went wrong there.
    pub error: StepError,
}

/// The Task Manager's one answer to a [`ChainRequest`].
#[derive(Debug, Clone, PartialEq)]
pub struct ChainResponse {
    /// Echoed task id.
    pub task_id: String,
    /// The last step's outputs, or the failing step.
    pub outcome: Result<Vec<Value>, StepFailure>,
    /// One cost per step, in step order; empty when the chain failed.
    pub steps: Vec<StepCost>,
}

/// First byte of every frame.
const WIRE_MAGIC: u8 = 0xD1;
/// Wire format version.
const WIRE_VERSION: u8 = 2;
/// Levels of `Value::List` a frame may nest. The decoder recurses once
/// a level and a level costs five bytes, so without a bound a 50 KB
/// frame overflows a Task Manager consumer's stack.
pub(crate) const MAX_DEPTH: usize = 128;
/// Message-type tags following the magic/version header.
const WIRE_REQUEST: u8 = 1;
const WIRE_RESPONSE: u8 = 2;
const WIRE_CHAIN: u8 = 3;
const WIRE_CHAIN_REPLY: u8 = 4;

fn encode_str(out: &mut Vec<u8>, s: &str) {
    value::encode_len(out, s.len());
    out.extend_from_slice(s.as_bytes());
}

fn decode_str(cur: &mut &[u8]) -> Result<String, String> {
    let len = value::decode_len(cur)?;
    std::str::from_utf8(value::take(cur, len)?)
        .map(str::to_string)
        .map_err(|e| format!("invalid utf-8: {e}"))
}

fn encode_trace(out: &mut Vec<u8>, trace: &Option<TraceContext>) {
    match trace {
        Some(t) => {
            out.push(1);
            out.extend_from_slice(&t.trace.to_le_bytes());
            out.extend_from_slice(&t.span.to_le_bytes());
        }
        None => out.push(0),
    }
}

fn decode_trace(cur: &mut &[u8]) -> Result<Option<TraceContext>, String> {
    Ok(match value::take(cur, 1)?[0] {
        0 => None,
        _ => Some(TraceContext {
            trace: u64::from_le_bytes(value::take_array(cur)?),
            span: u64::from_le_bytes(value::take_array(cur)?),
        }),
    })
}

fn encode_values(out: &mut Vec<u8>, values: &[Value]) {
    value::encode_len(out, values.len());
    for v in values {
        v.encode_into(out);
    }
}

fn decode_values(cur: &mut &[u8]) -> Result<Vec<Value>, String> {
    let count = value::decode_len(cur)?;
    let mut values = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        values.push(Value::decode_from(cur, MAX_DEPTH)?);
    }
    Ok(values)
}

fn encode_u64(out: &mut Vec<u8>, n: u64) {
    out.extend_from_slice(&n.to_le_bytes());
}

fn decode_u64(cur: &mut &[u8]) -> Result<u64, String> {
    Ok(u64::from_le_bytes(value::take_array(cur)?))
}

fn request_capacity(inputs: &[Value]) -> usize {
    64 + inputs.iter().map(Value::approx_size).sum::<usize>()
}

/// Check the 3-byte header and return the remaining body.
fn strip_header(bytes: &[u8], msg_type: u8) -> Result<&[u8], String> {
    match bytes {
        [WIRE_MAGIC, version, tag, body @ ..] => {
            if *version != WIRE_VERSION {
                return Err(format!("unsupported wire version {version}"));
            }
            if *tag != msg_type {
                return Err(format!("unexpected message type {tag}"));
            }
            Ok(body)
        }
        _ => Err("not a wire-v2 frame".to_string()),
    }
}

impl TaskRequest {
    /// Serialize for the broker: compact binary format, written once
    /// into a refcounted [`Bytes`] slab that every later hop (broker
    /// queue, lease record, RPC retry) shares by reference.
    pub fn to_bytes(&self) -> Bytes {
        let mut out = Vec::with_capacity(request_capacity(&self.inputs));
        out.extend_from_slice(&[WIRE_MAGIC, WIRE_VERSION, WIRE_REQUEST]);
        encode_str(&mut out, &self.task_id);
        encode_str(&mut out, &self.servable);
        encode_trace(&mut out, &self.trace);
        encode_values(&mut out, &self.inputs);
        Bytes::from(out)
    }

    /// Deserialize from the broker.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        let decode = || {
            let mut body = strip_header(bytes, WIRE_REQUEST)?;
            let cur = &mut body;
            Ok(TaskRequest {
                task_id: decode_str(cur)?,
                servable: decode_str(cur)?,
                trace: decode_trace(cur)?,
                inputs: decode_values(cur)?,
            })
        };
        decode().map_err(|e: String| format!("malformed task request: {e}"))
    }
}

impl TaskResponse {
    /// Serialize for the broker (binary wire format, see
    /// [`TaskRequest::to_bytes`]).
    pub fn to_bytes(&self) -> Bytes {
        let mut out = Vec::with_capacity(64);
        out.extend_from_slice(&[WIRE_MAGIC, WIRE_VERSION, WIRE_RESPONSE]);
        encode_str(&mut out, &self.task_id);
        match &self.outcome {
            Ok(values) => {
                out.push(0);
                encode_values(&mut out, values);
            }
            Err(e) => {
                out.push(1);
                encode_str(&mut out, e);
            }
        }
        value::encode_len(&mut out, self.inference_nanos.len());
        for n in &self.inference_nanos {
            encode_u64(&mut out, *n);
        }
        encode_u64(&mut out, self.invocation_nanos);
        Bytes::from(out)
    }

    /// Deserialize from the broker.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        let decode = || {
            let mut body = strip_header(bytes, WIRE_RESPONSE)?;
            let cur = &mut body;
            let task_id = decode_str(cur)?;
            let outcome = match value::take(cur, 1)?[0] {
                0 => Ok(decode_values(cur)?),
                _ => Err(decode_str(cur)?),
            };
            let count = value::decode_len(cur)?;
            let mut inference_nanos = Vec::with_capacity(count.min(1024));
            for _ in 0..count {
                inference_nanos.push(decode_u64(cur)?);
            }
            Ok(TaskResponse {
                task_id,
                outcome,
                inference_nanos,
                invocation_nanos: decode_u64(cur)?,
            })
        };
        decode().map_err(|e: String| format!("malformed task response: {e}"))
    }
}

impl ChainRequest {
    /// Serialize for the broker: the [`TaskRequest`] layout with a step
    /// list where the servable id was, under its own message tag.
    pub fn to_bytes(&self) -> Bytes {
        let mut out = Vec::with_capacity(request_capacity(&self.inputs));
        out.extend_from_slice(&[WIRE_MAGIC, WIRE_VERSION, WIRE_CHAIN]);
        encode_str(&mut out, &self.task_id);
        value::encode_len(&mut out, self.steps.len());
        for step in &self.steps {
            encode_str(&mut out, step);
        }
        encode_trace(&mut out, &self.trace);
        encode_values(&mut out, &self.inputs);
        Bytes::from(out)
    }

    /// Deserialize from the broker.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        let decode = || {
            let mut body = strip_header(bytes, WIRE_CHAIN)?;
            let cur = &mut body;
            let task_id = decode_str(cur)?;
            let count = value::decode_len(cur)?;
            let mut steps = Vec::with_capacity(count.min(64));
            for _ in 0..count {
                steps.push(decode_str(cur)?);
            }
            Ok(ChainRequest {
                task_id,
                steps,
                trace: decode_trace(cur)?,
                inputs: decode_values(cur)?,
            })
        };
        decode().map_err(|e: String| format!("malformed chain request: {e}"))
    }
}

impl ChainResponse {
    /// Serialize for the broker.
    pub fn to_bytes(&self) -> Bytes {
        let mut out = Vec::with_capacity(64 + 16 * self.steps.len());
        out.extend_from_slice(&[WIRE_MAGIC, WIRE_VERSION, WIRE_CHAIN_REPLY]);
        encode_str(&mut out, &self.task_id);
        match &self.outcome {
            Ok(values) => {
                out.push(0);
                encode_values(&mut out, values);
            }
            Err(StepFailure { step, error }) => {
                out.push(1);
                value::encode_len(&mut out, *step);
                match error {
                    StepError::Execution(message) => {
                        out.push(0);
                        encode_str(&mut out, message);
                    }
                    StepError::InvalidInput { expected } => {
                        out.push(1);
                        encode_str(&mut out, expected);
                    }
                }
            }
        }
        value::encode_len(&mut out, self.steps.len());
        for cost in &self.steps {
            encode_u64(&mut out, cost.inference_nanos);
            encode_u64(&mut out, cost.invocation_nanos);
        }
        Bytes::from(out)
    }

    /// Deserialize from the broker.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        let decode = || {
            let mut body = strip_header(bytes, WIRE_CHAIN_REPLY)?;
            let cur = &mut body;
            let task_id = decode_str(cur)?;
            let outcome = match value::take(cur, 1)?[0] {
                0 => Ok(decode_values(cur)?),
                _ => {
                    let step = value::decode_len(cur)?;
                    let error = match value::take(cur, 1)?[0] {
                        0 => StepError::Execution(decode_str(cur)?),
                        _ => StepError::InvalidInput {
                            expected: decode_str(cur)?,
                        },
                    };
                    Err(StepFailure { step, error })
                }
            };
            let count = value::decode_len(cur)?;
            let mut steps = Vec::with_capacity(count.min(64));
            for _ in 0..count {
                steps.push(StepCost {
                    inference_nanos: decode_u64(cur)?,
                    invocation_nanos: decode_u64(cur)?,
                });
            }
            Ok(ChainResponse {
                task_id,
                outcome,
                steps,
            })
        };
        decode().map_err(|e: String| format!("malformed chain response: {e}"))
    }
}

/// Which frame a Task Manager answers with: the request's kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReplyFrame {
    /// A [`TaskResponse`], to a [`TaskRequest`] (or to anything that
    /// is not a chain frame).
    Task,
    /// A [`ChainResponse`], to a [`ChainRequest`].
    Chain,
}

/// Decode whatever a Task Manager took off the queue as the chain it
/// runs — a [`TaskRequest`] is the one-step chain — with the frame its
/// reply goes in. A malformed frame still says which reply it wants.
pub(crate) fn decode_task(bytes: &[u8]) -> (ReplyFrame, Result<ChainRequest, String>) {
    if bytes.get(2) == Some(&WIRE_CHAIN) {
        return (ReplyFrame::Chain, ChainRequest::from_bytes(bytes));
    }
    let chain = TaskRequest::from_bytes(bytes).map(|task| ChainRequest {
        task_id: task.task_id,
        steps: vec![task.servable],
        inputs: task.inputs,
        trace: task.trace,
    });
    (ReplyFrame::Task, chain)
}

/// Allocate a fresh task id.
pub fn next_task_id() -> String {
    static SEQ: AtomicU64 = AtomicU64::new(1);
    format!("task-{:08x}", SEQ.fetch_add(1, Ordering::Relaxed))
}

/// Lifecycle of an asynchronous task.
#[derive(Debug, Clone, PartialEq)]
pub enum TaskStatus {
    /// Accepted, not yet finished.
    Pending,
    /// Finished successfully.
    Completed(Value),
    /// Terminal failure: every dispatch attempt failed. `attempts`
    /// counts them (1 for a non-retryable error) so a client can tell
    /// "failed fast" from "retried to exhaustion".
    Failed {
        /// Dispatch attempts made before the task was declared failed.
        attempts: u32,
        /// The final attempt's error.
        last_error: String,
    },
}

impl TaskStatus {
    /// Shorthand for a single-attempt failure.
    pub fn failed(last_error: impl Into<String>) -> Self {
        TaskStatus::Failed {
            attempts: 1,
            last_error: last_error.into(),
        }
    }
}

/// Ids of released tasks remembered, so a poll can tell "expired" from
/// "never existed".
const TOMBSTONE_CAPACITY: usize = 1024;
/// Finished results held for clients that have not retrieved them.
/// Past this many the longest-held is released, so a client that never
/// polls cannot grow the table.
const UNDELIVERED_CAPACITY: usize = 4096;

/// The number [`next_task_id`] minted `id` from. Only the canonical
/// spelling parses, so no other string aliases a task; anything else
/// names no task.
fn task_seq(id: &str) -> Option<u64> {
    let hex = id.strip_prefix("task-")?;
    let canonical = hex.len() == 8 || (hex.len() > 8 && !hex.starts_with('0'));
    let digits = hex.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'));
    if canonical && digits {
        u64::from_str_radix(hex, 16).ok()
    } else {
        None
    }
}

/// Ids of released tasks, the oldest forgotten first past
/// [`TOMBSTONE_CAPACITY`].
#[derive(Default)]
struct Tombstones {
    ids: HashSet<u64>,
    order: VecDeque<u64>,
}

impl Tombstones {
    fn insert(&mut self, seq: u64) {
        if !self.ids.insert(seq) {
            return;
        }
        self.order.push_back(seq);
        if self.order.len() > TOMBSTONE_CAPACITY {
            if let Some(oldest) = self.order.pop_front() {
                self.ids.remove(&oldest);
            }
        }
    }
}

#[derive(Default)]
struct TableState {
    /// Registered and not yet resolved. Never evicted: admission bounds
    /// what is in flight.
    pending: HashSet<u64>,
    /// Resolved and not yet delivered: seq → (resolve stamp, status).
    /// A B-tree rather than a hash map: its nodes come and go with its
    /// entries, where a hash map would keep its largest bucket array.
    undelivered: BTreeMap<u64, (u64, TaskStatus)>,
    /// `undelivered` in resolve order: stamp → seq.
    resolve_order: BTreeMap<u64, u64>,
    next_stamp: u64,
    released: Tombstones,
}

impl TableState {
    /// Move a finished result out of the table, leaving a tombstone.
    fn take(&mut self, seq: u64) -> Option<TaskStatus> {
        let (stamp, status) = self.undelivered.remove(&seq)?;
        self.resolve_order.remove(&stamp);
        self.released.insert(seq);
        Some(status)
    }

    /// What a poll of `id` observes. A terminal status is delivered:
    /// taken out of the table.
    fn deliver(&mut self, id: &str) -> Result<TaskStatus, DlhubError> {
        let Some(seq) = task_seq(id) else {
            return Err(DlhubError::UnknownTask(id.to_string()));
        };
        if self.pending.contains(&seq) {
            return Ok(TaskStatus::Pending);
        }
        if let Some(status) = self.take(seq) {
            return Ok(status);
        }
        Err(if self.released.ids.contains(&seq) {
            DlhubError::ExpiredTask(id.to_string())
        } else {
            DlhubError::UnknownTask(id.to_string())
        })
    }
}

/// Shared task-status table backing async handles.
///
/// A record lives from [`Self::register`] until its result is
/// delivered: the first [`Self::status`] or [`Self::wait`] that
/// observes it terminal takes it, and later polls report
/// [`DlhubError::ExpiredTask`]. [`Self::forget`] releases a record
/// early, and past 4,096 unretrieved results the one resolved longest
/// ago is released. So the table holds the tasks in flight plus a
/// bounded number of results, whatever it has served.
pub struct TaskTable {
    state: Mutex<TableState>,
    cv: Condvar,
}

impl TaskTable {
    /// Empty table.
    pub fn new() -> Arc<Self> {
        Arc::new(TaskTable {
            state: Mutex::new(TableState::default()),
            cv: Condvar::new(),
        })
    }

    /// Register a pending task under an id [`next_task_id`] minted; any
    /// other id names no task and is not recorded.
    pub fn register(&self, id: &str) {
        let seq = task_seq(id);
        debug_assert!(seq.is_some(), "{id} was not minted by next_task_id");
        if let Some(seq) = seq {
            self.state.lock().pending.insert(seq);
        }
    }

    /// Resolve a pending task and wake waiters. A result for a task
    /// forgotten while it ran is dropped.
    pub fn resolve(&self, id: &str, status: TaskStatus) {
        let mut st = self.state.lock();
        let st = &mut *st;
        let Some(seq) = task_seq(id).filter(|seq| st.pending.remove(seq)) else {
            return;
        };
        let stamp = st.next_stamp;
        st.next_stamp += 1;
        st.undelivered.insert(seq, (stamp, status));
        st.resolve_order.insert(stamp, seq);
        if st.undelivered.len() > UNDELIVERED_CAPACITY {
            let oldest = st.resolve_order.first_key_value().map(|(_, &seq)| seq);
            if let Some(oldest) = oldest {
                st.take(oldest);
            }
        }
        self.cv.notify_all();
    }

    /// Poll a task, delivering its result if it has finished.
    pub fn status(&self, id: &str) -> Result<TaskStatus, DlhubError> {
        self.state.lock().deliver(id)
    }

    /// Block until the task leaves `Pending` or the timeout elapses,
    /// delivering its result if it finished.
    pub fn wait(&self, id: &str, timeout: Duration) -> Result<TaskStatus, DlhubError> {
        let deadline = Instant::now() + timeout;
        let seq = task_seq(id);
        let mut st = self.state.lock();
        while seq.is_some_and(|seq| st.pending.contains(&seq)) {
            if self.cv.wait_until(&mut st, deadline).timed_out() {
                break;
            }
        }
        st.deliver(id)
    }

    /// Release a task's record without delivering it, pending or
    /// finished, leaving a tombstone so later polls report "expired"
    /// rather than "never existed". Waiters on a pending task wake to
    /// the expiry.
    pub fn forget(&self, id: &str) {
        let Some(seq) = task_seq(id) else { return };
        let mut st = self.state.lock();
        if st.pending.remove(&seq) {
            st.released.insert(seq);
            self.cv.notify_all();
        } else {
            st.take(seq);
        }
    }

    /// Records held: tasks in flight plus results not yet delivered.
    #[cfg(test)]
    pub(crate) fn held(&self) -> usize {
        let st = self.state.lock();
        st.pending.len() + st.undelivered.len()
    }
}

/// Handle to an asynchronous task ("a unique task UUID that can be
/// used subsequently to monitor the status of the task and retrieve
/// its result", §IV-A).
///
/// The result is retrievable once, by whichever clone of the handle (or
/// [`crate::serving::ManagementService::task_status`] poll) first sees
/// it; every later call reports `Failed` with the
/// [`DlhubError::ExpiredTask`] text.
#[derive(Clone)]
pub struct TaskHandle {
    /// The task UUID.
    pub id: String,
    table: Arc<TaskTable>,
}

impl TaskHandle {
    /// Construct over a shared table.
    pub fn new(id: String, table: Arc<TaskTable>) -> Self {
        TaskHandle { id, table }
    }

    /// Current status, delivering the result if the task finished.
    pub fn status(&self) -> TaskStatus {
        self.table
            .status(&self.id)
            .unwrap_or_else(|e| TaskStatus::failed(e.to_string()))
    }

    /// Block until the task finishes or the timeout elapses, delivering
    /// the result if it finished.
    pub fn wait(&self, timeout: Duration) -> TaskStatus {
        self.table
            .wait(&self.id, timeout)
            .unwrap_or_else(|e| TaskStatus::failed(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn request_round_trips() {
        let req = TaskRequest {
            task_id: next_task_id(),
            servable: "logan/noop".into(),
            inputs: vec![Value::Null, Value::Int(2)],
            trace: Some(TraceContext {
                trace: 11,
                span: 12,
            }),
        };
        let back = TaskRequest::from_bytes(&req.to_bytes()).unwrap();
        assert_eq!(back, req);
        assert!(TaskRequest::from_bytes(b"not json").is_err());
    }

    #[test]
    fn wire_format_is_binary_only() {
        let req = TaskRequest {
            task_id: "t-wire".into(),
            servable: "a/b".into(),
            inputs: vec![Value::Tensor {
                shape: vec![3],
                data: vec![1.0, 2.0, 3.0],
            }],
            trace: None,
        };
        let wire = req.to_bytes();
        assert_eq!(
            wire[0],
            super::WIRE_MAGIC,
            "binary envelopes lead with the magic byte"
        );
        assert_eq!(TaskRequest::from_bytes(&wire).unwrap(), req);
        // Truncated binary payloads fail with the typed prefix.
        let err = TaskRequest::from_bytes(&wire[..wire.len() - 3]).unwrap_err();
        assert!(err.starts_with("malformed task request"), "{err}");
        // So does anything that does not lead with the magic byte.
        let json = br#"{"task_id":"t1","servable":"a/b","inputs":[]}"#;
        for not_a_frame in [&json[..], &[]] {
            assert_eq!(
                TaskRequest::from_bytes(not_a_frame).unwrap_err(),
                "malformed task request: not a wire-v2 frame"
            );
            assert_eq!(
                TaskResponse::from_bytes(not_a_frame).unwrap_err(),
                "malformed task response: not a wire-v2 frame"
            );
        }
    }

    #[test]
    fn response_round_trips_including_errors() {
        let ok = TaskResponse {
            task_id: "t".into(),
            outcome: Ok(vec![Value::Str("hi".into())]),
            inference_nanos: vec![123],
            invocation_nanos: 456,
        };
        assert_eq!(TaskResponse::from_bytes(&ok.to_bytes()).unwrap(), ok);
        let err = TaskResponse {
            task_id: "t".into(),
            outcome: Err("boom".into()),
            inference_nanos: vec![],
            invocation_nanos: 1,
        };
        assert_eq!(TaskResponse::from_bytes(&err.to_bytes()).unwrap(), err);
    }

    fn chain() -> ChainRequest {
        ChainRequest {
            task_id: "t-chain".into(),
            steps: vec!["a/parse".into(), "a/featurize".into(), "a/model".into()],
            inputs: vec![Value::Str("NaCl".into())],
            trace: Some(TraceContext { trace: 3, span: 4 }),
        }
    }

    #[test]
    fn chain_frames_round_trip_and_every_truncation_is_a_typed_error() {
        let request = chain();
        let failed = |error| ChainResponse {
            task_id: "t-chain".into(),
            outcome: Err(StepFailure { step: 1, error }),
            steps: vec![],
        };
        let responses = [
            ChainResponse {
                task_id: "t-chain".into(),
                outcome: Ok(vec![Value::Float(-0.5)]),
                steps: vec![
                    StepCost {
                        inference_nanos: 1,
                        invocation_nanos: 2,
                    };
                    3
                ],
            },
            failed(StepError::Execution("boom".into())),
            failed(StepError::InvalidInput {
                expected: "string".into(),
            }),
        ];
        let wire = request.to_bytes();
        assert_eq!(ChainRequest::from_bytes(&wire).unwrap(), request);
        for cut in 0..wire.len() {
            let err = ChainRequest::from_bytes(&wire[..cut]).unwrap_err();
            assert!(err.starts_with("malformed chain request"), "{cut}: {err}");
        }
        for response in &responses {
            let wire = response.to_bytes();
            assert_eq!(&ChainResponse::from_bytes(&wire).unwrap(), response);
            for cut in 0..wire.len() {
                let err = ChainResponse::from_bytes(&wire[..cut]).unwrap_err();
                assert!(err.starts_with("malformed chain response"), "{cut}: {err}");
            }
        }
        // The single-servable frames hold to the same: every prefix.
        let task = TaskRequest {
            task_id: "t".into(),
            servable: "a/b".into(),
            inputs: vec![Value::Int(1)],
            trace: Some(TraceContext { trace: 1, span: 2 }),
        };
        let wire = task.to_bytes();
        for cut in 0..wire.len() {
            assert!(TaskRequest::from_bytes(&wire[..cut]).is_err(), "{cut}");
        }
    }

    #[test]
    fn a_chain_frame_is_no_task_request_but_a_task_request_is_a_one_step_chain() {
        let wire = chain().to_bytes();
        assert_eq!(
            TaskRequest::from_bytes(&wire).unwrap_err(),
            "malformed task request: unexpected message type 3"
        );
        assert_eq!(decode_task(&wire), (ReplyFrame::Chain, Ok(chain())));
        let task = TaskRequest {
            task_id: "t".into(),
            servable: "a/b".into(),
            inputs: vec![Value::Null, Value::Int(2)],
            trace: None,
        };
        let (reply, one_step) = decode_task(&task.to_bytes());
        assert_eq!(reply, ReplyFrame::Task);
        let one_step = one_step.unwrap();
        assert_eq!(one_step.steps, vec!["a/b".to_string()]);
        assert_eq!(one_step.inputs, task.inputs);
        // A truncated chain frame still asks for a chain reply.
        let (reply, decoded) = decode_task(&wire[..wire.len() - 1]);
        assert_eq!(reply, ReplyFrame::Chain);
        assert!(decoded.unwrap_err().starts_with("malformed chain request"));
        assert_eq!(decode_task(b"garbage").0, ReplyFrame::Task);
    }

    #[test]
    fn task_ids_are_unique() {
        assert_ne!(next_task_id(), next_task_id());
    }

    fn expired(id: &str) -> Result<TaskStatus, DlhubError> {
        Err(DlhubError::ExpiredTask(id.to_string()))
    }

    fn unknown(id: &str) -> Result<TaskStatus, DlhubError> {
        Err(DlhubError::UnknownTask(id.to_string()))
    }

    #[test]
    fn table_register_resolve_poll() {
        let table = TaskTable::new();
        let id = next_task_id();
        table.register(&id);
        assert_eq!(table.status(&id), Ok(TaskStatus::Pending));
        table.resolve(&id, TaskStatus::Completed(Value::Int(1)));
        assert_eq!(table.status(&id), Ok(TaskStatus::Completed(Value::Int(1))));
        // Delivered: the record is gone and the id reads expired, and
        // forgetting it now changes nothing.
        assert_eq!(table.held(), 0);
        assert_eq!(table.status(&id), expired(&id));
        table.forget(&id);
        assert_eq!(table.status(&id), expired(&id));
    }

    #[test]
    fn forget_leaves_a_tombstone_but_unknown_ids_have_none() {
        let table = TaskTable::new();
        let id = next_task_id();
        table.register(&id);
        table.resolve(&id, TaskStatus::Completed(Value::Int(1)));
        table.forget(&id);
        assert_eq!(table.status(&id), expired(&id));
        let never_registered = next_task_id();
        assert_eq!(table.status(&never_registered), unknown(&never_registered));
        // Forgetting an id that was never registered leaves no trace.
        table.forget(&never_registered);
        assert_eq!(table.status(&never_registered), unknown(&never_registered));
        // Nor does any spelling that is not a minted id name a task.
        let seq = id.trim_start_matches("task-").trim_start_matches('0');
        for alias in [
            format!("task-{seq}"),
            id.to_uppercase(),
            "task-bogus".into(),
        ] {
            assert_eq!(table.status(&alias), unknown(&alias));
        }
    }

    #[test]
    fn forgetting_a_pending_task_drops_its_late_result() {
        let table = TaskTable::new();
        let id = next_task_id();
        table.register(&id);
        let handle = TaskHandle::new(id.clone(), Arc::clone(&table));
        let waiter = thread::spawn(move || {
            let started = Instant::now();
            (handle.wait(Duration::from_secs(30)), started.elapsed())
        });
        table.forget(&id);
        // A waiter wakes to the expiry rather than sleeping out its
        // timeout.
        let (seen, waited) = waiter.join().unwrap();
        assert_eq!(seen, TaskStatus::failed(format!("task expired: {id}")));
        assert!(waited < Duration::from_secs(10), "{waited:?}");
        table.resolve(&id, TaskStatus::Completed(Value::Int(1)));
        assert_eq!(table.status(&id), expired(&id));
        assert_eq!(table.held(), 0);
    }

    #[test]
    fn tombstones_are_bounded() {
        let table = TaskTable::new();
        let ids: Vec<String> = (0..TOMBSTONE_CAPACITY + 10)
            .map(|_| next_task_id())
            .collect();
        for id in &ids {
            table.register(id);
            table.forget(id);
        }
        assert_eq!(table.status(&ids[0]), unknown(&ids[0]));
        let last = &ids[TOMBSTONE_CAPACITY + 9];
        assert_eq!(table.status(last), expired(last));
    }

    #[test]
    fn unretrieved_results_past_the_cap_release_the_oldest_never_a_pending_task() {
        let table = TaskTable::new();
        let in_flight = next_task_id();
        table.register(&in_flight);
        let done: Vec<String> = (0..UNDELIVERED_CAPACITY + 1)
            .map(|i| {
                let id = next_task_id();
                table.register(&id);
                table.resolve(&id, TaskStatus::Completed(Value::Int(i as i64)));
                id
            })
            .collect();
        assert_eq!(table.held(), UNDELIVERED_CAPACITY + 1);
        assert_eq!(table.status(&done[0]), expired(&done[0]));
        assert_eq!(table.status(&in_flight), Ok(TaskStatus::Pending));
        assert_eq!(
            table.status(&done[1]),
            Ok(TaskStatus::Completed(Value::Int(1)))
        );
        // Resolved last, the task that was in flight longest is the
        // newest result, not the next to go.
        table.resolve(&in_flight, TaskStatus::Completed(Value::Null));
        let next = next_task_id();
        table.register(&next);
        table.resolve(&next, TaskStatus::Completed(Value::Null));
        assert_eq!(table.status(&done[2]), expired(&done[2]));
        assert_eq!(
            table.status(&in_flight),
            Ok(TaskStatus::Completed(Value::Null))
        );
    }

    #[test]
    fn handle_wait_blocks_until_resolution() {
        let table = TaskTable::new();
        let id = next_task_id();
        table.register(&id);
        let handle = TaskHandle::new(id.clone(), Arc::clone(&table));
        let t2 = Arc::clone(&table);
        let waiter = thread::spawn(move || handle.wait(Duration::from_secs(2)));
        thread::sleep(Duration::from_millis(20));
        t2.resolve(&id, TaskStatus::Completed(Value::Bool(true)));
        assert_eq!(
            waiter.join().unwrap(),
            TaskStatus::Completed(Value::Bool(true))
        );
    }

    #[test]
    fn two_clones_waiting_at_once_get_the_result_once_and_never_hang() {
        let table = TaskTable::new();
        let id = next_task_id();
        table.register(&id);
        let handle = TaskHandle::new(id.clone(), Arc::clone(&table));
        let ready = Arc::new(std::sync::Barrier::new(3));
        let waiters: Vec<_> = (0..2)
            .map(|_| {
                let (handle, ready) = (handle.clone(), Arc::clone(&ready));
                thread::spawn(move || {
                    ready.wait();
                    handle.wait(Duration::from_secs(10))
                })
            })
            .collect();
        ready.wait();
        table.resolve(&id, TaskStatus::Completed(Value::Int(7)));
        let mut seen: Vec<TaskStatus> = waiters.into_iter().map(|w| w.join().unwrap()).collect();
        seen.sort_by_key(|s| matches!(s, TaskStatus::Failed { .. }));
        assert_eq!(
            seen,
            [
                TaskStatus::Completed(Value::Int(7)),
                TaskStatus::failed(format!("task expired: {id}")),
            ]
        );
        assert_eq!(
            handle.status(),
            TaskStatus::failed(format!("task expired: {id}"))
        );
    }

    #[test]
    fn wait_times_out_to_pending() {
        let table = TaskTable::new();
        let id = next_task_id();
        table.register(&id);
        let handle = TaskHandle::new(id, Arc::clone(&table));
        assert_eq!(handle.wait(Duration::from_millis(20)), TaskStatus::Pending);
    }

    #[test]
    fn unknown_task_reports_failure() {
        let table = TaskTable::new();
        let handle = TaskHandle::new("ghost".into(), table);
        assert_eq!(handle.status(), TaskStatus::failed("unknown task: ghost"));
    }
}
