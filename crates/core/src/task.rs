//! Task wire protocol and the async task table.
//!
//! The Management Service "packages up the request and posts it to a
//! ZeroMQ queue"; in asynchronous mode it "returns a unique task UUID
//! that can be used subsequently to monitor the status of the task and
//! retrieve its result" (§IV-A).
//!
//! Four frames share one header and one codec: a [`TaskRequest`] for
//! one servable and its [`TaskResponse`], and a [`ChainRequest`]
//! carrying a whole pipeline's step list (§VI-D) and its
//! [`ChainResponse`] with one [`StepCost`] per step. The request path
//! encodes from borrowed parts (`task_frame`, `response_frame`, …) and
//! decodes into views that read ids, errors and timings in place
//! (`decode_task`, `TaskReply`); the four owned types are the public
//! forms, and their `to_bytes` / `from_bytes` are built on the same
//! functions, so there is one wire format.

use crate::error::DlhubError;
use crate::value::{self, Value};
use bytes::Bytes;
use dlhub_obs::TraceContext;
use dlhub_sync::atomic::{AtomicU64, Ordering};
use dlhub_sync::time::Instant;
use dlhub_sync::{Condvar, Mutex};
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::ops::Range;
use std::sync::Arc;
use std::time::Duration;

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

#[inline]
fn decode_str<'a>(cur: &mut &'a [u8]) -> Result<&'a str, String> {
    let len = value::decode_len(cur)?;
    std::str::from_utf8(value::take(cur, len)?).map_err(|e| format!("invalid utf-8: {e}"))
}

fn encode_trace(out: &mut Vec<u8>, trace: Option<TraceContext>) {
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

fn encode_values<'v>(out: &mut Vec<u8>, values: impl ExactSizeIterator<Item = &'v Value>) {
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

/// What a frame that failed to decode reports, naming the frame.
fn malformed(frame: &'static str) -> impl Fn(String) -> String {
    move |e| format!("malformed {frame}: {e}")
}

/// A task id as the codec writes it: a caller's string, or the number
/// [`next_task_id`] spells its ids from, written straight into the
/// frame in that spelling.
#[derive(Debug, Clone, Copy)]
pub(crate) enum TaskId<'a> {
    Str(&'a str),
    Seq(u64),
}

/// A frame's header and task id, in a buffer sized for `capacity`.
fn open_frame(tag: u8, task_id: TaskId<'_>, capacity: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(capacity);
    out.extend_from_slice(&[WIRE_MAGIC, WIRE_VERSION, tag]);
    match task_id {
        TaskId::Str(id) => encode_str(&mut out, id),
        TaskId::Seq(seq) => value::encode_formatted(&mut out, format_args!("task-{seq:08x}")),
    }
    out
}

/// Room for a request frame naming `ids` (servable ids, and their
/// length prefixes) and carrying `inputs`.
fn request_capacity(ids: usize, inputs: &[Value]) -> usize {
    64 + ids + inputs.iter().map(Value::approx_size).sum::<usize>()
}

/// A [`TaskRequest`] frame from borrowed parts: what the Management
/// Service sends for one servable, written once into a refcounted
/// [`Bytes`] slab that every later hop (broker queue, lease record,
/// RPC retry) shares by reference.
pub(crate) fn task_frame(
    task_id: TaskId<'_>,
    servable: &str,
    trace: Option<TraceContext>,
    inputs: &[Value],
) -> Bytes {
    let capacity = request_capacity(servable.len(), inputs);
    let mut out = open_frame(WIRE_REQUEST, task_id, capacity);
    encode_str(&mut out, servable);
    encode_trace(&mut out, trace);
    encode_values(&mut out, inputs.iter());
    Bytes::from(out)
}

/// A [`ChainRequest`] frame from borrowed parts: the [`TaskRequest`]
/// layout with a step list where the servable id was, under its own
/// message tag.
pub(crate) fn chain_frame(
    task_id: TaskId<'_>,
    steps: &[String],
    trace: Option<TraceContext>,
    inputs: &[Value],
) -> Bytes {
    let ids = steps.iter().map(|step| 4 + step.len()).sum();
    let mut out = open_frame(WIRE_CHAIN, task_id, request_capacity(ids, inputs));
    value::encode_len(&mut out, steps.len());
    for step in steps {
        encode_str(&mut out, step);
    }
    encode_trace(&mut out, trace);
    encode_values(&mut out, inputs.iter());
    Bytes::from(out)
}

/// A [`TaskResponse`] frame from borrowed parts: a replica encodes its
/// task's answer cells straight into it. On an error `inference_nanos`
/// is empty.
pub(crate) fn response_frame<'v>(
    task_id: &str,
    outcome: Result<impl ExactSizeIterator<Item = &'v Value>, &str>,
    inference_nanos: impl ExactSizeIterator<Item = u64>,
    invocation_nanos: u64,
) -> Bytes {
    let mut out = open_frame(WIRE_RESPONSE, TaskId::Str(task_id), 64);
    match outcome {
        Ok(values) => {
            out.push(0);
            encode_values(&mut out, values);
        }
        Err(e) => {
            out.push(1);
            encode_str(&mut out, e);
        }
    }
    value::encode_len(&mut out, inference_nanos.len());
    for n in inference_nanos {
        encode_u64(&mut out, n);
    }
    encode_u64(&mut out, invocation_nanos);
    Bytes::from(out)
}

/// A [`ChainResponse`] frame from borrowed parts: the last step's
/// outputs and every step's cost, or the failing step (and no costs).
pub(crate) fn chain_response_frame<'v>(
    task_id: &str,
    outcome: Result<impl ExactSizeIterator<Item = &'v Value>, &StepFailure>,
    steps: &[StepCost],
) -> Bytes {
    let mut out = open_frame(
        WIRE_CHAIN_REPLY,
        TaskId::Str(task_id),
        64 + 16 * steps.len(),
    );
    match outcome {
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
    value::encode_len(&mut out, steps.len());
    for cost in steps {
        encode_u64(&mut out, cost.inference_nanos);
        encode_u64(&mut out, cost.invocation_nanos);
    }
    Bytes::from(out)
}

/// The steps of a decoded task still to take, read in place: each a
/// length-prefixed servable id, checked when the frame was decoded.
#[derive(Debug, Clone)]
pub(crate) struct Steps<'f> {
    ids: &'f [u8],
    left: usize,
}

impl<'f> Iterator for Steps<'f> {
    type Item = &'f str;

    fn next(&mut self) -> Option<&'f str> {
        self.left = self.left.checked_sub(1)?;
        decode_str(&mut self.ids).ok()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Steps<'_> {}

/// A task frame decoded in place: its id and steps borrowed from the
/// frame, its inputs decoded. The one task decoder — a [`TaskRequest`]
/// frame is the one-step chain — behind [`decode_task`] and both owned
/// request forms' `from_bytes`.
#[derive(Debug)]
pub(crate) struct TaskView<'f> {
    pub(crate) task_id: &'f str,
    pub(crate) steps: Steps<'f>,
    pub(crate) trace: Option<TraceContext>,
    pub(crate) inputs: Vec<Value>,
    /// Where the id and the steps sit in the frame.
    pub(crate) places: TaskFrame,
}

impl<'f> TaskView<'f> {
    /// Decode a [`TaskRequest`] frame (`tag` `WIRE_REQUEST`) or a
    /// [`ChainRequest`] one (`WIRE_CHAIN`).
    #[inline]
    fn decode(frame: &'f [u8], tag: u8) -> Result<Self, String> {
        let mut cur = strip_header(frame, tag)?;
        let at = |cur: &[u8]| frame.len() - cur.len();
        let task_id = decode_str(&mut cur)?;
        let task_id_at = at(cur) - task_id.len()..at(cur);
        let left = match tag {
            WIRE_CHAIN => value::decode_len(&mut cur)?,
            _ => 1,
        };
        let (ids, steps_at) = (cur, at(cur));
        for _ in 0..left {
            decode_str(&mut cur)?;
        }
        let ids = &ids[..ids.len() - cur.len()];
        Ok(TaskView {
            task_id,
            steps: Steps { ids, left },
            trace: decode_trace(&mut cur)?,
            inputs: decode_values(&mut cur)?,
            places: TaskFrame {
                task_id: task_id_at,
                steps: steps_at..steps_at + ids.len(),
                steps_left: left,
            },
        })
    }

    /// The owned chain (a task frame's is one step).
    fn into_chain(self) -> ChainRequest {
        ChainRequest {
            task_id: self.task_id.to_string(),
            steps: self.steps.map(str::to_string).collect(),
            inputs: self.inputs,
            trace: self.trace,
        }
    }
}

/// Where a task's id and its steps not taken yet sit in its frame: what
/// a Task Manager keeps of a [`TaskView`] while the chain runs and its
/// responder holds the frame, instead of owned copies.
#[derive(Debug, Clone)]
pub(crate) struct TaskFrame {
    task_id: Range<usize>,
    steps: Range<usize>,
    steps_left: usize,
}

impl TaskFrame {
    /// The task id, read from `frame`.
    pub(crate) fn task_id<'f>(&self, frame: &'f [u8]) -> &'f str {
        // Checked as UTF-8 at decode, so the fallback is never taken.
        let id = frame.get(self.task_id.clone()).map(std::str::from_utf8);
        id.and_then(Result::ok).unwrap_or_default()
    }

    /// Steps not taken yet.
    pub(crate) fn steps_left(&self) -> usize {
        self.steps_left
    }

    /// Take the next step's servable id, read from `frame`.
    pub(crate) fn next_step<'f>(&mut self, frame: &'f [u8]) -> Option<&'f str> {
        let ids = frame.get(self.steps.clone())?;
        let mut steps = Steps {
            ids,
            left: self.steps_left,
        };
        let id = steps.next()?;
        self.steps.start = self.steps.end - steps.ids.len();
        self.steps_left = steps.left;
        Some(id)
    }
}

/// A decoded [`TaskResponse`] that reads its task id, error and
/// per-input timings in place.
#[derive(Debug)]
pub(crate) struct TaskReply<'a> {
    pub(crate) task_id: &'a str,
    pub(crate) outcome: Result<Vec<Value>, &'a str>,
    /// Per-input inference times, eight little-endian bytes each.
    inference_nanos: &'a [u8],
    pub(crate) invocation_nanos: u64,
}

impl TaskReply<'_> {
    /// Decode a [`TaskResponse`] frame.
    pub(crate) fn decode(frame: &[u8]) -> Result<TaskReply<'_>, String> {
        let decode = || {
            let mut cur = strip_header(frame, WIRE_RESPONSE)?;
            let task_id = decode_str(&mut cur)?;
            let outcome = match value::take(&mut cur, 1)?[0] {
                0 => Ok(decode_values(&mut cur)?),
                _ => Err(decode_str(&mut cur)?),
            };
            let count = value::decode_len(&mut cur)?;
            let nanos = count.checked_mul(8).ok_or("timing count overflow")?;
            Ok(TaskReply {
                task_id,
                outcome,
                inference_nanos: value::take(&mut cur, nanos)?,
                invocation_nanos: decode_u64(&mut cur)?,
            })
        };
        decode().map_err(malformed("task response"))
    }

    /// Per-input inference times, nanoseconds.
    pub(crate) fn inference_nanos(&self) -> impl Iterator<Item = u64> + '_ {
        let words = self.inference_nanos.chunks_exact(8);
        words.map(|w| u64::from_le_bytes([w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7]]))
    }
}

impl TaskRequest {
    /// Serialize for the broker ([`task_frame`]).
    pub fn to_bytes(&self) -> Bytes {
        task_frame(
            TaskId::Str(&self.task_id),
            &self.servable,
            self.trace,
            &self.inputs,
        )
    }

    /// Deserialize from the broker.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        let mut task = TaskView::decode(bytes, WIRE_REQUEST).map_err(malformed("task request"))?;
        Ok(TaskRequest {
            task_id: task.task_id.to_string(),
            servable: task.steps.next().unwrap_or_default().to_string(),
            inputs: task.inputs,
            trace: task.trace,
        })
    }
}

impl TaskResponse {
    /// Serialize for the broker (binary wire format, see
    /// [`TaskRequest::to_bytes`]).
    pub fn to_bytes(&self) -> Bytes {
        response_frame(
            &self.task_id,
            self.outcome
                .as_ref()
                .map(|values| values.iter())
                .map_err(String::as_str),
            self.inference_nanos.iter().copied(),
            self.invocation_nanos,
        )
    }

    /// Deserialize from the broker.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        let reply = TaskReply::decode(bytes)?;
        Ok(TaskResponse {
            task_id: reply.task_id.to_string(),
            inference_nanos: reply.inference_nanos().collect(),
            outcome: reply.outcome.map_err(str::to_string),
            invocation_nanos: reply.invocation_nanos,
        })
    }
}

impl ChainRequest {
    /// Serialize for the broker ([`chain_frame`]).
    pub fn to_bytes(&self) -> Bytes {
        chain_frame(
            TaskId::Str(&self.task_id),
            &self.steps,
            self.trace,
            &self.inputs,
        )
    }

    /// Deserialize from the broker.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        let task = TaskView::decode(bytes, WIRE_CHAIN).map_err(malformed("chain request"))?;
        Ok(task.into_chain())
    }
}

impl ChainResponse {
    /// Serialize for the broker ([`chain_response_frame`]).
    pub fn to_bytes(&self) -> Bytes {
        chain_response_frame(
            &self.task_id,
            self.outcome.as_ref().map(|values| values.iter()),
            &self.steps,
        )
    }

    /// Deserialize from the broker.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        let decode = || {
            let mut body = strip_header(bytes, WIRE_CHAIN_REPLY)?;
            let cur = &mut body;
            let task_id = decode_str(cur)?.to_string();
            let outcome = match value::take(cur, 1)?[0] {
                0 => Ok(decode_values(cur)?),
                _ => {
                    let step = value::decode_len(cur)?;
                    let error = match value::take(cur, 1)?[0] {
                        0 => StepError::Execution(decode_str(cur)?.to_string()),
                        _ => StepError::InvalidInput {
                            expected: decode_str(cur)?.to_string(),
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
        decode().map_err(malformed("chain response"))
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
pub(crate) fn decode_task(bytes: &[u8]) -> (ReplyFrame, Result<TaskView<'_>, String>) {
    if bytes.get(2) == Some(&WIRE_CHAIN) {
        let chain = TaskView::decode(bytes, WIRE_CHAIN).map_err(malformed("chain request"));
        return (ReplyFrame::Chain, chain);
    }
    let task = TaskView::decode(bytes, WIRE_REQUEST).map_err(malformed("task request"));
    (ReplyFrame::Task, task)
}

/// The number the next task id is spelled from.
pub(crate) fn next_task_seq() -> u64 {
    static SEQ: AtomicU64 = AtomicU64::new(1);
    SEQ.fetch_add(1, Ordering::Relaxed)
}

/// Allocate a fresh task id.
pub fn next_task_id() -> String {
    format!("task-{:08x}", next_task_seq())
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

    /// What a Task Manager decodes from `wire`, as the owned chain.
    fn decoded(wire: &[u8]) -> (ReplyFrame, Result<ChainRequest, String>) {
        let (reply, task) = decode_task(wire);
        (reply, task.map(TaskView::into_chain))
    }

    #[test]
    fn a_chain_frame_is_no_task_request_but_a_task_request_is_a_one_step_chain() {
        let wire = chain().to_bytes();
        assert_eq!(
            TaskRequest::from_bytes(&wire).unwrap_err(),
            "malformed task request: unexpected message type 3"
        );
        assert_eq!(decoded(&wire), (ReplyFrame::Chain, Ok(chain())));
        let task = TaskRequest {
            task_id: "t".into(),
            servable: "a/b".into(),
            inputs: vec![Value::Null, Value::Int(2)],
            trace: None,
        };
        let (reply, one_step) = decoded(&task.to_bytes());
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
    fn a_task_manager_reads_a_frame_in_place_and_takes_its_steps_in_order() {
        let wire = chain().to_bytes();
        let (_, task) = decode_task(&wire);
        let TaskView {
            task_id,
            steps,
            trace,
            inputs,
            places: mut task,
        } = task.unwrap();
        assert_eq!((trace, inputs), (chain().trace, chain().inputs));
        assert_eq!(task_id, "t-chain");
        assert_eq!(steps.len(), 3);
        assert_eq!(
            steps.collect::<Vec<_>>(),
            ["a/parse", "a/featurize", "a/model"]
        );
        // The places read the same parts once the borrow is gone.
        assert_eq!(task.task_id(&wire), "t-chain");
        assert_eq!(task.next_step(&wire), Some("a/parse"));
        assert_eq!(task.steps_left(), 2);
        assert_eq!(task.next_step(&wire), Some("a/featurize"));
        assert_eq!(task.next_step(&wire), Some("a/model"));
        assert_eq!((task.next_step(&wire), task.steps_left()), (None, 0));
        assert_eq!(task.task_id(&wire), "t-chain");
    }

    #[test]
    fn frames_encoded_from_borrowed_parts_are_the_owned_forms_bytes() {
        // A task id minted as a number is written as the string
        // `next_task_id` spells from it.
        let inputs = [Value::Str("NaCl".into()), Value::Int(7)];
        let trace = Some(TraceContext { trace: 5, span: 6 });
        for seq in [0x1a, 0xdead_beef_0042] {
            let id = format!("task-{seq:08x}");
            assert_eq!(task_seq(&id), Some(seq));
            let owned = TaskRequest {
                task_id: id.clone(),
                servable: "a/b".into(),
                inputs: inputs.to_vec(),
                trace,
            };
            let borrowed = task_frame(TaskId::Seq(seq), "a/b", trace, &inputs);
            assert_eq!(borrowed, owned.to_bytes());
            let steps = ["a/x".to_string(), "a/y".to_string()];
            let owned = ChainRequest {
                task_id: id,
                steps: steps.to_vec(),
                inputs: inputs.to_vec(),
                trace,
            };
            let borrowed = chain_frame(TaskId::Seq(seq), &steps, trace, &inputs);
            assert_eq!(borrowed, owned.to_bytes());
        }
        // A reply read in place holds what the owned decoder returns.
        let response = TaskResponse {
            task_id: "t".into(),
            outcome: Ok(inputs.to_vec()),
            inference_nanos: vec![3, 4],
            invocation_nanos: 9,
        };
        let wire = response.to_bytes();
        let reply = TaskReply::decode(&wire).unwrap();
        assert_eq!(reply.task_id, "t");
        assert_eq!(reply.outcome.as_deref(), Ok(&inputs[..]));
        assert_eq!(reply.inference_nanos().collect::<Vec<_>>(), [3, 4]);
        assert_eq!(reply.invocation_nanos, 9);
        for cut in 0..wire.len() {
            let err = TaskReply::decode(&wire[..cut]).unwrap_err();
            assert!(err.starts_with("malformed task response"), "{cut}: {err}");
        }
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
