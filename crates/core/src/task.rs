//! Task wire protocol and the async task table.
//!
//! The Management Service "packages up the request and posts it to a
//! ZeroMQ queue"; in asynchronous mode it "returns a unique task UUID
//! that can be used subsequently to monitor the status of the task and
//! retrieve its result" (§IV-A).

use crate::value::{self, Value};
use bytes::Bytes;
use dlhub_obs::TraceContext;
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, VecDeque};
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
        let mut out =
            Vec::with_capacity(64 + self.inputs.iter().map(Value::approx_size).sum::<usize>());
        out.extend_from_slice(&[WIRE_MAGIC, WIRE_VERSION, WIRE_REQUEST]);
        encode_str(&mut out, &self.task_id);
        encode_str(&mut out, &self.servable);
        match &self.trace {
            Some(t) => {
                out.push(1);
                out.extend_from_slice(&t.trace.to_le_bytes());
                out.extend_from_slice(&t.span.to_le_bytes());
            }
            None => out.push(0),
        }
        value::encode_len(&mut out, self.inputs.len());
        for input in &self.inputs {
            input.encode_into(&mut out);
        }
        Bytes::from(out)
    }

    /// Deserialize from the broker.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        let err = |e| format!("malformed task request: {e}");
        let mut body = strip_header(bytes, WIRE_REQUEST).map_err(err)?;
        let cur = &mut body;
        let task_id = decode_str(cur).map_err(err)?;
        let servable = decode_str(cur).map_err(err)?;
        let trace = match value::take(cur, 1).map_err(err)?[0] {
            0 => None,
            _ => Some(TraceContext {
                trace: u64::from_le_bytes(value::take_array(cur).map_err(err)?),
                span: u64::from_le_bytes(value::take_array(cur).map_err(err)?),
            }),
        };
        let count = value::decode_len(cur).map_err(err)?;
        let mut inputs = Vec::with_capacity(count.min(1024));
        for _ in 0..count {
            inputs.push(Value::decode_from(cur, MAX_DEPTH).map_err(err)?);
        }
        Ok(TaskRequest {
            task_id,
            servable,
            inputs,
            trace,
        })
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
                value::encode_len(&mut out, values.len());
                for v in values {
                    v.encode_into(&mut out);
                }
            }
            Err(e) => {
                out.push(1);
                encode_str(&mut out, e);
            }
        }
        value::encode_len(&mut out, self.inference_nanos.len());
        for n in &self.inference_nanos {
            out.extend_from_slice(&n.to_le_bytes());
        }
        out.extend_from_slice(&self.invocation_nanos.to_le_bytes());
        Bytes::from(out)
    }

    /// Deserialize from the broker.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        let err = |e| format!("malformed task response: {e}");
        let mut body = strip_header(bytes, WIRE_RESPONSE).map_err(err)?;
        let cur = &mut body;
        let task_id = decode_str(cur).map_err(err)?;
        let outcome = match value::take(cur, 1).map_err(err)?[0] {
            0 => {
                let count = value::decode_len(cur).map_err(err)?;
                let mut values = Vec::with_capacity(count.min(1024));
                for _ in 0..count {
                    values.push(Value::decode_from(cur, MAX_DEPTH).map_err(err)?);
                }
                Ok(values)
            }
            _ => Err(decode_str(cur).map_err(err)?),
        };
        let count = value::decode_len(cur).map_err(err)?;
        let mut inference_nanos = Vec::with_capacity(count.min(1024));
        for _ in 0..count {
            inference_nanos.push(u64::from_le_bytes(value::take_array(cur).map_err(err)?));
        }
        let invocation_nanos = u64::from_le_bytes(value::take_array(cur).map_err(err)?);
        Ok(TaskResponse {
            task_id,
            outcome,
            inference_nanos,
            invocation_nanos,
        })
    }
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

/// Tombstones kept for forgotten tasks, so `was_forgotten` can
/// distinguish "expired" from "never existed".
const TOMBSTONE_CAPACITY: usize = 1024;

struct TableState {
    tasks: HashMap<String, TaskStatus>,
    /// Recently forgotten ids, oldest first, bounded by
    /// `TOMBSTONE_CAPACITY`.
    expired: VecDeque<String>,
}

/// Shared task-status table backing async handles.
pub struct TaskTable {
    state: Mutex<TableState>,
    cv: Condvar,
}

impl TaskTable {
    /// Empty table.
    pub fn new() -> Arc<Self> {
        Arc::new(TaskTable {
            state: Mutex::new(TableState {
                tasks: HashMap::new(),
                expired: VecDeque::new(),
            }),
            cv: Condvar::new(),
        })
    }

    /// Register a pending task.
    pub fn register(&self, id: &str) {
        self.state
            .lock()
            .tasks
            .insert(id.to_string(), TaskStatus::Pending);
    }

    /// Resolve a task and wake waiters.
    pub fn resolve(&self, id: &str, status: TaskStatus) {
        self.state.lock().tasks.insert(id.to_string(), status);
        self.cv.notify_all();
    }

    /// Poll current status.
    pub fn status(&self, id: &str) -> Option<TaskStatus> {
        self.state.lock().tasks.get(id).cloned()
    }

    /// Block until the task leaves `Pending` or the timeout elapses.
    pub fn wait(&self, id: &str, timeout: Duration) -> Option<TaskStatus> {
        let deadline = Instant::now() + timeout;
        let mut st = self.state.lock();
        loop {
            match st.tasks.get(id) {
                Some(TaskStatus::Pending) => {}
                Some(done) => return Some(done.clone()),
                None => return None,
            }
            if self.cv.wait_until(&mut st, deadline).timed_out() {
                return st.tasks.get(id).cloned();
            }
        }
    }

    /// Remove a finished task's record (housekeeping), leaving a
    /// bounded tombstone so later status queries can report "expired"
    /// rather than "never existed".
    pub fn forget(&self, id: &str) {
        let mut st = self.state.lock();
        if st.tasks.remove(id).is_some() && !st.expired.iter().any(|e| e == id) {
            if st.expired.len() == TOMBSTONE_CAPACITY {
                st.expired.pop_front();
            }
            st.expired.push_back(id.to_string());
        }
    }

    /// Whether the id belonged to a task that was since forgotten.
    /// Best-effort: tombstones are bounded, so very old ids may fall
    /// back to "never existed".
    pub fn was_forgotten(&self, id: &str) -> bool {
        self.state.lock().expired.iter().any(|e| e == id)
    }
}

/// Handle to an asynchronous task ("a unique task UUID that can be
/// used subsequently to monitor the status of the task and retrieve
/// its result", §IV-A).
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

    /// Current status.
    pub fn status(&self) -> TaskStatus {
        self.table
            .status(&self.id)
            .unwrap_or_else(|| TaskStatus::failed(format!("unknown task {}", self.id)))
    }

    /// Block until the task finishes or the timeout elapses.
    pub fn wait(&self, timeout: Duration) -> TaskStatus {
        self.table
            .wait(&self.id, timeout)
            .unwrap_or_else(|| TaskStatus::failed(format!("unknown task {}", self.id)))
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

    #[test]
    fn task_ids_are_unique() {
        assert_ne!(next_task_id(), next_task_id());
    }

    #[test]
    fn table_register_resolve_poll() {
        let table = TaskTable::new();
        table.register("t1");
        assert_eq!(table.status("t1"), Some(TaskStatus::Pending));
        table.resolve("t1", TaskStatus::Completed(Value::Int(1)));
        assert_eq!(
            table.status("t1"),
            Some(TaskStatus::Completed(Value::Int(1)))
        );
        table.forget("t1");
        assert_eq!(table.status("t1"), None);
    }

    #[test]
    fn forget_leaves_a_tombstone_but_unknown_ids_have_none() {
        let table = TaskTable::new();
        table.register("t1");
        table.resolve("t1", TaskStatus::Completed(Value::Int(1)));
        table.forget("t1");
        assert!(table.was_forgotten("t1"));
        assert!(!table.was_forgotten("never-registered"));
        // Forgetting an id that was never registered leaves no trace.
        table.forget("ghost");
        assert!(!table.was_forgotten("ghost"));
    }

    #[test]
    fn tombstones_are_bounded() {
        let table = TaskTable::new();
        for i in 0..(TOMBSTONE_CAPACITY + 10) {
            let id = format!("t{i}");
            table.register(&id);
            table.forget(&id);
        }
        assert!(!table.was_forgotten("t0"));
        assert!(table.was_forgotten(&format!("t{}", TOMBSTONE_CAPACITY + 9)));
    }

    #[test]
    fn handle_wait_blocks_until_resolution() {
        let table = TaskTable::new();
        table.register("t");
        let handle = TaskHandle::new("t".into(), Arc::clone(&table));
        let t2 = Arc::clone(&table);
        let waiter = thread::spawn(move || handle.wait(Duration::from_secs(2)));
        thread::sleep(Duration::from_millis(20));
        t2.resolve("t", TaskStatus::Completed(Value::Bool(true)));
        assert_eq!(
            waiter.join().unwrap(),
            TaskStatus::Completed(Value::Bool(true))
        );
    }

    #[test]
    fn wait_times_out_to_pending() {
        let table = TaskTable::new();
        table.register("t");
        let handle = TaskHandle::new("t".into(), Arc::clone(&table));
        assert_eq!(handle.wait(Duration::from_millis(20)), TaskStatus::Pending);
    }

    #[test]
    fn unknown_task_reports_failure() {
        let table = TaskTable::new();
        let handle = TaskHandle::new("ghost".into(), table);
        assert!(matches!(handle.status(), TaskStatus::Failed { .. }));
    }
}
