//! The transfer service: asynchronous third-party transfers with
//! integrity verification.

use crate::endpoint::{Checksum, Endpoint};
use dlhub_auth::IdentityId;
use dlhub_sync::atomic::{AtomicU64, Ordering};
use dlhub_sync::thread;
use dlhub_sync::time::Instant;
use dlhub_sync::{Mutex, Slot};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Transfer task identifier.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TransferTaskId(pub String);

impl fmt::Display for TransferTaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Task lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferStatus {
    /// Accepted, still moving bytes.
    Active,
    /// Completed and checksum-verified.
    Succeeded,
    /// Failed (missing file, permission, integrity).
    Failed,
}

/// Completed-task record.
#[derive(Debug, Clone)]
pub struct TransferInfo {
    /// Task id.
    pub id: TransferTaskId,
    /// Final status.
    pub status: TransferStatus,
    /// Bytes moved.
    pub bytes: usize,
    /// Modeled duration at the endpoints' rated bandwidth (the
    /// narrower of the two ends).
    pub modeled_duration: Duration,
    /// Whether the destination checksum matched the source.
    pub verified: bool,
    /// Failure detail, if any.
    pub error: Option<String>,
}

/// Transfer errors (submission time).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransferError {
    /// Source file missing.
    NoSuchFile(String),
    /// An endpoint refused activation for the caller.
    PermissionDenied(String),
    /// Unknown task id.
    UnknownTask(String),
}

impl fmt::Display for TransferError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransferError::NoSuchFile(p) => write!(f, "no such file: {p}"),
            TransferError::PermissionDenied(e) => write!(f, "activation denied on {e}"),
            TransferError::UnknownTask(t) => write!(f, "unknown transfer task: {t}"),
        }
    }
}

impl std::error::Error for TransferError {}

/// One submitted transfer: its record at submission, and its final
/// record once the worker has settled it.
struct Task {
    submitted: TransferInfo,
    done: Slot<TransferInfo>,
}

/// The Globus-Transfer-like service. Cheap to clone.
#[derive(Clone)]
pub struct TransferService {
    tasks: Arc<Mutex<HashMap<TransferTaskId, Arc<Task>>>>,
}

static NEXT_TASK: AtomicU64 = AtomicU64::new(1);

impl TransferService {
    /// Start a service.
    pub fn new() -> Self {
        TransferService {
            tasks: Arc::default(),
        }
    }

    /// Create and register an endpoint (convenience).
    pub fn create_endpoint(&self, name: &str, bandwidth_mbps: f64) -> Endpoint {
        Endpoint::new(name, bandwidth_mbps)
    }

    /// Submit an anonymous transfer (both endpoints must be open).
    pub fn submit(
        &self,
        source: &Endpoint,
        source_path: &str,
        dest: &Endpoint,
        dest_path: &str,
    ) -> Result<TransferTaskId, TransferError> {
        self.submit_as(None, source, source_path, dest, dest_path)
    }

    /// Submit a transfer on behalf of `identity` (the dependent-token
    /// flow: DLHub stages components "on their behalf", §IV-D).
    pub fn submit_as(
        &self,
        identity: Option<IdentityId>,
        source: &Endpoint,
        source_path: &str,
        dest: &Endpoint,
        dest_path: &str,
    ) -> Result<TransferTaskId, TransferError> {
        if !source.permits(identity) {
            return Err(TransferError::PermissionDenied(source.name().to_string()));
        }
        if !dest.permits(identity) {
            return Err(TransferError::PermissionDenied(dest.name().to_string()));
        }
        // The file can be deleted between the two reads.
        let (Some(content), Some(expected)) =
            (source.get(source_path), source.checksum(source_path))
        else {
            return Err(TransferError::NoSuchFile(source_path.to_string()));
        };
        let id = TransferTaskId(format!(
            "xfer-{:08x}",
            NEXT_TASK.fetch_add(1, Ordering::Relaxed)
        ));
        let task = Arc::new(Task {
            submitted: TransferInfo {
                id: id.clone(),
                status: TransferStatus::Active,
                bytes: content.len(),
                modeled_duration: Duration::ZERO,
                verified: false,
                error: None,
            },
            done: Slot::new(),
        });
        self.tasks.lock().insert(id.clone(), Arc::clone(&task));
        // The transfer itself runs on a worker thread (Globus tasks
        // are asynchronous; callers poll or wait).
        let source = source.clone();
        let dest = dest.clone();
        let source_path = source_path.to_string();
        let dest_path = dest_path.to_string();
        thread::Builder::new()
            .name(format!("transfer-{id}"))
            .spawn(move || {
                let failed = |bytes, modeled_duration, error: String| TransferInfo {
                    status: TransferStatus::Failed,
                    bytes,
                    modeled_duration,
                    error: Some(error),
                    ..task.submitted.clone()
                };
                // Re-read at copy time (the file may have changed
                // since submission; Globus verifies what it moved).
                let outcome = match source.get(&source_path) {
                    Some(content) => {
                        let bytes = content.len();
                        let bandwidth = source.bandwidth_mbps().min(dest.bandwidth_mbps());
                        let modeled =
                            Duration::from_secs_f64(bytes as f64 / (bandwidth * 1024.0 * 1024.0));
                        if Checksum::of(&content) != expected {
                            failed(bytes, modeled, "integrity check failed".to_string())
                        } else {
                            dest.put(&dest_path, content);
                            TransferInfo {
                                status: TransferStatus::Succeeded,
                                bytes,
                                modeled_duration: modeled,
                                verified: true,
                                ..task.submitted.clone()
                            }
                        }
                    }
                    None => failed(0, Duration::ZERO, format!("source vanished: {source_path}")),
                };
                task.done.fill(outcome);
            })
            .expect("spawn transfer worker");
        Ok(id)
    }

    /// A task's record: final once settled, or else as submitted after
    /// waiting until `deadline` for it to settle.
    fn info(&self, id: &TransferTaskId, deadline: Instant) -> Result<TransferInfo, TransferError> {
        let task = self.tasks.lock().get(id).cloned();
        let task = task.ok_or_else(|| TransferError::UnknownTask(id.to_string()))?;
        Ok(task
            .done
            .read(Some(deadline))
            .unwrap_or_else(|_| task.submitted.clone()))
    }

    /// Poll a task.
    pub fn status(&self, id: &TransferTaskId) -> Result<TransferInfo, TransferError> {
        self.info(id, Instant::now())
    }

    /// Block until the task leaves `Active` (bounded internally at 30s
    /// as a deadlock guard).
    pub fn wait(&self, id: &TransferTaskId) -> Result<TransferInfo, TransferError> {
        self.info(id, Instant::now() + Duration::from_secs(30))
    }
}

impl Default for TransferService {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (TransferService, Endpoint, Endpoint) {
        let svc = TransferService::new();
        let src = svc.create_endpoint("petrel#data", 100.0);
        let dst = svc.create_endpoint("dlhub#staging", 1000.0);
        (svc, src, dst)
    }

    #[test]
    fn successful_transfer_verifies_and_delivers() {
        let (svc, src, dst) = pair();
        src.put("/w.h5", vec![7; 4096]);
        let task = svc.submit(&src, "/w.h5", &dst, "/stage/w.h5").unwrap();
        let info = svc.wait(&task).unwrap();
        assert_eq!(info.status, TransferStatus::Succeeded);
        assert!(info.verified);
        assert_eq!(info.bytes, 4096);
        assert!(info.modeled_duration > Duration::ZERO);
        assert_eq!(dst.get("/stage/w.h5").unwrap(), vec![7; 4096]);
    }

    #[test]
    fn missing_source_rejected_at_submit() {
        let (svc, src, dst) = pair();
        assert!(matches!(
            svc.submit(&src, "/ghost", &dst, "/x"),
            Err(TransferError::NoSuchFile(_))
        ));
    }

    #[test]
    fn a_file_deleted_during_submit_is_no_such_file() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let (svc, src, dst) = pair();
        src.put("/f", vec![1; 64]);
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    src.delete("/f");
                    src.put("/f", vec![1; 64]);
                }
            });
            for _ in 0..500 {
                match svc.submit(&src, "/f", &dst, "/f") {
                    // One transfer worker at a time.
                    Ok(task) => drop(svc.wait(&task).unwrap()),
                    Err(TransferError::NoSuchFile(_)) => {}
                    Err(e) => panic!("unexpected {e}"),
                }
            }
            stop.store(true, Ordering::Relaxed);
        });
    }

    #[test]
    fn restricted_endpoints_require_the_right_identity() {
        let (svc, src, dst) = pair();
        src.put("/f", vec![1]);
        src.restrict_to(IdentityId(5));
        assert!(matches!(
            svc.submit(&src, "/f", &dst, "/f"),
            Err(TransferError::PermissionDenied(_))
        ));
        assert!(matches!(
            svc.submit_as(Some(IdentityId(6)), &src, "/f", &dst, "/f"),
            Err(TransferError::PermissionDenied(_))
        ));
        let task = svc
            .submit_as(Some(IdentityId(5)), &src, "/f", &dst, "/f")
            .unwrap();
        assert_eq!(svc.wait(&task).unwrap().status, TransferStatus::Succeeded);
    }

    #[test]
    fn corruption_is_detected_not_delivered() {
        let (svc, src, dst) = pair();
        src.put("/f", vec![1, 2, 3]);
        src.corrupt_for_test("/f");
        let task = svc.submit(&src, "/f", &dst, "/f").unwrap();
        let info = svc.wait(&task).unwrap();
        assert_eq!(info.status, TransferStatus::Failed);
        assert!(!info.verified);
        assert!(info.error.unwrap().contains("integrity"));
        assert!(dst.get("/f").is_none(), "corrupt data must not land");
    }

    #[test]
    fn modeled_duration_uses_narrower_bandwidth() {
        let svc = TransferService::new();
        let slow = svc.create_endpoint("slow", 1.0); // 1 MB/s
        let fast = svc.create_endpoint("fast", 1000.0);
        slow.put("/mb", vec![0; 1024 * 1024]);
        let task = svc.submit(&slow, "/mb", &fast, "/mb").unwrap();
        let info = svc.wait(&task).unwrap();
        assert!((info.modeled_duration.as_secs_f64() - 1.0).abs() < 0.01);
    }

    #[test]
    fn unknown_task_errors() {
        let (svc, _, _) = pair();
        let ghost = TransferTaskId("xfer-ghost".into());
        assert!(matches!(
            svc.status(&ghost),
            Err(TransferError::UnknownTask(_))
        ));
        assert!(matches!(
            svc.wait(&ghost),
            Err(TransferError::UnknownTask(_))
        ));
    }

    #[test]
    fn many_concurrent_transfers_all_land() {
        let (svc, src, dst) = pair();
        let tasks: Vec<_> = (0..20)
            .map(|i| {
                let path = format!("/f{i}");
                src.put(&path, vec![i as u8; 100 + i]);
                svc.submit(&src, &path, &dst, &path).unwrap()
            })
            .collect();
        for (i, task) in tasks.iter().enumerate() {
            let info = svc.wait(task).unwrap();
            assert_eq!(info.status, TransferStatus::Succeeded);
            assert_eq!(dst.get(&format!("/f{i}")).unwrap().len(), 100 + i);
        }
    }
}
