//! The SDK (§IV-E): "wraps DLHub's REST API, providing access to all
//! model repository and serving functionality."

use crate::rest::RestApi;
use dlhub_auth::Token;
use dlhub_core::serving::ManagementService;
use dlhub_core::value::Value;
use dlhub_sync::thread;
use dlhub_sync::time::Instant;
use serde_json::json;
use std::sync::Arc;
use std::time::Duration;

/// SDK errors carry the REST status plus the server's message.
#[derive(Debug, Clone, PartialEq)]
pub struct SdkError {
    /// HTTP status code.
    pub status: u16,
    /// Error message from the service.
    pub message: String,
}

impl std::fmt::Display for SdkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "HTTP {}: {}", self.status, self.message)
    }
}

impl std::error::Error for SdkError {}

/// A typed client over the REST API, bound to one user's token.
pub struct DlhubClient {
    api: RestApi,
    token: Token,
}

impl DlhubClient {
    /// Connect with a token (obtained from the Globus-Auth-like
    /// service).
    pub fn new(service: Arc<ManagementService>, token: Token) -> Self {
        DlhubClient {
            api: RestApi::new(service),
            token,
        }
    }

    fn expect_ok(resp: crate::rest::RestResponse) -> Result<serde_json::Value, SdkError> {
        if resp.status == 200 {
            Ok(resp.body)
        } else {
            Err(SdkError {
                status: resp.status,
                message: resp.body["error"]
                    .as_str()
                    .unwrap_or("unknown error")
                    .to_string(),
            })
        }
    }

    /// Publish a built-in servable kind (see [`crate::kinds::KINDS`]);
    /// returns `(id, version, doi)`.
    pub fn publish(
        &self,
        name: &str,
        kind: &str,
        description: &str,
        tags: &[&str],
    ) -> Result<(String, u32, String), SdkError> {
        let body = Self::expect_ok(self.api.handle(
            "POST",
            "/servables",
            Some(&self.token),
            json!({
                "name": name,
                "kind": kind,
                "description": description,
                "tags": tags,
            }),
        ))?;
        Ok((
            body["id"].as_str().unwrap_or_default().to_string(),
            body["version"].as_u64().unwrap_or_default() as u32,
            body["doi"].as_str().unwrap_or_default().to_string(),
        ))
    }

    /// Free-text model search; returns `(id, metadata)` pairs.
    pub fn search(&self, text: &str) -> Result<Vec<(String, serde_json::Value)>, SdkError> {
        let body = Self::expect_ok(self.api.handle(
            "GET",
            &format!("/servables?q={text}"),
            Some(&self.token),
            json!({}),
        ))?;
        Ok(body["results"]
            .as_array()
            .map(|items| {
                items
                    .iter()
                    .map(|r| {
                        (
                            r["id"].as_str().unwrap_or_default().to_string(),
                            r["metadata"].clone(),
                        )
                    })
                    .collect()
            })
            .unwrap_or_default())
    }

    /// Describe a servable; returns the full JSON document.
    pub fn describe(&self, id: &str) -> Result<serde_json::Value, SdkError> {
        Self::expect_ok(self.api.handle(
            "GET",
            &format!("/servables/{id}"),
            Some(&self.token),
            json!({}),
        ))
    }

    /// Synchronous inference.
    pub fn run(&self, id: &str, input: &Value) -> Result<Value, SdkError> {
        let body = Self::expect_ok(self.api.handle(
            "POST",
            &format!("/servables/{id}/run"),
            Some(&self.token),
            json!({ "input": serde_json::to_value(input).expect("value serializes") }),
        ))?;
        serde_json::from_value(body["output"].clone()).map_err(|e| SdkError {
            status: 500,
            message: format!("malformed output: {e}"),
        })
    }

    /// Asynchronous inference; returns the task UUID.
    pub fn run_async(&self, id: &str, input: &Value) -> Result<String, SdkError> {
        let body = Self::expect_ok(self.api.handle(
            "POST",
            &format!("/servables/{id}/run_async"),
            Some(&self.token),
            json!({ "input": serde_json::to_value(input).expect("value serializes") }),
        ))?;
        Ok(body["task_id"].as_str().unwrap_or_default().to_string())
    }

    /// Poll an async task until it finishes or `timeout` elapses.
    pub fn wait_task(&self, task_id: &str, timeout: Duration) -> Result<Value, SdkError> {
        let deadline = Instant::now() + timeout;
        loop {
            let body = Self::expect_ok(self.api.handle(
                "GET",
                &format!("/tasks/{task_id}"),
                Some(&self.token),
                json!({}),
            ))?;
            match body["status"].as_str() {
                Some("completed") => {
                    return serde_json::from_value(body["output"].clone()).map_err(|e| SdkError {
                        status: 500,
                        message: format!("malformed output: {e}"),
                    })
                }
                Some("failed") => {
                    return Err(SdkError {
                        status: 500,
                        message: body["error"].as_str().unwrap_or("failed").to_string(),
                    })
                }
                _ => {
                    if Instant::now() >= deadline {
                        return Err(SdkError {
                            status: 504,
                            message: format!("task {task_id} still pending"),
                        });
                    }
                    thread::sleep(Duration::from_millis(5));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlhub_core::hub::TestHub;

    fn client(hub: &TestHub) -> DlhubClient {
        DlhubClient::new(Arc::clone(&hub.service), hub.token.clone())
    }

    #[test]
    fn search_and_describe() {
        let hub = TestHub::builder().build();
        let c = client(&hub);
        let hits = c.search("cifar").unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0, "dlhub/cifar10");
        let doc = c.describe("dlhub/cifar10").unwrap();
        assert_eq!(doc["metadata"]["model_type"], "keras");
    }

    #[test]
    fn run_sync() {
        let hub = TestHub::builder().build();
        let c = client(&hub);
        let out = c.run("dlhub/noop", &Value::Null).unwrap();
        assert_eq!(out, Value::Str("hello world".into()));
    }

    #[test]
    fn run_async_and_wait() {
        let hub = TestHub::builder().build();
        let c = client(&hub);
        let task = c
            .run_async("dlhub/matminer-util", &Value::Str("NaCl".into()))
            .unwrap();
        assert!(task.starts_with("task-"));
        let out = c.wait_task(&task, Duration::from_secs(5)).unwrap();
        match out {
            Value::Json(doc) => assert_eq!(doc["formula"], "NaCl"),
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn publish_then_serve_through_sdk() {
        let hub = TestHub::builder().without_eval_servables().build();
        let c = client(&hub);
        let (id, version, doi) = c
            .publish("echoer", "echo", "echoes its input", &["test"])
            .unwrap();
        assert_eq!(id, "dlhub/echoer");
        assert_eq!(version, 1);
        assert!(doi.starts_with("10."));
        let out = c.run(&id, &Value::Int(5)).unwrap();
        assert_eq!(out, Value::Int(5));
        let err = c.publish("x", "warp-drive", "d", &[]).unwrap_err();
        assert_eq!(err.status, 400);
    }

    #[test]
    fn errors_carry_status() {
        let hub = TestHub::builder().build();
        let c = client(&hub);
        let err = c.run("dlhub/ghost", &Value::Null).unwrap_err();
        assert_eq!(err.status, 404);
        let err = c.run("dlhub/matminer-util", &Value::Int(1)).unwrap_err();
        assert_eq!(err.status, 400);
    }
}
