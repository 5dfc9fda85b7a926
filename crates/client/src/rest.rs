//! The REST API: routes requests shaped like HTTP calls onto the
//! Management Service.

use dlhub_auth::Token;
use dlhub_core::serving::ManagementService;
use dlhub_core::task::TaskStatus;
use dlhub_core::value::Value;
use dlhub_core::DlhubError;
use dlhub_search::Query;
use serde_json::json;
use std::sync::Arc;

/// An HTTP-style response.
#[derive(Debug, Clone, PartialEq)]
pub struct RestResponse {
    /// HTTP status code.
    pub status: u16,
    /// JSON body.
    pub body: serde_json::Value,
}

impl RestResponse {
    fn ok(body: serde_json::Value) -> Self {
        RestResponse { status: 200, body }
    }

    fn error(status: u16, message: impl std::fmt::Display) -> Self {
        RestResponse {
            status,
            body: json!({ "error": message.to_string() }),
        }
    }
}

fn status_for(e: &DlhubError) -> u16 {
    match e {
        DlhubError::Auth(_) => 401,
        DlhubError::NotFound(_) | DlhubError::UnknownTask(_) => 404,
        DlhubError::ExpiredTask(_) => 410,
        DlhubError::InvalidInput { .. } | DlhubError::Pipeline(_) | DlhubError::Publication(_) => {
            400
        }
        DlhubError::Timeout | DlhubError::Exhausted { .. } => 504,
        _ => 500,
    }
}

/// The REST front to a Management Service.
pub struct RestApi {
    service: Arc<ManagementService>,
}

impl RestApi {
    /// Mount the API over a service.
    pub fn new(service: Arc<ManagementService>) -> Self {
        RestApi { service }
    }

    /// Route one request. Supported routes:
    ///
    /// * `GET /servables?q=<text>` — free-text search.
    /// * `POST /servables` — publish; body `{"name", "kind",
    ///   "description", "tags": […]}` (kinds: see
    ///   [`crate::kinds::KINDS`]).
    /// * `GET /servables/{user}/{name}` — describe.
    /// * `POST /servables/{user}/{name}/run` — body `{"input": …}`.
    /// * `POST /servables/{user}/{name}/run_async` — same body;
    ///   returns `{"task_id": …}`.
    /// * `GET /tasks/{id}` — poll an async task. The poll that sees it
    ///   finished delivers the result; later polls answer `410 Gone`.
    pub fn handle(
        &self,
        method: &str,
        path: &str,
        token: Option<&Token>,
        body: serde_json::Value,
    ) -> RestResponse {
        let (route, query) = match path.split_once('?') {
            Some((r, q)) => (r, Some(q)),
            None => (path, None),
        };
        let parts: Vec<&str> = route.trim_matches('/').split('/').collect();
        match (method, parts.as_slice()) {
            ("GET", ["servables"]) => self.search(token, query),
            ("POST", ["servables"]) => self.publish(token, body),
            ("GET", ["servables", user, name]) => self.describe(token, user, name),
            ("POST", ["servables", user, name, "run"]) => self.run(token, user, name, body, false),
            ("POST", ["servables", user, name, "run_async"]) => {
                self.run(token, user, name, body, true)
            }
            ("GET", ["tasks", id]) => self.task(id),
            _ => RestResponse::error(404, format!("no route for {method} {path}")),
        }
    }

    fn publish(&self, token: Option<&Token>, body: serde_json::Value) -> RestResponse {
        let Some(token) = token else {
            return RestResponse::error(401, "authentication required");
        };
        let Some(name) = body.get("name").and_then(|v| v.as_str()) else {
            return RestResponse::error(400, "missing 'name'");
        };
        let kind = body.get("kind").and_then(|v| v.as_str()).unwrap_or("echo");
        let (servable, model_type, input, output) = match crate::kinds::instantiate(kind) {
            Ok(parts) => parts,
            Err(e) => return RestResponse::error(400, e),
        };
        let mut builder = crate::toolbox::MetadataBuilder::new(name, model_type)
            .description(
                body.get("description")
                    .and_then(|v| v.as_str())
                    .unwrap_or("published via the DLHub REST API"),
            )
            .input(input)
            .output(output);
        if let Some(tags) = body.get("tags").and_then(|v| v.as_array()) {
            for tag in tags.iter().filter_map(|t| t.as_str()) {
                builder = builder.tag(tag);
            }
        }
        let metadata = match builder.build() {
            Ok(m) => m,
            Err(e) => return RestResponse::error(400, e),
        };
        match self.service.publish(
            token,
            metadata,
            servable,
            Default::default(),
            dlhub_core::repository::PublishVisibility::Public,
        ) {
            Ok(receipt) => RestResponse::ok(json!({
                "id": receipt.id,
                "version": receipt.version,
                "doi": receipt.doi,
            })),
            Err(e) => RestResponse::error(status_for(&e), e),
        }
    }

    fn search(&self, token: Option<&Token>, query: Option<&str>) -> RestResponse {
        let q = query
            .and_then(|qs| {
                qs.split('&')
                    .find_map(|kv| kv.strip_prefix("q=").map(|v| v.to_string()))
            })
            .unwrap_or_default();
        let search_query = if q.is_empty() {
            Query::All
        } else {
            Query::free_text(q)
        };
        let hits = self.service.search(token, &search_query);
        RestResponse::ok(json!({
            "count": hits.len(),
            "results": hits
                .iter()
                .map(|h| json!({"id": h.id, "score": h.score, "metadata": h.body}))
                .collect::<Vec<_>>(),
        }))
    }

    fn describe(&self, token: Option<&Token>, user: &str, name: &str) -> RestResponse {
        let id = format!("{user}/{name}");
        match self.service.describe(token, &id) {
            Ok((metadata, version, doi)) => RestResponse::ok(json!({
                "id": id,
                "version": version,
                "doi": doi,
                "metadata": metadata.to_search_document(),
            })),
            Err(e) => RestResponse::error(status_for(&e), e),
        }
    }

    fn run(
        &self,
        token: Option<&Token>,
        user: &str,
        name: &str,
        body: serde_json::Value,
        asynchronous: bool,
    ) -> RestResponse {
        let Some(token) = token else {
            return RestResponse::error(401, "authentication required");
        };
        let id = format!("{user}/{name}");
        let input: Value = match body.get("input") {
            Some(raw) => match serde_json::from_value(raw.clone()) {
                Ok(v) => v,
                Err(e) => return RestResponse::error(400, format!("bad input: {e}")),
            },
            None => Value::Null,
        };
        if asynchronous {
            match self.service.run_async(token, &id, input) {
                Ok(handle) => RestResponse::ok(json!({ "task_id": handle.id })),
                Err(e) => RestResponse::error(status_for(&e), e),
            }
        } else {
            match self.service.run(token, &id, input) {
                Ok(result) => RestResponse::ok(json!({
                    "output": serde_json::to_value(&result.value).expect("value serializes"),
                    "timings": {
                        "inference_ms": result.timings.inference.as_secs_f64() * 1e3,
                        "invocation_ms": result.timings.invocation.as_secs_f64() * 1e3,
                        "request_ms": result.timings.request.as_secs_f64() * 1e3,
                        "cache_hit": result.timings.cache_hit,
                    },
                })),
                Err(e) => RestResponse::error(status_for(&e), e),
            }
        }
    }

    fn task(&self, id: &str) -> RestResponse {
        match self.service.task_status(id) {
            Ok(TaskStatus::Pending) => RestResponse::ok(json!({"status": "pending"})),
            Ok(TaskStatus::Completed(v)) => RestResponse::ok(json!({
                "status": "completed",
                "output": serde_json::to_value(&v).expect("value serializes"),
            })),
            Ok(TaskStatus::Failed {
                attempts,
                last_error,
            }) => RestResponse::ok(json!({
                "status": "failed",
                "error": last_error,
                "attempts": attempts,
            })),
            Err(e) => RestResponse::error(status_for(&e), e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlhub_core::hub::TestHub;
    use std::time::Duration;

    fn api(hub: &TestHub) -> RestApi {
        RestApi::new(Arc::clone(&hub.service))
    }

    #[test]
    fn search_route() {
        let hub = TestHub::builder().build();
        let api = api(&hub);
        let resp = api.handle("GET", "/servables?q=inception", Some(&hub.token), json!({}));
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body["count"], 1);
        assert_eq!(resp.body["results"][0]["id"], "dlhub/inception");
        // Bare list returns everything public.
        let resp = api.handle("GET", "/servables", None, json!({}));
        assert_eq!(resp.body["count"], 6);
    }

    #[test]
    fn describe_route() {
        let hub = TestHub::builder().build();
        let resp = api(&hub).handle("GET", "/servables/dlhub/noop", None, json!({}));
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body["version"], 1);
        assert!(resp.body["doi"].as_str().unwrap().starts_with("10.26311/"));
        let resp = api(&hub).handle("GET", "/servables/dlhub/ghost", None, json!({}));
        assert_eq!(resp.status, 404);
    }

    #[test]
    fn run_route_sync() {
        let hub = TestHub::builder().build();
        let resp = api(&hub).handle(
            "POST",
            "/servables/dlhub/matminer-util/run",
            Some(&hub.token),
            json!({"input": {"Str": "NaCl"}}),
        );
        assert_eq!(resp.status, 200, "body: {}", resp.body);
        assert_eq!(resp.body["output"]["Json"]["formula"], "NaCl");
        assert!(resp.body["timings"]["request_ms"].as_f64().unwrap() > 0.0);
    }

    #[test]
    fn run_requires_auth() {
        let hub = TestHub::builder().build();
        let resp = api(&hub).handle("POST", "/servables/dlhub/noop/run", None, json!({}));
        assert_eq!(resp.status, 401);
    }

    #[test]
    fn run_async_and_poll() {
        let hub = TestHub::builder().build();
        let api = api(&hub);
        let resp = api.handle(
            "POST",
            "/servables/dlhub/noop/run_async",
            Some(&hub.token),
            json!({}),
        );
        assert_eq!(resp.status, 200);
        let task_id = resp.body["task_id"].as_str().unwrap().to_string();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let poll = api.handle("GET", &format!("/tasks/{task_id}"), None, json!({}));
            assert_eq!(poll.status, 200);
            if poll.body["status"] == "completed" {
                assert_eq!(poll.body["output"]["Str"], "hello world");
                break;
            }
            assert!(std::time::Instant::now() < deadline, "task never finished");
            std::thread::sleep(Duration::from_millis(5));
        }
        // The completed poll delivered the result: the task is gone,
        // which is not the 404 of an id that never existed.
        let again = api.handle("GET", &format!("/tasks/{task_id}"), None, json!({}));
        assert_eq!(again.status, 410);
        assert_eq!(again.body["error"], format!("task expired: {task_id}"));
        let missing = api.handle("GET", "/tasks/task-bogus", None, json!({}));
        assert_eq!(missing.status, 404);
    }

    #[test]
    fn publish_route_end_to_end() {
        let hub = TestHub::builder().without_eval_servables().build();
        let api = api(&hub);
        let resp = api.handle(
            "POST",
            "/servables",
            Some(&hub.token),
            json!({
                "name": "parser",
                "kind": "matminer-util",
                "description": "composition parser via REST",
                "tags": ["materials"],
            }),
        );
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert_eq!(resp.body["id"], "dlhub/parser");
        assert_eq!(resp.body["version"], 1);
        // Immediately servable.
        let run = api.handle(
            "POST",
            "/servables/dlhub/parser/run",
            Some(&hub.token),
            json!({"input": {"Str": "SiO2"}}),
        );
        assert_eq!(run.status, 200);
        assert_eq!(run.body["output"]["Json"]["composition"]["O"], 2.0);
        // Unauthenticated and malformed publishes are rejected.
        assert_eq!(
            api.handle("POST", "/servables", None, json!({})).status,
            401
        );
        assert_eq!(
            api.handle("POST", "/servables", Some(&hub.token), json!({}))
                .status,
            400
        );
        assert_eq!(
            api.handle(
                "POST",
                "/servables",
                Some(&hub.token),
                json!({"name": "x", "kind": "warp-drive"})
            )
            .status,
            400
        );
    }

    #[test]
    fn bad_routes_and_inputs() {
        let hub = TestHub::builder().build();
        let api = api(&hub);
        assert_eq!(
            api.handle("DELETE", "/servables", None, json!({})).status,
            404
        );
        let resp = api.handle(
            "POST",
            "/servables/dlhub/noop/run",
            Some(&hub.token),
            json!({"input": {"Wat": 3}}),
        );
        assert_eq!(resp.status, 400);
        // Type mismatch surfaces as 400 from validation.
        let resp = api.handle(
            "POST",
            "/servables/dlhub/matminer-util/run",
            Some(&hub.token),
            json!({"input": {"Int": 3}}),
        );
        assert_eq!(resp.status, 400);
    }
}
