//! Clipper (§III-B.4): "a prediction serving system that focuses on
//! low latency serving. It deploys models as Docker containers …
//! includes several optimizations … including data batching and
//! memoization … also provides a model selection framework to improve
//! prediction accuracy. However, because Clipper needs to dockerize
//! the models on the manager node, it requires privileged access."
//!
//! Architectural point that matters for Fig 8: Clipper's cache lives
//! in the *query frontend*, which is "deployed as a pod on the
//! Kubernetes cluster", so even cached responses pay the trip to the
//! cluster — unlike DLHub's Task-Manager cache.

use dlhub_container::{Cluster, Digest, PodSpec};
use dlhub_core::memo::{MemoCache, MemoKey, MemoStats};
use dlhub_core::{Servable, Value};
use dlhub_sync::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

/// Clipper errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClipperError {
    /// Deploying needs privileged access on the node.
    PrivilegeRequired,
    /// Unknown application name.
    NoSuchApplication(String),
    /// An application with no linked models cannot serve.
    NoModelLinked(String),
    /// Model execution failed.
    Execution(String),
    /// Cluster rejected the model container.
    Cluster(String),
}

impl std::fmt::Display for ClipperError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClipperError::PrivilegeRequired => {
                write!(f, "dockerizing models requires privileged access")
            }
            ClipperError::NoSuchApplication(a) => write!(f, "no such application: {a}"),
            ClipperError::NoModelLinked(a) => write!(f, "no model linked to {a}"),
            ClipperError::Execution(e) => write!(f, "execution failed: {e}"),
            ClipperError::Cluster(e) => write!(f, "cluster error: {e}"),
        }
    }
}

impl std::error::Error for ClipperError {}

struct DeployedModel {
    servable: Arc<dyn Servable>,
    /// Selection statistics: (uses, cumulative reward).
    uses: u64,
    reward: f64,
}

struct Application {
    /// Candidate model names, in registration order.
    candidates: Vec<String>,
    /// Default output if every candidate fails (Clipper applications
    /// declare a default prediction).
    default_output: Value,
}

/// The Clipper query frontend plus its model containers.
pub struct Clipper {
    cluster: Cluster,
    privileged: bool,
    models: RwLock<HashMap<String, DeployedModel>>,
    applications: RwLock<HashMap<String, Application>>,
    cache: MemoCache,
}

impl Clipper {
    /// Deploy Clipper onto a cluster. `privileged` mirrors the
    /// paper's observation that Clipper "requires privileged access,
    /// which is not available on all execution environments".
    pub fn deploy(cluster: Cluster, privileged: bool) -> Result<Self, ClipperError> {
        if !privileged {
            return Err(ClipperError::PrivilegeRequired);
        }
        // The query frontend itself runs as a pod on the cluster.
        cluster
            .create_deployment(
                "clipper-query-frontend",
                PodSpec {
                    image: Digest(0xC11, 0x1),
                    cpu_millis: 2000,
                    memory_mib: 4096,
                },
                1,
            )
            .map_err(|e| ClipperError::Cluster(e.to_string()))?;
        Ok(Clipper {
            cluster,
            privileged,
            models: RwLock::new(HashMap::new()),
            applications: RwLock::new(HashMap::new()),
            cache: MemoCache::new(32 * 1024 * 1024),
        })
    }

    /// Deploy a model as its own Docker container on the cluster.
    pub fn deploy_model(
        &self,
        name: &str,
        servable: Arc<dyn Servable>,
        replicas: usize,
    ) -> Result<(), ClipperError> {
        if !self.privileged {
            return Err(ClipperError::PrivilegeRequired);
        }
        self.cluster
            .create_deployment(
                &format!("clipper-model-{name}"),
                PodSpec {
                    image: Digest(0xC11, 0x2),
                    cpu_millis: 1000,
                    memory_mib: 2048,
                },
                replicas.max(1),
            )
            .map_err(|e| ClipperError::Cluster(e.to_string()))?;
        self.models.write().insert(
            name.to_string(),
            DeployedModel {
                servable,
                uses: 0,
                reward: 0.0,
            },
        );
        Ok(())
    }

    /// Register an application with a default output.
    pub fn register_application(&self, app: &str, default_output: Value) {
        self.applications.write().insert(
            app.to_string(),
            Application {
                candidates: Vec::new(),
                default_output,
            },
        );
    }

    /// Link a deployed model as a candidate for an application — the
    /// model-selection framework chooses among candidates at query
    /// time.
    pub fn link_model(&self, app: &str, model: &str) -> Result<(), ClipperError> {
        if !self.models.read().contains_key(model) {
            return Err(ClipperError::Execution(format!("unknown model {model}")));
        }
        let mut apps = self.applications.write();
        let entry = apps
            .get_mut(app)
            .ok_or_else(|| ClipperError::NoSuchApplication(app.to_string()))?;
        entry.candidates.push(model.to_string());
        Ok(())
    }

    /// Select a candidate: highest observed mean reward, unexplored
    /// candidates first (the exploration half of Clipper's bandit
    /// selection policy).
    fn select(&self, candidates: &[String]) -> Option<String> {
        let models = self.models.read();
        candidates
            .iter()
            .filter(|name| models.contains_key(*name))
            .max_by(|a, b| {
                let score = |name: &str| {
                    let m = &models[name];
                    if m.uses == 0 {
                        f64::INFINITY // explore before exploiting
                    } else {
                        m.reward / m.uses as f64
                    }
                };
                score(a)
                    .partial_cmp(&score(b))
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .cloned()
    }

    /// Serve one query through the frontend: memo cache first, then
    /// the selected candidate; on model failure the application's
    /// default output is returned (Clipper's fallback semantics).
    /// Returns `(output, cache_hit, model_used)`.
    pub fn query(
        &self,
        app: &str,
        input: &Value,
    ) -> Result<(Value, bool, Option<String>), ClipperError> {
        let (candidates, default_output) = {
            let apps = self.applications.read();
            let a = apps
                .get(app)
                .ok_or_else(|| ClipperError::NoSuchApplication(app.to_string()))?;
            (a.candidates.clone(), a.default_output.clone())
        };
        if candidates.is_empty() {
            return Err(ClipperError::NoModelLinked(app.to_string()));
        }
        let key = MemoKey::new(app, input);
        if let Some(cached) = self.cache.get(&key) {
            return Ok((cached, true, None));
        }
        let Some(chosen) = self.select(&candidates) else {
            return Ok((default_output, false, None));
        };
        let servable = {
            let models = self.models.read();
            Arc::clone(&models[&chosen].servable)
        };
        match servable.run(input) {
            Ok(output) => {
                self.cache.put(key, output.clone());
                let mut models = self.models.write();
                if let Some(m) = models.get_mut(&chosen) {
                    m.uses += 1;
                    m.reward += 1.0; // success reward
                }
                Ok((output, false, Some(chosen)))
            }
            Err(_) => {
                let mut models = self.models.write();
                if let Some(m) = models.get_mut(&chosen) {
                    m.uses += 1; // failure: reward 0 drags the mean down
                }
                Ok((default_output, false, Some(chosen)))
            }
        }
    }

    /// Record downstream feedback for a model (the exploitation half
    /// of the selection policy).
    pub fn feedback(&self, model: &str, reward: f64) {
        if let Some(m) = self.models.write().get_mut(model) {
            m.reward += reward;
        }
    }

    /// Frontend cache counters.
    pub fn cache_stats(&self) -> MemoStats {
        self.cache.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlhub_container::NodeSpec;
    use dlhub_core::servable::servable_fn;

    fn cluster() -> Cluster {
        Cluster::new(vec![NodeSpec::new("n0", 64_000, 65_536)])
    }

    fn clipper() -> Clipper {
        Clipper::deploy(cluster(), true).unwrap()
    }

    #[test]
    fn unprivileged_deploy_fails() {
        assert!(matches!(
            Clipper::deploy(cluster(), false),
            Err(ClipperError::PrivilegeRequired)
        ));
    }

    #[test]
    fn frontend_runs_as_a_pod() {
        let c = clipper();
        assert_eq!(c.cluster.running_pods("clipper-query-frontend").len(), 1);
    }

    #[test]
    fn query_through_linked_model() {
        let c = clipper();
        c.deploy_model("echo", servable_fn(|v| Ok(v.clone())), 2)
            .unwrap();
        c.register_application("app", Value::Null);
        c.link_model("app", "echo").unwrap();
        let (out, hit, used) = c.query("app", &Value::Int(5)).unwrap();
        assert_eq!(out, Value::Int(5));
        assert!(!hit);
        assert_eq!(used.as_deref(), Some("echo"));
        assert_eq!(c.cluster.running_pods("clipper-model-echo").len(), 2);
    }

    #[test]
    fn cache_hits_on_repeat_queries() {
        let c = clipper();
        c.deploy_model("echo", servable_fn(|v| Ok(v.clone())), 1)
            .unwrap();
        c.register_application("app", Value::Null);
        c.link_model("app", "echo").unwrap();
        let (_, hit1, _) = c.query("app", &Value::Int(1)).unwrap();
        let (out, hit2, used) = c.query("app", &Value::Int(1)).unwrap();
        assert!(!hit1);
        assert!(hit2);
        assert_eq!(out, Value::Int(1));
        assert_eq!(used, None, "cache hits bypass model selection");
        assert_eq!(c.cache_stats().hits, 1);
    }

    #[test]
    fn failed_model_returns_default_output() {
        let c = clipper();
        c.deploy_model("broken", servable_fn(|_| Err("oom".into())), 1)
            .unwrap();
        c.register_application("app", Value::Str("default".into()));
        c.link_model("app", "broken").unwrap();
        let (out, _, used) = c.query("app", &Value::Int(1)).unwrap();
        assert_eq!(out, Value::Str("default".into()));
        assert_eq!(used.as_deref(), Some("broken"));
    }

    #[test]
    fn selection_prefers_rewarded_models() {
        let c = clipper();
        c.deploy_model("good", servable_fn(|_| Ok(Value::Str("good".into()))), 1)
            .unwrap();
        c.deploy_model("bad", servable_fn(|_| Err("always fails".into())), 1)
            .unwrap();
        c.register_application("app", Value::Null);
        c.link_model("app", "bad").unwrap();
        c.link_model("app", "good").unwrap();
        // Distinct inputs defeat the cache; after exploring both, the
        // selector settles on the succeeding model.
        let mut last_used = None;
        for i in 0..10 {
            let (_, _, used) = c.query("app", &Value::Int(i)).unwrap();
            last_used = used;
        }
        assert_eq!(last_used.as_deref(), Some("good"));
    }

    #[test]
    fn application_errors() {
        let c = clipper();
        assert!(matches!(
            c.query("ghost", &Value::Null),
            Err(ClipperError::NoSuchApplication(_))
        ));
        c.register_application("empty", Value::Null);
        assert!(matches!(
            c.query("empty", &Value::Null),
            Err(ClipperError::NoModelLinked(_))
        ));
        assert!(c.link_model("empty", "ghost").is_err());
    }
}
