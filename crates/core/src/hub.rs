//! A fully wired single-process DLHub deployment for tests, examples
//! and benchmarks.
//!
//! `TestHub` assembles the whole stack — auth service, repository with
//! the paper's six evaluation servables, broker, a Task Manager with a
//! Parsl executor over a PetrelKube-shaped cluster, and the Management
//! Service — exactly as Fig 2 wires them, but in one process.
//!
//! [`TestHubBuilder::build`] is where the deployment is wired, once:
//! it holds the one [`Obs`] (built by the caller when a telemetry mode
//! is wanted, [`Obs::new`] otherwise) and the one fault schedule, and
//! hands both to every tier's constructor. Nothing is attached to a
//! tier after it exists.

use crate::executor::{Executor, HealthPolicy, ParslExecutor};
use crate::repository::{
    PublishVisibility, Repository, PUBLISH_SCOPE, RESOURCE_SERVER, SERVE_SCOPE,
};
use crate::servable::builtins::evaluation_servables;
use crate::servable::{ModelType, Servable, ServableMetadata};
use crate::serving::{ManagementService, ServingConfig};
use crate::task_manager::TaskManager;
use dlhub_auth::{AuthService, Scope, Token};
use dlhub_container::Cluster;
use dlhub_fault::FaultHandle;
use dlhub_obs::Obs;
use dlhub_queue::{Broker, BrokerConfig, TopicConfig};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// Builder for [`TestHub`].
pub struct TestHubBuilder {
    replicas: usize,
    consumers: usize,
    task_managers: usize,
    seed: u64,
    /// `None` leaves [`ServingConfig::memo_enabled`] as configured.
    memo: Option<bool>,
    eval_servables: bool,
    extra_executors: Vec<Arc<dyn Executor>>,
    config: ServingConfig,
    obs: Obs,
    faults: FaultHandle,
    task_topic_config: Option<TopicConfig>,
    replica_health: Option<HealthPolicy>,
    executor_reply_timeout: Option<Duration>,
}

impl TestHubBuilder {
    /// Replicas per servable for the Parsl executor pools.
    pub fn replicas(mut self, n: usize) -> Self {
        self.replicas = n;
        self
    }

    /// Task Manager consumer threads.
    pub fn consumers(mut self, n: usize) -> Self {
        self.consumers = n;
        self
    }

    /// Number of Task Managers pulling from the task queue ("one or
    /// more Task Managers", §IV). Each gets its own Parsl executor
    /// over the shared cluster, like TMs on separate login nodes.
    pub fn task_managers(mut self, n: usize) -> Self {
        self.task_managers = n.max(1);
        self
    }

    /// Weight seed for the evaluation models.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Start with memoization on/off, whatever
    /// [`ServingConfig::memo_enabled`] says and whichever of
    /// [`Self::config`] and this is called first.
    pub fn memo(mut self, enabled: bool) -> Self {
        self.memo = Some(enabled);
        self
    }

    /// Skip publishing the six evaluation servables (faster startup
    /// for tests that publish their own).
    pub fn without_eval_servables(mut self) -> Self {
        self.eval_servables = false;
        self
    }

    /// Prepend an executor ahead of the default Parsl executor in the
    /// Task Manager's routing order.
    pub fn with_executor(mut self, executor: Arc<dyn Executor>) -> Self {
        self.extra_executors.push(executor);
        self
    }

    /// Override the full serving configuration.
    pub fn config(mut self, config: ServingConfig) -> Self {
        self.config = config;
        self
    }

    /// Register a service-level objective on the deployment (appends
    /// to [`ServingConfig::slos`]).
    pub fn slo(mut self, spec: dlhub_obs::SloSpec) -> Self {
        self.config.slos.push(spec);
        self
    }

    /// Record into `obs` instead of a fresh [`Obs::new`]: how a caller
    /// chooses the deployment's telemetry mode
    /// ([`Obs::with_telemetry`]).
    pub fn obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Thread one fault-injection schedule through the whole
    /// deployment: the broker's send/recv sites, every Task Manager's
    /// crash site, every Parsl replica, and the Management Service's
    /// memo and batch sites all consult `faults`.
    pub fn faults(mut self, faults: FaultHandle) -> Self {
        self.faults = faults;
        self
    }

    /// Create the task topic with a specific configuration (lease
    /// duration, delivery attempts, capacity) before the Task Managers
    /// start; chaos tests shorten the lease so crashed-TM redelivery
    /// happens within the test budget.
    pub fn task_topic_config(mut self, config: TopicConfig) -> Self {
        self.task_topic_config = Some(config);
        self
    }

    /// Replica health policy for every Parsl executor in the hub
    /// (`None` keeps the executor default).
    pub fn replica_health(mut self, policy: HealthPolicy) -> Self {
        self.replica_health = Some(policy);
        self
    }

    /// Bound how long executors wait for replica replies (hung-replica
    /// detection).
    pub fn executor_reply_timeout(mut self, timeout: Duration) -> Self {
        self.executor_reply_timeout = Some(timeout);
        self
    }

    /// Assemble the hub.
    pub fn build(self) -> TestHub {
        let auth = AuthService::new();
        auth.register_provider("dlhub.org");
        let repo = Arc::new(Repository::new(auth.clone()));
        let owner_id = auth.register_identity("dlhub.org", "dlhub").unwrap();
        let token = auth
            .issue_token(
                owner_id,
                &[
                    Scope::new(RESOURCE_SERVER, PUBLISH_SCOPE),
                    Scope::new(RESOURCE_SERVER, SERVE_SCOPE),
                ],
            )
            .unwrap();

        if self.eval_servables {
            for builtin in evaluation_servables("dlhub@dlhub.org", self.seed) {
                repo.publish(
                    &token,
                    builtin.metadata,
                    builtin.servable,
                    BTreeMap::new(),
                    PublishVisibility::Public,
                )
                .unwrap();
            }
        }

        // One observability layer and one fault schedule for the whole
        // deployment: the broker, every executor and Task Manager and
        // the Management Service are built around the same two, so one
        // request yields one trace tree spanning all tiers.
        let (obs, faults) = (self.obs, self.faults);
        let broker = Broker::wired(BrokerConfig::default(), &obs, faults.clone());
        let cluster = Cluster::petrelkube();
        let make_parsl = || {
            let mut parsl =
                ParslExecutor::new(cluster.clone(), self.replicas, &obs, faults.clone());
            if let Some(policy) = self.replica_health {
                parsl = parsl.with_health(Some(policy));
            }
            if let Some(timeout) = self.executor_reply_timeout {
                parsl = parsl.with_reply_timeout(timeout);
            }
            Arc::new(parsl)
        };
        let parsl = make_parsl();
        let mut config = self.config;
        if let Some(enabled) = self.memo {
            config.memo_enabled = enabled;
        }
        // The task topic must exist with its chaos-tuned lease before
        // any Task Manager binds a consumer to it.
        if let Some(topic_config) = self.task_topic_config {
            broker
                .create_topic_with(&config.task_topic, topic_config)
                .expect("task topic created once");
        }
        let mut task_managers = Vec::with_capacity(self.task_managers);
        for i in 0..self.task_managers {
            // The first TM shares the exposed Parsl executor so tests
            // and benches can inspect/scale it; additional TMs get
            // their own executors over the same cluster (like TMs on
            // separate login nodes).
            let mut executors = self.extra_executors.clone();
            executors.push(match i {
                0 => Arc::clone(&parsl) as Arc<dyn Executor>,
                _ => make_parsl(),
            });
            task_managers.push(TaskManager::start_wired(
                &format!("cooley-tm-{i}"),
                &broker,
                &config.task_topic,
                Arc::clone(&repo),
                executors,
                self.consumers,
                obs.clone(),
                faults.clone(),
            ));
        }
        // The control loop, when configured, actuates through the first
        // TM's exposed Parsl executor — the one tests and benches
        // inspect.
        let service = ManagementService::new(
            Arc::clone(&repo),
            &broker,
            config,
            Some(Arc::clone(&parsl)),
            obs,
            faults,
        );
        TestHub {
            auth,
            repo,
            broker,
            cluster,
            parsl,
            service,
            token,
            owner: "dlhub@dlhub.org".to_string(),
            _task_managers: task_managers,
        }
    }
}

/// A complete in-process DLHub deployment.
pub struct TestHub {
    /// The auth service.
    pub auth: AuthService,
    /// The model repository.
    pub repo: Arc<Repository>,
    /// The message broker between MS and TM.
    pub broker: Broker,
    /// The PetrelKube-shaped cluster the Parsl executor deploys onto.
    pub cluster: Cluster,
    /// The Parsl executor (exposed so benchmarks can scale replicas).
    pub parsl: Arc<ParslExecutor>,
    /// The Management Service.
    pub service: Arc<ManagementService>,
    /// A token for the hub owner, carrying publish + serve scopes.
    pub token: Token,
    /// The owner's qualified identity.
    pub owner: String,
    _task_managers: Vec<TaskManager>,
}

impl TestHub {
    /// Start building a hub (defaults: 2 replicas, 2 consumers,
    /// memoization on, evaluation servables published, seed 7).
    pub fn builder() -> TestHubBuilder {
        TestHubBuilder {
            replicas: 2,
            consumers: 2,
            task_managers: 1,
            seed: 7,
            memo: None,
            eval_servables: true,
            extra_executors: Vec::new(),
            config: ServingConfig::default(),
            obs: Obs::new(),
            faults: FaultHandle::default(),
            task_topic_config: None,
            replica_health: None,
            executor_reply_timeout: None,
        }
    }

    /// Publish a public servable under the hub owner with minimal
    /// metadata — a shorthand for tests and examples.
    pub fn publish_simple(
        &self,
        name: &str,
        model_type: ModelType,
        servable: Arc<dyn Servable>,
    ) -> String {
        let metadata = ServableMetadata::new(name, &self.owner, model_type);
        self.service
            .publish(
                &self.token,
                metadata,
                servable,
                BTreeMap::new(),
                PublishVisibility::Public,
            )
            .expect("publish_simple")
            .id
    }

    /// Issue a serve-only token for a fresh user `username`.
    pub fn user_token(&self, username: &str) -> Token {
        let id = self
            .auth
            .register_identity("dlhub.org", username)
            .or_else(|_| {
                self.auth
                    .lookup(&format!("{username}@dlhub.org"))
                    .ok_or(dlhub_auth::AuthError::UnknownProvider("dlhub.org".into()))
            })
            .unwrap();
        self.auth
            .issue_token(id, &[Scope::new(RESOURCE_SERVER, SERVE_SCOPE)])
            .unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    #[test]
    fn hub_serves_all_six_eval_servables() {
        let hub = TestHub::builder().build();
        let ids = hub.repo.all_ids();
        assert_eq!(ids.len(), 6);
        for id in [
            "dlhub/noop",
            "dlhub/inception",
            "dlhub/cifar10",
            "dlhub/matminer-util",
            "dlhub/matminer-featurize",
            "dlhub/matminer-model",
        ] {
            assert!(ids.contains(&id.to_string()), "missing {id}");
        }
    }

    #[test]
    fn hub_without_eval_servables_is_empty() {
        let hub = TestHub::builder().without_eval_servables().build();
        assert!(hub.repo.all_ids().is_empty());
    }

    #[test]
    fn memo_follows_the_config_unless_set_on_the_builder() {
        let off = || ServingConfig {
            memo_enabled: false,
            ..ServingConfig::default()
        };
        // (what the builder was told, whether the second run hits)
        let cases = [
            (TestHub::builder().config(off()), false),
            (TestHub::builder(), true),
            (TestHub::builder().config(off()).memo(true), true),
            (TestHub::builder().memo(true).config(off()), true),
            (
                TestHub::builder()
                    .memo(false)
                    .config(ServingConfig::default()),
                false,
            ),
        ];
        for (case, (builder, hit)) in cases.into_iter().enumerate() {
            let hub = builder.build();
            let run = || hub.service.run(&hub.token, "dlhub/noop", Value::Null);
            run().unwrap();
            assert_eq!(run().unwrap().timings.cache_hit, hit, "case {case}");
        }
    }

    #[test]
    fn user_token_can_serve_but_not_publish() {
        let hub = TestHub::builder().without_eval_servables().build();
        hub.publish_simple(
            "m",
            ModelType::PythonFunction,
            crate::servable::servable_fn(|_| Ok(Value::Int(1))),
        );
        let user = hub.user_token("visitor");
        assert!(hub.service.run(&user, "dlhub/m", Value::Null).is_ok());
        let err = hub
            .service
            .publish(
                &user,
                ServableMetadata::new("theirs", "x@y", ModelType::PythonFunction),
                crate::servable::servable_fn(|_| Ok(Value::Null)),
                BTreeMap::new(),
                PublishVisibility::Public,
            )
            .unwrap_err();
        assert!(matches!(err, crate::DlhubError::Auth(_)));
    }

    #[test]
    fn replicas_are_deployed_on_the_cluster() {
        let hub = TestHub::builder()
            .replicas(3)
            .without_eval_servables()
            .build();
        hub.publish_simple(
            "m",
            ModelType::PythonFunction,
            crate::servable::servable_fn(|v| Ok(v.clone())),
        );
        hub.service.run(&hub.token, "dlhub/m", Value::Null).unwrap();
        assert_eq!(hub.parsl.replicas("dlhub/m"), 3);
        assert_eq!(hub.cluster.running_pods("parsl-dlhub-m").len(), 3);
    }
}
