//! Cross-crate integration tests: the full DLHub stack (auth ->
//! repository -> broker -> task manager -> executor -> servable) in
//! one process, exercised the way the paper's deployments use it.

use dlhub_core::fault::FaultHandle;
use dlhub_core::hub::TestHub;
use dlhub_core::obs::Obs;
use dlhub_core::pipeline::Pipeline;
use dlhub_core::servable::{servable_fn, ModelType};
use dlhub_core::value::Value;
use dlhub_core::DlhubError;
use std::sync::Arc;
use std::time::Duration;

fn cifar_image(variant: u64) -> Value {
    Value::from_tensor(&dlhub_core::tensor::models::synthetic_image(
        &dlhub_core::tensor::models::CIFAR10_INPUT,
        variant,
    ))
}

#[test]
fn all_six_evaluation_servables_serve_correctly() {
    let hub = TestHub::builder().build();
    // noop
    let r = hub
        .service
        .run(&hub.token, "dlhub/noop", Value::Null)
        .unwrap();
    assert_eq!(r.value, Value::Str("hello world".into()));
    // cifar10
    let r = hub
        .service
        .run(&hub.token, "dlhub/cifar10", cifar_image(0))
        .unwrap();
    assert_eq!(r.value.as_list().unwrap().len(), 1);
    // inception
    let img = Value::from_tensor(&dlhub_core::tensor::models::synthetic_image(
        &dlhub_core::tensor::models::INCEPTION_INPUT,
        0,
    ));
    let r = hub.service.run(&hub.token, "dlhub/inception", img).unwrap();
    assert_eq!(r.value.as_list().unwrap().len(), 5);
    // matminer chain
    let parsed = hub
        .service
        .run(
            &hub.token,
            "dlhub/matminer-util",
            Value::Str("Fe2O3".into()),
        )
        .unwrap();
    let feats = hub
        .service
        .run(&hub.token, "dlhub/matminer-featurize", parsed.value)
        .unwrap();
    let pred = hub
        .service
        .run(&hub.token, "dlhub/matminer-model", feats.value)
        .unwrap();
    assert!(matches!(pred.value, Value::Float(v) if v.is_finite()));
    // Timing nesting holds for every request the stack serves.
    assert!(pred.timings.request >= pred.timings.invocation);
    assert!(pred.timings.invocation >= pred.timings.inference);
}

#[test]
fn concurrent_clients_all_get_correct_answers() {
    let hub = TestHub::builder().replicas(4).consumers(4).build();
    let service = Arc::clone(&hub.service);
    let token = hub.token.clone();
    let handles: Vec<_> = (0..8)
        .map(|worker| {
            let service = Arc::clone(&service);
            let token = token.clone();
            std::thread::spawn(move || {
                for i in 0..10 {
                    let formula = format!("Si{}O{}", worker + 1, i + 1);
                    let r = service
                        .run(&token, "dlhub/matminer-util", Value::Str(formula.clone()))
                        .unwrap();
                    match r.value {
                        Value::Json(doc) => assert_eq!(doc["formula"], formula.as_str()),
                        other => panic!("unexpected {other}"),
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn restricted_model_lifecycle_across_users() {
    let hub = TestHub::builder().without_eval_servables().build();
    let stranger = hub.user_token("stranger");
    // Publish restricted, invisible to the stranger.
    let mut metadata =
        dlhub_core::ServableMetadata::new("secret", &hub.owner, ModelType::PythonFunction);
    metadata.description = "pre-release".into();
    hub.service
        .publish(
            &hub.token,
            metadata,
            servable_fn(|_| Ok(Value::Int(42))),
            Default::default(),
            dlhub_core::repository::PublishVisibility::Restricted {
                users: vec![],
                groups: vec![],
            },
        )
        .unwrap();
    assert!(matches!(
        hub.service.run(&stranger, "dlhub/secret", Value::Null),
        Err(DlhubError::NotFound(_))
    ));
    // Share, then invoke.
    hub.repo
        .share_with(&hub.token, "dlhub/secret", "stranger@dlhub.org")
        .unwrap();
    let r = hub
        .service
        .run(&stranger, "dlhub/secret", Value::Null)
        .unwrap();
    assert_eq!(r.value, Value::Int(42));
}

#[test]
fn pipeline_and_memoization_compose() {
    let hub = TestHub::builder().memo(true).build();
    hub.service
        .register_pipeline(
            &hub.token,
            Pipeline::new(
                "enthalpy",
                vec![
                    "dlhub/matminer-util".into(),
                    "dlhub/matminer-featurize".into(),
                    "dlhub/matminer-model".into(),
                ],
            ),
        )
        .unwrap();
    let (v1, steps1) = hub
        .service
        .run_pipeline(&hub.token, "enthalpy", Value::Str("NaCl".into()))
        .unwrap();
    let (v2, steps2) = hub
        .service
        .run_pipeline(&hub.token, "enthalpy", Value::Str("NaCl".into()))
        .unwrap();
    assert_eq!(v1, v2);
    assert!(steps1.iter().all(|s| !s.timings.cache_hit));
    // The second run is one hit on the pipeline's own entry (its name
    // and input): no step ran, so every step reads the hit and no
    // inference.
    assert_eq!(steps2.len(), 3);
    assert!(steps2
        .iter()
        .all(|s| s.timings.cache_hit && s.timings.inference.is_zero()));
    let stats = hub.service.memo_stats();
    assert_eq!((stats.hits, stats.misses), (1, 1));
    // Intermediates are not cached: a step run on its own misses.
    let parsed = hub
        .service
        .run(&hub.token, "dlhub/matminer-util", Value::Str("NaCl".into()))
        .unwrap();
    assert!(!parsed.timings.cache_hit);
}

#[test]
fn multiple_task_managers_share_the_queue() {
    // "one or more Task Managers" (§IV): two TMs pull from the same
    // broker topic; both serve, and all answers stay correct.
    let hub = TestHub::builder()
        .task_managers(2)
        .consumers(2)
        .replicas(2)
        .memo(false)
        .build();
    assert_eq!(hub.service.task_managers().len(), 2);
    let service = Arc::clone(&hub.service);
    let token = hub.token.clone();
    let handles: Vec<_> = (0..6)
        .map(|worker| {
            let service = Arc::clone(&service);
            let token = token.clone();
            std::thread::spawn(move || {
                for i in 0..8 {
                    let formula = format!("Al{}O{}", worker + 1, i + 1);
                    let r = service
                        .run(&token, "dlhub/matminer-util", Value::Str(formula.clone()))
                        .unwrap();
                    match r.value {
                        Value::Json(doc) => assert_eq!(doc["formula"], formula.as_str()),
                        other => panic!("unexpected {other}"),
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    // With a 10ms servable and parallel clients, two TMs must overlap:
    // 24 requests of 10ms across 2 TMs × 2 consumers finish well under
    // the serial 240ms.
    hub.publish_simple(
        "slow",
        ModelType::PythonFunction,
        servable_fn(|v| {
            std::thread::sleep(Duration::from_millis(10));
            Ok(v.clone())
        }),
    );
    let start = std::time::Instant::now();
    let handles: Vec<_> = (0..24)
        .map(|i| {
            let service = Arc::clone(&hub.service);
            let token = hub.token.clone();
            std::thread::spawn(move || service.run(&token, "dlhub/slow", Value::Int(i)).unwrap())
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_millis(200),
        "no parallelism across TMs: {elapsed:?}"
    );
}

#[test]
fn no_task_manager_means_timeout_not_hang() {
    // Assemble a service with no Task Manager attached: requests must
    // fail with Timeout after the configured deadline.
    use dlhub_auth::{AuthService, Scope};
    use dlhub_core::repository::{Repository, PUBLISH_SCOPE, SERVE_SCOPE};
    use dlhub_core::serving::{ManagementService, ServingConfig};
    use dlhub_queue::{Broker, BrokerConfig};

    let auth = AuthService::new();
    auth.register_provider("p");
    let repo = Arc::new(Repository::new(auth.clone()));
    let user = auth.register_identity("p", "u").unwrap();
    let token = auth
        .issue_token(
            user,
            &[
                Scope::new("dlhub", PUBLISH_SCOPE),
                Scope::new("dlhub", SERVE_SCOPE),
            ],
        )
        .unwrap();
    repo.publish(
        &token,
        dlhub_core::ServableMetadata::new("m", "u@p", ModelType::PythonFunction),
        servable_fn(|_| Ok(Value::Null)),
        Default::default(),
        dlhub_core::repository::PublishVisibility::Public,
    )
    .unwrap();
    let broker = Broker::new(BrokerConfig::default());
    let service = ManagementService::new(
        repo,
        &broker,
        ServingConfig {
            request_timeout: Duration::from_millis(100),
            ..ServingConfig::default()
        },
        None,
        FaultHandle::default(),
    );
    let started = std::time::Instant::now();
    let err = service.run(&token, "u/m", Value::Null).unwrap_err();
    // With no Task Manager attached every attempt times out, so the
    // default retry policy (2 retries) reports exhaustion.
    match err {
        DlhubError::Exhausted {
            attempts,
            ref last_error,
            ..
        } => {
            assert_eq!(attempts, 3);
            assert!(last_error.contains("timed out"), "{last_error}");
        }
        other => panic!("unexpected {other:?}"),
    }
    // 3 x 100ms attempts plus backoff stays well under the bound.
    assert!(started.elapsed() < Duration::from_secs(2));
}

#[test]
fn republished_model_serves_new_behaviour_immediately() {
    let hub = TestHub::builder()
        .without_eval_servables()
        .memo(true)
        .build();
    hub.publish_simple(
        "evolving",
        ModelType::PythonFunction,
        servable_fn(|_| Ok(Value::Int(1))),
    );
    let r1 = hub
        .service
        .run(&hub.token, "dlhub/evolving", Value::Null)
        .unwrap();
    hub.publish_simple(
        "evolving",
        ModelType::PythonFunction,
        servable_fn(|_| Ok(Value::Int(2))),
    );
    let r2 = hub
        .service
        .run(&hub.token, "dlhub/evolving", Value::Null)
        .unwrap();
    assert_eq!(r1.value, Value::Int(1));
    assert_eq!(r2.value, Value::Int(2));
    // Version and DOI moved.
    let (_, version, _) = hub.service.describe(None, "dlhub/evolving").unwrap();
    assert_eq!(version, 2);
}

#[test]
fn task_survives_a_crashing_task_manager() {
    // The queue "provides a reliable messaging model that ensures
    // tasks are received and executed" (§IV-A). A TM that takes a task
    // and dies before replying must not lose it: the lease expires and
    // the task is redelivered to a healthy TM.
    use dlhub_auth::{AuthService, Scope};
    use dlhub_core::repository::{Repository, PUBLISH_SCOPE, SERVE_SCOPE};
    use dlhub_core::serving::{ManagementService, ServingConfig};
    use dlhub_core::task_manager::TaskManager;
    use dlhub_queue::{Broker, BrokerConfig, TopicConfig};

    let auth = AuthService::new();
    auth.register_provider("p");
    let repo = Arc::new(Repository::new(auth.clone()));
    let user = auth.register_identity("p", "u").unwrap();
    let token = auth
        .issue_token(
            user,
            &[
                Scope::new("dlhub", PUBLISH_SCOPE),
                Scope::new("dlhub", SERVE_SCOPE),
            ],
        )
        .unwrap();
    repo.publish(
        &token,
        dlhub_core::ServableMetadata::new("m", "u@p", ModelType::PythonFunction),
        servable_fn(|_| Ok(Value::Str("survived".into()))),
        Default::default(),
        dlhub_core::repository::PublishVisibility::Public,
    )
    .unwrap();

    // Short leases so the crash is detected quickly.
    let broker = Broker::new(BrokerConfig {
        topic_defaults: TopicConfig {
            lease: Duration::from_millis(100),
            max_attempts: 5,
            ..TopicConfig::default()
        },
    });
    let config = ServingConfig {
        request_timeout: Duration::from_secs(10),
        ..ServingConfig::default()
    };

    // A "crashing TM": grabs the first task and never replies (the
    // delivery is forgotten, simulating a process kill mid-execution).
    broker.ensure_topic(&config.task_topic);
    let crash_broker = broker.clone();
    let crash_topic = config.task_topic.clone();
    let crasher = std::thread::spawn(move || {
        let delivery = crash_broker
            .recv_timeout(&crash_topic, Duration::from_secs(5))
            .expect("crasher should get the task first");
        std::mem::forget(delivery); // crash: no ack, no reply
    });

    let service = ManagementService::new(
        Arc::clone(&repo),
        &broker,
        config.clone(),
        None,
        FaultHandle::default(),
    );
    // Give the crasher a head start on the queue before a healthy TM
    // joins.
    let issued = std::thread::spawn({
        let service = Arc::clone(&service);
        let token = token.clone();
        move || service.run(&token, "u/m", Value::Null)
    });
    crasher.join().unwrap();
    // Now start a healthy TM; the leased-but-dead task must be
    // redelivered to it.
    let _tm = TaskManager::start(
        "healthy-tm",
        &broker,
        &config.task_topic,
        Arc::clone(&repo),
        vec![Arc::new(dlhub_core::executor::ParslExecutor::new(
            1,
            &Obs::new(),
            FaultHandle::default(),
        ))],
        1,
    );
    let result = issued.join().unwrap().expect("task must survive the crash");
    assert_eq!(result.value, Value::Str("survived".into()));
}

#[test]
fn retrain_and_redeploy_lifecycle() {
    // §I: "seamless retraining and redeployment of models as new data
    // are available." Train on SageMaker, publish to DLHub, serve;
    // retrain on more data, republish — the version bumps, stale memo
    // entries are invalidated, and serving continues uninterrupted.
    use dlhub_baselines::SageMaker;
    use dlhub_core::tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn dataset(n: usize, seed: u64) -> Vec<(Tensor, usize)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let label = rng.gen_range(0..2usize);
                let mut data = vec![0.0f32; 64];
                let row = if label == 0 {
                    rng.gen_range(0..3)
                } else {
                    rng.gen_range(5..8)
                };
                data[row * 8 + rng.gen_range(0..8)] = 1.0;
                (Tensor::new(vec![1, 8, 8], data).unwrap(), label)
            })
            .collect()
    }

    let hub = TestHub::builder()
        .without_eval_servables()
        .memo(true)
        .build();

    // v1: trained on a small set.
    let serve_v1 = {
        let sm = SageMaker::new(); // fresh container for the frozen net
        sm.create_cnn_training_job("quadrant", vec![1, 8, 8], 2, &dataset(80, 1), 6, 1)
            .unwrap();
        sm.create_endpoint("e", "quadrant", 1).unwrap();
        servable_fn(move |input| sm.invoke_endpoint("e", input).map_err(|e| e.to_string()))
    };
    let mut metadata = dlhub_core::ServableMetadata::new("quadrant", &hub.owner, ModelType::Keras);
    metadata.description = "quadrant classifier v1".into();
    let v1 = hub
        .service
        .publish(
            &hub.token,
            metadata.clone(),
            serve_v1,
            Default::default(),
            dlhub_core::repository::PublishVisibility::Public,
        )
        .unwrap();
    assert_eq!(v1.version, 1);
    let probe = Value::from_tensor(&dataset(1, 99)[0].0);
    let first = hub
        .service
        .run(&hub.token, "dlhub/quadrant", probe.clone())
        .unwrap();

    // v2: retrained on more data, redeployed under the same id.
    let serve_v2 = {
        let sm2 = SageMaker::new();
        sm2.create_cnn_training_job("quadrant", vec![1, 8, 8], 2, &dataset(300, 2), 8, 2)
            .unwrap();
        sm2.create_endpoint("e", "quadrant", 1).unwrap();
        servable_fn(move |input| sm2.invoke_endpoint("e", input).map_err(|e| e.to_string()))
    };
    metadata.description = "quadrant classifier v2 (retrained)".into();
    let v2 = hub
        .service
        .publish(
            &hub.token,
            metadata,
            serve_v2,
            Default::default(),
            dlhub_core::repository::PublishVisibility::Public,
        )
        .unwrap();
    assert_eq!(v2.version, 2);
    assert_ne!(v1.doi, v2.doi);

    // The same request now reaches the retrained model (no stale memo
    // answer), and predictions remain valid classifications.
    let second = hub
        .service
        .run(&hub.token, "dlhub/quadrant", probe)
        .unwrap();
    assert!(
        !second.timings.cache_hit,
        "stale memo entry served after redeploy"
    );
    for value in [&first.value, &second.value] {
        match value {
            Value::Json(doc) => {
                let class = doc["class"].as_u64().unwrap();
                assert!(class < 2);
            }
            other => panic!("unexpected {other}"),
        }
    }
    // Test-set accuracy of the deployed v2 through the full stack.
    let test = dataset(30, 7);
    let mut correct = 0;
    for (x, label) in &test {
        let out = hub
            .service
            .run(&hub.token, "dlhub/quadrant", Value::from_tensor(x))
            .unwrap();
        if let Value::Json(doc) = out.value {
            if doc["class"].as_u64() == Some(*label as u64) {
                correct += 1;
            }
        }
    }
    assert!(correct >= 26, "deployed accuracy {correct}/30");
}

#[test]
fn pipeline_run_yields_one_trace_with_correctly_parented_spans() {
    // Observability acceptance: a single pipeline run must produce a
    // single trace whose spans cover all three measurement tiers
    // (§V-A) — the pipeline's request frame (Management Service), one
    // invocation (Task Manager), one inference per step (servable) —
    // with consistent parent links and nested durations.
    let hub = TestHub::builder().memo(false).build();
    hub.service
        .register_pipeline(
            &hub.token,
            Pipeline::new(
                "enthalpy",
                vec![
                    "dlhub/matminer-util".into(),
                    "dlhub/matminer-featurize".into(),
                    "dlhub/matminer-model".into(),
                ],
            ),
        )
        .unwrap();
    let (_, steps, trace) = hub
        .service
        .run_pipeline_traced(&hub.token, "enthalpy", Value::Str("KBr".into()))
        .unwrap();
    assert_eq!(steps.len(), 3);

    let export = hub.service.obs().tracer.export(Some(trace));
    // One trace: every exported span carries the id we were handed.
    assert_eq!(export.trace_ids(), vec![trace]);

    // One pipeline root, unparented: the pipeline's one frame.
    let roots = export.named("pipeline");
    assert_eq!(roots.len(), 1);
    let root = roots[0];
    assert_eq!(root.parent, 0);
    assert!(export.named("request").is_empty());

    // One task: the Task Manager tier is one invocation span under the
    // root, which owns one inference span (the servable tier) per step.
    let invocations: Vec<_> = export
        .children_of(root.span)
        .into_iter()
        .filter(|s| s.name == "invocation")
        .collect();
    assert_eq!(invocations.len(), 1);
    let invocation = invocations[0];
    let mut inferences: Vec<_> = export
        .children_of(invocation.span)
        .into_iter()
        .filter(|s| s.name == "inference")
        .collect();
    assert_eq!(inferences.len(), 3);
    // The paper's nesting invariant holds span-for-span.
    for inference in &inferences {
        assert!(inference.duration() <= invocation.duration());
    }
    assert!(invocation.duration() <= root.duration());
    // The three steps ran in pipeline order, one after the other.
    inferences.sort_by_key(|s| s.start_ns);
    assert!(inferences.windows(2).all(|w| w[0].end_ns <= w[1].start_ns));
    let order: Vec<_> = inferences
        .iter()
        .map(|s| (s.attr("step").unwrap(), s.attr("servable").unwrap()))
        .collect();
    assert_eq!(
        order,
        vec![
            ("0", "dlhub/matminer-util"),
            ("1", "dlhub/matminer-featurize"),
            ("2", "dlhub/matminer-model")
        ]
    );
    // Each step's reported timings nest the same way.
    for step in &steps {
        let t = step.timings;
        assert!(t.request >= t.invocation && t.invocation >= t.inference);
    }
}

#[test]
fn batch_and_sequential_agree() {
    let hub = TestHub::builder().build();
    let formulas: Vec<Value> = ["NaCl", "SiO2", "BaTiO3", "Fe2O3"]
        .iter()
        .map(|f| Value::Str(f.to_string()))
        .collect();
    let (batched, _) = hub
        .service
        .run_batch(&hub.token, "dlhub/matminer-util", formulas.clone())
        .unwrap();
    for (input, batched_out) in formulas.iter().zip(&batched) {
        let solo = hub
            .service
            .run_with_options(
                &hub.token,
                "dlhub/matminer-util",
                input.clone(),
                &dlhub_core::serving::RunOptions {
                    memoize: Some(false),
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(&solo.value, batched_out);
    }
}
