//! Chaos suite: the full DLHub stack under seeded, deterministic fault
//! injection.
//!
//! Every test threads one [`FaultPlan`] through the whole deployment
//! (broker, Task Managers, replicas, memo cache, batcher) via
//! `TestHubBuilder::faults`, drives the paper's six evaluation
//! servables through it, and asserts the recovery contract:
//!
//! * every request either completes or fails with a *typed* error
//!   (`Exhausted`, `Execution`, `Timeout`) within its deadline — no
//!   hangs, no stuck `Pending` tasks, no lost broker messages;
//! * fault schedules are a pure function of the seed, so a failing run
//!   is reproducible with `CHAOS_SEED=<seed> cargo test --test chaos`.
//!
//! The default seed matrix is `[7, 1848, 3141]`; `CHAOS_SEED` narrows
//! it to one seed.

use dlhub_core::admission::AdmissionConfig;
use dlhub_core::autoscale::ControlPolicy;
use dlhub_core::executor::HealthPolicy;
use dlhub_core::fault::{site, FaultHandle, FaultKind, FaultPlan, FaultSpec};
use dlhub_core::hub::{TestHub, TestHubBuilder};
use dlhub_core::obs::{Obs, Telemetry};
use dlhub_core::servable::{servable_fn, ModelType};
use dlhub_core::serving::ServingConfig;
use dlhub_core::task::TaskStatus;
use dlhub_core::value::Value;
use dlhub_core::DlhubError;
use dlhub_queue::TopicConfig;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Broker lease used by every chaos hub: short enough that a crashed
/// Task Manager's task is redelivered within one client attempt.
const LEASE: Duration = Duration::from_millis(120);

/// Per-request wall-clock slack on top of the configured deadline
/// (scheduler noise, pool warmup) before a test declares a hang.
const SLACK: Duration = Duration::from_secs(3);

fn seeds() -> Vec<u64> {
    match std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
    {
        Some(seed) => vec![seed],
        None => vec![7, 1848, 3141],
    }
}

fn chaos_config() -> ServingConfig {
    // Per-attempt timeout and deadline are sized for the heavyweight
    // evaluation servables (Inception, CIFAR-10) on a loaded
    // single-core CI box; faulted attempts fail much faster than this.
    ServingConfig {
        request_timeout: Duration::from_secs(3),
        request_deadline: Duration::from_secs(12),
        max_retries: 3,
        retry_backoff: Duration::from_millis(2),
        retry_execution_errors: true,
        ..ServingConfig::default()
    }
}

/// A hub with chaos-tuned recovery knobs: short lease, bounded reply
/// wait, fast quarantine.
fn chaos_builder(faults: FaultHandle) -> TestHubBuilder {
    TestHub::builder()
        .memo(false)
        .config(chaos_config())
        .faults(faults)
        .task_topic_config(TopicConfig {
            lease: LEASE,
            max_attempts: 10,
            ..TopicConfig::default()
        })
        .replica_health(HealthPolicy {
            quarantine_after: 2,
            quarantine_for: Duration::from_millis(80),
        })
        // Generous: real Inception inference takes >300ms on a loaded
        // single-core box. The hung-replica test tightens this locally.
        .executor_reply_timeout(Duration::from_secs(5))
}

fn counter(hub: &TestHub, name: &str) -> u64 {
    hub.service
        .obs()
        .snapshot()
        .counters
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| *v)
        .unwrap_or(0)
}

fn gauge(hub: &TestHub, name: &str) -> i64 {
    hub.service
        .obs()
        .snapshot()
        .gauges
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| *v)
        .unwrap_or(0)
}

/// The recovery contract for one synchronous request: an answer —
/// success or typed failure — within the deadline. Returns the value on
/// success so chained servables can consume it.
fn run_contract(hub: &TestHub, id: &str, input: Value) -> Option<Value> {
    let started = Instant::now();
    let outcome = hub.service.run(&hub.token, id, input);
    let elapsed = started.elapsed();
    assert!(
        elapsed < chaos_config().request_deadline + SLACK,
        "{id} blew its deadline: {elapsed:?}"
    );
    match outcome {
        Ok(result) => Some(result.value),
        Err(
            ref err @ (DlhubError::Exhausted { .. }
            | DlhubError::Execution { .. }
            | DlhubError::Timeout
            | DlhubError::Transport(_)),
        ) => {
            eprintln!("chaos: {id} failed typed after {elapsed:?}: {err}");
            None
        }
        Err(other) => panic!("{id} failed untyped: {other:?}"),
    }
}

/// "No silent losses": wait for abandoned leases to redeliver and
/// drain, then require the task topic's ledger to balance exactly —
/// everything enqueued was either acked or dead-lettered.
fn assert_ledger_drains(hub: &TestHub, seed: u64) {
    let topic = chaos_config().task_topic;
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        let stats = hub.broker.stats(&topic).unwrap();
        if stats.outstanding() == 0 {
            assert!(stats.enqueued > 0, "seed {seed}: nothing was enqueued");
            assert_eq!(
                stats.enqueued,
                stats.acked + stats.dead_lettered,
                "seed {seed}: ledger out of balance: {stats:?}"
            );
            return;
        }
        assert!(
            Instant::now() < deadline,
            "seed {seed}: {} tasks never drained: {:?}",
            stats.outstanding(),
            stats
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

fn cifar_image(variant: u64) -> Value {
    Value::from_tensor(&dlhub_core::tensor::models::synthetic_image(
        &dlhub_core::tensor::models::CIFAR10_INPUT,
        variant,
    ))
}

fn inception_image(variant: u64) -> Value {
    Value::from_tensor(&dlhub_core::tensor::models::synthetic_image(
        &dlhub_core::tensor::models::INCEPTION_INPUT,
        variant,
    ))
}

/// Drive all six evaluation servables for `rounds` rounds, asserting
/// the recovery contract on every request. Returns (requests, successes).
fn six_servable_workload(hub: &TestHub, rounds: u64) -> (u64, u64) {
    let mut requests = 0;
    let mut successes = 0;
    let mut record = |value: Option<Value>| {
        requests += 1;
        if value.is_some() {
            successes += 1;
        }
        value
    };
    for round in 0..rounds {
        record(run_contract(hub, "dlhub/noop", Value::Null));
        record(run_contract(hub, "dlhub/cifar10", cifar_image(round)));
        record(run_contract(hub, "dlhub/inception", inception_image(round)));
        let formula = ["NaCl", "SiO2", "Fe2O3"][round as usize % 3];
        let parsed = record(run_contract(
            hub,
            "dlhub/matminer-util",
            Value::Str(formula.into()),
        ));
        // Downstream steps only run when the upstream survived its
        // faults; a typed upstream failure legitimately ends the chain.
        if let Some(parsed) = parsed {
            if let Some(feats) = record(run_contract(hub, "dlhub/matminer-featurize", parsed)) {
                record(run_contract(hub, "dlhub/matminer-model", feats));
            }
        }
    }
    (requests, successes)
}

#[test]
fn replica_errors_are_retried_and_the_workload_survives() {
    for seed in seeds() {
        let faults = FaultPlan::seeded(seed)
            .inject(
                site::REPLICA,
                FaultSpec::new(FaultKind::Error).probability(0.3).max(12),
            )
            .build();
        let hub = chaos_builder(faults.clone()).build();
        let (requests, successes) = six_servable_workload(&hub, 2);
        assert!(requests >= 10, "seed {seed}: workload too small");
        // The fault budget (12 firings at p=0.3 over >=10 requests with
        // 4 attempts each) cannot exhaust every request.
        assert!(successes > 0, "seed {seed}: nothing survived");
        if faults.injected(site::REPLICA) > 0 {
            assert!(
                counter(&hub, "request_retries_total") > 0,
                "seed {seed}: faults fired but nothing was retried"
            );
        }
    }
}

#[test]
fn replica_panics_trip_quarantine_and_the_pool_recovers() {
    for seed in seeds() {
        // Deterministic single-replica deployment: the first four jobs
        // panic, striking the replica out twice (quarantine_after = 2).
        let faults = FaultPlan::seeded(seed)
            .inject(site::REPLICA, FaultSpec::new(FaultKind::Panic).max(4))
            .build();
        let hub = chaos_builder(faults.clone())
            .replicas(1)
            .consumers(1)
            .task_managers(1)
            .build();
        // Request 1 burns the whole retry budget on panics (4 attempts,
        // 4 faults) and must surface a typed exhaustion.
        let started = Instant::now();
        let err = hub
            .service
            .run(&hub.token, "dlhub/noop", Value::Null)
            .unwrap_err();
        match err {
            DlhubError::Exhausted {
                attempts,
                ref last_error,
                ..
            } => {
                assert_eq!(attempts, 4, "seed {seed}");
                assert!(last_error.contains("panic"), "seed {seed}: {last_error}");
            }
            other => panic!("seed {seed}: unexpected {other:?}"),
        }
        assert!(started.elapsed() < chaos_config().request_deadline + SLACK);
        // The fault budget is spent; the restarted replica serves again.
        let ok = hub
            .service
            .run(&hub.token, "dlhub/noop", Value::Null)
            .unwrap();
        assert_eq!(ok.value, Value::Str("hello world".into()));
        assert_eq!(faults.injected(site::REPLICA), 4, "seed {seed}");
        // 4 consecutive failures at quarantine_after=2 => 2 restarts,
        // and nothing is left sitting in quarantine.
        assert_eq!(counter(&hub, "replica_restarts_total"), 2, "seed {seed}");
        assert_eq!(gauge(&hub, "replicas_quarantined"), 0, "seed {seed}");
    }
}

#[test]
fn tm_crashes_redeliver_the_leased_task() {
    for seed in seeds() {
        // The first two task deliveries hit a "crashing" consumer that
        // abandons them unsettled; lease expiry must bring each task
        // back to a surviving consumer. (Single TM: both firings land
        // on the first request's delivery and redelivery, so the test
        // isolates lease-expiry recovery from cold replica pools.)
        let faults = FaultPlan::seeded(seed)
            .inject(site::TM_CRASH, FaultSpec::new(FaultKind::Crash).max(2))
            .build();
        let hub = chaos_builder(faults.clone()).build();
        let (requests, successes) = six_servable_workload(&hub, 1);
        assert_eq!(
            requests, successes,
            "seed {seed}: a crashed TM lost a task ({successes}/{requests})"
        );
        assert_eq!(counter(&hub, "tm_crashes_injected_total"), 2, "seed {seed}");
        let stats = hub.broker.stats(&chaos_config().task_topic).unwrap();
        assert!(
            stats.redelivered >= 2,
            "seed {seed}: crashes were not redelivered ({:?})",
            stats
        );
    }
}

#[test]
fn a_tm_crash_between_pipeline_steps_redelivers_the_whole_task() {
    for seed in seeds() {
        // The crash site is consulted when a consumer takes a task and
        // again between every two steps of a chain. Its second arrival
        // is the first run's hop from step 1 to step 2: the Task Manager
        // dies mid-pipeline, after step 1 ran.
        let faults = FaultPlan::seeded(seed)
            .inject(
                site::TM_CRASH,
                FaultSpec::new(FaultKind::Crash).after(1).max(1),
            )
            .build();
        let hub = chaos_builder(faults.clone())
            .without_eval_servables()
            .build();
        let runs = Arc::new([(); 2].map(|_| std::sync::atomic::AtomicUsize::new(0)));
        for (step, (name, add)) in [("first", 1), ("second", 10)].into_iter().enumerate() {
            let runs = Arc::clone(&runs);
            hub.publish_simple(
                name,
                ModelType::PythonFunction,
                servable_fn(move |v| {
                    runs[step].fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                    match v {
                        Value::Int(i) => Ok(Value::Int(i + add)),
                        other => Err(format!("not an int: {other:?}")),
                    }
                }),
            );
        }
        let steps = vec!["dlhub/first".to_string(), "dlhub/second".to_string()];
        let pipeline = dlhub_core::pipeline::Pipeline::new("first-then-second", steps);
        hub.service.register_pipeline(&hub.token, pipeline).unwrap();

        let started = Instant::now();
        let (value, timings) = hub
            .service
            .run_pipeline(&hub.token, "first-then-second", Value::Int(0))
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        // Exactly one answer, from one attempt: the lease brought the
        // whole chain back inside the client's attempt, no retry.
        assert_eq!(value, Value::Int(11), "seed {seed}");
        assert_eq!(timings.len(), 2, "seed {seed}");
        assert!(
            started.elapsed() < chaos_config().request_timeout,
            "seed {seed}: {:?}",
            started.elapsed()
        );
        assert_eq!(counter(&hub, "request_retries_total"), 0, "seed {seed}");
        assert_eq!(counter(&hub, "tm_crashes_injected_total"), 1, "seed {seed}");
        assert_eq!(faults.injected(site::TM_CRASH), 1, "seed {seed}");
        // The whole task was redelivered: step 1 ran again, step 2 once.
        let ran = runs
            .each_ref()
            .map(|r| r.load(std::sync::atomic::Ordering::SeqCst));
        assert_eq!(ran, [2, 1], "seed {seed}");
        assert_eq!(counter(&hub, "tm_tasks_total"), 1, "seed {seed}");
        assert_ledger_drains(&hub, seed);
        // Conservation: every delivery was acked or redelivered (none
        // dead-lettered here), and every send reached the queue.
        let stats = hub.broker.stats(&chaos_config().task_topic).unwrap();
        assert_eq!(
            (
                stats.enqueued,
                stats.delivered,
                stats.redelivered,
                stats.dropped
            ),
            (1, 2, 1, 0),
            "seed {seed}: {stats:?}"
        );
        assert_eq!(
            stats.delivered,
            stats.acked + stats.redelivered + stats.dead_lettered,
            "seed {seed}: {stats:?}"
        );
    }
}

#[test]
fn dropped_broker_sends_exhaust_with_a_typed_error() {
    for seed in seeds() {
        // Every broker send silently vanishes: requests can only time
        // out, attempt by attempt, into a typed exhaustion — never
        // hang. No model ever executes, so a tight per-attempt timeout
        // keeps the exhaustion fast.
        let faults = FaultPlan::seeded(seed)
            .inject(site::BROKER_SEND, FaultSpec::new(FaultKind::Drop))
            .build();
        let config = ServingConfig {
            request_timeout: Duration::from_millis(250),
            request_deadline: Duration::from_secs(2),
            ..chaos_config()
        };
        let hub = chaos_builder(faults.clone()).config(config.clone()).build();
        for id in ["dlhub/noop", "dlhub/matminer-util"] {
            let input = if id == "dlhub/noop" {
                Value::Null
            } else {
                Value::Str("NaCl".into())
            };
            let started = Instant::now();
            let err = hub.service.run(&hub.token, id, input).unwrap_err();
            match err {
                DlhubError::Exhausted {
                    attempts,
                    ref last_error,
                    ..
                } => {
                    assert_eq!(attempts, 4, "seed {seed} {id}");
                    assert!(
                        last_error.contains("timed out"),
                        "seed {seed}: {last_error}"
                    );
                }
                other => panic!("seed {seed} {id}: unexpected {other:?}"),
            }
            assert!(
                started.elapsed() < config.request_deadline + SLACK,
                "seed {seed} {id}: exhaustion blew the deadline"
            );
        }
        let stats = hub.broker.stats(&chaos_config().task_topic).unwrap();
        assert!(stats.dropped >= 8, "seed {seed}: {stats:?}");
        // Dropped sends never entered the queue: conservation holds.
        assert_eq!(stats.enqueued, 0, "seed {seed}: {stats:?}");
        assert!(counter(&hub, "broker_dropped_total") >= 8, "seed {seed}");
    }
}

#[test]
fn abandoned_broker_receives_only_delay_delivery() {
    for seed in seeds() {
        // A leased-then-abandoned receive must cost one lease expiry,
        // not the message. An abandoned *reply* receive can legally
        // push one attempt past its timeout (reply topics keep the
        // default 30s lease), so the contract here is delayed-not-lost:
        // every request resolves typed within its deadline, most
        // succeed, and the broker ledger still balances.
        let faults = FaultPlan::seeded(seed)
            .inject(
                site::BROKER_RECV,
                FaultSpec::new(FaultKind::Drop).probability(0.2).max(5),
            )
            .build();
        let hub = chaos_builder(faults.clone()).build();
        let (requests, successes) = six_servable_workload(&hub, 1);
        assert!(requests >= 4, "seed {seed}: workload too small");
        assert!(successes > 0, "seed {seed}: every request was lost");
        assert_ledger_drains(&hub, seed);
    }
}

#[test]
fn hung_replicas_trip_the_reply_timeout_and_retry() {
    for seed in seeds() {
        // The first two jobs hang for 800ms against a 300ms executor
        // reply timeout: each attempt fails fast and the third succeeds.
        let faults = FaultPlan::seeded(seed)
            .inject(
                site::REPLICA,
                FaultSpec::new(FaultKind::Hang)
                    .delay(Duration::from_millis(800))
                    .max(2),
            )
            .build();
        let hub = chaos_builder(faults.clone())
            .executor_reply_timeout(Duration::from_millis(300))
            .build();
        let started = Instant::now();
        let result = hub
            .service
            .run(&hub.token, "dlhub/noop", Value::Null)
            .expect("retries must outlast the hung replicas");
        assert_eq!(result.value, Value::Str("hello world".into()));
        assert!(
            started.elapsed() < chaos_config().request_deadline + SLACK,
            "seed {seed}: hung replica wedged the request"
        );
        assert_eq!(faults.injected(site::REPLICA), 2, "seed {seed}");
        assert!(counter(&hub, "request_retries_total") >= 2, "seed {seed}");
    }
}

#[test]
fn memo_faults_degrade_the_cache_without_failing_requests() {
    for seed in seeds() {
        // Forced lookup misses + dropped inserts: the cache contributes
        // nothing, correctness is untouched.
        let faults = FaultPlan::seeded(seed)
            .inject(site::MEMO_GET, FaultSpec::new(FaultKind::Error))
            .inject(site::MEMO_PUT, FaultSpec::new(FaultKind::Drop))
            .build();
        let hub = chaos_builder(faults.clone()).memo(true).build();
        let input = Value::Str("NaCl".into());
        let first = hub
            .service
            .run(&hub.token, "dlhub/matminer-util", input.clone())
            .unwrap();
        let second = hub
            .service
            .run(&hub.token, "dlhub/matminer-util", input)
            .unwrap();
        assert_eq!(first.value, second.value, "seed {seed}");
        assert!(!second.timings.cache_hit, "seed {seed}: impossible hit");
        assert_eq!(hub.service.memo_stats().hits, 0, "seed {seed}");
        assert!(faults.injected(site::MEMO_GET) >= 2, "seed {seed}");
        assert!(faults.injected(site::MEMO_PUT) >= 1, "seed {seed}");
    }
}

#[test]
fn batch_flush_faults_fail_the_batch_typed_then_recover() {
    for seed in seeds() {
        let faults = FaultPlan::seeded(seed)
            .inject(site::BATCH_FLUSH, FaultSpec::new(FaultKind::Error).max(1))
            .build();
        let hub = chaos_builder(faults).build();
        let err = hub
            .service
            .run_batched(&hub.token, "dlhub/noop", Value::Null)
            .unwrap_err();
        match err {
            DlhubError::Execution { ref message, .. } => {
                assert!(message.contains("injected batch-flush"), "seed {seed}");
            }
            other => panic!("seed {seed}: unexpected {other:?}"),
        }
        // The batcher itself survives its flush failing.
        let ok = hub
            .service
            .run_batched(&hub.token, "dlhub/noop", Value::Null)
            .unwrap();
        assert_eq!(ok, Value::Str("hello world".into()), "seed {seed}");
    }
}

#[test]
fn fault_schedules_are_deterministic_per_seed() {
    // Identical seed + identical sequential workload => byte-identical
    // outcomes and byte-identical injection logs, run after run. Uses a
    // single-replica single-consumer hub so arrival order is the
    // request order.
    fn run_once(seed: u64) -> (Vec<String>, Vec<String>) {
        let faults = FaultPlan::seeded(seed)
            .inject(
                site::REPLICA,
                FaultSpec::new(FaultKind::Error).probability(0.4),
            )
            .build();
        let hub = chaos_builder(faults.clone())
            .replicas(1)
            .consumers(1)
            .task_managers(1)
            .build();
        let mut outcomes = Vec::new();
        for i in 0..12 {
            let outcome = if i % 2 == 0 {
                hub.service
                    .run(&hub.token, "dlhub/noop", Value::Null)
                    .map(|r| format!("{:?}", r.value))
            } else {
                hub.service
                    .run(&hub.token, "dlhub/matminer-util", Value::Str("NaCl".into()))
                    .map(|r| format!("{:?}", r.value))
            };
            outcomes.push(match outcome {
                Ok(v) => format!("ok:{v}"),
                Err(e) => format!("err:{e}"),
            });
        }
        let log = faults
            .injections()
            .iter()
            .map(|i| format!("{}@{}:{:?}", i.site, i.seq, i.kind))
            .collect();
        (outcomes, log)
    }

    let mut schedules = Vec::new();
    for seed in seeds() {
        let (outcomes_a, log_a) = run_once(seed);
        let (outcomes_b, log_b) = run_once(seed);
        assert_eq!(outcomes_a, outcomes_b, "seed {seed}: outcomes diverged");
        assert_eq!(log_a, log_b, "seed {seed}: injection logs diverged");
        schedules.push(log_a);
    }
    if schedules.len() > 1 {
        // Different seeds must not all collapse onto one schedule.
        assert!(
            schedules.windows(2).any(|w| w[0] != w[1]),
            "all seeds produced identical schedules"
        );
    }
}

#[test]
fn failed_expired_and_unknown_tasks_stay_distinguishable() {
    for seed in seeds() {
        // A TM crash forces a re-dispatch on the async path; the task
        // must still resolve, and afterwards the three terminal answers
        // of `task_status` — Failed, ExpiredTask, UnknownTask — must
        // stay tellable apart.
        let faults = FaultPlan::seeded(seed)
            .inject(site::TM_CRASH, FaultSpec::new(FaultKind::Crash).max(1))
            .build();
        let hub = chaos_builder(faults).task_managers(2).build();
        hub.publish_simple(
            "boom",
            ModelType::PythonFunction,
            servable_fn(|_| Err("synthetic detonation".into())),
        );

        // Async run that survives the injected crash via redelivery.
        let survivor = hub
            .service
            .run_async(&hub.token, "dlhub/noop", Value::Null)
            .unwrap();
        match survivor.wait(chaos_config().request_deadline + SLACK) {
            TaskStatus::Completed(v) => assert_eq!(v, Value::Str("hello world".into())),
            other => panic!("seed {seed}: crash lost the async task: {other:?}"),
        }

        // Async run that fails every attempt: terminal Failed with the
        // attempt count (execution errors are retried in chaos config).
        let doomed = hub
            .service
            .run_async(&hub.token, "dlhub/boom", Value::Null)
            .unwrap();
        match doomed.wait(chaos_config().request_deadline + SLACK) {
            TaskStatus::Failed {
                attempts,
                last_error,
            } => {
                assert_eq!(attempts, 4, "seed {seed}");
                assert!(last_error.contains("synthetic detonation"), "{last_error}");
            }
            other => panic!("seed {seed}: unexpected {other:?}"),
        }

        // `wait` delivered the Failed status once: the next poll is
        // ExpiredTask — not UnknownTask — and forgetting the delivered
        // id changes nothing.
        assert!(matches!(
            hub.service.task_status(&doomed.id),
            Err(DlhubError::ExpiredTask(_))
        ));
        hub.service.forget_task(&doomed.id);
        assert!(matches!(
            hub.service.task_status(&doomed.id),
            Err(DlhubError::ExpiredTask(_))
        ));
        assert!(matches!(
            hub.service.task_status("task-never-existed"),
            Err(DlhubError::UnknownTask(_))
        ));
    }
}

#[test]
fn combined_chaos_loses_nothing() {
    for seed in seeds() {
        // Several fault classes at once, each budgeted: replica errors,
        // TM crashes after a warmup, abandoned receives, dropped memo
        // inserts. Every request must still resolve, and the broker's
        // ledger must balance afterwards.
        let faults = FaultPlan::seeded(seed)
            .inject(
                site::REPLICA,
                FaultSpec::new(FaultKind::Error).probability(0.2).max(8),
            )
            .inject(
                site::TM_CRASH,
                FaultSpec::new(FaultKind::Crash).after(2).max(2),
            )
            .inject(
                site::BROKER_RECV,
                FaultSpec::new(FaultKind::Drop).probability(0.1).max(4),
            )
            .inject(
                site::MEMO_PUT,
                FaultSpec::new(FaultKind::Drop).probability(0.5),
            )
            .build();
        let hub = chaos_builder(faults.clone())
            .memo(true)
            .task_managers(2)
            .build();

        // Synchronous six-servable sweep under fire.
        let (requests, _) = six_servable_workload(&hub, 2);
        assert!(requests >= 10, "seed {seed}");

        // Async burst: every handle must leave Pending within deadline.
        let handles: Vec<_> = (0..6)
            .map(|_| {
                hub.service
                    .run_async(&hub.token, "dlhub/noop", Value::Null)
                    .unwrap()
            })
            .collect();
        for handle in &handles {
            match handle.wait(chaos_config().request_deadline + SLACK) {
                TaskStatus::Completed(_) | TaskStatus::Failed { .. } => {}
                TaskStatus::Pending => panic!("seed {seed}: task {} stuck Pending", handle.id),
            }
        }

        assert_ledger_drains(&hub, seed);
    }
}

#[test]
fn a_spent_fault_budget_fails_exactly_one_async_task_deterministically() {
    // Same seed, same workload => the same terminal status, run after
    // run: the attempt count and the error text are workload-determined.
    fn run_once(seed: u64) -> (u32, String) {
        let faults = FaultPlan::seeded(seed)
            .inject(site::REPLICA, FaultSpec::new(FaultKind::Error).max(4))
            .build();
        let hub = chaos_builder(faults)
            .replicas(1)
            .consumers(1)
            .task_managers(1)
            .build();
        // The fault budget (4 errors, 4 attempts) exhausts exactly the
        // first async request; the second must succeed.
        let doomed = hub
            .service
            .run_async(&hub.token, "dlhub/noop", Value::Null)
            .unwrap();
        let failure = match doomed.wait(chaos_config().request_deadline + SLACK) {
            TaskStatus::Failed {
                attempts,
                last_error,
            } => (attempts, last_error),
            other => panic!("seed {seed}: unexpected {other:?}"),
        };
        assert_eq!(failure.0, 4, "seed {seed}");
        let survivor = hub
            .service
            .run_async(&hub.token, "dlhub/noop", Value::Null)
            .unwrap();
        assert!(
            matches!(
                survivor.wait(chaos_config().request_deadline + SLACK),
                TaskStatus::Completed(_)
            ),
            "seed {seed}: budget-spent request failed"
        );
        failure
    }

    for seed in seeds() {
        let first = run_once(seed);
        let second = run_once(seed);
        assert_eq!(first, second, "seed {seed}: terminal status diverged");
    }
}

#[test]
fn chaos_slo_firing_is_exactly_one_transition() {
    // Every replica execution fails, so the availability objective
    // burns deterministically: twenty failing runs cross the threshold
    // once and stay there.
    for seed in seeds() {
        let faults = FaultPlan::seeded(seed)
            .inject(site::REPLICA, FaultSpec::new(FaultKind::Error))
            .build();
        let hub = chaos_builder(faults)
            .replicas(1)
            .consumers(1)
            .task_managers(1)
            .config(ServingConfig {
                // Fail fast: execution errors are terminal here.
                retry_execution_errors: false,
                slos: vec![
                    dlhub_core::obs::SloSpec::new("dlhub/noop", Duration::from_secs(5))
                        .availability_objective(0.5)
                        .windows(Duration::from_millis(200), Duration::from_secs(2)),
                ],
                ..chaos_config()
            })
            .build();
        for _ in 0..20 {
            let _ = hub.service.run(&hub.token, "dlhub/noop", Value::Null);
        }
        assert_eq!(
            counter(&hub, "slo_alerts_fired_total"),
            1,
            "seed {seed}: one firing transition"
        );
        let export = hub.service.obs().tracer.export(None);
        let alerts = export.named("slo_alert");
        assert_eq!(alerts.len(), 1, "seed {seed}: {alerts:?}");
        assert_eq!(
            alerts[0].attr("servable"),
            Some("dlhub/noop"),
            "seed {seed}"
        );
    }
}

#[test]
fn quarantined_replicas_are_never_counted_as_capacity_by_the_control_loop() {
    const SEC: u64 = 1_000_000_000;
    for seed in seeds() {
        // The first job errors out: with quarantine_after = 1 its
        // replica is benched for 10 s while the retry lands on the
        // healthy one. The control loop then reconciles against a
        // pool that is half quarantine.
        let faults = FaultPlan::seeded(seed)
            .inject(site::REPLICA, FaultSpec::new(FaultKind::Error).max(1))
            .build();
        let hub = chaos_builder(faults)
            .replicas(2)
            .consumers(1)
            .task_managers(1)
            .replica_health(HealthPolicy {
                quarantine_after: 1,
                quarantine_for: Duration::from_secs(10),
            })
            .config(ServingConfig {
                autoscale: Some(ControlPolicy {
                    min_samples: 1,
                    cooldown: Duration::ZERO,
                    signal_window: Duration::from_secs(10),
                    ..ControlPolicy::default()
                }),
                ..chaos_config()
            })
            .obs(Obs::with_telemetry(Telemetry::Stepped(
                Duration::from_secs(1),
            )))
            .build();
        hub.publish_simple(
            "m",
            ModelType::PythonFunction,
            servable_fn(|v| Ok(v.clone())),
        );
        hub.service
            .run(&hub.token, "dlhub/m", Value::Null)
            .expect("retry must outlive the faulted replica");
        let deadline = Instant::now() + Duration::from_secs(3);
        while hub.parsl.quarantined("dlhub/m") == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(
            hub.parsl.quarantined("dlhub/m"),
            1,
            "seed {seed}: replica never quarantined"
        );
        // Scripted 100 ms cost so the virtual load below is heavy.
        let series = hub.service.obs().metrics.series("dlhub/m");
        for _ in 0..10 {
            series
                .dispatch
                .record(1, Duration::from_millis(100), Duration::from_millis(103));
        }
        // Light load first: demand says one replica is plenty, but the
        // loop must not scale the only *healthy* replica away…
        for s in 0..3u64 {
            series.requests.add(2);
            hub.service.obs().telemetry.sample_now((s + 1) * SEC);
            hub.service.reconcile_at((s + 1) * SEC);
        }
        assert!(
            hub.parsl.replicas("dlhub/m") > hub.parsl.quarantined("dlhub/m"),
            "seed {seed}: quarantined replica was counted as capacity"
        );
        // …and an up-scale under pressure must size against healthy
        // capacity (1), not nominal (2).
        for s in 3..8u64 {
            series.requests.add(40);
            hub.service.obs().telemetry.sample_now((s + 1) * SEC);
            hub.service.reconcile_at((s + 1) * SEC);
        }
        let decisions = hub.service.reconciler().unwrap().decisions();
        assert!(!decisions.is_empty(), "seed {seed}: loop never acted");
        for d in &decisions {
            assert!(d.to >= 2, "seed {seed}: decision left nothing healthy: {d}");
        }
        assert!(
            hub.parsl.replicas("dlhub/m") > 2,
            "seed {seed}: up-scale never bought healthy capacity"
        );
    }
}

#[test]
fn overload_sheds_stay_typed_overloaded_under_chaos() {
    for seed in seeds() {
        // Replica faults rage on while the front door is saturated: a
        // shed must surface as `Overloaded` with its back-off — never
        // as the retry path's `Exhausted`.
        let faults = FaultPlan::seeded(seed)
            .inject(
                site::REPLICA,
                FaultSpec::new(FaultKind::Error).probability(0.3).max(2),
            )
            .build();
        let hub = chaos_builder(faults)
            .config(ServingConfig {
                admission: Some(AdmissionConfig {
                    max_inflight: 1,
                    fair_share_at: 1.0,
                    retry_after: Duration::from_millis(40),
                    ..AdmissionConfig::default()
                }),
                ..chaos_config()
            })
            .build();
        hub.publish_simple(
            "slow",
            ModelType::PythonFunction,
            servable_fn(|v| {
                std::thread::sleep(Duration::from_millis(400));
                Ok(v.clone())
            }),
        );
        let service = Arc::clone(&hub.service);
        let token = hub.token.clone();
        let holder = std::thread::spawn(move || service.run(&token, "dlhub/slow", Value::Null));
        let deadline = Instant::now() + Duration::from_secs(5);
        while hub.service.admission().unwrap().inflight() == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(
            hub.service.admission().unwrap().inflight(),
            1,
            "seed {seed}: holder never admitted"
        );
        let started = Instant::now();
        let err = hub
            .service
            .run(&hub.token, "dlhub/noop", Value::Null)
            .unwrap_err();
        match err {
            DlhubError::Overloaded { retry_after_ms } => {
                assert_eq!(retry_after_ms, 40, "seed {seed}");
            }
            DlhubError::Exhausted { .. } => {
                panic!("seed {seed}: shed surfaced as Exhausted")
            }
            other => panic!("seed {seed}: unexpected {other:?}"),
        }
        // Shedding happens at the door, before any retry loop burns
        // the deadline.
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "seed {seed}: shed was not early: {:?}",
            started.elapsed()
        );
        assert!(counter(&hub, "requests_shed_total") >= 1, "seed {seed}");
        // The admitted request rides out its faults and completes.
        let held = holder.join().unwrap();
        assert!(held.is_ok(), "seed {seed}: admitted request died: {held:?}");
    }
}

#[test]
fn disabled_fault_handle_changes_nothing() {
    // The production configuration: a default (disabled) handle. The
    // stack behaves exactly as the seed tests expect, and no fault
    // bookkeeping exists anywhere.
    let faults = FaultHandle::default();
    let hub = chaos_builder(faults.clone()).build();
    let (requests, successes) = six_servable_workload(&hub, 1);
    assert_eq!(requests, successes);
    assert!(faults.injections().is_empty());
    assert_eq!(counter(&hub, "request_retries_total"), 0);
    assert_eq!(counter(&hub, "request_exhausted_total"), 0);
    assert_eq!(counter(&hub, "tm_crashes_injected_total"), 0);
}
