//! Completion-passing dispatch: a Task Manager consumer hands a task to
//! the replica pool and goes back to its queue, the replica that
//! finishes a pipeline step dispatches the next one, and the replica
//! that finishes the task answers the requester.

use dlhub_core::admission::AdmissionConfig;
use dlhub_core::executor::{Answers, ChainStep, Executor};
use dlhub_core::hub::TestHub;
use dlhub_core::pipeline::Pipeline;
use dlhub_core::servable::builtins::MatminerFeaturize;
use dlhub_core::servable::{servable_fn, ModelType, Servable};
use dlhub_core::serving::{RunOptions, ServingConfig};
use dlhub_core::value::Value;
use dlhub_core::DlhubError;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Long enough that only a wedged path reaches it.
const PATIENCE: Duration = Duration::from_secs(5);

fn within(deadline: Duration) -> RunOptions {
    RunOptions {
        deadline: Some(deadline),
        ..RunOptions::default()
    }
}

#[test]
fn a_running_inference_does_not_block_the_only_consumer() {
    let hub = TestHub::builder().memo(false).consumers(1).build();
    let (started_tx, started) = mpsc::channel();
    let (release, released) = mpsc::channel::<()>();
    let (started_tx, released) = (Mutex::new(started_tx), Mutex::new(released));
    hub.publish_simple(
        "slow",
        ModelType::PythonFunction,
        servable_fn(move |v| {
            started_tx.lock().unwrap().send(()).unwrap();
            released
                .lock()
                .unwrap()
                .recv_timeout(PATIENCE)
                .map_err(|e| format!("never released: {e}"))?;
            Ok(v.clone())
        }),
    );
    std::thread::scope(|scope| {
        let slow = scope.spawn(|| hub.service.run(&hub.token, "dlhub/slow", Value::Int(1)));
        // The slow inference is now running on a replica…
        started.recv_timeout(PATIENCE).expect("slow run started");
        // …and the single consumer still serves other servables.
        for _ in 0..5 {
            let run = hub.service.run_with_options(
                &hub.token,
                "dlhub/noop",
                Value::Null,
                &within(Duration::from_secs(1)),
            );
            assert_eq!(run.unwrap().value, Value::Str("hello world".into()));
        }
        release.send(()).unwrap();
        assert_eq!(slow.join().unwrap().unwrap().value, Value::Int(1));
    });
}

#[test]
fn one_consumer_keeps_every_replica_busy() {
    const REPLICAS: usize = 4;
    let hub = TestHub::builder()
        .memo(false)
        .consumers(1)
        .replicas(REPLICAS)
        .build();
    // Each run waits inside the servable until all four are inside at
    // once; run one after the other they would each give up.
    let inside = Arc::new((Mutex::new(0usize), Condvar::new()));
    hub.publish_simple(
        "rendezvous",
        ModelType::PythonFunction,
        servable_fn(move |v| {
            let (count, arrived) = &*inside;
            let mut count = count.lock().unwrap();
            *count += 1;
            arrived.notify_all();
            let (count, wait) = arrived
                .wait_timeout_while(count, PATIENCE, |n| *n < REPLICAS)
                .unwrap();
            if wait.timed_out() {
                return Err(format!("only {} runs overlapped", *count));
            }
            Ok(v.clone())
        }),
    );
    std::thread::scope(|scope| {
        let runs: Vec<_> = (0..REPLICAS as i64)
            .map(|i| {
                let hub = &hub;
                scope.spawn(move || {
                    hub.service
                        .run(&hub.token, "dlhub/rendezvous", Value::Int(i))
                })
            })
            .collect();
        for (i, run) in runs.into_iter().enumerate() {
            assert_eq!(run.join().unwrap().unwrap().value, Value::Int(i as i64));
        }
    });
}

#[test]
fn a_batch_through_the_countdown_keeps_order_times_and_errors() {
    let hub = TestHub::builder()
        .without_eval_servables()
        .replicas(2)
        .build();
    let doubler = servable_fn(|v| match v {
        Value::Int(13) => Err("item 13 failed".into()),
        Value::Int(i) => {
            std::thread::sleep(Duration::from_millis((*i % 3) as u64));
            Ok(Value::Int(i * 2))
        }
        other => Err(format!("not an int: {other:?}")),
    });
    let dispatch = |inputs: Vec<Value>| {
        let (done, outcome) = mpsc::channel();
        hub.parsl.dispatch(
            "t/doubler",
            &doubler,
            Arc::new(inputs),
            ChainStep::default(),
            Box::new(move |execution| done.send(execution).unwrap()),
        );
        let answered = outcome.recv_timeout(PATIENCE).expect("done was called");
        answered.map(Answers::into_parts)
    };
    // 32 inputs over 2 replicas: outputs in input order, two jobs of
    // 16, and each job's inputs share the job's time evenly (to the
    // nanosecond, rounded down).
    let inputs: Vec<Value> = (100..132).map(Value::Int).collect();
    let (outputs, times) = dispatch(inputs).unwrap();
    let expected: Vec<Value> = (100..132).map(|i| Value::Int(i * 2)).collect();
    assert_eq!(outputs, expected);
    assert_eq!(times.len(), 32);
    assert_eq!(hub.parsl.dispatched(), 2);
    for (first, times) in [100u64, 116].into_iter().zip(times.chunks(16)) {
        let slept: u64 = (first..first + 16).map(|i| i % 3).sum();
        let reported = times.iter().sum::<Duration>() + Duration::from_nanos(16);
        assert!(
            reported >= Duration::from_millis(slept),
            "job from {first}: {times:?}"
        );
    }
    // One failing item fails the batch with that item's error.
    let mixed: Vec<Value> = (0..32).map(Value::Int).collect();
    assert_eq!(dispatch(mixed).unwrap_err(), "item 13 failed");
    // An empty batch completes at once.
    assert_eq!(dispatch(Vec::new()), Ok((vec![], vec![])));
}

#[test]
fn a_batched_result_is_the_single_result_value_for_value() {
    // A memoised single `run` and an item of a `run_batch` must be
    // interchangeable: the batch reaches each replica as an uneven
    // chunk (3 + 2, 4 + 3) through `run_many`, the single run through
    // `run`. Whatever `run_many` a model servable grows has to keep
    // this.
    use dlhub_core::tensor::models::{synthetic_image, CIFAR10_INPUT};
    let hub = TestHub::builder().memo(false).replicas(2).build();
    let images: Vec<Value> = (0..5)
        .map(|variant| Value::from_tensor(&synthetic_image(&CIFAR10_INPUT, variant)))
        .collect();
    let features: Vec<Value> = ["NaCl", "BaTiO3", "CuNi", "Fe2O3", "SiO2", "MgO", "LiF"]
        .iter()
        .map(|formula| {
            MatminerFeaturize
                .run(&Value::Str(formula.to_string()))
                .unwrap()
        })
        .collect();
    for (id, inputs) in [
        ("dlhub/cifar10", images),
        ("dlhub/matminer-model", features),
    ] {
        let singles: Vec<Value> = inputs
            .iter()
            .map(|input| {
                hub.service
                    .run(&hub.token, id, input.clone())
                    .unwrap()
                    .value
            })
            .collect();
        let (batched, _) = hub.service.run_batch(&hub.token, id, inputs).unwrap();
        assert_eq!(batched, singles, "{id}");
        // `Value` compares floats by `==`; the probabilities and
        // predictions are the same to the bit as well.
        assert_eq!(format!("{batched:?}"), format!("{singles:?}"), "{id}");
    }
}

#[test]
fn replica_backlog_counts_as_queue_pressure() {
    // Zero-weight tenants are admitted only while the service is
    // uncontended, so admission itself reports what `admit` concluded.
    let hub = TestHub::builder()
        .memo(false)
        .config(ServingConfig {
            admission: Some(AdmissionConfig {
                default_weight: 0,
                ..AdmissionConfig::default()
            }),
            ..ServingConfig::default()
        })
        .build();
    let obs = hub.service.obs();
    let second = 1_000_000_000;
    hub.service.reconcile_at(second);
    hub.service
        .run(&hub.token, "dlhub/noop", Value::Null)
        .expect("no backlog anywhere: admitted");
    // Real traffic feeds the histogram (pickup − queued)…
    let waits = obs.metrics.histogram("replica_queue_wait_ns");
    assert_eq!(waits.count(), 1);
    // …and a backlog in front of the replicas — the broker's own queue
    // wait stays tiny — now counts as contention.
    for _ in 0..100 {
        waits.record(500_000_000);
    }
    hub.service.reconcile_at(2 * second);
    let err = hub
        .service
        .run(&hub.token, "dlhub/noop", Value::Null)
        .unwrap_err();
    assert!(matches!(err, DlhubError::Overloaded { .. }), "{err:?}");
}

#[test]
fn a_running_hub_has_no_reply_topics_and_no_pump_threads() {
    let hub = TestHub::builder().memo(false).build();
    hub.service
        .run(&hub.token, "dlhub/noop", Value::Null)
        .unwrap();
    let topics = hub.broker.topics();
    assert!(topics.iter().all(|t| !t.contains(".reply.")), "{topics:?}");
    if let Ok(tasks) = std::fs::read_dir("/proc/self/task") {
        let names: Vec<String> = tasks
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
            .collect();
        assert!(names.iter().any(|n| n.starts_with("tm-")), "{names:?}");
        assert!(
            names.iter().all(|n| !n.starts_with("rpc-pump")),
            "{names:?}"
        );
    }
}

#[test]
fn crossed_pipelines_on_one_replica_each_never_wait_on_each_other() {
    // A → B beside B → A, one replica each: a step's continuation is
    // sent from the replica that ran the step before it. Were it to wait
    // for room in the next pool, A's replica could wait on B's while
    // B's waits on A's, until the executor reaped both at its reply
    // timeout.
    const REPLY_TIMEOUT: Duration = Duration::from_secs(10);
    let hub = TestHub::builder()
        .without_eval_servables()
        .memo(false)
        .replicas(1)
        .executor_reply_timeout(REPLY_TIMEOUT)
        .build();
    for (name, add) in [("a", 1), ("b", 100)] {
        hub.publish_simple(
            name,
            ModelType::PythonFunction,
            servable_fn(move |v| match v {
                Value::Int(i) => Ok(Value::Int(i + add)),
                other => Err(format!("not an int: {other:?}")),
            }),
        );
    }
    let register = |name: &str, steps: [&str; 2]| {
        let pipeline = Pipeline::new(name, steps.map(String::from).to_vec());
        hub.service.register_pipeline(&hub.token, pipeline).unwrap();
    };
    register("a-then-b", ["dlhub/a", "dlhub/b"]);
    register("b-then-a", ["dlhub/b", "dlhub/a"]);
    let slowest = std::thread::scope(|scope| {
        let callers: Vec<_> = (0..8i64)
            .map(|caller| {
                let hub = &hub;
                scope.spawn(move || {
                    let name = ["a-then-b", "b-then-a"][caller as usize % 2];
                    (0..200i64)
                        .map(|call| {
                            let input = caller * 1_000 + call;
                            let started = std::time::Instant::now();
                            let (value, steps) = hub
                                .service
                                .run_pipeline(&hub.token, name, Value::Int(input))
                                .unwrap_or_else(|e| panic!("{name} call {call}: {e}"));
                            assert_eq!(value, Value::Int(input + 101), "{name} call {call}");
                            assert_eq!(steps.len(), 2);
                            started.elapsed()
                        })
                        .max()
                        .unwrap()
                })
            })
            .collect();
        callers
            .into_iter()
            .map(|c| c.join().unwrap())
            .max()
            .unwrap()
    });
    // Retries are off, so a reaped task would have failed its call
    // ("executor timed out"): every call answered means none was reaped.
    assert!(slowest < REPLY_TIMEOUT / 5, "slowest call {slowest:?}");
    let snap = hub.service.obs().snapshot();
    let pipeline_requests: u64 = snap
        .servables
        .iter()
        .filter(|(id, _)| !id.contains('/'))
        .map(|(_, s)| s.requests)
        .sum();
    assert_eq!(pipeline_requests, 1_600);
}
