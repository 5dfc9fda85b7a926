//! One deployment, wired once: everything a tier records lands in the
//! `Obs` its constructor was given, under the names `dlhub stats` and
//! `dlhub top` read, and the one fault schedule reaches every site; a
//! tier built alone is the same code reporting through its own stats.

use dlhub_auth::IdentityId;
use dlhub_container::Cluster;
use dlhub_core::admission::AdmissionConfig;
use dlhub_core::autoscale::ControlPolicy;
use dlhub_core::executor::{Executor, ParslExecutor};
use dlhub_core::fault::{site, FaultHandle, FaultKind, FaultPlan, FaultSpec};
use dlhub_core::hub::TestHub;
use dlhub_core::memo::{MemoCache, MemoKey};
use dlhub_core::obs::{Obs, Telemetry};
use dlhub_core::serving::ServingConfig;
use dlhub_core::task::{next_task_id, TaskRequest, TaskResponse};
use dlhub_core::task_manager::TaskManager;
use dlhub_core::value::Value;
use dlhub_core::DlhubError;
use dlhub_queue::{Broker, BrokerConfig, RpcClient};
use std::sync::Arc;
use std::time::Duration;

/// Every metric `dlhub stats` / `dlhub top` print by name, with the
/// description its owner registers.
const INSTRUMENTS: [(&str, &str); 11] = [
    ("broker_send_total", "Messages published across all topics"),
    (
        "broker_queue_wait_ns",
        "Time messages spent queued before delivery",
    ),
    (
        "replica_queue_wait_ns",
        "Time jobs spent queued in front of a replica pool",
    ),
    (
        "cold_start_ns",
        "Wall time to bring a replica pool from zero to serving",
    ),
    ("memo_hits_total", "Memo-cache lookups answered from cache"),
    (
        "memo_rejected_total",
        "Memo-cache puts refused: looked up less often than the entry they would evict",
    ),
    (
        "requests_admitted_total",
        "Requests admitted past the admission controller",
    ),
    (
        "requests_shed_total",
        "Requests shed by the admission controller before dispatch",
    ),
    (
        "autoscale_decisions_total",
        "Scaling decisions applied by the control loop",
    ),
    ("tm_tasks_total", "Tasks executed by Task Managers"),
    (
        "async_queue_depth",
        "Async dispatches waiting in the worker-pool injector queue",
    ),
];

#[test]
fn a_wired_hub_records_every_tier_into_its_one_obs() {
    // A rule that never fires still counts arrivals: proof the one
    // schedule reached the site.
    let sites = [
        site::BROKER_SEND,
        site::BROKER_RECV,
        site::TM_CRASH,
        site::REPLICA,
        site::MEMO_GET,
        site::MEMO_PUT,
    ];
    let never = || FaultSpec::new(FaultKind::Error).probability(0.0);
    let faults = sites
        .into_iter()
        .fold(FaultPlan::seeded(7), |plan, site| {
            plan.inject(site, never())
        })
        .build();
    let hub = TestHub::builder()
        .faults(faults.clone())
        .obs(Obs::with_telemetry(Telemetry::Stepped(
            Duration::from_secs(1),
        )))
        .config(ServingConfig {
            admission: Some(AdmissionConfig {
                max_inflight: 2,
                fair_share_at: 1.0,
                ..AdmissionConfig::default()
            }),
            autoscale: Some(ControlPolicy::default()),
            ..ServingConfig::default()
        })
        .build();
    let service = &hub.service;
    let input = Value::Str("NaCl".into());
    let run = || service.run(&hub.token, "dlhub/matminer-util", input.clone());
    assert!(!run().unwrap().timings.cache_hit);
    assert!(run().unwrap().timings.cache_hit);
    let batch = vec![Value::Null; 3];
    let (outputs, _) = service.run_batch(&hub.token, "dlhub/noop", batch).unwrap();
    assert_eq!(outputs.len(), 3);
    let admission = service.admission().expect("admission configured");
    let held: Vec<_> = (0..2)
        .map(|_| admission.admit(IdentityId(u64::MAX), false).unwrap())
        .collect();
    let shed = run().unwrap_err();
    assert!(matches!(shed, DlhubError::Overloaded { .. }), "{shed:?}");
    drop(held);
    service.obs().telemetry.sample_now(1_000_000_000).unwrap();
    service.reconcile_at(1_000_000_000);

    for site in sites {
        assert!(faults.arrivals(site) > 0, "{site} never consulted");
    }
    let snap = service.obs().snapshot();
    let prometheus = snap.render_prometheus();
    for (name, help) in INSTRUMENTS {
        let present = snap.counters.iter().any(|(n, _)| n == name)
            || snap.gauges.iter().any(|(n, _)| n == name)
            || snap.histograms.iter().any(|(n, _)| n == name);
        assert!(present, "{name} missing from the snapshot");
        let line = format!("# HELP dlhub_{name} {help}\n");
        assert!(prometheus.contains(&line), "{name}: no `{line}`");
    }
    // Each event is counted once: what a tier reports about itself is
    // the registry's own counter.
    let counter = |name: &str| service.obs().metrics.counter(name).get();
    let memo = service.memo_stats();
    assert_eq!((memo.hits, memo.misses), (1, 1));
    assert_eq!(memo.hits, counter("memo_hits_total"));
    assert_eq!(memo.misses, counter("memo_misses_total"));
    assert_eq!(memo.evictions, counter("memo_evictions_total"));
    assert_eq!(memo.rejected, counter("memo_rejected_total"));
    // Two runs, one batch and the two permits held for the shed.
    assert_eq!(admission.admitted_total(), 5);
    assert_eq!(
        admission.admitted_total(),
        counter("requests_admitted_total")
    );
    assert_eq!(counter("requests_shed_total"), 1);
    // The hit and the shed never reached a Task Manager.
    assert_eq!(counter("tm_tasks_total"), 2);
    assert_eq!(
        counter("broker_send_total"),
        hub.broker.stats("dlhub.tasks").unwrap().enqueued + 1,
        "task sends plus the Task Manager's registration"
    );
}

#[test]
fn tiers_built_alone_serve_and_report_through_their_own_stats() {
    let broker = Broker::new(BrokerConfig::default());
    broker.ensure_topic("t");
    broker.send("t", bytes::Bytes::from_static(b"x")).unwrap();
    broker
        .recv_timeout("t", Duration::from_secs(1))
        .unwrap()
        .ack();
    let stats = broker.stats("t").unwrap();
    assert_eq!((stats.enqueued, stats.delivered, stats.acked), (1, 1, 1));

    let cache = MemoCache::new(1024);
    let key = MemoKey::new("m", &Value::Int(1));
    assert_eq!(cache.get(&key), None);
    cache.put(key.clone(), Value::Int(2));
    assert_eq!(cache.get(&key), Some(Value::Int(2)));
    let stats = cache.stats();
    assert_eq!((stats.hits, stats.misses), (1, 1));

    // A Task Manager started with its six arguments, over a hub's
    // repository and broker but recording into an `Obs` of its own.
    let hub = TestHub::builder().build();
    let parsl = Arc::new(ParslExecutor::new(
        Cluster::petrelkube(),
        1,
        &Obs::new(),
        FaultHandle::default(),
    ));
    let tm = TaskManager::start(
        "alone",
        &hub.broker,
        "alone.tasks",
        Arc::clone(&hub.repo),
        vec![Arc::clone(&parsl) as Arc<dyn Executor>],
        1,
    );
    let request = TaskRequest {
        task_id: next_task_id(),
        servable: "dlhub/noop".into(),
        inputs: vec![Value::Null],
        trace: None,
    };
    let reply = RpcClient::connect(&hub.broker, "alone.tasks")
        .call_wait(request.to_bytes(), Duration::from_secs(5))
        .unwrap();
    let response = TaskResponse::from_bytes(&reply).unwrap();
    assert_eq!(response.outcome, Ok(vec![Value::Str("hello world".into())]));
    assert_eq!((tm.served(), parsl.dispatched()), (1, 1));
    // Nothing of it leaked into the hub's registry.
    let hub_tasks = hub.service.obs().metrics.counter("tm_tasks_total");
    assert_eq!(hub_tasks.get(), 0);
    tm.shutdown();
}
