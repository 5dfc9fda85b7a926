//! Telemetry integration: seeded virtual-clock replays must export
//! byte-identical time series, and a live deployment's collector must
//! feed the query API end to end.

use dlhub_core::hub::TestHub;
use dlhub_core::obs::{Obs, Telemetry};
use dlhub_core::value::Value;
use dlhub_sim::workload::LognormalSizes;
use std::time::Duration;

/// Replay `n` closed-loop requests to `servable` through `obs`'s metric
/// registry and stepped collector on a virtual clock. Request latencies
/// are seeded lognormal draws read as nanoseconds (median 21.7 ms: Fig
/// 3's CIFAR-10 request on the paper's links). The next request is
/// issued when the previous one lands, and whenever the virtual time
/// crosses a base-step boundary the store takes one sampling pass at
/// exactly that boundary, so no timestamp comes from the wall clock.
/// Returns the number of sampling passes taken.
fn replay_telemetry(obs: &Obs, servable: &str, n: usize, seed: u64) -> u64 {
    let mut latencies = LognormalSizes::new(21_700_000.0, 0.3, 1_000_000_000, seed);
    let step = obs
        .telemetry
        .base_step()
        .expect("replay needs an Obs built with Telemetry::Stepped")
        .as_nanos() as u64;
    let series = obs.metrics.series(servable);
    let (mut now, mut next_pass, mut passes) = (0, step, 0);
    for _ in 0..n {
        let request = latencies.sample();
        now += request;
        while next_pass <= now {
            obs.telemetry.sample_now(next_pass);
            next_pass += step;
            passes += 1;
        }
        series.requests.inc();
        series.request_latency.record(request);
    }
    // One closing pass so the final partial step is captured.
    obs.telemetry.sample_now(next_pass);
    passes + 1
}

/// Replay one seeded run through a fresh Obs handle's stepped
/// collector and export the store as a JSON string.
fn export_for_seed(seed: u64) -> String {
    let obs = Obs::with_telemetry(Telemetry::Stepped(Duration::from_millis(50)));
    let passes = replay_telemetry(&obs, "dlhub/cifar10", 400, seed);
    assert!(passes > 0, "replay must take sampling passes");
    serde_json::to_string(&obs.telemetry.store().unwrap().to_json()).unwrap()
}

#[test]
fn seeded_sim_runs_export_byte_identical_series() {
    for seed in [3u64, 17, 20260809] {
        let first = export_for_seed(seed);
        let second = export_for_seed(seed);
        assert_eq!(first, second, "seed {seed} exports must be byte-identical");
        assert!(first.contains("servable.dlhub/cifar10.requests"), "{seed}");
    }
    // Different seeds draw different latencies: the series must differ.
    assert_ne!(export_for_seed(3), export_for_seed(17));
}

#[test]
fn replayed_series_answer_windowed_queries() {
    let obs = Obs::with_telemetry(Telemetry::Stepped(Duration::from_millis(50)));
    replay_telemetry(&obs, "dlhub/cifar10", 300, 11);
    let store = obs.telemetry.store().unwrap();
    let signals = obs.telemetry.signals().unwrap();
    // The whole replay fits well inside a 60 s window.
    let window = Duration::from_secs(60);
    let arrival = signals.arrival_rate("dlhub/cifar10", window).unwrap();
    assert!(arrival > 0.0, "{arrival}");
    let lat = signals.request_latency("dlhub/cifar10", window).unwrap();
    // The closing pass captures every request; the first slot may act
    // as the delta baseline, so a handful of early samples can fall
    // out of the merged window.
    assert!(lat.count > 250, "{}", lat.count);
    let p50 = lat.quantile(0.5).unwrap();
    let p99 = lat.quantile(0.99).unwrap();
    assert!(p50 >= 1_000_000, "p50 {p50} should exceed 1ms of RTT");
    assert!(p99 >= p50);
    assert!(store.samples_taken() > 10);
}

#[test]
fn live_deployment_collector_feeds_control_signals() {
    let hub = TestHub::builder()
        .without_eval_servables()
        .obs(Obs::with_telemetry(Telemetry::Sampled(
            Duration::from_millis(10),
        )))
        .build();
    hub.publish_simple(
        "echo2",
        dlhub_core::servable::ModelType::PythonFunction,
        dlhub_core::servable::servable_fn(|v| Ok(v.clone())),
    );
    for i in 0..20 {
        hub.service
            .run(&hub.token, "dlhub/echo2", Value::Int(i as i64))
            .unwrap();
    }
    let store = hub
        .service
        .obs()
        .telemetry
        .store()
        .expect("collector enabled");
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while store.samples_taken() < 8 {
        assert!(std::time::Instant::now() < deadline, "collector never ran");
        std::thread::sleep(Duration::from_millis(10));
    }
    let signals = hub.service.obs().telemetry.signals().unwrap();
    // Stay on the fine tier (10 ms × 120 = 1.2 s coverage): a wider
    // window would quantize all passes into one coarse slot.
    let window = Duration::from_secs(1);
    let arrival = signals.arrival_rate("dlhub/echo2", window);
    assert!(arrival.is_some(), "arrival rate should have history");
    let lat = signals.request_latency("dlhub/echo2", window).unwrap();
    assert!(lat.count > 0);
    // The export schema carries the sampled series.
    let doc = store.to_json();
    assert!(doc["samples_taken"].as_u64().unwrap() >= 3);
    assert!(doc["series"]
        .as_array()
        .unwrap()
        .iter()
        .any(|s| s["name"] == "servable.dlhub/echo2.requests"));
}
