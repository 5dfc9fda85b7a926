//! Request hot-path scaling: aggregate throughput of the Management
//! Service under concurrent clients.
//!
//! ```text
//! cargo run --release -p dlhub-bench --bin hotpath
//! ```
//!
//! Drives `ManagementService::run` with 1/2/4/8/16 closed-loop client
//! threads in two regimes:
//!
//! * **hit100** — every request hits the memo cache (the §V-B5 fast
//!   path). This isolates the service's own locking: preflight,
//!   sharded memo lookup, stats. With the sharded cache and atomic
//!   counters, aggregate throughput should scale with the client
//!   count.
//! * **hit0** — every request carries a fresh input, so each one runs
//!   the full broker → Task Manager → executor path with a memo miss
//!   and a put on the way back.
//!
//! Like the rest of the harness, clients are separated from the
//! service by a simulated network RTT (§V-A testbed; default 200 µs,
//! `HOTPATH_RTT_US` to override, 0 for raw in-process mode). The RTT
//! is spent in the client between requests and excluded from the
//! reported latencies, so p50/p99 measure the service alone while
//! req/s reflects what concurrent remote clients would see: if the
//! request path serialized, adding clients could not raise aggregate
//! throughput.
//!
//! Prints req/s and p50/p99 latency per cell and writes the series as
//! JSON (`results/BENCH_hotpath.json`, mirrored to the workspace root
//! so the numbers are committed alongside the code they measure).

use dlhub_bench::report::{print_table, shape_check, write_json};
use dlhub_core::hub::TestHub;
use dlhub_core::servable::{servable_fn, ModelType};
use dlhub_core::serving::ServingConfig;
use dlhub_core::value::Value;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const THREADS: [usize; 5] = [1, 2, 4, 8, 16];

/// Hot keys shared by every client in the 100%-hit regime: enough to
/// spread across the cache shards, few enough to always be resident.
const HOT_KEYS: i64 = 64;

struct Cell {
    threads: usize,
    requests: u64,
    elapsed: Duration,
    p50: Duration,
    p99: Duration,
}

impl Cell {
    fn req_per_s(&self) -> f64 {
        self.requests as f64 / self.elapsed.as_secs_f64()
    }
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    dlhub_core::metrics::percentile(sorted, p).unwrap_or_default()
}

fn drive(hub: &TestHub, threads: usize, window: Duration, rtt: Duration, all_hits: bool) -> Cell {
    let barrier = Arc::new(Barrier::new(threads + 1));
    let stop = Arc::new(AtomicBool::new(false));
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let service = Arc::clone(&hub.service);
            let token = hub.token.clone();
            let barrier = Arc::clone(&barrier);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut latencies: Vec<Duration> = Vec::with_capacity(1 << 16);
                let mut i = 0i64;
                barrier.wait();
                while !stop.load(Ordering::Relaxed) {
                    let input = if all_hits {
                        Value::Int(i % HOT_KEYS)
                    } else {
                        // Unique per thread and iteration: never hits.
                        Value::Int(((t as i64) << 40) | (i + HOT_KEYS))
                    };
                    let started = Instant::now();
                    service
                        .run(&token, "dlhub/echo", input)
                        .expect("echo request");
                    latencies.push(started.elapsed());
                    i += 1;
                    if !rtt.is_zero() {
                        // Client-side network gap; not part of the
                        // measured service latency.
                        std::thread::sleep(rtt);
                    }
                }
                latencies
            })
        })
        .collect();
    barrier.wait();
    let started = Instant::now();
    std::thread::sleep(window);
    stop.store(true, Ordering::Relaxed);
    let mut all: Vec<Duration> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("client thread"))
        .collect();
    let elapsed = started.elapsed();
    all.sort_unstable();
    Cell {
        threads,
        requests: all.len() as u64,
        elapsed,
        p50: percentile(&all, 0.50),
        p99: percentile(&all, 0.99),
    }
}

fn run_mode(hub: &TestHub, window: Duration, rtt: Duration, all_hits: bool) -> Vec<Cell> {
    if all_hits {
        // Warm the cache so every measured request hits.
        for i in 0..HOT_KEYS {
            hub.service
                .run(&hub.token, "dlhub/echo", Value::Int(i))
                .expect("warm request");
        }
    }
    THREADS
        .iter()
        .map(|&threads| drive(hub, threads, window, rtt, all_hits))
        .collect()
}

fn main() {
    let window = Duration::from_millis(
        std::env::var("HOTPATH_MS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(1500),
    );
    let rtt = Duration::from_micros(
        std::env::var("HOTPATH_RTT_US")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(200),
    );
    // Generous downstream capacity (replicas, consumers) so the
    // request path itself — locks, memo, dispatch — is what's being
    // measured rather than executor starvation.
    // A (loose) SLO keeps the full analytics path hot during the
    // bench: every request updates burn-rate windows and exemplar
    // slots, so the committed numbers include that cost.
    let hub = TestHub::builder()
        .without_eval_servables()
        .memo(true)
        .replicas(16)
        .consumers(16)
        .config(ServingConfig {
            async_workers: 16,
            ..ServingConfig::default()
        })
        .slo(dlhub_core::obs::SloSpec::new(
            "dlhub/echo",
            Duration::from_secs(1),
        ))
        .build();
    hub.publish_simple(
        "echo",
        ModelType::PythonFunction,
        servable_fn(|v| Ok(v.clone())),
    );

    let mut table = Vec::new();
    let mut json_modes = serde_json::Map::new();
    let mut hit_cells = Vec::new();
    for (label, all_hits) in [("hit100", true), ("hit0", false)] {
        let cells = run_mode(&hub, window, rtt, all_hits);
        let mut series = Vec::new();
        for cell in &cells {
            table.push(vec![
                label.to_string(),
                cell.threads.to_string(),
                format!("{:.0}", cell.req_per_s()),
                format!("{:.1}", cell.p50.as_secs_f64() * 1e6),
                format!("{:.1}", cell.p99.as_secs_f64() * 1e6),
            ]);
            series.push(serde_json::json!({
                "threads": cell.threads,
                "requests": cell.requests,
                "elapsed_s": cell.elapsed.as_secs_f64(),
                "req_per_s": cell.req_per_s(),
                "p50_us": cell.p50.as_secs_f64() * 1e6,
                "p99_us": cell.p99.as_secs_f64() * 1e6,
            }));
        }
        json_modes.insert(label.to_string(), serde_json::Value::Array(series));
        if all_hits {
            hit_cells = cells;
        }
    }

    print_table(
        &format!(
            "Hot-path scaling ({}ms per cell, {}us client RTT)",
            window.as_millis(),
            rtt.as_micros()
        ),
        &["mode", "threads", "req/s", "p50 us", "p99 us"],
        &table,
    );

    let rate = |threads: usize| {
        hit_cells
            .iter()
            .find(|c| c.threads == threads)
            .map(|c| c.req_per_s())
            .unwrap_or(0.0)
    };
    let speedup = rate(8) / rate(1).max(1.0);
    println!("\nshape checks:");
    shape_check(
        &format!(
            "100%-hit throughput scales ≥2x from 1 to 8 threads ({:.0} → {:.0} req/s, {speedup:.2}x)",
            rate(1),
            rate(8)
        ),
        speedup >= 2.0,
    );

    // The run's own telemetry rides along in the artifact: per-servable
    // latency histograms from the service's metrics registry, so the
    // committed JSON carries the paper's three measurement points
    // without a separate collection step.
    let metrics = hub.service.obs().snapshot();
    let echo_series = metrics
        .servables
        .iter()
        .find(|(id, _)| id == "dlhub/echo")
        .map(|(_, s)| s.clone())
        .expect("echo servable recorded metrics");
    shape_check(
        &format!(
            "metrics registry observed every request ({} recorded)",
            echo_series.requests
        ),
        echo_series.requests > 0 && echo_series.request_latency.count > 0,
    );
    let echo_slo = metrics
        .slos
        .iter()
        .find(|s| s.servable == "dlhub/echo")
        .expect("echo SLO tracked");
    shape_check(
        &format!(
            "SLO engine observed the run without firing ({} observed)",
            echo_slo.observed
        ),
        echo_slo.observed > 0 && !echo_slo.firing && echo_slo.alerts_fired == 0,
    );
    let exemplars = echo_series.request_latency.exemplars.len();
    shape_check(
        &format!("latency histogram retained trace exemplars ({exemplars})"),
        exemplars > 0,
    );

    let doc = serde_json::json!({
        "bench": "hotpath",
        "window_ms": window.as_millis() as u64,
        "client_rtt_us": rtt.as_micros() as u64,
        "thread_counts": THREADS.to_vec(),
        "modes": serde_json::Value::Object(json_modes),
        "hit100_speedup_8t_over_1t": speedup,
        "metrics": metrics.to_json(),
    });
    let path = write_json("BENCH_hotpath.json", &doc);
    // Mirror to the workspace root so the committed copy lives next to
    // the code it measures. `HOTPATH_MIRROR=0` keeps smoke runs (CI)
    // from clobbering the committed full-length numbers.
    let mirror = std::env::var("HOTPATH_MIRROR").map_or(true, |v| v != "0");
    if mirror {
        let root_copy = std::path::Path::new("BENCH_hotpath.json");
        std::fs::copy(&path, root_copy).expect("copy BENCH_hotpath.json");
        println!(
            "wrote {} (mirrored to {})",
            path.display(),
            root_copy.display()
        );
    } else {
        println!("wrote {} (mirror disabled)", path.display());
    }
}
