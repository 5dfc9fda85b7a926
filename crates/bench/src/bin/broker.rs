//! Broker throughput: the sharded-ring substrate alone and the full
//! serving path on a memo-bypass workload.
//!
//! ```text
//! cargo run --release -p dlhub-bench --bin broker
//! ```
//!
//! Three series, each over 1/2/4/8/16 threads:
//!
//! * **raw** — broker-only hand-off: `t` producers and `t` consumers
//!   on one bounded topic, counting acked deliveries. This isolates
//!   the sharded MPMC ring (segment locks, ticket counters, condvar
//!   parking) from everything above it.
//! * **serve_rtt0** — closed-loop clients driving the Management
//!   Service with the memo cache disabled, zero simulated RTT. Every
//!   request runs broker → Task Manager → executor with the binary
//!   wire codec and the refcounted payload path; single-thread req/s
//!   here is the broker-path service rate the gate compares against
//!   the committed hot-path baseline.
//! * **serve_rtt200** — the same workload behind the §V-A testbed's
//!   simulated client RTT (default 200 µs, `BROKER_RTT_US` to
//!   override). With the RTT spent client-side, aggregate throughput
//!   can only rise with the client count if the broker path does not
//!   serialize — this series carries the scaling gate.
//!
//! Prints the table and writes `results/BENCH_broker.json`, mirrored
//! to the workspace root (`BROKER_MIRROR=0` to disable, as CI smoke
//! runs do) so the committed numbers live next to the code they
//! measure. `scripts/bench_gate.py --check broker` enforces the
//! thresholds against the committed artifact.

use bytes::Bytes;
use dlhub_bench::report::{print_table, shape_check, write_json};
use dlhub_core::hub::TestHub;
use dlhub_core::servable::{servable_fn, ModelType};
use dlhub_core::serving::ServingConfig;
use dlhub_core::value::Value;
use dlhub_queue::{Broker, BrokerConfig, TopicConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const THREADS: [usize; 5] = [1, 2, 4, 8, 16];

/// Bounded topic for the raw series: backpressure keeps the queue at
/// steady state so the measurement is hand-off rate, not enqueue rate
/// into an ever-growing backlog.
const RAW_CAPACITY: usize = 1024;

struct Cell {
    threads: usize,
    ops: u64,
    elapsed: Duration,
}

impl Cell {
    fn per_s(&self) -> f64 {
        self.ops as f64 / self.elapsed.as_secs_f64()
    }
}

/// Raw broker hand-off: `threads` producers and `threads` consumers on
/// one topic; one op = one message sent, delivered, and acked.
fn drive_raw(threads: usize, window: Duration) -> Cell {
    let broker = Broker::new(BrokerConfig::default());
    broker
        .create_topic_with(
            "bench",
            TopicConfig {
                capacity: Some(RAW_CAPACITY),
                ..TopicConfig::default()
            },
        )
        .expect("create bench topic");
    let barrier = Arc::new(Barrier::new(threads * 2 + 1));
    let stop = Arc::new(AtomicBool::new(false));
    let payload = Bytes::from_static(&[0u8; 64]);

    let producers: Vec<_> = (0..threads)
        .map(|_| {
            let broker = broker.clone();
            let barrier = Arc::clone(&barrier);
            let stop = Arc::clone(&stop);
            let payload = payload.clone();
            std::thread::spawn(move || {
                barrier.wait();
                while !stop.load(Ordering::Relaxed) {
                    // `try_send` + yield rather than the blocking send:
                    // producers must observe `stop` even when consumers
                    // have already quit and the topic stays full.
                    if broker.try_send("bench", payload.clone()).is_err() {
                        std::thread::yield_now();
                    }
                }
            })
        })
        .collect();
    let consumers: Vec<_> = (0..threads)
        .map(|_| {
            let broker = broker.clone();
            let barrier = Arc::clone(&barrier);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut acked = 0u64;
                barrier.wait();
                while !stop.load(Ordering::Relaxed) {
                    if let Ok(delivery) = broker.recv_timeout("bench", Duration::from_millis(5)) {
                        delivery.ack();
                        acked += 1;
                    }
                }
                acked
            })
        })
        .collect();

    barrier.wait();
    let started = Instant::now();
    std::thread::sleep(window);
    stop.store(true, Ordering::Relaxed);
    let ops: u64 = consumers
        .into_iter()
        .map(|h| h.join().expect("consumer thread"))
        .sum();
    let elapsed = started.elapsed();
    for p in producers {
        p.join().expect("producer thread");
    }
    Cell {
        threads,
        ops,
        elapsed,
    }
}

/// Closed-loop serving-path clients, memo bypassed: every request is
/// unique, so each one crosses the broker to a Task Manager and back.
fn drive_serve(hub: &TestHub, threads: usize, window: Duration, rtt: Duration) -> Cell {
    let barrier = Arc::new(Barrier::new(threads + 1));
    let stop = Arc::new(AtomicBool::new(false));
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let service = Arc::clone(&hub.service);
            let token = hub.token.clone();
            let barrier = Arc::clone(&barrier);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut ops = 0u64;
                let mut i = 0i64;
                // Per-thread xorshift for think-time jitter; seeded by
                // thread index so runs are reproducible.
                let mut rng_state: u64 = 0x9E37_79B9_7F4A_7C15 ^ ((t as u64 + 1) << 17);
                let mut next_unit = move || {
                    rng_state ^= rng_state << 13;
                    rng_state ^= rng_state >> 7;
                    rng_state ^= rng_state << 17;
                    (rng_state >> 11) as f64 / (1u64 << 53) as f64
                };
                barrier.wait();
                if !rtt.is_zero() && threads > 1 {
                    // De-phase the closed loops across one RTT period:
                    // independent remote clients are not barrier-
                    // synchronized, and without this the identical
                    // sleep periods keep every client arriving in one
                    // lockstep burst whose tail queues behind the whole
                    // batch on every round.
                    std::thread::sleep(rtt * t as u32 / threads as u32);
                }
                while !stop.load(Ordering::Relaxed) {
                    // Unique per thread and iteration: never memoizable.
                    let input = Value::Int(((t as i64) << 40) | i);
                    service
                        .run(&token, "dlhub/echo", input)
                        .expect("echo request");
                    ops += 1;
                    i += 1;
                    if !rtt.is_zero() {
                        // Client-side network gap, spent outside the
                        // service as in the hotpath bench. Jittered
                        // ±25% around the nominal RTT (mean unchanged)
                        // so independent clients stay de-phased instead
                        // of drifting back into lockstep arrivals.
                        let jitter = 0.75 + 0.5 * next_unit();
                        std::thread::sleep(rtt.mul_f64(jitter));
                    }
                }
                ops
            })
        })
        .collect();
    barrier.wait();
    let started = Instant::now();
    std::thread::sleep(window);
    stop.store(true, Ordering::Relaxed);
    let ops: u64 = handles
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .sum();
    Cell {
        threads,
        ops,
        elapsed: started.elapsed(),
    }
}

fn main() {
    let window = Duration::from_millis(
        std::env::var("BROKER_MS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(1500),
    );
    let rtt = Duration::from_micros(
        std::env::var("BROKER_RTT_US")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(200),
    );
    // Same shape as the hotpath hub — generous downstream capacity so
    // the broker path, not executor starvation, is what's measured —
    // but with the memo cache off so no request can short-circuit.
    let hub = TestHub::builder()
        .without_eval_servables()
        .memo(false)
        .replicas(16)
        .consumers(16)
        .config(ServingConfig {
            async_workers: 16,
            // Sample the run into the time-series store so the
            // artifact carries a queue-wait/throughput time axis.
            telemetry_interval: Duration::from_millis(50),
            ..ServingConfig::default()
        })
        .build();
    hub.publish_simple(
        "echo",
        ModelType::PythonFunction,
        servable_fn(|v| Ok(v.clone())),
    );

    let mut table = Vec::new();
    let mut json_modes = serde_json::Map::new();
    let mut record = |label: &str, cells: &[Cell], table: &mut Vec<Vec<String>>| {
        let series: Vec<_> = cells
            .iter()
            .map(|cell| {
                table.push(vec![
                    label.to_string(),
                    cell.threads.to_string(),
                    format!("{:.0}", cell.per_s()),
                ]);
                serde_json::json!({
                    "threads": cell.threads,
                    "ops": cell.ops,
                    "elapsed_s": cell.elapsed.as_secs_f64(),
                    "per_s": cell.per_s(),
                })
            })
            .collect();
        json_modes.insert(label.to_string(), serde_json::Value::Array(series));
    };

    let raw: Vec<_> = THREADS
        .iter()
        .map(|&t| drive_raw(t, window.min(Duration::from_millis(800))))
        .collect();
    record("raw", &raw, &mut table);

    let serve_rtt0: Vec<_> = THREADS
        .iter()
        .map(|&t| drive_serve(&hub, t, window, Duration::ZERO))
        .collect();
    record("serve_rtt0", &serve_rtt0, &mut table);

    let serve_rtt: Vec<_> = THREADS
        .iter()
        .map(|&t| drive_serve(&hub, t, window, rtt))
        .collect();
    record(
        &format!("serve_rtt{}", rtt.as_micros()),
        &serve_rtt,
        &mut table,
    );

    print_table(
        &format!(
            "Broker throughput ({}ms per cell, {}us client RTT on the scaled series)",
            window.as_millis(),
            rtt.as_micros()
        ),
        &["mode", "threads", "ops/s"],
        &table,
    );

    let rate = |cells: &[Cell], threads: usize| {
        cells
            .iter()
            .find(|c| c.threads == threads)
            .map(|c| c.per_s())
            .unwrap_or(0.0)
    };
    let single = rate(&serve_rtt0, 1);
    let speedup = rate(&serve_rtt, 8) / rate(&serve_rtt, 1).max(1.0);
    println!("\nshape checks:");
    shape_check(
        &format!("memo-bypass single-thread path sustains load ({single:.0} req/s)"),
        single > 0.0,
    );
    shape_check(
        &format!(
            "RTT series scales from 1 to 8 clients ({:.0} → {:.0} req/s, {speedup:.2}x)",
            rate(&serve_rtt, 1),
            rate(&serve_rtt, 8)
        ),
        speedup >= 2.0,
    );

    let store = hub
        .service
        .obs()
        .telemetry
        .store()
        .expect("telemetry enabled on the serve hub");
    shape_check(
        &format!(
            "telemetry collector sampled the serve runs ({} passes)",
            store.samples_taken()
        ),
        store.samples_taken() > 0,
    );

    let doc = serde_json::json!({
        "bench": "broker",
        "window_ms": window.as_millis() as u64,
        "client_rtt_us": rtt.as_micros() as u64,
        "thread_counts": THREADS.to_vec(),
        "raw_capacity": RAW_CAPACITY,
        "modes": serde_json::Value::Object(json_modes),
        "serve_rtt0_1t_req_per_s": single,
        "serve_rtt_speedup_8t_over_1t": speedup,
        // Time axis of the serve runs: broker queue wait, per-servable
        // rates and pool gauges from the sampling collector, capped to
        // the newest points per ring tier to keep the artifact small.
        "telemetry": store.to_json_capped(6),
    });
    let path = write_json("BENCH_broker.json", &doc);
    let mirror = std::env::var("BROKER_MIRROR").map_or(true, |v| v != "0");
    if mirror {
        let root_copy = std::path::Path::new("BENCH_broker.json");
        std::fs::copy(&path, root_copy).expect("copy BENCH_broker.json");
        println!(
            "wrote {} (mirrored to {})",
            path.display(),
            root_copy.display()
        );
    } else {
        println!("wrote {} (mirror disabled)", path.display());
    }
}
