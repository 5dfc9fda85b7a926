//! Ablation: replica autoscaling on the real threaded runtime (the
//! §VII "automated tuning of servable execution" loop).
//!
//! ```text
//! cargo run --release -p dlhub-bench --bin ablation_autoscale
//! ```
//!
//! A compute-heavy servable starts at 1 replica behind eight concurrent
//! clients. Throughput is measured with the control loop idle, then
//! while the main thread drives control passes over the live request
//! counts (the pool grows under the clients, one Little's-law step per
//! pass), then again once the pool has settled.

use dlhub_bench::report::{print_table, shape_check, write_csv};
use dlhub_core::autoscale::ControlPolicy;
use dlhub_core::hub::TestHub;
use dlhub_core::servable::{servable_fn, ModelType};
use dlhub_core::serving::ServingConfig;
use dlhub_core::value::Value;
use dlhub_sync::thread;
use dlhub_sync::time::Instant;
use std::sync::Arc;
use std::time::Duration;

const CLIENTS: usize = 8;
const REQUESTS_PER_CLIENT: usize = 12;
const PASS_EVERY: Duration = Duration::from_millis(50);

/// Throughput of `CLIENTS` closed-loop clients sending `per_client`
/// requests each; with `reconcile`, the caller's thread runs a control
/// pass every [`PASS_EVERY`] until the last client finishes.
fn measure_throughput(hub: &TestHub, per_client: usize, reconcile: bool) -> f64 {
    let start = Instant::now();
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let service = Arc::clone(&hub.service);
            let token = hub.token.clone();
            thread::spawn(move || {
                for i in 0..per_client {
                    service
                        .run(&token, "dlhub/heavy", Value::Int((c * 1000 + i) as i64))
                        .unwrap();
                }
            })
        })
        .collect();
    while reconcile && !handles.iter().all(|h| h.is_finished()) {
        thread::sleep(PASS_EVERY);
        for decision in hub.service.reconcile_now() {
            println!("  {decision}");
        }
    }
    for h in handles {
        h.join().unwrap();
    }
    (CLIENTS * per_client) as f64 / start.elapsed().as_secs_f64()
}

fn main() {
    let hub = TestHub::builder()
        .without_eval_servables()
        .memo(false)
        .replicas(1)
        .consumers(CLIENTS)
        .config(ServingConfig {
            autoscale: Some(ControlPolicy {
                max_replicas: CLIENTS,
                cooldown: Duration::from_millis(100),
                signal_window: Duration::from_millis(300),
                ..ControlPolicy::default()
            }),
            ..ServingConfig::default()
        })
        .build();
    hub.publish_simple(
        "heavy",
        ModelType::PythonFunction,
        servable_fn(|v| {
            thread::sleep(Duration::from_millis(10));
            Ok(v.clone())
        }),
    );

    // Warm the pool and seed the cost estimate (`min_samples`).
    for i in 0..6 {
        hub.service
            .run(&hub.token, "dlhub/heavy", Value::Int(-i))
            .unwrap();
    }

    let before_replicas = hub.parsl.replicas("dlhub/heavy");
    let before = measure_throughput(&hub, REQUESTS_PER_CLIENT, false);

    println!("control-loop decisions under load:");
    let scaling = measure_throughput(&hub, 4 * REQUESTS_PER_CLIENT, true);
    let after_replicas = hub.parsl.replicas("dlhub/heavy");
    let after = measure_throughput(&hub, REQUESTS_PER_CLIENT, false);
    let decisions = hub.service.reconciler().expect("attached").decisions();

    let rows = vec![
        vec![
            "before".to_string(),
            before_replicas.to_string(),
            format!("{before:.1}"),
        ],
        vec![
            "scaling".to_string(),
            format!("{before_replicas}..{after_replicas}"),
            format!("{scaling:.1}"),
        ],
        vec![
            "after".to_string(),
            after_replicas.to_string(),
            format!("{after:.1}"),
        ],
    ];
    print_table(
        "Ablation: autoscaler (10 ms servable, 8 concurrent clients)",
        &["phase", "replicas", "req/s"],
        &rows,
    );
    let path = write_csv(
        "ablation_autoscale.csv",
        &["phase", "replicas", "throughput_rps"],
        &rows,
    );
    println!("\nwrote {}", path.display());
    println!("\n{} decisions applied", decisions.len());

    println!("\nshape checks:");
    shape_check(
        &format!("control loop raised replicas ({before_replicas} -> {after_replicas})"),
        after_replicas > before_replicas,
    );
    shape_check(
        &format!("throughput improved ({before:.1} -> {after:.1} req/s)"),
        after > before * 1.5,
    );
}
