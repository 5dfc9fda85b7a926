//! Ablation: memo-cache capacity under a skewed request mix, on a
//! `TestHub`.
//!
//! ```text
//! cargo run --release -p dlhub-bench --bin ablation_memo
//! ```
//!
//! Fig 4 measures memoization with a single repeated input — the
//! best case. Real workloads repeat *some* inputs (hot compositions,
//! reference images) under a long tail. Here Zipf(s = 1.1) traffic over
//! 10,000 distinct inputs (60,000 requests, seed 99) goes through the
//! Management Service of a hub whose memo budget holds 10 … 20,000 of
//! the servable's 256-byte outputs. The hit rate is counted from
//! `Timings.cache_hit`; the mean request time is each measured request
//! plus the §V-A links its outcome crossed — a hit, answered at the
//! Management Service, crosses none; a miss crosses both once.

use dlhub_bench::report::{ms, print_table, shape_check, write_csv};
use dlhub_bench::testbed::{crossings, on_paper_links};
use dlhub_bench::workload::ZipfPopularity;
use dlhub_core::hub::TestHub;
use dlhub_core::servable::{servable_fn, ModelType};
use dlhub_core::serving::ServingConfig;
use dlhub_core::value::Value;
use std::time::Duration;

const DISTINCT: usize = 10_000;
const REQUESTS: usize = 60_000;
const ZIPF_S: f64 = 1.1;

fn main() {
    // One cached output: about a CIFAR-10 top-1 answer, 256 bytes. The
    // input is the key, so the budget is a count of these.
    let output = Value::Json(serde_json::json!({
        "label": "airplane",
        "probability": 0.73212,
        "pad": "x".repeat(180),
    }));
    let entry_bytes = output.approx_size();

    let mut rows = Vec::new();
    let mut csv = Vec::new();
    let mut hit_rates = Vec::new();
    for capacity_entries in [10usize, 100, 1000, 5000, 20_000] {
        let hub = TestHub::builder()
            .without_eval_servables()
            .config(ServingConfig {
                memo_capacity: capacity_entries * entry_bytes,
                ..ServingConfig::default()
            })
            .memo(true)
            .build();
        let answer = output.clone();
        let id = hub.publish_simple(
            "top1",
            ModelType::PythonFunction,
            servable_fn(move |_| Ok(answer.clone())),
        );
        let mut popularity = ZipfPopularity::new(DISTINCT, ZIPF_S, 99);
        let mut hits = 0u64;
        let mut total = Duration::ZERO;
        for _ in 0..REQUESTS {
            let rank = popularity.sample();
            let t = hub
                .service
                .run(&hub.token, &id, Value::Int(rank as i64))
                .expect("the echo serves every rank")
                .timings;
            hits += u64::from(t.cache_hit);
            total += on_paper_links(t, crossings(&t)).request;
        }
        let hit_rate = hits as f64 / REQUESTS as f64;
        let mean_ms = total.as_secs_f64() * 1e3 / REQUESTS as f64;
        let evictions = hub.service.memo_stats().evictions;
        hit_rates.push((capacity_entries, hit_rate));
        rows.push(vec![
            capacity_entries.to_string(),
            format!("{:.1}%", hit_rate * 100.0),
            ms(mean_ms),
            evictions.to_string(),
        ]);
        csv.push(vec![
            capacity_entries.to_string(),
            hit_rate.to_string(),
            mean_ms.to_string(),
            evictions.to_string(),
        ]);
    }

    print_table(
        &format!(
            "Ablation: memo capacity under Zipf(s={ZIPF_S}) over {DISTINCT} inputs ({REQUESTS} requests)"
        ),
        &["capacity (entries)", "hit rate", "mean request ms", "evictions"],
        &rows,
    );
    let path = write_csv(
        "ablation_memo.csv",
        &[
            "capacity_entries",
            "hit_rate",
            "mean_request_ms",
            "evictions",
        ],
        &csv,
    );
    println!("\nwrote {}", path.display());

    println!("\nshape checks:");
    let rate = |cap: usize| {
        hit_rates
            .iter()
            .find(|(c, _)| *c == cap)
            .map(|(_, r)| *r)
            .unwrap()
    };
    shape_check(
        "hit rate grows monotonically with capacity",
        hit_rates.windows(2).all(|w| w[1].1 >= w[0].1),
    );
    shape_check(
        &format!(
            "Zipf head concentration: 100 entries (1% of inputs) already catch {:.0}% of requests",
            rate(100) * 100.0
        ),
        rate(100) > 0.25,
    );
    shape_check(
        &format!(
            "full-working-set cache approaches the compulsory-miss bound ({:.1}% hits)",
            rate(20_000) * 100.0
        ),
        rate(20_000) > 0.8,
    );
}
