//! Ablation: memo-cache capacity under a skewed request mix.
//!
//! ```text
//! cargo run --release -p dlhub-bench --bin ablation_memo
//! ```
//!
//! Fig 4 measures memoization with a single repeated input — the
//! best case. Real workloads repeat *some* inputs (hot compositions,
//! reference images) under a long tail. This ablation drives the real
//! [`MemoCache`] with a Zipf-distributed stream over 10,000
//! distinct CIFAR-sized inputs, sweeps the byte budget, and converts
//! the measured hit rate into an expected request latency on the
//! paper testbed (hit: Fig 4's memoized path; miss: Fig 3's full
//! path).

use dlhub_bench::calibrate_servables;
use dlhub_bench::report::{ms, print_table, shape_check, write_csv};
use dlhub_core::memo::{MemoCache, MemoKey};
use dlhub_core::value::Value;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DISTINCT: usize = 10_000;
const REQUESTS: usize = 60_000;
const ZIPF_S: f64 = 1.1;

/// Draw Zipf-ish ranks via inverse-CDF over a precomputed table.
fn zipf_table(n: usize, s: f64) -> Vec<f64> {
    let mut cdf = Vec::with_capacity(n);
    let mut acc = 0.0;
    for k in 1..=n {
        acc += 1.0 / (k as f64).powf(s);
        cdf.push(acc);
    }
    let total = acc;
    for v in &mut cdf {
        *v /= total;
    }
    cdf
}

fn main() {
    println!("calibrating real kernels…");
    let servables = calibrate_servables(7);
    let cifar = dlhub_bench::calibrate::find(&servables, "cifar10");
    let profile = dlhub_sim::testbed::dlhub();
    // Per-request costs from the testbed model (medians, no jitter).
    let miss_sample = {
        let mut p = profile.clone();
        p.jitter = 0.0;
        p.run_sequential(&cifar.model, 1, false, true, 0)[0]
    };
    let hit_sample = {
        let mut p = profile.clone();
        p.jitter = 0.0;
        p.run_sequential(&cifar.model, 2, true, true, 0)[1]
    };
    let miss_ms = miss_sample.request.as_millis();
    let hit_ms = hit_sample.request.as_millis();

    // One entry ≈ a cached CIFAR-10 output (top-1 JSON): small; the
    // *input hash* is the key, so capacity is effectively entry-count
    // driven. Use a representative 256-byte output.
    let output = Value::Json(serde_json::json!({
        "label": "airplane",
        "probability": 0.73212,
        "pad": "x".repeat(180),
    }));
    let entry_bytes = output.approx_size();

    let cdf = zipf_table(DISTINCT, ZIPF_S);
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    let mut hit_rates = Vec::new();
    for capacity_entries in [10usize, 100, 1000, 5000, 20_000] {
        let cache = MemoCache::new(capacity_entries * entry_bytes);
        let mut rng = StdRng::seed_from_u64(99);
        let mut hits = 0u64;
        for _ in 0..REQUESTS {
            let u: f64 = rng.gen();
            let rank = cdf.partition_point(|c| *c < u);
            let key = MemoKey::new("dlhub/cifar10", &Value::Int(rank as i64));
            if cache.get(&key).is_some() {
                hits += 1;
            } else {
                cache.put(key, output.clone());
            }
        }
        let hit_rate = hits as f64 / REQUESTS as f64;
        let mean_ms = hit_rate * hit_ms + (1.0 - hit_rate) * miss_ms;
        hit_rates.push((capacity_entries, hit_rate));
        rows.push(vec![
            capacity_entries.to_string(),
            format!("{:.1}%", hit_rate * 100.0),
            ms(mean_ms),
            cache.stats().evictions.to_string(),
        ]);
        csv.push(vec![
            capacity_entries.to_string(),
            hit_rate.to_string(),
            mean_ms.to_string(),
            cache.stats().evictions.to_string(),
        ]);
    }

    print_table(
        &format!(
            "Ablation: memo capacity under Zipf(s={ZIPF_S}) over {DISTINCT} inputs ({REQUESTS} requests; hit {} ms, miss {} ms)",
            ms(hit_ms),
            ms(miss_ms)
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
