//! Fig 6: invocation time vs number of requests with batching (§V-B3),
//! on a `TestHub` (memo off, 2 replicas): [`ROUNDS`] rounds of one
//! `run_batch` per size, each its measured invocation plus the one
//! TM↔cluster round trip it crossed; a point is the mean of its size's
//! batches once the fastest and the slowest are dropped. The host's
//! speed drifts by ±15 % from one second to the next, so sizes are
//! measured in turn, round after round, rather than each in a burst of
//! its own: a slow stretch lands on every size alike instead of bending
//! the line at the one it caught, and a batch that caught a stall or a
//! quiet spell alone is dropped rather than taken as the point.
//!
//! The paper batches up to 10,000 requests. `noop` and `matminer
//! model` do here too; `cifar10` stops at 2,000 (10,000 CIFAR-10
//! inputs are 120 MB on each side of the queue and ~4 s of inference
//! per batch).
//!
//! Expected shape (paper): "a roughly linear relationship between
//! invocation time and number of requests" — verified here with a
//! least-squares fit (R² close to 1).

use dlhub_bench::report::{linear_fit, ms, print_table, shape_check, write_csv};
use dlhub_bench::testbed::{crossings, evaluation_inputs, on_paper_links};
use dlhub_core::hub::TestHub;
use std::time::Duration;

const SIZES: [usize; 8] = [100, 500, 1000, 2000, 4000, 6000, 8000, 10_000];
/// Batches per size, one in each round.
const ROUNDS: usize = 9;
/// `(servable, largest batch)`.
const SERVABLES: [(&str, usize); 3] = [
    ("noop", 10_000),
    ("cifar10", 2_000),
    ("matminer model", 10_000),
];
/// Per-item cost (ms) from which an item's own work, not host noise,
/// dominates a batch.
const PER_ITEM_BOUND_MS: f64 = 0.01;

fn main() {
    let hub = TestHub::builder().memo(false).build();

    let mut rows = Vec::new();
    let mut csv = Vec::new();
    let mut fits = Vec::new();
    for (label, id, input) in evaluation_inputs() {
        let Some(&(_, max)) = SERVABLES.iter().find(|(name, _)| *name == label) else {
            continue;
        };
        // Deploy the replica pool before anything is timed.
        hub.service.run(&hub.token, id, input.clone()).unwrap();
        let sizes: Vec<usize> = SIZES.into_iter().filter(|n| *n <= max).collect();
        let mut batches: Vec<Vec<Duration>> = vec![Vec::with_capacity(ROUNDS); sizes.len()];
        for _ in 0..ROUNDS {
            for (times, &n) in batches.iter_mut().zip(&sizes) {
                let (_, t) = hub
                    .service
                    .run_batch(&hub.token, id, vec![input.clone(); n])
                    .unwrap();
                times.push(on_paper_links(t, crossings(&t)).invocation);
            }
        }
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for (mut times, n) in batches.into_iter().zip(sizes) {
            times.sort();
            let kept = &times[1..ROUNDS - 1];
            let total = kept.iter().sum::<Duration>().as_secs_f64() * 1e3 / kept.len() as f64;
            xs.push(n as f64);
            ys.push(total);
            rows.push(vec![
                label.to_string(),
                n.to_string(),
                ms(total),
                ms(total / n as f64),
            ]);
            csv.push(vec![label.to_string(), n.to_string(), total.to_string()]);
        }
        let (a, b, r2) = linear_fit(&xs, &ys);
        fits.push((label, a, b, r2));
    }

    print_table(
        "Fig 6: batched invocation time vs request count",
        &["servable", "n", "total ms", "ms/request"],
        &rows,
    );
    let path = write_csv(
        "fig6.csv",
        &["servable", "n_requests", "invocation_ms"],
        &csv,
    );
    println!("\nwrote {}", path.display());

    println!("\nlinear fits (time = a + b·n):");
    for (name, a, b, r2) in &fits {
        println!("  {name:<16} a={a:9.3} ms  b={b:9.6} ms/req  R²={r2:.5}");
    }

    println!("\nshape checks against the paper:");
    shape_check(
        &format!(
            "roughly linear relationship: R² ≥ 0.999 where an item costs ≥ {} µs, ≥ 0.9 below (a 10,000-item batch of sub-µs items is a few ms and moves with host noise)",
            PER_ITEM_BOUND_MS * 1e3
        ),
        fits.iter().all(|(_, _, b, r2)| {
            let bound = if *b >= PER_ITEM_BOUND_MS { 0.999 } else { 0.9 };
            *r2 >= bound
        }),
    );
    shape_check("per-request slope tracks servable cost (cifar10 > noop)", {
        let slope = |name: &str| fits.iter().find(|(n, ..)| *n == name).unwrap().2;
        slope("cifar10") > slope("noop")
    });
}
