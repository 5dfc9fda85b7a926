//! Fig 5: servable invocation time with and without batching, for
//! 1–100 requests (§V-B3), on a `TestHub` (memo off, 2 replicas).
//!
//! Unbatched: `n` sequential `run` calls, their measured invocation
//! times summed, each plus the TM↔cluster round trip it crossed.
//! Batched: one `run_batch` of `n` inputs — one task, one crossing,
//! one job per replica.
//!
//! Expected shape (paper): "batching significantly reduces overall
//! invocation time" — the unbatched series pays per-request dispatch,
//! the batched series amortizes it across the batch.

use dlhub_bench::report::{ms, print_table, shape_check, write_csv};
use dlhub_bench::testbed::{crossings, evaluation_inputs, on_paper_links};
use dlhub_core::hub::TestHub;
use std::time::Duration;

const SIZES: [usize; 7] = [1, 2, 5, 10, 20, 50, 100];
const SERVABLES: [&str; 3] = ["noop", "cifar10", "matminer model"];

fn main() {
    let hub = TestHub::builder().memo(false).build();

    let mut rows = Vec::new();
    let mut csv = Vec::new();
    let mut ratio_at_100 = Vec::new();
    for (label, id, input) in evaluation_inputs() {
        if !SERVABLES.contains(&label) {
            continue;
        }
        // Deploy the replica pool before anything is timed.
        hub.service.run(&hub.token, id, input.clone()).unwrap();
        for n in SIZES {
            let unbatched: Duration = (0..n)
                .map(|_| {
                    let t = hub
                        .service
                        .run(&hub.token, id, input.clone())
                        .unwrap()
                        .timings;
                    on_paper_links(t, crossings(&t)).invocation
                })
                .sum();
            let (_, t) = hub
                .service
                .run_batch(&hub.token, id, vec![input.clone(); n])
                .unwrap();
            let batched = on_paper_links(t, crossings(&t)).invocation;
            let [unbatched, batched] = [unbatched, batched].map(|d| d.as_secs_f64() * 1e3);
            rows.push(vec![
                label.to_string(),
                n.to_string(),
                ms(unbatched),
                ms(batched),
                format!("{:.2}x", unbatched / batched),
            ]);
            csv.push(vec![
                label.to_string(),
                n.to_string(),
                unbatched.to_string(),
                batched.to_string(),
            ]);
            if n == 100 {
                ratio_at_100.push((label, unbatched / batched));
            }
        }
    }

    print_table(
        "Fig 5: total invocation time (ms) for n requests, unbatched vs batched",
        &["servable", "n", "unbatched", "batched", "speedup"],
        &rows,
    );
    let path = write_csv(
        "fig5.csv",
        &["servable", "n_requests", "unbatched_ms", "batched_ms"],
        &csv,
    );
    println!("\nwrote {}", path.display());

    println!("\nshape checks against the paper:");
    shape_check(
        "batching reduces invocation time for every servable at n=100",
        ratio_at_100.iter().all(|(_, r)| *r > 1.0),
    );
    let gain = |name: &str| ratio_at_100.iter().find(|(n, _)| *n == name).unwrap().1;
    shape_check(
        &format!(
            "cheap servables gain most (noop {:.1}x vs cifar10 {:.1}x): overheads dominate their unbatched time",
            gain("noop"),
            gain("cifar10")
        ),
        gain("noop") > gain("cifar10"),
    );
}
