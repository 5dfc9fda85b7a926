//! Fig 4: performance impact of memoization (§V-B2), on a `TestHub`.
//!
//! Same fixed-input methodology as Fig 3: per servable, 100 requests
//! with memoization off, then one warm-up miss and 100 hits, each a
//! measured `RunResult.timings` plus the §V-A links it crossed. A hit
//! is answered at the Management Service and crosses no link; a miss
//! crosses both once.
//!
//! Paper: memoization reduces invocation time by 95.3–99.8 % and
//! request time by 24.3–95.4 %. The request band came from a cache at
//! the Task Manager, behind the 20.7 ms MS↔TM link; this cache sits in
//! front of that link (EXPERIMENTS.md, "Known deviations").

use dlhub_bench::report::{ms, print_table, shape_check, write_csv};
use dlhub_bench::testbed::{crossings, evaluation_inputs, on_paper_links};
use dlhub_core::hub::TestHub;
use dlhub_core::metrics::{percentile, Timings};
use dlhub_core::serving::RunOptions;
use dlhub_core::value::Value;
use std::time::Duration;

const RUNS: usize = 100;

/// `RUNS` requests of `input` to `id` with memoization `memoize`, each
/// with the links it crossed.
fn serve(hub: &TestHub, id: &str, input: &Value, memoize: bool) -> Vec<Timings> {
    let options = RunOptions {
        memoize: Some(memoize),
        ..RunOptions::default()
    };
    (0..RUNS)
        .map(|_| {
            let t = hub
                .service
                .run_with_options(&hub.token, id, input.clone(), &options)
                .unwrap()
                .timings;
            on_paper_links(t, crossings(&t))
        })
        .collect()
}

fn median_ms(samples: &[Timings], f: fn(&Timings) -> Duration) -> f64 {
    let series: Vec<Duration> = samples.iter().map(f).collect();
    percentile(&series, 0.5).expect("RUNS > 0").as_secs_f64() * 1e3
}

fn main() {
    let hub = TestHub::builder().build();

    let mut rows = Vec::new();
    let mut csv = Vec::new();
    // (label, invocation cut %, request cut %, request ms saved)
    let mut reductions = Vec::new();
    for (label, id, input) in evaluation_inputs() {
        let cold = serve(&hub, id, &input, false);
        // The first memoized request misses and fills the cache.
        let warmup = hub.service.run(&hub.token, id, input.clone()).unwrap();
        assert!(!warmup.timings.cache_hit);
        let warm = serve(&hub, id, &input, true);
        assert!(warm.iter().all(|t| t.cache_hit));

        let inv_off = median_ms(&cold, |t| t.invocation);
        let inv_on = median_ms(&warm, |t| t.invocation);
        let req_off = median_ms(&cold, |t| t.request);
        let req_on = median_ms(&warm, |t| t.request);
        let inv_reduction = 100.0 * (1.0 - inv_on / inv_off);
        let req_reduction = 100.0 * (1.0 - req_on / req_off);
        reductions.push((label, inv_reduction, req_reduction, req_off - req_on));
        rows.push(vec![
            label.to_string(),
            ms(inv_off),
            ms(inv_on),
            format!("{inv_reduction:.1}%"),
            ms(req_off),
            ms(req_on),
            format!("{req_reduction:.1}%"),
        ]);
        csv.push(vec![
            label.to_string(),
            inv_off.to_string(),
            inv_on.to_string(),
            inv_reduction.to_string(),
            req_off.to_string(),
            req_on.to_string(),
            req_reduction.to_string(),
        ]);
    }

    print_table(
        &format!(
            "Fig 4: memoization impact, median ms (memo off vs on, {RUNS} fixed-input requests)"
        ),
        &[
            "servable",
            "invoc off",
            "invoc on",
            "invoc cut",
            "req off",
            "req on",
            "req cut",
        ],
        &rows,
    );
    let path = write_csv(
        "fig4.csv",
        &[
            "servable",
            "invocation_off_ms",
            "invocation_on_ms",
            "invocation_reduction_pct",
            "request_off_ms",
            "request_on_ms",
            "request_reduction_pct",
        ],
        &csv,
    );
    println!("\nwrote {}", path.display());

    println!("\nshape checks against the paper:");
    shape_check(
        "invocation time cut by >=90% for every servable",
        reductions.iter().all(|(_, inv, _, _)| *inv >= 90.0),
    );
    let req_min = reductions
        .iter()
        .map(|(_, _, req, _)| *req)
        .fold(f64::INFINITY, f64::min);
    shape_check(
        &format!(
            "a hit is answered at the MS and crosses no link: request time cut by >=95% for every servable (min {req_min:.1}%)"
        ),
        req_min >= 95.0,
    );
    let saved = |name: &str| reductions.iter().find(|r| r.0 == name).unwrap().3;
    shape_check(
        &format!(
            "expensive servables save the most request time (inception {} ms vs noop {} ms)",
            ms(saved("inception")),
            ms(saved("noop"))
        ),
        saved("inception") > saved("noop"),
    );
}
