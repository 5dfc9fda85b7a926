//! Ablation: server-side pipelines vs client-side chaining (§VI-D), on
//! a `TestHub` with memoization off.
//!
//! ```text
//! cargo run --release -p dlhub-bench --bin ablation_pipeline
//! ```
//!
//! "Defining these steps as a pipeline means data are automatically
//! passed between each servable in the pipeline, meaning the entire
//! execution is performed server-side, drastically lowering both the
//! latency and user burden." The three formation-enthalpy stages run
//! [`RUNS`] times each way — three client `run` calls, and one
//! `run_pipeline` of the registered pipeline — timed by the client,
//! plus the §V-A link round trips every step's outcome crossed.
//!
//! Steps chain at the Management Service, so a pipeline crosses MS↔TM
//! once per step, exactly as client-side chaining does. What it saves
//! is the client ↔ MS round trips of the two calls the client no longer
//! makes — a link the paper's testbed gives no constant for — not the
//! MS↔TM envelopes a chain at the Task Manager would save
//! (EXPERIMENTS.md, "Known deviations").

use dlhub_bench::report::{ms, print_table, shape_check, write_csv};
use dlhub_bench::testbed::{crossings, on_paper_links};
use dlhub_core::hub::TestHub;
use dlhub_core::metrics::{percentile_summary, Timings};
use dlhub_core::pipeline::Pipeline;
use dlhub_core::value::Value;
use std::time::{Duration, Instant};

const STAGES: [&str; 3] = [
    "dlhub/matminer-util",
    "dlhub/matminer-featurize",
    "dlhub/matminer-model",
];
const RUNS: usize = 100;

/// What the client waited for `wall`, on the paper's links: `crossed`
/// crossings of each.
fn linked(wall: Duration, crossed: u32) -> Duration {
    let t = Timings {
        request: wall,
        ..Timings::default()
    };
    on_paper_links(t, crossed).request
}

/// [`RUNS`] of `serve`, as `(wall time, crossings)`.
fn sample(serve: impl Fn() -> (Value, Duration, u32)) -> Vec<(Duration, u32)> {
    (0..RUNS)
        .map(|_| {
            let (_, wall, crossed) = serve();
            (wall, crossed)
        })
        .collect()
}

fn main() {
    let hub = TestHub::builder().memo(false).build();
    hub.service
        .register_pipeline(
            &hub.token,
            Pipeline::new(
                "formation-enthalpy",
                STAGES.iter().map(|s| s.to_string()).collect(),
            ),
        )
        .expect("the three stages are published");
    let formula = || Value::Str("NaCl".into());

    // One of each first: deploys the three replica pools.
    let chain = || {
        let started = Instant::now();
        let mut value = formula();
        let mut crossed = 0;
        for stage in STAGES {
            let result = hub.service.run(&hub.token, stage, value).unwrap();
            crossed += crossings(&result.timings);
            value = result.value;
        }
        (value, started.elapsed(), crossed)
    };
    let pipeline = || {
        let started = Instant::now();
        let (value, steps) = hub
            .service
            .run_pipeline(&hub.token, "formation-enthalpy", formula())
            .unwrap();
        let crossed = steps.iter().map(|s| crossings(&s.timings)).sum();
        (value, started.elapsed(), crossed)
    };
    let (chained_value, ..) = chain();
    let (pipelined_value, ..) = pipeline();

    // (strategy, client calls, samples)
    let strategies = [
        ("client-side chaining", STAGES.len(), sample(chain)),
        ("server-side pipeline", 1, sample(pipeline)),
    ];

    let mut rows = Vec::new();
    let mut csv = Vec::new();
    // (median ms on the links, crossings per run)
    let mut medians = Vec::new();
    for (name, calls, samples) in &strategies {
        let crossed = samples[0].1;
        assert!(samples.iter().all(|(_, c)| *c == crossed));
        let walls: Vec<Duration> = samples.iter().map(|(w, _)| *w).collect();
        let on_links: Vec<Duration> = walls.iter().map(|w| linked(*w, crossed)).collect();
        let (p5, p50, p95) = percentile_summary(&on_links).expect("RUNS > 0");
        let [p5, p50, p95] = [p5, p50, p95].map(|d| d.as_secs_f64() * 1e3);
        let (_, wall, _) = percentile_summary(&walls).expect("RUNS > 0");
        let wall_us = wall.as_secs_f64() * 1e6;
        medians.push((p50, crossed));
        rows.push(vec![
            name.to_string(),
            calls.to_string(),
            crossed.to_string(),
            format!("{wall_us:.0}"),
            format!("{} [{}..{}]", ms(p50), ms(p5), ms(p95)),
        ]);
        csv.push(vec![
            name.to_string(),
            calls.to_string(),
            crossed.to_string(),
            wall_us.to_string(),
            p50.to_string(),
            p5.to_string(),
            p95.to_string(),
        ]);
    }
    print_table(
        &format!("Ablation: formation-enthalpy pipeline, {RUNS} runs each (memo off)"),
        &[
            "strategy",
            "client calls",
            "MS-TM crossings",
            "measured us (p50)",
            "on the paper's links, ms",
        ],
        &rows,
    );
    let path = write_csv(
        "ablation_pipeline.csv",
        &[
            "strategy",
            "client_calls",
            "ms_tm_crossings",
            "measured_p50_us",
            "median_ms",
            "p5_ms",
            "p95_ms",
        ],
        &csv,
    );
    println!("\nwrote {}", path.display());

    println!("\nshape checks against the paper:");
    let [(chain_ms, chain_crossed), (pipe_ms, pipe_crossed)] = [medians[0], medians[1]];
    shape_check(
        &format!(
            "steps chain at the MS: the pipeline crosses MS-TM once per step like the chain ({pipe_crossed} vs {chain_crossed}), so its median is within 1 ms of the chain's ({} vs {} ms); the saving is {} client round trips",
            ms(pipe_ms),
            ms(chain_ms),
            STAGES.len() - 1
        ),
        pipe_crossed == chain_crossed && (pipe_ms - chain_ms).abs() < 1.0,
    );
    shape_check(
        "one pipeline call returns what three chained calls return",
        pipelined_value == chained_value,
    );
}
