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
//! plus the §V-A link round trips each outcome crossed.
//!
//! A pipeline is one task: the Management Service sends the step list
//! once and the Task Manager chains the steps, so it crosses MS↔TM once
//! and TM↔cluster once per step, where client-side chaining crosses
//! both links once per call. On the paper's links that is the two
//! 20.7 ms envelopes the paper's check is about (plus the two client
//! round trips, which §V-A gives no constant for and this adds nothing
//! for).

use dlhub_bench::report::{ms, print_table, shape_check, write_csv};
use dlhub_bench::testbed::{crossings, on_paper_links, pipeline_crossings, Crossings};
use dlhub_core::hub::TestHub;
use dlhub_core::metrics::{percentile_summary, Timings};
use dlhub_core::pipeline::Pipeline;
use dlhub_core::value::Value;
use dlhub_sync::time::Instant;
use std::time::Duration;

const STAGES: [&str; 3] = [
    "dlhub/matminer-util",
    "dlhub/matminer-featurize",
    "dlhub/matminer-model",
];
const RUNS: usize = 100;

/// What the client waited for `wall`, on the paper's links.
fn linked(wall: Duration, crossed: Crossings) -> Duration {
    let t = Timings {
        request: wall,
        ..Timings::default()
    };
    on_paper_links(t, crossed).request
}

/// [`RUNS`] of `serve`, as `(wall time, crossings)`.
fn sample(serve: impl Fn() -> (Value, Duration, Crossings)) -> Vec<(Duration, Crossings)> {
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
        let mut crossed = Crossings::default();
        for stage in STAGES {
            let result = hub.service.run(&hub.token, stage, value).unwrap();
            crossed = crossed + crossings(&result.timings);
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
        (value, started.elapsed(), pipeline_crossings(&steps))
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
            crossed.ms_tm.to_string(),
            crossed.tm_cluster.to_string(),
            format!("{wall_us:.0}"),
            format!("{} [{}..{}]", ms(p50), ms(p5), ms(p95)),
        ]);
        csv.push(vec![
            name.to_string(),
            calls.to_string(),
            crossed.ms_tm.to_string(),
            crossed.tm_cluster.to_string(),
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
            "TM-cluster crossings",
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
            "tm_cluster_crossings",
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
    let steps = STAGES.len() as u32;
    shape_check(
        &format!(
            "one task: the pipeline crosses MS-TM once and TM-cluster once per step ({}/{}), the chain both once per call ({}/{})",
            pipe_crossed.ms_tm, pipe_crossed.tm_cluster, chain_crossed.ms_tm, chain_crossed.tm_cluster
        ),
        pipe_crossed
            == Crossings {
                ms_tm: 1,
                tm_cluster: steps,
            }
            && chain_crossed
                == Crossings {
                    ms_tm: steps,
                    tm_cluster: steps,
                },
    );
    shape_check(
        &format!(
            "server-side pipeline drastically lowers latency: chain / pipeline > 1.8x on the paper's links ({} / {} ms = {:.2}x)",
            ms(chain_ms),
            ms(pipe_ms),
            chain_ms / pipe_ms
        ),
        chain_ms / pipe_ms > 1.8,
    );
    shape_check(
        "one pipeline call returns what three chained calls return",
        pipelined_value == chained_value,
    );
}
