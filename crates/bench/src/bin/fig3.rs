//! Fig 3: request, invocation and inference times for the six
//! evaluation servables — 100 requests each through a `TestHub`,
//! memoization disabled, batch size 1 (§V-B1). Every number is a
//! measured `RunResult.timings` with the §V-A link round trips added
//! once per request ([`dlhub_bench::testbed::on_paper_links`]).
//!
//! Expected shape (paper): request−invocation includes the 20.7 ms
//! MS↔TM RTT; Inception and CIFAR-10 show extra overhead from shipping
//! image inputs; bars are medians with 5th/95th-percentile whiskers.

use dlhub_bench::report::{ms, print_table, shape_check, write_csv};
use dlhub_bench::testbed::{
    crossings, evaluation_inputs, on_paper_links, MS_TM_RTT, TM_CLUSTER_RTT,
};
use dlhub_core::hub::TestHub;
use dlhub_core::metrics::{percentile_summary, Timings};
use std::time::Duration;

const RUNS: usize = 100;

fn main() {
    let hub = TestHub::builder().memo(false).build();

    let mut rows = Vec::new();
    let mut csv = Vec::new();
    // (label, median inference, median invocation, median request)
    let mut medians = Vec::new();
    for (label, id, input) in evaluation_inputs() {
        // The first request deploys the replica pool (a cold start).
        hub.service.run(&hub.token, id, input.clone()).unwrap();
        let samples: Vec<Timings> = (0..RUNS)
            .map(|_| {
                let t = hub
                    .service
                    .run(&hub.token, id, input.clone())
                    .unwrap()
                    .timings;
                on_paper_links(t, crossings(&t))
            })
            .collect();
        let summary = |f: fn(&Timings) -> Duration| {
            let series: Vec<Duration> = samples.iter().map(f).collect();
            percentile_summary(&series).expect("RUNS > 0")
        };
        let mut row = vec![label.to_string()];
        let mut csv_row = vec![label.to_string()];
        let mut medians_row = Vec::new();
        for f in [
            (|t: &Timings| t.inference) as fn(&Timings) -> Duration,
            |t| t.invocation,
            |t| t.request,
        ] {
            let (p5, p50, p95) = summary(f);
            let [p5, p50, p95] = [p5, p50, p95].map(|d| d.as_secs_f64() * 1e3);
            row.push(format!("{} [{}..{}]", ms(p50), ms(p5), ms(p95)));
            csv_row.extend([p50, p5, p95].map(|v| v.to_string()));
            medians_row.push(p50);
        }
        rows.push(row);
        csv.push(csv_row);
        medians.push((label, medians_row[0], medians_row[1], medians_row[2]));
    }

    print_table(
        &format!("Fig 3: per-servable timings, median [p5..p95] in ms ({RUNS} requests, memo off, batch 1)"),
        &["servable", "inference", "invocation", "request"],
        &rows,
    );
    let path = write_csv(
        "fig3.csv",
        &[
            "servable",
            "inference_p50_ms",
            "inference_p5_ms",
            "inference_p95_ms",
            "invocation_p50_ms",
            "invocation_p5_ms",
            "invocation_p95_ms",
            "request_p50_ms",
            "request_p5_ms",
            "request_p95_ms",
        ],
        &csv,
    );
    println!("\nwrote {}", path.display());

    println!("\nshape checks against the paper:");
    let of = |name: &str| *medians.iter().find(|m| m.0 == name).unwrap();
    let rtt = MS_TM_RTT.as_secs_f64() * 1e3;
    let ms_side: Vec<f64> = medians.iter().map(|(_, _, inv, req)| req - inv).collect();
    shape_check(
        &format!(
            "request - invocation = the {rtt} ms MS-TM RTT + a measured MS side under 2 ms, every servable ({}..{} ms)",
            ms(ms_side.iter().copied().fold(f64::INFINITY, f64::min)),
            ms(ms_side.iter().copied().fold(f64::NEG_INFINITY, f64::max)),
        ),
        ms_side.iter().all(|gap| (rtt..rtt + 2.0).contains(gap)),
    );
    // The measured part of everything that is not the servable:
    // encode, queue, decode and the replica hand-off (the links are
    // the same constant for every servable).
    let links = (MS_TM_RTT + TM_CLUSTER_RTT).as_secs_f64() * 1e3;
    let overhead = |name: &str| {
        let (_, inference, _, request) = of(name);
        request - inference - links
    };
    shape_check(
        &format!(
            "higher overheads for Inception/CIFAR-10 (input transfer): measured request - inference {:.0} / {:.0} vs matminer util {:.0} us",
            overhead("inception") * 1e3,
            overhead("cifar10") * 1e3,
            overhead("matminer util") * 1e3
        ),
        overhead("inception") > overhead("matminer util")
            && overhead("cifar10") >= overhead("matminer util"),
    );
    shape_check(
        &format!(
            "inference ordering inception > cifar10 > matminer util ({} > {} > {} ms)",
            ms(of("inception").1),
            ms(of("cifar10").1),
            ms(of("matminer util").1)
        ),
        of("inception").1 > of("cifar10").1 && of("cifar10").1 > of("matminer util").1,
    );
}
