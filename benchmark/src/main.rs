//! The repo benchmark. See `benchmark/README.md` for what is measured
//! and why; `BENCHMARK.json` at the repo root is the contract.
//!
//! ```text
//! dlhub-benchmark --workload W --seed N --seconds S --trace 0|1 [--quick]
//! dlhub-benchmark run   [--seed N] [--seconds S] [--quick]
//! dlhub-benchmark check [--seed N] [--seconds S] [--quick]
//! ```
//!
//! The first form measures one workload in this process and prints one
//! JSON object as its last line: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. `run` re-executes
//! the binary once per workload and trace mode (fresh process, fresh
//! hub, so `peak_rss_mb` is per workload) and prints every metric;
//! `check` does the end-to-end set twice and fails on any metric that
//! moved by more than its bound.

mod host;
mod inputs;
mod ladder;
mod measure;
mod spans;
mod stats;
mod workload;

use inputs::Workload;
use measure::Measured;
use stats::ratio;
use std::process::{Command, ExitCode, Stdio};

/// The contract file, for the bounds `check` enforces.
const CONTRACT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

/// `(name, unit)` of every end-to-end metric, as in BENCHMARK.json.
const END_TO_END: [(&str, &str); 5] = [
    ("throughput_rps", "ops/s"),
    ("latency_p50_us", "us"),
    ("latency_p90_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric, as in BENCHMARK.json. A
/// metric that does not apply to a workload (`op.pipeline_p50_us` on
/// `noop-dispatch`) reads 0.
const PER_LAYER: [(&str, &str); 52] = [
    // Ladder: direct calls into each layer, p50.
    ("task.codec_p50_us", "us"),
    ("task.wire_bytes", "B"),
    ("memo.key_p50_us", "us"),
    ("memo.get_hit_p50_us", "us"),
    ("memo.put_evict_p50_us", "us"),
    ("shard.push_claim_p50_us", "us"),
    ("broker.send_recv_ack_p50_us", "us"),
    ("rpc.roundtrip_p50_us", "us"),
    ("servable.run_p50_us", "us"),
    ("tensor.cifar10_forward_p50_us", "us"),
    ("tensor.inception_forward_p50_us", "us"),
    ("executor.execute_p50_us", "us"),
    ("task_manager.roundtrip_p50_us", "us"),
    ("serving.run_p50_us", "us"),
    ("executor.self_p50_us", "us"),
    ("task_manager.self_p50_us", "us"),
    ("serving.self_p50_us", "us"),
    ("ladder.vs_live_ratio", "ratio"),
    // Traced 1-client run: program-reported nested durations.
    ("serving.reported_request_p50_us", "us"),
    ("task_manager.reported_invocation_p50_us", "us"),
    ("executor.reported_inference_p50_us", "us"),
    ("share.serving_queue", "ratio"),
    ("share.task_manager_executor", "ratio"),
    ("share.servable", "ratio"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("bench.spans_recorded", "count"),
    // Counters and splits over the timed 2-client windows.
    ("memo.hit_ratio", "ratio"),
    ("memo.evictions_per_kop", "1/kop"),
    ("broker.mean_wait_us", "us"),
    ("broker.redelivered", "count"),
    ("broker.dropped", "count"),
    ("broker.dead_lettered", "count"),
    ("executor.dispatched_per_op", "1/op"),
    ("client.unloaded_p50_us", "us"),
    ("client.unloaded_p90_us", "us"),
    ("client.unloaded_rps", "ops/s"),
    ("client.loaded_p99_us", "us"),
    ("client.scaling_2c_over_1c", "ratio"),
    ("process.cpu_us_per_op", "us"),
    ("op.run_p50_us", "us"),
    ("op.pipeline_p50_us", "us"),
    ("op.batch_p50_us", "us"),
    ("op.async_p50_us", "us"),
    ("op.hit_p50_us", "us"),
    ("op.miss_p50_us", "us"),
    ("window.throughput_median_rps", "ops/s"),
    ("window.p50_median_us", "us"),
    ("window.p90_median_us", "us"),
    ("window.throughput_spread", "ratio"),
    ("window.p50_spread", "ratio"),
    ("window.p90_spread", "ratio"),
    ("host.steal_share", "ratio"),
];

/// Print every metric of `table` by name with its unit, and return the
/// contract's result line.
fn result_json(measured: &Measured, table: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let value = measured
                .metrics
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"))
                .1;
            println!("{name:<44} {value:>16.4} {unit}");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        measured.failed == 0,
        measured.attempted.max(1),
        measured.failed,
        metrics.join(", ")
    )
}

struct Args {
    command: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        command: None,
        workload: None,
        seed: 7,
        seconds: 20.0,
        trace: false,
        quick: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => args.quick = true,
            "run" | "check" if args.command.is_none() => args.command = Some(arg),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Re-execute this binary for one workload and trace mode; returns the
/// parsed result line.
fn child(args: &Args, workload: Workload, trace: bool) -> Result<serde_json::Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if args.quick {
        command.arg("--quick");
    }
    let output = command.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    if !output.status.success() {
        return Err(format!("{} exited with {}", workload.name(), output.status));
    }
    let last = stdout.lines().last().unwrap_or_default();
    serde_json::from_str(last).map_err(|e| format!("{}: bad result line: {e}", workload.name()))
}

/// `run`: every workload, both trace modes. Fails if any op failed.
fn run_all(args: &Args) -> Result<(), String> {
    let mut failed = 0;
    for workload in Workload::ALL {
        for trace in [false, true] {
            let result = child(args, workload, trace)?;
            failed += result["failed"].as_u64().unwrap_or(1);
        }
    }
    if failed > 0 {
        return Err(format!("{failed} ops failed"));
    }
    Ok(())
}

/// `check`: the end-to-end set twice; every metric × workload must
/// agree within the bound BENCHMARK.json gives it.
fn check(args: &Args) -> Result<(), String> {
    let text = std::fs::read_to_string(CONTRACT).map_err(|e| format!("{CONTRACT}: {e}"))?;
    let contract: serde_json::Value =
        serde_json::from_str(&text).map_err(|e| format!("{CONTRACT}: {e}"))?;
    let bounds = contract["end_to_end"]
        .as_array()
        .ok_or("BENCHMARK.json: no end_to_end")?;
    let mut sets = Vec::new();
    for _ in 0..2 {
        let mut set = Vec::new();
        for workload in Workload::ALL {
            set.push(child(args, workload, false)?);
        }
        sets.push(set);
    }
    let mut breaches = 0;
    println!(
        "\n{:<16} {:<16} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "rel.diff", "bound"
    );
    for (w, workload) in Workload::ALL.iter().enumerate() {
        for entry in bounds {
            let name = entry["name"]
                .as_str()
                .ok_or("BENCHMARK.json: unnamed metric")?;
            let bound = entry["bound"].as_f64().ok_or("BENCHMARK.json: no bound")?;
            let value = |set: &Vec<serde_json::Value>| set[w]["metrics"][name]["value"].as_f64();
            let (Some(first), Some(second)) = (value(&sets[0]), value(&sets[1])) else {
                return Err(format!("{} did not report {name}", workload.name()));
            };
            let diff = ratio((second - first).abs(), first.abs());
            let verdict = if diff > bound { "BREACH" } else { "" };
            breaches += usize::from(diff > bound);
            println!(
                "{:<16} {name:<16} {first:>14.3} {second:>14.3} {diff:>9.4} {bound:>7.2} {verdict}",
                workload.name()
            );
        }
        let failed = |set: &Vec<serde_json::Value>| set[w]["failed"].as_u64().unwrap_or(1);
        if failed(&sets[0]) + failed(&sets[1]) > 0 {
            println!("{:<16} failed ops", workload.name());
            breaches += 1;
        }
    }
    if breaches > 0 {
        return Err(format!("{breaches} breaches"));
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\nusage: dlhub-benchmark (--workload W | run | check) [--seed N] [--seconds S] [--trace 0|1] [--quick]");
            return ExitCode::from(2);
        }
    };
    let outcome = match (args.command.as_deref(), args.workload.as_deref()) {
        (Some("run"), None) => run_all(&args),
        (Some("check"), None) => check(&args),
        (None, Some(name)) => match Workload::parse(name) {
            Some(workload) => {
                let measured =
                    measure::run(workload, args.seed, args.seconds, args.trace, args.quick);
                let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
                println!("{}", result_json(&measured, table));
                Ok(())
            }
            None => Err(format!("unknown workload {name}")),
        },
        _ => Err("give either --workload or one of run, check".into()),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// BENCHMARK.json and the tables above must name the same metrics,
    /// with the same units, and the same workloads.
    #[test]
    fn contract_file_matches_what_the_program_reports() {
        let text = std::fs::read_to_string(CONTRACT).unwrap();
        let contract: serde_json::Value = serde_json::from_str(&text).unwrap();
        let listed = |key: &str, field: &str| -> Vec<String> {
            contract[key]
                .as_array()
                .unwrap()
                .iter()
                .map(|e| e[field].as_str().unwrap().to_string())
                .collect()
        };
        let pairs = |table: &[(&str, &str)], i: usize| -> Vec<String> {
            table.iter().map(|t| [t.0, t.1][i].to_string()).collect()
        };
        assert_eq!(listed("end_to_end", "name"), pairs(&END_TO_END, 0));
        assert_eq!(listed("end_to_end", "unit"), pairs(&END_TO_END, 1));
        assert_eq!(listed("per_layer", "name"), pairs(&PER_LAYER, 0));
        assert_eq!(listed("per_layer", "unit"), pairs(&PER_LAYER, 1));
        let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(listed("workloads", "name"), workloads);
    }
}
