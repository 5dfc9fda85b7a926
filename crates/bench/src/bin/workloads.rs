//! Open-loop workload observatory: trace-driven load generation with
//! coordinated-omission-correct tail recording and per-scenario p999
//! attribution.
//!
//! Five seeded scenarios — steady Poisson, a diurnal cycle, an MMPP
//! burst storm, a Zipf fan-out over a large servable catalog, and a
//! multi-tenant mix with one hostile tenant — are each replayed
//! open-loop through a full in-process hub with the control loop
//! (autoscaling + admission) enabled. Every request is measured from
//! its *intended* start per the arrival schedule, so backlog behind a
//! slow service is charged to latency instead of silently deleting
//! the samples (coordinated omission); the uncorrected closed-loop
//! series is recorded side by side so the gap is visible. The traces
//! of the slowest requests are fed through the seven-stage analyzer
//! to answer, per scenario, *where the p999 comes from*.
//!
//! Environment knobs (CI smoke uses small values, the committed
//! artifact the defaults):
//!
//! - `WORKLOADS_MS`      window per scenario, ms (default 2500)
//! - `WORKLOADS_SEED`    master seed (default 7)
//! - `WORKLOADS_FANOUT`  catalog size for zipf-fanout (default 1200)
//! - `WORKLOADS_MIRROR`  `0` keeps smoke runs from clobbering the
//!   committed `BENCH_workloads.json`

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use dlhub_bench::openloop::{OpenLoopRecorder, OpenLoopReport, OpenLoopSample};
use dlhub_bench::report::{print_table, shape_check, write_json};
use dlhub_bench::time::SimTime;
use dlhub_bench::workload::{
    build_schedule, ArrivalProcess, DiurnalArrivals, LognormalSizes, MmppArrivals, PoissonArrivals,
    TenantMix, WorkloadSchedule, ZipfPopularity,
};
use dlhub_core::admission::AdmissionConfig;
use dlhub_core::autoscale::ControlPolicy;
use dlhub_core::error::DlhubError;
use dlhub_core::hub::TestHub;
use dlhub_core::obs::{analyze_all, StageNs, TraceAnalysis};
use dlhub_core::servable::{servable_fn, ModelType};
use dlhub_core::serving::ServingConfig;
use dlhub_core::value::Value;
use dlhub_queue::shard::ShardedRing;
use dlhub_sync::atomic::{AtomicU64, Ordering};
use dlhub_sync::thread;
use dlhub_sync::time::Instant;

/// Simulated inference cost: ns of busy work per payload byte. At
/// 4 ns/B a 512 KiB payload "infers" for ~2 ms, so heavy-tailed
/// payload sizes translate into heavy-tailed execute times.
const COST_NS_PER_BYTE: u64 = 4;

/// Cap on simulated execute time so a Pareto outlier cannot wedge a
/// replica for the whole window.
const COST_CAP_NS: u64 = 8_000_000;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The shared servable: spins for a time proportional to the payload
/// size, then returns an FNV hash of the bytes. The spin (not a
/// sleep) occupies the replica the way real inference would.
fn work_servable() -> Arc<dyn dlhub_core::Servable> {
    servable_fn(|input: &Value| {
        let bytes: &[u8] = match input {
            Value::Bytes(b) => b,
            _ => &[],
        };
        let cost = Duration::from_nanos((bytes.len() as u64 * COST_NS_PER_BYTE).min(COST_CAP_NS));
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for &b in bytes.iter().step_by(64) {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        let start = Instant::now();
        while start.elapsed() < cost {
            std::hint::spin_loop();
        }
        Ok(Value::Int(hash as i64))
    })
}

/// Payload-size sampler choices per scenario (all seeded).
#[derive(Clone, Copy)]
enum Payload {
    /// Lognormal(median, sigma), capped.
    Lognormal(f64, f64, u64),
}

impl Payload {
    fn sampler(self, seed: u64) -> LognormalSizes {
        match self {
            Payload::Lognormal(median, sigma, max) => LognormalSizes::new(median, sigma, max, seed),
        }
    }
}

/// One workload scenario: how requests arrive, what they hit, who
/// sends them, and how the hub is provisioned to receive them.
struct Scenario {
    name: &'static str,
    /// Human description of the arrival process, for the artifact.
    arrivals_desc: String,
    /// Fresh arrival process (callable twice: determinism check).
    arrivals: Box<dyn Fn() -> Box<dyn ArrivalProcess>>,
    /// Servable catalog size.
    catalog: usize,
    /// Zipf exponent for servable popularity.
    zipf: f64,
    /// Tenant usernames and their traffic weights.
    tenants: Vec<(&'static str, u32)>,
    /// Index into `tenants` of the hostile tenant, if any.
    hostile: Option<usize>,
    payload: Payload,
    /// Open-loop client threads draining the schedule.
    workers: usize,
    /// Admission cap (the control loop's shed knob).
    max_inflight: usize,
}

fn scenarios(horizon_secs: f64, fanout: usize) -> Vec<Scenario> {
    vec![
        Scenario {
            name: "steady-poisson",
            arrivals_desc: "poisson(400/s)".into(),
            arrivals: Box::new(|| Box::new(PoissonArrivals::new(400.0, 0x5001))),
            catalog: 8,
            zipf: 0.8,
            tenants: vec![("alice", 1)],
            hostile: None,
            payload: Payload::Lognormal(2048.0, 1.0, 128 * 1024),
            workers: 8,
            max_inflight: 256,
        },
        Scenario {
            name: "diurnal",
            arrivals_desc: format!("diurnal(base 300/s, amplitude 0.9, period {horizon_secs:.1}s)"),
            arrivals: Box::new(move || {
                Box::new(DiurnalArrivals::new(300.0, 0.9, horizon_secs, 0x5002))
            }),
            catalog: 8,
            zipf: 0.8,
            tenants: vec![("alice", 1)],
            hostile: None,
            payload: Payload::Lognormal(2048.0, 1.0, 128 * 1024),
            workers: 8,
            max_inflight: 256,
        },
        Scenario {
            name: "bursty",
            arrivals_desc: "mmpp(calm 80/s x 0.4s, burst 1500/s x 0.15s)".into(),
            arrivals: Box::new(|| Box::new(MmppArrivals::new(80.0, 1500.0, 0.4, 0.15, 0x5003))),
            catalog: 2,
            zipf: 1.0,
            tenants: vec![("alice", 1)],
            hostile: None,
            // Median ~512 KiB -> ~2 ms execute: bursts outrun the
            // initial replica capacity and pile real backlog onto the
            // generator, which is exactly what the corrected series
            // must not hide.
            payload: Payload::Lognormal(512.0 * 1024.0, 0.5, 1024 * 1024),
            workers: 8,
            max_inflight: 256,
        },
        Scenario {
            name: "zipf-fanout",
            arrivals_desc: format!("poisson(500/s) over {fanout} servables, zipf 1.1"),
            arrivals: Box::new(|| Box::new(PoissonArrivals::new(500.0, 0x5004))),
            catalog: fanout,
            zipf: 1.1,
            tenants: vec![("alice", 1)],
            hostile: None,
            payload: Payload::Lognormal(1024.0, 0.8, 64 * 1024),
            workers: 16,
            max_inflight: 256,
        },
        Scenario {
            name: "hostile-tenant",
            arrivals_desc: "poisson(900/s), tenants alice:2 bob:2 mallory:12".into(),
            arrivals: Box::new(|| Box::new(PoissonArrivals::new(900.0, 0x5005))),
            catalog: 4,
            zipf: 0.9,
            tenants: vec![("alice", 2), ("bob", 2), ("mallory", 12)],
            hostile: Some(2),
            payload: Payload::Lognormal(64.0 * 1024.0, 0.6, 256 * 1024),
            // Far more clients than admission slots: the weighted-fair
            // shed rule, not client parallelism, decides who gets in.
            workers: 48,
            max_inflight: 16,
        },
    ]
}

/// Build the seeded schedule for a scenario over `horizon`.
fn schedule_for(sc: &Scenario, seed: u64, horizon: SimTime) -> WorkloadSchedule {
    let mut arrivals = (sc.arrivals)();
    let mut popularity = ZipfPopularity::new(sc.catalog, sc.zipf, seed ^ 0xa11ce);
    let weights: Vec<u32> = sc.tenants.iter().map(|&(_, w)| w).collect();
    let mut tenants = TenantMix::new(&weights, seed ^ 0x7e4a47);
    let mut payloads = sc.payload.sampler(seed ^ 0xbeef);
    build_schedule(
        arrivals.as_mut(),
        horizon,
        move || popularity.sample(),
        move || tenants.sample(),
        move || payloads.sample(),
    )
}

/// Everything one scenario run produced.
struct Outcome {
    recorder: Arc<OpenLoopRecorder>,
    report: OpenLoopReport,
    shed_by_tenant: Vec<u64>,
    sent_by_tenant: Vec<u64>,
    errors: u64,
    cold_starts: u64,
    /// Stage attribution over every completed request.
    overall: StageNs,
    overall_total_ns: u64,
    /// Stage attribution over the slowest (by corrected latency)
    /// requests — the tail the p999 lives in.
    tail: StageNs,
    tail_total_ns: u64,
    tail_requests: usize,
    tail_threshold_ns: u64,
}

/// Replay `schedule` open-loop against a fresh hub provisioned for
/// the scenario, then attribute the tail.
fn run_scenario(sc: &Scenario, schedule: &WorkloadSchedule) -> Outcome {
    let policy = ControlPolicy {
        min_replicas: 1,
        max_replicas: 8,
        min_samples: 3,
        cooldown: Duration::from_millis(200),
        idle_after: Duration::from_millis(1500),
        warm_pool: 0,
        signal_window: Duration::from_secs(2),
        ..ControlPolicy::default()
    };
    let config = ServingConfig {
        memo_enabled: false,
        autoscale: Some(policy),
        control_interval: Duration::from_millis(100),
        admission: Some(AdmissionConfig {
            max_inflight: sc.max_inflight,
            fair_share_at: 0.25,
            signal_window: Duration::from_secs(2),
            ..AdmissionConfig::default()
        }),
        ..ServingConfig::default()
    };
    let hub = TestHub::builder()
        .without_eval_servables()
        .consumers(8)
        .config(config)
        .build();

    let names: Vec<String> = (0..sc.catalog)
        .map(|i| {
            hub.publish_simple(
                &format!("wl-{i}"),
                ModelType::PythonFunction,
                work_servable(),
            )
        })
        .collect();
    let tokens: Vec<_> = sc
        .tenants
        .iter()
        .map(|&(user, _)| hub.user_token(user))
        .collect();

    let recorder = Arc::new(OpenLoopRecorder::new());
    let shed: Vec<AtomicU64> = sc.tenants.iter().map(|_| AtomicU64::new(0)).collect();
    let shed = Arc::new(shed);
    let errors = Arc::new(AtomicU64::new(0));
    let mut sent_by_tenant = vec![0u64; sc.tenants.len()];

    let queue = Arc::new(ShardedRing::<(u64, usize, usize, u64)>::new());
    let epoch = Instant::now();

    let workers: Vec<_> = (0..sc.workers)
        .map(|_| {
            let queue = Arc::clone(&queue);
            let service = Arc::clone(&hub.service);
            let names = names.clone();
            let tokens = tokens.clone();
            let recorder = Arc::clone(&recorder);
            let shed = Arc::clone(&shed);
            let errors = Arc::clone(&errors);
            thread::spawn(move || {
                while let Some((_, (intended_ns, servable, tenant, payload_bytes))) =
                    queue.claim(None)
                {
                    let started_ns = epoch.elapsed().as_nanos() as u64;
                    let payload = vec![0xA5u8; payload_bytes as usize];
                    match service.run(&tokens[tenant], &names[servable], Value::Bytes(payload)) {
                        Ok(res) => {
                            let completed_ns = epoch.elapsed().as_nanos() as u64;
                            recorder.record(OpenLoopSample {
                                intended_ns,
                                started_ns,
                                completed_ns,
                                trace: res.trace,
                            });
                        }
                        Err(DlhubError::Overloaded { .. }) => {
                            shed[tenant].fetch_add(1, Ordering::Relaxed);
                        }
                        Err(_) => {
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            })
        })
        .collect();

    // The dispatcher IS the open loop: requests are released at their
    // scheduled instants no matter how the service is doing. A slow
    // service grows the queue's backlog, and that wait is charged to
    // the corrected latency via the intended-start stamp.
    for spec in &schedule.requests {
        let target = Duration::from_nanos(spec.at.0);
        loop {
            let now = epoch.elapsed();
            if now >= target {
                break;
            }
            thread::sleep((target - now).min(Duration::from_millis(1)));
        }
        sent_by_tenant[spec.tenant] += 1;
        queue.force_reserve();
        queue.push_back((spec.at.0, spec.servable, spec.tenant, spec.payload_bytes));
    }
    queue.close();
    for w in workers {
        w.join().expect("worker");
    }

    let cold_starts = hub.service.obs().metrics.histogram("cold_start_ns").count();
    let report = recorder.report().expect("scenario completed zero requests");

    // Tail attribution: analyze every trace once, then aggregate the
    // stage vectors of (a) all completed requests and (b) the slowest
    // ~0.5% by corrected latency (at least 5), whose traces explain
    // where the p999 comes from.
    let export = hub.service.obs().tracer.export(None);
    let by_trace: HashMap<u64, TraceAnalysis> = analyze_all(&export)
        .into_iter()
        .map(|a| (a.trace, a))
        .collect();
    let samples = recorder.samples();
    let completed: Vec<&TraceAnalysis> = samples
        .iter()
        .filter_map(|s| by_trace.get(&s.trace))
        .collect();
    let overall = sum_stages(&completed);
    let overall_total_ns = completed.iter().map(|a| a.total_ns).sum();

    let tail_n = (samples.len() / 200).max(5).min(samples.len());
    let slowest = recorder.slowest(tail_n);
    let tail_threshold_ns = slowest.last().map(|s| s.corrected_ns()).unwrap_or(0);
    let tail_traces: Vec<&TraceAnalysis> = slowest
        .iter()
        .filter_map(|s| by_trace.get(&s.trace))
        .collect();
    let tail = sum_stages(&tail_traces);
    let tail_total_ns = tail_traces.iter().map(|a| a.total_ns).sum();

    Outcome {
        recorder,
        report,
        shed_by_tenant: shed.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
        sent_by_tenant,
        errors: errors.load(Ordering::Relaxed),
        cold_starts,
        overall,
        overall_total_ns,
        tail,
        tail_total_ns,
        tail_requests: tail_traces.len(),
        tail_threshold_ns,
    }
}

/// Aggregate stage vectors across analyses (local copy of the CLI's
/// aggregation so the artifact carries plain numbers).
fn sum_stages(analyses: &[&TraceAnalysis]) -> StageNs {
    let mut out: StageNs = Vec::new();
    for a in analyses {
        for &(stage, ns) in &a.stages {
            match out.iter_mut().find(|(s, _)| *s == stage) {
                Some((_, v)) => *v += ns,
                None => out.push((stage, ns)),
            }
        }
    }
    out
}

fn stages_json(stages: &StageNs, total_ns: u64) -> serde_json::Value {
    let rows: Vec<serde_json::Value> = stages
        .iter()
        .map(|&(stage, ns)| {
            let pct = if total_ns > 0 {
                ns as f64 * 100.0 / total_ns as f64
            } else {
                0.0
            };
            serde_json::json!({ "stage": stage.name(), "ns": ns, "pct": pct })
        })
        .collect();
    serde_json::Value::Array(rows)
}

/// The stage with the largest share of a vector, for the table.
fn dominant(stages: &StageNs) -> String {
    stages
        .iter()
        .max_by_key(|&&(_, ns)| ns)
        .map(|&(s, ns)| format!("{} ({})", s.name(), fmt_ns(ns)))
        .unwrap_or_else(|| "-".into())
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else {
        format!("{:.0}us", ns as f64 / 1e3)
    }
}

fn main() {
    let window_ms = env_u64("WORKLOADS_MS", 2500);
    let seed = env_u64("WORKLOADS_SEED", 7);
    let fanout = env_u64("WORKLOADS_FANOUT", 1200) as usize;
    let horizon = SimTime(window_ms * 1_000_000);
    let horizon_secs = window_ms as f64 / 1000.0;

    println!("workloads: window {window_ms}ms, seed {seed}, fanout {fanout}");

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut scenario_docs: Vec<serde_json::Value> = Vec::new();
    let mut by_name: HashMap<&'static str, (u64, Outcome)> = HashMap::new();

    for sc in scenarios(horizon_secs, fanout) {
        // Build the schedule twice: the fingerprint equality IS the
        // reproducibility claim ("byte-identical schedule per seed").
        let schedule = schedule_for(&sc, seed, horizon);
        let replay = schedule_for(&sc, seed, horizon);
        let fp = schedule.fingerprint();
        shape_check(
            &format!(
                "{}: schedule is byte-identical per seed (fingerprint {fp:#018x}, {} requests)",
                sc.name,
                schedule.len()
            ),
            fp == replay.fingerprint() && !schedule.is_empty(),
        );

        println!(
            "\n-- {} ({}; {} requests over {window_ms}ms) --",
            sc.name,
            sc.arrivals_desc,
            schedule.len()
        );
        let outcome = run_scenario(&sc, &schedule);
        let report = &outcome.report;
        let completed = outcome.recorder.count();
        let shed_total: u64 = outcome.shed_by_tenant.iter().sum();

        rows.push(vec![
            sc.name.to_string(),
            schedule.len().to_string(),
            completed.to_string(),
            shed_total.to_string(),
            outcome.cold_starts.to_string(),
            fmt_ns(report.corrected.p50),
            fmt_ns(report.corrected.p99),
            fmt_ns(report.corrected.p999),
            fmt_ns(report.gap_p99_ns()),
            dominant(&outcome.tail),
        ]);

        let tenants_json: Vec<serde_json::Value> = sc
            .tenants
            .iter()
            .enumerate()
            .map(|(i, &(user, weight))| {
                serde_json::json!({
                    "tenant": user,
                    "weight": weight,
                    "hostile": sc.hostile == Some(i),
                    "sent": outcome.sent_by_tenant[i],
                    "shed": outcome.shed_by_tenant[i],
                })
            })
            .collect();

        scenario_docs.push(serde_json::json!({
            "name": sc.name,
            "arrivals": sc.arrivals_desc,
            "catalog": sc.catalog,
            "zipf_exponent": sc.zipf,
            "workers": sc.workers,
            "max_inflight": sc.max_inflight,
            "schedule_fingerprint": format!("{fp:#018x}"),
            "scheduled": schedule.len(),
            "completed": completed,
            "shed": shed_total,
            "errors": outcome.errors,
            "cold_starts": outcome.cold_starts,
            "tenants": tenants_json,
            "open_loop": report.to_json(),
            "attribution": {
                "overall": {
                    "requests": outcome.recorder.count(),
                    "total_ns": outcome.overall_total_ns,
                    "stages": stages_json(&outcome.overall, outcome.overall_total_ns),
                },
                "tail": {
                    "requests": outcome.tail_requests,
                    "threshold_corrected_ns": outcome.tail_threshold_ns,
                    "total_ns": outcome.tail_total_ns,
                    "stages": stages_json(&outcome.tail, outcome.tail_total_ns),
                },
            },
        }));
        by_name.insert(sc.name, (shed_total, outcome));
    }

    print_table(
        "Open-loop workload observatory (corrected = from intended start)",
        &[
            "scenario",
            "sched",
            "done",
            "shed",
            "cold",
            "p50",
            "p99",
            "p999",
            "co-gap p99",
            "tail dominated by",
        ],
        &rows,
    );

    // Shape checks: the qualitative claims the artifact exists to
    // make, asserted on the numbers just measured.
    for (name, (_, outcome)) in &by_name {
        let r = &outcome.report;
        shape_check(
            &format!(
                "{name}: corrected quantiles are monotone (p50 {} <= p99 {} <= p999 {})",
                fmt_ns(r.corrected.p50),
                fmt_ns(r.corrected.p99),
                fmt_ns(r.corrected.p999)
            ),
            r.corrected.p50 <= r.corrected.p99 && r.corrected.p99 <= r.corrected.p999,
        );
        shape_check(
            &format!(
                "{name}: corrected p99 >= uncorrected p99 (gap {})",
                fmt_ns(r.gap_p99_ns())
            ),
            r.corrected.p99 >= r.uncorrected.p99,
        );
    }
    if let Some((_, bursty)) = by_name.get("bursty") {
        let r = &bursty.report;
        shape_check(
            &format!(
                "bursty: coordinated omission visible — corrected p99 {} > uncorrected p99 {}",
                fmt_ns(r.corrected.p99),
                fmt_ns(r.uncorrected.p99)
            ),
            r.corrected.p99 > r.uncorrected.p99,
        );
    }
    if let Some((_, zipf)) = by_name.get("zipf-fanout") {
        shape_check(
            &format!(
                "zipf-fanout: cold starts from the long catalog tail ({} cold starts)",
                zipf.cold_starts
            ),
            zipf.cold_starts >= (fanout as u64) / 50,
        );
    }
    if let Some((shed_total, hostile)) = by_name.get("hostile-tenant") {
        let mallory = hostile.shed_by_tenant[2];
        let polite = hostile.shed_by_tenant[0] + hostile.shed_by_tenant[1];
        shape_check(
            &format!(
                "hostile-tenant: shedding lands on the hostile tenant (mallory {mallory} vs alice+bob {polite}, total {shed_total})"
            ),
            *shed_total > 0 && mallory > polite,
        );
    }

    let doc = serde_json::json!({
        "bench": "workloads",
        "window_ms": window_ms,
        "seed": seed,
        "fanout": fanout,
        "cost_ns_per_byte": COST_NS_PER_BYTE,
        "scenarios": scenario_docs,
    });
    let path = write_json("BENCH_workloads.json", &doc);
    // Mirror next to the code unless a smoke run says otherwise.
    let mirror = std::env::var("WORKLOADS_MIRROR").map_or(true, |v| v != "0");
    if mirror {
        let root_copy = std::path::Path::new("BENCH_workloads.json");
        std::fs::copy(&path, root_copy).expect("copy BENCH_workloads.json");
        println!(
            "wrote {} (mirrored to {})",
            path.display(),
            root_copy.display()
        );
    } else {
        println!("wrote {} (mirror disabled)", path.display());
    }
}
