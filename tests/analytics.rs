//! Trace-analytics suite: stage-level latency attribution and SLO
//! burn-rate alerting against the full DLHub stack.
//!
//! Three contracts:
//!
//! * **Exact attribution** — for every evaluation servable (and the
//!   matminer pipeline), reconstructing a request's span tree and
//!   decomposing it into named stages yields numbers that sum exactly
//!   to the root's wall time, which itself matches the latency the
//!   client observed to within scheduling noise.
//! * **Exemplar linkage** — the trace id retained in a latency
//!   histogram bucket resolves to a complete span tree whose
//!   decomposition matches the latency that landed in that bucket.
//! * **Alert fidelity** — under seeded replica slow/hang faults the
//!   SLO engine raises alerts (burn rate over threshold in both
//!   windows); on a clean run with the same objectives it stays
//!   silent. Seeds follow the chaos suite (`CHAOS_SEED` narrows).

use dlhub_core::fault::{site, FaultHandle, FaultKind, FaultPlan, FaultSpec};
use dlhub_core::hub::{TestHub, TestHubBuilder};
use dlhub_core::obs::{SloSpec, Stage, TraceAnalysis};
use dlhub_core::pipeline::Pipeline;
use dlhub_core::serving::ServingConfig;
use dlhub_core::value::Value;
use std::time::Duration;

/// Absolute slack between a span tree's total and the client-measured
/// request latency. The two clocks bracket the same work a few
/// instructions apart, so anything near this bound is a real bug.
const EPSILON: Duration = Duration::from_millis(15);

fn seeds() -> Vec<u64> {
    match std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
    {
        Some(seed) => vec![seed],
        None => vec![7, 1848, 3141],
    }
}

/// Drive all six evaluation servables (the matminer steps chain, each
/// consuming the previous step's output) and return each request's
/// `(servable, RunResult)`.
fn six_servable_results(hub: &TestHub) -> Vec<(&'static str, dlhub_core::serving::RunResult)> {
    let image = |shape, variant| {
        Value::from_tensor(&dlhub_core::tensor::models::synthetic_image(shape, variant))
    };
    let run = |id: &'static str, input: Value| {
        let result = hub.service.run(&hub.token, id, input).expect(id);
        (id, result)
    };
    let mut results = vec![
        run("dlhub/noop", Value::Null),
        run(
            "dlhub/inception",
            image(&dlhub_core::tensor::models::INCEPTION_INPUT, 1),
        ),
        run(
            "dlhub/cifar10",
            image(&dlhub_core::tensor::models::CIFAR10_INPUT, 1),
        ),
        run("dlhub/matminer-util", Value::Str("NaCl".into())),
    ];
    let parsed = results.last().unwrap().1.value.clone();
    results.push(run("dlhub/matminer-featurize", parsed));
    let feats = results.last().unwrap().1.value.clone();
    results.push(run("dlhub/matminer-model", feats));
    results
}

fn assert_exact_partition(analysis: &TraceAnalysis, label: &str) {
    assert!(analysis.complete, "{label}: span tree incomplete");
    assert_eq!(
        analysis.stage_sum(),
        analysis.total_ns,
        "{label}: stages must sum exactly to the root's wall time"
    );
    for request in &analysis.requests {
        let sum: u64 = request.stages.iter().map(|(_, ns)| ns).sum();
        assert_eq!(
            sum, request.total_ns,
            "{label}: per-request stages must sum to the request total"
        );
    }
}

#[test]
fn stage_decomposition_sums_to_observed_latency_on_every_eval_servable() {
    let hub = TestHub::builder().memo(false).build();
    for (id, result) in six_servable_results(&hub) {
        let analysis = hub
            .service
            .obs()
            .analyze(result.trace)
            .unwrap_or_else(|| panic!("{id}: no analysis for trace {:#x}", result.trace));
        assert_exact_partition(&analysis, id);
        assert_eq!(analysis.kind, "request", "{id}");
        let observed = result.timings.request.as_nanos() as u64;
        let drift = analysis.total_ns.abs_diff(observed);
        assert!(
            drift <= EPSILON.as_nanos() as u64,
            "{id}: span total {}ns vs client-observed {observed}ns (drift {drift}ns)",
            analysis.total_ns
        );
        // A dispatched request must attribute real executor time.
        let execute = analysis
            .stages
            .iter()
            .find(|(s, _)| *s == Stage::Execute)
            .map(|(_, ns)| *ns)
            .unwrap_or(0);
        assert!(execute > 0, "{id}: no execute stage attributed");
    }
}

#[test]
fn pipeline_decomposition_attributes_every_step() {
    let hub = TestHub::builder().memo(false).build();
    let pipeline = Pipeline::new(
        "formation-enthalpy",
        vec![
            "dlhub/matminer-util".into(),
            "dlhub/matminer-featurize".into(),
            "dlhub/matminer-model".into(),
        ],
    );
    hub.service.register_pipeline(&hub.token, pipeline).unwrap();
    let (_, steps, trace) = hub
        .service
        .run_pipeline_traced(&hub.token, "formation-enthalpy", Value::Str("SiO2".into()))
        .unwrap();
    let analysis = hub.service.obs().analyze(trace).expect("pipeline analysis");
    assert_eq!(analysis.kind, "pipeline");
    assert_eq!(analysis.servable, "formation-enthalpy");
    assert_eq!(analysis.requests.len(), steps.len());
    assert_exact_partition(&analysis, "pipeline");
    // Steps appear in execution order, each row read from its inference
    // span and matching the invocation the Task Manager reported for
    // that step (from the step before's answer to its own).
    for (breakdown, step) in analysis.requests.iter().zip(&steps) {
        assert_eq!(breakdown.servable, step.servable);
        let observed = step.timings.invocation.as_nanos() as u64;
        let drift = breakdown.total_ns.abs_diff(observed);
        assert!(
            drift <= EPSILON.as_nanos() as u64,
            "{}: step total {}ns vs observed {observed}ns",
            step.servable,
            breakdown.total_ns
        );
        let execute = breakdown
            .stages
            .iter()
            .find(|(s, _)| *s == Stage::Execute)
            .map_or(0, |(_, ns)| *ns);
        assert!(execute > 0, "{}: no execute stage", step.servable);
    }
    // The rows sit inside the one frame, whose total is the request
    // the steps' timings share out.
    let rows: u64 = analysis.requests.iter().map(|r| r.total_ns).sum();
    assert!(rows <= analysis.total_ns);
    let request: Duration = steps.iter().map(|s| s.timings.request).sum();
    let drift = analysis.total_ns.abs_diff(request.as_nanos() as u64);
    assert!(
        drift <= EPSILON.as_nanos() as u64,
        "frame vs steps: {drift}ns"
    );
}

#[test]
fn cache_hits_attribute_memo_lookup_without_executor_stages() {
    let hub = TestHub::builder().memo(true).build();
    let input = Value::Str("NaCl".into());
    hub.service
        .run(&hub.token, "dlhub/matminer-util", input.clone())
        .unwrap();
    let hit = hub
        .service
        .run(&hub.token, "dlhub/matminer-util", input)
        .unwrap();
    let analysis = hub.service.obs().analyze(hit.trace).expect("hit analysis");
    assert_exact_partition(&analysis, "cache hit");
    let breakdown = &analysis.requests[0];
    assert!(breakdown.cache_hit);
    let stage = |s: Stage| {
        breakdown
            .stages
            .iter()
            .find(|(k, _)| *k == s)
            .map(|(_, ns)| *ns)
            .unwrap_or(0)
    };
    assert!(stage(Stage::MemoLookup) > 0, "hit must show lookup time");
    assert_eq!(stage(Stage::Execute), 0);
    assert_eq!(stage(Stage::BrokerWait), 0);
}

#[test]
fn p99_bucket_exemplar_resolves_to_a_matching_span_tree() {
    let hub = TestHub::builder().memo(false).build();
    let mut observed = std::collections::HashMap::new();
    let mut latencies = Vec::new();
    for i in 0..40 {
        let result = hub
            .service
            .run(&hub.token, "dlhub/noop", Value::Int(i))
            .unwrap();
        observed.insert(result.trace, result.timings.request.as_nanos() as u64);
        latencies.push(result.timings.request.as_nanos() as u64);
    }
    latencies.sort_unstable();
    let p99 = latencies[(latencies.len() - 1) * 99 / 100];
    let snap = hub.service.obs().snapshot();
    let (_, series) = snap
        .servables
        .iter()
        .find(|(id, _)| id == "dlhub/noop")
        .expect("noop series");
    // The bucket containing p99 must have retained exemplars; the
    // histogram saw every one of our requests and nothing else.
    let buckets = series.request_latency.le_buckets();
    let bucket = buckets
        .iter()
        .filter(|b| b.count > 0 && !b.exemplars.is_empty())
        .find(|b| b.bound >= p99)
        .expect("p99 bucket retains an exemplar");
    let trace = *bucket.exemplars.last().unwrap();
    let recorded = *observed
        .get(&trace)
        .expect("exemplar trace id comes from this run's traffic");
    let analysis = hub
        .service
        .obs()
        .analyze(trace)
        .expect("exemplar resolves to a span tree");
    assert_exact_partition(&analysis, "exemplar");
    let drift = analysis.total_ns.abs_diff(recorded);
    assert!(
        drift <= EPSILON.as_nanos() as u64,
        "exemplar trace {trace:#x}: decomposition {}ns vs recorded {recorded}ns",
        analysis.total_ns
    );
}

/// An objective tight enough that a 200ms injected stall breaches it
/// on every request, while the clean in-process path stays far under.
fn tight_slo() -> SloSpec {
    SloSpec::new("dlhub/noop", Duration::from_millis(100))
        .latency_objective(0.9)
        .windows(Duration::from_millis(200), Duration::from_secs(2))
        .burn_threshold(2.0)
}

fn slo_hub(faults: FaultHandle) -> TestHubBuilder {
    TestHub::builder()
        .memo(false)
        .faults(faults)
        .config(ServingConfig {
            request_timeout: Duration::from_secs(3),
            request_deadline: Duration::from_secs(12),
            max_retries: 3,
            retry_backoff: Duration::from_millis(2),
            retry_execution_errors: true,
            ..ServingConfig::default()
        })
        .slo(tight_slo())
}

fn alerts_fired(hub: &TestHub) -> u64 {
    hub.service
        .obs()
        .snapshot()
        .slos
        .iter()
        .find(|s| s.servable == "dlhub/noop")
        .map(|s| s.alerts_fired)
        .unwrap_or(0)
}

#[test]
fn slow_replicas_burn_the_latency_budget_and_fire_the_alert() {
    for seed in seeds() {
        let faults = FaultPlan::seeded(seed)
            .inject(
                site::REPLICA,
                FaultSpec::new(FaultKind::Slow).delay(Duration::from_millis(200)),
            )
            .build();
        let hub = slo_hub(faults).build();
        for i in 0..6 {
            hub.service
                .run(&hub.token, "dlhub/noop", Value::Int(i))
                .expect("slow, not broken");
        }
        assert!(
            alerts_fired(&hub) >= 1,
            "seed {seed}: sustained 200ms stalls against a 100ms objective must fire"
        );
        let events = hub.service.obs().tracer.export(None);
        let alerts = events.named("slo_alert");
        assert!(!alerts.is_empty(), "seed {seed}: alert event missing");
        assert_eq!(alerts[0].attr("servable"), Some("dlhub/noop"));
        assert_eq!(alerts[0].attr("state"), Some("firing"));
        assert_eq!(alerts[0].attr("objective"), Some("latency"));
    }
}

#[test]
fn hung_replicas_fire_the_alert_through_retries() {
    for seed in seeds() {
        // Hangs blow the executor reply timeout; attempts retry and
        // requests resolve slow (or exhausted) — either way the SLO
        // engine must notice.
        let faults = FaultPlan::seeded(seed)
            .inject(
                site::REPLICA,
                FaultSpec::new(FaultKind::Hang)
                    .delay(Duration::from_millis(800))
                    .probability(0.5),
            )
            .build();
        let hub = slo_hub(faults)
            .executor_reply_timeout(Duration::from_millis(300))
            .build();
        for i in 0..6 {
            let _ = hub.service.run(&hub.token, "dlhub/noop", Value::Int(i));
        }
        assert!(
            alerts_fired(&hub) >= 1,
            "seed {seed}: hang-induced slowness must fire the alert"
        );
    }
}

#[test]
fn clean_traffic_with_the_same_objectives_stays_quiet() {
    for seed in seeds() {
        let hub = slo_hub(FaultPlan::seeded(seed).build()).build();
        for i in 0..20 {
            hub.service
                .run(&hub.token, "dlhub/noop", Value::Int(i))
                .unwrap();
        }
        let snap = hub.service.obs().snapshot();
        let slo = snap
            .slos
            .iter()
            .find(|s| s.servable == "dlhub/noop")
            .expect("slo tracked");
        assert_eq!(
            slo.alerts_fired, 0,
            "seed {seed}: clean run fired an alert (burn fast {:.2} / slow {:.2})",
            slo.latency_burn_fast, slo.latency_burn_slow
        );
        assert!(!slo.firing, "seed {seed}");
        assert!(slo.observed >= 20, "seed {seed}");
        assert!(
            hub.service
                .obs()
                .tracer
                .export(None)
                .named("slo_alert")
                .is_empty(),
            "seed {seed}: stray alert event"
        );
        // Satellite sanity: the snapshot carries the dropped-span
        // counter and it stays zero under this light load.
        assert_eq!(snap.spans_dropped, 0, "seed {seed}");
    }
}
