//! Fig 8: serving comparison on CIFAR-10 and Inception (§V-B5), over
//! the real systems: TF-Serving (gRPC and REST), SageMaker's Flask
//! endpoint and Clipper from `crates/baselines`, and DLHub on a
//! `TestHub` — [`RUNS`] requests per system and model, median
//! invocation with p5/p95 whiskers. The systems are served round by
//! round, one request each, in an order that rotates every round, so a
//! ratio between two systems is the median of [`RUNS`] ratios of
//! requests served moments apart rather than of two medians taken
//! seconds apart on a shared host.
//!
//! Every baseline answers on the cluster (Clipper's cache lives in its
//! query frontend, a pod there), so each of its invocations is one
//! call's wall time plus one TM↔cluster crossing. DLHub's is the Task
//! Manager's measured `Timings.invocation` plus the crossing a miss
//! makes; a memo hit is answered at the Management Service and crosses
//! nothing ([`dlhub_bench::testbed::on_paper_links`]).
//!
//! Paper: the TF-Serving systems beat the Python ones (a C++ server);
//! gRPC slightly beats REST; DLHub is comparable to the Python stacks;
//! with memoization DLHub's invocation collapses to ~1 ms, below
//! Clipper's cache, which still pays the trip to the frontend. Every
//! server here is Rust, so what separates them is the protocol and
//! where the cache sits; EXPERIMENTS.md says how each claim is restated.

use dlhub_baselines::protocol::Protocol;
use dlhub_baselines::{Clipper, SageMaker, TensorFlowModelServer};
use dlhub_bench::report::{ms, print_table, shape_check, write_csv};
use dlhub_bench::testbed::{crossings, on_paper_links, Crossings};
use dlhub_container::Cluster;
use dlhub_core::hub::TestHub;
use dlhub_core::metrics::{percentile_summary, Timings};
use dlhub_core::servable::builtins::ImageClassifier;
use dlhub_core::servable::{ModelType, Servable};
use dlhub_core::serving::RunOptions;
use dlhub_core::tensor::models::{synthetic_image, CIFAR10_INPUT, INCEPTION_INPUT};
use dlhub_core::value::Value;
use dlhub_sync::time::Instant;
use std::sync::Arc;
use std::time::Duration;

const RUNS: usize = 100;
const SEED: u64 = 7;

/// `(model, DLHub id, shape, network)`.
type Model = (
    &'static str,
    &'static str,
    &'static [usize],
    fn(u64) -> ImageClassifier,
);
const MODELS: [Model; 2] = [
    (
        "cifar10",
        "dlhub/cifar10",
        &CIFAR10_INPUT,
        ImageClassifier::cifar10,
    ),
    (
        "inception",
        "dlhub/inception",
        &INCEPTION_INPUT,
        ImageClassifier::inception,
    ),
];

/// One system under test: `serve(i)` serves request `i` (request
/// [`RUNS`] is the warm-up) and returns its invocation time.
type Serve<'a> = Box<dyn FnMut(usize) -> Duration + 'a>;

/// A server on the cluster: each call's wall time plus the TM↔cluster
/// crossing every baseline answer makes, its cache hits included.
fn on_cluster<'a>(mut call: impl FnMut(usize) -> Value + 'a) -> Serve<'a> {
    Box::new(move |i| {
        let started = Instant::now();
        let out = call(i);
        let wall = started.elapsed();
        assert!(matches!(out, Value::List(_)), "a classifier answers a list");
        let t = Timings {
            invocation: wall,
            request: wall,
            ..Timings::default()
        };
        let crossed = Crossings {
            ms_tm: 1,
            tm_cluster: 1,
        };
        on_paper_links(t, crossed).invocation
    })
}

/// DLHub with memoization `memoize`: each request with the crossings
/// its outcome made. The warm-up, memoized, fills the cache.
fn on_dlhub<'a>(hub: &'a TestHub, id: &'a str, input: &'a Value, memoize: bool) -> Serve<'a> {
    let options = RunOptions {
        memoize: Some(memoize),
        ..RunOptions::default()
    };
    Box::new(move |i| {
        let t = hub
            .service
            .run_with_options(&hub.token, id, input.clone(), &options)
            .expect("DLHub serves the evaluation model")
            .timings;
        assert!(
            i == RUNS || t.cache_hit == memoize,
            "every timed request hits iff memoized"
        );
        on_paper_links(t, crossings(&t)).invocation
    })
}

/// Warm every system up, then serve [`RUNS`] rounds of one request per
/// system, system `s` going `(s + n − round) mod n`-th in round `round`
/// (`n` systems): each system's invocations, in round order.
fn interleaved(systems: &mut [(&str, Serve<'_>)]) -> Vec<Vec<Duration>> {
    let n = systems.len();
    for (_, serve) in systems.iter_mut() {
        serve(RUNS);
    }
    let mut invocations = vec![Vec::with_capacity(RUNS); n];
    for round in 0..RUNS {
        for slot in 0..n {
            let s = (round + slot) % n;
            invocations[s].push((systems[s].1)(round));
        }
    }
    invocations
}

/// The median, p5 and p95 of the per-round ratios `a[r] / b[r]`. (They
/// ride in `Duration`s of that many seconds, to use the one percentile
/// helper.)
fn paired_ratio(a: &[Duration], b: &[Duration]) -> (f64, f64, f64) {
    let ratios: Vec<Duration> = a
        .iter()
        .zip(b)
        .map(|(a, b)| Duration::from_secs_f64(a.as_secs_f64() / b.as_secs_f64()))
        .collect();
    let (p5, p50, p95) = percentile_summary(&ratios).expect("RUNS > 0");
    (p50.as_secs_f64(), p5.as_secs_f64(), p95.as_secs_f64())
}

fn main() {
    let hub = TestHub::builder().memo(false).seed(SEED).build();
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    // (model, system, median ms)
    let mut medians: Vec<(&str, &str, f64)> = Vec::new();
    // (model, system, invocations in round order)
    let mut series: Vec<(&str, &str, Vec<Duration>)> = Vec::new();
    for (model, id, shape, network) in MODELS {
        let classifier = || Arc::new(network(SEED)) as Arc<dyn Servable>;
        let tfs = TensorFlowModelServer::new();
        tfs.load_model(model, 1, ModelType::Keras, classifier())
            .expect("TF-Serving loads a Keras model");
        let sagemaker = SageMaker::new();
        sagemaker.create_model(model, classifier()).unwrap();
        sagemaker.create_endpoint("prod", model, 1).unwrap();
        let clipper = Clipper::deploy(Cluster::petrelkube(), true).unwrap();
        clipper.deploy_model(model, classifier(), 1).unwrap();
        clipper.register_application("app", Value::Null);
        clipper.link_model("app", model).unwrap();

        let input = Value::from_tensor(&synthetic_image(shape, 0));
        // Clipper's misses need a fresh input per call, drawn up front.
        let fresh: Vec<Value> = (1..=RUNS as u64 + 1)
            .map(|variant| Value::from_tensor(&synthetic_image(shape, variant)))
            .collect();
        let mut systems: [(&str, Serve<'_>); 7] = [
            (
                "TFServing-gRPC",
                on_cluster(|_| {
                    tfs.predict_value(Protocol::Grpc, model, None, &input)
                        .unwrap()
                }),
            ),
            (
                "TFServing-REST",
                on_cluster(|_| {
                    tfs.predict_value(Protocol::Rest, model, None, &input)
                        .unwrap()
                }),
            ),
            (
                "SageMaker-Flask",
                on_cluster(|_| sagemaker.invoke_endpoint("prod", &input).unwrap()),
            ),
            (
                "Clipper",
                on_cluster(|i| {
                    let (out, hit, _) = clipper.query("app", &fresh[i]).unwrap();
                    assert!(!hit, "a fresh input misses");
                    out
                }),
            ),
            ("DLHub", on_dlhub(&hub, id, &input, false)),
            (
                "Clipper+memo",
                on_cluster(|i| {
                    let (out, hit, _) = clipper.query("app", &input).unwrap();
                    assert!(hit || i == RUNS, "a repeated input hits");
                    out
                }),
            ),
            ("DLHub+memo", on_dlhub(&hub, id, &input, true)),
        ];
        let measured = interleaved(&mut systems);
        let names = systems.map(|(system, _)| system);
        for (system, invocations) in names.into_iter().zip(&measured) {
            series.push((model, system, invocations.clone()));
        }
    }
    for (model, system, invocations) in &series {
        let (p5, p50, p95) = percentile_summary(invocations).expect("RUNS > 0");
        let [p5, p50, p95] = [p5, p50, p95].map(|d| d.as_secs_f64() * 1e3);
        medians.push((model, system, p50));
        rows.push(vec![
            model.to_string(),
            system.to_string(),
            format!("{} [{}..{}]", ms(p50), ms(p5), ms(p95)),
        ]);
        csv.push(vec![
            model.to_string(),
            system.to_string(),
            p50.to_string(),
            p5.to_string(),
            p95.to_string(),
        ]);
    }

    print_table(
        &format!(
            "Fig 8: invocation time, median [p5..p95] in ms ({RUNS} rounds of one request per system, order rotating, per model)"
        ),
        &["model", "system", "invocation"],
        &rows,
    );
    let path = write_csv(
        "fig8.csv",
        &[
            "model",
            "system",
            "invocation_p50_ms",
            "invocation_p5_ms",
            "invocation_p95_ms",
        ],
        &csv,
    );
    println!("\nwrote {}", path.display());

    println!("\nshape checks against the paper:");
    for (model, ..) in MODELS {
        let inv = |system: &str| {
            medians
                .iter()
                .find(|(m, s, _)| *m == model && *s == system)
                .map(|(.., p50)| *p50)
                .unwrap_or_else(|| panic!("missing {model}/{system}"))
        };
        let (grpc, rest, flask) = (
            inv("TFServing-gRPC"),
            inv("TFServing-REST"),
            inv("SageMaker-Flask"),
        );
        let rounds = |system: &str| {
            series
                .iter()
                .find(|(m, s, _)| *m == model && *s == system)
                .map(|(.., invocations)| &invocations[..])
                .unwrap_or_else(|| panic!("missing {model}/{system}"))
        };
        shape_check(
            &format!(
                "[{model}] TFServing-gRPC < TFServing-REST ({} vs {} ms)",
                ms(grpc),
                ms(rest)
            ),
            grpc < rest,
        );
        let (rest_flask, lo, hi) =
            paired_ratio(rounds("TFServing-REST"), rounds("SageMaker-Flask"));
        shape_check(
            &format!(
                "[{model}] every server is Rust, so only the protocol separates TF-Serving from Flask: gRPC < Flask, REST/Flask = {rest_flask:.2} (rounds p5..p95 {lo:.2}..{hi:.2}) within 0.8..1.25 (both JSON both ways)"
            ),
            grpc < flask && (0.8..1.25).contains(&rest_flask),
        );
        let dlhub = inv("DLHub");
        let (dlhub_grpc, lo, hi) = paired_ratio(rounds("DLHub"), rounds("TFServing-gRPC"));
        shape_check(
            &format!(
                "[{model}] DLHub's task travels wire-v2 (binary), so it compares with gRPC, not Flask: DLHub/gRPC = {dlhub_grpc:.2} (rounds p5..p95 {lo:.2}..{hi:.2}) within 0.7..1.4, DLHub < Flask"
            ),
            (0.7..1.4).contains(&dlhub_grpc) && dlhub < flask,
        );
        shape_check(
            &format!(
                "[{model}] DLHub+memo invocation under 1 ms (measured {})",
                ms(inv("DLHub+memo"))
            ),
            inv("DLHub+memo") < 1.0,
        );
        shape_check(
            &format!(
                "[{model}] DLHub+memo beats Clipper+memo: the MS cache crosses no link, Clipper's frontend one ({} vs {} ms)",
                ms(inv("DLHub+memo")),
                ms(inv("Clipper+memo"))
            ),
            inv("DLHub+memo") < inv("Clipper+memo"),
        );
        shape_check(
            &format!(
                "[{model}] Clipper+memo still beats every non-memoized system ({} ms)",
                ms(inv("Clipper+memo"))
            ),
            [
                "TFServing-gRPC",
                "TFServing-REST",
                "SageMaker-Flask",
                "Clipper",
                "DLHub",
            ]
            .iter()
            .all(|s| inv("Clipper+memo") < inv(s)),
        );
    }
}
