//! The paper's testbed (§V-A) as what it adds to a run of the real
//! dispatch path.
//!
//! Every figure bin serves its requests through a [`TestHub`] or the
//! real baselines and reads the measured [`Timings`]. What one process
//! does not have is the paper's two network links: the Management
//! Service on EC2 sat 20.7 ms from the Task Manager on Cooley, which
//! sat 0.17 ms from PetrelKube. With one request in flight a
//! fixed-latency link adds exactly its round trip each time an answer
//! crosses it, so [`on_paper_links`] adds the constants to the measured
//! timings, counted per link from the real outcome ([`crossings`],
//! [`pipeline_crossings`]). They are added, not slept: a sleep would
//! measure the timer, not the link.
//!
//! [`TestHub`]: dlhub_core::hub::TestHub

use dlhub_core::metrics::Timings;
use dlhub_core::pipeline::StepTiming;
use dlhub_core::servable::builtins::{MatminerFeaturize, MatminerUtil};
use dlhub_core::servable::{servable_fn, Servable};
use dlhub_core::tensor::models::{synthetic_image, CIFAR10_INPUT, INCEPTION_INPUT};
use dlhub_core::value::Value;
use dlhub_sync::thread;
use std::sync::Arc;
use std::time::Duration;

/// Management Service ↔ Task Manager round trip (EC2 → Cooley), §V-A.
pub const MS_TM_RTT: Duration = Duration::from_micros(20_700);

/// Task Manager ↔ cluster round trip (Cooley → PetrelKube), §V-A.
pub const TM_CLUSTER_RTT: Duration = Duration::from_micros(170);

/// How many times an answer crossed each of the two links.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Crossings {
    /// Management Service ↔ Task Manager ([`MS_TM_RTT`]).
    pub ms_tm: u32,
    /// Task Manager ↔ cluster ([`TM_CLUSTER_RTT`]).
    pub tm_cluster: u32,
}

impl std::ops::Add for Crossings {
    type Output = Crossings;

    fn add(self, other: Crossings) -> Crossings {
        Crossings {
            ms_tm: self.ms_tm + other.ms_tm,
            tm_cluster: self.tm_cluster + other.tm_cluster,
        }
    }
}

/// What a single request's answer crossed: a memo hit is answered at
/// the Management Service and crosses nothing; anything a Task Manager
/// answered (a miss, a whole `run_batch`) crossed each link once.
pub fn crossings(timings: &Timings) -> Crossings {
    let once = u32::from(!timings.cache_hit);
    Crossings {
        ms_tm: once,
        tm_cluster: once,
    }
}

/// What a k-step `run_pipeline` crossed: it is one task, so MS↔TM
/// once, and its steps chain at the Task Manager, so TM↔cluster once
/// per step. A memo hit crosses nothing.
pub fn pipeline_crossings(steps: &[StepTiming]) -> Crossings {
    if steps.iter().all(|s| s.timings.cache_hit) {
        return Crossings::default();
    }
    Crossings {
        ms_tm: 1,
        tm_cluster: steps.len() as u32,
    }
}

/// `timings` as the paper's testbed would have recorded them: each
/// TM↔cluster crossing adds its round trip to the invocation, and every
/// crossing adds its round trip to the request. Inference happens on
/// the cluster and gains nothing.
pub fn on_paper_links(timings: Timings, crossed: Crossings) -> Timings {
    let cluster = TM_CLUSTER_RTT * crossed.tm_cluster;
    Timings {
        invocation: timings.invocation + cluster,
        request: timings.request + MS_TM_RTT * crossed.ms_tm + cluster,
        ..timings
    }
}

/// A servable that sleeps `cost` per input and echoes it: a fixed
/// service time that holds a replica without using a CPU, so the
/// throughput figure measures replicas and dispatch, not the host's
/// two cores.
pub fn fixed_cost(cost: Duration) -> Arc<dyn Servable> {
    servable_fn(move |input| {
        thread::sleep(cost);
        Ok(input.clone())
    })
}

/// The paper's six evaluation servables in Fig 3 order, as
/// `(label, id, input)` with one valid input each (image variant 0;
/// the matminer stages chain from `NaCl`).
pub fn evaluation_inputs() -> Vec<(&'static str, &'static str, Value)> {
    let formula = Value::Str("NaCl".into());
    let fractions = MatminerUtil.run(&formula).expect("NaCl parses");
    let features = MatminerFeaturize.run(&fractions).expect("NaCl featurizes");
    vec![
        ("noop", "dlhub/noop", Value::Null),
        (
            "inception",
            "dlhub/inception",
            Value::from_tensor(&synthetic_image(&INCEPTION_INPUT, 0)),
        ),
        (
            "cifar10",
            "dlhub/cifar10",
            Value::from_tensor(&synthetic_image(&CIFAR10_INPUT, 0)),
        ),
        ("matminer util", "dlhub/matminer-util", formula),
        ("matminer featurize", "dlhub/matminer-featurize", fractions),
        ("matminer model", "dlhub/matminer-model", features),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlhub_baselines::protocol::Protocol;
    use dlhub_baselines::{Clipper, SageMaker, TensorFlowModelServer};
    use dlhub_container::Cluster;
    use dlhub_core::hub::TestHub;
    use dlhub_core::metrics::percentile;
    use dlhub_core::servable::builtins::ImageClassifier;
    use dlhub_core::servable::ModelType;
    use std::time::Instant;

    fn cifar_input() -> Value {
        Value::from_tensor(&synthetic_image(&CIFAR10_INPUT, 0))
    }

    /// Median of `runs` timings of `f`.
    fn median(runs: usize, mut f: impl FnMut() -> Duration) -> Duration {
        let series: Vec<Duration> = (0..runs).map(|_| f()).collect();
        percentile(&series, 0.5).unwrap()
    }

    /// Wall time of one call.
    fn wall(f: impl FnOnce()) -> Duration {
        let started = Instant::now();
        f();
        started.elapsed()
    }

    #[test]
    fn constants_match_paper() {
        assert_eq!(MS_TM_RTT.as_secs_f64() * 1e3, 20.7);
        assert_eq!(TM_CLUSTER_RTT.as_secs_f64() * 1e3, 0.17);
    }

    #[test]
    fn request_times_are_in_the_papers_envelope() {
        // §I: DLHub serves a model "in less than 40 ms"; a real
        // CIFAR-10 request on the paper's links pays both round trips
        // and lands under that.
        let hub = TestHub::builder().memo(false).build();
        let run = || {
            let t = hub
                .service
                .run(&hub.token, "dlhub/cifar10", cifar_input())
                .unwrap()
                .timings;
            on_paper_links(t, crossings(&t)).request
        };
        run();
        let request = median(21, run);
        assert!(request > MS_TM_RTT + TM_CLUSTER_RTT, "{request:?}");
        assert!(request < Duration::from_millis(40), "{request:?}");
    }

    #[test]
    fn dlhub_memo_beats_everyone() {
        // DLHub's cache answers at the Management Service and crosses
        // no link; Clipper's lives in a frontend on the cluster, so its
        // hits still cross TM↔cluster.
        let hub = TestHub::builder().memo(true).build();
        let input = cifar_input();
        let run = || {
            hub.service
                .run(&hub.token, "dlhub/cifar10", input.clone())
                .unwrap()
                .timings
        };
        assert!(!run().cache_hit);
        let hit = run();
        assert!(hit.cache_hit);
        let dlhub = on_paper_links(hit, crossings(&hit)).invocation;
        assert!(dlhub < Duration::from_millis(1), "{dlhub:?}");

        let clipper = Clipper::deploy(Cluster::petrelkube(), true).unwrap();
        clipper
            .deploy_model("cifar10", Arc::new(ImageClassifier::cifar10(7)), 1)
            .unwrap();
        clipper.register_application("app", Value::Null);
        clipper.link_model("app", "cifar10").unwrap();
        clipper.query("app", &input).unwrap();
        let clipper_hit =
            wall(|| assert!(clipper.query("app", &input).unwrap().1)) + TM_CLUSTER_RTT;
        assert!(dlhub < clipper_hit, "{dlhub:?} vs {clipper_hit:?}");
    }

    #[test]
    fn ordering_matches_figure_8() {
        // The real servers on one CIFAR-10 input, interleaved: gRPC
        // beats REST, and DLHub's binary task beats Flask's JSON both
        // ways.
        let input = cifar_input();
        let tfs = TensorFlowModelServer::new();
        tfs.load_model(
            "cifar10",
            1,
            ModelType::Keras,
            Arc::new(ImageClassifier::cifar10(7)),
        )
        .unwrap();
        let sagemaker = SageMaker::new();
        sagemaker
            .create_model("cifar10", Arc::new(ImageClassifier::cifar10(7)))
            .unwrap();
        sagemaker.create_endpoint("prod", "cifar10", 1).unwrap();
        let hub = TestHub::builder().memo(false).build();
        let mut samples = [(); 4].map(|_| Vec::new());
        for _ in 0..11 {
            samples[0].push(wall(|| {
                tfs.predict_value(Protocol::Grpc, "cifar10", None, &input)
                    .unwrap();
            }));
            samples[1].push(wall(|| {
                tfs.predict_value(Protocol::Rest, "cifar10", None, &input)
                    .unwrap();
            }));
            samples[2].push(wall(|| {
                sagemaker.invoke_endpoint("prod", &input).unwrap();
            }));
            let t = hub
                .service
                .run(&hub.token, "dlhub/cifar10", input.clone())
                .unwrap()
                .timings;
            samples[3].push(t.invocation);
        }
        let [grpc, rest, flask, dlhub] = samples.map(|s| percentile(&s, 0.5).unwrap());
        assert!(grpc < rest, "gRPC {grpc:?} vs REST {rest:?}");
        assert!(dlhub < flask, "DLHub {dlhub:?} vs Flask {flask:?}");
    }

    fn timings(cache_hit: bool) -> Timings {
        Timings {
            inference: Duration::from_millis(1),
            invocation: Duration::from_millis(2),
            request: Duration::from_millis(3),
            cache_hit,
        }
    }

    #[test]
    fn a_hit_crosses_nothing_and_a_miss_crosses_each_link_once() {
        let hit = timings(true);
        assert_eq!(crossings(&hit), Crossings::default());
        assert_eq!(on_paper_links(hit, crossings(&hit)), hit);
        let miss = timings(false);
        let linked = on_paper_links(miss, crossings(&miss));
        assert_eq!(linked.inference, miss.inference);
        assert_eq!(linked.invocation, Duration::from_micros(2_170));
        assert_eq!(linked.request, Duration::from_micros(3_000 + 20_870));
    }

    #[test]
    fn a_three_step_pipeline_crosses_ms_tm_once_and_the_cluster_link_three_times() {
        let step = |cache_hit| StepTiming {
            servable: "dlhub/step".into(),
            timings: timings(cache_hit),
        };
        let crossed = pipeline_crossings(&[step(false), step(false), step(false)]);
        assert_eq!(
            crossed,
            Crossings {
                ms_tm: 1,
                tm_cluster: 3
            }
        );
        let linked = on_paper_links(timings(false), crossed);
        assert_eq!(linked.invocation, Duration::from_micros(2_000 + 3 * 170));
        assert_eq!(
            linked.request,
            Duration::from_micros(3_000 + 20_700 + 3 * 170)
        );
        // Three client calls cross both links three times.
        let chained = (0..3).fold(Crossings::default(), |sum, _| {
            sum + crossings(&timings(false))
        });
        let linked = on_paper_links(timings(false), chained);
        assert_eq!(linked.request, Duration::from_micros(3_000 + 3 * 20_870));
        // A pipeline answered from the memo crosses nothing.
        let hit = pipeline_crossings(&[step(true), step(true), step(true)]);
        assert_eq!(hit, Crossings::default());
    }

    #[test]
    fn evaluation_inputs_cover_the_six_servables() {
        let inputs = evaluation_inputs();
        assert_eq!(inputs.len(), 6);
        assert!(inputs[1].2.approx_size() > 50 * inputs[3].2.approx_size());
    }
}
