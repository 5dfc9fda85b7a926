//! Multi-servable pipelines (§VI-D).
//!
//! "Defining these steps as a pipeline means data are automatically
//! passed between each servable in the pipeline, meaning the entire
//! execution is performed server-side, drastically lowering both the
//! latency and user burden."
//!
//! Here that holds: a pipeline travels from the Management Service to a
//! Task Manager as one task, and the Task Manager chains the steps
//! (`serving/pipelines.rs`, `task_manager.rs`).

use crate::metrics::Timings;
use crate::task::StepCost;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// A named, ordered sequence of servable ids. The output of step *k*
/// becomes the input of step *k + 1*.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Pipeline {
    /// Pipeline name (registered in the same namespace as servables).
    pub name: String,
    /// Servable ids in execution order.
    pub steps: Vec<String>,
    /// Human description for discovery.
    pub description: String,
}

impl Pipeline {
    /// Build a pipeline definition.
    pub fn new(name: impl Into<String>, steps: Vec<String>) -> Self {
        Pipeline {
            name: name.into(),
            steps,
            description: String::new(),
        }
    }

    /// Validate structural invariants: a non-empty name without `/`
    /// (servable ids are `owner/name`, so a pipeline never shares a
    /// servable's metric series or memo key), non-empty steps, no
    /// immediate self-loops.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("pipeline name must be non-empty".into());
        }
        if self.name.contains('/') {
            return Err(format!(
                "pipeline name '{}' must not contain '/': servable ids do",
                self.name
            ));
        }
        if self.steps.is_empty() {
            return Err("pipeline must have at least one step".into());
        }
        for pair in self.steps.windows(2) {
            if pair[0] == pair[1] {
                return Err(format!("pipeline repeats step '{}' consecutively", pair[0]));
            }
        }
        Ok(())
    }
}

/// Per-step timing of a pipeline run.
///
/// A pipeline is one request frame and one task, so the pipeline has a
/// `request` time of its own and its steps do not. A step's
/// [`Timings`] read:
///
/// * `inference` — the step's servable time, measured at the replica;
/// * `invocation` — measured at the Task Manager, from the step's
///   hand-off (for the first step, the task's arrival) to its answer;
/// * `request` — the step's invocation plus an equal share of what the
///   frame spent outside the steps' invocations (authorization, the
///   memo lookup, the codec, the broker, the reply), so the steps'
///   `request`s sum to the pipeline's request time exactly.
///
/// So `request ≥ invocation ≥ inference` holds per step. A memo hit ran
/// no step: every step reads `cache_hit`, zero inference, and an equal
/// share of the lookup as its invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct StepTiming {
    /// Which servable ran.
    pub servable: String,
    /// That step's timings, as above.
    pub timings: Timings,
}

impl StepTiming {
    /// The steps' timings of one pipeline run whose frame measured
    /// `frame` (`request` stamped; `cache_hit` for a memo hit) from the
    /// Task Manager's per-step `costs` (empty on a hit).
    pub(crate) fn split(steps: &[String], frame: Timings, costs: &[StepCost]) -> Vec<StepTiming> {
        let k = steps.len() as u64;
        let nanos = Duration::from_nanos;
        let invocations: Vec<Duration> = if frame.cache_hit {
            shares(frame.invocation, k).collect()
        } else {
            costs.iter().map(|c| nanos(c.invocation_nanos)).collect()
        };
        let outside = frame.request.saturating_sub(invocations.iter().sum());
        let inference = |i: usize| {
            costs
                .get(i)
                .map_or(Duration::ZERO, |c| nanos(c.inference_nanos))
        };
        steps
            .iter()
            .zip(invocations)
            .zip(shares(outside, k))
            .enumerate()
            .map(|(i, ((servable, invocation), share))| StepTiming {
                servable: servable.clone(),
                timings: Timings {
                    inference: inference(i),
                    invocation,
                    request: invocation + share,
                    cache_hit: frame.cache_hit,
                },
            })
            .collect()
    }
}

/// `total` cut into `k` shares that differ by at most a nanosecond and
/// sum to it exactly.
fn shares(total: Duration, k: u64) -> impl Iterator<Item = Duration> {
    let total = total.as_nanos() as u64;
    (0..k).map(move |i| Duration::from_nanos(total / k + u64::from(i < total % k)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_pipeline_passes() {
        let p = Pipeline::new(
            "formation-enthalpy",
            vec![
                "logan/matminer-util".into(),
                "logan/matminer-featurize".into(),
                "logan/matminer-model".into(),
            ],
        );
        assert!(p.validate().is_ok());
    }

    #[test]
    fn structural_violations_rejected() {
        assert!(Pipeline::new("", vec!["a".into()]).validate().is_err());
        assert!(Pipeline::new("p", vec![]).validate().is_err());
        assert!(Pipeline::new("p", vec!["a".into(), "a".into()])
            .validate()
            .is_err());
        // A servable's id is never a pipeline's name.
        assert!(Pipeline::new("dlhub/noop", vec!["a".into()])
            .validate()
            .is_err());
    }

    #[test]
    fn step_timings_nest_and_sum_to_the_pipeline_request() {
        let steps: Vec<String> = ["a/x", "a/y", "a/z"].map(String::from).to_vec();
        let us = Duration::from_micros;
        let costs = [(1, 4), (2, 5), (0, 3)].map(|(inference, invocation)| StepCost {
            inference_nanos: us(inference).as_nanos() as u64,
            invocation_nanos: us(invocation).as_nanos() as u64,
        });
        let frame = Timings {
            inference: us(3),
            invocation: us(12),
            request: Duration::from_nanos(20_001),
            cache_hit: false,
        };
        let split = StepTiming::split(&steps, frame, &costs);
        let sum =
            |f: fn(&Timings) -> Duration| split.iter().map(|s| f(&s.timings)).sum::<Duration>();
        assert_eq!(sum(|t| t.request), frame.request);
        assert_eq!(sum(|t| t.invocation), frame.invocation);
        assert_eq!(split[1].timings.inference, us(2));
        for step in &split {
            let t = step.timings;
            assert!(
                t.request >= t.invocation && t.invocation >= t.inference,
                "{step:?}"
            );
        }
        // A hit ran nothing: its lookup and frame are shared out.
        let hit = Timings {
            invocation: us(3),
            request: us(9),
            cache_hit: true,
            ..Timings::default()
        };
        let split = StepTiming::split(&steps, hit, &[]);
        assert!(split.iter().all(|s| s.timings.cache_hit
            && s.timings.inference.is_zero()
            && s.timings.invocation == us(1)
            && s.timings.request == us(3)));
    }

    #[test]
    fn serializes() {
        let p = Pipeline::new("p", vec!["a/b".into()]);
        let s = serde_json::to_string(&p).unwrap();
        let back: Pipeline = serde_json::from_str(&s).unwrap();
        assert_eq!(back, p);
    }
}
