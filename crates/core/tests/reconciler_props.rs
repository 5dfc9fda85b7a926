//! Property tests for the replica control loop's sizing rule.
//!
//! For any scripted cost, arrival rate, starting pool and policy bounds
//! a single [`Reconciler`] pass promises:
//!
//! * a resize lands on the Little's-law target
//!   `clamp(ceil(rate × inference / target_utilization))` — or, when
//!   only an SLO burn breach forced it, one replica past the current
//!   pool;
//! * nothing ever lands above the Fig 7 knee or `max_replicas`;
//! * a servable with no arrival history, no cost, or too few dispatches
//!   is left alone — "no data" is never read as "zero load".
//!
//! The one documented exception to the caps, a quarantined replica
//! buying `quarantined + 1`, needs a live failing servable and is
//! covered by `autoscale.rs`'s unit suite and `tests/chaos.rs`.

use dlhub_core::autoscale::{knee, ControlPolicy, DecisionReason, Reconciler, ScalingSignals};
use dlhub_core::executor::ParslExecutor;
use dlhub_core::fault::FaultHandle;
use dlhub_core::obs::Obs;
use dlhub_core::obs::ServableCost;
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

const SERVABLE: &str = "u/m";

/// One servable's scripted signals; `None` is "no history".
struct Scripted {
    cost: Option<ServableCost>,
    rate: Option<f64>,
    burn: Option<f64>,
}

impl ScalingSignals for Scripted {
    fn servables(&self) -> Vec<String> {
        vec![SERVABLE.to_string()]
    }

    fn arrival_rate(&self, _: &str, _: Duration) -> Option<f64> {
        self.rate
    }

    fn burn_rate(&self, _: &str, _: Duration) -> Option<f64> {
        self.burn
    }

    fn cost(&self, _: &str) -> Option<ServableCost> {
        self.cost
    }
}

fn cost(dispatches: u64, inference_us: u64, floor_us: u64) -> ServableCost {
    ServableCost {
        dispatches,
        items: dispatches,
        inference_ns: dispatches * inference_us * 1_000,
        // Twice the floor: the mean carries queueing the knee ignores.
        overhead_ns: dispatches * floor_us * 2_000,
        overhead_floor_ns: floor_us * 1_000,
    }
}

fn reconciler(policy: &ControlPolicy, current: usize) -> (Arc<ParslExecutor>, Reconciler) {
    let executor = Arc::new(ParslExecutor::new(1, &Obs::new(), FaultHandle::default()));
    executor.scale(SERVABLE, current);
    let ctl = Reconciler::new(Arc::clone(&executor), policy.clone(), &Obs::new());
    (executor, ctl)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn a_resize_lands_on_the_capped_littles_law_target(
        inference_us in 0u64..200_000,
        // The knee is about this many replicas; 0 is a free dispatch
        // (no knee), so both caps get to be the binding one.
        knee_at in 0u64..24,
        rate in 0.01f64..2_000.0,
        // Negative: no SLO registered, so no burn history.
        burn in -1.0f64..4.0,
        current in 0usize..12,
        min_replicas in 1usize..3,
        max_replicas in 3usize..12,
    ) {
        let burn = (burn >= 0.0).then_some(burn);
        let floor_us = inference_us.checked_div(knee_at).unwrap_or(0);
        let policy = ControlPolicy { min_replicas, max_replicas, ..ControlPolicy::default() };
        let cost = cost(policy.min_samples, inference_us, floor_us);
        let cap = knee(&cost, max_replicas).max(min_replicas);
        let demand = rate * cost.inference().as_secs_f64();
        let target = ((demand / policy.target_utilization).ceil() as usize).clamp(min_replicas, cap);

        let (executor, ctl) = reconciler(&policy, current);
        let signals = Scripted { cost: Some(cost), rate: Some(rate), burn };
        let applied = ctl.reconcile_at(0, &signals);
        prop_assert!(applied.len() <= 1);
        if let Some(d) = applied.first() {
            prop_assert_eq!(d.from, current);
            prop_assert_ne!(d.to, current);
            prop_assert!(d.to <= cap && d.to <= max_replicas, "{} past cap {}", d, cap);
            let burn_step = burn.is_some_and(|b| b > 1.0) && d.to == current + 1;
            prop_assert!(d.to == target.max(1) || burn_step, "{} vs target {}", d, target);
            match d.reason {
                DecisionReason::Wake => prop_assert_eq!(current, 0),
                DecisionReason::ScaleUp => prop_assert!(d.to > current),
                DecisionReason::ScaleDown => prop_assert!(d.to < current),
                DecisionReason::IdlePark => prop_assert!(false, "parked under load: {}", d),
            }
        }
        // Whatever was decided is what the executor now runs.
        let expected = applied.first().map_or(current, |d| d.to);
        prop_assert_eq!(executor.replicas(SERVABLE), expected);
    }

    #[test]
    fn missing_history_is_never_acted_on(
        inference_us in 1u64..200_000,
        rate in 0.0f64..2_000.0,
        current in 0usize..8,
        missing in 0usize..3,
    ) {
        let policy = ControlPolicy::default();
        let full = cost(policy.min_samples, inference_us, 50);
        let signals = match missing {
            0 => Scripted { cost: Some(full), rate: None, burn: Some(3.0) },
            1 => Scripted { cost: None, rate: Some(rate), burn: Some(3.0) },
            _ => Scripted {
                cost: Some(cost(policy.min_samples - 1, inference_us, 50)),
                rate: Some(rate),
                burn: Some(3.0),
            },
        };
        let (executor, ctl) = reconciler(&policy, current);
        for pass in 0..3u64 {
            prop_assert!(ctl.reconcile_at(pass * 1_000_000_000_000, &signals).is_empty());
        }
        prop_assert_eq!(executor.replicas(SERVABLE), current);
    }
}
