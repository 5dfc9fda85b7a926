//! Property tests for weighted fair admission.
//!
//! The weighted round-robin credit rule
//! (`accepted_i × Σw < (total + 1) × w_i`) promises two things for
//! *any* weight assignment, not just the hand-picked ones in the unit
//! tests:
//!
//! * under sustained contention with every tenant saturating the
//!   door, accepted shares converge to `w_i / Σw` within an epsilon
//!   that shrinks with the number of rounds;
//! * a zero-weight (hostile) tenant is always over its empty share —
//!   it is shed whenever the service is contended, never touches the
//!   ledger, and therefore cannot perturb anyone else's share no
//!   matter how hard or how often it bursts.

use dlhub_auth::IdentityId;
use dlhub_core::admission::{AdmissionConfig, AdmissionController};
use dlhub_core::obs::Obs;
use dlhub_core::DlhubError;
use proptest::prelude::*;

/// A controller that is always contended (fairness always engages)
/// and never hits the hard cap (permits are dropped immediately).
fn contended_controller(weights: &[u32]) -> AdmissionController {
    let mut config = AdmissionConfig {
        max_inflight: usize::MAX,
        fair_share_at: 0.0,
        ..AdmissionConfig::default()
    };
    for (i, w) in weights.iter().enumerate() {
        config.weights.insert(IdentityId(i as u64 + 1), *w);
    }
    AdmissionController::new(config, &Obs::new())
}

/// Round-robin `rounds` saturated offers per tenant; returns accepted
/// counts by tenant index.
fn saturate(ctl: &AdmissionController, tenants: usize, rounds: u64) -> Vec<u64> {
    let mut accepted = vec![0u64; tenants];
    for _ in 0..rounds {
        for (i, slot) in accepted.iter_mut().enumerate() {
            match ctl.admit(IdentityId(i as u64 + 1), false) {
                Ok(permit) => {
                    *slot += 1;
                    drop(permit);
                }
                Err(DlhubError::Overloaded { .. }) => {}
                Err(other) => panic!("untyped shed: {other:?}"),
            }
        }
    }
    accepted
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// With 2–5 tenants all saturating the door, each accepted share
    /// converges to its weight fraction.
    #[test]
    fn accepted_shares_converge_to_weight_fractions(
        weights in proptest::collection::vec(1u32..=5, 2..=5),
        rounds in 300u64..600,
    ) {
        let ctl = contended_controller(&weights);
        let accepted = saturate(&ctl, weights.len(), rounds);
        let total: u64 = accepted.iter().sum();
        prop_assert!(total > 0);
        let weight_sum: u32 = weights.iter().sum();
        for (i, w) in weights.iter().enumerate() {
            let share = accepted[i] as f64 / total as f64;
            let ideal = *w as f64 / weight_sum as f64;
            prop_assert!(
                (share - ideal).abs() < 0.05,
                "tenant {i}: share {share:.3} vs ideal {ideal:.3} \
                 (weights {weights:?}, accepted {accepted:?})"
            );
        }
    }

    /// Interleaving arbitrarily bursty zero-weight traffic changes
    /// nothing for the weighted tenants: the hostile tenant is shed on
    /// every contended attempt and the others' accepted counts are
    /// exactly what they would have been without it.
    #[test]
    fn zero_weight_bursts_never_starve_weighted_tenants(
        weights in proptest::collection::vec(1u32..=5, 2..=4),
        bursts in proptest::collection::vec(1u64..=25, 50..=150),
    ) {
        let tenants = weights.len();
        let hostile = IdentityId(99);

        // Baseline: the weighted tenants alone.
        let baseline_ctl = contended_controller(&weights);
        let baseline = saturate(&baseline_ctl, tenants, bursts.len() as u64);

        // Same offered sequence with hostile bursts injected before
        // every round.
        let mut config = AdmissionConfig {
            max_inflight: usize::MAX,
            fair_share_at: 0.0,
            ..AdmissionConfig::default()
        };
        for (i, w) in weights.iter().enumerate() {
            config.weights.insert(IdentityId(i as u64 + 1), *w);
        }
        config.weights.insert(hostile, 0);
        let ctl = AdmissionController::new(config, &Obs::new());
        let mut accepted = vec![0u64; tenants];
        for burst in &bursts {
            for _ in 0..*burst {
                match ctl.admit(hostile, false) {
                    Err(DlhubError::Overloaded { .. }) => {}
                    Err(other) => panic!("untyped shed: {other:?}"),
                    Ok(_) => panic!("zero weight admitted under contention"),
                }
            }
            for (i, slot) in accepted.iter_mut().enumerate() {
                if let Ok(permit) = ctl.admit(IdentityId(i as u64 + 1), false) {
                    *slot += 1;
                    drop(permit);
                }
            }
        }
        prop_assert_eq!(
            accepted,
            baseline,
            "hostile bursts perturbed the weighted tenants"
        );
    }

    /// The inflight bound holds under any interleaving of admits and
    /// releases, and every slot is returned once its permit drops.
    #[test]
    fn inflight_never_exceeds_the_cap_and_drains(
        cap in 1usize..=16,
        attempts in 1usize..=200,
        release_every in 1usize..=8,
    ) {
        let ctl = AdmissionController::new(
            AdmissionConfig {
                max_inflight: cap,
                fair_share_at: 1.0,
                ..AdmissionConfig::default()
            },
            &Obs::new(),
        );
        let mut held = Vec::new();
        for i in 0..attempts {
            match ctl.admit(IdentityId(1), false) {
                Ok(permit) => held.push(permit),
                Err(DlhubError::Overloaded { .. }) => {
                    prop_assert_eq!(ctl.inflight(), cap, "shed below the cap");
                }
                Err(other) => panic!("untyped shed: {other:?}"),
            }
            prop_assert!(ctl.inflight() <= cap);
            if i % release_every == 0 && !held.is_empty() {
                held.remove(0);
            }
        }
        drop(held);
        prop_assert_eq!(ctl.inflight(), 0, "permits leaked slots");
    }
}
