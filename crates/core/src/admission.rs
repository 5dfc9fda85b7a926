//! Admission control and per-tenant load shedding.
//!
//! DLHub's Management Service must protect itself under overload
//! (§III): without a front door, excess load just grows broker queues
//! until every request — including the ones that would have met their
//! SLO — times out deep in the stack. The admission controller sheds
//! *early* instead: a request that cannot be served in time is
//! rejected at the door with a typed
//! [`DlhubError::Overloaded`] carrying a suggested back-off, the
//! 429-with-`Retry-After` pattern.
//!
//! # Fairness
//!
//! Tenancy is keyed on `dlhub-auth` identities
//! ([`TokenInfo::tenant`](dlhub_auth::TokenInfo::tenant) — the
//! smallest linked identity, so aliases cannot multiply quota). While
//! the service is **uncontended** everyone is admitted and the
//! fairness ledger resets — quota is not hoarded across quiet
//! periods. Once **contended** (inflight beyond the fair-share
//! threshold, or the last control pass found queue wait or burn rate
//! breaching — see [`AdmissionController::set_pressured`]), admission
//! switches to weighted round-robin credits: tenant `i` with weight
//! `w_i` is admitted iff
//!
//! ```text
//! accepted_i × Σw  <  (total_accepted + 1) × w_i
//! ```
//!
//! over the tenants seen in the current contention round. Accepted
//! shares therefore converge to `w_i / Σw`, and a zero-weight tenant
//! is always over its (empty) share — shed whenever the service is
//! contended, harmless when it is not.
//!
//! # Accounting
//!
//! Admission hands back an [`AdmissionPermit`] whose `Drop` releases
//! the inflight slot, so the bound holds no matter how the request
//! path exits. Sheds feed the `requests_shed_total` counter and
//! admissions `requests_admitted_total`.

use crate::error::DlhubError;
use dlhub_auth::IdentityId;
use dlhub_obs::{Counter, Obs};
use dlhub_sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use dlhub_sync::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Admission-control thresholds and tenant weights.
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Hard cap on concurrently admitted requests; at the cap every
    /// arrival is shed regardless of tenant.
    pub max_inflight: usize,
    /// Fraction of `max_inflight` at which weighted fairness engages
    /// (the service is "contended"). Zero means always contended.
    pub fair_share_at: f64,
    /// Suggested client back-off returned in
    /// [`DlhubError::Overloaded::retry_after_ms`].
    pub retry_after: Duration,
    /// p99 queue wait — in the broker or in front of the replica
    /// pools, whichever is larger — above which the service counts as
    /// contended even below the inflight threshold.
    pub queue_wait_p99_max: Duration,
    /// Fast-window SLO burn rate (of any servable with an objective)
    /// above which the service counts as contended.
    pub burn_rate_max: f64,
    /// Window the control pass measures queue wait over.
    pub signal_window: Duration,
    /// Weight for tenants absent from `weights`.
    pub default_weight: u32,
    /// Per-tenant weights; zero marks a tenant that may only use
    /// otherwise-idle capacity.
    pub weights: HashMap<IdentityId, u32>,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_inflight: 64,
            fair_share_at: 0.5,
            retry_after: Duration::from_millis(250),
            queue_wait_p99_max: Duration::from_millis(100),
            burn_rate_max: 2.0,
            signal_window: Duration::from_secs(10),
            default_weight: 1,
            weights: HashMap::new(),
        }
    }
}

/// Ledger of the current contention round.
#[derive(Default)]
struct FairState {
    accepted: HashMap<IdentityId, u64>,
    total: u64,
}

/// Proof of admission: holds the inflight slot and releases it on
/// drop, however the request path exits.
#[derive(Debug)]
pub struct AdmissionPermit {
    inflight: Arc<AtomicUsize>,
}

impl Drop for AdmissionPermit {
    fn drop(&mut self) {
        self.inflight.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The front door: bounded inflight, signal-aware contention, and
/// weighted fair shares per tenant. See the module docs for the
/// admission math.
pub struct AdmissionController {
    config: AdmissionConfig,
    inflight: Arc<AtomicUsize>,
    /// The last control pass's signal verdict. It publishes no other
    /// data, so `Relaxed` suffices.
    pressured: AtomicBool,
    fair: Mutex<FairState>,
    // The pair `dlhub top`'s ADMISSION row reads.
    shed_counter: Arc<Counter>,
    admitted_counter: Arc<Counter>,
}

impl AdmissionController {
    /// Build a controller over `config`, counting sheds on `obs`'s
    /// `requests_shed_total` and admissions on its
    /// `requests_admitted_total`.
    pub fn new(config: AdmissionConfig, obs: &Obs) -> Self {
        AdmissionController {
            config,
            inflight: Arc::new(AtomicUsize::new(0)),
            pressured: AtomicBool::new(false),
            fair: Mutex::new(FairState::default()),
            shed_counter: obs.metrics.counter_with_help(
                "requests_shed_total",
                "Requests shed by the admission controller before dispatch",
            ),
            admitted_counter: obs.metrics.counter_with_help(
                "requests_admitted_total",
                "Requests admitted past the admission controller",
            ),
        }
    }

    /// The thresholds this controller enforces.
    pub fn config(&self) -> &AdmissionConfig {
        &self.config
    }

    /// Requests currently admitted and not yet finished.
    pub fn inflight(&self) -> usize {
        self.inflight.load(Ordering::Relaxed)
    }

    /// Store a control pass's signal verdict: queue-wait p99 or a burn
    /// rate over the configured maxima. It holds until the next pass.
    pub fn set_pressured(&self, pressured: bool) {
        self.pressured.store(pressured, Ordering::Relaxed);
    }

    /// The verdict the last control pass stored; false before the
    /// first.
    pub fn pressured(&self) -> bool {
        self.pressured.load(Ordering::Relaxed)
    }

    /// Requests admitted over the controller's lifetime (evidence that
    /// admission was actually on the request path, e.g. in the bench
    /// harness's control-loop A/B artifact).
    pub fn admitted_total(&self) -> u64 {
        self.admitted_counter.get()
    }

    /// The weight `tenant` is scheduled at.
    pub fn weight(&self, tenant: IdentityId) -> u32 {
        self.config
            .weights
            .get(&tenant)
            .copied()
            .unwrap_or(self.config.default_weight)
    }

    /// Admit or shed one request from `tenant`.
    /// `pressured` is the signal-breach verdict (the Management Service
    /// passes [`Self::pressured`]); the inflight threshold is checked
    /// here. On admission the returned permit must be held for the
    /// request's lifetime.
    pub fn admit(
        &self,
        tenant: IdentityId,
        pressured: bool,
    ) -> Result<AdmissionPermit, DlhubError> {
        // Reserve the slot atomically: a load-check-then-add would let
        // N racing arrivals all pass at `max_inflight - 1` and push
        // inflight past the documented hard cap.
        let inflight = match self
            .inflight
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n < self.config.max_inflight).then_some(n + 1)
            }) {
            Ok(previous) => previous,
            Err(_) => return Err(self.shed()),
        };
        let fair_threshold =
            (self.config.fair_share_at * self.config.max_inflight as f64).ceil() as usize;
        let contended = pressured || inflight >= fair_threshold;
        let mut fair = self.fair.lock();
        if contended {
            let my_weight = self.weight(tenant) as u64;
            // Competing registers the tenant in the ledger (at zero
            // accepts) even when this request is shed, so Σw spans
            // every tenant that *requested* this round — a
            // persistently-shed tenant still dilutes everyone else's
            // share, per w_i / Σw over competing tenants.
            fair.accepted.entry(tenant).or_insert(0);
            let total_weight: u64 = fair.accepted.keys().map(|t| self.weight(*t) as u64).sum();
            let mine = fair.accepted.get(&tenant).copied().unwrap_or(0);
            if mine * total_weight >= (fair.total + 1) * my_weight {
                drop(fair);
                // Roll back the reserved slot before shedding.
                self.inflight.fetch_sub(1, Ordering::Relaxed);
                return Err(self.shed());
            }
            *fair.accepted.entry(tenant).or_insert(0) += 1;
            fair.total += 1;
        } else {
            // Uncontended admission resets the ledger: fairness is
            // about sharing scarce capacity, not hoarding credit from
            // quiet periods.
            if fair.total > 0 || !fair.accepted.is_empty() {
                *fair = FairState::default();
            }
        }
        drop(fair);
        self.admitted_counter.inc();
        Ok(AdmissionPermit {
            inflight: Arc::clone(&self.inflight),
        })
    }

    /// Record one shed and return the typed rejection.
    fn shed(&self) -> DlhubError {
        self.shed_counter.inc();
        DlhubError::Overloaded {
            retry_after_ms: self.config.retry_after.as_millis().min(u64::MAX as u128) as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tenant(n: u64) -> IdentityId {
        IdentityId(n)
    }

    #[test]
    fn hard_cap_sheds_with_retry_after() {
        let ctl = AdmissionController::new(
            AdmissionConfig {
                max_inflight: 2,
                retry_after: Duration::from_millis(125),
                ..AdmissionConfig::default()
            },
            &Obs::new(),
        );
        let a = ctl.admit(tenant(1), false).unwrap();
        let b = ctl.admit(tenant(1), false).unwrap();
        assert_eq!(ctl.inflight(), 2);
        let err = ctl.admit(tenant(1), false).unwrap_err();
        assert_eq!(
            err,
            DlhubError::Overloaded {
                retry_after_ms: 125
            }
        );
        // Finishing a request frees its slot.
        drop(a);
        assert_eq!(ctl.inflight(), 1);
        let _c = ctl.admit(tenant(1), false).unwrap();
        drop(b);
    }

    #[test]
    fn zero_weight_is_admitted_only_when_uncontended() {
        let mut config = AdmissionConfig::default();
        config.weights.insert(tenant(9), 0);
        let ctl = AdmissionController::new(config, &Obs::new());
        // Idle service: the hostile tenant may use spare capacity.
        let permit = ctl.admit(tenant(9), false).unwrap();
        drop(permit);
        // Contended (signal breach): always over its empty share.
        assert!(matches!(
            ctl.admit(tenant(9), true),
            Err(DlhubError::Overloaded { .. })
        ));
    }

    #[test]
    fn weighted_shares_converge_under_contention() {
        let mut config = AdmissionConfig {
            max_inflight: 1024,
            fair_share_at: 0.0, // always contended
            ..AdmissionConfig::default()
        };
        config.weights.insert(tenant(1), 2);
        config.weights.insert(tenant(2), 1);
        let ctl = AdmissionController::new(config, &Obs::new());
        let mut accepted = [0u64; 2];
        for _ in 0..300 {
            for (slot, who) in [(0usize, tenant(1)), (1, tenant(2))] {
                if let Ok(permit) = ctl.admit(who, false) {
                    accepted[slot] += 1;
                    drop(permit);
                }
            }
        }
        let total = (accepted[0] + accepted[1]) as f64;
        let share_b = accepted[1] as f64 / total;
        // Weight 1 of Σ3: B's share converges to 1/3.
        assert!((share_b - 1.0 / 3.0).abs() < 0.05, "share_b {share_b}");
        assert!(accepted[0] > accepted[1]);
    }

    #[test]
    fn uncontended_admission_resets_the_ledger() {
        let mut config = AdmissionConfig {
            max_inflight: 1024,
            fair_share_at: 1.0, // contention only when signalled
            ..AdmissionConfig::default()
        };
        config.weights.insert(tenant(1), 1);
        config.weights.insert(tenant(2), 1);
        let ctl = AdmissionController::new(config, &Obs::new());
        // A burst from tenant 1 under contention builds up credit debt…
        for _ in 0..50 {
            let _ = ctl.admit(tenant(1), true);
        }
        // …which an uncontended admission wipes: the next contention
        // round starts from a clean ledger.
        drop(ctl.admit(tenant(2), false).unwrap());
        let permit = ctl.admit(tenant(1), true);
        assert!(permit.is_ok(), "stale ledger starved tenant 1");
    }
}
