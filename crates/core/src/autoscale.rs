//! Replica autoscaling: the closed control loop over live signals.
//!
//! Fig 7 shows throughput saturating once the Task Manager's
//! serialized dispatch dominates (`replicas ≈ service / dispatch`);
//! the paper leaves replica counts "configurable in the Management
//! Service" and names "automated tuning of servable execution" as
//! ongoing work (§VII). [`Reconciler`] closes that loop: it reads
//! [`ScalingSignals`] — arrival rate, SLO burn and each servable's
//! dispatch cost — sizes every pool by Little's law, and never past the
//! Fig 7 [`knee`], where more replicas stop paying.

use crate::executor::ParslExecutor;
use dlhub_obs::{ControlSignals, Counter, Obs, ServableCost};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Read-only inputs the control loop consumes. Every accessor returns
/// `None` when the underlying signal has no history yet — callers must
/// treat "no data" as "do not act", never as zero.
///
/// The trait exists so the loop can be tested against scripted signal
/// fixtures; production passes the telemetry store's
/// [`ControlSignals`] view.
pub trait ScalingSignals {
    /// Servables with any sampled history, id-sorted (the order
    /// decisions are taken and logged in).
    fn servables(&self) -> Vec<String>;

    /// Requests per second answered for `servable` over `window`.
    fn arrival_rate(&self, servable: &str, window: Duration) -> Option<f64>;

    /// Fast-window SLO burn rate for `servable` (mean over `window`);
    /// above 1.0 the error budget is being consumed too fast.
    fn burn_rate(&self, servable: &str, window: Duration) -> Option<f64>;

    /// What dispatching `servable` has cost so far.
    fn cost(&self, servable: &str) -> Option<ServableCost>;
}

impl ScalingSignals for ControlSignals {
    fn servables(&self) -> Vec<String> {
        ControlSignals::servables(self)
    }

    fn arrival_rate(&self, servable: &str, window: Duration) -> Option<f64> {
        ControlSignals::arrival_rate(self, servable, window)
    }

    fn burn_rate(&self, servable: &str, window: Duration) -> Option<f64> {
        ControlSignals::burn_rate(self, servable, window).map(|w| w.avg)
    }

    fn cost(&self, servable: &str) -> Option<ServableCost> {
        ControlSignals::cost(self, servable)
    }
}

/// Replica count at which dispatch stops being amortizable:
/// `ceil(inference / dispatch-floor)` — the Fig 7 knee. Uses the
/// overhead *floor* so queueing delay under load (which extra replicas
/// would remove) does not masquerade as dispatch cost. With a
/// negligible floor the knee is unbounded (replicas are pure win up to
/// `max`); with negligible inference a single replica already keeps up.
pub fn knee(cost: &ServableCost, max: usize) -> usize {
    let floor = cost.overhead_floor().as_secs_f64();
    let inference = cost.inference().as_secs_f64();
    if inference <= 0.0 {
        return 1;
    }
    if floor <= 0.0 {
        return max.max(1);
    }
    ((inference / floor).ceil() as usize).clamp(1, max.max(1))
}

/// Sizing bounds, hysteresis and actuation policy for the control loop
/// ([`Reconciler`]): how far a pool may grow, and when it is safe to
/// act on live signals.
#[derive(Debug, Clone)]
pub struct ControlPolicy {
    /// Lower bound on replicas while a servable has traffic.
    pub min_replicas: usize,
    /// Upper bound on replicas per servable (cluster budget).
    pub max_replicas: usize,
    /// Dispatches required before trusting a servable's cost.
    pub min_samples: u64,
    /// Utilization the loop sizes pools toward (`desired =
    /// ceil(demand / target_utilization)`), leaving headroom for
    /// bursts.
    pub target_utilization: f64,
    /// Upper hysteresis bound: act only when utilization of *healthy*
    /// replicas exceeds this.
    pub scale_up_utilization: f64,
    /// Lower hysteresis bound: shrink only when utilization falls
    /// below this. The gap between the bounds is the no-action band
    /// that prevents flapping.
    pub scale_down_utilization: f64,
    /// Minimum time between two resizes of the same servable. A wake
    /// from zero is exempt — cold traffic must not wait out a window.
    pub cooldown: Duration,
    /// Zero arrivals for this long parks the pool to `warm_pool`.
    pub idle_after: Duration,
    /// Replica floor an *idle* pool is parked at. Zero enables
    /// scale-to-zero; one keeps a warm replica to absorb the cold
    /// start of the first returning request.
    pub warm_pool: usize,
    /// Lookback window for every signal query.
    pub signal_window: Duration,
}

impl Default for ControlPolicy {
    fn default() -> Self {
        ControlPolicy {
            min_replicas: 1,
            max_replicas: 16,
            min_samples: 5,
            target_utilization: 0.6,
            scale_up_utilization: 0.85,
            scale_down_utilization: 0.3,
            cooldown: Duration::from_secs(30),
            idle_after: Duration::from_secs(120),
            warm_pool: 0,
            signal_window: Duration::from_secs(30),
        }
    }
}

/// Why the reconciler resized a pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionReason {
    /// Healthy-replica utilization exceeded the upper hysteresis
    /// bound (or the SLO burn rate breached 1.0).
    ScaleUp,
    /// Utilization fell below the lower hysteresis bound.
    ScaleDown,
    /// No arrivals for `idle_after`: parked to the warm-pool floor.
    IdlePark,
    /// Traffic returned to a pool parked at zero.
    Wake,
}

impl fmt::Display for DecisionReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DecisionReason::ScaleUp => "scale_up",
            DecisionReason::ScaleDown => "scale_down",
            DecisionReason::IdlePark => "idle_park",
            DecisionReason::Wake => "wake",
        })
    }
}

/// One applied control-loop decision. [`fmt::Display`] renders the
/// canonical log line the determinism tests compare byte-for-byte:
/// every field is a pure function of the seed and the config.
#[derive(Debug, Clone, PartialEq)]
pub struct ControlDecision {
    /// Virtual (or wall) time of the reconcile pass, in nanoseconds.
    pub at_ns: u64,
    /// Servable whose pool was resized.
    pub servable: String,
    /// Replicas before.
    pub from: usize,
    /// Replicas after.
    pub to: usize,
    /// What drove the change.
    pub reason: DecisionReason,
}

impl fmt::Display for ControlDecision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "t={:.3}s {} {}->{} {}",
            self.at_ns as f64 / 1e9,
            self.servable,
            self.from,
            self.to,
            self.reason
        )
    }
}

#[derive(Default)]
struct ServableControl {
    /// Last resize, for the cooldown window.
    last_change_ns: Option<u64>,
    /// First pass that observed zero arrivals (cleared on traffic).
    idle_since_ns: Option<u64>,
}

/// Decisions the log retains; older ones fall off the front. A day of
/// one resize per default cooldown is 2,880 decisions — the log is for
/// "what did the loop just do", the lifetime count is
/// `autoscale_decisions_total`.
pub const DECISION_LOG_CAPACITY: usize = 256;

struct ReconcilerState {
    servables: HashMap<String, ServableControl>,
    log: VecDeque<ControlDecision>,
}

/// The actuation half of the control loop: reads [`ScalingSignals`],
/// sizes each servable's pool by Little's law (`demand = arrival_rate ×
/// inference_time`) capped at the Fig 7 [`knee`], and applies changes
/// through [`ParslExecutor::scale`] under hysteresis and per-servable
/// cooldowns. Driven either by the Management Service's background
/// thread (wall clock) or by a sim harness calling
/// [`reconcile_at`](Reconciler::reconcile_at) on a virtual clock —
/// the decision path never reads a real clock, which is what makes
/// seeded runs reproduce byte-identical decision logs.
pub struct Reconciler {
    executor: Arc<ParslExecutor>,
    policy: ControlPolicy,
    state: Mutex<ReconcilerState>,
    /// Lifetime count of applied decisions; the log keeps the newest.
    decisions_counter: Arc<Counter>,
}

impl Reconciler {
    /// Wire the reconciler to the executor whose pools it sizes,
    /// counting every applied decision on `obs`'s
    /// `autoscale_decisions_total`.
    pub fn new(executor: Arc<ParslExecutor>, policy: ControlPolicy, obs: &Obs) -> Self {
        Reconciler {
            executor,
            policy,
            state: Mutex::new(ReconcilerState {
                servables: HashMap::new(),
                log: VecDeque::new(),
            }),
            decisions_counter: obs.metrics.counter_with_help(
                "autoscale_decisions_total",
                "Scaling decisions applied by the control loop",
            ),
        }
    }

    /// The policy this reconciler acts under.
    pub fn policy(&self) -> &ControlPolicy {
        &self.policy
    }

    /// One reconcile pass at time `now_ns` over every servable
    /// `signals` knows. Returns the decisions applied this pass; every
    /// decision is also appended to the [`log`](Reconciler::decisions).
    pub fn reconcile_at(&self, now_ns: u64, signals: &dyn ScalingSignals) -> Vec<ControlDecision> {
        let cooldown_ns = self.policy.cooldown.as_nanos().min(u64::MAX as u128) as u64;
        let idle_ns = self.policy.idle_after.as_nanos().min(u64::MAX as u128) as u64;
        let mut applied = Vec::new();
        let mut state = self.state.lock();
        for servable in signals.servables() {
            let Some(cost) = signals.cost(&servable) else {
                continue;
            };
            if cost.dispatches < self.policy.min_samples {
                continue;
            }
            // No signal history means "do not act", never "zero load".
            let Some(rate) = signals.arrival_rate(&servable, self.policy.signal_window) else {
                continue;
            };
            let current = self.executor.replicas(&servable);
            let quarantined = self.executor.quarantined(&servable);
            let entry = state.servables.entry(servable.clone()).or_default();
            let cooled = entry
                .last_change_ns
                .is_none_or(|t| now_ns.saturating_sub(t) >= cooldown_ns);

            let decision: Option<(usize, DecisionReason)> = if rate <= f64::EPSILON {
                // Idle path: park to the warm-pool floor once the pool
                // has been quiet for the full idle window.
                let since = *entry.idle_since_ns.get_or_insert(now_ns);
                if now_ns.saturating_sub(since) >= idle_ns
                    && current > self.policy.warm_pool
                    && cooled
                {
                    Some((self.policy.warm_pool, DecisionReason::IdlePark))
                } else {
                    None
                }
            } else {
                entry.idle_since_ns = None;
                // Little's law: replicas busy serving the offered load.
                let demand = rate * cost.inference().as_secs_f64();
                // Past the knee the Task Manager's dispatch is the
                // bottleneck, so the knee caps the replica budget.
                let cap = knee(&cost, self.policy.max_replicas).max(self.policy.min_replicas);
                let mut target = (demand / self.policy.target_utilization).ceil() as usize;
                target = target.clamp(self.policy.min_replicas, cap);
                // Quarantined replicas are not capacity: keep at least
                // one healthy replica beyond them, even past the caps.
                if target <= quarantined {
                    target = quarantined + 1;
                }
                let healthy = current.saturating_sub(quarantined);
                let burn_hot = signals
                    .burn_rate(&servable, self.policy.signal_window)
                    .is_some_and(|b| b > 1.0);
                if current == 0 {
                    // Wake from zero: cold traffic must not wait out a
                    // cooldown window.
                    Some((target.max(1), DecisionReason::Wake))
                } else if !cooled {
                    None
                } else {
                    let util = demand / healthy.max(1) as f64;
                    let pressured =
                        util > self.policy.scale_up_utilization || healthy == 0 || burn_hot;
                    if pressured {
                        let mut to = target;
                        // A burn breach (or an all-quarantined pool)
                        // always buys at least one more replica, even
                        // when the utilization math says "enough".
                        if (burn_hot || healthy == 0) && to <= current {
                            to = current + 1;
                        }
                        let to = to.min(cap.max(quarantined + 1));
                        (to > current).then_some((to, DecisionReason::ScaleUp))
                    } else if util < self.policy.scale_down_utilization && target < current {
                        Some((target, DecisionReason::ScaleDown))
                    } else {
                        None
                    }
                }
            };

            if let Some((to, reason)) = decision {
                entry.last_change_ns = Some(now_ns);
                self.executor.scale(&servable, to);
                self.decisions_counter.inc();
                let d = ControlDecision {
                    at_ns: now_ns,
                    servable,
                    from: current,
                    to,
                    reason,
                };
                if state.log.len() == DECISION_LOG_CAPACITY {
                    state.log.pop_front();
                }
                state.log.push_back(d.clone());
                applied.push(d);
            }
        }
        applied
    }

    /// The newest [`DECISION_LOG_CAPACITY`] applied decisions, oldest
    /// first.
    pub fn decisions(&self) -> Vec<ControlDecision> {
        self.state.lock().log.iter().cloned().collect()
    }

    /// The retained decision log as canonical text, one line per
    /// decision — the artifact the determinism tests compare.
    pub fn log_text(&self) -> String {
        let state = self.state.lock();
        let mut out = String::new();
        for d in &state.log {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{Executor, HealthPolicy};
    use dlhub_container::Cluster;
    use dlhub_fault::FaultHandle;
    use dlhub_obs::Telemetry;

    /// A cost of ten single-item dispatches at the given per-item
    /// inference and per-dispatch overhead.
    fn cost(inference_ms: f64, overhead_ms: f64) -> ServableCost {
        let overhead_ns = (overhead_ms * 1e6) as u64;
        ServableCost {
            dispatches: 10,
            items: 10,
            inference_ns: (inference_ms * 1e7) as u64,
            overhead_ns: overhead_ns * 10,
            overhead_floor_ns: overhead_ns,
        }
    }

    #[test]
    fn knee_matches_fig7() {
        // 40ms service / 3ms dispatch ≈ 14 replicas — the paper's ~15.
        assert_eq!(knee(&cost(40.0, 3.0), 32), 14);
        // Short servables want one replica; the budget caps the knee;
        // a free dispatch makes replicas pure win up to the budget.
        assert_eq!(knee(&cost(0.001, 3.0), 32), 1);
        assert_eq!(knee(&cost(0.0, 3.0), 32), 1);
        assert_eq!(knee(&cost(400.0, 3.0), 4), 4);
        assert_eq!(knee(&cost(40.0, 0.0), 32), 32);
    }

    #[test]
    fn knee_uses_the_floor_not_the_queue_inflated_mean() {
        // One uncontended 1 ms dispatch, then twenty that each waited
        // 80 ms in a queue: the mean says "dispatch costs 76 ms".
        let loaded = ServableCost {
            dispatches: 21,
            items: 21,
            inference_ns: 21 * 10_000_000,
            overhead_ns: 1_000_000 + 20 * 80_000_000,
            overhead_floor_ns: 1_000_000,
        };
        assert!(loaded.overhead() > Duration::from_millis(40));
        // 10 ms / 1 ms => 10 replicas, not 1.
        assert_eq!(knee(&loaded, 32), 10);
    }

    /// Scripted [`ScalingSignals`] fixture: costs, rates and burns by
    /// servable; anything unscripted is "no data".
    #[derive(Default)]
    struct Scripted {
        costs: HashMap<String, ServableCost>,
        rates: HashMap<String, f64>,
        burns: HashMap<String, f64>,
    }

    impl Scripted {
        /// `u/m` at 100 ms inference behind a 3 ms dispatch.
        fn heavy() -> Self {
            Scripted::default().cost("u/m", cost(100.0, 3.0))
        }

        fn cost(mut self, servable: &str, cost: ServableCost) -> Self {
            self.costs.insert(servable.to_string(), cost);
            self
        }

        fn rate(mut self, servable: &str, rate: f64) -> Self {
            self.rates.insert(servable.to_string(), rate);
            self
        }

        fn burn(mut self, servable: &str, burn: f64) -> Self {
            self.burns.insert(servable.to_string(), burn);
            self
        }
    }

    impl ScalingSignals for Scripted {
        fn servables(&self) -> Vec<String> {
            let mut ids: Vec<String> = self.costs.keys().cloned().collect();
            ids.sort();
            ids
        }

        fn arrival_rate(&self, servable: &str, _: Duration) -> Option<f64> {
            self.rates.get(servable).copied()
        }

        fn burn_rate(&self, servable: &str, _: Duration) -> Option<f64> {
            self.burns.get(servable).copied()
        }

        fn cost(&self, servable: &str) -> Option<ServableCost> {
            self.costs.get(servable).copied()
        }
    }

    const SEC: u64 = 1_000_000_000;

    fn parsl() -> ParslExecutor {
        ParslExecutor::new(
            Cluster::petrelkube(),
            1,
            &Obs::new(),
            FaultHandle::default(),
        )
    }

    fn control_setup(policy: ControlPolicy) -> (Arc<ParslExecutor>, Reconciler) {
        let executor = Arc::new(parsl());
        let ctl = Reconciler::new(Arc::clone(&executor), policy, &Obs::new());
        (executor, ctl)
    }

    #[test]
    fn reconciler_scales_up_then_holds_in_the_band() {
        let (executor, ctl) = control_setup(ControlPolicy::default());
        executor.scale("u/m", 1);
        // 20 req/s × 100 ms = 2 busy replicas on 1 → util 2.0, up.
        let signals = Scripted::heavy().rate("u/m", 20.0);
        let applied = ctl.reconcile_at(0, &signals);
        assert_eq!(applied.len(), 1);
        assert_eq!(applied[0].from, 1);
        assert_eq!(applied[0].to, 4); // ceil(2.0 / 0.6)
        assert_eq!(applied[0].reason, DecisionReason::ScaleUp);
        assert_eq!(executor.replicas("u/m"), 4);
        // Same steady load after the resize: util 0.5 sits inside the
        // (0.3, 0.85) band — no flapping by construction.
        assert!(ctl.reconcile_at(60 * SEC, &signals).is_empty());
        assert!(ctl.reconcile_at(120 * SEC, &signals).is_empty());
        assert_eq!(ctl.decisions().len(), 1);
    }

    #[test]
    fn cooldown_gates_consecutive_resizes() {
        let (executor, ctl) = control_setup(ControlPolicy::default());
        executor.scale("u/m", 1);
        assert_eq!(
            ctl.reconcile_at(0, &Scripted::heavy().rate("u/m", 20.0))
                .len(),
            1
        );
        // Load doubles one second later: still inside the 30 s
        // cooldown, so the loop must sit on its hands…
        let hot = Scripted::heavy().rate("u/m", 60.0);
        assert!(ctl.reconcile_at(SEC, &hot).is_empty());
        assert_eq!(executor.replicas("u/m"), 4);
        // …and act once the window has passed.
        let applied = ctl.reconcile_at(31 * SEC, &hot);
        assert_eq!(applied.len(), 1);
        assert_eq!(applied[0].to, 10); // ceil(6.0 / 0.6)
    }

    #[test]
    fn low_utilization_scales_down_to_target() {
        let (executor, ctl) = control_setup(ControlPolicy::default());
        executor.scale("u/m", 8);
        // 5 req/s × 100 ms = 0.5 busy on 8 replicas → util 0.0625.
        let applied = ctl.reconcile_at(0, &Scripted::heavy().rate("u/m", 5.0));
        assert_eq!(applied.len(), 1);
        assert_eq!(applied[0].reason, DecisionReason::ScaleDown);
        assert_eq!(applied[0].to, 1);
        assert_eq!(executor.replicas("u/m"), 1);
    }

    #[test]
    fn the_knee_and_the_budget_both_cap_the_target() {
        // 40 ms behind 3 ms: Little's law wants ceil(8 / 0.6) = 14 at
        // 200 req/s and 27 at 400 — the knee (14) stops the second.
        let fig7 = |rate| {
            Scripted::default()
                .cost("u/m", cost(40.0, 3.0))
                .rate("u/m", rate)
        };
        let policy = ControlPolicy {
            max_replicas: 32,
            cooldown: Duration::ZERO,
            ..ControlPolicy::default()
        };
        let (executor, ctl) = control_setup(policy.clone());
        executor.scale("u/m", 1);
        assert_eq!(ctl.reconcile_at(0, &fig7(400.0))[0].to, 14);
        // A burn breach at the knee buys nothing: dispatch is the wall.
        assert!(ctl
            .reconcile_at(SEC, &fig7(400.0).burn("u/m", 3.0))
            .is_empty());
        // A budget below the knee wins over it.
        let (executor, ctl) = control_setup(ControlPolicy {
            max_replicas: 4,
            ..policy
        });
        executor.scale("u/m", 1);
        assert_eq!(ctl.reconcile_at(0, &fig7(400.0))[0].to, 4);
    }

    #[test]
    fn cheap_servables_shrink_to_the_floor() {
        // Zero inference behind a 3 ms dispatch: demand is nil and the
        // knee is one replica, whatever the arrival rate.
        let (executor, ctl) = control_setup(ControlPolicy::default());
        executor.scale("u/util", 8);
        let signals = Scripted::default()
            .cost("u/util", cost(0.0, 3.0))
            .rate("u/util", 500.0);
        let applied = ctl.reconcile_at(0, &signals);
        assert_eq!(applied[0].to, 1);
        assert_eq!(executor.replicas("u/util"), 1);
    }

    #[test]
    fn thin_costs_are_not_acted_on() {
        let (executor, ctl) = control_setup(ControlPolicy::default());
        executor.scale("u/new", 3);
        let one_dispatch = ServableCost {
            dispatches: 1,
            items: 1,
            inference_ns: 40_000_000,
            overhead_ns: 3_000_000,
            overhead_floor_ns: 3_000_000,
        };
        let signals = Scripted::default()
            .cost("u/new", one_dispatch)
            .rate("u/new", 500.0);
        assert!(ctl.reconcile_at(0, &signals).is_empty());
        assert_eq!(executor.replicas("u/new"), 3);
    }

    #[test]
    fn idle_parks_to_warm_pool_and_wake_bypasses_cooldown() {
        let policy = ControlPolicy {
            idle_after: Duration::from_secs(10),
            warm_pool: 0,
            ..ControlPolicy::default()
        };
        let (executor, ctl) = control_setup(policy);
        executor.scale("u/m", 2);
        let quiet = Scripted::heavy().rate("u/m", 0.0);
        // Idle clock starts on the first quiet pass; nothing yet.
        assert!(ctl.reconcile_at(0, &quiet).is_empty());
        assert!(ctl.reconcile_at(5 * SEC, &quiet).is_empty());
        // Full idle window elapsed: park to zero.
        let parked = ctl.reconcile_at(10 * SEC, &quiet);
        assert_eq!(parked.len(), 1);
        assert_eq!(parked[0].reason, DecisionReason::IdlePark);
        assert_eq!(parked[0].to, 0);
        assert_eq!(executor.replicas("u/m"), 0);
        // Traffic returns 2 s later — far inside the 30 s cooldown —
        // and the wake must not wait it out.
        let woken = ctl.reconcile_at(12 * SEC, &Scripted::heavy().rate("u/m", 5.0));
        assert_eq!(woken.len(), 1);
        assert_eq!(woken[0].reason, DecisionReason::Wake);
        assert_eq!(executor.replicas("u/m"), 1);
    }

    #[test]
    fn burn_breach_buys_a_replica_even_inside_the_band() {
        let (executor, ctl) = control_setup(ControlPolicy::default());
        executor.scale("u/m", 4);
        // util 0.5 is inside the band, but the SLO is burning.
        let burning = Scripted::heavy().rate("u/m", 20.0).burn("u/m", 3.0);
        let applied = ctl.reconcile_at(0, &burning);
        assert_eq!(applied.len(), 1);
        assert_eq!(applied[0].to, 5);
        assert_eq!(applied[0].reason, DecisionReason::ScaleUp);
    }

    #[test]
    fn no_signal_history_means_no_action() {
        let (executor, ctl) = control_setup(ControlPolicy::default());
        executor.scale("u/m", 3);
        // A cost but no arrival history: rate is None.
        assert!(ctl.reconcile_at(0, &Scripted::heavy()).is_empty());
        assert_eq!(executor.replicas("u/m"), 3);
    }

    #[test]
    fn decision_log_is_byte_identical_across_replays() {
        let run = || {
            let (executor, ctl) = control_setup(ControlPolicy::default());
            executor.scale("u/m", 1);
            ctl.reconcile_at(0, &Scripted::heavy().rate("u/m", 20.0));
            ctl.reconcile_at(31 * SEC, &Scripted::heavy().rate("u/m", 60.0));
            ctl.reconcile_at(62 * SEC, &Scripted::heavy().rate("u/m", 5.0));
            ctl.log_text()
        };
        let first = run();
        assert_eq!(first, run());
        assert_eq!(
            first,
            "t=0.000s u/m 1->4 scale_up\n\
             t=31.000s u/m 4->10 scale_up\n\
             t=62.000s u/m 10->1 scale_down\n"
        );
    }

    #[test]
    fn decision_log_keeps_the_newest_and_the_counter_keeps_the_total() {
        let obs = Obs::new();
        let executor = Arc::new(parsl());
        let policy = ControlPolicy {
            cooldown: Duration::ZERO,
            ..ControlPolicy::default()
        };
        let ctl = Reconciler::new(Arc::clone(&executor), policy, &obs);
        executor.scale("u/m", 1);
        // Alternate between loads that want 4 replicas and 1: every
        // pass resizes.
        let total = 10 * DECISION_LOG_CAPACITY as u64;
        for pass in 0..total {
            let rate = if pass % 2 == 0 { 20.0 } else { 1.0 };
            let applied = ctl.reconcile_at(pass * SEC, &Scripted::heavy().rate("u/m", rate));
            assert_eq!(applied.len(), 1, "pass {pass}");
        }
        let counter = obs.metrics.counter("autoscale_decisions_total");
        assert_eq!(counter.get(), total);
        let retained = ctl.decisions();
        assert_eq!(retained.len(), DECISION_LOG_CAPACITY);
        let first_kept = total - DECISION_LOG_CAPACITY as u64;
        assert_eq!(retained[0].at_ns, first_kept * SEC);
        assert_eq!(retained.last().unwrap().at_ns, (total - 1) * SEC);
        assert_eq!(ctl.log_text().lines().count(), DECISION_LOG_CAPACITY);
    }

    fn quarantine_one_replica(executor: &ParslExecutor, servable: &str) {
        use crate::servable::servable_fn;
        use crate::value::Value;
        let failing = servable_fn(|_| Err("kaboom".into()));
        let _ = executor.execute(servable, &failing, &[Value::Null]);
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while executor.quarantined(servable) == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(
            executor.quarantined(servable),
            1,
            "replica never quarantined"
        );
    }

    #[test]
    fn reconciler_never_counts_quarantined_replicas_as_capacity() {
        let executor = Arc::new(parsl().with_health(Some(HealthPolicy {
            quarantine_after: 1,
            quarantine_for: Duration::from_secs(5),
        })));
        let ctl = Reconciler::new(Arc::clone(&executor), ControlPolicy::default(), &Obs::new());
        quarantine_one_replica(&executor, "u/sick");
        // Zero inference: demand is nil and the knee says one replica —
        // but that replica is quarantined, so the loop must buy a
        // healthy one, past the knee.
        let signals = Scripted::default()
            .cost("u/sick", cost(0.0, 3.0))
            .rate("u/sick", 5.0);
        let applied = ctl.reconcile_at(0, &signals);
        assert_eq!(applied.len(), 1);
        assert_eq!(applied[0].to, 2);
        assert_eq!(applied[0].reason, DecisionReason::ScaleUp);
    }

    #[test]
    fn control_signals_feed_the_loop_from_sampled_sums() {
        let obs = Obs::with_telemetry(Telemetry::Stepped(Duration::from_secs(1)));
        let signals = obs.telemetry.signals().unwrap();
        let w = Duration::from_secs(4);
        // Nothing sampled: no data, not zero.
        assert!(ScalingSignals::servables(signals).is_empty());
        assert_eq!(ScalingSignals::arrival_rate(signals, "u/ghost", w), None);
        assert_eq!(ScalingSignals::cost(signals, "u/ghost"), None);
        let series = obs.metrics.series("u/inception");
        for tick in 0..5u64 {
            series.requests.add(20);
            series
                .dispatch
                .record(2, Duration::from_millis(80), Duration::from_millis(83));
            obs.telemetry.sample_now(tick * SEC);
        }
        assert_eq!(ScalingSignals::servables(signals), vec!["u/inception"]);
        let arrival = ScalingSignals::arrival_rate(signals, "u/inception", w).unwrap();
        assert!((arrival - 20.0).abs() < 1e-9, "{arrival}");
        // The sampled cost is the live one: 40 ms an item, 3 ms floor.
        let sampled = ScalingSignals::cost(signals, "u/inception").unwrap();
        assert_eq!(Some(sampled), series.dispatch.cost());
        assert_eq!(sampled.inference(), Duration::from_millis(40));
        assert_eq!(knee(&sampled, 32), 14);
        // No SLO registered: burn rate reports no data, not zero.
        assert_eq!(ScalingSignals::burn_rate(signals, "u/inception", w), None);
    }
}
