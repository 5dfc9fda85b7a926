#![warn(missing_docs)]

//! # dlhub-fault
//!
//! Deterministic, seeded fault injection for the DLHub serving path.
//!
//! Production serving systems treat failure containment as a
//! first-class design axis (TensorFlow-Serving isolates model crashes;
//! DLHub's broker redelivers tasks leased by dead Task Managers). To
//! *test* that machinery, this crate provides a [`FaultPlan`]: a seeded
//! schedule of faults bound to **named sites** threaded through the
//! serving stack (replica execution, Task Manager intake, broker
//! send/recv, memo cache, batcher flush).
//!
//! The two properties the chaos suite depends on:
//!
//! * **Determinism** — whether the *n*-th arrival at a site faults is a
//!   pure function of `(seed, site, n, rule)`. The per-site arrival
//!   counter is atomic, so under a sequential workload the schedule is
//!   byte-identical across runs regardless of which thread reaches the
//!   site.
//! * **Zero cost when disabled** — a default [`FaultHandle`] is a
//!   `None`; every site check is one branch on an `Option`, with no
//!   allocation, hashing, or atomics.
//!
//! ```
//! use dlhub_fault::{site, FaultKind, FaultPlan, FaultSpec};
//!
//! let faults = FaultPlan::seeded(7)
//!     .inject(site::REPLICA, FaultSpec::new(FaultKind::Panic).probability(0.5))
//!     .build();
//! // Same seed, same site, same arrival index => same decision.
//! let a: Vec<bool> = (0..16).map(|_| faults.decide(site::REPLICA).is_some()).collect();
//! let again = FaultPlan::seeded(7)
//!     .inject(site::REPLICA, FaultSpec::new(FaultKind::Panic).probability(0.5))
//!     .build();
//! let b: Vec<bool> = (0..16).map(|_| again.decide(site::REPLICA).is_some()).collect();
//! assert_eq!(a, b);
//! ```

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use dlhub_sync::atomic::{AtomicU64, Ordering};
use dlhub_sync::Mutex;

/// Named injection sites threaded through the serving stack. Using
/// constants (rather than free strings) keeps the site catalog greppable
/// and the chaos tests honest about where faults can land.
pub mod site {
    /// A Parsl replica about to run a servable (`executor.rs`).
    pub const REPLICA: &str = "executor.replica";
    /// A Task Manager consumer about to handle a leased task
    /// (`task_manager.rs`). A `Crash` here abandons the delivery
    /// unsettled, modelling a TM killed mid-task.
    pub const TM_CRASH: &str = "task_manager.crash";
    /// Broker enqueue (`queue/broker.rs`). A `Drop` silently discards
    /// the message, modelling a lost publish.
    pub const BROKER_SEND: &str = "broker.send";
    /// Broker lease (`queue/broker.rs`). A `Drop` leases the message
    /// and abandons it, so the lease must expire before redelivery.
    pub const BROKER_RECV: &str = "broker.recv";
    /// Memo-cache lookup (`memo.rs` via `serving.rs`). `Slow` delays
    /// the lookup; `Error` forces a miss.
    pub const MEMO_GET: &str = "memo.get";
    /// Memo-cache insert. A `Drop` skips the insert.
    pub const MEMO_PUT: &str = "memo.put";
    /// Auto-batcher flush (`serving.rs`). An `Error` fails the whole
    /// coalesced dispatch.
    pub const BATCH_FLUSH: &str = "batch.flush";
}

/// What happens when a fault fires. Sites interpret the kinds they
/// understand and treat the rest as [`FaultKind::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Fail the operation with an injected error.
    Error,
    /// Panic inside the faulted component (replicas catch unwinds).
    Panic,
    /// Stall for the spec's delay — long enough to blow a deadline.
    Hang,
    /// Stall for the spec's delay, then proceed normally.
    Slow,
    /// Silently discard the operation's effect (a lost message, a
    /// skipped cache insert).
    Drop,
    /// Die mid-operation without acknowledging (Task Manager crash:
    /// the broker lease must expire before the task is redelivered).
    Crash,
}

/// One injection rule: a kind, a firing probability, and bounds on when
/// and how often it fires.
#[derive(Debug, Clone)]
pub struct FaultSpec {
    /// What to inject.
    pub kind: FaultKind,
    /// Probability in `[0, 1]` that an eligible arrival faults.
    pub probability: f64,
    /// Stall duration for `Hang`/`Slow` faults.
    pub delay: Duration,
    /// Fire at most this many times (`None` = unbounded).
    pub max: Option<u64>,
    /// Skip the first `after` arrivals at the site before becoming
    /// eligible (lets a workload warm up fault-free).
    pub after: u64,
}

impl FaultSpec {
    /// A rule firing on every eligible arrival (probability 1).
    pub fn new(kind: FaultKind) -> Self {
        FaultSpec {
            kind,
            probability: 1.0,
            delay: Duration::from_millis(50),
            max: None,
            after: 0,
        }
    }

    /// Set the firing probability (clamped to `[0, 1]`).
    pub fn probability(mut self, p: f64) -> Self {
        self.probability = p.clamp(0.0, 1.0);
        self
    }

    /// Set the stall duration for `Hang`/`Slow`.
    pub fn delay(mut self, delay: Duration) -> Self {
        self.delay = delay;
        self
    }

    /// Cap total firings.
    pub fn max(mut self, n: u64) -> Self {
        self.max = Some(n);
        self
    }

    /// Skip the first `n` arrivals.
    pub fn after(mut self, n: u64) -> Self {
        self.after = n;
        self
    }
}

/// A fired fault: what to do, and for how long (for stalls).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// The injected behavior.
    pub kind: FaultKind,
    /// Stall duration for `Hang`/`Slow`; zero otherwise meaningful.
    pub delay: Duration,
}

/// A record of one fired fault, kept for post-hoc assertions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Injection {
    /// The site that faulted.
    pub site: &'static str,
    /// Zero-based arrival index at the site when the fault fired.
    pub seq: u64,
    /// What was injected.
    pub kind: FaultKind,
}

struct SiteState {
    /// Arrivals at this site so far. The counter — not the calling
    /// thread — indexes the decision, which is what makes schedules
    /// reproducible under a sequential workload.
    seq: AtomicU64,
    rules: Vec<(FaultSpec, AtomicU64)>, // (rule, times fired)
}

struct Inner {
    seed: u64,
    sites: HashMap<&'static str, SiteState>,
    log: Mutex<Vec<Injection>>,
}

/// Builder for a seeded fault schedule.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<(&'static str, FaultSpec)>,
}

impl FaultPlan {
    /// Start a plan; every probabilistic decision derives from `seed`.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            rules: Vec::new(),
        }
    }

    /// Add a rule at a named site (see [`site`]). Multiple rules per
    /// site are checked in insertion order; the first that fires wins.
    pub fn inject(mut self, site: &'static str, spec: FaultSpec) -> Self {
        self.rules.push((site, spec));
        self
    }

    /// Freeze the plan into a shareable handle.
    pub fn build(self) -> FaultHandle {
        let mut sites: HashMap<&'static str, SiteState> = HashMap::new();
        for (site, spec) in self.rules {
            sites
                .entry(site)
                .or_insert_with(|| SiteState {
                    seq: AtomicU64::new(0),
                    rules: Vec::new(),
                })
                .rules
                .push((spec, AtomicU64::new(0)));
        }
        FaultHandle(Some(Arc::new(Inner {
            seed: self.seed,
            sites,
            log: Mutex::new(Vec::new()),
        })))
    }
}

/// A shareable handle to a frozen fault schedule. The default handle is
/// *disabled*: every [`FaultHandle::decide`] is a single branch on a
/// `None`, so production configurations pay nothing.
#[derive(Clone, Default)]
pub struct FaultHandle(Option<Arc<Inner>>);

impl FaultHandle {
    /// The disabled handle (same as `FaultHandle::default()`).
    pub fn disabled() -> Self {
        FaultHandle(None)
    }

    /// Whether any schedule is attached.
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Consult the schedule at a site. Returns `Some(fault)` when the
    /// site's next arrival should fault. Sites with no rules only pay
    /// one map lookup; a disabled handle pays one branch.
    #[inline]
    pub fn decide(&self, site: &'static str) -> Option<Fault> {
        let inner = self.0.as_ref()?;
        inner.decide(site)
    }

    /// Every fault fired so far, in firing order.
    pub fn injections(&self) -> Vec<Injection> {
        match &self.0 {
            Some(inner) => inner.log.lock().clone(),
            None => Vec::new(),
        }
    }

    /// Number of faults fired at `site` so far.
    pub fn injected(&self, site: &str) -> u64 {
        self.injections().iter().filter(|i| i.site == site).count() as u64
    }

    /// Total arrivals observed at `site` (faulted or not).
    pub fn arrivals(&self, site: &str) -> u64 {
        match &self.0 {
            Some(inner) => inner
                .sites
                .get(site)
                .map_or(0, |s| s.seq.load(Ordering::Relaxed)),
            None => 0,
        }
    }
}

impl std::fmt::Debug for FaultHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            Some(inner) => f
                .debug_struct("FaultHandle")
                .field("seed", &inner.seed)
                .field("sites", &inner.sites.keys().collect::<Vec<_>>())
                .finish(),
            None => f.write_str("FaultHandle(disabled)"),
        }
    }
}

impl Inner {
    fn decide(&self, site: &'static str) -> Option<Fault> {
        let state = self.sites.get(site)?;
        let seq = state.seq.fetch_add(1, Ordering::Relaxed);
        for (index, (spec, fired)) in state.rules.iter().enumerate() {
            if seq < spec.after {
                continue;
            }
            if let Some(max) = spec.max {
                if fired.load(Ordering::Relaxed) >= max {
                    continue;
                }
            }
            let roll = unit_interval(mix(
                self.seed,
                fnv1a(site.as_bytes()) ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                seq,
            ));
            if roll < spec.probability {
                if let Some(max) = spec.max {
                    // A racing firing may overshoot `max` by the number
                    // of concurrent arrivals; sequential workloads (the
                    // determinism contract) never do.
                    if fired.fetch_add(1, Ordering::Relaxed) >= max {
                        continue;
                    }
                } else {
                    fired.fetch_add(1, Ordering::Relaxed);
                }
                self.log.lock().push(Injection {
                    site,
                    seq,
                    kind: spec.kind,
                });
                return Some(Fault {
                    kind: spec.kind,
                    delay: spec.delay,
                });
            }
        }
        None
    }
}

/// FNV-1a over the site name: stable across runs and platforms (unlike
/// `DefaultHasher`, which is seeded per-process).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        hash ^= *b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// SplitMix64-style finalizer over (seed, site/rule, arrival index).
fn mix(seed: u64, salt: u64, seq: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt)
        .wrapping_add(seq.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Map a hash to `[0, 1)` using the top 53 bits.
fn unit_interval(hash: u64) -> f64 {
    (hash >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(seed: u64, p: f64) -> FaultHandle {
        FaultPlan::seeded(seed)
            .inject(
                site::REPLICA,
                FaultSpec::new(FaultKind::Error).probability(p),
            )
            .build()
    }

    #[test]
    fn disabled_handle_never_faults() {
        let h = FaultHandle::default();
        assert!(!h.enabled());
        for _ in 0..100 {
            assert_eq!(h.decide(site::REPLICA), None);
        }
        assert!(h.injections().is_empty());
        assert_eq!(h.arrivals(site::REPLICA), 0);
    }

    #[test]
    fn unconfigured_site_never_faults_but_rules_fire() {
        let h = plan(1, 1.0);
        assert_eq!(h.decide(site::BROKER_SEND), None);
        let fault = h.decide(site::REPLICA).expect("p=1 must fire");
        assert_eq!(fault.kind, FaultKind::Error);
        assert_eq!(h.injected(site::REPLICA), 1);
        assert_eq!(h.arrivals(site::REPLICA), 1);
    }

    #[test]
    fn same_seed_same_schedule() {
        for seed in [0u64, 7, 1848, 3141, u64::MAX] {
            let a: Vec<bool> = {
                let h = plan(seed, 0.3);
                (0..200)
                    .map(|_| h.decide(site::REPLICA).is_some())
                    .collect()
            };
            let b: Vec<bool> = {
                let h = plan(seed, 0.3);
                (0..200)
                    .map(|_| h.decide(site::REPLICA).is_some())
                    .collect()
            };
            assert_eq!(a, b, "seed {seed} schedule diverged");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a: Vec<bool> = {
            let h = plan(7, 0.5);
            (0..64).map(|_| h.decide(site::REPLICA).is_some()).collect()
        };
        let b: Vec<bool> = {
            let h = plan(8, 0.5);
            (0..64).map(|_| h.decide(site::REPLICA).is_some()).collect()
        };
        assert_ne!(
            a, b,
            "seeds 7 and 8 produced identical 64-arrival schedules"
        );
    }

    #[test]
    fn probability_is_roughly_honored() {
        let h = plan(42, 0.25);
        let fired = (0..4000)
            .filter(|_| h.decide(site::REPLICA).is_some())
            .count();
        assert!((700..1300).contains(&fired), "0.25 over 4000 fired {fired}");
    }

    #[test]
    fn after_skips_warmup_and_max_caps_firings() {
        let h = FaultPlan::seeded(3)
            .inject(
                site::TM_CRASH,
                FaultSpec::new(FaultKind::Crash).after(5).max(2),
            )
            .build();
        let fired: Vec<usize> = (0..20)
            .filter(|_| h.decide(site::TM_CRASH).is_some())
            .collect();
        assert_eq!(h.injected(site::TM_CRASH), 2);
        let log = h.injections();
        assert!(
            log.iter().all(|i| i.seq >= 5),
            "fired during warmup: {log:?}"
        );
        assert_eq!(fired.len(), 2);
    }

    #[test]
    fn first_matching_rule_wins_and_log_orders_firings() {
        let h = FaultPlan::seeded(9)
            .inject(site::MEMO_GET, FaultSpec::new(FaultKind::Slow).max(1))
            .inject(site::MEMO_GET, FaultSpec::new(FaultKind::Error))
            .build();
        let first = h.decide(site::MEMO_GET).unwrap();
        let second = h.decide(site::MEMO_GET).unwrap();
        assert_eq!(first.kind, FaultKind::Slow);
        assert_eq!(second.kind, FaultKind::Error);
        let log = h.injections();
        assert_eq!(log[0].seq, 0);
        assert_eq!(log[1].seq, 1);
    }

    #[test]
    fn decisions_are_arrival_indexed_not_thread_indexed() {
        // Collect the multiset of decisions from a threaded run; it
        // must equal the sequential schedule's multiset (each arrival
        // index gets the same verdict no matter which thread lands it).
        let sequential: Vec<bool> = {
            let h = plan(11, 0.4);
            (0..400)
                .map(|_| h.decide(site::REPLICA).is_some())
                .collect()
        };
        let h = plan(11, 0.4);
        let mut handles = Vec::new();
        for _ in 0..4 {
            let h = h.clone();
            handles.push(std::thread::spawn(move || {
                (0..100)
                    .filter(|_| h.decide(site::REPLICA).is_some())
                    .count()
            }));
        }
        let threaded: usize = handles.into_iter().map(|t| t.join().unwrap()).sum();
        assert_eq!(threaded, sequential.iter().filter(|b| **b).count());
    }

    #[test]
    fn clones_share_state() {
        let h = plan(5, 1.0);
        let clone = h.clone();
        clone.decide(site::REPLICA);
        assert_eq!(h.injected(site::REPLICA), 1);
        assert_eq!(h.arrivals(site::REPLICA), 1);
    }
}
