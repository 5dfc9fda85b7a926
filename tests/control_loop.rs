//! Control-loop suite: the closed autoscaling/admission loop under
//! seeded, deterministic simulated load.
//!
//! Every test drives the real stack — Management Service, reconciler,
//! Parsl executor, admission controller — but feeds it *virtual*
//! traffic: seeded Poisson arrivals ([`dlhub_bench::workload`]) are
//! binned onto a one-second tick grid into the servable's request
//! counter, and each tick closes with one control pass via
//! [`ManagementService::reconcile_at`] at its virtual timestamp. The
//! decision path never reads a wall clock, so a seed fully determines
//! the decision log:
//!
//! * decision logs replay byte-identical per seed;
//! * steady load never flaps (consecutive resizes are at least one
//!   cooldown apart, at most one change per cooldown window);
//! * idle pools park to the warm-pool floor (or to zero), and the
//!   first returning request pays the cold start *inside* its
//!   deadline;
//! * overload sheds early with a typed [`DlhubError::Overloaded`]
//!   carrying `retry_after_ms`, and under hostile-tenant bursts the
//!   weighted fair shares hold while the p99 of *accepted* requests
//!   stays within the SLO.
//!
//! The default seed matrix is `[7, 1848, 3141]`; `CONTROL_SEED=<seed>`
//! narrows it to one seed, mirroring the chaos suite's `CHAOS_SEED`.
//!
//! [`ManagementService::reconcile_at`]: dlhub_core::serving::ManagementService::reconcile_at

use dlhub_auth::IdentityId;
use dlhub_bench::time::SimTime;
use dlhub_bench::workload::PoissonArrivals;
use dlhub_core::admission::{AdmissionConfig, AdmissionController, AdmissionPermit};
use dlhub_core::autoscale::ControlPolicy;
use dlhub_core::hub::TestHub;
use dlhub_core::obs::Obs;
use dlhub_core::servable::{servable_fn, ModelType};
use dlhub_core::serving::ServingConfig;
use dlhub_core::value::Value;
use dlhub_core::DlhubError;
use std::time::{Duration, Instant};

const SEC: u64 = 1_000_000_000;

fn seeds() -> Vec<u64> {
    match std::env::var("CONTROL_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
    {
        Some(seed) => vec![seed],
        None => vec![7, 1848, 3141],
    }
}

fn counter(hub: &TestHub, name: &str) -> u64 {
    hub.service
        .obs()
        .snapshot()
        .counters
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| *v)
        .unwrap_or(0)
}

fn cold_starts(hub: &TestHub) -> u64 {
    hub.service
        .obs()
        .snapshot()
        .histograms
        .iter()
        .find(|(n, _)| n == "cold_start_ns")
        .map(|(_, h)| h.count)
        .unwrap_or(0)
}

/// A hub wired for virtual-clock control: autoscaling configured (no
/// background thread — the tests drive `reconcile_at` themselves) and
/// one published echo servable with a scripted 100 ms inference cost
/// behind `replicas` warm replicas.
fn control_hub(policy: ControlPolicy, replicas: usize) -> TestHub {
    let hub = TestHub::builder()
        .without_eval_servables()
        .config(ServingConfig {
            autoscale: Some(policy),
            ..ServingConfig::default()
        })
        .build();
    hub.publish_simple(
        "m",
        ModelType::PythonFunction,
        servable_fn(|v| Ok(v.clone())),
    );
    let series = hub.service.obs().metrics.series("dlhub/m");
    for _ in 0..10 {
        series
            .dispatch
            .record(1, Duration::from_millis(100), Duration::from_millis(103));
    }
    hub.parsl.scale("dlhub/m", replicas);
    hub
}

/// Walk virtual seconds `[from_s, to_s)`: bin the arrivals of each
/// tick into the requests counter, then run one control pass at the
/// tick's closing timestamp.
fn drive(hub: &TestHub, arrivals: &mut PoissonArrivals, from_s: u64, to_s: u64) {
    for s in from_s..to_s {
        let t = (s + 1) * SEC;
        let n = arrivals.count_until(SimTime(t));
        hub.service.obs().metrics.series("dlhub/m").requests.add(n);
        hub.service.reconcile_at(t);
    }
}

fn scenario_policy() -> ControlPolicy {
    ControlPolicy {
        cooldown: Duration::from_secs(30),
        idle_after: Duration::from_secs(20),
        warm_pool: 0,
        signal_window: Duration::from_secs(10),
        ..ControlPolicy::default()
    }
}

/// The reference scenario: ramp up, surge, drain, go idle. Returns the
/// canonical decision log plus the applied-decision counter.
fn run_scenario(seed: u64) -> (String, u64) {
    let hub = control_hub(scenario_policy(), 1);
    let mut arrivals = PoissonArrivals::new(20.0, seed);
    drive(&hub, &mut arrivals, 0, 60);
    arrivals.set_rate(60.0);
    drive(&hub, &mut arrivals, 60, 120);
    arrivals.set_rate(2.0);
    drive(&hub, &mut arrivals, 120, 180);
    arrivals.set_rate(0.0);
    drive(&hub, &mut arrivals, 180, 240);
    let log = hub.service.reconciler().expect("autoscaler attached");
    (log.log_text(), counter(&hub, "autoscale_decisions_total"))
}

#[test]
fn decision_logs_replay_byte_identical_per_seed() {
    let mut logs = Vec::new();
    for seed in seeds() {
        let (first, first_count) = run_scenario(seed);
        let (second, second_count) = run_scenario(seed);
        assert_eq!(first, second, "seed {seed}: decision logs diverged");
        assert_eq!(first_count, second_count, "seed {seed}");
        assert_eq!(
            first.lines().count() as u64,
            first_count,
            "seed {seed}: counter disagrees with the log"
        );
        // The scenario must exercise the whole decision vocabulary.
        for reason in ["scale_up", "scale_down", "idle_park"] {
            assert!(
                first.contains(reason),
                "seed {seed}: no {reason} in:\n{first}"
            );
        }
        logs.push(first);
    }
    if logs.len() > 1 {
        // Different seeds draw different Poisson ticks; the logs must
        // not all collapse onto one schedule.
        assert!(
            logs.windows(2).any(|w| w[0] != w[1]),
            "all seeds produced identical decision logs"
        );
    }
}

#[test]
fn steady_load_never_flaps() {
    for seed in seeds() {
        let policy = scenario_policy();
        let cooldown_ns = policy.cooldown.as_nanos() as u64;
        let hub = control_hub(policy, 1);
        // 20 req/s × 100 ms on the scaled pool sits mid-band: after
        // the initial scale-up the loop must hold for five minutes.
        let mut arrivals = PoissonArrivals::new(20.0, seed);
        drive(&hub, &mut arrivals, 0, 300);
        let decisions = hub.service.reconciler().unwrap().decisions();
        assert!(!decisions.is_empty(), "seed {seed}: never scaled up");
        assert!(
            decisions.len() <= 2,
            "seed {seed}: {} changes under steady load:\n{}",
            decisions.len(),
            hub.service.reconciler().unwrap().log_text()
        );
        // No flapping: consecutive resizes at least one cooldown
        // apart, so no cooldown-aligned window sees two changes.
        for pair in decisions.windows(2) {
            assert!(
                pair[1].at_ns - pair[0].at_ns >= cooldown_ns,
                "seed {seed}: resizes {} and {} inside one cooldown",
                pair[0],
                pair[1]
            );
        }
        let replicas = hub.parsl.replicas("dlhub/m");
        assert!((3..=5).contains(&replicas), "seed {seed}: {replicas}");
    }
}

#[test]
fn idle_pools_scale_to_zero_and_cold_start_within_deadline() {
    let policy = ControlPolicy {
        idle_after: Duration::from_secs(5),
        warm_pool: 0,
        signal_window: Duration::from_secs(3),
        ..ControlPolicy::default()
    };
    let hub = control_hub(policy, 2);
    let baseline = cold_starts(&hub);
    let mut quiet = PoissonArrivals::new(0.0, 7);
    drive(&hub, &mut quiet, 0, 12);
    assert_eq!(hub.parsl.replicas("dlhub/m"), 0, "pool never parked");
    let log = hub.service.reconciler().unwrap().log_text();
    assert!(log.contains("idle_park"), "{log}");
    // The first returning request pays the cold start — and must
    // still answer well inside the request deadline.
    let started = Instant::now();
    let out = hub
        .service
        .run(&hub.token, "dlhub/m", Value::Str("back".into()))
        .expect("cold start must serve");
    assert_eq!(out.value, Value::Str("back".into()));
    assert!(
        started.elapsed() < ServingConfig::default().request_deadline,
        "cold start blew the deadline: {:?}",
        started.elapsed()
    );
    assert_eq!(
        cold_starts(&hub),
        baseline + 1,
        "cold start was not recorded"
    );
    assert!(hub.parsl.replicas("dlhub/m") > 0);
}

#[test]
fn warm_pool_floor_absorbs_the_return_without_a_cold_start() {
    let policy = ControlPolicy {
        idle_after: Duration::from_secs(5),
        warm_pool: 1,
        signal_window: Duration::from_secs(3),
        ..ControlPolicy::default()
    };
    let hub = control_hub(policy, 3);
    let baseline = cold_starts(&hub);
    let mut quiet = PoissonArrivals::new(0.0, 7);
    drive(&hub, &mut quiet, 0, 12);
    // Parked to the floor, not to zero: one replica stays warm.
    assert_eq!(hub.parsl.replicas("dlhub/m"), 1, "warm pool ignored");
    let out = hub
        .service
        .run(&hub.token, "dlhub/m", Value::Str("back".into()))
        .expect("warm replica must serve");
    assert_eq!(out.value, Value::Str("back".into()));
    assert_eq!(
        cold_starts(&hub),
        baseline,
        "warm-pool return should not pay a cold start"
    );
}

#[test]
fn overload_sheds_typed_overloaded_with_retry_after() {
    // max_inflight 0 is a permanently saturated front door: every
    // arrival is shed at the hard cap with the typed back-off.
    let hub = TestHub::builder()
        .without_eval_servables()
        .config(ServingConfig {
            admission: Some(AdmissionConfig {
                max_inflight: 0,
                retry_after: Duration::from_millis(40),
                ..AdmissionConfig::default()
            }),
            ..ServingConfig::default()
        })
        .build();
    hub.publish_simple(
        "m",
        ModelType::PythonFunction,
        servable_fn(|v| Ok(v.clone())),
    );
    let err = hub
        .service
        .run(&hub.token, "dlhub/m", Value::Null)
        .unwrap_err();
    assert_eq!(err, DlhubError::Overloaded { retry_after_ms: 40 });
    assert_eq!(counter(&hub, "requests_shed_total"), 1);
    // The async intake sheds at the same door.
    match hub.service.run_async(&hub.token, "dlhub/m", Value::Null) {
        Err(DlhubError::Overloaded { retry_after_ms: 40 }) => {}
        Err(other) => panic!("async shed was mistyped: {other:?}"),
        Ok(_) => panic!("async intake was admitted past a full door"),
    }
    assert_eq!(counter(&hub, "requests_shed_total"), 2);
}

/// Outcome of one seeded admission/queueing sim run.
#[derive(Debug, PartialEq)]
struct FairnessOutcome {
    accepted: [u64; 3],
    shed: [u64; 3],
    p99_ms: f64,
}

/// A deterministic virtual-clock overload: three tenants (weights 2,
/// 1 and 0) offer 60 + 30 + 300 req/s against 2 replicas of 20 ms —
/// roughly four times capacity. Admission runs the real
/// [`AdmissionController`]; accepted requests queue FIFO onto the
/// earliest-free replica, permits release at virtual completion time.
fn fairness_sim(seed: u64) -> FairnessOutcome {
    const STEP_NS: u64 = 1_000_000; // 1 ms
    const STEPS: u64 = 10_000; // 10 virtual seconds
    const SERVICE_NS: u64 = 20_000_000; // 20 ms
    const REPLICAS: usize = 2;

    let mut config = AdmissionConfig {
        max_inflight: 8,
        fair_share_at: 0.25,
        retry_after: Duration::from_millis(25),
        ..AdmissionConfig::default()
    };
    config.weights.insert(IdentityId(1), 2);
    config.weights.insert(IdentityId(2), 1);
    config.weights.insert(IdentityId(3), 0); // hostile: scavenger only
    let ctl = AdmissionController::new(config, &Obs::new());

    let mut tenants = [
        (IdentityId(1), PoissonArrivals::new(60.0, seed)),
        (
            IdentityId(2),
            PoissonArrivals::new(30.0, seed ^ 0x9e37_79b9_7f4a_7c15),
        ),
        (
            IdentityId(3),
            PoissonArrivals::new(300.0, seed.rotate_left(17) | 1),
        ),
    ];
    let mut free_at = [0u64; REPLICAS];
    let mut holding: Vec<(u64, AdmissionPermit)> = Vec::new();
    let mut accepted = [0u64; 3];
    let mut shed = [0u64; 3];
    let mut latencies_ns: Vec<u64> = Vec::new();

    for step in 0..STEPS {
        let now = step * STEP_NS;
        // Completed requests release their admission slots.
        holding.retain(|(finish, _)| *finish > now);
        for (slot, (tenant, arrivals)) in tenants.iter_mut().enumerate() {
            let n = arrivals.count_until(SimTime(now + STEP_NS));
            for _ in 0..n {
                match ctl.admit(*tenant, false) {
                    Ok(permit) => {
                        let idx = (0..REPLICAS)
                            .min_by_key(|i| free_at[*i])
                            .expect("replicas > 0");
                        let start = free_at[idx].max(now);
                        let finish = start + SERVICE_NS;
                        free_at[idx] = finish;
                        latencies_ns.push(finish - now);
                        holding.push((finish, permit));
                        accepted[slot] += 1;
                    }
                    Err(DlhubError::Overloaded { retry_after_ms }) => {
                        assert_eq!(retry_after_ms, 25, "wrong back-off");
                        shed[slot] += 1;
                    }
                    Err(other) => panic!("untyped shed: {other:?}"),
                }
            }
        }
    }
    latencies_ns.sort_unstable();
    let p99_ms = latencies_ns[(latencies_ns.len() - 1) * 99 / 100] as f64 / 1e6;
    FairnessOutcome {
        accepted,
        shed,
        p99_ms,
    }
}

#[test]
fn hostile_bursts_cannot_starve_tenants_and_accepted_p99_holds() {
    for seed in seeds() {
        let outcome = fairness_sim(seed);
        // Byte-identical replay: the outcome is a pure seed function.
        assert_eq!(outcome, fairness_sim(seed), "seed {seed}: diverged");
        let [a, b, hostile] = outcome.accepted;
        // Nobody starves: both weighted tenants keep flowing even
        // while the zero-weight tenant offers 10× their load.
        assert!(a >= 100, "seed {seed}: tenant A starved: {outcome:?}");
        assert!(b >= 50, "seed {seed}: tenant B starved: {outcome:?}");
        // Weight 2 outranks weight 1 under contention.
        assert!(a > b, "seed {seed}: weights inverted: {outcome:?}");
        // The hostile tenant scavenges at most idle capacity — with
        // 10× the offered load it must not out-admit the weighted
        // tenants, and the door sheds the bulk of its burst.
        assert!(hostile < b, "seed {seed}: hostile won: {outcome:?}");
        assert!(
            outcome.shed[2] > hostile,
            "seed {seed}: hostile mostly admitted: {outcome:?}"
        );
        // Shedding early is what keeps the *accepted* requests fast:
        // bounded inflight (8) over 2×20 ms replicas caps queue wait
        // at ~80 ms, so p99 must hold a 150 ms SLO with margin.
        assert!(
            outcome.p99_ms <= 150.0,
            "seed {seed}: accepted p99 {}ms blew the SLO",
            outcome.p99_ms
        );
    }
}
