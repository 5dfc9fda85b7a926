//! Soak gate: what the hub keeps is a function of its configuration,
//! not of how many requests or client threads it has served — and what
//! a request allocates is a function of what it carries.
//!
//! A counting global allocator tracks the process's live heap and its
//! allocation calls. Each case builds the benchmark's hub (one Task
//! Manager, two consumers, two replicas, memo off, tracing on), warms it
//! up from two long-lived client threads, then drives one public entry
//! point a fixed number of times and asserts that the live heap at the
//! end is within [`SLACK`] of the live heap at the 10 % mark. A retainer
//! that keeps bytes per request or per thread fails it; caches and
//! bounded stores are full by the 10 % mark.
//!
//! The allocation budget drives one entry point at a time from one
//! client thread and counts allocation calls on every thread of the
//! process — Management Service, Task Manager consumers, replicas — per
//! request, against [`ALLOCATION_BUDGETS`].
//!
//! The hand-off budget drives `noop` runs from one client thread and
//! counts voluntary context switches on every thread of the process
//! (`/proc/self/task/*/status`) per request: each is a thread parking
//! until another hands it work, so each is one hand-off. Its hub runs on
//! one CPU, as the benchmark's does. A `noop` run is held to
//! [`NOOP_HANDOFF_BUDGET`], and a 3-step matminer pipeline to
//! [`PIPELINE_HANDOFF_BUDGET`].
//!
//! A hub at rest holds no model it has not served: publishing the six
//! evaluation servables stays under [`AT_REST_BUDGET`], and serving one
//! model adds that model's weights and no other's.
//!
//! The cases run only in release (`#[ignore]`d for `cargo test`):
//!
//! ```text
//! cargo test --release -p dlhub-bench --test soak -- --ignored
//! ```

use dlhub_client::rest::RestApi;
use dlhub_core::admission::AdmissionConfig;
use dlhub_core::hub::TestHub;
use dlhub_core::pipeline::Pipeline;
use dlhub_core::servable::builtins::{ImageClassifier, MatminerModel};
use dlhub_core::serving::ServingConfig;
use dlhub_core::task::TaskStatus;
use dlhub_core::value::Value;
use serde_json::json;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::Duration;

/// Live heap a default hub may hold once built, before any request: the
/// six servables' metadata and closures, the tiers and their stores
/// (≈ 110 KB in release on x86-64). CIFAR-10's weights (≈ 4.3 MB) and
/// Inception's (≈ 3.6 MB) do not fit; the matminer forest (≈ 170 KB)
/// does, so whether it was built is asked of the servable itself.
const AT_REST_BUDGET: i64 = 384 * 1024;
/// Live-heap growth a case may show between its 10 % and 100 % marks.
const SLACK: i64 = 256 * 1024;
/// Long-lived client threads, as in the benchmark.
const CLIENTS: usize = 2;
const UTIL: &str = "dlhub/matminer-util";
const PIPELINE: &str = "soak-formation-enthalpy";
const FORMULAS: [&str; 8] = [
    "NaCl", "SiO2", "Fe2O3", "Al2O3", "MgO", "TiO2", "ZnO", "CuO",
];
const WAIT: Duration = Duration::from_secs(30);

/// Allocation calls a request may make, per entry point, counted on
/// every thread: (case, servable or pipeline, budget). What is left is
/// what the request carries — DESIGN.md §7, "What a request allocates".
/// The admitted case runs on [`admitted_hub`] with a control pass every
/// [`PASS_EVERY`] requests: admission reads the pass's verdict, so it
/// costs a request nothing the plain run does not.
const ALLOCATION_BUDGETS: [(&str, &str, f64); 4] = [
    ("noop run", "dlhub/noop", 24.0),
    (ADMITTED, "dlhub/noop", 24.0),
    ("matminer-util run", UTIL, 70.0),
    ("3-step run_pipeline", PIPELINE, 105.0),
];
const ADMITTED: &str = "admitted noop run";
/// Requests between two control passes in the admitted case.
const PASS_EVERY: usize = 100;

/// Voluntary context switches a `noop` run may cost, on every thread:
/// the request to a Task Manager consumer and the reply to the client.
/// A servable that runs faster than a hand-off to a replica runs on the
/// consumer that took its task.
const NOOP_HANDOFF_BUDGET: f64 = 2.0;
/// Voluntary context switches a 3-step `run_pipeline` may cost, on
/// every thread: the same two as a `noop` run. Each step's run is
/// shorter than a hand-off's wake and park, so the chain runs on the
/// consumer that took its task (DESIGN.md §7, "A sub-hop servable runs
/// on its dispatcher", has the counts).
const PIPELINE_HANDOFF_BUDGET: f64 = 2.0;

/// Live heap bytes: allocated minus freed, over the whole process.
static LIVE: AtomicI64 = AtomicI64::new(0);
/// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`) so far.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged, so `System` upholds the `GlobalAlloc` contract; the
// counters are only bookkeeping beside it.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded as is; the caller guarantees `layout`.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded as is; the caller guarantees `layout`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded as is; `ptr` came from this allocator,
        // which is `System`, with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded as is; the caller guarantees `ptr`,
        // `layout` and `new_size`.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The heap is one per process, so cases measure one at a time.
fn serial() -> MutexGuard<'static, ()> {
    static SOAK: Mutex<()> = Mutex::new(());
    SOAK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The benchmark's hub. A short auto-batch delay only speeds up the
/// `run_batched` case; no other entry point reads it.
fn hub() -> TestHub {
    let config = ServingConfig {
        batch_delay: Duration::from_micros(200),
        ..ServingConfig::default()
    };
    let hub = TestHub::builder()
        .task_managers(1)
        .consumers(2)
        .replicas(2)
        .config(config)
        .memo(false)
        .build();
    let steps = [
        "dlhub/matminer-util",
        "dlhub/matminer-featurize",
        "dlhub/matminer-model",
    ];
    let steps = steps.iter().map(|s| s.to_string()).collect();
    hub.service
        .register_pipeline(&hub.token, Pipeline::new(PIPELINE, steps))
        .expect("the three matminer stages are published");
    hub
}

/// The benchmark's tiers with admission configured (no background control thread:
/// the case drives the passes).
fn admitted_hub() -> TestHub {
    let config = ServingConfig {
        admission: Some(AdmissionConfig::default()),
        ..ServingConfig::default()
    };
    TestHub::builder()
        .task_managers(1)
        .consumers(2)
        .replicas(2)
        .config(config)
        .memo(false)
        .build()
}

fn formula(i: usize) -> Value {
    Value::Str(FORMULAS[i % FORMULAS.len()].to_string())
}

/// What `make` leaves on the live heap, and what it made.
fn retained<T>(make: impl FnOnce() -> T) -> (T, i64) {
    let before = LIVE.load(Ordering::Relaxed);
    let made = make();
    (made, LIVE.load(Ordering::Relaxed) - before)
}

/// Drive `op(i)` from [`CLIENTS`] long-lived threads: `warmup` calls,
/// then `count`, split evenly between them. Fails if the live heap
/// grew by [`SLACK`] or more between the 10 % mark and the end.
fn soak(case: &str, warmup: usize, count: usize, op: impl Fn(usize) + Sync) {
    let (warmup, count) = (warmup / CLIENTS, count / CLIENTS);
    let mark = warmup + count / 10;
    let marks = Barrier::new(CLIENTS + 1);
    let (at_mark, at_end) = thread::scope(|scope| {
        for _ in 0..CLIENTS {
            let (op, marks) = (&op, &marks);
            scope.spawn(move || {
                (0..mark).for_each(op);
                marks.wait();
                marks.wait();
                (mark..warmup + count).for_each(op);
                marks.wait();
            });
        }
        marks.wait();
        let at_mark = LIVE.load(Ordering::Relaxed);
        marks.wait();
        marks.wait();
        (at_mark, LIVE.load(Ordering::Relaxed))
    });
    let growth = at_end - at_mark;
    let calls = CLIENTS * (warmup + count - mark);
    println!("soak {case}: live heap {at_mark} -> {at_end} B ({growth:+} B over {calls} calls)");
    assert!(
        growth < SLACK,
        "{case}: the live heap grew {growth} B over {calls} calls ({at_mark} -> {at_end} B), \
         {} B per call",
        growth / calls as i64
    );
}

/// Allocation calls per request of `op`, on every thread, after
/// `warmup` calls: one client, so every call's work is its own.
fn allocations_per_request(warmup: usize, count: usize, op: impl Fn(usize)) -> f64 {
    (0..warmup).for_each(&op);
    let before = ALLOCS.load(Ordering::Relaxed);
    (warmup..warmup + count).for_each(&op);
    (ALLOCS.load(Ordering::Relaxed) - before) as f64 / count as f64
}

extern "C" {
    // glibc; std already links it.
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Confine this thread, and every thread it starts from now on, to the
/// highest-numbered CPU it may use. With threads on two CPUs, whether a
/// wake-up lands on a parked thread or on one still running is up to
/// the scheduler's placement: one CPU, as in the benchmark, takes the
/// count out of its hands.
fn pin_to_one_cpu() {
    // Room for 1024 CPUs, glibc's `cpu_set_t`.
    const WORDS: usize = 16;
    let mut mask = [0u64; WORDS];
    // SAFETY: `mask` is `WORDS * 8` writable bytes, the size passed.
    let read = unsafe { sched_getaffinity(0, WORDS * 8, mask.as_mut_ptr()) };
    assert_eq!(read, 0, "sched_getaffinity failed");
    let word = mask.iter().rposition(|w| *w != 0).expect("a CPU to run on");
    let mut only = [0u64; WORDS];
    only[word] = 1 << (63 - mask[word].leading_zeros());
    // SAFETY: `only` is `WORDS * 8` readable bytes, the size passed.
    let set = unsafe { sched_setaffinity(0, WORDS * 8, only.as_ptr()) };
    assert_eq!(set, 0, "sched_setaffinity failed");
}

/// Voluntary context switches so far, summed over the process's live
/// threads.
fn voluntary_switches() -> u64 {
    let tasks = std::fs::read_dir("/proc/self/task").expect("procfs lists this process's threads");
    tasks
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("status")).ok())
        .filter_map(|status| {
            let line = status
                .lines()
                .find(|line| line.starts_with("voluntary_ctxt_switches:"))?;
            line.split_whitespace().nth(1)?.parse::<u64>().ok()
        })
        .sum()
}

/// Voluntary context switches per request of `op`, on every thread,
/// after `warmup` calls: one client, so every switch is its call's.
fn hand_offs_per_request(warmup: usize, count: usize, op: impl Fn(usize)) -> f64 {
    (0..warmup).for_each(&op);
    let before = voluntary_switches();
    (warmup..warmup + count).for_each(&op);
    (voluntary_switches() - before) as f64 / count as f64
}

#[test]
#[ignore = "soak: run in release with --ignored"]
fn a_noop_request_costs_at_most_two_hand_offs() {
    let _serial = serial();
    // Before the hub exists, so its threads inherit the one CPU; the
    // test's own thread exits with the case.
    pin_to_one_cpu();
    let hub = hub();
    let noop = hand_offs_per_request(2_000, 5_000, |_| {
        hub.service
            .run(&hub.token, "dlhub/noop", Value::Null)
            .unwrap();
    });
    let pipeline = hand_offs_per_request(2_000, 5_000, |i| {
        hub.service
            .run_pipeline(&hub.token, PIPELINE, formula(i))
            .unwrap();
    });
    println!("hand-offs noop run: {noop:.2} per request (budget {NOOP_HANDOFF_BUDGET})");
    println!(
        "hand-offs 3-step run_pipeline: {pipeline:.2} per request \
         (budget {PIPELINE_HANDOFF_BUDGET})"
    );
    assert!(
        noop <= NOOP_HANDOFF_BUDGET,
        "a noop run costs {noop:.2} voluntary context switches per request, \
         over the budget of {NOOP_HANDOFF_BUDGET}"
    );
    assert!(
        pipeline <= PIPELINE_HANDOFF_BUDGET,
        "a 3-step run_pipeline costs {pipeline:.2} voluntary context switches per request, \
         over the budget of {PIPELINE_HANDOFF_BUDGET}"
    );
}

#[test]
#[ignore = "soak: run in release with --ignored"]
fn a_request_allocates_only_what_it_carries() {
    let _serial = serial();
    let (hub, admitted) = (hub(), admitted_hub());
    let measured: Vec<(&str, f64, f64)> = ALLOCATION_BUDGETS
        .iter()
        .map(|&(case, target, budget)| {
            let per_request = allocations_per_request(2_000, 5_000, |i| {
                if case == ADMITTED {
                    if i % PASS_EVERY == 0 {
                        admitted.service.reconcile_now();
                    }
                    admitted
                        .service
                        .run(&admitted.token, target, Value::Null)
                        .unwrap();
                } else if target == PIPELINE {
                    hub.service
                        .run_pipeline(&hub.token, PIPELINE, formula(i))
                        .unwrap();
                } else {
                    let input = if target == UTIL {
                        formula(i)
                    } else {
                        Value::Null
                    };
                    hub.service.run(&hub.token, target, input).unwrap();
                }
            });
            println!("allocations {case}: {per_request:.1} per request (budget {budget})");
            (case, per_request, budget)
        })
        .collect();
    let over: Vec<String> = measured
        .iter()
        .filter(|(_, per_request, budget)| per_request > budget)
        .map(|(case, per_request, budget)| format!("{case} {per_request:.1} > {budget}"))
        .collect();
    assert!(
        over.is_empty(),
        "allocations per request over budget: {} (all: {measured:?})",
        over.join(", ")
    );
}

#[test]
#[ignore = "soak: run in release with --ignored"]
fn run_keeps_nothing_per_request() {
    let _serial = serial();
    let hub = hub();
    soak("run", 4_000, 100_000, |i| {
        hub.service.run(&hub.token, UTIL, formula(i)).unwrap();
    });
}

#[test]
#[ignore = "soak: run in release with --ignored"]
fn run_pipeline_keeps_nothing_per_request() {
    let _serial = serial();
    let hub = hub();
    soak("run_pipeline", 2_000, 40_000, |i| {
        hub.service
            .run_pipeline(&hub.token, PIPELINE, formula(i))
            .unwrap();
    });
}

#[test]
#[ignore = "soak: run in release with --ignored"]
fn run_batch_keeps_nothing_per_request() {
    let _serial = serial();
    let hub = hub();
    soak("run_batch", 400, 8_000, |i| {
        let inputs = (i..i + 32).map(formula).collect();
        hub.service.run_batch(&hub.token, UTIL, inputs).unwrap();
    });
}

#[test]
#[ignore = "soak: run in release with --ignored"]
fn run_batched_keeps_nothing_per_request() {
    let _serial = serial();
    let hub = hub();
    soak("run_batched", 1_000, 20_000, |i| {
        hub.service
            .run_batched(&hub.token, UTIL, formula(i))
            .unwrap();
    });
}

#[test]
#[ignore = "soak: run in release with --ignored"]
fn run_async_and_wait_keeps_nothing_per_request() {
    let _serial = serial();
    let hub = hub();
    soak("run_async + wait", 4_000, 100_000, |i| {
        let handle = hub.service.run_async(&hub.token, UTIL, formula(i)).unwrap();
        assert!(matches!(handle.wait(WAIT), TaskStatus::Completed(_)));
    });
}

#[test]
#[ignore = "soak: run in release with --ignored"]
fn run_async_never_waited_on_is_bounded_by_the_cap() {
    let _serial = serial();
    let hub = hub();
    // Every 64th call is waited on, so the async pool's queue stays
    // short and what is measured is the table. Each client's last call
    // before a mark of `soak` is a waited one, and the warm-up leaves
    // far more unretrieved results than the table's cap.
    soak("run_async, never waited", 12_800, 102_400, |i| {
        let handle = hub.service.run_async(&hub.token, UTIL, formula(i)).unwrap();
        if i % 64 == 63 {
            assert!(matches!(handle.wait(WAIT), TaskStatus::Completed(_)));
        }
    });
}

#[test]
#[ignore = "soak: run in release with --ignored"]
fn rest_run_async_and_poll_keeps_nothing_per_request() {
    let _serial = serial();
    let hub = hub();
    let api = RestApi::new(hub.service.clone());
    soak("REST run_async + GET /tasks/{id}", 2_000, 40_000, |i| {
        let body = json!({ "input": { "Str": FORMULAS[i % FORMULAS.len()] } });
        let submitted = api.handle(
            "POST",
            "/servables/dlhub/matminer-util/run_async",
            Some(&hub.token),
            body,
        );
        let path = format!("/tasks/{}", submitted.body["task_id"].as_str().unwrap());
        loop {
            let poll = api.handle("GET", &path, None, json!({}));
            assert_eq!(poll.status, 200, "{}", poll.body);
            if poll.body["status"] == "completed" {
                break;
            }
            thread::yield_now();
        }
    });
}

#[test]
#[ignore = "soak: run in release with --ignored"]
fn short_lived_client_threads_keep_nothing_per_thread() {
    let _serial = serial();
    let hub = hub();
    // Each call is one client thread serving ten runs and exiting. The
    // warm-up's threads leave enough spans to fill the bounded trace
    // store, which their released rings drain into.
    soak("thread churn (10 runs a thread)", 4_000, 500, |i| {
        thread::scope(|scope| {
            scope.spawn(|| {
                for run in 0..10 {
                    hub.service.run(&hub.token, UTIL, formula(i + run)).unwrap();
                }
            });
        });
    });
}

#[test]
#[ignore = "soak: run in release with --ignored"]
fn a_hub_at_rest_holds_no_model_it_has_not_served() {
    let _serial = serial();
    // Each model's weights, measured as built alone.
    let weights = |build: fn() -> Box<dyn std::any::Any>| retained(build).1;
    let cifar10 = weights(|| Box::new(ImageClassifier::cifar10(7)));
    let inception = weights(|| Box::new(ImageClassifier::inception(7)));
    let forest = weights(|| Box::new(MatminerModel::train(7)));
    println!("models: cifar10 {cifar10} B, inception {inception} B, forest {forest} B");
    let (hub, at_rest) = retained(|| TestHub::builder().build());
    println!("hub at rest: {at_rest} B (budget {AT_REST_BUDGET} B)");
    assert!(
        at_rest < AT_REST_BUDGET,
        "a hub that has served nothing holds {at_rest} B: a model was built at publish"
    );
    let image = Value::from_tensor(&dlhub_core::tensor::models::synthetic_image(
        &dlhub_core::tensor::models::CIFAR10_INPUT,
        0,
    ));
    let (_, served) = retained(|| {
        let result = hub.service.run(&hub.token, "dlhub/cifar10", image);
        result.expect("cifar10 serves a synthetic image");
    });
    println!("one cifar10 run: {served:+} B");
    // It built CIFAR-10 and no other model: a model built at publish or
    // by another's deploy has nothing left to load.
    for (id, unbuilt) in [
        ("dlhub/inception", true),
        ("dlhub/matminer-model", true),
        ("dlhub/cifar10", false),
    ] {
        let servable = hub.repo.resolve_internal(id).unwrap().0;
        assert_eq!(
            servable.load(),
            unbuilt,
            "{id}: did load() find a model to build?"
        );
    }
    // Its weights, its pool and what the request left behind (memo
    // entry, span rings), within the slack a soak case is allowed.
    assert!(
        served < cifar10 + SLACK,
        "one cifar10 run added {served} B: CIFAR-10's {cifar10} B of weights and \
         {} B more, past the {SLACK} B slack (inception {inception} B, forest {forest} B)",
        served - cifar10
    );
}
