//! The layer ladder: the benchmark calls each layer's public function
//! directly, on one thread, with the workload's representative op, and
//! records every call as a span. Rungs that contain other rungs give a
//! layer's own cost by subtraction.

use crate::spans::Recorder;
use crate::stats::percentile;
use crate::workload::{Bench, MEMO_CAPACITY_BYTES};
use bytes::Bytes;
use dlhub_core::executor::Executor;
use dlhub_core::hub::TestHub;
use dlhub_core::memo::{MemoCache, MemoKey};
use dlhub_core::task::{TaskRequest, TaskResponse};
use dlhub_core::task_manager::TaskManager;
use dlhub_core::tensor::models;
use dlhub_core::value::Value;
use dlhub_queue::shard::ShardedRing;
use dlhub_queue::{RpcClient, RpcServer};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Calls per rung, unless the rung's time share runs out first.
const TARGET_CALLS: usize = 2000;
/// Calls a rung makes even when one call outlasts its time share.
const MIN_CALLS: usize = 20;
/// Rungs that take milliseconds per call on the cifar workloads; the
/// ladder's time is split between them.
const SLOW_RUNGS: u32 = 6;
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// The three composite rungs and what they contain, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Composite {
    pub servable_run: f64,
    pub rpc_roundtrip: f64,
    pub executor_execute: f64,
    pub task_manager_roundtrip: f64,
    pub serving_run: f64,
}

/// Own cost of each dispatch layer, by subtraction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelfTimes {
    /// `execute − servable.run`: pool hand-off and reply collection.
    pub executor: f64,
    /// `roundtrip − rpc − execute`: decode, resolve, route, encode.
    pub task_manager: f64,
    /// `run − task-manager roundtrip`: auth, resolve, admission, spans,
    /// metrics, request encode.
    pub serving: f64,
}

impl Composite {
    pub fn self_times(&self) -> SelfTimes {
        SelfTimes {
            executor: self.executor_execute - self.servable_run,
            task_manager: self.task_manager_roundtrip - self.rpc_roundtrip - self.executor_execute,
            serving: self.serving_run - self.task_manager_roundtrip,
        }
    }
}

struct Ladder<'a> {
    rec: &'a mut Recorder,
    rung_time: Duration,
    metrics: Vec<(&'static str, f64)>,
    failed_calls: u64,
}

impl Ladder<'_> {
    /// One rung: `prepare` and `check` run outside the span, `call`
    /// inside it. Returns the p50 of the calls in microseconds.
    fn rung<I, R>(
        &mut self,
        name: &'static str,
        mut prepare: impl FnMut(usize) -> I,
        mut call: impl FnMut(I) -> R,
        mut check: impl FnMut(usize, R) -> bool,
    ) -> f64 {
        let started = Instant::now();
        let first = self.rec.len();
        let mut calls = 0;
        while calls < TARGET_CALLS && (calls < MIN_CALLS || started.elapsed() < self.rung_time) {
            let input = prepare(calls);
            let output = self.rec.time(name, calls as u64, || call(input));
            if !check(calls, output) {
                self.failed_calls += 1;
            }
            calls += 1;
        }
        let mut nanos: Vec<u64> = self.rec.spans()[first..]
            .iter()
            .map(|s| s.duration_ns())
            .collect();
        nanos.sort_unstable();
        let p50 = percentile(&nanos, 0.5) as f64 / 1e3;
        self.metrics.push((name, p50));
        p50
    }
}

/// What the ladder found.
pub struct Report {
    pub metrics: Vec<(&'static str, f64)>,
    /// The top rung, for comparison with the live 1-client path.
    pub serving_run_p50_us: f64,
    pub calls: u64,
    /// Calls whose output was wrong.
    pub failed: u64,
}

/// Run every rung against `hub` (already warm).
pub fn run(bench: &Bench, hub: &TestHub, rec: &mut Recorder, ladder_time: Duration) -> Report {
    let spans_before = rec.len();
    let mut ladder = Ladder {
        rec,
        rung_time: ladder_time / SLOW_RUNGS,
        metrics: Vec::new(),
        failed_calls: 0,
    };
    let request = |call: usize| {
        let (servable, input, _) = bench.ladder_op(call);
        TaskRequest {
            task_id: format!("ladder-{call:08x}"),
            servable: servable.to_string(),
            inputs: vec![input],
            trace: None,
        }
    };
    let expected = |call: usize| bench.ladder_op(call).2.clone();
    let (servable_id, _, _) = bench.ladder_op(0);

    // Task envelope codec: request out and back, response out and back.
    let mut wire_bytes = 0;
    ladder.rung(
        "task.codec_p50_us",
        |call| {
            let response = TaskResponse {
                task_id: format!("ladder-{call:08x}"),
                outcome: Ok(vec![expected(call)]),
                inference_nanos: vec![1],
                invocation_nanos: 2,
            };
            (request(call), response)
        },
        |(request, response)| {
            let (req_bytes, resp_bytes) = (request.to_bytes(), response.to_bytes());
            let decoded = (
                TaskRequest::from_bytes(&req_bytes),
                TaskResponse::from_bytes(&resp_bytes),
            );
            (
                request,
                response,
                decoded,
                req_bytes.len() + resp_bytes.len(),
            )
        },
        |_, (request, response, decoded, len)| {
            wire_bytes = len;
            decoded == (Ok(request), Ok(response))
        },
    );
    ladder.metrics.push(("task.wire_bytes", wire_bytes as f64));

    // Memo cache: key hash, hit, and insert-with-eviction.
    ladder.rung(
        "memo.key_p50_us",
        |call| bench.ladder_op(call).1,
        |input| MemoKey::new(servable_id, &input),
        |_, _| true,
    );
    let resident = 256;
    let cache = MemoCache::new(64 << 20);
    let key_of = |call: usize| MemoKey::new(servable_id, &bench.ladder_op(call).1);
    for call in 0..resident {
        cache.put(key_of(call), expected(call));
    }
    ladder.rung(
        "memo.get_hit_p50_us",
        |call| key_of(call % resident),
        |key| cache.get(&key),
        |call, got| got == Some(expected(call % resident)),
    );
    let small = MemoCache::new(MEMO_CAPACITY_BYTES);
    let fresh_key = |n: usize| MemoKey::new(servable_id, &Value::Int(n as i64));
    for n in 0..1024 {
        small.put(fresh_key(n), expected(0));
    }
    let evicted_before = small.stats().evictions;
    ladder.rung(
        "memo.put_evict_p50_us",
        |call| (fresh_key(1024 + call), expected(0)),
        |(key, value)| small.put(key, value),
        |_, ()| true,
    );
    if small.stats().evictions == evicted_before {
        ladder.failed_calls += 1;
    }

    // Queue: ring, broker lease cycle, request/reply over the broker.
    let payload = request(0).to_bytes();
    let ring: ShardedRing<Bytes> = ShardedRing::new();
    ladder.rung(
        "shard.push_claim_p50_us",
        |_| payload.clone(),
        |item| {
            ring.push_back(item);
            ring.try_claim()
        },
        |_, claimed| claimed.is_some_and(|(_, item)| item == payload),
    );
    let topic = "bench.ladder.broker";
    hub.broker.ensure_topic(topic);
    ladder.rung(
        "broker.send_recv_ack_p50_us",
        |_| payload.clone(),
        |item| {
            let sent = hub.broker.send(topic, item);
            let delivery = hub.broker.recv_timeout(topic, REPLY_TIMEOUT);
            let body = delivery.as_ref().ok().map(|d| d.message.payload.clone());
            if let Ok(delivery) = delivery {
                delivery.ack();
            }
            (sent.is_ok(), body)
        },
        |_, (sent, body)| sent && body.as_ref() == Some(&payload),
    );
    let rpc_roundtrip = {
        let topic = "bench.ladder.rpc";
        let client = RpcClient::connect(&hub.broker, topic);
        let server = RpcServer::bind(&hub.broker, topic);
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    // An echo server: the reply is the request.
                    if server
                        .serve_one(Duration::from_millis(20), |req| req.clone())
                        .is_err()
                    {
                        break;
                    }
                }
            });
            let p50 = ladder.rung(
                "rpc.roundtrip_p50_us",
                |_| payload.clone(),
                |item| client.call_wait(item, REPLY_TIMEOUT),
                |_, reply| reply.is_ok_and(|r| r == payload),
            );
            stop.store(true, Ordering::Relaxed);
            p50
        })
    };

    // Model time: the servable, and the two networks under it.
    let (servable, _) = hub
        .repo
        .resolve_internal(servable_id)
        .expect("the ladder's servable is published");
    let servable_run = ladder.rung(
        "servable.run_p50_us",
        |call| bench.ladder_op(call).1,
        |input| servable.run(&input),
        |call, out| out == Ok(expected(call)),
    );
    for (name, network, shape) in [
        (
            "tensor.cifar10_forward_p50_us",
            models::cifar10(7),
            &models::CIFAR10_INPUT,
        ),
        (
            "tensor.inception_forward_p50_us",
            models::inception(7),
            &models::INCEPTION_INPUT,
        ),
    ] {
        let image = models::synthetic_image(shape, 0);
        ladder.rung(
            name,
            |_| image.clone(),
            |image| network.forward(image),
            |_, probabilities| (probabilities.data().iter().sum::<f32>() - 1.0).abs() < 1e-3,
        );
    }

    // Dispatch: executor pool, a real Task Manager behind the RPC
    // client, and the whole `ManagementService::run`.
    let executor_execute = ladder.rung(
        "executor.execute_p50_us",
        |call| [bench.ladder_op(call).1],
        |inputs| hub.parsl.execute(servable_id, &servable, &inputs),
        |call, out| out.is_ok_and(|(outputs, _)| outputs == [expected(call)]),
    );
    let task_manager_roundtrip = {
        let topic = "bench.ladder.tasks";
        let executors = vec![Arc::clone(&hub.parsl) as Arc<dyn Executor>];
        let task_manager = TaskManager::start(
            "bench-ladder-tm",
            &hub.broker,
            topic,
            Arc::clone(&hub.repo),
            executors,
            2,
        );
        let client = RpcClient::connect(&hub.broker, topic);
        let p50 = ladder.rung(
            "task_manager.roundtrip_p50_us",
            |call| request(call).to_bytes(),
            |bytes| client.call_wait(bytes, REPLY_TIMEOUT),
            |call, reply| {
                reply
                    .ok()
                    .and_then(|bytes| TaskResponse::from_bytes(&bytes).ok())
                    .is_some_and(|response| response.outcome == Ok(vec![expected(call)]))
            },
        );
        task_manager.shutdown();
        p50
    };
    let serving_run = ladder.rung(
        "serving.run_p50_us",
        |call| bench.ladder_op(call).1,
        |input| hub.service.run(&hub.token, servable_id, input),
        |call, result| result.is_ok_and(|r| r.value == expected(call)),
    );

    let composite = Composite {
        servable_run,
        rpc_roundtrip,
        executor_execute,
        task_manager_roundtrip,
        serving_run,
    };
    let own = composite.self_times();
    ladder.metrics.extend([
        ("executor.self_p50_us", own.executor),
        ("task_manager.self_p50_us", own.task_manager),
        ("serving.self_p50_us", own.serving),
    ]);
    Report {
        serving_run_p50_us: serving_run,
        calls: (ladder.rec.len() - spans_before) as u64,
        failed: ladder.failed_calls,
        metrics: ladder.metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_differences_sum_back_to_serving_run() {
        let rungs = Composite {
            servable_run: 4000.0,
            rpc_roundtrip: 45.5,
            executor_execute: 4030.25,
            task_manager_roundtrip: 4101.0,
            serving_run: 4140.5,
        };
        let own = rungs.self_times();
        assert_eq!(own.executor, 30.25);
        assert_eq!(own.task_manager, 25.25);
        assert_eq!(own.serving, 39.5);
        let rebuilt = own.serving
            + own.task_manager
            + rungs.rpc_roundtrip
            + own.executor
            + rungs.servable_run;
        assert!((rebuilt - rungs.serving_run).abs() < 1e-9);
    }
}
