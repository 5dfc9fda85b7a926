//! What a workload does to the program: build and warm a hub, run one
//! client op through the public API, and check its output against an
//! oracle computed by calling the servables directly.

use crate::inputs::{Inputs, Op, Workload, BATCH_ITEMS, FIXED_WORK_CLIENT, WARMUP_CLIENT};
use dlhub_core::hub::TestHub;
use dlhub_core::metrics::Timings;
use dlhub_core::pipeline::Pipeline;
use dlhub_core::servable::builtins::evaluation_servables;
use dlhub_core::serving::ServingConfig;
use dlhub_core::task::TaskStatus;
use dlhub_core::value::Value;
use dlhub_core::Servable;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const NOOP: &str = "dlhub/noop";
pub const CIFAR: &str = "dlhub/cifar10";
pub const UTIL: &str = "dlhub/matminer-util";
pub const FEATURIZE: &str = "dlhub/matminer-featurize";
pub const MODEL: &str = "dlhub/matminer-model";
pub const PIPELINE: &str = "bench-formation-enthalpy";

/// Model-weight seed of the hub (the `TestHub` default). `--seed` never
/// touches it: seeds vary the inputs, not the program.
const HUB_SEED: u64 = 7;
/// `cifar-memo-zipf` memo budget: about an eighth of the 1024-image
/// pool's outputs stay resident, so most misses evict.
pub const MEMO_CAPACITY_BYTES: usize = 6144;
const ASYNC_WAIT: Duration = Duration::from_secs(30);
/// Closed loop, zero think time. Two clients keep a second request in
/// the queue while the first is served, so the program's threads hand
/// work to each other instead of going to sleep between requests; more
/// clients than that would only lengthen the queue on the one CPU the
/// run is confined to.
pub const CLIENTS: usize = 2;

/// Which public entry point an op went through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Run,
    Pipeline,
    Batch,
    Async,
}

impl OpKind {
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Run => "run",
            OpKind::Pipeline => "pipeline",
            OpKind::Batch => "batch",
            OpKind::Async => "async",
        }
    }
}

/// What one client op looked like from outside.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    pub kind: OpKind,
    /// Stopwatch around the public call(s) only: input cloning and the
    /// oracle comparison are outside it.
    pub latency_ns: u64,
    /// `Ok` and equal to the oracle.
    pub ok: bool,
    /// `RunResult.timings.cache_hit` (single runs only).
    pub cache_hit: bool,
    /// Program-reported nested timings: one per `run`, three per
    /// pipeline, none for batch and async ops.
    steps: [Timings; 3],
    n_steps: usize,
}

impl Outcome {
    /// A failed op of `kind`; the caller fills in what succeeded.
    fn new(kind: OpKind, latency: Duration) -> Outcome {
        Outcome {
            kind,
            latency_ns: latency.as_nanos() as u64,
            ok: false,
            cache_hit: false,
            steps: [Timings::default(); 3],
            n_steps: 0,
        }
    }

    pub fn steps(&self) -> &[Timings] {
        &self.steps[..self.n_steps]
    }
}

/// Expected outputs, from `Servable::run` called directly.
struct Oracle {
    noop: Value,
    cifar: Vec<Value>,
    util: Vec<Value>,
    /// Featurize outputs: the precomputed inputs of batch ops.
    features: Vec<Value>,
    model: Vec<Value>,
}

/// One workload, ready to run: its inputs and their expected outputs.
pub struct Bench {
    workload: Workload,
    pub inputs: Inputs,
    oracle: Oracle,
    quick: bool,
}

/// A built and warmed hub, and what building it cost.
pub struct Setup {
    pub hub: TestHub,
    /// Hub build, publication, pipeline registration, replica deployment
    /// on the first requests and the fixed-count warm-up.
    pub seconds: f64,
    pub warmup_ops: u64,
    pub warmup_failed: u64,
}

fn direct(servable: &Arc<dyn Servable>, input: &Value) -> Value {
    servable
        .run(input)
        .expect("oracle: a generated input is valid for its servable")
}

impl Bench {
    /// Generate the inputs for `seed` and compute every expected
    /// output. Harness work: not part of `setup_s`.
    pub fn prepare(workload: Workload, seed: u64, quick: bool) -> Bench {
        let inputs = Inputs::generate(workload, seed, quick);
        let servables = evaluation_servables("dlhub@dlhub.org", HUB_SEED);
        let find = |id: &str| {
            let found = servables.iter().find(|b| b.metadata.id() == id);
            Arc::clone(&found.expect("an evaluation servable").servable)
        };
        let cifar_servable = find(CIFAR);
        // Inference dominates oracle time: split the pool over the
        // machine's two cores.
        let cifar = std::thread::scope(|scope| {
            let halves: Vec<_> = inputs
                .images
                .chunks(inputs.images.len().div_ceil(CLIENTS).max(1))
                .map(|chunk| {
                    let servable = &cifar_servable;
                    scope.spawn(move || {
                        chunk
                            .iter()
                            .map(|image| direct(servable, image))
                            .collect::<Vec<Value>>()
                    })
                })
                .collect();
            halves
                .into_iter()
                .flat_map(|h| h.join().expect("oracle thread"))
                .collect()
        });
        let (util_servable, featurize, model_servable) = (find(UTIL), find(FEATURIZE), find(MODEL));
        let util: Vec<Value> = inputs
            .formulas
            .iter()
            .map(|f| direct(&util_servable, f))
            .collect();
        let features: Vec<Value> = util.iter().map(|u| direct(&featurize, u)).collect();
        let model = features
            .iter()
            .map(|f| direct(&model_servable, f))
            .collect();
        Bench {
            workload,
            oracle: Oracle {
                noop: direct(&find(NOOP), &Value::Null),
                cifar,
                util,
                features,
                model,
            },
            inputs,
            quick,
        }
    }

    /// Ops in the set-up warm-up, split between the clients: fixed per
    /// workload, so `setup_s` measures the same work on every commit.
    fn warmup_ops(&self) -> usize {
        let full = match self.workload {
            Workload::NoopDispatch => 4000,
            Workload::CifarMemoZipf => 128,
            Workload::MatminerMixed => 2000,
        };
        if self.quick {
            full.min(50)
        } else {
            full
        }
    }

    /// Build the hub the way a deployment would, deploy replicas with
    /// the first requests and warm up.
    pub fn setup(&self) -> Setup {
        let started = Instant::now();
        let memo = self.workload == Workload::CifarMemoZipf;
        let mut config = ServingConfig::default();
        if memo {
            config.memo_capacity = MEMO_CAPACITY_BYTES;
        }
        let hub = TestHub::builder()
            .task_managers(1)
            .consumers(2)
            .replicas(2)
            .seed(HUB_SEED)
            .config(config)
            .memo(memo)
            .build();
        if self.workload == Workload::MatminerMixed {
            let steps = vec![UTIL.to_string(), FEATURIZE.to_string(), MODEL.to_string()];
            hub.service
                .register_pipeline(&hub.token, Pipeline::new(PIPELINE, steps))
                .expect("the three matminer stages are published");
        }
        // Warm up under the load shape that is measured: the clients
        // side by side.
        let warmup_ops = self.warmup_ops();
        let failed = self.run_ops(&hub, WARMUP_CLIENT, warmup_ops);
        Setup {
            hub,
            seconds: started.elapsed().as_secs_f64(),
            warmup_ops: warmup_ops as u64,
            warmup_failed: failed,
        }
    }

    /// `total` ops split between the clients, side by side, from the
    /// streams `first_client..`; returns how many failed.
    fn run_ops(&self, hub: &TestHub, first_client: u64, total: usize) -> u64 {
        let per_client = total / CLIENTS;
        std::thread::scope(|scope| {
            let clients: Vec<_> = (0..CLIENTS as u64)
                .map(|client| {
                    scope.spawn(move || {
                        let mut stream = self.inputs.stream(first_client + client);
                        (0..per_client)
                            .filter(|_| !self.exec(hub, stream.next_op()).ok)
                            .count() as u64
                    })
                })
                .collect();
            clients
                .into_iter()
                .map(|c| c.join().expect("client thread"))
                .sum()
        })
    }

    /// Ops served before `peak_rss_mb` is read: a fixed count (about a
    /// second and a half of work), so the figure is the memory of a hub
    /// that has served this many requests on every machine and commit,
    /// not of however many a run got through.
    pub fn fixed_work_ops(&self) -> usize {
        let full = match self.workload {
            Workload::NoopDispatch => 100_000,
            Workload::CifarMemoZipf => 1_500,
            Workload::MatminerMixed => 30_000,
        };
        if self.quick {
            full.min(200)
        } else {
            full
        }
    }

    /// Serve [`Bench::fixed_work_ops`] ops; returns how many failed.
    pub fn fixed_work(&self, hub: &TestHub) -> u64 {
        self.run_ops(hub, FIXED_WORK_CLIENT, self.fixed_work_ops())
    }

    /// `ManagementService::run` on one input.
    fn run_single(&self, hub: &TestHub, id: &str, input: Value, expected: &Value) -> Outcome {
        let started = Instant::now();
        let result = hub.service.run(&hub.token, id, input);
        let mut outcome = Outcome::new(OpKind::Run, started.elapsed());
        if let Ok(result) = result {
            outcome.steps[0] = result.timings;
            outcome.n_steps = 1;
            outcome.cache_hit = result.timings.cache_hit;
            outcome.ok = result.value == *expected;
        }
        outcome
    }

    /// Run one op through the public API and check it.
    pub fn exec(&self, hub: &TestHub, op: Op) -> Outcome {
        let (service, token, oracle) = (&hub.service, &hub.token, &self.oracle);
        match op {
            Op::Noop(n) => self.run_single(hub, NOOP, Value::Int(n), &oracle.noop),
            Op::Cifar(i) => {
                self.run_single(hub, CIFAR, self.inputs.images[i].clone(), &oracle.cifar[i])
            }
            Op::Util(i) => {
                self.run_single(hub, UTIL, self.inputs.formulas[i].clone(), &oracle.util[i])
            }
            Op::Pipeline(i) => {
                let input = self.inputs.formulas[i].clone();
                let started = Instant::now();
                let result = service.run_pipeline(token, PIPELINE, input);
                let mut outcome = Outcome::new(OpKind::Pipeline, started.elapsed());
                if let Ok((value, timings)) = result {
                    outcome.n_steps = timings.len().min(3);
                    for (slot, step) in outcome.steps.iter_mut().zip(&timings) {
                        *slot = step.timings;
                    }
                    outcome.ok = timings.len() == 3 && value == oracle.model[i];
                }
                outcome
            }
            Op::Batch(i) => {
                let pool = oracle.features.len();
                let items = (0..BATCH_ITEMS).map(|k| (i + k) % pool);
                let inputs: Vec<Value> =
                    items.clone().map(|j| oracle.features[j].clone()).collect();
                let started = Instant::now();
                let result = service.run_batch(token, MODEL, inputs);
                let mut outcome = Outcome::new(OpKind::Batch, started.elapsed());
                outcome.ok = result.is_ok_and(|(outputs, _)| {
                    outputs.len() == BATCH_ITEMS
                        && items.zip(&outputs).all(|(j, out)| *out == oracle.model[j])
                });
                outcome
            }
            Op::Async(i) => {
                let input = self.inputs.formulas[i].clone();
                let started = Instant::now();
                let status = service
                    .run_async(token, UTIL, input)
                    .map(|handle| handle.wait(ASYNC_WAIT));
                let mut outcome = Outcome::new(OpKind::Async, started.elapsed());
                outcome.ok = matches!(status, Ok(TaskStatus::Completed(v)) if v == oracle.util[i]);
                outcome
            }
        }
    }

    /// The workload's representative single op for the layer ladder:
    /// `(servable id, input, expected output)` of the `call`-th ladder
    /// call. Inputs walk the pool from its unpopular end, so on
    /// `cifar-memo-zipf` the ladder's calls through `serving.run` are
    /// misses, like the dispatching ops they are compared with.
    pub fn ladder_op(&self, call: usize) -> (&'static str, Value, &Value) {
        match self.workload {
            Workload::NoopDispatch => {
                (NOOP, Value::Int((1 << 50) + call as i64), &self.oracle.noop)
            }
            Workload::CifarMemoZipf => {
                let pool = self.inputs.images.len();
                let i = pool - 1 - call % pool;
                (CIFAR, self.inputs.images[i].clone(), &self.oracle.cifar[i])
            }
            Workload::MatminerMixed => {
                let i = call % self.inputs.formulas.len();
                (UTIL, self.inputs.formulas[i].clone(), &self.oracle.util[i])
            }
        }
    }
}
