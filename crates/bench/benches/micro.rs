//! Criterion micro-benchmarks for the design choices DESIGN.md calls
//! out: memo-cache lookups, batcher coalescing, broker RPC round
//! trips, wire protocols (the gRPC-vs-REST ablation behind Fig 8),
//! compute kernels, search queries and container builds.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use std::hint::black_box;
use std::time::Duration;

use dlhub_baselines::protocol::{decode, encode, Protocol};
use dlhub_core::hub::TestHub;
use dlhub_core::memo::{MemoCache, MemoKey};
use dlhub_core::value::Value;
use dlhub_queue::{Broker, BrokerConfig, RpcClient, RpcServer};
use dlhub_search::{Document, Index, Query};

fn bench_memo_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("memo");
    group.measurement_time(Duration::from_secs(2));
    let cache = MemoCache::new(64 * 1024 * 1024);
    let hot = MemoKey::new("m", &Value::Int(0));
    cache.put(hot.clone(), Value::Str("out".into()));
    for i in 0..1000 {
        cache.put(MemoKey::new("m", &Value::Int(i)), Value::Int(i));
    }
    group.bench_function("hit", |b| b.iter(|| black_box(cache.get(&hot))));
    let cold = MemoKey::new("m", &Value::Int(-1));
    group.bench_function("miss", |b| b.iter(|| black_box(cache.get(&cold))));
    // Key construction includes the content hash of the input — the
    // per-request cost of enabling memoization at all.
    let image = Value::Tensor {
        shape: vec![3, 32, 32],
        data: vec![0.5; 3 * 32 * 32],
    };
    group.bench_function("key_hash_cifar_input", |b| {
        b.iter(|| black_box(MemoKey::new("m", &image)))
    });
    // A short input's hash alone: `MemoKey::new` would also time
    // copying the servable id, several times the hash itself.
    let int = Value::Int(7);
    group.bench_function("key_hash_int", |b| {
        b.iter(|| black_box(black_box(&int).content_hash()))
    });
    // A whole memo hit at the Management Service: `run` on a resident
    // 12 KB CIFAR-10 image, token check to closed frame. The input is
    // cloned outside the timed call.
    let hub = TestHub::builder().memo(true).build();
    let image = Value::Tensor {
        shape: vec![3, 32, 32],
        data: (0..3 * 32 * 32).map(|i| (i as f32 * 0.37).sin()).collect(),
    };
    let run = |input| hub.service.run(&hub.token, "dlhub/cifar10", input).unwrap();
    assert!(!run(image.clone()).timings.cache_hit);
    assert!(run(image.clone()).timings.cache_hit);
    group.bench_function("run_hit", |b| {
        b.iter_batched(|| image.clone(), run, BatchSize::PerIteration)
    });
    // The same hit right after a 4 MB read, the CIFAR-10 dense layer's
    // weights: what the client's own miss leaves in the caches the hit
    // path then misses in.
    let stream = vec![1u64; (4 << 20) / 8];
    let after_stream = || {
        black_box(
            black_box(&stream)
                .iter()
                .fold(0u64, |sum, &w| sum.wrapping_add(w)),
        );
        image.clone()
    };
    group.bench_function("run_hit_after_stream", |b| {
        b.iter_batched(after_stream, run, BatchSize::PerIteration)
    });
    group.finish();
}

fn bench_queue_rpc(c: &mut Criterion) {
    let mut group = c.benchmark_group("queue");
    group.measurement_time(Duration::from_secs(3));
    let broker = Broker::new(BrokerConfig::default());
    let client = RpcClient::connect(&broker, "bench");
    let server = RpcServer::bind(&broker, "bench");
    let worker = std::thread::spawn(move || {
        server.serve_forever(|req| bytes::Bytes::copy_from_slice(req));
    });
    group.bench_function("rpc_round_trip_small", |b| {
        b.iter(|| {
            client
                .call_wait(bytes::Bytes::from_static(b"ping"), Duration::from_secs(5))
                .unwrap()
        })
    });
    let payload = bytes::Bytes::from(vec![7u8; 64 * 1024]);
    group.bench_function("rpc_round_trip_64k", |b| {
        b.iter(|| {
            client
                .call_wait(payload.clone(), Duration::from_secs(5))
                .unwrap()
        })
    });
    group.finish();
    broker.close_topic("bench").unwrap();
    let _ = worker.join();
}

fn bench_protocols(c: &mut Criterion) {
    // The Fig 8 ablation: binary vs JSON transport of a CIFAR-10
    // input tensor.
    let mut group = c.benchmark_group("protocol");
    group.measurement_time(Duration::from_secs(2));
    let tensor = Value::Tensor {
        shape: vec![3, 32, 32],
        data: (0..3 * 32 * 32).map(|i| (i % 255) as f32 / 255.0).collect(),
    };
    for protocol in [Protocol::Grpc, Protocol::Rest] {
        let label = match protocol {
            Protocol::Grpc => "grpc",
            Protocol::Rest => "rest",
        };
        group.bench_function(format!("encode_{label}"), |b| {
            b.iter(|| black_box(encode(protocol, &tensor).unwrap()))
        });
        let encoded = encode(protocol, &tensor).unwrap();
        group.bench_function(format!("decode_{label}"), |b| {
            b.iter(|| black_box(decode(protocol, &encoded).unwrap()))
        });
    }
    group.finish();
}

/// The tensor rung of the layer ladder: the GEMM shapes the CIFAR-10
/// conv layers hit, its 4096→256 dense layer, the ReLU and max-pool
/// after its second convolution, alone and fused into that
/// convolution's stage, and a whole forward pass of each model. `Throughput::Elements` counts floating-point operations (two
/// per multiply-add) where there are any, so `Gelem/s` reads as GFLOP/s;
/// for ReLU and pooling it counts input elements.
fn bench_kernels(c: &mut Criterion) {
    use dlhub_tensor::{models, ops, Block, Layer, Network, Tensor};
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let mut group = c.benchmark_group("kernels");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    let ramp = |len: usize, period: usize| -> Vec<f32> {
        (0..len).map(|i| (i % period) as f32 - 3.0).collect()
    };
    for (m, k, n) in [(32, 27, 1024), (32, 288, 1024), (64, 288, 256)] {
        let (a, b) = (ramp(m * k, 13), ramp(k * n, 7));
        group.throughput(Throughput::Elements((2 * m * k * n) as u64));
        group.bench_function(format!("gemm_{m}x{k}x{n}"), |bch| {
            bch.iter(|| black_box(ops::matmul(&a, &b, m, k, n)))
        });
    }
    // The rows below are fed full-mantissa values of random sign, like
    // conv outputs: `ramp` is periodic, a branch predictor learns it,
    // and a kernel that branches on sign reads 4x faster than it runs.
    let mut rng = StdRng::seed_from_u64(20);
    let mut noise =
        |len: usize| -> Vec<f32> { (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect() };
    let (k, n) = (4096, 256);
    let (w, x, bias) = (noise(k * n), noise(k), noise(n));
    group.throughput(Throughput::Elements((2 * k * n) as u64));
    group.bench_function(format!("dense_{k}x{n}"), |bch| {
        bch.iter(|| black_box(ops::dense(&w, &x, &bias)));
        // Every weight is read once and used once, so the floor is
        // memory bandwidth: 4 bytes per 2 FLOP.
        println!(
            "kernels/dense_{k}x{n} streams {} B of weights per call: GB/s = 2 x its GFLOP/s",
            4 * k * n
        );
    });
    let activations = Tensor::new(vec![32, 32, 32], noise(32 * 32 * 32)).unwrap();
    group.throughput(Throughput::Elements(activations.len() as u64));
    group.bench_function("relu_32x32x32", |bch| {
        bch.iter_batched(
            || activations.clone(),
            |mut t| {
                ops::relu(&mut t);
                t
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("maxpool_32x32x32_2x2", |bch| {
        bch.iter(|| black_box(ops::maxpool2d(&activations, 2, 2)))
    });
    // CIFAR-10's conv 32→32 stage on the same activations: the
    // convolution, its ReLU and its 2×2 max-pool as one pass, which
    // writes only the pooled output. Counted in FLOP, as the GEMMs are.
    let stage = Network::new(
        "conv_relu_pool",
        vec![32, 32, 32],
        vec![Block::Seq(vec![
            Layer::Conv2d {
                weights: noise(32 * 32 * 9),
                bias: noise(32),
                c_out: 32,
                kh: 3,
                kw: 3,
                stride: 1,
                padding: 1,
            },
            Layer::ReLU,
            Layer::MaxPool { size: 2, stride: 2 },
        ])],
    );
    group.throughput(Throughput::Elements(2 * stage.mul_adds() as u64));
    group.bench_function("conv_relu_pool_32x32x32", |bch| {
        bch.iter(|| black_box(stage.forward(activations.clone())))
    });
    let forwards = [
        ("cifar10_forward", models::cifar10(7)),
        ("inception_forward", models::inception(7)),
    ];
    for (name, net) in forwards {
        let img = models::synthetic_image(&net.input_shape, 0);
        group.throughput(Throughput::Elements(2 * net.mul_adds() as u64));
        group.bench_function(name, |bch| bch.iter(|| black_box(net.forward(img.clone()))));
    }
    group.finish();
}

fn bench_matsci(c: &mut Criterion) {
    let mut group = c.benchmark_group("matsci");
    group.measurement_time(Duration::from_secs(2));
    group.bench_function("parse_formula", |b| {
        b.iter(|| black_box(dlhub_matsci::parse_formula("Ba(Ti0.8Zr0.2)O3").unwrap()))
    });
    let composition = dlhub_matsci::parse_formula("BaTiO3").unwrap();
    group.bench_function("featurize", |b| {
        b.iter(|| black_box(dlhub_matsci::featurize(&composition)))
    });
    let data = dlhub_matsci::dataset::generate(300, 1);
    let forest = dlhub_matsci::RandomForest::fit(
        &data.features(),
        &data.targets(),
        &dlhub_matsci::ForestConfig {
            n_trees: 25,
            ..Default::default()
        },
    );
    let probe = dlhub_matsci::featurize(&composition);
    group.bench_function("forest_predict", |b| {
        b.iter(|| black_box(forest.predict(&probe)))
    });
    // 256 distinct rows in turn, as `matminer-mixed`'s formula pool
    // reaches the model: no branch predictor learns their paths, where
    // it learns the one path of the repeated probe above.
    let pool = dlhub_matsci::dataset::generate(256, 99).features();
    let mut next = 0;
    group.bench_function("forest_predict_pool", |b| {
        b.iter(|| {
            next = (next + 1) % pool.len();
            black_box(forest.predict(&pool[next]))
        })
    });
    // A 32-input `run_batch` chunk: 32 distinct pool rows per call,
    // through one `predict_many`.
    let blocks: Vec<&[Vec<f64>]> = pool.chunks_exact(32).collect();
    let mut next = 0;
    group.bench_function("forest_predict_many", |b| {
        b.iter(|| {
            next = (next + 1) % blocks.len();
            black_box(forest.predict_many(blocks[next]))
        });
        println!(
            "matsci/forest_predict_many walks with {}",
            forest.walk_build()
        );
    });
    // `MatminerModel::train(7)`'s fit: the build a first
    // `dlhub/matminer-model` request waits for.
    let data = dlhub_matsci::dataset::generate(500, 7);
    let (x, y) = (data.features(), data.targets());
    let config = dlhub_matsci::ForestConfig {
        n_trees: 25,
        max_features: Some(16),
        seed: 7,
        ..Default::default()
    };
    group.bench_function("forest_fit", |b| {
        b.iter(|| black_box(dlhub_matsci::RandomForest::fit(&x, &y, &config)))
    });
    group.finish();
}

fn bench_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("search");
    group.measurement_time(Duration::from_secs(2));
    let index = Index::new();
    for i in 0..1000 {
        index
            .upsert(Document::new(
                format!("model-{i}"),
                serde_json::json!({
                    "title": format!("model number {i} for domain {}", i % 7),
                    "model_type": if i % 2 == 0 { "keras" } else { "sklearn" },
                    "year": 2015 + (i % 5),
                }),
                vec!["public".into()],
            ))
            .unwrap();
    }
    group.bench_function("free_text_1k_docs", |b| {
        b.iter(|| black_box(index.search(&Query::free_text("model domain 3"), &[])))
    });
    group.bench_function("boolean_range_1k_docs", |b| {
        let q =
            Query::field_match("model_type", "keras").and(Query::range("year", Some(2017.0), None));
        b.iter(|| black_box(index.search(&q, &[])))
    });
    group.finish();
}

fn bench_container_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("container");
    group.measurement_time(Duration::from_secs(2));
    let mut recipe = dlhub_container::Recipe::from_base("python:3.7");
    recipe
        .add_dependency(dlhub_container::Dependency::new("keras", "2.2.4"))
        .unwrap();
    recipe.add_file("weights.h5", vec![7u8; 64 * 1024]);
    recipe.entrypoint("dlhub-shim");
    group.bench_function("image_build_cold_cache", |b| {
        b.iter_batched(
            dlhub_container::ImageBuilder::new,
            |mut builder| black_box(builder.build(&recipe)),
            BatchSize::SmallInput,
        )
    });
    let mut warm = dlhub_container::ImageBuilder::new();
    warm.build(&recipe);
    group.bench_function("image_build_warm_cache", |b| {
        b.iter(|| black_box(warm.build(&recipe)))
    });
    group.finish();
}

fn bench_hpc_scheduler(c: &mut Criterion) {
    use dlhub_container::hpc::{BatchScheduler, JobRequest};
    let mut group = c.benchmark_group("hpc");
    group.measurement_time(Duration::from_secs(2));
    // Submit+advance a 200-job backfill workload: the scheduler's
    // decision cost, not the (virtual) job time.
    group.bench_function("schedule_200_jobs_with_backfill", |b| {
        b.iter(|| {
            let sched = BatchScheduler::new(64);
            for i in 0..200u64 {
                sched
                    .submit(JobRequest {
                        name: format!("j{i}"),
                        nodes: 1 + (i % 16) as usize,
                        walltime_s: 10 + i % 50,
                        sif: dlhub_container::Digest(1, 1),
                    })
                    .unwrap();
            }
            sched.advance(100_000);
            black_box(sched.free_nodes())
        })
    });
    group.finish();
}

fn bench_transfer(c: &mut Criterion) {
    use dlhub_transfer::TransferService;
    let mut group = c.benchmark_group("transfer");
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(20);
    let svc = TransferService::new();
    let src = svc.create_endpoint("src", 1000.0);
    let dst = svc.create_endpoint("dst", 1000.0);
    src.put("/mb", vec![7u8; 1024 * 1024]);
    group.bench_function("staged_1mb_verified", |b| {
        b.iter(|| {
            let task = svc.submit(&src, "/mb", &dst, "/mb").unwrap();
            black_box(svc.wait(&task).unwrap())
        })
    });
    group.finish();
}

fn bench_training(c: &mut Criterion) {
    use dlhub_tensor::layer::Layer;
    use dlhub_tensor::{Tensor, Trainable};
    let mut group = c.benchmark_group("train");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(3));
    let make_net = || {
        Trainable::new(
            vec![1, 16, 16],
            vec![
                Layer::Conv2d {
                    weights: vec![0.01; 8 * 9],
                    bias: vec![0.0; 8],
                    c_out: 8,
                    kh: 3,
                    kw: 3,
                    stride: 1,
                    padding: 1,
                },
                Layer::ReLU,
                Layer::MaxPool { size: 2, stride: 2 },
                Layer::Flatten,
                Layer::Dense {
                    weights: vec![0.01; 512 * 4],
                    bias: vec![0.0; 4],
                    out: 4,
                    input: 512,
                },
            ],
        )
        .unwrap()
    };
    let batch: Vec<(Tensor, usize)> = (0..16)
        .map(|i| {
            (
                Tensor::new(
                    vec![1, 16, 16],
                    (0..256).map(|p| ((p + i) % 7) as f32 / 7.0).collect(),
                )
                .unwrap(),
                i % 4,
            )
        })
        .collect();
    group.bench_function("sgd_step_batch16_conv8_16x16", |b| {
        b.iter_batched(
            make_net,
            |mut net| black_box(net.sgd_step(&batch, 0.05, 0.9).unwrap()),
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_uncertainty(c: &mut Criterion) {
    let mut group = c.benchmark_group("uq");
    group.measurement_time(Duration::from_secs(2));
    let data = dlhub_matsci::dataset::generate(300, 1);
    let forest = dlhub_matsci::RandomForest::fit(
        &data.features(),
        &data.targets(),
        &dlhub_matsci::ForestConfig {
            n_trees: 25,
            ..Default::default()
        },
    );
    let probe = dlhub_matsci::featurize(&dlhub_matsci::parse_formula("BaTiO3").unwrap());
    group.bench_function("forest_predict_with_uncertainty", |b| {
        b.iter(|| black_box(forest.predict_with_uncertainty(&probe)))
    });
    group.finish();
}

fn bench_memo_contention(c: &mut Criterion) {
    // The sharded cache's reason to exist: get/put latency while other
    // threads hammer the cache. With a single global lock these
    // numbers collapse; with shards they should stay near the
    // uncontended cost.
    let mut group = c.benchmark_group("memo_contended");
    group.measurement_time(Duration::from_secs(2));
    for contenders in [0usize, 3, 7] {
        let cache = std::sync::Arc::new(MemoCache::new(64 * 1024 * 1024));
        for i in 0..1000 {
            cache.put(MemoKey::new("m", &Value::Int(i)), Value::Int(i));
        }
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let hammers: Vec<_> = (0..contenders)
            .map(|t| {
                let cache = std::sync::Arc::clone(&cache);
                let stop = std::sync::Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut i = 0i64;
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        let key = MemoKey::new("m", &Value::Int((t as i64) * 1000 + i % 500));
                        if i % 4 == 0 {
                            cache.put(key, Value::Int(i));
                        } else {
                            black_box(cache.get(&key));
                        }
                        i += 1;
                    }
                })
            })
            .collect();
        let hot = MemoKey::new("m", &Value::Int(0));
        group.bench_function(format!("get_with_{contenders}_contenders"), |b| {
            b.iter(|| black_box(cache.get(&hot)))
        });
        group.bench_function(format!("put_with_{contenders}_contenders"), |b| {
            let mut i = 0i64;
            b.iter(|| {
                i += 1;
                cache.put(MemoKey::new("bench", &Value::Int(i % 500)), Value::Int(i));
            })
        });
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for h in hammers {
            h.join().unwrap();
        }
    }
    group.finish();
}

fn bench_memo_eviction(c: &mut Criterion) {
    // Eviction must be O(1): a put that evicts from a 100k-entry cache
    // should cost the same as one evicting from a 10k-entry cache
    // (the old implementation scanned every entry for the LRU victim).
    let mut group = c.benchmark_group("memo_eviction");
    group.measurement_time(Duration::from_secs(2));
    for entries in [10_000i64, 100_000] {
        let payload_size = Value::Bytes(vec![0u8; 64]).approx_size();
        let cache = MemoCache::new(entries as usize * payload_size);
        for i in 0..entries {
            cache.put(
                MemoKey::new("m", &Value::Int(i)),
                Value::Bytes(vec![0u8; 64]),
            );
        }
        // The cache is exactly full: every further put evicts.
        let mut i = entries;
        group.bench_function(format!("evicting_put_at_{entries}_entries"), |b| {
            b.iter(|| {
                i += 1;
                cache.put(
                    MemoKey::new("m", &Value::Int(i)),
                    Value::Bytes(vec![0u8; 64]),
                );
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_memo_cache,
    bench_memo_contention,
    bench_memo_eviction,
    bench_queue_rpc,
    bench_protocols,
    bench_kernels,
    bench_matsci,
    bench_search,
    bench_container_build,
    bench_hpc_scheduler,
    bench_training,
    bench_transfer,
    bench_uncertainty,
);
criterion_main!(benches);
